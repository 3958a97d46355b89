"""``experiments.PARAMETERS`` names exactly the keys each experiment reads;
the CLI offers a flag for each, and a run or a replayed record given any
other key is refused before any work."""

import json
import shlex
from pathlib import Path

import pytest

from oraclelab import experiments, oracle
from oraclelab.cli import ExperimentConfig, build_parser, main, replay, run
from oraclelab.errors import InvalidConfigError
from oraclelab.rfs import classical_solver, make_rfs_spec, save_query_log

class _Reads(dict):
    """A parameter mapping that notes every key an experiment looks up."""

    def __init__(self, params, seen):
        super().__init__(params)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.seen.add(key)
        return super().__contains__(key)


def _tiny_runs(tmp_path):
    spec = make_rfs_spec(depth=1, n_symbol_bits=3, master_seed=0, alpha_n=2)
    save_query_log(classical_solver(spec).log, tmp_path / "log.jsonl")
    return {
        "dispersion": [
            {"n": 3},
            {"unitary": "qft", "n": 3},
            {"unitary": "random", "n": 3, "t": 10},
            {"n": 2, "group": "q8", "samples": 20},
        ],
        "signs": [{"trials": 5}],
        "oracle": [{"n": 3}, {"unitary": "random", "n": 3, "t": 10, "labels": 4}],
        "rfs": [
            {"l": 1, "n": 3, "alpha_n": 2, "trials": 1},
            {"mode": "separation", "l": 1, "n_list": [2, 3]},
            {"mode": "bound-table", "n_list": [16]},
            {
                "mode": "replay-log",
                "l": 1,
                "n": 3,
                "alpha_n": 2,
                "log_file": str(tmp_path / "log.jsonl"),
            },
        ],
        "markov": [
            {"n": 4},
            {"n_list": [4, 6]},
            {"mode": "stationary", "n": 2, "t": 5, "trials": 100},
            {"mode": "lumped-vs-full", "n": 2, "t": 3, "trials": 100},
            {"mode": "moments", "n": 2, "t": 1, "trials": 10},
            {"mode": "moments", "n": 2, "t_list": [1, 2], "trials": 10},
        ],
        "ad2": [{"samples": 50}],
        "qt": [{"n": 2, "t": 8, "trials": 4}],
    }


def test_parameters_name_exactly_the_keys_each_experiment_reads(tmp_path):
    runs = _tiny_runs(tmp_path)
    assert runs.keys() == experiments.EXPERIMENTS.keys() == experiments.PARAMETERS.keys()
    for name, param_sets in runs.items():
        seen: set = set()
        for params in param_sets:
            experiments.EXPERIMENTS[name](_Reads(params, seen), 0)
        assert seen == set(experiments.PARAMETERS[name]), name


def _subcommand_flags() -> dict:
    (subparsers,) = build_parser()._subparsers._group_actions
    return {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
        if name != "replay"
    }


def test_each_subcommand_offers_a_flag_for_each_flagged_parameter():
    flags = _subcommand_flags()
    for name, keys in experiments.PARAMETERS.items():
        expected = {"--" + key.replace("_", "-") for key in keys}
        expected |= {"--seed", "--out", "--csv"}
        assert flags[name] == expected, name
    assert sum(map(len, flags.values())) == 51


# Flags every subcommand used to accept although its experiment never read them,
# and the removed second ways in: ``--C`` for ``t``, ``--spec-file`` for an rfs
# instance and ``--config`` for every parameter.
UNREAD_FLAGS = [
    ("dispersion", ["--l", "--delta", "--trials", "--labels", "--C", "--config"]),
    ("signs", ["--n", "--t", "--l", "--delta", "--beta", "--samples", "--group", "--config"]),
    ("oracle", ["--l", "--delta", "--beta", "--samples", "--trials", "--group", "--C", "--config"]),
    ("rfs", ["--t", "--beta", "--samples", "--group", "--unitary", "--spec-file", "--config"]),
    ("markov", ["--l", "--delta", "--beta", "--samples", "--group", "--config"]),
    ("ad2", ["--n", "--t", "--l", "--delta", "--beta", "--trials", "--group", "--config"]),
    ("qt", ["--l", "--delta", "--samples", "--group", "--C", "--config"]),
]


def _refuse_every_run(monkeypatch):
    def refuse(params, seed):
        raise AssertionError("ran an experiment")

    for name in experiments.EXPERIMENTS:
        monkeypatch.setitem(experiments.EXPERIMENTS, name, refuse)


@pytest.mark.parametrize("command, flags", UNREAD_FLAGS, ids=[c for c, _ in UNREAD_FLAGS])
def test_flags_no_experiment_reads_are_refused(monkeypatch, command, flags):
    _refuse_every_run(monkeypatch)
    values = {"--unitary": "hadamard", "--group": "q8"}
    for flag in flags:
        with pytest.raises(SystemExit) as exc:
            main([command, flag, values.get(flag, "1")])
        assert exc.value.code == 2, (command, flag)
    assert sum(len(f) for _, f in UNREAD_FLAGS) == 49


def _readme_cli_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("oraclelab ")]


def test_every_readme_cli_line_parses():
    lines = _readme_cli_lines()
    assert len(lines) == 15
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize(
    "command, key",
    [(name, "betta") for name in experiments.EXPERIMENTS]
    + [("rfs", "unitary"), ("signs", "n"), ("ad2", "trials"), ("qt", "samples")],
)
def test_config_key_no_experiment_reads_is_refused(tmp_path, monkeypatch, command, key):
    _refuse_every_run(monkeypatch)
    with pytest.raises(InvalidConfigError, match=repr(key)):
        run(ExperimentConfig(command, {key: 1}))
    record = {"schema_version": 1, "experiment": command, "parameters": {key: 1}, "seed": 0,
              "metrics": {}}
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(InvalidConfigError, match=repr(key)):
        replay(str(path))


@pytest.mark.parametrize(
    "command, key",
    [("rfs", "mode"), ("markov", "mode"), ("dispersion", "unitary"), ("oracle", "unitary")],
)
def test_unknown_mode_or_unitary_fails_as_flag_and_through_config(monkeypatch, command, key):
    from oraclelab.rfs import core

    def refuse(*args, **kwargs):
        raise AssertionError("started work before checking the value")

    monkeypatch.setattr(experiments, "child", refuse)
    for name in ("hadamard_all", "qft_cyclic", "run_random_circuit"):
        monkeypatch.setattr(oracle, name, refuse)
    monkeypatch.setattr(experiments.paulichain, "gap_table", refuse)
    monkeypatch.setattr(core, "build_oracle", refuse)

    with pytest.raises(SystemExit) as exc:
        main([command, "--" + key, "separaton"])
    assert exc.value.code == 2
    with pytest.raises(InvalidConfigError, match="separaton"):
        run(ExperimentConfig(command, {key: "separaton"}))
