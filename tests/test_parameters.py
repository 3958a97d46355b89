"""``experiments.READS`` names exactly the keys each mode of each experiment
reads; the CLI offers a flag for each, and a run or a replayed record given
any other key, or a value of the wrong kind, is refused before any work."""

import json
import shlex
from pathlib import Path

import pytest

from oraclelab import experiments, oracle
from oraclelab.cli import ExperimentConfig, build_parser, entry, main, replay, run
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
            {"n_list": [4, 6]},
            {"mode": "stationary", "n": 2, "t": 5, "trials": 100},
            {"mode": "lumped-vs-full", "n": 2, "t": 3, "trials": 100},
            {"mode": "moments", "n": 2, "t_list": [1, 2], "trials": 10},
        ],
        "ad2": [{"samples": 50}],
        "qt": [{"n": 2, "t": 8, "trials": 4}],
    }


def test_parameters_name_exactly_the_keys_each_experiment_reads(tmp_path, monkeypatch):
    # Each (experiment, mode) looks up exactly the keys READS gives it, and mode itself.
    seen: dict = {}
    original = experiments.checked

    def noting(experiment, params, seed):
        values = original(experiment, params, seed)
        return _Reads(values, seen.setdefault((experiment, values.get("mode")), set()))

    monkeypatch.setattr(experiments, "checked", noting)
    runs = _tiny_runs(tmp_path)
    assert runs.keys() == experiments.EXPERIMENTS.keys() == experiments.READS.keys()
    for name, param_sets in runs.items():
        for params in param_sets:
            experiments.EXPERIMENTS[name](params, 0)
    expected = {
        (name, mode): set(reads) | ({"mode"} if mode else set())
        for name, modes in experiments.READS.items()
        for mode, reads in modes.items()
    }
    assert seen == expected
    # rfs reads 15 (mode, key) pairs and markov 10, besides mode itself in each of their 8 modes.
    assert sum(len(reads) for (_name, mode), reads in expected.items() if mode) == 15 + 10 + 8


def _subcommand_flags() -> dict:
    (subparsers,) = build_parser()._subparsers._group_actions
    return {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
        if name != "replay"
    }


def test_each_subcommand_offers_a_flag_for_each_flagged_parameter():
    flags = _subcommand_flags()
    for name, modes in experiments.READS.items():
        keys = {key for reads in modes.values() for key in reads} | (set() if None in modes else {"mode"})
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


def _record_file(tmp_path, experiment, parameters, seed=0):
    path = tmp_path / "records.jsonl"
    record = {"schema_version": 1, "experiment": experiment, "parameters": parameters,
              "seed": seed, "metrics": {}}
    path.write_text(json.dumps(record) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "command, key",
    [(name, "betta") for name in experiments.EXPERIMENTS]
    + [("rfs", "unitary"), ("signs", "n"), ("ad2", "trials"), ("qt", "samples")],
)
def test_config_key_no_experiment_reads_is_refused(tmp_path, monkeypatch, command, key):
    _refuse_every_run(monkeypatch)
    with pytest.raises(InvalidConfigError, match=repr(key)):
        run(ExperimentConfig(command, {key: 1}))
    with pytest.raises(InvalidConfigError, match=repr(key)):
        replay(_record_file(tmp_path, command, {key: 1}))


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


# Keys their mode does not read; ``markov --mode gap --n`` and ``moments --t`` were
# second ways to give ``n_list`` and ``t_list``.
UNREAD_BY_MODE = [
    ("rfs", "bound-table", "l", 7),
    ("rfs", "separation", "n", 6),
    ("markov", "stationary", "n_list", [4]),
    ("markov", "gap", "n", 4),
    ("markov", "moments", "t", 3),
]


@pytest.mark.parametrize("command, mode, key, value", UNREAD_BY_MODE,
                         ids=[f"{mode}-{key}" for _, mode, key, _ in UNREAD_BY_MODE])
def test_a_key_its_mode_does_not_read_is_refused_naming_key_and_mode(
    tmp_path, monkeypatch, capsys, command, mode, key, value
):
    _refuse_every_run(monkeypatch)
    message = f"{command} reads no parameter {key!r} in mode {mode!r}"
    flag = "--" + key.replace("_", "-")
    assert entry([command, "--mode", mode, flag, str(value).strip("[]")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    parameters = {"mode": mode, key: value}
    with pytest.raises(InvalidConfigError, match=message):
        run(ExperimentConfig(command, parameters))
    assert entry(["replay", _record_file(tmp_path, command, parameters)]) == 2
    assert message in capsys.readouterr().err


WRONG_KINDS = [
    ("signs", {"trials": "x"}, 0, "trials"),
    ("qt", {"n": 3.7}, 0, "n"),
    ("oracle", {"n": True}, 0, "n"),
    ("dispersion", {"beta": "0.5"}, 0, "beta"),
    ("rfs", {"mode": "bound-table", "n_list": "16"}, 0, "n_list"),
    ("ad2", {}, 1.5, "seed"),
]


@pytest.mark.parametrize("experiment, parameters, seed, key", WRONG_KINDS,
                         ids=["trials-str", "n-float", "n-bool", "beta-str", "n_list-str", "seed-float"])
def test_a_value_of_the_wrong_kind_is_refused_naming_its_key_before_any_work(
    tmp_path, monkeypatch, capsys, experiment, parameters, seed, key
):
    def refuse(*args, **kwargs):
        raise AssertionError("started work before checking the values")

    for name in ("child", "_build_unitary", "bound_trend_table", "make_rfs_spec"):
        monkeypatch.setattr(experiments, name, refuse)
    with pytest.raises(InvalidConfigError, match=key):
        experiments.EXPERIMENTS[experiment](parameters, seed)
    with pytest.raises(InvalidConfigError, match=key):
        run(ExperimentConfig(experiment, parameters, seed))
    _refuse_every_run(monkeypatch)
    assert entry(["replay", _record_file(tmp_path, experiment, parameters, seed)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and (f"{key} must be" in err or repr(key) in err)
