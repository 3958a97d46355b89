import hashlib
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oraclelab import experiments, oracle, paulichain
from oraclelab.cli import NUMERICS_VERSION, ExperimentConfig, entry, main, replay, run
from oraclelab.errors import InvalidConfigError, SchemaVersionError, SizeError
from oraclelab.rfs import classical_solver, make_rfs_spec, save_query_log
from oraclelab.simcore import MAX_QUBITS, child, hadamard_all
from oraclelab.simcore.circuits import WIDE_AMPLITUDES


def test_dispersion_run_and_record(tmp_path):
    out = tmp_path / "records.jsonl"
    config = ExperimentConfig(
        experiment="dispersion",
        parameters={"unitary": "hadamard", "n": 6, "beta": 1.0},
        master_seed=3,
        out_path=str(out),
    )
    record = run(config)
    assert record.metrics["alpha_achieved"] == 1.0
    assert not record.failures
    data = json.loads(out.read_text().strip())
    assert data["schema_version"] == 1
    assert data["metrics"]["achieving_count"] == 64


def test_replay_matches_and_detects_tampering(tmp_path):
    out = tmp_path / "records.jsonl"
    config = ExperimentConfig(
        experiment="signs",
        parameters={"trials": 50},
        master_seed=11,
        out_path=str(out),
    )
    run(config)
    verdict = replay(str(out))
    assert verdict["all_match"] and verdict["records"] == 1

    record = json.loads(out.read_text())
    record["metrics"]["min_ratio"] = 0.123
    out.write_text(json.dumps(record) + "\n")
    verdict = replay(str(out))
    assert not verdict["all_match"]
    assert verdict["mismatches"][0]["line"] == 1


def test_replay_names_differing_keys_and_flags_cross_version(tmp_path):
    out = tmp_path / "records.jsonl"
    run(
        ExperimentConfig(
            experiment="signs",
            parameters={"trials": 30},
            master_seed=5,
            out_path=str(out),
        )
    )
    record = json.loads(out.read_text())
    assert record["numerics_version"] == NUMERICS_VERSION

    record["metrics"]["min_ratio"] = 0.5
    record["metrics"]["violations"] = 7
    out.write_text(json.dumps(record) + "\n")
    (mismatch,) = replay(str(out))["mismatches"]
    assert mismatch["keys"] == ["min_ratio", "violations"]
    assert mismatch["cross_version"] is False

    # A hand-edited record from before the field existed reads as version 1.
    del record["numerics_version"]
    out.write_text(json.dumps(record) + "\n")
    (mismatch,) = replay(str(out))["mismatches"]
    assert mismatch["keys"] == ["min_ratio", "violations"]
    assert mismatch["cross_version"] is True


def test_replay_reports_the_error_of_each_differing_number(tmp_path):
    out = tmp_path / "records.jsonl"
    record = run(
        ExperimentConfig(
            experiment="signs",
            parameters={"trials": 30},
            master_seed=5,
            out_path=str(out),
        )
    )
    fresh = record.metrics
    edited = json.loads(out.read_text())
    edited["metrics"]["min_ratio"] = 0.5
    edited["metrics"]["violations"] = 7
    edited["metrics"]["trials"] = "thirty"
    out.write_text(json.dumps(edited) + "\n")
    (mismatch,) = replay(str(out))["mismatches"]
    assert mismatch["keys"] == ["min_ratio", "trials", "violations"]
    # A string against a number has no error; each pair of numbers has both.
    assert sorted(mismatch["errors"]) == ["min_ratio", "violations"]
    ratio = mismatch["errors"]["min_ratio"]
    assert ratio["abs_error"] == abs(fresh["min_ratio"] - 0.5)
    assert ratio["rel_error"] == ratio["abs_error"] / max(fresh["min_ratio"], 0.5)
    assert fresh["violations"] == 0
    assert mismatch["errors"]["violations"] == {"abs_error": 7, "rel_error": 1.0}


def test_replay_rejects_unknown_schema(tmp_path):
    out = tmp_path / "records.jsonl"
    out.write_text(json.dumps({"schema_version": 99, "experiment": "signs"}) + "\n")
    with pytest.raises(SchemaVersionError):
        replay(str(out))


def test_qt_two_runs_deterministic():
    params = {"n": 3, "t": 30, "trials": 12, "beta": 0.25}
    a, failures = experiments.run_qt(params, 7)
    b, _ = experiments.run_qt(params, 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert not failures


_METRICS_SCRIPT = """
import json
from oraclelab import experiments
print(json.dumps([experiments.run_ad2({"samples": 1500}, 17)[0],
                  experiments.run_qt({"n": 4, "t": 64, "trials": 8}, 5)[0],
                  experiments.run_oracle({"unitary": "hadamard", "n": 9}, 0)[0],
                  experiments.run_rfs({"l": 2, "n": 5, "trials": 2}, 0)[0],
                  experiments.run_oracle({"unitary": "random", "n": 7}, 3)[0],
                  experiments.run_oracle({"unitary": "random", "n": 8}, 3)[0]], sort_keys=True))
"""


def test_metrics_do_not_depend_on_the_blas_thread_count():
    # Experiments run BLAS on one thread; the n = 8 oracle's densify is wide enough
    # (WIDE_AMPLITUDES) to run on the process's count, so the 1- and 2-thread runs differ there.
    assert 4**8 >= WIDE_AMPLITUDES
    src = str(Path(experiments.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _METRICS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind", ["random", "qft"])
def test_dense_unitary_above_cap_fails_before_building(monkeypatch, kind):
    def refuse(*args):
        raise AssertionError("built a unitary above the dense cap")

    monkeypatch.setattr(oracle, "run_random_circuit", refuse)
    monkeypatch.setattr(oracle, "qft_cyclic", refuse)
    with pytest.raises(SizeError):
        experiments.run_dispersion({"unitary": kind, "n": 14}, 0)


def test_hadamard_above_qubit_cap_fails_before_allocating(monkeypatch):
    def refuse(*args):
        raise AssertionError("certified a Hadamard action above the qubit cap")

    monkeypatch.setattr(experiments, "certify_dispersing", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            hadamard_all(MAX_QUBITS + 1)
        with pytest.raises(SizeError):
            main(["dispersion", "--n", "15"])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**15 * 16  # less than one 15-qubit state vector


@pytest.mark.parametrize(
    "params, error",
    [
        ({"n": paulichain.MAX_COLLISION_N + 1}, SizeError),
        ({"n": 1}, InvalidConfigError),
        ({"t": -1}, InvalidConfigError),
        # 200,000 states of 2^6 amplitudes: 12.8 million, above MAX_CIRCUIT_AMPLITUDES.
        ({"n": 6}, SizeError),
    ],
)
def test_qt_refuses_its_sizes_before_building_streams(monkeypatch, params, error):
    def refuse(*args):
        raise AssertionError("built a child stream before checking the sizes")

    monkeypatch.setattr(experiments, "child", refuse)
    with pytest.raises(error):
        experiments.run_qt({**params, "trials": 200_000}, 0)


@pytest.mark.parametrize(
    "params, error",
    [
        ({"mode": "stationary", "n": experiments.MAX_STATIONARY_N + 1}, SizeError),
        ({"mode": "lumped-vs-full", "n": paulichain.MAX_WEIGHT_CHAIN_N + 1}, SizeError),
        ({"mode": "moments", "t_list": [5, paulichain.MAX_MOMENT_STEPS + 1]}, InvalidConfigError),
        ({"mode": "moments", "t_list": [5, -1]}, InvalidConfigError),
        ({"mode": "moments", "n": paulichain.MAX_FULL_CHAIN_N + 1}, SizeError),
        ({"mode": "moments", "n": 4, "trials": paulichain.MAX_CIRCUIT_AMPLITUDES // 16 + 1}, SizeError),
        ({"mode": "stationary", "trials": experiments.MAX_WALKERS + 1}, SizeError),
        ({"mode": "lumped-vs-full", "trials": experiments.MAX_WALKERS + 1}, SizeError),
    ],
)
def test_markov_refuses_its_sizes_before_walking(monkeypatch, params, error):
    def refuse(*args):
        raise AssertionError("walked or ran circuits before checking the sizes")

    monkeypatch.setattr(experiments, "child", refuse)
    monkeypatch.setattr(experiments.paulichain, "walk_ensemble", refuse)
    monkeypatch.setattr(experiments.paulichain, "moment_compare", refuse)
    with pytest.raises(error):
        experiments.run_markov(params, 0)


def test_unknown_experiment_rejected():
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(experiment="nope")


def test_cli_main_dispersion_exit_zero(capsys):
    assert main(["dispersion", "--unitary", "hadamard", "--n", "5", "--beta", "1.0"]) == 0
    captured = capsys.readouterr()
    assert "alpha_achieved: 1.0" in captured.out
    assert "all checks passed" in captured.out


def test_entry_exit_codes_tell_failed_checks_from_refused_configurations(monkeypatch, capsys):
    argv = ["qt", "--n", "3", "--t", "8", "--trials", "4"]
    assert entry(argv) == 0

    def failing_qt(params, seed):
        metrics, _failures = experiments.run_qt(params, seed)
        return metrics, ["collision mean above its cap"]

    monkeypatch.setitem(experiments.EXPERIMENTS, "qt", failing_qt)
    assert entry(argv) == 1
    assert "FAILED: collision mean above its cap" in capsys.readouterr().out
    assert entry(["rfs", "--mode", "bound-table", "--n-list", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("oraclelab: error: InvalidConfigError: ") and err.count("\n") == 1
    # main itself still raises, for callers that want the exception.
    with pytest.raises(InvalidConfigError):
        main(["rfs", "--mode", "bound-table", "--n-list", "0"])


@pytest.mark.parametrize("n", ["0", "-3"])
def test_rfs_with_no_symbol_bits_is_refused_naming_n(capsys, n):
    assert entry(["rfs", "--n", n]) == 2
    err = capsys.readouterr().err
    assert err == f"oraclelab: error: InvalidConfigError: n must be at least 1, got {n}\n"


def test_bound_table_prints_plain_floats(capsys):
    assert main(["rfs", "--mode", "bound-table", "--n-list", "2047"]) == 0
    table_line = next(line for line in capsys.readouterr().out.splitlines() if "table:" in line)
    assert "'bound': 0.5000000000000001," in table_line and "np." not in table_line


def test_module_run_exits_2_without_a_traceback():
    src = str(Path(experiments.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "oraclelab.cli", "rfs", "--mode", "bound-table", "--n-list", "0"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "InvalidConfigError" in done.stderr


def test_a_reader_that_closes_stdout_early_ends_the_run_as_it_ends_cat():
    # About 200 KB of table, more than a pipe holds, so the run is still writing.
    ns = ",".join(str(n) for n in range(2, 2000))
    proc = subprocess.Popen(
        [sys.executable, "-m", "oraclelab.cli", "rfs", "--mode", "bound-table", "--n-list", ns],
        env={**os.environ, "PYTHONPATH": str(Path(experiments.__file__).resolve().parents[1])},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["markov", "--mode", "moments", "--n", "2", "--t-list=-2"],
        ["markov", "--mode", "lumped-vs-full", "--t", "-5"],
        ["markov", "--mode", "moments", "--n", "1"],
        ["qt", "--t", "-3"],
        ["qt", "--n", "1"],
    ],
)
def test_cli_refuses_negative_steps_and_single_qubits(argv):
    with pytest.raises(InvalidConfigError):
        main(argv)


def test_lumped_vs_full_default_cap_scales_with_the_walker_count():
    # Exact code reads TV 0.022 here, past the 0.02 a fixed cap allowed.
    params = {"mode": "lumped-vs-full", "n": 2, "t": 3, "trials": 2000}
    metrics, failures = experiments.run_markov(params, 0)
    assert metrics["tv_lumped_vs_full"] > 0.02
    assert failures == []


def test_lumped_vs_full_default_cap_at_the_canonical_size_is_inside_0_02(monkeypatch):
    n, steps, walkers = 3, 20, 100_000
    chain = paulichain.lumped_matrix(n)
    law = np.zeros(n)
    law[0] = 1.0
    for _ in range(steps):
        law = law @ chain.transition
    # Walkers whose weight counts sit 0.0199 in TV off the chain's law.
    counts = np.round(law * walkers).astype(int) + [1990, -1990, 0]
    counts[-1] = walkers - counts[:-1].sum()
    weights = np.repeat(np.arange(1, n + 1), counts)
    codes = (np.arange(n) < weights[:, None]).astype(np.uint8)
    monkeypatch.setattr(paulichain, "walk_ensemble", lambda *args: codes)
    metrics, failures = experiments.run_markov({"mode": "lumped-vs-full", "n": n}, 0)
    assert abs(metrics["tv_lumped_vs_full"] - 0.0199) < 1e-4
    assert failures == ["lumped and full chains disagree"]


def test_moments_cap_passes_exact_code_at_200_circuits_on_every_seed():
    # A fixed 0.03 cap failed about half of these seeds: 200 circuits at n = 3 read TV ~0.03.
    params = {"mode": "moments", "n": 3, "t_list": [4], "trials": 200}
    for seed in range(8):
        assert experiments.run_markov(params, seed)[1] == [], seed


def test_moments_cap_at_criterion_10_size_is_inside_0_03():
    for idx, t in enumerate((1, 5, 10)):
        res = paulichain.moment_compare(2, t, 2000, child(1010, idx))
        assert res["tv_distance"] <= res["tv_cap"] <= 0.03


def test_moments_cap_flags_circuits_one_step_short(monkeypatch):
    run = paulichain.run_pair_circuits
    monkeypatch.setattr(paulichain, "run_pair_circuits",
                        lambda states, n, steps, rngs: run(states, n, steps - 1, rngs))
    params = {"mode": "moments", "n": 3, "t_list": [1], "trials": 200}
    assert experiments.run_markov(params, 0)[1] == ["moment mismatch at t=1"]


def test_cli_markov_gap_csv(tmp_path, capsys):
    csv_path = tmp_path / "gaps.csv"
    code = main(["markov", "--mode", "gap", "--n-list", "4,8", "--csv", str(csv_path)])
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "n,gap,gap_n,gap_n2"


def test_markov_gap_reads_gap_and_detailed_balance_from_one_chain_per_n(monkeypatch):
    assembled = []
    rational = paulichain.lumped_matrix_rational

    def counted(n):
        assembled.append(n)
        return rational(n)

    monkeypatch.setattr(paulichain, "lumped_matrix_rational", counted)
    paulichain.lumped_matrix.cache_clear()
    metrics, failures = experiments.run_markov({"mode": "gap", "n_list": [4, 9]}, 0)
    assert not failures and sorted(metrics) == ["detailed_balance_4", "detailed_balance_9", "table"]
    assert assembled == [4, 9]


def test_cli_rfs_simulate(capsys):
    code = main(["rfs", "--l", "2", "--n", "4", "--delta", "0.2", "--trials", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "q0: 22052" in out


def _replay_log_args(log_path, seed):
    return ["rfs", "--mode", "replay-log", "--l", "2", "--n", "4", "--alpha-n", "3",
            "--seed", str(seed), "--log-file", str(log_path)]


def test_cli_rfs_replay_log(tmp_path, capsys):
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=21, alpha_n=3)
    log_path = tmp_path / "log.jsonl"
    save_query_log(classical_solver(spec).log, log_path)
    out_path = tmp_path / "records.jsonl"
    code = main([*_replay_log_args(log_path, 21), "--out", str(out_path)])
    assert code == 0
    assert "final_z: 1.0" in capsys.readouterr().out
    # The metrics the instance gave when it was read from a spec file.
    record = json.loads(out_path.read_text())
    assert record["metrics"] == {"queries": 31, "final_z": 1.0, "p1": 1, "p2": 1, "p3": 1, "p4": 1}
    assert replay(str(out_path))["all_match"]


def test_cli_rfs_replay_log_on_another_seed_is_an_integrity_error(tmp_path, capsys):
    spec = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=21, alpha_n=3)
    log_path = tmp_path / "log.jsonl"
    save_query_log(classical_solver(spec).log, log_path)
    assert entry(_replay_log_args(log_path, 22)) == 2
    assert "IntegrityError" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["log_file"])
def test_rfs_replay_log_names_a_missing_file_key(missing):
    with pytest.raises(InvalidConfigError, match=missing):
        experiments.run_rfs({"mode": "replay-log"}, 0)


def test_records_append_not_truncate(tmp_path):
    out = tmp_path / "records.jsonl"
    for seed in (1, 2):
        run(
            ExperimentConfig(
                experiment="signs",
                parameters={"trials": 10},
                master_seed=seed,
                out_path=str(out),
            )
        )
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert len(lines) == 2
    assert json.loads(lines[0])["seed"] == 1
    assert json.loads(lines[1])["seed"] == 2


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "params, digest",
    [
        ({"l": 2, "n": 5, "trials": 3},
         "7b8c5c168b8749a15d0fae5460ab81a68658116b484462dca0f2c5702806b59e"),
        ({"l": 3, "n": 3, "trials": 4},
         "663f1b7bdd1439ace457035c47f4301c9e774c41fb642121af937ffb7806f29c"),
        ({"mode": "separation", "n_list": [4, 6], "trials": 3},
         "691a5a277619cd7902ace6434dfed4fc1d6a01bda6f07574f997a5131f82dc17"),
    ],
)
def test_rfs_metrics_are_pinned(params, digest):
    # Taken while every trial still compiled its own single-level family.
    assert _sha256_json(experiments.run_rfs(params, 0)) == digest


@pytest.mark.parametrize(
    "params, builds",
    [
        ({"l": 2, "n": 4, "trials": 5}, 1),
        ({"mode": "separation", "n_list": [4, 6], "trials": 3}, 2),
    ],
)
def test_rfs_compiles_one_family_per_size(monkeypatch, params, builds):
    from oraclelab.rfs import core

    calls = []
    original = core.build_oracle

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(core, "build_oracle", counting)
    _metrics, failures = experiments.run_rfs(params, 0)
    assert not failures
    assert len(calls) == builds


@pytest.mark.parametrize(
    "params, sizes",
    [
        ({"l": 2, "n": 4, "trials": 3}, [4]),
        ({"mode": "separation", "n_list": [4, 6], "trials": 3}, [4, 6]),
    ],
)
def test_rfs_builds_one_unitary_per_size(monkeypatch, params, sizes):
    from oraclelab.rfs import core

    calls = []
    original = core.hadamard_all

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(core, "hadamard_all", counting)
    _metrics, failures = experiments.run_rfs(params, 0)
    assert not failures
    assert calls == sizes


@pytest.mark.parametrize("mode", ["simulate", "separation"])
def test_rfs_rejects_fewer_than_one_trial(monkeypatch, mode):
    from oraclelab.rfs import core

    def refuse(*args, **kwargs):
        raise AssertionError("compiled a family before checking the trial count")

    monkeypatch.setattr(core, "build_oracle", refuse)
    for trials in (0, -1):
        with pytest.raises(InvalidConfigError):
            experiments.run_rfs({"mode": mode, "trials": trials}, 0)


@pytest.mark.parametrize(
    "params, sizes",
    [
        ({"l": 1, "n_list": [3, 4, 5]}, "n = 3 and n = 4"),
        ({"n_list": [4, 6], "alpha_n": 2}, "n = 4 and n = 6"),
        ({"n_list": [6, 4]}, "n = 6 and n = 4"),
    ],
)
def test_separation_refuses_sizes_whose_label_counts_do_not_rise(monkeypatch, params, sizes):
    def refuse(*args, **kwargs):
        raise AssertionError("compiled a family before checking n_list")

    monkeypatch.setattr(experiments, "make_rfs_spec", refuse)
    with pytest.raises(InvalidConfigError, match=sizes):
        experiments.run_rfs({"mode": "separation", **params}, 0)


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("markov", {"mode": "moments", "trials": 0}),
        ("markov", {"mode": "lumped-vs-full", "trials": 0}),
        ("markov", {"mode": "stationary", "trials": 0}),
        ("markov", {"mode": "stationary", "trials": -5}),
        ("signs", {"trials": 0}),
        ("qt", {"trials": 0}),
        ("qt", {"trials": 1}),
        ("ad2", {"samples": 0}),
        ("ad2", {"samples": -1}),
        ("rfs", {"mode": "separation", "n_list": []}),
        ("rfs", {"mode": "bound-table", "n_list": []}),
    ],
)
def test_too_few_samples_rejected_before_any_work(monkeypatch, experiment, params):
    def refuse(*args, **kwargs):
        raise AssertionError("started work before checking the sample count")

    monkeypatch.setattr(experiments, "child", refuse)
    monkeypatch.setattr(experiments, "make_rfs_spec", refuse)
    monkeypatch.setattr(experiments, "bound_trend_table", refuse)
    with pytest.raises(InvalidConfigError):
        experiments.EXPERIMENTS[experiment](params, 0)


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("qt", {"beta": 0}),
        ("qt", {"beta": 2}),
        ("qt", {"beta": -1}),
        ("dispersion", {"unitary": "random", "n": 9, "beta": 0}),
        ("markov", {"mode": "gap", "n_list": []}),
        ("markov", {"mode": "moments", "t_list": []}),
        ("qt", {"n": 1}),
        ("qt", {"t": -3}),
        ("markov", {"mode": "moments", "t_list": [-2]}),
        ("rfs", {"mode": "bound-table", "n_list": [0]}),
        ("rfs", {"mode": "bound-table", "n_list": [-4]}),
    ],
)
def test_out_of_range_parameters_rejected_before_any_work(monkeypatch, experiment, params):
    def refuse(*args, **kwargs):
        raise AssertionError("started work before checking the parameters")

    monkeypatch.setattr(experiments, "child", refuse)
    monkeypatch.setattr(experiments, "_build_unitary", refuse)
    monkeypatch.setattr(paulichain, "gap_table", refuse)
    with pytest.raises(InvalidConfigError):
        experiments.EXPERIMENTS[experiment](params, 0)


@pytest.mark.parametrize("labels", [0, -1, 9, 20])
def test_oracle_label_count_outside_the_basis_is_rejected_at_entry(monkeypatch, labels):
    def refuse(*args, **kwargs):
        raise AssertionError("built the unitary before checking the label count")

    monkeypatch.setattr(experiments, "_build_unitary", refuse)
    with pytest.raises(InvalidConfigError, match="labels"):
        experiments.run_oracle({"n": 3, "labels": labels}, 0)


@pytest.mark.parametrize(
    "params", [{"n": 12, "group": "q9"}, {"n": 12, "group": "q8", "samples": 0}]
)
def test_dispersion_group_input_is_checked_before_certifying(monkeypatch, params):
    def refuse(*args, **kwargs):
        raise AssertionError("built or certified the unitary before checking the group input")

    monkeypatch.setattr(experiments, "_build_unitary", refuse)
    monkeypatch.setattr(experiments, "certify_dispersing", refuse)
    with pytest.raises(InvalidConfigError):
        experiments.run_dispersion(params, 0)


@pytest.mark.parametrize("group, order", [("s3", 6), ("q8", 8)])
def test_dispersion_group_samples_over_the_cap_are_refused_before_any_draw(monkeypatch, capsys, group, order):
    def refuse(*args, **kwargs):
        raise AssertionError("drew or built before checking the sample count")

    for name in ("child", "_build_unitary", "certify_dispersing", "pseudo_search"):
        monkeypatch.setattr(experiments, name, refuse)
    samples = paulichain.MAX_CIRCUIT_AMPLITUDES // order + 1
    assert entry(["dispersion", "--group", group, "--samples", str(samples)]) == 2
    assert "SizeError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, parameters",
    [
        ("rfs", {"mode": "simulate", "l": 2, "n": 3, "delta": 0.2, "trials": 2}),
        ("dispersion", {"unitary": "hadamard", "n": 5}),
    ],
)
def test_records_carrying_old_cli_defaults_still_replay(tmp_path, experiment, parameters):
    # The CLI used to write its defaults into every record.  Those the experiment
    # reads replay; rfs' old ``unitary`` key is refused (see below).
    out = tmp_path / "old.jsonl"
    run(ExperimentConfig(experiment, parameters, master_seed=4, out_path=str(out)))
    assert replay(str(out))["all_match"]


def _record_line(experiment, parameters):
    return json.dumps(
        {"schema_version": 1, "numerics_version": NUMERICS_VERSION, "experiment": experiment,
         "parameters": parameters, "metrics": {}, "seed": 0, "duration_s": 0.0, "failures": []}
    )


@pytest.mark.parametrize(
    "experiment, parameters, key",
    [
        ("signs", {"trials": 20, "d_max": 6}, "d_max"),
        ("markov", {"mode": "stationary", "tv_cap": 0.5}, "tv_cap"),
        ("ad2", {"samples": 100, "cap": 1.0}, "cap"),
        ("qt", {"n": 3, "mean_cap": 1.0}, "mean_cap"),
        ("rfs", {"unitary": "hadamard", "l": 2, "n": 3}, "unitary"),
        ("rfs", {"mode": "replay-log", "spec_file": "spec.json", "log_file": "log.jsonl"},
         "spec_file"),
    ],
)
def test_replay_refuses_records_carrying_keys_no_experiment_reads(
    tmp_path, monkeypatch, capsys, experiment, parameters, key
):
    def refuse(params, seed):
        raise AssertionError("reran a record before checking every record's keys")

    for name in experiments.EXPERIMENTS:
        monkeypatch.setitem(experiments.EXPERIMENTS, name, refuse)
    path = tmp_path / "old.jsonl"
    # A good first line does not rerun: every line is checked first.
    path.write_text(f'{_record_line("signs", {"trials": 5})}\n{_record_line(experiment, parameters)}\n')
    assert entry(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"record line 2: {experiment} reads no parameter {key!r}" in err


@pytest.mark.parametrize(
    "line, error",
    [
        ("not json", "IntegrityError: record line 1 is not JSON"),
        ("[1, 2]", "IntegrityError: record line 1 is not a JSON object"),
        (_record_line("signs", {}).replace('"seed": 0, ', ""),
         "IntegrityError: record line 1 needs 'seed' as int"),
        (_record_line("signs", {}).replace('"parameters": {}', '"parameters": [1]'),
         "IntegrityError: record line 1 needs 'parameters' as dict"),
    ],
)
def test_replay_of_a_malformed_record_line_exits_2_naming_the_line(tmp_path, capsys, line, error):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    assert entry(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and error in err


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", "{missing}"],
        ["rfs", "--mode", "replay-log", "--l", "2", "--n", "4", "--log-file", "{missing}"],
        ["signs", "--trials", "2", "--out", "{missing}/records.jsonl"],
    ],
)
def test_missing_input_and_output_files_exit_2_with_one_line(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing")
    assert entry([arg.format(missing=missing) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("oraclelab: error: FileNotFoundError: ") and err.count("\n") == 1
