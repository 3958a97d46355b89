import pytest

from oraclelab import experiments
from oraclelab.simcore import (
    PROCESS_THREADS,
    action_matrix,
    blas,
    blas_thread_count,
    blas_threads,
    circuits,
    run_random_circuit,
)

needs_openblas = pytest.mark.skipif(PROCESS_THREADS == "unknown", reason="no OpenBLAS thread calls")


@needs_openblas
def test_blas_threads_restores_the_count_on_exit_on_an_exception_and_when_nested():
    before = blas_thread_count()
    with blas_threads(3):
        assert blas_thread_count() == 3
        with blas_threads(1):
            assert blas_thread_count() == 1
        assert blas_thread_count() == 3
    assert blas_thread_count() == before
    with pytest.raises(RuntimeError), blas_threads(1):
        assert blas_thread_count() == 1
        raise RuntimeError("inside")
    assert blas_thread_count() == before


def test_without_the_openblas_calls_the_helper_does_nothing_and_reports_unknown(monkeypatch):
    def missing(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(blas.ctypes, "CDLL", missing)
    assert blas._openblas() is None
    monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: object())
    assert blas._openblas() is None

    real, before = blas._CALLS, blas_thread_count()
    monkeypatch.setattr(blas, "_CALLS", None)
    assert blas_thread_count() == "unknown"
    with blas_threads(1):
        assert real is None or real[0]() == before


@needs_openblas
def test_haar_draws_in_qt_run_on_one_thread(monkeypatch):
    seen = []
    draw = circuits._haar_unitaries

    def counted(normals):
        seen.append(blas_thread_count())
        return draw(normals)

    monkeypatch.setattr(circuits, "_haar_unitaries", counted)
    experiments.run_qt({"n": 4, "t": 64, "trials": 8}, 5)
    assert seen and set(seen) == {1}
    assert blas_thread_count() == PROCESS_THREADS


@needs_openblas
@pytest.mark.parametrize("n, switches", [(7, 2), (8, 2), (9, 6)])
def test_only_wide_work_takes_the_process_count_and_once_per_run(monkeypatch, n, switches):
    """The experiment sets one thread on entry.  At n = 9 (2^18 amplitudes) the densify sets
    the process's count around its whole run, never per block, and so does the unitarity
    check of its matrix; at n = 7 and 8 (2^14 and 2^16) both keep one thread."""
    assert 4**8 < circuits.WIDE_AMPLITUDES <= 4**9
    get, put = blas._CALLS
    puts, seen = [], []

    def counted_put(count):
        puts.append(count)
        put(count)

    run = circuits.run_gates

    def recorded(vec, n_qubits, supports, blocks):
        seen.append((n_qubits, blas_thread_count()))
        return run(vec, n_qubits, supports, blocks)

    monkeypatch.setattr(blas, "_CALLS", (get, counted_put))
    monkeypatch.setattr(circuits, "run_gates", recorded)
    experiments.run_oracle({"unitary": "random", "n": n}, 3)
    assert len(puts) == switches
    apply = PROCESS_THREADS if 4**n >= circuits.WIDE_AMPLITUDES else 1
    assert [count for qubits, count in seen if qubits == n] == [apply]


@needs_openblas
@pytest.mark.parametrize("run", [experiments.run_dispersion, experiments.run_oracle])
def test_the_n_8_random_circuit_runs_on_one_thread_throughout(monkeypatch, run):
    get, put = blas._CALLS
    puts = []

    def counted_put(count):
        puts.append(count)
        put(count)

    monkeypatch.setattr(blas, "_CALLS", (get, counted_put))
    run({"unitary": "random", "n": 8}, 3)
    # One thread on entry, the process's count restored on exit, and nothing between.
    assert puts == [1, PROCESS_THREADS]


def test_action_matrix_is_bitwise_equal_under_the_policy_and_the_process_count(monkeypatch):
    circuit = run_random_circuit(8, 2048, 3)
    expected = action_matrix(circuit).tobytes()
    # Under the experiments' one thread, with the wide apply on 1 and on 2 threads.
    for count in (1, 2):
        monkeypatch.setattr(circuits, "PROCESS_THREADS", count)
        with blas_threads(1):
            assert action_matrix(circuit).tobytes() == expected
