from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from oraclelab.errors import DepthError, IntegrityError, InvalidConfigError, ProtocolError
from oraclelab.oracle import build_unitary
from oraclelab.rfs import (
    FAIL,
    derive_answer_bit,
    load_query_log,
    make_rfs_spec,
    oracle_query,
    save_query_log,
    secret_at,
)
from oraclelab.simcore import hadamard_all, stream


def test_secret_deterministic():
    spec = make_rfs_spec(depth=3, n_symbol_bits=3, master_seed=9, alpha_n=2)
    for path in [(), (1,), (5, 2)]:
        assert secret_at(spec, path) == secret_at(spec, path)


def test_secret_depth_guard():
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=1)
    with pytest.raises(DepthError):
        secret_at(spec, (0, 1))


def test_root_secret_uniform_over_seeds():
    from dataclasses import replace

    base = make_rfs_spec(depth=1, n_symbol_bits=4, master_seed=0, alpha_n=4)
    counts = np.zeros(16, dtype=int)
    for seed in range(10_000):
        counts[secret_at(replace(base, master_seed=seed), ())] += 1
    _chi2, p_value = stats.chisquare(counts)
    assert p_value > 0.05


def test_sibling_secrets_collide_at_uniform_rate():
    from dataclasses import replace

    base = make_rfs_spec(depth=2, n_symbol_bits=4, master_seed=0, alpha_n=4)
    agree = 0
    trials = 10_000
    for seed in range(trials):
        spec = replace(base, master_seed=seed)
        agree += secret_at(spec, (0,)) == secret_at(spec, (1,))
    rate = agree / trials
    expected = 1 / 16
    assert abs(rate - expected) <= 4 * np.sqrt(expected / trials)


def test_oracle_semantics_exhaustive_random():
    spec = make_rfs_spec(depth=3, n_symbol_bits=3, master_seed=4, alpha_n=3)
    rng = stream(70)
    for _ in range(10_000):
        k = int(rng.integers(0, spec.depth))
        path = tuple(int(rng.integers(8)) for _ in range(k))
        guess = int(rng.integers(spec.n_labels))
        result = oracle_query(spec, path, guess=guess)
        assert (result == FAIL) == (guess != secret_at(spec, path))
        if result != FAIL:
            if k == 0:
                assert result == spec.b_root
            else:
                assert result == spec.oracle.f(secret_at(spec, path[:-1]), path[-1])


def test_leaf_query_needs_no_guess():
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=4)
    value = oracle_query(spec, (3, 1))
    assert value == spec.oracle.f(secret_at(spec, (3,)), 1)


def test_internal_query_matches_secret_recomputation():
    spec = make_rfs_spec(depth=2, n_symbol_bits=3, master_seed=12, alpha_n=2)
    path = (5,)
    result = oracle_query(spec, path, guess=secret_at(spec, path))
    assert result == spec.oracle.f(secret_at(spec, ()), 5)


def test_protocol_errors_are_not_fail():
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=4)
    with pytest.raises(ProtocolError):
        oracle_query(spec, (0, 1), guess=0)  # leaves take no guess
    with pytest.raises(ProtocolError):
        oracle_query(spec, (0,))  # internal nodes need one
    with pytest.raises(ProtocolError):
        oracle_query(spec, (0, 1, 1))  # deeper than the tree
    with pytest.raises(ProtocolError):
        oracle_query(spec, (9,), guess=0)  # symbol out of range


def test_query_log_round_trip(tmp_path):
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=4)
    log = []
    oracle_query(spec, (), guess=0, log=log)
    oracle_query(spec, (1, 2), log=log)
    path = tmp_path / "log.jsonl"
    save_query_log(log, path)
    loaded = load_query_log(path)
    assert loaded == log
    assert [rec.index for rec in loaded] == [0, 1]


@pytest.mark.parametrize(
    "bad_line",
    [
        '{"index": 1, "path": [1, 2], "guess": null, "result": 0',  # not JSON
        '{"index": 1, "path": [1, 2], "guess": null}',  # no result
        '{"index": 1, "path": ["x", 2], "guess": null, "result": 0}',  # path not integer
    ],
)
def test_malformed_query_log_line_is_an_integrity_error(tmp_path, bad_line):
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=4)
    log = []
    oracle_query(spec, (), guess=0, log=log)
    path = tmp_path / "log.jsonl"
    save_query_log(log, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    with pytest.raises(IntegrityError, match="line 2"):
        load_query_log(path)


def test_bad_spec_kind():
    # A unitary's name is not an action: the spec takes what build_unitary returns.
    for unitary in ("nope", "qft", "random"):
        with pytest.raises(InvalidConfigError, match="n = 2"):
            make_rfs_spec(depth=1, n_symbol_bits=2, master_seed=0, unitary=unitary)


@pytest.mark.parametrize(
    "depth, n, unitary",
    [(0, 4, None), (-1, 4, None), (1, 4, hadamard_all(3)), (2, 3, hadamard_all(4))],
)
def test_make_rfs_spec_refuses_bad_arguments_before_compiling(monkeypatch, depth, n, unitary):
    from oraclelab.rfs import core

    def refuse(*args, **kwargs):
        raise AssertionError("compiled the oracle before checking the arguments")

    monkeypatch.setattr(core, "build_oracle", refuse)
    with pytest.raises(InvalidConfigError):
        make_rfs_spec(depth, n, 0, unitary=unitary)


@pytest.mark.parametrize(
    "kind, extra",
    [("hadamard", {}), ("random-circuit", {"t": 30, "seed": 3})],
)
def test_spec_oracle_carries_the_unitary_it_compiled_from(monkeypatch, kind, extra):
    from oraclelab.rfs import core

    built = []

    def recording(n):
        built.append(hadamard_all(n))
        return built[-1]

    monkeypatch.setattr(core, "hadamard_all", recording)
    unitary = build_unitary("random", 3, **extra) if extra else None
    spec = make_rfs_spec(depth=2, n_symbol_bits=3, master_seed=0, alpha_n=2, unitary=unitary)
    # The default unitary is built once; a given one is used as it is.
    (expected,) = built if unitary is None else [unitary, *built]
    assert spec.oracle.unitary is expected
    assert replace(spec, master_seed=8).oracle.unitary is expected


def test_reseeded_spec_answer_bit_follows_the_seed():
    base = make_rfs_spec(depth=2, n_symbol_bits=3, master_seed=0, alpha_n=2)
    bits = set()
    for seed in range(1, 40):
        spec = replace(base, master_seed=seed)
        assert spec.b_root == derive_answer_bit(seed)
        bits.add(spec.b_root)
    assert bits == {0, 1}
