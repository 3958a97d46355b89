import dataclasses
import functools
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from oraclelab.errors import CertificationError, InvalidConfigError
from oraclelab.oracle import build_oracle, build_unitary, identify, prepare_phi
from oraclelab.rfs import (
    LevelStats,
    RecursiveOracleSpec,
    find_simulate,
    make_rfs_spec,
    query_count,
    query_count_closed_form,
    repetition_count,
    secret_at,
)
from oraclelab.rfs.core import level_secrets
from oraclelab.rfs.find import _haar_perp
from oraclelab.simcore import MatrixUnitary, fwht_normalized, stream
from test_oracle import dense_block_probability


def reference_walk(spec, delta, m, inject=None, junk_draws=0, rng=None):
    """The recursion model as a recursive post-order walk: the reference for ``find_simulate``.

    Returns the root failure weight, the per-depth statistics and, when
    ``junk_draws`` is positive, the sampled-mode summary.  Identification
    runs once per label, on the label's first node in post-order.
    """
    inject = dict(inject or {})
    depth = spec.depth
    dim = 2**spec.n_symbol_bits
    oracle = spec.oracle
    exact_cache: dict[int, float] = {}
    sign_cache: dict[int, np.ndarray] = {}

    def exact_success(label: int, path) -> float:
        if label not in exact_cache:
            p = identify(oracle, label)
            if p < delta - 1e-12:
                raise CertificationError(
                    f"label {label} at node {path} identifies with probability "
                    f"{p:.6f} < delta {delta}"
                )
            exact_cache[label] = p
        return exact_cache[label]

    stats = {
        k: {"nodes": 0, "eps_unc": 0.0, "eps_out": 0.0, "s_min": 1.0, "p_min": 1.0}
        for k in range(depth)
    }

    def walk(path, node_out) -> float:
        label = secret_at(spec, path)
        if len(path) + 1 < depth:
            child_eps = np.array([walk(path + (x,), node_out) for x in range(dim)])
        else:
            child_eps = np.zeros(dim)
        if label not in sign_cache:
            sign_cache[label] = oracle.signs(label)
        c = float(np.mean((1.0 - child_eps) + sign_cache[label] * child_eps))
        return node_out(path, label, max(0.0, (1.0 - c * c) / 4.0))

    def bound_out(path, label: int, eps_unc: float) -> float:
        p = exact_success(label, path)
        s_floor = max(0.0, p - 4.0 * math.sqrt(eps_unc))
        eps_out = min(1.0, (1.0 - s_floor) ** m + inject.get(path, 0.0))
        st = stats[len(path)]
        st["nodes"] += 1
        st["eps_unc"] = max(st["eps_unc"], eps_unc)
        st["eps_out"] = max(st["eps_out"], eps_out)
        st["s_min"] = min(st["s_min"], s_floor)
        st["p_min"] = min(st["p_min"], p)
        return eps_out

    root_eps = walk((), bound_out)
    levels = tuple(
        LevelStats(k, st["nodes"], st["eps_unc"], st["eps_out"], st["s_min"], st["p_min"])
        for k, st in stats.items()
    )
    if junk_draws == 0:
        return root_eps, levels, None

    def sampled_out(path, label: int, eps_unc: float) -> float:
        phi = prepare_phi(oracle, label).amplitudes
        rows = oracle.labels[label].rows
        fail = 1.0
        for _copy in range(m):
            tilde = phi if eps_unc == 0.0 else (
                math.sqrt(1.0 - 4.0 * eps_unc) * phi
                + math.sqrt(4.0 * eps_unc) * _haar_perp(rng, phi)
            )
            fail *= max(0.0, 1.0 - dense_block_probability(oracle.unitary, tilde, rows))
        return min(1.0, fail + inject.get(path, 0.0))

    draws = np.array([1.0 - walk((), sampled_out) for _ in range(junk_draws)])
    sampled = {
        "draws": junk_draws,
        "success_mean": float(np.mean(draws)),
        "success_min": float(np.min(draws)),
        "success_max": float(np.max(draws)),
    }
    return root_eps, levels, sampled


def test_repetition_and_epsilon_for_point_two():
    assert repetition_count(0.2) == 74
    assert math.isclose((0.2 / 8) ** 2, 6.25e-4, rel_tol=1e-12)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_query_recurrence_equals_geometric_sum(depth):
    for m in (1, 3, 74):
        assert query_count(m, depth) == sum((2 * m) ** j for j in range(1, depth + 1))
        assert query_count(m, depth) == query_count_closed_form(m, depth)


def test_query_count_example():
    m = repetition_count(0.2)
    assert query_count(m, 2) == 148 + 148**2 == 22052


def test_depth_one_accounting():
    spec = make_rfs_spec(depth=1, n_symbol_bits=3, master_seed=3, alpha_n=2)
    report = find_simulate(spec, delta=0.2)
    assert report.queries_total == 2 * report.m
    assert report.answer == spec.b_root
    assert report.final_failure_sq == 0.0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_hadamard_specs_are_error_free(depth):
    spec = make_rfs_spec(depth=depth, n_symbol_bits=3, master_seed=11, alpha_n=2)
    report = find_simulate(spec, delta=0.2)
    assert report.bounds_hold
    assert report.answer == spec.b_root
    for level in report.levels:
        assert level.exact_success_min >= 1.0 - 1e-9
        assert level.copy_success_min >= 1.0 - 1e-9
        assert level.eps_uncompute_max == 0.0
        assert level.eps_out_max <= report.epsilon
    assert report.queries_total == report.queries_closed_form
    assert report.queries_order_estimate == float(2 * report.m) ** (2 * depth)


def test_random_circuit_report_is_pinned():
    # Bounds and sampled junk, with two copies so that the sampled successes lie inside
    # (0, 1); taken while identify measured one label per call, and retaken without the
    # report's junk_mode key, the only entry that changed.  Moving it must bump
    # cli.NUMERICS_VERSION.
    spec = make_rfs_spec(2, 4, 7, unitary=build_unitary("random", 4, 256, 0))
    report = find_simulate(spec, 0.2, m_override=2, junk_draws=3, rng=stream(5))
    assert 0 < report.sampled["success_min"] < report.sampled["success_max"] < 1
    digest = hashlib.sha256(json.dumps(dataclasses.asdict(report), sort_keys=True).encode())
    assert digest.hexdigest() == "299d640f80c3d22f4c3b99d4d90111d6ae8d17612d4498e3c507d2f105907af0"


def test_certification_error_names_the_label():
    # An identity unitary identifies with probability 2^-n, far below delta.
    n = 3
    identity = MatrixUnitary(np.eye(2**n, dtype=complex))
    oracle = build_oracle(identity, range(4))
    spec = RecursiveOracleSpec(
        depth=1,
        n_symbol_bits=n,
        oracle=oracle,
        master_seed=0,
    )
    with pytest.raises(CertificationError) as err:
        find_simulate(spec, delta=0.2)
    assert "label" in str(err.value)


def test_injected_error_propagates_through_bounds():
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=42, alpha_n=2)
    eps = 0.04
    corrupted = None
    for x in range(4):
        report = find_simulate(spec, delta=0.2, inject={(x,): eps})
        level1 = report.levels[1]
        assert level1.eps_out_max >= eps
        root = report.levels[0]
        if root.eps_uncompute_max > 0:
            corrupted = x
            # c = 1 - 2 eps / |X| when the affected branch carries a phase flip.
            c = 1.0 - 2.0 * eps / 4.0
            expected_unc = (1.0 - c * c) / 4.0
            assert abs(root.eps_uncompute_max - expected_unc) <= 1e-12
            assert abs(root.copy_success_min - (1.0 - 4.0 * math.sqrt(expected_unc))) <= 1e-12
    assert corrupted is not None


def test_sampled_mode_matches_worst_mode_when_clean():
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=13, alpha_n=2)
    report = find_simulate(spec, delta=0.2, junk_draws=20, rng=stream(5))
    assert report.sampled["success_mean"] == 1.0
    assert report.sampled["success_min"] == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m_override": 0},
        {"m_override": -3},
        {"junk_draws": 0, "rng": stream(5)},
    ],
    ids=["m-0", "m-minus-3", "sampled-0-draws"],
)
def test_unusable_counts_are_refused_before_any_identify(monkeypatch, kwargs):
    def refuse(*_args):
        raise AssertionError("identify called")

    monkeypatch.setattr("oraclelab.rfs.find.identify", refuse)
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=13, alpha_n=2)
    with pytest.raises(InvalidConfigError):
        find_simulate(spec, delta=0.2, **kwargs)


def test_epsilon_bounds_hold_at_every_level():
    # Inject the largest admissible error everywhere and check the bound
    # algebra still clears delta/2.
    delta = 0.2
    epsilon = (delta / 8) ** 2
    spec = make_rfs_spec(depth=3, n_symbol_bits=2, master_seed=2, alpha_n=2)
    inject = {}
    for x in range(4):
        inject[(x,)] = epsilon * 0.5
        for y in range(4):
            inject[(x, y)] = epsilon * 0.5
    report = find_simulate(spec, delta=delta, inject=inject)
    for level in report.levels:
        assert level.eps_out_max <= epsilon + 1e-15
        assert level.copy_success_min >= delta / 2
    assert report.bounds_hold


@functools.cache
def _phased_oracle(n):
    """The oracle of Hadamard times random column phases on ``n`` qubits over ``2^ceil(n/2)``
    labels, and a delta just below the smallest exact success, so that every label certifies."""
    phases = np.exp(2j * np.pi * stream(n).random(2**n))
    unitary = MatrixUnitary(fwht_normalized(np.eye(2**n, dtype=complex)) * phases)
    oracle = build_oracle(unitary, range(2 ** ((n + 1) // 2)))
    delta = 0.9 * min(identify(oracle, k) for k in range(oracle.n_labels))
    return oracle, delta


def _phased_spec(depth, n, seed):
    oracle, delta = _phased_oracle(n)
    return RecursiveOracleSpec(depth, n, oracle, seed), delta


def _injections(depth, n, seed):
    """One injected weight per depth on a seed-dependent path, and one key below the tree."""
    dim = 2**n
    inject = {tuple((seed + j) % dim for j in range(k)): 1e-3 * (k + 1) for k in range(depth)}
    inject[(0,) * depth] = 0.5  # a path of full length names no internal node
    return inject


@pytest.mark.parametrize("depth, n", [(1, 3), (2, 2), (2, 8), (3, 4), (3, 6), (2, 10), (4, 4)])
@pytest.mark.parametrize("variant", ["plain", "inject", "m_override", "both"])
def test_level_sweep_equals_the_recursive_walk(depth, n, variant):
    for seed in (0, 5, 2**64 - 1):
        spec, delta = _phased_spec(depth, n, seed)
        inject = _injections(depth, n, seed) if variant in ("inject", "both") else None
        m_override = 2 if variant in ("m_override", "both") else None
        report = find_simulate(spec, delta, m_override=m_override, inject=inject)
        root_eps, levels, _ = reference_walk(spec, delta, report.m, inject)
        assert report.final_failure_sq == root_eps
        assert report.levels == levels
        for new, old in zip(report.levels, levels):
            for name in LevelStats.__dataclass_fields__:
                assert getattr(new, name) == getattr(old, name), name


@pytest.mark.parametrize("depth, n", [(2, 2), (3, 2), (2, 4)])
def test_sampled_mode_keeps_the_post_order_draws(depth, n):
    spec, delta = _phased_spec(depth, n, 3)
    inject = _injections(depth, n, 3)
    report = find_simulate(spec, delta, m_override=2, inject=inject, junk_draws=4, rng=stream(9))
    root_eps, levels, sampled = reference_walk(spec, delta, 2, inject, junk_draws=4, rng=stream(9))
    assert (report.final_failure_sq, report.levels, report.sampled) == (root_eps, levels, sampled)
    assert 0 < sampled["success_min"] < 1


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
def test_level_secrets_equal_secret_at_on_every_node(seed):
    spec = make_rfs_spec(depth=3, n_symbol_bits=4, master_seed=seed)
    levels = level_secrets(spec)
    assert [len(level) for level in levels] == [1, 16, 256]
    for k, level in enumerate(levels):
        for i, path in enumerate(itertools.product(range(16), repeat=k)):
            assert level[i] == secret_at(spec, path)


def _two_failing_labels(depth, seed):
    """An instance on n = 3 whose labels 6 and 7 identify with probability 1/8 and all
    others with at least 1/3: the order-6 DFT on the first six basis states, identity on the rest."""
    matrix = np.eye(8, dtype=complex)
    matrix[:6, :6] = np.exp(2j * np.pi / 6) ** np.outer(range(6), range(6)) / np.sqrt(6)
    unitary = MatrixUnitary(matrix)
    oracle = build_oracle(unitary, range(8))
    return RecursiveOracleSpec(depth, 3, oracle, seed)


@pytest.mark.parametrize(
    "depth, seed, label, path",
    [
        # The root's label 7 fails too, but the root comes last in post-order.
        (2, 12, 6, (1,)),
        # Deeper nodes carry 7 as well, but only after node (0,) and its clean children.
        (3, 10, 6, (0,)),
    ],
)
def test_certification_error_names_the_first_node_of_the_post_order_walk(depth, seed, label, path):
    spec = _two_failing_labels(depth, seed)
    levels = level_secrets(spec)
    assert {6, 7} <= {int(x) for level in levels for x in level}
    assert 7 in levels[-1] or 7 in levels[0]  # another failing node, not first in post-order
    with pytest.raises(CertificationError) as expected:
        reference_walk(spec, 0.3, 74)
    with pytest.raises(CertificationError) as err:
        find_simulate(spec, 0.3)
    message = f"label {label} at node {path} identifies with probability 0.125000 < delta 0.3"
    assert str(err.value) == str(expected.value) == message
