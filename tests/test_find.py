import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from oraclelab.errors import CertificationError, InvalidConfigError
from oraclelab.oracle import build_oracle
from oraclelab.rfs import (
    RecursiveOracleSpec,
    find_simulate,
    make_rfs_spec,
    query_count,
    query_count_closed_form,
    repetition_count,
    unitary_for_spec,
)
from oraclelab.simcore import MatrixUnitary, hadamard_all, stream


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
    report = find_simulate(spec, hadamard_all(3), delta=0.2)
    assert report.queries_total == 2 * report.m
    assert report.answer == spec.b_root
    assert report.final_failure_sq == 0.0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_hadamard_specs_are_error_free(depth):
    spec = make_rfs_spec(depth=depth, n_symbol_bits=3, master_seed=11, alpha_n=2)
    report = find_simulate(spec, hadamard_all(3), delta=0.2)
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
    # Both junk modes, with two copies so that the sampled successes lie inside (0, 1);
    # taken while identify measured one label per call.  Moving it must bump
    # cli.NUMERICS_VERSION.
    spec = make_rfs_spec(2, 4, 7, kind="random-circuit", circuit_length=256, circuit_seed=0)
    report = find_simulate(
        spec, unitary_for_spec(spec), 0.2, junk_mode="both", m_override=2, junk_draws=3,
        rng=stream(5),
    )
    assert 0 < report.sampled["success_min"] < report.sampled["success_max"] < 1
    digest = hashlib.sha256(json.dumps(dataclasses.asdict(report), sort_keys=True).encode())
    assert digest.hexdigest() == "502b31396bb7ec3f0b7770f8443b1323bb61df2c353dfc25ff71e6617c76a239"


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
        descriptor={"kind": "custom"},
    )
    with pytest.raises(CertificationError) as err:
        find_simulate(spec, identity, delta=0.2)
    assert "label" in str(err.value)


def test_injected_error_propagates_through_bounds():
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=42, alpha_n=2)
    unitary = hadamard_all(2)
    eps = 0.04
    corrupted = None
    for x in range(4):
        report = find_simulate(spec, unitary, delta=0.2, inject={(x,): eps})
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
    report = find_simulate(
        spec, hadamard_all(2), delta=0.2, junk_mode="both", junk_draws=20, rng=stream(5)
    )
    assert report.sampled["success_mean"] == 1.0
    assert report.sampled["success_min"] == 1.0


def test_sampled_mode_requires_rng():
    spec = make_rfs_spec(depth=1, n_symbol_bits=2, master_seed=13)
    with pytest.raises(InvalidConfigError):
        find_simulate(spec, hadamard_all(2), delta=0.2, junk_mode="sampled")


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
    report = find_simulate(spec, hadamard_all(2), delta=delta, inject=inject)
    for level in report.levels:
        assert level.eps_out_max <= epsilon + 1e-15
        assert level.copy_success_min >= delta / 2
    assert report.bounds_hold
