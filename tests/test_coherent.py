import math

import pytest

from oraclelab.errors import InvalidConfigError, SizeError
from oraclelab.rfs import find_coherent_tiny, find_simulate, make_rfs_spec
from oraclelab.simcore import stream


def test_depth_one_exact():
    spec = make_rfs_spec(depth=1, n_symbol_bits=2, master_seed=3, alpha_n=2)
    report = find_coherent_tiny(spec, m_override=1)
    assert abs(report.success_prob - 1.0) <= 1e-9
    assert report.answer == spec.b_root
    assert report.answer_register_consistent


@pytest.mark.parametrize("m", [1, 2, 3])
def test_depth_one_copies(m):
    spec = make_rfs_spec(depth=1, n_symbol_bits=2, master_seed=8, alpha_n=2)
    report = find_coherent_tiny(spec, m_override=m)
    assert abs(report.success_prob - 1.0) <= 1e-9


def test_depth_two_exact():
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=5, alpha_n=2)
    report = find_coherent_tiny(spec, m_override=1)
    assert report.total_qubits == 12
    assert abs(report.success_prob - 1.0) <= 1e-9
    assert all(r <= 1e-9 for r in report.uncompute_residuals)


def test_corruption_reduces_success_and_respects_residual_bound():
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=42, alpha_n=2)
    label = None
    for x in range(4):
        eps = 0.1
        report = find_coherent_tiny(spec, m_override=1, inject={(x,): eps})
        model = find_simulate(spec, delta=0.2, inject={(x,): eps})
        eps_unc = model.levels[0].eps_uncompute_max
        # Residual left in the child block is capped by sqrt(4 eps).
        assert all(r <= math.sqrt(4 * eps_unc) + 1e-9 for r in report.uncompute_residuals)
        if report.success_prob < 1.0 - 1e-9:
            label = x
            assert report.success_prob < 1.0
    assert label is not None


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_corrupted_cross_check_against_sampled_model(eps):
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=42, alpha_n=2)
    for x in range(4):
        coherent = find_coherent_tiny(spec, m_override=1, inject={(x,): eps})
        model = find_simulate(
            spec,
            delta=0.2,
            m_override=1,
            inject={(x,): eps},
            junk_draws=100,
            rng=stream(1000 + x),
        )
        assert abs(coherent.success_prob - model.sampled["success_mean"]) <= 0.05


def test_size_guards():
    # Two copies at depth 2 already need 27 registers qubits: over the cap.
    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=1, alpha_n=2)
    with pytest.raises(SizeError):
        find_coherent_tiny(spec, m_override=2)
    big = make_rfs_spec(depth=2, n_symbol_bits=3, master_seed=1, alpha_n=2)
    with pytest.raises(SizeError):
        find_coherent_tiny(big, m_override=1)


@pytest.mark.parametrize("m", [0, -1])
def test_copy_counts_below_one_are_refused(m):
    spec = make_rfs_spec(depth=1, n_symbol_bits=2, master_seed=3, alpha_n=2)
    with pytest.raises(InvalidConfigError, match="m_override"):
        find_coherent_tiny(spec, m_override=m)


def test_depth_one_two_labels_narrow_answer_register():
    spec = make_rfs_spec(depth=1, n_symbol_bits=2, master_seed=6, alpha_n=1)
    report = find_coherent_tiny(spec, m_override=2)
    assert abs(report.success_prob - 1.0) <= 1e-9


def test_depth_one_matches_exact_identification_for_generic_unitary():
    # With one copy and leaf children, the coherent run's success is exactly
    # the single-level identification probability; with m copies the failure
    # amplitude squares down as (1 - p)^m.
    from oraclelab.oracle import identify
    from oraclelab.rfs import secret_at

    spec = make_rfs_spec(
        depth=1,
        n_symbol_bits=2,
        master_seed=9,
        kind="random-circuit",
        alpha_n=2,
        circuit_length=6,
        circuit_seed=4,
    )
    p = identify(spec.oracle, secret_at(spec, ()))
    assert p < 1.0 - 1e-6  # a generic circuit does not identify exactly
    for m in (1, 2, 3):
        report = find_coherent_tiny(spec, m_override=m)
        assert abs(report.success_prob - (1.0 - (1.0 - p) ** m)) <= 1e-9
