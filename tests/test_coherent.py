import math

import pytest

from oraclelab.errors import InvalidConfigError, SizeError
from oraclelab.oracle import build_unitary
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
        depth=1, n_symbol_bits=2, master_seed=9, alpha_n=2, unitary=build_unitary("random", 2, 6, 4)
    )
    p = identify(spec.oracle, secret_at(spec, ()))
    assert p < 1.0 - 1e-6  # a generic circuit does not identify exactly
    for m in (1, 2, 3):
        report = find_coherent_tiny(spec, m_override=m)
        assert abs(report.success_prob - (1.0 - (1.0 - p) ** m)) <= 1e-9


# ``success_prob`` and ``uncompute_residuals`` as float hex, recorded from the
# op-class implementation with per-combination mask loops: the step-list
# program must reproduce its arithmetic bit for bit, which the 1e-9 checks
# above cannot tell from a reordered sum.
@pytest.mark.parametrize(
    "depth, n, kind, seed, m, inject, success_hex, residuals_hex",
    [
        (1, 2, "hadamard", 3, 1, {}, "0x1.0000000000000p+0", ()),
        (1, 2, "hadamard", 8, 3, {}, "0x1.0000000000000p+0", ()),
        (1, 2, "random-circuit", 9, 1, {}, "0x1.2f77490d1b846p-1", ()),
        (1, 2, "random-circuit", 9, 2, {}, "0x1.ab10c6d933f36p-1", ()),
        (1, 2, "random-circuit", 9, 3, {}, "0x1.dd6822e3ba834p-1", ()),
        (2, 1, "hadamard", 5, 2, {}, "0x1.fffffffffffd6p-1",
         ("0x1.5d3d623346ab2p-55", "0x1.45cb5a612be72p-55")),
        (2, 1, "hadamard", 5, 2, {(1,): 0.1}, "0x1.fae147ae14780p-1",
         ("0x1.b27247aff1486p-2", "0x1.b27247aff147dp-2")),
        (2, 1, "hadamard", 6, 1, {(0,): 0.2}, "0x1.ffffffffffff3p-1", ("0x1.4caef8a7bfe5cp-54",)),
        (2, 2, "hadamard", 42, 1, {}, "0x1.0000000000000p+0", ("0x0.0p+0",)),
        (2, 2, "hadamard", 42, 1, {(1,): 0.1}, "0x1.0000000000000p+0", ("0x0.0p+0",)),
        (2, 2, "hadamard", 42, 1, {(0,): 0.05, (3,): 0.2}, "0x1.b333333333334p-1",
         ("0x1.9999999999999p-2",)),
        (2, 2, "random-circuit", 9, 1, {}, "0x1.a7747323c47e0p-2", ("0x1.973b4a99ae956p-1",)),
        (2, 2, "random-circuit", 9, 1, {(2,): 0.2}, "0x1.64e43713a7e87p-2",
         ("0x1.b0d01bed34f3fp-1",)),
    ],
)
def test_coherent_outputs_are_pinned_bitwise(
    depth, n, kind, seed, m, inject, success_hex, residuals_hex
):
    unitary = build_unitary("random", n, 6, 4) if kind == "random-circuit" else None
    spec = make_rfs_spec(depth, n, seed, alpha_n=n, unitary=unitary)
    report = find_coherent_tiny(spec, m_override=m, inject=inject)
    assert report.success_prob.hex() == success_hex
    assert tuple(r.hex() for r in report.uncompute_residuals) == residuals_hex


@pytest.mark.parametrize("depth, key", [(2, ()), (1, (0,)), (2, (0, 1)), (2, (4,)), (2, (-1,))])
def test_inject_keys_naming_no_child_node_are_refused_before_any_work(monkeypatch, depth, key):
    from oraclelab.rfs import find

    def refuse(*args):
        raise AssertionError("derived labels before checking inject")

    spec = make_rfs_spec(depth=depth, n_symbol_bits=2, master_seed=42, alpha_n=2)
    monkeypatch.setattr(find, "level_secrets", refuse)
    with pytest.raises(InvalidConfigError, match="inject"):
        find_coherent_tiny(spec, m_override=1, inject={key: 0.1})


@pytest.mark.parametrize("weight", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("simulator", ["coherent", "model"])
def test_inject_weights_outside_the_unit_interval_are_refused_before_any_work(
    monkeypatch, simulator, weight
):
    from oraclelab.rfs import find

    def refuse(*args):
        raise AssertionError("derived labels before checking inject")

    spec = make_rfs_spec(depth=2, n_symbol_bits=2, master_seed=42, alpha_n=2)
    monkeypatch.setattr(find, "level_secrets", refuse)
    with pytest.raises(InvalidConfigError, match="inject weights"):
        if simulator == "coherent":
            find_coherent_tiny(spec, m_override=1, inject={(0,): weight})
        else:
            find_simulate(spec, delta=0.2, inject={(0,): weight})
