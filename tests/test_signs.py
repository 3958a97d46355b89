import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclelab import signs
from oraclelab.errors import DegenerateInputError, SizeError
from oraclelab.signs import _sweep, best_phase_signs, brute_force_signs, compile_rows
from oraclelab.simcore import hadamard_all, qft_cyclic, stream

TWO_OVER_PI = 2.0 / np.pi


def test_all_real_positive():
    sol = best_phase_signs([3.0, 1.0, 2.5])
    assert sol.theta == (1, 1, 1)
    assert sol.phi_star == 0.0
    assert abs(sol.value - sol.l1) <= 1e-12


def test_one_and_i():
    sol = best_phase_signs([1.0, 1.0j])
    assert abs(sol.value - np.sqrt(2)) <= 1e-12
    assert sol.value >= TWO_OVER_PI * 2.0
    theta, best = brute_force_signs([1.0, 1.0j])
    assert theta == (1, 1) and abs(best - np.sqrt(2)) <= 1e-12


def test_brute_force_small_cases():
    theta, value = brute_force_signs([-3.0])
    assert theta == (1,) and value == 3.0  # modulus ignores a global sign
    theta, value = brute_force_signs([1.0, 1.0, 1.0])
    assert theta == (1, 1, 1) and abs(value - 3.0) <= 1e-15
    theta, value = brute_force_signs([1.0, -1.0])
    assert theta == (1, -1) and abs(value - 2.0) <= 1e-15


def test_brute_force_rejects_large_d():
    with pytest.raises(SizeError):
        brute_force_signs(np.ones(21))


def test_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        best_phase_signs(np.zeros(4, dtype=complex))
    with pytest.raises(DegenerateInputError):
        best_phase_signs([])


@pytest.mark.parametrize(
    "x",
    [[np.nan, 1.0], [1.0, np.inf], [complex(np.inf, 1.0), 2j], [1.0, complex(0.0, np.nan)]],
    ids=["nan", "inf", "complex-inf", "complex-nan"],
)
def test_non_finite_entries_are_refused_before_any_sweep(monkeypatch, x):
    def refuse(xv):
        raise AssertionError("swept a row with a non-finite entry")

    monkeypatch.setattr(signs, "_phase", refuse)
    with pytest.raises(DegenerateInputError, match="finite"):
        best_phase_signs(x)
    with pytest.raises(DegenerateInputError, match="finite"):
        compile_rows([[1.0, 1j], x])


def test_compile_rows_refuses_a_zero_row_of_a_stack():
    with pytest.raises(DegenerateInputError, match="nonzero"):
        compile_rows([[1.0, 1j], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError, match="nonzero"):
        compile_rows(np.ones((2, 0)))


def test_compile_rows_equals_best_phase_signs_row_by_row():
    rng = stream(45)
    rows = rng.standard_normal((7, 12)) + 1j * rng.standard_normal((7, 12))
    rows[1] = rows[1].real  # real rows among complex ones
    rows[4] = np.where(rng.random(12) < 0.5, 1.0, -1.0) / np.sqrt(12)
    rows[5, ::2] = 0.0
    theta, l1 = compile_rows(rows)
    for k, row in enumerate(rows):
        sol = best_phase_signs(row)
        assert tuple(theta[k].tolist()) == sol.theta, k
        assert l1[k].tobytes() == np.float64(sol.l1).tobytes(), k


def test_random_vectors_sandwich():
    rng = stream(40)
    for _ in range(300):
        d = int(rng.integers(1, 13))
        scale = 10.0 ** rng.uniform(-6, 6)
        x = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        sol = best_phase_signs(x)
        _theta, best = brute_force_signs(x)
        assert sol.value >= TWO_OVER_PI * sol.l1 - 1e-12 * sol.l1
        assert sol.value <= best + 1e-12 * max(sol.l1, 1.0)
        # The achieved value can exceed g(phi*) only at breakpoints; the
        # sign read-back must reproduce it.
        theta = np.array(sol.theta)
        assert abs(abs(np.sum(theta * x)) - sol.value) <= 1e-12 * max(sol.l1, 1.0)


def test_scale_equivariance():
    rng = stream(41)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sol = best_phase_signs(x)
    scaled = best_phase_signs(137.5 * x)
    assert scaled.theta == sol.theta
    assert scaled.phi_star == sol.phi_star
    assert abs(scaled.value - 137.5 * sol.value) <= 1e-12 * scaled.l1


def test_global_phase_covariance():
    rng = stream(42)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    sol = best_phase_signs(x)
    for gamma in (0.3, 1.1, 2.9):
        rotated = best_phase_signs(np.exp(1j * gamma) * x)
        assert abs(rotated.value - sol.value) <= 1e-11 * sol.l1
        shift = (sol.phi_star - gamma) % np.pi
        diff = min(abs(rotated.phi_star - shift), np.pi - abs(rotated.phi_star - shift))
        assert diff <= 1e-9


def test_tie_rule_zero_entries_get_plus_one():
    # The second coordinate is orthogonal to the winning phase.
    sol = best_phase_signs([5.0, 1e-30j])
    assert sol.theta[1] == 1


def _sweep_corpus():
    rng = stream(43)
    rows = [("qft", row) for d in (4, 8, 16) for row in qft_cyclic(d).matrix]
    rows += [("real", rng.standard_normal(d)) for d in (1, 2, 5, 12)]
    rows += [("complex", rng.standard_normal(d) + 1j * rng.standard_normal(d)) for d in range(1, 9)]
    rows.append(("real", np.array([1.0, -1.0, 1.0, 1.0, -1.0])))
    zeros = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    zeros[[1, 4, 5, 9]] = 0.0
    rows.append(("zeros", zeros))
    rows.append(("zeros", np.array([0.0, 1j, 0.0, -2.0 + 1j])))
    phases = rng.uniform(-np.pi, np.pi, 4)
    rows.append(("duplicate", np.exp(1j * phases[[0, 1, 0, 2, 1, 0, 3]]) * np.arange(1, 8)))
    rows.append(("duplicate", np.array([1 + 1j, 2 + 2j, -3 - 3j, 1j])))
    close = 0.7 + 1e-16 * np.arange(-4, 5)
    rows.append(("1e-16 apart", rng.uniform(0.5, 2.0, close.size) * np.exp(1j * close)))
    # Breakpoints mod(pi/2 - arg x, pi) on both sides of 0 == pi.
    near = np.pi / 2 + 1.1e-16 * np.array([-3, -1, 0, 1, 3])
    wrap = np.concatenate([np.exp(1j * near), -np.exp(1j * near), [0.3 + 0.2j]])
    rows.append(("near 0 and pi", wrap * rng.uniform(0.5, 2.0, wrap.size)))
    rows.append(("near 0 and pi", np.array([1j, -3e-16 + 1j, -1j, 3e-16 - 1j, 0.5 + 0.5j])))
    for d in (5, 7, 8, 10):  # purely imaginary terms sit exactly on the breakpoint 0
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x[::2] = 1j * rng.standard_normal(x[::2].size)
        rows.append(("exactly 0 and pi", x))
    return rows


@pytest.mark.parametrize("kind,x", _sweep_corpus())
def test_sweep_reaches_the_brute_force_maximum(kind, x):
    sol = best_phase_signs(x)
    _theta, best = brute_force_signs(x)
    assert abs(sol.value - best) <= 1e-12 * sol.l1, kind
    assert 0.0 <= sol.phi_star < np.pi
    assert abs(abs(np.sum(np.array(sol.theta) * x)) - sol.value) <= 1e-12 * sol.l1
    assert all(t == 1 for t, v in zip(sol.theta, x) if v == 0)


@st.composite
def complex_vectors(draw):
    d = draw(st.integers(min_value=1, max_value=16))
    scale = 10.0 ** draw(st.floats(min_value=-6, max_value=6))
    parts = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    real = draw(st.lists(parts, min_size=d, max_size=d))
    imag = draw(st.lists(parts, min_size=d, max_size=d))
    vec = scale * (np.array(real) + 1j * np.array(imag))
    return vec


@settings(max_examples=300, deadline=None)
@given(complex_vectors())
def test_property_captures_two_over_pi(x):
    if not np.any(x != 0):
        return
    sol = best_phase_signs(x)
    assert sol.value >= TWO_OVER_PI * sol.l1 - 1e-12 * sol.l1


def _real_row_cases():
    rng = stream(44)
    cases = [("negative", [-rng.uniform(0.1, 3.0, d) for d in (1, 2, 7, 16)])]
    signed_zeros = []
    for d in (3, 8, 17):
        x = rng.standard_normal(d)
        x[::3] = 0.0
        x[1::4] = -0.0
        signed_zeros.append(x)
    signed_zeros.append(np.array([0.0, -0.0, -1.0, 0.0]))
    cases.append(("signed zeros", signed_zeros))
    cases.append(("one entry", [np.array([v]) for v in (2.5, -2.5, 1e-300, -7.0)]))
    zero_imag = []
    for d in (1, 5, 12):
        x = rng.standard_normal(d)
        signed = np.where(rng.random(d) < 0.5, 0.0, -0.0)
        zero_imag.append(np.array([complex(r, i) for r, i in zip(x, signed)]))
    zero_imag.append(np.array([complex(-0.0, -0.0), complex(-1.0, -0.0), complex(2.0, 0.0)]))
    cases.append(("imaginary parts +-0", zero_imag))
    for n in range(1, 7):
        h = hadamard_all(n)
        cases.append((f"hadamard n={n}", [h.rows([a])[0] for a in range(2**n)]))
    return [pytest.param(kind, rows, id=kind) for kind, rows in cases]


def _bits(sol):
    floats = (sol.phi_star, sol.value, sol.l1)
    return sol.theta, [np.float64(v).tobytes() for v in floats]


@pytest.mark.parametrize("kind,rows", _real_row_cases())
def test_real_rows_short_path_equals_the_sweep(kind, rows):
    for x in rows:
        sol = best_phase_signs(x)
        assert _bits(sol) == _bits(_sweep(np.asarray(x, dtype=complex).ravel())), kind
        assert sol.theta == tuple(1 if v >= 0 else -1 for v in np.real(x))
        if np.size(x) <= 20:
            _theta, best = brute_force_signs(x)
            assert abs(sol.value - best) <= 1e-12 * sol.l1, kind
