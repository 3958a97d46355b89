"""The Pauli-string Markov chain driven by random two-qubit gates.

Averaging the squared Pauli coefficients of a state over a random two-qubit
gate on sites ``(i, j)`` acts as a classical Markov step on the string
``p in {0,1,2,3}^n``: a pair ``(0, 0)`` is left alone, any other pair is
replaced by a uniform draw from the 15 nonzero pairs.  Since the update law
only depends on how many of the two chosen sites are nonzero, the weight
(count of nonzero sites) is itself a Markov chain on ``{1, .., n}``; its
stationary law is ``pi(w) ~ C(n, w) 3^w`` and its spectrum is computable
exactly at any ``n``.

Site codes: 0 is the identity, 1 the phase flip, 2 the bit flip, 3 their
product (so codes 0 and 1 are the diagonal Paulis).

Every array over strings is laid out by ``string_index``: a string is its
base-4 index, site 0 the most significant digit.  A string's matrix acts
with site ``k`` on bit ``k`` of the basis index.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lgamma

import numpy as np

from .errors import InvalidConfigError, SizeError
from .simcore import (
    PureState,
    basis_vector,
    run_pair_circuits,
    sample_haar_stack,
    unitarity_defect,
)
from .simcore.circuits import _checked_labels

# Codes 0..3: identity, sigma_z, sigma_x, sigma_y.
PAULI_1Q = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]], dtype=complex
)

MAX_WEIGHT_CHAIN_N = 64
MAX_FULL_CHAIN_N = 4
MAX_MOMENT_STEPS = 50
MAX_COLLISION_N = 12
# Batched circuits hold every state at once, 16 bytes per amplitude: 64 MiB at the cap.
MAX_CIRCUIT_AMPLITUDES = 2**22


def check_amplitudes(states: int, amplitudes: int) -> None:
    """Refuse ``states`` states of ``amplitudes`` each above ``MAX_CIRCUIT_AMPLITUDES`` in all."""
    if states * amplitudes > MAX_CIRCUIT_AMPLITUDES:
        raise SizeError(f"{states} states of {amplitudes} amplitudes exceed the cap of {MAX_CIRCUIT_AMPLITUDES}")


def string_index(codes) -> np.ndarray:
    """Base-4 index of each string in ``codes`` (shape ``(..., n)``), as int64."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes @ 4 ** np.arange(codes.shape[-1] - 1, -1, -1)


def _strings(n: int) -> np.ndarray:
    """Digit table, shape ``(4^n, n)``: row ``k`` holds the site codes of string ``k``."""
    return np.arange(4**n)[:, None] // 4 ** np.arange(n - 1, -1, -1) % 4


NONZERO_PAIRS = _strings(2)[1:].astype(np.uint8)


def walk_ensemble(
    n_sites: int,
    steps: int,
    walkers: int,
    rng: np.random.Generator,
    start: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Evolve many independent walkers; returns final codes, shape (walkers, n)."""
    if n_sites < 2:
        raise InvalidConfigError("chain needs at least 2 sites")
    if steps < 0:
        raise InvalidConfigError("steps must be nonnegative")
    if start is None:
        start = (1,) + (0,) * (n_sites - 1)
    if len(start) != n_sites or not all(code in (0, 1, 2, 3) for code in start):
        raise InvalidConfigError(f"start must hold {n_sites} site codes in 0..3, got {start}")
    codes = np.tile(np.array(start, dtype=np.uint8), (walkers, 1))
    pair_list = np.array(list(itertools.combinations(range(n_sites), 2)))
    for _ in range(steps):
        pick = rng.integers(len(pair_list), size=walkers)
        i = pair_list[pick, 0]
        j = pair_list[pick, 1]
        rows = np.arange(walkers)
        vi = codes[rows, i]
        vj = codes[rows, j]
        active = (vi != 0) | (vj != 0)
        draw = NONZERO_PAIRS[rng.integers(15, size=walkers)]
        codes[rows[active], i[active]] = draw[active, 0]
        codes[rows[active], j[active]] = draw[active, 1]
    return codes


@dataclass(frozen=True)
class WeightChain:
    """Weight-lumped transition matrix on ``{1, .., n}`` with its stationary law."""

    n_sites: int
    transition: np.ndarray = field(repr=False)
    stationary: np.ndarray = field(repr=False)


def lumped_matrix_rational(n: int) -> list[list[Fraction]]:
    """Rows of the weight chain in exact rationals."""
    if n < 2:
        raise InvalidConfigError("need n >= 2")
    if n > MAX_WEIGHT_CHAIN_N:
        raise SizeError(f"weight chain capped at n={MAX_WEIGHT_CHAIN_N}")
    pairs = Fraction(n * (n - 1), 2)
    rows = []
    for w in range(1, n + 1):
        row = [Fraction(0)] * n
        both_zero = Fraction((n - w) * (n - w - 1), 2) / pairs
        one_nonzero = Fraction(w * (n - w)) / pairs
        both_nonzero = Fraction(w * (w - 1), 2) / pairs
        row[w - 1] += both_zero
        # v nonzero sites among the pair are replaced by a new pair of
        # weight u: 6 of 15 outcomes have u = 1, 9 of 15 have u = 2.
        for v, pick in ((1, one_nonzero), (2, both_nonzero)):
            for u, count in ((1, Fraction(6, 15)), (2, Fraction(9, 15))):
                w_new = w - v + u
                if 1 <= w_new <= n:
                    row[w_new - 1] += pick * count
        rows.append(row)
    return rows


@functools.cache
def lumped_matrix(n: int) -> WeightChain:
    """The weight chain, assembled exactly and rounded to floats once; cached, read-only."""
    trans = np.array([[float(q) for q in row] for row in lumped_matrix_rational(n)])
    weights = np.arange(1, n + 1)
    log_binomial = [lgamma(n + 1) - lgamma(w + 1) - lgamma(n - w + 1) for w in range(1, n + 1)]
    log_pi = np.array(log_binomial) + weights * np.log(3.0)
    pi = np.exp(log_pi - log_pi.max())
    pi /= pi.sum()
    trans.flags.writeable = False
    pi.flags.writeable = False
    return WeightChain(n, trans, pi)


def exact_gap(n: int) -> float:
    """Spectral gap ``1 - lambda_2`` of the weight chain.

    Reversibility makes the similarity-transformed matrix symmetric, so the
    spectrum is real and a symmetric eigensolver applies.  At ``n = 2`` both
    rows of the chain coincide, so ``lambda_2 = 0`` and the gap is exactly 1.
    """
    chain = lumped_matrix(n)
    if n == 2:
        return 1.0
    d = np.sqrt(chain.stationary)
    sym = (d[:, None] * chain.transition) / d[None, :]
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))
    return float(1.0 - eigs[-2])


def gap_table(ns) -> list[dict]:
    """Rows ``{n, gap, gap*n, gap*n^2}`` for the requested sizes."""
    rows = []
    for n in ns:
        g = exact_gap(int(n))
        rows.append({"n": int(n), "gap": g, "gap_n": g * n, "gap_n2": g * n * n})
    return rows


# ---------------------------------------------------------------------------
# Full-chain bookkeeping at n <= 4: moment matching against real circuits
# ---------------------------------------------------------------------------


def full_transition_matrix(n: int) -> np.ndarray:
    """Dense ``4^n x 4^n`` chain matrix (row-stochastic), for small ``n``.

    Each step sends every row to one column, so entries add their terms in
    pair order, then in ``NONZERO_PAIRS`` order.
    """
    if n > MAX_FULL_CHAIN_N:
        raise SizeError(f"full chain capped at n={MAX_FULL_CHAIN_N}")
    digits = _strings(n)
    rows = np.arange(4**n)
    pairs = list(itertools.combinations(range(n), 2))
    trans = np.zeros((4**n, 4**n))
    for i, j in pairs:
        idle = (digits[:, i] == 0) & (digits[:, j] == 0)
        trans[rows[idle], rows[idle]] += 1.0 / len(pairs)
        place_i, place_j = 4 ** (n - 1 - i), 4 ** (n - 1 - j)
        moved = rows[~idle]
        cleared = moved - digits[~idle, i] * place_i - digits[~idle, j] * place_j
        for a, b in NONZERO_PAIRS.tolist():
            trans[moved, cleared + a * place_i + b * place_j] += 1.0 / (len(pairs) * 15.0)
    return trans


@functools.cache
def sigma_stack(n: int) -> np.ndarray:
    """All ``4^n`` Pauli-string matrices, stacked by string index; cached, read-only."""
    if n > MAX_FULL_CHAIN_N:
        raise SizeError(f"Pauli bookkeeping capped at n={MAX_FULL_CHAIN_N}")
    # Each site is a new leading string digit and the last kron factor so far;
    # entries multiply old x Pauli, as in np.kron(out, pauli), from a complex 1.
    out = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        side = 2 * out.shape[1]
        out = out[None, :, :, None, :, None] * PAULI_1Q[:, None, None, :, None, :]
        out = out.reshape(-1, side, side)
    out.flags.writeable = False
    return out


def gamma_squared(state: PureState) -> np.ndarray:
    """Squared Pauli coefficients of a pure state, over all ``4^n`` strings."""
    n = state.n_qubits
    psi = state.amplitudes
    coeffs = np.einsum("i,pij,j->p", psi.conj(), sigma_stack(n), psi) * 2 ** (-n / 2)
    return np.abs(coeffs) ** 2


def initial_gamma_squared(n: int) -> np.ndarray:
    """Squared Pauli coefficients of any computational basis state.

    Mass ``2^-n`` on each of the ``2^n`` diagonal strings (codes 0 and 1),
    zero elsewhere.
    """
    return np.where((_strings(n) <= 1).all(axis=1), 2.0**-n, 0.0)


def moment_compare(
    n: int,
    steps: int,
    circuits: int,
    rng: np.random.Generator,
) -> dict:
    """Total-variation gap between circuit-averaged and chain-evolved moments.

    The left side applies ``circuits`` independent random gate sequences of
    length ``steps`` to ``|0>`` and averages the squared Pauli coefficients;
    the right side evolves the basis state's coefficient distribution with
    the exact chain matrix.  Matching expectations make the gap pure Monte
    Carlo error.  ``tv_cap`` bounds that error at three standard errors of
    each averaged coefficient, summed over the ``4^n`` strings and halved as
    TV halves (plus 1e-12 for rounding, which is all there is at t = 0).
    """
    if n > MAX_FULL_CHAIN_N:
        raise SizeError(f"moment comparison capped at n={MAX_FULL_CHAIN_N}")
    if steps > MAX_MOMENT_STEPS:
        raise InvalidConfigError(f"step count capped at {MAX_MOMENT_STEPS}")
    if circuits < 1:
        raise InvalidConfigError(f"need at least one circuit, got {circuits}")
    check_amplitudes(circuits, 2**n)
    # Every circuit draws from the one stream: block by block, circuit by circuit.
    starts = np.tile(basis_vector(n, 0), (circuits, 1))
    states = run_pair_circuits(starts, n, steps, [rng] * circuits)
    acc, acc_sq = np.zeros(4**n), np.zeros(4**n)
    for vec in states:
        gamma = gamma_squared(PureState(n, vec))
        acc += gamma
        acc_sq += gamma * gamma
    lhs = acc / circuits
    stderr = np.sqrt(np.maximum(acc_sq / circuits - lhs * lhs, 0.0) / circuits)
    chain = full_transition_matrix(n)
    rhs = initial_gamma_squared(n)
    for _ in range(steps):
        rhs = rhs @ chain
    tv = 0.5 * float(np.sum(np.abs(lhs - rhs)))
    return {
        "n": n,
        "t": steps,
        "circuits": circuits,
        "tv_distance": tv,
        "tv_cap": 1.5 * float(np.sum(stderr)) + 1e-12,
        "lhs_mass": float(lhs.sum()),
        "rhs_mass": float(rhs.sum()),
    }


# ---------------------------------------------------------------------------
# Two-copy gate average and collision statistics
# ---------------------------------------------------------------------------


def _transfer_complex(gates: np.ndarray) -> np.ndarray:
    """``tr(sigma_p W sigma_q W^dag)/4`` on two sites, before dropping the imaginary part.

    ``gates`` is one 4x4 gate or a stack of them; the result has the same
    leading axes.  In row-major vectorisation ``W X W^dag`` is
    ``kron(W, conj W) vec(X)`` and ``tr(sigma_p Y)`` is
    ``vec(sigma_p^T) . vec(Y)``, so the matrix is ``T kron(W, conj W) S / 4``
    with rows ``vec(sigma_p^T)`` in ``T`` and columns ``vec(sigma_q)`` in ``S``.
    """
    sigmas = sigma_stack(2)
    rows = sigmas.transpose(0, 2, 1).reshape(16, 16)  # T
    cols = sigmas.reshape(16, 16).T  # S
    doubled = np.einsum("...ij,...kl->...ikjl", gates, gates.conj()).reshape(-1, 16)
    # Two GEMMs over the whole stack rather than one small product per gate.
    right = (doubled @ cols).reshape(-1, 16, 16)
    left = np.tensordot(rows, right, (1, 1))  # axes (p, gate, q)
    return np.moveaxis(left, 0, 1).reshape(gates.shape[:-2] + (16, 16)) / 4.0


# The index of ``(p, p)`` among the 16 x 16 pairs of two-site strings.
_DOUBLED = 17 * np.arange(16)


def two_copy_target() -> np.ndarray:
    """The exact gate average of the doubled transfer matrix.

    Rank-two projector: the identity string's corner plus the maximally
    correlated combination of the 15 nonzero strings.
    """
    corner = np.zeros(256)
    corner[_DOUBLED[0]] = 1.0
    xi = np.zeros(256)
    xi[_DOUBLED[1:]] = 1.0
    xi /= np.sqrt(15.0)
    return np.outer(corner, corner) + np.outer(xi, xi)


# Haar draws per batched step of ``two_copy_chunk``; its transient arrays
# then take about 1 MiB.
TWO_COPY_BLOCK = 50


def two_copy_chunk(samples: int, rng: np.random.Generator) -> dict:
    """Running sums for the two-copy average over ``samples`` Haar draws, in one pass.

    The draws are made in blocks of ``TWO_COPY_BLOCK``, in the order of one
    gate at a time.  Per block, ``sum kron(ad, ad)`` is one GEMM of the
    flattened transfer matrices: entry ``[(p, q), (r, s)]`` of
    ``flat.T @ flat`` is ``sum ad[p, q] ad[r, s]``, which is kron entry
    ``[(p, r), (q, s)]``.  At least one draw is needed.
    """
    if samples < 1:
        raise InvalidConfigError(f"need at least one sample, got {samples}")
    acc = np.zeros((256, 256))
    # A view of acc with axes (p, q, r, s), the layout of flat.T @ flat.
    acc_pqrs = acc.reshape(16, 16, 16, 16).transpose(0, 2, 1, 3)
    max_orth = 0.0
    max_imag = 0.0
    max_corner = 0.0
    e0 = np.eye(16)[0]
    for start in range(0, samples, TWO_COPY_BLOCK):
        gates = sample_haar_stack(rng, min(TWO_COPY_BLOCK, samples - start))
        ad_complex = _transfer_complex(gates)
        max_imag = max(max_imag, float(np.abs(ad_complex.imag).max()))
        ad = ad_complex.real
        max_orth = max(max_orth, unitarity_defect(ad))
        max_corner = max(
            max_corner, float(np.abs(ad[:, 0] - e0).max()), float(np.abs(ad[:, :, 0] - e0).max())
        )
        flat = ad.reshape(len(ad), 256)
        acc_pqrs += (flat.T @ flat).reshape(16, 16, 16, 16)
    return {
        "samples": samples,
        "acc": acc,
        "max_orth": max_orth,
        "max_imag": max_imag,
        "max_corner": max_corner,
    }


def two_copy_finalize(sums: dict) -> dict:
    """The distance report from the running sums of one ``two_copy_chunk`` pass.

    Frobenius distances of the mean ``kron(ad_W, ad_W)`` to the rank-two
    target, plus worst-case orthogonality, reality and corner defects of the
    sampled transfer matrices.  Two distances are reported.
    ``frobenius_distance_full`` covers the whole 256x256 mean; a single sample
    has Frobenius norm exactly 16, so this distance concentrates at
    ``sqrt(254 / samples)`` no matter how the gates are drawn.
    ``frobenius_distance_moment_rows`` restricts to the 16 doubled-bra rows
    ``<pp|``, which are the only rows the squared Pauli coefficient evolution
    reads; there a sample row block has norm 1 and the distance concentrates
    at ``sqrt(14 / samples)``.
    """
    mean = sums["acc"] / sums["samples"]
    target = two_copy_target()
    return {
        "samples": sums["samples"],
        "frobenius_distance_full": _frobenius(mean - target),
        "frobenius_distance_moment_rows": _frobenius(mean[_DOUBLED] - target[_DOUBLED]),
        "max_orthogonality_defect": sums["max_orth"],
        "max_imag_part": sums["max_imag"],
        "max_corner_defect": sums["max_corner"],
    }


def _frobenius(diff: np.ndarray) -> float:
    # Not np.linalg.norm: its BLAS dot rounds differently with the BLAS thread count.
    return float(np.sqrt(np.sum(np.square(diff))))


def collision_statistics(n: int, steps: int, rngs, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Collision probability and L1 norm of random circuit states, one circuit per stream.

    Circuit ``c`` starts from ``|inputs[c]>`` and draws its ``steps`` pairs
    and gates from ``rngs[c]`` in the block layout of ``run_pair_circuits``:
    per block of ``PAIR_STEPS`` steps, all its pair indices, then all its
    gates.  So a circuit's result depends only on its own stream, not on the
    other circuits or on how many there are.  All circuits step together.
    Returns the arrays ``sum_x |amp(x)|^4`` and ``sum_x |amp(x)|``.  An input
    that is not an integer in ``[0, 2^n)`` is a ``LabelError``, before any draw.
    """
    if n > MAX_COLLISION_N:
        raise SizeError(f"collision statistics capped at n={MAX_COLLISION_N}")
    check_amplitudes(len(inputs), 2**n)
    inputs = _checked_labels(inputs, 2**n)
    states = np.zeros((len(inputs), 2**n), dtype=complex)
    states[np.arange(len(inputs)), inputs] = 1.0
    probs = np.abs(run_pair_circuits(states, n, steps, rngs)) ** 2
    return np.sum(probs**2, axis=1), np.sum(np.sqrt(probs), axis=1)


def circuit_collision_sample(
    n: int, steps: int, rng: np.random.Generator, a: int = 0
) -> tuple[float, float]:
    """One random circuit applied to ``|a>``: its collision and L1 statistics."""
    q, l1 = collision_statistics(n, steps, [rng], [a])
    return float(q[0]), float(l1[0])
