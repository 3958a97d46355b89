"""L1 dispersion of circuit columns and the fourth-moment machinery.

A unitary ``U`` on n qubits disperses a basis label ``a`` when the L1 norm
of row ``a`` of ``U`` is large; the certificate enumerates every label and
collects those meeting ``beta * 2^(n/2)``.  For block-structured unitaries
(group Fourier transforms) the same question is asked after appending an
ancilla vector inside the label's block; a randomized search over that
block's subspace records the achieved L1 values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidConfigError, LabelError
from .simcore import FourierMatrix, rows_per_block


@dataclass(frozen=True)
class DispersionReport:
    """Per-label L1 norms and the set of labels meeting the threshold."""

    n_qubits: int
    beta: float
    per_label_l1: np.ndarray = field(repr=False)
    achieving_set: tuple[int, ...]
    alpha_achieved: float


@dataclass(frozen=True)
class PseudoDispersionReport:
    """Sampled L1 values for one output block of a group Fourier matrix."""

    label: tuple[str, int]
    samples: int
    l1_values: np.ndarray = field(repr=False)
    best_psi: np.ndarray = field(repr=False)
    bound: float

    @property
    def best_value(self) -> float:
        return float(np.max(self.l1_values))

    @property
    def mean_value(self) -> float:
        return float(np.mean(self.l1_values))

    def standard_error(self) -> float:
        if self.samples < 2:
            return 0.0
        return float(np.std(self.l1_values, ddof=1) / np.sqrt(self.samples))


def certify_dispersing(action, beta: float) -> DispersionReport:
    """Enumerate all ``2^n`` labels and certify the dispersion threshold.

    Label ``a``'s L1 norm is that of row ``a`` of ``U``.  The action's
    ``rows`` hands over one block of labels at a time, in its own dtype, and
    each row is summed along its contiguous axis, as a lone row would be.
    A label achieves when its L1 is at least ``beta * 2^(n/2)`` up to a
    slack of ``2^n * eps * beta * 2^(n/2)``: the norm adds ``2^n`` moduli,
    each rounded, so its rounding grows with ``2^n``, and a flat row must
    not miss the threshold by a few ulps per term.
    """
    if not 0 < beta <= 1:
        raise InvalidConfigError("beta must lie in (0, 1]")
    n = action.n_qubits
    dim = 2**n
    step = rows_per_block(n)
    l1 = np.empty(dim)
    for start in range(0, dim, step):
        labels = range(start, min(start + step, dim))
        l1[start : start + len(labels)] = np.abs(action.rows(labels)).sum(axis=1)
    threshold = beta * 2 ** (n / 2)
    slack = dim * np.finfo(float).eps * threshold
    achieving = tuple(int(a) for a in np.nonzero(l1 >= threshold - slack)[0])
    alpha = float(np.log2(len(achieving)) / n) if achieving else 0.0
    return DispersionReport(n, beta, l1, achieving, alpha)


def pseudo_search(
    fourier: FourierMatrix,
    label: tuple[str, int],
    samples: int,
    rng: np.random.Generator,
) -> PseudoDispersionReport:
    """Sample ancilla vectors inside one output block and record L1 norms.

    For block ``(rep, i)`` of the Fourier matrix, the candidate vectors live
    in ``V = span{ U^dag |rep, i, j> : j = 1..d }``.  Each sample draws
    ``psi`` uniformly from the unit sphere of ``V`` (i.i.d. complex Gaussian
    coefficients, normalized) and records ``sum_g |<g|psi>|``.  The rows of a
    unitary are orthonormal, so Gaussian coefficients over the block rows
    give exactly the uniform sphere measure on ``V``.
    """
    if samples < 1:
        raise InvalidConfigError("need at least one sample")
    rows = fourier.rows_for_block(*label)
    if not rows:
        raise LabelError(f"no block {label} in Fourier matrix")
    order = len(fourier.matrix)
    # <g | U^dag |row> = conj(U[row, g]).
    block = fourier.rows(rows).conj()  # (d, |G|)
    d = len(rows)
    coeff = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    vectors = coeff @ block  # (samples, |G|)
    l1_values = np.sum(np.abs(vectors), axis=1)
    best = int(np.argmax(l1_values))
    return PseudoDispersionReport(
        label=label,
        samples=samples,
        l1_values=l1_values,
        best_psi=coeff[best].copy(),
        bound=float(np.sqrt(order / 2.0)),
    )


def fourth_moment_check(values) -> tuple[float, float, bool]:
    """Check ``E|Y| >= (E Y^2)^(3/2) / (E Y^4)^(1/2)`` on an empirical sample.

    Returns ``(lhs, rhs, passed)``.  The inequality holds for every true
    distribution, so the empirical version may only fail by rounding; the
    pass flag allows 1e-12.
    """
    y = np.asarray(values, dtype=float).ravel()
    if y.size == 0 or not np.any(y != 0):
        raise DegenerateInputError("fourth-moment check needs a nonzero sample")
    lhs = float(np.mean(np.abs(y)))
    m2 = float(np.mean(y**2))
    m4 = float(np.mean(y**4))
    rhs = m2**1.5 / np.sqrt(m4)
    return lhs, rhs, lhs >= rhs - 1e-12

