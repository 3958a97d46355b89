"""Compile a complex vector into a +-1 sign pattern that keeps most of its L1 mass.

For any nonzero ``x in C^d`` there is a sign vector ``theta in {+-1}^d`` with
``|sum_k theta_k x_k| >= (2/pi) * sum_k |x_k|``: the witness maximizes
``g(phi) = sum_k |Re(exp(i phi) x_k)|``, whose average over ``phi`` is
``(2/pi) sum|x_k|``.  Since ``max_phi g = max_theta |sum_k theta_k x_k|``, one
sorted sweep finds it exactly, in O(d log d) with no grid or tolerance knob.
Term ``k`` changes sign at its breakpoint ``mod(pi/2 - arg x_k, pi)``, so
crossing the breakpoints in sorted order flips one sign at a time, and one
cumulative sum gives the partial sum ``z`` of every interval's signs.  The
largest ``|z|`` is the maximum; duplicate phases need no merging, and ties go
to the first interval in sweep order.

Real rows (every imaginary part zero, such as the rows of Hadamard
transforms) skip the sweep: all their breakpoints sit at ``pi/2``, so
``g(phi) = |cos phi| sum|x_k|`` peaks at ``phi = 0`` and ``theta = sign(x)``,
with zeros mapped to +1.  That is the sweep's own answer, field for field,
in O(d).  :func:`compile_rows` applies that rule to a whole stack of real
rows at once and sweeps its complex rows one by one, keeping only their signs.

Every entry must be finite: a NaN or an infinity has no sign to keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, SizeError

BRUTE_FORCE_MAX_D = 20
TWO_OVER_PI = 2.0 / np.pi


@dataclass(frozen=True)
class SignSolution:
    """Best phase, resulting sign pattern, and the value it achieves."""

    phi_star: float
    theta: tuple[int, ...]
    value: float
    l1: float

    @property
    def ratio(self) -> float:
        return self.value / self.l1


def _checked(rows: np.ndarray) -> np.ndarray:
    """``rows`` (a row, or rows along the last axis), refused unless each is nonzero and finite."""
    if rows.shape[-1] == 0 or not np.all(np.any(rows != 0, axis=-1)):
        raise DegenerateInputError("sign compilation needs a nonzero vector")
    if not np.all(np.isfinite(rows)):
        raise DegenerateInputError("sign compilation needs finite entries")
    return rows


def _real_signs(rows: np.ndarray) -> np.ndarray:
    """The real-row rule, entry by entry: ``theta = sign(x)`` with exact zeros mapped to +1."""
    return np.where(rows.real >= 0.0, 1, -1)


def _l1(rows: np.ndarray) -> np.ndarray:
    """Each row's L1 norm, summed along its contiguous last axis."""
    return np.abs(rows).sum(axis=-1)


def _signs_at(x: np.ndarray, phi: float) -> np.ndarray:
    """Signs of Re(exp(i phi) x_k); exact zeros resolve to +1 for determinism."""
    re = np.real(np.exp(1j * phi) * x)
    theta = np.where(re >= 0.0, 1, -1)
    return theta


def best_phase_signs(x) -> SignSolution:
    """Exactly maximize ``g(phi) = sum |Re(exp(i phi) x_k)|`` and read off signs.

    Returns the maximizing phase ``phi_star`` in ``[0, pi)`` (g has period
    pi; the complementary half of the circle flips every sign globally and
    leaves the achieved value unchanged), the sign vector
    ``theta_k = sign(Re(exp(i phi_star) x_k))`` with exact zeros mapped to
    +1, and ``value = |sum_k theta_k x_k|``, which is at least ``g(phi_star)``.
    """
    xv = _checked(np.asarray(x, dtype=complex).ravel())
    if np.any(xv.imag):
        return _sweep(xv)
    return _solution(xv, 0.0, _real_signs(xv))


def compile_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """:func:`best_phase_signs` on each row of a ``(k, d)`` stack: its signs and its L1 norm.

    Returns the ``(k, d)`` array of ``theta`` and the ``k`` L1 norms, equal
    bit for bit to the ``theta`` and ``l1`` of the row-by-row calls.  The
    stack is read in its own dtype: a real stack takes the short path
    whole; in a complex stack each row with an imaginary part is swept alone.
    """
    rows = _checked(np.asarray(rows))
    theta = _real_signs(rows)
    if np.iscomplexobj(rows):
        for k in np.flatnonzero(np.any(rows.imag, axis=1)):
            row = rows[k].astype(complex, copy=False)
            theta[k] = _signs_at(row, _phase(row))
    return theta, _l1(rows)


def _sweep(xv: np.ndarray) -> SignSolution:
    """The sorted sweep over the breakpoints of a nonzero complex vector."""
    phi_star = _phase(xv)
    return _solution(xv, phi_star, _signs_at(xv, phi_star))


def _phase(xv: np.ndarray) -> float:
    """The sweep's maximizing phase ``phi_star`` in ``[0, pi)`` of a nonzero complex vector."""
    nonzero = xv[xv != 0]
    breaks = np.mod(np.pi / 2 - np.angle(nonzero), np.pi)
    order = np.argsort(breaks, kind="stable")
    swept = nonzero[order]
    # Signs on the interval that wraps from the last breakpoint to the first.
    # Each term keeps its sign there from a quarter turn before its own
    # breakpoint, where it is farthest from zero, so no rounding can flip it.
    terms = _signs_at(swept, breaks[order] - np.pi / 2) * swept
    z0 = np.sum(terms)
    z = np.concatenate(([z0], z0 - 2.0 * np.cumsum(terms)))
    best = z[np.argmax(np.abs(z))]
    phi_star = float(np.mod(-np.angle(best), np.pi))
    if phi_star >= np.pi:  # a critical phase just below 0 rounds up to pi
        phi_star = 0.0
    return phi_star


def _solution(xv: np.ndarray, phi_star: float, theta: np.ndarray) -> SignSolution:
    value = float(np.abs(np.sum(theta * xv)))
    return SignSolution(phi_star, tuple(theta.tolist()), value, float(_l1(xv)))


def brute_force_signs(x) -> tuple[tuple[int, ...], float]:
    """Exact maximum of ``|sum theta_k x_k|`` over all ``2^d`` sign vectors.

    Ties resolve to the lexicographically smallest theta with +1 < -1.
    Only a validation oracle: cost is exponential in ``d``.
    """
    xv = np.asarray(x, dtype=complex).ravel()
    d = xv.size
    if d > BRUTE_FORCE_MAX_D:
        raise SizeError(f"brute force capped at d={BRUTE_FORCE_MAX_D}, got {d}")
    if d == 0:
        raise DegenerateInputError("empty vector")
    # Enumerate partial sums so index bit (d-1-k) encodes theta_k (0 -> +1);
    # ascending index order is then lexicographic order on theta.
    sums = np.zeros(1, dtype=complex)
    for k in range(d):
        sums = np.stack([sums + xv[k], sums - xv[k]], axis=1).reshape(-1)
    values = np.abs(sums)
    best = int(np.argmax(values))  # first occurrence wins: lexicographic tie-break
    theta = tuple(1 if not (best >> (d - 1 - k)) & 1 else -1 for k in range(d))
    return theta, float(values[best])
