"""The single-level oracle identification game.

A hidden label ``a`` is presented through a binary oracle ``f(a, .)``.  The
compiler turns row ``a`` of a unitary (optionally contracted against an
ancilla vector inside the label's measurement block) into a sign pattern via
:mod:`oraclelab.signs`; querying the oracle once in superposition prepares
the signed uniform state, and applying the unitary concentrates probability
on ``a``.  The compiled table guarantees a success probability of at least
``(2 beta / pi)^2`` where ``beta`` is the row's L1 norm over ``2^(n/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, LabelError, SizeError
from .signs import TWO_OVER_PI, compile_rows
from .simcore import (
    MAX_DENSE_QUBITS,
    PureState,
    densify,
    hadamard_all,
    qft_cyclic,
    rows_per_block,
    run_random_circuit,
)
from .simcore.circuits import _checked_labels

# The named unitaries the game is played on.
UNITARIES = ("hadamard", "qft", "random")


@dataclass(frozen=True)
class LabelSpec:
    """One identifiable label: its id, measurement rows, optional ancilla."""

    ident: int | tuple[str, int]
    rows: tuple[int, ...]
    psi: np.ndarray | None = None


@dataclass(frozen=True)
class SingleLevelOracle:
    """Compiled oracle family: one bit-vector of ``f(a, x)`` per label.

    ``betas[k]`` is the achieved L1 over ``2^(n/2)`` for label ``k``, and
    ``unitary`` is the action whose rows were compiled; :func:`identify`
    measures with it.
    """

    n_qubits: int
    labels: tuple[LabelSpec, ...]
    f_bits: np.ndarray = field(repr=False)  # (len(labels), 2^n) uint8
    betas: np.ndarray = field(repr=False)
    unitary: object = field(repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) == 0:
            raise InvalidConfigError("oracle needs at least one label")
        if self.unitary.n_qubits != self.n_qubits:
            raise InvalidConfigError(
                f"unitary acts on {self.unitary.n_qubits} qubits, the oracle on {self.n_qubits}"
            )
        if self.f_bits.shape != (len(self.labels), 2**self.n_qubits):
            raise InvalidConfigError("f_bits shape mismatch")
        p = self.predicted_success
        if not np.all((p > 0) & (p <= 1)):  # NaN fails both comparisons
            raise InvalidConfigError("predicted success must lie in (0, 1]")

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def predicted_success(self) -> np.ndarray:
        """The compiled guarantee ``(2 betas[k] / pi)^2`` for each label."""
        return (TWO_OVER_PI * self.betas) ** 2

    def f(self, label_index: int, x: int) -> int:
        return int(self.f_bits[label_index, x])

    def signs(self, label_index) -> np.ndarray:
        """The oracle's phases ``theta_x = (-1)^f(a, x) = 1 - 2 f(a, x)`` for one label.

        An array of label indices gives one row of phases per entry.
        """
        return 1.0 - 2.0 * self.f_bits[label_index].astype(float)


def build_unitary(kind: str, n: int, t: int | None = None, seed: int | None = None):
    """The action of a named unitary on ``n`` qubits.

    ``hadamard`` is H on every qubit, ``qft`` the cyclic Fourier matrix of
    order ``2^n`` and ``random`` the dense matrix of the seeded length-``t``
    random circuit.  The dense kinds are refused above ``MAX_DENSE_QUBITS``
    before anything is built.
    """
    if kind not in UNITARIES:
        raise InvalidConfigError(f"unknown unitary kind {kind!r}")
    if kind == "hadamard":
        return hadamard_all(n)
    if n > MAX_DENSE_QUBITS:
        raise SizeError(f"dense {kind} unitaries capped at n={MAX_DENSE_QUBITS}")
    if kind == "qft":
        return qft_cyclic(2**n)
    if t is None or seed is None:
        raise InvalidConfigError(f"a random unitary needs {'t' if t is None else 'seed'}")
    return densify(run_random_circuit(n, t, seed))


def _label_spec(unitary, ident, psi: dict) -> LabelSpec:
    """The measurement rows of one label: a basis row, or a block with its ancilla."""
    if isinstance(ident, (int, np.integer)):
        return LabelSpec(int(ident), (int(ident),))
    ident = tuple(ident)
    blocks = getattr(unitary, "rows_for_block", None)
    rows = tuple(blocks(*ident)) if blocks else ()
    if not rows:
        raise LabelError(f"no block {ident} in the unitary")
    if ident in psi:
        vec = np.asarray(psi[ident], dtype=complex)
        vec = vec / np.linalg.norm(vec)
    elif len(rows) == 1:
        vec = np.ones(1, dtype=complex)
    else:
        raise InvalidConfigError(f"label {ident} has block dimension {len(rows)}; supply psi")
    return LabelSpec(ident, rows, vec)


def _row_blocks(unitary, specs):
    """``(start, stop, rows)``: the rows of U of each run of consecutive specs, read by one
    ``rows`` call.  A run holds at most ``rows_per_block(n)`` rows, or one spec with more."""
    limit = rows_per_block(unitary.n_qubits)
    starts, held = [], limit
    for k, spec in enumerate(specs):
        if held + len(spec.rows) > limit:
            starts.append(k)
            held = 0
        held += len(spec.rows)
    for start, stop in zip(starts, [*starts[1:], len(specs)]):
        yield start, stop, unitary.rows([r for spec in specs[start:stop] for r in spec.rows])


def build_oracle(unitary, labels, psi: dict | None = None) -> SingleLevelOracle:
    """Compile an oracle family from a unitary action on n qubits and a list of labels.

    The label decides its measurement rows.  A basis index ``a`` is the row
    ``(a,)``: all n output bits are measured.  An ``(irrep, i)`` pair is that
    block of a :class:`~oraclelab.simcore.FourierMatrix`, and ``psi`` may map
    it to ancilla coefficients over the block; blocks of dimension one default
    to the trivial ancilla.

    For each label the compiled bits are ``f(a, x) = (1 - theta_x) / 2``
    where ``theta`` is the sign pattern maximizing the retained L1 mass of
    the label's row.  The global sign of ``theta`` is not fixed by the
    construction; either choice satisfies the success bound.  Labels are
    compiled a block at a time: one ``rows`` call reads the rows of
    every label in the block, and :func:`~oraclelab.signs.compile_rows`
    compiles them together.
    """
    labels = list(labels)
    if not labels:
        raise InvalidConfigError("empty label list")
    n = unitary.n_qubits
    specs = [_label_spec(unitary, ident, psi or {}) for ident in labels]
    outside = [s.ident for s in specs if s.psi is None and not 0 <= s.ident < 2**n]
    if outside:
        raise LabelError(f"labels {outside} outside the basis [0, 2^{n})")

    f_bits = np.zeros((len(specs), 2**n), dtype=np.uint8)
    betas = np.zeros(len(specs))
    for start, stop, rows in _row_blocks(unitary, specs):
        block = specs[start:stop]
        # A block's row is c_x = <a| <psi| U |x>.  One block of labels' rows is held at a time.
        if any(spec.psi is not None for spec in block):
            parts = np.split(rows, np.cumsum([len(spec.rows) for spec in block[:-1]]))
            rows = np.array(
                [part[0] if spec.psi is None else spec.psi.conj() @ part
                 for spec, part in zip(block, parts)]
            )
        theta, l1 = compile_rows(rows)
        f_bits[start:stop] = (1 - theta) // 2
        betas[start:stop] = l1 / 2 ** (n / 2)
    return SingleLevelOracle(
        n_qubits=n, labels=tuple(specs), f_bits=f_bits, betas=betas, unitary=unitary
    )


def prepare_phi(oracle: SingleLevelOracle, label_index: int) -> PureState:
    """The signed uniform state with amplitudes ``+-2^(-n/2)`` matching ``f``.

    One oracle sweep in superposition; query accounting charges it as a
    single query.
    """
    index = _checked_labels(label_index, oracle.n_labels)
    dim = 2**oracle.n_qubits
    return PureState(oracle.n_qubits, oracle.signs(index) / np.sqrt(dim))


def identify(oracle: SingleLevelOracle, label_indices) -> np.ndarray:
    """Exact probability that one query identifies each label in ``label_indices``, in its shape.

    ``U |phi_a>``, with U the oracle's own unitary, is measured on the label's output rows
    ``r``: with the oracle's signs ``theta``, ``sum_r |U_r . theta|^2 / 2^n`` clipped at 1,
    read a block of labels at a time.
    """
    index = _checked_labels(label_indices, oracle.n_labels)
    flat = index.ravel()
    specs = [oracle.labels[k] for k in flat.tolist()]
    success = np.empty(len(specs))
    for start, stop, rows in _row_blocks(oracle.unitary, specs):
        counts = [len(spec.rows) for spec in specs[start:stop]]
        theta = np.repeat(oracle.signs(flat[start:stop]), counts, axis=0)
        per_row = np.abs(np.einsum("ij,ij->i", rows, theta)) ** 2 / 2**oracle.n_qubits
        success[start:stop] = np.add.reduceat(per_row, np.cumsum([0, *counts[:-1]]))
    return np.minimum(success, 1.0).reshape(index.shape)


def classical_guess_bound(q: int, alpha_n: float) -> float:
    """Upper bound ``2^(q - alpha_n)`` on classical success after ``q`` bits."""
    if q < 0:
        raise InvalidConfigError("q must be nonnegative")
    return float(2.0 ** (q - alpha_n))


def simulate_bisection_strategy(
    alpha_n: int, q: int, trials: int, rng: np.random.Generator
) -> float:
    """Empirical win rate of the best bit-per-query classical strategy.

    The hidden label is uniform over ``2^alpha_n`` candidates; each query
    answers one bit that halves the candidate set, and the final guess is
    uniform over what remains.  Returns the fraction of wins over ``trials``.
    """
    n_labels = 2**alpha_n
    remaining = max(1, n_labels >> min(q, alpha_n))
    wins = rng.random(trials) < (1.0 / remaining)
    return float(np.mean(wins))
