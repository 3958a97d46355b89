"""Haar-random two-qubit gates, random circuits, and unitary actions.

Adjoint convention, fixed package-wide: running a sampled circuit forward
(applying its gates in sampled order) realizes the operator we call
``U^dag``.  The unitary ``U`` whose rows downstream modules compile into
oracles is therefore the adjoint of the sampled gate sequence: applying
``U`` means applying the sampled gates' adjoints in reverse order.  Only
this convention is used anywhere; it makes the forward run of the circuit
on basis state ``a`` the conjugate of row ``a`` of U.

Every unitary action has two members: ``n_qubits`` and ``rows(labels)``,
the ``(len(labels), 2^n)`` stack of rows ``a`` of ``U`` in the action's own
dtype: real for :class:`HadamardAll`, complex for :class:`MatrixUnitary`.
A single row is ``rows([a])[0]``; a label outside the register is refused.
Readers of many rows ask for them a block of :func:`rows_per_block` labels
at a time.  A :class:`RandomCircuit` is run, not read: it hands over no
rows, and :func:`densify` makes it a :class:`MatrixUnitary`.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidConfigError, InvalidPlacementError, LabelError, SizeError
from .blas import PROCESS_THREADS, blas_threads
from .rng import stream
from .states import UNITARY_TOL, TwoQubitGate, _sylvester, unitarity_defect

MAX_QUBITS = 14
# A dense 2^12 x 2^12 complex matrix takes 256 MiB.
MAX_DENSE_QUBITS = 12
# Circuits fuse their gates into blocks of at most FUSED_WIDTH qubits when the state
# holds at least FUSE_MIN_AMPLITUDES amplitudes; narrower states run gate by gate,
# because building a block costs about 4^width amplitudes of work per gate.  Both
# values were measured on 2 vCPUs with OpenBLAS; CHANGES.md records the timings.
FUSED_WIDTH = 5
FUSE_MIN_AMPLITUDES = 2**14
# A fused run on a state, and the unitarity check of a dense matrix, of at least
# WIDE_AMPLITUDES amplitudes use the process's BLAS threads; experiments otherwise run
# on one thread.  Measured on 2 vCPUs with OpenBLAS, one t = 4n^3 densify: at n = 8
# (2^16 amplitudes) a second thread cut 0.18 s to 0.15 s, but its idle worker then
# spun through the single-threaded work that followed; at n = 9 it cut 1.17 s to
# 0.82 s.  CHANGES.md records the sweeps.
WIDE_AMPLITUDES = 2**17
# A block of rows read through ``rows`` holds at most this many amplitudes
# (256 KiB complex), so that reading rows by blocks adds no more than that to memory.
ROW_BLOCK_AMPLITUDES = 2**14
# ``run_pair_circuits`` draws its circuits' gates PAIR_STEPS steps at a time: this
# constant is part of the draw layout, and changing it changes every draw.  One
# block's draws hold at most PAIR_GATE_BUDGET gates; more circuits run in chunks.
PAIR_STEPS = 32
PAIR_GATE_BUDGET = 2**12


def _wide_threads(amplitudes: int):
    """The process's BLAS thread count for work on ``WIDE_AMPLITUDES`` amplitudes or more;
    below that, the count is left as it is."""
    return blas_threads(PROCESS_THREADS) if amplitudes >= WIDE_AMPLITUDES else contextlib.nullcontext()


def rows_per_block(n_qubits: int) -> int:
    """How many rows of ``2^n_qubits`` amplitudes one block holds: at least one."""
    return max(1, ROW_BLOCK_AMPLITUDES >> n_qubits)


def _haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """Haar-distributed 4x4 unitaries from a ``(k, 2, 4, 4)`` stack of standard normals.

    Gate ``g`` is made from the complex Gaussian matrix
    ``normals[g, 0] + 1j * normals[g, 1]``.  One QR factorizes the whole
    stack; each column of Q is then multiplied by the unit phase that makes
    the corresponding diagonal entry of R real-positive (Mezzadri's fix,
    arXiv:math-ph/0609050).  Without the phase fix the QR convention would
    bias the distribution away from Haar.  One unitarity check covers the
    stack; a degenerate R (probability zero) fails it through its NaN phases.
    """
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, None, :]
    defect = unitarity_defect(q)
    if not defect <= UNITARY_TOL:  # pragma: no cover - probability zero
        raise ValueError(f"Haar draw is not unitary: defect {defect:.3e}")
    return q


def sample_haar_stack(rng: np.random.Generator, k: int) -> np.ndarray:
    """Draw ``k`` Haar 4x4 unitaries as a ``(k, 4, 4)`` stack.

    Each gate takes 32 normals from ``rng``: its 16 real parts, then its 16
    imaginary parts.  Gate ``g`` is therefore the ``g``-th of ``k`` successive
    :func:`sample_haar_two_qubit` draws, bit for bit.
    """
    return _haar_unitaries(rng.standard_normal((k, 2, 4, 4)))


def sample_haar_two_qubit(rng: np.random.Generator) -> TwoQubitGate:
    """Draw one Haar-distributed 4x4 unitary."""
    return TwoQubitGate(sample_haar_stack(rng, 1)[0])


@dataclass(frozen=True)
class RandomCircuit:
    """A length-``t`` sequence of Haar gates on uniformly random qubit pairs.

    Gate ``k`` is ``gates[k]`` on qubits ``pairs[k]``; both arrays are
    read-only.  Running the gates in order realizes ``U^dag``;
    :func:`action_matrix` runs their adjoints in reverse order, which is
    ``U``, and the rows of ``U`` are read through :func:`densify`.
    Regeneration from ``(n_qubits, length, seed)`` is bit-identical.
    """

    n_qubits: int
    length: int
    seed: int
    pairs: np.ndarray = field(repr=False)
    gates: np.ndarray = field(repr=False)

    def __post_init__(self):
        pairs, gates = np.array(self.pairs, dtype=np.intp), np.array(self.gates, dtype=complex)
        if pairs.shape != (self.length, 2) or gates.shape != (self.length, 4, 4):
            raise ValueError(f"need (t, 2) pairs and (t, 4, 4) gates for t={self.length}")
        _checked_supports(pairs, self.n_qubits)
        for name, array in (("pairs", pairs), ("gates", gates)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def placements(self) -> tuple[tuple[int, int, TwoQubitGate], ...]:
        """The gates as ``(i, j, TwoQubitGate)`` triples, built on each call."""
        return tuple((i, j, TwoQubitGate(g)) for (i, j), g in zip(self.pairs.tolist(), self.gates))


def _checked_supports(supports, n_qubits: int) -> np.ndarray:
    """``supports`` as a ``(t, width)`` array, refused if a row repeats a qubit or leaves [0, n)."""
    supports = np.asarray(supports, dtype=np.intp)
    if supports.size == 0:  # no gates, whatever their width
        supports = supports.reshape(0, 2)
    ordered = np.sort(supports, axis=1)
    bad = (ordered[:, 0] < 0) | (ordered[:, -1] >= n_qubits)
    bad |= (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        qubits = tuple(supports[k].tolist())
        raise InvalidPlacementError(f"invalid qubits {qubits} at gate {k} for n={n_qubits}")
    return supports


def run_gates(vec: np.ndarray, n_qubits: int, supports, blocks) -> np.ndarray:
    """Apply ``width``-qubit blocks in order to a copy of ``vec``: ``blocks[k]`` acts on ``supports[k]``.

    The one gate-sequence loop of the package; a two-qubit gate is its
    ``width = 2`` case.  ``supports`` holds ``t`` rows of ``width`` distinct
    qubits, the first being the most-significant bit of the block's local
    index; all rows are checked before anything is copied or allocated.
    ``blocks`` yields ``t`` matrices of size ``2^width`` and may be lazy; each
    is drawn only after the previous one was applied.  ``vec`` has leading
    dimension ``2**n_qubits``; trailing dimensions are a batch.  The loop holds
    the state and one scratch array, both state-sized, and allocates nothing
    per block.  The state keeps one axis per qubit, in an order the loop
    tracks: each block copies the state into scratch once, with the block's
    qubits leading, and multiplies scratch back into the state, whose axes
    are then the block's qubits followed by the rest.  One last copy restores
    the order of the index bits.
    """
    dim = 2**n_qubits
    if np.shape(vec)[:1] != (dim,):
        raise ValueError(f"expected leading dimension {dim}, got shape {np.shape(vec)}")
    supports = _checked_supports(supports, n_qubits)
    width = supports.shape[1]
    state = np.array(vec, dtype=complex, order="C")
    shape, batch = state.shape, state.size // dim
    # Axis k < n_qubits is the bit of qubit order[k], most significant first; the
    # last axis is the batch.  Gathering always goes from state into scratch, never
    # back, so that numpy never needs a hidden temporary for overlapping arrays.
    state = state.reshape((2,) * n_qubits + (batch,))
    scratch = np.empty_like(state)
    rows = (1 << width, state.size >> width)
    canonical = list(range(n_qubits - 1, -1, -1))
    order = canonical
    blocks = iter(blocks)
    for support in supports:
        matrix = next(blocks, None)
        if matrix is None:
            raise ValueError(f"fewer blocks than the {len(supports)} supports")
        qubits = support.tolist()
        rest = [q for q in order if q not in qubits]
        np.copyto(scratch, state.transpose([order.index(q) for q in qubits + rest] + [n_qubits]))
        np.matmul(matrix, scratch.reshape(rows), out=state.reshape(rows))
        order = qubits + rest
        # Released before the next block is drawn, so that a block built on demand
        # is never built while the previous one is still alive.
        del matrix
    if next(blocks, None) is not None:
        raise ValueError(f"more blocks than the {len(supports)} supports")
    if order != canonical:
        np.copyto(scratch, state.transpose([order.index(q) for q in canonical] + [n_qubits]))
        state = scratch
    return state.reshape(shape)


def _fusion_plan(pairs: np.ndarray, n_qubits: int, width: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Commutation-aware gate fusion: the blocks' supports, their gates and how many each holds.

    A block starts at the first gate not yet placed and scans the later ones
    in order.  A gate joins the block when the block's qubits and its own
    number at most ``width`` together and it touches no qubit of a gate it
    skipped, so that it commutes with every gate it moves ahead of; gates that
    share a qubit keep their order.  The scan stops as soon as no later gate
    can join.  Each support is padded with the lowest unused qubits to exactly
    ``width`` qubits and listed in descending order.  The gates of every
    block, in circuit order, follow each other in one index array, so that
    the plan takes a few bytes per gate.
    """
    masks = [(1 << i) | (1 << j) for i, j in pairs.tolist()]
    placed = [False] * len(masks)
    every = (1 << n_qubits) - 1
    supports, order, counts = [], [], []
    for start, first in enumerate(masks):
        if placed[start]:
            continue
        block, skipped, group = first, 0, [start]
        for k in range(start + 1, len(masks)):
            if placed[k]:
                continue
            gate = masks[k]
            if not gate & skipped and (block | gate).bit_count() <= width:
                block |= gate
                group.append(k)
                placed[k] = True
                continue
            skipped |= gate
            # A gate that can still join needs two unskipped qubits, and as many of
            # them inside the block as the block has no room for.
            free = every & ~skipped
            room = width - block.bit_count()
            if free.bit_count() < 2 or (block & free).bit_count() < 2 - min(room, 2):
                break
        for q in range(n_qubits):
            if block.bit_count() == width:
                break
            block |= 1 << q
        supports.append([q for q in reversed(range(n_qubits)) if block >> q & 1])
        order += group
        counts.append(len(group))
    return np.array(supports, dtype=np.intp).reshape(-1, width), np.array(order, dtype=np.intp), counts


def _run_fused(vec: np.ndarray, n_qubits: int, pairs: np.ndarray, gates) -> np.ndarray:
    """Apply two-qubit gates as :func:`run_gates` does, fused into blocks on wide states.

    ``gates`` is a stack of ``len(pairs)`` matrices, possibly a view.  On a state
    of at least ``FUSE_MIN_AMPLITUDES`` amplitudes, gates fuse into blocks of at
    most ``FUSED_WIDTH`` qubits by :func:`_fusion_plan`.  Each block is built when
    the runner draws it, by running its gates on an identity in one reused
    buffer, so memory does not grow with the circuit length.  A gate is one
    strided copy of the block into a ``(4, 4^(width-1))`` array, the gate's
    qubits leading, one product and one copy back: the product
    :func:`run_gates` would make, bit for bit.  Narrower states, and circuits
    on two qubits, run gate by gate.  On a state of at least
    ``WIDE_AMPLITUDES`` amplitudes, the blocks are applied (and built) with the
    process's BLAS thread count, set once around the whole run.
    """
    pairs, gates = np.asarray(pairs), np.asarray(gates)
    width = min(FUSED_WIDTH, n_qubits)
    if np.size(vec) < FUSE_MIN_AMPLITUDES or width <= 2:
        return run_gates(vec, n_qubits, pairs, gates)
    supports, order, counts = _fusion_plan(pairs, n_qubits, width)

    def blocks():
        local = np.empty(n_qubits, dtype=np.intp)
        ranks = np.arange(width - 1, -1, -1)
        eye = np.eye(1 << width, dtype=complex)
        block = np.empty_like(eye)
        # Axis a < width of ``bits`` is row bit width - 1 - a; the last axis is the columns.
        bits = block.reshape((2,) * width + (1 << width,))
        # For each ordered pair (i, j) of local qubits, the block with row bits i and j
        # leading (the local word 2*b_i + b_j), then the other row bits, then the columns.
        words = {}
        for i, j in itertools.permutations(range(width), 2):
            lead = [width - 1 - i, width - 1 - j]
            words[i, j] = bits.transpose(lead + [a for a in range(width + 1) if a not in lead])
        gathered = np.empty(words[1, 0].shape, dtype=complex)
        product = np.empty_like(gathered)
        rows = (4, gathered.size // 4)
        start = 0
        for support, count in zip(supports, counts):
            group = order[start : start + count]
            local[support] = ranks
            np.copyto(block, eye)
            for k, (i, j) in zip(group.tolist(), local[pairs[group]].tolist()):
                np.copyto(gathered, words[i, j])
                np.dot(gates[k], gathered.reshape(rows), out=product.reshape(rows))
                np.copyto(words[i, j], product)
            # The runner applies the block before drawing the next one, so the
            # buffer is free to be rebuilt when the generator resumes.
            yield block
            start += count

    with _wide_threads(np.size(vec)):
        return run_gates(vec, n_qubits, supports, blocks())


def basis_vector(n_qubits: int, index: int) -> np.ndarray:
    vec = np.zeros(2**n_qubits, dtype=complex)
    vec[index] = 1.0
    return vec


def run_random_circuit(n_qubits: int, length: int, seed: int) -> RandomCircuit:
    """Sample a random circuit: ``length`` Haar gates on random distinct pairs."""
    if n_qubits < 2:
        raise InvalidConfigError("random circuits need at least 2 qubits")
    if n_qubits > MAX_QUBITS:
        raise SizeError(f"n_qubits capped at {MAX_QUBITS}")
    if length < 0:
        raise InvalidConfigError("length must be nonnegative")
    rng = stream(seed)
    pairs = np.empty((length, 2), dtype=np.intp)
    normals = np.empty((length, 2, 4, 4))
    for pair, gate in zip(pairs, normals):
        i = int(rng.integers(n_qubits))
        j = int(rng.integers(n_qubits - 1))
        pair[:] = i, j + (j >= i)
        rng.standard_normal(out=gate)
    return RandomCircuit(n_qubits, length, seed, pairs, _haar_unitaries(normals))


def _pair_word_index(n_qubits: int) -> np.ndarray:
    """Basis indices grouped by qubit pair and local word, shape ``(pairs, 4, 2^n / 4)``.

    Pairs ``(i, j)`` come in ``itertools.combinations(range(n_qubits), 2)``
    order.  Entry ``[p, w, m]`` is the ``m``-th smallest basis index whose
    bits ``i`` and ``j`` form the local word ``w = 2*b_i + b_j``, so
    ``gate @ vec[index[p]]`` applies ``gate`` to qubits ``(i, j)``.
    """
    x = np.arange(2**n_qubits)
    word = np.arange(4)[:, None]
    index = []
    for i, j in itertools.combinations(range(n_qubits), 2):
        free = x[(((x >> i) | (x >> j)) & 1) == 0]
        index.append(free | ((word >> 1) << i) | ((word & 1) << j))
    return np.array(index)


def run_pair_circuits(states: np.ndarray, n_qubits: int, steps: int, rngs) -> np.ndarray:
    """Run one random circuit on each row of ``states``, all circuits stepping together.

    A step of circuit ``c`` applies a Haar gate to a pair drawn uniformly from
    ``itertools.combinations(range(n_qubits), 2)``, with the pair's smaller
    qubit as the most-significant local bit.  Draws go by blocks of
    ``PAIR_STEPS`` steps (the last block may be shorter).  For each block,
    rows draw in row order: circuit ``c`` takes the block's pair indices from
    ``rngs[c]`` in one ``integers(pairs, size=block)`` call, then the block's
    gates as one ``standard_normal`` fill of ``(block, 2, 4, 4)`` normals, the
    order of :func:`sample_haar_stack`.  A stream may serve several rows,
    which then draw from it block by block, row after row; a row with a
    stream of its own sees exactly the draws of a lone circuit on that stream.

    Rows run in chunks: a chunk draws at most ``PAIR_GATE_BUDGET`` gates per
    block and holds at most :func:`rows_per_block` rows of scratch state, so
    that scratch does not grow with the circuit count or the length.  The
    chunks of a block run in row order, so the draws do not depend on the
    chunking.  A chunk's gates for a block come from one stacked QR; each of
    its steps is one gather, matmul and scatter.  Returns the final states,
    one per row.
    """
    if n_qubits < 2:
        raise InvalidConfigError("random circuits need at least 2 qubits")
    if steps < 0:
        raise InvalidConfigError("steps must be nonnegative")
    out = np.array(states, dtype=complex)
    if out.ndim != 2 or out.shape[1] != 2**n_qubits or len(rngs) != len(out):
        raise ValueError("need one stream per row of 2^n amplitudes")
    index = _pair_word_index(n_qubits)
    chunk = max(1, min(PAIR_GATE_BUDGET // PAIR_STEPS, rows_per_block(n_qubits), len(out)))
    # Scratch for one chunk, reused by every block: draws, then the flat
    # positions, gathered amplitudes and products of one step.
    picks = np.empty((chunk, PAIR_STEPS), dtype=np.intp)
    normals = np.empty((chunk, PAIR_STEPS, 2, 4, 4))
    offsets = (np.arange(chunk) * out.shape[1])[:, None, None]
    where = np.empty((chunk,) + index.shape[1:], dtype=np.intp)
    gathered = np.empty(where.shape, dtype=complex)
    product = np.empty_like(gathered)
    for start in range(0, steps, PAIR_STEPS):
        block = min(PAIR_STEPS, steps - start)
        for lo in range(0, len(out), chunk):
            rows = out[lo : lo + chunk]
            m, flat = len(rows), rows.reshape(-1)
            for k, rng in enumerate(rngs[lo : lo + m]):
                picks[k, :block] = rng.integers(len(index), size=block)
                rng.standard_normal(out=normals[k, :block])
            gates = _haar_unitaries(normals[:m, :block].reshape(-1, 2, 4, 4)).reshape(m, block, 4, 4)
            at, amps, moved = where[:m], gathered[:m], product[:m]
            for s in range(block):
                np.take(index, picks[:m, s], axis=0, out=at)
                at += offsets[:m]
                np.take(flat, at, out=amps)
                np.matmul(gates[:, s], amps, out=moved)
                flat[at] = moved
            # Released before the next chunk draws, so that two chunks' gates never coexist.
            del gates
    return out


class HadamardAll:
    """The self-adjoint action of a Hadamard on every qubit."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise InvalidConfigError("need at least one qubit")
        if n_qubits > MAX_QUBITS:
            raise SizeError(f"Hadamard actions capped at {MAX_QUBITS} qubits")
        self.n_qubits = n_qubits

    def rows(self, labels) -> np.ndarray:
        """Real rows with no transform: for ``a = hi 2^b + lo``, row ``hi`` times row ``lo``
        of the two Sylvester factors of :func:`fwht_normalized`, scaled by ``1 / sqrt(2^n)``.

        All labels' outer products come from one broadcast product.
        """
        n = self.n_qubits
        b = n - n // 2
        hi, lo = np.divmod(_checked_labels(labels, 2**n), 1 << b)
        scaled = _sylvester(b)[lo] * (1 / np.sqrt(2**n))
        out = _sylvester(n // 2)[hi][:, :, None] * scaled[:, None, :]
        return out.reshape(len(hi), 2**n)


class MatrixUnitary:
    """Unitary action backed by an explicit dense matrix.

    The one unitarity check of a dense matrix, on the process's BLAS threads
    from ``WIDE_AMPLITUDES`` entries up.  Any square, nonempty unitary
    is accepted; only a power-of-two dimension fits a qubit register, so
    ``n_qubits`` refuses the others.
    """

    def __init__(self, matrix: np.ndarray):
        shape = np.shape(matrix)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise InvalidConfigError(f"matrix must be square and nonempty, got shape {shape}")
        if shape[0] > 2**MAX_DENSE_QUBITS:
            raise SizeError(f"dense matrices capped at {MAX_DENSE_QUBITS} qubits")
        mat = np.asarray(matrix, dtype=complex)
        with _wide_threads(mat.size):
            defect = unitarity_defect(mat)
        if not defect <= 1e-10:
            raise InvalidConfigError(f"matrix is not unitary: defect {defect:.3e}")
        self.matrix = mat

    @property
    def n_qubits(self) -> int:
        dim = len(self.matrix)
        if dim & (dim - 1):
            raise InvalidConfigError(f"dimension {dim} is not a power of two: no qubit register")
        return dim.bit_length() - 1

    def rows(self, labels) -> np.ndarray:
        """Rows ``labels`` of the matrix: one gather, no product."""
        return self.matrix[_checked_labels(labels, len(self.matrix))]


def _checked_labels(labels, dim: int) -> np.ndarray:
    """``labels`` as an index array, refused unless every one is an integer in ``[0, dim)``.

    A float is refused, not truncated; an empty list, which numpy reads as float, is an
    empty index.
    """
    labels = np.asarray(labels)
    integral = labels.size == 0 or np.issubdtype(labels.dtype, np.integer)
    if not integral or np.any((labels < 0) | (labels >= dim)):
        raise LabelError(f"labels outside the integers of [0, {dim})")
    return labels.astype(np.intp, copy=False)


def hadamard_all(n_qubits: int) -> HadamardAll:
    """Unitary action of ``H`` applied to all ``n_qubits`` qubits."""
    return HadamardAll(n_qubits)


def action_matrix(circuit: RandomCircuit) -> np.ndarray:
    """A circuit's matrix ``U`` (columns ``U|x>``): its gates' transposes, a view, run in
    reverse order on the identity and conjugated once.  Conjugation commutes with every
    product, so that is the run of the adjoint gates, bit for bit.  Refused above
    ``MAX_DENSE_QUBITS`` qubits before anything is allocated."""
    if circuit.n_qubits > MAX_DENSE_QUBITS:
        raise SizeError(f"dense matrices capped at {MAX_DENSE_QUBITS} qubits")
    eye = np.eye(2**circuit.n_qubits)
    out = _run_fused(eye, circuit.n_qubits, circuit.pairs[::-1], circuit.gates[::-1].transpose(0, 2, 1))
    return np.conjugate(out, out=out)


def densify(circuit: RandomCircuit) -> MatrixUnitary:
    """The circuit as an explicit dense matrix; at most ``MAX_DENSE_QUBITS`` qubits."""
    return MatrixUnitary(action_matrix(circuit))
