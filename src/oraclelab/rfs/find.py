"""Recursive identification runs: error propagation, query counts, and a
literal coherent simulator at tiny sizes.

``find_simulate`` evaluates the recursion's overlap algebra numerically, one
depth of the secret tree at a time from the deepest up: each depth's labels,
sign rows and failure weights are arrays over all its nodes.  A node's copies
are prepared from its children's certified outputs; writing the children's
failure weights ``eps_x`` into the phase-conditioned superposition gives the
exact overlap

    c = mean_x [ (1 - eps_x) + (-1)^{f(a, x)} eps_x ]

between the prepared state and the ideally-phased one, hence an uncompute
error ``eps_unc = (1 - c^2)/4``.  Each copy then identifies the node's label
with probability at least ``p_exact - 4 sqrt(eps_unc)`` (pure-state trace
distance), and ``m`` copies push the failure probability down to
``(1 - s)^m``.  These bounds are propagated with adversarial junk.  Given a
random stream, the same pipeline is also sampled with the junk direction
drawn at random, visiting the nodes in post-order (children first).  Both
read U from the spec's compiled oracle.

``find_coherent_tiny`` instead allocates every register of the recursion
explicitly (symbol, test, flag and answer registers for each copy at each
level) and runs the full state-vector program, including uncomputation.  The
program is a list of plain steps ``step(state, adjoint) -> state``; a child's
inverse is its own list run backwards.  Each basis state's ancestor symbols
read as one node index of ``level_secrets``' layout, so a step looks up its
labels and phases with one gather per depth.  It is the ground truth the model
is cross-checked against, and is capped at a couple of qubits per register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CertificationError, InvalidConfigError, SizeError
from ..oracle import identify, prepare_phi
from ..simcore import hadamard_all, run_gates
from .core import RecursiveOracleSpec, level_secrets

MAX_MODEL_NODES = 100_000
MAX_COHERENT_QUBITS = 22


# ---------------------------------------------------------------------------
# Model-level simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelStats:
    """Extremes of the propagated quantities across all nodes of one depth."""

    depth: int
    nodes: int
    eps_uncompute_max: float
    eps_out_max: float
    copy_success_min: float
    exact_success_min: float


@dataclass(frozen=True)
class FindReport:
    """Accounting of one simulated recursive identification run."""

    delta: float
    epsilon: float
    m: int
    depth: int
    levels: tuple[LevelStats, ...]
    final_failure_sq: float
    bounds_hold: bool
    answer: int | None
    success_prob: float
    queries_total: int
    queries_closed_form: int
    sampled: dict | None = None


def repetition_count(delta: float) -> int:
    """Copies per node: ``ceil((4/delta) ln(8/delta))``."""
    return int(math.ceil((4.0 / delta) * math.log(8.0 / delta)))


def query_count(m: int, depth: int) -> int:
    """Exact query recurrence ``Q(k) = 2 m Q(k+1) + 2 m`` with ``Q(l) = 0``."""
    q = 0
    for _ in range(depth):
        q = 2 * m * q + 2 * m
    return q


def query_count_closed_form(m: int, depth: int) -> int:
    return sum((2 * m) ** j for j in range(1, depth + 1))


def _checked_inject(inject: dict | None) -> dict:
    """A copy of ``inject``, refused when a weight is NaN or outside [0, 1]."""
    inject = dict(inject or {})
    if not all(0.0 <= eps <= 1.0 for eps in inject.values()):
        raise InvalidConfigError(f"inject weights must lie in [0, 1], got {inject}")
    return inject


def _haar_perp(rng: np.random.Generator, anchor: np.ndarray) -> np.ndarray:
    """A Haar-random unit vector orthogonal to ``anchor``."""
    dim = anchor.shape[0]
    while True:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z = z - anchor * np.vdot(anchor, z)
        norm = np.linalg.norm(z)
        if norm > 1e-12:
            return z / norm


def find_simulate(
    spec: RecursiveOracleSpec,
    delta: float,
    *,
    m_override: int | None = None,
    inject: dict | None = None,
    junk_draws: int = 100,
    rng: np.random.Generator | None = None,
) -> FindReport:
    """Simulate the recursion level by level and account errors and queries.

    The bounds always come from interval propagation with the adversarial
    trace-distance penalty.  Given ``rng``, the report's ``sampled`` entry
    also holds a Monte Carlo over ``junk_draws`` draws of Haar-random junk.
    ``inject`` maps a node path to an extra failure weight in [0, 1] added to
    that node's output, a hook for cross-validating against the coherent
    simulator.  ``m_override`` replaces the repetition count derived from
    ``delta`` (same hook).

    Each distinct label is identified once.  Raises
    :class:`CertificationError` naming the first node in post-order (children
    before their parent, siblings in symbol order) whose label's exact
    single-level success falls below ``delta``.
    """
    if not 0 < delta <= 1:
        raise InvalidConfigError("delta must lie in (0, 1]")
    if m_override is not None and m_override < 1:
        raise InvalidConfigError("m_override must be at least 1")
    if rng is not None and junk_draws < 1:
        raise InvalidConfigError("sampled junk needs at least one draw")
    inject = _checked_inject(inject)
    epsilon = (delta / 8.0) ** 2
    m = m_override if m_override is not None else repetition_count(delta)
    depth = spec.depth
    dim = 2**spec.n_symbol_bits
    n_nodes = sum(dim**k for k in range(depth))
    if n_nodes > MAX_MODEL_NODES:
        raise SizeError(f"{n_nodes} internal nodes exceed the model cap")

    oracle = spec.oracle
    labels = level_secrets(spec)
    # Injected weights per depth, at the nodes' positions in ``labels``.
    injected = [np.zeros(dim**k) for k in range(depth)]
    for path, eps in inject.items():
        if len(path) < depth and all(0 <= x < dim for x in path):
            injected[len(path)][np.ravel_multi_index(path, (dim,) * len(path))] += eps

    used = np.zeros(spec.n_labels, dtype=bool)
    used[np.concatenate(labels)] = True
    exact = np.zeros(spec.n_labels)
    exact[used] = identify(oracle, np.flatnonzero(used))
    failed = used & (exact < delta - 1e-12)
    if failed.any():
        # The first failing node of each depth, as (path, label).  In post-order a
        # node comes after every path below it, hence the key's trailing ``dim``.
        candidates = []
        for k, level in enumerate(labels):
            bad = failed[level]
            if bad.any():
                i = int(np.argmax(bad))
                path = tuple(int(x) for x in np.unravel_index(i, (dim,) * k))
                candidates.append((path, int(level[i])))
        path, label = min(candidates, key=lambda node: node[0] + (dim,))
        raise CertificationError(
            f"label {label} at node {path} identifies with probability "
            f"{exact[label]:.6f} < delta {delta}"
        )

    # The bounds, bottom up: the failure weights of depth k + 1, reshaped to
    # (dim^k, dim), are the children of depth k.  The deepest nodes have no
    # children, so their overlap is c = 1 and their uncompute error 0.
    levels = []
    child_eps = None
    for k in reversed(range(depth)):
        label_k = labels[k]
        p = exact[label_k]
        if child_eps is None:
            eps_unc = np.zeros(dim**k)
        else:
            kids = child_eps.reshape(dim**k, dim)
            c = np.mean((1.0 - kids) + oracle.signs(label_k) * kids, axis=1)
            eps_unc = np.maximum(0.0, (1.0 - c * c) / 4.0)
        s_floor = np.maximum(0.0, p - 4.0 * np.sqrt(eps_unc))
        # Python's float power, which numpy's vectorised power does not match bit for bit.
        child_eps = np.array([
            min(1.0, (1.0 - s) ** m + extra)
            for s, extra in zip(s_floor.tolist(), injected[k].tolist())
        ])
        levels.append(LevelStats(
            depth=k,
            nodes=dim**k,
            eps_uncompute_max=max(0.0, float(eps_unc.max())),
            eps_out_max=max(0.0, float(child_eps.max())),
            copy_success_min=min(1.0, float(s_floor.min())),
            exact_success_min=min(1.0, float(p.min())),
        ))
    root_eps = float(child_eps[0])
    levels = tuple(reversed(levels))
    bounds_hold = all(
        lv.eps_uncompute_max <= epsilon + 1e-15
        and lv.eps_out_max <= epsilon + 1e-15
        and lv.copy_success_min >= delta / 2.0 - 1e-15
        for lv in levels
    )

    sampled_stats = None
    if rng is not None:
        if n_nodes * m * junk_draws > 5_000_000:
            raise SizeError("sampled junk too large; shrink the tree or draws")

        def sampled_fail(k: int, i: int) -> float:
            """Sampled failure weight of node ``i`` of depth ``k``; its children draw first."""
            label = int(labels[k][i])
            eps_unc = 0.0
            if k + 1 < depth:
                kids = np.array([sampled_fail(k + 1, i * dim + x) for x in range(dim)])
                c = float(np.mean((1.0 - kids) + oracle.signs(label) * kids))
                eps_unc = max(0.0, (1.0 - c * c) / 4.0)
            phi = prepare_phi(oracle, label).amplitudes
            keep, junk = math.sqrt(1.0 - 4.0 * eps_unc), math.sqrt(4.0 * eps_unc)
            tildes = np.array([
                phi if eps_unc == 0.0 else keep * phi + junk * _haar_perp(rng, phi)
                for _copy in range(m)
            ])
            # The m copies' successes on the label's rows, from one product.
            amps = oracle.unitary.rows(oracle.labels[label].rows) @ tildes.T
            fail = math.prod(max(0.0, 1.0 - s) for s in np.sum(np.abs(amps) ** 2, axis=0).tolist())
            return min(1.0, fail + float(injected[k][i]))

        draws = np.array([1.0 - sampled_fail(0, 0) for _ in range(junk_draws)])
        sampled_stats = {
            "draws": junk_draws,
            "success_mean": float(np.mean(draws)),
            "success_min": float(np.min(draws)),
            "success_max": float(np.max(draws)),
        }

    return FindReport(
        delta=delta,
        epsilon=epsilon,
        m=m,
        depth=depth,
        levels=levels,
        final_failure_sq=root_eps,
        bounds_hold=bounds_hold,
        answer=spec.b_root if bounds_hold else None,
        success_prob=1.0 - root_eps,
        queries_total=query_count(m, depth),
        queries_closed_form=query_count_closed_form(m, depth),
        sampled=sampled_stats,
    )


# ---------------------------------------------------------------------------
# Literal coherent execution at tiny sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherentReport:
    """Outcome of a full state-vector run of the recursion."""

    answer: int
    total_qubits: int
    success_prob: float
    uncompute_residuals: tuple[float, ...] = ()
    answer_register_consistent: bool = True


def _run(program, state, adjoint=False):
    """Run the steps ``step(state, adjoint) -> state`` in order, or their adjoints in reverse."""
    for step in reversed(program) if adjoint else program:
        state = step(state, adjoint)
    return state


def find_coherent_tiny(
    spec: RecursiveOracleSpec,
    m_override: int = 1,
    inject: dict | None = None,
) -> CoherentReport:
    """Run the recursion as an explicit unitary program on all its registers.

    Every copy at every level gets a symbol register, a child block (below
    the last level), and a test qubit; each instance ends with a flag qubit
    and an answer register.  A program is a list of steps
    ``step(state, adjoint) -> state``; a child's inverse is the same program
    run backwards with every step adjoint, so uncomputation is literal.
    ``inject`` maps the path of a node below the root to an extra failure
    weight in [0, 1]; it is realized as a rotation on that instance's flag
    qubit inside the instance's program (so the inverse call undoes the
    rotation but not its entanglement with the conditioned phase, exactly
    like a noisy child).  A key naming no such node (the root, a path of
    length ``depth`` or more, a symbol outside ``[0, 2^n)``) or a weight
    outside [0, 1] is refused before any register exists.

    U is the spec's compiled oracle's unitary.  Returns the exact success
    probability of the root identification plus the norms left behind in
    child blocks after each uncompute step.
    """
    n = spec.n_symbol_bits
    depth = spec.depth
    m = m_override
    inject = _checked_inject(inject)
    if m < 1:
        raise InvalidConfigError("m_override must be at least 1")
    if n > 2 or depth > 2 or m > 3:
        raise SizeError("coherent run capped at n <= 2, depth <= 2, m <= 3")
    dim_sym = 2**n
    for path in inject:
        if not 0 < len(path) < depth or not all(0 <= x < dim_sym for x in path):
            raise InvalidConfigError(
                f"inject key {path} names no node below the root of a depth-{depth} tree "
                f"on {dim_sym} symbols"
            )

    oracle = spec.oracle
    idents = [s.ident for s in oracle.labels]
    if not all(isinstance(i, int) for i in idents):
        raise InvalidConfigError("coherent run needs integer basis labels")
    ans_bits = max(1, int(max(idents)).bit_length())
    # Per depth, over its nodes (paths read as base-2^n numbers): each node's
    # label as a basis index, and its label's phases by symbol.
    levels = level_secrets(spec)
    keys = [np.array(idents)[level] for level in levels]
    phases = [oracle.signs(level) for level in levels]

    # An instance's block, depth-first: per copy a symbol register, the child
    # block and a test qubit; then the flag qubit and the answer register.
    total = 0
    for _ in range(depth):
        total = m * (n + total + 1) + 1 + ans_bits
    if total > MAX_COHERENT_QUBITS:
        raise SizeError(f"{total} qubits exceed the coherent cap {MAX_COHERENT_QUBITS}")
    dim = 2**total
    idx = np.arange(dim)

    def field(off: int, width: int) -> np.ndarray:
        return (idx >> off) & ((1 << width) - 1)

    def register(off: int, matrix: np.ndarray):
        qubits = tuple(range(off + n - 1, off - 1, -1))
        return lambda state, adjoint: run_gates(
            state, total, [qubits], [matrix.conj().T if adjoint else matrix]
        )

    def diagonal(signs: np.ndarray):
        """Real signature diagonal (entries +-1): self-adjoint."""
        return lambda state, adjoint: state * signs

    def xor(cond: np.ndarray, bits):
        """The permutation ``i -> i ^ bits`` on ``cond``, which reads no flipped bit: self-inverse."""
        src = np.flatnonzero(cond)
        dst = (idx ^ bits)[src]

        def step(state, adjoint):
            out = state.copy()
            out[dst] = state[src]
            return out

        return step

    def rotation(flag: int, cond: np.ndarray, angle: float):
        """RY(angle) on the flag qubit where ``cond`` holds."""
        idx0 = np.flatnonzero(cond & (field(flag, 1) == 0))
        idx1 = idx0 | (1 << flag)

        def step(state, adjoint):
            a = -angle if adjoint else angle
            c, s = math.cos(a / 2.0), math.sin(a / 2.0)
            out = state.copy()
            out[idx0] = c * state[idx0] - s * state[idx1]
            out[idx1] = s * state[idx0] + c * state[idx1]
            return out

        return step

    def probe(lo: int, hi: int):
        """Measurement-free diagnostic: the norm outside the |0> slice of qubits [lo, hi)."""
        mask = (1 << hi) - (1 << lo)

        def step(state, adjoint):
            if not adjoint:
                residuals.append(float(np.linalg.norm(state[(idx & mask) != 0])))
            return state

        return step

    h_layer = hadamard_all(n).rows(range(dim_sym))
    u_matrix = oracle.unitary.rows(range(dim_sym))
    u_dagger = u_matrix.conj().T
    residuals: list[float] = []

    def build(k: int, node: np.ndarray, cursor: int):
        """The program of a depth-``k`` instance whose block starts at qubit ``cursor``.

        ``node`` holds each basis state's node index at depth ``k``, its
        ancestors' symbol registers read as one base-2^n number.  Returns the
        program and the offsets of its flag and answer registers, the block's last.
        """
        program: list = []
        syms, tests = [], []
        for _c in range(m):
            syms.append(cursor)
            sym = field(cursor, n)
            program.append(register(cursor, h_layer))
            cursor += n
            # Data-bit phase, keyed on the child's answer when one exists.
            signs = phases[k][node, sym]
            if k + 1 < depth:
                kid = node * dim_sym + sym
                child, flag, ans = build(k + 1, kid, cursor)
                for path, eps in inject.items():
                    # A noisy child carries its rotation inside its own
                    # program: the inverse call undoes the rotation itself
                    # but not the phase it conditioned in between.
                    if len(path) == k + 1 and eps > 0.0:
                        at = kid == np.ravel_multi_index(path, (dim_sym,) * len(path))
                        child.append(rotation(flag, at, 2.0 * math.asin(math.sqrt(eps))))
                answered = (field(flag, 1) == 0) & (field(ans, ans_bits) == keys[k + 1][kid])
                program.extend(child)
                program.append(diagonal(np.where(answered, signs, 1.0)))
                program.append(lambda state, adjoint, child=child: _run(child, state, not adjoint))
                if k == 0:
                    program.append(probe(cursor, ans + ans_bits))
                cursor = ans + ans_bits
            else:
                program.append(diagonal(signs))
            tests.append(cursor)
            cursor += 1
        key = keys[k][node]
        for sym, test in zip(syms, tests):
            program.append(register(sym, u_matrix))
            program.append(xor(field(sym, n) == key, 1 << test))
            program.append(register(sym, u_dagger))
        flag, ans = cursor, cursor + 1
        all_fail = np.logical_and.reduce([field(test, 1) == 0 for test in tests])
        program.append(xor(all_fail, 1 << flag))
        program.append(xor(field(flag, 1) == 0, key << ans))
        return program, flag, ans

    program, flag, ans = build(0, np.zeros(dim, dtype=np.intp), 0)
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    state = _run(program, state)

    flag_vals = field(flag, 1)
    probs = np.abs(state) ** 2
    success = float(np.sum(probs[flag_vals == 0]))
    success_with_ans = float(
        np.sum(probs[(flag_vals == 0) & (field(ans, ans_bits) == keys[0][0])])
    )
    return CoherentReport(
        answer=spec.b_root,
        total_qubits=total,
        success_prob=success,
        uncompute_residuals=tuple(residuals),
        answer_register_consistent=abs(success - success_with_ans) < 1e-12,
    )
