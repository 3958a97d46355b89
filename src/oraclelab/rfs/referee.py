"""Progress-potential referee for query logs, and the guessing bound.

A node counts as *hit* once the oracle has been queried there with its
correct label (leaves are hit by any query).  Over the *frontier* ``S``, the
hit nodes with no hit ancestor, the potential

    Z = sum_{x in S} (log2|A| / 3)^(-depth(x))

starts at 0, reaches exactly 1 once the root is hit, changes only on
queries, and grows by at most ``(log2|A|/3)^(-l)`` per leaf query.  Internal
hits are rare: per query at a node with ``q`` earlier queries there, the
expected gain is at most ``2 / (|A|^(1/3) - q)``; the referee logs each
internal query's gain together with that bound so the inequality can be
checked statistically across many runs.

The replay keeps a count ``c_d`` of frontier nodes at each depth and reads
``Z = sum_d c_d w_d`` in depth order, with the ``l + 1`` weights ``w_d``
computed once per log.  A first hit at depth ``k`` checks its ``k``
ancestors; if none is hit it joins the frontier and removes the frontier
nodes listed under it (each prefix lists the frontier nodes that joined
below it, deleted lazily).  A node joins and leaves at most once, so a log
of ``Q`` queries costs O(Q l) beyond its ``Q`` oracle calls.  Each change of
``Z`` is checked against the node-level delta (``+w_k`` minus the weight of
each removed node), and the final ``Z`` against a sorted fold over the
whole hit set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import IntegrityError, InvalidConfigError, ProtocolError
from .core import FAIL, QueryRecord, RecursiveOracleSpec, oracle_query

_EPS = float(np.finfo(float).eps)
# ``c`` of the bound table's quasi-polynomial query budget ``n^(c log2 n)``.
TREND_BUDGET_EXPONENT = 0.25
# The largest n of the bound table: |A| = 2^(n/2) overflows a float from n = 2048.
MAX_TREND_N = 2047


@dataclass(frozen=True)
class InternalQueryEvent:
    """One internal-node (or root) query: its gain and its per-event bound."""

    index: int
    depth: int
    prior_queries_at_node: int
    delta_z: float
    bound: float  # 2 / (|A|^(1/3) - q); inf when q >= |A|^(1/3)


@dataclass(frozen=True)
class ZTrace:
    """Full referee output for one query log."""

    z_values: tuple[float, ...]  # Z after each query; Z=0 before the first
    deltas: tuple[float, ...]
    leaf_deltas: tuple[float, ...]
    internal_events: tuple[InternalQueryEvent, ...]
    root_hit_index: int | None
    p1_initial_zero: bool
    p2_root_hit_z_one: bool
    p3_incremental_consistent: bool
    p4_leaf_increment_ok: bool
    leaf_weight: float

    @property
    def final_z(self) -> float:
        return self.z_values[-1] if self.z_values else 0.0


def z_weight(n_labels: int, depth_of_node: int) -> float:
    """Weight ``(log2|A|/3)^(-d)`` of a depth-``d`` node in the potential."""
    base = np.log2(n_labels) / 3.0
    return float(base ** (-depth_of_node))


def _fold_slack(n_terms: int, magnitude: float) -> float:
    """Tolerance for two sums of the same terms folded in different orders.

    A fold of ``m`` terms whose sizes add up to ``S`` rounds by at most
    ``m * eps * S``; on top of that the 1e-12 floor is the check's own slack.
    """
    return 1e-12 + n_terms * _EPS * magnitude


def _frontier_z(counts: list[int], weights: list[float]) -> float:
    """``sum_d c_d w_d``, folded in depth order."""
    total = 0.0
    for count, weight in zip(counts, weights):
        total += count * weight
    return total


def _recompute_z(hits: set, n_labels: int) -> float:
    # Z from the hit set alone, the reference for the frontier counts.  Sorted
    # fold: the value must not depend on set iteration order, so replays are
    # bit-identical across processes.
    total = 0.0
    for path in sorted(hits):
        if any(path[:j] in hits for j in range(len(path))):
            continue
        total += z_weight(n_labels, len(path))
    return total


def z_referee(spec: RecursiveOracleSpec, log) -> ZTrace:
    """Replay a query log, tracking the potential and checking its laws.

    The log must come from the same instance: each record is asked of
    :func:`oracle_query` again and its result compared, so a record the
    oracle could not have produced (a malformed path or guess) or an altered
    result raises :class:`IntegrityError`.
    """
    n_labels = spec.n_labels
    weights = [z_weight(n_labels, d) for d in range(spec.depth + 1)]
    leaf_w = weights[-1]
    cube_root = n_labels ** (1.0 / 3.0)
    counts = [0] * (spec.depth + 1)  # frontier nodes per depth
    hits: set = set()
    frontier: set = set()
    below: dict = {}  # prefix -> frontier nodes that joined under it
    z = 0.0
    z_values: list[float] = []
    deltas: list[float] = []
    leaf_deltas: list[float] = []
    events: list[InternalQueryEvent] = []
    per_node_queries: dict = {}
    root_hit_index = None
    consistent = True

    for pos, rec in enumerate(log):
        if not isinstance(rec, QueryRecord):
            raise IntegrityError("log entries must be query records")
        path = rec.path
        k = len(path)
        is_leaf = k == spec.depth
        try:
            expected = oracle_query(spec, path, rec.guess)
        except ProtocolError as err:
            raise IntegrityError(f"log entry {pos} ({path}, guess {rec.guess}): {err}") from err
        hit = expected != FAIL
        if rec.result != expected:
            raise IntegrityError(
                f"log result {rec.result!r} contradicts the instance at {path}"
            )

        q_before = per_node_queries.get(path, 0)
        if not is_leaf:
            per_node_queries[path] = q_before + 1

        z_new = z
        if hit and path not in hits:
            hits.add(path)
            if k == 0:
                root_hit_index = pos
            if not any(path[:j] in hits for j in range(k)):
                frontier.add(path)
                counts[k] += 1
                # Frontier nodes below the new hit now have a hit ancestor.
                removed = 0
                removed_w = 0.0
                for node in below.pop(path, ()):
                    if node in frontier:
                        frontier.remove(node)
                        counts[len(node)] -= 1
                        removed += 1
                        removed_w += weights[len(node)]
                for j in range(k):
                    below.setdefault(path[:j], []).append(path)
                z_new = _frontier_z(counts, weights)
                # The delta folds removed + 1 terms; Z before and after fold l + 1 each.
                slack = _fold_slack(removed + 2 * len(weights) + 1, z + weights[k] + removed_w)
                if abs(z + (weights[k] - removed_w) - z_new) > slack:
                    consistent = False
        delta = z_new - z
        z = z_new
        z_values.append(z)
        deltas.append(delta)
        if is_leaf:
            leaf_deltas.append(delta)
        else:
            bound = 2.0 / (cube_root - q_before) if q_before < cube_root else np.inf
            events.append(
                InternalQueryEvent(
                    index=pos,
                    depth=k,
                    prior_queries_at_node=q_before,
                    delta_z=delta,
                    bound=float(bound),
                )
            )
    # The frontier counts must agree with a fold over the whole hit set.
    if abs(_recompute_z(hits, n_labels) - z) > _fold_slack(len(hits) + len(weights), z):
        consistent = False

    p2 = True
    if root_hit_index is not None:
        # Once the root is hit, S = {root} exactly and the potential is 1.
        p2 = all(v == 1.0 for v in z_values[root_hit_index:])
    p4 = all(d <= leaf_w + 1e-12 for d in leaf_deltas)
    return ZTrace(
        z_values=tuple(z_values),
        deltas=tuple(deltas),
        leaf_deltas=tuple(leaf_deltas),
        internal_events=tuple(events),
        root_hit_index=root_hit_index,
        p1_initial_zero=True,
        p2_root_hit_z_one=p2,
        p3_incremental_consistent=consistent,
        p4_leaf_increment_ok=p4,
        leaf_weight=leaf_w,
    )


@dataclass(frozen=True)
class LowerBoundValue:
    value: float
    degenerate: bool


def bound_trend_table(ns) -> list[dict]:
    """Success-cap rows in the scaling regime where the cap approaches 1/2.

    Each row takes ``|A| = 2^(n/2)``, depth ``log2 n`` and a query budget
    ``n^(c log2 n)`` with ``c = TREND_BUDGET_EXPONENT``; as ``n`` grows the
    budget stays quasi-polynomial while both cap terms vanish, so the value
    column falls to 1/2.
    """
    if any(not 2 <= n <= MAX_TREND_N for n in ns):
        raise InvalidConfigError(f"bound table needs every n >= 2 and <= {MAX_TREND_N}, got {ns}")
    rows = []
    for n in ns:
        card_a = 2.0 ** (n / 2)
        depth = int(np.log2(n))
        queries = int(round(n ** (TREND_BUDGET_EXPONENT * np.log2(n))))
        cap = lower_bound(queries, card_a, depth)
        rows.append(
            {
                "n": int(n),
                "log2_card_a": n / 2,
                "l": depth,
                "q": queries,
                "bound": cap.value,
                "degenerate": int(cap.degenerate),
            }
        )
    return rows


def lower_bound(queries: int, card_a: float, depth: int) -> LowerBoundValue:
    """Success-probability cap for ``queries``-query classical strategies.

    ``1/2 + max(Q / (|A|^(1/3) - Q), Q * (log2|A|/3)^(-l))`` with logs base
    2.  When ``Q >= |A|^(1/3)`` the cap degenerates; the value 1 is returned
    with a flag.  A negative ``queries`` is refused, and so is ``|A| < 2``, whose
    ``log2|A|`` of at most 0 leaves the tree term undefined.
    """
    if queries < 0:
        raise InvalidConfigError(f"queries must be nonnegative, got {queries}")
    if not card_a >= 2:
        raise InvalidConfigError(f"|A| must be at least 2, got {card_a}")
    cube_root = card_a ** (1.0 / 3.0)
    if queries >= cube_root:
        return LowerBoundValue(1.0, True)
    term_guess = queries / (cube_root - queries)
    term_tree = queries * (np.log2(card_a) / 3.0) ** (-depth)
    return LowerBoundValue(float(min(1.0, 0.5 + max(term_guess, term_tree))), False)
