"""Recursive oracle identification instances: seeded secret trees and queries.

An instance is a depth-``l`` tree whose nodes at depth ``k < l`` carry hidden
labels.  Querying a node requires presenting its label; a correct guess
returns the parent's data bit for that branch, a wrong guess returns FAIL.
Leaves return data bits unconditionally.  The root's correct guess returns
the answer bit of the whole instance.

Secrets are not stored: the label of the node at ``path`` is derived as
``A[hash(master_seed, path) mod |A|]`` with a fixed 64-bit mixing chain, so
an exponential tree replays from a single seed while distinct nodes get
independent-looking labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import DepthError, IntegrityError, InvalidConfigError, ProtocolError
from ..oracle import SingleLevelOracle, build_oracle
from ..simcore import hadamard_all, mix64

FAIL = "FAIL"

_SECRET_TAG = 0x5EC4E7
_ANSWER_TAG = 0xA05BEE
_SYMBOL_TAG = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class QueryRecord:
    """One oracle call: the path, the optional guess, and the answer."""

    path: tuple[int, ...]
    guess: int | None
    result: int | str
    index: int

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "path": list(self.path),
            "guess": self.guess,
            "result": self.result,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QueryRecord":
        """The record a log line holds; a symbol, guess or index that is not an int (a float
        or a bool is refused, not truncated), or a result other than FAIL, 0 or 1, raises
        ``ValueError``."""
        path, guess, result, index = list(data["path"]), data["guess"], data["result"], data["index"]
        fields = {"symbol": path, "guess": [] if guess is None else [guess], "index": [index]}
        for name, values in fields.items():
            if not all(map(_integer, values)):
                raise ValueError(f"{name} must be an int, got {values}")
        if result != FAIL and not (_integer(result) and result in (0, 1)):
            raise ValueError(f"result must be {FAIL!r}, 0 or 1, got {result!r}")
        return cls(tuple(path), guess, result, index)


def _integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def save_query_log(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")


def load_query_log(path) -> list[QueryRecord]:
    """The records of a JSONL query log; a malformed line raises ``IntegrityError``."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    records.append(QueryRecord.from_json_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError) as exc:
                    raise IntegrityError(f"query log line {number} is malformed: {exc!r}") from exc
    return records


@dataclass(frozen=True)
class RecursiveOracleSpec:
    """A seeded depth-``l`` instance over a compiled single-level family."""

    depth: int
    n_symbol_bits: int
    oracle: SingleLevelOracle = field(repr=False)
    master_seed: int

    def __post_init__(self):
        if self.depth < 1:
            raise InvalidConfigError("depth must be at least 1")
        if self.oracle.n_qubits != self.n_symbol_bits:
            raise InvalidConfigError("oracle symbol width mismatch")

    @property
    def b_root(self) -> int:
        """The instance's answer bit, derived from the seed like every secret."""
        return derive_answer_bit(self.master_seed)

    @property
    def n_labels(self) -> int:
        return self.oracle.n_labels


def derive_answer_bit(master_seed: int) -> int:
    return mix64(master_seed ^ _ANSWER_TAG) & 1


def secret_at(spec: RecursiveOracleSpec, path) -> int:
    """Label index of the node at ``path`` (leaves carry no label)."""
    path = _checked_path(spec, path)
    if len(path) >= spec.depth:
        raise DepthError(f"path of length {len(path)} has no secret at depth {spec.depth}")
    h = mix64(spec.master_seed ^ _SECRET_TAG)
    for sym in path:
        h = mix64(h ^ mix64(sym + _SYMBOL_TAG))
    return int(h % spec.n_labels)


def _checked_path(spec: RecursiveOracleSpec, path) -> tuple[int, ...]:
    """``path`` as a tuple of ints, refused with ``ProtocolError`` unless every symbol is an
    integer in ``[0, 2^n)``: a float or a bool is refused, not truncated."""
    path = tuple(path)
    for sym in path:
        if not (_integer(sym) and 0 <= sym < 2**spec.n_symbol_bits):
            raise ProtocolError(f"symbol {sym!r} is not an integer in [0, {2**spec.n_symbol_bits})")
    return tuple(map(int, path))


def level_secrets(spec: RecursiveOracleSpec) -> list[np.ndarray]:
    """The labels of every depth at once: entry ``k`` holds ``secret_at`` of all ``dim^k`` paths.

    A path's position in its level is the path read as a base-``dim`` number,
    first symbol most significant, so node ``i``'s children are ``i*dim + x``.
    The chain runs on ``uint64`` arrays, whose arithmetic wraps mod 2^64 as
    ``mix64``'s masks do, so every label equals ``secret_at`` exactly.
    """
    steps = mix64(np.arange(2**spec.n_symbol_bits, dtype=np.uint64) + np.uint64(_SYMBOL_TAG))
    h = np.array([mix64(spec.master_seed ^ _SECRET_TAG)], dtype=np.uint64)
    levels = []
    for k in range(spec.depth):
        if k:
            h = mix64(h[:, None] ^ steps).ravel()
        levels.append((h % np.uint64(spec.n_labels)).astype(np.intp))
    return levels


def oracle_query(
    spec: RecursiveOracleSpec,
    path,
    guess: int | None = None,
    log: list | None = None,
):
    """One oracle call with the three-case tree semantics.

    * empty path + guess: the root answer bit if the guess is the root's
      label, FAIL otherwise;
    * internal path + guess: the parent's data bit for the branch if the
      guess matches the node's label, FAIL otherwise;
    * full-depth path, no guess: the leaf's data bit.

    Malformed arity raises :class:`ProtocolError`, which is distinct from
    the in-band FAIL answer.  Every call is appended to ``log`` when given.
    """
    path = _checked_path(spec, path)
    k = len(path)
    if k > spec.depth:
        raise ProtocolError(f"path of length {k} exceeds depth {spec.depth}")
    if k == spec.depth:
        if guess is not None:
            raise ProtocolError("leaf queries take no guess")
        result: int | str = spec.oracle.f(secret_at(spec, path[:-1]), path[-1])
    else:
        if guess is None:
            raise ProtocolError("non-leaf queries require a guess")
        if not (_integer(guess) and 0 <= guess < spec.n_labels):
            raise ProtocolError(f"guess {guess!r} is not an integer in [0, {spec.n_labels})")
        if guess != secret_at(spec, path):
            result = FAIL
        elif k == 0:
            result = spec.b_root
        else:
            result = spec.oracle.f(secret_at(spec, path[:-1]), path[-1])
    if log is not None:
        log.append(QueryRecord(path, guess, result, index=len(log)))
    return result


def label_bits(n_symbol_bits: int, alpha_n: int | None = None) -> int:
    """The label bits of an instance on ``n`` symbol bits: ``alpha_n``, by default ``ceil(n/2)``."""
    return (n_symbol_bits + 1) // 2 if alpha_n is None else alpha_n


def make_rfs_spec(
    depth: int,
    n_symbol_bits: int,
    master_seed: int,
    alpha_n: int | None = None,
    unitary=None,
) -> RecursiveOracleSpec:
    """Build a seeded instance whose single-level family is compiled from ``unitary``.

    ``unitary`` is an action on ``n_symbol_bits`` qubits, such as one
    ``oracle.build_unitary`` returns; by default H on every qubit, whose
    labels all identify with success exactly 1.  The labels are the first
    ``2^alpha_n`` basis indices, ``alpha_n`` defaulting to ``ceil(n/2)``.
    The compiled oracle carries the unitary.
    """
    if depth < 1:
        raise InvalidConfigError(f"depth must be at least 1, got {depth}")
    if n_symbol_bits < 1:
        raise InvalidConfigError(f"n must be at least 1, got {n_symbol_bits}")
    alpha_n = label_bits(n_symbol_bits, alpha_n)
    if not 1 <= alpha_n <= n_symbol_bits:
        raise InvalidConfigError("alpha_n must lie in [1, n]")
    if unitary is None:
        unitary = hadamard_all(n_symbol_bits)
    elif getattr(unitary, "n_qubits", None) != n_symbol_bits:
        raise InvalidConfigError(f"unitary must be an action on n = {n_symbol_bits} qubits")
    return RecursiveOracleSpec(
        depth=depth,
        n_symbol_bits=n_symbol_bits,
        oracle=build_oracle(unitary, range(2**alpha_n)),
        master_seed=master_seed,
    )
