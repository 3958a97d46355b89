"""Finite groups with unitary irreps and their Fourier-transform matrices.

A :class:`GroupSpec` carries a multiplication table plus, for every irrep, a
unitary matrix per group element.  The Fourier transform over the group is
the ``|G| x |G|`` matrix whose row ``(rep, i, j)`` has entries
``sqrt(d_rep / |G|) * rep(g)[i, j]``; row orthonormality is Schur
orthogonality of matrix coefficients.

The Fourier transform over the cyclic group Z_n, :func:`qft_cyclic`, is
formed entry by entry from the formula, with no group table or irreps built.
The nonabelian examples of order <= 8 ship as irrep tables in
``data/groups.json``; constructing irreps from scratch is out of scope, so
the loader only validates what it reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ..errors import InvalidConfigError, InvalidGroupDataError, SizeError
from .circuits import MAX_DENSE_QUBITS, MatrixUnitary
from .states import unitarity_defect

IRREP_UNITARY_TOL = 1e-12
HOMOMORPHISM_TOL = 1e-10


def generating_set(table: np.ndarray, identity: int) -> list[int]:
    """Generators of ``table``, each the smallest element outside the subgroup of the earlier
    ones, which grows from the identity by pointer doubling: ``x -> x s^(2^k)``, k < log2 |G|."""
    n = len(table)
    inside = np.zeros(n, dtype=bool)
    inside[identity] = True
    gens: list[int] = []
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        size = 0
        while size < inside.sum():
            size = inside.sum()
            for s in gens:
                step = table[:, s]
                for _ in range(n.bit_length()):
                    inside[step[inside]] = True
                    step = step[step]
    return gens


@dataclass(frozen=True)
class Irrep:
    """One unitary irreducible representation: a matrix per group element."""

    label: str
    dim: int
    matrices: np.ndarray = field(repr=False)  # shape (order, dim, dim)

    def __post_init__(self):
        mats = np.array(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1:] != (self.dim, self.dim):
            raise InvalidGroupDataError(
                f"irrep {self.label}: expected (order, {self.dim}, {self.dim}) matrices"
            )
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)


@dataclass(frozen=True)
class GroupSpec:
    """A finite group given by its multiplication table and unitary irreps."""

    name: str
    order: int
    mult_table: np.ndarray = field(repr=False)
    irreps: tuple[Irrep, ...] = ()

    def __post_init__(self):
        table = np.array(self.mult_table, dtype=np.int64)
        table.setflags(write=False)
        object.__setattr__(self, "mult_table", table)
        self._validate()

    def _validate(self) -> None:
        n = self.order
        table = self.mult_table
        if table.shape != (n, n):
            raise InvalidGroupDataError(f"{self.name}: mult_table must be {n}x{n}")
        if table.min() < 0 or table.max() >= n:
            raise InvalidGroupDataError(f"{self.name}: mult_table entries out of range")

        # Identity element, and each row/column a permutation (inverses exist).
        idx = np.arange(n)
        identity_rows = np.nonzero((table == idx[None, :]).all(axis=1))[0]
        if len(identity_rows) != 1 or not (table[:, identity_rows[0]] == idx).all():
            raise InvalidGroupDataError(f"{self.name}: no two-sided identity")
        if not ((np.sort(table, axis=1) == idx).all() and (np.sort(table, axis=0) == idx[:, None]).all()):
            raise InvalidGroupDataError(f"{self.name}: rows/columns are not permutations")

        # Light's test: the a with (x a) y = x (a y) for all x, y are closed under products.
        gens = generating_set(table, int(identity_rows[0]))
        for s in gens:
            if not np.array_equal(table[table[:, s]], table[:, table[s]]):
                raise InvalidGroupDataError(f"{self.name}: mult_table is not associative")

        if self.irreps:
            dims_sq = sum(rep.dim**2 for rep in self.irreps)
            if dims_sq != n:
                raise InvalidGroupDataError(
                    f"{self.name}: sum of squared irrep dims {dims_sq} != order {n}"
                )
            for rep in self.irreps:
                mats = rep.matrices
                if mats.shape[0] != n:
                    raise InvalidGroupDataError(
                        f"{self.name}/{rep.label}: need one matrix per element"
                    )
                defect = unitarity_defect(mats)
                if not defect <= IRREP_UNITARY_TOL:
                    raise InvalidGroupDataError(
                        f"{self.name}/{rep.label}: non-unitary matrices (defect {defect:.2e})"
                    )
                # rho(x s) = rho(x) rho(s) for every x and generator s gives every product,
                # by induction on word length; rho(e) rho(s) = rho(s) gives rho(e) = I.
                products = np.einsum("gij,sjk->gsik", mats, mats[gens])
                hom_defect = np.abs(products - mats[table[:, gens]]).max()
                if not hom_defect <= HOMOMORPHISM_TOL:
                    raise InvalidGroupDataError(
                        f"{self.name}/{rep.label}: not a homomorphism (defect {hom_defect:.2e})"
                    )

    @classmethod
    def from_json_dict(cls, data: dict) -> "GroupSpec":
        irreps = tuple(
            Irrep(
                label=item["label"],
                dim=int(item["dim"]),
                matrices=np.array(
                    [
                        [[complex(re, im) for re, im in row] for row in mat]
                        for mat in item["matrices"]
                    ],
                    dtype=complex,
                ),
            )
            for item in data["irreps"]
        )
        return cls(
            name=data["name"],
            order=int(data["order"]),
            mult_table=data["mult_table"],
            irreps=irreps,
        )


class FourierMatrix(MatrixUnitary):
    """The Fourier transform over a finite group: a dense unitary with measurement blocks.

    Row ``r`` corresponds to ``row_index[r] = (label, i, j)`` with ``i, j``
    1-based matrix coordinates inside the irrep; column ``g`` runs over group
    elements.  Entries are ``sqrt(d / |G|) * rep(g)[i-1, j-1]``.
    """

    def __init__(self, matrix: np.ndarray, row_index: tuple[tuple, ...]):
        super().__init__(matrix)
        self.row_index = row_index
        self._blocks = {}  # (label, i) -> rows, in row order
        for r, (lab, i, _j) in enumerate(row_index):
            self._blocks.setdefault((lab, i), []).append(r)

    def rows_for_block(self, label: str, i: int) -> list[int]:
        """Rows ``(label, i, *)``: the measurement block of output label ``(label, i)``."""
        return list(self._blocks.get((label, i), ()))

    def block_labels(self) -> list[tuple[str, int]]:
        """All ``(irrep label, i)`` output labels, in row order."""
        return list(self._blocks)


def group_fourier(group: GroupSpec) -> FourierMatrix:
    """The Fourier matrix of ``group``, filled irrep by irrep and checked once."""
    if not group.irreps:
        raise InvalidGroupDataError(f"{group.name}: no irreps attached")
    n = group.order
    matrix = np.empty((n, n), dtype=complex)
    index = []
    for rep in group.irreps:
        d = rep.dim
        # Rows (rep, i, j) in (i, j) order; GroupSpec checked that the dimensions fill |G| rows.
        rows = (np.sqrt(d / n) * rep.matrices).reshape(n, d * d).T
        matrix[len(index) : len(index) + d * d] = rows
        index += [(rep.label, i + 1, j + 1) for i in range(d) for j in range(d)]
    try:
        return FourierMatrix(matrix, tuple(index))
    except InvalidConfigError as err:
        raise InvalidGroupDataError(f"{group.name}: no unitary Fourier transform: {err}") from err


def qft_cyclic(n: int) -> FourierMatrix:
    """Fourier matrix over Z_n by formula: entry(j, g) = omega^(j g) / sqrt(n), with rows
    ``("chi{j}", 1, 1)`` for the characters chi_j(g) = exp(2 pi i j g / n).  The order is
    checked before anything is allocated; no group is built or validated."""
    if n < 2:
        raise InvalidConfigError("cyclic group needs order >= 2")
    if n > 2**MAX_DENSE_QUBITS:
        raise SizeError(f"cyclic groups capped at order 2^{MAX_DENSE_QUBITS}")
    idx = np.arange(n, dtype=np.int64)
    omega = np.exp(2j * np.pi / n)
    # Exponents reduced mod n keep phases at machine accuracy; each power is made once.
    powers = omega**idx
    matrix = np.sqrt(1 / n) * powers[(idx[:, None] * idx) % n]
    return FourierMatrix(matrix, tuple((f"chi{j}", 1, 1) for j in range(n)))


def builtin_group(name: str) -> GroupSpec:
    """One of the shipped nonabelian examples: ``s3``, ``d4`` or ``q8``."""
    data = json.loads(
        resources.files("oraclelab").joinpath("data/groups.json").read_text("utf-8")
    )
    for item in data["groups"]:
        if item["name"].lower() == name.lower():
            return GroupSpec.from_json_dict(item)
    raise InvalidConfigError(f"no builtin group named {name!r}")

