import hashlib

import numpy as np
import pytest

from oraclelab.dispersion import certify_dispersing
from oraclelab.errors import InvalidConfigError, InvalidGroupDataError, SizeError
from oraclelab.oracle import build_oracle
from oraclelab.simcore import (
    MAX_DENSE_QUBITS,
    FourierMatrix,
    GroupSpec,
    builtin_group,
    fwht_normalized,
    group_fourier,
    qft_cyclic,
    stream,
    unitarity_defect,
)
from oraclelab.simcore import circuits, groups
from oraclelab.simcore.groups import HOMOMORPHISM_TOL, IRREP_UNITARY_TOL, Irrep, generating_set


def cyclic_group(n: int) -> GroupSpec:
    """Z_n with its characters chi_j(g) = exp(2 pi i j g / n): the reference for
    ``qft_cyclic``, whose matrix is ``group_fourier`` of this group byte for byte."""
    idx = np.arange(n, dtype=np.int64)
    omega = np.exp(2j * np.pi / n)
    powers = omega**idx
    irreps = tuple(
        Irrep(f"chi{j}", 1, powers[(j * idx) % n].reshape(n, 1, 1)) for j in range(n)
    )
    return GroupSpec(f"Z{n}", n, (idx[:, None] + idx) % n, irreps)


def xor_group(n_bits: int) -> GroupSpec:
    """The group of n-bit strings under XOR, with parity characters chi_a(g) = (-1)^|a & g|."""
    idx = np.arange(2**n_bits, dtype=np.int64)
    table = idx[:, None] ^ idx
    chars = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx) & 1)
    irreps = tuple(Irrep(f"chi{a}", 1, row.reshape(-1, 1, 1)) for a, row in enumerate(chars))
    return GroupSpec(f"XOR{n_bits}", 2**n_bits, table, irreps)


@pytest.mark.parametrize("name", ["s3", "d4", "q8"])
def test_builtin_groups_validate(name):
    group = builtin_group(name)
    assert sum(rep.dim**2 for rep in group.irreps) == group.order
    fourier = group_fourier(group)
    defect = np.abs(
        fourier.matrix.conj().T @ fourier.matrix - np.eye(group.order)
    ).max()
    assert defect <= 1e-10
    assert len(fourier.row_index) == group.order


def test_z2_fourier_is_hadamard():
    fourier = qft_cyclic(2)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(fourier.matrix, h, atol=1e-15)


def test_cyclic_entry_formula():
    fourier = qft_cyclic(4)
    # entry(1, 3) = omega^3 / 2 = -i/2
    assert abs(fourier.matrix[1, 3] - (-0.5j)) <= 1e-12
    for n in (3, 5, 8):
        f = qft_cyclic(n)
        omega = np.exp(2j * np.pi / n)
        for j in (0, 1, n - 1):
            for g in (0, 1, n - 1):
                assert abs(f.matrix[j, g] - omega ** (j * g) / np.sqrt(n)) <= 1e-12


def test_xor_group_fourier_matches_hadamard_transform():
    fourier = group_fourier(xor_group(3))
    rng = stream(12)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    np.testing.assert_allclose(
        fourier.matrix @ vec, fwht_normalized(vec), atol=1e-12
    )


@pytest.mark.parametrize("name", ["s3", "d4", "q8"])
def test_plancherel_on_random_vectors(name):
    group = builtin_group(name)
    fourier = group_fourier(group)
    rng = stream(13)
    for _ in range(100):
        vec = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        assert abs(
            np.linalg.norm(fourier.matrix @ vec) - np.linalg.norm(vec)
        ) <= 1e-10 * np.linalg.norm(vec)


def test_bad_group_data_rejected():
    group = builtin_group("s3")
    bad_table = np.array(group.mult_table)
    bad_table[0, 1] = bad_table[0, 0]
    with pytest.raises(InvalidGroupDataError):
        GroupSpec("broken", group.order, bad_table, group.irreps)
    # Wrong irrep dimension tally.
    with pytest.raises(InvalidGroupDataError):
        GroupSpec("broken", group.order, group.mult_table, group.irreps[:2])


def test_fourier_block_lookup():
    fourier = group_fourier(builtin_group("q8"))
    blocks = fourier.block_labels()
    assert ("spinor", 1) in blocks and ("spinor", 2) in blocks
    rows = fourier.rows_for_block("spinor", 1)
    assert len(rows) == 2
    assert fourier.row_index[rows[0]] == ("spinor", 1, 1)


def test_s3_transform_is_refused_by_register_uses_before_any_work(monkeypatch):
    fourier = group_fourier(builtin_group("s3"))

    def refuse(self, vec):
        raise AssertionError("ran the order-6 transform before refusing it")

    monkeypatch.setattr(FourierMatrix, "rows", refuse)
    uses = (
        lambda: certify_dispersing(fourier, 1.0),
        lambda: build_oracle(fourier, range(4)),
    )
    for use in uses:
        with pytest.raises(InvalidConfigError, match="not a power of two"):
            use()
    assert group_fourier(builtin_group("d4")).n_qubits == 3


def test_repeated_character_is_refused_by_the_transform():
    # Two copies of the trivial character pass every check of GroupSpec: the
    # dimensions tally and each is a unitary homomorphism.  Only the Fourier
    # matrix, whose two rows coincide, shows that they are not the irreps of Z2.
    trivial = Irrep("trivial", 1, np.ones((2, 1, 1)))
    group = GroupSpec("Z2-trivial-twice", 2, cyclic_group(2).mult_table, (trivial, trivial))
    with pytest.raises(InvalidGroupDataError, match="not unitary"):
        group_fourier(group)


def test_fourier_build_does_one_unitarity_product(monkeypatch):
    built = [cyclic_group(16), xor_group(3), builtin_group("s3"), builtin_group("q8")]
    shapes = []

    def counted(matrix):
        shapes.append(np.shape(matrix))
        return unitarity_defect(matrix)

    monkeypatch.setattr(circuits, "unitarity_defect", counted)
    monkeypatch.setattr(groups, "unitarity_defect", counted)
    for group in built:
        shapes.clear()
        group_fourier(group)
        assert shapes == [(group.order, group.order)], group.name
    shapes.clear()
    qft_cyclic(16)
    assert shapes == [(16, 16)]


def reference_verdict(order, table, irreps) -> bool:
    """The O(|G|^3) validator: all-triples associativity, all-pairs homomorphism."""
    table = np.asarray(table)
    idx = np.arange(order)
    latin = (np.sort(table, axis=1) == idx).all() and (np.sort(table, axis=0) == idx[:, None]).all()
    if not latin:
        return False
    identities = [e for e in range(order) if (table[e] == idx).all() and (table[:, e] == idx).all()]
    if len(identities) != 1 or not (table[table, :] == table[:, table]).all():
        return False
    if irreps and sum(rep.dim**2 for rep in irreps) != order:
        return False
    for rep in irreps:
        mats = rep.matrices
        unitary = np.einsum("gij,gik->gjk", mats.conj(), mats) - np.eye(rep.dim)
        if not np.abs(unitary).max() <= IRREP_UNITARY_TOL:
            return False
        products = np.einsum("gij,hjk->ghik", mats, mats)
        if not np.abs(products - mats[table]).max() <= HOMOMORPHISM_TOL:
            return False
    return True


def fast_verdict(order, table, irreps) -> bool:
    try:
        GroupSpec("candidate", order, table, irreps)
    except InvalidGroupDataError:
        return False
    return True


def _with_matrices(group, label, edit):
    """``group``'s irreps with ``edit`` applied to a copy of irrep ``label``'s matrices."""
    irreps = []
    for rep in group.irreps:
        if rep.label == label:
            mats = np.array(rep.matrices)
            edit(mats)
            rep = Irrep(rep.label, rep.dim, mats)
        irreps.append(rep)
    return tuple(irreps)


def intercalate_loop():
    """Z_32 with the intercalate at rows 3, 19 and columns 5, 21 swapped: a
    Latin square with a two-sided identity that is not associative."""
    table = np.array(cyclic_group(32).mult_table)
    rows, cols = np.ix_([3, 19], [5, 21])
    table[rows, cols] = table[rows, cols][::-1]
    return table


def corrupted_cases():
    s3 = builtin_group("s3")
    z16 = cyclic_group(16)
    xor2 = xor_group(2)

    def perturb(mats):  # element 3 is not a generator of s3
        mats[3] *= np.exp(1e-6j)

    def swap(mats):
        mats[[3, 5]] = mats[[5, 3]]

    def poison(mats):
        mats[3] = np.nan

    def second_generator(mats):  # rho(x ^ 1) = rho(x) rho(1) holds; rho(2)^2 = -1
        mats[:, 0, 0] = [1, 1, 1j, 1j]

    return {
        "loop": (32, intercalate_loop(), ()),
        "s3-perturbed": (6, s3.mult_table, _with_matrices(s3, "standard", perturb)),
        "z16-swapped": (16, z16.mult_table, _with_matrices(z16, "chi1", swap)),
        "xor2-phases": (4, xor2.mult_table, _with_matrices(xor2, "chi2", second_generator)),
        "s3-nan": (6, s3.mult_table, _with_matrices(s3, "sign", poison)),
    }


def test_generating_sets():
    assert generating_set(cyclic_group(12).mult_table, 0) == [1]
    assert generating_set(xor_group(4).mult_table, 0) == [1, 2, 4, 8]
    for name, gens in (("s3", [1, 2]), ("d4", [1, 4]), ("q8", [1, 2, 4])):
        assert generating_set(builtin_group(name).mult_table, 0) == gens


def test_non_associative_table_refused():
    with pytest.raises(InvalidGroupDataError, match="associative"):
        GroupSpec("loop", 32, intercalate_loop())


@pytest.mark.parametrize(
    "case, defect",
    [
        ("s3-perturbed", "not a homomorphism"),
        ("z16-swapped", "not a homomorphism"),
        ("xor2-phases", "not a homomorphism"),
        ("s3-nan", "non-unitary"),
    ],
)
def test_corrupted_irrep_refused(case, defect):
    order, table, irreps = corrupted_cases()[case]
    with pytest.raises(InvalidGroupDataError, match=defect):
        GroupSpec(case, order, table, irreps)


def test_fast_validator_agrees_with_reference():
    groups_ok = [builtin_group(name) for name in ("s3", "d4", "q8")]
    groups_ok += [cyclic_group(n) for n in range(2, 33)]
    groups_ok += [xor_group(k) for k in range(1, 5)]
    cases = [(g.order, g.mult_table, g.irreps) for g in groups_ok]
    for case in cases:
        assert reference_verdict(*case) and fast_verdict(*case)
    for name, case in corrupted_cases().items():
        assert not reference_verdict(*case) and not fast_verdict(*case), name


@pytest.mark.parametrize(
    "order, digest",
    [
        (8, "ba8a95fe0ccedba914da66c4c51fe57c74d913c283574fce9abaa01791323052"),
        (256, "e375b2bd1d9466d150bb52e29583e518d468d514249a1d46014def47d8c8850f"),
    ],
)
def test_qft_entries_are_pinned(order, digest):
    assert hashlib.sha256(qft_cyclic(order).matrix.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("order", [*range(2, 65), *(2**k for k in range(7, 12)), 1000, 3000])
def test_qft_cyclic_is_the_fourier_matrix_of_the_cyclic_group_byte_for_byte(order):
    fourier = qft_cyclic(order)
    # One matrix at a time: at order 3000 each takes 144 MiB.
    digest, row_index = hashlib.sha256(fourier.matrix.tobytes()).digest(), fourier.row_index
    del fourier
    reference = group_fourier(cyclic_group(order))
    assert hashlib.sha256(reference.matrix.tobytes()).digest() == digest
    assert row_index == reference.row_index


def test_cyclic_group_requires_order_two():
    for n in (-1, 0, 1):
        with pytest.raises(InvalidConfigError):
            qft_cyclic(n)


def test_group_order_cap_checked_before_any_allocation(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used before the order check")

    monkeypatch.setattr(groups, "np", NoNumpy())
    with pytest.raises(InvalidConfigError):
        qft_cyclic(1)
    with pytest.raises(SizeError):
        qft_cyclic(2**MAX_DENSE_QUBITS + 1)


def test_a_mult_table_is_copied_read_only_as_int64():
    z8 = cyclic_group(8)
    assert z8.mult_table.dtype == np.int64 and not z8.mult_table.flags.writeable
    writable = np.array(z8.mult_table)
    copied = GroupSpec("Z8-copy", 8, writable, z8.irreps)
    assert not np.shares_memory(copied.mult_table, writable)
    assert not copied.mult_table.flags.writeable
    writable[:] = 0
    assert np.array_equal(copied.mult_table, z8.mult_table)
    for table in (z8.mult_table.astype(np.int32), z8.mult_table.tolist()):
        spec = GroupSpec("Z8-converted", 8, table, z8.irreps)
        assert spec.mult_table.dtype == np.int64 and not spec.mult_table.flags.writeable
