from fractions import Fraction

import numpy as np
import pytest
from conftest import double_of
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrob import GF, QQ, InvalidInputError, algebra, linalg
from hopfrob.algebra import (
    StructureAlgebra,
    entry_keys,
    first_mismatch,
    is_augmentation,
    matrix_keys,
    mismatches,
    opposite,
    product_cover,
    vec_to_row,
    verify_algebra,
)
from hopfrob.catalog import cyclic_table, entry, group_algebra, names
from hopfrob.hopfcore import dual_hopf


def qc2_alg():
    return entry("qc2").hopf.alg


def sweedler_alg():
    return entry("sweedler").hopf.alg


# -- verify_algebra -----------------------------------------------------------


def test_group_algebra_passes():
    assert verify_algebra(qc2_alg()).passed


def test_sweedler_algebra_passes():
    assert verify_algebra(sweedler_alg()).passed


def test_perturbed_tensor_fails():
    A = qc2_alg()
    mul = dict(A.mul)
    mul[(0, 0)] = mul.get((0, 0), ()) + ((0, 1),)
    bad = StructureAlgebra.from_sparse(A.field, A.dim, mul, A.unit)
    rep = verify_algebra(bad)
    assert not rep.passed
    by_name = {it.name: it for it in rep.items}
    # the perturbed entry breaks the unit law at basis 0 immediately
    assert not by_name["unit law"].ok
    assert "basis 0" in by_name["unit law"].detail
    # associativity first fails once a non-identity factor is involved:
    # (e0 e0)e1 = 2 e1 but e0(e0 e1) = e1
    assert not by_name["associativity"].ok
    assert by_name["associativity"].detail == "fails at triple (0, 0, 1)"


# -- multiply ------------------------------------------------------------------


def test_multiply_by_unit():
    A = sweedler_alg()
    v = (Fraction(3), Fraction(-1), Fraction(2), Fraction(5, 7))
    assert A.multiply(A.unit, v) == v
    assert A.multiply(v, A.unit) == v


def test_qc2_g_squared():
    A = qc2_alg()
    g = A.basis_vector(1)
    assert A.multiply(g, g) == A.unit


def test_sweedler_anticommutation():
    A = sweedler_alg()
    g, x = A.basis_vector(1), A.basis_vector(2)
    xg = A.multiply(x, g)
    gx = A.multiply(g, x)
    assert xg == tuple(-c for c in gx)
    assert gx == A.basis_vector(3)


def test_mult_matrices_agree_with_multiply():
    A = sweedler_alg()
    a = (Fraction(1), Fraction(2), Fraction(0), Fraction(-1))
    L = A.left_mult_matrix(a)
    R = A.right_mult_matrix(a)
    for i in range(A.dim):
        e = A.basis_vector(i)
        assert L.apply(e) == A.multiply(a, e)
        assert R.apply(e) == A.multiply(e, a)


# -- opposite ------------------------------------------------------------------


def test_opposite_of_commutative_is_same():
    A = entry("qc3").hopf.alg
    assert opposite(A) == A


def test_opposite_swaps_sweedler_products():
    A = sweedler_alg()
    op = opposite(A)
    assert op.mul[(1, 2)] == A.mul[(2, 1)]
    assert op.mul[(2, 1)] == A.mul[(1, 2)]
    assert verify_algebra(op).passed


def test_opposite_is_involution():
    for key in ("qc2", "qs3", "sweedler", "taft-3-7-2"):
        A = entry(key).hopf.alg
        assert opposite(opposite(A)) == A


# -- augmentations -------------------------------------------------------------


def test_counit_is_augmentation():
    H = entry("sweedler").hopf
    assert is_augmentation(H.alg, H.counit)
    assert not is_augmentation(H.alg, (QQ.one(),) * 4)


# -- properties ----------------------------------------------------------------

vec7 = st.tuples(*[st.integers(0, 6)] * 3)


@given(vec7, vec7, vec7)
@settings(max_examples=50, deadline=None)
def test_multiply_is_bilinear(a, a2, b):
    A = entry("f7c3").hopf.alg
    F = A.field
    left = A.multiply(tuple(F.normalize(x + y) for x, y in zip(a, a2)), b)
    split = tuple(
        F.normalize(p + q)
        for p, q in zip(A.multiply(a, b), A.multiply(a2, b))
    )
    assert left == split


@given(vec7, vec7)
@settings(max_examples=50, deadline=None)
def test_multiply_rows_matches_multiply(a, b):
    A = entry("f7c3").hopf.alg
    F = A.field
    ra, rb = vec_to_row(F, a), vec_to_row(F, b)
    dense = A.multiply(a, b)
    assert A.multiply_rows(ra, rb) == vec_to_row(F, dense)


def test_from_sparse_rejects_bad_indices():
    with pytest.raises(Exception):
        StructureAlgebra.from_sparse(QQ, 2, {(0, 5): ((0, 1),)}, (1, 0))


def test_group_check_rejects_non_group():
    with pytest.raises(InvalidInputError):
        group_algebra(((0, 1), (1, 1)), QQ)
    with pytest.raises(InvalidInputError):
        group_algebra(((1, 0), (1, 0)), QQ)


def test_cyclic_table_shape():
    t = cyclic_table(4)
    assert t[1][3] == 0 and t[2][3] == 1


# -- product_cover ---------------------------------------------------------------


def _checked_cover(A) -> tuple:
    """The generators of product_cover(A), after checking each step (k, a,
    b): e_a e_b is one nonzero term, at e_k, and a and b are generators or
    earlier steps; and that every basis index is reached."""
    gens, steps = product_cover(A)
    assert list(gens) == sorted(set(gens))
    reached = set(gens)
    for k, a, b in steps:
        assert a in reached and b in reached and k not in reached
        ((at, c),) = A.mul[(a, b)]
        assert at == k and c != A.field.zero()
        reached.add(k)
    assert reached == set(range(A.dim))
    return gens


@pytest.mark.parametrize("key", names())
def test_cover_steps_reach_every_basis_vector(key):
    """On every catalog entry, its dual and its double (up to
    D(taft-4-5-2), dim 256)."""
    H = entry(key).hopf
    for A in (H.alg, dual_hopf(H).alg, double_of(key).alg):
        _checked_cover(A)


def test_cover_of_the_large_doubles_is_no_larger_than_their_construction():
    """D(taft-3-7-2) and D(taft-4-5-2) are generated by the 2 dim(H)
    elements f_a (x) 1 and eps (x) e_i of their construction (18 and 32);
    the cover read off their tables has at most as many."""
    assert len(_checked_cover(double_of("taft-3-7-2").alg)) <= 18
    assert len(_checked_cover(double_of("taft-4-5-2").alg)) <= 32


@st.composite
def _sparse_tables(draw):
    """A random mul table over GF(7) of dim 1 to 8; when several is drawn,
    every product has at least two terms, so no row is single-term."""
    dim = draw(st.integers(1, 8))
    several = dim > 1 and draw(st.booleans())
    index = st.integers(0, dim - 1)
    mul = {}
    for key in draw(st.sets(st.tuples(index, index), max_size=dim * dim)):
        at = draw(st.sets(index, min_size=2 if several else 1, max_size=3))
        mul[key] = [(k, draw(st.integers(1, 6))) for k in sorted(at)]
    return StructureAlgebra.from_sparse(GF(7), dim, mul, [1] + [0] * (dim - 1))


@settings(max_examples=100, deadline=None)
@given(_sparse_tables())
def test_cover_of_random_sparse_tables(A):
    """Every step of the cover is a single-term product of earlier ones; on
    a table with no single-term row every basis vector is a generator."""
    gens = _checked_cover(A)
    if all(len(row) > 1 for row in A.mul.values()):
        assert gens == tuple(range(A.dim))


# -- comparing the two sides of an identity mod p --------------------------------


def _differing_by_definition(lhs: dict, rhs: dict) -> list:
    """The cells (row, col), in order, where two matrices given as
    {(row, col): value} differ."""
    return sorted(cell for cell in lhs.keys() | rhs.keys() if lhs.get(cell) != rhs.get(cell))


@pytest.mark.parametrize("past", [0, 1])
def test_packed_comparison_at_its_bound(past):
    """With p the largest prime below 2^31 and the widest shape the packed
    keys admit (rows*width*p < 2^63), entries at p - 1 in the last cell make
    the widest key, and the sides are int64 keys; one column wider they are
    the (cell, value) fallback.  Both give the cells where the sides differ
    by definition: equal sides, a cell that differs only in value, and a
    cell on one side only."""
    p, rows = 2**31 - 1, 4
    width = (2**63 - 1) // (p * rows) + past
    assert (rows * width * p < 2**63) == (not past)
    last = (rows - 1, width - 1)
    base = {(0, 5): 3, (1, width - 1): p - 1, (2, 0): 1, last: p - 1}
    cases = [
        (base, dict(base)),
        (base, {**base, last: p - 2}),
        (base, {**base, (2, 0): 2, (0, 4): 1}),
        (base, {cell: c for cell, c in base.items() if cell != (0, 5)}),
    ]
    for lhs, rhs in cases:
        keys = [
            entry_keys(
                np.array([r * width + c for r, c in side], dtype=np.int64),
                np.array(list(side.values()), dtype=np.int64),
                rows * width,
                p,
            )
            for side in (lhs, rhs)
        ]
        assert [k.ndim for k in keys] == [1 + past] * 2
        want = _differing_by_definition(lhs, rhs)
        rs, cs = mismatches(*keys, width, p)
        assert list(zip(rs.tolist(), cs.tolist())) == want
        assert first_mismatch(*keys, width, p) == (want[0] if want else None)


def _unsorted_csr(M, rng):
    """The dense matrix M as a linalg.CSR matrix whose rows hold their
    columns in a random order."""
    C = linalg.dense_csr(M)
    for a, b in zip(C.indptr[:-1], C.indptr[1:]):
        perm = a + rng.permutation(b - a)
        C.indices[a:b], C.data[a:b] = C.indices[perm], C.data[perm]
    return C


@pytest.mark.parametrize("seed", range(25))
def test_comparison_of_unsorted_sparse_matrices(seed):
    """Seeded pairs of reduced matrices mod 7 with unsorted rows, one side
    moved at a few cells (to another nonzero value, to zero, or from zero):
    first_mismatch and mismatches of their matrix_keys are the dense
    comparison."""
    rng = np.random.default_rng(seed)
    p = 7
    shape = tuple(int(x) for x in rng.integers(1, 9, size=2) * (1, 5))
    A = rng.integers(1, p, size=shape) * (rng.random(shape) < 0.4)
    B = A.copy()
    for _ in range(int(rng.integers(0, 4))):
        r, c = rng.integers(0, shape[0]), rng.integers(0, shape[1])
        B[r, c] = (B[r, c] + rng.integers(1, p)) % p
    lhs, rhs = (matrix_keys(_unsorted_csr(M, rng), p) for M in (A, B))
    want = [tuple(x) for x in np.argwhere(A != B).tolist()]
    rs, cs = mismatches(lhs, rhs, shape[1], p)
    assert list(zip(rs.tolist(), cs.tolist())) == want
    assert first_mismatch(lhs, rhs, shape[1], p) == (want[0] if want else None)


# -- table arrays ---------------------------------------------------------------


@pytest.mark.parametrize("key", [*names(), "D(qs3)"])
def test_table_arrays_of_the_scalar_engine_hold_each_table_in_order(key):
    """Under the key None (the Python-scalar engine) the mul and comul
    arrays hold each term of the table in table order: the int64 indices,
    and the table's own scalars, none zero, as an object array.  They are
    kept on the owner."""
    H = double_of("qs3") if key == "D(qs3)" else entry(key).hopf
    i, j, k, c = algebra.structure_arrays(H.alg, None)
    mul = [(a, b, m, x) for (a, b), row in H.alg.mul.items() for m, x in row]
    m, u, v, d = algebra.comul_arrays(H, None)
    comul = [(a, b, e, x) for a, terms in H.comul.items() for b, e, x in terms]
    for arrays, terms in (((i, j, k, c), mul), ((m, u, v, d), comul)):
        assert [a.dtype for a in arrays] == [np.int64] * 3 + [object]
        assert list(zip(*(a.tolist() for a in arrays))) == terms
        assert all(arrays[3]) and not any(a.flags.writeable for a in arrays)
    assert algebra.structure_arrays(H.alg, None) is algebra.structure_arrays(H.alg, None)
    assert algebra.comul_arrays(H, None) is algebra.comul_arrays(H, None)
