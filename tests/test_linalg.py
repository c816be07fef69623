import math
import random
from fractions import Fraction
from itertools import islice, permutations
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import csr_dense, double_of, engine_primes_of
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrob import GF, QQ, ShapeError, SingularError, linalg
from hopfrob.catalog import entry, names
from hopfrob.linalg import (
    Matrix,
    basis_vec,
    canonical_basis,
    machine_prime,
    mulmod,
    vadd,
    vscale,
)
from hopfrob.linalg import _rref_generic, _rref_modp_numpy

F7 = GF(7)


# -- independent oracles ----------------------------------------------------


def brute_kernel_f7_1x2(row):
    """All (x,y) in F7^2 with row . (x,y) = 0, by full enumeration."""
    a, b = row
    return sorted((x, y) for x in range(7) for y in range(7) if (a * x + b * y) % 7 == 0)


# -- kernel -----------------------------------------------------------------


def test_kernel_rank1_symmetric_qq():
    M = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert M.kernel() == ((Fraction(1), Fraction(-1)),)


def test_kernel_identity_empty():
    assert Matrix.identity(QQ, 3).kernel() == ()
    assert Matrix.identity(F7, 3).kernel() == ()


def test_kernel_f7_matches_enumeration_oracle():
    M = Matrix.from_rows(F7, [[2, 4]])
    basis = M.kernel()
    assert basis == ((1, 3),)
    # oracle: the span of the canonical vector is exactly the enumerated kernel
    v = basis[0]
    spanned = sorted({((c * v[0]) % 7, (c * v[1]) % 7) for c in range(7)})
    assert spanned == brute_kernel_f7_1x2((2, 4))


def test_kernel_vectors_annihilate():
    M = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    basis = M.kernel()
    assert len(basis) == 1
    for v in basis:
        assert all(x == 0 for x in M.apply(v))


# -- solve --------------------------------------------------------------------


def test_solve_identity():
    M = Matrix.identity(QQ, 2)
    assert M.solve([3, 4]) == (Fraction(3), Fraction(4))


def test_solve_inconsistent_returns_none():
    M = Matrix.from_rows(QQ, [[1, 1], [2, 2]])
    assert M.solve([1, 3]) is None


def test_solve_back_substitution_oracle():
    M = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    rhs = (Fraction(5, 6), Fraction(1, 3))
    x = M.solve(rhs)
    # oracle by hand back-substitution: x1 = 1/3, x0 = 5/6 - 1/3 = 1/2
    assert x == (Fraction(1, 2), Fraction(1, 3))
    assert M.apply(x) == rhs


def test_solve_underdetermined_sets_free_vars_to_zero():
    M = Matrix.from_rows(QQ, [[1, 1, 0]])
    x = M.solve([5])
    assert x == (Fraction(5), Fraction(0), Fraction(0))


def test_solve_matrix_columnwise():
    M = Matrix.from_rows(F7, [[2, 1], [1, 1]])
    rhs = Matrix.identity(F7, 2)
    X = M.solve_matrix(rhs)
    assert M.mul(X) == rhs


def _solve_columnwise(A, B):
    """Reference for solve_matrix: one solve per column of B."""
    cols = [A.solve(B.col(j)) for j in range(B.ncols)]
    return None if None in cols else Matrix.from_columns(A.field, cols)


@pytest.mark.parametrize("field,n", [(QQ, 5), (F7, 6), (GF(2**31 - 1), 48)])
def test_solve_matrix_is_columnwise_solve(field, n):
    """On invertible, rank-deficient and inconsistent systems; at n = 48 the
    augmented [A | B] runs on the int64 engine, the columnwise solves do not."""
    rng = random.Random(n)

    def rand(m, k):
        return Matrix.from_rows(field, [[rng.randint(-9, 9) for _ in range(k)] for _ in range(m)])

    invertible = rand(n, n)
    while invertible.rank() < n:
        invertible = rand(n, n)
    deficient = rand(n, 2).mul(rand(2, n))
    inconsistent = Matrix(field, (*rand(n - 1, n - 1).rows, basis_vec(field, n - 1, 0)))
    cases = [
        (invertible, rand(n, n - 1), True),
        (deficient, deficient.mul(rand(n, n - 1)), True),
        (deficient, inconsistent, False),
    ]
    for A, B, solvable in cases:
        want = _solve_columnwise(A, B)
        assert (want is not None) == solvable
        assert want is None or A.mul(want) == B
        assert A.solve_matrix(B) == want
    with pytest.raises(ShapeError):
        invertible.solve_matrix(rand(n + 1, 2))


# -- inverse / det ------------------------------------------------------------


def test_inverse_qq():
    M = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    Minv = M.inverse()
    assert M.mul(Minv).is_identity()
    assert Minv.mul(M).is_identity()


def test_inverse_singular_raises():
    with pytest.raises(SingularError):
        Matrix.from_rows(QQ, [[1, 1], [1, 1]]).inverse()


@pytest.mark.parametrize("rows", [[[1, 2], [0, 0]], [[1, 0], [2, 0]], [[0] * 80] * 80])
def test_inverse_of_a_zero_line_raises_before_elimination(rows, monkeypatch):
    """A zero row or column is found without eliminating, on _nonzero as
    from_entries seeds it and as an unseeded Matrix(field, rows) reads it."""
    monkeypatch.setattr(linalg, "_rref", None)  # any elimination would raise TypeError
    monkeypatch.setattr(linalg, "_rref_modp_numpy", None)
    n = len(rows)
    entries = [((i, j), x) for i, r in enumerate(rows) for j, x in enumerate(r) if x]
    seeded = Matrix.from_entries(F7, n, n, entries)
    assert "_nonzero" in vars(seeded)
    for M in (Matrix.from_rows(F7, rows), Matrix(F7, tuple(map(tuple, rows))), seeded):
        with pytest.raises(SingularError):
            M.inverse()


def _invertible_rows(rng, p, n):
    """A random n x n matrix mod p that is invertible: a unit lower times a
    unit upper triangular matrix, with a random nonzero diagonal."""
    lower = [[rng.randrange(p) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [
        [rng.randrange(1, p) if i == j else rng.randrange(p) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    return [[sum(a * b for a, b in zip(r, c)) % p for c in zip(*upper)] for r in lower]


@pytest.mark.parametrize("n", [45, 46, 64])
@pytest.mark.parametrize("p", [5, 7, 2146560523])
def test_int64_inverse_matches_the_generic_engine(n, p, generic_engine):
    """Matrix.inverse over GF(p) on both sides of _NUMPY_CELLS (the 45 x 90
    augmented matrix stays below it, 46 x 92 does not) equals the Python-
    scalar inverse, and raises SingularError where it does: on a matrix
    singular only in its last column (its first n - 1 pivots exist) and on
    one with a zero row."""
    field = GF(p)
    assert (2 * n * n >= linalg._NUMPY_CELLS) == (n > 45)
    rng = random.Random(n * p)
    rows = _invertible_rows(rng, p, n)
    # the last column a combination of the others
    weights = [rng.randrange(p) for _ in range(n - 1)]
    last = [[*r[:-1], sum(w * x for w, x in zip(weights, r)) % p] for r in rows]
    zero_row = [*rows[:-1], [0] * n]
    cases = [Matrix.from_rows(field, m) for m in (rows, last, zero_row)]

    def inverses():
        out = []
        for M in cases:
            try:
                out.append(M.inverse())
            except SingularError:
                out.append(None)
        return out

    int64 = inverses()
    assert int64[0] is not None and int64[1:] == [None, None]
    assert cases[0].mul(int64[0]).is_identity()
    generic_engine()
    assert inverses() == int64


def test_det_examples():
    assert Matrix.from_rows(QQ, [[1, 2], [3, 4]]).det() == Fraction(-2)
    assert Matrix.from_rows(F7, [[2, 0], [0, 4]]).det() == 1  # 8 mod 7
    assert Matrix.from_rows(QQ, [[1, 1], [1, 1]]).det() == 0
    assert Matrix.identity(QQ, 5).det() == 1


def test_det_multiplicative_small():
    A = Matrix.from_rows(F7, [[1, 2], [3, 4]])
    B = Matrix.from_rows(F7, [[5, 6], [0, 2]])
    assert A.mul(B).det() == (A.det() * B.det()) % 7


def test_pow():
    A = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert A.pow_(0).is_identity()
    assert A.pow_(1) == A
    assert A.pow_(2).is_identity()
    assert A.pow_(7) == A


@pytest.mark.parametrize("key", names())
def test_pow_squares_from_the_first_power(key):
    """pow_(k) on a catalog antipode makes popcount(k) + floor(log2 k) - 1
    products, none by the identity, and equals S times itself k times."""
    S = entry(key).hopf.antipode
    want = Matrix.identity(S.field, S.nrows)
    mul = Matrix.mul
    for k in range(9):
        calls = []
        with mock.patch.object(Matrix, "mul", lambda a, b: calls.append(1) or mul(a, b)):
            got = S.pow_(k)
        assert got == want
        assert len(calls) == (bin(k).count("1") + k.bit_length() - 2 if k else 0)
        want = want.mul(S)


def test_shape_errors():
    with pytest.raises(ShapeError):
        Matrix.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix.from_rows(QQ, [[1, 2]]).mul(Matrix.from_rows(QQ, [[1, 2]]))
    with pytest.raises(ShapeError):
        Matrix.from_rows(QQ, [[1, 2]]).det()


# -- from_entries -------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "GF7"])
@pytest.mark.parametrize("seed", range(30))
def test_from_entries_is_a_dense_accumulation(field, seed):
    """Random unnormalized entries with repeated keys, sums that cancel to
    zero and untouched rows give from_rows of their dense accumulation; the
    rows no entry names are one shared zero tuple."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    named = rng.sample(range(m), rng.randint(0, m))
    entries = []
    for _ in range(rng.randint(1, 3 * n) * len(named)):
        key = (rng.choice(named), rng.randrange(n))
        c = rng.choice([rng.randint(-20, 20), Fraction(rng.randint(-9, 9), rng.randint(1, 5))])
        if field is F7 and isinstance(c, Fraction):
            c = c.numerator
        entries.append((key, c))
        if rng.random() < 0.3:
            # cancel c, adding a multiple of 7 over GF(7) or a zero over QQ
            entries.append((key, -c))
            entries.append((key, rng.randint(-3, 3) * (7 if field is F7 else 0)))
    rng.shuffle(entries)
    dense = [[0] * n for _ in range(m)]
    for (i, j), c in entries:
        dense[i][j] += c

    M = Matrix.from_entries(field, m, n, iter(entries))
    assert M.rows == Matrix.from_rows(field, dense).rows
    assert all(type(x) is type(field.zero()) for r in M.rows for x in r)
    untouched = [M.rows[i] for i in range(m) if i not in named]
    assert len({id(r) for r in untouched}) <= 1
    assert all(r == (field.zero(),) * n for r in untouched)


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "GF7"])
@pytest.mark.parametrize("seed", range(10))
def test_from_entries_seeds_the_nonzero_entries_it_fills(field, seed):
    """The _nonzero that from_entries seeds from its named cells equals the
    one a scan of the rows reads, cells whose entries sum to zero and
    rows no entry names included."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    entries = []
    for _ in range(rng.randint(0, 3 * m * n)):
        key, c = (rng.randrange(m), rng.randrange(n)), rng.randint(-9, 9)
        entries += [(key, c), (key, -c)] if rng.random() < 0.3 else [(key, c)]
    rng.shuffle(entries)
    M = Matrix.from_entries(field, m, n, entries)
    seeded = vars(M)["_nonzero"]
    assert seeded == Matrix(field, M.rows)._nonzero


@pytest.mark.parametrize("name", [*names(), "D(taft-3-7-2)*", "zero rows"])
def test_transpose_keeps_the_nonzero_seed(name):
    """A matrix whose _nonzero is known (read once, or seeded by
    from_entries) hands its transpose a seeded _nonzero, equal to the one a
    scan of the transposed rows reads: every catalog antipode, the antipode
    of the dual of D(taft-3-7-2) (dual_hopf transposes it) and a
    from_entries matrix with zero rows.  One not yet read hands none."""
    if name == "zero rows":
        M = Matrix.from_entries(F7, 5, 3, [((1, 2), 3), ((3, 0), 1), ((3, 0), 6)])
    elif name.endswith("*"):
        M = double_of(name[2:-2]).dual.antipode
        assert "_nonzero" in vars(M)
    else:
        M = entry(name).hopf.antipode
        assert "_nonzero" not in vars(Matrix(M.field, M.rows).transpose())
        M._nonzero
    T = M.transpose()
    assert "_nonzero" in vars(T)
    assert vars(T)["_nonzero"] == Matrix(T.field, T.rows)._nonzero
    assert T.transpose().rows == M.rows


@pytest.mark.parametrize("seed", range(20))
def test_csr_matches_the_coo_build(seed):
    """linalg.csr gives the matrix and the value dtype of scipy's COO build
    on random entries with unsorted rows, repeated cells and empty rows,
    and int32 indices at these shapes."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    nnz = int(rng.integers(0, 3 * m * n))
    # rows drawn from a part of the range, so that some rows stay empty
    rows = rng.integers(0, max(1, m // 2), nnz) * 2
    cols = rng.integers(0, n, nnz)
    vals = rng.integers(1, 7, nnz)
    got = linalg.csr(vals, rows, cols, (m, n))
    want = sp.csr_matrix((vals, (rows, cols)), shape=(m, n))
    assert got.shape == want.shape and got.data.dtype == want.data.dtype == np.int64
    assert got.indices.dtype == got.indptr.dtype == np.int32
    assert np.array_equal(csr_dense(got), want.toarray())
    assert np.array_equal(np.diff(got.indptr), np.bincount(rows, minlength=m))


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (3, 0), (0, 4), (7, 9), (1, -4)])
def test_from_entries_rejects_keys_outside_the_shape(key):
    """A negative or too large row or column key raises, where a list
    indexed by it would wrap or overflow."""
    with pytest.raises(ShapeError):
        Matrix.from_entries(QQ, 3, 4, [((0, 0), 1), (key, 1), ((2, 3), 1)])


# -- span helpers -------------------------------------------------------------


def test_canonical_basis_dedupes_and_orders():
    vs = [(0, 2, 4), (0, 1, 2), (0, 3, 6)]
    assert canonical_basis(QQ, [[QQ.normalize(x) for x in v] for v in vs]) == (
        (Fraction(0), Fraction(1), Fraction(2)),
    )


def test_equal_spans_share_one_canonical_basis():
    assert canonical_basis(QQ, [[1, 1], [1, -1]]) == canonical_basis(QQ, [[1, 0], [0, 1]])
    assert canonical_basis(QQ, [[1, 1]]) != canonical_basis(QQ, [[1, 0], [0, 1]])


def test_vector_helpers():
    assert vadd(F7, (3, 5), (6, 6)) == (2, 4)
    assert vscale(F7, 3, (1, 2, 3)) == (3, 6, 2)
    assert basis_vec(QQ, 3, 1) == (Fraction(0), Fraction(1), Fraction(0))


# -- properties ---------------------------------------------------------------

small_f7_matrix = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(small_f7_matrix)
@settings(max_examples=60, deadline=None)
def test_rank_nullity_f7(rows):
    M = Matrix.from_rows(F7, rows)
    assert M.rank() + len(M.kernel()) == M.ncols


@given(small_f7_matrix, st.data())
@settings(max_examples=60, deadline=None)
def test_solve_roundtrip_f7(rows, data):
    M = Matrix.from_rows(F7, rows)
    x = tuple(data.draw(st.integers(0, 6)) for _ in range(M.ncols))
    rhs = M.apply(x)
    sol = M.solve(rhs)
    assert sol is not None
    assert M.apply(sol) == rhs


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 12), min_size=n, max_size=n), min_size=2, max_size=9
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_numpy_modp_rref_matches_generic(rows):
    F13 = GF(13)
    normalized = [[F13.normalize(x) for x in r] for r in rows]
    g_rows, g_piv = _rref_generic(F13, [list(r) for r in normalized])
    n_rows, n_piv = _rref_modp_numpy([list(r) for r in normalized], 13)
    n_rows = n_rows.tolist()
    assert g_rows == n_rows
    assert g_piv == n_piv


# -- the int64 engine: gate and exact product ----------------------------------------

MERSENNE_31 = 2**31 - 1


def test_machine_prime_gates_on_the_field_alone():
    assert machine_prime(F7) == 7
    assert machine_prime(GF(MERSENNE_31)) == MERSENNE_31
    assert machine_prime(GF(2147483659)) is None  # the least prime above 2^31
    assert machine_prime(QQ) is None


def test_engine_primes_meet_the_crt_bound_and_avoid_denominators():
    """One prime for an admitted GF(p); over QQ the primes below 2^31, largest
    first, skipping any that divides a denominator, until their product
    exceeds 2 count max(A, D)^degree; none when machine_prime admits none."""
    assert linalg.engine_primes(F7) == (7,)
    assert linalg.engine_primes(GF(2147483659)) == ()
    assert engine_primes_of(QQ, [Fraction(3), Fraction(-1)], 2, 9) == (MERSENNE_31,)
    constants = [Fraction(1, MERSENNE_31), Fraction(5 * 2**40, 3)]
    primes = engine_primes_of(QQ, constants, 3, 81)
    den = 3 * MERSENNE_31
    bound = 2 * 81 * (5 * 2**40 * MERSENNE_31) ** 3
    assert MERSENNE_31 not in primes and all(den % p for p in primes)
    assert list(primes) == sorted(primes, reverse=True) and primes[0] < 2**31
    assert math.prod(primes) > bound >= math.prod(primes[:-1])
    with mock.patch.object(linalg, "machine_prime", lambda field: None):
        assert engine_primes_of(QQ) == linalg.engine_primes(F7) == ()


def test_engine_primes_give_none_past_the_cutoff():
    """With a cutoff of `most` primes: none when the bound takes more,
    decided from its bit length when that already needs more than `most`
    primes below 2^31, and otherwise by the search."""
    # the bound 2^62 - 2 has the bits of two primes, but the two largest
    # primes below 2^31 multiply to less, so it takes three
    constants = [Fraction(2**61 - 1)]
    primes = engine_primes_of(QQ, constants, 1, 1)
    assert len(primes) == 3
    assert engine_primes_of(QQ, constants, 1, 1, 3) == primes
    # the primes the search draws (kept once found, so no longer retested)
    drawn = []
    descending = linalg._descending_primes

    def spy():
        for p in descending():
            drawn.append(p)
            yield p

    with mock.patch.object(linalg, "_descending_primes", spy):
        assert engine_primes_of(QQ, constants, 1, 1, 2) == ()
        assert len(drawn) > 0
        drawn.clear()
        assert engine_primes_of(QQ, constants, 1, 1, 1) == ()
        assert drawn == []


def test_descending_primes_are_kept_once_found():
    """The primes below 2^31 come largest first, with every number between
    two of them composite, and a second search draws the primes the first
    found without testing a number again."""
    first = list(islice(linalg._descending_primes(), 5))
    assert first[0] == MERSENNE_31
    assert all(
        linalg._is_prime(p) and not any(map(linalg._is_prime, range(q + 1, p)))
        for p, q in zip(first, first[1:])
    )
    with mock.patch.object(linalg, "_is_prime", lambda p: pytest.fail(f"{p} tested again")):
        assert list(islice(linalg._descending_primes(), 5)) == first


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(max_denominator=2**40).filter(bool),
    st.integers(1, 4),
    st.integers(1, 10**6),
    st.integers(0, 6),
)
def test_engine_primes_with_a_cutoff_are_those_without_it_or_none(c, degree, count, most):
    full = engine_primes_of(QQ, [c], degree, count)
    assert engine_primes_of(QQ, [c], degree, count, most) == (full if len(full) <= most else ())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=2**20), max_size=8), st.integers(0, 8))
def test_joint_scale_is_the_scale_of_the_union(constants, cut):
    """The scales of two constant sets, joined, are the scale of their
    union: the common denominator and the height over it."""
    parts = constants[:cut], constants[cut:]
    assert linalg.joint_scale(*map(linalg.scale_of, parts)) == linalg.scale_of(constants)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=2**20), max_size=8), st.integers(0, 20))
def test_scale_of_is_unchanged_by_zeros(constants, zeros):
    """A zero changes neither the common denominator nor the height, so
    scale_of skips the zeros: with any number of them added, and of either
    type (int 0 and Fraction(0)), the scale is that of the others, and (1,
    0) when there are no others."""
    padded = [Fraction(c) for c in constants + [0, Fraction(0)] * zeros]
    random.Random(zeros).shuffle(padded)
    # the definition, over every constant, zeros included
    den = math.lcm(*(c.denominator for c in padded))
    height = max((abs(c.numerator) * (den // c.denominator) for c in padded), default=0)
    assert linalg.scale_of(padded) == (den, height)
    assert linalg.scale_of([Fraction(0)] * zeros) == (1, 0)


def _scale_of_set(constants) -> tuple:
    """The set-based scale_of: the nonzero constants hashed into a set."""
    values = set(filter(None, constants))
    den = math.lcm(*(c.denominator for c in values))
    return den, max((abs(c.numerator) * (den // c.denominator) for c in values), default=0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(st.fractions(max_denominator=2**30), st.integers(-(2**40), 2**40)), max_size=30
    ),
    st.randoms(use_true_random=False),
)
def test_scale_of_matches_the_set_reference(constants, rng):
    """scale_of, which hashes only the denominators, gives the (D, A) of
    the set-based reference on Fractions and ints mixed, zeros, negatives
    and repeats included."""
    values = constants + constants[: len(constants) // 2] + [0, Fraction(0)]
    rng.shuffle(values)
    assert linalg.scale_of(values) == _scale_of_set(values)
    assert linalg.scale_of(iter(values)) == _scale_of_set(values)


def test_residues_reduce_each_rational_exactly():
    """1/2 becomes (p + 1)/2, not the 0 that an int64 cast of the Fraction
    gives; every residue r of n/d satisfies d r = n mod p."""
    p = MERSENNE_31
    assert linalg.residues([Fraction(1, 2)], p).tolist() == [(p + 1) // 2]
    assert np.array([Fraction(1, 2)], dtype=np.int64).tolist() == [0]
    xs = [Fraction(-3, 7), Fraction(2**80 + 1, 3**40), Fraction(p + 4), 5, -1, 2 * p + 3]
    out = linalg.residues(xs, p).tolist()
    assert all(0 <= r < p for r in out)
    assert all((Fraction(x).denominator * r - Fraction(x).numerator) % p == 0 for x, r in zip(xs, out))


@pytest.mark.parametrize("sparse", [False, True])
def test_mulmod_worst_case_row_times_column(sparse):
    """p - 1 times p - 1, summed n times: one 16-bit limb product at 2^16
    terms, and above it the sum of the slices of 2^16 terms."""
    p = MERSENNE_31
    for n in (2**16, 2**16 + 1, 3 * 2**16 + 5):
        A = np.full((1, n), p - 1, dtype=np.int64)
        B = np.full((n, 1), p - 1, dtype=np.int64)
        if sparse:
            A, B = linalg.dense_csr(A), linalg.dense_csr(B)
        C = mulmod(A, B, p)
        got = int((csr_dense(C) if sparse else C)[0, 0])
        assert got == (p - 1) ** 2 * n % p, n


def test_mulmod_refuses_a_prime_above_the_limb_bound():
    """Two products of residues of the least prime above 2^31 exceed int64,
    and its limbs would too: mulmod raises rather than wrap."""
    p = 2147483659
    with pytest.raises(ValueError):
        mulmod(np.full((1, 2), p - 1, dtype=np.int64), np.full((2, 1), p - 1, dtype=np.int64), p)


def _csr_with(X, index):
    """The nonzero entries of the dense array X as a linalg.CSR whose index
    arrays have dtype index."""
    C = linalg.dense_csr(X)
    return linalg.CSR(C.data, C.indices.astype(index), C.indptr.astype(index), C.shape)


@given(
    p=st.sampled_from([13, 65521, 2146560523, MERSENNE_31]),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 5)),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
    limb_bits=st.sampled_from([16, 1]),
    index=st.sampled_from([np.int32, np.int64]),
)
@settings(max_examples=80, deadline=None)
def test_mulmod_matches_python_integers(p, shape, seed, sparse, limb_bits, index):
    """Exact on every shape; with 1-bit limbs a product of more than two
    terms per entry is a sum of slices of two terms each.  Sparse operands
    carry int32 or int64 index arrays."""
    rng = np.random.default_rng(seed)
    m, k, n = shape

    def draw(rows, cols):
        # residues near p - 1 stress the bound; zeros exercise sparsity
        vals = rng.choice([0, 1, p - 1, p - 2, int(rng.integers(0, p))], size=(rows, cols))
        return vals.astype(np.int64)

    A, B = draw(m, k), draw(k, n)
    want = [
        [sum(int(A[i, t]) * int(B[t, j]) for t in range(k)) % p for j in range(n)]
        for i in range(m)
    ]
    with mock.patch.object(linalg, "_LIMB_BITS", limb_bits):
        if sparse:
            got = csr_dense(mulmod(_csr_with(A, index), _csr_with(B, index), p))
        else:
            got = mulmod(A, B, p)
    assert got.tolist() == want


@given(
    p=st.sampled_from([13, 65521, 2146560523, MERSENNE_31]),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 5)),
    seed=st.integers(0, 2**32 - 1),
    limb_bits=st.sampled_from([16, 1]),
    index=st.sampled_from([np.int32, np.int64]),
)
@settings(max_examples=60, deadline=None)
def test_mulmod_sparse_times_dense_matches_python_integers(p, shape, seed, limb_bits, index):
    """A sparse left operand times a dense right one, as the iterated kernel
    multiplies its stacked operator by K, gives a dense exact product, also
    summed from slices of two terms per row with 1-bit limbs, with int32 or
    int64 index arrays."""
    rng = np.random.default_rng(seed)
    m, k, n = shape
    A, B = (
        rng.choice([0, 0, 1, p - 1, int(rng.integers(0, p))], size=s).astype(np.int64)
        for s in ((m, k), (k, n))
    )
    want = [
        [sum(int(A[i, t]) * int(B[t, j]) for t in range(k)) % p for j in range(n)]
        for i in range(m)
    ]
    with mock.patch.object(linalg, "_LIMB_BITS", limb_bits):
        got = mulmod(_csr_with(A, index), B, p)
    assert isinstance(got, np.ndarray)
    assert got.tolist() == want


@pytest.mark.parametrize("limb_bits", [16, 1])
@pytest.mark.parametrize("indexes", [(np.int32, np.int32), (np.int64, np.int64), (np.int32, np.int64)])
@pytest.mark.parametrize("p", [7, MERSENNE_31])
@pytest.mark.parametrize("seed", range(5))
def test_mulmod_compiled_products_match_matrix_mul(seed, p, indexes, limb_bits):
    """The compiled CSR x CSR and CSR x dense products of seeded operands
    equal the generic Matrix.mul on: int32, int64 and mixed index arrays;
    empty rows and columns on both sides; a row whose terms all cancel mod
    p; p = 7 and 2^31 - 1 (the limb branch, also summed from slices of two
    terms per row with 1-bit limbs); and as views, a block of only empty
    rows and the first, a middle and the last block of rows.  A sparse
    result stores each nonzero cell once, a residue in [1, p), in arrays
    cut to its entries."""
    rng = np.random.default_rng(seed)
    m, k, n = (int(x) for x in rng.integers(7, 12, size=3))
    A, B = (rng.integers(1, p, size=s) * (rng.random(s) < 0.4) for s in ((m, k), (k, n)))
    A[:2] = 0  # a block of empty rows
    A[:, -1] = 0  # an empty column of A, facing B's last row
    B[:, 0] = 0
    B[1] = 0
    # row 2 of A B is x B[3] + (p - x) B[3] = p B[3]: every term cancels mod p
    B[3] = B[4]
    A[2] = 0
    A[2, 3], A[2, 4] = 3, p - 3
    F = GF(p)
    with mock.patch.object(linalg, "machine_prime", lambda field: None):
        want = np.array(Matrix.from_rows(F, A.tolist()).mul(Matrix.from_rows(F, B.tolist())).rows)
    assert not want[2].any() and want[:, 0].tolist() == [0] * m
    left, right = _csr_with(A, indexes[0]), _csr_with(B, indexes[1])
    assert left[0:m] is left
    with mock.patch.object(linalg, "_LIMB_BITS", limb_bits):
        for a0, a1 in ((0, m), (0, 2), (0, 3), (3, m - 2), (m - 3, m)):
            C = mulmod(left[a0:a1], right, p)
            assert C.shape == (a1 - a0, n) and C.indptr[0] == 0
            assert len(C.data) == len(C.indices) == C.indptr[-1]
            assert ((C.data > 0) & (C.data < p)).all()
            assert np.array_equal(csr_dense(C), want[a0:a1])
            assert np.count_nonzero(want[a0:a1]) == C.indptr[-1]
            assert mulmod(left[a0:a1], B, p).tolist() == want[a0:a1].tolist()


def _mul_reference(A, B):
    """The dense triple sum, normalized once per entry."""
    norm = A.field.normalize
    cols = list(zip(*B.rows))
    return Matrix(
        A.field,
        tuple(tuple(norm(sum(a * b for a, b in zip(r, c))) for c in cols) for r in A.rows),
    )


@given(
    field=st.sampled_from([QQ, GF(2), GF(13), GF(65521), GF(2146560523), GF(MERSENNE_31)]),
    # result cells on both sides of _NUMPY_CELLS = 4096
    shape=st.sampled_from(
        [(1, 1, 1), (3, 4, 2), (63, 5, 65), (64, 3, 64), (1, 2, 4096), (70, 8, 60)]
    ),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.05, 0.5, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_matrix_mul_engines_agree(field, shape, seed, density):
    """Matrix.mul through mulmod (forced by _NUMPY_CELLS = 0) equals the
    zero-skipping Python sum (forced by machine_prime returning None), the
    shape-chosen route and the dense triple sum, with Python int entries."""
    rng = random.Random(seed)
    m, k, n = shape

    def draw(rows, cols):
        def entry():
            if rng.random() >= density:
                return 0
            if field == QQ:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            return rng.choice([1, field.p - 1, field.p - 2, rng.randrange(field.p)])

        return Matrix.from_rows(field, [[entry() for _ in range(cols)] for _ in range(rows)])

    A, B = draw(m, k), draw(k, n)
    want = _mul_reference(A, B)
    with mock.patch.object(linalg, "_NUMPY_CELLS", 0):
        assert A.mul(B) == want
    with mock.patch.object(linalg, "machine_prime", lambda field: None):
        assert A.mul(B) == want
    got = A.mul(B)
    assert got == want
    assert all(type(x) is type(field.zero()) for r in got.rows for x in r)


class _MatmulDtypes(np.ndarray):
    """An array that records the operand dtypes of every matmul it enters."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _MatmulDtypes) else x for x in inputs]
        if ufunc is np.matmul:
            _MatmulDtypes.seen.append({x.dtype.name for x in plain})
        return getattr(ufunc, method)(*plain, **kwargs)


def test_mulmod_float64_branch_ends_at_its_bound():
    """A dense row of p - 1 times a column of p - 1 with p near 2^20: at the
    largest term count with (p-1)^2 terms < 2^53 the product runs in
    float64, one term more in int64, and both equal the Python integer."""
    p = 1048573  # the largest prime below 2^20
    assert machine_prime(GF(p)) == p
    most = (2**53 - 1) // (p - 1) ** 2
    for n, dtype in ((most, "float64"), (most + 1, "int64")):
        A = np.full((1, n), p - 1, dtype=np.int64).view(_MatmulDtypes)
        B = np.full((n, 1), p - 1, dtype=np.int64).view(_MatmulDtypes)
        _MatmulDtypes.seen = []
        C = mulmod(A, B, p)
        assert _MatmulDtypes.seen == [{dtype}], n
        assert int(C[0, 0]) == (p - 1) ** 2 * n % p, n
    assert (p - 1) ** 2 * most < 2**53 <= (p - 1) ** 2 * (most + 1)


@pytest.mark.parametrize("p", [5, 65521])
@pytest.mark.parametrize("shape", [(9, 4, 3), (3, 4, 9), (6, 5, 6), (1, 7, 1)])
def test_mulmod_float64_blocks_match_int64(p, shape, smallest_blocks):
    """The float64 branch converts and multiplies the larger operand a block
    at a time (rows of A, or columns of B when B has more cells).  With the
    smallest budget every block is one row or column, one matmul each; the
    product equals the plain int64 product mod p, which is exact here, and
    the product with the whole operand in one block."""
    rng = np.random.default_rng(sum(shape) * p)
    m, k, n = shape
    A, B = (
        rng.choice([0, 1, p - 1, int(rng.integers(0, p))], size=s).astype(np.int64)
        for s in ((m, k), (k, n))
    )
    want = (A @ B) % p
    whole = mulmod(A, B, p)
    smallest_blocks()
    A, B = A.view(_MatmulDtypes), B.view(_MatmulDtypes)
    _MatmulDtypes.seen = []
    got = mulmod(A, B, p)
    assert _MatmulDtypes.seen == [{"float64"}] * (m if m * k >= k * n else n)
    assert got.dtype == np.int64
    assert got.view(np.ndarray).tolist() == whole.tolist() == want.tolist()


# -- the generic engine on sparse inputs, against dense loops by definition ----


def _ref_rref(field, rows):
    """Gauss-Jordan with every cell visited: (reduced rows, pivot columns)."""
    z = field.zero()
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != z), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.normalize(inv * x) for x in rows[r]]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                rows[i] = [field.normalize(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _ref_canonical(field, vecs):
    rows, pivots = _ref_rref(field, vecs)
    return tuple(tuple(rows[i]) for i in range(len(pivots)))


def _ref_kernel(field, rows, n):
    """The canonical basis of {v : rows v = 0}: e_f - sum_r red[r][f] e_pivot(r)
    for each free column f, reduced."""
    red, pivots = _ref_rref(field, rows) if rows else ([], [])
    vecs = []
    for f in (j for j in range(n) if j not in pivots):
        v = [field.zero()] * n
        v[f] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][f])
        vecs.append(v)
    return _ref_canonical(field, vecs) if vecs else ()


def _ref_det(field, rows):
    """The Leibniz sum over all permutations."""
    n = len(rows)
    total = field.zero()
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = field.from_int(sign)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return field.normalize(total)


def _sparse_rows(rng, field, m, n):
    """An m x n matrix with at least 70 % zeros, one zero row and one zero
    column when it has more than one, as normalized scalars."""
    rows = [[field.zero()] * n for _ in range(m)]
    cells = rng.sample(range(m * n), (3 * m * n) // 10)
    for cell in cells:
        r, c = divmod(cell, n)
        x = rng.choice([1, -1, 2, 3, 5]) if field == QQ else rng.randrange(1, field.p)
        rows[r][c] = field.normalize(Fraction(x, rng.choice([1, 2, 3])) if field == QQ else x)
    if m > 1:
        rows[rng.randrange(m)] = [field.zero()] * n
    if n > 1:
        zc = rng.randrange(n)
        for r in rows:
            r[zc] = field.zero()
    return rows


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "GF7"])
@pytest.mark.parametrize("seed", range(40))
def test_generic_engine_on_sparse_inputs_matches_dense_loops(field, seed, monkeypatch):
    """Matrix.mul, apply, rref, kernel, inverse, det and the generic
    iterated_kernel_sparse on matrices of at least 70 % zeros, with zero
    rows, zero columns and zero vectors, equal their definitions as dense
    loops that visit every cell."""
    monkeypatch.setattr(linalg, "machine_prime", lambda field: None)
    rng = random.Random(seed)
    m, k, n = (rng.randint(1, 7) for _ in range(3))
    a, b = _sparse_rows(rng, field, m, k), _sparse_rows(rng, field, k, n)
    A, B = Matrix(field, tuple(map(tuple, a))), Matrix(field, tuple(map(tuple, b)))
    z = field.zero()

    assert A.mul(B) == _mul_reference(A, B)
    for vec in ([z] * k, [r[0] for r in b], [r[0] for r in _sparse_rows(rng, field, k, 1)]):
        want = tuple(field.normalize(sum(x * y for x, y in zip(r, vec))) for r in a)
        assert A.apply(tuple(vec)) == want

    red, pivots = A.rref()
    ref_red, ref_pivots = _ref_rref(field, a)
    assert red.rows == tuple(map(tuple, ref_red)) and pivots == tuple(ref_pivots)
    assert A.kernel() == _ref_kernel(field, a, k)
    assert all(A.apply(v) == (z,) * m for v in A.kernel())

    # a square matrix: sparse, or sparse plus the identity (mostly invertible)
    s = rng.randint(1, 6)
    q = _sparse_rows(rng, field, s, s)
    if seed % 2:
        q = [[field.normalize(x + (i == j)) for j, x in enumerate(r)] for i, r in enumerate(q)]
    Q = Matrix(field, tuple(map(tuple, q)))
    assert Q.det() == _ref_det(field, q)
    eye = [[field.one() if i == j else z for j in range(s)] for i in range(s)]
    aug, aug_pivots = _ref_rref(field, [r + e for r, e in zip(q, eye)])
    if aug_pivots[:s] == list(range(s)):
        inv = Matrix(field, tuple(tuple(r[s:]) for r in aug))
        assert Q.inverse() == inv
        assert _mul_reference(Q, inv).is_identity()
    else:
        with pytest.raises(SingularError):
            Q.inverse()

    # a stacked operator of a few dim x dim blocks, some of them empty
    dim, nblocks = rng.randint(1, 6), rng.randint(1, 4)
    stacked = [row for _ in range(nblocks) for row in _sparse_rows(rng, field, dim, dim)]
    S = _operator(stacked, object)
    assert linalg.iterated_kernel_sparse(field, dim, S) == _ref_kernel(field, stacked, dim)


def _operator(stacked, dtype):
    """The operator whose rows are stacked, in the one form both engines
    read: its nonzero entries in row order, int64 rows and columns, and the
    values in the dtype of an engine, int64 residues or object scalars."""
    cells = [(r, c, x) for r, row in enumerate(stacked) for c, x in enumerate(row) if x]
    rows, cols = (np.array([cell[t] for cell in cells], dtype=np.int64) for t in (0, 1))
    return rows, cols, np.array([x for *_, x in cells], dtype=dtype)


NEAR_2_31 = 2**31 - 1  # prime, the largest that machine_prime admits


@pytest.mark.parametrize("p", [7, NEAR_2_31], ids=["GF7", "GF2^31-1"])
@pytest.mark.parametrize("seed", range(40))
def test_int64_kernel_of_stacked_operators_matches_the_reference(p, seed, generic_engine):
    """iterated_kernel_sparse on the int64 entries of a random stacked
    operator (blocks of at least 70 % zeros, some empty) equals the
    reference kernel, as do the object entries on the Python-scalar engine;
    annihilates holds on the kernel and, for a unit vector e_j, exactly
    when column j is zero."""
    field = GF(p)
    rng = random.Random(seed)
    dim, nblocks = rng.randint(1, 8), rng.randint(1, 4)
    stacked = [row for _ in range(nblocks) for row in _sparse_rows(rng, field, dim, dim)]
    want = _ref_kernel(field, stacked, dim)
    units = [basis_vec(field, dim, j) for j in range(dim)]
    zero_columns = [not any(r[j] for r in stacked) for j in range(dim)]
    for dtype in (np.int64, object):
        if dtype is object:
            generic_engine()
        form = _operator(stacked, dtype)
        assert linalg.iterated_kernel_sparse(field, dim, form) == want
        assert all(linalg.annihilates(field, form, v) for v in want)
        assert [linalg.annihilates(field, form, e) for e in units] == zero_columns


def _chain_rows(p):
    """Row i holds 1 at columns 0 .. i, last row first: only row 0 has a
    single entry, and each forced column leaves the next row one entry."""
    return [[1 if j <= i else 0 for j in range(5)] for i in reversed(range(5))]


def _two_pass_rows(p):
    """No row has a single entry.  The first three rows are multiples of
    e_0 - e_1, so the first pass leaves span{e_0 + e_1, e_2}; the fourth,
    e_1 - e_2, is not zero there, so a second pass leaves e_0 + e_1 + e_2,
    which the fifth row also annihilates."""
    m = p - 1
    return [[1, m, 0], [2, 2 * m % p, 0], [3, 3 * m % p, 0], [0, 1, m], [1, 1, p - 2]]


@pytest.mark.parametrize("engine", ["int64", "generic"])
@pytest.mark.parametrize("p", [7, NEAR_2_31], ids=["GF7", "GF2^31-1"])
@pytest.mark.parametrize(
    "rows, want, eliminations",
    [(_chain_rows, (), 0), (_two_pass_rows, ((1, 1, 1),), 2)],
    ids=["peel-forces-all", "two-passes"],
)
def test_kernel_peels_and_refines_on_both_engines(
    rows, want, eliminations, p, engine, monkeypatch, generic_engine
):
    """An operator whose peel forces every coordinate needs no elimination,
    and one whose first pass leaves a K that S does not annihilate takes a
    second: the kernel is exact either way, on both engines."""
    field = GF(p)
    stacked = rows(p)
    assert _ref_kernel(field, stacked, len(stacked[0])) == want
    if engine == "generic":
        generic_engine()
    calls = []
    kernel = Matrix.kernel
    monkeypatch.setattr(Matrix, "kernel", lambda self: calls.append(self.ncols) or kernel(self))
    form = _operator(stacked, np.int64 if engine == "int64" else object)
    assert linalg.iterated_kernel_sparse(field, len(stacked[0]), form) == want
    assert len(calls) == eliminations
