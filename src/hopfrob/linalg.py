"""Dense exact linear algebra over a Field.

Vectors are tuples of scalars.  Matrices are immutable row-major tuples of
row tuples with a field tag.  Every matrix read off a table of structure
constants is built by Matrix.from_entries from its ((row, col), c) entries,
which normalizes only the cells named and shares one zero tuple among the
rows not named.  Elimination uses first-nonzero pivoting and
produces reduced echelon forms, so kernels, solutions and inverses are
canonical: the same input always yields byte-identical output.

Two arithmetic engines exist, and machine_prime chooses between them from
the field alone: over GF(p) with p < 2^31 large eliminations (rref, solve,
solve_matrix, inverse), large products (Matrix.mul), the products of a
sparse operator and the sparse identity checks in algebra and hopfcore, in
blocks bounded by the one byte budget _BLOCK_BYTES, run on int64 numpy
arrays, everything else on Python scalars.  The one sparse form is CSR, the
triple (data, indices, indptr) with its shape, laid out from index arrays by
csr; a block of its rows is a view, and mulmod multiplies it by one call to
scipy's compiled CSR routines (imported in _sparsetools alone), so no scipy
sparse object is built.  A large inverse eliminates
[A | I] as one int64 array.  The numpy code that builds from a table (an
integral operator, every table of the double, subext's module transport) is
one routine for both engines, which differ there only in the dtype of the
value array: int64 residues mod p, or an object array of Python scalars.
normalized reduces such an array (mod p, or field.normalize), join pairs
the entries of two arrays with equal keys and reduces their products,
summed sums repeated keys, and table_rows turns sorted entries back into a
table's row tuples; nonzero_entries reads a Matrix's nonzero entries as
such arrays, each distinct row object once.  A sparse operator is the one
form (rows, cols, vals) of its nonzero entries in row order, and one
exact routine finds its kernel (iterated_kernel_sparse:
peel the coordinates forced to zero, refine K by S K); the engines differ
there only in S K (_product_rows).  Every int64 sum of products goes
through mulmod, which is exact for any number of terms (its docstring bounds
its intermediates), so results are identical to the generic path
(property-tested).  mulmod alone picks how a product runs: two dense
operands whose every partial sum stays below 2^53, as with the small primes
of the catalog and the doubles, go through float64 BLAS, which is exact
there, the larger operand a block at a time; the others through int64, in
16-bit limbs when the plain product could pass 2^63.  The Python-scalar
loops test zeros by truthiness (scalars.Field) and skip zero operands.  The
sparse identity checks also run over QQ: engine_primes, built on
machine_prime, picks enough primes below 2^31 that an identity holding mod
each of them holds in QQ (the bound is in its docstring), and residues
reduces each rational exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, groupby, islice
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import FieldMismatchError, ShapeError, SingularError
from .scalars import GF, Field, PrimeField, RationalField, _is_prime

# beyond this many cells, prime-field elimination goes through numpy
_NUMPY_CELLS = 4096
# mulmod splits into 16-bit limbs and sums up to 2^16 products at a time
_LIMB_BITS = 16
# The bytes one block of a sparse kernel may hold live.  A block counts 24
# bytes (an int64 value and two int64 indices) for each entry of each of its
# intermediates, products and re-lays included, with a product's entries
# bounded by its terms (algebra.blocks); _product_rows counts 8 bytes for
# each cell of the dense product of a block of an operator's rows by K, and
# _mulmod_float64 8 bytes for each float64 cell of a block and its product.
# The counts bound from above, so a block holds less: at 16 MB the largest
# block of any kernel on D(taft-4-5-2) peaks at 7.6 MB (tracemalloc), and
# every kernel on D(taft-3-7-2) runs in one block, 10 mulmod calls for a
# full verify_hopf where 2^14-entry blocks made 66.
_BLOCK_BYTES = 1 << 24


def machine_prime(field: Field) -> Optional[int]:
    """The engine gate: p when field is GF(p) with p < 2^31, None when the
    generic Python-scalar engine must run instead.

    Below 2^31 a residue, and a product of two residues ((p-1)^2 < 2^62),
    fits int64; mulmod sums any number of such products exactly.
    """
    if isinstance(field, PrimeField) and field.p < 2**31:
        return field.p
    return None


def scale_of(constants: Iterable) -> tuple:
    """(D, A) for rational constants: D their common denominator and A the
    largest |a| among them written a/D (0 when there are none).  A zero
    changes neither, so the zeros are skipped; D is the lcm of the set of
    denominators, plain ints, so no Fraction is hashed."""
    values = list(filter(None, constants))
    den = math.lcm(*{c.denominator for c in values})
    return den, max((abs(c.numerator) * (den // c.denominator) for c in values), default=0)


def joint_scale(*scales: tuple) -> tuple:
    """The scale of the union of several constant sets, from their scales:
    D the lcm of theirs, and each A rescaled to it."""
    den = math.lcm(*(d for d, _ in scales))
    return den, max((a * (den // d) for d, a in scales), default=0)


def engine_primes(
    field: Field,
    scale=lambda: (1, 0),
    degree: int = 1,
    count: int = 1,
    most: Optional[int] = None,
) -> tuple[int, ...]:
    """The primes at which an exact identity runs on the int64 engine, each
    admitted by machine_prime: (p,) for GF(p), () when the Python-scalar
    engine must run, and over QQ the primes p1 > p2 > ... below 2^31 that
    divide no denominator of the constants, taken until their product
    exceeds the bound below; () when that takes more than `most` primes,
    found from the bound's bit length before any search when it can be (k
    primes below 2^31 multiply to less than 2^(31 k)), else once the search
    passes `most`.  scale() gives the scale_of the constants; it is called
    over QQ only.

    Bound: each side of the identity sums at most `count` products of at
    most `degree` of the rational constants.  Over their common denominator
    D they read a/D with |a| <= A, so a product times D^degree is an integer
    of absolute value at most max(A, D)^degree, and D^degree (lhs - rhs) is
    an integer of absolute value at most 2 count max(A, D)^degree.  Mod a
    prime p that does not divide D, reduction is a ring map on these
    rationals, so lhs = rhs in QQ gives lhs = rhs mod p; and a nonzero
    integer smaller than a product of distinct primes is not divisible by
    all of them, so lhs != rhs in QQ shows mod at least one prime.  The set
    of failing items in QQ is the union of the sets mod each prime.
    """
    if isinstance(field, RationalField):
        den, height = scale()
        bound = 2 * count * max(height, den) ** degree
        # primes below 2^31 exceed the bound only once 31 k >= its bit length
        if most is not None and (bound.bit_length() - 1) // 31 + 1 > most:
            return ()
        primes, product = [], 1
        for p in _descending_primes():
            if product > bound:
                break
            if den % p:
                if machine_prime(GF(p)) is None or len(primes) == most:
                    return ()
                primes.append(p)
                product *= p
        return tuple(primes)
    p = machine_prime(field)
    return () if p is None else (p,)


_PRIMES = [2**31 - 1]  # the primes below 2^31 found so far, descending


def _descending_primes():
    """The primes below 2^31, descending, each number tested once per
    process: the search resumes below the last of the primes kept."""
    for t in count():
        if t == len(_PRIMES):
            _PRIMES.append(next(q for q in range(_PRIMES[-1] - 1, 1, -1) if _is_prime(q)))
        yield _PRIMES[t]


def residues(values: Iterable, p: int):
    """The scalars mod p as an int64 array, exactly: an int n gives n mod p,
    a Fraction n/d gives n * d^-1 mod p (p must not divide d, as it does not
    for the primes of engine_primes)."""
    import numpy as np

    return np.fromiter(
        (x % p if type(x) is int else x.numerator * pow(x.denominator, -1, p) % p for x in values),
        dtype=np.int64,
    )


def mulmod(A, B, p: int):
    """A @ B mod p, exact, for int64 operands with entries in [0, p) and
    p < 2^31: both dense numpy arrays, both CSR (a CSR result, its zeros
    dropped), or a CSR A times a dense B (a dense result).  A product with
    a CSR A runs in scipy's compiled CSR routines alone (_product), so no
    scipy sparse object is built.

    Bound: an entry of A @ B sums at most `terms` products, where terms is
    the inner dimension for a dense A, the largest row count of a sparse A,
    and for two sparse operands the smaller of that and the largest column
    count of B.  When both operands are dense and (p-1)^2 * terms < 2^53,
    the product runs in float64 (BLAS): every partial sum, in any order and
    under FMA, is then an integer below 2^53, which float64 holds exactly,
    so the float64 product is the integer product, reduced once and written
    into the int64 result (_mulmod_float64, which holds float64 copies of
    the smaller operand and of one block of the larger).  Otherwise, when
    (p-1)^2 * terms < 2^63, the plain int64 product is exact and is reduced
    once.  Otherwise B = B_hi * 2^16 + B_lo is split into 16-bit limbs, and
    each partial sum of up to 2^16 terms stays below 2^31 * 2^16 * 2^16 =
    2^63; the two reduced limb products are combined below 2^31 * 2^16 +
    2^31 < 2^63.  Above 2^16 terms A is cut into slices of at most 2^16
    terms per row (_term_slices), and the reduced products of the slices
    are summed and reduced once: fewer than 2^32 slices, so fewer than 2^48
    terms, of residues below 2^31 stay below 2^63.  Sparse limb and slice
    products may differ in pattern (the compiled product drops zero sums),
    so they are added by their cells (_added), not by their value arrays.
    """
    import numpy as np

    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"{A.shape} @ {B.shape}")
    dense = isinstance(B, np.ndarray)
    if isinstance(A, np.ndarray):
        terms = A.shape[1]
        if dense and (p - 1) ** 2 * terms < 2**53:
            return _mulmod_float64(A, B, p)
    else:
        terms = int(np.diff(A.indptr).max(initial=0))
        # B's column counts cost a pass over B; read them only when they can matter
        if not dense and (p - 1) ** 2 * terms >= 2**63:
            cols = B.indices[B.indptr[0] : B.indptr[-1]]
            terms = min(terms, int(np.bincount(cols, minlength=1).max()))
    if (p - 1) ** 2 * terms < 2**63:
        return _reduce(_product(A, B), p)
    if p >= 2**31:
        raise ValueError(f"mulmod: the limb bound needs p < 2^31, not {p}")
    if terms > 1 << _LIMB_BITS:
        return _added([mulmod(a, B, p) for a in _term_slices(A)], p)
    mask = (1 << _LIMB_BITS) - 1
    if dense:
        hi, lo = B >> _LIMB_BITS, B & mask
    else:
        hi, lo = (CSR(d, B.indices, B.indptr, B.shape) for d in (B.data >> _LIMB_BITS, B.data & mask))
    hi, lo = (_reduce(_product(A, limb), p) for limb in (hi, lo))
    shifted = hi if dense else hi.data
    shifted <<= _LIMB_BITS
    return _added([hi, lo], p)


def _mulmod_float64(A, B, p: int):
    """A @ B mod p for dense operands whose every entry sums below 2^53
    (mulmod's bound), through float64 BLAS: the smaller operand converted
    whole, the larger one block at a time, rows of A or columns of B, as
    many as keep the float64 copy of the block and of its product within
    _BLOCK_BYTES (at least one).  Each entry of a block's product sums the
    same terms as in the whole product, so the bound holds as before."""
    import numpy as np

    (m, k), n = A.shape, B.shape[1]
    out = np.empty((m, n), dtype=np.int64)
    if A.size >= B.size:
        Bf = B.astype(np.float64)
        step = max(1, _BLOCK_BYTES // (8 * (k + n)))
        for r in range(0, m, step):
            out[r : r + step] = A[r : r + step].astype(np.float64) @ Bf % p
    else:
        Af = A.astype(np.float64)
        step = max(1, _BLOCK_BYTES // (8 * (k + m)))
        for c in range(0, n, step):
            out[:, c : c + step] = Af @ B[:, c : c + step].astype(np.float64) % p
    return out


class CSR:
    """A sparse matrix of shape (rows, cols) as its CSR triple, the one
    sparse form of the int64 engine: row i holds the entries indptr[i] ..
    indptr[i+1] - 1 of data (int64 values) and indices (their columns, of
    indptr's dtype).  indptr need not start at 0, so that a block of rows
    X[a0:a1] is a view, a slice of indptr over the same data and indices;
    a block of every row is X itself."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape: tuple):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    def __getitem__(self, rows: slice) -> "CSR":
        m, n = self.shape
        a0, a1, _ = rows.indices(m)
        if a0 == 0 and a1 == m:
            return self
        a1 = max(a0, a1)
        return CSR(self.data, self.indices, self.indptr[a0 : a1 + 1], (a1 - a0, n))


def csr(vals, rows, cols, shape: tuple) -> CSR:
    """The CSR matrix of shape with vals at (rows, cols), its triple built
    straight from the arrays: the entries put in row order by one stable
    argsort only when rows do not ascend, indptr by searchsorted, int32
    indices where they fit.  A repeated (row, col) is kept as two entries,
    which a product sums like any other terms."""
    import numpy as np

    index = np.int32 if max(*shape, len(rows)) < 2**31 else np.int64
    if (rows[1:] < rows[:-1]).any():
        order = np.argsort(rows, kind="stable")
        vals, cols, rows = vals[order], cols[order], rows[order]
        del order
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1)).astype(index)
    return CSR(vals, np.asarray(cols, dtype=index), indptr, shape)


def dense_csr(X) -> CSR:
    """The CSR matrix of the nonzero entries of the dense array X."""
    import numpy as np

    rows, cols = np.nonzero(X)
    return csr(X[rows, cols], rows, cols, X.shape)


def csr_rows(C):
    """The row of each stored entry of the CSR matrix C, in storage order."""
    import numpy as np

    return np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))


def _sparsetools():
    """scipy's compiled CSR routines.  scipy.sparse._sparsetools is private,
    and this is the one place the package imports it.  The routines trust
    their arguments: every index array of one call must have one dtype (a
    mix crashes them), the values are int64, and outputs are preallocated."""
    from scipy.sparse import _sparsetools

    return _sparsetools


def _one_dtype(indexes: tuple, top: int) -> list:
    """The index arrays of one compiled call at the one dtype it needs:
    int32 when all of them are int32 and top, the largest dimension or
    entry count of the call, is below 2^31, otherwise int64."""
    import numpy as np

    narrow = top < 2**31 and all(a.dtype == np.int32 for a in indexes)
    return [np.asarray(a, dtype=np.int32 if narrow else np.int64) for a in indexes]


def _product(A, B):
    """A @ B, unreduced: numpy's for a dense A; for a CSR A and a dense B
    one compiled csr_matvecs into a zero int64 array; for two CSR operands
    one csr_matmat_maxnnz, which bounds the result's entries, and one
    csr_matmat into buffers of that size (Gustavson's row-by-row product,
    which drops the sums that come to 0)."""
    import numpy as np

    if isinstance(A, np.ndarray):
        return A @ B
    tools = _sparsetools()
    (m, k), n = A.shape, B.shape[1]
    dense = isinstance(B, np.ndarray)
    indexes = (A.indptr, A.indices) if dense else (A.indptr, A.indices, B.indptr, B.indices)
    Ap, Aj, *Bpj = _one_dtype(indexes, max(m, k, n))
    Ax = np.asarray(A.data, dtype=np.int64)
    if dense:
        out = np.zeros((m, n), dtype=np.int64)
        X = np.ascontiguousarray(B, dtype=np.int64)
        tools.csr_matvecs(m, k, n, Ap, Aj, Ax, X.ravel(), out.ravel())
        return out
    Bp, Bj = Bpj
    nnz = tools.csr_matmat_maxnnz(m, n, Ap, Aj, Bp, Bj)
    Ap, Aj, Bp, Bj = _one_dtype((Ap, Aj, Bp, Bj), nnz)
    C = CSR(np.empty(nnz, np.int64), np.empty(nnz, Ap.dtype), np.empty(m + 1, Ap.dtype), (m, n))
    Bx = np.asarray(B.data, dtype=np.int64)
    tools.csr_matmat(m, n, Ap, Aj, Ax, Bp, Bj, Bx, C.indptr, C.indices, C.data)
    return C


def _term_slices(A):
    """CSR matrices A_s with A = sum A_s and at most 2^16 terms in each row:
    the entries of each row of A (dense or CSR) taken 2^16 at a time, in
    row order (at least one slice, so that a sum of their products has
    A @ B's shape)."""
    import numpy as np

    if isinstance(A, np.ndarray):
        A = dense_csr(A)
    start, stop = A.indptr[0], A.indptr[-1]
    counts, rows = np.diff(A.indptr), csr_rows(A)
    data, cols = A.data[start:stop], A.indices[start:stop]
    # the place of each entry in its row
    place = np.arange(start, stop) - A.indptr[rows]
    width = 1 << _LIMB_BITS
    for s in range(0, max(1, int(counts.max(initial=0))), width):
        keep = (place >= s) & (place < s + width)
        yield csr(data[keep], rows[keep], cols[keep], A.shape)


def _reduce(C, p: int):
    """C mod p for a dense product, or in place for a CSR product of
    _product: its zeros dropped by the compiled csr_eliminate_zeros, and
    its arrays cut to the entries kept, copied when those fill less than
    half the buffer (as scipy prunes its own), so a sparse result
    holds no more than twice its entries."""
    import numpy as np

    if isinstance(C, np.ndarray):
        C %= p
        return C
    C.data %= p
    _sparsetools().csr_eliminate_zeros(C.shape[0], C.shape[1], C.indptr, C.indices, C.data)
    nnz = int(C.indptr[-1])
    if nnz < len(C.data) // 2:
        C.data, C.indices = C.data[:nnz].copy(), C.indices[:nnz].copy()
    else:
        C.data, C.indices = C.data[:nnz], C.indices[:nnz]
    return C


def _added(parts: list, p: int):
    """The sum mod p of reduced products of one shape: dense arrays summed
    cell by cell; CSR matrices, whose patterns may differ, one pair at a
    time by the compiled csr_plus_csr, which matches their cells in any
    column order and drops the sums that come to 0, each sum (two residues,
    below 2^32) reduced by _reduce before the next."""
    import numpy as np

    if isinstance(parts[0], np.ndarray):
        return sum(parts) % p
    tools = _sparsetools()
    total = parts[0]
    for C in parts[1:]:
        (m, n), nnz = total.shape, len(total.data) + len(C.data)
        indexes = (total.indptr, total.indices, C.indptr, C.indices)
        Ap, Aj, Bp, Bj = _one_dtype(indexes, max(m, n, nnz))
        S = CSR(np.empty(nnz, np.int64), np.empty(nnz, Ap.dtype), np.empty(m + 1, Ap.dtype), (m, n))
        tools.csr_plus_csr(m, n, Ap, Aj, total.data, Bp, Bj, C.data, S.indptr, S.indices, S.data)
        total = _reduce(S, p)
    return total


def zero_vec(field: Field, n: int) -> tuple:
    return (field.zero(),) * n


def basis_vec(field: Field, n: int, i: int) -> tuple:
    z, o = field.zero(), field.one()
    return tuple(o if j == i else z for j in range(n))


def vadd(field: Field, u: Sequence, v: Sequence) -> tuple:
    """u + v for normalized vectors; an entry where v is zero is u's own."""
    return tuple(field.normalize(a + b) if b else a for a, b in zip(u, v, strict=True))


def vscale(field: Field, c, v: Sequence) -> tuple:
    """c v for a normalized vector; its zero entries are kept as they are."""
    return tuple(field.normalize(c * a) if a else a for a in v)


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: tuple

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ShapeError("ragged rows")

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable]) -> "Matrix":
        return Matrix(field, tuple(tuple(field.normalize(x) for x in r) for r in rows))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, tuple(basis_vec(field, n, i) for i in range(n)))

    @staticmethod
    def zeros(field: Field, m: int, n: int) -> "Matrix":
        return Matrix(field, tuple(zero_vec(field, n) for _ in range(m)))

    @staticmethod
    def from_entries(field: Field, nrows: int, ncols: int, entries: Iterable) -> "Matrix":
        """The nrows x ncols matrix whose cell (i, j) is the sum of the c of
        every entry ((i, j), c): each cell an entry names is normalized
        once, and every row that no entry names is one shared zero tuple.
        A key outside the shape raises ShapeError; the row keys are checked
        once, and the column keys once per named row.  _nonzero is seeded
        from the named cells, so reading it costs no scan of the rest."""
        by_row: dict = {}
        for (i, j), c in entries:
            cells = by_row.get(i)
            if cells is None:
                by_row[i] = {j: c}
            elif j in cells:
                cells[j] += c
            else:
                cells[j] = c
        if by_row and (min(by_row) < 0 or max(by_row) >= nrows):
            raise ShapeError(f"row key outside {nrows} rows")
        zeros = (field.zero(),) * ncols
        rows = [zeros] * nrows
        nonzero: list = [[]] * nrows
        normalize = field.normalize
        for i, cells in by_row.items():
            if min(cells) < 0 or max(cells) >= ncols:
                raise ShapeError(f"column key outside {ncols} columns")
            row = list(zeros)
            for j, c in cells.items():
                row[j] = normalize(c)
            rows[i] = tuple(row)
            nonzero[i] = [(j, row[j]) for j in sorted(cells) if row[j]]
        M = Matrix(field, tuple(rows))
        vars(M)["_nonzero"] = tuple(nonzero)
        return M

    @staticmethod
    def from_columns(field: Field, cols: Iterable[Iterable]) -> "Matrix":
        cols = [tuple(c) for c in cols]
        return Matrix.from_rows(field, zip(*cols)) if cols else Matrix(field, ())

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError("matrices over different fields")

    @cached_property
    def _nonzero(self) -> tuple:
        """The (column, entry) pairs of each row where the entry is nonzero;
        a row object that several rows share (the one zero tuple of
        from_entries and of the parse) is read once."""
        distinct = {id(r): r for r in self.rows}
        read = {key: [(j, x) for j, x in enumerate(r) if x] for key, r in distinct.items()}
        return tuple(read[id(r)] for r in self.rows)

    def mul(self, other: "Matrix") -> "Matrix":
        """self @ other: one int64 mulmod when machine_prime admits the field
        and the product has at least _NUMPY_CELLS cells, otherwise a Python
        sum over the nonzero entries of each row of self and of other (read
        once per matrix), normalizing only the entries it reaches."""
        self._check(other)
        if self.ncols != other.nrows:
            raise ShapeError(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        field = self.field
        p = machine_prime(field)
        if p is not None and self.nrows * other.ncols >= _NUMPY_CELLS:
            import numpy as np

            a, b = (np.array(m.rows, dtype=np.int64) % p for m in (self, other))
            return Matrix(field, tuple(map(tuple, mulmod(a, b, p).tolist())))
        z, norm, n = field.zero(), field.normalize, other.ncols
        right = other._nonzero
        out = []
        for r in self._nonzero:
            acc: dict = {}
            for k, a in r:
                for j, b in right[k]:
                    acc[j] = acc.get(j, z) + a * b
            row = [z] * n
            for j, x in acc.items():
                row[j] = norm(x)
            out.append(tuple(row))
        return Matrix(field, tuple(out))

    def apply(self, vec: Sequence) -> tuple:
        """self @ vec, summing each row over the nonzero entries of vec at
        which the row is nonzero."""
        if len(vec) != self.ncols:
            raise ShapeError("vector length mismatch")
        norm = self.field.normalize
        nonzero = [(j, b) for j, b in enumerate(vec) if b]
        return tuple(norm(sum([r[j] * b for j, b in nonzero if r[j]])) for r in self.rows)

    def add(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, tuple(vadd(self.field, a, b) for a, b in zip(self.rows, other.rows, strict=True)))

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, tuple(vscale(self.field, c, r) for r in self.rows))

    def transpose(self) -> "Matrix":
        """The transpose.  A _nonzero already known (seeded by from_entries
        or a transpose, or read once) is transposed with it, in
        O(nonzeros), so reading the transpose's costs no scan."""
        T = Matrix(self.field, tuple(zip(*self.rows)) if self.rows else ())
        if "_nonzero" in vars(self):
            cols: list = [[] for _ in range(self.ncols)]
            for i, row in enumerate(self._nonzero):
                for j, x in row:
                    cols[j].append((i, x))
            vars(T)["_nonzero"] = tuple(cols)
        return T

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        o = self.field.one()
        return all(
            x == o if i == j else not x for i, r in enumerate(self.rows) for j, x in enumerate(r)
        )

    def pow_(self, k: int) -> "Matrix":
        """self^k by squaring, the first factor being the lowest power of two
        in k: popcount(k) + floor(log2 k) - 1 products; self^0 is I."""
        if self.nrows != self.ncols:
            raise ShapeError("power of non-square matrix")
        acc, base = None, self
        while k:
            if k & 1:
                acc = base if acc is None else acc.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return Matrix.identity(self.field, self.nrows) if acc is None else acc

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        rows, pivots = _rref(self.field, [list(r) for r in self.rows])
        return Matrix(self.field, tuple(tuple(r) for r in rows)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> tuple[tuple, ...]:
        """Canonical basis of the right kernel: reduced-echelon row vectors."""
        red, pivots = self.rref()
        n = self.ncols
        free = [j for j in range(n) if j not in pivots]
        vecs = []
        z, o = self.field.zero(), self.field.one()
        for f in free:
            v = [z] * n
            v[f] = o
            for r, pc in enumerate(pivots):
                v[pc] = self.field.neg(red.rows[r][f])
            vecs.append(tuple(v))
        return canonical_basis(self.field, vecs)

    def solve(self, rhs: Sequence) -> Optional[tuple]:
        """One exact solution of self @ x = rhs with free variables set to
        zero, or None when the system is inconsistent."""
        x = self._solve_rows([(b,) for b in rhs], 1)
        return None if x is None else tuple(r[0] for r in x)

    def solve_matrix(self, rhs: "Matrix") -> Optional["Matrix"]:
        """One exact solution X of self @ X = rhs with free variables set to
        zero, or None when any column is inconsistent."""
        x = self._solve_rows(rhs.rows, rhs.ncols)
        return None if x is None else Matrix(self.field, x)

    def _solve_rows(self, rhs_rows: Sequence, width: int) -> Optional[tuple]:
        """Rows of X from one elimination of [self | rhs], rhs normalized
        once here (_solved)."""
        if len(rhs_rows) != self.nrows:
            raise ShapeError("rhs length mismatch")
        norm = self.field.normalize
        return self._solved([[*r, *map(norm, s)] for r, s in zip(self.rows, rhs_rows)], width)

    def _solved(self, aug: list, width: int) -> Optional[tuple]:
        """Rows of X from one elimination of aug = [self | rhs], rhs width
        columns of normalized entries: pivot rows read off, free rows zero;
        None when a pivot lands in the rhs block."""
        field, n = self.field, self.ncols
        rows, pivots = _rref(field, aug)
        if pivots and pivots[-1] >= n:
            return None
        x = [zero_vec(field, width)] * n
        for r, pc in enumerate(pivots):
            x[pc] = tuple(rows[r][n:])
        return tuple(x)

    def inverse(self) -> "Matrix":
        """The inverse, read off the reduced echelon form of [self | I].
        Over an admitted GF(p), from _NUMPY_CELLS cells of [self | I] on,
        that is one int64 array eliminated by _rref_modp_numpy and read off
        once; the matrix is singular unless the pivots are 0 .. n-1.  On
        the Python-scalar engine [self | I] is laid out once, I from the
        field's own zero and one, which need no normalizing."""
        n = self.nrows
        if n != self.ncols:
            raise ShapeError("inverse of non-square matrix")
        # a zero row or column is singular without the n x 2n elimination,
        # read off _nonzero (seeded by from_entries) rather than every cell
        nonzero = self._nonzero
        if not all(nonzero) or len({j for r in nonzero for j, _ in r}) < n:
            raise SingularError("matrix not invertible")
        p = machine_prime(self.field)
        if p is not None and 2 * n * n >= _NUMPY_CELLS:
            import numpy as np

            aug = np.hstack((np.array(self.rows, dtype=np.int64), np.eye(n, dtype=np.int64)))
            red, pivots = _rref_modp_numpy(aug, p)
            if pivots != list(range(n)):
                raise SingularError("matrix not invertible")
            return Matrix(self.field, tuple(map(tuple, red[:, n:].tolist())))
        z, o = self.field.zero(), self.field.one()
        zeros = [z] * n
        x = self._solved([[*r, *zeros[:i], o, *zeros[i + 1 :]] for i, r in enumerate(self.rows)], n)
        if x is None:
            raise SingularError("matrix not invertible")
        return Matrix(self.field, x)

    def det(self):
        n = self.nrows
        if n != self.ncols:
            raise ShapeError("determinant of non-square matrix")
        field = self.field
        rows = [list(r) for r in self.rows]
        z = field.zero()
        det = field.one()
        for c in range(n):
            piv = next((r for r in range(c, n) if rows[r][c]), None)
            if piv is None:
                return z
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                det = field.neg(det)
            det = field.normalize(det * rows[c][c])
            inv = field.inv(rows[c][c])
            for r in range(c + 1, n):
                f = field.normalize(rows[r][c] * inv)
                if f:
                    rows[r] = [
                        field.normalize(a - f * b) if b else a for a, b in zip(rows[r], rows[c])
                    ]
        return det

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def matrix_order(M: Matrix, cap: int) -> Optional[int]:
    """Smallest k >= 1 with M^k = I, or None if no such k <= cap."""
    if M.nrows != M.ncols:
        raise ShapeError("order of non-square matrix")
    acc = M
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc.mul(M)
    return None


def canonical_basis(field: Field, vectors: Iterable[Sequence]) -> tuple[tuple, ...]:
    """Canonical (reduced-echelon) basis of the span of the given vectors."""
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return ()
    rows, pivots = _rref(field, [list(v) for v in vecs])
    return tuple(tuple(rows[i]) for i in range(len(pivots)))


def iterated_kernel_sparse(field: Field, dim: int, S: tuple) -> tuple[tuple, ...]:
    """Canonical basis of the kernel of a sparse operator with dim columns,
    given as S = (rows, cols, vals), its nonzero entries in row order
    (hopfcore.integral_operator): int64 index arrays, and the values as
    int64 residues mod p over a GF(p) that machine_prime admits, otherwise
    as an object array of normalized scalars.

    Peel: a row whose one nonzero entry c is at column j says c t_j = 0,
    so t_j = 0; such columns go until no row has a single entry left.
    Refine: K starts as the identity on the columns left (S K is S there);
    while S K != 0, K becomes K times the kernel of its first nonzero rows,
    at most cols(K).  Exact on every input: ker S stays in span K
    (S K x = 0 for K x in ker S), each pass drops a column of K, and the
    loop stops only when S K = 0.  The engines differ only in the dtype of
    vals and in S K (_product_rows).
    """
    import numpy as np

    rows, cols, vals = S
    left, r, c = np.ones(dim, dtype=bool), rows, cols
    while True:
        r, c = r[left[c]], c[left[c]]
        # an entry is alone in its row when neither neighbour shares it
        edge = np.diff(r, prepend=-1, append=-1).astype(bool)
        alone = edge[:-1] & edge[1:]
        if not alone.any():
            break
        left[c[alone]] = False
    keep = left[cols]
    # S on the columns left, renumbered 0 .. w - 1, in which K is written
    entries = rows, cols, vals = rows[keep], (np.cumsum(left) - 1)[cols[keep]], vals[keep]
    free = np.flatnonzero(left).tolist()
    number = np.cumsum(np.diff(rows, prepend=-1).astype(bool)) - 1
    first = number < len(free)
    cells = zip(zip(number[first].tolist(), cols[first].tolist()), vals[first].tolist())
    block = Matrix.from_entries(field, len(free), len(free), cells)
    block = Matrix(field, tuple(filter(any, block.rows)))
    K = None  # the identity on the columns left
    while block.rows:
        null = Matrix(field, block.kernel())
        if not null.rows:
            return ()
        K = null if K is None else null.mul(K)
        block = Matrix(field, tuple(islice(_product_rows(field, entries, K.rows), K.nrows)))
    if K is None:
        basis = Matrix.identity(field, len(free)).rows
    else:
        # a kernel is canonical already; only a product of kernels is reduced
        basis = K.rows if K is null else canonical_basis(field, K.rows)
    # zero columns put between the columns left keep a reduced echelon form
    cells = (((i, j), x) for i, v in enumerate(basis) for j, x in zip(free, v) if x)
    return Matrix.from_entries(field, len(basis), dim, cells).rows


def annihilates(field: Field, S: tuple, vec: Sequence) -> bool:
    """Whether the operator S of iterated_kernel_sparse maps vec to zero."""
    return next(_product_rows(field, S, (tuple(vec),)), None) is None


def normalized(field: Field, vals):
    """The values of a table array reduced on the engine machine_prime
    chooses for field: int64 residues mod p, or each Python scalar of an
    object array by field.normalize."""
    import numpy as np

    p = machine_prime(field)
    if p is None:
        return np.fromiter(map(field.normalize, vals), dtype=object, count=len(vals))
    return vals % p


def summed(field: Field, keys, vals) -> tuple:
    """The entries (keys, vals) of a sparse table, int64 keys and values of
    either engine, with the values of each repeated key summed: the
    distinct keys ascending and their sums, normalized, those that vanish
    dropped."""
    import numpy as np

    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    if not len(keys):
        return keys, vals
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    vals = normalized(field, np.add.reduceat(vals, first))
    keep = vals.astype(bool)
    return keys[first][keep], vals[keep]


def join(field: Field, left: tuple, right: tuple) -> tuple:
    """(l, r, vals): every pair of an entry l of left and an entry r of
    right with the same key, each side given as (keys, vals), int64 keys
    and the values of a table array of either engine (normalized); l
    ascending, the r of each l in the order of right, and vals the products
    reduced by normalized.

    Bound (int64): both values are residues below p < 2^31, so each product
    is below 2^62 before its reduction."""
    import numpy as np

    (lkeys, lvals), (rkeys, rvals) = left, right
    order = np.argsort(rkeys, kind="stable")
    rkeys = rkeys[order]
    # each l repeated over its matches order[start : stop] in the sorted keys
    start = np.searchsorted(rkeys, lkeys)
    reps = np.searchsorted(rkeys, lkeys, side="right") - start
    l = np.repeat(np.arange(len(lkeys)), reps)
    r = order[np.arange(len(l)) - np.repeat(np.cumsum(reps) - reps - start, reps)]
    return l, r, normalized(field, lvals[l] * rvals[r])


def nonzero_entries(M: Matrix) -> tuple:
    """(rows, cols, vals): the nonzero entries of M in row order (read off
    M._nonzero, each distinct row object once), as int64 index arrays and an
    object array of M's own scalars."""
    import numpy as np

    flat = list(chain.from_iterable(M._nonzero))
    counts = np.fromiter(map(len, M._nonzero), dtype=np.int64, count=M.nrows)
    cols = np.fromiter((j for j, _ in flat), dtype=np.int64, count=len(flat))
    vals = np.fromiter((x for _, x in flat), dtype=object, count=len(flat))
    return np.repeat(np.arange(M.nrows), counts), cols, vals


def table_rows(rows, cols: tuple, vals) -> tuple:
    """(keys, terms) of the entries of a table grouped by row (each row's
    entries consecutive), rows an int64 array, cols a tuple of index arrays
    and vals the values: the distinct rows in entry order, and for each the
    tuple of its terms (*col, val) in entry order, all as Python scalars."""
    import numpy as np

    terms = list(zip(*(c.tolist() for c in cols), vals.tolist()))
    starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
    ends = [*starts[1:], len(terms)]
    return rows[starts].tolist(), [tuple(terms[s:e]) for s, e in zip(starts, ends)]


def _product_rows(field: Field, entries: tuple, K: Sequence):
    """The nonzero rows of S K in row order, lazily, for S given by its
    entries (iterated_kernel_sparse) and K by its columns, reading the
    entries in K's support only: on the int64 engine by mulmod, in blocks
    of rows whose dense product (8 bytes a cell) fits _BLOCK_BYTES, so
    memory stays flat however many rows S has; on the generic engine a row
    at a time."""
    import numpy as np

    # the nonzero (t, K[t][j]) at each coordinate j, K[t] the t-th column
    at = [[(t, x) for t, x in enumerate(c) if x] for c in zip(*K)]
    rows, cols, vals = (a[np.array(list(map(bool, at)))[entries[1]]] for a in entries)
    number = np.cumsum(np.diff(rows, prepend=-1).astype(bool)) - 1
    p = machine_prime(field)
    if p is not None:
        # C-ordered once, as the compiled product reads it
        Kt = np.array(K, dtype=np.int64).T.copy()
        n = int(number[-1]) + 1 if len(number) else 0
        A = csr(vals, number, cols, (n, len(at)))
        step = max(1, _BLOCK_BYTES // (8 * len(K)))
        for r in range(0, n, step):
            block = mulmod(A[r : r + step], Kt, p)
            yield from map(tuple, block[block.any(axis=1)].tolist())
        return
    z, norm = field.zero(), field.normalize
    for _, group in groupby(zip(number.tolist(), cols.tolist(), vals.tolist()), key=itemgetter(0)):
        acc: dict = {}
        for _, c, x in group:
            for t, y in at[c]:
                acc[t] = acc[t] + x * y if t in acc else x * y
        if any(map(norm, acc.values())):
            yield tuple(norm(acc[t]) if t in acc else z for t in range(len(K)))


# -- elimination engines ---------------------------------------------------


def _rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    if not rows or not rows[0]:
        return rows, []
    # int64 stays exact: a row update is one product, at most (p-1)^2 < 2^62
    p = machine_prime(field)
    if p is not None and len(rows) * len(rows[0]) >= _NUMPY_CELLS:
        red, pivots = _rref_modp_numpy(rows, p)
        return red.tolist(), pivots
    return _rref_generic(field, rows)


def _rref_generic(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """The reduced echelon form of rows, whose entries are normalized, and
    its pivot columns.  A row update keeps each entry where the pivot row is
    zero, and the pivot row's scaling keeps its zeros."""
    m, n = len(rows), len(rows[0])
    one = field.one()
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        if rows[r][c] != one:
            inv = field.inv(rows[r][c])
            rows[r] = [field.normalize(inv * x) if x else x for x in rows[r]]
        prow = rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.normalize(a - f * b) if b else a for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return rows, pivots


def _rref_modp_numpy(rows, p: int) -> tuple:
    """The reduced echelon form mod p of an int64 array (or nested lists),
    as a new int64 array, and its pivot columns."""
    import numpy as np

    a = np.array(rows, dtype=np.int64) % p
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots
