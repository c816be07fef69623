"""Finite-dimensional associative unital algebras by structure constants.

The multiplication tensor is stored sparsely: mul maps a basis-index pair
(i, j) to the expansion of e_i * e_j as a sorted tuple of (k, coeff) with
zero coefficients omitted and missing keys meaning the zero product.  All
scalars are stored normalized for the algebra's field, so structural
equality of two algebras is plain equality of their tables.

The quantified identities (associativity on every basis triple, "phi is an
algebra map" on every basis pair, and in hopfcore Delta multiplicative and
the four Hopf axioms linear in Delta) have two engines, and first_failure
alone chooses between them.  Above a crossover dimension they run as sparse
int64 identities mod each prime of linalg.engine_primes: the field's p over
an admitted GF(p), and over QQ enough primes below 2^31 that the identity
holds in QQ exactly when it holds mod each of them.  For associativity each
side sums dim products of two structure constants; for phi, dim^2 products
of three constants among phi's entries and both tables.  Otherwise, and
over every other field, they run as Python loops.  Two crossovers, from
warm timings (all of them next to _SPARSE_DIM):
- _SPARSE_DIM = 12 for every identity over QQ and for the quadratic ones
  over GF(p): at dim 16 the kernels win (D(sweedler) over QQ, a whole
  verify_hopf: 58 ms on the loops, 13 ms on the kernels);
- dim 40 (hopfcore._CERTIFIED_DIM) for the linear Hopf axioms over GF(p),
  whose loops on Python ints stay cheap longer (taft-4-5-2, dim 16: loops
  1.1 ms, kernel 4.5 ms), while over QQ their kernel wins from dim 16
  (D(sweedler): loops 9.1 ms, kernel 6.9 ms).
Over QQ the kernels run once per prime, so when engine_primes asks for more
than ceil(dim^2 / _DIM2_PER_PRIME) of them, a count beyond which the loops
of every identity measured cost less, the loops run instead.  Both engines
report the same first failing index: over QQ the failing set is the union
of the failing sets mod each prime, so its first item is the smallest of
the first items mod each prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from . import linalg
from .errors import FieldMismatchError, InternalCheckError, ShapeError, SingularError
from .linalg import Matrix, basis_vec, mulmod, residues
from .report import Report
from .scalars import Field

SparseRow = tuple  # tuple[(basis_index, scalar), ...] sorted by index

# The crossover from the Python loops to the int64 kernels, measured warm
# (best of 20) on a 2-vCPU VM.
# - Quadratic identities, a whole verify_hopf: at dim 9 the loops win over
#   GF(p) (taft-3-7-2: 1.7 ms, kernels 4.3 ms), at dim 16 the kernels
#   (D(sweedler) over QQ: 58 ms, kernels 13 ms; taft-4-5-2: 6.4 ms, kernels
#   5.2 ms); cyclic group algebras cross near dim 9 over QQ and near dim 15
#   over GF(101).  So they cross at _SPARSE_DIM on both fields.
# - The four Hopf axioms linear in Delta: over GF(p) their loops on Python
#   ints still win at dim 16 (taft-4-5-2: loops 1.1 ms, kernel 4.5 ms) and
#   dim 25 (D(f5c5): 2.8 ms, 5.6 ms), so there they cross at
#   hopfcore._CERTIFIED_DIM = 40; over QQ, on Fractions, the kernel wins
#   from dim 16 (D(sweedler): loops 9.1 ms, kernel 6.9 ms; D(qs3), dim 36:
#   26 ms, 4.6 ms), so they cross at _SPARSE_DIM.
_SPARSE_DIM = 12
# Over QQ the kernels run once per prime of linalg.engine_primes.  The
# loops cost a multiple of one prime that grows with dim; the largest
# multiple measured (warm, loops over one kernel call) is 10.7 at dim 16
# (phi on D(sweedler)), 44 at dim 36 (Delta multiplicative on D(qs3)
# rescaled by rationals of height 2^40), 145 at dim 64 (Delta on D(QQ[D4]))
# and 200 at dim 81 (Delta on D(QQ[C9])); the smallest, the linear axioms',
# is 1.5, 5.2, 7.5 (QQ[C64]) and 19.  So the kernels run at up to
# ceil(dim^2 / _DIM2_PER_PRIME) primes (13, 65, 205 and 329 there), and
# beyond that count, where the loops of every identity measured cost less,
# the loops run.  D(qs3) rescaled by height 2^40 asks for 196 to 528
# primes: on the kernels verify_hopf took 2.85 s there, on the loops
# 0.39 s.  Not measured above dim 81.
_DIM2_PER_PRIME = 20


def _clean_row(field: Field, items: Iterable) -> SparseRow:
    """The (key, scalar) pairs of items, repeated keys summed, as nonzero_row."""
    acc: dict = {}
    for k, c in items:
        acc[k] = acc.get(k, 0) + c
    return nonzero_row(field, acc)


def nonzero_row(field: Field, acc: Mapping) -> tuple:
    """The entries of an accumulator {key: scalar} as (key, value) pairs
    sorted by key, each value normalized once and the zeros dropped."""
    z = field.zero()
    out = []
    # a plain loop: multiply_rows runs this thousands of times per pass on
    # one or two keys, where a comprehension's own frame costs more
    for k in sorted(acc):
        c = field.normalize(acc[k])
        if c != z:
            out.append((k, c))
    return tuple(out)


def vec_to_row(field: Field, vec: Sequence) -> SparseRow:
    z = field.zero()
    return tuple((k, c) for k, c in enumerate(vec) if c != z)


@dataclass(frozen=True, eq=False)
class StructureAlgebra:
    field: Field
    dim: int
    mul: Mapping  # (i, j) -> SparseRow
    unit: tuple
    basis_names: tuple

    @staticmethod
    def from_sparse(
        field: Field,
        dim: int,
        mul: Mapping,
        unit: Sequence,
        basis_names: Optional[Sequence[str]] = None,
    ) -> "StructureAlgebra":
        table = {}
        for (i, j), row in mul.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ShapeError(f"basis pair {(i, j)} out of range")
            cleaned = _clean_row(field, row)
            if any(not 0 <= k < dim for k, _ in cleaned):
                raise ShapeError(f"product index out of range at pair {(i, j)}")
            if cleaned:
                table[(i, j)] = cleaned
        u = tuple(field.normalize(c) for c in unit)
        if len(u) != dim:
            raise ShapeError("unit vector length mismatch")
        names = tuple(basis_names) if basis_names else tuple(f"e{k}" for k in range(dim))
        if len(names) != dim:
            raise ShapeError("basis name count mismatch")
        return StructureAlgebra(field, dim, table, u, names)

    # -- element-level operations -----------------------------------------

    def multiply(self, a: Sequence, b: Sequence) -> tuple:
        if len(a) != self.dim or len(b) != self.dim:
            raise ShapeError("vector length mismatch")
        field = self.field
        z = field.zero()
        acc = [z] * self.dim
        for i, ai in enumerate(a):
            if ai == z:
                continue
            for j, bj in enumerate(b):
                if bj == z:
                    continue
                f = ai * bj
                for k, c in self.mul.get((i, j), ()):
                    acc[k] = acc[k] + f * c
        return tuple(field.normalize(x) for x in acc)

    def multiply_rows(self, a: SparseRow, b: SparseRow) -> SparseRow:
        """Product of two sparse elements, sparse in and out."""
        field = self.field
        z = field.zero()
        acc: dict[int, object] = {}
        for i, ai in a:
            for j, bj in b:
                f = ai * bj
                for k, c in self.mul.get((i, j), ()):
                    acc[k] = acc.get(k, z) + f * c
        return nonzero_row(field, acc)

    def left_mult_matrix(self, a: Sequence) -> Matrix:
        """Matrix of x -> a*x in the structure basis (columns are a*e_j)."""
        return self._mult_matrix(a, "left")

    def right_mult_matrix(self, a: Sequence) -> Matrix:
        """Matrix of x -> x*a in the structure basis (columns are e_j*a)."""
        return self._mult_matrix(a, "right")

    def _mult_matrix(self, a: Sequence, side: str) -> Matrix:
        """L_a (side "left") or R_a ("right") from one pass over mul: the
        entry c at e_k of e_i e_j adds a_i c to L_a[k][j], a_j c to R_a[k][i]."""
        if len(a) != self.dim:
            raise ShapeError("vector length mismatch")
        z = self.field.zero()
        rows = [[z] * self.dim for _ in range(self.dim)]
        for (i, j), row in self.mul.items():
            s, col = (a[i], j) if side == "left" else (a[j], i)
            if s != z:
                for k, c in row:
                    rows[k][col] += s * c
        return Matrix.from_rows(self.field, rows)

    def basis_vector(self, i: int) -> tuple:
        return basis_vec(self.field, self.dim, i)

    def is_commutative(self) -> bool:
        return all(
            self.mul.get((i, j), ()) == self.mul.get((j, i), ())
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def format_vector(self, v: Sequence) -> str:
        z, o = self.field.zero(), self.field.one()
        parts = []
        for i, c in enumerate(v):
            if c == z:
                continue
            coeff = "" if c == o else f"{self.field.fmt(c)}*"
            parts.append(f"{coeff}{self.basis_names[i]}")
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other):
        return (
            isinstance(other, StructureAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.unit == other.unit
            and dict(self.mul) == dict(other.mul)
        )

    def __hash__(self):
        return hash((self.field, self.dim, self.unit))

    def __repr__(self):
        return f"StructureAlgebra(dim={self.dim}, field={self.field!r})"


# -- axioms -----------------------------------------------------------------


def verify_algebra(A: StructureAlgebra, title: str = "algebra axioms") -> Report:
    rep = Report(title)
    bad_unit = unit_failure(A)
    rep.add(
        "unit law",
        bad_unit is None,
        "" if bad_unit is None else f"{bad_unit[0]} unit fails at basis {bad_unit[1]}",
    )

    bad_triple = first_failure(
        A.field,
        A.dim,
        table_constants(A),
        2,
        A.dim,
        partial(_associativity_failure, A, None),
        partial(_associativity_failure_loops, A),
    )
    rep.add(
        "associativity",
        bad_triple is None,
        "" if bad_triple is None else f"fails at triple {bad_triple}",
    )
    return rep


def unit_failure(A: StructureAlgebra) -> Optional[tuple]:
    """First (side, i) with 1 e_i != e_i (side "left") or e_i 1 != e_i
    ("right"), left tested first at each i, or None."""
    unit = vec_to_row(A.field, A.unit)
    one = A.field.one()
    for i in range(A.dim):
        e = ((i, one),)
        if A.multiply_rows(unit, e) != e:
            return ("left", i)
        if A.multiply_rows(e, unit) != e:
            return ("right", i)
    return None


def _associativity_failure_loops(A: StructureAlgebra) -> Optional[tuple]:
    """First basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), or None."""
    field = A.field
    dim = A.dim
    rows = A.mul
    z = field.zero()
    for i in range(dim):
        for j in range(dim):
            pij = rows.get((i, j), ())
            for k in range(dim):
                lhs: dict[int, object] = {}
                for m, c in pij:
                    for n, d in rows.get((m, k), ()):
                        lhs[n] = lhs.get(n, z) + c * d
                rhs: dict[int, object] = {}
                for m, c in rows.get((j, k), ()):
                    for n, d in rows.get((i, m), ()):
                        rhs[n] = rhs.get(n, z) + c * d
                for n in set(lhs) | set(rhs):
                    if field.normalize(lhs.get(n, z)) != field.normalize(rhs.get(n, z)):
                        return (i, j, k)
    return None


def is_augmentation(A: StructureAlgebra, eps: Sequence) -> bool:
    """Does the covector eps define a one-dimensional representation?

    eps(e_i e_j) = eps_i eps_j on each pair of mul, one pass; a pair absent
    from mul has e_i e_j = 0, so it holds there exactly when eps_i eps_j = 0,
    which only the pairs of nonzero entries of eps can break."""
    field = A.field
    norm = field.normalize
    if norm(sum(c * e for c, e in zip(A.unit, eps))) != field.one():
        return False
    for (i, j), row in A.mul.items():
        if norm(sum(c * eps[k] for k, c in row)) != norm(eps[i] * eps[j]):
            return False
    support = [i for i, e in enumerate(eps) if norm(e) != field.zero()]
    return all((i, j) in A.mul for i in support for j in support)


def multiplicative_failure(
    src: StructureAlgebra, dst: StructureAlgebra, phi: Matrix
) -> Optional[tuple]:
    """First basis pair (i, j) with phi(e_i e_j) != phi(e_i) phi(e_j), or None
    when the linear map phi: src -> dst (columns are the images of the src
    basis vectors) is multiplicative."""
    dim = max(src.dim, dst.dim)
    return first_failure(
        dst.field,
        dim,
        chain(table_constants(src), table_constants(dst), chain.from_iterable(phi.rows)),
        3,
        dim * dim,
        partial(_multiplicative_failure_modp, src, dst, phi),
        partial(_multiplicative_failure_loops, src, dst, phi),
    )


def _multiplicative_failure_loops(
    src: StructureAlgebra, dst: StructureAlgebra, phi: Matrix
) -> Optional[tuple]:
    """multiplicative_failure as Python loops over the basis pairs of src."""
    field = dst.field
    z = field.zero()
    cols = [phi.col(j) for j in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            acc = [z] * dst.dim
            for k, c in src.mul.get((i, j), ()):
                for r, x in enumerate(cols[k]):
                    acc[r] = acc[r] + c * x
            if tuple(field.normalize(x) for x in acc) != dst.multiply(cols[i], cols[j]):
                return (i, j)
    return None


def check_automorphism(A: StructureAlgebra, M: Matrix, name: str) -> None:
    """Raise InternalCheckError, naming M, unless the matrix M is an algebra
    automorphism of A: invertible, fixing the unit, multiplicative."""
    try:
        M.inverse()
    except SingularError as exc:
        raise InternalCheckError(f"{name} is singular") from exc
    if M.apply(A.unit) != A.unit:
        raise InternalCheckError(f"{name} does not fix the unit")
    bad = multiplicative_failure(A, A, M)
    if bad is not None:
        raise InternalCheckError(f"{name} is not multiplicative at basis pair {bad}")


# -- sparse int64 kernels mod p ------------------------------------------------


def table_constants(A: StructureAlgebra):
    """The structure constants of A's mul table."""
    return (c for row in A.mul.values() for _, c in row)


def smallest(items) -> Optional[tuple]:
    """The smallest of the items that are not None, or None."""
    return min((x for x in items if x is not None), default=None)


def first_failure(
    field: Field,
    dim: int,
    constants,
    degree: int,
    count: int,
    kernel,
    loops,
    modp_dim: Optional[int] = None,
    merge=smallest,
):
    """The first failing item of a quantified identity of a dim-dimensional
    algebra, or None, from the one engine choice of the package.

    Above the crossover, at the linalg.engine_primes of an identity whose
    sides sum at most count products of at most degree of the constants:
    the smallest of the first failing items kernel(p) over those primes,
    which is kernel(p) itself over GF(p) and the first failing item in QQ
    (the primes meet the engine_primes bound).  A group of identities
    checked together combines its per-prime results with merge instead.
    Below the crossover, when engine_primes gives no prime, or when it asks
    for more than ceil(dim^2 / _DIM2_PER_PRIME), the Python loops: loops().

    The crossover is _SPARSE_DIM = 12, or modp_dim over an admitted GF(p)
    when it is given: the linear Hopf axioms give hopfcore._CERTIFIED_DIM,
    as their loops win over GF(p) up to dim 40 (taft-4-5-2, dim 16: loops
    1.1 ms, kernel 4.5 ms) but over QQ only below dim 16 (D(sweedler):
    9.1 ms, 6.9 ms).  The prime cutoff is measured next to _DIM2_PER_PRIME.
    """
    crossover = _SPARSE_DIM
    if modp_dim is not None and linalg.machine_prime(field) is not None:
        crossover = modp_dim
    if dim <= crossover:
        return loops()
    most = math.ceil(dim * dim / _DIM2_PER_PRIME)
    primes = linalg.engine_primes(field, constants, degree, count, most)
    if not primes:
        return loops()
    return merge([kernel(p) for p in primes])


def structure_arrays(A: StructureAlgebra, p: int) -> tuple:
    """The mul table mod p as int64 arrays (i, j, k, c): e_i e_j has c != 0
    at e_k."""
    import numpy as np

    pairs = np.array(list(A.mul), dtype=np.int64).reshape(-1, 2)
    counts = [len(row) for row in A.mul.values()]
    i, j = (np.repeat(pairs[:, t], counts) for t in (0, 1))
    k = np.fromiter((k for row in A.mul.values() for k, _ in row), dtype=np.int64)
    c = residues(table_constants(A), p)
    return tuple(x[c != 0] for x in (i, j, k, c))


def comul_arrays(H, p: int) -> tuple:
    """The comul table of the Hopf algebra H mod p as int64 arrays
    (m, u, v, d): Delta(e_m) has d != 0 at e_u (x) e_v."""
    import numpy as np

    flat = (x for m, terms in H.comul.items() for u, v, _ in terms for x in (m, u, v))
    m, u, v = np.fromiter(flat, dtype=np.int64).reshape(-1, 3).T
    d = residues((d for terms in H.comul.values() for *_, d in terms), p)
    return tuple(x[d != 0] for x in (m, u, v, d))


def residue_rows(rows: Optional[Sequence], width: int, p: int):
    """The vectors of rows (each of length width), reduced mod p exactly, as
    the rows of an int64 CSR matrix; rows None stands for the basis vectors."""
    import numpy as np
    import scipy.sparse as sp

    if rows is None:
        return sp.identity(width, dtype=np.int64, format="csr")
    flat = residues((x for r in rows for x in r), p)
    return sp.csr_matrix(flat.reshape(len(rows), width))


def first_difference(lhs, rhs) -> Optional[int]:
    """Smallest column where two reduced sparse matrices differ, or None."""
    cols = (lhs != rhs).nonzero()[1]
    return int(cols.min()) if len(cols) else None


def _associativity_failure(
    A: StructureAlgebra, rows: Optional[Sequence], p: int
) -> Optional[tuple]:
    """First (r, j, k) with g_r (e_j e_k) != (g_r e_j) e_k for the elements
    g_r of rows (None: the basis), or None: the sparse identity L_g M = M (L_g x I) mod p, with
    M: e_j (x) e_k -> e_j e_k, for a block of rows at a time.  Both sides
    are laid out as row n, column (r, j, k); the right side contracts the
    left factor of M with every L_g of the block at once, without forming
    L_g x I.

    Bound: the three products go through linalg.mulmod, exact for any term
    count; L_g is reduced mod p before it enters them.
    """
    import numpy as np
    import scipy.sparse as sp

    dim = A.dim
    sq = dim * dim
    i, j, k, c = structure_arrays(A, p)
    M = sp.csr_matrix((c, (k, i * dim + j)), shape=(dim, sq))
    # row u of Mu is L_{e_u}, entry (n, m) at n*dim + m
    Mu = sp.csr_matrix((c, (i, k * dim + j)), shape=(dim, sq))
    L = mulmod(residue_rows(rows, dim, p), Mu, p)
    # a row spans dim rows of the stacked L_g, and its entries times dim entries
    for r0, r1 in blocks((np.diff(L.indptr) + 1) * dim):
        shape = (dim, (r1 - r0) * sq)
        # g_r (e_j e_k): the L_g stacked, rows (r n), times M; to row n, column (r j k)
        lhs = mulmod(L[r0:r1].reshape(((r1 - r0) * dim, dim)).tocsr(), M, p).tocoo()
        lhs = sp.csr_matrix(
            (lhs.data, (lhs.row % dim, (lhs.row // dim) * sq + lhs.col)), shape=shape
        )
        # (g_r e_j) e_k: the L_g side by side, transposed to rows (r j), times
        # the left multiplications Mu; to row n, column (r j k)
        rhs = mulmod(side_by_side(L[r0:r1], dim).T.tocsr(), Mu, p).tocoo()
        rhs = sp.csr_matrix(
            (rhs.data, (rhs.col // dim, rhs.row * dim + rhs.col % dim)), shape=shape
        )
        col = first_difference(lhs, rhs)
        if col is not None:
            return (r0 + col // sq, *divmod(col % sq, dim))
    return None


def side_by_side(L, dim: int):
    """The matrices L_{g_r} given as the rows of L (entry (n, j) at
    n*dim + j), side by side: row n, column r*dim + j holds (g_r e_j)_n."""
    import scipy.sparse as sp

    L = L.tocoo()
    return sp.csr_matrix(
        (L.data, (L.col // dim, L.row * dim + L.col % dim)), shape=(dim, L.shape[0] * dim)
    )


def blocks(sizes):
    """Consecutive ranges [a, b) of the items, each holding at most the
    cell budget linalg._BLOCK in total size, or a single item."""
    a, total = 0, 0
    for b, size in enumerate(sizes):
        if b > a and total + size > linalg._BLOCK:
            yield a, b
            a, total = b, 0
        total += size
    if a < len(sizes):
        yield a, len(sizes)


def _multiplicative_failure_modp(
    src: StructureAlgebra, dst: StructureAlgebra, phi: Matrix, p: int
) -> Optional[tuple]:
    """multiplicative_failure as the sparse identity phi M_src = M_dst (phi x phi)
    mod p, without forming phi x phi: the right side contracts the left
    factor of the dst product with phi, reshapes, and contracts the right
    factor, for a block of src columns i at a time, sized so that every
    intermediate holds at most linalg._BLOCK entries unless one column needs
    more.

    Bound: all three products go through linalg.mulmod, exact for any term
    count; each intermediate is reduced mod p before the next product.
    """
    import scipy.sparse as sp

    ds, dd = src.dim, dst.dim
    P = residue_rows(phi.rows, ds, p)
    i, j, k, c = structure_arrays(src, p)
    Msrc = sp.csr_matrix((c, (k, i * ds + j)), shape=(ds, ds * ds))
    # row k, column n*dd + l: coefficient of e_n in e_k e_l
    k, l, n, c = structure_arrays(dst, p)
    left = sp.csr_matrix((c, (k, n * dd + l)), shape=(dd, dd * dd))
    width = max(1, linalg._BLOCK // (dd * max(dd, ds)))
    for i0 in range(0, ds, width):
        nb = min(width, ds - i0)
        # T[i, (n l)] = sum_k phi[k, i] c(k, l; n), regrouped as rows (n i), columns l
        T = mulmod(P[:, i0 : i0 + nb].T.tocsr(), left, p).tocoo()
        T = sp.csr_matrix(
            (T.data, ((T.col // dd) * nb + T.row, T.col % dd)), shape=(dd * nb, dd)
        )
        # R[(n i), j] = (phi(e_i) phi(e_j))_n, regrouped as row n, column (i j)
        R = mulmod(T, P, p).tocoo()
        rhs = sp.csr_matrix(
            (R.data, (R.row // nb, (R.row % nb) * ds + R.col)), shape=(dd, nb * ds)
        )
        lhs = mulmod(P, Msrc[:, i0 * ds : (i0 + nb) * ds], p)
        col = first_difference(lhs, rhs)
        if col is not None:
            return divmod(i0 * ds + col, ds)
    return None


# -- constructions -----------------------------------------------------------


def opposite(A: StructureAlgebra) -> StructureAlgebra:
    table = {(j, i): row for (i, j), row in A.mul.items()}
    return StructureAlgebra(A.field, A.dim, table, A.unit, A.basis_names)


def tensor_algebra(A: StructureAlgebra, B: StructureAlgebra) -> StructureAlgebra:
    """Tensor product algebra on pairs, flat index i*dim(B) + j (row-major)."""
    if A.field != B.field:
        raise FieldMismatchError("tensor factors over different fields")
    field = A.field
    dim = A.dim * B.dim
    table = {}
    for (i, ip), rowa in A.mul.items():
        for (j, jp), rowb in B.mul.items():
            entries = []
            for k, c in rowa:
                for l, d in rowb:
                    entries.append((k * B.dim + l, field.normalize(c * d)))
            if entries:
                table[(i * B.dim + j, ip * B.dim + jp)] = tuple(entries)
    unit = tuple(
        field.normalize(a * b) for a in A.unit for b in B.unit
    )
    names = tuple(f"{na}⊗{nb}" for na in A.basis_names for nb in B.basis_names)
    return StructureAlgebra(field, dim, table, unit, names)
