"""Finite-dimensional associative unital algebras by structure constants.

The multiplication tensor is stored sparsely: mul maps a basis-index pair
(i, j) to the expansion of e_i * e_j as a sorted tuple of (k, coeff), zero
coefficients omitted; a zero product has no key, in mul as in a Hopf
algebra's comul.  All scalars are stored normalized for the algebra's field,
so structural equality of two algebras is plain equality of their tables.
numpy code reads a table through its table arrays (structure_arrays here,
comul_arrays for a Hopf algebra's comul): int64 index columns and one value
array, built once per object and key and kept on the object.  The key is a
prime p, whose values are the int64 residues mod p, or None,
linalg.machine_prime's answer on the Python-scalar engine, whose values are
an object array of the table's own scalars; so the two engines differ there
only in the dtype of the values.  A table that arrives as arrays (a
TableView, as hopffile, the double and the dual hand them over) keeps them
for its key.  What the checks read off the mul table besides (its product
cover and the scale of its constants) is cached on the algebra as well.

The quantified identities (the unit law, associativity on every basis
triple, "phi is an algebra map" on every basis pair, and in hopfcore Delta
multiplicative and the five Hopf axioms linear in the tables) have two
engines, and first_failure alone chooses between them; the two quadratic
ones (associativity, Delta multiplicative) run on the generators of
product_cover first (on_cover).  Above the one crossover, _SPARSE_DIM = 12
for every identity over every field (timings next to it), they run as
sparse int64 identities mod each prime of linalg.engine_primes: the
field's p over an admitted GF(p), and over QQ enough primes below 2^31
that the identity holds in QQ exactly when it holds mod each of them.  For
associativity each side sums dim products of two structure constants; for
phi, dim^2 products of three constants among phi's entries and both
tables.  Otherwise, and over every other field, they run as Python loops.
Above it over an admitted GF(p) all_on_kernels holds, and hopffile's
array reader and product_cover's array path take over there too.
Over QQ the kernels run once per prime, so when engine_primes asks for
more than ceil(dim^2 / _DIM2_PER_PRIME) of them, a count beyond which the
loops of every identity measured cost less, the loops run instead.  Both
engines report the same first failing index: over QQ the failing set is
the union of the failing sets mod each prime, so its first item is the
smallest of the first items mod each prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from itertools import chain, compress
from typing import Iterable, Mapping, Optional, Sequence

from . import linalg
from .errors import InternalCheckError, ShapeError
from .linalg import Matrix, basis_vec, csr_rows, mulmod, residues
from .report import Report
from .scalars import GF, Field

SparseRow = tuple  # tuple[(basis_index, scalar), ...] sorted by index

# The one crossover from the Python loops to the int64 kernels, for every
# identity over every field, and (all_on_kernels) for hopffile's array
# reader and product_cover's array path.  Warm verify_hopf on a freshly
# parsed object, its table arrays built inside the timing, best of 9 in
# each of three runs (2-vCPU VM), every identity on the kernels against
# every identity on the loops (the quadratic ones over the product cover):
# - dim 9 over GF(p): the loops win (taft-3-7-2, D(f3c3), D(f7c3): 0.7-1.0
#   ms, kernels 1.6-2.3 ms).
# - over QQ the kernels win from dim 9 (D(qc3): 1.9-3.3 ms, loops 3.6-6.1
#   ms in the same runs) and lose at dim 6 (qs3: 3.0-3.2 ms, loops 2.7-2.9
#   ms); a QQ crossover below this one would need a second constant, so
#   the one value stays.
# - dim 16: even over GF(5) (taft-4-5-2: kernels 2.5-2.7 ms, loops 1.9-2.9
#   ms), the kernels by far over QQ (D(sweedler): 3.6 ms, loops 16 ms).
# - dim 25 and 36: the kernels (D(f5c5): 1.9 ms, loops 7.5 ms; D(qs3) over
#   QQ: 3.6 ms, loops 74 ms).
# Keeping GF(p)'s identities linear in the tables on their loops up to dim
# 40 costs `dual -o` on taft-4-5-2 5.3 ms and `verify` on D(f5c5) 3.8 ms,
# against 3.5 and 2.9 ms with this one crossover alone.
# The array reader loses to the line reader on small files (dim 9: 410-440
# us against 220-340 us) and wins from dim 16 (taft-4-5-2: 600-660 against
# 760 us; D(f5c5): 650-670 against 760-780 us), so this crossover serves
# it too.  linalg._NUMPY_CELLS is a separate gate: it sends a dense Matrix
# product or elimination to numpy by its cells, not an identity by dim,
# and lowered to 256 it slows `frobenius` and `separable` at dims 16-25
# (taft-4-5-2: 6.3 -> 7.1 ms; D(f5c5): 7.5 -> 8.8 ms).
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
    out = []
    # a plain loop: multiply_rows runs this thousands of times per pass on
    # one or two keys, where a comprehension's own frame costs more
    for k in sorted(acc):
        c = field.normalize(acc[k])
        if c:
            out.append((k, c))
    return tuple(out)


def default_names(dim: int) -> tuple:
    """The basis names e0, e1, ... of an algebra given without names."""
    return tuple(f"e{k}" for k in range(dim))


def vec_to_row(field: Field, vec: Sequence) -> SparseRow:
    return tuple((k, c) for k, c in enumerate(vec) if c)


class TableView(Mapping):
    """A read-only table {key: row}, as mul or comul holds it, kept as its
    table arrays (structure_arrays, comul_arrays) under the key p of their
    values: width key columns (two for mul, pairs (i, j) below dim, one for
    comul), the term columns and the values, each key's entries consecutive,
    so no row is empty.  The tuple rows are built on first read by one
    linalg.table_rows; numpy readers take the arrays and never need them."""

    def __init__(self, arrays: tuple, p, width: int, dim: int):
        self.arrays, self.p = arrays, p
        self._layout = (width, dim)
        self._rows: Optional[dict] = None

    def _table(self) -> dict:
        if self._rows is None:
            width, dim = self._layout
            head, cols = self.arrays[:width], self.arrays[width:-1]
            flat = head[0] if width == 1 else head[0] * dim + head[1]
            found, rows = linalg.table_rows(flat, cols, self.arrays[-1])
            if width == 2:
                found = [divmod(x, dim) for x in found]
            self._rows = dict(zip(found, rows))
        return self._rows

    def __getitem__(self, key):
        return self._table()[key]

    def __iter__(self):
        return iter(self._table())

    def __len__(self):
        return len(self._table())

    # the dict's own reads, not Mapping's, which go through __getitem__
    def __contains__(self, key):
        return key in self._table()

    def get(self, key, default=None):
        return self._table().get(key, default)

    def items(self):
        return self._table().items()

    def values(self):
        return self._table().values()


@dataclass(frozen=True, eq=False)
class StructureAlgebra:
    field: Field
    dim: int
    mul: Mapping  # (i, j) -> SparseRow
    unit: tuple
    basis_names: tuple
    # structure_arrays per key (a prime, or None), each built on first use
    # or handed over by a TableView mul
    _arrays: dict = dc_field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.mul, TableView):
            self._arrays[self.mul.p] = self.mul.arrays

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
        names = tuple(basis_names) if basis_names else default_names(dim)
        if len(names) != dim:
            raise ShapeError("basis name count mismatch")
        return StructureAlgebra(field, dim, table, u, names)

    @cached_property
    def cover(self) -> Optional[tuple]:
        """The generators of product_cover, or None when they are the basis."""
        generators, _ = product_cover(self)
        return generators if len(generators) < self.dim else None

    @cached_property
    def scale(self) -> tuple:
        """linalg.scale_of the constants of the mul table."""
        return linalg.scale_of(table_constants(self))

    # -- element-level operations -----------------------------------------

    def multiply(self, a: Sequence, b: Sequence) -> tuple:
        if len(a) != self.dim or len(b) != self.dim:
            raise ShapeError("vector length mismatch")
        field = self.field
        acc = [field.zero()] * self.dim
        nonzero = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in nonzero:
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

    def _mult_matrix(self, a: Sequence, side: str, transposed: bool = False) -> Matrix:
        """L_a (side "left") or R_a ("right"), or its transpose, in one pass
        over mul: e_i e_j = c e_k adds a_i c to L_a[k][j], a_j c to R_a[k][i]."""
        if len(a) != self.dim:
            raise ShapeError("vector length mismatch")
        if side == "left":
            entries = (((k, j), a[i] * c) for (i, j), row in self.mul.items() if a[i] for k, c in row)
        else:
            entries = (((k, i), a[j] * c) for (i, j), row in self.mul.items() if a[j] for k, c in row)
        if transposed:
            entries = ((cell[::-1], c) for cell, c in entries)
        return Matrix.from_entries(self.field, self.dim, self.dim, entries)

    def basis_vector(self, i: int) -> tuple:
        return basis_vec(self.field, self.dim, i)

    def is_commutative(self) -> bool:
        return all(
            self.mul.get((i, j), ()) == self.mul.get((j, i), ())
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def format_vector(self, v: Sequence) -> str:
        o = self.field.one()
        parts = []
        for i, c in enumerate(v):
            if not c:
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


def verify_algebra(A: StructureAlgebra) -> Report:
    """Unit law and associativity of A, the latter through A's product
    cover (on_cover)."""
    rep = Report("algebra axioms")
    bad_unit = unit_failure(A)
    rep.add(
        "unit law",
        bad_unit is None,
        "" if bad_unit is None else f"{bad_unit[0]} unit fails at basis {bad_unit[1]}",
    )

    bad_triple = on_cover(
        A.cover,
        lambda rows: first_failure(
            A.field,
            A.dim,
            lambda: A.scale,
            2,
            A.dim,
            lambda p: _associativity_failure(A, rows, p, structure_arrays(A, p)),
            partial(_associativity_failure_loops, A, rows),
        ),
    )
    rep.add(
        "associativity",
        bad_triple is None,
        "" if bad_triple is None else f"fails at triple {bad_triple}",
    )
    return rep


def product_cover(A: StructureAlgebra) -> tuple:
    """(generators, steps) of A under products, read off its mul table.
    The basis indices are walked in order; one not yet reached becomes a
    generator, and whenever a single-term product e_a e_b = c e_k (c != 0)
    has a and b reached, k is reached by the step (k, a, b), listed in the
    order taken.  Each single-term product is looked at once per factor as
    that factor is reached: O(entries of mul).  Where all_on_kernels holds,
    the single-term products are read off the table arrays.

    Why an identity on the generators decides it on the basis: S = {a :
    (ab)c = a(bc) for all b, c} is a subspace closed under products, as for
    a, a' in S, ((aa')b)c = (a(a'b))c = a((a'b)c) = a(a'(bc)) = (aa')(bc).
    So is T = {a : Delta(ab) = Delta(a)Delta(b) for all b} once A is
    associative: Delta((aa')b) = Delta(a)Delta(a'b) = Delta(a)Delta(a')
    Delta(b) = Delta(aa')Delta(b); so are the sets of subext's module law and
    intertwining check.  If the generators lie in such a set, each step puts
    e_k = c^-1 e_a e_b in it, so every basis vector does, over every field."""
    n = A.dim
    if all_on_kernels(A.field, n):
        import numpy as np

        # the single-term rows of the table arrays, in table order
        i, j, k, _ = structure_arrays(A, linalg.machine_prime(A.field))
        new = np.flatnonzero(np.diff(i * n + j, prepend=-1, append=-1))
        at = new[:-1][np.diff(new) == 1]
        singles = zip(k[at].tolist(), i[at].tolist(), j[at].tolist())
    else:
        singles = ((row[0][0], a, b) for (a, b), row in A.mul.items() if len(row) == 1)
    # the single-term products by each of their factors
    by_factor: list = [[] for _ in range(n)]
    for step in singles:
        _, a, b = step
        by_factor[a].append(step)
        if b != a:
            by_factor[b].append(step)
    reached = [False] * n
    generators, steps = [], []
    for g in range(n):
        if reached[g]:
            continue
        generators.append(g)
        reached[g] = True
        todo = [g]
        while todo:
            for k, a, b in by_factor[todo.pop()]:
                if reached[a] and reached[b] and not reached[k]:
                    reached[k] = True
                    steps.append((k, a, b))
                    todo.append(k)
    return tuple(generators), tuple(steps)


def on_cover(cover: Optional[Sequence], check):
    """check(cover), the first failure of an identity on the basis vectors
    at the indices cover, or when it fails there check(None), its first on
    the whole basis: with product_cover's generators, that of check(None)."""
    bad = check(cover)
    return bad if bad is None or cover is None else check(None)


def unit_failure(A: StructureAlgebra) -> Optional[tuple]:
    """First (side, i) with 1 e_i != e_i (side "left") or e_i 1 != e_i
    ("right"), left tested first at each i, or None, on the engine that
    first_failure chooses: each side sums dim products of two constants, a
    unit coordinate and one of mul."""
    bad = first_failure(
        A.field,
        A.dim,
        lambda: linalg.joint_scale(A.scale, linalg.scale_of(A.unit)),
        2,
        A.dim,
        lambda p: _unit_failure(A, p, structure_arrays(A, p)),
        partial(_unit_failure_loops, A),
    )
    return None if bad is None else (("left", "right")[bad[1]], bad[0])


def _unit_failure_loops(A: StructureAlgebra) -> Optional[tuple]:
    """The first (i, side) of unit_failure, side 0 left and 1 right, as
    Python loops over the basis."""
    unit = vec_to_row(A.field, A.unit)
    one = A.field.one()
    for i in range(A.dim):
        e = ((i, one),)
        if A.multiply_rows(unit, e) != e:
            return (i, 0)
        if A.multiply_rows(e, unit) != e:
            return (i, 1)
    return None


def _unit_failure(A: StructureAlgebra, p: int, mul: tuple) -> Optional[tuple]:
    """_unit_failure_loops mod p on the structure_arrays mul of A: the
    entries e_i e_j = c e_k with u_i != 0 sum u_i c at row j, column k of
    L_1, those with u_j != 0 at row i, column k of R_1 (summed_keys), and
    each is compared with the identity; the first failure is the smallest
    mismatching row of either, left first.

    Bound: each u c is reduced mod p before a cell sums at most dim of them,
    below 2^31 dim < 2^63."""
    import numpy as np

    n = A.dim
    i, j, k, c = mul
    u = residues(A.unit, p)
    diag = np.arange(n) * (n + 1)
    bad = []
    for side, (x, y) in enumerate(((i, j), (j, i))):
        keep = u[x] != 0
        lhs = summed_keys(y[keep] * n + k[keep], u[x[keep]] * c[keep] % p, n * n, p)
        rows, _ = mismatches(lhs, entry_keys(diag.copy(), np.ones(n, np.int64), n * n, p), n, p)
        bad.extend((int(r), side) for r in rows[:1])
    return min(bad, default=None)


def _associativity_failure_loops(
    A: StructureAlgebra, rows: Optional[Sequence] = None
) -> Optional[tuple]:
    """First triple (i, j, k), i among the basis indices rows (None: all),
    with (e_i e_j) e_k != e_i (e_j e_k), or None."""
    field = A.field
    dim = A.dim
    table = A.mul
    z = field.zero()
    for i in range(dim) if rows is None else rows:
        for j in range(dim):
            pij = table.get((i, j), ())
            for k in range(dim):
                lhs: dict[int, object] = {}
                for m, c in pij:
                    for n, d in table.get((m, k), ()):
                        lhs[n] = lhs.get(n, z) + c * d
                rhs: dict[int, object] = {}
                for m, c in table.get((j, k), ()):
                    for n, d in table.get((i, m), ()):
                        rhs[n] = rhs.get(n, z) + c * d
                for n in set(lhs) | set(rhs):
                    if field.normalize(lhs.get(n, z)) != field.normalize(rhs.get(n, z)):
                        return (i, j, k)
    return None


def is_augmentation(A: StructureAlgebra, eps: Sequence) -> bool:
    """Does the covector eps define a one-dimensional representation:
    eps(1) = 1 and eps multiplicative on every pair (is_multiplicative)?"""
    one = sum(u * e for u, e in zip(A.unit, eps) if u and e)
    return A.field.normalize(one) == A.field.one() and is_multiplicative(A, eps)


def is_multiplicative(A: StructureAlgebra, eps: Sequence) -> bool:
    """eps(e_i e_j) = eps_i eps_j on each pair of mul, one pass, each side
    from the nonzero entries of eps alone (hopfcore.is_grouplike passes a
    sparse eps over every row of H*); a pair absent from mul has e_i e_j =
    0, which only the pairs of nonzero entries of eps can break."""
    norm = A.field.normalize
    live = [bool(norm(e)) for e in eps]
    support = list(compress(range(A.dim), live))
    for (i, j), row in A.mul.items():
        terms = [c * eps[k] for k, c in row if live[k]]
        if (terms or live[i] and live[j]) and norm(sum(terms)) != norm(eps[i] * eps[j]):
            return False
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
        lambda: linalg.joint_scale(
            src.scale, dst.scale, linalg.scale_of(chain.from_iterable(phi.rows))
        ),
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
    """Raise InternalCheckError, naming M, unless the matrix M, invertible
    by its construction, is an algebra endomorphism of A: fixing the unit,
    multiplicative.  So no elimination runs here, and each caller proves M
    invertible: the Nakayama matrix nu = (G^-1)^T G is a product of
    invertible factors, with nu^-1 = G^-1 G^T (frobenius_system_from_norm),
    and subext.relative_nakayama proves its twist invertible."""
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
    scale,
    degree: int,
    count: int,
    kernel,
    loops,
    merge=smallest,
):
    """The first failing item of a quantified identity of a dim-dimensional
    algebra, or None, from the one engine choice of the package.

    Above _SPARSE_DIM, at the linalg.engine_primes of an identity whose
    sides sum at most count products of at most degree constants, scale()
    giving their linalg.scale_of: the smallest of the first failing items
    kernel(p) over those primes, which is kernel(p) itself over GF(p) and
    the first failing item in QQ (the primes meet the engine_primes bound).
    A group of identities checked together combines its per-prime results
    with merge instead.  At or below _SPARSE_DIM, when engine_primes gives
    no prime, or when it asks for more than ceil(dim^2 / _DIM2_PER_PRIME),
    the Python loops: loops().  The crossover and the prime cutoff are
    measured next to _SPARSE_DIM.
    """
    if dim <= _SPARSE_DIM:
        return loops()
    most = math.ceil(dim * dim / _DIM2_PER_PRIME)
    primes = linalg.engine_primes(field, scale, degree, count, most)
    if not primes:
        return loops()
    return merge([kernel(p) for p in primes])


def all_on_kernels(field: Field, dim: int) -> bool:
    """Whether first_failure runs every identity of verify_hopf on the int64
    kernels for an algebra of dim over field: over an admitted GF(p) above
    _SPARSE_DIM (over QQ the prime count decides).  There hopffile reads a
    file straight into table arrays, and the readers of verify_hopf outside
    its kernels (product_cover, the unit law) read those arrays, so a
    verify builds no tuple row."""
    return dim > _SPARSE_DIM and linalg.machine_prime(field) is not None


def structure_arrays(A: StructureAlgebra, p: Optional[int]) -> tuple:
    """The mul table as read-only arrays (i, j, k, c): e_i e_j has c != 0
    at e_k, the values mod p, or A's own scalars for the key p = None
    (table_arrays).  Built once per algebra and key, and kept on A."""
    if p not in A._arrays:
        import numpy as np

        keys = np.fromiter(chain.from_iterable(A.mul), dtype=np.int64, count=2 * len(A.mul))
        A._arrays[p] = table_arrays(A.field, p, keys.reshape(-1, 2), A.mul.values())
    return A._arrays[p]


def comul_arrays(H, p: Optional[int]) -> tuple:
    """The comul table of the Hopf algebra H as read-only arrays (m, u, v,
    d): Delta(e_m) has d != 0 at e_u (x) e_v, the values mod p, or H's own
    scalars for the key p = None (table_arrays).  Built once per Hopf
    algebra and key, and kept on H."""
    if p not in H._arrays:
        import numpy as np

        keys = np.fromiter(H.comul, dtype=np.int64, count=len(H.comul))
        H._arrays[p] = table_arrays(H.field, p, keys.reshape(-1, 1), H.comul.values())
    return H._arrays[p]


def table_arrays(field: Field, p: Optional[int], keys, rows) -> tuple:
    """The entries of a table as four read-only arrays: the int64 columns
    of keys (the indices of each row's key, one line per row of rows)
    repeated over the terms of the row, then the int64 indices of each term
    and its scalar, in table order.  For a prime p the scalars are int64
    residues mod p, the terms whose scalar vanishes mod p dropped: over
    GF(p) itself each scalar is a nonzero residue already (tables are
    canonical), so the terms are read in one flat pass; otherwise they go
    through linalg.residues.  For p = None the scalars are the table's own,
    normalized and nonzero, in an object array."""
    import numpy as np

    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(keys))
    index = np.repeat(keys, counts, axis=0)
    terms = chain.from_iterable(rows)
    width = 4 - keys.shape[1]
    if field.characteristic == p:
        body = np.fromiter(chain.from_iterable(terms), dtype=np.int64).reshape(-1, width)
        arrays = (*index.T, *body.T)
    else:
        terms = list(terms)
        at = np.fromiter(chain.from_iterable(t[:-1] for t in terms), dtype=np.int64)
        at = at.reshape(-1, width - 1)
        scalars = (t[-1] for t in terms)
        if p is None:
            vals = np.fromiter(scalars, dtype=object, count=len(terms))
        else:
            vals = residues(scalars, p)
            keep = vals.astype(bool)
            index, at, vals = index[keep], at[keep], vals[keep]
        arrays = (*index.T, *at.T, vals)
    return read_only(arrays)


def read_only(arrays) -> tuple:
    """The arrays as contiguous read-only arrays, the form every table
    array is kept in."""
    import numpy as np

    arrays = tuple(np.ascontiguousarray(a) for a in arrays)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def compact(rows, cols, vals, shape: tuple) -> tuple:
    """The CSR matrix (linalg.csr) of shape with vals at (rows, cols), the
    one axis whose size is given as None cut to the keys that occur there,
    and those keys ascending.  Cutting the rows takes one stable argsort of
    the keys, whose order also lays the entries out row by row."""
    import numpy as np

    if shape[0] is None:
        order = np.argsort(rows, kind="stable")
        keys = rows[order]
        new = np.concatenate(([True], keys[1:] != keys[:-1]))[: len(keys)]
        kept = keys[new]
        return linalg.csr(vals[order], np.cumsum(new) - 1, cols[order], (len(kept), shape[1])), kept
    kept, col = np.unique(cols, return_inverse=True)
    return linalg.csr(vals, rows, col, (shape[0], len(kept))), kept


def picked(rows: Optional[Sequence], n: int, keys, arrays: tuple) -> tuple:
    """index, the ascending basis indices rows (None: all n) as an array,
    and the entries of the table arrays whose key is among them, the keys
    replaced by their place in index and followed by the arrays."""
    import numpy as np

    index = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    at = np.full(n, -1)
    at[index] = np.arange(len(index))
    keep = at[keys] >= 0
    return index, (at[keys[keep]], *(a[keep] for a in arrays))


def by_item(Y, keys, nsub: int, first: int, shape, col, p: int):
    """The product Y mod p, whose row t stands for keys[t] = item*nsub + sub
    (keys sorted), laid out with shape as row item - first and column
    col(column of Y, sub) for each entry, as the entry_keys that
    first_mismatch and mismatches compare.  Y's rows are grouped by item
    already, so only each entry's column is new, and no matrix of width
    shape[1] is built."""
    import numpy as np

    counts = np.diff(Y.indptr)
    item, sub = np.divmod(keys, nsub)
    # every column is below shape[1], so this dtype holds each step of col
    index = np.int32 if shape[1] < 2**31 else np.int64
    cols = col(Y.indices.astype(index, copy=False), np.repeat(sub.astype(index), counts))
    cells = np.repeat((item - first) * shape[1], counts)
    cells += cols
    del cols
    return entry_keys(cells, Y.data, shape[0] * shape[1], p)


def matrix_keys(M, p: int):
    """The entries of the reduced CSR matrix M mod p as entry_keys."""
    return entry_keys(csr_rows(M) * M.shape[1] + M.indices, M.data, M.shape[0] * M.shape[1], p)


def entry_keys(cells, vals, ncells: int, p: int):
    """The entries of a matrix mod p, each value in [1, p) at its own flat
    cell row*width + col below ncells = rows*width, in the one sorted form
    that first_mismatch and mismatches compare.

    Bound: when rows*width*p < 2^63 every key (row*width + col)*p + value
    is below 2^63, so the form is those int64 keys, sorted in place (cells
    is overwritten); two matrices are equal when their keys are, and the
    key order is the order of the cells, row first.  Otherwise, the exact
    fallback: the (cell, value) pairs as a two-column array sorted by cell
    (each cell occurs once, so the values need no order of their own).
    """
    import numpy as np

    if int(ncells) * p < 2**63:
        cells *= p
        cells += vals
        cells.sort()
        return cells
    order = np.argsort(cells)
    return np.stack((cells[order], np.asarray(vals, dtype=np.int64)[order]), axis=1)


def summed_keys(cells, vals, ncells: int, p: int):
    """The entry_keys of the matrix whose every cell holds the sum mod p of
    the residues vals at that cell of cells (each below ncells), the cells
    whose sum vanishes dropped (linalg.summed over GF(p))."""
    return entry_keys(*linalg.summed(GF(p), cells, vals), ncells, p)


def mismatches(lhs, rhs, width: int, p: int) -> tuple:
    """The (rows, cols), each cell once and in cell order, where two
    matrices of width columns differ, from their entry_keys mod p."""
    import numpy as np

    if lhs.ndim == 1:
        # a cell whose values differ holds one key on each side
        if np.array_equal(lhs, rhs):
            cells = lhs[:0]
        else:
            cells = np.unique(np.setxor1d(lhs, rhs, assume_unique=True) // p)
    else:
        (cl, vl), (cr, vr) = lhs.T, rhs.T
        both, il, ir = np.intersect1d(cl, cr, assume_unique=True, return_indices=True)
        cells = np.union1d(np.setxor1d(cl, cr, assume_unique=True), both[vl[il] != vr[ir]])
    return np.divmod(cells, width)


def first_mismatch(lhs, rhs, width: int, p: int) -> Optional[tuple]:
    """The smallest (row, col), row first, where two matrices of width
    columns differ, from their entry_keys mod p, or None."""
    rows, cols = mismatches(lhs, rhs, width, p)
    return (int(rows[0]), int(cols[0])) if len(rows) else None


def blocks(sizes):
    """Consecutive ranges [a, b) of the items, each beginning at an item of
    positive size and holding at most the entries that the block budget
    linalg._BLOCK_BYTES allows, at 24 bytes an entry (an int64 value and
    two int64 indices), or that single item.  sizes[t] bounds the entries
    that item t adds to every intermediate of a block; an item of size 0
    needs no work, so it begins no range and costs nothing in one."""
    import numpy as np

    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    cap = linalg._BLOCK_BYTES // 24
    positive = np.flatnonzero(sizes)
    t = 0
    while t < len(positive):
        a = int(positive[t])
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - sizes[a] + cap, side="right")))
        yield a, b
        t = int(np.searchsorted(positive, b))


def _associativity_failure(
    A: StructureAlgebra, rows: Optional[Sequence], p: int, mul: tuple
) -> Optional[tuple]:
    """First (i, j, k), i among the ascending basis indices rows (None:
    all), with e_i (e_j e_k) != (e_i e_j) e_k, or None, mod p on the
    structure_arrays mul of A, in blocks of r, g_r = e_{rows[r]}.

    L holds the products g_r e_m: row r, entry (a, m) for their
    coefficient at e_a.  Those are the table entries with i = rows[r],
    picked out of the arrays (on the whole basis, all of them), so no
    product is formed for it.  The left side
    g_r (e_j e_k) = sum_m c(j, k; m) g_r e_m is L stacked as rows (r a),
    column m, times the table as row m, column (j k); the right side
    (g_r e_j) e_k = sum_m (g_r e_j)_m e_m e_k is L as rows (r j), column m,
    times the table as row m, column (k a).  Each stack is laid out once, over the rows that occur; a block
    multiplies its rows of both and compares the products at row r, column
    (j k a) (first_mismatch).  A block holds as many r as keep the entries
    of its operands, of both products (at most their terms) and of their
    comparison within the block budget (blocks); an r with g_r e_m = 0 for
    every m holds on both sides and takes no block.

    Bound: every product goes through linalg.mulmod, exact for any term
    count; L's entries are the table's residues, reduced and nonzero.
    """
    import numpy as np

    n = A.dim
    i, j, k, c = mul
    index, (lr, la, lm, lc) = picked(rows, n, i, (k, j, c))
    R = len(index)
    left, lkeys = compact(lr * n + la, lm, lc, (None, n))
    right, rkeys = compact(lr * n + lm, la, lc, (None, n))
    by_product = linalg.csr(c, k, i * n + j, (n, n * n))
    by_left = linalg.csr(c, i, j * n + k, (n, n * n))
    terms = np.bincount(
        lr,
        weights=np.bincount(k, minlength=n)[lm] + np.bincount(i, minlength=n)[la],
        minlength=R,
    )
    for r0, r1 in blocks(2 * (np.bincount(lr, minlength=R) + terms)):
        shape = (r1 - r0, n**3)
        a0, a1 = np.searchsorted(lkeys, (r0 * n, r1 * n))
        lhs = by_item(
            mulmod(left[a0:a1], by_product, p),
            lkeys[a0:a1],
            n,
            r0,
            shape,
            lambda jk, a: jk * n + a,
            p,
        )
        b0, b1 = np.searchsorted(rkeys, (r0 * n, r1 * n))
        rhs = by_item(
            mulmod(right[b0:b1], by_left, p),
            rkeys[b0:b1],
            n,
            r0,
            shape,
            lambda ka, j: j * n * n + ka,
            p,
        )
        bad = first_mismatch(lhs, rhs, shape[1], p)
        if bad is not None:
            return (int(index[r0 + bad[0]]), *divmod(bad[1] // n, n))
    return None


def _multiplicative_failure_modp(
    src: StructureAlgebra, dst: StructureAlgebra, phi: Matrix, p: int
) -> Optional[tuple]:
    """multiplicative_failure as the sparse identity phi(e_i e_j) =
    phi(e_i) phi(e_j) mod p, without forming phi x phi, in blocks of src
    columns i.

    The left side is the src table as rows (i j), column k, laid out once,
    times P^T (row k: phi(e_k)).  The right side contracts phi(e_i) with the
    left factor of the dst table, T[i, (n l)] = sum_k phi[k, i] c(k, l; n),
    re-lays T as rows (i n), column l, and contracts the right factor with
    phi.  Both are compared at row i, column (j n) (first_mismatch).  A
    block holds as many i as keep the entries of its operands, of the three
    products (at most their terms) and of the comparison within the block
    budget (blocks).

    Bound: all three products go through linalg.mulmod, exact for any term
    count; each intermediate is reduced mod p before the next product.
    """
    import numpy as np

    ds, dd = src.dim, dst.dim
    P = residues(chain.from_iterable(phi.rows), p).reshape(-1, ds)
    P, PT = linalg.dense_csr(P), linalg.dense_csr(P.T)
    si, sj, sk, sc = structure_arrays(src, p)
    k, l, n, c = structure_arrays(dst, p)
    products, pairs = compact(si * ds + sj, sk, sc, (None, ds))
    left = linalg.csr(c, k, n * dd + l, (dd, dd * dd))
    # terms of T, of T times P and of the left side, for each i
    pi, pk, images = csr_rows(PT), PT.indices, np.diff(PT.indptr)
    t_terms = np.bincount(pi, weights=np.bincount(k, minlength=dd)[pk], minlength=ds)
    r_terms = np.bincount(
        pi, weights=np.bincount(k, weights=np.diff(P.indptr)[l], minlength=dd)[pk], minlength=ds
    )
    l_terms = np.bincount(si, weights=images[sk], minlength=ds)
    sizes = images + np.bincount(si, minlength=ds) + 2 * (t_terms + r_terms + l_terms)
    for i0, i1 in blocks(sizes):
        shape = (i1 - i0, ds * dd)
        x0, x1 = np.searchsorted(pairs, (i0 * ds, i1 * ds))
        lhs = by_item(
            mulmod(products[x0:x1], PT, p), pairs[x0:x1], ds, i0, shape, lambda m, j: j * dd + m, p
        )
        T = mulmod(PT[i0:i1], left, p)
        tn, tl = np.divmod(T.indices.astype(np.int64), dd)
        T, keys = compact(csr_rows(T) * dd + tn, tl, T.data, (None, dd))
        del tn, tl
        rhs = by_item(mulmod(T, P, p), keys, dd, 0, shape, lambda j, m: j * dd + m, p)
        del T
        bad = first_mismatch(lhs, rhs, shape[1], p)
        if bad is not None:
            return i0 + bad[0], bad[1] // dd
    return None


# -- constructions -----------------------------------------------------------


def opposite(A: StructureAlgebra) -> StructureAlgebra:
    table = {(j, i): row for (i, j), row in A.mul.items()}
    return StructureAlgebra(A.field, A.dim, table, A.unit, A.basis_names)

