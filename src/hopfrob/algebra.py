"""Finite-dimensional associative unital algebras by structure constants.

The multiplication tensor is stored sparsely: mul maps a basis-index pair
(i, j) to the expansion of e_i * e_j as a sorted tuple of (k, coeff) with
zero coefficients omitted and missing keys meaning the zero product.  All
scalars are stored normalized for the algebra's field, so structural
equality of two algebras is plain equality of their tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import FieldMismatchError, ShapeError
from .linalg import Matrix, basis_vec
from .report import Report
from .scalars import Field

SparseRow = tuple  # tuple[(basis_index, scalar), ...] sorted by index


def _clean_row(field: Field, items: Iterable) -> SparseRow:
    acc: dict[int, object] = {}
    z = field.zero()
    for k, c in items:
        c = field.normalize(c)
        if c == z:
            continue
        s = field.normalize(acc.get(k, z) + c)
        if s == z:
            acc.pop(k, None)
        else:
            acc[k] = s
    return tuple(sorted(acc.items()))


def row_to_vec(field: Field, dim: int, row: SparseRow) -> tuple:
    v = [field.zero()] * dim
    for k, c in row:
        v[k] = c
    return tuple(v)


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

    @staticmethod
    def from_dense(
        field: Field,
        mul: Sequence,
        unit: Sequence,
        basis_names: Optional[Sequence[str]] = None,
    ) -> "StructureAlgebra":
        dim = len(mul)
        table = {}
        for i in range(dim):
            if len(mul[i]) != dim:
                raise ShapeError("mul tensor is not dim x dim x dim")
            for j in range(dim):
                if len(mul[i][j]) != dim:
                    raise ShapeError("mul tensor is not dim x dim x dim")
                table[(i, j)] = list(enumerate(mul[i][j]))
        return StructureAlgebra.from_sparse(field, dim, table, unit, basis_names)

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
        out = []
        for k in sorted(acc):
            v = field.normalize(acc[k])
            if v != z:
                out.append((k, v))

        return tuple(out)

    def left_mult_matrix(self, a: Sequence) -> Matrix:
        """Matrix of x -> a*x in the structure basis (columns are a*e_j)."""
        cols = [self.multiply(a, basis_vec(self.field, self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols)

    def right_mult_matrix(self, a: Sequence) -> Matrix:
        cols = [self.multiply(basis_vec(self.field, self.dim, j), a) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols)

    def basis_vector(self, i: int) -> tuple:
        return basis_vec(self.field, self.dim, i)

    def dense_mul(self) -> tuple:
        z = self.field.zero()
        out = []
        for i in range(self.dim):
            plane = []
            for j in range(self.dim):
                row = [z] * self.dim
                for k, c in self.mul.get((i, j), ()):
                    row[k] = c
                plane.append(tuple(row))
            out.append(tuple(plane))
        return tuple(out)

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
    field = A.field
    dim = A.dim

    bad_unit = None
    for i in range(dim):
        e = basis_vec(field, dim, i)
        if A.multiply(A.unit, e) != e:
            bad_unit = ("left", i)
            break
        if A.multiply(e, A.unit) != e:
            bad_unit = ("right", i)
            break
    rep.add(
        "unit law",
        bad_unit is None,
        "" if bad_unit is None else f"{bad_unit[0]} unit fails at basis {bad_unit[1]}",
    )

    bad_triple = None
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
                        bad_triple = (i, j, k)
                        break
                if bad_triple:
                    break
            if bad_triple:
                break
        if bad_triple:
            break
    rep.add(
        "associativity",
        bad_triple is None,
        "" if bad_triple is None else f"fails at triple {bad_triple}",
    )
    return rep


def is_augmentation(A: StructureAlgebra, eps: Sequence) -> bool:
    """Does the covector eps define a one-dimensional representation?"""
    field = A.field

    def ev(v):
        return field.normalize(sum(c * e for c, e in zip(v, eps)))

    if ev(A.unit) != field.one():
        return False
    for i in range(A.dim):
        for j in range(A.dim):
            prod = field.normalize(
                sum(c * eps[k] for k, c in A.mul.get((i, j), ()))
            )
            if prod != field.normalize(eps[i] * eps[j]):
                return False
    return True


def multiplicative_failure(
    src: StructureAlgebra, dst: StructureAlgebra, phi: Matrix
) -> Optional[tuple]:
    """First basis pair (i, j) with phi(e_i e_j) != phi(e_i) phi(e_j), or None
    when the linear map phi: src -> dst (columns are the images of the src
    basis vectors) is multiplicative."""
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
