"""Hopf algebra structure over a StructureAlgebra.

Comultiplication is stored sparsely: comul maps a basis index i to a tuple
of (j, k, c) triples meaning Delta(e_i) = sum c * e_j (x) e_k.  Elements of
H (x) H appear as dicts {(j, k): c}.  Covectors (elements of H*) are plain
coordinate tuples against the dual basis e^i, e^i(e_j) = delta_ij.

verify_hopf checks every axiom exactly, with the same items on every input.
Associativity and Delta multiplicative run on the generators that
algebra.product_cover reads off the mul table (proof in its docstring), and
on the whole basis only when they fail there, or for Delta when
associativity fails, so a report names the first failing basis triple or
pair.  Above algebra._SPARSE_DIM they run as sparse int64 identities mod
each prime of linalg.engine_primes, their rows picked out of the tables;
below it, as Python loops over the same rows (algebra.first_failure).
Delta multiplicative (_delta_failure) is laid out so that its right side is
one product per block of j: with Delta(g_r) = sum_v w_{r,v} (x) e_v, the
coefficient of e_a (x) e_b in Delta(g_r) Delta(e_j) is sum_{s,v} W[(v s),
(r a)] F[(j b), (v s)], W built once from the rows g_r, F per block of j
from the tables; a block holds as many j as keep the entries of its
intermediates within the block budget linalg._BLOCK_BYTES (algebra.blocks).
Every product goes through linalg.mulmod, which keeps it exact for any
number of terms, so a contraction that sums more than dim terms per entry
(F W, and Delta times the antipode and counit factors below) runs on the
kernels like any other.  Over QQ, Delta(e_i e_j) sums dim products of two
constants and Delta(e_i) Delta(e_j) at most dim^4 products of four (two
comul, two mul), so the primes cover 2 (dim^4 + dim) max(A, D)^4 for the
constants a/D, |a| <= A, of both tables; the scale of each table is taken
once per verify_hopf.

The five identities linear in the tables (coassociativity, counit law,
counit multiplicative, antipode law, Delta(1) = 1 (x) 1) are one more
call of algebra.first_failure: above the one crossover
algebra._SPARSE_DIM, over every field, as one sparse identity each
(_linear_failures) mod each prime, and otherwise as Python loops over the
basis (_linear_failures_loops).  Their sides sum at most dim^3 products
of three constants (the antipode law's sum_{u,v,x} Delta_i(u,v) S(x,u)
c(x,v;a)) among both tables, the counit, the unit and the antipode.  So
verify_hopf makes two engine calls of its own, this one and Delta
multiplicative, beside the two of algebra.verify_algebra (the unit law
and associativity); above the crossover over an admitted GF(p)
(algebra.all_on_kernels) it reads no tuple row of either table.

Every numpy reader of H's tables (the kernels above, the integral operators,
algebra's multiplicativity check, the double's mul table, the dual) takes
the table arrays that H keeps for its comul and its algebra for its mul,
built once per object and key (algebra.comul_arrays,
algebra.structure_arrays), or handed over with a TableView table, as
hopffile's array reader, the double and the dual (dual_hopf, built once per
Hopf algebra as H.dual) hand them.  A Hopf algebra that shares its algebra
with another, as a comul mutant does, shares those mul arrays too.  The
kernels read them mod each prime; an integral operator reads them under the
key linalg.machine_prime gives, int64 residues over an admitted GF(p) and an
object array of the field's scalars otherwise, so its one construction
serves both engines, which differ there only in that dtype.  Its kernel
peels the coordinates that single-entry rows force to zero (3 to 6 of 81 to
1296 columns remain on the Taft doubles) and refines the rest
(linalg.iterated_kernel_sparse); unimodularity and a supplied psi are
checked by one product (linalg.annihilates).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence

from .algebra import (
    StructureAlgebra,
    TableView,
    _clean_row,
    blocks,
    by_item,
    comul_arrays,
    compact,
    entry_keys,
    first_failure,
    first_mismatch,
    is_augmentation,
    is_multiplicative,
    matrix_keys,
    mismatches,
    multiplicative_failure,
    nonzero_row,
    on_cover,
    picked,
    read_only,
    smallest,
    structure_arrays,
    summed_keys,
    vec_to_row,
    verify_algebra,
)
from . import linalg
from .errors import InvalidInputError, ShapeError, SingularError
from .linalg import Matrix, csr_rows, iterated_kernel_sparse, mulmod, nonzero_entries, residues
from .report import Report
from .scalars import Field


@dataclass(eq=False)
class HopfAlgebra:
    alg: StructureAlgebra
    comul: Mapping  # i -> tuple[(j, k, c), ...]
    counit: tuple
    antipode: Matrix
    name: str = ""
    # S^-1, kept by antipode_inv, or set by the double that builds it
    _sbar: Optional[Matrix] = dc_field(default=None, init=False, repr=False)
    # algebra.comul_arrays per key (a prime, or None), each built on first
    # use or handed over by a TableView comul
    _arrays: dict = dc_field(default_factory=dict, init=False, repr=False)
    # a call giving H* once built; on an H* that dual_hopf built, a weak
    # reference to its H, as a strong one would make a cycle only gc frees
    _dual: Optional[Callable] = dc_field(default=None, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.comul, TableView):
            self._arrays[self.comul.p] = self.comul.arrays

    @property
    def field(self) -> Field:
        return self.alg.field

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def unit(self) -> tuple:
        return self.alg.unit

    @property
    def basis_names(self) -> tuple:
        return self.alg.basis_names

    @staticmethod
    def from_sparse(
        alg: StructureAlgebra,
        comul: dict,
        counit: Sequence,
        antipode: Matrix,
        name: str = "",
    ) -> "HopfAlgebra":
        field = alg.field
        table = {}
        for i, triples in comul.items():
            if not 0 <= i < alg.dim:
                raise ShapeError(f"comul index {i} out of range")
            terms = [((j, k), c) for j, k, c in triples]
            if any(not (0 <= j < alg.dim and 0 <= k < alg.dim) for (j, k), _ in terms):
                raise ShapeError(f"comul tensor index out of range at basis {i}")
            if row := tuple((j, k, c) for (j, k), c in _clean_row(field, terms)):
                table[i] = row
        eps = tuple(field.normalize(c) for c in counit)
        if len(eps) != alg.dim:
            raise ShapeError("counit length mismatch")
        if antipode.nrows != alg.dim or antipode.ncols != alg.dim:
            raise ShapeError("antipode matrix shape mismatch")
        if antipode.field != field:
            raise ShapeError("antipode matrix over wrong field")
        return HopfAlgebra(alg, table, eps, antipode, name)

    @property
    def dual(self) -> "HopfAlgebra":
        """H*, built once by dual_hopf; the dual of that H* is H, while H lives."""
        if self._dual is None or self._dual() is None:
            K = dual_hopf(self)
            self._dual = lambda: K
        return self._dual()

    @cached_property
    def comul_scale(self) -> tuple:
        """linalg.scale_of the constants of the comul table."""
        return linalg.scale_of(c for t in self.comul.values() for *_, c in t)

    # -- basic maps ---------------------------------------------------------

    def delta_vec(self, v: Sequence) -> dict:
        """Delta(v) as a sparse tensor {(j, k): c}."""
        field = self.field
        z = field.zero()
        acc: dict = {}
        for i, vi in enumerate(v):
            if not vi:
                continue
            for j, k, c in self.comul.get(i, ()):
                key = (j, k)
                acc[key] = acc.get(key, z) + vi * c
        return dict(nonzero_row(field, acc))

    def delta2_row(self, i: int) -> tuple:
        """(Delta (x) id)Delta(e_i) as a tuple of (r, s, t, c)."""
        field = self.field
        z = field.zero()
        acc: dict = {}
        for j, k, c in self.comul.get(i, ()):
            for r, s, d in self.comul.get(j, ()):
                key = (r, s, k)
                acc[key] = acc.get(key, z) + c * d
        return tuple((*key, c) for key, c in nonzero_row(field, acc))

    def counit_of(self, v: Sequence):
        return eval_cov(self.field, self.counit, v)

    def antipode_inv(self) -> Matrix:
        """S^-1, kept: (S^T)^-1 = (S^-1)^T from a built dual, else eliminated."""
        dual = self._dual and self._dual()
        if self._sbar is None and dual is not None and dual._sbar is not None:
            self._sbar = dual._sbar.transpose()
        if self._sbar is None:
            try:
                self._sbar = self.antipode.inverse()
            except SingularError as exc:
                raise InvalidInputError("antipode matrix is singular") from exc
        return self._sbar

    def __eq__(self, other):
        return (
            isinstance(other, HopfAlgebra)
            and self.alg == other.alg
            and self.comul == other.comul
            and self.counit == other.counit
            and self.antipode == other.antipode
        )

    def __repr__(self):
        label = self.name or "?"
        return f"HopfAlgebra({label}, dim={self.dim}, field={self.field!r})"


def _outer_sum(field: Field, pairs) -> dict:
    """sum_i x_i (x) y_i as a sparse tensor {(j, k): c}."""
    t: dict = {}
    zero = field.zero()
    for x, y in pairs:
        nonzero = [(j, cj) for j, cj in enumerate(y) if cj]
        for i, ci in enumerate(x):
            if not ci:
                continue
            for j, cj in nonzero:
                t[(i, j)] = t.get((i, j), zero) + ci * cj
    return dict(nonzero_row(field, t))


def eval_cov(field: Field, f: Sequence, v: Sequence):
    return field.normalize(sum(a * b for a, b in zip(f, v, strict=True) if a and b))


def tensor_mult(H: HopfAlgebra, t1: dict, t2: dict) -> dict:
    """Product in H (x) H of two sparse tensors."""
    field = H.field
    z = field.zero()
    mul = H.alg.mul
    acc: dict = {}
    for (a, b), c1 in t1.items():
        for (u, v), c2 in t2.items():
            f = c1 * c2
            for m, cm in mul.get((a, u), ()):
                for n, cn in mul.get((b, v), ()):
                    key = (m, n)
                    acc[key] = acc.get(key, z) + f * cm * cn
    return dict(nonzero_row(field, acc))


def convolution(H: HopfAlgebra, f: Sequence, g: Sequence) -> tuple:
    """The product of H*: (f*g)(a) = sum f(a_(1)) g(a_(2))."""
    return H.dual.alg.multiply(f, g)


def hit_matrix(H: HopfAlgebra, f: Sequence, side: str) -> Matrix:
    """Matrix of the hit action of the covector f: a -> f ⇀ a =
    sum a_(1) f(a_(2)) (side "left") or a -> a ↼ f = sum f(a_(1)) a_(2)
    ("right"), the transposed multiplication by f in H* on the other side.
    Column i is the action on e_i; for side "right", row i is f * e^i."""
    return H.dual.alg._mult_matrix(f, "right" if side == "left" else "left", transposed=True)


def is_grouplike(H: HopfAlgebra, v: Sequence) -> bool:
    """eps(v) = 1 and Delta(v) = v (x) v: v is a character of H*."""
    return is_augmentation(H.dual.alg, v)


# -- integrals ----------------------------------------------------------------


def integral_operator(H: HopfAlgebra, side: str, dual: bool = False) -> tuple:
    """The integral constraints of H (of H* if dual) as the nonzero entries
    (rows, cols, vals), in row order, of one sparse operator S with dim^2
    rows: row a*dim + k, column j holds the coefficient of e_k in e_a e_j
    (side "left") or e_j e_a ("right"), less eps(e_a) on the diagonal of
    block a.  So S t = 0 says exactly that t is a left (right) integral:
    a t = eps(a) t (t a = eps(a) t) for all a.  H* multiplies by the
    transpose of Delta and has the unit of H as its counit.

    The entries are placed by index arithmetic on the table arrays of the
    engine linalg.machine_prime chooses (algebra.structure_arrays,
    algebra.comul_arrays), plus the -eps diagonal in the dtype of their
    values; linalg.summed adds the two where they meet, reduces and drops
    the zeros.  Its kernel (linalg.iterated_kernel_sparse) peels and
    refines on every row, with no product cover, so it is exact whether or
    not H is associative.
    """
    import numpy as np

    dim, p = H.dim, linalg.machine_prime(H.field)
    # the comul arrays (m, u, v, d) as the dual's mul: f_u f_v has d at f_m
    if dual:
        k, i, j, c = comul_arrays(H, p)
    else:
        i, j, k, c = structure_arrays(H.alg, p)
    a, b = (i, j) if side == "left" else (j, i)
    # -eps(e_a) at (a*dim + d, d)
    eps = np.array(H.unit if dual else H.counit, dtype=c.dtype)
    at, d = np.flatnonzero(eps), np.arange(dim)
    rows = np.concatenate((a * dim + k, (at[:, None] * dim + d).ravel()))
    cols = np.concatenate((b, np.tile(d, len(at))))
    vals = np.concatenate((c, np.repeat(-eps[at], dim)))
    cells, vals = linalg.summed(H.field, rows * dim + cols, vals)
    return *np.divmod(cells, dim), vals


def integral_space(H: HopfAlgebra, side: str, dual: bool = False) -> tuple:
    """Canonical basis of the left integrals (side "left") or the right
    integrals ("right") in H, or in H* if dual: the kernel of
    integral_operator."""
    return iterated_kernel_sparse(H.field, H.dim, integral_operator(H, side, dual))


def left_integral_space(H: HopfAlgebra) -> tuple:
    """Canonical basis of the left integrals in H: a t = eps(a) t for all a."""
    return integral_space(H, "left")


def right_integral_space(H: HopfAlgebra) -> tuple:
    """Canonical basis of the right integrals in H: t a = eps(a) t for all a."""
    return integral_space(H, "right")


def dual_left_integral_space(H: HopfAlgebra) -> tuple:
    """Canonical basis of the left integrals in H*: f*lam = f(1) lam."""
    return integral_space(H, "left", dual=True)


def pairing_matrix(alg: StructureAlgebra, psi: Sequence) -> Matrix:
    """Gram matrix [psi(e_i e_k)]_(i,k) of the bilinear form induced by psi."""
    entries = (((i, k), sum(c * psi[m] for m, c in prod)) for (i, k), prod in alg.mul.items())
    return Matrix.from_entries(alg.field, alg.dim, alg.dim, entries)


@dataclass(frozen=True)
class HopfModuleDecomposition:
    coinvariants: tuple  # basis covectors of the coinvariant space of H*
    iso_forward: Matrix  # H* -> H (beta)
    iso_backward: Matrix  # H -> H* (alpha), alpha(h)(x) = psi(x S(h))


def hopf_module_decompose(H: HopfAlgebra) -> HopfModuleDecomposition:
    coinv = dual_left_integral_space(H)
    if len(coinv) != 1:
        raise InvalidInputError(
            f"integral space not rank one (dimension {len(coinv)})"
        )
    psi = coinv[0]
    alpha = pairing_matrix(H.alg, psi).mul(H.antipode)
    try:
        beta = alpha.inverse()
    except SingularError as exc:
        raise InvalidInputError("integral pairing is degenerate") from exc
    if not (alpha.mul(beta).is_identity() and beta.mul(alpha).is_identity()):
        raise InvalidInputError("integral pairing inverse check failed")
    return HopfModuleDecomposition(coinv, beta, alpha)


# -- dual Hopf algebra ---------------------------------------------------------


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """Hopf structure on H*, read as H.dual: product dual to Delta, coproduct
    dual to mul, unit eps, counit 1, antipode the transpose of S.  Its
    tables relabel H's table arrays under linalg.machine_prime's key: mul
    (u, v, m, d) from comul (m, u, v, d), comul (k, i, j, c) from mul (i, j,
    k, c).  H's are in table order (file order for a parsed file), so one
    lexsort on the index columns puts each in canonical key-and-term order."""
    import numpy as np

    p, n = linalg.machine_prime(H.field), H.dim

    def relabelled(arrays: tuple, width: int) -> TableView:
        order = np.lexsort(arrays[-2::-1])
        return TableView(read_only(a[order] for a in arrays), p, width, n)

    m, u, v, d = comul_arrays(H, p)
    i, j, k, c = structure_arrays(H.alg, p)
    names = tuple(f"{name}*" for name in H.basis_names)
    alg = StructureAlgebra(H.field, n, relabelled((u, v, m, d), 2), H.counit, names)
    K = HopfAlgebra(
        alg,
        relabelled((k, i, j, c), 1),
        H.unit,
        H.antipode.transpose(),
        f"{H.name}*" if H.name else "",
    )
    K._dual = weakref.ref(H)
    return K


def comultiplicative_failure(
    src: HopfAlgebra, dst: HopfAlgebra, phi: Matrix
) -> Optional[int]:
    """First basis index i with Delta(phi(e_i)) != (phi x phi)(Delta(e_i)), or
    None when the linear map phi: src -> dst is comultiplicative."""
    cols = [phi.col(j) for j in range(src.dim)]
    for i in range(src.dim):
        pushed = _outer_sum(
            src.field,
            ((tuple(c * x for x in cols[j]), cols[k]) for j, k, c in src.comul.get(i, ())),
        )
        if pushed != dst.delta_vec(cols[i]):
            return i
    return None


def hopf_map_report(src: HopfAlgebra, dst: HopfAlgebra, phi: Matrix, title: str) -> Report:
    """Exact check that the linear map phi: src -> dst (columns are images of
    src basis vectors) respects unit, products, counit, coproducts and the
    antipodes, one item each."""
    rep = Report(title)
    rep.add("unit is preserved", phi.apply(src.unit) == dst.unit)

    bad = multiplicative_failure(src.alg, dst.alg, phi)
    detail = ""
    if bad is not None:
        detail = f"fails at basis pair ({src.basis_names[bad[0]]}, {src.basis_names[bad[1]]})"
    rep.add("multiplication is preserved", bad is None, detail)

    rep.add("counit is compatible", phi.transpose().apply(dst.counit) == src.counit)

    bad = comultiplicative_failure(src, dst, phi)
    rep.add(
        "comultiplication is compatible",
        bad is None,
        "" if bad is None else f"fails at {src.basis_names[bad]}",
    )

    rep.add("antipode is compatible", dst.antipode.mul(phi) == phi.mul(src.antipode))
    return rep


# -- axiom verification --------------------------------------------------------


def verify_hopf(H: HopfAlgebra, title: Optional[str] = None) -> Report:
    """Exact check of every Hopf axiom, one item each.

    Associativity and Delta multiplicative run on the generators of the
    product cover of H's mul table, and on the whole basis when they fail
    there (algebra.on_cover); Delta runs on the basis at once when
    associativity fails, as the cover decides it only for an associative H.
    Those two and the five identities linear in the tables, Delta(1) = 1
    (x) 1 among them, run on the engine that algebra.first_failure
    chooses: one call for the five, one for Delta multiplicative, and the
    two of verify_algebra.  They read the table arrays that H and
    its algebra keep per prime (algebra.structure_arrays, comul_arrays), and
    the scale of each table, which H and its algebra keep too.
    """
    rep = Report(title or f"hopf axioms: {H.name or 'unnamed'}")
    field = H.field
    dim = H.dim
    # multiplication axioms
    algebra_items = verify_algebra(H.alg).items
    rep.items.extend(algebra_items)
    associative = next(it.ok for it in algebra_items if it.name == "associativity")

    def at_basis(name, bad):
        rep.add(name, bad is None, "" if bad is None else f"fails at basis {bad}")

    coassoc, counit, eps_ok, antipode, delta_one = first_failure(
        field,
        dim,
        lambda: linalg.joint_scale(
            H.alg.scale,
            H.comul_scale,
            linalg.scale_of(chain(H.counit, H.unit, nonzero_entries(H.antipode)[2])),
        ),
        3,
        dim**3,
        lambda q: _linear_failures(H, q, structure_arrays(H.alg, q), comul_arrays(H, q)),
        partial(_linear_failures_loops, H),
        merge=_merge_linear,
    )
    at_basis("coassociativity", coassoc)
    at_basis("counit law", counit)
    # eps(1) = 1, read once, is part of both counit items
    eps_one = H.counit_of(H.unit) == field.one()
    rep.add("coproduct and counit of identity", eps_one and delta_one)

    # Delta is an algebra map: Delta(e_i e_j) = Delta(e_i) Delta(e_j)
    bad = on_cover(
        H.alg.cover if associative else None,
        lambda rows: first_failure(
            field,
            dim,
            lambda: linalg.joint_scale(H.alg.scale, H.comul_scale),
            4,
            dim**4 + dim,
            lambda q: _delta_failure(H, rows, q, structure_arrays(H.alg, q), comul_arrays(H, q)),
            partial(_delta_failure_loops, H, rows),
        ),
    )
    rep.add(
        "comultiplication is multiplicative",
        bad is None,
        "" if bad is None else f"fails at pair {bad}",
    )

    rep.add("counit is multiplicative", eps_one and eps_ok)
    at_basis("antipode law", antipode)

    # antipode bijective
    try:
        H.antipode_inv()
        rep.add("antipode invertible", True)
    except InvalidInputError:
        rep.add("antipode invertible", False, "antipode matrix is singular")

    return rep


def _merge_linear(results) -> tuple:
    """The five results of _linear_failures at several primes as one: each
    failing basis index the smallest over the primes, and the counit
    multiplicative and Delta(1) = 1 (x) 1 where they hold mod every prime."""
    coassoc, counit, eps_ok, antipode, delta_one = zip(*results)
    return smallest(coassoc), smallest(counit), all(eps_ok), smallest(antipode), all(delta_one)


def _linear_failures_loops(H: HopfAlgebra) -> tuple:
    """The axioms linear in Delta as Python loops over the basis: the first
    basis index where coassociativity fails, the first where the counit law
    fails, whether eps(e_i e_j) = eps(e_i) eps(e_j) on every pair (eps(1) is
    verify_hopf's), the first basis index where the antipode law fails (None
    where an axiom holds), and whether Delta(1) = 1 (x) 1."""
    field = H.field
    dim = H.dim
    z = field.zero()

    # coassociativity: (Delta x id)Delta = (id x Delta)Delta on each basis vector
    coassoc = None
    for i in range(dim):
        acc: dict = {}
        for j, k, c in H.comul.get(i, ()):
            for s, t, d in H.comul.get(k, ()):
                key = (j, s, t)
                acc[key] = acc.get(key, z) + c * d
        if H.delta2_row(i) != tuple((*key, c) for key, c in nonzero_row(field, acc)):
            coassoc = i
            break

    # counit law on each basis vector: (id x eps)Delta(e_i) = e_i = (eps x id)Delta(e_i)
    def counit_side(i: int, leg: int) -> tuple:  # eps on the tensor leg leg
        terms = H.comul.get(i, ())
        return _clean_row(field, ((t[1 - leg], t[2] * H.counit[t[leg]]) for t in terms))

    one = field.one()
    counit = next(
        (i for i in range(dim) if not counit_side(i, 1) == ((i, one),) == counit_side(i, 0)),
        None,
    )

    # antipode law: sum S(a_(1)) a_(2) = eps(a) 1 = sum a_(1) S(a_(2))
    scols = [vec_to_row(field, H.antipode.col(j)) for j in range(dim)]
    antipode = None
    for i in range(dim):
        left: dict = {}
        right: dict = {}
        for j, k, c in H.comul.get(i, ()):
            for m, d in H.alg.multiply_rows(scols[j], ((k, one),)):
                left[m] = left.get(m, z) + c * d
            for m, d in H.alg.multiply_rows(((j, one),), scols[k]):
                right[m] = right.get(m, z) + c * d
        target = vec_to_row(
            field, tuple(field.normalize(H.counit[i] * u) for u in H.unit)
        )
        if nonzero_row(field, left) != target or nonzero_row(field, right) != target:
            antipode = i
            break

    delta_one = H.delta_vec(H.unit) == _outer_sum(field, [(H.unit, H.unit)])
    return coassoc, counit, is_multiplicative(H.alg, H.counit), antipode, delta_one


def _linear_failures(H: HopfAlgebra, p: int, mul: tuple, comul: tuple) -> tuple:
    """_linear_failures_loops as sparse identities mod p, on the
    structure_arrays mul and the comul_arrays comul of H.

    Delta is laid out as row i, column (u v), over the pairs (u v) that
    occur.  Coassociativity is two products with Delta in blocks of i
    (_coassociativity_failure).  The counit law and the antipode law are
    one product, Delta times [X1 | X2 | P1 | P2] against [I | I | T | T]:
    X1[(u v), u] = eps(e_v) and X2[(u v), v] = eps(e_u) give the two hit
    actions of eps, P1[(u v), a] the coefficient of e_a in S(e_u) e_v and
    P2[(u v), a] that in e_u S(e_v), and T = eps (x) 1.  P1 and P2 come
    from one product too, S^T times the mul table re-laid for each side
    and set side by side; only the pairs (u v) where Delta has a column
    meet Delta.  The counit law fails first at the smallest mismatching
    row of the first 2 dim columns, the antipode law at the smallest of the
    last 2 dim, the first failing basis index of each loop.  "Counit
    multiplicative" sums c eps(e_k) over the mul entries e_i e_j = c e_k
    per (i, j), against eps (x) eps; eps(1) = 1, which both counit items
    of verify_hopf need, verify_hopf reads once itself.  Delta(1) = 1 (x) 1
    sums u_m d over the comul terms d e_u (x) e_v of Delta(e_m) with
    u_m != 0 at (u, v), u the unit, against 1 (x) 1.  eps (x) 1, eps (x)
    eps and 1 (x) 1 come from the nonzero entries of eps and 1 alone.

    Bound: every sum of products goes through linalg.mulmod, exact for any
    term count (those with Delta on the left sum as many as the largest
    Delta(e_i) has terms, whichever columns they fill), but the sums of
    c eps(e_k) and of u_m d, whose terms are reduced mod p first, so a cell
    of at most dim of them stays below 2^31 dim < 2^63.  Over QQ the primes
    that first_failure gives for sides of at most dim^3 products of three
    constants among the mul, comul, counit, unit and antipode entries also
    decide Delta(1), whose sides sum at most dim products of two (a unit
    coordinate and a comul constant): so with the other four it is decided
    exactly, and past the prime cutoff it runs on the loops with them.
    """
    import numpy as np

    n = H.dim
    i, j, k, c = mul
    m, u, v, d = comul
    delta, uv = compact(m, u * n + v, d, (n, None))
    eps, one = residues(H.counit, p), residues(H.unit, p)

    coassoc = _coassociativity_failure(comul, delta, uv, p)

    # counit multiplicative
    lhs = summed_keys(i * n + j, c * eps[k] % p, n * n, p)
    eps_ok = first_mismatch(lhs, entry_keys(*_outer(eps, eps, p, n), n * n, p), n * n, p) is None

    # Delta(1) = 1 (x) 1
    keep = one[m] != 0
    lhs = summed_keys(u[keep] * n + v[keep], one[m[keep]] * d[keep] % p, n * n, p)
    delta_one = first_mismatch(lhs, entry_keys(*_outer(one, one, p, n), n * n, p), n, p) is None

    # S^T: row w, column x holds the coefficient of e_x in S(e_w).  Row x,
    # column (v a): e_x e_v at e_a, so that row w of S^T times it is
    # S(e_w) e_v, at (u v) = (w v); beside it, column (n + u) n + a:
    # e_u e_x, so e_u S(e_w), at (u w)
    x, w, a = nonzero_entries(H.antipode)
    ST = linalg.csr(residues(a, p), w, x, (n, n))
    M, kept = compact(np.r_[i, j], np.r_[j * n + k, (n + i) * n + k], np.r_[c, c], (n, None))
    Y = mulmod(ST, M, p)
    q, a = np.divmod(kept[Y.indices], n)
    w = csr_rows(Y)
    right = q >= n
    pairs = np.where(right, (q - n) * n + w, w * n + q)
    del M, kept, q, w
    at = np.searchsorted(uv, pairs)
    hit = at < len(uv)
    hit[hit] = uv[at[hit]] == pairs[hit]
    del pairs
    # the counit factors at each pair (u v), then both antipode factors
    fu, fv = np.divmod(uv, n)
    t = np.arange(len(uv))
    Z = linalg.csr(
        np.r_[eps[fv], eps[fu], Y.data[hit]],
        np.r_[t, t, at[hit]],
        np.r_[fu, n + fv, (2 + right[hit]) * n + a[hit]],
        (len(uv), 4 * n),
    )
    del Y, a, right, at, hit
    # [I | I | T | T]
    xy, val = _outer(eps, one, p, 4 * n)
    diag = np.arange(n) * (4 * n + 1)
    rhs = np.r_[diag, diag + n, xy + 2 * n, xy + 3 * n], np.r_[np.ones(2 * n, np.int64), val, val]
    lhs = matrix_keys(mulmod(delta, Z, p), p)
    rows, cols = mismatches(lhs, entry_keys(*rhs, 4 * n * n, p), 4 * n, p)
    counit, antipode = (smallest(rows[s][:1].tolist()) for s in (cols < 2 * n, cols >= 2 * n))
    return coassoc, counit, eps_ok, antipode, delta_one


def _coassociativity_failure(comul: tuple, delta, uv, p: int) -> Optional[int]:
    """First i with (Delta x id)Delta(e_i) != (id x Delta)Delta(e_i), from
    the comul arrays and the Delta of _linear_failures, in blocks of i.

    The terms of Delta(e_i) as rows (i v), column u, times Delta give
    (Delta x id)Delta(e_i) at (r s v); as rows (i u), column v, they give
    (id x Delta)Delta(e_i) at (u s t).  Each stack is laid out once, over
    the rows that occur, and a block compares its two products at row i,
    column (x y z) (algebra.first_mismatch).  A block holds as many i as
    keep the entries of its operands, of both products (at most their
    terms) and of their comparison within the block budget (algebra.blocks);
    an i with Delta(e_i) = 0 takes no block.
    """
    import numpy as np

    m, u, v, d = comul
    n = delta.shape[0]
    left, lkeys = compact(m * n + v, u, d, (None, n))
    right, rkeys = compact(m * n + u, v, d, (None, n))
    terms = np.diff(delta.indptr)
    sizes = 2 * np.bincount(m, weights=1 + terms[u] + terms[v], minlength=n)
    for i0, i1 in blocks(sizes):
        shape = (i1 - i0, n**3)
        a0, a1 = np.searchsorted(lkeys, (i0 * n, i1 * n))
        lhs = by_item(
            mulmod(left[a0:a1], delta, p),
            lkeys[a0:a1],
            n,
            i0,
            shape,
            lambda rs, v: uv[rs] * n + v,
            p,
        )
        b0, b1 = np.searchsorted(rkeys, (i0 * n, i1 * n))
        rhs = by_item(
            mulmod(right[b0:b1], delta, p),
            rkeys[b0:b1],
            n,
            i0,
            shape,
            lambda st, u: u * n * n + uv[st],
            p,
        )
        bad = first_mismatch(lhs, rhs, shape[1], p)
        if bad is not None:
            return i0 + bad[0]
    return None


def _outer(x, y, p: int, width: int) -> tuple:
    """The entries of x (x) y mod p as flat cells row*width + col and their
    values, from the nonzero entries of the residue vectors x and y alone."""
    import numpy as np

    a, b = np.nonzero(x)[0], np.nonzero(y)[0]
    return np.add.outer(a * width, b).ravel(), np.outer(x[a], y[b]).ravel() % p


def _delta_failure_loops(H: HopfAlgebra, rows: Optional[Sequence] = None) -> Optional[tuple]:
    """First pair (i, j), i among the basis indices rows (None: all), with
    Delta(e_i e_j) != Delta(e_i) Delta(e_j), or None."""
    field = H.field
    z = field.zero()
    delta_rows = [dict(((j, k), c) for j, k, c in H.comul.get(i, ())) for i in range(H.dim)]
    for i in range(H.dim) if rows is None else rows:
        for j in range(H.dim):
            acc: dict = {}
            for m, c in H.alg.mul.get((i, j), ()):
                for key, d in delta_rows[m].items():
                    acc[key] = acc.get(key, z) + c * d
            if dict(nonzero_row(field, acc)) != tensor_mult(H, delta_rows[i], delta_rows[j]):
                return (i, j)
    return None


def _delta_failure(
    H: HopfAlgebra, rows: Optional[Sequence], p: int, mul: tuple, comul: tuple
) -> Optional[tuple]:
    """First (i, j), i among the ascending basis indices rows (None: all),
    with Delta(e_i e_j) != Delta(e_i) Delta(e_j), or None, mod p on the
    structure_arrays mul and the comul_arrays comul of H, in blocks of j,
    with g_r = e_{rows[r]} below.

    Write Delta(g_r) = sum_v w_{r,v} (x) e_v, v over the second legs that
    occur.  The coefficient of e_a (x) e_b in Delta(g_r) Delta(e_j) is then
    sum_{s,v} W[(v s), (r a)] F[(j b), (v s)], where W[(v s), (r a)] is the
    coefficient of e_a in w_{r,v} e_s (_coproduct_operand, built once) and
    F[(j b), (v s)] = sum_t Delta(e_j)_{s,t} (e_v e_t)_b.  F is built per
    block of j: Delta(e_j) as rows (j s), column t, times the mul table as
    row t, column (v b), re-laid.  The right side of a block is F W; the
    left side is the products g_r e_j as rows (j r), column a, times Delta.
    Both stacks are laid out once, over the rows that occur, and a block
    compares its two sides at row j, column (r a b) (mismatches).  A block
    holds as many j as keep the entries of its operands, of the three
    products (at most their terms; F W's counted per entry of F through the
    length of W's row it meets) and of the comparison within the block
    budget (algebra.blocks),
    and the failure reported is the smallest r*dim + j over all blocks.
    The pair columns (a b) of Delta and (a s) of the left multiplications
    are cut to the pairs that occur (algebra.compact), v to the second
    legs that occur and r in W to the rows with Delta(g_r) != 0, so empty
    tables build no dim^2-wide array.  W is kept whole: blocking r as well
    would rebuild F once per block of r.

    Bound: every product goes through linalg.mulmod, exact for any term
    count.  All but F W sum at most dim products per entry; F W sums at
    most the largest column count of W.
    """
    import numpy as np

    n = H.dim
    i, j, k, c = mul
    m, u, v, d = comul
    # row m: Delta(e_m), column (a b) at ab; row u: L_{e_u}, entry (a, s) at as_
    delta, ab = compact(m, u * n + v, d, (n, None))
    Mu, as_ = compact(i, k * n + j, c, (n, None))
    # the terms of Delta(g_r) and the products g_r e_s, picked out of the tables
    index, dg = picked(rows, n, m, (u, v, d))
    W, V, rs = _coproduct_operand(dg, Mu, as_, n, p)
    nv = len(V)
    R = len(index)

    # the products g_r e_s as rows (s r), column a
    _, (lr, la, ls, lc) = picked(rows, n, i, (k, j, c))
    products, pkeys = compact(ls * R + lr, la, lc, (None, n))
    # Delta(e_j) as rows (j s), column t
    terms, tkeys = compact(m * n + u, v, d, (None, n))
    # row t, column (x b): coefficient of e_b in e_{V[x]} e_t
    _, (x, bt, bb, bc) = picked(V, n, i, (j, k, c))
    B = linalg.csr(bc, bt, x * n + bb, (n, nv * n))

    # for each j, the entries of both operands, the terms of the left side
    # and of F (its product and its re-lay), and F W's terms: a term (s, t)
    # of Delta(e_j) meets row t of B, whose entries in column block x each
    # give F at most one entry in column (x s), which meets W's row (x s),
    # so at most reach = sum_x (entries of B's row t in block x) (length of
    # W's row (x s)) terms, one float64 product over the legs t that occur
    in_b = np.diff(B.indptr)
    legs, t = np.unique(v, return_inverse=True)
    in_block = np.bincount(csr_rows(B) * nv + B.indices // n, minlength=n * nv).reshape(n, nv)
    reach = (in_block[legs] @ np.diff(W.indptr).reshape(nv, n).astype(float))[t, u]
    sizes = (
        np.bincount(ls, minlength=n)
        + np.bincount(m, minlength=n)
        + 2 * np.bincount(ls, weights=np.diff(delta.indptr)[la], minlength=n)
        + 2 * np.bincount(m, weights=in_b[v] + reach, minlength=n)
    )
    del lr, la, ls, lc, x, bt, bb, bc
    best = None
    for j0, j1 in blocks(sizes):
        shape = (j1 - j0, R * n * n)
        a0, a1 = np.searchsorted(pkeys, (j0 * R, j1 * R))
        lhs = by_item(
            mulmod(products[a0:a1], delta, p),
            pkeys[a0:a1],
            R,
            j0,
            shape,
            lambda x, r: r * n * n + ab[x],
            p,
        )
        b0, b1 = np.searchsorted(tkeys, (j0 * n, j1 * n))
        Y = mulmod(terms[b0:b1], B, p)
        jj, s = np.divmod(tkeys[b0 + csr_rows(Y)], n)
        x, b = np.divmod(Y.indices.astype(np.int64), n)
        # F's row (j b) and column (x s), in place
        jj -= j0
        jj *= n
        jj += b
        x *= n
        x += s
        del s, b
        F, fkeys = compact(jj, x, Y.data, (None, nv * n))
        del Y, jj, x
        # F W: rows (j b), column (y a) for r = rs[y]
        rhs = by_item(
            mulmod(F, W, p), fkeys, n, 0, shape, lambda ya, b: (rs[ya // n] * n + ya % n) * n + b, p
        )
        del F
        jj, col = mismatches(lhs, rhs, shape[1], p)
        if len(jj):
            # the smallest r*dim + j of the block
            key = int((col // (n * n) * n + jj).min()) + j0
            best = key if best is None else min(best, key)
            if best < n:  # r = 0: no later j comes first
                break
    if best is None:
        return None
    r, j = divmod(best, n)
    return int(index[r]), j


def _coproduct_operand(terms: tuple, Mu, as_, n: int, p: int) -> tuple:
    """W of _delta_failure, with V (the second legs v that occur, W's row
    (x s) standing for v = V[x]) and rs (the rows r with Delta(g_r) != 0,
    W's column (y a) standing for r = rs[y]), from the terms (r, u, v, d)
    of Delta(g_r) = sum d e_u (x) e_v and the left multiplications Mu of
    _delta_failure, entry (a, s) at as_.

    Delta(g_r) as rows (x y), column u, times Mu gives w_{r,v} e_s at
    column (a s).  That product is taken in blocks of x (algebra.blocks),
    and each block's entries are laid out as W's rows and columns by one
    construction, so that its product and keys are live for one block at a
    time.  The blocks' values and columns are then joined into W's arrays,
    each while its blocks are released, so the peak stays below twice W's
    own arrays plus one block.
    """
    import numpy as np

    r, gu, gv, gd = terms
    V, x = np.unique(gv, return_inverse=True)
    rs, y = np.unique(r, return_inverse=True)
    nv, nr = len(V), len(rs)
    D, keys = compact(x * nr + y, gu, gd, (None, n))
    del x, y
    index = np.int32 if max(nv, nr) * n < 2**31 else np.int64
    a, s = (t.astype(index) for t in np.divmod(as_, n))
    # each term of the product adds an entry to it, to its coordinates, to
    # their construction and to its sort by row
    sizes = np.bincount(
        keys[csr_rows(D)] // nr, weights=4 * np.diff(Mu.indptr)[D.indices], minlength=nv
    )
    indptr = np.zeros(nv * n + 1, dtype=index)
    data, cols = [], []
    for x0, x1 in blocks(sizes):
        d0, d1 = np.searchsorted(keys, (x0 * nr, x1 * nr))
        Y = mulmod(D[d0:d1], Mu, p)
        counts = np.diff(Y.indptr)
        # row (x s), column (y a) of each entry
        xs, ys = (np.repeat(t.astype(index), counts) for t in np.divmod(keys[d0:d1], nr))
        xs -= x0
        xs *= n
        xs += s[Y.indices]
        ys *= n
        ys += a[Y.indices]
        vals = Y.data  # Y's indices go before the sort
        del Y, counts
        block = linalg.csr(vals, xs, ys, ((x1 - x0) * n, nr * n))
        del vals, xs, ys
        indptr[1 + x0 * n : 1 + x1 * n] = np.diff(block.indptr)
        data.append(block.data)
        cols.append(block.indices.astype(index, copy=False))
        del block
    np.cumsum(indptr, out=indptr)
    W = linalg.CSR(_joined(data), _joined(cols).astype(index, copy=False), indptr, (nv * n, nr * n))
    return W, V, rs


def _joined(parts: list):
    """The arrays of parts end to end, each released from parts once copied."""
    import numpy as np

    out = np.empty(sum(len(a) for a in parts), dtype=parts[0].dtype if parts else np.int64)
    at = 0
    parts.reverse()
    while parts:
        a = parts.pop()
        out[at : at + len(a)] = a
        at += len(a)
    return out
