"""Hopf algebra structure over a StructureAlgebra.

Comultiplication is stored sparsely: comul maps a basis index i to a tuple
of (j, k, c) triples meaning Delta(e_i) = sum c * e_j (x) e_k.  Elements of
H (x) H appear as dicts {(j, k): c}.  Covectors (elements of H*) are plain
coordinate tuples against the dual basis e^i, e^i(e_j) = delta_ij.

verify_hopf quantifies every axiom over the whole basis.  For large doubles
over a prime field it also accepts a generating set together with a
certificate expressing each basis vector as a product of two generators.
Checking associativity and multiplicativity of Delta on the generators
alone then suffices: both properties propagate through products (Delta's
through associative ones), and the certificate pins every basis vector as
such a product.  Above algebra._SPARSE_DIM both quadratic axioms run as
sparse int64 identities mod each prime of linalg.engine_primes, on the
generators or on the whole basis, like the "is an algebra map" check of
algebra.multiplicative_failure; every product goes through linalg.mulmod,
which keeps it exact.  Over QQ, Delta(e_i e_j) sums dim products of two
constants and Delta(e_i) Delta(e_j) at most dim^4 products of four (two
comul, two mul), so the primes cover 2 (dim^4 + dim) max(A, D)^4 for the
constants a/D, |a| <= A, of both tables.  Otherwise the axioms run as
Python loops over the whole basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain
from typing import Optional, Sequence

from .algebra import (
    StructureAlgebra,
    _associativity_failure,
    blocks,
    first_difference,
    first_failure,
    is_augmentation,
    multiplicative_failure,
    residue_rows,
    side_by_side,
    sparse_primes,
    structure_arrays,
    table_constants,
    unit_failure,
    vec_to_row,
    verify_algebra,
)
from .errors import InvalidInputError, ShapeError, SingularError
from .linalg import Matrix, basis_vec, engine_primes, iterated_kernel_sparse, mulmod, residues
from .report import Report
from .scalars import Field

# the generator-certified strategy runs above this dimension over an admitted
# GF(p); it names its own report items, so it keeps its own threshold rather
# than follow the engine crossover algebra._SPARSE_DIM
_CERTIFIED_DIM = 40

@dataclass(eq=False)
class HopfAlgebra:
    alg: StructureAlgebra
    comul: dict  # i -> tuple[(j, k, c), ...]
    counit: tuple
    antipode: Matrix
    name: str = ""
    _sbar: Optional[Matrix] = dc_field(default=None, repr=False)

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
        z = field.zero()
        table = {}
        for i, triples in comul.items():
            if not 0 <= i < alg.dim:
                raise ShapeError(f"comul index {i} out of range")
            acc: dict = {}
            for j, k, c in triples:
                if not (0 <= j < alg.dim and 0 <= k < alg.dim):
                    raise ShapeError(f"comul tensor index out of range at basis {i}")
                c = field.normalize(c)
                if c == z:
                    continue
                key = (j, k)
                s = field.normalize(acc.get(key, z) + c)
                if s == z:
                    acc.pop(key, None)
                else:
                    acc[key] = s
            table[i] = tuple((j, k, c) for (j, k), c in sorted(acc.items()))
        for i in range(alg.dim):
            table.setdefault(i, ())
        eps = tuple(field.normalize(c) for c in counit)
        if len(eps) != alg.dim:
            raise ShapeError("counit length mismatch")
        if antipode.nrows != alg.dim or antipode.ncols != alg.dim:
            raise ShapeError("antipode matrix shape mismatch")
        if antipode.field != field:
            raise ShapeError("antipode matrix over wrong field")
        return HopfAlgebra(alg, table, eps, antipode, name)

    @staticmethod
    def from_dense(
        alg: StructureAlgebra,
        comul: Sequence,
        counit: Sequence,
        antipode: Matrix,
        name: str = "",
    ) -> "HopfAlgebra":
        table = {
            i: tuple(
                (j, k, comul[i][j][k])
                for j in range(alg.dim)
                for k in range(alg.dim)
            )
            for i in range(len(comul))
        }
        if len(comul) != alg.dim:
            raise ShapeError("comul tensor is not dim x dim x dim")
        return HopfAlgebra.from_sparse(alg, table, counit, antipode, name)

    # -- basic maps ---------------------------------------------------------

    def comul_row(self, i: int) -> tuple:
        return self.comul.get(i, ())

    def delta_vec(self, v: Sequence) -> dict:
        """Delta(v) as a sparse tensor {(j, k): c}."""
        field = self.field
        z = field.zero()
        acc: dict = {}
        for i, vi in enumerate(v):
            if vi == z:
                continue
            for j, k, c in self.comul.get(i, ()):
                key = (j, k)
                acc[key] = acc.get(key, z) + vi * c
        return _clean_tensor(field, acc)

    def delta2_row(self, i: int) -> tuple:
        """(Delta (x) id)Delta(e_i) as a tuple of (r, s, t, c)."""
        field = self.field
        z = field.zero()
        acc: dict = {}
        for j, k, c in self.comul.get(i, ()):
            for r, s, d in self.comul.get(j, ()):
                key = (r, s, k)
                acc[key] = acc.get(key, z) + c * d
        out = []
        for key in sorted(acc):
            c = field.normalize(acc[key])
            if c != z:
                out.append((*key, c))
        return tuple(out)

    def counit_of(self, v: Sequence):
        return eval_cov(self.field, self.counit, v)

    def antipode_inv(self) -> Matrix:
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


def _clean_tensor(field: Field, acc: dict) -> dict:
    z = field.zero()
    out = {}
    for key, c in acc.items():
        c = field.normalize(c)
        if c != z:
            out[key] = c
    return out


def _outer_sum(field: Field, pairs) -> dict:
    """sum_i x_i (x) y_i as a sparse tensor {(j, k): c}."""
    t: dict = {}
    zero = field.zero()
    for x, y in pairs:
        for i, ci in enumerate(x):
            if ci == zero:
                continue
            for j, cj in enumerate(y):
                if cj == zero:
                    continue
                t[(i, j)] = t.get((i, j), zero) + ci * cj
    return _clean_tensor(field, t)


def eval_cov(field: Field, f: Sequence, v: Sequence):
    return field.normalize(sum(a * b for a, b in zip(f, v, strict=True)))


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
    return _clean_tensor(field, acc)


def convolution(H: HopfAlgebra, f: Sequence, g: Sequence) -> tuple:
    """Product of covectors dual to Delta: (f*g)(a) = sum f(a_(1)) g(a_(2))."""
    field = H.field
    out = []
    for k in range(H.dim):
        acc = field.zero()
        for j, l, c in H.comul.get(k, ()):
            acc = acc + c * f[j] * g[l]
        out.append(field.normalize(acc))
    return tuple(out)


def act_left(H: HopfAlgebra, f: Sequence, a: Sequence) -> tuple:
    """f ⇀ a = sum a_(1) f(a_(2))."""
    field = H.field
    z = field.zero()
    out = [z] * H.dim
    for i, ai in enumerate(a):
        if ai == z:
            continue
        for j, k, c in H.comul.get(i, ()):
            out[j] = out[j] + ai * c * f[k]
    return tuple(field.normalize(x) for x in out)


def act_right(H: HopfAlgebra, a: Sequence, f: Sequence) -> tuple:
    """a ↼ f = sum f(a_(1)) a_(2)."""
    field = H.field
    z = field.zero()
    out = [z] * H.dim
    for i, ai in enumerate(a):
        if ai == z:
            continue
        for j, k, c in H.comul.get(i, ()):
            out[k] = out[k] + ai * c * f[j]
    return tuple(field.normalize(x) for x in out)


def dual_act_left(H: HopfAlgebra, h: Sequence, f: Sequence) -> tuple:
    """h ⇀ f with (h ⇀ f)(y) = f(yh)."""
    return H.alg.right_mult_matrix(h).transpose().apply(f)


def dual_act_right(H: HopfAlgebra, f: Sequence, h: Sequence) -> tuple:
    """f ↼ h with (f ↼ h)(y) = f(hy)."""
    return H.alg.left_mult_matrix(h).transpose().apply(f)


def is_grouplike(H: HopfAlgebra, v: Sequence) -> bool:
    field = H.field
    z = field.zero()
    if H.counit_of(v) != field.one():
        return False
    expect = {}
    for j, vj in enumerate(v):
        if vj == z:
            continue
        for k, vk in enumerate(v):
            if vk == z:
                continue
            expect[(j, k)] = field.normalize(vj * vk)
    return H.delta_vec(v) == expect


# -- integrals ----------------------------------------------------------------


def integral_operator(H: HopfAlgebra, side: str, dual: bool = False) -> dict:
    """The integral constraints of H (of H* if dual) as one sparse operator
    S = {(row, col): c} with dim^2 rows: row a*dim + k, column j holds the
    coefficient of e_k in e_a e_j (side "left") or e_j e_a ("right"), less
    eps(e_a) on the diagonal of block a.  So S t = 0 says exactly that t is
    a left (right) integral: a t = eps(a) t (t a = eps(a) t) for all a.  H*
    multiplies by the transpose of Delta and has the unit of H as its
    counit.
    """
    dim, field = H.dim, H.field
    if dual:
        # f_u f_v = sum c f_k over the terms c e_u (x) e_v of Delta(e_k)
        entries = ((u, v, k, c) for k, terms in H.comul.items() for u, v, c in terms)
        eps = H.unit
    else:
        entries = ((i, j, k, c) for (i, j), row in H.alg.mul.items() for k, c in row)
        eps = H.counit
    # the tables hold one entry per (i, j, k)
    if side == "left":
        S = {(i * dim + k, j): c for i, j, k, c in entries}
    else:
        S = {(j * dim + k, i): c for i, j, k, c in entries}
    z = field.zero()
    for a, e in enumerate(eps):
        if e != z:
            for d in range(dim):
                key = (a * dim + d, d)
                S[key] = field.normalize(S.get(key, z) - e)
    return S


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
    field = alg.field
    rows = [[field.zero()] * alg.dim for _ in range(alg.dim)]
    for (i, k), prod in alg.mul.items():
        rows[i][k] = field.normalize(sum(c * psi[m] for m, c in prod))
    return Matrix(field, tuple(map(tuple, rows)))


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
    """Hopf structure on H*: product dual to Delta, coproduct dual to mul."""
    field = H.field
    dual_mul: dict = {}
    for k in range(H.dim):
        for u, v, c in H.comul.get(k, ()):
            dual_mul.setdefault((u, v), []).append((k, c))
    dual_comul: dict = {}
    for (i, j), row in H.alg.mul.items():
        for k, c in row:
            dual_comul.setdefault(k, []).append((i, j, c))
    names = tuple(f"{n}*" for n in H.basis_names)
    alg = StructureAlgebra.from_sparse(field, H.dim, dual_mul, H.counit, names)
    return HopfAlgebra.from_sparse(
        alg,
        dual_comul,
        H.unit,
        H.antipode.transpose(),
        name=f"{H.name}*" if H.name else "",
    )


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


def is_hopf_morphism(src: HopfAlgebra, dst: HopfAlgebra, phi: Matrix) -> bool:
    """Exact check that the linear map phi: src -> dst (columns are images of
    src basis vectors) respects unit, counit, products, coproducts and the
    antipodes."""
    return (
        src.field == dst.field
        and phi.apply(src.unit) == dst.unit
        and phi.transpose().apply(dst.counit) == src.counit
        and multiplicative_failure(src.alg, dst.alg, phi) is None
        and comultiplicative_failure(src, dst, phi) is None
        and phi.mul(src.antipode) == dst.antipode.mul(phi)
    )


# -- axiom verification --------------------------------------------------------


def verify_hopf(
    H: HopfAlgebra,
    title: Optional[str] = None,
    generators: Optional[Sequence] = None,
    certificate: Optional[Sequence] = None,
) -> Report:
    """Exact check of every Hopf axiom.

    When generators and certificate are both given, dim > _CERTIFIED_DIM
    and the field is a GF(p) that linalg.engine_primes admits, the two
    quadratic axioms (associativity, Delta multiplicative) run as sparse
    int64 identities mod p on the generators, after checking that the
    certificate writes every basis vector as a product of two generators.
    Otherwise they are
    quantified over the whole basis: mod each prime of algebra.sparse_primes
    when it gives any, else as Python loops over all basis tuples.
    """
    rep = Report(title or f"hopf axioms: {H.name or 'unnamed'}")
    field = H.field
    dim = H.dim

    primes = engine_primes(field, dim) if field.characteristic and dim > _CERTIFIED_DIM else ()
    certified = bool(primes) and generators is not None and certificate is not None

    # multiplication axioms
    if certified:
        assoc_ok = _certified_mult_checks(H, generators, certificate, primes[0], rep)
    else:
        rep.items.extend(verify_algebra(H.alg).items)

    # coassociativity: (Delta x id)Delta = (id x Delta)Delta on each basis vector
    bad = None
    for i in range(dim):
        z = field.zero()
        left = H.delta2_row(i)
        acc: dict = {}
        for j, k, c in H.comul.get(i, ()):
            for s, t, d in H.comul.get(k, ()):
                key = (j, s, t)
                acc[key] = acc.get(key, z) + c * d
        right = tuple(
            (*key, c)
            for key in sorted(acc)
            if (c := field.normalize(acc[key])) != z
        )
        if left != right:
            bad = i
            break
    rep.add("coassociativity", bad is None, "" if bad is None else f"fails at basis {bad}")

    # counit law on each basis vector
    bad = None
    for i in range(dim):
        e_i = basis_vec(field, dim, i)
        if not act_left(H, H.counit, e_i) == e_i == act_right(H, e_i, H.counit):
            bad = i
            break
    rep.add("counit law", bad is None, "" if bad is None else f"fails at basis {bad}")

    # unit is group-like, counit of unit is 1
    unit_ok = is_grouplike(H, H.unit)
    rep.add("coproduct and counit of identity", unit_ok)

    # Delta is an algebra map: Delta(g e_j) = Delta(g) Delta(e_j) for every row g
    if certified:
        name = "comultiplication is multiplicative (generator certified)"
        if not assoc_ok:
            # the reduction to generators assumes associativity
            rep.add(name, False, "not decided: associativity (generator certified) failed")
        else:
            bad = _delta_failure(H, generators, primes[0])
            rep.add(name, bad is None, "" if bad is None else f"fails for generator {bad[0]}")
    else:
        constants = chain(table_constants(H.alg), (c for t in H.comul.values() for *_, c in t))
        primes = sparse_primes(field, dim, constants, 4, dim**4 + dim)
        if primes:
            bad = first_failure(lambda p: _delta_failure(H, None, p), primes)
        else:
            bad = _delta_failure_loops(H)
        rep.add(
            "comultiplication is multiplicative",
            bad is None,
            "" if bad is None else f"fails at pair {bad}",
        )

    # counit is an algebra map
    eps_ok = is_augmentation(H.alg, H.counit)
    rep.add("counit is multiplicative", eps_ok)

    # antipode law: sum S(a_(1)) a_(2) = eps(a) 1 = sum a_(1) S(a_(2))
    scols = [vec_to_row(field, H.antipode.col(j)) for j in range(dim)]
    bad = None
    for i in range(dim):
        z = field.zero()
        left: dict = {}
        right: dict = {}
        for j, k, c in H.comul.get(i, ()):
            for m, d in H.alg.multiply_rows(scols[j], ((k, field.one()),)):
                left[m] = left.get(m, z) + c * d
            for m, d in H.alg.multiply_rows(((j, field.one()),), scols[k]):
                right[m] = right.get(m, z) + c * d
        target = vec_to_row(
            field, tuple(field.normalize(H.counit[i] * u) for u in H.unit)
        )
        lrow = tuple((m, c) for m, cc in sorted(left.items()) if (c := field.normalize(cc)) != z)
        rrow = tuple((m, c) for m, cc in sorted(right.items()) if (c := field.normalize(cc)) != z)
        if lrow != target or rrow != target:
            bad = i
            break
    rep.add("antipode law", bad is None, "" if bad is None else f"fails at basis {bad}")

    # antipode bijective
    try:
        H.antipode_inv()
        rep.add("antipode invertible", True)
    except InvalidInputError:
        rep.add("antipode invertible", False, "antipode matrix is singular")

    return rep


def _certified_mult_checks(H, generators, certificate, p, rep) -> bool:
    """Unit law, the generation certificate and associativity on the
    generators; returns whether associativity holds."""
    field = H.field
    alg = H.alg
    dim = H.dim
    one = field.one()

    # unit law in full (cheap)
    bad = unit_failure(alg)
    rep.add("unit law", bad is None, "" if bad is None else f"fails at basis {bad[1]}")

    # certificate: e_i = G[a] * G[b] exactly
    gen_rows = [vec_to_row(field, g) for g in generators]
    bad = None
    for i, (a, b) in enumerate(certificate):
        prod = alg.multiply_rows(gen_rows[a], gen_rows[b])
        if prod != ((i, one),):
            bad = i
            break
    else:
        if len(certificate) < dim:
            bad = len(certificate)  # the first basis vector it leaves out
    rep.add(
        "generation certificate",
        bad is None,
        "" if bad is None else f"certificate fails at basis {bad}",
    )

    bad = _associativity_failure(alg, generators, p)
    return rep.add(
        "associativity (generator certified)",
        bad is None,
        "" if bad is None else f"fails for generator {bad[0]}",
    )


def _delta_failure_loops(H: HopfAlgebra) -> Optional[tuple]:
    """First basis pair (i, j) with Delta(e_i e_j) != Delta(e_i) Delta(e_j), or None."""
    field = H.field
    z = field.zero()
    delta_rows = {i: dict(((j, k), c) for j, k, c in H.comul.get(i, ())) for i in range(H.dim)}
    for i in range(H.dim):
        for j in range(H.dim):
            acc: dict = {}
            for m, c in H.alg.mul.get((i, j), ()):
                for key, d in delta_rows[m].items():
                    acc[key] = acc.get(key, z) + c * d
            if _clean_tensor(field, acc) != tensor_mult(H, delta_rows[i], delta_rows[j]):
                return (i, j)
    return None


def _delta_failure(H: HopfAlgebra, rows: Optional[Sequence], p: int) -> Optional[tuple]:
    """First (r, j) with Delta(g_r e_j) != Delta(g_r) Delta(e_j) for the
    elements g_r of rows (None: the basis), or None, mod p in bounded blocks
    of rows.

    Row r*dim + j of the left side is Delta(g_r e_j), with column a*dim + b
    for e_a (x) e_b.  The right side sums c d (e_u e_s) (x) (e_v e_t) over
    the terms c e_u (x) e_v of Delta(g_r) and d e_s (x) e_t of Delta(e_j):
    one sparse product gives Y_u = (L_{e_u} x id) Delta(e_j) for the u in a
    chunk of terms, numpy pairs each entry of Y_u with the terms of e_v e_t,
    and a CSR matrix sums the duplicates.

    Bound: the sparse products go through linalg.mulmod and sum at most dim
    products per entry, for which engine_primes admitted p; every other
    product is of two residues (below 2^62) and is reduced at once.  A cell
    of one chunk's CSR sum adds at most dim residues per term of Delta(g_r),
    from at most linalg._BLOCK = 2^14 terms, so it stays below
    2^31 * 2^14 * 2^16 = 2^61; chunks are reduced mod p before they are
    added.
    """
    import numpy as np
    import scipy.sparse as sp

    dim = H.dim
    sq = dim * dim
    i, j, k, c = structure_arrays(H.alg, p)
    # the mul entries sorted by their pair i*dim + j, and where each pair starts
    order = np.argsort(i * dim + j, kind="stable")
    pair_k, pair_c = k[order], c[order]
    pairs, pair_start, pair_count = np.unique(
        (i * dim + j)[order], return_index=True, return_counts=True
    )
    # row u of Mu is L_{e_u}, entry (a, s) at a*dim + s
    Mu = sp.csr_matrix((c, (i, k * dim + j)), shape=(dim, sq))
    flat = (x for m, terms in H.comul.items() for u, v, _ in terms for x in (m, u, v))
    m, u, v = np.fromiter(flat, dtype=np.int64).reshape(-1, 3).T
    d = residues((d for terms in H.comul.values() for *_, d in terms), p)
    m, u, v, d = (x[d != 0] for x in (m, u, v, d))
    # row m: Delta(e_m), column u*dim + v
    delta = sp.csr_matrix((d, (m, u * dim + v)), shape=(dim, sq))
    # row s, column t*dim + j: coefficient of e_s (x) e_t in Delta(e_j)
    X = sp.csr_matrix((d, (u, v * dim + m)), shape=(dim, sq))

    G = residue_rows(rows, dim, p)
    terms = mulmod(G, delta, p)  # row r: Delta(g_r), column u*dim + v
    t_row = np.repeat(np.arange(terms.shape[0]), np.diff(terms.indptr))
    t_u, t_v = np.divmod(terms.indices.astype(np.int64), dim)
    # entries of Y_u, at most: sum over the entries (u, a, s) of L_{e_u} of |row s of X|
    y_bound = np.bincount(i, weights=X.getnnz(axis=1)[j], minlength=dim)[t_u]
    # a row spans dim rows of either side
    row_bound = np.bincount(t_row, weights=y_bound, minlength=terms.shape[0]) + dim
    for r0, r1 in blocks(row_bound):
        # the products g_r e_j as rows (r j), mapped by Delta
        lhs = mulmod(side_by_side(mulmod(G[r0:r1], Mu, p), dim).T.tocsr(), delta, p)
        rhs = sp.csr_matrix(lhs.shape, dtype=np.int64)
        t0 = terms.indptr[r0]
        for a0, a1 in blocks(y_bound[t0 : terms.indptr[r1]]):
            sel = slice(t0 + a0, t0 + a1)
            us, u_at = np.unique(t_u[sel], return_inverse=True)
            # row x*dim + a of Y: row a of L_{e_u} for u = us[x], times X
            Y = mulmod(Mu[us].reshape((len(us) * dim, dim)).tocsr(), X, p)
            ptr = Y.indptr[::dim].astype(np.int64)
            src, pos = _gather(ptr[u_at], ptr[u_at + 1])
            Y = Y.tocoo()
            t, jj = np.divmod(Y.col[pos].astype(np.int64), dim)
            # row (r j) and first leg a of the output, coefficient, pair (v, t)
            out = ((t_row[sel][src] - r0) * dim + jj) * dim + Y.row[pos] % dim
            coef = terms.data[sel][src] * Y.data[pos] % p
            key = t_v[sel][src] * dim + t
            del src, pos, t, jj, Y  # only these three go on: memory stays flat
            # each times the entries of e_v e_t
            q = np.searchsorted(pairs, key).clip(max=len(pairs) - 1)
            count = np.where(pairs[q] == key, pair_count[q], 0)
            src, pos = _gather(pair_start[q], pair_start[q] + count)
            out = out[src]
            chunk = sp.csr_matrix(
                (coef[src] * pair_c[pos] % p, (out // dim, out % dim * dim + pair_k[pos])),
                shape=lhs.shape,
            )
            rhs = rhs + chunk
            rhs.data %= p
        rhs.eliminate_zeros()
        first = first_difference(lhs.T, rhs.T)
        if first is not None:
            return divmod(r0 * dim + first, dim)
    return None


def _gather(start, stop):
    """Every position start[x] .. stop[x] - 1, flattened, with the x that
    each one came from: (source, position)."""
    import numpy as np

    count = stop - start
    src = np.repeat(np.arange(len(start)), count)
    pos = np.arange(len(src)) + np.repeat(start - (np.cumsum(count) - count), count)
    return src, pos
