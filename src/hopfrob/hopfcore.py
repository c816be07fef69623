"""Hopf algebra structure over a StructureAlgebra.

Comultiplication is stored sparsely: comul maps a basis index i to a tuple
of (j, k, c) triples meaning Delta(e_i) = sum c * e_j (x) e_k.  Elements of
H (x) H appear as dicts {(j, k): c}.  Covectors (elements of H*) are plain
coordinate tuples against the dual basis e^i, e^i(e_j) = delta_ij.

verify_hopf quantifies every axiom over the whole basis.  For large doubles
that is too expensive, so it also accepts a generating set together with a
certificate expressing each basis vector as a product of two generators.
Checking associativity and multiplicativity of Delta on the generators alone
then suffices: both properties propagate through products, and the
certificate pins every basis vector as such a product.  The quantified
checks on generators run as exact integer matrix identities (scipy.sparse)
over prime fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .algebra import (
    StructureAlgebra,
    is_augmentation,
    multiplicative_failure,
    vec_to_row,
    verify_algebra,
)
from .errors import InvalidInputError, ShapeError, SingularError
from .linalg import Matrix, basis_vec, iterated_kernel_sparse
from .report import Report
from .scalars import Field, PrimeField

# full pairwise axiom checks above this dimension get slow in pure python
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


def integral_space(H: HopfAlgebra, side: str, dual: bool = False) -> tuple:
    """Canonical basis of the left integrals (side "left": a t = eps(a) t for
    all a) or the right integrals (t a = eps(a) t) in H, or in H* if dual.

    One sparse operator x -> e_i x - eps(e_i) x (mirrored on the right) per
    basis vector.  H* multiplies by the transpose of Delta and has the unit
    of H as its counit.
    """
    if dual:
        table: dict = {}
        for k, terms in H.comul.items():
            for u, v, c in terms:
                table.setdefault((u, v), []).append((k, c))
        eps = H.unit
    else:
        table, eps = H.alg.mul, H.counit
    z = H.field.zero()

    def constraints():
        for i in range(H.dim):
            sp: dict = {}
            for j in range(H.dim):
                for k, c in table.get((i, j) if side == "left" else (j, i), ()):
                    sp[(k, j)] = sp.get((k, j), z) + c
            for d in range(H.dim):
                sp[(d, d)] = sp.get((d, d), z) - eps[i]
            yield sp

    return iterated_kernel_sparse(H.field, H.dim, constraints())


def left_integral_space(H: HopfAlgebra) -> tuple:
    """Canonical basis of the left integrals in H: a t = eps(a) t for all a."""
    return integral_space(H, "left")


def right_integral_space(H: HopfAlgebra) -> tuple:
    """Canonical basis of the right integrals in H: t a = eps(a) t for all a."""
    return integral_space(H, "right")


def dual_left_integral_space(H: HopfAlgebra) -> tuple:
    """Canonical basis of the left integrals in H*: f*lam = f(1) lam."""
    return integral_space(H, "left", dual=True)


def pairing_matrix(H: HopfAlgebra, psi: Sequence) -> Matrix:
    """Gram matrix [psi(e_i e_k)]_(i,k) of the bilinear form induced by psi."""
    field = H.field
    rows = []
    for i in range(H.dim):
        row = []
        for k in range(H.dim):
            acc = field.zero()
            for m, c in H.alg.mul.get((i, k), ()):
                acc = acc + c * psi[m]
            row.append(field.normalize(acc))
        rows.append(tuple(row))
    return Matrix(field, tuple(rows))


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
    alpha = pairing_matrix(H, psi).mul(H.antipode)
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
    strategy: str = "auto",
) -> Report:
    """Exact check of every Hopf axiom.

    strategy: "full" quantifies over all basis tuples; "certified" checks the
    two quadratic axioms (associativity, Delta multiplicative) on the given
    generators only, after verifying that the certificate writes every basis
    vector as a product of two generators; "auto" picks certified when
    generators are supplied, the dimension is large, and the field is a
    prime field below 2^31 (the certified path runs on int64 sparse
    matrices).  Forcing "certified" over any other field is invalid input.
    """
    rep = Report(title or f"hopf axioms: {H.name or 'unnamed'}")
    field = H.field
    dim = H.dim

    certifiable = isinstance(field, PrimeField) and field.p < 2**31
    if strategy == "certified" and not certifiable:
        raise InvalidInputError(
            f"certified verification needs a prime field below 2^31, not {field!r}"
        )
    use_cert = strategy == "certified" or (
        strategy == "auto" and generators is not None and dim > _CERTIFIED_DIM and certifiable
    )
    if use_cert and (generators is None or certificate is None):
        raise InvalidInputError("certified verification needs generators and certificate")

    # multiplication axioms
    if use_cert:
        _certified_mult_checks(H, generators, certificate, rep)
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
        lhs = [field.zero()] * dim
        rhs = [field.zero()] * dim
        for j, k, c in H.comul.get(i, ()):
            lhs[k] = lhs[k] + c * H.counit[j]
            rhs[j] = rhs[j] + c * H.counit[k]
        if tuple(field.normalize(x) for x in lhs) != e_i:
            bad = i
            break
        if tuple(field.normalize(x) for x in rhs) != e_i:
            bad = i
            break
    rep.add("counit law", bad is None, "" if bad is None else f"fails at basis {bad}")

    # unit is group-like, counit of unit is 1
    unit_ok = is_grouplike(H, H.unit)
    rep.add("coproduct and counit of identity", unit_ok)

    # Delta is an algebra map
    if use_cert:
        _certified_delta_checks(H, generators, rep)
    else:
        bad = None
        delta_rows = {i: dict(((j, k), c) for j, k, c in H.comul.get(i, ())) for i in range(dim)}
        for i in range(dim):
            for j in range(dim):
                z = field.zero()
                acc: dict = {}
                for m, c in H.alg.mul.get((i, j), ()):
                    for key, d in delta_rows[m].items():
                        acc[key] = acc.get(key, z) + c * d
                lhs = _clean_tensor(field, acc)
                rhs = tensor_mult(H, delta_rows[i], delta_rows[j])
                if lhs != rhs:
                    bad = (i, j)
                    break
            if bad:
                break
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


# -- certified checks (generators + certificate) -------------------------------


def _certified_mult_checks(H, generators, certificate, rep) -> None:
    field = H.field
    alg = H.alg
    dim = H.dim
    one = field.one()

    # unit law in full (cheap)
    bad = None
    for i in range(dim):
        e = basis_vec(field, dim, i)
        if alg.multiply(alg.unit, e) != e or alg.multiply(e, alg.unit) != e:
            bad = i
            break
    rep.add("unit law", bad is None, "" if bad is None else f"fails at basis {bad}")

    # certificate: e_i = G[a] * G[b] exactly
    gen_rows = [vec_to_row(field, g) for g in generators]
    bad = None
    for i, (a, b) in enumerate(certificate):
        prod = alg.multiply_rows(gen_rows[a], gen_rows[b])
        if prod != ((i, one),):
            bad = i
            break
    rep.add(
        "generation certificate",
        bad is None,
        "" if bad is None else f"certificate fails at basis {bad}",
    )

    # associativity on generators: L_g M = M (L_g x I) over the prime field
    import numpy as np
    import scipy.sparse as sp

    p = field.p
    M = _mult_csr(alg)
    eye = sp.identity(dim, dtype=np.int64, format="csr")
    bad = None
    for gi, g in enumerate(generators):
        Lg = _left_mult_csr(alg, vec_to_row(field, g))
        lhs = Lg @ M
        lhs.data %= p
        rhs = M @ sp.kron(Lg, eye, format="csr")
        rhs.data %= p
        if not _csr_equal_modp(lhs, rhs, p):
            bad = gi
            break
    rep.add(
        "associativity (generator certified)",
        bad is None,
        "" if bad is None else f"fails for generator {bad}",
    )


def _certified_delta_checks(H, generators, rep) -> None:
    """Delta(g x) = Delta(g) Delta(x) for generators g and all basis x,
    as the sparse integer matrix identity  Dmat L_g = LDelta(g) Dmat."""
    import numpy as np
    import scipy.sparse as sp

    field = H.field
    dim = H.dim
    p = field.p
    alg = H.alg

    Dmat = _comul_csr(H)
    lbasis_cache: dict = {}

    def lbasis(u: int):
        if u not in lbasis_cache:
            lbasis_cache[u] = _left_mult_csr(alg, ((u, field.one()),))
        return lbasis_cache[u]

    bad = None
    for gi, g in enumerate(generators):
        Lg = _left_mult_csr(alg, vec_to_row(field, g))
        lhs = Dmat @ Lg
        lhs.data %= p
        rhs = None
        for (u, v), c in H.delta_vec(g).items():
            term = _kron_apply(lbasis(u), lbasis(v), Dmat, dim)
            term = term * int(c)
            rhs = term if rhs is None else rhs + term
        if rhs is None:
            rhs = sp.csr_matrix((dim * dim, dim), dtype=np.int64)
        rhs.data %= p
        if not _csr_equal_modp(lhs, rhs, p):
            bad = gi
            break
    rep.add(
        "comultiplication is multiplicative (generator certified)",
        bad is None,
        "" if bad is None else f"fails for generator {bad}",
    )


def _mult_csr(alg: StructureAlgebra):
    """Multiplication as a dim x dim^2 integer matrix, pair columns row-major."""
    import numpy as np
    import scipy.sparse as sp

    dim = alg.dim
    rows, cols, data = [], [], []
    for (i, j), row in alg.mul.items():
        col = i * dim + j
        for k, c in row:
            rows.append(k)
            cols.append(col)
            data.append(int(c))
    return sp.csr_matrix(
        (np.array(data, dtype=np.int64), (rows, cols)), shape=(dim, dim * dim)
    )


def _left_mult_csr(alg: StructureAlgebra, arow):
    import numpy as np
    import scipy.sparse as sp

    dim = alg.dim
    rows, cols, data = [], [], []
    for j in range(dim):
        for k, c in alg.multiply_rows(arow, ((j, alg.field.one()),)):
            rows.append(k)
            cols.append(j)
            data.append(int(c))
    return sp.csr_matrix(
        (np.array(data, dtype=np.int64), (rows, cols)), shape=(dim, dim)
    )


def _comul_csr(H: HopfAlgebra):
    """Comultiplication as a dim^2 x dim integer matrix (rows are (j,k) pairs)."""
    import numpy as np
    import scipy.sparse as sp

    dim = H.dim
    rows, cols, data = [], [], []
    for i in range(dim):
        for j, k, c in H.comul.get(i, ()):
            rows.append(j * dim + k)
            cols.append(i)
            data.append(int(c))
    return sp.csr_matrix(
        (np.array(data, dtype=np.int64), (rows, cols)), shape=(dim * dim, dim)
    )


def _kron_apply(A, B, T, n: int):
    """(A x B) @ T for sparse n x n factors and sparse n^2 x m input, without
    materializing the Kronecker product: reshape, multiply, reshape back."""
    import scipy.sparse as sp

    m = T.shape[1]
    tc = T.tocoo()
    # T[(s1 s2), i] viewed as Y[s1, (s2 i)]
    Y = sp.csr_matrix(
        (tc.data, (tc.row // n, (tc.row % n) * m + tc.col)), shape=(n, n * m)
    )
    Z = (A @ Y).tocoo()
    # Z[r1, (s2 i)] viewed as W[s2, (r1 i)]
    W = sp.csr_matrix(
        (Z.data, (Z.col // m, Z.row * m + Z.col % m)), shape=(n, n * m)
    )
    V = (B @ W).tocoo()
    # V[r2, (r1 i)] back to out[(r1 r2), i]
    return sp.csr_matrix(
        (V.data, ((V.col // m) * n + V.row, V.col % m)), shape=(n * n, m)
    )


def _csr_equal_modp(A, B, p: int) -> bool:
    D = (A - B).tocoo()
    if D.nnz == 0:
        return True
    return bool(((D.data % p) == 0).all())
