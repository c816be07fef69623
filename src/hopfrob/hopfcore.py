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
checks on generators run as sparse int64 matrix identities mod p, so they
run exactly when linalg.machine_prime admits the field; every product goes
through linalg.mulmod, which keeps it exact.  Over any other field every
axiom is checked on the whole basis.
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
from .linalg import Matrix, basis_vec, iterated_kernel_sparse, machine_prime, mulmod
from .report import Report
from .scalars import Field

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
) -> Report:
    """Exact check of every Hopf axiom.

    The two quadratic axioms (associativity, Delta multiplicative) are
    checked on the generators only, after verifying that the certificate
    writes every basis vector as a product of two generators, exactly when
    generators and certificate are both given, dim > _CERTIFIED_DIM, and
    linalg.machine_prime admits the field (the certified kernels run on
    int64 sparse matrices).  Otherwise every axiom quantifies over all basis
    tuples.
    """
    rep = Report(title or f"hopf axioms: {H.name or 'unnamed'}")
    field = H.field
    dim = H.dim

    p = None
    if generators is not None and certificate is not None and dim > _CERTIFIED_DIM:
        p = machine_prime(field, dim)

    # multiplication axioms
    if p is not None:
        entries = [(i, j, k, c) for (i, j), row in H.alg.mul.items() for k, c in row]
        # M maps e_i (x) e_j to e_i e_j; row u of Mu is L_{e_u} = M[:, u*dim:(u+1)*dim]
        M = _csr((dim, dim * dim), ((k, i * dim + j, c) for i, j, k, c in entries))
        Mu = _csr((dim, dim * dim), ((i, k * dim + j, c) for i, j, k, c in entries))
        _certified_mult_checks(H, generators, certificate, M, Mu, p, rep)
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

    # Delta is an algebra map
    if p is not None:
        _certified_delta_checks(H, generators, Mu, p, rep)
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
#
# Sparse int64 identities mod p.  Every product goes through linalg.mulmod and
# sums at most dim products (checked by the machine_prime gate); the only other
# sums add at most dim residues, far below 2^63.


def _certified_mult_checks(H, generators, certificate, M, Mu, p, rep) -> None:
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

    # associativity on generators: L_g M = M (L_g x I)
    import scipy.sparse as sp

    eye = sp.identity(dim, dtype=M.dtype, format="csr")
    bad = None
    for gi, g in enumerate(generators):
        Lg = _left_mult(Mu, g, p)
        if (mulmod(Lg, M, p) != mulmod(M, sp.kron(Lg, eye, format="csr"), p)).nnz:
            bad = gi
            break
    rep.add(
        "associativity (generator certified)",
        bad is None,
        "" if bad is None else f"fails for generator {bad}",
    )


def _certified_delta_checks(H, generators, Mu, p, rep) -> None:
    """Delta(g x) = Delta(g) Delta(x) for generators g and all basis x, as
    the sparse identity  Dmat L_g = sum_u (L_{e_u} x L_{w_u}) Dmat  where
    Delta(g) = sum_u e_u (x) w_u."""
    import scipy.sparse as sp

    field = H.field
    dim = H.dim
    Dmat = _csr(
        (dim * dim, dim),
        ((j * dim + k, i, c) for i in range(dim) for j, k, c in H.comul.get(i, ())),
    )
    bad = None
    for gi, g in enumerate(generators):
        halves: dict = {}
        for (u, v), c in H.delta_vec(g).items():
            halves.setdefault(u, [field.zero()] * dim)[v] = c
        rhs = sp.csr_matrix(Dmat.shape, dtype=Dmat.dtype)
        for u, w in halves.items():
            rhs = rhs + _kron_apply(
                _left_mult(Mu, basis_vec(field, dim, u), p), _left_mult(Mu, w, p), Dmat, dim, p
            )
        rhs.data %= p
        if (mulmod(Dmat, _left_mult(Mu, g, p), p) != rhs).nnz:
            bad = gi
            break
    rep.add(
        "comultiplication is multiplicative (generator certified)",
        bad is None,
        "" if bad is None else f"fails for generator {bad}",
    )


def _csr(shape, triples):
    """int64 CSR matrix with the given (row, col, residue) entries."""
    import numpy as np
    import scipy.sparse as sp

    t = np.array([(r, c, int(v)) for r, c, v in triples], dtype=np.int64).reshape(-1, 3)
    return sp.csr_matrix((t[:, 2], (t[:, 0], t[:, 1])), shape=shape)


def _left_mult(Mu, g, p):
    """L_g = sum_u g_u L_{e_u}: the column blocks of M combined by g."""
    dim = len(g)
    row = _csr((1, dim), ((0, u, c) for u, c in enumerate(g) if c))
    return mulmod(row, Mu, p).reshape((dim, dim)).tocsr()


def _kron_apply(A, B, T, n: int, p: int):
    """(A x B) @ T mod p for sparse n x n factors and sparse n^2 x m input,
    without materializing the Kronecker product: reshape, multiply, reshape
    back."""
    import scipy.sparse as sp

    m = T.shape[1]
    tc = T.tocoo()
    # T[(s1 s2), i] viewed as Y[s1, (s2 i)]
    Y = sp.csr_matrix(
        (tc.data, (tc.row // n, (tc.row % n) * m + tc.col)), shape=(n, n * m)
    )
    Z = mulmod(A, Y, p).tocoo()
    # Z[r1, (s2 i)] viewed as W[s2, (r1 i)]
    W = sp.csr_matrix(
        (Z.data, (Z.col // m, Z.row * m + Z.col % m)), shape=(n, n * m)
    )
    V = mulmod(B, W, p).tocoo()
    # V[r2, (r1 i)] back to out[(r1 r2), i]
    return sp.csr_matrix(
        (V.data, ((V.col // m) * n + V.row, V.col % m)), shape=(n * n, m)
    )
