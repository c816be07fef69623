"""Integrals, norms, Frobenius systems, Nakayama automorphisms, modular
functions, and the S^4 conjugation identity.

Conventions, fixed package-wide:
  * psi is the canonical echelon generator of the left integrals in H*,
    left unnormalized; every derived quantity except the norm is invariant
    under rescaling psi (tested).
  * Gram matrix G[i][k] = psi(e_i e_k); the left norm is N = G^{-1} counit.
  * modular_fn is the character m with N a = m(a) N; modular_elt is the
    group-like b with psi * f = f(b) psi in the convolution algebra.  Both
    are factors of a rank-one matrix built in one pass over one table: the
    left multiplication L_N = N m^T (column j is N e_j, from mul) and the
    hit matrix R_psi = b psi^T of a -> a ↼ psi (row i is psi * e^i, from
    comul).  The identities that check them are matrix identities too.
  * the translate of a functional by an element d is (psi d)(x) = psi(d x).
  * convolution inverses of characters are taken as composition with S,
    never solved for, and so is the inverse of the group-like b: b^{-1} =
    S(b).
  * IntegralData keeps the Gram matrix G of psi and its inverse, G's one
    elimination; every later reader (nu = (G^{-1})^T G, the translate by b,
    the coproduct of psi in H*) takes them from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .algebra import check_automorphism, is_augmentation
from .errors import InternalCheckError, InvalidInputError, SingularError
from .hopfcore import (
    HopfAlgebra,
    _outer_sum,
    dual_left_integral_space,
    eval_cov,
    hit_matrix,
    integral_operator,
    is_grouplike,
    left_integral_space,
    pairing_matrix,
)
from .linalg import Matrix, annihilates, basis_vec, canonical_basis, matrix_order
from .report import Report


@dataclass(frozen=True)
class IntegralData:
    """psi: generator of the left integrals in H*; norm: its left norm N;
    modular_fn: the character m with N a = m(a) N; modular_elt: the
    group-like b with psi * f = f(b) psi; gram: G = [psi(e_i e_k)] and
    gram_inv: G^{-1}, N = G^{-1} eps (both left out of equality)."""

    psi: tuple
    norm: tuple
    modular_fn: tuple
    modular_elt: tuple
    gram: Matrix = dc_field(compare=False, repr=False)
    gram_inv: Matrix = dc_field(compare=False, repr=False)


@dataclass(frozen=True)
class FrobeniusSystem:
    """Frobenius homomorphism psi with dual bases xs, ys and Nakayama
    automorphism: sum_i psi(a x_i) y_i = a = sum_i x_i psi(y_i a) and
    psi(x a) = psi(nu(a) x).  chi and gamma are the invertible-module
    scalars of the general theory, frozen to 1 over a field."""

    psi: tuple
    xs: tuple
    ys: tuple
    nakayama: Matrix
    chi: object
    gamma: object


@dataclass(frozen=True)
class ComparisonResult:
    derivative: tuple
    derivative_inv: tuple
    report: Report


@dataclass(frozen=True)
class OrderData:
    antipode_order: Optional[int]
    nakayama_order: Optional[int]
    antipode_sq_order: Optional[int]
    antipode_divides: bool
    nakayama_divides: bool


# -- integrals and the norm ------------------------------------------------------


def _factor(field, vecs: Sequence, v: Sequence, message: str) -> tuple:
    """The w with vecs[i] = w_i v for every i: a factor of the rank-one
    matrix v w^T read from its columns, or of w v^T from its rows.  The
    first vecs[i] that is no multiple of v raises message.format(i), and a
    zero v raises it at 0."""
    pivot = next((t for t, x in enumerate(v) if x), None)
    if pivot is None:
        raise InternalCheckError(message.format(0))
    inv = field.inv(v[pivot])
    w = []
    for i, vec in enumerate(vecs):
        c = field.normalize(vec[pivot] * inv)
        if vec != tuple(field.normalize(c * x) if x else x for x in v):
            raise InternalCheckError(message.format(i))
        w.append(c)
    return tuple(w)


def build_integral_data(H: HopfAlgebra, psi: Optional[Sequence] = None) -> IntegralData:
    """psi (canonical unless supplied), its left norm, and both modular
    functions, with every defining identity re-checked before returning."""
    field = H.field
    if psi is None:
        ints = dual_left_integral_space(H)
        if len(ints) != 1:
            raise InvalidInputError(f"integral space not rank one (dimension {len(ints)})")
        (psi,) = ints
    else:
        psi = tuple(field.normalize(c) for c in psi)
        if not annihilates(field, integral_operator(H, "left", dual=True), psi):
            raise InvalidInputError("supplied functional is not a left integral")
        if not any(psi):
            raise InvalidInputError("supplied functional is zero")

    gram = pairing_matrix(H.alg, psi)
    try:
        gram_inv = gram.inverse()
    except SingularError as exc:
        raise InvalidInputError("Gram matrix singular: algebra is not Frobenius") from exc
    norm = gram_inv.apply(H.counit)

    # column j of L_N is N e_j = m(e_j) N, so L_N = N m^T
    left = H.alg._mult_matrix(norm, "left", transposed=True).rows
    m = _factor(field, left, norm, "N e_{} is not proportional to N")
    # row i of R_psi is psi * e^i = e^i(b) psi, so R_psi = b psi^T
    right = hit_matrix(H, psi, "right").rows
    b = _factor(field, right, psi, "psi * e^{} is not proportional to psi")

    result = IntegralData(psi, norm, m, b, gram, gram_inv)
    _check_integral_data(H, result)
    return result


def _check_integral_data(H: HopfAlgebra, data: IntegralData) -> None:
    """The defining identities of the data not proved while reading it off:
    N a left integral (on R_N, whose column i is e_i N), m a character, b
    group-like.  psi(e_i N) = eps(e_i) is row i of G N = eps, exact for
    N = G^{-1} eps, and _factor proved N e_i = m(e_i) N on every column of L_N."""
    field = H.field
    norm, m, b = data.norm, data.modular_fn, data.modular_elt
    R = H.alg.right_mult_matrix(norm)
    # e_i N = eps(e_i) N: R_N = N eps^T
    norm_eps = _outer_sum(field, [(norm, H.counit)]).items()
    if R != Matrix.from_entries(field, H.dim, H.dim, norm_eps):
        raise InternalCheckError("norm is not a left integral")
    if not is_augmentation(H.alg, m):
        raise InternalCheckError("modular function is not a character")
    if not is_grouplike(H, b):
        raise InternalCheckError("dual modular element is not group-like")


# -- Frobenius system --------------------------------------------------------------


def dual_basis_identities_hold(gram: Matrix, xs, ys):
    """Both defining identities of the dual bases xs, ys for the functional
    psi whose Gram matrix is gram, checked on every basis vector; returns
    (ok, first failing detail).

    With G[i][k] = psi(e_i e_k) and T[j][k] the coefficients of
    sum_i x_i (x) y_i, sum_i psi(e_t x_i) y_i = sum_j G[t][j] T[j] is row t
    of G T, and sum_i x_i psi(y_i e_t) = sum_k T[.][k] G[k][t] is column t of
    T G: the identities are G T = 1 = T G.
    """
    field, n = gram.field, gram.nrows
    T = Matrix.from_entries(field, n, n, _outer_sum(field, zip(xs, ys)).items())
    left, right = gram.mul(T), T.mul(gram)
    for t in range(n):
        e = basis_vec(field, n, t)
        if left.row(t) != e:
            return False, f"sum psi(a x_i) y_i != a at basis {t}"
        if right.col(t) != e:
            return False, f"sum x_i psi(y_i a) != a at basis {t}"
    return True, ""


def _dual_bases_from_coproduct(H: HopfAlgebra, t: Sequence) -> tuple:
    """x_i = c e_k and y_i = Sbar(e_j), one pair per term c e_j (x) e_k of
    Delta(t), in sorted order."""
    sbar_cols = H.antipode_inv().transpose().rows
    z = H.field.zero()
    xs, ys = [], []
    for (j, k), c in sorted(H.delta_vec(t).items()):
        x = [z] * H.dim
        x[k] = c
        xs.append(tuple(x))
        ys.append(sbar_cols[j])
    return tuple(xs), tuple(ys)


def frobenius_system_from_norm(H: HopfAlgebra, data: IntegralData) -> FrobeniusSystem:
    """Dual bases read off the coproduct of the norm and checked against
    data's Gram matrix G; Nakayama nu = (G^T)^{-1} G = (G^{-1})^T G, a
    product, checked an automorphism before returning."""
    xs, ys = _dual_bases_from_coproduct(H, data.norm)
    ok, detail = dual_basis_identities_hold(data.gram, xs, ys)
    if not ok:
        raise InternalCheckError(f"dual basis identities fail: {detail}")

    nu = data.gram_inv.transpose().mul(data.gram)
    check_automorphism(H.alg, nu, "Nakayama matrix")
    one = H.field.one()
    return FrobeniusSystem(data.psi, xs, ys, nu, one, one)


def nakayama_closed_form(H: HopfAlgebra, data: IntegralData) -> Matrix:
    """Matrix of a -> Sbar^2(m ⇀ a); the two factor orders must agree."""
    sbar2 = H.antipode_inv().pow_(2)
    hit = hit_matrix(H, data.modular_fn, "left")
    A = sbar2.mul(hit)
    if A != hit.mul(sbar2):
        raise InternalCheckError(
            "the two factorizations of the Nakayama closed form disagree"
        )
    return A


# -- system comparison and transformation -------------------------------------------


def translate_functional(H: HopfAlgebra, psi: Sequence, d: Sequence) -> tuple:
    """The translate (psi d)(x) = psi(d x), as a covector."""
    return pairing_matrix(H.alg, psi).transpose().apply(d)


def translate_system(H: HopfAlgebra, sys: FrobeniusSystem, d: Sequence) -> FrobeniusSystem:
    """The system for the translated functional (psi d)(x) = psi(d x):
    same xs, ys replaced by d^{-1} y_i, Nakayama conjugated by d."""
    L = H.alg.left_mult_matrix(d)
    try:
        Linv = L.inverse()
    except SingularError as exc:
        raise InvalidInputError("translation element is not invertible") from exc
    d_inv = Linv.apply(H.unit)
    psi2 = translate_functional(H, sys.psi, d)
    ys2 = tuple(H.alg.multiply(d_inv, y) for y in sys.ys)
    R = H.alg.right_mult_matrix(d)
    nu2 = R.mul(Linv).mul(sys.nakayama)
    ok, detail = dual_basis_identities_hold(pairing_matrix(H.alg, psi2), sys.xs, ys2)
    if not ok:
        raise InternalCheckError(f"translated system invalid: {detail}")
    return FrobeniusSystem(psi2, sys.xs, ys2, nu2, sys.chi, sys.gamma)


def compare_systems(
    H: HopfAlgebra, sys: FrobeniusSystem, sys2: FrobeniusSystem
) -> ComparisonResult:
    """Recover the invertible derivative d with psi' = psi d, and verify the
    dual bases and Nakayama transforms it induces.  a = sum_i x_i psi(y_i a)
    gives psi' = psi d for d = sum_i psi'(x_i) y_i, read off sys's dual bases."""
    field = H.field
    d = Matrix.from_columns(field, sys.ys).apply([eval_cov(field, sys2.psi, x) for x in sys.xs])
    L = H.alg.left_mult_matrix(d)
    try:
        Linv = L.inverse()
    except SingularError as exc:
        raise InvalidInputError("systems not comparable: derivative not invertible") from exc
    d_inv = Linv.apply(H.unit)

    rep = Report("system comparison")
    rep.add(
        "functional translates by the derivative",
        translate_functional(H, sys.psi, d) == sys2.psi,
    )
    t_new = _outer_sum(field, zip(sys2.xs, sys2.ys))
    t_old = _outer_sum(
        field, ((x, H.alg.multiply(d_inv, y)) for x, y in zip(sys.xs, sys.ys))
    )
    rep.add("dual basis tensors match", t_new == t_old)

    R = H.alg.right_mult_matrix(d)
    rep.add(
        "Nakayama conjugates by the derivative",
        sys2.nakayama == R.mul(Linv).mul(sys.nakayama),
    )
    return ComparisonResult(d, d_inv, rep)


def transform_by_antipode(H: HopfAlgebra, sys: FrobeniusSystem) -> FrobeniusSystem:
    """The system (psi o Sbar, {S(y_i)}, {S(x_i)}, S o nu^{-1} o Sbar)."""
    field = H.field
    sbar = H.antipode_inv()
    psi2 = sbar.transpose().apply(sys.psi)
    xs2 = H.antipode.mul(Matrix.from_columns(field, sys.ys)).transpose().rows
    ys2 = H.antipode.mul(Matrix.from_columns(field, sys.xs)).transpose().rows
    nu2 = H.antipode.mul(sys.nakayama.inverse()).mul(sbar)
    ok, detail = dual_basis_identities_hold(pairing_matrix(H.alg, psi2), xs2, ys2)
    if not ok:
        raise InternalCheckError(f"antipode transform invalid: {detail}")
    # the transformed functional behaves like a right integral:
    # x ↼ psi2 = sum psi2(x_(1)) x_(2) = psi2(x) 1, so the hit matrix is 1 psi2^T
    want = Matrix.from_entries(field, H.dim, H.dim, _outer_sum(field, [(H.unit, psi2)]).items())
    if hit_matrix(H, psi2, "right") != want:
        raise InternalCheckError(
            "transformed functional fails the right-integral equation"
        )
    return FrobeniusSystem(psi2, xs2, ys2, nu2, sys.chi, sys.gamma)


# -- named verification bundles -------------------------------------------------------


def antipode_shift_check(H: HopfAlgebra, data: IntegralData) -> Report:
    """psi o Sbar equals the translate psi b, and psi(Sbar(N)) = 1."""
    field = H.field
    rep = Report("antipode shift of the integral")
    sbar = H.antipode_inv()
    rep.add(
        "functional composed with inverse antipode equals its b-translate",
        sbar.transpose().apply(data.psi) == data.gram.transpose().apply(data.modular_elt),
    )
    rep.add(
        "normalization psi(Sbar(N)) = 1",
        eval_cov(field, data.psi, sbar.apply(data.norm)) == field.one(),
    )
    return rep


def modular_inverse(H: HopfAlgebra, m: Sequence) -> tuple:
    """Convolution inverse of a character: composition with the antipode."""
    return H.antipode.transpose().apply(m)


def verify_radford(H: HopfAlgebra, data: IntegralData) -> Report:
    """S^4(a) = b^{-1} (m ⇀ a ↼ m^{-1}) b on every basis vector: column i of
    S^4 against column i of L_{b^{-1}} R_b hit(m^{-1}, right) hit(m, left).
    b is group-like (build_integral_data proved it), so b^{-1} = S(b)."""
    rep = Report("fourth antipode power as modular conjugation")
    s4 = H.antipode.pow_(4)
    m = data.modular_fn
    b = data.modular_elt
    b_inv = H.antipode.apply(b)
    hits = hit_matrix(H, modular_inverse(H, m), "right").mul(hit_matrix(H, m, "left"))
    rhs = H.alg.left_mult_matrix(b_inv).mul(H.alg.right_mult_matrix(b).mul(hits))
    for i in range(H.dim):
        ok = s4.col(i) == rhs.col(i)
        rep.add(
            f"basis {H.basis_names[i]}",
            ok,
            "" if ok else "S^4 disagrees with the conjugated action",
        )
    return rep


def orders(H: HopfAlgebra, nu: Matrix) -> OrderData:
    """Orders of S, S^2 and the Nakayama automorphism nu, S and nu searched
    up to the bound their orders must divide (4 dim H for S, 2 dim H for
    nu).  S^2 has order ord(S) / gcd(ord(S), 2); its powers are searched,
    up to 4 dim H, only when ord(S) was not found."""
    cap_s = 4 * H.dim
    cap_nu = 2 * H.dim
    ord_s = matrix_order(H.antipode, cap_s)
    ord_nu = matrix_order(nu, cap_nu)
    if ord_s is None:
        ord_s2 = matrix_order(H.antipode.pow_(2), cap_s)
    else:
        ord_s2 = ord_s // math.gcd(ord_s, 2)
    return OrderData(
        ord_s,
        ord_nu,
        ord_s2,
        ord_s is not None and cap_s % ord_s == 0,
        ord_nu is not None and cap_nu % ord_nu == 0,
    )


def dual_frobenius_check(H: HopfAlgebra, data: IntegralData) -> Report:
    """The dual-side consequences of the integral data:
      (a) evaluation at N is a Frobenius homomorphism for H* with dual bases
          read off the coproduct of psi;
      (b) psi ⇀ N = 1;
      (c) the antipode of H* computed from (psi, N) equals transpose(S);
      (d) every left integral T in H satisfies T = psi(T) N;
      (e) the left integrals of H are spanned by N;
      (f) the modular function of H* equals the modular element b of H.
    """
    field = H.field
    rep = Report("dual Frobenius structure")
    K = H.dual
    # evaluation at N is data.norm as a covector on H*, a left integral of
    # H* since N is one of H = (H*)*; (a) reads its Gram matrix, (f) its m,
    # which is invariant under rescaling, as every left integral is psi(T) N
    dual_data = build_integral_data(K, data.norm)

    xs, ys = _dual_bases_from_coproduct(K, data.psi)
    ok, detail = dual_basis_identities_hold(dual_data.gram, xs, ys)
    rep.add("norm evaluation is Frobenius for the dual", ok, detail)

    one_vec = hit_matrix(H, data.psi, "left").apply(data.norm)
    rep.add("psi ⇀ N = 1", one_vec == H.unit)

    # (e^a * e^k)(N) is the (a, k) coefficient of Delta(N), so the dual
    # antipode is Delta(psi) Delta(N)^T, each coproduct as a matrix: the Gram
    # matrices [psi(e_i e_k)] of psi on H and [N(e^i e^k)] of N on H*
    dual_s = data.gram.mul(dual_data.gram.transpose())
    rep.add(
        "dual antipode from the integral pair equals transpose(S)",
        dual_s == H.antipode.transpose(),
    )

    ints = left_integral_space(H)
    ok_d = True
    for T in ints:
        want = tuple(
            field.normalize(eval_cov(field, data.psi, T) * c) for c in data.norm
        )
        if tuple(T) != want:
            ok_d = False
    rep.add("left integrals reproduce as psi(T) N", ok_d)

    rep.add("left integral space is spanned by N", ints == canonical_basis(field, [data.norm]))

    rep.add(
        "modular function of the dual equals b",
        dual_data.modular_fn == data.modular_elt,
    )
    return rep
