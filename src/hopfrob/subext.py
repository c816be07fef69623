"""Hopf subalgebra pairs as twisted Frobenius extensions.

A Hopf subalgebra K of H (closed under coproduct and antipode) carries a
relative twist beta on K, computed here two independent ways: by pulling
the inverse Nakayama automorphism of H back through the inclusion and
post-composing with the Nakayama automorphism of K, and as the hit action
of the convolution character m_K * (m_H^-1 o iota).  The two matrices must
agree entrywise; a mismatch aborts rather than silently picking a side.

The extension structure itself is a conditional expectation E: H -> K
obeying the twisted bimodule law E(iota(a) x iota(b)) = beta(a) E(x) b,
built in closed form from the Frobenius system of K and the left integral
of H* (derivation in beta_frobenius_structure), together with dual bases
{u_i}, {v_i} in H reconstructing the identity through E: the u_i are a free
basis of H over K and the v_i solve one square system.  Everything is
certified per instance: the bimodule law on all basis triples and both
reconstruction identities on every basis vector, each as matrix identities
read column by column, and freeness of H over K by explicit basis search.

Each inverse depends on the pair alone, so it is taken once per pair:
beta's by RelativeFrobeniusData.beta_inv, each free basis's coordinates in
beta_frobenius_structure; nu_H^-1 is a product of its proven factors.

Induction M (x)_K H and co-induction Hom_K(H, M_beta) are both M^r, r =
dim H / dim K, along one change of basis of H: the free right basis u_j
and the left basis S(u_j).  Their tensors live in the d x n matrices over
M (x) H, flattened row-major (module, H); H acts on them by right and left
translation in H, which _translates makes by every basis element in one
join of the tensors' nonzero entries with the mul table's arrays, read back
in the coordinates of M^r by a second join, on both engines alike.

The module law rho(ab) = rho(b) rho(a) and the intertwining Lambda(a) theta =
theta rho(a) of the comparison map, Lambda(a) phi = phi(a .), run on the
product cover first (algebra.on_cover).  Over an associative algebra, as
subcheck proves first, the a meeting the law for all b are closed under
products, rho(aa'b) = rho(a'b) rho(a) = rho(b) rho(aa'), and once rho is a
module so are those meeting the intertwining: Lambda(aa') = Lambda(a')
Lambda(a).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

from .algebra import check_automorphism, on_cover, structure_arrays
from .errors import InconclusiveSearchError, InternalCheckError, InvalidInputError, SingularError
from .frobenius import IntegralData, build_integral_data, frobenius_system_from_norm
from .frobenius import modular_inverse, nakayama_closed_form
from .hopfcore import HopfAlgebra, convolution, hit_matrix, hopf_map_report
from . import linalg
from .linalg import Matrix, basis_vec, canonical_basis, vscale
from .report import Report


@dataclass(frozen=True)
class SubalgebraEmbedding:
    """Inclusion iota: K -> H, columns = images of the K basis in H."""

    K: HopfAlgebra
    H: HopfAlgebra
    iota: Matrix

    def __post_init__(self):
        if self.K.field != self.H.field:
            raise InvalidInputError("subalgebra and ambient algebra fields differ")
        if self.iota.nrows != self.H.dim or self.iota.ncols != self.K.dim:
            raise InvalidInputError(
                f"inclusion matrix must be {self.H.dim} x {self.K.dim}, "
                f"got {self.iota.nrows} x {self.iota.ncols}"
            )
        if self.iota.rank() != self.K.dim:
            raise InvalidInputError("inclusion matrix is not injective")


def verify_embedding(emb: SubalgebraEmbedding, nu_H: Matrix) -> Report:
    """Check that iota is a map of Hopf algebras and that the ambient
    Nakayama automorphism nu_H preserves the image."""
    K, H, iota = emb.K, emb.H, emb.iota
    rep = hopf_map_report(
        K, H, iota, f"subalgebra embedding: {K.name or 'K'} in {H.name or 'H'}"
    )
    rep.add(
        "ambient Nakayama automorphism preserves the subalgebra",
        iota.solve_matrix(nu_H.mul(iota)) is not None,
    )
    return rep


def relative_nakayama(
    emb: SubalgebraEmbedding, data_K: IntegralData, data_H: IntegralData, embedding_report: Report
) -> Matrix:
    """Twist beta on K, by two routes that must agree entrywise.

    Route one conjugates through the inclusion: beta = nu_K o (nu_H^-1
    restricted to iota(K)).  Route two evaluates the convolution character
    m_K * (m_H^-1 o iota) and lets it hit from the right.  data_K and data_H
    are the integral data of K and H and embedding_report the
    verify_embedding report; a failing report raises.

    No step eliminates a Nakayama matrix.  For a character m, as
    build_integral_data proved m_K and m_H are, m o S is the convolution
    inverse of m, so (m o S) ⇀ · inverts m ⇀ ·.  So nu_H^-1 is the product
    ((m_H o S) ⇀ ·) o S^2 of the inverted factors of nu_H =
    Sbar^2 o (m_H ⇀ ·) (nakayama_closed_form, whose factor orders agree).
    And route one is invertible, so check_automorphism need not eliminate
    it: iota is injective (SubalgebraEmbedding checks its rank), so the
    pulled matrix X, which solves iota X = nu_H^-1 iota, is injective and
    square, and a -> Sbar^2(m_K ⇀ a) is invertible as Sbar and m_K ⇀ · are.
    """
    K, H, iota = emb.K, emb.H, emb.iota
    if not embedding_report.passed:
        failed = ", ".join(it.name for it in embedding_report.failures())
        raise InvalidInputError(f"not a Hopf subalgebra embedding: {failed}")

    m_inv = modular_inverse(H, data_H.modular_fn)
    nu_inv = hit_matrix(H, m_inv, "left").mul(H.antipode.pow_(2))
    pulled = iota.solve_matrix(nu_inv.mul(iota))
    if pulled is None:
        raise InvalidInputError(
            "ambient Nakayama automorphism does not preserve the subalgebra"
        )
    via_pullback = nakayama_closed_form(K, data_K).mul(pulled)

    chi = convolution(K, data_K.modular_fn, iota.transpose().apply(m_inv))
    via_character = hit_matrix(K, chi, "left")

    if via_pullback != via_character:
        raise InternalCheckError(
            "two computations of the relative Nakayama automorphism disagree"
        )
    check_automorphism(K.alg, via_pullback, "relative twist")
    return via_pullback


# -- conditional expectation ----------------------------------------------------


@dataclass(frozen=True)
class RelativeFrobeniusData:
    """Certified extension structure for K in H.

    E is the conditional expectation H -> K (rows are K coordinates);
    us, vs are dual bases in H with x = sum_i u_i iota(E(v_i x)) and the
    beta-twisted mirror x = sum_i iota(beta^-1(E(x u_i))) v_i.  left and
    right are (b_j, _free_coordinates of b_j) for the free bases S(u_j)
    and u_j of H over K on that side: S is an anti-automorphism with S o
    iota = iota o S_K, so H is the direct sum of the iota(K) S(u_j).
    """

    beta: Matrix
    E: Matrix
    us: tuple
    vs: tuple
    left: tuple
    right: tuple

    @cached_property
    def beta_inv(self) -> Matrix:
        return self.beta.inverse()


def beta_frobenius_structure(
    emb: SubalgebraEmbedding,
    beta: Matrix,
    data_K: IntegralData,
    data_H: IntegralData,
    free: tuple,
) -> RelativeFrobeniusData:
    """The conditional expectation in closed form, and its dual bases.

    With (psi_K, x_a, y_a) the Frobenius system of K read off its norm and
    psi_H the left integral of H* (psi_H(x h) = psi_H(nu_H(h) x)),

        E(h) = sum_a psi_H(h iota(x_a)) y_a,  i.e.  E = Y (G_H iota X)^T

    for X, Y with columns x_a, y_a and G_H[i][j] = psi_H(e_i e_j), the Gram
    matrix that data_H holds.  The two
    dual-basis identities give sum_a k x_a (x) y_a = sum_a x_a (x) y_a k and
    sum_a x_a c (x) y_a = sum_a x_a (x) nu_K(c) y_a, so E(h iota(k)) = E(h) k
    and, as psi_H(iota(a) z) = psi_H(z iota(c)) for iota(c) =
    nu_H^-1(iota(a)), E(iota(a) h) = nu_K(c) E(h) = beta(a) E(h), beta being
    route one of relative_nakayama.  psi_K(E(h)) = psi_H(h), so E is
    nondegenerate.  The u_j are a free basis h_j of H as a right K-module
    and the v_j solve E(v_j h_l) = delta_jl 1, one square system with block
    rows E R_{h_l}: right linearity then gives x = sum_j u_j iota(E(v_j x)),
    and nondegeneracy the twisted mirror; both are re-verified on every
    basis vector.  data_K and data_H are the integral data of K and H, free
    the free right K-module basis of H from free_module_basis.
    """
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    sys_K = frobenius_system_from_norm(K, data_K)
    X = Matrix.from_columns(field, sys_K.xs)
    Y = Matrix.from_columns(field, sys_K.ys)
    E = Y.mul(data_H.gram.mul(iota).mul(X).transpose())

    blocks = [E.mul(H.alg.right_mult_matrix(h)).rows for h in free]
    # block b of the right side is K.unit in column b
    eye = Matrix.identity(field, len(free)).rows
    rhs = Matrix(field, tuple(vscale(field, c, e) for e in eye for c in K.unit))
    vs = Matrix(field, tuple(r for b in blocks for r in b)).solve_matrix(rhs)
    if vs is None:
        raise InternalCheckError("dual basis system is inconsistent")

    us = tuple(free)
    left = H.antipode.mul(Matrix.from_columns(field, us)).transpose().rows
    data = RelativeFrobeniusData(
        beta, E, us, vs.transpose().rows,
        (left, _free_coordinates(emb, left, "left")), (us, _free_coordinates(emb, us, "right")),
    )
    ok, detail = extension_identities_hold(emb, data)
    if not ok:
        raise InternalCheckError(f"dual basis identities fail: {detail}")
    return data


def extension_identities_hold(
    emb: SubalgebraEmbedding, data: RelativeFrobeniusData
) -> tuple:
    """Exact check of both reconstruction identities on every basis vector:
    column j of sum_i L_{u_i} iota E L_{v_i} and of the mirror
    sum_i R_{v_i} iota beta^-1 E R_{u_i} must both be e_j."""
    H, iota, alg = emb.H, emb.iota, emb.H.alg
    field, n = H.field, H.dim
    iE = iota.mul(data.E)
    iBE = iota.mul(data.beta_inv).mul(data.E)
    first = mirror = Matrix.zeros(field, n, n)
    for u, v in zip(data.us, data.vs):
        first = first.add(alg.left_mult_matrix(u).mul(iE).mul(alg.left_mult_matrix(v)))
        mirror = mirror.add(alg.right_mult_matrix(v).mul(iBE).mul(alg.right_mult_matrix(u)))
    for j in range(n):
        e = basis_vec(field, n, j)
        if first.col(j) != e:
            return False, f"identity side fails at {H.basis_names[j]}"
        if mirror.col(j) != e:
            return False, f"twisted mirror side fails at {H.basis_names[j]}"
    return True, ""


def check_expectation_bimodule(
    emb: SubalgebraEmbedding, data: RelativeFrobeniusData
) -> tuple:
    """Re-verify E(iota(a) x iota(b)) = beta(a) E(x) b on all basis triples:
    for each basis pair (e_s, e_t) of K, E R_{iota(e_t)} L_{iota(e_s)}
    against R_{e_t} L_{beta(e_s)} E, whose column i is the triple
    (e_s, e_i, e_t)."""
    K, H, iota, E = emb.K, emb.H, emb.iota, data.E
    right = [
        (
            E.mul(H.alg.right_mult_matrix(iota.col(t))),
            K.alg.right_mult_matrix(K.alg.basis_vector(t)),
        )
        for t in range(K.dim)
    ]
    for s in range(K.dim):
        left = H.alg.left_mult_matrix(iota.col(s))
        twisted = K.alg.left_mult_matrix(data.beta.col(s)).mul(E)
        for t, (ER, RK) in enumerate(right):
            lhs, rhs = ER.mul(left).transpose().rows, RK.mul(twisted).transpose().rows
            i = next((i for i in range(H.dim) if lhs[i] != rhs[i]), None)
            if i is not None:
                return False, (
                    f"fails at ({K.basis_names[s]}, {H.basis_names[i]}, "
                    f"{K.basis_names[t]})"
                )
    return True, ""


# -- freeness -------------------------------------------------------------------


def free_module_basis(emb: SubalgebraEmbedding) -> tuple:
    """Greedy basis of H as a free right K-module.

    Accepts a candidate only when its K-orbit enlarges the span by a full
    dim K, an exact rank test, so the result is a genuine free basis of
    length dim H / dim K.  The candidates are the basis vectors of H, then
    at most 50 integer combinations of them (_combinations).

    Greedy extension never needs to backtrack.  H is free over K
    (Nichols-Zoeller), and K, a finite-dimensional Hopf algebra, is
    Frobenius, hence self-injective.  So the span F of the chosen orbits, a
    free K-module, is injective and a direct summand: H = F + C, a direct
    sum.  By Krull-Schmidt, H = K^r and F = K^s give C = K^(r-s), so while
    s < r some x in C has a free orbit meeting F in 0, and F + xK is free
    again.  Such x need not be a basis vector of H (for H*^cop in D(H) none
    may be), which is why combinations follow.  Exhausting them proves
    nothing about the pair, so it raises InconclusiveSearchError.
    """
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    n, k = H.dim, K.dim
    if n % k != 0:
        raise InternalCheckError(
            "ambient dimension is not a multiple of the subalgebra dimension"
        )

    def orbit(x):
        return [H.alg.multiply(x, iota.col(s)) for s in range(k)]

    tries = 50

    def candidates():
        yield from (H.alg.basis_vector(i) for i in range(n))
        yield from _combinations(field, n, tries)

    chosen: list = []
    echelon: tuple = ()  # a basis of the span of the chosen orbits
    for cand in candidates():
        if len(chosen) * k == n:
            break
        trial = canonical_basis(field, [*echelon, *orbit(cand)])
        if len(trial) == len(echelon) + k:
            chosen.append(cand)
            echelon = trial
    if len(chosen) * k != n:
        raise InconclusiveSearchError(
            f"no free module basis among the {n} basis vectors and {tries} integer "
            "combinations tried"
        )
    return tuple(chosen)


def _combinations(field, n: int, count: int):
    """count vectors of n integer coefficients in [-3, 3], the same on every
    call (a fixed seed), as scalars of field."""
    rng = random.Random(0)
    for _ in range(count):
        yield tuple(field.normalize(rng.randint(-3, 3)) for _ in range(n))


# -- finite modules over K ------------------------------------------------------


@dataclass(frozen=True)
class KModule:
    """Right module over K: mats[s] is the action of the s-th basis element
    on column vectors, so m . (ab) composes as mats of b after mats of a."""

    field: object
    dim: int
    mats: tuple


def check_module(K: HopfAlgebra, M: KModule) -> None:
    if M.field != K.field:
        raise InvalidInputError("module field differs from the algebra field")
    if len(M.mats) != K.dim:
        raise InvalidInputError(
            f"module needs {K.dim} action matrices, got {len(M.mats)}"
        )
    if any(mat.nrows != M.dim or mat.ncols != M.dim for mat in M.mats):
        raise InvalidInputError("module action matrix has the wrong shape")
    if (failure := _module_law_failure(K, M.mats, M.dim)) is not None:
        raise InvalidInputError(failure)


def _flat_actions(field, action) -> Matrix:
    """The matrix whose column u is action[u] flattened row-major, so that
    applied to the coordinates of a it gives the action of a, flattened."""
    return Matrix.from_columns(field, [[x for row in m.rows for x in row] for m in action])


def _module_law_failure(A: HopfAlgebra, action: tuple, dim: int) -> Optional[str]:
    """Why action[s] = rho(e_s) on F^dim breaks the right module law over an
    associative A, or None: rho(1) = 1 and rho(e_s e_t) = rho(e_t) rho(e_s),
    s on A's product cover first (closure argument in the module docstring)."""
    field = A.field

    def act(terms):
        scaled = [action[s].scale(c) for s, c in terms if c]
        return reduce(Matrix.add, scaled) if scaled else Matrix.zeros(field, dim, dim)

    if not act(enumerate(A.unit)).is_identity():
        return "module action does not respect the unit"

    def first_pair(rows):
        for s in range(A.dim) if rows is None else rows:
            for t in range(A.dim):
                if act(A.alg.mul.get((s, t), ())) != action[t].mul(action[s]):
                    return s, t
        return None

    bad = on_cover(A.alg.cover, first_pair)
    return None if bad is None else f"module action fails associativity at basis pair {bad}"


def trivial_module(K: HopfAlgebra) -> KModule:
    return KModule(K.field, 1, tuple(Matrix(K.field, ((c,),)) for c in K.counit))


def regular_module(K: HopfAlgebra) -> KModule:
    mats = tuple(K.alg.right_mult_matrix(K.alg.basis_vector(s)) for s in range(K.dim))
    return KModule(K.field, K.dim, mats)


# -- induction and co-induction -------------------------------------------------


@dataclass(frozen=True)
class InducedModule:
    """M tensored with H over K, on the basis m_g (x) b_j of M^r for the left
    free basis b_j of H over K; section lifts that basis to the ambient
    M (x) H coordinates, flattened row-major (module, H)."""

    dim: int
    action: tuple
    section: Matrix


@dataclass(frozen=True)
class CoinducedModule:
    """Right K-linear maps H -> (M twisted along beta^-1), flattened
    row-major (module, H), on the basis of maps sending one right free basis
    vector u_j to m_g and the others to 0; action is right translation of
    the argument."""

    dim: int
    basis: tuple
    action: tuple


def _translates(alg, vecs: Matrix, side: str, read: Matrix) -> tuple:
    """read times the move of the rows of vecs by each basis element e_t of
    alg, in order of t, where column v of the move by e_t is row v of vecs
    moved by e_t.

    Each vector is a d x n matrix phi flattened row-major (module, H).  Side
    "right" moves m (x) h to m (x) h e_t, side "left" moves phi to
    phi(e_t .): the entry c at e_k of e_i e_j sends entry (a, i) of a vector
    to (a, k) of its move by e_j (right), and entry (a, k) to (a, j) of its
    move by e_i (left).  The moves, side by side (row (a, written), column
    t w + v for the w vectors), are one join of the vectors' nonzero entries
    with alg's table arrays on the H index read, and read times them is a
    second join on that row (linalg.join), so the work follows the nonzero
    entries of vecs and read and the mul entries they meet.

    Bound (int64): a key (t, row of read, v) sums one reduced product per
    row (a, written) and H index read, at most d n^2 residues below 2^31,
    so below 2^63 for d n^2 < 2^32.  Every key is below n q w for the q
    rows of read, with w, q <= d n.
    """
    import numpy as np

    field, n = alg.field, alg.dim
    w, q = vecs.nrows, read.nrows
    i, j, k, c = structure_arrays(alg, linalg.machine_prime(field))
    t, dst, src = (j, k, i) if side == "right" else (i, j, k)
    vec, pos, x = linalg.nonzero_entries(vecs)
    a, at = np.divmod(pos, n)
    lo, hi, val = linalg.join(field, (at, x.astype(c.dtype)), (src, c))
    moved, col = a[lo] * n + dst[hi], t[hi] * w + vec[lo]
    r, rc, y = linalg.nonzero_entries(read)
    lo, hi, val = linalg.join(field, (rc, y.astype(c.dtype)), (moved, val))
    by_t, v = np.divmod(col[hi], w)
    # the moves read, stacked in order of t: row t q + (row of read), column v
    key, val = linalg.summed(field, (by_t * q + r[lo]) * w + v, val)
    row, v = np.divmod(key, w)
    cells = zip(zip(row.tolist(), v.tolist()), val.tolist())
    stacked = Matrix.from_entries(field, n * q, w, cells).rows
    return tuple(Matrix(field, stacked[t * q : (t + 1) * q]) for t in range(n))


def _free_coordinates(emb: SubalgebraEmbedding, free, side: str) -> Matrix:
    """The inverse C of the matrix with column (j, s) iota(e_s) b_j ("left")
    or b_j iota(e_s) ("right"), for the free basis free = (b_j) of H over K
    on that side, laid out with row s and column (j, i) C[(j s), i]."""
    H, field, k, r = emb.H, emb.H.field, emb.K.dim, len(free)
    mult = H.alg.right_mult_matrix if side == "left" else H.alg.left_mult_matrix
    cols = [c for b in free for c in mult(b).mul(emb.iota).transpose().rows]
    try:
        C = Matrix.from_columns(field, cols).inverse().rows
    except SingularError as exc:
        raise InternalCheckError(f"{side} basis is not a free basis of H over K") from exc
    return Matrix(field, tuple(tuple(x for j in range(r) for x in C[j * k + s]) for s in range(k)))


def _free_transport(emb: SubalgebraEmbedding, flat: Matrix, d: int, basis, side: str) -> tuple:
    """(embed, action) of M^r over H on the basis (g, j), along basis =
    (free, laid), a side of RelativeFrobeniusData.

    flat has column s the d x d matrix A_s flattened, and flat times laid
    gives spread, with row (g, j) and column (a, i) sum_s C[(j s), i]
    A_s[g][a].  pure has row (g, j) the flattened m_g (x) b_j.  Left, A_s
    the action of e_s: spread is the quotient map, m_a (x) e_i = sum C[(j
    s), i] (m_a . e_s) (x) b_j, and pure its section.  Right, A_s
    transposed: spread holds the maps with phi(b_j) = m_g, phi(e_i) = sum
    C[(j s), i] A_s^T phi(b_j), and pure evaluates at the b_j."""
    (free, laid), field, n = basis, emb.H.field, emb.H.dim
    X = flat.mul(laid).rows
    spread = Matrix(field, tuple(
        tuple(x for row in X[g * d : (g + 1) * d] for x in row[j * n : (j + 1) * n])
        for g in range(d) for j in range(len(free))
    ))
    z = (field.zero(),) * n
    pure = Matrix(field, tuple(z * g + b + z * (d - 1 - g) for g in range(d) for b in free))
    embed, read = (pure, spread) if side == "left" else (spread, pure)
    return embed, _translates(emb.H.alg, embed, "right" if side == "left" else "left", read)


def induced_module(
    emb: SubalgebraEmbedding, data: RelativeFrobeniusData, M: KModule
) -> InducedModule:
    """M (x)_K H on the left free basis S(u_j) in data."""
    embed, action = _free_transport(emb, _flat_actions(M.field, M.mats), M.dim, data.left, "left")
    return InducedModule(embed.nrows, action, embed.transpose())


def coinduced_module(
    emb: SubalgebraEmbedding, data: RelativeFrobeniusData, M: KModule
) -> CoinducedModule:
    """Hom_K(H, M_beta) on the right free basis u_j in data, through the
    transposed actions of the beta^-1(e_s)."""
    flat = _flat_actions(M.field, [m.transpose() for m in M.mats]).mul(data.beta_inv)
    embed, action = _free_transport(emb, flat, M.dim, data.right, "right")
    return CoinducedModule(embed.nrows, embed.rows, action)


def _comparison_map(
    emb: SubalgebraEmbedding, data: RelativeFrobeniusData, M: KModule, section: Matrix
) -> Matrix:
    """theta: m_alpha (x) e_i |-> (x |-> m_alpha . beta^-1(E(e_i x))), on the
    induced basis that section lifts, flattened row-major (module, H).

    Z = beta^-1 E times the multiplication map has Z[s][(i, x)] the
    e_s-coordinate of beta^-1(E(e_i x)), so P = _flat_actions Z holds theta
    at row (gamma, alpha), column (i, x)."""
    H, field = emb.H, emb.H.field
    d, n = M.dim, H.dim
    mult = Matrix.from_entries(
        field, n, n * n, (((m, i * n + x), c) for (i, x), prod in H.alg.mul.items() for m, c in prod)
    )
    Z = data.beta_inv.mul(data.E).mul(mult)
    P = _flat_actions(field, M.mats).mul(Z).rows
    return Matrix(
        field,
        tuple(
            tuple(P[g * d + a][i * n + x] for a in range(d) for i in range(n))
            for g in range(d)
            for x in range(n)
        ),
    ).mul(section)


def induction_coinduction_check(
    emb: SubalgebraEmbedding, data: RelativeFrobeniusData, M: KModule
) -> Report:
    """Build both transported modules for M and certify the comparison map.

    M must be a K-module and H associative.  The comparison sends m (x) h
    to the right K-linear map x |-> m . beta^-1(E(h x)); the report checks
    dimensions, the module laws on both sides, and that the map is a
    bijective intertwiner (on H's cover once the induced law holds).
    """
    K, H = emb.K, emb.H
    field = H.field
    d, n, k = M.dim, H.dim, K.dim
    rep = Report(f"induction vs co-induction: module of dim {d} over {K.name or 'K'}")

    ind = induced_module(emb, data, M)
    coi = coinduced_module(emb, data, M)
    expected = d * n // k
    rep.add(
        "induced module has the expected dimension",
        n % k == 0 and ind.dim == expected,
        f"dim {ind.dim}, expected {expected}",
    )
    rep.add(
        "co-induced module has the expected dimension",
        coi.dim == expected,
        f"dim {coi.dim}, expected {expected}",
    )
    ind_failure = _module_law_failure(H, ind.action, ind.dim)
    rep.add("induced action satisfies the module law", ind_failure is None)
    coi_failure = _module_law_failure(H, coi.action, coi.dim)
    rep.add("co-induced action satisfies the module law", coi_failure is None)

    theta = _comparison_map(emb, data, M, ind.section)
    rep.add(
        "comparison map lands in the co-induced space",
        Matrix.from_columns(field, coi.basis).solve_matrix(theta) is not None,
    )
    rank = theta.rank()
    rep.add(
        "comparison map is bijective",
        rank == ind.dim and ind.dim == coi.dim,
        f"rank {rank} of {ind.dim}",
    )

    # Lambda(e_t) theta is L_{e_t}^T times theta, both laid out as rows x, columns (a, col)
    def laid_out(m):
        return Matrix(field, tuple(tuple(c for r in m.rows[x::n] for c in r) for x in range(n)))

    theta_by_x = laid_out(theta)

    def first_t(rows):
        for t in range(n) if rows is None else rows:
            L = H.alg.left_mult_matrix(H.alg.basis_vector(t)).transpose()
            if L.mul(theta_by_x) != laid_out(theta.mul(ind.action[t])):
                return t
        return None

    bad = on_cover(H.alg.cover if ind_failure is None else None, first_t)
    rep.add(
        "comparison map respects the ambient action",
        bad is None,
        "" if bad is None else f"fails at {H.basis_names[bad]}",
    )
    return rep


def extension_report(emb: SubalgebraEmbedding) -> tuple:
    """End-to-end certification of one subalgebra pair: the report, and the
    certified extension data (None when the embedding checks fail)."""
    K, H = emb.K, emb.H
    data_H = build_integral_data(H)
    nu_H = nakayama_closed_form(H, data_H)
    rep = verify_embedding(emb, nu_H)
    if not rep.passed:
        return rep, None
    data_K = build_integral_data(K)
    # both constructors below raise InternalCheckError unless their own
    # checks pass, so the two items recorded as PASS cannot fail here
    beta = relative_nakayama(emb, data_K, data_H, rep)
    rep.add("two computations of the relative twist agree", True)
    free = free_module_basis(emb)
    data = beta_frobenius_structure(emb, beta, data_K, data_H, free)
    ok, detail = check_expectation_bimodule(emb, data)
    rep.add("conditional expectation obeys the twisted bimodule law", ok, detail)
    rep.add("dual bases reconstruct the identity on both sides", True)
    rep.add(
        "ambient algebra is free over the subalgebra",
        len(free) * K.dim == H.dim,
        f"rank {len(free)}",
    )
    return rep, data
