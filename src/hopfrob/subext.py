"""Hopf subalgebra pairs as twisted Frobenius extensions.

A Hopf subalgebra K of H (closed under coproduct and antipode) carries a
relative twist beta on K, computed here two independent ways: by pulling
the inverse Nakayama automorphism of H back through the inclusion and
post-composing with the Nakayama automorphism of K, and as the hit action
of the convolution character m_K * (m_H^-1 o iota).  The two matrices must
agree entrywise; a mismatch aborts rather than silently picking a side.

The extension structure itself is a conditional expectation E: H -> K
obeying the twisted bimodule law E(iota(a) x iota(b)) = beta(a) E(x) b,
solved from that law as a linear system, together with dual bases
{u_i}, {v_i} in H reconstructing the identity through E.  Everything is
certified per instance: nondegeneracy by rank against the space of right
K-linear maps, both reconstruction identities on every basis vector, and
freeness of H over K by explicit basis search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import multiplicative_failure
from .errors import InternalCheckError, InvalidInputError
from .frobenius import build_integral_data, modular_inverse, nakayama_closed_form
from .hopfcore import HopfAlgebra, comultiplicative_failure, convolution, hit_matrix
from .linalg import (
    Matrix,
    basis_vec,
    canonical_basis,
    kronecker,
    reduce_mod_span,
    span_contains,
    vadd,
    vscale,
    zero_vec,
)
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

    def restrict(self, w):
        """Coordinates of w in the K basis, or None if w is outside iota(K)."""
        return self.iota.solve(w)


def identity_embedding(H: HopfAlgebra) -> SubalgebraEmbedding:
    return SubalgebraEmbedding(H, H, Matrix.identity(H.field, H.dim))


def verify_embedding(emb: SubalgebraEmbedding) -> Report:
    """Check that iota is a map of Hopf algebras and that the ambient
    Nakayama automorphism preserves the image."""
    K, H, iota = emb.K, emb.H, emb.iota
    rep = Report(f"subalgebra embedding: {K.name or 'K'} in {H.name or 'H'}")

    rep.add("unit is preserved", iota.apply(K.unit) == H.unit)

    bad = multiplicative_failure(K.alg, H.alg, iota)
    detail = ""
    if bad is not None:
        detail = f"fails at basis pair ({K.basis_names[bad[0]]}, {K.basis_names[bad[1]]})"
    rep.add("multiplication is preserved", bad is None, detail)

    rep.add(
        "counit is compatible",
        iota.transpose().apply(H.counit) == tuple(K.counit),
    )

    bad = comultiplicative_failure(K, H, iota)
    rep.add(
        "comultiplication is compatible",
        bad is None,
        "" if bad is None else f"fails at {K.basis_names[bad]}",
    )

    rep.add(
        "antipode is compatible",
        H.antipode.mul(iota) == iota.mul(K.antipode),
    )

    nu_H = nakayama_closed_form(H, build_integral_data(H))
    ok = all(emb.restrict(nu_H.apply(iota.col(s))) is not None for s in range(K.dim))
    rep.add("ambient Nakayama automorphism preserves the subalgebra", ok)
    return rep


def _check_k_automorphism(K: HopfAlgebra, beta: Matrix) -> None:
    if beta.apply(K.unit) != tuple(K.unit):
        raise InternalCheckError("relative twist does not fix the unit")
    if multiplicative_failure(K.alg, K.alg, beta) is not None:
        raise InternalCheckError("relative twist is not multiplicative")
    beta.inverse()  # raises if singular


def relative_nakayama(emb: SubalgebraEmbedding) -> Matrix:
    """Twist beta on K, by two routes that must agree entrywise.

    Route one conjugates through the inclusion: beta = nu_K o (nu_H^-1
    restricted to iota(K)).  Route two evaluates the convolution character
    m_K * (m_H^-1 o iota) and lets it hit from the right.
    """
    rep = verify_embedding(emb)
    if not rep.passed:
        failed = ", ".join(it.name for it in rep.failures())
        raise InvalidInputError(f"not a Hopf subalgebra embedding: {failed}")
    K, H, iota = emb.K, emb.H, emb.iota
    field = K.field

    data_K = build_integral_data(K)
    data_H = build_integral_data(H)
    nu_K = nakayama_closed_form(K, data_K)
    nu_inv = nakayama_closed_form(H, data_H).inverse()
    cols = []
    for s in range(K.dim):
        c = emb.restrict(nu_inv.apply(iota.col(s)))
        if c is None:
            raise InvalidInputError(
                "ambient Nakayama automorphism does not preserve the subalgebra"
            )
        cols.append(nu_K.apply(c))
    via_pullback = Matrix.from_columns(field, cols)

    chi = convolution(
        K, data_K.modular_fn, iota.transpose().apply(modular_inverse(H, data_H.modular_fn))
    )
    via_character = hit_matrix(K, chi, "left")

    if via_pullback != via_character:
        raise InternalCheckError(
            "two computations of the relative Nakayama automorphism disagree"
        )
    _check_k_automorphism(K, via_pullback)
    return via_pullback


# -- conditional expectation ----------------------------------------------------


@dataclass(frozen=True)
class RelativeFrobeniusData:
    """Certified extension structure for K in H.

    E is the conditional expectation H -> K (rows are K coordinates);
    us, vs are dual bases in H with x = sum_i u_i iota(E(v_i x)) and the
    beta-twisted mirror x = sum_i iota(beta^-1(E(x u_i))) v_i.
    solution_dim records the dimension of the full twisted bimodule map
    space the expectation was selected from.
    """

    beta: Matrix
    E: Matrix
    us: tuple
    vs: tuple
    solution_dim: int


def _linearity_rows(emb: SubalgebraEmbedding, side: str, actions) -> list:
    """Constraint rows, over the unknown d x n matrix of a map phi: H -> F^d
    flattened row-major, forcing phi(x iota(e_s)) = actions[s] phi(x) (side
    "right") or phi(iota(e_s) x) = actions[s] phi(x) (side "left") for each
    basis vector e_s of K; each actions[s] is a d x d matrix."""
    H, iota = emb.H, emb.iota
    field = H.field
    n = H.dim
    zero = field.zero()
    rows = []
    for s, A in enumerate(actions):
        if side == "right":
            W = H.alg.right_mult_matrix(iota.col(s))
        else:
            W = H.alg.left_mult_matrix(iota.col(s))
        d = A.nrows
        for i in range(n):
            w = W.col(i)
            for alpha in range(d):
                row = [zero] * (d * n)
                row[alpha * n : (alpha + 1) * n] = w
                for gamma in range(d):
                    row[gamma * n + i] = field.normalize(
                        row[gamma * n + i] - A.entry(alpha, gamma)
                    )
                rows.append(tuple(row))
    return rows


def twisted_bimodule_maps(emb: SubalgebraEmbedding, beta: Matrix) -> tuple:
    """Canonical basis (as k x n matrices) of maps E: H -> K with
    E(iota(a) x iota(b)) = beta(a) E(x) b."""
    K, H = emb.K, emb.H
    twists = [K.alg.left_mult_matrix(beta.col(s)) for s in range(K.dim)]
    rows = _linearity_rows(emb, "left", twists) + _linearity_rows(
        emb, "right", regular_module(K).mats
    )
    kern = Matrix(H.field, tuple(rows)).kernel()
    n = H.dim
    return tuple(
        Matrix.from_rows(H.field, [vec[a * n : (a + 1) * n] for a in range(K.dim)])
        for vec in kern
    )


def right_linear_maps(emb: SubalgebraEmbedding) -> tuple:
    """Canonical flattened basis of Hom over K of (H as right K-module, K)."""
    rows = _linearity_rows(emb, "right", regular_module(emb.K).mats)
    dim = emb.K.dim * emb.H.dim
    if not rows:
        return tuple(basis_vec(emb.H.field, dim, i) for i in range(dim))
    return Matrix(emb.H.field, tuple(rows)).kernel()


def _pairing_columns(emb: SubalgebraEmbedding, E: Matrix) -> Matrix:
    """Columns i = flattened matrix of x |-> E(e_i x), a right K-linear map."""
    H = emb.H
    cols = []
    for i in range(H.dim):
        m = E.mul(H.alg.left_mult_matrix(H.alg.basis_vector(i)))
        cols.append(tuple(x for row in m.rows for x in row))
    return Matrix.from_columns(H.field, cols)


def _is_nondegenerate(emb: SubalgebraEmbedding, E: Matrix, hom_basis: tuple) -> bool:
    cols = _pairing_columns(emb, E)
    if cols.rank() != emb.H.dim:
        return False
    return all(
        span_contains(emb.H.field, hom_basis, cols.col(i)) for i in range(emb.H.dim)
    )


def beta_frobenius_structure(
    emb: SubalgebraEmbedding, beta: Matrix
) -> RelativeFrobeniusData:
    """Solve for the conditional expectation and its dual bases.

    The expectation is the first canonical basis vector of the twisted
    bimodule map space whose evaluation pairing is nondegenerate (the sum of
    all candidates is tried last).  Dual bases are solved with v_i = e_i and
    both reconstruction identities re-verified on every basis vector.
    """
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    n, k = H.dim, K.dim

    candidates = list(twisted_bimodule_maps(emb, beta))
    if not candidates:
        raise InternalCheckError("no twisted bimodule maps exist for the pair")
    hom_basis = right_linear_maps(emb)
    if len(hom_basis) != n:
        raise InternalCheckError(
            f"right K-linear maps H -> K form a space of dimension "
            f"{len(hom_basis)}, expected {n}"
        )
    solution_dim = len(candidates)
    if solution_dim > 1:
        total = candidates[0]
        for cand in candidates[1:]:
            total = total.add(cand)
        candidates.append(total)
    E = next((c for c in candidates if _is_nondegenerate(emb, c, hom_basis)), None)
    if E is None:
        raise InternalCheckError(
            "no nondegenerate conditional expectation in the solution space"
        )

    # u_i from sum_i u_i iota(E(e_i e_j)) = e_j, one dense solve
    prods = [[H.alg.multiply(H.alg.basis_vector(i), H.alg.basis_vector(j)) for j in range(n)] for i in range(n)]
    zero = field.zero()
    big = [[zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            rm = H.alg.right_mult_matrix(iota.apply(E.apply(prods[i][j])))
            for t in range(n):
                brow = big[j * n + t]
                for s in range(n):
                    brow[i * n + s] = field.normalize(brow[i * n + s] + rm.entry(t, s))
    rhs = [field.one() if j == t else zero for j in range(n) for t in range(n)]
    flat = Matrix(field, tuple(tuple(r) for r in big)).solve(tuple(rhs))
    if flat is None:
        raise InternalCheckError("dual basis system is inconsistent")
    us = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
    vs = tuple(H.alg.basis_vector(i) for i in range(n))

    data = RelativeFrobeniusData(beta, E, us, vs, solution_dim)
    ok, detail = extension_identities_hold(emb, data)
    if not ok:
        raise InternalCheckError(f"dual basis identities fail: {detail}")
    return data


def extension_identities_hold(
    emb: SubalgebraEmbedding, data: RelativeFrobeniusData
) -> tuple:
    """Exact check of both reconstruction identities on every basis vector."""
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    n = H.dim
    beta_inv = data.beta.inverse()
    for j in range(n):
        x = H.alg.basis_vector(j)
        acc = zero_vec(field, n)
        for u, v in zip(data.us, data.vs):
            acc = vadd(field, acc, H.alg.multiply(u, iota.apply(data.E.apply(H.alg.multiply(v, x)))))
        if acc != x:
            return False, f"identity side fails at {H.basis_names[j]}"
        acc = zero_vec(field, n)
        for u, v in zip(data.us, data.vs):
            acc = vadd(
                field,
                acc,
                H.alg.multiply(iota.apply(beta_inv.apply(data.E.apply(H.alg.multiply(x, u)))), v),
            )
        if acc != x:
            return False, f"twisted mirror side fails at {H.basis_names[j]}"
    return True, ""


def check_expectation_bimodule(
    emb: SubalgebraEmbedding, data: RelativeFrobeniusData
) -> tuple:
    """Re-verify E(iota(a) x iota(b)) = beta(a) E(x) b on all basis triples."""
    K, H, iota = emb.K, emb.H, emb.iota
    for s in range(K.dim):
        bs = data.beta.col(s)
        for t in range(K.dim):
            for i in range(H.dim):
                mid = H.alg.multiply(iota.col(s), H.alg.basis_vector(i))
                lhs = data.E.apply(H.alg.multiply(mid, iota.col(t)))
                rhs = K.alg.multiply(
                    K.alg.multiply(bs, data.E.apply(H.alg.basis_vector(i))),
                    K.alg.basis_vector(t),
                )
                if lhs != rhs:
                    return False, (
                        f"fails at ({K.basis_names[s]}, {H.basis_names[i]}, "
                        f"{K.basis_names[t]})"
                    )
    return True, ""


# -- freeness -------------------------------------------------------------------


def free_module_basis(emb: SubalgebraEmbedding, side: str = "right") -> tuple:
    """Greedy basis of H as a free one-sided K-module.

    Accepts a candidate only when its K-orbit enlarges the span by a full
    dim K, so the result is a genuine free basis of length dim H / dim K.
    """
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    n, k = H.dim, K.dim
    if n % k != 0:
        raise InternalCheckError(
            "ambient dimension is not a multiple of the subalgebra dimension"
        )
    if side not in ("left", "right"):
        raise InvalidInputError(f"side must be 'left' or 'right', not {side!r}")

    def orbit(x):
        if side == "right":
            return [H.alg.multiply(x, iota.col(s)) for s in range(k)]
        return [H.alg.multiply(iota.col(s), x) for s in range(k)]

    chosen: list = []
    spanning: list = []
    echelon: tuple = ()
    for i in range(n):
        if len(chosen) * k == n:
            break
        cand = H.alg.basis_vector(i)
        trial = canonical_basis(field, spanning + orbit(cand))
        if len(trial) == len(echelon) + k:
            chosen.append(cand)
            spanning.extend(orbit(cand))
            echelon = trial
    if len(chosen) * k != n:
        raise InternalCheckError(
            "greedy search over basis vectors found no free module basis"
        )
    return tuple(chosen)


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
    for mat in M.mats:
        if mat.nrows != M.dim or mat.ncols != M.dim:
            raise InvalidInputError("module action matrix has the wrong shape")
    failure = _module_law_failure(K, M.mats, M.dim)
    if failure is not None:
        raise InvalidInputError(failure)


def _module_law_failure(A: HopfAlgebra, action: tuple, dim: int) -> Optional[str]:
    """Why the matrices action[s], the action of each basis vector e_s of A
    on F^dim, break the right module law m . (ab) = (m . a) . b, or None."""
    field = A.field

    def act(coords) -> Matrix:
        acc = Matrix.zeros(field, dim, dim)
        for s, c in coords:
            if c != field.zero():
                acc = acc.add(action[s].scale(c))
        return acc

    if not act(enumerate(A.unit)).is_identity():
        return "module action does not respect the unit"
    for s in range(A.dim):
        for t in range(A.dim):
            if act(A.alg.mul.get((s, t), ())) != action[t].mul(action[s]):
                return f"module action fails associativity at basis pair ({s}, {t})"
    return None


def module_act(M: KModule, m, a) -> tuple:
    """m . a for a K coordinate vector a."""
    field = M.field
    out = zero_vec(field, M.dim)
    for s, c in enumerate(a):
        if c != field.zero():
            out = vadd(field, out, vscale(field, c, M.mats[s].apply(m)))
    return out


def trivial_module(K: HopfAlgebra) -> KModule:
    mats = tuple(
        Matrix(K.field, ((K.counit[s],),)) for s in range(K.dim)
    )
    return KModule(K.field, 1, mats)


def regular_module(K: HopfAlgebra) -> KModule:
    mats = tuple(
        K.alg.right_mult_matrix(K.alg.basis_vector(s)) for s in range(K.dim)
    )
    return KModule(K.field, K.dim, mats)


# -- induction and co-induction -------------------------------------------------


@dataclass(frozen=True)
class InducedModule:
    """M tensored with H over K; proj/section relate the quotient basis to
    the ambient M (x) H coordinates, flattened row-major (module, H)."""

    dim: int
    action: tuple
    proj: Matrix
    section: Matrix


@dataclass(frozen=True)
class CoinducedModule:
    """Right K-linear maps H -> (M twisted along beta^-1), flattened
    row-major (module, H); action is right translation of the argument."""

    dim: int
    basis: tuple
    action: tuple


def induced_module(emb: SubalgebraEmbedding, M: KModule) -> InducedModule:
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    d, n, k = M.dim, H.dim, K.dim
    zero = field.zero()

    relations = []
    for alpha in range(d):
        for s in range(k):
            moved = M.mats[s].col(alpha)
            for i in range(n):
                row = [zero] * (d * n)
                for gamma in range(d):
                    row[gamma * n + i] = field.normalize(row[gamma * n + i] + moved[gamma])
                w = H.alg.multiply(iota.col(s), H.alg.basis_vector(i))
                for x in range(n):
                    row[alpha * n + x] = field.normalize(row[alpha * n + x] - w[x])
                relations.append(tuple(row))
    rel = canonical_basis(field, relations)
    pivots = set()
    for row in rel:
        pivots.add(next(j for j, c in enumerate(row) if c != zero))
    free = [j for j in range(d * n) if j not in pivots]
    q = len(free)

    proj_cols = []
    for j in range(d * n):
        red = reduce_mod_span(field, rel, basis_vec(field, d * n, j))
        proj_cols.append(tuple(red[t] for t in free))
    proj = Matrix.from_columns(field, proj_cols)
    section = Matrix.from_columns(
        field, [basis_vec(field, d * n, t) for t in free]
    )

    eye = Matrix.identity(field, d)
    action = tuple(
        proj.mul(kronecker(eye, H.alg.right_mult_matrix(H.alg.basis_vector(t)))).mul(section)
        for t in range(n)
    )
    return InducedModule(q, action, proj, section)


def coinduced_module(
    emb: SubalgebraEmbedding, beta: Matrix, M: KModule
) -> CoinducedModule:
    K, H = emb.K, emb.H
    field = H.field
    d, n, k = M.dim, H.dim, K.dim
    zero = field.zero()

    beta_inv = beta.inverse()
    twisted = []
    for s in range(k):
        acc = Matrix.zeros(field, d, d)
        for c_idx, c in enumerate(beta_inv.col(s)):
            if c != zero:
                acc = acc.add(M.mats[c_idx].scale(c))
        twisted.append(acc)

    kern = Matrix(field, tuple(_linearity_rows(emb, "right", twisted))).kernel()
    basis_mat = Matrix.from_columns(field, list(kern)) if kern else Matrix.zeros(field, d * n, 0)

    eye = Matrix.identity(field, d)
    action = []
    for t in range(n):
        flat = kronecker(eye, H.alg.left_mult_matrix(H.alg.basis_vector(t)).transpose())
        moved = flat.mul(basis_mat)
        coords = basis_mat.solve_matrix(moved)
        if coords is None:
            raise InternalCheckError(
                "co-induced space is not stable under the ambient action"
            )
        action.append(coords)
    return CoinducedModule(len(kern), kern, tuple(action))


def induction_coinduction_check(
    emb: SubalgebraEmbedding, data: RelativeFrobeniusData, M: KModule
) -> Report:
    """Build both transported modules for M and certify the comparison map.

    The comparison sends m (x) h to the right K-linear map
    x |-> m . beta^-1(E(h x)); the report checks dimensions, the module laws
    on both sides, and that the map is a bijective intertwiner.
    """
    check_module(emb.K, M)
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    d, n, k = M.dim, H.dim, K.dim
    rep = Report(f"induction vs co-induction: module of dim {d} over {K.name or 'K'}")

    ind = induced_module(emb, M)
    coi = coinduced_module(emb, data.beta, M)
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
    rep.add(
        "induced action satisfies the module law",
        _module_law_failure(H, ind.action, ind.dim) is None,
    )
    rep.add(
        "co-induced action satisfies the module law",
        _module_law_failure(H, coi.action, coi.dim) is None,
    )

    beta_inv = data.beta.inverse()
    # kappa[i][x] = action matrix of beta^-1(E(e_i e_x)) on M
    zero = field.zero()
    theta_cols = []
    for col in range(ind.dim):
        lift = ind.section.col(col)
        phi = [[zero] * n for _ in range(d)]
        for pos, c in enumerate(lift):
            if c == zero:
                continue
            alpha, i = divmod(pos, n)
            m_alpha = basis_vec(field, d, alpha)
            for x in range(n):
                val = beta_inv.apply(
                    data.E.apply(H.alg.multiply(H.alg.basis_vector(i), H.alg.basis_vector(x)))
                )
                moved = module_act(M, m_alpha, val)
                for gamma in range(d):
                    phi[gamma][x] = field.normalize(phi[gamma][x] + c * moved[gamma])
        theta_cols.append(tuple(x for row in phi for x in row))
    theta = Matrix.from_columns(field, theta_cols)

    rep.add(
        "comparison map lands in the co-induced space",
        all(span_contains(field, coi.basis, theta.col(j)) for j in range(ind.dim)),
    )
    rep.add(
        "comparison map is bijective",
        theta.rank() == ind.dim and ind.dim == coi.dim,
        f"rank {theta.rank()} of {ind.dim}",
    )

    eye = Matrix.identity(field, d)
    ok = True
    detail = ""
    for t in range(n):
        flat = kronecker(eye, H.alg.left_mult_matrix(H.alg.basis_vector(t)).transpose())
        if flat.mul(theta) != theta.mul(ind.action[t]):
            ok = False
            detail = f"fails at {H.basis_names[t]}"
            break
    rep.add("comparison map respects the ambient action", ok, detail)
    return rep


def extension_report(emb: SubalgebraEmbedding) -> tuple:
    """End-to-end certification of one subalgebra pair: the report, and the
    certified extension data (None when the embedding checks fail)."""
    rep = verify_embedding(emb)
    if not rep.passed:
        return rep, None
    # both constructors below raise InternalCheckError unless their own
    # checks pass, so the two items recorded as PASS cannot fail here
    beta = relative_nakayama(emb)
    rep.add("two computations of the relative twist agree", True)
    data = beta_frobenius_structure(emb, beta)
    ok, detail = check_expectation_bimodule(emb, data)
    rep.add("conditional expectation obeys the twisted bimodule law", ok, detail)
    rep.add("dual bases reconstruct the identity on both sides", True)
    free = free_module_basis(emb, "right")
    rep.add(
        "ambient algebra is free over the subalgebra",
        len(free) * emb.K.dim == emb.H.dim,
        f"rank {len(free)}",
    )
    return rep, data
