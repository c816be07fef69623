"""Subalgebra pairs: relative twist, conditional expectation, module transport.

Oracle values worked by hand:
  - QC2 in the 4-dim algebra: beta(g) = -g, expectation E(x) = -g, E(gx) = 1,
    bimodule solution space of dimension 2, free rank 2 with basis {1, x}.
  - F7C3 in taft(3,7,2): beta(g) = 2g (order 3), free rank 3.
  - QC2 in QS3 (both unimodular): beta = id.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_calls,
    embedding_of,
    embedding_report,
    structure_of,
    subpair_of,
    twist_of,
)
from hopfrob import linalg, subext
from hopfrob.algebra import on_cover
from hopfrob.catalog import entry
from hopfrob.errors import InternalCheckError, InvalidInputError
from hopfrob.frobenius import build_integral_data, modular_inverse, nakayama_closed_form
from hopfrob.hopfcore import hit_matrix
from hopfrob.linalg import Matrix, basis_vec, canonical_basis, matrix_order
from hopfrob.subext import (
    InducedModule,
    KModule,
    SubalgebraEmbedding,
    _comparison_map,
    _module_law_failure,
    beta_frobenius_structure,
    check_expectation_bimodule,
    check_module,
    coinduced_module,
    extension_identities_hold,
    extension_report,
    free_module_basis,
    induced_module,
    induction_coinduction_check,
    regular_module,
    trivial_module,
)

PAIRS = ("qc2-sweedler", "f7c3-taft", "qc2-qs3")
# H inside D(H) through double.embed_algebra, for the small catalog entries
DOUBLE_PAIRS = ("qc2-double", "f2c2-double", "f7c3-double", "qc3-double")


def _identity_embedding(H):
    """H inside itself."""
    return SubalgebraEmbedding(H, H, Matrix.identity(H.field, H.dim))


def _module_act(M, m, a):
    """m . a in the K-module M, for a K coordinate vector a."""
    out = Matrix.zeros(M.field, M.dim, M.dim)
    for s, c in enumerate(a):
        out = out.add(M.mats[s].scale(c))
    return out.apply(m)


def _rand_vec(field, dim, rng):
    if field.characteristic == 0:
        return tuple(field.from_int(rng.randint(-5, 5)) for _ in range(dim))
    return tuple(field.normalize(rng.randrange(field.characteristic)) for _ in range(dim))


# -- by-definition references ------------------------------------------------
#
# The per-basis loops the matrix identities of hopfrob.subext replaced; the
# tests below require equal results on valid and corrupted inputs.


def _linearity_rows_by_definition(emb, side, actions) -> list:
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
                        row[gamma * n + i] - A.rows[alpha][gamma]
                    )
                rows.append(tuple(row))
    return rows


def twisted_bimodule_maps(emb, beta) -> tuple:
    """Canonical basis (as k x n matrices) of maps E: H -> K with
    E(iota(a) x iota(b)) = beta(a) E(x) b."""
    K, H = emb.K, emb.H
    twists = [K.alg.left_mult_matrix(beta.col(s)) for s in range(K.dim)]
    rows = _linearity_rows_by_definition(emb, "left", twists) + _linearity_rows_by_definition(
        emb, "right", regular_module(K).mats
    )
    kern = Matrix(H.field, tuple(rows)).kernel()
    n = H.dim
    return tuple(
        Matrix.from_rows(H.field, [vec[a * n : (a + 1) * n] for a in range(K.dim)])
        for vec in kern
    )


def right_linear_maps(emb) -> tuple:
    """Canonical flattened basis of Hom over K of (H as right K-module, K)."""
    rows = _linearity_rows_by_definition(emb, "right", regular_module(emb.K).mats)
    dim = emb.K.dim * emb.H.dim
    if not rows:
        return tuple(basis_vec(emb.H.field, dim, i) for i in range(dim))
    return Matrix(emb.H.field, tuple(rows)).kernel()


def _bimodule_by_definition(emb, data) -> tuple:
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


def _identities_by_definition(emb, data) -> tuple:
    H, iota = emb.H, emb.iota
    field = H.field
    n = H.dim
    beta_inv = data.beta.inverse()
    for j in range(n):
        x = H.alg.basis_vector(j)
        acc = tuple(field.zero() for _ in range(n))
        for u, v in zip(data.us, data.vs):
            w = H.alg.multiply(u, iota.apply(data.E.apply(H.alg.multiply(v, x))))
            acc = tuple(field.normalize(a + b) for a, b in zip(acc, w))
        if acc != x:
            return False, f"identity side fails at {H.basis_names[j]}"
        acc = tuple(field.zero() for _ in range(n))
        for u, v in zip(data.us, data.vs):
            w = H.alg.multiply(iota.apply(beta_inv.apply(data.E.apply(H.alg.multiply(x, u)))), v)
            acc = tuple(field.normalize(a + b) for a, b in zip(acc, w))
        if acc != x:
            return False, f"twisted mirror side fails at {H.basis_names[j]}"
    return True, ""


def _module_law_by_definition(A, action, dim):
    field = A.field

    def act(coords):
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


def _comparison_map_by_definition(emb, data, M, section):
    H = emb.H
    field = H.field
    d, n = M.dim, H.dim
    zero = field.zero()
    beta_inv = data.beta.inverse()
    cols = []
    for col in range(section.ncols):
        phi = [[zero] * n for _ in range(d)]
        for pos, c in enumerate(section.col(col)):
            if c == zero:
                continue
            alpha, i = divmod(pos, n)
            m_alpha = basis_vec(field, d, alpha)
            for x in range(n):
                val = beta_inv.apply(
                    data.E.apply(H.alg.multiply(H.alg.basis_vector(i), H.alg.basis_vector(x)))
                )
                moved = _module_act(M, m_alpha, val)
                for gamma in range(d):
                    phi[gamma][x] = field.normalize(phi[gamma][x] + c * moved[gamma])
        cols.append(tuple(x for row in phi for x in row))
    return Matrix.from_columns(field, cols)


def _induced_relations_by_definition(emb, M):
    """m_alpha . e_s (x) e_i - m_alpha (x) iota(e_s) e_i, in echelon form."""
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    d, n = M.dim, H.dim
    relations = []
    for alpha in range(d):
        for s in range(K.dim):
            moved = M.mats[s].col(alpha)
            for i in range(n):
                row = [field.zero()] * (d * n)
                for gamma in range(d):
                    row[gamma * n + i] = field.normalize(row[gamma * n + i] + moved[gamma])
                w = H.alg.multiply(iota.col(s), H.alg.basis_vector(i))
                for x in range(n):
                    row[alpha * n + x] = field.normalize(row[alpha * n + x] - w[x])
                relations.append(tuple(row))
    return canonical_basis(field, relations)


def _reduce_by_definition(field, echelon, v):
    """v minus the multiples of each echelon row that clear its leading entry."""
    w = list(v)
    for row in echelon:
        lead = next(j for j, x in enumerate(row) if x != field.zero())
        c = field.normalize(w[lead] * field.inv(row[lead]))
        w = [field.normalize(a - c * b) for a, b in zip(w, row)]
    return tuple(w)


def _induced_action_by_definition(emb, M):
    """action[t] column c: m_alpha (x) e_h e_t, for the induced basis element
    m_alpha (x) e_h of free coordinate c, reduced modulo the relations and
    read at the free coordinates."""
    H = emb.H
    field = H.field
    d, n = M.dim, H.dim
    relations = _induced_relations_by_definition(emb, M)
    pivots = {next(j for j, x in enumerate(row) if x != field.zero()) for row in relations}
    free = [j for j in range(d * n) if j not in pivots]
    action = []
    for t in range(n):
        cols = []
        for j in free:
            alpha, h = divmod(j, n)
            w = H.alg.multiply(H.alg.basis_vector(h), H.alg.basis_vector(t))
            moved = [field.zero()] * (d * n)
            moved[alpha * n : (alpha + 1) * n] = w
            red = _reduce_by_definition(field, relations, moved)
            cols.append(tuple(red[f] for f in free))
        action.append(Matrix.from_columns(field, cols))
    return action


def _coinduced_action_by_definition(emb, basis, d):
    """action[t] column c: the coordinates of phi(e_t .) in the co-induced
    basis, phi the c-th basis map flattened row-major (module, H)."""
    H = emb.H
    field = H.field
    n = H.dim
    B = Matrix.from_columns(field, basis)
    action = []
    for t in range(n):
        ws = [H.alg.multiply(H.alg.basis_vector(t), H.alg.basis_vector(x)) for x in range(n)]
        cols = []
        for phi in basis:
            moved = [
                field.normalize(sum(phi[gamma * n + y] * w[y] for y in range(n)))
                for gamma in range(d)
                for w in ws
            ]
            cols.append(B.solve(moved))
        action.append(Matrix.from_columns(field, cols))
    return action


# -- embeddings ------------------------------------------------------------------


@pytest.mark.parametrize("key", PAIRS)
def test_catalog_pairs_embed(key):
    rep = embedding_report(embedding_of(key))
    assert rep.passed, "\n".join(rep.summary_lines())


def test_identity_embedding_passes():
    rep = embedding_report(_identity_embedding(entry("sweedler").hopf))
    assert rep.passed


def test_negated_generator_is_not_an_embedding():
    K = entry("qc2").hopf
    H = entry("sweedler").hopf
    F = H.field
    neg_g = tuple(F.normalize(-c) for c in basis_vec(F, 4, 1))
    bad = SubalgebraEmbedding(K, H, Matrix.from_columns(F, [basis_vec(F, 4, 0), neg_g]))
    rep = embedding_report(bad)
    assert not rep.passed
    failed = {it.name for it in rep.failures()}
    assert "counit is compatible" in failed
    assert "comultiplication is compatible" in failed
    # the sign cancels in products, so the purely algebraic items still hold
    assert "multiplication is preserved" not in failed
    assert "unit is preserved" not in failed


def test_noninjective_inclusion_rejected():
    K = entry("qc2").hopf
    H = entry("sweedler").hopf
    col = basis_vec(H.field, 4, 0)
    with pytest.raises(InvalidInputError, match="injective"):
        SubalgebraEmbedding(K, H, Matrix.from_columns(H.field, [col, col]))


def test_shape_and_field_mismatch_rejected():
    K = entry("qc2").hopf
    H = entry("sweedler").hopf
    with pytest.raises(InvalidInputError, match="must be"):
        SubalgebraEmbedding(K, H, Matrix.identity(H.field, 4))
    with pytest.raises(InvalidInputError, match="fields differ"):
        SubalgebraEmbedding(entry("f7c3").hopf, H, Matrix.zeros(H.field, 4, 3))


def test_relative_nakayama_requires_an_embedding():
    K = entry("qc2").hopf
    H = entry("sweedler").hopf
    F = H.field
    neg_g = tuple(F.normalize(-c) for c in basis_vec(F, 4, 1))
    bad = SubalgebraEmbedding(K, H, Matrix.from_columns(F, [basis_vec(F, 4, 0), neg_g]))
    with pytest.raises(InvalidInputError, match="not a Hopf subalgebra"):
        twist_of(bad)


# -- relative twist --------------------------------------------------------------


def test_twist_negates_g_on_the_sweedler_pair():
    emb, beta, _ = subpair_of("qc2-sweedler")
    F = emb.K.field
    assert beta == Matrix.from_rows(F, [[1, 0], [0, -1]])


def test_twist_is_identity_when_both_factors_are_unimodular():
    _, beta, _ = subpair_of("qc2-qs3")
    assert beta.is_identity()


def test_twist_on_the_taft_pair_has_order_three():
    emb, beta, _ = subpair_of("f7c3-taft")
    F = emb.K.field
    # beta(g^a) = 2^a g^a: the inverse modular function of the ambient
    # algebra restricted to the group of group-likes
    assert beta == Matrix.from_rows(F, [[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    assert matrix_order(beta, 6) == 3


def test_twist_of_the_trivial_pair_is_identity():
    emb = _identity_embedding(entry("sweedler").hopf)
    assert twist_of(emb).is_identity()


# -- conditional expectation -----------------------------------------------------


def test_solution_space_dimensions():
    # QC2 in H4: E(1) = E(g) = 0 forced, E(x) free in K, E(gx) determined
    assert len(twisted_bimodule_maps(*subpair_of("qc2-sweedler")[:2])) == 2
    assert len(twisted_bimodule_maps(*subpair_of("f7c3-taft")[:2])) == 3
    assert len(twisted_bimodule_maps(*subpair_of("qc2-qs3")[:2])) == 4
    emb = _identity_embedding(entry("sweedler").hopf)
    beta = twist_of(emb)
    data = structure_of(emb, beta)
    # endomaps of the algebra as a bimodule over itself = its center
    assert len(twisted_bimodule_maps(emb, beta)) == 1
    assert data.E.is_identity()


def test_expectation_matrix_on_the_sweedler_pair():
    emb, _, data = subpair_of("qc2-sweedler")
    F = emb.K.field
    # E(x) = -g, E(gx) = 1: E(g . gx) = E(x) = -g = beta(g) E(gx)
    assert data.E == Matrix.from_rows(F, [[0, 0, 0, 1], [0, 0, -1, 0]])


def test_expectation_kills_the_group_part_on_the_taft_pair():
    emb, _, data = subpair_of("f7c3-taft")
    # only the top x-degree survives: E(g^a x^2) != 0, lower degrees vanish
    for a in range(3):
        for j in range(2):
            assert data.E.col(3 * a + j) == (0, 0, 0)
        assert data.E.col(3 * a + 2) != (0, 0, 0)


@pytest.mark.parametrize("key", PAIRS)
def test_bimodule_law_holds(key):
    emb, _, data = subpair_of(key)
    ok, detail = check_expectation_bimodule(emb, data)
    assert ok, detail


@pytest.mark.parametrize("key", PAIRS)
def test_dual_bases_reconstruct_both_sides(key):
    emb, _, data = subpair_of(key)
    ok, detail = extension_identities_hold(emb, data)
    assert ok, detail


def test_a_copy_with_another_twist_inverts_its_own():
    """beta_inv is derived once per instance: a copy that changes beta does
    not inherit the original's inverse."""
    emb, beta, data = subpair_of("f7c3-taft")
    assert data.beta_inv == beta.inverse() and data.beta_inv is data.beta_inv
    identity = Matrix.identity(emb.K.field, emb.K.dim)
    assert replace(data, beta=identity).beta_inv.is_identity()


@pytest.mark.parametrize("key", PAIRS + DOUBLE_PAIRS + ("sweedler-double",))
def test_inverse_nakayama_is_read_off_its_factors(key):
    """((m_H o S) ⇀ ·) o S^2, the nu_H^-1 of relative_nakayama, inverts
    the closed form Sbar^2 o (m_H ⇀ ·) of the ambient algebra."""
    H = embedding_of(key).H
    data = build_integral_data(H)
    factors = hit_matrix(H, modular_inverse(H, data.modular_fn), "left").mul(H.antipode.pow_(2))
    assert factors == nakayama_closed_form(H, data).inverse()


@pytest.mark.parametrize("key", PAIRS)
def test_reconstruction_on_random_vectors(key):
    emb, _, data = subpair_of(key)
    H, iota = emb.H, emb.iota
    field = H.field
    beta_inv = data.beta.inverse()
    rng = random.Random(20210 + len(key))
    for _ in range(3):
        x = _rand_vec(field, H.dim, rng)
        lhs = tuple(field.zero() for _ in range(H.dim))
        mirror = lhs
        for u, v in zip(data.us, data.vs):
            vx = H.alg.multiply(v, x)
            lhs = tuple(
                field.normalize(a + b)
                for a, b in zip(lhs, H.alg.multiply(u, iota.apply(data.E.apply(vx))))
            )
            xu = H.alg.multiply(x, u)
            mirror = tuple(
                field.normalize(a + b)
                for a, b in zip(
                    mirror,
                    H.alg.multiply(iota.apply(beta_inv.apply(data.E.apply(xu))), v),
                )
            )
        assert lhs == x
        assert mirror == x


def test_degenerate_candidate_is_detectable():
    # over the sweedler pair the candidate E(x) = 1+g, E(gx) = -g-1 pairs to
    # a rank-deficient evaluation map; the closed-form expectation does not
    emb, beta, data = subpair_of("qc2-sweedler")
    H = emb.H
    field = H.field
    sols = twisted_bimodule_maps(emb, beta)
    assert len(sols) == 2

    def pairing_rank(E):
        cols = []
        for i in range(H.dim):
            m = E.mul(H.alg.left_mult_matrix(H.alg.basis_vector(i)))
            cols.append(tuple(x for row in m.rows for x in row))
        return Matrix.from_columns(field, cols).rank()

    assert pairing_rank(sols[0].add(sols[1])) < H.dim
    assert pairing_rank(data.E) == H.dim


@pytest.mark.parametrize("key", PAIRS)
def test_right_linear_map_space_has_ambient_dimension(key):
    emb = embedding_of(key)
    assert len(right_linear_maps(emb)) == emb.H.dim


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=9, max_size=9))
def test_expectation_is_left_twisted_linear_on_taft(coords):
    emb, _, data = subpair_of("f7c3-taft")
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    x = tuple(field.normalize(c) for c in coords)
    g = K.alg.basis_vector(1)
    lhs = data.E.apply(H.alg.multiply(iota.apply(g), x))
    rhs = K.alg.multiply(data.beta.col(1), data.E.apply(x))
    assert lhs == rhs


# -- matrix identities against the by-definition references --------------------

ENGINES = ("default", "generic")


def _structure(key, engine, generic_engine):
    """(embedding, extension data), built afresh on the chosen engine."""
    if engine == "generic":
        generic_engine()
    emb = embedding_of(key)
    return emb, structure_of(emb, twist_of(emb))


def _moved(M, r, c):
    """M with entry (r, c) moved by one."""
    rows = [list(row) for row in M.rows]
    rows[r][c] += M.field.one()
    return Matrix.from_rows(M.field, rows)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", PAIRS + DOUBLE_PAIRS)
def test_closed_form_expectation_is_a_twisted_bimodule_map(key, engine, generic_engine):
    emb, data = _structure(key, engine, generic_engine)
    space = [tuple(x for row in m.rows for x in row) for m in twisted_bimodule_maps(emb, data.beta)]
    flat = tuple(x for row in data.E.rows for x in row)
    assert Matrix.from_columns(emb.H.field, space).solve(flat) is not None


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", PAIRS + DOUBLE_PAIRS)
def test_extension_checks_match_the_loops(key, engine, generic_engine):
    emb, data = _structure(key, engine, generic_engine)
    E = data.E
    cases = [data] + [
        replace(data, E=_moved(E, r, c))
        for r in range(E.nrows)
        for c in range(E.ncols)
    ]
    if key == "qc2-sweedler":
        identity = Matrix.identity(emb.K.field, emb.K.dim)
        cases.append(replace(data, beta=identity))
    bimodule = [check_expectation_bimodule(emb, case) for case in cases]
    identities = [extension_identities_hold(emb, case) for case in cases]
    assert bimodule == [_bimodule_by_definition(emb, case) for case in cases]
    assert identities == [_identities_by_definition(emb, case) for case in cases]
    assert bimodule[0] == identities[0] == (True, "")
    assert not all(ok for ok, _ in bimodule) and not all(ok for ok, _ in identities)


def _transport_modules(key, K) -> list:
    """The trivial and regular modules of K, and the third module of
    _modules_for where that pair has one."""
    if key in ("qc2-sweedler", "f7c3-taft"):
        return _modules_for(key)
    return [trivial_module(K), regular_module(K)]


def _twisted_actions(M, beta) -> list:
    """The d x d action of beta^-1(e_s) on M, for each basis vector e_s of K."""
    inv = beta.inverse()
    acts = []
    for s in range(len(M.mats)):
        acc = Matrix.zeros(M.field, M.dim, M.dim)
        for u, m in enumerate(M.mats):
            acc = acc.add(m.scale(inv.rows[u][s]))
        acts.append(acc)
    return acts


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", PAIRS + DOUBLE_PAIRS)
def test_transport_identities_match_the_loops(key, engine, generic_engine):
    emb, data = _structure(key, engine, generic_engine)
    K, H = emb.K, emb.H
    field, n = H.field, H.dim
    corrupted = replace(data, E=_moved(data.E, 0, n - 1))
    for M in _transport_modules(key, K):
        d = M.dim
        # the co-induced basis spans the maps the linearity rows cut out
        coi = coinduced_module(emb, data, M)
        rows = _linearity_rows_by_definition(emb, "right", _twisted_actions(M, data.beta))
        assert canonical_basis(field, coi.basis) == Matrix(field, tuple(rows)).kernel()
        # the module law, on valid and corrupted actions
        ind = induced_module(emb, data, M)
        for action, dim, A in ((M.mats, d, K), (ind.action, ind.dim, H), (coi.action, coi.dim, H)):
            assert _module_law_failure(A, action, dim) is None
            for t in range(len(action)):
                bad = tuple(_moved(m, t % dim, 0) if u == t else m for u, m in enumerate(action))
                assert _module_law_failure(A, bad, dim) == _module_law_by_definition(A, bad, dim)
        # the comparison map
        for case in (data, corrupted):
            theta = _comparison_map(emb, case, M, ind.section)
            assert theta == _comparison_map_by_definition(emb, case, M, ind.section)


# -- the laws on the product cover ----------------------------------------------

# H inside D(H) whose double's product cover is a proper part of its basis
COVERS = {"f7c3-double": 6, "qc3-double": 6, "sweedler-double": 8}


def _intertwining_by_definition(H, theta, action, d):
    """First t with Lambda(e_t) phi != theta rho(e_t) on a column phi of
    theta, Lambda(e_t) phi = phi(e_t .), or None."""
    field, n = H.field, H.dim
    prods = {
        (t, j): H.alg.multiply(H.alg.basis_vector(t), H.alg.basis_vector(j))
        for t in range(n)
        for j in range(n)
    }
    for t in range(n):
        rhs = theta.mul(action[t])
        for c in range(theta.ncols):
            phi = theta.col(c)
            moved = tuple(
                field.normalize(sum(phi[a * n + k] * x for k, x in enumerate(prods[t, j])))
                for a in range(d)
                for j in range(n)
            )
            if moved != rhs.col(c):
                return t
    return None


def _cover_spy(monkeypatch) -> list:
    """For each on_cover call of subext, the row sets its check was run on."""
    calls = []

    def spy(cover, check):
        rows = []
        calls.append(rows)
        return on_cover(cover, lambda r: rows.append(r) or check(r))

    monkeypatch.setattr(subext, "on_cover", spy)
    return calls


def _cover_case(key, engine, generic_engine):
    """(embedding, extension data, H's cover, a basis index off it, regular
    module of K, its induced module)."""
    emb, data = _structure(key, engine, generic_engine)
    cover = emb.H.alg.cover
    assert len(cover) == COVERS[key] < emb.H.dim
    M = regular_module(emb.K)
    off = next(t for t in range(emb.H.dim) if t not in cover)
    return emb, data, cover, off, M, induced_module(emb, data, M)


def _intertwining_item(rep):
    return next(it for it in rep.items if it.name == "comparison map respects the ambient action")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", COVERS)
def test_laws_visit_only_the_cover_on_valid_modules(key, engine, generic_engine, monkeypatch):
    emb, data, cover, _, M, _ = _cover_case(key, engine, generic_engine)
    calls = _cover_spy(monkeypatch)
    rep = induction_coinduction_check(emb, data, M)
    assert rep.passed, "\n".join(rep.summary_lines())
    # the induced law, the co-induced law and the intertwining, each once
    assert calls == [[cover]] * 3


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", COVERS)
def test_module_law_falls_back_to_the_basis_off_the_cover(key, engine, generic_engine, monkeypatch):
    emb, data, cover, off, M, ind = _cover_case(key, engine, generic_engine)
    H = emb.H
    coi = coinduced_module(emb, data, M)
    calls = _cover_spy(monkeypatch)
    for action, dim in ((ind.action, ind.dim), (coi.action, coi.dim)):
        bad = tuple(_moved(m, 0, 0) if u == off else m for u, m in enumerate(action))
        calls.clear()
        got = _module_law_failure(H, bad, dim)
        assert got is not None and got == _module_law_by_definition(H, bad, dim)
        assert calls == [[cover, None]]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", COVERS)
def test_intertwining_falls_back_to_the_basis_off_the_cover(key, engine, generic_engine, monkeypatch):
    """A corrupted comparison map fails on the cover, and the whole basis
    names the first failing t."""
    emb, data, cover, _, M, ind = _cover_case(key, engine, generic_engine)
    H = emb.H
    theta = _moved(_comparison_map(emb, data, M, ind.section), 0, 0)
    monkeypatch.setattr(subext, "_comparison_map", lambda *args: theta)
    calls = _cover_spy(monkeypatch)
    item = _intertwining_item(induction_coinduction_check(emb, data, M))
    ref = _intertwining_by_definition(H, theta, ind.action, M.dim)
    assert not item.ok and item.detail == f"fails at {H.basis_names[ref]}"
    assert calls == [[cover], [cover], [cover, None]]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", COVERS)
def test_intertwining_runs_on_the_basis_when_the_induced_law_fails(
    key, engine, generic_engine, monkeypatch
):
    emb, data, cover, off, M, ind = _cover_case(key, engine, generic_engine)
    H = emb.H
    bad = tuple(_moved(m, 0, 0) if u == off else m for u, m in enumerate(ind.action))
    monkeypatch.setattr(subext, "induced_module", lambda *args: InducedModule(ind.dim, bad, ind.section))
    calls = _cover_spy(monkeypatch)
    rep = induction_coinduction_check(emb, data, M)
    assert [it.name for it in rep.failures()] == [
        "induced action satisfies the module law",
        "comparison map respects the ambient action",
    ]
    theta = _comparison_map(emb, data, M, ind.section)
    ref = _intertwining_by_definition(H, theta, bad, M.dim)
    assert _intertwining_item(rep).detail == f"fails at {H.basis_names[ref]}"
    # the induced law falls back, the co-induced holds, the intertwining
    # runs on the whole basis at once
    assert calls == [[cover, None], [cover], [None]]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", PAIRS + DOUBLE_PAIRS)
def test_transport_actions_match_the_definitions(key, engine, generic_engine):
    emb, data = _structure(key, engine, generic_engine)
    field, n = emb.H.field, emb.H.dim
    for M in _transport_modules(key, emb.K):
        d = M.dim
        # P takes the induced basis to the free coordinates of the quotient
        # by the relations, where the reference action lives
        ind = induced_module(emb, data, M)
        relations = _induced_relations_by_definition(emb, M)
        pivots = {next(j for j, x in enumerate(row) if x != field.zero()) for row in relations}
        free = [j for j in range(d * n) if j not in pivots]
        reduced = [_reduce_by_definition(field, relations, c) for c in ind.section.transpose().rows]
        P = Matrix.from_columns(field, [[red[f] for f in free] for red in reduced])
        P.inverse()
        for act, ref in zip(ind.action, _induced_action_by_definition(emb, M), strict=True):
            assert P.mul(act) == ref.mul(P)
        coi = coinduced_module(emb, data, M)
        assert list(coi.action) == _coinduced_action_by_definition(emb, coi.basis, d)


def test_transport_eliminates_at_most_dim_h_rows(monkeypatch):
    """Both transported modules come from one change of basis of H per
    side, made with the extension data: no elimination while the data and
    both modules are built has more rows than dim H (the k d n relation
    rows of the regular module here would be 81), and the modules
    themselves eliminate nothing."""
    emb, beta, _ = subpair_of("qc3-double")
    data_K, data_H = build_integral_data(emb.K), build_integral_data(emb.H)
    free = free_module_basis(emb)
    M = regular_module(emb.K)
    heights = []
    rref = linalg._rref

    def spy(field, rows):
        heights.append(len(rows))
        return rref(field, rows)

    monkeypatch.setattr(linalg, "_rref", spy)
    data = beta_frobenius_structure(emb, beta, data_K, data_H, free)
    built = len(heights)
    induced_module(emb, data, M)
    coinduced_module(emb, data, M)
    assert heights and max(heights) <= emb.H.dim
    assert len(heights) == built


@pytest.mark.parametrize("key", ("f7c3-taft", "f2c2-double", "f7c3-double"))
def test_transport_engines_agree(key, generic_engine):
    """_translates is one pair of joins whose values are int64 residues on
    the default engine over GF(p) and Python scalars on the other: both
    build the same induced and co-induced actions and the same report."""
    emb, _, data = subpair_of(key)

    def build(M):
        ind, coi = induced_module(emb, data, M), coinduced_module(emb, data, M)
        return ind, coi, str(induction_coinduction_check(emb, data, M))

    modules = _transport_modules(key, emb.K)
    want = [build(M) for M in modules]
    generic_engine()
    assert [build(M) for M in modules] == want


def test_transport_rejects_a_basis_that_is_not_free(monkeypatch):
    """With S(u_1) = S(u_0) the left coordinate matrix is singular.  The
    structure is built afresh under the patched antipode, from integral
    data built before it, so no basis of the cached pair is read."""
    emb, beta, data = subpair_of("qc2-sweedler")
    H = emb.H
    data_K, data_H = build_integral_data(emb.K), build_integral_data(H)
    u0, u1 = (next(i for i, c in enumerate(u) if c != H.field.zero()) for u in data.us[:2])
    cols = [H.antipode.col(u0 if i == u1 else i) for i in range(H.dim)]
    monkeypatch.setattr(H, "antipode", Matrix.from_columns(H.field, cols))
    with pytest.raises(InternalCheckError, match="left basis is not a free basis of H over K"):
        beta_frobenius_structure(emb, beta, data_K, data_H, data.us)


# -- freeness --------------------------------------------------------------------


@pytest.mark.parametrize(
    "key,rank", [("qc2-sweedler", 2), ("f7c3-taft", 3), ("qc2-qs3", 3)]
)
def test_free_module_rank(key, rank):
    emb = embedding_of(key)
    H, iota = emb.H, emb.iota
    basis = free_module_basis(emb)
    assert len(basis) == rank
    # right: u_j iota(e_s); left, through the antipode: iota(e_s) S(u_j)
    right = [H.alg.multiply(h, iota.col(s)) for h in basis for s in range(emb.K.dim)]
    left = [
        H.alg.multiply(iota.col(s), H.antipode.apply(h)) for h in basis for s in range(emb.K.dim)
    ]
    for orbit in (right, left):
        assert Matrix.from_columns(H.field, orbit).rank() == H.dim


@pytest.mark.parametrize(
    "key", ["qc2-sweedler", "f7c3-taft", "qc2-qs3", "qc2-double", "qs3-double", "taft-3-7-2-double"]
)
def test_free_module_basis_of_the_other_pairs_needs_no_combination(key, monkeypatch):
    """The catalog pairs and H in D(H) find their free basis among the basis
    vectors of H: only H*^cop in D(H) reaches the integer combinations."""
    fallback = count_calls(monkeypatch, subext, "_combinations")
    emb = embedding_of(key)
    assert len(free_module_basis(emb)) * emb.K.dim == emb.H.dim
    assert fallback == []


def test_free_module_basis_of_trivial_pair():
    emb = _identity_embedding(entry("sweedler").hopf)
    assert free_module_basis(emb) == (emb.H.unit,)


# -- modules over the subalgebra -------------------------------------------------


def test_module_validation_rejects_junk():
    K = entry("qc2").hopf
    F = K.field
    eye = Matrix.identity(F, 1)
    with pytest.raises(InvalidInputError, match="action matrices"):
        check_module(K, KModule(F, 1, (eye,)))
    with pytest.raises(InvalidInputError, match="shape"):
        check_module(K, KModule(F, 1, (eye, Matrix.identity(F, 2))))
    with pytest.raises(InvalidInputError, match="unit"):
        check_module(K, KModule(F, 1, (eye.scale(F.from_int(2)), eye)))
    # g would act with square 4 instead of 1
    with pytest.raises(InvalidInputError, match="associativity"):
        check_module(K, KModule(F, 1, (eye, eye.scale(F.from_int(2)))))


def test_regular_module_action_matches_products():
    K = entry("f7c3").hopf
    M = regular_module(K)
    check_module(K, M)
    rng = random.Random(7)
    a = _rand_vec(K.field, K.dim, rng)
    b = _rand_vec(K.field, K.dim, rng)
    assert _module_act(M, a, b) == K.alg.multiply(a, b)


def _modules_for(key):
    emb = embedding_of(key)
    K = emb.K
    F = K.field
    mods = [trivial_module(K), regular_module(K)]
    if key == "qc2-sweedler":
        mods.append(KModule(F, 1, (Matrix.identity(F, 1), Matrix(F, ((F.from_int(-1),),)))))
    else:
        mods.append(
            KModule(
                F,
                2,
                (
                    Matrix.identity(F, 2),
                    Matrix.from_rows(F, [[2, 0], [0, 4]]),
                    Matrix.from_rows(F, [[4, 0], [0, 2]]),
                ),
            )
        )
    return mods


@pytest.mark.parametrize("key", ("qc2-sweedler", "f7c3-taft"))
@pytest.mark.parametrize("slot", (0, 1, 2))
def test_induction_equals_coinduction(key, slot):
    emb, _, data = subpair_of(key)
    M = _modules_for(key)[slot]
    rep = induction_coinduction_check(emb, data, M)
    assert rep.passed, "\n".join(rep.summary_lines())


def test_trivial_module_transport_dimensions():
    emb, _, data = subpair_of("qc2-sweedler")
    M = trivial_module(emb.K)
    ind = induced_module(emb, data, M)
    coi = coinduced_module(emb, data, M)
    assert ind.dim == 2
    assert coi.dim == 2


def test_regular_module_induces_the_ambient_algebra():
    emb, _, data = subpair_of("f7c3-taft")
    K, H, iota = emb.K, emb.H, emb.iota
    field = H.field
    ind = induced_module(emb, data, regular_module(K))
    assert ind.dim == H.dim
    # k (x) h  |->  iota(k) h  intertwines the induced action with right
    # multiplication and is invertible
    cols = []
    for j in range(ind.dim):
        lift = ind.section.col(j)
        acc = tuple(field.zero() for _ in range(H.dim))
        for pos, c in enumerate(lift):
            if c == field.zero():
                continue
            alpha, i = divmod(pos, H.dim)
            w = H.alg.multiply(iota.col(alpha), H.alg.basis_vector(i))
            acc = tuple(field.normalize(a + c * b) for a, b in zip(acc, w))
        cols.append(acc)
    phi = Matrix.from_columns(field, cols)
    phi.inverse()
    for t in range(H.dim):
        rm = H.alg.right_mult_matrix(H.alg.basis_vector(t))
        assert phi.mul(ind.action[t]) == rm.mul(phi)


# -- end to end ------------------------------------------------------------------


@pytest.mark.parametrize("key", PAIRS)
def test_extension_report_passes(key):
    rep, _ = extension_report(embedding_of(key))
    assert rep.passed, "\n".join(rep.summary_lines())
    names = [it.name for it in rep.items]
    assert "two computations of the relative twist agree" in names
    assert "ambient algebra is free over the subalgebra" in names
