"""Integral data, Frobenius systems, Nakayama automorphisms, and the S^4
identity, checked against hand-computed and brute-force oracles."""

import dataclasses
import random
import zlib
from fractions import Fraction
from types import SimpleNamespace

import pytest
from conftest import double_of
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrob.algebra import StructureAlgebra, is_augmentation
from hopfrob.catalog import entry, names
from hopfrob.errors import InvalidInputError, SingularError
from hopfrob.frobenius import (
    ComparisonResult,
    IntegralData,
    OrderData,
    _dual_bases_from_coproduct,
    antipode_shift_check,
    build_integral_data,
    compare_systems,
    dual_basis_identities_hold,
    dual_frobenius_check,
    frobenius_system_from_norm,
    modular_inverse,
    nakayama_closed_form,
    orders,
    transform_by_antipode,
    translate_system,
    verify_radford,
)
from hopfrob.hopfcore import (
    HopfAlgebra,
    convolution,
    dual_hopf,
    dual_left_integral_space,
    eval_cov,
    hit_matrix,
    integral_space,
    is_grouplike,
    left_integral_space,
    pairing_matrix,
    right_integral_space,
)
from hopfrob.linalg import Matrix, basis_vec, matrix_order
from hopfrob.report import Report
from hopfrob.scalars import GF, QQ

ALL_KEYS = names()


def _rand_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return field.normalize(rng.randrange(field.characteristic))


def _rand_nonzero(field, rng):
    while True:
        c = _rand_scalar(field, rng)
        if c != field.zero():
            return c


# -- hand oracle: the four-dimensional self-dual example ---------------------------

# basis (1, g, x, gx); all values below verified by hand from the relations
# g^2 = 1, x^2 = 0, xg = -gx, D(x) = x@1 + g@x.


def test_sweedler_integral_hand_values():
    H = entry("sweedler").hopf
    data = build_integral_data(H)
    zero, one = Fraction(0), Fraction(1)
    assert data.psi == (zero, zero, zero, one)  # delta at gx
    assert data.norm == (zero, zero, one, one)  # x + gx
    assert data.modular_fn == (one, -one, zero, zero)  # m(g) = -1
    assert data.modular_elt == (zero, one, zero, zero)  # b = g


def _dual_integrals(H):
    """Canonical bases of the left and the right integrals in H*."""
    return integral_space(H, "left", dual=True), integral_space(H, "right", dual=True)


def test_sweedler_dual_right_integral_differs_from_left():
    H = entry("sweedler").hopf
    left, right = _dual_integrals(H)
    assert len(left) == 1 and len(right) == 1
    assert left[0] == (0, 0, 0, Fraction(1))
    assert right[0] == (0, 0, Fraction(1), 0)  # delta at x
    assert left[0] != right[0]


def test_sweedler_dual_bases_explicit():
    H = entry("sweedler").hopf
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    e = [H.alg.basis_vector(i) for i in range(4)]
    neg_x = tuple(-c for c in e[2])
    # coproduct pairs of N = x + gx, sorted by index: (1,gx), (g,x), (x,1), (gx,g)
    assert sys.xs == (e[3], e[2], e[0], e[1])
    assert sys.ys == (e[0], e[1], e[3], neg_x)  # Sbar of 1, g, x, gx


def test_sweedler_nakayama_matrix():
    H = entry("sweedler").hopf
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    one = Fraction(1)
    want = Matrix.from_columns(
        QQ,
        [
            (one, 0, 0, 0),
            (0, -one, 0, 0),  # nu(g) = -g
            (0, 0, -one, 0),  # nu(x) = -x
            (0, 0, 0, one),  # nu(gx) = gx
        ],
    )
    assert sys.nakayama == want


def test_sweedler_transformed_functional_is_right_integral():
    H = entry("sweedler").hopf
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    t = transform_by_antipode(H, sys)
    _, right = _dual_integrals(H)
    assert t.psi == right[0]  # psi o Sbar = delta at x


# -- brute-force oracle: modular pair on the q-deformed families -------------------


def _taft_characters(field, n, dim):
    """All characters of the q-deformed algebra: omega^n = 1 on the
    group-like generator, zero on the nilpotent part."""
    chars = []
    p = field.characteristic
    for w in range(1, p):
        if pow(w, n, p) != 1:
            continue
        chi = [field.zero()] * dim
        for i in range(n):
            chi[i * n] = field.normalize(pow(w, i, p))
        chars.append((w, tuple(chi)))
    return chars


@pytest.mark.parametrize("key,n,q", [("taft-3-7-2", 3, 2), ("taft-4-5-2", 4, 2)])
def test_taft_modular_pair_by_exhaustion(key, n, q):
    H = entry(key).hopf
    field = H.field
    data = build_integral_data(H)

    (T,) = left_integral_space(H)
    matches = []
    for w, chi in _taft_characters(field, n, H.dim):
        if all(
            H.alg.multiply(T, H.alg.basis_vector(j))
            == tuple(field.normalize(chi[j] * c) for c in T)
            for j in range(H.dim)
        ):
            matches.append((w, chi))
    assert len(matches) == 1
    w, chi = matches[0]
    assert data.modular_fn == chi
    assert field.normalize(w * q) == field.one()  # m(g) is the inverse deformation

    (psi,) = dual_left_integral_space(H)
    grouplike_hits = []
    for t in range(n):
        b = H.alg.basis_vector(t * n)
        if all(
            convolution(H, psi, basis_vec(field, H.dim, i))
            == tuple(field.normalize(b[i] * c) for c in psi)
            for i in range(H.dim)
        ):
            grouplike_hits.append(t)
    assert grouplike_hits == [1]  # b = g, found by exhaustion
    assert data.modular_elt == H.alg.basis_vector(n)


# -- group algebras are unimodular with trivial modular pair ------------------------


@pytest.mark.parametrize("key", ["qc2", "qc3", "f5c5", "qs3"])
def test_group_algebra_modular_pair_trivial(key):
    H = entry(key).hopf
    data = build_integral_data(H)
    assert data.modular_fn == H.counit
    assert data.modular_elt == H.unit
    left, right = _dual_integrals(H)
    assert left[0] == right[0]


# -- defining identities, re-derived in the test ------------------------------------


@pytest.mark.parametrize("key", ALL_KEYS)
def test_integral_identities_recomputed(key):
    H = entry(key).hopf
    field = H.field
    data = build_integral_data(H)
    rng = random.Random(101)
    # f * psi = f(1) psi for random functionals f
    for _ in range(3):
        f = tuple(_rand_scalar(field, rng) for _ in range(H.dim))
        lhs = convolution(H, f, data.psi)
        scale = eval_cov(field, f, H.unit)
        assert lhs == tuple(field.normalize(scale * c) for c in data.psi)
    # psi(a N) = eps(a) and a N = eps(a) N on the basis
    for i in range(H.dim):
        a = H.alg.basis_vector(i)
        prod = H.alg.multiply(a, data.norm)
        assert eval_cov(field, data.psi, prod) == H.counit[i]
        assert prod == tuple(field.normalize(H.counit[i] * c) for c in data.norm)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_dual_basis_identities_recomputed(key):
    H = entry(key).hopf
    field = H.field
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    rng = random.Random(202)
    for _ in range(4):
        a = tuple(_rand_scalar(field, rng) for _ in range(H.dim))
        acc1 = (field.zero(),) * H.dim
        acc2 = (field.zero(),) * H.dim
        for x, y in zip(sys.xs, sys.ys):
            c1 = eval_cov(field, sys.psi, H.alg.multiply(a, x))
            acc1 = tuple(p + c1 * q for p, q in zip(acc1, y))
            c2 = eval_cov(field, sys.psi, H.alg.multiply(y, a))
            acc2 = tuple(p + c2 * q for p, q in zip(acc2, x))
        assert tuple(field.normalize(v) for v in acc1) == tuple(a)
        assert tuple(field.normalize(v) for v in acc2) == tuple(a)


def _dual_basis_identities_loop(alg, psi, xs, ys):
    """Reference for dual_basis_identities_hold: one algebra product per basis
    vector, dual-basis pair and identity."""
    field = alg.field
    for t in range(alg.dim):
        a = alg.basis_vector(t)
        acc1 = [field.zero()] * alg.dim
        acc2 = [field.zero()] * alg.dim
        for x, y in zip(xs, ys):
            c1 = eval_cov(field, psi, alg.multiply(a, x))
            if c1 != field.zero():
                acc1 = [p + c1 * q for p, q in zip(acc1, y)]
            c2 = eval_cov(field, psi, alg.multiply(y, a))
            if c2 != field.zero():
                acc2 = [p + c2 * q for p, q in zip(acc2, x)]
        if tuple(field.normalize(v) for v in acc1) != a:
            return False, f"sum psi(a x_i) y_i != a at basis {t}"
        if tuple(field.normalize(v) for v in acc2) != a:
            return False, f"sum x_i psi(y_i a) != a at basis {t}"
    return True, ""


def _dual_basis_cases(H):
    """(algebra, functional, xs, ys) of H's Frobenius system and of the dual
    check's system on H*, each with copies that must fail: one coefficient
    of one x_i or of one y_i off by one, and the functional scaled by 2."""
    field = H.field
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    K = dual_hopf(H)
    for alg, psi, xs, ys in (
        (H.alg, sys.psi, sys.xs, sys.ys),
        (K.alg, data.norm, *_dual_bases_from_coproduct(K, data.psi)),
    ):
        yield alg, psi, xs, ys
        for i in (0, len(xs) // 2, len(xs) - 1):
            for j in (0, alg.dim // 2, alg.dim - 1):
                x = list(xs[i])
                x[j] = field.normalize(x[j] + 1)
                yield alg, psi, (*xs[:i], tuple(x), *xs[i + 1 :]), ys
                y = list(ys[i])
                y[j] = field.normalize(y[j] + 1)
                yield alg, psi, xs, (*ys[:i], tuple(y), *ys[i + 1 :])
        yield alg, tuple(field.normalize(2 * c) for c in psi), xs, ys


@pytest.mark.parametrize("key", [*ALL_KEYS, "D(taft-3-7-2)"])
def test_dual_basis_matrix_identities_match_the_loop(key):
    """G T = 1 = T G reports what the per-basis-vector loop reports, on valid
    and corrupted systems, and both identities are seen to fail."""
    H = double_of("taft-3-7-2") if key.startswith("D(") else entry(key).hopf
    failures = set()
    for alg, psi, xs, ys in _dual_basis_cases(H):
        want = _dual_basis_identities_loop(alg, psi, xs, ys)
        assert dual_basis_identities_hold(pairing_matrix(alg, psi), xs, ys) == want
        failures.add(want[1].split(" at ")[0])
    assert failures == {"", "sum psi(a x_i) y_i != a", "sum x_i psi(y_i a) != a"}


def test_dual_basis_identities_form_t_g_only_on_failure(monkeypatch):
    """G is square, so G T = 1 makes T its two-sided inverse: a valid system
    takes the one product G T, a failing one also T G, to name the failure."""
    products = []
    mul = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda a, b: products.append(1) or mul(a, b))
    verdicts = set()
    for alg, psi, xs, ys in _dual_basis_cases(entry("taft-3-7-2").hopf):
        gram = pairing_matrix(alg, psi)
        products.clear()
        ok, _ = dual_basis_identities_hold(gram, xs, ys)
        assert len(products) == (1 if ok else 2)
        verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("key", ALL_KEYS)
def test_system_scalars_frozen_to_one(key):
    H = entry(key).hopf
    sys = frobenius_system_from_norm(H, build_integral_data(H))
    assert sys.chi == H.field.one()
    assert sys.gamma == H.field.one()
    assert len(sys.xs) == len(sys.ys)


# -- Nakayama automorphism -----------------------------------------------------------


@pytest.mark.parametrize("key", ALL_KEYS)
def test_nakayama_closed_form_matches_solved(key):
    H = entry(key).hopf
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    assert nakayama_closed_form(H, data) == sys.nakayama


@pytest.mark.parametrize("key", ALL_KEYS)
def test_nakayama_sends_left_integrals_to_right_integrals(key):
    H = entry(key).hopf
    field = H.field
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    w = sys.nakayama.apply(data.norm)
    assert any(c != field.zero() for c in w)
    for j in range(H.dim):
        prod = H.alg.multiply(w, H.alg.basis_vector(j))
        assert prod == tuple(field.normalize(H.counit[j] * c) for c in w)
    (r,) = right_integral_space(H)
    pivot = next(t for t, c in enumerate(r) if c != field.zero())
    scale = field.normalize(w[pivot] * field.inv(r[pivot]))
    assert scale != field.zero()
    assert w == tuple(field.normalize(scale * c) for c in r)
    # scalar action on the left integrals themselves iff unimodular
    unimodular = data.modular_fn == H.counit
    assert (left_integral_space(H) == right_integral_space(H)) == unimodular
    if unimodular:
        pivot = next(t for t, c in enumerate(data.norm) if c != field.zero())
        c = field.normalize(w[pivot] * field.inv(data.norm[pivot]))
        assert c != field.zero()
        assert w == tuple(field.normalize(c * v) for v in data.norm)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_orders_divide_dimension_bounds(key):
    H = entry(key).hopf
    data = build_integral_data(H)
    o = orders(H, frobenius_system_from_norm(H, data).nakayama)
    assert o.antipode_order is not None and o.antipode_divides
    assert o.nakayama_order is not None and o.nakayama_divides
    assert o.antipode_sq_order is not None
    assert (4 * H.dim) % o.antipode_order == 0
    assert (2 * H.dim) % o.nakayama_order == 0


@settings(max_examples=25, deadline=None)
@given(
    a=st.tuples(*[st.integers(0, 6)] * 9),
    x=st.tuples(*[st.integers(0, 6)] * 9),
)
def test_nakayama_swaps_functional_arguments(a, x):
    H = entry("taft-3-7-2").hopf
    field = H.field
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    av = tuple(field.normalize(c) for c in a)
    xv = tuple(field.normalize(c) for c in x)
    lhs = eval_cov(field, sys.psi, H.alg.multiply(xv, av))
    rhs = eval_cov(field, sys.psi, H.alg.multiply(sys.nakayama.apply(av), xv))
    assert lhs == rhs


# -- rescaling the functional --------------------------------------------------------


@pytest.mark.parametrize("key", ALL_KEYS)
def test_rescaled_functional_same_modular_data(key):
    H = entry(key).hopf
    field = H.field
    base = build_integral_data(H)
    rng = random.Random(zlib.crc32(key.encode()))
    for _ in range(3):
        c = _rand_nonzero(field, rng)
        scaled = build_integral_data(
            H, tuple(field.normalize(c * v) for v in base.psi)
        )
        cinv = field.inv(c)
        assert scaled.norm == tuple(field.normalize(cinv * v) for v in base.norm)
        assert scaled.modular_fn == base.modular_fn
        assert scaled.modular_elt == base.modular_elt
        sys = frobenius_system_from_norm(H, scaled)
        assert sys.nakayama == frobenius_system_from_norm(H, base).nakayama


def test_non_integral_functional_rejected():
    H = entry("sweedler").hopf
    with pytest.raises(InvalidInputError):
        build_integral_data(H, H.counit)
    with pytest.raises(InvalidInputError):
        build_integral_data(H, (Fraction(0),) * 4)


def test_degenerate_pairing_rejected():
    # x^2 = 0 with x formally group-like: the evaluation pairing against the
    # unique integral functional is degenerate, so no norm exists
    alg = StructureAlgebra.from_sparse(
        QQ, 2, {(0, 0): ((0, Fraction(1)),), (0, 1): ((1, Fraction(1),),),
                (1, 0): ((1, Fraction(1)),)},
        (Fraction(1), Fraction(0)), ("1", "x"))
    comul = {0: ((0, 0, Fraction(1)),), 1: ((1, 1, Fraction(1)),)}
    fake = HopfAlgebra(alg, comul, (Fraction(1), Fraction(1)), Matrix.identity(QQ, 2))
    with pytest.raises(InvalidInputError, match="not Frobenius"):
        build_integral_data(fake, (Fraction(1), Fraction(0)))


# -- comparison and the antipode transform -------------------------------------------


@pytest.mark.parametrize("key", ALL_KEYS)
def test_translate_then_compare_recovers_element(key):
    H = entry(key).hopf
    field = H.field
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    rng = random.Random(zlib.crc32(key.encode()) ^ 1)
    found = 0
    while found < 2:
        d = tuple(_rand_scalar(field, rng) for _ in range(H.dim))
        try:
            moved = translate_system(H, sys, d)
        except InvalidInputError:
            continue
        found += 1
        cmp = compare_systems(H, sys, moved)
        assert cmp.report.passed
        assert cmp.derivative == tuple(field.normalize(c) for c in d)
        assert H.alg.multiply(cmp.derivative, cmp.derivative_inv) == H.unit


@pytest.mark.parametrize("key", ALL_KEYS)
def test_antipode_transform_derivative_is_modular_element(key):
    H = entry(key).hopf
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    moved = transform_by_antipode(H, sys)
    cmp = compare_systems(H, sys, moved)
    assert isinstance(cmp, ComparisonResult)
    assert cmp.report.passed
    assert cmp.derivative == data.modular_elt


@pytest.mark.parametrize("key", ALL_KEYS)
def test_antipode_transform_nakayama_closed_form(key):
    H = entry(key).hopf
    field = H.field
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    moved = transform_by_antipode(H, sys)
    s2 = H.antipode.pow_(2)
    cols = [
        _act_by_definition(H, data.modular_fn, s2.col(j), "right") for j in range(H.dim)
    ]
    assert moved.nakayama == Matrix.from_columns(field, cols)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_antipode_shift_check_passes(key):
    H = entry(key).hopf
    rep = antipode_shift_check(H, build_integral_data(H))
    assert rep.passed, str(rep)


def test_incomparable_systems_rejected():
    H = entry("qc2").hopf
    data = build_integral_data(H)
    sys = frobenius_system_from_norm(H, data)
    broken = dataclasses.replace(sys, psi=(Fraction(0), Fraction(0)))
    with pytest.raises(InvalidInputError, match="not comparable"):
        compare_systems(H, sys, broken)


# -- the modular pair and the fourth antipode power ----------------------------------


@pytest.mark.parametrize("key", ALL_KEYS)
def test_modular_function_convolution_inverse(key):
    H = entry(key).hopf
    field = H.field
    data = build_integral_data(H)
    m = data.modular_fn
    m_inv = modular_inverse(H, m)
    assert convolution(H, m, m_inv) == H.counit
    assert convolution(H, m_inv, m) == H.counit
    # composing with the square of the antipode fixes the character
    assert H.antipode.pow_(2).transpose().apply(m) == m


@pytest.mark.parametrize("key", ALL_KEYS)
def test_modular_element_fixed_by_antipode_square(key):
    H = entry(key).hopf
    data = build_integral_data(H)
    b = data.modular_elt
    assert H.antipode.pow_(2).apply(b) == b
    assert H.alg.multiply(b, H.antipode.apply(b)) == H.unit


@pytest.mark.parametrize("key", ALL_KEYS)
def test_radford_identity(key):
    H = entry(key).hopf
    rep = verify_radford(H, build_integral_data(H))
    assert rep.passed, str(rep)
    assert len(rep.items) == H.dim


@pytest.mark.parametrize("key", ALL_KEYS)
def test_dual_frobenius_structure(key):
    H = entry(key).hopf
    rep = dual_frobenius_check(H, build_integral_data(H))
    assert rep.passed, str(rep)
    titles = [it.name for it in rep.items]
    assert "modular function of the dual equals b" in titles


_WITH_DOUBLES = [*ALL_KEYS, "D(qs3)", "D(taft-3-7-2)"]


@pytest.mark.parametrize("key", _WITH_DOUBLES)
def test_dual_integral_data_from_the_left_integral_of_h(key):
    """The left integrals of H* are those of (H*)* = H, so the canonical left
    integral of H gives H* the integral data that it finds from scratch,
    Gram matrix included; the norm N of H, which dual_frobenius_check
    supplies, is a multiple of it and gives the same modular data."""
    H = _layer_object(key)
    K = dual_hopf(H)
    (T,) = left_integral_space(H)
    supplied, scratch = build_integral_data(K, T), build_integral_data(K)
    assert supplied == scratch
    assert supplied.gram == scratch.gram == pairing_matrix(K.alg, T)
    norm = build_integral_data(H).norm
    from_norm = build_integral_data(K, norm)
    assert (from_norm.modular_fn, from_norm.modular_elt) == (scratch.modular_fn, scratch.modular_elt)
    assert from_norm.gram == pairing_matrix(K.alg, norm)


def _orders_by_search(H, nu):
    """Reference for orders: S, S^2 and nu each searched up to its bound."""
    cap_s, cap_nu = 4 * H.dim, 2 * H.dim
    ord_s = matrix_order(H.antipode, cap_s)
    ord_nu = matrix_order(nu, cap_nu)
    return OrderData(
        ord_s,
        ord_nu,
        matrix_order(H.antipode.pow_(2), cap_s),
        ord_s is not None and cap_s % ord_s == 0,
        ord_nu is not None and cap_nu % ord_nu == 0,
    )


@pytest.mark.parametrize("key", _WITH_DOUBLES)
def test_orders_match_the_three_searches(key):
    H = _layer_object(key)
    nu = frobenius_system_from_norm(H, build_integral_data(H)).nakayama
    assert orders(H, nu) == _orders_by_search(H, nu)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_orders_of_an_antipode_beyond_its_bound(s):
    """On 1 x 1 matrices standing in for S: 2, 3 and 4 have orders 8, 16
    and 4 mod 17, so with dim 1 (bound 4) the order of S is found only for
    4, and S^2 (of order 2) reads it off; for 2 and 3 the search over S^2
    finds order 4 and gives up on order 8."""
    F = GF(17)
    eye = Matrix.identity(F, 1)
    stand_in = SimpleNamespace(dim=1, antipode=Matrix.from_rows(F, [[s]]))
    assert orders(stand_in, eye) == _orders_by_search(stand_in, eye)
    assert orders(stand_in, eye).antipode_sq_order == {2: 4, 3: None, 4: 2}[s]


# -- the integral layer against its definitions ---------------------------------------


def _act_by_definition(H, f, a, side):
    """Reference for one column of hit_matrix: f ⇀ a = sum a_(1) f(a_(2))
    (side "left") or a ↼ f = sum f(a_(1)) a_(2), one comul walk per
    nonzero coordinate of a."""
    field = H.field
    out = [field.zero()] * H.dim
    for i, ai in enumerate(a):
        if ai == field.zero():
            continue
        for j, k, c in H.comul.get(i, ()):
            if side == "left":
                out[j] = out[j] + ai * c * f[k]
            else:
                out[k] = out[k] + ai * c * f[j]
    return tuple(field.normalize(x) for x in out)


def _hit_by_definition(H, f, side):
    basis = (H.alg.basis_vector(i) for i in range(H.dim))
    return Matrix.from_columns(H.field, (_act_by_definition(H, f, e, side) for e in basis))


def _mult_by_definition(alg, a, side):
    """Reference for left_mult_matrix / right_mult_matrix: one algebra
    product per basis vector."""
    basis = [alg.basis_vector(j) for j in range(alg.dim)]
    cols = [alg.multiply(a, e) if side == "left" else alg.multiply(e, a) for e in basis]
    return Matrix.from_columns(alg.field, cols)


def _multiple_by_definition(field, w, v):
    """The c with w = c v, or None."""
    pivot = next(t for t, x in enumerate(v) if x != field.zero())
    c = field.normalize(w[pivot] * field.inv(v[pivot]))
    return c if tuple(w) == tuple(field.normalize(c * x) for x in v) else None


def _modular_pair_by_definition(H, psi, norm):
    """(m, b) from N e_j = m(e_j) N, one algebra product each, and from
    psi * e^i = e^i(b) psi, one convolution each."""
    field = H.field
    m = tuple(
        _multiple_by_definition(field, H.alg.multiply(norm, H.alg.basis_vector(j)), norm)
        for j in range(H.dim)
    )
    b = tuple(
        _multiple_by_definition(field, convolution(H, psi, basis_vec(field, H.dim, i)), psi)
        for i in range(H.dim)
    )
    return m, b


def _is_augmentation_by_definition(alg, eps):
    """Reference for is_augmentation: eps(1) = 1 and eps(e_i e_j) =
    eps(e_i) eps(e_j) on all dim^2 basis pairs."""
    field = alg.field
    if eval_cov(field, eps, alg.unit) != field.one():
        return False
    return all(
        eval_cov(field, eps, alg.multiply(alg.basis_vector(i), alg.basis_vector(j)))
        == field.normalize(eps[i] * eps[j])
        for i in range(alg.dim)
        for j in range(alg.dim)
    )


def _is_grouplike_by_definition(H, v):
    """Reference for is_grouplike: eps(v) = 1 and Delta(v) has coefficient
    v_j v_k at every e_j (x) e_k."""
    field = H.field
    want = {
        (j, k): field.normalize(vj * vk)
        for j, vj in enumerate(v)
        for k, vk in enumerate(v)
        if field.normalize(vj * vk) != field.zero()
    }
    return H.counit_of(v) == field.one() and H.delta_vec(v) == want


def _radford_by_definition(H, data):
    """Reference for verify_radford: b^{-1} (m ⇀ a ↼ m^{-1}) b per basis
    vector, two comul walks and two algebra products each."""
    rep = Report("fourth antipode power as modular conjugation")
    s4 = H.antipode.pow_(4)
    m = data.modular_fn
    m_inv = modular_inverse(H, m)
    b = data.modular_elt
    try:
        b_inv = _mult_by_definition(H.alg, b, "left").inverse().apply(H.unit)
    except SingularError:
        rep.add("b invertible", False)
        return rep
    for i in range(H.dim):
        a = H.alg.basis_vector(i)
        mid = _act_by_definition(H, m_inv, _act_by_definition(H, m, a, "left"), "right")
        rhs = H.alg.multiply(b_inv, H.alg.multiply(mid, b))
        ok = s4.col(i) == rhs
        rep.add(f"basis {H.basis_names[i]}", ok, "" if ok else "S^4 disagrees with the conjugated action")
    return rep


# every catalog entry, its dual, and every catalog double up to dim 81
_LAYER_OBJECTS = (
    *ALL_KEYS,
    *(f"{key}*" for key in ALL_KEYS),
    *(f"D({key})" for key in ALL_KEYS if entry(key).hopf.dim <= 9),
)


def _layer_object(name):
    if name.startswith("D("):
        return double_of(name[2:-1])
    if name.endswith("*"):
        return dual_hopf(entry(name[:-1]).hopf)
    return entry(name).hopf


@pytest.mark.parametrize("engine", ["int64", "generic"])
@pytest.mark.parametrize("name", _LAYER_OBJECTS)
def test_integral_layer_matches_the_definitions(name, engine, generic_engine):
    """The hit matrices, the multiplication matrices, m and b,
    is_augmentation, is_grouplike and verify_radford equal their
    by-definition references, and a supplied functional that is not an
    integral is refused."""
    if engine == "generic":
        generic_engine()
    H = _layer_object(name)
    field = H.field
    data = build_integral_data(H)
    assert (data.modular_fn, data.modular_elt) == _modular_pair_by_definition(
        H, data.psi, data.norm
    )
    for f in (H.counit, data.psi, data.modular_fn):
        for side in ("left", "right"):
            assert hit_matrix(H, f, side) == _hit_by_definition(H, f, side)
    # row i of the right hit matrix of psi is psi * e^i
    convolutions = (convolution(H, data.psi, basis_vec(field, H.dim, i)) for i in range(H.dim))
    assert hit_matrix(H, data.psi, "right").rows == tuple(convolutions)
    for a in (data.norm, data.modular_elt, data.psi):
        assert H.alg.left_mult_matrix(a) == _mult_by_definition(H.alg, a, "left")
        assert H.alg.right_mult_matrix(a) == _mult_by_definition(H.alg, a, "right")
    for f in (H.counit, data.modular_fn, data.psi, H.unit):
        assert is_augmentation(H.alg, f) == _is_augmentation_by_definition(H.alg, f)
    for v in (data.modular_elt, data.norm, H.unit, data.psi):
        assert is_grouplike(H, v) == _is_grouplike_by_definition(H, v)
    assert verify_radford(H, data).items == _radford_by_definition(H, data).items
    with pytest.raises(InvalidInputError, match="not a left integral"):
        build_integral_data(H, H.counit)


@pytest.mark.parametrize("engine", ["int64", "generic"])
@pytest.mark.parametrize("name", _LAYER_OBJECTS)
def test_integral_data_keeps_the_inverse_of_its_gram_matrix(name, engine, generic_engine):
    """gram_inv is the inverse of gram, G G^-1 = 1 = G^-1 G, and the norm is
    G^-1 eps."""
    if engine == "generic":
        generic_engine()
    H = _layer_object(name)
    data = build_integral_data(H)
    assert data.gram.mul(data.gram_inv).is_identity()
    assert data.gram_inv.mul(data.gram).is_identity()
    assert data.gram.apply(data.norm) == H.counit


def test_radford_with_a_wrong_modular_function_fails_as_the_reference():
    """On taft-3-7-2 m is not the counit, so data carrying the counit as m
    fails Radford's formula, at the same items as the per-basis loop."""
    H = entry("taft-3-7-2").hopf
    good = build_integral_data(H)
    assert good.modular_fn != H.counit
    bad = dataclasses.replace(good, modular_fn=H.counit)
    rep = verify_radford(H, bad)
    assert not rep.passed
    assert rep.items == _radford_by_definition(H, bad).items
