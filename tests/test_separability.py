"""Separability criterion, certificates, Kanzaki elements, and the
involutivity consequence, cross-checked against exhaustive linear solves."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrob.catalog import entry, names
from hopfrob.frobenius import build_integral_data, frobenius_system_from_norm
from hopfrob.hopfcore import eval_cov
from hopfrob.separability import (
    SeparabilityCertificate,
    check_kanzaki_certificate,
    check_ordinary_certificate,
    etingof_gelaki_check,
    idempotent_exists_by_solve,
    is_separable_hopf,
    is_unit,
    separability_from_system,
    strong_separability,
)

ALL_KEYS = names()


def _data_and_system(key):
    H = entry(key).hopf
    data = build_integral_data(H)
    return H, data, frobenius_system_from_norm(H, data)


def _dense_tensor(field, dim, t):
    out = [[field.zero()] * dim for _ in range(dim)]
    for (i, j), c in t.items():
        out[i][j] = c
    return out


def _certificate_checked_by_hand(H, e):
    """Independent dense verification of the ordinary invariants."""
    field = H.field
    dim = H.dim
    mu = [field.zero()] * dim
    for (i, j), c in e.items():
        prod = H.alg.multiply(H.alg.basis_vector(i), H.alg.basis_vector(j))
        mu = [p + c * q for p, q in zip(mu, prod)]
    if tuple(field.normalize(v) for v in mu) != H.unit:
        return False
    for a in range(dim):
        av = H.alg.basis_vector(a)
        left = [[field.zero()] * dim for _ in range(dim)]
        right = [[field.zero()] * dim for _ in range(dim)]
        for (i, j), c in e.items():
            for k, ck in enumerate(H.alg.multiply(av, H.alg.basis_vector(i))):
                if ck != field.zero():
                    left[k][j] = left[k][j] + c * ck
            for k, ck in enumerate(H.alg.multiply(H.alg.basis_vector(j), av)):
                if ck != field.zero():
                    right[i][k] = right[i][k] + c * ck
        norm = lambda m: [[field.normalize(v) for v in row] for row in m]
        if norm(left) != norm(right):
            return False
    return True


@pytest.mark.parametrize("key", ALL_KEYS)
def test_criterion_matches_catalog_expectation(key):
    H, data, sys = _data_and_system(key)
    sep, cert = is_separable_hopf(H, data, sys)
    assert sep == entry(key).expected["separable"]
    if sep:
        assert isinstance(cert, SeparabilityCertificate)
        assert cert.kind == "ordinary"
        assert _certificate_checked_by_hand(H, cert.element)
    else:
        assert cert is None


@pytest.mark.parametrize("key", ALL_KEYS)
def test_criterion_agrees_with_linear_solve_where_bounded(key):
    H, data, sys = _data_and_system(key)
    assert idempotent_exists_by_solve(H.alg) == is_separable_hopf(H, data, sys)[0]


@pytest.mark.parametrize(
    "key,order",
    [("qc2", 2), ("qc3", 3), ("f2c2", 2), ("f3c3", 3), ("f5c5", 5), ("f7c3", 3), ("qs3", 6)],
)
def test_group_algebra_counit_of_norm_is_group_order(key, order):
    H, data, _ = _data_and_system(key)
    field = H.field
    eps_n = eval_cov(field, H.counit, data.norm)
    assert eps_n == field.normalize(field.parse(str(order)))
    assert is_unit(field, eps_n) == entry(key).expected["separable"]


def test_qc3_certificate_is_averaged_group_pairs():
    H, data, sys = _data_and_system("qc3")
    _, cert = is_separable_hopf(H, data, sys)
    third = Fraction(1, 3)
    assert cert.element == {(0, 0): third, (1, 2): third, (2, 1): third}


def test_from_system_scalar_witnesses():
    H, data, sys = _data_and_system("qc2")
    good = separability_from_system(H.alg, sys, (Fraction(1, 2), Fraction(0)))
    assert good is not None and check_ordinary_certificate(H.alg, good.element)[0]
    assert separability_from_system(H.alg, sys, (Fraction(1), Fraction(0))) is None

    H3, data3, sys3 = _data_and_system("qc3")
    zero = Fraction(0)
    assert separability_from_system(H3.alg, sys3, (Fraction(1, 3), zero, zero)) is not None


def test_from_system_exhaustive_failure_in_characteristic_two():
    H, data, sys = _data_and_system("f2c2")
    for d in product(range(2), repeat=2):
        assert separability_from_system(H.alg, sys, d) is None


def test_strong_separability_symmetric_group():
    H, data, sys = _data_and_system("qs3")
    field = H.field
    u = [field.zero()] * H.dim
    for x, y in zip(sys.xs, sys.ys):
        u = [p + q for p, q in zip(u, H.alg.multiply(y, x))]
    six = field.parse("6")
    assert tuple(field.normalize(c) for c in u) == tuple(
        field.normalize(six * v) for v in H.unit
    )
    cert = strong_separability(H, data, sys)
    assert cert is not None and cert.kind == "kanzaki"
    ok, _ = check_kanzaki_certificate(H.alg, cert.element)
    assert ok
    # the transpose is an ordinary separability idempotent
    transpose = {(j, i): c for (i, j), c in cert.element.items()}
    ok, _ = check_ordinary_certificate(H.alg, transpose)
    assert ok


def test_strong_separability_nilpotent_trace_element():
    H, data, sys = _data_and_system("sweedler")
    field = H.field
    u = [field.zero()] * H.dim
    for x, y in zip(sys.xs, sys.ys):
        u = [p + q for p, q in zip(u, H.alg.multiply(y, x))]
    u = tuple(field.normalize(c) for c in u)
    assert u == (0, 0, 0, Fraction(4))  # 4 gx, square zero
    assert H.alg.multiply(u, u) == (0, 0, 0, 0)
    assert strong_separability(H, data, sys) is None


@pytest.mark.parametrize("key", ["f2c2", "f3c3", "f5c5", "taft-3-7-2", "taft-4-5-2"])
def test_strong_separability_absent(key):
    H, data, sys = _data_and_system(key)
    assert strong_separability(H, data, sys) is None


@pytest.mark.parametrize("key", ALL_KEYS)
def test_separable_implies_trivial_modular_pair(key):
    H, data, sys = _data_and_system(key)
    if is_separable_hopf(H, data, sys)[0]:
        assert data.modular_fn == H.counit
        assert data.modular_elt == H.unit


@pytest.mark.parametrize("key", ALL_KEYS)
def test_involutivity_report(key):
    H, data, sys_ = _data_and_system(key)
    rep = etingof_gelaki_check(H, data, is_separable_hopf(H, data, sys_)[0])
    assert rep.passed, str(rep)
    titles = {it.name: it for it in rep.items}
    if entry(key).expected["separable"]:
        assert "antipode is an involution" in titles
    else:
        assert titles["involution check"].detail == "hypotheses not met"


def test_involutivity_characteristic_two_flagged():
    H, data, sys_ = _data_and_system("f2c2")
    rep = etingof_gelaki_check(H, data, is_separable_hopf(H, data, sys_)[0])
    assert any(it.name == "characteristic 2 flagged" for it in rep.items)


@settings(max_examples=20, deadline=None)
@given(a=st.tuples(*[st.integers(0, 6)] * 3))
def test_certificate_centrality_extends_linearly(a):
    H, data, sys = _data_and_system("f7c3")
    field = H.field
    _, cert = is_separable_hopf(H, data, sys)
    av = tuple(field.normalize(c) for c in a)
    left = {}
    right = {}
    for (i, j), c in cert.element.items():
        for k, ck in enumerate(H.alg.multiply(av, H.alg.basis_vector(i))):
            if ck != field.zero():
                left[(k, j)] = field.normalize(left.get((k, j), field.zero()) + c * ck)
        for k, ck in enumerate(H.alg.multiply(H.alg.basis_vector(j), av)):
            if ck != field.zero():
                right[(i, k)] = field.normalize(
                    right.get((i, k), field.zero()) + c * ck
                )
    clean = lambda t: {k: v for k, v in t.items() if v != field.zero()}
    assert clean(left) == clean(right)
