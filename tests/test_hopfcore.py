import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import count_calls, double_of, engine_primes_of, taft_over
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cover_corpus import _moved, _sampled

from hopfrob import GF, QQ, InvalidInputError, algebra, hopfcore, hopffile, linalg
from hopfrob.algebra import StructureAlgebra, multiplicative_failure, product_cover
from hopfrob.catalog import cyclic_table, entry, group_algebra, names
from hopfrob.double import double_fh_check, drinfeld_double
from hopfrob.frobenius import build_integral_data, frobenius_system_from_norm
from hopfrob.hopfcore import (
    HopfAlgebra,
    convolution,
    dual_hopf,
    dual_left_integral_space,
    eval_cov,
    hit_matrix,
    hopf_module_decompose,
    integral_operator,
    integral_space,
    hopf_map_report,
    is_grouplike,
    left_integral_space,
    pairing_matrix,
    tensor_mult,
    verify_hopf,
)
from hopfrob.hopffile import emit_hopf_text, parse_hopf_text
from hopfrob.linalg import Matrix, annihilates, basis_vec

ALL_KEYS = (
    "qc2",
    "qc3",
    "f2c2",
    "f3c3",
    "f5c5",
    "f7c3",
    "qs3",
    "sweedler",
    "taft-3-7-2",
    "taft-4-5-2",
)


def H_(key):
    return entry(key).hopf


# -- verify_hopf ----------------------------------------------------------------


def test_sweedler_passes():
    assert verify_hopf(H_("sweedler")).passed


def test_group_algebra_with_cube_antipode_passes():
    H = group_algebra(cyclic_table(3), QQ, ("1", "g", "g2"))
    assert verify_hopf(H).passed
    # S(g) = g^2 is exactly the inversion permutation
    assert H.antipode.col(1) == basis_vec(QQ, 3, 2)


def test_flipped_antipode_sign_fails_at_x():
    H = H_("sweedler")
    flipped = Matrix.from_rows(
        QQ,
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],  # S(x) = +gx instead of -gx
        ],
    )
    bad = HopfAlgebra.from_sparse(H.alg, dict(H.comul), H.counit, flipped)
    rep = verify_hopf(bad)
    assert not rep.passed
    item = next(it for it in rep.items if it.name == "antipode law")
    assert not item.ok
    assert "basis 2" in item.detail


def test_all_entries_and_duals_pass():
    for key in ALL_KEYS:
        H = H_(key)
        assert verify_hopf(H).passed, key
        assert verify_hopf(dual_hopf(H)).passed, key


# -- dual Hopf algebra -----------------------------------------------------------


def test_dual_qc2_orthogonal_idempotents():
    # convolution on (QC2)* is pointwise, so the dual basis vectors are the
    # two orthogonal idempotents; 1/2(1 +- g) are their preimages in QC2
    D = dual_hopf(H_("qc2"))
    d1, dg = D.alg.basis_vector(0), D.alg.basis_vector(1)
    assert D.alg.multiply(d1, d1) == d1
    assert D.alg.multiply(dg, dg) == dg
    assert D.alg.multiply(d1, dg) == (Fraction(0), Fraction(0))
    assert tuple(a + b for a, b in zip(d1, dg)) == D.unit
    # the corresponding primal idempotents under the 1/2(1 +- g) basis change
    H = H_("qc2")
    half = Fraction(1, 2)
    for p in ((half, half), (half, -half)):
        assert H.alg.multiply(p, p) == p


def test_double_dual_is_identity():
    for key in ALL_KEYS:
        H = H_(key)
        assert dual_hopf(dual_hopf(H)) == H


def _dual_by_loops(H: HopfAlgebra) -> HopfAlgebra:
    """The reference for dual_hopf: H's comul and mul copied into dicts
    row by row and cleaned again by the from_sparse constructors, the
    inverse antipode the transpose of H's when H has one."""
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
    K = HopfAlgebra.from_sparse(
        alg, dual_comul, H.unit, H.antipode.transpose(), name=f"{H.name}*" if H.name else ""
    )
    if H._sbar is not None:
        K._sbar = H._sbar.transpose()
    return K


def _shuffled(text: str, seed: int) -> str:
    """text with the lines between its basis line and its end line in a
    seeded random order: mul and comul lines out of key order."""
    lines = text.splitlines()
    start = next(t for t, line in enumerate(lines) if line.startswith("basis ")) + 1
    body = lines[start:-1]
    random.Random(seed).shuffle(body)
    return "\n".join([*lines[:start], *body, lines[-1]]) + "\n"


# the group algebra of C3 over GF(7) by hand, its mul and comul lines out of
# key order and the three terms of each comul row of its dual met out of
# term order
HAND_FILE = """\
hopf-algebra v1
field prime 7
dim 3
mul 2 2 : 1 1
comul 2 : 2 2 1
mul 1 2 : 0 1
mul 0 2 : 2 1
comul 0 : 0 0 1
mul 2 0 : 2 1
mul 1 1 : 2 1
mul 2 1 : 0 1
mul 0 0 : 0 1
mul 1 0 : 1 1
mul 0 1 : 1 1
comul 1 : 1 1 1
unit : 0 1
counit : 0 1 1 1 2 1
antipode 0 : 0 1
antipode 2 : 1 1
antipode 1 : 2 1
end
"""

DUAL_OBJECTS = [
    *names(),
    *(f"D({key})" for key in names()),
    "taft(3, 2^31 - 1)",
    "taft(3, 2^31 + 11)",
    "array-read D(taft-3-7-2)",
    "hand file, line reader",
    "hand file, array reader",
    "shuffled taft-3-7-2, line reader",
    "shuffled taft-3-7-2, array reader",
]


def _dual_object(name: str, monkeypatch) -> HopfAlgebra:
    if name.startswith("taft(3, "):  # a prime near 2^31, below it or above it
        return taft_over(3, 2**31 - 1 if "- 1" in name else 2**31 + 11)
    if name == "array-read D(taft-3-7-2)":
        H = parse_hopf_text(emit_hopf_text(double_of("taft-3-7-2")))
        assert isinstance(H.alg.mul, algebra.TableView)
        return H
    if name.startswith(("hand", "shuffled")):
        arrays = name.endswith("array reader")
        monkeypatch.setattr(hopffile, "all_on_kernels", lambda field, dim: arrays)
        text = HAND_FILE if name.startswith("hand") else _shuffled(emit_hopf_text(H_("taft-3-7-2")), 5)
        H = parse_hopf_text(text)
        assert isinstance(H.alg.mul, algebra.TableView) == arrays
        assert list(H.alg.mul) != sorted(H.alg.mul) and list(H.comul) != sorted(H.comul)
        return H
    if name.startswith("D("):
        return double_of(name[2:-1])
    return H_(name)


def _assert_canonical(table) -> None:
    """Keys ascending, each row's terms in strictly ascending key order,
    every scalar nonzero, no empty row."""
    assert list(table) == sorted(table)
    for row in table.values():
        keys = [t[:-1] for t in row]
        assert row and keys == sorted(set(keys)) and all(t[-1] for t in row)


@pytest.mark.parametrize("name", DUAL_OBJECTS)
def test_dual_matches_the_dict_loop_reference(name, monkeypatch):
    """dual_hopf, H's table arrays relabelled, gives the dual that the dict
    loops and the from_sparse constructors build: on every catalog entry,
    the doubles up to D(taft-4-5-2), taft(3, p, q) at a prime below 2^31
    (the int64 engine) and above it (the generic engine on a prime field),
    the array-read D(taft-3-7-2), and files whose mul and comul lines come
    out of key order, read by either reader.  The same rows, canonical,
    unit, counit, antipode, inverse antipode (the transpose of H's, with no
    elimination), names and file bytes; the dual of the dual is H, and the
    dual that H keeps (H.dual) keeps H as its own."""
    H = _dual_object(name, monkeypatch)
    H.antipode_inv()
    want = _dual_by_loops(H)
    got = dual_hopf(H)
    assert isinstance(got.alg.mul, algebra.TableView) and isinstance(got.comul, algebra.TableView)
    assert dict(got.alg.mul) == dict(want.alg.mul) and dict(got.comul) == dict(want.comul)
    _assert_canonical(got.alg.mul)
    _assert_canonical(got.comul)
    assert (got.unit, got.counit, got.antipode) == (want.unit, want.counit, want.antipode)
    assert (got.basis_names, got.name) == (want.basis_names, want.name)
    inverses = []
    inverse = linalg.Matrix.inverse
    monkeypatch.setattr(linalg.Matrix, "inverse", lambda M: inverses.append(1) or inverse(M))
    assert got.antipode_inv() == want._sbar and inverses == []
    assert emit_hopf_text(got) == emit_hopf_text(want)
    assert H.dual.dual is H and got.dual is H
    again = dual_hopf(got)
    assert dict(again.alg.mul) == dict(H.alg.mul) and dict(again.comul) == dict(H.comul)
    assert again == H


def test_dual_antipode_is_transpose():
    for key in ("qc3", "sweedler", "taft-3-7-2"):
        H = H_(key)
        assert dual_hopf(H).antipode == H.antipode.transpose()


def test_sweedler_selfdual_via_explicit_map():
    H = H_("sweedler")
    D = dual_hopf(H)
    eps = (1, 1, 0, 0)
    gamma = (1, -1, 0, 0)  # the nontrivial character
    xi = (0, 0, 1, -1)
    gamma_xi = convolution(H, gamma, xi)
    phi = Matrix.from_columns(QQ, [eps, gamma, xi, gamma_xi])
    assert phi.det() != 0
    assert hopf_map_report(H, D, phi, "hopf map").passed


def test_convolution_matches_dual_multiply():
    H = H_("taft-3-7-2")
    D = dual_hopf(H)
    F = H.field
    f = tuple(range(9))
    g = tuple((3 * i + 1) % 7 for i in range(9))
    f = tuple(F.normalize(c) for c in f)
    g = tuple(F.normalize(c) for c in g)
    assert convolution(H, f, g) == D.alg.multiply(f, g)


def test_hopf_map_report_rejects_non_morphism():
    H = H_("qc2")
    not_phi = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    assert not hopf_map_report(H, H, not_phi, "hopf map").passed


# -- actions ---------------------------------------------------------------------


def test_counit_acts_as_identity():
    H = H_("sweedler")
    x = H.alg.basis_vector(2)
    assert hit_matrix(H, H.counit, "left").apply(x) == x
    assert hit_matrix(H, H.counit, "right").apply(x) == x


def test_modular_character_acts_on_sweedler_x():
    H = H_("sweedler")
    m = (1, -1, 0, 0)  # the character with m(g) = -1
    x = H.alg.basis_vector(2)
    assert hit_matrix(H, m, "left").apply(x) == x
    # m is its own convolution inverse here
    m_inv = tuple(eval_cov(QQ, m, H.antipode.col(j)) for j in range(4))
    assert m_inv == tuple(Fraction(c) for c in m)
    assert hit_matrix(H, m_inv, "right").apply(x) == tuple(-c for c in x)


def test_character_acts_by_scalar_on_grouplike():
    H = H_("qc3")
    chi = (1, 1, 1)  # trivial character
    g = H.alg.basis_vector(1)
    assert hit_matrix(H, chi, "left").apply(g) == g
    assert hit_matrix(H, chi, "right").apply(g) == g


def test_dual_actions_match_pointwise_definition():
    H = H_("sweedler")
    h = (Fraction(2), Fraction(1), Fraction(0), Fraction(3))
    f = (Fraction(1), Fraction(-1), Fraction(5), Fraction(0))
    # h ⇀ f and f ↼ h on H* are the transposes of R_h and L_h
    lf = H.alg.right_mult_matrix(h).transpose().apply(f)
    rf = H.alg.left_mult_matrix(h).transpose().apply(f)
    for y in range(4):
        ey = H.alg.basis_vector(y)
        assert lf[y] == eval_cov(QQ, f, H.alg.multiply(ey, h))
        assert rf[y] == eval_cov(QQ, f, H.alg.multiply(h, ey))


@given(
    st.tuples(*[st.integers(0, 6)] * 9),
    st.tuples(*[st.integers(0, 6)] * 9),
    st.tuples(*[st.integers(0, 6)] * 9),
)
@settings(max_examples=30, deadline=None)
def test_left_right_actions_commute(fv, av, gv):
    H = H_("taft-3-7-2")
    F = H.field
    f = tuple(F.normalize(c) for c in fv)
    a = tuple(F.normalize(c) for c in av)
    g = tuple(F.normalize(c) for c in gv)
    left, right = hit_matrix(H, f, "left"), hit_matrix(H, g, "right")
    assert left.apply(right.apply(a)) == right.apply(left.apply(a))


# -- group-likes -------------------------------------------------------------------


def test_grouplike_predicate():
    H = H_("sweedler")
    assert is_grouplike(H, H.unit)
    assert is_grouplike(H, H.alg.basis_vector(1))
    assert not is_grouplike(H, H.alg.basis_vector(2))
    assert not is_grouplike(H, tuple(2 * c for c in H.unit))


# -- integrals ----------------------------------------------------------------------


def test_sweedler_integral_spaces():
    H = H_("sweedler")
    assert left_integral_space(H) == ((0, 0, 1, 1),)  # (1+g)x
    assert dual_left_integral_space(H) == ((0, 0, 0, 1),)  # dual of gx


def test_group_algebra_integral_is_group_sum():
    H = H_("qs3")
    (t,) = left_integral_space(H)
    assert t == (1,) * 6


def test_integral_space_dimensions_are_one():
    for key in ALL_KEYS:
        H = H_(key)
        assert len(left_integral_space(H)) == 1, key
        assert len(dual_left_integral_space(H)) == 1, key


def test_dual_integral_matches_full_system_oracle():
    # oracle: materialize the whole dim^2 x dim system and take its kernel
    for key in ("qc3", "sweedler", "f5c5"):
        H = H_(key)
        F, n = H.field, H.dim
        rows = []
        for i in range(n):
            for k in range(n):
                row = [F.zero()] * n
                for u, v, c in H.comul.get(k, ()):
                    if u == i:
                        row[v] = row[v] + c
                row[k] = row[k] - H.unit[i]
                rows.append([F.normalize(x) for x in row])
        oracle = Matrix.from_rows(F, rows).kernel()
        assert dual_left_integral_space(H) == oracle


def test_integral_found_by_left_multiplication_property():
    for key in ("sweedler", "taft-3-7-2", "qs3"):
        H = H_(key)
        (t,) = left_integral_space(H)
        for i in range(H.dim):
            e = H.alg.basis_vector(i)
            expected = tuple(
                H.field.normalize(H.counit[i] * c) for c in t
            )
            assert H.alg.multiply(e, t) == expected


# -- Hopf module decomposition --------------------------------------------------------


def test_decompose_qc2():
    dec = hopf_module_decompose(H_("qc2"))
    assert dec.coinvariants == ((1, 0),)
    assert dec.iso_forward.mul(dec.iso_backward).is_identity()
    assert dec.iso_backward.mul(dec.iso_forward).is_identity()


def test_decompose_dimensions():
    for key in ("sweedler", "taft-3-7-2", "qs3", "f5c5"):
        dec = hopf_module_decompose(H_(key))
        assert len(dec.coinvariants) == 1, key


def test_decompose_alpha_matches_definition():
    H = H_("sweedler")
    dec = hopf_module_decompose(H)
    psi = dec.coinvariants[0]
    for j in range(H.dim):
        s_ej = H.antipode.col(j)
        expected_col = tuple(
            eval_cov(QQ, psi, H.alg.multiply(H.alg.basis_vector(i), s_ej))
            for i in range(H.dim)
        )
        assert dec.iso_backward.col(j) == expected_col


def test_pairing_matrix_entries():
    H = H_("qc2")
    psi = dual_left_integral_space(H)[0]
    G = pairing_matrix(H.alg, psi)
    for i in range(2):
        for k in range(2):
            prod = H.alg.multiply(H.alg.basis_vector(i), H.alg.basis_vector(k))
            assert G.rows[i][k] == eval_cov(QQ, psi, prod)


def test_decompose_rejects_degenerate_comultiplication():
    # zero comultiplication: the coinvariant system forces f = 0, so the
    # integral space has dimension 0 instead of 1
    H = H_("qc2")
    bad = HopfAlgebra.from_sparse(H.alg, {0: (), 1: ()}, H.counit, H.antipode)
    with pytest.raises(InvalidInputError):
        hopf_module_decompose(bad)


# -- inverse antipode -------------------------------------------------------------------


def test_inverse_antipode_flipped_law():
    for key in ALL_KEYS:
        H = H_(key)
        sbar = H.antipode_inv()
        F = H.field
        for i in range(H.dim):
            acc = [F.zero()] * H.dim
            for j, k, c in H.comul.get(i, ()):
                term = H.alg.multiply(sbar.col(k), H.alg.basis_vector(j))
                acc = [a + c * t for a, t in zip(acc, term)]
            expected = tuple(F.normalize(H.counit[i] * u) for u in H.unit)
            assert tuple(F.normalize(a) for a in acc) == expected, key


QUADRATIC_KERNELS = ((algebra, "_associativity_failure"), (hopfcore, "_delta_failure"))
QUADRATIC = tuple(name for _, name in QUADRATIC_KERNELS)
# the kernels and the loops of the quadratic axioms
QUADRATIC_CHECKS = (
    *QUADRATIC_KERNELS,
    (algebra, "_associativity_failure_loops"),
    (hopfcore, "_delta_failure_loops"),
)


def _rows_spy(monkeypatch) -> list:
    """(name, rows, result) of each later call of the quadratic kernels and
    loops, rows None for the whole basis."""
    calls = []
    for module, name in QUADRATIC_CHECKS:
        f = getattr(module, name)

        def spied(X, rows=None, *rest, f=f, name=name):
            out = f(X, rows, *rest)
            calls.append((name, None if rows is None else tuple(rows), out))
            return out

        monkeypatch.setattr(module, name, spied)
    return calls


def _whole_basis(monkeypatch):
    """Put the whole basis in place of the product cover, so that
    verify_hopf checks the quadratic axioms on the whole basis.  The cover
    is a cached property of each algebra, so it is replaced by a property
    of the class, which no cached value shadows."""
    monkeypatch.setattr(StructureAlgebra, "cover", property(lambda A: None))


def test_cover_checks_the_quadratic_axioms_on_every_field(monkeypatch):
    """With the kernels' crossover at 0, the quadratic axioms run on the
    generators of the product cover alone on every field: over QQ on the
    kernels mod its primes (D(sweedler)), over a prime above 2^31 on the loops
    (the group algebra of C5), over GF(7) on the kernels (D(f7c3))."""
    monkeypatch.setattr(algebra, "_SPARSE_DIM", 0)
    F = GF(2147483659)  # the least prime above 2^31
    cases = (
        (double_of("sweedler"), QUADRATIC),
        (group_algebra(cyclic_table(5), F), ("_associativity_failure_loops", "_delta_failure_loops")),
        (drinfeld_double(entry("f7c3").hopf), QUADRATIC),
    )
    calls = _rows_spy(monkeypatch)
    for K, ran in cases:
        cover, _ = product_cover(K.alg)
        assert len(cover) < K.dim
        calls.clear()
        rep = verify_hopf(K)
        assert rep.passed, str(rep)
        assert calls == [(name, cover, None) for name in ran]


def _corrupted(D, kind, shift=1):
    """D with one structure constant moved by shift (default one): the middle
    mul entry, the first comul term of the middle basis vector (40 in
    dimension 81), or the middle entry of the antipode matrix; or ("unit") D
    with its unit doubled."""
    F = D.field
    if kind == "mul":
        mul = dict(D.alg.mul)
        key = sorted(mul)[len(mul) // 2]
        (k, c), *rest = mul[key]
        mul[key] = ((k, F.normalize(c + shift)), *rest)
        alg = StructureAlgebra.from_sparse(F, D.dim, mul, D.alg.unit, D.alg.basis_names)
        return HopfAlgebra.from_sparse(alg, D.comul, D.counit, D.antipode)
    if kind == "unit":
        unit = tuple(F.normalize(2 * u) for u in D.alg.unit)
        alg = StructureAlgebra.from_sparse(F, D.dim, D.alg.mul, unit, D.alg.basis_names)
        return HopfAlgebra.from_sparse(alg, D.comul, D.counit, D.antipode)
    if kind == "antipode":
        rows = [list(r) for r in D.antipode.rows]
        mid = D.dim // 2
        rows[mid][mid] = F.normalize(rows[mid][mid] + shift)
        return HopfAlgebra.from_sparse(D.alg, D.comul, D.counit, Matrix.from_rows(F, rows))
    comul = dict(D.comul)
    mid = D.dim // 2
    (j, k, c), *rest = comul[mid]
    comul[mid] = ((j, k, F.normalize(c + shift)), *rest)
    return HopfAlgebra.from_sparse(D.alg, comul, D.counit, D.antipode)


@functools.lru_cache(maxsize=None)
def _double_over(p):
    """D(taft(3, p, q)): D(taft-3-7-2) at p = 7, a prime near 2^31 otherwise."""
    H = entry("taft-3-7-2").hopf if p == 7 else taft_over(3, p)
    return H, drinfeld_double(H)


@pytest.mark.parametrize("kind", ["mul", "comul"])
@pytest.mark.parametrize("p", [7, 2146560523])
def test_certified_verdict_fails_closed_on_corrupted_doubles(p, kind, monkeypatch):
    """A corrupted D(taft(3, p, q)) fails, its quadratic axioms checked on
    the generators of the product cover (the generation certificate read
    off its own table), with the items of the check on the whole basis.
    A failure on the generators is followed by the run on the basis, which
    names the first failing triple or pair; Delta runs on the generators
    only when associativity holds, as the cover decides it only then."""
    _, D = _double_over(p)
    D = _corrupted(D, kind)
    cover, _ = product_cover(D.alg)
    calls = _rows_spy(monkeypatch)
    items = _items(verify_hopf(D))
    _whole_basis(monkeypatch)
    first = len(calls)
    assert _items(verify_hopf(D)) == items
    assert calls[first:] and all(rows is None for _, rows, _ in calls[first:])
    assert not all(ok for _, ok, _ in items)
    assoc, delta = QUADRATIC
    ran = [(name, rows, bad is None) for name, rows, bad in calls[:3]]
    if kind == "mul":
        assert ran[:2] == [(assoc, cover, False), (assoc, None, False)]
        assert ran[2][:2] == (delta, None)
    else:
        assert ran == [(assoc, cover, True), (delta, cover, False), (delta, None, False)]


def test_certificate_must_cover_every_basis_vector():
    """The product cover reaches every basis vector: on D(taft-3-7-2) with
    every single-term product onto the last basis vector given a second
    term, that vector is no step, so it becomes a generator."""
    _, D = _double_over(7)
    last = D.dim - 1
    mul = {
        key: row + ((0, 1),) if row[0][0] == last and len(row) == 1 else row
        for key, row in D.alg.mul.items()
    }
    A = StructureAlgebra.from_sparse(D.field, D.dim, mul, D.alg.unit)
    gens, steps = product_cover(A)
    assert last in gens and last not in product_cover(D.alg)[0]
    assert sorted([*gens, *(k for k, _, _ in steps)]) == list(range(D.dim))


def test_zero_antipode_is_singular_without_elimination(monkeypatch):
    """An all-zero antipode fails "antipode invertible" before the n x 2n
    augmented matrix is built or eliminated."""
    F, n = GF(7), 300
    alg = StructureAlgebra.from_sparse(F, n, {}, basis_vec(F, n, 0))
    H = HopfAlgebra.from_sparse(alg, {}, basis_vec(F, n, 0), Matrix.zeros(F, n, n))
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *args: calls.append(1) or rref(*args))
    items = {it.name: (it.ok, it.detail) for it in verify_hopf(H).items}
    assert items["antipode invertible"] == (False, "antipode matrix is singular")
    assert calls == []


def _items(rep):
    return [(it.name, it.ok, it.detail) for it in rep.items]


@pytest.mark.parametrize("kind", [None, "mul", "comul", "unit", "antipode"])
@pytest.mark.parametrize("p", [7, 2146560523])
def test_sparse_and_generic_engines_report_the_same_items(p, kind, generic_engine):
    """The full check on D(taft(3, p, q)) gives the same items (name, verdict,
    detail with the first failing index) on the sparse int64 engine and on
    the Python loops, valid or corrupted, up to p near 2^31."""
    _, D = _double_over(p)
    if kind is not None:
        D = _corrupted(D, kind)
    assert linalg.engine_primes(D.field) == (p,)
    sparse = verify_hopf(D)
    generic_engine()
    assert linalg.engine_primes(D.field) == ()
    generic = verify_hopf(D)
    assert _items(sparse) == _items(generic)
    assert sparse.passed == (kind is None)


def _spy(monkeypatch, *functions):
    """The list that each later call of the (module, name) functions appends
    its name to."""
    calls = []
    for module, name in functions:
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    return calls


def _tables(H, p):
    """The residue arrays of H's mul and comul tables mod p, as verify_hopf
    passes them to its kernels."""
    return algebra.structure_arrays(H.alg, p), algebra.comul_arrays(H, p)


# D(taft-3-7-2) is the p = 7 case of the test above
SMALL_DOUBLES = [k for k in names() if entry(k).hopf.dim ** 2 <= 81 and k != "taft-3-7-2"]


@pytest.mark.parametrize("kind", [None, "mul", "comul", "unit", "antipode"])
@pytest.mark.parametrize("key", SMALL_DOUBLES)
def test_engines_agree_on_every_catalog_double_up_to_dim_81(
    key, kind, monkeypatch, generic_engine
):
    """With the dimension threshold at 0, the kernels (mod p, or over QQ mod
    enough primes) and the Python loops give the same items on every
    catalog double up to dimension 81, valid or corrupted; the quadratic
    kernels run on the default engine and only there."""
    monkeypatch.setattr(algebra, "_SPARSE_DIM", 0)
    D = double_of(key)
    if kind is not None:
        D = _corrupted(D, kind)
    assert linalg.engine_primes(D.field)
    calls = _spy(monkeypatch, *QUADRATIC_KERNELS)
    kernels = verify_hopf(D)
    assert set(calls) == {name for _, name in QUADRATIC_KERNELS}
    calls.clear()
    generic_engine()
    assert _items(kernels) == _items(verify_hopf(D))
    assert calls == []
    assert kernels.passed == (kind is None)


def _prime_cutoff(monkeypatch, count, most):
    """Give linalg.engine_primes the prime cutoff most (None: none; 0: no
    prime, so the loops run) for the identities whose sides sum count
    products, and first_failure's for the others."""
    primes = linalg.engine_primes
    monkeypatch.setattr(
        linalg,
        "engine_primes",
        lambda field, scale, degree, n, cutoff: primes(
            field, scale, degree, n, most if n == count else cutoff
        ),
    )


def _rescaled(H, scale):
    """H in the basis f_i = scale[i] e_i: an isomorphic Hopf algebra whose
    constants are c s_i s_j / s_k (mul), d s_i / (s_u s_v) (comul),
    S_ij s_j / s_i (antipode), u_k / s_k (unit) and eps_i s_i (counit)."""
    F, n = H.field, H.dim
    mul = {
        (i, j): [(k, c * scale[i] * scale[j] / scale[k]) for k, c in row]
        for (i, j), row in H.alg.mul.items()
    }
    comul = {
        i: [(u, v, d * scale[i] / (scale[u] * scale[v])) for u, v, d in terms]
        for i, terms in H.comul.items()
    }
    unit = [u / s for u, s in zip(H.unit, scale)]
    alg = StructureAlgebra.from_sparse(F, n, mul, unit, H.alg.basis_names)
    S = [[H.antipode.rows[i][j] * scale[j] / scale[i] for j in range(n)] for i in range(n)]
    counit = [e * s for e, s in zip(H.counit, scale)]
    return HopfAlgebra.from_sparse(alg, comul, counit, Matrix.from_rows(F, S))


@functools.lru_cache(maxsize=None)
def _rescaled_qs3():
    """D(qs3) in a basis rescaled by 36 seeded rationals of height above 2^40."""
    rng = random.Random(2001)
    D = double_of("qs3")
    scale = [Fraction(rng.randrange(2**40, 2**41), rng.randrange(2**40, 2**41)) for _ in range(D.dim)]
    return _rescaled(D, scale)


def _linear_constants(H):
    """Every constant the four axioms linear in Delta read: the mul, comul,
    counit, unit and antipode entries."""
    return [
        *algebra.table_constants(H.alg),
        *(c for terms in H.comul.values() for *_, c in terms),
        *H.counit,
        *H.unit,
        *(c for row in H.antipode.rows for c in row),
    ]


def test_crt_engine_agrees_with_the_loops_on_constants_of_large_height(
    monkeypatch, generic_engine
):
    """D(qs3) in a basis rescaled by rationals of height above 2^40: its
    constants are large, so the identities need several primes.  A constant
    moved by the first prime p1 is invisible mod p1 and one moved by 1/p1
    puts p1 in a denominator; on each copy the quadratic kernels, with the
    prime cutoff raised to dim^2, and the loops give the same items.  The
    linear axioms stay on their loops: their kernel at every prime of its
    bound is the next test's."""
    R = _rescaled_qs3()
    assoc = engine_primes_of(QQ, algebra.table_constants(R.alg), 2, R.dim)
    p1 = assoc[0]
    assert len(assoc) >= 2
    variants = {
        "rescaled": R,
        "mul + p1": _corrupted(R, "mul", p1),
        "comul + p1": _corrupted(R, "comul", p1),
        "mul + 1/p1": _corrupted(R, "mul", Fraction(1, p1)),
    }
    moved = algebra.table_constants(variants["mul + 1/p1"].alg)
    assert p1 not in engine_primes_of(QQ, moved, 2, R.dim)
    # the shift by p1 leaves every residue mod p1 as it was
    mul = variants["mul + p1"].alg
    assert algebra._associativity_failure(mul, None, p1, algebra.structure_arrays(mul, p1)) is None
    comul = variants["comul + p1"]
    assert hopfcore._delta_failure(comul, None, p1, *_tables(comul, p1)) is None
    monkeypatch.setattr(algebra, "_DIM2_PER_PRIME", 1)
    _prime_cutoff(monkeypatch, R.dim**3, 0)
    calls = _spy(monkeypatch, *QUADRATIC_KERNELS, (hopfcore, "_linear_failures"))
    kernels = {name: _items(verify_hopf(H)) for name, H in variants.items()}
    assert set(calls) == {name for _, name in QUADRATIC_KERNELS}
    generic_engine()
    loops = {name: _items(verify_hopf(H)) for name, H in variants.items()}
    assert kernels == loops
    assert [all(ok for _, ok, _ in items) for items in loops.values()] == [True, False, False, False]


def test_crt_bound_covers_every_constant_of_the_linear_axioms(monkeypatch, generic_engine):
    """The rescaled D(qs3) with one antipode or one counit entry moved by
    the first prime p1 of the linear axioms, which leaves every residue mod
    p1 as it was, and with one counit entry moved by 1/p1, which puts p1 in
    a denominator and so drops it from their primes.  With no prime cutoff
    for the linear axioms their kernel runs at every prime of the bound,
    and on each copy gives the items of the loops:
    FAIL, with "counit is multiplicative" failing mod some prime but not
    mod p1."""
    R = _rescaled_qs3()
    p1 = engine_primes_of(QQ, _linear_constants(R), 3, R.dim**3)[0]

    def counit_moved(shift):
        # basis 19 is outside the unit's support, so eps(1) stays 1
        counit = list(R.counit)
        counit[19] += shift
        return HopfAlgebra.from_sparse(R.alg, R.comul, counit, R.antipode)

    assert R.unit[19] == 0
    variants = {
        "antipode + p1": _corrupted(R, "antipode", p1),
        "counit + p1": counit_moved(p1),
        "counit + 1/p1": counit_moved(Fraction(1, p1)),
    }
    for name in ("antipode + p1", "counit + p1"):
        H = variants[name]
        assert hopfcore._linear_failures(H, p1, *_tables(H, p1)) == (None, None, True, None, True)
    primes = {
        name: engine_primes_of(QQ, _linear_constants(H), 3, H.dim**3)
        for name, H in variants.items()
    }
    assert primes["antipode + p1"][0] == primes["counit + p1"][0] == p1
    assert p1 not in primes["counit + 1/p1"]
    _prime_cutoff(monkeypatch, R.dim**3, None)
    ran = []
    linear = hopfcore._linear_failures
    monkeypatch.setattr(
        hopfcore, "_linear_failures", lambda H, p, *t: ran.append(p) or linear(H, p, *t)
    )
    kernels = {}
    for name, H in variants.items():
        kernels[name] = _items(verify_hopf(H))
        assert ran == list(primes[name])
        ran.clear()
    generic_engine()
    loops = {name: _items(verify_hopf(H)) for name, H in variants.items()}
    assert kernels == loops
    assert [all(ok for _, ok, _ in items) for items in loops.values()] == [False] * 3
    assert ("counit is multiplicative", False, "") in loops["counit + p1"]


def test_identities_beyond_the_prime_cutoff_run_the_loops(monkeypatch, generic_engine):
    """On the rescaled D(qs3) associativity, Delta multiplicative and the
    linear axioms each ask for more primes than the cutoff ceil(dim^2 /
    algebra._DIM2_PER_PRIME), so with the default cutoff each runs its
    Python loops once and no kernel, and verify_hopf gives the items of the
    generic engine."""
    R = _rescaled_qs3()
    n = R.dim
    table = list(algebra.table_constants(R.alg))
    comul = [c for terms in R.comul.values() for *_, c in terms]
    counts = [
        len(engine_primes_of(QQ, table, 2, n)),
        len(engine_primes_of(QQ, table + comul, 4, n**4 + n)),
        len(engine_primes_of(QQ, _linear_constants(R), 3, n**3)),
    ]
    assert min(counts) > math.ceil(n * n / algebra._DIM2_PER_PRIME)
    calls = _spy(
        monkeypatch,
        *QUADRATIC_KERNELS,
        (algebra, "_associativity_failure_loops"),
        (hopfcore, "_delta_failure_loops"),
        (hopfcore, "_linear_failures"),
        (hopfcore, "_linear_failures_loops"),
    )
    items = _items(verify_hopf(R))
    assert sorted(calls) == [
        "_associativity_failure_loops",
        "_delta_failure_loops",
        "_linear_failures_loops",
    ]
    generic_engine()
    assert _items(verify_hopf(R)) == items
    assert all(ok for _, ok, _ in items)


@pytest.mark.parametrize("kind", ["mul", "comul"])
def test_sparse_verdict_does_not_depend_on_the_block_size(kind, monkeypatch, smallest_blocks):
    """One-row blocks and one-term chunks give the items of the default
    blocks, on the check through the product cover and on the whole
    basis."""
    _, D = _double_over(7)
    D = _corrupted(D, kind)

    def both():
        with monkeypatch.context() as m:
            items = _items(verify_hopf(D))
            _whole_basis(m)
            return [items, _items(verify_hopf(D))]

    default = both()
    smallest_blocks()
    assert both() == default


@pytest.mark.parametrize("key, double", [("taft-3-7-2", False), ("f5c5", True)])
def test_smallest_sparse_blocks_pass_valid_hopf_algebras(
    key, double, monkeypatch, smallest_blocks, generic_engine
):
    """With the dimension threshold at 0 and blocks of one row or one term,
    the quadratic kernels pass taft-3-7-2 and D(f5c5) with the items of
    the loops."""
    D = drinfeld_double(entry(key).hopf) if double else entry(key).hopf
    monkeypatch.setattr(algebra, "_SPARSE_DIM", 0)
    smallest_blocks()
    calls = _spy(monkeypatch, *QUADRATIC_KERNELS)
    sparse = verify_hopf(D)
    assert set(calls) == {name for _, name in QUADRATIC_KERNELS}
    generic_engine()
    assert sparse.passed
    assert _items(sparse) == _items(verify_hopf(D))


def _nakayama_engines_agree(D, shift, smallest_blocks, generic_engine):
    """multiplicative_failure on the Nakayama matrix of D, and on that matrix
    with entry (1, 2) moved by shift, gives the same first failing pair on
    the default blocks, on one-row blocks and on the Python loops."""
    from hopfrob.frobenius import build_integral_data, frobenius_system_from_norm

    nu = frobenius_system_from_norm(D, build_integral_data(D)).nakayama
    rows = [list(r) for r in nu.rows]
    rows[1][2] = D.field.normalize(rows[1][2] + shift)
    moved = Matrix.from_rows(D.field, rows)
    assert D.dim > algebra._SPARSE_DIM and engine_primes_of(D.field, (), 3, D.dim**2)
    sparse = [multiplicative_failure(D.alg, D.alg, phi) for phi in (nu, moved)]
    smallest_blocks()
    assert [multiplicative_failure(D.alg, D.alg, phi) for phi in (nu, moved)] == sparse
    generic_engine()
    generic = [multiplicative_failure(D.alg, D.alg, phi) for phi in (nu, moved)]
    assert sparse[0] is None
    assert sparse[1] is not None
    assert sparse == generic


def test_engines_agree_on_the_d81_nakayama_automorphism(smallest_blocks, generic_engine):
    """D(taft-3-7-2) over GF(7), one entry off by one."""
    _nakayama_engines_agree(_double_over(7)[1], 1, smallest_blocks, generic_engine)


def test_engines_agree_on_the_d36_nakayama_automorphism_over_qq(
    smallest_blocks, generic_engine
):
    """D(qs3) over QQ, one entry off by 1/2: a residue that an int64 cast of
    the Fraction would truncate to 0."""
    _nakayama_engines_agree(double_of("qs3"), Fraction(1, 2), smallest_blocks, generic_engine)


# every GF(p) catalog entry, and every catalog double up to dimension 81 over GF(p)
MODP_KEYS = [k for k in names() if entry(k).hopf.field.characteristic]
MODP_OBJECTS = MODP_KEYS + [f"D({k})" for k in MODP_KEYS if entry(k).hopf.dim ** 2 <= 81]
SPACES = [(side, dual) for dual in (False, True) for side in ("left", "right")]
# the integral operators of a group algebra have no row with a single entry
# (the left and right ones of GF7[C16], the dual one of GF7[C16]*), so the
# peel leaves all 16 columns to the refinement
UNPEELED = ["GF7[C16]", "GF7[C16]*"]


def _object(name):
    if name in UNPEELED:
        G = group_algebra(cyclic_table(16), GF(7), name="GF7[C16]")
        return dual_hopf(G) if name.endswith("*") else G
    return double_of(name[2:-1]) if name.startswith("D(") else entry(name).hopf


def _unimodular_by_products(H):
    """The reference: the left integral T has T e_j = eps(e_j) T for every
    basis vector e_j, one algebra product each."""
    (T,) = left_integral_space(H)
    F = H.field
    return all(
        H.alg.multiply(T, H.alg.basis_vector(j)) == tuple(F.normalize(H.counit[j] * c) for c in T)
        for j in range(H.dim)
    )


def _integral_decisions(H):
    """The four integral spaces of H (in H and in H*, left and right), the
    dimensions and unimodularity that double_fh_check reads off them, and
    whether each of the four operators annihilates each vector of the
    spaces, the unit and e_0."""
    spaces = [integral_space(H, side, dual) for side, dual in SPACES]
    fh = double_fh_check(H)
    vectors = [v for space in spaces for v in space] + [H.unit, H.alg.basis_vector(0)]
    kills = [
        annihilates(H.field, integral_operator(H, side, dual), v)
        for side, dual in SPACES
        for v in vectors
    ]
    return spaces, (fh.dual_integral_dim, fh.integral_dim, fh.unimodular), kills


def _decisions_agree(H, smallest_blocks, generic_engine):
    """The integral decisions of H on the int64 operators, the same with
    one-row blocks, and on the Python-scalar engine are equal.  Both
    engines build each operator in the one entry form, their values int64
    residues or an object array of Python scalars."""
    assert linalg.machine_prime(H.field) is not None
    int64 = _integral_decisions(H)
    assert all(integral_operator(H, side, dual)[2].dtype == np.int64 for side, dual in SPACES)
    smallest_blocks()
    assert _integral_decisions(H) == int64
    generic_engine()
    assert integral_operator(H, "left")[2].dtype == object
    assert _integral_decisions(H) == int64


@pytest.mark.parametrize("kind", [None, "mul", "comul", "unit"])
@pytest.mark.parametrize("name", MODP_OBJECTS + UNPEELED)
def test_integral_spaces_agree_on_both_engines_and_any_block_size(
    name, kind, smallest_blocks, generic_engine
):
    """Left and right integrals in H and in H*, valid or corrupted, the
    unimodularity decision and `annihilates` on the operators: the int64
    engine, the same with one-row blocks, and the Python-scalar engine
    agree."""
    H = _object(name)
    if kind is not None:
        H = _corrupted(H, kind)
    _decisions_agree(H, smallest_blocks, generic_engine)


@pytest.mark.parametrize("at", range(4))
@pytest.mark.parametrize("name", MODP_OBJECTS + UNPEELED)
def test_integral_decisions_agree_on_moved_constants(name, at, smallest_blocks, generic_engine):
    """As above on a mutant with one structure constant moved by one, at
    one of two seeded positions of each table (mul first).  A mul mutant
    builds its own mul arrays; a comul mutant shares H's algebra and reads
    its mul arrays."""
    H = _object(name)
    position = _sampled(H, H.dim, 2)[at]
    M = _moved(H, position)
    assert (M.alg is H.alg) == (position[0] == "comul")
    _decisions_agree(M, smallest_blocks, generic_engine)


@pytest.mark.parametrize("key", names())
def test_unimodularity_from_the_right_operator_matches_the_product_loop(key):
    """On every catalog entry and every catalog double, double_fh_check reads
    the same unimodularity off S_right T as the product loop: the doubles are
    unimodular, sweedler and the Taft algebras are not."""
    H, D = entry(key).hopf, double_of(key)
    unimodular = not (key == "sweedler" or key.startswith("taft"))
    assert double_fh_check(H).unimodular == _unimodular_by_products(H) == unimodular
    assert double_fh_check(D).unimodular == _unimodular_by_products(D) is True


# mul, comul and antipode moved by 1 and by 2; "unit" (the unit doubled)
# and "Delta(1)" (_unit_mutant's "comul" copy, where of the unit identities
# Delta(1) = 1 (x) 1 alone fails) take no shift
LINEAR_CASES = [(None, 0), ("unit", 0), ("Delta(1)", 0)] + [
    (kind, shift) for kind in ("mul", "comul", "antipode") for shift in (1, 2)
]


# every QQ catalog entry, and every QQ catalog double up to dimension 36
QQ_KEYS = [k for k in names() if not entry(k).hopf.field.characteristic]
QQ_OBJECTS = QQ_KEYS + [f"D({k})" for k in QQ_KEYS if entry(k).hopf.dim ** 2 <= 36]


def _unit_coproduct_failure_loops(H):
    """The reference for Delta(1) = 1 (x) 1: the smallest (a, b) where
    Delta(1) and 1 (x) 1 differ at e_a (x) e_b, or None, as Python loops."""
    lhs, rhs = H.delta_vec(H.unit), hopfcore._outer_sum(H.field, [(H.unit, H.unit)])
    differ = (key for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key))
    return min(differ, default=None)


@pytest.mark.parametrize("kind, shift", LINEAR_CASES)
@pytest.mark.parametrize("name", MODP_OBJECTS + ["D(taft(3, 2146560523))"] + QQ_OBJECTS + UNPEELED)
def test_linear_axioms_agree_on_both_engines(name, kind, shift, monkeypatch, generic_engine):
    """With both crossovers at 0, coassociativity, the counit law, "counit
    is multiplicative", the antipode law and Delta(1) = 1 (x) 1 run as
    sparse identities mod each prime of their bound, p on every GF(p)
    object and enough primes over QQ, and the Python loops, which run only
    on the generic engine, give the same items, valid or corrupted.  The
    item "coproduct and counit of identity" is eps(1) = 1 and the
    reference loops' Delta(1) = 1 (x) 1 on both."""
    monkeypatch.setattr(algebra, "_LINEAR_MODP_DIM", 0)
    monkeypatch.setattr(algebra, "_SPARSE_DIM", 0)
    H = _double_over(2146560523)[1] if name.startswith("D(taft(") else _object(name)
    if kind == "Delta(1)":
        H = _unit_mutant(H, "comul")
    elif kind is not None:
        H = _corrupted(H, kind, shift)
    unit_ok = H.counit_of(H.unit) == H.field.one() and _unit_coproduct_failure_loops(H) is None
    if kind in (None, "unit", "Delta(1)"):
        assert unit_ok == (kind is None)
    primes = list(engine_primes_of(H.field, _linear_constants(H), 3, H.dim**3))
    assert primes
    ran = []
    linear = hopfcore._linear_failures
    monkeypatch.setattr(
        hopfcore, "_linear_failures", lambda H, p, *t: ran.append(p) or linear(H, p, *t)
    )
    loops = hopfcore._linear_failures_loops
    monkeypatch.setattr(hopfcore, "_linear_failures_loops", lambda H: ran.append(None) or loops(H))
    kernels = _items(verify_hopf(H))
    assert ran == primes
    assert ("coproduct and counit of identity", unit_ok, "") in kernels
    generic_engine()
    assert _items(verify_hopf(H)) == kernels
    assert ran == primes + [None]


@pytest.mark.parametrize("name", MODP_OBJECTS + QQ_OBJECTS)
def test_linear_results_agree_on_both_engines_with_the_unit_doubled(name):
    """With the unit doubled, eps(1) != 1 while eps(e_i e_j) = eps(e_i)
    eps(e_j) on every pair: the loops' five results equal the kernel's,
    merged over the primes of its bound, the third included, which reads
    the pairs alone on both engines (verify_hopf reads eps(1) itself)."""
    H = _corrupted(_object(name), "unit")
    primes = engine_primes_of(H.field, _linear_constants(H), 3, H.dim**3)
    kernels = [
        hopfcore._linear_failures(H, p, algebra.structure_arrays(H.alg, p), algebra.comul_arrays(H, p))
        for p in primes
    ]
    assert hopfcore._linear_failures_loops(H) == hopfcore._merge_linear(kernels)


@pytest.mark.parametrize("name", ["D(qs3)", "array-read D(taft-3-7-2)"])
def test_verify_hopf_makes_one_linear_and_one_quadratic_engine_call(name, monkeypatch):
    """verify_hopf calls first_failure four times on a valid H: the unit
    law and associativity through verify_algebra, then the five axioms
    linear in the tables, Delta(1) = 1 (x) 1 among them, and Delta
    multiplicative, each verify function one linear call and one not."""
    H = _dual_object(name, monkeypatch) if name.startswith("array") else _object(name)
    flags = []
    first_failure = algebra.first_failure

    def spy(*args, linear=False, **kwargs):
        flags.append(linear)
        return first_failure(*args, linear=linear, **kwargs)

    monkeypatch.setattr(algebra, "first_failure", spy)
    monkeypatch.setattr(hopfcore, "first_failure", spy)
    assert verify_hopf(H).passed
    assert flags == [True, False, True, False]


def _counit_and_antipode_moved(H, x, y):
    """H with eps(e_x) and the entry (y, y) of the antipode moved by one."""
    F = H.field
    counit = list(H.counit)
    counit[x] = F.normalize(counit[x] + 1)
    rows = [list(r) for r in H.antipode.rows]
    rows[y][y] = F.normalize(rows[y][y] + 1)
    return HopfAlgebra.from_sparse(H.alg, H.comul, tuple(counit), Matrix.from_rows(F, rows))


@pytest.mark.parametrize("name", ["taft-4-5-2", "D(qs3)"])
def test_fused_counit_and_antipode_laws_match_the_loops(name):
    """The counit law and the antipode law, read off one product of Delta
    with their four factors side by side, fail at the same first basis
    index as their loops on copies where the two laws first fail at
    different indices, either first: over GF(5) and over QQ (merged over
    the primes of the bound)."""
    H = _object(name)
    n = H.dim
    orders = set()
    for x, y in ((n - 1, 0), (n // 2, n - 1)):
        M = _counit_and_antipode_moved(H, x, y)
        primes = engine_primes_of(M.field, _linear_constants(M), 3, n**3)
        got = hopfcore._merge_linear(
            [hopfcore._linear_failures(M, p, *_tables(M, p)) for p in primes]
        )
        assert got == hopfcore._linear_failures_loops(M)
        _, counit, _, antipode, _ = got
        assert None not in (counit, antipode)
        orders.add(counit < antipode)
    assert orders == {False, True}


def _comul_moved(D, seed):
    """D with three seeded comul terms moved by a nonzero residue each."""
    rng = random.Random(seed)
    F = D.field
    comul = dict(D.comul)
    for _ in range(3):
        i = rng.randrange(D.dim)
        terms = list(comul[i])
        t = rng.randrange(len(terms))
        j, k, c = terms[t]
        terms[t] = (j, k, F.normalize(c + rng.randrange(1, F.p)))
        comul[i] = tuple(terms)
    return HopfAlgebra.from_sparse(D.alg, comul, D.counit, D.antipode)


def _delta_failure_by_definition(H, rows):
    """First (i, j), i among the basis indices rows, with Delta(e_i e_j) !=
    Delta(e_i) Delta(e_j), each side evaluated from the tables."""
    for i in rows:
        g = basis_vec(H.field, H.dim, i)
        dg = H.delta_vec(g)
        for j in range(H.dim):
            e_j = basis_vec(H.field, H.dim, j)
            if H.delta_vec(H.alg.multiply(g, e_j)) != tensor_mult(H, dg, H.delta_vec(e_j)):
                return (i, j)
    return None


@pytest.mark.parametrize("seed", range(5))
def test_delta_kernel_finds_the_first_failing_pair(seed, smallest_blocks):
    """On D(taft-3-7-2) with three comul terms moved, the blocked kernel
    reports the first failing (i, j) of the definition on the generators
    of the product cover and of the loops on the basis, with default and
    with one-j blocks; the loops on the generators agree."""
    _, D = _double_over(7)
    cover, _ = product_cover(D.alg)
    D = _comul_moved(D, seed)
    expected = [_delta_failure_by_definition(D, cover), hopfcore._delta_failure_loops(D)]
    assert expected[1] is not None
    assert hopfcore._delta_failure_loops(D, cover) == expected[0]

    def kernel():
        return [hopfcore._delta_failure(D, g, 7, *_tables(D, 7)) for g in (cover, None)]

    assert kernel() == expected
    smallest_blocks()
    assert kernel() == expected


def test_contractions_beyond_one_slice_run_on_the_kernels(monkeypatch, generic_engine):
    """With 3-bit limbs, so slices of 8 terms, Delta's F W contraction and
    the products with Delta on the left in the linear identities span
    several slices.  On D(taft(3, p, q)) with p near 2^31, valid and with a
    comul entry moved, verify_hopf does not fall back to its loops, and
    gives the items it gives at one slice per contraction and those of the
    Python-scalar engine, on which the loops decide; its Delta kernel on
    the generators of the product cover gives the first failing pair of
    the definition."""
    _, D0 = _double_over(2146560523)
    p = D0.field.p
    cover, _ = product_cover(D0.alg)
    doubles = [D0, _corrupted(D0, "comul")]
    one_slice = [_items(verify_hopf(D)) for D in doubles]
    by_definition = [_delta_failure_by_definition(D, cover) for D in doubles]
    assert by_definition[0] is None and by_definition[1] is not None
    monkeypatch.setattr(linalg, "_LIMB_BITS", 3)
    calls = []
    for name in ("_delta_failure_loops", "_linear_failures_loops"):
        loops = getattr(hopfcore, name)
        monkeypatch.setattr(hopfcore, name, lambda *args, f=loops, n=name: calls.append(n) or f(*args))
    full = [_items(verify_hopf(D)) for D in doubles]
    assert full == one_slice
    assert [hopfcore._delta_failure(D, cover, p, *_tables(D, p)) for D in doubles] == by_definition
    assert calls == []
    generic_engine()
    assert full == [_items(verify_hopf(D)) for D in doubles]
    assert set(calls) == {"_delta_failure_loops", "_linear_failures_loops"}
    assert [all(ok for _, ok, _ in items) for items in full] == [True, False]


# -- the block budget ---------------------------------------------------------------


def _nakayama(D):
    return frobenius_system_from_norm(D, build_integral_data(D)).nakayama


def _recorded_blocks(monkeypatch) -> list:
    """The (sizes, ranges) of each later call of algebra.blocks, from the
    kernels of algebra and hopfcore."""
    record = []
    blocks = algebra.blocks

    def recorded(sizes):
        ranges = list(blocks(sizes))
        record.append((np.asarray(sizes, dtype=np.int64), ranges))
        return iter(ranges)

    for module in (algebra, hopfcore):
        monkeypatch.setattr(module, "blocks", recorded)
    return record


def test_default_budget_checks_the_d81_double_in_few_products(monkeypatch):
    """At the default block budget, verify_hopf on the full basis of
    D(taft-3-7-2) makes at most 10 mulmod calls (66 at 2^14-entry blocks)
    and check_automorphism on its Nakayama automorphism at most 12 (123):
    the blocks follow the entries the kernels hold, not dim."""
    D = _double_over(7)[1]
    nu = _nakayama(D)
    calls = count_calls(monkeypatch, linalg, "mulmod")
    assert verify_hopf(D).passed
    assert 0 < len(calls) <= 10
    calls.clear()
    algebra.check_automorphism(D.alg, nu, "Nakayama matrix")
    assert 0 < len(calls) <= 12


def test_kernels_construct_no_scipy_sparse_matrix(monkeypatch, tmp_path):
    """A full verify_hopf on D(qs3) and on D(taft-3-7-2), and a frobenius
    job on D(taft-3-7-2), construct no scipy.sparse matrix (a spy on the
    constructor of scipy's compressed matrices, which sees one built here):
    the kernels multiply linalg's CSR triples by scipy's compiled routines
    alone.  Each of the three runs its products through mulmod."""
    import scipy.sparse as sp
    from scipy.sparse import _compressed

    from hopfrob.cli import main

    built = []
    init = _compressed._cs_matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_compressed._cs_matrix, "__init__", counted)
    sp.csr_matrix((2, 2))
    assert built == ["csr_matrix"]
    built.clear()
    calls = count_calls(monkeypatch, linalg, "mulmod")
    _, D = _double_over(7)
    path = tmp_path / "d81.hopf"
    hopffile.write_hopf_file(str(path), D)
    for run in (
        lambda: verify_hopf(double_of("qs3")).passed,
        lambda: verify_hopf(D).passed,
        lambda: main(["frobenius", str(path)]) == 0,
    ):
        calls.clear()
        assert run()
        assert calls and built == []


def test_delta_takes_one_block_on_the_d81_double(monkeypatch):
    """At the default block budget the Delta kernel on the whole basis of
    D(taft-3-7-2) holds every j in one block, as the other kernels of its
    verify_hopf do: the terms of F W are bounded through the length of the
    row of W that each entry of F meets (166,860 exact terms; the longest
    row of W for each s bounded them by 367,497, two blocks)."""
    D = _double_over(7)[1]
    record = _recorded_blocks(monkeypatch)
    assert hopfcore._delta_failure(D, None, 7, *_tables(D, 7)) is None
    sizes, ranges = record[-1]
    assert len(sizes) == D.dim and ranges == [(0, D.dim)]


def _empty_stub(dim):
    """Field prime 7, unit e_0, counit e^0 and no tables."""
    return parse_hopf_text(
        f"hopf-algebra v1\nfield prime 7\ndim {dim}\nunit : 0 1\ncounit : 0 1\nend\n"
    )


def test_empty_tables_cost_the_same_products_at_any_dim(monkeypatch):
    """On the stub with empty tables, associativity, coassociativity and
    Delta multiplicative hold and make as many mulmod calls at dim 1000 as
    at dim 500: an empty table takes no block."""
    calls = count_calls(monkeypatch, linalg, "mulmod")
    counts = []
    for dim in (500, 1000):
        H = _empty_stub(dim)
        mul, comul = _tables(H, 7)
        m, u, v, d = comul
        delta, uv = algebra.compact(m, u * dim + v, d, (dim, None))
        calls.clear()
        assert algebra._associativity_failure(H.alg, None, 7, mul) is None
        assert hopfcore._coassociativity_failure(comul, delta, uv, 7) is None
        assert hopfcore._delta_failure(H, None, 7, mul, comul) is None
        counts.append(len(calls))
    assert counts[0] == counts[1]


_VERIFY_PEAK_RSS = """\
import io, contextlib, resource, sys
import numpy, scipy.sparse
from hopfrob.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", sys.argv[1]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_verify_memory_does_not_follow_dim_squared_on_empty_tables(tmp_path):
    """`verify` on the empty-table stub at dims 1000 and 4000, each in a
    fresh process with numpy and scipy loaded first: peak RSS (ru_maxrss,
    which sees scipy's buffers where tracemalloc does not) grows by less
    than 8 MB.  A product of the identity with the dim x dim^2 table of
    associativity or Delta multiplicative would allocate about 4 bytes a
    column, some 60 MB more at dim 4000."""
    env = {**os.environ, "PYTHONPATH": str(Path(hopfcore.__file__).resolve().parent.parent)}
    peak = {}
    for dim in (1000, 4000):
        path = tmp_path / f"stub{dim}.hopf"
        path.write_text(
            f"hopf-algebra v1\nfield prime 7\ndim {dim}\nunit : 0 1\ncounit : 0 1\nend\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", _VERIFY_PEAK_RSS, str(path)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        code, kib = map(int, out.stdout.split())
        assert code == 1  # the stub fails its axioms
        peak[dim] = kib
    assert peak[4000] - peak[1000] < 8 * 1024, peak


def _peak(f):
    """f() and the tracemalloc peak, in bytes, of what it allocates."""
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_d256_kernels_stay_within_8_mb():
    """On D(taft-4-5-2) the Delta kernel on the generators of the product
    cover and the kernels of the five linear axioms each peak at no more
    than 8 MB (tracemalloc) at the default block budget."""
    D = double_of("taft-4-5-2")
    cover, _ = product_cover(D.alg)
    p = D.field.p
    tables = _tables(D, p)
    bad, peak = _peak(lambda: hopfcore._delta_failure(D, cover, p, *tables))
    assert bad is None and peak <= 8e6
    linear, peak = _peak(lambda: hopfcore._linear_failures(D, p, *tables))
    assert linear == (None, None, True, None, True) and peak <= 8e6


def test_delta_operand_peaks_below_twice_its_own_arrays(monkeypatch):
    """W of the Delta kernel on the full basis of D(taft-4-5-2) (698,112
    entries) is built in blocks within the budget, and its build peaks at
    no more than twice W's own arrays."""
    D = double_of("taft-4-5-2")
    p, n = D.field.p, D.dim
    (i, j, k, c), (m, u, v, d) = _tables(D, p)
    Mu, as_ = algebra.compact(i, k * n + j, c, (n, None))
    record = _recorded_blocks(monkeypatch)
    (W, _, _), peak = _peak(lambda: hopfcore._coproduct_operand((m, u, v, d), Mu, as_, n, p))
    assert W.indptr[-1] == len(W.data) == 698112
    assert peak <= 2 * (W.data.nbytes + W.indices.nbytes + W.indptr.nbytes)
    ((sizes, ranges),) = record
    cap = linalg._BLOCK_BYTES // 24
    assert len(ranges) > 1
    assert all(b - a == 1 or sizes[a:b].sum() <= cap for a, b in ranges)


def test_smallest_blocks_hold_one_item_each(monkeypatch, smallest_blocks):
    """Under the smallest_blocks fixture every block of every kernel of
    verify_hopf of D(taft-3-7-2), through its product cover and on the
    whole basis, and of check_automorphism on its Nakayama automorphism,
    holds a single item, and the blocks cover every item of positive
    size."""
    _, D = _double_over(7)
    nu = _nakayama(D)
    smallest_blocks()
    record = _recorded_blocks(monkeypatch)
    assert verify_hopf(D).passed
    with monkeypatch.context() as m:
        _whole_basis(m)
        assert verify_hopf(D).passed
    algebra.check_automorphism(D.alg, nu, "Nakayama matrix")
    assert len(record) >= 6
    for sizes, ranges in record:
        assert [b - a for a, b in ranges] == [1] * len(ranges)
        assert [a for a, _ in ranges] == list(np.flatnonzero(sizes))


def _unit_mutant(H, kind):
    """H with one constant that the unit identities read moved by one: the
    first term of the middle nonzero product e_u e_j ("left") or e_j e_u
    ("right"), or of Delta(e_u) ("comul"), u the first index of the unit's
    support; or its unit doubled ("unit")."""
    if kind in (None, "unit"):
        return H if kind is None else _corrupted(H, "unit")
    F = H.field
    u = next(i for i, c in enumerate(H.unit) if c)
    if kind == "comul":
        comul = dict(H.comul)
        (j, k, c), *rest = comul[u]
        comul[u] = ((j, k, F.normalize(c + 1)), *rest)
        return HopfAlgebra.from_sparse(H.alg, comul, H.counit, H.antipode)
    mul = dict(H.alg.mul)
    keys = sorted(key for key in mul if key[kind == "right"] == u)
    key = keys[len(keys) // 2]
    (k, c), *rest = mul[key]
    mul[key] = ((k, F.normalize(c + 1)), *rest)
    alg = StructureAlgebra.from_sparse(F, H.dim, mul, H.unit, H.basis_names)
    return HopfAlgebra.from_sparse(alg, H.comul, H.counit, H.antipode)


@pytest.mark.parametrize("kind", [None, "unit", "left", "right", "comul"])
@pytest.mark.parametrize("name", MODP_OBJECTS + ["D(taft(3, 2146560523))"] + QQ_OBJECTS + UNPEELED)
def test_unit_identities_agree_on_both_engines(name, kind, monkeypatch, generic_engine):
    """The unit law, valid or corrupted, with both crossovers at 0: its
    kernel mod each prime of its bound gives the first failing item of its
    loops, which run only on the generic engine, and the product cover
    read off the table arrays is the one read off the rows.  The "comul"
    copy leaves both as they are; Delta(1) = 1 (x) 1, which it breaks, is
    decided with the linear axioms (test_linear_axioms_agree_on_both_engines)."""
    monkeypatch.setattr(algebra, "_LINEAR_MODP_DIM", 0)
    monkeypatch.setattr(algebra, "_SPARSE_DIM", 0)
    H = _double_over(2146560523)[1] if name.startswith("D(taft(") else _object(name)
    H = _unit_mutant(H, kind)
    ran = []
    unit_kernel = algebra._unit_failure
    monkeypatch.setattr(
        algebra, "_unit_failure", lambda A, p, t: ran.append(p) or unit_kernel(A, p, t)
    )
    unit = algebra.unit_failure(H.alg)
    cover = product_cover(H.alg)
    constants = [*algebra.table_constants(H.alg), *H.unit]
    assert ran == list(engine_primes_of(H.field, constants, 2, H.dim))
    assert (unit is None) == (kind in (None, "comul"))
    generic_engine()
    assert algebra.unit_failure(H.alg) == unit
    assert product_cover(H.alg) == cover
