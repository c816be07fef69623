"""Drinfeld double: construction, axioms, embeddings, and integrals."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import count_calls, double_of, double_report_of, taft_over

from hopfrob import algebra, double, linalg
from hopfrob.algebra import (
    StructureAlgebra,
    multiplicative_failure,
    nonzero_row,
    product_cover,
)
from hopfrob.catalog import entry, names
from hopfrob.cli import main
from hopfrob.double import (
    _straighten_direct,
    _straighten_table,
    double_fh_check,
    drinfeld_double,
    embed_algebra,
    embed_dual,
)
from hopfrob.errors import InternalCheckError
from hopfrob.hopffile import emit_hopf_text
from hopfrob.frobenius import build_integral_data, verify_radford
from hopfrob.hopfcore import (
    HopfAlgebra,
    convolution,
    dual_hopf,
    dual_left_integral_space,
    left_integral_space,
    right_integral_space,
    verify_hopf,
)
from hopfrob.linalg import Matrix, basis_vec
from hopfrob.report import Report


@pytest.mark.parametrize("key", ["qc2", "sweedler", "f5c5"])
def test_dimension_and_name(key):
    H = entry(key).hopf
    D = double_of(key)
    assert D.dim == H.dim * H.dim
    assert D.name.startswith("D(")


@pytest.mark.parametrize("key", ["qc2", "sweedler", "f5c5"])
def test_axioms_full_strategy(key):
    D = double_of(key)
    rep = verify_hopf(D)
    assert rep.passed, str(rep)
    assert not any("certified" in it.name for it in rep.items)


def test_qc2_double_commutative_cocommutative():
    D = double_of("qc2")
    assert D.alg.is_commutative()
    for i in range(D.dim):
        terms = {(j, k): c for j, k, c in D.comul.get(i, ())}
        swapped = {(k, j): c for (j, k), c in terms.items()}
        assert terms == swapped


def check_embeddings(H: HopfAlgebra, D: HopfAlgebra) -> Report:
    """The oracle for the construction: both canonical injections are
    algebra maps, and the double's antipode and its square restrict to S
    and S^2 on H."""
    field = H.field
    rep = Report("double embeddings")
    n = H.dim

    phi = Matrix.from_columns(field, [embed_algebra(H, basis_vec(field, n, i)) for i in range(n)])
    ok = multiplicative_failure(H.alg, D.alg, phi) is None
    rep.add("algebra factor embeds multiplicatively", ok)

    # H* multiplies by convolution, the product of dual_hopf(H)
    phi = Matrix.from_columns(field, [embed_dual(H, basis_vec(field, n, a)) for a in range(n)])
    ok = multiplicative_failure(dual_hopf(H).alg, D.alg, phi) is None
    rep.add("dual factor embeds multiplicatively", ok)

    ok = True
    for i in range(n):
        lhs = D.antipode.apply(embed_algebra(H, H.alg.basis_vector(i)))
        if lhs != embed_algebra(H, H.antipode.col(i)):
            ok = False
    rep.add("antipode restricts to the embedded algebra factor", ok)

    s2_D = D.antipode.pow_(2)
    s2_H = H.antipode.pow_(2)
    ok = all(
        s2_D.apply(embed_algebra(H, H.alg.basis_vector(i)))
        == embed_algebra(H, s2_H.col(i))
        for i in range(n)
    )
    rep.add("squared antipode restricts to the squared antipode", ok)
    return rep


@pytest.mark.parametrize("key", ["qc2", "sweedler", "f5c5"])
def test_embeddings(key):
    H = entry(key).hopf
    D = double_of(key)
    rep = check_embeddings(H, D)
    assert rep.passed, str(rep)


def _embeds_multiplicatively(H, D, embed, product):
    """The reference: embed(x) embed(y) = embed(x y) on every basis pair, one
    dense product in D each."""
    vecs = [basis_vec(H.field, H.dim, i) for i in range(H.dim)]
    return all(
        D.alg.multiply(embed(H, x), embed(H, y)) == embed(H, product(x, y))
        for x in vecs
        for y in vecs
    )


@pytest.mark.parametrize("factor", ["algebra factor", "dual factor"])
@pytest.mark.parametrize("key", ["qc2", "sweedler", "f5c5"])
def test_embedding_items_follow_a_moved_product(key, factor):
    """D with one product of two embedded basis vectors of one factor moved
    by one: the two "embeds multiplicatively" items equal the products of
    the reference, and the moved factor's item fails."""
    H, D = entry(key).hopf, double_of(key)
    refs = {
        "algebra factor": (embed_algebra, H.alg.multiply),
        "dual factor": (embed_dual, lambda f, g: convolution(H, f, g)),
    }
    embed = refs[factor][0]
    x = next(i for i, c in enumerate(embed(H, basis_vec(H.field, H.dim, 1))) if c)
    mul = dict(D.alg.mul)
    mul[(x, x)] = tuple(mul.get((x, x), ())) + ((0, 1),)
    alg = StructureAlgebra.from_sparse(D.field, D.dim, mul, D.alg.unit, D.alg.basis_names)
    moved = HopfAlgebra.from_sparse(alg, D.comul, D.counit, D.antipode)
    items = {it.name: it.ok for it in check_embeddings(H, moved).items}
    for name, (emb, product) in refs.items():
        want = _embeds_multiplicatively(H, moved, emb, product)
        assert items[f"{name} embeds multiplicatively"] == want
    assert not items[f"{factor} embeds multiplicatively"]


def test_unit_is_shared():
    H = entry("sweedler").hopf
    D = double_of("sweedler")
    assert embed_algebra(H, H.unit) == D.unit
    # the counit of H, as an element of the dual, is the dual's unit
    assert embed_dual(H, H.counit) == D.unit


@pytest.mark.parametrize("key", ["qc2", "sweedler"])
def test_embedded_coproducts(key):
    H = entry(key).hopf
    D = double_of(key)
    field = H.field
    zero = field.zero()

    def outer(u, v):
        t = {}
        for i, ci in enumerate(u):
            if ci == zero:
                continue
            for j, cj in enumerate(v):
                if cj == zero:
                    continue
                t[(i, j)] = field.normalize(t.get((i, j), zero) + ci * cj)
        return {k: c for k, c in t.items() if c != zero}

    def merge(parts):
        t = {}
        for part, c in parts:
            for k, v in part.items():
                t[k] = field.normalize(t.get(k, zero) + c * v)
        return {k: c for k, c in t.items() if c != zero}

    # algebra factor is a coalgebra map
    for i in range(H.dim):
        got = D.delta_vec(embed_algebra(H, H.alg.basis_vector(i)))
        want = merge(
            (
                outer(
                    embed_algebra(H, H.alg.basis_vector(j)),
                    embed_algebra(H, H.alg.basis_vector(k)),
                ),
                c,
            )
            for j, k, c in H.comul.get(i, ())
        )
        assert got == want

    # dual factor lands in the opposite coproduct
    for a in range(H.dim):
        fa = basis_vec(field, H.dim, a)
        got = D.delta_vec(embed_dual(H, fa))
        pairs = []
        for (u, v), terms in H.alg.mul.items():
            for idx, c in terms:
                if idx == a:
                    pairs.append(
                        (
                            outer(
                                embed_dual(H, basis_vec(field, H.dim, v)),
                                embed_dual(H, basis_vec(field, H.dim, u)),
                            ),
                            c,
                        )
                    )
        assert got == merge(pairs)


def test_counit_restricts():
    H = entry("sweedler").hopf
    D = double_of("sweedler")
    field = H.field
    for i in range(H.dim):
        v = embed_algebra(H, H.alg.basis_vector(i))
        val = sum(
            (D.counit[t] * c for t, c in enumerate(v)), start=field.zero()
        )
        assert field.normalize(val) == H.counit[i]


def test_sweedler_double_antipode_square_on_embedded_generator():
    H = entry("sweedler").hopf
    D = double_of("sweedler")
    x = H.alg.basis_vector(2)
    neg_x = tuple(-c for c in x)
    lhs = D.antipode.pow_(2).apply(embed_algebra(H, x))
    assert lhs == embed_algebra(H, neg_x)  # S^2(x) = -x carried into the double


@pytest.mark.parametrize("key", ["qc2", "sweedler", "f5c5"])
def test_integral_structure(key):
    fh = double_fh_check(double_of(key))
    assert fh.report.passed, str(fh.report)
    assert fh.dual_integral_dim == 1
    assert fh.integral_dim == 1
    assert fh.unimodular


def test_integral_eliminations_of_the_d256_double_are_at_most_dim_h_wide(monkeypatch):
    """Every elimination inside double_fh_check on D(taft-4-5-2) has at
    most dim H = 16 columns (4 now: what the peel of each operator leaves),
    so a kernel that refines a K as wide as D (256 columns) fails here,
    not only on the clock."""
    D = double_of("taft-4-5-2")
    widths = []
    rref = linalg._rref
    monkeypatch.setattr(
        linalg, "_rref", lambda field, rows: widths.append(len(rows[0]) if rows else 0) or rref(field, rows)
    )
    fh = double_fh_check(D)
    assert (fh.dual_integral_dim, fh.integral_dim, fh.unimodular) == (1, 1, True)
    assert widths and max(widths) <= 16


def test_double_radford_and_modular_pair():
    D = double_of("sweedler")
    data = build_integral_data(D)
    assert data.modular_fn == D.counit  # the double is unimodular
    assert data.modular_elt != D.unit  # but its dual is not
    rep = verify_radford(D, data)
    assert rep.passed, str(rep)


def test_large_double_certified_axioms():
    """D(taft-4-5-2) passes with the items of every other input: its
    quadratic axioms are certified on the 26 generators of the product
    cover read off its own mul table, not on a construction certificate."""
    D, rep = double_report_of("taft-4-5-2")
    assert D.dim == 256
    assert rep.passed, str(rep)
    assert [it.name for it in rep.items] == [it.name for it in verify_hopf(entry("qc2").hopf).items]
    assert len(product_cover(D.alg)[0]) == 26


def test_large_double_spot_products():
    """Spot-check the certified 256-dim table against the defining rule on
    embedded elements, which multiply componentwise by construction."""
    H = entry("taft-4-5-2").hopf
    D = double_of("taft-4-5-2")
    field = H.field
    for i, j in [(1, 4), (5, 10), (15, 3)]:
        prod = D.alg.multiply(
            embed_algebra(H, H.alg.basis_vector(i)),
            embed_algebra(H, H.alg.basis_vector(j)),
        )
        want = embed_algebra(
            H, H.alg.multiply(H.alg.basis_vector(i), H.alg.basis_vector(j))
        )
        assert prod == want
    for a, b in [(0, 7), (9, 2)]:
        fa = basis_vec(field, H.dim, a)
        fb = basis_vec(field, H.dim, b)
        from hopfrob.hopfcore import convolution

        prod = D.alg.multiply(embed_dual(H, fa), embed_dual(H, fb))
        assert prod == embed_dual(H, convolution(H, fa, fb))


@pytest.mark.parametrize("n, p", [(3, 2146560523), (4, 65521)])
def test_large_prime_taft_double_passes(tmp_path, capsys, n, p):
    """The int64 kernels on the generators of the product cover stay exact
    up to p < 2^31: `hopfrob double` runs verify_hopf(D) and passes."""
    path = tmp_path / "taft.hopf"
    path.write_text(emit_hopf_text(taft_over(n, p)))
    assert main(["double", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] associativity\n" in out
    assert "[PASS] comultiplication is multiplicative\n" in out
    assert "certif" not in out


def _double_by_definition(H: HopfAlgebra) -> HopfAlgebra:
    """The reference for drinfeld_double, summed over every index: each
    quadruple (a, i, b, j) of (f_a e_i)(f_b e_j) = sum c (f_a f_v)(e_s e_j)
    over the straightening entries (v, s, c) of (i, b), each pair (u, v) of
    Delta(f_a e_i) = sum c_uv^a (f_v e_(i)1) (x) (f_u e_(i)2) with
    e_u e_v = sum c_uv^a e_a, and each column of S(f_b e_j) = (eps e
    S(e_j))(f_b o Sbar 1) as a dense vector.  The straightening is the
    direct evaluation through honest products, not the joins under test."""
    field = H.field
    n = H.dim
    N = n * n
    zero = field.zero()
    straighten = [
        [[(v, s, c) for (v, s), c in row.items()] for row in rows]
        for rows in _straighten_direct(H, range(n))
    ]

    dual_rows: dict = {}
    for k in range(n):
        for p, q, c in H.comul.get(k, ()):
            dual_rows.setdefault((p, q), []).append((k, c))
    mul: dict = {}
    for a in range(n):
        for i in range(n):
            for b in range(n):
                for j in range(n):
                    acc: dict = {}
                    for v, s, c in straighten[i][b]:
                        for k, c2 in dual_rows.get((a, v), ()):
                            for m, c3 in H.alg.mul.get((s, j), ()):
                                key = k * n + m
                                acc[key] = acc.get(key, zero) + c * c2 * c3
                    row = nonzero_row(field, acc)
                    if row:
                        mul[(a * n + i, b * n + j)] = row
    unit = tuple(field.normalize(H.counit[a] * H.unit[i]) for a in range(n) for i in range(n))
    basis = tuple(
        f"{H.basis_names[a]}*.{H.basis_names[i]}" for a in range(n) for i in range(n)
    )
    alg = StructureAlgebra.from_sparse(field, N, mul, unit, basis)

    products = {key: dict(row) for key, row in H.alg.mul.items()}
    comul: dict = {}
    for a in range(n):
        for i in range(n):
            acc = {}
            for u in range(n):
                for v in range(n):
                    c = products.get((u, v), {}).get(a, zero)
                    if c == zero:
                        continue
                    for s, t, c2 in H.comul.get(i, ()):
                        key = (v * n + s, u * n + t)
                        acc[key] = acc.get(key, zero) + c * c2
            terms = tuple((x, y, c) for (x, y), c in nonzero_row(field, acc))
            if terms:
                comul[a * n + i] = terms
    counit = tuple(field.normalize(H.unit[a] * H.counit[i]) for a in range(n) for i in range(n))

    sbar = H.antipode_inv()
    cols = []
    for b in range(n):
        for j in range(n):
            acc_vec = [zero] * N
            for k in range(n):
                ck = H.antipode.rows[k][j]
                if ck == zero:
                    continue
                for v in range(n):
                    cv = sbar.rows[b][v]
                    if cv == zero:
                        continue
                    for vv, ss, c in straighten[k][v]:
                        acc_vec[vv * n + ss] = acc_vec[vv * n + ss] + ck * cv * c
            cols.append(acc_vec)
    antipode = Matrix.from_columns(field, cols)
    return HopfAlgebra.from_sparse(alg, comul, counit, antipode, name=f"D({H.name or 'H'})")


_LARGE_PRIME_TAFT = "taft(3, 2146560523)"


@pytest.mark.parametrize("key", [*names(), _LARGE_PRIME_TAFT])
def test_double_equals_its_definition(key):
    """The double contracted over nonzero constants is the double summed
    over every index: the same mul table in the same key order, and the
    same unit, comul, counit, antipode and names."""
    if key == _LARGE_PRIME_TAFT:
        H = taft_over(3, 2146560523)
        D = drinfeld_double(H)
    else:
        H, D = entry(key).hopf, double_of(key)
    ref = _double_by_definition(H)
    assert list(D.alg.mul.items()) == list(ref.alg.mul.items())
    assert D.alg.unit == ref.alg.unit
    assert D.alg.basis_names == ref.alg.basis_names
    assert list(D.comul.items()) == list(ref.comul.items())
    assert D.counit == ref.counit
    assert D.antipode == ref.antipode
    assert D.name == ref.name


@pytest.mark.parametrize("key", names())
def test_double_tables_are_already_clean(key):
    """D is built without from_sparse, so its rows must already be in the
    form from_sparse makes: cleaning D's tables again changes nothing, not
    even the order of their keys, and every comul index is present."""
    D = double_of(key)
    alg = StructureAlgebra.from_sparse(D.field, D.dim, D.alg.mul, D.alg.unit, D.basis_names)
    again = HopfAlgebra.from_sparse(alg, D.comul, D.counit, D.antipode)
    assert list(D.alg.mul.items()) == list(alg.mul.items())
    assert D.alg.unit == alg.unit
    assert list(D.comul.items()) == list(again.comul.items())
    assert sorted(D.comul) == list(range(D.dim))
    assert D.counit == again.counit


@pytest.mark.parametrize("key", ["sweedler", "taft-3-7-2"])
def test_straightening_cross_check_fails_closed(key, monkeypatch, tmp_path, capsys):
    """With one straightening constant moved by one, the replay through
    honest products disagrees: drinfeld_double raises InternalCheckError
    naming that pair, and `hopfrob double` exits 1 with it on stderr."""
    H = entry(key).hopf
    ib = _straighten_table(H)[0]
    # the first entry of the last pair that has entries
    at = int(np.searchsorted(ib, ib[-1]))
    i, b = divmod(int(ib[-1]), H.dim)

    def moved(H):
        ib, v, s, c = _straighten_table(H)
        c = c.copy()
        c[at] = H.field.normalize(c.tolist()[at] + H.field.one())
        return ib, v, s, c

    monkeypatch.setattr(double, "_straighten_table", moved)
    message = f"straightening forms disagree at pair {(i, b)}"
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        drinfeld_double(H)
    path = tmp_path / "h.hopf"
    path.write_text(emit_hopf_text(H))
    assert main(["double", str(path)]) == 1
    assert capsys.readouterr().err == f"check failed: {message}\n"


def _build_work(monkeypatch, H) -> tuple:
    """(rows cleaned by nonzero_row, traced peak in bytes, the spy's list
    included) of drinfeld_double(H)."""
    calls = count_calls(monkeypatch, algebra, "nonzero_row")
    tracemalloc.start()
    try:
        drinfeld_double(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(calls), peak


def test_double_build_work_guard(monkeypatch, generic_engine):
    """D(taft-4-5-2) is assembled from its nonzero structure constants one
    block at a time, and each row is cleaned once.

    The straightening, D's mul table, comul and antipode are joins on the
    table arrays of H on both engines, so outside the replay of the
    straightening through honest products (_straighten_direct, 1,808 rows,
    each Sbar(e_t) e_v formed once) nonzero_row cleans no row, on the
    int64 engine (the default over GF(5)) and on the Python-scalar engine
    alike.  The traced peak of the build
    stays at most 6 MiB on both (4.2 MiB on each)."""
    H = entry("taft-4-5-2").hopf
    H.antipode_inv()
    for engine in ("int64", "generic"):
        if engine == "generic":
            generic_engine()
        drinfeld_double(H)  # the table arrays of H for this engine, kept on it, built once
        with monkeypatch.context() as m:
            calls = count_calls(m, algebra, "nonzero_row")
            list(double._straighten_direct(H, range(H.dim)))
            direct = len(calls)
        with monkeypatch.context() as m:
            cleaned, peak = _build_work(m, H)
        assert cleaned == direct, engine
        assert peak <= 6 * 2**20, f"{engine} peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("key,width", [("taft-3-7-2", 3), ("taft-4-5-2", 4)])
def test_one_pass_integral_spaces_eliminate_twice(key, width, monkeypatch):
    """Each integral space of these doubles is found in one pass of
    linalg.iterated_kernel_sparse, whose K is then the block's kernel,
    canonical already: two eliminations per space (the block, then its null
    vectors in canonical_basis), and none to reduce K once more."""
    D = double_of(key)
    rref = linalg._rref
    for space in (left_integral_space, right_integral_space, dual_left_integral_space):
        shapes = []
        with monkeypatch.context() as m:
            m.setattr(
                linalg,
                "_rref",
                lambda field, rows: shapes.append((len(rows), len(rows[0]))) or rref(field, rows),
            )
            space(D)
        assert shapes == [(width, width), (1, width)], space.__name__


@pytest.mark.parametrize("key", names())
def test_double_keeps_the_inverse_antipode_its_construction_proves(key, generic_engine):
    """drinfeld_double builds S_D^-1 by the joins that build S_D, with S
    and Sbar swapped, and keeps it as antipode_inv once S_D T = I: on every
    catalog double, up to D(taft-4-5-2), it is Matrix.inverse(S_D), built
    on the int64 engine and on the Python-scalar engine alike."""
    D = double_of(key)
    want = D.antipode.inverse()
    assert D._sbar == want
    generic_engine()
    assert drinfeld_double(entry(key).hopf)._sbar == want


def test_double_of_d256_runs_no_elimination_as_wide_as_d(tmp_path, monkeypatch):
    """`hopfrob double` on taft-4-5-2 finds "antipode invertible" in the
    inverse its construction proved: no elimination has 256 rows, as the
    one of Matrix.inverse(S_D) would."""
    path = tmp_path / "taft.hopf"
    path.write_text(emit_hopf_text(entry("taft-4-5-2").hopf))
    rows = []
    rref, rref_modp = linalg._rref, linalg._rref_modp_numpy
    monkeypatch.setattr(linalg, "_rref", lambda field, a: rows.append(len(a)) or rref(field, a))
    monkeypatch.setattr(linalg, "_rref_modp_numpy", lambda a, p: rows.append(len(a)) or rref_modp(a, p))
    assert main(["double", str(path)]) == 0
    assert rows and max(rows) < 256


def _corrupted_taft(kind: str) -> HopfAlgebra:
    """taft-4-5-2 with column 0 of its antipode doubled, or with its unit
    tripled, as the corrupted copy of the modp-d256 benchmark scales it."""
    H = entry("taft-4-5-2").hopf
    field = H.field
    if kind == "antipode column":
        rows = [(field.normalize(2 * r[0]), *r[1:]) for r in H.antipode.rows]
        return HopfAlgebra(H.alg, H.comul, H.counit, Matrix.from_rows(field, rows), H.name)
    unit = tuple(field.normalize(3 * u) for u in H.unit)
    alg = StructureAlgebra(field, H.dim, H.alg.mul, unit, H.basis_names)
    return HopfAlgebra(alg, H.comul, H.counit, H.antipode, H.name)


@pytest.mark.parametrize("kind, proved", [("antipode column", False), ("scaled unit", True)])
def test_corrupted_double_reports_as_the_elimination_does(kind, proved, tmp_path, monkeypatch, capsys):
    """With column 0 of S doubled, S_D T = I fails, so D keeps no inverse
    and antipode_inv eliminates S_D, as before the construction proved
    any; with the unit tripled T is proved and kept.  Either way `double`
    prints and reports the bytes it does when D's inverse antipode comes
    from Matrix.inverse alone."""
    H = _corrupted_taft(kind)
    assert (drinfeld_double(H)._sbar is not None) == proved
    path, report = tmp_path / "taft-bad.hopf", tmp_path / "report.txt"
    path.write_text(emit_hopf_text(H))
    runs = []
    for kept in (True, False):
        with monkeypatch.context() as m:
            if not kept:
                m.setattr(double, "_is_inverse", lambda *args: False)
            inverted = []
            inverse = Matrix.inverse
            m.setattr(Matrix, "inverse", lambda M: inverted.append(M.nrows) or inverse(M))
            assert main(["double", str(path), "--report", str(report)]) == 1
            runs.append((capsys.readouterr().out, report.read_text(), 256 in inverted))
    assert runs[0][:2] == runs[1][:2]
    assert [eliminated for *_, eliminated in runs] == [not proved, True]
