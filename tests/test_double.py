"""Drinfeld double: construction, axioms, embeddings, and integrals."""

from fractions import Fraction

import pytest
from conftest import double_of, double_report_of, taft_over

from hopfrob.algebra import StructureAlgebra, multiplicative_failure, product_cover
from hopfrob.catalog import entry
from hopfrob.cli import main
from hopfrob.double import (
    double_fh_check,
    embed_algebra,
    embed_dual,
)
from hopfrob.hopffile import emit_hopf_text
from hopfrob.frobenius import build_integral_data, verify_radford
from hopfrob.hopfcore import HopfAlgebra, convolution, dual_hopf, verify_hopf
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
