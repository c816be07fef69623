import pytest

from hopfrob import GF, QQ, InvalidInputError
from hopfrob.catalog import (
    CatalogEntry,
    cyclic_table,
    d4_table,
    entries,
    entry,
    group_algebra,
    names,
    q8_table,
    s3_table,
    sweedler,
    taft,
)
from hopfrob.hopfcore import verify_hopf
from hopfrob.linalg import matrix_order


def test_registry_contains_core_entries():
    got = set(names())
    assert {
        "qc2",
        "qc3",
        "f3c3",
        "qs3",
        "sweedler",
        "taft-3-7-2",
        "taft-4-5-2",
    } <= got


def test_every_entry_verifies_and_has_expected_dim():
    for ent in entries():
        assert isinstance(ent, CatalogEntry)
        assert ent.hopf.dim == ent.expected["dim"]
        assert verify_hopf(ent.hopf).passed, ent.name


def test_commutativity_flags_are_rederived():
    for ent in entries():
        assert ent.hopf.alg.is_commutative() == ent.expected["commutative"], ent.name
        cocomm = all(
            sorted((j, k, c) for j, k, c in row)
            == sorted((k, j, c) for j, k, c in row)
            for row in ent.hopf.comul.values()
        )
        assert cocomm == ent.expected["cocommutative"], ent.name


def test_antipode_orders_are_rederived():
    for ent in entries():
        H = ent.hopf
        assert matrix_order(H.antipode, 4 * H.dim) == ent.expected["antipode_order"], ent.name


# -- group tables ------------------------------------------------------------


def test_inline_tables_are_groups_of_right_order():
    for table, order in ((s3_table(), 6), (d4_table(), 8), (q8_table(), 8)):
        assert len(table) == order
        H = group_algebra(table, QQ)
        assert verify_hopf(H).passed


def test_s3_is_noncommutative():
    H = group_algebra(s3_table(), QQ)
    assert not H.alg.is_commutative()


def test_q8_has_unique_element_of_order_two():
    t = q8_table()
    order2 = [i for i in range(8) if i != 0 and t[i][i] == 0]
    assert len(order2) == 1


def test_group_algebra_rejects_broken_tables():
    with pytest.raises(InvalidInputError):
        group_algebra(((0, 1), (1, 1)), QQ)  # element 1 has no inverse
    with pytest.raises(InvalidInputError):
        group_algebra(((1, 0), (0, 0)), GF(2))  # no two-sided identity


# -- sweedler ------------------------------------------------------------------


def test_sweedler_relations():
    H = sweedler()
    A = H.alg
    g, x, gx = A.basis_vector(1), A.basis_vector(2), A.basis_vector(3)
    assert A.multiply(g, g) == A.unit
    assert A.multiply(x, x) == (0,) * 4
    assert A.multiply(x, g) == tuple(-c for c in A.multiply(g, x))
    assert A.multiply(g, x) == gx
    assert H.delta_vec(x) == {(2, 0): 1, (1, 2): 1}
    assert H.antipode.col(2) == (0, 0, 0, -1)  # S(x) = -gx
    assert matrix_order(H.antipode, 16) == 4


# -- taft ------------------------------------------------------------------------


def test_taft_dimension_and_verification():
    H = taft(3, 7, 2)
    assert H.dim == 9
    assert verify_hopf(H).passed


def test_taft_rejects_wrong_order_parameter():
    with pytest.raises(InvalidInputError):
        taft(3, 7, 3)  # ord(3 mod 7) = 6
    with pytest.raises(InvalidInputError):
        taft(3, 5, 2)  # ord(2 mod 5) = 4
    with pytest.raises(InvalidInputError):
        taft(1, 5, 1)


def test_taft_relations():
    H = taft(4, 5, 2)
    A = H.alg
    n = 4
    g, x = A.basis_vector(1 * n + 0), A.basis_vector(0 * n + 1)
    gx = A.multiply(g, x)
    assert A.multiply(x, g) == tuple(H.field.normalize(2 * c) for c in gx)
    # g^4 = 1, x^4 = 0
    acc = g
    for _ in range(3):
        acc = A.multiply(acc, g)
    assert acc == A.unit
    xt = x
    for _ in range(3):
        xt = A.multiply(xt, x)
    assert xt == (0,) * 16


def test_taft_2_5_4_matches_sweedler_mod_5():
    """The hand-written Sweedler tables and the generated Taft family must
    agree at n=2, q=-1 after reducing mod 5 and permuting (1,x,g,gx) to
    (1,g,x,gx)."""
    T = taft(2, 5, 4)
    S = sweedler()
    F = GF(5)
    perm = {0: 0, 1: 2, 2: 1, 3: 3}  # taft index -> sweedler index

    got_mul = {}
    for (i, j), row in T.alg.mul.items():
        got_mul[(perm[i], perm[j])] = tuple(
            sorted((perm[k], c) for k, c in row)
        )
    want_mul = {}
    for (i, j), row in S.alg.mul.items():
        want_mul[(i, j)] = tuple(
            sorted((k, F.from_int(int(c))) for k, c in row)
        )
    assert got_mul == want_mul

    got_comul = {
        perm[i]: sorted((perm[j], perm[k], c) for j, k, c in row)
        for i, row in T.comul.items()
    }
    want_comul = {
        i: sorted((j, k, F.from_int(int(c))) for j, k, c in row)
        for i, row in S.comul.items()
    }
    assert got_comul == want_comul

    for j in range(4):
        for i in range(4):
            assert T.antipode.rows[perm[i]][perm[j]] == F.from_int(
                int(S.antipode.rows[i][j])
            )
    for i in range(4):
        assert T.counit[perm[i]] == F.from_int(int(S.counit[i]))


def test_unknown_entry_raises():
    with pytest.raises(InvalidInputError):
        entry("nope")
