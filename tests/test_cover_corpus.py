"""The agreement corpus of the product cover.  verify_hopf checks
associativity and Delta multiplicative on the generators that
algebra.product_cover reads off the mul table, and on the whole basis only
after a failure there.  On inputs with one structure constant moved, its
items (name, verdict, detail) must be those of the same check with the
cover made the whole basis, on every engine."""

import random

import pytest
from conftest import double_of

from hopfrob import algebra, hopfcore
from hopfrob.algebra import StructureAlgebra, product_cover
from hopfrob.catalog import entry, names
from hopfrob.hopfcore import HopfAlgebra, dual_hopf, verify_hopf

# the doubles of the corpus: every catalog double up to D(qs3), and D(taft-3-7-2)
DOUBLE_KEYS = [k for k in names() if entry(k).hopf.dim ** 2 <= 36] + ["taft-3-7-2"]
# mutants per table of each sampled double
SAMPLE = 20


def _positions(H) -> list:
    """("mul", (i, j), t) and ("comul", i, t) for each nonzero constant of
    the mul and comul tables of H, t its place in the row."""
    return [("mul", key, t) for key, row in H.alg.mul.items() for t in range(len(row))] + [
        ("comul", i, t) for i, terms in H.comul.items() for t in range(len(terms))
    ]


def _moved(H, position) -> HopfAlgebra:
    """H with the constant at position moved by one."""
    table, key, t = position
    F = H.field
    if table == "mul":
        mul = dict(H.alg.mul)
        row = list(mul[key])
        k, c = row[t]
        row[t] = (k, F.normalize(c + 1))
        mul[key] = row
        alg = StructureAlgebra.from_sparse(F, H.dim, mul, H.alg.unit, H.alg.basis_names)
        return HopfAlgebra.from_sparse(alg, H.comul, H.counit, H.antipode)
    comul = dict(H.comul)
    terms = list(comul[key])
    j, k, c = terms[t]
    terms[t] = (j, k, F.normalize(c + 1))
    comul[key] = terms
    return HopfAlgebra.from_sparse(H.alg, comul, H.counit, H.antipode)


def _sampled(H, seed: int, size: int = SAMPLE) -> list:
    """size seeded positions of each table of H (all when it has fewer)."""
    rng = random.Random(seed)
    out = []
    for table in ("mul", "comul"):
        found = [pos for pos in _positions(H) if pos[0] == table]
        out += rng.sample(found, min(size, len(found)))
    return out


def _items(H) -> list:
    return [(it.name, it.ok, it.detail) for it in verify_hopf(H).items]


def _agree(mutants, monkeypatch) -> int:
    """Assert that each mutant gives the items of the whole-basis check;
    the number of mutants that fail.  The cover is a cached property of
    each algebra, so the whole basis is put in its place by a property of
    the class, which no cached value shadows."""
    by_cover = [_items(M) for M in mutants]
    with monkeypatch.context() as m:
        m.setattr(StructureAlgebra, "cover", property(lambda A: None))
        assert [_items(M) for M in mutants] == by_cover
    return sum(not all(ok for _, ok, _ in items) for items in by_cover)


@pytest.mark.parametrize("key", names())
def test_cover_agrees_with_the_basis_on_every_moved_constant(key, monkeypatch):
    """Each catalog entry and its dual, with each nonzero mul and comul
    constant moved by one in turn, on the default engine.  Only
    taft-4-5-2 and its dual (dim 16) lie above the crossover
    algebra._SPARSE_DIM, so the kernels check those and the loops the
    others."""
    H = entry(key).hopf
    for K in (H, dual_hopf(H)):
        mutants = [_moved(K, pos) for pos in _positions(K)]
        assert _agree(mutants, monkeypatch) > 0


@pytest.mark.parametrize("key", DOUBLE_KEYS)
def test_cover_agrees_with_the_basis_on_sampled_double_mutants(key, monkeypatch):
    """A seeded sample of SAMPLE moved constants of each table of each
    double of the corpus, on the default engine."""
    D = double_of(key)
    assert _agree([_moved(D, pos) for pos in _sampled(D, 16)], monkeypatch) > 0


@pytest.mark.parametrize("engine", ["generic_engine", "smallest_blocks"])
@pytest.mark.parametrize("key", ["sweedler", "f5c5", "qs3"])
def test_cover_agrees_with_the_basis_on_every_engine(key, engine, monkeypatch, request):
    """The doubles of the corpus above the crossover but D(taft-3-7-2)
    (whose corrupted copies the engine and block-size tests of
    test_hopfcore check through the cover), two seeded moved constants per
    table, under the Python-scalar engine and under one-item blocks."""
    D = double_of(key)
    assert D.dim > algebra._SPARSE_DIM
    mutants = [_moved(D, pos) for pos in _sampled(D, 17, 2)]
    request.getfixturevalue(engine)()
    assert _agree(mutants, monkeypatch) > 0


@pytest.mark.parametrize("key", ["taft-3-7-2", "taft-4-5-2"])
def test_kernels_see_the_basis_only_after_a_failure_on_the_generators(key, monkeypatch):
    """On a valid double the quadratic kernels get only the generators of
    the cover, one call each.  On a copy with one comul constant moved the
    Delta kernel runs on the basis only after it fails on the generators,
    and associativity, which holds, never does."""
    D = double_of(key)
    cover, _ = product_cover(D.alg)
    calls = []
    for module, name in ((algebra, "_associativity_failure"), (hopfcore, "_delta_failure")):
        f = getattr(module, name)

        def spied(X, rows, *rest, f=f, name=name):
            out = f(X, rows, *rest)
            calls.append((name, None if rows is None else tuple(rows), out is None))
            return out

        monkeypatch.setattr(module, name, spied)
    assert verify_hopf(D).passed
    assert calls == [("_associativity_failure", cover, True), ("_delta_failure", cover, True)]
    calls.clear()
    moved = next(pos for pos in _sampled(D, 3) if pos[0] == "comul")
    assert not verify_hopf(_moved(D, moved)).passed
    assert calls == [
        ("_associativity_failure", cover, True),
        ("_delta_failure", cover, False),
        ("_delta_failure", None, False),
    ]
