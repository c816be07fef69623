"""Curated Hopf algebras used as the test corpus.

Group algebras come from inline Cayley tables (validated as groups before
use).  The Sweedler algebra is written out by hand from its relations; the
Taft family is generated from the q-binomial coproduct formulas, so the two
constructions cross-check each other at taft(2, 5, 4).

Every entry is verified against the full axiom suite the moment it is
built; a failure here is a bug in the constructors, not bad user input.
Documented expected properties are metadata for tests to re-derive, never
a substitute for computing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import StructureAlgebra
from .errors import InternalCheckError, InvalidInputError
from .hopfcore import HopfAlgebra, verify_hopf
from .linalg import Matrix
from .scalars import GF, QQ, Field


# -- group machinery -----------------------------------------------------------


def cyclic_table(n: int) -> tuple:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _perm_group_table(perms: list) -> tuple:
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for s in perms:
        row = []
        for t in perms:
            comp = tuple(s[t[k]] for k in range(len(s)))
            row.append(index[comp])
        table.append(tuple(row))
    return tuple(table)


def s3_table() -> tuple:
    perms = sorted(
        {
            (a, b, c)
            for a in range(3)
            for b in range(3)
            for c in range(3)
            if {a, b, c} == {0, 1, 2}
        }
    )
    return _perm_group_table(list(perms))


def d4_table() -> tuple:
    # symmetries of the square as vertex permutations, closed under composition
    r = (1, 2, 3, 0)
    s = (3, 2, 1, 0)
    elems = [(0, 1, 2, 3)]
    frontier = [(0, 1, 2, 3)]
    while frontier:
        cur = frontier.pop()
        for g in (r, s):
            nxt = tuple(g[cur[k]] for k in range(4))
            if nxt not in elems:
                elems.append(nxt)
                frontier.append(nxt)
    elems.sort()
    return _perm_group_table(elems)


def q8_table() -> tuple:
    # order: 1, -1, i, -i, j, -j, k, -k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    sign = {n: (1 if not n.startswith("-") else -1) for n in names}
    base = {n: n.lstrip("-") for n in names}
    rules = {
        ("1", "1"): (1, "1"),
        ("1", "i"): (1, "i"),
        ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"),
        ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"),
        ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"),
        ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"),
        ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }
    idx = {n: i for i, n in enumerate(names)}
    table = []
    for a in names:
        row = []
        for b in names:
            s0, b0 = rules[(base[a], base[b])]
            s_total = s0 * sign[a] * sign[b]
            row.append(idx[("" if s_total == 1 else "-") + b0])
        table.append(tuple(row))
    return tuple(table)


def _group_identity(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][i] == i and table[i][e] == i for i in range(n)):
            return e
    raise InvalidInputError("not a group: no identity element")


def _check_group(table) -> int:
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= x < n for x in row):
            raise InvalidInputError("not a group: malformed Cayley table")
    e = _group_identity(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise InvalidInputError(
                        f"not a group: associativity fails at {(i, j, k)}"
                    )
    for i in range(n):
        if all(table[i][j] != e for j in range(n)):
            raise InvalidInputError(f"not a group: element {i} has no inverse")
    return e


def group_algebra(table, field: Field, names=None, name: str = "") -> HopfAlgebra:
    """Group Hopf algebra from a Cayley table: Delta g = g(x)g, S(g) = g^-1."""
    e = _check_group(table)
    n = len(table)
    one = field.one()
    mul = {(i, j): ((table[i][j], one),) for i in range(n) for j in range(n)}
    unit = tuple(one if i == e else field.zero() for i in range(n))
    alg = StructureAlgebra.from_sparse(field, n, mul, unit, names)
    comul = {i: ((i, i, one),) for i in range(n)}
    counit = (one,) * n
    inv = [next(j for j in range(n) if table[i][j] == e) for i in range(n)]
    antipode = Matrix.from_entries(field, n, n, (((inv[j], j), one) for j in range(n)))
    return HopfAlgebra.from_sparse(alg, comul, counit, antipode, name)


# -- Sweedler's four-dimensional Hopf algebra ----------------------------------


def sweedler() -> HopfAlgebra:
    """Basis (1, g, x, gx) over the rationals.

    Relations: g^2 = 1, x^2 = 0, xg = -gx.
    Delta g = g(x)g, Delta x = x(x)1 + g(x)x, eps(g) = 1, eps(x) = 0,
    S(g) = g, S(x) = -gx.
    """
    F = QQ
    one = F.one()
    neg = F.from_int(-1)
    mul = {
        (0, 0): ((0, one),),
        (0, 1): ((1, one),),
        (0, 2): ((2, one),),
        (0, 3): ((3, one),),
        (1, 0): ((1, one),),
        (2, 0): ((2, one),),
        (3, 0): ((3, one),),
        (1, 1): ((0, one),),
        (1, 2): ((3, one),),
        (1, 3): ((2, one),),
        (2, 1): ((3, neg),),
        (3, 1): ((2, neg),),
        # x^2 = (gx)x = x(gx) = (gx)(gx) = 0: rows omitted
    }
    unit = (one, F.zero(), F.zero(), F.zero())
    alg = StructureAlgebra.from_sparse(F, 4, mul, unit, ("1", "g", "x", "gx"))
    comul = {
        0: ((0, 0, one),),
        1: ((1, 1, one),),
        2: ((2, 0, one), (1, 2, one)),
        3: ((3, 1, one), (0, 3, one)),
    }
    counit = (one, one, F.zero(), F.zero())
    z = F.zero()
    antipode = Matrix.from_rows(
        F,
        [
            [one, z, z, z],
            [z, one, z, z],
            [z, z, z, one],
            [z, z, neg, z],
        ],
    )
    return HopfAlgebra.from_sparse(alg, comul, counit, antipode, "sweedler")


# -- Taft family ---------------------------------------------------------------


def _multiplicative_order(field: Field, q, cap: int):
    acc = field.one()
    for k in range(1, cap + 1):
        acc = field.normalize(acc * q)
        if acc == field.one():
            return k
    return None


def taft(n: int, p: int, q: int) -> HopfAlgebra:
    """Taft algebra of dimension n^2 over F_p, basis g^i x^j at index i*n + j.

    Relations: g^n = 1, x^n = 0, xg = q gx; Delta g = g(x)g,
    Delta x = x(x)1 + g(x)x.  Requires q of multiplicative order exactly n.
    """
    if n < 2:
        raise InvalidInputError("taft needs n >= 2")
    field = GF(p)
    qq = field.from_int(q)
    if _multiplicative_order(field, qq, n) != n:
        raise InvalidInputError(
            f"taft needs ord(q) = {n}, got q = {q} over GF({p})"
        )
    one = field.one()

    def idx(i: int, j: int) -> int:
        return (i % n) * n + j

    qpow = [one]
    for _ in range(2 * n):
        qpow.append(field.normalize(qpow[-1] * qq))

    def qp(e: int):
        return qpow[e % n]

    # Gaussian binomials at q
    qint = [field.zero()]
    for m in range(1, n + 1):
        qint.append(field.normalize(qint[-1] + qp(m - 1)))
    qfact = [one]
    for m in range(1, n + 1):
        qfact.append(field.normalize(qfact[-1] * qint[m]))

    def qbinom(a: int, b: int):
        return field.normalize(qfact[a] * field.inv(qfact[b] * qfact[a - b]))

    mul = {}
    for i in range(n):
        for j in range(n):
            for u in range(n):
                for v in range(n):
                    if j + v >= n:
                        continue
                    c = qp(j * u)
                    mul[(idx(i, j), idx(u, v))] = ((idx(i + u, j + v), c),)
    unit = tuple(one if t == 0 else field.zero() for t in range(n * n))
    names = []
    for i in range(n):
        for j in range(n):
            gpart = "" if i == 0 else ("g" if i == 1 else f"g{i}")
            xpart = "" if j == 0 else ("x" if j == 1 else f"x{j}")
            names.append((gpart + xpart) or "1")
    alg = StructureAlgebra.from_sparse(field, n * n, mul, unit, names)

    comul = {}
    for i in range(n):
        for j in range(n):
            comul[idx(i, j)] = tuple(
                (idx(i + m, j - m), idx(i, m), qbinom(j, m)) for m in range(j + 1)
            )
    counit = tuple(one if t % n == 0 else field.zero() for t in range(n * n))

    entries = []
    for i in range(n):
        for j in range(n):
            sign = one if j % 2 == 0 else field.from_int(-1)
            entries.append(((idx(-i - j, j), i * n + j), sign * qp(-(j * (j - 1)) // 2 - i * j)))
    antipode = Matrix.from_entries(field, n * n, n * n, entries)
    return HopfAlgebra.from_sparse(
        alg, comul, counit, antipode, f"taft-{n}-{p}-{q}"
    )


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict
    hopf: HopfAlgebra
    expected: dict


def _cyclic(n: int, field: Field, key: str) -> tuple:
    """The params and the group algebra, named key, of the cyclic group of
    order n over field, on the basis 1, g, g2, ..."""
    table = cyclic_table(n)
    names = ("1", "g", *(f"g{i}" for i in range(2, n)))
    return {"table": table, "field": field.name}, group_algebra(table, field, names, key)


_PROPERTIES = ("dim", "commutative", "cocommutative", "separable", "unimodular", "antipode_order")

# key -> (the builder of its params and Hopf algebra, the expected values of
# _PROPERTIES)
_BUILDERS = {
    "qc2": (lambda: _cyclic(2, QQ, "qc2"), (2, True, True, True, True, 1)),
    "qc3": (lambda: _cyclic(3, QQ, "qc3"), (3, True, True, True, True, 2)),
    "f2c2": (lambda: _cyclic(2, GF(2), "f2c2"), (2, True, True, False, True, 1)),
    "f3c3": (lambda: _cyclic(3, GF(3), "f3c3"), (3, True, True, False, True, 2)),
    "f5c5": (lambda: _cyclic(5, GF(5), "f5c5"), (5, True, True, False, True, 2)),
    "f7c3": (lambda: _cyclic(3, GF(7), "f7c3"), (3, True, True, True, True, 2)),
    "qs3": (
        lambda: ({"table": s3_table(), "field": QQ.name}, group_algebra(s3_table(), QQ, None, "qs3")),
        (6, False, True, True, True, 2),
    ),
    "sweedler": (lambda: ({"field": QQ.name}, sweedler()), (4, False, False, False, False, 4)),
    "taft-3-7-2": (lambda: ({"n": 3, "p": 7, "q": 2}, taft(3, 7, 2)), (9, False, False, False, False, 6)),
    "taft-4-5-2": (lambda: ({"n": 4, "p": 5, "q": 2}, taft(4, 5, 2)), (16, False, False, False, False, 8)),
}


def names() -> tuple:
    return tuple(_BUILDERS)


@lru_cache(maxsize=None)
def entry(key: str) -> CatalogEntry:
    if key not in _BUILDERS:
        raise InvalidInputError(f"unknown catalog entry {key!r}")
    build, expected = _BUILDERS[key]
    params, H = build()
    rep = verify_hopf(H, title=f"axioms: {key}")
    if not rep.passed:
        failed = ", ".join(it.name for it in rep.failures())
        raise InternalCheckError(f"catalog entry {key} fails axioms: {failed}")
    return CatalogEntry(key, params, H, dict(zip(_PROPERTIES, expected)))


def entries() -> tuple:
    return tuple(entry(k) for k in names())
