"""Drinfeld double D(H): the dual with opposite coproduct tensored with H,
multiplication by the straightening rule, assembled entirely from structure
constants.

The straightening table of H is built once and every entry is replayed
through honest products before anything else is assembled.  D's mul table
is then a contraction over nonzero constants only: on D(taft-4-5-2) it
makes 30,272 term updates, one per term of the table, where a sum over
every index quadruple (a, i, b, j) visits 65,536.  It is one numpy routine
(_double_mul) on H's table arrays under the key linalg.machine_prime gives,
so the engines differ there only in the dtype of the values: int64
residues over an admitted GF(p), an object array of Python scalars
otherwise, each reduced by linalg.normalized and summed by linalg.summed.
The comul and the antipode's columns are summed over nonzero constants in
Python.

Basis order: pair (a, i) with a indexing the dual factor and i indexing H,
flattened row-major as a*dim(H) + i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import linalg
from .algebra import StructureAlgebra, comul_arrays, nonzero_row, structure_arrays, vec_to_row
from .errors import InternalCheckError
from .hopfcore import (
    HopfAlgebra,
    dual_left_integral_space,
    integral_operator,
    left_integral_space,
)
from .linalg import Matrix, annihilates
from .report import Report


@dataclass(frozen=True)
class DoubleReport:
    double: HopfAlgebra
    report: Report
    dual_integral_dim: int
    integral_dim: int
    unimodular: bool


def _sandwich_table(H: HopfAlgebra):
    """pe2[(u, w)][b] = [(v, c), ...] with c the e_b-coefficient of
    e_u e_v e_w."""
    field = H.field
    zero = field.zero()
    table: dict = {}
    for u in range(H.dim):
        for v in range(H.dim):
            uv = H.alg.mul.get((u, v), ())
            for w in range(H.dim):
                acc: dict = {}
                for k, c in uv:
                    for b, c2 in H.alg.mul.get((k, w), ()):
                        acc[b] = acc.get(b, zero) + c * c2
                for b, c in nonzero_row(field, acc):
                    table.setdefault((u, w), {}).setdefault(b, []).append((v, c))
    return table


def _straighten_table(H: HopfAlgebra):
    """straighten[i][b] = [(v, s, c), ...]: the product of the embedded e_i
    with the embedded dual basis functional f_b, written back in the
    dual-first order: sum c * (f_v tensor e_s)."""
    field = H.field
    zero = field.zero()
    sbar = H.antipode_inv()
    pe2 = _sandwich_table(H)
    d2 = {i: H.delta2_row(i) for i in range(H.dim)}
    table = []
    for i in range(H.dim):
        per_b = []
        for b in range(H.dim):
            acc: dict = {}
            for r, s, t, c in d2[i]:
                for u in range(H.dim):
                    cu = sbar.rows[u][t]
                    if not cu:
                        continue
                    for v, c2 in pe2.get((u, r), {}).get(b, ()):
                        key = (v, s)
                        acc[key] = acc.get(key, zero) + c * cu * c2
            per_b.append([(v, s, c) for (v, s), c in nonzero_row(field, acc)])
        table.append(per_b)
    return table


def _straighten_direct(H: HopfAlgebra, i: int):
    """Row i of the same straightening computed the slow way, as one dict
    {(v, s): c} per b: the functional y -> f_b(Sbar(e_t) y e_r) is
    evaluated by two honest products of sparse rows, once per term and v,
    and read at every b."""
    field = H.field
    zero = field.zero()
    one = field.one()
    sbar = H.antipode_inv()
    per_b = [{} for _ in range(H.dim)]
    for r, s, t, c in H.delta2_row(i):
        left = vec_to_row(field, sbar.col(t))
        for v in range(H.dim):
            w = H.alg.multiply_rows(left, ((v, one),))
            w = H.alg.multiply_rows(w, ((r, one),))
            for b, wb in w:
                acc = per_b[b]
                acc[(v, s)] = acc.get((v, s), zero) + c * wb
    return [dict(nonzero_row(field, acc)) for acc in per_b]


def _double_mul(H: HopfAlgebra, straighten) -> dict:
    """The mul table of D(H) in ascending key order: (f_a e_i)(f_b e_j) =
    sum c (f_a f_v)(e_s e_j) over the entries (v, s, c) of straighten[i][b],
    contracted over the nonzero products f_a f_v of each v and e_s e_j of
    each s, so a row (a, j) is reached only through nonzero constants.  One
    routine on the table arrays of H under the key linalg.machine_prime
    gives, in blocks of the dual index a; the straightening scalars take the
    dtype of their values, int64 residues or an object array of Python
    scalars, and every reduction goes through linalg.normalized.

    A block expands each term (k; a, v, c2) of the coproducts of H with
    first leg a (f_a f_v = sum c2 f_k) over the straightening entries
    (i, b, v, s, c) of its v, then each of those over the products
    e_s e_j = c3 e_m of its s.  The term c c2 c3 lands at row
    r = (i b j), column (k m) of the block, whose row (a*n + i, b*n + j)
    of the table is then in key order along r.  linalg.summed sums the
    repeated keys r*n^2 + (k m) and drops the sums that vanish, as
    nonzero_row drops them, and the rows of the block go into the table in
    key order.

    Bound (int64): c c2 < p^2 < 2^62, reduced mod p, then times c3 < 2^62,
    reduced mod p; a key sums one term per pair (v, s), fewer than 2^32
    residues below 2^31 for n < 2^16, so every sum stays below 2^63.  Every
    key is below n^3 n^2 = n^5, which int64 holds for n <= 6208 (D of dim
    3.8e7, whose straightening table alone is n^2 Python lists).
    """
    import numpy as np

    field = H.field
    n = H.dim
    N = n * n
    p = linalg.machine_prime(field)
    m, u, v, d = comul_arrays(H, p)
    sj, jj, mm, c3 = structure_arrays(H.alg, p)
    # the straightening entries, (i b) = i*n + b, sorted by v
    counts = np.fromiter(map(len, chain.from_iterable(straighten)), dtype=np.int64, count=N)
    ent = chain.from_iterable(chain.from_iterable(chain.from_iterable(straighten)))
    ent = np.fromiter(ent, dtype=d.dtype, count=3 * int(counts.sum())).reshape(-1, 3)
    tv, ts = ent[:, 0].astype(np.int64), ent[:, 1].astype(np.int64)
    order = np.argsort(tv, kind="stable")
    ib, tv, ts, tc = np.repeat(np.arange(N), counts)[order], tv[order], ts[order], ent[order, 2]
    # the products e_s e_j sorted by s, the coproduct terms by first leg a
    order = np.argsort(sj, kind="stable")
    sj, jj, mm, c3 = sj[order], jj[order], mm[order], c3[order]
    order = np.argsort(u, kind="stable")
    m, u, v, d = m[order], u[order], v[order], d[order]
    by_v, by_s, by_a = (np.searchsorted(x, np.arange(n + 1)) for x in (tv, sj, u))

    keys, rows = [], []
    for a in range(n):
        e0, e1 = by_a[a], by_a[a + 1]
        e, t = _expand(v[e0:e1], by_v)
        e += e0
        cc = linalg.normalized(field, d[e] * tc[t])
        x, q = _expand(ts[t], by_s)
        key = (ib[t][x] * n + jj[q]) * N + m[e][x] * n + mm[q]
        val = linalg.normalized(field, cc[x] * c3[q])
        del e, t, cc, x, q
        key, val = linalg.summed(field, key, val)
        r, col = np.divmod(key, N)
        terms = list(zip(col.tolist(), val.tolist()))
        starts = np.flatnonzero(np.diff(r, prepend=-1))
        ends = [*starts[1:].tolist(), len(terms)]
        keys.extend((a * n + row // N, row % N) for row in r[starts].tolist())
        rows.extend(tuple(terms[s0:s1]) for s0, s1 in zip(starts.tolist(), ends))
    return dict(zip(keys, rows))


def _expand(groups, bounds) -> tuple:
    """(t, q): for each item t, in order, every member q of its group
    groups[t], the members of group g being bounds[g] <= q < bounds[g+1]."""
    import numpy as np

    reps = bounds[groups + 1] - bounds[groups]
    t = np.repeat(np.arange(len(groups)), reps)
    offsets = np.cumsum(reps) - reps - bounds[groups]
    return t, np.arange(len(t)) - np.repeat(offsets, reps)


def drinfeld_double(H: HopfAlgebra) -> HopfAlgebra:
    """The double as a Hopf algebra on dim(H)^2 structure constants.

    Every straightening entry is replayed through the direct sandwich
    evaluation; a mismatch is a construction bug, not bad input, and raises
    InternalCheckError naming the pair.  The mul table (_double_mul), comul
    and antipode are then summed over nonzero constants only.  Every row
    leaves sorted, normalized and free of zeros, the form the tables hold,
    so D is built by the dataclass constructors without a second cleaning.
    """
    field = H.field
    n = H.dim
    N = n * n
    zero = field.zero()

    straighten = _straighten_table(H)
    for i in range(n):
        direct = _straighten_direct(H, i)
        for b in range(n):
            got = {(v, s): c for v, s, c in straighten[i][b]}
            if got != direct[b]:
                raise InternalCheckError(
                    f"straightening forms disagree at pair {(i, b)}"
                )

    unit = tuple(
        field.normalize(H.counit[a] * H.unit[i]) for a in range(n) for i in range(n)
    )
    names = tuple(
        f"{H.basis_names[a]}*.{H.basis_names[i]}" for a in range(n) for i in range(n)
    )
    alg = StructureAlgebra(field, N, _double_mul(H, straighten), unit, names)

    # coproduct: opposite dual coproduct on the first factor
    mul_by_result: dict = {}
    for (u, v), terms in H.alg.mul.items():
        for a, c in terms:
            mul_by_result.setdefault(a, []).append((u, v, c))
    comul: dict = {}
    for a in range(n):
        pairs = mul_by_result.get(a, ())
        for i in range(n):
            acc: dict = {}
            for u, v, c in pairs:
                for s, t, c2 in H.comul.get(i, ()):
                    key = (v * n + s, u * n + t)
                    acc[key] = acc.get(key, zero) + c * c2
            terms = tuple((jj, kk, c) for (jj, kk), c in nonzero_row(field, acc))
            if terms:
                comul[a * n + i] = terms
    for k in range(N):
        comul.setdefault(k, ())

    counit = tuple(
        field.normalize(H.unit[a] * H.counit[i]) for a in range(n) for i in range(n)
    )

    # antipode: S'(f_b tensor e_j) = (eps tensor S e_j) * (f_b o Sbar tensor 1),
    # column b*n + j summed over the nonzero entries of S and Sbar
    sbar = H.antipode_inv()
    s_cols = [vec_to_row(field, H.antipode.col(j)) for j in range(n)]
    sbar_rows = [vec_to_row(field, sbar.rows[b]) for b in range(n)]
    antipode = Matrix.from_entries(
        field,
        N,
        N,
        (
            ((vv * n + ss, b * n + j), ck * cv * c)
            for b in range(n)
            for j in range(n)
            for k, ck in s_cols[j]
            for v, cv in sbar_rows[b]
            for vv, ss, c in straighten[k][v]
        ),
    )

    return HopfAlgebra(alg, comul, counit, antipode, name=f"D({H.name or 'H'})")


def embed_algebra(H: HopfAlgebra, v) -> tuple:
    """H into the double: e_i -> eps tensor e_i."""
    field = H.field
    n = H.dim
    out = [field.zero()] * (n * n)
    for a in range(n):
        for i in range(n):
            out[a * n + i] = field.normalize(H.counit[a] * v[i])
    return tuple(out)


def embed_dual(H: HopfAlgebra, f) -> tuple:
    """H* into the double: f -> f tensor 1."""
    field = H.field
    n = H.dim
    out = [field.zero()] * (n * n)
    for a in range(n):
        for i in range(n):
            out[a * n + i] = field.normalize(f[a] * H.unit[i])
    return tuple(out)


def double_fh_check(D: HopfAlgebra) -> DoubleReport:
    """The double D always has a one-dimensional space of left integrals in
    its dual; its own integral dimension and unimodularity are reported."""
    rep = Report(f"integral structure of {D.name}")

    dual_ints = dual_left_integral_space(D)
    rep.add("dual integral space is one-dimensional", len(dual_ints) == 1,
            f"dimension {len(dual_ints)}")

    ints = left_integral_space(D)
    rep.add("integral space is one-dimensional", len(ints) == 1,
            f"dimension {len(ints)}")

    # T is a left integral; D is unimodular when it is also a right one
    unimodular = len(ints) == 1 and annihilates(D.field, integral_operator(D, "right"), ints[0])
    rep.add("unimodularity decided", True, f"unimodular={unimodular}")
    return DoubleReport(D, rep, len(dual_ints), len(ints), unimodular)
