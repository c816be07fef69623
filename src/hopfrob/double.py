"""Drinfeld double D(H): the dual with opposite coproduct tensored with H,
multiplication by the straightening rule, assembled entirely from structure
constants.

Every table of D is built from H's table arrays under the key
linalg.machine_prime gives, so the engines differ only in the dtype of the
values: int64 residues over an admitted GF(p), an object array of Python
scalars otherwise.  The straightening (_straighten_table), the mul table
(_double_mul, 30,272 term updates on D(taft-4-5-2) where a sum over every
index quadruple visits 65,536), the comul and the antipode are joins on
index arrays (linalg.join), each key summed once by linalg.summed.  Before
anything is assembled the straightening is replayed through honest
products of sparse rows (_straighten_direct), in Python.

Basis order: pair (a, i) with a indexing the dual factor and i indexing H,
flattened row-major as a*dim(H) + i.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (
    StructureAlgebra,
    TableView,
    comul_arrays,
    nonzero_row,
    read_only,
    structure_arrays,
    vec_to_row,
)
from .errors import InternalCheckError
from .hopfcore import (
    HopfAlgebra,
    dual_left_integral_space,
    integral_operator,
    left_integral_space,
)
from .linalg import Matrix, annihilates, nonzero_entries
from .report import Report


@dataclass(frozen=True)
class DoubleReport:
    double: HopfAlgebra
    report: Report
    dual_integral_dim: int
    integral_dim: int
    unimodular: bool


def _straighten_table(H: HopfAlgebra) -> tuple:
    """The straightening of H as arrays (ib, v, s, c) in key order
    ((ib n + v) n + s), ib = i n + b: the product of the embedded e_i with
    the embedded dual basis functional f_b is sum c (f_v tensor e_s) over
    the entries of ib.  c sums the e_b-coefficients of c' Sbar(e_t) e_v e_r
    over the terms c' e_r e_s e_t of (Delta x id)Delta(e_i), made by four
    joins on H's table arrays: Delta with Delta, then Sbar's entries (Sbar(e_t)
    = sum x e_w), then the products e_w e_v = sum y e_k, then the products
    e_k e_r = sum z e_b.

    Bound (int64): each join multiplies two residues below p < 2^31 and
    reduces (linalg.join); a key sums fewer terms than the last join holds,
    so fewer than 2^32 residues below 2^31 unless its arrays pass 2^32
    entries (32 GiB each), and every sum stays below 2^63.  Every key is
    below n^4, which int64 holds for n < 2^15.
    """
    import numpy as np

    field, n = H.field, H.dim
    p = linalg.machine_prime(field)
    m, u, v, d = comul_arrays(H, p)
    i, j, k, c = structure_arrays(H.alg, p)
    w, t, x = nonzero_entries(H.antipode_inv())
    # Delta(e_a) = d e_u e_v, then Delta(e_u) = d' e_r e_s: (a; r, s, t = v)
    lo, hi, val = linalg.join(field, (u, d), (m, d))
    ia, r, s, tt = m[lo], u[hi], v[hi], v[lo]
    lo, hi, val = linalg.join(field, (tt, val), (t, x.astype(d.dtype)))
    ia, r, s, ww = ia[lo], r[lo], s[lo], w[hi]
    lo, hi, val = linalg.join(field, (ww, val), (i, c))
    ia, r, s, vv, kk = ia[lo], r[lo], s[lo], j[hi], k[hi]
    lo, hi, val = linalg.join(field, (kk * n + r, val), (i * n + j, c))
    key = ((ia[lo] * n + k[hi]) * n + vv[lo]) * n + s[lo]
    key, val = linalg.summed(field, key, val)
    ib, vs = np.divmod(key, n * n)
    return (ib, *np.divmod(vs, n), val)


def _straighten_direct(H: HopfAlgebra, rows):
    """The rows i in rows of the same straightening computed the slow way,
    one at a time, each as one dict {(v, s): c} per b: the functional
    y -> f_b(Sbar(e_t) y e_r) is evaluated by two honest products of sparse
    rows and read at every b, Sbar(e_t) e_v once per (t, v) for all the
    rows, then times e_r once per term and v."""
    field = H.field
    zero = field.zero()
    one = field.one()
    sbar = H.antipode_inv()
    products: dict = {}
    for i in rows:
        per_b = [{} for _ in range(H.dim)]
        for r, s, t, c in H.delta2_row(i):
            if t not in products:
                left = vec_to_row(field, sbar.col(t))
                products[t] = [H.alg.multiply_rows(left, ((v, one),)) for v in range(H.dim)]
            for v, w in enumerate(products[t]):
                w = H.alg.multiply_rows(w, ((r, one),))
                for b, wb in w:
                    acc = per_b[b]
                    acc[(v, s)] = acc.get((v, s), zero) + c * wb
        yield [dict(nonzero_row(field, acc)) for acc in per_b]


def _check_straightening(H: HopfAlgebra, straighten: tuple) -> None:
    """Compare the straightening arrays with _straighten_direct at every
    pair (i, b); a mismatch is a construction bug, not bad input, and
    raises InternalCheckError naming the pair."""
    n = H.dim
    ib, v, s, c = straighten
    got = [{} for _ in range(n * n)]
    for x, vs, val in zip(ib.tolist(), zip(v.tolist(), s.tolist()), c.tolist()):
        got[x][vs] = val
    for i, row in enumerate(_straighten_direct(H, range(n))):
        for b, direct in enumerate(row):
            if got[i * n + b] != direct:
                raise InternalCheckError(f"straightening forms disagree at pair {(i, b)}")


def _double_mul(H: HopfAlgebra, straighten: tuple) -> tuple:
    """The mul table of D(H) as its table arrays (I, J, K, c) in ascending
    key order: (f_a e_i)(f_b e_j) = sum c (f_a f_v)(e_s e_j) over the
    straightening entries (ib, v, s, c), ib = i n + b, contracted over the
    nonzero products f_a f_v of each v and e_s e_j of each s, in blocks of
    the dual index a.

    A block expands each term (k; a, v, c2) of the coproducts of H with
    first leg a (f_a f_v = sum c2 f_k) over the straightening entries
    (ib, v, s, c) of its v, then each of those over the products
    e_s e_j = c3 e_m of its s (linalg.join).  The term c c2 c3 lands at
    row r = (i b j), column (k m) of the block, whose row (a*n + i, b*n + j)
    of the table is then in key order along r.  linalg.summed sums the
    repeated keys r*n^2 + (k m) and drops the sums that vanish, so each
    block's entries follow the last block's in key order.

    Bound (int64): c c2 < p^2 < 2^62, reduced mod p, then times c3 < 2^62,
    reduced mod p; a key sums one term per pair (v, s), fewer than 2^32
    residues below 2^31 for n < 2^16, so every sum stays below 2^63.  Every
    key of the table, (a n + i) N^2 + (b n + j) N + (k m) with N = n^2, is
    below N^3 = n^6, which int64 holds for n <= 1448.
    """
    import numpy as np

    field = H.field
    n = H.dim
    N = n * n
    p = linalg.machine_prime(field)
    m, u, v, d = comul_arrays(H, p)
    sj, jj, mm, c3 = structure_arrays(H.alg, p)
    ib, tv, ts, tc = straighten
    # the coproduct terms by first leg a
    order = np.argsort(u, kind="stable")
    m, v, d = m[order], v[order], d[order]
    by_a = np.searchsorted(u[order], np.arange(n + 1))

    keys, vals = [], []
    for a in range(n):
        block = slice(by_a[a], by_a[a + 1])
        e, t, cc = linalg.join(field, (v[block], d[block]), (tv, tc))
        x, q, val = linalg.join(field, (ts[t], cc), (sj, c3))
        key = (ib[t][x] * n + jj[q]) * N + m[block][e][x] * n + mm[q]
        del e, t, cc, x, q
        key, val = linalg.summed(field, key, val)
        keys.append(key + a * n * N * N)
        vals.append(val)
    # (a n + i) N^2 + (b n + j) N + (k m) = ((a n + i) N + b n + j) N + k m
    ij, k = np.divmod(np.concatenate(keys), N)
    return (*np.divmod(ij, N), k, np.concatenate(vals))


def drinfeld_double(H: HopfAlgebra) -> HopfAlgebra:
    """The double as a Hopf algebra on dim(H)^2 structure constants.

    The straightening is checked against its direct evaluation at every
    pair (_check_straightening) before anything is assembled.  The mul
    table (_double_mul), comul and antipode are then built from nonzero
    constants only.  Every row leaves sorted, normalized and free of zeros,
    the form the tables hold, so D is built by the dataclass constructors
    without a second cleaning.
    """
    import numpy as np

    field = H.field
    n = H.dim
    N = n * n

    straighten = _straighten_table(H)
    _check_straightening(H, straighten)

    unit = tuple(
        field.normalize(H.counit[a] * H.unit[i]) for a in range(n) for i in range(n)
    )
    names = tuple(
        f"{H.basis_names[a]}*.{H.basis_names[i]}" for a in range(n) for i in range(n)
    )
    p = linalg.machine_prime(field)
    mul = TableView(read_only(_double_mul(H, straighten)), p, 2, N)
    alg = StructureAlgebra(field, N, mul, unit, names)

    # coproduct: opposite dual coproduct on the first factor,
    # Delta(f_a e_i) = sum c d (f_v e_s) (x) (f_u e_t) over every pair of
    # e_u e_v = c e_a and Delta(e_i) = d e_s e_t, the outer product of the
    # two tables (every pair meets at the one key 0).  Every key is below
    # N^3 = n^6, which int64 holds for n <= 1448, and sums one term.
    mu, mv, ma, mc = structure_arrays(H.alg, p)
    ci, cs, ct, cd = comul_arrays(H, p)
    x, y, val = linalg.join(field, (np.zeros_like(ma), mc), (np.zeros_like(ci), cd))
    key = ((ma[x] * n + ci[y]) * N + mv[x] * n + cs[y]) * N + mu[x] * n + ct[y]
    key, val = linalg.summed(field, key, val)
    row, col = np.divmod(key, N * N)
    comul = TableView(read_only((row, *np.divmod(col, N), val)), p, 1, N, every=N)

    counit = tuple(
        field.normalize(H.unit[a] * H.counit[i]) for a in range(n) for i in range(n)
    )

    # antipode: S'(f_b tensor e_j) = (eps tensor S e_j) * (f_b o Sbar tensor 1),
    # column b*n + j summed over the straightening entries (k v, vv, ss, c)
    # joined on k with S(e_j) = sum ck e_k and on v with Sbar's entry cv at (b, v)
    ib, vv, ss, c = straighten
    k, j, ck = nonzero_entries(H.antipode)
    b, v, cv = nonzero_entries(H.antipode_inv())
    x, y, val = linalg.join(field, (ib // n, c), (k, ck.astype(c.dtype)))
    x2, y2, val = linalg.join(field, (ib[x] % n, val), (v, cv.astype(c.dtype)))
    rows = vv[x][x2] * n + ss[x][x2]
    cols = b[y2] * n + j[y][x2]
    antipode = Matrix.from_entries(field, N, N, zip(zip(rows.tolist(), cols.tolist()), val.tolist()))

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
