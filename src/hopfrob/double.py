"""Drinfeld double D(H): the dual with opposite coproduct tensored with H,
multiplication by the straightening rule, assembled entirely from structure
constants.

Basis order: pair (a, i) with a indexing the dual factor and i indexing H,
flattened row-major as a*dim(H) + i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import StructureAlgebra, nonzero_row
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
                    if cu == zero:
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
    evaluated by two honest products, once per term and v, and read at
    every b."""
    field = H.field
    zero = field.zero()
    sbar = H.antipode_inv()
    per_b = [{} for _ in range(H.dim)]
    for r, s, t, c in H.delta2_row(i):
        left = sbar.col(t)
        for v in range(H.dim):
            w = H.alg.multiply(left, H.alg.basis_vector(v))
            w = H.alg.multiply(w, H.alg.basis_vector(r))
            for b, wb in enumerate(w):
                if wb != zero:
                    acc = per_b[b]
                    acc[(v, s)] = acc.get((v, s), zero) + c * wb
    return [dict(nonzero_row(field, acc)) for acc in per_b]


def drinfeld_double(H: HopfAlgebra) -> HopfAlgebra:
    """The double as a Hopf algebra on dim(H)^2 structure constants.

    Every straightening entry is replayed through the direct sandwich
    evaluation; a mismatch is a construction bug, not bad input.
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

    # dual algebra rows: (f_a f_v)_k read off the coproduct of e_k
    dual_rows: dict = {}
    for k in range(n):
        for p, q, c in H.comul.get(k, ()):
            dual_rows.setdefault((p, q), []).append((k, c))

    mul: dict = {}
    for a in range(n):
        for i in range(n):
            row_cache = straighten[i]
            for b in range(n):
                for j in range(n):
                    acc: dict = {}
                    for v, s, c in row_cache[b]:
                        for k, c2 in dual_rows.get((a, v), ()):
                            for m, c3 in H.alg.mul.get((s, j), ()):
                                key = k * n + m
                                acc[key] = acc.get(key, zero) + c * c2 * c3
                    row = nonzero_row(field, acc)
                    if row:
                        mul[(a * n + i, b * n + j)] = row

    unit = tuple(
        field.normalize(H.counit[a] * H.unit[i]) for a in range(n) for i in range(n)
    )
    names = tuple(
        f"{H.basis_names[a]}*.{H.basis_names[i]}" for a in range(n) for i in range(n)
    )
    alg = StructureAlgebra.from_sparse(field, N, mul, unit, names)

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

    counit = tuple(
        field.normalize(H.unit[a] * H.counit[i]) for a in range(n) for i in range(n)
    )

    # antipode: S'(f_b tensor e_j) = (eps tensor S e_j) * (f_b o Sbar tensor 1)
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
            cols.append(tuple(field.normalize(c) for c in acc_vec))
    antipode = Matrix.from_columns(field, cols)

    return HopfAlgebra.from_sparse(
        alg, comul, counit, antipode, name=f"D({H.name or 'H'})"
    )


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
