"""Separability and strong separability: the eps(N) criterion, separability
idempotents, Kanzaki elements, and the involutivity consequence of joint
separability and coseparability.

Tensors in A (x) A are dicts {(i, j): c} over basis pairs, zero terms omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import StructureAlgebra, nonzero_row
from .errors import InternalCheckError, SingularError
from .frobenius import (
    FrobeniusSystem,
    IntegralData,
    build_integral_data,
    frobenius_system_from_norm,
)
from .hopfcore import HopfAlgebra, _outer_sum, eval_cov
from .linalg import Matrix
from .report import Report


@dataclass(frozen=True)
class SeparabilityCertificate:
    """element: tensor e in A (x) A; kind: 'ordinary' (a e = e a in the
    bimodule sense) or 'kanzaki' (a may cross the tensor symbol)."""

    element: dict
    kind: str


def is_unit(field, c) -> bool:
    """Invertibility of a scalar; over a field this is being nonzero."""
    return bool(field.normalize(c))


def multiply_out_tensor(A: StructureAlgebra, t: dict) -> tuple:
    """Image of the tensor under the multiplication map."""
    field = A.field
    acc = [field.zero()] * A.dim
    for (i, j), c in t.items():
        for k, ck in A.mul.get((i, j), ()):
            acc[k] = acc[k] + c * ck
    return tuple(field.normalize(v) for v in acc)


def _act_tensor(A: StructureAlgebra, t: dict, a_idx: int, slot: str) -> dict:
    """Multiply one leg of the tensor by the basis element e_a, on the side
    named by slot: 'll' = a.(z (x) w) = az (x) w, 'rr' = z (x) wa,
    'lr' = za (x) w, 'rl' = z (x) aw."""
    field = A.field
    out: dict = {}
    for (i, j), c in t.items():
        if slot == "ll":
            row, keep, first = A.mul.get((a_idx, i), ()), j, True
        elif slot == "lr":
            row, keep, first = A.mul.get((i, a_idx), ()), j, True
        elif slot == "rl":
            row, keep, first = A.mul.get((a_idx, j), ()), i, False
        else:
            row, keep, first = A.mul.get((j, a_idx), ()), i, False
        for k, ck in row:
            key = (k, keep) if first else (keep, k)
            out[key] = out.get(key, field.zero()) + c * ck
    return dict(nonzero_row(field, out))


def check_ordinary_certificate(A: StructureAlgebra, e: dict):
    """mu(e) = 1 and (a (x) 1) e = e (1 (x) a) for every basis a."""
    if multiply_out_tensor(A, e) != A.unit:
        return False, "multiplication does not send the element to 1"
    for a in range(A.dim):
        if _act_tensor(A, e, a, "ll") != _act_tensor(A, e, a, "rr"):
            return False, f"bimodule centrality fails at basis {a}"
    return True, ""


def check_kanzaki_certificate(A: StructureAlgebra, e: dict):
    """mu(e) = 1 and z a (x) w = z (x) a w for every basis a."""
    if multiply_out_tensor(A, e) != A.unit:
        return False, "multiplication does not send the element to 1"
    for a in range(A.dim):
        if _act_tensor(A, e, a, "lr") != _act_tensor(A, e, a, "rl"):
            return False, f"middle crossing fails at basis {a}"
    return True, ""


# -- separability of a Hopf algebra ---------------------------------------------------


def is_separable_hopf(
    H: HopfAlgebra, data: IntegralData, sys: Optional[FrobeniusSystem] = None
) -> tuple:
    """eps(N) invertible iff separable; on success the certificate
    e = sum_i x_i (x) eps(N)^{-1} y_i is assembled and fully verified."""
    field = H.field
    eps_n = eval_cov(field, H.counit, data.norm)
    if not is_unit(field, eps_n):
        return False, None
    if sys is None:
        sys = frobenius_system_from_norm(H, data)
    p = field.inv(eps_n)
    e = _outer_sum(
        field,
        ((x, tuple(field.normalize(p * c) for c in y)) for x, y in zip(sys.xs, sys.ys)),
    )
    ok, detail = check_ordinary_certificate(H.alg, e)
    if not ok:
        raise InternalCheckError(f"separability certificate invalid: {detail}")
    return True, SeparabilityCertificate(e, "ordinary")


def separability_from_system(
    A: StructureAlgebra, sys: FrobeniusSystem, d: Sequence
) -> Optional[SeparabilityCertificate]:
    """If sum_i x_i d y_i = 1, the element sum_i x_i (x) d y_i is a verified
    separability idempotent; otherwise None."""
    field = A.field
    d = tuple(field.normalize(c) for c in d)
    e = _outer_sum(field, ((x, A.multiply(d, y)) for x, y in zip(sys.xs, sys.ys)))
    ok, _ = check_ordinary_certificate(A, e)
    return SeparabilityCertificate(e, "ordinary") if ok else None


def strong_separability(
    H: HopfAlgebra, data: IntegralData, sys: FrobeniusSystem
) -> Optional[SeparabilityCertificate]:
    """Kanzaki element from u = sum_i y_i x_i when u is invertible; also
    checks the inner form nu(a) = u a u^{-1} of the Nakayama automorphism."""
    field = H.field
    u = multiply_out_tensor(H.alg, _outer_sum(field, zip(sys.ys, sys.xs)))
    L = H.alg.left_mult_matrix(u)
    try:
        u_inv = L.inverse().apply(H.unit)
    except SingularError:
        return None
    e = _outer_sum(
        field, ((y, H.alg.multiply(x, u_inv)) for x, y in zip(sys.xs, sys.ys))
    )
    ok, detail = check_kanzaki_certificate(H.alg, e)
    if not ok:
        raise InternalCheckError(f"Kanzaki certificate invalid: {detail}")
    R = H.alg.right_mult_matrix(u_inv)
    Lu = H.alg.left_mult_matrix(u)
    if R.mul(Lu) != sys.nakayama:
        raise InternalCheckError("Nakayama is not conjugation by u")
    return SeparabilityCertificate(e, "kanzaki")


# -- independent decision by linear solve ---------------------------------------------


def idempotent_exists_by_solve(A: StructureAlgebra) -> bool:
    """Decides by exhaustive linear algebra whether any separability
    idempotent exists: one linear system in the dim^2 coefficients of e."""
    field = A.field
    n = A.dim
    # unknown e = sum T[i][j] e_i (x) e_j at column i n + j; row k says
    # mu(e) = 1 at e_k, row n + (a n + r1) n + r2 says the e_r1 (x) e_r2
    # coefficients of (e_a (x) 1) e and e (1 (x) e_a) agree
    entries = []
    for (i, j), terms in A.mul.items():
        for k, c in terms:
            entries.append(((k, i * n + j), c))
            for r in range(n):
                entries.append(((n + (i * n + k) * n + r, j * n + r), c))
                entries.append(((n + (j * n + r) * n + k, r * n + i), -c))
    rhs = tuple(A.unit) + (field.zero(),) * n**3
    return Matrix.from_entries(field, n + n**3, n * n, entries).solve(rhs) is not None


# -- involutivity from two-sided separability ------------------------------------------


def etingof_gelaki_check(H: HopfAlgebra, data: IntegralData, sep: bool) -> Report:
    """If H and its dual are both separable, the antipode must be an
    involution; separability alone already forces the trivial modular pair.
    sep is the separability of H as is_separable_hopf decided it with data;
    the dual's is decided here."""
    field = H.field
    rep = Report("separability and involutivity")
    if field.characteristic == 2:
        rep.add("characteristic 2 flagged", True, "2 is a zero divisor here")

    K = H.dual
    cosep, _ = is_separable_hopf(K, build_integral_data(K))
    rep.add("separability decided", True, f"separable={sep}, coseparable={cosep}")

    if sep:
        rep.add("separable implies trivial modular function", data.modular_fn == H.counit)
        rep.add("separable implies trivial modular element", data.modular_elt == H.unit)
    if sep and cosep:
        rep.add(
            "antipode is an involution",
            H.antipode.pow_(2) == Matrix.identity(field, H.dim),
        )
    else:
        rep.add("involution check", True, "hypotheses not met")
    return rep
