"""Exact arithmetic in Z[w], w**2 = -5, and a module-transport certificate.

Over this ring (class number two) a nonzero ideal I need not be free as a
module, yet the square of every ideal class is trivial.  Whenever I**2 is
principal with generator pi, a 2x2 change of basis C over the fraction field
carries the column module I (+) I onto R (+) R; conjugating by C then makes
the 2x2 matrix module over I free of rank one even when I itself is not.
This file provides the ideal layer (Hermite normal forms, complete
principality decisions, conjugates, inverses) and the transport layer
(construction of C, its verification contract, and the module-law report).

Conventions.  Elements are written (a + b*w)/den with integers a, b and a
positive denominator; "w" always denotes sqrt(-5).  An ideal is stored by
its canonical Hermite basis ((a, b), (0, d)) meaning the lattice spanned by
a + b*w and d*w, with a > 0, d > 0, 0 <= b < d.  Since the unit group is
{1, -1}, principal generators are sign-normalized to have a > 0, or a == 0
and b > 0.  All principality searches here are complete decisions: a
generator must satisfy the norm equation u**2 + 5*v**2 = N(I), which bounds
|u| and |v| intrinsically.  Only the Bezout search inside steinitz_matrix is
a bounded heuristic; exhausting its bound raises InconclusiveSearchError
rather than asserting nonexistence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InconclusiveSearchError, InternalCheckError, InvalidInputError
from .linalg import Matrix
from .report import Report
from .scalars import QQ

_BEZOUT_BOUND = 10


@dataclass(frozen=True)
class QuadElement:
    """The number (a + b*w) / den, stored in lowest terms with den > 0."""

    a: int
    b: int
    den: int = 1

    def __post_init__(self) -> None:
        if not all(isinstance(x, int) for x in (self.a, self.b, self.den)):
            raise InvalidInputError("quadratic element parts must be integers")
        if self.den == 0:
            raise InvalidInputError("zero denominator")
        a, b, den = self.a, self.b, self.den
        if den < 0:
            a, b, den = -a, -b, -den
        g = math.gcd(a, b, den)
        if g > 1:
            a, b, den = a // g, b // g, den // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "den", den)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(x: "QuadElement | int") -> "QuadElement":
        if isinstance(x, QuadElement):
            return x
        if isinstance(x, int):
            return QuadElement(x, 0)
        raise InvalidInputError(f"cannot interpret {x!r} as a quadratic element")

    def __add__(self, other: "QuadElement | int") -> "QuadElement":
        o = self._coerce(other)
        return QuadElement(
            self.a * o.den + o.a * self.den,
            self.b * o.den + o.b * self.den,
            self.den * o.den,
        )

    def __sub__(self, other: "QuadElement | int") -> "QuadElement":
        return self + (-self._coerce(other))

    def __neg__(self) -> "QuadElement":
        return QuadElement(-self.a, -self.b, self.den)

    def __mul__(self, other: "QuadElement | int") -> "QuadElement":
        o = self._coerce(other)
        return QuadElement(
            self.a * o.a - 5 * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.den * o.den,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other: "QuadElement | int") -> "QuadElement":
        return self * self._coerce(other).inverse()

    def conjugate(self) -> "QuadElement":
        return QuadElement(self.a, -self.b, self.den)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a + 5 * self.b * self.b, self.den * self.den)

    def inverse(self) -> "QuadElement":
        if self.is_zero():
            raise InvalidInputError("division by zero")
        n = self.a * self.a + 5 * self.b * self.b
        return QuadElement(self.den * self.a, -self.den * self.b, n)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.den == 1

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.b == 0:
            body, terms = str(self.a), 1
        else:
            wpart = {1: "w", -1: "-w"}.get(self.b, f"{self.b}w")
            if self.a == 0:
                body, terms = wpart, 1
            else:
                sign = "+" if self.b > 0 else "-"
                body, terms = f"{self.a} {sign} {wpart.lstrip('-')}", 2
        if self.den == 1:
            return body
        return f"({body})/{self.den}" if terms == 2 else f"{body}/{self.den}"


SQRT_MINUS_FIVE = QuadElement(0, 1)


def _extgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s*x + t*y and g >= 0."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf(pairs) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Hermite form ((a, b), (0, d)) of the span of integer pairs, or None
    if the span has rank below two."""
    row0 = None
    tails = []
    for u, v in pairs:
        if u == 0:
            if v != 0:
                tails.append(v)
            continue
        if row0 is None:
            row0 = (u, v)
            continue
        g, s, t = _extgcd(row0[0], u)
        tails.append((u // g) * row0[1] - (row0[0] // g) * v)
        row0 = (g, s * row0[1] + t * v)
    if row0 is None:
        return None
    d = 0
    for v in tails:
        d = math.gcd(d, v)
    if d == 0:
        return None
    a, b = row0
    if a < 0:
        a, b = -a, -b
    return ((a, b % d), (0, d))


def _lattice_contains(rows, u: int, v: int) -> bool:
    (a, b), (_, d) = rows
    if u % a != 0:
        return False
    return (v - (u // a) * b) % d == 0


@dataclass(frozen=True)
class QuadraticIdeal:
    """Nonzero ideal of Z[w] by its canonical Hermite basis.

    rows = ((a, b), (0, d)) spans {a + b*w, d*w}; canonical means a > 0,
    d > 0, 0 <= b < d, and the lattice is closed under multiplication by w.
    Construct through from_generators or from_lattice, which canonicalize.
    """

    rows: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        rows = self.rows
        try:
            ((a, b), (z, d)) = rows
        except (TypeError, ValueError):
            raise InvalidInputError("ideal rows must be a 2x2 integer table") from None
        if not all(isinstance(x, int) for x in (a, b, z, d)):
            raise InvalidInputError("ideal rows must be a 2x2 integer table")
        if z != 0 or a <= 0 or d <= 0 or not 0 <= b < d:
            raise InvalidInputError(f"ideal rows {rows} are not in canonical form")
        # ideal test: w * (each basis vector) must stay inside the lattice
        for u, v in rows:
            if not _lattice_contains(rows, -5 * v, u):
                raise InvalidInputError(
                    "lattice is not closed under multiplication by sqrt(-5)"
                )

    @classmethod
    def from_lattice(cls, pairs) -> "QuadraticIdeal":
        rows = _hnf(pairs)
        if rows is None:
            raise InvalidInputError("lattice does not have full rank")
        return cls(rows)

    @classmethod
    def from_generators(cls, *gens: "QuadElement | int") -> "QuadraticIdeal":
        pairs = []
        for g in gens:
            g = QuadElement._coerce(g)
            if not g.is_integral():
                raise InvalidInputError(f"generator {g} does not lie in the ring")
            if g.is_zero():
                continue
            pairs.append((g.a, g.b))
            pairs.append((-5 * g.b, g.a))  # times w, so the span is an ideal
        if not pairs:
            raise InvalidInputError("zero ideal")
        return cls.from_lattice(pairs)

    @classmethod
    def unit_ideal(cls) -> "QuadraticIdeal":
        return cls(((1, 0), (0, 1)))

    # -- basic data ------------------------------------------------------

    @property
    def norm(self) -> int:
        return self.rows[0][0] * self.rows[1][1]

    def generators(self) -> tuple[QuadElement, QuadElement]:
        (a, b), (_, d) = self.rows
        return QuadElement(a, b), QuadElement(0, d)

    def contains(self, x: "QuadElement | int") -> bool:
        x = QuadElement._coerce(x)
        return x.is_integral() and _lattice_contains(self.rows, x.a, x.b)

    # -- arithmetic ------------------------------------------------------

    def mul(self, other: "QuadraticIdeal") -> "QuadraticIdeal":
        prods = [g * h for g in self.generators() for h in other.generators()]
        pairs = []
        for p in prods:
            pairs.append((p.a, p.b))
            pairs.append((-5 * p.b, p.a))
        return QuadraticIdeal.from_lattice(pairs)

    def conjugate(self) -> "QuadraticIdeal":
        return QuadraticIdeal.from_generators(
            *(g.conjugate() for g in self.generators())
        )

    def inverse(self) -> "FractionalIdeal":
        """I**-1 = conjugate(I) / N(I), checked against I * conjugate(I) = (N)."""
        conj = self.conjugate()
        n = self.norm
        if self.mul(conj) != QuadraticIdeal.from_generators(QuadElement(n, 0)):
            raise InternalCheckError(
                "product with the conjugate ideal is not the norm ideal"
            )
        return FractionalIdeal(conj, n)

    def principal_generator(self) -> QuadElement | None:
        """Sign-normalized generator, or None.  Complete decision: any
        generator satisfies u**2 + 5*v**2 = N(I), so the search space is
        finite and fully enumerated."""
        n = self.norm
        for v in range(math.isqrt(n // 5) + 1):
            rem = n - 5 * v * v
            u = math.isqrt(rem)
            if u * u != rem:
                continue
            for uu, vv in {(u, v), (-u, v), (u, -v), (-u, -v)}:
                if not _lattice_contains(self.rows, uu, vv):
                    continue
                if uu < 0 or (uu == 0 and vv < 0):
                    uu, vv = -uu, -vv
                g = QuadElement(uu, vv)
                if QuadraticIdeal.from_generators(g) != self:
                    raise InternalCheckError(
                        f"norm equation produced a non-generator {g}"
                    )
                return g
        return None

    def __str__(self) -> str:
        g1, g2 = self.generators()
        return f"<{g1}, {g2}>"


@dataclass(frozen=True)
class FractionalIdeal:
    """num / den with num an integral ideal and den a positive integer,
    reduced so that gcd(den, content(num)) = 1."""

    num: QuadraticIdeal
    den: int

    def __post_init__(self) -> None:
        if not isinstance(self.den, int) or self.den <= 0:
            raise InvalidInputError("denominator must be a positive integer")
        (a, b), (_, d) = self.num.rows
        g = math.gcd(self.den, math.gcd(a, b, d))
        if g > 1:
            rows = ((a // g, b // g), (0, d // g))
            object.__setattr__(self, "num", QuadraticIdeal(rows))
            object.__setattr__(self, "den", self.den // g)

    def mul(self, other: "FractionalIdeal | QuadraticIdeal") -> "FractionalIdeal":
        if isinstance(other, QuadraticIdeal):
            other = FractionalIdeal(other, 1)
        return FractionalIdeal(self.num.mul(other.num), self.den * other.den)

    def contains(self, x: "QuadElement | int") -> bool:
        return self.num.contains(QuadElement._coerce(x) * self.den)

    @property
    def is_unit_ideal(self) -> bool:
        return self.den == 1 and self.num == QuadraticIdeal.unit_ideal()

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


# -- Steinitz change of basis ------------------------------------------------


@dataclass(frozen=True)
class SteinitzData:
    """Change of basis C with C * (I (+) I) = R (+) R.

    matrix is a 2x2 table of QuadElements; square_generator is the certified
    generator pi of I**2 (det C = 1/pi up to a unit); bezout is the pair
    (u, v) in I**-1 with u*alpha + v*beta = 1 used to assemble C, or None
    when I itself was principal and C is diagonal.
    """

    matrix: tuple[tuple[QuadElement, QuadElement], tuple[QuadElement, QuadElement]]
    square_generator: QuadElement
    bezout: tuple[QuadElement, QuadElement] | None


def _fmt_matrix(C) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in C) + "]"


def steinitz_matrix(ideal: QuadraticIdeal) -> SteinitzData:
    """Construct and certify a change of basis C with C*(I (+) I) = R (+) R.

    Requires I**2 principal (automatic here: the class group has order two).
    For principal I = (gamma) the matrix is diagonal 1/gamma, so the unit
    ideal gets the identity.  Otherwise C = [[u, v], [-beta/pi, alpha/pi]]
    where (alpha, beta) are the Hermite generators of I, pi generates I**2,
    and (u, v) is a Bezout pair in I**-1 with u*alpha + v*beta = 1, found by
    a bounded search over small combinations of the I**-1 lattice basis.
    """
    pi = ideal.mul(ideal).principal_generator()
    if pi is None:
        raise InvalidInputError(
            "the square of the ideal is not principal, so no change of basis "
            "with the required determinant norm exists"
        )
    gamma = ideal.principal_generator()
    zero = QuadElement(0, 0)
    one = QuadElement(1, 0)
    if gamma is not None:
        inv = gamma.inverse()
        data = SteinitzData(((inv, zero), (zero, inv)), pi, None)
    else:
        alpha, beta = ideal.generators()
        iinv = ideal.inverse()
        h1, h2 = iinv.num.generators()
        n = iinv.den
        found = None
        for radius in range(_BEZOUT_BOUND + 1):
            for s in range(-radius, radius + 1):
                for t in range(-radius, radius + 1):
                    if max(abs(s), abs(t)) != radius:
                        continue
                    u = (h1 * s + h2 * t) / n
                    v = (one - u * alpha) / beta
                    if iinv.contains(v):
                        found = (u, v)
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            raise InconclusiveSearchError(
                f"no Bezout pair for {ideal} with lattice coefficients bounded "
                f"by {_BEZOUT_BOUND}; the bound is heuristic, not a proof of "
                "nonexistence"
            )
        u, v = found
        data = SteinitzData(((u, v), (-beta / pi, alpha / pi)), pi, (u, v))
    rep = verify_steinitz(ideal, data.matrix)
    if not rep.passed:
        raise InternalCheckError(
            "constructed change of basis fails its contract: "
            + "; ".join(it.name for it in rep.failures())
        )
    return data


def verify_steinitz(ideal: QuadraticIdeal, matrix) -> Report:
    """Contract for a candidate change of basis, independent of how it was
    found: the four lattice generators of I (+) I must map into R (+) R,
    the induced 4x4 integer matrix must have determinant +-1, and
    N(det C) * N(I)**2 must equal 1 exactly."""
    rep = Report("change of basis contract")
    (c11, c12), (c21, c22) = matrix
    g1, g2 = ideal.generators()
    zero = QuadElement(0, 0)
    columns = [(g1, zero), (g2, zero), (zero, g1), (zero, g2)]
    images = [(c11 * x + c12 * y, c21 * x + c22 * y) for x, y in columns]
    integral = all(p.is_integral() and q.is_integral() for p, q in images)
    rep.add(
        "generators of the ideal pair map into the ring pair",
        integral,
        "; ".join(f"({x}, {y}) -> ({p}, {q})" for (x, y), (p, q) in zip(columns, images)),
    )
    if integral:
        coords = [
            [Fraction(p.a), Fraction(p.b), Fraction(q.a), Fraction(q.b)]
            for p, q in images
        ]
        d = Matrix.from_rows(QQ, coords).det()
        rep.add(
            "integer change of basis is unimodular",
            d in (Fraction(1), Fraction(-1)),
            f"det = {d}",
        )
    else:
        rep.add("integer change of basis is unimodular", False, "images not integral")
    det_c = c11 * c22 - c12 * c21
    accounting = det_c.norm() * ideal.norm**2
    rep.add(
        "determinant norm is the inverse square of the ideal norm",
        accounting == Fraction(1),
        f"det C = {det_c}, N(det C) * N(I)^2 = {accounting}",
    )
    return rep


# -- rank-two matrix module transport ----------------------------------------


def matrix_units():
    one = QuadElement(1, 0)
    zero = QuadElement(0, 0)
    return (
        ((one, zero), (zero, zero)),
        ((zero, one), (zero, zero)),
        ((zero, zero), (one, zero)),
        ((zero, zero), (zero, one)),
    )


def mat_mul(A, B):
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(2)), QuadElement(0, 0)) for j in range(2))
        for i in range(2)
    )


def mat_transpose(A):
    return tuple(tuple(A[j][i] for j in range(2)) for i in range(2))


def module_act(Y, X):
    """Right action of the matrix ring on column tuples, written on the
    left: Y . X = X * transpose(Y)."""
    return mat_mul(X, mat_transpose(Y))


def psi_image(C, X):
    """The transported module element, transpose(C * X)."""
    return mat_transpose(mat_mul(C, X))


def matrix_lattice_generators(ideal: QuadraticIdeal):
    """Eight generators g * e_ij of the lattice of 2x2 matrices over I."""
    return tuple(
        tuple(tuple(g * x for x in row) for row in unit)
        for g in ideal.generators()
        for unit in matrix_units()
    )


def _mat_is_integral(X) -> bool:
    return all(x.is_integral() for row in X for x in row)


def module_transport_report(
    ideal: QuadraticIdeal, seed: int = 0, trials: int = 20
) -> Report:
    """Certify that conjugation by the Steinitz matrix carries the 2x2
    matrix module over the ideal onto the free module over the ring.

    Checks, exactly: the ideal is not principal (so the transported module
    is a genuine non-free example), the inverse and square behave as the
    class group dictates, the change-of-basis contract, the intertwining
    law psi(Y . X) = Y * psi(X) on all matrix-unit pairs and on seeded
    random pairs, and that psi maps the matrix lattice over I bijectively
    onto the matrix ring over R."""
    rep = Report("matrix module transport")
    gamma = ideal.principal_generator()
    rep.add(
        "ideal is not principal",
        gamma is None,
        "no solution of the norm equation lies in the ideal"
        if gamma is None
        else f"generated by {gamma}",
    )
    rep.add(
        "ideal times its inverse is the unit ideal",
        FractionalIdeal(ideal, 1).mul(ideal.inverse()).is_unit_ideal,
    )
    pi = ideal.mul(ideal).principal_generator()
    rep.add(
        "ideal square is principal",
        pi is not None,
        f"generator {pi}" if pi is not None else "",
    )
    if pi is None:
        return rep
    data = steinitz_matrix(ideal)
    C = data.matrix
    rep.add("change of basis recorded", True, f"C = {_fmt_matrix(C)}")
    for item in verify_steinitz(ideal, C).items:
        rep.add(item.name, item.ok, item.detail)

    lattice = matrix_lattice_generators(ideal)
    units = matrix_units()

    def law_holds(Y, X) -> bool:
        return psi_image(C, module_act(Y, X)) == mat_mul(Y, psi_image(C, X))

    rep.add(
        "transport respects the action on matrix units",
        all(law_holds(Y, X) for Y in units for X in lattice),
        f"{len(units) * len(lattice)} pairs",
    )

    rng = random.Random(seed)

    def rand_ring_matrix():
        return tuple(
            tuple(
                QuadElement(rng.randint(-10, 10), rng.randint(-10, 10))
                for _ in range(2)
            )
            for _ in range(2)
        )

    def rand_lattice_matrix():
        X = ((QuadElement(0, 0),) * 2,) * 2
        for gen in lattice:
            c = rng.randint(-10, 10)
            X = tuple(
                tuple(X[i][j] + gen[i][j] * c for j in range(2)) for i in range(2)
            )
        return X

    random_ok = all(
        law_holds(rand_ring_matrix(), rand_lattice_matrix()) for _ in range(trials)
    )
    rep.add(
        "transport respects the action on random pairs",
        random_ok,
        f"{trials} pairs, seed {seed}",
    )

    images = [psi_image(C, X) for X in lattice]
    integral = all(_mat_is_integral(img) for img in images)
    if integral:
        coords = [
            [Fraction(z) for x in (img[0][0], img[0][1], img[1][0], img[1][1]) for z in (x.a, x.b)]
            for img in images
        ]
        d = Matrix.from_rows(QQ, coords).det()
        bij = d in (Fraction(1), Fraction(-1))
        detail = f"8x8 coordinate determinant = {d}"
    else:
        bij, detail = False, "some image leaves the matrix ring"
    rep.add("transport is a bijection onto the matrix ring", bij, detail)
    return rep


def demo_ideal() -> QuadraticIdeal:
    """The standard witness <2, 1 + w>: non-principal, with square (2)."""
    return QuadraticIdeal.from_generators(QuadElement(2, 0), QuadElement(1, 1))
