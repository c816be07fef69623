"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values: `fractions.Fraction` over the rationals,
`int` in the range [0, p) over a prime field.  A Field object supplies the
operations that depend on which field we are in (inversion, normalization,
parsing).  Addition and multiplication of scalars use the native operators;
prime-field results must be renormalized with `field.normalize` before they
are stored or compared.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond machine-word range
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; concrete fields below.

    Both scalar types define bool(x) as "x is nonzero" (int, and Fraction
    through its numerator), so `if x` is the zero test of every field; on a
    Fraction it skips the Fraction.__eq__ that x != field.zero() calls."""

    name: str
    characteristic: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def normalize(self, x):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def neg(self, x):
        return self.normalize(-x)

    def parse(self, text: str):
        raise NotImplementedError

    def parse_all(self, tokens) -> list:
        """[self.parse(t) for t in tokens]: the first bad token raises."""
        return list(map(self.parse, tokens))

    def fmt(self, x) -> str:
        return str(x)

    def nonzero_elements_sample(self, rng, count: int):
        """Deterministic sample of nonzero scalars for randomized checks."""
        raise NotImplementedError


class RationalField(Field):
    name = "rational"
    characteristic = 0

    _ZERO = Fraction(0)
    _ONE = Fraction(1)

    def zero(self):
        return self._ZERO

    def one(self):
        return self._ONE

    def from_int(self, n: int):
        return Fraction(n)

    def normalize(self, x):
        return x if isinstance(x, Fraction) else Fraction(x)

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(x)

    def parse(self, text: str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational scalar {text!r}") from exc

    def parse_all(self, tokens) -> list:
        # every token int() reads, Fraction reads as the same integer
        try:
            return list(map(Fraction, map(int, tokens)))
        except ValueError:
            return super().parse_all(tokens)

    def nonzero_elements_sample(self, rng, count: int):
        out = []
        while len(out) < count:
            num = rng.randint(-9, 9)
            den = rng.randint(1, 9)
            if num:
                out.append(Fraction(num, den))
        return out

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise InvalidInputError(f"modulus {p} is not prime")
        if p.bit_length() > 62:
            raise InvalidInputError(f"modulus {p} too large for exact fast paths")
        self.p = p
        self.name = f"prime {p}"
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def normalize(self, x):
        return x % self.p

    def inv(self, x):
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    def parse(self, text: str):
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise InvalidInputError(f"bad prime-field scalar {text!r}") from exc

    def parse_all(self, tokens) -> list:
        try:
            return list(map(self.p.__rmod__, map(int, tokens)))  # int(t) % p
        except ValueError:
            return super().parse_all(tokens)

    def nonzero_elements_sample(self, rng, count: int):
        return [rng.randint(1, self.p - 1) for _ in range(count)]

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_name(text: str) -> Field:
    """Parse a field tag as used in the text file format: 'rational' or 'prime P'."""
    parts = text.split()
    if parts == ["rational"]:
        return QQ
    if len(parts) == 2 and parts[0] == "prime" and parts[1].isdigit():
        return GF(int(parts[1]))
    raise InvalidInputError(f"unknown field spec {text!r}")
