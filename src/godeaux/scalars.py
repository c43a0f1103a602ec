"""Exact scalars: arbitrary-precision rationals and odd prime fields.

Rational arithmetic is delegated to fractions.Fraction, which already keeps
values in lowest terms with a positive denominator.  This module adds a
prime-field element with the same operator surface plus small field
descriptor objects, so polynomial code can stay agnostic about which exact
field its coefficients live in.

Mixing elements of different fields, or of a prime field and a rational, is
an error and never a silent coercion.  Plain ints coerce into either field.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import List, Optional, Tuple, Union

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FpElement:
    """An element of GF(p), stored as the least nonnegative residue."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"cannot mix GF({self.p}) and GF({other.p})")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        if isinstance(other, Fraction):
            raise TypeError(f"cannot mix GF({self.p}) and rational scalars")
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return FpElement(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FpElement(pow(self.value, n, self.p), self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


# The one grammar of every string the package reads, in ASCII only.  A token
# takes no whitespace; a reader that splits a value (comma lists, polynomial
# terms, field specs) strips surrounding spaces once from each piece.
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_POWER = r"(?:\^(0*[1-9][0-9]*))?"  # an optional exponent, at least 1
_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9]*)" + _POWER)
_GROUP = re.compile(r"Z([0-9]+)" + _POWER)
_FIELD = re.compile(r"(q|qq|rationals?)|(?:fp?)?([0-9]+)", re.IGNORECASE | re.ASCII)


def _match(pattern: "re.Pattern[str]", text, what: str) -> "re.Match[str]":
    match = pattern.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not {what}: {text!r}")
    return match


def integer(text: str) -> int:
    """An integer: ASCII digits with an optional leading '-'."""
    return int(_match(_INTEGER, text, "an integer")[0])


def exact_int(value) -> int:
    """The one rule for an integer value that is not a string: value itself
    when its type is int.  A bool, float, str, Fraction or anything else
    raises, so nothing is truncated, reread or taken as 0 or 1."""
    if type(value) is not int:
        raise TypeError(f"not an int: {value!r}")
    return value


def int_tuple(values) -> Tuple[int, ...]:
    """The values as a tuple, each read by exact_int."""
    return tuple(map(exact_int, values))


def comma_list(text: str) -> List[str]:
    """The stripped items of a comma-separated list; none may be empty."""
    items = [item.strip(" ") for item in text.split(",")]
    if "" in items:
        raise ValueError(f"empty item in the list {text!r}")
    return items


def monomial_factors(text: str) -> List[Tuple[str, int]]:
    """The (name, power) factors of a monomial such as 'x1^2 y3', separated
    by single spaces; '1' has none."""
    if text == "1":
        return []
    matches = [_match(_FACTOR, piece, "a monomial factor") for piece in text.split(" ")]
    return [(m[1], int(m[2] or 1)) for m in matches]


def polynomial_terms(text: str) -> List[Tuple[str, str]]:
    """The (coefficient, monomial) strings of the terms of a polynomial
    'c * m + m + c' split at '+' and '*': a bare monomial has coefficient
    '1', a bare rational the monomial '1'.  '0' and '' have no terms."""
    if text.strip(" ") in ("", "0"):
        return []
    terms = []
    for term in text.split("+"):
        coeff, star, mono = (piece.strip(" ") for piece in term.partition("*"))
        if not star:
            coeff, mono = (coeff, "1") if _RATIONAL.fullmatch(coeff) else ("1", coeff)
        if not coeff or not mono:
            raise ValueError(f"empty term or factor in {text!r}")
        terms.append((coeff, mono))
    return terms


def group_label(text: str) -> List[Tuple[int, int]]:
    """The (order, power) pairs of an abelian label such as 'Z8', 'Z2xZ4'
    or 'Z2^3'."""
    matches = [_match(_GROUP, piece, "a cyclic group label") for piece in text.split("x")]
    return [(int(m[1]), int(m[2] or 1)) for m in matches]


class PrimeField:
    """Descriptor for GF(p) with p an odd prime."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p

    @property
    def name(self) -> str:
        return f"F{self.p}"

    @property
    def characteristic(self) -> int:
        return self.p

    def __call__(self, v) -> FpElement:
        if isinstance(v, FpElement):
            if v.p != self.p:
                raise ValueError(f"cannot view GF({v.p}) element in GF({self.p})")
            return v
        if isinstance(v, int):
            return FpElement(v, self.p)
        if isinstance(v, str):
            return FpElement(integer(v), self.p)
        if isinstance(v, Fraction):
            return self.from_fraction(v)
        raise TypeError(f"cannot coerce {v!r} into GF({self.p})")

    def from_fraction(self, fr: Fraction) -> FpElement:
        """Reduce a rational mod p; denominators divisible by p are rejected."""
        if fr.denominator % self.p == 0:
            raise ValueError(f"{fr} has bad reduction mod {self.p}")
        return FpElement(fr.numerator, self.p) / FpElement(fr.denominator, self.p)

    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def sqrt(self, v) -> Optional[FpElement]:
        """The least square root of v (as a residue), or None for a
        nonsquare; Tonelli-Shanks, so O(log^2 p) multiplications."""
        p = self.p
        a = self(v).value
        if a == 0:
            return FpElement(0, p)
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        # p - 1 = q * 2^s with q odd; z is a nonsquare
        q, s = p - 1, 0
        while q % 2 == 0:
            q, s = q // 2, s + 1
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                i, t2 = i + 1, t2 * t2 % p
            b = pow(c, 1 << (s - i - 1), p)
            s, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return FpElement(min(r, p - r), p)

    def sqrt_minus_one(self) -> FpElement:
        """The smaller square root of -1, for p = 1 mod 4."""
        if self.p % 4 != 1:
            raise ValueError(f"-1 is not a square in GF({self.p})")
        return self.sqrt(-1)

    def random_nonzero(self, rng) -> FpElement:
        return FpElement(rng.randrange(1, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Rationals:
    """Descriptor for the rational field."""

    name = "Q"
    characteristic = 0

    def __call__(self, v) -> Fraction:
        """An int, a Fraction, or a string "a" or "a/b" with b nonzero;
        floats and decimal or exponent strings are never exact input."""
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        if isinstance(v, (float, FpElement)):
            raise TypeError(f"cannot view {v!r} as an exact rational")
        num, den = _match(_RATIONAL, v, "an integer or a/b").groups()
        if den and not int(den):
            raise ValueError(f"zero denominator in {v!r}")
        return Fraction(int(num), int(den or 1))

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def sqrt(self, v) -> Optional[Fraction]:
        """The nonnegative square root of v, or None when v is not the
        square of a rational."""
        v = self(v)
        if v < 0:
            return None
        num, den = isqrt(v.numerator), isqrt(v.denominator)
        if num * num != v.numerator or den * den != v.denominator:
            return None
        return Fraction(num, den)

    def sqrt_minus_one(self):
        raise ValueError("-1 is not a rational square")

    def random_nonzero(self, rng, bound: int = 9) -> Fraction:
        v = rng.randrange(1, 2 * bound + 1)
        return Fraction(v - bound - 1 if v <= bound else v - bound)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "Rationals()"


QQ = Rationals()


def field_from_spec(spec) -> Union[Rationals, PrimeField]:
    """Parse a field spec: 'q'/'qq' for the rationals, 'f13' or 13 for GF(13)."""
    if isinstance(spec, (Rationals, PrimeField)):
        return spec
    if isinstance(spec, int):
        return PrimeField(spec)
    match = _FIELD.fullmatch(str(spec).strip(" "))
    if match is None:
        raise ValueError(f"unrecognized field spec {spec!r}")
    return QQ if match[1] else PrimeField(int(match[2]))


def scalar_to_str(c) -> str:
    """Exact decimal-free string: '-3/7' for rationals, the residue for GF(p)."""
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, FpElement):
        return str(c.value)
    if isinstance(c, int):
        return str(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def exact_rref(rows):
    """Row-reduce a matrix of exact field elements in place-free style.

    Returns (rref_rows, pivot_columns).  Works for Fraction and FpElement
    alike; rows may be ragged-free lists of equal length.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def exact_rank(rows) -> int:
    _, pivots = exact_rref(rows)
    return len(pivots)


def solve_linear(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = exact_rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    zero = rows[0][0] - rows[0][0]
    x = [zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][-1]
    return x


def nullspace(rows):
    """A basis of the right kernel, as lists of field elements."""
    red, pivots = exact_rref(rows)
    if not rows:
        return []
    ncols = len(rows[0])
    zero = rows[0][0] - rows[0][0]
    one = zero + 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(v)
    return basis
