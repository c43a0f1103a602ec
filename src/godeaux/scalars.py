"""Exact scalars: arbitrary-precision rationals and odd prime fields.

A rational is a fractions.Fraction, which keeps values in lowest terms with a
positive denominator.  A GF(p) value is a plain int residue in [0, p).  A
field descriptor (Rationals, PrimeField) reads a value into its field, so
the descriptor is what reduces mod p: arithmetic on residues gives ints
that the descriptor brings back to [0, p) before any comparison or test for
zero.  Polynomial code takes its field from its ring and stays agnostic
about which exact field its coefficients live in.

Both descriptors read an int, an integer string or a Fraction (GF(p) when
p does not divide the denominator); a bool or a float is never a scalar.
The guards between fields sit at ring level, since a residue is an int like
any other.  The linear algebra at the end of the module takes its field as
an argument.
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

    def __call__(self, v) -> int:
        """v as a residue in [0, p): an int, an integer string, or a Fraction
        whose denominator p does not divide; never a bool or a float."""
        if type(v) is int:
            return v % self.p
        if isinstance(v, str):
            return integer(v) % self.p
        if isinstance(v, Fraction):
            return self.from_fraction(v)
        raise TypeError(f"cannot coerce {v!r} into GF({self.p})")

    def from_fraction(self, fr: Fraction) -> int:
        """Reduce a rational mod p; denominators divisible by p are rejected."""
        if fr.denominator % self.p == 0:
            raise ValueError(f"{fr} has bad reduction mod {self.p}")
        return fr.numerator * pow(fr.denominator, -1, self.p) % self.p

    def inverse(self, v: int) -> int:
        """The residue of 1/v; v must be nonzero mod p."""
        if v % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(v, -1, self.p)

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def sqrt(self, v) -> Optional[int]:
        """The least square root of v (as a residue), or None for a
        nonsquare; Tonelli-Shanks, so O(log^2 p) multiplications."""
        p = self.p
        a = self(v)
        if a == 0:
            return 0
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
        return min(r, p - r)

    def sqrt_minus_one(self) -> int:
        """The smaller square root of -1, for p = 1 mod 4."""
        if self.p % 4 != 1:
            raise ValueError(f"-1 is not a square in GF({self.p})")
        return self.sqrt(-1)

    def random_nonzero(self, rng) -> int:
        return rng.randrange(1, self.p)

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
        bools, floats and decimal or exponent strings are never exact
        input."""
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            return Fraction(v)
        if not isinstance(v, str):
            raise TypeError(f"cannot view {v!r} as an exact rational")
        num, den = _match(_RATIONAL, v, "an integer or a/b").groups()
        if den and not int(den):
            raise ValueError(f"zero denominator in {v!r}")
        return Fraction(int(num), int(den or 1))

    def inverse(self, v) -> Fraction:
        """1/v; v must be nonzero."""
        return 1 / Fraction(v)

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

    def random_nonzero(self, rng) -> Fraction:
        """A nonzero integer in [-9, 9], each with the same chance."""
        v = rng.randrange(1, 19)
        return Fraction(v - 10 if v <= 9 else v - 9)

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
    if isinstance(c, Fraction) or type(c) is int:
        return str(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def exact_rref(rows, field):
    """Row-reduce a matrix over the field in place-free style.

    Returns (rref_rows, pivot_columns); rows are lists of equal length.  Over
    GF(p) the entries are ints, reduced mod p on entry and after each step;
    over Q they are Fractions (or ints) and stay exact.
    """
    p = field.characteristic
    mat = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inverse(mat[r][c])
        mat[r] = [x * inv % p for x in mat[r]] if p else [x * inv for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = ([(a - f * b) % p for a, b in zip(mat[i], mat[r])] if p
                          else [a - f * b for a, b in zip(mat[i], mat[r])])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def exact_rank(rows, field) -> int:
    _, pivots = exact_rref(rows, field)
    return len(pivots)
