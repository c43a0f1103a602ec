"""Sparse multivariate polynomials in weighted variables over an exact field.

A ring fixes variable names, positive integer weights, and a coefficient
field (the rationals or an odd prime field).  Polynomials are dictionaries
mapping exponent tuples to nonzero coefficients, so arithmetic is exact and
term order is imposed only at serialization time.

A coefficient over Q is a Fraction; over GF(p) it is an int residue in
[0, p).  Every coefficient, scalar factor and diagonal-map scalar is read
by one rule, ``WRing.scalar``: ints go through the ring's field
descriptor, so sums and products of residues are reduced there, and a
GF(p) ring takes no Fraction, float or bool.  Rings, not values, keep the
fields apart: arithmetic between polynomials of different rings raises.

The text form writes each term as ``coeff * x1^a x2^b`` with exact
decimal-free coefficients (``-3/7``), terms joined by `` + `` in graded
lexicographic order with the lexicographically largest exponent first.
``parse_poly`` accepts exactly what ``to_string`` produces, plus bare
monomials (implicit coefficient 1) and bare constants.

Monomial maps are diagonal: each variable goes to a nonzero scalar times
itself.  ``apply_map`` substitutes such a map, and ``substitute`` replaces
each variable by an arbitrary polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .scalars import (
    PrimeField,
    Rationals,
    int_tuple,
    monomial_factors,
    polynomial_terms,
    scalar_to_str,
)

Exponents = Tuple[int, ...]
Field = Union[Rationals, PrimeField]


@dataclass(frozen=True)
class WRing:
    names: Tuple[str, ...]
    weights: Tuple[int, ...]
    field: Field

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "weights", int_tuple(self.weights))
        if len(self.names) != len(self.weights):
            raise ValueError("one weight per variable required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def degree_of(self, expts: Exponents) -> int:
        return sum(e * w for e, w in zip(expts, self.weights))

    def zero_poly(self) -> "WPoly":
        return WPoly(self, {})

    def monomial(self, expts: Sequence[int], coeff=1) -> "WPoly":
        return WPoly(self, {int_tuple(expts): coeff})

    def constant(self, c) -> "WPoly":
        return WPoly(self, {(0,) * self.nvars: c})

    def scalar(self, c):
        """c read into the field by the one ring-level rule: an int or an
        integer string through the field descriptor (which reduces mod p), a
        Fraction as itself over Q only; a bool, a float, or a Fraction over
        GF(p) raises TypeError."""
        field = self.field
        c = field(c) if isinstance(c, (int, str)) else c
        if not isinstance(c, int if field.characteristic else Fraction):
            raise TypeError(f"coefficient {c!r} does not live in {field.name}")
        return c

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"no variable named {name!r} in {self.names}") from None


class WPoly:
    """A polynomial over its ring; zero coefficients are never stored."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: WRing, terms: Dict[Exponents, object]):
        self.ring = ring
        clean: Dict[Exponents, object] = {}
        for e, c in terms.items():
            if len(e) != ring.nvars:
                raise ValueError(f"exponent tuple {e} has wrong length")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            # the one place where GF(p) arithmetic results are reduced
            c = ring.scalar(c)
            if c:
                clean[tuple(e)] = c
        self.terms = clean

    def _same_ring(self, other: "WPoly"):
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(self.ring.degree_of(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.ring.degree_of(e) for e in self.terms}
        return len(degs) <= 1

    def monomials(self) -> List[Exponents]:
        return sorted(self.terms, key=self._order_key, reverse=True)

    def _order_key(self, e: Exponents):
        return (self.ring.degree_of(e),) + e

    def coefficient(self, expts: Sequence[int]):
        return self.terms.get(tuple(expts), self.ring.field.zero())

    def __add__(self, other: "WPoly") -> "WPoly":
        self._same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return WPoly(self.ring, out)

    def __neg__(self) -> "WPoly":
        return WPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "WPoly") -> "WPoly":
        return self + (-other)

    def __mul__(self, other) -> "WPoly":
        if not isinstance(other, WPoly):
            c = self.ring.scalar(other)
            return WPoly(self.ring, {e: x * c for e, x in self.terms.items()})
        self._same_ring(other)
        out: Dict[Exponents, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return WPoly(self.ring, out)

    def __rmul__(self, other) -> "WPoly":
        return self * other

    def __pow__(self, n: int) -> "WPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, WPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def partial(self, v: int) -> "WPoly":
        out: Dict[Exponents, object] = {}
        for e, c in self.terms.items():
            if e[v] == 0:
                continue
            new = list(e)
            new[v] -= 1
            out[tuple(new)] = e[v] * c
        return WPoly(self.ring, out)

    def evaluate(self, point: Sequence[object]):
        """f at the point, as an element of its field, summed in ints.  Over
        GF(p) the coordinates are read into the field, and the terms are
        summed as residues and reduced once.  Over Q the point is scaled to a
        common denominator D and the coefficients to theirs, B; each term is
        lifted to the top total degree k by the powers of D it lacks, and
        the sum over B * D^k is one Fraction."""
        if len(point) != self.ring.nvars:
            raise ValueError("point has wrong number of coordinates")
        field = self.ring.field
        if field.characteristic:
            xs = [field(x) for x in point]
            coeffs = self.terms.values()
        else:
            xs = [x if type(x) is int or isinstance(x, Fraction) else field(x) for x in point]
            den = math.lcm(*(x.denominator for x in xs))
            xs = [x.numerator * (den // x.denominator) for x in xs]
            scale = math.lcm(*(c.denominator for c in self.terms.values()))
            top = max(map(sum, self.terms), default=0)
            coeffs = [c.numerator * (scale // c.denominator) * den ** (top - sum(e))
                      for e, c in self.terms.items()]
        total = 0
        for e, term in zip(self.terms, coeffs):
            for x, k in zip(xs, e):
                if k:
                    term *= x ** k
            total += term
        if field.characteristic:
            return total % field.p
        return Fraction(total, scale * den ** top)

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in self.monomials():
            c = self.terms[e]
            mono = monomial_to_str(self.ring, e)
            if mono == "1":
                parts.append(scalar_to_str(c))
            else:
                parts.append(f"{scalar_to_str(c)} * {mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"WPoly({self.to_string()})"


def monomial_to_str(ring: WRing, expts: Exponents) -> str:
    pieces = []
    for name, e in zip(ring.names, expts):
        if e == 1:
            pieces.append(name)
        elif e > 1:
            pieces.append(f"{name}^{e}")
    return " ".join(pieces) if pieces else "1"


def parse_monomial(ring: WRing, text: str) -> Exponents:
    expts = [0] * ring.nvars
    for name, k in monomial_factors(text):
        expts[ring.index_of(name)] += k
    return tuple(expts)


def parse_poly(ring: WRing, text: str) -> WPoly:
    terms: Dict[Exponents, object] = {}
    for coeff_s, mono_s in polynomial_terms(text):
        coeff, e = ring.field(coeff_s), parse_monomial(ring, mono_s)
        terms[e] = terms[e] + coeff if e in terms else coeff
    return WPoly(ring, terms)


def monomials_of_degree(ring: WRing, d: int) -> Tuple[Exponents, ...]:
    """All exponent tuples of weighted degree d, graded-lex, largest first;
    memoized by (weights, d), on which alone they depend."""
    return _monomials_of_degree(ring.weights, d)


@functools.lru_cache(maxsize=256)
def _monomials_of_degree(weights: Tuple[int, ...], d: int) -> Tuple[Exponents, ...]:
    if d < 0:
        raise ValueError("degree must be nonnegative")
    out: List[Exponents] = []
    _monomials(weights, 0, d, (), out)
    return tuple(out)


def _monomials(weights: Tuple[int, ...], v: int, remaining: int,
               acc: Tuple[int, ...], out: List[Exponents]) -> None:
    """Append to out the exponents that extend acc on the variables from v
    on to weighted degree acc + remaining, largest first.  A module-level
    recursion, so no closure refers to itself and nothing is left for the
    cycle collector."""
    if v == len(weights):
        if remaining == 0:
            out.append(acc)
        return
    w = weights[v]
    for e in range(remaining // w, -1, -1):
        _monomials(weights, v + 1, remaining - e * w, acc + (e,), out)


@dataclass(frozen=True)
class MonomialMap:
    """x_v -> scalar_v * x_v, a diagonal substitution; each scalar must be
    nonzero.  As a map on points it sends P to Q with Q_v = scalar_v * P_v.
    """

    ring: WRing
    scalars: Tuple[object, ...]

    def __post_init__(self):
        object.__setattr__(self, "scalars", tuple(map(self.ring.scalar, self.scalars)))
        if len(self.scalars) != self.ring.nvars:
            raise ValueError("need one scalar per variable")
        if not all(self.scalars):
            raise ValueError("map scalars must be nonzero")

    def point_image(self, point: Sequence[object]) -> Tuple[object, ...]:
        field = self.ring.field
        return tuple(field(s * field(x)) for s, x in zip(self.scalars, point))

    def character_of_monomial(self, expts: Exponents) -> object:
        """The scalar the map multiplies the monomial by: the product of
        scalar_v^e_v.  A polynomial is an eigenvector of the map iff all
        its monomials share this character."""
        val = self.ring.field.one()
        for s, k in zip(self.scalars, expts):
            if k:
                val = val * s ** k
        return self.ring.field(val)


def apply_map(f: WPoly, m: MonomialMap) -> WPoly:
    """Substitute per m; satisfies apply_map(f, m).evaluate(P) ==
    f.evaluate(m.point_image(P))."""
    if f.ring != m.ring:
        raise ValueError("map and polynomial live in different rings")
    return WPoly(f.ring, {e: c * m.character_of_monomial(e) for e, c in f.terms.items()})


def substitute(f: WPoly, images: Sequence[WPoly]) -> WPoly:
    """f with variable v replaced by images[v]; the images share one ring,
    which may differ from f's.  Satisfies substitute(f, images).evaluate(P)
    == f.evaluate([g.evaluate(P) for g in images])."""
    if len(images) != f.ring.nvars:
        raise ValueError("one image polynomial per variable required")
    ring = images[0].ring
    out = ring.zero_poly()
    for expts, coeff in f.terms.items():
        term = ring.constant(1)
        for img, e in zip(images, expts):
            if e:
                term = term * img**e
        out = out + coeff * term
    return out


def jacobian(polys: Sequence[WPoly]) -> List[List[WPoly]]:
    if not polys:
        return []
    ring = polys[0].ring
    for f in polys:
        if f.ring != ring:
            raise ValueError("jacobian rows live in different rings")
    return [[f.partial(v) for v in range(ring.nvars)] for f in polys]
