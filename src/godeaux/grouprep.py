"""Diagonal cyclic actions on weighted rings: characters, eigenspaces, and
sign splittings under a commuting involution lift.

The cyclic action is stored combinatorially as one exponent per variable in
Z/n, so characters of monomials are just weighted exponent sums mod n and no
cyclotomic arithmetic is ever needed.  When a realization over the
coefficient field is wanted (to run an actual substitution), the caller
supplies a primitive n-th root of unity from that field.

sigma_type computes the dimension pair of the +1 and -1 eigenspaces of an
involution lift acting on one (degree, character) piece of the quotient by a
list of relations.  Relations must be homogeneous in degree, in character,
and in sign; each violation is reported with an offending monomial pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import exact_rank
from .wpoly import Exponents, MonomialMap, WPoly, WRing, monomials_of_degree


@dataclass(frozen=True)
class CyclicAction:
    """x_v -> zeta^exponents[v] * x_v for a primitive n-th root zeta."""

    ring: WRing
    order: int
    exponents: Tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if len(self.exponents) != self.ring.nvars:
            raise ValueError("one exponent per variable required")
        object.__setattr__(
            self, "exponents", tuple(e % self.order for e in self.exponents)
        )

    def character_of_monomial(self, expts: Exponents) -> int:
        return sum(c * e for c, e in zip(self.exponents, expts)) % self.order

    def power(self, k: int) -> "CyclicAction":
        return CyclicAction(self.ring, self.order, tuple(k * e for e in self.exponents))

    def as_monomial_map(self, root) -> MonomialMap:
        """Realize over the ring's field, given a primitive order-th root of
        unity from that field; order and the root are sanity-checked."""
        root = self.ring.field(root) if isinstance(root, (int, str)) else root
        if root ** self.order != self.ring.field.one():
            raise ValueError("supplied scalar is not a root of unity of the right order")
        for k in range(1, self.order):
            if root ** k == self.ring.field.one():
                raise ValueError("supplied root of unity is not primitive")
        return MonomialMap.diagonal(self.ring, tuple(root ** e for e in self.exponents))

    def rational_realization(self) -> Optional[MonomialMap]:
        """The realization with scalars in {1, -1}, when every exponent is
        0 or order/2; None otherwise."""
        if self.order % 2 != 0:
            return None
        half = self.order // 2
        if any(e % half != 0 for e in self.exponents):
            return None
        one = self.ring.field.one()
        return MonomialMap.diagonal(
            self.ring, tuple(one if e == 0 else -one for e in self.exponents)
        )


def character_of(f: WPoly, action: CyclicAction) -> int:
    """The common character of a character-homogeneous polynomial."""
    if f.ring != action.ring:
        raise ValueError("polynomial and action live on different rings")
    if f.is_zero():
        raise ValueError("the zero polynomial has no character")
    monos = f.monomials()
    c0 = action.character_of_monomial(monos[0])
    for e in monos[1:]:
        c = action.character_of_monomial(e)
        if c != c0:
            raise ValueError(
                f"not character-homogeneous: monomials {monos[0]} and {e} "
                f"have characters {c0} and {c}"
            )
    return c0


def eigenspace_basis(action: CyclicAction, d: int, c: int) -> List[Exponents]:
    """Degree-d monomials of character c, graded-lex, largest first."""
    c %= action.order
    return [
        e
        for e in monomials_of_degree(action.ring, d)
        if action.character_of_monomial(e) == c
    ]


def character_census(action: CyclicAction, d: int) -> Dict[int, int]:
    census = {c: 0 for c in range(action.order)}
    for e in monomials_of_degree(action.ring, d):
        census[action.character_of_monomial(e)] += 1
    return census


@dataclass(frozen=True)
class InvolutionLift:
    """A diagonal sign involution commuting with the cyclic action."""

    ring: WRing
    signs: Tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.signs) != self.ring.nvars:
            raise ValueError("one sign per variable required")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    def sign_of_monomial(self, expts: Exponents) -> int:
        odd = sum(e for s, e in zip(self.signs, expts) if s == -1)
        return -1 if odd % 2 else 1

    def as_monomial_map(self) -> MonomialMap:
        one = self.ring.field.one()
        return MonomialMap.diagonal(
            self.ring, tuple(one if s == 1 else -one for s in self.signs)
        )

    def twist_by_projective_scaling(self) -> "InvolutionLift":
        """The other realization of the same projective involution: multiply
        by the scaling lambda = -1, which acts by (-1)^weight per variable."""
        signs = tuple(
            s * (1 if w % 2 == 0 else -1) for s, w in zip(self.signs, self.ring.weights)
        )
        return InvolutionLift(self.ring, signs, self.label + "~")

    def twist_by_action_square(self, action: CyclicAction) -> "InvolutionLift":
        """Compose with the square of the cyclic generator (an order-2
        diagonal map when 4 | order)."""
        if action.order % 4 != 0:
            raise ValueError("action square is not an involution")
        sq = action.power(2)
        half = action.order // 2
        extra = tuple(1 if e == 0 else -1 for e in sq.exponents)
        if any(e % half != 0 for e in sq.exponents):
            raise AssertionError("square of the generator is not a sign map")
        return InvolutionLift(
            self.ring, tuple(s * t for s, t in zip(self.signs, extra)), self.label + "*g2"
        )


def sign_clash(f: WPoly, lift: InvolutionLift) -> Optional[Tuple[Exponents, Exponents]]:
    """The first monomial of f and the first later one of the other sign
    under the lift, or None when f is sign-homogeneous."""
    monos = f.monomials()
    for e in monos[1:]:
        if lift.sign_of_monomial(e) != lift.sign_of_monomial(monos[0]):
            return monos[0], e
    return None


def sign_of(f: WPoly, lift: InvolutionLift) -> int:
    """The common sign of a sign-homogeneous polynomial under the lift."""
    if f.ring != lift.ring:
        raise ValueError("polynomial and lift live on different rings")
    if f.is_zero():
        raise ValueError("the zero polynomial has no sign")
    clash = sign_clash(f, lift)
    if clash is not None:
        a, b = clash
        raise ValueError(
            f"not sign-homogeneous: monomials {a} and {b} have signs "
            f"{lift.sign_of_monomial(a)} and {lift.sign_of_monomial(b)}"
        )
    return lift.sign_of_monomial(f.monomials()[0])


@dataclass(frozen=True)
class SigmaType:
    """Eigenspace dimension pair (plus, minus) of an involution on one
    graded character piece."""

    plus: int
    minus: int

    def as_ordered_string(self) -> str:
        return f"{{{self.plus},{self.minus}}}"

    def as_set_string(self) -> str:
        a, b = sorted((self.plus, self.minus), reverse=True)
        return f"{{{a},{b}}}"

    def unordered(self) -> Tuple[int, int]:
        return tuple(sorted((self.plus, self.minus), reverse=True))


def sigma_type(
    action: CyclicAction,
    lift: InvolutionLift,
    d: int,
    c: int,
    relations: Sequence[WPoly] = (),
) -> SigmaType:
    """Dimensions of the +-1 eigenspaces of the lift on the degree-d,
    character-c piece of ring / (relations).

    Relations enter through their degree-d multiples.  They must each be
    homogeneous in degree, character, and sign, which keeps every ideal row
    inside a single sign block, so the quotient splits cleanly.
    """
    basis = eigenspace_basis(action, d, c)
    index = {e: i for i, e in enumerate(basis)}
    plus_cols = [e for e in basis if lift.sign_of_monomial(e) == 1]
    minus_cols = [e for e in basis if lift.sign_of_monomial(e) == -1]
    rows = {1: [], -1: []}
    for rel in relations:
        if rel.is_zero():
            raise ValueError("zero relation supplied")
        if not rel.is_homogeneous():
            raise ValueError(f"relation {rel!r} is not degree-homogeneous")
        rel_d = rel.degree()
        rel_c = character_of(rel, action)
        rel_s = sign_of(rel, lift)
        if rel_d > d:
            continue
        for m in monomials_of_degree(action.ring, d - rel_d):
            mc = action.character_of_monomial(m)
            if (mc + rel_c) % action.order != c % action.order:
                continue
            prod = action.ring.monomial(m) * rel
            row_sign = lift.sign_of_monomial(m) * rel_s
            cols = plus_cols if row_sign == 1 else minus_cols
            row = [prod.coefficient(e) for e in cols]
            for e in prod.terms:
                if e not in index:
                    raise AssertionError("ideal row escaped its eigenspace")
            rows[row_sign].append(row)
    rank_plus = exact_rank(rows[1]) if rows[1] else 0
    rank_minus = exact_rank(rows[-1]) if rows[-1] else 0
    return SigmaType(len(plus_cols) - rank_plus, len(minus_cols) - rank_minus)
