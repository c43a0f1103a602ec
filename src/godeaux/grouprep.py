"""Diagonal cyclic actions on weighted rings: characters, eigenspaces, and
the sign split of those eigenspaces under a commuting involution lift.

An action is stored combinatorially as one exponent per variable in Z/n, so
characters of monomials are just weighted exponent sums mod n and no
cyclotomic arithmetic is ever needed.  When a realization over the
coefficient field is wanted (to run an actual substitution), the caller
supplies a primitive n-th root of unity from that field.

An involution lift is an action of order 2: its character 0 is the +1
eigenspace and its character 1 the -1 eigenspace.  sigma_type computes the
dimension pair of those eigenspaces on one (degree, character) piece of the
quotient by a list of relations.  Relations must be homogeneous in degree
and in the characters of both actions; each violation is reported with an
offending monomial pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
        return MonomialMap(self.ring, tuple(root ** e for e in self.exponents))

    def rational_realization(self) -> Optional[MonomialMap]:
        """The realization with scalars in {1, -1}, when every exponent is
        0 or order/2; None otherwise."""
        if self.order % 2 != 0:
            return None
        half = self.order // 2
        if any(e % half != 0 for e in self.exponents):
            return None
        return MonomialMap(self.ring, tuple(1 if e == 0 else -1 for e in self.exponents))


def character_clash(f: WPoly, action: CyclicAction) -> Optional[Tuple[Exponents, Exponents]]:
    """The first monomial of f and the first later one of another
    character, or None when f is character-homogeneous.  The monomials are
    put in order only when there is a clash."""
    if len({action.character_of_monomial(e) for e in f.terms}) < 2:
        return None
    first, *rest = f.monomials()
    char = action.character_of_monomial(first)
    return first, next(e for e in rest if action.character_of_monomial(e) != char)


def character_of(f: WPoly, action: CyclicAction) -> int:
    """The common character of a character-homogeneous polynomial."""
    if f.ring != action.ring:
        raise ValueError("polynomial and action live on different rings")
    if f.is_zero():
        raise ValueError("the zero polynomial has no character")
    clash = character_clash(f, action)
    if clash is not None:
        a, b = clash
        raise ValueError(
            f"not character-homogeneous: monomials {a} and {b} have characters "
            f"{action.character_of_monomial(a)} and {action.character_of_monomial(b)}"
        )
    return action.character_of_monomial(next(iter(f.terms)))


def eigenspace_basis(action: CyclicAction, d: int, c: int) -> List[Exponents]:
    """Degree-d monomials of character c, graded-lex, largest first."""
    c %= action.order
    return [
        e
        for e in monomials_of_degree(action.ring, d)
        if action.character_of_monomial(e) == c
    ]


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
    lift: CyclicAction,
    d: int,
    c: int,
    relations: Sequence[WPoly] = (),
) -> SigmaType:
    """Dimensions of the +-1 eigenspaces of the order-2 lift on the
    degree-d, character-c piece of ring / (relations).

    Relations enter through their degree-d multiples.  They must each be
    homogeneous in degree and in the characters of the action and the lift,
    which keeps every ideal row inside a single sign block, so the quotient
    splits cleanly.
    """
    if lift.order != 2:
        raise ValueError(f"an involution lift has order 2, not {lift.order}")
    basis = eigenspace_basis(action, d, c)
    index = set(basis)
    # lift character 0 is the +1 eigenspace, character 1 the -1 eigenspace
    cols = ([], [])
    for e in basis:
        cols[lift.character_of_monomial(e)].append(e)
    rows = ([], [])
    for rel in relations:
        if rel.is_zero():
            raise ValueError("zero relation supplied")
        if not rel.is_homogeneous():
            raise ValueError(f"relation {rel!r} is not degree-homogeneous")
        rel_d = rel.degree()
        rel_c = character_of(rel, action)
        rel_s = character_of(rel, lift)
        if rel_d > d:
            continue
        for m in monomials_of_degree(action.ring, d - rel_d):
            mc = action.character_of_monomial(m)
            if (mc + rel_c) % action.order != c % action.order:
                continue
            prod = action.ring.monomial(m) * rel
            s = (lift.character_of_monomial(m) + rel_s) % 2
            for e in prod.terms:
                if e not in index:
                    raise AssertionError("ideal row escaped its eigenspace")
            rows[s].append([prod.coefficient(e) for e in cols[s]])
    plus, minus = (
        len(cols[s]) - (exact_rank(rows[s]) if rows[s] else 0) for s in (0, 1)
    )
    return SigmaType(plus, minus)
