"""Diagonal cyclic actions on weighted rings: characters, eigenspaces, and
the sign split of those eigenspaces under a commuting involution lift.

An action is stored combinatorially as one exponent per variable in Z/n, so
characters of monomials are just weighted exponent sums mod n and no
cyclotomic arithmetic is ever needed.  When a realization over the
coefficient field is wanted (to run an actual substitution), the caller
supplies a primitive n-th root of unity from that field.

An involution lift is an action of order 2: its character 0 is the +1
eigenspace and its character 1 the -1 eigenspace.  sigma_types computes the
dimension pair of those eigenspaces on (degree, character) pieces of the
quotient by a list of relations, in one pass per degree: the degree-d
monomials are sorted once into their (character, sign) cells, and each
multiple m * rel is a row built by adding exponent tuples, so every cell of
a degree comes out of that pass.  sigma_type is its one-cell call.
Relations must be homogeneous in degree and in the characters of both
actions; each is checked once per call, and each violation is reported with
an offending monomial pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
        field = self.ring.field
        root = field(root)
        if field(root ** self.order) != 1:
            raise ValueError("supplied scalar is not a root of unity of the right order")
        for k in range(1, self.order):
            if field(root ** k) == 1:
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


@functools.lru_cache(maxsize=256)
def _cells(action: CyclicAction, lift: CyclicAction, d: int):
    """The degree-d monomials sorted into their (character, sign) cells:
    the columns of each cell, graded-lex, largest first, and a map from
    each monomial, in that order, to its cell and its column there.
    Memoized per (action, lift, d), as monomials_of_degree is per degree:
    it depends on nothing else.  Callers must not change what it returns."""
    cols: Dict[Tuple[int, int], List[Exponents]] = {}
    where: Dict[Exponents, Tuple[Tuple[int, int], int]] = {}
    for e in monomials_of_degree(action.ring, d):
        cell = (action.character_of_monomial(e), lift.character_of_monomial(e))
        block = cols.setdefault(cell, [])
        where[e] = (cell, len(block))
        block.append(e)
    return cols, where


def sigma_types(
    action: CyclicAction,
    lift: CyclicAction,
    cells: Iterable[Tuple[int, int]],
    relations: Sequence[WPoly] = (),
) -> Dict[Tuple[int, int], SigmaType]:
    """Dimensions of the +-1 eigenspaces of the order-2 lift on each
    (degree d, character c) piece of ring / (relations) in cells, keyed by
    (d, c mod the action's order), in the order of cells.

    Relations enter through their degree-d multiples.  They must each be
    homogeneous in degree and in the characters of the action and the lift,
    which keeps every ideal row inside a single sign block, so the quotient
    splits cleanly.  Each relation is checked once; each degree is one pass
    over its monomials and over the multipliers of each relation.
    """
    if lift.order != 2:
        raise ValueError(f"an involution lift has order 2, not {lift.order}")
    n = action.order
    checked = []
    for rel in relations:
        if rel.is_zero():
            raise ValueError("zero relation supplied")
        if not rel.is_homogeneous():
            raise ValueError(f"relation {rel!r} is not degree-homogeneous")
        checked.append((rel.degree(), character_of(rel, action),
                        character_of(rel, lift), tuple(rel.terms.items())))
    keys = [(d, c % n) for d, c in cells]
    wanted: Dict[int, set] = {}
    for d, c in keys:
        wanted.setdefault(d, set()).add(c)
    field = action.ring.field
    zero = field.zero()
    types = {}
    for d, chars in wanted.items():
        cols, where = _cells(action, lift, d)
        # lift character 0 is the +1 eigenspace, character 1 the -1 eigenspace
        rows = {(c, s): [] for c in chars for s in (0, 1)}
        for rel_d, rel_c, rel_s, terms in checked:
            if rel_d > d:
                continue
            for m, ((mc, ms), _) in _cells(action, lift, d - rel_d)[1].items():
                cell = ((mc + rel_c) % n, (ms + rel_s) % 2)
                block = rows.get(cell)
                if block is None:
                    continue
                row = [zero] * len(cols.get(cell, ()))
                for e, coeff in terms:
                    hit = where.get(tuple(a + b for a, b in zip(m, e)))
                    if hit is None or hit[0] != cell:
                        raise AssertionError("ideal row escaped its eigenspace")
                    row[hit[1]] = coeff
                block.append(row)
        for c in chars:
            plus, minus = (
                len(cols.get((c, s), ()))
                - (exact_rank(rows[(c, s)], field) if rows[(c, s)] else 0)
                for s in (0, 1)
            )
            types[(d, c)] = SigmaType(plus, minus)
    return {key: types[key] for key in keys}


def sigma_type(
    action: CyclicAction,
    lift: CyclicAction,
    d: int,
    c: int,
    relations: Sequence[WPoly] = (),
) -> SigmaType:
    """The sigma type of the order-2 lift on the degree-d, character-c
    piece of ring / (relations): the one-cell call of sigma_types."""
    return sigma_types(action, lift, [(d, c)], relations)[(d, c % action.order)]
