"""Finite abelian groups in invariant-factor form, with exact 2-divisibility.

A group is a tuple of invariant factors d1 | d2 | ... | dk; elements are
integer tuples reduced mod the factors.  This is the package's one kernel
for such groups: invariant factors of a product of cyclic groups (by gcd
and lcm), the label format 'Z4xZ2' / 'Z2^3' and its parser, and
2-divisibility modulo a list of subgroup generators.  The last reduces to
an integer lattice membership problem over Z^r + Z/d1 + ... + Z/dk, answered
through Smith normal form, with the witness confirmed before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .scalars import exact_int, group_label, int_tuple
from .snf import solve_lattice_membership

Element = Tuple[int, ...]

_ENUMERATION_BOUND = 2 ** 20


@dataclass(frozen=True)
class FinAbGroup:
    invariant_factors: Tuple[int, ...]

    def __post_init__(self):
        facs = tuple(d for d in int_tuple(self.invariant_factors) if d != 1)
        for d in facs:
            if d < 1:
                raise ValueError(f"invariant factor {d} < 1")
        for x, y in zip(facs, facs[1:]):
            if y % x != 0:
                raise ValueError(
                    f"invariant factors {facs} are not an invariant-factor chain d_i | d_i+1"
                )
        object.__setattr__(self, "invariant_factors", facs)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def label(self) -> str:
        """'Z1', 'Z8', 'Z4xZ2' or 'Z2^3': largest factor first, and a power
        for three or more equal factors."""
        facs = self.invariant_factors
        if not facs:
            return "Z1"
        if len(facs) >= 3 and len(set(facs)) == 1:
            return f"Z{facs[0]}^{len(facs)}"
        return "x".join(f"Z{d}" for d in reversed(facs))

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def reduce(self, g: Sequence[int]) -> Element:
        if len(g) != self.rank:
            raise ValueError(f"element length {len(g)} != rank {self.rank}")
        return tuple(exact_int(x) % d for x, d in zip(g, self.invariant_factors))

    def zero(self) -> Element:
        return (0,) * self.rank

    def add(self, a: Sequence[int], b: Sequence[int]) -> Element:
        return self.reduce([x + y for x, y in zip(self.reduce(a), self.reduce(b))])

    def neg(self, a: Sequence[int]) -> Element:
        return self.reduce([-x for x in self.reduce(a)])

    def scale(self, n: int, a: Sequence[int]) -> Element:
        return self.reduce([n * x for x in self.reduce(a)])


def invariant_factors(orders: Iterable[int], max_rank: Optional[int] = None) -> Tuple[int, ...]:
    """Invariant factors of Z/n1 x ... x Z/nk, smallest first.  Each order
    joins the chain d1 | d2 | ... through Z/a x Z/b = Z/gcd(a, b) x Z/lcm(a, b),
    which keeps it a chain, so the orders are read one at a time and a group
    whose rank exceeds max_rank is refused as soon as it does."""
    chain: List[int] = []
    for n in orders:
        n = exact_int(n)
        if n < 1:
            raise ValueError(f"cyclic order {n} < 1")
        for i, d in enumerate(chain):
            chain[i], n = gcd(d, n), lcm(d, n)
        # the units are a prefix of the chain and stay units
        chain = [d for d in chain + [n] if d != 1]
        if max_rank is not None and len(chain) > max_rank:
            raise ValueError(f"the group has rank at least {len(chain)}, above {max_rank}")
    return tuple(chain)


def parse_group_label(label: str, max_rank: Optional[int] = None) -> Tuple[int, ...]:
    """Invariant factors of an abelian label like 'Z8', 'Z2xZ4' or 'Z2^3'.
    A power is expanded lazily and a power of Z1 not at all, so a label of
    rank above max_rank costs at most max_rank + 1 orders."""
    pairs = group_label(label)
    return invariant_factors((d for d, power in pairs if d != 1 for _ in range(power)), max_rank)


def halve(
    torsion: FinAbGroup,
    g: Sequence[int],
    modulo: Sequence[Sequence[int]] = (),
    free_rank: int = 0,
) -> Optional[Element]:
    """A vector h of Z^free_rank + torsion with g = 2*h modulo the subgroup
    generated by `modulo`, or None when there is none.

    Vectors list the free coordinates first, then the torsion ones.  The
    question is integer-linear: 2*h + sum t_j s_j + sum z_i d_i e_i = g must
    have a solution over Z, i.e. g must lie in the column lattice of
    [2*I | S | diag(d)].  The witness is confirmed with the solve's own
    coefficients t_j: exactly on free coordinates, mod d_i on torsion ones.
    """
    moduli = (0,) * free_rank + torsion.invariant_factors
    n = len(moduli)

    def vector(v: Sequence[int]) -> Element:
        if len(v) != n:
            raise ValueError(f"element length {len(v)} != rank {n}")
        return int_tuple(v[:free_rank]) + torsion.reduce(v[free_rank:])

    g = vector(g)
    mods = [vector(s) for s in modulo]
    rows = [
        [2 if r == i else 0 for i in range(n)]
        + [s[r] for s in mods]
        + [m if r == i else 0 for i, m in enumerate(moduli) if m]
        for r in range(n)
    ]
    x = solve_lattice_membership(rows, g)
    if x is None:
        return None
    h = x[:free_rank] + torsion.reduce(x[free_rank:n])
    t = x[n : n + len(mods)]
    for i, m in enumerate(moduli):
        residual = 2 * h[i] + sum(tj * s[i] for tj, s in zip(t, mods)) - g[i]
        if (residual % m if m else residual) != 0:
            raise AssertionError("divisibility witness failed confirmation")
    return h


def is_two_divisible(
    group: FinAbGroup,
    g: Sequence[int],
    modulo: Sequence[Sequence[int]] = (),
) -> Tuple[bool, Optional[Element]]:
    """Decide whether g = 2*h modulo the subgroup generated by `modulo`.

    Returns (verdict, h) with h a confirmed witness, or (False, None).
    """
    h = halve(group, g, modulo)
    return h is not None, h


def subgroup_span(group: FinAbGroup, gens: Sequence[Sequence[int]]) -> frozenset:
    """All elements of the subgroup generated by gens (breadth-first).

    Nothing in the package calls it; it is the enumeration reference the
    tests compare the lattice solve against."""
    seen = {group.zero()}
    frontier = [group.zero()]
    gens = [group.reduce(s) for s in gens]
    while frontier:
        nxt = []
        for e in frontier:
            for s in gens:
                f = group.add(e, s)
                if f not in seen:
                    if len(seen) > _ENUMERATION_BOUND:
                        raise ValueError("subgroup enumeration exceeded bound")
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return frozenset(seen)
