"""Small groups as explicit multiplication tables (order <= 16)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from .abelian import FinAbGroup, invariant_factors
from .scalars import int_tuple, is_prime

MAX_ORDER = 16


@dataclass(frozen=True)
class SmallGroup:
    """A finite group on labels 0..n-1 with table[a][b] = a*b.

    The group axioms are checked on construction; n <= 16 keeps the cubic
    associativity scan trivial.
    """

    table: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        t = tuple(map(int_tuple, self.table))
        object.__setattr__(self, "table", t)
        n = len(t)
        if n == 0 or n > MAX_ORDER:
            raise ValueError(f"order {n} outside supported range 1..{MAX_ORDER}")
        for row in t:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValueError("table is not closed on 0..n-1")
        e = self._find_identity(t)
        if e is None:
            raise ValueError("no identity element")
        for a in range(n):
            if e not in t[a]:
                raise ValueError(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise ValueError("multiplication is not associative")

    @staticmethod
    def _find_identity(t) -> int | None:
        n = len(t)
        for e in range(n):
            if all(t[e][a] == a and t[a][e] == a for a in range(n)):
                return e
        return None

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def identity(self) -> int:
        e = self._find_identity(self.table)
        assert e is not None
        return e

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        e = self.identity
        return self.table[a].index(e)

    def element_order(self, a: int) -> int:
        e = self.identity
        x, k = a, 1
        while x != e:
            x = self.mul(x, a)
            k += 1
        return k

    def order_census(self) -> Dict[int, int]:
        census: Dict[int, int] = {}
        for a in range(self.order):
            o = self.element_order(a)
            census[o] = census.get(o, 0) + 1
        return census

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n))


def cyclic_group(n: int) -> SmallGroup:
    return SmallGroup(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def direct_product(g: SmallGroup, h: SmallGroup) -> SmallGroup:
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    index = {p: i for i, p in enumerate(pairs)}
    return SmallGroup(
        tuple(
            tuple(index[(g.mul(a1, a2), h.mul(b1, b2))] for (a2, b2) in pairs)
            for (a1, b1) in pairs
        )
    )


def generated_group(
    generators: Sequence[Hashable],
    compose: Callable,
    identity: Hashable,
) -> Tuple[SmallGroup, List[Hashable]]:
    """Close a set of hashable elements under an associative composition.

    Returns the abstract table and the element list in discovery order,
    with the identity first.  Raises when the closure exceeds MAX_ORDER.
    """
    elems: List[Hashable] = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for s in generators:
                f = compose(e, s)
                if f not in index:
                    if len(elems) >= MAX_ORDER:
                        raise ValueError(f"closure exceeds order {MAX_ORDER}")
                    index[f] = len(elems)
                    elems.append(f)
                    nxt.append(f)
        frontier = nxt
    table = tuple(
        tuple(index[compose(a, b)] for b in elems) for a in elems
    )
    return SmallGroup(table), elems


def classify_order8(g: SmallGroup) -> str:
    """One of Z8, Z4xZ2, Z2^3, D4, Q8: the abelian label, or for a
    nonabelian group the count of its order-4 elements."""
    if g.order != 8:
        raise ValueError(f"classify_order8 needs order 8, got {g.order}")
    if g.is_abelian():
        return abelian_label(g)
    census = g.order_census()
    # nonabelian of order 8: D4 has two order-4 elements, Q8 has six
    if census.get(4, 0) == 2:
        return "D4"
    if census.get(4, 0) == 6:
        return "Q8"
    raise AssertionError(f"impossible order census for order 8: {census}")


def abelian_label(g: SmallGroup) -> str:
    """Invariant-factor label of an abelian group, read off its census.

    For a prime p and G = Z/p^e1 x ... (p-part), the elements killed by
    p^k number p^(sum_i min(e_i, k)); the step of that exponent from k-1
    to k is c_k = #{i : e_i >= k}, which pins the cyclic orders p^e_i.
    """
    if not g.is_abelian():
        raise ValueError("abelian_label needs an abelian group")
    census = g.order_census()
    orders: List[int] = []
    for p in range(2, g.order + 1):
        if g.order % p or not is_prime(p):
            continue
        logs = [0]  # logs[k] = log_p #{x : p^k x = 0}, until it stops growing
        while len(logs) < 2 or logs[-1] > logs[-2]:
            killed = sum(c for o, c in census.items() if p ** len(logs) % o == 0)
            logs.append(next(e for e in count() if p ** e >= killed))
        steps = [b - a for a, b in zip(logs, logs[1:])]  # c_1, c_2, ..., 0
        orders += [p ** sum(c > i for c in steps) for i in range(steps[0])]
    return FinAbGroup(invariant_factors(orders)).label
