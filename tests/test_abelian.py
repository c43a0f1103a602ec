import random
from itertools import product
from math import gcd, lcm, prod

import pytest

import godeaux.abelian as abelian
from godeaux.abelian import (
    FinAbGroup,
    halve,
    invariant_factors,
    is_two_divisible,
    parse_group_label,
    subgroup_span,
)


def brute_span(group, gens):
    # independent breadth-first closure
    span = {group.zero()}
    frontier = [group.zero()]
    gens = [group.reduce(s) for s in gens]
    while frontier:
        new = []
        for e in frontier:
            for s in gens:
                f = tuple((a + b) % d for a, b, d in zip(e, s, group.invariant_factors))
                if f not in span:
                    span.add(f)
                    new.append(f)
        frontier = new
    return span


def brute_two_divisible(group, g, modulo=()):
    # exhaustive oracle: try every h in the group
    g = group.reduce(g)
    span = brute_span(group, modulo)
    for h in product(*(range(d) for d in group.invariant_factors)):
        two_h = tuple((2 * x) % d for x, d in zip(h, group.invariant_factors))
        diff = tuple((a - b) % d for a, b, d in zip(g, two_h, group.invariant_factors))
        if diff in span:
            return True
    return False


def test_invariant_factor_validation():
    assert FinAbGroup((1, 2, 4)).invariant_factors == (2, 4)
    assert FinAbGroup((2, 4)).order == 8
    with pytest.raises(ValueError):
        FinAbGroup((3, 4))
    with pytest.raises(ValueError):
        FinAbGroup((0, 2))


def element_order(group, a):
    """The order of a: the lcm over the factors d of d / gcd(a_i, d)."""
    return lcm(*(d // gcd(x, d) for x, d in zip(group.reduce(a), group.invariant_factors)))


def elements(group):
    return product(*(range(d) for d in group.invariant_factors))


def test_element_arithmetic():
    g = FinAbGroup((2, 8))
    assert g.add((1, 5), (1, 6)) == (0, 3)
    assert g.neg((1, 3)) == (1, 5)
    assert g.scale(3, (1, 3)) == (1, 1)
    assert element_order(g, (1, 2)) == 4
    assert element_order(g, (0, 0)) == 1
    assert len(list(elements(g))) == 16


def test_two_divisibility_in_z2_x_z4():
    g = FinAbGroup((2, 4))
    ok, h = is_two_divisible(g, (0, 2))
    assert ok and g.scale(2, h) == (0, 2)
    ok, h = is_two_divisible(g, (1, 0))
    assert not ok and h is None
    ok, h = is_two_divisible(g, (1, 0), modulo=[(1, 0)])
    assert ok


def test_two_divisibility_matches_brute_force():
    rng = random.Random(2024)
    factor_menu = [(2,), (3,), (4,), (6,), (8,), (2, 2), (2, 4), (2, 8),
                   (4, 4), (2, 6), (3, 3), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2),
                   (4, 8), (2, 4, 4), (5,), (2, 10), (16,), (2, 16), (3, 12)]
    for trial in range(200):
        facs = factor_menu[rng.randrange(len(factor_menu))]
        g = FinAbGroup(facs)
        assert g.order <= 64
        elem = tuple(rng.randrange(d) for d in g.invariant_factors)
        n_mods = rng.randrange(3)
        mods = [tuple(rng.randrange(d) for d in g.invariant_factors) for _ in range(n_mods)]
        expected = brute_two_divisible(g, elem, mods)
        got, witness = is_two_divisible(g, elem, mods)
        assert got == expected, (facs, elem, mods)
        if got:
            # the witness really works, checked against the independent span
            two_w = g.scale(2, witness)
            diff = g.add(elem, g.neg(two_w))
            assert diff in brute_span(g, mods)


def test_subgroup_span():
    g = FinAbGroup((2, 4))
    assert subgroup_span(g, [(0, 2)]) == frozenset({(0, 0), (0, 2)})
    assert len(subgroup_span(g, [(1, 1)])) == 4


def chains(bound, smallest=2):
    """Every invariant-factor chain d1 | d2 | ... with product <= bound."""
    yield ()
    for d in range(smallest, bound + 1):
        for rest in chains(bound // d, d):
            if not rest or rest[0] % d == 0:
                yield (d,) + rest


def test_labels_parse_back_to_their_factors():
    seen = list(chains(64))
    # one chain per abelian group of order <= 64
    assert len(seen) == len(set(seen)) == 117
    for facs in seen:
        assert parse_group_label(FinAbGroup(facs).label) == facs
    assert FinAbGroup(()).label == "Z1"
    assert FinAbGroup((2, 2, 2)).label == "Z2^3"
    assert FinAbGroup((2, 4)).label == "Z4xZ2"


def test_invariant_factors_against_killed_counts():
    # the number of elements killed by m, prod gcd(m, n_i), pins the group
    rng = random.Random(11)
    for _ in range(300):
        orders = [rng.randrange(1, 13) for _ in range(rng.randrange(4))]
        facs = invariant_factors(orders)
        FinAbGroup(facs)  # a divisibility chain
        assert 1 not in facs and prod(facs) == prod(orders)
        for m in range(1, prod(orders) + 1):
            assert prod(gcd(m, n) for n in orders) == prod(gcd(m, d) for d in facs)
    with pytest.raises(ValueError, match="cyclic order"):
        invariant_factors([2, 0])


def test_one_lattice_solve_per_query(monkeypatch):
    calls = []
    solve = abelian.solve_lattice_membership

    def counting(m, b):
        calls.append(m)
        return solve(m, b)

    monkeypatch.setattr(abelian, "solve_lattice_membership", counting)
    g = FinAbGroup((2, 4))
    assert is_two_divisible(g, (1, 0), modulo=[(1, 0), (0, 1)])[0]
    assert len(calls) == 1
    # one free coordinate next to Z/2: (3, 1) = 2*(1, 0) + (1, 1)
    assert halve(FinAbGroup((2,)), (3, 1), [(1, 1)], free_rank=1) is not None
    assert len(calls) == 2


def test_bad_solve_fails_confirmation(monkeypatch):
    def wrong(m, b):
        return (1,) * len(m[0])

    monkeypatch.setattr(abelian, "solve_lattice_membership", wrong)
    with pytest.raises(AssertionError, match="confirmation"):
        is_two_divisible(FinAbGroup((2, 4)), (0, 2), modulo=[(1, 0)])
    with pytest.raises(AssertionError, match="confirmation"):
        halve(FinAbGroup(()), (4,), free_rank=1)


def test_halve_on_free_coordinates_is_exact():
    assert halve(FinAbGroup(()), (4, -6), free_rank=2) == (2, -3)
    assert halve(FinAbGroup(()), (3,), free_rank=1) is None
    assert halve(FinAbGroup((4,)), (2, 2), free_rank=1) == (1, 1)
    with pytest.raises(ValueError, match="element length"):
        halve(FinAbGroup((4,)), (2,), free_rank=1)
