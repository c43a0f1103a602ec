import random
from functools import reduce

import pytest

from godeaux.abelian import FinAbGroup, invariant_factors
from godeaux.groups import (
    SmallGroup,
    abelian_label,
    classify_order8,
    cyclic_group,
    direct_product,
    generated_group,
)


def dihedral_group(n):
    """Dihedral group of order 2n; element r^a s^b is labeled a + n*b."""
    def mul(x, y):
        a1, b1 = x % n, x // n
        a2, b2 = y % n, y // n
        # (r^a1 s^b1)(r^a2 s^b2) = r^(a1 + a2*(-1)^b1) s^(b1+b2)
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        return a + n * ((b1 + b2) % 2)

    return SmallGroup(tuple(tuple(mul(x, y) for y in range(2 * n)) for x in range(2 * n)))


def quaternion_group():
    """Q8 with elements 1,-1,i,-i,j,-j,k,-k labeled 0..7."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def split(s):
        return (-1 if s.startswith("-") else 1, s.lstrip("-"))

    def mul(x, y):
        sx, ux = split(names[x])
        sy, uy = split(names[y])
        if ux == "1":
            s, u = sx * sy, uy
        elif uy == "1":
            s, u = sx * sy, ux
        elif ux == uy:
            s, u = -sx * sy, "1"
        else:
            s, b = sx * sy, base[(ux, uy)]
            sb, u = split(b)
            s *= sb
        return names.index(u if s == 1 else "-" + u if u != "1" else "-1")

    return SmallGroup(tuple(tuple(mul(x, y) for y in range(8)) for x in range(8)))


def relabel(group, perm):
    """The same group with element a renamed perm[a]."""
    n = group.order
    inv = [0] * n
    for a, pa in enumerate(perm):
        inv[pa] = a
    return SmallGroup(
        tuple(tuple(perm[group.table[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
    )


def all_order8_groups():
    return {
        "Z8": cyclic_group(8),
        "Z4xZ2": direct_product(cyclic_group(4), cyclic_group(2)),
        "Z2^3": direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
        "D4": dihedral_group(4),
        "Q8": quaternion_group(),
    }


def test_table_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        SmallGroup(((0, 1), (1, 1)))  # second row has no inverse
    # Latin-ish table with identity but broken associativity
    t = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    t[1][1], t[1][2] = t[1][2], t[1][1]
    with pytest.raises(ValueError):
        SmallGroup(tuple(tuple(r) for r in t))
    with pytest.raises(ValueError):
        SmallGroup(tuple())


def test_cyclic_group_basics():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.inv(2) == 4
    assert g.is_abelian()


def test_dihedral_group_relations():
    d4 = dihedral_group(4)
    assert d4.order == 8
    assert not d4.is_abelian()
    r, s = 1, 4  # rotation r, reflection s, labels from the constructor
    assert d4.element_order(r) == 4
    assert d4.element_order(s) == 2
    # s r s = r^-1
    srs = d4.mul(d4.mul(s, r), s)
    assert srs == d4.inv(r)


def test_quaternion_group_relations():
    q8 = quaternion_group()
    assert q8.order == 8
    assert not q8.is_abelian()
    census = q8.order_census()
    assert census == {1: 1, 2: 1, 4: 6}


def test_classify_order8_all_five():
    for label, group in all_order8_groups().items():
        assert classify_order8(group) == label


def test_classify_order8_is_relabeling_invariant():
    rng = random.Random(99)
    for label, group in all_order8_groups().items():
        for _ in range(10):
            perm = list(range(8))
            rng.shuffle(perm)
            assert classify_order8(relabel(group, perm)) == label


def test_classify_order8_rejects_other_orders():
    with pytest.raises(ValueError):
        classify_order8(cyclic_group(6))


def test_abelian_labels_for_two_d_groups():
    assert abelian_label(cyclic_group(4)) == "Z4"
    assert abelian_label(direct_product(cyclic_group(2), cyclic_group(2))) == "Z2xZ2"
    assert abelian_label(cyclic_group(6)) == "Z6"
    assert abelian_label(direct_product(cyclic_group(2), cyclic_group(3))) == "Z6"
    assert abelian_label(cyclic_group(8)) == "Z8"
    assert abelian_label(direct_product(cyclic_group(4), cyclic_group(2))) == "Z4xZ2"
    assert abelian_label(cyclic_group(12)) == "Z12"
    assert abelian_label(direct_product(cyclic_group(2), cyclic_group(6))) == "Z6xZ2"
    with pytest.raises(ValueError):
        abelian_label(dihedral_group(4))


def test_abelian_label_of_trivial_group():
    assert abelian_label(cyclic_group(1)) == "Z1"


def cyclic_order_lists(bound, smallest=2):
    """Every nondecreasing list of cyclic orders >= 2 with product <= bound."""
    yield []
    for n in range(smallest, bound + 1):
        for rest in cyclic_order_lists(bound // n, n):
            yield [n] + rest


def test_census_label_matches_invariant_factors():
    lists = list(cyclic_order_lists(16))
    # the unordered factorizations of 1, 2, ..., 16
    assert len(lists) == 31
    for orders in lists:
        group = reduce(direct_product, [cyclic_group(n) for n in orders], cyclic_group(1))
        assert abelian_label(group) == FinAbGroup(invariant_factors(orders)).label, orders


def test_generated_group_closure():
    # D4 generated inside the symmetric group on the square's corners
    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))

    rot = (1, 2, 3, 0)
    flip = (1, 0, 3, 2)
    group, elems = generated_group([rot, flip], compose, (0, 1, 2, 3))
    assert group.order == 8
    assert classify_order8(group) == "D4"
    assert elems[0] == (0, 1, 2, 3)

    group, _ = generated_group([rot], compose, (0, 1, 2, 3))
    assert group.order == 4
    assert abelian_label(group) == "Z4"


def test_generated_group_bound():
    def compose(a, b):
        return (a + b) % 100

    with pytest.raises(ValueError):
        generated_group([1], compose, 0)
