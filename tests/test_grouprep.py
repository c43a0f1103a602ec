"""Character bookkeeping for diagonal actions, and the sign split under an
order-2 lift."""

import re

import pytest

from godeaux.grouprep import (
    CyclicAction,
    SigmaType,
    character_clash,
    character_of,
    eigenspace_basis,
    sigma_type,
)
from godeaux.scalars import QQ, PrimeField
from godeaux.wpoly import WRing, parse_poly


def godeaux_ring(field=QQ):
    return WRing(("x1", "x2", "x3", "y1", "y3"), (1, 1, 1, 2, 2), field)


def godeaux_action(ring):
    return CyclicAction(ring, 4, (1, 2, 3, 1, 3))


def godeaux_sigma(ring):
    return CyclicAction(ring, 2, (1, 0, 1, 0, 0))


def test_action_validation():
    ring = godeaux_ring()
    with pytest.raises(ValueError):
        CyclicAction(ring, 0, (0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        CyclicAction(ring, 4, (1, 2, 3))
    a = CyclicAction(ring, 4, (5, -2, 3, 1, 7))
    assert a.exponents == (1, 2, 3, 1, 3)


def test_monomial_characters():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    assert a.character_of_monomial((4, 0, 0, 0, 0)) == 0
    assert a.character_of_monomial((0, 0, 0, 1, 1)) == 0
    assert a.character_of_monomial((1, 1, 0, 0, 1)) == 2
    assert a.character_of_monomial((0, 0, 0, 2, 0)) == 2
    assert a.character_of_monomial((1, 0, 0, 0, 0)) == 1


def test_character_census_degree4():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    assert [len(eigenspace_basis(a, 4, c)) for c in range(4)] == [8, 7, 8, 7]
    assert [len(eigenspace_basis(a, 1, c)) for c in range(4)] == [0, 1, 1, 1]
    assert [len(eigenspace_basis(a, 2, c)) for c in range(4)] == [2, 2, 2, 2]


def test_eigenspace_basis_degree4_character0():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    got = set(eigenspace_basis(a, 4, 0))
    assert got == {
        (4, 0, 0, 0, 0),
        (0, 4, 0, 0, 0),
        (0, 0, 4, 0, 0),
        (2, 0, 2, 0, 0),
        (1, 2, 1, 0, 0),
        (1, 1, 0, 1, 0),
        (0, 1, 1, 0, 1),
        (0, 0, 0, 1, 1),
    }


def test_eigenspace_basis_degree4_character2():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    got = set(eigenspace_basis(a, 4, 2))
    assert got == {
        (2, 2, 0, 0, 0),
        (0, 2, 2, 0, 0),
        (3, 0, 1, 0, 0),
        (1, 0, 3, 0, 0),
        (1, 1, 0, 0, 1),
        (0, 1, 1, 1, 0),
        (0, 0, 0, 2, 0),
        (0, 0, 0, 0, 2),
    }


def test_character_of_polynomials():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    f = parse_poly(ring, "x1^4 + 2 * y1 y3")
    assert character_of(f, a) == 0
    g = parse_poly(ring, "y1^2 + -1 * y3^2")
    assert character_of(g, a) == 2
    with pytest.raises(ValueError, match="not character-homogeneous"):
        character_of(parse_poly(ring, "x1^4 + y1^2"), a)
    with pytest.raises(ValueError, match="zero polynomial"):
        character_of(ring.zero_poly(), a)


def test_rational_realization():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    assert a.rational_realization() is None
    sq = a.power(2)
    assert sq.exponents == (2, 0, 2, 2, 2)
    m = sq.rational_realization()
    assert m is not None
    one = QQ.one()
    assert m.scalars == (-one, one, -one, -one, -one)


def test_realize_over_prime_field():
    F13 = PrimeField(13)
    ring = godeaux_ring(F13)
    a = godeaux_action(ring)
    i = F13.sqrt_minus_one()
    assert i == F13(5)
    m = a.as_monomial_map(i)
    assert m.scalars == (i, i * i, i ** 3, i, i ** 3)
    with pytest.raises(ValueError, match="root of unity"):
        a.as_monomial_map(F13(2))
    with pytest.raises(ValueError, match="not primitive"):
        a.as_monomial_map(F13(12))


def test_lift_validation_and_signs():
    ring = godeaux_ring()
    with pytest.raises(ValueError):
        CyclicAction(ring, 2, (1, 0, 1))
    sigma = godeaux_sigma(ring)
    assert sigma.exponents == (1, 0, 1, 0, 0)
    # character 0 is the +1 eigenspace, character 1 the -1 eigenspace
    assert sigma.character_of_monomial((4, 0, 0, 0, 0)) == 0
    assert sigma.character_of_monomial((1, 1, 0, 1, 0)) == 1
    assert sigma.character_of_monomial((0, 0, 0, 1, 1)) == 0
    one = QQ.one()
    assert sigma.rational_realization().scalars == (-one, one, -one, one, one)


def test_lift_twists():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    sigma = godeaux_sigma(ring)
    # scaling by -1 flips exactly the weight-odd coordinates
    scaling = CyclicAction(ring, 2, tuple(w % 2 for w in ring.weights))
    twisted = tuple(s + t for s, t in zip(sigma.exponents, scaling.exponents))
    assert CyclicAction(ring, 2, twisted).exponents == (0, 1, 0, 0, 0)
    # composing with the square of the generator gives the other lift
    g2 = tuple(e // 2 for e in a.power(2).exponents)
    other = tuple(s + t for s, t in zip(sigma.exponents, g2))
    assert CyclicAction(ring, 2, other).exponents == (0, 0, 0, 1, 1)


def test_sign_of_polynomials():
    ring = godeaux_ring()
    sigma = godeaux_sigma(ring)
    assert character_of(parse_poly(ring, "x1^4 + y1 y3"), sigma) == 0
    assert character_of(parse_poly(ring, "x1 x2 y1"), sigma) == 1
    with pytest.raises(ValueError, match="not character-homogeneous"):
        character_of(parse_poly(ring, "x1^4 + x1 x2 y1"), sigma)


def test_sign_clash_names_the_monomial_pair():
    ring = godeaux_ring()
    sigma = godeaux_sigma(ring)
    assert character_clash(parse_poly(ring, "x1^4 + y1 y3"), sigma) is None
    assert character_clash(ring.zero_poly(), sigma) is None
    mixed = parse_poly(ring, "x1^4 + y1 y3 + x1 x2 y1")
    a, b = character_clash(mixed, sigma)
    assert sigma.character_of_monomial(a) != sigma.character_of_monomial(b)
    assert a == mixed.monomials()[0]
    # the same pair is what character_of raises on
    with pytest.raises(ValueError, match=re.escape(f"monomials {a} and {b}")):
        character_of(mixed, sigma)


def sorted_clash(f, action):
    """The first monomial of f in sorted order and the first later one of
    another character: the oracle for the witness of character_clash."""
    monos = f.monomials()
    for e in monos[1:]:
        if action.character_of_monomial(e) != action.character_of_monomial(monos[0]):
            return monos[0], e
    return None


def test_character_clash_sorts_only_on_a_clash(monkeypatch):
    # random quartics and octics of P(1,1,1,2,2) under g, sigma and the
    # second lift: the same witness as the sorted scan, and no sorted
    # monomial list unless characters differ
    import random

    from godeaux.wpoly import WPoly, monomials_of_degree

    ring = godeaux_ring()
    actions = (godeaux_action(ring), godeaux_sigma(ring), CyclicAction(ring, 2, (1, 1, 0, 1, 0)))
    rng = random.Random(0)
    polys = [ring.zero_poly(), parse_poly(ring, "x1^4 + y1 y3")]
    for degree in (4, 8):
        monomials = monomials_of_degree(ring, degree)
        for size in (1, 2, 3, 5, 8):
            for _ in range(20):
                chosen = rng.sample(monomials, size)
                polys.append(WPoly(ring, {e: rng.randint(1, 9) for e in chosen}))
    sorts = []
    original = WPoly.monomials

    def counting(f):
        sorts.append(f)
        return original(f)

    clashes = 0
    for f in polys:
        for action in actions:
            want = sorted_clash(f, action)
            monkeypatch.setattr(WPoly, "monomials", counting)
            got = character_clash(f, action)
            monkeypatch.setattr(WPoly, "monomials", original)
            assert got == want
            assert len(sorts) == (want is not None)
            sorts.clear()
            clashes += want is not None
            if want is None and not f.is_zero():
                assert character_of(f, action) == \
                    action.character_of_monomial(f.monomials()[0])
    assert 0 < clashes < len(polys) * len(actions)


def test_sigma_type_strings():
    st = SigmaType(3, 4)
    assert st.as_ordered_string() == "{3,4}"
    assert st.as_set_string() == "{4,3}"
    assert st.unordered() == (4, 3)


def test_sigma_type_without_relations_is_raw_split():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    st = sigma_type(a, godeaux_sigma(ring), 4, 0)
    assert (st.plus, st.minus) == (6, 2)


def test_sigma_type_small_worked_example():
    # k[x, y] mod (x^2): checked by hand in each degree
    ring = WRing(("x", "y"), (1, 1), QQ)
    a = CyclicAction(ring, 2, (0, 0))
    lift = CyclicAction(ring, 2, (0, 1))
    rel = parse_poly(ring, "x^2")
    st2 = sigma_type(a, lift, 2, 0, [rel])
    assert (st2.plus, st2.minus) == (1, 1)
    st3 = sigma_type(a, lift, 3, 0, [rel])
    assert (st3.plus, st3.minus) == (1, 1)
    st5 = sigma_type(a, lift, 5, 0, [rel])
    assert (st5.plus, st5.minus) == (1, 1)


def test_sigma_type_relation_validation():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    sigma = godeaux_sigma(ring)
    with pytest.raises(ValueError, match="zero relation"):
        sigma_type(a, sigma, 4, 0, [ring.zero_poly()])
    with pytest.raises(ValueError, match="not character-homogeneous"):
        sigma_type(a, sigma, 4, 0, [parse_poly(ring, "x1^4 + y1^2")])
    with pytest.raises(ValueError, match="not character-homogeneous: monomials "
                                         r"\(4, 0, 0, 0, 0\) and \(1, 1, 0, 1, 0\)"):
        sigma_type(a, sigma, 4, 0, [parse_poly(ring, "x1^4 + x1 x2 y1")])
    with pytest.raises(ValueError, match="order 2, not 4"):
        sigma_type(a, a, 4, 0)
    with pytest.raises(ValueError, match="degree-homogeneous"):
        sigma_type(a, sigma, 4, 0, [parse_poly(ring, "x2^4 + x2^2")])


def test_relations_of_higher_degree_are_ignored():
    ring = WRing(("x", "y"), (1, 1), QQ)
    a = CyclicAction(ring, 2, (0, 0))
    lift = CyclicAction(ring, 2, (0, 1))
    rel = parse_poly(ring, "x^4")
    st = sigma_type(a, lift, 2, 0, [rel])
    assert (st.plus, st.minus) == (2, 1)
