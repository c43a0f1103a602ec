"""Character and sign bookkeeping for diagonal actions."""

import pytest

from godeaux.grouprep import (
    CyclicAction,
    InvolutionLift,
    SigmaType,
    character_census,
    character_of,
    eigenspace_basis,
    sigma_type,
    sign_clash,
    sign_of,
)
from godeaux.scalars import QQ, PrimeField
from godeaux.wpoly import WRing, parse_poly


def godeaux_ring(field=QQ):
    return WRing(("x1", "x2", "x3", "y1", "y3"), (1, 1, 1, 2, 2), field)


def godeaux_action(ring):
    return CyclicAction(ring, 4, (1, 2, 3, 1, 3))


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
    assert character_census(a, 4) == {0: 8, 1: 7, 2: 8, 3: 7}
    assert character_census(a, 1) == {0: 0, 1: 1, 2: 1, 3: 1}
    assert character_census(a, 2) == {0: 2, 1: 2, 2: 2, 3: 2}


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
        InvolutionLift(ring, (1, -1, 1))
    with pytest.raises(ValueError):
        InvolutionLift(ring, (1, -1, 1, 0, 1))
    sigma = InvolutionLift(ring, (-1, 1, -1, 1, 1), "sigma")
    assert sigma.sign_of_monomial((4, 0, 0, 0, 0)) == 1
    assert sigma.sign_of_monomial((1, 1, 0, 1, 0)) == -1
    assert sigma.sign_of_monomial((0, 0, 0, 1, 1)) == 1


def test_lift_twists():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    sigma = InvolutionLift(ring, (-1, 1, -1, 1, 1), "sigma")
    # scaling by -1 flips exactly the weight-odd coordinates
    assert sigma.twist_by_projective_scaling().signs == (1, -1, 1, 1, 1)
    # composing with the square of the generator gives the other lift
    assert sigma.twist_by_action_square(a).signs == (1, 1, 1, -1, -1)
    with pytest.raises(ValueError):
        sigma.twist_by_action_square(CyclicAction(ring, 2, (1, 0, 1, 0, 0)))


def test_sign_of_polynomials():
    ring = godeaux_ring()
    sigma = InvolutionLift(ring, (-1, 1, -1, 1, 1))
    assert sign_of(parse_poly(ring, "x1^4 + y1 y3"), sigma) == 1
    assert sign_of(parse_poly(ring, "x1 x2 y1"), sigma) == -1
    with pytest.raises(ValueError, match="not sign-homogeneous"):
        sign_of(parse_poly(ring, "x1^4 + x1 x2 y1"), sigma)


def test_sign_clash_names_the_monomial_pair():
    ring = godeaux_ring()
    sigma = InvolutionLift(ring, (-1, 1, -1, 1, 1))
    assert sign_clash(parse_poly(ring, "x1^4 + y1 y3"), sigma) is None
    mixed = parse_poly(ring, "x1^4 + y1 y3 + x1 x2 y1")
    a, b = sign_clash(mixed, sigma)
    assert sigma.sign_of_monomial(a) == -sigma.sign_of_monomial(b)
    assert a == mixed.monomials()[0]


def test_sigma_type_strings():
    st = SigmaType(3, 4)
    assert st.as_ordered_string() == "{3,4}"
    assert st.as_set_string() == "{4,3}"
    assert st.unordered() == (4, 3)


def test_sigma_type_without_relations_is_raw_split():
    ring = godeaux_ring()
    a = godeaux_action(ring)
    sigma = InvolutionLift(ring, (-1, 1, -1, 1, 1))
    st = sigma_type(a, sigma, 4, 0)
    assert (st.plus, st.minus) == (6, 2)


def test_sigma_type_small_worked_example():
    # k[x, y] mod (x^2): checked by hand in each degree
    ring = WRing(("x", "y"), (1, 1), QQ)
    a = CyclicAction(ring, 2, (0, 0))
    lift = InvolutionLift(ring, (1, -1))
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
    sigma = InvolutionLift(ring, (-1, 1, -1, 1, 1))
    with pytest.raises(ValueError, match="zero relation"):
        sigma_type(a, sigma, 4, 0, [ring.zero_poly()])
    with pytest.raises(ValueError, match="not character-homogeneous"):
        sigma_type(a, sigma, 4, 0, [parse_poly(ring, "x1^4 + y1^2")])
    with pytest.raises(ValueError, match="not sign-homogeneous"):
        sigma_type(a, sigma, 4, 0, [parse_poly(ring, "x1^4 + x1 x2 y1")])
    with pytest.raises(ValueError, match="degree-homogeneous"):
        sigma_type(a, sigma, 4, 0, [parse_poly(ring, "x2^4 + x2^2")])


def test_relations_of_higher_degree_are_ignored():
    ring = WRing(("x", "y"), (1, 1), QQ)
    a = CyclicAction(ring, 2, (0, 0))
    lift = InvolutionLift(ring, (1, -1))
    rel = parse_poly(ring, "x^4")
    st = sigma_type(a, lift, 2, 0, [rel])
    assert (st.plus, st.minus) == (2, 1)
