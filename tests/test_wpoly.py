import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux.scalars import PrimeField, QQ
from godeaux.wpoly import (
    MonomialMap,
    WPoly,
    WRing,
    apply_map,
    jacobian,
    monomial_to_str,
    monomials_of_degree,
    parse_monomial,
    parse_poly,
    substitute,
)


def weighted_degree_counts(weights, up_to):
    """Coefficients of prod_v 1/(1 - t^w_v) through degree up_to.

    The count of weighted-degree-d monomials, computed without enumerating
    them; used as an independent cross-check on monomials_of_degree.
    """
    coeffs = [1] + [0] * up_to
    for w in weights:
        # multiply by 1/(1 - t^w): prefix-sum with stride w
        for d in range(w, up_to + 1):
            coeffs[d] += coeffs[d - w]
    return coeffs


R = WRing(("x1", "x2", "x3", "y1", "y3"), (1, 1, 1, 2, 2), QQ)


def variable(ring, v):
    """The coordinate x_v as a polynomial."""
    return ring.monomial([int(i == v) for i in range(ring.nvars)])


def test_ring_validation():
    with pytest.raises(ValueError):
        WRing(("a", "a"), (1, 1), QQ)
    with pytest.raises(ValueError):
        WRing(("a", "b"), (1,), QQ)
    with pytest.raises(ValueError):
        WRing(("a",), (0,), QQ)


def test_monomial_counts_frozen():
    # hand-enumerated for weights (1,1,1,2,2)
    assert len(monomials_of_degree(R, 1)) == 3
    assert len(monomials_of_degree(R, 2)) == 8
    assert len(monomials_of_degree(R, 3)) == 16
    assert len(monomials_of_degree(R, 4)) == 30


def test_monomial_counts_match_generating_function():
    counts = weighted_degree_counts(R.weights, 12)
    for d in range(13):
        assert len(monomials_of_degree(R, d)) == counts[d]


def test_monomials_are_graded_lex_descending():
    monos = monomials_of_degree(R, 4)
    assert monos == tuple(sorted(monos, reverse=True))
    assert monos[0] == (4, 0, 0, 0, 0)
    assert monos[-1] == (0, 0, 0, 0, 2)


def test_poly_arithmetic():
    x1 = variable(R, 0)
    x2 = variable(R, 1)
    f = x1 * x1 - 2 * x2 * x2
    g = x1 * x1 + x2 * x2
    assert (f + g).coefficient((2, 0, 0, 0, 0)) == 2
    assert (f - f).is_zero()
    assert (f * g).degree() == 4
    h = (x1 + x2) ** 3
    assert h.coefficient((2, 1, 0, 0, 0)) == 3
    assert f.is_homogeneous()
    assert not (x1 + x1 * x1).is_homogeneous()


def test_zero_coefficients_are_dropped():
    x1 = variable(R, 0)
    f = x1 - x1
    assert f.terms == {}
    assert f.to_string() == "0"


def test_coefficient_type_enforcement():
    Rp = WRing(("a", "b"), (1, 1), PrimeField(13))
    with pytest.raises(TypeError):
        WPoly(Rp, {(1, 0): Fraction(1, 2)})


def test_serialization_round_trip():
    f = R.monomial((4, 0, 0, 0, 0), Fraction(-3, 7)) + R.monomial((0, 0, 0, 1, 1), 2)
    s = f.to_string()
    assert s == "-3/7 * x1^4 + 2 * y1 y3"
    assert parse_poly(R, s) == f
    assert parse_poly(R, "0").is_zero()
    assert parse_poly(R, "5") == R.constant(5)
    assert parse_poly(R, "x1^2 x2") == R.monomial((2, 1, 0, 0, 0))
    assert monomial_to_str(R, (0, 0, 0, 0, 0)) == "1"
    assert parse_monomial(R, "y3^2") == (0, 0, 0, 0, 2)


@pytest.mark.parametrize("text", ["x1^2 + + y1", "+ x1^2", "x1^2 +", "x1^2 +  + y1", "+"])
def test_parse_rejects_empty_terms(text):
    # an empty term was an IndexError, which no caller reports as bad input
    with pytest.raises(ValueError, match="empty term"):
        parse_poly(R, text)


@pytest.mark.parametrize("text", [
    "3 * ", "x1^2 + 3*", "* x1", "x1^\u0662", "x1^1_0", "x1^0", "x1^+2", "x1^-1", "x1  x2",
    "x1\tx2", "x1^2\u00a0+ y1", "- 3 * x1", "1 / 2 * x1", "3 x1", "-x1", "x1*x2", "\uff13",
])
def test_parse_rejects_spellings_outside_the_grammar(text):
    # each of these once parsed, as another polynomial or a truncated one
    with pytest.raises(ValueError):
        parse_poly(R, text)


def test_parse_keeps_the_spellings_of_to_string_and_the_bare_forms():
    assert parse_poly(R, " 2 * x1^03 + -1/2*y1 + y3 ") == (
        R.monomial((3, 0, 0, 0, 0), 2) + R.monomial((0, 0, 0, 1, 0), Fraction(-1, 2))
        + R.monomial((0, 0, 0, 0, 1)))
    assert parse_poly(R, "-7") == R.constant(-7)
    assert parse_poly(R, "") == parse_poly(R, " 0 ") == R.zero_poly()
    assert parse_monomial(R, "1") == (0, 0, 0, 0, 0)
    assert parse_monomial(R, "x1 x1^2") == (3, 0, 0, 0, 0)
    for key in (" x1^4", "x1^4 ", "", "x1^\u0664"):
        with pytest.raises(ValueError):
            parse_monomial(R, key)


def test_serialization_round_trip_over_fp():
    Rp = WRing(("a", "b"), (1, 2), PrimeField(13))
    f = Rp.monomial((2, 0), 12) + Rp.monomial((0, 1), 5)
    s = f.to_string()
    assert s == "12 * a^2 + 5 * b"
    assert parse_poly(Rp, s) == f


def test_evaluate():
    f = parse_poly(R, "1 * x1^2 + -1 * y1")
    assert f.evaluate([2, 0, 0, 3, 0]) == 1
    Rp = WRing(("a", "b"), (1, 1), PrimeField(13))
    g = parse_poly(Rp, "3 * a b")
    assert g.evaluate([Rp.field(5), Rp.field(2)]) == 30 % 13


def evaluate_by_field_ops(f, point):
    """f at the point by field arithmetic, term by term: the oracle for the
    int sums of WPoly.evaluate."""
    field = f.ring.field
    coords = [field(x) for x in point]
    total = field.zero()
    for e, c in f.terms.items():
        val = c
        for x, k in zip(coords, e):
            if k:
                val = field(val * x ** k)
        total = field(total + val)
    return total


F13 = WRing(R.names, R.weights, PrimeField(13))
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def _polys(ring, scalars):
    """Polynomials of weighted degree at most 6 on the ring, not
    necessarily homogeneous, the zero polynomial included."""
    monos = [e for d in range(7) for e in monomials_of_degree(ring, d)]
    return st.dictionaries(st.sampled_from(monos), scalars.map(ring.field),
                           max_size=6).map(lambda terms: WPoly(ring, terms))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_agrees_with_field_arithmetic(data):
    # rational coefficients at non-integral rational points, GF(13) points
    # given as unreduced ints or as residues, the zero polynomial, and
    # polynomials of several degrees
    if data.draw(st.booleans(), label="over Q"):
        ring, scalars = R, rationals
        point = data.draw(st.lists(rationals, min_size=5, max_size=5), label="point")
    else:
        ring, scalars = F13, st.integers(-30, 30)
        point = [x if data.draw(st.booleans()) else F13.field(x)
                 for x in data.draw(st.lists(st.integers(-30, 30), min_size=5, max_size=5))]
    f = data.draw(_polys(ring, scalars), label="f")
    value = f.evaluate(point)
    assert value == evaluate_by_field_ops(f, point)
    assert type(value) is type(ring.field.zero())


def test_evaluate_covers_the_edge_cases():
    half = Fraction(1, 2)
    assert R.zero_poly().evaluate([half, 0, 1, 2, 3]) == 0
    assert F13.zero_poly().evaluate([1, 2, 3, 4, 5]) == F13.field(0)
    # non-homogeneous: degrees 0, 1 and 4 at a point with denominators 2, 3
    f = parse_poly(R, "5/6 * x1^4 + -2/3 * x2 + 7/4")
    pt = [half, Fraction(-1, 3), 0, 0, Fraction(2, 3)]
    assert f.evaluate(pt) == evaluate_by_field_ops(f, pt) == Fraction(5, 96) + Fraction(2, 9) + Fraction(7, 4)


def test_partial_and_jacobian():
    f = parse_poly(R, "1 * x1^4 + 2 * x1 y1 + 5 * y3")
    fx = f.partial(0)
    assert fx == parse_poly(R, "4 * x1^3 + 2 * y1")
    j = jacobian([f])
    assert j[0][3] == parse_poly(R, "2 * x1")
    assert j[0][4] == R.constant(5)


def test_weighted_euler_identity():
    # sum_v w_v x_v df/dx_v = deg(f) f for homogeneous f
    f = parse_poly(R, "1 * x1^2 x2^2 + 3 * y1 y3 + -2 * x1 x2 y1")
    total = R.zero_poly()
    for v in range(R.nvars):
        total = total + R.weights[v] * (variable(R, v) * f.partial(v))
    assert total == 4 * f


def test_monomial_map_validation():
    with pytest.raises(ValueError):
        MonomialMap(R, (1, 1, 1, 1, 0))  # zero scalar
    with pytest.raises(ValueError):
        MonomialMap(R, (1, 1, 1, 1))  # one scalar short


def test_apply_map_matches_point_action():
    m = MonomialMap(R, (2, -1, 3, 5, -2))
    f = parse_poly(R, "1 * x1^2 x2 + -4 * y1 y3 + 7 * x3^4")
    p = [3, 1, -2, 5, 4]
    assert apply_map(f, m).evaluate(p) == f.evaluate(m.point_image(p))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=5, max_size=5),
       st.lists(st.integers(-6, 6), min_size=5, max_size=5))
def test_evaluate_is_ring_morphism(p, q):
    f = parse_poly(R, "2 * x1 x2 + -1 * y1 + 3 * x3^2")
    g = parse_poly(R, "1 * x1^2 + 1 * y3")
    pt = [Fraction(a) for a in p]
    assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
    assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)


def _random_poly(rng, ring, degree, terms=4):
    monos = monomials_of_degree(ring, degree)
    return WPoly(ring, {
        rng.choice(monos): ring.field(rng.randint(-5, 5)) for _ in range(terms)
    })


@pytest.mark.parametrize("field", [QQ, PrimeField(13)], ids=["Q", "F13"])
def test_substitute_commutes_with_evaluation(field):
    rng = random.Random(41)
    source = WRing(("a", "b", "c"), (1, 1, 1), field)
    target = WRing(("x1", "x2", "x3", "y1", "y3"), (1, 1, 1, 2, 2), field)
    for _ in range(30):
        f = _random_poly(rng, source, rng.randint(1, 3))
        images = [_random_poly(rng, target, rng.randint(1, 2)) for _ in range(3)]
        g = substitute(f, images)
        assert g.ring == target
        for _ in range(5):
            pt = [field(rng.randint(-6, 6)) for _ in range(5)]
            assert g.evaluate(pt) == f.evaluate([h.evaluate(pt) for h in images])


@pytest.mark.parametrize("field", [QQ, PrimeField(13)], ids=["Q", "F13"])
def test_substitute_by_a_monomial_map_is_apply_map(field):
    rng = random.Random(43)
    for _ in range(30):
        m = MonomialMap(WRing(R.names, R.weights, field),
                        [rng.choice([1, -1, 2, 3]) for _ in range(5)])
        f = _random_poly(rng, m.ring, rng.randint(1, 4), terms=6)
        images = [s * variable(m.ring, v) for v, s in enumerate(m.scalars)]
        assert substitute(f, images) == apply_map(f, m)


def test_substitute_needs_one_image_per_variable():
    x = variable(R, 0)
    with pytest.raises(ValueError, match="one image polynomial per variable"):
        substitute(x, [x, x])
