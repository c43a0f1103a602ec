import random
from fractions import Fraction
from itertools import combinations

import pytest

from godeaux.abelian import FinAbGroup, halve, invariant_factors, is_two_divisible
from godeaux.covers import DivClass, preset_model
from godeaux.groups import SmallGroup
from godeaux.scalars import (
    PrimeField,
    QQ,
    comma_list,
    exact_int,
    exact_rank,
    exact_rref,
    field_from_spec,
    group_label,
    integer,
    is_prime,
    monomial_factors,
    polynomial_terms,
    int_tuple,
    scalar_to_str,
)
from godeaux.snf import det_bareiss, smith_normal_form, solve_lattice_membership
from godeaux.wpoly import MonomialMap, WPoly, WRing

from fraction_oracle import nullspace, solve_linear


def test_prime_predicate():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_fp_arithmetic_basics():
    # a GF(p) value is an int residue; the descriptor reduces what int
    # arithmetic gives
    F = PrimeField(13)
    a, b = F(7), F(9)
    assert (a, b) == (7, 9) and type(a) is int
    assert F(a + b) == 3
    assert F(a - b) == 11
    assert F(a * b) == 63 % 13
    assert F(-a) == 6
    assert F(a * F.inverse(b) * b) == a
    assert F.inverse(a) == pow(7, -1, 13) and F(a * F.inverse(a)) == 1
    assert F.inverse(-6) == F.inverse(7)
    # Fermat: a^(p-1) = 1
    for v in range(1, 13):
        assert F(v ** 12) == 1
    assert QQ.inverse(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.inverse(4) == Fraction(1, 4)


def test_fp_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        PrimeField(13).inverse(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(13).inverse(26)
    with pytest.raises(ZeroDivisionError):
        QQ.inverse(Fraction(0))


def test_both_fields_and_their_rings_take_one_scalar_rule():
    F = PrimeField(13)
    assert [F(v) for v in (3, -1, 2 ** 100, "-14", Fraction(-3, 7))] == [
        3, 12, 2 ** 100 % 13, 12, -3 * pow(7, -1, 13) % 13]
    assert [QQ(v) for v in (3, "4/6", Fraction(1, 2))] == [3, Fraction(2, 3), Fraction(1, 2)]
    for field in (F, QQ):
        for value in (True, False, 0.5, 2.0, None):
            with pytest.raises(TypeError):
                field(value)
    # a GF(p) ring takes ints and integer strings, never a bool, Fraction or
    # float; a Q ring takes Fractions too, never a bool or float
    ring_p, ring_q = (WRing(("a", "b"), (1, 1), field) for field in (F, QQ))
    assert WPoly(ring_p, {(1, 0): 27, (0, 1): "-1"}).terms == {(1, 0): 1, (0, 1): 12}
    assert WPoly(ring_p, {(1, 0): 13}).is_zero()
    assert WPoly(ring_q, {(1, 0): Fraction(1, 2), (0, 1): 3}).terms == {
        (1, 0): Fraction(1, 2), (0, 1): Fraction(3)}
    assert (ring_p.monomial((1, 0)) * 27).terms == {(1, 0): 1}
    assert (ring_q.monomial((1, 0)) * Fraction(1, 2)).terms == {(1, 0): Fraction(1, 2)}
    assert MonomialMap(ring_p, (-1, "14")).scalars == (12, 1)
    assert MonomialMap(ring_q, (Fraction(1, 2), 1)).scalars == (Fraction(1, 2), 1)
    for ring, bad in ((ring_p, (True, Fraction(1, 2), Fraction(3), 0.5)),
                      (ring_q, (True, False, 0.5))):
        for value in bad:
            with pytest.raises(TypeError):
                WPoly(ring, {(1, 0): value})
            with pytest.raises(TypeError):
                ring.monomial((1, 0), value)
            # a scalar factor and a diagonal map's scalars take the same rule
            with pytest.raises(TypeError):
                ring.monomial((1, 0)) * value
            with pytest.raises(TypeError):
                MonomialMap(ring, (value, 1))
        # a coordinate is read by the field, so a Fraction point is fine
        for value in (True, 0.5):
            with pytest.raises(TypeError):
                ring.monomial((1, 0)).evaluate([value, 1])


def test_rationals_read_only_integers_and_quotients():
    assert QQ(3) == Fraction(3)
    assert QQ(Fraction(-2, 6)) == Fraction(-1, 3)
    assert QQ("-12") == Fraction(-12)
    assert QQ("4/6") == Fraction(2, 3)
    assert QQ("-0/5") == 0
    for text in ("0.5", "1e5", "1e99999999", "1/0", "-3/00", "1/-2", " 1", "+1",
                 "1 / 2", "inf", "nan", "", "1_2", "\u0663", "\uff11/\uff12", "1/\u0662"):
        with pytest.raises(ValueError):
            QQ(text)
    with pytest.raises(TypeError):
        QQ(0.5)


def test_prime_field_reads_only_ascii_integers():
    F = PrimeField(13)
    assert F("12") == F(12)
    assert F("-14") == F(12)
    assert F("007") == F(7)
    # no digit separator, sign, whitespace, Unicode digit or quotient
    for text in ("1_2", " 7 ", "+5", "7\n", "\u0663", "1/2", "0.5", "", "-"):
        with pytest.raises(ValueError):
            F(text)


def test_reduction_of_fractions():
    F = PrimeField(13)
    assert F.from_fraction(Fraction(-3, 7)) == F(-3 * F.inverse(7))
    with pytest.raises(ValueError):
        F.from_fraction(Fraction(1, 13))


def test_sqrt_minus_one():
    F13 = PrimeField(13)
    i = F13.sqrt_minus_one()
    assert i == 5 and F13(i * i) == F13(-1)
    F29 = PrimeField(29)
    j = F29.sqrt_minus_one()
    assert j == 12 and F29(j * j) == F29(-1)
    with pytest.raises(ValueError):
        PrimeField(7).sqrt_minus_one()


@pytest.mark.parametrize("p", [3, 5, 13, 29, 101])
def test_prime_field_sqrt_is_the_least_root(p):
    F = PrimeField(p)
    for v in range(p):
        roots = [r for r in range(p) if r * r % p == v]
        root = F.sqrt(v)
        assert F.sqrt(F(v)) == root
        if roots:
            assert root == min(roots) and type(root) is int
        else:
            assert root is None


def test_rational_sqrt():
    assert QQ.sqrt(0) == 0
    assert QQ.sqrt(49) == 7
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(-9, 4)) is None
    assert QQ.sqrt(-1) is None
    assert QQ.sqrt(2) is None
    assert QQ.sqrt(Fraction(4, 3)) is None
    assert QQ.sqrt(Fraction(2, 9)) is None
    big = Fraction(12345678901234567891, 98765432109876543211)
    assert QQ.sqrt(big * big) == big


def test_sqrt_minus_one_is_the_least_root():
    # the values of the exhaustive search this replaced
    for p in range(5, 102, 4):
        if not is_prime(p):
            continue
        least = next(v for v in range(1, p) if v * v % p == p - 1)
        assert PrimeField(p).sqrt_minus_one() == least


def test_field_specs():
    assert field_from_spec("q") == QQ
    assert field_from_spec("QQ") == QQ
    assert field_from_spec("f13") == PrimeField(13)
    assert field_from_spec("Fp29") == PrimeField(29)
    assert field_from_spec(17) == PrimeField(17)
    with pytest.raises(ValueError):
        field_from_spec("f15")
    with pytest.raises(ValueError):
        field_from_spec("f2")


def test_field_specs_read_only_ascii_digits():
    # str.isdigit also takes these spellings of 13 (and int reads them)
    for spec in ("\u0661\u0663", "\uff11\uff13", "f\u0661\u0663", "1\u0663", "\u00b9\u00b3"):
        with pytest.raises(ValueError, match="unrecognized field spec"):
            field_from_spec(spec)
    assert field_from_spec(" F13 ") == PrimeField(13)


def test_integers_are_ascii_digits_with_a_leading_minus():
    assert [integer(t) for t in ("0", "-12", "007")] == [0, -12, 7]
    for text in ("", "-", "+5", " 5", "5 ", "1_2", "\u0663", "\uff15", "\u00b3", "5.0", 5):
        with pytest.raises(ValueError):
            integer(text)


def test_integer_values_are_ints_and_nothing_else():
    assert [exact_int(n) for n in (0, -7, 2 ** 100)] == [0, -7, 2 ** 100]
    assert int_tuple([3, -1]) == (3, -1)
    for value in (True, False, 2.0, 2.9, "2", Fraction(2), None):
        with pytest.raises(TypeError, match="not an int"):
            exact_int(value)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: is_two_divisible(FinAbGroup((4,)), (2.9,)), id="two-divisible-float"),
    pytest.param(lambda: FinAbGroup((4.7,)), id="factor-float"),
    pytest.param(lambda: FinAbGroup((True, 4)), id="factor-bool"),
    pytest.param(lambda: invariant_factors([2.5, 4]), id="cyclic-order-float"),
    pytest.param(lambda: halve(FinAbGroup((4,)), ("2",)), id="halve-str"),
    pytest.param(lambda: DivClass(preset_model("p2"), (1.9,)), id="class-float"),
    pytest.param(lambda: True * preset_model("p2").named("H"), id="class-times-bool"),
    pytest.param(lambda: SmallGroup(((0.0,),)), id="table-float"),
    pytest.param(lambda: WRing(("a", "b"), (1.7, 2), QQ), id="weight-float"),
    pytest.param(lambda: WRing(("a", "b"), (1, 2), QQ).monomial((1.9, 0)), id="exponent-float"),
    pytest.param(lambda: smith_normal_form([[1.5, True]]), id="smith-float-bool"),
    pytest.param(lambda: solve_lattice_membership([[1.5, True]], [1]), id="solve-float-bool"),
    pytest.param(lambda: solve_lattice_membership([[2]], [Fraction(4)]), id="solve-fraction"),
])
def test_hostile_integer_values_raise(call):
    # an int() cast would truncate each float, take True as 1 and reread "2"
    with pytest.raises(TypeError, match="not an int"):
        call()


def test_comma_lists_strip_each_item_once_and_refuse_empty_items():
    assert comma_list(" 13 , 29") == ["13", "29"]
    assert comma_list("quasi-smooth") == ["quasi-smooth"]
    for text in ("", "13,", ",13", "13,,29", "13, ,29"):
        with pytest.raises(ValueError, match="empty item"):
            comma_list(text)


def test_monomials_polynomials_and_group_labels_split_by_the_grammar():
    assert monomial_factors("x1^2 y3") == [("x1", 2), ("y3", 1)]
    assert monomial_factors("1") == []
    assert polynomial_terms(" -3/7 * x1^4 + y1 y3 + 5 ") == [
        ("-3/7", "x1^4"), ("1", "y1 y3"), ("5", "1")]
    assert polynomial_terms(" 0 ") == polynomial_terms("") == []
    assert group_label("Z4xZ2^3") == [(4, 1), (2, 3)]
    assert group_label("Z1^999999999") == [(1, 999999999)]
    for text in ("x1^0", "x1^1_0", "x1 ", "1x"):
        with pytest.raises(ValueError):
            monomial_factors(text)
    for text in ("3 *", "* x1", "x1 + ", "+"):
        with pytest.raises(ValueError, match="empty term"):
            polynomial_terms(text)
    for text in ("Z2 x Z4", "Z2^0", "Z\u0664", "Z4^1_0", "z4", "Z2^", ""):
        with pytest.raises(ValueError):
            group_label(text)


def test_scalar_strings():
    assert scalar_to_str(Fraction(-3, 7)) == "-3/7"
    assert scalar_to_str(Fraction(4)) == "4"
    assert scalar_to_str(PrimeField(13)(-4)) == "9"
    for value in (True, 0.5):
        with pytest.raises(TypeError):
            scalar_to_str(value)


def test_rref_and_rank_over_q():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(1), Fraction(0), Fraction(1)],
    ]
    assert exact_rank(rows, QQ) == 2
    red, pivots = exact_rref(rows, QQ)
    assert pivots == [0, 1]


def test_rank_over_fp():
    F = PrimeField(13)
    rows = [[F(1), F(2)], [F(3), F(6)]]
    assert exact_rank(rows, F) == 1
    rows = [[F(1), F(2)], [F(3), F(7)]]
    assert exact_rank(rows, F) == 2
    # unreduced entries are read mod p
    assert exact_rank([[1, 2], [16, 32]], F) == 1
    assert exact_rref([[14, 28], [0, 13]], F) == ([[1, 2], [0, 0]], [0])


@pytest.mark.parametrize("p", [3, 13, 101])
def test_rank_mod_p_is_the_size_of_the_largest_nonzero_minor(p):
    # an independent check of the int rank path: integer minors by Bareiss,
    # read mod p, on unreduced int matrices of every rank up to 5 x 6
    rng = random.Random(p)
    F = PrimeField(p)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        k = rng.randint(0, min(m, n))
        # the product of an m x k and a k x n matrix has rank at most k
        left = [[rng.randint(-2 * p, 2 * p) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-2 * p, 2 * p) for _ in range(n)] for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                for i in range(m)]
        rank = max((size for size in range(1, min(m, n) + 1)
                    for rs in combinations(range(m), size)
                    for cs in combinations(range(n), size)
                    if det_bareiss([[rows[i][j] for j in cs] for i in rs]) % p), default=0)
        assert exact_rank(rows, F) == rank
        kernel = nullspace(rows, F)
        assert len(kernel) == n - rank
        for v in kernel:
            assert all(0 <= x < p for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)


def test_solve_and_nullspace():
    rows = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    x = solve_linear(rows, [Fraction(5), Fraction(6)], QQ)
    assert x == [Fraction(3, 2), Fraction(2)]
    assert solve_linear([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
                        [Fraction(0), Fraction(1)], QQ) is None
    F = PrimeField(13)
    assert solve_linear([[2, 1], [0, 3]], [5, 6], F) == [F(3 * F.inverse(2)), 2]
    ns = nullspace([[Fraction(1), Fraction(2), Fraction(3)]], QQ)
    assert len(ns) == 2
    for v in ns:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
