import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux.snf import det_bareiss, smith_normal_form, solve_lattice_membership


def product(*factors):
    """The product of integer matrices given as rows, as tuples; a
    column vector is a matrix of one-entry rows."""
    out = factors[0]
    for f in factors[1:]:
        cols = list(zip(*f))
        out = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in out]
    return tuple(map(tuple, out))


def apply(m, x):
    return tuple(y for y, in product(m, [[v] for v in x]))


def diagonal(d):
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]))))


def gcd_of_minors(m, k: int) -> int:
    """gcd of all k x k minors; 0 when every minor vanishes."""
    if k == 0:
        return 1
    g = 0
    for rows in combinations(range(len(m)), k):
        for cols in combinations(range(len(m[0])), k):
            sub = [[m[i][j] for j in cols] for i in rows]
            g = gcd(g, det_bareiss(sub))
            if g == 1:
                return 1
    return abs(g)


def test_matrix_shape_validation():
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged"):
        solve_lattice_membership([[1, 2], [3]], [0, 0])
    with pytest.raises(ValueError, match="length"):
        solve_lattice_membership([[1, 2]], [0, 0])


def test_matrix_multiply_and_det():
    a = [[1, 2], [3, 4]]
    b = ((2, 0), (1, 2))
    assert product(a, b) == ((4, 4), (10, 8))
    assert apply(a, [1, -1]) == (-1, -1)
    assert det_bareiss(a) == -2
    assert det_bareiss([[2, 4], [6, 8]]) == -8
    assert det_bareiss(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1


def test_smith_frozen_example():
    # hand value: gcd of entries 2, |det| 8, so the diagonal must be (2, 4)
    m = [[2, 4], [6, 8]]
    u, d, v = smith_normal_form(m)
    assert diagonal(d) == (2, 4)
    assert product(u, m, v) == d
    assert abs(det_bareiss(u)) == 1 and abs(det_bareiss(v)) == 1


def test_smith_zero_and_identity():
    z = [[0, 0, 0], [0, 0, 0]]
    _, d, _ = smith_normal_form(z)
    assert diagonal(d) == (0, 0)
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    _, d, _ = smith_normal_form(identity)
    assert diagonal(d) == (1, 1, 1, 1)
    # a matrix with no rows has no columns and an empty factorisation
    assert smith_normal_form([]) == ((), (), ())
    assert solve_lattice_membership([], []) == ()


@st.composite
def int_matrices(draw, max_dim=5, bound=30):
    nr = draw(st.integers(1, max_dim))
    nc = draw(st.integers(1, max_dim))
    rows = [
        [draw(st.integers(-bound, bound)) for _ in range(nc)] for _ in range(nr)
    ]
    return rows


@settings(max_examples=120, deadline=None)
@given(int_matrices())
def test_smith_properties(m):
    u, d, v = smith_normal_form(m)
    assert product(u, m, v) == d
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    diag = diagonal(d)
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # oracle: product of the first k factors is the gcd of all k x k minors
    prod = 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        prod *= diag[k - 1]
        assert prod == gcd_of_minors(m, k)


def test_smith_transforms_stay_small():
    # with a pivot taken from anywhere but the least entry of its column or
    # row, this matrix drove U and V to entries of about 700 000 bits
    m = [
        [20, -29, 17, -27, -27],
        [-4, 9, -11, -2, -9],
        [11, -29, 27, 5, -6],
        [-24, -4, -13, 20, 17],
        [-28, 21, -9, -28, -27],
    ]
    u, d, v = smith_normal_form(m)
    assert product(u, m, v) == d
    assert abs(det_bareiss(u)) == 1 and abs(det_bareiss(v)) == 1
    assert diagonal(d) == (1, 1, 1, 1, abs(det_bareiss(m)))
    assert max(abs(x).bit_length() for t in (u, v) for row in t for x in row) <= 64


def test_lattice_membership_positive():
    rng = random.Random(7)
    for _ in range(40):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        x = [rng.randrange(-5, 6) for _ in range(nc)]
        b = apply(m, x)
        y = solve_lattice_membership(m, b)
        assert y is not None
        assert apply(m, y) == b


def test_lattice_membership_negative():
    m = [[2]]
    assert solve_lattice_membership(m, [1]) is None
    m = [[2, 0], [0, 3]]
    assert solve_lattice_membership(m, [1, 1]) is None
    assert solve_lattice_membership(m, [4, 9]) == (2, 3)
