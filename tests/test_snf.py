import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux.snf import (
    IntMatrix,
    det_bareiss,
    smith_normal_form,
    solve_lattice_membership,
)


def gcd_of_minors(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors; 0 when every minor vanishes."""
    if k == 0:
        return 1
    g = 0
    for rows in combinations(range(m.nrows), k):
        for cols in combinations(range(m.ncols), k):
            sub = [[m[i, j] for j in cols] for i in rows]
            g = gcd(g, det_bareiss(sub))
            if g == 1:
                return 1
    return abs(g)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matrix_multiply_and_det():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[2, 0], [1, 2]])
    assert (a * b).rows == ((4, 4), (10, 8))
    assert a.det() == -2
    assert det_bareiss([[2, 4], [6, 8]]) == -8
    assert IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).det() == 1


def test_smith_frozen_example():
    # hand value: gcd of entries 2, |det| 8, so the diagonal must be (2, 4)
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert d.diagonal() == (2, 4)
    assert (u * m * v).rows == d.rows
    assert abs(u.det()) == 1 and abs(v.det()) == 1


def test_smith_zero_and_identity():
    z = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    _, d, _ = smith_normal_form(z)
    assert d.diagonal() == (0, 0)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    _, d, _ = smith_normal_form(IntMatrix.from_rows(identity))
    assert d.diagonal() == (1, 1, 1, 1)


@st.composite
def int_matrices(draw, max_dim=5, bound=30):
    nr = draw(st.integers(1, max_dim))
    nc = draw(st.integers(1, max_dim))
    rows = [
        [draw(st.integers(-bound, bound)) for _ in range(nc)] for _ in range(nr)
    ]
    return IntMatrix.from_rows(rows)


@settings(max_examples=120, deadline=None)
@given(int_matrices())
def test_smith_properties(m):
    u, d, v = smith_normal_form(m)
    assert (u * m * v).rows == d.rows
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = d.diagonal()
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # oracle: product of the first k factors is the gcd of all k x k minors
    prod = 1
    for k in range(1, min(m.nrows, m.ncols) + 1):
        prod *= diag[k - 1]
        assert prod == gcd_of_minors(m, k)


def test_smith_transforms_stay_small():
    # with a pivot taken from anywhere but the least entry of its column or
    # row, this matrix drove U and V to entries of about 700 000 bits
    m = IntMatrix.from_rows([
        [20, -29, 17, -27, -27],
        [-4, 9, -11, -2, -9],
        [11, -29, 27, 5, -6],
        [-24, -4, -13, 20, 17],
        [-28, 21, -9, -28, -27],
    ])
    u, d, v = smith_normal_form(m)
    assert (u * m * v).rows == d.rows
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    assert d.diagonal() == (1, 1, 1, 1, abs(m.det()))
    assert max(abs(x).bit_length() for t in (u, v) for row in t.rows for x in row) <= 64


def test_lattice_membership_positive():
    rng = random.Random(7)
    for _ in range(40):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        )
        x = [rng.randrange(-5, 6) for _ in range(nc)]
        b = m.apply(x)
        y = solve_lattice_membership(m, b)
        assert y is not None
        assert m.apply(y) == b


def test_lattice_membership_negative():
    m = IntMatrix.from_rows([[2]])
    assert solve_lattice_membership(m, [1]) is None
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_lattice_membership(m, [1, 1]) is None
    assert solve_lattice_membership(m, [4, 9]) == (2, 3)
