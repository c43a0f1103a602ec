"""Enumeration kernel: canonical representatives, point counts, and the
exhaustive finite-field checks."""

import ast
import gc
import inspect
import itertools
import math
import operator
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from godeaux import varieties
from godeaux.family import FamilyParams, build_family, canonical_action, random_params
from godeaux.scalars import QQ, PrimeField, is_prime
from godeaux.varieties import (
    CHUNK_LIMIT,
    MAX_ENUM_PRIME,
    Columns,
    PointSet,
    _blocks,
    _diagonal_fixed_patterns,
    _eliminant,
    _Fibres,
    _fixed_mask,
    _fixed_point_count,
    _horner,
    _orbit_count,
    _reduce_eqs,
    _row_values,
    _solve_s,
    _t_parts,
    check_fixed_locus,
    check_free_action,
    check_quasi_smooth,
    enumerate_points,
    fixed_locus,
    monomial_values,
    outer_values,
    sigma_fixed_components,
    surface_points,
)
from godeaux.wpoly import MonomialMap, WPoly, WRing, jacobian, monomials_of_degree, parse_poly

W_GODEAUX = (1, 1, 1, 2, 2)


def int_terms(f):
    """The terms of a polynomial over GF(p) as a list of (exponents,
    residue) pairs."""
    return list(f.terms.items())


def terms_of(eqs):
    """The int terms of each polynomial over GF(p)."""
    return [int_terms(f) for f in eqs]


def layout_of(terms):
    """The supports and the coefficient vector of some terms, as a scan
    hands them to _rank_below_two."""
    return varieties._supports(terms), varieties._coefficients(terms)


def reduce_wpolys(ring, p, eqs):
    """Every equation as a WPoly over GF(p), reduced from Q where needed:
    the oracle of _reduce_eqs, which gives their int terms."""
    ring_p = WRing(ring.names, ring.weights, PrimeField(p))
    return [WPoly(ring_p, {e: ring_p.field(c) for e, c in f.terms.items()}) for f in eqs]


def split_of(terms, n, p):
    """The split layout of the supports of some terms, with their
    coefficient vector: what a scan reads the equations through."""
    return (varieties._split_layout(varieties._supports(terms), n, p),
            varieties._coefficients(terms))


def split_values(split, coeffs, cols, p):
    """outer_values on the outer rows of some (outer coordinate, row)
    columns, through the table of their monomial values."""
    return outer_values(split, coeffs, monomial_values(split.monomials, cols, p), p)


def eliminant_of(terms, n, p):
    """The eliminant of some terms, from their supports and coefficients."""
    return _eliminant(varieties._supports(terms), varieties._coefficients(terms), n, p)


# --- box-scan oracle: every point of every free box, evaluated in chunks


def _chunks(weights, p):
    """Split free boxes into chunks of at most CHUNK_LIMIT points."""
    n = len(weights)
    out = []
    for prefix, start in _blocks(weights, p):
        pieces = [(prefix, start)]
        while pieces:
            pre, st = pieces.pop(0)
            if p ** (n - st) <= CHUNK_LIMIT:
                out.append((pre, st))
            else:
                pieces = [(pre + (v,), st + 1) for v in range(p)] + pieces
    return out


def _chunk_columns(prefix, start, n, p):
    free = n - start
    size = p ** free
    cols = [np.full(size, v, dtype=np.int64) for v in prefix]
    for t in range(free):
        block = np.repeat(np.arange(p, dtype=np.int64), p ** (free - 1 - t))
        cols.append(np.tile(block, p ** t))
    return cols


def _eval_on_columns(f, cols, p, pow_cache):
    size = len(cols[0])

    def powv(v, e):
        for k in range(1, e + 1):
            if (v, k) not in pow_cache:
                lower = cols[v] if k == 1 else pow_cache[(v, k - 1)] * cols[v]
                pow_cache[(v, k)] = lower % p
        return pow_cache[(v, e)]

    total = np.zeros(size, dtype=np.int64)
    for expts, coeff in f.terms.items():
        acc = None
        for v, e in enumerate(expts):
            if e:
                acc = powv(v, e) if acc is None else acc * powv(v, e) % p
        c = coeff % p
        term = np.full(size, c, dtype=np.int64) if acc is None else acc * c % p
        total = (total + term) % p
    return total


def box_scan(ring, p, eqs):
    """(points, scanned) by evaluating every equation on every canonical
    representative; the reference the fibred scan is compared against."""
    eqs_p = reduce_wpolys(ring, p, eqs)
    n = ring.nvars
    points, scanned = [], 0
    for prefix, start in _chunks(ring.weights, p):
        cols = _chunk_columns(prefix, start, n, p)
        mask = np.ones(len(cols[0]), dtype=bool)
        cache = {}
        for f in eqs_p:
            mask &= _eval_on_columns(f, cols, p, cache) == 0
        scanned += len(cols[0])
        points.extend(zip(*(col[mask].tolist() for col in cols)))
    return points, scanned


def family_ring(p=None):
    field = QQ if p is None else PrimeField(p)
    return WRing(("x1", "x2", "x3", "y1", "y3"), W_GODEAUX, field)


def p3_ring(p=None):
    field = QQ if p is None else PrimeField(p)
    return WRing(("y0", "y1", "y2", "y3"), (1, 1, 1, 1), field)


def brute_canonical(coords, weights, p):
    best = None
    for lam in range(1, p):
        cand = tuple(pow(lam, w, p) * c % p for w, c in zip(weights, coords))
        if best is None or cand < best:
            best = cand
    return best


def brute_representatives(weights, p):
    """Least orbit members of all nonzero vectors, sorted."""
    return sorted({
        brute_canonical(v, weights, p)
        for v in itertools.product(range(p), repeat=len(weights))
        if any(v)
    })


def test_canonicalize_against_brute_force():
    # the scan emits exactly the least orbit members, sorted and distinct
    # (hence strictly increasing)
    for weights, p in [(W_GODEAUX, 3), (W_GODEAUX, 5), (W_GODEAUX, 7),
                       ((1, 1, 1, 1), 5)]:
        names = tuple(f"v{i}" for i in range(len(weights)))
        ring = WRing(names, weights, PrimeField(p))
        listed = enumerate_points(ring, p, []).points
        assert list(listed) == brute_representatives(weights, p)


def test_surface_points_match_brute_force_filter():
    p = 5
    fam = build_family(random_params(p, seed=3))
    field = fam.ring.field

    def on_surface(pt):
        vals = [field(c) for c in pt]
        return all(q.evaluate(vals) == field.zero() for q in (fam.q0, fam.q2))

    expected = [pt for pt in brute_representatives(W_GODEAUX, p) if on_surface(pt)]
    assert expected
    surface = enumerate_points(fam.ring, p, [fam.q0, fam.q2])
    assert list(surface.points) == expected


def random_form(ring, degree, rng):
    """A homogeneous form with small random integer coefficients."""
    f = ring.zero_poly()
    for e in monomials_of_degree(ring, degree):
        f = f + ring.monomial(e, rng.randrange(-3, 4))
    return f


def differential_systems(rng):
    """(ring, equations) pairs over Q: seeded family members, with and
    without the involution enforced, and cone systems of 1-4 equations
    in P^3 led by the cone or by a random quadric."""
    systems = []
    for seed in (1, 2):
        for enforce in (True, False):
            fam = build_family(random_params("Q", seed=seed, enforce_involution=enforce))
            systems.append((fam.ring, [fam.q0, fam.q2]))
    ring = p3_ring()
    cone = parse_poly(ring, "y0^2 + -1 * y1 y2")
    for count in range(1, 5):
        for first in (cone, random_form(ring, 2, rng)):
            extra = [random_form(ring, rng.choice((1, 2)), rng) for _ in range(count - 1)]
            systems.append((ring, [first] + extra))
    return systems


def brute_zero_locus(ring, p, eqs):
    field = PrimeField(p)
    eqs_p = reduce_wpolys(ring, p, eqs)
    return [
        pt for pt in brute_representatives(ring.weights, p)
        if all(f.evaluate([field(c) for c in pt]) == field.zero() for f in eqs_p)
    ]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fibred_scan_matches_brute_force(p):
    for ring, eqs in differential_systems(random.Random(p)):
        assert list(enumerate_points(ring, p, eqs).points) == brute_zero_locus(ring, p, eqs)


@pytest.mark.parametrize("p", [13, 29])
def test_fibred_scan_matches_box_scan(p):
    for ring, eqs in differential_systems(random.Random(p)):
        points, scanned = box_scan(ring, p, eqs)
        surface = enumerate_points(ring, p, eqs)
        assert list(surface.points) == points
        assert surface.scanned == scanned


def test_fibre_branches():
    # f = x t^2 + y z t + z^3 is a t^2 + b t + c with a = x, b = y z, c = z^3
    p = 7
    ring = p3_ring()
    f = parse_poly(ring, "y0 y3^2 + y1 y2 y3 + y2^3")
    rows = {
        (1, 2, 1): [p - 1],        # a != 0, b^2 = 4ac: the double root -1
        (1, 0, 6): [1, 6],         # a != 0: t^2 = 1
        (1, 0, 1): [],             # a != 0: t^2 = -1 has no root mod 7
        (0, 1, 1): [p - 1],        # a = 0, b != 0: the linear root
        (0, 1, 0): list(range(p)),  # a = b = c = 0: the whole fibre
        (0, 0, 1): [],             # a = b = 0, c != 0: empty
    }
    # the six rows are grid rows: outer row r = (x, y) with s = z
    x, y, z = (np.array(col, dtype=np.int64) for col in zip(*rows))
    split, coeffs = split_of(_reduce_eqs(ring, p, [f])[1], ring.nvars, p)
    assert (split.filters, split.equations) == ((), (slice(0, 3),))
    g = split_values(split, coeffs, np.stack([x, y]), p)
    coeffs = _row_values(g, split.slots, np.arange(len(z)), split.s_powers[:, z], p)
    row, t = _Fibres(p).solve([coeffs], len(z))
    got = sorted(zip(row.tolist(), t.tolist()))
    want = sorted((i, v) for i, roots in enumerate(rows.values()) for v in roots)
    assert got == want
    assert list(enumerate_points(ring, p, [f]).points) == brute_zero_locus(ring, p, [f])
    points, _ = box_scan(ring, 13, [f])
    assert list(enumerate_points(ring, 13, [f]).points) == points


def grid_values(g, s_powers, p):
    """The values of the polynomials sum over i of g[q, i, r] s^i mod p on
    the grid of outer rows r times every value of s, as a (q, r, s) array,
    from the (i, value of s) powers of s: the filter of the scan before s
    was solved, kept as the oracle of the s stage."""
    values = np.matmul(g.transpose(0, 2, 1), s_powers)
    values %= p
    return values


def block_start(point, weights, p):
    """The first free coordinate of the box of _blocks holding the point."""
    starts = [start for prefix, start in _blocks(weights, p)
              if tuple(point[:len(prefix)]) == prefix]
    assert len(starts) == 1
    return starts[0]


def split_path_systems(rng):
    """(ring, equations) pairs for each branch of the split scan: a second
    P^3 equation of degree 3 or 4 in the last coordinate, a first equation
    of t-degree above 2, no equation, the zero equation, and weighted rings
    with boxes whose next-to-last coordinate is fixed, single-point boxes,
    and no outer coordinate."""
    ring = p3_ring()
    cone = parse_poly(ring, "y0^2 + -1 * y1 y2")
    systems = [(ring, [])]
    for degree in (3, 4):
        systems.append((ring, [cone, random_form(ring, degree, rng)]))
        systems.append((ring, [random_form(ring, degree, rng)]))
        systems.append((ring, [random_form(ring, degree, rng), cone]))
    systems.append((ring, [parse_poly(ring, "y3^3 + -1 * y0 y1 y2")]))
    systems.append((ring, [ring.zero_poly()]))
    systems.append((ring, [cone, ring.zero_poly()]))
    for weights in ((1, 2), (1, 1, 2), (1, 2, 2), W_GODEAUX):
        names = tuple(f"v{i}" for i in range(len(weights)))
        wring = WRing(names, weights, QQ)
        systems.append((wring, []))
        systems.append((wring, [random_form(wring, 4, rng)]))
        # no monomial in s alone or t alone, and one in s and t: every box
        # whose outer coordinates vanish holds points
        pinned = wring.zero_poly()
        for e, c in random_form(wring, 4, rng).terms.items():
            if any(e[:-2]) or (e[-2] and e[-1]):
                pinned = pinned + wring.monomial(e, c)
        for e in monomials_of_degree(wring, 4):
            if not any(e[:-2]) and e[-2] and e[-1]:
                pinned = pinned + wring.monomial(e, 1)
        systems.append((wring, [pinned]))
        systems.append((wring, [pinned, random_form(wring, 4, rng)]))
    return systems


@pytest.mark.parametrize("p", [3, 5, 7])
def test_split_scan_matches_brute_force(p):
    starts = set()
    for ring, eqs in split_path_systems(random.Random(100 + p)):
        expected = brute_zero_locus(ring, p, eqs)
        assert list(enumerate_points(ring, p, eqs).points) == expected
        n = ring.nvars
        starts |= {max(block_start(pt, ring.weights, p) - n, -2) for pt in expected}
    # points were found on boxes with s and t free, s fixed, and both fixed
    assert starts >= {-2, -1, 0}


@pytest.mark.parametrize("p", [13, 17])
def test_split_scan_matches_box_scan(p):
    for ring, eqs in split_path_systems(random.Random(100 + p)):
        points, scanned = box_scan(ring, p, eqs)
        surface = enumerate_points(ring, p, eqs)
        assert list(surface.points) == points
        assert surface.scanned == scanned


def python_value(terms, point, p):
    """A polynomial given as terms at a point, in Python ints."""
    return sum(c * math.prod(x ** k for x, k in zip(point, e)) for e, c in terms) % p


def test_split_evaluation_is_exact_at_the_largest_prime():
    # every coefficient and every coordinate p - 1: the largest residues,
    # so the largest intermediates the scan can meet
    p = MAX_ENUM_PRIME
    for weights, degree in (((1, 1, 1, 1), 4), (W_GODEAUX, 8)):
        names = tuple(f"v{i}" for i in range(len(weights)))
        ring = WRing(names, weights, PrimeField(p))
        f = ring.zero_poly()
        for e in monomials_of_degree(ring, degree):
            f = f + ring.monomial(e, p - 1)
        n = len(weights)
        split, coeffs = split_of([int_terms(f)], n, p)
        g = split_values(split, coeffs, np.full((n - 2, 3), p - 1, dtype=np.int64), p)
        # three outer rows times two values of s: grid rows 0..5, by the
        # path on chosen rows and by the grid oracle on every row
        s_powers = split.s_powers[:, np.full(6, p - 1)]
        coeffs = _row_values(g, split.slots, np.arange(6) // 2, s_powers, p)
        grid = grid_values(g, split.s_powers, p)
        assert coeffs.tolist() == np.repeat(grid[:, :, p - 1], 2, axis=1).tolist()
        for reduced in (g, s_powers, coeffs, grid):
            assert reduced.min() >= 0 and reduced.max() < p
        assert len(coeffs) == degree // weights[-1] + 1
        for k, c in enumerate(coeffs):
            want = sum((p - 1) * (p - 1) ** sum(e[:-1]) for e in f.terms
                       if e[-1] == k) % p
            assert c.tolist() == [want] * 6
        row = np.arange(6)
        t = np.full(6, p - 1, dtype=np.int64)
        value = f.evaluate([f.ring.field(p - 1)] * n)
        assert _horner(coeffs, row, t, p).tolist() == [value] * 6


def reduced_outer_values(split, coeffs, cols, p):
    """The coefficients of outer_values in int64, with each product of
    coordinates and each sum of terms reduced mod p, every slot summed
    term by term: the oracle for the one float64 product per batch."""
    values = np.ones((len(split.monomials), cols.shape[1]), dtype=np.int64)
    for m, exponents in enumerate(split.monomials):
        for col, e in zip(cols, exponents):
            for _ in range(e):
                values[m] = values[m] * col % p
    out = np.zeros((split.polys, split.width, cols.shape[1]), dtype=np.int64)
    for q, i, m, k in split.nonzeros:
        out[q, i] = (out[q, i] + coeffs[k] * values[m]) % p
    return out


@pytest.mark.parametrize("weights, degree", [(W_GODEAUX, 8), (W_GODEAUX, 15), ((1,) * 7, 5)])
def test_outer_values_reduce_once_where_the_bound_allows(weights, degree):
    # every coefficient p - 1 at the largest prime, on rows of every
    # coordinate p - 1 and on random rows: the largest residues, so the
    # largest partial sums of the float64 product.  Each is an integer
    # below M (p - 1)^2 for M outer monomials, exact while that stays below
    # 2^53, and reduced in int32, which holds it below 2^31.  The Godeaux
    # ring at degree 15 has the most outer monomials, 444, and the
    # seven-coordinate ring at degree 5 the most outer coordinates, five,
    # of which each value is a product
    p = MAX_ENUM_PRIME
    n = len(weights)
    ring = WRing(tuple(f"v{i}" for i in range(n)), weights, PrimeField(p))
    f = ring.zero_poly()
    for e in monomials_of_degree(ring, degree):
        f = f + ring.monomial(e, p - 1)
    split, coeffs = split_of([int_terms(f)], n, p)
    assert len(split.monomials) == {8: 95, 15: 444, 5: 252}[degree]
    assert len(split.monomials) * (p - 1) ** 2 < 1 << 31
    rng = np.random.default_rng(n)
    cols = np.concatenate([np.full((n - 2, 3), p - 1), rng.integers(0, p, (n - 2, 200))],
                          axis=1)
    values = monomial_values(split.monomials, cols, p)
    assert values.dtype == np.uint8 and not values.flags.writeable
    got = outer_values(split, coeffs, values, p)
    assert got.dtype == np.int32
    assert got.min() >= 0 and got.max() < p
    want = reduced_outer_values(split, coeffs, cols, p)
    assert got.tolist() == want.tolist()
    # the slots with no term are 0, and every nonzero slot has one
    cells = {(q, i) for q, i, _, _ in split.nonzeros}
    assert [tuple(i for i in range(split.width) if (q, i) in cells)
            for q in range(split.polys)] == list(split.slots)
    for q in range(split.polys):
        for i in range(split.width):
            if (q, i) not in cells:
                assert not got[q, i].any()


def dense_row_values(g, outer_row, s_powers, p):
    """The polynomials on chosen grid rows from every slot (q, i) of g,
    zero or not: the oracle for the sum over the nonzero slots."""
    return (g[:, :, outer_row] * s_powers).sum(axis=1) % p


@pytest.mark.parametrize("p", [5, 61, MAX_ENUM_PRIME])
def test_row_values_sum_only_the_nonzero_slots(p):
    # random g with random zero slots, a q with none among them, on
    # random grid rows with repeated outer rows
    rng = np.random.default_rng(p)
    for polys, width in ((1, 1), (4, 3), (6, 5)):
        nonzero = rng.random((polys, width)) < 0.4
        nonzero[0] = False
        g = rng.integers(0, p, (polys, width, 50)).astype(np.int32)
        g[~nonzero] = 0
        slots = [tuple(np.flatnonzero(row).tolist()) for row in nonzero]
        outer_row = rng.integers(0, 50, 300)
        s = rng.integers(0, p, 300)
        s_powers = varieties._residue_powers(p, width - 1).T[:, s].astype(np.int32)
        got = _row_values(g, slots, outer_row, s_powers, p)
        assert got.tolist() == dense_row_values(g, outer_row, s_powers, p).tolist()
        assert not got[0].any()


def test_members_share_the_outer_tables(monkeypatch):
    # two sigma members at p = 61 with the same outer monomials read one
    # read-only table object, built once; the memo is bounded
    p = 61
    d1 = varieties._main_box_action(varieties._group_generator(p).scalars, W_GODEAUX, p)[1]
    read = []

    def spy(split, coeffs, values, p):
        read.append(values)
        return outer_values(split, coeffs, values, p)

    monkeypatch.setattr(varieties, "outer_values", spy)
    varieties._outer_tables.cache_clear()
    layouts = []
    for seed in (1, 2):
        fam = build_family(random_params(p, seed=seed))
        terms = [int_terms(fam.q0), int_terms(fam.q2)]
        layouts.append(split_of(terms + [eliminant_of(terms, 5, p)], 5, p)[0])
        assert len(surface_points(fam, p).rows)
    assert layouts[0].monomials == layouts[1].monomials
    assert len(read) == 2 and read[0] is read[1]
    assert read[0] is varieties._outer_tables(layouts[0].monomials, W_GODEAUX, p, d1)[0]
    assert read[0].dtype == np.uint8 and not read[0].flags.writeable
    assert read[0].shape == (23, 1042)
    info = varieties._outer_tables.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # more supports than the memo holds: it keeps the last maxsize tables
    for degree in range(1, info.maxsize + 3):
        varieties._outer_tables(((degree,),), (1, 1, 1), 5)
    assert varieties._outer_tables.cache_info().currsize == info.maxsize <= 16


@pytest.mark.parametrize("p", [13, 29])
def test_a_coefficient_that_vanishes_mod_p_matches_the_box_scan(p):
    # the seed-5 member over Q with x1^4 set to p: mod p its support is
    # smaller, and so are its split's outer monomials, whose tables the
    # scan reads under their own key
    params = random_params("Q", seed=5)
    fam = build_family(FamilyParams(q0={**params.q0, "x1^4": p}, q2=params.q2))
    full = build_family(params)
    monomials = []
    for member in (fam, full):
        terms = _reduce_eqs(member.ring, p, [member.q0, member.q2])[1]
        monomials.append(split_of(terms + [eliminant_of(terms, 5, p)], 5, p)[0].monomials)
    assert set(monomials[0]) < set(monomials[1])
    eqs = [fam.q0, fam.q2]
    points, scanned = box_scan(fam.ring, p, eqs)
    got = enumerate_points(fam.ring, p, eqs)
    assert (list(got.points), got.scanned) == (points, scanned)
    assert len(surface_points(fam, p)) == len(points)


def loop_fixed_mask(patterns, cols):
    """The fixed-locus mask from cols[v] == 0 for every coordinate of every
    pattern: the oracle for the mask on the zero code."""
    mask = np.zeros(len(cols[0]), dtype=bool)
    for bad in patterns:
        sub = np.ones(len(cols[0]), dtype=bool)
        for v in bad:
            sub &= cols[v] == 0
        mask |= sub
    return mask


@pytest.mark.parametrize("p", [5, 13, 61])
def test_fixed_mask_on_the_zero_code_matches_the_loop(p):
    # the patterns of g, g^2, g^3, both involution lifts, the identity, the
    # projective identity and the ambient singular line, on every ambient
    # point at p = 5 and on the surface rows of two members
    sets = [_diagonal_fixed_patterns(m, p) for m in diagonal_maps(p).values()]
    sets.append(varieties.AMBIENT_SINGULAR_LINE)
    point_sets = [enumerate_points(family_ring(p), p, [])] if p == 5 else []
    for seed in (0, 1):
        fam_p = build_family(random_params(p, seed=seed))
        point_sets += [enumerate_points(fam_p.ring, p, [fam_p.q0, fam_p.q2]),
                       surface_points(fam_p, p)]
    for points in point_sets:
        rows = points.rows
        code = points.zero_code
        assert points.zero_code is code and not code.flags.writeable
        assert code.tolist() == [sum(1 << v for v, x in enumerate(row) if x == 0)
                                 for row in rows.tolist()]
        for patterns in sets:
            assert _fixed_mask(patterns, code).tolist() == \
                loop_fixed_mask(patterns, rows.T).tolist()


def test_s_stage_is_exact_at_the_largest_prime():
    # filters with every coefficient and every outer coordinate p - 1: the
    # largest residues, so the largest intermediates the s stage can meet.
    # (weights, degree, even s only) -> (step, degree in S, S per row): the
    # roots of a linear and of two quadratics, and two whole fibres.  Every
    # S, Horner value and root is a residue, checked against Python ints
    p = MAX_ENUM_PRIME
    fibres = _Fibres(p)
    cases = {((1, 1, 1, 1), 2, True): (2, 1, 1), ((1, 1, 1, 1), 4, False): (1, 4, p),
             (W_GODEAUX, 4, False): (1, 2, 2), (W_GODEAUX, 8, True): (2, 2, 2),
             (W_GODEAUX, 8, False): (1, 4, p)}
    found = 0
    for (weights, degree, even), (step, d, per_row) in cases.items():
        ring = WRing(tuple(f"v{i}" for i in range(len(weights))), weights, PrimeField(p))
        n = len(weights)
        terms = [(e, p - 1) for e in monomials_of_degree(ring, degree)
                 if e[-1] == 0 and (e[-2] % 2 == 0 or not even)]
        split, coeffs = split_of([terms], n, p)
        assert (split.step, split.filters) == (step, (d,))
        g = split_values(split, coeffs, np.full((n - 2, 3), p - 1, dtype=np.int64), p)
        assert g.min() >= 0 and g.max() < p
        filters = [g[0, :(d + 1) * step:step]]
        row, S = fibres.solve(filters, 3)
        assert np.bincount(row, minlength=3).tolist() == [per_row] * 3
        assert S.min() >= 0 and S.max() < p
        value = _horner(filters[0], row, S, p)
        assert value.min() >= 0 and value.max() < p
        by_s = [python_value(terms, [p - 1] * (n - 2) + [s, 0], p) for s in range(p)]
        for root, v in zip(S.tolist(), value.tolist()):
            # the filter at every s with s^step = S, and 0 at a solved root
            assert all(by_s[s] == v for s in range(p) if pow(s, step, p) == root)
            assert v == 0 or per_row == p
        keys = _solve_s(g, np.full(3, -1), p, split, fibres)
        assert keys.tolist() == [r * p + s for r in range(3) for s in range(p) if by_s[s] == 0]
        found += len(keys)
    assert found


# --- the s stage: S = s^step solved from the filters, against the grid


def s_stage_systems():
    """(weights, filters, other equations) over Q, each filter free of the
    last coordinate t: S-degree 0, 1 and 2 in S = s and in S = s^2, s-degree
    4 and 3, a filter vanishing on every row with v1 = 0, and filters
    of two degrees together.  The test adds a member's eliminant."""
    p3 = (1, 1, 1, 1)
    return [
        (p3, ["v0 + v1"], []),
        (p3, ["v0 + v2"], ["v0 v3 + v1^2"]),
        (p3, ["v0^2 + -1 * v2^2"], []),
        (p3, ["v0 v1 + v1 v2 + v2^2"], ["v3^2 + v0 v2"]),
        (p3, ["v0^4 + v1^2 v2^2 + -1 * v2^4"], []),
        (p3, ["v2^3 + -1 * v0 v1^2"], []),
        (p3, ["v1 v2^2 + -1 * v1 v0^2"], []),
        (p3, ["v1 v2^2 + -1 * v1 v0^2", "v0 v2^3 + v1^3 v2 + v0^4"], []),
        (p3, ["v0 + v1 + v2", "v0^2 + v2^2 + v1 v2"], []),
        (p3, ["v0 + v1", "v1 + -1 * v2"], ["v2 v3 + v0^2"]),
        (p3, ["v0 + -1 * v2", "v2^3 + v0^2 v1"], []),
        ((1, 1, 2), ["v0^4 + -1 * v1^2", "v0^2 v1 + v1^2"], []),
        (W_GODEAUX, ["x1^4 + -1 * y1^2 + x2^2 y1"], []),
    ]


def grid_keys(g, s_fixed, split, p):
    """The keys row * p + s of the grid oracle: every (outer row, s) inside
    the box where every filter vanishes."""
    keep = (s_fixed[:, None] < 0) | (s_fixed[:, None] == np.arange(p))
    if split.filters:
        keep &= ~grid_values(g[:len(split.filters)], split.s_powers, p).any(axis=0)
    return np.flatnonzero(keep)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_s_stage_keeps_the_grid_keys(p):
    fibres = _Fibres(p)
    shapes, fixed_kept, whole, vanishing = set(), 0, 0, 0
    systems = []
    for weights, filters, others in s_stage_systems():
        names = tuple(f"v{i}" for i in range(len(weights)))
        if weights == W_GODEAUX:
            names = family_ring().names
        ring = WRing(names, weights, PrimeField(p))
        eqs = [parse_poly(ring, f) for f in filters + others]
        systems.append((weights, [int_terms(f) for f in eqs]))
    fam = build_family(random_params(p, seed=p)) if p % 4 == 1 else None
    if fam is not None:
        terms = [int_terms(fam.q0), int_terms(fam.q2)]
        systems.append((W_GODEAUX, terms + [eliminant_of(terms, 5, p)]))
    for weights, terms in systems:
        split, coeffs = split_of(terms, len(weights), p)
        shapes.add((split.step, split.filters))
        for batch in varieties._outer_batches(weights, p):
            g = split_values(split, coeffs, batch[:-2], p)
            s_fixed = batch[-2]
            want = grid_keys(g, s_fixed, split, p)
            got = _solve_s(g, s_fixed, p, split, fibres)
            assert got.tolist() == want.tolist()
            fixed_kept += int((s_fixed[got // p] >= 0).sum())
            if split.filters:
                first = g[0, ::split.step]
                zero = ~first.any(axis=0)
                vanishing += int(zero.any() and not zero.all())
                row, _ = fibres.solve([first[:4]], g.shape[2])
                whole += split.filters[0] > 2 and len(row) == p * g.shape[2]
    # S-degree 0, 1 and 2 in s and in s^2, s-degree 3 and two-filter shapes
    assert {(2, (0,)), (1, (1,)), (2, (1,)), (1, (2,)), (2, (2,)), (1, (3,)),
            (1, (2, 3)), (1, (1, 2)), (1, (0, 1)), (1, (1, 3))} <= shapes
    assert fixed_kept and whole and vanishing


# --- the elimination stage: Res_t(pivot, h) as a filter solved for s


def t_coefficients_at(f, point, p):
    """The coefficients of t^0, t^1, ... of f with every other coordinate
    set to the point, straight from the terms of f."""
    coeffs = [0] * (max(e[-1] for e in f.terms) + 1)
    for e, c in f.terms.items():
        coeffs[e[-1]] += c * math.prod(pow(x, k, p) for x, k in zip(point, e))
    return [c % p for c in coeffs]


def cofactor_det(m, p):
    if len(m) == 1:
        return m[0][0] % p
    return sum((-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]], p)
               for j in range(len(m)) if m[0][j]) % p


def sylvester_resultant(linear, h, p):
    """det of the Sylvester matrix of c0 + c1 t and h = h0 + ... + hd t^d:
    d shifted rows (c1, c0) over one row (hd, ..., h0)."""
    (c0, c1), d = linear, len(h) - 1
    rows = [[0] * i + [c1, c0] + [0] * (d - 1 - i) for i in range(d)]
    return cofactor_det(rows + [h[::-1]], p)


def with_last_power(f, degree, value):
    """f with the coefficient of the degree-th power of the last coordinate
    set to value."""
    ring = f.ring
    e = (0,) * (ring.nvars - 1) + (degree,)
    return f - ring.monomial(e, f.coefficient(e)) + ring.monomial(e, value)


def linear_in_last(ring, rng):
    """A random linear form whose last coordinate has a nonzero coefficient."""
    return with_last_power(random_form(ring, 1, rng), 1, 1 + rng.randrange(3))


def pivot_pairs(p, rng):
    """(equations, pivot, h): seeded members at p, with and without the
    involution, and P^3 systems led by the cone or not, with a pivot of
    t-degree 1 and h of t-degree 1 to 4."""
    out = []
    for seed in range(3):
        for enforce in (True, False):
            fam = build_family(random_params(p, seed=seed, enforce_involution=enforce))
            out.append(([fam.q0, fam.q2], fam.q0, fam.q2))
    ring = p3_ring(p)
    cone = parse_poly(ring, "y0^2 + -1 * y1 y2")
    for degree in (1, 2, 3, 4):
        pivot = linear_in_last(ring, rng)
        h = with_last_power(random_form(ring, degree, rng), degree, 1)
        out.append(([pivot, h], pivot, h))
        out.append(([cone, pivot, h], pivot, h))
    # a quadric pivot y1 y3 + q(y0, y1, y2): B = y1 vanishes on whole rows
    pivot = parse_poly(ring, "y1 y3 + y0^2 + 2 * y1 y2 + -1 * y2^2")
    h = random_form(ring, 3, rng)
    out.append(([pivot, h], pivot, h))
    return out


@pytest.mark.parametrize("p", [13, 61])
def test_eliminant_is_the_sylvester_determinant(p):
    rng = random.Random(p)
    for eqs, pivot, h in pivot_pairs(p, rng):
        ring = pivot.ring
        eliminant = eliminant_of([int_terms(f) for f in eqs], ring.nvars, p)
        assert eliminant is not None
        assert all(e[-1] == 0 for e, _ in eliminant)
        for _ in range(25):
            point = [rng.randrange(p) for _ in range(ring.nvars - 1)]
            value = sum(c * math.prod(pow(x, k, p) for x, k in zip(point, e))
                        for e, c in eliminant) % p
            want = sylvester_resultant(t_coefficients_at(pivot, point, p),
                                       t_coefficients_at(h, point, p), p)
            assert value == want


def times(a, b, p):
    """The product of two polynomials given as terms mod p."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return out


def dict_eliminant(terms, n, p):
    """Res_t(B t + C, h) by dict products of the member's own terms, the
    pivot and h chosen as the scan chooses them: the oracle for the
    eliminant evaluated from its template."""
    parts = [_t_parts(ts) for ts in terms]
    degrees = [len(q) - 1 for q in parts]
    if 1 not in degrees:
        return None
    pivot = degrees.index(1)
    others = [k for k, d in enumerate(degrees) if d > 0 and k != pivot]
    if not others:
        return None
    h = parts[min(others, key=degrees.__getitem__)]
    c, b = parts[pivot]
    d = len(h) - 1
    one = {(0,) * n: 1}
    neg_c, b_powers = [one], [one]
    for _ in range(d):
        neg_c.append(times(neg_c[-1], {e: -v % p for e, v in c.items()}, p))
        b_powers.append(times(b_powers[-1], b, p))
    total = {}
    for k, hk in enumerate(h):
        for e, v in times(times(hk, neg_c[k], p), b_powers[d - k], p).items():
            total[e] = (total.get(e, 0) + v) % p
    return sorted((e, v) for e, v in total.items() if v) or None


@pytest.mark.parametrize("p", [5, 13, 17, 29, 61, 101])
def test_eliminant_template_matches_the_dict_products(p):
    rng = random.Random(300 + p)
    systems = [eqs for eqs, _, _ in pivot_pairs(p, rng)]
    for seed in range(8):
        for enforce in (True, False):
            fam = build_family(random_params(p, seed=seed, enforce_involution=enforce))
            systems.append([fam.q0, fam.q2])
            rational = build_family(random_params("Q", seed=seed, enforce_involution=enforce))
            systems.append(reduce_wpolys(rational.ring, p, [rational.q0, rational.q2]))
    ring = p3_ring(p)
    first = linear_in_last(ring, rng)
    systems.append([first, first * random_form(ring, 2, rng)])
    found = []
    for eqs in systems:
        terms = [int_terms(f) for f in eqs]
        n = eqs[0].ring.nvars
        want = dict_eliminant(terms, n, p)
        assert eliminant_of(terms, n, p) == want
        found.append(want)
    # the multiple of the pivot has a zero resultant, and at p = 5 two
    # members too
    assert found[-1] is None
    assert sum(r is None for r in found) == (3 if p == 5 else 1)


def elimination_systems(rng):
    """(ring, equations) pairs over Q for the elimination stage: members
    whose pivot q0 has B = alpha y1, which vanishes on whole rows; h a
    multiple of the pivot, so the resultant is zero; h of t-degree 3 and 4;
    two t-linear equations."""
    systems = []
    for seed in (1, 2):
        fam = build_family(random_params("Q", seed=seed, enforce_involution=True))
        b = _t_parts([(e, 1) for e in fam.q0.terms])[1]
        assert list(b) == [(0, 0, 0, 1, 0)]
        systems.append((fam.ring, [fam.q0, fam.q2]))
    ring = p3_ring()
    first, second = linear_in_last(ring, rng), linear_in_last(ring, rng)
    multiple = first * random_form(ring, 2, rng)
    assert eliminant_of(_reduce_eqs(ring, 13, [first, multiple])[1], ring.nvars, 13) is None
    systems.append((ring, [first, multiple]))
    for degree in (3, 4):
        h = with_last_power(random_form(ring, degree, rng), degree, 1)
        systems.append((ring, [first, h]))
    systems.append((ring, [first, second]))
    systems.append((ring, [first, second, random_form(ring, 2, rng)]))
    return systems


@pytest.mark.parametrize("p", [3, 5, 7])
def test_elimination_matches_brute_force(p):
    for ring, eqs in elimination_systems(random.Random(200 + p)):
        surface = enumerate_points(ring, p, eqs)
        assert list(surface.points) == brute_zero_locus(ring, p, eqs)
        assert surface.candidates >= len(surface)


@pytest.mark.parametrize("p", [13, 17])
def test_elimination_matches_box_scan(p):
    for ring, eqs in elimination_systems(random.Random(200 + p)):
        points, scanned = box_scan(ring, p, eqs)
        surface = enumerate_points(ring, p, eqs)
        assert list(surface.points) == points
        assert surface.scanned == scanned


def brute_fixed(points, scalars, weights, p):
    """The points whose image under the diagonal map is the same orbit."""
    return [pt for pt in points
            if brute_canonical(tuple(s * c % p for s, c in zip(scalars, pt)), weights, p) == pt]


@pytest.mark.parametrize("p", [5, 13])
def test_elimination_with_extra_mask(p):
    # the fixed-locus scan runs the same filter, then the mask
    fam = build_family(random_params(p, seed=3))
    ring = p3_ring(p)
    pivot = linear_in_last(ring, random.Random(p))
    h = parse_poly(ring, "y0^2 + y1 y3 + -1 * y3^2")
    tau = MonomialMap(ring, (1, -1, -1, 1))
    for action, eqs, scalars in (
            (fam.sigma.rational_realization(), [fam.q0, fam.q2],
             tuple((-1) ** e for e in fam.sigma.exponents)),
            (tau, [pivot, h], (1, -1, -1, 1))):
        if p == 5:
            points = brute_zero_locus(action.ring, p, eqs)
        else:
            points = box_scan(action.ring, p, eqs)[0]
        want = brute_fixed(points, scalars, action.ring.weights, p)
        assert list(fixed_locus(action, p, eqs).points) == want


def test_surface_candidates_are_about_p_squared():
    # the eliminant keeps about p^2 of the p^3 (row, s) pairs of the main
    # box, and the pivot leaves one value of t on each
    p = 61
    fam = build_family(random_params(p, seed=5))
    surface = enumerate_points(fam.ring, p, [fam.q0, fam.q2])
    assert len(surface) <= surface.candidates <= 2 * p * p


# --- the scan folded by a diagonal symmetry of the equations


def group_generator(ring):
    """g as a diagonal map over GF(p): x_v -> i^(1, 2, 3, 1, 3)_v x_v."""
    return canonical_action(ring).as_monomial_map(ring.field.sqrt_minus_one())


def unfold(rows, d, p):
    """The points of a folded scan: each row of the main box off x_1 = 0
    joined by its other images under the powers of d, the main box sorted
    again.  The main box comes last, as its first coordinate is 1."""
    start = int(np.searchsorted(rows[:, 0], 1))
    box = rows[start:]
    moved = box[box[:, 1] != 0]
    images = [box]
    step = np.array(d, dtype=np.int64)
    power = step
    while power[1] != 1:
        images.append(moved * power % p)
        power = power * step % p
    box = np.concatenate(images)
    # past x_0 = 1 the coordinates are the digits base p of distinct keys
    key = box[:, 1:] @ p ** np.arange(box.shape[1] - 2, -1, -1, dtype=np.int64)
    return np.concatenate([rows[:start], box[np.argsort(key)]])


def main_box_action(symmetry):
    """d of the symmetry: its action x_v -> d_v x_v on the main box."""
    ring = symmetry.ring
    return varieties._main_box_action(symmetry.scalars, ring.weights, ring.field.p)


def orbit_size(row, d, p):
    """The number of distinct images of a row under the powers of d."""
    images, image = set(), tuple(row)
    while image not in images:
        images.add(image)
        image = tuple(x * e % p for x, e in zip(image, d))
    return len(images)


def assert_fold_is_exact(ring, p, eqs, symmetry, oracle=True):
    """The folded scan's rows, each with its orbit size on the main box off
    x_1 = 0 and 1 elsewhere, unfold to the rows of the unfolded scan, and
    to the points of the box-scan oracle when asked; the number of points
    and the count are the same.  Returns both scans."""
    full = enumerate_points(ring, p, eqs)
    folded = enumerate_points(ring, p, eqs, symmetry)
    d = main_box_action(symmetry)
    assert unfold(folded.rows, d, p).tobytes() == full.rows.tobytes()
    assert len(folded) == len(full) == len(full.rows)
    assert full.sizes.tolist() == [1] * len(full.rows)
    main = (folded.rows[:, 0] == 1) & (folded.rows[:, 1] != 0)
    assert folded.sizes.tolist() == [
        orbit_size(row, d, p) if on else 1 for row, on in zip(folded.rows.tolist(), main)]
    assert folded.scanned == full.scanned
    if oracle:
        points, scanned = box_scan(ring, p, eqs)
        assert list(full.points) == points
        assert folded.scanned == scanned
    return full, folded


# the box-scan oracle evaluates all p^4 representatives of the main box:
# about 1 s per member at p = 41, 5 s at p = 61 and 40 s at p = 101, so the
# two largest primes are checked against the unfolded scan alone
@pytest.mark.parametrize("p", [13, 17, 29, 37, 41, 61, 101])
def test_folded_scan_matches_unfolded_and_box_scan(p):
    for seed, enforce in ((p, True), (p + 1, False)):
        fam = build_family(random_params(p, seed=seed, enforce_involution=enforce))
        full, folded = assert_fold_is_exact(
            fam.ring, p, [fam.q0, fam.q2], group_generator(fam.ring), oracle=p <= 41)
        assert len(full) > 0
        # the main box dominates, and a quarter of it is tested
        if p >= 29:
            assert 2 * folded.candidates < full.candidates


def test_folded_scan_keeps_the_forced_singular_point():
    # (1,0,0,0,0), the singular point of the member without x1^4, lies on
    # the row x2 = 0 of the main box, which the fold scans in full
    params = FamilyParams(
        field_spec=13,
        q0={"x2^4": 1, "x3^4": 1, "x1^2 x3^2": 1, "x1 x2^2 x3": 1, "y1 y3": 1},
        q2={"x1^2 x2^2": 1, "x2^2 x3^2": 1, "x1^3 x3": 1, "x1 x3^3": 1,
            "y1^2": 1, "y3^2": 1},
    )
    fam = build_family(params)
    full, folded = assert_fold_is_exact(fam.ring, 13, [fam.q0, fam.q2],
                                        group_generator(fam.ring))
    assert (1, 0, 0, 0, 0) in folded.points
    assert len(folded.rows) < len(full.rows)
    assert check_quasi_smooth(fam, 13).witness is not None


@pytest.mark.parametrize("p", [13, 29])
def test_fold_of_order_two_on_p3(p):
    # on P^3 the map (1, -1, 1, -1) folds the main box by x1 -> -x1, so
    # the scanned rows are x1 = 0 and one of each pair +-x1
    ring = p3_ring(p)
    field = ring.field
    m = MonomialMap(ring, (field(1), field(-1), field(1), field(-1)))
    eqs = [parse_poly(ring, "y0^2 + -1 * y1 y3 + 2 * y2^2"),
           parse_poly(ring, "y0 y2 + y1^2 + y3^2")]
    assert_fold_is_exact(ring, p, eqs, m)
    assert varieties._coset_minima(p - 1, p).tolist() == list(range((p + 1) // 2))


def test_coset_minima_of_i():
    # d_1 of g on the main box is i; the fold scans x2 = 0 and these x2,
    # each the least member of its coset
    for p in (q for q in range(5, MAX_ENUM_PRIME + 1, 4) if is_prime(q)):
        ring = family_ring(p)
        scalars = group_generator(ring).scalars
        i = varieties._main_box_action(scalars, ring.weights, p)[1]
        assert i == PrimeField(p).sqrt_minus_one()
        minima = varieties._coset_minima(i, p).tolist()
        assert len(minima) == 1 + (p - 1) // 4
        assert minima[:2] == [0, 1]
        cosets = [{a * pow(i, k, p) % p for k in range(4)} for a in minima[1:]]
        assert set().union(*cosets) == set(range(1, p))
        assert [min(coset) for coset in cosets] == minima[1:]


def test_member_independent_tables_are_built_once():
    for p in (13, 61):
        fibres = varieties._fibres(p)
        assert varieties._fibres(p) is fibres
        i = PrimeField(p).sqrt_minus_one()
        minima = varieties._coset_minima(i, p)
        assert varieties._coset_minima(i, p) is minima
        powers = varieties._residue_powers(p, 4)
        assert varieties._residue_powers(p, 4) is powers
        assert powers.tolist() == [[pow(a, k, p) for k in range(5)] for a in range(p)]
        tables = [fibres.sqrt, fibres.inv, minima, powers]
        for d1 in (None, i):
            batches = varieties._outer_batches(W_GODEAUX, p, d1)
            assert varieties._outer_batches(W_GODEAUX, p, d1) is batches
            tables += batches
        # the folded batches hold x2 = 0 and the coset minima on the main box
        rows = [sum(b.shape[1] for b in varieties._outer_batches(W_GODEAUX, p, d1))
                for d1 in (None, i)]
        assert rows[1] == rows[0] - p * (p - len(minima))
        for table in tables:
            assert not table.flags.writeable
        fam = build_family(random_params(p, seed=1))
        patterns = varieties._element_patterns(fam.action, p)
        assert varieties._element_patterns(fam.action, p) is patterns
        assert [name for name, _ in patterns] == ["g", "g2", "g3"]
        # the templates of a support: the eliminant's, the split layout and
        # the Jacobian terms, each built once per key, the split read by
        # every member with that support, and with read-only arrays
        terms = [int_terms(fam.q0), int_terms(fam.q2)]
        supports = varieties._supports(terms)
        template = varieties._eliminant_template(supports, 5)
        assert varieties._eliminant_template(supports, 5) is template
        jacobian_terms = varieties._jacobian_terms(supports, 5, p)
        assert varieties._jacobian_terms(supports, 5, p) is jacobian_terms
        full = terms + [eliminant_of(terms, 5, p)]
        layout = varieties._split_layout(varieties._supports(full), 5, p)
        assert varieties._split_layout(varieties._supports(full), 5, p) is layout
        # the member's scan reads this layout, with no copy of its own
        hits = varieties._split_layout.cache_info().hits
        enumerate_points(fam.ring, p, [fam.q0, fam.q2])
        assert varieties._split_layout.cache_info().hits == hits + 1
        for table in (*layout.cells, layout.places, layout.s_powers):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 2

    # at p = 13, 56 of the members of seeds 0-399 lose a term of the
    # eliminant mod p (seed 1 among them), and the 400 members give 4
    # eliminant supports, so 4 split layouts; the scans test as many
    # candidates as they did when every member built its own layout
    p = 13
    varieties._eliminant_template.cache_clear()
    varieties._split_layout.cache_clear()
    lengths, candidates = [], 0
    for seed in range(400):
        fam = build_family(random_params(p, seed=seed))
        terms = [int_terms(fam.q0), int_terms(fam.q2)]
        eliminant = eliminant_of(terms, 5, p)
        assert eliminant == dict_eliminant(terms, 5, p)
        lengths.append(len(eliminant))
        if seed == 1:
            assert len(eliminant) < len(varieties._eliminant_template(
                varieties._supports(terms), 5))
            split, coeffs = split_of(terms + [eliminant], 5, p)
            want = split_fields(terms + [dict_eliminant(terms, 5, p)], 5, p)
            monomials = want.pop("monomials")
            assert split.monomials == tuple(monomials)
            tables = varieties._outer_tables(split.monomials, W_GODEAUX, p)
            for batch, table in zip(varieties._outer_batches(W_GODEAUX, p), tables):
                assert table.tolist() == [
                    [math.prod(pow(a, e, p) for a, e in zip(row, m)) % p
                     for row in batch[:3].T.tolist()] for m in monomials]
            got = {name: getattr(split, name) for name in want}
            got["nonzeros"] = [(q, i, m, coeffs[k]) for q, i, m, k in split.nonzeros]
            assert got == want
        candidates += surface_points(fam, p).candidates
    assert sum(n < max(lengths) for n in lengths) == 56
    assert varieties._eliminant_template.cache_info().misses == 1
    assert varieties._split_layout.cache_info().misses == 4
    assert candidates == 26148


def split_fields(terms, n, p):
    """The fields of a split built straight from a member's own terms, as
    each member built them before the layout was shared, with the outer
    monomials themselves and ``nonzeros`` holding the coefficients: the
    oracle for the layout of the supports read through the coefficient
    vector."""
    parts = [_t_parts(ts) for ts in terms]
    tested = sorted((q for q in parts if len(q) > 1), key=len)
    polys = sorted((q[0] for q in parts if len(q) == 1), key=lambda q: max(e[-2] for e in q))
    step = 2 if all(e[-2] % 2 == 0 for q in polys for e in q) else 1
    ends = itertools.accumulate(len(q) for q in tested)
    equations = tuple(slice(end - len(q), end) for q, end in zip(tested, ends))
    filters = tuple(max(e[-2] for e in q) // step for q in polys)
    polys += [part for q in tested for part in q]
    monomials = sorted({e[:-2] for q in polys for e in q})
    return {
        "step": step, "filters": filters, "equations": equations, "polys": len(polys),
        "width": max((e[-2] for q in polys for e in q), default=0) + 1,
        "monomials": monomials,
        "nonzeros": [(k, e[-2], monomials.index(e[:-2]), c)
                     for k, q in enumerate(polys) for e, c in q.items()],
    }


def outer_rows(weights, p, d1=None):
    """The outer rows of every box of _blocks from itertools.product, with
    the values the box fixes s and t to (-1 where free), as (coordinate,
    row) columns: the oracle for the rows _outer_batches cuts into
    batches."""
    n = len(weights)
    rows = []
    for prefix, start in _blocks(weights, p):
        free = max(0, n - 2 - start)
        values = [range(p)] * free
        if d1 is not None and (prefix, start) == varieties.MAIN_BOX:
            values[0] = varieties._coset_minima(d1, p).tolist()
        tail = (prefix[n - 2] if start > n - 2 else -1, prefix[n - 1] if start == n else -1)
        rows += [prefix[:n - 2 - free] + head + tail for head in itertools.product(*values)]
    return np.array(rows, dtype=np.int64).T


@pytest.mark.parametrize("weights, p", [(W_GODEAUX, 5), (W_GODEAUX, 13), (W_GODEAUX, 61),
                                        (W_GODEAUX, 101), ((1, 1, 1, 1), 13),
                                        ((1, 1, 2), 7), ((1, 2, 2), 5)])
def test_outer_batches_are_full_up_to_the_last(weights, p):
    # every batch but the last holds CHUNK_LIMIT // p rows, across box
    # boundaries, and the batches join to the rows of every box in order
    width = CHUNK_LIMIT // p
    d1s = [None]
    if weights == W_GODEAUX and p % 4 == 1:
        d1s.append(PrimeField(p).sqrt_minus_one())
    for d1 in d1s:
        batches = varieties._outer_batches(weights, p, d1)
        assert [b.shape[1] for b in batches[:-1]] == [width] * (len(batches) - 1)
        assert 0 < batches[-1].shape[1] <= width
        assert np.concatenate(batches, axis=1).tolist() == outer_rows(weights, p, d1).tolist()
    widths = {p: [b.shape[1] for b in varieties._outer_batches(W_GODEAUX, p, d1)]
              for p, d1 in ((101, PrimeField(101).sqrt_minus_one()), (61, None))}
    # the folded surface at p = 101 and the unfolded one at p = 61
    assert widths == {101: [1297, 1297, 138], 61: [2148, 1639]}


def test_surface_s_stage_solves_one_column_per_outer_row(monkeypatch):
    # the s stage takes the eliminant's three S-coefficients on each outer
    # row, not the p^3 grid, and keeps at most two S, four s, on each
    p = 61
    fam = build_family(random_params(p, seed=5))
    g = group_generator(fam.ring)
    d1 = varieties._main_box_action(g.scalars, W_GODEAUX, p)[1]
    outer = sum(b.shape[1] for b in varieties._outer_batches(W_GODEAUX, p, d1))
    assert 1000 < outer < 1100
    calls = []
    solve = _Fibres.solve

    def spy(self, coeffs, size):
        row, root = solve(self, coeffs, size)
        calls.append(([c.shape for c in coeffs], size, row))
        return row, root

    monkeypatch.setattr(_Fibres, "solve", spy)
    surface = enumerate_points(fam.ring, p, [fam.q0, fam.q2], g)
    (s_shapes, s_size, s_row), (t_shapes, t_size, _) = calls
    assert s_shapes == [(3, outer)] and s_size == outer
    assert np.bincount(s_row, minlength=outer).max() <= 2
    assert t_size <= 4 * outer
    assert (len(surface), surface.scanned, surface.candidates) == (3784, 14076667, 1036)


# --- the quasi-smoothness check on the orbit representatives of g


def full_rank_below_two(rows, eqs, p):
    """The minor loop on every row, each factor reduced mod p: the oracle
    for the check on the representatives."""
    cols = list(rows.T)
    first, second = [[_eval_on_columns(d, cols, p, {}) for d in row]
                     for row in jacobian(eqs)]
    singular = np.ones(len(rows), dtype=bool)
    for v, w in itertools.combinations(range(len(first)), 2):
        singular &= (first[v] * second[w] - first[w] * second[v]) % p == 0
    return singular


SINGULAR_OFF_X2_ZERO = [(13, 25), (13, 32), (13, 62), (13, 75), (17, 35), (17, 63),
                        (17, 102), (29, 57), (29, 74)]
PASSING = [(13, s) for s in (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18,
                             19, 20, 21)]
PASSING += [(p, s) for p in (17, 29, 61) for s in range(20)]


@pytest.mark.parametrize("p, seed", SINGULAR_OFF_X2_ZERO + PASSING)
def test_quasi_smooth_on_representatives_matches_every_row(p, seed):
    fam_p = build_family(random_params(p, seed=seed))
    eqs = [fam_p.q0, fam_p.q2]
    reps = surface_points(fam_p, p).rows
    rows = enumerate_points(fam_p.ring, p, eqs).rows
    # the main box dominates at the larger primes, and a quarter of it is kept
    assert (3 if p > 29 else 1) * len(reps) < len(rows)
    oracle = full_rank_below_two(rows, eqs, p)
    singular = varieties._rank_below_two(reps, *layout_of(terms_of(eqs)), p)
    report = check_quasi_smooth(fam_p, p)
    assert "failure_mode" not in report.data
    assert report.status == ("fail" if oracle.any() else "pass")
    assert report.status == ("fail" if (p, seed) in SINGULAR_OFF_X2_ZERO else "pass")
    assert report.witness == (rows[np.argmax(oracle)].tolist() if oracle.any() else None)
    # the orbits of the singular representatives are the singular points
    expanded = unfold(reps[singular], main_box_action(group_generator(fam_p.ring)), p)
    assert expanded.tolist() == rows[oracle].tolist()
    if oracle.any():
        assert (rows[oracle][:, 1] != 0).any()


# --- the minor in s and t first, every minor only where it vanishes


def spy_full_test(monkeypatch):
    """Record (rows, singular rows) of every call of the test of every
    minor."""
    calls = []
    original = varieties._minors_vanish

    def spy(rows, coeffs, jac, p):
        singular = original(rows, coeffs, jac, p)
        calls.append((len(rows), int(singular.sum())))
        return singular

    monkeypatch.setattr(varieties, "_minors_vanish", spy)
    return calls


def st_minor_vanishes(rows, eqs, p):
    """Where the minor of the Jacobian in the last two coordinates vanishes,
    each factor reduced mod p: the rows that take the full test."""
    cols = list(rows.T)
    (fs, ft), (gs, gt) = [[_eval_on_columns(d, cols, p, {}) for d in row[-2:]]
                          for row in jacobian(eqs)]
    return (fs * gt - ft * gs) % p == 0


@pytest.mark.parametrize("p", [5, 13, 17, 29, 61, 101])
def test_minor_first_matches_every_minor(p, monkeypatch):
    # seeded members over GF(p) with sigma enforced and not, and members
    # over Q reduced mod p, on their surface points and on random rows
    calls = spy_full_test(monkeypatch)
    rng = np.random.default_rng(p)
    systems = []
    for seed in range(4):
        for enforce in (True, False):
            fam = build_family(random_params(p, seed=seed, enforce_involution=enforce))
            systems.append((fam.ring, [fam.q0, fam.q2]))
            rational = build_family(random_params("Q", seed=seed, enforce_involution=enforce))
            eqs = reduce_wpolys(rational.ring, p, [rational.q0, rational.q2])
            systems.append((eqs[0].ring, eqs))
    pending = singular = 0
    for ring, eqs in systems:
        random_rows = rng.integers(0, p, size=(200, 5))
        random_rows[rng.random(random_rows.shape) < 0.2] = 0
        for rows in (enumerate_points(ring, p, eqs).rows, random_rows):
            oracle = full_rank_below_two(rows, eqs, p)
            assert varieties._rank_below_two(rows, *layout_of(terms_of(eqs)), p).tolist() == \
                oracle.tolist()
            pending += int(st_minor_vanishes(rows, eqs, p).sum())
            singular += int(oracle.sum())
    # the full test saw exactly the rows where the minor in s and t vanishes
    assert sum(rows for rows, _ in calls) == pending
    assert sum(hits for _, hits in calls) == singular > 0


def test_minor_first_on_the_forced_singular_member():
    # the member of test_quasi_smooth_catches_forced_singularity over GF(13)
    params = FamilyParams(
        field_spec=13,
        q0={"x2^4": 1, "x3^4": 1, "x1^2 x3^2": 1, "x1 x2^2 x3": 1, "y1 y3": 1},
        q2={"x1^2 x2^2": 1, "x2^2 x3^2": 1, "x1^3 x3": 1, "x1 x3^3": 1,
            "y1^2": 1, "y3^2": 1},
    )
    fam = build_family(params)
    eqs = [fam.q0, fam.q2]
    rows = enumerate_points(fam.ring, 13, eqs).rows
    singular = varieties._rank_below_two(rows, *layout_of(terms_of(eqs)), 13)
    assert singular.tolist() == full_rank_below_two(rows, eqs, 13).tolist()
    assert [1, 0, 0, 0, 0] in rows[singular].tolist()


def test_minor_first_sends_every_row_on_when_that_minor_vanishes(monkeypatch):
    # neither equation's partials in s and t pair up: q0 is free of y1 and
    # y3, so the minor in s and t is the zero polynomial and every row takes
    # the full test; x1 = x2 = x3 = 0 makes the first row of J vanish
    p = 13
    ring = family_ring(p)
    eqs = [parse_poly(ring, "x1^4 + 2*x2^4 + x3^4 + x1 x2 x3^2"),
           parse_poly(ring, "y1^2 + 3*y3^2 + x1^2 x2^2 + x2 x3 y1")]
    terms = terms_of(eqs)
    assert varieties._jacobian_terms(varieties._supports(terms), 5, p).minor == ()
    calls = spy_full_test(monkeypatch)
    rng = np.random.default_rng(7)
    rows = np.concatenate([enumerate_points(ring, p, eqs).rows,
                           rng.integers(0, p, size=(300, 5)),
                           [[0, 0, 0, 1, 5], [0, 0, 0, 0, 1]]])
    singular = varieties._rank_below_two(rows, *layout_of(terms), p)
    assert singular.tolist() == full_rank_below_two(rows, eqs, p).tolist()
    assert calls == [(len(rows), int(singular.sum()))]
    assert singular[-2:].all()


@pytest.mark.parametrize("p, rows, pending, singular", [(13, 2583, 191, 12),
                                                        (61, 41373, 619, 0)])
def test_minor_first_counts(p, rows, pending, singular, monkeypatch):
    # the members of seeds 0-39 on their folded surface rows: about 1/p of
    # the rows take the test of every minor
    calls = spy_full_test(monkeypatch)
    total = 0
    for seed in range(40):
        fam_p = build_family(random_params(p, seed=seed))
        eqs = [fam_p.q0, fam_p.q2]
        reps = surface_points(fam_p, p).rows
        total += len(reps)
        assert varieties._rank_below_two(reps, *layout_of(terms_of(eqs)), p).tolist() == \
            full_rank_below_two(reps, eqs, p).tolist()
    assert len(calls) == 40
    assert (total, sum(n for n, _ in calls), sum(k for _, k in calls)) == \
        (rows, pending, singular)


@pytest.mark.parametrize("field", [13, "Q"])
def test_each_member_is_taken_apart_once(field, monkeypatch):
    # the scan takes the quartics apart into supports and coefficients, and
    # the rank test reads them off the surface's point set: one call of each
    # per member and prime, over all three checks
    calls = []
    for name in ("_supports", "_coefficients"):
        original = getattr(varieties, name)
        monkeypatch.setattr(varieties, name,
                            lambda terms, name=name, original=original:
                            calls.append(name) or original(terms))
    fam = build_family(random_params(field, seed=5))
    for check in (check_quasi_smooth, check_free_action, check_fixed_locus):
        assert check(fam, 13).status == "pass"
    assert sorted(calls) == ["_coefficients", "_supports"]


@pytest.mark.parametrize("p, vanished", [(13, 8), (61, 2), (101, 1)])
def test_fill_gives_the_minor_of_the_partials(p, vanished):
    # the template of the minor in s and t filled with a member's
    # coefficients, against fs gt - ft gs from the WPoly partials, for the
    # members of seeds 0-39 with sigma enforced and not.  Without sigma the
    # minor has six monomials, and on some members one coefficient vanishes
    # mod p (seed 24 at p = 101), which the fill leaves out
    lost = 0
    for seed in range(40):
        for enforce in (True, False):
            fam = build_family(random_params(p, seed=seed, enforce_involution=enforce))
            terms = [int_terms(fam.q0), int_terms(fam.q2)]
            jac = varieties._jacobian_terms(varieties._supports(terms), 5, p)
            filled = varieties._fill(jac.minor, varieties._coefficients(terms), p)
            (fs, ft), (gs, gt) = ([q.partial(v) for v in (3, 4)] for q in (fam.q0, fam.q2))
            assert filled == sorted(int_terms(fs * gt - ft * gs))
            assert len(jac.minor) == (2 if enforce else 6)
            lost += len(filled) < len(jac.minor)
    assert lost == vanished


def test_representatives_are_checked_and_unfold_to_the_rows():
    fam = build_family(random_params(13, seed=5))
    g = group_generator(fam.ring)
    full = enumerate_points(fam.ring, 13, [fam.q0, fam.q2])
    assert full.sizes.tolist() == [1] * len(full.rows)
    folded = enumerate_points(fam.ring, 13, [fam.q0, fam.q2], g)
    reps = folded.rows
    assert not reps.flags.writeable and not folded.sizes.flags.writeable
    assert set(folded.sizes.tolist()) == {1, 4}
    assert unfold(reps, main_box_action(g), 13).tolist() == full.rows.tolist()
    # the first read of the rows checks every one of them
    ring = family_ring(13)
    eq = parse_poly(ring, "x1^4")
    points = list(enumerate_points(ring, 13, [eq]).points[:4])
    bad = PointSet(points + [(1, 0, 0, 0, 0)], 13, ring, [int_terms(eq)], scanned=5,
                   sizes=[4, 1, 1, 1, 1])
    assert len(bad) == 8
    with pytest.raises(AssertionError, match=r"point \[1, 0, 0, 0, 0\] fails"):
        bad.rows


def test_evaluator_is_exact_at_the_largest_prime():
    # every coordinate and coefficient p - 1, against Python ints: the
    # degree-11 term passes 2^63 unless it is reduced inside, and the sum of
    # the 495 degree-8 terms, 10^18 each, unless the sum is reduced between
    p = MAX_ENUM_PRIME
    top = p - 1
    ring = WRing(tuple(f"v{i}" for i in range(5)), (1,) * 5, PrimeField(p))
    cols = Columns([np.full(3, top, dtype=np.int64)] * 5, p)

    def exact(terms):
        return sum(c * top ** sum(e) for e, c in terms) % p

    polys = [[(e, top) for e in monomials_of_degree(ring, k)] for k in range(5)]
    polys.append([((10, 1, 0, 0, 0), top), ((0, 0, 0, 0, 2), top)])
    polys.append([(e, top) for e in monomials_of_degree(ring, 8)])
    for terms in polys:
        for part in [terms, *([t] for t in terms)]:
            assert cols.evaluate(part).tolist() == [exact(part)] * 3


def test_scan_checks_eigenvectors_on_int_terms(monkeypatch):
    # a member's characters come from g's own character_of_monomial on the
    # int terms mod p, one call per term, and no sorted monomial list; only
    # the message of a clash prints the equation
    fam = build_family(random_params(13, seed=5))
    g = group_generator(fam.ring)
    full = enumerate_points(fam.ring, 13, [fam.q0, fam.q2])
    q0 = fam.q0 + parse_poly(fam.ring, "x1^3 x2")
    calls = []
    original = MonomialMap.character_of_monomial

    def refuse(*args):
        raise AssertionError("the eigenvector check left the int terms")

    with monkeypatch.context() as patch:
        patch.setattr(MonomialMap, "character_of_monomial",
                      lambda m, e: calls.append(e) or original(m, e))
        patch.setattr(WPoly, "monomials", refuse)
        folded = enumerate_points(fam.ring, 13, [fam.q0, fam.q2], g)
    assert calls == list(fam.q0.terms) + list(fam.q2.terms)
    assert unfold(folded.rows, main_box_action(g), 13).tobytes() == full.rows.tobytes()
    with pytest.raises(ValueError, match="not an eigenvector") as err:
        enumerate_points(fam.ring, 13, [q0, fam.q2], g)
    a, b = map(ast.literal_eval, re.search(r"monomials (\(.*?\)) and (\(.*?\))",
                                           str(err.value)).groups())
    assert g.character_of_monomial(a) != g.character_of_monomial(b)


def test_scan_rejects_a_non_eigenvector():
    # x1^3 x2 has character 1 under g, the rest of q0 character 0
    fam = build_family(random_params(13, seed=1))
    g = group_generator(fam.ring)
    q0 = fam.q0 + parse_poly(fam.ring, "x1^3 x2")
    with pytest.raises(ValueError, match="not an eigenvector"):
        enumerate_points(fam.ring, 13, [q0, fam.q2], g)
    with pytest.raises(ValueError, match="map over GF"):
        enumerate_points(fam.ring, 13, [fam.q0, fam.q2],
                         group_generator(family_ring(17)))
    plane = WRing(("a", "b", "c"), (1, 1, 1), PrimeField(13))
    with pytest.raises(ValueError, match="at least four coordinates"):
        enumerate_points(plane, 13, [], MonomialMap(plane, (1, -1, 1)))


def orbit_count_formula(p):
    # orbits of size p-1 off the pure-y locus, (p-1)/2 on it
    return (p ** 5 - p ** 2) // (p - 1) + 2 * (p + 1)


def test_ambient_counts_match_formula():
    for p in (3, 5, 13):
        assert _orbit_count(W_GODEAUX, p) == orbit_count_formula(p)
    assert _orbit_count((1, 1, 1, 1), 5) == 5 ** 3 + 5 ** 2 + 5 + 1
    # the weighted plane has two pure-weight-2 orbits, hence the +2
    assert _orbit_count((1, 1, 2), 5) == 5 ** 2 + 5 + 2


def test_enumeration_matches_block_count():
    for p in (3, 5, 13):
        pts = enumerate_points(family_ring(p), p, [])
        assert len(pts) == orbit_count_formula(p)
        assert pts.scanned == len(pts)
    listed = enumerate_points(family_ring(3), 3, []).points
    assert listed == tuple(sorted(listed))
    assert len(set(listed)) == len(listed)


def test_unit_equation_gives_empty_locus():
    ring = family_ring(13)
    unit = ring.constant(1)
    assert len(enumerate_points(ring, 13, [unit])) == 0


def test_cone_point_count_over_f5():
    # cone over a conic: p^2 + p + 1 points (the two pure-y3 orbits of
    # the weighted plane glue to the single vertex here)
    ring = p3_ring(5)
    cone = parse_poly(ring, "y0^2 + -1 * y1 y2")
    assert len(enumerate_points(ring, 5, [cone])) == 31


def test_enumeration_accepts_rational_equations():
    ring = p3_ring()
    cone = parse_poly(ring, "y0^2 + -1 * y1 y2")
    assert len(enumerate_points(ring, 5, [cone])) == 31


def test_scan_frees_its_arrays_without_the_cycle_collector():
    # each batch's columns and cached powers must go by reference counting;
    # pinned by a reference cycle, they piled up to ~0.9 GB at p = 61
    fam = build_family(random_params(13, seed=1))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        surface = enumerate_points(fam.ring, 13, [fam.q0, fam.q2])
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(surface) > 0
    assert kept < 1 << 20  # the points themselves take a few kB


def test_point_set_spot_check_trips_on_bad_point():
    ring = family_ring(13)
    eq = parse_poly(ring, "x1^4")
    good = enumerate_points(ring, 13, [eq])
    assert len(good) > 0
    bad = PointSet([(1, 0, 0, 0, 0)], 13, ring, [int_terms(eq)], scanned=1)
    with pytest.raises(AssertionError, match="enumeration bug"):
        bad.points


def test_point_set_checks_every_point():
    # 41 points read back in strides of 2 by a 16-point sample: a bad
    # point at an odd index is seen only by the full check
    ring = family_ring(13)
    eq = parse_poly(ring, "x1^4")
    points = list(enumerate_points(ring, 13, [eq]).points[:40])
    assert len(points) == 40
    points.insert(5, (1, 0, 0, 0, 0))
    bad = PointSet(points, 13, ring, [int_terms(eq)], scanned=41)
    with pytest.raises(AssertionError, match=r"point \[1, 0, 0, 0, 0\] fails"):
        bad.rows


@pytest.mark.parametrize("p", [5, 13, 61])
def test_reduce_eqs_gives_the_int_terms_of_the_wpoly_reduction(p):
    # systems over Q and members over GF(p): the int terms of the WPoly
    # reduction, term for term and in term order
    systems = differential_systems(random.Random(p))
    for seed in range(4):
        fam = build_family(random_params(p, seed=seed, enforce_involution=seed % 2 == 0))
        systems.append((fam.ring, [fam.q0, fam.q2]))
    for ring, eqs in systems:
        ring_p, terms = _reduce_eqs(ring, p, eqs)
        assert ring_p == WRing(ring.names, ring.weights, PrimeField(p))
        assert terms == terms_of(reduce_wpolys(ring, p, eqs))
        assert all(type(c) is int and 0 < c < p for ts in terms for _, c in ts)


def test_reduce_eqs_drops_a_coefficient_divisible_by_p():
    ring = p3_ring()
    f = parse_poly(ring, "26 * y0^2 + 3 * y1 y2 + 1/2 * y3^2")
    assert _reduce_eqs(ring, 13, [f])[1] == [[((0, 1, 1, 0), 3), ((0, 0, 0, 2), 7)]]
    assert reduce_wpolys(ring, 13, [f])[0].to_string() == "3 * y1 y2 + 7 * y3^2"
    with pytest.raises(ValueError, match="bad reduction mod 13"):
        _reduce_eqs(ring, 13, [parse_poly(ring, "1/26 * y0^2 + y1 y2")])


def test_tripwire_names_the_point_and_the_equation():
    # the message prints the failing equation over GF(p), the reduction of
    # an equation over Q included
    ring = family_ring(13)
    eqs = [parse_poly(ring, "x1^4 + 12 * x2^4"), parse_poly(ring, "x1 x2 + 3 * y1")]
    for points, point, eq in (([(1, 0, 0, 0, 0)], [1, 0, 0, 0, 0], eqs[0]),
                              ([(1, 1, 0, 0, 0)], [1, 1, 0, 0, 0], eqs[1])):
        bad = PointSet(points, 13, ring, terms_of(eqs), scanned=1)
        with pytest.raises(AssertionError, match=re.escape(
                f"point {point} fails {eq.to_string()} = 0; enumeration bug")):
            bad.rows
    plane = p3_ring()
    half = parse_poly(plane, "1/2 * y0^2 + -1/2 * y1 y2")
    surface = enumerate_points(plane, 13, [half])
    bad = PointSet([(1, 0, 0, 0)], 13, surface.ring, surface.terms, scanned=1)
    with pytest.raises(AssertionError, match=re.escape(
            "point [1, 0, 0, 0] fails 7 * y0^2 + 6 * y1 y2 = 0")):
        bad.rows


def test_guards():
    ring = family_ring()
    with pytest.raises(ValueError, match="odd prime"):
        enumerate_points(ring, 4, [])
    with pytest.raises(ValueError, match="odd prime"):
        enumerate_points(ring, 2, [])
    with pytest.raises(ValueError, match="limited to"):
        enumerate_points(ring, 103, [])
    with pytest.raises(ValueError, match="not homogeneous"):
        enumerate_points(ring, 5, [parse_poly(ring, "x1 + x1^2")])
    with pytest.raises(ValueError, match="at least two coordinates"):
        enumerate_points(WRing(("x",), (1,), PrimeField(5)), 5, [])


def test_projective_identity_fixes_every_point():
    # the scaling (-1,-1,-1,1,1) is trivial on the weighted space
    p = 13
    ring = family_ring(p)
    field = ring.field
    m = MonomialMap(ring, (field(-1), field(-1), field(-1), field(1), field(1)))
    locus = fixed_locus(m, p, [])
    assert len(locus) == orbit_count_formula(p)


def test_identity_map_fixes_every_point():
    p = 5
    ring = family_ring(p)
    locus = fixed_locus(MonomialMap(ring, (1,) * ring.nvars), p, [])
    assert len(locus) == orbit_count_formula(p)


def test_tau_fixed_points_on_cone():
    p = 13
    ring = p3_ring(p)
    field = ring.field
    tau = MonomialMap(ring, (field(1), field(-1), field(-1), field(1)))
    cone = parse_poly(ring, "y0^2 + -1 * y1 y2")
    locus = fixed_locus(tau, p, [cone])
    assert locus.points == (
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
    )


def test_fixed_locus_requires_matching_field():
    # a map over Q or GF(p) has its scalars reduced mod p; one over another
    # prime field has no reduction, and a scalar that vanishes mod p, or
    # whose denominator p divides, leaves no diagonal map mod p
    ring = family_ring(5)
    with pytest.raises(ValueError, match=r"map is over GF\(5\), not GF\(13\)"):
        fixed_locus(MonomialMap(ring, (1,) * ring.nvars), 13, [])
    ring_q = family_ring()
    with pytest.raises(ValueError, match="map scalars must be nonzero mod 13"):
        fixed_locus(MonomialMap(ring_q, (26, 1, 1, 1, 1)), 13, [])
    with pytest.raises(ValueError, match="bad reduction mod 13"):
        fixed_locus(MonomialMap(ring_q, (Fraction(1, 13), 1, 1, 1, 1)), 13, [])
    # a map over Q fixes what its reduction fixes, on equations over Q too
    ring_p = family_ring(13)
    fam = build_family(random_params("Q", seed=2))
    for scalars in ((-1, -1, -1, 1, 1), (Fraction(1, 5), 5, 1, -1, 1)):
        m_q = MonomialMap(ring_q, scalars)
        m_p = MonomialMap(ring_p, tuple(map(ring_p.field, scalars)))
        assert _diagonal_fixed_patterns(m_q, 13) == _diagonal_fixed_patterns(m_p, 13)
        assert fixed_locus(m_q, 13, [fam.q0, fam.q2]).points == \
            fixed_locus(m_p, 13, [fam.q0, fam.q2]).points


def diagonal_maps(p):
    """g, g^2, g^3, the two involution lifts, the identity and the
    projective identity (-1,-1,-1,1,1), all over GF(p)."""
    fam = build_family(random_params(p, seed=0))
    i = fam.ring.field.sqrt_minus_one()
    maps = {f"g{k}": fam.action.power(k).as_monomial_map(i) for k in (1, 2, 3)}
    maps["sigma"] = fam.sigma.rational_realization()
    maps["sigma_g2"] = fam.sigma_g2.rational_realization()
    maps["identity"] = MonomialMap(fam.ring, (1,) * fam.ring.nvars)
    maps["projective identity"] = MonomialMap(fam.ring, (-1, -1, -1, 1, 1))
    return maps


@pytest.mark.parametrize("p", [5, 13])
def test_fixed_point_count_matches_scan(p):
    for name, m in diagonal_maps(p).items():
        patterns = _diagonal_fixed_patterns(m, p)
        count = _fixed_point_count(W_GODEAUX, patterns, p)
        assert count == len(fixed_locus(m, p, [])), name


@pytest.mark.parametrize("p", [5, 13])
def test_surface_hits_match_fixed_locus_scan(p):
    maps = diagonal_maps(p)
    for seed, enforce in ((0, True), (1, True), (2, False), (3, False)):
        fam = build_family(random_params(p, seed=seed, enforce_involution=enforce))
        eqs = [fam.q0, fam.q2]
        surface = enumerate_points(fam.ring, p, eqs)
        rows = surface.rows
        for name, m in maps.items():
            hits = rows[_fixed_mask(_diagonal_fixed_patterns(m, p), surface.zero_code)]
            assert [tuple(h) for h in hits.tolist()] == list(fixed_locus(m, p, eqs).points), name


@pytest.mark.parametrize("p", [5, 13])
def test_fixed_locus_counts_the_whole_scan(p):
    # the fixed points are picked out of the scan of the zero locus, so the
    # scan's counters are those of the unmasked scan
    fam = build_family(random_params(p, seed=1))
    eqs = [fam.q0, fam.q2]
    surface = enumerate_points(fam.ring, p, eqs)
    for name, m in diagonal_maps(p).items():
        locus = fixed_locus(m, p, eqs)
        assert (locus.scanned, locus.candidates) == (surface.scanned, surface.candidates), name
        assert len(locus) <= len(surface)


def test_free_action_witness_is_first_fixed_surface_point():
    # without x2^4 the coordinate point (0,1,0,0,0), fixed by every
    # diagonal map, lies on the surface
    params = random_params(13, seed=42)
    q0 = {k: v for k, v in params.q0.items() if k != "x2^4"}
    fam = build_family(FamilyParams(field_spec=13, q0=q0, q2=params.q2))
    report = check_free_action(fam, 13)
    assert report.status == "fail"
    i = fam.ring.field.sqrt_minus_one()
    g = fam.action.as_monomial_map(i)
    hits = fixed_locus(g, 13, [fam.q0, fam.q2]).points
    assert (0, 1, 0, 0, 0) in hits
    assert report.witness == {"element": "g", "point": list(hits[0])}


def test_checks_share_one_scan_per_member(monkeypatch):
    scans, folded = [], []
    original = varieties.enumerate_points

    def counting(ring, p, eqs, symmetry=None):
        scans.append(p)
        folded.append(symmetry)
        return original(ring, p, eqs, symmetry)

    monkeypatch.setattr(varieties, "enumerate_points", counting)
    fam_a = build_family(random_params(13, seed=1))
    fam_b = build_family(random_params(13, seed=2))
    fam_q = build_family(random_params("Q", seed=3))
    def unhashable(poly):
        raise AssertionError(f"{poly.to_string()} hashed by a check")

    sizes = []
    for fam, p in ((fam_a, 13), (fam_b, 13), (fam_a, 13), (fam_q, 13), (fam_q, 29)):
        with monkeypatch.context() as patch:
            # the surface is looked up by the member itself: over GF(13) no
            # check hashes a quartic
            if fam is not fam_q:
                patch.setattr(WPoly, "__hash__", unhashable)
            reports = [check(fam, p) for check in
                       (check_quasi_smooth, check_free_action, check_fixed_locus)]
        eqs = [fam.q0, fam.q2]
        surface = original(fam.ring, p, eqs)
        # the checks' scan is folded by g: one row per orbit, which unfold
        # to the rows of the unfolded scan
        folded_rows = surface_points(fam, p).rows
        assert len(folded_rows) < len(surface.rows)
        d = main_box_action(group_generator(family_ring(p)))
        assert unfold(folded_rows, d, p).tolist() == surface.rows.tolist()
        assert [r.points_scanned for r in reports] == [surface.scanned] * 3
        assert reports[0].data["surface_points"] == len(surface)
        assert reports[1].data["surface_points"] == len(surface)
        hits = fixed_locus(fam.sigma.rational_realization(), p, eqs).points
        assert reports[2].data["surface_hits"] == len(hits)
        assert reports[2].data["sample"] == list(hits[0])
        sizes.append(len(surface))
    # the two members have different surfaces, so a shared one would show
    assert sizes[0] != sizes[1]
    # one scan per member and prime; a member seen again is scanned again,
    # because the memo holds the last member only
    assert scans == [13, 13, 13, 13, 29]
    i = PrimeField(13).sqrt_minus_one()
    assert folded[0] == fam_a.action.as_monomial_map(i)
    assert all(m is not None for m in folded)


def test_one_round_of_checks_reduces_a_member_once(monkeypatch):
    # the three checks read one record, the member's surface, and the scan
    # that makes it is the only reduction mod p: the seed-3 member over Q is
    # scanned once per round.  Checking another member in between evicts
    # the record
    scans = []
    original = varieties.enumerate_points
    monkeypatch.setattr(varieties, "enumerate_points",
                        lambda *args: scans.append(args[1]) or original(*args))
    checks = (check_quasi_smooth, check_free_action, check_fixed_locus)
    fam_q = build_family(random_params("Q", seed=3))
    other = build_family(random_params(13, seed=1))

    def round_of(fam):
        return [(r.status, r.witness, r.data) for r in (check(fam, 13) for check in checks)]

    first = round_of(fam_q)
    assert scans == [13]
    round_of(other)
    assert scans == [13, 13]
    assert round_of(fam_q) == first
    assert scans == [13, 13, 13]


def test_checks_are_called_with_the_member_and_the_prime():
    # the body of a check also takes the surface, which the decorator looks
    # up; callers, and the names the benchmark tracer wraps, see (fam, p)
    for check in (check_quasi_smooth, check_free_action, check_fixed_locus):
        assert list(inspect.signature(check).parameters) == ["fam", "p"]
        assert check.__doc__ and check.__module__ == "godeaux.varieties"
    assert check_fixed_locus.__name__ == "check_fixed_locus"


def verify_member(p, seed):
    """The member of the first draw of ``verify --prime p --seed seed``."""
    return build_family(random_params(p, seed=random.Random(seed).randrange(1 << 31)))


# (p, verify seed) of failing draws: the pinned ones, where free-action
# fails at (13, 52), fixed-locus at (13, 42) and quasi-smooth at (13, 21),
# (17, 114) and (29, 109), then (17, 2), where quasi-smooth and free-action
# fail, and (17, 197), where fixed-locus fails
FAILING_DRAWS = [(13, 52), (13, 42), (13, 21), (17, 114), (29, 109), (17, 2), (17, 197)]


@pytest.mark.parametrize("p", [13, 17, 29, 61])
def test_fold_changes_no_report(p, monkeypatch):
    # the three checks on the folded scan and on the unfolded one, with
    # _group_generator giving no symmetry, report the same
    members = [verify_member(q, seed) for q, seed in FAILING_DRAWS if q == p]
    members += [verify_member(p, seed) for seed in (1, 5)]
    members += [build_family(random_params(p, seed=seed))
                for (q, seed) in SINGULAR_OFF_X2_ZERO if q == p]
    members += [build_family(random_params(p, seed=seed, enforce_involution=seed % 2 == 0))
                for seed in range(4)]
    checks = (check_quasi_smooth, check_free_action, check_fixed_locus)
    rows = []

    def reports():
        out = []
        for fam in members:
            # each member is checked folded and then unfolded, and the memo
            # knows nothing of the patched _group_generator
            surface_points.cache_clear()
            out.append([check(fam, p).to_dict() for check in checks])
            rows.append(len(surface_points(fam, p).rows))
        return out

    folded = reports()
    monkeypatch.setattr(varieties, "_group_generator", lambda ring: None)
    unfolded = reports()
    assert folded == unfolded
    half = len(members)
    assert all(a < b for a, b in zip(rows[:half], rows[half:]))
    statuses = {(r["check"], r["status"]) for member in folded for r in member}
    if p in (13, 17):
        assert {("quasi-smooth", "fail"), ("free-action", "fail"),
                ("fixed-locus", "fail")} <= statuses


def test_fixed_locus_hits_count_points_not_rows(monkeypatch):
    # the involution's patterns, x1 = x3 = 0 and x2 = 0, miss the rows of
    # size 4; the g-stable pattern y1 = 0 meets them, and its hits count
    # the points of the unfolded scan
    fam_p = verify_member(13, 1)
    eqs = [fam_p.q0, fam_p.q2]
    info = sigma_fixed_components(fam_p.ring, 13)
    monkeypatch.setattr(varieties, "sigma_fixed_components",
                        lambda ring, p: {**info, "patterns": ((3,),)})
    report = check_fixed_locus(fam_p, 13)
    folded = surface_points(fam_p, 13)
    unfolded = enumerate_points(fam_p.ring, 13, eqs)
    full = unfolded.rows
    hits = full[_fixed_mask(((3,),), unfolded.zero_code)]
    assert _fixed_mask(((3,),), folded.zero_code).sum() < len(hits)
    assert report.data["surface_hits"] == len(hits)
    assert report.data["sample"] == hits[0].tolist()


def test_second_free_action_check_counts_nothing_again(monkeypatch):
    # the fixed patterns and ambient counts of g, g^2, g^3 depend only on
    # (weights, scalars, p), so a second member at the same p reuses them
    first = check_free_action(build_family(random_params(13, seed=1)), 13)
    fam = build_family(random_params(13, seed=2))
    surface_points(fam, 13)  # the member's own scan, done once
    calls = []
    original = varieties._blocks

    def counting(weights, p):
        calls.append((weights, p))
        return original(weights, p)

    monkeypatch.setattr(varieties, "_blocks", counting)
    second = check_free_action(fam, 13)
    assert calls == []
    assert second.data["ambient_fixed_points"] == first.data["ambient_fixed_points"]
    i = fam.ring.field.sqrt_minus_one()
    for name, k in varieties.GROUP_ELEMENT_POWERS.items():
        patterns = _diagonal_fixed_patterns(fam.action.power(k).as_monomial_map(i), 13)
        assert isinstance(patterns, tuple)
        uncached = varieties._fixed_point_count.__wrapped__(W_GODEAUX, patterns, 13)
        assert second.data["ambient_fixed_points"][name] == uncached


def test_sigma_fixed_components():
    fam = build_family(random_params(13, seed=3))
    desc = sigma_fixed_components(fam.ring, 13)
    assert desc["zero_patterns"] == [["x1", "x3"], ["x2"]]
    p = 13
    in_x2_zero = p ** 3 + p ** 2 + 2 * p + 2
    in_x1_x3_zero = p ** 2 + 2 * p + 2
    in_both = 2 * p + 2
    assert desc["count"] == in_x2_zero + in_x1_x3_zero - in_both


def test_quasi_smooth_seed_42():
    fam = build_family(random_params(13, seed=42))
    report = check_quasi_smooth(fam, 13)
    assert report.status == "pass"
    assert report.points_scanned == orbit_count_formula(13)
    assert report.data["surface_points"] > 0
    assert any("characteristic-p" in n for n in report.notes)


def test_quasi_smooth_ambient_singular_trigger():
    params = FamilyParams(
        q0={"x1^4": 1, "x2^4": 1, "x3^4": 1, "x1^2 x3^2": 1, "x1 x2^2 x3": 1},
        q2={"x1^2 x2^2": 1, "x2^2 x3^2": 1, "x1^3 x3": 1, "x1 x3^3": 1, "y1^2": 1},
    )
    report = check_quasi_smooth(build_family(params), 13)
    assert report.status == "fail"
    assert report.data["failure_mode"] == "ambient-singular-locus"
    assert report.witness == [0, 0, 0, 0, 1]


def test_quasi_smooth_mixed_pure_y_witness():
    # without y-terms in q2 the surface meets x1=x2=x3=0 where y1 y3 = 0,
    # at (0,0,0,0,m) and at (0,0,0,m,0); the witness is the first surface
    # point on the line in scan order
    params = FamilyParams(
        q0={"x1^4": 1, "x2^4": 1, "x3^4": 1, "x1^2 x3^2": 1, "x1 x2^2 x3": 1, "y1 y3": 1},
        q2={"x1^2 x2^2": 1, "x2^2 x3^2": 1, "x1^3 x3": 1, "x1 x3^3": 1},
    )
    fam = build_family(params)
    report = check_quasi_smooth(fam, 13)
    assert report.status == "fail"
    assert report.data == {"failure_mode": "ambient-singular-locus"}
    assert report.notes[1] == "surface meets the ambient singular locus"
    assert report.points_scanned is None
    assert report.witness == [0, 0, 0, 0, 1]
    points = enumerate_points(fam.ring, 13, [fam.q0, fam.q2]).points
    on_line = [pt for pt in points if pt[:3] == (0, 0, 0)]
    assert on_line[0] == (0, 0, 0, 0, 1)
    assert (0, 0, 0, 1, 0) in on_line


def test_quasi_smooth_catches_forced_singularity():
    # dropping x1^4 makes (1,0,0,0,0) a surface point where the whole
    # first Jacobian row vanishes
    params = FamilyParams(
        q0={"x2^4": 1, "x3^4": 1, "x1^2 x3^2": 1, "x1 x2^2 x3": 1, "y1 y3": 1},
        q2={"x1^2 x2^2": 1, "x2^2 x3^2": 1, "x1^3 x3": 1, "x1 x3^3": 1,
            "y1^2": 1, "y3^2": 1},
    )
    fam = build_family(params)
    report = check_quasi_smooth(fam, 13)
    assert report.status == "fail"
    assert report.witness is not None
    surface = enumerate_points(family_ring(13), 13, [
        build_family(FamilyParams(field_spec=13, q0=params.q0, q2=params.q2)).q0,
        build_family(FamilyParams(field_spec=13, q0=params.q0, q2=params.q2)).q2,
    ])
    assert (1, 0, 0, 0, 0) in surface.points


def test_free_action_seed_42():
    fam = build_family(random_params(13, seed=42))
    report = check_free_action(fam, 13)
    assert report.status == "pass"
    assert report.data["ambient_fixed_points"]["g"] == 3
    assert report.data["ambient_fixed_points"]["g3"] == 3
    # g^2 fixes two coordinate lines and one extra point upstairs
    p = 13
    assert report.data["ambient_fixed_points"]["g2"] == (p + 1) + (2 * p + 2) + 1


def test_free_action_agrees_across_primes():
    fam = build_family(random_params("Q", seed=42))
    r13 = check_free_action(fam, 13)
    r29 = check_free_action(fam, 29)
    assert r13.status == r29.status == "pass"


def test_sigma_lift_is_not_free():
    fam = build_family(random_params(13, seed=42))
    locus = fixed_locus(fam.sigma.rational_realization(), 13, [fam.q0, fam.q2])
    assert len(locus) > 0
    assert any(pt[1] == 0 for pt in locus.points)


def test_fixed_locus_seed_42():
    fam = build_family(random_params(13, seed=42))
    report = check_fixed_locus(fam, 13)
    assert report.status == "pass"
    assert report.points_scanned == orbit_count_formula(13)
    assert report.data["zero_patterns"] == [["x1", "x3"], ["x2"]]
    assert report.data["ambient_fixed_points"] == sigma_fixed_components(fam.ring, 13)["count"]
    assert report.data["surface_hits"] > 0


def test_checks_error_on_bad_inputs():
    fam_q = build_family(random_params("Q", seed=0))
    report = check_quasi_smooth(fam_q, 7)
    assert (report.status, report.notes) == (
        "error", ("prime field must have p = 1 mod 4, got p = 7",))
    assert check_free_action(fam_q, 4).status == "error"
    fam13 = build_family(random_params(13, seed=0))
    report = check_quasi_smooth(fam13, 29)
    assert (report.status, report.notes) == ("error", ("ring is over GF(13), not GF(29)",))
    assert check_fixed_locus(fam_q, 109).status == "error"


CHECKS = (check_quasi_smooth, check_free_action, check_fixed_locus)


def reduced_member(params, p, drop=()):
    """The member over GF(p) built from the coefficients of params mod p,
    less the monomials in drop and those whose coefficient vanishes mod p."""
    field = PrimeField(p)
    q0, q2 = ({k: v for k, c in q.items() if k not in drop and (v := field(c))}
              for q in (params.q0, params.q2))
    return build_family(FamilyParams(field_spec=p, q0=q0, q2=q2,
                                     enforce_involution=params.enforce_involution))


@pytest.mark.parametrize("p", [13, 29])
def test_q_members_report_as_their_reductions(p):
    # a member over Q enters the scan as it is; each check reports on it
    # what it reports on the member over GF(p) built from its coefficients
    # mod p
    statuses = set()
    for seed in range(20):
        params = random_params("Q", seed=seed)
        fam_q, fam_p = build_family(params), reduced_member(params, p)
        for check in CHECKS:
            # status, witness, notes, data and points_scanned alike
            got = check(fam_q, p).to_dict()
            assert got == check(fam_p, p).to_dict(), (seed, check.__name__)
            statuses.add(got["status"])
    assert "error" not in statuses


def test_a_coefficient_that_vanishes_mod_p_drops_out():
    # the seed-5 member over Q with x1^4 set to 13: mod 13 it is the member
    # without x1^4, a smaller support that the scan handles.  The checks
    # report on that reduction, never an error
    params = random_params("Q", seed=5)
    fam = build_family(FamilyParams(q0={**params.q0, "x1^4": 13}, q2=params.q2))
    without = reduced_member(params, 13, drop=("x1^4",))
    rows = surface_points(fam, 13).rows.tolist()
    assert rows == surface_points(without, 13).rows.tolist()
    assert len(rows) == 91
    for check in CHECKS:
        report = check(fam, 13)
        assert report.status == "pass" or (report.status == "fail" and report.witness)
        assert report.to_dict() == check(without, 13).to_dict()


def test_checks_reduce_a_member_over_q_and_refuse_bad_reduction():
    # the record of a member over Q holds its terms mod p, over GF(p); a
    # coefficient whose denominator p divides has no reduction mod p, and
    # each check reports that error there and scans at another prime
    fam = build_family(random_params("Q", seed=4))
    surface = surface_points(fam, 13)
    assert surface.ring == family_ring(13)
    assert [len(terms) for terms in surface.terms] == [6, 6]
    bad = build_family(FamilyParams(q0={"x1^4": "1/13", "x2^4": 1, "y1 y3": 1},
                                    q2={"y1^2": 1}))
    for check in CHECKS:
        report = check(bad, 13)
        assert (report.status, report.notes) == ("error", ("1/13 has bad reduction mod 13",))
        assert check(bad, 29).status in ("pass", "fail")
