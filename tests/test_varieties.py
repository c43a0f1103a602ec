"""Enumeration kernel: canonical representatives, point counts, and the
exhaustive finite-field checks."""

import ast
import gc
import itertools
import math
import random
import re
import tracemalloc

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
    _Split,
    _t_parts,
    check_fixed_locus,
    check_free_action,
    check_quasi_smooth,
    enumerate_points,
    fixed_locus,
    int_terms,
    sigma_fixed_components,
    surface_points,
)
from godeaux.wpoly import MonomialMap, WPoly, WRing, jacobian, monomials_of_degree, parse_poly

W_GODEAUX = (1, 1, 1, 2, 2)


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
        c = coeff.value % p
        term = np.full(size, c, dtype=np.int64) if acc is None else acc * c % p
        total = (total + term) % p
    return total


def box_scan(ring, p, eqs):
    """(points, scanned) by evaluating every equation on every canonical
    representative; the reference the fibred scan is compared against."""
    ring_p, eqs_p = _reduce_eqs(ring, p, eqs)
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
    _, eqs_p = _reduce_eqs(ring, p, eqs)
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
    split = _Split([int_terms(g) for g in _reduce_eqs(ring, p, [f])[1]], ring.nvars, p)
    assert (split.filters, split.equations) == ([], [slice(0, 3)])
    g = split.outer_values(np.stack([x, y]), p)
    coeffs = _row_values(g, np.arange(len(z)), split.s_powers[:, z], p)
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
        split = _Split([int_terms(f)], n, p)
        g = split.outer_values(np.full((n - 2, 3), p - 1, dtype=np.int64), p)
        # three outer rows times two values of s: grid rows 0..5, by the
        # path on chosen rows and by the grid oracle on every row
        s_powers = split.s_powers[:, np.full(6, p - 1)]
        coeffs = _row_values(g, np.arange(6) // 2, s_powers, p)
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
        value = f.evaluate([f.ring.field(p - 1)] * n).value
        assert _horner(coeffs, row, t, p).tolist() == [value] * 6


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
        split = _Split([terms], n, p)
        assert (split.step, split.filters) == (step, [d])
        g = split.outer_values(np.full((n - 2, 3), p - 1, dtype=np.int64), p)
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
        systems.append((W_GODEAUX, terms + [_eliminant(terms, 5, p)]))
    for weights, terms in systems:
        split = _Split(terms, len(weights), p)
        shapes.add((split.step, tuple(split.filters)))
        for batch in varieties._outer_batches(weights, p):
            g = split.outer_values(batch[:-2], p)
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
        coeffs[e[-1]] += c.value * math.prod(pow(x, k, p) for x, k in zip(point, e))
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
        eliminant = _eliminant([int_terms(f) for f in eqs], ring.nvars, p)
        assert eliminant is not None
        assert all(e[-1] == 0 for e, _ in eliminant)
        for _ in range(25):
            point = [rng.randrange(p) for _ in range(ring.nvars - 1)]
            value = sum(c * math.prod(pow(x, k, p) for x, k in zip(point, e))
                        for e, c in eliminant) % p
            want = sylvester_resultant(t_coefficients_at(pivot, point, p),
                                       t_coefficients_at(h, point, p), p)
            assert value == want


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
    assert _eliminant([int_terms(f) for f in _reduce_eqs(ring, 13, [first, multiple])[1]],
                      ring.nvars, 13) is None
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
    scalars = [c.value for c in symmetry.scalars]
    return varieties._main_box_action(scalars, ring.weights, ring.field.p)


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
        scalars = [c.value for c in group_generator(ring).scalars]
        i = varieties._main_box_action(scalars, ring.weights, p)[1]
        assert i == PrimeField(p).sqrt_minus_one().value
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
        i = PrimeField(p).sqrt_minus_one().value
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
        fam = varieties._family_mod_p(build_family(random_params(p, seed=1)), p)
        patterns = varieties._element_patterns(fam.action, p)
        assert varieties._element_patterns(fam.action, p) is patterns
        assert [name for name, _ in patterns] == ["g", "g2", "g3"]


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
        d1s.append(PrimeField(p).sqrt_minus_one().value)
    for d1 in d1s:
        batches = varieties._outer_batches(weights, p, d1)
        assert [b.shape[1] for b in batches[:-1]] == [width] * (len(batches) - 1)
        assert 0 < batches[-1].shape[1] <= width
        assert np.concatenate(batches, axis=1).tolist() == outer_rows(weights, p, d1).tolist()
    widths = {p: [b.shape[1] for b in varieties._outer_batches(W_GODEAUX, p, d1)]
              for p, d1 in ((101, PrimeField(101).sqrt_minus_one().value), (61, None))}
    # the folded surface at p = 101 and the unfolded one at p = 61
    assert widths == {101: [1297, 1297, 138], 61: [2148, 1639]}


def test_surface_s_stage_solves_one_column_per_outer_row(monkeypatch):
    # the s stage takes the eliminant's three S-coefficients on each outer
    # row, not the p^3 grid, and keeps at most two S, four s, on each
    p = 61
    fam = build_family(random_params(p, seed=5))
    g = group_generator(fam.ring)
    d1 = varieties._main_box_action([c.value for c in g.scalars], W_GODEAUX, p)[1]
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
    fam_p = varieties._family_mod_p(build_family(random_params(p, seed=seed)), p)
    eqs = [fam_p.q0, fam_p.q2]
    reps = surface_points(p, *eqs).rows
    rows = enumerate_points(fam_p.ring, p, eqs).rows
    # the main box dominates at the larger primes, and a quarter of it is kept
    assert (3 if p > 29 else 1) * len(reps) < len(rows)
    oracle = full_rank_below_two(rows, eqs, p)
    singular = varieties._rank_below_two(reps, eqs, p)
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
    bad = PointSet(points + [(1, 0, 0, 0, 0)], 13, ring, [eq], scanned=5,
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
    # a member's characters come from the int scalars of g mod p: no
    # FpElement product per monomial and no sorted monomial list; only the
    # message of a clash prints the equation
    fam = build_family(random_params(13, seed=5))
    g = group_generator(fam.ring)
    full = enumerate_points(fam.ring, 13, [fam.q0, fam.q2])
    q0 = fam.q0 + parse_poly(fam.ring, "x1^3 x2")

    def refuse(*args):
        raise AssertionError("the eigenvector check left plain ints")

    with monkeypatch.context() as patch:
        patch.setattr(MonomialMap, "character_of_monomial", refuse)
        patch.setattr(WPoly, "monomials", refuse)
        folded = enumerate_points(fam.ring, 13, [fam.q0, fam.q2], g)
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
    bad = PointSet([(1, 0, 0, 0, 0)], 13, ring, [eq], scanned=1)
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
    bad = PointSet(points, 13, ring, [eq], scanned=41)
    with pytest.raises(AssertionError, match=r"point \[1, 0, 0, 0, 0\] fails"):
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
    ring = family_ring()
    with pytest.raises(ValueError, match="over GF"):
        fixed_locus(MonomialMap(ring, (1,) * ring.nvars), 13, [])


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
        rows = enumerate_points(fam.ring, p, eqs).rows
        for name, m in maps.items():
            hits = rows[_fixed_mask(_diagonal_fixed_patterns(m, p), rows.T)]
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
    surface_points.cache_clear()
    fam_a = build_family(random_params(13, seed=1))
    fam_b = build_family(random_params(13, seed=2))
    fam_q = build_family(random_params("Q", seed=3))
    sizes = []
    for fam, p in ((fam_a, 13), (fam_b, 13), (fam_a, 13), (fam_q, 13), (fam_q, 29)):
        reports = [check(fam, p) for check in
                   (check_quasi_smooth, check_free_action, check_fixed_locus)]
        fam_p = varieties._family_mod_p(fam, p)
        eqs = [fam_p.q0, fam_p.q2]
        surface = original(fam_p.ring, p, eqs)
        # the checks' scan is folded by g: one row per orbit, which unfold
        # to the rows of the unfolded scan
        folded_rows = surface_points(p, *eqs).rows
        assert len(folded_rows) < len(surface.rows)
        d = main_box_action(group_generator(fam_p.ring))
        assert unfold(folded_rows, d, p).tolist() == surface.rows.tolist()
        assert [r.points_scanned for r in reports] == [surface.scanned] * 3
        assert reports[0].data["surface_points"] == len(surface)
        assert reports[1].data["surface_points"] == len(surface)
        hits = fixed_locus(fam_p.sigma.rational_realization(), p, eqs).points
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
            surface_points.cache_clear()
            out.append([check(fam, p).to_dict() for check in checks])
            fam_p = varieties._family_mod_p(fam, p)
            rows.append(len(surface_points(p, fam_p.q0, fam_p.q2).rows))
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
    surface_points.cache_clear()


def test_fixed_locus_hits_count_points_not_rows(monkeypatch):
    # the involution's patterns, x1 = x3 = 0 and x2 = 0, miss the rows of
    # size 4; the g-stable pattern y1 = 0 meets them, and its hits count
    # the points of the unfolded scan
    fam_p = varieties._family_mod_p(verify_member(13, 1), 13)
    eqs = [fam_p.q0, fam_p.q2]
    info = sigma_fixed_components(fam_p, 13)
    monkeypatch.setattr(varieties, "sigma_fixed_components",
                        lambda fam, p: {**info, "patterns": ((3,),)})
    surface_points.cache_clear()
    report = check_fixed_locus(fam_p, 13)
    rows = surface_points(13, *eqs).rows
    full = enumerate_points(fam_p.ring, 13, eqs).rows
    hits = full[_fixed_mask(((3,),), full.T)]
    assert _fixed_mask(((3,),), rows.T).sum() < len(hits)
    assert report.data["surface_hits"] == len(hits)
    assert report.data["sample"] == hits[0].tolist()
    surface_points.cache_clear()


def test_second_free_action_check_counts_nothing_again(monkeypatch):
    # the fixed patterns and ambient counts of g, g^2, g^3 depend only on
    # (weights, scalars, p), so a second member at the same p reuses them
    first = check_free_action(build_family(random_params(13, seed=1)), 13)
    fam = build_family(random_params(13, seed=2))
    surface_points(13, fam.q0, fam.q2)  # the member's own scan, done once
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
    desc = sigma_fixed_components(fam, 13)
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
    fam_p = varieties._family_mod_p(fam, 13)
    points = enumerate_points(fam_p.ring, 13, [fam_p.q0, fam_p.q2]).points
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
    assert report.data["ambient_fixed_points"] == sigma_fixed_components(fam, 13)["count"]
    assert report.data["surface_hits"] > 0


def test_checks_error_on_bad_inputs():
    fam_q = build_family(random_params("Q", seed=0))
    assert check_quasi_smooth(fam_q, 7).status == "error"
    assert check_free_action(fam_q, 4).status == "error"
    fam13 = build_family(random_params(13, seed=0))
    assert check_quasi_smooth(fam13, 29).status == "error"
    assert check_fixed_locus(fam_q, 109).status == "error"
