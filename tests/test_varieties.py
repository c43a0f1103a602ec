"""Enumeration kernel: canonical representatives, point counts, and the
exhaustive finite-field checks."""

import gc
import itertools
import tracemalloc

import pytest

from godeaux.family import FamilyParams, build_family, random_params
from godeaux.scalars import QQ, PrimeField
from godeaux.varieties import (
    PointSet,
    ambient_point_count,
    check_fixed_locus,
    check_free_action,
    check_quasi_smooth,
    enumerate_points,
    fixed_locus,
    sigma_fixed_components,
)
from godeaux.wpoly import MonomialMap, WRing, parse_poly

W_GODEAUX = (1, 1, 1, 2, 2)


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


def orbit_count_formula(p):
    # orbits of size p-1 off the pure-y locus, (p-1)/2 on it
    return (p ** 5 - p ** 2) // (p - 1) + 2 * (p + 1)


def test_ambient_counts_match_formula():
    for p in (3, 5, 13):
        assert ambient_point_count(W_GODEAUX, p) == orbit_count_formula(p)
    assert ambient_point_count((1, 1, 1, 1), 5) == 5 ** 3 + 5 ** 2 + 5 + 1
    # the weighted plane has two pure-weight-2 orbits, hence the +2
    assert ambient_point_count((1, 1, 2), 5) == 5 ** 2 + 5 + 2


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
    # each chunk's columns and cached powers must go by reference counting;
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


def test_projective_identity_fixes_every_point():
    # the scaling (-1,-1,-1,1,1) is trivial on the weighted space
    p = 13
    ring = family_ring(p)
    field = ring.field
    m = MonomialMap.diagonal(
        ring, (field(-1), field(-1), field(-1), field(1), field(1))
    )
    locus = fixed_locus(m, p, [])
    assert len(locus) == orbit_count_formula(p)


def test_identity_map_fixes_every_point():
    p = 5
    ring = family_ring(p)
    locus = fixed_locus(MonomialMap.identity(ring), p, [])
    assert len(locus) == orbit_count_formula(p)


def test_tau_fixed_points_on_cone():
    p = 13
    ring = p3_ring(p)
    field = ring.field
    tau = MonomialMap.diagonal(ring, (field(1), field(-1), field(-1), field(1)))
    cone = parse_poly(ring, "y0^2 + -1 * y1 y2")
    locus = fixed_locus(tau, p, [cone])
    assert locus.points == (
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
    )


def test_fixed_locus_of_nondiagonal_map():
    p = 5
    ring = WRing(("x", "y"), (1, 1), PrimeField(p))
    field = ring.field
    swap = MonomialMap(ring, (field(1), field(1)), (1, 0))
    with pytest.raises(ValueError, match="diagonal maps only"):
        fixed_locus(swap, p, [])


def test_fixed_locus_requires_matching_field():
    ring = family_ring()
    with pytest.raises(ValueError, match="over GF"):
        fixed_locus(MonomialMap.identity(ring), 13, [])


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
    locus = fixed_locus(fam.sigma.as_monomial_map(), 13, [fam.q0, fam.q2])
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
