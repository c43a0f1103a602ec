"""The cone, its involution, branch degenerations, and the conic pencil."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from godeaux.cone import (
    BranchConfig,
    ConeSetup,
    DEGENERATION_CASES,
    SMOOTH_FIXED_1,
    SMOOTH_FIXED_2,
    STANDARD_FRAME,
    VERTEX,
    classify_degeneration,
    cone_setup,
    default_branch_config,
    image_equations,
    image_ring,
    intersection_count,
    pencil_report,
    tau_fixed_points,
    verify_invariant_map,
)
from godeaux.reports import canonical_json
from godeaux.scalars import QQ, exact_rank, field_from_spec
from godeaux.varieties import enumerate_points
from godeaux.wpoly import MonomialMap, WPoly, WRing, apply_map, monomials_of_degree, parse_poly

from fraction_oracle import pencil_report as fraction_pencil_report


def test_setup_involution_squares_to_identity():
    s = cone_setup()
    sq = [x * x for x in s.tau.scalars]
    assert sq == [s.field(1)] * 4
    assert apply_map(s.cone, s.tau) == s.cone


def test_setup_over_prime_field():
    s = cone_setup(13)
    assert s.field.characteristic == 13
    assert len(s.invariant_quadrics) == 5


def test_setup_rejects_wrong_cone():
    s = cone_setup()
    bad = parse_poly(s.ring, "y0^2 + y1 y2")
    with pytest.raises(ValueError, match="multiple of y0"):
        ConeSetup(ring=s.ring, cone=bad, tau=s.tau,
                  invariant_quadrics=s.invariant_quadrics)


def test_setup_rejects_non_involution():
    s = cone_setup()
    tau = MonomialMap(s.ring, [s.field(x) for x in (2, -1, -1, 1)])
    with pytest.raises(ValueError, match="diagonal involution"):
        ConeSetup(ring=s.ring, cone=s.cone, tau=tau,
                  invariant_quadrics=s.invariant_quadrics)


def test_setup_rejects_sign_pattern_breaking_cone():
    s = cone_setup()
    tau = MonomialMap(s.ring, [s.field(x) for x in (1, 1, -1, 1)])
    with pytest.raises(ValueError, match="does not preserve"):
        ConeSetup(ring=s.ring, cone=s.cone, tau=tau,
                  invariant_quadrics=s.invariant_quadrics)


def test_setup_rejects_incomplete_quadric_basis():
    s = cone_setup()
    with pytest.raises(ValueError, match="basis of the even quadrics"):
        ConeSetup(ring=s.ring, cone=s.cone, tau=s.tau,
                  invariant_quadrics=s.invariant_quadrics[:4])


def test_reduce_rewrites_even_powers():
    s = cone_setup()
    f = parse_poly(s.ring, "y0^4")
    assert s.reduce(f) == parse_poly(s.ring, "y1^2 y2^2")
    assert s.reduce(s.cone).is_zero()
    mixed = parse_poly(s.ring, "y0^3 y3 + y0 y1")
    assert s.reduce(mixed) == parse_poly(s.ring, "y0 y1 y2 y3 + y0 y1")


def test_invariant_map_symbolic_and_mod_13():
    rep = verify_invariant_map(cone_setup(), prime=13)
    assert rep.ok
    assert all(rep.data["checks"].values())
    assert rep.data["cone_points"] == 13 * 13 + 13 + 1


def test_invariant_map_over_other_prime():
    rep = verify_invariant_map(cone_setup(29), prime=29)
    assert rep.ok
    assert rep.data["cone_points"] == 29 * 29 + 29 + 1


def test_invariant_map_builds_no_setup_at_the_prime(monkeypatch):
    # the quadrics of a setup over Q are reduced mod the prime, not taken
    # from a second setup built over GF(prime)
    import godeaux.cone as cone

    setup = cone_setup()
    want = verify_invariant_map(setup, prime=29).to_dict()

    def refuse(*args):
        raise AssertionError("a cone setup built for the check")

    monkeypatch.setattr(cone, "cone_setup", refuse)
    monkeypatch.setattr(cone, "_cone_setup", refuse)
    for prime in (13, 29):
        rep = verify_invariant_map(setup, prime=prime)
        assert rep.ok
        assert rep.data["cone_points"] == prime * prime + prime + 1
    assert verify_invariant_map(setup, prime=29).to_dict() == want


def test_invariant_map_witness_is_first_bad_point_in_scan_order(monkeypatch):
    import godeaux.cone as cone
    from godeaux.varieties import enumerate_points

    def perturbed(ring):
        e1, e2 = image_equations(ring)
        return e1, e2 + parse_poly(ring, "x1 x2 + -3*x2 x4")

    # reference: the points one at a time, image first, then the equations
    s13 = cone_setup(13)
    points = enumerate_points(s13.ring, 13, [s13.cone]).points
    model = perturbed(image_ring(13))
    bad = [pt for pt in points
           if any(eq.evaluate(s13.image_point(pt)) for eq in model)]
    assert bad and bad[0] != points[0]

    monkeypatch.setattr(cone, "image_equations", perturbed)
    rep = verify_invariant_map(cone_setup(), prime=13)
    assert rep.status == "fail"
    assert rep.witness == {"point": list(bad[0])}
    assert rep.data["cone_points"] is None
    assert rep.data["checks"]["all_points_map_to_model"] is False


def test_image_model_is_two_equations():
    ring = image_ring()
    e1, e2 = image_equations(ring)
    assert e1.degree() == 2 and e2.degree() == 2


def test_fixed_points_symbolic():
    rep = tau_fixed_points(cone_setup())
    assert rep.ok
    assert rep.data["points"] == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
    assert rep.data["vertex"] == [0, 0, 0, 1]


def test_fixed_points_images_are_coordinate_points():
    rep = tau_fixed_points(cone_setup())
    images = rep.data["images"]
    assert images["[0, 0, 0, 1]"] == [0, 0, 0, 1, 0]
    assert images["[0, 1, 0, 0]"] == [0, 1, 0, 0, 0]
    assert images["[0, 0, 1, 0]"] == [0, 0, 1, 0, 0]


def test_fixed_points_enumeration_cross_check():
    rep = tau_fixed_points(cone_setup(), prime=13)
    assert rep.ok
    assert rep.data["checks"]["enumeration_agrees"]
    assert rep.points_scanned is not None


def test_default_configs_validate_and_derive_B2():
    for case in DEGENERATION_CASES:
        cfg = default_branch_config(case)
        setup = cfg.setup
        assert cfg.q2 == apply_map(cfg.q1, setup.tau)
        assert cfg.h3.degree() == 1


def test_default_configs_over_gf13():
    for case in DEGENERATION_CASES:
        cfg = default_branch_config(case, 13)
        assert cfg.q1.ring.field.characteristic == 13


def test_config_rejects_unknown_case():
    with pytest.raises(ValueError, match="not one of"):
        default_branch_config("deg5")


def test_config_rejects_plane_missing_fixed_points():
    s = cone_setup()
    with pytest.raises(ValueError, match="must vanish at both smooth fixed points"):
        BranchConfig(case="general",
                     q1=parse_poly(s.ring, "y1^2 + y3^2"),
                     h3=parse_poly(s.ring, "y0 + y1"))


def test_config_rejects_cone_multiple():
    s = cone_setup()
    with pytest.raises(ValueError, match="multiple of the cone"):
        BranchConfig(case="general",
                     q1=parse_poly(s.ring, "y0^2 + -1*y1 y2"),
                     h3=parse_poly(s.ring, "y0"))


def test_config_rejects_non_quadric():
    s = cone_setup()
    with pytest.raises(ValueError, match="must be a quadric"):
        BranchConfig(case="general", q1=parse_poly(s.ring, "y0"),
                     h3=parse_poly(s.ring, "y0"))


def test_config_rejects_non_homogeneous_plane():
    # y0 + 1 has degree 1 but is no plane section: refused here, not by the
    # scan of the intersections
    s = cone_setup()
    for h3 in ("y0 + 1", "y0 + -1*y3 + 2"):
        with pytest.raises(ValueError, match="must be a plane section"):
            BranchConfig(case="general", q1=parse_poly(s.ring, "y1^2 + y3^2"),
                         h3=parse_poly(s.ring, h3))


# the factor fields each case reads
CASE_FIELDS = {"general": set(), "deg1": {"r1"}, "deg2": {"h"}, "exP": {"h"},
               "deg3": {"h0", "h1"}, "deg4": {"h1", "ht"}}


def test_config_refuses_factor_fields_its_case_does_not_read():
    # each preset sets exactly the fields its case reads; any other field,
    # even one that another case reads, is refused by name
    s = cone_setup()
    others = {"r1": (1, 1, 1, 0), "h": parse_poly(s.ring, "y0 + y1"),
              "h0": parse_poly(s.ring, "y0 + -1*y3"), "h1": parse_poly(s.ring, "y0 + y3"),
              "ht": parse_poly(s.ring, "-4*y0 + 4*y1 + y2")}
    assert set(CASE_FIELDS) == set(DEGENERATION_CASES)
    for case, fields in CASE_FIELDS.items():
        cfg = default_branch_config(case)
        assert {name for name in others if getattr(cfg, name) is not None} == fields
        for name, value in others.items():
            if name not in fields:
                with pytest.raises(ValueError, match=f"case {case} does not read {name};"):
                    dataclasses.replace(cfg, **{name: value})


def test_deg1_requires_singular_point_data():
    s = cone_setup()
    q1 = parse_poly(s.ring, "y1^2 + y3^2")
    with pytest.raises(ValueError, match="needs the node location"):
        BranchConfig(case="deg1", q1=q1, h3=parse_poly(s.ring, "y0"))
    with pytest.raises(ValueError, match="must not be fixed"):
        BranchConfig(case="deg1", q1=q1, h3=parse_poly(s.ring, "y0"),
                     r1=(0, 0, 0, 1))
    with pytest.raises(ValueError, match="does not lie on the cone"):
        BranchConfig(case="deg1", q1=q1, h3=parse_poly(s.ring, "y0"),
                     r1=(1, 1, 2, 0))
    with pytest.raises(ValueError, match="does not vanish"):
        BranchConfig(case="deg1", q1=q1, h3=parse_poly(s.ring, "y0"),
                     r1=(1, 1, 1, 0))


def test_deg1_rejects_smooth_branch_point():
    s = cone_setup()
    # vanishes at (1,1,1,0) and its image but with full-rank Jacobian there
    q1 = parse_poly(s.ring, "y0 y3 + y1^2 + -1*y1 y2")
    with pytest.raises(ValueError, match="not singular"):
        BranchConfig(case="deg1", q1=q1, h3=parse_poly(s.ring, "y0"),
                     r1=(1, 1, 1, 0))


def test_deg2_requires_perfect_square():
    s = cone_setup()
    with pytest.raises(ValueError, match="q1 = h\\^2"):
        BranchConfig(case="deg2", q1=parse_poly(s.ring, "y1^2 + y3^2"),
                     h3=parse_poly(s.ring, "y0"),
                     h=parse_poly(s.ring, "y1 + y3"))


def test_deg3_requires_invariant_plane_off_vertex():
    s = cone_setup()
    h1 = parse_poly(s.ring, "y0 + y1 + y3")
    bad = parse_poly(s.ring, "y0 + y1")
    with pytest.raises(ValueError, match="invariant plane"):
        BranchConfig(case="deg3", q1=bad * h1, h3=parse_poly(s.ring, "y0"),
                     h0=bad, h1=h1)
    through_vertex = parse_poly(s.ring, "y0")
    with pytest.raises(ValueError, match="vertex"):
        BranchConfig(case="deg3", q1=through_vertex * h1,
                     h3=parse_poly(s.ring, "y0"),
                     h0=through_vertex, h1=h1)


def test_deg4_requires_tangent_plane():
    s = cone_setup()
    h1 = parse_poly(s.ring, "y0 + y1 + y2 + y3")
    not_tangent = parse_poly(s.ring, "y1 + y2")
    with pytest.raises(ValueError, match="doubled ruling"):
        BranchConfig(case="deg4", q1=h1 * not_tangent,
                     h3=parse_poly(s.ring, "y0"), h1=h1, ht=not_tangent)


def test_intersection_lattice_count_is_frame_independent():
    for case in DEGENERATION_CASES:
        cfg = default_branch_config(case)
        rep = intersection_count(cfg)
        assert rep.data["lattice_count"] == 8


def test_intersection_general_census():
    rep = intersection_count(default_branch_config("general"))
    assert rep.ok
    assert rep.data["rational_count"] <= 8


def test_intersection_deg1_multiplicity_census():
    rep = intersection_count(default_branch_config("deg1"))
    assert rep.ok
    assert rep.data["rational_count"] == 2
    assert rep.data["multiplicities"] == {
        "[1, 1, 1, 0]": 4,
        "[1, -1, -1, 0]": 4,
    }


def test_intersection_rejects_equal_branches():
    s = cone_setup()
    cfg = BranchConfig(case="general",
                       q1=parse_poly(s.ring, "y1^2 + y2^2 + y3^2"),
                       h3=parse_poly(s.ring, "y0 + 2*y3"))
    rep = intersection_count(cfg)
    assert rep.status == "error"
    assert "shared component" in rep.witness["reason"]


def test_intersection_detects_shared_plane_in_deg3():
    rep = intersection_count(default_branch_config("deg3"))
    assert rep.status == "error"
    assert "shared component" in rep.witness["reason"]


EXPECTED_VERDICTS = {
    "general": ("smooth-Godeaux", True, 1, 1),
    "deg1": ("N-elliptic", True, 1, 1),
    "deg2": ("P2", True, 1, 1),
    "deg3": ("Enriques-4-nodes", False, 2, 2),
    "deg4": ("dP1", False, None, 2),
    "exP": ("P2", True, 1, 1),
}


def test_classification_table():
    for case, row in EXPECTED_VERDICTS.items():
        d = classify_degeneration(default_branch_config(case)).data
        assert d["case"] == case
        assert d["normalization"] == row[0], case
        assert d["gorenstein"] is row[1], case
        assert d["cartier_index_T"] == row[2], case
        assert d["cartier_index_S"] == row[3], case


def test_gorenstein_gate_passes_for_general_and_fails_for_deg4():
    ok = classify_degeneration(default_branch_config("general")).data["gates"]
    assert ok["vertex_avoids_branch"]
    assert ok["triple_intersection_empty"]
    assert ok["fixed_points_avoid_B1B2"]
    bad = classify_degeneration(default_branch_config("deg4")).data["gates"]
    assert not bad["vertex_avoids_branch"]
    assert not bad["fixed_points_avoid_B1B2"]


def _random_general_config(rng, field_spec):
    """A general configuration with random coefficients on a random set of
    quadric monomials, and h3 = a*y0 + b*y3; the coefficients are
    rationals with denominators prime to 13, 29 and 61."""
    ring = cone_setup(field_spec).ring

    def scalar():
        return ring.field(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 7))))

    while True:
        q1 = WPoly(ring, {e: scalar() for e in monomials_of_degree(ring, 2)
                          if rng.random() < 0.6})
        h3 = WPoly(ring, {(1, 0, 0, 0): scalar(), (0, 0, 0, 1): scalar()})
        try:
            return BranchConfig(case="general", q1=q1, h3=h3)
        except ValueError:
            continue


def _gate_configs():
    """The six presets over Q and GF(13), random general configurations
    over both, and a general configuration whose three branches meet mod 13."""
    rng = random.Random(25)
    configs = []
    for field_spec in ("Q", 13):
        configs += [(f"{case}-{field_spec}", default_branch_config(case, field_spec))
                    for case in DEGENERATION_CASES]
        configs += [(f"random{i}-{field_spec}", _random_general_config(rng, field_spec))
                    for i in range(6)]
    s = cone_setup()
    configs.append(("triple-mod-13", BranchConfig(
        case="general",
        q1=parse_poly(s.ring, "6*y3^2 + 6*y2 y3 + 2*y1^2 + -6*y0 y2 + 2*y0^2 + y2^2"),
        h3=parse_poly(s.ring, "y0 + -1*y3"))))
    return [pytest.param(name, cfg, id=name) for name, cfg in configs]


@pytest.mark.parametrize("name, cfg", _gate_configs())
def test_gates_agree_with_evaluation_and_a_direct_scan(name, cfg):
    # the gates at the fixed points are read from coefficients, and the
    # triple intersection from the rows of the B1 and B2 scan where h3
    # vanishes: check them against evaluation at the points and a scan of
    # all four equations
    setup = cfg.setup
    branch = (cfg.q1, cfg.q2)

    def meets(fs, pt):
        return any(not f.evaluate(pt) for f in fs)

    fixed = (VERTEX, SMOOTH_FIXED_1, SMOOTH_FIXED_2)
    # BranchConfig's check on h3 puts both smooth fixed points on B3
    assert meets((cfg.h3,), SMOOTH_FIXED_1) and meets((cfg.h3,), SMOOTH_FIXED_2)
    primes = (13,) if setup.field.characteristic else (13, 29, 61)
    for p in primes:
        triple = enumerate_points(setup.ring, p, [setup.cone, *branch, cfg.h3])
        assert classify_degeneration(cfg, p).data["gates"] == {
            "vertex_avoids_branch": not meets((*branch, cfg.h3), VERTEX),
            "triple_intersection_empty": len(triple) == 0,
            "fixed_points_avoid_B1B2": not any(meets(branch, pt) for pt in fixed),
        }, p
    if name == "triple-mod-13":
        assert not classify_degeneration(cfg, 13).data["gates"]["triple_intersection_empty"]


def test_deg3_gates_show_the_obstruction():
    gates = classify_degeneration(default_branch_config("deg3")).data["gates"]
    assert not gates["triple_intersection_empty"]
    assert not gates["fixed_points_avoid_B1B2"]
    assert gates["vertex_avoids_branch"]


def test_general_config_through_vertex_downgrades_gorenstein():
    s = cone_setup()
    cfg = BranchConfig(case="general",
                       q1=parse_poly(s.ring, "y1^2 + y2^2 + y0 y1"),
                       h3=parse_poly(s.ring, "y0 + 2*y3"))
    rep = classify_degeneration(cfg)
    assert not rep.data["gates"]["vertex_avoids_branch"]
    assert rep.data["gorenstein"] is None
    assert rep.status == "fail"
    assert rep.witness == {"gates": rep.data["gates"]}


def test_degeneration_reports_are_lookups():
    for case in DEGENERATION_CASES:
        rep = classify_degeneration(default_branch_config(case))
        assert rep.check == "degeneration"
        assert rep.status == "lookup", case
        assert rep.witness is None
        assert rep.data["normalization"] == EXPECTED_VERDICTS[case][0]


def tau_conjugate(cfg):
    """The same configuration with B1 and B2 exchanged; r1 moves to its
    image, scaled to lead with 1."""
    tau = cfg.setup.tau

    def t(f):
        return None if f is None else apply_map(f, tau)

    r1 = None
    if cfg.r1 is not None:
        image = tau.point_image(cfg.r1)
        lead = next(x for x in image if x)
        r1 = tuple(int(x / lead) for x in image)
    return BranchConfig(
        case=cfg.case, q1=cfg.q2, h3=cfg.h3, r1=r1,
        h=t(cfg.h), h0=t(cfg.h0), h1=t(cfg.h1), ht=t(cfg.ht),
    )


def test_verdicts_invariant_under_branch_swap():
    for case in DEGENERATION_CASES:
        cfg = default_branch_config(case)
        assert classify_degeneration(cfg) == classify_degeneration(tau_conjugate(cfg))


def test_conjugation_is_involutive():
    for case in DEGENERATION_CASES:
        cfg = default_branch_config(case)
        back = tau_conjugate(tau_conjugate(cfg))
        assert back.q1 == cfg.q1
        assert back.r1 == cfg.r1


def _fixed_members(rep):
    """The reducible and the smooth fixed member of a pencil report, parsed
    back over Q."""
    ring = WRing(("x", "y", "z"), (1, 1, 1), field_from_spec("Q"))
    return tuple(parse_poly(ring, rep.data[key]) for key in ("reducible_member", "smooth_member"))


def test_standard_frame_matrix():
    rep = pencil_report()
    assert rep.data["phi"] == [["0", "0", "1"], ["-1", "0", "1"], ["0", "-1", "1"]]
    assert rep.data["checks"]["cycles_points"]
    assert rep.data["checks"]["phi4_is_identity"]


def test_standard_frame_fixed_members():
    rep = pencil_report()
    reducible, smooth = _fixed_members(rep)
    assert reducible != smooth
    assert rep.data["checks"]["two_distinct_fixed_members"]
    assert rep.data["checks"]["reducible_is_diagonal_lines"]
    # y * (x - z), normalized to leading coefficient 1
    assert reducible == parse_poly(reducible.ring, "x y + -1*y z")


def test_standard_frame_gluing_is_free():
    rep = pencil_report()
    orbits = rep.data["gluing_orbits"]
    assert len(orbits) == 4
    covered = {tuple(pt) for orbit in orbits for pt in orbit}
    assert len(covered) == 8
    assert rep.data["checks"]["iota_free_on_preimages"]


def test_pencil_rejects_collinear_points():
    # with the message of the Fraction oracle
    for pts in ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
                [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        with pytest.raises(ValueError, match="degenerate position") as new:
            pencil_report(pts)
        with pytest.raises(ValueError) as oracle:
            fraction_pencil_report(pts)
        assert str(new.value) == str(oracle.value)


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _line(p, q):
    """The coefficients of the line through p and q."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _conic_of_lines(l, m):
    """The coefficients of l * m on x^2, y^2, z^2, xy, xz, yz."""
    return (l[0] * m[0], l[1] * m[1], l[2] * m[2], l[0] * m[1] + l[1] * m[0],
            l[0] * m[2] + l[2] * m[0], l[1] * m[2] + l[2] * m[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=4, max_size=4))
def test_four_points_no_three_collinear_span_a_pencil(pts):
    # the fact that lets pencil_report check collinearity alone: four such
    # points impose independent conditions on conics, and the line pairs
    # (P1P3)(P2P4) and (P1P2)(P3P4) through them are two distinct conics
    assume(all(_det3(*(p for i, p in enumerate(pts) if i != skip)) for skip in range(4)))
    values = [[x * x, y * y, z * z, x * y, x * z, y * z] for x, y, z in pts]
    assert exact_rank(values, QQ) == 4
    first = _conic_of_lines(_line(pts[0], pts[2]), _line(pts[1], pts[3]))
    second = _conic_of_lines(_line(pts[0], pts[1]), _line(pts[2], pts[3]))
    assert exact_rank([first, second], QQ) == 2
    report = pencil_report(pts)
    assert report.status == "pass"


def _pencil_outcome(report, pts):
    """The canonical JSON of the pencil report on pts, or the message of the
    ValueError that refuses them."""
    try:
        return canonical_json(report(pts).to_dict())
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_pencil_report_matches_the_fraction_oracle():
    # integer projective arithmetic against rational Gauss-Jordan elimination
    # and substitution: the standard frame, the frames of the pinned
    # `cone pencil --points` reports, and 100 seeded general frames in each
    # box [-b, b]^3, with every degenerate frame drawn on the way

    def general(pts):
        outcome = _pencil_outcome(pencil_report, pts)
        assert outcome == _pencil_outcome(fraction_pencil_report, pts), pts
        return not outcome.startswith("ValueError")

    for pts in (STANDARD_FRAME, [(1, 2, 3), (-1, 0, 2), (2, -3, 1), (0, 1, -1)],
                [(3, -1, 2), (1, 1, 1), (-2, 0, 1), (0, 3, -1)]):
        assert general(pts)
    rng = random.Random(20261020)
    degenerate = 0
    for bound in (3, 9, 40):
        drawn = 0
        while drawn < 100:
            ok = general([tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(4)])
            drawn += ok
            degenerate += not ok
    assert degenerate > 0


def test_pencil_report_passes():
    rep = pencil_report()
    assert rep.ok
    assert all(rep.data["checks"].values())


def test_pencil_base_points_on_both_basis_conics():
    # the two fixed members are distinct conics of the pencil, so they are
    # a basis of it; both pass through the four base points
    rep = pencil_report(STANDARD_FRAME)
    field = field_from_spec("Q")
    reducible, smooth = _fixed_members(rep)
    assert reducible != smooth
    for member in (reducible, smooth):
        for pt in STANDARD_FRAME:
            assert member.evaluate([field(x) for x in pt]) == field(0)


def test_pencil_properties_on_random_frames():
    # 100 random frames in general position; the two fixed members are
    # distinct conics through the base points, so they span the pencil
    rng = random.Random(20260819)
    field = field_from_spec("Q")
    frames = []
    while len(frames) < 100:
        pts = [tuple(rng.randrange(-4, 5) for _ in range(3)) for _ in range(4)]
        try:
            frames.append((pts, pencil_report(pts)))
        except ValueError:
            continue
    for pts, rep in frames:
        assert rep.status == "pass", rep.witness
        assert all(rep.data["checks"].values())
        reducible, smooth = _fixed_members(rep)
        assert reducible != smooth
        for member in (reducible, smooth):
            for pt in pts:
                assert member.evaluate([field(x) for x in pt]) == field(0)


def test_gluing_is_read_off_phi(monkeypatch):
    import godeaux.cone as cone

    # the second (target) frame becomes (P4, P1, P2; P3), so phi sends P_i
    # to P_{i-1}: the gluing must follow phi, not the labelling
    frame_matrix = cone._frame_matrix
    calls = []

    def reversed_target(*frame):
        calls.append(frame)
        if len(calls) == 2:
            p1, p2, p3, p4 = calls[0]
            return frame_matrix(p4, p1, p2, p3)
        return frame_matrix(*frame)

    monkeypatch.setattr(cone, "_frame_matrix", reversed_target)
    rep = pencil_report()
    assert len(calls) == 2
    assert rep.data["gluing_orbits"] == [[[0, i], [1, (i - 1) % 4]] for i in range(4)]
    assert rep.data["checks"]["cycles_points"] is False
    assert rep.data["checks"]["iota_free_on_preimages"] is True
    assert rep.status == "fail"
    assert rep.witness == {"check": "cycles_points"}
