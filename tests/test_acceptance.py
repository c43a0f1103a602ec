"""Acceptance gate: one test per shipped guarantee, each with its stated
tolerance and budget.  Every check here is exact integer or rational
arithmetic; the only tolerances are wall-clock budgets on the two heavy
criteria.  Run with -s to see one [PASS] line per criterion.
"""

import random
import time
from itertools import product

from godeaux.abelian import FinAbGroup, is_two_divisible
from godeaux.cli import main
from godeaux.cone import (
    STANDARD_FRAME,
    cone_setup,
    default_branch_config,
    intersection_count,
    pencil_report,
    tau_fixed_points,
    verify_invariant_map,
)
from godeaux.covers import (
    DivClass,
    LiftSpec,
    PicardModel,
    bidouble_invariants,
    classify_lift,
    dihedral_witness,
    double_invariants,
    enriques_double_data,
    even_node_set,
    f2_bidouble_data,
    free_quotient_invariants,
    preset_model,
)
from godeaux.family import (
    allowed_support,
    build_family,
    canonical_action,
    canonical_ring,
    random_params,
    sigma_table,
)
from godeaux.grouprep import eigenspace_basis, sigma_type
from godeaux.scalars import field_from_spec
from godeaux.wpoly import WRing, monomial_to_str, parse_poly

# frozen independently of the package's own reference constant; rows are
# the unordered eigenspace-dimension pairs for twist degrees 1, 2, 4
EXPECTED_ROWS = {
    (1, 0): (0, 0), (1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0),
    (2, 0): (2, 0), (2, 1): (1, 1), (2, 2): (2, 0), (2, 3): (1, 1),
    (4, 0): (5, 2), (4, 1): (4, 3), (4, 2): (5, 2), (4, 3): (4, 3),
}


def _ok(line):
    print(f"[PASS] {line}")


def _matches_rows(fam):
    for lift in (fam.sigma, fam.sigma_g2):
        table = sigma_table(fam, lift)
        if all(table[key].unordered() == row for key, row in EXPECTED_ROWS.items()):
            return True
    return False


def test_criterion_1_sigma_table_rows_for_any_coefficients():
    t0 = time.perf_counter()
    fam = build_family(random_params("Q", seed=0))
    assert _matches_rows(fam)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"single-family table took {elapsed:.2f}s"
    # coefficient independence: fresh draws over Q and a prime field
    for seed in (1, 2, 3):
        assert _matches_rows(build_family(random_params("Q", seed=seed)))
    assert _matches_rows(build_family(random_params(13, seed=4)))
    _ok(f"criterion 1: sigma table rows exact for 5 families ({elapsed:.3f}s first)")


def test_criterion_2_monomial_supports_and_enforcement():
    ring = canonical_ring()
    full0 = set(allowed_support(ring, 0, False))
    full2 = set(allowed_support(ring, 2, False))
    assert len(full0) == len(full2) == 8
    dropped0 = full0 - set(allowed_support(ring, 0, True))
    dropped2 = full2 - set(allowed_support(ring, 2, True))
    assert {monomial_to_str(ring, e) for e in dropped0} == {"x1 x2 y1", "x2 x3 y3"}
    assert {monomial_to_str(ring, e) for e in dropped2} == {"x2 x3 y1", "x1 x2 y3"}
    _ok("criterion 2: 8+8 monomials, enforcement drops exactly 2+2")


def test_criterion_3_dimension_bookkeeping():
    fam = build_family(random_params("Q", seed=0))
    types = [sigma_type(fam.action, fam.sigma, 4, c, [fam.q0, fam.q2]) for c in range(4)]
    per_char = [st.plus + st.minus for st in types]
    assert per_char == [7, 7, 7, 7]
    assert 7 == 1 + 4 * 3 // 2
    assert sum(per_char) == 28
    action = canonical_action(canonical_ring())
    census = [len(eigenspace_basis(action, 4, c)) for c in range(4)]
    assert census == [8, 7, 8, 7]
    assert sum(census) == 30
    _ok("criterion 3: degree-4 dimensions 28 = 4x7, pre-quotient 30 = 8/7/8/7")


def test_criterion_4_smooth_and_free_certificates():
    t0 = time.perf_counter()
    code = main(["verify", "--prime", "13", "--draws", "20", "--seed", "0",
                 "--retry-budget", "3"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 60.0, f"20 draws took {elapsed:.1f}s"
    _ok(f"criterion 4: 20 draws quasi-smooth + free + fixed locus ({elapsed:.1f}s)")


def test_criterion_5_cover_invariants():
    chi, ksq = double_invariants(enriques_double_data(), 1)
    assert (chi, ksq) == (1, -4)
    assert ksq + 5 == 1
    chi0, ksq0 = bidouble_invariants(f2_bidouble_data(), 1)
    assert (chi0, ksq0) == (2, 0)
    assert ksq0 + 2 == 2
    assert free_quotient_invariants(chi0, ksq0 + 2) == (1, 1)
    _ok("criterion 5: double cover (1,-4)+5 -> 1; bidouble chi 2, 0 -> 2")


def _subgroup(group, generators):
    closure = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        cur = frontier.pop()
        for s in generators:
            nxt = group.add(cur, s)
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return closure


def _exhaustive_two_divisible(group, g, modulo):
    sub = _subgroup(group, [group.reduce(s) for s in modulo])
    target = group.reduce(g)
    for h in product(*(range(d) for d in group.invariant_factors)):
        if group.add(target, group.neg(group.scale(2, h))) in sub:
            return True
    return False


def _random_group(rng):
    while True:
        facs = []
        d = rng.randint(2, 8)
        for _ in range(rng.randint(1, 3)):
            facs.append(d)
            d *= rng.randint(1, 3)
        group = FinAbGroup(tuple(facs))
        if group.order <= 64:
            return group


def test_criterion_6_divisibility_lemma_suite():
    rng = random.Random(20260819)
    for trial in range(500):
        group = _random_group(rng)
        g = [rng.randrange(d) for d in group.invariant_factors]
        modulo = []
        for _ in range(rng.randint(0, 2)):
            modulo.append([rng.randrange(d) for d in group.invariant_factors])
        verdict, half = is_two_divisible(group, g, modulo)
        assert verdict == _exhaustive_two_divisible(group, g, modulo), (
            f"trial {trial}: {group.invariant_factors} g={g} modulo={modulo}"
        )
        if verdict:
            diff = group.add(group.reduce(g), group.neg(group.scale(2, half)))
            assert diff in _subgroup(group, [group.reduce(s) for s in modulo])

    # the pullback is even iff the Galois group is the split Z2 x Zd, and
    # for odd d the cyclic candidate is that same group
    for d in (2, 3, 4, 6):
        labels = classify_lift(LiftSpec("double", rho_order=d))
        assert len(labels) == (1 if d % 2 else 2)

    even8 = preset_model("even8")
    nodes = [even8.named(f"C{i}") for i in range(1, 9)]
    passing_sizes = set()
    for mask in range(1, 256):
        subset = [c for i, c in enumerate(nodes) if mask >> i & 1]
        report = even_node_set(even8, subset)
        if report.status == "pass":
            passing_sizes.add(len(subset))
    assert passing_sizes == {8}
    # a 2-divisible pair in an odd lattice is flagged, not passed
    odd = PicardModel(((-2, -1), (-1, -1)), FinAbGroup(()), (0, 0), ())
    flagged = even_node_set(odd, [DivClass(odd, (1, 0)), DivClass(odd, (1, -2))])
    assert flagged.status == "error"
    _ok("criterion 6: 500 divisibility trials, d-parity verdicts, k = 0 mod 4")


def test_criterion_7_quadric_cone_geometry():
    setup = cone_setup()
    report = verify_invariant_map(setup)
    assert report.status == "pass"
    assert report.data["checks"]["remainder_mod_cone_is_zero"] is True
    fixed = tau_fixed_points(setup)
    assert fixed.status == "pass"
    assert len(fixed.data["points"]) == 3
    assert fixed.data["vertex"] == [0, 0, 0, 1]
    lattice = intersection_count(default_branch_config("general"))
    assert lattice.data["lattice_count"] == 8
    _ok("criterion 7: invariant map exact, 3 fixed points with vertex, B1.B2 = 8")


def test_criterion_8_standard_frame_pencil():
    rep = pencil_report()
    checks = rep.data["checks"]
    assert checks["phi4_is_identity"]
    assert checks["cycles_points"]
    ring = WRing(("x", "y", "z"), (1, 1, 1), field_from_spec("Q"))
    reducible = parse_poly(ring, rep.data["reducible_member"])
    smooth = parse_poly(ring, rep.data["smooth_member"])
    assert reducible != smooth
    # reducible member must be the product of the two diagonal lines,
    # recomputed here from cross products of the frame points
    p1, p2, p3, p4 = STANDARD_FRAME
    line13 = _cross(p1, p3)
    line24 = _cross(p2, p4)
    product = _line_poly(ring, line13) * _line_poly(ring, line24)
    assert _proportional(reducible, product)
    assert checks["reducible_is_diagonal_lines"]
    labels = {(sheet, i) for sheet in (0, 1) for i in range(4)}
    orbits = [tuple(map(tuple, orbit)) for orbit in rep.data["gluing_orbits"]]
    seen = [label for orbit in orbits for label in orbit]
    assert len(orbits) == 4
    assert all(len(orbit) == 2 and orbit[0] != orbit[1] for orbit in orbits)
    assert set(seen) == labels and len(seen) == 8
    assert checks["iota_free_on_preimages"]
    _ok("criterion 8: phi^4 = id, 2 fixed members, diagonal-line product, free gluing")


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _line_poly(ring, coeffs):
    parts = [f"{c}*{v}" for c, v in zip(coeffs, ring.names) if c != 0]
    return parse_poly(ring, " + ".join(parts))


def _proportional(f, g):
    if set(f.terms) != set(g.terms) or not f.terms:
        return False
    ratios = {c / g.terms[e] for e, c in f.terms.items()}
    return len(ratios) == 1


def test_criterion_9_lifting_census():
    assert classify_lift(LiftSpec(case="b")) == frozenset({"D4"})
    assert classify_lift(LiftSpec(case="a")) == frozenset({"Z2^3", "Z4xZ2"})
    witness = dihedral_witness()
    assert witness["label"] == "D4"
    assert witness["rho_squared_is_g3"] is True
    assert witness["g1_rho_order"] == 2
    _ok("criterion 9: case (b) -> D4, case (a) -> {Z2^3, Z4xZ2}, table checks out")
