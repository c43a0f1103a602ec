"""Construction, validation, and symmetry bookkeeping of the quartic family."""

import pytest

from godeaux.family import (
    ACTION_EXPONENTS,
    REFERENCE_SIGMA_TABLE,
    SIGMA_G2_SIGNS,
    SIGMA_SIGNS,
    TORSION_ORDER,
    WEIGHTS,
    FamilyParams,
    allowed_support,
    build_family,
    canonical_action,
    canonical_lifts,
    canonical_ring,
    match_reference_table,
    params_from_config,
    random_params,
    render_sigma_tables,
    sigma_table,
    sigma_tables,
)
from godeaux.groups import abelian_label, classify_order8, generated_group
from godeaux.grouprep import CyclicAction, eigenspace_basis, sigma_type
from godeaux.reports import CheckReport
from godeaux.scalars import PrimeField, scalar_to_str
from godeaux.wpoly import apply_map, monomial_to_str


def all_ones_params(field_spec="Q", enforce=True):
    ring = canonical_ring()
    q0 = {monomial_to_str(ring, e): 1 for e in allowed_support(ring, 0, enforce)}
    q2 = {monomial_to_str(ring, e): 1 for e in allowed_support(ring, 2, enforce)}
    return FamilyParams(field_spec=field_spec, q0=q0, q2=q2,
                        enforce_involution=enforce)


def test_allowed_support_sizes():
    ring = canonical_ring()
    assert len(allowed_support(ring, 0, False)) == 8
    assert len(allowed_support(ring, 2, False)) == 8
    assert len(allowed_support(ring, 0, True)) == 6
    assert len(allowed_support(ring, 2, True)) == 6


def test_enforcement_drops_the_mixed_monomials():
    ring = canonical_ring()
    dropped0 = set(allowed_support(ring, 0, False)) - set(allowed_support(ring, 0, True))
    dropped2 = set(allowed_support(ring, 2, False)) - set(allowed_support(ring, 2, True))
    assert {monomial_to_str(ring, e) for e in dropped0} == {"x1 x2 y1", "x2 x3 y3"}
    assert {monomial_to_str(ring, e) for e in dropped2} == {"x2 x3 y1", "x1 x2 y3"}


def fixed_components(k):
    """The components of the fixed locus of g^k over the closure, each as
    the maximal set F of coordinates on which the coordinate subspace is
    fixed.  g^k multiplies x_v by zeta^(2k a_v), zeta a primitive 8th root
    of unity, and rescaling by zeta^j multiplies it by zeta^(j w_v): a point
    with support F is fixed iff some j in Z/8 has j w_v = 2k a_v mod 8 for
    every v in F."""
    n, order = len(WEIGHTS), 2 * TORSION_ORDER
    fixed = {frozenset(v for v in range(n)
                       if (j * WEIGHTS[v] - 2 * k * ACTION_EXPONENTS[v]) % order == 0)
             for j in range(order)} - {frozenset()}
    return sorted((f for f in fixed if not any(f < other for other in fixed)), key=sorted)


def jacobian_columns(support, component):
    """The coordinates u whose partial of a quartic with this support can be
    nonzero on the component: the partial of x_u m in x_u is nonzero there
    only when m is a monomial in the component's coordinates alone."""
    return {u for e in support for u, eu in enumerate(e)
            if eu and all(v in component for v, ev in enumerate(e) if ev - (v == u) > 0)}


def lemma_fails(supports, component):
    """Whether the supports leave room for Jacobian rank 2 at a surface point
    of the component.  With the Euler relation, J(P) (w_v x_v) = 4 (q0(P),
    q2(P)) = 0 at a point P of X, rank J(P) <= 1 when no entry of J lies
    off the coordinates of a line, and, at a coordinate point e_u, where the
    relation kills column u, when at most one row has an entry off it."""
    rows = [jacobian_columns(support, component) for support in supports]
    if len(component) == 2:
        return any(row - component for row in rows)
    (u,) = component
    return sum(bool(row - {u}) for row in rows) > 1


def test_group_elements_fix_only_singular_points_of_the_surface():
    # ROADMAP item 1's lemma, proved from the allowed supports: a surface
    # point fixed by g, g^2 or g^3 is singular, in every characteristic but 2
    ring = canonical_ring()
    point = [frozenset({v}) for v in range(5)]
    assert fixed_components(1) == fixed_components(3) == point
    # the lines {x1, x3} and {y1, y3} and the point e2
    assert fixed_components(2) == [frozenset({0, 2}), frozenset({1}), frozenset({3, 4})]
    for enforce in (True, False):
        supports = [allowed_support(ring, char, enforce) for char in (0, 2)]
        for k in (1, 2, 3):
            assert not [f for f in fixed_components(k) if lemma_fails(supports, f)]
    # x1 x3 y1, of character 1, in q0: its partial in y1 is x1 x3, which
    # lives on the g^2 line {x2 = y1 = y3 = 0}
    q0 = allowed_support(ring, 0, False) + ((1, 0, 1, 1, 0),)
    supports = [q0, allowed_support(ring, 2, False)]
    assert [(k, f) for k in (1, 2, 3) for f in fixed_components(k)
            if lemma_fails(supports, f)] == [(2, frozenset({0, 2}))]


def test_build_family_accepts_all_ones():
    fam = build_family(all_ones_params())
    assert fam.q0.degree() == 4
    assert fam.q2.degree() == 4
    assert len(fam.q0.terms) == 6
    assert len(fam.q2.terms) == 6


def test_build_family_rejects_bad_monomials():
    params = FamilyParams(q0={"x1^4": 1, "y1^2": 1}, q2={"y1^2": 1})
    with pytest.raises(ValueError, match="character-0"):
        build_family(params)


def test_build_family_rejects_odd_monomials_when_enforced():
    params = FamilyParams(q0={"x1^4": 1, "x1 x2 y1": 1}, q2={"y1^2": 1})
    with pytest.raises(ValueError, match="odd under an"):
        build_family(params)
    relaxed = FamilyParams(
        q0={"x1^4": 1, "x1 x2 y1": 1},
        q2={"y1^2": 1, "y3^2": -1},
        enforce_involution=False,
    )
    fam = build_family(relaxed)
    assert len(fam.q0.terms) == 2


def test_build_family_rejects_zero_and_empty():
    with pytest.raises(ValueError, match="zero coefficient"):
        build_family(FamilyParams(q0={"x1^4": 0}, q2={"y1^2": 1}))
    with pytest.raises(ValueError, match="must be nonzero"):
        build_family(FamilyParams(q0={}, q2={"y1^2": 1}))


def test_build_family_rejects_duplicate_monomial_spellings():
    params = FamilyParams(q0={"x1 x2^2 x3": 1, "x3 x2^2 x1": 2}, q2={"y1^2": 1})
    with pytest.raises(ValueError, match="duplicate"):
        build_family(params)


def test_prime_field_must_be_1_mod_4():
    with pytest.raises(ValueError, match="1 mod 4"):
        build_family(all_ones_params(field_spec=7))
    fam = build_family(all_ones_params(field_spec=13))
    assert fam.field.p == 13


def test_random_params_deterministic_and_buildable():
    p1 = random_params("Q", seed=11)
    p2 = random_params("Q", seed=11)
    p3 = random_params("Q", seed=12)
    assert p1 == p2
    assert p1 != p3
    fam = build_family(p1)
    assert len(fam.q0.terms) == 6
    fam13 = build_family(random_params(13, seed=5))
    assert fam13.field.p == 13


def verify_equivariance(fam):
    """Report how the quartics transform under the full symmetry: a
    test-only oracle for the invariants that build_family's support rule
    guarantees.

    The generator is applied by substitution over fields containing i and
    checked at character level otherwise (equivalent for diagonal actions);
    both involution lifts are applied by substitution over every field.
    A family kept with enforce_involution off may carry lift-odd monomials;
    that is reported as a failure with the first offending monomial as
    witness, not raised, since such members are legitimate degenerations.
    """
    notes = []
    witness = None
    status = "pass"
    ring = fam.ring

    for q, name, wanted in ((fam.q0, "q0", 0), (fam.q2, "q2", 2)):
        for e in q.monomials():
            if fam.action.character_of_monomial(e) != wanted:
                status = "fail"
                witness = witness or {
                    "kind": "character", "poly": name,
                    "monomial": monomial_to_str(ring, e),
                }
    if isinstance(fam.field, PrimeField):
        i = fam.field.sqrt_minus_one()
        g_map = fam.action.as_monomial_map(i)
        g_ok = (
            apply_map(fam.q0, g_map) == fam.q0
            and apply_map(fam.q2, g_map) == (i * i) * fam.q2
        )
        if not g_ok:
            status = "fail"
            witness = witness or {"kind": "generator-substitution"}
        notes.append(f"generator applied by substitution with i = {i}")
    else:
        notes.append("generator verified at character level over Q")

    for label, lift in fam.lifts().items():
        m = lift.rational_realization()
        for q, name in ((fam.q0, "q0"), (fam.q2, "q2")):
            if apply_map(q, m) != q:
                status = "fail"
                bad = next(
                    monomial_to_str(ring, e)
                    for e in q.monomials()
                    if lift.character_of_monomial(e) == 1
                )
                witness = witness or {
                    "kind": "lift-invariance", "lift": label,
                    "poly": name, "monomial": bad,
                }
    if not fam.params.enforce_involution:
        notes.append("enforce_involution is off; lift-odd monomials allowed")
    prime = fam.field.p if isinstance(fam.field, PrimeField) else None
    return CheckReport(
        check="equivariance", status=status, prime=prime,
        witness=witness, notes=tuple(notes),
    )


def test_equivariance_verified_over_prime_field():
    fam = build_family(all_ones_params(field_spec=13))
    report = verify_equivariance(fam)
    assert report.status == "pass"
    assert report.prime == 13
    assert any("i = 5" in n for n in report.notes)
    fam42 = build_family(random_params(13, seed=42))
    assert verify_equivariance(fam42).status == "pass"


def test_equivariance_flags_reenabled_odd_monomial():
    params = FamilyParams(
        q0={"x1^4": 1, "x2^4": 1, "x1 x2 y1": 1},
        q2={"y1^2": 1, "y3^2": 1},
        enforce_involution=False,
    )
    report = verify_equivariance(build_family(params))
    assert report.status == "fail"
    assert report.witness["monomial"] == "x1 x2 y1"
    assert report.witness["lift"] == "sigma"


def test_params_config_round_trip():
    params = random_params(13, seed=42)
    config = {
        "field": 13,
        "q0": {k: scalar_to_str(v) for k, v in params.q0.items()},
        "q2": {k: scalar_to_str(v) for k, v in params.q2.items()},
    }
    rebuilt = params_from_config(config)
    fam_a = build_family(params)
    fam_b = build_family(rebuilt)
    assert fam_a.q0 == fam_b.q0 and fam_a.q2 == fam_b.q2
    seeded = params_from_config({"field": 13, "seed": 42})
    assert build_family(seeded).q0 == fam_a.q0
    with pytest.raises(ValueError, match="unknown config"):
        params_from_config({"field": 13, "seed": 1, "extra": True})
    with pytest.raises(ValueError, match="not both"):
        params_from_config({"seed": 1, "q0": {}, "q2": {}})
    with pytest.raises(ValueError, match="needs a seed"):
        params_from_config({"q0": {"x1^4": 1}})


def _canonical_twist(exponents, n):
    """Representative of an exponent vector modulo the scaling subgroup
    generated by the weight vector (all in Z/n)."""
    return min(tuple((e + t * w) % n for e, w in zip(exponents, WEIGHTS)) for t in range(n))


def _lift_exponents(lift, n):
    return tuple(e * (n // lift.order) for e in lift.exponents)


def torsion_group_census(fam):
    """Abstract isomorphism types of the symmetry groups acting on the
    family, computed on exponent vectors modulo coordinate scalings."""
    n = fam.action.order
    g = _canonical_twist(fam.action.exponents, n)
    s = _canonical_twist(_lift_exponents(fam.sigma, n), n)
    s_alt = _canonical_twist(_lift_exponents(fam.sigma_g2, n), n)
    identity = _canonical_twist((0,) * len(WEIGHTS), n)

    def compose(a, b):
        return _canonical_twist(tuple((x + y) % n for x, y in zip(a, b)), n)

    def label_of(generators):
        group, _ = generated_group(list(generators), compose, identity)
        if group.order == 8:
            return classify_order8(group)
        assert group.is_abelian(), "unexpected nonabelian small symmetry group"
        return abelian_label(group)

    census = {
        "generator": label_of([g]),
        "lift": label_of([s]),
        "joint": label_of([g, s]),
    }
    assert label_of([g, s_alt]) == census["joint"], "the lifts generate different joint groups"
    return census


def test_torsion_group_census():
    fam = build_family(all_ones_params())
    assert torsion_group_census(fam) == {
        "generator": "Z4",
        "lift": "Z2",
        "joint": "Z4xZ2",
    }


def test_projective_identity_is_trivial():
    # the scaling (-1,-1,-1,1,1) is the identity on the quotient space, so
    # its exponent vector canonicalizes to the identity's
    n = build_family(all_ones_params()).action.order
    e = tuple(n // 2 if w % 2 else 0 for w in WEIGHTS)
    assert _canonical_twist(e, n) == _canonical_twist((0,) * len(WEIGHTS), n)


def test_degree4_character_census():
    action = canonical_action(canonical_ring())
    assert [len(eigenspace_basis(action, 4, c)) for c in range(4)] == [8, 7, 8, 7]


def quotient_dimension(fam, d, c):
    """dim of the (degree d, character c) piece of the ring modulo q0, q2."""
    st = sigma_type(fam.action, fam.sigma, d, c, [fam.q0, fam.q2])
    return st.plus + st.minus


def test_quotient_dimensions():
    fam = build_family(all_ones_params())
    dims4 = [quotient_dimension(fam, 4, c) for c in range(4)]
    assert dims4 == [7, 7, 7, 7]
    assert sum(dims4) == 28
    assert [quotient_dimension(fam, 2, c) for c in range(4)] == [2, 2, 2, 2]
    assert [quotient_dimension(fam, 1, c) for c in range(4)] == [0, 1, 1, 1]


def test_quotient_dimensions_random_coefficients():
    for seed in range(5):
        fam = build_family(random_params("Q", seed=seed))
        assert [quotient_dimension(fam, 4, c) for c in range(4)] == [7, 7, 7, 7]


def test_quotient_dimension_formula_above_base_degree():
    # h0(mK) per character should follow 1 + m(m-1)/2 once m >= 2
    fam = build_family(all_ones_params())
    for m in (2, 3, 4, 5, 6):
        expected = 1 + m * (m - 1) // 2
        dims = [quotient_dimension(fam, m, c) for c in range(4)]
        assert dims == [expected] * 4, f"m={m}: {dims}"


def _realizations(fam):
    """The four sign realizations of the involution as order-2 actions: the
    two lifts, each also twisted by the scaling -1, which acts by (-1)^weight
    on each coordinate."""
    ring = fam.ring

    def twist(lift, exponents):
        return CyclicAction(ring, 2, tuple(a + b for a, b in zip(lift.exponents, exponents)))

    scaling = tuple(w % 2 for w in ring.weights)
    v1 = fam.sigma
    v2 = twist(v1, scaling)
    v3 = fam.sigma_g2
    v4 = twist(v3, scaling)
    assert v1.exponents == SIGMA_SIGNS
    assert v3.exponents == SIGMA_G2_SIGNS
    assert v4.exponents == (1, 1, 1, 1, 1)
    return {"v1": v1, "v2": v2, "v3": v3, "v4": v4}


def test_reference_table_matches_unordered_for_every_realization():
    fam = build_family(all_ones_params())
    for name, lift in _realizations(fam).items():
        result = match_reference_table(sigma_table(fam, lift))
        assert result["unordered_match"], (name, result["unordered_mismatches"])


def test_reference_table_matches_no_realization_as_ordered():
    # frozen finding: each sign realization disagrees with the reference in
    # specific cells when the pairs are read as ordered (plus, minus)
    fam = build_family(all_ones_params())
    expected_mismatch_cells = {
        "v1": {(1, 1), (1, 3)},
        "v2": {(1, 2)},
        "v3": {(4, 1), (4, 3)},
        "v4": {(1, 1), (1, 2), (1, 3), (4, 1), (4, 3)},
    }
    for name, lift in _realizations(fam).items():
        result = match_reference_table(sigma_table(fam, lift))
        assert not result["ordered_match"], name
        cells = {m["cell"] for m in result["ordered_mismatches"]}
        assert cells == expected_mismatch_cells[name], (name, cells)


def test_sigma_table_values_for_primary_lift():
    fam = build_family(all_ones_params())
    table = sigma_table(fam, fam.sigma)
    assert (table[(4, 0)].plus, table[(4, 0)].minus) == (5, 2)
    assert (table[(4, 2)].plus, table[(4, 2)].minus) == (5, 2)
    assert table[(4, 1)].unordered() == (4, 3)
    assert table[(4, 3)].unordered() == (4, 3)
    assert (table[(2, 0)].plus, table[(2, 0)].minus) == (2, 0)
    for key, expected in REFERENCE_SIGMA_TABLE.items():
        assert table[key].unordered() == tuple(sorted(expected, reverse=True))


def test_table_is_coefficient_independent():
    t_ref = sigma_table(build_family(all_ones_params()), canonical_lifts(canonical_ring())[0])
    for seed in (3, 4):
        fam = build_family(random_params("Q", seed=seed))
        assert sigma_table(fam, fam.sigma) == t_ref


def test_render_sigma_tables():
    fam = build_family(all_ones_params())
    text = render_sigma_tables(sigma_tables(fam))
    assert "m=4" in text
    assert "{5,2}" in text
    assert "unordered=True" in text
    assert "ordered=False" in text


def test_constants_are_consistent():
    ring = canonical_ring()
    action = canonical_action(ring)
    sigma, sigma_g2 = canonical_lifts(ring)
    assert action.exponents == ACTION_EXPONENTS
    # sigma g^2 = sigma * g^2: g^2 has exponents in {0, 2} mod 4, so it is
    # an order-2 action with the halved exponents
    g2 = tuple(e // 2 for e in action.power(2).exponents)
    assert CyclicAction(ring, 2, tuple(a + b for a, b in zip(sigma.exponents, g2))) == sigma_g2
    assert (sigma.order, sigma_g2.order) == (2, 2)


def test_printed_names_are_read_without_the_parser(monkeypatch):
    # random_params writes the memoized printed names of the support, in its
    # order, and build_family reads them back without parse_monomial; any
    # other spelling is parsed, to the same polynomial and the same errors
    import godeaux.family as family

    parsed = []
    original = family.parse_monomial

    def counting(ring, text):
        parsed.append(text)
        return original(ring, text)

    monkeypatch.setattr(family, "parse_monomial", counting)
    ring = canonical_ring(PrimeField(13))
    for enforce in (True, False):
        params = random_params(13, seed=5, enforce_involution=enforce)
        for char, block in zip((0, 2), (params.q0, params.q2)):
            names = family._support_names(ring, char, enforce)
            assert family._support_names(ring, char, enforce) is names
            assert list(names) == list(block)
            assert list(names.values()) == list(allowed_support(ring, char, enforce))
            assert list(names) == [monomial_to_str(ring, e) for e in names.values()]
            with pytest.raises(TypeError):
                names["x1^4"] = (4, 0, 0, 0, 0)
        fam = build_family(params)
        assert parsed == []
        reversed_params = FamilyParams(
            field_spec=13, enforce_involution=enforce,
            q0={" ".join(reversed(k.split())): v for k, v in params.q0.items()},
            q2={" ".join(reversed(k.split())): v for k, v in params.q2.items()})
        respelled = build_family(reversed_params)
        assert (respelled.q0, respelled.q2) == (fam.q0, fam.q2)
        keys = list(reversed_params.q0) + list(reversed_params.q2)
        assert parsed == [k for k in keys if " " in k]
        parsed.clear()
    with pytest.raises(ValueError, match="odd under an"):
        build_family(FamilyParams(q0={"y1 x2 x1": 1}, q2={"y1^2": 1}))
    with pytest.raises(ValueError, match="character-0"):
        build_family(FamilyParams(q0={"x1^4": 1, "y1^2": 1}, q2={"y1^2": 1}))
