"""Cover-calculus tests.

Divisibility verdicts are cross-checked against an independent oracle that
works in the mod-2 quotient of the class group by span enumeration, a
different algorithm from the Smith-form solver under test.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux.abelian import FinAbGroup, parse_group_label, subgroup_span
from godeaux.covers import (
    BidoubleData,
    DivClass,
    DoubleData,
    LiftSpec,
    PicardModel,
    bidouble_invariants,
    case_a_witnesses,
    classify_lift,
    dihedral_witness,
    double_invariants,
    enriques_arithmetic,
    enriques_double_data,
    even_node_set,
    f2_bidouble_data,
    free_quotient_invariants,
    preset_model,
    validate,
)
from godeaux.groups import abelian_label


def mod2_divisibility_oracle(model, cls, modulo=()):
    """Evenness via the quotient Λ/2Λ, enumerated with subgroup_span.

    cls is 2-divisible mod span(modulo) iff its image in Λ/2Λ lies in the
    image of the modulo generators; free coordinates and even torsion
    factors survive mod 2, odd torsion factors die.
    """
    keep = [i for i, d in enumerate(model.torsion.invariant_factors) if d % 2 == 0]
    quo = FinAbGroup((2,) * (model.rank + len(keep)))

    def image(c):
        return quo.reduce(list(c.free) + [c.torsion[i] for i in keep])

    span = subgroup_span(quo, [image(m) for m in modulo]) if modulo else {quo.zero()}
    return image(cls) in span


# --- models and classes ----------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        PicardModel(((0, 1), (2, 0)), FinAbGroup(()), (0, 0), ())
    with pytest.raises(ValueError, match="not square"):
        PicardModel(((0, 1),), FinAbGroup(()), (0,), ())
    with pytest.raises(ValueError, match="odd square"):
        PicardModel(((1,),), FinAbGroup(()), (0,), (), even_lattice=True)
    with pytest.raises(ValueError, match="wrong free rank"):
        PicardModel(((2,),), FinAbGroup(()), (0, 0), ())


def test_class_arithmetic():
    m = preset_model("f2")
    gamma, f = m.named("Gamma"), m.named("f")
    assert gamma.square() == -2
    assert f.square() == 0
    assert gamma.dot(f) == 1
    assert (2 * gamma + 3 * f).dot(f) == 2
    assert (gamma - gamma).is_zero()
    assert m.K.dot(m.K) == 8
    with pytest.raises(ValueError, match="different Picard models"):
        gamma.dot(preset_model("p2").named("H"))


def test_torsion_arithmetic():
    m = preset_model("enriques")
    K = m.named("K")
    assert not K.is_zero()
    assert (K + K).is_zero()
    assert (2 * K).is_zero()
    assert K.square() == 0


def test_named_class_lookup():
    m = preset_model("p2")
    assert m.named("H").effective
    with pytest.raises(KeyError, match="no class named"):
        m.named("nope")


def test_effectivity_tag():
    m = preset_model("p2")
    h = m.named("H")
    assert not (h + h).effective
    assert (h + h).as_effective().effective


# --- building-data validation ----------------------------------------------


def test_enriques_double_data_valid():
    data = enriques_double_data()
    report = validate(data)
    assert report.status == "pass"
    assert data.L.square() == -2


def test_f2_bidouble_valid():
    data = f2_bidouble_data()
    report = validate(data)
    assert report.status == "pass"
    assert report.data["relations_checked"] == 6
    assert data.L3 == data.model.named("L3")


def test_double_data_rejected():
    m = preset_model("p2")
    h = m.named("H")
    data = DoubleData(L=h, B=(3 * h).as_effective())
    report = validate(data)
    assert report.status == "fail"
    assert report.witness["relation"] == "2L = B"
    assert report.witness["difference"] == "(-1)"


def test_branch_needs_effectivity_tag():
    m = preset_model("p2")
    h = m.named("H")
    with pytest.raises(ValueError, match="claimed-effective"):
        DoubleData(L=h, B=2 * h)


def test_bidouble_relation_failure_witness():
    m = preset_model("f2")
    data = BidoubleData(
        L1=m.named("L1"),
        L2=m.named("L2"),
        B1=m.named("B1"),
        B2=(m.named("B2") + m.named("f")).as_effective(),
        B3=m.named("B3"),
    )
    report = validate(data)
    assert report.status == "fail"
    assert report.witness["relation"] == "2L1 = B2+B3"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_redrel_implies_fundrel(data):
    """Random valid reduced relations always satisfy the full set."""
    m = preset_model("f2")
    rnd = st.integers(min_value=-4, max_value=4)

    def cls():
        return DivClass(m, (data.draw(rnd), data.draw(rnd)))

    L1, L2, B3 = cls(), cls(), cls()
    bid = BidoubleData(
        L1=L1,
        L2=L2,
        B1=(2 * L2 - B3).as_effective(),
        B2=(2 * L1 - B3).as_effective(),
        B3=B3.as_effective(),
    )
    report = validate(bid)
    assert report.status == "pass"
    assert bid.L3 == L1 + L2 - B3


# --- numerical invariants ---------------------------------------------------


def test_enriques_cover_invariants():
    chi, ksq = double_invariants(enriques_double_data(), 1)
    assert (chi, ksq) == (1, -4)
    # contracting the five (-1)-curves over the nodes gains 1 each
    assert ksq + 5 == 1


def test_trivial_double_cover():
    m = preset_model("p2")
    data = DoubleData(L=m.zero(), B=m.zero().as_effective())
    # an unramified-style degenerate input doubles chi; K^2 = 2K^2
    assert double_invariants(data, 1) == (2, 18)


def test_double_plane_hand_values():
    # hand computation: quartic branch, L = 2H gives (chi, K^2) = (1, 2);
    # sextic branch, L = 3H gives the K3 values (2, 0)
    m = preset_model("p2")
    h = m.named("H")
    quartic = DoubleData(L=2 * h, B=(4 * h).as_effective())
    sextic = DoubleData(L=3 * h, B=(6 * h).as_effective())
    assert double_invariants(quartic, 1) == (1, 2)
    assert double_invariants(sextic, 1) == (2, 0)


def test_double_invariants_require_valid_data():
    m = preset_model("p2")
    h = m.named("H")
    bad = DoubleData(L=h, B=(3 * h).as_effective())
    with pytest.raises(ValueError, match="invalid building data"):
        double_invariants(bad, 1)


def test_non_integral_chi_is_an_error():
    # rank-1 lattice with square 1 and K = 0: L(L+K) = 1 is odd
    m = PicardModel(((1,),), FinAbGroup(()), (0,), ())
    data = DoubleData(L=DivClass(m, (1,)), B=DivClass(m, (2,)).as_effective())
    with pytest.raises(ValueError, match="odd"):
        double_invariants(data, 1)


def test_f2_bidouble_invariants():
    chi, ksq = bidouble_invariants(f2_bidouble_data(), 1)
    assert (chi, ksq) == (2, 0)
    # two (-1)-curves over the section get contracted
    assert ksq + 2 == 2
    # a free involution on the cover halves both invariants
    assert free_quotient_invariants(chi, ksq + 2) == (1, 1)


def test_all_zero_bidouble_quadruples():
    m = preset_model("p2")
    z = m.zero()
    data = BidoubleData(
        L1=z, L2=z, B1=z.as_effective(), B2=z.as_effective(), B3=z.as_effective()
    )
    chi, ksq = bidouble_invariants(data, 1)
    assert chi == 4 * 1
    assert ksq == 4 * 9


def test_free_quotient_rejects_non_divisible():
    with pytest.raises(ValueError, match="cannot be free"):
        free_quotient_invariants(1, 2)


def direct_sum(a, b):
    """Orthogonal direct sum of two models; classes concatenate via `sum_class`.

    The combined torsion invariant factors are sorted ascending and must
    already form a divisibility chain (`FinAbGroup` raises otherwise).
    """
    ra, rb = a.rank, b.rank
    gram = [list(row) + [0] * rb for row in a.gram]
    gram += [[0] * ra + list(row) for row in b.gram]
    facs = list(a.torsion.invariant_factors) + list(b.torsion.invariant_factors)
    order = sorted(range(len(facs)), key=lambda i: facs[i])
    joint_t = list(a.k_torsion) + list(b.k_torsion)
    return PicardModel(
        gram=tuple(tuple(r) for r in gram),
        torsion=FinAbGroup(tuple(facs[i] for i in order)),
        k_free=tuple(a.k_free) + tuple(b.k_free),
        k_torsion=tuple(joint_t[i] for i in order),
        even_lattice=a.even_lattice and b.even_lattice,
    )


def sum_class(model, a, b):
    """The class a ⊕ b of a direct-sum model built by `direct_sum`."""
    joint = list(a.torsion) + list(b.torsion)
    facs = list(a.model.torsion.invariant_factors) + list(b.model.torsion.invariant_factors)
    order = sorted(range(len(facs)), key=lambda i: facs[i])
    return DivClass(
        model,
        tuple(a.free) + tuple(b.free),
        tuple(joint[i] for i in order),
        a.effective and b.effective,
    )


def test_double_invariants_additive_on_direct_sums():
    ma, mb = preset_model("p2"), preset_model("f2")
    da = DoubleData(L=2 * ma.named("H"), B=(4 * ma.named("H")).as_effective())
    db = DoubleData(L=mb.named("L3"), B=(2 * mb.named("L3")).as_effective())
    joint = direct_sum(ma, mb)
    data = DoubleData(
        L=sum_class(joint, da.L, db.L),
        B=sum_class(joint, da.B, db.B),
    )
    chi_a, ksq_a = double_invariants(da, 1)
    chi_b, ksq_b = double_invariants(db, 1)
    chi, ksq = double_invariants(data, 1 + 1)
    assert (chi, ksq) == (chi_a + chi_b, ksq_a + ksq_b)


def test_direct_sum_torsion_chain():
    e = preset_model("enriques")
    joint = direct_sum(e, e)
    assert joint.torsion.invariant_factors == (2, 2)
    assert joint.rank == 12
    with pytest.raises(ValueError, match="invariant-factor chain"):
        direct_sum(
            PicardModel(((2,),), FinAbGroup((2,)), (0,), (0,)),
            PicardModel(((2,),), FinAbGroup((3,)), (0,), (0,)),
        )


# --- lift classification ----------------------------------------------------


def test_classify_lift_cases():
    assert classify_lift(LiftSpec("b")) == {"D4"}
    assert classify_lift(LiftSpec("a")) == {"Z2^3", "Z4xZ2"}
    assert classify_lift(LiftSpec("double", rho_order=4)) == {"Z8", "Z4xZ2"}
    # odd order: the split and non-split extensions are isomorphic
    assert classify_lift(LiftSpec("double", rho_order=3)) == {"Z6"}
    assert classify_lift(LiftSpec("double", rho_order=1)) == {"Z2"}


def test_lift_spec_validation():
    with pytest.raises(ValueError, match="case"):
        LiftSpec("c")
    with pytest.raises(ValueError, match="involution"):
        LiftSpec("b", rho_order=4)


def test_dihedral_witness_structure():
    w = dihedral_witness()
    assert w["label"] == "D4"
    assert w["rho_order"] == 4
    assert w["rho_squared_is_g3"]
    assert w["g1_rho_order"] == 2
    assert w["deck_is_klein"]
    assert w["conjugation_swaps_g1_g2"]
    assert w["group"].order == 8
    assert not w["group"].is_abelian()


def test_case_a_witness_tables():
    tables = case_a_witnesses()
    assert set(tables) == {"Z2^3", "Z4xZ2"}
    for label, g in tables.items():
        assert g.order == 8
        assert g.is_abelian()
        assert abelian_label(g) == label


# --- divisibility lemma ------------------------------------------------------


def test_lemma_div_geo_verdicts():
    # a pullback under a degree-2d cyclic quotient is even iff the Galois
    # group splits as Z2 x Zd; for odd d the two candidates coincide
    for d in (2, 3, 4, 6):
        labels = classify_lift(LiftSpec("double", rho_order=d))
        split = FinAbGroup(parse_group_label(f"Z2xZ{d}")).label
        cyclic = FinAbGroup(parse_group_label(f"Z{2 * d}")).label
        assert labels == {split, cyclic}
        assert (split == cyclic) is (d % 2 == 1)


def test_parse_group_label():
    assert parse_group_label("Z8") == (8,)
    assert parse_group_label("Z2xZ4") == (2, 4)
    assert parse_group_label("Z4xZ2") == (2, 4)
    assert parse_group_label("Z2^3") == (2, 2, 2)
    assert parse_group_label("Z6") == (6,)
    # invariant factors of Z2 x Z3 normalize to Z6
    assert parse_group_label("Z2xZ3") == (6,)
    for bad in ("D4", "Z2^0", "Z2^-1"):
        with pytest.raises(ValueError):
            parse_group_label(bad)


# --- two-divisibility against the oracle -------------------------------------


def _random_model(rng):
    r = rng.randrange(1, 5)
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1):
            v = rng.randrange(-3, 4)
            gram[i][j] = gram[j][i] = v
    choices = [(), (2,), (4,), (2, 4), (2, 2), (3,), (2, 2, 2), (8,), (2, 8)]
    facs = rng.choice([f for f in choices if _order(f) <= 64])
    torsion = FinAbGroup(facs)
    k_free = tuple(rng.randrange(-2, 3) for _ in range(r))
    k_tors = tuple(rng.randrange(d) for d in torsion.invariant_factors)
    return PicardModel(tuple(map(tuple, gram)), torsion, k_free, k_tors)


def _order(facs):
    n = 1
    for d in facs:
        n *= d
    return n


def _random_class(m, rng):
    return DivClass(
        m,
        tuple(rng.randrange(-4, 5) for _ in range(m.rank)),
        tuple(rng.randrange(d) for d in m.torsion.invariant_factors),
    )


def test_two_divisible_matches_oracle():
    rng = random.Random(20260819)
    agree = 0
    for _ in range(300):
        m = _random_model(rng)
        mods = [_random_class(m, rng) for _ in range(rng.randrange(0, 3))]
        cls = _random_class(m, rng)
        verdict, half = m.two_divisible(cls, mods)
        assert verdict == mod2_divisibility_oracle(m, cls, mods)
        if verdict:
            assert half is not None
            agree += 1
    assert agree > 20  # both outcomes exercised


def test_two_divisible_constructed_positives():
    rng = random.Random(7)
    for _ in range(100):
        m = _random_model(rng)
        half = _random_class(m, rng)
        mods = [_random_class(m, rng) for _ in range(rng.randrange(0, 3))]
        cls = 2 * half
        for mod in mods:
            cls = cls + rng.randrange(-2, 3) * mod
        verdict, _ = m.two_divisible(cls, mods)
        assert verdict is True


# --- even node sets -----------------------------------------------------------


def test_even8_preset_is_even():
    m = preset_model("even8")
    nodes = [m.named(f"C{i}") for i in range(1, 9)]
    report = even_node_set(m, nodes)
    assert report.status == "pass"
    assert report.data["cardinality"] == 8
    assert report.data["half"] == repr(m.named("N"))


def test_even8_exhaustive_subsets():
    """Every 2-divisible subset of the preset nodes has size 0 mod 4."""
    m = preset_model("even8")
    nodes = [m.named(f"C{i}") for i in range(1, 9)]
    even_sizes = []
    for mask in range(1, 256):
        subset = [c for i, c in enumerate(nodes) if mask >> i & 1]
        report = even_node_set(m, subset)
        assert report.status in ("pass", "fail")
        if report.status == "pass":
            even_sizes.append(len(subset))
    assert even_sizes == [8]


def test_single_node_not_even():
    m = preset_model("even8")
    report = even_node_set(m, [m.named("C1")])
    assert report.status == "fail"
    assert report.data["cardinality"] == 1


def test_enriques_nodes_even_only_after_twist():
    m = preset_model("enriques")
    nodes = [m.named(f"C{i}") for i in range(1, 5)]
    report = even_node_set(m, nodes)
    assert report.status == "fail"
    assert report.data["k_twisted_divisible"] is True
    assert any("adding K" in n for n in report.notes)
    # the twisted half is the distinguished class N
    total = nodes[0] + nodes[1] + nodes[2] + nodes[3] + m.K
    ok, half = m.two_divisible(total)
    assert ok and (2 * half - total).is_zero()


def test_divisible_but_wrong_cardinality_is_an_error():
    # odd lattice where two orthogonal (-2)-classes sum to twice a class
    m = PicardModel(((-2, -1), (-1, -1)), FinAbGroup(()), (0, 0), ())
    c1 = DivClass(m, (1, 0))
    c2 = DivClass(m, (1, -2))
    assert c1.square() == c2.square() == -2
    assert c1.dot(c2) == 0
    report = even_node_set(m, [c1, c2])
    assert report.status == "error"
    assert report.data["cardinality"] == 2
    assert "not a node configuration" in report.notes[0]


def test_even_node_set_preconditions():
    m = preset_model("even8")
    with pytest.raises(ValueError, match="expected -2"):
        even_node_set(m, [m.named("N")])
    with pytest.raises(ValueError, match="meet"):
        even_node_set(m, [m.named("C1"), m.named("C1")])


# --- Enriques-side arithmetic --------------------------------------------------


def test_enriques_arithmetic_report():
    report = enriques_arithmetic()
    assert report.status == "pass"
    assert report.data["B_square"] == 2
    assert report.data["L_square"] == -2
    assert report.data["L_minus_E_square"] == -4
    assert report.data["excluded_value"] == -3
    assert all(report.data["checks"].values())


def test_enriques_arithmetic_detects_tampering():
    m = preset_model("enriques")
    names = tuple(
        (name, (1, 0, 0, 0, 1, 0), tors, eff) if name == "L" else (name, free, tors, eff)
        for name, free, tors, eff in m.class_names
    )  # drop the C5 part of L
    report = enriques_arithmetic(dataclasses.replace(m, class_names=names))
    assert report.status == "fail"
    assert report.witness["identity"] == "L_halves_branch"


def test_enriques_preset_pairings():
    m = preset_model("enriques")
    E, C5, N = m.named("E"), m.named("C5"), m.named("N")
    C = [m.named(f"C{i}") for i in range(1, 6)]
    assert E.square() == 0 and E.dot(C5) == 1
    assert all(c.square() == -2 for c in C)
    assert all(C[i].dot(C[j]) == 0 for i in range(5) for j in range(i))
    assert all(N.dot(C[i]) == -1 for i in range(4))
    assert N.dot(C5) == 0 and N.square() == -2
    # C4 is forced by the divisibility C1+C2+C3+C4+K = 2N
    total = C[0] + C[1] + C[2] + C[3] + m.K
    assert (total - 2 * N).is_zero()


# --- presets ----------------------------------------------------------------


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        preset_model("k3")
