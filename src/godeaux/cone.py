"""Geometry of the quadric cone and its branch-divisor degenerations.

The cone is the singular quadric y0^2 = y1*y2 in P^3, carrying the
involution (y0,y1,y2,y3) -> (y0,-y1,-y2,y3).  The invariant quadrics map
it two-to-one onto a quartic surface in P^4, and bidouble covers of the
cone branched on a pair of quadric sections swapped by the involution
plus an invariant plane section produce the surfaces this package tracks.
Degenerating the branch quadric walks through five scenarios; the module
validates each configuration's structure, evaluates the gates that are
actually computable, and transcribes the non-computable singularity
verdicts as lookups.

Derivation note: the two smooth fixed points of the involution are taken
in the coordinates [0,1,0,0] and [0,0,1,0]; they are pinned down by the
fixed-locus computation in `tau_fixed_points`, not quoted from anywhere.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .covers import preset_model
from .reports import CheckReport
from .scalars import FpElement, exact_rank, field_from_spec, nullspace, solve_linear
from .varieties import Columns, _reduce_eqs, enumerate_points, fixed_locus
from .wpoly import MonomialMap, WPoly, WRing, apply_map, parse_poly, substitute

CONE_VARIABLES = ("y0", "y1", "y2", "y3")
IMAGE_VARIABLES = ("x0", "x1", "x2", "x3", "x4")
TAU_SIGNS = (1, -1, -1, 1)
DEGENERATION_CASES = ("general", "deg1", "deg2", "deg3", "deg4", "exP")

VERTEX = (0, 0, 0, 1)
SMOOTH_FIXED_1 = (0, 1, 0, 0)
SMOOTH_FIXED_2 = (0, 0, 1, 0)


@dataclass(frozen=True)
class ConeSetup:
    """The cone, its involution, and the invariant quadrics, over one field.

    Validated on construction: the involution squares to the identity and
    preserves the cone equation, every listed quadric is invariant, and
    the five quadrics are exactly a basis of the invariant quadrics modulo
    the cone relation (six invariant monomials exist in the ambient space,
    but y1*y2 is congruent to y0^2 on the cone).
    """

    ring: WRing
    cone: WPoly
    tau: MonomialMap
    invariant_quadrics: Tuple[WPoly, ...]

    def __post_init__(self):
        if self.ring.weights != (1, 1, 1, 1):
            raise ValueError("the cone lives in a straight P^3")
        lead = self.cone.coefficient((2, 0, 0, 0))
        expected = {(2, 0, 0, 0): lead, (0, 1, 1, 0): -lead}
        if not lead or dict(self.cone.terms) != expected:
            raise ValueError("cone equation must be a multiple of y0^2 - y1*y2")
        if self.tau.ring != self.ring or any(s * s != 1 for s in self.tau.scalars):
            raise ValueError("tau must be a diagonal involution of the cone ring")
        if apply_map(self.cone, self.tau) != self.cone:
            raise ValueError("tau does not preserve the cone equation")
        object.__setattr__(self, "invariant_quadrics", tuple(self.invariant_quadrics))
        for q in self.invariant_quadrics:
            if q.degree() != 2:
                raise ValueError(f"{q!r} is not a quadric")
            if apply_map(q, self.tau) != q:
                raise ValueError(f"{q!r} is not tau-invariant")
        basis = {self.reduce(q).to_string() for q in self.invariant_quadrics}
        even = {
            self.reduce(self.ring.monomial(_exponent(i, j))).to_string()
            for i in range(4)
            for j in range(i, 4)
            if self.tau.scalars[i] * self.tau.scalars[j] == self.ring.field(1)
        }
        if basis != even or len(self.invariant_quadrics) != len(basis):
            raise ValueError(
                "invariant quadrics must be a basis of the even quadrics mod the cone"
            )

    @property
    def field(self):
        return self.ring.field

    def reduce(self, f: WPoly) -> WPoly:
        """Normal form modulo the cone: rewrite y0^2 -> y1*y2 until the
        exponent of y0 is at most 1 in every monomial."""
        if f.ring != self.ring:
            raise ValueError("polynomial lives in a different ring")
        terms: Dict[Tuple[int, ...], object] = {}
        stack = list(f.terms.items())
        while stack:
            (e0, e1, e2, e3), c = stack.pop()
            if e0 >= 2:
                stack.append(((e0 - 2, e1 + 1, e2 + 1, e3), c))
                continue
            key = (e0, e1, e2, e3)
            prev = terms.get(key)
            terms[key] = c if prev is None else prev + c
        return WPoly(self.ring, terms)

    def image_point(self, point: Sequence[object]) -> Tuple[object, ...]:
        """Image of a cone point under the invariant-quadric map to P^4."""
        return tuple(q.evaluate(point) for q in self.invariant_quadrics)


def cone_setup(field_spec="Q") -> ConeSetup:
    """The standard cone setup over the field; built and validated once per
    field, then shared."""
    return _cone_setup(field_from_spec(field_spec))


@functools.lru_cache(maxsize=None)
def _cone_setup(field) -> ConeSetup:
    ring = WRing(CONE_VARIABLES, (1, 1, 1, 1), field)
    cone = parse_poly(ring, "y0^2 + -1*y1 y2")
    tau = MonomialMap(ring, TAU_SIGNS)
    quadrics = tuple(
        parse_poly(ring, s) for s in ("y0^2", "y1^2", "y2^2", "y3^2", "y0 y3")
    )
    return ConeSetup(ring=ring, cone=cone, tau=tau, invariant_quadrics=quadrics)


def image_ring(field_spec="Q") -> WRing:
    return WRing(IMAGE_VARIABLES, (1, 1, 1, 1, 1), field_from_spec(field_spec))


def image_equations(ring: WRing) -> Tuple[WPoly, WPoly]:
    return parse_poly(ring, "x0^2 + -1*x1 x2"), parse_poly(ring, "x0 x3 + -1*x4^2")


def verify_invariant_map(setup: ConeSetup, prime: int = 13) -> CheckReport:
    """The invariant quadrics land in the quartic model, symbolically.

    x0*x3 - x4^2 pulls back to the zero polynomial outright; x0^2 - x1*x2
    pulls back to y0^4 - y1^2*y2^2, which factors exactly as the cone
    equation times its conjugate y0^2 + y1*y2, and independently reduces
    to zero under rewriting by the cone relation.  Over GF(prime), every
    enumerated cone point is checked to map onto the quartic model: the
    quadrics are evaluated on the point columns, then the model equations
    on the image columns.
    """
    eq1, eq2 = image_equations(image_ring(setup.field))
    pull1 = substitute(eq1, setup.invariant_quadrics)
    pull2 = substitute(eq2, setup.invariant_quadrics)
    cofactor = parse_poly(setup.ring, "y0^2 + y1 y2")
    factored = pull1 == setup.cone * cofactor
    remainder = setup.reduce(pull1)
    checks = {
        "pullback_of_x0x3_minus_x4sq_is_zero": pull2.is_zero(),
        "pullback_of_x0sq_minus_x1x2_factors": factored,
        "remainder_mod_cone_is_zero": remainder.is_zero(),
    }
    surface = enumerate_points(setup.ring, prime, [setup.cone])
    points = Columns(surface.rows.T, prime)
    _, quadrics = _reduce_eqs(setup.ring, prime, setup.invariant_quadrics)
    image = Columns([points.evaluate(q) for q in quadrics], prime)
    off_model = np.zeros(len(surface), dtype=bool)
    for eq in _reduce_eqs(eq1.ring, prime, (eq1, eq2))[1]:
        off_model |= image.evaluate(eq) != 0
    bad = np.flatnonzero(off_model)
    checks["all_points_map_to_model"] = not len(bad)
    status = "pass" if all(checks.values()) else "fail"
    witness = None
    if len(bad):
        witness = {"point": surface.rows[bad[0]].tolist()}
    elif status == "fail":
        witness = {"identity": next(k for k, v in checks.items() if not v)}
    return CheckReport(
        check="invariant-map",
        status=status,
        prime=prime,
        witness=witness,
        points_scanned=surface.scanned,
        data={
            "cofactor": cofactor.to_string(),
            "checks": checks,
            "cone_points": None if len(bad) else len(surface),
        },
    )


def _factor_binary_quadratic(a, b, c, field):
    """Projective roots of a*s^2 + b*s*t + c*t^2 over the field, or None
    when the form is irreducible.

    Returned roots are (s, t) pairs, a double root once.  Exact: rational
    roots need the discriminant to be a square in the field.
    """
    zero, one = field(0), field(1)
    if not a and not b and not c:
        raise ValueError("zero form has no well-defined roots")
    if not a:
        # t | form: root (1, 0); remaining linear factor b*s + c*t
        return [(one, zero)] + ([(-c / b, one)] if b else [])
    root = field.sqrt(b * b - 4 * a * c)
    if root is None:
        return None
    return [((-b + r) / (2 * a), one) for r in {root, -root}]


def tau_fixed_points(setup: ConeSetup, prime: Optional[int] = None) -> CheckReport:
    """Fixed points of the involution on the cone, found symbolically.

    The fixed locus in P^3 splits into one coordinate subspace per scalar
    eigenvalue; the cone equation restricts to a binary quadratic form on
    each, and its projective roots are the fixed points.  The report also
    carries the image of each fixed point under the invariant-quadric map
    and identifies the vertex as the unique singular point of the cone.
    Passing a prime cross-checks the list against brute-force enumeration.
    """
    field = setup.field
    by_scalar: Dict[object, List[int]] = {}
    for i, s in enumerate(setup.tau.scalars):
        by_scalar.setdefault(s, []).append(i)
    points: List[Tuple[int, ...]] = []
    for idx in by_scalar.values():
        if len(idx) != 2:
            raise ValueError("expected two coordinates per eigenvalue on P^3")
        i, j = idx
        a = setup.cone.coefficient(_exponent(i, i))
        b = setup.cone.coefficient(_exponent(i, j))
        c = setup.cone.coefficient(_exponent(j, j))
        roots = _factor_binary_quadratic(a, b, c, field)
        if roots is None:
            continue
        for s, t in roots:
            vec = [0, 0, 0, 0]
            vec[i], vec[j] = s, t
            points.append(_int_point(vec))
    points = sorted(set(points))
    grad = [setup.cone.partial(v) for v in range(4)]
    vertex = [pt for pt in points if not any(g.evaluate(pt) for g in grad)]
    images = {str(list(pt)): list(_int_point(setup.image_point(pt))) for pt in points}
    expected = sorted([VERTEX, SMOOTH_FIXED_1, SMOOTH_FIXED_2])
    expected_images = {
        str(list(VERTEX)): [0, 0, 0, 1, 0],
        str(list(SMOOTH_FIXED_1)): [0, 1, 0, 0, 0],
        str(list(SMOOTH_FIXED_2)): [0, 0, 1, 0, 0],
    }
    checks = {
        "three_fixed_points": points == expected,
        "vertex_is_fixed": vertex == [VERTEX],
        "images_are_coordinate_points": images == expected_images,
    }
    scanned = None
    if prime is not None:
        setup_p = cone_setup(prime)
        locus = fixed_locus(setup_p.tau, prime, [setup_p.cone])
        checks["enumeration_agrees"] = list(locus.points) == expected
        scanned = locus.scanned
    status = "pass" if all(checks.values()) else "fail"
    witness = None
    if status == "fail":
        witness = {"check": next(k for k, v in checks.items() if not v)}
    return CheckReport(
        check="tau-fixed-points",
        status=status,
        prime=prime,
        witness=witness,
        points_scanned=scanned,
        data={
            "points": [list(p) for p in points],
            "vertex": list(vertex[0]) if vertex else None,
            "images": images,
            "checks": checks,
        },
    )


def _exponent(*variables: int) -> Tuple[int, ...]:
    """The exponent tuple of the product of the given cone variables."""
    e = [0, 0, 0, 0]
    for v in variables:
        e[v] += 1
    return tuple(e)


def _normalized(values) -> Tuple[object, ...]:
    """The entries divided by the first nonzero one, which must be a field
    element."""
    lead = next((x for x in values if x), None)
    if lead is None:
        raise ValueError("zero vector")
    return tuple(x / lead for x in values)


def _proportional(u, v) -> bool:
    """Whether two vectors span at most a line."""
    return exact_rank([u, v]) < 2


def _int_point(vec) -> Tuple[int, ...]:
    """A projective point scaled to lead with 1, as ints; only for points
    whose normalized coordinates are integers (GF(p) gives residues)."""
    out = []
    for x in _normalized(vec):
        if not isinstance(x, FpElement) and x.denominator != 1:
            raise ValueError(f"{x} is not an integer")
        out.append(x.value if isinstance(x, FpElement) else int(x))
    return tuple(out)


# ---------------------------------------------------------------------------
# branch configurations and degenerations


@dataclass(frozen=True)
class BranchConfig:
    """A branch configuration on the cone: the quadric section cutting B1
    (B2 is its involution image, derived), and the invariant plane section
    B3 through the two smooth fixed points.

    Per-case structure is validated on construction:
      general  B1 a quadric section not containing the cone
      deg1     B1 has double points at r1 and tau(r1), certified by the
               rank of the Jacobian of (cone, q1) at both points
      deg2/exP B1 = 2H, a doubled plane section (q1 = h^2)
      deg3     B1 = H0 + H1 with H0 invariant and off the vertex
      deg4     B1 = H1 + 2F1 with F1 a ruling, cut by a tangent plane
    """

    case: str
    q1: WPoly
    h3: WPoly
    r1: Optional[Tuple[int, ...]] = None
    h: Optional[WPoly] = None
    h0: Optional[WPoly] = None
    h1: Optional[WPoly] = None
    ht: Optional[WPoly] = None
    # derived on construction: the cone setup over q1's field, and B2's
    # quadric q2 = tau(q1)
    setup: ConeSetup = dataclasses.field(init=False, repr=False, compare=False)
    q2: WPoly = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.case not in DEGENERATION_CASES:
            raise ValueError(
                f"case {self.case!r} not one of {DEGENERATION_CASES}"
            )
        setup = cone_setup(self.q1.ring.field)
        object.__setattr__(self, "setup", setup)
        if self.q1.ring != setup.ring or self.h3.ring != setup.ring:
            raise ValueError("configuration polynomials live in the wrong ring")
        if self.q1.degree() != 2 or not self.q1.is_homogeneous():
            raise ValueError("q1 must be a quadric")
        if self.h3.degree() != 1 or not self.h3.is_homogeneous():
            raise ValueError("B3 must be a plane section")
        field = setup.field
        for v, name in ((1, "y1"), (2, "y2")):
            if self.h3.coefficient(_exponent(v)) != field(0):
                raise ValueError(
                    f"B3 must vanish at both smooth fixed points; drop the {name} term"
                )
        if setup.reduce(self.q1).is_zero():
            raise ValueError("q1 is a multiple of the cone equation")
        validate = _CASE_VALIDATORS.get(self.case)
        if validate is not None:
            validate(self, setup)
        object.__setattr__(self, "q2", apply_map(self.q1, setup.tau))

    def _validate_deg1(self, setup: ConeSetup) -> None:
        if self.r1 is None:
            raise ValueError("deg1 needs the node location r1")
        field = setup.field
        r1 = [field(x) for x in self.r1]
        r2 = list(setup.tau.point_image(r1))
        if _proportional(r1, r2):
            raise ValueError("r1 must not be fixed by the involution")
        if setup.cone.evaluate(r1) != field(0):
            raise ValueError("r1 does not lie on the cone")
        grads = [setup.cone.partial(v) for v in range(4)] + [
            self.q1.partial(v) for v in range(4)
        ]
        for label, pt in (("r1", r1), ("r2", r2)):
            if self.q1.evaluate(pt) != field(0):
                raise ValueError(f"q1 does not vanish at {label}")
            rows = [
                [g.evaluate(pt) for g in grads[:4]],
                [g.evaluate(pt) for g in grads[4:]],
            ]
            if exact_rank(rows) > 1:
                raise ValueError(
                    f"B1 is not singular at {label}: the Jacobian of (cone, q1) has full rank"
                )

    def _validate_deg2(self, setup: ConeSetup) -> None:
        if self.h is None:
            raise ValueError("deg2 needs the plane h with B1 = 2(h-section)")
        if self.h.degree() != 1 or self.q1 != self.h * self.h:
            raise ValueError("deg2 requires q1 = h^2 exactly")

    def _validate_deg3(self, setup: ConeSetup) -> None:
        if self.h0 is None or self.h1 is None:
            raise ValueError("deg3 needs both plane factors h0 and h1")
        if self.q1 != self.h0 * self.h1:
            raise ValueError("deg3 requires q1 = h0*h1 exactly")
        image = apply_map(self.h0, setup.tau)
        if image != self.h0 and image != -self.h0:
            raise ValueError("h0 must be an invariant plane")
        if not self.h0.evaluate(VERTEX):
            raise ValueError("h0 must not pass through the vertex")

    def _validate_deg4(self, setup: ConeSetup) -> None:
        if self.h1 is None or self.ht is None:
            raise ValueError("deg4 needs the plane h1 and the tangent plane ht")
        if self.q1 != self.h1 * self.ht:
            raise ValueError("deg4 requires q1 = h1*ht exactly")
        a, b, c, d = (self.ht.coefficient(_exponent(v)) for v in range(4))
        # on the double cover coordinates the plane reads b u^2 + a uv + c v^2
        # + d w; it cuts a doubled ruling iff d = 0 and the binary form is a
        # square
        if d or a * a - 4 * b * c or not (a or b or c):
            raise ValueError("ht does not cut a doubled ruling of the cone")


# the per-case structure check; a general configuration has none
_CASE_VALIDATORS = {
    "deg1": BranchConfig._validate_deg1,
    "deg2": BranchConfig._validate_deg2,
    "exP": BranchConfig._validate_deg2,
    "deg3": BranchConfig._validate_deg3,
    "deg4": BranchConfig._validate_deg4,
}


def default_branch_config(case: str, field_spec="Q") -> BranchConfig:
    """Built-in configuration realizing each degeneration scenario."""
    setup = cone_setup(field_spec)
    ring = setup.ring
    h3 = parse_poly(ring, "y0 + 2*y3")
    if case == "general":
        return BranchConfig(
            case=case,
            q1=parse_poly(ring, "y0^2 + y1^2 + 2*y2^2 + 3*y3^2 + y0 y3 + y0 y1"),
            h3=h3,
        )
    if case == "deg1":
        # nodes at [1,1,1,0] and its involution image [1,-1,-1,0]: every
        # monomial of q1 is quadratic in the ideal (y1 - y2, y3) of the pair
        return BranchConfig(
            case=case,
            q1=parse_poly(
                ring,
                "2*y1^2 + -4*y1 y2 + 2*y2^2 + 5*y1 y3 + -5*y2 y3 + -1*y3^2",
            ),
            h3=h3,
            r1=(1, 1, 1, 0),
        )
    if case in ("deg2", "exP"):
        h = parse_poly(ring, "y0 + y1 + y2 + y3")
        return BranchConfig(case=case, q1=h * h, h3=h3, h=h)
    if case == "deg3":
        h0 = parse_poly(ring, "y0 + -1*y3")
        h1 = parse_poly(ring, "y0 + y1 + y3")
        return BranchConfig(case=case, q1=h0 * h1, h3=h3, h0=h0, h1=h1)
    if case == "deg4":
        h1 = parse_poly(ring, "y0 + y1 + y2 + y3")
        ht = parse_poly(ring, "-4*y0 + 4*y1 + y2")
        return BranchConfig(case=case, q1=h1 * ht, h3=h3, h1=h1, ht=ht)
    raise ValueError(f"case {case!r} not one of {DEGENERATION_CASES}")


def _proportional_mod_cone(setup: ConeSetup, f: WPoly, g: WPoly) -> bool:
    rf, rg = setup.reduce(f), setup.reduce(g)
    monos = sorted(set(rf.terms) | set(rg.terms))
    return _proportional([rf.coefficient(m) for m in monos],
                         [rg.coefficient(m) for m in monos])


def intersection_count(cfg: BranchConfig, p: int = 13) -> CheckReport:
    """B1.B2 on the cone: the lattice degree next to a point census.

    The lattice side computes (2H)^2 = 8 in the ruled-surface model of the
    resolved cone, independent of the configuration.  The census side
    enumerates the rational common points of B1 and B2 over GF(p); a
    shared component (detected exactly by proportionality modulo the cone,
    or heuristically by a census exceeding the lattice number) is an error.
    For nodal configurations the two double points absorb multiplicity 4
    each, which the report notes.
    """
    setup = cfg.setup
    model = preset_model("f2")
    hyper = model.named("Gamma") + 2 * model.named("f")
    lattice = (2 * hyper).dot(2 * hyper)
    q2 = cfg.q2
    if _proportional_mod_cone(setup, cfg.q1, q2):
        return CheckReport(
            check="intersection-count",
            status="error",
            prime=p,
            witness={"reason": "B1 and B2 are equal: shared component"},
            data={"lattice_count": lattice},
        )
    locus = enumerate_points(setup.ring, p, [setup.cone, cfg.q1, q2])
    rational = [list(pt) for pt in locus.points]
    if len(rational) > lattice:
        return CheckReport(
            check="intersection-count",
            status="error",
            prime=p,
            witness={
                "reason": "more rational points than the intersection number:"
                " shared component",
                "count": len(rational),
            },
            points_scanned=locus.scanned,
            data={"lattice_count": lattice},
        )
    notes = []
    data: Dict[str, object] = {
        "lattice_count": lattice,
        "rational_count": len(rational),
        "points": rational,
        "case": cfg.case,
    }
    if cfg.case == "deg1" and cfg.r1 is not None:
        r2 = _int_point(setup.tau.point_image(cfg.r1))
        data["multiplicities"] = {
            str(list(cfg.r1)): 4,
            str(list(r2)): 4,
        }
        notes.append(
            "each double point of both branches absorbs intersection"
            " multiplicity 4, accounting for the full degree 8"
        )
    elif len(rational) < lattice:
        notes.append(
            "remaining intersection points are non-rational or carry"
            " multiplicity; the lattice count is the honest total"
        )
    return CheckReport(
        check="intersection-count",
        status="pass",
        prime=p,
        points_scanned=locus.scanned,
        notes=tuple(notes),
        data=data,
    )


_CASE_TABLE = {
    "general": {
        "normalization": "smooth-Godeaux",
        "nu_T": 1,
        "nu_S": 1,
        "gorenstein_known": True,
        "notes": (
            "lookup: a general configuration yields a smooth bidouble cover"
            " whose free quotient is a smooth Godeaux surface",
        ),
    },
    "deg1": {
        "normalization": "N-elliptic",
        "nu_T": 1,
        "nu_S": 1,
        "gorenstein_known": True,
        "notes": (
            "lookup: two elliptic singularities of degree 4 upstairs merge"
            " to one downstairs; the desingularization is ruled over an"
            " elliptic curve",
        ),
    },
    "deg2": {
        "normalization": "P2",
        "nu_T": 1,
        "nu_S": 1,
        "gorenstein_known": True,
        "notes": (
            "lookup: the cover is non-reduced over the doubled plane"
            " section; the normalization of the quotient is a plane, and"
            " these surfaces are smoothable",
        ),
    },
    "deg3": {
        "normalization": "Enriques-4-nodes",
        "nu_T": 2,
        "nu_S": 2,
        "gorenstein_known": False,
        "notes": (
            "lookup: the singular points over the two smooth fixed points"
            " are not Gorenstein, and the normalization upstairs is an"
            " Enriques surface with four nodes",
        ),
    },
    "deg4": {
        "normalization": "dP1",
        "nu_T": None,
        "nu_S": 2,
        "gorenstein_known": False,
        "notes": (
            "lookup: the normalization upstairs is a degree-2 del Pezzo"
            " with four nodes over the vertex; its involution quotient is a"
            " degree-1 del Pezzo, and the double locus fails to be Cartier",
        ),
    },
}
_CASE_TABLE["exP"] = dict(
    _CASE_TABLE["deg2"],
    notes=_CASE_TABLE["deg2"]["notes"]
    + (
        "the doubled-plane scenario is the cone-side view of the"
        " pencil-of-conics gluing; see `cone pencil` (pencil_report)",
    ),
)


def classify_degeneration(cfg: BranchConfig, p: int = 13) -> CheckReport:
    """The case-table verdict next to the gates computed on the input.

    Computable gates: the vertex avoiding B1+B2+B3 (exact evaluation), the
    triple intersection being empty (enumeration over GF(p)), membership
    of the two smooth fixed points in B3 (exact), and the unramified gate:
    none of the three fixed points lying on B1+B2 (exact).

    `normalization` and the Cartier indices transcribe the case table.
    `gorenstein` is True only when the computable criterion (the vertex
    avoids the branch and the three branches share no point) certifies it,
    None when the table asserts it but a gate failed, and False where the
    case is known non-Gorenstein.  The status is "lookup" when the gates
    agree with the table, "fail" otherwise.
    """
    setup = cfg.setup
    branch = (cfg.q1, cfg.q2)

    def meets(fs, pt):
        return any(not f.evaluate(pt) for f in fs)

    triple = enumerate_points(setup.ring, p, [setup.cone, *branch, cfg.h3])
    gates = {
        "vertex_avoids_branch": not meets((*branch, cfg.h3), VERTEX),
        "triple_intersection_empty": len(triple.points) == 0,
        "smooth_fixed_points_on_B3": not cfg.h3.evaluate(SMOOTH_FIXED_1)
        and not cfg.h3.evaluate(SMOOTH_FIXED_2),
        "fixed_points_avoid_B1B2": not any(
            meets(branch, pt) for pt in (VERTEX, SMOOTH_FIXED_1, SMOOTH_FIXED_2)
        ),
    }
    certified = gates["vertex_avoids_branch"] and gates["triple_intersection_empty"]
    row = _CASE_TABLE[cfg.case]
    notes = list(row["notes"])
    gorenstein = (certified or None) if row["gorenstein_known"] else False
    if gorenstein is None:
        notes.append(
            "the case table asserts Gorenstein for a general"
            " configuration, but a computable gate failed on this input"
        )
    if not gates["fixed_points_avoid_B1B2"]:
        notes.append(
            "a fixed point lies on B1+B2, so the intermediate quotient map"
            " is not unramified and the Cartier indices may differ"
        )
    consistent = gates["smooth_fixed_points_on_B3"] and row["gorenstein_known"] == (
        certified and gates["fixed_points_avoid_B1B2"]
    )
    return CheckReport(
        check="degeneration",
        status="lookup" if consistent else "fail",
        witness=None if consistent else {"gates": dict(gates)},
        notes=tuple(notes),
        data={
            "case": cfg.case,
            "normalization": row["normalization"],
            "gorenstein": gorenstein,
            "cartier_index_T": row["nu_T"],
            "cartier_index_S": row["nu_S"],
            "gates": gates,
        },
    )


# ---------------------------------------------------------------------------
# the pencil-of-conics gluing


STANDARD_FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _is_scalar(m, field) -> bool:
    """Whether the square matrix m is proportional to the identity."""
    ident = [field(int(i == j)) for i in range(len(m)) for j in range(len(m))]
    return _proportional([x for row in m for x in row], ident)


def _frame_matrix(p1, p2, p3, p4):
    """Matrix sending the standard frame to (p1, p2, p3; p4 as unit point)."""
    rows = list(zip(p1, p2, p3))
    alpha = solve_linear(rows, list(p4))
    if alpha is None or not all(alpha):
        raise ValueError("points are in degenerate position")
    return tuple(tuple(a * x for a, x in zip(alpha, row)) for row in rows)


def _monic(q: WPoly) -> WPoly:
    """q scaled so its leading coefficient (in term order) is 1."""
    monos = q.monomials()
    return WPoly(q.ring, dict(zip(monos, _normalized([q.terms[m] for m in monos]))))


def pencil_report(points: Sequence[Sequence[int]] = STANDARD_FRAME) -> CheckReport:
    """The pencil of conics through four general points and the involution
    induced on it by the automorphism cycling the points.

    The automorphism is the unique projective class phi with phi(P_i) =
    P_{i+1}, indices mod 4.  It squares to the identity on the pencil, so
    it induces an involution there with exactly two fixed members: the
    pair of diagonal lines through (P1,P3) and (P2,P4), and one smooth
    conic.  Gluing a generic member C to its image via phi identifies the
    base point P_i on the first sheet with phi(P_i) on the second; the
    pairing is read off phi's images of the points, and the induced
    involution is free on the eight preimages iff those images are the
    four base points again.
    """
    field = field_from_spec("Q")
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) != 4 or any(len(p) != 3 for p in pts):
        raise ValueError("need four points of the plane")
    for skip in range(4):
        tri = [p for i, p in enumerate(pts) if i != skip]
        if exact_rank(tri) < 3:
            raise ValueError("points are in degenerate position: three collinear")
    source = _frame_matrix(*pts)
    target = _frame_matrix(pts[1], pts[2], pts[3], pts[0])
    # phi = target * source^-1: row i of phi solves x * source = target[i]
    source_t = [list(col) for col in zip(*source)]
    flat = _normalized([x for row in target for x in solve_linear(source_t, list(row))])
    phi = (flat[0:3], flat[3:6], flat[6:9])
    # targets[i] = j when phi(P_i) = P_j, None when phi(P_i) is no base point
    labels = {_normalized(p): j for j, p in enumerate(pts)}
    targets = [labels.get(_normalized(image)) for image in _mat_mul(pts, tuple(zip(*phi)))]

    ring = WRing(("x", "y", "z"), (1, 1, 1), field)
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    kernel = nullspace([[p[0] ** i * p[1] ** j * p[2] ** k for i, j, k in monos] for p in pts])
    if len(kernel) != 2:
        raise AssertionError("pencil through four general points must be 2-dim")

    def form(exponents, coeffs):
        return WPoly(ring, {m: field(c) for m, c in zip(exponents, coeffs)})

    def linear(coeffs):
        return form(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs)

    basis = tuple(form(monos, v) for v in kernel)
    # column j of the action T holds the basis coordinates of phi^* basis[j]
    action_cols = []
    for q in basis:
        pulled = substitute(q, [linear(row) for row in phi])
        coeffs = solve_linear(list(zip(*kernel)), [pulled.coefficient(m) for m in monos])
        if coeffs is None:
            raise AssertionError("pencil is not preserved by the automorphism")
        action_cols.append(coeffs)
    T = tuple(zip(*action_cols))
    if not _is_scalar(_mat_mul(T, T), field):
        raise AssertionError("the pencil action must square to the identity")
    # s*basis[0] + t*basis[1] is fixed iff T (s, t) is proportional to (s, t)
    (a, b), (c, d) = T
    roots = _factor_binary_quadratic(-c, a - d, b, field) if c or a - d or b else None
    if roots is None or len(roots) != 2:
        raise AssertionError("pencil involution must have two rational fixed members")
    fixed = [_monic(s * basis[0] + t * basis[1]) for s, t in roots]
    # a conic is reducible iff its constant Hessian is singular
    reducible = [q for q in fixed if exact_rank(
        [[q.partial(i).partial(j).coefficient((0, 0, 0)) for j in range(3)] for i in range(3)]
    ) < 3]
    smooth = [q for q in fixed if q not in reducible]
    if len(reducible) != 1 or len(smooth) != 1:
        raise AssertionError("exactly one fixed member must be reducible")
    # the line through two points is the kernel of the pair
    diagonals = [linear(nullspace([pts[i], pts[i + 2]])[0]) for i in (0, 1)]
    phi_sq = _mat_mul(phi, phi)
    checks = {
        "cycles_points": targets == [1, 2, 3, 0],
        "phi4_is_identity": _is_scalar(_mat_mul(phi_sq, phi_sq), field),
        "two_distinct_fixed_members": fixed[0] != fixed[1],
        "reducible_is_diagonal_lines": reducible[0] == _monic(diagonals[0] * diagonals[1]),
        "iota_free_on_preimages": set(targets) == set(range(4)),
    }
    status = "pass" if all(checks.values()) else "fail"
    return CheckReport(
        check="pencil-of-conics",
        status=status,
        witness=None
        if status == "pass"
        else {"check": next(k for k, v in checks.items() if not v)},
        data={
            "phi": [[str(x) for x in row] for row in phi],
            "reducible_member": reducible[0].to_string(),
            "smooth_member": smooth[0].to_string(),
            "gluing_orbits": [[[0, i], [1, j]] for i, j in enumerate(targets)],
            "checks": checks,
        },
    )
