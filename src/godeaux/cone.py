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

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .covers import preset_model
from .reports import CheckReport
from .scalars import exact_rank, field_from_spec, nullspace, solve_linear
from .varieties import enumerate_points, fixed_locus
from .wpoly import MonomialMap, WPoly, WRing, apply_map, parse_poly

CONE_VARIABLES = ("y0", "y1", "y2", "y3")
IMAGE_VARIABLES = ("x0", "x1", "x2", "x3", "x4")
TAU_SIGNS = (1, -1, -1, 1)
DEGENERATION_CASES = ("general", "deg1", "deg2", "deg3", "deg4", "exP")

VERTEX = (0, 0, 0, 1)
SMOOTH_FIXED_1 = (0, 1, 0, 0)
SMOOTH_FIXED_2 = (0, 0, 1, 0)


def _substitute(f: WPoly, images: Sequence[WPoly]) -> WPoly:
    """f with its variables replaced by the given polynomials."""
    if len(images) != f.ring.nvars:
        raise ValueError("one image polynomial per variable required")
    ring = images[0].ring
    out = ring.zero_poly()
    for expts, coeff in f.terms.items():
        term = ring.constant(1)
        for img, e in zip(images, expts):
            if e:
                term = term * img**e
        out = out + coeff * term
    return out


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
        sq = tuple(s * s for s in self.tau.scalars)
        ones = tuple(self.ring.field(1) for _ in range(4))
        if self.tau.ring != self.ring or sq != ones:
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
        even = set()
        one = self.ring.field(1)
        for i in range(4):
            for j in range(i, 4):
                e = [0, 0, 0, 0]
                e[i] += 1
                e[j] += 1
                if self.tau.scalars[i] * self.tau.scalars[j] == one:
                    even.add(self.reduce(self.ring.monomial(e)).to_string())
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

    def tau_point(self, point: Sequence[object]) -> Tuple[object, ...]:
        return self.tau.point_image(point)

    def image_point(self, point: Sequence[object]) -> Tuple[object, ...]:
        """Image of a cone point under the invariant-quadric map to P^4."""
        coords = [self.field(x) if isinstance(x, int) else x for x in point]
        return tuple(q.evaluate(coords) for q in self.invariant_quadrics)


def cone_setup(field_spec="Q") -> ConeSetup:
    field = field_from_spec(field_spec)
    ring = WRing(CONE_VARIABLES, (1, 1, 1, 1), field)
    cone = parse_poly(ring, "y0^2 + -1*y1 y2")
    tau = MonomialMap.diagonal(ring, [field(s) for s in TAU_SIGNS])
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
    enumerated cone point is checked to map onto the quartic model.
    """
    img = image_ring("Q" if setup.field.characteristic == 0 else setup.field.p)
    eq1, eq2 = image_equations(img)
    pull1 = _substitute(eq1, setup.invariant_quadrics)
    pull2 = _substitute(eq2, setup.invariant_quadrics)
    cofactor = parse_poly(setup.ring, "y0^2 + y1 y2")
    factored = pull1 == setup.cone * cofactor
    remainder = setup.reduce(pull1)
    checks = {
        "pullback_of_x0x3_minus_x4sq_is_zero": pull2.is_zero(),
        "pullback_of_x0sq_minus_x1x2_factors": factored,
        "remainder_mod_cone_is_zero": remainder.is_zero(),
    }
    surface = enumerate_points(setup.ring, prime, [setup.cone])
    field_p = field_from_spec(prime)
    on_model = 0
    bad = None
    setup_p = setup if setup.field.characteristic == prime else cone_setup(prime)
    img_p = image_ring(prime)
    d1, d2 = image_equations(img_p)
    for pt in surface.points:
        coords = [field_p(x) for x in pt]
        image = setup_p.image_point(coords)
        if d1.evaluate(image) or d2.evaluate(image):
            bad = pt
            break
        on_model += 1
    checks["all_points_map_to_model"] = bad is None
    status = "pass" if all(checks.values()) else "fail"
    witness = None
    if not checks["all_points_map_to_model"]:
        witness = {"point": list(bad)}
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
            "cone_points": on_model if bad is None else None,
        },
    )


def _factor_binary_quadratic(a, b, c, field):
    """Projective roots of a*s^2 + b*s*t + c*t^2 over the field, with
    multiplicity, or None when the form is irreducible.

    Returned roots are (s, t) pairs.  Exact: rational roots need the
    discriminant to be a square in the field.
    """
    zero, one = field(0), field(1)
    if not a and not b and not c:
        raise ValueError("zero form has no well-defined roots")
    if not a:
        # t | form: root (1, 0); remaining linear factor b*s + c*t
        if not b:
            return [((one, zero), 2)]
        return [((one, zero), 1), ((-c / b, one), 1)]
    disc = b * b - 4 * a * c
    root = _field_sqrt(disc, field)
    if root is None:
        return None
    if not disc:
        return [((-b / (2 * a), one), 2)]
    return [(((-b + root) / (2 * a), one), 1), (((-b - root) / (2 * a), one), 1)]


def _field_sqrt(value, field):
    if field.characteristic == 0:
        frac = Fraction(value)
        num, den = frac.numerator, frac.denominator
        if num < 0:
            return None
        rn, rd = _isqrt_exact(num), _isqrt_exact(den)
        if rn is None or rd is None:
            return None
        return field(Fraction(rn, rd))
    p = field.characteristic
    v = value.value % p
    if v == 0:
        return field(0)
    if pow(v, (p - 1) // 2, p) != 1:
        return None
    for r in range(1, p):
        if r * r % p == v:
            return field(r)
    return None


def _isqrt_exact(n: int) -> Optional[int]:
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


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
        a = setup.cone.coefficient(_pair_exponent(i, i))
        b = setup.cone.coefficient(_pair_exponent(i, j))
        c = setup.cone.coefficient(_pair_exponent(j, j))
        roots = _factor_binary_quadratic(a, b, c, field)
        if roots is None:
            continue
        for (s, t), _mult in roots:
            vec = [0, 0, 0, 0]
            vec[i], vec[j] = s, t
            points.append(_normalize_projective(vec, field))
    points = sorted(set(points))
    grad = [setup.cone.partial(v) for v in range(4)]
    vertex = [
        pt
        for pt in points
        if all(g.evaluate([field(x) for x in pt]) == field(0) for g in grad)
    ]
    images = {}
    for pt in points:
        img = setup.image_point(pt)
        images[str(list(pt))] = [_scalar_int(x) for x in _normalize_image(img, field)]
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


def _pair_exponent(i: int, j: int) -> Tuple[int, ...]:
    e = [0, 0, 0, 0]
    e[i] += 1
    e[j] += 1
    return tuple(e)


def _normalize_projective(vec, field) -> Tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1; only for points whose
    normalized coordinates are integers (coordinate-subspace roots)."""
    coords = [x if not isinstance(x, int) else field(x) for x in vec]
    lead = next((x for x in coords if x), None)
    if lead is None:
        raise ValueError("zero vector")
    return tuple(_scalar_int(x / lead) for x in coords)


def _scalar_int(x) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"{x} is not an integer")
        return int(x)
    if hasattr(x, "value"):
        return int(x.value)
    frac = Fraction(str(x))
    if frac.denominator != 1:
        raise ValueError(f"{x} is not an integer")
    return int(frac)


def _normalize_image(img, field):
    lead = next((x for x in img if x), None)
    if lead is None:
        raise ValueError("image is the zero vector")
    return tuple(x / lead for x in img)


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

    def __post_init__(self):
        if self.case not in DEGENERATION_CASES:
            raise ValueError(
                f"case {self.case!r} not one of {DEGENERATION_CASES}"
            )
        setup = self._setup()
        if self.q1.ring != setup.ring or self.h3.ring != setup.ring:
            raise ValueError("configuration polynomials live in the wrong ring")
        if self.q1.degree() != 2 or not self.q1.is_homogeneous():
            raise ValueError("q1 must be a quadric")
        if self.h3.degree() != 1:
            raise ValueError("B3 must be a plane section")
        field = setup.field
        for v, name in ((1, "y1"), (2, "y2")):
            if self.h3.coefficient(_unit_exp(v)) != field(0):
                raise ValueError(
                    f"B3 must vanish at both smooth fixed points; drop the {name} term"
                )
        if setup.reduce(self.q1).is_zero():
            raise ValueError("q1 is a multiple of the cone equation")
        getattr(self, f"_validate_{'deg2' if self.case == 'exP' else self.case}")(setup)

    def _setup(self) -> ConeSetup:
        spec = (
            "Q" if self.q1.ring.field.characteristic == 0 else self.q1.ring.field.p
        )
        return cone_setup(spec)

    @property
    def setup(self) -> ConeSetup:
        return self._setup()

    @property
    def q2(self) -> WPoly:
        return apply_map(self.q1, self._setup().tau)

    def _validate_general(self, setup: ConeSetup) -> None:
        pass

    def _validate_deg1(self, setup: ConeSetup) -> None:
        if self.r1 is None:
            raise ValueError("deg1 needs the node location r1")
        field = setup.field
        r1 = [field(x) for x in self.r1]
        r2 = list(setup.tau_point(r1))
        if _projectively_equal(r1, r2, field):
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
        field = setup.field
        image = apply_map(self.h0, setup.tau)
        if image != self.h0 and image != -self.h0:
            raise ValueError("h0 must be an invariant plane")
        if self.h0.evaluate([field(x) for x in VERTEX]) == field(0):
            raise ValueError("h0 must not pass through the vertex")

    def _validate_deg4(self, setup: ConeSetup) -> None:
        if self.h1 is None or self.ht is None:
            raise ValueError("deg4 needs the plane h1 and the tangent plane ht")
        if self.q1 != self.h1 * self.ht:
            raise ValueError("deg4 requires q1 = h1*ht exactly")
        field = setup.field
        a = self.ht.coefficient(_unit_exp(0))
        b = self.ht.coefficient(_unit_exp(1))
        c = self.ht.coefficient(_unit_exp(2))
        d = self.ht.coefficient(_unit_exp(3))
        # on the double cover coordinates the plane reads b u^2 + a uv + c v^2
        # + d w; it cuts a doubled ruling iff d = 0 and the binary form is a
        # square
        if d != field(0) or a * a - 4 * b * c != field(0) or not (a or b or c):
            raise ValueError("ht does not cut a doubled ruling of the cone")

    def tau_conjugate(self) -> "BranchConfig":
        """The same configuration with B1 and B2 exchanged."""
        setup = self._setup()
        field = setup.field

        def t(f):
            return None if f is None else apply_map(f, setup.tau)

        r1 = None
        if self.r1 is not None:
            img = setup.tau_point([field(x) for x in self.r1])
            r1 = _normalize_projective(list(img), field)
        return BranchConfig(
            case=self.case,
            q1=apply_map(self.q1, setup.tau),
            h3=self.h3,
            r1=r1,
            h=t(self.h),
            h0=t(self.h0),
            h1=t(self.h1),
            ht=t(self.ht),
        )


def _unit_exp(v: int) -> Tuple[int, ...]:
    e = [0, 0, 0, 0]
    e[v] = 1
    return tuple(e)


def _projectively_equal(a, b, field) -> bool:
    for i in range(len(a)):
        for j in range(len(a)):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


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
    if rf.is_zero() or rg.is_zero():
        return rf.is_zero() and rg.is_zero()
    lead = rf.monomials()[0]
    if rg.coefficient(lead) == setup.field(0):
        return False
    scale = rg.coefficient(lead) / rf.coefficient(lead)
    return rg == scale * rf


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
        field = setup.field
        r2 = _normalize_projective(
            list(setup.tau_point([field(x) for x in cfg.r1])), field
        )
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


@dataclass(frozen=True)
class DegenerationVerdict:
    """Outcome of one degeneration scenario.

    `normalization` and the Cartier-index claims transcribe the case table;
    `gates` holds the conditions this package actually computed on the
    input.  `gorenstein` is True only when the computable criterion (the
    vertex avoids the branch and the three branches share no point)
    certifies it, None when the table asserts it but a gate failed, and
    False where the case is known non-Gorenstein.
    """

    case: str
    normalization: str
    gorenstein: Optional[bool]
    cartier_index_T: Optional[int]
    cartier_index_S: Optional[int]
    gates: Mapping[str, bool]
    notes: Tuple[str, ...]


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
        " pencil-of-conics gluing; see pencil_of_conics",
    ),
)


def classify_degeneration(cfg: BranchConfig, p: int = 13) -> DegenerationVerdict:
    """Verdict from the case table plus the gates computed on the input.

    Computable gates: the vertex avoiding B1+B2+B3 (exact evaluation), the
    triple intersection being empty (enumeration over GF(p)), membership
    of the two smooth fixed points in B3 (exact), and the unramified-gate:
    none of the three fixed points lying on B1+B2 (exact).
    """
    setup = cfg.setup
    field = setup.field
    q2 = cfg.q2
    fixed = [VERTEX, SMOOTH_FIXED_1, SMOOTH_FIXED_2]

    def vanishes(f, pt):
        return f.evaluate([field(x) for x in pt]) == field(0)

    vertex_clear = not any(vanishes(f, VERTEX) for f in (cfg.q1, q2, cfg.h3))
    triple = enumerate_points(setup.ring, p, [setup.cone, cfg.q1, q2, cfg.h3])
    gates = {
        "vertex_avoids_branch": vertex_clear,
        "triple_intersection_empty": len(triple.points) == 0,
        "smooth_fixed_points_on_B3": vanishes(cfg.h3, SMOOTH_FIXED_1)
        and vanishes(cfg.h3, SMOOTH_FIXED_2),
        "fixed_points_avoid_B1B2": not any(
            vanishes(cfg.q1, pt) or vanishes(q2, pt) for pt in fixed
        ),
    }
    row = _CASE_TABLE[cfg.case]
    notes = list(row["notes"])
    if row["gorenstein_known"] is True:
        if gates["vertex_avoids_branch"] and gates["triple_intersection_empty"]:
            gorenstein = True
        else:
            gorenstein = None
            notes.append(
                "the case table asserts Gorenstein for a general"
                " configuration, but a computable gate failed on this input"
            )
    else:
        gorenstein = False
    if not gates["fixed_points_avoid_B1B2"]:
        notes.append(
            "a fixed point lies on B1+B2, so the intermediate quotient map"
            " is not unramified and the Cartier indices may differ"
        )
    return DegenerationVerdict(
        case=cfg.case,
        normalization=row["normalization"],
        gorenstein=gorenstein,
        cartier_index_T=row["nu_T"],
        cartier_index_S=row["nu_S"],
        gates=gates,
        notes=tuple(notes),
    )


def degeneration_report(verdict: DegenerationVerdict) -> CheckReport:
    """The verdict as a report: computable gates decide the status, the
    transcribed fields ride along as lookup data."""
    expected_gates = {
        "general": True,
        "deg1": True,
        "deg2": True,
        "exP": True,
        "deg3": False,
        "deg4": False,
    }[verdict.case]
    core = (
        verdict.gates["vertex_avoids_branch"]
        and verdict.gates["triple_intersection_empty"]
        and verdict.gates["fixed_points_avoid_B1B2"]
    )
    consistent = core == expected_gates and verdict.gates["smooth_fixed_points_on_B3"]
    return CheckReport(
        check="degeneration",
        status="lookup" if consistent else "fail",
        witness=None if consistent else {"gates": dict(verdict.gates)},
        notes=verdict.notes,
        data={
            "case": verdict.case,
            "normalization": verdict.normalization,
            "gorenstein": verdict.gorenstein,
            "cartier_index_T": verdict.cartier_index_T,
            "cartier_index_S": verdict.cartier_index_S,
            "gates": dict(verdict.gates),
        },
    )


# ---------------------------------------------------------------------------
# the pencil-of-conics gluing


STANDARD_FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


@dataclass(frozen=True)
class PencilResult:
    """The order-4 automorphism cycling four points, the conic pencil it
    acts on, and the gluing data for the non-normal surface built from a
    pencil member and its image."""

    frame: Tuple[Tuple[Fraction, ...], ...]
    phi: Tuple[Tuple[Fraction, ...], ...]
    cycles_points: bool
    phi4_is_identity: bool
    pencil_basis: Tuple[WPoly, WPoly]
    pencil_action: Tuple[Tuple[Fraction, ...], ...]
    fixed_members: Tuple[WPoly, WPoly]
    reducible_member: WPoly
    smooth_member: WPoly
    reducible_is_diagonal_lines: bool
    gluing_orbits: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]
    iota_free: bool


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def _proportional(u, v) -> bool:
    return all(
        u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(len(u))
    )


def _normalize_matrix(m):
    lead = None
    for row in m:
        for x in row:
            if x:
                lead = x
                break
        if lead is not None:
            break
    return tuple(tuple(x / lead for x in row) for row in m)


def _det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _frame_matrix(p1, p2, p3, p4):
    """Matrix sending the standard frame to (p1, p2, p3; p4 as unit point)."""
    cols = [list(p1), list(p2), list(p3)]
    rows = [[cols[j][i] for j in range(3)] for i in range(3)]
    alpha = solve_linear(rows, list(p4))
    if alpha is None or not all(alpha):
        raise ValueError("points are in degenerate position")
    return tuple(
        tuple(alpha[j] * cols[j][i] for j in range(3)) for i in range(3)
    )


def _invert3(m):
    d = _det3(m)
    if not d:
        raise ValueError("matrix is singular")
    cof = [
        [
            (m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
            for i in range(3)
        ]
        for j in range(3)
    ]
    return tuple(tuple(c / d for c in row) for row in cof)


def _conic_matrix(q: WPoly):
    ring = q.ring

    def c(e):
        return Fraction(q.coefficient(tuple(e)))

    del ring
    a, b, cc = c([2, 0, 0]), c([0, 2, 0]), c([0, 0, 2])
    d, e, f = c([1, 1, 0]), c([1, 0, 1]), c([0, 1, 1])
    return (
        (a, d / 2, e / 2),
        (d / 2, b, f / 2),
        (e / 2, f / 2, cc),
    )


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def pencil_of_conics(
    points: Sequence[Sequence[int]] = STANDARD_FRAME,
) -> PencilResult:
    """The pencil of conics through four general points and the induced
    involution from the automorphism cycling the points.

    The automorphism is the unique projective class with phi(P_i) =
    P_{i+1}, indices mod 4.  It squares to the identity on the pencil, so
    it induces an involution there with exactly two fixed members: the
    pair of diagonal lines through (P1,P3) and (P2,P4), and one smooth
    conic.  Gluing a generic member C to its image via phi produces an
    involution of the disjoint union that moves all eight points over the
    base points; the orbit pairing is returned with the freeness verdict.
    """
    field = field_from_spec("Q")
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) != 4 or any(len(p) != 3 for p in pts):
        raise ValueError("need four points of the plane")
    for skip in range(4):
        tri = [p for i, p in enumerate(pts) if i != skip]
        if not _det3(tri):
            raise ValueError("points are in degenerate position: three collinear")
    source = _frame_matrix(*pts)
    target = _frame_matrix(pts[1], pts[2], pts[3], pts[0])
    phi = _normalize_matrix(_mat_mul(target, _invert3(source)))
    cycles = all(
        _proportional(_mat_vec(phi, pts[i]), pts[(i + 1) % 4]) for i in range(4)
    )
    power = phi
    for _ in range(3):
        power = _mat_mul(power, phi)
    ident = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(3))
        for i in range(3)
    )
    phi4_identity = _proportional(
        tuple(x for row in power for x in row), tuple(x for row in ident for x in row)
    )

    ring = WRing(("x", "y", "z"), (1, 1, 1), field)
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    rows = []
    for p in pts:
        rows.append([p[0] ** a * p[1] ** b * p[2] ** c for a, b, c in monos])
    kernel = nullspace(rows)
    if len(kernel) != 2:
        raise AssertionError("pencil through four general points must be 2-dim")

    def conic_from(vec):
        return WPoly(ring, {m: field(c) for m, c in zip(monos, vec)})

    basis = tuple(conic_from(v) for v in kernel)

    lin = [
        WPoly(ring, {(1, 0, 0): phi[v][0], (0, 1, 0): phi[v][1], (0, 0, 1): phi[v][2]})
        for v in range(3)
    ]
    action_cols = []
    for q in basis:
        pulled = _substitute(q, lin)
        vec = [Fraction(pulled.coefficient(m)) for m in monos]
        coeffs = solve_linear(
            [[Fraction(k[i]) for k in kernel] for i in range(6)], vec
        )
        if coeffs is None:
            raise AssertionError("pencil is not preserved by the automorphism")
        action_cols.append(coeffs)
    T = tuple(tuple(action_cols[j][i] for j in range(2)) for i in range(2))
    t_sq = _mat_mul(T, T)
    if not _proportional(
        (t_sq[0][0], t_sq[0][1], t_sq[1][0], t_sq[1][1]),
        (Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
    ):
        raise AssertionError("the pencil action must square to the identity")

    tr = T[0][0] + T[1][1]
    det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
    disc = tr * tr - 4 * det
    sq = _field_sqrt(disc, field)
    if sq is None or not disc:
        raise AssertionError("pencil involution must have two rational fixed members")
    eigvals = ((tr + sq) / 2, (tr - sq) / 2)
    fixed = []
    for mu in eigvals:
        rows2 = [
            [T[0][0] - mu, T[0][1]],
            [T[1][0], T[1][1] - mu],
        ]
        vecs = nullspace(rows2)
        assert len(vecs) == 1, "eigenvalue of the pencil involution must be simple"
        s, t = vecs[0]
        fixed.append(_normalize_conic(s * basis[0] + t * basis[1]))
    reducible = [q for q in fixed if _det3(_conic_matrix(q)) == 0]
    smooth = [q for q in fixed if _det3(_conic_matrix(q)) != 0]
    if len(reducible) != 1 or len(smooth) != 1:
        raise AssertionError("exactly one fixed member must be reducible")
    diag1 = _cross(pts[0], pts[2])
    diag2 = _cross(pts[1], pts[3])
    lines = _normalize_conic(
        WPoly(ring, {(1, 0, 0): field(diag1[0]), (0, 1, 0): field(diag1[1]),
                     (0, 0, 1): field(diag1[2])})
        * WPoly(ring, {(1, 0, 0): field(diag2[0]), (0, 1, 0): field(diag2[1]),
                       (0, 0, 1): field(diag2[2])})
    )
    orbits = []
    seen = set()
    for comp, i in [(0, i) for i in range(4)] + [(1, i) for i in range(4)]:
        if (comp, i) in seen:
            continue
        image = (1, (i + 1) % 4) if comp == 0 else (0, (i - 1) % 4)
        seen.add((comp, i))
        seen.add(image)
        orbits.append(((comp, i), image))
    iota_free = all(a != b for a, b in orbits) and len(orbits) == 4
    return PencilResult(
        frame=tuple(pts),
        phi=phi,
        cycles_points=cycles,
        phi4_is_identity=phi4_identity,
        pencil_basis=basis,
        pencil_action=T,
        fixed_members=tuple(fixed),
        reducible_member=reducible[0],
        smooth_member=smooth[0],
        reducible_is_diagonal_lines=reducible[0] == lines,
        gluing_orbits=tuple(orbits),
        iota_free=iota_free,
    )


def _normalize_conic(q: WPoly) -> WPoly:
    lead = q.coefficient(q.monomials()[0])
    return (q.ring.field(1) / lead) * q


def pencil_report(points: Sequence[Sequence[int]] = STANDARD_FRAME) -> CheckReport:
    result = pencil_of_conics(points)
    checks = {
        "cycles_points": result.cycles_points,
        "phi4_is_identity": result.phi4_is_identity,
        "two_distinct_fixed_members": result.fixed_members[0]
        != result.fixed_members[1],
        "reducible_is_diagonal_lines": result.reducible_is_diagonal_lines,
        "iota_free_on_preimages": result.iota_free,
    }
    status = "pass" if all(checks.values()) else "fail"
    return CheckReport(
        check="pencil-of-conics",
        status=status,
        witness=None
        if status == "pass"
        else {"check": next(k for k, v in checks.items() if not v)},
        data={
            "phi": [[str(x) for x in row] for row in result.phi],
            "reducible_member": result.reducible_member.to_string(),
            "smooth_member": result.smooth_member.to_string(),
            "gluing_orbits": [list(map(list, o)) for o in result.gluing_orbits],
            "checks": checks,
        },
    )
