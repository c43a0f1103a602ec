"""Lattice-level calculus for double and bidouble covers.

A surface's Picard group is modeled as ℤ^r with a symmetric intersection
matrix plus a finite torsion group; divisor classes are vectors in that
model.  On top of this the module checks cover building data (the branch
and square-root classes of a ℤ₂ or ℤ₂² cover), evaluates the standard
numerical-invariant formulas, classifies how an order-2 automorphism of
the base can lift to the cover, decides 2-divisibility questions exactly,
and tests whether a configuration of nodal classes is an even set.

Effectivity is a caller-asserted tag: the lattice cannot see whether a
class is actually represented by a curve, so branch classes must be
tagged claimed-effective by whoever builds the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from .abelian import FinAbGroup, halve, invariant_factors
from .groups import SmallGroup, abelian_label, classify_order8, generated_group
from .reports import CheckReport
from .scalars import exact_int, int_tuple

Vector = Tuple[int, ...]


@dataclass(frozen=True)
class PicardModel:
    """ℤ^r with a symmetric pairing, a torsion group, and a canonical class.

    `even_lattice` asserts that D² is even for every free class; since the
    off-diagonal contributions to D² are always even, this is equivalent to
    the diagonal of the intersection matrix being even, which is validated.
    Torsion pairs to zero against everything, so the pairing only reads the
    free parts.  Named classes make the presets self-describing.
    """

    gram: Tuple[Tuple[int, ...], ...]
    torsion: FinAbGroup
    k_free: Vector
    k_torsion: Vector
    even_lattice: bool = False
    class_names: Tuple[Tuple[str, Vector, Vector, bool], ...] = ()

    def __post_init__(self):
        g = tuple(map(int_tuple, self.gram))
        object.__setattr__(self, "gram", g)
        r = len(g)
        for row in g:
            if len(row) != r:
                raise ValueError("intersection matrix is not square")
        for i in range(r):
            for j in range(r):
                if g[i][j] != g[j][i]:
                    raise ValueError(
                        f"intersection matrix is not symmetric at ({i},{j})"
                    )
        if self.even_lattice:
            for i in range(r):
                if g[i][i] % 2 != 0:
                    raise ValueError(
                        f"even_lattice set but basis class {i} has odd square {g[i][i]}"
                    )
        object.__setattr__(self, "k_free", int_tuple(self.k_free))
        object.__setattr__(self, "k_torsion", self.torsion.reduce(self.k_torsion))
        if len(self.k_free) != r:
            raise ValueError("canonical class has the wrong free rank")
        names = []
        for name, free, tors, eff in self.class_names:
            if len(free) != r:
                raise ValueError(f"named class {name!r} has the wrong free rank")
            names.append(
                (str(name), int_tuple(free), self.torsion.reduce(tors), bool(eff))
            )
        object.__setattr__(self, "class_names", tuple(names))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def K(self) -> "DivClass":
        return DivClass(self, self.k_free, self.k_torsion)

    def zero(self) -> "DivClass":
        return DivClass(self, (0,) * self.rank, self.torsion.zero())

    def named(self, name: str) -> "DivClass":
        for n, free, tors, eff in self.class_names:
            if n == name:
                return DivClass(self, free, tors, eff)
        known = [n for n, *_ in self.class_names]
        raise KeyError(f"no class named {name!r}; model defines {known}")

    def pair(self, a: Sequence[int], b: Sequence[int]) -> int:
        return sum(
            x * self.gram[i][j] * y
            for i, x in enumerate(a)
            for j, y in enumerate(b)
        )

    def two_divisible(
        self, cls: "DivClass", modulo: Sequence["DivClass"] = ()
    ) -> Tuple[bool, Optional["DivClass"]]:
        """Is cls = 2*X modulo the subgroup spanned by `modulo`?

        Free and torsion parts are solved together by `abelian.halve`, which
        confirms the witness X before returning it.
        """
        if cls.model != self:
            raise ValueError("class does not belong to this model")
        for m in modulo:
            if m.model != self:
                raise ValueError("modulo class does not belong to this model")
        half = halve(
            self.torsion,
            cls.free + cls.torsion,
            [m.free + m.torsion for m in modulo],
            free_rank=self.rank,
        )
        if half is None:
            return False, None
        return True, DivClass(self, half[: self.rank], half[self.rank :])


@dataclass(frozen=True)
class DivClass:
    """A divisor class: free vector + torsion element, in one model."""

    model: PicardModel
    free: Vector
    torsion: Vector = ()
    effective: bool = False

    def __post_init__(self):
        object.__setattr__(self, "free", int_tuple(self.free))
        if len(self.free) != self.model.rank:
            raise ValueError(
                f"free part has length {len(self.free)}, model rank {self.model.rank}"
            )
        t = self.torsion if self.torsion else self.model.torsion.zero()
        object.__setattr__(self, "torsion", self.model.torsion.reduce(t))

    def _same_model(self, other: "DivClass") -> None:
        if self.model != other.model:
            raise ValueError("classes live in different Picard models")

    def __add__(self, other: "DivClass") -> "DivClass":
        self._same_model(other)
        free = tuple(a + b for a, b in zip(self.free, other.free))
        tors = self.model.torsion.add(self.torsion, other.torsion)
        return DivClass(self.model, free, tors)

    def __sub__(self, other: "DivClass") -> "DivClass":
        return self + (-other)

    def __neg__(self) -> "DivClass":
        free = tuple(-a for a in self.free)
        return DivClass(self.model, free, self.model.torsion.neg(self.torsion))

    def __rmul__(self, n: int) -> "DivClass":
        n = exact_int(n)
        free = tuple(n * a for a in self.free)
        return DivClass(self.model, free, self.model.torsion.scale(n, self.torsion))

    def dot(self, other: "DivClass") -> int:
        self._same_model(other)
        return self.model.pair(self.free, other.free)

    def square(self) -> int:
        return self.dot(self)

    def is_zero(self) -> bool:
        return self.free == (0,) * self.model.rank and not any(self.torsion)

    def as_effective(self) -> "DivClass":
        return DivClass(self.model, self.free, self.torsion, True)

    def __repr__(self) -> str:
        tag = "+t" + "".join(str(x) for x in self.torsion) if any(self.torsion) else ""
        return f"({','.join(str(x) for x in self.free)}){tag}"


@dataclass(frozen=True)
class DoubleData:
    """Building data of a flat double cover: 2L should equal the branch B."""

    L: DivClass
    B: DivClass

    def __post_init__(self):
        self.L._same_model(self.B)
        if not self.B.effective:
            raise ValueError("branch class B must be tagged claimed-effective")

    @property
    def model(self) -> PicardModel:
        return self.L.model

    def relations(self) -> Tuple[Tuple[str, DivClass], ...]:
        return (("2L = B", 2 * self.L - self.B),)


@dataclass(frozen=True)
class BidoubleData:
    """Building data of a ℤ₂² cover: branches B₁,B₂,B₃ and roots L₁,L₂.

    The third root is derived, L₃ = L₁+L₂−B₃, and the reduced relations
    2L₁ = B₂+B₃ and 2L₂ = B₁+B₃ then imply the full symmetric set
    2Lᵢ = Bⱼ+B_k, Lᵢ+Lⱼ = L_k+B_k; `relations` lists every one of them so
    validation re-checks the implication on concrete data.
    """

    L1: DivClass
    L2: DivClass
    B1: DivClass
    B2: DivClass
    B3: DivClass

    def __post_init__(self):
        for c in (self.L2, self.B1, self.B2, self.B3):
            self.L1._same_model(c)
        for name in ("B1", "B2", "B3"):
            if not getattr(self, name).effective:
                raise ValueError(f"branch class {name} must be tagged claimed-effective")

    @property
    def model(self) -> PicardModel:
        return self.L1.model

    @property
    def L3(self) -> DivClass:
        return self.L1 + self.L2 - self.B3

    def relations(self) -> Tuple[Tuple[str, DivClass], ...]:
        L3 = self.L3
        return (
            ("2L1 = B2+B3", 2 * self.L1 - self.B2 - self.B3),
            ("2L2 = B1+B3", 2 * self.L2 - self.B1 - self.B3),
            ("2L3 = B1+B2", 2 * L3 - self.B1 - self.B2),
            ("L1+L2 = L3+B3", self.L1 + self.L2 - L3 - self.B3),
            ("L1+L3 = L2+B2", self.L1 + L3 - self.L2 - self.B2),
            ("L2+L3 = L1+B1", self.L2 + L3 - self.L1 - self.B1),
        )


def validate(data: Union[DoubleData, BidoubleData]) -> CheckReport:
    """Check every cover relation exactly, free and torsion parts both."""
    failures = [(name, diff) for name, diff in data.relations() if not diff.is_zero()]
    payload: Dict[str, object] = {"relations_checked": len(data.relations())}
    if isinstance(data, BidoubleData):
        payload["L3"] = repr(data.L3)
    if failures:
        name, diff = failures[0]
        return CheckReport(
            check="building-data",
            status="fail",
            witness={"relation": name, "difference": repr(diff)},
            data=payload,
        )
    return CheckReport(check="building-data", status="pass", data=payload)


def _require_valid(data: Union[DoubleData, BidoubleData]) -> None:
    for name, diff in data.relations():
        if not diff.is_zero():
            raise ValueError(f"invalid building data: {name} fails by {diff!r}")


def double_invariants(data: DoubleData, chi_base: int) -> Tuple[int, int]:
    """(χ(O), K²) of the double cover from χ of the base and the root L.

    χ = 2χ_base + L(L+K)/2 and K² = 2(K+L)².  A non-integral χ term means
    the building data is inconsistent and raises.
    """
    _require_valid(data)
    K = data.model.K
    term = data.L.dot(data.L + K)
    if term % 2 != 0:
        raise ValueError(
            f"inconsistent building data: L(L+K) = {term} is odd, χ would not be an integer"
        )
    chi = 2 * chi_base + term // 2
    ksq = 2 * (K + data.L).square()
    return chi, ksq


def bidouble_invariants(data: BidoubleData, chi_base: int) -> Tuple[int, int]:
    """(χ(O), K²) of the ℤ₂² cover: χ = 4χ_base + ½ΣLᵢ(Lᵢ+K), K² = (2K+ΣB)²."""
    _require_valid(data)
    K = data.model.K
    term = sum(L.dot(L + K) for L in (data.L1, data.L2, data.L3))
    if term % 2 != 0:
        raise ValueError(
            f"inconsistent building data: ΣLᵢ(Lᵢ+K) = {term} is odd, χ would not be an integer"
        )
    chi = 4 * chi_base + term // 2
    total_branch = data.B1 + data.B2 + data.B3
    ksq = (2 * K + total_branch).square()
    return chi, ksq


def free_quotient_invariants(chi: int, ksq: int) -> Tuple[int, int]:
    """(χ, K²) of the quotient by a free involution."""
    if chi % 2 != 0 or ksq % 2 != 0:
        raise ValueError(
            f"(χ, K²) = ({chi}, {ksq}) is not divisible by 2; the action cannot be free"
        )
    return chi // 2, ksq // 2


# ---------------------------------------------------------------------------
# lifting an involution of the base to the cover


@dataclass(frozen=True)
class LiftSpec:
    """How a base automorphism ρ interacts with cover building data.

    case "a": ρ fixes every Bᵢ and Lⱼ of bidouble data (ρ² = 1).
    case "b": ρ swaps B₁↔B₂ and L₁↔L₂, fixing B₃ (ρ² = 1).
    case "double": ρ fixes the B and L of double-cover data; ρ may have
    any finite order d ≥ 1.
    """

    case: str
    rho_order: int = 2

    def __post_init__(self):
        if self.case not in ("a", "b", "double"):
            raise ValueError(f"case must be 'a', 'b' or 'double', got {self.case!r}")
        if self.rho_order < 1:
            raise ValueError(f"rho_order {self.rho_order} < 1")
        if self.case in ("a", "b") and self.rho_order != 2:
            raise ValueError(f"case {self.case!r} needs an involution, ρ of order 2")


def classify_lift(spec: LiftSpec) -> frozenset:
    """Isomorphism classes possible for the group generated by the deck
    transformations together with a lift of ρ.

    Case "b" pins the group; case "a" admits two classes and no computable
    invariant in scope separates them, so both are returned.  For double
    covers the two candidate labels coincide exactly when ρ has odd order.
    """
    if spec.case == "b":
        return frozenset({"D4"})
    if spec.case == "a":
        return frozenset({"Z2^3", "Z4xZ2"})
    d = spec.rho_order
    split = FinAbGroup(invariant_factors([2, d])).label
    nonsplit = FinAbGroup((2 * d,)).label
    return frozenset({split, nonsplit})


def dihedral_witness() -> Dict[str, object]:
    """An explicit order-8 realization of the case-"b" lift structure.

    Generators: r (the lift of ρ, order 4) and s (a deck involution g₁),
    realized as symmetries of a square and closed into a multiplication
    table.  The checks mirror what the lattice data promises: r² lands in
    the deck subgroup as g₃, s·r has order 2, and conjugation by r swaps
    g₁ with g₂ while fixing g₃, the branch-swap in group form.
    """

    def compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(p[q[i]] for i in range(4))

    rot = (1, 2, 3, 0)
    flip = (0, 3, 2, 1)
    ident = (0, 1, 2, 3)
    group, elems = generated_group([rot, flip], compose, ident)
    idx = {e: i for i, e in enumerate(elems)}
    r, s = idx[rot], idx[flip]
    g3 = group.mul(r, r)
    g1 = s
    g2 = group.mul(g1, g3)
    deck = {group.identity, g1, g2, g3}
    conj = {a: group.mul(group.mul(r, a), group.inv(r)) for a in deck}
    return {
        "label": classify_order8(group),
        "rho_order": group.element_order(r),
        "rho_squared_is_g3": group.mul(r, r) == g3,
        "g1_rho_order": group.element_order(group.mul(g1, r)),
        "deck_is_klein": all(group.mul(a, a) == group.identity for a in deck)
        and len(deck) == 4,
        "conjugation_swaps_g1_g2": conj[g1] == g2 and conj[g2] == g1 and conj[g3] == g3,
        "group": group,
    }


def case_a_witnesses() -> Dict[str, SmallGroup]:
    """Explicit tables for both groups allowed in case "a"."""
    from .groups import cyclic_group, direct_product

    z2 = cyclic_group(2)
    z2cube = direct_product(direct_product(z2, z2), z2)
    z4z2 = direct_product(cyclic_group(4), z2)
    return {abelian_label(z2cube): z2cube, abelian_label(z4z2): z4z2}


# ---------------------------------------------------------------------------
# even sets of nodal classes


def even_node_set(model: PicardModel, classes: Sequence[DivClass]) -> CheckReport:
    """Is a configuration of (−2)-classes an even set?

    Pre: every class squares to −2 and they are pairwise orthogonal.  The
    verdict is 2-divisibility of the sum.  A genuine even set of nodes on
    a surface has cardinality divisible by 4; divisibility with k ≢ 0
    (mod 4) is arithmetically possible in lattices that are not node
    configurations (it happens in odd lattices), and is reported as an
    error rather than a pass.  The K-twisted verdict (is ΣC + K even?) is
    reported alongside, since node sets are often even only after adding
    the canonical class.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one nodal class")
    for i, c in enumerate(classes):
        if c.model != model:
            raise ValueError(f"class {i} does not belong to the given model")
        if c.square() != -2:
            raise ValueError(f"class {i} has square {c.square()}, expected -2")
        for j in range(i):
            if c.dot(classes[j]) != 0:
                raise ValueError(
                    f"classes {j} and {i} meet with number {c.dot(classes[j])}"
                )
    total = classes[0]
    for c in classes[1:]:
        total = total + c
    k = len(classes)
    divisible, half = model.two_divisible(total)
    twisted, _ = model.two_divisible(total + model.K)
    payload = {
        "cardinality": k,
        "sum": repr(total),
        "k_twisted_divisible": twisted,
    }
    if divisible:
        payload["half"] = repr(half)
        if k % 4 != 0:
            return CheckReport(
                check="even-node-set",
                status="error",
                witness={"cardinality": k, "half": repr(half)},
                notes=(
                    "the sum is two-divisible but the cardinality is not 0 mod 4;"
                    " an even set of nodes on a surface cannot do this, so the"
                    " model is not a node configuration",
                ),
                data=payload,
            )
        return CheckReport(check="even-node-set", status="pass", data=payload)
    notes = ()
    if twisted:
        notes = ("the set is not even, but becomes even after adding K",)
    return CheckReport(check="even-node-set", status="fail", notes=notes, data=payload)


# ---------------------------------------------------------------------------
# presets


def _unit(r: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(r))


def _enriques_model() -> PicardModel:
    # Basis (E, C1, C2, C3, N, C5) plus Z2 torsion generated by K.
    # N is the half of C1+C2+C3+C4+K, so C4 = 2N - C1 - C2 - C3 - K sits
    # in the lattice without being a basis vector.
    gram = (
        (0, 0, 0, 0, 0, 1),
        (0, -2, 0, 0, -1, 0),
        (0, 0, -2, 0, -1, 0),
        (0, 0, 0, -2, -1, 0),
        (0, -1, -1, -1, -2, 0),
        (1, 0, 0, 0, 0, -2),
    )
    r = 6
    names = [
        ("E", _unit(r, 0), (0,), True),
        ("C1", _unit(r, 1), (0,), True),
        ("C2", _unit(r, 2), (0,), True),
        ("C3", _unit(r, 3), (0,), True),
        ("C4", (0, -1, -1, -1, 2, 0), (1,), True),
        ("C5", _unit(r, 5), (0,), True),
        ("N", _unit(r, 4), (0,), False),
        ("K", (0,) * r, (1,), False),
        ("B", (2, 0, 0, 0, 0, 1), (1,), True),
        ("L", (1, 0, 0, 0, 1, 1), (0,), False),
    ]
    return PicardModel(
        gram=gram,
        torsion=FinAbGroup((2,)),
        k_free=(0,) * r,
        k_torsion=(1,),
        even_lattice=True,
        class_names=tuple(names),
    )


def _f2_model() -> PicardModel:
    # Ruled-surface lattice: section Gamma with Gamma^2 = -2, fiber f.
    gram = ((-2, 1), (1, 0))
    names = [
        ("Gamma", (1, 0), (), True),
        ("f", (0, 1), (), True),
        ("K", (-2, -4), (), False),
        ("B1", (2, 4), (), True),
        ("B2", (2, 4), (), True),
        ("B3", (2, 2), (), True),
        ("L1", (2, 3), (), False),
        ("L2", (2, 3), (), False),
        ("L3", (2, 4), (), False),
    ]
    return PicardModel(
        gram=gram,
        torsion=FinAbGroup(()),
        k_free=(-2, -4),
        k_torsion=(),
        even_lattice=True,
        class_names=tuple(names),
    )


def _p2_model() -> PicardModel:
    names = [("H", (1,), (), True), ("K", (-3,), (), False)]
    return PicardModel(
        gram=((1,),),
        torsion=FinAbGroup(()),
        k_free=(-3,),
        k_torsion=(),
        even_lattice=False,
        class_names=tuple(names),
    )


def _even8_model() -> PicardModel:
    # Eight pairwise-orthogonal (-2)-classes whose sum is 2N; basis
    # (C1..C7, N) with C8 = 2N - C1 - ... - C7.
    r = 8
    gram = [[0] * r for _ in range(r)]
    for i in range(7):
        gram[i][i] = -2
        gram[i][7] = gram[7][i] = -1
    gram[7][7] = -4
    names = [(f"C{i + 1}", _unit(r, i), (), True) for i in range(7)]
    names.append(("C8", (-1,) * 7 + (2,), (), True))
    names.append(("N", _unit(r, 7), (), False))
    names.append(("K", (0,) * r, (), False))
    return PicardModel(
        gram=tuple(tuple(row) for row in gram),
        torsion=FinAbGroup(()),
        k_free=(0,) * r,
        k_torsion=(),
        even_lattice=True,
        class_names=tuple(names),
    )


_PRESETS = {
    "enriques": _enriques_model,
    "f2": _f2_model,
    "p2": _p2_model,
    "even8": _even8_model,
}

def preset_model(name: str) -> PicardModel:
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return builder()


def enriques_double_data() -> DoubleData:
    """The flat-cover data 2L = B + C₁ + ⋯ + C₅ on the Enriques preset,
    packaged with the node classes absorbed into the branch."""
    m = preset_model("enriques")
    branch = m.named("B")
    for i in range(1, 6):
        branch = branch + m.named(f"C{i}")
    return DoubleData(L=m.named("L"), B=branch.as_effective())


def f2_bidouble_data() -> BidoubleData:
    m = preset_model("f2")
    return BidoubleData(
        L1=m.named("L1"),
        L2=m.named("L2"),
        B1=m.named("B1"),
        B2=m.named("B2"),
        B3=m.named("B3"),
    )


def enriques_arithmetic(model: Optional[PicardModel] = None) -> CheckReport:
    """Four exact identities on the Enriques preset.

    1. B² = 2, recomputed from the basis pairings via B = 2E + C₅ + K.
    2. L is exactly half of B + C₁ + ⋯ + C₅, and L² = −2.
    3. (L−E)² is even, so the value −3 is impossible: the lattice is even
       and no class can have odd square.
    4. The stored B equals 2E + C₅ + K as a class, torsion included.
    """
    m = model if model is not None else preset_model("enriques")
    if not m.even_lattice:
        return CheckReport(
            check="enriques-arithmetic",
            status="error",
            notes=("the parity argument needs an even lattice",),
        )
    try:
        E, C5, K, B, L = (m.named(n) for n in ("E", "C5", "K", "B", "L"))
        nodes = [m.named(f"C{i}") for i in range(1, 6)]
    except KeyError as exc:
        return CheckReport(
            check="enriques-arithmetic", status="error", notes=(str(exc),)
        )
    built = 2 * E + C5 + K
    b_square = built.square()
    branch_total = B
    for c in nodes:
        branch_total = branch_total + c
    doubling = (2 * L - branch_total).is_zero()
    l_square = L.square()
    lme_square = (L - E).square()
    checks = {
        "B_square_from_pairings": b_square == 2
        and E.square() == 0
        and E.dot(C5) == 1
        and C5.square() == -2,
        "B_is_2E_plus_C5_plus_K": (B - built).is_zero(),
        "L_halves_branch": doubling and l_square == -2,
        "parity_excludes_odd_square": lme_square % 2 == 0,
    }
    payload = {
        "B_square": b_square,
        "L_square": l_square,
        "L_minus_E_square": lme_square,
        "excluded_value": -3,
        "checks": {k: bool(v) for k, v in checks.items()},
    }
    bad = [k for k, v in checks.items() if not v]
    if bad:
        return CheckReport(
            check="enriques-arithmetic",
            status="fail",
            witness={"identity": bad[0]},
            data=payload,
        )
    return CheckReport(check="enriques-arithmetic", status="pass", data=payload)
