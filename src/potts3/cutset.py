"""Peierls cutsets: γ(χ) on boxes, the families Γ(χ) on tori, and their
structural properties.

Construction (box): I = χ^{−1}(0); R = component of (I^E)^+ containing v₀;
C = component of the complement containing the box boundary; γ = ∇(C),
W = complement of C.  On the torus every (component R of (I^P)^+, component
C of its complement) pair yields a cutset, seeded at parity P ∈ {E, O}.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .coloring import Coloring, is_proper, satisfies_bc, zero_set, OddBoundaryZero
from .errors import ColoringError, NotEvenClassError, PropertyViolation
from .lattice import (
    Lattice,
    LatticeKind,
    closure,
    connected_components,
    edge_boundary,
    external_boundary,
    internal_boundary,
    iter_bits,
)

# |γ| ≥ d² is a large-d statement; below this dimension it is reported only.
LARGE_D_THRESHOLD = 10


class SeedParity(Enum):
    EVEN_SEEDED = "even"
    ODD_SEEDED = "odd"


@dataclass(frozen=True)
class Cutset:
    """A minimal edge cutset γ = ∇(C) with its region W = complement(C)."""

    lattice: Lattice
    region: int            # W
    complement: int        # C
    edges: tuple[tuple[int, int], ...]
    witness: int           # the seed component R
    seed_parity: SeedParity
    interior: int          # int γ (torus rule: smaller side, ties to W)

    @property
    def size(self) -> int:
        return len(self.edges)

    def region_parts(self) -> tuple[int, int]:
        """(W^E, W^O)."""
        lat = self.lattice
        return self.region & lat.even_mask, self.region & lat.odd_mask


@dataclass(frozen=True)
class Profile:
    """Pairs (cutset size c_i, witness vertex v_i)."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for c, _v in self.entries:
            if c < 1:
                raise ValueError(f"profile sizes must be positive, got {c}")


def _check_q3(chi: Coloring) -> None:
    if chi.q != 3:
        raise ColoringError("cutset machinery requires q = 3")


def _seed_mask(lat: Lattice, parity: SeedParity) -> int:
    return lat.even_mask if parity is SeedParity.EVEN_SEEDED else lat.odd_mask


def build_box_cutset(chi: Coloring, v0: int) -> Cutset:
    """γ(χ) for χ ∈ C_3^O(v₀): depends only on I(χ)."""
    lat = chi.lattice
    _check_q3(chi)
    if lat.kind is not LatticeKind.BOX or lat.spec.extended:
        raise ColoringError("box cutsets are built on plain boxes")
    if lat.d < 2:
        raise ColoringError(f"box cutsets need d >= 2, got d={lat.d}")
    if not (lat.even_mask >> v0) & 1 or (lat.boundary_mask >> v0) & 1:
        raise ColoringError("v0 must be an interior even vertex")
    if not is_proper(chi):
        raise ColoringError("cutset construction needs a proper coloring")
    if not satisfies_bc(chi, OddBoundaryZero()) or chi.colors[v0] != 0:
        raise ColoringError("coloring is not in C_3^O(v0)")

    zeros = zero_set(chi)
    seed_plus = closure(lat, zeros & lat.even_mask)
    region_r = next(c for c in connected_components(lat, seed_plus) if (c >> v0) & 1)
    comp_mask = lat.full_mask & ~region_r
    boundary_comps = [
        c for c in connected_components(lat, comp_mask) if c & lat.boundary_mask
    ]
    if len(boundary_comps) != 1 or (lat.boundary_mask & ~boundary_comps[0]):
        raise PropertyViolation(
            "box boundary not contained in a single component of the complement"
        )
    comp_c = boundary_comps[0]
    region_w = lat.full_mask & ~comp_c
    return Cutset(
        lattice=lat,
        region=region_w,
        complement=comp_c,
        edges=tuple(edge_boundary(lat, comp_c)),
        witness=region_r,
        seed_parity=SeedParity.EVEN_SEEDED,
        interior=region_w,
    )


def _torus_cutsets_for_parity(lat, zeros, parity: SeedParity) -> list[Cutset]:
    out = []
    seed_plus = closure(lat, zeros & _seed_mask(lat, parity))
    for region_r in connected_components(lat, seed_plus):
        comp_mask = lat.full_mask & ~region_r
        for comp_c in connected_components(lat, comp_mask):
            region_w = lat.full_mask & ~comp_c
            wc = region_w.bit_count()
            cc = comp_c.bit_count()
            out.append(
                Cutset(
                    lattice=lat,
                    region=region_w,
                    complement=comp_c,
                    edges=tuple(edge_boundary(lat, comp_c)),
                    witness=region_r,
                    seed_parity=parity,
                    interior=region_w if wc <= cc else comp_c,
                )
            )
    return out


def build_torus_cutsets(chi: Coloring) -> list[Cutset]:
    """All cutsets γ(R, C, χ) over both seed parities, deterministic order."""
    lat = chi.lattice
    _check_q3(chi)
    if lat.kind is not LatticeKind.TORUS:
        raise ColoringError("torus cutsets are built on tori")
    if not is_proper(chi):
        raise ColoringError("cutset construction needs a proper coloring")
    zeros = zero_set(chi)
    return _torus_cutsets_for_parity(lat, zeros, SeedParity.EVEN_SEEDED) + \
        _torus_cutsets_for_parity(lat, zeros, SeedParity.ODD_SEEDED)


@dataclass(frozen=True)
class FamilyResult:
    """Γ(χ) when the greedy rule succeeds; branch None marks NotEvenClass."""

    branch: SeedParity | None
    cutsets: tuple[Cutset, ...]

    @property
    def is_even_class(self) -> bool:
        return self.branch is SeedParity.EVEN_SEEDED


def _greedy_family(lat, zeros, parity: SeedParity):
    seed_zeros = zeros & _seed_mask(lat, parity)
    family = []
    covered = 0
    seed_plus = closure(lat, seed_zeros)
    for region_r in connected_components(lat, seed_plus):
        comps = connected_components(lat, lat.full_mask & ~region_r)
        if not comps:
            return None
        # largest complement component, ties by smallest vertex index
        comp_c = max(comps, key=lambda c: (c.bit_count(), -(c & -c).bit_length()))
        region_w = lat.full_mask & ~comp_c
        if region_w.bit_count() > comp_c.bit_count():
            return None  # interior would be C, violating int γ = W
        if covered & region_w:
            return None  # interiors must be pairwise disjoint
        covered |= region_w
        family.append(
            Cutset(
                lattice=lat,
                region=region_w,
                complement=comp_c,
                edges=tuple(edge_boundary(lat, comp_c)),
                witness=region_r,
                seed_parity=parity,
                interior=region_w,
            )
        )
    if seed_zeros & ~covered:
        return None  # family must cover I^P
    return tuple(family)


def select_family(chi: Coloring) -> FamilyResult:
    """Γ(χ) satisfying the torus family conditions, even branch preferred."""
    lat = chi.lattice
    _check_q3(chi)
    if lat.kind is not LatticeKind.TORUS:
        raise ColoringError("cutset families live on tori")
    if not is_proper(chi):
        raise ColoringError("cutset construction needs a proper coloring")
    zeros = zero_set(chi)
    for parity in (SeedParity.EVEN_SEEDED, SeedParity.ODD_SEEDED):
        family = _greedy_family(lat, zeros, parity)
        if family is not None:
            return FamilyResult(parity, family)
    return FamilyResult(None, ())


# -- property verification ---------------------------------------------------


@dataclass(frozen=True)
class CutsetReport:
    """One boolean per structural cutset property (None = not applicable)."""

    p1_anchored: bool | None       # v0 ∈ W and ∂_int Λ ∩ W = ∅ (box only)
    p2_boundary_parity: bool
    p3_zero_free_moat: bool
    p4_interior_zero_support: bool
    p5_region_closure: bool
    size_identity: bool            # |γ| = 2d(|W^O| − |W^E|), parity-oriented
    p8a_isoperimetry: bool | None  # |γ| ≥ |W|^{1−1/d} where applicable
    p8b_d_squared: bool            # |γ| ≥ d² (reported; asserted only at large d)
    p8b_asserted: bool
    two_layer: bool                # χ constant 1/2 per side on each moat component

    def all_hold(self) -> bool:
        vals = [
            self.p1_anchored,
            self.p2_boundary_parity,
            self.p3_zero_free_moat,
            self.p4_interior_zero_support,
            self.p5_region_closure,
            self.size_identity,
            self.p8a_isoperimetry,
            self.two_layer,
        ]
        if self.p8b_asserted:
            vals.append(self.p8b_d_squared)
        return all(v for v in vals if v is not None)


def verify_properties(cut: Cutset, chi: Coloring, v0: int | None = None) -> CutsetReport:
    """Evaluate the cutset properties for ``cut`` built from ``chi``.

    Properties are parity-oriented: for odd-seeded cutsets the roles of E
    and O swap throughout.
    """
    lat = cut.lattice
    zeros = zero_set(chi)
    seed = _seed_mask(lat, cut.seed_parity)
    other = lat.odd_mask if cut.seed_parity is SeedParity.EVEN_SEEDED else lat.even_mask
    region = cut.region
    w_seed = region & seed     # W^E for even-seeded
    w_other = region & other   # W^O for even-seeded
    int_b = internal_boundary(lat, region)
    ext_b = external_boundary(lat, region)

    if lat.kind is LatticeKind.BOX and v0 is not None:
        p1 = bool((region >> v0) & 1) and not (region & lat.boundary_mask)
    else:
        p1 = None

    p2 = not (int_b & ~other) and not (ext_b & ~seed)
    p3 = not (int_b & zeros) and not (ext_b & zeros)
    p4 = all(lat.nbr_mask[v] & region & zeros for v in iter_bits(int_b))
    ext_of_wseed = external_boundary(lat, w_seed)
    p5_first = w_other == ext_of_wseed
    hull = 0
    for v in iter_bits(seed):
        if lat.nbr_mask[v] and not (lat.nbr_mask[v] & ~w_other):
            hull |= 1 << v
    p5 = p5_first and (w_seed == hull)

    size = cut.size
    identity = size == 2 * lat.d * (w_other.bit_count() - w_seed.bit_count())

    wsz = region.bit_count()
    if lat.kind is LatticeKind.TORUS and wsz > lat.nv // 2:
        p8a = None
    else:
        p8a = size ** lat.d >= wsz ** (lat.d - 1)
    p8b = size >= lat.d ** 2

    moat = int_b | ext_b
    two_layer = True
    for comp in connected_components(lat, moat):
        side_in = {chi.colors[v] for v in iter_bits(comp & int_b)}
        side_out = {chi.colors[v] for v in iter_bits(comp & ext_b)}
        if not (side_in | side_out) <= {1, 2}:
            two_layer = False
            break
        if len(side_in) > 1 or len(side_out) > 1 or (side_in and side_in == side_out):
            two_layer = False
            break

    return CutsetReport(
        p1_anchored=p1,
        p2_boundary_parity=p2,
        p3_zero_free_moat=p3,
        p4_interior_zero_support=p4,
        p5_region_closure=p5,
        size_identity=identity,
        p8a_isoperimetry=p8a,
        p8b_d_squared=p8b,
        p8b_asserted=lat.d >= LARGE_D_THRESHOLD,
        two_layer=two_layer,
    )


def _reaches_complement(cut: Cutset, closed: set[tuple[int, int]]) -> bool:
    """BFS from W with ``closed`` edges removed; does it touch C?"""
    lat = cut.lattice
    reach = cut.region
    stack = list(iter_bits(cut.region))
    while stack:
        v = stack.pop()
        for u in lat.neighbors[v]:
            if (reach >> u) & 1:
                continue
            e = (u, v) if u < v else (v, u)
            if e in closed:
                continue
            reach |= 1 << u
            stack.append(u)
    return bool(reach & cut.complement)


def minimality_check(cut: Cutset) -> bool:
    """γ separates W from C, and reopening any single edge reconnects them."""
    closed = set(cut.edges)
    if _reaches_complement(cut, closed):
        return False
    return all(_reaches_complement(cut, closed - {e}) for e in cut.edges)


def profile_membership(chi: Coloring, profile: Profile) -> bool:
    """Does Γ(χ) contain a sub-collection matching the profile?

    Entry i needs a distinct family cutset γ with |γ| = c_i and
    v_i ∈ (int γ)^E.
    """
    fam = select_family(chi)
    if fam.branch is not SeedParity.EVEN_SEEDED:
        raise NotEvenClassError("profile membership is defined on the even class")
    lat = chi.lattice
    candidates: list[list[int]] = []
    for c, v in profile.entries:
        match = [
            k
            for k, cut in enumerate(fam.cutsets)
            if cut.size == c and ((cut.interior & lat.even_mask) >> v) & 1
        ]
        if not match:
            return False
        candidates.append(match)

    used: set[int] = set()

    def assign(i: int) -> bool:
        if i == len(candidates):
            return True
        for k in candidates[i]:
            if k not in used:
                used.add(k)
                if assign(i + 1):
                    return True
                used.discard(k)
        return False

    return assign(0)
