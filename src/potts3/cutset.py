"""Peierls cutsets: γ(χ) on boxes, the families Γ(χ) on tori, and their
structural properties.

Construction (box): I = χ^{−1}(0); R = component of (I^E)^+ containing v₀;
C = component of the complement containing the box boundary; γ = ∇(C),
W = complement of C.  On the torus every (component R of (I^P)^+, component
C of its complement) pair yields a cutset, seeded at parity P ∈ {E, O}.
A cutset is kept as its region W, its seed parity and its size |γ|: R is
used only while building, and int γ = W for a box cutset by construction
and for a family member because the greedy rule refuses |W| > |V∖W|.
The paper's |γ| ≥ d² is a large-d statement, and nothing here computes it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .coloring import Coloring, satisfies_bc, zero_set, OddBoundaryZero
from .errors import ColoringError, PropertyViolation
from .lattice import (
    Lattice,
    LatticeKind,
    Parity,
    closure,
    connected_components,
    edge_boundary,
    external_boundary,
    internal_boundary,
    iter_bits,
)

@dataclass(frozen=True)
class Cutset:
    """A minimal edge cutset γ = ∇(C) by its region W = complement(C)."""

    lattice: Lattice
    region: int            # W
    seed_parity: Parity
    size: int              # |γ|

    def region_parts(self) -> tuple[int, int]:
        """(W^E, W^O)."""
        lat = self.lattice
        return self.region & lat.even_mask, self.region & lat.odd_mask


def _check_q3(chi: Coloring) -> None:
    if chi.q != 3:
        raise ColoringError("cutset machinery requires q = 3")


def _seed_mask(lat: Lattice, parity: Parity) -> int:
    return lat.even_mask if parity is Parity.EVEN else lat.odd_mask


def _cutset(lat: Lattice, comp_c: int, parity: Parity) -> Cutset:
    """γ = ∇(C) with W = complement(C); |γ| is counted edge by edge."""
    return Cutset(lat, lat.full_mask & ~comp_c, parity, len(edge_boundary(lat, comp_c)))


def build_box_cutset(chi: Coloring, v0: int) -> Cutset:
    """γ(χ) for χ ∈ C_3^O(v₀): depends only on I(χ)."""
    lat = chi.lattice
    _check_q3(chi)
    if lat.kind is not LatticeKind.BOX:
        raise ColoringError("box cutsets are built on boxes")
    if lat.d < 2:
        raise ColoringError(f"box cutsets need d >= 2, got d={lat.d}")
    if not (lat.even_mask >> v0) & 1 or (lat.boundary_mask >> v0) & 1:
        raise ColoringError("v0 must be an interior even vertex")
    zeros = zero_set(chi)   # refuses an improper coloring
    if not satisfies_bc(chi, OddBoundaryZero(lat.coords[v0])):
        raise ColoringError("coloring is not in C_3^O(v0)")

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
    return _cutset(lat, boundary_comps[0], Parity.EVEN)


@dataclass(frozen=True)
class FamilyResult:
    """Γ(χ) when the greedy rule succeeds; branch None marks NotEvenClass."""

    branch: Parity | None
    cutsets: tuple[Cutset, ...]


def _greedy_family(lat, zeros, parity: Parity):
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
        family.append(_cutset(lat, comp_c, parity))
    if seed_zeros & ~covered:
        return None  # family must cover I^P
    return tuple(family)


def check_family_scope(lat: Lattice) -> None:
    """Refuse a box, and Z^d_2: each direction's two wrap edges are one edge there,
    so |γ| = 2d(|W^O| − |W^E|) cannot hold; the paper's tori have n ≥ 4."""
    if lat.kind is not LatticeKind.TORUS or lat.n == 2:
        raise ColoringError(f"cutset families live on tori with n >= 4, not on {lat}")


def select_family(chi: Coloring) -> FamilyResult:
    """Γ(χ) satisfying the torus family conditions, even branch preferred."""
    lat = chi.lattice
    _check_q3(chi)
    check_family_scope(lat)
    zeros = zero_set(chi)   # refuses an improper coloring
    for parity in Parity:
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
    two_layer: bool                # χ constant 1/2 per side on each moat component

    def all_hold(self) -> bool:
        """Every applicable property holds."""
        vals = (getattr(self, name) for name in _PROPERTIES)
        return all(v for v in vals if v is not None)


# every field of the report, read once by ``fields``, so a new property
# joins the verdict
_PROPERTIES = tuple(f.name for f in fields(CutsetReport))


def verify_properties(cut: Cutset, chi: Coloring, v0: int | None = None) -> CutsetReport:
    """Evaluate the cutset properties for ``cut`` built from ``chi``.

    Properties are parity-oriented: for odd-seeded cutsets the roles of E
    and O swap throughout.
    """
    lat = cut.lattice
    zeros = zero_set(chi)
    seed = _seed_mask(lat, cut.seed_parity)
    other = lat.full_mask & ~seed
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
    p4 = not int_b & ~lat.dilate(region & zeros)
    # the hull: seed vertices whose neighbours all lie in W^other (every
    # vertex of a box or torus has one)
    hull = seed & ~lat.dilate(lat.full_mask & ~w_other)
    p5 = w_other == external_boundary(lat, w_seed) and w_seed == hull

    size = cut.size
    identity = size == 2 * lat.d * (w_other.bit_count() - w_seed.bit_count())

    wsz = region.bit_count()
    if lat.kind is LatticeKind.TORUS and wsz > lat.nv // 2:
        p8a = None
    else:
        p8a = size ** lat.d >= wsz ** (lat.d - 1)

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
        two_layer=two_layer,
    )
