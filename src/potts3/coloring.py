"""Colorings χ: V → {0..q−1}, properness, the boundary condition, imbalance.

The one boundary condition, ``OddBoundaryZero``, pins color 0 on a box's odd
internal boundary and optionally at a centre v₀; a torus takes none.

The zero set I(χ) = χ^{−1}(0) is the order-parameter carrier: its even/odd
split classifies colorings into Balanced / EvenHeavy / OddHeavy at threshold
ρ·n^d/2, compared in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import BoundaryConditionError, ColoringError
from .lattice import Lattice, LatticeKind, LatticeSpec, Parity, build_lattice, iter_bits

DEFAULT_RHO = Fraction(11, 50)
_BYTES = bytes(range(256))
# byte → its digit in a zero mask: "1" for color 0, "0" for any other
_ZERO_DIGITS = b"1" + b"0" * 255


class ImbalanceClass(Enum):
    BALANCED = "balanced"
    EVEN_HEAVY = "even-heavy"
    ODD_HEAVY = "odd-heavy"


class Coloring:
    """An immutable color assignment over a lattice's vertices."""

    __slots__ = ("lattice", "q", "colors")

    def __init__(self, lattice: Lattice, colors, q: int = 3):
        if q < 2:
            raise ColoringError(f"need at least 2 colors, got q={q}")
        colors = bytes(colors)
        if len(colors) != lattice.nv:
            raise ColoringError(
                f"color vector has length {len(colors)}, lattice has {lattice.nv} vertices"
            )
        bad = colors.translate(None, _BYTES[:q])
        if bad:
            raise ColoringError(f"color value {bad[0]} out of range for q={q}")
        self.lattice = lattice
        self.q = q
        self.colors = colors

    def __eq__(self, other):
        return (
            isinstance(other, Coloring)
            and self.lattice.spec == other.lattice.spec
            and self.q == other.q
            and self.colors == other.colors
        )

    def __hash__(self):
        return hash((self.lattice.spec, self.q, self.colors))

    def __repr__(self):
        return f"Coloring({self.lattice!r}, q={self.q}, {self.colors.hex()})"


def is_proper(chi: Coloring) -> bool:
    """True iff every edge is bichromatic."""
    colors = chi.colors
    for u, v in chi.lattice.edges:
        if colors[u] == colors[v]:
            return False
    return True


def zero_set(chi: Coloring) -> int:
    """I(χ) = χ^{−1}(0) as a bitmask; requires a proper coloring."""
    if not is_proper(chi):
        raise ColoringError("zero_set requires a proper coloring")
    return _zero_mask(chi.colors)


def _zero_mask(colors: bytes) -> int:
    """Bit v set iff colors[v] == 0, read in one pass as a base-2 numeral."""
    return int(colors[::-1].translate(_ZERO_DIGITS), 2)


def imbalance(chi: Coloring) -> int:
    """|I∩E| − |I∩O| (signed)."""
    even, odd = zero_counts(chi)
    return even - odd


def zero_counts(chi: Coloring) -> tuple[int, int]:
    """(|I∩E|, |I∩O|), without the properness check ``zero_set`` makes."""
    zeros, lat = _zero_mask(chi.colors), chi.lattice
    return (zeros & lat.even_mask).bit_count(), (zeros & lat.odd_mask).bit_count()


def imbalance_class(imb: int, nv: int, rho: Fraction) -> ImbalanceClass:
    """Class of imbalance ``imb`` on ``nv`` vertices at threshold ρ·nv/2, in
    exact rationals.  No range check on ρ: ρ = 1 chains share the rule."""
    # imb > rho*nv/2  <=>  2*imb*den > num*nv
    lhs = 2 * imb * rho.denominator
    rhs = rho.numerator * nv
    if lhs > rhs:
        return ImbalanceClass.EVEN_HEAVY
    if -lhs > rhs:
        return ImbalanceClass.ODD_HEAVY
    return ImbalanceClass.BALANCED


# -- the boundary condition --------------------------------------------------


@dataclass(frozen=True)
class OddBoundaryZero:
    """χ ≡ 0 on ∂_int Λ ∩ O, and χ(center) = 0 when a centre is given; box
    lattices only."""

    center: tuple[int, ...] | None = None

    def pins(self, lat: Lattice) -> dict[int, int]:
        """The pin map vertex index → color; every pin is 0."""
        if lat.kind is not LatticeKind.BOX:
            raise BoundaryConditionError("OddBoundaryZero references ∂_int Λ of a box")
        pins = {v: 0 for v in iter_bits(lat.boundary_mask & lat.odd_mask)}
        if self.center is not None:
            pins[lat.index(self.center)] = 0
        return pins


def odd_boundary_pinned(v0) -> OddBoundaryZero:
    """The C_3^O(v₀) condition: odd boundary ≡ 0 and χ(v₀) = 0.  A tuple
    centre, so ``_pin_mask``' cache can hash it."""
    return OddBoundaryZero(tuple(v0))


@lru_cache(maxsize=64)
def _pin_mask(bc: OddBoundaryZero, spec: LatticeSpec) -> int:
    """``bc``'s pinned vertices as one mask (every pin is 0), built once per
    (condition, spec); keyed by the spec, so it keeps no caller's lattice alive."""
    return sum(1 << v for v in bc.pins(build_lattice(spec)))


def satisfies_bc(chi: Coloring, bc: OddBoundaryZero | None) -> bool:
    if bc is None:
        return True
    return not _pin_mask(bc, chi.lattice.spec) & ~_zero_mask(chi.colors)


# -- stock colorings ---------------------------------------------------------


def phase_coloring(lat: Lattice, zero_on: Parity = Parity.EVEN, other: int = 1, q: int = 3) -> Coloring:
    """0 on one parity class, a fixed nonzero color on the other."""
    if not 1 <= other < q:
        raise ColoringError(f"phase color must be in [1, q), got {other}")
    buf = bytearray(lat.nv)
    for v in range(lat.nv):
        buf[v] = 0 if lat.parities[v] == zero_on.value else other
    return Coloring(lat, buf, q)
