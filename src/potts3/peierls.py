"""The cutset repair map, its exact inverse, the unit flow ν, and the
bound B(K′, L′) in the case an exact approximation forces.

The repair map recolors the cutset region W by a one-step shift composed
with the color transposition f = (1 2), resetting a chosen subset S of the
entry layer to color 0.  The flow ν puts weight
(1/4)^{|C∩I(χ′)|}(3/4)^{|C∖I(χ′)|}(1/2)^{|D|} on each image, with unit total
out-flow; all ν arithmetic is exact rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .coloring import Coloring, _zero_mask
from .cutset import Cutset
from .errors import ColoringError, PropertyViolation
from .lattice import (
    Lattice,
    check_direction,
    external_boundary,
    internal_boundary,
    iter_bits,
)

# f as a byte table: swaps 1 and 2, fixes 0 and every other byte
_F = bytes((0, 2, 1)) + bytes(range(3, 256))


def boundary_layer(lat: Lattice, region: int, s: int) -> int:
    """W^s = {x ∈ ∂_int W : σ_{−s}(x) ∉ W} = ∂_int W ∖ σ_s(W)."""
    return internal_boundary(lat, region) & ~lat.shift_set(region, s)


def _shift_pairs(table, mask: int):
    pairs = tuple((v, table[v]) for v in iter_bits(mask))
    return None if any(w is None for _, w in pairs) else pairs


class _Plan(NamedTuple):
    """What (W, s) fixes for every image of φ_s.  A pair tuple is None where
    the shift leaves a box inside W."""

    layer: int       # W^s
    repair: tuple | None    # (v, σ_{−s}(v)) over W∖W^s, recolored by ``_repair``
    rebuild: tuple | None   # (v, σ_s(v)) over W, read by ``reconstruct``


@lru_cache(maxsize=256)
def _plan(lat: Lattice, region: int, s: int) -> _Plan:
    """The plan of (W, s) on ``lat``."""
    layer = boundary_layer(lat, region, s)
    return _Plan(layer, _shift_pairs(lat.shift_tables[-s], region & ~layer),
                 _shift_pairs(lat.shift_tables[s], region))


def _recolor(chi: Coloring, pairs, buf: bytearray) -> Coloring:
    """``buf`` with f∘χ(w) written at v for each (v, w) of ``pairs``."""
    if pairs is None:
        raise PropertyViolation("shift leaves the lattice inside W")
    swapped = chi.colors.translate(_F)
    for v, w in pairs:
        buf[v] = swapped[w]
    return Coloring(chi.lattice, buf, chi.q)


def _repair(chi: Coloring, region: int, s: int, subset: int) -> Coloring:
    """The repair map: 0 on S, χ on (W^s∖S) ∪ (V∖W), f∘χ∘σ_{−s} on W∖W^s."""
    buf = bytearray(chi.colors)
    while subset:
        low = subset & -subset
        buf[low.bit_length() - 1] = 0
        subset ^= low
    return _recolor(chi, _plan(chi.lattice, region, s).repair, buf)


def reconstruct(chi_prime: Coloring, region: int, s: int) -> Coloring:
    """Invert the repair map: χ = χ′ off W, f∘χ′∘σ_s on W."""
    lat = chi_prime.lattice
    check_direction(s, lat.d)
    return _recolor(chi_prime, _plan(lat, region, s).rebuild, bytearray(chi_prime.colors))


def _subsets(layer: int):
    """Every S ⊆ ``layer``, in the order of the binary counter over its bits:
    the submasks in increasing order."""
    subset = 0
    while True:
        yield subset
        if subset == layer:
            return
        subset = (subset - layer) & layer


def phi_family(chi: Coloring, region: int, s: int):
    """Lazily yield (S, repaired coloring) over all S ⊆ W^s; the family
    has exactly 2^{|W^s|} members."""
    for subset in _subsets(_plan(chi.lattice, region, s).layer):
        yield subset, _repair(chi, region, s, subset)


# -- approximations ----------------------------------------------------------


@dataclass(frozen=True)
class Approximation:
    """Coarse-grained stand-in A for the region W, split by parity."""

    lattice: Lattice
    even_part: int
    odd_part: int


def exact_approximation(cut: Cutset) -> Approximation:
    return Approximation(cut.lattice, *cut.region_parts())


def _q_masks(approx: Approximation) -> tuple[int, int]:
    lat = approx.lattice
    outside_odd = lat.odd_mask & ~approx.odd_part
    q_even = approx.even_part & external_boundary(lat, outside_odd)
    q_odd = outside_odd & external_boundary(lat, approx.even_part)
    return q_even, q_odd


# -- the flow ----------------------------------------------------------------


def flow_sets(cut: Cutset, approx: Approximation, s: int, q_even: int) -> tuple[int, int, int]:
    """(W^s, C, D) with C = W^s ∩ A^O ∩ σ_s(Q^E), D = W^s ∖ C and Q^E = ``q_even``."""
    lat = cut.lattice
    layer = _plan(lat, cut.region, s).layer
    c_set = layer & approx.odd_part & lat.shift_set(q_even, s)
    return layer, c_set, layer & ~c_set


def membership_subset(chi: Coloring, chi_prime: Coloring, region: int, s: int) -> int:
    """The unique S whose repair image is χ′, or raise if χ′ is not one."""
    subset = _plan(chi.lattice, region, s).layer & _zero_mask(chi_prime.colors)
    if _repair(chi, region, s, subset) != chi_prime:
        raise ColoringError("chi_prime is not in the shift family of chi")
    return subset


def _nu(chi_prime: Coloring, c_set: int, d_set: int) -> Fraction:
    """ν(χ, χ′) from the flow sets C and D, for a χ′ known to lie in φ_s(χ)."""
    return Fraction(_nu_numerator(chi_prime, c_set),
                    4 ** c_set.bit_count() * 2 ** d_set.bit_count())


def _nu_numerator(chi_prime: Coloring, c_set: int) -> int:
    """ν(χ, χ′) · 4^{|C|} 2^{|D|} = 3^{|C∖I(χ′)|}."""
    return 3 ** (c_set & ~_zero_mask(chi_prime.colors)).bit_count()


@dataclass(frozen=True)
class FlowTotal:
    closed_form: Fraction
    explicit: Fraction | None   # None when |W^s| exceeded the explicit cap
    agrees: bool | None
    sets: tuple[int, int, int]  # (W^s, C, D)
    image: Coloring | None      # the last image summed, S = W^s; None past the cap


def flow_out_total(
    chi: Coloring,
    cut: Cutset,
    approx: Approximation,
    s: int,
    explicit_cap: int = 20,
) -> FlowTotal:
    """Σ_{χ′∈φ_s(χ)} ν(χ, χ′): 1 in closed form, cross-checked by explicit
    summation over all S whenever |W^s| ≤ ``explicit_cap``.

    The explicit sum visits every image, checks that ``reconstruct`` maps
    it back to χ (PropertyViolation if not), and sums the numerators
    ν·4^{|C|} 2^{|D|} as integers over that common denominator.  The result
    keeps the flow sets and the last image, the one with S = W^s.
    """
    layer, c_set, d_set = flow_sets(cut, approx, s, _q_masks(approx)[0])
    closed = ((Fraction(1, 4) + Fraction(3, 4)) ** c_set.bit_count()
              * (Fraction(1, 2) + Fraction(1, 2)) ** d_set.bit_count())
    if layer.bit_count() > explicit_cap:
        return FlowTotal(closed, None, None, (layer, c_set, d_set), None)
    region = cut.region
    numerator = 0
    for subset in _subsets(layer):
        chi_prime = _repair(chi, region, s, subset)
        if reconstruct(chi_prime, region, s) != chi:
            raise PropertyViolation("a repair image does not reconstruct to chi")
        numerator += _nu_numerator(chi_prime, c_set)
    total = Fraction(numerator, 4 ** c_set.bit_count() * 2 ** d_set.bit_count())
    return FlowTotal(closed, total, total == closed, (layer, c_set, d_set), chi_prime)


# -- the bound ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    status: str                      # "ok" or "skipped"
    nu: Fraction | None = None
    b_value: float | None = None     # B(K′, L′), float rendering of the √3 power
    b_squared: Fraction | None = None
    nu_le_b: bool | None = None      # exact comparison via squares; diagnostic only
    ratio: float | None = None


def bound_report(
    chi: Coloring,
    chi_prime: Coloring,
    cut: Cutset,
    approx: Approximation,
    s: int,
) -> BoundReport:
    """B(K′, L′) when the approximation leaves Q^E and Q^O empty; otherwise
    the report is marked skipped.

    With both empty, U is empty and the graph between them has no edges, so
    (∅, ∅, ∅) is the only good triple, both the minimizing and the
    canonical one: K′ = L′ = ∅, B² = (3/4)^{|W^O|−|W^E|}, C = ∅ and
    ν = 2^{−|W^s|}.  The exact approximation of an even-seeded cutset is
    such a case, by P5.  The comparison ν ≤ B is computed exactly on squares
    and reported, never asserted.  χ′ must lie in φ_s(χ), as ν is read
    without ``membership_subset``'s check.
    """
    q_even, q_odd = _q_masks(approx)
    if q_even or q_odd:
        return BoundReport(status="skipped")
    w_even, w_odd = cut.region_parts()
    _, c_set, d_set = flow_sets(cut, approx, s, q_even)
    nu = _nu(chi_prime, c_set, d_set)
    b_squared = Fraction(3, 4) ** (w_odd.bit_count() - w_even.bit_count())
    b_value = math.sqrt(b_squared)
    return BoundReport(
        status="ok",
        nu=nu,
        b_value=b_value,
        b_squared=b_squared,
        nu_le_b=nu * nu <= b_squared,
        ratio=float(nu) / b_value if b_value else math.inf,
    )
