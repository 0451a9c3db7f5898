"""Colorings χ: V → {0..q−1}, properness, boundary conditions, imbalance.

The zero set I(χ) = χ^{−1}(0) is the order-parameter carrier: its even/odd
split classifies colorings into Balanced / EvenHeavy / OddHeavy at threshold
ρ·n^d/2, compared in exact rational arithmetic.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    BoundaryConditionError,
    ColoringError,
    ColorRangeError,
    HeaderFormatError,
    PayloadLengthError,
    SerializationError,
)
from .lattice import (
    Lattice,
    LatticeKind,
    LatticeSpec,
    Parity,
    build_lattice,
    iter_bits,
)

DEFAULT_RHO = Fraction(11, 50)


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
        bad = [c for c in colors if c >= q]
        if bad:
            raise ColoringError(f"color value {bad[0]} out of range for q={q}")
        self.lattice = lattice
        self.q = q
        self.colors = colors

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

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

    def with_color(self, v: int, c: int) -> "Coloring":
        buf = bytearray(self.colors)
        buf[v] = c
        return Coloring(self.lattice, buf, self.q)


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
    mask = 0
    for v, c in enumerate(chi.colors):
        if c == 0:
            mask |= 1 << v
    return mask


def imbalance(chi: Coloring) -> int:
    """|I∩E| − |I∩O| (signed)."""
    even, odd = zero_counts(chi)
    return even - odd


def zero_counts(chi: Coloring) -> tuple[int, int]:
    """(|I∩E|, |I∩O|) without building the mask."""
    lat = chi.lattice
    even = odd = 0
    for v, c in enumerate(chi.colors):
        if c == 0:
            if lat.parities[v] == 0:
                even += 1
            else:
                odd += 1
    return even, odd


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


def classify(chi: Coloring, rho: Fraction = DEFAULT_RHO) -> ImbalanceClass:
    """Class of χ at threshold ρ·n^d/2, decided in exact rationals."""
    if chi.lattice.kind is not LatticeKind.TORUS:
        raise ColoringError("imbalance classes are defined on tori")
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ColoringError(f"rho must lie in (0,1), got {rho}")
    return imbalance_class(imbalance(chi), chi.lattice.nv, rho)


# -- boundary conditions -----------------------------------------------------


class BoundaryCondition:
    """Base: a condition reduces to a pin map vertex index → color."""

    def pins(self, lat: Lattice) -> dict[int, int]:
        raise NotImplementedError


@dataclass(frozen=True)
class OddBoundaryZero(BoundaryCondition):
    """χ ≡ 0 on ∂_int Λ ∩ O; box lattices only."""

    def pins(self, lat):
        if lat.kind is not LatticeKind.BOX:
            raise BoundaryConditionError("OddBoundaryZero references ∂_int Λ of a box")
        return {v: 0 for v in iter_bits(lat.boundary_mask & lat.odd_mask)}


@dataclass(frozen=True)
class EvenBoundaryZero(BoundaryCondition):
    """χ ≡ 0 on ∂_int Λ ∩ E; box lattices only."""

    def pins(self, lat):
        if lat.kind is not LatticeKind.BOX:
            raise BoundaryConditionError("EvenBoundaryZero references ∂_int Λ of a box")
        return {v: 0 for v in iter_bits(lat.boundary_mask & lat.even_mask)}


@dataclass(frozen=True)
class PinnedVertex(BoundaryCondition):
    vertex: tuple[int, ...]
    color: int = 0

    def pins(self, lat):
        return {lat.index(self.vertex): self.color}


@dataclass(frozen=True)
class Composite(BoundaryCondition):
    parts: tuple[BoundaryCondition, ...]

    def pins(self, lat):
        merged: dict[int, int] = {}
        for part in self.parts:
            for v, c in part.pins(lat).items():
                if merged.setdefault(v, c) != c:
                    raise BoundaryConditionError(
                        f"conflicting pins for vertex {v}: {merged[v]} vs {c}"
                    )
        return merged


def odd_boundary_pinned(v0: tuple[int, ...]) -> Composite:
    """The C_3^O(v₀) condition: odd boundary ≡ 0 and χ(v₀) = 0."""
    return Composite((OddBoundaryZero(), PinnedVertex(v0, 0)))


def satisfies_bc(chi: Coloring, bc: BoundaryCondition | None) -> bool:
    if bc is None:
        return True
    return all(chi.colors[v] == c for v, c in bc.pins(chi.lattice).items())


# -- stock colorings ---------------------------------------------------------


def phase_coloring(lat: Lattice, zero_on: Parity = Parity.EVEN, other: int = 1, q: int = 3) -> Coloring:
    """0 on one parity class, a fixed nonzero color on the other."""
    if not 1 <= other < q:
        raise ColoringError(f"phase color must be in [1, q), got {other}")
    buf = bytearray(lat.nv)
    for v in range(lat.nv):
        buf[v] = 0 if lat.parities[v] == zero_on.value else other
    return Coloring(lat, buf, q)


def mod3_coloring(lat: Lattice) -> Coloring:
    """χ(x) = Σx_i mod 3 (proper on boxes; on tori only when 3 | n)."""
    return Coloring(lat, bytes(sum(c) % 3 for c in lat.coords), 3)


# -- file format -------------------------------------------------------------

_KIND_TAGS = {LatticeKind.BOX: "box", LatticeKind.TORUS: "torus"}


def _bits_per_color(q: int) -> int:
    return max(1, (q - 1).bit_length())


def serialize(chi: Coloring) -> bytes:
    """One-line JSON header + newline + base64 of bit-packed colors.

    Colors are packed ceil(log2 q) bits each, vertex-index order, LSB-first
    within each byte.  Round-trips bit-exactly.
    """
    if chi.lattice.spec.extended:
        raise SerializationError("odd-padded regions have no file representation")
    header = {
        "kind": _KIND_TAGS[chi.lattice.kind],
        "d": chi.lattice.d,
        "n": chi.lattice.n,
        "q": chi.q,
    }
    bits = _bits_per_color(chi.q)
    acc = 0
    for i, c in enumerate(chi.colors):
        acc |= c << (i * bits)
    nbytes = (chi.lattice.nv * bits + 7) // 8
    payload = acc.to_bytes(nbytes, "little") if nbytes else b""
    return json.dumps(header, sort_keys=True).encode() + b"\n" + base64.b64encode(payload)


def deserialize(data: bytes) -> Coloring:
    """Inverse of :func:`serialize`, with distinct diagnostics per failure."""
    head, sep, body = data.partition(b"\n")
    if not sep:
        raise HeaderFormatError("missing newline after header")
    try:
        header = json.loads(head.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HeaderFormatError(f"unparseable header: {exc}") from None
    if not isinstance(header, dict) or set(header) != {"kind", "d", "n", "q"}:
        raise HeaderFormatError(f"header must have exactly kind/d/n/q, got {header!r}")
    kinds = {tag: kind for kind, tag in _KIND_TAGS.items()}
    if header["kind"] not in kinds:
        raise HeaderFormatError(f"unknown lattice kind {header['kind']!r}")
    try:
        lat = build_lattice(LatticeSpec(kinds[header["kind"]], int(header["d"]), int(header["n"])))
        q = int(header["q"])
    except (TypeError, ValueError) as exc:
        raise HeaderFormatError(f"bad header field: {exc}") from None
    if q < 2:
        raise HeaderFormatError(f"q must be at least 2, got {q}")
    try:
        payload = base64.b64decode(body, validate=True)
    except Exception as exc:
        raise PayloadLengthError(f"payload is not valid base64: {exc}") from None
    bits = _bits_per_color(q)
    expect = (lat.nv * bits + 7) // 8
    if len(payload) != expect:
        raise PayloadLengthError(
            f"payload holds {len(payload)} bytes, {lat.nv} vertices need {expect}"
        )
    acc = int.from_bytes(payload, "little")
    mask = (1 << bits) - 1
    colors = bytearray(lat.nv)
    for i in range(lat.nv):
        c = (acc >> (i * bits)) & mask
        if c >= q:
            raise ColorRangeError(f"vertex {i} decodes to color {c}, but q={q}")
        colors[i] = c
    if acc >> (lat.nv * bits):
        raise ColorRangeError("nonzero padding bits beyond the last vertex")
    return Coloring(lat, colors, q)
