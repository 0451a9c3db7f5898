"""Boxes in Z^d and even discrete tori: geometry, parity, adjacency, shifts.

Vertex indexing is row-major over coordinates with the last coordinate
fastest; every "smallest vertex" tie-break in the package refers to this
order.  Vertex sets are plain ints used as dense bitmasks (bit i = vertex i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import LatticeError


class LatticeKind(Enum):
    BOX = "box"
    TORUS = "torus"


class Parity(Enum):
    EVEN = 0
    ODD = 1


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry request: a box Λ_n = {−n..n}^d or an even torus Z^d_n."""

    kind: LatticeKind
    d: int
    n: int

    def __post_init__(self):
        # a float or bool d or n hashes equal to an int one: build_lattice
        # would hand back the int spec's lattice
        if not isinstance(self.kind, LatticeKind) or {type(self.d), type(self.n)} != {int}:
            raise LatticeError(f"a spec is a LatticeKind and two ints, got {self!r}")
        if self.d < 1:
            raise LatticeError(f"dimension must be positive, got d={self.d}")
        if self.kind is LatticeKind.TORUS:
            if self.n < 2:
                raise LatticeError(f"torus side must be at least 2, got n={self.n}")
            if self.n % 2 != 0:
                raise LatticeError(
                    f"torus side must be even to preserve bipartiteness, got n={self.n}"
                )
        elif self.n < 1:
            raise LatticeError(f"box half-width must be at least 1, got n={self.n}")


class Lattice:
    """Immutable graph of a lattice region with precomputed tables.

    Built only by ``build_lattice``, one per spec.  Safe to share across
    workers; only the automorphism cache fills later.  σ_s of one vertex is
    read from ``shift_tables[s]``.  Grouped by index offset, σ_s of a set,
    ``dilate``, ∂_ext, ∂_int and closure are a few whole-int shifts, not a
    loop over the vertices of the set.
    """

    def __init__(self, spec: LatticeSpec):
        self.kind = spec.kind
        self.d = spec.d
        self.n = spec.n
        self.coords: list[tuple[int, ...]] = list(self._gen_coords(spec))
        self.nv = len(self.coords)
        self.index_of: dict[tuple[int, ...], int] = {
            c: i for i, c in enumerate(self.coords)
        }
        self.parities = [sum(c) % 2 for c in self.coords]
        self.even_mask = sum(1 << i for i, p in enumerate(self.parities) if p == 0)
        self.full_mask = (1 << self.nv) - 1
        self.odd_mask = self.full_mask ^ self.even_mask

        # σ_s as one tuple per direction: entry v is σ_s(v), None off a box
        self.shift_tables: dict[int, tuple[int | None, ...]] = {
            s: tuple(self._neighbor_index(c, abs(s) - 1, 1 if s > 0 else -1)
                     for c in self.coords)
            for s in shift_order(self.d)
        }
        # σ_s grouped by index offset, as (mask, delta) pairs: one per
        # direction on a box, two on a torus; dilate_groups merges them all
        self.shift_groups = {s: _offset_groups(enumerate(t))
                             for s, t in self.shift_tables.items()}
        self.dilate_groups = _offset_groups(
            (v, w) for t in self.shift_tables.values() for v, w in enumerate(t))
        # n=2 tori collapse the two wrap edges into one (simple graph)
        self.neighbors: list[list[int]] = [
            sorted({t[i] for t in self.shift_tables.values()} - {None})
            for i in range(self.nv)
        ]
        self.nbr_mask = [sum(1 << j for j in nbrs) for nbrs in self.neighbors]
        self.edges: list[tuple[int, int]] = [
            (u, v) for u in range(self.nv) for v in self.neighbors[u] if u < v
        ]
        # vertices with a Z^d neighbor outside the region (empty on tori)
        self.boundary_mask = sum(1 << i for i in range(self.nv)
                                 if any(t[i] is None for t in self.shift_tables.values()))

    @staticmethod
    def _gen_coords(spec: LatticeSpec):
        if spec.kind is LatticeKind.TORUS:
            yield from itertools.product(range(spec.n), repeat=spec.d)
        else:
            yield from itertools.product(range(-spec.n, spec.n + 1), repeat=spec.d)

    def _neighbor_index(self, c, axis, sign):
        cc = list(c)
        if self.kind is LatticeKind.TORUS:
            cc[axis] = (cc[axis] + sign) % self.n
            return self.index_of[tuple(cc)]
        cc[axis] += sign
        return self.index_of.get(tuple(cc))

    # -- basic queries -----------------------------------------------------

    def index(self, coords) -> int:
        try:
            return self.index_of[tuple(coords)]
        except KeyError:
            raise LatticeError(f"{tuple(coords)} is not a vertex of this lattice") from None

    def shift_set(self, mask: int, s: int) -> int:
        """Image mask σ_s(X); box images falling outside are dropped."""
        check_direction(s, self.d)
        return _apply_groups(self.shift_groups[s], mask)

    def dilate(self, mask: int) -> int:
        """N(X) = ⋃_s σ_s(X): every vertex with a neighbour in X."""
        return _apply_groups(self.dilate_groups, mask)

    # -- automorphisms -----------------------------------------------------

    def vertex_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Graph automorphisms: axis permutations and reflections, plus
        translations on tori, as vertex permutation tuples kept on the lattice."""
        if "_automorphisms" not in self.__dict__:
            self._automorphisms = self._build_automorphisms()
        return self._automorphisms

    def _build_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        perms = set()
        axes = list(itertools.permutations(range(self.d)))
        signs = list(itertools.product((1, -1), repeat=self.d))
        if self.kind is LatticeKind.TORUS:
            shifts = list(itertools.product(range(self.n), repeat=self.d))
        else:
            shifts = [(0,) * self.d]
        for axperm in axes:
            for sgn in signs:
                for sh in shifts:
                    img = []
                    for c in self.coords:
                        cc = [sgn[k] * c[axperm[k]] + sh[k] for k in range(self.d)]
                        if self.kind is LatticeKind.TORUS:
                            cc = [x % self.n for x in cc]
                        img.append(self.index_of[tuple(cc)])
                    perms.add(tuple(img))
        return tuple(sorted(perms))

    def __repr__(self):
        return f"Lattice({self.kind.value}, d={self.d}, n={self.n}, nv={self.nv})"


@lru_cache(maxsize=None)
def build_lattice(spec: LatticeSpec) -> Lattice:
    """The one lattice of ``spec`` in this process, and the only constructor
    of a ``Lattice``: later calls, ``box`` and ``torus`` share it, and lattice
    equality is identity.  Never clear this cache: a second object of one
    spec would make equal colourings on the two compare unequal."""
    return Lattice(spec)


def _offset_groups(pairs) -> tuple[tuple[int, int], ...]:
    """(mask, delta) per offset δ = w − v over the (v, w) pairs, w not None."""
    groups: dict[int, int] = {}
    for v, w in pairs:
        if w is not None:
            groups[w - v] = groups.get(w - v, 0) | 1 << v
    return tuple((mask, delta) for delta, mask in groups.items())


def _apply_groups(groups, mask: int) -> int:
    """The image of X under offset groups: each part of X moved by its delta."""
    out = 0
    for part, delta in groups:
        out |= (mask & part) << delta if delta > 0 else (mask & part) >> -delta
    return out


def box(d: int, n: int) -> Lattice:
    return build_lattice(LatticeSpec(LatticeKind.BOX, d, n))


def torus(d: int, n: int) -> Lattice:
    return build_lattice(LatticeSpec(LatticeKind.TORUS, d, n))


def shift_order(d: int) -> list[int]:
    """Direction ordering for every "smallest s" rule: +1 < −1 < +2 < −2 < …"""
    out = []
    for k in range(1, d + 1):
        out.append(k)
        out.append(-k)
    return out


def check_direction(s: int, d: int) -> None:
    if not isinstance(s, int) or s == 0 or abs(s) > d:
        raise LatticeError(f"shift direction must lie in ±{{1..{d}}}, got {s}")


# -- dense vertex-set (bitmask) helpers -------------------------------------


def iter_bits(mask: int):
    """Vertex indices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def external_boundary(lat: Lattice, mask: int) -> int:
    """∂_ext X: vertices outside X adjacent to X."""
    return lat.dilate(mask) & ~mask


def internal_boundary(lat: Lattice, mask: int) -> int:
    """∂_int X: vertices of X adjacent to the complement."""
    return mask & lat.dilate(lat.full_mask & ~mask)


def closure(lat: Lattice, mask: int) -> int:
    """X⁺ = X ∪ ∂_ext X."""
    return mask | lat.dilate(mask)


def edge_boundary(lat: Lattice, mask: int) -> list[tuple[int, int]]:
    """∇(X): edges with exactly one end in X, as (u, v) pairs with u < v."""
    out = []
    for u, v in lat.edges:
        if ((mask >> u) & 1) != ((mask >> v) & 1):
            out.append((u, v))
    return out


def connected_components(lat: Lattice, mask: int) -> list[int]:
    """Maximal connected pieces of the induced subgraph, as masks ordered by
    smallest contained vertex."""
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= lat.nbr_mask[v]
            grow &= mask & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        rest &= ~comp
    return comps
