"""Entropy apparatus: Shannon/binary entropy, per-site log-count sequences
with Aitken extrapolation, and the exact law of a window restriction with
its maximal-entropy inequality checks.

The window restriction law: restrict to Λ_n a uniform proper coloring of
the odd-padded box (Λ_m plus the odd vertices of Λ_{m+1}) whose exterior is
frozen to the odd-phase boundary coloring.  The law is computed exactly
through extension counts N(τ), which depend only on τ's boundary ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coloring import Coloring
from .errors import CapExceeded, ColoringError, LatticeError
from .lattice import box
from .oracle import (
    _assignments,
    _slab_transfer,
    count_colorings,
    count_grid_region_colorings,
    enumerate_colorings,
)


@dataclass
class Distribution:
    """Finitely supported distribution with exact rational masses."""

    outcomes: list
    probs: list[Fraction]

    def __post_init__(self):
        if len(self.outcomes) != len(self.probs):
            raise ColoringError("outcomes and probabilities differ in length")
        if any(p < 0 for p in self.probs):
            raise ColoringError("negative probability")
        if sum(self.probs, Fraction(0)) != 1:
            raise ColoringError("probabilities must sum to exactly 1")

    def max_prob(self) -> Fraction:
        return max(self.probs, default=Fraction(0))


def shannon_entropy(dist: Distribution) -> float:
    """−Σ p ln p in nats, with 0·log 0 = 0."""
    h = 0.0
    for p in dist.probs:
        if p > 0:
            h -= float(p) * (math.log(p.numerator) - math.log(p.denominator))
    return h


def binary_entropy(x: float) -> float:
    """H(x) = −x log₂ x − (1−x) log₂(1−x); endpoints give 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0,1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


# -- per-site log-count sequences ---------------------------------------------


@dataclass
class TopoEntropyReport:
    d: int
    sizes: list[int]
    per_site: list[float]      # nats per site
    passes: list[list[float]]  # Aitken iterates, passes[0] = per_site
    estimate: float
    spread: float              # |last of final pass − last of previous pass|


def _aitken_pass(seq: list[float]) -> list[float]:
    out = []
    for i in range(len(seq) - 2):
        d1 = seq[i + 1] - seq[i]
        d2 = seq[i + 2] - seq[i + 1]
        den = d2 - d1
        out.append(seq[i + 2] if den == 0 else seq[i + 2] - d2 * d2 / den)
    return out


def _strip_per_site(width: int) -> float:
    """ln λ_max of the width-w column transfer matrix, per site."""
    path = [[u for u in (v - 1, v + 1) if 0 <= u < width] for v in range(width)]
    states, compat = _slab_transfer(width, path)
    T = np.zeros((len(states), len(states)))
    for i, row in enumerate(compat):
        T[i, row] = 1.0
    lam = float(max(abs(np.linalg.eigvals(T))))
    return math.log(lam) / width


def topological_entropy_estimate(d: int, sizes: list[int]) -> TopoEntropyReport:
    """Per-site log-count sequence with Aitken-extrapolated limit.

    d=1: exact path counts per half-width n.  d=2: infinite strips of the
    given widths (transfer-matrix top eigenvalue).  d=3: exact counts of
    tiny boxes per half-width.  Infeasible requests refuse via the counting
    caps.
    """
    if len(sizes) < 3:
        raise ColoringError("need at least 3 sizes to extrapolate")
    per_site: list[float] = []
    for size in sizes:
        if d == 2:
            per_site.append(_strip_per_site(size))
        elif d in (1, 3):
            lat = box(d, size)
            cnt = count_colorings(lat, 3)
            per_site.append(math.log(cnt) / lat.nv)
        else:
            raise CapExceeded(f"no feasible counting route for d={d}")
    passes = [per_site]
    while len(passes[-1]) >= 3:
        passes.append(_aitken_pass(passes[-1]))
    spread = abs(passes[-1][-1] - passes[-2][-1]) if len(passes) >= 2 else math.inf
    return TopoEntropyReport(
        d=d,
        sizes=list(sizes),
        per_site=per_site,
        passes=passes,
        estimate=passes[-1][-1],
        spread=spread,
    )


# -- extendable colorings ------------------------------------------------------


def _extends_to_larger_box(tau: Coloring, depth: int = 2) -> bool:
    """Can τ on Λ_n be completed to a proper coloring of Λ_{n+depth}?"""
    lat = tau.lattice
    big = box(lat.d, lat.n + depth)
    pins = {
        big.index(c): tau.colors[i]
        for i, c in enumerate(lat.coords)
    }
    return next(_assignments(big.nv, big.neighbors, 3, pins), None) is not None


@dataclass
class ExtendableReport:
    total: int
    extendable: int
    colorings: list[Coloring]

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.extendable, self.total)


def extendable_colorings(d: int, n: int, depth: int = 2, cap: int = 2_000_000) -> ExtendableReport:
    """C'_3(Λ_n) under the operative surrogate: extendable to Λ_{n+depth}
    with free boundary."""
    lat = box(d, n)
    keep = []
    total = 0
    for tau in enumerate_colorings(lat, 3, cap=cap):
        total += 1
        if _extends_to_larger_box(tau, depth):
            keep.append(tau)
    return ExtendableReport(total=total, extendable=len(keep), colorings=keep)


# -- the restricted-window distribution ----------------------------------------


def _padded_box_cells(d: int, m: int) -> set[tuple[int, ...]]:
    import itertools

    cells = set(itertools.product(range(-m, m + 1), repeat=d))
    for c in itertools.product(range(-m - 1, m + 2), repeat=d):
        if sum(c) % 2 != 0:
            cells.add(c)
    return cells


@dataclass
class RestrictionResult:
    m: int
    n: int
    boundary_color: int
    distribution: Distribution       # over support colorings τ of Λ_n
    counts: dict[bytes, int]         # τ colors -> N(τ)
    ring_counts: dict[bytes, int]    # ring pattern -> annulus extension count
    total: int
    dropped: int                     # τ ∈ C_3(Λ_n) with N(τ) = 0


def restriction_distribution(
    m: int,
    n: int,
    d: int = 2,
    boundary_color: int = 1,
    cap: int = 2_000_000,
) -> RestrictionResult:
    """Exact law of the window restriction via extension counts N(τ) over
    the annulus between the window and the padded box.  d = 2 only (the
    skyline counter is two-dimensional)."""
    if d != 2:
        raise CapExceeded(f"restriction distribution is implemented for d=2, not d={d}")
    if m <= n:
        raise ColoringError("need m > n")
    if boundary_color not in (1, 2):
        raise ColoringError("boundary phase colors even vertices 1 or 2")

    region = _padded_box_cells(2, m)
    inner = box(2, n)
    inner_cells = set(inner.coords)
    ring_cells = sorted(c for c in inner.coords if max(abs(x) for x in c) == n)
    annulus = region - inner_cells

    # exterior constraint: every region cell with a Z^2 neighbour outside the
    # region sees a frozen even vertex of the boundary color
    base_forbidden: dict[tuple[int, int], set[int]] = {}
    for (x, y) in annulus:
        for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            out = (x + dx, y + dy)
            if out not in region:
                if sum(out) % 2 != 0:
                    raise LatticeError("exterior of W_m must be even")
                base_forbidden.setdefault((x, y), set()).add(boundary_color)

    ring_nbrs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (x, y) in annulus:
        touching = []
        for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c = (x + dx, y + dy)
            if c in inner_cells:
                touching.append(c)
        if touching:
            ring_nbrs[(x, y)] = touching

    ring_index = {c: i for i, c in enumerate(ring_cells)}

    def ring_pattern(tau: Coloring) -> bytes:
        return bytes(tau.colors[inner.index(c)] for c in ring_cells)

    taus = list(enumerate_colorings(inner, 3, cap=cap))
    ring_counts: dict[bytes, int] = {}
    for tau in taus:
        rp = ring_pattern(tau)
        if rp in ring_counts:
            continue
        forb = {c: set(s) for c, s in base_forbidden.items()}
        for cell, touch in ring_nbrs.items():
            for t in touch:
                forb.setdefault(cell, set()).add(rp[ring_index[t]])
        ring_counts[rp] = count_grid_region_colorings(annulus, 3, forbidden=forb)

    counts: dict[bytes, int] = {}
    outcomes: list[Coloring] = []
    dropped = 0
    total = 0
    for tau in taus:
        nt = ring_counts[ring_pattern(tau)]
        if nt == 0:
            dropped += 1
            continue
        counts[tau.colors] = nt
        outcomes.append(tau)
        total += nt
    probs = [Fraction(counts[t.colors], total) for t in outcomes]
    return RestrictionResult(
        m=m,
        n=n,
        boundary_color=boundary_color,
        distribution=Distribution(outcomes, probs),
        counts=counts,
        ring_counts=ring_counts,
        total=total,
        dropped=dropped,
    )


@dataclass
class GapReport:
    m: int
    n: int
    boundary_size: int
    c3_prime: int
    pinned_ring_count: int
    entropy_nats: float
    log_c3_prime: float
    entropy_floor: float
    entropy_floor_holds: bool      # H >= log|C'| - 2|ring| log 3 (float check)
    max_prob: Fraction
    max_prob_bound: Fraction
    max_prob_bound_holds: bool     # exact rationals; implies the entropy floor
    support_extendable: bool
    ring_mass_bound_holds: bool    # pinned-ring colorings carry ≥ 3^{-|ring|} of C'_3
    n_depends_on_ring_only: bool


def max_entropy_gap_check(
    m: int,
    n: int,
    d: int = 2,
    boundary_color: int = 1,
) -> GapReport:
    """Verify the finite maximal-entropy inequalities exactly.

    The entropy floor follows from the exact max-probability bound via
    H ≥ −log max p; that bound and the pinned-ring mass bound are checked
    in exact rational arithmetic.
    """
    res = restriction_distribution(m, n, d=d, boundary_color=boundary_color)
    ext = extendable_colorings(d, n)
    ext_set = {t.colors for t in ext.colorings}
    c3p = ext.extendable

    inner = box(d, n)
    ring_cells = [c for c in inner.coords if max(abs(x) for x in c) == n]
    bsize = len(ring_cells)

    support_ok = all(t.colors in ext_set for t in res.distribution.outcomes)

    # N(τ) can depend only on τ's ring: the annulus must touch no deeper
    # cell of Λ_n, and counts must be constant on ring groups
    ring_set = {tuple(c) for c in ring_cells}
    region = _padded_box_cells(2, m)
    annulus = region - set(inner.coords)
    grouped_ok = True
    for (x, y) in annulus:
        for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c = (x + dx, y + dy)
            if c in inner.index_of and c not in ring_set:
                grouped_ok = False
    seen: dict[bytes, int] = {}
    for t in res.distribution.outcomes:
        rp = bytes(t.colors[inner.index(c)] for c in ring_cells)
        nt = res.counts[t.colors]
        if seen.setdefault(rp, nt) != nt:
            grouped_ok = False

    max_p = res.distribution.max_prob()
    prob_bound = Fraction(3 ** (2 * bsize), c3p)
    prob_bound_ok = max_p <= prob_bound

    h = shannon_entropy(res.distribution)
    floor = math.log(c3p) - 2 * bsize * math.log(3)
    floor_ok = h >= floor

    pinned_ring = 0
    for t in ext.colorings:
        ok = True
        for c in ring_cells:
            want = 0 if sum(c) % 2 != 0 else 1
            if t.colors[inner.index(c)] != want:
                ok = False
                break
        if ok:
            pinned_ring += 1
    ring_mass_ok = pinned_ring * 3 ** bsize >= c3p

    return GapReport(
        m=m,
        n=n,
        boundary_size=bsize,
        c3_prime=c3p,
        pinned_ring_count=pinned_ring,
        entropy_nats=h,
        log_c3_prime=math.log(c3p),
        entropy_floor=floor,
        entropy_floor_holds=floor_ok,
        max_prob=max_p,
        max_prob_bound=prob_bound,
        max_prob_bound_holds=prob_bound_ok,
        support_extendable=support_ok,
        ring_mass_bound_holds=ring_mass_ok,
        n_depends_on_ring_only=grouped_ok,
    )
