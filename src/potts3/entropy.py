"""Entropy apparatus: Shannon/binary entropy, per-site log-count sequences
with Aitken extrapolation, and the exact law of a window restriction with
its maximal-entropy inequality checks.

The window restriction law: restrict to Λ_n a uniform proper coloring of
the odd-padded box (Λ_m plus the odd vertices of Λ_{m+1}) whose exterior is
frozen to the odd-phase boundary coloring.  The law is computed exactly
through extension counts N(τ), which depend only on τ's boundary ring: one
frontier count with the ring kept gives N for every ring pattern at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coloring import Coloring
from .errors import ColoringError, LatticeError
from .lattice import Lattice, box
from .oracle import (
    WINDOW_CAP,
    _assignments,
    count_colorings,
    enumerate_colorings,
    grid_region_counts,
)

BOUNDARY_COLOR = 1       # the frozen even exterior; 1 and 2 agree under the color swap


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
    S = np.frombuffer(b"".join(_assignments(width, path, 3, {})), dtype=np.uint8)
    S = S.reshape(-1, width)
    T = (S[:, None, :] != S[None, :, :]).all(axis=2).astype(float)
    lam = float(max(abs(np.linalg.eigvals(T))))
    return math.log(lam) / width


def topological_entropy_estimate(d: int, sizes: list[int]) -> TopoEntropyReport:
    """Per-site log-count sequence with Aitken-extrapolated limit.

    d=1: exact path counts per half-width n.  d=2: infinite strips of the
    given widths (transfer-matrix top eigenvalue).  d=3: exact counts of
    tiny boxes per half-width.  Other d have no route (ColoringError); a box
    too large to count refuses via the counter's state cap.
    """
    if d not in (1, 2, 3):
        raise ColoringError(f"no counting route for d={d}; d must be 1, 2 or 3")
    if len(sizes) < 3:
        raise ColoringError("need at least 3 sizes to extrapolate")
    per_site: list[float] = []
    for size in sizes:
        if d == 2:
            per_site.append(_strip_per_site(size))
        else:
            lat = box(d, size)
            per_site.append(math.log(count_colorings(lat, 3)) / lat.nv)
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


# -- the window's boundary ring -----------------------------------------------


def _ring_cells(inner: Lattice) -> list[tuple[int, ...]]:
    """The boundary ring of the window Λ_n, in raster order."""
    return [c for c in inner.coords if max(abs(x) for x in c) == inner.n]


def _ring_pattern(tau: Coloring, ring: list[tuple[int, ...]]) -> bytes:
    return bytes(tau.colors[tau.lattice.index(c)] for c in ring)


# -- extendable colorings ------------------------------------------------------


@dataclass
class ExtendableReport:
    total: int
    extendable: int
    colorings: list[Coloring]

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.extendable, self.total)


def extendable_colorings(n: int) -> ExtendableReport:
    """C'_3(Λ_n) in d = 2 under the operative surrogate: extendable to
    Λ_{n+2} with free boundary.  τ extends exactly when its ring does, so
    one count over Λ_{n+2} minus Λ_n's interior, with the ring kept, decides
    every τ; it runs (and refuses past ``WINDOW_CAP`` states) before the
    window is listed."""
    inner = box(2, n)
    ring = _ring_cells(inner)
    interior = set(inner.coords) - set(ring)
    ring_counts = grid_region_counts(set(box(2, n + 2).coords) - interior, 3, keep=ring)
    taus = list(enumerate_colorings(inner, 3, cap=WINDOW_CAP))
    keep = [tau for tau in taus if _ring_pattern(tau, ring) in ring_counts]
    return ExtendableReport(total=len(taus), extendable=len(keep), colorings=keep)


# -- the restricted-window distribution ----------------------------------------


@dataclass
class RestrictionResult:
    m: int
    n: int
    distribution: Distribution       # over support colorings τ of Λ_n
    counts: dict[bytes, int]         # τ colors -> N(τ)
    ring_counts: dict[bytes, int]    # ring pattern -> annulus extension count
    total: int
    dropped: int                     # τ ∈ C_3(Λ_n) with N(τ) = 0


def restriction_distribution(m: int, n: int) -> RestrictionResult:
    """Exact law of the window restriction via extension counts N(τ) over
    the annulus between the window and the padded box, in d = 2 (the
    region counter takes Z² cells): one count over the annulus plus the
    ring, with the ring kept, then N(τ) is read off at τ's ring.  Keeping
    the ring multiplies the frontier by the ring patterns still possible,
    so the count refuses past ``WINDOW_CAP`` states from m = 7 on (n = 1)."""
    if m <= n:
        raise ColoringError("need m > n")

    region = set(box(2, m, extended=True).coords)
    inner = box(2, n)
    ring = _ring_cells(inner)
    annulus = region - set(inner.coords)

    # exterior constraint: every region cell with a Z^2 neighbour outside the
    # region sees a frozen even vertex of the boundary color
    forbidden: dict[tuple[int, int], set[int]] = {}
    for (x, y) in annulus:
        for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            out = (x + dx, y + dy)
            if out not in region:
                if sum(out) % 2 != 0:
                    raise LatticeError("exterior of W_m must be even")
                forbidden.setdefault((x, y), set()).add(BOUNDARY_COLOR)

    found = grid_region_counts(annulus | set(ring), 3, forbidden=forbidden, keep=ring)
    taus = list(enumerate_colorings(inner, 3, cap=WINDOW_CAP))
    ring_counts: dict[bytes, int] = {}
    counts: dict[bytes, int] = {}
    outcomes: list[Coloring] = []
    for tau in taus:
        rp = _ring_pattern(tau, ring)
        nt = ring_counts.setdefault(rp, found.get(rp, 0))
        if nt:
            counts[tau.colors] = nt
            outcomes.append(tau)
    total = sum(counts.values())
    probs = [Fraction(counts[t.colors], total) for t in outcomes]
    return RestrictionResult(
        m=m,
        n=n,
        distribution=Distribution(outcomes, probs),
        counts=counts,
        ring_counts=ring_counts,
        total=total,
        dropped=len(taus) - len(outcomes),
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


def max_entropy_gap_check(m: int, n: int) -> GapReport:
    """Verify the finite maximal-entropy inequalities exactly, in d = 2.

    The entropy floor follows from the exact max-probability bound via
    H ≥ −log max p; that bound and the pinned-ring mass bound are checked
    in exact rational arithmetic.
    """
    ext = extendable_colorings(n)
    res = restriction_distribution(m, n)
    ext_set = {t.colors for t in ext.colorings}
    c3p = ext.extendable

    inner = box(2, n)
    ring_cells = _ring_cells(inner)
    bsize = len(ring_cells)

    support_ok = all(t.colors in ext_set for t in res.distribution.outcomes)

    # N(τ) can depend only on τ's ring: the annulus must touch no deeper
    # cell of Λ_n, and counts must be constant on ring groups
    ring_set = {tuple(c) for c in ring_cells}
    region = set(box(2, m, extended=True).coords)
    annulus = region - set(inner.coords)
    grouped_ok = True
    for (x, y) in annulus:
        for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c = (x + dx, y + dy)
            if c in inner.index_of and c not in ring_set:
                grouped_ok = False
    seen: dict[bytes, int] = {}
    for t in res.distribution.outcomes:
        rp = _ring_pattern(t, ring_cells)
        nt = res.counts[t.colors]
        if seen.setdefault(rp, nt) != nt:
            grouped_ok = False

    max_p = res.distribution.max_prob()
    prob_bound = Fraction(3 ** (2 * bsize), c3p)
    prob_bound_ok = max_p <= prob_bound

    h = shannon_entropy(res.distribution)
    floor = math.log(c3p) - 2 * bsize * math.log(3)
    floor_ok = h >= floor

    pinned = bytes(0 if sum(c) % 2 != 0 else 1 for c in ring_cells)
    pinned_ring = sum(_ring_pattern(t, ring_cells) == pinned for t in ext.colorings)
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
