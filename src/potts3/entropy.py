"""Entropy apparatus: Shannon entropy, per-site log-count sequences
with Aitken extrapolation, and the exact law of a window restriction with
its maximal-entropy inequality checks.

The window restriction law: restrict to Λ_n a uniform proper coloring of
the odd-padded box (Λ_m plus the odd vertices of Λ_{m+1}) whose exterior is
frozen to the odd-phase boundary coloring.  The law is computed exactly
through extension counts N(τ), which depend only on τ's boundary ring: one
frontier count with the ring kept gives N for every ring pattern at once,
and one count over Λ_n with the ring kept gives how many window colorings
carry each pattern, so no window coloring is ever listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, ColoringError, LatticeError
from .lattice import box
from .oracle import STATE_CAP, _assignments, count_colorings, grid_region_counts

BOUNDARY_COLOR = 1       # the frozen even exterior; 1 and 2 agree under the color swap


def shannon_entropy(masses) -> float:
    """−Σ k·p ln p in nats over (probability p, multiplicity k) pairs, with
    0·log 0 = 0.  A term is subtracted k times, not once as k·term, so the
    sum rounds as it would over the k outcomes one by one."""
    h = 0.0
    for p, k in masses:
        if p > 0:
            term = float(p) * (math.log(p.numerator) - math.log(p.denominator))
            for _ in range(k):
                h -= term
    return h


# -- per-site log-count sequences ---------------------------------------------


@dataclass
class TopoEntropyReport:
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
    """ln λ_max of the width-w column transfer matrix T, per site, from T's
    quotient by the colour relabelings x ↦ ax + b (mod 3).  They act freely
    on the colorings of a w ≥ 2 path, and each orbit has one representative
    reading (0, 1) first, so the equitable quotient B[X, Y] = #{b ∈ Y : b
    compatible with a_X} is 2^{w−2}-square; its rows are built in chunks."""
    if width == 1:
        return math.log(2)     # one orbit, B = [[2]]
    path = [[u for u in (v - 1, v + 1) if 0 <= u < width] for v in range(width)]
    S = np.frombuffer(b"".join(_assignments(width, path, 3, {})), dtype=np.uint8)
    S = S.reshape(-1, width).astype(np.int64)
    # each state's base-3 key after relabeling it to read (0, 1) first; the
    # listing is lexicographic, so the representatives' keys come sorted
    key = ((S - S[:, :1]) * (S[:, 1:2] - S[:, :1]) % 3) @ 3 ** np.arange(width - 1, -1, -1)
    reps = np.flatnonzero((S[:, 0] == 0) & (S[:, 1] == 1))
    orbit, R = np.searchsorted(key[reps], key), len(reps)
    B = np.zeros((R, R))
    step = max(1, 2 ** 22 // S.size)
    for lo in range(0, R, step):
        A = S[reps[lo:lo + step]]
        rows, cols = np.nonzero((A[:, None, :] != S[None, :, :]).all(axis=2))
        B[lo:lo + step] = np.bincount(rows * R + orbit[cols], minlength=len(A) * R).reshape(-1, R)
    return math.log(max(abs(np.linalg.eigvals(B)))) / width


def topological_entropy_estimate(d: int, sizes: list[int]) -> TopoEntropyReport:
    """Per-site log-count sequence with Aitken-extrapolated limit.

    d=1: exact path counts per half-width n.  d=2: infinite strips of the
    given widths (transfer-matrix top eigenvalue).  Other d, fewer than 3
    sizes, a size below 1 or sizes that do not strictly increase (repeats
    zero Aitken's denominators) have no route (ColoringError): d=3 needs
    three boxes, and box(3,2)'s frontier already passes the state cap.  A
    strip of more than ``STATE_CAP`` states (w ≥ 14) refuses before any
    strip is listed.
    """
    if d not in (1, 2):
        raise ColoringError(f"no counting route for d={d}; d must be 1 or 2")
    if len(sizes) < 3:
        raise ColoringError("need at least 3 sizes to extrapolate")
    if min(sizes) < 1:
        raise ColoringError(f"sizes must be at least 1, got {min(sizes)}")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ColoringError(f"sizes must strictly increase, got {sizes}")
    if d == 2 and (states := 3 * 2 ** (max(sizes) - 1)) > STATE_CAP:
        raise CapExceeded(f"a width-{max(sizes)} strip has {states} states, past the cap {STATE_CAP}")
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
    return TopoEntropyReport(
        per_site=per_site,
        passes=passes,
        estimate=passes[-1][-1],
        spread=abs(passes[-1][-1] - passes[-2][-1]),
    )


# -- the window and its boundary ring -----------------------------------------


def _window(n: int) -> tuple[set[tuple[int, int]], list[tuple[int, int]]]:
    """The cells of the window Λ_n = [−n, n]² and its boundary ring, in raster order."""
    cells = {(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)}
    return cells, sorted(c for c in cells if max(map(abs, c)) == n)


@lru_cache(maxsize=1)
def _ring_multiplicity(n: int) -> tuple[tuple[bytes, int], ...]:
    """How many window colorings carry each ring pattern of C_3(Λ_n), counted once for a
    gap check's restriction law and extendability filter; a tuple, so no caller changes it."""
    cells, ring = _window(n)
    return tuple(grid_region_counts(cells, 3, keep=ring).items())


# -- extendable colorings ------------------------------------------------------


@dataclass
class ExtendableReport:
    total: int
    multiplicity: dict[bytes, int]   # extendable ring pattern -> window colorings carrying it

    @property
    def extendable(self) -> int:
        return sum(self.multiplicity.values())


def extendable_colorings(n: int) -> ExtendableReport:
    """C'_3(Λ_n) in d = 2 under the operative surrogate: extendable to
    Λ_{n+2} with free boundary.  τ extends exactly when its ring does, so
    one count over Λ_{n+2} minus Λ_n's interior, with the ring kept, decides
    every ring pattern; it runs (and refuses past ``WINDOW_CAP`` states)
    before the window's ring multiplicities are counted."""
    cells, ring = _window(n)
    extends = grid_region_counts((_window(n + 2)[0] - cells) | set(ring), 3, keep=ring)
    mult = _ring_multiplicity(n)
    return ExtendableReport(
        total=sum(k for _, k in mult),
        multiplicity={r: k for r, k in mult if r in extends},
    )


# -- the restricted-window distribution ----------------------------------------


@dataclass
class RestrictionResult:
    ring_counts: dict[bytes, int]    # ring pattern of C_3(Λ_n) -> extension count N
    multiplicity: dict[bytes, int]   # ring pattern -> window colorings carrying it
    total: int                       # Σ multiplicity·N
    dropped: int                     # τ ∈ C_3(Λ_n) with N(τ) = 0
    ring_only: bool                  # the annulus touches no cell of Λ_n inside the ring


def restriction_distribution(m: int, n: int) -> RestrictionResult:
    """Exact law of the window restriction via extension counts N over the
    annulus between the window and the padded box, in d = 2 (the region
    counter takes Z² cells): one count over the annulus plus the ring, with
    the ring kept, gives N per ring pattern; τ has probability N(ring of τ)
    / total.  Keeping the ring multiplies the frontier by the ring patterns
    still possible, so the count refuses past ``WINDOW_CAP`` states from
    m = 7 on (n = 1)."""
    if not 0 <= n < m:
        raise ColoringError(f"need 0 <= n < m, got m={m}, n={n}")

    # W_m: Λ_m plus the odd cells of Λ_{m+1}
    region = {(x, y) for x in range(-m - 1, m + 2) for y in range(-m - 1, m + 2)
              if max(abs(x), abs(y)) <= m or (x + y) % 2}
    inner, ring = _window(n)
    annulus = region - inner

    # every annulus cell with a Z^2 neighbour outside the region sees a
    # frozen even vertex of the boundary color; N depends on τ only through
    # its ring if no annulus cell sees a window cell inside the ring
    forbidden: dict[tuple[int, int], set[int]] = {}
    ring_only = True
    for (x, y) in annulus:
        for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            out = (x + dx, y + dy)
            if out not in region:
                if sum(out) % 2 != 0:
                    raise LatticeError("exterior of W_m must be even")
                forbidden.setdefault((x, y), set()).add(BOUNDARY_COLOR)
            elif out in inner and max(map(abs, out)) < n:
                ring_only = False

    found = grid_region_counts(annulus | set(ring), 3, forbidden=forbidden, keep=ring)
    mult = dict(_ring_multiplicity(n))
    ring_counts = {r: found.get(r, 0) for r in mult}
    return RestrictionResult(
        ring_counts=ring_counts,
        multiplicity=mult,
        total=sum(k * ring_counts[r] for r, k in mult.items()),
        dropped=sum(k for r, k in mult.items() if not ring_counts[r]),
        ring_only=ring_only,
    )


@dataclass
class GapReport:
    m: int
    n: int
    boundary_size: int
    c3_prime: int
    pinned_ring_count: int
    entropy_nats: float
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
    in exact rational arithmetic.  The restriction law comes first, so
    m ≤ n and n < 0 are refused before the extendability count runs.
    """
    res = restriction_distribution(m, n)
    ext = extendable_colorings(n)
    c3p = ext.extendable
    _, ring = _window(n)
    bsize = len(ring)

    support_ok = all(r in ext.multiplicity for r, nr in res.ring_counts.items() if nr)

    max_p = Fraction(max(res.ring_counts.values()), res.total)
    prob_bound = Fraction(3 ** (2 * bsize), c3p)
    prob_bound_ok = max_p <= prob_bound

    h = shannon_entropy(
        (Fraction(nr, res.total), res.multiplicity[r]) for r, nr in sorted(res.ring_counts.items())
    )
    floor = math.log(c3p) - 2 * bsize * math.log(3)
    floor_ok = h >= floor

    pinned = bytes(0 if sum(c) % 2 != 0 else 1 for c in ring)
    pinned_ring = ext.multiplicity.get(pinned, 0)
    ring_mass_ok = pinned_ring * 3 ** bsize >= c3p

    return GapReport(
        m=m,
        n=n,
        boundary_size=bsize,
        c3_prime=c3p,
        pinned_ring_count=pinned_ring,
        entropy_nats=h,
        entropy_floor=floor,
        entropy_floor_holds=floor_ok,
        max_prob=max_p,
        max_prob_bound=prob_bound,
        max_prob_bound_holds=prob_bound_ok,
        support_extendable=support_ok,
        ring_mass_bound_holds=ring_mass_ok,
        n_depends_on_ring_only=res.ring_only,
    )
