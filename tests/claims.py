"""Exact checks of the paper's proof devices that the tests use as oracles.

They are the vertex-by-vertex forms of the lattice's whole-mask helpers
(σ_s, ∂_ext, ∂_int, closure, components), of ``verify_properties``' P4
and P5, of the zero mask, of the subset order of φ_s and of ``q_sets``' U,
the references for the whole-mask paths; the per-colouring
imbalance class and the imbalance histogram of
Z²ₙ by a graded row transfer, the references for ``conductance_bound``'s
histogram path; the conditional colour bound (the L-colouring lemma) on
small bipartite graphs; the torus cutset collections with profile
membership and the minimality check; the repair map on one subset and a
uniform member of its family; approximations and the direction rule; the flow weight ν of one
image and the canonical good triple; ρ-local blocking of EvenHeavy→OddHeavy
moves; the scalar draws of the chain's counter-based stream; the binary
entropy; and the mod-3 coloring.  No command or benchmark
workload runs them, so they live beside the tests and read the package's
private helpers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from potts3 import oracle
from potts3.coloring import (DEFAULT_RHO, Coloring, ImbalanceClass, imbalance,
                             imbalance_class, zero_set)
from potts3.cutset import Cutset, _check_q3, _cutset, _seed_mask, select_family
from potts3.dynamics import GOLDEN, CounterRng, _MASK64, _mix64
from potts3.errors import ColoringError, LatticeError
from potts3.lattice import (Lattice, LatticeKind, Parity, closure, connected_components, iter_bits,
                            shift_order)
from potts3.peierls import (Approximation, GoodTriple, _canonical_triple, _nu, _q_masks, _repair,
                            boundary_layer, flow_sets, membership_subset, q_sets)


# -- lattice -------------------------------------------------------------------


def shift_set_by_vertex(lat: Lattice, mask: int, s: int) -> int:
    """σ_s(X) vertex by vertex from the shift table; box images falling
    outside are dropped."""
    table = lat.shift_tables[s]
    out = 0
    for v in iter_bits(mask):
        w = table[v]
        if w is not None:
            out |= 1 << w
    return out


def dilate_by_vertex(lat: Lattice, mask: int) -> int:
    """N(X) as the union of its vertices' neighbour masks."""
    out = 0
    for v in iter_bits(mask):
        out |= lat.nbr_mask[v]
    return out


def external_boundary_by_vertex(lat: Lattice, mask: int) -> int:
    return dilate_by_vertex(lat, mask) & ~mask


def internal_boundary_by_vertex(lat: Lattice, mask: int) -> int:
    """∂_int X: each vertex of X with a neighbour in the complement."""
    comp = lat.full_mask & ~mask
    out = 0
    for v in iter_bits(mask):
        if lat.nbr_mask[v] & comp:
            out |= 1 << v
    return out


def closure_by_vertex(lat: Lattice, mask: int) -> int:
    return mask | external_boundary_by_vertex(lat, mask)


def components_by_search(lat: Lattice, mask: int) -> list[int]:
    """Connected pieces of the induced subgraph by depth-first search over
    neighbour lists, as masks ordered by smallest vertex."""
    comps, seen = [], 0
    for start in iter_bits(mask):
        if (seen >> start) & 1:
            continue
        comp, stack = 1 << start, [start]
        while stack:
            for w in lat.neighbors[stack.pop()]:
                if (mask >> w) & 1 and not (comp >> w) & 1:
                    comp |= 1 << w
                    stack.append(w)
        comps.append(comp)
        seen |= comp
    return comps


def closure_properties_by_vertex(lat: Lattice, region: int, seed: int,
                                 zeros: int) -> tuple[bool, bool]:
    """``verify_properties``' P4 (each vertex of ∂_int W has a zero
    neighbour in W) and P5 (W^other = ∂_ext W^seed, and W^seed is the hull:
    the seed vertices with neighbours, all of them in W^other)."""
    w_seed, w_other = region & seed, region & ~seed
    p4 = all(lat.nbr_mask[v] & region & zeros
             for v in iter_bits(internal_boundary_by_vertex(lat, region)))
    hull = 0
    for v in iter_bits(seed):
        if lat.nbr_mask[v] and not (lat.nbr_mask[v] & ~w_other):
            hull |= 1 << v
    return p4, w_other == external_boundary_by_vertex(lat, w_seed) and w_seed == hull


# -- coloring ------------------------------------------------------------------


def zero_mask_by_vertex(colors: bytes) -> int:
    """Bit v set iff colors[v] == 0, vertex by vertex."""
    mask = 0
    for v, c in enumerate(colors):
        if c == 0:
            mask |= 1 << v
    return mask


def mod3_coloring(lat: Lattice) -> Coloring:
    """χ(x) = Σx_i mod 3 (proper on boxes; on tori only when 3 | n)."""
    return Coloring(lat, bytes(sum(c) % 3 for c in lat.coords), 3)


def classify(chi: Coloring, rho: Fraction = DEFAULT_RHO) -> ImbalanceClass:
    """Class of χ at threshold ρ·n^d/2, decided in exact rationals."""
    if chi.lattice.kind is not LatticeKind.TORUS:
        raise ColoringError("imbalance classes are defined on tori")
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ColoringError(f"rho must lie in (0,1), got {rho}")
    return imbalance_class(imbalance(chi), chi.lattice.nv, rho)


def torus_imbalance_histogram(n: int) -> dict[int, int]:
    """{k: proper 3-colourings of Z²ₙ with |I∩E| − |I∩O| = k}, k ascending,
    by a dense row-to-row transfer graded by imbalance; no package counter
    is used.  A row is a proper colouring of the n-cycle; at height y it
    adds (−1)^y Σ_x (−1)^x [colour 0 at x].  Counts are float64 sums of
    nonnegative integers, so they are exact while every entry, and so every
    partial sum, stays below 2^53; that is checked after each step."""
    if n < 2 or n % 2:
        raise ValueError(f"the graded row transfer needs an even n >= 2, got {n}")
    rows = np.array([r for r in itertools.product(range(3), repeat=n)
                     if all(r[x] != r[x - 1] for x in range(n))])
    fits = (rows[:, None, :] != rows[None, :, :]).all(axis=2).astype(np.float64)
    row_imb = (rows == 0) @ (-1) ** np.arange(n)
    half = n * n // 2                     # |imbalance| <= |E| = n²/2
    levels = np.arange(2 * half + 1)
    total = np.zeros(len(levels))
    for first in range(len(rows)):
        ways = np.zeros((len(rows), len(levels)))
        ways[first, half + row_imb[first]] = 1
        for y in range(1, n):
            stepped = fits @ ways         # fits is symmetric
            if stepped.max() >= 2 ** 53:
                raise OverflowError("a transfer entry reached 2^53; float64 is no longer exact")
            src = levels - (-1) ** y * row_imb[:, None]   # level k came from k − row imbalance
            ways = np.where((src >= 0) & (src < len(levels)),
                            np.take_along_axis(stepped, src.clip(0, len(levels) - 1), axis=1), 0)
        total += fits[first] @ ways       # the top row must fit the first
        if total.max() >= 2 ** 53:
            raise OverflowError("a histogram entry reached 2^53; float64 is no longer exact")
    return {k - half: int(c) for k, c in zip(levels, total) if c}


# -- cutset --------------------------------------------------------------------


class NotEvenClassError(ValueError):
    """Operation requires a coloring in the even cutset class."""


@dataclass(frozen=True)
class Profile:
    """Pairs (cutset size c_i, even vertex v_i of int γ)."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for c, _v in self.entries:
            if c < 1:
                raise ValueError(f"profile sizes must be positive, got {c}")


def _torus_cutsets_for_parity(lat, zeros, parity: Parity) -> list[Cutset]:
    seed_plus = closure(lat, zeros & _seed_mask(lat, parity))
    return [
        _cutset(lat, comp_c, parity)
        for region_r in connected_components(lat, seed_plus)
        for comp_c in connected_components(lat, lat.full_mask & ~region_r)
    ]


def build_torus_cutsets(chi: Coloring) -> list[Cutset]:
    """All cutsets γ(R, C, χ) over both seed parities, deterministic order."""
    lat = chi.lattice
    _check_q3(chi)
    if lat.kind is not LatticeKind.TORUS:
        raise ColoringError("torus cutsets are built on tori")
    zeros = zero_set(chi)   # refuses an improper coloring
    return _torus_cutsets_for_parity(lat, zeros, Parity.EVEN) + \
        _torus_cutsets_for_parity(lat, zeros, Parity.ODD)


def minimality_check(cut: Cutset) -> bool:
    """γ = ∇(C) is a minimal edge cutset of the connected lattice iff both
    sides, W and C, are nonempty and connected."""
    lat = cut.lattice
    return all(len(connected_components(lat, side)) == 1
               for side in (cut.region, lat.full_mask & ~cut.region))


def profile_membership(chi: Coloring, profile: Profile) -> bool:
    """Does Γ(χ) contain a sub-collection matching the profile?

    Entry i needs a distinct family cutset γ with |γ| = c_i and
    v_i ∈ (int γ)^E, where int γ = W.
    """
    fam = select_family(chi)
    if fam.branch is not Parity.EVEN:
        raise NotEvenClassError("profile membership is defined on the even class")
    lat = chi.lattice
    candidates: list[list[int]] = []
    for c, v in profile.entries:
        match = [
            k
            for k, cut in enumerate(fam.cutsets)
            if cut.size == c and ((cut.region & lat.even_mask) >> v) & 1
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


# -- peierls -------------------------------------------------------------------


def subsets_by_counter(layer: int):
    """Every S ⊆ ``layer``, a binary counter over its bits, lowest bit first."""
    members = list(iter_bits(layer))
    for pick in range(1 << len(members)):
        subset = 0
        for i, v in enumerate(members):
            if (pick >> i) & 1:
                subset |= 1 << v
        yield subset


def resolved_by_vertex(lat: Lattice, q_even: int, s: int, chi_prime: Coloring) -> int:
    """U = {x ∈ Q^E : χ′(σ_s(x)) = 0}, vertex by vertex."""
    u = 0
    for x in iter_bits(q_even):
        fwd = lat.shift_tables[s][x]
        if fwd is not None and chi_prime.colors[fwd] == 0:
            u |= 1 << x
    return u


def shift_coloring(chi: Coloring, region: int, s: int, subset: int) -> Coloring:
    """Repair map: 0 on S, unchanged on (W^s∖S) ∪ (V∖W), f∘χ∘σ_{−s} on W∖W^s."""
    layer = boundary_layer(chi.lattice, region, s)
    if subset & ~layer:
        raise ColoringError("S must be a subset of the boundary layer W^s")
    return _repair(chi, region, s, subset)


def sample_phi(chi: Coloring, region: int, s: int, rng) -> tuple[int, Coloring]:
    """Uniform member of φ_s(χ); ``rng`` is a random.Random-like object,
    such as ``ClaimsRng``."""
    layer = boundary_layer(chi.lattice, region, s)
    subset = 0
    for v in iter_bits(layer):
        if rng.getrandbits(1):
            subset |= 1 << v
    return subset, _repair(chi, region, s, subset)


def degree_threshold(d: int) -> int:
    """⌈2d − √d⌉, the near-full-degree requirement, as an exact integer."""
    return 2 * d - math.isqrt(d)


def is_approximation(approx: Approximation, cut: Cutset) -> bool:
    """The three defining conditions, with exact integer degree thresholds."""
    lat = cut.lattice
    w_even = cut.region & lat.even_mask
    w_odd = cut.region & lat.odd_mask
    a_even, a_odd = approx.even_part, approx.odd_part
    if (w_even & ~a_even) or (a_odd & ~w_odd):
        return False
    need = degree_threshold(lat.d)
    for x in iter_bits(a_even):
        if (lat.nbr_mask[x] & a_odd).bit_count() < need:
            return False
    outside_even = lat.even_mask & ~a_even
    for y in iter_bits(lat.odd_mask & ~a_odd):
        if (lat.nbr_mask[y] & outside_even).bit_count() < need:
            return False
    return True


@dataclass(frozen=True)
class DirectionChoice:
    s: int
    rule: str                  # "primary" (two-threshold rule) or "fallback"
    layer: int                 # the winning W^s


def select_direction(cut: Cutset, approx: Approximation) -> DirectionChoice:
    """Smallest s with |W^s| ≥ .8(w_o−w_e) and |σ_s(Q^E)∩Q^O| ≤ 5|W^s|/√d.

    Both thresholds are compared exactly (integers; the second after
    squaring).  When no direction qualifies — possible at small d — fall
    back to the s maximizing |W^s|, ties by the direction ordering, and
    label the choice.
    """
    lat = cut.lattice
    if cut.seed_parity is not Parity.EVEN:
        raise ColoringError("direction selection is defined for even-seeded cutsets")
    w_even = cut.region & lat.even_mask
    w_odd = cut.region & lat.odd_mask
    gap = w_odd.bit_count() - w_even.bit_count()
    q_even, q_odd = _q_masks(approx)
    best = None
    for s in shift_order(lat.d):
        layer = boundary_layer(lat, cut.region, s)
        lsz = layer.bit_count()
        if best is None or lsz > best[1]:
            best = (s, lsz, layer)
        if 5 * lsz < 4 * gap:
            continue
        overlap = (lat.shift_set(q_even, s) & q_odd).bit_count()
        if overlap * overlap * lat.d <= 25 * lsz * lsz:
            return DirectionChoice(s=s, rule="primary", layer=layer)
    s, _, layer = best
    return DirectionChoice(s=s, rule="fallback", layer=layer)


def flow_weight(
    chi: Coloring,
    chi_prime: Coloring,
    cut: Cutset,
    approx: Approximation,
    s: int,
) -> Fraction:
    """ν(χ, χ′) = (1/4)^{|C∩I(χ′)|} (3/4)^{|C∖I(χ′)|} (1/2)^{|D|}."""
    membership_subset(chi, chi_prime, cut.region, s)
    return _nu(chi_prime, *flow_sets(cut, approx, s, _q_masks(approx)[0])[1:])


def canonical_good_triple(
    cut: Cutset,
    approx: Approximation,
    s: int,
    chi_prime: Coloring,
) -> GoodTriple:
    """(W∩Q^O, U∖W, (Q^E∖U)∖W); asserts goodness."""
    return _canonical_triple(q_sets(approx, s, chi_prime), cut.region)


# -- dynamics ------------------------------------------------------------------


class ClaimsRng(CounterRng):
    """``CounterRng`` drawn one value at a time: the scalar reference for
    ``block_u64``, with a random.Random-like ``getrandbits`` for
    ``sample_phi``."""

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64((self.key + self.counter * GOLDEN) & _MASK64)

    def getrandbits(self, k: int) -> int:
        return self.next_u64() >> (64 - k)


def hamming(chi1: Coloring, chi2: Coloring) -> int:
    if chi1.lattice is not chi2.lattice:
        raise ColoringError("colorings live on different lattices")
    return sum(1 for a, b in zip(chi1.colors, chi2.colors) if a != b)


def kempe_matrix(states: list[Coloring], lat: Lattice, q: int = 3) -> oracle.ExactTransitionMatrix:
    """The Kempe-flip chain on a listed state space, a non-local contrast to
    the Metropolis matrix: draw (v, c) with mass 1/(q|V|) and, when
    c ≠ χ(v), swap χ(v) and c on v's {χ(v), c} Kempe component.  Every vertex
    of a component K draws the same flip, so K adds |K| repeated (row, col)
    pairs; A stays symmetric and its diagonal is |V|."""
    raw = [chi.colors for chi in states]
    n = len(raw)
    index = {colors: i for i, colors in enumerate(raw)}
    moves = []
    for i, colors in enumerate(raw):
        by_color = [0] * q
        for v, c in enumerate(colors):
            by_color[c] |= 1 << v
        for a, b in itertools.combinations(range(q), 2):
            for comp in connected_components(lat, by_color[a] | by_color[b]):
                flipped = bytearray(colors)
                for v in iter_bits(comp):
                    flipped[v] = a + b - colors[v]
                moves += [i * n + index[bytes(flipped)]] * comp.bit_count()
    rows, cols = np.divmod(np.sort(np.array(moves, dtype=np.int64)), n)
    return oracle.ExactTransitionMatrix(states=raw, lattice=lat, q=q, rows=rows, cols=cols,
                                        diag=q * lat.nv - np.bincount(rows, minlength=n))


def rho_locality_check(chi1: Coloring, chi2: Coloring, rho: Fraction) -> bool:
    """Hamming distance ≤ ρ|V|, compared in exact rationals."""
    rho = Fraction(rho)
    dist = hamming(chi1, chi2)
    return dist * rho.denominator <= rho.numerator * chi1.lattice.nv


def crossing_blocked_check(chi1: Coloring, chi2: Coloring, rho: Fraction = DEFAULT_RHO) -> bool:
    """True iff (χ₁, χ₂) is an EvenHeavy→OddHeavy pair that no ρ-local chain
    can traverse in one step (its Hamming distance exceeds ρ·n^d).

    Internally asserts the tight arithmetic fact that makes the blocking
    derivable: |Δimbalance| ≤ hamming distance (one vertex enters or leaves
    the zero set on one side only).
    """
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ColoringError(f"rho must lie in (0,1], got {rho}")
    dist = hamming(chi1, chi2)
    imb1, imb2 = imbalance(chi1), imbalance(chi2)
    if abs(imb1 - imb2) > dist:
        raise ColoringError("imbalance moved faster than one per changed vertex")
    nv = chi1.lattice.nv
    crosses = (
        imbalance_class(imb1, nv, rho) is ImbalanceClass.EVEN_HEAVY
        and imbalance_class(imb2, nv, rho) is ImbalanceClass.ODD_HEAVY
    )
    return crosses and not rho_locality_check(chi1, chi2, rho)


# -- oracle --------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteGraph:
    """A small bipartite graph: explicit parities and an edge list."""

    nv: int
    edges: tuple[tuple[int, int], ...]
    parities: tuple[int, ...]    # 0 even, 1 odd

    def __post_init__(self):
        for u, v in self.edges:
            if self.parities[u] == self.parities[v]:
                raise LatticeError(f"edge ({u},{v}) joins same-parity vertices")

    def neighbor_lists(self):
        out = [[] for _ in range(self.nv)]
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        return [sorted(x) for x in out]


@dataclass
class LcolReport:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    equality: bool
    conditioned: int
    satisfying: int


def lcol_check(graph: BipartiteGraph, e1, o1, e2, o2) -> LcolReport:
    """Exact P(χ≡0 on E″, χ≡1 on O″ | χ≡0 on E′, χ≡1 on O′) vs 3^{−|E″∪O″|}.

    Vertices in e1/o1 are the conditioning sets; e2/o2 the target sets.  One
    frontier count with the targets kept: the conditioned total is the sum
    over target patterns, the satisfying count the one at the target
    pattern.  Refuses (ColoringError) when the conditioning event is empty,
    and (CapExceeded) past ``WINDOW_CAP`` frontier states.  A frontier key
    holds at most 39 base-3 digits before it could pass 2^63, and every
    target is a digit to the end, so more than 39 targets always refuse.
    """
    e1, o1, e2, o2 = set(e1), set(o1), set(e2), set(o2)
    for v in e1 | e2:
        if graph.parities[v] != 0:
            raise ColoringError(f"vertex {v} is not even")
    for v in o1 | o2:
        if graph.parities[v] != 1:
            raise ColoringError(f"vertex {v} is not odd")
    if (e1 & e2) or (o1 & o2):
        raise ColoringError("target sets must be disjoint from conditioning sets")
    pins = {v: 0 for v in e1}
    pins.update({v: 1 for v in o1})
    targets = sorted(e2 | o2)
    # the cap is read from oracle at call time, so a test can lower it there
    counts = oracle._frontier_count(graph.nv, graph.neighbor_lists(), 3, pins, {},
                                    oracle.WINDOW_CAP, targets)
    conditioned = sum(counts.values())
    satisfying = counts.get(bytes(int(v in o2) for v in targets), 0)
    if conditioned == 0:
        raise ColoringError("conditioning event is empty; conditional undefined")
    lhs = Fraction(satisfying, conditioned)
    rhs = Fraction(1, 3 ** len(e2 | o2))
    return LcolReport(
        lhs=lhs, rhs=rhs, holds=lhs >= rhs, equality=lhs == rhs,
        conditioned=conditioned, satisfying=satisfying,
    )


# -- entropy -------------------------------------------------------------------


def binary_entropy(x: float) -> float:
    """H(x) = −x log₂ x − (1−x) log₂(1−x); endpoints give 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0,1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))
