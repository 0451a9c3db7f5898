"""Ground truth by exhaustion: enumeration, exact counting, exact transition
matrices, mixing times, conductance bounds and boundary-influence ratios.

Everything here is exact: counts are big ints and probabilities are
Fractions.  Mixing times iterate in float64, but every crossing decision is
exact: a float decision is taken only when it clears an a-priori rounding
bound, and anything closer goes to the big-integer iteration, which compares
against 1/e through a rational interval enclosure of e.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .coloring import (
    Coloring,
    DEFAULT_RHO,
    ImbalanceClass,
    OddBoundaryZero,
    imbalance_class,
    odd_boundary_pinned,
)
from .cutset import build_box_cutset
from .dynamics import GOLDEN, mix64_array
from .errors import CapExceeded, ColoringError
from .lattice import Lattice, LatticeKind, box, torus

ENUM_CAP = 10_000_000
STATE_CAP = 20_000
WINDOW_CAP = 2_000_000   # frontier states of a region count, or window colorings listed
ITER_CAP = 100_000
_LIST_ROWS = 1 << 14     # partial rows ``_assignments`` extends at once


# -- generic enumeration ---------------------------------------------------


def _assignments(nv, neighbors, q, pins, cap=None):
    """Yield proper assignments as bytes, vertex-index order, colors
    ascending (lexicographic output order).  Extends a uint8 array of
    partial rows a vertex at a time, each row once per color it may take,
    new colors last (so in order), less those an earlier neighbour holds.
    Past ``_LIST_ROWS`` rows the array splits in two, and each half, the
    low one first, goes on alone.  Raises CapExceeded past cap."""
    earlier = [[u for u in nbrs if u < v] for v, nbrs in enumerate(neighbors)]
    produced, todo = 0, [(0, np.zeros((1, 0), np.uint8))]
    while todo:
        v, rows = todo.pop()
        if len(rows) > _LIST_ROWS:                        # the low half goes on first
            todo += [(v, rows[len(rows) // 2:]), (v, rows[:len(rows) // 2])]
        elif v < nv:
            opts = np.array([pins[v]] if v in pins else range(q), dtype=np.uint8)
            ok = (rows[:, earlier[v], None] != opts).all(axis=1)
            at, c = np.divmod(np.flatnonzero(ok), len(opts))
            todo.append((v + 1, np.column_stack((rows[at], opts[c]))))
        else:
            for colors in rows:
                produced += 1
                if cap is not None and produced > cap:
                    raise CapExceeded(f"enumeration exceeded cap {cap}; at least {cap + 1} exist")
                yield colors.tobytes()


def enumerate_colorings(
    lat: Lattice,
    q: int = 3,
    bc: OddBoundaryZero | None = None,
    cap: int = ENUM_CAP,
):
    """Stream exactly the proper colorings satisfying ``bc``, each once, in
    deterministic (lexicographic) order.  Before the first one the exact
    count (``count_colorings``) is compared with ``cap``, so a listing past
    the cap is refused before any of it is made, and a count of 0 lists
    nothing."""
    count = count_colorings(lat, q, bc)
    if count > cap:
        raise CapExceeded(f"{count} colorings exceed the cap {cap}")
    if not count:
        return
    for colors in _assignments(lat.nv, lat.neighbors, q, bc.pins(lat) if bc else {}):
        yield Coloring(lat, colors, q)


# -- frontier counting -----------------------------------------------------------


def _frontier_count(nv, neighbors, q, pins, forbidden, cap, keep=(), seeds=None,
                    stats=None) -> dict[bytes, int]:
    """Exact counts of proper q-colorings of a graph, with per-vertex pins and
    forbidden color sets, placing vertices in index order (the "broken"
    transfer-matrix method), per color pattern of the ``keep`` vertices.

    The frontier is the placed vertices that still have an unplaced
    neighbour, plus the placed kept vertices, which never leave it; a state
    packs their colors base q into an int64 key (digit i for the i-th
    frontier vertex, in placement order) and carries the number of partial
    colorings behind it.  Each site filters the states by its earlier
    neighbours' digits, once per color it may take, and merges all these
    branches in one sort + reduceat, adding the weights of equal keys.  The
    final states are the kept patterns: the result maps each pattern with a
    nonzero count, as bytes in ``keep`` order, to its count, so with no
    kept vertex it is {b"": total} (or {} for none).  Two adjacent vertices
    pinned alike answer {} at once.  Weights are int64 while no sum a site
    forms (of at most q^(digits it drops + 1) weights) could pass 2^63, and
    Python ints after.  Refuses (CapExceeded) past ``cap`` states or when a
    key of q^(frontier+1) could pass 2^63.

    ``seeds`` = (colors, weights) stacks runs: each (s, m) row colors sites
    0…m−1, kept in place of ``keep``, and starts a state of its weight; the
    seeds take no pins.  Its seed key (its colors, site 0 on top) is the low
    m digits of its states, so seeds never merge; ``cap``
    bounds each seed: merged states past it go back on the list of runs,
    which splits them in two by seed key, and each half, the low one first,
    goes on from the next site; only a lone seed refuses.  ``stats`` (a
    dict) gets ``peak_states``, raised to the most states one seed held.
    """
    peak = 1 if stats is None else stats.setdefault("peak_states", 1)
    colors, weights = seeds if seeds is not None else (np.zeros((1, 0), np.uint8), np.ones(1, int))
    m = colors.shape[1]
    if not len(colors) or any(pins.get(u) == c for v, c in pins.items() for u in neighbors[v]):
        return {}
    keep = range(m) if m else keep
    kept = set(keep)
    last = [nv if v in kept else max(nbrs, default=-1) for v, nbrs in enumerate(neighbors)]
    # the seeds' colors are the first m digits, site 0 on top
    keys = colors.astype(np.int64) @ q ** np.arange(m - 1, -1, -1)
    counts, todo = {}, [(m, list(range(m - 1, -1, -1)), keys, weights)]
    # the kept sites' final digits: in placement order, the seeds' reversed
    at = q ** np.array([sorted(kept, reverse=m > 0).index(u) for u in keep], dtype=np.int64)
    while todo:
        start, frontier, keys, weights = todo.pop()
        if len(keys) > cap:
            if len(ids := np.unique(seed := keys % q ** m)) > 1:
                low = seed < ids[len(ids) // 2]            # the low half goes on first
                todo += [(start, frontier, keys[half], weights[half]) for half in (~low, low)]
                continue
            raise CapExceeded(f"frontier of {len(keys)} states exceeds the state cap {cap}")
        for v in range(start, nv):
            if q ** (len(frontier) + 1) >= 2 ** 63:
                raise CapExceeded(f"a frontier of {len(frontier) + 1} sites needs keys past 2^63")
            adjacent = set(neighbors[v])
            seen = [keys // q ** i % q for i, u in enumerate(frontier) if u in adjacent]
            base = keys
            for i in reversed(range(len(frontier))):
                if last[frontier[i]] == v:                 # v was its last neighbour
                    base = base // q ** (i + 1) * q ** i + base % q ** i
            dropped = sum(last[u] == v for u in frontier)
            frontier = [u for u in frontier if last[u] > v]
            if weights.dtype != object and int(weights.max()) >= 2 ** 63 // q ** (dropped + 1):
                weights = weights.astype(object)
            top = 0
            if last[v] > v:                                # v joins as the top digit
                top = q ** len(frontier)
                frontier.append(v)
            choices = [c for c in ((pins[v],) if v in pins else range(q))
                       if 0 <= c < q and c not in forbidden.get(v, ())]
            if not choices:
                return {}

            def branch(c):
                ok = np.ones(len(keys), dtype=bool)
                for digit in seen:
                    ok &= digit != c
                return base[ok] + c * top, weights[ok]

            keys, weights = _merge([branch(c) for c in choices])
            if stats is not None and len(keys) > peak:
                peak = stats["peak_states"] = max(peak, int(
                    np.unique(keys % q ** m, return_counts=True)[1].max()))
            if len(keys) > cap:                           # split when popped
                todo.append((v + 1, frontier, keys, weights))
                break
            if not len(keys):
                break
        else:                                              # the seeds' patterns are disjoint
            digits = (keys[:, None] // at % q).astype(np.uint8)
            counts |= {row.tobytes(): int(w) for row, w in zip(digits, weights)}
    return counts


def _merge(parts):
    """Join (keys, weights) parts, sort by key and add the weights of equal
    keys.  A stable sort (timsort) takes their mostly sorted runs fastest."""
    keys = np.concatenate([k for k, _ in parts])
    weights = np.concatenate([w for _, w in parts])
    if len(keys):
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        runs = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys, weights = keys[runs], np.add.reduceat(weights[order], runs)
    return keys, weights


def count_colorings(lat: Lattice, q=3, bc=None, state_cap=STATE_CAP, stats=None) -> int:
    """Exact |C_q(lat, bc)| by the frontier counter, refusing (CapExceeded)
    past ``state_cap`` frontier states; ``stats`` (a dict) gets the most
    states held against the cap, a slab listing or one seed's frontier.

    A box is one run, with ``bc``'s pins.  A torus takes no pins (``bc`` on
    it is a BoundaryConditionError); it lists the colorings of its first slab
    x₀ = 0 (at most ``state_cap``, so a slab past the cap refuses without
    counting) and seeds one stacked run with them.  With d > 1, one seed per
    orbit under the slab torus Z^{d−1}_n's automorphisms × color
    relabelings, whose indices the slab shares, stands for its orbit with
    the orbit's size as weight: each such symmetry extends to Z^d_n fixing
    the slab, so the orbit's colorings count alike.  Its orbit keys need
    q^(n^{d−1}) < 2^63, or it refuses, as its n^{d−1} seeded sites would.
    """
    pins = bc.pins(lat) if bc else {}
    m = lat.nv // lat.n if lat.kind is LatticeKind.TORUS else 0
    slab = [[u for u in lat.neighbors[v] if u < m] for v in range(m)]
    symmetric = lat.d > 1 and m > 0
    if symmetric and q ** m >= 2 ** 63:
        raise CapExceeded(f"orbit keys of a {m}-site slab need q^{m} < 2^63, got q={q}")
    try:
        starts = list(_assignments(m, slab, q, {}, cap=state_cap)) if m else [b""]
    except CapExceeded:
        raise CapExceeded(f"first-slab colorings exceed the state cap {state_cap}") from None
    first, weights = (_orbits(starts, torus(lat.d - 1, lat.n), q)
                      if symmetric else (slice(None), np.ones(len(starts), dtype=np.int64)))
    colors = np.frombuffer(b"".join(starts), dtype=np.uint8).reshape(len(starts), m)[first]
    if stats is not None:                                  # the slab listing counts too
        stats["peak_states"] = len(starts)
    return sum(_frontier_count(lat.nv, lat.neighbors, q, pins, {}, state_cap,
                               seeds=(colors, weights), stats=stats).values())


# -- exact transition matrix ---------------------------------------------------


@dataclass
class ExactTransitionMatrix:
    """P = A / (q·|V|) with integer A; rows sum to the denominator.

    A's off-diagonal unit entries (legal single-site moves) are the pairs
    (rows[k], cols[k]), sorted by source; ``diag`` is its diagonal."""

    states: list[bytes]
    lattice: Lattice
    q: int
    rows: np.ndarray
    cols: np.ndarray
    diag: np.ndarray

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def denom(self) -> int:
        return self.q * self.lattice.nv

    @cached_property
    def adj(self) -> list[list[int]]:
        """Each state's move targets, in order: a read-only view of ``cols``."""
        ends = np.cumsum(np.bincount(self.rows, minlength=self.n)).tolist()
        cols = self.cols.tolist()
        return [cols[a:b] for a, b in zip([0] + ends, ends)]

    def row_sums_ok(self) -> bool:
        return bool((np.bincount(self.rows, minlength=self.n) + self.diag == self.denom).all())

    def is_symmetric(self) -> bool:
        return np.array_equal(np.sort(self.rows * self.n + self.cols),
                              np.sort(self.cols * self.n + self.rows))

    def uniform_is_stationary(self) -> bool:
        # column sums equal the denominator iff uniform is fixed
        return bool((np.bincount(self.cols, minlength=self.n) + self.diag == self.denom).all())

    def is_connected(self) -> bool:
        """Every state is reached from state 0 (vacuous with no state)."""
        seen = np.arange(self.n) == 0
        count = 0
        while count < np.count_nonzero(seen):
            count = np.count_nonzero(seen)
            seen[self.cols[seen[self.rows]]] = True
        return bool(seen.all())


def transition_matrix(states: list[Coloring] | list[bytes], lat: Lattice,
                      q: int = 3) -> ExactTransitionMatrix:
    """The Metropolis matrix on an enumerated state list, exact rationals.

    Each state's bytes are its sort key.  Per (site, color) the legal moves
    are a mask over all states, their targets are found by binary search
    among the sorted keys, and a target outside the list is a ColoringError.
    """
    raw = [s.colors if isinstance(s, Coloring) else bytes(s) for s in states]
    n, nv = len(raw), lat.nv
    S = np.frombuffer(b"".join(raw), dtype=np.uint8).reshape(n, nv)
    keys = S.view(np.dtype((np.void, nv))).ravel()
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    moves = [np.zeros(0, dtype=np.int64)]               # source · n + target
    for v in range(nv):
        around = S[:, lat.neighbors[v]]
        for c in range(q):
            legal = np.flatnonzero((S[:, v] != c) & (around != c).all(axis=1))
            moved = S[legal]
            moved[:, v] = c
            target = moved.view(keys.dtype).ravel()
            pos = np.searchsorted(ordered, target).clip(max=n - 1)
            if (ordered[pos] != target).any():
                raise ColoringError("state list is not closed under legal moves")
            moves.append(legal * n + order[pos])
    moves = np.concatenate(moves)
    moves.sort()
    rows, cols = np.divmod(moves, n)
    return ExactTransitionMatrix(states=raw, lattice=lat, q=q, rows=rows, cols=cols,
                                 diag=q * nv - np.bincount(rows, minlength=n))


# -- exact mixing time ---------------------------------------------------------


def _e_enclosure(k: int) -> tuple[Fraction, Fraction]:
    lo = Fraction(0)
    fact = 1
    for i in range(k + 1):
        if i > 0:
            fact *= i
        lo += Fraction(1, fact)
    return lo, lo + Fraction(2, fact * (k + 1))


def le_inv_e(x: Fraction) -> bool:
    """Decide x ≤ 1/e exactly (x rational)."""
    if x <= 0:
        return True
    k = 12
    while True:
        lo, hi = _e_enclosure(k)
        # x ≤ 1/e  ⇔  x·e ≤ 1
        if x * hi <= 1:
            return True
        if x * lo > 1:
            return False
        k += 8


@dataclass
class MixingResult:
    tau: int
    worst_start: int
    t_star: int                      # first t with worst-start TV ≤ threshold
    per_start_t_star: dict[int, int]
    exact_fallbacks: list[int]       # starts the float engine left to the exact path
    lumped_states: dict[int, int]    # blocks each start's float walk ran on (N with none)
    float_walks: int                 # distinct float walks stepped


def _first_crossing(P: ExactTransitionMatrix, start: int, threshold, iter_cap) -> int:
    """Smallest t ≥ 0 with TV(P^t(start,·), uniform) ≤ threshold.  The
    iterate is an object array of Python ints, so nothing overflows."""
    n = P.n
    heads = np.flatnonzero(np.diff(P.rows, prepend=-1))  # each moving row's first entry
    owners = P.rows[heads]
    diag = P.diag.astype(object)
    u = np.zeros(n, dtype=object)
    u[start] = 1
    mt = 1
    t = 0
    while True:
        tv = Fraction(np.abs(n * u - mt).sum(), 2 * n * mt)
        done = le_inv_e(tv) if threshold is None else tv <= threshold
        if done:
            return t
        if t >= iter_cap:
            raise CapExceeded(f"no TV crossing within iteration cap {iter_cap}")
        t += 1
        new = diag * u
        new[owners] += np.add.reduceat(u[P.cols], heads)
        u = new
        mt *= P.denom


_U = 2.0 ** -53        # unit roundoff of binary64
_TINY = 2.0 ** -1000   # least positive entry the relative-error model admits
_KEY_BLOCK = 1 << 15   # color keys per chunk of the orbit keys (``_orbits``)
_STACK_CAP = 1 << 18   # moves plus blocks per stack of walks


class _FloatOperator(NamedTuple):
    """The walk x ← (B·x + D·x)/denom of P lumped over blocks of states,
    from x = 1 on block ``start``: entry k adds weights[k]·x[cols[k]] to
    rows[k], entries sorted by (row, col), and x holds the mass of one
    state of each block.  Under the identity labelling every state is its
    own block, B is P's off-diagonal integer matrix A (each weight the
    moves from its row's state to its column's) and D its diagonal."""

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray    # integers, 1 ≤ w ≤ denom, as float64
    diag: np.ndarray       # integers, 0 ≤ d ≤ denom, as float64
    sizes: np.ndarray      # states per block, as float64
    denom: float
    m: int                 # most entries in a row, the diagonal not counted
    start: int             # the block the walk starts on


def _floatable(P: ExactTransitionMatrix) -> bool:
    """Whether the rounding bound of ``_stacked_tv`` covers P: A must be
    nonnegative with column sums equal to the denominator (so the true
    iterate keeps mass 1), the denominator below 2^53 (so A's entries are
    exact floats), and N²·(denom + 1) below 2^63 (so ``_lump``'s packed
    codes fit in int64)."""
    return (P.denom < 2 ** 53 and P.n ** 2 * (P.denom + 1) < 2 ** 63
            and not (P.diag < 0).any() and P.uniform_is_stationary())


def _lump(P: ExactTransitionMatrix, blocks: np.ndarray, start: int) -> _FloatOperator | None:
    """P (``_floatable``) lumped by ``blocks`` (a block index 0 … K−1 per
    state, K ≤ N) and walked from ``start``'s block, or None unless that is
    exact for the walk from ``start``.

    The walk stays constant on blocks when it starts on a singleton block
    and the partition is equitable: every state y of a block Y has the same
    diagonal and the same block-row, the number c = B(Y, X) of moves into y
    from each block X.  Sorting the packed pairs (y, X) counts each c, and
    sorting the packed triples (Y, X, c) counts the states of Y that share
    it: the block-rows agree iff every triple is shared by all |Y| states
    of Y, and the triples are then B's entries in (row, col) order.  So the
    result never rests on how the labelling was found (``_refined_blocks``
    hashes).  c ≤ denom, which ``_stacked_tv``'s rounding bound assumes, is
    checked too.  A start whose labelling is refused gets no float walk."""
    k = int(blocks.max()) + 1
    sizes = np.bincount(blocks, minlength=k)
    diag = np.zeros(k)
    diag[blocks] = P.diag
    pairs, moves = np.unique(P.rows * k + blocks[P.cols], return_counts=True)
    if (sizes[blocks[start]] != 1 or (diag[blocks] != P.diag).any()
            or moves.max(initial=0) > P.denom):
        return None
    y, source = np.divmod(pairs, k)
    scale = P.denom + 1
    codes, shared = np.unique((blocks[y] * k + source) * scale + moves, return_counts=True)
    cells, weights = np.divmod(codes, scale)
    rows, cols = np.divmod(cells, k)
    if (shared != sizes[rows]).any():
        return None
    return _FloatOperator(
        rows=rows, cols=cols, weights=weights.astype(np.float64), diag=diag,
        sizes=sizes.astype(np.float64), denom=float(P.denom),
        m=int(np.bincount(rows, minlength=k).max()), start=int(blocks[start]),
    )


def _move_distances(P: ExactTransitionMatrix, starts: list[int]) -> list[np.ndarray]:
    """Each of at most 64 starts' move distances to every state of P (one
    move from those its row lists), by one bit-parallel breadth-first
    search: each state's uint64 word has a bit per start, a level ORs the
    last one's words over each row's moves less the states reached before,
    and the levels unpack once, as bit planes (plane k ORs the depths with
    bit k).  A state never reached gets all ones: past every distance, < 2N."""
    heads = np.flatnonzero(np.diff(P.rows, prepend=-1))
    seen = np.zeros(P.n, dtype=np.uint64)
    np.bitwise_or.at(seen, starts, np.uint64(1) << np.arange(len(starts), dtype=np.uint64))
    levels = [seen.copy()]
    while levels[-1].any():
        reached = np.zeros(P.n, dtype=np.uint64)
        reached[P.rows[heads]] = np.bitwise_or.reduceat(levels[-1][P.cols], heads)
        levels.append(reached & ~seen)
        seen |= reached
    dist = np.zeros((P.n, -(-len(starts) // 8) * 8), dtype=np.uint32)   # whole bytes of starts
    for k in range((len(levels) - 1).bit_length()):
        plane = np.bitwise_or.reduce([w for t, w in enumerate(levels) if t >> k & 1]) | ~seen
        bits = plane.astype("<u8", copy=False).view(np.uint8).reshape(P.n, 8)[:, :dist.shape[1] // 8]
        dist |= np.unpackbits(bits, axis=1, bitorder="little").astype(np.uint32) << np.uint32(k)
    return [row.copy() for row in dist.T[:len(starts)]]      # each freed once used


def _refined_blocks(P: ExactTransitionMatrix, dist: np.ndarray) -> np.ndarray:
    """A block index per state of P: the coarsest equitable partition that
    holds the start alone, by colour refinement from the labels (diagonal,
    distance), ``dist`` the start's ``_move_distances``.  Each round's
    label is the old one times a fixed odd constant plus the wrapping sum
    of the in-neighbours' SplitMix64-mixed labels, a hash of their blocks'
    multiset; the rounds stop when the block count stops growing.  That is
    the optimal exact lumping (Derisavi, Hermanns and Sanders 2003), at
    least as coarse as the orbits of the start's stabiliser in any symmetry
    group of P.  It refines the distance layers (by induction: an equitable
    partition keeps per block whether a state has a move from the layers so
    far), so the rounds reach the partition (diagonal, is-start) would,
    sooner.  A hash collision can only merge blocks wrongly, and ``_lump``
    then refuses the labelling, so exactness never rests on the hash."""
    heads = np.flatnonzero(np.diff(P.rows, prepend=-1))   # empty with no move at all
    owners = P.rows[heads]
    labels = P.diag.astype(np.uint64) * np.uint64(2 * P.n) + dist.astype(np.uint64)
    count = 0
    while True:
        grown = np.count_nonzero(np.diff(np.sort(labels))) + 1    # blocks, by sort + diff
        if grown == count:
            return np.unique(labels, return_inverse=True)[1]
        count = grown
        mixed = mix64_array(labels + GOLDEN)
        labels *= GOLDEN
        labels[owners] += np.add.reduceat(mixed[P.cols], heads)


def _threshold_enclosure(threshold) -> tuple[float, float]:
    """Floats lo ≤ threshold ≤ hi.  For 1/e they come from the rational
    enclosure of e that ``le_inv_e`` uses, so no libm accuracy is assumed;
    Fraction → float rounds correctly, within a factor 1 ± u."""
    if threshold is None:
        e_lo, e_hi = _e_enclosure(20)
        return float(1 / e_hi) * (1 - 2 * _U), float(1 / e_lo) * (1 + 2 * _U)
    return float(threshold) * (1 - 2 * _U), float(threshold) * (1 + 2 * _U)


def _stacked_tv(ops: list[_FloatOperator], n: int):
    """Yield (tv̂_t, ε_t) for t = 0, 1, …: per walk of ``ops`` (lumpings of
    one P on N = n states), the float64 TV of its iterate to uniform and a
    bound ε_t ≥ |tv̂_t − tv_t|, ∞ once the bound has lapsed.

    The walks step as one block-diagonal operator: entries concatenated,
    each walk's offset by the blocks before it, one ``bincount`` a step.

    Step: x ← (B·x + D·x)/denom over the K blocks.  The exact iterate x_t
    holds P^t(start, y) for one state y of each block (the lumping is
    exact).  Every term is nonnegative, and its weight is an integer ≤
    denom < 2⁵³, so each product costs at most one rounding.  A row has at
    most m terms of B and one of D, so each computed entry carries at most
    m + 2 roundings (one product, ≤ m sums, one division), each a factor
    (1 + δ) with |δ| ≤ u = 2⁻⁵³, in any summation order (Higham, *Accuracy
    and Stability*, §3.1).  By induction the computed iterate x̂_t
    satisfies |x̂_t − x_t| ≤ e_t·x_t componentwise, with e_t =
    (1+u)^{t(m+2)} − 1 and m the walk's own.  That needs every positive
    entry to stay normal: an entry below 2⁻¹⁰⁰⁰ lapses its walk's bound
    for good (the division cannot flush a larger entry to zero, since
    denom < 2⁵³).

    TV: tv̂ = ½·fl(Σ_Y |Y|·|x̂_Y − fl(1/N)|) over the blocks Y, N = Σ|Y|.
    Since Σ_Y |Y|·x_Y = 1 (column sums of A + D are denom), Σ_Y |Y|·|x̂_Y −
    x_Y| ≤ e_t, and the rounded 1/N moves the sum by at most u.  Each term
    takes one rounding in the subtraction and one in the product by |Y|
    (none when every |Y| is 1, K = N); the K terms then sum with K − 1
    more, in any order, so the sum is off by at most γ_{K+1} ≤ γ_N (K < N)
    or γ_N (K = N) times Σ_Y |Y|·|x̂_Y − fl(1/N)| ≤ 2 + e_t + u.  So
    |tv̂ − tv| ≤ ½(e_t + u) + ½γ_N·(2 + e_t + u), and ε_t = e_t + 2γ_{N+2}
    exceeds that by at least γ_{N+2} ≥ 3u, which covers the roundings in
    forming ε_t and tv̂ ± ε_t themselves.
    """
    heads = np.cumsum([0] + [len(op.sizes) for op in ops])
    rows, cols = map(np.concatenate, zip(*[(op.rows + h, op.cols + h) for op, h in zip(ops, heads)]))
    weights, diag, sizes = map(np.concatenate, zip(*[(op.weights, op.diag, op.sizes) for op in ops]))
    heads, k, denom = heads[:-1], int(heads[-1]), ops[0].denom
    spare = 2 * (n + 2) * _U / (1 - (n + 2) * _U)     # 2γ_{N+2}
    per_step = np.array([op.m + 2 for op in ops]) * math.log1p(_U)   # ∞ once lapsed
    x = np.zeros(k)
    x[heads + [op.start for op in ops]] = 1.0
    for t in itertools.count():
        yield (0.5 * np.add.reduceat(sizes * np.abs(x - 1.0 / n), heads),
               np.expm1(t * per_step) + spare)
        x = (np.bincount(rows, weights=weights * x[cols], minlength=k) + diag * x) / denom
        if x.min() < _TINY:
            per_step[np.minimum.reduceat(np.where(x > 0, x, 1.0), heads) < _TINY] = np.inf


def _stacked_crossings(ops: list[_FloatOperator], n: int, threshold, iter_cap) -> list[int | None]:
    """``_first_crossing`` of each walk of ``ops`` decided in float64
    (``_stacked_tv``), or None for a walk with a step too close to call.
    Against lo ≤ threshold ≤ hi, tv̂_t + ε_t < lo is a crossing and tv̂_t −
    ε_t > hi means not yet (the iteration cap then refuses exactly as the
    exact path does); anything else is undecided."""
    lo, hi = _threshold_enclosure(threshold)
    out, live = [None] * len(ops), np.ones(len(ops), dtype=bool)
    for t, (tv, eps) in enumerate(_stacked_tv(ops, n)):
        for w in np.flatnonzero(live & (tv + eps < lo)):
            out[w] = t
        live &= tv - eps > hi
        if not live.any():
            return out
        if t >= iter_cap:
            raise CapExceeded(f"no TV crossing within iteration cap {iter_cap}")


def _shared_walks(P: ExactTransitionMatrix, use: list[int]):
    """Yield nonempty stacks of [walk, its starts], each at most
    ``_STACK_CAP`` moves plus blocks or one walk.  A start walks on P
    (``_floatable``) lumped by its refined labelling, and shares the walk of
    an earlier start of the stack whose every field is equal; a start whose
    labelling fails ``_lump``'s check walks in no stack."""
    stack, entries = [], 0
    for lo in range(0, len(use), 64):
        for st, dist in zip(use[lo:lo + 64], _move_distances(P, use[lo:lo + 64])):
            if (op := _lump(P, _refined_blocks(P, dist), st)) is None:
                continue
            walk = next((w for w in stack if all(map(np.array_equal, w[0], op))), None)
            if walk is None:
                if stack and entries + len(op.cols) + len(op.sizes) > _STACK_CAP:
                    yield stack
                    stack, entries = [], 0
                stack.append(walk := (op, []))
                entries += len(op.cols) + len(op.sizes)
            walk[1].append(st)
    if stack:
        yield stack


def tv_mixing_time(
    P: ExactTransitionMatrix,
    threshold: Fraction | None = None,
    starts: list[int] | str = "orbits",
    iter_cap: int = ITER_CAP,
) -> MixingResult:
    """Exact mixing time per the worst-start total-variation definition.

    ``threshold`` None means the classical 1/e, decided via the exact
    enclosure of e.  Per-start TV to uniform is non-increasing, so
    τ = max over starts of (first crossing) − 1, floored at 0.  ``starts``
    may be "all", "orbits" (one representative per automorphism orbit;
    exact by symmetry of P), or a nonempty list of state indices (anything
    else is a ValueError, raised before any iteration).

    Each start walks in float64 on P lumped by the coarsest equitable
    partition that holds it alone (``_refined_blocks``), once that lumping
    passes ``_lump``'s exactness check, which counts each triple (block Y,
    block X, moves into a state of Y from X) against |Y|; exactly equal
    walks are shared, and all step as one stack (``_shared_walks``,
    ``_stacked_crossings``).  A start whose lumping fails that check or
    whose walk cannot decide a step, or every start when P is outside the
    float bound's hypotheses, runs the exact ``_first_crossing`` instead
    and is listed in ``exact_fallbacks`` (with no walk, N lumped states).
    Either way every decision is exact.
    """
    if isinstance(starts, str):
        if starts == "all":
            use = list(range(P.n))
        elif starts == "orbits":
            use = orbit_representatives(P.states, P.lattice, P.q)
        else:
            raise ValueError(f"unknown starts mode {starts!r}")
    else:
        use = [operator.index(s) for s in starts]
    if not use or not all(0 <= s < P.n for s in use):
        raise ValueError(f"starts must be a nonempty list of state indices below {P.n}")
    floated, float_walks = {}, 0       # start → (float crossing or None, blocks)
    for stack in _shared_walks(P, use) if _floatable(P) else ():
        float_walks += len(stack)
        crossings = _stacked_crossings([op for op, _ in stack], P.n, threshold, iter_cap)
        for (op, sts), tcross in zip(stack, crossings):
            floated |= dict.fromkeys(sts, (tcross, len(op.sizes)))
    per, lumped, fallbacks = {}, {}, []
    worst, worst_t = use[0], -1
    for st in use:
        tcross, lumped[st] = floated.get(st, (None, P.n))
        if tcross is None:
            fallbacks.append(st)
            tcross = _first_crossing(P, st, threshold, iter_cap)
        per[st] = tcross
        if tcross > worst_t:
            worst, worst_t = st, tcross
    return MixingResult(
        tau=max(worst_t - 1, 0),
        worst_start=worst,
        t_star=worst_t,
        per_start_t_star=per,
        exact_fallbacks=fallbacks,
        lumped_states=lumped,
        float_walks=float_walks,
    )


# -- symmetry: lattice automorphisms × color relabelings -------------------------


def _orbits(states: list[bytes], lat: Lattice, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Each orbit's first index, in state order, and how many of the states
    it holds, under lattice automorphisms × color relabelings.

    A state's orbit key is the least, over automorphisms p, of its base-b
    key (most significant site first) moved by p and relabeled by first
    appearance.  With W[c] the key of color c's sites alone, a color
    appears earlier exactly when its W is larger, and so that key sums the
    lighter W of each pair of colors.  Every byte up to the largest in a
    state is a color, b of them (b = q for q-colorings).  One product per
    chunk of states (about ``_KEY_BLOCK`` W's) gives each W under each
    automorphism.  Keys stay below b^|V|, which must be below 2^63
    (ValueError); below 2^53 they are exact in float64, which is faster."""
    nv = lat.nv
    S = np.frombuffer(b"".join(states), dtype=np.uint8).reshape(len(states), nv)
    b = max(q, int(S.max(initial=0)) + 1)
    if b ** nv >= 2 ** 63:
        raise ValueError(f"orbit keys need q^|V| < 2^63, got {b}^{nv}")
    dtype = np.float64 if b ** nv <= 2 ** 53 else np.int64
    powers = (b ** np.arange(nv - 1, -1, -1, dtype=np.int64)).astype(dtype)
    perms = np.array([range(nv), *lat.vertex_automorphisms()], dtype=np.intp)
    moved = powers[np.argsort(perms, axis=1)].T            # site weights, one column per automorphism
    colors = np.arange(b, dtype=np.uint8)[:, None, None]
    rows = max(1, _KEY_BLOCK // (b * len(perms)))
    best = np.empty(len(S), dtype=dtype)
    for lo in range(0, len(S), rows):
        W = (S[lo:lo + rows] == colors).astype(dtype) @ moved     # (color, state, automorphism)
        pairs = (np.minimum(W[c], W[d]) for c, d in itertools.combinations(range(b), 2))
        best[lo:lo + rows] = sum(pairs, np.zeros(W.shape[1:], dtype)).min(axis=1)
    _, first, sizes = np.unique(best, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], sizes[order]


def orbit_representatives(states: list[bytes], lat: Lattice, q: int) -> list[int]:
    """One state index per orbit under lattice automorphisms × color
    relabelings (these commute with the Metropolis matrix): the first index,
    in state order, of each orbit (``_orbits``)."""
    return _orbits(states, lat, q)[0].tolist()


# -- conductance ---------------------------------------------------------------


@dataclass
class ConductanceReport:
    n_even_heavy: int
    n_balanced: int
    n_odd_heavy: int
    pi_a: Fraction
    pi_m: Fraction
    bound: Fraction | None       # π(A) / (8 π(M)); None when M is empty
    unbounded: bool
    bound_holds: bool | None


def conductance_bound(
    histogram: dict[int, int],
    lat: Lattice,
    rho: Fraction = DEFAULT_RHO,
    tau: int | None = None,
) -> ConductanceReport:
    """π(A)/(8π(M)) for A = EvenHeavy, M = Balanced under uniform π on the torus ``lat``,
    from its histogram {imbalance: colorings}, each classified once; checked against a given τ."""
    if lat.kind is not LatticeKind.TORUS or not 0 < (rho := Fraction(rho)) < 1:
        raise ColoringError(f"conductance needs a torus and rho in (0,1), got {lat}, rho={rho}")
    counts = {cls: 0 for cls in ImbalanceClass}
    for imb, k in histogram.items():
        counts[imbalance_class(imb, lat.nv, rho)] += k
    n = sum(counts.values())
    n_a = counts[ImbalanceClass.EVEN_HEAVY]
    n_m = counts[ImbalanceClass.BALANCED]
    pi_a = Fraction(n_a, n)
    pi_m = Fraction(n_m, n)
    if pi_a > Fraction(1, 2):
        raise ColoringError("conductance setup requires pi(A) <= 1/2")
    bound = pi_a / (8 * pi_m) if n_m else None
    return ConductanceReport(
        n_a, n_m, counts[ImbalanceClass.ODD_HEAVY], pi_a, pi_m,
        bound=bound, unbounded=bound is None and n_a > 0,
        bound_holds=None if bound is None or tau is None else Fraction(tau) >= bound,
    )


# -- influence ratio -------------------------------------------------------------


@dataclass
class InfluenceReport:
    v0: tuple[int, ...]
    total: int                 # |C_3^O|
    pinned: int                # |C_3^O(v0)|
    ratio: Fraction
    histogram: dict[int, int]  # cutset size c0 -> |C_3^O(c0, v0)|
    per_size_ratio: dict[int, Fraction]


def influence_ratio(d: int, n: int, cap: int = ENUM_CAP) -> InfluenceReport:
    """|C_3^O(v₀)| / |C_3^O| at the centre v₀ with the size-resolved cutset
    histogram, all exact.  Box cutsets need d ≥ 2; a smaller d is a
    ColoringError."""
    if d < 2:
        raise ColoringError(f"box cutsets need d >= 2, got d={d}")
    lat = box(d, n)
    v0 = (0,) * d
    v0_idx = lat.index(v0)
    total = count_colorings(lat, 3, OddBoundaryZero())
    hist: dict[int, int] = {}
    pinned = 0
    for chi in enumerate_colorings(lat, 3, odd_boundary_pinned(v0), cap=cap):
        pinned += 1
        cut = build_box_cutset(chi, v0_idx)
        hist[cut.size] = hist.get(cut.size, 0) + 1
    ratio = Fraction(pinned, total)
    per = {c: Fraction(k, total) for c, k in sorted(hist.items())}
    return InfluenceReport(
        v0=v0, total=total, pinned=pinned, ratio=ratio,
        histogram=dict(sorted(hist.items())), per_size_ratio=per,
    )


# -- region counting on Z^2 ---------------------------------------------------


def grid_region_counts(cells, q=3, forbidden=None, keep=()) -> dict[bytes, int]:
    """Exact counts of proper q-colorings of a finite cell subset of Z², with
    optional per-cell forbidden color sets: ``_frontier_count`` in
    raster order, the nonzero counts per color pattern of the ``keep`` cells
    (bytes in ``keep`` order; {b"": total} with none kept), refused past
    ``WINDOW_CAP`` frontier states."""
    order = sorted(cells)
    index = {c: i for i, c in enumerate(order)}
    neighbors = [
        sorted(index[n] for n in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)) if n in index)
        for x, y in order
    ]
    return _frontier_count(
        len(order), neighbors, q, {},
        {index[c]: s for c, s in (forbidden or {}).items() if c in index},
        WINDOW_CAP, [index[c] for c in keep],
    )
