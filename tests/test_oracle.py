from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potts3 import oracle
from potts3.coloring import (Coloring, ImbalanceClass, OddBoundaryZero, imbalance,
                             odd_boundary_pinned, phase_coloring)
from potts3.errors import CapExceeded, ColoringError
from potts3.lattice import Lattice, Parity, box, torus
from potts3.oracle import (
    ITER_CAP,
    ExactTransitionMatrix,
    STATE_CAP,
    _assignments,
    _first_crossing,
    _floatable,
    _frontier_count,
    _lump,
    _refined_blocks,
    _stacked_tv,
    conductance_bound,
    count_colorings,
    enumerate_colorings,
    grid_region_counts,
    influence_ratio,
    le_inv_e,
    orbit_representatives,
    transition_matrix,
    tv_mixing_time,
)

from claims import BipartiteGraph, classify, kempe_matrix, lcol_check, torus_imbalance_histogram


def test_ring_and_edge_counts():
    assert count_colorings(torus(1, 4)) == 18      # chromatic polynomial of C4
    assert count_colorings(torus(2, 2)) == 18      # Q_2 is the same 4-cycle
    assert count_colorings(torus(1, 2)) == 6       # a single edge
    assert count_colorings(box(1, 1)) == 12        # path on 3 vertices
    # no slab coloring leaves the stacked pass no seed
    assert count_colorings(torus(2, 4), 1) == count_colorings(torus(1, 4), 0) == 0


def test_general_q_enumeration():
    # chromatic polynomial of C_4 at q=4: (q-1)^4 + (q-1) = 84
    assert count_colorings(torus(1, 4), 4) == 84
    assert len(list(enumerate_colorings(torus(1, 4), 4))) == 84


def test_enumeration_is_deterministic_and_exact():
    t = torus(1, 4)
    seen = [c.colors for c in enumerate_colorings(t, 3)]
    assert len(seen) == len(set(seen)) == 18
    assert seen == sorted(seen)


def test_enumeration_cap_refusal():
    with pytest.raises(CapExceeded) as err:
        list(enumerate_colorings(torus(2, 4), 3, cap=100))
    assert "2970" in str(err.value)


def test_enumeration_refuses_before_it_lists(monkeypatch):
    # the count alone decides: listing torus(2, 4) itself must not start
    lat = torus(2, 4)
    real = oracle._assignments

    def slab_only(nv, *args, **kwargs):
        assert nv < lat.nv, "listed before refusing"
        return real(nv, *args, **kwargs)

    monkeypatch.setattr(oracle, "_assignments", slab_only)
    with pytest.raises(CapExceeded):
        list(enumerate_colorings(lat, 3, cap=100))


def _enumerated(lat, q, bc):
    return sum(1 for _ in enumerate_colorings(lat, q, bc))


def test_transfer_and_enumeration_agree():
    cases = [
        (box(2, 1), None),
        (box(2, 1), OddBoundaryZero()),
        (box(2, 2), OddBoundaryZero()),
        (torus(2, 4), None),
        (box(1, 3), None),
        (box(2, 2), odd_boundary_pinned((0, 0))),
    ]
    for lat, bc in cases:
        assert count_colorings(lat, 3, bc) == _enumerated(lat, 3, bc)


def test_known_counts_frozen():
    assert count_colorings(torus(2, 4)) == 2970
    assert count_colorings(box(2, 1)) == 246
    assert count_colorings(box(2, 2)) == 580986
    assert count_colorings(box(2, 1), 3, OddBoundaryZero()) == 32
    assert count_colorings(box(2, 2), 3, OddBoundaryZero()) == 13888


def _strip_count(k):
    return sum(grid_region_counts({(x, y) for x in range(k) for y in range(2)}, 3).values())


def test_two_by_k_strip_recurrence():
    # 2 x k strip counts satisfy a short linear recurrence; fit an order-2
    # relation on the first values and check it predicts the rest
    counts = [_strip_count(k) for k in range(1, 9)]
    c1, c2, c3, c4 = counts[:4]
    det = c2 * c2 - c1 * c3
    if det == 0:
        ratio = Fraction(c2, c1)
        for i in range(len(counts) - 1):
            assert Fraction(counts[i + 1], counts[i]) == ratio
    else:
        a = Fraction(c2 * c3 - c1 * c4, det)
        b = Fraction(c2 * c4 - c3 * c3, det)
        for i in range(len(counts) - 2):
            assert counts[i + 2] == a * counts[i + 1] + b * counts[i]


def test_region_counter_matches_enumeration():
    # 3x3 box as a raw region
    region = {(x, y) for x in range(3) for y in range(3)}
    assert sum(grid_region_counts(region, 3).values()) == 246
    rng = random.Random(5)
    for _ in range(12):
        cells = {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(2, 9))}
        forb = {}
        for c in cells:
            if rng.random() < 0.4:
                forb[c] = {rng.randrange(3)}
        # brute force over the same cells
        order = sorted(cells)
        total = 0
        stack = [(0, {})]
        while stack:
            i, assign = stack.pop()
            if i == len(order):
                total += 1
                continue
            cell = order[i]
            for col in range(3):
                if col in forb.get(cell, ()):
                    continue
                x, y = cell
                if assign.get((x - 1, y)) == col or assign.get((x + 1, y)) == col:
                    continue
                if assign.get((x, y - 1)) == col or assign.get((x, y + 1)) == col:
                    continue
                nxt = dict(assign)
                nxt[cell] = col
                stack.append((i + 1, nxt))
        assert sum(grid_region_counts(cells, 3, forbidden=forb).values()) == total


# -- the frontier counter --------------------------------------------------------


def _brute_count(nv, neighbors, q, pins, forbidden):
    return sum(_brute_counts(nv, neighbors, q, pins, forbidden).values())


def _brute_counts(nv, neighbors, q, pins, forbidden, keep=()):
    """Listed colorings grouped by the colors of ``keep``."""
    counts = Counter(
        bytes(colors[u] for u in keep)
        for colors in _assignments(nv, neighbors, q, pins)
        if all(colors[v] not in forbidden.get(v, ()) for v in range(nv))
    )
    return dict(counts)


@st.composite
def _pinned_graphs(draw):
    """A graph on 0..7 vertices with some pins, forbidden color sets and a
    kept subset."""
    nv = draw(st.integers(0, 7))
    q = draw(st.integers(1, 4))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    neighbors = [sorted({v for e in edges for v in e if u in e} - {u}) for u in range(nv)]
    sites = st.integers(0, max(nv - 1, 0))
    pins = draw(st.dictionaries(sites, st.integers(0, q - 1), max_size=min(nv, 3)))
    forbidden = draw(st.dictionaries(sites, st.sets(st.integers(0, q - 1)), max_size=min(nv, 3)))
    keep = draw(st.permutations(range(nv)))[:draw(st.integers(0, nv))]
    return nv, neighbors, q, pins, forbidden, keep


@settings(max_examples=150, deadline=None)
@given(graph=_pinned_graphs(), data=st.data())
def test_frontier_count_matches_brute_force_on_random_graphs(graph, data):
    nv, neighbors, q, pins, forbidden, keep = graph
    stats = {}
    counts = _frontier_count(nv, neighbors, q, pins, forbidden, math.inf, keep, stats=stats)
    assert counts == _brute_counts(nv, neighbors, q, pins, forbidden, keep)
    assert sum(_frontier_count(nv, neighbors, q, pins, forbidden, math.inf).values()) == \
        _brute_count(nv, neighbors, q, pins, forbidden)
    # a cap answers alike exactly when no site's merged states pass it
    cap = data.draw(st.integers(1, stats["peak_states"] + 1))
    if cap >= stats["peak_states"]:
        assert _frontier_count(nv, neighbors, q, pins, forbidden, cap, keep) == counts
    else:
        with pytest.raises(CapExceeded, match=f"exceeds the state cap {cap}$"):
            _frontier_count(nv, neighbors, q, pins, forbidden, cap, keep)


def test_adjacent_equal_pins_count_zero_at_once():
    # v₀ = 0 sits next to odd boundary vertices pinned to 0; the frontier
    # would pass the state cap (or 2^63) long before it reached v₀
    for q in (4, 5, 6):
        bc = odd_boundary_pinned((0, 0, 0, 0))
        assert count_colorings(box(4, 1), q, bc) == 0
        assert list(enumerate_colorings(box(4, 1), q, bc)) == []


def _pinned(pins, forbidden=None):
    """``forbidden`` plus, for each pinned cell, every color but its pin:
    a region count takes pins as forbidden sets."""
    out = dict(forbidden or {})
    for c, k in (pins or {}).items():
        out[c] = out.get(c, set()) | (set(range(3)) - {k})
    return out


@settings(max_examples=80, deadline=None)
@given(cells=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=9),
       data=st.data())
def test_region_counter_matches_brute_force_with_pins(cells, data):
    order = sorted(cells)
    some = st.sampled_from(order or [(0, 0)])
    pins = data.draw(st.dictionaries(some, st.integers(0, 2), max_size=min(len(order), 2)))
    forbidden = data.draw(
        st.dictionaries(some, st.sets(st.integers(0, 2)), max_size=min(len(order), 3))
    )
    neighbors = [
        [j for j, (a, b) in enumerate(order) if abs(a - x) + abs(b - y) == 1]
        for x, y in order
    ]
    want = _brute_count(
        len(order), neighbors, 3,
        {order.index(c): k for c, k in pins.items()},
        {order.index(c): f for c, f in forbidden.items()},
    )
    assert sum(grid_region_counts(cells, 3, forbidden=_pinned(pins, forbidden)).values()) == want


def test_ladder_counts_cross_into_python_ints():
    # a 2 x k ladder has 6·3^(k−1) proper 3-colorings; past k = 39 the
    # weights no longer fit int64
    for k in range(1, 61):
        ladder = {(x, y) for x in range(k) for y in range(2)}
        assert sum(grid_region_counts(ladder, 3).values()) == 6 * 3 ** (k - 1), k
    # a path's last cell adds no digit, so its branches merge too: at k = 63
    # six weights of 2^61 sum past 2^63
    for k in range(60, 66):
        path = {(x, 0) for x in range(k)}
        assert sum(grid_region_counts(path, 3).values()) == 3 * 2 ** (k - 1), k


def _padded_cells(d, m):
    """W_m in Z^d for d <= 2, as Z^2 cells: Λ_m plus the odd cells of Λ_{m+1}."""
    span = range(-m - 1, m + 2)
    cells = [(x, 0) for x in span] if d == 1 else [(x, y) for x in span for y in span]
    return {c for c in cells if max(map(abs, c)) <= m or sum(c) % 2}


def _grid_brute_count(cells, pins=None):
    order = sorted(cells)
    neighbors = [
        [j for j, (a, b) in enumerate(order) if abs(a - x) + abs(b - y) == 1]
        for x, y in order
    ]
    return _brute_count(len(order), neighbors, 3,
                        {order.index(c): k for c, k in (pins or {}).items()}, {})


def test_padded_boxes_count_exactly():
    w1 = _padded_cells(2, 1)
    assert len(w1) == 17
    assert grid_region_counts(w1, 3) == {b"": 62976}
    for cells, pins in [
        (_padded_cells(1, 1), None),
        (_padded_cells(1, 3), None),
        (w1, {c: 0 for c in w1 if max(map(abs, c)) == 2}),
        (_padded_cells(1, 2), {c: 0 for c in _padded_cells(1, 2) if abs(c[0]) == 3}),
    ]:
        assert sum(grid_region_counts(cells, 3, forbidden=_pinned(pins)).values()) == \
            _grid_brute_count(cells, pins)


@pytest.mark.parametrize("lat,q,bc", [
    (torus(1, 4), 4, None),
    (torus(2, 2), 4, None),
    (torus(1, 6), 5, None),
], ids=repr)
def test_torus_counts_match_enumeration(lat, q, bc):
    assert count_colorings(lat, q, bc) == _enumerated(lat, q, bc)


def test_frontier_keys_never_overflow():
    # a star whose centre comes last: its 40 pinned leaves form one frontier
    # state of 40 base-3 digits, past 2^63
    leaves = 40
    neighbors = [[leaves]] * leaves + [list(range(leaves))]
    with pytest.raises(CapExceeded, match="2\\^63"):
        _frontier_count(leaves + 1, neighbors, 3, dict.fromkeys(range(leaves), 0), {}, STATE_CAP)


def test_frontier_state_cap_refuses():
    with pytest.raises(CapExceeded, match="^frontier of 12 states exceeds the state cap 10$"):
        count_colorings(box(2, 2), 3, state_cap=10)


def test_frontier_refuses_branch_by_branch():
    # three leaves, then their common neighbour: the leaves hold 3, then 9
    # states, within the cap of 10; the third leaf's three color branches
    # merge to 27 states, which the message counts in full
    with pytest.raises(CapExceeded, match="^frontier of 27 states exceeds the state cap 10$"):
        _frontier_count(4, [[3], [3], [3], [0, 1, 2]], 3, {}, {}, 10)


def test_torus_refuses_before_it_counts(monkeypatch):
    # the 4-cycle slab of torus(2, 4) has 18 colorings, past a cap of 5
    def no_counting(*args):
        raise AssertionError("counted before refusing")

    monkeypatch.setattr(oracle, "_frontier_count", no_counting)
    with pytest.raises(CapExceeded):
        count_colorings(torus(2, 4), 3, state_cap=5)


# -- tori by slab orbits: one pinned run per orbit of first-slab colorings -------


def _slab_adjacency(lat):
    """The first slab x₀ = 0 of a torus: its sites 0…m−1 and their edges."""
    m = lat.nv // lat.n
    return [[u for u in lat.neighbors[v] if u < m] for v in range(m)]


def _count_every_slab_start(lat, q):
    """Reference: one pinned frontier run per proper first-slab coloring,
    each with weight 1."""
    slab = _slab_adjacency(lat)
    return sum(
        sum(_frontier_count(lat.nv, lat.neighbors, q, dict(enumerate(start)), {},
                            math.inf).values())
        for start in _assignments(len(slab), slab, q, {})
    )


@pytest.mark.parametrize("lat,q", [
    (torus(2, 6), 3), (torus(2, 4), 4), (torus(3, 2), 3), (torus(4, 2), 3), (torus(1, 6), 4),
], ids=repr)
def test_orbit_weighted_torus_count_matches_every_slab_start(lat, q):
    assert count_colorings(lat, q) == _count_every_slab_start(lat, q)


@pytest.mark.parametrize("lat", [
    torus(2, 2), torus(2, 4), torus(2, 6), torus(2, 8), torus(2, 10),
    torus(3, 2), torus(3, 4), torus(4, 2),
], ids=repr)
def test_slab_shares_the_indices_of_the_slab_torus(lat):
    # the orbits are taken on torus(d − 1, n): its vertex i must be slab site i,
    # with the same edges (n = 2 collapses both wrap edges on each)
    assert _slab_adjacency(lat) == torus(lat.d - 1, lat.n).neighbors


def _stacked_seed_counts(monkeypatch):
    """Record the seed count of every ``_frontier_count`` call (1 unseeded)."""
    runs = []
    real_count = oracle._frontier_count

    def spy(*args, **kwargs):
        runs.append(len(kwargs["seeds"][0]) if kwargs.get("seeds") is not None else 1)
        return real_count(*args, **kwargs)

    monkeypatch.setattr(oracle, "_frontier_count", spy)
    return runs


def test_torus_counts_frozen(monkeypatch):
    # one stacked pass per torus, seeded with one slab coloring per orbit:
    # 8 on the 8-cycle, 18 on the 10-cycle, and Z^2_4's 22 on Z^3_4; at the
    # default cap the last two stacks pass 20,000 states and split, so
    # these also check that a split stack answers as its seeds would
    runs = _stacked_seed_counts(monkeypatch)
    assert count_colorings(torus(2, 8)) == 2_901_094_068_042
    assert count_colorings(torus(2, 10)) == 16_178_049_740_086_515_288
    # Z^3_4 is 2·|EvenHeavy| + |Balanced| of the class split at ρ = 11/50
    assert count_colorings(torus(3, 4)) == 2 * 45_222_378_468 + 9_856_293_666 == 100_301_050_602
    assert runs == [8, 18, 22]


def test_repeated_torus_counts_share_one_slab_lattice(monkeypatch):
    # the slab torus is torus(1, 6), one lattice per process that keeps its
    # automorphisms, so neither a repeated count nor the slab itself builds any
    t = torus(2, 6)
    count_colorings(t)
    builds = []
    real_build = Lattice._build_automorphisms
    monkeypatch.setattr(Lattice, "_build_automorphisms",
                        lambda self: builds.append(self) or real_build(self))
    count_colorings(t)
    count_colorings(torus(2, 6))
    slab = torus(1, 6)
    assert slab.vertex_automorphisms() is slab.vertex_automorphisms()
    assert builds == []


def _per_seed_count(lat, q, state_cap):
    """Reference for the stacked pass: one pinned ``_frontier_count`` run per
    slab coloring (per slab orbit with d > 1) in listing order, summed with
    the orbit weights, so the first run past the cap refuses.  Returns the
    total and the most states the listing or one run held."""
    slab = _slab_adjacency(lat)
    try:
        starts = list(_assignments(len(slab), slab, q, {}, state_cap))
    except CapExceeded:
        raise CapExceeded(f"first-slab colorings exceed the state cap {state_cap}") from None
    weights, peak, total = [1] * len(starts), len(starts), 0
    if lat.d > 1:
        first, weights = oracle._orbits(starts, torus(lat.d - 1, lat.n), q)
        starts = [starts[i] for i in first]
    for start, weight in zip(starts, weights):
        stats = {}
        total += int(weight) * sum(_frontier_count(
            lat.nv, lat.neighbors, q, dict(enumerate(start)), {}, state_cap,
            stats=stats).values())
        peak = max(peak, stats["peak_states"])
    return total, peak


@st.composite
def _small_tori(draw):
    """A small even torus and q ∈ {3, 4}."""
    d, q = draw(st.integers(1, 3)), draw(st.sampled_from([3, 4]))
    sizes = {1: [2, 4, 6, 8, 10], 2: [2, 4, 6] if q == 3 else [2, 4], 3: [2]}[d]
    return torus(d, draw(st.sampled_from(sizes))), q


def _answer(count, *args):
    try:
        return count(*args)
    except CapExceeded as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(case=_small_tori(), data=st.data())
def test_stacked_torus_count_matches_per_seed_runs(case, data):
    lat, q = case
    total, peak = _per_seed_count(lat, q, math.inf)
    # caps near the largest seed's frontier: a stack of several seeds passes
    # those above it and splits, and a seed refuses those below it
    cap = data.draw(st.just(STATE_CAP) | st.integers(1, 4 * peak) | st.integers(peak // 2, peak))
    stats = {}
    got = _answer(lambda: (count_colorings(lat, q, state_cap=cap, stats=stats),
                           stats["peak_states"]))
    assert got == _answer(_per_seed_count, lat, q, cap)
    assert cap < peak or got == (total, peak)
    if total <= 5000:
        assert [c.colors for c in enumerate_colorings(lat, q)] == \
            list(_assignments(lat.nv, lat.neighbors, q, {}))


def test_state_cap_bounds_each_slab_seed():
    # every stack here passes its cap: the count answers where each seed
    # fits on its own (Z^2_8's largest seed holds 396 states) and refuses
    # with the first seed's own count where one does not
    with pytest.raises(CapExceeded, match="^frontier of 103 states exceeds the state cap 100$"):
        count_colorings(torus(2, 6), 3, state_cap=100)
    assert count_colorings(torus(2, 6), 3, state_cap=150) == 16_448_400
    with pytest.raises(CapExceeded, match="^frontier of 319 states exceeds the state cap 300$"):
        count_colorings(torus(2, 8), 3, state_cap=300)
    assert count_colorings(torus(2, 8), 3, state_cap=400) == 2_901_094_068_042


def test_split_stack_keeps_its_merged_site(monkeypatch):
    # a stack past the cap splits without redoing the site that passed it:
    # Z^2_10 splits once and Z^3_4 three times, one merge a site each
    merges = 0
    real = oracle._merge

    def counting(parts):
        nonlocal merges
        merges += 1
        return real(parts)

    monkeypatch.setattr(oracle, "_merge", counting)
    for lat, calls in [(torus(2, 10), 136), (torus(3, 4), 121)]:
        merges = 0
        count_colorings(lat)
        assert merges == calls


def test_peak_states_of_boxes_and_tori():
    # a box reports its frontier peak; a torus the larger of its slab
    # listing (18 colorings of the 4-cycle, 66 of the 6-cycle) and the
    # most states one slab seed held
    for lat, bc, count, peak in [
        (box(2, 1), None, 246, 18),
        (box(2, 1), OddBoundaryZero(), 32, 4),
        (torus(2, 4), None, 2970, 18),
        (torus(2, 6), None, 16_448_400, 107),
    ]:
        stats = {}
        assert count_colorings(lat, 3, bc, stats=stats) == count
        assert stats == {"peak_states": peak}


def test_torus_orbit_keys_past_int64_refuse():
    # 2^64 keys for the 64-site slab: a cap refusal (exit 3), not a ValueError
    with pytest.raises(CapExceeded, match="2\\^63"):
        count_colorings(torus(2, 64), 2)


def _reference_moves(states, lat, q):
    """Each state's legal single-site moves, one site and color at a time."""
    index = {s: i for i, s in enumerate(states)}
    return [
        sorted(index[s[:v] + bytes([c]) + s[v + 1:]]
               for v in range(lat.nv) for c in range(q)
               if c != s[v] and all(s[u] != c for u in lat.neighbors[v]))
        for s in states
    ]


@pytest.mark.parametrize("lat,q", [
    (torus(1, 2), 3), (torus(1, 4), 3), (torus(2, 2), 4), (torus(1, 4), 6),
    (box(2, 1), 3), (torus(2, 4), 3),
], ids=repr)
def test_transition_matrix_matches_the_move_by_move_reference(lat, q):
    states = [c.colors for c in enumerate_colorings(lat, q)]
    P = transition_matrix(states, lat, q)
    adj = _reference_moves(states, lat, q)
    assert P.adj == adj
    assert P.diag.tolist() == [q * lat.nv - len(row) for row in adj]
    with pytest.raises(ColoringError, match="not closed under legal moves"):
        transition_matrix(states[1:], lat, q)


def test_transition_matrix_single_edge():
    lat = torus(1, 2)
    states = list(enumerate_colorings(lat, 3))
    P = transition_matrix(states, lat, 3)
    assert P.n == 6
    assert P.row_sums_ok() and P.is_symmetric() and P.uniform_is_stationary()
    assert P.is_connected()
    offdiag = {Fraction(int(np.count_nonzero((P.rows == i) & (P.cols == j))), P.denom)
               for i in range(6) for j in range(6) if i != j}
    assert offdiag == {Fraction(0), Fraction(1, 6)}


def test_tv_mixing_single_vertex_tau_zero():
    class _OnePoint:
        nv = 1

        def vertex_automorphisms(self):
            return ((0,),)

    from potts3.oracle import ExactTransitionMatrix

    P = ExactTransitionMatrix(
        states=[bytes([0]), bytes([1]), bytes([2])],
        lattice=_OnePoint(),
        q=3,
        rows=np.array([0, 0, 1, 1, 2, 2]),
        cols=np.array([1, 2, 0, 2, 0, 1]),
        diag=np.array([1, 1, 1]),
    )
    res = tv_mixing_time(P, starts="all")
    assert res.tau == 0 and res.t_star == 1


def test_tv_mixing_single_edge_frozen_and_orbit_equivalence():
    lat = torus(1, 2)
    states = list(enumerate_colorings(lat, 3))
    P = transition_matrix(states, lat, 3)
    full = tv_mixing_time(P, starts="all")
    reduced = tv_mixing_time(P, starts="orbits")
    assert full.tau == reduced.tau == 3
    assert full.t_star == reduced.t_star == 4


def test_tv_mixing_orbit_equivalence_on_ring():
    lat = torus(1, 4)
    states = list(enumerate_colorings(lat, 3))
    P = transition_matrix(states, lat, 3)
    full = tv_mixing_time(P, starts="all")
    reduced = tv_mixing_time(P, starts="orbits")
    assert full.tau == reduced.tau
    assert full.t_star == reduced.t_star


def test_tv_mixing_threshold_parameter():
    lat = torus(1, 2)
    states = list(enumerate_colorings(lat, 3))
    P = transition_matrix(states, lat, 3)
    loose = tv_mixing_time(P, threshold=Fraction(9, 10), starts="all")
    assert loose.tau <= 1


def test_orbit_representatives_on_ring():
    lat = torus(1, 4)
    states = [c.colors for c in enumerate_colorings(lat, 3)]
    reps = orbit_representatives(states, lat, 3)
    assert 1 <= len(reps) <= 4


def _first_appearance_representatives(states, lat):
    """Reference: canonicalise colors by first appearance under each
    automorphism, keep the least, and take the first state of each class."""
    seen, reps = set(), []
    for i, s in enumerate(states):
        best = None
        for p in lat.vertex_automorphisms():
            table = {}
            out = bytes(table.setdefault(s[p[k]], len(table)) for k in range(lat.nv))
            if best is None or out < best:
                best = out
        if best not in seen:
            seen.add(best)
            reps.append(i)
    return reps


@pytest.mark.parametrize("lat,q", [
    (torus(1, 4), 3), (torus(1, 6), 3), (torus(2, 2), 3),
    (torus(1, 4), 4), (torus(2, 2), 4), (torus(1, 4), 6), (box(2, 1), 3),
], ids=repr)
def test_orbit_representatives_match_first_appearance_reference(lat, q):
    states = [c.colors for c in enumerate_colorings(lat, q)]
    assert orbit_representatives(states, lat, q) == _first_appearance_representatives(states, lat)


def test_orbit_representatives_z24_match_reference(z24, z24_states):
    states = [c.colors for c in z24_states]
    reps = orbit_representatives(states, z24, 3)
    assert len(reps) == 22
    assert reps == _first_appearance_representatives(states, z24)


def test_orbit_representatives_past_float_exact_keys():
    # 3^34 > 2^53: keys on the 34-ring run in int64.  A sample of its
    # colorings plus a rotated, reflected and relabeled copy of each of
    # the first 20 (not closed under the group) still matches the reference
    lat = torus(1, 34)
    rng = random.Random(7)
    s = bytearray((0, 1) * 17)
    states = set()
    while len(states) < 40:
        v, c = rng.randrange(34), rng.randrange(3)
        if all(s[u] != c for u in lat.neighbors[v]):
            s[v] = c
            states.add(bytes(s))
    states = sorted(states)
    states += [bytes((x + 1) % 3 for x in reversed(t[5:] + t[:5])) for t in states[:20]]
    reps = orbit_representatives(states, lat, 3)
    assert reps == _first_appearance_representatives(states, lat)
    assert len(reps) <= 40


def test_orbit_keys_must_fit_int64():
    assert orbit_representatives([], torus(1, 62), 2) == []   # 2^62 < 2^63
    with pytest.raises(ValueError, match="2\\^63"):
        orbit_representatives([], torus(1, 64), 2)
    with pytest.raises(ValueError):
        orbit_representatives([], torus(1, 40), 3)           # 3^40 > 2^63


@pytest.mark.parametrize("starts", [[], [18], [-1]], ids=repr)
def test_bad_starts_are_refused_before_any_iteration(starts, monkeypatch):
    P = _chain(torus(1, 4), 3)                                # 18 states

    def no_iteration(*args):
        raise AssertionError("iterated before checking the starts")

    monkeypatch.setattr(oracle, "_stacked_crossings", no_iteration)
    monkeypatch.setattr(oracle, "_first_crossing", no_iteration)
    with pytest.raises(ValueError, match="starts"):
        tv_mixing_time(P, starts=starts)


# each orbit representative's first crossing of 1/e on Z^2_4
Z24_CROSSINGS = {
    0: 451, 1: 461, 4: 475, 8: 475, 9: 471, 11: 483, 25: 485, 38: 483, 39: 488,
    41: 476, 44: 488, 45: 489, 46: 476, 51: 480, 57: 483, 60: 482, 61: 489,
    123: 493, 125: 482, 240: 493, 249: 482, 263: 492,
}


@pytest.fixture(scope="module")
def z24_chain(z24, z24_states):
    return transition_matrix(z24_states, z24, 3)


def test_mixing_z24_per_start_crossings_frozen(z24_chain):
    res = tv_mixing_time(z24_chain)
    assert res.per_start_t_star == Z24_CROSSINGS
    assert list(res.per_start_t_star) == sorted(Z24_CROSSINGS)   # starts keep their order
    assert sum(res.per_start_t_star.values()) == 10577
    # 123 and 240 tie at 493; the first in start order is the worst
    assert (res.tau, res.t_star, res.worst_start) == (492, 493, 123)
    assert res.exact_fallbacks == []


def test_z24_worst_start_crossing_by_the_exact_path(z24_chain):
    # the flagship t* from the big-integer iteration alone, no float walk;
    # every start's crossing is checked this way outside tier-1
    assert _first_crossing(z24_chain, 123, None, ITER_CAP) == Z24_CROSSINGS[123] == 493


# C4 x C4 is the 4-cube, whose 384 automorphisms join these pairs of the
# 22 orbits of the torus's 128; each pair's lumped walks are equal
Z24_SHARED = {(4, 8), (39, 44), (41, 46), (45, 61), (123, 240), (125, 249)}


def test_z24_starts_share_exactly_equal_walks(z24_chain, monkeypatch):
    stepped = []

    def spy(ops, *args):
        stepped.extend(ops)
        return real(ops, *args)

    real = oracle._stacked_crossings
    monkeypatch.setattr(oracle, "_stacked_crossings", spy)
    assert tv_mixing_time(z24_chain).float_walks == len(stepped) == 16
    walk_of = {}
    for s in Z24_CROSSINGS:
        op = _lump(z24_chain, _refined_blocks(z24_chain, s), s)
        same = [w for w, walk in enumerate(stepped) if all(map(np.array_equal, walk, op))]
        assert len(same) == 1, s
        walk_of[s] = same[0]
    shared = {(a, b) for a in walk_of for b in walk_of if a < b and walk_of[a] == walk_of[b]}
    assert shared == Z24_SHARED


def test_walks_are_shared_only_when_exactly_equal(z24_chain, monkeypatch):
    res = tv_mixing_time(z24_chain)
    assert res.per_start_t_star == Z24_CROSSINGS and res.float_walks == 16
    P = _chain(torus(1, 4), 3)
    exact = {s: _first_crossing(P, s, None, ITER_CAP) for s in range(P.n)}
    assert tv_mixing_time(P, starts="all").per_start_t_star == exact
    # lumped by the identity labelling, the walks differ in their start alone
    monkeypatch.setattr(oracle, "_refined_blocks", lambda op, start: np.arange(len(op.diag)))
    res = tv_mixing_time(P, starts="all")
    assert res.per_start_t_star == exact and res.float_walks == P.n
    assert res.exact_fallbacks == [] and res.lumped_states == dict.fromkeys(range(P.n), P.n)


def test_z24_refined_labellings_pass_the_lumping_check(z24_chain):
    P = z24_chain
    starts = sorted(Z24_CROSSINGS)
    blocks = {}
    for s in starts:
        op = _lump(P, _refined_blocks(P, s), s)
        assert op is not None, s
        blocks[s] = len(op.sizes)
    assert min(blocks.values()) == 75 and max(blocks.values()) == 1191
    assert sum(blocks.values()) == 11559 < len(starts) * P.n
    assert tv_mixing_time(P).lumped_states == blocks


def test_lumping_that_is_not_a_symmetry_fails_its_check():
    # the path 0 - 1 - 2: relabeling 1 <-> 2 fixes state 0 but is not a
    # symmetry of the chain, and its blocks {0}, {1, 2} fail the check;
    # 0 <-> 2 fixing state 1 is one, and start 1 runs on {1}, {0, 2}
    P = _lattice_free_chain([[1], [0, 2], [1]], [2, 1, 2], 3)
    assert _lump(P, np.array([0, 1, 1]), 0) is None
    assert len(_lump(P, _refined_blocks(P, 1), 1).sizes) == 2
    res = tv_mixing_time(P, starts="all")
    assert res.lumped_states == {0: 3, 1: 2, 2: 3}
    assert res.per_start_t_star == {s: _first_crossing(P, s, None, ITER_CAP) for s in range(3)}


def test_lump_refuses_each_inexact_labelling():
    # states 1, 2, 3 each take 3 moves (1 + 2, 2 + 1, 1 + 2 from {0} and
    # {1, 2, 3}) and have diagonal 1, so only their block-rows tell them apart
    P = _lattice_free_chain([[1, 2, 3, 3], [0, 2, 3], [0, 0, 1], [0, 1, 2]], [0, 1, 1, 1], 4)
    assert _lump(P, np.array([0, 1, 1, 1]), 0) is None
    assert _lump(P, np.array([0, 1, 2, 1]), 2) is not None    # {1, 3} is equitable
    res = tv_mixing_time(P, starts="all")
    assert res.lumped_states[0] == 3                             # refinement finds {1, 3}
    assert res.per_start_t_star == {s: _first_crossing(P, s, None, ITER_CAP) for s in range(4)}
    # state 2 has the first of its peer's two block-row entries and not the second
    Q = _lattice_free_chain([[1, 1, 1, 2], [0, 2, 2], [0]], [2, 1, 1], 4)
    assert _lump(Q, np.array([0, 1, 1]), 0) is None
    # equal block-rows, unequal diagonals
    Q = _lattice_free_chain([[1, 2, 2], [0], [0]], [1, 2, 1], 3)
    assert _lump(Q, np.array([0, 1, 1]), 0) is None
    # the path 0 - 1 - 2: {0, 2}, {1} is equitable, but the start 0 is not alone
    Q = _lattice_free_chain([[1], [0, 2], [1]], [2, 1, 2], 3)
    assert _lump(Q, np.array([0, 1, 0]), 0) is None
    assert _lump(Q, np.array([0, 1, 0]), 1) is not None


def test_lump_refuses_a_block_row_past_the_denominator():
    # state 0 takes a move from each of 1, 2, 3, which take none: column
    # sums are 2, the denominator, and {0}, {1, 2, 3} is equitable, but
    # the 3 moves into 0 from {1, 2, 3} are more than the denominator
    P = _lattice_free_chain([[1, 2, 3], [], [], []], [2, 1, 1, 1], 2)
    assert _floatable(P)
    assert _lump(P, np.array([1, 0, 0, 0]), 0) is None
    assert _lump(P, np.arange(4), 0).weights.tolist() == [1, 1, 1]


def test_labelling_that_fails_its_check_runs_unlumped(monkeypatch):
    # each start alone against one block of the rest is not equitable on the
    # 4-ring, so no start walks in float64: each runs the exact iteration on
    # the full chain, and no stack, not even an empty one, is stepped
    P = _chain(torus(1, 4), 3)
    monkeypatch.setattr(oracle, "_refined_blocks",
                        lambda op, start: (np.arange(len(op.diag)) != start).astype(np.intp))
    res = tv_mixing_time(P, starts="all")
    assert P.n == 18 and res.exact_fallbacks == list(range(P.n))
    assert res.float_walks == 0 and res.lumped_states == dict.fromkeys(range(P.n), P.n)
    assert res.per_start_t_star == {s: _first_crossing(P, s, None, ITER_CAP) for s in range(P.n)}


@pytest.mark.parametrize("starts", ["orbits", "all"])
def test_one_state_chain_is_mixed_at_once(starts):
    # no off-diagonal entry at all: nothing to refine, lump or iterate
    P = _lattice_free_chain([[]], [1], 1)
    res = tv_mixing_time(P, starts=starts)
    assert (res.tau, res.t_star, res.lumped_states, res.float_walks) == (0, 0, {0: 1}, 1)


def test_tv_mixing_iteration_cap_refusal(monkeypatch):
    lat = torus(1, 4)
    states = list(enumerate_colorings(lat, 3))
    P = transition_matrix(states, lat, 3)
    # the stacked float walks refuse; no start reaches the exact path
    monkeypatch.setattr(oracle, "_first_crossing", None)
    with pytest.raises(CapExceeded):
        tv_mixing_time(P, starts="all", iter_cap=1)


# -- float engine against the exact path ---------------------------------------

# (lattice, q) of every connected chain these tests build
SMALL_CHAINS = [
    (torus(1, 2), 3),
    (torus(1, 4), 3),
    (torus(2, 2), 3),
    (torus(1, 4), 4),
    (torus(2, 2), 4),
    (box(2, 1), 3),
    (torus(3, 2), 3),
]


def _chain(lat, q):
    return transition_matrix(list(enumerate_colorings(lat, q)), lat, q)


class _Sites:
    """Lattice stand-in for a hand-built chain: P.denom is q·nv, and the
    identity is its one automorphism."""

    def __init__(self, nv):
        self.nv = nv

    def vertex_automorphisms(self):
        return (tuple(range(self.nv)),)


def _lattice_free_chain(adj, diag, denom):
    return ExactTransitionMatrix(
        states=[bytes([i]) for i in range(len(adj))], lattice=_Sites(1), q=denom,
        rows=np.repeat(np.arange(len(adj)), [len(row) for row in adj]),
        cols=np.array([j for row in adj for j in row], dtype=np.int64), diag=np.array(diag),
    )


@pytest.mark.parametrize("lat,q", SMALL_CHAINS, ids=repr)
def test_float_and_exact_crossings_agree_per_start(lat, q):
    P = _chain(lat, q)
    res = tv_mixing_time(P, starts="all")
    assert res.exact_fallbacks == []
    # every start on the rings and 2-tori; on box(2,1) (246 starts, ~9 s
    # exact) and Z^3_2 (114) the orbit representatives, which hold every
    # crossing time
    exact_starts = range(P.n) if P.n < 100 else orbit_representatives(P.states, lat, q)
    for s in exact_starts:
        assert res.per_start_t_star[s] == _first_crossing(P, s, None, ITER_CAP), s
    crossings = set(res.per_start_t_star.values())
    assert crossings == {res.per_start_t_star[s] for s in exact_starts}
    assert res.t_star == max(crossings)


def test_mixing_z32_per_start_crossings_frozen():
    # Z^3_2 is the 3-cube Q_3: 114 colorings in 4 start orbits
    res = tv_mixing_time(_chain(torus(3, 2), 3))
    assert res.per_start_t_star == {0: 91, 1: 97, 4: 101, 10: 101}
    assert (res.tau, res.t_star, res.exact_fallbacks) == (100, 101, [])


def _exact_tv(P, start, t):
    """TV(P^t(start,·), uniform) as a Fraction, by the integer iteration."""
    diag = P.diag.tolist()                  # Python ints: the products outgrow int64
    u = [0] * P.n
    u[start] = 1
    for _ in range(t):
        u = [diag[y] * u[y] + sum(u[x] for x in P.adj[y]) for y in range(P.n)]
    mt = P.denom ** t
    return Fraction(sum(abs(P.n * w - mt) for w in u), 2 * P.n * mt)


def test_walks_past_the_entry_cap_stack_apart(monkeypatch):
    # a cap below any walk's size puts each distinct walk in a stack of its
    # own, and a start shares a walk only while its stack is open: the 4-ring's
    # 18 starts, in index order, hold 11 runs of equal walks
    P = _chain(torus(1, 4), 3)
    stacks = []

    def spy(ops, *args):
        stacks.append(len(ops))
        return real(ops, *args)

    real = oracle._stacked_crossings
    monkeypatch.setattr(oracle, "_stacked_crossings", spy)
    monkeypatch.setattr(oracle, "_STACK_CAP", 1)
    res = tv_mixing_time(P, starts="all")
    assert res.per_start_t_star == {s: _first_crossing(P, s, None, ITER_CAP) for s in range(P.n)}
    assert res.exact_fallbacks == [] and res.float_walks == 11 and stacks == [1] * 11


def test_float_tv_stays_within_its_rounding_budget():
    # box(2,1) from its worst start, every step to the crossing: the float
    # TV is within ε_t of the exact TV, and ε_t stays far below 1/e's scale,
    # for the full chain and its refinement-lumped form stepped as one stack
    P = _chain(box(2, 1), 3)
    start = tv_mixing_time(P).worst_start
    full = _lump(P, np.arange(P.n), start)
    lumped = _lump(P, _refined_blocks(P, start), start)
    assert len(lumped.sizes) < P.n
    diag = P.diag.tolist()                  # Python ints: the products outgrow int64
    u = [0] * P.n
    u[start] = 1
    mt = 1
    for t, (tvs, epss) in zip(range(138), _stacked_tv([full, lumped], P.n)):
        exact = Fraction(sum(abs(P.n * w - mt) for w in u), 2 * P.n * mt)
        assert len(tvs) == len(epss) == 2
        for tv, eps in zip(tvs, epss):
            assert abs(Fraction(tv) - exact) <= Fraction(eps)
            assert eps < 1e-12
        u = [diag[y] * u[y] + sum(u[x] for x in P.adj[y]) for y in range(P.n)]
        mt *= P.denom
    assert t == 137


def test_threshold_at_an_exact_tv_value_forces_the_exact_path():
    P = _chain(torus(1, 4), 3)
    threshold = _exact_tv(P, 0, 3)
    res = tv_mixing_time(P, threshold=threshold, starts=[0, 1])
    assert 0 in res.exact_fallbacks
    for s in (0, 1):
        assert res.per_start_t_star[s] == _first_crossing(P, s, threshold, ITER_CAP)
    assert res.per_start_t_star[0] <= 3


def test_walk_that_leaves_the_normal_range_runs_exact_alone():
    # the 61-state path with moves of weight 2^-24: from an end, the state k
    # steps away first gets mass near 2^-24k, below 2^-1000 at k = 42, so
    # that walk's bound lapses before it crosses and its start runs exact;
    # the middle start's walk, in the same stack, decides in float
    n, denom = 61, 2 ** 24
    adj = [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
    P = _lattice_free_chain(adj, [denom - len(row) for row in adj], denom)
    threshold = (_exact_tv(P, 0, 50) + _exact_tv(P, 0, 51)) / 2
    res = tv_mixing_time(P, threshold=threshold, starts=[0, 30])
    assert res.exact_fallbacks == [0] and res.float_walks == 2
    assert res.per_start_t_star == {s: _first_crossing(P, s, threshold, ITER_CAP) for s in (0, 30)}
    assert res.per_start_t_star[0] == 51


def test_chain_outside_the_float_bound_runs_exact():
    # column sums 2, 4, 3 against the denominator 3: mass is not conserved,
    # so the float bound does not apply and every start runs exact
    P = _lattice_free_chain([[1, 1], [0, 2], [1]], [1, 1, 2], 3)
    res = tv_mixing_time(P, threshold=Fraction(9, 10), starts="all")
    assert res.exact_fallbacks == [0, 1, 2] and res.float_walks == 0
    assert res.per_start_t_star == {
        s: _first_crossing(P, s, Fraction(9, 10), ITER_CAP) for s in range(3)
    }


def test_chain_past_the_packing_bound_runs_exact():
    # the 32-state lazy path with denominator 2^53 − 1 meets the rounding
    # bound's hypotheses, but N²·(denom + 1) = 2^63 leaves no room for the
    # packed codes of ``_lump``, so every start runs exact; one less in the
    # denominator and every start walks in float
    n = 32
    adj = [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
    P = _lattice_free_chain(adj, [2 ** 53 - 1 - len(row) for row in adj], 2 ** 53 - 1)
    res = tv_mixing_time(P, threshold=Fraction(99, 100), starts="all")
    assert res.float_walks == 0 and res.exact_fallbacks == list(range(n))
    assert res.per_start_t_star == {
        s: _first_crossing(P, s, Fraction(99, 100), ITER_CAP) for s in range(n)
    }
    Q = _lattice_free_chain(adj, [2 ** 53 - 2 - len(row) for row in adj], 2 ** 53 - 2)
    assert _floatable(Q) and not _floatable(P)
    assert tv_mixing_time(Q, threshold=Fraction(99, 100), starts="all").exact_fallbacks == []


@st.composite
def _symmetric_chains(draw):
    """A connected symmetric chain on 2..8 states with laziness ≥ 1."""
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(n)))
    edges = {tuple(sorted(e)) for e in zip(order, order[1:])}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    denom = max(len(row) for row in adj) + draw(st.integers(1, 3))
    return _lattice_free_chain(
        [sorted(row) for row in adj], [denom - len(row) for row in adj], denom
    )


@settings(max_examples=60, deadline=None)
@given(P=_symmetric_chains(),
       threshold=st.one_of(st.none(), st.fractions(Fraction(1, 50), Fraction(9, 10))))
def test_float_engine_matches_exact_on_random_chains(P, threshold):
    res = tv_mixing_time(P, threshold=threshold, starts="all")
    for s in range(P.n):
        assert res.per_start_t_star[s] == _first_crossing(P, s, threshold, ITER_CAP)
        labels = _refined_blocks(P, s)
        assert _partition(labels.tolist()) == _coarsest_equitable_partition(P, s)
        assert len(_lump(P, labels, s).sizes) == res.lumped_states[s]


def _partition(labels):
    """Each state's least fellow in its block: the partition, whatever the
    block numbering."""
    first = {}
    return [first.setdefault(label, y) for y, label in enumerate(labels)]


def _coarsest_equitable_partition(P, start):
    """Reference for ``_refined_blocks``: colour refinement from (diagonal,
    is-start), each round keyed by the state's block and the sorted blocks
    of its in-neighbours, with no hashing."""
    blocks = _partition([(P.diag[y], y == start) for y in range(P.n)])
    while True:
        refined = _partition([(blocks[y], tuple(sorted(blocks[x] for x in P.adj[y])))
                              for y in range(P.n)])
        if refined == blocks:
            return blocks
        blocks = refined


@st.composite
def _labelled_chains(draw):
    """A chain of ``_symmetric_chains``, a start, and a labelling of its
    states below N: the identity, the start's refined labelling or the
    labelling by diagonal, its block numbers renamed by a permutation or
    merged by any map, and then maybe the start moved to block N − 1."""
    P = draw(_symmetric_chains())
    start = draw(st.integers(0, P.n - 1))
    labels = draw(st.sampled_from([np.arange(P.n), _refined_blocks(P, start),
                                   np.unique(P.diag, return_inverse=True)[1]]))
    top = draw(st.integers(0, P.n - 1))
    rename = draw(st.one_of(st.permutations(range(P.n)),
                            st.lists(st.integers(0, top), min_size=P.n, max_size=P.n)))
    blocks = np.array(rename, dtype=np.intp)[labels]
    if draw(st.booleans()):
        blocks[start] = P.n - 1
    return P, blocks, start


def _reference_lumping(P, blocks, start):
    """Reference for ``_lump``: the lumped entries {(Y, X): moves into a
    state of Y from X}, read off each state's row of ``P.adj``, or None
    when the start shares its block, a block holds two diagonals or two
    states of a block have different block-rows."""
    members = {}
    for y, Y in enumerate(blocks.tolist()):
        members.setdefault(Y, []).append(y)
    if len(members[blocks[start]]) != 1:
        return None
    entries = {}
    for Y, ys in members.items():
        rows = [Counter(blocks[x] for x in P.adj[y]) for y in ys]
        if len({P.diag[y] for y in ys}) != 1 or any(row != rows[0] for row in rows):
            return None
        entries.update({(Y, X): c for X, c in rows[0].items()})
    return entries


@settings(max_examples=200, deadline=None)
@given(case=_labelled_chains())
def test_lump_accepts_exactly_the_equitable_labellings(case):
    P, blocks, start = case
    op = _lump(P, blocks, start)
    entries = _reference_lumping(P, blocks, start)
    assert (op is None) == (entries is None)
    if op is not None:
        assert list(zip(op.rows.tolist(), op.cols.tolist())) == sorted(entries)
        assert op.weights.tolist() == [entries[e] for e in sorted(entries)]
        assert op.start == blocks[start]


@pytest.mark.parametrize("lat,q", SMALL_CHAINS, ids=repr)
def test_spectral_gap_brackets_the_mixing_time(lat, q):
    # Levin–Peres–Wilmer Thm 12.4/12.5 for a reversible chain, ε = 1/e:
    # (t_rel − 1)·ln(e/2) ≤ t_mix ≤ t_rel·ln(e·N), t_rel = 1/(1 − λ*)
    P = _chain(lat, q)
    dense = np.diag(np.asarray(P.diag, dtype=float))
    for i, row in enumerate(P.adj):
        for j in row:
            dense[i, j] += 1
    lam = np.linalg.eigvalsh(dense / P.denom)
    t_rel = 1 / (1 - max(lam[-2], abs(lam[0])))
    t_star = tv_mixing_time(P).t_star
    assert (t_rel - 1) * math.log(math.e / 2) <= t_star <= t_rel * (1 + math.log(P.n))


def test_box_transition_graph_connected():
    lat = box(2, 1)
    states = list(enumerate_colorings(lat, 3))
    P = transition_matrix(states, lat, 3)
    assert P.is_connected()
    assert P.is_symmetric() and P.uniform_is_stationary()


def _communicating_classes(P):
    """P's communicating classes as state lists, read from its move pairs
    (A is symmetric, so they are the components of its move graph)."""
    label = [None] * P.n
    classes = []
    for start in range(P.n):
        if label[start] is None:
            label[start] = len(classes)
            members = [start]
            for u in members:
                for w in P.adj[u]:
                    if label[w] is None:
                        label[w] = len(classes)
                        members.append(w)
            classes.append(members)
    return classes


def _ring_winding(colors: bytes) -> int:
    """Σ of the ±1 colour steps (mod 3) once around a ring."""
    return sum(1 if (b - a) % 3 == 1 else -1 for a, b in zip(colors, colors[1:] + colors[:1]))


# (winding, class size) → how many classes; a single-site move keeps the
# winding, which is 0 or ±6 on these rings, so n ≥ 6 rings split
@pytest.mark.parametrize("n,classes", [
    (4, {(0, 18): 1}),
    (6, {(0, 60): 1, (6, 1): 3, (-6, 1): 3}),
    (8, {(0, 210): 1, (6, 24): 1, (-6, 24): 1}),
    (10, {(0, 756): 1, (6, 135): 1, (-6, 135): 1}),
])
def test_ring_classes_are_its_winding_classes(n, classes):
    P = _chain(torus(1, n), 3)
    found = Counter()
    for members in _communicating_classes(P):
        windings = {_ring_winding(P.states[i]) for i in members}
        assert len(windings) == 1
        found[windings.pop(), len(members)] += 1
    assert found == classes


def test_kempe_chain_runs_through_the_same_engine(z24, z24_states):
    # the Kempe-flip chain is not local, yet it is P = A/(q|V|) with A
    # symmetric; its repeated (row, col) pairs go through _lump and
    # _first_crossing as they are
    P = kempe_matrix(z24_states, z24)
    assert len(P.rows) == 95_040 > len(np.unique(P.rows * P.n + P.cols))
    assert P.row_sums_ok() and P.is_symmetric() and P.uniform_is_stationary()
    assert P.is_connected()
    res = tv_mixing_time(P)
    assert (res.tau, res.t_star, res.worst_start) == (26, 27, 123)
    assert res.exact_fallbacks == []
    assert _first_crossing(P, 123, None, ITER_CAP) == 27


@pytest.mark.parametrize("adj,diag,denom,verdicts", [
    ([[1], []], [1, 2], 2, (True, False, False, True)),            # one move 0 -> 1, none back
    ([[1, 1, 1], [0, 0, 0]], [0, 0], 2, (False, True, False, True)),  # 3 moves per row, denom 2
    ([[1], [0], [3], [2]], [1, 1, 1, 1], 2, (True, True, True, False)),  # two disjoint 2-cycles
], ids=["one-way", "overfull-row", "two-cycles"])
def test_each_matrix_check_can_fail(adj, diag, denom, verdicts):
    P = _lattice_free_chain(adj, diag, denom)
    checks = (P.row_sums_ok(), P.is_symmetric(), P.uniform_is_stationary(), P.is_connected())
    assert checks == verdicts


def test_le_inv_e_brackets():
    assert le_inv_e(Fraction(367879, 1000000))
    assert not le_inv_e(Fraction(367880, 1000000))
    assert le_inv_e(Fraction(0))


_CLASS_ORDER = (ImbalanceClass.EVEN_HEAVY, ImbalanceClass.BALANCED, ImbalanceClass.ODD_HEAVY)


def test_conductance_z24(z24, z24_states):
    # the histogram of the listed states is the graded transfer's, and its
    # classes are the per-coloring classes
    rho = Fraction(11, 50)
    hist = Counter(map(imbalance, z24_states))
    assert hist == torus_imbalance_histogram(4)
    rep = conductance_bound(hist, z24, rho)
    per_coloring = Counter(classify(chi, rho) for chi in z24_states)
    got = (rep.n_even_heavy, rep.n_balanced, rep.n_odd_heavy)
    assert got == tuple(per_coloring[c] for c in _CLASS_ORDER) == (1316, 338, 1316)
    assert rep.pi_a == Fraction(1316, 2970)
    assert rep.bound == Fraction(329, 676)
    # a float rho is read as its exact binary fraction, as classify reads it
    assert conductance_bound(hist, z24, 0.22) == rep


def test_graded_transfer_z26_classes_are_frozen():
    hist = torus_imbalance_histogram(6)
    assert sum(hist.values()) == 16_448_400 == count_colorings(torus(2, 6), 3)
    rep = conductance_bound(hist, torus(2, 6))
    assert (rep.n_even_heavy, rep.n_balanced, rep.n_odd_heavy) == (7_113_692, 2_221_016, 7_113_692)


@functools.cache
def _parity_symmetric_states(d, n, q):
    """At most 200 listed colorings of the torus plus each one's translate by
    one step, which swaps the parity classes and negates the imbalance, so
    π(EvenHeavy) = π(OddHeavy) ≤ 1/2."""
    lat = torus(d, n)
    listed = list(itertools.islice(enumerate_colorings(lat, q), 200))
    step = lat.shift_tables[1]
    moved = []
    for chi in listed:
        buf = bytearray(lat.nv)
        for v, c in enumerate(chi.colors):
            buf[step[v]] = c
        moved.append(Coloring(lat, buf, q))
    return lat, listed + moved


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([2, 4]), q=st.sampled_from([2, 3, 4]),
       rho=st.fractions(min_value=0, max_value=1, max_denominator=64).filter(lambda r: 0 < r < 1))
def test_conductance_classes_match_per_coloring_classes(d, n, q, rho):
    lat, states = _parity_symmetric_states(d, n, q)
    rep = conductance_bound(Counter(map(imbalance, states)), lat, rho)
    per_coloring = Counter(classify(chi, rho) for chi in states)
    assert (rep.n_even_heavy, rep.n_balanced, rep.n_odd_heavy) == tuple(
        per_coloring[c] for c in _CLASS_ORDER)


@pytest.mark.parametrize("lat,rho", [
    (box(2, 1), Fraction(11, 50)),
    (torus(2, 4), Fraction(0)),
    (torus(2, 4), Fraction(1)),
    (torus(2, 4), Fraction(-1, 2)),
], ids=["box", "rho=0", "rho=1", "rho<0"])
def test_conductance_refuses_a_box_and_rho_outside_the_unit_interval(lat, rho):
    with pytest.raises(ColoringError):
        conductance_bound({0: 1}, lat, rho)


def test_conductance_empty_bottleneck_is_flagged():
    # no balanced states at all: the bound is reported unbounded, not faked
    t = torus(2, 4)
    states = [phase_coloring(t, Parity.EVEN), phase_coloring(t, Parity.ODD)]
    rep = conductance_bound(Counter(map(imbalance, states)), t, Fraction(11, 50))
    assert rep.n_balanced == 0
    assert rep.bound is None and rep.unbounded


def test_conductance_degenerate_empty_a(z24, z24_states):
    # a state list with no heavy colorings: A = empty, bound collapses to 0
    balanced = [c for c in z24_states if classify(c, Fraction(11, 50)) is ImbalanceClass.BALANCED]
    rep = conductance_bound(Counter(map(imbalance, balanced)), z24, Fraction(11, 50))
    assert rep.n_even_heavy == 0
    assert rep.bound == 0
    assert not rep.unbounded


def test_influence_ratios_frozen():
    r21 = influence_ratio(2, 1)
    assert (r21.pinned, r21.total) == (0, 32)
    assert r21.ratio == 0
    assert r21.histogram == {}

    r22 = influence_ratio(2, 2)
    assert (r22.pinned, r22.total) == (32, 13888)
    assert r22.ratio == Fraction(1, 434)
    assert sum(r22.histogram.values()) == 32
    assert set(r22.histogram) == {12}   # every corpus cutset is the closed star


def test_lcol_single_edge_equality():
    g = BipartiteGraph(2, ((0, 1),), (0, 1))
    rep = lcol_check(g, [], [], [0], [])
    assert rep.lhs == rep.rhs == Fraction(1, 3)
    assert rep.holds and rep.equality


def test_lcol_path_three():
    g = BipartiteGraph(3, ((0, 1), (1, 2)), (0, 1, 0))
    rep = lcol_check(g, [], [], [0, 2], [])
    # brute force: 12 proper colorings, both ends 0 forces middle in {1,2}
    assert rep.conditioned == 12 and rep.satisfying == 2
    assert rep.lhs == Fraction(1, 6) >= rep.rhs == Fraction(1, 9)


def test_lcol_input_validation():
    g = BipartiteGraph(2, ((0, 1),), (0, 1))
    with pytest.raises(ColoringError):
        lcol_check(g, [1], [], [], [0])   # parity mismatch both ways
    with pytest.raises(ColoringError):
        lcol_check(g, [0], [], [0], [])   # target overlaps conditioning


def test_lcol_refuses_past_the_frontier_cap(monkeypatch):
    # five isolated targets keep 3^5 = 243 patterns on the frontier
    g = BipartiteGraph(5, (), (0,) * 5)
    assert lcol_check(g, [], [], range(5), []).conditioned == 243
    monkeypatch.setattr(oracle, "WINDOW_CAP", 100)
    with pytest.raises(CapExceeded):
        lcol_check(g, [], [], range(5), [])


def test_lcol_random_instances_hold():
    rng = random.Random(20260808)
    checked = 0
    equalities = 0
    while checked < 100:
        ne, no = rng.randrange(1, 4), rng.randrange(1, 4)
        nv = ne + no
        parities = tuple([0] * ne + [1] * no)
        edges = tuple(
            (i, ne + j)
            for i in range(ne)
            for j in range(no)
            if rng.random() < 0.6
        )
        g = BipartiteGraph(nv, edges, parities)
        evens = list(range(ne))
        odds = list(range(ne, nv))
        rng.shuffle(evens)
        rng.shuffle(odds)
        k1e = rng.randrange(0, ne + 1)
        k1o = rng.randrange(0, no + 1)
        e1, rest_e = evens[:k1e], evens[k1e:]
        o1, rest_o = odds[:k1o], odds[k1o:]
        e2 = rest_e[: rng.randrange(0, len(rest_e) + 1)]
        o2 = rest_o[: rng.randrange(0, len(rest_o) + 1)]
        if not e2 and not o2:
            continue
        try:
            rep = lcol_check(g, e1, o1, e2, o2)
        except ColoringError:
            continue  # empty conditioning event; resample
        assert rep.holds
        checked += 1
        equalities += rep.equality
    assert checked == 100
