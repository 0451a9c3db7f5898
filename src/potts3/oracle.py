"""Ground truth by exhaustion: enumeration, exact counting, exact transition
matrices, mixing times, conductance bounds, and the conditional-probability
check behind the entropy argument.

Everything here is exact: counts are big ints, probabilities are Fractions,
and the mixing threshold 1/e is compared through a rational interval
enclosure of e rather than floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coloring import (
    BoundaryCondition,
    Coloring,
    DEFAULT_RHO,
    ImbalanceClass,
    classify,
)
from .cutset import build_box_cutset
from .errors import CapExceeded, ColoringError, LatticeError
from .lattice import Lattice, LatticeKind, LatticeSpec, build_lattice, box

ENUM_CAP = 10_000_000
STATE_CAP = 20_000
ITER_CAP = 100_000


# -- generic backtracking enumeration ---------------------------------------


def _assignments(nv, neighbors, q, pins, cap=None):
    """Yield proper assignments as bytes, vertex-index order, colors
    ascending (lexicographic output order).  Raises CapExceeded past cap."""
    colors = bytearray(nv)
    assigned = [False] * nv
    produced = 0

    def rec(v):
        nonlocal produced
        if v == nv:
            produced += 1
            if cap is not None and produced > cap:
                raise CapExceeded(
                    f"enumeration exceeded cap {cap}; at least {cap + 1} exist",
                    partial=cap,
                )
            yield bytes(colors)
            return
        choices = (pins[v],) if v in pins else range(q)
        for c in choices:
            ok = True
            for u in neighbors[v]:
                if assigned[u] and colors[u] == c:
                    ok = False
                    break
            if ok:
                colors[v] = c
                assigned[v] = True
                yield from rec(v + 1)
                assigned[v] = False

    yield from rec(0)


def enumerate_colorings(
    lat: Lattice,
    q: int = 3,
    bc: BoundaryCondition | None = None,
    cap: int = ENUM_CAP,
):
    """Stream exactly the proper colorings satisfying ``bc``, each once, in
    deterministic (lexicographic) order."""
    pins = bc.pins(lat) if bc is not None else {}
    for c in pins.values():
        if not 0 <= c < q:
            raise ColoringError(f"pin color {c} out of range for q={q}")
    for colors in _assignments(lat.nv, lat.neighbors, q, pins, cap=cap):
        yield Coloring(lat, colors, q)


def count_by_enumeration(lat, q=3, bc=None, cap=ENUM_CAP) -> int:
    pins = bc.pins(lat) if bc is not None else {}
    count = 0
    for _ in _assignments(lat.nv, lat.neighbors, q, pins, cap=cap):
        count += 1
    return count


# -- transfer-matrix counting -------------------------------------------------


def _layer_pins(lat: Lattice, pins: dict[int, int], layer: int, slab_coords) -> dict[int, int]:
    out = {}
    for j, tail in enumerate(slab_coords):
        v = lat.index_of.get((layer,) + tail)
        if v is not None and v in pins:
            out[j] = pins[v]
    return out


def _slab_transfer(nv, neighbors, q=3, cap=None) -> tuple[list[bytes], list[list[int]]]:
    """Proper colorings of one slab, lexicographic, and for each the indices
    of the states that may sit next to it (different at every site)."""
    states = list(_assignments(nv, neighbors, q, {}, cap=cap))
    compat = [
        [i for i, b in enumerate(states) if all(x != y for x, y in zip(a, b))]
        for a in states
    ]
    return states, compat


def count_by_transfer(lat: Lattice, q=3, bc=None, state_cap=STATE_CAP) -> int:
    """Exact count, layer-by-layer over hyperplanes x₀ = const.

    Slab states are proper colorings of one (d−1)-dimensional slice; layers
    interact cellwise.  Boundary-condition pins filter states per layer.
    Refuses (CapExceeded) rather than approximating when the slab state
    space is too large.
    """
    if lat.spec.extended:
        raise LatticeError("transfer counting applies to plain boxes and tori")
    pins = bc.pins(lat) if bc is not None else {}
    if lat.d == 1:
        slab_nv, slab_neighbors = 1, [[]]
        slab_coords = [()]
    else:
        slab = build_lattice(LatticeSpec(lat.kind, lat.d - 1, lat.n))
        slab_nv, slab_neighbors = slab.nv, slab.neighbors
        slab_coords = list(slab.coords)
    states, compat = _slab_transfer(slab_nv, slab_neighbors, q, cap=state_cap)

    layers = range(lat.n) if lat.kind is LatticeKind.TORUS else range(-lat.n, lat.n + 1)
    layer_allowed: list[set[int]] = []
    for layer in layers:
        lp = _layer_pins(lat, pins, layer, slab_coords)
        layer_allowed.append(
            {i for i, sb in enumerate(states) if all(sb[j] == c for j, c in lp.items())}
        )

    def through_layers(vec: dict[int, int]) -> dict[int, int]:
        for ok in layer_allowed[1:]:
            new: dict[int, int] = {}
            for i, w in vec.items():
                for j in compat[i]:
                    if j in ok:
                        new[j] = new.get(j, 0) + w
            vec = new
        return vec

    if lat.kind is LatticeKind.BOX:
        return sum(through_layers({i: 1 for i in layer_allowed[0]}).values())

    # torus: close the trace over the layer cycle
    total = 0
    for start in layer_allowed[0]:
        closing = set(compat[start])
        total += sum(w for i, w in through_layers({start: 1}).items() if i in closing)
    return total


def count_colorings(lat: Lattice, q=3, bc=None, cap=ENUM_CAP, state_cap=STATE_CAP) -> int:
    """Exact |C_q(lat, bc)|; transfer matrix when available, else enumeration."""
    if not lat.spec.extended:
        try:
            return count_by_transfer(lat, q, bc, state_cap=state_cap)
        except CapExceeded:
            pass
    return count_by_enumeration(lat, q, bc, cap=cap)


# -- exact transition matrix ---------------------------------------------------


@dataclass
class ExactTransitionMatrix:
    """P = A / (q·|V|) with integer A; rows sum to the denominator."""

    states: list[bytes]
    lattice: Lattice
    q: int
    adj: list[list[int]]    # off-diagonal unit entries (legal single-site moves)
    diag: list[int]

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def denom(self) -> int:
        return self.q * self.lattice.nv

    def entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(self.diag[i], self.denom)
        return Fraction(self.adj[i].count(j), self.denom)

    def row_sums_ok(self) -> bool:
        return all(self.diag[i] + len(self.adj[i]) == self.denom for i in range(self.n))

    def is_symmetric(self) -> bool:
        from collections import Counter

        for i, row in enumerate(self.adj):
            fwd = Counter(row)
            for j, k in fwd.items():
                if Counter(self.adj[j])[i] != k:
                    return False
        return True

    def uniform_is_stationary(self) -> bool:
        # column sums equal the denominator iff uniform is fixed
        col = [0] * self.n
        for i, row in enumerate(self.adj):
            for j in row:
                col[j] += 1
        return all(col[i] + self.diag[i] == self.denom for i in range(self.n))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in self.adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n


def transition_matrix(states: list[Coloring] | list[bytes], lat: Lattice, q: int = 3,
                      cap: int = STATE_CAP) -> ExactTransitionMatrix:
    """The Metropolis matrix on an enumerated state list, exact rationals."""
    raw = [s.colors if isinstance(s, Coloring) else bytes(s) for s in states]
    if len(raw) > cap:
        raise CapExceeded(f"state count {len(raw)} exceeds cap {cap}")
    index = {s: i for i, s in enumerate(raw)}
    denom = q * lat.nv
    adj: list[list[int]] = []
    diag: list[int] = []
    for s in raw:
        row = []
        for v in range(lat.nv):
            cur = s[v]
            for c in range(q):
                if c == cur:
                    continue
                if any(s[u] == c for u in lat.neighbors[v]):
                    continue
                t = bytearray(s)
                t[v] = c
                j = index.get(bytes(t))
                if j is None:
                    raise ColoringError("state list is not closed under legal moves")
                row.append(j)
        row.sort()
        adj.append(row)
        diag.append(denom - len(row))
    return ExactTransitionMatrix(states=raw, lattice=lat, q=q, adj=adj, diag=diag)


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
    starts_used: list[int]
    per_start_t_star: dict[int, int]


def _first_crossing(P: ExactTransitionMatrix, start: int, threshold, iter_cap) -> int:
    """Smallest t ≥ 0 with TV(P^t(start,·), uniform) ≤ threshold."""
    n = P.n
    denom = P.denom
    u = [0] * n
    u[start] = 1
    mt = 1
    t = 0
    while True:
        spread = sum(abs(n * w - mt) for w in u)
        tv = Fraction(spread, 2 * n * mt)
        done = le_inv_e(tv) if threshold is None else tv <= threshold
        if done:
            return t
        if t >= iter_cap:
            raise CapExceeded(f"no TV crossing within iteration cap {iter_cap}")
        t += 1
        new = [0] * n
        adj = P.adj
        diag = P.diag
        for y in range(n):
            acc = diag[y] * u[y]
            for x in adj[y]:
                acc += u[x]
            new[y] = acc
        u = new
        mt *= denom


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
    exact by symmetry of P), or an explicit list.
    """
    if isinstance(starts, str):
        if starts == "all":
            use = list(range(P.n))
        elif starts == "orbits":
            use = orbit_representatives(P.states, P.lattice, P.q)
        else:
            raise ValueError(f"unknown starts mode {starts!r}")
    else:
        use = list(starts)
    per = {}
    worst, worst_t = use[0], -1
    for st in use:
        tcross = _first_crossing(P, st, threshold, iter_cap)
        per[st] = tcross
        if tcross > worst_t:
            worst, worst_t = st, tcross
    return MixingResult(
        tau=max(worst_t - 1, 0),
        worst_start=worst,
        t_star=worst_t,
        starts_used=use,
        per_start_t_star=per,
    )


def orbit_representatives(states: list[bytes], lat: Lattice, q: int) -> list[int]:
    """One state index per orbit under lattice automorphisms × color
    relabelings; these commute with the Metropolis matrix."""
    perms = lat.vertex_automorphisms()
    seen: dict[bytes, int] = {}
    reps = []
    for i, s in enumerate(states):
        best = None
        for p in perms:
            relabeled = bytes(s[p[k]] for k in range(lat.nv))
            # canonicalize colors by first appearance
            table = {}
            out = bytearray(lat.nv)
            nxt = 0
            for k, c in enumerate(relabeled):
                if c not in table:
                    table[c] = nxt
                    nxt += 1
                out[k] = table[c]
            bb = bytes(out)
            if best is None or bb < best:
                best = bb
        if best not in seen:
            seen[best] = i
            reps.append(i)
    return reps


# -- conductance ---------------------------------------------------------------


@dataclass
class ConductanceReport:
    n_states: int
    n_even_heavy: int
    n_balanced: int
    n_odd_heavy: int
    pi_a: Fraction
    pi_m: Fraction
    bound: Fraction | None       # π(A) / (8 π(M)); None when M is empty
    unbounded: bool
    tau: int | None
    bound_holds: bool | None


def conductance_bound(
    states: list[Coloring],
    rho: Fraction = DEFAULT_RHO,
    tau: int | None = None,
) -> ConductanceReport:
    """π(A)/(8π(M)) for A = EvenHeavy, M = Balanced under uniform π,
    checked against τ when provided."""
    counts = {cls: 0 for cls in ImbalanceClass}
    for chi in states:
        counts[classify(chi, rho)] += 1
    n = len(states)
    n_a = counts[ImbalanceClass.EVEN_HEAVY]
    n_m = counts[ImbalanceClass.BALANCED]
    pi_a = Fraction(n_a, n)
    pi_m = Fraction(n_m, n)
    if pi_a > Fraction(1, 2):
        raise ColoringError("conductance setup requires pi(A) <= 1/2")
    if n_m == 0:
        return ConductanceReport(
            n, n_a, n_m, counts[ImbalanceClass.ODD_HEAVY], pi_a, pi_m,
            bound=None, unbounded=n_a > 0, tau=tau, bound_holds=None,
        )
    bound = pi_a / (8 * pi_m)
    holds = None if tau is None else Fraction(tau) >= bound
    return ConductanceReport(
        n, n_a, n_m, counts[ImbalanceClass.ODD_HEAVY], pi_a, pi_m,
        bound=bound, unbounded=False, tau=tau, bound_holds=holds,
    )


# -- influence ratio -------------------------------------------------------------


@dataclass
class InfluenceReport:
    d: int
    n: int
    v0: tuple[int, ...]
    total: int                 # |C_3^O|
    pinned: int                # |C_3^O(v0)|
    ratio: Fraction
    histogram: dict[int, int]  # cutset size c0 -> |C_3^O(c0, v0)|
    per_size_ratio: dict[int, Fraction]


def influence_ratio(d: int, n: int, v0=None, cap: int = ENUM_CAP) -> InfluenceReport:
    """|C_3^O(v₀)| / |C_3^O| with the size-resolved cutset histogram, all
    exact."""
    from .coloring import OddBoundaryZero, odd_boundary_pinned

    lat = box(d, n)
    v0 = tuple([0] * d) if v0 is None else tuple(v0)
    v0_idx = lat.index(v0)
    total = count_colorings(lat, 3, OddBoundaryZero(), cap=cap)
    hist: dict[int, int] = {}
    pinned = 0
    for chi in enumerate_colorings(lat, 3, odd_boundary_pinned(v0), cap=cap):
        pinned += 1
        cut = build_box_cutset(chi, v0_idx)
        hist[cut.size] = hist.get(cut.size, 0) + 1
    ratio = Fraction(pinned, total)
    per = {c: Fraction(k, total) for c, k in sorted(hist.items())}
    return InfluenceReport(
        d=d, n=n, v0=v0, total=total, pinned=pinned, ratio=ratio,
        histogram=dict(sorted(hist.items())), per_size_ratio=per,
    )


# -- conditional color probabilities on small bipartite graphs -------------------


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


def lcol_check(graph: BipartiteGraph, e1, o1, e2, o2, cap: int = ENUM_CAP) -> LcolReport:
    """Exact P(χ≡0 on E″, χ≡1 on O″ | χ≡0 on E′, χ≡1 on O′) vs 3^{−|E″∪O″|}.

    Vertices in e1/o1 are the conditioning sets; e2/o2 the target sets.
    Refuses when the conditioning event is empty.
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
    neighbors = graph.neighbor_lists()
    pins = {v: 0 for v in e1}
    pins.update({v: 1 for v in o1})
    conditioned = satisfying = 0
    for colors in _assignments(graph.nv, neighbors, 3, pins, cap=cap):
        conditioned += 1
        if all(colors[v] == 0 for v in e2) and all(colors[v] == 1 for v in o2):
            satisfying += 1
    if conditioned == 0:
        raise ColoringError("conditioning event is empty; conditional undefined")
    lhs = Fraction(satisfying, conditioned)
    rhs = Fraction(1, 3 ** len(e2 | o2))
    return LcolReport(
        lhs=lhs, rhs=rhs, holds=lhs >= rhs, equality=lhs == rhs,
        conditioned=conditioned, satisfying=satisfying,
    )


# -- pinned-region counting on Z^2 (skyline DP) -----------------------------------


def count_grid_region_colorings(
    cells: set[tuple[int, int]],
    q: int = 3,
    pins: dict[tuple[int, int], int] | None = None,
    forbidden: dict[tuple[int, int], set[int]] | None = None,
) -> int:
    """Exact count of proper q-colorings of an arbitrary finite cell subset
    of Z², with optional per-cell pins and forbidden color sets.

    Raster DP with a per-column frontier; memory is O(q^width) worst case
    but sparse in practice.
    """
    pins = pins or {}
    forbidden = forbidden or {}
    if not cells:
        return 1
    xs = sorted({c[0] for c in cells})
    ys = sorted({c[1] for c in cells})
    y0, y1 = ys[0], ys[-1]
    width = y1 - y0 + 1
    none = q  # sentinel: no vertical constraint
    frontier = {(none,) * width: 1}
    for x in range(xs[0], xs[-1] + 1):
        for y in range(y0, y1 + 1):
            col = y - y0
            if (x, y) not in cells:
                new = {}
                for state, w in frontier.items():
                    if state[col] == none:
                        new[state] = new.get(state, 0) + w
                    else:
                        t = list(state)
                        t[col] = none
                        t = tuple(t)
                        new[t] = new.get(t, 0) + w
                frontier = new
                continue
            pin = pins.get((x, y))
            bad = forbidden.get((x, y), ())
            left_in = (x, y - 1) in cells
            new = {}
            for state, w in frontier.items():
                up = state[col]
                left = state[col - 1] if left_in else none
                for c in ((pin,) if pin is not None else range(q)):
                    if c in bad or c == up or (left_in and c == left):
                        continue
                    t = list(state)
                    t[col] = c
                    t = tuple(t)
                    new[t] = new.get(t, 0) + w
            frontier = new
            if not frontier:
                return 0
    return sum(frontier.values())
