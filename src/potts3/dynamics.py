"""Single-site Metropolis dynamics on counter-based random streams.

One *proposal* draws (v, j) and recolors v with j when the result stays
proper: the chain's transition law puts mass 1/(q|V|) on each legal
recoloring and the remainder on the self-loop.  A *sweep* is |V| proposals.
Trajectories are deterministic functions of (seed, stream, χ₀).

The legality check is one lookup.  For each site v the chain keeps one int
cnt[v] that packs, per color c, how many sites of the closed neighbourhood
N[v] = {v} ∪ N(v) have color c, in a field of (maxdeg+1).bit_length() bits.
(v, j) is legal iff field j of cnt[v] is zero: v counts itself, so that one
test covers both j ≠ χ(v) and "no neighbour has j".  An accepted move
adds unit[j] − unit[χ(v)] to cnt[u] for the at most 2d+1 sites u of N[v].
Each 2¹⁴-draw block runs in stretches that end at the next record point.

The draw v = (z >> 32) mod |V|, j = (z mod 2³²) mod q from one 64-bit z
carries modulo bias: each site's probability is within a relative |V|/2³²
of 1/|V|, each color's within q/2³² of 1/q, and both are exact for powers
of two: on Z⁴₄ the sites are exact and q = 3's color bias is below 10⁻⁹.
Frozen trajectories replay this draw, so it stays.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import numpy as np

from .coloring import (
    DEFAULT_RHO,
    Coloring,
    imbalance_class,
    zero_counts,
)
from .errors import ColoringError
from .lattice import Lattice, LatticeKind

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15   # odd, so multiplying by it is a bijection


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; the package's documented counter mix."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def mix64_array(x: np.ndarray) -> np.ndarray:
    """``_mix64`` on a uint64 array, in place (wrapping), returned."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class CounterRng:
    """Counter-based 64-bit stream: value(i) = mix64(key + (i+1)·golden),
    drawn in blocks (``block_u64``).

    ``key`` is derived from (seed, stream), so per-chain streams are
    independent and any draw is addressable by its counter — replays never
    depend on shared state.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self.key = _mix64(_mix64(self.seed) ^ _mix64((self.stream + 1) * GOLDEN))
        self.counter = 0

    def block_u64(self, count: int) -> np.ndarray:
        """The next ``count`` values of the stream (advances the counter)."""
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        return mix64_array(np.uint64(self.key) + idx * GOLDEN)


@dataclass(frozen=True)
class ChainSpec:
    q: int = 3
    seed: int = 0
    stream: int = 0


class TrajectoryPoint(NamedTuple):
    step: int
    imbalance: int
    zero_even: int
    zero_odd: int
    cls: str     # imbalance class tag, "na" off the torus


@dataclass
class Trajectory:
    points: list[TrajectoryPoint] = field(default_factory=list)
    accepted: int = 0    # proposals that recolored a site

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("step,imbalance,zero_even,zero_odd,class\n")
        for p in self.points:
            buf.write(f"{p.step},{p.imbalance},{p.zero_even},{p.zero_odd},{p.cls}\n")
        return buf.getvalue()


def _class_tag(lat: Lattice, imb: int, rho: Fraction) -> str:
    if lat.kind is not LatticeKind.TORUS:
        return "na"
    return imbalance_class(imb, lat.nv, rho).value


def run_chain(
    spec: ChainSpec,
    chi0: Coloring,
    steps: int,
    thin: int | None = None,
    rho: Fraction = DEFAULT_RHO,
) -> tuple[Coloring, Trajectory]:
    """Run ``steps`` proposals from χ₀, recording observables every ``thin``
    proposals (default: one sweep) and after the last one.  Deterministic in
    (spec.seed, spec.stream, χ₀, steps); the trajectory also counts the
    accepted moves."""
    lat, q = chi0.lattice, chi0.q
    if q != spec.q:
        raise ColoringError(f"chain expects q={spec.q}, coloring has q={q}")
    if steps < 0:
        raise ColoringError("step count must be nonnegative")

    # cnt[v] packs, per color c, how many sites of N[v] = {v} ∪ N(v) have c
    closed = [(v, *nbrs) for v, nbrs in enumerate(lat.neighbors)]
    width = max(map(len, closed)).bit_length()
    unit = [1 << (c * width) for c in range(q)]
    fields = [((1 << width) - 1) << (c * width) for c in range(q)]
    # delta[a][b]: the change to cnt[u] when a site of N[u] goes from a to b
    delta = [[unit[b] - unit[a] for b in range(q)] for a in range(q)]
    colors = bytearray(chi0.colors)
    cnt = [sum(unit[colors[u]] for u in nbhd) for nbhd in closed]
    # proper iff each site is the only one of its color in its closed neighbourhood
    if any(cnt[v] & fields[c] != unit[c] for v, c in enumerate(colors)):
        raise ColoringError("initial coloring must be proper")
    if thin is not None and thin < 1:
        raise ValueError(f"thin must be at least 1, got {thin}")

    thin = lat.nv if thin is None else thin
    rho = Fraction(rho)
    rng = CounterRng(spec.seed, spec.stream)
    parities = lat.parities
    zeros = list(zero_counts(chi0))   # [|I∩E|, |I∩O|]

    traj = Trajectory()
    tags: dict[int, str] = {}     # class tag per imbalance seen in this chain

    def record(step):
        imb = zeros[0] - zeros[1]
        tag = tags.get(imb)
        if tag is None:
            tag = tags[imb] = _class_tag(lat, imb, rho)
        traj.points.append(TrajectoryPoint(step, imb, zeros[0], zeros[1], tag))

    record(0)
    nv = lat.nv
    accepted = 0
    done = 0
    block_size = 1 << 14
    while done < steps:
        end = min(done + block_size, steps)
        zs = rng.block_u64(end - done)
        vs = ((zs >> np.uint64(32)) % np.uint64(nv)).tolist()
        js = ((zs & np.uint64(0xFFFFFFFF)) % np.uint64(q)).tolist()
        draws = zip(vs, js)
        while done < end:
            # one run of proposals, up to the next record point or the block's end
            stop = min(end, (done // thin + 1) * thin)
            for v, j in islice(draws, stop - done):
                # legal iff no site of N[v] has j: that covers j ≠ χ(v) too
                if cnt[v] & fields[j]:
                    continue
                old = colors[v]
                colors[v] = j
                step = delta[old][j]
                for u in closed[v]:
                    cnt[u] += step
                if old == 0:
                    zeros[parities[v]] -= 1
                elif j == 0:
                    zeros[parities[v]] += 1
                accepted += 1
            done = stop
            if done % thin == 0 or done == steps:
                record(done)
    traj.accepted = accepted
    return Coloring(lat, colors, q), traj
