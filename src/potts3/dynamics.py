"""Single-site Metropolis dynamics on counter-based random streams.

One *proposal* draws (v, j) and recolors v with j when the result stays
proper: the chain's transition law puts mass 1/(q|V|) on each legal
recoloring and the remainder on the self-loop.  A *sweep* is |V| proposals.

Chain (seed, stream), both mod 2⁶⁴, draws proposal i = 0, 1, … from a
counter-based SplitMix64 stream: z_i = mix64(key + (i+1)·golden) with
key = mix64(mix64(seed) ^ mix64((stream+1)·golden)), and proposes
v = (z_i >> 32) mod |V|, j = (z_i mod 2³²) mod q.  Each draw is a pure
function of (seed, stream, i), so chains share no state and trajectories
are deterministic functions of (seed, stream, χ₀).

The legality check is one lookup.  For each site v the chain keeps one int
cnt[v] that packs, per color c, how many sites of the closed neighbourhood
N[v] = {v} ∪ N(v) have color c, in a field of (maxdeg+1).bit_length() bits.
(v, j) is legal iff field j of cnt[v] is zero: v counts itself, so that one
test covers both j ≠ χ(v) and "no neighbour has j".  An accepted move
adds unit[j] − unit[χ(v)] to cnt[u] for the at most 2d+1 sites u of N[v].
Each 2¹⁴-draw block runs in stretches that end at the next record point.
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

GOLDEN = 0x9E3779B97F4A7C15   # odd, so multiplying by it is a bijection


def mix64_array(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer mix64 on a uint64 array, in place (wrapping)."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _stream_key(seed: int, stream: int) -> np.uint64:
    """The key of the chain of (seed, stream), both taken mod 2⁶⁴."""
    pair = mix64_array(np.array([seed % 2**64, (stream + 1) * GOLDEN % 2**64], dtype=np.uint64))
    return mix64_array(pair[:1] ^ pair[1:])[0]


def _proposals(key: np.uint64, lo: int, hi: int, nv: int, q: int) -> tuple[list, list]:
    """The sites and colors of proposals lo, …, hi − 1.  Splitting one z into
    v and j carries modulo bias: each site's probability is within a relative
    |V|/2³² of 1/|V|, each color's within q/2³² of 1/q, and both are exact for
    powers of two: on Z⁴₄ the sites are exact and q = 3's color bias is below
    10⁻⁹.  Frozen trajectories replay this draw, so it stays."""
    zs = mix64_array(key + np.arange(lo + 1, hi + 1, dtype=np.uint64) * GOLDEN)
    return (((zs >> np.uint64(32)) % np.uint64(nv)).tolist(),
            ((zs & np.uint64(0xFFFFFFFF)) % np.uint64(q)).tolist())


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
        raise ColoringError(f"thin must be at least 1, got {thin}")

    thin = lat.nv if thin is None else thin
    rho = Fraction(rho)
    key = _stream_key(spec.seed, spec.stream)
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
    accepted = 0
    done = 0
    block_size = 1 << 14
    while done < steps:
        end = min(done + block_size, steps)
        draws = zip(*_proposals(key, done, end, lat.nv, q))
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
