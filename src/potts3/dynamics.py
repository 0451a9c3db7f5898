"""Single-site Metropolis dynamics and ρ-local move checks.

One *proposal* draws (v, j) and recolors v with j when the result stays
proper: the chain's transition law puts mass 1/(q|V|) on each legal
recoloring and the remainder on the self-loop.  A *sweep* is |V| proposals.
Trajectories are deterministic functions of (seed, stream, χ₀).

The draw v = (z >> 32) mod |V|, j = (z mod 2³²) mod q from one 64-bit z
carries modulo bias: each site's probability is within a relative |V|/2³²
of 1/|V|, each color's within q/2³² of 1/q, and both are exact for powers
of two.  Frozen trajectories replay this draw, so it stays.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coloring import (
    DEFAULT_RHO,
    Coloring,
    ImbalanceClass,
    imbalance,
    imbalance_class,
    is_proper,
    zero_counts,
)
from .errors import ColoringError
from .lattice import Lattice, LatticeKind

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; the package's documented counter mix."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class CounterRng:
    """Counter-based 64-bit stream: value(i) = mix64(key + (i+1)·golden).

    ``key`` is derived from (seed, stream), so per-chain streams are
    independent and any draw is addressable by its counter — replays never
    depend on shared state.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self.key = _mix64(_mix64(self.seed) ^ _mix64((self.stream + 1) * _GOLDEN))
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64((self.key + self.counter * _GOLDEN) & _MASK64)

    def block_u64(self, count: int) -> np.ndarray:
        """Vectorized batch of the same stream (advances the counter)."""
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        x = (np.uint64(self.key) + idx * np.uint64(_GOLDEN))
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return x

    def getrandbits(self, k: int) -> int:
        return self.next_u64() >> (64 - k)


@dataclass(frozen=True)
class ChainSpec:
    q: int = 3
    seed: int = 0
    stream: int = 0


@dataclass(frozen=True)
class TrajectoryPoint:
    step: int
    imbalance: int
    zero_even: int
    zero_odd: int
    cls: str     # imbalance class tag, "na" off the torus


@dataclass
class Trajectory:
    spec: ChainSpec
    chi0_id: str
    thin: int
    rho: Fraction
    points: list[TrajectoryPoint] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("step,imbalance,zero_even,zero_odd,class\n")
        for p in self.points:
            buf.write(f"{p.step},{p.imbalance},{p.zero_even},{p.zero_odd},{p.cls}\n")
        return buf.getvalue()


def metropolis_step(chi: Coloring, rng: CounterRng) -> Coloring:
    """One proposal of the Metropolis chain; returns the (possibly equal)
    next coloring."""
    lat, q = chi.lattice, chi.q
    z = rng.next_u64()
    v = (z >> 32) % lat.nv
    j = (z & 0xFFFFFFFF) % q
    if j == chi.colors[v]:
        return chi
    for u in lat.neighbors[v]:
        if chi.colors[u] == j:
            return chi
    return chi.with_color(v, j)


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
    stepper=None,
) -> tuple[Coloring, Trajectory]:
    """Run ``steps`` proposals from χ₀, recording observables every ``thin``
    proposals (default: one sweep).  Deterministic in (spec.seed,
    spec.stream, χ₀, steps).  A ``stepper(colors, rng)`` callback replaces the
    Metropolis proposal; each record then checks properness and ρ-locality."""
    lat, q = chi0.lattice, chi0.q
    if q != spec.q:
        raise ColoringError(f"chain expects q={spec.q}, coloring has q={q}")
    if steps < 0:
        raise ColoringError("step count must be nonnegative")
    if not is_proper(chi0):
        raise ColoringError("initial coloring must be proper")

    thin = lat.nv if thin is None else max(1, thin)
    rho = Fraction(rho)
    rng = CounterRng(spec.seed, spec.stream)
    colors = bytearray(chi0.colors)
    neighbors = lat.neighbors
    parities = lat.parities
    zero_even, zero_odd = zero_counts(chi0)

    traj = Trajectory(
        spec=spec,
        chi0_id=chi0.colors.hex(),
        thin=thin,
        rho=rho,
    )

    def record(step):
        imb = zero_even - zero_odd
        traj.points.append(
            TrajectoryPoint(step, imb, zero_even, zero_odd, _class_tag(lat, imb, rho))
        )

    record(0)
    if stepper is not None:
        prev = bytes(colors)
        for t in range(1, steps + 1):
            stepper(colors, rng)
            if t % thin == 0 or t == steps:
                snap = Coloring(lat, colors, q)
                if not is_proper(snap):
                    raise ColoringError(f"custom stepper broke properness at step {t}")
                if not rho_locality_check(Coloring(lat, prev, q), snap, rho):
                    raise ColoringError(f"custom stepper exceeded rho-locality at step {t}")
                prev = bytes(colors)
                zero_even, zero_odd = zero_counts(snap)
                record(t)
        return Coloring(lat, colors, q), traj

    nv = lat.nv
    done = 0
    block_size = 1 << 14
    while done < steps:
        todo = min(block_size, steps - done)
        zs = rng.block_u64(todo)
        vs = ((zs >> np.uint64(32)) % np.uint64(nv)).tolist()
        js = ((zs & np.uint64(0xFFFFFFFF)) % np.uint64(q)).tolist()
        for v, j in zip(vs, js):
            old = colors[v]
            if j != old:
                ok = True
                for u in neighbors[v]:
                    if colors[u] == j:
                        ok = False
                        break
                if ok:
                    colors[v] = j
                    if old == 0:
                        if parities[v] == 0:
                            zero_even -= 1
                        else:
                            zero_odd -= 1
                    elif j == 0:
                        if parities[v] == 0:
                            zero_even += 1
                        else:
                            zero_odd += 1
            done += 1
            if done % thin == 0 or done == steps:
                record(done)
    return Coloring(lat, colors, q), traj


def hamming(chi1: Coloring, chi2: Coloring) -> int:
    if chi1.lattice.spec != chi2.lattice.spec:
        raise ColoringError("colorings live on different lattices")
    return sum(1 for a, b in zip(chi1.colors, chi2.colors) if a != b)


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
