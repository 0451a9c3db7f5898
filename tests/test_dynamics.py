from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from potts3 import dynamics
from potts3.coloring import (
    Coloring,
    ImbalanceClass,
    imbalance,
    imbalance_class,
    is_proper,
    phase_coloring,
    zero_counts,
)
from potts3.dynamics import (
    ChainSpec,
    CounterRng,
    Trajectory,
    TrajectoryPoint,
    run_chain,
)
from potts3.errors import ColoringError
from potts3.lattice import LatticeKind, Parity, box, torus

from claims import classify, crossing_blocked_check, hamming, rho_locality_check

RHO = Fraction(11, 50)


def test_counter_rng_block_matches_scalar():
    a = CounterRng(42, 3)
    b = CounterRng(42, 3)
    scalars = [a.next_u64() for _ in range(100)]
    block = b.block_u64(100).tolist()
    assert scalars == block


def test_counter_rng_streams_differ():
    assert CounterRng(42, 0).next_u64() != CounterRng(42, 1).next_u64()
    assert CounterRng(42, 0).next_u64() == CounterRng(42, 0).next_u64()


def _finals(seed, steps):
    """The chain's coloring after each of 0..steps proposals from one seed."""
    chi0 = phase_coloring(torus(2, 4))
    return [run_chain(ChainSpec(seed=seed), chi0, t)[0] for t in range(steps + 1)]


def test_metropolis_step_stays_proper():
    assert all(is_proper(chi) for chi in _finals(1, 300))


def test_run_chain_zero_steps():
    t = torus(2, 4)
    final, traj = run_chain(ChainSpec(seed=5), phase_coloring(t), 0)
    assert final == phase_coloring(t)
    assert len(traj.points) == 1
    assert traj.points[0].step == 0
    assert traj.points[0].imbalance == 8


def test_run_chain_deterministic_replay():
    t = torus(2, 4)
    chi0 = phase_coloring(t)
    f1, t1 = run_chain(ChainSpec(seed=9), chi0, 2000)
    f2, t2 = run_chain(ChainSpec(seed=9), chi0, 2000)
    assert f1 == f2
    assert t1.to_csv() == t2.to_csv()
    f3, _ = run_chain(ChainSpec(seed=10), chi0, 2000)
    assert f3 != f1  # different seed should move differently


def test_run_chain_tracks_observables_incrementally():
    t = torus(2, 4)
    chi0 = phase_coloring(t)
    final, traj = run_chain(ChainSpec(seed=12), chi0, 500, thin=50)
    assert [p.step for p in traj.points] == [0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500]
    assert is_proper(final)
    last = traj.points[-1]
    assert last.imbalance == imbalance(final)
    assert last.zero_even - last.zero_odd == last.imbalance


def test_run_chain_rejects_improper_start():
    t = torus(2, 4)
    with pytest.raises(ColoringError):
        run_chain(ChainSpec(), Coloring(t, bytes(16), 3), 10)


def test_run_chain_rejects_thin_below_one():
    t = torus(2, 4)
    for thin in (0, -3):
        with pytest.raises(ValueError, match="thin"):
            run_chain(ChainSpec(), phase_coloring(t), 10, thin=thin)


def test_rho_locality_examples():
    t = torus(2, 4)
    a = phase_coloring(t, Parity.EVEN, 1)
    buf = bytearray(a.colors)
    buf[t.index((1, 0))] = 2
    b = Coloring(t, buf, a.q)
    assert rho_locality_check(a, b, Fraction(1, 16))
    assert rho_locality_check(a, a, Fraction(1, 10**6))
    # global 1<->2 swap moves every odd vertex: distance 8 > 3.52
    swapped = Coloring(t, bytes((0, 2, 1)[c] for c in a.colors), 3)
    assert hamming(a, swapped) == 8
    assert not rho_locality_check(a, swapped, RHO)


def test_crossing_blocked_examples():
    t = torus(2, 4)
    even_heavy = phase_coloring(t, Parity.EVEN, 1)
    odd_heavy = phase_coloring(t, Parity.ODD, 1)
    assert hamming(even_heavy, odd_heavy) == 16
    assert crossing_blocked_check(even_heavy, odd_heavy, RHO)
    # with rho = 1 the locality budget covers any move: cut not blocked
    assert not crossing_blocked_check(even_heavy, odd_heavy, Fraction(1))


def test_crossing_blocked_needs_actual_crossing():
    t = torus(2, 4)
    balanced = Coloring(t, bytes((1 if p == 0 else 2) for p in t.parities), 3)
    heavy = phase_coloring(t)
    assert not crossing_blocked_check(heavy, balanced, RHO)


def _zeros_on(t, parity, k):
    """Proper coloring with exactly k zeros, all on one parity class."""
    colors = bytearray()
    for p in t.parities:
        if p == parity:
            colors.append(0 if colors.count(0) < k else 2)
        else:
            colors.append(1)
    return Coloring(t, colors, 3)


def test_class_boundary_is_shared_by_all_callers():
    # Z^2_4 at rho = 1/4: the threshold rho*nv/2 = 2 is met exactly at imb = 2
    t = torus(2, 4)
    rho = Fraction(1, 4)
    even2, even3, odd3 = _zeros_on(t, 0, 2), _zeros_on(t, 0, 3), _zeros_on(t, 1, 3)
    cases = [
        (even2, 2, ImbalanceClass.BALANCED),
        (even3, 3, ImbalanceClass.EVEN_HEAVY),
        (odd3, -3, ImbalanceClass.ODD_HEAVY),
    ]
    for chi, imb, cls in cases:
        assert imbalance(chi) == imb
        assert classify(chi, rho) is cls
        _, traj = run_chain(ChainSpec(), chi, 0, rho=rho)
        assert traj.points[0].cls == cls.value
    assert hamming(even3, odd3) == 16
    assert crossing_blocked_check(even3, odd3, rho)
    assert not crossing_blocked_check(even2, odd3, rho)
    # rho = 1 is outside classify's range but admissible here
    with pytest.raises(ColoringError):
        classify(even3, Fraction(1))
    assert not crossing_blocked_check(even3, odd3, Fraction(1))


def test_single_move_changes_imbalance_by_at_most_one():
    finals = _finals(77, 500)
    for prev, nxt in zip(finals, finals[1:]):
        assert is_proper(nxt)
        assert abs(imbalance(nxt) - imbalance(prev)) <= 1
        assert hamming(nxt, prev) <= 1


def test_trajectory_csv_format():
    t = torus(2, 4)
    _, traj = run_chain(ChainSpec(seed=2), phase_coloring(t), 32, thin=16)
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "step,imbalance,zero_even,zero_odd,class"
    assert lines[1].startswith("0,8,8,0,even-heavy")
    assert len(lines) == 4


def test_class_rule_runs_once_per_imbalance(monkeypatch):
    # record points remember each imbalance's tag within a chain
    calls = []
    real_class = dynamics.imbalance_class
    monkeypatch.setattr(dynamics, "imbalance_class",
                        lambda imb, nv, rho: calls.append(imb) or real_class(imb, nv, rho))
    _, traj = run_chain(ChainSpec(seed=5), phase_coloring(torus(2, 4)), 2000, thin=1)
    assert len(traj.points) == 2001
    assert sorted(calls) == sorted({p.imbalance for p in traj.points})
    assert len(calls) > 1


def test_box_trajectory_class_is_na():
    b = box(2, 1)
    _, traj = run_chain(ChainSpec(seed=2), phase_coloring(b), 9, thin=9)
    assert all(p.cls == "na" for p in traj.points)


# -- the packed-count kernel against a plain neighbour scan ----------------------


def _scan_chain(spec, chi0, steps, thin=None, rho=Fraction(11, 50)):
    """Reference stepper: the same CounterRng draws, one scalar at a time; a
    proposal (v, j) is legal iff j differs from v's color and from every
    neighbour's, and the observables are recounted from scratch."""
    lat, q = chi0.lattice, chi0.q
    thin = lat.nv if thin is None else thin
    rng = CounterRng(spec.seed, spec.stream)
    colors = bytearray(chi0.colors)
    traj = Trajectory(chi0.colors.hex())

    def record(step):
        even, odd = zero_counts(Coloring(lat, colors, q))
        cls = "na"
        if lat.kind is LatticeKind.TORUS:
            cls = imbalance_class(even - odd, lat.nv, Fraction(rho)).value
        traj.points.append(TrajectoryPoint(step, even - odd, even, odd, cls))

    record(0)
    for done in range(1, steps + 1):
        z = rng.next_u64()
        v, j = (z >> 32) % lat.nv, (z & 0xFFFFFFFF) % q
        if j != colors[v] and all(colors[u] != j for u in lat.neighbors[v]):
            colors[v] = j
            traj.accepted += 1
        if done % thin == 0 or done == steps:
            record(done)
    return Coloring(lat, colors, q), traj


# boxes and tori for d = 1..4; the n = 2 tori collapse their two wrap edges
LATTICES = [box(1, 1), box(1, 3), box(2, 1), box(2, 3), box(3, 1), box(4, 1),
            torus(1, 2), torus(1, 6), torus(2, 2), torus(2, 4), torus(3, 2),
            torus(3, 4), torus(4, 2), torus(4, 4)]


@settings(max_examples=40, deadline=None)
@given(
    lat=st.sampled_from(LATTICES),
    q=st.sampled_from([3, 4, 5]),
    zero_on=st.sampled_from([Parity.EVEN, Parity.ODD]),
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 3),
    steps=st.one_of(st.just(0), st.integers(1, 400), st.integers(16000, 17000)),
    thin=st.sampled_from([1, 7, 16384, 20000, None]),   # 20000: past every step count
)
@example(lat=torus(4, 4), q=3, zero_on=Parity.EVEN, seed=7, stream=0,
         steps=33000, thin=None)
@example(lat=torus(2, 2), q=5, zero_on=Parity.ODD, seed=1, stream=2, steps=0, thin=1)
def test_run_chain_matches_neighbour_scan(lat, q, zero_on, seed, stream, steps, thin):
    chi0 = phase_coloring(lat, zero_on, q - 1, q)
    spec = ChainSpec(q=q, seed=seed, stream=stream)
    final, traj = run_chain(spec, chi0, steps, thin=thin)
    want_final, want = _scan_chain(spec, chi0, steps, thin=thin)
    assert final == want_final
    assert traj.to_csv() == want.to_csv()
    assert traj.accepted == want.accepted


# sha256 of two Z^4_4 chains (seed 7, streams 0 and 1, 200 sweeps each): each
# final coloring's bytes, then its CSV.  Frozen from the neighbour-scan kernel,
# so a change to the draws or to the accept rule fails here.
FROZEN_Z44 = "0b3e0fc232faf0f8a57ff7facdf38c2e51626dadfb27029a209df0e1ea549abc"


def test_frozen_z44_trajectories():
    lat = torus(4, 4)
    h = hashlib.sha256()
    for stream in (0, 1):
        final, traj = run_chain(ChainSpec(seed=7, stream=stream), phase_coloring(lat),
                                200 * lat.nv)
        h.update(final.colors)
        h.update(traj.to_csv().encode())
    assert h.hexdigest() == FROZEN_Z44
