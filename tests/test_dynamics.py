from __future__ import annotations

from fractions import Fraction

import pytest

from potts3 import (
    ChainSpec,
    Coloring,
    CounterRng,
    ImbalanceClass,
    Parity,
    box,
    classify,
    crossing_blocked_check,
    hamming,
    imbalance,
    is_proper,
    metropolis_step,
    phase_coloring,
    rho_locality_check,
    run_chain,
    torus,
)
from potts3.errors import ColoringError

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


def test_metropolis_step_stays_proper():
    t = torus(2, 4)
    chi = phase_coloring(t)
    rng = CounterRng(1, 0)
    for _ in range(300):
        chi = metropolis_step(chi, rng)
        assert is_proper(chi)


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


def test_custom_local_chain_needs_stepper():
    t = torus(2, 4)

    def swap_nothing(colors, rng):
        pass

    final, traj = run_chain(
        ChainSpec(),
        phase_coloring(t),
        5,
        stepper=swap_nothing,
    )
    assert final == phase_coloring(t)


def test_rho_locality_examples():
    t = torus(2, 4)
    a = phase_coloring(t, Parity.EVEN, 1)
    b = a.with_color(t.index((1, 0)), 2)
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
    t = torus(2, 4)
    chi = phase_coloring(t)
    rng = CounterRng(77, 0)
    prev = chi
    for _ in range(500):
        nxt = metropolis_step(prev, rng)
        assert abs(imbalance(nxt) - imbalance(prev)) <= 1
        assert hamming(nxt, prev) <= 1
        prev = nxt


def test_trajectory_csv_format():
    t = torus(2, 4)
    _, traj = run_chain(ChainSpec(seed=2), phase_coloring(t), 32, thin=16)
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "step,imbalance,zero_even,zero_odd,class"
    assert lines[1].startswith("0,8,8,0,even-heavy")
    assert len(lines) == 4


def test_box_trajectory_class_is_na():
    b = box(2, 1)
    _, traj = run_chain(ChainSpec(seed=2), phase_coloring(b), 9, thin=9)
    assert all(p.cls == "na" for p in traj.points)
