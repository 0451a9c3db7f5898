"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
All tolerances are exact (rational arithmetic) except where a criterion
states a float bound, which is pinned here.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from potts3.coloring import (
    ImbalanceClass,
    OddBoundaryZero,
    imbalance,
    is_proper,
    odd_boundary_pinned,
    satisfies_bc,
)
from potts3.cutset import build_box_cutset, select_family, verify_properties
from potts3.dynamics import CounterRng
from potts3.entropy import max_entropy_gap_check, topological_entropy_estimate
from potts3.lattice import box, shift_order, torus
from potts3.oracle import (
    conductance_bound,
    enumerate_colorings,
    influence_ratio,
    transition_matrix,
    tv_mixing_time,
)
from potts3.peierls import (
    boundary_layer,
    exact_approximation,
    flow_out_total,
    membership_subset,
    phi_family,
    reconstruct,
)

from claims import BipartiteGraph, classify, lcol_check, sample_phi

RHO = Fraction(11, 50)


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {tag} — {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def box_corpora():
    """Exhaustive C_3^O(v0) corpora with their cutsets for n in {1, 2}."""
    out = {}
    for n in (1, 2):
        lat = box(2, n)
        v0 = lat.index((0, 0))
        chis = list(enumerate_colorings(lat, 3, odd_boundary_pinned((0, 0))))
        out[n] = (lat, v0, [(chi, build_box_cutset(chi, v0)) for chi in chis])
    return out


@pytest.fixture(scope="module")
def z24_system():
    lat = torus(2, 4)
    states = list(enumerate_colorings(lat, 3))
    return lat, states


def test_criterion_01_shift_map_soundness(box_corpora):
    t0 = time.time()
    checked = 0
    ok = True
    for n, (lat, v0, corpus) in box_corpora.items():
        bc = OddBoundaryZero()
        for chi, cut in corpus:
            for s in shift_order(lat.d):
                layer = boundary_layer(lat, cut.region, s)
                if layer.bit_count() <= 12:
                    members = phi_family(chi, cut.region, s)
                else:
                    rng = CounterRng(2026, 8)
                    members = (sample_phi(chi, cut.region, s, rng) for _ in range(200))
                for _subset, chi_p in members:
                    checked += 1
                    if not (is_proper(chi_p) and satisfies_bc(chi_p, bc)):
                        ok = False
    elapsed = time.time() - t0
    _report(1, "shift map lands in C_3^O (exhaustive small boxes)", ok and elapsed < 300,
            f"{checked} images, {elapsed:.1f}s")


def test_criterion_02_reconstruction_roundtrip(box_corpora):
    checked = 0
    ok = True
    for n, (lat, v0, corpus) in box_corpora.items():
        for chi, cut in corpus:
            for s in shift_order(lat.d):
                for subset, chi_p in phi_family(chi, cut.region, s):
                    checked += 1
                    if reconstruct(chi_p, cut.region, s) != chi:
                        ok = False
                    if membership_subset(chi, chi_p, cut.region, s) != subset:
                        ok = False
    _report(2, "reconstruction inverts the shift map exactly", ok, f"{checked} roundtrips")


def test_criterion_03_flow_conservation(box_corpora):
    ok = True
    checked = 0
    for n, (lat, v0, corpus) in box_corpora.items():
        for chi, cut in corpus:
            approx = exact_approximation(cut)
            for s in shift_order(lat.d):
                total = flow_out_total(chi, cut, approx, s, explicit_cap=20)
                checked += 1
                if total.closed_form != 1:
                    ok = False
                if boundary_layer(lat, cut.region, s).bit_count() <= 20 and total.explicit != 1:
                    ok = False
    _report(3, "unit out-flow: closed form and explicit sum both exactly 1", ok,
            f"{checked} (chi, s) pairs")


def test_criterion_04_cutset_properties(box_corpora, z24_system):
    ok = True
    n_cuts = 0
    for n, (lat, v0, corpus) in box_corpora.items():
        for chi, cut in corpus:
            rep = verify_properties(cut, chi, v0)
            n_cuts += 1
            if not (rep.p1_anchored and rep.all_hold() and rep.size_identity):
                ok = False
    lat, states = z24_system
    branches = {"even": 0, "odd": 0, "none": 0}
    for chi in states:
        fam = select_family(chi)
        if fam.branch is None:
            branches["none"] += 1
            continue
        branches[fam.branch.name.lower()] += 1
        for cut in fam.cutsets:
            rep = verify_properties(cut, chi)
            n_cuts += 1
            if not (rep.all_hold() and rep.size_identity):
                ok = False
            if rep.p8a_isoperimetry is not True:
                ok = False  # family interiors are small sides: 8a applies
    _report(4, "structural cutset properties and the size identity", ok,
            f"{n_cuts} cutsets; torus branches {branches}")


def test_criterion_05_exact_mixing_and_conductance(z24_system):
    t0 = time.time()
    lat, states = z24_system
    P = transition_matrix(states, lat, 3)
    structure_ok = (
        P.row_sums_ok()
        and P.is_symmetric()
        and P.uniform_is_stationary()
        and P.is_connected()
    )
    mix = tv_mixing_time(P, starts="orbits")
    cond = conductance_bound(Counter(map(imbalance, states)), lat, RHO, tau=mix.tau)
    bound_ok = cond.bound_holds is True and cond.pi_a <= Fraction(1, 2)
    elapsed = time.time() - t0
    _report(
        5,
        "exact tau and conductance bound on Z^2_4 at rho=11/50",
        structure_ok and bound_ok and elapsed < 1800,
        f"tau={mix.tau}, bound={cond.bound}, pi_A={cond.pi_a}, pi_M={cond.pi_m}, {elapsed:.0f}s",
    )


def test_criterion_06_blocked_cut_structure(z24_system):
    lat, states = z24_system
    index = {chi.colors: i for i, chi in enumerate(states)}
    classes = [classify(chi, RHO) for chi in states]
    imbs = [imbalance(chi) for chi in states]
    ok = True
    moves = 0
    for i, chi in enumerate(states):
        base = bytearray(chi.colors)
        for v in range(lat.nv):
            old = base[v]
            for c in range(3):
                if c == old:
                    continue
                if any(base[u] == c for u in lat.neighbors[v]):
                    continue
                base[v] = c
                j = index[bytes(base)]
                base[v] = old
                moves += 1
                if abs(imbs[i] - imbs[j]) > 1:
                    ok = False
                crossing = (
                    classes[i] is ImbalanceClass.EVEN_HEAVY
                    and classes[j] is ImbalanceClass.ODD_HEAVY
                )
                if crossing:
                    ok = False
    _report(6, "no single-site move joins EvenHeavy to OddHeavy; |d imbalance| <= 1",
            ok, f"{moves} legal moves scanned")


def test_criterion_07_influence_ratio():
    r21 = influence_ratio(2, 1)
    r22 = influence_ratio(2, 2)
    r31 = influence_ratio(3, 1)
    exact_ok = r21.ratio == Fraction(0, 1) and (r21.pinned, r21.total) == (0, 32)
    trend_ok = r31.ratio <= r21.ratio  # both are exactly zero at n=1
    _report(
        7,
        "influence ratio exact at d=2 n=1; d=2 n=2 and d=3 n=1 reported",
        exact_ok and trend_ok,
        f"d2n1={r21.pinned}/{r21.total}, d2n2={r22.pinned}/{r22.total}, "
        f"d3n1={r31.pinned}/{r31.total}, d2n2 histogram={r22.histogram}",
    )


def test_criterion_08_conditional_color_bound():
    edge = BipartiteGraph(2, ((0, 1),), (0, 1))
    base = lcol_check(edge, [], [], [0], [])
    equality_seen = base.equality
    ok = base.holds and base.lhs == Fraction(1, 3)
    rng = random.Random(20260808)
    checked = 0
    while checked < 100:
        ne, no = rng.randrange(1, 4), rng.randrange(1, 4)
        nv = ne + no
        parities = tuple([0] * ne + [1] * no)
        edges = tuple(
            (i, ne + j) for i in range(ne) for j in range(no) if rng.random() < 0.6
        )
        g = BipartiteGraph(nv, edges, parities)
        evens, odds = list(range(ne)), list(range(ne, nv))
        rng.shuffle(evens)
        rng.shuffle(odds)
        e1 = evens[: rng.randrange(0, ne + 1)]
        o1 = odds[: rng.randrange(0, no + 1)]
        rest_e = [v for v in evens if v not in e1]
        rest_o = [v for v in odds if v not in o1]
        e2 = rest_e[: rng.randrange(0, len(rest_e) + 1)]
        o2 = rest_o[: rng.randrange(0, len(rest_o) + 1)]
        if not e2 and not o2:
            continue
        rep = lcol_check(g, e1, o1, e2, o2)
        if not rep.holds:
            ok = False
        equality_seen |= rep.equality
        checked += 1
    _report(8, "conditional color probability >= 3^-|targets| on 100 seeded instances",
            ok and equality_seen, f"equality observed: {equality_seen}")


def test_criterion_09_entropy_inequalities():
    ok = True
    details = []
    for m in (2, 3):
        gap = max_entropy_gap_check(m, 1)
        good = (
            gap.max_prob_bound_holds
            and gap.entropy_floor_holds
            and gap.ring_mass_bound_holds
            and gap.support_extendable
            and gap.n_depends_on_ring_only
        )
        ok &= good
        details.append(f"m={m}: H={gap.entropy_nats:.3f}, max_p={float(gap.max_prob):.2e}")
    topo = topological_entropy_estimate(2, [2, 3, 4, 5, 6, 7, 8])
    spread_ok = topo.spread < 0.02
    ok &= spread_ok
    _report(9, "entropy floor, max-prob and ring-mass bounds exact; Aitken spread < 0.02",
            ok, "; ".join(details) + f"; spread={topo.spread:.4f}")


def test_criterion_10_torpid_demo_replay(tmp_path):
    from potts3.cli import main

    t0 = time.time()
    args = [
        "torpid-demo", "--kind", "torus", "--d", "4", "--n", "4",
        "--chains", "32", "--sweeps", "4000", "--seed", "7",
    ]
    assert main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert main(args + ["--out", str(tmp_path / "run2")]) == 0
    r1 = (tmp_path / "run1" / "report.json").read_bytes()
    r2 = (tmp_path / "run2" / "report.json").read_bytes()
    identical = r1 == r2
    for f in sorted((tmp_path / "run1").glob("chain*.csv")):
        identical &= f.read_bytes() == (tmp_path / "run2" / f.name).read_bytes()
    summary = json.loads(r1)
    elapsed = time.time() - t0
    _report(10, "torpid-mixing demo regenerates byte-identical reports",
            identical,
            f"sign_flip_fraction={summary['sign_flip_fraction']}, "
            f"quantiles={summary['imbalance_quantiles']}, {elapsed:.0f}s")
