from __future__ import annotations

import math
from fractions import Fraction

import pytest

from potts3 import (
    Distribution,
    binary_entropy,
    box,
    extendable_colorings,
    max_entropy_gap_check,
    restriction_distribution,
    shannon_entropy,
    topological_entropy_estimate,
)
from potts3 import entropy
from potts3.errors import CapExceeded, ColoringError
from potts3.oracle import grid_region_counts


def test_shannon_entropy_basics():
    u3 = Distribution(["a", "b", "c"], [Fraction(1, 3)] * 3)
    assert math.isclose(shannon_entropy(u3), math.log(3))
    point = Distribution(["a"], [Fraction(1)])
    assert shannon_entropy(point) == 0.0
    dyadic = Distribution(["a", "b", "c"], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    assert math.isclose(shannon_entropy(dyadic), 1.5 * math.log(2))


def test_distribution_validation():
    with pytest.raises(ColoringError):
        Distribution(["a"], [Fraction(1, 2)])
    with pytest.raises(ColoringError):
        Distribution(["a", "b"], [Fraction(3, 2), Fraction(-1, 2)])


def test_entropy_bounded_by_log_support():
    d = Distribution(["a", "b", "c", "d"], [Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)])
    assert shannon_entropy(d) < math.log(4)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0 == binary_entropy(1.0)
    h22 = binary_entropy(0.22)
    assert h22 + 0.22 < 1.0
    assert math.isclose(h22, 0.7602, abs_tol=5e-4)
    for x in (0.1, 0.3, 0.47):
        assert math.isclose(binary_entropy(x), binary_entropy(1 - x))
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_binary_entropy_crossing_near_threshold():
    # bisect H(x) + x = 1: the crossing sits just above 0.22
    lo, hi = 0.2, 0.3
    for _ in range(60):
        mid = (lo + hi) / 2
        if binary_entropy(mid) + mid < 1:
            lo = mid
        else:
            hi = mid
    assert 0.22 < lo < 0.2272


def test_topo_entropy_d1_tends_to_log2():
    rep = topological_entropy_estimate(1, [2, 4, 8, 16])
    # 3*2^(L-1) colorings of an L-path: per-site -> ln 2
    for size, h in zip(rep.sizes, rep.per_site):
        nv = 2 * size + 1
        assert math.isclose(h, math.log(3 * 2 ** (nv - 1)) / nv)
    assert abs(rep.per_site[-1] - math.log(2)) < 0.05


def test_topo_entropy_d2_strips():
    rep = topological_entropy_estimate(2, [2, 3, 4, 5, 6, 7, 8])
    assert all(0 < h <= math.log(3) for h in rep.per_site)
    assert all(a > b for a, b in zip(rep.per_site, rep.per_site[1:]))
    assert math.isclose(rep.per_site[0], math.log(3) / 2)
    assert rep.spread < 0.02
    # the true per-site limit is (3/2) ln(4/3); the estimate should be near it
    assert abs(rep.estimate - 1.5 * math.log(4 / 3)) < 0.01


def test_extendable_d2_n1_all():
    rep = extendable_colorings(1)
    assert rep.total == 246 and rep.extendable == 246
    assert rep.fraction == 1


def test_extendability_refuses_before_it_lists(monkeypatch):
    # the ring count over Λ_4 minus Λ_2's interior passes WINDOW_CAP states;
    # the 580,986 colorings of Λ_2 must not be listed first
    def no_listing(*args, **kwargs):
        raise AssertionError("listed before refusing")

    monkeypatch.setattr(entropy, "enumerate_colorings", no_listing)
    with pytest.raises(CapExceeded):
        extendable_colorings(2)


def test_restriction_distribution_m2():
    res = restriction_distribution(2, 1)
    assert sum(res.distribution.probs, Fraction(0)) == 1
    assert res.total == sum(res.counts.values())
    assert len(res.distribution.outcomes) + res.dropped == 246
    assert res.m == 2 and res.n == 1


def test_restriction_counts_depend_on_ring_only_dual_route():
    """Recount a few N(ring) values by plain backtracking, independent of
    the frontier counter used in restriction_distribution."""
    res = restriction_distribution(2, 1)
    inner = box(2, 1)
    ring_cells = [c for c in inner.coords if max(abs(x) for x in c) == 1]
    region = set(box(2, 2, extended=True).coords)
    annulus = sorted(region - set(inner.coords))
    index = {c: i for i, c in enumerate(annulus)}
    neighbors = [[] for _ in annulus]
    for c in annulus:
        for dd in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (c[0] + dd[0], c[1] + dd[1])
            if nb in index:
                neighbors[index[c]].append(index[nb])

    def backtrack_count(forb):
        coln = [None] * len(annulus)

        def rec(i):
            if i == len(annulus):
                return 1
            total = 0
            for col in range(3):
                if col in forb[i]:
                    continue
                if any(coln[u] == col for u in neighbors[i] if coln[u] is not None):
                    continue
                coln[i] = col
                total += rec(i + 1)
                coln[i] = None
            return total

        return rec(0)

    picks = sorted((n_ext, rp) for rp, n_ext in res.ring_counts.items() if n_ext > 0)[:3]
    for n_ext, rp in picks:
        ring_color = {c: rp[i] for i, c in enumerate(ring_cells)}
        forb = []
        for c in annulus:
            bad = set()
            for dd in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nb = (c[0] + dd[0], c[1] + dd[1])
                if nb in ring_color:
                    bad.add(ring_color[nb])
                elif nb not in region:
                    bad.add(1)  # frozen exterior phase color
            forb.append(bad)
        assert backtrack_count(forb) == n_ext


def test_gap_check_m2():
    gap = max_entropy_gap_check(2, 1)
    assert gap.boundary_size == 8
    assert gap.c3_prime == 246
    assert gap.support_extendable
    assert gap.n_depends_on_ring_only
    assert gap.max_prob_bound_holds
    assert gap.entropy_floor_holds
    assert gap.pinned_ring_count == 2
    assert gap.ring_mass_bound_holds
    assert gap.max_prob <= gap.max_prob_bound


def test_restriction_requires_m_greater_n():
    with pytest.raises(ColoringError):
        restriction_distribution(1, 1)


def test_region_counter_empty_region():
    assert sum(grid_region_counts(set(), 3).values()) == 1


def test_region_counter_pins():
    region = {(x, y) for x in range(3) for y in range(3)}
    # pinning the center to one specific color cuts the count to a third
    assert sum(grid_region_counts(region, 3, pins={(1, 1): 0}).values()) == 82
