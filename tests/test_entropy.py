from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from potts3 import entropy
from potts3.entropy import (
    extendable_colorings,
    max_entropy_gap_check,
    restriction_distribution,
    shannon_entropy,
    topological_entropy_estimate,
)
from potts3.errors import CapExceeded, ColoringError
from potts3.lattice import box
from potts3.oracle import enumerate_colorings, grid_region_counts

from claims import assignments_by_cursor, binary_entropy

COUNT_ENTROPY_REFERENCE = (
    Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "count-entropy.json"
)


def _no_listing(*args, **kwargs):
    raise AssertionError("a window coloring was listed")


def test_shannon_entropy_basics():
    assert math.isclose(shannon_entropy([(Fraction(1, 3), 3)]), math.log(3))
    assert shannon_entropy([(Fraction(1), 1)]) == 0.0
    dyadic = [(Fraction(1, 2), 1), (Fraction(1, 4), 2)]
    assert math.isclose(shannon_entropy(dyadic), 1.5 * math.log(2))
    assert shannon_entropy([(Fraction(0), 5), (Fraction(1), 1)]) == 0.0


def test_entropy_bounded_by_log_support():
    masses = [(Fraction(1, 2), 1), (Fraction(1, 6), 3)]
    assert shannon_entropy(masses) < math.log(4)


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
    sizes = [2, 4, 8, 16]
    rep = topological_entropy_estimate(1, sizes)
    # 3*2^(L-1) colorings of an L-path: per-site -> ln 2
    for size, h in zip(sizes, rep.per_site, strict=True):
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


def _dense_strip_per_site(w: int) -> float:
    """ln λ_max of the full 3·2^{w−1}-square strip transfer matrix, per site."""
    path = [[u for u in (v - 1, v + 1) if 0 <= u < w] for v in range(w)]
    S = np.frombuffer(b"".join(assignments_by_cursor(w, path, 3, {})), dtype=np.uint8).reshape(-1, w)
    T = (S[:, None, :] != S[None, :, :]).all(axis=2).astype(float)
    return math.log(max(abs(np.linalg.eigvals(T)))) / w


@pytest.mark.parametrize("w", range(1, 9))
def test_strip_quotient_matches_dense_transfer(w):
    assert math.isclose(entropy._strip_per_site(w), _dense_strip_per_site(w), rel_tol=1e-13)


def test_topo_entropy_d2_matches_frozen_reference():
    # the count-entropy benchmark's frozen report, to the same 1e-12; the
    # third Aitken pass amplifies per-site ulps about 2700-fold
    ref = next(op["report"] for op in json.loads(COUNT_ENTROPY_REFERENCE.read_text())["ops"]
               if op["argv"][0] == "entropy")
    rep = topological_entropy_estimate(2, [2, 3, 4, 5, 6, 7, 8])
    assert rep.per_site == pytest.approx(ref["per_site"], rel=0, abs=1e-12)
    assert len(rep.passes) == len(ref["aitken_passes"])
    for got, want in zip(rep.passes, ref["aitken_passes"]):
        assert got == pytest.approx(want, rel=0, abs=1e-12)
    assert rep.estimate == pytest.approx(ref["estimate"], rel=0, abs=1e-12)


def test_wide_strip_continues_the_sequence():
    h8, h9, h10 = (entropy._strip_per_site(w) for w in (8, 9, 10))
    assert h8 > h9 > h10 > 1.5 * math.log(4 / 3)
    assert h8 - h9 > h9 - h10 > 0


def test_extendable_d2_n1_all():
    rep = extendable_colorings(1)
    assert rep.total == 246 and rep.extendable == 246
    assert Fraction(rep.extendable, rep.total) == 1


def test_extendable_filter_drops_a_ring_that_does_not_extend(monkeypatch):
    # every ring of Λ_1 extends, so make the Λ_3 extendability count (the
    # first region count) miss one ring pattern r and watch the filter drop it
    real_counts = entropy.grid_region_counts
    calls = []

    def drop_one(*args, **kwargs):
        counts = real_counts(*args, **kwargs)
        if not calls:
            calls.append(min(counts))
            del counts[calls[0]]
        return counts

    monkeypatch.setattr(entropy, "grid_region_counts", drop_one)
    rep = extendable_colorings(1)
    (r,) = calls
    mult = restriction_distribution(2, 1).multiplicity
    assert r not in rep.multiplicity and mult[r] > 0
    assert rep.total == 246 and rep.extendable == 246 - mult[r]
    assert Fraction(rep.extendable, rep.total) < 1


def test_extendability_refuses_before_it_lists(monkeypatch):
    # the ring count over Λ_4 minus Λ_2's interior passes WINDOW_CAP states;
    # it refuses without listing any of the 580,986 colorings of Λ_2
    monkeypatch.setattr(entropy, "_assignments", _no_listing)
    with pytest.raises(CapExceeded, match="^frontier of 2097216 states exceeds the state cap 2000000$"):
        extendable_colorings(2)


def test_ring_multiplicities_match_listing():
    """The ring-kept count over Λ_1 against a tally of the ring patterns of
    the listed colorings."""
    inner = box(2, 1)
    ring = [inner.index(c) for c in inner.coords if max(map(abs, c)) == 1]
    listed = Counter(bytes(tau.colors[i] for i in ring) for tau in enumerate_colorings(inner, 3))
    mult = restriction_distribution(2, 1).multiplicity
    assert mult == dict(listed)
    assert len(mult) == 198 and sum(mult.values()) == 246
    assert extendable_colorings(1).multiplicity == mult


def test_restriction_distribution_m2():
    res = restriction_distribution(2, 1)
    assert res.ring_counts.keys() == res.multiplicity.keys() and len(res.ring_counts) == 198
    assert res.total == sum(k * res.ring_counts[r] for r, k in res.multiplicity.items())
    kept = sum(k for r, k in res.multiplicity.items() if res.ring_counts[r])
    assert kept + res.dropped == 246
    assert res.ring_only


def test_restriction_m3_n2_without_listing(monkeypatch):
    monkeypatch.setattr(entropy, "_assignments", _no_listing)
    res = restriction_distribution(3, 2)
    assert res.total == 40_724_629_633_188
    assert res.dropped == 248_732
    assert len(res.ring_counts) == 37_170
    assert sum(res.multiplicity.values()) == 580_986


def test_restriction_counts_depend_on_ring_only_dual_route():
    """Recount a few N(ring) values by plain backtracking, independent of
    the frontier counter used in restriction_distribution."""
    res = restriction_distribution(2, 1)
    inner = box(2, 1)
    ring_cells = [c for c in inner.coords if max(abs(x) for x in c) == 1]
    region = {(x, y) for x in range(-3, 4) for y in range(-3, 4)
              if max(abs(x), abs(y)) <= 2 or (x + y) % 2}     # W_2
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


@pytest.mark.parametrize("m,max_prob,entropy_nats", [
    (2, Fraction(2705377, 101596896), 4.409782631724111),
    (3, Fraction(80740691716, 3393719136099), 4.55495937686829),
])
def test_gap_check_frozen_values(m, max_prob, entropy_nats):
    # the float entropy is summed one window coloring at a time, in ring-key
    # order, so the report keeps its bits
    gap = max_entropy_gap_check(m, 1)
    assert gap.max_prob == max_prob
    assert gap.entropy_nats == entropy_nats


def test_gap_check_counts_the_window_once(monkeypatch):
    # the restriction law and the extendability filter share one count of
    # the window's ring patterns: 3 region counts, not 4, and the windows'
    # cells are listed without building a box lattice
    real_counts = entropy.grid_region_counts
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_counts(*args, **kwargs)

    def no_box(*args):
        raise AssertionError("a box lattice was built for its coordinates")

    monkeypatch.setattr(entropy, "grid_region_counts", counted)
    monkeypatch.setattr(entropy, "box", no_box)
    entropy._ring_multiplicity.cache_clear()
    max_entropy_gap_check(3, 1)
    assert len(calls) == 3


def test_topo_entropy_rejects_sizes_below_one(monkeypatch):
    monkeypatch.setattr(entropy, "_strip_per_site", _no_listing)
    monkeypatch.setattr(entropy, "count_colorings", _no_listing)
    for d in (1, 2):
        with pytest.raises(ColoringError, match="at least 1"):
            topological_entropy_estimate(d, [2, 3, 0])
    # d = 3 has no route at all: box(3,2)'s frontier passes the state cap
    for sizes in ([2, 3, 0], [1, 2, 3]):
        with pytest.raises(ColoringError, match="no counting route for d=3"):
            topological_entropy_estimate(3, sizes)


def test_topo_entropy_rejects_sizes_that_do_not_strictly_increase(monkeypatch):
    # repeated sizes zero Aitken's denominators and a falling run
    # extrapolates backwards; neither is counted
    monkeypatch.setattr(entropy, "_strip_per_site", _no_listing)
    monkeypatch.setattr(entropy, "count_colorings", _no_listing)
    for sizes in ([1, 1, 1], [3, 2, 1], [2, 3, 3]):
        for d in (1, 2):
            with pytest.raises(ColoringError, match="strictly increase"):
                topological_entropy_estimate(d, sizes)
        with pytest.raises(ColoringError, match="no counting route for d=3"):
            topological_entropy_estimate(3, sizes)


def test_restriction_requires_m_greater_n(monkeypatch):
    with pytest.raises(ColoringError):
        restriction_distribution(1, 1)
    # the gap check refuses m <= n before its extendability count runs
    monkeypatch.setattr(entropy, "extendable_colorings", _no_listing)
    with pytest.raises(ColoringError):
        max_entropy_gap_check(2, 2)


def test_region_counter_empty_region():
    assert sum(grid_region_counts(set(), 3).values()) == 1


def test_region_counter_pins():
    region = {(x, y) for x in range(3) for y in range(3)}
    # pinning the center to one specific color (forbidding the other two)
    # cuts the count to a third
    assert sum(grid_region_counts(region, 3, forbidden={(1, 1): {1, 2}}).values()) == 82
