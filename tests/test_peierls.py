from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from potts3 import peierls
from potts3.coloring import (
    Coloring,
    OddBoundaryZero,
    is_proper,
    odd_boundary_pinned,
    phase_coloring,
    satisfies_bc,
    zero_set,
)
from potts3.cutset import build_box_cutset, select_family
from potts3.errors import ColoringError, PropertyViolation
from potts3.lattice import (LatticeKind, LatticeSpec, Parity, box, build_lattice, closure, iter_bits,
                            shift_order, torus)
from potts3.peierls import (
    Approximation,
    GoodTriple,
    _q_masks,
    bound_report,
    boundary_layer,
    exact_approximation,
    flow_out_total,
    flow_sets,
    is_good_triple,
    membership_subset,
    phi_family,
    q_sets,
    reconstruct,
)

from claims import (
    ClaimsRng,
    canonical_good_triple,
    degree_threshold,
    flow_weight,
    is_approximation,
    resolved_by_vertex,
    sample_phi,
    select_direction,
    shift_coloring,
    subsets_by_counter,
)


def _torus_zero_coloring(lat, zero_cells):
    buf = bytearray(lat.nv)
    zmask = 0
    for c in zero_cells:
        zmask |= 1 << lat.index(c)
    for v in range(lat.nv):
        if lat.parities[v] == 1:
            buf[v] = 2
        else:
            buf[v] = 0 if (zmask >> v) & 1 else 1
    return Coloring(lat, buf, 3)


@pytest.fixture(scope="module")
def star_setup():
    t = torus(2, 4)
    chi = _torus_zero_coloring(t, [(0, 0)])
    fam = select_family(chi)
    assert fam.branch is Parity.EVEN
    return t, chi, fam.cutsets[0]


@pytest.fixture(scope="module")
def domino_setup():
    """Two even zeros at distance 2 on Z^2_6: the smallest region with a
    nontrivial external approximation (an extra even cell with three
    region-odd neighbors)."""
    t = torus(2, 6)
    chi = _torus_zero_coloring(t, [(0, 0), (2, 0)])
    fam = select_family(chi)
    assert fam.branch is Parity.EVEN
    assert len(fam.cutsets) == 1
    cut = fam.cutsets[0]
    extra = t.index((1, 1))
    approx = Approximation(
        t,
        (cut.region & t.even_mask) | (1 << extra),
        cut.region & t.odd_mask,
    )
    assert is_approximation(approx, cut)
    return t, chi, cut, approx, extra


def test_boundary_layer_star(star_setup):
    t, chi, cut = star_setup
    v0 = t.index((0, 0))
    # for s=+1 the entry layer omits the neighbor whose -s shift stays in W
    layer = boundary_layer(t, cut.region, 1)
    expect = {t.index((3, 0)), t.index((0, 1)), t.index((0, 3))}
    assert set(iter_bits(layer)) == expect
    # every internal boundary vertex has some exiting direction
    union = 0
    for s in shift_order(2):
        union |= boundary_layer(t, cut.region, s)
    from potts3.lattice import internal_boundary

    assert union == internal_boundary(t, cut.region)


def test_boundary_layer_full_torus():
    t = torus(2, 4)
    assert boundary_layer(t, t.full_mask, 1) == 0


def test_shift_identity_when_nothing_moves(star_setup):
    t, chi, cut = star_setup
    # a region equal to its boundary layer: W - W^s = empty, S = empty
    layer = boundary_layer(t, cut.region, 1)
    chi2 = shift_coloring(chi, layer, 1, 0)
    assert chi2 == chi


def test_shift_requires_subset(star_setup):
    t, chi, cut = star_setup
    outside = (~boundary_layer(t, cut.region, 1)) & t.full_mask
    with pytest.raises(ColoringError):
        shift_coloring(chi, cut.region, 1, outside & -outside)


def test_injectivity_of_subset_map(star_setup):
    t, chi, cut = star_setup
    for s in shift_order(2):
        seen = {}
        for subset, chi_p in phi_family(chi, cut.region, s):
            assert chi_p.colors not in seen
            seen[chi_p.colors] = subset
        assert len(seen) == 1 << boundary_layer(t, cut.region, s).bit_count()


def test_torus_shift_properness_and_roundtrip(star_setup):
    t, chi, cut = star_setup
    from potts3.coloring import is_proper

    for s in shift_order(2):
        for subset, chi_p in phi_family(chi, cut.region, s):
            assert is_proper(chi_p)
            assert reconstruct(chi_p, cut.region, s) == chi
            assert membership_subset(chi, chi_p, cut.region, s) == subset


def test_sampler_matches_family(star_setup):
    t, chi, cut = star_setup
    rng = ClaimsRng(7, 0)
    members = dict(phi_family(chi, cut.region, 1))
    for _ in range(10):
        subset, chi_p = sample_phi(chi, cut.region, 1, rng)
        assert members[subset] == chi_p


def test_q_sets_exact_w_is_empty(star_setup):
    t, chi, cut = star_setup
    approx = exact_approximation(cut)
    qq = q_sets(approx, 1, chi)
    assert qq.q_even == 0 and qq.q_odd == 0 and qq.u == 0


def test_q_sets_containments_external(domino_setup):
    t, chi, cut, approx, extra = domino_setup
    qq = q_sets(approx, -2, chi)
    w_even = cut.region & t.even_mask
    w_odd = cut.region & t.odd_mask
    assert qq.q_even == 1 << extra
    assert qq.q_odd.bit_count() == 1
    # the four displayed containments
    assert approx.even_part & ~qq.q_even & ~w_even == 0
    assert (t.even_mask & ~approx.even_part) & w_even == 0
    assert approx.odd_part & ~w_odd == 0
    assert (t.odd_mask & ~(approx.odd_part | qq.q_odd)) & w_odd == 0
    assert qq.u & ~qq.q_even == 0


@settings(max_examples=40, deadline=None)
@given(colors=st.lists(st.integers(0, 2), min_size=36, max_size=36))
def test_q_sets_resolved_part_matches_its_vertex_loop(domino_setup, colors):
    t, chi, cut, approx, extra = domino_setup
    # Q^E is grown to every even vertex, so U's shifts cross the torus wrap
    chi_prime = Coloring(t, colors, 3)
    for ctx_approx in (approx, Approximation(t, t.even_mask, approx.odd_part)):
        for s in shift_order(2):
            ctx = q_sets(ctx_approx, s, chi_prime)
            assert ctx.u == resolved_by_vertex(t, ctx.q_even, s, chi_prime)


@settings(max_examples=40, deadline=None)
@given(layer=st.sets(st.integers(0, 48), max_size=8).map(lambda vs: sum(1 << v for v in vs)))
def test_subsets_follow_the_binary_counter(layer):
    assert list(peierls._subsets(layer)) == list(subsets_by_counter(layer))


def test_q_sets_empty_when_a_odd_is_all_odd():
    t = torus(2, 4)
    chi = _torus_zero_coloring(t, [(0, 0)])
    approx = Approximation(t, t.even_mask, t.odd_mask)
    qq = q_sets(approx, 1, chi)
    assert qq.q_even == 0


def test_is_approximation_examples(star_setup):
    t, chi, cut = star_setup
    assert is_approximation(exact_approximation(cut), cut)
    assert not is_approximation(Approximation(t, 0, 0), cut)
    assert not is_approximation(Approximation(t, t.even_mask, t.odd_mask), cut)
    assert degree_threshold(2) == 3
    # dropping one odd vertex of W keeps a valid approximation at d=2
    w_odd = cut.region & t.odd_mask
    drop = 1 << next(iter_bits(w_odd))
    smaller = Approximation(t, cut.region & t.even_mask, w_odd & ~drop)
    assert is_approximation(smaller, cut)


def test_select_direction_star_symmetric(star_setup):
    t, chi, cut = star_setup
    choice = select_direction(cut, exact_approximation(cut))
    assert choice.s == 1  # full symmetry: ordering rule decides


def test_select_direction_primary_on_domino(domino_setup):
    t, chi, cut, approx, extra = domino_setup
    choice = select_direction(cut, approx)
    assert choice.rule == "primary"
    assert choice.s == 1


def test_select_direction_sweep_over_torus_families(z24_states):
    # every even-seeded family cutset yields a labeled direction, and its
    # odd side strictly outweighs its even side
    seen_rules = set()
    for chi in z24_states[::23]:
        fam = select_family(chi)
        for cut in fam.cutsets:
            if cut.seed_parity is not Parity.EVEN:
                continue
            t = cut.lattice
            gap = (cut.region & t.odd_mask).bit_count() - (cut.region & t.even_mask).bit_count()
            assert gap > 0
            choice = select_direction(cut, exact_approximation(cut))
            assert choice.rule in ("primary", "fallback")
            assert choice.layer == boundary_layer(t, cut.region, choice.s)
            seen_rules.add(choice.rule)
    assert seen_rules  # at least one cutset was exercised


def test_flow_weight_formula_arithmetic():
    assert (
        Fraction(1, 4) ** 1 * Fraction(3, 4) ** 2 * Fraction(1, 2) ** 3
        == Fraction(9, 512)
    )


def test_flow_weights_with_exact_approximation(star_setup):
    t, chi, cut = star_setup
    approx = exact_approximation(cut)
    for s in shift_order(2):
        layer, c_set, d_set = flow_sets(cut, approx, s, _q_masks(approx)[0])
        assert c_set == 0 and d_set == layer
        for _subset, chi_p in phi_family(chi, cut.region, s):
            assert flow_weight(chi, chi_p, cut, approx, s) == Fraction(1, 2) ** layer.bit_count()
        total = flow_out_total(chi, cut, approx, s)
        assert total.closed_form == 1 and total.agrees is True


def test_flow_nontrivial_c_set(domino_setup):
    t, chi, cut, approx, extra = domino_setup
    s = -2
    layer, c_set, d_set = flow_sets(cut, approx, s, _q_masks(approx)[0])
    assert c_set == 1 << t.index((1, 0))
    assert c_set | d_set == layer and c_set & d_set == 0
    total = flow_out_total(chi, cut, approx, s)
    assert total.closed_form == 1 and total.explicit == 1
    # weights now depend on whether the C-cell was reset to zero
    weights = set()
    for subset, chi_p in phi_family(chi, cut.region, s):
        nu = flow_weight(chi, chi_p, cut, approx, s)
        hit = (c_set & zero_set(chi_p)).bit_count()
        assert nu == Fraction(1, 4) ** hit * Fraction(3, 4) ** (1 - hit) * Fraction(1, 2) ** d_set.bit_count()
        weights.add(nu)
    assert len(weights) == 2


def test_flow_weight_rejects_non_member(star_setup):
    t, chi, cut = star_setup
    with pytest.raises(ColoringError):
        flow_weight(chi, phase_coloring(t, Parity.ODD, 2), cut, exact_approximation(cut), 1)


def _covers(ctx, cover):
    return all((cover >> x) & 1 or (cover >> y) & 1 for x, y in ctx.b_edges())


def _remove_one_minimal_cover(ctx, cover):
    """Reference: ``cover`` meets every B-edge and no single removal keeps
    it a cover."""
    return _covers(ctx, cover) and not any(
        _covers(ctx, cover & ~(1 << v)) for v in iter_bits(cover))


def test_minimal_cover_by_private_edges_matches_remove_one(z24):
    rng = random.Random(18)
    verdicts = []
    for _ in range(1500):
        q_even = rng.getrandbits(z24.nv) & z24.even_mask
        q_odd = rng.getrandbits(z24.nv) & z24.odd_mask
        ctx = peierls.QSets(z24, q_even, q_odd, u=q_even & rng.getrandbits(z24.nv))
        cover = rng.getrandbits(z24.nv) & (q_even | q_odd)
        if rng.getrandbits(1):
            # prune the full cover to a minimal one in random order, then
            # half the time add back one vertex, in B or not
            cover = q_even | q_odd
            for v in rng.sample(list(iter_bits(cover)), cover.bit_count()):
                if _covers(ctx, cover & ~(1 << v)):
                    cover &= ~(1 << v)
            if rng.getrandbits(1):
                cover |= 1 << rng.randrange(z24.nv)
        want = _remove_one_minimal_cover(ctx, cover)
        assert peierls._is_minimal_cover(ctx, cover) == want
        verdicts.append(want)
    assert 300 < sum(verdicts) < 1200


def test_vacuous_good_triple(star_setup):
    t, chi, cut = star_setup
    approx = exact_approximation(cut)
    _, chi_p = next(phi_family(chi, cut.region, 1))
    triple = canonical_good_triple(cut, approx, 1, chi_p)
    assert triple == GoodTriple(0, 0, 0)
    ctx = q_sets(approx, 1, chi_p)
    assert is_good_triple(triple, ctx)


def test_canonical_triple_nontrivial(domino_setup):
    t, chi, cut, approx, extra = domino_setup
    s = -2
    seen_u = set()
    for subset, chi_p in phi_family(chi, cut.region, s):
        ctx = q_sets(approx, s, chi_p)
        seen_u.add(ctx.u)
        triple = canonical_good_triple(cut, approx, s, chi_p)
        assert is_good_triple(triple, ctx)
        assert triple.k == 0  # Q^O lies outside W here
        assert (triple.l | triple.m) == ctx.q_even
    assert len(seen_u) == 2  # both U branches occur across the family


def test_is_good_triple_rejects_wrong_k(domino_setup):
    t, chi, cut, approx, extra = domino_setup
    s = -2
    _, chi_p = next(phi_family(chi, cut.region, s))
    ctx = q_sets(approx, s, chi_p)
    bad = GoodTriple(k=ctx.q_odd, l=ctx.u, m=(ctx.q_even & ~ctx.u))
    assert not is_good_triple(bad, ctx)


def test_bound_report(domino_setup):
    t, chi, cut, approx, extra = domino_setup
    s = -2
    for subset, chi_p in phi_family(chi, cut.region, s):
        rep = bound_report(chi, chi_p, cut, approx, s)
        assert rep.status == "ok"
        assert rep.nu > 0
        assert rep.b_squared > 0
        assert rep.nu_le_b == (rep.nu * rep.nu <= rep.b_squared)
        assert rep.k0_size + rep.l0_size <= 1


def test_bound_report_skips_when_large(domino_setup):
    t, chi, cut, approx, extra = domino_setup
    s = -2
    _, chi_p = next(phi_family(chi, cut.region, s))
    rep = bound_report(chi, chi_p, cut, approx, s, cap=0)
    assert rep.status == "skipped"


def test_box_shift_images_respect_boundary_condition(box_corpus, box22):
    v0 = box22.index((0, 0))
    chi = box_corpus[3]
    cut = build_box_cutset(chi, v0)
    for s in shift_order(2):
        for _subset, chi_p in phi_family(chi, cut.region, s):
            assert satisfies_bc(chi_p, OddBoundaryZero())


def _random_coloring(lat, pins, rng):
    """A proper 3-coloring that keeps ``pins``: depth-first over the
    vertices in index order.  Each free vertex tries 1 and 2 in a random
    order, with 0 first on even vertices and last on odd ones, which grows
    the even zero set and so the cutset region.  None when there is none."""
    colors = [None] * lat.nv

    def place(v):
        if v == lat.nv:
            return True
        nonzero = rng.sample((1, 2), 2)
        options = [0, *nonzero] if lat.parities[v] == 0 else [*nonzero, 0]
        for c in [pins[v]] if v in pins else options:
            if all(colors[u] != c for u in lat.neighbors[v]):
                colors[v] = c
                if place(v + 1):
                    return True
        colors[v] = None
        return False

    return Coloring(lat, colors, 3) if place(0) else None


# box(3,1) is left out: C₃^O(v₀) is empty there, since v₀'s neighbours all
# lie on the odd boundary, pinned to v₀'s color
@pytest.mark.parametrize("d,n", [(3, 2), (2, 4), (2, 6)])
def test_repair_round_trip_on_random_box_colorings(d, n):
    # box(3,2) keeps every even vertex but v₀ off the zero set (each has an
    # odd boundary neighbour), so its regions are stars; box(2,6) has
    # layers past 10 cells, where S is sampled
    lat = box(d, n)
    origin = (0,) * d
    v0 = lat.index(origin)
    pins = odd_boundary_pinned(origin).pins(lat)
    rng = random.Random(20 * d + n)
    widest = 0
    for _ in range(3):
        chi = _random_coloring(lat, pins, rng)
        region = build_box_cutset(chi, v0).region
        for s in shift_order(d):
            layer = boundary_layer(lat, region, s)
            widest = max(widest, layer.bit_count())
            if layer.bit_count() <= 10:
                family = phi_family(chi, region, s)
            else:
                family = (sample_phi(chi, region, s, rng) for _ in range(16))
            for subset, chi_p in family:
                assert subset & ~layer == 0
                assert is_proper(chi_p) and satisfies_bc(chi_p, OddBoundaryZero())
                assert reconstruct(chi_p, region, s) == chi
                assert membership_subset(chi, chi_p, region, s) == subset
    assert (widest > 10) == (n == 6)


def _explicit_flow(chi, cut, approx, s):
    return sum(flow_weight(chi, chi_p, cut, approx, s)
               for _subset, chi_p in phi_family(chi, cut.region, s))


def test_explicit_flow_sum_matches_per_image_weights(box_corpus, box22, domino_setup):
    v0 = box22.index((0, 0))
    for chi in box_corpus:
        cut = build_box_cutset(chi, v0)
        approx = exact_approximation(cut)
        for s in shift_order(2):
            assert flow_out_total(chi, cut, approx, s).explicit == _explicit_flow(chi, cut, approx, s)
    t, chi, cut, approx, extra = domino_setup
    for s in shift_order(2):
        assert flow_out_total(chi, cut, approx, s).explicit == _explicit_flow(chi, cut, approx, s) == 1
    assert flow_sets(cut, approx, -2, _q_masks(approx)[0])[1] != 0


def test_flow_check_bounds_reduce_to_the_layer_and_the_parity_gap(box_corpus, box22):
    # the exact approximation has W^O = ∂_ext W^E (P5), so Q^E, Q^O, U and C
    # are empty: each (χ, s) row that flow-check --d 2 --n 2 writes to
    # bounds.csv comes from a good-triple search on an empty graph and reads
    # ν = 2^−|W^s| and B² = (3/4)^(|W^O| − |W^E|)
    v0 = box22.index((0, 0))
    pairs = 0
    for chi in box_corpus:
        cut = build_box_cutset(chi, v0)
        approx = exact_approximation(cut)
        w_even, w_odd = cut.region_parts()
        for s in shift_order(2):
            total = flow_out_total(chi, cut, approx, s, explicit_cap=math.inf)
            layer, c_set, _ = total.sets
            ctx = q_sets(approx, s, total.image)
            assert (ctx.q_even, ctx.q_odd, ctx.u, c_set) == (0, 0, 0, 0)
            rep = bound_report(chi, total.image, cut, approx, s)
            assert (rep.status, rep.k0_size, rep.l0_size) == ("ok", 0, 0)
            assert rep.nu == Fraction(1, 2 ** layer.bit_count())
            assert rep.b_squared == Fraction(3, 4) ** (w_odd.bit_count() - w_even.bit_count())
            pairs += 1
    assert pairs == 128


def test_explicit_flow_sum_catches_a_corrupted_repair(domino_setup, monkeypatch):
    # a repair map that recolors one site of W ∖ W^s wrongly: no image then
    # reconstructs to χ, and the explicit sum checks every image against χ
    t, chi, cut, approx, extra = domino_setup
    s = -2
    real_repair = peierls._repair

    def corrupted(chi, region, s, subset):
        out = bytearray(real_repair(chi, region, s, subset).colors)
        v = next(iter_bits(region & ~boundary_layer(chi.lattice, region, s)))
        out[v] = (out[v] + 1) % 3
        return Coloring(chi.lattice, out, chi.q)

    assert flow_out_total(chi, cut, approx, s).agrees is True
    monkeypatch.setattr(peierls, "_repair", corrupted)
    with pytest.raises(PropertyViolation, match="reconstruct"):
        flow_out_total(chi, cut, approx, s)


# -- the plan cache: one (W^s, repair pairs, reconstruct pairs) per (lattice, W, s)


def test_full_box_region_raises_again_through_the_cached_plan():
    # every direction leaves the box somewhere inside W = Λ, so neither pair
    # tuple exists; the plan keeps None and the second call raises from it
    lat = box(2, 2)
    chi = phase_coloring(lat)
    peierls._plan.cache_clear()
    for _ in range(2):
        with pytest.raises(PropertyViolation, match="leaves the lattice"):
            reconstruct(chi, lat.full_mask, 1)
        with pytest.raises(PropertyViolation, match="leaves the lattice"):
            list(phi_family(chi, lat.full_mask, 1))
    info = peierls._plan.cache_info()
    assert info.misses == 1 and info.hits >= 3
    plan = peierls._plan(lat, lat.full_mask, 1)
    assert (plan.layer, plan.repair, plan.rebuild) == (0, None, None)


def test_separate_lattices_of_one_spec_share_a_plan():
    peierls._plan.cache_clear()
    families = []
    for lat in (box(2, 3), box(2, 3)):
        chi = phase_coloring(lat)
        star = closure(lat, 1 << lat.index((0, 0)))
        families.append([(sub, cp, reconstruct(cp, star, 1)) for sub, cp in phi_family(chi, star, 1)])
    # both calls return one lattice, so the images, their reconstructions
    # and the plan are shared
    assert families[0] == families[1] and len(families[0]) == 2 ** 3
    assert peierls._plan.cache_info().misses == 1


def test_plan_cache_keys_on_the_one_lattice_of_its_spec():
    lat = box(2, 3)
    chi = phase_coloring(lat)
    star = closure(lat, 1 << lat.index((0, 0)))
    assert membership_subset(chi, next(phi_family(chi, star, -2))[1], star, -2) == 0
    misses = peierls._plan.cache_info().misses
    spec_lat = build_lattice(LatticeSpec(LatticeKind.BOX, 2, 3))
    assert peierls._plan(spec_lat, star, -2) is peierls._plan(lat, star, -2)
    assert peierls._plan.cache_info().misses == misses


def test_records_on_two_box_calls_compare_alike():
    # equal colours on two box(2, 2) calls: the colorings, cutsets,
    # approximations and Q-sets built on them compare and hash alike
    lats = (box(2, 2), box(2, 2))
    v0 = lats[0].index((0, 0))
    pins = odd_boundary_pinned((0, 0)).pins(lats[0])
    colors = _random_coloring(lats[0], pins, random.Random(1)).colors
    records = []
    for lat in lats:
        chi = Coloring(lat, colors)
        cut = build_box_cutset(chi, v0)
        approx = exact_approximation(cut)
        records.append((chi, cut, approx, q_sets(approx, 1, chi)))
    assert records[0] == records[1]
    assert [hash(r) for r in records[0]] == [hash(r) for r in records[1]]
