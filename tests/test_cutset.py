from __future__ import annotations

from dataclasses import fields, replace

import pytest

from potts3.coloring import Coloring, phase_coloring, zero_set
from potts3.cutset import Cutset, build_box_cutset, select_family, verify_properties
from potts3.errors import ColoringError
from potts3.lattice import Parity, connected_components, edge_boundary, iter_bits, torus

from claims import (
    NotEvenClassError,
    Profile,
    build_torus_cutsets,
    minimality_check,
    profile_membership,
)


def _torus_coloring_with_even_zeros(lat, zero_cells, odd_color=1):
    """All odds get odd_color; evens in zero_cells get 0, the rest get the
    other nonzero color."""
    other = 3 - odd_color
    buf = bytearray(lat.nv)
    zmask = 0
    for c in zero_cells:
        zmask |= 1 << lat.index(c)
    for v in range(lat.nv):
        if lat.parities[v] == 1:
            buf[v] = odd_color
        else:
            buf[v] = 0 if (zmask >> v) & 1 else other
    return Coloring(lat, buf, 3)


def test_minimal_box_cutset_shape(box_corpus, box22):
    v0 = box22.index((0, 0))
    chi = box_corpus[0]
    cut = build_box_cutset(chi, v0)
    # I^E is forced to {v0} on this corpus, so W is the closed star
    assert cut.region.bit_count() == 5
    assert cut.size == 2 * 2 * (4 - 1)
    rep = verify_properties(cut, chi, v0)
    assert rep.all_hold()


def test_any_failed_property_fails_the_verdict(box_corpus, box22):
    v0 = box22.index((0, 0))
    chi = box_corpus[0]
    rep = verify_properties(build_box_cutset(chi, v0), chi, v0)
    names = [f.name for f in fields(rep)]
    assert len(names) == 8 and None not in [getattr(rep, n) for n in names]
    assert rep.all_hold()
    for name in names:
        assert not replace(rep, **{name: False}).all_hold(), name
        assert replace(rep, **{name: None}).all_hold(), name


def test_cutset_depends_only_on_zero_set(box_corpus, box22):
    v0 = box22.index((0, 0))
    by_zeros = {}
    for chi in box_corpus:
        cut = build_box_cutset(chi, v0)
        key = zero_set(chi)
        if key in by_zeros:
            assert by_zeros[key] == (cut.region, cut.size)
        else:
            by_zeros[key] = (cut.region, cut.size)


def test_box_cutset_regions_connected(box_corpus, box22):
    v0 = box22.index((0, 0))
    for chi in box_corpus[:8]:
        cut = build_box_cutset(chi, v0)
        assert len(connected_components(box22, cut.region)) == 1
        assert len(connected_components(box22, box22.full_mask & ~cut.region)) == 1
        assert minimality_check(cut)


def test_minimality_check_rejects_a_cut_with_a_disconnected_side():
    # ∇(C) separates W from C, but C = {(0,0), (2,2)} is two pieces, so the
    # cut is the union of two smaller cutsets
    t = torus(2, 4)

    def cut_of(cells):
        comp = sum(1 << t.index(c) for c in cells)
        return Cutset(lattice=t, region=t.full_mask & ~comp, seed_parity=Parity.EVEN,
                      size=len(edge_boundary(t, comp)))

    split = cut_of([(0, 0), (2, 2)])
    assert split.size == 8
    assert not minimality_check(split)
    assert minimality_check(cut_of([(0, 0)]))
    assert minimality_check(cut_of([(0, 0), (0, 1)]))


def test_every_cutset_the_builders_make_is_minimal(box22, box_corpus, z24_states):
    v0 = box22.index((0, 0))
    cuts = [build_box_cutset(chi, v0) for chi in box_corpus]
    family = []
    for chi in z24_states:
        cuts += build_torus_cutsets(chi)
        family += select_family(chi).cutsets
    assert len(cuts + family) == 32 + 5472 + 576
    assert all(minimality_check(cut) for cut in cuts + family)
    # int γ = W for every family member, the rule cutsets.jsonl's interior_size relies on
    assert all(2 * cut.region.bit_count() <= cut.lattice.nv for cut in family)


def test_box_cutset_rejects_bad_inputs(box22):
    v0 = box22.index((0, 0))
    with pytest.raises(ColoringError):
        build_box_cutset(phase_coloring(box22, Parity.ODD), v0)  # v0 not colored 0
    with pytest.raises(ColoringError):
        build_box_cutset(phase_coloring(torus(2, 4)), 0)


def test_phase_coloring_family_is_odd_branch_empty():
    t = torus(2, 4)
    chi = phase_coloring(t, Parity.EVEN)   # zeros on all of E
    cuts = build_torus_cutsets(chi)
    assert cuts == []  # (I^E)^+ = V leaves no complement component
    fam = select_family(chi)
    assert fam.branch is Parity.ODD
    assert fam.cutsets == ()


def test_single_even_zero_torus_cutset():
    t = torus(2, 4)
    chi = _torus_coloring_with_even_zeros(t, [(0, 0)])
    cuts = build_torus_cutsets(chi)
    even = [c for c in cuts if c.seed_parity is Parity.EVEN]
    assert len(even) == 1
    cut = even[0]
    assert cut.region.bit_count() == 5   # W = R, the closed star of the zero
    assert cut.size == 4 * 3
    for cut in cuts:
        assert cut.size == sum((cut.region >> u ^ cut.region >> v) & 1 for u, v in t.edges)


def test_empty_zero_set_family_vacuous():
    t = torus(2, 4)
    chi = Coloring(t, bytes((1 if p == 0 else 2) for p in t.parities), 3)
    fam = select_family(chi)
    assert fam.branch is Parity.EVEN
    assert fam.cutsets == ()


def test_family_two_distant_zeros_z26():
    t = torus(2, 6)
    chi = _torus_coloring_with_even_zeros(t, [(0, 0), (3, 3)])
    fam = select_family(chi)
    assert fam.branch is Parity.EVEN
    assert len(fam.cutsets) == 2
    interiors = [c.region for c in fam.cutsets]
    assert interiors[0] & interiors[1] == 0
    assert zero_set(chi) & t.even_mask & ~(interiors[0] | interiors[1]) == 0
    for cut in fam.cutsets:
        rep = verify_properties(cut, chi)
        assert rep.all_hold()


def test_family_properties_sampled(z24_states):
    from potts3.peierls import exact_approximation
    from claims import is_approximation

    for chi in z24_states[::37]:
        fam = select_family(chi)
        assert fam.branch is not None
        for cut in fam.cutsets:
            rep = verify_properties(cut, chi)
            assert rep.all_hold(), chi.colors.hex()
            assert minimality_check(cut)
            if cut.seed_parity is Parity.EVEN:
                assert is_approximation(exact_approximation(cut), cut)


def test_profile_membership_cases():
    t = torus(2, 4)
    chi = _torus_coloring_with_even_zeros(t, [(0, 0)])
    fam = select_family(chi)
    assert fam.branch is Parity.EVEN
    cut = fam.cutsets[0]
    assert profile_membership(chi, Profile(()))
    v = t.index((0, 0))
    assert profile_membership(chi, Profile(((cut.size, v),)))
    assert not profile_membership(chi, Profile(((cut.size + 2, v),)))
    # two entries cannot both use the single family cutset
    assert not profile_membership(chi, Profile(((cut.size, v), (cut.size, v))))
    odd_vertex = next(iter_bits(t.odd_mask))
    assert not profile_membership(chi, Profile(((cut.size, odd_vertex),)))


def test_profile_rejects_non_even_class():
    t = torus(2, 4)
    chi = phase_coloring(t, Parity.EVEN)   # odd-branch coloring
    with pytest.raises(NotEvenClassError):
        profile_membership(chi, Profile(()))
