from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from potts3 import coloring
from potts3.coloring import (
    Coloring,
    ImbalanceClass,
    OddBoundaryZero,
    imbalance,
    is_proper,
    odd_boundary_pinned,
    phase_coloring,
    satisfies_bc,
    zero_counts,
    zero_set,
    _zero_mask,
)
from potts3.errors import BoundaryConditionError, ColoringError, LatticeError
from potts3.lattice import LatticeKind, LatticeSpec, Parity, box, build_lattice, iter_bits, torus
from potts3.oracle import enumerate_colorings

from claims import classify, mod3_coloring, zero_mask_by_vertex


def test_properness_examples():
    t = torus(2, 4)
    assert not is_proper(Coloring(t, bytes(16), 3))
    assert is_proper(phase_coloring(t))
    b = box(2, 1)
    assert is_proper(mod3_coloring(b))


def test_zero_set_of_phase_and_mod3():
    t = torus(2, 4)
    chi = phase_coloring(t)
    assert zero_set(chi) == t.even_mask
    b = box(2, 1)
    m3 = mod3_coloring(b)
    expect = [v for v, c in enumerate(b.coords) if sum(c) % 3 == 0]
    assert list(iter_bits(zero_set(m3))) == expect
    assert len(expect) == 3


def test_color_out_of_range_names_the_first_bad_value():
    with pytest.raises(ColoringError, match="^color value 5 out of range for q=3$"):
        Coloring(box(1, 1), [0, 5, 7], 3)


@pytest.mark.parametrize("q,colors,bad", [
    (2, [1, 0, 2], 2),
    (4, [3, 7, 9], 7),
    (3, [255, 1, 4], 255),
    (254, [253, 255, 254], 255),
])
def test_color_out_of_range_names_the_first_bad_byte(q, colors, bad):
    with pytest.raises(ColoringError, match=f"^color value {bad} out of range for q={q}$"):
        Coloring(box(1, 1), colors, q)


def test_every_byte_is_in_range_for_q_256():
    assert Coloring(box(1, 1), [0, 128, 255], 256).colors == bytes([0, 128, 255])


def test_zero_set_requires_proper():
    t = torus(2, 4)
    with pytest.raises(ColoringError):
        zero_set(Coloring(t, bytes(16), 3))


def test_zero_set_always_independent(z24_states):
    t = z24_states[0].lattice
    for chi in z24_states[::7]:
        zeros = zero_set(chi)
        for v in iter_bits(zeros):
            assert not (t.nbr_mask[v] & zeros)


def test_imbalance_and_classes():
    t = torus(2, 4)
    chi = phase_coloring(t, Parity.EVEN)
    assert imbalance(chi) == 8
    assert classify(chi, Fraction(11, 50)) is ImbalanceClass.EVEN_HEAVY
    mirror = phase_coloring(t, Parity.ODD)
    assert imbalance(mirror) == -8
    assert classify(mirror, Fraction(11, 50)) is ImbalanceClass.ODD_HEAVY
    no_zero = Coloring(t, bytes((1 if p == 0 else 2) for p in t.parities), 3)
    assert imbalance(no_zero) == 0
    assert classify(no_zero, Fraction(11, 50)) is ImbalanceClass.BALANCED


def test_class_threshold_is_exact():
    # on Z^2_4 at rho=11/50 the threshold is 1.76: imbalance 2 is heavy, 1 is not
    t = torus(2, 4)
    for chi in enumerate_colorings(t, 3):
        imb = imbalance(chi)
        cls = classify(chi, Fraction(11, 50))
        if imb >= 2:
            assert cls is ImbalanceClass.EVEN_HEAVY
        elif imb <= -2:
            assert cls is ImbalanceClass.ODD_HEAVY
        else:
            assert cls is ImbalanceClass.BALANCED


def test_classify_needs_torus():
    with pytest.raises(ColoringError):
        classify(mod3_coloring(box(2, 1)), Fraction(11, 50))


def test_color_swap_symmetry(z24_states):
    swap = bytes((0, 2, 1))
    for chi in z24_states[::101]:
        swapped = Coloring(chi.lattice, bytes(swap[c] for c in chi.colors), 3)
        assert is_proper(swapped)
        assert zero_set(swapped) == zero_set(chi)


def test_translation_negates_imbalance(z24_states):
    t = z24_states[0].lattice
    shift_map = t.shift_tables[1]
    for chi in z24_states:
        moved = bytearray(16)
        for v in range(t.nv):
            moved[shift_map[v]] = chi.colors[v]
        assert imbalance(Coloring(t, moved, 3)) == -imbalance(chi)


def test_satisfies_bc_examples():
    b = box(2, 1)
    chi = phase_coloring(b, Parity.ODD)   # 0 on odd, 1 on even
    assert satisfies_bc(chi, OddBoundaryZero())
    assert not satisfies_bc(chi, odd_boundary_pinned((0, 0)))
    m3 = mod3_coloring(b)
    assert not satisfies_bc(m3, OddBoundaryZero())
    with pytest.raises(BoundaryConditionError):
        satisfies_bc(phase_coloring(torus(2, 4)), OddBoundaryZero())


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2, 3) for n in (1, 2)])
def test_odd_boundary_zero_pins(d, n):
    # 0 on every odd vertex with a coordinate at ±n, and at the centre if any
    lat = box(d, n)
    points = list(itertools.product(range(-n, n + 1), repeat=d))
    odd_boundary = {lat.index(x): 0 for x in points if n in map(abs, x) and sum(x) % 2}
    assert OddBoundaryZero().pins(lat) == odd_boundary
    for center in points:
        assert OddBoundaryZero(center).pins(lat) == odd_boundary | {lat.index(center): 0}
    with pytest.raises(LatticeError):
        OddBoundaryZero((n + 1,) + (0,) * (d - 1)).pins(lat)


def test_odd_boundary_zero_centre_and_torus():
    b = box(2, 1)
    chi = phase_coloring(b, Parity.EVEN)   # 0 on even, 1 on odd
    # a list centre becomes a tuple, which the pin-map cache can hash
    assert odd_boundary_pinned([0, 0]) == OddBoundaryZero((0, 0))
    assert not satisfies_bc(chi, odd_boundary_pinned([0, 0]))
    assert satisfies_bc(phase_coloring(b, Parity.ODD), odd_boundary_pinned([1, 0]))
    for bc in (OddBoundaryZero(), odd_boundary_pinned((0, 0))):
        with pytest.raises(BoundaryConditionError):
            bc.pins(torus(2, 4))


def test_satisfies_bc_builds_each_pin_map_once(monkeypatch):
    calls = []
    real_pins = OddBoundaryZero.pins
    monkeypatch.setattr(OddBoundaryZero, "pins",
                        lambda self, lat: calls.append(lat) or real_pins(self, lat))
    coloring._pin_mask.cache_clear()
    b = box(2, 3)
    chis = [phase_coloring(b, Parity.ODD), mod3_coloring(b)]
    assert [satisfies_bc(chi, OddBoundaryZero()) for chi in chis * 3] == [True, False] * 3
    # box(2, 3) is one lattice, so a second call shares its pin mask
    assert satisfies_bc(phase_coloring(box(2, 3), Parity.ODD), OddBoundaryZero())
    assert calls == [b]
    # a caller's own pin map is a copy: emptying it leaves the shared one whole
    OddBoundaryZero().pins(b).clear()
    assert not satisfies_bc(mod3_coloring(b), OddBoundaryZero())


def test_pin_mask_is_cached_on_the_one_lattice_of_its_spec():
    coloring._pin_mask.cache_clear()
    bc = odd_boundary_pinned((1, 0))
    b = box(2, 3)
    assert satisfies_bc(phase_coloring(b, Parity.ODD), bc)
    spec_lat = build_lattice(LatticeSpec(LatticeKind.BOX, 2, 3))
    assert spec_lat is b
    assert satisfies_bc(phase_coloring(spec_lat, Parity.ODD), bc)
    info = coloring._pin_mask.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_zero_counts_consistency(z24_states):
    for chi in z24_states[::301]:
        ze, zo = zero_counts(chi)
        assert ze - zo == imbalance(chi)


@settings(max_examples=60, deadline=None)
@given(colors=st.binary(min_size=2, max_size=300))
def test_zero_mask_matches_its_vertex_loop(colors):
    assert _zero_mask(colors) == zero_mask_by_vertex(colors)
