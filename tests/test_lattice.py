from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from potts3 import cutset
from potts3.coloring import Coloring
from potts3.cutset import Cutset, verify_properties
from potts3.errors import LatticeError
from potts3.lattice import (
    Lattice,
    LatticeKind,
    LatticeSpec,
    Parity,
    box,
    build_lattice,
    closure,
    connected_components,
    edge_boundary,
    external_boundary,
    internal_boundary,
    iter_bits,
    shift_order,
    torus,
)

from claims import (
    closure_by_vertex,
    closure_properties_by_vertex,
    components_by_search,
    dilate_by_vertex,
    external_boundary_by_vertex,
    internal_boundary_by_vertex,
    shift_set_by_vertex,
)


def test_torus_regularity():
    lat = torus(2, 4)
    assert lat.nv == 16
    assert all(len(lat.neighbors[v]) == 4 for v in range(lat.nv))


def test_box_corner_degree():
    lat = box(2, 1)
    assert lat.nv == 9
    assert len(lat.neighbors[lat.index((1, 1))]) == 2
    assert len(lat.neighbors[lat.index((0, 0))]) == 4


def test_odd_torus_rejected():
    with pytest.raises(LatticeError):
        build_lattice(LatticeSpec(LatticeKind.TORUS, 2, 3))
    with pytest.raises(LatticeError):
        build_lattice(LatticeSpec(LatticeKind.BOX, 0, 1))


def test_parity_examples():
    lat = box(2, 1)
    assert Parity(lat.parities[lat.index((0, 0))]) is Parity.EVEN
    t = torus(2, 4)
    assert Parity(t.parities[t.index((1, 0))]) is Parity.ODD
    for u, v in t.edges:
        assert t.parities[u] != t.parities[v]


def test_shift_wraparound_and_box_exit():
    t = torus(2, 4)
    assert t.shift(t.index((3, 0)), 1) == t.index((0, 0))
    b = box(2, 1)
    assert b.shift(b.index((0, -1)), -2) is None


def test_shift_inverse_where_defined():
    b = box(2, 2)
    for s in shift_order(2):
        for v in range(b.nv):
            w = b.shift(v, s)
            if w is not None:
                assert b.shift(w, -s) == v


def test_shift_bijection_on_torus():
    t = torus(3, 4)
    for s in shift_order(3):
        images = {t.shift(v, s) for v in range(t.nv)}
        assert images == set(range(t.nv))


def test_boundary_operators_star():
    t = torus(2, 4)
    v = 1 << t.index((1, 1))
    assert len(edge_boundary(t, v)) == 4
    assert internal_boundary(t, v) == v
    assert external_boundary(t, v).bit_count() == 4
    assert closure(t, v).bit_count() == 5


def test_boundary_operators_full_set():
    t = torus(2, 4)
    assert edge_boundary(t, t.full_mask) == []
    assert internal_boundary(t, t.full_mask) == 0
    assert external_boundary(t, t.full_mask) == 0


def test_boundary_two_by_two_block():
    t = torus(2, 4)
    block = sum(1 << t.index(c) for c in [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert len(edge_boundary(t, block)) == 8


def test_component_of_closed_star():
    t = torus(2, 4)
    m = closure(t, 1 << t.index((0, 0)))
    comps = connected_components(t, m)
    assert len(comps) == 1 and comps[0].bit_count() == 5


def test_components_empty_and_separated():
    b = box(2, 1)
    assert connected_components(b, 0) == []
    m = (1 << b.index((-1, -1))) | (1 << b.index((1, 1)))
    comps = connected_components(b, m)
    assert len(comps) == 2
    assert all(c.bit_count() == 1 for c in comps)


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_boundary_identities(bits):
    t = torus(2, 4)
    x = bits & t.full_mask
    nabla = edge_boundary(t, x)
    intb = internal_boundary(t, x)
    # |∇(X)| = Σ_{v∈∂_int X} |∂v ∖ X|
    assert len(nabla) == sum((t.nbr_mask[v] & ~x).bit_count() for v in iter_bits(intb))
    # ∂_int(V∖X) = ∂_ext X
    assert internal_boundary(t, t.full_mask & ~x) == external_boundary(t, x)


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 9) - 1))
def test_box_injective_shift(bits):
    b = box(2, 1)
    x = bits & b.full_mask
    for s in shift_order(2):
        images = [b.shift(v, s) for v in iter_bits(x)]
        defined = [w for w in images if w is not None]
        assert len(defined) == len(set(defined))


def test_extended_region_vertex_count():
    # W_1: the 3x3 box plus the odd vertices of the 5x5 box that lie outside it
    inner, outer = box(2, 1), box(2, 2)
    odd_rim = {outer.coords[v] for v in iter_bits(outer.boundary_mask & outer.odd_mask)}
    w1 = set(inner.coords) | odd_rim
    assert len(w1) == 9 + (12 - 4)
    assert w1 == {c for c in outer.coords if max(map(abs, c)) <= 1 or sum(c) % 2 == 1}


def test_degenerate_small_torus_simple_graph():
    k2 = torus(1, 2)
    assert k2.nv == 2 and k2.neighbors[0] == [1]
    q2 = torus(2, 2)
    assert all(len(q2.neighbors[v]) == 2 for v in range(4))


def test_box_degree_range():
    for d, n in ((2, 2), (3, 1)):
        b = box(d, n)
        degs = {len(b.neighbors[v]) for v in range(b.nv)}
        assert min(degs) == d and max(degs) == 2 * d


SHIFT_LATTICES = [
    box(2, 2), box(3, 1),
    torus(1, 2), torus(2, 2), torus(2, 4), torus(3, 4),
]


def _shift_by_coordinates(lat, c, s):
    """σ_s by coordinate arithmetic: wrap on tori; on a box, None unless
    c + e_s is in Λ_n."""
    cc = list(c)
    cc[abs(s) - 1] += 1 if s > 0 else -1
    if lat.kind is LatticeKind.TORUS:
        cc = [x % lat.n for x in cc]
    elif max(map(abs, cc)) > lat.n:
        return None
    return lat.index(cc)


@pytest.mark.parametrize("lat", SHIFT_LATTICES, ids=repr)
def test_shift_tables_match_coordinate_arithmetic(lat):
    for s in shift_order(lat.d):
        for v, c in enumerate(lat.coords):
            w = _shift_by_coordinates(lat, c, s)
            assert lat.shift_tables[s][v] == w == lat.shift(v, s)
            if w is not None:
                assert lat.shift(w, -s) == v
            assert lat.shift_set(1 << v, s) == (0 if w is None else 1 << w)
    # neighbors are the distinct defined shifts; n = 2 tori collapse the
    # two wrap edges into one
    for v, c in enumerate(lat.coords):
        expect = {_shift_by_coordinates(lat, c, s) for s in shift_order(lat.d)} - {None}
        assert lat.neighbors[v] == sorted(expect)
    if lat.kind is LatticeKind.TORUS and lat.n == 2:
        assert all(len(lat.neighbors[v]) == lat.d for v in range(lat.nv))


@pytest.mark.parametrize("lat", SHIFT_LATTICES, ids=repr)
def test_shift_rejects_bad_directions(lat):
    for s in (0, lat.d + 1, -(lat.d + 1), 1.0):
        with pytest.raises(LatticeError):
            lat.shift(0, s)
        with pytest.raises(LatticeError):
            lat.shift_set(1, s)


def test_one_lattice_per_spec_builds_its_automorphisms_once(monkeypatch):
    assert box(2, 3) is box(2, 3)
    assert torus(2, 4) is build_lattice(LatticeSpec(LatticeKind.TORUS, 2, 4))
    autos = torus(2, 4).vertex_automorphisms()
    builds = []
    monkeypatch.setattr(Lattice, "_build_automorphisms", lambda self: builds.append(self))
    assert torus(2, 4).vertex_automorphisms() is autos and len(autos) == 128
    assert builds == []


@pytest.mark.parametrize("kind,d,n", [
    ("torus", 2, 4), (LatticeKind.BOX, 2, 2.0), (LatticeKind.BOX, True, 2),
    (LatticeKind.TORUS, 2.0, 4), (LatticeKind.TORUS, 2, True),
])
def test_spec_refuses_fields_of_the_wrong_type(kind, d, n):
    with pytest.raises(LatticeError):
        LatticeSpec(kind, d, n)


def test_float_side_is_refused_before_and_after_its_int_lattice():
    # (BOX, 2, 2.0) hashes and compares equal to (BOX, 2, 2): only the spec's
    # own check keeps build_lattice from handing back box(2, 2); a fresh
    # interpreter, where box(2, 2) is not yet built
    probe = """
from potts3.errors import LatticeError
from potts3.lattice import box
for _ in range(2):
    try:
        box(2, 2.0)
    except LatticeError:
        pass
    else:
        raise SystemExit("box(2, 2.0) built a lattice")
    box(2, 2)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env=dict(os.environ, PYTHONPATH=str(src)))


MASK_LATTICES = [
    box(1, 3), box(2, 1), box(2, 2), box(2, 3), box(3, 2),
    torus(1, 2), torus(1, 4), torus(1, 6), torus(2, 2), torus(2, 4), torus(2, 6),
    torus(3, 4), torus(4, 2),
]


@pytest.mark.parametrize("lat", MASK_LATTICES, ids=repr)
@settings(max_examples=40, deadline=None)
@given(bits=st.integers(0, (1 << 125) - 1), zero_bits=st.integers(0, (1 << 125) - 1),
       parity=st.sampled_from(Parity))
def test_whole_mask_helpers_match_their_vertex_loops(lat, bits, zero_bits, parity):
    # the σ_s offset groups against the shift tables, vertex by vertex; on
    # tori each direction has a wrap group, which a random mask crosses
    x = bits & lat.full_mask
    for s in shift_order(lat.d):
        assert lat.shift_set(x, s) == shift_set_by_vertex(lat, x, s)
    assert lat.dilate(x) == dilate_by_vertex(lat, x)
    assert external_boundary(lat, x) == external_boundary_by_vertex(lat, x)
    assert internal_boundary(lat, x) == internal_boundary_by_vertex(lat, x)
    assert closure(lat, x) == closure_by_vertex(lat, x)
    assert connected_components(lat, x) == components_by_search(lat, x)
    # P4 and P5: verify_properties reads zero_set(χ) alone for them, so it is
    # handed a mask.  Beside the random region, W = hull ∪ ∂_ext(x^seed)
    # satisfies P5 by construction, and zeros ⊇ seed makes P4 likely
    seed = lat.even_mask if parity is Parity.EVEN else lat.odd_mask
    rim = external_boundary_by_vertex(lat, x & seed)
    hull = seed & ~dilate_by_vertex(lat, lat.full_mask & ~rim)
    chi = Coloring(lat, bytes(lat.nv))
    for region in (x, hull | rim):
        for zeros in (zero_bits & lat.full_mask, seed):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cutset, "zero_set", lambda _chi: zeros)
                rep = verify_properties(Cutset(lat, region, parity, 0), chi)
            assert (rep.p4_interior_zero_support, rep.p5_region_closure) == \
                closure_properties_by_vertex(lat, region, seed, zeros)
