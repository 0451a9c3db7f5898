"""Shared fixtures: enumerated state spaces reused across test modules."""

from __future__ import annotations

import pytest

from potts3.coloring import odd_boundary_pinned
from potts3.lattice import box, torus
from potts3.oracle import enumerate_colorings


@pytest.fixture(scope="session")
def z24():
    return torus(2, 4)


@pytest.fixture(scope="session")
def z24_states(z24):
    return list(enumerate_colorings(z24, 3))


@pytest.fixture(scope="session")
def box22():
    return box(2, 2)


@pytest.fixture(scope="session")
def box_corpus(box22):
    """Exhaustive C_3^O(v0) for the d=2, n=2 box with v0 at the origin."""
    return list(enumerate_colorings(box22, 3, odd_boundary_pinned((0, 0))))
