"""Exception types shared across the package."""


class LatticeError(ValueError):
    """Invalid lattice geometry (bad dimension, odd torus side, ...)."""


class ColoringError(ValueError):
    """A coloring violates a precondition (improper, wrong lattice, ...)."""


class BoundaryConditionError(ValueError):
    """A boundary condition is inapplicable to the given lattice."""


class CapExceeded(RuntimeError):
    """A configured enumeration/state/iteration cap was hit."""


class PropertyViolation(AssertionError):
    """A structural property the construction guarantees failed to hold."""
