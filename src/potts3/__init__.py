"""Zero-temperature 3-state antiferromagnetic Potts toolkit: proper-coloring
dynamics on boxes and even tori, Peierls cutset machinery, exact mixing and
conductance analysis, and entropy estimation.  The root re-exports nothing:
import a name from its module, e.g. ``from potts3.oracle import count_colorings``."""

__version__ = "0.1.0"
