"""Zero-temperature 3-state antiferromagnetic Potts toolkit: proper-coloring
dynamics on boxes and even tori, Peierls cutset machinery, exact mixing and
conductance analysis, and entropy estimation."""

__version__ = "0.1.0"

from .lattice import (
    Lattice,
    LatticeKind,
    LatticeSpec,
    Parity,
    box,
    build_lattice,
    connected_components,
    shift_order,
    torus,
)
from .coloring import (
    Coloring,
    DEFAULT_RHO,
    ImbalanceClass,
    OddBoundaryZero,
    classify,
    imbalance,
    is_proper,
    odd_boundary_pinned,
    phase_coloring,
    satisfies_bc,
    zero_set,
)
from .cutset import (
    Cutset,
    FamilyResult,
    build_box_cutset,
    select_family,
    verify_properties,
)
from .peierls import (
    Approximation,
    GoodTriple,
    boundary_layer,
    bound_report,
    exact_approximation,
    flow_out_total,
    is_good_triple,
    phi_family,
    q_sets,
    reconstruct,
)
from .dynamics import (
    ChainSpec,
    CounterRng,
    Trajectory,
    run_chain,
)
from .oracle import (
    ExactTransitionMatrix,
    conductance_bound,
    count_colorings,
    enumerate_colorings,
    influence_ratio,
    orbit_representatives,
    transition_matrix,
    tv_mixing_time,
)
from .entropy import (
    extendable_colorings,
    max_entropy_gap_check,
    restriction_distribution,
    shannon_entropy,
    topological_entropy_estimate,
)
