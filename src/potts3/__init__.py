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
    BoundaryCondition,
    Coloring,
    Composite,
    DEFAULT_RHO,
    ImbalanceClass,
    OddBoundaryZero,
    PinnedVertex,
    classify,
    imbalance,
    is_proper,
    mod3_coloring,
    odd_boundary_pinned,
    phase_coloring,
    satisfies_bc,
    zero_set,
)
from .cutset import (
    Cutset,
    FamilyResult,
    Profile,
    SeedParity,
    build_box_cutset,
    build_torus_cutsets,
    minimality_check,
    profile_membership,
    select_family,
    verify_properties,
)
from .peierls import (
    Approximation,
    GoodTriple,
    boundary_layer,
    bound_report,
    canonical_good_triple,
    exact_approximation,
    flow_out_total,
    flow_weight,
    is_approximation,
    is_good_triple,
    phi_family,
    q_sets,
    reconstruct,
    sample_phi,
    select_direction,
    shift_coloring,
)
from .dynamics import (
    ChainSpec,
    CounterRng,
    Trajectory,
    crossing_blocked_check,
    hamming,
    rho_locality_check,
    run_chain,
)
from .oracle import (
    BipartiteGraph,
    ExactTransitionMatrix,
    conductance_bound,
    count_colorings,
    enumerate_colorings,
    influence_ratio,
    lcol_check,
    orbit_representatives,
    transition_matrix,
    tv_mixing_time,
)
from .entropy import (
    binary_entropy,
    extendable_colorings,
    max_entropy_gap_check,
    restriction_distribution,
    shannon_entropy,
    topological_entropy_estimate,
)
