"""Toolkit for degree sequence realizations with a forbidden star plus matching.

Construct realizations greedily, walk the space with 4-cycle and 6-cycle
switch moves, audit the canonical-path bookkeeping behind the mixing
guarantee, and count realizations exactly or by sampling.
"""

from .core import (
    ProblemInstance,
    Realization,
    adjacency_matrix,
    bipartite_instance,
    from_directed,
    general_instance,
    instance_to_json,
    make_realization,
    to_directed,
    validate_instance,
)
from .construct import greedy_construct, neighbor_order, repair_swap
from .swaps import (
    ChordCircuit,
    alternating_circuits,
    apply_circuit,
    check_alternating,
    decompose_symmetric_difference,
    is_f_compatible,
    make_circuit,
    max_alternating_circuit_count,
    swap_distance,
)
from .chain import (
    KernelReport,
    exact_kernel,
    jump_probability,
    run_chain,
)
from .oracle import (
    RealizationGraph,
    build_realization_graph,
    enumerate_all,
    enumerate_fswaps,
    uniformity_test,
)
from .paths import (
    PathReport,
    audit_bad_positions,
    audit_pairs,
    auxiliary_matrix,
    canonical_path,
    milestones,
    ordered_cycle_decomposition,
    state_stack,
    sweep_cycle,
    switch_repair,
    verify_theta_omega,
)
from .counting import (
    CountReport,
    approx_count,
    branch_split,
    exact_count,
    retire_exhausted_centers,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
