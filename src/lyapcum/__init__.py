"""Discrete Lyapunov models: steady-state cumulants of VAR(1) processes on graphs."""

__version__ = "0.1.0"

from .engine import (
    DiagonalCumulant,
    NoiseSpec,
    ParameterMatrix,
    SingularSystem,
    UnstableMatrix,
    random_omegas,
    recover_noise,
    recursive_residual,
    sample_stable_matrix,
    series_cumulant,
    simulate_and_estimate,
    solve_cumulant,
    spectral_radius,
)
from .graphs import (
    CyclicGraph,
    DirectedGraph,
    DisconnectedGraph,
    EquitrekGraph,
    StarClassification,
    Trek,
    classify_star,
    enumerate_equitreks,
    equitrek_exists,
    equitrek_graph,
    equitrek_multisets,
    implied_conditional_independence,
    implied_marginal_independence,
)
from .identify import (
    CumulantStack,
    DegenerateDenominator,
    HypothesisViolated,
    IdentifiabilityReport,
    SingularBlock,
    auto_identify,
    count_equations_vs_parameters,
    identify_dag_all_loops,
    identify_polytree,
    identify_two_node,
    model_stack,
    two_node_st_solutions,
)
from .jacobian import (
    ModifiedJacobian,
    build_modified_jacobian,
    jacobian_entry_order2,
    jacobian_entry_order3,
    local_identifiability_verdict,
    offdiag_rank,
)
from .tensors import DimensionMismatch, SymmetricTensor, k_mode_product, tucker_product
from .treks import (
    PoleAtUnit,
    UnstableEffective,
    base_trek_coefficient,
    base_trek_cumulant,
    check_placement_recursions,
    effective_matrix,
    enumerate_base_treks,
    placement_polynomial,
)
from .constraints import (
    ModelInconsistency,
    ToricMatrix,
    integer_kernel,
    kernel_binomial_values,
    level_partition,
    level_polynomial_checks,
    rank_constraints_scan,
    shortest_equitrek_top,
    top_trek_polynomial_check,
    toric_matrix,
    tree_equivalence,
)
