"""Discrete Lyapunov models: steady-state cumulants of VAR(1) processes on graphs.

The public names below are imported from their home module on first access
(PEP 562), so ``import lyapcum`` loads neither numpy nor any submodule, and
``lyapcum.cli`` loads per subcommand only the modules it runs.
"""

import importlib

__version__ = "0.1.0"
# rho(A) must stay below 1 - STABILITY_MARGIN to certify stability (here, numpy-free, for the CLI)
STABILITY_MARGIN = 1e-9

_EXPORTS = {
    "engine": """DiagonalCumulant NoiseSpec ParameterMatrix SingularSystem UnstableMatrix
        random_omegas recover_noise recursive_residual sample_stable_matrix
        series_cumulant simulate_and_estimate solve_cumulant spectral_radius""",
    "graphs": """CyclicGraph DirectedGraph DisconnectedGraph StarClassification
        classify_star equitrek_graph
        implied_conditional_independence implied_marginal_independence""",
    "identify": """CumulantStack DegenerateDenominator HypothesisViolated
        IdentifiabilityReport SingularBlock auto_identify count_equations_vs_parameters
        identify_dag model_stack""",
    "jacobian": "ModifiedJacobian build_modified_jacobian local_identifiability_verdict",
    "tensors": "DimensionMismatch SymmetricTensor k_mode_product tucker_product",
    "treks": """PoleAtUnit base_trek_coefficient base_trek_cumulant
        effective_matrix placement_polynomial""",
    "constraints": """ModelInconsistency ToricMatrix integer_kernel kernel_binomial_values
        level_partition level_polynomial_checks rank_constraints_scan
        shortest_equitrek_top top_trek_polynomial_check toric_matrix tree_equivalence""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as ``lyapcum.engine`` after ``import lyapcum``
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
