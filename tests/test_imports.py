"""Lazy package exports, and the modules each CLI command loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lyapcum

EXPORTS = {
    # engine
    "DiagonalCumulant", "NoiseSpec", "ParameterMatrix", "SingularSystem", "UnstableMatrix",
    "random_omegas", "recover_noise", "recursive_residual", "sample_stable_matrix",
    "series_cumulant", "simulate_and_estimate", "solve_cumulant", "spectral_radius",
    # graphs
    "CyclicGraph", "DirectedGraph", "DisconnectedGraph", "StarClassification",
    "classify_star", "equitrek_graph",
    "implied_conditional_independence", "implied_marginal_independence",
    # identify
    "CumulantStack", "DegenerateDenominator", "HypothesisViolated", "IdentifiabilityReport",
    "SingularBlock", "auto_identify", "count_equations_vs_parameters",
    "identify_dag", "model_stack",
    # jacobian
    "ModifiedJacobian", "build_modified_jacobian", "local_identifiability_verdict",
    # tensors
    "DimensionMismatch", "SymmetricTensor", "k_mode_product", "tucker_product",
    # treks
    "PoleAtUnit", "base_trek_coefficient", "base_trek_cumulant",
    "effective_matrix", "placement_polynomial",
    # constraints
    "ModelInconsistency", "ToricMatrix", "integer_kernel", "kernel_binomial_values",
    "level_partition", "level_polynomial_checks", "rank_constraints_scan",
    "shortest_equitrek_top", "top_trek_polynomial_check", "toric_matrix", "tree_equivalence",
}


def test_exports_are_their_home_objects():
    assert set(lyapcum.__all__) == EXPORTS
    assert EXPORTS <= set(dir(lyapcum))
    for name in lyapcum.__all__:
        value = getattr(lyapcum, name)
        assert value.__module__.startswith("lyapcum.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import():
    namespace = {}
    exec("from lyapcum import *", namespace)
    assert EXPORTS <= set(namespace)


def test_unknown_name():
    with pytest.raises(AttributeError):
        lyapcum.check_placement_recursions
    with pytest.raises(ImportError):
        exec("from lyapcum import no_such_name", {})


# test-only oracles, now in tests/oracles.py, wrappers of graph properties, or
# internal to their module (equitrek_multisets: the support's bounded fallback)
# (offdiag_rank: build_modified_jacobian returns the block it cut out)
# (EquitrekGraph: DirectedGraph.equitrek_neighbors holds the graph as bitmasks)
RETIRED = ["Trek", "enumerate_equitreks", "equitrek_exists", "two_node_st_solutions",
           "enumerate_base_treks", "offdiag_rank", "identify_dag_all_loops",
           "identify_polytree", "equitrek_multisets", "EquitrekGraph"]


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name(name):
    assert name not in dir(lyapcum)
    with pytest.raises(AttributeError):
        getattr(lyapcum, name)
    with pytest.raises(ImportError):
        exec(f"from lyapcum import {name}", {})


# runs `main` in a fresh interpreter, then writes the loaded modules to argv[1]
PROBE = """
import json, sys
from lyapcum.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def loaded(tmp_path, *argv):
    out = tmp_path / "modules.json"
    src = str(Path(lyapcum.__file__).resolve().parent.parent)
    subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *argv],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, check=True, capture_output=True,
    )
    result = json.loads(out.read_text())
    return result["code"], set(result["modules"])


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["cumulants", "--orders"], 2),
        (["ppoly", "--xmax", "6", "--ymax", "6", "--out", "ppoly.csv"], 0),
    ],
    ids=["version", "help", "argparse-error", "ppoly"],
)
def test_light_paths_skip_numpy(tmp_path, argv, code):
    got, modules = loaded(tmp_path, *argv)
    assert got == code
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("lyapcum.")} <= {"lyapcum.cli", "lyapcum.treks"}


def test_cumulants_loads_only_its_modules(tmp_path):
    (tmp_path / "g.json").write_text(json.dumps({"p": 2, "edges": [[0, 0], [0, 1]]}))
    code, modules = loaded(tmp_path, "cumulants", "--graph", "g.json", "--out", "c.json")
    assert code == 0
    assert {"lyapcum.engine", "lyapcum.graphs", "lyapcum.tensors"} <= modules
    assert not modules & {"lyapcum.jacobian", "lyapcum.constraints", "lyapcum.treks"}


def test_graphs_without_numpy(tmp_path):
    src = str(Path(lyapcum.__file__).resolve().parent.parent)
    probe = "import sys, lyapcum.graphs; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, check=True, capture_output=True, text=True,
    )
    assert out.stdout.strip() == "False"
