import copy
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lyapcum
from lyapcum import (
    DirectedGraph,
    SymmetricTensor,
    __version__,
    model_stack,
    random_omegas,
    sample_stable_matrix,
)
from lyapcum.cli import _load_stack, build_parser, main


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def fig1_graph(tmp_path):
    return write_json(
        tmp_path / "fig1.json", {"p": 2, "edges": [[0, 0], [0, 1]]}
    )


@pytest.fixture
def fig1_params(tmp_path):
    return write_json(
        tmp_path / "params.json",
        {
            "A": [[0.5, 0.0], [1.0, 0.0]],
            "omega": {"2": [1.0, 1.0], "3": [1.0, 1.0], "4": [1.0, 1.0]},
        },
    )


class TestCumulants:
    def test_two_node_dump(self, tmp_path, fig1_graph, fig1_params):
        out = tmp_path / "dump.json"
        code = main(
            [
                "cumulants",
                "--graph", fig1_graph,
                "--params", fig1_params,
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == __version__
        assert doc["tensors"]["2"]["entries"]["0,1"] == pytest.approx(2 / 3)
        assert all(v <= 1e-12 for v in doc["recursive_residuals"].values())

    def test_zero_matrix_dump_equals_noise(self, tmp_path, fig1_graph):
        params = write_json(
            tmp_path / "zero.json",
            {
                "A": [[0.0, 0.0], [0.0, 0.0]],
                "omega": {"2": [1.0, 2.0], "3": [0.5, -0.5], "4": [1.0, 1.0]},
            },
        )
        out = tmp_path / "dump.json"
        assert main(["cumulants", "--graph", fig1_graph, "--params", params, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["tensors"]["2"]["entries"]["0,0"] == 1.0
        assert doc["tensors"]["2"]["entries"]["0,1"] == 0.0
        assert doc["tensors"]["3"]["entries"]["1,1,1"] == -0.5

    def test_unstable_exits_3(self, tmp_path, fig1_graph):
        params = write_json(
            tmp_path / "bad.json",
            {
                "A": [[1.5, 0.0], [1.0, 0.0]],
                "omega": {"2": [1.0, 1.0], "3": [1.0, 1.0], "4": [1.0, 1.0]},
            },
        )
        assert main(["cumulants", "--graph", fig1_graph, "--params", params, "--out", str(tmp_path / "x.json")]) == 3

    def test_malformed_graph_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["cumulants", "--graph", str(bad), "--out", str(tmp_path / "x.json")]) == 2

    def test_csv_format(self, tmp_path, fig1_graph, fig1_params):
        out = tmp_path / "s.csv"
        assert main(["cumulants", "--graph", fig1_graph, "--params", fig1_params, "--format", "csv", "--out", str(out)]) == 0
        first_row = out.read_text().splitlines()[0].split(",")
        assert float(first_row[0]) == pytest.approx(4 / 3)

    def test_deterministic_bytes(self, tmp_path, fig1_graph):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["cumulants", "--graph", fig1_graph, "--seed", "9", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestIdentify:
    def test_tree_round_trip(self, tmp_path):
        graph = write_json(
            tmp_path / "tree.json",
            {"p": 4, "edges": [[0, 0], [0, 1], [1, 2], [1, 3]]},
        )
        stack = tmp_path / "stack.json"
        main(["cumulants", "--graph", graph, "--seed", "5", "--out", str(stack)])
        out = tmp_path / "report.json"
        code = main(["identify", "--graph", graph, "--stack", str(stack), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["verdict"] == "recovered"
        assert max(doc["report"]["forward_residuals"].values()) <= 1e-8

    def test_bare_two_cycle_exits_4_with_diagnostic(self, tmp_path):
        graph = write_json(
            tmp_path / "cycle.json", {"p": 2, "edges": [[0, 1], [1, 0]]}
        )
        params = write_json(
            tmp_path / "p.json",
            {
                "A": [[0.0, 0.6], [0.7, 0.0]],
                "omega": {"2": [1.0, 1.0], "3": [1.0, 1.0], "4": [1.0, 1.0]},
            },
        )
        stack = tmp_path / "stack.json"
        main(["cumulants", "--graph", graph, "--params", params, "--out", str(stack)])
        out = tmp_path / "report.json"
        code = main(["identify", "--graph", graph, "--stack", str(stack), "--out", str(out)])
        assert code == 4
        doc = json.loads(out.read_text())
        assert not doc["equation_count"]["bound_satisfied"]
        assert doc["equation_count"]["params"] == 2 + 2 * 3
        assert doc["equation_count"]["equations"] == 6

    def test_malformed_stack_exits_2(self, tmp_path, fig1_graph):
        stack = tmp_path / "stack.json"
        stack.write_text('{"tensors": {"2": {"oops": 1}}}')
        assert main(["identify", "--graph", fig1_graph, "--stack", str(stack), "--out", "-"]) == 2


# one row per malformed input, files under {d}: (arguments, exit code); each
# must exit with that code and one message line, no traceback
BAD_INPUTS = {
    "radius-above-one": ("cumulants --graph {d}/g2.json --radius 1.5", 2),
    "zero-trials": ("analyze --graph {d}/g2.json --trials 0", 2),
    "short-omega": ("cumulants --graph {d}/g2.json --params {d}/short-omega.json", 2),
    "stack-missing-entry": ("identify --graph {d}/g2.json --stack {d}/missing.json", 2),
    "stack-nonfinite-entry": ("identify --graph {d}/g2.json --stack {d}/nan.json", 2),
    "stack-duplicate-multiset": ("identify --graph {d}/g2.json --stack {d}/dup.json", 2),
    "stack-p-mismatch": ("identify --graph {d}/g3.json --stack {d}/stack.json", 2),
    "stack-not-an-object": ("identify --graph {d}/g2.json --stack {d}/list.json", 2),
    "graph-edges-not-a-list": ("cumulants --graph {d}/edges5.json", 2),
    "negative-seed": ("cumulants --graph {d}/g2.json --seed -1", 2),
    "negative-xmax": ("ppoly --xmax -2", 2),
    "negative-ymax": ("ppoly --ymax -1", 2),
    "csv-without-order-2": ("cumulants --graph {d}/g2.json --format csv --orders 3,4", 2),
    "nan-tol": ("identify --graph {d}/g2.json --stack {d}/stack.json --tol nan", 2),
    "inf-tol": ("identify --graph {d}/g2.json --stack {d}/stack.json --tol inf", 2),
    "zero-tol": ("identify --graph {d}/g2.json --stack {d}/stack.json --tol 0", 2),
    "negative-tol": ("identify --graph {d}/g2.json --stack {d}/stack.json --tol -0.5", 2),
    # options a subcommand does not read are argparse errors
    "threads": ("cumulants --graph {d}/g2.json --threads 2", 2),
    "identify-format": ("identify --graph {d}/g2.json --stack {d}/stack.json --format csv", 2),
    "analyze-orders": ("analyze --graph {d}/g2.json --orders 2,3", 2),
    "cumulants-tol": ("cumulants --graph {d}/g2.json --tol 1e-6", 2),
    "zero-max-subset": ("analyze --graph {d}/g2.json --max-subset 0", 2),
    "negative-max-subset": ("analyze --graph {d}/g2.json --max-subset -3", 2),
    # --params replaces the seeded draw, so the draw's options are rejected with it
    "params-with-seed": ("cumulants --graph {d}/g2.json --params {d}/params.json --seed 1", 2),
    "params-with-radius": (
        "cumulants --graph {d}/g2.json --params {d}/params.json --radius 0.5", 2
    ),
    # stable (radius 0.5) but the cumulants overflow: SingularSystem
    "overflowing-solve": ("cumulants --graph {d}/g2.json --params {d}/huge.json", 3),
    # non-finite parameters, refused before the stability check or the solve
    "params-nan-a": ("cumulants --graph {d}/g2.json --params {d}/nan-a.json", 2),
    "params-inf-omega": ("cumulants --graph {d}/g2.json --params {d}/inf-omega.json", 2),
}


@pytest.fixture(scope="module")
def bad_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bad")
    write_json(d / "g2.json", {"p": 2, "edges": [[0, 0], [0, 1]]})
    write_json(d / "g3.json", {"p": 3, "edges": [[0, 0], [0, 1], [1, 2]]})
    write_json(d / "edges5.json", {"p": 2, "edges": 5})
    write_json(
        d / "short-omega.json",
        {"A": [[0.5, 0.0], [1.0, 0.0]], "omega": {"2": [1.0], "3": [1.0, 1.0], "4": [1.0, 1.0]}},
    )
    write_json(
        d / "params.json",
        {"A": [[0.5, 0.0], [1.0, 0.0]], "omega": {"2": [1.0, 1.0], "3": [1.0, 1.0], "4": [1.0, 1.0]}},
    )
    write_json(
        d / "huge.json",
        {"A": [[0.5, 0.0], [1e200, 0.0]], "omega": {"2": [1.0, 1.0], "3": [1.0, 1.0], "4": [1.0, 1.0]}},
    )
    write_json(
        d / "nan-a.json",
        {"A": [[float("nan"), 0.0], [1.0, 0.0]], "omega": {"2": [1.0, 1.0], "3": [1.0, 1.0], "4": [1.0, 1.0]}},
    )
    write_json(
        d / "inf-omega.json",
        {"A": [[0.5, 0.0], [1.0, 0.0]], "omega": {"2": [1.0, float("inf")], "3": [1.0, 1.0], "4": [1.0, 1.0]}},
    )
    write_json(d / "list.json", [1, 2])
    assert main(["cumulants", "--graph", str(d / "g2.json"), "--out", str(d / "stack.json")]) == 0
    good = json.loads((d / "stack.json").read_text())
    missing = copy.deepcopy(good)
    del missing["tensors"]["3"]["entries"]["0,1,1"]
    write_json(d / "missing.json", missing)
    nonfinite = copy.deepcopy(good)
    nonfinite["tensors"]["2"]["entries"]["0,1"] = float("nan")
    write_json(d / "nan.json", nonfinite)
    duplicate = copy.deepcopy(good)
    duplicate["tensors"]["2"]["entries"]["1,0"] = 5.0  # second spelling of "0,1"
    write_json(d / "dup.json", duplicate)
    return d


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2(bad_dir, tmp_path, capsys, case):
    command, expected = BAD_INPUTS[case]
    out = tmp_path / "out.json"
    argv = [tok.format(d=bad_dir) for tok in command.split()] + ["--out", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    assert "error" in err.strip().splitlines()[-1]
    assert not out.exists()


# graph and stack JSON with a float or a bool where an integer is read:
# (graph text, or (tensor, field, value) replaced in the good stack)
NON_INTEGER_JSON = {
    "graph-p-overflows": '{"p": 1e400, "edges": []}',
    "graph-p-fraction": '{"p": 2.7, "edges": [[0, 0], [0, 1]]}',
    "graph-p-bool": '{"p": true, "edges": [[0, 0]]}',
    "graph-edge-fraction": '{"p": 2, "edges": [[0, 0], [0, 1.5]]}',
    "stack-order-infinite": ("4", "order", float("inf")),
    "stack-order-float": ("3", "order", 3.0),
    "stack-p-bool": ("2", "p", True),
}


@pytest.mark.parametrize("case", list(NON_INTEGER_JSON))
def test_non_integer_json_exits_2(bad_dir, tmp_path, capsys, case):
    spec = NON_INTEGER_JSON[case]
    path = tmp_path / "bad.json"
    if isinstance(spec, str):
        path.write_text(spec)
        with pytest.raises(ValueError, match="must be a JSON integer"):
            DirectedGraph.from_json_dict(json.loads(spec))
        argv = ["cumulants", "--graph", str(path), "--seed", "1"]
    else:
        tensor, field, value = spec
        doc = json.loads((bad_dir / "stack.json").read_text())
        doc["tensors"][tensor][field] = value
        write_json(path, doc)
        with pytest.raises(ValueError, match="must be a JSON integer"):
            SymmetricTensor.from_json_dict(doc["tensors"][tensor])
        argv = ["identify", "--graph", str(bad_dir / "g2.json"), "--stack", str(path)]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "must be a JSON integer" in err
    assert "Traceback" not in err
    assert not out.exists()


JSON_SCALARS = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 2.7, 2.0, True, False, None]),
    st.integers(-2, 4),
    st.floats(),
    st.text(max_size=3),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), JSON_SCALARS, max_size=3),
)


@st.composite
def malformed_inputs(draw):
    """A graph file, or a stack file, with one field of a good document replaced."""
    if draw(st.booleans()):
        doc = {"p": 2, "edges": [[0, 0], [0, 1]]}
        field = draw(st.sampled_from(["p", "edges", "edge", "document"]))
        if field == "edge":
            doc["edges"][1] = draw(st.lists(JSON_SCALARS, max_size=3))
        elif field == "document":
            doc = draw(JSON_VALUES)
        else:
            doc[field] = draw(JSON_VALUES)
        return "graph", doc
    tensor = draw(st.sampled_from(["2", "3", "4"]))
    field = draw(st.sampled_from(["order", "p", "entries", "entry", "tensor"]))
    return "stack", (tensor, field, draw(JSON_VALUES))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(malformed_inputs())
def test_malformed_json_never_raises(bad_dir, kind_and_doc):
    # whatever the loaders are fed, main answers with an exit code
    kind, doc = kind_and_doc
    path = bad_dir / "fuzz.json"
    if kind == "graph":
        argv = ["cumulants", "--graph", write_json(path, doc), "--seed", "1", "--orders", "2,3"]
    else:
        tensor, field, value = doc
        doc = json.loads((bad_dir / "stack.json").read_text())
        if field == "tensor":
            doc["tensors"][tensor] = value
        elif field == "entry":
            doc["tensors"][tensor]["entries"]["0,1" + ",1" * (int(tensor) - 2)] = value
        else:
            doc["tensors"][tensor][field] = value
        argv = ["identify", "--graph", str(bad_dir / "g2.json"), "--stack", write_json(path, doc)]
    assert main(argv + ["--out", str(bad_dir / "fuzz-out.json")]) in (0, 2, 3, 4)


def test_config_is_the_parsed_options(tmp_path, fig1_graph):
    # an option that changes the report changes its config, and the config is
    # every parsed option except the output path
    runs = {
        "cumulants": (["--radius", "0.5"], ["--radius", "0.6"]),
        "analyze": (["--trials", "2", "--max-subset", "1"], ["--trials", "2", "--max-subset", "2"]),
    }
    for command, variants in runs.items():
        configs = []
        for k, extra in enumerate(variants):
            out = tmp_path / f"{command}{k}.json"
            argv = [command, "--graph", fig1_graph, "--seed", "1", *extra, "--out", str(out)]
            assert main(argv) == 0
            config = json.loads(out.read_text())["config"]
            parsed = vars(build_parser().parse_args(argv))
            assert config == {key: v for key, v in parsed.items() if key not in ("func", "out")}
            configs.append(config)
        assert configs[0] != configs[1]


@pytest.fixture(scope="module")
def stack_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("stacks")


@st.composite
def seeded_graphs(draw):
    p = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(p) for j in range(p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return DirectedGraph(p, edges), draw(st.integers(0, 10_000))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeded_graphs())
def test_stack_json_round_trip(stack_dir, graph_and_seed):
    # the stack `cumulants` writes reads back bit for bit as the library's
    # model_stack on the same seeded draws
    g, seed = graph_and_seed
    graph = write_json(stack_dir / "g.json", g.to_json_dict())
    out = stack_dir / "stack.json"
    assert main(["cumulants", "--graph", graph, "--seed", str(seed), "--orders", "2,3,4",
                 "--out", str(out)]) == 0
    loaded = _load_stack(str(out))
    pm = sample_stable_matrix(g, seed=seed)
    expected = model_stack(pm, random_omegas(np.random.default_rng(seed + 1), g.p, (2, 3, 4)))
    for got, want in ((loaded.s, expected.s), (loaded.t, expected.t), (loaded.r, expected.r)):
        assert list(got.values) == list(want.values)
        assert np.array(list(got.values.values())).tobytes() == (
            np.array(list(want.values.values())).tobytes()
        )


def test_cumulants_p12(tmp_path):
    # no size cap: a p=12 all-loops path solves at orders 2-4
    edges = [[v, v] for v in range(12)] + [[v, v + 1] for v in range(11)]
    graph = write_json(tmp_path / "g12.json", {"p": 12, "edges": edges})
    out = tmp_path / "dump.json"
    assert main(["cumulants", "--graph", graph, "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for n, residual in doc["recursive_residuals"].items():
        scale = max(abs(v) for v in doc["tensors"][n]["entries"].values())
        assert residual <= 1e-9 * scale


def test_analyze_solves_no_order4(tmp_path, monkeypatch):
    # the rank scan reads only S and T; the collider square has no two-cycle,
    # so the verdict needs no fourth-order augmentation either
    real = lyapcum.engine.solve_cumulant
    orders = []

    def spy(a, omega):
        orders.append(omega.order)
        return real(a, omega)

    for name, module in list(sys.modules.items()):
        if name.startswith("lyapcum") and getattr(module, "solve_cumulant", None) is real:
            monkeypatch.setattr(module, "solve_cumulant", spy)
    graph = write_json(
        tmp_path / "sq.json",
        {"p": 4, "edges": [[0, 1], [0, 3], [2, 3], [0, 0], [1, 1], [2, 2], [3, 3]]},
    )
    assert main(["analyze", "--graph", graph, "--trials", "2", "--out", str(tmp_path / "an.json")]) == 0
    assert orders and 4 not in orders


class TestAnalyze:
    def test_collider_square_report(self, tmp_path):
        graph = write_json(
            tmp_path / "sq.json",
            {
                "p": 4,
                "edges": [[0, 1], [0, 3], [2, 3], [0, 0], [1, 1], [2, 2], [3, 3]],
            },
        )
        out = tmp_path / "an.json"
        assert main(["analyze", "--graph", graph, "--seed", "3", "--trials", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["marginal_independence"] == [[0, 2], [1, 2]]
        ci = {(c["i"], c["j"], c["given"][0]) for c in doc["conditional_independence"]}
        assert ci == {(1, 2, 0), (0, 2, 1)}
        assert doc["local_identifiability"]["verdict"] == "locally-identifiable"
        assert all(r["rank"] <= r["bound"] for r in doc["rank_constraints"])

    def test_loops_only_all_pairs_independent(self, tmp_path):
        graph = write_json(
            tmp_path / "diag.json", {"p": 3, "edges": [[0, 0], [1, 1], [2, 2]]}
        )
        out = tmp_path / "an.json"
        main(["analyze", "--graph", graph, "--trials", "2", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["marginal_independence"] == [[0, 1], [0, 2], [1, 2]]

    def test_csv_singular_values(self, tmp_path):
        graph = write_json(
            tmp_path / "sq.json",
            {
                "p": 4,
                "edges": [[0, 1], [0, 3], [2, 3], [0, 0], [1, 1], [2, 2], [3, 3]],
            },
        )
        out = tmp_path / "sv.csv"
        assert main(["analyze", "--graph", graph, "--trials", "2", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,augmented,rank,singular_values"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "7"

    def test_parent_without_loop_reports(self, tmp_path):
        # 0 -> 2 <- 1 -> 0 without loops: the model's own stack passes the
        # scan, which reports the two parent bounds of each U
        graph = write_json(tmp_path / "g.json", {"p": 3, "edges": [[0, 2], [1, 0], [1, 2]]})
        out = tmp_path / "an.json"
        assert main(["analyze", "--graph", graph, "--max-subset", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        rows = {(r["kind"], tuple(r["U"])): r for r in doc["rank_constraints"]}
        assert set(rows) == {
            (kind, u)
            for kind in ("parents-S", "parents-stacked-Q")
            for u in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        }
        assert rows["parents-stacked-Q", (0,)]["bound"] == 1
        assert rows["parents-stacked-Q", (0,)]["rank"] == 1

    def test_two_cycle_notes_augmentation(self, tmp_path):
        graph = write_json(
            tmp_path / "tc.json",
            {"p": 2, "edges": [[0, 0], [1, 1], [0, 1], [1, 0]]},
        )
        out = tmp_path / "an.json"
        assert main(["analyze", "--graph", graph, "--trials", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["local_identifiability"]["verdict"] == "locally-identifiable"
        assert doc["local_identifiability"]["augmented"] is True
        assert doc["local_identifiability"]["orders"] == [2, 3, 4]


def test_ppoly_table(capsys):
    assert main(["ppoly", "--xmax", "2", "--ymax", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x\\y,0,1,2"
    assert out.splitlines()[3].split(",")[3] == "1;4;1"
