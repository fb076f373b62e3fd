import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
from conftest import source_above_cycles, strict_json


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def fig1_graph(tmp_path):
    return write_json(
        tmp_path / "fig1.json", {"p": 2, "edges": [[0, 0], [0, 1]]}
    )


# the worked example's A and unit noise at orders 2-4, as a --params file
UNIT_OMEGA = {"2": [1.0, 1.0], "3": [1.0, 1.0], "4": [1.0, 1.0]}
FIG1_PARAMS = {"A": [[0.5, 0.0], [1.0, 0.0]], "omega": UNIT_OMEGA}


@pytest.fixture
def fig1_params(tmp_path):
    return write_json(tmp_path / "params.json", FIG1_PARAMS)


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
        doc = strict_json(out.read_text())
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
        doc = strict_json(out.read_text())
        assert doc["tensors"]["2"]["entries"]["0,0"] == 1.0
        assert doc["tensors"]["2"]["entries"]["0,1"] == 0.0
        assert doc["tensors"]["3"]["entries"]["1,1,1"] == -0.5

    def test_unstable_exits_3(self, tmp_path, fig1_graph):
        params = write_json(tmp_path / "bad.json", {**FIG1_PARAMS, "A": [[1.5, 0.0], [1.0, 0.0]]})
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
        # a looped-source tree at seed 5, and the looped-source star at the default seed
        for edges, seed in (
            ([[0, 0], [0, 1], [1, 2], [1, 3]], ["--seed", "5"]),
            ([[0, 0], [0, 1], [0, 2], [0, 3]], []),
        ):
            graph = write_json(tmp_path / "tree.json", {"p": 4, "edges": edges})
            stack = tmp_path / "stack.json"
            assert main(["cumulants", "--graph", graph, *seed, "--out", str(stack)]) == 0
            out = tmp_path / "report.json"
            code = main(["identify", "--graph", graph, "--stack", str(stack), "--out", str(out)])
            assert code == 0
            report = strict_json(out.read_text())["report"]
            assert (report["method"], report["verdict"]) == ("polytree", "recovered")
            assert max(report["forward_residuals"].values()) <= 1e-8

    def test_scaled_stack_is_recovered(self, tmp_path):
        # every T_n times 1e60 is the model point of the same A with Omega_n times 1e60
        graph = write_json(tmp_path / "g.json", {"p": 2, "edges": [[0, 0], [0, 1], [1, 1]]})
        stack = tmp_path / "stack.json"
        assert main(["cumulants", "--graph", graph, "--out", str(stack)]) == 0
        doc = strict_json(stack.read_text())
        for tensor in doc["tensors"].values():
            tensor["entries"] = {k: v * 1e60 for k, v in tensor["entries"].items()}
        write_json(stack, doc)
        out = tmp_path / "report.json"
        code = main(["identify", "--graph", graph, "--stack", str(stack), "--out", str(out)])
        assert code == 0
        report = strict_json(out.read_text())["report"]
        assert report["verdict"] == "recovered"
        assert np.allclose(report["a"], doc["a"], rtol=1e-9, atol=0.0)

    def test_bare_two_cycle_exits_4_with_diagnostic(self, tmp_path):
        graph = write_json(
            tmp_path / "cycle.json", {"p": 2, "edges": [[0, 1], [1, 0]]}
        )
        params = write_json(tmp_path / "p.json", {"A": [[0.0, 0.6], [0.7, 0.0]], "omega": UNIT_OMEGA})
        stack = tmp_path / "stack.json"
        main(["cumulants", "--graph", graph, "--params", params, "--out", str(stack)])
        out = tmp_path / "report.json"
        code = main(["identify", "--graph", graph, "--stack", str(stack), "--out", str(out)])
        assert code == 4
        doc = strict_json(out.read_text())
        assert not doc["equation_count"]["bound_satisfied"]
        assert doc["equation_count"]["params"] == 2 + 2 * 3
        assert doc["equation_count"]["equations"] == 6

    @pytest.mark.parametrize("case", ["orders-2-3", "zero-edge"])
    def test_constructive_failure_exits_4(self, tmp_path, case):
        graph = write_json(tmp_path / "pair.json", {"p": 2, "edges": [[0, 0], [1, 1], [0, 1]]})
        stack = tmp_path / "stack.json"
        if case == "orders-2-3":
            main(["cumulants", "--graph", graph, "--orders", "2,3", "--out", str(stack)])
            detail = "fourth-order cumulants"
        else:  # the edge 0 -> 1 weighs 0
            params = write_json(tmp_path / "p.json", {"A": [[0.5, 0.0], [0.0, 0.4]], "omega": UNIT_OMEGA})
            main(["cumulants", "--graph", graph, "--params", params, "--out", str(stack)])
            detail = "s01 (r0000 t001 - r0001 t000)"
        out = tmp_path / "report.json"
        code = main(["identify", "--graph", graph, "--stack", str(stack), "--out", str(out)])
        assert code == 4
        doc = strict_json(out.read_text())
        assert doc["report"]["method"] == "constructive"
        assert doc["report"]["verdict"] == "hypothesis-violated"
        assert detail in doc["report"]["detail"]
        assert doc["equation_count"]["params"] == 3 + 2 * (2 if case == "orders-2-3" else 3)

    def test_tol_is_read_and_recorded(self, tmp_path, fig1_graph):
        stack = tmp_path / "stack.json"
        assert main(["cumulants", "--graph", fig1_graph, "--out", str(stack)]) == 0
        out = tmp_path / "report.json"
        argv = ["identify", "--graph", fig1_graph, "--stack", str(stack), "--tol", "1e-6"]
        assert main([*argv, "--out", str(out)]) == 0
        doc = strict_json(out.read_text())
        assert doc["config"]["tol"] == 1e-6
        assert doc["report"]["verdict"] == "recovered"

    def test_non_finite_values_are_written_as_null(self, tmp_path):
        """The library's inf is null in a report, so the report stays RFC 8259 JSON.

        A rank-0 trial's smallest singular value is 0, so its gap is null.  The
        looped-source pair with ``T_001`` tripled recovers an A of radius
        1.8, whose certified residuals are inf.
        """
        cycle = write_json(tmp_path / "cycle.json", {"p": 2, "edges": [[0, 1], [1, 0]]})
        out = tmp_path / "an.json"
        assert main(["analyze", "--graph", cycle, "--trials", "1", "--out", str(out)]) == 0
        (trial,) = strict_json(out.read_text())["local_identifiability"]["trials"]
        assert (trial["rank"], trial["gap"]) == (0, None)
        pair = write_json(tmp_path / "pair.json", {"p": 2, "edges": [[0, 0], [0, 1]]})
        stack = tmp_path / "stack.json"
        assert main(["cumulants", "--graph", pair, "--orders", "2,3", "--out", str(stack)]) == 0
        doc = strict_json(stack.read_text())
        doc["tensors"]["3"]["entries"]["0,0,1"] *= 3
        write_json(stack, doc)
        out = tmp_path / "report.json"
        assert main(["identify", "--graph", pair, "--stack", str(stack), "--out", str(out)]) == 4
        report = strict_json(out.read_text())["report"]
        assert report["detail"] == "recovered matrix is unstable (radius 1.8)"
        assert report["forward_residuals"] == {"2": None, "3": None}

    def test_malformed_stack_exits_2(self, tmp_path, fig1_graph):
        stack = tmp_path / "stack.json"
        stack.write_text('{"tensors": {"2": {"oops": 1}}}')
        assert main(["identify", "--graph", fig1_graph, "--stack", str(stack), "--out", "-"]) == 2


# one row per malformed input, files under {d}: (arguments, exit code); each
# must exit with that code and one message line, no traceback
BAD_INPUTS = {
    "radius-above-one": ("cumulants --graph {d}/g2.json --radius 1.5", 2),
    # the sampled A has exactly this radius, which the stability certificate refuses
    "radius-within-margin": ("cumulants --graph {d}/g2.json --radius 0.9999999995", 2),
    "zero-trials": ("analyze --graph {d}/g2.json --trials 0", 2),
    "short-omega": ("cumulants --graph {d}/g2.json --params {d}/short-omega.json", 2),
    "stack-missing-entry": ("identify --graph {d}/g2.json --stack {d}/missing.json", 2),
    "stack-nonfinite-entry": ("identify --graph {d}/g2.json --stack {d}/nan.json", 2),
    "stack-duplicate-multiset": ("identify --graph {d}/g2.json --stack {d}/dup.json", 2),
    "stack-p-mismatch": ("identify --graph {d}/g3.json --stack {d}/stack.json", 2),
    "stack-not-an-object": ("identify --graph {d}/g2.json --stack {d}/list.json", 2),
    # each key must name its tensor's own order
    "stack-keys-swapped": ("identify --graph {d}/g2.json --stack {d}/swapped.json", 2),
    "stack-key-4-holds-order-3": ("identify --graph {d}/g2.json --stack {d}/four-is-three.json", 2),
    "graph-edges-not-a-list": ("cumulants --graph {d}/edges5.json", 2),
    # an edge is a list of two vertex ids
    "graph-edge-of-three": ("analyze --graph {d}/edge-of-three.json", 2),
    "graph-edge-of-one": ("analyze --graph {d}/edge-of-one.json", 2),
    "graph-edge-not-a-list": ("analyze --graph {d}/edge-int.json", 2),
    "negative-seed": ("cumulants --graph {d}/g2.json --seed -1", 2),
    "negative-xmax": ("ppoly --xmax -2", 2),
    "negative-ymax": ("ppoly --ymax -1", 2),
    "csv-without-order-2": ("cumulants --graph {d}/g2.json --format csv --orders 3,4", 2),
    "orders-not-integers": ("cumulants --graph {d}/g2.json --orders x", 2),
    "orders-outside-2-4": ("cumulants --graph {d}/g2.json --orders 2,5", 2),
    "orders-repeated": ("cumulants --graph {d}/g2.json --orders 2,2,3", 2),
    # A off the graph's pattern, and no omega for the default order 4
    "params-a-off-pattern": ("cumulants --graph {d}/g2.json --params {d}/off-pattern.json", 2),
    "params-without-omega-4": ("cumulants --graph {d}/g2.json --params {d}/no-omega4.json", 2),
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
    "params-omega-list": ("cumulants --graph {d}/g2.json --params {d}/omega-list.json", 2),
    # a JSON integer too large for a float
    "params-huge-integer": ("cumulants --graph {d}/g2.json --params {d}/huge-int.json", 2),
    "stack-huge-integer": ("identify --graph {d}/g2.json --stack {d}/huge-int-stack.json", 2),
    # numbers must be JSON numbers, and an omega order is named once
    "params-omega-order-twice": ("cumulants --graph {d}/g2.json --params {d}/omega-02.json", 2),
    "params-a-string": ("cumulants --graph {d}/g2.json --params {d}/a-string.json", 2),
    "params-a-bool": ("cumulants --graph {d}/g2.json --params {d}/a-bool.json", 2),
    "stack-entry-string": ("identify --graph {d}/g2.json --stack {d}/string-stack.json", 2),
    "stack-entry-bool": ("identify --graph {d}/g2.json --stack {d}/bool-stack.json", 2),
    # an id in a JSON key is ASCII decimal digits: int() would read each of these
    "stack-key-plus": ("identify --graph {d}/g2.json --stack {d}/stack-key-plus.json", 2),
    "stack-key-space": ("identify --graph {d}/g2.json --stack {d}/stack-key-space.json", 2),
    "stack-key-arabic": ("identify --graph {d}/g2.json --stack {d}/stack-key-arabic.json", 2),
    "stack-key-underscore": (
        "identify --graph {d}/g2.json --stack {d}/stack-key-underscore.json", 2
    ),
    "params-omega-plus": ("cumulants --graph {d}/g2.json --params {d}/omega-plus.json", 2),
    "params-omega-space": ("cumulants --graph {d}/g2.json --params {d}/omega-space.json", 2),
    "params-omega-arabic": ("cumulants --graph {d}/g2.json --params {d}/omega-arabic.json", 2),
    "params-omega-underscore": (
        "cumulants --graph {d}/g2.json --params {d}/omega-underscore.json", 2
    ),
    # JSON is UTF-8; these files are Latin-1
    "params-not-utf8": ("cumulants --graph {d}/g2.json --params {d}/latin1-params.json", 2),
    "stack-not-utf8": ("identify --graph {d}/g2.json --stack {d}/latin1-stack.json", 2),
    # the report cannot be written
    "out-is-a-directory": ("cumulants --graph {d}/g2.json --out {d}", 2),
    "out-under-missing-directory": ("cumulants --graph {d}/g2.json --out {d}/no/out.json", 2),
}

# the message of the rows whose refusal is raised by the library or by cli's own checks
BAD_INPUT_MESSAGES = {
    "radius-within-margin": "radius must lie in (0, 0.999999999), got 0.9999999995",
    "graph-edges-not-a-list": "input error: graph JSON must contain 'p' and an 'edges' list",
    "graph-edge-of-three": "input error: edge [0, 1, 1] is not a list of two vertex ids",
    "graph-edge-of-one": "input error: edge [0] is not a list of two vertex ids",
    "graph-edge-not-a-list": "input error: edge 5 is not a list of two vertex ids",
    "orders-not-integers": "input error: bad orders 'x'",
    "orders-outside-2-4": "input error: orders must be a subset of 2,3,4",
    "orders-repeated": "input error: orders must be a subset of 2,3,4, each named once",
    "params-a-off-pattern": "input error: entry (0,1) is nonzero but edge 1->0 is absent",
    "params-without-omega-4": "input error: parameter file lacks omega for orders [4]",
    "params-omega-order-twice": "input error: malformed parameter file: omega names an order twice",
    "params-a-string": "input error: malformed parameter file: an entry of A must be a JSON number, got '0.5'",
    "params-a-bool": "input error: malformed parameter file: an entry of A must be a JSON number, got True",
    "stack-entry-string": "input error: malformed stack file: malformed tensor JSON: an entry must be a JSON number, got '1.0'",
    "stack-entry-bool": "input error: malformed stack file: malformed tensor JSON: an entry must be a JSON number, got True",
    "stack-key-plus": "input error: malformed stack file: malformed tensor JSON: '+1' in a JSON key is not ASCII decimal digits",
    "params-omega-underscore": "input error: malformed parameter file: '2_0' in a JSON key is not ASCII decimal digits",
}


@pytest.fixture(scope="module")
def bad_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bad")
    write_json(d / "g2.json", {"p": 2, "edges": [[0, 0], [0, 1]]})
    write_json(d / "g3.json", {"p": 3, "edges": [[0, 0], [0, 1], [1, 2]]})
    write_json(d / "edges5.json", {"p": 2, "edges": 5})
    for name, edge in (("edge-of-three", [0, 1, 1]), ("edge-of-one", [0]), ("edge-int", 5)):
        write_json(d / f"{name}.json", {"p": 2, "edges": [edge]})
    write_json(d / "params.json", FIG1_PARAMS)
    # the worked example's parameters with one field replaced
    for name, field, value in (
        ("short-omega.json", "omega", {**UNIT_OMEGA, "2": [1.0]}),
        ("off-pattern.json", "A", [[0.5, 0.3], [1.0, 0.0]]),
        ("no-omega4.json", "omega", {"2": [1.0, 1.0], "3": [1.0, 1.0]}),
        ("huge.json", "A", [[0.5, 0.0], [1e200, 0.0]]),
        ("nan-a.json", "A", [[float("nan"), 0.0], [1.0, 0.0]]),
        ("inf-omega.json", "omega", {**UNIT_OMEGA, "2": [1.0, float("inf")]}),
        ("omega-list.json", "omega", [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]),
        ("huge-int.json", "A", [[0.5, 0.0], [10**400, 0.0]]),
        ("omega-02.json", "omega", {**UNIT_OMEGA, "02": [2.0, 2.0]}),
        ("omega-underscore.json", "omega", {**UNIT_OMEGA, "2_0": [2.0, 2.0]}),
        ("a-string.json", "A", [["0.5", 0.0], [1.0, 0.0]]),
        ("a-bool.json", "A", [[True, 0.0], [1.0, 0.0]]),
    ):
        write_json(d / name, {**FIG1_PARAMS, field: value})
    # the order-2 omega under a key that int() reads as 2
    for name, key in (("plus", "+2"), ("space", " 2"), ("arabic", "\u0662")):
        omega = {key if k == "2" else k: w for k, w in UNIT_OMEGA.items()}
        write_json(d / f"omega-{name}.json", {**FIG1_PARAMS, "omega": omega})
    write_json(d / "list.json", [1, 2])
    assert main(["cumulants", "--graph", str(d / "g2.json"), "--out", str(d / "stack.json")]) == 0
    good = strict_json((d / "stack.json").read_text())
    missing = copy.deepcopy(good)
    del missing["tensors"]["3"]["entries"]["0,1,1"]
    write_json(d / "missing.json", missing)
    nonfinite = copy.deepcopy(good)
    nonfinite["tensors"]["2"]["entries"]["0,1"] = float("nan")
    write_json(d / "nan.json", nonfinite)
    duplicate = copy.deepcopy(good)
    duplicate["tensors"]["2"]["entries"]["1,0"] = 5.0  # second spelling of "0,1"
    write_json(d / "dup.json", duplicate)
    swapped = copy.deepcopy(good)
    swapped["tensors"]["2"], swapped["tensors"]["3"] = good["tensors"]["3"], good["tensors"]["2"]
    write_json(d / "swapped.json", swapped)
    four_is_three = copy.deepcopy(good)
    four_is_three["tensors"]["4"] = good["tensors"]["3"]
    write_json(d / "four-is-three.json", four_is_three)
    # the order-2 entry 0,1 under a key that int() reads as 0,1
    for name, key in (("plus", "0,+1"), ("space", "0, 1"), ("arabic", "0,\u0661"),
                      ("underscore", "0,0_1")):
        renamed = copy.deepcopy(good)
        entries = renamed["tensors"]["2"]["entries"]
        entries[key] = entries.pop("0,1")
        write_json(d / f"stack-key-{name}.json", renamed)
    huge = copy.deepcopy(good)
    huge["tensors"]["2"]["entries"]["0,1"] = 10**400
    write_json(d / "huge-int-stack.json", huge)
    for name, value in (("string-stack.json", "1.0"), ("bool-stack.json", True)):
        bad = copy.deepcopy(good)
        bad["tensors"]["2"]["entries"]["0,1"] = value
        write_json(d / name, bad)
    params = json.loads((d / "params.json").read_text())
    for name, doc in (("latin1-params.json", params), ("latin1-stack.json", good)):
        doc = dict(doc, note="caf\u00e9")
        (d / name).write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    return d


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2(bad_dir, tmp_path, capsys, case):
    command, expected = BAD_INPUTS[case]
    out = tmp_path / "out.json"
    # a later --out in the case's own arguments wins
    subcommand, *rest = [tok.format(d=bad_dir) for tok in command.split()]
    argv = [subcommand, "--out", str(out), *rest]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    assert "error" in err.strip().splitlines()[-1]
    assert BAD_INPUT_MESSAGES.get(case, "") in err
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
        doc = strict_json((bad_dir / "stack.json").read_text())
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
    """A graph, stack or parameter file with one field of a good document replaced."""
    kind = draw(st.sampled_from(["graph", "stack", "params"]))
    if kind == "params":
        doc = {"A": [[0.5, 0.0], [1.0, 0.0]], "omega": {"2": [1.0, 1.0], "3": [1.0, 1.0]}}
        field = draw(st.sampled_from(["A", "row", "omega", "order", "document"]))
        if field == "row":
            doc["A"][1] = draw(JSON_VALUES)
        elif field == "order":
            doc["omega"][draw(st.sampled_from(["2", "3"]))] = draw(JSON_VALUES)
        elif field == "document":
            doc = draw(JSON_VALUES)
        else:
            doc[field] = draw(JSON_VALUES)
        return "params", doc
    if kind == "graph":
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
    elif kind == "params":
        argv = ["cumulants", "--graph", str(bad_dir / "g2.json"), "--params", write_json(path, doc),
                "--orders", "2,3"]
    else:
        tensor, field, value = doc
        doc = strict_json((bad_dir / "stack.json").read_text())
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
            config = strict_json(out.read_text())["config"]
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
    for got, want in ((loaded.s, expected.s), (loaded.t, expected.t), (loaded.tensor(4), expected.tensor(4))):
        assert list(got.values) == list(want.values)
        assert np.array(list(got.values.values())).tobytes() == (
            np.array(list(want.values.values())).tobytes()
        )


def test_other_stack_keys_are_ignored(bad_dir, tmp_path):
    # a key outside 2-4 is not read, whatever it holds
    doc = strict_json((bad_dir / "stack.json").read_text())
    reports = []
    for k, extra in enumerate(({}, {"5": "not a tensor"}, {"5": doc["tensors"]["3"]})):
        stack = write_json(tmp_path / f"stack{k}.json", {"tensors": {**doc["tensors"], **extra}})
        out = tmp_path / f"out{k}.json"
        argv = ["identify", "--graph", str(bad_dir / "g2.json"), "--stack", stack, "--out", str(out)]
        assert main(argv) == 0
        reports.append(strict_json(out.read_text())["report"])
    assert reports[0] == reports[1] == reports[2]


# graphs whose dense tensors the numeric commands cannot hold: (command, graph)
TOO_LARGE = {
    "cumulants-p300": ("cumulants", {"p": 300, "edges": []}),
    "cumulants-p1e11": ("cumulants", {"p": 100_000_000_000, "edges": []}),
    "cumulants-p1e400": ("cumulants", {"p": 10**400, "edges": []}),
    "analyze-p1e11": ("analyze", {"p": 100_000_000_000, "edges": []}),
    # order 3 fits at p = 130, but the looped two-cycle's augmentation solves order 4
    "analyze-two-cycle-p130": (
        "analyze", {"p": 130, "edges": [[0, 0], [1, 1], [0, 1], [1, 0]]}
    ),
}


@pytest.mark.parametrize("case", list(TOO_LARGE))
def test_too_large_graph_exits_2(tmp_path, case):
    # refused before anything is allocated or iterated over range(p); a
    # subprocess, so that a missing check fails on the timeout instead of hanging
    command, graph = TOO_LARGE[case]
    path = write_json(tmp_path / "big.json", graph)
    src = str(Path(lyapcum.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "lyapcum.cli", command, "--graph", path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:") and "too large" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and not proc.stdout


@pytest.mark.parametrize(
    "message", ["Unable to allocate 696. MiB for an array", ""], ids=["numpy-message", "bare"]
)
def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys, message):
    # an allocation past the memory at hand keeps the exit-code contract
    from lyapcum import jacobian

    def exhaust(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(jacobian, "local_identifiability_verdict", exhaust)
    graph = write_json(tmp_path / "g.json", {"p": 2, "edges": [[0, 0], [0, 1], [1, 1]]})
    out = tmp_path / "an.json"
    assert main(["analyze", "--graph", graph, "--out", str(out)]) == 2
    expected = f"input error: out of memory: {message or 'allocation failed'}\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_size_limit_is_per_order(tmp_path):
    # p = 300 is refused at order 4 but solves at order 2
    graph = write_json(tmp_path / "g300.json", {"p": 300, "edges": []})
    out = tmp_path / "s.json"
    assert main(["cumulants", "--graph", graph, "--orders", "2", "--out", str(out)]) == 0
    assert strict_json(out.read_text())["tensors"]["2"]["p"] == 300


def test_cumulants_p12(tmp_path):
    # no size cap: a p=12 all-loops path solves at orders 2-4
    edges = [[v, v] for v in range(12)] + [[v, v + 1] for v in range(11)]
    graph = write_json(tmp_path / "g12.json", {"p": 12, "edges": edges})
    out = tmp_path / "dump.json"
    assert main(["cumulants", "--graph", graph, "--seed", "4", "--out", str(out)]) == 0
    doc = strict_json(out.read_text())
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


@pytest.mark.parametrize("lengths", [None, (2, 3, 5, 7, 11)], ids=["looped-path-40", "coprime-cycles-29"])
def test_analyze_separates_only_marginal_pairs(tmp_path, monkeypatch, lengths):
    # on the looped path every pair is joined, so no separation query is made;
    # a source above coprime cycles (p = 29) reads its support from the walk
    from lyapcum import graphs

    real = graphs.implied_conditional_independence
    queries = []
    monkeypatch.setattr(
        graphs, "implied_conditional_independence", lambda *a: queries.append(a) or real(*a)
    )
    if lengths is None:
        g = DirectedGraph(40, [(i, i) for i in range(40)] + [(i, i + 1) for i in range(39)])
    else:
        g = source_above_cycles(lengths)
    graph = write_json(tmp_path / "g.json", g.to_json_dict())
    out = tmp_path / "an.json"
    assert main(["analyze", "--graph", graph, "--trials", "1", "--out", str(out)]) == 0
    marginal = strict_json(out.read_text())["marginal_independence"]
    assert len(marginal) == (0 if lengths is None else 118)
    assert len(queries) == len(marginal) * (g.p - 2)


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
        doc = strict_json(out.read_text())
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
        doc = strict_json(out.read_text())
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
        # scan, which reports each U whose bound |pa(U)| is below its column
        # count: pa(1) is empty and pa({0, 1}) = {1}
        graph = write_json(tmp_path / "g.json", {"p": 3, "edges": [[0, 2], [1, 0], [1, 2]]})
        out = tmp_path / "an.json"
        assert main(["analyze", "--graph", graph, "--max-subset", "2", "--out", str(out)]) == 0
        doc = strict_json(out.read_text())
        rows = {tuple(r["U"]): r for r in doc["rank_constraints"]}
        assert list(rows) == [(1,), (0, 1)]
        assert [(r["bound"], r["rank"], r["shape"]) for r in rows.values()] == [
            (0, 0, [10, 1]), (1, 1, [8, 2]),
        ]

    def test_max_subset_above_p_scans_every_subset(self, tmp_path):
        # the scan stops at p, so a huge --max-subset reports what 3 does
        graph = write_json(tmp_path / "g.json", {"p": 3, "edges": [[0, 1], [1, 2]]})
        docs = []
        for size in ("3", "1000000000"):
            out = tmp_path / f"an-{size}.json"
            assert main(["analyze", "--graph", graph, "--max-subset", size, "--out", str(out)]) == 0
            docs.append(strict_json(out.read_text()))
        assert [doc.pop("config")["max_subset"] for doc in docs] == [3, 1000000000]
        assert docs[0] == docs[1] and docs[0]["rank_constraints"]

    def test_exact_zero_trial_is_rank_deficient(self, tmp_path):
        # every trial's smallest singular value is an exact 0 here, so each gap is null
        # and the unanimous rank is a deficiency, not a disagreement
        graph = write_json(tmp_path / "g.json", {"p": 3, "edges": [[0, 0], [0, 2], [1, 0]]})
        out = tmp_path / "an.json"
        assert main(["analyze", "--graph", graph, "--out", str(out)]) == 0
        report = strict_json(out.read_text())["local_identifiability"]
        assert (report["verdict"], report["deficiency"]) == ("rank-deficient", 1)
        assert [t["gap"] for t in report["trials"]] == [None] * 5

    def test_two_cycle_notes_augmentation(self, tmp_path):
        graph = write_json(
            tmp_path / "tc.json",
            {"p": 2, "edges": [[0, 0], [1, 1], [0, 1], [1, 0]]},
        )
        out = tmp_path / "an.json"
        assert main(["analyze", "--graph", graph, "--trials", "3", "--out", str(out)]) == 0
        doc = strict_json(out.read_text())
        assert doc["local_identifiability"]["verdict"] == "locally-identifiable"
        assert doc["local_identifiability"]["augmented"] is True
        assert doc["local_identifiability"]["orders"] == [2, 3, 4]

    # fields the report computes from the verdict's trials and the adjacency rows:
    # the order-4 augmentation's row map, the diamond's deficiency, the two-star's centre
    @pytest.mark.parametrize(
        "edges, trials, section, expected",
        [
            (
                [[0, 0], [1, 1], [0, 1], [1, 0], [2, 2], [2, 3]], 2, "local_identifiability",
                {"verdict": "locally-identifiable", "augmented": True, "orders": [2, 3, 4],
                 "row_counts": {"2": 10, "3": 20, "4": 3}},
            ),
            (
                [[0, 0], [0, 1], [0, 2], [1, 3], [2, 3]], 2, "local_identifiability",
                {"verdict": "rank-deficient", "generic_rank": 4, "deficiency": 1,
                 "orders": [2, 3], "augmented": False, "row_counts": {"2": 10, "3": 20}},
            ),
            (
                [[0, 0], [0, 1], [0, 2], [0, 3], [3, 4], [4, 4]], 1, "star",
                {"kind": "generalized-two-star", "center": 0},
            ),
        ],
        ids=["two-cycle-beside-loop", "diamond", "generalized-two-star"],
    )
    def test_report_summary(self, tmp_path, edges, trials, section, expected):
        p = 1 + max(map(max, edges))
        graph = write_json(tmp_path / "g.json", {"p": p, "edges": edges})
        out = tmp_path / "an.json"
        assert main(["analyze", "--graph", graph, "--trials", str(trials), "--out", str(out)]) == 0
        got = strict_json(out.read_text())[section]
        assert {key: got[key] for key in expected} == expected


def test_ppoly_table(capsys):
    assert main(["ppoly", "--xmax", "2", "--ymax", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x\\y,0,1,2"
    assert out.splitlines()[3].split(",")[3] == "1;4;1"


# graphs of the pinned reports: the looped 6-cycle, a two-cycle component
# beside a looped edge (augments), the diamond, and an isolated looped vertex
GOLDEN_GRAPHS = {
    "cycle6": {"p": 6, "edges": [[i, i] for i in range(6)] + [[i, (i + 1) % 6] for i in range(6)]},
    "two-cycle-beside-loop": {"p": 4, "edges": [[0, 0], [1, 1], [0, 1], [1, 0], [2, 2], [2, 3]]},
    "diamond": {"p": 4, "edges": [[0, 0], [0, 1], [0, 2], [1, 3], [2, 3]]},
    "isolated": {"p": 3, "edges": [[0, 0], [1, 1], [2, 2], [0, 1]]},
}


def test_report_golden_bytes(tmp_path, monkeypatch):
    """The sha256 of each report, pinned so that a refactor keeps every byte.

    ``config`` records the paths as given, so the files are named relative
    to the working directory.
    """
    monkeypatch.chdir(tmp_path)
    digests = {}

    def run(name, argv, expected_code):
        assert main([*argv, "--out", "out"]) == expected_code
        digests[name] = hashlib.sha256(Path("out").read_bytes()).hexdigest()

    for name, graph in GOLDEN_GRAPHS.items():
        write_json(Path(f"{name}.json"), graph)
        for seed in ("0", "1"):
            for fmt in ("json", "csv"):
                argv = ["analyze", "--graph", f"{name}.json", "--seed", seed, "--format", fmt]
                run(f"analyze-{fmt}-{name}-{seed}", argv, 0)
    assert main(["cumulants", "--graph", "cycle6.json", "--out", "stack.json"]) == 0
    run("identify-cycle6", ["identify", "--graph", "cycle6.json", "--stack", "stack.json"], 0)
    assert digests == {
        "analyze-json-cycle6-0":
            "2cee2d9278703207b63879fcb9098bff6f087ba7892f1043d9213a4da09f4146",
        "analyze-csv-cycle6-0":
            "45f31c45d2065ad23ba5f31c0d60ebb1b48126acd2a3f6690c2e3593e11be6b4",
        "analyze-json-cycle6-1":
            "17080be4537c9adbc1f7714bf497058ad0fe4c7d7788de4b34731bfca8ca8cef",
        "analyze-csv-cycle6-1":
            "cec9c52e72af974933be26568c220b20e314d6d5251c6da4d3e25c2437d6d60d",
        "analyze-json-two-cycle-beside-loop-0":
            "49df5a70b209376070dd57973cf2fb618d08db953a4660d4fcf746c8bbb30879",
        "analyze-csv-two-cycle-beside-loop-0":
            "9c22475e9678affdac7951224eb1a831d9e5ec6fac92d96098d446efc4ad59ef",
        "analyze-json-two-cycle-beside-loop-1":
            "41fb65ca4ab4a650a9ea4bda26d13618b6adc6a746661bbc90cc5488dd955648",
        "analyze-csv-two-cycle-beside-loop-1":
            "94ab57526c11ce012855ea99b289b936d38ed924bc29d9b07b40e9221c8e050c",
        "analyze-json-diamond-0":
            "375d2fab32ae256835fc451086a19e9a6a998b8788fd2fa72ab7d540793b2876",
        "analyze-csv-diamond-0":
            "8d50a1d77e32037fb8b51f2654da5b1f5eaf5251d71ee4c9ccef493f8fc1a92f",
        "analyze-json-diamond-1":
            "96241b6548d598e9de934c316a42f4d4e43123acc912b10c4f9f5d37fa550c92",
        "analyze-csv-diamond-1":
            "e4ddadf87f461c8ce9747388d23bb0bbc157bdac56ca8207ddb4bd6c2a10ae1a",
        "analyze-json-isolated-0":
            "82d608d9038f170f417c050bf65e702180a4f7209878373fe344843970f7df8a",
        "analyze-csv-isolated-0":
            "8c6d459314a9c48a773a631a9f38af798d8fa8b3b73369f769a81da68f36cece",
        "analyze-json-isolated-1":
            "41e90b83e0ea21cdb85a67fe0d8f3bcda53244f0beb9cb2feacb03af5a79e49a",
        "analyze-csv-isolated-1":
            "8c6d459314a9c48a773a631a9f38af798d8fa8b3b73369f769a81da68f36cece",
        "identify-cycle6":
            "5dea67f514d1b679062e6d2e84b04929ae61ca36c04e39de4e0ba5c20d2167a7",
    }
