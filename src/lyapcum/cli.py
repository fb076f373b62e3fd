"""Command-line surface: graph ingestion, fixture generation, reports.

Subcommands
-----------
cumulants   solve the steady-state cumulants of a graph (inline or sampled
            parameters) and dump tensors plus recursion residuals
identify    recover parameters from a cumulant stack, falling back to the
            Jacobian rank verdict when no constructive method applies
analyze     one combined report: independence statements, skeleton shape,
            rank constraints, and the local-identifiability verdict
ppoly       CSV table of the self-loop placement polynomials

Exit codes: 0 ok, 2 input error, 3 instability or solver breakdown,
4 identification failure.
Each subcommand takes only the options it reads, and imports only the
modules it runs: ``--version``, ``--help`` and ``ppoly`` start without numpy.
JSON reports embed the library version and, as ``config``, every option but
``--out``; identical config reproduces byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

from . import STABILITY_MARGIN, __version__

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSTABLE = 3
EXIT_IDENTIFY = 4


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_graph(path: str) -> DirectedGraph:
    from .graphs import DirectedGraph

    try:
        return DirectedGraph.from_json_dict(_load_json(path))
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _require_size(g: DirectedGraph, order: int) -> None:
    """Refuse a graph whose dense order-n tensor would exceed 2**28 entries.

    That is 2 GiB of float64, and the doubling holds a term of the same size.
    """
    if g.p**order > 2**28:
        raise InputError(
            f"p={g.p} is too large: a dense order-{order} tensor would exceed 2**28 entries"
        )


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(sorted(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise InputError(f"bad orders {text!r}") from exc
    if not set(orders) <= {2, 3, 4} or len(set(orders)) < len(orders):
        raise InputError("orders must be a subset of 2,3,4, each named once")
    return orders


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc


def _dump(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _document(args: argparse.Namespace, g: DirectedGraph) -> dict:
    """Report head: version, graph and, as ``config``, every option but ``--out``."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    return {"version": __version__, "config": config, "graph": g.to_json_dict()}


def _draw(g: DirectedGraph, args, orders: tuple[int, ...]) -> tuple[ParameterMatrix, dict]:
    """A drawn from ``--seed`` and ``--radius``, the noise of ``orders`` from seed + 1."""
    import numpy as np

    from .engine import random_omegas, sample_stable_matrix

    pm = sample_stable_matrix(g, seed=args.seed, target_radius=args.radius)
    return pm, random_omegas(np.random.default_rng(args.seed + 1), g.p, orders)


# ---------------------------------------------------------------------------
# cumulants
# ---------------------------------------------------------------------------


def _materialize_parameters(
    g: DirectedGraph, args, orders: tuple[int, ...]
) -> tuple[ParameterMatrix, dict]:
    """Inline parameters from ``--params``, or a draw from ``--seed`` and ``--radius``.

    ``cumulants`` parses both draw options as None when absent, so one given
    together with ``--params`` is an input error; for a draw, the defaults
    are filled in here, before the report records them in ``config``.
    """
    import numpy as np

    from .engine import DiagonalCumulant, ParameterMatrix
    from .graphs import json_key_int, json_number

    if args.params:
        given = [f"--{name}" for name in ("seed", "radius") if getattr(args, name) is not None]
        if given:
            raise InputError(f"--params replaces the sampled draw; drop {' and '.join(given)}")
        data = _load_json(args.params)
        try:
            entries = np.array(
                [[json_number(x, "an entry of A") for x in row] for row in data["A"]]
            )
            omegas = {
                n: DiagonalCumulant(n, [json_number(x, "an omega entry") for x in w])
                for n, w in zip(map(json_key_int, data["omega"]), data["omega"].values())
            }
            if len(omegas) != len(data["omega"]):
                raise ValueError(f"omega names an order twice: {sorted(data['omega'])}")
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"malformed parameter file: {exc}") from exc
        if not all(np.isfinite(x).all() for x in [entries, *(w.w for w in omegas.values())]):
            raise InputError("parameter file has non-finite entries")
        try:
            pm = ParameterMatrix(g, entries)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        missing = [n for n in orders if n not in omegas]
        if missing:
            raise InputError(f"parameter file lacks omega for orders {missing}")
        wrong = [n for n in orders if omegas[n].p != g.p]
        if wrong:
            raise InputError(f"omega for orders {wrong} must have {g.p} entries")
        return pm, {n: omegas[n] for n in orders}
    for name in ("seed", "radius"):
        if getattr(args, name) is None:
            setattr(args, name, OPTIONS[f"--{name}"]["default"])
    return _draw(g, args, orders)


def cmd_cumulants(args) -> int:
    from .engine import recursive_residual, solve_cumulant

    g = _load_graph(args.graph)
    orders = _parse_orders(args.orders)
    _require_size(g, orders[-1])
    pm, omegas = _materialize_parameters(g, args, orders)
    if args.format == "csv" and 2 not in omegas:
        raise InputError("--format csv writes the order-2 tensor; add 2 to --orders")
    if args.format == "csv":
        _write(args.out, solve_cumulant(pm, omegas[2]).to_csv())
        return EXIT_OK
    tensors = {}
    residuals = {}
    for n, omega in sorted(omegas.items()):
        t = solve_cumulant(pm, omega)
        tensors[str(n)] = t.to_json_dict()
        residuals[str(n)] = recursive_residual(t, pm, omega)
    document = _document(args, g)
    document.update(
        a=[list(row) for row in pm.entries], tensors=tensors, recursive_residuals=residuals
    )
    _write(args.out, _dump(document))
    return EXIT_OK


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------


def _load_stack(path: str) -> CumulantStack:
    from .identify import CumulantStack
    from .tensors import SymmetricTensor

    data = _load_json(path)
    try:
        tensors = data.get("tensors", data)
        keys = [key for key in ("2", "3", "4") if key in tensors]
        loaded = [SymmetricTensor.from_json_dict(tensors[key]) for key in keys]
        wrong = [key for key, t in zip(keys, loaded) if str(t.order) != key]
        if wrong:
            raise ValueError(f"keys {wrong} do not match their tensors' orders")
        return CumulantStack(*loaded)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed stack file: {exc}") from exc


def cmd_identify(args) -> int:
    from .identify import (
        DegenerateDenominator,
        HypothesisViolated,
        IdentifiabilityReport,
        NoMethodApplies,
        SingularBlock,
        auto_identify,
        count_equations_vs_parameters,
    )

    g = _load_graph(args.graph)
    stack = _load_stack(args.stack)
    if stack.p != g.p:
        raise InputError(f"stack has p={stack.p}, graph has p={g.p}")
    document = _document(args, g)
    try:
        report = auto_identify(g, stack, tol=args.tol)
        document["report"] = report.to_json_dict()
        _write(args.out, _dump(document))
        return EXIT_OK if report.verdict == "recovered" else EXIT_IDENTIFY
    except (DegenerateDenominator, SingularBlock, HypothesisViolated) as exc:
        document["report"] = IdentifiabilityReport(
            method="constructive", verdict="hypothesis-violated", detail=str(exc)
        ).to_json_dict()
        code = EXIT_IDENTIFY
    except NoMethodApplies:
        from .jacobian import local_identifiability_verdict

        verdict = local_identifiability_verdict(g, trials=args.trials, seed=args.seed)
        document["report"] = {
            "method": "jacobian",
            "verdict": verdict.verdict,
            "detail": verdict.reason,
        }
        document["jacobian"] = verdict.to_json_dict()
        code = EXIT_OK if verdict.verdict == "locally-identifiable" else EXIT_IDENTIFY
    document["equation_count"] = count_equations_vs_parameters(
        g, max(stack.orders)
    ).to_json_dict()
    _write(args.out, _dump(document))
    return code


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    from .constraints import rank_constraints_scan
    from .graphs import (
        DisconnectedGraph,
        classify_star,
        implied_conditional_independence,
        implied_marginal_independence,
    )
    from .identify import count_equations_vs_parameters, model_stack
    from .jacobian import augmentation_rows, local_identifiability_verdict

    g = _load_graph(args.graph)
    _require_size(g, 3)  # first: augmentation_rows walks every vertex
    for n in augmentation_rows(g):  # the verdict's augmentation solves each order of the map
        _require_size(g, n)
    document = _document(args, g)
    try:
        star = classify_star(g)
        document["star"] = {"kind": star.kind, "center": star.center}
    except DisconnectedGraph:
        document["star"] = None

    document["marginal_independence"] = [
        [i, j]
        for i, j in itertools.combinations(range(g.p), 2)
        if implied_marginal_independence(g, [i], [j])
    ]
    # a biedge i-j is a path inside every I+J+K, so only marginal pairs can be separated
    document["conditional_independence"] = [
        {"i": i, "j": j, "given": [k]}
        for i, j in document["marginal_independence"]
        for k in range(g.p)
        if k not in (i, j)
        and implied_conditional_independence(g, [i], [j], [k])
    ]

    verdict = local_identifiability_verdict(g, trials=args.trials, seed=args.seed)
    if args.format == "csv":
        _write(args.out, verdict.singular_values_csv())
        return EXIT_OK
    document["local_identifiability"] = verdict.to_json_dict()
    document["equation_count"] = count_equations_vs_parameters(g, 4).to_json_dict()

    stack = model_stack(*_draw(g, args, (2, 3)))  # the rank scan reads S and T only
    document["rank_constraints"] = [
        res.to_json_dict()
        for res in rank_constraints_scan(g, stack, max_subset=args.max_subset)
    ]
    _write(args.out, _dump(document))
    return EXIT_OK


def cmd_ppoly(args) -> int:
    from .treks import placement_table_csv

    _write(args.out, placement_table_csv(args.xmax, args.ymax))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _radius(text: str) -> float:
    value, top = float(text), 1.0 - STABILITY_MARGIN  # the sampled A has exactly this radius
    if not 0.0 < value < top:
        raise argparse.ArgumentTypeError(f"radius must lie in (0, {top}), got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _tol(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"tol must be finite and positive, got {text}")
    return value


# every option, declared once; each subcommand lists the options it reads
OPTIONS = {
    "--graph": {"required": True, "help": "graph JSON path"},
    "--seed": {"type": _non_negative, "default": 0},
    "--orders": {"default": "2,3,4", "help": "cumulant orders, a subset of 2,3,4"},
    "--radius": {"type": _radius, "default": 0.6, "help": "spectral radius of sampled A"},
    "--params": {"help": "inline parameter JSON (A and omega)"},
    "--stack": {"required": True, "help": "cumulant stack JSON path"},
    "--trials": {"type": _positive, "default": 5, "help": "Jacobian verdict trials"},
    "--tol": {
        "type": _tol, "default": 1e-8, "help": "certificate tolerance, relative to max|T_n|"
    },
    "--max-subset": {"type": _positive, "default": 2, "help": "largest rank-scan subset"},
    "--xmax": {"type": _non_negative, "default": 3},
    "--ymax": {"type": _non_negative, "default": 3},
    "--format": {"choices": ["json", "csv"], "default": "json"},
    "--out": {"default": "-", "help": "output path, '-' for stdout"},
}

SUBCOMMANDS = (
    ("cumulants", cmd_cumulants, "solve and dump steady-state cumulants",
     "--graph --seed --orders --radius --params --format --out"),
    ("identify", cmd_identify, "recover parameters from a stack",
     "--graph --seed --stack --trials --tol --out"),
    ("analyze", cmd_analyze, "combined structural report",
     "--graph --seed --trials --radius --max-subset --format --out"),
    ("ppoly", cmd_ppoly, "placement polynomial table", "--xmax --ymax --out"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapcum",
        description="steady-state cumulant models of sparse VAR(1) processes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options.split():
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(func=func)
    # tell a given --seed or --radius from an absent one (_materialize_parameters)
    sub.choices["cumulants"].set_defaults(seed=None, radius=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # a graph past the memory at hand is too large an input
        print(f"input error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # raised only from modules a numeric command has loaded: import them here
        from .engine import SingularSystem, UnstableMatrix
        from .tensors import DimensionMismatch

        for kind, label, code in (
            (DimensionMismatch, "input error", EXIT_INPUT),
            (UnstableMatrix, "instability", EXIT_UNSTABLE),
            (SingularSystem, "solver error", EXIT_UNSTABLE),
        ):
            if isinstance(exc, kind):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
