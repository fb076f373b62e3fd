"""Spans around the public functions of each lyapcum layer, from outside.

``Tracer.install`` replaces every traced function with a wrapper in each
``lyapcum`` module that holds it by name (so ``lyapcum.jacobian.solve_cumulant``
is traced as well as ``lyapcum.engine.solve_cumulant``), and in the
benchmark's own modules that imported them; ``uninstall`` puts the
originals back.  A span records its name, start, end, parent span and op
id, plus a few exact attributes (order, steps, trials, minors, ...) read from
the call's arguments and result.  Calls made while no op is current (the
correctness gates) are not recorded.  Spans stay in memory until ``dump``.

Self time is a span's duration minus the durations of its direct children;
the program is single-threaded here, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

MODULES = ("graphs", "tensors", "engine", "treks", "identify", "jacobian", "constraints", "cli")


def _solve(bound, result):
    return {"p": bound["a"].p, "order": bound["omega"].order}


def _simulate(bound, result):
    return {"steps": bound["t_max"] + bound["burn_in"]}


def _auto(bound, result):
    return {"blocks": len(result.block_conditions), "recovered": result.verdict == "recovered"}


def _verdict(bound, result):
    return {"trials": len(result.trials), "augmented": sum(t.augmented for t in result.trials)}


def _scan(bound, result):
    return {"matrices": len(result), "minors": sum(r.minors_checked for r in result)}


def _binomials(bound, result):
    return {"binomials": len(result)}


def _cli_main(bound, result):
    argv = bound["argv"] or sys.argv[1:]
    return {"command": argv[0]}


# (module, function or Class.method, attribute reader)
TARGETS = [
    ("graphs", "equitrek_graph", None),
    ("graphs", "implied_marginal_independence", None),
    ("graphs", "implied_conditional_independence", None),
    ("graphs", "classify_star", None),
    ("tensors", "SymmetricTensor.from_dense", None),
    ("tensors", "SymmetricTensor.to_dense", None),
    ("tensors", "SymmetricTensor.to_json_dict", None),
    ("tensors", "SymmetricTensor.from_json_dict", None),
    ("tensors", "k_mode_product", None),
    ("tensors", "tucker_product", None),
    ("engine", "solve_cumulant", _solve),
    ("engine", "recursive_residual", None),
    ("engine", "recover_noise", None),
    ("engine", "sample_stable_matrix", None),
    ("engine", "random_omegas", None),
    ("engine", "simulate_and_estimate", _simulate),
    ("treks", "placement_table_csv", None),
    ("identify", "model_stack", None),
    ("identify", "auto_identify", _auto),
    ("identify", "count_equations_vs_parameters", None),
    ("jacobian", "build_modified_jacobian", None),
    ("jacobian", "numeric_rank", None),
    ("jacobian", "local_identifiability_verdict", _verdict),
    ("constraints", "rank_constraints_scan", _scan),
    ("constraints", "toric_matrix", None),
    ("constraints", "kernel_binomial_values", _binomials),
    ("cli", "main", _cli_main),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, reader=None):
        signature = inspect.signature(fn) if reader else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:  # outside an op, e.g. inside a gate
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if reader:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = reader(bound.arguments, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, callers=()) -> None:
        """Wrap every target in lyapcum and in the given calling modules."""
        importlib.import_module("lyapcum.cli")
        modules = [m for n, m in list(sys.modules.items()) if n == "lyapcum" or n.startswith("lyapcum.")]
        modules += list(callers)
        for module_name, qualname, reader in TARGETS:
            home = importlib.import_module(f"lyapcum.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.span(name, raw.__func__, reader))
                else:
                    new = self.span(name, raw, reader)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(home, qualname)
            wrapper = self.span(name, orig, reader)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, attr, orig))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, **s.attrs,
                }) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times over every recorded span.

    Counts are exact: they come from call arguments and results, never from
    clocks.  ``engine.solve_unknowns`` and ``engine.solve_dense_bytes`` are
    computed from (p, order) of each solve, not measured.
    """
    m: dict[str, float] = defaultdict(int)
    for module in MODULES:
        m[f"{module}.self_s"] = 0.0
        m[f"{module}.calls"] = 0
    auto_attempts = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        module, func = span.name.split(".", 1)
        a = span.attrs
        m[f"{module}.self_s"] += own
        m[f"{module}.calls"] += 1
        if func == "solve_cumulant" and a:
            n, p = a["order"], a["p"]
            m[f"engine.solve_calls.n{n}"] += 1
            m[f"engine.solve_s.n{n}"] += own
            m["engine.solve_unknowns"] += p**n
            m["engine.solve_dense_bytes"] += 8 * p ** (2 * n)
        elif func == "recursive_residual":
            m["engine.residual_s"] += own
        elif func == "recover_noise":
            m["engine.recover_noise_s"] += own
        elif func in ("sample_stable_matrix", "random_omegas"):
            m["engine.sample_s"] += own
        elif func == "simulate_and_estimate" and a:
            m["engine.sim_s"] += own
            m["engine.sim_steps"] += a["steps"]
        elif func == "SymmetricTensor.from_dense":
            m["tensors.fold_calls"] += 1
            m["tensors.fold_s"] += own
        elif func == "SymmetricTensor.to_dense":
            m["tensors.unfold_s"] += own
        elif func in ("SymmetricTensor.to_json_dict", "SymmetricTensor.from_json_dict"):
            m["tensors.json_s"] += own
        elif func in ("k_mode_product", "tucker_product"):
            m["tensors.tucker_s"] += own
            m["tensors.mode_products"] += func == "k_mode_product"
        elif func == "equitrek_graph":
            m["graphs.equitrek_s"] += own
        elif func.startswith("implied_"):
            m["graphs.ci_queries"] += 1
            m["graphs.ci_s"] += own
        elif func == "classify_star":
            m["graphs.classify_s"] += own
        elif func == "auto_identify":
            m["identify.auto_s"] += own
            auto_attempts += 1
            if a:
                m["identify.blocks"] += a["blocks"]
                m["identify.recovered"] += a["recovered"]
        elif func == "count_equations_vs_parameters":
            m["identify.count_equations_s"] += own
        elif func == "build_modified_jacobian":
            m["jacobian.build_calls"] += 1
            m["jacobian.build_s"] += own
        elif func == "numeric_rank":
            m["jacobian.rank_s"] += own
        elif func == "local_identifiability_verdict" and a:
            m["jacobian.trials"] += a["trials"]
            m["jacobian.augmented_trials"] += a["augmented"]
        elif func == "rank_constraints_scan":
            m["constraints.scan_s"] += own
            if a:
                m["constraints.matrices_checked"] += a["matrices"]
                m["constraints.minors_checked"] += a["minors"]
        elif func in ("toric_matrix", "kernel_binomial_values"):
            m["constraints.kernel_s"] += own
            m["constraints.binomials"] += a.get("binomials", 0)
        elif func == "placement_table_csv":
            m["treks.ppoly_s"] += own
        elif func == "main" and a:
            m[f"cli.cmd_s.{a['command']}"] += span.end - span.start
    steps, trials = m["engine.sim_steps"], m["jacobian.trials"]
    m["engine.sim_us_per_step"] = 1e6 * m["engine.sim_s"] / steps if steps else 0.0
    recovered = m.pop("identify.recovered", 0)
    m["identify.recovered_frac"] = recovered / auto_attempts if auto_attempts else 0.0
    augmented = m.pop("jacobian.augmented_trials", 0)
    m["jacobian.augmented_frac"] = augmented / trials if trials else 0.0
    return dict(m)
