"""In-memory span tracer that wraps pairfit's public layer functions.

``install()`` replaces every module-level binding of each traced function
(its home module and every ``from .x import f`` copy inside ``pairfit``)
with a wrapper that records one span per call: name, start, end, parent and
an optional work count.  Spans stay in memory until ``Tracer.dump`` writes
them once, when the run ends.  Nothing here changes a return value.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

# Span name -> home module and the functions recorded under that name.
FUNCTIONS = {
    "cli.main": ("pairfit.cli", ("main",)),
    "models.build": ("pairfit.models", ("build",)),
    "testfam.score": ("pairfit.testfam", ("score",)),
    "measures.integrate": ("pairfit.measures", ("integrate",)),
    "measures.sign_change_points": ("pairfit.measures", ("sign_change_points",)),
    "sim.sample_truth": ("pairfit.sim", ("sample_truth",)),
    "sim.run_estimation": ("pairfit.sim", ("run_estimation",)),
    "sim.artifacts": (
        "pairfit.sim",
        ("records_csv_text", "records_jsonl_text", "summary_json_text", "curve_csv_text"),
    ),
    "losses.loss": ("pairfit.losses", ("loss",)),
    "robust_tests.run_test": ("pairfit.robust_tests", ("run_test",)),
}
# PairwiseEngine methods, wrapped on the class itself.
ENGINE_SPANS = ("estimator.engine_init", "estimator.statistic_matrix")
# Spans whose extra field is a work count, and what it counts.
WORK_COUNTS = {
    "estimator.statistic_matrix": "observations",
    "measures.integrate": "points",
    "measures.sign_change_points": "points",
}
SCORE_CLASSES = {"AtomScore": "atom", "PiecewiseScore": "piecewise", "CallableScore": "callable"}


class Tracer:
    """Collects spans as ``[name, start, end, parent_index, extra]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, args, kwargs, extra=None, result_extra=None):
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, extra]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if result_extra is not None:
            record[4] = result_extra(result)
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _rebind(original, replacement) -> None:
    """Point every ``pairfit`` module attribute bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "pairfit" or mod_name.startswith("pairfit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and PairwiseEngine method of pairfit."""

    def plain(name, original):
        def wrapper(*args, **kwargs):
            return tracer.span(name, original, args, kwargs)

        return wrapper

    def quadrature(name, original):
        # The integrand is the first argument; count every point it sees.
        def wrapper(fn, *args, **kwargs):
            idx = len(tracer.spans)  # the index span() is about to use

            def counted(x):
                tracer.spans[idx][4] += int(np.size(x))
                return fn(x)

            return tracer.span(name, original, (counted, *args), kwargs, extra=0)

        return wrapper

    def scored(name, original):
        def wrapper(*args, **kwargs):
            return tracer.span(
                name, original, args, kwargs, result_extra=lambda r: type(r).__name__
            )

        return wrapper

    makers = {
        "testfam.score": scored,
        "measures.integrate": quadrature,
        "measures.sign_change_points": quadrature,
    }
    for name, (mod_name, attrs) in FUNCTIONS.items():
        module = importlib.import_module(mod_name)
        for attr in attrs:
            original = getattr(module, attr)
            _rebind(original, makers.get(name, plain)(name, original))

    estimator = importlib.import_module("pairfit.estimator")
    engine = estimator.PairwiseEngine
    init, stat = engine.__init__, engine.statistic_matrix

    def engine_init(self, spec, model):
        cands = estimator.as_model(model).candidates
        m = len(cands)
        extra = {"pairs": m * (m - 1) // 2, "key": repr(spec) + repr(cands)}
        return tracer.span("estimator.engine_init", init, (self, spec, model), {}, extra)

    def statistic_matrix(self, sample, *args, **kwargs):
        return tracer.span(
            "estimator.statistic_matrix", stat, (self, sample, *args), kwargs, int(np.size(sample))
        )

    engine.__init__ = engine_init
    engine.statistic_matrix = statistic_matrix


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, busy time, self time and work counts from dumped spans.

    Busy time sums a layer's outermost spans (a span nested in one of the same
    name is not counted twice); self time is each span's duration minus the
    durations of its direct children.  ``estimator.engine_reuse`` is the
    number of distinct (loss, model) pairs per engine built.
    """
    out: dict[str, float] = {}
    for name in (*FUNCTIONS, *ENGINE_SPANS):
        out.update({f"{name}.calls": 0, f"{name}.busy_s": 0.0, f"{name}.self_s": 0.0})
    out.update({f"{name}.{what}": 0 for name, what in WORK_COUNTS.items()})
    out.update({f"testfam.score.{kind}": 0 for kind in SCORE_CLASSES.values()})
    out["estimator.engine_init.pairs"] = 0
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    engine_keys = set()
    for i, (name, start, end, parent, extra) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - children[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.busy_s"] += end - start
        if name in WORK_COUNTS:
            out[f"{name}.{WORK_COUNTS[name]}"] += extra
        elif name == "testfam.score":
            out[f"testfam.score.{SCORE_CLASSES[extra]}"] += 1
        elif name == "estimator.engine_init":
            out["estimator.engine_init.pairs"] += extra["pairs"]
            engine_keys.add(extra["key"])
    engines = out["estimator.engine_init.calls"]
    out["estimator.engine_reuse"] = len(engine_keys) / engines if engines else 0.0
    return out
