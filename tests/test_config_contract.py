"""The config-space contract of the ``pairfit`` command, over generated configs.

A derandomised property draws configs for all five commands, runs
``cli.main`` in process and checks what every run promises, whatever the
config: the exit code is 0, 2 or 3; a nonzero exit says why on stderr,
starting ``config error:`` or ``numerical failure:``; every artifact of a
successful run parses; and no example runs long.  Most drawn configs are
small and valid; the rest have one key dropped, spoilt or added.

Left out until their own fixes land: power laws with alpha < 1, whose
singular TV pairs can take seconds of quadrature and then fail, and
parameters near 1e+-300, where the quadrature budget is not yet sized.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import pairfit.cli as cli

# Seconds one example may take.  A drawn example takes well under a
# second; this only catches a run that hangs or loops.
_TIME_BOUND = 10.0

locs = st.floats(-3.0, 3.0)
scales = st.floats(1e-4, 1e2)
weights = st.floats(0.05, 1.0)
small_ints = st.integers(1, 6)
seeds = st.integers(0, 2**31)


def _gaussian(mean, sd):
    return {"family": "gaussian", "params": {"mean": mean, "sd": sd}}


@st.composite
def histograms(draw):
    k = draw(st.integers(1, 3))
    raw = draw(st.lists(weights, min_size=k, max_size=k))
    lo = draw(st.sampled_from([0.0, -1.0, 0.5]))
    heights = [k * h / sum(raw) for h in raw]
    return {"family": "histogram", "params": {"heights": heights, "support": [lo, lo + 1.0]}}


@st.composite
def discretes(draw):
    points = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3, unique=True))
    raw = draw(st.lists(weights, min_size=len(points), max_size=len(points)))
    return {"family": "discrete", "params": {"points": points, "masses": [m / sum(raw) for m in raw]}}


plain_measures = st.one_of(
    st.builds(_gaussian, locs, scales),
    st.builds(lambda loc, scale: {"family": "cauchy", "params": {"loc": loc, "scale": scale}}, locs, scales),
    st.builds(lambda low, width: {"family": "uniform", "params": {"low": low, "width": width}}, locs, scales),
    st.builds(
        lambda alpha, shift: {"family": "power", "params": {"alpha": alpha, "shift": shift}},
        st.floats(1.0, 4.0),
        locs,
    ),
    histograms(),
    discretes(),
    st.builds(lambda at: {"family": "point-mass", "params": {"at": at}}, locs),
)
measures = st.one_of(
    plain_measures,
    st.builds(
        lambda base, alpha, cont: {
            "family": "mixture", "params": {"base": base, "alpha": alpha, "contaminant": cont}
        },
        plain_measures,
        st.floats(0.0, 1.0),
        plain_measures,
    ),
)

loss_specs = st.one_of(
    st.sampled_from([{"kind": "tv"}, {"kind": "hellinger2"}, {"kind": "wasserstein1"}]),
    st.builds(lambda a: {"kind": "kl", "a": a}, st.floats(0.1, 10.0)),
    st.builds(lambda j, R: {"kind": "lj", "j": j, "R": R}, st.floats(1.5, 3.0), st.floats(0.5, 2.0)),
    st.builds(lambda D: {"kind": "linf", "D": D}, st.integers(1, 3)),
)


@st.composite
def grids(draw):
    lo = draw(st.floats(-2.0, 1.0))
    step = draw(st.floats(0.25, 1.0))
    return {"lo": lo, "hi": lo + step * draw(st.integers(0, 4)), "step": step}


def _rows(width, count):
    return st.lists(
        st.lists(weights, min_size=width, max_size=width).map(lambda r: [v / sum(r) for v in r]),
        min_size=1,
        max_size=count,
    )


models = st.one_of(
    grids().map(lambda g: {"family": "gaussian-location-grid", "d": 1, **g}),
    st.builds(
        lambda g, base: {
            "family": "translation-grid", "base": base, **g, **({"alpha": 1.0} if base == "power" else {})
        },
        grids(),
        st.sampled_from(["cauchy", "uniform", "power"]),
    ),
    st.builds(
        lambda cells, values: {"family": "histogram-net", "cells": cells, "value_grid": values},
        st.integers(1, 2),
        st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=1, max_size=3),
    ),
    st.builds(
        lambda d, cells, levels: {
            "family": "monotone-net",
            "d": d,
            "breakpoint_grid": [k / cells for k in range(cells + 1)],
            "level_grid": levels,
        },
        st.integers(1, 2),
        st.integers(1, 3),
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=2),
    ),
    st.integers(1, 3).flatmap(
        lambda cells: _rows(cells, 3).map(
            lambda net: {"family": "l2-linear", "basis": "indicator", "cells": cells, "coefficient_net": net}
        )
    ),
    st.integers(1, 3).flatmap(
        lambda size: _rows(size, 3).map(
            lambda cands: {"family": "discrete", "space_size": size, "candidates": cands}
        )
    ),
    st.integers(1, 3).flatmap(
        lambda n: st.builds(
            lambda net, mean: {
                "family": "regression-tuples", "theta_net": net, "base_q": _gaussian(mean, 1.0), "n": n
            },
            st.lists(st.lists(locs, min_size=n, max_size=n), min_size=1, max_size=3),
            locs,
        )
    ),
)


@st.composite
def estimate_docs(draw):
    doc = {"model": draw(models), "loss": draw(loss_specs)}
    if draw(st.booleans()):
        doc["epsilon"] = draw(st.floats(0.01, 2.0))
    if draw(st.booleans()):
        doc["sample"] = draw(st.lists(locs, min_size=1, max_size=8))
    else:
        doc.update(truth=draw(measures), n=draw(small_ints), seed=draw(seeds))
    return doc


@st.composite
def truths(draw, n):
    kind = draw(st.sampled_from(["iid", "contaminated", "tuples"]))
    if kind == "iid":
        return {"kind": kind, "measure": draw(measures)}
    if kind == "contaminated":
        alphas = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        return {"kind": kind, "base": draw(measures), "alphas": alphas, "contaminant": draw(measures)}
    return {"kind": kind, "components": draw(st.lists(measures, min_size=n, max_size=n))}


@st.composite
def simulate_docs(draw):
    n = draw(small_ints)
    scenario = {
        "truth": draw(truths(n)),
        "model": draw(models),
        "loss": draw(loss_specs),
        "n": n,
        "epsilon": draw(st.floats(0.01, 2.0)),
        "replications": draw(st.integers(1, 4)),
        "seed": draw(seeds),
    }
    doc = {"scenario": scenario}
    if draw(st.booleans()):
        doc["xis"] = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=2))
    if draw(st.booleans()):
        doc["ns"] = draw(st.lists(small_ints, min_size=1, max_size=2))
    if draw(st.booleans()):
        doc["formats"] = draw(st.lists(st.sampled_from(["csv", "json-lines", "summary"]), min_size=1, unique=True))
    return doc


test_docs = st.fixed_dictionaries(
    {
        "truth": measures,
        "p": measures,
        "q": measures,
        "loss": loss_specs,
        "n": small_ints,
        "reps": st.integers(1, 10),
        "seed": seeds,
    }
)
distances_docs = st.fixed_dictionaries(
    {
        "pairs": st.lists(st.fixed_dictionaries({"p": measures, "q": measures}), min_size=1, max_size=2),
        "losses": st.lists(loss_specs, min_size=1, max_size=2),
    }
)
check_docs = st.fixed_dictionaries(
    {},
    optional={
        "loss": st.sampled_from(cli._ASSUMPTION_LOSSES + ("hellinger2",)),
        "space_size": st.integers(2, 4),
        "triples": st.integers(1, 3),
        "seed": seeds,
    },
)
DOCS = {
    "estimate": estimate_docs(),
    "test": test_docs,
    "simulate": simulate_docs(),
    "distances": distances_docs,
    "check-assumptions": check_docs,
}

# Values for each flag a command's ``cli._COMMANDS`` row may register.
FLAG_VALUES = {
    "seed": seeds.map(str),
    "epsilon": st.floats(0.01, 2.0).map(repr),
    "loss": st.sampled_from(cli._ASSUMPTION_LOSSES + ("hellinger2",)),
    "space_size": st.integers(2, 4).map(str),
    "triples": st.integers(1, 3).map(str),
}
JUNK = st.sampled_from([None, "x", -1, 0, True, 1.5, math.inf, [], {}, [None]])


@st.composite
def spoilt(draw, doc):
    """``doc`` as drawn, or with one top-level key dropped, replaced by junk, or added."""
    how = draw(st.sampled_from(["keep", "keep", "drop", "junk", "junk", "add"]))
    if how in ("drop", "junk") and doc:
        key = draw(st.sampled_from(sorted(doc)))
        if how == "drop":
            del doc[key]
        else:
            doc[key] = draw(JUNK)
    elif how == "add":
        doc[draw(st.sampled_from(["bogus", "command", "verbosity"]))] = draw(JUNK | st.integers(0, 2))
    return doc


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(DOCS)))
    doc = draw(DOCS[command].flatmap(spoilt))
    if draw(st.booleans()):
        doc["verbosity"] = 0
    row_flags = cli._COMMANDS[command][1]
    flags = []
    for flag in draw(st.lists(st.sampled_from(row_flags), unique=True)) if row_flags else []:
        flags += ["--" + flag.replace("_", "-"), draw(FLAG_VALUES[flag])]
    return command, doc, flags


def _parses(path: Path) -> None:
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text)
    elif path.suffix == ".jsonl":
        for line in text.splitlines():
            json.loads(line)
    else:
        assert path.suffix == ".csv"
        header, *rows = csv.reader(io.StringIO(text))
        assert all(header) and all(rows)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_config_exits_cleanly(invocation):
    command, doc, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        # A spoilt value may be infinite, which JSON writes as Infinity.
        config.write_text(json.dumps(doc))
        stderr = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(config), "--out", str(out), *flags])
        elapsed = time.perf_counter() - started
        assert code in (0, 2, 3), (code, stderr.getvalue())
        if code:
            assert stderr.getvalue().startswith(("config error:", "numerical failure:")), stderr.getvalue()
        else:
            artifacts = sorted(out.iterdir())
            assert artifacts
            for path in artifacts:
                _parses(path)
        assert elapsed < _TIME_BOUND, (command, doc, flags, elapsed)
