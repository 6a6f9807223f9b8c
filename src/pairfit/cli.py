"""Command-line front end.

Parses a JSON config document, dispatches to the estimator, the robust
two-point test harness, or the Monte Carlo runner, and writes plot-ready
artifacts (``summary.json``, ``records.csv``, optional ``records.jsonl``
and ``curve.csv``) under the declared output directory.

Exit codes: 0 on success, 2 on a configuration problem, 3 on a numerical
failure (including a failed assumption audit).  ``--describe`` prints the
fully resolved config as canonical JSON and exits without running; feeding
that output back through ``--config`` resolves to the identical document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import sim
from .errors import (
    ConfigError, NumericalError, _check_keys, _number_list, _positive_finite, _positive_int
)
from .estimator import ell_estimate
from .losses import LossSpec, loss
from .measures import (
    DiscreteMeasure,
    HistogramMeasure,
    PartitionRef,
    measure_from_config,
)
from .models import ModelBuilderConfig, build
from .testfam import check_assumptions_exact, check_cond3bis

_FORMATS = ("csv", "json-lines", "summary")
_ASSUMPTION_LOSSES = ("tv", "hellinger", "kl", "l1.5", "l2", "l3", "linf", "wasserstein1")
_SLACK_TOL = 1e-12


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairfit",
        description="Pairwise-test minimum-distance estimation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("estimate", "run the estimator on one sample"),
        ("test", "Monte Carlo error frequency of the robust two-point test"),
        ("simulate", "replicated estimation runs with optional sweeps"),
        ("distances", "evaluate losses on measure pairs"),
        ("check-assumptions", "audit the score-family assumptions exactly"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config document")
        # Each override is registered only where its resolver reads it.
        if name != "distances":
            p.add_argument("--seed", type=int, help="override the config seed")
        if name in ("estimate", "simulate"):
            p.add_argument(
                "--epsilon", type=float, help="override the minimizer tolerance"
            )
        p.add_argument(
            "--out", type=Path, default=Path("."), help="output directory"
        )
        p.add_argument(
            "--describe",
            action="store_true",
            help="print the resolved config and exit without running",
        )
        p.add_argument(
            "--threads", type=int, default=1, help="worker threads for simulate"
        )
        if name == "check-assumptions":
            p.add_argument(
                "--loss",
                choices=_ASSUMPTION_LOSSES + ("hellinger2",),
                help="score family to audit",
            )
            p.add_argument(
                "--space-size", type=int, help="atoms per random space"
            )
            p.add_argument(
                "--triples", type=int, help="random (P, Q, S) triples to draw"
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _dispatch(args: argparse.Namespace) -> int:
    # Only simulate uses --threads, but every command takes it, so each one checks it.
    _positive_int(args.threads, "threads")
    doc = _load_document(args.config)
    resolver, runner = {
        "estimate": (_resolve_estimate, _run_estimate),
        "test": (_resolve_test, _run_test),
        "simulate": (_resolve_simulate, _run_simulate),
        "distances": (_resolve_distances, _run_distances),
        "check-assumptions": (_resolve_check, _run_check),
    }[args.command]
    resolved = resolver(doc, args)
    if args.describe:
        sys.stdout.write(sim._json_text(resolved))
        return 0
    return runner(resolved, args)


# ---------------------------------------------------------------------------
# Config loading and resolution
# ---------------------------------------------------------------------------


def _load_document(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _check_command(doc: dict, expected: str) -> None:
    if "command" in doc and doc["command"] != expected:
        raise ConfigError(
            f"config names command {doc['command']!r} but {expected!r} was invoked"
        )


def _require(doc: dict, key: str, command: str):
    if key not in doc:
        raise ConfigError(f"{command} config is missing the {key!r} key")
    return doc[key]


def _canonical(resolved: dict) -> dict:
    """Normalize to plain JSON types so resolution is idempotent."""
    return json.loads(json.dumps(resolved))


def _seed(doc: dict, args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return seed


def _verbosity(doc: dict) -> int:
    v = doc.get("verbosity", 1)
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ConfigError(f"verbosity must be a nonnegative integer, got {v!r}")
    return v


def _resolve_estimate(doc: dict, args: argparse.Namespace) -> dict:
    _check_command(doc, "estimate")
    _check_keys(
        doc,
        {"command", "model", "loss", "epsilon", "sample", "truth", "n", "seed",
         "verbosity"},
        "estimate",
    )
    model_cfg = ModelBuilderConfig.from_config(
        _require(doc, "model", "estimate")
    ).to_config()
    loss_cfg = LossSpec.from_config(_require(doc, "loss", "estimate")).to_config()
    epsilon = args.epsilon if args.epsilon is not None else doc.get("epsilon", 1.0)
    _positive_finite(epsilon, "epsilon")
    resolved = {
        "command": "estimate",
        "model": model_cfg,
        "loss": loss_cfg,
        "epsilon": float(epsilon),
        "verbosity": _verbosity(doc),
    }
    if "sample" in doc and "truth" in doc:
        raise ConfigError("estimate config must set either sample or truth, not both")
    if "sample" in doc:
        sample = [float(x) for x in _number_list(doc["sample"], "sample")]
        if not sample or not all(math.isfinite(x) for x in sample):
            raise ConfigError("sample must be a non-empty list of finite numbers")
        resolved["sample"] = sample
    elif "truth" in doc:
        resolved["truth"] = measure_from_config(doc["truth"]).to_config()
        resolved["n"] = _positive_int(_require(doc, "n", "estimate"), "n")
        resolved["seed"] = _seed(doc, args)
    else:
        raise ConfigError("estimate config needs a sample or a truth to draw from")
    return _canonical(resolved)


def _resolve_test(doc: dict, args: argparse.Namespace) -> dict:
    _check_command(doc, "test")
    _check_keys(
        doc,
        {"command", "truth", "p", "q", "loss", "n", "reps", "seed", "verbosity"},
        "test",
    )
    resolved = {
        "command": "test",
        "truth": measure_from_config(_require(doc, "truth", "test")).to_config(),
        "p": measure_from_config(_require(doc, "p", "test")).to_config(),
        "q": measure_from_config(_require(doc, "q", "test")).to_config(),
        "loss": LossSpec.from_config(_require(doc, "loss", "test")).to_config(),
        "n": _positive_int(_require(doc, "n", "test"), "n"),
        "reps": _positive_int(_require(doc, "reps", "test"), "reps"),
        "seed": _seed(doc, args),
        "verbosity": _verbosity(doc),
    }
    return _canonical(resolved)


def _resolve_simulate(doc: dict, args: argparse.Namespace) -> dict:
    _check_command(doc, "simulate")
    _check_keys(
        doc, {"command", "scenario", "xis", "ns", "formats", "verbosity"}, "simulate"
    )
    scen_cfg = _require(doc, "scenario", "simulate")
    if not isinstance(scen_cfg, dict):
        raise ConfigError(f"simulate 'scenario' must be a mapping, got {scen_cfg!r}")
    scen_cfg = dict(scen_cfg)
    if args.seed is not None:
        scen_cfg["seed"] = args.seed
    if args.epsilon is not None:
        scen_cfg["epsilon"] = args.epsilon
    if "seed" not in scen_cfg:
        raise ConfigError("simulate needs a seed: set scenario.seed or pass --seed")
    scenario = sim.Scenario.from_config(scen_cfg)
    resolved = {
        "command": "simulate",
        "scenario": scenario.to_config(),
        "verbosity": _verbosity(doc),
    }
    if "xis" in doc:
        xis = [float(x) for x in _number_list(doc["xis"], "xis")]
        if not xis or any(x <= 0 or not math.isfinite(x) for x in xis):
            raise ConfigError("xis must be a non-empty list of positive numbers")
        resolved["xis"] = xis
    if "ns" in doc:
        if not isinstance(doc["ns"], list) or not doc["ns"]:
            raise ConfigError(f"ns must be a non-empty list of sample sizes, got {doc['ns']!r}")
        resolved["ns"] = [_positive_int(n, "ns entry") for n in doc["ns"]]
    formats = doc.get("formats", ["csv", "summary"])
    if not isinstance(formats, list) or not formats or any(f not in _FORMATS for f in formats):
        raise ConfigError(f"formats must be a non-empty subset of {_FORMATS}, got {formats!r}")
    resolved["formats"] = list(formats)
    return _canonical(resolved)


def _resolve_distances(doc: dict, args: argparse.Namespace) -> dict:
    _check_command(doc, "distances")
    _check_keys(doc, {"command", "pairs", "losses", "verbosity"}, "distances")
    pairs_cfg = _require(doc, "pairs", "distances")
    losses_cfg = _require(doc, "losses", "distances")
    if not isinstance(pairs_cfg, list) or not pairs_cfg:
        raise ConfigError("pairs must be a non-empty list of {p, q} mappings")
    if not isinstance(losses_cfg, list) or not losses_cfg:
        raise ConfigError("losses must be a non-empty list of loss configs")
    pairs = []
    for idx, pair in enumerate(pairs_cfg):
        if not isinstance(pair, dict) or set(pair) != {"p", "q"}:
            raise ConfigError(f"pairs[{idx}] must be a mapping with keys p and q")
        pairs.append(
            {
                "p": measure_from_config(pair["p"]).to_config(),
                "q": measure_from_config(pair["q"]).to_config(),
            }
        )
    resolved = {
        "command": "distances",
        "pairs": pairs,
        "losses": [LossSpec.from_config(c).to_config() for c in losses_cfg],
        "verbosity": _verbosity(doc),
    }
    return _canonical(resolved)


def _resolve_check(doc: dict, args: argparse.Namespace) -> dict:
    _check_command(doc, "check-assumptions")
    _check_keys(
        doc,
        {"command", "loss", "space_size", "triples", "seed", "verbosity"},
        "check-assumptions",
    )
    loss_name = args.loss if args.loss is not None else doc.get("loss")
    if loss_name == "hellinger2":
        loss_name = "hellinger"
    if loss_name not in _ASSUMPTION_LOSSES:
        raise ConfigError(
            f"check-assumptions needs --loss from {_ASSUMPTION_LOSSES}, "
            f"got {loss_name!r}"
        )
    space_size = (
        args.space_size if args.space_size is not None else doc.get("space_size", 5)
    )
    triples = args.triples if args.triples is not None else doc.get("triples", 200)
    resolved = {
        "command": "check-assumptions",
        "loss": loss_name,
        "space_size": _positive_int(space_size, "space_size"),
        "triples": _positive_int(triples, "triples"),
        "seed": _seed(doc, args),
        "verbosity": _verbosity(doc),
    }
    if resolved["space_size"] < 2:
        raise ConfigError("space_size must be at least 2")
    return _canonical(resolved)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir} is not writable: {exc}") from exc
    return path


def _summary_text(resolved: dict, **payload) -> str:
    """A command's ``summary.json``: its resolved config, then its payload."""
    head = {"format_version": sim.FORMAT_VERSION, "command": resolved["command"]}
    return sim._json_text({**head, "config": resolved, **payload})


def _say(resolved: dict, message: str) -> None:
    if resolved.get("verbosity", 1) > 0:
        print(message)


# ---------------------------------------------------------------------------
# Command runners
# ---------------------------------------------------------------------------


def _run_estimate(resolved: dict, args: argparse.Namespace) -> int:
    model = build(ModelBuilderConfig.from_config(resolved["model"]))
    spec = LossSpec.from_config(resolved["loss"])
    if "sample" in resolved:
        sample = np.asarray(resolved["sample"], dtype=float)
    else:
        truth = measure_from_config(resolved["truth"])
        sample = truth.sample(
            resolved["n"], sim.replication_rng(resolved["seed"], 0)
        )
    report = ell_estimate(sample, model, spec, epsilon=resolved["epsilon"])
    summary = _write(args.out, "summary.json", _summary_text(resolved, report=report.to_record()))
    in_set = set(report.minimizer_set)
    rows = ((i, v, int(i in in_set)) for i, v in enumerate(report.sup_stat))
    csv_text = sim._csv_text(("candidate", "sup_stat", "in_minimizer_set"), rows)
    records = _write(args.out, "records.csv", csv_text)
    chosen_note = f"chosen candidate {report.chosen}"
    if model.candidate_params is not None:
        chosen_note += f" (parameter {model.candidate_params[report.chosen]})"
    _say(
        resolved,
        f"{chosen_note}; minimizer set has {len(report.minimizer_set)} of "
        f"{len(report.sup_stat)} candidates; wrote {summary} and {records}",
    )
    return 0


def _run_test(resolved: dict, args: argparse.Namespace) -> int:
    result = sim.test_error_mc(
        measure_from_config(resolved["truth"]),
        measure_from_config(resolved["p"]),
        measure_from_config(resolved["q"]),
        LossSpec.from_config(resolved["loss"]),
        n=resolved["n"],
        reps=resolved["reps"],
        seed=resolved["seed"],
    )
    summary = _write(args.out, "summary.json", _summary_text(resolved, result=result))
    rows = (
        ("choose_p", result["choose_p"]),
        ("choose_q", result["choose_q"]),
        ("tie", result["ties"]),
    )
    _write(args.out, "records.csv", sim._csv_text(("outcome", "count"), rows))
    err = result["empirical_error"]
    err_text = "undefined (all ties)" if err is None else f"{err:.6g}"
    _say(
        resolved,
        f"empirical error {err_text}; Hoeffding bound "
        f"{result['bound_hoeffding']:.6g}; wrote {summary}",
    )
    return 0


def _run_simulate(resolved: dict, args: argparse.Namespace) -> int:
    scenario = sim.Scenario.from_config(resolved["scenario"])
    record, extra = sim.simulate(
        scenario, resolved.get("xis"), resolved.get("ns"), threads=args.threads
    )
    extra["command"] = "simulate"
    formats = resolved["formats"]
    written = []
    if "rate" in extra:
        written.append(_write(args.out, "curve.csv", sim.curve_csv_text(extra["rate"])))
    if "summary" in formats:
        written.append(_write(args.out, "summary.json", sim.summary_json_text(record, extra)))
    if "csv" in formats:
        written.append(_write(args.out, "records.csv", sim.records_csv_text(record)))
    if "json-lines" in formats:
        written.append(_write(args.out, "records.jsonl", sim.records_jsonl_text(record)))
    _say(
        resolved,
        f"design {record.digest[:16]} seed {scenario.seed}: "
        f"{len(record.rows)} replications, mean loss "
        f"{record.summary['loss']['mean']:.6g}; wrote "
        + ", ".join(str(p) for p in written),
    )
    return 0


def _loss_token(spec: LossSpec) -> str:
    cfg = spec.to_config()
    kind = cfg.pop("kind")
    if not cfg:
        return kind
    inner = ",".join(f"{k}={cfg[k]!r}" for k in sorted(cfg))
    return f"{kind}[{inner}]"


def _run_distances(resolved: dict, args: argparse.Namespace) -> int:
    specs = [LossSpec.from_config(c) for c in resolved["losses"]]
    pairs = [(measure_from_config(p["p"]), measure_from_config(p["q"])) for p in resolved["pairs"]]
    rows = [
        {"pair": idx, "loss": _loss_token(spec), "value": float(loss(spec, P, Q))}
        for idx, (P, Q) in enumerate(pairs)
        for spec in specs
    ]
    _write(args.out, "summary.json", _summary_text(resolved, rows=rows))
    # The loss token is not quoted yet, so an ``lj[R=...,j=...]`` row splits.
    csv_text = sim._csv_text(("pair", "loss", "value"), (r.values() for r in rows))
    records = _write(args.out, "records.csv", csv_text)
    _say(resolved, f"evaluated {len(rows)} distances; wrote {records}")
    return 0


def _assumption_spec(loss_name: str, p: np.ndarray, q: np.ndarray, size: int):
    if loss_name == "kl":
        amax = float(np.max(np.abs(np.log(p / q))))
        return LossSpec.kl(a=max(amax, 1e-6) + 1e-9)
    if loss_name in ("l1.5", "l2", "l3"):
        return LossSpec.lj(j=float(loss_name[1:]), R=1.0)
    if loss_name == "linf":
        return LossSpec.linf(D=size)
    # tv, wasserstein1 and hellinger; LossSpec refuses any other name.
    return LossSpec(kind="hellinger2" if loss_name == "hellinger" else loss_name)


def run_assumption_suite(
    loss_name: str, space_size: int, triples: int, seed: int
) -> dict:
    """Audit the score-family assumptions on random discrete spaces.

    Draws ``triples`` triples (P, Q, S) of strictly positive probability
    vectors on ``space_size`` atoms, then verifies antisymmetry, the mean
    bound, and the unit-oscillation bound for the ordered pairs of {P, Q}
    against probes {P, Q, S}, all by exact finite sums.  Families with a
    variance constant (Hellinger, KL) get the variance bound checked too;
    the TV family gets it whenever the pair passes the regularity check,
    whose constant is recorded.  Returns worst-case slacks; positive slack
    beyond ``1e-12`` is a violation.
    """
    rng = np.random.default_rng(seed)
    partition = PartitionRef(space_size, (0.0, 1.0))
    # The atoms lie in [0, 1], where the W1 family lives.
    pts = [i / (space_size - 1) for i in range(space_size)]
    worst = {
        "antisymmetry": 0.0,
        "mean": -math.inf,
        "oscillation": -math.inf,
        "variance": None,
        "cond3bis_a2_prime": None,
    }
    violations: list[str] = []
    pairs = 0
    for t_idx in range(triples):
        raw = rng.uniform(0.05, 1.0, size=(3, space_size))
        vecs = raw / raw.sum(axis=1, keepdims=True)
        spec = _assumption_spec(loss_name, vecs[0], vecs[1], space_size)
        if loss_name == "linf":
            P, Q, S = (
                HistogramMeasure(partition, v * space_size) for v in vecs
            )
        else:
            P, Q, S = (DiscreteMeasure(pts, list(v)) for v in vecs)
        a2 = c3 = None  # Hellinger and KL fall back to their family constant
        if loss_name == "tv":
            c3 = check_cond3bis([P, Q])
            prev = worst["cond3bis_a2_prime"]
            worst["cond3bis_a2_prime"] = (
                c3.a2_prime if prev is None else max(prev, c3.a2_prime)
            )
            if c3.passes:
                a2 = c3.tv_a2
        rep = check_assumptions_exact(spec, [P, Q], [P, Q, S], a2=a2, tol=_SLACK_TOL)
        pairs += rep.pairs_checked
        worst["antisymmetry"] = max(worst["antisymmetry"], rep.worst_antisymmetry)
        worst["mean"] = max(worst["mean"], rep.worst_mean_slack)
        worst["oscillation"] = max(worst["oscillation"], rep.worst_oscillation)
        violations += [f"triple {t_idx}: {v}" for v in rep.violations]
        if c3 is not None and not c3.passes:
            violations.append(f"triple {t_idx}: cond-3bis unbounded")
        if rep.worst_variance_slack is not None:
            prev_var = worst["variance"]
            worst["variance"] = (
                rep.worst_variance_slack
                if prev_var is None
                else max(prev_var, rep.worst_variance_slack)
            )
    return {
        "loss": loss_name,
        "space_size": space_size,
        "triples": triples,
        "seed": seed,
        "pairs_checked": pairs,
        "worst_slacks": worst,
        "tolerance": _SLACK_TOL,
        "passed": not violations,
        "violations": violations[:20],
    }


def _run_check(resolved: dict, args: argparse.Namespace) -> int:
    report = run_assumption_suite(
        resolved["loss"],
        resolved["space_size"],
        resolved["triples"],
        resolved["seed"],
    )
    worst = report["worst_slacks"]
    _say(
        resolved,
        f"assumption audit: loss={report['loss']} space-size="
        f"{report['space_size']} triples={report['triples']} "
        f"seed={report['seed']} ({report['pairs_checked']} ordered pairs)",
    )
    _say(resolved, f"  worst antisymmetry slack: {worst['antisymmetry']:.3e}")
    _say(resolved, f"  worst mean-bound slack:   {worst['mean']:.3e}")
    _say(resolved, f"  worst oscillation slack:  {worst['oscillation']:.3e}")
    if worst["variance"] is not None:
        _say(resolved, f"  worst variance slack:     {worst['variance']:.3e}")
    if worst["cond3bis_a2_prime"] is not None:
        _say(
            resolved,
            f"  regularity constant a2':  {worst['cond3bis_a2_prime']:.6g}",
        )
    if args.out != Path("."):
        path = _write(args.out, "summary.json", _summary_text(resolved, report=report))
        _say(resolved, f"  wrote {path}")
    if not report["passed"]:
        _say(resolved, f"FAIL: {len(report['violations'])} violations")
        raise NumericalError(
            f"assumption audit failed for {report['loss']}: "
            f"{report['violations'][0]}"
        )
    _say(resolved, f"PASS: all checks within {report['tolerance']:g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
