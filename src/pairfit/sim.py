"""Seeded Monte Carlo experiments over the pairwise estimator and tests.

A :class:`Scenario` bundles a data-generating truth (one shared measure, a
per-coordinate contamination of one, or an explicit vector of measures), a
candidate-family config, a loss, and the run geometry.  Every replication
draws its own counter-based RNG stream keyed by (seed, replication index):
a loop restarts one generator per thread at each replication's key, so
results are bit-identical no matter how replications are scheduled across
threads.  Attained losses are always measured against the true marginals,
never against the sample.  The artifact builders emit byte-stable CSV, JSON
lines, and summary documents.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import vc_bound_tv, wasserstein_dev_bound
from .errors import ConfigError, _check_keys, _integer, _number_list, _positive_finite, _positive_int
from .estimator import Model, PairwiseEngine, _suprema_and_choice
from .losses import LossSpec, aggregate_loss, loss
from .measures import (
    Measure,
    MixtureMeasure,
    _restart_stream,
    measure_from_config,
    philox_rng as replication_rng,
)
from .models import ModelBuilderConfig, build
from .robust_tests import (
    Decision,
    _sign_decision,
    bernstein_bound,
    hoeffding_bound,
)

__all__ = [
    "FORMAT_VERSION",
    "Contamination",
    "Scenario",
    "ReplicationRow",
    "ExperimentRecord",
    "replication_rng",
    "sample_truth",
    "truth_marginals",
    "run_estimation",
    "simulate",
    "deviation_frequency",
    "rate_curve",
    "test_error_mc",
    "records_csv_text",
    "records_jsonl_text",
    "summary_json_text",
    "curve_csv_text",
]

FORMAT_VERSION = "1"

# ``test_error_mc`` scores its replications in blocks of at most this many
# observations, so the per-call overhead is paid once a block while a
# block's score temporaries stay small.
_BLOCK_OBSERVATIONS = 2**14


@dataclass(frozen=True)
class Contamination:
    """Coordinate-wise contamination of a base truth.

    Coordinate i draws from the contaminant with probability ``alphas[i]``
    and from the base otherwise, so its marginal is the usual two-component
    mixture.
    """

    base: Measure
    alphas: tuple[float, ...]
    contaminant: Measure

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not self.alphas:
            raise ConfigError("contamination needs at least one alpha")
        if any(not 0.0 <= a <= 1.0 for a in self.alphas):
            raise ConfigError("contamination weights must lie in [0, 1]")


_SCENARIO_KEYS = {"truth", "model", "loss", "n", "epsilon", "replications", "seed"}
_TRUTH_KEYS = {
    "iid": {"measure"},
    "contaminated": {"base", "alphas", "contaminant"},
    "tuples": {"components"},
}


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment: truth, model, loss, and run geometry."""

    truth: Measure | Contamination | tuple[Measure, ...]
    model: ModelBuilderConfig
    loss: LossSpec
    n: int
    epsilon: float = 1.0
    replications: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.truth, list):
            object.__setattr__(self, "truth", tuple(self.truth))
        _positive_int(self.n, "n")
        _positive_int(self.replications, "replications")
        _positive_finite(self.epsilon, "epsilon")
        _integer(self.seed, "seed")
        if isinstance(self.truth, Contamination) and len(self.truth.alphas) != self.n:
            raise ConfigError(
                f"contamination has {len(self.truth.alphas)} weights for n = {self.n}"
            )
        if isinstance(self.truth, tuple):
            if len(self.truth) != self.n:
                raise ConfigError(
                    f"truth vector has {len(self.truth)} coordinates for n = {self.n}"
                )
            if not all(isinstance(m, Measure) for m in self.truth):
                raise ConfigError("truth vector entries must be measures")
        elif not isinstance(self.truth, (Measure, Contamination)):
            raise ConfigError(
                "truth must be a measure, a contamination, or a vector of measures"
            )

    # -- config round-trip ---------------------------------------------------

    def to_config(self) -> dict:
        if isinstance(self.truth, Contamination):
            truth_cfg = {
                "kind": "contaminated",
                "base": self.truth.base.to_config(),
                "alphas": list(self.truth.alphas),
                "contaminant": self.truth.contaminant.to_config(),
            }
        elif isinstance(self.truth, tuple):
            truth_cfg = {
                "kind": "tuples",
                "components": [m.to_config() for m in self.truth],
            }
        else:
            truth_cfg = {"kind": "iid", "measure": self.truth.to_config()}
        return {
            "truth": truth_cfg,
            "model": self.model.to_config(),
            "loss": self.loss.to_config(),
            "n": self.n,
            "epsilon": self.epsilon,
            "replications": self.replications,
            "seed": self.seed,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "Scenario":
        if not isinstance(cfg, dict):
            raise ConfigError("scenario config must be a mapping")
        _check_keys(cfg, _SCENARIO_KEYS, "scenario", {"truth", "model", "loss", "n"})
        truth_cfg = cfg["truth"]
        if not isinstance(truth_cfg, dict) or "kind" not in truth_cfg:
            raise ConfigError("scenario truth must be a mapping with a 'kind' key")
        kind = truth_cfg["kind"]
        fields = _TRUTH_KEYS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise ConfigError(f"unknown truth kind {kind!r}")
        _check_keys(truth_cfg, fields | {"kind"}, f"{kind} truth", fields)
        if kind == "iid":
            truth: Measure | Contamination | tuple = measure_from_config(
                truth_cfg["measure"]
            )
        elif kind == "contaminated":
            truth = Contamination(
                base=measure_from_config(truth_cfg["base"]),
                alphas=tuple(_number_list(truth_cfg["alphas"], "truth 'alphas'")),
                contaminant=measure_from_config(truth_cfg["contaminant"]),
            )
        else:
            components = truth_cfg["components"]
            if not isinstance(components, list):
                raise ConfigError(f"truth 'components' must be a list, got {components!r}")
            truth = tuple(measure_from_config(c) for c in components)
        return cls(
            truth=truth,
            model=ModelBuilderConfig.from_config(cfg["model"]),
            loss=LossSpec.from_config(cfg["loss"]),
            n=cfg["n"],
            epsilon=cfg.get("epsilon", 1.0),
            replications=cfg.get("replications", 1),
            seed=cfg.get("seed", 0),
        )

    def digest(self) -> str:
        """Design fingerprint: everything except the seed."""
        cfg = self.to_config()
        del cfg["seed"]
        blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReplicationRow:
    """One replication's outcome."""

    rep: int
    chosen: int
    loss: float
    sup_stat: float


@dataclass(frozen=True)
class ExperimentRecord:
    digest: str
    scenario: dict
    rows: tuple[ReplicationRow, ...]
    summary: dict

    def __post_init__(self) -> None:
        if len(self.rows) != self.scenario["replications"]:
            raise ConfigError(
                f"{len(self.rows)} rows for {self.scenario['replications']} replications"
            )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_truth(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    truth = scenario.truth
    if isinstance(truth, Contamination):
        flips = rng.random(scenario.n)
        base_draw = truth.base.sample(scenario.n, rng)
        cont_draw = truth.contaminant.sample(scenario.n, rng)
        return np.where(flips < np.asarray(truth.alphas), cont_draw, base_draw)
    if isinstance(truth, tuple):
        return np.array([float(m.sample(1, rng)[0]) for m in truth])
    return truth.sample(scenario.n, rng)


def truth_marginals(scenario: Scenario) -> list[Measure] | Measure:
    """The true coordinate marginals that attained losses are measured against."""
    truth = scenario.truth
    if isinstance(truth, Contamination):
        mixtures: dict[float, Measure] = {}
        out = []
        for a in truth.alphas:
            if a not in mixtures:
                if a == 0.0:
                    mixtures[a] = truth.base
                else:
                    mixtures[a] = MixtureMeasure(truth.base, a, truth.contaminant)
            out.append(mixtures[a])
        return out
    if isinstance(truth, tuple):
        return list(truth)
    return truth


class _LossTable:
    """Per-candidate attained loss against the truth, computed lazily.

    Contaminated truths repeat one mixture object across coordinates, so
    losses are computed once per distinct marginal and weighted by its
    multiplicity.  Values are deterministic, so a benign double-compute
    under threads cannot change any recorded number.
    """

    def __init__(self, scenario: Scenario, model) -> None:
        self._spec = scenario.loss
        self._n = scenario.n
        self._marginals = truth_marginals(scenario)
        if isinstance(self._marginals, list):
            groups: dict[int, int] = {}
            members: dict[int, Measure] = {}
            for m in self._marginals:
                groups[id(m)] = groups.get(id(m), 0) + 1
                members[id(m)] = m
            self._grouped = [(members[k], c) for k, c in groups.items()]
        else:
            self._grouped = [(self._marginals, self._n)]
        self._candidates = model.candidates
        self._tuples = model.product_form == "tuples"
        self._cache: dict[int, float] = {}

    def __call__(self, index: int) -> float:
        value = self._cache.get(index)
        if value is None:
            cand = self._candidates[index]
            if self._tuples:
                value = (
                    aggregate_loss(self._spec, self._marginals, list(cand), n=self._n)
                    / self._n
                )
            else:
                value = (
                    sum(c * loss(self._spec, m, cand) for m, c in self._grouped)
                    / self._n
                )
            self._cache[index] = value
        return value

    def minimum(self) -> float:
        return min(self(i) for i in range(len(self._candidates)))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _summarize(rows: tuple[ReplicationRow, ...]) -> dict:
    losses = np.array([r.loss for r in rows])
    sups = np.array([r.sup_stat for r in rows])
    q10, q25, q50, q75, q90 = (
        float(v) for v in np.quantile(losses, [0.1, 0.25, 0.5, 0.75, 0.9])
    )
    counts: dict[str, int] = {}
    for r in rows:
        counts[str(r.chosen)] = counts.get(str(r.chosen), 0) + 1
    return {
        "loss": {
            "mean": float(losses.mean()),
            "median": q50,
            "q10": q10,
            "q25": q25,
            "q75": q75,
            "q90": q90,
            "min": float(losses.min()),
            "max": float(losses.max()),
        },
        "sup_stat": {"mean": float(sups.mean()), "median": float(np.median(sups))},
        "chosen_counts": counts,
    }


def run_estimation(scenario: Scenario, threads: int = 1) -> ExperimentRecord:
    """Run every replication of the scenario and record outcomes.

    Deterministic for a given (scenario, seed): thread count only changes
    scheduling, never any recorded value.
    """
    return simulate(scenario, threads=threads)[0]


def simulate(
    scenario: Scenario, xis: list | None = None, ns: list | None = None, threads: int = 1
) -> tuple[ExperimentRecord, dict]:
    """What ``pairfit simulate`` runs: the scenario's record and its extras.

    The extras hold ``deviation_frequency(record, xis)`` under
    ``"deviation"`` when ``xis`` is given and ``rate_curve(scenario, ns)``
    under ``"rate"`` when ``ns`` is given, each equal to the separate call.
    One model and one engine serve all three, and the rate row at
    ``n == scenario.n`` reads the record instead of replicating again.
    """
    model = build(scenario.model)
    engine = PairwiseEngine(scenario.loss, model)
    record = _replicate(scenario, engine, _LossTable(scenario, model), threads)
    extra = {}
    if xis is not None:
        extra["deviation"] = _deviation_table(record, xis, scenario, model)
    if ns is not None:
        extra["rate"] = _rate_curve(scenario, ns, engine, threads, record)
    return record, extra


def _replicate(
    scenario: Scenario, engine: PairwiseEngine, table: _LossTable, threads: int
) -> ExperimentRecord:
    """Every replication of ``scenario`` through a prebuilt engine and loss table.

    The engine depends only on the model and the loss, so callers that run
    several scenarios over one model (``rate_curve``, ``simulate``) build it
    once.  At most one worker per replication runs; a row depends only on
    ``(seed, rep)``, so the worker count never changes a byte.
    """
    _positive_int(threads, "threads")
    seed = scenario.seed

    def run(reps: range) -> list[ReplicationRow]:
        # One generator per call, so no two threads share one; each
        # replication restarts it at its own (seed, rep) stream.
        rng = replication_rng(seed)
        rows = []
        for rep in reps:
            x = sample_truth(scenario, _restart_stream(rng, seed, rep))
            sup, chosen = _suprema_and_choice(engine.statistic_matrix(x))
            rows.append(
                ReplicationRow(
                    rep=rep, chosen=chosen, loss=table(chosen), sup_stat=float(sup[chosen])
                )
            )
        return rows

    total = scenario.replications
    workers = min(threads, total)
    if workers > 1:
        # Contiguous chunks, one per worker, concatenated in rep order.
        cuts = [total * i // workers for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(run, [range(a, b) for a, b in zip(cuts, cuts[1:])])
            rows = tuple(row for chunk in chunks for row in chunk)
    else:
        rows = tuple(run(range(total)))
    return ExperimentRecord(
        digest=scenario.digest(),
        scenario=scenario.to_config(),
        rows=rows,
        summary=_summarize(rows),
    )


def _deviation_bound(scenario: Scenario, model, xi: float, inf_loss: float) -> float:
    kind = scenario.loss.kind
    if kind == "wasserstein1":
        return float(
            wasserstein_dev_bound(
                n=scenario.n, xi=xi, epsilon=scenario.epsilon, approx=inf_loss
            )
        )
    if kind == "tv":
        if model.vc_dimension is None:
            raise ConfigError(
                "TV deviation bound needs a model with a VC dimension"
            )
        return float(
            vc_bound_tv(
                V=model.vc_dimension,
                n=scenario.n,
                xi=xi,
                epsilon=scenario.epsilon,
                approx=inf_loss,
            )
        )
    raise ConfigError(f"no deviation bound wired for loss kind {kind!r}")


def deviation_frequency(record: ExperimentRecord, xis: list) -> dict:
    """Empirical frequency of {attained loss <= bound(xi)} next to its target.

    The frequency runs over the record's replications; the bound takes the
    model's best attainable loss and VC dimension from the record's
    scenario, so no replication runs again.  The guarantee is one-sided:
    each frequency should be at least ``1 - exp(-xi)`` up to Monte Carlo
    noise, with slack when the bound's constants are conservative.
    """
    scenario = Scenario.from_config(record.scenario)
    return _deviation_table(record, xis, scenario, build(scenario.model))


def _deviation_table(record: ExperimentRecord, xis: list, scenario: Scenario, model) -> dict:
    inf_loss = _LossTable(scenario, model).minimum()
    losses = np.array([r.loss for r in record.rows])
    rows = []
    for xi in xis:
        if not xi > 0:
            raise ConfigError(f"xi must be positive, got {xi!r}")
        bound = _deviation_bound(scenario, model, float(xi), inf_loss)
        rows.append(
            {
                "xi": float(xi),
                "bound": bound,
                "frequency": float(np.mean(losses <= bound)),
                "target": 1.0 - math.exp(-float(xi)),
            }
        )
    return {"digest": record.digest, "inf_loss": inf_loss, "rows": rows}


def rate_curve(scenario: Scenario, ns: list, threads: int = 1) -> dict:
    """Median attained loss at each sample size, plus a fitted log-log slope."""
    engine = PairwiseEngine(scenario.loss, build(scenario.model))
    return _rate_curve(scenario, ns, engine, threads)


def _rate_curve(
    scenario: Scenario,
    ns: list,
    engine: PairwiseEngine,
    threads: int,
    record: ExperimentRecord | None = None,
) -> dict:
    """``rate_curve`` through a prebuilt engine; ``record`` is the row at ``scenario.n``."""
    if not ns:
        raise ConfigError("rate_curve needs at least one sample size")
    rows = []
    for n in ns:
        if record is None or int(n) != scenario.n:
            at_n = dataclasses.replace(scenario, n=int(n))
            rec = _replicate(at_n, engine, _LossTable(at_n, engine.model), threads)
        else:
            rec = record
        rows.append({"n": int(n), "median_loss": rec.summary["loss"]["median"]})
    medians = np.array([r["median_loss"] for r in rows])
    slope = None
    if len(rows) >= 2 and np.all(medians > 0):
        slope = float(
            np.polyfit(np.log([r["n"] for r in rows]), np.log(medians), 1)[0]
        )
    return {"rows": rows, "slope": slope}


def test_error_mc(
    P_star: Measure,
    P: Measure,
    Q: Measure,
    loss_spec: LossSpec,
    n: int,
    reps: int,
    seed: int,
) -> dict:
    """Monte Carlo error of the two-point test under sampling from P_star.

    P is the candidate the truth is (weakly) closer to, so a wrong decision
    is choosing Q; ties abstain in favor of P and are tallied separately.
    When every replication ties (P and Q indistinguishable) the error
    frequency is reported as None rather than zero.

    The pair's engine is built once.  Replications are decided in blocks
    of whole replications, at most ``_BLOCK_OBSERVATIONS`` observations
    (and at least one replication) each: every replication draws its own
    ``(seed, rep)`` stream into its row of the block, and one
    ``pair_statistics`` call scores the block.  Row r of that call is
    bitwise the statistic ``run_test`` computes on replication r's sample
    alone, so every decision is ``run_test``'s.
    """
    _positive_int(reps, "reps")
    _positive_int(n, "n")
    engine = PairwiseEngine(loss_spec, Model([P, Q]))
    tallies = {Decision.CHOOSE_P: 0, Decision.CHOOSE_Q: 0, Decision.TIE: 0}
    rng = replication_rng(seed)
    per_block = max(1, _BLOCK_OBSERVATIONS // n)
    block = np.empty((min(per_block, reps), n))
    for start in range(0, reps, per_block):
        rows = block[: min(per_block, reps - start)]
        for r in range(len(rows)):
            rows[r] = P_star.sample(n, _restart_stream(rng, seed, start + r))
        for statistic in engine.pair_statistics(rows)[:, 0].tolist():
            tallies[_sign_decision(statistic)] += 1
    consts = loss_spec.constants
    loss_P = loss(loss_spec, P_star, P)
    loss_Q = loss(loss_spec, P_star, Q)
    agg_Q = n * loss_Q
    if loss_Q > 0:
        # a1 * loss_Q can underflow to 0 for a tiny a1; a0 / a1 is at most 6.
        scaled_Q = consts.a1 * loss_Q
        gamma = (consts.a0 * loss_P) / scaled_Q if scaled_Q > 0 else (consts.a0 / consts.a1) * (loss_P / loss_Q)
        bound_h = hoeffding_bound(consts.a1, gamma, agg_Q, n)
        bound_b = None if consts.a2 is None else bernstein_bound(consts.a0, consts.a1, consts.a2, gamma, agg_Q)
    else:
        gamma = None
        bound_h = 1.0
        bound_b = 1.0 if consts.a2 is not None else None
    decided = tallies[Decision.CHOOSE_P] + tallies[Decision.CHOOSE_Q]
    if decided == 0:
        empirical = None
        three_sigma = None
        note = "all replications tied; error frequency undefined"
    else:
        empirical = tallies[Decision.CHOOSE_Q] / reps
        three_sigma = 3.0 * math.sqrt(max(empirical * (1.0 - empirical), 0.0) / reps)
        note = f"empirical error {empirical} within {three_sigma} (3-sigma binomial)"
    return {
        "empirical_error": empirical,
        "choose_p": tallies[Decision.CHOOSE_P],
        "choose_q": tallies[Decision.CHOOSE_Q],
        "ties": tallies[Decision.TIE],
        "replications": reps,
        "gamma": gamma,
        "bound_hoeffding": bound_h,
        "bound_bernstein": bound_b,
        "three_sigma": three_sigma,
        "note": note,
    }


# ---------------------------------------------------------------------------
# Artifact builders (all byte-deterministic)
# ---------------------------------------------------------------------------


def _csv_text(header: tuple[str, ...], rows) -> str:
    """The one CSV format: floats as ``repr(float(v))``, all else as ``str``, no quoting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(doc: dict) -> str:
    """The one JSON document format: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def records_csv_text(record: ExperimentRecord) -> str:
    rows = ((r.rep, r.chosen, r.loss, r.sup_stat) for r in record.rows)
    return _csv_text(("rep", "chosen", "loss", "sup_stat"), rows)


def records_jsonl_text(record: ExperimentRecord) -> str:
    # An explicit dict: ``dataclasses.asdict`` doubles the time per row.
    rows = (
        {"rep": r.rep, "chosen": r.chosen, "loss": r.loss, "sup_stat": r.sup_stat}
        for r in record.rows
    )
    return "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n"


def summary_json_text(record: ExperimentRecord, extra: dict | None = None) -> str:
    doc = {"format_version": FORMAT_VERSION, "digest": record.digest, "scenario": record.scenario}
    return _json_text({**doc, "summary": record.summary, **(extra or {})})


def curve_csv_text(table: dict) -> str:
    rows = ((row["n"], row["median_loss"]) for row in table["rows"])
    return _csv_text(("n", "median_loss"), rows)
