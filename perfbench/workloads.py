"""The four benchmark workloads: their inputs, set-up step and output checks.

Every input is generated from the workload seed; pairfit only ever sees the
JSON configs written here.  ``check`` returns one ``(label, ok)`` item per
checked output, so a run's attempted count is the number of items and its
failed count the number that are not ok.
"""

from __future__ import annotations

import csv
import json
import math
import random
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from pairfit import estimator, models, sim, testfam
from pairfit.losses import LossSpec
from pairfit.measures import measure_from_config

# Checked outputs at this seed must also match the recorded artifact digests.
DEFAULT_SEED = 0
# The code's stated error budget for quadrature distances (``_TV_ERR_BUDGET``).
DISTANCE_TOL = 1e-6


def _gaussian(mean: float, sd: float = 1.0) -> dict:
    return {"family": "gaussian", "params": {"mean": mean, "sd": sd}}


def _cauchy(loc: float, scale: float) -> dict:
    return {"family": "cauchy", "params": {"loc": loc, "scale": scale}}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _argv(command: str, config: Path, out: Path) -> list[str]:
    return [command, "--config", str(config), "--out", str(out), "--threads", "1"]


class Workload:
    """One workload for one seed.

    ``configs`` maps a command label to the config document it runs with;
    ``commands`` gives the ``pairfit.cli.main`` argument lists for one
    repetition writing under ``out``.
    """

    name = ""
    command = ""
    # Rounds of side-by-side repetitions run even past ``--seconds``: two
    # rounds give four samples, whose median spreads less from run to run.
    MIN_ROUNDS = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.configs: dict[str, dict] = self.make_configs(random.Random(seed))

    def make_configs(self, rng: random.Random) -> dict[str, dict]:
        raise NotImplementedError

    def commands(self, config_dir: Path, out: Path) -> list[list[str]]:
        return [
            _argv(self.command, config_dir / f"{label}.json", out / label)
            for label in self.configs
        ]

    def setup(self) -> None:
        """What a library user pays before the first estimate on this input."""
        raise NotImplementedError

    def check_outputs(self, label: str, out: Path) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def check(self, out: Path, exits: list[int]) -> list[tuple[str, bool]]:
        items = []
        for label, code in zip(self.configs, exits):
            items.append((f"{label}: exit {code}", code == 0))
            if code == 0:
                items += self.check_outputs(label, out / label)
        return items


class GridSim(Workload):
    """``pairfit simulate`` on a Gaussian location grid, m = 101, TV loss."""

    name = "grid-sim"
    command = "simulate"
    SPOT_CHECKS = 8
    # One round, so that repeated runs of all four workloads fit their time
    # budget: of the workloads with short repetitions, this one's two
    # side-by-side samples differ least (a few percent).
    MIN_ROUNDS = 1

    def make_configs(self, rng):
        scenario = {
            "truth": {"kind": "iid", "measure": _gaussian(0.1)},
            "model": {
                "family": "gaussian-location-grid",
                "d": 1,
                "lo": -1.0,
                "hi": 1.0,
                "step": 0.02,
            },
            "loss": {"kind": "tv"},
            "n": 400,
            "replications": 2000,
            "seed": self.seed,
        }
        return {
            "simulate": {
                "command": "simulate",
                "scenario": scenario,
                "ns": [100, 200, 400, 800],
                "formats": ["csv", "json-lines", "summary"],
                "verbosity": 0,
            }
        }

    @property
    def scenario_config(self) -> dict:
        return self.configs["simulate"]["scenario"]

    def setup(self):
        model = models.build(self.scenario_config["model"])
        estimator.PairwiseEngine(LossSpec.from_config(self.scenario_config["loss"]), model)

    @cached_property
    def _oracle(self):
        """The scenario, the candidate count and every pair's ``testfam.score``."""
        scenario = sim.Scenario.from_config(self.scenario_config)
        cands = models.build(scenario.model).candidates
        m = len(cands)
        scores = [
            (i, k, testfam.score(scenario.loss, cands[i], cands[k]))
            for i in range(m)
            for k in range(i + 1, m)
        ]
        return scenario, m, scores

    @cache
    def chosen_by_oracle(self, rep: int) -> int:
        """Regenerate replication ``rep`` and pick its estimate pair by pair."""
        scenario, m, scores = self._oracle
        x = sim.sample_truth(scenario, sim.replication_rng(scenario.seed, rep))
        M = np.zeros((m, m))
        for i, k, t in scores:
            M[i, k] = float(t(x).sum())
            M[k, i] = -M[i, k]
        return int(np.argmin(M.max(axis=1)))

    def check_outputs(self, label, out):
        rows = _read_csv(out / "records.csv")
        reps = random.Random(self.seed).sample(range(len(rows)), self.SPOT_CHECKS)
        items = []
        for rep in reps:
            chosen = int(rows[rep]["chosen"])
            expected = self.chosen_by_oracle(rep)
            items.append((f"rep {rep}: chosen {chosen}, oracle {expected}", chosen == expected))
        return items


class HistnetFit(Workload):
    """Three ``pairfit estimate`` fits on a 5-cell histogram net, m = 381."""

    name = "histnet-fit"
    command = "estimate"
    ROW_CHECKS = 2
    LOSSES = {
        "tv": {"kind": "tv"},
        "l2": {"kind": "lj", "j": 2.0, "R": math.sqrt(5.0)},
        "linf": {"kind": "linf", "D": 5},
    }
    MODEL = {"family": "histogram-net", "cells": 5, "value_grid": [0.0, 0.5, 1.0, 1.5, 2.0]}

    def make_configs(self, rng):
        raw = [rng.uniform(0.2, 1.8) for _ in range(5)]
        heights = [5.0 * h / sum(raw) for h in raw]
        truth = {"family": "histogram", "params": {"heights": heights}}
        return {
            label: {
                "command": "estimate",
                "model": self.MODEL,
                "loss": loss,
                "truth": truth,
                "n": 2000,
                "seed": self.seed,
                "verbosity": 0,
            }
            for label, loss in self.LOSSES.items()
        }

    def setup(self):
        model = models.build(self.MODEL)
        estimator.PairwiseEngine(LossSpec.tv(), model)

    @cached_property
    def _candidates(self):
        return models.build(self.MODEL).candidates

    @cache
    def _oracle_input(self, label: str):
        cfg = self.configs[label]
        x = measure_from_config(cfg["truth"]).sample(cfg["n"], sim.replication_rng(self.seed, 0))
        return LossSpec.from_config(cfg["loss"]), x

    @cache
    def stat_by_oracle(self, label: str, i: int, k: int) -> float:
        """Entry (i, k) of the statistic matrix from one ``testfam.score`` call."""
        if i == k:
            return 0.0
        if i > k:
            return -self.stat_by_oracle(label, k, i)
        spec, x = self._oracle_input(label)
        cands = self._candidates
        return float(testfam.score(spec, cands[i], cands[k])(x).sum())

    def sup_by_oracle(self, label: str, row: int) -> float:
        return max(self.stat_by_oracle(label, row, k) for k in range(len(self._candidates)))

    def check_outputs(self, label, out):
        summary = json.loads((out / "summary.json").read_text())
        sups = [float(r["sup_stat"]) for r in _read_csv(out / "records.csv")]
        chosen = summary["report"]["chosen"]
        items = [(f"{label}: chosen {chosen} is the first argmin", chosen == int(np.argmin(sups)))]
        rows = [chosen] + random.Random(self.seed).sample(range(len(sups)), self.ROW_CHECKS)
        for row in rows:
            expected = self.sup_by_oracle(label, row)
            ok = abs(sups[row] - expected) <= 1e-9 * max(1.0, abs(expected))
            items.append((f"{label}: row {row} sup {sups[row]!r}, oracle {expected!r}", ok))
        # Chosen minimises the oracle's row maxima if every other row has an
        # entry at least as large as chosen's maximum, up to rounding.  Rows
        # the program ranks best are tried first: they are the likeliest
        # entries to be large, so few of the 72,390 pairs need scoring.
        best = self.sup_by_oracle(label, chosen) - 1e-9 * max(1.0, abs(sups[chosen]))
        order = sorted(range(len(sups)), key=sups.__getitem__)
        beaten = [
            row
            for row in range(len(sups))
            if not any(self.stat_by_oracle(label, row, k) >= best for k in order)
        ]
        items.append((f"{label}: oracle rows below chosen {chosen}: {beaten}", not beaten))
        return items


class TwoPointMC(Workload):
    """``pairfit test``: Hellinger two-point test, N(0,1) vs N(0.5,1), 1000 reps."""

    name = "two-point-mc"
    command = "test"

    def make_configs(self, rng):
        return {
            "test": {
                "command": "test",
                "truth": _gaussian(0.1),
                "p": _gaussian(0.0),
                "q": _gaussian(0.5),
                "loss": {"kind": "hellinger2"},
                "n": 100,
                "reps": 1000,
                "seed": self.seed,
                "verbosity": 0,
            }
        }

    def setup(self):
        cfg = self.configs["test"]
        pair = estimator.Model([measure_from_config(cfg["p"]), measure_from_config(cfg["q"])])
        estimator.PairwiseEngine(LossSpec.from_config(cfg["loss"]), pair)

    @cached_property
    def _oracle_tallies(self) -> dict:
        """Decision counts from one ``testfam.score`` of (P, Q) summed per replication."""
        cfg = self.configs["test"]
        truth, P, Q = (measure_from_config(cfg[k]) for k in ("truth", "p", "q"))
        t = testfam.score(LossSpec.from_config(cfg["loss"]), P, Q)
        tallies = {"choose_p": 0, "choose_q": 0, "ties": 0}
        for rep in range(cfg["reps"]):
            stat = float(t(truth.sample(cfg["n"], sim.replication_rng(self.seed, rep))).sum())
            tallies["choose_q" if stat > 0 else "choose_p" if stat < 0 else "ties"] += 1
        return tallies

    def check_outputs(self, label, out):
        result = json.loads((out / "summary.json").read_text())["result"]
        got = {k: result[k] for k in ("choose_p", "choose_q", "ties")}
        return [(f"tallies {got}, oracle {self._oracle_tallies}", got == self._oracle_tallies)]


class DistanceTable(Workload):
    """Three ``pairfit distances`` tables of pairs with no closed-form shortcut."""

    name = "distance-table"
    command = "distances"
    # One repetition takes about 50 s, so a second round would not fit the
    # time budget of a run.
    MIN_ROUNDS = 1
    # Always present: adaptive Simpson exhausts its 2^20-panel budget on this
    # pair after about 4.2M integrand points.  The drawn power-law pairs keep
    # shifts of 0.1 and above, where each distance takes milliseconds.
    SLOW_PAIR = {
        "p": {"family": "uniform", "params": {"low": 0.0, "width": 1.0}},
        "q": {"family": "power", "params": {"alpha": 0.5, "shift": 0.02}},
    }

    def make_configs(self, rng):
        u = rng.uniform
        heavy, gaussians = [], []
        for _ in range(7):
            heavy.append({"p": _cauchy(u(-1, 1), u(0.5, 2)), "q": _gaussian(u(-1, 1), u(0.5, 2))})
            mix = {
                "family": "mixture",
                "params": {
                    "base": _gaussian(u(-1, 1), u(0.5, 2)),
                    "alpha": u(0.05, 0.3),
                    "contaminant": _cauchy(u(-1, 1), u(0.5, 2)),
                },
            }
            heavy.append({"p": mix, "q": _gaussian(u(-1, 1), u(0.5, 2))})
            sd = u(0.5, 2)
            gaussians.append({"p": _gaussian(u(-1, 1), sd), "q": _gaussian(u(-1, 1), sd * u(1.2, 2))})
        # Drawn exponents stay at 1 and above, where the power density is
        # bounded: below 1, pairfit's TV error estimate can miss a weak
        # singularity (alpha 0.9315, shift 0.4146 is 1.5e-6 off).  The slow
        # pair keeps a singular one.
        power = [self.SLOW_PAIR] + [
            {
                "p": {"family": "uniform", "params": {"low": 0.0, "width": 1.0}},
                "q": {"family": "power", "params": {"alpha": u(1, 3), "shift": u(0.1, 0.6)}},
            }
            for _ in range(6)
        ]
        hellinger2, l2 = {"kind": "hellinger2"}, {"kind": "lj", "j": 2.0, "R": 1.0}
        return {
            # No TV here: pairfit's TV of a Cauchy (or Cauchy-contaminated)
            # measure and a Gaussian misses the Cauchy mass outside the
            # measure's quadrature window, which is above the 1e-6 budget.
            "heavy-tailed": {
                "command": "distances",
                "pairs": heavy,
                "losses": [hellinger2, l2],
                "verbosity": 0,
            },
            "gaussian": {
                "command": "distances",
                "pairs": gaussians,
                "losses": [{"kind": "tv"}, hellinger2, l2],
                "verbosity": 0,
            },
            "power-law": {
                "command": "distances",
                "pairs": power,
                "losses": [{"kind": "tv"}, hellinger2],
                "verbosity": 0,
            },
        }

    def setup(self):
        """Build every measure and loss spec: all a distances run sets up."""
        for cfg in self.configs.values():
            for pair in cfg["pairs"]:
                measure_from_config(pair["p"]), measure_from_config(pair["q"])
            for loss in cfg["losses"]:
                LossSpec.from_config(loss)

    @cached_property
    def _references(self) -> dict[str, list[float]]:
        # Imported here: SciPy takes about a second to import, and only this
        # workload needs it.
        import references

        by_kind = {"tv": references.tv, "hellinger2": references.hellinger2, "lj": references.l2}
        return {
            label: [
                by_kind[loss["kind"]](pair["p"], pair["q"])
                for pair in cfg["pairs"]
                for loss in cfg["losses"]
            ]
            for label, cfg in self.configs.items()
        }

    def check_outputs(self, label, out):
        cfg = self.configs[label]
        # summary.json, not records.csv: the CSV leaves loss tokens such as
        # "lj[R=1.0,j=2.0]" unquoted, so their commas split the row.
        rows = json.loads((out / "summary.json").read_text())["rows"]
        items = [(f"{label}: {len(rows)} rows", len(rows) == len(self._references[label]))]
        for i, (row, ref) in enumerate(zip(rows, self._references[label])):
            value = row["value"]
            ok = row["pair"] == i // len(cfg["losses"]) and abs(value - ref) <= DISTANCE_TOL
            items.append((f"{label}: pair {row['pair']} {row['loss']} {value!r}, reference {ref!r}", ok))
        return items


WORKLOADS = {cls.name: cls for cls in (GridSim, HistnetFit, TwoPointMC, DistanceTable)}
