"""End-to-end tests for the command-line front end, run in process."""

import csv
import itertools
import json
import math

import pytest

import pairfit.cli as cli
from pairfit.estimator import Model
from pairfit.losses import LossSpec, loss
from pairfit.measures import DiscreteMeasure, GaussianMeasure


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def estimate_doc():
    return {
        "model": {
            "family": "discrete",
            "space_size": 2,
            "candidates": [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]],
        },
        "loss": {"kind": "tv"},
        "sample": [0.0, 1.0] * 15,
    }


def simulate_doc():
    return {
        "scenario": {
            "truth": {
                "kind": "iid",
                "measure": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
            },
            "model": {
                "family": "gaussian-location-grid",
                "d": 1,
                "lo": -1.0,
                "hi": 1.0,
                "step": 0.5,
            },
            "loss": {"kind": "tv"},
            "n": 40,
            "replications": 12,
            "seed": 3,
        },
    }


def simulate_with(**scenario):
    """``simulate_doc`` with the given scenario keys set."""
    doc = simulate_doc()
    doc["scenario"].update(scenario)
    return doc


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "estimate" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(
            ["estimate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["estimate", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_command_mismatch_inside_config(self, tmp_path, capsys):
        doc = estimate_doc()
        doc["command"] = "simulate"
        path = write_config(tmp_path, "e.json", doc)
        assert cli.main(["estimate", "--config", str(path)]) == 2
        assert "was invoked" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("test", "--epsilon"),
            ("distances", "--epsilon"),
            ("check-assumptions", "--epsilon"),
            ("distances", "--seed"),
        ],
    )
    def test_flag_the_command_ignores_exits_two(self, command, flag, capsys):
        assert cli.main([command, flag, "1", "--describe"]) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["estimate", "test", "simulate", "distances", "check-assumptions"]
    )
    def test_threads_flag_accepted_everywhere(self, command, capsys):
        # Without a config most commands stop at resolution; parsing passed.
        cli.main([command, "--threads", "1", "--describe"])
        assert "unrecognized arguments" not in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-5"])
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("estimate", estimate_doc()),
            (
                "test",
                {
                    "truth": {"family": "gaussian", "params": {"mean": 0.0}},
                    "p": {"family": "gaussian", "params": {"mean": 0.0}},
                    "q": {"family": "gaussian", "params": {"mean": 1.0}},
                    "loss": {"kind": "tv"},
                    "n": 5,
                    "reps": 3,
                },
            ),
            (
                "distances",
                {
                    "pairs": [
                        {
                            "p": {"family": "gaussian", "params": {"mean": 0.0}},
                            "q": {"family": "gaussian", "params": {"mean": 1.0}},
                        }
                    ],
                    "losses": [{"kind": "tv"}],
                },
            ),
            ("check-assumptions", {"triples": 2}),
        ],
    )
    def test_threads_below_one_exit_two_on_every_command(self, tmp_path, capsys, command, doc, threads):
        path = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(path), "--out", str(out), "--threads", threads]) == 2
        assert f"threads must be a positive integer, got {threads}" in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    def test_balanced_sample_picks_middle_candidate(self, tmp_path, capsys):
        path = write_config(tmp_path, "e.json", estimate_doc())
        out = tmp_path / "out"
        assert cli.main(["estimate", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["format_version"] == "1"
        assert summary["report"]["chosen"] == 1
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == "candidate,sup_stat,in_minimizer_set"
        assert len(lines) == 4
        flagged = [int(row.split(",")[2]) for row in lines[1:]]
        assert flagged[1] == 1
        assert "chosen candidate 1" in capsys.readouterr().out

    def test_truth_sampling_is_seed_deterministic(self, tmp_path):
        doc = {
            "model": {
                "family": "gaussian-location-grid",
                "d": 1,
                "lo": -1.0,
                "hi": 1.0,
                "step": 0.5,
            },
            "loss": {"kind": "tv"},
            "truth": {"family": "gaussian", "params": {"mean": 0.4, "sd": 1.0}},
            "n": 60,
        }
        path = write_config(tmp_path, "e.json", doc)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                cli.main(
                    ["estimate", "--config", str(path), "--seed", "1", "--out", str(out)]
                )
                == 0
            )
            outs.append((out / "records.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_sample_and_truth_together_rejected(self, tmp_path, capsys):
        doc = estimate_doc()
        doc["truth"] = {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}}
        path = write_config(tmp_path, "e.json", doc)
        assert cli.main(["estimate", "--config", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, flags, named",
        [
            ({"n": 999}, [], "'n'"),
            ({"seed": 5}, [], "'seed'"),
            ({}, ["--seed", "7"], "--seed"),
            ({"n": 999, "seed": 5}, ["--seed", "7"], "'n'"),
        ],
        ids=["n", "seed", "seed-flag", "all-three"],
    )
    def test_truth_draw_settings_with_a_sample_rejected(self, tmp_path, capsys, extra, flags, named):
        # n and the seed only size and seed a draw from a truth; with a
        # sample they used to vanish from the resolved config.
        path = write_config(tmp_path, "e.json", {**estimate_doc(), **extra})
        assert cli.main(["estimate", "--config", str(path), *flags, "--describe"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("config error: estimate config with a sample takes no ")
        assert named in captured.err

    def test_no_data_source_rejected(self, tmp_path):
        doc = estimate_doc()
        del doc["sample"]
        path = write_config(tmp_path, "e.json", doc)
        assert cli.main(["estimate", "--config", str(path)]) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = estimate_doc()
        doc["bogus"] = 1
        path = write_config(tmp_path, "e.json", doc)
        assert cli.main(["estimate", "--config", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_observation_outside_discrete_space_is_config_error(self, tmp_path, capsys):
        doc = {
            "model": {
                "family": "discrete",
                "space_size": 3,
                "candidates": [[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]],
            },
            "loss": {"kind": "tv"},
            "sample": [0.0, 1.0, 99.0],
        }
        path = write_config(tmp_path, "e.json", doc)
        assert cli.main(["estimate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "99.0" in capsys.readouterr().err

    def test_tuple_observation_outside_a_discrete_coordinate_is_config_error(self, tmp_path, capsys, monkeypatch):
        # No model config builds discrete coordinates (regression-tuples
        # needs a base with a location), so the builder hands the command
        # one: each coordinate's engine locates its observations on its atoms.
        atoms = [DiscreteMeasure([0.0, 1.0], [0.7, 0.3]), DiscreteMeasure([0.0, 1.0], [0.2, 0.8])]
        model = Model(candidates=[tuple(atoms), tuple(atoms[::-1])])
        monkeypatch.setattr(cli, "build", lambda config: model)
        doc = {
            "model": {
                "family": "regression-tuples",
                "theta_net": [[0.0, 0.0], [0.5, 0.5]],
                "base_q": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                "n": 2,
            },
            "loss": {"kind": "tv"},
            "sample": [0.0, 0.75],
        }
        path = write_config(tmp_path, "e.json", doc)
        out = tmp_path / "o"
        assert cli.main(["estimate", "--config", str(path), "--out", str(out)]) == 2
        assert "observation 0.75 is outside the model's finite space" in capsys.readouterr().err
        assert not out.exists()

    def test_linf_without_matching_partition_is_config_error(self, tmp_path, capsys):
        doc = {
            "model": {
                "family": "gaussian-location-grid",
                "d": 1,
                "lo": -1.0,
                "hi": 1.0,
                "step": 0.5,
            },
            "loss": {"kind": "linf", "D": 4},
            "sample": [0.1, -0.3, 0.7],
        }
        path = write_config(tmp_path, "e.json", doc)
        assert cli.main(["estimate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "4-cell partition" in capsys.readouterr().err


class TestDescribe:
    def test_estimate_describe_round_trips(self, tmp_path, capsys):
        path = write_config(tmp_path, "e.json", estimate_doc())
        out = tmp_path / "untouched"
        code = cli.main(
            [
                "estimate", "--config", str(path), "--epsilon", "0.5",
                "--out", str(out), "--describe",
            ]
        )
        assert code == 0
        first = capsys.readouterr().out
        resolved = json.loads(first)
        assert resolved["epsilon"] == 0.5
        assert resolved["command"] == "estimate"
        assert not out.exists()
        echo = write_config(tmp_path, "echo.json", resolved)
        assert cli.main(["estimate", "--config", str(echo), "--describe"]) == 0
        assert capsys.readouterr().out == first

    def test_simulate_describe_round_trips(self, tmp_path, capsys):
        doc = simulate_doc()
        doc["xis"] = [0.5, 1.0]
        path = write_config(tmp_path, "s.json", doc)
        assert cli.main(["simulate", "--config", str(path), "--describe"]) == 0
        first = capsys.readouterr().out
        echo = write_config(tmp_path, "echo.json", json.loads(first))
        assert cli.main(["simulate", "--config", str(echo), "--describe"]) == 0
        assert capsys.readouterr().out == first

    def test_estimate_describe_refuses_boolean_count(self, tmp_path, capsys):
        doc = {
            "model": {"family": "gaussian-location-grid", "d": True, "lo": -1.0, "hi": 1.0, "step": 0.5},
            "loss": {"kind": "tv"},
            "sample": [0.0],
        }
        path = write_config(tmp_path, "e.json", doc)
        assert cli.main(["estimate", "--config", str(path), "--describe"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "d must be a positive integer, got True" in captured.err

    @staticmethod
    def regression_doc(base_q):
        return simulate_with(
            truth={
                "kind": "tuples",
                "components": [{"family": "gaussian", "params": {"mean": 0.1}}] * 2,
            },
            model={
                "family": "regression-tuples",
                "theta_net": [[0.0, 0.0], [0.5, -0.5]],
                "base_q": base_q,
                "n": 2,
            },
            loss={"kind": "hellinger2"},
            n=2,
            replications=3,
        )

    def test_simulate_describe_reads_base_q(self, tmp_path, capsys):
        bad = self.regression_doc({"family": "gaussian", "params": {"mean": "x"}})
        path = write_config(tmp_path, "bad.json", bad)
        assert cli.main(["simulate", "--config", str(path), "--describe"]) == 2
        assert "'mean'" in capsys.readouterr().err
        # One design written two ways resolves, and runs, as one.
        outputs = []
        for name, base_q in [
            ("short", {"family": "gaussian", "params": {"mean": 0}}),
            ("canonical", {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}}),
        ]:
            path = write_config(tmp_path, f"{name}.json", self.regression_doc(base_q))
            assert cli.main(["simulate", "--config", str(path), "--describe"]) == 0
            described = capsys.readouterr().out
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            capsys.readouterr()
            outputs.append((described, (out / "summary.json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["scenario"]["model"]["base_q"]["params"] == {"mean": 0.0, "sd": 1.0}

    @staticmethod
    def int_and_float_spelled(command):
        """One ``command`` config whose measure parameters are spelled as ints, and as floats."""
        docs = []
        for num in (int, float):
            hist = {"family": "histogram", "params": {"support": [num(0), num(2)], "heights": [num(1), num(1)]}}
            skewed = {"family": "histogram", "params": {"cells": 2, "support": [num(0), num(2)], "heights": [0.5, 1.5]}}
            if command == "test":
                doc = {"truth": hist, "p": hist, "q": skewed, "loss": {"kind": "tv"}, "n": 5, "reps": 2}
            else:
                measures = [
                    {"family": "gaussian", "params": {"mean": num(0), "sd": num(2)}},
                    {"family": "cauchy", "params": {"loc": num(1), "scale": num(1)}},
                    {"family": "uniform", "params": {"low": num(-1), "width": num(3)}},
                    {"family": "power", "params": {"alpha": num(2), "shift": num(-1)}},
                    {"family": "point-mass", "params": {"at": num(1)}},
                    # Points in any order: they are sorted with their masses and weights.
                    {"family": "discrete", "params": {"points": [num(1), num(0)], "masses": [0.5, 0.5], "weights": [num(2), num(1)]}},
                ]
                if num is float:
                    measures[-1]["params"].update(points=[0.0, 1.0], weights=[1.0, 2.0])
                doc = {
                    "pairs": [{"p": hist, "q": skewed}] + [{"p": m, "q": m} for m in measures],
                    "losses": [{"kind": "tv"}],
                }
            docs.append(doc)
        return docs

    @pytest.mark.parametrize("command", ["test", "distances"])
    def test_int_spelled_measures_describe_as_floats_and_round_trip(self, tmp_path, capsys, command):
        described = []
        for name, doc in zip(("int", "float"), self.int_and_float_spelled(command)):
            path = write_config(tmp_path, f"{name}.json", doc)
            assert cli.main([command, "--config", str(path), "--describe"]) == 0
            described.append(capsys.readouterr().out)
        assert described[0] == described[1]
        echo = write_config(tmp_path, "echo.json", json.loads(described[0]))
        assert cli.main([command, "--config", str(echo), "--describe"]) == 0
        assert capsys.readouterr().out == described[0]

    def test_check_assumptions_describe_normalizes_alias(self, capsys):
        code = cli.main(
            ["check-assumptions", "--loss", "hellinger2", "--describe"]
        )
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["loss"] == "hellinger"
        assert resolved["space_size"] == 5
        assert resolved["triples"] == 200


class TestTestCommand:
    def test_two_point_example(self, tmp_path):
        doc = {
            "truth": {
                "family": "discrete",
                "params": {"points": [0.0, 1.0], "masses": [0.7, 0.3]},
            },
            "p": {
                "family": "discrete",
                "params": {"points": [0.0, 1.0], "masses": [0.7, 0.3]},
            },
            "q": {
                "family": "discrete",
                "params": {"points": [0.0, 1.0], "masses": [0.2, 0.8]},
            },
            "loss": {"kind": "tv"},
            "n": 30,
            "reps": 300,
        }
        path = write_config(tmp_path, "t.json", doc)
        out = tmp_path / "out"
        code = cli.main(
            ["test", "--config", str(path), "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["result"]["gamma"] == 0.0
        assert summary["config"]["seed"] == 7
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == "outcome,count"
        counts = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
        assert sum(counts.values()) == 300
        assert counts["choose_p"] >= 290

    def test_kl_gamma_where_a1_times_loss_q_underflows(self, tmp_path):
        # q = p (1 + 1e-9 noise), renormalised: KL(p || q) reads 1.7e-16 > 0,
        # and a1 = 1 / (2a) = 6.25e-309 times that underflows to 0.
        points = [0.0, 1.0, 2.0, 3.0, 4.0]
        p = {"family": "discrete", "params": {"points": points, "masses": [
            0.2626816761851793, 0.26327303391236223, 0.20437304422487626, 0.1581725373287011, 0.11149970834888125,
        ]}}
        q = {"family": "discrete", "params": {"points": points, "masses": [
            0.26268167620778693, 0.2632730337606408, 0.20437304405965656, 0.15817253744339263, 0.11149970852852303,
        ]}}
        doc = {"truth": p, "p": p, "q": q, "loss": {"kind": "kl", "a": 8e307}, "n": 20, "reps": 50}
        path = write_config(tmp_path, "t.json", doc)
        out = tmp_path / "out"
        assert cli.main(["test", "--config", str(path), "--seed", "1", "--out", str(out)]) == 0
        result = json.loads((out / "summary.json").read_text())["result"]
        assert result["gamma"] == 0.0
        assert result["bound_hoeffding"] == 1.0 and result["bound_bernstein"] == 1.0


class TestSimulate:
    def test_outputs_and_thread_byte_identity(self, tmp_path):
        doc = simulate_doc()
        doc["formats"] = ["csv", "json-lines", "summary"]
        path = write_config(tmp_path, "s.json", doc)
        payloads = []
        for name, threads in (("one", "1"), ("many", "3")):
            out = tmp_path / name
            code = cli.main(
                [
                    "simulate", "--config", str(path),
                    "--out", str(out), "--threads", threads,
                ]
            )
            assert code == 0
            payloads.append(
                {
                    f: (out / f).read_bytes()
                    for f in ("summary.json", "records.csv", "records.jsonl")
                }
            )
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads):
        path = write_config(tmp_path, "s.json", simulate_doc())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out), "--threads", threads]) == 2
        assert f"threads must be a positive integer, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_required(self, tmp_path, capsys):
        doc = simulate_doc()
        del doc["scenario"]["seed"]
        path = write_config(tmp_path, "s.json", doc)
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_overrides_and_changes_records(self, tmp_path):
        path = write_config(tmp_path, "s.json", simulate_doc())
        blobs = []
        for name, seed in (("a", "3"), ("b", "4")):
            out = tmp_path / name
            assert (
                cli.main(
                    [
                        "simulate", "--config", str(path),
                        "--seed", seed, "--out", str(out),
                    ]
                )
                == 0
            )
            blobs.append((out / "records.csv").read_bytes())
        assert blobs[0] != blobs[1]

    def test_infinite_losses_summarize_as_infinity(self, tmp_path, recwarn):
        # KL from a point mass to any Gaussian is infinite: every quantile of
        # the losses is the infinite order statistic, not inf - inf.
        doc = simulate_with(
            truth={"kind": "iid", "measure": {"family": "point-mass", "params": {"at": 0.0}}},
            model={"family": "gaussian-location-grid", "d": 1, "lo": -0.6, "hi": 0.6, "step": 0.05},
            loss={"kind": "kl", "a": 20.0},
            n=20,
            replications=5,
        )
        doc["ns"] = [10, 20]
        path = write_config(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        written = json.loads((out / "summary.json").read_text())
        summary = written["summary"]["loss"]
        assert set(summary) == {"mean", "median", "q10", "q25", "q75", "q90", "min", "max"}
        assert all(v == math.inf for v in summary.values()), summary
        # No log-log slope is fitted through infinite medians.
        assert written["rate"] == {"rows": [{"median_loss": math.inf, "n": 10}, {"median_loss": math.inf, "n": 20}], "slope": None}
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_deviation_block(self, tmp_path):
        doc = {
            "scenario": {
                "truth": {
                    "kind": "iid",
                    "measure": {"family": "uniform", "params": {"low": 0.0, "width": 1.0}},
                },
                "model": {
                    "family": "histogram-net",
                    "cells": 2,
                    "value_grid": [0.5, 1.0, 1.5],
                },
                "loss": {"kind": "wasserstein1"},
                "n": 200,
                "replications": 50,
                "seed": 5,
            },
            "xis": [1.0],
        }
        path = write_config(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        row = summary["deviation"]["rows"][0]
        assert row["bound"] == pytest.approx(0.35142135623730947, rel=1e-12)
        assert row["frequency"] >= row["target"]

    def test_wasserstein_histogram_records_hold_plain_floats(self, tmp_path):
        # W1 on a histogram net: exact knotted-cdf distances and the engine's
        # sloped (linear) score table, end to end.
        doc = {
            "scenario": {
                "truth": {
                    "kind": "iid",
                    "measure": {"family": "uniform", "params": {"low": 0.0, "width": 1.0}},
                },
                "model": {"family": "histogram-net", "cells": 2, "value_grid": [0.5, 1.0, 1.5]},
                "loss": {"kind": "wasserstein1"},
                "n": 50,
                "replications": 20,
                "seed": 5,
            },
            "ns": [25, 50],
            "formats": ["csv", "json-lines", "summary"],
        }
        path = write_config(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        for name in ("records.csv", "records.jsonl", "summary.json", "curve.csv"):
            assert "np.float64(" not in (out / name).read_text(), name
        rows = (out / "records.csv").read_text().splitlines()[1:]
        assert len(rows) == 20
        for row in rows:
            rep, chosen, loss_txt, sup_txt = row.split(",")
            float(loss_txt), float(sup_txt)

    def test_rate_block_writes_curve(self, tmp_path):
        doc = simulate_doc()
        doc["ns"] = [20, 40]
        path = write_config(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [r["n"] for r in summary["rate"]["rows"]] == [20, 40]
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "n,median_loss"
        assert len(lines) == 3

    def test_csv_only_format(self, tmp_path):
        doc = simulate_doc()
        doc["formats"] = ["csv"]
        path = write_config(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "records.csv").exists()
        assert not (out / "summary.json").exists()
        assert not (out / "records.jsonl").exists()

    def test_bad_format_rejected(self, tmp_path):
        doc = simulate_doc()
        doc["formats"] = ["parquet"]
        path = write_config(tmp_path, "s.json", doc)
        assert cli.main(["simulate", "--config", str(path)]) == 2


class TestConfigErrorsExitTwo:
    """Inputs that break a loss's preconditions exit 2 with a one-line message."""

    @staticmethod
    def histogram(heights):
        return {"family": "histogram", "params": {"heights": heights}}

    @staticmethod
    def grid(lo=-1.0, hi=1.0, step=0.5):
        return {"family": "gaussian-location-grid", "d": 1, "lo": lo, "hi": hi, "step": step}

    @staticmethod
    def measure(family, **params):
        return {"family": family, "params": params}

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            (
                "estimate",
                {
                    "model": {"family": "discrete", "space_size": 2, "candidates": [[0.9, 0.1], [0.5, 0.5]]},
                    "loss": {"kind": "kl", "a": 0.5},
                    "sample": [0.0, 1.0, 1.0],
                },
                "log-ratio bound violated",
            ),
            (
                "distances",
                {"pairs": [{"p": histogram([-0.5, 2.5]), "q": histogram([1.0, 1.0])}], "losses": [{"kind": "tv"}]},
                "not a probability measure",
            ),
            (
                "distances",
                {
                    "pairs": [
                        {
                            "p": histogram([1.0, 1.0]),
                            "q": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                        }
                    ],
                    "losses": [{"kind": "lj", "j": 2.0, "R": 1.0}],
                },
                "shared reference",
            ),
            (
                "distances",
                {"pairs": [{"p": histogram([1.5, 0.5]), "q": histogram([0.5, 1.5])}], "losses": [{"kind": "linf", "D": 3}]},
                "D=3 cells",
            ),
            (
                "distances",
                {
                    "pairs": [
                        {
                            "p": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                            "q": {"family": "gaussian", "params": {"mean": 0.5, "sd": 1.0}},
                        }
                    ],
                    "losses": [{"kind": "linf", "D": 3}],
                },
                "3-cell partition",
            ),
            (
                "estimate",
                {
                    "model": {"family": "histogram-net", "cells": 2, "value_grid": [0.5, 1.0, 1.5]},
                    "loss": {"kind": "tv"},
                    "truth": histogram([-0.5, 2.5]),
                    "n": 20,
                },
                "cannot sample from a signed histogram",
            ),
            (
                "test",
                {
                    "truth": histogram([-0.5, 2.5]),
                    "p": histogram([1.0, 1.0]),
                    "q": histogram([0.5, 1.5]),
                    "loss": {"kind": "tv"},
                    "n": 20,
                    "reps": 5,
                },
                "cannot sample from a signed histogram",
            ),
            (
                "distances",
                {
                    "pairs": [
                        {
                            "p": {"family": "histogram", "params": {"support": [0.0, 1.0, 2.0], "heights": [1.0, 1.0]}},
                            "q": histogram([1.0, 1.0]),
                        }
                    ],
                    "losses": [{"kind": "tv"}],
                },
                "[lo, hi] 'support'",
            ),
            (
                "distances",
                {
                    "pairs": [
                        {
                            "p": {"family": "histogram", "params": {"cells": 3, "heights": [0.5, 1.5]}},
                            "q": histogram([1.0, 1.0]),
                        }
                    ],
                    "losses": [{"kind": "tv"}],
                },
                "for cells 3",
            ),
            (
                "distances",
                {
                    "pairs": [
                        {
                            "p": {"family": "gaussian", "params": {"mean": "a"}},
                            "q": {"family": "gaussian", "params": {"mean": 0.0}},
                        }
                    ],
                    "losses": [{"kind": "tv"}],
                },
                "parameter 'mean'",
            ),
            (
                "estimate",
                {
                    "model": {"family": "gaussian-location-grid", "d": 1, "lo": "x", "hi": 1.0, "step": 0.5},
                    "loss": {"kind": "tv"},
                    "sample": [0.0, 0.5],
                },
                "parameter 'lo'",
            ),
            (
                "estimate",
                {
                    "model": {"family": "histogram-net", "cells": 2, "value_grid": [0.5, 1.0, 1.5]},
                    "loss": {"kind": "lj", "j": "2", "R": 1.0},
                    "sample": [0.25, 0.75],
                },
                "parameter 'j'",
            ),
            (
                "test",
                {
                    "truth": {"family": "power", "params": {"alpha": 2.6901}},
                    "p": {"family": "power", "params": {"alpha": 2.6901}},
                    "q": {"family": "power", "params": {"alpha": 2.6297}},
                    "loss": {"kind": "kl", "a": 2.0},
                    "n": 20,
                    "reps": 5,
                },
                "finite log-ratio bound",
            ),
            (
                "estimate",
                {"model": grid(lo=math.nan), "loss": {"kind": "tv"}, "sample": [0.0, 0.5]},
                "must be finite",
            ),
            (
                "estimate",
                {"model": grid(lo=-1e308, hi=1e308, step=1e-300), "loss": {"kind": "tv"}, "sample": [0.0]},
                "more than 1000000 points",
            ),
            (
                "estimate",
                {"model": grid(), "loss": {"kind": "kl", "a": math.nan}, "sample": [0.0, 0.5]},
                "positive finite log-ratio bound a",
            ),
            (
                "estimate",
                {
                    "model": {"family": "histogram-net", "cells": 2, "value_grid": [0.5, 1.0, 1.5]},
                    "loss": {"kind": "lj", "j": 2.0, "R": math.nan},
                    "sample": [0.25, 0.75],
                },
                "positive finite norm-ratio bound R",
            ),
            (
                "estimate",
                {
                    "model": {"family": "histogram-net", "cells": 2, "value_grid": [0.5, 1.0, 1.5], "j": 3.0},
                    "loss": {"kind": "tv"},
                    "sample": [0.25, 0.75],
                },
                "unknown model config keys ['j']",
            ),
            (
                "distances",
                {"pairs": [{"p": measure("uniform", low=math.nan), "q": measure("uniform", low=0.0)}], "losses": [{"kind": "tv"}]},
                "uniform low must be finite",
            ),
            (
                "distances",
                {"pairs": [{"p": measure("gaussian", mean=math.nan), "q": measure("gaussian", mean=0.0)}], "losses": [{"kind": "tv"}]},
                "gaussian mean must be finite",
            ),
            (
                "distances",
                {"pairs": [{"p": measure("power", alpha=math.nan), "q": measure("power", alpha=0.5)}], "losses": [{"kind": "tv"}]},
                "power alpha must be positive and finite",
            ),
            (
                "distances",
                {"pairs": [{"p": measure("cauchy", loc=math.inf), "q": measure("cauchy", loc=0.0)}], "losses": [{"kind": "tv"}]},
                "cauchy loc must be finite",
            ),
            (
                "distances",
                {"pairs": [{"p": histogram([1.5, 0.5]), "q": histogram([0.5, 1.5])}], "losses": [{"kind": "linf", "D": math.nan}]},
                "positive cell count D",
            ),
            (
                "distances",
                {"pairs": [{"p": histogram([1.5, 0.5]), "q": histogram([0.5, 1.5])}], "losses": [{"kind": "linf", "D": 2.5}]},
                "positive cell count D",
            ),
            ("estimate", dict(estimate_doc(), sample={"x": 1.0}), "sample must be a list of numbers"),
            ("estimate", dict(estimate_doc(), sample=[0.0, "x"]), "sample must be a list of numbers"),
            (
                "estimate",
                {"model": grid(), "loss": {"kind": "tv"}, "truth": measure("gaussian", mean=0.0), "n": 5, "seed": "x"},
                "seed must be an integer",
            ),
            (
                "test",
                {
                    "truth": measure("gaussian", mean=0.0),
                    "p": measure("gaussian", mean=0.0),
                    "q": measure("gaussian", mean=1.0),
                    "loss": {"kind": "tv"},
                    "n": 5,
                    "reps": 2,
                    "seed": 1.5,
                },
                "seed must be an integer",
            ),
            ("check-assumptions", {"loss": "tv", "seed": "x"}, "seed must be an integer"),
            ("simulate", dict(simulate_doc(), xis=0.5), "xis must be a list of numbers"),
            ("simulate", dict(simulate_doc(), xis=[0.5, "x"]), "xis must be a list of numbers"),
            ("simulate", dict(simulate_doc(), ns=100), "ns must be a non-empty list"),
            ("simulate", dict(simulate_doc(), formats=5), "formats must be a non-empty subset"),
            ("simulate", dict(simulate_doc(), scenario=[1, 2]), "'scenario' must be a mapping"),
            ("simulate", simulate_with(truth={"kind": "iid"}), "missing keys ['measure']"),
            ("simulate", simulate_with(truth={"kind": "tuples"}), "missing keys ['components']"),
            (
                "simulate",
                simulate_with(truth={"kind": "contaminated", "alphas": [0.1] * 40, "contaminant": measure("gaussian", mean=5.0)}),
                "missing keys ['base']",
            ),
            (
                "simulate",
                simulate_with(truth={"kind": "contaminated", "base": measure("gaussian", mean=0.0), "alphas": [0.1] * 40}),
                "missing keys ['contaminant']",
            ),
            (
                "simulate",
                simulate_with(truth={"kind": "contaminated", "base": measure("gaussian", mean=0.0), "contaminant": measure("gaussian", mean=5.0)}),
                "missing keys ['alphas']",
            ),
            (
                "simulate",
                simulate_with(
                    truth={"kind": "contaminated", "base": measure("gaussian", mean=0.0), "alphas": 0.1, "contaminant": measure("gaussian", mean=5.0)}
                ),
                "'alphas' must be a list of numbers",
            ),
            (
                "simulate",
                simulate_with(
                    truth={"kind": "contaminated", "base": measure("gaussian", mean=0.0), "alphas": ["x"] * 40, "contaminant": measure("gaussian", mean=5.0)}
                ),
                "'alphas' must be a list of numbers",
            ),
            ("simulate", simulate_with(epsilon="0.5"), "epsilon must be positive"),
            ("simulate", simulate_with(epsilon=True), "epsilon must be positive and finite"),
            ("simulate", simulate_with(epsilon=math.inf), "epsilon must be positive and finite"),
            ("estimate", dict(estimate_doc(), epsilon=True), "epsilon must be positive and finite"),
            ("estimate", dict(estimate_doc(), epsilon=math.inf), "epsilon must be positive and finite"),
            ("estimate", dict(estimate_doc(), epsilon=10**400), "epsilon must be positive and finite"),
            ("simulate", simulate_with(replicates=5), "unknown scenario config keys ['replicates']"),
            (
                "simulate",
                simulate_with(truth={"kind": "iid", "measure": measure("gaussian", mean=0.0), "alphas": [0.1]}),
                "unknown iid truth config keys ['alphas']",
            ),
            (
                "distances",
                {"pairs": [{"p": measure("gaussian", mean=0.0, sdd=2.0), "q": measure("gaussian", mean=1.0)}], "losses": [{"kind": "tv"}]},
                "unknown gaussian measure config keys ['sdd']",
            ),
            (
                "distances",
                {"pairs": [{"p": dict(measure("gaussian", mean=0.0), extra=1), "q": measure("gaussian", mean=1.0)}], "losses": [{"kind": "tv"}]},
                "unknown measure config keys ['extra']",
            ),
            (
                "test",
                {
                    "truth": measure(
                        "mixture", base=measure("gaussian", mean=0.0), alpha=0.1, contaminant=measure("cauchy", loc=5.0), extra=1
                    ),
                    "p": measure("gaussian", mean=0.0),
                    "q": measure("gaussian", mean=1.0),
                    "loss": {"kind": "tv"},
                    "n": 5,
                    "reps": 2,
                },
                "unknown mixture measure config keys ['extra']",
            ),
            (
                "simulate",
                simulate_with(
                    truth={
                        "kind": "contaminated",
                        "base": measure("gaussian", mean=0.0, scale=1.0),
                        "alphas": [0.1] * 40,
                        "contaminant": measure("gaussian", mean=5.0),
                    }
                ),
                "unknown gaussian measure config keys ['scale']",
            ),
            (
                "test",
                {
                    "truth": measure("mixture", base=measure("gaussian", mean=0.0), alpha=0.5, contaminant=measure("point-mass", at=0.0)),
                    "p": measure("mixture", base=measure("gaussian", mean=0.0), alpha=0.5, contaminant=measure("point-mass", at=0.0)),
                    "q": measure("gaussian", mean=0.0),
                    "loss": {"kind": "tv"},
                    "n": 50,
                    "reps": 200,
                    "seed": 1,
                },
                "TV sign regions miss atoms",
            ),
            (
                "test",
                {
                    "truth": measure("discrete", points=[0.0, 1.0], masses=[0.5, 0.5]),
                    "p": measure("discrete", points=[0.0, 1.0], masses=[0.5, 0.5]),
                    "q": measure("gaussian", mean=0.5),
                    "loss": {"kind": "tv"},
                    "n": 20,
                    "reps": 100,
                    "seed": 1,
                },
                "TV sign regions miss atoms",
            ),
            (
                "distances",
                {
                    "pairs": [
                        {
                            "p": measure("mixture", base=measure("gaussian", mean=0.0), alpha=0.5, contaminant=measure("point-mass", at=0.0)),
                            "q": measure("gaussian", mean=0.0),
                        }
                    ],
                    "losses": [{"kind": "lj", "j": 2.0, "R": 1.0}],
                },
                "L_j distance needs Lebesgue densities",
            ),
            (
                "distances",
                {"pairs": [{"p": histogram([1.5, 0.5]), "q": histogram([0.5, 1.5])}], "losses": [{"kind": "linf", "D": 10**400}]},
                "positive cell count D",
            ),
            (
                "test",
                {
                    "truth": measure("gaussian", mean=0.0),
                    "p": measure("gaussian", mean=0.0),
                    "q": measure("gaussian", mean=1.0),
                    "loss": {"kind": "kl", "a": 10**400},
                    "n": 5,
                    "reps": 2,
                },
                "positive finite log-ratio bound a",
            ),
            (
                "test",
                {
                    "truth": histogram([1.5, 0.5]),
                    "p": histogram([1.5, 0.5]),
                    "q": histogram([0.5, 1.5]),
                    "loss": {"kind": "lj", "j": 1e300, "R": 2.0},
                    "n": 5,
                    "reps": 2,
                },
                "family scale R ** (j - 1)",
            ),
            (
                "test",
                {
                    "truth": histogram([1.5, 0.5]),
                    "p": histogram([1.5, 0.5]),
                    "q": histogram([0.5, 1.5]),
                    "loss": {"kind": "lj", "j": 1024.0, "R": 2.0},
                    "n": 5,
                    "reps": 2,
                },
                "family scale R ** (j - 1)",
            ),
            (
                "test",
                {
                    "truth": histogram([1.0, 1.0]),
                    "p": histogram([1.0, 1.0]),
                    "q": histogram([1.0000000001, 0.9999999999]),
                    "loss": {"kind": "kl", "a": 1e-200},
                    "n": 5,
                    "reps": 2,
                },
                "log-ratio bound a",
            ),
        ],
        ids=[
            "kl-score-bound",
            "tv-signed-histogram",
            "lj-mixed-references",
            "linf-cell-count",
            "linf-without-partition",
            "estimate-signed-truth",
            "test-signed-truth",
            "histogram-support-triple",
            "histogram-cells-mismatch",
            "gaussian-mean-string",
            "model-lo-string",
            "lj-j-string",
            "kl-power-shapes-one-shift",
            "grid-lo-nan",
            "grid-span-overflow",
            "kl-a-nan",
            "lj-r-nan",
            "histogram-net-j",
            "uniform-low-nan",
            "gaussian-mean-nan",
            "power-alpha-nan",
            "cauchy-loc-inf",
            "linf-d-nan",
            "linf-d-fractional",
            "sample-not-a-list",
            "sample-not-numeric",
            "estimate-seed-string",
            "test-seed-fractional",
            "check-seed-string",
            "xis-not-a-list",
            "xis-not-numeric",
            "ns-not-a-list",
            "formats-not-a-list",
            "scenario-not-a-mapping",
            "iid-truth-without-measure",
            "tuples-truth-without-components",
            "contaminated-truth-without-base",
            "contaminated-truth-without-contaminant",
            "contaminated-truth-without-alphas",
            "alphas-not-a-list",
            "alphas-not-numeric",
            "epsilon-string",
            "simulate-epsilon-bool",
            "simulate-epsilon-inf",
            "estimate-epsilon-bool",
            "estimate-epsilon-inf",
            "estimate-epsilon-huge-int",
            "unknown-scenario-key",
            "unknown-truth-key",
            "measure-param-misspelled",
            "measure-top-level-extra",
            "mixture-param-extra",
            "contaminated-base-param-extra",
            "tv-test-candidate-with-atom",
            "tv-test-discrete-against-gaussian",
            "lj-distance-mixture-with-atom",
            "linf-d-huge-int",
            "kl-a-huge-int",
            "lj-scale-overflow",
            "lj-constants-overflow",
            "kl-variance-constant-overflow",
        ],
    )
    def test_exit_two_without_traceback(self, tmp_path, capsys, command, doc, message):
        path = write_config(tmp_path, "c.json", doc)
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "1e999", "nan", "-1"])
    @pytest.mark.parametrize("command, doc", [("estimate", estimate_doc()), ("simulate", simulate_doc())])
    def test_epsilon_flag_must_be_positive_and_finite(self, tmp_path, capsys, command, doc, value):
        path = write_config(tmp_path, "c.json", doc)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o"), "--epsilon", value]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: epsilon must be positive and finite")
        assert not (tmp_path / "o").exists()

    def test_oversized_monotone_net_refused_before_enumeration(self, tmp_path, capsys, monkeypatch):
        # 40 cells, d = 8 and 10 levels: about 1.6e10 run-and-level choices.
        def no_enumeration(*args):
            raise AssertionError("the net enumeration started")

        monkeypatch.setattr(itertools, "combinations", no_enumeration)
        doc = {
            "model": {
                "family": "monotone-net",
                "d": 8,
                "breakpoint_grid": [k / 40 for k in range(41)],
                "level_grid": [0.5 * k for k in range(1, 11)],
            },
            "loss": {"kind": "tv"},
            "sample": [0.25, 0.75],
        }
        path = write_config(tmp_path, "c.json", doc)
        assert cli.main(["estimate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "more than 1000000 run-and-level" in err

    def test_oversized_location_grid_refused_before_enumeration(self, tmp_path, capsys, monkeypatch):
        # 10^9 + 1 grid points, each a finite float.
        def no_enumeration(*args):
            raise AssertionError("the grid enumeration started")

        monkeypatch.setattr("pairfit.models._location_grid", no_enumeration)
        doc = {"model": self.grid(lo=0.0, hi=1e9, step=1.0), "loss": {"kind": "tv"}, "sample": [0.0]}
        path = write_config(tmp_path, "c.json", doc)
        assert cli.main(["estimate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "more than 1000000 points" in err


class TestDistances:
    def test_values_match_library(self, tmp_path):
        doc = {
            "pairs": [
                {
                    "p": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                    "q": {"family": "gaussian", "params": {"mean": 1.0, "sd": 1.0}},
                }
            ],
            "losses": [{"kind": "tv"}, {"kind": "hellinger2"}, {"kind": "kl", "a": 1.0}],
        }
        path = write_config(tmp_path, "d.json", doc)
        out = tmp_path / "out"
        assert cli.main(["distances", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == "pair,loss,value"
        P, Q = GaussianMeasure(0.0, 1.0), GaussianMeasure(1.0, 1.0)
        expected = {
            "tv": loss(LossSpec.tv(), P, Q),
            "hellinger2": loss(LossSpec.hellinger2(), P, Q),
            "kl[a=1.0]": loss(LossSpec.kl(a=1.0), P, Q),
        }
        for row in lines[1:]:
            _, token, value = row.split(",")
            assert float(value) == expected[token]

    @pytest.mark.xfail(
        strict=True,
        reason="records.csv writes the lj loss token unquoted, so its commas split "
        "the row; quoting it is the second half of ROADMAP item 6",
    )
    def test_records_read_back_through_a_csv_reader(self, tmp_path):
        gaussian = lambda mean: {"family": "gaussian", "params": {"mean": mean, "sd": 1.0}}
        doc = {
            "pairs": [{"p": gaussian(0.0), "q": gaussian(1.0)}],
            "losses": [{"kind": "lj", "j": 2.0, "R": 1.0}],
        }
        path = write_config(tmp_path, "d.json", doc)
        out = tmp_path / "out"
        assert cli.main(["distances", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["loss"] for row in rows] == ["lj[R=1.0,j=2.0]"]
        P, Q = GaussianMeasure(0.0, 1.0), GaussianMeasure(1.0, 1.0)
        assert float(rows[0]["value"]) == loss(LossSpec.lj(j=2.0, R=1.0), P, Q)

    def test_int_and_float_spelled_lj_write_the_same_bytes(self, tmp_path):
        gaussian = lambda mean: {"family": "gaussian", "params": {"mean": mean, "sd": 1.0}}
        outputs = []
        for tag, j, R in (("int", 2, 1), ("float", 2.0, 1.0)):
            doc = {
                "pairs": [{"p": gaussian(0.0), "q": gaussian(1.0)}],
                "losses": [{"kind": "lj", "j": j, "R": R}],
            }
            path = write_config(tmp_path, f"{tag}.json", doc)
            out = tmp_path / tag
            assert cli.main(["distances", "--config", str(path), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("summary.json", "records.csv")])
        assert outputs[0] == outputs[1]

    def test_unsupported_measure_for_loss(self, tmp_path, capsys):
        doc = {
            "pairs": [
                {
                    "p": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                    "q": {"family": "gaussian", "params": {"mean": 1.0, "sd": 1.0}},
                }
            ],
            "losses": [{"kind": "wasserstein1"}],
        }
        path = write_config(tmp_path, "d.json", doc)
        assert cli.main(["distances", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_overflowing_lj_integrand_exits_three(self, tmp_path, capsys):
        # (p - q)^2 reaches 1.56e308 on U(0, 8e-155), so the Simpson sums
        # overflow; the row read nan and the command exited 0.
        doc = {
            "pairs": [
                {
                    "p": {"family": "uniform", "params": {"low": 0.0, "width": 8e-155}},
                    "q": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                }
            ],
            "losses": [{"kind": "lj", "j": 2.0, "R": 1.0}],
        }
        path = write_config(tmp_path, "d.json", doc)
        assert cli.main(["distances", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Simpson sums overflow" in err

    @pytest.mark.parametrize(
        "p, q, loss_cfg, message",
        [
            (
                {"family": "gaussian", "params": {"mean": True}},
                {"family": "gaussian", "params": {"mean": "0.5"}},
                {"kind": "tv"},
                "measure parameter 'mean': gaussian mean must be a number, got True",
            ),
            (
                {"family": "discrete", "params": {"points": [0.0, 1.0], "masses": [0.5, math.nan]}},
                {"family": "discrete", "params": {"points": [0.0, 1.0], "masses": [0.5, 0.5]}},
                {"kind": "lj", "j": 2.0, "R": 1.0},
                "measure parameter 'masses': discrete masses must be",
            ),
            (
                {"family": "histogram", "params": {"support": [0, math.inf], "heights": [1.0, 1.0]}},
                {"family": "histogram", "params": {"support": [0, math.inf], "heights": [1.5, 0.5]}},
                {"kind": "tv"},
                "measure parameter 'support': histogram support must be",
            ),
            (
                {"family": "point-mass", "params": {"at": math.inf}},
                {"family": "point-mass", "params": {"at": 0.0}},
                {"kind": "tv"},
                "measure parameter 'at': point-mass at must be finite",
            ),
            (
                {"family": "gaussian", "params": {"mean": 10**400}},
                {"family": "gaussian", "params": {"mean": 0.0}},
                {"kind": "tv"},
                "measure parameter 'mean': gaussian mean must be finite",
            ),
            (
                {"family": "uniform", "params": {"low": 0.0, "width": 10**400}},
                {"family": "uniform", "params": {"low": 0.0}},
                {"kind": "tv"},
                "measure parameter 'width': uniform width must be positive and finite",
            ),
            (
                {"family": "discrete", "params": {"points": [0.0, 10**400], "masses": [0.5, 0.5]}},
                {"family": "discrete", "params": {"points": [0.0, 1.0], "masses": [0.5, 0.5]}},
                {"kind": "tv"},
                "measure parameter 'points': discrete points must be",
            ),
            (
                {"family": "histogram", "params": {"cells": True, "heights": [1.0]}},
                {"family": "histogram", "params": {"heights": [1.0]}},
                {"kind": "tv"},
                "measure parameter 'cells': histogram cells must be a positive integer, got True",
            ),
            (
                {"family": "histogram", "params": {"cells": 2.0, "heights": [1.5, 0.5]}},
                {"family": "histogram", "params": {"heights": [1.0, 1.0]}},
                {"kind": "tv"},
                "measure parameter 'cells': histogram cells must be a positive integer, got 2.0",
            ),
            (
                {"family": "uniform", "params": {"low": 1e308, "width": 1e308}},
                {"family": "gaussian", "params": {"mean": 0.0}},
                {"kind": "tv"},
                "measure parameter 'width': uniform low + width must be finite",
            ),
            (
                {"family": "gaussian", "params": {"mean": 1e308, "sd": 1e307}},
                {"family": "gaussian", "params": {"mean": 0.0}},
                {"kind": "tv"},
                "measure parameter 'sd': gaussian window mean +/- 12 sd must be finite",
            ),
            (
                {"family": "cauchy", "params": {"loc": 1e308, "scale": 1e307}},
                {"family": "cauchy", "params": {"loc": 0.0}},
                {"kind": "hellinger2"},
                "measure parameter 'scale': cauchy window loc +/- 2500 scale must be finite",
            ),
            (
                {"family": "histogram", "params": {"support": [-1e308, 1e308], "heights": [1.0]}},
                {"family": "gaussian", "params": {"mean": 0.0}},
                {"kind": "tv"},
                "measure parameter 'support': histogram hi - lo must be finite",
            ),
        ],
        ids=["bool-and-string-mean", "nan-mass", "infinite-support", "infinite-at", "huge-mean",
             "huge-width", "huge-point", "bool-cells", "float-cells", "uniform-window-overflow",
             "gaussian-window-overflow", "cauchy-window-overflow", "histogram-width-overflow"],
    )
    def test_bad_measure_parameters_exit_two_and_write_nothing(self, tmp_path, capsys, p, q, loss_cfg, message):
        # Each of these exited 0 with a wrong value, or 1 with OverflowError.
        path = write_config(tmp_path, "d.json", {"pairs": [{"p": p, "q": q}], "losses": [loss_cfg]})
        assert cli.main(["distances", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "p, q, key",
        [
            (
                {"family": "uniform", "params": {"low": 1e17, "width": 1.0}},
                {"family": "uniform", "params": {"low": 1e17, "width": 2.0}},
                "width",
            ),
            (
                {"family": "uniform", "params": {"low": 0.0, "width": 1.0}},
                {"family": "power", "params": {"alpha": 0.5, "shift": 1e308}},
                "shift",
            ),
            (
                {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                {"family": "uniform", "params": {"low": 1e17, "width": 1.0}},
                "width",
            ),
        ],
        ids=["uniforms-at-1e17", "power-at-1e308", "gaussian-and-uniform-at-1e17"],
    )
    def test_collapsed_windows_exit_two_and_write_nothing(self, tmp_path, capsys, p, q, key):
        # These read TV 0.0 (it is 0.5) and 0.50000004 (it is 1), and the
        # third exited 3 only after the 2^20-panel budget ran out.
        path = write_config(tmp_path, "d.json", {"pairs": [{"p": p, "q": q}], "losses": [{"kind": "tv"}]})
        assert cli.main(["distances", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: measure parameter '{key}'") and "narrower than" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_window_wider_than_the_largest_float_exits_three(self, tmp_path, capsys):
        # Before, np.linspace overflowed with a RuntimeWarning first.
        wide = {
            "family": "mixture",
            "params": {
                "base": {"family": "gaussian", "params": {"mean": -1e308, "sd": 1e300}},
                "alpha": 0.5,
                "contaminant": {"family": "gaussian", "params": {"mean": 1e308, "sd": 1e300}},
            },
        }
        doc = {"pairs": [{"p": wide, "q": {"family": "gaussian", "params": {"mean": 0.0}}}], "losses": [{"kind": "tv"}]}
        path = write_config(tmp_path, "d.json", doc)
        assert cli.main(["distances", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "wider than the largest float" in err

    @pytest.mark.filterwarnings("error")
    def test_cauchy_far_tail_exits_zero_without_warning(self, tmp_path):
        cauchy = lambda scale: {"family": "cauchy", "params": {"loc": 0.0, "scale": scale}}
        doc = {"pairs": [{"p": cauchy(1.0), "q": cauchy(1e155)}], "losses": [{"kind": "tv"}]}
        path = write_config(tmp_path, "d.json", doc)
        out = tmp_path / "out"
        assert cli.main(["distances", "--config", str(path), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "records.csv").read_text().splitlines()))
        assert [float(row["value"]) for row in rows] == [1.0]

    def test_discrete_weights_take_points_in_any_order(self, tmp_path):
        outputs = []
        for tag, points, masses, weights in (("shuffled", [1, 0], [0.25, 0.75], [2, 1]), ("sorted", [0, 1], [0.75, 0.25], [1, 2])):
            p = {"family": "discrete", "params": {"points": points, "masses": masses, "weights": weights}}
            q = {"family": "discrete", "params": {"points": [0, 1], "masses": [0.5, 0.5], "weights": [1, 2]}}
            doc = {"pairs": [{"p": p, "q": q}], "losses": [{"kind": "lj", "j": 2.0, "R": 1.0}]}
            path = write_config(tmp_path, f"{tag}.json", doc)
            out = tmp_path / tag
            assert cli.main(["distances", "--config", str(path), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("summary.json", "records.csv")])
        assert outputs[0] == outputs[1]

    def test_pair_shape_validated(self, tmp_path):
        doc = {"pairs": [{"p": {"family": "gaussian", "params": {}}}], "losses": [{"kind": "tv"}]}
        path = write_config(tmp_path, "d.json", doc)
        assert cli.main(["distances", "--config", str(path)]) == 2


class TestCheckAssumptions:
    @pytest.mark.parametrize("loss_name", ["tv", "hellinger", "kl", "l1.5", "l2", "l3", "linf", "wasserstein1"])
    def test_families_pass_quick_audit(self, loss_name, capsys):
        code = cli.main(
            [
                "check-assumptions", "--loss", loss_name,
                "--space-size", "5", "--triples", "25", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "worst mean-bound slack" in out

    @pytest.mark.parametrize("seed", [1, 2, 11])
    def test_kl_audit_passes_where_the_old_variance_constant_failed(self, seed, capsys):
        # 1 / (a min(2, a)) broke the variance bound (iv) at these seeds.
        assert cli.main(["check-assumptions", "--loss", "kl", "--seed", str(seed)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_summary_written_when_out_given(self, tmp_path):
        out = tmp_path / "audit"
        code = cli.main(
            [
                "check-assumptions", "--loss", "tv", "--triples", "10",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["report"]["passed"] is True
        assert summary["report"]["worst_slacks"]["antisymmetry"] <= 1e-12
        assert summary["report"]["worst_slacks"]["cond3bis_a2_prime"] is not None

    def test_summary_written_to_an_explicit_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["check-assumptions", "--loss", "tv", "--triples", "5", "--seed", "3"]
        assert cli.main(args) == 0
        assert not list(tmp_path.iterdir())
        assert cli.main(args + ["--out", "."]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["report"]["triples"] == 5

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "c.json", {"loss": "kl", "triples": 999, "seed": 2}
        )
        code = cli.main(
            [
                "check-assumptions", "--config", str(path),
                "--triples", "5", "--describe",
            ]
        )
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["triples"] == 5
        assert resolved["loss"] == "kl"
        assert resolved["seed"] == 2

    def test_missing_loss_rejected(self, capsys):
        assert cli.main(["check-assumptions", "--triples", "5"]) == 2
        assert "--loss" in capsys.readouterr().err

    def test_failed_audit_maps_to_exit_three(self, monkeypatch, capsys):
        def failing(loss_name, space_size, triples, seed):
            return {
                "loss": loss_name,
                "space_size": space_size,
                "triples": triples,
                "seed": seed,
                "pairs_checked": 2,
                "worst_slacks": {
                    "antisymmetry": 0.0,
                    "mean": 2e-2,
                    "oscillation": 0.0,
                    "variance": None,
                    "cond3bis_a2_prime": None,
                },
                "tolerance": 1e-12,
                "passed": False,
                "violations": ["triple 0: mean bound pair (0,1) probe 0: slack 2e-2"],
            }

        monkeypatch.setattr(cli, "run_assumption_suite", failing)
        assert cli.main(["check-assumptions", "--loss", "tv"]) == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "numerical failure" in captured.err

    def test_suite_slacks_are_tiny_where_binding(self):
        report = cli.run_assumption_suite("l2", 5, 40, 3)
        assert report["passed"]
        assert report["pairs_checked"] == 80
        assert report["worst_slacks"]["antisymmetry"] <= 1e-12
        # The mean bound is attained (equality) at probe S = P for these
        # families, so the worst slack sits at rounding level, not far below.
        assert -1e-12 <= report["worst_slacks"]["mean"] <= 1e-12
        assert math.isfinite(report["worst_slacks"]["oscillation"])
