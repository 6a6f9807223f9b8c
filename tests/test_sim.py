"""Tests for the Monte Carlo harness.

Frozen values were computed before this module existed: deviation bounds
from the bound evaluators directly, the two-point hellinger test's gamma
and error bound from closed forms, and the rate-curve scenarios calibrated
across several seeds in a standalone script (uniform-translation slopes
ranged -1.02 to -1.05, gaussian-location slopes -0.50 to -0.52).  The
seeded runs below are fully deterministic, so the slope and frequency
assertions cannot flake.
"""

import dataclasses
import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairfit.cli as cli
import pairfit.sim as sim
from pairfit import estimator
from pairfit.errors import ConfigError
from pairfit.estimator import ell_estimate
from pairfit.losses import LossSpec, loss
from pairfit.measures import (
    DiscreteMeasure,
    GaussianMeasure,
    HistogramMeasure,
    PartitionRef,
    UniformMeasure,
    hellinger_sq,
)
from pairfit.models import ModelBuilderConfig, build
from pairfit import robust_tests
from pairfit.robust_tests import Decision, hellinger_test_bound, run_test


def gaussian_grid_scenario(**overrides):
    base = dict(
        truth=GaussianMeasure(0.0, 1.0),
        model=ModelBuilderConfig(
            family="gaussian-location-grid", d=1, lo=-1.0, hi=1.0, step=0.5
        ),
        loss=LossSpec.tv(),
        n=100,
        replications=300,
        seed=6,
    )
    base.update(overrides)
    return sim.Scenario(**base)


def histogram_w_scenario(**overrides):
    base = dict(
        truth=UniformMeasure(0.0, 1.0),
        model=ModelBuilderConfig(
            family="histogram-net", cells=2, value_grid=(0.5, 1.0, 1.5)
        ),
        loss=LossSpec.wasserstein1(),
        n=200,
        replications=2000,
        seed=5,
    )
    base.update(overrides)
    return sim.Scenario(**base)


class TestScenario:
    def test_truth_list_coerced_to_tuple(self):
        pair = (DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([1.0], [1.0]))
        s = gaussian_grid_scenario(truth=list(pair), n=2)
        assert isinstance(s.truth, tuple)

    def test_invalid_counts(self):
        with pytest.raises(ConfigError, match="n must be"):
            gaussian_grid_scenario(n=0)
        with pytest.raises(ConfigError, match="replications"):
            gaussian_grid_scenario(replications=0)
        with pytest.raises(ConfigError, match="epsilon"):
            gaussian_grid_scenario(epsilon=0.0)
        with pytest.raises(ConfigError, match="seed"):
            gaussian_grid_scenario(seed=1.5)

    def test_contamination_weight_validation(self):
        spike = DiscreteMeasure([8.0], [1.0])
        with pytest.raises(ConfigError, match="\\[0, 1\\]"):
            sim.Contamination(GaussianMeasure(0.0), (0.5, 1.2), spike)
        with pytest.raises(ConfigError, match="weights for n"):
            gaussian_grid_scenario(
                truth=sim.Contamination(GaussianMeasure(0.0), (0.1,) * 3, spike),
                n=4,
            )

    def test_truth_vector_length_checked(self):
        pair = (DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([1.0], [1.0]))
        with pytest.raises(ConfigError, match="coordinates"):
            gaussian_grid_scenario(truth=pair, n=3)

    def test_config_round_trip(self):
        spike = DiscreteMeasure([8.0], [1.0])
        for scenario in (
            gaussian_grid_scenario(),
            histogram_w_scenario(),
            gaussian_grid_scenario(
                truth=sim.Contamination(GaussianMeasure(0.0), (0.02,) * 100, spike)
            ),
            gaussian_grid_scenario(
                truth=(GaussianMeasure(0.0), GaussianMeasure(1.0)), n=2
            ),
        ):
            cfg = scenario.to_config()
            rebuilt = sim.Scenario.from_config(cfg)
            assert rebuilt.to_config() == cfg

    def test_digest_ignores_seed_but_not_design(self):
        s = gaussian_grid_scenario()
        assert dataclasses.replace(s, seed=999).digest() == s.digest()
        assert dataclasses.replace(s, n=101).digest() != s.digest()
        assert dataclasses.replace(s, epsilon=2.0).digest() != s.digest()

    def test_from_config_errors(self):
        with pytest.raises(ConfigError, match="missing"):
            sim.Scenario.from_config({"truth": {}, "model": {}, "loss": {}})
        cfg = gaussian_grid_scenario().to_config()
        cfg["truth"] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="truth kind"):
            sim.Scenario.from_config(cfg)

    @given(
        alphas=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_any_unit_interval_weights_accepted(self, alphas):
        c = sim.Contamination(
            GaussianMeasure(0.0), tuple(alphas), DiscreteMeasure([9.0], [1.0])
        )
        assert len(c.alphas) == len(alphas)


class TestReplicationRng:
    def test_streams_depend_only_on_seed_and_rep(self):
        a = sim.replication_rng(7, 3).random(5)
        b = sim.replication_rng(7, 3).random(5)
        c = sim.replication_rng(7, 4).random(5)
        d = sim.replication_rng(8, 3).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_negative_and_huge_seeds(self):
        assert sim.replication_rng(-1, 0).random() == sim.replication_rng(
            -1, 0
        ).random()
        big = 2**80 + 17
        assert sim.replication_rng(big, 0).random() == sim.replication_rng(
            big % 2**64, 0
        ).random()


class TestSampleTruth:
    def test_contamination_extremes(self):
        spike = DiscreteMeasure([8.0], [1.0])
        all_cont = gaussian_grid_scenario(
            truth=sim.Contamination(GaussianMeasure(0.0), (1.0,) * 10, spike), n=10
        )
        x = sim.sample_truth(all_cont, sim.replication_rng(0, 0))
        assert np.all(x == 8.0)
        none_cont = gaussian_grid_scenario(
            truth=sim.Contamination(GaussianMeasure(0.0), (0.0,) * 10, spike), n=10
        )
        y = sim.sample_truth(none_cont, sim.replication_rng(0, 0))
        assert np.all(y != 8.0)

    def test_tuple_truth_samples_each_coordinate(self):
        points = (
            DiscreteMeasure([1.0], [1.0]),
            DiscreteMeasure([2.0], [1.0]),
            DiscreteMeasure([3.0], [1.0]),
        )
        s = gaussian_grid_scenario(truth=points, n=3)
        x = sim.sample_truth(s, sim.replication_rng(0, 0))
        assert np.array_equal(x, [1.0, 2.0, 3.0])

    def test_iid_shape_and_determinism(self):
        s = gaussian_grid_scenario(n=25)
        x = sim.sample_truth(s, sim.replication_rng(3, 1))
        y = sim.sample_truth(s, sim.replication_rng(3, 1))
        assert x.shape == (25,)
        assert np.array_equal(x, y)


class TestRunEstimation:
    def test_single_candidate_always_chosen(self):
        s = gaussian_grid_scenario(
            model=ModelBuilderConfig(
                family="gaussian-location-grid", d=1, lo=0.0, hi=0.0, step=0.5
            ),
            n=20,
            replications=5,
        )
        record = sim.run_estimation(s)
        assert all(r.chosen == 0 for r in record.rows)
        assert all(r.loss == 0.0 for r in record.rows)

    def test_empirical_measure_wins_under_wasserstein(self):
        # With the W loss the sup-statistic of the empirical measure itself
        # is zero and every other candidate's is positive, so whenever the
        # empirical measure joins the candidate list it is chosen and the
        # attained W distance to it is exactly zero.
        spec = LossSpec.wasserstein1()
        truth = UniformMeasure(0.1, 0.8)
        rival_a = UniformMeasure(0.2, 0.6)
        rival_b = DiscreteMeasure([0.3, 0.7], [0.5, 0.5])
        for rep in range(5):
            x = truth.sample(40, sim.replication_rng(17, rep))
            empirical = DiscreteMeasure(list(x), [1.0 / 40] * 40)
            report = ell_estimate(x, [empirical, rival_a, rival_b], spec)
            assert report.chosen == 0
            assert report.sup_stat[0] == 0.0
            assert loss(spec, empirical, empirical) == 0.0

    def test_rows_match_replications_and_losses_dominate_model_minimum(self):
        s = gaussian_grid_scenario(
            truth=GaussianMeasure(0.1, 1.0), n=40, replications=40
        )
        record = sim.run_estimation(s)
        assert len(record.rows) == 40
        model = build(s.model)
        best = min(
            loss(s.loss, GaussianMeasure(0.1, 1.0), cand) for cand in model.candidates
        )
        assert all(r.loss >= best - 1e-12 for r in record.rows)
        assert any(r.loss == pytest.approx(best, rel=1e-12) for r in record.rows)

    def test_contamination_leaves_location_estimate_stable(self):
        # Two paired runs, alpha = 0 versus alpha = 0.02, with a far point
        # mass as the contaminant: the median absolute location error may
        # grow by at most a factor of two (or one grid step, whichever is
        # larger).
        spike = DiscreteMeasure([8.0], [1.0])
        base = GaussianMeasure(0.0, 1.0)
        model = ModelBuilderConfig(
            family="gaussian-location-grid", d=1, lo=-1.0, hi=1.0, step=0.25
        )
        clean = sim.Scenario(
            truth=base, model=model, loss=LossSpec.tv(), n=400,
            replications=60, seed=31,
        )
        contaminated = sim.Scenario(
            truth=sim.Contamination(base, (0.02,) * 400, spike),
            model=model, loss=LossSpec.tv(), n=400, replications=60, seed=31,
        )
        params = build(model).candidate_params
        med_clean = float(
            np.median([abs(params[r.chosen]) for r in sim.run_estimation(clean).rows])
        )
        med_cont = float(
            np.median(
                [abs(params[r.chosen]) for r in sim.run_estimation(contaminated).rows]
            )
        )
        assert med_cont <= max(2.0 * med_clean, 0.25)

    def test_bit_identical_across_runs_and_thread_counts(self):
        s = gaussian_grid_scenario(n=30, replications=24)
        first = sim.run_estimation(s, threads=1)
        again = sim.run_estimation(s, threads=1)
        parallel = sim.run_estimation(s, threads=3)
        for other in (again, parallel):
            assert sim.records_csv_text(first) == sim.records_csv_text(other)
            assert sim.records_jsonl_text(first) == sim.records_jsonl_text(other)
            assert sim.summary_json_text(first) == sim.summary_json_text(other)

    def test_rows_follow_a_new_generator_per_replication(self):
        # A replication's draws depend only on (seed, rep): the loop's
        # restarted generator must give what a new philox_rng gives.
        s = gaussian_grid_scenario(n=30, replications=12, seed=-5)
        record = sim.run_estimation(s)
        model = build(s.model)
        for row in record.rows:
            x = sim.sample_truth(s, sim.replication_rng(s.seed, row.rep))
            report = ell_estimate(x, model, s.loss, epsilon=s.epsilon)
            assert row.chosen == report.chosen
            assert row.sup_stat == float(report.sup_stat[report.chosen])

    def test_no_generator_shared_across_threads(self):
        # More threads than cores, and a short switch interval so threads
        # interleave inside replications: a shared generator restarted by
        # one thread while another draws would change some row.
        s = gaussian_grid_scenario(n=30, replications=24)
        first = sim.records_csv_text(sim.run_estimation(s, threads=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (4, 30):
                assert sim.records_csv_text(sim.run_estimation(s, threads=threads)) == first
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [2, 5, 64])
    def test_workers_capped_at_replications(self, monkeypatch, threads):
        # A fake pool records the worker count and runs the chunks serially,
        # so no thread starts however many are asked for.
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        s = gaussian_grid_scenario(n=20, replications=5)
        first = sim.records_csv_text(sim.run_estimation(s, threads=1))
        monkeypatch.setattr(sim, "ThreadPoolExecutor", SerialPool)
        assert sim.records_csv_text(sim.run_estimation(s, threads=threads)) == first
        assert asked == [min(threads, 5)]

    @pytest.mark.parametrize("threads", [0, -1, True, 2.0])
    def test_threads_must_be_a_positive_integer(self, threads):
        s = gaussian_grid_scenario(n=20, replications=5)
        with pytest.raises(ConfigError, match="threads must be a positive integer"):
            sim.run_estimation(s, threads=threads)
        with pytest.raises(ConfigError, match="threads must be a positive integer"):
            sim.rate_curve(s, [10], threads=threads)

    def test_summary_recomputable_from_rows(self):
        s = gaussian_grid_scenario(n=30, replications=50)
        record = sim.run_estimation(s)
        parsed = [
            line.split(",")
            for line in sim.records_csv_text(record).splitlines()[1:]
        ]
        losses = np.array([float(p[2]) for p in parsed])
        assert float(losses.mean()) == record.summary["loss"]["mean"]
        assert float(np.quantile(losses, 0.5)) == record.summary["loss"]["median"]
        counts: dict[str, int] = {}
        for p in parsed:
            counts[p[1]] = counts.get(p[1], 0) + 1
        assert counts == record.summary["chosen_counts"]

    @pytest.mark.parametrize(
        "losses, expected",
        [
            # (n - 1) q = 1 falls on the finite 2.0, whose upper neighbour is inf.
            ([1.0, 2.0, math.inf], [1.2, 1.5, 2.0, math.inf, math.inf]),
            ([0.3, math.inf, 0.1, 0.2, math.inf], [0.14, 0.2, 0.3, math.inf, math.inf]),
            ([math.inf] * 4, [math.inf] * 5),
        ],
    )
    def test_quantiles_with_infinite_losses(self, losses, expected, recwarn):
        qs = [0.1, 0.25, 0.5, 0.75, 0.9]
        got = sim._quantiles(np.array(losses), qs)
        assert got == pytest.approx(expected, rel=1e-15)
        assert not recwarn.list

    def test_row_count_invariant_enforced(self):
        s = gaussian_grid_scenario(n=10, replications=3)
        record = sim.run_estimation(s)
        with pytest.raises(ConfigError, match="rows"):
            sim.ExperimentRecord(
                digest=record.digest,
                scenario=record.scenario,
                rows=record.rows[:2],
                summary=record.summary,
            )


class TestDeviationFrequency:
    def test_wasserstein_bound_holds_with_margin(self):
        table = sim.deviation_frequency(
            sim.run_estimation(histogram_w_scenario()), [0.5, 1.0, 2.0]
        )
        assert table["inf_loss"] == 0.0
        expected_bounds = {
            0.5: 0.29284271247461896,
            1.0: 0.35142135623730947,
            2.0: 0.43426406871192846,
        }
        for row in table["rows"]:
            assert row["bound"] == pytest.approx(
                expected_bounds[row["xi"]], rel=1e-12
            )
            assert row["target"] == pytest.approx(1.0 - math.exp(-row["xi"]))
            # One-sided guarantee, with the golden-test slack and, in this
            # conservative-constant scenario, outright dominance.
            reps = 2000
            slack = 3.0 * math.sqrt(row["target"] * (1.0 - row["target"]) / reps)
            assert row["frequency"] >= row["target"] - slack
            assert row["frequency"] >= row["target"]

    def test_large_xi_reaches_frequency_one(self):
        table = sim.deviation_frequency(
            sim.run_estimation(histogram_w_scenario(replications=200)), [50.0]
        )
        assert table["rows"][0]["frequency"] == 1.0

    def test_tv_vc_bound_holds(self):
        table = sim.deviation_frequency(
            sim.run_estimation(gaussian_grid_scenario()), [0.5, 1.0]
        )
        by_xi = {row["xi"]: row for row in table["rows"]}
        # Same plug-in as the bound evaluator's frozen example
        # (V = 2, n = 100, xi = 1, epsilon = 1).
        assert by_xi[1.0]["bound"] == pytest.approx(12.951953353148136, rel=1e-12)
        for row in table["rows"]:
            assert row["frequency"] >= row["target"]

    def test_unsupported_loss_kind(self):
        s = gaussian_grid_scenario(loss=LossSpec.hellinger2(), replications=1)
        with pytest.raises(ConfigError, match="deviation bound"):
            sim.deviation_frequency(sim.run_estimation(s), [1.0])

    def test_nonpositive_xi_rejected(self):
        with pytest.raises(ConfigError, match="xi"):
            sim.deviation_frequency(
                sim.run_estimation(histogram_w_scenario(replications=2)), [0.0]
            )


class TestRateCurve:
    def test_uniform_translation_beats_root_n(self):
        scenario = sim.Scenario(
            truth=UniformMeasure(0.025, 1.0),
            model=ModelBuilderConfig(
                family="translation-grid", base="uniform",
                lo=0.0, hi=0.05, step=0.0002,
            ),
            loss=LossSpec.tv(),
            n=100,
            replications=200,
            seed=11,
        )
        curve = sim.rate_curve(scenario, [100, 400, 1600])
        medians = [row["median_loss"] for row in curve["rows"]]
        assert medians[0] > medians[1] > medians[2] > 0
        assert curve["slope"] <= -0.8

    def test_gaussian_location_is_parametric(self):
        scenario = sim.Scenario(
            truth=GaussianMeasure(0.0, 1.0),
            model=ModelBuilderConfig(
                family="gaussian-location-grid", d=1,
                lo=-0.6, hi=0.6, step=0.01,
            ),
            loss=LossSpec.tv(),
            n=50,
            replications=200,
            seed=21,
        )
        curve = sim.rate_curve(scenario, [50, 200, 800])
        assert -0.65 <= curve["slope"] <= -0.35

    def test_split_halves_agree(self):
        s = sim.Scenario(
            truth=GaussianMeasure(0.0, 1.0),
            model=ModelBuilderConfig(
                family="gaussian-location-grid", d=1,
                lo=-0.6, hi=0.6, step=0.01,
            ),
            loss=LossSpec.tv(),
            n=50,
            replications=300,
            seed=33,
        )
        losses = [r.loss for r in sim.run_estimation(s).rows]
        first = float(np.median(losses[:150]))
        second = float(np.median(losses[150:]))
        assert abs(first - second) <= 0.02

    def test_zero_median_leaves_slope_unset(self):
        s = gaussian_grid_scenario(
            model=ModelBuilderConfig(
                family="gaussian-location-grid", d=1, lo=0.0, hi=0.0, step=0.5
            ),
            replications=5,
        )
        curve = sim.rate_curve(s, [20, 40])
        assert [row["median_loss"] for row in curve["rows"]] == [0.0, 0.0]
        assert curve["slope"] is None

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigError, match="sample size"):
            sim.rate_curve(gaussian_grid_scenario(), [])


class TestTestErrorMc:
    def test_two_point_hellinger_example(self):
        # Singular truth against two rotated two-point candidates; gamma
        # sits just under the 2/3 threshold and the error bound follows.
        a = 0.1
        P_star = DiscreteMeasure([0.0, 1.0], [1.0, 0.0])
        P = DiscreteMeasure(
            [0.0, 1.0], [math.cos(2 * a) ** 2, math.sin(2 * a) ** 2]
        )
        Q = DiscreteMeasure(
            [0.0, 1.0], [math.cos(6 * a) ** 2, math.sin(6 * a) ** 2]
        )
        result = sim.test_error_mc(
            P_star, P, Q, LossSpec.hellinger2(), n=200, reps=2000, seed=42
        )
        assert result["gamma"] == pytest.approx(0.6651642138667551, rel=1e-9)
        assert result["bound_bernstein"] == pytest.approx(
            0.9516334310055166, rel=1e-9
        )
        # Dual route: the hellinger-specific display must agree exactly.
        direct = hellinger_test_bound(
            hellinger_sq(P_star, P), hellinger_sq(P_star, Q), 200
        )
        assert result["bound_bernstein"] == pytest.approx(
            direct["bound"], rel=1e-12
        )
        slack = 3.0 * math.sqrt(
            result["bound_bernstein"] * (1 - result["bound_bernstein"]) / 2000
        )
        assert result["empirical_error"] <= result["bound_bernstein"] + slack

    def test_truth_equals_p_only_q_choices_count(self):
        P = DiscreteMeasure([0.0, 1.0], [0.7, 0.3])
        Q = DiscreteMeasure([0.0, 1.0], [0.2, 0.8])
        result = sim.test_error_mc(P, P, Q, LossSpec.tv(), n=30, reps=1500, seed=7)
        assert result["gamma"] == 0.0
        assert result["ties"] == 0
        assert result["choose_p"] + result["choose_q"] == 1500
        bound = result["bound_hoeffding"]
        slack = 3.0 * math.sqrt(bound * (1 - bound) / 1500)
        assert result["empirical_error"] <= bound + slack
        assert result["bound_bernstein"] is None

    def test_identical_candidates_tie_every_time(self):
        P = DiscreteMeasure([0.0, 1.0], [0.7, 0.3])
        Q = DiscreteMeasure([0.0, 1.0], [0.7, 0.3])
        P_star = DiscreteMeasure([0.0, 1.0], [0.9, 0.1])
        result = sim.test_error_mc(P_star, P, Q, LossSpec.tv(), n=20, reps=50, seed=1)
        assert result["empirical_error"] is None
        assert result["ties"] == 50
        assert result["bound_hoeffding"] == 1.0
        assert result["gamma"] == pytest.approx(3.0)
        assert "undefined" in result["note"]

    def test_degenerate_truth_on_both_candidates(self):
        P = DiscreteMeasure([0.0, 1.0], [0.7, 0.3])
        result = sim.test_error_mc(P, P, P, LossSpec.tv(), n=10, reps=20, seed=2)
        assert result["gamma"] is None
        assert result["bound_hoeffding"] == 1.0
        assert result["empirical_error"] is None

    def test_argument_validation(self):
        P = DiscreteMeasure([0.0, 1.0], [0.7, 0.3])
        with pytest.raises(ConfigError, match="reps"):
            sim.test_error_mc(P, P, P, LossSpec.tv(), n=10, reps=0, seed=0)
        with pytest.raises(ConfigError, match="n must"):
            sim.test_error_mc(P, P, P, LossSpec.tv(), n=0, reps=5, seed=0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"reps": True}, "reps must be a positive integer, got True"),
            ({"reps": 5.0}, "reps must be a positive integer"),
            ({"n": True}, "n must be a positive integer, got True"),
            ({"n": 10.0}, "n must be a positive integer"),
            ({"seed": 1.5}, "RNG seed must be an integer, got 1.5"),
            ({"seed": True}, "RNG seed must be an integer"),
        ],
    )
    def test_refuses_bools_and_floats(self, kwargs, match):
        # Scenario's positive-integer rule for n and reps; the stream key's
        # integer rule for seed, which the uint64 cast would truncate.
        P = DiscreteMeasure([0.0, 1.0], [0.7, 0.3])
        args = {"n": 10, "reps": 5, "seed": 0, **kwargs}
        with pytest.raises(ConfigError, match=match):
            sim.test_error_mc(P, P, P, LossSpec.tv(), **args)

    @pytest.mark.parametrize("lists", [("P", "Q"), ("P_star",), ("P",), ("Q",)])
    def test_per_coordinate_measures_are_refused_before_sampling(self, lists, monkeypatch):
        # One-coordinate sequences: Model([P, Q]) would take the pair as a
        # tuple model, but the attained losses need single measures.
        def no_sampling(*args):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(sim, "_restart_stream", no_sampling)
        args = {"P_star": GaussianMeasure(0.0), "P": GaussianMeasure(0.0), "Q": GaussianMeasure(1.0)}
        for name in lists:
            args[name] = [args[name]]
        with pytest.raises(ConfigError, match=f"got a list for {lists[0]}"):
            sim.test_error_mc(args["P_star"], args["P"], args["Q"], LossSpec.tv(), n=1, reps=3, seed=0)

    def test_numpy_integer_seed_draws_the_int_stream(self):
        P = DiscreteMeasure([0.0, 1.0], [0.7, 0.3])
        Q = DiscreteMeasure([0.0, 1.0], [0.2, 0.8])
        got = sim.test_error_mc(P, P, Q, LossSpec.tv(), n=5, reps=200, seed=np.int64(-3))
        want = sim.test_error_mc(P, P, Q, LossSpec.tv(), n=5, reps=200, seed=2**64 - 3)
        assert got == want


@pytest.fixture
def engine_builds(monkeypatch):
    """Counts ``PairwiseEngine`` constructions while the test runs."""
    calls = []
    original = estimator.PairwiseEngine.__init__

    def counted(self, spec, model):
        calls.append(spec)
        original(self, spec, model)

    monkeypatch.setattr(estimator.PairwiseEngine, "__init__", counted)
    return calls


def _two_point_cases():
    part = PartitionRef(3, (0.0, 1.0))
    discrete = DiscreteMeasure([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
    return {
        "discrete-tv": (
            discrete,
            DiscreteMeasure([0.0, 1.0, 2.0], [0.4, 0.4, 0.2]),
            DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]),
            LossSpec.tv(),
            25,
        ),
        "gaussian-hellinger2": (
            GaussianMeasure(0.1, 1.0),
            GaussianMeasure(0.0, 1.0),
            GaussianMeasure(0.5, 1.0),
            LossSpec.hellinger2(),
            30,
        ),
        "histogram-linf": (
            HistogramMeasure(part, [1.2, 1.0, 0.8]),
            HistogramMeasure(part, [1.5, 1.0, 0.5]),
            HistogramMeasure(part, [0.6, 1.2, 1.2]),
            LossSpec.linf(D=3),
            12,
        ),
        # Identical candidates: every statistic is zero and every rep ties.
        "all-ties": (discrete, discrete, DiscreteMeasure([0.0, 1.0, 2.0], [0.5, 0.3, 0.2]), LossSpec.tv(), 10),
    }


def _row_contract_scenarios():
    """Backend -> a small scenario whose engine evaluates with that backend."""
    atoms = [0.0, 1.0, 2.0]
    gaussian_tuple = {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}}
    return {
        # A repeated candidate scores every observation 0 against its twin.
        "atom": (
            "atom",
            sim.Scenario(
                truth=DiscreteMeasure(atoms, [0.4, 0.35, 0.25]),
                model=ModelBuilderConfig(
                    family="discrete",
                    space_size=3,
                    candidates=((0.5, 0.3, 0.2), (0.2, 0.3, 0.5), (0.5, 0.3, 0.2), (0.1, 0.6, 0.3)),
                ),
                loss=LossSpec.tv(),
                n=9,
                replications=40,
                seed=3,
            ),
        ),
        "compiled-partition": (
            "piecewise",
            histogram_w_scenario(loss=LossSpec.tv(), n=25, replications=40),
        ),
        "piecewise-scores": ("piecewise", gaussian_grid_scenario(n=25, replications=40)),
        "piecewise-linear": ("piecewise", histogram_w_scenario(n=25, replications=40)),
        "generic": (
            "generic",
            gaussian_grid_scenario(loss=LossSpec.hellinger2(), n=25, replications=20),
        ),
        "tuple": (
            "tuple",
            sim.Scenario(
                truth=(GaussianMeasure(0.1), GaussianMeasure(0.2), GaussianMeasure(0.0)),
                model=ModelBuilderConfig(
                    family="regression-tuples",
                    theta_net=((0.0, 0.0, 0.0), (0.1, 0.2, 0.0), (0.5, -0.5, 0.5)),
                    base_q=gaussian_tuple,
                    n=3,
                ),
                loss=LossSpec.hellinger2(),
                n=3,
                replications=20,
                seed=4,
            ),
        ),
    }


class TestReplicationRowContract:
    """A replication row reads only the row suprema of ``statistic_matrix``.

    For every backend, each row is bitwise what ``ell_estimate`` chooses on
    that replication's sample, signed zeros included.
    """

    CASES = _row_contract_scenarios()

    @pytest.mark.parametrize("backend", list(CASES))
    def test_rows_equal_a_per_replication_estimate(self, backend):
        mode, s = self.CASES[backend]
        model = build(s.model)
        engine = estimator.PairwiseEngine(s.loss, model)
        assert engine.stats.backend == mode
        record = sim._replicate(s, engine, sim._LossTable(s, model), threads=1)
        for row in record.rows:
            x = sim.sample_truth(s, sim.replication_rng(s.seed, row.rep))
            report = ell_estimate(x, model, s.loss, epsilon=s.epsilon, engine=engine)
            assert row.chosen == report.chosen
            assert np.float64(row.sup_stat).tobytes() == report.sup_stat[report.chosen].tobytes()

    @pytest.mark.parametrize("backend", list(CASES))
    def test_matrix_is_the_signed_gather_of_the_pair_statistics(self, backend):
        _, s = self.CASES[backend]
        model = build(s.model)
        engine = estimator.PairwiseEngine(s.loss, model)
        m = len(model)
        for rep in range(s.replications):
            x = sim.sample_truth(s, sim.replication_rng(s.seed, rep))
            h = engine.pair_statistics(x)
            expected = np.zeros((m, m))
            iu = np.triu_indices(m, k=1)
            expected[iu] = h
            expected[(iu[1], iu[0])] = -h
            assert engine.statistic_matrix(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("backend", list(CASES))
    def test_every_observation_is_scored_once(self, backend, threads, monkeypatch):
        # Blocks reach the engine only through ``choices``, never through a
        # per-replication matrix; each replication's sample is one block
        # row, drawn from its own stream, and no row is scored twice.
        _, s = self.CASES[backend]
        model = build(s.model)
        engine = estimator.PairwiseEngine(s.loss, model)
        blocks = []
        original = estimator.PairwiseEngine.choices

        def recording(eng, block, probe):
            blocks.append(np.array(block, copy=True))
            return original(eng, block, probe)

        def no_matrix(eng, sample):
            raise AssertionError("a replication formed the statistic matrix")

        monkeypatch.setattr(estimator.PairwiseEngine, "choices", recording)
        monkeypatch.setattr(estimator.PairwiseEngine, "statistic_matrix", no_matrix)
        record = sim._replicate(s, engine, sim._LossTable(s, model), threads=threads)
        monkeypatch.undo()
        rows = np.concatenate(blocks)
        assert rows.shape == (s.replications, s.n)
        want = np.array([sim.sample_truth(s, sim.replication_rng(s.seed, rep)) for rep in range(s.replications)])
        if threads == 1:
            assert rows.tobytes() == want.tobytes()
        else:
            assert sorted(r.tobytes() for r in rows) == sorted(r.tobytes() for r in want)
        assert [row.rep for row in record.rows] == list(range(s.replications))
        # Whole replications per block, within the budget unless one is over it.
        stats = engine.stats
        width = max(s.n, 1 + 2 * (stats.rows or stats.pairs), 2 * (stats.components or 0), 2 * (stats.cuts or 0))
        assert all(len(b) == 1 or len(b) * width <= sim._BLOCK_OBSERVATIONS for b in blocks)

    def test_simulate_scores_each_sample_size_once(self, monkeypatch):
        # The rate row at the scenario's n reads the record: 300 samples of
        # 100, then 300 each of 20 and 40, 30,000 + 18,000 observations.
        observations = []
        original = estimator.PairwiseEngine.choices

        def counting(eng, block, probe):
            observations.append(block.size)
            return original(eng, block, probe)

        monkeypatch.setattr(estimator.PairwiseEngine, "choices", counting)
        sim.simulate(gaussian_grid_scenario(), ns=[20, 100, 40])
        assert sum(observations) == 300 * (100 + 20 + 40)

    @pytest.mark.parametrize("backend", list(CASES))
    def test_two_threads_write_the_same_artifacts(self, backend):
        _, s = self.CASES[backend]
        one, two = (sim.run_estimation(s, threads=t) for t in (1, 2))
        for write in (sim.records_csv_text, sim.records_jsonl_text, sim.summary_json_text):
            assert write(one) == write(two)

    def test_twin_candidates_put_negative_zeros_in_the_matrix(self):
        # So the bitwise checks above see both signs of zero.
        _, s = self.CASES["atom"]
        engine = estimator.PairwiseEngine(s.loss, build(s.model))
        M = engine.statistic_matrix(sim.sample_truth(s, sim.replication_rng(s.seed, 0)))
        assert M[2, 0] == 0.0 and np.signbit(M[2, 0]) and not np.signbit(M[0, 2])


class TestEngineReuse:
    """Monte Carlo loops build one engine and decide exactly as the one-shot path."""

    @pytest.mark.parametrize(
        "case, n, reps",
        [pytest.param(case, None, 40, id=case) for case in _two_point_cases()]
        # Blocks of 16 replications: 16 + 16 + 8.
        + [
            pytest.param(case, 1000, 40, id=f"{case}-n1000")
            for case in ("gaussian-hellinger2", "discrete-tv")
        ]
        # One replication is over the block budget: blocks of one.
        + [
            pytest.param(
                "gaussian-hellinger2", sim._BLOCK_OBSERVATIONS + 1, 3, id="gaussian-hellinger2-over-budget"
            )
        ],
    )
    def test_test_error_mc_matches_run_test_per_replication(
        self, case, n, reps, monkeypatch, engine_builds
    ):
        P_star, P, Q, spec, case_n = _two_point_cases()[case]
        n = n or case_n
        seed = 9
        blocks = []
        original = estimator.PairwiseEngine.pair_statistics

        def recording(engine, sample):
            stats = original(engine, sample)
            blocks.append((np.array(sample, copy=True), stats.copy()))
            return stats

        monkeypatch.setattr(estimator.PairwiseEngine, "pair_statistics", recording)
        result = sim.test_error_mc(P_star, P, Q, spec, n=n, reps=reps, seed=seed)
        assert len(engine_builds) == 1
        # Whole replications per block, as many as the budget allows.
        per_block = max(1, sim._BLOCK_OBSERVATIONS // n)
        sizes = [min(per_block, reps - start) for start in range(0, reps, per_block)]
        assert [block.shape for block, _ in blocks] == [(size, n) for size in sizes]
        assert [stats.shape for _, stats in blocks] == [(size, 1) for size in sizes]
        samples = [row for block, _ in blocks for row in block]
        statistics = [row[0] for _, stats in blocks for row in stats]
        assert len(samples) == reps
        monkeypatch.undo()
        tallies = {Decision.CHOOSE_P: 0, Decision.CHOOSE_Q: 0, Decision.TIE: 0}
        for rep, (x, statistic) in enumerate(zip(samples, statistics)):
            expected_x = P_star.sample(n, sim.replication_rng(seed, rep))
            assert x.tobytes() == expected_x.tobytes()
            oracle = run_test(expected_x, P, Q, spec)
            # Bitwise, signed zeros included.
            assert statistic.tobytes() == np.float64(oracle.statistic).tobytes()
            decision = robust_tests._sign_decision(float(statistic))
            assert robust_tests.TestOutcome(decision, float(statistic)) == oracle
            tallies[oracle.decision] += 1
        assert result["choose_p"] == tallies[Decision.CHOOSE_P]
        assert result["choose_q"] == tallies[Decision.CHOOSE_Q]
        assert result["ties"] == tallies[Decision.TIE]
        if case == "all-ties":
            assert result["ties"] == reps

    def test_rate_curve_builds_one_engine(self, engine_builds):
        sim.rate_curve(gaussian_grid_scenario(replications=20), [20, 40, 80])
        assert len(engine_builds) == 1

    def test_deviation_frequency_builds_one_model_and_no_engine(self, monkeypatch, engine_builds):
        record = sim.run_estimation(gaussian_grid_scenario(replications=20))
        builds = []
        engine_builds.clear()

        def counted_build(config):
            builds.append(config)
            return build(config)

        monkeypatch.setattr(sim, "build", counted_build)
        sim.deviation_frequency(record, [0.5, 1.0])
        assert len(builds) == 1
        assert engine_builds == []

    @pytest.mark.parametrize("threads", [1, 3])
    def test_simulate_command_builds_one_model_and_engine(
        self, tmp_path, monkeypatch, engine_builds, threads
    ):
        scenario = gaussian_grid_scenario(n=40, replications=30)
        xis, ns = [0.5, 1.0], [20, 40, 80]
        # The separate library calls the command made before it shared one
        # engine: its artifacts must keep their bytes.
        record = sim.run_estimation(scenario, threads=threads)
        extra = {
            "command": "simulate",
            "deviation": sim.deviation_frequency(record, xis),
            "rate": sim.rate_curve(scenario, ns, threads=threads),
        }
        engine_builds.clear()
        builds = []

        def counted_build(config):
            builds.append(config)
            return build(config)

        monkeypatch.setattr(sim, "build", counted_build)
        doc = {
            "command": "simulate",
            "scenario": scenario.to_config(),
            "xis": xis,
            "ns": ns,
            "formats": ["csv", "summary"],
            "verbosity": 0,
        }
        config = tmp_path / "simulate.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(config), "--out", str(out), "--threads", str(threads)]
        assert cli.main(argv) == 0
        assert len(builds) == 1
        assert len(engine_builds) == 1
        assert (out / "curve.csv").read_text() == sim.curve_csv_text(extra["rate"])
        assert (out / "summary.json").read_text() == sim.summary_json_text(record, extra)
        assert (out / "records.csv").read_text() == sim.records_csv_text(record)

    def test_simulate_artifacts_identical_at_one_and_three_threads(self, tmp_path):
        # ACCEPTANCE 9 through the command: every artifact byte-identical.
        doc = {
            "command": "simulate",
            "scenario": gaussian_grid_scenario(n=40, replications=25).to_config(),
            "xis": [0.5, 1.0],
            "ns": [20, 40, 80],
            "formats": ["csv", "summary"],
            "verbosity": 0,
        }
        config = tmp_path / "simulate.json"
        config.write_text(json.dumps(doc))
        outputs = {}
        for threads in ("1", "3"):
            out = tmp_path / f"out-{threads}"
            assert cli.main(["simulate", "--config", str(config), "--out", str(out), "--threads", threads]) == 0
            outputs[threads] = {
                name: (out / name).read_bytes()
                for name in ("curve.csv", "summary.json", "records.csv")
            }
        assert outputs["1"] == outputs["3"]

    def test_engine_stats_stay_out_of_the_artifacts(self, tmp_path, monkeypatch):
        # Two runs whose engines report very different build times write
        # the same bytes, and no stats field name appears in any artifact.
        doc = {
            "command": "simulate",
            "scenario": gaussian_grid_scenario(n=30, replications=10).to_config(),
            "formats": ["csv", "json-lines", "summary"],
            "verbosity": 0,
        }
        config = tmp_path / "simulate.json"
        config.write_text(json.dumps(doc))
        engines = []
        real_init = estimator.PairwiseEngine.__init__

        def recording(self, spec, model):
            real_init(self, spec, model)
            engines.append(self)

        monkeypatch.setattr(estimator.PairwiseEngine, "__init__", recording)
        outputs = []
        for skew in (0.0, 1e6):
            clock = itertools.count(step=1.0 + skew)
            monkeypatch.setattr(estimator.time, "perf_counter", lambda: float(next(clock)))
            out = tmp_path / f"out-{skew}"
            assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            outputs.append(
                {name: (out / name).read_bytes() for name in ("summary.json", "records.csv", "records.jsonl")}
            )
        assert engines[0].stats.build_seconds != engines[1].stats.build_seconds
        assert outputs[0] == outputs[1]
        fields = [f.name for f in dataclasses.fields(estimator.EngineStats)]
        for blob in outputs[0].values():
            assert not any(name.encode() in blob for name in fields)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_rate_curve_rows_equal_separate_runs(self, threads):
        scenario = gaussian_grid_scenario(replications=40)
        ns = [20, 50, 125]
        curve = sim.rate_curve(scenario, ns, threads=threads)
        separate = [
            sim.run_estimation(dataclasses.replace(scenario, n=n), threads=threads)
            for n in ns
        ]
        expected = [
            {"n": n, "median_loss": rec.summary["loss"]["median"]}
            for n, rec in zip(ns, separate)
        ]
        # json.dumps writes each float's shortest round-trip repr: equal text, equal bits.
        assert json.dumps(curve["rows"]) == json.dumps(expected)


class TestArtifacts:
    def record(self):
        return sim.run_estimation(gaussian_grid_scenario(n=20, replications=8))

    def test_csv_round_trip(self):
        record = self.record()
        text = sim.records_csv_text(record)
        lines = text.splitlines()
        assert lines[0] == "rep,chosen,loss,sup_stat"
        # A row holds exactly the columns the records carry.
        assert [f.name for f in dataclasses.fields(sim.ReplicationRow)] == lines[0].split(",")
        assert len(lines) == 9
        for row, line in zip(record.rows, lines[1:]):
            rep, chosen, loss_txt, sup_txt = line.split(",")
            assert int(rep) == row.rep
            assert int(chosen) == row.chosen
            assert float(loss_txt) == row.loss
            assert float(sup_txt) == row.sup_stat

    def test_jsonl_rows_sorted_and_parseable(self):
        record = self.record()
        lines = sim.records_jsonl_text(record).splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert set(first) == {"rep", "chosen", "loss", "sup_stat"}
        assert list(first) == sorted(first)

    def test_summary_document(self):
        record = self.record()
        doc = json.loads(sim.summary_json_text(record, extra={"slope": -0.5}))
        assert doc["format_version"] == sim.FORMAT_VERSION
        assert doc["digest"] == record.digest
        assert doc["slope"] == -0.5
        rebuilt = sim.Scenario.from_config(doc["scenario"])
        assert rebuilt.to_config() == record.scenario

    def test_curve_csv(self):
        table = {"rows": [{"n": 100, "median_loss": 0.25}], "slope": -1.0}
        assert sim.curve_csv_text(table) == "n,median_loss\n100,0.25\n"

    def test_numpy_float_cells_write_plain_repr(self):
        # repr(np.float64(0.25)) is "np.float64(0.25)" under numpy 2; the
        # one CSV writer must still write "0.25".
        table = {"rows": [{"n": 100, "median_loss": np.float64(0.25)}]}
        assert sim.curve_csv_text(table) == "n,median_loss\n100,0.25\n"
        record = self.record()
        as_numpy = dataclasses.replace(
            record,
            rows=tuple(
                dataclasses.replace(r, loss=np.float64(r.loss), sup_stat=np.float64(r.sup_stat))
                for r in record.rows
            ),
        )
        text = sim.records_csv_text(as_numpy)
        assert "np." not in text
        assert text == sim.records_csv_text(record)
