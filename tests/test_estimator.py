"""Tests for the pairwise engine, the estimator, and the plug-in estimators."""

import functools
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairfit import estimator
from pairfit.errors import ConfigError
from pairfit.estimator import (
    Model,
    PairwiseEngine,
    ell_estimate,
    histogram_estimator,
    median_tv_estimator,
)
from pairfit.losses import LossSpec
from pairfit.measures import (
    CauchyMeasure,
    DiscreteMeasure,
    GaussianMeasure,
    HistogramMeasure,
    PartitionRef,
    PowerMeasure,
    UniformMeasure,
    empirical_measure,
    lj_distance,
    philox_rng,
    point_mass,
    wasserstein1,
)
from pairfit.models import build
from pairfit.robust_tests import run_test
from pairfit.testfam import (
    CallableScore,
    PiecewiseScore,
    PiecewiseTable,
    partition_pair_table,
    score,
    translation_pair_table,
)


def two_point_tv_model():
    return [
        DiscreteMeasure([0, 1], [0.9, 0.1]),
        DiscreteMeasure([0, 1], [0.1, 0.9]),
    ]


class TestPairwiseStatistic:
    def test_two_point_frozen(self):
        M = PairwiseEngine(LossSpec.tv(), two_point_tv_model()).statistic_matrix(np.zeros(3))
        assert np.allclose(M, [[0.0, -1.5], [1.5, 0.0]])

    def test_antisymmetry_zero_diagonal(self):
        rng = philox_rng(7, 0)
        model = [
            DiscreteMeasure([0, 1, 2], w / w.sum())
            for w in rng.random((4, 3)) + 0.05
        ]
        sample = rng.choice([0.0, 1.0, 2.0], size=20)
        M = PairwiseEngine(LossSpec.hellinger2(), model).statistic_matrix(sample)
        assert np.array_equal(M, -M.T)
        assert np.all(np.diag(M) == 0.0)

    def test_empirical_wasserstein_identity(self):
        # With the empirical measure in the model, its statistic against any
        # candidate equals -(n/2) * W1(empirical, candidate).
        rng = philox_rng(11, 0)
        x = rng.random(8)
        emp = empirical_measure(x)
        model = [emp, point_mass(0.3), UniformMeasure(0.0, 1.0)]
        M = PairwiseEngine(LossSpec.wasserstein1(), model).statistic_matrix(x)
        for k, q in enumerate(model[1:], start=1):
            assert abs(M[0, k] + 0.5 * x.size * wasserstein1(emp, q)) < 1e-10
            assert M[0, k] <= 1e-12

    def test_mismatched_tuple_sample_length(self):
        model = Model(
            candidates=[
                (GaussianMeasure(0.0), GaussianMeasure(1.0)),
                (GaussianMeasure(0.5), GaussianMeasure(1.5)),
            ],
        )
        with pytest.raises(ConfigError, match="length 2"):
            PairwiseEngine(LossSpec.tv(), model).statistic_matrix(np.zeros(3))

    def test_tuple_model_matches_hand_sum(self):
        coords = [
            (GaussianMeasure(0.0), GaussianMeasure(1.0)),
            (GaussianMeasure(0.5), GaussianMeasure(-0.5)),
            (GaussianMeasure(2.0), GaussianMeasure(2.0)),
        ]
        P = tuple(pq[0] for pq in coords)
        Q = tuple(pq[1] for pq in coords)
        model = Model(candidates=[P, Q])
        x = np.array([0.3, -0.2, 2.4])
        M = PairwiseEngine(LossSpec.tv(), model).statistic_matrix(x)
        by_hand = sum(
            float(score(LossSpec.tv(), p, q)(np.array([xi]))[0])
            for (p, q), xi in zip(coords, x)
        )
        assert abs(M[0, 1] - by_hand) < 1e-12
        assert M[1, 0] == -M[0, 1]

    def test_product_form_is_read_from_the_candidates(self):
        G = GaussianMeasure
        assert Model([G(0.0), G(1.0)]).product_form == "iid"
        P, Q = [G(0.0), G(1.0)], (G(2.0), G(3.0))
        model = Model([P, Q])
        assert model.product_form == "tuples"
        assert model.candidates == [tuple(P), Q]
        with pytest.raises(TypeError):
            Model([G(0.0), G(1.0)], product_form="tuples")

    def test_one_coordinate_lists_score_as_a_tuple_model(self):
        # The lists were taken for i.i.d. measures: AttributeError on 'atoms'.
        P, Q = GaussianMeasure(0.0), GaussianMeasure(1.0)
        x = np.array([0.3])
        M = PairwiseEngine(LossSpec.tv(), Model([[P], [Q]])).statistic_matrix(x)
        assert M[0, 1] == float(score(LossSpec.tv(), P, Q)(x)[0])
        assert M[1, 0] == -M[0, 1]

    @pytest.mark.parametrize(
        "candidates",
        [
            [GaussianMeasure(0.0), [GaussianMeasure(1.0)]],
            [[GaussianMeasure(0.0)], GaussianMeasure(1.0)],
            [[GaussianMeasure(0.0)], [GaussianMeasure(1.0), GaussianMeasure(2.0)]],
            [[GaussianMeasure(0.0)], [1.0]],
            [GaussianMeasure(0.0), "Q"],
            [1.0, 2.0],
        ],
        ids=["measure-then-list", "list-then-measure", "ragged", "float-entry", "string", "floats"],
    )
    def test_mixed_candidates_are_config_errors(self, candidates):
        with pytest.raises(ConfigError, match="candidate"):
            Model(candidates)


class TestBatchBackends:
    """The vectorized backends must agree with direct per-pair summation."""

    def direct(self, spec, model, sample):
        m = len(model)
        M = np.zeros((m, m))
        for i in range(m):
            for k in range(i + 1, m):
                val = float(score(spec, model[i], model[k])(sample).sum())
                M[i, k], M[k, i] = val, -val
        return M

    def test_atom_backend(self):
        rng = philox_rng(3, 0)
        model = [
            DiscreteMeasure([0, 1, 2, 3], w / w.sum())
            for w in rng.random((5, 4)) + 0.05
        ]
        sample = rng.choice([0.0, 1.0, 2.0, 3.0], size=40)
        for spec in [LossSpec.tv(), LossSpec.hellinger2()]:
            eng = PairwiseEngine(spec, model)
            assert eng._mode == "atom"
            got = eng.statistic_matrix(sample)
            assert np.max(np.abs(got - self.direct(spec, model, sample))) < 1e-11

    def test_piecewise_backend_gaussian(self):
        model = [GaussianMeasure(c) for c in (-0.5, 0.0, 0.5, 1.0)]
        rng = philox_rng(5, 0)
        sample = rng.normal(0.2, 1.0, size=60)
        eng = PairwiseEngine(LossSpec.tv(), model)
        assert eng._mode == "piecewise"
        got = eng.statistic_matrix(sample)
        assert np.max(np.abs(got - self.direct(LossSpec.tv(), model, sample))) < 1e-10

    def test_piecewise_backend_wasserstein(self):
        part = PartitionRef(4, (0.0, 1.0))
        rng = philox_rng(9, 0)
        model = [
            HistogramMeasure(part, 4.0 * w / w.sum())
            for w in rng.random((4, 4)) + 0.1
        ]
        sample = rng.random(30)
        eng = PairwiseEngine(LossSpec.wasserstein1(), model)
        assert eng._mode == "piecewise"
        got = eng.statistic_matrix(sample)
        direct = self.direct(LossSpec.wasserstein1(), model, sample)
        assert np.max(np.abs(got - direct)) < 1e-10

    def test_engine_reuse_matches_fresh(self):
        model = two_point_tv_model()
        eng = PairwiseEngine(LossSpec.tv(), model)
        for seed in (1, 2):
            x = philox_rng(seed, 0).choice([0.0, 1.0], size=12)
            fresh = PairwiseEngine(LossSpec.tv(), model).statistic_matrix(x)
            assert np.array_equal(eng.statistic_matrix(x), fresh)


class TestEllEstimate:
    def test_two_point_frozen(self):
        rep = ell_estimate(np.zeros(3), two_point_tv_model(), LossSpec.tv(), epsilon=1.0)
        assert np.allclose(rep.sup_stat, [0.0, 1.5])
        assert rep.chosen == 0
        assert rep.minimizer_set == (0,)

    def test_single_candidate(self):
        rep = ell_estimate(np.zeros(4), [DiscreteMeasure([0], [1.0])], LossSpec.tv())
        assert rep.sup_stat[0] == 0.0
        assert rep.chosen == 0
        assert rep.minimizer_set == (0,)

    def test_sup_stats_nonnegative_and_chosen_in_set(self):
        rng = philox_rng(21, 0)
        model = [GaussianMeasure(c) for c in np.linspace(-1, 1, 7)]
        sample = rng.normal(0.0, 1.0, size=50)
        rep = ell_estimate(sample, model, LossSpec.tv(), epsilon=0.25)
        assert np.all(rep.sup_stat >= 0.0)
        assert rep.chosen in rep.minimizer_set
        assert len(rep.minimizer_set) >= 1

    def test_empirical_in_minimizer_set_any_epsilon(self):
        rng = philox_rng(17, 0)
        x = rng.random(10)
        emp = empirical_measure(x)
        model = [UniformMeasure(0.0, 1.0), emp, point_mass(0.6)]
        rep = ell_estimate(x, model, LossSpec.wasserstein1(), epsilon=1e-9)
        assert 1 in rep.minimizer_set
        assert rep.sup_stat[1] <= 1e-10

    def test_epsilon_monotone(self):
        rng = philox_rng(29, 0)
        model = [GaussianMeasure(c) for c in np.linspace(-1, 1, 9)]
        sample = rng.normal(0.3, 1.0, size=30)
        eng = PairwiseEngine(LossSpec.tv(), model)
        sets = [
            set(ell_estimate(sample, model, LossSpec.tv(), epsilon=e, engine=eng).minimizer_set)
            for e in (0.1, 0.5, 1.0, 5.0)
        ]
        for small, big in zip(sets, sets[1:]):
            assert small <= big

    def test_candidate_permutation_consistency(self):
        rng = philox_rng(31, 0)
        model = [GaussianMeasure(c) for c in (-0.4, 0.1, 0.7)]
        sample = rng.normal(0.0, 1.0, size=40)
        rep = ell_estimate(sample, model, LossSpec.tv(), epsilon=0.3)
        perm = [2, 0, 1]  # new index -> old index
        rep2 = ell_estimate(sample, [model[i] for i in perm], LossSpec.tv(), epsilon=0.3)
        assert np.allclose(rep2.sup_stat, rep.sup_stat[perm])
        assert {perm[i] for i in rep2.minimizer_set} == set(rep.minimizer_set)

    def test_sample_permutation_invariance(self):
        model = [GaussianMeasure(c) for c in (-0.4, 0.1, 0.7)]
        x = philox_rng(37, 0).normal(0.0, 1.0, size=20)
        a = ell_estimate(x, model, LossSpec.tv())
        b = ell_estimate(x[::-1].copy(), model, LossSpec.tv())
        assert np.allclose(a.pairwise, b.pairwise)
        assert a.minimizer_set == b.minimizer_set

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError, match="epsilon"):
            ell_estimate(np.zeros(2), two_point_tv_model(), LossSpec.tv(), epsilon=0.0)

    def test_empty_model(self):
        with pytest.raises(ConfigError, match="at least one"):
            Model(candidates=[])

    def test_report_record_elides_large_matrix(self, monkeypatch):
        rep = ell_estimate(np.zeros(3), two_point_tv_model(), LossSpec.tv())
        rec = rep.to_record()
        assert rec["pairwise"] == [[0.0, -1.5], [1.5, 0.0]]
        monkeypatch.setattr("pairfit.estimator._RECORD_MATRIX_LIMIT", 1)
        rec2 = rep.to_record()
        assert rec2["pairwise"] is None
        assert rec2["sup_stat"] == [0.0, 1.5]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_minimizer_set_definition(self, seed):
        rng = philox_rng(seed, 0)
        model = [GaussianMeasure(c) for c in np.linspace(-1, 1, 5)]
        sample = rng.normal(0.0, 1.0, size=15)
        rep = ell_estimate(sample, model, LossSpec.tv(), epsilon=0.7)
        lowest = rep.sup_stat.min()
        expected = {i for i, v in enumerate(rep.sup_stat) if v <= lowest + 0.7}
        assert set(rep.minimizer_set) == expected


class TestHistogramEstimator:
    def test_counting_frozen(self):
        part = PartitionRef(2, (0.0, 1.0))
        est = histogram_estimator(np.array([0.1, 0.2, 0.4, 0.9]), part)
        assert np.allclose(est.heights, [1.5, 0.5])

    def test_is_lj_estimator_with_closed_form(self):
        # The cellwise empirical density has sup-statistic 0 in an lj model,
        # and its pair statistics match the closed form
        # 2 R^(j-1) T = -(n D^(j-1) / ||p~ - q||^(j-1)) sum_I |nu(I) - Q(I)|^j.
        part = PartitionRef(4, (0.0, 1.0))
        rng = philox_rng(41, 0)
        x = rng.random(24)
        est = histogram_estimator(x, part)
        D, n, j = 4, x.size, 2.0
        R = D ** (1.0 - 1.0 / j)
        others = [
            HistogramMeasure(part, 4.0 * w / w.sum())
            for w in rng.random((3, 4)) + 0.1
        ]
        model = [est, *others]
        spec = LossSpec.lj(j=j, R=R)
        M = PairwiseEngine(spec, model).statistic_matrix(x)
        nu = np.bincount(part.locate(x), minlength=D) / n
        for k, q in enumerate(others, start=1):
            dist = lj_distance(est, q, j)
            closed = -(
                n * D ** (j - 1.0) / (2.0 * dist ** (j - 1.0))
            ) * float(np.sum(np.abs(nu - q.cell_masses) ** j))
            assert abs(2.0 * R ** (j - 1.0) * M[0, k] - closed) < 1e-10
            assert M[0, k] <= 0.0
        rep = ell_estimate(x, model, spec)
        assert rep.sup_stat[0] <= 1e-10

    def test_is_linf_estimator_with_closed_form(self):
        part = PartitionRef(4, (0.0, 1.0))
        rng = philox_rng(43, 0)
        x = rng.random(30)
        est = histogram_estimator(x, part)
        D, n = 4, x.size
        others = [
            HistogramMeasure(part, 4.0 * w / w.sum())
            for w in rng.random((3, 4)) + 0.1
        ]
        model = [est, *others]
        spec = LossSpec.linf(D=D)
        M = PairwiseEngine(spec, model).statistic_matrix(x)
        nu = np.bincount(part.locate(x), minlength=D) / n
        for k, q in enumerate(others, start=1):
            gaps = np.abs(nu - q.cell_masses)
            star = int(np.argmax(gaps))
            closed = -0.5 * n * gaps[star]
            assert abs(M[0, k] - closed) < 1e-10
            assert M[0, k] <= 0.0
        rep = ell_estimate(x, model, spec)
        assert rep.sup_stat[0] <= 1e-10

    def test_rejects_empty_and_outside(self):
        part = PartitionRef(2, (0.0, 1.0))
        with pytest.raises(ConfigError, match="nonempty"):
            histogram_estimator(np.array([]), part)
        with pytest.raises(ConfigError, match="outside the partition"):
            histogram_estimator(np.array([0.5, 1.5]), part)


class TestMedianEstimator:
    def test_frozen_examples(self):
        assert median_tv_estimator(np.array([1.0, 2.0, 3.0, 4.0])) == 2.5
        assert median_tv_estimator(np.array([5.0, 1.0, 3.0])) == 4.0

    def test_needs_two_points(self):
        with pytest.raises(ConfigError, match="n >= 2"):
            median_tv_estimator(np.array([3.0]))

    def test_nearest_grid_point_is_half_minimizer(self):
        # On a Gaussian translation grid, the grid point nearest the median
        # belongs to the minimizer set at epsilon = 1/2.
        grid = np.round(np.arange(-0.6, 0.6001, 0.02), 10)
        model = [GaussianMeasure(c) for c in grid]
        eng = PairwiseEngine(LossSpec.tv(), model)
        for seed in range(5):
            x = GaussianMeasure(0.1).sample(51, philox_rng(seed))
            med = median_tv_estimator(x)
            nearest = int(np.argmin(np.abs(grid - med)))
            rep = ell_estimate(x, model, LossSpec.tv(), epsilon=0.5, engine=eng)
            assert nearest in rep.minimizer_set


class TestSampleValidation:
    MODEL = [GaussianMeasure(c) for c in (-0.5, 0.0, 0.5)]

    @pytest.mark.parametrize(
        "sample", [[], [math.nan, 0.1], [math.inf]], ids=["empty", "nan", "inf"]
    )
    def test_rejects_empty_and_non_finite(self, sample):
        with pytest.raises(ConfigError, match="non-empty array of finite numbers"):
            ell_estimate(np.array(sample, dtype=float), self.MODEL, LossSpec.tv())

    def test_atom_observation_outside_space_is_config_error(self):
        with pytest.raises(ConfigError, match="outside the model's finite space"):
            PairwiseEngine(LossSpec.tv(), two_point_tv_model()).statistic_matrix(np.array([0.0, 2.0]))


def count_score_calls(monkeypatch):
    """Count the per-pair ``score`` calls the engine makes from here on."""
    calls = []

    def counted(spec, P, Q):
        calls.append(1)
        return score(spec, P, Q)

    monkeypatch.setattr("pairfit.estimator.score", counted)
    return calls


def spread_rows(seed, cells):
    """4,000 rows of ``cells`` terms of either sign over 24 decades, a tenth -0.0."""
    rng = philox_rng(seed, cells)
    rows = rng.normal(size=(4000, cells)) * 10.0 ** rng.integers(-12, 12, size=(4000, cells))
    rows[rng.random(rows.shape) < 0.1] = -0.0
    return rows


def left_folds(rows):
    out = np.zeros(len(rows))
    for column in rows.T:
        out += column
    return out


class TestShortRowSums:
    """The numpy rule by which ``partition_pair_table`` sums cell by cell."""

    @pytest.mark.parametrize("cells", range(1, 8))
    def test_fewer_than_eight_terms_add_left_to_right_from_zero(self, cells):
        rows = spread_rows(31, cells)
        fold = left_folds(rows)
        rule = (
            f"numpy's sum of a row of {cells} terms differs from the left-to-right sum "
            "from +0.0 by which testfam.partition_pair_table folds its rows cell by cell"
        )
        assert rows.sum(axis=1).tobytes() == fold.tobytes(), rule
        assert np.array([r.sum() for r in rows[:400]]).tobytes() == fold[:400].tobytes(), rule
        assert np.full((1, cells), -0.0).sum(axis=1).tobytes() == np.zeros(1).tobytes(), rule

    def test_eight_terms_need_not(self):
        rows = spread_rows(31, 8)
        assert (rows.sum(axis=1) != left_folds(rows)).any(), (
            "numpy's sums of 8 terms all equal left-to-right sums, so the threshold at which "
            "testfam.partition_pair_table sums rows again no longer matches numpy"
        )


class TestPartitionPairTable:
    """Histogram models compile all pairs at once, bitwise as pair by pair."""

    MODELS = {
        "histogram-net": {
            "family": "histogram-net",
            "cells": 4,
            "value_grid": [0.0, 0.5, 1.0, 1.5, 2.0],
        },
        # Twelve cells, so TV masks select eight or more cells of some pairs,
        # where numpy's pairwise summation starts blocking.
        "monotone-net": {
            "family": "monotone-net",
            "d": 2,
            "breakpoint_grid": [k / 12 for k in range(13)],
            "level_grid": [0.25, 0.5, 1.0, 2.0, 3.0],
        },
        # Signed heights, and one repeated row: a pair at L_j distance zero.
        "l2-linear": {
            "family": "l2-linear",
            "basis": "indicator",
            "cells": 9,
            "coefficient_net": np.round(philox_rng(17, 0).normal(size=(30, 9)), 3).tolist()
            + [[0.1] * 9, [0.1] * 9],
        },
    }
    SPECS = {
        "tv": lambda cells: LossSpec.tv(),
        "lj2": lambda cells: LossSpec.lj(j=2.0, R=2.0),
        "lj3": lambda cells: LossSpec.lj(j=3.0, R=1.5),
        "linf": lambda cells: LossSpec.linf(D=cells),
    }

    @pytest.mark.parametrize("loss", sorted(SPECS))
    @pytest.mark.parametrize("family", sorted(MODELS))
    def test_bitwise_equal_to_per_pair_scores(self, family, loss, monkeypatch):
        model = build(self.MODELS[family])
        spec = self.SPECS[loss](model.candidates[0].partition.cells)
        scores = [score(spec, P, Q) for P, Q in combinations(model.candidates, 2)]
        expected = PiecewiseTable.from_scores(scores)
        calls = count_score_calls(monkeypatch)
        eng = PairwiseEngine(spec, model)
        assert not calls
        assert eng._mode == "piecewise"
        tab = eng._table
        assert tab.pair_row is None
        for field in ("bases", "row", "const"):
            got, want = getattr(tab, field), getattr(expected, field)
            assert got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
        # Interval ends compared as resolved values: the compiled table
        # indexes the cell starts, from_scores the sorted distinct ends.
        for field in ("lo", "hi"):
            got, want = getattr(tab, field), getattr(expected, field)
            assert got.dtype == want.dtype == np.intp, field
            assert tab.cuts[got].tobytes() == expected.cuts[want].tobytes(), field
        assert tab.slope is None and expected.slope is None
        consts = np.array([t.constant_part for t in scores])
        upper = eng.constant_parts[np.triu_indices(len(model), 1)]
        assert upper.tobytes() == consts.tobytes()
        assert np.array_equal(eng.constant_parts, -eng.constant_parts.T)

    @staticmethod
    def assert_per_pair(spec, candidates):
        """The compiled table is bitwise the per-pair scores' table; returns it."""
        scores = [score(spec, P, Q) for P, Q in combinations(candidates, 2)]
        expected = PiecewiseTable.from_scores(scores)
        tab = partition_pair_table(spec, candidates)
        for field in ("bases", "row", "const"):
            got, want = getattr(tab, field), getattr(expected, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
        for field in ("lo", "hi"):
            got, want = getattr(tab, field), getattr(expected, field)
            assert tab.cuts[got].tobytes() == expected.cuts[want].tobytes(), field
        return tab

    @pytest.mark.parametrize("loss", sorted(SPECS))
    @pytest.mark.parametrize("cells", [7, 8, 10])
    def test_rows_around_numpys_blocked_sums(self, cells, loss):
        # Heights of spread magnitudes, so that a sum of 8 or more terms in
        # another order rounds differently.  With 10 cells some TV pairs
        # select exactly 7 and some exactly 8 cells on one side; L_j sums
        # every cell, 7 of them left to right and 8 or 10 in numpy's blocks.
        rng = philox_rng(29, cells)
        heights = rng.random((24, cells)) * 10.0 ** rng.integers(-6, 3, size=(24, cells))
        part = PartitionRef(cells, (0.0, 1.0))
        candidates = [HistogramMeasure(part, h) for h in heights]
        if cells == 10:
            iu, ku = np.triu_indices(len(heights), 1)
            selected = set((heights[iu] > heights[ku]).sum(axis=1).tolist())
            assert {7, 8} <= selected
        self.assert_per_pair(self.SPECS[loss](cells), candidates)

    @pytest.mark.parametrize("loss", sorted(SPECS))
    def test_signed_zeros_and_tied_heights(self, loss):
        part = PartitionRef(5, (-1.0, 1.0))
        rows = [
            [0.0, -0.0, 1.0, 2.0, 2.0],
            [-0.0, 0.0, 1.0, 2.0, 2.0],
            [2.0, 2.0, 1.0, -0.0, 0.0],
            [-0.0, -0.0, -0.0, -0.0, 5.0],
            [1.0, -1.0, 0.0, -0.0, 5.0],
            [1.0, 1.0, 1.0, 1.0, 1.0],
            # TV takes a mass of -0.0 where p > q and of 0.0 where q > p:
            # numpy's sums start from +0.0, so the base is 0.0, not -0.0.
            [-0.0, -1.0, 1.0, 1.0, 1.0],
            [-1.0, 0.0, 1.0, 1.0, 1.0],
        ]
        self.assert_per_pair(self.SPECS[loss](5), [HistogramMeasure(part, h) for h in rows])

    @pytest.mark.parametrize("j", [2.0, 3.0])
    def test_repeated_lj_distances(self, j):
        model = build(self.MODELS["histogram-net"])
        spec = LossSpec.lj(j=j, R=2.0)
        dists = [lj_distance(P, Q, j) for P, Q in combinations(model.candidates, 2)]
        assert len(set(dists)) < len(dists) / 10
        self.assert_per_pair(spec, model.candidates)

    def test_linf_ties_pick_the_lowest_cell(self):
        part = PartitionRef(4, (0.0, 1.0))
        rows = [[2.0, 0.0, 1.0, 1.0], [0.0, 2.0, 1.0, 1.0], [1.0, 1.0, 0.0, 2.0], [1.0, 1.0, 2.0, 0.0]]
        tab = self.assert_per_pair(LossSpec.linf(D=4), [HistogramMeasure(part, h) for h in rows])
        # Pairs (0, 1) and (2, 3) tie on two cells, the other four on all four.
        assert tab.lo.tolist() == [0, 0, 0, 0, 0, 2]

    def test_mixed_partitions_take_per_pair_path(self, monkeypatch):
        wide = PartitionRef(3, (0.0, 2.0))
        narrow = PartitionRef(3, (0.0, 1.0))
        model = [
            HistogramMeasure(narrow, [1.0, 1.0, 1.0]),
            HistogramMeasure(narrow, [0.5, 1.0, 1.5]),
            HistogramMeasure(wide, [1.5, 1.0, 0.5]),
        ]
        calls = count_score_calls(monkeypatch)
        PairwiseEngine(LossSpec.tv(), model)
        assert len(calls) == 3

    def test_non_histogram_model_takes_per_pair_path(self, monkeypatch):
        # Unequal sds: no whole-model builder covers these Gaussians.
        model = [GaussianMeasure(-0.5), GaussianMeasure(0.0, 2.0), GaussianMeasure(0.5)]
        calls = count_score_calls(monkeypatch)
        eng = PairwiseEngine(LossSpec.tv(), model)
        assert len(calls) == 3
        assert eng._mode == "piecewise"
        assert eng.stats.compiled is False

    def test_uncompiled_family_takes_per_pair_path(self, monkeypatch):
        part = PartitionRef(4, (0.0, 1.0))
        model = [HistogramMeasure(part, h) for h in ([1, 1, 1, 1], [2, 1, 1, 0], [0, 1, 1, 2])]
        calls = count_score_calls(monkeypatch)
        PairwiseEngine(LossSpec.wasserstein1(), model)
        assert len(calls) == 3

    def test_linf_with_other_cell_count_is_config_error(self):
        part = PartitionRef(4, (0.0, 1.0))
        model = [HistogramMeasure(part, h) for h in ([1, 1, 1, 1], [2, 1, 1, 0])]
        assert partition_pair_table(LossSpec.linf(D=5), model) is None
        with pytest.raises(ConfigError, match="5-cell partition"):
            PairwiseEngine(LossSpec.linf(D=5), model)

    @pytest.mark.parametrize(
        "builder, spec",
        [(partition_pair_table, spec) for spec in (LossSpec.hellinger2(), LossSpec.kl(a=1.0), LossSpec.wasserstein1())]
        + [
            (translation_pair_table, spec)
            for spec in (
                LossSpec.hellinger2(),
                LossSpec.kl(a=1.0),
                LossSpec.wasserstein1(),
                LossSpec.lj(j=2.0, R=2.0),
                LossSpec.linf(D=4),
            )
        ],
        ids=["hellinger2", "kl", "wasserstein1"]
        + [f"translation-{k}" for k in ("hellinger2", "kl", "wasserstein1", "lj", "linf")],
    )
    def test_other_families_return_before_reading_candidates(self, builder, spec):
        class Unread(list):
            def __iter__(self):
                raise AssertionError("candidates were read")

            def __getitem__(self, index):
                raise AssertionError("candidates were read")

        assert builder(spec, Unread()) is None


_TRANSLATION_FAMILIES = {"gaussian": GaussianMeasure, "cauchy": CauchyMeasure, "uniform": UniformMeasure}


@st.composite
def translation_grids(draw):
    """Equal-shape Gaussian, Cauchy or uniform models, with repeated locations and both zeros."""
    family = draw(st.sampled_from(sorted(_TRANSLATION_FAMILIES)))
    shape = draw(st.sampled_from([1.0, 0.25, 3.0, 1e-3]))
    location = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 12.0, -3.0]) | st.floats(-50.0, 50.0, allow_nan=False)
    locations = draw(st.lists(location, min_size=2, max_size=12))
    return [_TRANSLATION_FAMILIES[family](c, shape) for c in locations]


@st.composite
def equal_step_grids(draw):
    """Equal-shape models on a grid ``lo + k * step``, as ``models`` builds one, with repeats and both zeros.

    A location other than the last is repeated in front, so the pairs it
    makes with the last one share a row: every model has fewer rows than pairs.
    """
    family = draw(st.sampled_from(sorted(_TRANSLATION_FAMILIES)))
    shape = draw(st.sampled_from([1.0, 0.25, 3.0]))
    lo = draw(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.1, -3.0]))
    step = draw(st.sampled_from([0.02, 0.1, 0.25, 0.5, 1.0, 1.0 / 3.0]))
    grid = [lo + k * step for k in range(draw(st.integers(3, 14)))]
    front = draw(st.sampled_from(grid[:-1]))
    extra = draw(st.lists(st.sampled_from(grid + [0.0, -0.0]), max_size=4))
    return [_TRANSLATION_FAMILIES[family](c, shape) for c in [front, *grid, *extra]]


def per_pair_components(tab):
    """Each pair's base and components, read through its row (``pair_row``), ends resolved through ``cuts``."""
    rows = np.arange(len(tab.bases)) if tab.pair_row is None else tab.pair_row
    assert np.all(np.diff(tab.row) >= 0)  # components come ordered by row
    starts, stops = np.searchsorted(tab.row, rows, "left"), np.searchsorted(tab.row, rows, "right")
    comp = np.array([c for a, b in zip(starts, stops) for c in range(a, b)], dtype=np.intp)
    return {
        "bases": tab.bases[rows],
        "pair": np.repeat(np.arange(len(rows)), stops - starts),
        "lo": tab.cuts[tab.lo[comp]],
        "hi": tab.cuts[tab.hi[comp]],
        "const": tab.const[comp],
    }


def assert_pairs_bitwise_equal(got, want):
    """Both tables give every pair the same base and components, byte for byte."""
    g, w = per_pair_components(got), per_pair_components(want)
    for field in g:
        assert g[field].dtype == w[field].dtype and g[field].shape == w[field].shape, field
        assert g[field].tobytes() == w[field].tobytes(), field
    assert got.slope is None and want.slope is None


class TestTranslationPairTable:
    """Equal-shape translation models compile every TV pair at once, bitwise as pair by pair."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cands=translation_grids(), data=st.data())
    def test_bitwise_equal_to_per_pair_scores_and_engine(self, cands, data):
        spec = LossSpec.tv()
        scores = [score(spec, P, Q) for P, Q in combinations(cands, 2)]
        assert_pairs_bitwise_equal(translation_pair_table(spec, cands), PiecewiseTable.from_scores(scores))
        eng = PairwiseEngine(spec, cands)
        assert eng.stats.compiled is True and eng._mode == "piecewise"
        with mock.patch.object(estimator, "translation_pair_table", lambda spec, candidates: None):
            per_pair = PairwiseEngine(spec, cands)
        assert per_pair.stats.compiled is False and per_pair._mode == "piecewise"
        # Observations on and one ulp beside every finite cut, plus a few
        # anywhere; the half-line ends at +-inf are no observations.
        cuts = eng._table.cuts[np.isfinite(eng._table.cuts)]
        near = np.concatenate([cuts, np.nextafter(cuts, -math.inf), np.nextafter(cuts, math.inf)])
        picks = data.draw(st.lists(st.integers(0, len(near) - 1), min_size=1, max_size=40)) if len(near) else []
        extra = data.draw(st.lists(st.floats(-100.0, 100.0, allow_nan=False), max_size=10))
        sample = np.concatenate([near[picks], extra, [0.0]])
        assert eng.statistic_matrix(sample).tobytes() == per_pair.statistic_matrix(sample).tobytes()
        assert eng.constant_parts.tobytes() == per_pair.constant_parts.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cands=equal_step_grids(), data=st.data())
    def test_shared_rows_evaluate_bitwise_as_the_per_pair_engine(self, cands, data):
        spec = LossSpec.tv()
        eng = PairwiseEngine(spec, cands)
        with mock.patch.object(estimator, "translation_pair_table", lambda spec, candidates: None):
            per_pair = PairwiseEngine(spec, cands)
        assert eng.stats.rows < eng.stats.pairs == per_pair.stats.rows
        cuts = eng._table.cuts[np.isfinite(eng._table.cuts)]
        near = np.concatenate([cuts, np.nextafter(cuts, -math.inf), np.nextafter(cuts, math.inf), [0.0, -0.0, -60.0, 60.0]])
        R, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 30))
        block = near[data.draw(st.lists(st.integers(0, len(near) - 1), min_size=R * n, max_size=R * n))].reshape(R, n)
        assert eng.statistic_matrix(block[0]).tobytes() == per_pair.statistic_matrix(block[0]).tobytes()
        assert eng.pair_statistics(block[0]).tobytes() == per_pair.pair_statistics(block[0]).tobytes()
        assert eng.pair_statistics(block).tobytes() == per_pair.pair_statistics(block).tobytes()
        assert eng.constant_parts.tobytes() == per_pair.constant_parts.tobytes()

    @pytest.mark.parametrize(
        "cands",
        [
            [UniformMeasure(-3.0, 3.0), UniformMeasure(-0.0, 3.0), UniformMeasure(0.0, 3.0)],
            [UniformMeasure(-0.0, 3.0), UniformMeasure(-3.0, 3.0), UniformMeasure(3.0, 3.0)],
            [GaussianMeasure(-1.0), GaussianMeasure(1.0), GaussianMeasure(-0.0), GaussianMeasure(0.0)],
            [CauchyMeasure(-0.0, 0.5), CauchyMeasure(2.0, 0.5), CauchyMeasure(0.0, 0.5), CauchyMeasure(2.0, 0.5)],
        ],
        ids=["uniform-ends-tie-at-zero", "uniform-reversed", "gaussian-mid-at-zero", "cauchy-repeats"],
    )
    def test_signed_zero_ties(self, cands):
        # Where two region ends tie at 0 with opposite signs, the compiled
        # table keeps the one the scalar rule keeps.
        spec = LossSpec.tv()
        scores = [score(spec, P, Q) for P, Q in combinations(cands, 2)]
        assert_pairs_bitwise_equal(translation_pair_table(spec, cands), PiecewiseTable.from_scores(scores))

    def test_uniform_tie_keeps_the_scalar_rule_zeros(self):
        # U(-3, 3) ends at 0.0 where U(-0, 3) starts: min(-0.0, 0.0) keeps
        # the start's -0.0 as the first region's end, max(0.0, -0.0) the
        # end's 0.0 as the second region's start, as the per-pair rule did
        # before it moved into _translation_regions.
        lower, upper = UniformMeasure(-3.0, 3.0), UniformMeasure(-0.0, 3.0)
        for P, Q, s in ((lower, upper, 1.0), (upper, lower, -1.0)):
            comps = score(LossSpec.tv(), P, Q).components
            assert comps == ((-3.0, 0.0, -0.5 * s, 0.0), (0.0, 3.0, 0.5 * s, 0.0))
            assert [math.copysign(1.0, v) for v in (comps[0][1], comps[1][0])] == [-1.0, 1.0]

    def test_grid_sim_model(self, monkeypatch):
        model = build({"family": "gaussian-location-grid", "d": 1, "lo": -1.0, "hi": 1.0, "step": 0.02})
        spec = LossSpec.tv()
        scores = [score(spec, P, Q) for P, Q in combinations(model.candidates, 2)]
        calls = count_score_calls(monkeypatch)
        eng = PairwiseEngine(spec, model)
        assert not calls
        assert_pairs_bitwise_equal(eng._table, PiecewiseTable.from_scores(scores))
        # 475 rows of two components each; the 101 locations are distinct,
        # so no pair reads an empty row.
        stats = eng.stats
        assert (stats.pairs, stats.rows, stats.components, stats.cuts, stats.compiled) == (5050, 475, 950, 785, True)

    def test_cauchy_grid_reads_the_tail_regions_past_the_window(self):
        # Both observations sit right of every midpoint, at 2000 and 4000
        # alike; CauchyMeasure.window() ends at loc + 2500.
        eng = PairwiseEngine(
            LossSpec.tv(), build({"family": "translation-grid", "base": "cauchy", "lo": -1.0, "hi": 1.0, "step": 1.0})
        )
        for x in (2000.0, 4000.0):
            assert eng.statistic_matrix(np.array([x, x]))[0].tolist() == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "spec, cands",
        [
            (LossSpec.tv(), [GaussianMeasure(0.0), GaussianMeasure(1.0, 2.0)]),
            (LossSpec.tv(), [GaussianMeasure(0.0), CauchyMeasure(1.0)]),
            (LossSpec.tv(), [UniformMeasure(0.0), UniformMeasure(0.5, 2.0)]),
            (LossSpec.hellinger2(), [GaussianMeasure(0.0), GaussianMeasure(1.0)]),
        ],
        ids=["unequal-sd", "mixed-families", "unequal-width", "hellinger"],
    )
    def test_other_models_return_none(self, spec, cands):
        assert translation_pair_table(spec, cands) is None


class TestMatrixFill:
    def test_fill_matches_triangle_indexing_bitwise(self):
        # Signed zeros included: pair (i, k) reads its row's h, so (i, k)
        # gets +h and (k, i) gets -h.  The grid's 21 pairs share 14 rows.
        m = 7
        eng = PairwiseEngine(LossSpec.tv(), [GaussianMeasure(0.1 * c) for c in range(m)])
        assert (eng.stats.pairs, eng.stats.rows) == (21, 14)
        halves = np.random.default_rng(3).standard_normal(eng.stats.rows)
        halves[::4], halves[1::5] = 0.0, -0.0
        by_pair = halves[eng._table.pair_row]
        expected = np.zeros((m, m))
        iu = np.triu_indices(m, k=1)
        expected[iu] = by_pair
        expected[(iu[1], iu[0])] = -by_pair
        buf = eng._signed(lambda out: np.copyto(out, halves))
        assert buf[0].take(eng._gather).reshape(m, m).tobytes() == expected.tobytes()

    def test_matrix_too_large_for_int32_positions(self):
        model = Model([GaussianMeasure(0.0)] * 46341)
        with pytest.raises(ConfigError, match="46341 candidates"):
            PairwiseEngine(LossSpec.tv(), model)


def pair_statistic(t, x):
    """One pair's statistic from its own score, summed as the engine sums it.

    A piecewise score adds ``const * count + slope * sum`` per component in
    order, then ``n * base``; any other score sums its values.
    """
    if not isinstance(t, PiecewiseScore):
        return float(t(x).sum())
    xs = np.sort(x)
    cums = np.concatenate([[0.0], np.cumsum(xs)])
    total = 0.0
    for lo, hi, c, s in t.components:
        a, b = np.searchsorted(xs, [lo, hi])
        total += c * (b - a) + s * (cums[b] - cums[a])
    return x.size * t.base + total


def assert_matches_scores(spec, cands, x):
    """Engine matrix against the per-pair statistics, signed zeros included.

    Entries must be bitwise equal, except on a shared finite space, where
    the engine sums by a matrix product and agreement is to 1e-12.
    """
    eng = PairwiseEngine(spec, cands)
    M = eng.statistic_matrix(x)
    m = len(cands)
    expected = np.zeros((m, m))
    for i, k in combinations(range(m), 2):
        v = pair_statistic(score(spec, cands[i], cands[k]), x)
        expected[i, k], expected[k, i] = v, -v
        if eng._mode == "atom":
            assert abs(M[i, k] - v) <= 1e-12 * max(1.0, abs(v)), (i, k, M[i, k], v)
    if eng._mode == "atom":
        assert np.all(np.diag(M) == 0.0)
        assert np.array_equal(M, -M.T)
    else:
        assert M.tobytes() == expected.tobytes()
    return eng


class TestBackendProperty:
    """Every evaluation backend agrees with summing the per-pair scores."""

    @given(
        data=st.data(),
        size=st.integers(min_value=2, max_value=5),
        m=st.integers(min_value=2, max_value=4),
        hellinger=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_atom(self, data, size, m, hellinger):
        masses = data.draw(
            st.lists(
                st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size),
                min_size=m,
                max_size=m,
            )
        )
        points = list(range(size))
        cands = [DiscreteMeasure(points, np.array(w) / sum(w)) for w in masses]
        x = np.array(
            data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=30)),
            dtype=float,
        )
        spec = LossSpec.hellinger2() if hellinger else LossSpec.tv()
        assert_matches_scores(spec, cands, x)

    @given(
        data=st.data(),
        cells=st.integers(min_value=2, max_value=12),
        m=st.integers(min_value=2, max_value=5),
        loss=st.sampled_from(["tv", "lj2", "lj3", "linf"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_compiled_partition(self, data, cells, m, loss):
        # Signed heights as in l2-linear models; a few repeated levels make ties.
        height = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-3.0, 3.0))
        heights = data.draw(
            st.lists(st.lists(height, min_size=cells, max_size=cells), min_size=m, max_size=m)
        )
        part = PartitionRef(cells, (0.0, 1.0))
        cands = [HistogramMeasure(part, h) for h in heights]
        spec = TestPartitionPairTable.SPECS[loss](cells)
        point = st.one_of(
            st.floats(-0.5, 1.5), st.integers(0, cells).map(lambda k: k / cells)
        )
        x = np.array(data.draw(st.lists(point, min_size=1, max_size=30)))
        assert_matches_scores(spec, cands, x)

    @given(
        means=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6, unique=True),
        x=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_piecewise_gaussian_grid(self, means, x):
        cands = [GaussianMeasure(c) for c in means]
        eng = assert_matches_scores(LossSpec.tv(), cands, np.array(x))
        assert eng._mode == "piecewise" and eng._table.slope is None

    @given(
        data=st.data(),
        cells=st.integers(min_value=1, max_value=5),
        m=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_piecewise_wasserstein_histograms(self, data, cells, m):
        # W1 scores are the only ones with slopes: a linear table.
        level = st.sampled_from([0.0, 0.5, 1.0, 2.0])
        row = st.lists(level, min_size=cells, max_size=cells).filter(any)
        raw = data.draw(st.lists(row, min_size=m, max_size=m))
        part = PartitionRef(cells, (0.0, 1.0))
        cands = [HistogramMeasure(part, cells * np.array(h) / sum(h)) for h in raw]
        point = st.one_of(st.floats(0.0, 1.0), st.integers(0, cells).map(lambda k: k / cells))
        x = np.array(data.draw(st.lists(point, min_size=1, max_size=30)))
        eng = assert_matches_scores(LossSpec.wasserstein1(), cands, x)
        assert eng._mode == "piecewise"
        if any(not np.array_equal(cands[0].heights, c.heights) for c in cands[1:]):
            assert eng._table.slope is not None

    @given(
        means=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3, unique=True),
        x=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20),
    )
    @settings(max_examples=10, deadline=None)
    def test_generic_hellinger(self, means, x):
        cands = [GaussianMeasure(c) for c in means]
        assert_matches_scores(LossSpec.hellinger2(), cands, np.array(x))


# ---------------------------------------------------------------------------
# Blocks of samples
# ---------------------------------------------------------------------------

_BLOCK_PART = PartitionRef(4, (0.0, 1.0))
_BLOCK_ATOMS = [0.0, 1.0, 2.0]


def _tuple_model(n):
    """Two per-coordinate tuples of length ``n`` on ``_BLOCK_ATOMS``, masses varying by coordinate."""
    P = tuple(DiscreteMeasure(_BLOCK_ATOMS, [0.5, 0.3 - 0.02 * (c % 7), 0.2 + 0.02 * (c % 7)]) for c in range(n))
    Q = tuple(DiscreteMeasure(_BLOCK_ATOMS, [0.2 + 0.03 * (c % 5), 0.3, 0.5 - 0.03 * (c % 5)]) for c in range(n))
    return Model(candidates=[P, Q])


# Backend name -> (loss, model for sample length n, draw of shape (R, n), engine mode).
_BLOCK_BACKENDS = {
    "atom": (
        LossSpec.tv(),
        lambda n: [DiscreteMeasure(_BLOCK_ATOMS, w) for w in ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.1, 0.6, 0.3])],
        lambda rng, shape: rng.choice(_BLOCK_ATOMS, size=shape),
        "atom",
    ),
    "piecewise-constant": (
        LossSpec.tv(),
        lambda n: [GaussianMeasure(c) for c in (-0.4, 0.0, 0.3, 0.9)],
        lambda rng, shape: rng.standard_normal(shape),
        "piecewise",
    ),
    "piecewise-linear-w1": (
        LossSpec.wasserstein1(),
        lambda n: [HistogramMeasure(_BLOCK_PART, h) for h in ([1.2, 1.0, 0.8, 1.0], [0.5, 1.5, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0])],
        lambda rng, shape: rng.random(shape),
        "piecewise",
    ),
    "generic-hellinger": (
        LossSpec.hellinger2(),
        lambda n: [GaussianMeasure(0.0), GaussianMeasure(0.5), GaussianMeasure(0.2, 1.3)],
        lambda rng, shape: rng.standard_normal(shape),
        "generic",
    ),
    "generic-kl": (
        LossSpec.kl(a=5.0),
        lambda n: [CauchyMeasure(0.0, 1.0), CauchyMeasure(0.5, 1.0), CauchyMeasure(-0.3, 1.2)],
        lambda rng, shape: rng.standard_cauchy(shape),
        "generic",
    ),
    "generic-lj": (
        LossSpec.lj(2.0, 5.0),
        lambda n: [GaussianMeasure(0.0), GaussianMeasure(0.5), GaussianMeasure(0.2, 1.3)],
        lambda rng, shape: rng.standard_normal(shape),
        "generic",
    ),
    "tuple": (
        LossSpec.hellinger2(),
        _tuple_model,
        lambda rng, shape: rng.choice(_BLOCK_ATOMS, size=shape),
        "tuple",
    ),
}


@functools.lru_cache(maxsize=None)
def _block_engine(backend, n):
    spec, model, _, _ = _BLOCK_BACKENDS[backend]
    return PairwiseEngine(spec, model(n))


class TestSampleBlocks:
    """``pair_statistics`` on an (R, n) block: row r is bitwise the 1-D call on row r."""

    @pytest.mark.parametrize("R", [1, 2, 64])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 1000])
    @pytest.mark.parametrize("backend", list(_BLOCK_BACKENDS))
    def test_rows_are_bitwise_the_one_dimensional_call(self, backend, n, R):
        eng = _block_engine(backend, n)
        assert eng._mode == _BLOCK_BACKENDS[backend][3]
        block = _BLOCK_BACKENDS[backend][2](philox_rng(n, R), (R, n))
        got = eng.pair_statistics(block)
        assert got.shape == (R, eng._n_pairs)
        for r in range(R):
            assert got[r].tobytes() == eng.pair_statistics(block[r]).tobytes(), r
        if eng._mode == "generic":
            # Each row sums as numpy sums one sample's scores (pairwise).
            by_score = np.array([[t(row).sum() for t in eng._scores] for row in block])
            assert got.tobytes() == by_score.tobytes()

    def test_signed_zero_rows(self):
        # Equal candidates score every observation 0: each row keeps the
        # sign bit of its own sum.
        atoms = [DiscreteMeasure([0.0, 1.0], [0.5, 0.5]) for _ in range(2)]
        gaussians = [GaussianMeasure(0.0), GaussianMeasure(0.0)]
        cases = [(LossSpec.tv(), atoms), (LossSpec.hellinger2(), atoms), (LossSpec.hellinger2(), gaussians)]
        block = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        for spec, cands in cases:
            eng = PairwiseEngine(spec, cands)
            got = eng.pair_statistics(block)
            for r in range(2):
                assert got[r].tobytes() == eng.pair_statistics(block[r]).tobytes()

    @pytest.mark.parametrize(
        "block",
        [
            [[0.1, math.nan], [0.2, 0.3]],
            [[0.1, 0.2], [math.inf, 0.3]],
            [[0.1, 0.2], [0.3, -math.inf]],
            np.empty((0, 4)),
            np.empty((3, 0)),
        ],
        ids=["nan", "inf", "-inf", "zero-rows", "zero-columns"],
    )
    @pytest.mark.parametrize("backend", ["piecewise-constant", "generic-hellinger", "atom"])
    def test_bad_blocks_raise_the_sample_error(self, backend, block):
        with pytest.raises(ConfigError, match="non-empty array of finite numbers"):
            _block_engine(backend, 2).pair_statistics(np.array(block, dtype=float))

    @pytest.mark.parametrize("backend", ["piecewise-constant", "generic-hellinger", "atom"])
    def test_three_dimensional_block_raises(self, backend):
        with pytest.raises(ConfigError, match=r"one-dimensional .*got shape \(2, 3, 4\)"):
            _block_engine(backend, 4).pair_statistics(np.zeros((2, 3, 4)))

    def test_atom_block_outside_space_raises(self):
        eng = PairwiseEngine(LossSpec.tv(), two_point_tv_model())
        with pytest.raises(ConfigError, match="observation 2.0 is outside the model's finite space"):
            eng.pair_statistics(np.array([[0.0, 1.0], [1.0, 2.0]]))

    def test_tuple_block_of_wrong_width_raises(self):
        with pytest.raises(ConfigError, match="length 3"):
            _block_engine("tuple", 3).pair_statistics(np.zeros((2, 4)))

    def test_one_sample_entry_points_refuse_blocks(self):
        # A block is a pair_statistics input only: the matrix and the
        # two-point test still take one sample.
        eng = PairwiseEngine(LossSpec.tv(), two_point_tv_model())
        block = np.zeros((2, 3))
        with pytest.raises(ConfigError, match=r"one-dimensional, got shape \(2, 3\)"):
            eng.statistic_matrix(block)
        with pytest.raises(ConfigError, match=r"one-dimensional, got shape \(2, 3\)"):
            run_test(block, *two_point_tv_model(), LossSpec.tv())


# Piecewise model -> (loss, candidates).  Gaussian TV regions are half-lines
# with +-inf cuts, the uniform grid puts cuts on both zeros, unequal sds
# compile pair by pair, histograms on one partition compile at once, and W1
# pieces have slopes.
_SWEEP_HISTOGRAMS = [HistogramMeasure(_BLOCK_PART, h) for h in ([1.2, 1.0, 0.8, 1.0], [0.5, 1.5, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [2.0, 0.0, 0.0, 2.0])]
_SWEEP_MODELS = {
    "gaussian-tv": (LossSpec.tv(), [GaussianMeasure(c) for c in (-0.5, 0.0, -0.0, 0.25, 0.25, 1.0)]),
    "uniform-tv": (LossSpec.tv(), [UniformMeasure(lo, 0.5) for lo in (-0.0, 0.25, 0.0, 0.5, -0.5)]),
    "gaussian-sd-tv": (LossSpec.tv(), [GaussianMeasure(0.0), GaussianMeasure(0.5, 1.5), GaussianMeasure(-0.3, 0.7)]),
    "histogram-tv": (LossSpec.tv(), _SWEEP_HISTOGRAMS),
    "histogram-linf": (LossSpec.linf(D=4), _SWEEP_HISTOGRAMS),
    "histogram-w1": (LossSpec.wasserstein1(), _SWEEP_HISTOGRAMS),
}


@functools.lru_cache(maxsize=None)
def _sweep_engine(name):
    return PairwiseEngine(*_SWEEP_MODELS[name])


class TestBlockSweep:
    """The piecewise sweep of a block: each sample's halves, bitwise its pairs' own score sums."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_block_rows_are_each_samples_per_pair_statistics(self, data):
        name = data.draw(st.sampled_from(sorted(_SWEEP_MODELS)))
        spec, cands = _SWEEP_MODELS[name]
        eng = _sweep_engine(name)
        assert eng._mode == "piecewise"
        assert (eng._table.slope is not None) is (name == "histogram-w1")
        # Observations on every finite cut and on both zeros, or anywhere.
        cuts = eng._table.cuts
        point = st.sampled_from([*cuts[np.isfinite(cuts)].tolist(), 0.0, -0.0]) | st.floats(-2.0, 2.0)
        R, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
        block = np.array(data.draw(st.lists(point, min_size=R * n, max_size=R * n))).reshape(R, n)
        got = eng.pair_statistics(block)
        for r, x in enumerate(block):
            want = np.array([pair_statistic(score(spec, P, Q), x) for P, Q in combinations(cands, 2)])
            assert got[r].tobytes() == want.tobytes(), r
            assert eng.pair_statistics(x).tobytes() == want.tobytes(), r

    def test_cut_ends_include_both_infinities_and_both_zeros(self):
        # So the property above meets them.
        gaussian = _sweep_engine("gaussian-tv")._table.cuts
        assert gaussian[0] == -math.inf and gaussian[-1] == math.inf
        uniform = _sweep_engine("uniform-tv")._table.cuts
        zero = uniform[uniform == 0.0]
        assert len(zero) == 1 and np.signbit(zero[0])


# Model -> (loss, candidates, observations).  Twins put -0.0 in the matrix,
# identical candidates tie every row, and a lone candidate's matrix is [0].
_CHOICE_ATOMS = [0.0, 1.0, 2.0]
_CHOICE_MODELS = {
    "atom-twins": (
        LossSpec.tv(),
        [DiscreteMeasure(_CHOICE_ATOMS, w) for w in ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5])],
        st.sampled_from(_CHOICE_ATOMS),
    ),
    "all-tied": (LossSpec.hellinger2(), [GaussianMeasure(0.0)] * 4, st.floats(-3.0, 3.0)),
    "one": (LossSpec.tv(), [GaussianMeasure(0.0)], st.floats(-3.0, 3.0)),
    "two": (LossSpec.tv(), [GaussianMeasure(0.0), GaussianMeasure(0.5)], st.floats(-3.0, 3.0)),
    "gaussian-grid": (LossSpec.tv(), [GaussianMeasure(0.1 * c) for c in range(-10, 11)] + [GaussianMeasure(0.3)], st.floats(-3.0, 3.0)),
    "histogram-w1": (LossSpec.wasserstein1(), [*_SWEEP_HISTOGRAMS, _SWEEP_HISTOGRAMS[1]], st.floats(0.0, 1.0)),
    "generic": (LossSpec.hellinger2(), [GaussianMeasure(0.0), GaussianMeasure(0.5), GaussianMeasure(0.0), GaussianMeasure(0.2, 1.3)], st.floats(-3.0, 3.0)),
    "tuple": (LossSpec.tv(), [(GaussianMeasure(c), GaussianMeasure(-c)) for c in (0.0, 0.5, 0.0, -0.25)], st.floats(-3.0, 3.0)),
}


@functools.lru_cache(maxsize=None)
def _choice_engine(name):
    return PairwiseEngine(*_CHOICE_MODELS[name][:2])


def _halves_engine(m):
    """A generic engine on ``m`` candidates, for halves written by ``_writes``."""
    return PairwiseEngine(LossSpec.hellinger2(), [GaussianMeasure(float(c)) for c in range(m)])


def _writes(halves):
    """A ``_block_halves`` that writes ``halves[r]`` as the halves of the one-observation sample [r]."""

    def block_halves(block, out):
        out[:] = halves[block[:, 0].astype(int)]

    return block_halves


def assert_choices_match_the_matrix(eng, block, probe):
    """``choices`` on the block equals ``_suprema_and_choice`` of each sample's matrix, signed zeros included."""
    chosen, sup = eng.choices(block, probe)
    assert chosen.shape == sup.shape == (len(block),)
    for r, x in enumerate(block):
        want_sup, want = estimator._suprema_and_choice(eng.statistic_matrix(x))
        assert chosen[r] == want, (r, probe)
        assert sup[r].tobytes() == want_sup[want].tobytes(), (r, probe)


class TestPrunedChoice:
    """``PairwiseEngine.choices`` picks as the full matrix does, whatever it probes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_probe_set_gives_the_matrix_choice(self, data):
        name = data.draw(st.sampled_from(sorted(_CHOICE_MODELS)))
        eng = _choice_engine(name)
        m = len(eng.model)
        width = 2 if name == "tuple" else data.draw(st.integers(1, 12))
        R = data.draw(st.integers(1, 5))
        point = _CHOICE_MODELS[name][2]
        block = np.array(data.draw(st.lists(point, min_size=R * width, max_size=R * width))).reshape(R, width)
        probe = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=5))
        assert_choices_match_the_matrix(eng, block, probe)

    def test_twins_put_negative_zeros_in_the_matrix(self):
        # So the property above compares signed zeros.
        M = _choice_engine("atom-twins").statistic_matrix(np.array([0.0, 1.0, 2.0]))
        assert M[2, 0] == 0.0 and np.signbit(M[2, 0]) and not np.signbit(M[0, 2])

    @pytest.mark.parametrize("probe", [[0], [3], [3, 1], [2, 2, 2], [0, 1, 2, 3]])
    def test_all_tied_rows_choose_the_first_candidate(self, probe):
        eng = _choice_engine("all-tied")
        block = np.array([[0.3, -1.0, 2.0], [0.0, 0.0, 0.0]])
        chosen, sup = eng.choices(block, probe)
        assert chosen.tolist() == [0, 0] and sup.tolist() == [0.0, 0.0]
        assert_choices_match_the_matrix(eng, block, probe)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_halves_and_probes_give_the_matrix_choice(self, data):
        # Halves from a few values, both zeros among them, so rows tie and
        # suprema differ only in the sign of zero.
        m, R = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 4))
        eng = _halves_engine(m)
        level = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
        halves = np.array(data.draw(st.lists(level, min_size=R * eng._n_rows, max_size=R * eng._n_rows)))
        probe = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
        with mock.patch.object(eng, "_block_halves", _writes(halves.reshape(R, eng._n_rows))):
            assert_choices_match_the_matrix(eng, np.arange(R, dtype=float)[:, None], probe)

    @pytest.mark.parametrize("probe", [[0], [1], [2], [2, 0]])
    def test_a_negative_zero_supremum_keeps_its_sign(self, probe):
        # Halves of -0.0 make row 0 [+0.0, -0.0, -0.0], and the reduction's
        # order decides the sign of the chosen supremum.
        eng = _halves_engine(3)
        with mock.patch.object(eng, "_block_halves", _writes(np.full((2, 3), -0.0))):
            want_sup, want = estimator._suprema_and_choice(eng.statistic_matrix(np.zeros(1)))
            assert want == 0 and np.signbit(want_sup[0])
            assert_choices_match_the_matrix(eng, np.array([[0.0], [1.0]]), probe)

    def test_one_sample_is_refused(self):
        with pytest.raises(ConfigError, match=r"2-D block of samples, got shape \(3,\)"):
            _choice_engine("two").choices(np.zeros(3))


class TestEngineStats:
    @pytest.mark.parametrize("backend", list(_BLOCK_BACKENDS))
    def test_backend_pairs_and_build_time(self, backend):
        eng = _block_engine(backend, 3)
        stats = eng.stats
        assert stats.backend == _BLOCK_BACKENDS[backend][3] == eng._mode
        m = len(eng.model)
        assert stats.pairs == m * (m - 1) // 2
        assert stats.build_seconds >= 0.0
        if stats.backend == "piecewise":
            assert (stats.rows, stats.components, stats.cuts) == (
                len(eng._table.bases), len(eng._table.row), len(eng._table.cuts)
            )
        else:
            assert stats.rows is None and stats.components is None and stats.cuts is None
        # Equal-sd Gaussians under TV compile at once; the others go pair by pair.
        assert stats.compiled is (backend == "piecewise-constant")

    def test_compiled_partition_table_sizes(self):
        # TV on one 4-cell partition: a component per cell where the heights
        # differ, and the cell starts plus the closed support end as cuts.
        part = PartitionRef(4, (0.0, 1.0))
        cands = [HistogramMeasure(part, h) for h in ([1, 1, 1, 1], [2, 0, 1, 1], [2, 0, 0, 2])]
        stats = PairwiseEngine(LossSpec.tv(), cands).stats
        assert (stats.backend, stats.pairs, stats.components, stats.cuts) == ("piecewise", 3, 2 + 4 + 2, 5)
        assert stats.compiled is True

    def test_read_only(self):
        eng = _block_engine("atom", 3)
        with pytest.raises(AttributeError):
            eng.stats = None
        with pytest.raises(AttributeError):
            eng.stats.pairs = 0


# ---------------------------------------------------------------------------
# Tuple models: one engine per coordinate
# ---------------------------------------------------------------------------

_TUPLE_PART = PartitionRef(4, (0.0, 1.0))
_TUPLE_HISTOGRAMS = [HistogramMeasure(_TUPLE_PART, h) for h in ([1.2, 1.0, 0.8, 1.0], [0.5, 1.5, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0])]

# Family -> (candidate pool, observations: a range plus ties, cuts and ends;
# atoms only for the discrete family).
_TUPLE_POOLS = {
    "gaussian": ([GaussianMeasure(c) for c in (0.0, 0.5, -0.3)], (-3.0, 3.0), [0.25, -0.15, 0.1, 0.0, -0.0]),
    "gaussian-sd": ([GaussianMeasure(0.0), GaussianMeasure(0.5, 1.5), GaussianMeasure(-0.3, 0.7)], (-3.0, 3.0), [0.0]),
    "cauchy": ([CauchyMeasure(c, 1.0) for c in (0.0, 0.5, -0.3)], (-5.0, 5.0), [0.25, -0.15, 0.1]),
    "uniform": ([UniformMeasure(lo, 0.5) for lo in (0.0, 0.2, 0.5)], (-0.5, 1.5), [0.0, 0.2, 0.5, 0.7, 1.0]),
    "power": ([PowerMeasure(a, 0.0) for a in (0.5, 2.0, 1.5)], (-0.5, 1.5), [0.0, 1.0]),
    "power-shift": ([PowerMeasure(0.5, s) for s in (0.0, 0.3, -0.2)], (-0.5, 1.5), [-0.2, 0.0, 0.3, 0.8, 1.0, 1.3]),
    "discrete": ([DiscreteMeasure([0.0, 0.5, 1.0], w) for w in ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.3, 0.4, 0.3])], None, [0.0, 0.5, 1.0]),
    "histogram": (_TUPLE_HISTOGRAMS, (-0.5, 1.5), [0.0, 0.25, 0.5, 0.75, 1.0]),
}

# Loss -> (spec, the families it scores); W1 only on [0, 1] supports.
_TUPLE_LOSSES = {
    "tv": (LossSpec.tv(), sorted(_TUPLE_POOLS)),
    "hellinger2": (LossSpec.hellinger2(), ["gaussian", "gaussian-sd", "cauchy", "discrete", "histogram"]),
    "kl": (LossSpec.kl(a=5.0), ["cauchy", "discrete", "histogram"]),
    "l2": (LossSpec.lj(2.0, 5.0), ["gaussian", "cauchy", "discrete", "histogram"]),
    "wasserstein1": (LossSpec.wasserstein1(), ["uniform", "power", "discrete", "histogram"]),
}


@functools.lru_cache(maxsize=None)
def _pool_score(loss, family, i, k):
    pool = _TUPLE_POOLS[family][0]
    return score(_TUPLE_LOSSES[loss][0], pool[i], pool[k])


def _scalar_tuple_halves(loss, coords, picks, x):
    """Pair halves and constant parts of a tuple model, one scalar score call per coordinate.

    ``coords[c]`` is coordinate c's family and ``picks[c][i]`` candidate i's
    index in its pool.  Each pair (i, k) sums, with Python's ``sum``,
    ``float(score(spec, P[c], Q[c])(x[c:c+1])[0])`` and the scores'
    ``constant_part`` over c in order: the scalar rule the engine reproduces.
    """
    m = len(picks[0])
    halves, consts = [], []
    for i, k in combinations(range(m), 2):
        ts = [_pool_score(loss, f, pick[i], pick[k]) for f, pick in zip(coords, picks)]
        halves.append(sum(float(t(x[c : c + 1])[0]) for c, t in enumerate(ts)))
        consts.append(sum(t.constant_part for t in ts))
    return halves, consts


def _antisymmetric(halves, m):
    M = np.zeros((m, m))
    for (i, k), v in zip(combinations(range(m), 2), halves):
        M[i, k], M[k, i] = v, -v
    return M


@st.composite
def tuple_models(draw, loss):
    """A tuple model of 2-5 candidates and 1-8 coordinates, with repeats, plus 1-3 samples."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 8))
    coords = [draw(st.sampled_from(_TUPLE_LOSSES[loss][1])) for _ in range(n)]
    picks = [draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)) for _ in range(n)]
    rows = draw(st.integers(1, 3))
    block = np.empty((rows, n))
    for c, family in enumerate(coords):
        _, span, special = _TUPLE_POOLS[family]
        point = st.sampled_from(special)
        if span is not None:
            point = point | st.floats(*span)
        block[:, c] = draw(st.lists(point, min_size=rows, max_size=rows))
    return coords, picks, block


class TestTupleCoordinateEngines:
    """Tuple models sum one engine per coordinate, bitwise as the scalar per-coordinate scores."""

    @pytest.mark.parametrize("loss", list(_TUPLE_LOSSES))
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bitwise_the_scalar_score_sum(self, loss, data):
        coords, picks, block = data.draw(tuple_models(loss))
        m = len(picks[0])
        cands = [tuple(_TUPLE_POOLS[f][0][pick[i]] for f, pick in zip(coords, picks)) for i in range(m)]
        eng = PairwiseEngine(_TUPLE_LOSSES[loss][0], Model(candidates=cands))
        assert eng.stats.backend == "tuple"
        want = [_scalar_tuple_halves(loss, coords, picks, x) for x in block]
        assert eng.constant_parts.tobytes() == _antisymmetric(want[0][1], m).tobytes()
        assert eng.statistic_matrix(block[0]).tobytes() == _antisymmetric(want[0][0], m).tobytes()
        got = eng.pair_statistics(block)
        for r, (halves, _) in enumerate(want):
            assert got[r].tobytes() == np.array(halves).reshape(-1).tobytes(), r

    def test_coordinate_engines_form_no_matrix(self):
        # Only the tuple engine's (m, m) matrices are read, so its coordinate
        # engines build neither their gather map nor their constant parts.
        coords = ["gaussian", "cauchy", "uniform", "histogram", "gaussian-sd"]
        picks = [[0, 1, 2]] * len(coords)
        cands = [tuple(_TUPLE_POOLS[f][0][pick[i]] for f, pick in zip(coords, picks)) for i in range(3)]
        eng = PairwiseEngine(LossSpec.tv(), Model(candidates=cands))
        x = np.array([0.25, 0.1, 0.7, 0.5, 0.0])
        halves, consts = _scalar_tuple_halves("tv", coords, picks, x)
        assert eng.statistic_matrix(x).tobytes() == _antisymmetric(halves, 3).tobytes()
        assert eng.constant_parts.tobytes() == _antisymmetric(consts, 3).tobytes()
        for coord in eng._coords:
            assert "_gather" not in vars(coord) and "constant_parts" not in vars(coord)

    def test_grid_coordinates_share_rows(self):
        # Each coordinate puts the candidates on an equal-step grid, with
        # repeats and both zeros, so its compiled table has fewer rows than
        # pairs and the coordinate's rows are read out per pair.
        spec = LossSpec.tv()
        coords = [
            (GaussianMeasure, [0.0, 0.25, 0.5, 0.75, 1.0, 0.25]),
            (CauchyMeasure, [-1.0, 0.0, 1.0, -1.0, 0.0, 1.0]),
            (lambda c: UniformMeasure(c, 0.5), [0.0, 0.5, 1.0, 0.0, 0.5, 1.0]),
            (GaussianMeasure, [0.5, 0.5, 0.0, -0.0, 1.0, 1.5]),
        ]
        cands = [tuple(family(locs[i]) for family, locs in coords) for i in range(6)]
        eng = PairwiseEngine(spec, Model(candidates=cands))
        assert all(c._pair_row is not None and c.stats.rows < c.stats.pairs == 15 for c in eng._coords)
        block = np.array([[0.125, 0.0, 0.5, 0.5], [0.5, -0.5, 1.0, 0.0], [0.375, 3.0, 0.25, -0.0]])
        halves, consts = [], []
        for i, k in combinations(range(6), 2):
            ts = [score(spec, cands[i][c], cands[k][c]) for c in range(4)]
            halves.append([sum(float(t(x[c : c + 1])[0]) for c, t in enumerate(ts)) for x in block])
            consts.append(sum(t.constant_part for t in ts))
        want = np.array(halves).T
        assert eng.pair_statistics(block).tobytes() == want.tobytes()
        assert eng.pair_statistics(block[1]).tobytes() == want[1].tobytes()
        assert eng.statistic_matrix(block[2]).tobytes() == _antisymmetric(want[2], 6).tobytes()
        assert eng.constant_parts.tobytes() == _antisymmetric(consts, 6).tobytes()

    def test_sloped_w1_coordinate_scores_as_its_scores(self):
        # The score and the piecewise sweep both round base + (c + s*x) to
        # -0.371875; (base + c) + s*x would read -0.37187499999999996.
        spec = LossSpec.wasserstein1()
        P, Q = _TUPLE_HISTOGRAMS[:2]
        eng = PairwiseEngine(spec, Model(candidates=[(P,), (Q,)]))
        assert eng._coords[0]._mode == "piecewise" and eng._coords[0]._table.slope is not None
        x = np.array([0.1])
        want = float(score(spec, P, Q)(x)[0])
        assert want == -0.371875
        assert eng.statistic_matrix(x)[0, 1] == want
        assert PairwiseEngine(spec, [P, Q]).statistic_matrix(x)[0, 1] == want

    def test_identical_candidates_keep_the_signed_zeros(self):
        # The sum starts from +0.0, so (0, 1) reads +0.0 and (1, 0) its negation.
        G = GaussianMeasure(0.0)
        model = Model(candidates=[(G, G), (G, G)])
        for spec in (LossSpec.tv(), LossSpec.hellinger2()):
            M = PairwiseEngine(spec, model).statistic_matrix(np.array([0.3, -1.0]))
            assert math.copysign(1.0, M[0, 1]) == 1.0 and M[0, 1] == 0.0
            assert math.copysign(1.0, M[1, 0]) == -1.0 and M[1, 0] == 0.0

    def test_sum_starts_from_positive_zero(self):
        # Python's sum starts from 0, and 0 + (-0.0) is +0.0: coordinates
        # that all score -0.0 sum to +0.0 at (0, 1), constant parts too.
        neg = CallableScore(lambda x: np.full(np.shape(x), -0.0), -0.0)
        G = GaussianMeasure(0.0)
        model = Model(candidates=[(G, G), (G, G)])
        with mock.patch.object(estimator, "score", lambda spec, P, Q: neg):
            eng = PairwiseEngine(LossSpec.hellinger2(), model)
        M = eng.statistic_matrix(np.array([0.3, -1.0]))
        for got in (M[0, 1], eng.constant_parts[0, 1], eng.pair_statistics(np.zeros((2, 2)))[1, 0]):
            assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_off_the_atoms_names_the_value(self):
        D = _TUPLE_POOLS["discrete"][0]
        model = Model(candidates=[(D[0], D[1]), (D[1], D[2])])
        with pytest.raises(ConfigError, match="observation 0.75 is outside the model's finite space"):
            PairwiseEngine(LossSpec.tv(), model).statistic_matrix(np.array([0.0, 0.75]))

    def test_tv_regression_tuples_on_a_gaussian_base_compile(self):
        model = build(
            {
                "family": "regression-tuples",
                "theta_net": [[0.0, 0.5, -1.0], [0.25, 0.5, 1.0], [1.0, -0.5, 0.0]],
                "base_q": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                "n": 3,
            }
        )
        stats = PairwiseEngine(LossSpec.tv(), model).stats
        assert (stats.backend, stats.pairs, stats.compiled) == ("tuple", 3, True)
        assert stats.components is None and stats.cuts is None
        assert PairwiseEngine(LossSpec.hellinger2(), model).stats.compiled is False
