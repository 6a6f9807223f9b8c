"""Tests for the pairwise engine, the estimator, and the plug-in estimators."""

import functools
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    UniformMeasure,
    empirical_measure,
    lj_distance,
    philox_rng,
    point_mass,
    wasserstein1,
)
from pairfit.models import build
from pairfit.robust_tests import run_test
from pairfit.testfam import PiecewiseScore, PiecewiseTable, partition_pair_table, score


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
            product_form="tuples",
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
        model = Model(candidates=[P, Q], product_form="tuples")
        x = np.array([0.3, -0.2, 2.4])
        M = PairwiseEngine(LossSpec.tv(), model).statistic_matrix(x)
        by_hand = sum(
            float(score(LossSpec.tv(), p, q)(np.array([xi]))[0])
            for (p, q), xi in zip(coords, x)
        )
        assert abs(M[0, 1] - by_hand) < 1e-12
        assert M[1, 0] == -M[0, 1]


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
        for field in ("bases", "pair", "const"):
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
        model = [GaussianMeasure(c) for c in (-0.5, 0.0, 0.5)]
        calls = count_score_calls(monkeypatch)
        eng = PairwiseEngine(LossSpec.tv(), model)
        assert len(calls) == 3
        assert eng._mode == "piecewise"

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
        "spec",
        [LossSpec.hellinger2(), LossSpec.kl(a=1.0), LossSpec.wasserstein1()],
        ids=["hellinger2", "kl", "wasserstein1"],
    )
    def test_other_families_return_before_reading_candidates(self, spec):
        class Unread(list):
            def __iter__(self):
                raise AssertionError("candidates were read")

            def __getitem__(self, index):
                raise AssertionError("candidates were read")

        assert partition_pair_table(spec, Unread()) is None


class TestMatrixFill:
    def test_fill_matches_triangle_indexing_bitwise(self):
        # Signed zeros included: (i, k) gets +h and (k, i) gets -h.
        m = 7
        eng = PairwiseEngine(LossSpec.tv(), [GaussianMeasure(0.1 * c) for c in range(m)])
        halves = np.random.default_rng(3).standard_normal(m * (m - 1) // 2)
        halves[::4], halves[1::5] = 0.0, -0.0
        expected = np.zeros((m, m))
        iu = np.triu_indices(m, k=1)
        expected[iu] = halves
        expected[(iu[1], iu[0])] = -halves
        assert eng._fill_matrix(halves).tobytes() == expected.tobytes()

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
    return Model(candidates=[P, Q], product_form="tuples")


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
            assert (stats.components, stats.cuts) == (len(eng._table.pair), len(eng._table.cuts))
        else:
            assert stats.components is None and stats.cuts is None

    def test_compiled_partition_table_sizes(self):
        # TV on one 4-cell partition: a component per cell where the heights
        # differ, and the cell starts plus the closed support end as cuts.
        part = PartitionRef(4, (0.0, 1.0))
        cands = [HistogramMeasure(part, h) for h in ([1, 1, 1, 1], [2, 0, 1, 1], [2, 0, 0, 2])]
        stats = PairwiseEngine(LossSpec.tv(), cands).stats
        assert (stats.backend, stats.pairs, stats.components, stats.cuts) == ("piecewise", 3, 2 + 4 + 2, 5)

    def test_read_only(self):
        eng = _block_engine("atom", 3)
        with pytest.raises(AttributeError):
            eng.stats = None
        with pytest.raises(AttributeError):
            eng.stats.pairs = 0
