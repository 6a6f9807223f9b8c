"""Tests for loss descriptors and the loss dispatch."""

import math

import pytest

from pairfit.errors import ConfigError
from pairfit.losses import LossSpec, aggregate_loss, loss
from pairfit.measures import (
    DiscreteMeasure,
    GaussianMeasure,
    HistogramMeasure,
    PartitionRef,
    UniformMeasure,
    point_mass,
)


class TestLossSpec:
    def test_factories_and_kinds(self):
        assert LossSpec.tv().kind == "tv"
        assert LossSpec.hellinger2().kind == "hellinger2"
        assert LossSpec.kl(a=2.0).a == 2.0
        s = LossSpec.lj(j=1.5, R=2.0)
        assert (s.j, s.R) == (1.5, 2.0)
        assert LossSpec.linf(D=4).D == 4

    def test_rejects_irrelevant_params(self):
        with pytest.raises(ConfigError, match="does not take"):
            LossSpec(kind="tv", j=2.0)
        with pytest.raises(ConfigError, match="does not take"):
            LossSpec(kind="kl", a=1.0, R=3.0)

    def test_rejects_missing_params(self):
        with pytest.raises(ConfigError):
            LossSpec(kind="kl")
        with pytest.raises(ConfigError):
            LossSpec(kind="lj", j=2.0)
        with pytest.raises(ConfigError):
            LossSpec(kind="linf")

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            LossSpec.lj(j=1.0, R=1.0)  # j must exceed 1
        with pytest.raises(ConfigError):
            LossSpec.kl(a=0.0)
        with pytest.raises(ConfigError):
            LossSpec.linf(D=0)
        with pytest.raises(ConfigError, match="unknown loss kind"):
            LossSpec(kind="energy")

    def test_config_round_trip(self):
        for spec in [
            LossSpec.tv(),
            LossSpec.hellinger2(),
            LossSpec.kl(a=0.7),
            LossSpec.wasserstein1(),
            LossSpec.lj(j=2.0, R=math.sqrt(2.0)),
            LossSpec.linf(D=8),
        ]:
            assert LossSpec.from_config(spec.to_config()) == spec

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown loss config keys"):
            LossSpec.from_config({"kind": "tv", "bandwidth": 2.0})


class TestLossDispatch:
    def test_tv_and_hellinger_and_kl(self):
        P, Q = GaussianMeasure(0.0), GaussianMeasure(1.0)
        assert abs(loss(LossSpec.tv(), P, Q) - 0.3829249225480262) < 1e-12
        assert abs(loss(LossSpec.hellinger2(), P, Q) - (1.0 - math.exp(-0.125))) < 1e-12
        assert abs(loss(LossSpec.kl(a=5.0), P, Q) - 0.5) < 1e-12

    def test_wasserstein(self):
        assert abs(loss(LossSpec.wasserstein1(), UniformMeasure(0.0, 1.0), point_mass(0.5)) - 0.25) < 1e-12

    def test_lj_and_linf_on_histograms(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [1.6, 0.4])
        Q = HistogramMeasure(part, [0.4, 1.6])
        # |p - q| = 1.2 on both halves, so both the 2-norm and sup-norm are 1.2.
        assert abs(loss(LossSpec.lj(j=2.0, R=2.0), P, Q) - 1.2) < 1e-12
        assert abs(loss(LossSpec.linf(D=2), P, Q) - 1.2) < 1e-12

    def test_linf_partition_mismatch(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [1.6, 0.4])
        Q = HistogramMeasure(part, [0.4, 1.6])
        with pytest.raises(ValueError, match="cells"):
            loss(LossSpec.linf(D=4), P, Q)


    def test_linf_needs_a_partition(self):
        # Without a D-cell partition the sup norm would not depend on D.
        for D in (3, 7):
            with pytest.raises(ConfigError, match=f"{D}-cell partition"):
                loss(LossSpec.linf(D=D), GaussianMeasure(0.0, 1.0), GaussianMeasure(0.5, 1.0))
        part = PartitionRef(2, (0.0, 1.0))
        with pytest.raises(ConfigError, match="2-cell partition"):
            loss(LossSpec.linf(D=2), HistogramMeasure(part, [1.0, 1.0]), GaussianMeasure(0.5, 1.0))


class TestAggregateLoss:
    def test_single_pair_broadcast(self):
        truth = GaussianMeasure(0.0)
        cand = GaussianMeasure(1.0)
        tv = 0.3829249225480262
        assert abs(aggregate_loss(LossSpec.tv(), truth, cand) - tv) < 1e-12
        assert abs(aggregate_loss(LossSpec.tv(), truth, cand, n=10) - 10 * tv) < 1e-12

    def test_sequence_of_truths(self):
        truths = [GaussianMeasure(0.0), GaussianMeasure(2.0)]
        cand = GaussianMeasure(1.0)
        tv1 = 0.3829249225480262
        total = aggregate_loss(LossSpec.tv(), truths, cand)
        assert abs(total - 2 * tv1) < 1e-12

    def test_sequence_of_candidates(self):
        truth = DiscreteMeasure([0, 1], [0.5, 0.5])
        cands = [DiscreteMeasure([0, 1], [0.3, 0.7]), DiscreteMeasure([0, 1], [0.8, 0.2])]
        total = aggregate_loss(LossSpec.tv(), truth, cands)
        assert abs(total - 0.5) < 1e-12  # 0.2 + 0.3, truth broadcast to both

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="lengths"):
            aggregate_loss(
                LossSpec.tv(),
                [GaussianMeasure(0.0), GaussianMeasure(0.5)],
                [GaussianMeasure(1.0), GaussianMeasure(2.0), GaussianMeasure(3.0)],
            )
