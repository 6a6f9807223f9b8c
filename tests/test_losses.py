"""Tests for loss descriptors and the loss dispatch."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairfit.errors import ConfigError
from pairfit.losses import _FAMILIES, LossSpec, _kl_gap, aggregate_loss, loss
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


# One valid config per loss kind, spelled canonically.
LOSS_CONFIGS = {
    "tv": {"kind": "tv"},
    "hellinger2": {"kind": "hellinger2"},
    "kl": {"kind": "kl", "a": 0.7},
    "wasserstein1": {"kind": "wasserstein1"},
    "lj": {"kind": "lj", "j": 2.0, "R": 1.5},
    "linf": {"kind": "linf", "D": 4},
}
LOSS_PARAMS = [(kind, name) for kind, cfg in LOSS_CONFIGS.items() for name in cfg if name != "kind"]


class TestLossTable:
    @pytest.mark.parametrize("kind", list(LOSS_CONFIGS))
    def test_every_kind_names_its_parameters_and_round_trips(self, kind):
        assert list(LOSS_CONFIGS) == list(_FAMILIES)
        assert tuple(name for name in LOSS_CONFIGS[kind] if name != "kind") == _FAMILIES[kind][0]
        spec = LossSpec.from_config(LOSS_CONFIGS[kind])
        cfg = spec.to_config()
        assert cfg == LOSS_CONFIGS[kind]
        assert all(type(cfg[k]) is type(v) for k, v in LOSS_CONFIGS[kind].items())
        assert LossSpec.from_config(cfg) == spec

    @pytest.mark.parametrize("kind, name", LOSS_PARAMS)
    def test_every_parameter_refuses_non_numbers_and_non_finite_values(self, kind, name):
        # 10^400 is a JSON integer that no float holds; it used to pass the
        # checks and fail later with OverflowError.
        for value in (True, "1", math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(ConfigError, match=f"parameter '{name}'"):
                LossSpec.from_config(dict(LOSS_CONFIGS[kind], **{name: value}))

    def test_integer_spelled_parameters_read_as_floats(self):
        spelled_int = LossSpec.from_config({"kind": "lj", "j": 2, "R": 1})
        assert spelled_int.to_config() == LossSpec.from_config({"kind": "lj", "j": 2.0, "R": 1.0}).to_config()
        assert [type(v) for v in spelled_int.to_config().values()] == [str, float, float]
        assert type(LossSpec.from_config({"kind": "kl", "a": 1}).a) is float

    def test_cell_count_refuses_floats_and_bools(self):
        for value in (5.0, True, 2.5):
            with pytest.raises(ConfigError, match="positive cell count D"):
                LossSpec.from_config({"kind": "linf", "D": value})

    def test_constructors_refuse_what_from_config_refuses(self):
        for make, cfg in [
            (lambda: LossSpec.linf(2.5), {"kind": "linf", "D": 2.5}),
            (lambda: LossSpec.linf(True), {"kind": "linf", "D": True}),
            (lambda: LossSpec.kl("0.5"), {"kind": "kl", "a": "0.5"}),
        ]:
            with pytest.raises(ConfigError):
                make()
            with pytest.raises(ConfigError):
                LossSpec.from_config(cfg)

    def test_lj_family_scale_must_be_a_positive_finite_float(self):
        # 2^(1e300 - 1) overflows and 0.5^(1e300 - 1) is 0.
        for R in (2.0, 0.5):
            with pytest.raises(ConfigError, match=r"family scale R \*\* \(j - 1\)"):
                LossSpec.lj(j=1e300, R=R)
        assert LossSpec.lj(j=1e300, R=1.0).j == 1e300


def positive_floats(lo, hi):
    """Floats in [lo, hi], drawn both as hypothesis floats and log-uniformly."""
    log_uniform = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))
    return st.floats(lo, hi) | log_uniform


class TestFamilyConstants:
    """Every accepted loss has positive finite constants (a0, a1, a2, b)."""

    def test_zero_or_infinite_constants_are_refused(self):
        for make in (
            lambda: LossSpec.kl(a=1e308),  # a0 = a1 = 0
            lambda: LossSpec.linf(D=10**308),  # a0 = a1 = 0
            lambda: LossSpec.lj(j=2.0, R=1e-320),  # a0 = a1 = inf
            lambda: LossSpec.lj(j=1024.0, R=2.0),  # scale 2^1023, a0 = a1 = 0, b = inf
            lambda: LossSpec.kl(a=1e-200),  # e^-a - 1 + a underflows, a2 = inf
        ):
            with pytest.raises(ConfigError, match="positive finite family constants"):
                make()

    @given(
        kind=st.sampled_from(list(_FAMILIES)),
        j=st.floats(1.0, 1e300) | st.floats(1.0, 10.0),
        R=positive_floats(1e-320, 1e308),
        a=positive_floats(1e-320, 1e308),
        D=st.integers(1, 10**308) | st.integers(0, 308).map(lambda e: 10**e),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_accepted_loss_has_positive_finite_constants(self, kind, j, R, a, D):
        drawn = {"j": j, "R": R, "a": a, "D": D}
        cfg = {"kind": kind, **{name: drawn[name] for name in _FAMILIES[kind][0]}}
        try:
            spec = LossSpec.from_config(cfg)
        except ConfigError:
            return
        values = [v for v in spec.constants if v is not None]
        assert values and all(0.0 < v < math.inf for v in values), (cfg, values)

    @pytest.mark.parametrize("a", [1e-6, 1e-3, 0.7, 1.4364, 3.0, 50.0])
    def test_kl_gap_matches_a_decimal_reference(self, a):
        with localcontext() as ctx:
            ctx.prec = 50
            exact = Decimal(-a).exp() - 1 + Decimal(a)
        assert abs(Decimal(_kl_gap(a)) - exact) <= Decimal(1e-12) * exact
        assert LossSpec.kl(a=a).constants.a2 == 1.0 / (2.0 * _kl_gap(a))

    @given(a=positive_floats(1e-150, 1e300))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_kl_variance_constant_is_at_least_the_old_one(self, a):
        # The old constant 1 / (a min(2, a)) failed the exact audit.
        assert LossSpec.kl(a=a).constants.a2 >= (1.0 - 1e-15) / (a * min(2.0, a))


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
