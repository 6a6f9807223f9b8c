"""Tests for the candidate-family builders.

Frozen values were computed from a standalone script before this module
existed: the five-candidate histogram enumeration and the ten-candidate
monotone enumeration were brute-forced independently of the builder's
combination walk, the cauchy log-ratio peak came from scipy optimization
over a fine bracket sweep, and the gaussian grid bound is the closed-form
log ratio at the probe window's edge.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairfit.errors import ConfigError
from pairfit.estimator import Model
from pairfit.losses import LossSpec, loss
from pairfit.measures import (
    CauchyMeasure,
    GaussianMeasure,
    HistogramMeasure,
    PowerMeasure,
    UniformMeasure,
    _log_ratio_bound,
    _tv_closed_form,
    _tv_quadrature,
)
from pairfit.models import _FAMILIES, ModelBuilderConfig, build
from pairfit.testfam import score


def total_mass(measure, hi):
    return float(measure.cdf(np.array([hi]))[0])


# One valid config per family, keys in field order, as a reader of JSON
# would pass it; every grid and net holds an entry equal to 1.
FAMILY_CONFIGS = {
    "gaussian-location-grid": {"d": 1, "lo": -1, "hi": 1.0, "step": 0.5},
    "translation-grid": {"lo": 0.0, "hi": 0.5, "step": 0.25, "base": "power", "alpha": 0.5},
    "histogram-net": {"cells": 2, "value_grid": [0.2, 0.6, 1.0, 1.4, 1.8]},
    "monotone-net": {"d": 2, "breakpoint_grid": [0.0, 0.5, 1.0], "level_grid": [0.5, 1, 2.0]},
    "l2-linear": {"cells": 2, "basis": "indicator", "coefficient_net": [[0.5, 0.5], [1, 0.0]]},
    "discrete": {"space_size": 2, "candidates": [[0.2, 0.8], [1, 0]]},
    "regression-tuples": {
        "theta_net": [[0.0, 0.5], [1.0, -1.0]],
        "base_q": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
        "n": 2,
    },
}

COUNT_FIELDS = ("d", "cells", "space_size", "n")
GRID_FIELDS = ("value_grid", "breakpoint_grid", "level_grid")
NET_FIELDS = ("coefficient_net", "candidates", "theta_net")


def family_config(family, **changes):
    return {"family": family, **FAMILY_CONFIGS[family], **changes}


def with_one_as(value, bad):
    """A grid or net with its first entry equal to 1 replaced by ``bad``."""
    if isinstance(value[0], list):
        k = next(k for k, row in enumerate(value) if 1 in row)
        return [*value[:k], with_one_as(value[k], bad), *value[k + 1 :]]
    k = value.index(1)
    return [*value[:k], bad, *value[k + 1 :]]


def bad_entry_cases():
    """(family, field, bad value) for every count, grid and net field of every family.

    ``float`` reads each bad value as a valid one: True and "1" as 1.0.
    """
    for family, cfg in FAMILY_CONFIGS.items():
        for name, value in cfg.items():
            if name in COUNT_FIELDS:
                yield family, name, True
            elif name in GRID_FIELDS or name in NET_FIELDS:
                for bad in ("1", True):
                    yield family, name, with_one_as(value, bad)


class TestGaussianLocationGrid:
    def test_nine_point_grid(self):
        model = build(
            ModelBuilderConfig(
                family="gaussian-location-grid", d=1, lo=-2.0, hi=2.0, step=0.5
            )
        )
        assert len(model.candidates) == 9
        assert model.vc_dimension == 2.0
        assert model.candidate_params == pytest.approx(
            [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
        )
        assert all(isinstance(m, GaussianMeasure) for m in model.candidates)
        assert all(m.sd == 1.0 for m in model.candidates)

    def test_log_ratio_bound_hits_window_edge(self):
        # For means in [-2, 2] and sd 1 the log ratio is linear in x, so the
        # probe maximum sits at the window edge x = 14:
        # ((14 + 2)^2 - (14 - 2)^2) / 2 = 56.
        model = build(
            ModelBuilderConfig(
                family="gaussian-location-grid", d=1, lo=-2.0, hi=2.0, step=0.5
            )
        )
        assert _log_ratio_bound(model.candidates) == pytest.approx(56.0, rel=1e-9)

    def test_inclusive_endpoint_despite_float_steps(self):
        model = build(
            ModelBuilderConfig(
                family="gaussian-location-grid", d=1, lo=0.1, hi=0.7, step=0.2
            )
        )
        assert model.candidate_params == pytest.approx([0.1, 0.3, 0.5, 0.7])

    def test_only_one_dimension_supported(self):
        with pytest.raises(ConfigError, match="one-dimensional"):
            ModelBuilderConfig(
                family="gaussian-location-grid", d=2, lo=0.0, hi=1.0, step=0.5
            )


class TestTranslationGrid:
    def test_cauchy_grid_has_finite_log_ratio_bound(self):
        model = build(
            ModelBuilderConfig(
                family="translation-grid", base="cauchy", lo=0.0, hi=1.0, step=0.5
            )
        )
        assert len(model.candidates) == 3
        assert all(isinstance(m, CauchyMeasure) for m in model.candidates)
        # True supremum of the pairwise log density ratio (scipy bracket
        # sweep); the builder's refined probe must land on it from below.
        bound = _log_ratio_bound(model.candidates)
        assert bound == pytest.approx(0.9624236501192076, abs=1e-6)
        assert bound <= 0.9624236501192076 + 1e-9

    def test_uniform_grid_has_no_log_ratio_bound(self):
        model = build(
            ModelBuilderConfig(
                family="translation-grid", base="uniform", lo=0.0, hi=1.0, step=0.5
            )
        )
        assert _log_ratio_bound(model.candidates) is None
        assert all(isinstance(m, UniformMeasure) for m in model.candidates)
        assert [m.low for m in model.candidates] == pytest.approx([0.0, 0.5, 1.0])

    def test_power_translations_match_closed_form_tv(self):
        model = build(
            ModelBuilderConfig(
                family="translation-grid",
                base="power",
                alpha=0.5,
                lo=0.0,
                hi=0.5,
                step=0.25,
            )
        )
        assert all(isinstance(m, PowerMeasure) for m in model.candidates)
        p0, p1, p2 = model.candidates
        for pair, shift in [((p0, p1), 0.25), ((p0, p2), 0.5), ((p1, p2), 0.25)]:
            closed = _tv_closed_form(*pair)
            quad = _tv_quadrature(*pair)
            assert closed == pytest.approx(min(shift**0.5, 1.0), rel=1e-12)
            assert quad == pytest.approx(closed, abs=1e-6)

    def test_power_base_requires_alpha_in_unit_interval(self):
        with pytest.raises(ConfigError, match="alpha"):
            ModelBuilderConfig(
                family="translation-grid",
                base="power",
                alpha=1.5,
                lo=0.0,
                hi=1.0,
                step=0.5,
            )

    def test_alpha_rejected_for_other_bases(self):
        with pytest.raises(ConfigError, match="alpha"):
            ModelBuilderConfig(
                family="translation-grid",
                base="cauchy",
                alpha=0.5,
                lo=0.0,
                hi=1.0,
                step=0.5,
            )

    def test_unknown_base(self):
        with pytest.raises(ConfigError, match="translation base"):
            ModelBuilderConfig(
                family="translation-grid", base="gamma", lo=0.0, hi=1.0, step=0.5
            )


class TestHistogramNet:
    def test_two_cell_net_enumerates_exactly_the_unit_mass_pairs(self):
        model = build(
            ModelBuilderConfig(
                family="histogram-net",
                cells=2,
                value_grid=(0.2, 0.6, 1.0, 1.4, 1.8),
            )
        )
        assert model.candidate_params == [
            (0.2, 1.8),
            (0.6, 1.4),
            (1.0, 1.0),
            (1.4, 0.6),
            (1.8, 0.2),
        ]
        assert model.candidates[0].partition.cells == 2
        # Heights come in reciprocal-free pairs, so the widest spread is
        # log(1.8 / 0.2) = log 9.
        assert _log_ratio_bound(model.candidates) == pytest.approx(math.log(9.0), rel=1e-9)
        for m in model.candidates:
            assert m.is_probability
            assert total_mass(m, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_zero_height_disables_log_ratio_bound(self):
        model = build(
            ModelBuilderConfig(
                family="histogram-net", cells=2, value_grid=(0.0, 1.0, 2.0)
            )
        )
        assert _log_ratio_bound(model.candidates) is None
        assert sorted(model.candidate_params) == [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]

    def test_empty_net_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            build(
                ModelBuilderConfig(
                    family="histogram-net", cells=2, value_grid=(0.2, 0.4)
                )
            )

    def test_oversized_net_rejected_before_enumeration(self):
        # 9^12 is about 2.8e11 height tuples; the check needs none of them.
        with pytest.raises(ConfigError, match="9\\^12 height tuples"):
            ModelBuilderConfig(
                family="histogram-net", cells=12, value_grid=tuple(0.25 * k for k in range(9))
            )
        with pytest.raises(ConfigError, match="limit"):
            ModelBuilderConfig(family="histogram-net", cells=10**9, value_grid=(0.0, 2.0))
        # 10^6 tuples is the largest net allowed.
        ModelBuilderConfig(family="histogram-net", cells=6, value_grid=tuple(0.2 * k for k in range(10)))

    @given(
        cells=st.integers(min_value=1, max_value=3),
        grid=st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=1,
            max_size=4,
            unique=True,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_candidate_is_a_probability(self, cells, grid):
        any_valid = any(
            abs(sum(h) / cells - 1.0) <= 1e-9
            for h in itertools.product(grid, repeat=cells)
        )
        config = ModelBuilderConfig(
            family="histogram-net", cells=cells, value_grid=tuple(grid)
        )
        if not any_valid:
            with pytest.raises(ConfigError):
                build(config)
            return
        model = build(config)
        for m in model.candidates:
            assert total_mass(m, 1.0) == pytest.approx(1.0, abs=1e-9)


class TestMonotoneNet:
    CONFIG = ModelBuilderConfig(
        family="monotone-net",
        d=2,
        breakpoint_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
        level_grid=(0.5, 1.0, 2.0, 4.0),
    )

    # Brute force over all level assignments (contiguous positive block,
    # non-increasing, at most two runs, unit mass) found exactly these ten.
    EXPECTED = {
        (4.0, 0.0, 0.0, 0.0),
        (2.0, 2.0, 0.0, 0.0),
        (2.0, 1.0, 1.0, 0.0),
        (1.0, 1.0, 1.0, 1.0),
        (0.0, 4.0, 0.0, 0.0),
        (0.0, 2.0, 2.0, 0.0),
        (0.0, 2.0, 1.0, 1.0),
        (0.0, 0.0, 4.0, 0.0),
        (0.0, 0.0, 2.0, 2.0),
        (0.0, 0.0, 0.0, 4.0),
    }

    def test_unit_support_enumeration_matches_brute_force(self):
        model = build(self.CONFIG)
        got = {tuple(p) for p in model.candidate_params}
        assert got == self.EXPECTED
        assert model.vc_dimension == 4.0

    def test_candidates_are_non_increasing_probabilities(self):
        model = build(self.CONFIG)
        for m in model.candidates:
            h = np.asarray(m.heights)
            assert np.all(h >= 0)
            pos = np.flatnonzero(h > 0)
            block = h[pos[0] : pos[-1] + 1]
            assert np.all(block > 0), "support must be one interval"
            assert np.all(np.diff(block) <= 0)
            assert total_mass(m, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_wide_support_scales_reference_heights(self):
        # Lebesgue levels keep their meaning when the support is [0, 2]:
        # a level-2 spike on one cell of width 0.5 has unit mass, and its
        # reference height is level times support length.
        model = build(
            ModelBuilderConfig(
                family="monotone-net",
                d=2,
                breakpoint_grid=(0.0, 0.5, 1.0, 1.5, 2.0),
                level_grid=(0.25, 0.5, 1.0, 2.0),
            )
        )
        assert len(model.candidates) == 10
        assert model.candidates[0].partition.support == (0.0, 2.0)
        got = {tuple(p) for p in model.candidate_params}
        assert (4.0, 0.0, 0.0, 0.0) in got
        assert (2.0, 1.0, 1.0, 0.0) in got
        for m in model.candidates:
            assert total_mass(m, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_irregular_breakpoints_rejected(self):
        with pytest.raises(ConfigError, match="equally spaced"):
            ModelBuilderConfig(
                family="monotone-net",
                d=1,
                breakpoint_grid=(0.0, 0.3, 1.0),
                level_grid=(1.0,),
            )

    def test_nonpositive_levels_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            ModelBuilderConfig(
                family="monotone-net",
                d=1,
                breakpoint_grid=(0.0, 0.5, 1.0),
                level_grid=(0.0, 1.0),
            )

    def test_enumeration_size_limit(self):
        # 20 cells and 10 levels: d = 3 gives 780,150 run-and-level choices,
        # d = 4 another 4,273,290, past the limit of 10^6.
        grid = tuple(k / 20 for k in range(21))
        levels = tuple(0.5 * k for k in range(1, 11))
        ModelBuilderConfig(family="monotone-net", d=3, breakpoint_grid=grid, level_grid=levels)
        with pytest.raises(ConfigError, match="more than 1000000 run-and-level choices"):
            ModelBuilderConfig(family="monotone-net", d=4, breakpoint_grid=grid, level_grid=levels)


class TestL2Linear:
    COEFFS = ((0.5, 0.5, 0.5, 0.5), (1.0, 0.0, 0.0, 0.0), (0.0, 0.6, 0.8, 0.0))

    def build_model(self):
        return build(
            ModelBuilderConfig(
                family="l2-linear", basis="indicator", cells=4,
                coefficient_net=self.COEFFS,
            )
        )

    def test_flatness_radius_is_root_cell_count(self):
        # A unit coefficient vector on one indicator has sup-norm sqrt(cells).
        model = self.build_model()
        assert len(model.candidates) == 3
        assert np.max(model.candidates[1].heights) == pytest.approx(2.0)

    def test_coefficient_distance_equals_density_distance(self):
        # The indicator basis is orthonormal, so the L2 distance of two
        # candidates is the Euclidean distance of their coefficients.
        model = self.build_model()
        spec = LossSpec.lj(2.0, 2.0)
        for i, k in itertools.combinations(range(3), 2):
            dens = loss(spec, model.candidates[i], model.candidates[k])
            coeff = np.linalg.norm(np.subtract(self.COEFFS[i], self.COEFFS[k]))
            assert dens == pytest.approx(coeff, abs=1e-9)

    def test_user_basis_is_refused(self):
        with pytest.raises(ConfigError, match="user bases"):
            ModelBuilderConfig(
                family="l2-linear", basis="user", cells=2,
                coefficient_net=((1.0, 0.0),),
            )

    def test_signed_candidates_are_not_probabilities(self):
        model = build(
            ModelBuilderConfig(
                family="l2-linear", basis="indicator", cells=2,
                coefficient_net=((0.5, -0.5),),
            )
        )
        assert not model.candidates[0].is_probability


class TestDiscreteFamily:
    def test_two_point_candidates(self):
        model = build(
            ModelBuilderConfig(
                family="discrete", space_size=2,
                candidates=((0.2, 0.8), (0.5, 0.5)),
            )
        )
        assert len(model.candidates) == 2
        # The KL score checks a discrete pair's log-ratio bound over its
        # atoms; with a = 1 its values are log(q/p) / 2.
        t = score(LossSpec.kl(a=1.0), *model.candidates)
        assert 2.0 * np.abs(t.values).max() == pytest.approx(0.916290731874155, rel=1e-12)
        with pytest.raises(ConfigError, match="log-ratio bound violated"):
            score(LossSpec.kl(a=0.9), *model.candidates)

    def test_zero_mass_disables_log_ratio_bound(self):
        model = build(
            ModelBuilderConfig(
                family="discrete", space_size=3,
                candidates=((0.5, 0.5, 0.0), (0.2, 0.3, 0.5)),
            )
        )
        with pytest.raises(ConfigError, match="strictly positive"):
            score(LossSpec.kl(a=100.0), *model.candidates)

    def test_masses_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum"):
            ModelBuilderConfig(
                family="discrete", space_size=2, candidates=((0.2, 0.7),)
            )

    def test_row_length_must_match_space(self):
        with pytest.raises(ConfigError, match="2-point space"):
            ModelBuilderConfig(
                family="discrete", space_size=2, candidates=((0.2, 0.3, 0.5),)
            )


class TestRegressionTuples:
    def test_translated_coordinates(self):
        model = build(
            ModelBuilderConfig(
                family="regression-tuples",
                theta_net=((0.0, 0.1, 0.2), (1.0, 1.0, 1.0)),
                base_q={"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
                n=3,
            )
        )
        assert model.product_form == "tuples"
        assert len(model.candidates) == 2
        for cand, theta in zip(model.candidates, ((0.0, 0.1, 0.2), (1.0, 1.0, 1.0))):
            assert len(cand) == 3
            assert [q.mean for q in cand] == pytest.approx(list(theta))
            assert all(q.sd == 1.0 for q in cand)

    def test_other_translation_bases(self):
        cfg = {"family": "uniform", "params": {"low": 0.0, "width": 1.0}}
        model = build(
            ModelBuilderConfig(
                family="regression-tuples",
                theta_net=((0.5, 1.5),),
                base_q=cfg,
                n=2,
            )
        )
        (cand,) = model.candidates
        assert [q.low for q in cand] == pytest.approx([0.5, 1.5])
        assert all(q.width == 1.0 for q in cand)

    def test_theta_length_must_match_n(self):
        with pytest.raises(ConfigError, match="length"):
            ModelBuilderConfig(
                family="regression-tuples",
                theta_net=((0.0, 0.1),),
                base_q={"family": "gaussian", "params": {"mean": 0.0}},
                n=3,
            )


class TestConfigHandling:
    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown model family"):
            ModelBuilderConfig(family="spline-net")

    def test_irrelevant_parameter_rejected(self):
        with pytest.raises(ConfigError, match="does not take"):
            ModelBuilderConfig(
                family="gaussian-location-grid",
                d=1, lo=0.0, hi=1.0, step=0.5, cells=3,
            )

    def test_missing_parameter_rejected(self):
        with pytest.raises(ConfigError, match="requires"):
            ModelBuilderConfig(family="gaussian-location-grid", d=1, lo=0.0, hi=1.0)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ConfigError, match="step"):
            ModelBuilderConfig(
                family="gaussian-location-grid", d=1, lo=0.0, hi=1.0, step=0.0
            )

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError, match="empty grid"):
            ModelBuilderConfig(
                family="gaussian-location-grid", d=1, lo=1.0, hi=0.0, step=0.5
            )

    def test_round_trip_through_plain_config(self):
        original = ModelBuilderConfig(
            family="histogram-net", cells=2, value_grid=(0.2, 0.6, 1.0, 1.4, 1.8)
        )
        cfg = original.to_config()
        assert cfg["family"] == "histogram-net"
        assert cfg["value_grid"] == [0.2, 0.6, 1.0, 1.4, 1.8]
        rebuilt = ModelBuilderConfig.from_config(cfg)
        assert rebuilt == original
        assert set(FAMILY_CONFIGS) == set(_FAMILIES)
        for family in FAMILY_CONFIGS:
            original = ModelBuilderConfig.from_config(family_config(family))
            cfg = original.to_config()
            assert cfg == family_config(family)
            assert list(cfg) == ["family", *FAMILY_CONFIGS[family]]
            # List entries come back as floats, scalars as given.
            lists = [cfg[name] for name in GRID_FIELDS if name in cfg]
            lists += [row for name in NET_FIELDS if name in cfg for row in cfg[name]]
            assert all(type(v) is float for entries in lists for v in entries)
            assert all(type(cfg[k]) is type(v) for k, v in FAMILY_CONFIGS[family].items())
            assert ModelBuilderConfig.from_config(cfg) == original
            assert build(cfg).candidate_params == build(original).candidate_params

    def test_round_trip_nested_vectors(self):
        original = ModelBuilderConfig(
            family="l2-linear", basis="indicator", cells=2,
            coefficient_net=((1.0, 0.0), (0.0, 1.0)),
        )
        rebuilt = ModelBuilderConfig.from_config(original.to_config())
        assert rebuilt == original

    @pytest.mark.parametrize(
        "family, name, value",
        list(bad_entry_cases()),
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_counts_refuse_bools_and_lists_refuse_strings_and_bools(self, family, name, value):
        with pytest.raises(ConfigError, match=rf"^{name}\b"):
            ModelBuilderConfig.from_config(family_config(family, **{name: value}))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400])
    @pytest.mark.parametrize(
        "family, name",
        [
            ("gaussian-location-grid", "lo"),
            ("translation-grid", "alpha"),
            ("histogram-net", "value_grid"),
            ("monotone-net", "breakpoint_grid"),
            ("l2-linear", "coefficient_net"),
            ("discrete", "candidates"),
            ("regression-tuples", "theta_net"),
        ],
    )
    def test_non_finite_numbers_refused(self, family, name, value):
        # A NaN coefficient or mass used to build a NaN candidate, and an
        # integer past the float range failed with OverflowError.
        old = FAMILY_CONFIGS[family][name]
        if isinstance(old, list):
            value = with_one_as(old, value)
        with pytest.raises(ConfigError, match=name):
            ModelBuilderConfig.from_config(family_config(family, **{name: value}))

    def test_empty_lists_refused(self):
        for family, name in [("histogram-net", "value_grid"), ("discrete", "candidates")]:
            with pytest.raises(ConfigError, match=f"{name} must be a nonempty"):
                ModelBuilderConfig.from_config(family_config(family, **{name: []}))

    def test_base_q_is_read_and_stored_canonical(self):
        short = ModelBuilderConfig.from_config(
            family_config("regression-tuples", base_q={"family": "gaussian", "params": {"mean": 0}})
        )
        canonical = ModelBuilderConfig.from_config(family_config("regression-tuples"))
        assert short == canonical
        assert short.to_config() == family_config("regression-tuples")
        with pytest.raises(ConfigError, match="mean"):
            ModelBuilderConfig.from_config(
                family_config(
                    "regression-tuples", base_q={"family": "gaussian", "params": {"mean": "x"}}
                )
            )
        histogram = {"family": "histogram", "params": {"heights": [1.0]}}
        with pytest.raises(ConfigError, match="no translation parameter"):
            ModelBuilderConfig.from_config(family_config("regression-tuples", base_q=histogram))

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown model config keys"):
            ModelBuilderConfig.from_config({"family": "discrete", "size": 3})

    def test_build_accepts_plain_dicts(self):
        model = build(
            {
                "family": "gaussian-location-grid",
                "d": 1, "lo": 0.0, "hi": 1.0, "step": 0.5,
            }
        )
        assert isinstance(model, Model)
        assert len(model.candidates) == 3
