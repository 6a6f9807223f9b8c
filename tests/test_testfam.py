"""Tests for the per-loss score families and the assumption checker.

Frozen values were hand-computed from the family formulas (noted inline).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairfit import testfam
from pairfit.errors import ConfigError
from pairfit.estimator import PairwiseEngine
from pairfit.losses import LossSpec, loss
from pairfit.measures import (
    CauchyMeasure,
    DiscreteMeasure,
    GaussianMeasure,
    HistogramMeasure,
    MixtureMeasure,
    PartitionRef,
    PowerMeasure,
    UniformMeasure,
    expectation,
    hellinger_sq,
    kl_divergence,
    point_mass,
    tv_distance,
    wasserstein1,
)
from pairfit.models import build
from pairfit.testfam import (
    AtomScore,
    _interval_prob,
    _tv_sign_regions,
    c1_constant,
    check_assumptions_exact,
    check_cond3bis,
    score,
)


def masses_strategy(size: int):
    return st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=size, max_size=size
    ).map(lambda v: [x / sum(v) for x in v])


class TestFamilyConstants:
    def test_tv_and_wasserstein(self):
        for spec in [LossSpec.tv(), LossSpec.wasserstein1()]:
            c = spec.constants
            assert (c.a0, c.a1, c.a2, c.b) == (1.5, 0.5, None, 1.0)

    def test_lj(self):
        c = LossSpec.lj(j=2.0, R=math.sqrt(2.0)).constants
        assert abs(c.a0 - 3.0 / (4.0 * math.sqrt(2.0))) < 1e-15
        assert abs(c.a1 - 1.0 / (4.0 * math.sqrt(2.0))) < 1e-15
        assert abs(c.b - 2.0 * math.sqrt(2.0)) < 1e-15

    def test_linf(self):
        c = LossSpec.linf(D=2).constants
        assert (c.a0, c.a1, c.b) == (0.75, 0.25, 2.0)

    def test_hellinger(self):
        c = LossSpec.hellinger2().constants
        assert abs(c.a0 - (math.sqrt(2.0) + 1.0) / 2.0) < 1e-15
        assert abs(c.a1 - (math.sqrt(2.0) - 1.0) / 2.0) < 1e-15
        assert c.a2 == 1.5
        assert c.b is None

    def test_kl(self):
        c = LossSpec.kl(a=0.5).constants
        assert (c.a0, c.a1) == (1.0, 1.0)
        # 1 / (2 (e^-a - 1 + a)) with a = 1/2, to 40 digits 4.6934844987231898...
        assert abs(c.a2 - 4.6934844987231898) < 1e-15
        c2 = LossSpec.kl(a=3.0).constants
        assert abs(c2.a2 - 0.24392777558018420) < 1e-15


class TestTvScore:
    def test_discrete_frozen(self):
        P = DiscreteMeasure([0, 1], [0.9, 0.1])
        Q = DiscreteMeasure([0, 1], [0.1, 0.9])
        t = score(LossSpec.tv(), P, Q)
        assert np.allclose(t(np.array([0.0, 1.0])), [-0.5, 0.5])
        assert t.constant_part == 0.0
        assert t(np.zeros(3)).sum() == -1.5  # a sample favoring P drives T negative

    def test_equal_masses_contribute_constant_only(self):
        P = DiscreteMeasure([0, 1, 2], [0.4, 0.3, 0.3])
        Q = DiscreteMeasure([0, 1, 2], [0.2, 0.3, 0.5])
        t = score(LossSpec.tv(), P, Q)
        # At the tied point the indicators vanish; only the constant remains.
        assert t(np.array([1.0]))[0] == t.constant_part

    def test_gaussian_midpoint_structure(self):
        P, Q = GaussianMeasure(0.0), GaussianMeasure(1.0)
        t = score(LossSpec.tv(), P, Q)
        # Exactly zero: symmetric translation pairs have P(p>q) = Q(q>p).
        assert t.constant_part == 0.0
        vals = t(np.array([-1.0, 0.49, 0.5, 0.51, 2.0]))
        assert np.allclose(vals, [-0.5, -0.5, 0.0, 0.5, 0.5])

    def test_gaussian_mean_bound_is_tight_at_truth(self):
        # E_P[t] = -TV/2 exactly for equal-sd Gaussian pairs.
        P, Q = GaussianMeasure(0.0), GaussianMeasure(1.0)
        t = score(LossSpec.tv(), P, Q)
        mean = expectation(P, t, [0.5])
        assert abs(mean + 0.5 * tv_distance(P, Q)) < 1e-9

    def test_uniform_translation_values(self):
        P, Q = UniformMeasure(0.0), UniformMeasure(0.4)
        t = score(LossSpec.tv(), P, Q)
        assert t.constant_part == 0.0
        # p-only stretch, overlap, q-only stretch.
        vals = t(np.array([0.2, 0.7, 1.2]))
        assert np.allclose(vals, [-0.5, 0.0, 0.5])

    def test_power_translation_constant(self):
        # alpha = 1/2, shifts 0 and 0.25: TV = 0.5 and c = (TV - 1)/2 = -0.25.
        P, Q = PowerMeasure(0.5, 0.0), PowerMeasure(0.5, 0.25)
        t = score(LossSpec.tv(), P, Q)
        assert abs(t.constant_part + 0.25) < 1e-12
        vals = t(np.array([0.1, 0.5, 1.2]))
        assert np.allclose(vals, [-0.75, 0.25, 0.25])
        # Tightness at the truth: E_P[t] = -TV/2.
        mean = sum(
            v * w
            for v, w in [(-0.75, 0.5), (0.25, 0.5)]  # P((0, .25]) = 0.5 under sqrt cdf
        )
        assert abs(mean + 0.25) < 1e-12

    @pytest.mark.parametrize(
        "config",
        [
            {"family": "gaussian-location-grid", "d": 1, "lo": -1.0, "hi": 1.0, "step": 0.02},
            {"family": "translation-grid", "base": "uniform", "lo": 0.0, "hi": 1.0, "step": 0.05},
            {"family": "translation-grid", "base": "cauchy", "lo": -1.0, "hi": 1.0, "step": 0.1},
        ],
        ids=["gaussian", "uniform", "cauchy"],
    )
    def test_translation_grid_build_computes_no_region_probability(self, monkeypatch, config):
        # Equal-shape translation pairs have a zero data-free part by
        # symmetry, so compiling them asks no cdf for a region's mass.
        def no_probability(*args):
            raise AssertionError("a TV region probability was computed")

        monkeypatch.setattr(testfam, "_interval_prob", no_probability)
        engine = PairwiseEngine(LossSpec.tv(), build(config))
        assert not engine.constant_parts.any()

    def test_unequal_sd_gaussian_constant_sums_regions_left_to_right(self):
        # Not a translation pair: 1/2 [P(p>q) - Q(q>p)], each sum started at
        # 0.0 and taken over the sign regions in order, bit for bit.
        P, Q = GaussianMeasure(0.0, 1.0), GaussianMeasure(0.5, 2.0)
        p_gt = q_gt = 0.0
        for a, c, s, _, _ in _tv_sign_regions(P, Q, "general"):
            if s > 0:
                p_gt += _interval_prob(P, a, c)
            elif s < 0:
                q_gt += _interval_prob(Q, a, c)
        assert score(LossSpec.tv(), P, Q).constant_part == 0.5 * (p_gt - q_gt) != 0.0

    @pytest.mark.parametrize(
        "P, Q, x, want",
        [
            (CauchyMeasure(0.0, 1.0), CauchyMeasure(1.0, 1.0), [1e3, 1e4], 0.5),
            (GaussianMeasure(0.0), GaussianMeasure(1.0), [-11.0, -14.0], -0.5),
        ],
        ids=["cauchy-right", "gaussian-left"],
    )
    def test_translation_regions_are_half_lines(self, P, Q, x, want):
        # Past the quadrature window the score keeps its tail region's value.
        t = score(LossSpec.tv(), P, Q)
        assert t(np.array(x)).tolist() == [want, want]

    def test_identical_pair_is_zero(self):
        P = GaussianMeasure(0.3)
        t = score(LossSpec.tv(), P, GaussianMeasure(0.3))
        assert np.all(t(np.linspace(-2, 2, 9)) == 0.0)

    def test_analytic_matches_generic_constants(self):
        # The uniform/Gaussian analytic branches must agree with the generic
        # region finder; compare expectations under a third measure.
        S = GaussianMeasure(0.25)
        P, Q = GaussianMeasure(0.0), GaussianMeasure(1.0)
        t = score(LossSpec.tv(), P, Q)
        mean_exact = expectation(S, t, [0.5])
        # Independent route: 0.5 [S(q>p) - Q(q>p)] - 0.5 [S(p>q) - P(p>q)].
        from scipy.special import ndtr

        s_gt = 1.0 - ndtr((0.5 - 0.25) / 1.0)
        q_gt = 1.0 - ndtr((0.5 - 1.0) / 1.0)
        s_lt = ndtr((0.5 - 0.25) / 1.0)
        p_lt = ndtr((0.5 - 0.0) / 1.0)
        expected = 0.5 * (s_gt - q_gt) - 0.5 * (s_lt - p_lt)
        assert abs(mean_exact - expected) < 1e-9


class TestWassersteinScore:
    def test_point_mass_frozen(self):
        t = score(LossSpec.wasserstein1(), point_mass(0.2), point_mass(0.8))
        assert np.allclose(t(np.array([0.0, 1.0])), [-0.3, 0.3])
        assert abs(t.constant_part - 0.3) < 1e-12

    def test_mean_bound_tight_for_point_masses(self):
        P, Q = point_mass(0.2), point_mass(0.8)
        t = score(LossSpec.wasserstein1(), P, Q)
        w = wasserstein1(P, Q)
        assert abs(t(np.array([0.2]))[0] + 0.5 * w) < 1e-12

    def test_piecewise_linear_slope(self):
        # Slope of t is -sign(F_Q - F_P); here F_Q < F_P on (0.2, 0.8).
        t = score(LossSpec.wasserstein1(), point_mass(0.2), point_mass(0.8))
        x = np.array([0.3, 0.4])
        slope = (t(x)[1] - t(x)[0]) / 0.1
        assert abs(slope - 1.0) < 1e-9

    def test_zero_for_identical(self):
        P = UniformMeasure(0.0, 1.0)
        t = score(LossSpec.wasserstein1(), P, UniformMeasure(0.0, 1.0))
        assert np.all(t(np.linspace(0, 1, 11)) == 0.0)

    def test_antisymmetry_on_histograms(self):
        part = PartitionRef(4, (0.0, 1.0))
        P = HistogramMeasure(part, [2.0, 1.0, 0.6, 0.4])
        Q = HistogramMeasure(part, [0.4, 0.6, 1.0, 2.0])
        t, t_rev = score(LossSpec.wasserstein1(), P, Q), score(LossSpec.wasserstein1(), Q, P)
        x = np.linspace(0.0, 1.0, 33)
        assert np.max(np.abs(t(x) + t_rev(x))) < 1e-12

    def test_mixture_constant_from_exact_component_cdf_integrals(self):
        # Both mixtures' components have exact cdf integrals, so C is exact
        # (301/960) and the mean bound holds to rounding.
        P = MixtureMeasure(UniformMeasure(0.0, 1.0), 0.3, point_mass(0.5))
        Q = MixtureMeasure(PowerMeasure(2.0), 0.2, point_mass(0.25))
        report = check_assumptions_exact(LossSpec.wasserstein1(), [P, Q], [P, Q], tol=1e-12)
        assert report.violations == ()
        assert abs(score(LossSpec.wasserstein1(), P, Q).constant_part - 301 / 960) < 1e-15


class TestLjScore:
    def test_histogram_frozen(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [1.6, 0.4])
        Q = HistogramMeasure(part, [0.4, 1.6])
        t = score(LossSpec.lj(2.0, math.sqrt(2.0)), P, Q)
        assert abs(t(np.array([0.25]))[0] + 1.0 / (2.0 * math.sqrt(2.0))) < 1e-15
        assert t.constant_part == 0.0

    def test_zero_for_identical(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [1.2, 0.8])
        t = score(LossSpec.lj(2.0, math.sqrt(2.0)), P, HistogramMeasure(part, [1.2, 0.8]))
        assert np.all(t(np.array([0.2, 0.7])) == 0.0)

    def test_signed_candidate(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [2.5, -0.5])
        Q = HistogramMeasure(part, [1.0, 1.0])
        t = score(LossSpec.lj(2.0, math.sqrt(2.0)), P, Q)
        vals = t(np.array([0.2, 0.7]))
        assert np.isfinite(vals).all()
        assert vals[0] < 0.0 < vals[1]


    def test_measure_with_atoms_raises(self):
        P = MixtureMeasure(GaussianMeasure(0.0), 0.5, point_mass(0.0))
        with pytest.raises(ConfigError, match="needs Lebesgue densities"):
            score(LossSpec.lj(2.0, 1.0), P, GaussianMeasure(0.0))


class TestLinfScore:
    def test_frozen_two_cells(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [1.6, 0.4])
        Q = HistogramMeasure(part, [0.4, 1.6])
        t = score(LossSpec.linf(2), P, Q)
        assert np.allclose(t(np.array([0.25, 0.75])), [-0.5, 0.5])

    def test_lowest_index_tie_break(self):
        part = PartitionRef(3, (0.0, 1.0))
        P = HistogramMeasure(part, [1.5, 0.9, 0.6])
        Q = HistogramMeasure(part, [0.9, 1.5, 0.6])
        # Cells 0 and 1 tie on |P(I)-Q(I)| = 0.2; the lower index wins, so
        # sign = +1 and t = 0.4 - 1_{cell 0}.
        t = score(LossSpec.linf(3), P, Q)
        assert np.allclose(t(np.array([0.1, 0.5, 0.9])), [-0.6, 0.4, 0.4])


class TestHellingerScore:
    def test_orthogonal_frozen(self):
        P = DiscreteMeasure([0, 1], [1.0, 0.0])
        Q = DiscreteMeasure([0, 1], [0.0, 1.0])
        t = score(LossSpec.hellinger2(), P, Q)
        assert np.allclose(t(np.array([0.0, 1.0])), [-0.5, 0.5])

    def test_oscillation_at_most_one(self):
        P = DiscreteMeasure([0, 1, 2], [0.7, 0.2, 0.1])
        Q = DiscreteMeasure([0, 1, 2], [0.1, 0.1, 0.8])
        vals = score(LossSpec.hellinger2(), P, Q)(np.array([0.0, 1.0, 2.0]))
        assert vals.max() - vals.min() <= 1.0 + 1e-12

    def test_continuous_mean_bound(self):
        P, Q = GaussianMeasure(0.0), GaussianMeasure(1.0)
        t = score(LossSpec.hellinger2(), P, Q)
        consts = LossSpec.hellinger2().constants
        mean = expectation(P, t)
        bound = consts.a0 * 0.0 - consts.a1 * hellinger_sq(P, Q)
        assert mean <= bound + 1e-7


    @pytest.mark.parametrize(
        "P, Q",
        [
            (GaussianMeasure(0.0), GaussianMeasure(0.5)),
            (CauchyMeasure(0.0, 1.0), CauchyMeasure(2.0, 1.0)),
            (UniformMeasure(0.0), UniformMeasure(0.3)),
        ],
        ids=["gaussian", "cauchy", "uniform"],
    )
    def test_translation_constant_is_exactly_zero(self, P, Q):
        # rho(R, Q) = rho(R, P) by reflection about the midpoint.
        t = score(LossSpec.hellinger2(), P, Q)
        assert t.constant_part == 0.0 and score(LossSpec.hellinger2(), Q, P).constant_part == 0.0

    def test_continuous_constant_matches_scipy(self):
        from scipy.integrate import quad

        P, Q = UniformMeasure(0.0), PowerMeasure(2.0, 0.2)

        def gap(x):
            p, q = float(P.pdf(x)), float(Q.pdf(x))
            return math.sqrt(0.5 * (p + q)) * (math.sqrt(q) - math.sqrt(p))

        want = quad(gap, 0.0, 1.2, points=[0.2, 1.0])[0] / (2.0 * math.sqrt(2.0))
        assert abs(score(LossSpec.hellinger2(), P, Q).constant_part - want) < 1e-8

    def test_translation_engine_runs_no_quadrature(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        integrate = testfam.integrate
        monkeypatch.setattr(testfam, "integrate", counted)
        engine = PairwiseEngine(LossSpec.hellinger2(), [GaussianMeasure(0.0), GaussianMeasure(0.5)])
        assert not calls and engine.constant_parts[0, 1] == 0.0


class TestKlScore:
    def test_frozen(self):
        P = DiscreteMeasure([0, 1], [0.6, 0.4])
        Q = DiscreteMeasure([0, 1], [0.4, 0.6])
        t = score(LossSpec.kl(math.log(1.5)), P, Q)
        assert abs(t(np.array([0.0]))[0] + 0.5) < 1e-12

    def test_mean_identity(self):
        # For the KL family the mean bound holds with equality:
        # E_S[t] = (1/(2a)) [KL(S,P) - KL(S,Q)].
        P = DiscreteMeasure([0, 1, 2], [0.5, 0.3, 0.2])
        Q = DiscreteMeasure([0, 1, 2], [0.3, 0.3, 0.4])
        S = DiscreteMeasure([0, 1, 2], [0.25, 0.5, 0.25])
        a = 1.0
        t = score(LossSpec.kl(a), P, Q)
        pts = np.array([0.0, 1.0, 2.0])
        mean = float(np.sum(t(pts) * np.array([0.25, 0.5, 0.25])))
        rhs = (kl_divergence(S, P) - kl_divergence(S, Q)) / (2.0 * a)
        assert abs(mean - rhs) < 1e-13

    def test_ratio_bound_enforced(self):
        P = DiscreteMeasure([0, 1], [0.9, 0.1])
        Q = DiscreteMeasure([0, 1], [0.1, 0.9])
        with pytest.raises(ValueError, match="log-ratio bound violated"):
            score(LossSpec.kl(0.5), P, Q)

    def test_zero_density_rejected(self):
        P = DiscreteMeasure([0, 1], [1.0, 0.0])
        Q = DiscreteMeasure([0, 1], [0.5, 0.5])
        with pytest.raises(ValueError, match="strictly positive"):
            score(LossSpec.kl(2.0), P, Q)


class TestCheckers:
    def small_model(self):
        pts = [0.0, 1.0, 2.0]
        return [
            DiscreteMeasure(pts, [0.5, 0.3, 0.2]),
            DiscreteMeasure(pts, [0.2, 0.3, 0.5]),
            DiscreteMeasure(pts, [0.25, 0.5, 0.25]),
        ]

    @pytest.mark.parametrize(
        "spec",
        [
            LossSpec.tv(),
            LossSpec.hellinger2(),
            LossSpec.kl(a=1.0),
            LossSpec.lj(j=2.0, R=1.0),
            LossSpec.lj(j=3.0, R=1.0),
        ],
    )
    def test_assumption1_passes_on_small_model(self, spec):
        model = self.small_model()
        report = check_assumptions_exact(spec, model, model)
        assert report.passed, report.violations
        assert report.worst_mean_slack <= 1e-12
        assert report.worst_antisymmetry <= 1e-12
        assert report.worst_oscillation <= 1e-12

    def test_assumption2_hellinger_and_kl(self):
        model = self.small_model()
        for spec in [LossSpec.hellinger2(), LossSpec.kl(a=1.0)]:
            report = check_assumptions_exact(spec, model, model)
            assert report.passed, report.violations
            assert report.worst_variance_slack <= 1e-12

    def test_tv_without_a2_skips_variance(self):
        # TV has no variance constant of its own: without a2 the checker
        # still audits (i)-(iii) on every ordered pair and skips (iv).
        model = self.small_model()
        report = check_assumptions_exact(LossSpec.tv(), model, model)
        assert report.passed, report.violations
        assert report.worst_variance_slack is None
        assert report.pairs_checked == len(model) * (len(model) - 1)
        c3 = check_cond3bis(model)
        assert c3.passes
        report = check_assumptions_exact(LossSpec.tv(), model, model, a2=c3.tv_a2)
        assert report.passed
        assert report.worst_variance_slack <= 1e-12

    def test_each_ordered_pair_builds_one_score(self, monkeypatch):
        calls = []

        def counting_score(spec, P, Q):
            calls.append((P, Q))
            return score(spec, P, Q)

        monkeypatch.setattr(testfam, "score", counting_score)
        model = self.small_model()
        check_assumptions_exact(LossSpec.hellinger2(), model, model)
        assert len(calls) == 6

    def test_violation_is_reported(self):
        # An L_j family with R far below the true norm ratio breaks the
        # oscillation bound, and the checker must say so; the variance
        # violations forced by a tiny a2 come after every (i)-(iii) one.
        pts = [0.0, 1.0]
        model = [DiscreteMeasure(pts, [0.9, 0.1]), DiscreteMeasure(pts, [0.1, 0.9])]
        report = check_assumptions_exact(LossSpec.lj(j=2.0, R=0.1), model, model, a2=1e-9)
        assert not report.passed
        kinds = [v.split(" pair ")[0] for v in report.violations]
        assert "variance" in kinds
        first_variance = kinds.index("variance")
        assert set(kinds[first_variance:]) == {"variance"}
        head = report.violations[:first_variance]
        assert head.index("oscillation pair (0,1): 1 + 6.071e+00") < head.index(
            "oscillation pair (1,0): 1 + 6.071e+00"
        )

    def test_assumption1_on_continuous_model(self):
        # Continuous candidates route the mean/variance computation through
        # the exact piecewise-constant path rather than quadrature.
        model = [GaussianMeasure(0.0), GaussianMeasure(1.0)]
        report = check_assumptions_exact(LossSpec.tv(), model, model, tol=1e-9)
        assert report.passed, report.violations

    def test_cond3bis_zero_for_uniform_translations(self):
        model = [UniformMeasure(0.0), UniformMeasure(0.4), UniformMeasure(0.9)]
        rep = check_cond3bis(model)
        assert rep.passes
        assert abs(rep.a2_prime) < 1e-9
        assert abs(rep.tv_a2 - 1.0) < 1e-9

    def test_cond3bis_zero_for_power_translations(self):
        model = [PowerMeasure(0.5, 0.0), PowerMeasure(0.5, 0.3)]
        rep = check_cond3bis(model)
        assert rep.passes
        assert abs(rep.a2_prime) < 1e-9

    @given(p=masses_strategy(4), q=masses_strategy(4), s=masses_strategy(4))
    @settings(max_examples=25, deadline=None)
    def test_families_satisfy_assumptions_random(self, p, q, s):
        pts = [0.0, 1.0, 2.0, 3.0]
        P, Q = DiscreteMeasure(pts, p), DiscreteMeasure(pts, q)
        S = DiscreteMeasure(pts, s)
        amax = float(
            np.max(np.abs(np.log(np.array(p) / np.array(q))))
        )
        specs = [
            LossSpec.tv(),
            LossSpec.hellinger2(),
            LossSpec.lj(j=2.0, R=1.0),
            LossSpec.kl(a=amax + 1e-9) if amax > 0 else None,
        ]
        pvec = np.asarray(pts, dtype=float)
        sm = np.array(s)
        for spec in specs:
            if spec is None:
                continue
            t = score(spec, P, Q)
            t_rev = score(spec, Q, P)
            assert np.max(np.abs(t(pvec) + t_rev(pvec))) < 1e-12
            vals = t(pvec)
            assert vals.max() - vals.min() <= 1.0 + 1e-12
            consts = spec.constants
            mean = float(np.sum(vals * sm))
            bound = consts.a0 * loss(spec, S, P) - consts.a1 * loss(spec, S, Q)
            assert mean <= bound + 1e-12


class TestC1Constant:
    def test_frozen_values(self):
        # c1(1/2, 3/2): denominator 2(1+log4) + 4/3 + 48 log 2 = 39.37699...,
        # giving 0.0063488860.  c1(1, 1): 0.5 / 19.8629436 = 0.0251725026.
        assert abs(c1_constant(0.5, 1.5) - 0.0063488860070) < 1e-12
        assert abs(c1_constant(1.0, 1.0) - 0.0251725026153) < 1e-12

    def test_homogeneous_degree_one(self):
        for lam in [0.5, 2.0, 7.5]:
            assert abs(c1_constant(lam * 0.5, lam * 1.5) - lam * c1_constant(0.5, 1.5)) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError, match="positive"):
            c1_constant(0.0, 1.0)


class TestAtomScoreSafety:
    def test_foreign_point_raises(self):
        t = AtomScore(np.array([0.0, 1.0]), np.array([-0.5, 0.5]), 0.0)
        with pytest.raises(ConfigError, match="outside the score's finite space"):
            t(np.array([0.5]))
