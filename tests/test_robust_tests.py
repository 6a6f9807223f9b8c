"""Tests for the two-point robust tests and their error-bound evaluators.

Frozen values were computed from the bound formulas in a standalone script
before this module existed (noted inline).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairfit.errors import ConfigError
from pairfit.losses import LossSpec
from pairfit.measures import (
    DiscreteMeasure,
    GaussianMeasure,
    HistogramMeasure,
    PartitionRef,
    UniformMeasure,
    hellinger_sq,
    tv_distance,
)
import pairfit.robust_tests as robust_tests
from pairfit.robust_tests import (
    Decision,
    bernstein_bound,
    devroye_lugosi_test,
    hellinger_test_bound,
    hoeffding_bound,
    lj_test_bound,
    run_test,
    variational_bound,
)

SQRT2 = math.sqrt(2.0)


def masses_strategy(size: int):
    return st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=size, max_size=size
    ).map(lambda v: [x / sum(v) for x in v])


def two_point(p0: float) -> DiscreteMeasure:
    return DiscreteMeasure([0.0, 1.0], [p0, 1.0 - p0])


class TestRunTest:
    def test_equal_candidates_tie(self):
        P = two_point(0.6)
        out = run_test(np.array([0.0, 1.0, 0.0]), P, two_point(0.6), LossSpec.tv())
        assert out.decision is Decision.TIE
        assert out.statistic == 0.0

    def test_tv_frozen_example(self):
        # p = (0.9, 0.1), q = (0.1, 0.9), sample (0,0,0): each score value
        # is -1/2 and the data-free part cancels, so the statistic is -3/2.
        out = run_test(
            np.zeros(3), two_point(0.9), two_point(0.1), LossSpec.tv()
        )
        assert out.decision is Decision.CHOOSE_P
        assert abs(out.statistic - (-1.5)) < 1e-12

    def test_tv_statistic_frequency_identity(self):
        # The TV statistic equals
        # (n/2)[freq(q>p) - Q(q>p)] - (n/2)[freq(p>q) - P(p>q)].
        P = DiscreteMeasure([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
        Q = DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        xs = np.array([0.0, 0.0, 2.0, 1.0, 2.0])
        out = run_test(xs, P, Q, LossSpec.tv())
        n = xs.size
        freq_q = np.mean(xs == 2.0)  # {q > p} = {2}
        freq_p = np.mean(xs == 0.0)  # {p > q} = {0}
        expected = (n / 2) * (freq_q - 0.5) - (n / 2) * (freq_p - 0.5)
        assert abs(out.statistic - expected) < 1e-12

    @given(p=masses_strategy(4), q=masses_strategy(4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_decision_antisymmetry_discrete(self, p, q, seed):
        pts = [0.0, 1.0, 2.0, 3.0]
        P = DiscreteMeasure(pts, p)
        Q = DiscreteMeasure(pts, q)
        rng = np.random.default_rng(seed)
        xs = rng.choice(pts, size=13, p=p)
        for spec in [LossSpec.tv(), LossSpec.hellinger2(), LossSpec.kl(a=10.0)]:
            fwd = run_test(xs, P, Q, spec)
            rev = run_test(xs, Q, P, spec)
            assert rev.statistic == -fwd.statistic
            swap = {
                Decision.CHOOSE_P: Decision.CHOOSE_Q,
                Decision.CHOOSE_Q: Decision.CHOOSE_P,
                Decision.TIE: Decision.TIE,
            }
            assert rev.decision is swap[fwd.decision]

    def test_decision_antisymmetry_continuous(self):
        P = GaussianMeasure(0.0, 1.0)
        Q = GaussianMeasure(0.7, 1.0)
        xs = np.array([-0.3, 0.2, 0.9, 1.4, 0.1])
        fwd = run_test(xs, P, Q, LossSpec.tv())
        rev = run_test(xs, Q, P, LossSpec.tv())
        assert rev.statistic == -fwd.statistic
        # Wasserstein-1 lives on [0, 1], so use uniform candidates there.
        U = UniformMeasure(0.1, 0.3)
        V = UniformMeasure(0.45, 0.3)
        ys = np.array([0.15, 0.3, 0.5, 0.62])
        fwd = run_test(ys, U, V, LossSpec.wasserstein1())
        rev = run_test(ys, V, U, LossSpec.wasserstein1())
        assert rev.statistic == -fwd.statistic

    def test_decision_antisymmetry_histograms(self):
        part = PartitionRef(4, (0.0, 1.0))
        P = HistogramMeasure(part, [2.0, 1.0, 0.6, 0.4])
        Q = HistogramMeasure(part, [0.4, 0.6, 1.0, 2.0])
        xs = np.array([0.1, 0.35, 0.6, 0.85, 0.4])
        for spec in [LossSpec.lj(j=2.0, R=math.sqrt(2.0)), LossSpec.linf(D=4)]:
            fwd = run_test(xs, P, Q, spec)
            rev = run_test(xs, Q, P, spec)
            assert rev.statistic == -fwd.statistic

    @given(p=masses_strategy(4), q=masses_strategy(4), seed=st.integers(0, 2**32 - 1))
    # Mirrored masses and one draw at each mirrored point: the likelihoods
    # are exactly equal, yet the sum below reads -5.6e-17.
    @example(
        p=[x / 1.201171875 for x in [0.0625, 0.0625, 1.0, 0.076171875]],
        q=[x / 1.201171875 for x in [0.076171875, 0.0625, 1.0, 0.0625]],
        seed=6,
    )
    @settings(max_examples=25, deadline=None)
    def test_kl_matches_likelihood_ratio(self, p, q, seed):
        # The KL-family decision is the likelihood-ratio rule: choose Q
        # exactly when sum log(q/p)(X_i) > 0 (independently coded here).
        # Within rounding of 0, neither this sum nor the engine's can tell
        # the sign, so there the statistic need only be rounding-sized.
        pts = [0.0, 1.0, 2.0, 3.0]
        rng = np.random.default_rng(seed)
        xs = rng.choice(pts, size=11, p=p)
        log_ratio = {x: math.log(qm / pm) for x, pm, qm in zip(pts, p, q)}
        llr = sum(log_ratio[x] for x in xs)
        bound_a = max(abs(v) for v in log_ratio.values()) + 0.5
        out = run_test(xs, DiscreteMeasure(pts, p), DiscreteMeasure(pts, q), LossSpec.kl(a=bound_a))
        if abs(llr) <= 1e-12:
            assert abs(out.statistic) <= 1e-12
        elif llr > 0:
            assert out.decision is Decision.CHOOSE_Q
        else:
            assert out.decision is Decision.CHOOSE_P

    def test_per_coordinate_candidates(self):
        P = [GaussianMeasure(0.0, 1.0), GaussianMeasure(0.5, 1.0)]
        Q = [GaussianMeasure(1.0, 1.0), GaussianMeasure(1.5, 1.0)]
        xs = np.array([0.1, 0.4])
        fwd = run_test(xs, P, Q, LossSpec.tv())
        rev = run_test(xs, Q, P, LossSpec.tv())
        assert fwd.decision is Decision.CHOOSE_P
        assert rev.statistic == -fwd.statistic

    def test_mixed_candidate_kinds_rejected(self):
        with pytest.raises(ConfigError):
            run_test(
                np.zeros(2),
                GaussianMeasure(0.0, 1.0),
                [GaussianMeasure(0.0, 1.0), GaussianMeasure(1.0, 1.0)],
                LossSpec.tv(),
            )

    def test_outcome_is_frozen(self):
        out = robust_tests.TestOutcome(decision=Decision.TIE, statistic=0.0)
        with pytest.raises(AttributeError):
            out.statistic = 1.0


class TestDevroyeLugosi:
    def test_discrete_disagrees_with_pairwise_test(self):
        # Sample (0,0,0) is P-typical: the pairwise test keeps P while the
        # frequency-comparison statistic |0 - 0.9| - |0 - 0.1| = 0.8 drops it.
        P, Q = two_point(0.9), two_point(0.1)
        xs = np.zeros(3)
        assert run_test(xs, P, Q, LossSpec.tv()).decision is Decision.CHOOSE_P
        out = devroye_lugosi_test(xs, P, Q)
        assert out.decision is Decision.CHOOSE_Q
        assert abs(out.statistic - 0.8) < 1e-12

    def test_equal_candidates_keep_p(self):
        P = two_point(0.6)
        out = devroye_lugosi_test(np.array([0.0, 1.0]), P, two_point(0.6))
        assert out.statistic == 0.0
        assert out.decision is Decision.CHOOSE_P

    def test_degenerate_sample_always_chooses_q(self):
        # All observations land where p = q, so the empirical frequency of
        # {q > p} is 0 and the statistic is Q(q>p) - P(q>p) > 0.
        pts = [0.0, 1.0, 2.0]
        P = DiscreteMeasure(pts, [0.5, 0.2, 0.3])
        Q = DiscreteMeasure(pts, [0.5, 0.4, 0.1])
        out = devroye_lugosi_test(np.zeros(4), P, Q)
        assert out.decision is Decision.CHOOSE_Q
        assert abs(out.statistic - (0.4 - 0.2)) < 1e-12

    def test_gaussian_frozen_case(self):
        # P = N(0,1), Q = N(1/2,1): {q > p} = (1/4, inf) with
        # P(A) = 0.4012936743170763 and Q(A) = 0.5987063256829237; the
        # sample [0.3, 0.2, 1.0] puts frequency 2/3 in A.
        P = GaussianMeasure(0.0, 1.0)
        Q = GaussianMeasure(0.5, 1.0)
        out = devroye_lugosi_test(np.array([0.3, 0.2, 1.0]), P, Q)
        assert out.decision is Decision.CHOOSE_P
        assert abs(out.statistic - (-0.1974126513658474)) < 1e-9

    def test_empty_sample_reads_zero_frequency(self):
        P = GaussianMeasure(0.0, 1.0)
        Q = GaussianMeasure(0.5, 1.0)
        out = devroye_lugosi_test(np.array([]), P, Q)
        assert abs(out.statistic - 0.1974126513658474) < 1e-9

    @pytest.mark.parametrize(
        "sample",
        [[math.nan, 0.9, 0.8], [math.inf, -math.inf], [0.5, -math.inf]],
        ids=["nan", "inf-pair", "-inf"],
    )
    @pytest.mark.parametrize("discrete", [False, True], ids=["gaussian", "discrete"])
    def test_non_finite_sample_is_config_error(self, sample, discrete):
        # Until the shared check, [nan, 0.9, 0.8] chose P and [inf, -inf] Q.
        if discrete:
            P, Q = two_point(0.9), two_point(0.1)
        else:
            P, Q = GaussianMeasure(0.0, 1.0), GaussianMeasure(0.5, 1.0)
        with pytest.raises(ConfigError, match="non-empty array of finite numbers"):
            devroye_lugosi_test(np.array(sample), P, Q)

    def test_two_dimensional_sample_is_config_error(self):
        P, Q = GaussianMeasure(0.0, 1.0), GaussianMeasure(0.5, 1.0)
        with pytest.raises(ConfigError, match=r"one-dimensional, got shape \(2, 2\)"):
            devroye_lugosi_test(np.array([[0.3, 0.2], [1.0, 0.1]]), P, Q)

    def test_discrete_value_off_the_atoms_is_config_error(self):
        # 2.0 is no atom of either candidate on {0, 1}: this chose Q.
        with pytest.raises(ConfigError, match="observation 2.0 is outside the pair's finite space"):
            devroye_lugosi_test(np.array([2.0, 2.0, 2.0]), two_point(0.9), two_point(0.1))

    def test_discrete_value_at_a_zero_mass_atom_is_in_the_space(self):
        # 2.0 is an atom of Q only; p = 0 < q there, so it lands in A.
        P = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        Q = DiscreteMeasure([0.0, 1.0, 2.0], [0.4, 0.4, 0.2])
        out = devroye_lugosi_test(np.array([2.0, 0.0]), P, Q)
        # A = {2}: f = 1/2, Q(A) = 0.2, P(A) = 0.
        assert out.statistic == abs(0.5 - 0.2) - abs(0.5 - 0.0)
        assert out.decision is Decision.CHOOSE_P

    def test_uniform_pair_exact_split(self):
        # U[0,1] vs U[0.5,1.5]: {q > p} = [1, 1.5), untouched by a sample
        # inside [0, 1), so the statistic is Q(A) - P(A) = 0.5 exactly.
        P = UniformMeasure(0.0, width=1.0)
        Q = UniformMeasure(0.5, width=1.0)
        out = devroye_lugosi_test(np.array([0.25, 0.75]), P, Q)
        assert out.decision is Decision.CHOOSE_Q
        assert abs(out.statistic - 0.5) < 1e-12

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ConfigError):
            devroye_lugosi_test(
                np.zeros(2), two_point(0.5), GaussianMeasure(0.0, 1.0)
            )

    def test_agreement_rate_with_pairwise_test_recorded(self):
        # No equality claim between the two tests; this records the
        # agreement rate on random discrete pairs and checks both always
        # produce a decision.
        rng = np.random.default_rng(20260819)
        pts = [0.0, 1.0, 2.0]
        agree = 0
        cases = 40
        for _ in range(cases):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            P = DiscreteMeasure(pts, p)
            Q = DiscreteMeasure(pts, q)
            xs = rng.choice(pts, size=15, p=p)
            ours = run_test(xs, P, Q, LossSpec.tv())
            theirs = devroye_lugosi_test(xs, P, Q)
            assert math.isfinite(ours.statistic) and math.isfinite(theirs.statistic)
            assert theirs.decision in (Decision.CHOOSE_P, Decision.CHOOSE_Q)
            agree += ours.decision is theirs.decision
        assert 0 <= agree <= cases


class TestHoeffdingBound:
    def test_frozen_plugin(self):
        # a1 = 1/2, gamma = 0, aggregate loss 50 at n = 100: exp(-12.5).
        assert abs(hoeffding_bound(0.5, 0.0, 50.0, 100) - 3.726653172078671e-06) < 1e-18

    def test_second_frozen_plugin(self):
        assert abs(hoeffding_bound(0.5, 0.3, 30.0, 60) - 0.025349405522724956) < 1e-14

    def test_no_guarantee_regime(self):
        assert hoeffding_bound(0.5, 1.0, 50.0, 100) == 1.0
        assert hoeffding_bound(0.5, 1.7, 50.0, 100) == 1.0

    def test_vanishing_exponent_near_gamma_one(self):
        assert hoeffding_bound(0.5, 1.0 - 1e-9, 50.0, 100) > 0.999999

    def test_doubling_n_doubles_log_bound(self):
        # Per-coordinate loss fixed at 0.4: aggregate scales with n.
        lo = math.log(hoeffding_bound(0.5, 0.2, 40 * 0.4, 40))
        hi = math.log(hoeffding_bound(0.5, 0.2, 80 * 0.4, 80))
        assert abs(hi - 2.0 * lo) < 1e-12 * abs(lo)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            hoeffding_bound(0.0, 0.2, 10.0, 5)
        with pytest.raises(ConfigError):
            hoeffding_bound(0.5, -0.1, 10.0, 5)
        with pytest.raises(ConfigError):
            hoeffding_bound(0.5, 0.2, 0.0, 5)
        with pytest.raises(ConfigError):
            hoeffding_bound(0.5, 0.2, 10.0, 0)

    @given(
        a1=st.floats(0.05, 1.0),
        gamma=st.floats(0.0, 0.95),
        per=st.floats(0.01, 0.5),
        n=st.integers(1, 300),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_and_monotonicity(self, a1, gamma, per, n):
        value = hoeffding_bound(a1, gamma, per * n, n)
        assert 0.0 < value <= 1.0
        # Decreasing in n at fixed per-coordinate loss, decreasing in the
        # loss itself, increasing in gamma.
        assert hoeffding_bound(a1, gamma, per * 2 * n, 2 * n) <= value + 1e-15
        assert hoeffding_bound(a1, gamma, 1.5 * per * n, n) <= value + 1e-15
        assert hoeffding_bound(a1, min(gamma + 0.04, 0.99), per * n, n) >= value - 1e-15


class TestBernsteinBound:
    def test_frozen_plugin(self):
        assert abs(bernstein_bound(1.5, 0.5, 1.5, 0.25, 40.0) - 0.20045953818931547) < 1e-14

    def test_gamma_zero_reduction(self):
        # gamma = 0 leaves exp(-agg * a1 / (2 (1/3 + a2/a1))).
        value = bernstein_bound(1.5, 0.5, 1.5, 0.0, 40.0)
        hand = math.exp(-40.0 * 0.5 / (2.0 * (1.0 / 3.0 + 3.0)))
        assert abs(value - hand) < 1e-15
        assert abs(value - math.exp(-3.0)) < 1e-15

    def test_no_guarantee_regime(self):
        assert bernstein_bound(1.5, 0.5, 1.5, 1.0, 40.0) == 1.0

    def test_rejects_bad_arguments(self):
        for args in [
            (0.0, 0.5, 1.5, 0.2, 10.0),
            (1.5, 0.0, 1.5, 0.2, 10.0),
            (1.5, 0.5, 0.0, 0.2, 10.0),
            (1.5, 0.5, 1.5, 0.2, 0.0),
            (1.5, 0.5, 1.5, -0.2, 10.0),
        ]:
            with pytest.raises(ConfigError):
                bernstein_bound(*args)

    @given(
        a0=st.floats(0.5, 3.0),
        a1=st.floats(0.05, 0.5),
        a2=st.floats(0.1, 3.0),
        gamma=st.floats(0.0, 0.95),
        agg=st.floats(0.01, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_and_monotonicity(self, a0, a1, a2, gamma, agg):
        value = bernstein_bound(a0, a1, a2, gamma, agg)
        assert 0.0 < value <= 1.0
        assert bernstein_bound(a0, a1, a2, gamma, 2.0 * agg) <= value + 1e-15
        assert bernstein_bound(a0, a1, a2, min(gamma + 0.04, 0.99), agg) >= value - 1e-15


class TestHellingerTestBound:
    def test_worked_mixture_example(self):
        # Two-point realization of the mixture example with angle 0.1:
        # truth (1,0), P = (cos^2 0.2, sin^2 0.2), Q = (cos^2 0.6, sin^2 0.6)
        # give h2(truth,P) = 2 sin^2 0.1, h2(truth,Q) = 2 sin^2 0.3, and
        # gamma = 0.6651642138667551 < 0.666 so the bound applies.
        alpha = 0.1
        truth = two_point(1.0)
        P = two_point(math.cos(2 * alpha) ** 2)
        Q = two_point(math.cos(6 * alpha) ** 2)
        h2_P = hellinger_sq(truth, P)
        h2_Q = hellinger_sq(truth, Q)
        assert abs(h2_P - 2 * math.sin(alpha) ** 2) < 1e-12
        assert abs(h2_Q - 2 * math.sin(3 * alpha) ** 2) < 1e-12
        assert abs(hellinger_sq(P, Q) - 2 * math.sin(2 * alpha) ** 2) < 1e-12
        result = hellinger_test_bound(h2_P, h2_Q, 100)
        assert abs(result["gamma"] - 0.6651642138667551) < 1e-12
        assert result["gamma"] < 0.666
        assert abs(result["bound"] - 0.9755170070303831) < 1e-12

    def test_truth_on_p_gives_gamma_zero(self):
        result = hellinger_test_bound(0.0, 0.3, 40)
        assert result["gamma"] == 0.0
        hand = math.exp(-3 * (SQRT2 - 1) * 40 * 0.3 / (4 * (9 * SQRT2 + 10)))
        assert abs(result["bound"] - hand) < 1e-15
        assert abs(result["bound"] - 0.8487217504091711) < 1e-14

    def test_no_guarantee_returns_none(self):
        result = hellinger_test_bound(0.2, 0.3, 40)
        assert result["bound"] is None
        assert result["gamma"] > 1.0

    def test_rejects_nonpositive_h2_q(self):
        with pytest.raises(ConfigError):
            hellinger_test_bound(0.1, 0.0, 40)
        with pytest.raises(ConfigError):
            hellinger_test_bound(0.1, -0.2, 40)

    @given(
        h2_q=st.floats(0.01, 1.9),
        ratio=st.floats(0.0, 0.17),
        n=st.integers(1, 500),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_bernstein_at_family_constants(self, h2_q, ratio, n):
        # The display is the Bernstein bound with a0 = (sqrt2+1)/2,
        # a1 = (sqrt2-1)/2, a2 = 3/2 at aggregate loss n * h2(truth, Q);
        # both routes are coded independently.
        h2_p = ratio * h2_q
        result = hellinger_test_bound(h2_p, h2_q, n)
        assert result["bound"] is not None
        via_bernstein = bernstein_bound(
            (SQRT2 + 1) / 2, (SQRT2 - 1) / 2, 1.5, result["gamma"], n * h2_q
        )
        assert abs(result["bound"] - via_bernstein) < 1e-12 * via_bernstein

    @given(h2_q=st.floats(0.05, 1.5), n=st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_range_and_monotonicity(self, h2_q, n):
        result = hellinger_test_bound(0.01, h2_q, n)
        if result["bound"] is None:
            return
        assert 0.0 < result["bound"] <= 1.0
        grown = hellinger_test_bound(0.01, h2_q, 2 * n)
        assert grown["bound"] <= result["bound"] + 1e-15
        farther = hellinger_test_bound(0.01, min(h2_q * 1.3, 2.0), n)
        assert farther["bound"] <= result["bound"] + 1e-15


class TestVariationalBound:
    def test_frozen_plugin(self):
        # kappa = 0, b = 1 (TV), loss 1/2, n = 100: exp(-12.5).
        assert abs(variational_bound(0.0, 1.0, 0.5, 100) - 3.726653172078671e-06) < 1e-18

    def test_second_frozen_plugin(self):
        assert abs(variational_bound(0.25, 2.0, 0.4, 90) - 0.6376281516217733) < 1e-14

    def test_no_guarantee_regime(self):
        assert variational_bound(0.5, 1.0, 0.5, 100) == 1.0
        assert variational_bound(0.7, 1.0, 0.5, 100) == 1.0

    def test_kappa_near_half_vanishing_exponent(self):
        assert variational_bound(0.5 - 1e-9, 1.0, 0.5, 100) > 0.999999

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            variational_bound(-0.1, 1.0, 0.5, 10)
        with pytest.raises(ConfigError):
            variational_bound(0.1, 0.0, 0.5, 10)
        with pytest.raises(ConfigError):
            variational_bound(0.1, 1.0, 0.0, 10)
        with pytest.raises(ConfigError):
            variational_bound(0.1, 1.0, 0.5, 0)

    @given(
        kappa=st.floats(0.0, 0.45),
        b=st.floats(0.5, 4.0),
        loss=st.floats(0.01, 1.0),
        n=st.integers(1, 150),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_and_monotonicity(self, kappa, b, loss, n):
        value = variational_bound(kappa, b, loss, n)
        assert 0.0 < value <= 1.0
        assert variational_bound(kappa, b, loss, 2 * n) <= value + 1e-15
        assert variational_bound(kappa, b, 1.5 * loss, n) <= value + 1e-15
        assert variational_bound(min(kappa + 0.02, 0.49), b, loss, n) >= value - 1e-15


class TestLjTestBound:
    def test_frozen_plugins(self):
        assert abs(lj_test_bound(2, 2.0, 0.2, 0.3, 50) - 0.9139311852712282) < 1e-14
        assert abs(lj_test_bound(2, 2.0, 0.2, 0.3, 50, iid=True) - 0.9777512371933363) < 1e-14

    def test_no_guarantee_regime(self):
        assert lj_test_bound(2, 2.0, 1.0, 0.3, 50) == 1.0
        assert lj_test_bound(2, 2.0, 1.0, 0.3, 50, iid=True) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            lj_test_bound(1.0, 2.0, 0.2, 0.3, 50)
        with pytest.raises(ConfigError):
            lj_test_bound(2, 0.0, 0.2, 0.3, 50)
        with pytest.raises(ConfigError):
            lj_test_bound(2, 2.0, 0.2, 0.0, 50)

    @given(
        j=st.floats(1.1, 3.0),
        R=st.floats(0.7, 3.0),
        gamma=st.floats(0.0, 0.95),
        mean=st.floats(0.01, 1.0),
        n=st.integers(1, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_iid_case_quarters_the_exponent(self, j, R, gamma, mean, n):
        general = lj_test_bound(j, R, gamma, mean, n)
        iid = lj_test_bound(j, R, gamma, mean, n, iid=True)
        assert abs(math.log(general) - 4.0 * math.log(iid)) < 1e-12 * max(
            1.0, abs(math.log(general))
        )

    @given(
        R=st.floats(0.7, 3.0),
        gamma=st.floats(0.0, 0.9),
        mean=st.floats(0.01, 1.0),
        n=st.integers(1, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_and_monotonicity(self, R, gamma, mean, n):
        value = lj_test_bound(2.0, R, gamma, mean, n)
        assert 0.0 < value <= 1.0
        assert lj_test_bound(2.0, R, gamma, mean, 2 * n) <= value + 1e-15
        assert lj_test_bound(2.0, R, gamma, 1.5 * mean, n) <= value + 1e-15
        assert lj_test_bound(2.0, R, min(gamma + 0.04, 0.99), mean, n) >= value - 1e-15


class TestMonteCarloSoundness:
    REPS = 2000
    N = 50

    @staticmethod
    def _slack(bound: float) -> float:
        return 3.0 * math.sqrt(bound * (1.0 - bound) / TestMonteCarloSoundness.REPS)

    def _wrong_frequency(self, rng, truth_p1, P, Q) -> float:
        wrong = 0
        for _ in range(self.REPS):
            xs = (rng.random(self.N) < truth_p1).astype(float)
            out = run_test(xs, P, Q, LossSpec.tv())
            wrong += out.decision is Decision.CHOOSE_Q
        return wrong / self.REPS

    def test_truth_on_p(self):
        # Truth = P = (0.7, 0.3) against Q = (0.2, 0.8): gamma = 0 and the
        # aggregate TV loss to Q is n/2.
        P, Q = two_point(0.7), two_point(0.2)
        bound = hoeffding_bound(0.5, 0.0, self.N * tv_distance(P, Q), self.N)
        freq = self._wrong_frequency(np.random.default_rng(1001), 0.3, P, Q)
        assert freq <= bound + self._slack(bound)

    def test_contaminated_truth(self):
        # Truth (0.75, 0.25) is near P = (0.7, 0.3), far from Q = (0.2, 0.8):
        # gamma = (3/2 * 0.05) / (1/2 * 0.55) < 1 keeps the guarantee alive.
        truth = two_point(0.75)
        P, Q = two_point(0.7), two_point(0.2)
        gamma = (1.5 * tv_distance(truth, P)) / (0.5 * tv_distance(truth, Q))
        assert gamma < 1.0
        bound = hoeffding_bound(0.5, gamma, self.N * tv_distance(truth, Q), self.N)
        freq = self._wrong_frequency(np.random.default_rng(1002), 0.25, P, Q)
        assert freq <= bound + self._slack(bound)
