"""Tests for measures, quadrature, and distances.

Expected values below were frozen from hand evaluation of the closed forms
(noted inline) before the implementation existed, so the suite is an
independent oracle rather than a snapshot of its own output.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from pairfit.errors import ConfigError, NumericalError
from pairfit.measures import (
    CauchyMeasure,
    DiscreteMeasure,
    DiscreteRef,
    GaussianMeasure,
    HistogramMeasure,
    MixtureMeasure,
    PartitionRef,
    PowerMeasure,
    UniformMeasure,
    atom_mass_matrix,
    cdf_sign_intervals,
    empirical_measure,
    hellinger_sq,
    integrate,
    kl_divergence,
    lj_distance,
    locate_points,
    measure_from_config,
    philox_rng,
    point_mass,
    sign_change_points,
    tv_distance,
    wasserstein1,
)


def masses_strategy(size: int):
    """Strictly positive probability vectors of the given size."""
    return st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=size, max_size=size
    ).map(lambda v: [x / sum(v) for x in v])


class TestQuadrature:
    def test_polynomial_is_exact(self):
        val, err = integrate(lambda x: 3.0 * x**2, 0.0, 2.0)
        assert abs(val - 8.0) < 1e-12
        assert err < 1e-12

    def test_breakpoints_seed_panels(self):
        # |x - 0.3| has a kink; with the kink as a breakpoint the rule is exact.
        val, _ = integrate(np.abs, -1.0, 1.0, breakpoints=[0.0])
        assert abs(val - 1.0) < 1e-12

    def test_integrable_singularity(self):
        # 0.5 / sqrt(x) integrates to 1 on (0, 1]; endpoint evaluates finite.
        fn = lambda x: np.where(x > 0, 0.5 / np.sqrt(np.where(x > 0, x, 1.0)), 0.0)
        val, err = integrate(fn, 0.0, 1.0)
        assert abs(val - 1.0) < 1e-6
        assert err < 1e-6

    def test_nonfinite_integrand_raises(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericalError, match="non-finite"):
                integrate(lambda x: 1.0 / x, 0.0, 1.0)

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == (0.0, 0.0)

    def test_sign_changes_located(self):
        roots = sign_change_points(np.cos, 0.0, 8.0)
        expected = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
        assert len(roots) == 3
        for r, e in zip(roots, expected):
            assert abs(r - e) < 1e-10


class TestTotalVariation:
    def test_gaussian_closed_form(self):
        # TV(N(m,1), N(m',1)) = P[|Z| <= |dm|/2]; 2*Phi(0.5)-1 = 0.3829249225480262.
        assert abs(tv_distance(GaussianMeasure(0.0), GaussianMeasure(1.0)) - 0.3829249225480262) < 1e-12
        # |dm| = 2: P[|Z| <= 1] = 0.6826894921370859.
        assert abs(tv_distance(GaussianMeasure(0.0), GaussianMeasure(2.0)) - 0.6826894921370859) < 1e-12

    def test_cauchy_closed_form(self):
        # (2/pi) * arctan(|dm|/2); arctan(1) = pi/4 gives exactly 1/2.
        assert abs(tv_distance(CauchyMeasure(0.0), CauchyMeasure(2.0)) - 0.5) < 1e-12

    def test_uniform_and_power_closed_forms(self):
        assert tv_distance(UniformMeasure(0.0), UniformMeasure(0.5)) == 0.5
        assert tv_distance(UniformMeasure(0.0), UniformMeasure(3.0)) == 1.0
        # alpha = 1/2 translation: TV = sqrt(|dtheta|).
        assert abs(tv_distance(PowerMeasure(0.5, 0.0), PowerMeasure(0.5, 0.25)) - 0.5) < 1e-12

    @pytest.mark.parametrize(
        "pair",
        [
            (GaussianMeasure(0.0), GaussianMeasure(1.3)),
            (CauchyMeasure(0.0), CauchyMeasure(0.7)),
            (UniformMeasure(0.0), UniformMeasure(0.3)),
            (PowerMeasure(0.5, 0.0), PowerMeasure(0.5, 0.1)),
        ],
    )
    def test_quadrature_matches_closed_form(self, pair):
        P, Q = pair
        closed = tv_distance(P, Q, method="closed_form")
        quad = tv_distance(P, Q, method="quadrature")
        assert abs(closed - quad) < 1e-6

    def test_power_alpha_above_one_uses_quadrature(self):
        # For alpha > 1 the translated-power closed form is invalid; the
        # correct value for alpha=2, shift 0.5 is 0.75 by direct calculation.
        val = tv_distance(PowerMeasure(2.0, 0.0), PowerMeasure(2.0, 0.5))
        assert abs(val - 0.75) < 1e-6

    def test_gaussian_mean_difference_bound(self):
        # 0.78 * min(1, |dm|/sqrt(2*pi)) <= TV <= min(1, |dm|/sqrt(2*pi)).
        for dm in [0.1, 0.5, 1.0, 2.0, 5.0]:
            tv = tv_distance(GaussianMeasure(0.0), GaussianMeasure(dm))
            cap = min(1.0, dm / math.sqrt(2.0 * math.pi))
            assert 0.78 * cap <= tv <= cap

    def test_discrete_and_histogram(self):
        P = DiscreteMeasure([0.0, 1.0], [0.9, 0.1])
        Q = DiscreteMeasure([0.0, 1.0], [0.1, 0.9])
        assert abs(tv_distance(P, Q) - 0.8) < 1e-15
        part = PartitionRef(2, (0.0, 1.0))
        assert abs(tv_distance(HistogramMeasure(part, [1.6, 0.4]), HistogramMeasure(part, [0.4, 1.6])) - 0.6) < 1e-15

    def test_mixture_contamination_distance(self):
        # Contaminating with a far point mass moves TV by exactly alpha.
        base = GaussianMeasure(0.0)
        mix = MixtureMeasure(base, 0.05, point_mass(8.0))
        assert abs(tv_distance(mix, base) - 0.05) < 1e-7

    @pytest.mark.parametrize(
        "P, alpha",
        [
            (CauchyMeasure(0.0), 1.0),
            (MixtureMeasure(GaussianMeasure(0.0), 0.2, CauchyMeasure(0.0)), 0.2),
        ],
    )
    def test_heavy_tailed_pair_keeps_tail_mass(self, P, alpha):
        # TV(C(0,1), N(0,1)) = (2 Phi(r) - 1) - (2/pi) atan(r), r > 0 the one
        # crossing of the two densities; mixing the Cauchy in with weight
        # alpha scales p - q, and so TV, by alpha.
        r = optimize.brentq(lambda x: stats.norm.pdf(x) - stats.cauchy.pdf(x), 1.0, 3.0, xtol=1e-15)
        ref = alpha * ((2.0 * stats.norm.cdf(r) - 1.0) - (2.0 / math.pi) * math.atan(r))
        assert abs(tv_distance(P, GaussianMeasure(0.0)) - ref) < 1e-6
        assert abs(tv_distance(GaussianMeasure(0.0), P) - ref) < 1e-6

    def test_rejects_non_probability(self):
        part = PartitionRef(2, (0.0, 1.0))
        signed = HistogramMeasure(part, [1.5, -0.5])
        with pytest.raises(ValueError, match="not a probability"):
            tv_distance(signed, HistogramMeasure(part, [1.0, 1.0]))

    def test_closed_form_unavailable_raises(self):
        with pytest.raises(ValueError, match="closed-form"):
            tv_distance(GaussianMeasure(0.0), UniformMeasure(0.0), method="closed_form")

    @given(p=masses_strategy(4), q=masses_strategy(4))
    @settings(max_examples=50, deadline=None)
    def test_metric_properties_discrete(self, p, q):
        pts = [0.0, 1.0, 2.0, 3.0]
        P, Q = DiscreteMeasure(pts, p), DiscreteMeasure(pts, q)
        assert abs(tv_distance(P, Q) - tv_distance(Q, P)) < 1e-15
        assert 0.0 <= tv_distance(P, Q) <= 1.0
        assert tv_distance(P, P) == 0.0


class TestHellingerAndKL:
    def test_gaussian_hellinger_closed_form(self):
        # 1 - exp(-dm^2 / 8); dm = 1 gives 0.11750309741540454.
        assert abs(hellinger_sq(GaussianMeasure(0.0), GaussianMeasure(1.0)) - 0.11750309741540454) < 1e-12
        dm = 2.0 * math.sqrt(2.0)
        assert abs(hellinger_sq(GaussianMeasure(0.0), GaussianMeasure(dm)) - (1.0 - math.exp(-1.0))) < 1e-12

    def test_gaussian_hellinger_quadrature(self):
        closed = hellinger_sq(GaussianMeasure(0.0), GaussianMeasure(1.0))
        quad = hellinger_sq(GaussianMeasure(0.0), GaussianMeasure(1.0), method="quadrature")
        assert abs(closed - quad) < 1e-8

    def test_discrete_hellinger_orthogonal(self):
        P = DiscreteMeasure([0.0, 1.0], [1.0, 0.0])
        Q = DiscreteMeasure([0.0, 1.0], [0.0, 1.0])
        assert hellinger_sq(P, Q) == 1.0

    def test_kl_discrete_frozen(self):
        # 0.8 * log 9 = 1.7577796618689758.
        P = DiscreteMeasure([0.0, 1.0], [0.1, 0.9])
        Q = DiscreteMeasure([0.0, 1.0], [0.9, 0.1])
        assert abs(kl_divergence(P, Q) - 0.8 * math.log(9.0)) < 1e-12

    def test_kl_conventions(self):
        P = DiscreteMeasure([0.0, 1.0], [1.0, 0.0])
        Q = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        assert abs(kl_divergence(P, Q) - math.log(2.0)) < 1e-12
        assert kl_divergence(Q, P) == math.inf

    def test_kl_uniform_supports(self):
        assert abs(kl_divergence(UniformMeasure(0.0, 1.0), UniformMeasure(0.0, 2.0)) - math.log(2.0)) < 1e-8
        assert kl_divergence(UniformMeasure(0.0, 2.0), UniformMeasure(0.0, 1.0)) == math.inf

    def test_kl_gaussian(self):
        assert abs(kl_divergence(GaussianMeasure(0.0), GaussianMeasure(1.0)) - 0.5) < 1e-12
        quad = kl_divergence(GaussianMeasure(0.0), GaussianMeasure(1.0), method="quadrature")
        assert abs(quad - 0.5) < 1e-7

    @given(p=masses_strategy(5), q=masses_strategy(5))
    @settings(max_examples=50, deadline=None)
    def test_distance_inequality_chain(self, p, q):
        # h^2 <= TV <= sqrt(2) * h and KL >= 2 h^2 on strictly positive vectors.
        pts = list(range(5))
        P, Q = DiscreteMeasure(pts, p), DiscreteMeasure(pts, q)
        h2 = hellinger_sq(P, Q)
        tv = tv_distance(P, Q)
        kl = kl_divergence(P, Q)
        assert h2 <= tv + 1e-12
        assert tv <= math.sqrt(2.0 * h2) + 1e-12
        assert kl >= 2.0 * h2 - 1e-12


class TestWasserstein:
    def test_uniform_vs_point_mass(self):
        # Exact value 1/4: integral of |x - 1/2|'s cdf gap over [0, 1].
        assert abs(wasserstein1(UniformMeasure(0.0, 1.0), point_mass(0.5)) - 0.25) < 1e-15

    def test_point_mass_pair(self):
        assert abs(wasserstein1(point_mass(0.2), point_mass(0.8)) - 0.6) < 1e-15

    def test_power_shape_closed_form(self):
        # W(x^a, x^b on [0,1]) = |1/(a+1) - 1/(b+1)|.
        val = wasserstein1(PowerMeasure(1.0), PowerMeasure(2.0))
        assert abs(val - (0.5 - 1.0 / 3.0)) < 1e-12
        quad = wasserstein1(PowerMeasure(0.7), PowerMeasure(2.5), method="quadrature")
        assert abs(quad - abs(1.0 / 1.7 - 1.0 / 3.5)) < 1e-8

    def test_histogram_pair_exact(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [2.0, 0.0])
        Q = HistogramMeasure(part, [0.0, 2.0])
        # F_P - F_Q is the tent map peaking at 1/2; integral = 1/2.
        assert abs(wasserstein1(P, Q) - 0.5) < 1e-15

    def test_returns_python_float_on_every_path(self):
        H = HistogramMeasure(PartitionRef(2, (0.0, 1.0)), [0.5, 1.5])
        for P, Q in [
            (H, H),  # knotted cdfs, exact
            (PowerMeasure(1.0), PowerMeasure(2.0)),  # closed form
            (PowerMeasure(0.7), H),  # quadrature
        ]:
            assert type(wasserstein1(P, Q)) is float
        assert repr(wasserstein1(H, H)) == "0.0"

    def test_requires_unit_interval(self):
        with pytest.raises(ValueError, match="support inside"):
            wasserstein1(GaussianMeasure(0.0), UniformMeasure(0.0, 1.0))


class TestLjDistance:
    def test_histogram_frozen(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [1.6, 0.4])
        Q = HistogramMeasure(part, [0.4, 1.6])
        assert abs(lj_distance(P, Q, 2.0) - 1.2) < 1e-12
        assert abs(lj_distance(P, Q, math.inf) - 1.2) < 1e-12

    def test_signed_candidates_allowed(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [2.5, -0.5])
        Q = HistogramMeasure(part, [1.0, 1.0])
        assert abs(lj_distance(P, Q, 2.0) - 1.5) < 1e-12

    def test_discrete_reference_weights(self):
        ref = DiscreteRef(points=(0.0, 1.0), weights=(0.5, 2.0))
        P = DiscreteMeasure([0.0, 1.0], [0.5, 0.5], ref=ref)
        Q = DiscreteMeasure([0.0, 1.0], [0.25, 0.75], ref=ref)
        # densities: (1.0, 0.25) vs (0.5, 0.375); diffs (0.5, 0.125).
        expect = (0.5**2 * 0.5 + 0.125**2 * 2.0) ** 0.5
        assert abs(lj_distance(P, Q, 2.0) - expect) < 1e-12

    def test_reference_mismatch_raises(self):
        P = HistogramMeasure(PartitionRef(2, (0.0, 1.0)), [1.0, 1.0])
        Q = HistogramMeasure(PartitionRef(4, (0.0, 1.0)), [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="shared reference"):
            lj_distance(P, Q, 2.0)

    def test_j_must_exceed_one(self):
        P = HistogramMeasure(PartitionRef(2, (0.0, 1.0)), [1.0, 1.0])
        with pytest.raises(ValueError, match="j in"):
            lj_distance(P, P, 1.0)


class TestSamplingAndEmpirical:
    def test_empirical_measure_merges_duplicates(self):
        m = empirical_measure([1.0, 2.0, 2.0, 5.0])
        assert m.atoms() == ((1.0, 0.25), (2.0, 0.5), (5.0, 0.25))

    def test_philox_streams_are_independent(self):
        a = philox_rng(5, 0).random(8)
        b = philox_rng(5, 1).random(8)
        assert not np.array_equal(a, b)

    def test_philox_wraps_negative_seed(self):
        # Seeds are taken mod 2^64, so -1 keys the stream of 2^64 - 1.
        assert np.array_equal(philox_rng(-1).random(4), philox_rng(2**64 - 1).random(4))
        assert np.array_equal(philox_rng(-3, 2).random(4), philox_rng(2**64 - 3, 2).random(4))

    def test_signed_measures_refuse_to_sample(self):
        signed = [
            HistogramMeasure(PartitionRef(2, (0.0, 1.0)), [-0.5, 2.5]),
            DiscreteMeasure([0.0, 1.0], [-0.5, 1.5]),
        ]
        for m in signed:
            with pytest.raises(ConfigError, match="cannot sample from a signed"):
                m.sample(4, philox_rng(0))

    def test_mixture_alpha_zero_matches_base(self):
        base = GaussianMeasure(0.0)
        clean = MixtureMeasure(base, 0.0, point_mass(8.0))
        dirty = MixtureMeasure(base, 0.1, point_mass(8.0))
        x0 = clean.sample(64, philox_rng(3))
        x1 = dirty.sample(64, philox_rng(3))
        # Same underlying draws; contamination only overwrites masked slots.
        assert np.all((x0 == x1) | (x1 == 8.0))
        assert np.any(x1 == 8.0)

    @pytest.mark.parametrize(
        "m",
        [
            GaussianMeasure(0.3, 1.2),
            CauchyMeasure(-0.5, 0.8),
            UniformMeasure(2.0, 3.0),
            PowerMeasure(0.6, 0.0),
            PowerMeasure(2.0, 1.0),
            HistogramMeasure(PartitionRef(4, (0.0, 1.0)), [0.4, 1.2, 2.0, 0.4]),
        ],
    )
    def test_sampler_ks_self_test(self, m):
        x = m.sample(4000, philox_rng(2024))
        res = stats.kstest(x, lambda t: np.asarray(m.cdf(t), dtype=float))
        assert res.pvalue > 1e-3

    def test_discrete_sampler_frequencies(self):
        m = DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        x = m.sample(20000, philox_rng(7))
        freq = np.array([(x == v).mean() for v in [0.0, 1.0, 2.0]])
        assert np.abs(freq - [0.2, 0.3, 0.5]).max() < 0.02


class TestCdfMachinery:
    @pytest.mark.parametrize(
        "m",
        [
            GaussianMeasure(0.2, 0.9),
            CauchyMeasure(0.1, 1.1),
            UniformMeasure(0.0, 1.0),
            PowerMeasure(0.7, 0.0),
            HistogramMeasure(PartitionRef(3, (0.0, 1.0)), [0.6, 1.8, 0.6]),
            DiscreteMeasure([0.1, 0.4, 0.9], [0.3, 0.3, 0.4]),
        ],
    )
    def test_cdf_integral_matches_quadrature(self, m):
        # Simpson endpoint evaluations at cdf jumps cost ~1e-7, hence the
        # looser budget; the closed forms themselves are exact.
        a, b = -0.5, 1.5
        exact = m.cdf_integral(a, b)
        val, _ = integrate(lambda x: np.asarray(m.cdf(x), dtype=float), a, b, m.breakpoints())
        assert abs(exact - val) < 1e-6

    def test_sign_intervals_point_masses(self):
        ivals = cdf_sign_intervals(point_mass(0.2), point_mass(0.8))
        assert ivals == [(0.0, 0.2, 0.0), (0.2, 0.8, -1.0), (0.8, 1.0, 0.0)]

    def test_sign_intervals_histograms(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [2.0, 0.0])
        Q = HistogramMeasure(part, [0.0, 2.0])
        ivals = cdf_sign_intervals(P, Q)
        signs = [s for (_, _, s) in ivals if s != 0.0]
        assert signs == [-1.0]

    def test_partition_locate_conventions(self):
        part = PartitionRef(4, (0.0, 1.0))
        idx = part.locate(np.array([-0.1, 0.0, 0.25, 0.999, 1.0, 1.1]))
        assert idx.tolist() == [-1, 0, 1, 3, 3, -1]


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "m",
        [
            GaussianMeasure(1.0, 2.0),
            CauchyMeasure(0.0, 0.5),
            UniformMeasure(-1.0, 2.0),
            PowerMeasure(0.5, 0.25),
            HistogramMeasure(PartitionRef(2, (0.0, 2.0)), [1.5, 0.5]),
            DiscreteMeasure([0.0, 3.0], [0.4, 0.6]),
            MixtureMeasure(GaussianMeasure(0.0), 0.1, point_mass(8.0)),
        ],
    )
    def test_round_trip(self, m):
        rebuilt = measure_from_config(m.to_config())
        assert type(rebuilt) is type(m)
        x = np.linspace(-2.0, 3.0, 50)
        assert np.allclose(m.pdf(x), rebuilt.pdf(x))
        assert m.atoms() == rebuilt.atoms()

    def test_unknown_family_raises(self):
        with pytest.raises(ConfigError, match="unknown measure family"):
            measure_from_config({"family": "beta", "params": {}})

    def test_missing_parameter_raises(self):
        with pytest.raises(ConfigError, match="missing parameter"):
            measure_from_config({"family": "gaussian", "params": {}})

    def test_bad_parameters_raise(self):
        with pytest.raises(ConfigError, match="positive"):
            GaussianMeasure(0.0, sd=-1.0)
        with pytest.raises(ConfigError, match="weight per point"):
            DiscreteRef(points=(0.0, 1.0), weights=(1.0,))


@st.composite
def atomic_measures(draw):
    """Signed discrete measures on subsets of a small grid, zero masses included."""
    pts = draw(
        st.lists(
            st.sampled_from([-2.0, -0.5, 0.0, 1.0, 1.5, 3.0, 7.25]),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    mass = st.just(0.0) | st.floats(-1.0, 1.0, allow_nan=False)
    return DiscreteMeasure(pts, draw(st.lists(mass, min_size=len(pts), max_size=len(pts))))


class TestFiniteSpace:
    @staticmethod
    def dict_alignment(measures):
        pts = sorted({p for m in measures for p, _ in m.atoms()})
        tables = [{p: w for p, w in m.atoms()} for m in measures]
        rows = [[t.get(p, 0.0) for p in pts] for t in tables]
        return np.asarray(pts, dtype=float), np.array(rows, dtype=float).reshape(len(measures), len(pts))

    @given(measures=st.lists(atomic_measures() | st.just(GaussianMeasure(0.0)), min_size=1, max_size=4))
    @example(measures=[DiscreteMeasure([0.0, 1.0], [0.5, 0.5]), DiscreteMeasure([2.0, 3.0], [0.0, 1.0])])
    @example(measures=[GaussianMeasure(0.0)])
    @settings(max_examples=200, deadline=None)
    def test_alignment_matches_dict_construction(self, measures):
        pts, masses = atom_mass_matrix(*measures)
        ref_pts, ref_masses = self.dict_alignment(measures)
        assert pts.tobytes() == ref_pts.tobytes()
        assert masses.shape == ref_masses.shape
        assert masses.tobytes() == ref_masses.tobytes()

    def test_locate_points(self):
        pts = np.array([0.0, 1.5, 3.0])
        assert locate_points(pts, np.array([3.0, 0.0, 1.5, 0.0]), "the space").tolist() == [2, 0, 1, 0]
        for foreign in (-1.0, 1.0, 4.0):
            with pytest.raises(ConfigError, match=f"observation {foreign!r} is outside the space"):
                locate_points(pts, np.array([0.0, foreign]), "the space")
        with pytest.raises(ConfigError, match="outside the discrete space"):
            DiscreteRef((0.0, 1.0), (1.0, 1.0)).locate(np.array([0.5]))
