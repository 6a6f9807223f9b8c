"""Tests for the helpers that own one pairwise numerical decision each.

* ``measures.integrate`` owns the quadrature accuracy budget: every
  quadrature consumer raises through it.
* ``measures.pair_kind`` owns a pair's kind (purely atomic, one partition,
  a matched translation family or general), which every exact path keys on.
* ``testfam._tv_sign_regions`` owns the TV sign regions of a pair without
  atoms, and refuses a pair with atoms; the TV score, ``check_cond3bis``
  and the frequency-comparison test each keep their own probability sums
  over them.
* ``measures._log_ratio_bound`` owns the KL family log-ratio bound.
* ``measures._cdf_gap_pieces`` owns the linear pieces of ``F_P - F_Q``.

The per-consumer oracles below repeat each consumer's arithmetic from
before the helpers were shared, so the properties check that sharing a
helper changed no returned bit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairfit.measures as measures
from pairfit.errors import ConfigError, NumericalError
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
    cdf_sign_intervals,
    expectation,
    hellinger_sq,
    kl_divergence,
    lj_distance,
    pair_kind,
    sign_change_points,
    tv_distance,
    wasserstein1,
)
from pairfit.robust_tests import _q_dominates_split
from pairfit.testfam import (
    _interval_prob,
    _probe_points,
    _tv_sign_regions,
    check_assumptions_exact,
    check_cond3bis,
    score,
)

# ---------------------------------------------------------------------------
# Quadrature accuracy budget
# ---------------------------------------------------------------------------

_G0, _G1 = GaussianMeasure(0.0, 1.0), GaussianMeasure(0.7, 1.3)
_QUADRATURE_CONSUMERS = {
    "cdf_integral": lambda: MixtureMeasure(_G0, 0.3, _G1).cdf_integral(-1.0, 2.0),
    "expectation": lambda: expectation(_G0, lambda x: x * x),
    "tv_distance": lambda: tv_distance(_G0, _G1),
    "hellinger_sq": lambda: hellinger_sq(_G0, _G1),
    "kl_divergence": lambda: kl_divergence(_G0, _G1),
    "wasserstein1": lambda: wasserstein1(PowerMeasure(2.0), UniformMeasure(0.0)),
    "lj_distance": lambda: lj_distance(_G0, _G1, 2.0),
    "lj_score": lambda: score(LossSpec.lj(2.0, 1.0), _G0, _G1),
    "hellinger_score": lambda: score(LossSpec.hellinger2(), _G0, _G1),
}


class TestQuadratureBudget:
    @pytest.mark.parametrize("name", sorted(_QUADRATURE_CONSUMERS))
    def test_consumer_raises_over_the_budget(self, name, monkeypatch):
        monkeypatch.setattr(measures, "_QUAD_ERR_BUDGET", 1e-30)
        with pytest.raises(NumericalError, match="quadrature error estimate"):
            _QUADRATURE_CONSUMERS[name]()


# ---------------------------------------------------------------------------
# KL family log-ratio bound
# ---------------------------------------------------------------------------


class TestKlRatioBound:
    def test_cauchy_peak_between_probe_points_is_found(self):
        # |log(q/p)| for C(0,1) against C(0.7,1) peaks at 0.686443 (a 4M-point
        # scan agrees to 1e-7); a fixed 4096-point grid saw only 0.589.
        P, Q = CauchyMeasure(0.0, 1.0), CauchyMeasure(0.7, 1.0)
        assert measures._log_ratio_bound([P, Q]) == pytest.approx(0.6864431, abs=1e-6)
        with pytest.raises(ConfigError, match="reaches 0.686443"):
            score(LossSpec.kl(0.6), P, Q)
        assert score(LossSpec.kl(0.7), P, Q).constant_part == 0.0

    def test_gaussian_peak_at_the_window_end(self):
        # log(p/q) is linear, so the peak sits at the window end: 0.5 * 12.25 = 6.125.
        P, Q = GaussianMeasure(0.0, 1.0), GaussianMeasure(0.5, 1.0)
        assert measures._log_ratio_bound([P, Q]) == pytest.approx(6.125, rel=1e-12)
        score(LossSpec.kl(6.125), P, Q)
        with pytest.raises(ConfigError, match="log-ratio bound violated"):
            score(LossSpec.kl(6.1), P, Q)

    def test_support_gap_between_grid_points_has_no_bound(self):
        # Q vanishes on cell 5 of 5000, [0.001, 0.0012), which no point of a
        # 4096-point grid on [0, 1] falls in; KL(P || Q) is infinite.
        part = PartitionRef(5000, (0.0, 1.0))
        heights = np.ones(5000)
        heights[5] = 0.0
        P, Q = HistogramMeasure(part, np.ones(5000)), HistogramMeasure(part, heights * 5000 / heights.sum())
        assert measures._log_ratio_bound([P, Q]) is None
        with pytest.raises(ConfigError, match="common support"):
            score(LossSpec.kl(1.0), P, Q)

    def test_power_shapes_at_one_shift_have_no_bound(self):
        # log(p/q) = log(2.6901/2.6297) + 0.0604 log x diverges as x -> 0,
        # where both pdfs read 0; a probe-grid bound was 1.10768.
        P, Q = PowerMeasure(2.6901), PowerMeasure(2.6297)
        assert measures._log_ratio_bound([P, Q]) is None
        with pytest.raises(ConfigError, match="common support"):
            score(LossSpec.kl(2.0), P, Q)
        # One alpha at two shifts: the supports differ.  One alpha at one
        # shift: the ratio is 1.
        assert measures._log_ratio_bound([P, PowerMeasure(2.6901, 0.5)]) is None
        assert measures._log_ratio_bound([P, PowerMeasure(2.6901)]) == 0.0


# ---------------------------------------------------------------------------
# TV sign regions and their three consumers
# ---------------------------------------------------------------------------


def probed_regions(P, Q):
    """The probing fallback as the consumers wrote it before sharing it."""
    lo1, hi1 = P.window()
    lo2, hi2 = Q.window()
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    brk = sorted(set(P.breakpoints()) | set(Q.breakpoints()))
    diff = lambda x: P.pdf(x) - Q.pdf(x)
    cuts = sorted({lo, hi} | {b for b in brk if lo < b < hi} | set(sign_change_points(diff, lo, hi, brk)))
    edges = np.array(cuts)
    vals = diff(0.5 * (edges[:-1] + edges[1:]))
    out = []
    for a, c, v in zip(edges[:-1], edges[1:], vals):
        s = 0.0 if v == 0.0 else math.copysign(1.0, v)
        if out and s != 0.0 and out[-1][2] == s:
            out[-1] = (out[-1][0], float(c), s)
        else:
            out.append((float(a), float(c), s))
    return [(a, c, s, a, c) for (a, c, s) in out]


def tv_score_oracle(P, Q, regions):
    comps = []
    prob_p_gt = 0.0
    prob_q_gt = 0.0
    for a, c, s, ea, ec in regions:
        if s > 0:
            comps.append((ea, ec, -0.5, 0.0))
            prob_p_gt += _interval_prob(P, a, c)
        elif s < 0:
            comps.append((ea, ec, 0.5, 0.0))
            prob_q_gt += _interval_prob(Q, a, c)
    translation = pair_kind(P, Q) in ("gaussian", "cauchy", "uniform")
    const = 0.0 if translation else 0.5 * (prob_p_gt - prob_q_gt)
    return const, comps


def cond3bis_oracle(P, Q, regions_pq, regions_qp):
    worst = 0.0
    for (A, B, regions) in ((P, Q, regions_pq), (Q, P, regions_qp)):
        tv = tv_distance(A, B)
        if tv == 0.0:
            continue
        p_gt = sum(_interval_prob(A, a, c) for a, c, s, _, _ in regions if s > 0)
        q_gt = sum(_interval_prob(B, a, c) for a, c, s, _, _ in regions if s > 0)
        worst = max(worst, min(1.0 - p_gt, q_gt) / tv)
    return worst


def split_oracle(P, Q, regions):
    negative = [(a, c, ea, ec) for (a, c, s, ea, ec) in regions if s < 0]
    prob_p = float(sum(_interval_prob(P, a, c) for a, c, _, _ in negative))
    prob_q = float(sum(_interval_prob(Q, a, c) for a, c, _, _ in negative))
    return negative, prob_p, prob_q


@st.composite
def continuous_pairs(draw):
    """Matched translation pairs (exact regions) and mismatched ones (probed)."""
    kind = draw(st.sampled_from(["gaussian", "cauchy", "uniform", "power", "power-shape"]))
    matched = draw(st.booleans())
    loc = st.floats(min_value=-2.0, max_value=2.0)
    scale = st.floats(min_value=0.5, max_value=2.0)
    if kind == "gaussian":
        s1 = draw(scale)
        return GaussianMeasure(draw(loc), s1), GaussianMeasure(draw(loc), s1 if matched else draw(scale))
    if kind == "cauchy":
        # Mismatched Cauchy pairs have 5000-scale windows; keep them matched.
        s1 = draw(scale)
        return CauchyMeasure(draw(loc), s1), CauchyMeasure(draw(loc), s1)
    if kind == "uniform":
        w1 = draw(scale)
        return UniformMeasure(draw(loc), w1), UniformMeasure(draw(loc), w1 if matched else draw(scale))
    alpha = st.floats(min_value=0.3, max_value=3.0).filter(lambda a: a != 1.0)
    if kind == "power":
        a = draw(alpha)
        return PowerMeasure(a, draw(loc)), PowerMeasure(a, draw(loc))
    # Shape pairs with a singular density would make tv_distance slow.
    bounded = st.floats(min_value=1.0, max_value=3.0)
    return PowerMeasure(draw(bounded)), PowerMeasure(draw(bounded))


def expected_regions(P, Q):
    """Probed regions for mismatched pairs; exact ones are checked by sign."""
    kind = pair_kind(P, Q)
    regions = _tv_sign_regions(P, Q, kind)
    if kind == "general":
        assert regions == probed_regions(P, Q)
    return regions


class TestTvSignRegions:
    @given(continuous_pairs())
    # Nearly equal widths: p - q reads 0 at the midpoints of some probed
    # regions, and a merge of two of them would not.
    @example((GaussianMeasure(0.0, 0.5000000000000001), GaussianMeasure(0.0, 0.5)))
    @settings(max_examples=60, deadline=None)
    def test_regions_carry_the_sign_of_p_minus_q(self, pair):
        P, Q = pair
        for lo, hi, s, _, _ in expected_regions(P, Q):
            mid = np.array([0.5 * (lo + hi)])
            gap = float(P.pdf(mid)[0] - Q.pdf(mid)[0])
            # Exact regions of nearly equal measures may round to a zero gap.
            if gap != 0.0:
                assert s == math.copysign(1.0, gap)

    @given(continuous_pairs())
    @settings(max_examples=60, deadline=None)
    def test_tv_score_matches_its_oracle(self, pair):
        P, Q = pair
        const, comps = tv_score_oracle(P, Q, expected_regions(P, Q))
        t = score(LossSpec.tv(), P, Q)
        assert t.base == const and t.constant_part == const
        assert t.components == tuple(comps)

    @given(continuous_pairs())
    @settings(max_examples=40, deadline=None)
    def test_cond3bis_matches_its_oracle(self, pair):
        P, Q = pair
        expected = cond3bis_oracle(P, Q, expected_regions(P, Q), expected_regions(Q, P))
        assert check_cond3bis([P, Q]).a2_prime == expected

    @given(continuous_pairs(), st.lists(st.floats(min_value=-3.0, max_value=4.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_frequency_split_matches_its_oracle(self, pair, xs):
        P, Q = pair
        negative, prob_p, prob_q = split_oracle(P, Q, expected_regions(P, Q))
        member, got_p, got_q = _q_dominates_split(P, Q)
        assert (got_p, got_q) == (prob_p, prob_q)
        xs = np.asarray(xs)
        inside = np.zeros(xs.shape, dtype=bool)
        for _, _, ea, ec in negative:
            inside |= (xs >= ea) & (xs < ec)
        assert np.array_equal(member(xs), inside)


_PAIRS_WITH_ATOMS = {
    "mixture-with-atom": (MixtureMeasure(GaussianMeasure(0.0), 0.5, DiscreteMeasure([0.0], [1.0])), GaussianMeasure(0.0)),
    "discrete-against-gaussian": (DiscreteMeasure([0.0, 1.0], [0.5, 0.5]), GaussianMeasure(0.5)),
}
_TV_REGION_CONSUMERS = {
    "tv-score": lambda P, Q: score(LossSpec.tv(), P, Q),
    "cond3bis": lambda P, Q: check_cond3bis([P, Q]),
    "frequency-split": _q_dominates_split,
    "assumption-check": lambda P, Q: check_assumptions_exact(LossSpec.tv(), [P, Q], [P, Q]),
}


class TestTvSignRegionsRefuseAtoms:
    @pytest.mark.parametrize("swap", [False, True], ids=["atoms-first", "atoms-second"])
    @pytest.mark.parametrize("pair", sorted(_PAIRS_WITH_ATOMS))
    @pytest.mark.parametrize("consumer", sorted(_TV_REGION_CONSUMERS))
    def test_a_pair_with_atoms_is_refused(self, consumer, pair, swap):
        # p - q sees no atom, so its regions miss every atom's mass: the
        # mixture pair's TV score was 0 everywhere, although TV(P, Q) = 1/2.
        P, Q = _PAIRS_WITH_ATOMS[pair]
        if swap:
            P, Q = Q, P
        with pytest.raises(ConfigError, match="TV sign regions miss atoms"):
            _TV_REGION_CONSUMERS[consumer](P, Q)


# ---------------------------------------------------------------------------
# Linear cdf-gap pieces and their two consumers
# ---------------------------------------------------------------------------


def abs_cdf_diff_oracle(P, Q):
    """``∫ |F_P - F_Q|`` as ``wasserstein1`` computed it before sharing the pieces."""
    knots = sorted({0.0, 1.0} | set(P.cdf_knots()) | set(Q.cdf_knots()))
    knots = [k for k in knots if -1e-12 <= k <= 1.0 + 1e-12]
    edges = np.unique(np.clip(np.array(knots), 0.0, 1.0))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        w = b - a
        u1, u2 = a + w / 3.0, a + 2.0 * w / 3.0
        g1 = float(P.cdf(np.array([u1]))[0] - Q.cdf(np.array([u1]))[0])
        g2 = float(P.cdf(np.array([u2]))[0] - Q.cdf(np.array([u2]))[0])
        slope = (g2 - g1) / (u2 - u1) if u2 > u1 else 0.0  # flat on an ulp-wide piece
        ga, gb = g1 + slope * (a - u1), g1 + slope * (b - u1)
        if ga * gb >= 0.0:
            total += 0.5 * abs(ga + gb) * w
        else:
            r = a + w * abs(ga) / (abs(ga) + abs(gb))
            total += 0.5 * (abs(ga) * (r - a) + abs(gb) * (b - r))
    return total


def sign_intervals_oracle(P, Q):
    """``cdf_sign_intervals`` on knotted cdfs before sharing the pieces."""
    diff = lambda x: np.asarray(Q.cdf(x), dtype=float) - np.asarray(P.cdf(x), dtype=float)
    cuts = {0.0, 1.0}
    knots = sorted({float(k) for k in (*P.cdf_knots(), *Q.cdf_knots()) if 0.0 <= k <= 1.0} | {0.0, 1.0})
    for a, b in zip(knots[:-1], knots[1:]):
        w = b - a
        u1, u2 = a + w / 3.0, a + 2.0 * w / 3.0
        g1 = float(diff(np.array([u1]))[0])
        g2 = float(diff(np.array([u2]))[0])
        slope = (g2 - g1) / (u2 - u1) if u2 > u1 else 0.0  # flat on an ulp-wide piece
        ga, gb = g1 + slope * (a - u1), g1 + slope * (b - u1)
        cuts |= {a, b}
        if ga * gb < 0.0:
            cuts.add(a + w * abs(ga) / (abs(ga) + abs(gb)))
    edges = np.array(sorted(cuts))
    out = []
    for lo, hi, v in zip(edges[:-1], edges[1:], diff(0.5 * (edges[:-1] + edges[1:]))):
        s = 0.0 if abs(v) <= 1e-13 else math.copysign(1.0, v)
        if out and out[-1][2] == s:
            out[-1] = (out[-1][0], float(hi), s)
        else:
            out.append((float(lo), float(hi), s))
    return out


@st.composite
def knotted_measures(draw):
    kind = draw(st.sampled_from(["histogram", "discrete", "uniform"]))
    if kind == "histogram":
        raw = draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=6).filter(lambda h: sum(h) > 0.1))
        return HistogramMeasure(PartitionRef(len(raw), (0.0, 1.0)), np.asarray(raw) * len(raw) / sum(raw))
    if kind == "discrete":
        # Points on a 1/64 grid: knots a few ulps apart would make the
        # pieces' slope overflow.
        points = draw(st.lists(st.integers(0, 64).map(lambda k: k / 64.0), min_size=1, max_size=5, unique=True))
        raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=len(points), max_size=len(points)).filter(lambda m: sum(m) > 0.1))
        return DiscreteMeasure(points, np.asarray(raw) / sum(raw))
    low = draw(st.floats(min_value=0.0, max_value=0.9))
    return UniformMeasure(low, draw(st.floats(min_value=0.05, max_value=1.0 - low)))


class TestCdfGapPieces:
    @given(knotted_measures(), knotted_measures())
    @settings(max_examples=150, deadline=None)
    def test_wasserstein_matches_its_oracle(self, P, Q):
        assert wasserstein1(P, Q) == abs_cdf_diff_oracle(P, Q)

    def test_knots_an_ulp_apart_give_a_finite_distance(self):
        # P ends at 1 - 2^-52, so the last piece is two ulps wide and both of
        # its fit points round to one float.  The supports are disjoint, so
        # W_1 is the gap of the means.
        P, Q = UniformMeasure(0.6247194452772179, 0.37528055472278193), UniformMeasure(0.0, 0.05)
        expected = (P.low + 0.5 * P.width) - (Q.low + 0.5 * Q.width)
        assert abs(wasserstein1(P, Q) - expected) < 1e-12

    @given(knotted_measures(), knotted_measures())
    # Q ends two ulps above P's low, so both fit points of that piece round
    # to one float.
    @example(UniformMeasure(0.0546875, 0.5), UniformMeasure(1.0672825837711253e-17, 0.0546875))
    @settings(max_examples=150, deadline=None)
    def test_sign_intervals_match_their_oracle(self, P, Q):
        assert cdf_sign_intervals(P, Q) == sign_intervals_oracle(P, Q)


# ---------------------------------------------------------------------------
# Pair kinds
# ---------------------------------------------------------------------------

_PART = PartitionRef(2, (0.0, 1.0))
# A purely atomic mixture, its DiscreteMeasure twin and a measure to pair
# them with.
_ATOMIC_MIX = MixtureMeasure(DiscreteMeasure([0.0], [1.0]), 0.5, DiscreteMeasure([1.0], [1.0]))
_ATOMIC_TWIN = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
_DISCRETE = DiscreteMeasure([0.0, 1.0], [0.9, 0.1])
# A uniform and a power law, each with an atom.
_UNIFORM_ATOM = MixtureMeasure(UniformMeasure(0.0, 1.0), 0.3, DiscreteMeasure([0.5], [1.0]))
_POWER_ATOM = MixtureMeasure(PowerMeasure(2.0, 0.0), 0.2, DiscreteMeasure([0.25], [1.0]))
_KIND_MEASURES = {
    "gaussian-sd1": GaussianMeasure(0.0, 1.0),
    "gaussian-sd2": GaussianMeasure(0.5, 2.0),
    "cauchy": CauchyMeasure(0.0, 1.0),
    "uniform-wide": UniformMeasure(0.0, 1.0),
    "uniform-narrow": UniformMeasure(0.25, 0.5),
    "power-2": PowerMeasure(2.0),
    "power-3": PowerMeasure(3.0),
    "histogram-a": HistogramMeasure(_PART, [1.5, 0.5]),
    "histogram-b": HistogramMeasure(_PART, [0.5, 1.5]),
    "discrete": _DISCRETE,
    "atomic-mixture": _ATOMIC_MIX,
    "uniform-plus-atom": _UNIFORM_ATOM,
}
_ALL_SPECS = (
    LossSpec.tv(),
    LossSpec.hellinger2(),
    LossSpec.kl(5.0),
    LossSpec.wasserstein1(),
    LossSpec.lj(2.0, 2.0),
    LossSpec.linf(2),
)


def _builds(spec, P, Q):
    try:
        score(spec, P, Q)
    except ConfigError:
        return False
    return True


class TestPairKind:
    @pytest.mark.parametrize(
        "P, Q, kind",
        [
            (GaussianMeasure(0.0, 1.0), GaussianMeasure(3.0, 1.0), "gaussian"),
            (GaussianMeasure(0.0, 1.0), GaussianMeasure(0.0, 2.0), "general"),
            (CauchyMeasure(0.0, 1.0), CauchyMeasure(1.0, 1.0), "cauchy"),
            (UniformMeasure(0.0, 1.0), UniformMeasure(0.5, 1.0), "uniform"),
            (PowerMeasure(0.5), PowerMeasure(0.5, 0.2), "power"),
            (PowerMeasure(0.5), PowerMeasure(2.0), "general"),
            (HistogramMeasure(_PART, [1.5, 0.5]), HistogramMeasure(_PART, [1.0, 1.0]), "partition"),
            (HistogramMeasure(_PART, [1.5, 0.5]), HistogramMeasure(PartitionRef(2, (0.0, 2.0)), [1.0, 1.0]), "general"),
            (_ATOMIC_MIX, _DISCRETE, "atomic"),
            (_DISCRETE, _ATOMIC_TWIN, "atomic"),
            (_UNIFORM_ATOM, _DISCRETE, "general"),
            (GaussianMeasure(0.0), CauchyMeasure(0.0), "general"),
        ],
    )
    def test_kind_is_symmetric(self, P, Q, kind):
        assert pair_kind(P, Q) == kind
        assert pair_kind(Q, P) == kind

    @pytest.mark.parametrize("swap", [False, True], ids=["mixture-first", "mixture-second"])
    def test_atomic_mixture_scores_like_its_discrete_twin(self, swap):
        # Every atom path keys on "purely atomic", so the mixture gets the
        # exact answer its DiscreteMeasure twin gets, bit for bit.
        pair, twin = (_ATOMIC_MIX, _DISCRETE), (_ATOMIC_TWIN, _DISCRETE)
        if swap:
            pair, twin = pair[::-1], twin[::-1]
        for spec in (LossSpec.tv(), LossSpec.hellinger2(), LossSpec.kl(5.0)):
            got, want = score(spec, *pair), score(spec, *twin)
            assert got.points.tobytes() == want.points.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
            assert got.constant_part == want.constant_part
        assert check_cond3bis(list(pair)).a2_prime == check_cond3bis(list(twin)).a2_prime
        member, prob_p, prob_q = _q_dominates_split(*pair)
        twin_member, twin_p, twin_q = _q_dominates_split(*twin)
        assert (prob_p, prob_q) == (twin_p, twin_q)
        xs = np.array([0.0, 1.0, 1.0, 0.0])
        assert np.array_equal(member(xs), twin_member(xs))

    def test_atomic_mixture_tv_score_reaches_the_distance(self):
        # TV(A, D) = 0.4, and the TV score's mean under D minus its mean
        # under A is TV(A, D).
        t = score(LossSpec.tv(), _ATOMIC_MIX, _DISCRETE)
        gap = float(np.dot(t.values, [0.9, 0.1]) - np.dot(t.values, [0.5, 0.5]))
        assert gap == pytest.approx(tv_distance(_ATOMIC_MIX, _DISCRETE)) == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "other", ["gaussian-sd1", "uniform-wide", "discrete", "atomic-mixture"]
    )
    def test_linf_refuses_a_histogram_against_anything_else_in_both_orders(self, other):
        # Score and loss share one rule: two histograms on one D-cell
        # partition.  The score used to read the other measure's cdf on the
        # histogram's partition when the histogram came first.
        H, X = _KIND_MEASURES["histogram-a"], _KIND_MEASURES[other]
        spec = LossSpec.linf(2)
        for P, Q in ((H, X), (X, H)):
            with pytest.raises(ConfigError, match="2-cell partition"):
                score(spec, P, Q)
            with pytest.raises(ConfigError, match="2-cell partition"):
                loss(spec, P, Q)

    def test_linf_refuses_histograms_on_two_partitions(self):
        P = HistogramMeasure(_PART, [1.5, 0.5])
        Q = HistogramMeasure(PartitionRef(2, (0.0, 2.0)), [0.75, 0.25])
        for A, B in ((P, Q), (Q, P)):
            with pytest.raises(ConfigError, match="2-cell partition"):
                score(LossSpec.linf(2), A, B)

    def test_every_score_builds_in_both_orders_or_in_neither(self):
        mismatched = [
            (a, b, spec.kind)
            for (a, P), (b, Q) in itertools.combinations(_KIND_MEASURES.items(), 2)
            for spec in _ALL_SPECS
            if _builds(spec, P, Q) != _builds(spec, Q, P)
        ]
        assert mismatched == []

    def test_probe_grid_sees_between_the_atoms_of_a_density_with_atoms(self):
        # Both measures have atoms but also a density, so the audit probes a
        # grid over their union window, not only the two atoms; the W1
        # score's oscillation there is 1/2, where the atoms alone read 1/4.
        assert _probe_points([_UNIFORM_ATOM, _POWER_ATOM]).size == 514
        pair = [_UNIFORM_ATOM, _POWER_ATOM]
        report = check_assumptions_exact(LossSpec.wasserstein1(), pair, pair)
        assert report.worst_oscillation == pytest.approx(-0.5, abs=1e-12)
