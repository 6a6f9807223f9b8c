"""Tests for measures, quadrature, and distances.

Expected values below were frozen from hand evaluation of the closed forms
(noted inline) before the implementation existed, so the suite is an
independent oracle rather than a snapshot of its own output.
"""

import heapq
import inspect
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from pairfit import measures
from pairfit.errors import ConfigError, NumericalError
from pairfit.measures import (
    _choice_cdf,
    _restart_stream,
    _QUAD_ERR_BUDGET,
    _QUAD_MAX_PANELS,
    _QUAD_TOL,
    _LOOKAHEAD,
    _FAMILIES as _MEASURE_PARAMS,
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
    expectation,
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
    _hellinger_quadrature,
    _kl_quadrature,
    _sign_cuts,
    _tv_closed_form,
    _tv_quadrature,
    _union_breakpoints,
    _union_window,
    _w1_quadrature,
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

    @pytest.mark.parametrize(
        "run, message",
        [
            # 4 * 5e307 overflows, so every panel's Simpson sums are inf, and
            # the NaN error estimate inf - inf passed the budget check.
            (lambda: integrate(lambda x: np.full_like(x, 5e307), 0.0, 10.0), "Simpson sums overflow"),
            (lambda: expectation(GaussianMeasure(0.0, 1.0), lambda x: np.full_like(x, 1e308)), "Simpson sums overflow"),
            # Each of the 8 panels holds 5e307; their sum, the value, is inf.
            (lambda: integrate(lambda x: np.full_like(x, 1e307), 0.0, 40.0), "value overflows"),
        ],
        ids=["simpson-sums", "expectation", "value"],
    )
    def test_overflow_raises(self, run, message):
        with pytest.raises(NumericalError, match=message):
            run()

    def test_sign_changes_located(self):
        roots = sign_change_points(np.cos, 0.0, 8.0)
        expected = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
        assert len(roots) == 3
        for r, e in zip(roots, expected):
            assert abs(r - e) < 1e-10


def _reference_integrate(fn, a, b, breakpoints=()):
    """The adaptive Simpson loop as it was before panels were evaluated ahead:
    one ``fn`` call per bisection and ``np.float64`` panel arithmetic.

    ``integrate`` must return bitwise this value and estimate, and raise
    exactly its messages.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericalError(f"integration interval must be finite, got [{a}, {b}]")
    if b <= a:
        return 0.0, 0.0

    edges = [a, b]
    for p in breakpoints:
        p = float(p)
        if a < p < b:
            edges.append(p)
    edges = sorted(set(edges))

    def evaluate(x):
        y = np.asarray(fn(x), dtype=float)
        if not np.all(np.isfinite(y)):
            bad = np.asarray(x)[~np.isfinite(y)]
            raise NumericalError(f"non-finite integrand value near x={bad.flat[0]!r}")
        return y

    heap = []
    accepted_value = 0.0
    accepted_err = 0.0
    pending_err = 0.0
    n_panels = 0
    counter = 0

    def push_panel(lo, width, f5):
        nonlocal pending_err, n_panels, counter, accepted_value, accepted_err
        h = width / 2.0
        s_coarse = (width / 6.0) * (f5[0] + 4.0 * f5[2] + f5[4])
        s_left = (h / 6.0) * (f5[0] + 4.0 * f5[1] + f5[2])
        s_right = (h / 6.0) * (f5[2] + 4.0 * f5[3] + f5[4])
        s_fine = s_left + s_right
        err = abs(s_fine - s_coarse) / 15.0
        scale = max(1.0, abs(lo), abs(lo + width))
        if width < 64.0 * np.finfo(float).eps * scale:
            accepted_value += s_fine + (s_fine - s_coarse) / 15.0
            accepted_err += err
            return
        counter += 1
        heapq.heappush(heap, (-err, counter, lo, width, s_coarse, s_fine, tuple(f5)))
        pending_err += err
        n_panels += 1

    for seg_lo, seg_hi in zip(edges[:-1], edges[1:]):
        seg_w = seg_hi - seg_lo
        n_sub = 8
        grid = np.linspace(seg_lo, seg_hi, 4 * n_sub + 1)
        vals = evaluate(grid)
        for k in range(n_sub):
            push_panel(grid[4 * k], seg_w / n_sub, vals[4 * k : 4 * k + 5])

    while heap and pending_err + accepted_err > _QUAD_TOL and n_panels < _QUAD_MAX_PANELS:
        neg_err, _, lo, width, s_coarse, s_fine, f5 = heapq.heappop(heap)
        pending_err -= -neg_err
        n_panels -= 1
        h = width / 2.0
        new_x = np.array(
            [lo + 0.25 * h, lo + 0.75 * h, lo + h + 0.25 * h, lo + h + 0.75 * h]
        )
        new_f = evaluate(new_x)
        left5 = np.array([f5[0], new_f[0], f5[1], new_f[1], f5[2]])
        right5 = np.array([f5[2], new_f[2], f5[3], new_f[3], f5[4]])
        push_panel(lo, h, left5)
        push_panel(lo + h, h, right5)

    value = accepted_value
    err_total = accepted_err + pending_err
    for entry in heap:
        s_coarse, s_fine = entry[4], entry[5]
        value += s_fine + (s_fine - s_coarse) / 15.0
    if err_total > _QUAD_ERR_BUDGET:
        raise NumericalError(
            f"quadrature error estimate {err_total:.3e} exceeds "
            f"{_QUAD_ERR_BUDGET:.0e} with {n_panels} panels on [{a}, {b}]"
        )
    return float(value), float(err_total)


def _tv_integrand(shift, alpha=0.5):
    """|p - q| for U(0, 1) against Power(alpha, shift), with its window and
    breakpoints (the crossing of the densities is left to the refinement)."""
    U, P = UniformMeasure(0.0, 1.0), PowerMeasure(alpha, shift)
    return (lambda x: np.abs(U.pdf(x) - P.pdf(x)), *_union_window(U, P), _union_breakpoints(U, P))


def _singular_tv_integrand():
    """|p - q| for U(0, 1) against Power(0.5, 0.02) with the window and the
    cuts ``_tv_quadrature`` gives it: it runs to the panel budget."""
    U, P = UniformMeasure(0.0, 1.0), PowerMeasure(0.5, 0.02)
    diff = lambda x: U.pdf(x) - P.pdf(x)
    lo, hi = _union_window(U, P)
    return (lambda x: np.abs(diff(x)), lo, hi, _sign_cuts(diff, lo, hi, _union_breakpoints(U, P)))


def _bell_integrand():
    # Every node is a dyadic rational, so x and -x are both nodes and
    # f(-x) == f(x) bitwise: each panel's error equals its mirror's, and the
    # push order breaks every tie.  Popping ties last-pushed first moves the
    # result.
    return lambda x: np.exp(-x * x), -4.0, 4.0, ()


def _hellinger_integrand():
    G, C = GaussianMeasure(0.3, 0.05), CauchyMeasure(-1.0, 2.0)
    lo, hi = _union_window(G, C)
    span = hi - lo
    fn = lambda x: np.sqrt(G.pdf(x) * C.pdf(x))
    return fn, lo - 200.0 * span, hi + 200.0 * span, _union_breakpoints(G, C)


def _sin_integrand():
    # About 11,000 bisections: every kink of |sin(20x)| is left to the refinement.
    return lambda x: np.abs(np.sin(20.0 * x)), 0.0, 30.0, ()


def _recording(fn, calls):
    """``fn``, appending a copy of every array it is given to ``calls``."""

    def wrapped(x):
        calls.append(np.array(x, dtype=float))
        return fn(x)

    return wrapped


def _hex(pair):
    return tuple(v.hex() for v in pair)


class TestIntegrateMatchesReference:
    """Panels evaluated ahead in one call leave every float of the result alone."""

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (lambda x: np.where(x > 0, 0.5 / np.sqrt(np.where(x > 0, x, 1.0)), 0.0), 0.0, 1.0, ()),
            lambda: _tv_integrand(0.1),
            lambda: _tv_integrand(0.3),
            lambda: _tv_integrand(0.75),
            _hellinger_integrand,
            _sin_integrand,
            _bell_integrand,
        ],
        ids=["rsqrt", "tv-shift-0.1", "tv-shift-0.3", "tv-shift-0.75", "hellinger-gauss-cauchy", "abs-sin", "bell-ties"],
    )
    def test_bitwise_equal(self, case):
        fn, a, b, brk = case()
        assert _hex(integrate(fn, a, b, brk)) == _hex(_reference_integrate(fn, a, b, brk))

    @settings(max_examples=8, deadline=None)
    @given(alpha=st.floats(0.5, 0.95), shift=st.floats(0.1, 1.0))
    def test_bitwise_equal_on_power_pairs(self, alpha, shift):
        fn, a, b, brk = _tv_integrand(shift, alpha)
        assert _hex(integrate(fn, a, b, brk)) == _hex(_reference_integrate(fn, a, b, brk))

    def test_fewer_calls_than_bisections(self):
        fn, a, b, brk = _sin_integrand()
        ref_calls, calls = [], []
        _reference_integrate(_recording(fn, ref_calls), a, b, brk)
        integrate(_recording(fn, calls), a, b, brk)
        assert len(calls) < len(ref_calls) / 3
        assert max(len(x) for x in calls) <= 4 * _LOOKAHEAD

    def test_unsplit_panels_may_be_non_finite(self):
        # The integrand is NaN everywhere the reference never looks, which
        # includes the quarter points of every panel it leaves unsplit.
        fn, a, b, brk = _sin_integrand()
        ref_calls, calls = [], []
        expected = _reference_integrate(_recording(fn, ref_calls), a, b, brk)
        seen = np.unique(np.concatenate(ref_calls))
        masked = lambda x: np.where(np.isin(x, seen), fn(x), np.nan)
        assert _hex(integrate(_recording(masked, calls), a, b, brk)) == _hex(expected)
        assert not np.isin(np.concatenate(calls), seen).all()

    def test_bitwise_equal_when_the_budget_runs_out(self, monkeypatch):
        # The budget patched in both modules: ``_reference_integrate`` reads
        # this module's name.
        monkeypatch.setattr(measures, "_QUAD_MAX_PANELS", 1 << 12)
        monkeypatch.setattr(sys.modules[__name__], "_QUAD_MAX_PANELS", 1 << 12)
        fn, a, b, cuts = _singular_tv_integrand()
        got = integrate(fn, a, b, cuts)
        assert got[1] > _QUAD_TOL  # stopped by the budget, not the tolerance
        assert _hex(got) == _hex(_reference_integrate(fn, a, b, cuts))

    def test_pending_panels_are_compact(self, monkeypatch):
        cap = 1 << 13
        monkeypatch.setattr(measures, "_QUAD_MAX_PANELS", cap)
        fn, a, b, cuts = _singular_tv_integrand()
        tracemalloc.start()
        try:
            _, err = integrate(fn, a, b, cuts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err > _QUAD_TOL  # the budget ran out: `cap` panels were pending
        assert peak / cap <= 250.0

    def test_popped_rows_are_reused(self, monkeypatch):
        # Rows that were only appended held about two per pending panel,
        # 201.8 bytes a panel in all at this cap.
        cap = 1 << 13
        monkeypatch.setattr(measures, "_QUAD_MAX_PANELS", cap)
        fn, a, b, cuts = _singular_tv_integrand()
        tracemalloc.start()
        try:
            _, err = integrate(fn, a, b, cuts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err > _QUAD_TOL  # the budget ran out: `cap` panels were pending
        assert peak / cap <= 150.0

    def test_bitwise_equal_when_initial_panels_exceed_the_budget(self, monkeypatch):
        # 2,000 breakpoints give 16,008 initial panels, 62 times the patched
        # budget, so their row offsets outgrow any key field sized from the
        # budget alone.
        monkeypatch.setattr(measures, "_QUAD_MAX_PANELS", 1 << 8)
        monkeypatch.setattr(sys.modules[__name__], "_QUAD_MAX_PANELS", 1 << 8)
        fn, a, b = lambda x: np.abs(np.sin(x)), 0.0, 30.0
        brk = np.linspace(a, b, 2002)[1:-1].tolist()
        got = integrate(fn, a, b, brk)
        assert got[1] > _QUAD_TOL  # stopped by the budget, not the tolerance
        assert _hex(got) == _hex(_reference_integrate(fn, a, b, brk))

    @pytest.mark.parametrize("bisection", [0, 1, 500, -1])
    def test_split_panel_non_finite_raises_reference_message(self, bisection):
        fn, a, b, brk = _sin_integrand()
        ref_calls = []
        _reference_integrate(_recording(fn, ref_calls), a, b, brk)
        # One initial call per segment, then one call of 4 points per bisection.
        bad = ref_calls[1:][bisection][2]
        poisoned = lambda x: np.where(x == bad, np.inf, fn(x))
        with pytest.raises(NumericalError) as expected:
            _reference_integrate(poisoned, a, b, brk)
        with pytest.raises(NumericalError) as got:
            integrate(poisoned, a, b, brk)
        assert str(got.value) == str(expected.value)
        assert repr(bad) in str(got.value)


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
        closed = _tv_closed_form(P, Q)
        quad = _tv_quadrature(P, Q)
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

    def test_without_closed_form_uses_quadrature(self):
        P, Q = GaussianMeasure(0.0), UniformMeasure(0.0)
        assert _tv_closed_form(P, Q) is None
        assert tv_distance(P, Q) == _tv_quadrature(P, Q)

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
        quad = _hellinger_quadrature(GaussianMeasure(0.0), GaussianMeasure(1.0))
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

    def test_kl_support_screen_skips_atoms(self):
        # P's zero-mass atom at 1 lies outside Q's support [0, 0.5]: KL is
        # still that of the point mass at 0, 1 * log(1 / 0.5).
        Q = MixtureMeasure(UniformMeasure(0.0, 0.5), 0.5, point_mass(0.0))
        P = DiscreteMeasure([0.0, 1.0], [1.0, 0.0])
        assert kl_divergence(P, Q) == kl_divergence(point_mass(0.0), Q) == math.log(2.0)
        mixed = MixtureMeasure(UniformMeasure(0.0, 0.5), 0.5, P)
        assert kl_divergence(mixed, Q) == 0.0
        # Q's atom at 1, or its weightless component, does not cover P's
        # density on (0.5, 1].
        assert kl_divergence(UniformMeasure(0.0, 1.0), MixtureMeasure(Q.base, 0.5, point_mass(1.0))) == math.inf
        weightless = MixtureMeasure(Q.base, 0.0, UniformMeasure(0.0, 1.0))
        assert kl_divergence(UniformMeasure(0.0, 1.0), weightless) == math.inf

    def test_kl_support_screen_sees_gaps_between_components(self):
        # Q's components cover [0, 0.2] and [0.8, 1], whose hull [0, 1]
        # holds P's support; Q has no density on (0.2, 0.8), so KL is inf.
        P = UniformMeasure(0.0, 1.0)
        gapped = MixtureMeasure(UniformMeasure(0.0, 0.2), 0.5, UniformMeasure(0.8, 0.2))
        assert kl_divergence(P, gapped) == math.inf
        # Overlapping components [0, 0.6] and [0.5, 1] cover [0, 1]:
        # KL = 0.5 log 1.2 - 0.1 log(11/6).
        covering = MixtureMeasure(UniformMeasure(0.0, 0.6), 0.5, UniformMeasure(0.5, 0.5))
        exact = 0.5 * math.log(1.2) - 0.1 * math.log(11.0 / 6.0)
        assert abs(kl_divergence(P, covering) - exact) < 1e-6
        # A zero-height histogram cell is a gap too.
        holed = HistogramMeasure(PartitionRef(3, (0.0, 1.0)), [1.5, 0.0, 1.5])
        assert kl_divergence(P, holed) == math.inf
        assert abs(kl_divergence(UniformMeasure(0.0, 1.0 / 3.0), holed) - math.log(2.0)) < 1e-6

    def test_kl_gaussian(self):
        assert abs(kl_divergence(GaussianMeasure(0.0), GaussianMeasure(1.0)) - 0.5) < 1e-12
        quad = _kl_quadrature(GaussianMeasure(0.0), GaussianMeasure(1.0))
        assert abs(quad - 0.5) < 1e-7

    def test_kl_of_nearly_equal_measures_is_never_negative(self):
        # The p log(p/q) terms of two nearly equal measures cancel to a
        # rounding error of either sign; unclamped, 994 of these 2,000 atom
        # pairs and 988 of the histogram pairs read below 0.
        rng = np.random.default_rng(0)
        part = PartitionRef(5, (0.0, 1.0))
        for _ in range(2000):
            p = rng.uniform(0.05, 1.0, 5)
            p /= p.sum()
            q = p * (1.0 + 1e-9 * rng.standard_normal(5))
            q /= q.sum()
            pts = [0.0, 1.0, 2.0, 3.0, 4.0]
            assert kl_divergence(DiscreteMeasure(pts, p), DiscreteMeasure(pts, q)) >= 0.0
            assert kl_divergence(HistogramMeasure(part, 5 * p), HistogramMeasure(part, 5 * q)) >= 0.0

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
        quad = _w1_quadrature(PowerMeasure(0.7), PowerMeasure(2.5))
        assert abs(quad - abs(1.0 / 1.7 - 1.0 / 3.5)) < 1e-8

    def test_histogram_pair_exact(self):
        part = PartitionRef(2, (0.0, 1.0))
        P = HistogramMeasure(part, [2.0, 0.0])
        Q = HistogramMeasure(part, [0.0, 2.0])
        # F_P - F_Q is the tent map peaking at 1/2; integral = 1/2.
        assert abs(wasserstein1(P, Q) - 0.5) < 1e-15

    def test_mixture_of_knotted_cdfs_is_exact(self):
        # 0.7·U(0,1) + 0.3·δ0.5 against ½δ0.25 + ½δ0.5: by hand over [0, 0.25),
        # [0.25, 0.5) and [0.5, 1] the cdf gap integrates to 0.16875.
        P = MixtureMeasure(UniformMeasure(0.0, 1.0), 0.3, point_mass(0.5))
        Q = DiscreteMeasure([0.25, 0.5], [0.5, 0.5])
        assert P.cdf_knots() == (0.0, 0.5, 1.0)
        assert abs(wasserstein1(P, Q) - 0.16875) < 1e-14
        assert abs(wasserstein1(Q, P) - 0.16875) < 1e-14
        assert cdf_sign_intervals(P, Q) == [(0.0, 0.25, -1.0), (0.25, 1.0, 1.0)]

    def test_mixture_with_a_smooth_component_has_no_knots(self):
        assert MixtureMeasure(UniformMeasure(0.0, 1.0), 0.3, PowerMeasure(2.0)).cdf_knots() is None

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
        with pytest.raises(ConfigError, match="j in"):
            lj_distance(P, P, 1.0)

    @pytest.mark.parametrize("j", [2.0, math.inf])
    def test_atoms_on_the_real_line_raise(self, j):
        # An atom has no Lebesgue density; at j = 2 the pdf part alone read
        # 0.2656 for this pair.
        P, Q = MixtureMeasure(GaussianMeasure(0.0), 0.5, point_mass(0.0)), GaussianMeasure(0.0)
        for pair in ((P, Q), (Q, P)):
            with pytest.raises(ConfigError, match="needs Lebesgue densities"):
                lj_distance(*pair, j)


class TestSamplingAndEmpirical:
    def test_empirical_measure_merges_duplicates(self):
        m = empirical_measure([1.0, 2.0, 2.0, 5.0])
        assert m.atoms() == ((1.0, 0.25), (2.0, 0.5), (5.0, 0.25))

    def test_empirical_measure_needs_an_observation(self):
        with pytest.raises(ConfigError, match="at least one observation"):
            empirical_measure([])

    def test_philox_streams_are_independent(self):
        a = philox_rng(5, 0).random(8)
        b = philox_rng(5, 1).random(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, stream",
        [(1.5, 0), (0, 2.7), (True, 0), (0, False), ("3", 0), (None, 0), (np.float64(2.0), 0)],
    )
    def test_philox_refuses_non_integer_keys(self, seed, stream):
        # numpy's uint64 cast would take 1.5 as seed 1 and 2.7 as stream 2.
        with pytest.raises(ConfigError, match="RNG (seed|stream) must be an integer"):
            philox_rng(seed, stream)
        with pytest.raises(ConfigError, match="RNG (seed|stream) must be an integer"):
            _restart_stream(philox_rng(0), seed, stream)

    def test_philox_takes_numpy_integers(self):
        for seed, stream in ((np.int64(-1), np.uint8(3)), (np.uint64(2**64 - 1), np.int32(3))):
            got = philox_rng(seed, stream).random(4)
            assert got.tobytes() == philox_rng(2**64 - 1, 3).random(4).tobytes()

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
            rng = philox_rng(0)
            with pytest.raises(ConfigError, match="cannot sample from a signed"):
                m.sample(4, rng)
            # Refused before any draw: the generator has not moved.
            assert rng.random(3).tobytes() == philox_rng(0).random(3).tobytes()

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

    @settings(max_examples=60, deadline=None)
    @given(
        masses=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
            min_size=1,
            max_size=9,
        ).filter(lambda v: sum(v) > 0),
        n=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(masses=[0.6, 0.0, 0.3, 0.1], n=50, seed=0)
    def test_categorical_draws_equal_generator_choice(self, masses, n, seed):
        # The cached cdf must give ``rng.choice(k, size=n, p=probs)`` bitwise,
        # with probs the clipped, normalised masses, and leave the generator
        # at the same position.
        k = len(masses)
        total = sum(masses)
        probs = np.clip(np.array([v / total for v in masses]), 0.0, None)
        probs = probs / probs.sum()
        points = np.arange(k, dtype=float) * 1.5 - 2.0
        discrete = DiscreteMeasure(points, [v / total for v in masses])
        hist = HistogramMeasure(PartitionRef(k, (-1.0, 2.0)), [k * v / total for v in masses])
        assert discrete.is_probability and hist.is_probability
        # choice's own cdf ends at exactly 1, so no uniform maps past the last atom.
        assert discrete._sampling_cdf[-1] == 1.0 and hist._sampling_cdf[-1] == 1.0

        rng, ref = philox_rng(seed), philox_rng(seed)
        got = discrete.sample(n, rng)
        want = points[ref.choice(k, size=n, p=probs)]
        assert got.tobytes() == want.tobytes()
        assert rng.random(2).tobytes() == ref.random(2).tobytes()

        rng, ref = philox_rng(seed, 1), philox_rng(seed, 1)
        got = hist.sample(n, rng)
        cell_probs = np.clip(hist.cell_masses, 0.0, None)
        cells = ref.choice(k, size=n, p=cell_probs / cell_probs.sum())
        want = -1.0 + (cells + ref.random(n)) * hist.partition.cell_width
        assert got.tobytes() == want.tobytes()
        assert rng.random(2).tobytes() == ref.random(2).tobytes()

    def test_uniform_on_a_cdf_entry_draws_the_next_atom(self):
        # choice searches its cdf with side="right": a uniform equal to an
        # entry goes to the next atom, so a zero-mass atom is never drawn.
        class Uniforms:
            def __init__(self, values):
                self.values = np.array(values)

            def random(self, n):
                assert n == len(self.values)
                return self.values

        m = DiscreteMeasure([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.0, 0.5])
        u = [0.0, 0.5, np.nextafter(0.5, 0.0), 1.0 - 2.0**-53]
        assert m.sample(4, Uniforms(u)).tolist() == [1.0, 3.0, 1.0, 3.0]

    def test_choice_cdf_is_built_like_generator_choice(self):
        # Normalising the cumulative sum by its last entry is what makes that
        # entry exactly 1 even when the masses' running sum misses it.
        masses = np.array([0.6, 0.3, 0.1])
        probs = masses / masses.sum()
        assert probs.cumsum()[-1] != 1.0
        cdf = _choice_cdf(masses)
        assert cdf[-1] == 1.0
        assert cdf.tobytes() == (probs.cumsum() / probs.cumsum()[-1]).tobytes()

    def test_discrete_sampler_frequencies(self):
        m = DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        x = m.sample(20000, philox_rng(7))
        freq = np.array([(x == v).mean() for v in [0.0, 1.0, 2.0]])
        assert np.abs(freq - [0.2, 0.3, 0.5]).max() < 0.02


class TestRestartStream:
    """``_restart_stream`` gives bitwise the stream of a new ``philox_rng``."""

    # How the previous stream was left: (action, buffer_pos, has_uint32).
    LEFT = {
        "new": (lambda rng: None, 4, 0),
        "mid-buffer": (lambda rng: rng.random(3), 3, 0),
        "held-uint32": (lambda rng: rng.integers(0, 2**32, size=1, dtype=np.uint32), 1, 1),
        "both": (
            lambda rng: (rng.random(2), rng.integers(0, 2**32, size=1, dtype=np.uint32)),
            3,
            1,
        ),
    }

    @staticmethod
    def _draws(rng):
        # An odd uint32 count leaves a held 32-bit half behind for the next draw.
        return (
            rng.random(5).tobytes(),
            rng.standard_normal(7).tobytes(),
            rng.integers(0, 2**32, size=5, dtype=np.uint32).tobytes(),
            rng.random(3).tobytes(),
        )

    @pytest.mark.parametrize("left", list(LEFT))
    @pytest.mark.parametrize("seed", [0, 7, -1, 2**64 - 1, 2**64, 2**80 + 17])
    def test_restart_equals_new_generator(self, seed, left):
        action, buffer_pos, has_uint32 = self.LEFT[left]
        for stream in (0, 1, 2**64 + 5, -2):
            rng = philox_rng(123, 4)
            action(rng)
            state = rng.bit_generator.state
            assert (state["buffer_pos"], state["has_uint32"]) == (buffer_pos, has_uint32)
            assert _restart_stream(rng, seed, stream) is rng
            fresh = philox_rng(seed, stream)
            state, want = rng.bit_generator.state, fresh.bit_generator.state
            assert state["state"]["key"].tolist() == want["state"]["key"].tolist()
            assert self._draws(rng) == self._draws(fresh)
            # Wherever those draws left it, a second restart starts over.
            _restart_stream(rng, seed, stream)
            assert self._draws(rng) == self._draws(philox_rng(seed, stream))


class TestCdfMachinery:
    @pytest.mark.parametrize(
        "m",
        [
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

    def test_every_family_round_trips_exactly(self):
        configs = {
            "gaussian": {"family": "gaussian", "params": {"mean": 1.0, "sd": 2.0}},
            "cauchy": {"family": "cauchy", "params": {"loc": 0.0, "scale": 0.5}},
            "uniform": {"family": "uniform", "params": {"low": -1.0, "width": 2.0}},
            "power": {"family": "power", "params": {"alpha": 0.5, "shift": 0.25}},
            "histogram": {"family": "histogram", "params": {"cells": 2, "support": [0.0, 2.0], "heights": [1.5, 0.5]}},
            "discrete": {"family": "discrete", "params": {"points": [0.0, 3.0], "masses": [0.4, 0.6], "weights": [0.5, 2.0]}},
            "point-mass": {"family": "point-mass", "params": {"at": 8.0}},
            "mixture": {
                "family": "mixture",
                "params": {
                    "base": {"family": "gaussian", "params": {"mean": 0.0}},
                    "alpha": 0.1,
                    "contaminant": {"family": "point-mass", "params": {"at": 8.0}},
                },
            },
        }
        assert set(configs) == set(_MEASURE_PARAMS)
        for cfg in configs.values():
            emitted = measure_from_config(cfg).to_config()
            assert measure_from_config(emitted).to_config() == emitted

    def test_discrete_weights_survive_the_round_trip(self):
        ref = DiscreteRef((0.0, 1.0), (0.5, 2.0))
        P = DiscreteMeasure([0.0, 1.0], [0.7, 0.3], ref=ref)
        Q = DiscreteMeasure([0.0, 1.0], [0.2, 0.8], ref=ref)
        rebuilt = [measure_from_config(m.to_config()) for m in (P, Q)]
        assert rebuilt[0].reference == ref
        assert lj_distance(*rebuilt, 2.0) == lj_distance(P, Q, 2.0)
        assert "weights" not in DiscreteMeasure([0.0, 1.0], [0.5, 0.5]).to_config()["params"]

    def test_unknown_keys_raise(self):
        with pytest.raises(ConfigError, match=r"unknown gaussian measure config keys \['sdd'\]"):
            measure_from_config({"family": "gaussian", "params": {"mean": 0.0, "sdd": 2.0}})
        with pytest.raises(ConfigError, match=r"unknown measure config keys \['extra'\]"):
            measure_from_config({"family": "gaussian", "params": {"mean": 0.0}, "extra": 1})

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

    def test_discrete_weights_take_points_in_any_order(self):
        shuffled = {"points": [1, 0], "masses": [0.25, 0.75], "weights": [2, 1]}
        ordered = {"points": [0.0, 1.0], "masses": [0.75, 0.25], "weights": [1.0, 2.0]}
        P, Q = (measure_from_config({"family": "discrete", "params": p}) for p in (shuffled, ordered))
        assert P.to_config() == Q.to_config() == {"family": "discrete", "params": ordered}
        assert P.reference == Q.reference == DiscreteRef((1.0, 0.0), (2.0, 1.0))

    def test_histogram_support_is_read_as_floats(self):
        configs = [
            {"family": "histogram", "params": {"support": support, "heights": [1.5, 0.5]}}
            for support in ([0, 2], [0.0, 2.0])
        ]
        emitted = [measure_from_config(cfg).to_config() for cfg in configs]
        assert emitted[0] == emitted[1]
        assert [type(v) for v in emitted[0]["params"]["support"]] == [float, float]


# One valid parameter set per measure family, every number-valued parameter
# set; a mixture's base and contaminant are measure configs.
FAMILY_PARAMS = {
    "gaussian": {"mean": 0.5, "sd": 2.0},
    "cauchy": {"loc": 0.5, "scale": 2.0},
    "uniform": {"low": 0.5, "width": 2.0},
    "power": {"alpha": 0.5, "shift": 0.25},
    "histogram": {"cells": 2, "support": [0.0, 2.0], "heights": [1.5, 0.5]},
    "discrete": {"points": [0.0, 3.0], "masses": [0.4, 0.6], "weights": [0.5, 2.0]},
    "point-mass": {"at": 8.0},
    "mixture": {"alpha": 0.1},
}
MIXTURE_PARTS = {
    "base": {"family": "gaussian", "params": {"mean": 0.0}},
    "contaminant": {"family": "point-mass", "params": {"at": 8.0}},
}
# The same measures built through the constructors.
CONSTRUCTORS = {
    "gaussian": lambda p: GaussianMeasure(p["mean"], p["sd"]),
    "cauchy": lambda p: CauchyMeasure(p["loc"], p["scale"]),
    "uniform": lambda p: UniformMeasure(p["low"], p["width"]),
    "power": lambda p: PowerMeasure(p["alpha"], p["shift"]),
    "histogram": lambda p: HistogramMeasure(PartitionRef(p["cells"], p["support"]), p["heights"]),
    "discrete": lambda p: DiscreteMeasure(p["points"], p["masses"], DiscreteRef(p["points"], p["weights"])),
    "point-mass": lambda p: point_mass(p["at"]),
    "mixture": lambda p: MixtureMeasure(GaussianMeasure(0.0), p["alpha"], point_mass(8.0)),
}


def bad_parameter_cases():
    """(family, key, value) for every parameter: each bad value, or a list holding it."""
    for family, params in FAMILY_PARAMS.items():
        for key, good in params.items():
            for bad in (True, "0.5", math.nan, math.inf, -math.inf, 10**400):
                yield family, key, [good[0], bad] if isinstance(good, list) else bad


class TestParameterRefusals:
    def test_tables_cover_every_family_and_parameter(self):
        assert set(FAMILY_PARAMS) == set(CONSTRUCTORS) == set(measures._FAMILIES)
        for family, params in FAMILY_PARAMS.items():
            cfg = {"family": family, "params": dict(params, **(MIXTURE_PARTS if family == "mixture" else {}))}
            assert set(cfg["params"]) == set(inspect.signature(measures._FAMILIES[family].build).parameters)
            assert measure_from_config(cfg).to_config() == CONSTRUCTORS[family](params).to_config()

    @pytest.mark.parametrize("family, key, value", list(bad_parameter_cases()), ids=lambda v: repr(v)[:16])
    def test_every_parameter_refuses_non_numbers_and_non_finite_values(self, family, key, value):
        # Before, a bool or a string could be read as a number, NaN and the
        # infinities built measures, and 10^400 failed with OverflowError.
        params = dict(FAMILY_PARAMS[family], **{key: value})
        cfg = {"family": family, "params": dict(params, **(MIXTURE_PARTS if family == "mixture" else {}))}
        named = re.escape(f"measure parameter {key!r}: {family} {key} must be")
        with pytest.raises(ConfigError, match=named):
            measure_from_config(cfg)
        with pytest.raises(ConfigError, match=named):
            CONSTRUCTORS[family](params)

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("uniform", {"low": 1e308, "width": 1e308}, "measure parameter 'width': uniform low + width must be finite"),
            ("gaussian", {"mean": 1e308, "sd": 1e307}, "measure parameter 'sd': gaussian window mean +/- 12 sd must be finite"),
            ("gaussian", {"mean": -1e308, "sd": 1e307}, "measure parameter 'sd': gaussian window mean +/- 12 sd must be finite"),
            ("cauchy", {"loc": 1e308, "scale": 1e307}, "measure parameter 'scale': cauchy window loc +/- 2500 scale must be finite"),
            ("histogram", {"cells": 1, "support": [-1e308, 1e308], "heights": [1.0]}, "measure parameter 'support': histogram hi - lo must be finite"),
        ],
        ids=["uniform", "gaussian", "gaussian-negative", "cauchy", "histogram"],
    )
    def test_windows_that_overflow_are_refused(self, family, params, message):
        # Every parameter is finite, but the window or the width overflowed:
        # these built, then failed with exit 3 and numpy RuntimeWarnings.
        with pytest.raises(ConfigError, match=re.escape(message)):
            measure_from_config({"family": family, "params": params})
        with pytest.raises(ConfigError, match=re.escape(message)):
            CONSTRUCTORS[family](params)

    @pytest.mark.parametrize("cells", [True, 2.0])
    def test_histogram_cells_refuse_bools_and_floats(self, cells):
        params = {"cells": cells, "heights": [1.0] * int(cells)}
        with pytest.raises(ConfigError, match="'cells': histogram cells must be a positive integer"):
            measure_from_config({"family": "histogram", "params": params})


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
