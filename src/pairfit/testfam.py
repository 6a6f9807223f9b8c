"""Per-loss families of pairwise score functions and their exact checkers.

For an ordered pair of candidate measures (P, Q), a score function
``t_{(P,Q)}`` maps one observation to a real number; summing over a sample
gives the pairwise statistic ``T(X, P, Q)``.  Each loss has its own family:

    * TV:      t = 1/2 [1_{q>p} - Q(q>p)] - 1/2 [1_{p>q} - P(p>q)]
    * W_1:     t(x) = ∫_x^1 s(u) du + C,  s = sign(F_Q - F_P),
               C = -∫_0^1 s * (F_P+F_Q)/2
    * L_j:     t = (1/(2 R^{j-1})) [∫ f d(P+Q)/2 - f],
               f = sign(p-q) |p-q|^{j-1} / ||p-q||_j^{j-1}
    * L_inf:   on a D-cell partition, with I* the cell maximizing |P(I)-Q(I)|,
               t = sign(P(I*)-Q(I*)) [(P(I*)+Q(I*))/2 - 1_{I*}]
    * Hellinger: t = (1/(2 sqrt2)) [rho(R,Q) - rho(R,P) + (sqrt q - sqrt p)/sqrt r],
               R = (P+Q)/2, rho the affinity; the ratio term is 0 where r = 0
    * KL:      t = (1/(2a)) log(q/p), valid when e^{-a} <= p/q <= e^{a}
               across the family

All families satisfy, for every measure S the data may follow:

    (i)   t_{(P,Q)} = -t_{(Q,P)}
    (ii)  E_S[t] <= a0 * loss(S, P) - a1 * loss(S, Q)
    (iii) sup t - inf t <= 1

and some additionally control the variance:

    (iv)  Var_S[t] <= a2 * [loss(S, P) + loss(S, Q)]

The checker at the bottom verifies (i)-(iv) exactly on finite spaces, reading
the constants from ``LossSpec.constants``; the scores themselves never need them.
Each constructed score records its data-free constant part; strict density
comparisons are used everywhere, and points with p = q contribute only
through the constant part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .losses import LossSpec, _linf_partition, _lj_scale, loss
from .measures import (
    _FAMILIES as _MEASURE_FAMILIES,
    DiscreteMeasure,
    DiscreteRef,
    HistogramMeasure,
    Measure,
    PartitionRef,
    _has_continuous_part,
    _log_ratio_bound,
    _sign_cuts,
    _union_breakpoints,
    _union_window,
    atom_mass_matrix,
    cdf_sign_intervals,
    expectation,
    integrate,
    lj_distance,
    locate_points,
    pair_kind,
    tv_distance,
)

__all__ = [
    "ScoreFunction",
    "AtomScore",
    "PiecewiseScore",
    "CallableScore",
    "PiecewiseTable",
    "score",
    "partition_pair_table",
    "translation_pair_table",
    "check_assumptions_exact",
    "check_cond3bis",
    "c1_constant",
]

_UP = np.nextafter  # one-ulp shift, used to encode open/closed interval ends
_PROBE_GRID = 512  # grid size of the checkers' probe points off finite spaces


# ---------------------------------------------------------------------------
# Score function backends
# ---------------------------------------------------------------------------


class ScoreFunction:
    """One pair's per-observation score.

    Attributes:
        constant_part: the data-free additive term of the score (cached so
            engines and diagnostics never recompute it).
    """

    constant_part: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class AtomScore(ScoreFunction):
    """Score on a finite space: a value for each point of the space."""

    def __init__(self, points: np.ndarray, values: np.ndarray, constant_part: float):
        self.points = np.asarray(points, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.constant_part = float(constant_part)

    def __call__(self, x):
        return self.values[locate_points(self.points, x, "the score's finite space")]


class PiecewiseScore(ScoreFunction):
    """Piecewise-linear score: base + sum of (const + slope*x) on [lo, hi).

    Components may not overlap.  Open/closed interval ends are encoded by
    nudging a bound one ulp, so strict density comparisons survive exactly.
    A piece adds ``const + slope*x`` to the base as one term, rounded as the
    engine's sweep rounds it.  The data-free part is the base.
    """

    def __init__(self, base: float, components: Sequence[tuple[float, float, float, float]]):
        self.base = self.constant_part = float(base)
        self.components = tuple(
            (float(lo), float(hi), float(c), float(s)) for (lo, hi, c, s) in components
        )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.base)
        for lo, hi, c, s in self.components:
            mask = (x >= lo) & (x < hi)
            if s == 0.0:
                out = np.where(mask, out + c, out)
            else:
                out = np.where(mask, out + (c + s * x), out)
        return out


class CallableScore(ScoreFunction):
    """Generic score evaluated through a vectorized callable."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], constant_part: float):
        self.fn = fn
        self.constant_part = float(constant_part)

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


def _zero_score() -> PiecewiseScore:
    return PiecewiseScore(0.0, ())


@dataclass(frozen=True)
class PiecewiseTable:
    """The piecewise-linear scores of many pairs, flattened into arrays.

    Row ``r`` scores ``bases[r]`` plus ``const[c] + slope[c] * x`` on
    ``[cuts[lo[c]], cuts[hi[c]])`` for every component ``c`` with
    ``row[c] == r``.  Components are ordered by row, then as the row's
    score lists them.  ``lo`` and ``hi`` index the interval ends stored once
    in ``cuts``, so a sample is located against each distinct end once.
    ``slope`` is None when every component is constant.  Pair ``p`` reads
    row ``pair_row[p]``, so pairs with one score share a row; None means
    that row ``p`` is pair ``p``.
    """

    bases: np.ndarray
    row: np.ndarray
    cuts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    const: np.ndarray
    slope: np.ndarray | None
    pair_row: np.ndarray | None = None

    @classmethod
    def from_components(cls, bases, row, lo, hi, const, slope=None, pair_row=None) -> "PiecewiseTable":
        """The table whose component ``c`` spans ``[lo[c], hi[c])``, ends given as values.

        The one place the distinct ends become ``cuts`` and the components'
        indices into them: a builder that passes the ends ``from_scores``
        would pass, in the same order, gets its table bitwise.  Each cut is
        the first end of its value, all ``lo`` before all ``hi``, so where
        ``0.0`` and ``-0.0`` meet, the first one's sign stays.
        """
        stacked = np.stack([lo, hi])
        _, first, ends = np.unique(stacked, return_index=True, return_inverse=True)
        ends = ends.reshape(2, -1)
        return cls(bases, row, stacked.ravel()[first], ends[0], ends[1], const, slope, pair_row)

    @classmethod
    def from_scores(cls, scores: Sequence[PiecewiseScore]) -> "PiecewiseTable":
        row = [p for p, t in enumerate(scores) for _ in t.components]
        flat = np.asarray([c for t in scores for c in t.components], dtype=float).reshape(-1, 4)
        return cls.from_components(
            np.array([t.base for t in scores], dtype=float),
            np.asarray(row, dtype=np.intp),
            flat[:, 0],
            flat[:, 1],
            flat[:, 2],
            flat[:, 3] if flat[:, 3].any() else None,
        )


# ---------------------------------------------------------------------------
# TV score family
# ---------------------------------------------------------------------------


def _interval_prob(m: Measure, a: float, b: float) -> float:
    return float(m.cdf(np.array([b]))[0] - m.cdf(np.array([a]))[0])


def _tv_score(P: Measure, Q: Measure) -> ScoreFunction:
    """TV family score; strict comparisons, so p = q regions only shift the constant."""
    kind = pair_kind(P, Q)
    if kind == "atomic":
        pts, (vp, vq) = atom_mass_matrix(P, Q)
        p_gt = vp > vq
        q_gt = vq > vp
        const = 0.5 * (vp[p_gt].sum() - vq[q_gt].sum())
        values = 0.5 * (q_gt.astype(float) - p_gt.astype(float)) + const
        return AtomScore(pts, values, const)

    if kind == "partition":
        edges = P.partition.edges
        hp, hq = P.heights, Q.heights
        const = 0.5 * float(
            P.cell_masses[hp > hq].sum() - Q.cell_masses[hq > hp].sum()
        )
        cells = P.partition.cells
        comps = []
        for k in range(cells):
            s = 0.5 if hq[k] > hp[k] else -0.5 if hp[k] > hq[k] else 0.0
            if s != 0.0:
                # The last cell's right edge is closed.
                hi = _UP(edges[k + 1], math.inf) if k == cells - 1 else edges[k + 1]
                comps.append((edges[k], hi, s, 0.0))
        return PiecewiseScore(const, comps)

    regions = _tv_sign_regions(P, Q, kind)
    # -1/2 where p > q, +1/2 where q > p.
    comps = [(ea, ec, -0.5 * s, 0.0) for _, _, s, ea, ec in regions if s != 0.0]
    if kind in _TRANSLATION_LOCATIONS:
        # The base is exactly 0 (see ``_TRANSLATION_LOCATIONS``); a difference
        # of region probabilities would leave half-ulp dust that the
        # epsilon = 1/2 median guarantee cannot absorb.
        return PiecewiseScore(0.0, comps)
    prob_p_gt = 0.0
    prob_q_gt = 0.0
    for a, c, s, _, _ in regions:
        if s > 0:  # p > q
            prob_p_gt += _interval_prob(P, a, c)
        elif s < 0:
            prob_q_gt += _interval_prob(Q, a, c)
    return PiecewiseScore(0.5 * (prob_p_gt - prob_q_gt), comps)


# The equal-shape translation kinds, each with the parameter its measures
# move.  A pair's TV regions follow from its locations, and its TV base and
# Hellinger constant are exactly 0 by reflection about the midpoint.
_TRANSLATION_LOCATIONS = {kind: _MEASURE_FAMILIES[kind].location for kind in ("gaussian", "cauchy", "uniform")}


def _translation_regions(kind: str, cp, cq, width) -> tuple:
    """The two sign regions of p - q for equal-shape translation pairs, elementwise.

    The one statement of the rule, for one pair (``_tv_sign_regions``) and
    for arrays of pairs (``translation_pair_table``).  ``kind`` is a key of
    ``_TRANSLATION_LOCATIONS``, ``cp != cq`` are the locations and ``width``
    a uniform pair's shared width.  Returns ``(s, a1, c1, a2, e2, c2)``:
    p - q has sign ``s`` on ``[a1, c1]`` and ``-s`` on ``[a2, c2]``, and the
    score evaluates the two regions on ``[a1, c1)`` and ``[e2, c2)``; for
    Gaussian and Cauchy pairs they are half-lines.  Ties resolve as ``min``
    and ``max`` of Python floats resolve them, so signed zeros come out as a
    scalar rule's.
    """
    p_lower = cp < cq
    s = np.where(p_lower, 1.0, -1.0)
    if kind == "uniform":
        # Supports are right-open, so both regions are naturally [lo, hi).
        low, up = np.where(p_lower, cp, cq), np.where(p_lower, cq, cp)
        end, up_end = low + width, up + width
        c1 = np.where(end < up, end, up)  # min(up, end): end of the lower-only stretch
        c2 = np.where(up > end, up, end)  # max(end, up): start of the upper-only stretch
        return s, low, c1, c2, c2, up_end
    # Gaussian and Cauchy: p > q on the half-line nearer P's centre; tie at mid.
    mid = 0.5 * (cp + cq)
    inf = np.full(np.shape(mid), math.inf)
    return s, -inf, mid, mid, _UP(mid, inf), inf


def _tv_sign_regions(P: Measure, Q: Measure, kind: str) -> list[tuple[float, float, float, float, float]]:
    """Maximal sign regions of p - q for a pair of measures without atoms.

    ``kind`` is ``measures.pair_kind(P, Q)``, which the caller has already
    asked.  A pair with atoms is refused: p - q only sees the densities, so
    an atom would fall in no region.  Each region is
    ``(lo, hi, sign, eval_lo, eval_hi)``.  Matched families get exact
    regions (Gaussian and Cauchy ones are half-lines with infinite ends):
    probabilities come from the exact ``[lo, hi]`` (boundary points are null
    for these continuous families, and nudged bounds would get amplified by
    cdfs with unbounded slope, e.g. the power family at its shift), and
    ``[eval_lo, eval_hi)`` is the score-evaluation interval, with strict
    open/closed endpoint conventions pushed one ulp where needed.  Every
    other pair is probed (sign changes located by bisection), and its
    evaluation interval is the region itself.  Neighbouring probed regions
    of one nonzero sign merge; zero regions stay as probed, since a merged
    one may not read 0 at its midpoint.
    """
    if kind in _TRANSLATION_LOCATIONS:
        location = _TRANSLATION_LOCATIONS[kind]
        cp, cq = getattr(P, location), getattr(Q, location)
        if cp == cq:
            return []
        regions = _translation_regions(kind, cp, cq, getattr(P, "width", None))
        s, a1, c1, a2, e2, c2 = (float(v) for v in regions)
        return [(a1, c1, s, a1, c1), (a2, c2, -s, e2, c2)]
    if kind == "power" and P.alpha != 1.0:
        if P.shift == Q.shift:
            return []
        if P.shift > Q.shift:
            return [(a, c, -s, ea, ec) for (a, c, s, ea, ec) in _tv_sign_regions(Q, P, kind)]
        th, th2 = P.shift, Q.shift
        if P.alpha < 1.0:
            # p > q on (th, min(th2, th+1)], q > p on (th2, th2+1].
            c1 = min(th2, th + 1.0)
            return [
                (th, c1, 1.0, _UP(th, math.inf), _UP(c1, math.inf)),
                (th2, th2 + 1.0, -1.0, _UP(th2, math.inf), _UP(th2 + 1.0, math.inf)),
            ]
        # alpha > 1: p > q on (th, th+1], q > p on (max(th+1, th2), th2+1].
        c2 = max(th + 1.0, th2)
        return [
            (th, th + 1.0, 1.0, _UP(th, math.inf), _UP(th + 1.0, math.inf)),
            (c2, th2 + 1.0, -1.0, _UP(c2, math.inf), _UP(th2 + 1.0, math.inf)),
        ]
    if P.atoms() or Q.atoms():
        raise ConfigError(
            "TV sign regions miss atoms: the pair must be purely atomic, two histograms "
            f"on one partition, or two measures without atoms; got {P!r} and {Q!r}"
        )
    diff = lambda x: P.pdf(x) - Q.pdf(x)
    edges = np.array(_sign_cuts(diff, *_union_window(P, Q), _union_breakpoints(P, Q)))
    mids = 0.5 * (edges[:-1] + edges[1:])
    out: list[tuple[float, float, float, float, float]] = []
    for a, c, v in zip(edges[:-1], edges[1:], diff(mids)):
        s = 0.0 if v == 0.0 else math.copysign(1.0, v)
        if out and s != 0.0 and out[-1][2] == s:
            a = out.pop()[0]
        out.append((float(a), float(c), s, float(a), float(c)))
    return out


# ---------------------------------------------------------------------------
# Wasserstein score family
# ---------------------------------------------------------------------------


def _wasserstein_score(P: Measure, Q: Measure) -> PiecewiseScore:
    """Wasserstein-1 family score on [0, 1].

    With s = sign(F_Q - F_P) piecewise constant, the score is the piecewise
    linear function t(x) = ∫_x^1 s(u) du + C, C = -∫_0^1 s (F_P + F_Q)/2,
    which has slope -s(x) and t's data-free part C computed by exact cdf
    integrals.
    """
    intervals = cdf_sign_intervals(P, Q)
    if all(s == 0.0 for (_, _, s) in intervals):
        return _zero_score()
    C = 0.0
    for lo, hi, s in intervals:
        if s != 0.0:
            C -= s * 0.5 * (P.cdf_integral(lo, hi) + Q.cdf_integral(lo, hi))
    comps = []
    tail = 0.0  # ∫ over intervals to the right of the current one
    for lo, hi, s in reversed(intervals):
        # On [lo, hi): t(x) = C + tail + s*(hi - x).
        hi_bound = _UP(hi, math.inf) if hi >= 1.0 else hi
        comps.append((lo, hi_bound, tail + s * hi, -s))
        tail += s * (hi - lo)
    comps.reverse()
    return PiecewiseScore(C, comps)


# ---------------------------------------------------------------------------
# L_j score family
# ---------------------------------------------------------------------------


def _lj_witness_values(dp: np.ndarray, dq: np.ndarray, j: float) -> np.ndarray:
    """f = sign(p-q) |p-q|^{j-1} / ||p-q||_j^{j-1} as values; norm handled by caller."""
    diff = dp - dq
    return np.sign(diff) * np.abs(diff) ** (j - 1.0)


def _lj_score(P: Measure, Q: Measure, j: float, family_scale: float) -> ScoreFunction:
    """L_j family score, t = (1/(2 R^{j-1})) [∫ f d(P+Q)/2 - f].

    Requires the model-level norm-ratio bound ``R`` with
    ||p - q||_inf <= R ||p - q||_j; signed densities are allowed.  ``j``
    and ``family_scale`` = R^{j-1} come from a ``LossSpec``, which checks them.
    """
    scale = 2.0 * family_scale
    dist = lj_distance(P, Q, j)
    if dist == 0.0:
        return _zero_score()
    norm_factor = dist ** (j - 1.0)

    ref = P.reference
    if isinstance(ref, PartitionRef) and Q.reference == ref:
        f_vals = _lj_witness_values(np.asarray(P.heights), np.asarray(Q.heights), j) / norm_factor
        mean_f = float(np.sum(f_vals * 0.5 * (P.cell_masses + Q.cell_masses)))
        edges = ref.edges
        comps = []
        for k in range(ref.cells):
            hi = _UP(edges[k + 1], math.inf) if k == ref.cells - 1 else edges[k + 1]
            comps.append((edges[k], hi, -f_vals[k] / scale, 0.0))
        return PiecewiseScore(mean_f / scale, comps)
    if isinstance(ref, DiscreteRef) and Q.reference == ref:
        pts = ref.points_array
        dp = P.density(pts)
        dq = Q.density(pts)
        f_vals = _lj_witness_values(dp, dq, j) / norm_factor
        w = ref.weights_array
        mean_f = float(np.sum(f_vals * 0.5 * (dp + dq) * w))
        values = (mean_f - f_vals) / scale
        return AtomScore(pts, values, mean_f / scale)
    # Lebesgue-reference continuous pair.
    fn_f = lambda x: _lj_witness_values(P.pdf(x), Q.pdf(x), j) / norm_factor
    brk = _union_breakpoints(P, Q)
    mean_f = 0.5 * (expectation(P, fn_f, brk) + expectation(Q, fn_f, brk))
    return CallableScore(lambda x: (mean_f - fn_f(x)) / scale, mean_f / scale)


# ---------------------------------------------------------------------------
# L_inf score family
# ---------------------------------------------------------------------------


def _linf_score(P: HistogramMeasure, Q: HistogramMeasure, partition: PartitionRef) -> PiecewiseScore:
    """L_inf family score for two histograms on one D-cell partition.

    Only the cell I* with the largest |P(I) - Q(I)| matters (lowest index on
    ties): t = sign(P(I*) - Q(I*)) [(P(I*) + Q(I*))/2 - 1_{I*}].
    """
    mp, mq = P.cell_masses, Q.cell_masses
    gaps = np.abs(mp - mq)
    star = int(np.argmax(gaps))  # argmax returns the lowest index on ties
    if gaps[star] == 0.0:
        return _zero_score()
    s = math.copysign(1.0, mp[star] - mq[star])
    const = s * 0.5 * (mp[star] + mq[star])
    edges = partition.edges
    hi = _UP(edges[star + 1], math.inf) if star == partition.cells - 1 else edges[star + 1]
    return PiecewiseScore(const, [(edges[star], hi, -s, 0.0)])


# ---------------------------------------------------------------------------
# Hellinger score family
# ---------------------------------------------------------------------------


def _hellinger_score(P: Measure, Q: Measure) -> ScoreFunction:
    """Squared-Hellinger family score.

    With R = (P+Q)/2 and rho the affinity ∫ sqrt(dM dM'), the score is
    t = (1/(2 sqrt2)) [rho(R,Q) - rho(R,P) + (sqrt q - sqrt p)/sqrt r]
    understood w.r.t. any common dominating measure; the ratio term is set to
    0 where p = q = 0.  The constant is one quadrature of sqrt(r) (sqrt q -
    sqrt p) for a continuous pair, and exactly 0 for a translation pair.
    """
    scale = 1.0 / (2.0 * math.sqrt(2.0))
    kind = pair_kind(P, Q)
    if kind == "atomic":
        pts, masses = atom_mass_matrix(P, Q)
        vp, vq = np.maximum(masses, 0.0)
        vr = 0.5 * (vp + vq)
        rho_q = float(np.sum(np.sqrt(vr * vq)))
        rho_p = float(np.sum(np.sqrt(vr * vp)))
        const = scale * (rho_q - rho_p)
        return AtomScore(pts, const + scale * _hellinger_ratio(vp, vq), const)

    if P.atoms() or Q.atoms():
        raise ConfigError("hellinger scores support finite spaces or continuous pairs, not mixtures")

    def densities(x):
        return np.maximum(P.pdf(x), 0.0), np.maximum(Q.pdf(x), 0.0)

    def sqrt_r_gap(x):
        p, q = densities(x)
        return np.sqrt(0.5 * (p + q)) * (np.sqrt(q) - np.sqrt(p))

    const = 0.0
    if kind not in _TRANSLATION_LOCATIONS:
        const = scale * integrate(sqrt_r_gap, *_union_window(P, Q), _union_breakpoints(P, Q))[0]
    return CallableScore(lambda x: const + scale * _hellinger_ratio(*densities(x)), const)


def _hellinger_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``(sqrt q - sqrt p) / sqrt r`` with ``r = (p + q) / 2``, and 0 where r = 0."""
    r = 0.5 * (p + q)
    return np.where(r > 0.0, (np.sqrt(q) - np.sqrt(p)) / np.sqrt(np.where(r > 0, r, 1.0)), 0.0)


# ---------------------------------------------------------------------------
# KL score family
# ---------------------------------------------------------------------------


def _kl_score(P: Measure, Q: Measure, a: float) -> ScoreFunction:
    """KL family score t = (1/(2a)) log(q/p), under the family-wide bound
    ``exp(-a) <= p/q <= exp(a)`` (checked on the atoms of a purely atomic
    pair, otherwise through ``measures._log_ratio_bound``); ``a`` comes from
    a ``LossSpec``, which checks it."""
    scale = 1.0 / (2.0 * a)
    tol = 1e-9

    if pair_kind(P, Q) == "atomic":
        pts, (vp, vq) = atom_mass_matrix(P, Q)
        if np.any(vp <= 0.0) or np.any(vq <= 0.0):
            raise ConfigError("kl scores need strictly positive densities on the space")
        logs = np.log(vq) - np.log(vp)
        if np.max(np.abs(logs)) > a + tol:
            raise ConfigError(
                f"log-ratio bound violated: |log(q/p)| reaches {np.max(np.abs(logs)):.6g} > a = {a:.6g}"
            )
        return AtomScore(pts, scale * logs, 0.0)

    bound = _log_ratio_bound([P, Q])
    if bound is None:
        raise ConfigError(
            "kl scores need a common support and a finite log-ratio bound across the family"
        )
    if bound > a + tol:
        raise ConfigError(f"log-ratio bound violated: |log(q/p)| reaches {bound:.6g} > a = {a:.6g}")

    def fn(x):
        p = P.pdf(x)
        q = Q.pdf(x)
        good = (p > 0.0) & (q > 0.0)
        out = np.where(good, np.log(np.where(good, q, 1.0)) - np.log(np.where(good, p, 1.0)), 0.0)
        return scale * out

    return CallableScore(fn, 0.0)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def score(spec: LossSpec, P: Measure, Q: Measure) -> ScoreFunction:
    """Score function of the family attached to ``spec`` for the pair (P, Q)."""
    if spec.kind == "tv":
        return _tv_score(P, Q)
    if spec.kind == "hellinger2":
        return _hellinger_score(P, Q)
    if spec.kind == "kl":
        return _kl_score(P, Q, spec.a)
    if spec.kind == "wasserstein1":
        return _wasserstein_score(P, Q)
    if spec.kind == "lj":
        return _lj_score(P, Q, spec.j, _lj_scale(spec))
    return _linf_score(P, Q, _linf_partition(spec, P, Q))  # LossSpec refuses other kinds


# ---------------------------------------------------------------------------
# All pairs of histograms on one partition at once
# ---------------------------------------------------------------------------


def partition_pair_table(spec: LossSpec, candidates: Sequence[Measure]) -> PiecewiseTable | None:
    """Scores of every pair ``i < k`` of ``candidates``, compiled at once.

    Applies when the family is TV, L_j or L_inf (for L_inf with ``D``
    equal to the cell count) and every candidate is a histogram on one
    partition; returns None otherwise, checking the family first.  Pairs
    come in ``np.triu_indices(m, 1)`` order.  The table is bitwise the one
    ``PiecewiseTable.from_scores`` builds from the per-pair ``score``
    calls, so it repeats their arithmetic exactly, one cell of every pair at
    a time.  numpy sums a row of fewer than 8 terms left to right from
    +0.0, so each pair's sum folds in cell by cell, a cell that TV leaves
    out adding 0.0.  numpy sums longer rows in blocks that depend on their
    length, so those are summed as it sums them: TV's as compacted rows
    grouped by length, and L_j's, which have a term for every cell, as one
    (pairs, cells) array.  Below 8 cells, the component arrays are the only
    (pairs, cells) float arrays built.  L_inf's cell is the first strict
    maximum of the gaps, as ``argmax`` picks it.  The norm powers of L_j are
    scalar ``pow`` calls, since array ``**`` rounds differently from it on
    some inputs, made once per distinct value (``_lj_norms``).  Every
    component is one cell, so the table's cuts are the cell starts and the
    support end closed one ulp up, and cell ``k`` spans cuts ``k`` to
    ``k + 1``.
    """
    if spec.kind not in ("tv", "lj", "linf"):
        return None
    if not all(isinstance(c, HistogramMeasure) for c in candidates):
        return None
    partition = candidates[0].partition
    if any(c.partition != partition for c in candidates):
        return None
    cells = partition.cells
    if spec.kind == "linf" and cells != spec.D:
        return None
    H = np.stack([c.heights for c in candidates])
    masses = H / cells
    iu, ku = np.triu_indices(len(H), 1)
    pairs = len(iu)
    edges = partition.edges
    cuts = np.append(edges[:-1], _UP(edges[-1], math.inf))

    def at(a, k):
        """Cell ``k`` of ``a`` at every pair's first and second candidate."""
        column = a[:, k]
        return column.take(iu), column.take(ku)

    if spec.kind == "tv":
        sum_p, sum_q = np.zeros(pairs), np.zeros(pairs)
        p_gt, q_gt = np.empty((2, pairs, cells), dtype=bool)
        for k in range(cells):
            hp, hq = at(H, k)
            mp, mq = at(masses, k)
            np.add(sum_p, mp, out=sum_p, where=np.greater(hp, hq, out=p_gt[:, k]))
            np.add(sum_q, mq, out=sum_q, where=np.greater(hq, hp, out=q_gt[:, k]))
        if cells >= 8:  # sum rows of 8 or more terms again, compacted and grouped by length
            for sums, picked, side in ((sum_p, p_gt, iu), (sum_q, q_gt, ku)):
                counts = picked.sum(axis=1)
                for c in np.unique(counts[counts >= 8]).tolist():
                    rows = np.flatnonzero(counts == c)
                    sums[rows] = masses[side[rows]][picked[rows]].reshape(-1, c).sum(axis=1)
        cell = np.flatnonzero(p_gt | q_gt)  # flat indices, made cells in place below
        # -1/2 where p > q, +1/2 where q > p: False - 0.5 and True - 0.5.
        const = np.subtract(q_gt.ravel()[cell], 0.5, dtype=float)
        pair = cell // cells
        cell -= pair * cells
        return PiecewiseTable(0.5 * (sum_p - sum_q), pair, cuts, cell, cell + 1, const, None)

    if spec.kind == "lj":
        j = spec.j
        scale = 2.0 * _lj_scale(spec)

        blocked = cells >= 8  # numpy sums these rows, a term per cell, in blocks
        if blocked:
            means = (np.abs(H[iu] - H[ku]) ** j).sum(axis=1)
        else:
            means = np.zeros(pairs)
            for k in range(cells):
                hp, hq = at(H, k)
                means += np.abs(hp - hq) ** j
        means /= cells
        keep = means != 0.0  # pairs at distance zero get the zero score
        norm = _lj_norms(means, j)
        rows = np.flatnonzero(keep)
        mean_f = np.zeros(pairs)
        const = np.empty((len(rows), cells))
        for k in range(cells):
            hp, hq = at(H, k)
            mp, mq = at(masses, k)
            f_vals = _lj_witness_values(hp, hq, j) / norm
            mean_f += f_vals * 0.5 * (mp + mq)
            const[:, k] = -f_vals[rows] / scale
        if blocked:
            f_vals = _lj_witness_values(H[iu], H[ku], j) / norm[:, None]
            mean_f = (f_vals * 0.5 * (masses[iu] + masses[ku])).sum(axis=1)
        bases = np.where(keep, mean_f / scale, 0.0)
        cell = np.tile(np.arange(cells), len(rows))
        return PiecewiseTable(bases, np.repeat(rows, cells), cuts, cell, cell + 1, const.ravel(), None)

    # L_inf
    gap_max, star = np.full(pairs, -1.0), np.zeros(pairs, dtype=np.intp)
    for k in range(cells):
        mp, mq = at(masses, k)
        gap = np.abs(mp - mq)
        star[gap > gap_max] = k  # strict, so ties keep the lowest cell, as argmax does
        np.maximum(gap_max, gap, out=gap_max)
    sp, sq = masses[iu, star], masses[ku, star]
    keep = sp - sq != 0.0
    sign = np.copysign(1.0, sp - sq)
    bases = np.where(keep, sign * 0.5 * (sp + sq), 0.0)
    rows = np.flatnonzero(keep)
    star = star[rows]
    return PiecewiseTable(bases, rows, cuts, star, star + 1, -sign[rows], None)


def _lj_norms(means: np.ndarray, j: float) -> np.ndarray:
    """Each pair's L_j norm factor ``(mean ** (1/j)) ** (j - 1)``, 1.0 at mean 0.

    Scalar ``pow`` calls, as the per-pair score makes them, once per
    bitwise-distinct mean.
    """
    bits, back = np.unique(means.view(np.int64), return_inverse=True)
    return np.array([(v ** (1.0 / j)) ** (j - 1.0) if v else 1.0 for v in bits.view(float).tolist()])[back]


# ---------------------------------------------------------------------------
# All TV pairs of an equal-shape translation model at once
# ---------------------------------------------------------------------------


def translation_pair_table(spec: LossSpec, candidates: Sequence[Measure]) -> PiecewiseTable | None:
    """TV scores of every pair ``i < k`` of ``candidates``, compiled at once.

    Applies when the family is TV and every candidate is a Gaussian, Cauchy
    or uniform measure with one shared ``sd``, ``scale`` or ``width``: the
    pairs whose score ``_tv_score`` builds from ``_translation_regions``
    alone, with base 0 and no probability.  Returns None otherwise, checking
    the family first.  Pairs come in ``np.triu_indices(m, 1)`` order.  The
    table has one row per bitwise-distinct region tuple ``(s, a1, c1, e2,
    c2)``, signed zeros told apart, and ``pair_row`` sends each pair to its
    row; the pairs with equal locations share one last row without
    components, present only when there are such pairs.  On an equal-step
    grid many pairs share a midpoint: grid-sim's 5,050 pairs have 475 rows.
    Each row's components are bitwise the ones ``score`` gives each of its
    pairs, since the same formula gives the same ends, so every pair
    evaluates bitwise as the table ``PiecewiseTable.from_scores`` builds
    from the per-pair ``score`` calls.
    """
    if spec.kind != "tv":
        return None
    first = candidates[0]
    kind = pair_kind(first, first)
    if kind not in _TRANSLATION_LOCATIONS or any(pair_kind(first, c) != kind for c in candidates):
        return None
    loc = np.array([getattr(c, _TRANSLATION_LOCATIONS[kind]) for c in candidates])
    iu, ku = np.triu_indices(len(loc), 1)
    moved = np.flatnonzero(loc[iu] != loc[ku])
    s, a1, c1, _, e2, c2 = _translation_regions(kind, loc[iu[moved]], loc[ku[moved]], getattr(first, "width", None))
    # One lexsort over the IEEE bits of each moved pair's regions groups the
    # pairs that score bitwise alike; being stable, it puts each group's
    # first pair first.  Rows follow their first pairs, so the ends come in
    # the per-pair order with the repeats left out: each value's first end
    # is the per-pair table's, and so is every cut's sign of zero.
    keys = np.stack([s, a1, c1, e2, c2]).view(np.int64)
    order = np.lexsort(keys)
    ranked = keys[:, order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    heads = order[starts]
    rep = np.sort(heads)
    pair_row = np.full(len(iu), len(rep), dtype=np.intp)  # the empty row
    pair_row[moved[order]] = np.searchsorted(rep, heads[np.cumsum(starts) - 1])
    rows = len(rep) + (len(moved) < len(iu))

    def by_row(first_region, second_region):
        return np.stack([first_region[rep], second_region[rep]], axis=1).ravel()

    # -1/2 where p > q, +1/2 where q > p, as ``_tv_score`` writes them.
    return PiecewiseTable.from_components(
        np.zeros(rows),
        np.repeat(np.arange(len(rep)), 2),
        by_row(a1, e2),
        by_row(c1, c2),
        -0.5 * by_row(s, -s),
        pair_row=pair_row,
    )


# ---------------------------------------------------------------------------
# Exact checkers for the family assumptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Worst-case slacks of the family assumptions over a model.

    Positive slack means violation; the checker lists every (pair, probe)
    combination whose slack exceeds ``tol``.
    """

    family: str
    pairs_checked: int
    worst_antisymmetry: float
    worst_mean_slack: float
    worst_oscillation: float
    worst_variance_slack: float | None
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _probe_points(measures: Sequence[Measure]) -> np.ndarray:
    """Evaluation points: all atoms of purely atomic measures, else a grid over the union window."""
    if not any(_has_continuous_part(m) for m in measures):
        return atom_mass_matrix(*measures)[0]
    lo, hi = _union_window(*measures)
    brk = _union_breakpoints(*measures)
    return np.unique(np.concatenate([np.linspace(lo, hi, _PROBE_GRID), np.asarray(brk or [lo])]))


def _score_moments(t: ScoreFunction, S: Measure) -> tuple[float, float]:
    """(E_S[t], Var_S[t]); exact on atomic S and for flat components, quadrature otherwise."""
    if isinstance(S, DiscreteMeasure):
        pts, (ms,) = atom_mass_matrix(S)
        vals = t(pts)
        mean = float(np.sum(vals * ms))
        var = float(np.sum(vals * vals * ms) - mean * mean)
        return mean, var
    if isinstance(t, PiecewiseScore) and all(s == 0.0 for (_, _, _, s) in t.components):
        # Piecewise-constant score: moments reduce to exact cdf increments.
        mean = t.base
        second = t.base * t.base
        for lo, hi, c, _ in t.components:
            prob = _interval_prob(S, lo, hi)
            mean += c * prob
            second += ((t.base + c) ** 2 - t.base * t.base) * prob
        return mean, second - mean * mean
    extra = [c[0] for c in t.components] if isinstance(t, PiecewiseScore) else ()
    mean = expectation(S, t, extra)
    second = expectation(S, lambda x: np.asarray(t(x)) ** 2, extra)
    return mean, second - mean * mean


def check_assumptions_exact(
    spec: LossSpec,
    model: Sequence[Measure],
    probes: Sequence[Measure],
    a2: float | None = None,
    tol: float = 1e-12,
) -> AssumptionReport:
    """Verify the family assumptions (i)-(iv) over a model.

    For every ordered candidate pair (P, Q), P != Q, and every probe measure
    S, checks:

        (i)   t_{(P,Q)} + t_{(Q,P)} = 0 at every evaluation point,
        (ii)  E_S[t] - [a0 loss(S,P) - a1 loss(S,Q)] <= tol,
        (iii) (sup t - inf t) - 1 <= tol,
        (iv)  Var_S[t] - a2 [loss(S,P) + loss(S,Q)] <= tol.

    ``a2`` defaults to the family constant; without either (TV, whose
    constant ``1 + a2'`` comes from ``check_cond3bis``, and the W, L_j and
    L_inf families) (iv) is skipped and ``worst_variance_slack`` is None.
    Each ordered pair's score is built once.  Violations of (i)-(iii) come
    in pair order, followed by those of (iv).  Everything is exact on finite
    spaces (atom sums, no quadrature).
    """
    consts = spec.constants
    a2 = consts.a2 if a2 is None else a2
    candidates = list(model)
    pts = _probe_points(candidates + list(probes))
    scores = {
        (i, k): score(spec, P, Q)
        for i, P in enumerate(candidates)
        for k, Q in enumerate(candidates)
        if i != k
    }
    values = {key: t(pts) for key, t in scores.items()}
    losses = [[loss(spec, S, P) for P in candidates] for S in probes] if scores else []
    worst_anti = 0.0
    worst_mean = worst_osc = worst_var = -math.inf
    violations: list[str] = []
    var_violations: list[str] = []
    for (i, k), t in scores.items():
        vals = values[(i, k)]
        anti = float(np.max(np.abs(vals + values[(k, i)])))
        worst_anti = max(worst_anti, anti)
        if anti > tol:
            violations.append(f"antisymmetry pair ({i},{k}): {anti:.3e}")
        osc = float(vals.max() - vals.min()) - 1.0
        worst_osc = max(worst_osc, osc)
        if osc > tol:
            violations.append(f"oscillation pair ({i},{k}): 1 + {osc:.3e}")
        for si, S in enumerate(probes):
            mean, var = _score_moments(t, S)
            slack = mean - (consts.a0 * losses[si][i] - consts.a1 * losses[si][k])
            worst_mean = max(worst_mean, slack)
            if slack > tol:
                violations.append(f"mean bound pair ({i},{k}) probe {si}: slack {slack:.3e}")
            if a2 is not None:
                slack = var - a2 * (losses[si][i] + losses[si][k])
                worst_var = max(worst_var, slack)
                if slack > tol:
                    var_violations.append(f"variance pair ({i},{k}) probe {si}: slack {slack:.3e}")
    return AssumptionReport(
        family=spec.kind,
        pairs_checked=len(scores),
        worst_antisymmetry=worst_anti,
        worst_mean_slack=worst_mean if scores else 0.0,
        worst_oscillation=worst_osc if scores else 0.0,
        worst_variance_slack=None if a2 is None else worst_var if scores else 0.0,
        violations=tuple(violations + var_violations),
    )


@dataclass(frozen=True)
class Cond3bisReport:
    """Result of the TV-regularity check over a model."""

    a2_prime: float
    passes: bool

    @property
    def tv_a2(self) -> float:
        """The variance constant 1 + a2' usable by the TV family."""
        return 1.0 + self.a2_prime


def check_cond3bis(model: Sequence[Measure]) -> Cond3bisReport:
    """Smallest a2' with min{P(p<=q), Q(p>q)} <= a2' TV(P,Q) over ordered pairs.

    Ratios with TV(P, Q) = 0 are skipped (the numerator vanishes too).  The
    check passes when the supremum is finite, and then the TV score family
    satisfies the variance bound with a2 = 1 + a2'.
    """
    candidates = list(model)
    worst = 0.0
    for i, P in enumerate(candidates):
        for k, Q in enumerate(candidates):
            if i == k:
                continue
            tv = tv_distance(P, Q)
            if tv == 0.0:
                continue
            kind = pair_kind(P, Q)
            if kind == "atomic":
                _, (vp, vq) = atom_mass_matrix(P, Q)
                p_le = float(vp[vp <= vq].sum())
                q_gt = float(vq[vp > vq].sum())
            elif kind == "partition":
                hp, hq = P.heights, Q.heights
                p_le = float(P.cell_masses[hp <= hq].sum())
                q_gt = float(Q.cell_masses[hp > hq].sum())
            else:
                regions = _tv_sign_regions(P, Q, kind)
                p_gt = sum(_interval_prob(P, a, c) for a, c, s, _, _ in regions if s > 0)
                q_gt = sum(_interval_prob(Q, a, c) for a, c, s, _, _ in regions if s > 0)
                p_le = 1.0 - p_gt
            worst = max(worst, min(p_le, q_gt) / tv)
    return Cond3bisReport(a2_prime=worst, passes=math.isfinite(worst))


def c1_constant(a1: float, a2: float) -> float:
    """Deviation constant c1(a1, a2); degree-one homogeneous in (a1, a2)."""
    if a1 <= 0 or a2 <= 0:
        raise ConfigError(f"c1 needs positive constants, got a1={a1}, a2={a2}")
    denom = 2.0 * (1.0 + math.log(4.0)) + 4.0 * a1 / a2 + 16.0 * a2 * math.log(2.0) / a1
    return (a1 / 2.0) / denom
