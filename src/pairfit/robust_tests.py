"""Two-point robust tests and their error-probability evaluators.

A two-point test compares candidates ``P`` and ``Q`` by the sign of the
pairwise score statistic: positive means the data side with ``Q``, negative
with ``P``, zero is a tie.  :func:`run_test` wraps the estimator engine for
this two-candidate case; :func:`devroye_lugosi_test` implements the older
frequency-comparison test for total variation, which is asymmetric in
``(P, Q)`` and serves as a contrast case.

The bound evaluators map true-distribution loss descriptors to explicit
wrong-decision probabilities.  Each returns 1.0 when its contrast condition
fails (``gamma >= 1`` or ``kappa >= 1/2``): that regime carries no
guarantee, and a trivial bound is more useful to a sweep than an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .bounds import _require_count, _require_nonnegative, _require_positive
from .errors import ConfigError
from .estimator import Model, PairwiseEngine, _sample_array
from .losses import LossSpec
from .measures import Measure, atom_mass_matrix, locate_points, pair_kind
from .testfam import _interval_prob, _tv_sign_regions

__all__ = [
    "Decision",
    "TestOutcome",
    "run_test",
    "devroye_lugosi_test",
    "hoeffding_bound",
    "bernstein_bound",
    "hellinger_test_bound",
    "variational_bound",
    "lj_test_bound",
]

_SQRT2 = math.sqrt(2.0)


class Decision(Enum):
    """Which candidate a two-point test selects."""

    CHOOSE_P = "choose_p"
    CHOOSE_Q = "choose_q"
    TIE = "tie"


@dataclass(frozen=True)
class TestOutcome:
    """A test decision together with the statistic that produced it."""

    decision: Decision
    statistic: float


def _sign_decision(statistic: float) -> Decision:
    if statistic > 0.0:
        return Decision.CHOOSE_Q
    if statistic < 0.0:
        return Decision.CHOOSE_P
    return Decision.TIE


def _pair_model(
    P: Measure | Sequence[Measure], Q: Measure | Sequence[Measure]
) -> Model:
    """The two-candidate model ``[P, Q]`` that the test's engine is built on."""
    p_single = isinstance(P, Measure)
    q_single = isinstance(Q, Measure)
    if p_single != q_single:
        raise ConfigError(
            "P and Q must both be measures or both be per-coordinate sequences"
        )
    if p_single:
        return Model(candidates=[P, Q])
    return Model(candidates=[list(P), list(Q)], product_form="tuples")


def run_test(
    sample: np.ndarray,
    P: Measure | Sequence[Measure],
    Q: Measure | Sequence[Measure],
    loss: LossSpec,
) -> TestOutcome:
    """Run the pairwise-score test between two candidates.

    ``P`` and ``Q`` are either both single measures (an i.i.d. sample) or
    both sequences of per-coordinate measures of the sample's length.  The
    statistic is the two-candidate pairwise matrix entry ``T(X, P, Q)``;
    the decision follows its sign (``CHOOSE_Q`` when positive, ``CHOOSE_P``
    when negative, ``TIE`` at zero, which by antisymmetry is the same as
    comparing ``T(X, P, Q)`` against ``T(X, Q, P)``).  This builds the
    pair's engine for one sample; a Monte Carlo loop over one pair builds
    it once and scores blocks of samples with ``pair_statistics``.
    """
    engine = PairwiseEngine(loss, _pair_model(P, Q))
    # One-dimensional only: the engine would read a 2-D array as a block.
    statistic = float(engine.pair_statistics(_sample_array(sample))[0])
    return TestOutcome(decision=_sign_decision(statistic), statistic=statistic)


def _q_dominates_split(
    P: Measure, Q: Measure
) -> tuple[Callable[[np.ndarray], np.ndarray], float, float]:
    """The set ``A = {q > p}``: a sample-membership test, ``P(A)``, ``Q(A)``.

    Purely atomic pairs compare atom masses directly, and their membership
    test raises ``ConfigError`` on a value that is no atom of ``P`` or ``Q``;
    other pairs reuse the total-variation sign regions (exact for the
    matched translation families, probed elsewhere), with membership
    following the same half-open evaluation intervals as the TV score, and
    a pair with atoms raises ``ConfigError`` there.
    """
    kind = pair_kind(P, Q)
    if kind == "atomic":
        points, (vp, vq) = atom_mass_matrix(P, Q)
        in_a = vq > vp
        # Left-to-right Python float sums: numpy's pairwise sum rounds differently.
        prob_p = float(sum(vp[in_a].tolist()))
        prob_q = float(sum(vq[in_a].tolist()))

        def member(xs: np.ndarray) -> np.ndarray:
            return in_a[locate_points(points, xs, "the pair's finite space")]

        return member, prob_p, prob_q

    negative = [(a, c, ea, ec) for (a, c, s, ea, ec) in _tv_sign_regions(P, Q, kind) if s < 0]
    prob_p = float(sum(_interval_prob(P, a, c) for a, c, _, _ in negative))
    prob_q = float(sum(_interval_prob(Q, a, c) for a, c, _, _ in negative))

    def member(xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape, dtype=bool)
        for _, _, ea, ec in negative:
            out |= (xs >= ea) & (xs < ec)
        return out

    return member, prob_p, prob_q


def devroye_lugosi_test(
    sample: np.ndarray, P: Measure, Q: Measure
) -> TestOutcome:
    """Frequency-comparison test on the set where ``q`` exceeds ``p``.

    The statistic is ``|f - Q(A)| - |f - P(A)|`` with ``A = {q > p}`` and
    ``f`` the fraction of sample points in ``A``; ``P`` is rejected exactly
    when it is positive, so a zero statistic keeps ``P`` rather than tying.
    Unlike :func:`run_test` this comparison is asymmetric in ``(P, Q)``:
    when every sample point lands where the densities agree, it picks
    whichever candidate puts less mass on ``A``.  The sample is checked as
    :func:`run_test` checks it, except that an empty one reads frequency 0;
    for a purely atomic pair every value must be an atom of ``P`` or ``Q``.
    """
    xs = _sample_array(sample, allow_empty=True)
    member, prob_p, prob_q = _q_dominates_split(P, Q)
    freq = float(np.mean(member(xs))) if xs.size else 0.0
    statistic = abs(freq - prob_q) - abs(freq - prob_p)
    decision = Decision.CHOOSE_Q if statistic > 0.0 else Decision.CHOOSE_P
    return TestOutcome(decision=decision, statistic=statistic)


def hoeffding_bound(a1: float, gamma: float, agg_loss_Q: float, n: int) -> float:
    """Bounded-increment wrong-decision bound for the two-point test.

    Evaluates ``exp[-(2 agg_loss_Q^2 / n) (a1 (1 - gamma))^2]`` where
    ``agg_loss_Q`` is the aggregate loss from the truth to ``Q`` and
    ``gamma = a0 loss(truth, P) / (a1 agg_loss_Q)`` measures how much
    closer the truth is to ``P``.  Returns 1.0 when ``gamma >= 1`` (the
    test carries no guarantee there).
    """
    _require_positive(a1=a1, agg_loss_Q=agg_loss_Q)
    _require_nonnegative(gamma=gamma)
    _require_count(n=n)
    if gamma >= 1.0:
        return 1.0
    exponent = (2.0 * agg_loss_Q**2 / n) * (a1 * (1.0 - gamma)) ** 2
    return math.exp(-exponent)


def bernstein_bound(
    a0: float, a1: float, a2: float, gamma: float, agg_loss_Q: float
) -> float:
    """Variance-adjusted wrong-decision bound for the two-point test.

    Evaluates

    ``exp[-(agg_loss_Q / 2) * a1 (1-gamma)^2 /
    ((1-gamma)/3 + (1 + gamma a1/a0) a2/a1)]``

    which improves on :func:`hoeffding_bound` when the score family also
    controls variances (constant ``a2``).  Returns 1.0 when
    ``gamma >= 1``.
    """
    _require_positive(a0=a0, a1=a1, a2=a2, agg_loss_Q=agg_loss_Q)
    _require_nonnegative(gamma=gamma)
    if gamma >= 1.0:
        return 1.0
    numerator = a1 * (1.0 - gamma) ** 2
    denominator = (1.0 - gamma) / 3.0 + (1.0 + gamma * (a1 / a0)) * (a2 / a1)
    return math.exp(-(agg_loss_Q / 2.0) * numerator / denominator)


def hellinger_test_bound(
    h2_star_P: float, h2_star_Q: float, n: int
) -> dict[str, float | None]:
    """Wrong-decision bound for the squared-Hellinger two-point test.

    From the truth's squared Hellinger distances to both candidates, forms
    ``gamma = (3 + 2 sqrt 2) h2_star_P / h2_star_Q`` and, when it is below
    one, the bound

    ``exp[-3 (sqrt 2 - 1) (1-gamma)^2 n h2_star_Q /
    (4 (9 sqrt 2 + 10 + gamma (9 sqrt 2 - 10)))]``.

    Returns ``{"gamma": ..., "bound": ...}`` with ``bound`` None when
    ``gamma >= 1``.  This display is the :func:`bernstein_bound` evaluated
    at the squared-Hellinger family constants; the two routes are kept
    separate and cross-checked in tests.
    """
    _require_nonnegative(h2_star_P=h2_star_P)
    _require_count(n=n)
    if h2_star_Q <= 0.0:
        raise ConfigError(
            f"squared Hellinger distance to Q must be positive, got {h2_star_Q!r}"
        )
    gamma = (3.0 + 2.0 * _SQRT2) * h2_star_P / h2_star_Q
    if gamma >= 1.0:
        return {"gamma": gamma, "bound": None}
    numerator = 3.0 * (_SQRT2 - 1.0) * (1.0 - gamma) ** 2 * n * h2_star_Q
    denominator = 4.0 * (9.0 * _SQRT2 + 10.0 + gamma * (9.0 * _SQRT2 - 10.0))
    return {"gamma": gamma, "bound": math.exp(-numerator / denominator)}


def variational_bound(kappa: float, b: float, loss_PQ: float, n: int) -> float:
    """Wrong-decision bound for losses with a variational (sup-form) score.

    ``kappa`` bounds ``loss(truth, P) <= kappa * loss_PQ`` with
    ``loss_PQ = loss(P, Q)`` and ``b`` is the score oscillation; the bound
    is ``exp[-(1 - 2 kappa)^2 n loss_PQ^2 / (2 b^2)]``.  Returns 1.0 when
    ``kappa >= 1/2``.
    """
    _require_positive(b=b, loss_PQ=loss_PQ)
    _require_nonnegative(kappa=kappa)
    _require_count(n=n)
    if kappa >= 0.5:
        return 1.0
    exponent = ((1.0 - 2.0 * kappa) ** 2 / (2.0 * b**2)) * n * loss_PQ**2
    return math.exp(-exponent)


def lj_test_bound(
    j: float,
    R: float,
    gamma: float,
    mean_loss_Q: float,
    n: int,
    iid: bool = False,
) -> float:
    """Wrong-decision bound for the L_j two-point test on density norms.

    ``mean_loss_Q`` is the per-coordinate mean of ``||truth_i - q||_j``
    and ``R = ||p - q||_inf / ||p - q||_j`` the flatness ratio; the bound
    is ``exp[-(1-gamma)^2 n mean_loss_Q^2 / (8 R^(2(j-1)))]``.  With
    ``iid=True`` it evaluates the i.i.d. special case, whose denominator
    is 32 instead of 8 (a quarter of the exponent).  Returns 1.0 when
    ``gamma >= 1``.
    """
    if not j > 1.0:
        raise ConfigError(f"the L_j test needs j > 1, got {j!r}")
    _require_positive(R=R, mean_loss_Q=mean_loss_Q)
    _require_nonnegative(gamma=gamma)
    _require_count(n=n)
    if gamma >= 1.0:
        return 1.0
    denominator = (32.0 if iid else 8.0) * R ** (2.0 * (j - 1.0))
    exponent = ((1.0 - gamma) ** 2 * n / denominator) * mean_loss_Q**2
    return math.exp(-exponent)
