"""Closed-form deviation-bound evaluators for pairwise-score estimators.

Every function here evaluates one displayed high-probability risk bound
exactly as stated, with no hidden slack: callers supply the approximation
terms and confidence level ``xi`` and get back the number the theory
guarantees with probability at least ``1 - exp(-xi)``.

Two conventions matter throughout:

* ``thm1_bound`` and ``thm2_bound`` are stated for the *aggregate* loss
  (summed over the ``n`` coordinates of a product model); all the
  scenario-specific evaluators return per-observation bounds.
* Expected-supremum quantities are never estimated; the evaluators take
  caller-supplied surrogates (``vbar``, ``D_bar``) and
  :func:`default_vbar` records the standard values.
"""

from __future__ import annotations

import math

from .errors import ConfigError, _positive_int

__all__ = [
    "FAST_TV_CONSTANT",
    "birge_histogram_error",
    "cj_constant",
    "default_vbar",
    "fast_bound_tv",
    "l2_linear_bound",
    "linf_bound",
    "lj_histogram_bound",
    "monotone_bound",
    "monotone_iid_bound",
    "optimize_monotone_bound",
    "regression_bound",
    "thm1_bound",
    "thm2_bound",
    "vc_bound_tv",
    "vc_process_bound",
    "wasserstein_dev_bound",
]

# Numerical constant in the fast-rate TV bound ("c = 4.5e5 suits").
FAST_TV_CONSTANT = 4.5e5


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise ConfigError(f"{name} must be positive, got {value!r}")


def _require_nonnegative(**values: float) -> None:
    for name, value in values.items():
        if not value >= 0:
            raise ConfigError(f"{name} must be nonnegative, got {value!r}")


def _require_count(**values: int) -> None:
    for name, value in values.items():
        _positive_int(value, name)


def thm1_bound(
    a0: float,
    a1: float,
    epsilon: float,
    xi: float,
    n: int,
    approx_loss: float,
    vbar: float,
    loss_min: float = 0.0,
) -> float:
    """First-moment deviation bound on the aggregate loss of an estimator.

    Evaluates

    ``(2 a0 / a1) * approx_loss - loss_min
    + (sqrt(n) / a1) * (2 vbar + sqrt(2 xi) + epsilon / sqrt(n))``

    where ``approx_loss`` is the aggregate loss of an arbitrary reference
    candidate, ``loss_min`` the aggregate loss of the best candidate, and
    ``vbar`` a surrogate for the sup-norm of the centered score process
    divided by sqrt(n) (see :func:`default_vbar`).
    """
    _require_positive(a0=a0, a1=a1)
    _require_count(n=n)
    _require_nonnegative(
        epsilon=epsilon, xi=xi, approx_loss=approx_loss, vbar=vbar, loss_min=loss_min
    )
    root_n = math.sqrt(n)
    return (
        (2.0 * a0 / a1) * approx_loss
        - loss_min
        + (root_n / a1) * (2.0 * vbar + math.sqrt(2.0 * xi) + epsilon / root_n)
    )


def thm2_bound(
    a0: float,
    a1: float,
    a2: float,
    epsilon: float,
    xi: float,
    approx_loss: float,
    D_bar: float,
    loss_min: float = 0.0,
) -> float:
    """Variance-assisted deviation bound on the aggregate loss.

    Evaluates

    ``((4 a0 / a1) + 1) * approx_loss - loss_min + 2 D_bar
    + ((4 a2 / a1) + 1) * 8 xi / a1 + 2 epsilon / a1``

    where ``D_bar`` is a caller-supplied surrogate for the local
    expected-supremum complexity term at the reference candidate.
    """
    _require_positive(a0=a0, a1=a1, a2=a2)
    _require_nonnegative(
        epsilon=epsilon, xi=xi, approx_loss=approx_loss, D_bar=D_bar, loss_min=loss_min
    )
    return (
        ((4.0 * a0 / a1) + 1.0) * approx_loss
        - loss_min
        + 2.0 * D_bar
        + ((4.0 * a2 / a1) + 1.0) * 8.0 * xi / a1
        + 2.0 * epsilon / a1
    )


def default_vbar(scenario: str, vc_dimension: float | None = None) -> float:
    """Standard ``vbar`` surrogate for :func:`thm1_bound` by scenario.

    ``"wasserstein"`` and ``"l2_linear"``: the centered score process has
    coordinate oscillation 1 and its expected supremum is at most
    ``sqrt(n)/2``, so ``vbar = 1/2`` (for the quadratic family this already
    accounts for the ``1/(2R)`` scale inside ``a0 = 3/(4R)``, ``a1 = 1/(4R)``:
    the surrogate is scale-free).  ``"tv_vc"``: the VC empirical-process
    bound at ``sigma = 1`` gives an expected supremum of ``10*sqrt(5 n V)``,
    so ``vbar = 10*sqrt(5 V)`` with ``V = vc_dimension``.
    """
    if scenario in ("wasserstein", "l2_linear"):
        return 0.5
    if scenario == "tv_vc":
        if vc_dimension is None:
            raise ConfigError("scenario 'tv_vc' needs vc_dimension")
        _require_positive(vc_dimension=vc_dimension)
        return 10.0 * math.sqrt(5.0 * vc_dimension)
    raise ConfigError(f"unknown vbar scenario {scenario!r}")


def wasserstein_dev_bound(n: int, xi: float, epsilon: float, approx: float) -> float:
    """Per-observation Wasserstein-1 risk bound for i.i.d. data on [0, 1].

    ``5 * approx + (2 / sqrt(n)) * (1 + sqrt(2 xi) + epsilon / sqrt(n))``.
    """
    _require_count(n=n)
    _require_nonnegative(xi=xi, epsilon=epsilon, approx=approx)
    root_n = math.sqrt(n)
    return 5.0 * approx + (2.0 / root_n) * (
        1.0 + math.sqrt(2.0 * xi) + epsilon / root_n
    )


def l2_linear_bound(
    ratio_R: float, n: int, xi: float, epsilon: float, approx: float
) -> float:
    """Per-observation quadratic-loss bound over a linear density model.

    ``ratio_R`` is the smallest constant with ``sup-norm <= R * L2-norm`` on
    the model's linear span.  Evaluates
    ``5 * approx + (4 R / sqrt(n)) * (1 + sqrt(2 xi) + epsilon / sqrt(n))``.
    """
    _require_positive(ratio_R=ratio_R)
    _require_count(n=n)
    _require_nonnegative(xi=xi, epsilon=epsilon, approx=approx)
    root_n = math.sqrt(n)
    return 5.0 * approx + (4.0 * ratio_R / root_n) * (
        1.0 + math.sqrt(2.0 * xi) + epsilon / root_n
    )


def vc_bound_tv(V: float, n: int, xi: float, epsilon: float, approx: float) -> float:
    """Per-observation TV risk bound under a uniform VC-index control.

    ``5 * approx + 40*sqrt(5 V / n) + 2*sqrt(2 xi / n) + 2 epsilon / n``
    where ``V >= 1`` bounds the VC dimension of the density cross-sections
    ``{pbar < q}`` and ``{pbar > q}`` uniformly over the model.
    """
    _require_count(n=n)
    if not V >= 1:
        raise ConfigError(f"V must be at least 1, got {V!r}")
    _require_nonnegative(xi=xi, epsilon=epsilon, approx=approx)
    return (
        5.0 * approx
        + 40.0 * math.sqrt(5.0 * V / n)
        + 2.0 * math.sqrt(2.0 * xi / n)
        + 2.0 * epsilon / n
    )


def fast_bound_tv(a2: float, V: float, n: int, xi: float, approx: float) -> float:
    """Fast-rate (1/n) TV risk bound under the variance-domination condition.

    ``14 * approx + (144 a2 / n) * (c a2^2 V log(2 e n / (V ^ n)) + 2 + xi)``
    with ``c = FAST_TV_CONSTANT``.  Valid for estimators run with
    slack ``epsilon <= 1/3`` (the display absorbs the epsilon term).
    """
    _require_positive(a2=a2)
    _require_count(n=n)
    if not V >= 1:
        raise ConfigError(f"V must be at least 1, got {V!r}")
    _require_nonnegative(xi=xi, approx=approx)
    v_cap = min(V, float(n))
    log_term = math.log(2.0 * math.e * n / v_cap)
    return 14.0 * approx + (144.0 * a2 / n) * (
        FAST_TV_CONSTANT * a2**2 * V * log_term + 2.0 + xi
    )


def cj_constant(j: float) -> float:
    """Leading constant of the histogram L_j risk bound.

    4 for ``j`` in (1, 2]; for ``j > 2``:
    ``8 * max(2^(1-1/j) * sqrt(j sqrt(e) / (sqrt(e)-1)) + sqrt(j / (e - sqrt(e))),
    j sqrt(e) / (2^(1/j) (sqrt(e)-1)))``.
    """
    if not j > 1:
        raise ConfigError(f"j must exceed 1, got {j!r}")
    if j <= 2:
        return 4.0
    root_e = math.sqrt(math.e)
    first = 2.0 ** (1.0 - 1.0 / j) * math.sqrt(j * root_e / (root_e - 1.0)) + math.sqrt(
        j / (math.e - root_e)
    )
    second = j * root_e / (2.0 ** (1.0 / j) * (root_e - 1.0))
    return 8.0 * max(first, second)


def lj_histogram_bound(
    j: float,
    D: int,
    n: int,
    xi: float,
    epsilon: float,
    approx: float,
    hist_norm: float = 1.0,
) -> float:
    """L_j risk bound over the D-cell equal-mass histogram model.

    Evaluates ``5 * approx + C_j * sqrt((D/n) * hist_norm)
    + (4 D^(1-1/j) / sqrt(n)) * (sqrt(2 xi) + epsilon / sqrt(n))``,
    where ``hist_norm`` is the (mu, j/2)-norm of the cell-averaged true
    density (between ``min(1, D^(1-2/j))`` and ``max(1, D^(1-2/j))``).

    Parameters
    ----------
    j : exponent of the loss, in (1, inf).
    D : number of cells, between 2 and n.
    hist_norm : plug-in for the cell-averaged density norm; defaults to the
        value attained when the averaged density is flat.
    """
    if not j > 1:
        raise ConfigError(f"j must exceed 1, got {j!r}")
    _require_count(D=D, n=n)
    if n < 2 or not 2 <= D <= n:
        raise ConfigError(f"need n >= 2 and D in 2..n, got D={D!r}, n={n!r}")
    _require_nonnegative(xi=xi, epsilon=epsilon, approx=approx)
    _require_positive(hist_norm=hist_norm)
    root_n = math.sqrt(n)
    return (
        5.0 * approx
        + cj_constant(j) * math.sqrt(D / n * hist_norm)
        + (4.0 * D ** (1.0 - 1.0 / j) / root_n)
        * (math.sqrt(2.0 * xi) + epsilon / root_n)
    )


def linf_bound(D: int, n: int, xi: float, epsilon: float, approx: float) -> float:
    """Sup-norm risk bound over the D-cell equal-mass histogram model.

    ``5 * approx + 2 D (sqrt(2 log(2D) / n) + sqrt(2 xi / n) + epsilon / n)``
    for ``n >= 2`` and ``D >= 2``.
    """
    _require_count(D=D, n=n)
    if n < 2 or D < 2:
        raise ConfigError(f"need n >= 2 and D >= 2, got D={D!r}, n={n!r}")
    _require_nonnegative(xi=xi, epsilon=epsilon, approx=approx)
    return 5.0 * approx + 2.0 * D * (
        math.sqrt(2.0 * math.log(2.0 * D) / n)
        + math.sqrt(2.0 * xi / n)
        + epsilon / n
    )


def regression_bound(d: int, n: int, xi: float, approx: float) -> float:
    """Per-coordinate TV bound for location regression with unimodal errors.

    ``5 * approx + 277 * sqrt((d + 1) / n) + 2 * sqrt(2 xi / n)`` where ``d``
    is the dimension of the linear space containing the location parameters.
    Valid for estimators run with slack ``epsilon <= 1/2`` (no epsilon term).
    """
    _require_count(d=d, n=n)
    _require_nonnegative(xi=xi, approx=approx)
    return (
        5.0 * approx
        + 277.0 * math.sqrt((d + 1.0) / n)
        + 2.0 * math.sqrt(2.0 * xi / n)
    )


def monotone_bound(d: int, n: int, xi: float, approx: float) -> float:
    """Averaged TV bound for the monotone-density model at a fixed piece count.

    Single-``d`` term of the shape-constrained display:
    ``5 * approx + 41 * sqrt(10 d / n) + 2 * sqrt(2 xi / n)`` where ``approx``
    is the averaged model error of the best non-increasing ``d``-piece
    histogram.  Valid for slack ``epsilon <= 1``; the optimized display takes
    the infimum of the first two terms over ``d >= 1``.
    """
    _require_count(d=d, n=n)
    _require_nonnegative(xi=xi, approx=approx)
    return (
        5.0 * approx
        + 41.0 * math.sqrt(10.0 * d / n)
        + 2.0 * math.sqrt(2.0 * xi / n)
    )


def monotone_iid_bound(d: int, n: int, xi: float, approx: float) -> float:
    """I.i.d. L1 variant of :func:`monotone_bound` at a fixed piece count.

    ``5 * (approx + 16.4 * sqrt(10 d / n)) + 4 * sqrt(2 xi / n)`` with
    ``approx`` the L1 error of the best non-increasing ``d``-piece histogram.
    """
    _require_count(d=d, n=n)
    _require_nonnegative(xi=xi, approx=approx)
    return 5.0 * (approx + 16.4 * math.sqrt(10.0 * d / n)) + 4.0 * math.sqrt(
        2.0 * xi / n
    )


def birge_histogram_error(height: float, width: float, pieces: int) -> float:
    """Best d-piece histogram L1 error for a monotone density.

    A non-increasing density with variation at most ``height`` on a support
    of length at most ``width`` admits a ``pieces``-piece histogram within
    ``exp(log(height * width + 1) / pieces) - 1`` in L1.
    """
    _require_nonnegative(height=height)
    _require_positive(width=width)
    _require_count(pieces=pieces)
    return math.expm1(math.log1p(height * width) / pieces)


def optimize_monotone_bound(
    height: float,
    width: float,
    n: int,
    xi: float,
    d_max: int | None = None,
) -> tuple[int, float]:
    """Minimize the i.i.d. monotone-density bound over the piece count.

    Plugs :func:`birge_histogram_error` into :func:`monotone_iid_bound` and
    scans integer ``d`` upward, stopping once the increasing deviation part
    alone exceeds the incumbent, so no cap is needed; ``d_max`` optionally limits
    the scan anyway.  Returns ``(best_d, best_value)``.
    """
    _require_count(n=n)
    if d_max is not None:
        _require_count(d_max=d_max)
    best_d, best_value = 0, math.inf
    d = 1
    while d_max is None or d <= d_max:
        value = monotone_iid_bound(d, n, xi, birge_histogram_error(height, width, d))
        if value < best_value:
            best_d, best_value = d, value
        elif monotone_iid_bound(d, n, xi, 0.0) >= best_value:
            break
        d += 1
    return best_d, best_value


def vc_process_bound(sigma: float, V: float, n: int) -> float:
    """Expected supremum of a centered VC-indexed counting process.

    For independent draws and a VC class of dimension at most ``V`` whose
    sets all have average probability at most ``sigma**2`` (``sigma`` in
    (0, 1]):

    ``10 (sigma v a) sqrt(n V (5 + log(1 / (sigma v a))))`` with
    ``a = min(32 sqrt((V ^ n)/n * log(2 e n / (V ^ n))), 1)``.
    """
    if not 0 < sigma <= 1:
        raise ConfigError(f"sigma must lie in (0, 1], got {sigma!r}")
    if not V >= 1:
        raise ConfigError(f"V must be at least 1, got {V!r}")
    _require_count(n=n)
    v_cap = min(V, float(n))
    a = min(32.0 * math.sqrt(v_cap / n * math.log(2.0 * math.e * n / v_cap)), 1.0)
    scale = max(sigma, a)
    return 10.0 * scale * math.sqrt(n * V * (5.0 + math.log(1.0 / scale)))
