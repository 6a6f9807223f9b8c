"""Measures, reference measures, quadrature, and statistical distances.

This module is the numerical foundation of the package.  It provides:

    * reference measures (Lebesgue, equal-mass interval partitions, weighted
      discrete spaces);
    * concrete measure families (Gaussian, Cauchy, uniform, power, histogram,
      discrete / point mass / empirical, two-component contamination mixtures),
      each exposing densities, cdfs, sampling, and quadrature hints;
    * a globally adaptive composite Simpson integrator whose panels start at
      caller-supplied breakpoints;
    * distances: total variation, squared Hellinger, Kullback-Leibler,
      Wasserstein-1 on [0, 1], and L_j norms of density differences, each with
      closed forms where available and quadrature otherwise.

Conventions used throughout:

    * Every measure decomposes as an absolutely continuous part (``pdf``,
      density w.r.t. Lebesgue on the real line) plus finitely many atoms
      (``atoms()``).  Purely continuous measures return no atoms; purely atomic
      measures have ``pdf == 0``.
    * ``density`` is the density w.r.t. the measure's *own* reference (heights
      for histograms, mass/weight ratios on discrete spaces); it matters for
      L_j norms, whereas TV / Hellinger / KL are reference-free.
    * A caller-supplied density function is taken at face value as the
      canonical version of the density.
    * Randomness flows only through explicit ``numpy.random.Generator``
      instances; ``philox_rng`` builds counter-based generators keyed by
      ``(seed, stream)`` so replications are reproducible and order-free.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special as _special

from .errors import ConfigError, NumericalError

__all__ = [
    "LebesgueRef",
    "PartitionRef",
    "DiscreteRef",
    "Measure",
    "GaussianMeasure",
    "CauchyMeasure",
    "UniformMeasure",
    "PowerMeasure",
    "HistogramMeasure",
    "DiscreteMeasure",
    "point_mass",
    "MixtureMeasure",
    "integrate",
    "sign_change_points",
    "expectation",
    "philox_rng",
    "atom_mass_matrix",
    "locate_points",
    "empirical_measure",
    "tv_distance",
    "hellinger_sq",
    "kl_divergence",
    "wasserstein1",
    "lj_distance",
    "cdf_sign_intervals",
]

_PROB_TOL = 1e-9
_QUAD_TOL = 1e-8
_QUAD_MAX_PANELS = 1 << 20
_QUAD_ERR_BUDGET = 1e-6  # largest error estimate ``integrate`` returns
_PROBE_COUNT = 4096
_BISECT_ITERS = 90


# ---------------------------------------------------------------------------
# Reference measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LebesgueRef:
    """Lebesgue measure on the real line."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "LebesgueRef()"


@dataclass(frozen=True)
class PartitionRef:
    """Normalized Lebesgue measure on a regular partition of an interval.

    The interval ``support`` is split into ``cells`` equal cells and the
    reference gives each cell mass ``1 / cells`` (total mass one).
    """

    cells: int
    support: tuple[float, float]

    def __post_init__(self) -> None:
        lo, hi = self.support
        if self.cells < 1:
            raise ConfigError(f"partition needs at least one cell, got {self.cells}")
        if not hi > lo:
            raise ConfigError(f"partition support must be an interval, got {self.support}")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.support[0], self.support[1], self.cells + 1)

    @property
    def cell_width(self) -> float:
        return (self.support[1] - self.support[0]) / self.cells

    def locate(self, x: np.ndarray) -> np.ndarray:
        """Cell index of each point, or -1 outside the support.

        Cells are half-open ``[e_k, e_{k+1})`` except the last, which is
        closed on the right.
        """
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        scaled = (x - lo) / (hi - lo) * self.cells
        idx = np.floor(scaled).astype(int)
        idx = np.where(x == hi, self.cells - 1, idx)
        outside = (x < lo) | (x > hi)
        return np.where(outside, -1, np.clip(idx, 0, self.cells - 1))


@dataclass(frozen=True)
class DiscreteRef:
    """Finite weighted discrete space: points ``x_i`` with weights ``w_i > 0``."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.weights):
            raise ConfigError("discrete reference needs one weight per point")
        if len(self.points) == 0:
            raise ConfigError("discrete reference needs at least one point")
        if any(w <= 0 for w in self.weights):
            raise ConfigError("discrete reference weights must be positive")
        if list(self.points) != sorted(set(self.points)):
            raise ConfigError("discrete reference points must be sorted and distinct")

    @property
    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @property
    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def locate(self, x: np.ndarray) -> np.ndarray:
        """Index of each value in the point list; raises if a value is foreign."""
        return locate_points(self.points_array, x, "the discrete space")


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Globally adaptive composite Simpson rule on ``[a, b]``.

    Initial panels are seeded by the sorted breakpoints that fall inside the
    interval; the panel with the largest Richardson error estimate
    ``|S_fine - S_coarse| / 15`` is bisected until the summed estimate drops
    below ``_QUAD_TOL``, the panel budget is exhausted, or panels hit the
    floating-point width floor.

    Returns:
        ``(value, error_estimate)``, the estimate at most ``_QUAD_ERR_BUDGET``.

    Raises:
        NumericalError: if the integrand returns a non-finite value, or the
            error estimate ends above ``_QUAD_ERR_BUDGET``.
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

    def evaluate(x: np.ndarray) -> np.ndarray:
        y = np.asarray(fn(x), dtype=float)
        if not np.all(np.isfinite(y)):
            bad = np.asarray(x)[~np.isfinite(y)]
            raise NumericalError(f"non-finite integrand value near x={bad.flat[0]!r}")
        return y

    # Panel record: (-err, lo, width, S_coarse, S_fine, f at the 5 quartic nodes).
    # Each initial segment starts as 8 uniform panels so smooth integrands
    # usually finish without entering the refinement loop.
    heap: list[tuple] = []
    accepted_value = 0.0
    accepted_err = 0.0
    pending_err = 0.0
    n_panels = 0
    counter = 0  # tie-breaker to keep heap comparisons on scalars

    def push_panel(lo: float, width: float, f5: np.ndarray) -> None:
        nonlocal pending_err, n_panels, counter, accepted_value, accepted_err
        h = width / 2.0
        s_coarse = (width / 6.0) * (f5[0] + 4.0 * f5[2] + f5[4])
        s_left = (h / 6.0) * (f5[0] + 4.0 * f5[1] + f5[2])
        s_right = (h / 6.0) * (f5[2] + 4.0 * f5[3] + f5[4])
        s_fine = s_left + s_right
        err = abs(s_fine - s_coarse) / 15.0
        scale = max(1.0, abs(lo), abs(lo + width))
        if width < 64.0 * np.finfo(float).eps * scale:
            # Width floor: accept as-is, the panel cannot be refined further.
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


def sign_change_points(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Sequence[float] = (),
) -> list[float]:
    """Sign changes of ``fn`` on ``[a, b]``, located by probing plus bisection.

    The probe grid is the union of ``_PROBE_COUNT`` equispaced points and the given
    breakpoints.  Strict sign flips between adjacent probes are refined by
    bisection; probe points where ``fn`` is exactly zero are returned as-is.
    """
    if b <= a:
        return []
    grid = np.linspace(a, b, _PROBE_COUNT)
    extra = [float(p) for p in breakpoints if a < p < b]
    if extra:
        grid = np.unique(np.concatenate([grid, np.asarray(extra)]))
    vals = np.asarray(fn(grid), dtype=float)
    signs = np.sign(vals)

    # Zero plateaus: keep only the first and last probe of each zero run.
    out: list[float] = []
    zero_idx = np.flatnonzero(signs == 0.0)
    if zero_idx.size:
        runs = np.split(zero_idx, np.flatnonzero(np.diff(zero_idx) > 1) + 1)
        for run in runs:
            out.append(float(grid[run[0]]))
            if run[-1] != run[0]:
                out.append(float(grid[run[-1]]))
    flip = signs[:-1] * signs[1:] < 0
    lo = grid[:-1][flip].copy()
    hi = grid[1:][flip].copy()
    if lo.size:
        flo = vals[:-1][flip].copy()
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            fmid = np.asarray(fn(mid), dtype=float)
            go_left = flo * fmid <= 0.0
            hi = np.where(go_left, mid, hi)
            keep_lo = ~go_left
            lo = np.where(keep_lo, mid, lo)
            flo = np.where(keep_lo, fmid, flo)
        out.extend(float(x) for x in 0.5 * (lo + hi))
    return sorted(out)


# ---------------------------------------------------------------------------
# Measure families
# ---------------------------------------------------------------------------


class Measure:
    """Base class for measures on the real line.

    Subclasses set ``tag`` (a family identifier used for closed-form
    dispatch), ``reference``, ``is_probability``, and ``params`` (the
    family parameters, round-trippable through ``to_config``).
    """

    tag: str = "measure"
    reference: object = LebesgueRef()
    is_probability: bool = True
    params: dict

    # -- continuous/atomic decomposition (w.r.t. Lebesgue) ------------------

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density of the absolutely continuous part w.r.t. Lebesgue."""
        raise NotImplementedError

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """Atoms as ``(point, mass)`` pairs; empty for continuous measures."""
        return ()

    # -- own-reference density (used by L_j norms) ---------------------------

    def density(self, x: np.ndarray) -> np.ndarray:
        """Density w.r.t. ``self.reference``.

        Defaults to the Lebesgue pdf, which is correct for measures whose
        reference is Lebesgue itself.
        """
        return self.pdf(x)

    # -- cdf machinery -------------------------------------------------------

    def cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.tag} measure has no cdf")

    def cdf_knots(self) -> tuple[float, ...] | None:
        """Knots of a piecewise-linear (or step) cdf, or None if not of that form."""
        return None

    def cdf_integral(self, a: float, b: float) -> float:
        """Exact ``∫_a^b F(t) dt`` where available; falls back to quadrature."""
        knots = self.cdf_knots()
        if knots is not None:
            return _pw_linear_cdf_integral(self.cdf, knots, a, b)
        return integrate(self.cdf, a, b, self.breakpoints())[0]

    # -- quadrature hints ----------------------------------------------------

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the pdf is not smooth (support edges, cell edges)."""
        return ()

    def window(self) -> tuple[float, float]:
        """Finite interval carrying all but a negligible (<1e-7) tail mass."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Closure of the support, possibly infinite."""
        return self.window()

    heavy_tails: bool = False

    # -- sampling ------------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError(f"cannot sample from {self.tag} measure")

    # -- config --------------------------------------------------------------

    def to_config(self) -> dict:
        return {"family": self.tag, "params": dict(self.params)}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}({inner})"


class GaussianMeasure(Measure):
    """Gaussian distribution with given mean and standard deviation."""

    tag = "gaussian"

    def __init__(self, mean: float, sd: float = 1.0):
        if not 0 < sd < math.inf:
            raise ConfigError(f"gaussian sd must be positive and finite, got {sd}")
        self.mean = float(mean)
        self.sd = float(sd)
        if not math.isfinite(self.mean):
            raise ConfigError(f"gaussian mean must be finite, got {mean}")
        self.params = {"mean": self.mean, "sd": self.sd}

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return _special.ndtr(z)

    def cdf_integral(self, a, b):
        # ∫ Φ(z) dz = z Φ(z) + φ(z)
        def anti(x: float) -> float:
            z = (x - self.mean) / self.sd
            phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            return self.sd * (z * float(_special.ndtr(z)) + phi)

        return anti(b) - anti(a)

    def window(self):
        return (self.mean - 12.0 * self.sd, self.mean + 12.0 * self.sd)

    def support(self):
        return (-math.inf, math.inf)

    def sample(self, n, rng):
        return self.mean + self.sd * rng.standard_normal(n)


class CauchyMeasure(Measure):
    """Cauchy distribution with location and scale."""

    tag = "cauchy"
    heavy_tails = True

    def __init__(self, loc: float, scale: float = 1.0):
        if not 0 < scale < math.inf:
            raise ConfigError(f"cauchy scale must be positive and finite, got {scale}")
        self.loc = float(loc)
        self.scale = float(scale)
        if not math.isfinite(self.loc):
            raise ConfigError(f"cauchy loc must be finite, got {loc}")
        self.params = {"loc": self.loc, "scale": self.scale}

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return 1.0 / (math.pi * self.scale * (1.0 + z * z))

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return 0.5 + np.arctan(z) / math.pi

    def cdf_integral(self, a, b):
        # ∫ F dt with F(t) = 1/2 + arctan(z)/π, z = (t - loc)/scale:
        # antiderivative scale * [z/2 + (z arctan z - log(1+z²)/2)/π].
        def anti(x: float) -> float:
            z = (x - self.loc) / self.scale
            return self.scale * (
                0.5 * z + (z * math.atan(z) - 0.5 * math.log1p(z * z)) / math.pi
            )

        return anti(b) - anti(a)

    def window(self):
        # Truncating at 2500 scales leaves a cdf gap ~1e-7 between two family
        # members a few locations apart, inside the TV quadrature budget.
        return (self.loc - 2500.0 * self.scale, self.loc + 2500.0 * self.scale)

    def support(self):
        return (-math.inf, math.inf)

    def breakpoints(self):
        # Geometric ladder so adaptive panels start proportionate to the tails.
        lad = [self.scale * 4.0**k for k in range(1, 7)]
        return tuple([self.loc - t for t in reversed(lad)] + [self.loc] + [self.loc + t for t in lad])

    def sample(self, n, rng):
        return self.loc + self.scale * rng.standard_cauchy(n)


class UniformMeasure(Measure):
    """Uniform distribution on ``[low, low + width]``."""

    tag = "uniform"

    def __init__(self, low: float, width: float = 1.0):
        if not 0 < width < math.inf:
            raise ConfigError(f"uniform width must be positive and finite, got {width}")
        self.low = float(low)
        self.width = float(width)
        if not math.isfinite(self.low):
            raise ConfigError(f"uniform low must be finite, got {low}")
        self.params = {"low": self.low, "width": self.width}

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.low + self.width)
        return np.where(inside, 1.0 / self.width, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.low) / self.width, 0.0, 1.0)

    def cdf_knots(self):
        return (self.low, self.low + self.width)

    def breakpoints(self):
        return (self.low, self.low + self.width)

    def window(self):
        return (self.low, self.low + self.width)

    def sample(self, n, rng):
        return self.low + self.width * rng.random(n)


class PowerMeasure(Measure):
    """Power law on ``(shift, shift + 1]``: density ``alpha * (x - shift)^(alpha-1)``.

    The same class covers two families used elsewhere in the package: the
    translation family (fixed ``alpha``, varying ``shift``) and the shape
    family on [0, 1] (``shift = 0``, varying ``alpha``, cdf ``x^alpha``).
    For ``alpha < 1`` the density has an integrable singularity at the left
    endpoint; the pdf evaluates to 0 exactly at ``shift`` so quadrature panels
    stay finite.
    """

    tag = "power"

    def __init__(self, alpha: float, shift: float = 0.0):
        if not 0 < alpha < math.inf:
            raise ConfigError(f"power alpha must be positive and finite, got {alpha}")
        self.alpha = float(alpha)
        self.shift = float(shift)
        if not math.isfinite(self.shift):
            raise ConfigError(f"power shift must be finite, got {shift}")
        self.params = {"alpha": self.alpha, "shift": self.shift}

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = x - self.shift
        inside = (z > 0.0) & (z <= 1.0)
        safe = np.where(inside, z, 1.0)
        return np.where(inside, self.alpha * safe ** (self.alpha - 1.0), 0.0)

    def cdf(self, x):
        z = np.clip(np.asarray(x, dtype=float) - self.shift, 0.0, 1.0)
        return z**self.alpha

    def cdf_integral(self, a, b):
        # ∫ clip(t-shift,0,1)^alpha dt, exact.
        def anti(x: float) -> float:
            z = x - self.shift
            if z <= 0.0:
                return 0.0
            zc = min(z, 1.0)
            val = zc ** (self.alpha + 1.0) / (self.alpha + 1.0)
            if z > 1.0:
                val += z - 1.0
            return val

        return anti(b) - anti(a)

    def breakpoints(self):
        return (self.shift, self.shift + 1.0)

    def window(self):
        return (self.shift, self.shift + 1.0)

    def sample(self, n, rng):
        return self.shift + rng.random(n) ** (1.0 / self.alpha)


class HistogramMeasure(Measure):
    """Piecewise-constant density on a regular partition.

    ``heights`` are densities w.r.t. the partition reference (cell ``k`` has
    mass ``heights[k] / cells``); a probability requires nonnegative heights
    averaging to one.  Signed heights are allowed (``is_probability`` False)
    for use as L_j model candidates.
    """

    tag = "histogram"

    def __init__(self, partition: PartitionRef, heights: Sequence[float]):
        heights = np.asarray(heights, dtype=float)
        if heights.shape != (partition.cells,):
            raise ConfigError(
                f"need {partition.cells} heights for a {partition.cells}-cell "
                f"partition, got shape {heights.shape}"
            )
        self.partition = partition
        self.heights = heights
        self.reference = partition
        total = float(heights.mean())  # == sum of cell masses
        self.is_probability = bool(np.all(heights >= -1e-12) and abs(total - 1.0) <= _PROB_TOL)
        self.params = {
            "support": list(partition.support),
            "heights": [float(h) for h in heights],
        }

    @property
    def cell_masses(self) -> np.ndarray:
        return self.heights / self.partition.cells

    def density(self, x):
        idx = self.partition.locate(x)
        vals = np.where(idx >= 0, self.heights[np.clip(idx, 0, None)], 0.0)
        return vals

    def pdf(self, x):
        lo, hi = self.partition.support
        return self.density(x) / (hi - lo)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        edges = self.partition.edges
        cum = np.concatenate([[0.0], np.cumsum(self.cell_masses)])
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, self.partition.cells - 1)
        frac = np.clip((x - edges[idx]) / self.partition.cell_width, 0.0, 1.0)
        out = cum[idx] + frac * self.cell_masses[idx]
        out = np.where(x <= edges[0], 0.0, out)
        out = np.where(x >= edges[-1], cum[-1], out)
        return out

    def cdf_knots(self):
        return tuple(float(e) for e in self.partition.edges)

    def breakpoints(self):
        return self.cdf_knots()

    def window(self):
        return self.partition.support

    def sample(self, n, rng):
        if not self.is_probability:
            raise ConfigError("cannot sample from a signed histogram")
        probs = np.clip(self.cell_masses, 0.0, None)
        probs = probs / probs.sum()
        cells = rng.choice(self.partition.cells, size=n, p=probs)
        u = rng.random(n)
        lo, _ = self.partition.support
        return lo + (cells + u) * self.partition.cell_width

    def to_config(self):
        return {
            "family": self.tag,
            "params": {
                "cells": self.partition.cells,
                "support": list(self.partition.support),
                "heights": [float(h) for h in self.heights],
            },
        }


class DiscreteMeasure(Measure):
    """Finitely supported measure given by points and (possibly signed) masses."""

    tag = "discrete"

    def __init__(
        self,
        points: Sequence[float],
        masses: Sequence[float],
        ref: DiscreteRef | None = None,
    ):
        pts = np.asarray(points, dtype=float)
        ms = np.asarray(masses, dtype=float)
        if pts.shape != ms.shape or pts.ndim != 1:
            raise ConfigError("discrete measure needs matching 1-d points and masses")
        order = np.argsort(pts)
        pts, ms = pts[order], ms[order]
        if np.any(np.diff(pts) == 0.0):
            raise ConfigError("discrete measure points must be distinct")
        self.points = pts
        self.masses = ms
        if ref is None:
            # Counting measure on the points.
            ref = DiscreteRef(tuple(float(p) for p in pts), (1.0,) * len(pts))
        self.reference = ref
        if tuple(pts) != self.reference.points:
            raise ConfigError("discrete measure points must match the reference points")
        self.is_probability = bool(np.all(ms >= -1e-12) and abs(ms.sum() - 1.0) <= _PROB_TOL)
        self.params = {"points": [float(p) for p in pts], "masses": [float(m) for m in ms]}

    def pdf(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def atoms(self):
        return tuple((float(p), float(m)) for p, m in zip(self.points, self.masses))

    def density(self, x):
        idx = self.reference.locate(x)
        return self.masses[idx] / self.reference.weights_array[idx]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        cum = np.cumsum(self.masses)
        idx = np.searchsorted(self.points, x, side="right")
        return np.where(idx == 0, 0.0, cum[np.clip(idx - 1, 0, None)])

    def cdf_knots(self):
        return tuple(float(p) for p in self.points)

    def breakpoints(self):
        return self.cdf_knots()

    def window(self):
        return (float(self.points[0]), float(self.points[-1]))

    def sample(self, n, rng):
        if not self.is_probability:
            raise ConfigError("cannot sample from a signed discrete measure")
        probs = np.clip(self.masses, 0.0, None)
        probs = probs / probs.sum()
        idx = rng.choice(len(self.points), size=n, p=probs)
        return self.points[idx]


def point_mass(at: float) -> DiscreteMeasure:
    """Dirac measure at a single point."""
    return DiscreteMeasure([at], [1.0])


class MixtureMeasure(Measure):
    """Two-component contamination mixture ``(1 - alpha) * base + alpha * contaminant``.

    Sampling draws the base sample and overwrites positions selected by an
    independent Bernoulli(alpha) mask, so runs that differ only in ``alpha``
    share the same underlying draws (the ``alpha = 0`` mixture reproduces the
    base sample exactly from the same generator state).
    """

    tag = "mixture"

    def __init__(self, base: Measure, alpha: float, contaminant: Measure):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"mixture weight must lie in [0, 1], got {alpha}")
        if not (base.is_probability and contaminant.is_probability):
            raise ConfigError("mixture components must be probability measures")
        self.base = base
        self.alpha = float(alpha)
        self.contaminant = contaminant
        self.params = {
            "base": base.to_config(),
            "alpha": self.alpha,
            "contaminant": contaminant.to_config(),
        }

    def pdf(self, x):
        return (1.0 - self.alpha) * self.base.pdf(x) + self.alpha * self.contaminant.pdf(x)

    def atoms(self):
        combined: dict[float, float] = {}
        for p, m in self.base.atoms():
            combined[p] = combined.get(p, 0.0) + (1.0 - self.alpha) * m
        for p, m in self.contaminant.atoms():
            combined[p] = combined.get(p, 0.0) + self.alpha * m
        return tuple(sorted(combined.items()))

    def cdf(self, x):
        return (1.0 - self.alpha) * self.base.cdf(x) + self.alpha * self.contaminant.cdf(x)

    def breakpoints(self):
        return tuple(_union_breakpoints(self.base, self.contaminant))

    def window(self):
        return _union_window(self.base, self.contaminant)

    def support(self):
        lo1, hi1 = self.base.support()
        lo2, hi2 = self.contaminant.support()
        return (min(lo1, lo2), max(hi1, hi2))

    @property
    def heavy_tails(self):  # type: ignore[override]
        return self.base.heavy_tails or self.contaminant.heavy_tails

    def sample(self, n, rng):
        mask = rng.random(n) < self.alpha
        draw = self.base.sample(n, rng)
        cont = self.contaminant.sample(n, rng)
        return np.where(mask, cont, draw)


# ---------------------------------------------------------------------------
# RNG and empirical helpers
# ---------------------------------------------------------------------------


def expectation(
    m: Measure,
    fn: Callable[[np.ndarray], np.ndarray],
    extra_breakpoints: Sequence[float] = (),
) -> float:
    """``∫ fn dm``: exact over atoms, adaptive quadrature over the pdf part."""
    total = 0.0
    if m.atoms():
        pts, (ms,) = atom_mass_matrix(m)
        total += float(np.sum(np.asarray(fn(pts), dtype=float) * ms))
    if _has_continuous_part(m):
        lo, hi = m.window()
        brk = sorted(set(m.breakpoints()) | {float(b) for b in extra_breakpoints})
        total += integrate(lambda x: np.asarray(fn(x), dtype=float) * m.pdf(x), lo, hi, brk)[0]
    return total


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by ``(seed, stream)``.

    Distinct ``(seed, stream)`` pairs give independent reproducible streams,
    so per-replication generators can be created in any order (or in
    parallel) without affecting the draws.  Both numbers are taken mod 2^64:
    a negative seed ``s`` keys the same stream as ``s + 2**64`` (``-1`` is
    ``2**64 - 1``), and seeds of 2^64 or more wrap the same way.
    """
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def empirical_measure(sample: Sequence[float]) -> DiscreteMeasure:
    """Empirical measure: mass ``count/n`` at each distinct observed value."""
    data = np.asarray(sample, dtype=float)
    if data.size == 0:
        raise ValueError("empirical measure needs at least one observation")
    values, counts = np.unique(data, return_counts=True)
    return DiscreteMeasure(values, counts / data.size)


# ---------------------------------------------------------------------------
# Distance helpers
# ---------------------------------------------------------------------------


def _require_probability(*measures: Measure) -> None:
    for m in measures:
        if not m.is_probability:
            raise ConfigError(f"{m!r} is not a probability measure")


def _validate_method(method: str) -> None:
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")


def atom_mass_matrix(*measures: Measure) -> tuple[np.ndarray, np.ndarray]:
    """The measures' atoms aligned on one finite point set.

    Returns the sorted union of every measure's atom points and the
    ``(len(measures), points)`` matrix whose row ``i`` holds measure ``i``'s
    mass at each point, 0 where it has no atom.
    """
    atoms = [m.atoms() for m in measures]
    points = np.asarray(sorted({p for a in atoms for p, _ in a}), dtype=float)
    masses = np.zeros((len(measures), len(points)))
    for row, a in zip(masses, atoms):
        if a:
            pm = np.asarray(a, dtype=float)
            row[np.searchsorted(points, pm[:, 0])] = pm[:, 1]
    return points, masses


def locate_points(points: np.ndarray, x: np.ndarray, space: str) -> np.ndarray:
    """Index of each observation in the sorted ``points``.

    Raises:
        ConfigError: naming ``space`` if some value is not one of the points.
    """
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(points, x), 0, len(points) - 1)
    foreign = points[idx] != x
    if foreign.any():
        raise ConfigError(f"observation {float(x[foreign].flat[0])!r} is outside {space}")
    return idx


def _has_continuous_part(m: Measure) -> bool:
    if isinstance(m, DiscreteMeasure):
        return False
    if isinstance(m, MixtureMeasure):
        return (m.alpha < 1.0 and _has_continuous_part(m.base)) or (
            m.alpha > 0.0 and _has_continuous_part(m.contaminant)
        )
    return True


def _union_window(*measures: Measure) -> tuple[float, float]:
    """The smallest interval holding every measure's window."""
    windows = [m.window() for m in measures]
    return (min(lo for lo, _ in windows), max(hi for _, hi in windows))


def _union_breakpoints(*measures: Measure) -> list[float]:
    """Every measure's breakpoints, sorted and without repeats."""
    return sorted({b for m in measures for b in m.breakpoints()})


def _pw_linear_cdf_integral(
    cdf: Callable[[np.ndarray], np.ndarray],
    knots: Sequence[float],
    a: float,
    b: float,
) -> float:
    """Exact ∫ F over [a, b] for cdfs linear (or constant) between knots.

    Uses the midpoint rule per piece, which is exact for linear pieces and,
    because cdfs are right-continuous, also for constant pieces with jumps at
    the knots.
    """
    if b <= a:
        return 0.0
    edges = [a, b] + [float(k) for k in knots if a < float(k) < b]
    edges = np.array(sorted(set(edges)))
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return float(np.sum(np.asarray(cdf(mids), dtype=float) * widths))


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def _tv_closed_form(P: Measure, Q: Measure) -> float | None:
    """Closed-form TV for matched families, or None when no form applies."""
    if isinstance(P, GaussianMeasure) and isinstance(Q, GaussianMeasure) and P.sd == Q.sd:
        # TV = P[|Z| <= |Δm| / (2 sd)] for a standard normal Z.
        d = abs(P.mean - Q.mean) / (2.0 * P.sd)
        return float(2.0 * _special.ndtr(d) - 1.0)
    if isinstance(P, CauchyMeasure) and isinstance(Q, CauchyMeasure) and P.scale == Q.scale:
        return (2.0 / math.pi) * math.atan(abs(P.loc - Q.loc) / (2.0 * P.scale))
    if isinstance(P, UniformMeasure) and isinstance(Q, UniformMeasure) and P.width == Q.width:
        return min(1.0, abs(P.low - Q.low) / P.width)
    if (
        isinstance(P, PowerMeasure)
        and isinstance(Q, PowerMeasure)
        and P.alpha == Q.alpha
        and P.alpha <= 1.0
    ):
        # Translated power laws with alpha <= 1 have {p > q} = (shift_P, shift_Q]
        # (for shift_P < shift_Q), giving TV = min(1, |Δshift|^alpha).  The
        # formula fails for alpha > 1, which falls through to quadrature.
        return min(1.0, abs(P.shift - Q.shift) ** P.alpha)
    if (
        isinstance(P, HistogramMeasure)
        and isinstance(Q, HistogramMeasure)
        and P.partition == Q.partition
    ):
        return 0.5 * float(np.abs(P.cell_masses - Q.cell_masses).sum())
    if isinstance(P, DiscreteMeasure) and isinstance(Q, DiscreteMeasure):
        _, (vp, vq) = atom_mass_matrix(P, Q)
        return 0.5 * float(np.abs(vp - vq).sum())
    return None


def _tv_quadrature(P: Measure, Q: Measure) -> float:
    atom_part = 0.0
    if P.atoms() or Q.atoms():
        _, (vp, vq) = atom_mass_matrix(P, Q)
        atom_part = float(np.abs(vp - vq).sum())
    cont_part = 0.0
    if _has_continuous_part(P) or _has_continuous_part(Q):
        lo, hi = _union_window(P, Q)
        brk = _union_breakpoints(P, Q)
        diff = lambda x: P.pdf(x) - Q.pdf(x)
        brk = sorted(set(brk) | set(sign_change_points(diff, lo, hi, brk)))
        cont_part = integrate(lambda x: np.abs(diff(x)), lo, hi, brk)[0]
        if P.heavy_tails or Q.heavy_tails:
            # Add the tail mass outside the window, where p - q keeps one sign
            # so each side contributes its cdf gap.  The left gap stops just
            # short of lo: an atom at lo is already in atom_part.
            below = np.nextafter(lo, -math.inf)
            cont_part += abs(float(P.cdf(below) - Q.cdf(below)))
            cont_part += abs(float(Q.cdf(hi) - P.cdf(hi)))
    return min(1.0, 0.5 * (cont_part + atom_part))


def tv_distance(P: Measure, Q: Measure, method: str = "auto") -> float:
    """Total variation distance between two probability measures.

    Args:
        P, Q: probability measures.
        method: "closed_form" (matched families only), "quadrature", or
            "auto" (closed form when available, quadrature otherwise).

    Returns:
        TV(P, Q) in [0, 1].
    """
    _validate_method(method)
    _require_probability(P, Q)
    if method in ("auto", "closed_form"):
        closed = _tv_closed_form(P, Q)
        if closed is not None:
            return closed
        if method == "closed_form":
            raise ValueError(
                f"no closed-form TV for families ({P.tag!r}, {Q.tag!r}) with these parameters"
            )
    return _tv_quadrature(P, Q)


# ---------------------------------------------------------------------------
# Squared Hellinger
# ---------------------------------------------------------------------------


def hellinger_sq(P: Measure, Q: Measure, method: str = "auto") -> float:
    """Squared Hellinger distance ``h²(P, Q) = 1 - ∫ sqrt(dP dQ)`` in [0, 1]."""
    _validate_method(method)
    _require_probability(P, Q)
    if method in ("auto", "closed_form"):
        if isinstance(P, GaussianMeasure) and isinstance(Q, GaussianMeasure) and P.sd == Q.sd:
            d = P.mean - Q.mean
            return 1.0 - math.exp(-(d * d) / (8.0 * P.sd * P.sd))
        if isinstance(P, DiscreteMeasure) and isinstance(Q, DiscreteMeasure):
            _, (vp, vq) = atom_mass_matrix(P, Q)
            aff = float(np.sqrt(np.clip(vp, 0, None) * np.clip(vq, 0, None)).sum())
            return min(1.0, max(0.0, 1.0 - aff))
        if (
            isinstance(P, HistogramMeasure)
            and isinstance(Q, HistogramMeasure)
            and P.partition == Q.partition
        ):
            aff = float(
                np.sqrt(np.clip(P.cell_masses, 0, None) * np.clip(Q.cell_masses, 0, None)).sum()
            )
            return min(1.0, max(0.0, 1.0 - aff))
        if method == "closed_form":
            raise ValueError(
                f"no closed-form Hellinger for families ({P.tag!r}, {Q.tag!r})"
            )
    # Affinity splits over the continuous and atomic parts.
    aff = 0.0
    if P.atoms() and Q.atoms():
        _, (vp, vq) = atom_mass_matrix(P, Q)
        aff += float(np.sqrt(np.clip(vp, 0, None) * np.clip(vq, 0, None)).sum())
    if _has_continuous_part(P) and _has_continuous_part(Q):
        lo, hi = _union_window(P, Q)
        if P.heavy_tails or Q.heavy_tails:
            span = hi - lo
            lo, hi = lo - 200.0 * span, hi + 200.0 * span
        fn = lambda x: np.sqrt(np.clip(P.pdf(x), 0, None) * np.clip(Q.pdf(x), 0, None))
        aff += integrate(fn, lo, hi, _union_breakpoints(P, Q))[0]
    return min(1.0, max(0.0, 1.0 - aff))


# ---------------------------------------------------------------------------
# Kullback-Leibler
# ---------------------------------------------------------------------------


def _xlogx_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p * log(p/q) with the conventions 0*log(0/q) = 0; p>0, q=0 -> inf."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.zeros(np.broadcast(p, q).shape)
    pos = p > 0.0
    with np.errstate(divide="ignore"):
        out = np.where(pos & (q > 0.0), p * (np.log(np.where(pos, p, 1.0)) - np.log(np.where(q > 0.0, q, 1.0))), out)
    out = np.where(pos & (q <= 0.0), np.inf, out)
    return out


def kl_divergence(P: Measure, Q: Measure, method: str = "auto") -> float:
    """Kullback-Leibler divergence ``KL(P || Q)``; returns ``inf`` when P ⊄ Q."""
    _validate_method(method)
    _require_probability(P, Q)
    if method in ("auto", "closed_form"):
        if isinstance(P, DiscreteMeasure) and isinstance(Q, DiscreteMeasure):
            _, (vp, vq) = atom_mass_matrix(P, Q)
            return float(_xlogx_ratio(vp, vq).sum())
        if (
            isinstance(P, HistogramMeasure)
            and isinstance(Q, HistogramMeasure)
            and P.partition == Q.partition
        ):
            return float(_xlogx_ratio(P.cell_masses, Q.cell_masses).sum())
        if isinstance(P, GaussianMeasure) and isinstance(Q, GaussianMeasure) and P.sd == Q.sd:
            d = P.mean - Q.mean
            return (d * d) / (2.0 * P.sd * P.sd)
        if method == "closed_form":
            raise ValueError(f"no closed-form KL for families ({P.tag!r}, {Q.tag!r})")
    # Absolute-continuity screen: P's support must sit inside Q's, and P may
    # not put atoms where Q has none.
    _, (vp, vq) = atom_mass_matrix(P, Q)
    if np.any((vp > 0.0) & (vq <= 0.0)):
        return math.inf
    if _has_continuous_part(P) and not _has_continuous_part(Q):
        return math.inf
    lo_p, hi_p = P.support()
    lo_q, hi_q = Q.support()
    if lo_p < lo_q - 1e-12 or hi_p > hi_q + 1e-12:
        return math.inf
    total = float(_xlogx_ratio(vp, vq).sum())
    if _has_continuous_part(P):
        lo, hi = P.window()

        def fn(x):
            p = np.clip(P.pdf(x), 0.0, None)
            q = np.clip(Q.pdf(x), 0.0, None)
            vals = _xlogx_ratio(p, q)
            # Zero out the measure-zero boundary where q vanishes but p does
            # not; a genuine support mismatch was screened out above.
            return np.where(np.isfinite(vals), vals, 0.0)

        total += integrate(fn, lo, hi, _union_breakpoints(P, Q))[0]
    return total


def _log_spread(stacked: np.ndarray) -> np.ndarray | None:
    """Per-column log spread ``log max_i v_i - log min_i v_i``, or None.

    ``stacked`` holds one row of densities (or masses) per candidate.  None
    means some candidate vanishes at a column where another is positive, so
    no finite family-wide log-ratio bound exists.  Columns where every
    candidate vanishes contribute ``-inf`` (they never host the maximum).
    """
    col_max = stacked.max(axis=0)
    col_min = stacked.min(axis=0)
    active = col_max > 0.0
    if np.any(col_min[active] <= 0.0):
        return None
    spread = np.full(col_max.shape, -np.inf)
    spread[active] = np.log(col_max[active]) - np.log(col_min[active])
    return spread


def _log_ratio_bound(candidates: Sequence[Measure]) -> float | None:
    """Max over a probe grid of ``|log(p_i / p_k)|`` across all pairs.

    Returns None when some candidate vanishes where another is positive,
    or when two power laws share a shift but not alpha (the KL family then
    has no finite log-ratio bound).  The target equals
    ``max_x [log max_i p_i(x) - log min_i p_i(x)]``, so one column pass per
    probe point covers every pair.  Discrete families are exact over their
    atoms.  Otherwise the coarse probe (a global grid plus every candidate
    breakpoint and the midpoints between them) is polished by zooming into
    the best bracket a few times, since windows can span thousands of scale
    units while the ratio peaks near the centers.
    """
    if len(candidates) < 2:
        return None
    if all(isinstance(m, DiscreteMeasure) for m in candidates):
        spread = _log_spread(atom_mass_matrix(*candidates)[1])
        if spread is None or not np.isfinite(spread.max()):
            return None
        return float(spread.max())
    if any(m.atoms() for m in candidates):
        return None
    # Power laws at one shift with different alpha: the log ratio
    # log(a1/a2) + (a1 - a2) log(x - shift) diverges at the shift, where
    # every probe reads both densities as 0.
    shapes = {(m.shift, m.alpha) for m in candidates if isinstance(m, PowerMeasure)}
    if len({shift for shift, _ in shapes}) < len(shapes):
        return None
    lo, hi = _union_window(*candidates)
    edges = np.array(sorted({b for b in _union_breakpoints(*candidates) if lo < b < hi} | {lo, hi}))
    mids = 0.5 * (edges[:-1] + edges[1:])
    probe = np.unique(np.concatenate([np.linspace(lo, hi, 513), edges, mids]))
    spread_at = lambda xs: _log_spread(np.array([m.pdf(xs) for m in candidates]))
    spread = spread_at(probe)
    if spread is None:
        return None
    best = int(np.argmax(spread))
    if not np.isfinite(spread[best]):
        return None
    value = spread[best]
    left = probe[max(best - 1, 0)]
    right = probe[min(best + 1, probe.size - 1)]
    for _ in range(3):
        xs = np.linspace(left, right, 129)
        local = spread_at(xs)
        if local is None:
            return None
        best = int(np.argmax(local))
        value = max(value, local[best])
        left = xs[max(best - 1, 0)]
        right = xs[min(best + 1, xs.size - 1)]
    return float(value)


# ---------------------------------------------------------------------------
# Wasserstein-1 on [0, 1]
# ---------------------------------------------------------------------------


def _check_unit_interval(m: Measure) -> None:
    lo, hi = m.support()
    if lo < -1e-9 or hi > 1.0 + 1e-9:
        raise ConfigError(
            f"Wasserstein-1 requires support inside [0, 1]; {m!r} has support [{lo}, {hi}]"
        )


def _cdf_gap_pieces(P: Measure, Q: Measure):
    """The linear pieces of ``g = F_P - F_Q`` on [0, 1] for knotted cdfs.

    Yields ``(a, b, g_a, g_b)`` for each pair of consecutive knots ``a < b``
    of either cdf (0 and 1 included): the line through ``g`` at ``a + w/3``
    and ``a + 2w/3`` (``w = b - a``), taken at both ends.  Interior points
    keep the jumps of step cdfs at the knots out of the fit.
    """
    knots = {float(k) for k in (*P.cdf_knots(), *Q.cdf_knots()) if 0.0 <= k <= 1.0}
    knots = np.array(sorted(knots | {0.0, 1.0}))
    for a, b in zip(knots[:-1], knots[1:]):
        w = b - a
        u1, u2 = a + w / 3.0, a + 2.0 * w / 3.0
        u = np.array([u1, u2])
        g1, g2 = (np.asarray(P.cdf(u)) - np.asarray(Q.cdf(u))).tolist()
        slope = (g2 - g1) / (u2 - u1)
        yield a, b, g1 + slope * (a - u1), g1 + slope * (b - u1)


def _abs_cdf_diff_exact(P: Measure, Q: Measure) -> float:
    """∫ |F_P - F_Q| over [0, 1], exact for piecewise-linear/step cdfs."""
    total = 0.0
    for a, b, ga, gb in _cdf_gap_pieces(P, Q):
        w = b - a
        if ga * gb >= 0.0:
            total += 0.5 * abs(ga + gb) * w
        else:
            r = a + w * abs(ga) / (abs(ga) + abs(gb))
            total += 0.5 * (abs(ga) * (r - a) + abs(gb) * (b - r))
    return float(total)


def wasserstein1(P: Measure, Q: Measure, method: str = "auto") -> float:
    """Wasserstein-1 distance between probability measures on [0, 1].

    Equal to ``∫_0^1 |F_P - F_Q|``.  Exact for piecewise-linear and step
    cdfs (uniform, histogram, discrete, empirical); closed form for the power
    shape family; adaptive quadrature otherwise.
    """
    _validate_method(method)
    _require_probability(P, Q)
    _check_unit_interval(P)
    _check_unit_interval(Q)
    if method in ("auto", "closed_form"):
        if (
            isinstance(P, PowerMeasure)
            and isinstance(Q, PowerMeasure)
            and P.shift == 0.0
            and Q.shift == 0.0
        ):
            # F_P = x^a and F_Q = x^b are ordered on all of [0, 1].
            return abs(1.0 / (P.alpha + 1.0) - 1.0 / (Q.alpha + 1.0))
        if method == "closed_form" and not (P.cdf_knots() and Q.cdf_knots()):
            raise ValueError(f"no closed-form W for families ({P.tag!r}, {Q.tag!r})")
    if P.cdf_knots() is not None and Q.cdf_knots() is not None:
        return _abs_cdf_diff_exact(P, Q)
    diff = lambda x: np.asarray(P.cdf(x), dtype=float) - np.asarray(Q.cdf(x), dtype=float)
    brk = sorted(
        set(np.clip(_union_breakpoints(P, Q), 0.0, 1.0))
        | set(sign_change_points(diff, 0.0, 1.0, _union_breakpoints(P, Q)))
    )
    return integrate(lambda x: np.abs(diff(x)), 0.0, 1.0, brk)[0]


# ---------------------------------------------------------------------------
# L_j distances
# ---------------------------------------------------------------------------


def lj_distance(P: Measure, Q: Measure, j: float) -> float:
    """L_j norm of the density difference w.r.t. the shared reference.

    ``j`` may be any value in (1, inf]; ``math.inf`` selects the sup norm.
    Signed measures are allowed (the norm only sees densities), but the two
    measures must share the same reference.
    """
    if not (j > 1.0):
        raise ValueError(f"L_j norms need j in (1, inf], got {j}")
    if P.reference != Q.reference:
        raise ConfigError(
            f"L_j distance needs a shared reference, got {P.reference!r} vs {Q.reference!r}"
        )
    ref = P.reference
    if isinstance(ref, PartitionRef):
        diff = np.abs(np.asarray(P.heights) - np.asarray(Q.heights))  # type: ignore[attr-defined]
        if math.isinf(j):
            return float(diff.max())
        return float((np.sum(diff**j) / ref.cells) ** (1.0 / j))
    if isinstance(ref, DiscreteRef):
        dp = P.density(ref.points_array)
        dq = Q.density(ref.points_array)
        diff = np.abs(dp - dq)
        if math.isinf(j):
            return float(diff.max())
        return float(np.sum(diff**j * ref.weights_array) ** (1.0 / j))
    # Lebesgue reference: quadrature in j < inf, probe-grid sup otherwise.
    lo, hi = _union_window(P, Q)
    brk = _union_breakpoints(P, Q)
    if math.isinf(j):
        grid = np.unique(np.concatenate([np.linspace(lo, hi, _PROBE_COUNT), np.asarray(brk or [lo])]))
        return float(np.max(np.abs(P.pdf(grid) - Q.pdf(grid))))
    val = integrate(lambda x: np.abs(P.pdf(x) - Q.pdf(x)) ** j, lo, hi, brk)[0]
    return float(val ** (1.0 / j))


# ---------------------------------------------------------------------------
# Sign intervals of cdf differences (used by the Wasserstein score family)
# ---------------------------------------------------------------------------


def cdf_sign_intervals(P: Measure, Q: Measure) -> list[tuple[float, float, float]]:
    """Partition [0, 1] into intervals on which ``sign(F_Q - F_P)`` is constant.

    Returns ``(lo, hi, sign)`` triples with sign in {-1, 0, +1}, determined at
    interval midpoints.  Cut points come from exact knot algebra when both
    cdfs are piecewise linear, and from probe-plus-bisection otherwise.
    """
    _check_unit_interval(P)
    _check_unit_interval(Q)

    def diff(x: np.ndarray) -> np.ndarray:
        return np.asarray(Q.cdf(x), dtype=float) - np.asarray(P.cdf(x), dtype=float)

    cuts = {0.0, 1.0}
    if P.cdf_knots() is not None and Q.cdf_knots() is not None:
        # The pieces fit F_P - F_Q, the exact negation of diff: same roots.
        for a, b, ga, gb in _cdf_gap_pieces(P, Q):
            cuts.add(a)
            cuts.add(b)
            if ga * gb < 0.0:
                cuts.add(a + (b - a) * abs(ga) / (abs(ga) + abs(gb)))
    else:
        brk = [float(k) for k in _union_breakpoints(P, Q) if 0.0 <= k <= 1.0]
        cuts |= set(brk)
        cuts |= set(sign_change_points(diff, 0.0, 1.0, brk))
    edges = np.array(sorted(cuts))
    out: list[tuple[float, float, float]] = []
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = diff(mids)
    tol = 1e-13
    for lo, hi, v in zip(edges[:-1], edges[1:], vals):
        if hi - lo <= 0.0:
            continue
        s = 0.0 if abs(v) <= tol else math.copysign(1.0, v)
        if out and out[-1][2] == s:
            out[-1] = (out[-1][0], float(hi), s)
        else:
            out.append((float(lo), float(hi), s))
    return out


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------


def _numbers(family: str, params: dict, key: str, default: tuple | None = None) -> list:
    """The list parameter ``key``, checked to hold numbers only.

    Checked here because numpy and ``tuple`` would take strings silently;
    a missing required key raises KeyError.
    """
    value = params[key] if default is None else params.get(key, default)
    if not isinstance(value, (list, tuple)) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
    ):
        raise ConfigError(
            f"measure family {family!r} parameter {key!r} must be a list of numbers, "
            f"got {value!r}"
        )
    return list(value)


def measure_from_config(cfg: dict) -> Measure:
    """Build a measure from a plain-dict configuration record.

    The record must have a ``family`` key plus a ``params`` mapping; see each
    measure class for its parameters.  Raises ``ConfigError`` for unknown
    families or bad parameters, naming the parameter.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"measure config must be a mapping, got {type(cfg).__name__}")
    family = cfg.get("family")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("measure config 'params' must be a mapping")
    try:
        if family == "gaussian":
            return GaussianMeasure(params["mean"], params.get("sd", 1.0))
        if family == "cauchy":
            return CauchyMeasure(params["loc"], params.get("scale", 1.0))
        if family == "uniform":
            return UniformMeasure(params["low"], params.get("width", 1.0))
        if family == "power":
            return PowerMeasure(params["alpha"], params.get("shift", 0.0))
        if family == "histogram":
            support = _numbers(family, params, "support", (0.0, 1.0))
            heights = _numbers(family, params, "heights")
            if len(support) != 2 or params.get("cells", len(heights)) != len(heights):
                raise ConfigError(
                    "measure family 'histogram' needs a [lo, hi] 'support' and one of "
                    f"'heights' per cell, got support {support} and {len(heights)} heights "
                    f"for cells {params.get('cells')!r}"
                )
            return HistogramMeasure(PartitionRef(len(heights), tuple(support)), heights)
        if family == "discrete":
            points = _numbers(family, params, "points")
            ref = None
            if "weights" in params:
                ref = DiscreteRef(
                    tuple(float(p) for p in points),
                    tuple(float(w) for w in _numbers(family, params, "weights")),
                )
            return DiscreteMeasure(points, _numbers(family, params, "masses"), ref=ref)
        if family == "point-mass":
            return point_mass(params["at"])
        if family == "mixture":
            return MixtureMeasure(
                measure_from_config(params["base"]),
                params["alpha"],
                measure_from_config(params["contaminant"]),
            )
    except KeyError as exc:
        raise ConfigError(f"measure family {family!r} is missing parameter {exc}") from exc
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        # A scalar parameter the constructor could not read as a number; the
        # constructors' own conversions are the check, so valid configs pay
        # nothing for it.
        bad = [k for k, v in params.items() if not isinstance(v, (int, float, dict))]
        raise ConfigError(
            f"measure family {family!r} parameter {bad[0] if bad else '?'!r} must be a "
            f"number, got {params.get(bad[0]) if bad else params!r}"
        ) from exc
    raise ConfigError(f"unknown measure family {family!r}")
