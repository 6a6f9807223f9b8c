"""Measures, reference measures, quadrature, and statistical distances.

This module is the numerical foundation of the package.  It provides:

    * reference measures (Lebesgue, equal-mass interval partitions, weighted
      discrete spaces);
    * concrete measure families (Gaussian, Cauchy, uniform, power, histogram,
      discrete / point mass / empirical, two-component contamination mixtures),
      each exposing densities, cdfs, sampling, and quadrature hints;
    * a globally adaptive composite Simpson integrator whose panels start at
      caller-supplied breakpoints; its integrand must be elementwise, since
      one call evaluates the points of up to ``_LOOKAHEAD`` queued panels.
      A pending panel is a row of nine floats in one ``array('d')`` plus an
      ``int`` heap key, and a popped panel's row is reused: about 121 bytes
      a panel, so the ``_QUAD_MAX_PANELS`` budget of 2^20 pending panels
      holds about 121 MiB;
    * distances: total variation, squared Hellinger, Kullback-Leibler,
      Wasserstein-1 on [0, 1], and L_j norms of density differences, each with
      closed forms where available and quadrature otherwise;
    * ``measure_from_config``, which builds a measure through its family's
      row of ``_FAMILIES``.  Each constructor (or builder) reads every
      parameter through the shared ``errors`` readers (``_finite``,
      ``_positive_finite``, ``_positive_int``, ``_floats``), so a config and
      a direct call refuse the same values, naming the family and the key.

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
      ``(seed, stream)`` so replications are reproducible and order-free,
      and ``_restart_stream`` moves one such generator to another key.
"""

from __future__ import annotations

import heapq
import inspect
import math
import sys
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import special as _special

from .errors import (
    ConfigError, NumericalError, _check_keys, _finite, _floats, _positive_finite, _positive_int
)

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
_QUAD_WIDTH_FLOOR = 64.0 * sys.float_info.epsilon  # narrowest panel, relative to max(1, |x|)
_LOOKAHEAD = 64  # panels whose quarter points one integrand call computes
_PROBE_COUNT = 4096
_BISECT_ITERS = 90


def _finite_entries(values, name: str) -> np.ndarray:
    """``values`` as a float array, refused unless it is a nonempty list of finite numbers.

    A numeric array passes with one vectorised test; anything else is read
    by ``errors._floats``, which refuses bools and strings that numpy would
    convert.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "fiu" and values.size and np.isfinite(values).all():
            return values.astype(float, copy=False)
        values = values.tolist()
    return np.array(_floats(values, name))


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
        _positive_int(self.cells, "measure parameter 'cells': histogram cells")
        support = _floats(self.support, "measure parameter 'support': histogram support")
        if len(support) != 2 or not support[1] > support[0]:
            raise ConfigError(f"histogram needs a [lo, hi] 'support' with lo < hi, got {self.support!r}")
        if not support[1] - support[0] < math.inf:
            raise ConfigError(f"measure parameter 'support': histogram hi - lo must be finite, got {self.support!r}")
        object.__setattr__(self, "support", support)

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
    """Finite weighted discrete space: points ``x_i`` with weights ``w_i > 0``.

    Points may come in any order; they are stored sorted, each with its weight.
    """

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = _finite_entries(self.points, "measure parameter 'points': discrete points")
        weights = _finite_entries(self.weights, "measure parameter 'weights': discrete weights")
        if pts.shape != weights.shape or pts.ndim != 1:
            raise ConfigError("discrete reference needs one weight per point")
        if not np.all(weights > 0):
            raise ConfigError("discrete reference weights must be positive")
        order = np.argsort(pts)
        pts = pts[order]
        if np.any(np.diff(pts) == 0.0):
            raise ConfigError("discrete reference points must be distinct")
        object.__setattr__(self, "points", tuple(pts.tolist()))
        object.__setattr__(self, "weights", tuple(weights[order].tolist()))

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

    ``fn`` must be elementwise: its value at a point may not depend on the
    other points of the array it is given.  A bisection needs the integrand
    at the popped panel's four quarter points; one call of ``fn`` computes
    them for that panel and for up to ``_LOOKAHEAD - 1`` more panels queued
    at the front of the heap, which are the next ones likely to be split.
    The value and the estimate are therefore bitwise those of evaluating each
    panel's points on their own, as they are bisected.

    A pending panel is one row of nine floats in an ``array('d')`` (its
    ``lo``, width, the integrand at its five nodes, its error estimate and
    its term of the value) and one ``int`` heap key.  A later push
    overwrites the row of each popped panel, so a run holds about one row
    per pending panel: about 121 bytes a panel in all once 2^16 are
    pending (131 at 2^13), and about 121 MiB when the 2^20-panel budget
    ``_QUAD_MAX_PANELS`` runs out, where the distance-table benchmark's
    singular TV pair peaks at about 178 MiB of resident memory.

    Returns:
        ``(value, error_estimate)``, both finite, the estimate at most
        ``_QUAD_ERR_BUDGET``.

    Raises:
        NumericalError: if the integrand returns a non-finite value at a
            point the rule uses (a queued panel that is never split does not
            count), a panel's Simpson sums or the value overflow, or the
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

    # A pending panel is 9 floats of ``rows`` at its offset: lo, width, f at
    # the 5 quartic nodes, err and its term S_fine + (S_fine - S_coarse) / 15
    # of the value.  A popped panel's offset goes on ``free``, for a later
    # push to overwrite its row.  Its heap key is ``(seq << shift | offset)``
    # minus err's IEEE bits shifted above both, where ``seq`` counts pushes,
    # so keys pop in (-err, push order) order: the bits order like the values
    # because every err is finite and >= 0, and no run makes 2^64 pushes.
    # ``ahead`` holds, by key, the quarter-point values computed ahead of a
    # panel's bisection.  Panels are settled in sibling pairs: the halves of
    # a bisected panel, or of a quarter of an initial segment, which starts
    # as 8 uniform panels so smooth integrands usually finish without
    # entering the refinement loop.
    tol, max_panels, floor = _QUAD_TOL, _QUAD_MAX_PANELS, _QUAD_WIDTH_FLOOR
    wide = 2.0 * floor * max(1.0, abs(a), abs(b))  # wider panels clear the floor anywhere
    # There are never more rows than the larger of the initial panel count
    # (8 a segment) and the budget, so every offset is below 2^shift.
    shift = (9 * (8 * len(edges) + max_panels)).bit_length()
    offset_mask, err_shift = (1 << shift) - 1, shift + 64
    tick, step = 0, 1 << shift  # seq << shift for the next push
    raw = memoryview(bytearray(8))
    err_slot, err_bits = raw.cast("d"), raw.cast("Q")
    push, pop, inf = heapq.heappush, heapq.heappop, math.inf
    rows = array("d")
    row = struct.Struct("9d")
    add_row, pack_row, write_row, read_row = rows.frombytes, row.pack, row.pack_into, row.unpack_from
    heap: list[int] = []
    free: list[int] = []
    ahead: dict[int, list[float]] = {}
    accepted_value = accepted_err = pending_err = 0.0

    pairs: list[tuple] = []
    for seg_lo, seg_hi in zip(edges[:-1], edges[1:]):
        grid = np.linspace(seg_lo, seg_hi, 33)
        vals = evaluate(grid).tolist()
        grid = grid.tolist()
        width = (seg_hi - seg_lo) / 8
        pairs += [(grid[8 * j], grid[8 * j + 4], width, *vals[8 * j : 8 * j + 9]) for j in range(4)]
    pairs.reverse()  # popped from the end, so in order

    while True:
        if pairs:
            lo, mid, h, f0, f1, f2, f3, f4, f5, f6, f7, f8 = pairs.pop()
        elif heap and pending_err + accepted_err > tol and len(heap) < max_panels:
            key = pop(heap)
            off = key & offset_mask
            lo, width, f0, f2, f4, f6, f8, err, _ = read_row(rows, 8 * off)
            free.append(off)
            pending_err -= err
            h = width / 2.0
            mid = lo + h
            quarter = ahead.pop(key, None)
            if quarter is None:
                # The popped row is still intact: only the pair below overwrites it.
                queued = [k for k in heap[: _LOOKAHEAD - 1] if k not in ahead]
                x: list[float] = []
                for k in (key, *queued):
                    o = k & offset_mask
                    qlo, qh = rows[o], rows[o + 1] / 2.0
                    x += (qlo + 0.25 * qh, qlo + 0.75 * qh, qlo + qh + 0.25 * qh, qlo + qh + 0.75 * qh)
                y = np.asarray(fn(np.array(x)), dtype=float).tolist()
                quarter = y[:4]
                for i, k in enumerate(queued, 1):
                    ahead[k] = y[4 * i : 4 * i + 4]
            f1, f3, f5, f7 = quarter
            if not math.isfinite(f1 + f3 + f5 + f7):
                # Checked only now, for a panel that is split.  ``evaluate``
                # raises on a non-finite value; values whose sum merely
                # overflowed come back unchanged.
                x = [lo + 0.25 * h, lo + 0.75 * h, mid + 0.25 * h, mid + 0.75 * h]
                f1, f3, f5, f7 = evaluate(np.array(x)).tolist()
        else:
            break
        # Settle the two panels [lo, lo + h] on f0..f4 and [mid, mid + h] on f4..f8.
        c, d = h / 6.0, h / 2.0 / 6.0
        coarse = c * (f0 + 4.0 * f2 + f4)
        fine = d * (f0 + 4.0 * f1 + f2) + d * (f2 + 4.0 * f3 + f4)
        gap = fine - coarse
        err = abs(gap) / 15.0
        term = fine + gap / 15.0
        if not err < inf:
            raise NumericalError(f"Simpson sums overflow on the panel [{lo!r}, {lo + h!r}]")
        if h > wide or h >= floor * max(1.0, abs(lo), abs(lo + h)):
            err_slot[0] = err
            if free:
                off = free.pop()
                write_row(rows, 8 * off, lo, h, f0, f1, f2, f3, f4, err, term)
            else:
                off = len(rows)
                add_row(pack_row(lo, h, f0, f1, f2, f3, f4, err, term))
            push(heap, tick + off - (err_bits[0] << err_shift))
            tick += step
            pending_err += err
        else:  # width floor: accept as-is, the panel cannot be refined further
            accepted_value += term
            accepted_err += err
        coarse = c * (f4 + 4.0 * f6 + f8)
        fine = d * (f4 + 4.0 * f5 + f6) + d * (f6 + 4.0 * f7 + f8)
        gap = fine - coarse
        err = abs(gap) / 15.0
        term = fine + gap / 15.0
        if not err < inf:
            raise NumericalError(f"Simpson sums overflow on the panel [{mid!r}, {mid + h!r}]")
        if h > wide or h >= floor * max(1.0, abs(mid), abs(mid + h)):
            err_slot[0] = err
            if free:
                off = free.pop()
                write_row(rows, 8 * off, mid, h, f4, f5, f6, f7, f8, err, term)
            else:
                off = len(rows)
                add_row(pack_row(mid, h, f4, f5, f6, f7, f8, err, term))
            push(heap, tick + off - (err_bits[0] << err_shift))
            tick += step
            pending_err += err
        else:
            accepted_value += term
            accepted_err += err

    value = accepted_value
    err_total = accepted_err + pending_err
    for key in heap:
        value += rows[(key & offset_mask) + 8]
    if err_total > _QUAD_ERR_BUDGET:
        raise NumericalError(
            f"quadrature error estimate {err_total:.3e} exceeds "
            f"{_QUAD_ERR_BUDGET:.0e} with {len(heap)} panels on [{a}, {b}]"
        )
    if not math.isfinite(value):
        raise NumericalError(f"quadrature value overflows on [{a}, {b}]")
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


def _sign_cuts(fn: Callable, a: float, b: float, breakpoints: Sequence[float]) -> list[float]:
    """``a``, ``b``, the breakpoints strictly between them and the sign
    changes of ``fn``, sorted and without repeats.

    The one owner of the cuts at which a density or cdf difference is split
    by sign, for quadrature of its absolute value and for sign regions.
    """
    inner = {p for p in breakpoints if a < p < b}
    return sorted({a, b} | inner | set(sign_change_points(fn, a, b, breakpoints)))


# ---------------------------------------------------------------------------
# Measure families
# ---------------------------------------------------------------------------


class Measure:
    """Base class for measures on the real line.

    Subclasses set ``tag`` (a family identifier used for closed-form
    dispatch), ``reference`` and ``is_probability``, and define ``params``
    (the family parameters, round-trippable through ``to_config``).
    ``params`` is built when read, by ``to_config`` and ``repr``; building
    a measure does not pay for it.
    """

    tag: str = "measure"
    reference: object = LebesgueRef()
    is_probability: bool = True

    @property
    def params(self) -> dict:
        raise NotImplementedError

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
        return {"family": self.tag, "params": self.params}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}({inner})"


class GaussianMeasure(Measure):
    """Gaussian distribution with given mean and standard deviation."""

    tag = "gaussian"

    def __init__(self, mean: float, sd: float = 1.0):
        self.mean = float(_finite(mean, "measure parameter 'mean': gaussian mean"))
        self.sd = _positive_finite(sd, "measure parameter 'sd': gaussian sd")
        if not abs(self.mean) + 12.0 * self.sd < math.inf:
            raise ConfigError(
                f"measure parameter 'sd': gaussian window mean +/- 12 sd must be finite, got mean={mean!r}, sd={sd!r}"
            )

    @property
    def params(self):
        return {"mean": self.mean, "sd": self.sd}

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return _special.ndtr(z)

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
        self.loc = float(_finite(loc, "measure parameter 'loc': cauchy loc"))
        self.scale = _positive_finite(scale, "measure parameter 'scale': cauchy scale")
        if not abs(self.loc) + 2500.0 * self.scale < math.inf:
            raise ConfigError(
                f"measure parameter 'scale': cauchy window loc +/- 2500 scale must be finite, got loc={loc!r}, scale={scale!r}"
            )

    @property
    def params(self):
        return {"loc": self.loc, "scale": self.scale}

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return 1.0 / (math.pi * self.scale * (1.0 + z * z))

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return 0.5 + np.arctan(z) / math.pi

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
        self.low = float(_finite(low, "measure parameter 'low': uniform low"))
        self.width = _positive_finite(width, "measure parameter 'width': uniform width")
        if not self.low + self.width < math.inf:
            raise ConfigError(f"measure parameter 'width': uniform low + width must be finite, got low={low!r}, width={width!r}")

    @property
    def params(self):
        return {"low": self.low, "width": self.width}

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
        self.alpha = _positive_finite(alpha, "measure parameter 'alpha': power alpha")
        self.shift = float(_finite(shift, "measure parameter 'shift': power shift"))

    @property
    def params(self):
        return {"alpha": self.alpha, "shift": self.shift}

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
        heights = _finite_entries(heights, "measure parameter 'heights': histogram heights")
        if heights.shape != (partition.cells,):
            raise ConfigError(
                f"histogram needs one of 'heights' per cell, got shape {heights.shape} for cells {partition.cells}"
            )
        self.partition = partition
        self.heights = heights
        self.reference = partition
        total = float(heights.mean())  # == sum of cell masses
        self.is_probability = bool(np.all(heights >= -1e-12) and abs(total - 1.0) <= _PROB_TOL)

    @property
    def params(self):
        return {
            "support": list(self.partition.support),
            "heights": [float(h) for h in self.heights],
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

    @cached_property
    def _sampling_cdf(self):
        return _choice_cdf(self.cell_masses)

    def sample(self, n, rng):
        if not self.is_probability:
            raise ConfigError("cannot sample from a signed histogram")
        cells = _choice(self._sampling_cdf, n, rng)
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
        pts = _finite_entries(points, "measure parameter 'points': discrete points")
        ms = _finite_entries(masses, "measure parameter 'masses': discrete masses")
        if pts.shape != ms.shape or pts.ndim != 1:
            raise ConfigError("discrete measure needs matching 1-d points and masses")
        order = np.argsort(pts)
        pts, ms = pts[order], ms[order]
        self.points = pts
        self.masses = ms
        if ref is None:
            # Counting measure on the points; it refuses repeated points.
            ref = DiscreteRef(pts, np.ones(len(pts)))
        self.reference = ref
        if tuple(pts) != self.reference.points:
            raise ConfigError("discrete measure points must match the reference points")
        self.is_probability = bool(np.all(ms >= -1e-12) and abs(ms.sum() - 1.0) <= _PROB_TOL)

    @property
    def params(self):
        params = {
            "points": [float(p) for p in self.points],
            "masses": [float(m) for m in self.masses],
        }
        if self.reference.weights != (1.0,) * len(self.points):
            params["weights"] = list(self.reference.weights)
        return params

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

    @cached_property
    def _sampling_cdf(self):
        return _choice_cdf(self.masses)

    def sample(self, n, rng):
        if not self.is_probability:
            raise ConfigError("cannot sample from a signed discrete measure")
        return self.points[_choice(self._sampling_cdf, n, rng)]


def point_mass(at: float) -> DiscreteMeasure:
    """Dirac measure at a single point."""
    return DiscreteMeasure([_finite(at, "measure parameter 'at': point-mass at")], [1.0])


class MixtureMeasure(Measure):
    """Two-component contamination mixture ``(1 - alpha) * base + alpha * contaminant``.

    Sampling draws the base sample and overwrites positions selected by an
    independent Bernoulli(alpha) mask, so runs that differ only in ``alpha``
    share the same underlying draws (the ``alpha = 0`` mixture reproduces the
    base sample exactly from the same generator state).
    """

    tag = "mixture"

    def __init__(self, base: Measure, alpha: float, contaminant: Measure):
        if not 0.0 <= _finite(alpha, "measure parameter 'alpha': mixture alpha") <= 1.0:
            raise ConfigError(f"measure parameter 'alpha': mixture alpha must lie in [0, 1], got {alpha!r}")
        if not (base.is_probability and contaminant.is_probability):
            raise ConfigError("mixture components must be probability measures")
        self.base = base
        self.alpha = float(alpha)
        self.contaminant = contaminant

    @property
    def params(self):
        return {
            "base": self.base.to_config(),
            "alpha": self.alpha,
            "contaminant": self.contaminant.to_config(),
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

    def cdf_knots(self):
        # Piecewise linear (with jumps) exactly when both components are.
        base, cont = self.base.cdf_knots(), self.contaminant.cdf_knots()
        if base is None or cont is None:
            return None
        return tuple(sorted({*base, *cont}))

    def cdf_integral(self, a, b):
        # Componentwise, so each component's exact integral is kept.
        return (1.0 - self.alpha) * self.base.cdf_integral(a, b) + self.alpha * (
            self.contaminant.cdf_integral(a, b)
        )

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


def _stream_key(seed: int, stream: int) -> tuple[int, int]:
    """The Philox key of stream ``(seed, stream)``: both numbers mod 2^64.

    A negative seed ``s`` keys the same stream as ``s + 2**64`` (``-1`` is
    ``2**64 - 1``), and seeds of 2^64 or more wrap the same way.  Python and
    numpy integers are taken; a bool or a float is refused, since the uint64
    cast would truncate ``1.5`` to seed 1's stream.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"RNG {name} must be an integer, got {value!r}")
    return int(seed) % 2**64, int(stream) % 2**64


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """A new counter-based generator keyed by ``(seed, stream)``.

    Distinct ``(seed, stream)`` pairs give independent reproducible streams,
    so per-replication generators can be created in any order (or in
    parallel) without affecting the draws.  A loop over many streams builds
    one generator and moves it with ``_restart_stream`` instead.
    """
    key = np.array(_stream_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_PHILOX_ZEROS = (0, 0, 0, 0)


def _restart_stream(rng: np.random.Generator, seed: int, stream: int) -> np.random.Generator:
    """Set ``rng``, a ``philox_rng`` generator, to the start of stream ``(seed, stream)``.

    A Philox stream is fixed by its key and counter, so once the whole state
    is set as ``Philox(key=...)`` sets it up (counter 0, an empty buffer, no
    held 32-bit half) ``rng`` draws bitwise what a new ``philox_rng(seed,
    stream)`` draws, wherever it stood before.  That costs a fraction of
    building a new generator, which also draws OS entropy it never uses.
    Returns ``rng``.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_ZEROS, "key": _stream_key(seed, stream)},
        "buffer": _PHILOX_ZEROS,
        "buffer_pos": 4,  # past the end of the 4-word buffer: empty
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _choice_cdf(masses: np.ndarray) -> np.ndarray:
    """The cdf ``Generator.choice`` builds for ``p`` = ``masses`` clipped at 0 and normalised.

    Built once per measure; ``_choice`` then draws from it.
    """
    probs = np.clip(masses, 0.0, None)
    probs = probs / probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _choice(cdf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(len(cdf), size=n, p=probs)`` for ``cdf = _choice_cdf(probs)``.

    The same indices from the same ``n`` uniforms, so ``rng`` ends where
    ``choice`` leaves it; ``choice`` would re-check and re-sum ``p`` per call.
    """
    return cdf.searchsorted(rng.random(n), side="right")


def empirical_measure(sample: Sequence[float]) -> DiscreteMeasure:
    """Empirical measure: mass ``count/n`` at each distinct observed value."""
    data = np.asarray(sample, dtype=float)
    if data.size == 0:
        raise ConfigError("empirical measure needs at least one observation")
    values, counts = np.unique(data, return_counts=True)
    return DiscreteMeasure(values, counts / data.size)


# ---------------------------------------------------------------------------
# Distance helpers
# ---------------------------------------------------------------------------


def _require_probability(*measures: Measure) -> None:
    for m in measures:
        if not m.is_probability:
            raise ConfigError(f"{m!r} is not a probability measure")


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
    # searchsorted returns no negative index, so only the top needs clipping;
    # np.clip on integers would look up np.iinfo twice per call.
    idx = np.minimum(np.searchsorted(points, x), len(points) - 1)
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


# Per class: the kind of a matched pair, and the parameter its measures share.
_MATCHED_FAMILIES = {
    GaussianMeasure: ("gaussian", "sd"),
    CauchyMeasure: ("cauchy", "scale"),
    UniformMeasure: ("uniform", "width"),
    PowerMeasure: ("power", "alpha"),
    HistogramMeasure: ("partition", "partition"),
}


def pair_kind(P: Measure, Q: Measure) -> str:
    """The kind of the pair (P, Q), which decides which exact paths apply.

    ``"atomic"`` when neither measure has a continuous part; ``"partition"``
    for two histograms on one partition; ``"gaussian"``, ``"cauchy"``,
    ``"uniform"`` or ``"power"`` for two measures of that family with equal
    ``sd``, ``scale``, ``width`` or ``alpha``; ``"general"`` otherwise.  The
    kind is symmetric in P and Q.
    """
    family = _MATCHED_FAMILIES.get(type(P))
    if family is not None and type(Q) is type(P):
        kind, shape = family
        return kind if getattr(P, shape) == getattr(Q, shape) else "general"
    if _has_continuous_part(P) or _has_continuous_part(Q):
        return "general"
    return "atomic"


def _continuous_support(m: Measure) -> list[tuple[float, float]]:
    """Closure of the support of ``m``'s continuous part, which must exist.

    Returned as sorted, disjoint intervals, so a gap between a mixture's
    weighted components, or a zero-height histogram cell, stays a gap.
    """
    if isinstance(m, HistogramMeasure):
        edges = m.partition.edges.tolist()
        spans = [(edges[c], edges[c + 1]) for c in np.flatnonzero(m.heights > 0.0).tolist()]
    elif isinstance(m, MixtureMeasure):
        parts = ((m.base, 1.0 - m.alpha), (m.contaminant, m.alpha))
        spans = sorted(
            span
            for c, w in parts
            if w > 0.0 and _has_continuous_part(c)
            for span in _continuous_support(c)
        )
    else:
        return [m.support()]
    merged = [spans[0]]
    for lo, hi in spans[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


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
    kind = pair_kind(P, Q)
    if kind == "gaussian":
        # TV = P[|Z| <= |Δm| / (2 sd)] for a standard normal Z.
        d = abs(P.mean - Q.mean) / (2.0 * P.sd)
        return float(2.0 * _special.ndtr(d) - 1.0)
    if kind == "cauchy":
        return (2.0 / math.pi) * math.atan(abs(P.loc - Q.loc) / (2.0 * P.scale))
    if kind == "uniform":
        return min(1.0, abs(P.low - Q.low) / P.width)
    if kind == "power" and P.alpha <= 1.0:
        # Translated power laws with alpha <= 1 have {p > q} = (shift_P, shift_Q]
        # (for shift_P < shift_Q), giving TV = min(1, |Δshift|^alpha).  The
        # formula fails for alpha > 1, which falls through to quadrature.
        return min(1.0, abs(P.shift - Q.shift) ** P.alpha)
    if kind == "partition":
        return 0.5 * float(np.abs(P.cell_masses - Q.cell_masses).sum())
    if kind == "atomic":
        _, (vp, vq) = atom_mass_matrix(P, Q)
        return min(1.0, 0.5 * float(np.abs(vp - vq).sum()))
    return None


def _tv_quadrature(P: Measure, Q: Measure) -> float:
    """TV for any pair: atoms exactly, ``|p - q|`` by quadrature between sign cuts."""
    atom_part = 0.0
    if P.atoms() or Q.atoms():
        _, (vp, vq) = atom_mass_matrix(P, Q)
        atom_part = float(np.abs(vp - vq).sum())
    cont_part = 0.0
    if _has_continuous_part(P) or _has_continuous_part(Q):
        lo, hi = _union_window(P, Q)
        diff = lambda x: P.pdf(x) - Q.pdf(x)
        cuts = _sign_cuts(diff, lo, hi, _union_breakpoints(P, Q))
        cont_part = integrate(lambda x: np.abs(diff(x)), lo, hi, cuts)[0]
        if P.heavy_tails or Q.heavy_tails:
            # Add the tail mass outside the window, where p - q keeps one sign
            # so each side contributes its cdf gap.  The left gap stops just
            # short of lo: an atom at lo is already in atom_part.
            below = np.nextafter(lo, -math.inf)
            cont_part += abs(float(P.cdf(below) - Q.cdf(below)))
            cont_part += abs(float(Q.cdf(hi) - P.cdf(hi)))
    return min(1.0, 0.5 * (cont_part + atom_part))


def tv_distance(P: Measure, Q: Measure) -> float:
    """Total variation distance between two probability measures, in [0, 1].

    The closed form for matched families, quadrature otherwise.
    """
    _require_probability(P, Q)
    closed = _tv_closed_form(P, Q)
    return _tv_quadrature(P, Q) if closed is None else closed


# ---------------------------------------------------------------------------
# Squared Hellinger
# ---------------------------------------------------------------------------


def hellinger_sq(P: Measure, Q: Measure) -> float:
    """Squared Hellinger distance ``h²(P, Q) = 1 - ∫ sqrt(dP dQ)`` in [0, 1]."""
    _require_probability(P, Q)
    kind = pair_kind(P, Q)
    if kind == "gaussian":
        d = P.mean - Q.mean
        return 1.0 - math.exp(-(d * d) / (8.0 * P.sd * P.sd))
    if kind == "partition":
        aff = float(
            np.sqrt(np.clip(P.cell_masses, 0, None) * np.clip(Q.cell_masses, 0, None)).sum()
        )
        return min(1.0, max(0.0, 1.0 - aff))
    return _hellinger_quadrature(P, Q)


def _hellinger_quadrature(P: Measure, Q: Measure) -> float:
    """``h²(P, Q)`` for any pair: affinity over atoms plus quadrature over pdfs."""
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


def kl_divergence(P: Measure, Q: Measure) -> float:
    """Kullback-Leibler divergence ``KL(P || Q)``; returns ``inf`` when P ⊄ Q.

    Summed ``p log(p/q)`` terms of two nearly equal measures cancel to a
    rounding error of either sign, so the sum is clamped at 0.
    """
    _require_probability(P, Q)
    kind = pair_kind(P, Q)
    if kind == "partition":
        return max(0.0, float(_xlogx_ratio(P.cell_masses, Q.cell_masses).sum()))
    if kind == "gaussian":
        d = P.mean - Q.mean
        return (d * d) / (2.0 * P.sd * P.sd)
    return max(0.0, _kl_quadrature(P, Q))


def _kl_quadrature(P: Measure, Q: Measure) -> float:
    """``KL(P || Q)`` for any pair: atoms exactly, the continuous part by quadrature.

    Screen: P may not put mass where Q has no atom, and each interval of the
    support of P's continuous part must sit inside one of Q's; atoms, even
    of zero mass, widen neither support.
    """
    _, (vp, vq) = atom_mass_matrix(P, Q)
    if np.any((vp > 0.0) & (vq <= 0.0)):
        return math.inf
    total = float(_xlogx_ratio(vp, vq).sum())
    if _has_continuous_part(P):
        if not _has_continuous_part(Q):
            return math.inf
        q_spans = _continuous_support(Q)
        for lo_p, hi_p in _continuous_support(P):
            if not any(lo_q - 1e-12 <= lo_p and hi_p <= hi_q + 1e-12 for lo_q, hi_q in q_spans):
                return math.inf
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

    ``stacked`` holds one row of densities per candidate.  None
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
    has no finite log-ratio bound), and when some candidate has atoms (the
    KL score checks an atomic pair over its atoms itself).  The target
    equals ``max_x [log max_i p_i(x) - log min_i p_i(x)]``, so one column
    pass per probe point covers every pair.  The coarse probe (a global grid
    plus every candidate breakpoint and the midpoints between them) is
    polished by zooming into the best bracket a few times, since windows can
    span thousands of scale units while the ratio peaks near the centers.
    """
    if len(candidates) < 2:
        return None
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
        # Knots an ulp or two apart round both points to one float (0/0):
        # the piece is then narrower than 1e-15 and taken as flat.
        slope = (g2 - g1) / (u2 - u1) if u2 > u1 else 0.0
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


def wasserstein1(P: Measure, Q: Measure) -> float:
    """Wasserstein-1 distance between probability measures on [0, 1].

    Equal to ``∫_0^1 |F_P - F_Q|``.  Exact for piecewise-linear and step
    cdfs (uniform, histogram, discrete, empirical); closed form for the power
    shape family; adaptive quadrature otherwise.
    """
    _require_probability(P, Q)
    _check_unit_interval(P)
    _check_unit_interval(Q)
    if isinstance(P, PowerMeasure) and isinstance(Q, PowerMeasure) and P.shift == Q.shift == 0.0:
        # F_P = x^a and F_Q = x^b are ordered on all of [0, 1].
        return abs(1.0 / (P.alpha + 1.0) - 1.0 / (Q.alpha + 1.0))
    if P.cdf_knots() is not None and Q.cdf_knots() is not None:
        return _abs_cdf_diff_exact(P, Q)
    return _w1_quadrature(P, Q)


def _w1_quadrature(P: Measure, Q: Measure) -> float:
    """``∫_0^1 |F_P - F_Q|`` for any pair on [0, 1], by quadrature between sign cuts."""
    diff = lambda x: np.asarray(P.cdf(x), dtype=float) - np.asarray(Q.cdf(x), dtype=float)
    cuts = _sign_cuts(diff, 0.0, 1.0, _union_breakpoints(P, Q))
    return integrate(lambda x: np.abs(diff(x)), 0.0, 1.0, cuts)[0]


# ---------------------------------------------------------------------------
# L_j distances
# ---------------------------------------------------------------------------


def lj_distance(P: Measure, Q: Measure, j: float) -> float:
    """L_j norm of the density difference w.r.t. the shared reference.

    ``j`` may be any value in (1, inf]; ``math.inf`` selects the sup norm.
    Signed measures are allowed (the norm only sees densities), but the two
    measures must share the same reference, and on the real line neither
    may have atoms.
    """
    if not (j > 1.0):
        raise ConfigError(f"L_j norms need j in (1, inf], got {j}")
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
    if P.atoms() or Q.atoms():
        raise ConfigError(
            f"L_j distance needs Lebesgue densities, but {P!r} or {Q!r} has atoms"
        )
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

    if P.cdf_knots() is None or Q.cdf_knots() is None:
        cuts = _sign_cuts(diff, 0.0, 1.0, _union_breakpoints(P, Q))
    else:
        # The pieces fit F_P - F_Q, the exact negation of diff: same roots.
        cuts = {0.0, 1.0}
        for a, b, ga, gb in _cdf_gap_pieces(P, Q):
            cuts.add(a)
            cuts.add(b)
            if ga * gb < 0.0:
                cuts.add(a + (b - a) * abs(ga) / (abs(ga) + abs(gb)))
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


def _histogram(heights, support=(0.0, 1.0), cells=None) -> HistogramMeasure:
    heights = _finite_entries(heights, "measure parameter 'heights': histogram heights")
    return HistogramMeasure(PartitionRef(len(heights) if cells is None else cells, support), heights)


def _discrete(points, masses, weights=None) -> DiscreteMeasure:
    return DiscreteMeasure(points, masses, None if weights is None else DiscreteRef(points, weights))


def _mixture(base, alpha, contaminant) -> MixtureMeasure:
    return MixtureMeasure(measure_from_config(base), alpha, measure_from_config(contaminant))


class _Family(NamedTuple):
    """One measure family's config.

    ``build`` takes the family's parameters by name and reads each one
    through the ``errors`` readers, so its signature is the one place that
    says which parameters the family takes and their defaults.
    ``location`` is the parameter a translation moves (None if none does).
    """

    build: Callable[..., Measure]
    location: str | None = None


_FAMILIES = {
    "gaussian": _Family(GaussianMeasure, "mean"),
    "cauchy": _Family(CauchyMeasure, "loc"),
    "uniform": _Family(UniformMeasure, "low"),
    "power": _Family(PowerMeasure, "shift"),
    "histogram": _Family(_histogram),
    "discrete": _Family(_discrete),
    "point-mass": _Family(point_mass),
    "mixture": _Family(_mixture),
}


def measure_from_config(cfg: dict) -> Measure:
    """Build a measure from a plain-dict configuration record.

    The record must have a ``family`` key, a row of ``_FAMILIES``, plus a
    ``params`` mapping; see each family's builder for its parameters.
    Raises ``ConfigError`` for unknown families, unknown or missing keys
    and bad parameters, naming the key.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"measure config must be a mapping, got {type(cfg).__name__}")
    # A command reads dozens of measure configs, so a valid one builds no
    # set: counting the known keys present finds any other key.
    if len(cfg) != ("family" in cfg) + ("params" in cfg):
        _check_keys(cfg, {"family", "params"}, "measure")
    family = cfg.get("family")
    entry = _FAMILIES.get(family) if isinstance(family, str) else None
    if entry is None:
        raise ConfigError(f"unknown measure family {family!r}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("measure config 'params' must be a mapping")
    try:
        return entry.build(**params)
    except TypeError:
        # The call refuses an unknown or missing parameter name, and the
        # builder's readers refuse every wrong value with a ConfigError, so
        # a TypeError names a key these checks find, or is not a config's.
        sig = inspect.signature(entry.build).parameters
        _check_keys(params, sig.keys(), f"{family} measure")
        missing = [k for k, p in sig.items() if p.default is p.empty and k not in params]
        if missing:
            raise ConfigError(f"measure family {family!r} is missing parameters {missing}") from None
        raise
