"""Builders for the package's concrete candidate families.

Each builder turns a :class:`ModelBuilderConfig` into an estimator
:class:`~pairfit.estimator.Model` whose candidates are package measures
(samplers and cdfs included, closed-form distances where the families have
them) and whose metadata matches the family: VC dimension for location
grids and monotone nets.

All of the idealized "dense" candidate collections become finite nets with
caller-chosen resolution; the grids are kept in ``candidate_params`` so
downstream reports can state the net resolution next to any risk number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _check_keys
from .estimator import Model
from .measures import (
    CauchyMeasure,
    DiscreteMeasure,
    GaussianMeasure,
    HistogramMeasure,
    Measure,
    PartitionRef,
    PowerMeasure,
    UniformMeasure,
    measure_from_config,
)

__all__ = ["ModelBuilderConfig", "build"]

_FAMILIES = (
    "gaussian-location-grid",
    "translation-grid",
    "histogram-net",
    "monotone-net",
    "l2-linear",
    "discrete",
    "regression-tuples",
)

_RELEVANT = {
    "gaussian-location-grid": {"d", "lo", "hi", "step"},
    "translation-grid": {"base", "alpha", "lo", "hi", "step"},
    "histogram-net": {"cells", "value_grid"},
    "monotone-net": {"d", "breakpoint_grid", "level_grid"},
    "l2-linear": {"basis", "cells", "coefficient_net"},
    "discrete": {"space_size", "candidates"},
    "regression-tuples": {"theta_net", "base_q", "n"},
}

_TRANSLATION_BASES = ("cauchy", "uniform", "power")

# Probability-candidate mass must match 1 this closely.
_MASS_TOL = 1e-9

# Most height tuples a histogram net, or run-and-level choices a monotone
# net, may enumerate before filtering by mass; also the most points a
# location grid may hold.
_MAX_NET_TUPLES = 10**6


@dataclass(frozen=True)
class ModelBuilderConfig:
    """Declarative description of one candidate family.

    ``family`` selects the builder; the other fields are family-specific and
    must stay None for families that do not use them (mirroring how loss
    configs work).  Grids are given either as (lo, hi, step) ranges or as
    explicit value tuples, depending on the field.
    """

    family: str
    d: int | None = None
    lo: float | None = None
    hi: float | None = None
    step: float | None = None
    base: str | None = None
    alpha: float | None = None
    cells: int | None = None
    value_grid: tuple[float, ...] | None = None
    breakpoint_grid: tuple[float, ...] | None = None
    level_grid: tuple[float, ...] | None = None
    basis: str | None = None
    coefficient_net: tuple[tuple[float, ...], ...] | None = None
    space_size: int | None = None
    candidates: tuple[tuple[float, ...], ...] | None = None
    theta_net: tuple[tuple[float, ...], ...] | None = None
    base_q: dict | None = None
    n: int | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConfigError(
                f"unknown model family {self.family!r}; expected one of {_FAMILIES}"
            )
        for name in ("value_grid", "breakpoint_grid", "level_grid"):
            self._freeze(name, _as_float_tuple)
        for name in ("coefficient_net", "candidates", "theta_net"):
            self._freeze(name, _as_vector_tuple)
        for name in ("lo", "hi", "step", "alpha"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ConfigError(f"model parameter {name!r} must be a number, got {value!r}")
        relevant = _RELEVANT[self.family]
        for name, value in vars(self).items():
            if name == "family":
                continue
            if value is not None and name not in relevant:
                raise ConfigError(
                    f"model family {self.family!r} does not take parameter {name!r}"
                )
        checker = getattr(self, "_check_" + self.family.replace("-", "_"))
        checker()

    def _freeze(self, name: str, normalize) -> None:
        value = getattr(self, name)
        if value is not None:
            object.__setattr__(self, name, normalize(name, value))

    # -- per-family field validation ------------------------------------------

    def _require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(
                    f"model family {self.family!r} requires parameter {name!r}"
                )

    def _check_range(self) -> None:
        self._require("lo", "hi", "step")
        if not all(math.isfinite(v) for v in (self.lo, self.hi, self.step)):
            raise ConfigError(
                f"grid lo, hi and step must be finite, got {self.lo!r}, {self.hi!r}, {self.step!r}"
            )
        if not self.step > 0:
            raise ConfigError(f"step must be positive, got {self.step!r}")
        if self.hi < self.lo:
            raise ConfigError(f"empty grid: hi = {self.hi!r} < lo = {self.lo!r}")
        # The grid has floor(span) + 1 points; a span that overflows to
        # infinity is refused too.
        if not _grid_span(self.lo, self.hi, self.step) < _MAX_NET_TUPLES:
            raise ConfigError(
                f"location grid from {self.lo!r} to {self.hi!r} by {self.step!r} has more "
                f"than {_MAX_NET_TUPLES} points"
            )

    def _check_gaussian_location_grid(self) -> None:
        self._require("d")
        if self.d != 1:
            raise ConfigError(
                f"gaussian location grids are one-dimensional here; d = {self.d!r} "
                "is not supported"
            )
        self._check_range()

    def _check_translation_grid(self) -> None:
        self._require("base")
        if self.base not in _TRANSLATION_BASES:
            raise ConfigError(
                f"translation base must be one of {_TRANSLATION_BASES}, got {self.base!r}"
            )
        if self.base == "power":
            self._require("alpha")
            if not 0.0 < self.alpha <= 1.0:
                raise ConfigError(
                    f"power base needs alpha in (0, 1], got {self.alpha!r}"
                )
        elif self.alpha is not None:
            raise ConfigError(f"base {self.base!r} does not take alpha")
        self._check_range()

    def _check_histogram_net(self) -> None:
        self._require("cells", "value_grid")
        if not isinstance(self.cells, int) or self.cells < 1:
            raise ConfigError(f"cells must be a positive integer, got {self.cells!r}")
        if not self.value_grid:
            raise ConfigError("value_grid must be nonempty")
        if any(v < 0 for v in self.value_grid):
            raise ConfigError("value_grid entries must be nonnegative heights")
        # The exponent is capped so a huge cell count cannot stall the check:
        # two or more values already pass the limit at 64 cells.
        if len(self.value_grid) ** min(self.cells, 64) > _MAX_NET_TUPLES:
            raise ConfigError(
                f"histogram net enumerates {len(self.value_grid)}^{self.cells} height "
                f"tuples, above the limit of {_MAX_NET_TUPLES}"
            )

    def _check_monotone_net(self) -> None:
        self._require("d", "breakpoint_grid", "level_grid")
        if not isinstance(self.d, int) or self.d < 1:
            raise ConfigError(f"piece count d must be a positive integer, got {self.d!r}")
        grid = self.breakpoint_grid
        if len(grid) < 2:
            raise ConfigError("breakpoint_grid needs at least two points")
        diffs = np.diff(grid)
        if np.any(diffs <= 0):
            raise ConfigError("breakpoint_grid must be strictly increasing")
        if np.max(diffs) - np.min(diffs) > 1e-9 * np.max(diffs):
            raise ConfigError(
                "breakpoint_grid must be equally spaced (candidates share one partition)"
            )
        if not self.level_grid or any(v <= 0 for v in self.level_grid):
            raise ConfigError("level_grid must be nonempty with positive density levels")
        # The builder tries C(cells - start, p) run ends times C(levels, p)
        # level choices per start cell and piece count p; summed over the
        # start cell, the ends give C(cells + 1, p + 1).  The sum stops at
        # the first p past the limit, so no grid is too large to refuse.
        cells, levels = len(grid) - 1, len(set(self.level_grid))
        count = 0
        for p in range(1, min(self.d, cells, levels) + 1):
            count += math.comb(cells + 1, p + 1) * math.comb(levels, p)
            if count > _MAX_NET_TUPLES:
                raise ConfigError(
                    f"monotone net with {cells} cells, d = {self.d} and {levels} levels "
                    f"enumerates more than {_MAX_NET_TUPLES} run-and-level choices"
                )

    def _check_l2_linear(self) -> None:
        self._require("basis")
        if self.basis == "user":
            raise ConfigError(
                "user bases carry no concrete densities; only the indicator basis "
                "builds a model"
            )
        if self.basis != "indicator":
            raise ConfigError(
                f"basis must be 'indicator' or 'user', got {self.basis!r}"
            )
        self._require("cells", "coefficient_net")
        if not isinstance(self.cells, int) or self.cells < 1:
            raise ConfigError(f"cells must be a positive integer, got {self.cells!r}")
        if not self.coefficient_net:
            raise ConfigError("coefficient_net must be nonempty")
        for row in self.coefficient_net:
            if len(row) != self.cells:
                raise ConfigError(
                    f"coefficient vectors must have length {self.cells}, got {len(row)}"
                )

    def _check_discrete(self) -> None:
        self._require("space_size", "candidates")
        if not isinstance(self.space_size, int) or self.space_size < 1:
            raise ConfigError(
                f"space_size must be a positive integer, got {self.space_size!r}"
            )
        if not self.candidates:
            raise ConfigError("candidate list must be nonempty")
        for idx, row in enumerate(self.candidates):
            if len(row) != self.space_size:
                raise ConfigError(
                    f"candidate {idx} has {len(row)} masses for a "
                    f"{self.space_size}-point space"
                )
            if any(v < 0 for v in row):
                raise ConfigError(f"candidate {idx} has negative masses")
            if abs(sum(row) - 1.0) > _MASS_TOL:
                raise ConfigError(
                    f"candidate {idx} masses sum to {sum(row)!r}, not 1"
                )

    def _check_regression_tuples(self) -> None:
        self._require("theta_net", "base_q", "n")
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        if not self.theta_net:
            raise ConfigError("theta_net must be nonempty")
        for idx, row in enumerate(self.theta_net):
            if len(row) != self.n:
                raise ConfigError(
                    f"theta vector {idx} has length {len(row)}, expected n = {self.n}"
                )
        if not isinstance(self.base_q, dict) or "family" not in self.base_q:
            raise ConfigError("base_q must be a measure config with a 'family' key")

    # -- config round-trip -----------------------------------------------------

    def to_config(self) -> dict:
        cfg: dict = {"family": self.family}
        for name, value in vars(self).items():
            if name == "family" or value is None:
                continue
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            cfg[name] = value
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "ModelBuilderConfig":
        if not isinstance(cfg, dict) or "family" not in cfg:
            raise ConfigError("model config must be a mapping with a 'family' key")
        _check_keys(cfg, {"family"} | set().union(*_RELEVANT.values()), "model")
        return cls(**cfg)


def _as_float_tuple(name: str, value) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a sequence of numbers") from exc


def _as_vector_tuple(name: str, value) -> tuple[tuple[float, ...], ...]:
    try:
        return tuple(tuple(float(v) for v in row) for row in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a sequence of numeric vectors") from exc


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build(config: ModelBuilderConfig | dict) -> Model:
    """Build the candidate model described by ``config``."""
    if isinstance(config, dict):
        config = ModelBuilderConfig.from_config(config)
    builder = _BUILDERS[config.family]
    return builder(config)


def _grid_span(lo: float, hi: float, step: float) -> float:
    """Steps from ``lo`` to ``hi``, with slack that keeps a rounded ``hi`` on the grid."""
    return (hi - lo) / step + 1e-9


def _location_grid(lo: float, hi: float, step: float) -> list[float]:
    count = int(math.floor(_grid_span(lo, hi, step))) + 1
    return [lo + k * step for k in range(count)]


def _build_gaussian_grid(config: ModelBuilderConfig) -> Model:
    grid = _location_grid(config.lo, config.hi, config.step)
    candidates = [GaussianMeasure(m, 1.0) for m in grid]
    return Model(
        candidates=candidates,
        vc_dimension=float(config.d + 1),
        candidate_params=grid,
    )


def _build_translation_grid(config: ModelBuilderConfig) -> Model:
    grid = _location_grid(config.lo, config.hi, config.step)
    if config.base == "cauchy":
        candidates: list[Measure] = [CauchyMeasure(t, 1.0) for t in grid]
    elif config.base == "uniform":
        candidates = [UniformMeasure(t, 1.0) for t in grid]
    else:
        candidates = [PowerMeasure(config.alpha, shift=t) for t in grid]
    return Model(
        candidates=candidates,
        candidate_params=grid,
    )


def _build_histogram_net(config: ModelBuilderConfig) -> Model:
    cells = config.cells
    part = PartitionRef(cells, (0.0, 1.0))
    candidates = []
    params = []
    for heights in itertools.product(config.value_grid, repeat=cells):
        if abs(sum(heights) / cells - 1.0) <= _MASS_TOL:
            candidates.append(HistogramMeasure(part, heights))
            params.append(heights)
    if not candidates:
        raise ConfigError(
            "no height combination from value_grid averages to 1; the net is empty"
        )
    return Model(
        candidates=candidates,
        candidate_params=params,
    )


def _build_monotone_net(config: ModelBuilderConfig) -> Model:
    grid = config.breakpoint_grid
    cells = len(grid) - 1
    support_len = grid[-1] - grid[0]
    width = support_len / cells
    part = PartitionRef(cells, (grid[0], grid[-1]))
    levels = sorted(set(config.level_grid), reverse=True)
    seen: dict[tuple[float, ...], HistogramMeasure] = {}
    for start in range(cells):
        for pieces in range(1, config.d + 1):
            for ends in itertools.combinations(range(start + 1, cells + 1), pieces):
                bounds = (start,) + ends
                run_lengths = [bounds[i + 1] - bounds[i] for i in range(pieces)]
                for run_levels in itertools.combinations(levels, pieces):
                    mass = width * sum(
                        lv * rl for lv, rl in zip(run_levels, run_lengths)
                    )
                    if abs(mass - 1.0) > _MASS_TOL:
                        continue
                    heights = np.zeros(cells)
                    pos = start
                    for lv, rl in zip(run_levels, run_lengths):
                        # Levels are Lebesgue densities; reference heights
                        # carry the support-length factor.
                        heights[pos : pos + rl] = lv * support_len
                        pos += rl
                    key = tuple(float(h) for h in heights)
                    if key not in seen:
                        seen[key] = HistogramMeasure(part, heights)
    if not seen:
        raise ConfigError(
            "no non-increasing density from these grids integrates to 1; "
            "the net is empty"
        )
    return Model(
        candidates=list(seen.values()),
        vc_dimension=float(2 * config.d),
        candidate_params=[list(k) for k in seen],
    )


def _build_l2_linear(config: ModelBuilderConfig) -> Model:
    cells = config.cells
    part = PartitionRef(cells, (0.0, 1.0))
    scale = math.sqrt(float(cells))
    candidates = [
        HistogramMeasure(part, [scale * c for c in row])
        for row in config.coefficient_net
    ]
    return Model(
        candidates=candidates,
        candidate_params=[list(row) for row in config.coefficient_net],
    )


def _build_discrete(config: ModelBuilderConfig) -> Model:
    points = [float(k) for k in range(config.space_size)]
    candidates = [DiscreteMeasure(points, row) for row in config.candidates]
    return Model(
        candidates=candidates,
        candidate_params=[list(row) for row in config.candidates],
    )


def _translate(base: Measure, shift: float) -> Measure:
    if isinstance(base, GaussianMeasure):
        return GaussianMeasure(base.mean + shift, base.sd)
    if isinstance(base, CauchyMeasure):
        return CauchyMeasure(base.loc + shift, base.scale)
    if isinstance(base, UniformMeasure):
        return UniformMeasure(base.low + shift, base.width)
    if isinstance(base, PowerMeasure):
        return PowerMeasure(base.alpha, base.shift + shift)
    raise ConfigError(
        f"base family {base.tag!r} has no translation parameter"
    )


def _build_regression_tuples(config: ModelBuilderConfig) -> Model:
    base = measure_from_config(config.base_q)
    candidates = [
        tuple(_translate(base, theta_i) for theta_i in theta)
        for theta in config.theta_net
    ]
    return Model(
        candidates=candidates,
        product_form="tuples",
        candidate_params=[list(theta) for theta in config.theta_net],
    )


_BUILDERS = {
    "gaussian-location-grid": _build_gaussian_grid,
    "translation-grid": _build_translation_grid,
    "histogram-net": _build_histogram_net,
    "monotone-net": _build_monotone_net,
    "l2-linear": _build_l2_linear,
    "discrete": _build_discrete,
    "regression-tuples": _build_regression_tuples,
}
