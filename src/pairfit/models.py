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
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, _check_keys, _finite, _floats, _positive_int
from .estimator import Model
from .measures import (
    _FAMILIES as _MEASURE_FAMILIES,
    DiscreteMeasure,
    HistogramMeasure,
    Measure,
    PartitionRef,
    measure_from_config,
)

__all__ = ["ModelBuilderConfig", "build"]

# The measure families with a location parameter but gaussian, which has its own grid family.
_TRANSLATION_BASES = tuple(f for f, row in _MEASURE_FAMILIES.items() if row.location and f != "gaussian")

# Probability-candidate mass must match 1 this closely.
_MASS_TOL = 1e-9

# Most height tuples a histogram net, or run-and-level choices a monotone
# net, may enumerate before filtering by mass; also the most points a
# location grid may hold.
_MAX_NET_TUPLES = 10**6


@dataclass(frozen=True)
class ModelBuilderConfig:
    """Declarative description of one candidate family.

    ``family`` selects a row of ``_FAMILIES``: the parameters the family
    takes, its checker and its builder.  Every other field must stay None.
    Each parameter is read by its kind (``_READERS``): counts are positive
    integers, scalars finite numbers, grids and nets nonempty lists of finite
    numbers, stored as float tuples.
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
        entry = _FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if entry is None:
            raise ConfigError(
                f"unknown model family {self.family!r}; expected one of {tuple(_FAMILIES)}"
            )
        params, check, _ = entry
        for name, value in vars(self).items():
            if name not in params:
                if value is not None and name != "family":
                    raise ConfigError(
                        f"model family {self.family!r} does not take parameter {name!r}"
                    )
            elif value is not None:
                if name in _READERS:
                    object.__setattr__(self, name, _READERS[name](value, name))
            # The translation-grid checker asks for alpha by base.
            elif name != "alpha":
                raise ConfigError(
                    f"model family {self.family!r} requires parameter {name!r}"
                )
        check(self)

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
        _check_keys(cfg, {f.name for f in fields(cls)}, "model")
        return cls(**cfg)


def _vectors(value, name: str) -> tuple[tuple[float, ...], ...]:
    """A nonempty list of :func:`_floats` rows."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{name} must be a nonempty list of number lists, got {value!r}")
    return tuple(_floats(row, f"{name} entry") for row in value)


# How each parameter of these kinds is read and stored; the strings base and
# basis and the measure base_q are read by their family's checker.
_READERS = {
    **dict.fromkeys(("d", "cells", "space_size", "n"), _positive_int),
    **dict.fromkeys(("lo", "hi", "step", "alpha"), lambda v, name: _finite(v, f"model parameter {name!r}")),
    **dict.fromkeys(("value_grid", "breakpoint_grid", "level_grid"), _floats),
    **dict.fromkeys(("coefficient_net", "candidates", "theta_net"), _vectors),
}


def _check_range(config: ModelBuilderConfig) -> None:
    lo, hi, step = config.lo, config.hi, config.step
    if not step > 0:
        raise ConfigError(f"step must be positive, got {step!r}")
    if hi < lo:
        raise ConfigError(f"empty grid: hi = {hi!r} < lo = {lo!r}")
    # The grid has floor(span) + 1 points; a span that overflows to
    # infinity is refused too.
    if not _grid_span(lo, hi, step) < _MAX_NET_TUPLES:
        raise ConfigError(
            f"location grid from {lo!r} to {hi!r} by {step!r} has more "
            f"than {_MAX_NET_TUPLES} points"
        )


def _check_gaussian_grid(config: ModelBuilderConfig) -> None:
    if config.d != 1:
        raise ConfigError(
            f"gaussian location grids are one-dimensional here; d = {config.d!r} "
            "is not supported"
        )
    _check_range(config)


def _check_translation_grid(config: ModelBuilderConfig) -> None:
    if config.base not in _TRANSLATION_BASES:
        raise ConfigError(
            f"translation base must be one of {_TRANSLATION_BASES}, got {config.base!r}"
        )
    if config.base == "power":
        if config.alpha is None or not 0.0 < config.alpha <= 1.0:
            raise ConfigError(f"power base needs alpha in (0, 1], got {config.alpha!r}")
    elif config.alpha is not None:
        raise ConfigError(f"base {config.base!r} does not take alpha")
    _check_range(config)


def _check_histogram_net(config: ModelBuilderConfig) -> None:
    if any(v < 0 for v in config.value_grid):
        raise ConfigError("value_grid entries must be nonnegative heights")
    # The net enumerates the distinct values.  The exponent is capped so a
    # huge cell count cannot stall the check: two or more values already
    # pass the limit at 64 cells.
    values = len(set(config.value_grid))
    if values ** min(config.cells, 64) > _MAX_NET_TUPLES:
        raise ConfigError(
            f"histogram net enumerates {values}^{config.cells} height "
            f"tuples, above the limit of {_MAX_NET_TUPLES}"
        )


def _check_monotone_net(config: ModelBuilderConfig) -> None:
    grid = config.breakpoint_grid
    if len(grid) < 2:
        raise ConfigError("breakpoint_grid needs at least two points")
    diffs = np.diff(grid)
    if np.any(diffs <= 0):
        raise ConfigError("breakpoint_grid must be strictly increasing")
    if np.max(diffs) - np.min(diffs) > 1e-9 * np.max(diffs):
        raise ConfigError(
            "breakpoint_grid must be equally spaced (candidates share one partition)"
        )
    if any(v <= 0 for v in config.level_grid):
        raise ConfigError("level_grid entries must be positive density levels")
    # The builder tries C(cells - start, p) run ends times C(levels, p)
    # level choices per start cell and piece count p; summed over the
    # start cell, the ends give C(cells + 1, p + 1).  The sum stops at
    # the first p past the limit, so no grid is too large to refuse.
    cells, levels = len(grid) - 1, len(set(config.level_grid))
    count = 0
    for p in range(1, min(config.d, cells, levels) + 1):
        count += math.comb(cells + 1, p + 1) * math.comb(levels, p)
        if count > _MAX_NET_TUPLES:
            raise ConfigError(
                f"monotone net with {cells} cells, d = {config.d} and {levels} levels "
                f"enumerates more than {_MAX_NET_TUPLES} run-and-level choices"
            )


def _check_l2_linear(config: ModelBuilderConfig) -> None:
    if config.basis == "user":
        raise ConfigError(
            "user bases carry no concrete densities; only the indicator basis "
            "builds a model"
        )
    if config.basis != "indicator":
        raise ConfigError(f"basis must be 'indicator' or 'user', got {config.basis!r}")
    for row in config.coefficient_net:
        if len(row) != config.cells:
            raise ConfigError(
                f"coefficient vectors must have length {config.cells}, got {len(row)}"
            )


def _check_discrete(config: ModelBuilderConfig) -> None:
    for idx, row in enumerate(config.candidates):
        if len(row) != config.space_size:
            raise ConfigError(
                f"candidate {idx} has {len(row)} masses for a "
                f"{config.space_size}-point space"
            )
        if any(v < 0 for v in row):
            raise ConfigError(f"candidate {idx} has negative masses")
        if abs(sum(row) - 1.0) > _MASS_TOL:
            raise ConfigError(f"candidate {idx} masses sum to {sum(row)!r}, not 1")


def _check_regression_tuples(config: ModelBuilderConfig) -> None:
    for idx, row in enumerate(config.theta_net):
        if len(row) != config.n:
            raise ConfigError(
                f"theta vector {idx} has length {len(row)}, expected n = {config.n}"
            )
    # Read at config time, so --describe refuses what the run would, and
    # stored canonical, so one base has one config and one scenario digest.
    base = measure_from_config(config.base_q)
    _translate(base, 0.0)
    object.__setattr__(config, "base_q", base.to_config())


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build(config: ModelBuilderConfig | dict) -> Model:
    """Build the candidate model described by ``config``."""
    if isinstance(config, dict):
        config = ModelBuilderConfig.from_config(config)
    return _FAMILIES[config.family][2](config)


def _grid_span(lo: float, hi: float, step: float) -> float:
    """Steps from ``lo`` to ``hi``, with slack that keeps a rounded ``hi`` on the grid."""
    return (hi - lo) / step + 1e-9


def _location_grid(lo: float, hi: float, step: float) -> list[float]:
    count = int(math.floor(_grid_span(lo, hi, step))) + 1
    return [lo + k * step for k in range(count)]


def _build_location_grid(config: ModelBuilderConfig) -> Model:
    """The base measure moved to each grid point; a gaussian grid has no ``base``."""
    grid = _location_grid(config.lo, config.hi, config.step)
    family = _MEASURE_FAMILIES[config.base or "gaussian"]
    # Every other parameter takes its default: a unit scale, or a power's shift 0.
    params = {family.location: 0.0}
    if config.alpha is not None:
        params["alpha"] = config.alpha
    origin = family.build(**params)
    # No grid point is -0.0, so each location is its grid point bitwise.
    return Model(
        candidates=[_translate(origin, t) for t in grid],
        vc_dimension=None if config.d is None else float(config.d + 1),
        candidate_params=grid,
    )


def _build_histogram_net(config: ModelBuilderConfig) -> Model:
    cells = config.cells
    part = PartitionRef(cells, (0.0, 1.0))
    candidates = []
    params = []
    # A repeated grid value would repeat candidates; dict keeps first-occurrence order.
    for heights in itertools.product(dict.fromkeys(config.value_grid), repeat=cells):
        if abs(sum(heights) / cells - 1.0) <= _MASS_TOL:
            candidates.append(HistogramMeasure(part, heights))
            params.append(heights)
    if not candidates:
        raise ConfigError("no height combination from value_grid averages to 1; the net is empty")
    return Model(candidates=candidates, candidate_params=params)


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
    return Model(candidates=candidates, candidate_params=[list(row) for row in config.candidates])


def _translate(base: Measure, shift: float) -> Measure:
    """``base`` with its family's location parameter moved by ``shift``."""
    family = _MEASURE_FAMILIES[base.tag]
    if family.location is None:
        raise ConfigError(f"base family {base.tag!r} has no translation parameter")
    params = base.params
    params[family.location] += shift
    return family.build(**params)


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


# Each family: the parameters it takes, the checker of the rules their kinds
# cannot state, and its builder.
_FAMILIES = {
    "gaussian-location-grid": (
        ("d", "lo", "hi", "step"), _check_gaussian_grid, _build_location_grid
    ),
    "translation-grid": (
        ("base", "alpha", "lo", "hi", "step"), _check_translation_grid, _build_location_grid
    ),
    "histogram-net": (("cells", "value_grid"), _check_histogram_net, _build_histogram_net),
    "monotone-net": (
        ("d", "breakpoint_grid", "level_grid"), _check_monotone_net, _build_monotone_net
    ),
    "l2-linear": (("basis", "cells", "coefficient_net"), _check_l2_linear, _build_l2_linear),
    "discrete": (("space_size", "candidates"), _check_discrete, _build_discrete),
    "regression-tuples": (
        ("theta_net", "base_q", "n"), _check_regression_tuples, _build_regression_tuples
    ),
}
