"""Exception hierarchy shared across the package.

Conventions:
    * ``ConfigError`` signals an invalid user-supplied configuration (bad field,
      missing key, out-of-range parameter).  The CLI maps it to exit code 2.
    * ``NumericalError`` signals a numerical routine that could not reach its
      documented accuracy (quadrature budget exhausted, non-finite integrand).
      The CLI maps it to exit code 3.

The config-shape checks below are shared by the config readers
(``from_config`` methods, the CLI resolvers and the Monte Carlo entry
points), so each refusal names its key the same way.
"""

import sys


class PairfitError(Exception):
    """Base class for package-specific failures."""


class ConfigError(PairfitError, ValueError):
    """A configuration record or argument is invalid."""


class NumericalError(PairfitError, RuntimeError):
    """A numerical routine failed to reach its documented accuracy."""


def _check_keys(cfg: dict, allowed: set[str], where: str, required: set[str] = frozenset()) -> None:
    """Refuse a config mapping that lacks a ``required`` key or has one outside ``allowed``.

    The key-view comparisons build no set, so a valid config pays little.
    """
    keys = cfg.keys()
    if not keys >= required:
        raise ConfigError(f"{where} config is missing keys {sorted(required - keys)}")
    if not keys <= allowed:
        raise ConfigError(f"unknown {where} config keys {sorted(keys - allowed)}")


def _number_list(value, name: str) -> list:
    """``value`` as a list, refused unless every entry is a number.

    Checked here because numpy, ``float`` and ``tuple`` would take strings
    silently.
    """
    if not isinstance(value, (list, tuple)) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
    ):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return list(value)


def _positive_int(value, name: str) -> int:
    """``value`` if it is a positive ``int`` that ``float`` can take; a bool or a float is refused."""
    if isinstance(value, bool) or not isinstance(value, int) or not (
        0 < value <= sys.float_info.max
    ):
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return value


def _positive_finite(value, name: str) -> float:
    """``value`` as a ``float`` if it is a positive finite ``int`` or ``float`` (not a bool).

    An ``int`` above the largest float is refused too, since ``float`` cannot take it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0 < value <= sys.float_info.max
    ):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return float(value)
