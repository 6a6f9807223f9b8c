"""Exception hierarchy shared across the package.

Conventions:
    * ``ConfigError`` signals an invalid user-supplied configuration (bad field,
      missing key, out-of-range parameter).  The CLI maps it to exit code 2.
    * ``NumericalError`` signals a numerical routine that could not reach its
      documented accuracy (quadrature budget exhausted, non-finite integrand).
      The CLI maps it to exit code 3.

The config-shape checks below are shared by the config readers
(``from_config`` methods, the measure constructors, the CLI resolvers and
the Monte Carlo entry points), so each refusal names its key the same way.
A bool is never a number, and an ``int`` above the largest float is not
finite.  The scalar readers test the exact types ``int`` and ``float`` first.
"""

import sys

_MAX = sys.float_info.max


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


def _is_number(value) -> bool:
    """Whether ``value`` is an ``int`` or a ``float`` and not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float))


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


def _floats(value, name: str) -> tuple[float, ...]:
    """A nonempty list of finite numbers, as a float tuple."""
    values = _number_list(value, name)
    if not values or not all(abs(v) <= _MAX for v in values):
        raise ConfigError(f"{name} must be a nonempty list of finite numbers, got {value!r}")
    return tuple(map(float, values))


def _integer(value, name: str) -> int:
    """``value`` if it is an ``int``; a bool or a float is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _positive_int(value, name: str) -> int:
    """``value`` if it is a positive ``int`` that ``float`` can take; a bool or a float is refused."""
    if isinstance(value, bool) or not isinstance(value, int) or not (0 < value <= _MAX):
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return value


def _finite(value, name: str):
    """``value``, its type kept, if it is a finite number."""
    if (type(value) is float or type(value) is int or _is_number(value)) and -_MAX <= value <= _MAX:
        return value
    if not _is_number(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    raise ConfigError(f"{name} must be finite, got {value!r}")


def _positive_finite(value, name: str) -> float:
    """``value`` as a ``float`` if it is a positive finite number."""
    if (type(value) is float or type(value) is int or _is_number(value)) and 0 < value <= _MAX:
        return float(value)
    raise ConfigError(f"{name} must be positive and finite, got {value!r}")
