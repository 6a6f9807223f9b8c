"""Reference distances computed without pairfit's quadrature or measure code.

Each measure config (the ``{"family", "params"}`` records pairfit reads) is
turned into SciPy densities and cdfs.  Total variation sums cdf differences
between the crossing points of the two densities, found by a dense scan and
Brent's method.  Squared Hellinger integrates ``sqrt(p q)`` with QUADPACK,
or uses its closed form for two Gaussians.  The L2 norm uses closed-form
inner products of Gaussian and Cauchy components (the Cauchy-Gaussian one is
a Voigt profile).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

_SCAN_HALF_WIDTH = 60.0
_SCAN_POINTS = 240_001


def _components(cfg: dict, weight: float = 1.0) -> list[tuple[float, str, dict]]:
    if cfg["family"] == "mixture":
        p = cfg["params"]
        a = float(p["alpha"])
        return _components(p["base"], weight * (1.0 - a)) + _components(
            p["contaminant"], weight * a
        )
    return [(weight, cfg["family"], cfg["params"])]


def _pdf_one(family: str, p: dict, x: np.ndarray) -> np.ndarray:
    if family == "gaussian":
        return stats.norm.pdf(x, p["mean"], p.get("sd", 1.0))
    if family == "cauchy":
        return stats.cauchy.pdf(x, p["loc"], p.get("scale", 1.0))
    if family == "uniform":
        low, width = p["low"], p.get("width", 1.0)
        return np.where((x >= low) & (x <= low + width), 1.0 / width, 0.0)
    if family == "power":
        a, z = p["alpha"], x - p.get("shift", 0.0)
        inside = (z > 0.0) & (z <= 1.0)
        return np.where(inside, a * np.where(inside, z, 1.0) ** (a - 1.0), 0.0)
    raise ValueError(f"no reference for family {family!r}")


def _cdf_one(family: str, p: dict, x: float) -> float:
    if family == "gaussian":
        return float(stats.norm.cdf(x, p["mean"], p.get("sd", 1.0)))
    if family == "cauchy":
        return float(stats.cauchy.cdf(x, p["loc"], p.get("scale", 1.0)))
    if family == "uniform":
        low, width = p["low"], p.get("width", 1.0)
        return min(1.0, max(0.0, (x - low) / width))
    if family == "power":
        return min(1.0, max(0.0, x - p.get("shift", 0.0))) ** p["alpha"]
    raise ValueError(f"no reference for family {family!r}")


def _edges(family: str, p: dict) -> list[float]:
    if family == "uniform":
        return [p["low"], p["low"] + p.get("width", 1.0)]
    if family == "power":
        return [p.get("shift", 0.0), p.get("shift", 0.0) + 1.0]
    return []


def pdf(cfg: dict, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return sum(w * _pdf_one(f, p, x) for w, f, p in _components(cfg))


def cdf(cfg: dict, x: float) -> float:
    return sum(w * _cdf_one(f, p, x) for w, f, p in _components(cfg))


def edges(cfg: dict) -> list[float]:
    return sorted({e for _, f, p in _components(cfg) for e in _edges(f, p)})


def tv(p_cfg: dict, q_cfg: dict) -> float:
    """TV = half the summed |P(I) - Q(I)| over pieces where p - q keeps its sign."""

    def diff(x):
        return pdf(p_cfg, x) - pdf(q_cfg, x)

    grid = np.linspace(-_SCAN_HALF_WIDTH, _SCAN_HALF_WIDTH, _SCAN_POINTS)
    vals = diff(grid)
    cuts = set(edges(p_cfg)) | set(edges(q_cfg))
    # Sign changes between consecutive nonzero values, so that a crossing
    # that falls exactly on a grid point is not missed.
    nonzero = np.flatnonzero(vals)
    signs = np.sign(vals[nonzero])
    for j in np.flatnonzero(signs[:-1] != signs[1:]):
        a, b = grid[nonzero[j]], grid[nonzero[j + 1]]
        cuts.add(optimize.brentq(lambda t: float(diff(t)), a, b, xtol=1e-15))
    pts = [-math.inf] + sorted(cuts) + [math.inf]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        total += abs((cdf(p_cfg, b) - cdf(p_cfg, a)) - (cdf(q_cfg, b) - cdf(q_cfg, a)))
    return 0.5 * total


def hellinger2(p_cfg: dict, q_cfg: dict) -> float:
    """Squared Hellinger distance ``1 - ∫ sqrt(p q)``."""
    (wp, fp, pp), *rest_p = _components(p_cfg)
    (wq, fq, pq), *rest_q = _components(q_cfg)
    if not rest_p and not rest_q and fp == fq == "gaussian":
        s1, s2 = pp.get("sd", 1.0), pq.get("sd", 1.0)
        d = pp["mean"] - pq["mean"]
        v = s1 * s1 + s2 * s2
        return 1.0 - math.sqrt(2.0 * s1 * s2 / v) * math.exp(-d * d / (4.0 * v))

    def root_product(t):
        return math.sqrt(max(float(pdf(p_cfg, t)), 0.0) * max(float(pdf(q_cfg, t)), 0.0))

    cuts = sorted(set(edges(p_cfg)) | set(edges(q_cfg)) | {-30.0, 30.0})
    pts = [-math.inf] + cuts + [math.inf]
    affinity = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(root_product, a, b, epsabs=1e-14, epsrel=1e-12, limit=400)
        affinity += val
    return 1.0 - affinity


def _inner(c1: tuple[str, dict], c2: tuple[str, dict]) -> float:
    """∫ p1 p2 for Gaussian and Cauchy components."""
    (f1, p1), (f2, p2) = sorted([c1, c2], key=lambda c: c[0] != "gaussian")
    loc = lambda f, p: p["mean"] if f == "gaussian" else p["loc"]
    scale = lambda f, p: p.get("sd", 1.0) if f == "gaussian" else p.get("scale", 1.0)
    d = loc(f1, p1) - loc(f2, p2)
    s1, s2 = scale(f1, p1), scale(f2, p2)
    if f1 == f2 == "gaussian":
        return float(stats.norm.pdf(d, 0.0, math.hypot(s1, s2)))
    if f1 == f2 == "cauchy":
        return float(stats.cauchy.pdf(d, 0.0, s1 + s2))
    if f1 == "gaussian" and f2 == "cauchy":
        return float(special.voigt_profile(d, s1, s2))
    raise ValueError(f"no closed-form inner product for {f1!r} and {f2!r}")


def l2(p_cfg: dict, q_cfg: dict) -> float:
    """L2 norm of the density difference, from closed-form inner products."""
    signed = [(w, f, p) for w, f, p in _components(p_cfg)] + [
        (-w, f, p) for w, f, p in _components(q_cfg)
    ]
    sq = sum(
        wa * wb * _inner((fa, pa), (fb, pb))
        for wa, fa, pa in signed
        for wb, fb, pb in signed
    )
    return math.sqrt(max(sq, 0.0))
