"""Loss specifications and loss evaluation.

A ``LossSpec`` names one of the six supported loss functions together with
its family parameters:

    * ``tv``           total variation
    * ``hellinger2``   squared Hellinger distance
    * ``kl``           Kullback-Leibler divergence (needs the log-ratio bound
                       ``a`` satisfied by the model)
    * ``wasserstein1`` Wasserstein-1 distance on [0, 1]
    * ``lj``           L_j norm of the density difference, j in (1, inf),
                       with the sup/L_j norm-ratio bound ``R``
    * ``linf``         sup norm over a D-cell partition

``loss(spec, S, Q)`` evaluates the loss between two measures; for tuple-type
data (independent, non-identically distributed observations),
``aggregate_loss`` sums coordinate losses between a truth vector and a
candidate (a single candidate measure is broadcast across coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError
from .measures import (
    Measure,
    PartitionRef,
    hellinger_sq,
    kl_divergence,
    lj_distance,
    tv_distance,
    wasserstein1,
)

__all__ = ["LossSpec", "loss", "aggregate_loss"]

_KINDS = ("tv", "hellinger2", "kl", "wasserstein1", "lj", "linf")


@dataclass(frozen=True)
class LossSpec:
    """A loss function choice plus its family parameters.

    Fields irrelevant to the chosen kind must stay None.
    """

    kind: str
    j: float | None = None
    R: float | None = None
    a: float | None = None
    D: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}; expected one of {_KINDS}")
        for name in ("j", "R", "a", "D"):
            val = getattr(self, name)
            if val is None:
                continue
            if name not in _RELEVANT[self.kind]:
                raise ConfigError(f"loss kind {self.kind!r} does not take parameter {name!r}")
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"loss parameter {name!r} must be a number, got {val!r}")
        if self.kind == "lj":
            if self.j is None or not (1.0 < self.j < math.inf):
                raise ConfigError(f"lj loss needs j in (1, inf), got {self.j}")
            if self.R is None or not 0 < self.R < math.inf:
                raise ConfigError(f"lj loss needs a positive finite norm-ratio bound R, got {self.R}")
        elif self.kind == "kl":
            if self.a is None or not 0 < self.a < math.inf:
                raise ConfigError(f"kl loss needs a positive finite log-ratio bound a, got {self.a}")
        elif self.kind == "linf":
            if self.D is None or self.D < 1:
                raise ConfigError(f"linf loss needs a positive cell count D, got {self.D}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def tv(cls) -> "LossSpec":
        return cls(kind="tv")

    @classmethod
    def hellinger2(cls) -> "LossSpec":
        return cls(kind="hellinger2")

    @classmethod
    def kl(cls, a: float) -> "LossSpec":
        return cls(kind="kl", a=float(a))

    @classmethod
    def wasserstein1(cls) -> "LossSpec":
        return cls(kind="wasserstein1")

    @classmethod
    def lj(cls, j: float, R: float) -> "LossSpec":
        return cls(kind="lj", j=float(j), R=float(R))

    @classmethod
    def linf(cls, D: int) -> "LossSpec":
        return cls(kind="linf", D=int(D))

    # -- config --------------------------------------------------------------

    def to_config(self) -> dict:
        cfg: dict = {"kind": self.kind}
        for name in ("j", "R", "a", "D"):
            val = getattr(self, name)
            if val is not None:
                cfg[name] = val
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "LossSpec":
        if not isinstance(cfg, dict) or "kind" not in cfg:
            raise ConfigError("loss config must be a mapping with a 'kind' key")
        known = {"kind", "j", "R", "a", "D"}
        extra = set(cfg) - known
        if extra:
            raise ConfigError(f"unknown loss config keys {sorted(extra)}")
        return cls(
            kind=cfg["kind"],
            j=cfg.get("j"),
            R=cfg.get("R"),
            a=cfg.get("a"),
            D=cfg.get("D"),
        )


_RELEVANT = {
    "tv": set(),
    "hellinger2": set(),
    "kl": {"a"},
    "wasserstein1": set(),
    "lj": {"j", "R"},
    "linf": {"D"},
}


def loss(spec: LossSpec, S: Measure, Q: Measure) -> float:
    """Evaluate the loss named by ``spec`` between measures ``S`` and ``Q``."""
    if spec.kind == "tv":
        return tv_distance(S, Q)
    if spec.kind == "hellinger2":
        return hellinger_sq(S, Q)
    if spec.kind == "kl":
        return kl_divergence(S, Q)
    if spec.kind == "wasserstein1":
        return wasserstein1(S, Q)
    if spec.kind == "lj":
        return lj_distance(S, Q, spec.j)
    if spec.kind == "linf":
        for ref in (S.reference, Q.reference):
            if not isinstance(ref, PartitionRef) or ref.cells != spec.D:
                raise ConfigError(
                    f"linf loss configured for D={spec.D} cells needs measures on "
                    f"a {spec.D}-cell partition reference, got {ref!r}"
                )
        return lj_distance(S, Q, math.inf)
    raise AssertionError(f"unreachable loss kind {spec.kind!r}")


def aggregate_loss(
    spec: LossSpec,
    truth: Sequence[Measure] | Measure,
    Q: Sequence[Measure] | Measure,
    n: int | None = None,
) -> float:
    """Sum of coordinate losses between a truth vector and a candidate.

    Either argument may be a single measure, in which case it is broadcast to
    the length of the other (or to ``n`` when both are single measures).
    """
    truth_vec = [truth] if isinstance(truth, Measure) else list(truth)
    cand_vec = [Q] if isinstance(Q, Measure) else list(Q)
    if len(truth_vec) == 1 and len(cand_vec) > 1:
        truth_vec = truth_vec * len(cand_vec)
    if len(cand_vec) == 1 and len(truth_vec) > 1:
        cand_vec = cand_vec * len(truth_vec)
    if len(truth_vec) == 1 and len(cand_vec) == 1 and n is not None:
        return n * loss(spec, truth_vec[0], cand_vec[0])
    if len(truth_vec) != len(cand_vec):
        raise ValueError(
            f"truth and candidate vectors have different lengths "
            f"({len(truth_vec)} vs {len(cand_vec)})"
        )
    return float(sum(loss(spec, s, q) for s, q in zip(truth_vec, cand_vec)))
