"""Loss specifications and loss evaluation.

A ``LossSpec`` names one of the six loss kinds of ``_FAMILIES`` with its
family parameters: total variation, squared Hellinger, Kullback-Leibler
(with the model's log-ratio bound ``a``), Wasserstein-1 on [0, 1], the L_j
norm of the density difference (j in (1, inf), with the sup/L_j norm-ratio
bound ``R``) and the sup norm over a ``D``-cell partition.

``loss(spec, S, Q)`` evaluates the loss between two measures; for tuple-type
data (independent, non-identically distributed observations),
``aggregate_loss`` sums coordinate losses between a truth vector and a
candidate (a single candidate measure is broadcast across coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, _check_keys, _positive_finite, _positive_int
from .measures import (
    Measure,
    PartitionRef,
    hellinger_sq,
    kl_divergence,
    lj_distance,
    pair_kind,
    tv_distance,
    wasserstein1,
)

__all__ = ["LossSpec", "loss", "aggregate_loss"]


@dataclass(frozen=True)
class LossSpec:
    """A loss function choice plus its family parameters.

    ``kind`` selects a row of ``_FAMILIES``: the parameters the loss takes,
    the checker of the rules their kinds cannot state, and its distance.
    Every other field must stay None.  Each parameter is read by
    ``_READERS``: ``D`` is a positive integer, and ``j``, ``R`` and ``a``
    are positive finite numbers, stored as floats.
    """

    kind: str
    j: float | None = None
    R: float | None = None
    a: float | None = None
    D: int | None = None

    def __post_init__(self) -> None:
        entry = _FAMILIES.get(self.kind) if isinstance(self.kind, str) else None
        if entry is None:
            raise ConfigError(f"unknown loss kind {self.kind!r}; expected one of {tuple(_FAMILIES)}")
        params, check, _ = entry
        for name, (read, what) in _READERS.items():
            value = getattr(self, name)
            if name not in params:
                if value is not None:
                    raise ConfigError(f"loss kind {self.kind!r} does not take parameter {name!r}")
            elif value is None:
                raise ConfigError(f"loss kind {self.kind!r} requires {what}")
            else:
                object.__setattr__(self, name, read(value, what))
        if check is not None:
            check(self)

    # -- constructors --------------------------------------------------------

    @classmethod
    def tv(cls) -> "LossSpec":
        return cls(kind="tv")

    @classmethod
    def hellinger2(cls) -> "LossSpec":
        return cls(kind="hellinger2")

    @classmethod
    def kl(cls, a: float) -> "LossSpec":
        return cls(kind="kl", a=a)

    @classmethod
    def wasserstein1(cls) -> "LossSpec":
        return cls(kind="wasserstein1")

    @classmethod
    def lj(cls, j: float, R: float) -> "LossSpec":
        return cls(kind="lj", j=j, R=R)

    @classmethod
    def linf(cls, D: int) -> "LossSpec":
        return cls(kind="linf", D=D)

    # -- config --------------------------------------------------------------

    def to_config(self) -> dict:
        return {name: value for name, value in vars(self).items() if value is not None}

    @classmethod
    def from_config(cls, cfg: dict) -> "LossSpec":
        if not isinstance(cfg, dict) or "kind" not in cfg:
            raise ConfigError("loss config must be a mapping with a 'kind' key")
        _check_keys(cfg, cls.__dataclass_fields__.keys(), "loss")
        return cls(**cfg)


# How each parameter is read, and what a refusal calls it.
_READERS = {
    "j": (_positive_finite, "loss parameter 'j' (exponent j)"),
    "R": (_positive_finite, "loss parameter 'R' (positive finite norm-ratio bound R)"),
    "a": (_positive_finite, "loss parameter 'a' (positive finite log-ratio bound a)"),
    "D": (_positive_int, "loss parameter 'D' (positive cell count D)"),
}


def _check_lj(spec: LossSpec) -> None:
    if not spec.j > 1.0:
        raise ConfigError(f"lj loss needs j in (1, inf), got {spec.j!r}")
    # The score family scales by R^(j-1) (testfam.constants_for, _lj_score),
    # and float ** raises on overflow.
    try:
        scale = spec.R ** (spec.j - 1.0)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"lj loss needs a positive finite family scale R ** (j - 1), got {scale!r}")


def loss(spec: LossSpec, S: Measure, Q: Measure) -> float:
    """Evaluate the loss named by ``spec`` between measures ``S`` and ``Q``."""
    return _FAMILIES[spec.kind][2](spec, S, Q)


def _linf_partition(spec: LossSpec, P: Measure, Q: Measure) -> PartitionRef:
    """The partition of an L_inf pair, which the loss and the score share.

    The pair must be two histograms on one ``spec.D``-cell partition: on
    any other pair the sup norm would not depend on ``D``.
    """
    if pair_kind(P, Q) != "partition" or P.partition.cells != spec.D:
        raise ConfigError(
            f"linf loss configured for D={spec.D} cells needs two histograms on "
            f"one {spec.D}-cell partition, got {P!r} and {Q!r}"
        )
    return P.partition


def _linf_loss(spec: LossSpec, S: Measure, Q: Measure) -> float:
    _linf_partition(spec, S, Q)
    return lj_distance(S, Q, math.inf)


# Each loss kind: the parameters it takes, the checker of the rules their
# kinds cannot state (or None), and its distance ``(spec, S, Q)``.
_FAMILIES = {
    "tv": ((), None, lambda spec, S, Q: tv_distance(S, Q)),
    "hellinger2": ((), None, lambda spec, S, Q: hellinger_sq(S, Q)),
    "kl": (("a",), None, lambda spec, S, Q: kl_divergence(S, Q)),
    "wasserstein1": ((), None, lambda spec, S, Q: wasserstein1(S, Q)),
    "lj": (("j", "R"), _check_lj, lambda spec, S, Q: lj_distance(S, Q, spec.j)),
    "linf": (("D",), None, _linf_loss),
}


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
        raise ConfigError(
            f"truth and candidate vectors have different lengths "
            f"({len(truth_vec)} vs {len(cand_vec)})"
        )
    return float(sum(loss(spec, s, q) for s, q in zip(truth_vec, cand_vec)))
