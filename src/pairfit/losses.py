"""Loss specifications and loss evaluation.

A ``LossSpec`` names one of the six loss kinds of ``_FAMILIES`` with its
family parameters: total variation, squared Hellinger, Kullback-Leibler
(with the model's log-ratio bound ``a``), Wasserstein-1 on [0, 1], the L_j
norm of the density difference (j in (1, inf), with the sup/L_j norm-ratio
bound ``R``) and the sup norm over a ``D``-cell partition.

Each kind owns its score family's constants (``LossSpec.constants``).
``loss(spec, S, Q)`` evaluates the loss between two measures; for tuple-type
data (independent, non-identically distributed observations),
``aggregate_loss`` sums coordinate losses between a truth vector and a
candidate (a single candidate measure is broadcast across coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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

__all__ = ["FamilyConstants", "LossSpec", "loss", "aggregate_loss"]


class FamilyConstants(NamedTuple):
    """Constants (a0, a1, a2, b) attached to a score family.

    ``a2`` is None when the family carries no variance guarantee by itself
    (TV needs the model-dependent regularity check; W/L_j/L_inf have none).
    ``b`` is the oscillation scale of the underlying witness construction and
    is None for the Hellinger and KL families, which are not built that way.
    """

    a0: float
    a1: float
    a2: float | None = None
    b: float | None = None


@dataclass(frozen=True)
class LossSpec:
    """A loss function choice plus its family parameters.

    ``kind`` selects a row of ``_FAMILIES``: the parameters the loss takes,
    the checker of the rules their kinds cannot state, its distance and its
    family constants.  Every other field must stay None.  Each parameter is
    read by ``_READERS``: ``D`` is a positive integer, and ``j``, ``R`` and
    ``a`` are positive finite numbers, stored as floats.  Each constant that
    is not None must then be positive and finite.
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
        params, check, _, constants, basis = entry
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
        consts = constants(self)
        for value in consts:
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(
                    f"{self.kind} loss needs positive finite family constants, got {consts} from its {basis}"
                )

    @property
    def constants(self) -> FamilyConstants:
        """The score family's constants, evaluated per call: no field, so not in ``to_config``."""
        return _FAMILIES[self.kind][3](self)

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
    # The family scale R ** (j - 1) is bounded by LossSpec's check of the constants it gives.
    if not spec.j > 1.0:
        raise ConfigError(f"lj loss needs j in (1, inf), got {spec.j!r}")


def _lj_scale(spec: LossSpec) -> float:
    """The L_j family scale ``R ** (j - 1)``, formed only here; inf where ``**`` overflows."""
    try:
        return spec.R ** (spec.j - 1.0)
    except OverflowError:
        return math.inf


def _over(num: float, den: float) -> float:
    """``num / den``, or inf where ``den`` underflowed to 0."""
    return num / den if den else math.inf


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


def _kl_gap(a: float) -> float:
    """``e^-a - 1 + a`` to full relative precision.

    Below a = 1 the direct sum cancels, so it is the Taylor series
    ``a^2/2 (1 - a/3 (1 - a/4 (1 - ...)))``, whose terms alternate and shrink;
    from a = 1 on, ``a + expm1(-a)`` loses at most a factor e to rounding.
    """
    if a >= 1.0:
        return a + math.expm1(-a)
    total = 1.0
    for k in range(19, 2, -1):
        total = 1.0 - a * total / k
    return a * a * total / 2.0


def _kl_constants(spec: LossSpec) -> FamilyConstants:
    """KL family, t = log(q/p) / (2a): a0 = a1 = 1/(2a), a2 = 1/(2 c(a) a^2).

    The variance constant holds for every S with s <= e^a min(p, q) on its
    support, where c(a) = (e^-a - 1 + a) / a^2:

    * u -> (e^u - 1 - u) / u^2 increases, so e^u - 1 - u >= c(a) u^2 for
      every u >= -a;
    * with u = log(p/s) >= -a on S's support, E_S[e^u] <= 1 and
      E_S[-u] = KL(S||P), so c(a) E_S[log^2(p/s)] <= E_S[e^u - 1 - u]
      <= KL(S||P); the same holds for q;
    * log(q/p) = log(s/p) - log(s/q), so Var_S[log(q/p)] <=
      2 E_S[log^2(p/s)] + 2 E_S[log^2(q/s)] <= 2 [KL(S||P) + KL(S||Q)] / c(a),
      and Var_S[t] <= [KL(S||P) + KL(S||Q)] / (2 c(a) a^2).

    a2 = 1 / (2 (e^-a - 1 + a)) tends to 1/a^2 as a -> 0, and it is at
    least 1/(a min(2, a)) for every a.
    """
    return FamilyConstants(1.0 / (2.0 * spec.a), 1.0 / (2.0 * spec.a), _over(1.0, 2.0 * _kl_gap(spec.a)))


def _lj_constants(spec: LossSpec) -> FamilyConstants:
    scale = _lj_scale(spec)
    return FamilyConstants(_over(3.0, 4.0 * scale), _over(1.0, 4.0 * scale), None, 2.0 * scale)


_UNIT = FamilyConstants(1.5, 0.5, None, 1.0)  # TV and W1: witnesses of oscillation 1
_HELLINGER = FamilyConstants((math.sqrt(2.0) + 1.0) / 2.0, (math.sqrt(2.0) - 1.0) / 2.0, 1.5)

# Each loss kind: its parameters, the checker of the rules their kinds cannot state (or None),
# its distance ``(spec, S, Q)``, its family constants ``(spec)`` and what a refusal of them names.
_FAMILIES = {
    "tv": ((), None, lambda spec, S, Q: tv_distance(S, Q), lambda spec: _UNIT, "fixed values"),
    "hellinger2": ((), None, lambda spec, S, Q: hellinger_sq(S, Q), lambda spec: _HELLINGER, "fixed values"),
    "kl": (("a",), None, lambda spec, S, Q: kl_divergence(S, Q), _kl_constants, "log-ratio bound a"),
    "wasserstein1": ((), None, lambda spec, S, Q: wasserstein1(S, Q), lambda spec: _UNIT, "fixed values"),
    "lj": (
        ("j", "R"), _check_lj, lambda spec, S, Q: lj_distance(S, Q, spec.j), _lj_constants,
        "family scale R ** (j - 1)",
    ),
    "linf": (
        ("D",), None, _linf_loss,
        lambda spec: FamilyConstants(3.0 / (2.0 * spec.D), 1.0 / (2.0 * spec.D), None, float(spec.D)),
        "cell count D",
    ),
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
