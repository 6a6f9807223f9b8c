"""Pairwise-test estimator: statistic matrix, sup-statistic, minimizer set.

The estimator scores every ordered pair of candidates with the loss's test
family, sums the scores over the sample to get the pairwise statistic
matrix, takes row-wise suprema, and returns every candidate whose supremum
is within epsilon of the best one.

Candidate models are explicit finite lists (countable models are realized by
enumeration, so all suprema become maxima).  Two sample regimes are
supported: i.i.d. candidates (one measure per candidate) and per-coordinate
candidate tuples, where candidate i is a tuple (P_{i,1}, ..., P_{i,n}) and
observation k is scored against coordinate k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .losses import LossSpec
from .measures import HistogramMeasure, Measure, PartitionRef, locate_points
from .testfam import (
    AtomScore,
    PiecewiseScore,
    PiecewiseTable,
    ScoreFunction,
    partition_pair_table,
    score,
)

__all__ = [
    "Model",
    "EstimateReport",
    "PairwiseEngine",
    "as_model",
    "ell_estimate",
    "histogram_estimator",
    "median_tv_estimator",
]


# The engine's gather map holds one intp position per matrix entry; models
# past 2**31 entries (16 GiB of positions) are refused before any is stored.
_MAX_FLAT = 2**31

# ``EstimateReport.to_record`` leaves the matrices out above this many candidates.
_RECORD_MATRIX_LIMIT = 64


@dataclass
class Model:
    """A finite candidate list plus the metadata its loss may need.

    ``product_form`` is ``"iid"`` when every candidate is a single measure
    applying to all coordinates, or ``"tuples"`` when each candidate is a
    sequence of per-coordinate measures (all of one shared length).
    """

    candidates: list
    product_form: str = "iid"
    vc_dimension: float | None = None
    candidate_params: list | None = None

    def __post_init__(self) -> None:
        self.candidates = list(self.candidates)
        if not self.candidates:
            raise ConfigError("a model needs at least one candidate")
        if self.product_form not in ("iid", "tuples"):
            raise ConfigError(
                f"product_form must be 'iid' or 'tuples', got {self.product_form!r}"
            )
        if self.product_form == "tuples":
            lengths = {len(tuple(c)) for c in self.candidates}
            if len(lengths) != 1:
                raise ConfigError(
                    f"per-coordinate candidate tuples must share one length, got {sorted(lengths)}"
                )

    def __len__(self) -> int:
        return len(self.candidates)


def as_model(model: Model | Sequence[Measure]) -> Model:
    """Coerce a plain candidate sequence into an i.i.d. Model."""
    if isinstance(model, Model):
        return model
    return Model(candidates=list(model))


@dataclass(frozen=True)
class EstimateReport:
    """Everything the estimator computed, immutable.

    Attributes:
        pairwise: antisymmetric matrix of pair statistics, zero diagonal.
        sup_stat: row-wise maxima (each is >= 0 since the diagonal is 0).
        epsilon: the slack defining the minimizer set.
        minimizer_set: indices with sup_stat <= min sup_stat + epsilon.
        chosen: lowest index attaining the minimum.
        constant_parts: per-pair data-free score terms, for diagnostics.
    """

    pairwise: np.ndarray
    sup_stat: np.ndarray
    epsilon: float
    minimizer_set: tuple[int, ...]
    chosen: int
    constant_parts: np.ndarray

    def to_record(self) -> dict:
        """Serializable summary; matrices are elided above ``_RECORD_MATRIX_LIMIT``."""
        m = len(self.sup_stat)
        rec = {
            "n_candidates": m,
            "epsilon": self.epsilon,
            "sup_stat": [float(v) for v in self.sup_stat],
            "minimizer_set": list(self.minimizer_set),
            "chosen": self.chosen,
        }
        if m <= _RECORD_MATRIX_LIMIT:
            rec["pairwise"] = [[float(v) for v in row] for row in self.pairwise]
            rec["constant_parts"] = [
                [float(v) for v in row] for row in self.constant_parts
            ]
        else:
            rec["pairwise"] = None
            rec["constant_parts"] = None
        return rec


class PairwiseEngine:
    """Precompiled pair scores for one (loss, model), reusable across samples.

    Construction builds the score of every unordered candidate pair once.
    When every candidate is a histogram on one shared partition and the loss
    is TV, L_j or L_inf, all pairs are compiled together from the height
    matrix (``partition_pair_table``) and no per-pair score is built.
    Evaluation picks the fastest applicable backend: a value-matrix product
    when all scores live on one shared finite space, a sweep over the
    table's distinct cut points when all scores are piecewise linear (with
    prefix sums only when some piece has a slope), and a per-pair loop
    otherwise.  Entries are computed once per unordered pair, so the matrix
    is exactly antisymmetric.
    """

    def __init__(self, spec: LossSpec, model: Model | Sequence[Measure]):
        self.spec = spec
        self.model = as_model(model)
        m = len(self.model)
        if m * m >= _MAX_FLAT:
            raise ConfigError(
                f"{m} candidates give {m * m} matrix entries; the engine indexes at most {_MAX_FLAT}"
            )
        self._n_pairs = m * (m - 1) // 2
        # Where each entry of the row-major (m, m) matrix reads from
        # ``[0, halves, -halves]``: pair p = (i, k), i < k, in the pair order
        # of ``combinations``, puts 1 + p at (i, k) and 1 + n_pairs + p at
        # (k, i); the diagonal reads the zero.  Filled row by row:
        # whole-triangle temporaries (``triu_indices``) leave a larger peak
        # resident set on models with many candidates.
        self._gather = np.zeros(m * m, dtype=np.intp)
        start = 0
        for i in range(m - 1):
            stop = start + m - 1 - i
            pairs = np.arange(start + 1, stop + 1, dtype=np.intp)
            self._gather[i * m + i + 1 : (i + 1) * m] = pairs
            self._gather[(i + 1) * m + i :: m] = pairs + self._n_pairs
            start = stop
        cands = self.model.candidates
        if self.model.product_form == "tuples":
            self._mode = "tuple"
            self._coord_scores = [
                [score(spec, P[c], Q[c]) for c in range(len(P))]
                for P, Q in combinations(cands, 2)
            ]
            consts = [
                sum(t.constant_part for t in coord) for coord in self._coord_scores
            ]
        else:
            table = _shared_partition_table(spec, cands)
            if table is not None:
                self._mode = "piecewise"
                self._table = table
                # Every compiled family's data-free part is its base.
                consts = table.bases
            else:
                self._scores: list[ScoreFunction] = [
                    score(spec, P, Q) for P, Q in combinations(cands, 2)
                ]
                consts = [t.constant_part for t in self._scores]
                self._mode = self._classify()
        self.constant_parts = self._fill_matrix(np.asarray(consts, dtype=float))

    # -- compilation ---------------------------------------------------------

    def _classify(self) -> str:
        if not self._scores:
            return "generic"
        if all(isinstance(t, AtomScore) for t in self._scores):
            pts = self._scores[0].points
            if all(
                t.points.shape == pts.shape and np.array_equal(t.points, pts)
                for t in self._scores
            ):
                self._atom_points = pts
                self._atom_values = np.stack([t.values for t in self._scores])
                return "atom"
        if all(isinstance(t, PiecewiseScore) for t in self._scores):
            self._table = PiecewiseTable.from_scores(self._scores)
            return "piecewise"
        return "generic"

    def _fill_matrix(self, halves: np.ndarray) -> np.ndarray:
        m = len(self.model)
        return np.concatenate(([0.0], halves, -halves))[self._gather].reshape(m, m)

    # -- evaluation ----------------------------------------------------------

    def statistic_matrix(self, sample: np.ndarray) -> np.ndarray:
        """Antisymmetric matrix with entry (i, k) = sum of pair (i, k) scores."""
        x = np.asarray(sample, dtype=float)
        if x.ndim != 1:
            raise ConfigError(f"sample must be one-dimensional, got shape {x.shape}")
        if x.size == 0 or not np.isfinite(x).all():
            raise ConfigError("sample must be a non-empty array of finite numbers")
        if self._mode == "tuple":
            width = len(self.model.candidates[0])
            if x.size != width:
                raise ConfigError(
                    f"per-coordinate model expects samples of length {width}, got {x.size}"
                )
            halves = np.array(
                [
                    sum(float(coord[c](x[c : c + 1])[0]) for c in range(width))
                    for coord in self._coord_scores
                ]
            )
        elif self._mode == "atom":
            idx = locate_points(self._atom_points, x, "the model's finite space")
            counts = np.bincount(idx, minlength=len(self._atom_points))
            halves = self._atom_values @ counts
        elif self._mode == "piecewise":
            tab = self._table
            xs = np.sort(x)
            # Observations below each distinct cut, gathered per component end.
            pos = np.searchsorted(xs, tab.cuts, side="left")
            lo_i, hi_i = pos[tab.lo], pos[tab.hi]
            contrib = tab.const * (hi_i - lo_i)
            if tab.slope is not None:
                cums = np.concatenate([[0.0], np.cumsum(xs)])
                contrib = contrib + tab.slope * (cums[hi_i] - cums[lo_i])
            halves = x.size * tab.bases + np.bincount(
                tab.pair, weights=contrib, minlength=self._n_pairs
            )
        else:
            halves = self._generic_halves(x)
        return self._fill_matrix(np.asarray(halves, dtype=float))

    def _generic_halves(self, x: np.ndarray) -> np.ndarray:
        if not self._n_pairs:
            return np.zeros(0)
        return np.array([float(t(x).sum()) for t in self._scores])


def _shared_partition_table(spec: LossSpec, cands: list) -> PiecewiseTable | None:
    """All pairs compiled at once, if every candidate is a histogram on one partition."""
    if not all(isinstance(c, HistogramMeasure) for c in cands):
        return None
    partition = cands[0].partition
    if any(c.partition != partition for c in cands):
        return None
    return partition_pair_table(spec, partition, np.stack([c.heights for c in cands]))


def ell_estimate(
    sample: np.ndarray,
    model: Model | Sequence[Measure],
    loss: LossSpec,
    epsilon: float = 1.0,
    engine: PairwiseEngine | None = None,
) -> EstimateReport:
    """Run the estimator: minimize the sup-statistic over the candidate list.

    ``epsilon`` is the slack admitting near-minimizers (default 1); the
    chosen candidate is the lowest index attaining the exact minimum.  Pass a
    prebuilt ``engine`` to amortize score construction across many samples.
    """
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if engine is None:
        engine = PairwiseEngine(loss, model)
    M = engine.statistic_matrix(sample)
    sup = M.max(axis=1)
    lowest = float(sup.min())
    mset = tuple(int(i) for i in np.flatnonzero(sup <= lowest + epsilon))
    return EstimateReport(
        pairwise=M,
        sup_stat=sup,
        epsilon=float(epsilon),
        minimizer_set=mset,
        chosen=int(np.argmin(sup)),
        constant_parts=engine.constant_parts,
    )


def histogram_estimator(sample: np.ndarray, partition: PartitionRef) -> HistogramMeasure:
    """Cellwise-constant density with mass count/n on each partition cell."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("histogram estimator needs a nonempty sample")
    cells = partition.locate(x)
    if np.any(cells < 0):
        bad = x[cells < 0]
        raise ValueError(f"observation {bad.flat[0]!r} falls outside the partition")
    counts = np.bincount(cells, minlength=partition.cells)
    heights = counts / (x.size * partition.cell_width)
    return HistogramMeasure(partition, heights)


def median_tv_estimator(sample: np.ndarray) -> float:
    """Midpoint of the two central order statistics X_(ceil(n/2)), X_(ceil(n/2)+1).

    Intended for translation models with symmetric unimodal shapes, where
    this point is a TV-estimator at slack 1/2.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    if x.size < 2:
        raise ValueError(f"median estimator needs n >= 2, got n = {x.size}")
    k = math.ceil(x.size / 2)
    return 0.5 * (float(x[k - 1]) + float(x[k]))
