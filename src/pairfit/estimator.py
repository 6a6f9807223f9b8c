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
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ConfigError, _positive_finite
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
    "EngineStats",
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


@dataclass(frozen=True)
class EngineStats:
    """What a ``PairwiseEngine`` compiled, and how long that took.

    Attributes:
        backend: ``"atom"``, ``"piecewise"``, ``"generic"`` or ``"tuple"``.
        pairs: unordered candidate pairs, m(m-1)/2.
        components: the piecewise table's components; None for other backends.
        cuts: the piecewise table's distinct cut points; None for other backends.
        build_seconds: wall time of the engine's construction.
    """

    backend: str
    pairs: int
    components: int | None
    cuts: int | None
    build_seconds: float


class PairwiseEngine:
    """Precompiled pair scores for one (loss, model), reusable across samples.

    Construction builds the score of every unordered candidate pair once.
    When ``partition_pair_table`` compiles all pairs together, no per-pair
    score is built.
    Evaluation picks the fastest applicable backend: a value-matrix product
    when all scores live on one shared finite space, a sweep over the
    table's distinct cut points when all scores are piecewise linear (with
    prefix sums only when some piece has a slope), and a per-pair loop
    otherwise.  Entries are computed once per unordered pair, so the matrix
    is exactly antisymmetric.  ``stats`` tells which backend was picked,
    what was compiled and how long construction took.
    """

    def __init__(self, spec: LossSpec, model: Model | Sequence[Measure]):
        started = time.perf_counter()
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
            table = partition_pair_table(spec, cands)
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
        table = self._table if self._mode == "piecewise" else None
        self._stats = EngineStats(
            backend=self._mode,
            pairs=self._n_pairs,
            components=None if table is None else len(table.pair),
            cuts=None if table is None else len(table.cuts),
            build_seconds=time.perf_counter() - started,
        )

    @property
    def stats(self) -> EngineStats:
        """Backend, compiled sizes and build time; never part of any artifact."""
        return self._stats

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
        buf = np.empty(1 + 2 * self._n_pairs)
        buf[1 : 1 + self._n_pairs] = halves
        return self._signed_matrix(buf)

    def _signed_matrix(self, buf: np.ndarray) -> np.ndarray:
        """The (m, m) matrix that ``_gather`` reads from ``buf``, given its halves.

        ``buf`` holds the pair halves at ``1 .. n_pairs``; its zero and the
        negated halves are written here, in place.
        """
        p = self._n_pairs
        buf[0] = 0.0
        np.negative(buf[1 : p + 1], out=buf[p + 1 :])
        m = len(self.model)
        return buf.take(self._gather).reshape(m, m)

    # -- evaluation ----------------------------------------------------------

    def statistic_matrix(self, sample: np.ndarray) -> np.ndarray:
        """Antisymmetric matrix with entry (i, k) = sum of pair (i, k) scores."""
        # A fresh buffer per call, so that threads may share one engine.
        buf = np.empty(1 + 2 * self._n_pairs)
        self._block_halves(_sample_array(sample)[None], buf[1 : 1 + self._n_pairs][None])
        return self._signed_matrix(buf)

    def pair_statistics(self, sample: np.ndarray) -> np.ndarray:
        """Sum of pair (i, k) scores for each pair i < k, in the pair order of ``combinations``.

        ``sample`` is one sample, shape (n,), or a block of equal-length
        samples, shape (R, n), which gives shape (R, pairs): row r is
        bitwise the result for ``sample[r]`` alone.
        """
        x = _sample_array(sample, block=True)
        rows = x if x.ndim == 2 else x[None]
        out = np.empty((len(rows), self._n_pairs))
        self._block_halves(rows, out)
        return out if x.ndim == 2 else out[0]

    def _block_halves(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Write the pair statistics of each checked sample in ``rows``, shape (R, n), to ``out``.

        Row r of ``out``, shape (R, pairs), receives sample r's statistics.
        """
        if self._mode == "tuple":
            self._tuple_halves(rows, out)
        elif self._mode == "atom":
            self._atom_halves(rows, out)
        elif self._mode == "piecewise":
            for row, dest in zip(rows, out):
                self._piecewise_halves(row, dest)
        else:
            self._generic_halves(rows, out)

    def _tuple_halves(self, rows: np.ndarray, out: np.ndarray) -> None:
        width = len(self.model.candidates[0])
        if rows.shape[1] != width:
            raise ConfigError(
                f"per-coordinate model expects samples of length {width}, got {rows.shape[1]}"
            )
        for r, x in enumerate(rows):
            for p, coord in enumerate(self._coord_scores):
                out[r, p] = sum(float(coord[c](x[c : c + 1])[0]) for c in range(width))

    def _atom_halves(self, rows: np.ndarray, out: np.ndarray) -> None:
        k = len(self._atom_points)
        idx = locate_points(self._atom_points, rows, "the model's finite space")
        # One count vector per row: row r's indices are offset by r * k.
        counts = np.bincount(
            (idx + k * np.arange(len(rows))[:, None]).ravel(), minlength=len(rows) * k
        ).reshape(len(rows), k)
        for dest, c in zip(out, counts):
            dest[:] = self._atom_values @ c

    def _piecewise_halves(self, x: np.ndarray, out: np.ndarray) -> None:
        tab = self._table
        xs = np.sort(x)
        # Observations below each distinct cut, gathered per component end.
        # As floats the counts are exact and the gathers and the product
        # skip an integer-to-float cast.  The per-component arithmetic runs
        # in place, which keeps fewer component-sized temporaries alive on
        # large compiled tables; IEEE products commute, so it stays bitwise.
        pos = np.searchsorted(xs, tab.cuts, side="left")
        contrib = _increments(pos.astype(float), tab)
        contrib *= tab.const
        if tab.slope is not None:
            linear = _increments(np.concatenate([[0.0], np.cumsum(xs)]).take(pos), tab)
            linear *= tab.slope
            contrib += linear
        np.multiply(x.size, tab.bases, out=out)
        out += np.bincount(tab.pair, weights=contrib, minlength=self._n_pairs)

    def _generic_halves(self, rows: np.ndarray, out: np.ndarray) -> None:
        # Scores are elementwise, so one call scores the whole block; each
        # row is then summed by itself, as a lone sample's scores would be.
        flat = rows.reshape(-1)
        for p, t in enumerate(self._scores):
            out[:, p] = t(flat).reshape(rows.shape).sum(axis=1)


def _increments(at_cuts: np.ndarray, tab: PiecewiseTable) -> np.ndarray:
    """Each component's increment of a per-cut quantity: ``at_cuts[hi] - at_cuts[lo]``, in a new array."""
    out = at_cuts.take(tab.hi)
    out -= at_cuts.take(tab.lo)
    return out


def _sample_array(
    sample: np.ndarray, block: bool = False, allow_empty: bool = False
) -> np.ndarray:
    """``sample`` as a float array, checked: finite, one-dimensional and non-empty.

    With ``block``, a 2-D block of equal-length samples is accepted too, and
    it must have at least one row and one column.  ``allow_empty`` lets an
    empty one-dimensional sample through.

    Raises:
        ConfigError: if the sample breaks one of these rules.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 and not (block and x.ndim == 2):
        shapes = "one-dimensional or a 2-D block of samples" if block else "one-dimensional"
        raise ConfigError(f"sample must be {shapes}, got shape {x.shape}")
    if (x.size == 0 and not (allow_empty and x.ndim == 1)) or not np.isfinite(x).all():
        raise ConfigError("sample must be a non-empty array of finite numbers")
    return x


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
    _positive_finite(epsilon, "epsilon")
    if engine is None:
        engine = PairwiseEngine(loss, model)
    M = engine.statistic_matrix(sample)
    sup, chosen = _suprema_and_choice(M)
    lowest = float(sup.min())
    mset = tuple(int(i) for i in np.flatnonzero(sup <= lowest + epsilon))
    return EstimateReport(
        pairwise=M,
        sup_stat=sup,
        epsilon=float(epsilon),
        minimizer_set=mset,
        chosen=chosen,
        constant_parts=engine.constant_parts,
    )


def _suprema_and_choice(M: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-wise suprema of a statistic matrix, and the lowest index attaining their minimum."""
    sup = M.max(axis=1)
    return sup, int(np.argmin(sup))


def histogram_estimator(sample: np.ndarray, partition: PartitionRef) -> HistogramMeasure:
    """Cellwise-constant density with mass count/n on each partition cell."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ConfigError("histogram estimator needs a nonempty sample")
    cells = partition.locate(x)
    if np.any(cells < 0):
        bad = x[cells < 0]
        raise ConfigError(f"observation {bad.flat[0]!r} falls outside the partition")
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
        raise ConfigError(f"median estimator needs n >= 2, got n = {x.size}")
    k = math.ceil(x.size / 2)
    return 0.5 * (float(x[k - 1]) + float(x[k]))
