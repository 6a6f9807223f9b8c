"""Pairwise-test estimator: statistic matrix, sup-statistic, minimizer set.

The estimator scores every ordered pair of candidates with the loss's test
family, sums the scores over the sample to get the pairwise statistic
matrix, takes row-wise suprema, and returns every candidate whose supremum
is within epsilon of the best one.

Candidate models are explicit finite lists (countable models are realized by
enumeration, so all suprema become maxima).  Two sample regimes are
supported, and ``Model`` reads which one applies from its candidates:
i.i.d. candidates (one measure per candidate) and per-coordinate candidate
tuples, where candidate i is a tuple (P_{i,1}, ..., P_{i,n}) and
observation k is scored against coordinate k.  A tuple model runs one
engine per coordinate, over the candidates' k-th measures, and adds their
statistics coordinate by coordinate.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
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
    translation_pair_table,
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

_MIXED_CANDIDATES = "a model's candidates must be all measures or all sequences of measures, got a {}"


@dataclass
class Model:
    """A finite candidate list plus the metadata its loss may need.

    The candidates say which product form the model has, and ``product_form``
    records it: ``"iid"`` when every candidate is a single measure applying
    to all coordinates, ``"tuples"`` when every candidate is a sequence of
    per-coordinate measures, all of one length (each is stored as a tuple).
    Any other mix raises ``ConfigError``.
    """

    candidates: list
    vc_dimension: float | None = None
    candidate_params: list | None = None
    product_form: str = field(init=False)

    def __post_init__(self) -> None:
        cands = self.candidates = list(self.candidates)
        if not cands:
            raise ConfigError("a model needs at least one candidate")
        # A plain loop, not all(): a two-point test builds this model per sample.
        if isinstance(cands[0], Measure):
            for c in cands:
                if not isinstance(c, Measure):
                    raise ConfigError(_MIXED_CANDIDATES.format(type(c).__name__))
            self.product_form = "iid"
            return
        for i, c in enumerate(cands):
            try:
                c = cands[i] = tuple(c)
            except TypeError:
                raise ConfigError(_MIXED_CANDIDATES.format(type(c).__name__)) from None
            if len(c) != len(cands[0]) or not all(isinstance(P, Measure) for P in c):
                raise ConfigError(f"candidates must be measure sequences of one length; candidate {i} is not")
        self.product_form = "tuples"

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
        rows: the piecewise table's rows, which its sweep evaluates per
            sample; fewer than ``pairs`` when pairs share a row (see
            ``translation_pair_table``).  None for other backends.
        components: the piecewise table's components; None for other backends.
        cuts: the piecewise table's distinct cut points; None for other backends.
        compiled: True when a whole-model builder (``partition_pair_table`` or
            ``translation_pair_table``) compiled the piecewise table in one
            pass; False when the scores were built pair by pair.  A tuple
            engine is compiled when every coordinate engine is.
        build_seconds: wall time of the engine's construction.
    """

    backend: str
    pairs: int
    rows: int | None
    components: int | None
    cuts: int | None
    compiled: bool
    build_seconds: float


class PairwiseEngine:
    """Precompiled pair scores for one (loss, model), reusable across samples.

    Construction builds the score of every unordered candidate pair once.
    When a whole-model builder compiles all pairs together, no per-pair
    score is built: ``partition_pair_table`` covers histograms on one
    partition (TV, L_j, L_inf) and ``translation_pair_table`` TV on Gaussian,
    Cauchy or uniform candidates of one shared ``sd``, ``scale`` or ``width``.
    Evaluation picks the fastest applicable backend: a value-matrix product
    when all scores live on one shared finite space, a sweep over the
    table's distinct cut points when all scores are piecewise linear (with
    prefix sums only when some piece has a slope), and a per-pair loop
    otherwise.  The sweep evaluates each table row once and every pair
    reads its row's value (``PiecewiseTable.pair_row``), so pairs that
    share a score cost one row.  Entries are computed once per unordered
    pair, so the matrix is exactly antisymmetric.  ``stats`` tells which
    backend was picked, what was compiled and how long construction took.

    A tuple model sums one such engine per coordinate, over the candidates'
    measures there, in coordinate order from +0.0, as a Python ``sum`` of
    one-observation scores adds; a coordinate with sloped pieces takes the
    per-pair loop, since the sweep rounds ``base + (c + s*x)``, a score
    ``(base + c) + s*x``.
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
        cands = self.model.candidates
        compiled = False
        self._pair_row: np.ndarray | None = None
        if self.model.product_form == "tuples":
            self._mode = "tuple"
            self._coords = [PairwiseEngine(spec, [P[c] for P in cands]) for c in range(len(cands[0]))]
            consts = np.zeros(self._n_pairs)
            for eng in self._coords:
                if eng._mode == "piecewise" and eng._table.slope is not None:
                    eng._mode = "generic"  # see the class docstring
                consts += eng._by_pair(eng._consts)
            compiled = all(eng.stats.compiled for eng in self._coords)
        else:
            table = partition_pair_table(spec, cands)
            if table is None:
                table = translation_pair_table(spec, cands)
            compiled = table is not None
            if compiled:
                self._mode = "piecewise"
                self._table = table
                self._pair_row = table.pair_row
                # Every compiled family's data-free part is its base.
                consts = table.bases
            else:
                self._scores: list[ScoreFunction] = [
                    score(spec, P, Q) for P, Q in combinations(cands, 2)
                ]
                consts = [t.constant_part for t in self._scores]
                self._mode = self._classify()
        # Data-free parts, one per row, as ``_block_halves`` writes halves.
        self._consts = np.asarray(consts, dtype=float)
        self._n_rows = len(self._consts)
        table = self._table if self._mode == "piecewise" else None
        self._stats = EngineStats(
            backend=self._mode,
            pairs=self._n_pairs,
            rows=None if table is None else self._n_rows,
            components=None if table is None else len(table.row),
            cuts=None if table is None else len(table.cuts),
            compiled=compiled,
            build_seconds=time.perf_counter() - started,
        )

    @property
    def stats(self) -> EngineStats:
        """Backend, compiled sizes and build time; never part of any artifact."""
        return self._stats

    @functools.cached_property
    def constant_parts(self) -> np.ndarray:
        """The antisymmetric matrix of the pairs' data-free score terms."""
        return self._fill_matrix(self._consts)

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

    @functools.cached_property
    def _gather(self) -> np.ndarray:
        # Where each entry of the row-major (m, m) matrix reads from
        # ``[0, halves, -halves]``, one half per row: pair p = (i, k), i < k,
        # in the pair order of ``combinations``, reading row r (r = p unless
        # ``_pair_row`` says otherwise), puts 1 + r at (i, k) and
        # 1 + rows + r at (k, i); the diagonal reads the zero.  Built on
        # first read, like ``constant_parts``: a tuple model's coordinate
        # engines form no matrix.  Filled matrix row by matrix row:
        # whole-triangle temporaries (``triu_indices``) leave a larger peak
        # resident set on models with many candidates.
        m = len(self.model)
        row = self._pair_row
        gather = np.zeros(m * m, dtype=np.intp)
        start = 0
        for i in range(m - 1):
            stop = start + m - 1 - i
            at = np.arange(start + 1, stop + 1, dtype=np.intp) if row is None else row[start:stop] + 1
            gather[i * m + i + 1 : (i + 1) * m] = at
            gather[(i + 1) * m + i :: m] = at + self._n_rows
            start = stop
        return gather

    def _by_pair(self, per_row: np.ndarray) -> np.ndarray:
        """Values held one per row along the last axis, read out one per pair."""
        return per_row if self._pair_row is None else per_row.take(self._pair_row, axis=-1)

    def _fill_matrix(self, halves: np.ndarray) -> np.ndarray:
        buf = np.empty(1 + 2 * self._n_rows)
        buf[1 : 1 + self._n_rows] = halves
        return self._signed_matrix(buf)

    def _signed_matrix(self, buf: np.ndarray) -> np.ndarray:
        """The (m, m) matrix that ``_gather`` reads from ``buf``, given its halves.

        ``buf`` holds the row halves at ``1 .. rows``; its zero and the
        negated halves are written here, in place.
        """
        r = self._n_rows
        buf[0] = 0.0
        np.negative(buf[1 : r + 1], out=buf[r + 1 :])
        m = len(self.model)
        return buf.take(self._gather).reshape(m, m)

    # -- evaluation ----------------------------------------------------------

    def statistic_matrix(self, sample: np.ndarray) -> np.ndarray:
        """Antisymmetric matrix with entry (i, k) = sum of pair (i, k) scores."""
        # A fresh buffer per call, so that threads may share one engine.
        buf = np.empty(1 + 2 * self._n_rows)
        self._block_halves(_sample_array(sample)[None], buf[1 : 1 + self._n_rows][None])
        return self._signed_matrix(buf)

    def pair_statistics(self, sample: np.ndarray) -> np.ndarray:
        """Sum of pair (i, k) scores for each pair i < k, in the pair order of ``combinations``.

        ``sample`` is one sample, shape (n,), or a block of equal-length
        samples, shape (R, n), which gives shape (R, pairs): row r is
        bitwise the result for ``sample[r]`` alone.
        """
        x = _sample_array(sample, block=True)
        block = x if x.ndim == 2 else x[None]
        out = np.empty((len(block), self._n_rows))
        self._block_halves(block, out)
        out = self._by_pair(out)
        return out if x.ndim == 2 else out[0]

    def _block_halves(self, block: np.ndarray, out: np.ndarray) -> None:
        """Write the row statistics of each checked sample in ``block``, shape (R, n), to ``out``.

        Row r of ``out``, shape (R, rows), receives sample r's statistics.
        """
        if self._mode == "tuple":
            self._tuple_halves(block, out)
        elif self._mode == "atom":
            self._atom_halves(block, out)
        elif self._mode == "piecewise":
            for x, dest in zip(block, out):
                self._piecewise_halves(x, dest)
        else:
            self._generic_halves(block, out)

    def _tuple_halves(self, block: np.ndarray, out: np.ndarray) -> None:
        width = len(self._coords)
        if block.shape[1] != width:
            raise ConfigError(
                f"per-coordinate model expects samples of length {width}, got {block.shape[1]}"
            )
        out[:] = 0.0  # +0.0, as Python's sum starts
        for c, eng in enumerate(self._coords):
            part = np.empty((len(block), eng._n_rows))
            eng._block_halves(block[:, c : c + 1], part)
            out += eng._by_pair(part)

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
        out += np.bincount(tab.row, weights=contrib, minlength=self._n_rows)

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
