"""Weighted chord symbol recall over continuous time, the comparator family
and discrete-frame confusion matrices.

WCSR = 100 * (total correct time) / (total time where the comparator is
defined), accumulated over songs by interval intersection rather than frame
counting. Reference X symbols are always ignored (undefined).

Each scored (reference, estimate) pair is intersected once: its read-only
:func:`refinement` (piece durations, reference ids, every comparator's
verdicts) is cached on the estimate path, keyed by the identity of the
reference path and of ``vocab.tables``. Paths are immutable, so it cannot go
stale; every comparator, pooled score and class-wise table reads it.
"""

from __future__ import annotations

import enum
import statistics

import numpy as np

from .errors import LengthMismatch, ZeroDefinedTime
from .harte import PITCH_NAMES
from .vocab import Vocabulary, check_ids, map_label


class MetricKind(enum.Enum):
    """A comparator; its value names its table in ``Vocabulary.tables.verdicts``."""

    ACC = "acc"
    ROOT = "root"
    THIRD = "third"
    SEVENTH = "seventh"
    MIREX = "mirex"
    MAJMIN = "majmin"


class Verdict(enum.Enum):
    CORRECT = 1
    INCORRECT = 0
    UNDEFINED = -1


class TimedPath:
    """Contiguous (start, end, chord_id) coverage of one song's timeline, held once
    as read-only ``columns`` made from its rows: (start, end, id) triples or an [n, 3] array.

    ``refined`` holds the last :func:`refinement` scored with this path as the
    estimate; it is not part of the path's value, nor of its copies or pickles.
    """

    __slots__ = ("columns", "refined")

    def __init__(self, intervals=()):
        table = np.array(np.reshape(intervals, (-1, 3)).T, dtype=np.float64, order="C")
        self.columns = table[0], table[1], table[2].astype(np.int64)
        for column in self.columns:
            column.flags.writeable = False
        self.refined = None

    def __reduce__(self):
        return TimedPath, (np.column_stack(self.columns),)

    @property
    def intervals(self) -> tuple[tuple[float, float, int], ...]:
        return tuple(zip(*(column.tolist() for column in self.columns)))

    @property
    def duration(self) -> float:
        return float(self.columns[1][-1]) if len(self.columns[1]) else 0.0

    def __eq__(self, other):
        return isinstance(other, TimedPath) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"TimedPath(intervals={self.intervals!r})"


def run_edges(*keys) -> np.ndarray:
    """Edges of the maximal runs over which every key stays equal: 0, each
    index where any key differs from its predecessor, then the length, so
    run r covers [edges[r], edges[r + 1]). Keys are equal-length 1-D sequences."""
    keys = [np.asarray(key) for key in keys]
    edge = np.ones(len(keys[0]) + 1, dtype=bool)
    edge[1:-1] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return np.flatnonzero(edge)


def path_from_frames(ids, hop: float) -> TimedPath:
    """TimedPath from per-frame ids with frame i covering [i*hop, (i+1)*hop)."""
    ids = np.asarray(ids)
    edges = run_edges(ids)
    return TimedPath(np.column_stack((edges[:-1] * hop, edges[1:] * hop, ids[edges[:-1]])))


def path_from_annotation(ann, vocab: Vocabulary) -> TimedPath:
    return TimedPath([(start, end, map_label(label, vocab)) for start, end, label in ann.segments])


def adjust_estimate(ref: TimedPath, est: TimedPath, vocab: Vocabulary) -> TimedPath:
    """The estimate trimmed to the reference's span and padded with N at
    either end (mir_eval's ``adjust_intervals`` convention): time the
    estimate leaves out counts as N, time past the reference is not scored."""
    if not len(ref.columns[0]):
        return TimedPath()
    lo, hi = float(ref.columns[0][0]), ref.duration
    kept = [(max(start, lo), min(end, hi), chord)
            for start, end, chord in est.intervals if end > lo and start < hi]
    first, last = (kept[0][0], kept[-1][1]) if kept else (hi, hi)
    head = [(lo, first, vocab.n_id)] if first > lo else []
    tail = [(last, hi, vocab.n_id)] if last < hi else []
    return TimedPath(head + kept + tail)


def compare_labels(kind: MetricKind, ref: int, est: int, vocab: Vocabulary) -> Verdict:
    """Compare a reference and estimated chord id under one comparator."""
    check_ids((ref, est), vocab)
    return Verdict(int(vocab.tables.verdicts[kind.value][ref, est]))


def intersect(ref, est):
    """(duration, ref_id, est_id) arrays over the common refinement of two
    timelines, each a (start, end, id) column triple in time order.

    Each piece between consecutive interval edges takes the intervals holding
    its midpoint; a piece in a gap of either timeline, or past its end, is dropped.
    """
    r_start, r_end, r_id = ref
    e_start, e_end, e_id = est
    edges = np.unique(np.concatenate([r_start, r_end, e_start, e_end]))
    start, end = edges[:-1], edges[1:]
    mid = (start + end) / 2
    ri = np.searchsorted(r_end, mid, side="right")
    ei = np.searchsorted(e_end, mid, side="right")
    inside = (ri < len(r_end)) & (ei < len(e_end))
    inside[inside] = (r_start[ri[inside]] <= mid[inside]) & (e_start[ei[inside]] <= mid[inside])
    return (end - start)[inside], r_id[ri[inside]], e_id[ei[inside]]


def refinement(ref: TimedPath, est: TimedPath, vocab: Vocabulary):
    """(duration, ref_id, verdicts) of one song pair's common refinement, in
    time order: ``verdicts`` is [len(MetricKind), P] int8, one row per
    comparator in MetricKind order. Built by one :func:`intersect` and kept on
    ``est`` for this ``ref`` and ``vocab.tables``; the arrays are read-only."""
    tables = vocab.tables
    cached = est.refined
    if cached is not None and cached[0] is ref and cached[1] is tables:
        return cached[2]
    dur, ref_ids, est_ids = intersect(ref.columns, est.columns)
    cells = check_ids(ref_ids, vocab) * vocab.size + check_ids(est_ids, vocab)
    verdicts = np.empty((len(MetricKind), len(cells)), dtype=np.int8)
    for row, kind in zip(verdicts, MetricKind):
        tables.verdicts[kind.value].take(cells, out=row)
    pieces = dur, ref_ids, verdicts
    for array in pieces:
        array.flags.writeable = False
    est.refined = ref, tables, pieces
    return pieces


_ROWS = {kind: row for row, kind in enumerate(MetricKind)}
_NO_PIECES = (np.empty(0), np.empty(0, dtype=np.int64),
              np.empty((len(MetricKind), 0), dtype=np.int8))


def _defined_pieces(kind: MetricKind, songs, vocab: Vocabulary):
    """(duration, ref_id, correct) of every piece where the comparator is
    defined, all songs in time order; raises ZeroDefinedTime if there is none."""
    pieces = [refinement(ref, est, vocab) for ref, est in songs]
    dur, ref, verdicts = pieces[0] if len(pieces) == 1 else (
        np.concatenate(column, axis=-1) for column in zip(_NO_PIECES, *pieces))
    verdict = verdicts[_ROWS[kind]]
    defined = verdict >= 0
    if not defined.any():
        raise ZeroDefinedTime("comparator undefined everywhere")
    return dur[defined], ref[defined], verdict[defined] == 1


def _total(durations: np.ndarray) -> float:
    """Left-to-right sum, the order a running float total adds in."""
    return float(np.cumsum(durations)[-1]) if len(durations) else 0.0


def _accumulate(kind: MetricKind, songs, vocab: Vocabulary):
    """(correct_time, defined_time) overall and per reference class."""
    dur, ref, correct = _defined_pieces(kind, songs, vocab)
    # bincount adds each class's pieces left to right, as _total does; an
    # incorrect piece adds 0.0, which leaves a sum of durations unchanged
    right = np.bincount(ref, dur * correct, vocab.size).tolist()
    defined = np.bincount(ref, dur, vocab.size).tolist()
    per_class = {c: [right[c], defined[c]] for c in np.unique(ref).tolist()}
    return _total(dur[correct]), _total(dur), per_class


def wcsr(kind: MetricKind, songs, vocab: Vocabulary) -> float:
    """Weighted chord symbol recall in percent over a list of song pairs."""
    dur, _, correct = _defined_pieces(kind, songs, vocab)
    return 100.0 * _total(dur[correct]) / _total(dur)


def class_wise_scores(kind: MetricKind, songs, vocab: Vocabulary):
    """Per-class WCSR restricted to time where the reference is that class.

    Returns (mean, median, per-class dict); classes with zero defined time
    are excluded.
    """
    _, _, per_class = _accumulate(kind, songs, vocab)
    table = {c: 100.0 * corr / z for c, (corr, z) in sorted(per_class.items()) if z > 0}
    scores = list(table.values())
    return statistics.mean(scores), statistics.median(scores), table


def quality_axis(vocab: Vocabulary) -> list[str]:
    return list(vocab.qualities) + ["N", "X"]


def root_axis() -> list[str]:
    return list(PITCH_NAMES) + ["N", "X"]


def confusion_matrix(axis: str, songs_as_frames, vocab: Vocabulary,
                     row_normalize: bool = False) -> np.ndarray:
    """Confusion matrix over discrete frames along the quality or root axis."""
    if axis not in ("quality", "root"):
        raise ValueError(f"axis must be 'quality' or 'root', got {axis!r}")
    n = len(vocab.qualities) + 2 if axis == "quality" else 14
    index = vocab.tables.quality if axis == "quality" else vocab.tables.root
    cells = [np.empty(0, dtype=np.int64)]
    for ref_ids, est_ids in songs_as_frames:
        ref_ids, est_ids = check_ids(ref_ids, vocab), check_ids(est_ids, vocab)
        if ref_ids.shape != est_ids.shape:
            raise LengthMismatch("ref and est frame lists differ in length")
        cells.append(index[ref_ids] * n + index[est_ids])
    matrix = np.bincount(np.concatenate(cells), minlength=n * n).reshape(n, n).astype(np.float64)
    if row_normalize:
        sums = matrix.sum(axis=1, keepdims=True)
        nonzero = sums[:, 0] > 0
        matrix[nonzero] /= sums[nonzero]
    return matrix
