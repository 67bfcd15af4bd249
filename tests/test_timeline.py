"""The timeline functions built on ``run_edges`` and searchsorted lookups
against the per-frame and per-interval loops they replace, kept here as
references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chordkit import harte
from chordkit.annotate import Annotation, fill_gaps, interval_labels
from chordkit.errors import EmptyBeatList, EmptySequence
from chordkit.decode import count_transitions, incorrect_regions
from chordkit.features import (BeatIntervals, FeatureMatrix, beat_intervals, beat_pool,
                               perfect_intervals)
from chordkit.metrics import TimedPath, path_from_frames, run_edges
from chordkit.vocab import map_label, vocabulary_26, vocabulary_170

V170 = vocabulary_170()
V26 = vocabulary_26()

# --- reference loops ---


def reference_path_from_frames(ids, hop):
    intervals = []
    ids = list(ids)
    start = 0
    for i in range(1, len(ids) + 1):
        if i == len(ids) or ids[i] != ids[start]:
            intervals.append((start * hop, i * hop, int(ids[start])))
            start = i
    return TimedPath(intervals=tuple(intervals))


def reference_count_transitions(ids):
    ids = list(ids)
    if not ids:
        raise EmptySequence("empty id sequence")
    return sum(1 for a, b in zip(ids, ids[1:]) if a != b)


def reference_incorrect_regions(pred, truth):
    pred, truth = list(pred), list(truth)
    regions = []
    start = None
    for i, (p, t) in enumerate(zip(pred, truth)):
        wrong = p != t
        if start is not None and (not wrong or p != pred[start]):
            regions.append((start, i - start, pred[start]))
            start = None
        if wrong and start is None:
            start = i
    if start is not None:
        regions.append((start, len(pred) - start, pred[start]))
    return regions


def reference_beat_pool(feat, beats):
    centers = feat.grid().centers()
    pooled = np.full((len(beats.intervals), feat.n_bins), feat.floor_db, dtype=np.float64)
    filled = np.zeros(len(beats.intervals), dtype=bool)
    for i, (start, end) in enumerate(beats.intervals):
        mask = (centers >= start) & (centers < end)
        if mask.any():
            pooled[i] = feat.data[mask].mean(axis=0)
            filled[i] = True
    if not filled.any():
        raise EmptyBeatList("no interval contains a frame center")
    last = None
    for i in range(len(filled)):
        if filled[i]:
            last = i
        elif last is not None:
            pooled[i] = pooled[last]
    first = int(np.argmax(filled))
    pooled[:first] = pooled[first]
    return pooled.astype(np.float32)


def reference_interval_labels(ann, intervals, vocab):
    ids = np.empty(len(intervals), dtype=np.int64)
    seg_ids = [(s, e, map_label(lbl, vocab)) for s, e, lbl in ann.segments]
    for i, (start, end) in enumerate(intervals):
        overlap = {}
        for s, e, cid in seg_ids:
            d = min(end, e) - max(start, s)
            if d > 0:
                overlap[cid] = overlap.get(cid, 0.0) + d
        uncovered = (end - start) - sum(overlap.values())
        if uncovered > 1e-9:
            overlap[vocab.n_id] = overlap.get(vocab.n_id, 0.0) + uncovered
        ids[i] = max(overlap.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    return ids


# --- strategies ---

_ids = st.lists(st.integers(0, 4), min_size=1, max_size=80)
_hops = st.sampled_from([0.1, 0.0928798, 0.3, 1.0])
_labels = st.sampled_from([harte.parse_chord(t) for t in
                           ("C:maj", "A:min7", "G:7", "E:hdim7", "D:sus4", "N", "X")])


@st.composite
def annotations(draw):
    """Segments with random lengths and gaps, times rounded like a file's."""
    t, segments = 0.0, []
    for _ in range(draw(st.integers(0, 12))):
        t = round(t + draw(st.sampled_from([0.0, 0.0, 0.37, 1.1])), 6)
        end = round(t + draw(st.floats(0.05, 4.0)), 6)
        segments.append((t, end, draw(_labels)))
        t = end
    return fill_gaps(segments, duration=t + draw(st.sampled_from([0.0, 0.8])))


@st.composite
def interval_sets(draw, ann):
    """Beat intervals at every division, with or without a tail past the
    annotation, or the annotation's own segments."""
    if draw(st.booleans()) and ann.segments:
        return perfect_intervals(ann)
    beats = np.cumsum(draw(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=30)))
    beats = beats - draw(st.sampled_from([0.0, 0.0, float(beats[0])]))
    # a song of no time has no beat intervals: beat_intervals refuses duration 0
    tail = draw(st.sampled_from([None, ann.duration or None, ann.duration + 2.5]))
    return beat_intervals(beats.tolist(), draw(st.sampled_from(["0.25", "0.5", "1", "2"])),
                          duration=tail)


# --- the run-length helper ---

def test_run_edges_splits_where_any_key_changes():
    assert run_edges([3, 3, 5, 5, 5, 3]).tolist() == [0, 2, 5, 6]
    assert run_edges([1, 1, 1, 1], [0, 1, 1, 0]).tolist() == [0, 1, 3, 4]
    assert run_edges([7]).tolist() == [0, 1]
    assert run_edges([]).tolist() == [0]


@settings(max_examples=300, deadline=None)
@given(ids=_ids, hop=_hops, as_array=st.booleans())
def test_path_from_frames_and_transitions_equal_loops(ids, hop, as_array):
    seq = np.array(ids) if as_array else ids
    path = path_from_frames(seq, hop)
    assert path == reference_path_from_frames(seq, hop)
    assert all(type(s) is float and type(c) is int for s, _, c in path.intervals)
    assert count_transitions(seq) == reference_count_transitions(seq)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=80),
       as_array=st.booleans())
def test_incorrect_regions_equal_loop(pairs, as_array):
    pred = [p for p, _ in pairs]
    truth = [t for _, t in pairs]
    if as_array:
        pred, truth = np.array(pred, dtype=np.int64), np.array(truth, dtype=np.int64)
    assert incorrect_regions(pred, truth) == reference_incorrect_regions(pred, truth)


def test_empty_sequences():
    with pytest.raises(EmptySequence):
        count_transitions([])
    assert incorrect_regions([], []) == []
    assert path_from_frames([], 0.1).intervals == ()


# --- searchsorted lookups ---

@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_bins=st.integers(2, 24), hop=_hops, seed=st.integers(0, 2**16))
def test_beat_pool_equals_mask_loop(data, n_bins, hop, seed):
    """Bit-identical rows, also for intervals that overlap by up to 1e-9.

    With a single bin, numpy's mean over a column sums pairwise rather than
    row by row, so one-bin features agree to rounding only (checked below).
    """
    ann = data.draw(annotations())
    intervals = data.draw(interval_sets(ann))
    if data.draw(st.booleans()):
        # shift every inner edge a little, as subdividing a beat can
        edges = [s for s, _ in intervals.intervals] + [intervals.intervals[-1][1]]
        nudge = data.draw(st.sampled_from([-9e-10, -3e-16, 3e-16, 9e-10]))
        intervals = BeatIntervals(tuple((s + (nudge if i else 0.0), e)
                                        for i, (s, e) in enumerate(zip(edges, edges[1:]))))
    n_frames = data.draw(st.integers(0, 120))
    rng = np.random.default_rng(seed)
    values = rng.normal(-40, 20, size=(n_frames, n_bins)).astype(np.float32)
    values[rng.random(values.shape) < 0.05] = -0.0
    feat = FeatureMatrix(data=values, hop=hop)
    try:
        expected = reference_beat_pool(feat, intervals)
    except EmptyBeatList:
        with pytest.raises(EmptyBeatList):
            beat_pool(feat, intervals)
        return
    pooled = beat_pool(feat, intervals)
    assert pooled.data.dtype == np.float32
    assert pooled.data.tobytes() == expected.tobytes()


def test_beat_pool_one_bin_agrees_to_rounding():
    values = np.random.default_rng(3).normal(size=(200, 1)).astype(np.float32)
    feat = FeatureMatrix(data=values, hop=0.1)
    intervals = beat_intervals([0.0, 3.3, 7.1, 12.0, 19.95], "1", duration=20.0)
    pooled = beat_pool(feat, intervals)
    assert pooled.data.tobytes() == reference_beat_pool(feat, intervals).tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), vocab=st.sampled_from([V170, V26]))
def test_interval_labels_equal_overlap_loop(data, vocab):
    ann = data.draw(annotations())
    intervals = data.draw(interval_sets(ann)).intervals
    ids = interval_labels(ann, intervals, vocab)
    assert ids.dtype == np.int64
    assert ids.tolist() == reference_interval_labels(ann, intervals, vocab).tolist()


def test_interval_labels_ties_go_to_lowest_id():
    ann = fill_gaps([(0.0, 0.5, harte.parse_chord("G:maj")),
                     (0.5, 1.0, harte.parse_chord("C:maj"))])
    assert interval_labels(ann, [(0.0, 1.0)], V170).tolist() == [0]
    # the half past the annotation is N, tied with C:maj
    half = Annotation(segments=((0.0, 1.0, harte.parse_chord("C#:maj")),), duration=1.0)
    assert interval_labels(half, [(0.0, 2.0)], V170).tolist() == [1]
    assert interval_labels(half, [], V170).tolist() == []

