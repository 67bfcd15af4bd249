"""The per-class vocabulary tables against scalar, one-id-at-a-time references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chordkit.errors import IdOutOfRange, ZeroDefinedTime
from chordkit.harte import QUALITY_TEMPLATES
from chordkit.metrics import (MetricKind, TimedPath, Verdict, class_wise_scores,
                              compare_labels, confusion_matrix, path_from_frames, wcsr)
from chordkit.model import SHIFT_CHOICES, expected_counts, pitch_targets, root_targets
from chordkit.synthgen import RATIO_EPS, apply_calibration, calibration_ratios, id_distribution
from chordkit.vocab import id_info, transpose_id, vocabulary_26, vocabulary_170

V170 = vocabulary_170()
V26 = vocabulary_26()
VOCABS = [V170, V26]

# --- scalar reference comparator: the per-id rules the tables replace ---


def reference_pitch_classes(chord_id, vocab):
    """Absolute pitch classes of a chord id; empty set for N and X."""
    info = id_info(chord_id, vocab)
    if info in ("N", "X"):
        return frozenset()
    root, _ = info
    return frozenset((p + root) % 12 for p in vocab.templates[chord_id // 12])


_THIRD_SLOT = (3, 4, 2, 5)
_SEVENTH_SLOT = (11, 10, 9)
_SEVENTH_REF_QUALITIES = {"maj", "min", "maj7", "min7", "7"}


def _slot(template, candidates):
    for semitone in candidates:
        if semitone in template:
            return semitone
    return None


def reduce_id(chord_id, large, small):
    info = id_info(chord_id, large)
    if info == "N":
        return small.n_id
    if info == "X":
        return small.x_id
    root, quality = info
    template = QUALITY_TEMPLATES[quality]
    if frozenset({0, 4, 7}) <= template:
        return small.chord_id(root, "maj")
    if frozenset({0, 3, 7}) <= template:
        return small.chord_id(root, "min")
    return small.x_id


def reference_compare(kind, ref, est, vocab):
    if ref == vocab.x_id:
        return Verdict.UNDEFINED
    if kind is MetricKind.ACC:
        return Verdict.CORRECT if ref == est else Verdict.INCORRECT
    if kind is MetricKind.MAJMIN:
        small = vocabulary_26()
        ref_small = reduce_id(ref, vocab, small)
        if ref_small == small.x_id:
            return Verdict.UNDEFINED
        est_small = reduce_id(est, vocab, small)
        return Verdict.CORRECT if ref_small == est_small else Verdict.INCORRECT
    ref_n, est_n = ref == vocab.n_id, est == vocab.n_id
    if kind is MetricKind.MIREX:
        if ref_n or est_n:
            return Verdict.CORRECT if ref_n and est_n else Verdict.INCORRECT
        if est == vocab.x_id:
            return Verdict.INCORRECT
        shared = reference_pitch_classes(ref, vocab) & reference_pitch_classes(est, vocab)
        return Verdict.CORRECT if len(shared) >= 3 else Verdict.INCORRECT
    if kind is MetricKind.SEVENTH:
        if ref_n:
            return Verdict.CORRECT if est_n else Verdict.INCORRECT
        ref_root, ref_quality = id_info(ref, vocab)
        if ref_quality not in _SEVENTH_REF_QUALITIES:
            return Verdict.UNDEFINED
        if est >= vocab.n_id:
            return Verdict.INCORRECT
        est_root, est_quality = id_info(est, vocab)
        ref_tpl, est_tpl = QUALITY_TEMPLATES[ref_quality], QUALITY_TEMPLATES[est_quality]
        same = (ref_root == est_root
                and _slot(ref_tpl, _THIRD_SLOT) == _slot(est_tpl, _THIRD_SLOT)
                and _slot(ref_tpl, _SEVENTH_SLOT) == _slot(est_tpl, _SEVENTH_SLOT))
        return Verdict.CORRECT if same else Verdict.INCORRECT
    if ref_n or est_n or est == vocab.x_id:
        return Verdict.CORRECT if ref_n and est_n else Verdict.INCORRECT
    ref_root, ref_quality = id_info(ref, vocab)
    est_root, est_quality = id_info(est, vocab)
    if kind is MetricKind.ROOT:
        return Verdict.CORRECT if ref_root == est_root else Verdict.INCORRECT
    same = (ref_root == est_root
            and _slot(QUALITY_TEMPLATES[ref_quality], _THIRD_SLOT)
            == _slot(QUALITY_TEMPLATES[est_quality], _THIRD_SLOT))
    return Verdict.CORRECT if same else Verdict.INCORRECT


# --- reference WCSR: the interval walk over the common refinement ---

def reference_intersect(ref, est):
    edges = sorted({t for s, e, _ in ref.intervals for t in (s, e)}
                   | {t for s, e, _ in est.intervals for t in (s, e)})
    ri = ei = 0
    for start, end in zip(edges, edges[1:]):
        mid = (start + end) / 2
        while ri < len(ref.intervals) and ref.intervals[ri][1] <= mid:
            ri += 1
        while ei < len(est.intervals) and est.intervals[ei][1] <= mid:
            ei += 1
        if ri >= len(ref.intervals) or ei >= len(est.intervals):
            break
        if ref.intervals[ri][0] <= mid and est.intervals[ei][0] <= mid:
            yield end - start, ref.intervals[ri][2], est.intervals[ei][2]


def reference_accumulate(kind, songs, vocab):
    correct, defined = 0.0, 0.0
    per_class = {}
    for ref, est in songs:
        for dur, r, e in reference_intersect(ref, est):
            verdict = reference_compare(kind, r, e, vocab)
            if verdict is Verdict.UNDEFINED:
                continue
            defined += dur
            bucket = per_class.setdefault(r, [0.0, 0.0])
            bucket[1] += dur
            if verdict is Verdict.CORRECT:
                correct += dur
                bucket[0] += dur
    return correct, defined, per_class


def reference_wcsr(kind, songs, vocab):
    correct, defined, _ = reference_accumulate(kind, songs, vocab)
    if defined <= 0:
        raise ZeroDefinedTime
    return 100.0 * correct / defined


def reference_class_table(kind, songs, vocab):
    _, defined, per_class = reference_accumulate(kind, songs, vocab)
    if defined <= 0:
        raise ZeroDefinedTime
    return {c: 100.0 * corr / z for c, (corr, z) in sorted(per_class.items()) if z > 0}


class TestVerdictTables:
    @pytest.mark.parametrize("vocab", VOCABS, ids=["170", "26"])
    @pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
    def test_every_pair_matches_reference(self, vocab, kind):
        table = vocab.tables.verdicts[kind.value]
        assert table.shape == (vocab.size, vocab.size) and table.dtype == np.int8
        expected = np.array([[reference_compare(kind, r, e, vocab).value
                              for e in range(vocab.size)] for r in range(vocab.size)])
        assert np.array_equal(table, expected)

    def test_compare_labels_reads_the_table(self):
        for kind in MetricKind:
            assert compare_labels(kind, 5, 17, V170) is reference_compare(kind, 5, 17, V170)

    @pytest.mark.parametrize("ref, est", [(-1, 0), (0, -1), (170, 0), (0, 170)])
    def test_compare_labels_range_checked(self, ref, est):
        bad = ref if not 0 <= ref < 170 else est
        with pytest.raises(IdOutOfRange, match=rf"id {bad} outside \[0, 170\)"):
            compare_labels(MetricKind.ACC, ref, est, V170)


class TestClassTables:
    @pytest.mark.parametrize("vocab", VOCABS, ids=["170", "26"])
    def test_root_and_pitch_match_id_info(self, vocab):
        t = vocab.tables
        for chord_id in range(vocab.size):
            info = id_info(chord_id, vocab)
            assert t.root[chord_id] == (12 if info == "N" else 13 if info == "X" else info[0])
            assert set(np.flatnonzero(t.pitch[chord_id])) == \
                reference_pitch_classes(chord_id, vocab)

    @pytest.mark.parametrize("vocab", VOCABS, ids=["170", "26"])
    def test_majmin_and_quality_axis(self, vocab):
        t = vocab.tables
        for chord_id in range(vocab.size):
            info = id_info(chord_id, vocab)
            assert t.majmin[chord_id] == reduce_id(chord_id, vocab, V26)
            q = len(vocab.qualities)
            expected = q if info == "N" else q + 1 if info == "X" else vocab.quality_index(info[1])
            assert t.quality[chord_id] == expected

    @pytest.mark.parametrize("vocab", VOCABS, ids=["170", "26"])
    @pytest.mark.parametrize("k", SHIFT_CHOICES)
    def test_patch_transposition_matches_transpose_id(self, vocab, k):
        ids = np.arange(vocab.size)
        expected = [transpose_id(c, k, vocab) for c in range(vocab.size)]
        assert list(vocab.tables.shifted[k % 12, ids]) == expected

    def test_built_once_per_vocabulary_and_read_only(self):
        assert vocabulary_170().tables is vocabulary_170().tables
        with pytest.raises(ValueError):
            V170.tables.root[0] = 3

    @pytest.mark.parametrize("vocab", VOCABS, ids=["170", "26"])
    @pytest.mark.parametrize("build", [root_targets, pitch_targets])
    def test_targets_reject_out_of_range_ids(self, vocab, build):
        for bad in (-1, vocab.size):
            with pytest.raises(IdOutOfRange):
                build(np.array([0, bad]), vocab)


# --- table-driven WCSR is bit-identical to the interval walk ---

def _timed_path(start, pieces):
    intervals, t = [], start
    for duration, chord_id in pieces:
        intervals.append((t, t + duration, chord_id))
        t += duration
    return TimedPath(intervals=tuple(intervals))


_pieces = st.lists(st.tuples(st.floats(0.01, 8.0), st.integers(0, V170.size - 1)),
                   min_size=1, max_size=25)
_frames = st.tuples(st.lists(st.integers(0, V170.size - 1), min_size=1, max_size=60),
                    st.sampled_from([0.1, 0.0928798, 0.3]))
_paths = st.one_of(st.builds(_timed_path, st.sampled_from([0.0, 0.0, 0.5, 1.7]), _pieces),
                   _frames.map(lambda f: path_from_frames(f[0], f[1])))


@settings(max_examples=150, deadline=None)
@given(songs=st.lists(st.tuples(_paths, _paths), min_size=1, max_size=3),
       kind=st.sampled_from(list(MetricKind)))
def test_wcsr_and_class_wise_equal_interval_walk(songs, kind):
    try:
        expected = reference_wcsr(kind, songs, V170)
    except ZeroDefinedTime:
        with pytest.raises(ZeroDefinedTime):
            wcsr(kind, songs, V170)
        with pytest.raises(ZeroDefinedTime):
            class_wise_scores(kind, songs, V170)
        return
    assert wcsr(kind, songs, V170) == expected
    table = class_wise_scores(kind, songs, V170)[2]
    assert table == reference_class_table(kind, songs, V170)
    assert all(type(c) is int for c in table)


# --- the class bookkeeping against the loops it replaced ---
# Each reference is the earlier loop (per shift, per quality, per song or per
# frame), reading ids through id_info, chord_id and transpose_id, not the tables.

def reference_expected_counts(counts, p, vocab):
    counts = np.asarray(counts, dtype=np.float64)
    out = counts.copy()
    spread = np.zeros(vocab.n_id)
    for k in range(12):
        spread += counts[[transpose_id(c, -k, vocab) for c in range(vocab.n_id)]]
    out[:vocab.n_id] = (1.0 - p) * counts[:vocab.n_id] + (p / 12.0) * spread
    return out


def reference_calibration_ratios(train_dist, target_dist, vocab):
    train_dist = np.asarray(train_dist, dtype=np.float64)
    target_dist = np.asarray(target_dist, dtype=np.float64)
    ratios = {}
    for quality in vocab.qualities:
        ids = np.array([vocab.chord_id(root, quality) for root in range(12)])
        per_root = (target_dist[ids] + RATIO_EPS) / (train_dist[ids] + RATIO_EPS)
        ratios[quality] = float(per_root.mean())
    return ratios


def reference_apply_calibration(logits, ratios, vocab):
    out = np.array(logits, dtype=np.float64, copy=True)
    for quality in vocab.qualities:
        ids = [vocab.chord_id(root, quality) for root in range(12)]
        out[:, ids] += np.log(ratios[quality])
    return out


def reference_confusion_matrix(axis, songs_as_frames, vocab):
    n = len(vocab.qualities) + 2 if axis == "quality" else 14

    def index(chord_id):
        info = id_info(chord_id, vocab)
        if info in ("N", "X"):  # the axis ends with N, then X
            return n - 2 + "NX".index(info)
        return info[0] if axis == "root" else vocab.quality_index(info[1])

    matrix = np.zeros((n, n))
    for ref_ids, est_ids in songs_as_frames:
        for r, e in zip(ref_ids, est_ids):
            matrix[index(int(r)), index(int(e))] += 1
    return matrix


def reference_id_distribution(ids_per_song, vocab):
    counts = np.zeros(vocab.size)
    for ids in ids_per_song:
        for chord_id in ids:
            counts[chord_id] += 1
    total = counts.sum()
    return counts / total if total > 0 else counts


def _class_counts(rng, vocab):
    """Frame counts with empty classes, a dominant class and fractional mass."""
    counts = rng.integers(0, 400, vocab.size) * (rng.random(vocab.size) < 0.6)
    counts[rng.integers(vocab.size)] += 10_000
    return counts if rng.random() < 0.5 else counts * rng.random(vocab.size)


def _distribution(rng, vocab):
    dist = _class_counts(rng, vocab).astype(np.float64)
    return dist / dist.sum()


def _frame_songs(rng, vocab, n_songs):
    lengths = rng.integers(0, 300, n_songs)
    return [(rng.integers(0, vocab.size, n), rng.integers(0, vocab.size, n)) for n in lengths]


SEEDS = range(20)


class TestClassBookkeepingEqualsLoops:
    @pytest.mark.parametrize("vocab", VOCABS, ids=["170", "26"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_expected_counts(self, vocab, seed):
        rng = np.random.default_rng(seed)
        counts = _class_counts(rng, vocab)
        for p in (0.0, 0.5, 1.0, float(rng.random())):
            assert np.array_equal(expected_counts(counts, p, vocab),
                                  reference_expected_counts(counts, p, vocab))

    @pytest.mark.parametrize("vocab", VOCABS, ids=["170", "26"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_calibration(self, vocab, seed):
        rng = np.random.default_rng(seed)
        train, target = _distribution(rng, vocab), _distribution(rng, vocab)
        table = calibration_ratios(train, target, vocab)
        ratios = reference_calibration_ratios(train, target, vocab)
        assert table.ratios == ratios
        assert list(table.ratios) == list(vocab.qualities)
        logits = rng.normal(0.0, 3.0, (int(rng.integers(1, 50)), vocab.size))
        assert np.array_equal(apply_calibration(logits, table, vocab),
                              reference_apply_calibration(logits, ratios, vocab))

    @pytest.mark.parametrize("vocab", VOCABS, ids=["170", "26"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_confusion_matrix(self, vocab, seed):
        rng = np.random.default_rng(seed)
        songs = _frame_songs(rng, vocab, int(rng.integers(1, 6)))
        for axis in ("quality", "root"):
            expected = reference_confusion_matrix(axis, songs, vocab)
            assert np.array_equal(confusion_matrix(axis, songs, vocab), expected)

    @pytest.mark.parametrize("vocab", VOCABS, ids=["170", "26"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_id_distribution(self, vocab, seed):
        rng = np.random.default_rng(seed)
        songs = [ids for ids, _ in _frame_songs(rng, vocab, int(rng.integers(0, 6)))]
        assert np.array_equal(id_distribution(songs, vocab),
                              reference_id_distribution(songs, vocab))
