import copy
import pickle
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chordkit import metrics
from chordkit.annotate import fill_gaps
from chordkit.errors import IdOutOfRange, LengthMismatch, ZeroDefinedTime
from chordkit.harte import parse_chord, pitch_class_set
from chordkit.metrics import (MetricKind, TimedPath, Verdict, adjust_estimate,
                              class_wise_scores, compare_labels,
                              confusion_matrix, path_from_annotation,
                              path_from_frames, quality_axis, root_axis, wcsr)
from chordkit.vocab import check_ids, id_label, map_label, vocabulary_26, vocabulary_170

V = vocabulary_170()
V26 = vocabulary_26()


def cid(text):
    return map_label(parse_chord(text), V)


def cmp(kind, ref, est):
    return compare_labels(kind, cid(ref), cid(est), V)


class TestComparators:
    def test_ref_x_always_undefined(self):
        for kind in MetricKind:
            assert cmp(kind, "X", "C:maj") is Verdict.UNDEFINED

    def test_est_x_incorrect(self):
        for kind in (MetricKind.ACC, MetricKind.ROOT, MetricKind.THIRD,
                     MetricKind.MIREX):
            assert cmp(kind, "C:maj", "X") is Verdict.INCORRECT

    def test_acc_exact(self):
        assert cmp(MetricKind.ACC, "C:maj7", "C:maj7") is Verdict.CORRECT
        assert cmp(MetricKind.ACC, "C:maj7", "C:maj") is Verdict.INCORRECT
        assert cmp(MetricKind.ACC, "N", "N") is Verdict.CORRECT

    def test_root(self):
        assert cmp(MetricKind.ROOT, "C:maj", "C:min7") is Verdict.CORRECT
        assert cmp(MetricKind.ROOT, "C:maj", "G:maj") is Verdict.INCORRECT
        assert cmp(MetricKind.ROOT, "N", "N") is Verdict.CORRECT
        assert cmp(MetricKind.ROOT, "N", "C:maj") is Verdict.INCORRECT
        assert cmp(MetricKind.ROOT, "C:maj", "N") is Verdict.INCORRECT

    def test_third(self):
        # dominant seventh shares the major third
        assert cmp(MetricKind.THIRD, "C:maj", "C:7") is Verdict.CORRECT
        assert cmp(MetricKind.THIRD, "C:min", "C:min6") is Verdict.CORRECT
        assert cmp(MetricKind.THIRD, "C:maj", "C:min") is Verdict.INCORRECT
        # suspensions occupy different third slots (2 vs 5)
        assert cmp(MetricKind.THIRD, "C:sus2", "C:sus4") is Verdict.INCORRECT
        assert cmp(MetricKind.THIRD, "C:maj", "D:maj") is Verdict.INCORRECT

    def test_seventh_reference_restriction(self):
        for quality in ("dim", "aug", "min6", "maj6", "minmaj7", "dim7",
                        "hdim7", "sus2", "sus4"):
            assert cmp(MetricKind.SEVENTH, f"C:{quality}", "C:maj") is Verdict.UNDEFINED

    def test_seventh(self):
        assert cmp(MetricKind.SEVENTH, "C:maj", "C:maj") is Verdict.CORRECT
        assert cmp(MetricKind.SEVENTH, "C:7", "C:7") is Verdict.CORRECT
        assert cmp(MetricKind.SEVENTH, "C:7", "C:maj7") is Verdict.INCORRECT
        assert cmp(MetricKind.SEVENTH, "C:maj", "C:aug") is Verdict.CORRECT
        # the sixth counts as a seventh-slot tone, so maj6 != maj here
        assert cmp(MetricKind.SEVENTH, "C:maj", "C:maj6") is Verdict.INCORRECT
        assert cmp(MetricKind.SEVENTH, "N", "N") is Verdict.CORRECT
        assert cmp(MetricKind.SEVENTH, "C:maj", "X") is Verdict.INCORRECT

    def test_mirex(self):
        # relative chords share four pitch classes
        assert cmp(MetricKind.MIREX, "G:maj6", "E:min7") is Verdict.CORRECT
        # C:maj and A:min share only {0, 4}
        assert cmp(MetricKind.MIREX, "C:maj", "A:min") is Verdict.INCORRECT
        assert cmp(MetricKind.MIREX, "N", "N") is Verdict.CORRECT
        assert cmp(MetricKind.MIREX, "N", "C:maj") is Verdict.INCORRECT

    def test_mirex_against_independent_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            ref, est = int(rng.integers(0, 170)), int(rng.integers(0, 170))
            got = compare_labels(MetricKind.MIREX, ref, est, V)
            if ref == V.x_id:
                assert got is Verdict.UNDEFINED
                continue
            if ref == V.n_id or est == V.n_id:
                expect = ref == est
            elif est == V.x_id:
                expect = False
            else:
                shared = pitch_class_set(id_label(ref, V)) & pitch_class_set(id_label(est, V))
                expect = len(shared) >= 3
            assert got is (Verdict.CORRECT if expect else Verdict.INCORRECT)

    def test_majmin(self):
        assert cmp(MetricKind.MAJMIN, "C:maj7", "C:maj") is Verdict.CORRECT
        assert cmp(MetricKind.MAJMIN, "C:min7", "C:minmaj7") is Verdict.CORRECT
        assert cmp(MetricKind.MAJMIN, "C:maj", "C:min") is Verdict.INCORRECT
        # reference reduces to X -> undefined
        assert cmp(MetricKind.MAJMIN, "C:hdim7", "C:maj") is Verdict.UNDEFINED
        # estimate reduces to X -> incorrect
        assert cmp(MetricKind.MAJMIN, "C:maj", "C:dim") is Verdict.INCORRECT
        assert cmp(MetricKind.MAJMIN, "N", "N") is Verdict.CORRECT


class TestPaths:
    def test_path_from_frames_merges_runs(self):
        path = path_from_frames([3, 3, 5, 5, 5, 3], hop=0.5)
        assert path.intervals == ((0.0, 1.0, 3), (1.0, 2.5, 5), (2.5, 3.0, 3))

    def test_path_from_annotation(self):
        ann = fill_gaps([(0.0, 1.0, parse_chord("C:maj"))], duration=2.0)
        path = path_from_annotation(ann, V)
        assert path.intervals == ((0.0, 1.0, 0), (1.0, 2.0, V.n_id))

    def test_duration(self):
        assert TimedPath(intervals=((0.0, 2.5, 0),)).duration == 2.5

    @pytest.mark.parametrize("intervals", [
        ((0.0, 1.0, 3), (1.0, 2.5, 5), (2.5, 3.0, 169)),
        ((0.5, 0.75, 0),),
        (),
    ], ids=["three", "one", "empty"])
    def test_columns_are_the_intervals_read_only(self, intervals):
        path = TimedPath(intervals=intervals)
        start, end, ids = path.columns
        table = np.array(intervals, dtype=np.float64).reshape(-1, 3)
        assert np.array_equal(start, table[:, 0]) and np.array_equal(end, table[:, 1])
        assert np.array_equal(ids, table[:, 2]) and ids.dtype == np.int64
        assert path.columns is path.columns  # built once
        for column in path.columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[:] = 0

    @pytest.mark.parametrize("intervals", [
        ((0.0, 1.0, 3), (1.0, 2.5, 5), (2.5, 3.0, 169)),
        (),
    ], ids=["three", "empty"])
    def test_array_rows_make_the_same_path(self, intervals):
        path = TimedPath(np.array(intervals, dtype=np.float64).reshape(-1, 3))
        assert path == TimedPath(intervals=intervals)
        assert hash(path) == hash(TimedPath(intervals=intervals))
        assert path.intervals == intervals
        assert all(type(s) is float and type(c) is int for s, _, c in path.intervals)
        assert path.duration == TimedPath(intervals=intervals).duration

    def test_columns_leave_equality_and_hash_alone(self):
        intervals = ((0.0, 1.0, 3), (1.0, 2.5, 5))
        built, fresh = TimedPath(intervals=intervals), TimedPath(intervals=intervals)
        before = hash(built)
        built.columns
        assert built == fresh and hash(built) == before == hash(fresh)
        assert built != TimedPath(intervals=intervals[:1])
        assert len({built, fresh}) == 1

    @pytest.mark.parametrize("est,expected", [
        # ends early: N to the reference's end
        (((0.0, 5.0, 3),), ((1.0, 5.0, 3), (5.0, 9.0, "N"))),
        # starts late and runs past: N from the reference's start, cut at its end
        (((2.0, 4.0, 3), (4.0, 12.0, 7)), ((1.0, 2.0, "N"), (2.0, 4.0, 3), (4.0, 9.0, 7))),
        # covers exactly the reference's span: unchanged
        (((1.0, 9.0, 3),), ((1.0, 9.0, 3),)),
        # nothing inside the span: all N
        (((9.0, 11.0, 3),), ((1.0, 9.0, "N"),)),
        ((), ((1.0, 9.0, "N"),)),
    ], ids=["ends-early", "starts-late-runs-past", "exact", "outside", "empty"])
    def test_adjust_estimate_to_reference_span(self, est, expected):
        ref = TimedPath(intervals=((1.0, 4.0, 0), (4.0, 9.0, 1)))
        adjusted = adjust_estimate(ref, TimedPath(intervals=est), V)
        assert adjusted.intervals == tuple((s, e, V.n_id if c == "N" else c)
                                           for s, e, c in expected)

    def test_adjust_estimate_to_empty_reference_is_empty(self):
        est = TimedPath(intervals=((0.0, 5.0, 3),))
        assert adjust_estimate(TimedPath(intervals=()), est, V) == TimedPath(intervals=())

    def test_adjusted_early_estimate_scores_missing_time_as_wrong(self):
        ref = TimedPath(intervals=((0.0, 10.0, cid("C:maj")),))
        est = TimedPath(intervals=((0.0, 5.0, cid("C:maj")),))
        assert wcsr(MetricKind.ROOT, [(ref, est)], V) == pytest.approx(100.0)
        assert wcsr(MetricKind.ROOT, [(ref, adjust_estimate(ref, est, V))], V) \
            == pytest.approx(50.0)


def paths(ref_rows, est_rows):
    ref = TimedPath(intervals=tuple((s, e, cid(t)) for s, e, t in ref_rows))
    est = TimedPath(intervals=tuple((s, e, cid(t)) for s, e, t in est_rows))
    return [(ref, est)]


class TestWcsr:
    def test_hand_example(self):
        songs = paths(
            [(0.0, 4.0, "C:maj"), (4.0, 8.0, "N")],
            [(0.0, 2.0, "C:maj"), (2.0, 8.0, "G:maj")],
        )
        assert wcsr(MetricKind.ACC, songs, V) == pytest.approx(25.0)

    def test_ref_x_excluded_from_defined_time(self):
        songs = paths(
            [(0.0, 2.0, "C:maj"), (2.0, 6.0, "X")],
            [(0.0, 6.0, "C:maj")],
        )
        assert wcsr(MetricKind.ACC, songs, V) == pytest.approx(100.0)

    def test_misaligned_boundaries(self):
        songs = paths(
            [(0.0, 3.0, "C:maj"), (3.0, 6.0, "G:maj")],
            [(0.0, 4.0, "C:maj"), (4.0, 6.0, "G:maj")],
        )
        # wrong only on [3, 4)
        assert wcsr(MetricKind.ACC, songs, V) == pytest.approx(100.0 * 5.0 / 6.0)

    def test_multiple_songs_time_weighted(self):
        songs = paths([(0.0, 1.0, "C:maj")], [(0.0, 1.0, "C:maj")]) + \
            paths([(0.0, 3.0, "C:maj")], [(0.0, 3.0, "G:maj")])
        assert wcsr(MetricKind.ACC, songs, V) == pytest.approx(25.0)

    def test_identity_is_hundred(self):
        songs = paths([(0.0, 2.0, "C:maj"), (2.0, 3.0, "N")],
                      [(0.0, 2.0, "C:maj"), (2.0, 3.0, "N")])
        for kind in MetricKind:
            assert wcsr(kind, songs, V) == pytest.approx(100.0)

    def test_all_undefined_raises(self):
        songs = paths([(0.0, 1.0, "X")], [(0.0, 1.0, "C:maj")])
        with pytest.raises(ZeroDefinedTime):
            wcsr(MetricKind.ACC, songs, V)

    def test_frame_path_equals_annotation_path(self):
        # frame-aligned segments give identical scores either way
        hop = 0.5
        ids = [cid("C:maj")] * 4 + [cid("G:maj")] * 4
        est = path_from_frames(ids, hop)
        ann = fill_gaps([(0.0, 2.0, parse_chord("C:maj")),
                         (2.0, 4.0, parse_chord("G:maj"))])
        ref = path_from_annotation(ann, V)
        assert wcsr(MetricKind.ACC, [(ref, est)], V) == pytest.approx(100.0)


class TestClassWise:
    def test_table_mean_median(self):
        songs = paths(
            [(0.0, 2.0, "C:maj"), (2.0, 4.0, "G:maj"), (4.0, 6.0, "A:min")],
            [(0.0, 2.0, "C:maj"), (2.0, 3.0, "G:maj"), (3.0, 6.0, "A:min")],
        )
        mean, median, table = class_wise_scores(MetricKind.ACC, songs, V)
        assert table[cid("C:maj")] == pytest.approx(100.0)
        assert table[cid("G:maj")] == pytest.approx(50.0)
        assert table[cid("A:min")] == pytest.approx(100.0)
        assert mean == pytest.approx(250.0 / 3.0)
        assert median == pytest.approx(100.0)

    def test_zero_time_classes_excluded(self):
        songs = paths([(0.0, 1.0, "C:maj")], [(0.0, 1.0, "C:maj")])
        _, _, table = class_wise_scores(MetricKind.ACC, songs, V)
        assert set(table) == {cid("C:maj")}

    def test_overall_decomposition(self):
        # overall WCSR equals defined-time-weighted mean of class scores
        rng = np.random.default_rng(4)
        hop = 0.3
        ref_ids = rng.integers(0, 170, size=60)
        est_ids = rng.integers(0, 170, size=60)
        songs = [(path_from_frames(ref_ids, hop), path_from_frames(est_ids, hop))]
        from chordkit.metrics import _accumulate
        correct, defined, per_class = _accumulate(MetricKind.ROOT, songs, V)
        recon = sum(c for c, _ in per_class.values())
        assert recon == pytest.approx(correct, abs=1e-9)
        assert sum(z for _, z in per_class.values()) == pytest.approx(defined, abs=1e-9)


class TestConfusion:
    def test_quality_axis_counts(self):
        ref = [cid("C:maj"), cid("C:maj"), cid("N")]
        est = [cid("G:maj"), cid("C:min"), cid("N")]
        m = confusion_matrix("quality", [(ref, est)], V)
        q = quality_axis(V)
        maj, mn, n = q.index("maj"), q.index("min"), q.index("N")
        assert m[maj, maj] == 1 and m[maj, mn] == 1 and m[n, n] == 1
        assert m.sum() == 3

    def test_root_axis_shape(self):
        m = confusion_matrix("root", [([cid("C:maj")], [cid("X")])], V)
        assert m.shape == (14, 14)
        assert m[0, 13] == 1
        assert len(root_axis()) == 14

    def test_row_normalize(self):
        ref = [0, 0, 0, 0]
        est = [0, 0, 1, 2]
        m = confusion_matrix("quality", [(ref, est)], V, row_normalize=True)
        assert m[0].sum() == pytest.approx(1.0)
        # untouched rows stay all-zero
        assert m[5].sum() == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_matrix("root", [([0, 1], [0])], V)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            confusion_matrix("bass", [], V)


class TestFrameSampling:
    def test_frame_scores_approach_continuous(self):
        # sampling the comparator on a fine frame grid converges to the
        # interval-intersection score
        rng = np.random.default_rng(7)
        hop = 0.023
        segs, t = [], 0.0
        while t < 60.0:
            d = float(rng.uniform(0.8, 4.0))
            segs.append((t, min(t + d, 60.0), int(rng.integers(0, 170))))
            t += d
        ref = TimedPath(intervals=tuple(segs))
        est_ids = [int(rng.integers(0, 170)) for _ in range(int(60.0 / hop) + 1)]
        est = path_from_frames(est_ids, hop)
        continuous = wcsr(MetricKind.ROOT, [(ref, est)], V)

        fine = hop / 8
        n = int(60.0 / fine)
        correct = defined = 0
        ref_idx = 0
        for i in range(n):
            mid = (i + 0.5) * fine
            while ref.intervals[ref_idx][1] <= mid:
                ref_idx += 1
            r = ref.intervals[ref_idx][2]
            e = est_ids[min(int(mid / hop), len(est_ids) - 1)]
            v = compare_labels(MetricKind.ROOT, r, e, V)
            if v is Verdict.UNDEFINED:
                continue
            defined += 1
            correct += v is Verdict.CORRECT
        sampled = 100.0 * correct / defined
        assert abs(sampled - continuous) < 0.2


# --- one refinement per pair against the per-call formula it replaced ---

def percall_intersect(ref, est):
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


def percall_pieces(kind, songs, vocab):
    """Every pair intersected again on each call, as scoring did before refinements."""
    no_pieces = (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    pieces = (percall_intersect(ref.columns, est.columns) for ref, est in songs)
    dur, ref, est = (np.concatenate(column) for column in zip(no_pieces, *pieces))
    verdict = vocab.tables.verdicts[kind.value][check_ids(ref, vocab), check_ids(est, vocab)]
    defined = verdict >= 0
    if not defined.any():
        raise ZeroDefinedTime("comparator undefined everywhere")
    return dur[defined], ref[defined], verdict[defined] == 1


def percall_total(durations):
    return float(np.cumsum(durations)[-1]) if len(durations) else 0.0


def percall_accumulate(kind, songs, vocab):
    dur, ref, correct = percall_pieces(kind, songs, vocab)
    right = np.bincount(ref, dur * correct, vocab.size).tolist()
    defined = np.bincount(ref, dur, vocab.size).tolist()
    per_class = {c: [right[c], defined[c]] for c in np.unique(ref).tolist()}
    return percall_total(dur[correct]), percall_total(dur), per_class


def percall_wcsr(kind, songs, vocab):
    dur, _, correct = percall_pieces(kind, songs, vocab)
    return 100.0 * percall_total(dur[correct]) / percall_total(dur)


def percall_class_wise(kind, songs, vocab):
    _, _, per_class = percall_accumulate(kind, songs, vocab)
    table = {c: 100.0 * corr / z for c, (corr, z) in sorted(per_class.items()) if z > 0}
    scores = list(table.values())
    return statistics.mean(scores), statistics.median(scores), table


SCORERS = ((wcsr, percall_wcsr), (metrics._accumulate, percall_accumulate),
           (class_wise_scores, percall_class_wise))


def outcome(score, *args):
    """A score's value, or the type of the scoring error it raised."""
    try:
        return score(*args)
    except (ZeroDefinedTime, IdOutOfRange) as exc:
        return type(exc)


def fresh(songs):
    """New path objects with the same rows, so nothing is cached on them."""
    return [(TimedPath(ref.intervals), TimedPath(est.intervals)) for ref, est in songs]


def assert_scores_equal_percall(songs, vocab, kinds=tuple(MetricKind)):
    for kind in kinds:
        for score, percall in SCORERS:
            assert outcome(score, kind, songs, vocab) == outcome(percall, kind, fresh(songs), vocab)


@st.composite
def gappy_paths(draw, vocab):
    """A path with gaps, N and X, its ids drawn from ``vocab``."""
    chord = st.integers(0, vocab.n_id - 1)
    chord_id = st.one_of(chord, chord, st.sampled_from([vocab.n_id, vocab.x_id]))
    rows, t = [], draw(st.sampled_from([0.0, 0.0, 0.5]))
    for gap, length, cid_ in draw(st.lists(st.tuples(
            st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.5]), st.floats(0.01, 6.0), chord_id),
            max_size=12)):
        rows.append((t + gap, t + gap + length, cid_))
        t += gap + length
    return TimedPath(tuple(rows))


@st.composite
def scored_songs(draw, vocab):
    pairs = st.tuples(gappy_paths(vocab), gappy_paths(vocab))
    return draw(st.lists(pairs, min_size=1, max_size=3))


class TestRefinement:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_scored_once_equals_percall(self, data):
        vocab = data.draw(st.sampled_from([V26, V]))
        songs = data.draw(scored_songs(vocab))
        kind = data.draw(st.sampled_from(list(MetricKind)))
        for score, percall in SCORERS:
            once = fresh(songs)
            assert outcome(score, kind, once, vocab) == outcome(percall, kind, fresh(songs), vocab)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_scored_many_times_and_pooled_equals_percall(self, data):
        vocab = data.draw(st.sampled_from([V26, V]))
        songs = data.draw(scored_songs(vocab))
        kinds = data.draw(st.permutations(list(MetricKind)))
        for song in songs:
            for _ in range(2):
                assert_scores_equal_percall([song], vocab, kinds)
        for _ in range(2):
            assert_scores_equal_percall(songs, vocab, kinds)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_estimate_scored_elsewhere_first_equals_percall(self, data):
        vocab = data.draw(st.sampled_from([V26, V]))
        songs = data.draw(scored_songs(vocab))
        other_ref = data.draw(gappy_paths(vocab))
        other_vocab = V26 if vocab is V else V
        kinds = data.draw(st.permutations(list(MetricKind)))
        (ref, est), rest = songs[0], songs[1:]
        for first in ([(other_ref, est)], vocab), ([(ref, est)], other_vocab):
            assert_scores_equal_percall(*first, kinds)
            assert_scores_equal_percall(songs, vocab, kinds)
            assert_scores_equal_percall([(ref, est)], vocab, kinds)
        # pooled first, then the estimate under the other vocabulary and reference
        assert_scores_equal_percall(rest + [(other_ref, est)], other_vocab, kinds)
        assert_scores_equal_percall(songs, vocab, kinds)

    def test_id_outside_a_vocabulary_raises_with_another_cached(self):
        ref = TimedPath(((0.0, 2.0, 100), (2.0, 3.0, V.n_id)))
        est = TimedPath(((0.0, 2.0, 100), (2.0, 3.0, 5)))
        assert wcsr(MetricKind.ACC, [(ref, est)], V) == pytest.approx(200.0 / 3.0)
        cached = est.refined
        assert cached is not None
        for scored in ([(ref, est)], [(TimedPath(((0.0, 3.0, 5),)), est)]):
            with pytest.raises(IdOutOfRange, match=r"id 100 outside \[0, 26\)"):
                wcsr(MetricKind.ACC, scored, V26)
        # a refusal caches nothing
        assert est.refined is cached
        assert wcsr(MetricKind.ACC, [(ref, est)], V) == pytest.approx(200.0 / 3.0)

    def test_one_intersection_per_pair(self, monkeypatch):
        calls = []
        intersect = metrics.intersect

        def counted(ref, est):
            calls.append(1)
            return intersect(ref, est)

        monkeypatch.setattr(metrics, "intersect", counted)
        songs = paths([(0.0, 2.0, "C:maj"), (2.0, 4.0, "G:7")],
                      [(0.0, 3.0, "C:maj"), (3.0, 4.0, "G:maj")])
        for kind in MetricKind:
            wcsr(kind, songs, V)
        assert len(calls) == 1
        class_wise_scores(MetricKind.ACC, songs + songs, V)
        assert len(calls) == 1
        wcsr(MetricKind.ACC, fresh(songs), V)
        assert len(calls) == 2

    def test_pieces_are_read_only_and_cached_on_the_estimate(self):
        [(ref, est)] = paths([(0.0, 2.0, "C:maj"), (2.0, 4.0, "X")],
                             [(0.0, 3.0, "C:min"), (3.0, 4.0, "N")])
        pieces = metrics.refinement(ref, est, V)
        assert metrics.refinement(ref, est, V) is pieces
        assert est.refined == (ref, V.tables, pieces) and ref.refined is None
        dur, ref_ids, verdicts = pieces
        assert dur.tolist() == [2.0, 1.0, 1.0] and ref_ids.tolist() == [0, V.x_id, V.x_id]
        assert verdicts.shape == (len(MetricKind), 3) and verdicts.dtype == np.int8
        for row, kind in zip(verdicts, MetricKind):
            assert row.tolist() == [compare_labels(kind, r, e, V).value for r, e in
                                    ((0, cid("C:min")), (V.x_id, cid("C:min")), (V.x_id, V.n_id))]
        for array in pieces:
            with pytest.raises(ValueError):
                array[...] = 0

    def test_cache_leaves_equality_hash_copies_and_pickles_alone(self):
        [(ref, est)] = paths([(0.0, 2.0, "C:maj"), (2.0, 4.0, "G:maj")],
                             [(0.0, 3.0, "C:maj"), (3.0, 4.0, "A:min")])
        unscored = TimedPath(est.intervals)
        before = pickle.dumps(est)
        for kind in MetricKind:
            wcsr(kind, [(ref, est)], V)
        assert est.refined is not None
        assert est == unscored and hash(est) == hash(unscored)
        assert pickle.dumps(est) == before == pickle.dumps(unscored)
        for copied in (copy.deepcopy(est), copy.copy(est), pickle.loads(pickle.dumps(est))):
            assert copied == est and hash(copied) == hash(est)
            assert copied.refined is None
            assert all(not column.flags.writeable for column in copied.columns)
            assert wcsr(MetricKind.ACC, [(ref, copied)], V) == wcsr(MetricKind.ACC, [(ref, est)], V)
