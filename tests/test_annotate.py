import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from chordkit import harte
from chordkit.annotate import (DEFAULT_HOP, TIME_DECIMALS, TIME_EPS, TIME_STEP, Annotation,
                               FrameGrid, alignment_lag, feature_derivative_signal, fill_gaps,
                               frame_labels, grid_for, interval_labels, is_time_axis,
                               load_annotation, n_frames_for, save_annotation,
                               segment_index, time_axis_fault, transpose_annotation)
from chordkit.errors import (ChordkitError, DegenerateSignal, MalformedLine,
                             NonMonotoneTimes)
from chordkit.harte import parse_chord
from chordkit.vocab import vocabulary_170

V170 = vocabulary_170()


def make_ann(rows, duration=None):
    segments = [(s, e, parse_chord(text)) for s, e, text in rows]
    return fill_gaps(segments, duration=duration)


def reference_label_at(ann, t):
    """Label of the segment whose half-open [start, end) holds t, by a linear scan."""
    for start, end, label in ann.segments:
        if start <= t < end:
            return label
    return harte.NO_CHORD


class TestFrameCount:
    def test_three_minutes(self):
        assert n_frames_for(180.0) == 1938

    def test_short(self):
        # 44100/4096 * 1 = 10.766..., rounds up to 11
        assert n_frames_for(1.0) == 11

    @given(st.one_of(st.floats(0.0, 3600.0),
                     st.integers(0, 50_000).map(lambda k: k * 4096 / 44100)))
    @example(13 * 4096 / 44100)  # ceil(44100 / 4096 * d) gives 14 frames here
    def test_one_rule_with_grid_for(self, duration):
        assert n_frames_for(duration) == grid_for(duration).n_frames

    @pytest.mark.parametrize("duration, hop", [
        (1.0, 0.0), (1.0, -0.1), (1.0, math.inf), (1.0, math.nan),
        (-5.0, DEFAULT_HOP), (math.inf, DEFAULT_HOP), (math.nan, DEFAULT_HOP)])
    def test_grid_rejects_a_bad_hop_or_duration(self, duration, hop):
        with pytest.raises(ValueError):
            grid_for(duration, hop)

    @given(st.floats(0.01, 600.0))
    def test_grid_covers_duration(self, duration):
        grid = grid_for(duration)
        assert grid.n_frames * grid.hop >= duration - 1e-9
        assert (grid.n_frames - 1) * grid.hop < duration


def numpy_time_axis(intervals) -> bool:
    """The vectorised form of the time-axis rule, kept as a reference."""
    times = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    return bool(np.isfinite(times).all() and (times[:1, 0] >= 0).all()
                and (times[:, 1] > times[:, 0]).all()
                and (np.abs(times[1:, 0] - times[:-1, 1]) <= TIME_EPS).all())


class TestTimeAxis:
    @pytest.mark.parametrize("intervals, bad", [
        ([(0.0, 1.0), (1.0, math.nan)], 1),
        ([(0.0, 1.0), (1.0, 2.0), (math.inf, math.inf)], 2),
        ([(0.0, math.inf)], 0),
        ([(math.nan, 1.0)], 0),
        ([(-1.0, 0.5), (0.5, 1.0)], 0),
        ([(0.0, 1.0), (1.0, 1.0), (1.0, 2.0)], 1),
        ([(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)], 2),
        ([(0.0, 1.0), (1.0 + 3 * TIME_EPS, 2.0)], 1),
        ([(0.0, 1.0), (1.0, 2.0), (2.0 - 3 * TIME_EPS, 3.0)], 2),
    ], ids=["nan", "inf", "inf-end", "nan-start", "negative-first-start", "empty",
            "reversed", "gap", "overlap"])
    def test_fault_is_the_first_bad_interval(self, intervals, bad):
        assert time_axis_fault(intervals) == bad
        assert not is_time_axis(intervals)

    @pytest.mark.parametrize("intervals", [
        [], [(0.0, 1.0)], [(0.5, 1.0), (1.0, 2.0)],
        [(0.0, 1.0), (1.0 + 0.5 * TIME_EPS, 2.0), (2.0 - 0.5 * TIME_EPS, 3.0)],
    ], ids=["none", "one", "late-start", "within-eps"])
    def test_no_fault_on_a_time_axis(self, intervals):
        assert time_axis_fault(intervals) is None
        assert is_time_axis(intervals)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_vectorised_rule(self, data):
        """Random rows: non-finite and negative times, and starts moved off
        the previous end by a gap or an overlap on either side of TIME_EPS."""
        n = data.draw(st.integers(0, 6))
        ends = np.cumsum(data.draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n)))
        offsets = st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3])
        times = np.column_stack((np.concatenate(([0.0], ends[:-1])), ends)) if n else \
            np.zeros((0, 2))
        for i in range(n):
            times[i, 0] += data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(offsets) * TIME_EPS
        odd = st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 0.0])
        for _ in range(data.draw(st.integers(0, 2)) if n else 0):
            times[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 1))] = data.draw(odd)
        assert is_time_axis(times) == is_time_axis(times.tolist()) == numpy_time_axis(times)


class TestAnnotation:
    def test_interior_gap_rejected(self):
        with pytest.raises(NonMonotoneTimes, match=r"\(1.5, 2.0\) at segment 1$"):
            Annotation(segments=((0.0, 1.0, harte.NO_CHORD),
                                 (1.5, 2.0, harte.NO_CHORD)), duration=2.0)

    @pytest.mark.parametrize("gap", [0.4, 0.9], ids=["0.4-step", "0.9-step"])
    def test_gap_within_a_step_is_joined(self, gap):
        ann = make_ann([(0.0, 1.0, "C:maj"), (1.0 + gap * TIME_STEP, 2.0, "G:maj")])
        assert [(s, e) for s, e, _ in ann.segments] == [(0.0, 1.0), (1.0, 2.0)]

    def test_gap_of_two_steps_is_filled(self):
        ann = make_ann([(0.0, 1.0, "C:maj"), (1.0 + 2 * TIME_STEP, 2.0, "G:maj")])
        assert [(s, e, harte.format_chord(l)) for s, e, l in ann.segments] == [
            (0.0, 1.0, "C:maj"), (1.0, 1.0 + 2 * TIME_STEP, "N"),
            (1.0 + 2 * TIME_STEP, 2.0, "G:maj")]

    def test_gap_filling(self):
        ann = make_ann([(1.0, 2.0, "C:maj")], duration=3.0)
        labels = [harte.format_chord(l) for _, _, l in ann.segments]
        assert labels == ["N", "C:maj", "N"]
        assert ann.segments[0][:2] == (0.0, 1.0)
        assert ann.segments[2][:2] == (2.0, 3.0)

    def test_segment_index(self):
        ann = make_ann([(0.0, 1.0, "C:maj"), (1.0, 2.0, "G:maj")])
        # a boundary time belongs to the segment starting there; past the
        # last segment no segment holds t
        assert segment_index(ann, [0.5, 1.0, 5.0]).tolist() == [0, 1, -1]

    def test_overlap_rejected(self):
        with pytest.raises(NonMonotoneTimes):
            Annotation(segments=((0.0, 2.0, harte.NO_CHORD),
                                 (1.0, 3.0, harte.NO_CHORD)), duration=3.0)

    def test_zero_length_rejected(self):
        with pytest.raises(NonMonotoneTimes):
            Annotation(segments=((1.0, 1.0, harte.NO_CHORD),), duration=2.0)

    def test_duration_before_last_end_rejected(self):
        with pytest.raises(NonMonotoneTimes):
            Annotation(segments=((0.0, 2.0, harte.NO_CHORD),), duration=1.5)

    def test_fill_gaps_refuses_duration_before_last_end(self):
        # within 1e-6 the stated duration is rounding and gives way
        assert make_ann([(0.0, 2.0, "C:maj")], duration=2.0 - 5e-7).duration == 2.0
        with pytest.raises(NonMonotoneTimes):
            make_ann([(0.0, 2.0, "C:maj")], duration=1.5)

    @pytest.mark.parametrize("offset", [4e-7, 9e-7, -4e-7, -9e-7],
                             ids=["0.4-step-above", "0.9-step-above", "0.4-step-below",
                                  "0.9-step-below"])
    def test_stated_duration_within_a_step_is_the_last_end(self, offset):
        """A label file holds times to TIME_STEP: no N tail shorter than it."""
        ann = make_ann([(0.0, 2.0, "C:maj")], duration=2.0 + offset)
        assert ann.duration == 2.0
        assert [(s, e) for s, e, _ in ann.segments] == [(0.0, 2.0)]

    def test_stated_duration_more_than_a_step_past_the_end_gets_an_n_tail(self):
        ann = make_ann([(0.0, 2.0, "C:maj")], duration=2.0 + 2 * TIME_STEP)
        assert ann.duration == 2.0 + 2 * TIME_STEP
        assert ann.segments[-1] == (2.0, 2.0 + 2 * TIME_STEP, harte.NO_CHORD)

    def test_stated_duration_more_than_a_step_before_the_end_rejected(self):
        with pytest.raises(NonMonotoneTimes,
                           match=r"^duration 1.999998 shorter than last segment end 2.0$"):
            make_ann([(0.0, 2.0, "C:maj")], duration=1.999998)

    def test_transpose(self):
        ann = make_ann([(0.0, 1.0, "A:min7")])
        up = transpose_annotation(ann, 3)
        assert harte.format_chord(up.segments[0][2]) == "C:min7"


class TestFileIO:
    def test_round_trip(self, tmp_path):
        ann = make_ann([(0.0, 1.5, "C:maj"), (1.5, 3.0, "A:hdim7/5")])
        path = tmp_path / "song.tsv"
        save_annotation(ann, path)
        loaded = load_annotation(path)
        assert [(s, e, harte.format_chord(l)) for s, e, l in loaded.segments] == \
            [(s, e, harte.format_chord(l)) for s, e, l in ann.segments]

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_text("0.0\t1.0\tC:maj\n\n \t\n1.0\t2.0\tG:maj\n", encoding="utf-8")
        assert [(s, e) for s, e, _ in load_annotation(path).segments] == [(0.0, 1.0), (1.0, 2.0)]
        path.write_text("0.0\t1.0\tC:maj\n\n1.0\t2.0\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            load_annotation(path)
        assert exc.value.line_no == 3

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t1.0\tC:maj\n1.0\t2.0\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            load_annotation(path)
        assert exc.value.line_no == 2

    def test_bad_label_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t1.0\tH:maj\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            load_annotation(path)
        assert exc.value.line_no == 1

    def test_degree_without_pitch_class_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t1.0\tC:maj\n1.0\t2.0\tC:maj(8)\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            load_annotation(path)
        assert exc.value.line_no == 2

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1.0\t0.5\tC:maj\n", encoding="utf-8")
        with pytest.raises(NonMonotoneTimes):
            load_annotation(path)

    def test_negative_start_named_as_such(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("-1.0\t0.5\tC:maj\n0.5\t1.0\tG:maj\n", encoding="utf-8")
        with pytest.raises(NonMonotoneTimes, match=r"^line 1: start -1.0 is negative$"):
            load_annotation(path)

    @pytest.mark.parametrize("start, end", [("1.0", "nan"), ("1.0", "inf"), ("nan", "2.0"),
                                            ("-inf", "2.0"), ("inf", "inf")])
    def test_non_finite_time_reported_with_line(self, tmp_path, start, end):
        path = tmp_path / "bad.tsv"
        path.write_text(f"0.0\t1.0\tC:maj\n{start}\t{end}\tG:maj\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            load_annotation(path)
        assert exc.value.line_no == 2

    def test_invalid_utf8_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"0.0\t1.0\tC:maj\n1.0\t2.0\tG:maj\n2.0\t3.0\t\xff\n")
        with pytest.raises(MalformedLine) as exc:
            load_annotation(path)
        assert exc.value.line_no == 3

    def test_line_endings_as_in_text_mode(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(b"0.0\t1.0\tC:maj\r\n1.0\t2.0\tG:maj\r1.0\t0.5\tC:maj")
        with pytest.raises(NonMonotoneTimes, match="line 3"):
            load_annotation(path)

    @pytest.mark.parametrize("rows", [
        [(0.0, 4e-7, "B:maj7"), (4e-7, 1.0, "C:maj")],
        [(0.0, 1.8715922, "C:maj"), (1.8715922, 1.8715923, "B:min7")],
        # within TIME_EPS of the previous end, but a whole step before it once written
        [(0.0, 1.0000005003, "C:maj"), (1.0000004998, 2.0, "G:maj")],
    ], ids=["rounds-to-nothing-at-0", "rounds-to-nothing-at-end", "overlaps-once-written"])
    def test_segment_that_would_not_load_is_refused_and_nothing_written(self, tmp_path, rows):
        path = tmp_path / "song.tsv"
        with pytest.raises(NonMonotoneTimes, match="does not load"):
            save_annotation(make_ann(rows), path)
        assert not path.exists()

    def test_times_carry_the_label_file_decimals(self, tmp_path):
        save_annotation(make_ann([(0.0, 1.0 / 3.0, "C:maj"), (1.0 / 3.0, 2.0, "N")]),
                        tmp_path / "song.tsv")
        assert (tmp_path / "song.tsv").read_text().split("\t")[:2] == \
            ["0." + "0" * TIME_DECIMALS, "0." + "3" * TIME_DECIMALS]

    @pytest.mark.parametrize("text, line_no", [
        ("0.0\t0.0000004\tC:maj\n0.0000004\t10.0\tG:maj\n", 1),
        ("0\t1.0000001\tC:maj\n1.0000001\t1.0000004\tN\n1.0000004\t2\tG:maj\n", 2),
        ("0\t2\tC:maj\n2\t2.00000049\tG:maj\n", 2),
    ], ids=["at-0", "inside", "at-end"])
    def test_segment_empty_at_the_file_decimals_refused_with_its_line(self, tmp_path, text,
                                                                      line_no):
        """What save_annotation could not write back does not load."""
        path = tmp_path / "song.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(NonMonotoneTimes, match=f"^line {line_no}: .* at {TIME_DECIMALS} "
                                                   f"decimals$"):
            load_annotation(path)

    def test_segment_shorter_than_a_step_that_spans_one_loads(self, tmp_path):
        path = tmp_path / "song.tsv"
        path.write_text("0\t1.0000004\tN\n1.0000004\t1.0000006\tC:maj\n"
                        "1.0000006\t2\tG:maj\n", encoding="utf-8")
        assert [(s, e) for s, e, _ in load_annotation(path).segments] == \
            [(0.0, 1.0000004), (1.0000004, 1.0000006), (1.0000006, 2.0)]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_what_loads_is_written_and_loads_back(self, tmp_path, data):
        """Label text whose times carry 0-9 decimals either is refused, at the
        first line empty at TIME_DECIMALS decimals, or loads, saves and loads
        back as its segments rounded to TIME_DECIMALS decimals."""
        steps = data.draw(st.lists(st.one_of(st.integers(1, 3000), st.integers(1, 3 * 10**9)),
                                   max_size=8))
        # boundaries in nanoseconds, each cut to its own number of decimals
        exact, ns, texts = 0, [0], ["0"]
        for step in steps:
            decimals = data.draw(st.integers(0, 9))
            unit = 10 ** (9 - decimals)
            exact += step
            ns.append(exact // unit * unit)
            whole, frac = divmod(ns[-1], 10**9)
            texts.append(f"{whole}.{frac // unit:0{decimals}d}" if decimals else f"{whole}")
        lines = []
        for i in range(len(steps)):
            # a gap is left out only where its N filler is a whole step long at
            # any rounding; a shorter one is written as a line
            if ns[i + 1] - ns[i] >= 2000 and data.draw(st.booleans()):
                continue
            label = data.draw(st.sampled_from(["C:maj", "A:min7", "N", "G:7(b9)"]))
            lines.append((texts[i], texts[i + 1], label))
        path = tmp_path / "song.tsv"
        path.write_text("".join(f"{a}\t{b}\t{c}\n" for a, b, c in lines), encoding="utf-8")
        empty = [line_no for line_no, (a, b, _) in enumerate(lines, start=1)
                 if round(float(b), TIME_DECIMALS) <= round(float(a), TIME_DECIMALS)]
        if empty:
            with pytest.raises(NonMonotoneTimes, match=f"^line {empty[0]}: "):
                load_annotation(path)
            return
        ann = load_annotation(path)
        save_annotation(ann, tmp_path / "again.tsv")
        assert load_annotation(tmp_path / "again.tsv").segments == tuple(
            (round(s, TIME_DECIMALS), round(e, TIME_DECIMALS), label)
            for s, e, label in ann.segments)

    @pytest.mark.parametrize("text, boundary", [
        ("0\t1\tC:maj\n1.0000001\t10\tG:maj\n", "1.000000"),
        ("0\t1.0000005003\tC:maj\n1.0000004998\t10\tG:maj\n", "1.000001"),
        ("0.0000004\t5\tC:maj\n5\t10\tG:maj\n", "0.000000"),
    ], ids=["gap", "overlap", "leading-gap"])
    def test_boundaries_within_a_step_are_joined(self, tmp_path, text, boundary):
        path = tmp_path / "song.tsv"
        path.write_text(text, encoding="utf-8")
        save_annotation(load_annotation(path), tmp_path / "again.tsv")
        lines = (tmp_path / "again.tsv").read_text().splitlines()
        assert len(lines) == 2 and boundary in lines[0].split("\t") + lines[1].split("\t")

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_what_loads_with_near_boundaries_is_written_and_loads_back(self, tmp_path, data):
        """Lines in time order whose boundaries are shared, or apart by a gap
        or an overlap shorter than one step (some shorter than TIME_EPS), with
        0-10 decimals: load_annotation refuses the text, or what it returns is
        written and loads back as its segments rounded to TIME_DECIMALS."""
        unit = 10**10  # times in tenths of a nanosecond
        def text(t):
            whole, frac = divmod(t, unit)
            return f"{whole}.{frac:010d}".rstrip("0").rstrip(".")
        ends, t = [], 0
        for step in data.draw(st.lists(st.one_of(st.integers(1, 30_000),
                                                 st.integers(1, 3 * unit)), min_size=1,
                                       max_size=8)):
            t += step
            if data.draw(st.booleans()):  # the end's decimals, 0-10
                cut = 10 ** data.draw(st.integers(0, 10))
                ends.append(max(t // cut * cut, 1))
            else:  # near half a step, where rounding splits close times apart
                ends.append(t // 10_000 * 10_000 + 5_000 + data.draw(st.integers(-5, 5)))
        near = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-9_999, 9_999))
        lines, prev_end = [], 0
        for end in ends:
            start = max(prev_end + data.draw(near), 0)
            label = data.draw(st.sampled_from(["C:maj", "A:min7", "N", "G:7(b9)"]))
            lines.append(f"{text(start)}\t{text(end)}\t{label}\n")
            prev_end = end
        path = tmp_path / "song.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        try:
            ann = load_annotation(path)
        except ChordkitError:
            return
        save_annotation(ann, tmp_path / "again.tsv")
        assert load_annotation(tmp_path / "again.tsv").segments == tuple(
            (round(s, TIME_DECIMALS), round(e, TIME_DECIMALS), label)
            for s, e, label in ann.segments)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.one_of(st.none(), st.integers(0, 200)), flip=st.integers(0, 8 * 200))
    def test_truncated_or_flipped_file(self, tmp_path, cut, flip):
        """Any damage ends in finite segment times or a ChordkitError."""
        path = tmp_path / "song.tsv"
        save_annotation(make_ann([(0.0, 1.5, "C:maj"), (1.5, 2.25, "A:hdim7/5"),
                                  (3.0, 4.125, "G:7(b9)"), (4.125, 6.0, "N")]), path)
        raw = bytearray(path.read_bytes())
        if cut is None:
            raw[flip // 8 % len(raw)] ^= 1 << (flip % 8)
        else:
            del raw[cut % len(raw):]
        path.write_bytes(bytes(raw))
        try:
            ann = load_annotation(path)
        except ChordkitError:
            return
        assert all(math.isfinite(t) for s, e, _ in ann.segments for t in (s, e))
        assert math.isfinite(ann.duration)


class TestFrameLabels:
    def test_centers_decide(self):
        # frame 0 center 0.5*hop in C:maj, boundary at exactly 2*hop
        hop = DEFAULT_HOP
        ann = make_ann([(0.0, 2 * hop, "C:maj"), (2 * hop, 4 * hop, "G:maj")])
        grid = FrameGrid(hop=hop, n_frames=4)
        ids = frame_labels(ann, grid, V170)
        assert list(ids) == [0, 0, 7, 7]

    def test_uncovered_frames_are_n(self):
        grid = FrameGrid(hop=1.0, n_frames=4)
        ann = make_ann([(1.0, 2.0, "C:maj")], duration=2.0)
        ids = frame_labels(ann, grid, V170)
        assert list(ids) == [V170.n_id, 0, V170.n_id, V170.n_id]

    def test_matches_label_at(self):
        ann = make_ann([(0.0, 0.7, "C:maj"), (0.7, 1.3, "D:min"),
                        (1.9, 2.5, "E:min7")], duration=3.0)
        grid = grid_for(3.0)
        ids = frame_labels(ann, grid, V170)
        from chordkit.vocab import map_label
        expected = [map_label(reference_label_at(ann, t), V170) for t in grid.centers()]
        assert list(ids) == expected


class TestIntervalLabels:
    def test_majority_wins(self):
        ann = make_ann([(0.0, 0.3, "C:maj"), (0.3, 1.0, "G:maj")])
        ids = interval_labels(ann, [(0.0, 1.0)], V170)
        assert ids[0] == 7

    def test_uncovered_counts_as_n(self):
        ann = make_ann([(0.0, 0.4, "C:maj")], duration=0.4)
        ids = interval_labels(ann, [(0.0, 1.0)], V170)
        assert ids[0] == V170.n_id

    def test_segment_aligned_intervals_are_exact(self):
        ann = make_ann([(0.0, 0.7, "C:maj"), (0.7, 1.3, "D:min")])
        ids = interval_labels(ann, [(0.0, 0.7), (0.7, 1.3)], V170)
        assert list(ids) == [0, V170.chord_id(2, "min")]


class TestAlignment:
    def test_derivative_signal(self):
        data = np.array([[0.0, 0.0], [1.0, -1.0], [1.0, -1.0]])
        deriv = feature_derivative_signal(data)
        assert deriv[0] == 0.0
        assert deriv[1] == pytest.approx(2.0)
        assert deriv[2] == pytest.approx(0.0)

    def test_zero_lag_recovered(self):
        rng = np.random.default_rng(0)
        hop = DEFAULT_HOP
        n = 400
        bounds = [50, 120, 200, 310]
        segs, prev = [], 0
        for i, b in enumerate(bounds + [n]):
            segs.append((prev * hop, b * hop, parse_chord("C:maj" if i % 2 == 0 else "G:maj")))
            prev = b
        ann = Annotation(segments=tuple(segs), duration=n * hop)
        data = np.zeros((n, 4))
        level = 0.0
        for i in range(n):
            if i in bounds:
                level += 1.0
            data[i, :] = level + 0.01 * rng.standard_normal(4)
        assert alignment_lag(type("F", (), {"data": data, "hop": hop})(), ann) == 0

    @pytest.mark.parametrize("true_lag", [-7, -1, 3, 12])
    def test_known_lag_recovered(self, true_lag):
        hop = DEFAULT_HOP
        n = 500
        bounds = [60, 150, 260, 390]
        segs, prev = [], 0
        for i, b in enumerate(bounds + [n]):
            segs.append((prev * hop, b * hop, parse_chord("C:maj" if i % 2 == 0 else "A:min")))
            prev = b
        ann = Annotation(segments=tuple(segs), duration=n * hop)
        data = np.zeros((n, 3))
        level = 0.0
        for i in range(n):
            if i - true_lag in bounds:
                level += 1.0
            data[i, :] = level
        feat = type("F", (), {"data": data, "hop": hop})()
        assert alignment_lag(feat, ann) == true_lag

    @pytest.mark.parametrize("delay", [0, 1, 3, 8])
    @pytest.mark.parametrize("noise_db", [0.0, 6.0])
    def test_rendered_songs_give_their_delay(self, delay, noise_db):
        # features rendered from the annotation switch where frame_labels
        # does; delaying them by k frames must read as a lag of k
        from chordkit.features import RenderParams, render_synthetic_cqt
        from chordkit.synthgen import ProgressionConfig, generate_song
        for seed in range(10):
            ann, _, _ = generate_song(ProgressionConfig(duration=30.0), seed)
            feat = render_synthetic_cqt(ann, grid_for(ann.duration),
                                        RenderParams(noise_db=noise_db, seed=seed + 1))
            held = np.repeat(feat.data[:1], delay, axis=0)
            delayed = np.concatenate([held, feat.data[:feat.n_frames - delay]])
            assert alignment_lag(replace(feat, data=delayed), ann) == delay, seed

    def test_window_past_the_song_tries_every_lag_shorter_than_it(self):
        # 33 frames allow lags up to 32 either way; a wider window, which
        # once built lags with no overlap and failed, reads as window 32
        hop = DEFAULT_HOP
        ann = make_ann([(0.0, 7 * hop, "C:maj"), (7 * hop, 19 * hop, "A:min"),
                        (19 * hop, 26 * hop, "F:maj"), (26 * hop, 33 * hop, "G:7")])
        rng = np.random.default_rng(3)
        feat = type("F", (), {"data": rng.normal(size=(33, 8)), "hop": hop})()
        want = alignment_lag(feat, ann, window_frames=32)
        for window in (33, 34, 35, 50, 10_000):
            assert alignment_lag(feat, ann, window_frames=window) == want, window

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_must_be_positive(self, window):
        ann = make_ann([(0.0, 1.0, "C:maj"), (1.0, 2.0, "G:maj")])
        feat = type("F", (), {"data": np.random.default_rng(0).normal(size=(40, 4)),
                              "hop": DEFAULT_HOP})()
        with pytest.raises(ValueError, match="window_frames"):
            alignment_lag(feat, ann, window_frames=window)

    def test_degenerate_signal_raises(self):
        ann = make_ann([(0.0, 1.0, "C:maj")])
        data = np.ones((20, 3))
        feat = type("F", (), {"data": data, "hop": DEFAULT_HOP})()
        with pytest.raises(DegenerateSignal):
            alignment_lag(feat, ann)

    def test_song_without_frames_raises(self):
        # once read as lag 0, after numpy warnings about the empty mean
        feat = type("F", (), {"data": np.ones((0, 3)), "hop": DEFAULT_HOP})()
        with pytest.raises(DegenerateSignal):
            alignment_lag(feat, make_ann([]))
