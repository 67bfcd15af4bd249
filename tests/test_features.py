import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chordkit.annotate import DEFAULT_HOP, fill_gaps, grid_for
from chordkit.errors import (BadBinConfig, BadHeader, BadMagic, ChordkitError,
                             EmptyBeatList, MalformedLine, NonFiniteFeatures,
                             TruncatedPayload, VersionMismatch)
from chordkit.features import (DEFAULT_BINS_PER_OCTAVE, DEFAULT_FLOOR_DB, DEFAULT_N_BINS,
                               BeatIntervals, FeatureMatrix, RenderParams,
                               beat_intervals, beat_pool, bin_pitch_classes,
                               is_time_axis, load_beats, load_features, perfect_intervals,
                               pitch_shift_cqt, render_synthetic_cqt,
                               save_features)
from chordkit.harte import NO_CHORD, parse_chord


def make_ann(rows, duration=None):
    return fill_gaps([(s, e, parse_chord(t)) for s, e, t in rows], duration=duration)


def reference_label_at(ann, t):
    """Label of the segment whose half-open [start, end) holds t, by a linear scan."""
    for start, end, label in ann.segments:
        if start <= t < end:
            return label
    return NO_CHORD


def reference_pitch_shift(feat, k):
    """pitch_shift_cqt as three branches, one per sign of the bin shift."""
    shift = k * (feat.bins_per_octave // 12)
    out = np.full_like(feat.data, feat.floor_db)
    if shift == 0:
        out[:] = feat.data
    elif shift > 0:
        out[:, shift:] = feat.data[:, :-shift]
    else:
        out[:, :shift] = feat.data[:, -shift:]
    return out


def make_feat(data, hop=DEFAULT_HOP, bpo=36):
    return FeatureMatrix(data=np.asarray(data, dtype=np.float32), hop=hop,
                         bins_per_octave=bpo)


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        feat = make_feat(rng.normal(size=(37, 216)).astype(np.float32))
        path = tmp_path / "a.cqtf"
        save_features(feat, path)
        loaded = load_features(path)
        assert np.array_equal(loaded.data, feat.data)
        assert loaded.hop == feat.hop
        assert loaded.bins_per_octave == feat.bins_per_octave
        assert loaded.floor_db == feat.floor_db

    def test_header_layout(self, tmp_path):
        feat = make_feat(np.zeros((2, 3)))
        path = tmp_path / "a.cqtf"
        save_features(feat, path)
        raw = path.read_bytes()
        assert raw[:4] == b"CQTF"
        assert len(raw) == 4 + 4 + 4 + 8 + 8 + 4 + 4 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.cqtf"
        feat = make_feat(np.zeros((2, 3)))
        save_features(feat, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            load_features(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "a.cqtf"
        save_features(make_feat(np.zeros((2, 3))), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.cqtf"
        save_features(make_feat(np.zeros((4, 4))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncatedPayload):
            load_features(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "a.cqtf"
        path.write_bytes(b"CQTF\x01")
        with pytest.raises(TruncatedPayload):
            load_features(path)


def forged_cqtf(path, field, value, data=np.zeros((4, 24))):
    """A valid CQTF file with one header field overwritten."""
    offset, fmt = {"n_bins": (8, "<I"), "n_frames": (12, "<Q"), "hop": (20, "<d"),
                   "bins_per_octave": (28, "<I"), "floor_db": (32, "<f")}[field]
    save_features(make_feat(data, bpo=12), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    return path


BAD_HEADERS = [
    # n_frames * n_bins * 4 bytes would overflow a read; the file size
    # check rejects it before anything is allocated
    ("n_frames", 2 ** 62, TruncatedPayload),
    ("n_frames", 5, TruncatedPayload),
    ("n_bins", 0, BadHeader),
    ("hop", 0.0, BadHeader),
    ("hop", -0.1, BadHeader),
    ("hop", float("nan"), BadHeader),
    ("hop", float("inf"), BadHeader),
    ("floor_db", float("nan"), BadHeader),
    ("floor_db", float("-inf"), BadHeader),
    ("bins_per_octave", 0, BadBinConfig),
    ("bins_per_octave", 18, BadBinConfig),
]


class TestLoaderRejects:
    @pytest.mark.parametrize("field, value, error", BAD_HEADERS,
                             ids=[f"{f}={v}" for f, v, _ in BAD_HEADERS])
    def test_bad_header(self, tmp_path, field, value, error):
        with pytest.raises(error):
            load_features(forged_cqtf(tmp_path / "a.cqtf", field, value))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, tmp_path, value):
        data = np.zeros((4, 24), dtype=np.float32)
        data[2, 5] = value
        path = tmp_path / "a.cqtf"
        save_features(make_feat(data, bpo=12), path)
        with pytest.raises(NonFiniteFeatures):
            load_features(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.one_of(st.none(), st.integers(0, 36 + 6 * 24 * 4 - 1)),
           flip=st.integers(0, 8 * (36 + 6 * 24 * 4) - 1))
    def test_truncated_or_flipped_file(self, tmp_path, cut, flip):
        """Any damage ends in a FeatureMatrix or a ChordkitError."""
        path = tmp_path / "a.cqtf"
        rng = np.random.default_rng(0)
        save_features(make_feat(rng.normal(size=(6, 24)), bpo=12), path)
        raw = bytearray(path.read_bytes())
        if cut is None:
            raw[flip // 8] ^= 1 << (flip % 8)
        else:
            del raw[cut:]
        path.write_bytes(bytes(raw))
        try:
            load_features(path)
        except ChordkitError:
            pass


class TestBinPitchClasses:
    def test_three_bins_per_semitone(self):
        pcs = bin_pitch_classes(9, 36)
        assert list(pcs) == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_wraps_at_octave(self):
        pcs = bin_pitch_classes(26, 12)
        assert pcs[11] == 11 and pcs[12] == 0 and pcs[25] == 1

    def test_rejects_non_multiple(self):
        with pytest.raises(BadBinConfig):
            bin_pitch_classes(10, 35)

    @pytest.mark.parametrize("bpo", [0, -12])
    def test_rejects_no_bins_per_octave(self, bpo):
        with pytest.raises(BadBinConfig):
            bin_pitch_classes(24, bpo)


class TestRenderer:
    def test_chord_bins_above_floor(self):
        ann = make_ann([(0.0, 1.0, "C:maj")])
        grid = grid_for(1.0)
        feat = render_synthetic_cqt(ann, grid)
        pcs = bin_pitch_classes(feat.n_bins, feat.bins_per_octave)
        active = np.isin(pcs, [0, 4, 7])
        assert (feat.data[0, active] > feat.floor_db).all()
        assert (feat.data[0, ~active] == feat.floor_db).all()

    def test_octave_rolloff(self):
        ann = make_ann([(0.0, 1.0, "C:maj")])
        feat = render_synthetic_cqt(ann, grid_for(1.0))
        per_semitone = feat.bins_per_octave // 12
        # pitch class 0: octave o lives at bin o*12*per_semitone
        assert feat.data[0, 0] == pytest.approx(0.0)
        assert feat.data[0, 12 * per_semitone] == pytest.approx(-6.0)
        assert feat.data[0, 24 * per_semitone] == pytest.approx(-12.0)

    def test_n_frames_are_floor(self):
        ann = make_ann([(1.0, 2.0, "C:maj")], duration=3.0)
        feat = render_synthetic_cqt(ann, grid_for(3.0))
        assert (feat.data[0] == feat.floor_db).all()
        assert (feat.data[-1] == feat.floor_db).all()

    def test_noise_is_seeded_and_clipped(self):
        ann = make_ann([(0.0, 1.0, "C:maj")])
        grid = grid_for(1.0)
        p = RenderParams(noise_db=3.0, seed=7)
        a = render_synthetic_cqt(ann, grid, p)
        b = render_synthetic_cqt(ann, grid, p)
        c = render_synthetic_cqt(ann, grid, RenderParams(noise_db=3.0, seed=8))
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert (a.data >= a.floor_db).all()

    @pytest.mark.parametrize("noise_db", [-1.0, math.inf, math.nan])
    def test_noise_level_must_be_finite_and_not_negative(self, noise_db):
        with pytest.raises(ValueError, match="noise_db"):
            RenderParams(noise_db=noise_db)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), noise=st.sampled_from([0.0, 4.0]))
    def test_matches_per_frame_reference(self, seed, noise):
        # the renderer before it shared annotate.segment_index: one linear
        # segment scan per frame center; chords peak at 0 dB, 6 dB less per octave
        from chordkit import harte
        from chordkit.synthgen import ProgressionConfig, generate_song
        ann, _, _ = generate_song(ProgressionConfig(duration=20.0), seed)
        grid = grid_for(21.0)  # a tail past the annotation stays at the floor
        params = RenderParams(noise_db=noise, seed=seed)
        pcs = bin_pitch_classes(DEFAULT_N_BINS, DEFAULT_BINS_PER_OCTAVE)
        octaves = np.arange(DEFAULT_N_BINS) // (DEFAULT_BINS_PER_OCTAVE // 12) // 12
        data = np.full((grid.n_frames, DEFAULT_N_BINS), DEFAULT_FLOOR_DB, dtype=np.float32)
        for i, t in enumerate(grid.centers()):
            label = reference_label_at(ann, t)
            if label.is_chord():
                mask = np.isin(pcs, list(harte.pitch_class_set(label)))
                data[i, mask] = 0.0 - 6.0 * octaves[mask]
        if noise > 0:
            rng = np.random.default_rng(params.seed)
            data = data + rng.normal(0.0, noise, size=data.shape).astype(np.float32)
            data = np.maximum(data, DEFAULT_FLOOR_DB)
        got = render_synthetic_cqt(ann, grid, params).data
        assert got.dtype == data.dtype and got.tobytes() == data.tobytes()


class TestPitchShift:
    @pytest.mark.parametrize("bpo", [0, -12, 18])
    def test_rejects_what_the_loader_rejects(self, bpo):
        feat = make_feat(np.zeros((3, 24), dtype=np.float32), bpo=bpo)
        with pytest.raises(BadBinConfig):
            pitch_shift_cqt(feat, 1)

    def test_render_equivariance_no_wrap(self):
        # C:maj -> D:maj; no pitch class crosses the octave boundary, so
        # shifting the rendered features equals rendering the shifted chord.
        grid = grid_for(1.0)
        base = render_synthetic_cqt(make_ann([(0.0, 1.0, "C:maj")]), grid)
        target = render_synthetic_cqt(make_ann([(0.0, 1.0, "D:maj")]), grid)
        assert np.array_equal(pitch_shift_cqt(base, 2).data, target.data)

    def test_wrapped_pitch_class_changes_octave(self):
        # A:maj shifted up 5 wraps pitch classes 9 and 1+... compare on the
        # unwrapped pitch class only.
        grid = grid_for(1.0)
        base = render_synthetic_cqt(make_ann([(0.0, 1.0, "A:maj")]), grid)
        shifted = pitch_shift_cqt(base, 5)
        target = render_synthetic_cqt(make_ann([(0.0, 1.0, "D:maj")]), grid)
        pcs = bin_pitch_classes(base.n_bins, base.bins_per_octave)
        # pitch class 6 (= 1 + 5, from A:maj's third c#) does not wrap
        mask = pcs == 6
        assert np.array_equal(shifted.data[:, mask], target.data[:, mask])

    def test_round_trip_interior(self):
        rng = np.random.default_rng(1)
        feat = make_feat(rng.normal(size=(5, 216)))
        back = pitch_shift_cqt(pitch_shift_cqt(feat, 3), -3)
        step = 3 * (feat.bins_per_octave // 12)
        assert np.array_equal(back.data[:, :-step], feat.data[:, :-step])
        assert (back.data[:, -step:] == feat.floor_db).all()

    def test_zero_shift_identity(self):
        feat = make_feat(np.arange(12, dtype=np.float32).reshape(3, 4), bpo=12)
        assert np.array_equal(pitch_shift_cqt(feat, 0).data, feat.data)

    def test_limits(self):
        feat = make_feat(np.zeros((2, 12)), bpo=12)
        with pytest.raises(ValueError):
            pitch_shift_cqt(feat, 12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bpo", [12, 24, 36, 48])
    def test_one_slice_equals_the_three_branches(self, bpo, dtype):
        # every bin count from 1 to 216, so shifts of the bin count or more
        # (only the floor is left) are covered too
        rng = np.random.default_rng(bpo)
        for n_bins in range(1, 217):
            feat = FeatureMatrix(data=rng.normal(size=(3, n_bins)).astype(dtype),
                                 hop=DEFAULT_HOP, bins_per_octave=bpo)
            for k in range(-11, 12):
                got = pitch_shift_cqt(feat, k).data
                want = reference_pitch_shift(feat, k)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n_bins, k)


class TestBeatIntervals:
    def test_load_beats(self, tmp_path):
        path = tmp_path / "beats.txt"
        path.write_text("0.5\n1.0\n1.5\n", encoding="utf-8")
        assert load_beats(path) == [0.5, 1.0, 1.5]

    def test_load_rejects_non_increasing(self, tmp_path):
        path = tmp_path / "beats.txt"
        path.write_text("0.5\n0.5\n", encoding="utf-8")
        with pytest.raises(EmptyBeatList):
            load_beats(path)

    @pytest.mark.parametrize("line", [b"nan", b"inf", b"-inf", b"abc", b"1.0 2.0", b"\xff"])
    def test_load_rejects_bad_line_with_number(self, tmp_path, line):
        path = tmp_path / "beats.txt"
        path.write_bytes(b"0.5\n\n1.0\n" + line + b"\n")
        with pytest.raises(MalformedLine) as exc:
            load_beats(path)
        assert exc.value.line_no == 4

    @pytest.mark.parametrize("text, line_no", [("-1.0\n0.5\n", 1), ("\n0.5\n-0.25\n", 3)])
    def test_load_rejects_negative_time_with_number(self, tmp_path, text, line_no):
        path = tmp_path / "beats.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedLine, match="negative") as exc:
            load_beats(path)
        assert exc.value.line_no == line_no

    def test_first_bad_interval_is_named(self):
        with pytest.raises(EmptyBeatList, match=r"^interval 2 \(2.5, 3.0\) is off a time axis$"):
            BeatIntervals(intervals=((0.0, 1.0), (1.0, 2.0), (2.5, 3.0)))

    def test_intervals_start_at_zero_or_later(self):
        assert is_time_axis([(0.0, 0.5), (0.5, 1.0)])
        assert not is_time_axis([(-1.0, 0.5), (0.5, 1.0)])
        with pytest.raises(EmptyBeatList):
            BeatIntervals(intervals=((-1.0, 0.5), (0.5, 1.0)))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.one_of(st.none(), st.integers(0, 64)), flip=st.integers(0, 8 * 64))
    def test_truncated_or_flipped_file(self, tmp_path, cut, flip):
        """Any damage ends in finite, non-negative, increasing beat times or a ChordkitError."""
        path = tmp_path / "beats.txt"
        path.write_text("0.250000\n0.731500\n1.210000\n1.702250\n2.190000\n",
                        encoding="utf-8")
        raw = bytearray(path.read_bytes())
        if cut is None:
            raw[flip // 8 % len(raw)] ^= 1 << (flip % 8)
        else:
            del raw[cut % len(raw):]
        path.write_bytes(bytes(raw))
        try:
            beats = load_beats(path)
        except ChordkitError:
            return
        assert all(math.isfinite(b) and b >= 0 for b in beats)
        assert all(a < b for a, b in zip(beats, beats[1:]))

    def test_division_one_prepends_head(self):
        bi = beat_intervals([0.5, 1.0, 1.5], "1")
        assert bi.intervals == ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5))

    def test_division_appends_tail(self):
        bi = beat_intervals([0.5, 1.0], "1", duration=1.8)
        assert bi.intervals[-1] == (1.0, 1.8)

    @pytest.mark.parametrize("division, expected", [
        ("1", ((0.0, 0.5), (0.5, 1.0), (1.0, 10.0))),
        ("2", ((0.0, 1.0), (1.0, 10.0))),
    ])
    def test_beats_after_the_duration_dropped(self, division, expected):
        assert beat_intervals([0.5, 1.0, 50.0, 60.0], division, duration=10.0).intervals == expected

    def test_beat_at_the_duration_kept(self):
        assert beat_intervals([0.5, 1.0 + 1e-12], "1", duration=1.0).intervals == (
            (0.0, 0.5), (0.5, 1.0 + 1e-12))

    def test_every_beat_after_the_duration_leaves_one_interval(self):
        assert beat_intervals([20.0, 30.0], "1", duration=10.0).intervals == ((0.0, 10.0),)

    def test_song_of_no_time_has_no_beat_intervals(self):
        with pytest.raises(EmptyBeatList):
            beat_intervals([0.0, 0.5], "1", duration=0.0)

    def test_division_half(self):
        bi = beat_intervals([0.0, 1.0], "0.5")
        assert bi.intervals == ((0.0, 0.5), (0.5, 1.0))

    def test_division_quarter(self):
        bi = beat_intervals([0.0, 1.0], "0.25")
        assert len(bi.intervals) == 4
        assert bi.intervals[0] == (0.0, 0.25)

    def test_division_two_merges_pairs(self):
        bi = beat_intervals([0.0, 1.0, 2.0, 3.0, 4.0], "2")
        assert bi.intervals == ((0.0, 2.0), (2.0, 4.0))

    def test_unknown_division(self):
        with pytest.raises(ValueError):
            beat_intervals([0.0, 1.0], "3")

    def test_empty_rejected(self):
        with pytest.raises(EmptyBeatList):
            beat_intervals([], "1")

    @pytest.mark.parametrize("intervals", [
        ((0.0, math.nan),), ((math.nan, 1.0),), ((0.0, 1.0), (1.0, math.inf)),
        ((0.0, 1.0), (math.nan, 2.0)), ((-math.inf, 0.0), (0.0, 1.0)),
        ((0.0, 1.0), (math.nan, math.nan), (1.0, 2.0)),
    ])
    def test_non_finite_times_rejected(self, intervals):
        with pytest.raises(EmptyBeatList):
            BeatIntervals(intervals=intervals)

    def test_perfect_intervals_match_segments(self):
        ann = make_ann([(0.0, 0.7, "C:maj"), (0.7, 1.3, "D:min")])
        bi = perfect_intervals(ann)
        assert bi.intervals == ((0.0, 0.7), (0.7, 1.3))


class TestBeatPool:
    def test_mean_pooling(self):
        data = np.array([[0.0], [2.0], [4.0], [6.0]])
        feat = make_feat(data, hop=1.0, bpo=12)
        bi = BeatIntervals(intervals=((0.0, 2.0), (2.0, 4.0)))
        pooled = beat_pool(feat, bi)
        assert pooled.data[:, 0] == pytest.approx([1.0, 5.0])

    def test_empty_interval_inherits_previous(self):
        data = np.array([[1.0], [3.0]])
        feat = make_feat(data, hop=1.0, bpo=12)
        # middle interval (2.0, 2.2) contains no frame center
        bi = BeatIntervals(intervals=((0.0, 2.0), (2.0, 2.2), (2.2, 4.0)))
        pooled = beat_pool(feat, bi)
        assert pooled.data[:, 0] == pytest.approx([2.0, 2.0, 2.0])

    def test_leading_empty_back_filled(self):
        data = np.array([[5.0]])
        feat = make_feat(data, hop=1.0, bpo=12)
        bi = BeatIntervals(intervals=((0.0, 0.2), (0.2, 1.0)))
        pooled = beat_pool(feat, bi)
        assert pooled.data[:, 0] == pytest.approx([5.0, 5.0])

    def test_all_empty_rejected(self):
        feat = make_feat(np.ones((1, 1)), hop=1.0, bpo=12)
        bi = BeatIntervals(intervals=((2.0, 3.0),))
        with pytest.raises(EmptyBeatList):
            beat_pool(feat, bi)

    @given(st.integers(2, 40), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_pooled_rows_within_range(self, n_frames, n_ivals):
        rng = np.random.default_rng(n_frames * 100 + n_ivals)
        feat = make_feat(rng.normal(size=(n_frames, 3)), hop=1.0, bpo=12)
        edges = np.linspace(0.0, n_frames, n_ivals + 1)
        bi = BeatIntervals(intervals=tuple(zip(edges, edges[1:])))
        pooled = beat_pool(feat, bi)
        lo, hi = feat.data.min(), feat.data.max()
        assert (pooled.data >= lo - 1e-5).all() and (pooled.data <= hi + 1e-5).all()
