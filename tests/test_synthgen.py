import math

import numpy as np
import pytest

from chordkit.annotate import TIME_DECIMALS, TIME_STEP, load_annotation, save_annotation
from chordkit.errors import MissingQuality
from chordkit.synthgen import (DEGREE_OFFSETS, DEGREE_QUALITIES, RULE_GRAPH,
                               CalibrationTable, ProgressionConfig,
                               apply_calibration, calibration_ratios,
                               generate_song, id_distribution,
                               realize_timing, sample_progression)
from chordkit.vocab import vocabulary_170

V = vocabulary_170()
CFG = ProgressionConfig()


class TestRuleGraph:
    def test_probabilities_sum_to_one(self):
        for degree, succ in RULE_GRAPH.items():
            assert sum(p for _, p in succ) == pytest.approx(1.0), degree

    def test_quality_distributions_sum_to_one(self):
        for mode, table in DEGREE_QUALITIES.items():
            for degree, dist in table.items():
                assert sum(p for _, p in dist) == pytest.approx(1.0), (mode, degree)

    def test_every_degree_has_offset(self):
        assert set(RULE_GRAPH) == set(DEGREE_OFFSETS)


class TestConfig:
    @pytest.mark.parametrize("duration", [0.0, -5.0, math.inf, math.nan])
    def test_duration_must_be_positive_and_finite(self, duration):
        # an infinite duration would loop realize_timing without end
        with pytest.raises(ValueError, match="duration"):
            ProgressionConfig(duration=duration)


    @pytest.mark.parametrize("duration", [1e-7, 0.5 * TIME_STEP, 0.99 * TIME_STEP])
    def test_duration_shorter_than_a_label_file_step_rejected(self, duration):
        with pytest.raises(ValueError, match="time step"):
            ProgressionConfig(duration=duration)

    def test_one_step_song_is_written_and_read_back(self, tmp_path):
        ann = generate_song(ProgressionConfig(duration=TIME_STEP), 0)[0]
        assert [(start, end) for start, end, _ in ann.segments] == [(0.0, TIME_STEP)]
        save_annotation(ann, tmp_path / "song.tsv")
        assert load_annotation(tmp_path / "song.tsv").segments == ann.segments


class TestProgression:
    def test_starts_on_tonic_degree(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            chords = sample_progression(CFG, rng)
            roots = {c.root for c in chords}
            # the first chord's root is the tonic; every other root lies a
            # scale-degree offset above it
            tonic = chords[0].root
            offsets = {(r - tonic) % 12 for r in roots}
            assert offsets <= set(DEGREE_OFFSETS.values())

    def test_length_bounds(self):
        for seed in range(50):
            chords = sample_progression(CFG, np.random.default_rng(seed))
            assert 4 <= len(chords) <= 10

    def test_transitions_follow_graph(self):
        offset_to_degree = {v: k for k, v in DEGREE_OFFSETS.items()}
        allowed = {deg: {s for s, _ in succ} for deg, succ in RULE_GRAPH.items()}
        for seed in range(50):
            chords = sample_progression(CFG, np.random.default_rng(seed))
            tonic = chords[0].root
            degrees = [offset_to_degree[(c.root - tonic) % 12] for c in chords]
            assert degrees[0] == "I"
            for a, b in zip(degrees, degrees[1:]):
                assert b in allowed[a], (a, b)

    def test_quality_fixed_per_degree(self):
        for seed in range(50):
            chords = sample_progression(CFG, np.random.default_rng(seed))
            by_root = {}
            for c in chords:
                assert by_root.setdefault(c.root, c.quality) == c.quality

    def test_qualities_come_from_tables(self):
        all_qualities = {q for table in DEGREE_QUALITIES.values()
                         for dist in table.values() for q, _ in dist}
        for seed in range(30):
            chords = sample_progression(CFG, np.random.default_rng(seed))
            assert {c.quality for c in chords} <= all_qualities


class TestTiming:
    def test_fills_duration_exactly(self):
        for seed in range(20):
            ann, bpm, _ = generate_song(CFG, seed)
            assert ann.duration == 30.0
            assert ann.segments[0][0] == 0.0
            assert ann.segments[-1][1] == pytest.approx(30.0)
            # contiguous
            for (s1, e1, _), (s2, _, _) in zip(ann.segments, ann.segments[1:]):
                assert s2 == pytest.approx(e1)

    def test_bpm_clipped(self):
        bpms = [generate_song(CFG, seed)[1] for seed in range(100)]
        assert all(60.0 <= b <= 220.0 for b in bpms)
        assert 100.0 < np.mean(bpms) < 135.0

    def test_bar_duration_matches_bpm(self):
        ann, bpm, _ = generate_song(CFG, 0)
        start, end, _ = ann.segments[0]
        assert end - start == pytest.approx(4 * 60.0 / bpm)

    def test_loops_progression(self):
        rng = np.random.default_rng(0)
        chords = sample_progression(CFG, rng)
        ann, bpm = realize_timing(chords, CFG, rng)
        labels = [lbl for _, _, lbl in ann.segments]
        for i, lbl in enumerate(labels):
            assert lbl == chords[i % len(chords)]

    def test_deterministic(self):
        a1, b1, c1 = generate_song(CFG, 123)
        a2, b2, c2 = generate_song(CFG, 123)
        assert a1 == a2 and b1 == b2 and c1 == c2

    def test_seed_changes_output(self):
        assert generate_song(CFG, 0)[2] != generate_song(CFG, 1)[2] or \
            generate_song(CFG, 0)[1] != generate_song(CFG, 1)[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            realize_timing([], CFG, np.random.default_rng(0))

    @pytest.mark.parametrize("tail", [5e-10, 1.2e-7, 9.9e-7, 1.5e-6])
    def test_every_segment_fits_a_label_file(self, tmp_path, tail):
        """A tail shorter than a label file's time step joins the last chord;
        every song is written and read back with the chords' times."""
        for seed in range(10):
            bar = 240.0 / generate_song(CFG, seed)[1]  # the BPM does not depend on duration
            ann = generate_song(ProgressionConfig(duration=2 * bar + tail), seed)[0]
            assert ann.segments[-1][1] == ann.duration
            assert len(ann.segments) == (3 if tail >= 10.0 ** -TIME_DECIMALS else 2)
            save_annotation(ann, tmp_path / "song.tsv")
            assert load_annotation(tmp_path / "song.tsv").segments == tuple(
                (round(start, TIME_DECIMALS), round(end, TIME_DECIMALS), label)
                for start, end, label in ann.segments)

    def test_sub_microsecond_tail_of_a_short_song(self, tmp_path):
        """synth --n 1 --seed 7 --duration 1.8715923: one chord, no 0.12 us tail."""
        ann = generate_song(ProgressionConfig(duration=1.8715923), 7 * 1_000_003)[0]
        assert [(start, end) for start, end, _ in ann.segments] == [(0.0, 1.8715923)]
        save_annotation(ann, tmp_path / "song.tsv")
        assert load_annotation(tmp_path / "song.tsv").segments[0][2] == ann.segments[0][2]


class TestCalibration:
    def test_identical_distributions_give_unit_ratios(self):
        dist = np.full(V.size, 1.0 / V.size)
        table = calibration_ratios(dist, dist, V)
        for q in V.qualities:
            assert table.ratio(q) == pytest.approx(1.0)

    def test_unit_ratios_preserve_logits(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, V.size))
        table = CalibrationTable(ratios={q: 1.0 for q in V.qualities})
        assert np.allclose(apply_calibration(logits, table, V), logits)

    def test_ratio_direction(self):
        train = np.full(V.size, 1.0 / V.size)
        target = train.copy()
        maj_ids = np.arange(12)
        target[maj_ids] *= 3.0
        target /= target.sum()
        table = calibration_ratios(train, target, V)
        assert table.ratio("maj") > 1.0
        assert table.ratio("min") < 1.0

    def test_root_invariance(self):
        # averaging over roots: permuting mass among roots of one quality
        # leaves the quality ratio unchanged only in aggregate; a uniform
        # target over roots must give identical per-quality ratios whatever
        # root carried the training mass
        train_a = np.full(V.size, 1e-9)
        train_b = train_a.copy()
        train_a[0] = 0.5   # C:maj
        train_b[5] = 0.5   # F:maj
        target = np.full(V.size, 1.0 / V.size)
        ra = calibration_ratios(train_a, target, V)
        rb = calibration_ratios(train_b, target, V)
        assert ra.ratio("maj") == pytest.approx(rb.ratio("maj"))

    def test_sentinels_unchanged(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, V.size))
        table = CalibrationTable(ratios={q: 2.0 for q in V.qualities})
        out = apply_calibration(logits, table, V)
        assert np.array_equal(out[:, V.n_id], logits[:, V.n_id])
        assert np.array_equal(out[:, V.x_id], logits[:, V.x_id])
        assert np.allclose(out[:, :V.n_id], logits[:, :V.n_id] + np.log(2.0))

    def test_missing_quality_raises(self):
        with pytest.raises(MissingQuality):
            CalibrationTable(ratios={}).ratio("maj")

    def test_id_distribution_sums_to_one(self):
        ids = [np.array([0, 0, 1]), np.array([V.n_id])]
        dist = id_distribution(ids, V)
        assert dist.sum() == pytest.approx(1.0)
        assert dist[0] == pytest.approx(0.5)
        assert dist[V.n_id] == pytest.approx(0.25)

    def test_calibration_can_flip_argmax(self):
        # two classes of the same root whose posterior gap is smaller than
        # the log ratio between target and training priors
        train = np.zeros(V.size)
        target = np.zeros(V.size)
        for r in range(12):
            train[V.chord_id(r, "min7")] = 0.6 / 12
            train[V.chord_id(r, "maj6")] = 0.4 / 12
            target[V.chord_id(r, "min7")] = 0.05 / 12
            target[V.chord_id(r, "maj6")] = 0.95 / 12
        table = calibration_ratios(train, target, V)
        logits = np.zeros((1, V.size))
        logits[0, V.chord_id(0, "min7")] = np.log(1.4)
        logits[0, V.chord_id(0, "maj6")] = np.log(1.0)
        out = apply_calibration(logits, table, V)
        assert np.argmax(out[0]) == V.chord_id(0, "maj6")
