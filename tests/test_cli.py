import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chordkit import annotate, cli, errors, features, metrics, model, synthgen
from chordkit.cli import build_parser, main
from chordkit.vocab import get_vocabulary


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run(["synth", "--n", 6, "--duration", 10, "--seed", 1,
                "--out", out]) == 0
    return out


class TestSynth:
    def test_outputs_exist(self, dataset):
        assert len(list(dataset.glob("*.tsv"))) == 6
        assert len(list(dataset.glob("*.cqtf"))) == 6
        assert (dataset / "dataset.json").exists()
        assert (dataset / "run_manifest.json").exists()

    def test_dataset_json_contents(self, dataset):
        meta = json.loads((dataset / "dataset.json").read_text())
        assert len(meta["songs"]) == 6
        assert all(60.0 <= s["bpm"] <= 220.0 for s in meta["songs"])

    def test_deterministic_across_runs(self, dataset, tmp_path):
        again = tmp_path / "again"
        assert run(["synth", "--n", 6, "--duration", 10, "--seed", 1,
                    "--out", again]) == 0
        for name in sorted(p.name for p in dataset.iterdir()):
            if name == "run_manifest.json":
                continue  # embeds the --out path
            a = (dataset / name).read_bytes()
            b = (again / name).read_bytes()
            assert a == b, name

    def test_seed_changes_dataset(self, dataset, tmp_path):
        other = tmp_path / "other"
        assert run(["synth", "--n", 6, "--duration", 10, "--seed", 2,
                    "--out", other]) == 0
        assert (dataset / "song_0000.tsv").read_bytes() != \
            (other / "song_0000.tsv").read_bytes()

    def test_manifest_records_config(self, dataset):
        manifest = json.loads((dataset / "run_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["n"] == 6
        assert manifest["config"]["seed"] == 1
        assert "song_0000.cqtf" in manifest["outputs"]


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert run(["train", "--data", dataset, "--out", out, "--vocab", 170,
                "--epochs", 8, "--patch-seconds", 5, "--seed", 0]) == 0
    return out


class TestTrain:
    def test_outputs(self, trained):
        assert (trained / "model.npz").exists()
        history = [json.loads(line)
                   for line in (trained / "history.jsonl").read_text().splitlines()]
        assert len(history) == 8
        assert "val_loss" in history[0]

    @staticmethod
    def _recorded_sizes(out):
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        with np.load(out / "model.npz") as data:
            meta = json.loads(str(data["meta"]))
        return ({k: config[k] for k in ("hidden_units", "context")},
                {k: meta[k] for k in ("hidden_units", "context")})

    def test_manifest_records_the_checkpoint_sizes(self, trained):
        recorded, stored = self._recorded_sizes(trained)
        assert recorded == stored == {"hidden_units": 0, "context": 0}

    def test_hidden_manifest_records_the_checkpoint_sizes(self, dataset, tmp_path):
        out = tmp_path / "m"
        assert run(["train", "--data", dataset, "--arch", "hidden", "--hidden-units", 4,
                    "--epochs", 1, "--patch-seconds", 2, "--out", out]) == 0
        recorded, stored = self._recorded_sizes(out)
        assert recorded == stored
        assert stored["hidden_units"] == 4 and stored["context"] > 0

    @pytest.mark.parametrize("flag", ["--context", "--hidden-units"])
    def test_size_with_logistic_exits_one(self, dataset, tmp_path, capsys, flag):
        out = tmp_path / "m"
        assert run(["train", "--data", dataset, "--arch", "logistic", flag, 2,
                    "--epochs", 1, "--out", out]) == 1
        error = _one_json_error(capsys)
        assert error["error"] == "ChordkitError" and flag in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--epochs", "0"], ["--epochs", "-2"], ["--patch-seconds", "0"],
        ["--learning-rate", "-1"], ["--learning-rate", "nan"], ["--batch-size", "0"],
        ["--alpha", "nan"], ["--alpha", "inf"],
        ["--arch", "hidden", "--hidden-units", "0"], ["--arch", "hidden", "--context", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_number_training_cannot_use_exits_one(self, dataset, tmp_path, capsys, argv):
        out = tmp_path / "m"
        capsys.readouterr()
        assert run(["train", "--data", dataset, "--epochs", 1, *argv, "--out", out]) == 1
        assert _one_json_error(capsys)["error"] == "ValueError"
        assert not (out / "model.npz").exists()

    def test_empty_data_dir_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["train", "--data", empty, "--out", tmp_path / "m"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "error" in err and "message" in err


    def test_songs_on_other_frame_grids_exit_one(self, dataset, tmp_path, capsys):
        mixed = tmp_path / "mixed"
        # 10 songs leave 2 for testing, so at least 2 at hop 0.05 are read
        assert run(["synth", "--n", 4, "--duration", 10, "--seed", 2, "--hop", 0.05,
                    "--out", mixed]) == 0
        for path in dataset.glob("song_*"):
            (mixed / f"x{path.name}").write_bytes(path.read_bytes())
        capsys.readouterr()
        assert run(["train", "--data", mixed, "--epochs", 2, "--out", tmp_path / "m"]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "DimensionMismatch" and "hop 0.05" in err["message"]
        assert not (tmp_path / "m" / "model.npz").exists()

    @pytest.mark.parametrize("name, what", [("song_0004_empty", "validation"),
                                            ("song_empty", "training")])
    def test_song_with_no_frames_exits_one(self, dataset, tmp_path, capsys, name, what):
        # seed 0 splits 7 songs 4/1/2: the 6th by name is validated, the 7th trained on
        data = tmp_path / "data"
        data.mkdir()
        for path in dataset.glob("song_*"):
            (data / path.name).write_bytes(path.read_bytes())
        feat = features.load_features(dataset / "song_0000.cqtf")
        features.save_features(features.FeatureMatrix(np.zeros((0, feat.n_bins), np.float32),
                                                      feat.hop), data / f"{name}.cqtf")
        (data / f"{name}.tsv").write_text("")
        capsys.readouterr()
        assert run(["train", "--data", data, "--epochs", 2, "--out", tmp_path / "m" / "run"]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "EmptyDataset"
        assert err["message"].startswith(what) and err["message"].endswith("has no frames")
        assert not (tmp_path / "m").exists()


class TestPredictSmoothEval:
    def test_pipeline(self, dataset, trained, tmp_path, capsys):
        pred = tmp_path / "pred"
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf",
                    "--out", pred]) == 0
        assert (pred / "labels.tsv").exists()
        with np.load(pred / "posteriors.npz") as saved:
            post = saved["posteriors"]
        assert post.shape[1] == 170
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-6)

        smooth = tmp_path / "smooth"
        assert run(["smooth", "--post", pred / "posteriors.npz",
                    "--beta", 0.3, "--out", smooth]) == 0
        assert (smooth / "labels.tsv").exists()

        capsys.readouterr()
        assert run(["eval", "--ref", dataset / "song_0000.tsv",
                    "--est", smooth / "labels.tsv", "--metric", "root"]) == 0
        line = capsys.readouterr().out.strip()
        float(line)  # a bare percentage

    def test_eval_identical_files_is_hundred(self, dataset, capsys):
        capsys.readouterr()
        assert run(["eval", "--ref", dataset / "song_0000.tsv",
                    "--est", dataset / "song_0000.tsv"]) == 0
        assert capsys.readouterr().out.strip() == "100.0"

    def test_predict_with_beats(self, dataset, trained, tmp_path):
        beats = tmp_path / "beats.txt"
        beats.write_text("".join(f"{t:.3f}\n" for t in np.arange(0.5, 10.0, 0.5)))
        out = tmp_path / "pred_beats"
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf",
                    "--beat-file", beats, "--beat-division", "1",
                    "--out", out]) == 0
        rows = (out / "labels.tsv").read_text().splitlines()
        assert len(rows) == 20  # prepended head interval + 19 beat intervals

    def test_predict_perfect_division(self, dataset, trained, tmp_path):
        out = tmp_path / "pred_perfect"
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf",
                    "--beat-division", "perfect",
                    "--ann", dataset / "song_0000.tsv",
                    "--out", out]) == 0
        assert (out / "labels.tsv").exists()

    def test_perfect_division_on_predicted_labels(self, dataset, trained, tmp_path):
        """The 10 s song's n_frames * hop is written rounded down: the label
        file's end is the song's end, with no sub-step N tail to pool."""
        feat = features.load_features(dataset / "song_0000.cqtf")
        assert round(feat.n_frames * feat.hop, 6) < feat.n_frames * feat.hop
        argv = ["predict", "--model", trained / "model.npz",
                "--features", dataset / "song_0000.cqtf"]
        assert run([*argv, "--out", tmp_path / "p0"]) == 0
        assert run([*argv, "--beat-division", "perfect", "--ann", tmp_path / "p0" / "labels.tsv",
                    "--out", tmp_path / "p1"]) == 0
        ends = [annotate.load_annotation(tmp_path / p / "labels.tsv").duration
                for p in ("p0", "p1")]
        assert ends == [round(feat.n_frames * feat.hop, 6)] * 2

    def test_beat_predict_then_smooth_ends_at_song_duration(self, dataset, trained, tmp_path):
        from chordkit.features import load_features
        feat = load_features(dataset / "song_0000.cqtf")
        beats = tmp_path / "beats.txt"
        beats.write_text("".join(f"{t:.3f}\n" for t in np.arange(0.5, 10.0, 0.5)))
        pred, smooth = tmp_path / "pred", tmp_path / "smooth"
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf",
                    "--beat-file", beats, "--out", pred]) == 0
        assert run(["smooth", "--post", pred / "posteriors.npz", "--out", smooth]) == 0
        rows = [line.split("\t") for line in (smooth / "labels.tsv").read_text().splitlines()]
        assert len(rows) == 20  # one row per pooled interval
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][1]) == pytest.approx(feat.n_frames * feat.hop, abs=1e-6)

    def test_beats_past_the_song_end_are_dropped(self, dataset, trained, tmp_path):
        from chordkit.features import load_features
        feat = load_features(dataset / "song_0000.cqtf")
        beats = tmp_path / "beats.txt"
        beats.write_text("0.5\n1\n50\n60\n")
        pred, smooth = tmp_path / "pred", tmp_path / "smooth"
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf",
                    "--beat-file", beats, "--out", pred]) == 0
        assert run(["smooth", "--post", pred / "posteriors.npz", "--out", smooth]) == 0
        duration = feat.n_frames * feat.hop
        for labels in (pred / "labels.tsv", smooth / "labels.tsv"):
            rows = [line.split("\t") for line in labels.read_text().splitlines()]
            assert float(rows[-1][1]) == pytest.approx(duration, abs=1e-6)
            assert all(float(end) <= duration + 1e-6 for _, end, _ in rows)

    def test_perfect_division_requires_ann(self, dataset, trained, tmp_path):
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf",
                    "--beat-division", "perfect",
                    "--out", tmp_path / "x"]) == 1

    @pytest.mark.parametrize("flags, named", [
        (["--beat-division", "0.5"], "--beat-file"),
        (["--ann", "{ann}"], "--ann"),
        (["--beat-division", "perfect", "--ann", "{ann}", "--beat-file", "{beats}"],
         "--beat-file"),
    ], ids=["division-without-beats", "ann-without-perfect", "beats-with-perfect"])
    def test_unread_beat_flag_exits_one(self, dataset, trained, tmp_path, capsys, flags, named):
        beats = tmp_path / "beats.txt"
        beats.write_text("0.5\n1.0\n")
        out = tmp_path / "pred"
        flags = [f.format(ann=dataset / "song_0000.tsv", beats=beats) for f in flags]
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf", *flags, "--out", out]) == 1
        error = _one_json_error(capsys)
        assert error["error"] == "ChordkitError" and named in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("with_beats, division", [(False, None), (True, "1")])
    def test_manifest_records_the_division_used(self, dataset, trained, tmp_path, with_beats,
                                                division):
        beats = tmp_path / "beats.txt"
        beats.write_text("0.5\n1.0\n")
        out = tmp_path / "pred"
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf",
                    *(["--beat-file", beats] if with_beats else []), "--out", out]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["beat_division"] == division

    @pytest.mark.parametrize("mode", [[], ["--beta", "0.001"], ["--max-marginal"]],
                             ids=["viterbi", "low-beta", "max-marginal"])
    def test_column_major_posteriors_smooth_to_the_same_labels(self, dataset, trained, tmp_path,
                                                               mode):
        """np.load keeps a saved array's memory order; smooth's labels do not see it."""
        pred = tmp_path / "pred"
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf", "--out", pred]) == 0
        with np.load(pred / "posteriors.npz") as saved:
            arrays = {k: saved[k] for k in saved.files}
        arrays["posteriors"] = np.asfortranarray(arrays["posteriors"])
        np.savez(tmp_path / "fortran.npz", **arrays)
        with np.load(tmp_path / "fortran.npz") as saved:
            assert saved["posteriors"].flags.f_contiguous
        for post, out in ((pred / "posteriors.npz", "c"), (tmp_path / "fortran.npz", "f")):
            assert run(["smooth", "--post", post, *mode, "--out", tmp_path / out]) == 0
        assert (tmp_path / "f" / "labels.tsv").read_bytes() == \
            (tmp_path / "c" / "labels.tsv").read_bytes()

    @pytest.mark.parametrize("division", ["0.5", "perfect"])
    def test_pooled_labels_have_one_line_per_row(self, dataset, trained, tmp_path, division):
        """predict's and smooth's label files of pooled rows hold one line per
        posteriorgram row, on that row's interval; beats every 60/BPM s."""
        for song in json.loads((dataset / "dataset.json").read_text())["songs"]:
            name = song["name"]
            if division == "perfect":
                flags = ["--ann", dataset / f"{name}.tsv"]
            else:
                period = 60.0 / song["bpm"]
                beats = tmp_path / f"{name}.txt"
                beats.write_text("".join(f"{i * period:.6f}\n"
                                         for i in range(int(10 / period) + 1)))
                flags = ["--beat-file", beats]
            pred, smooth = tmp_path / name / "pred", tmp_path / name / "smooth"
            assert run(["predict", "--model", trained / "model.npz",
                        "--features", dataset / f"{name}.cqtf", "--beat-division", division,
                        *flags, "--out", pred]) == 0
            assert run(["smooth", "--post", pred / "posteriors.npz", "--out", smooth]) == 0
            with np.load(pred / "posteriors.npz") as saved:
                intervals = saved["intervals"]
            for labels in (pred / "labels.tsv", smooth / "labels.tsv"):
                times = np.array([line.split("\t")[:2]
                                  for line in labels.read_text().splitlines()], dtype=np.float64)
                assert times.shape == intervals.shape, labels
                assert np.abs(times - intervals).max() <= 1e-6, labels


def _one_json_error(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"}
    return err


def _rewrite_checkpoint(src, dst, drop=(), **replace):
    """Copy a checkpoint without the arrays in ``drop``; a callable in
    ``replace`` maps the stored array to its replacement."""
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files if k not in drop}
    arrays.update({k: v(arrays[k]) if callable(v) else v for k, v in replace.items()})
    np.savez(dst, **arrays)
    return dst


def _one_nan(array):
    array = array.copy()
    array.flat[7] = np.nan
    return array


class TestVocabularyMismatch:
    """A model, posteriorgram or checkpoint that does not fit the vocabulary
    fails with exit 1 and one JSON error line, never with wrong labels."""

    def _predict(self, dataset, checkpoint, tmp_path):
        return run(["predict", "--model", checkpoint,
                    "--features", dataset / "song_0000.cqtf",
                    "--out", tmp_path / "pred"])

    def test_predict_rejects_other_class_count(self, dataset, tmp_path, capsys):
        from chordkit.model import init_params, save_checkpoint
        from chordkit.vocab import vocabulary_26
        checkpoint = tmp_path / "small.npz"
        save_checkpoint(init_params("logistic", 216, vocabulary_26()), checkpoint)
        capsys.readouterr()
        assert self._predict(dataset, checkpoint, tmp_path) == 1  # default --vocab 170
        assert _one_json_error(capsys)["error"] == "VocabularyMismatch"
        assert not (tmp_path / "pred" / "labels.tsv").exists()

    def test_predict_rejects_other_vocabulary_hash(self, dataset, trained, tmp_path, capsys):
        meta = json.loads(str(np.load(trained / "model.npz")["meta"]))
        meta["vocab_hash"] = "0" * 64
        checkpoint = _rewrite_checkpoint(trained / "model.npz", tmp_path / "m.npz",
                                         meta=json.dumps(meta))
        capsys.readouterr()
        assert self._predict(dataset, checkpoint, tmp_path) == 1
        assert _one_json_error(capsys)["error"] == "VocabularyMismatch"

    def test_smooth_rejects_other_column_count(self, tmp_path, capsys):
        from chordkit.model import save_posteriors
        from chordkit.vocab import manifest_hash, vocabulary_26
        post = tmp_path / "post.npz"
        save_posteriors(post, np.full((10, 26), 1.0 / 26), manifest_hash(vocabulary_26()), 0.1)
        capsys.readouterr()
        assert run(["smooth", "--post", post, "--out", tmp_path / "s"]) == 1
        assert _one_json_error(capsys)["error"] == "VocabularyMismatch"

    @pytest.mark.parametrize("drop, replace", [
        (("meta",), {}),
        (("w_Wc",), {}),
        (("mean",), {}),
        ((), {"meta": "{not json"}),
        ((), {"mean": lambda a: a[:1], "std": lambda a: a[:1]}),
        ((), {"w_Wc": _one_nan}),
        ((), {"w_Wc": lambda a: a[:, :26]}),
    ], ids=["no-meta", "no-weight", "no-mean", "bad-json", "short-moments", "nan-weight",
            "narrow-weight"])
    def test_predict_rejects_broken_checkpoint(self, dataset, trained, tmp_path, capsys,
                                               drop, replace):
        checkpoint = _rewrite_checkpoint(trained / "model.npz", tmp_path / "m.npz",
                                         drop=drop, **replace)
        capsys.readouterr()
        assert self._predict(dataset, checkpoint, tmp_path) == 1
        assert _one_json_error(capsys)["error"] == "BadCheckpoint"
        assert not (tmp_path / "pred" / "labels.tsv").exists()

    def test_predict_rejects_bare_array(self, dataset, tmp_path, capsys):
        checkpoint = tmp_path / "weights.npy"
        np.save(checkpoint, np.zeros(3))
        capsys.readouterr()
        assert self._predict(dataset, checkpoint, tmp_path) == 1
        assert _one_json_error(capsys)["error"] == "BadCheckpoint"


class TestLoaderFailures:
    """A malformed input file fails with exit 1 and one JSON error line."""

    @pytest.mark.parametrize("field, value, error", [
        ("n_frames", 2 ** 62, "TruncatedPayload"),
        ("hop", 0.0, "BadHeader"),
        ("n_bins", 0, "BadHeader"),
        ("bins_per_octave", 0, "BadBinConfig"),
    ])
    def test_predict_rejects_bad_features(self, trained, tmp_path, capsys, field, value, error):
        from test_features import forged_cqtf
        cqtf = forged_cqtf(tmp_path / "a.cqtf", field, value)
        capsys.readouterr()
        assert run(["predict", "--model", trained / "model.npz", "--features", cqtf,
                    "--out", tmp_path / "pred"]) == 1
        assert _one_json_error(capsys)["error"] == error

    def test_predict_rejects_nan_features(self, dataset, trained, tmp_path, capsys):
        from chordkit.features import load_features, save_features
        feat = load_features(dataset / "song_0000.cqtf")
        feat.data[10:12] = np.nan
        save_features(feat, tmp_path / "nan.cqtf")
        capsys.readouterr()
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", tmp_path / "nan.cqtf", "--out", tmp_path / "pred"]) == 1
        assert _one_json_error(capsys)["error"] == "NonFiniteFeatures"
        assert not (tmp_path / "pred" / "labels.tsv").exists()

    @pytest.mark.parametrize("command", ["predict", "augment"])
    def test_features_with_no_frames_exit_one(self, dataset, trained, tmp_path, capsys, command):
        feat = features.load_features(dataset / "song_0000.cqtf")
        cqtf, ann = tmp_path / "empty.cqtf", tmp_path / "empty.tsv"
        features.save_features(features.FeatureMatrix(np.zeros((0, feat.n_bins), np.float32),
                                                      feat.hop), cqtf)
        ann.write_text("")
        flags = {"predict": ["--model", trained / "model.npz"],
                 "augment": ["--ann", ann, "--shift", 2]}[command]
        capsys.readouterr()
        assert run([command, "--features", cqtf, *flags, "--out", tmp_path / "out"]) == 1
        assert _one_json_error(capsys) == {"error": "EmptySequence",
                                           "message": f"features {cqtf} span no frame"}
        assert not (tmp_path / "out").exists()

    @pytest.fixture(scope="class")
    def posteriors(self, dataset, trained, tmp_path_factory):
        pred = tmp_path_factory.mktemp("pred")
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf", "--out", pred]) == 0
        return pred / "posteriors.npz"

    @pytest.mark.parametrize("damage", ["empty", "bare-npy", "truncated", "garbled"])
    def test_smooth_rejects_unreadable_posteriors(self, posteriors, tmp_path, capsys, damage):
        path = tmp_path / "post.npz"
        raw = posteriors.read_bytes()
        if damage == "bare-npy":
            path = tmp_path / "post.npy"
            with np.load(posteriors) as saved:
                np.save(path, saved["posteriors"])
        else:
            path.write_bytes({"empty": b"", "truncated": raw[:len(raw) // 2],
                              "garbled": raw[:40] + bytes(len(raw) - 40)}[damage])
        capsys.readouterr()
        assert run(["smooth", "--post", path, "--out", tmp_path / "s"]) == 1
        assert _one_json_error(capsys)["error"] == "BadPosteriors"

    @pytest.mark.parametrize("damage", ["nan", "reversed", "zero-length", "gap",
                                        "before-zero"])
    def test_smooth_rejects_intervals_off_a_time_axis(self, dataset, trained, tmp_path,
                                                      capsys, damage):
        beats = tmp_path / "beats.txt"
        beats.write_text("".join(f"{t:.3f}\n" for t in np.arange(0.5, 10.0, 0.5)))
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf",
                    "--beat-file", beats, "--out", tmp_path / "pred"]) == 0
        with np.load(tmp_path / "pred" / "posteriors.npz") as saved:
            arrays = {k: saved[k] for k in saved.files}
        times = arrays["intervals"]
        if damage == "nan":
            times[3] = np.nan
        elif damage == "reversed":
            times = times[::-1]
        elif damage == "zero-length":
            times[3, 1] = times[4, 0] = times[3, 0]
        elif damage == "before-zero":
            times[0, 0] = -1.0
        else:
            times[5:] += 0.25
        arrays["intervals"] = times
        np.savez(tmp_path / "post.npz", **arrays)
        capsys.readouterr()
        assert run(["smooth", "--post", tmp_path / "post.npz", "--out", tmp_path / "s"]) == 1
        assert _one_json_error(capsys)["error"] == "BadPosteriors"
        assert not (tmp_path / "s" / "labels.tsv").exists()

    def test_smooth_rejects_other_vocabulary_hash(self, posteriors, tmp_path, capsys):
        with np.load(posteriors) as saved:
            arrays = {k: saved[k] for k in saved.files}
        meta = json.loads(str(arrays["meta"]))
        meta["vocab_hash"] = "0" * 64
        arrays["meta"] = json.dumps(meta)
        np.savez(tmp_path / "post.npz", **arrays)
        capsys.readouterr()
        assert run(["smooth", "--post", tmp_path / "post.npz", "--out", tmp_path / "s"]) == 1
        assert _one_json_error(capsys)["error"] == "VocabularyMismatch"

    @pytest.mark.parametrize("line", [b"nan", b"inf", b"abc", b"\xff\xfe"])
    def test_predict_rejects_bad_beat_line(self, dataset, trained, tmp_path, capsys, line):
        beats = tmp_path / "beats.txt"
        beats.write_bytes(b"0.5\n1.0\n" + line + b"\n2.0\n")
        capsys.readouterr()
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf", "--beat-file", beats,
                    "--out", tmp_path / "pred"]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "MalformedLine" and err["message"].startswith("line 3:")
        assert issubclass(getattr(errors, err["error"]), errors.ChordkitError)
        assert not (tmp_path / "pred" / "labels.tsv").exists()

    def test_predict_rejects_negative_beat_time(self, dataset, trained, tmp_path, capsys):
        beats = tmp_path / "beats.txt"
        beats.write_text("-1.0\n0.5\n1.0\n2.0\n")
        capsys.readouterr()
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf", "--beat-file", beats,
                    "--out", tmp_path / "pred"]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "MalformedLine" and err["message"].startswith("line 1:")
        assert not (tmp_path / "pred" / "labels.tsv").exists()

    def test_eval_names_a_negative_start(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("-1.0\t0.5\tC:maj\n0.5\t1.0\tG:maj\n")
        capsys.readouterr()
        assert run(["eval", "--ref", dataset / "song_0000.tsv", "--est", bad]) == 1
        err = _one_json_error(capsys)
        assert err == {"error": "NonMonotoneTimes",
                       "message": "line 1: start -1.0 is negative"}

    @pytest.mark.parametrize("tail", [b"1.0\tnan\tG:maj\n", b"1.0\tinf\tG:maj\n",
                                      b"1.0\t2.0\tG:\xe9\n", b"1.0\t2.0\tC:maj(8)\n"])
    @pytest.mark.parametrize("side", ["ref", "est"])
    def test_eval_rejects_bad_annotation(self, dataset, tmp_path, capsys, tail, side):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"0.0\t1.0\tC:maj\n" + tail)
        files = {"ref": dataset / "song_0000.tsv", "est": dataset / "song_0000.tsv", side: bad}
        capsys.readouterr()
        assert run(["eval", "--ref", files["ref"], "--est", files["est"]]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "MalformedLine" and err["message"].startswith("line 2:")
        assert issubclass(getattr(errors, err["error"]), errors.ChordkitError)


class TestReport:
    def test_report_outputs(self, dataset, tmp_path):
        out = tmp_path / "report"
        assert run(["report", "--ref-dir", dataset, "--est-dir", dataset,
                    "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["songs"] == 6
        for kind in ("acc", "root", "third", "seventh", "mirex", "majmin"):
            assert report["wcsr"][kind] == pytest.approx(100.0)
        assert report["acc_class"] == pytest.approx(100.0)
        assert (out / "per_song.csv").exists()
        assert (out / "confusion_quality.csv").exists()
        assert (out / "confusion_root.csv").exists()
        assert (out / "incorrect_region_lengths.csv").exists()

    def test_report_scores_predict_labels_like_eval(self, dataset, trained, tmp_path, capsys):
        est = tmp_path / "est"
        est.mkdir()
        for cqtf in sorted(dataset.glob("*.cqtf")):
            pred = tmp_path / cqtf.stem
            assert run(["predict", "--model", trained / "model.npz", "--features", cqtf,
                        "--out", pred]) == 0
            (est / f"{cqtf.stem}.tsv").write_bytes((pred / "labels.tsv").read_bytes())
        # frame-wise labels end at n_frames * hop, past the 10 s reference
        last_end = float((est / "song_0000.tsv").read_text().splitlines()[-1].split("\t")[1])
        assert last_end > 10.0
        out = tmp_path / "report"
        assert run(["report", "--ref-dir", dataset, "--est-dir", est, "--out", out]) == 0
        with open(out / "per_song.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row in rows:
            capsys.readouterr()
            assert run(["eval", "--ref", dataset / row["song"], "--est", est / row["song"],
                        "--metric", "root"]) == 0
            assert capsys.readouterr().out.strip() == f"{float(row['root']):.1f}"

    def test_every_score_is_the_wcsr_of_pairs_built_anew(self, dataset, trained, tmp_path):
        """Each per_song.csv cell and pooled report.json score equals round(wcsr,
        4) of pairs read anew for that one score, so no refinement is shared:
        empty or null where the comparator is undefined (the sus4 song)."""
        ref, est = tmp_path / "ref", tmp_path / "est"
        ref.mkdir()
        est.mkdir()
        for cqtf in sorted(dataset.glob("*.cqtf")):
            assert run(["predict", "--model", trained / "model.npz", "--features", cqtf,
                        "--out", tmp_path / cqtf.stem]) == 0
            for folder, labels in ((est, tmp_path / cqtf.stem / "labels.tsv"),
                                   (ref, cqtf.with_suffix(".tsv"))):
                (folder / f"{cqtf.stem}.tsv").write_bytes(labels.read_bytes())
        for folder in (ref, est):
            (folder / "sus4.tsv").write_text("0.000000\t4.000000\tC:sus4\n"
                                              "4.000000\t8.000000\tG:sus4\n")
        out = tmp_path / "report"
        assert run(["report", "--ref-dir", ref, "--est-dir", est, "--out", out]) == 0
        vocab = get_vocabulary(170)

        def score(kind, names):
            pairs = [cli._scored_pair(annotate.load_annotation(ref / name),
                                      annotate.load_annotation(est / name), vocab)
                     for name in names]
            try:
                return round(metrics.wcsr(kind, pairs, vocab), 4)
            except errors.ZeroDefinedTime:
                return None

        with open(out / "per_song.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        pooled = json.loads((out / "report.json").read_text())["wcsr"]
        for kind in metrics.MetricKind:
            for row in rows:
                cell = row[kind.value]
                assert (float(cell) if cell else None) == score(kind, [row["song"]]), (row, kind)
            assert pooled[kind.value] == score(kind, [row["song"] for row in rows]), kind
        assert rows[-1]["song"] == "sus4.tsv" and rows[-1]["seventh"] == ""

    def test_no_matching_files_fails_with_one_json_line(self, dataset, tmp_path, capsys):
        (tmp_path / "est").mkdir()
        (tmp_path / "est" / "other.tsv").write_text("0.000000\t1.000000\tC:maj\n")
        capsys.readouterr()
        assert run(["report", "--ref-dir", dataset, "--est-dir", tmp_path / "est",
                    "--out", tmp_path / "report"]) == 1
        assert _one_json_error(capsys)["error"] == "ChordkitError"
        assert not (tmp_path / "report" / "report.json").exists()

    def test_per_song_cell_blank_where_comparator_is_undefined(self, tmp_path):
        """seventh and majmin are undefined on sus4; the song scores
        nothing there, while the other song still does."""
        ref = tmp_path / "ref"
        ref.mkdir()
        (ref / "a.tsv").write_text("0.000000\t4.000000\tC:sus4\n4.000000\t8.000000\tG:sus4\n")
        (ref / "b.tsv").write_text("0.000000\t4.000000\tC:maj\n")
        out = tmp_path / "report"
        assert run(["report", "--ref-dir", ref, "--est-dir", ref, "--out", out]) == 0
        with open(out / "per_song.csv", newline="", encoding="utf-8") as fh:
            sus4, major = list(csv.DictReader(fh))
        assert sus4["song"] == "a.tsv" and major["song"] == "b.tsv"
        assert sus4["seventh"] == sus4["majmin"] == ""
        assert float(sus4["acc"]) == float(sus4["root"]) == 100.0
        assert float(major["seventh"]) == float(major["majmin"]) == 100.0

    def test_comparator_undefined_on_every_song_is_null(self, tmp_path):
        """seventh and majmin are undefined on sus4: blank cells and null
        pooled scores, computed before any file is written."""
        ref = tmp_path / "ref"
        ref.mkdir()
        (ref / "a.tsv").write_text("0.000000\t4.000000\tC:sus4\n4.000000\t8.000000\tG:sus4\n")
        out = tmp_path / "report"
        assert run(["report", "--ref-dir", ref, "--est-dir", ref, "--out", out]) == 0
        wcsr = json.loads((out / "report.json").read_text())["wcsr"]
        assert wcsr["seventh"] is None and wcsr["majmin"] is None
        assert wcsr["acc"] == wcsr["root"] == 100.0
        with open(out / "per_song.csv", newline="", encoding="utf-8") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["seventh"] == row["majmin"] == ""

    def test_acc_undefined_on_every_song_writes_nothing(self, tmp_path, capsys):
        ref = tmp_path / "ref"
        ref.mkdir()
        (ref / "a.tsv").write_text("0.000000\t4.000000\tX\n")
        capsys.readouterr()
        assert run(["report", "--ref-dir", ref, "--est-dir", ref,
                    "--out", tmp_path / "report"]) == 1
        assert _one_json_error(capsys)["error"] == "ZeroDefinedTime"
        assert not (tmp_path / "report").exists()

    def test_reference_that_spans_no_frame_is_named(self, dataset, tmp_path, capsys):
        ref = tmp_path / "ref"
        ref.mkdir()
        (ref / "song_0000.tsv").write_text("")
        (ref / "song_0001.tsv").write_bytes((dataset / "song_0001.tsv").read_bytes())
        capsys.readouterr()
        assert run(["report", "--ref-dir", ref, "--est-dir", dataset,
                    "--out", tmp_path / "report"]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "EmptySequence"
        assert err["message"] == f"reference {ref / 'song_0000.tsv'} spans no frame"
        assert not (tmp_path / "report").exists()

    def test_per_song_error_other_than_undefined_fails(self, dataset, tmp_path, capsys,
                                                         monkeypatch):
        wcsr = metrics.wcsr

        def failing_wcsr(kind, songs, vocab):
            if kind is metrics.MetricKind.SEVENTH and len(songs) == 1:
                raise errors.LengthMismatch("a comparator that fails, not one undefined")
            return wcsr(kind, songs, vocab)

        monkeypatch.setattr(metrics, "wcsr", failing_wcsr)
        capsys.readouterr()
        assert run(["report", "--ref-dir", dataset, "--est-dir", dataset,
                    "--out", tmp_path / "r"]) == 1
        assert _one_json_error(capsys)["error"] == "LengthMismatch"

    def test_each_song_pair_is_intersected_once(self, dataset, trained, tmp_path, monkeypatch):
        ref, est = tmp_path / "ref", tmp_path / "est"
        ref.mkdir()
        est.mkdir()
        for tsv in sorted(dataset.glob("*.tsv"))[:4]:
            (ref / tsv.name).write_bytes(tsv.read_bytes())
            assert run(["predict", "--model", trained / "model.npz", "--features",
                        tsv.with_suffix(".cqtf"), "--out", tmp_path / tsv.stem]) == 0
            (est / tsv.name).write_bytes((tmp_path / tsv.stem / "labels.tsv").read_bytes())
        calls = []
        intersect = metrics.intersect

        def counted(*timelines):
            calls.append(1)
            return intersect(*timelines)

        monkeypatch.setattr(metrics, "intersect", counted)
        assert run(["report", "--ref-dir", ref, "--est-dir", est, "--out", tmp_path / "r"]) == 0
        assert len(calls) == 4

    def test_eval_scores_early_ending_estimate_like_report(self, dataset, tmp_path, capsys):
        """An estimate cut at 5 s of a 10 s song reads as N for the rest, in
        eval as in report."""
        est = tmp_path / "est"
        est.mkdir()
        rows = []
        for line in (dataset / "song_0000.tsv").read_text().splitlines():
            start, end, label = line.split("\t")
            if float(start) < 5.0:
                rows.append(f"{start}\t{min(float(end), 5.0):.6f}\t{label}\n")
        (est / "song_0000.tsv").write_text("".join(rows))
        out = tmp_path / "report"
        assert run(["report", "--ref-dir", dataset, "--est-dir", est, "--out", out]) == 0
        with open(out / "per_song.csv", newline="", encoding="utf-8") as fh:
            (row,) = list(csv.DictReader(fh))
        capsys.readouterr()
        assert run(["eval", "--ref", dataset / "song_0000.tsv", "--est", est / "song_0000.tsv",
                    "--metric", "root"]) == 0
        assert capsys.readouterr().out.strip() == f"{float(row['root']):.1f}" == "50.0"


class TestLabelFilesLoad:
    """No command exits 0 having written a label file that load_annotation refuses."""

    def test_predict_refuses_a_row_that_rounds_to_nothing(self, dataset, trained, tmp_path,
                                                           capsys):
        beats = tmp_path / "beats.txt"
        beats.write_text("0\n0.0000004\n1\n2\n")
        capsys.readouterr()
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf", "--beat-file", beats,
                    "--out", tmp_path / "pred"]) == 1
        assert _one_json_error(capsys)["error"] == "NonMonotoneTimes"
        assert not (tmp_path / "pred" / "labels.tsv").exists()
        assert not (tmp_path / "pred" / "posteriors.npz").exists()

    def test_smooth_refuses_a_row_that_rounds_to_nothing(self, tmp_path, capsys):
        from chordkit.vocab import manifest_hash, vocabulary_170
        post = tmp_path / "post.npz"
        model.save_posteriors(post, np.full((3, 170), 1.0 / 170), manifest_hash(vocabulary_170()),
                              0.1, [(0.0, 4e-7), (4e-7, 1.0), (1.0, 2.0)])
        capsys.readouterr()
        assert run(["smooth", "--post", post, "--out", tmp_path / "s"]) == 1
        assert _one_json_error(capsys)["error"] == "NonMonotoneTimes"
        assert not (tmp_path / "s" / "labels.tsv").exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=st.lists(st.one_of(st.floats(1e-8, 2e-6), st.floats(0.01, 3.0)),
                          min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_pooled_rows_are_written_whole_or_not_at_all(self, tmp_path, steps, seed):
        """Rows with sub-microsecond intervals: either the label file loads
        back as the rows rounded to its decimals, or NonMonotoneTimes is
        raised and no file is left."""
        from chordkit.vocab import id_label, vocabulary_26
        vocab = vocabulary_26()
        bounds = np.concatenate(([0.0], np.cumsum(steps)))
        intervals = np.column_stack((bounds[:-1], bounds[1:]))
        ids = np.random.default_rng(seed).integers(0, vocab.size, len(steps))
        rounded = [(round(start, annotate.TIME_DECIMALS), round(end, annotate.TIME_DECIMALS))
                   for start, end in intervals.tolist()]
        out = tmp_path / "labels.tsv"
        out.unlink(missing_ok=True)
        if all(end > start for start, end in rounded):
            cli._write_labels(ids, 0.1, intervals, vocab, out)
            assert annotate.load_annotation(out).segments == tuple(
                (start, end, id_label(int(cid), vocab)) for (start, end), cid in zip(rounded, ids))
        else:
            with pytest.raises(errors.NonMonotoneTimes):
                cli._write_labels(ids, 0.1, intervals, vocab, out)
            assert not out.exists()

    def test_augment_refuses_a_segment_that_rounds_to_nothing(self, dataset, tmp_path, capsys):
        ann = tmp_path / "tiny.tsv"
        ann.write_text("0.0\t0.0000004\tC:maj\n0.0000004\t10.0\tG:maj\n")
        capsys.readouterr()
        assert run(["augment", "--features", dataset / "song_0000.cqtf", "--ann", ann,
                    "--shift", 2, "--out", tmp_path / "aug"]) == 1
        assert _one_json_error(capsys)["error"] == "NonMonotoneTimes"
        assert not (tmp_path / "aug").exists()

    @pytest.mark.parametrize("text, boundaries", [
        ("0\t1\tC:maj\n1.0000001\t10\tG:maj\n", ["0.000000", "1.000000", "10.000000"]),
        ("0\t1.0000005003\tC:maj\n1.0000004998\t10\tG:maj\n",
         ["0.000000", "1.000001", "10.000000"]),
        ("0.0000004\t5\tC:maj\n5\t10\tG:maj\n", ["0.000000", "5.000000", "10.000000"]),
    ], ids=["gap", "overlap", "leading-gap"])
    def test_boundaries_within_a_step_are_joined_by_every_reader(self, dataset, trained, tmp_path,
                                                                 capsys, text, boundaries):
        """What eval reads, augment and perfect division write back."""
        ann = tmp_path / "near.tsv"
        ann.write_text(text)
        capsys.readouterr()
        assert run(["eval", "--ref", ann, "--est", ann]) == 0
        assert capsys.readouterr().out.strip() == "100.0"
        assert run(["augment", "--features", dataset / "song_0000.cqtf", "--ann", ann,
                    "--shift", 2, "--out", tmp_path / "aug"]) == 0
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf", "--beat-division", "perfect",
                    "--ann", ann, "--out", tmp_path / "pred"]) == 0
        for labels in (tmp_path / "aug" / "song_0000_shift+2.tsv",
                       tmp_path / "pred" / "labels.tsv"):
            rows = [line.split("\t") for line in labels.read_text().splitlines()]
            assert [rows[0][0], rows[0][1], rows[1][1]] == boundaries
            assert rows[0][1] == rows[1][0]

    def test_failed_predict_leaves_no_out_it_made(self, dataset, trained, tmp_path, capsys):
        beats = tmp_path / "beats.txt"
        beats.write_text("0\n0.0000004\n1\n2\n")
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf", "--beat-file", beats,
                    "--out", tmp_path / "pred_tiny"]) == 1
        assert _one_json_error(capsys)["error"] == "NonMonotoneTimes"
        assert not (tmp_path / "pred_tiny").exists()

    @pytest.mark.parametrize("out", ["s", "n/a/s"], ids=["out", "out-and-parents"])
    def test_failed_smooth_leaves_no_out_it_made(self, tmp_path, capsys, out):
        from chordkit.vocab import manifest_hash, vocabulary_170
        post = tmp_path / "post.npz"
        model.save_posteriors(post, np.full((2, 170), 1.0 / 170), manifest_hash(vocabulary_170()),
                              0.1, [(0.0, 4e-7), (4e-7, 2.0)])
        assert run(["smooth", "--post", post, "--out", tmp_path / out]) == 1
        assert _one_json_error(capsys)["error"] == "NonMonotoneTimes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["post.npz"]

    def test_unexpected_exception_leaves_no_out_it_made(self, tmp_path, monkeypatch):
        def crash(ann, path):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(annotate, "save_annotation", crash)
        with pytest.raises(RuntimeError, match="disk on fire"):
            run(["synth", "--n", 1, "--duration", 2, "--out", tmp_path / "crash" / "a" / "b"])
        assert not (tmp_path / "crash").exists()

    def test_memory_error_exits_one_and_leaves_no_out_it_made(self, tmp_path, capsys,
                                                              monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 259 GiB")

        monkeypatch.setattr(features, "render_synthetic_cqt", too_large)
        capsys.readouterr()
        assert run(["synth", "--n", 1, "--duration", 2, "--out", tmp_path / "big" / "a"]) == 1
        assert _one_json_error(capsys) == {"error": "MemoryError",
                                           "message": "Unable to allocate 259 GiB"}
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("duration", [2, -1], ids=["valid", "invalid-too"])
    def test_out_that_is_a_file_exits_one_first(self, tmp_path, capsys, duration):
        taken = tmp_path / "taken"
        taken.write_bytes(b"kept\n")
        capsys.readouterr()
        assert run(["synth", "--n", 1, "--duration", duration, "--out", taken]) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "FileExistsError"
        assert taken.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_failed_run_keeps_an_out_that_existed(self, dataset, trained, tmp_path, capsys):
        beats, out = tmp_path / "beats.txt", tmp_path / "kept"
        beats.write_text("0\n0.0000004\n1\n2\n")
        out.mkdir()
        assert run(["predict", "--model", trained / "model.npz",
                    "--features", dataset / "song_0000.cqtf", "--beat-file", beats,
                    "--out", out]) == 1
        assert _one_json_error(capsys)["error"] == "NonMonotoneTimes"
        assert out.is_dir() and not any(out.iterdir())

    def test_synth_never_writes_a_tail_that_rounds_to_nothing(self, tmp_path, capsys):
        assert run(["synth", "--n", 1, "--seed", 7, "--duration", 1.8715923,
                    "--out", tmp_path]) == 0
        ann = annotate.load_annotation(tmp_path / "song_0000.tsv")
        assert ann.segments[-1][1] == pytest.approx(1.8715923, abs=1e-6)
        capsys.readouterr()
        assert run(["check-align", "--features", tmp_path / "song_0000.cqtf",
                    "--ann", tmp_path / "song_0000.tsv"]) == 0

    def test_predict_refuses_a_hidden_checkpoint_without_hidden_units(self, dataset, tmp_path,
                                                                      capsys):
        from chordkit.vocab import vocabulary_170
        hidden = tmp_path / "hidden.npz"
        params = model.init_params("hidden", 216, vocabulary_170(), hidden_units=4, context=1)
        model.save_checkpoint(params, hidden)
        meta = json.loads(str(np.load(hidden)["meta"]))
        f32 = np.float32
        checkpoint = _rewrite_checkpoint(
            hidden, tmp_path / "m.npz", meta=json.dumps({**meta, "hidden_units": 0}),
            w_W1=np.zeros((params.input_dim, 0), f32), w_b1=np.zeros(0, f32),
            w_Wr=np.zeros((0, 14), f32), w_Wp=np.zeros((0, 12), f32),
            w_W2=np.zeros((26, 170), f32))
        capsys.readouterr()
        assert run(["predict", "--model", checkpoint, "--features", dataset / "song_0000.cqtf",
                    "--out", tmp_path / "pred"]) == 1
        assert _one_json_error(capsys)["error"] == "BadCheckpoint"
        assert not (tmp_path / "pred" / "labels.tsv").exists()


class TestAugment:
    def test_shift_round_trip(self, dataset, tmp_path, capsys):
        out = tmp_path / "aug"
        assert run(["augment", "--features", dataset / "song_0000.cqtf",
                    "--ann", dataset / "song_0000.tsv", "--shift", 2,
                    "--out", out]) == 0
        assert (out / "song_0000_shift+2.cqtf").exists()
        # the transposed annotation scores 0 on root against the original
        # unless the original already used the shifted roots
        capsys.readouterr()
        assert run(["eval", "--ref", out / "song_0000_shift+2.tsv",
                    "--est", out / "song_0000_shift+2.tsv"]) == 0
        assert capsys.readouterr().out.strip() == "100.0"


class TestCheckAlign:
    @staticmethod
    def _irregular_pair(tmp_path):
        # irregular boundaries (no periodicity) on exact frame edges, so the
        # rendered features change in the same frame as the annotation
        from chordkit import annotate, features
        from chordkit.harte import parse_chord
        hop = annotate.DEFAULT_HOP
        # boundaries a quarter-frame past the edge: the annotation change and
        # the rendered feature change then land in the same frame index
        edges = [0.0] + [(i + 0.25) * hop for i in (17, 30, 61, 75, 110, 124)] \
            + [160 * hop]
        names = ["C:maj", "A:min", "F:maj", "G:7", "D:min7", "E:min", "C:maj"]
        segs = [(a, b, parse_chord(nm))
                for a, b, nm in zip(edges, edges[1:], names)]
        ann = annotate.fill_gaps(segs, duration=edges[-1])
        feat = features.render_synthetic_cqt(ann, annotate.grid_for(ann.duration))
        annotate.save_annotation(ann, tmp_path / "irregular.tsv")
        features.save_features(feat, tmp_path / "irregular.cqtf")
        return tmp_path / "irregular.cqtf", tmp_path / "irregular.tsv"

    def test_aligned_pair_has_zero_lag(self, tmp_path, capsys):
        cqtf, tsv = self._irregular_pair(tmp_path)
        capsys.readouterr()
        assert run(["check-align", "--features", cqtf, "--ann", tsv]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_shifted_features_report_the_shift(self, tmp_path, capsys):
        from chordkit import features
        cqtf, tsv = self._irregular_pair(tmp_path)
        feat = features.load_features(cqtf)
        delayed = np.vstack([np.tile(feat.data[0], (4, 1)), feat.data[:-4]])
        features.save_features(
            features.FeatureMatrix(data=delayed, hop=feat.hop,
                                   bins_per_octave=feat.bins_per_octave,
                                   floor_db=feat.floor_db),
            tmp_path / "delayed.cqtf")
        capsys.readouterr()
        assert run(["check-align", "--features", tmp_path / "delayed.cqtf",
                    "--ann", tsv]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_every_synthesized_song_is_aligned(self, dataset, capsys):
        """synth renders features that change exactly where the annotation does."""
        for cqtf in sorted(dataset.glob("*.cqtf")):
            capsys.readouterr()
            assert run(["check-align", "--features", cqtf,
                        "--ann", cqtf.with_suffix(".tsv")]) == 0
            assert capsys.readouterr().out.strip() == "0", cqtf.name

    def test_song_shorter_than_the_window(self, tmp_path, capsys):
        # 3 s is 33 frames, fewer than the default window of 50 lags
        assert run(["synth", "--n", 1, "--duration", 3, "--out", tmp_path]) == 0
        capsys.readouterr()
        assert run(["check-align", "--features", tmp_path / "song_0000.cqtf",
                    "--ann", tmp_path / "song_0000.tsv"]) == 0
        assert capsys.readouterr().out.strip() == "0"


class TestLibraryDefaults:
    """Defaults the CLI takes from the library."""

    def test_train_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["train", "--data", "d", "--out", "o"])
        cfg = model.TrainConfig()
        assert (args.epochs, args.batch_size, args.patch_seconds, args.learning_rate,
                args.alpha, args.gamma, args.shift_prob, args.arch) == (
            cfg.epochs, cfg.batch_size, cfg.patch_seconds, cfg.learning_rate,
            cfg.weight_alpha, cfg.structured_gamma, cfg.shift_probability, model.DEFAULT_ARCH)
        assert type(args.epochs) is int and type(args.learning_rate) is float

    def test_synth_and_check_align_defaults(self):
        parser = build_parser()
        synth = parser.parse_args(["synth", "--out", "o"])
        assert synth.duration == synthgen.ProgressionConfig().duration
        assert synth.noise == features.RenderParams().noise_db
        align = parser.parse_args(["check-align", "--features", "f", "--ann", "a"])
        assert align.window == annotate.ALIGN_WINDOW_FRAMES


class TestArgErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_arg_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--ref", "a.tsv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["smooth", "--post", "p.npz", "--out", "o", "--hop", "0.1"],
        ["predict", "--model", "m.npz", "--features", "f.cqtf", "--out", "o", "--seed", "1"],
        ["eval", "--ref", "a.tsv", "--est", "b.tsv", "--hop", "0.1"],
        ["augment", "--features", "f.cqtf", "--ann", "a.tsv", "--shift", "1", "--out", "o",
         "--vocab", "26"],
        ["check-align", "--features", "f.cqtf", "--ann", "a.tsv", "--seed", "1"],
    ], ids=["smooth-hop", "predict-seed", "eval-hop", "augment-vocab", "check-align-seed"])
    def test_flag_the_subcommand_does_not_read_exits_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["synth", "--hop", "0"], ["synth", "--hop", "-1"], ["synth", "--hop", "nan"],
        ["synth", "--noise", "inf"], ["synth", "--noise", "-1"], ["synth", "--noise", "nan"],
        ["synth", "--duration", "0"], ["synth", "--duration", "-5"],
        ["synth", "--n", "0"], ["synth", "--n", "-1"],
        ["report", "--hop", "0"], ["report", "--hop", "-0.1"],
    ], ids=lambda argv: " ".join(argv))
    def test_number_the_command_cannot_use_exits_one(self, dataset, tmp_path, capsys, argv):
        # a flag given twice takes its last value
        more = (["--n", 1, "--duration", 2] if argv[0] == "synth"
                else ["--ref-dir", dataset, "--est-dir", dataset])
        capsys.readouterr()
        assert run([argv[0], *more, *argv[1:], "--out", tmp_path / "out"]) == 1
        assert _one_json_error(capsys)["error"] == "ValueError"
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("argv", [
        ["--duration", "0.0000001"], ["--duration", "-1"], ["--noise", "-1"], ["--hop", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_synth_checks_every_input_before_making_out(self, tmp_path, capsys, argv):
        capsys.readouterr()
        assert run(["synth", "--n", 1, *argv, "--out", tmp_path / "out"]) == 1
        assert _one_json_error(capsys)["error"] == "ValueError"
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_one(self, capsys):
        assert run(["eval", "--ref", "/nonexistent/a.tsv",
                    "--est", "/nonexistent/b.tsv"]) == 1

    def test_console_script_installed(self):
        out = subprocess.run([sys.executable, "-m", "chordkit.cli", "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0

    def test_refused_command_exits_one_from_the_shell(self, tmp_path):
        """The process exits with the status main returns, not only argparse's."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "chordkit.cli", "synth", "--n", "0",
                               "--out", tmp_path / "out"], capture_output=True, text=True, env=env)
        assert done.returncode == 1 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert json.loads(line)["error"] == "ValueError"
        assert not (tmp_path / "out").exists()
