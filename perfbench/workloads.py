"""The benchmark's workloads: inputs, one timed operation, and its checks.

Every workload drives chordkit's public library functions in-process. The
seed picks the inputs (on ``experiment``, the training seed only); chordkit
only sees what is generated from it.

* ``experiment``: the paper's experiment on acceptance criterion 8's songs
  (render -> train -> predict -> Viterbi -> report). Model target building
  dominates.
* ``train_hidden_shift``: the same model layer used another way: hidden
  architecture, 26 classes and pitch-shift augmentation. Matmul-bound, so
  target building is a minor share.
* ``infer_eval``: label and score a held-out set of long songs read from
  disk with a fixed checkpoint. Decoding and metrics dominate; no training
  is timed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chordkit import annotate, decode, features, metrics, model, synthgen
from chordkit.errors import ZeroDefinedTime
from chordkit.metrics import MetricKind
from chordkit.vocab import get_vocabulary

# Input sizes. The training budgets (epochs, learning rate) are the
# benchmark's own: small enough that one run holds two or more operations,
# large enough that criterion 8's quality floors hold on the experiment.
# ``song_passes`` is how many more times each untraced operation's test songs
# are labelled after it, outside its timing, for per-song latency samples.
SIZES = {
    "experiment": {
        "songs": 300, "song_seconds": 30.0, "split": (180, 60, 60), "noise_db": 0.0,
        "classes": 170, "arch": "logistic", "epochs": 30, "learning_rate": 0.003,
        "alpha": 0.3, "gamma": 0.7, "shift_probability": 0.0, "song_passes": 4,
    },
    "train_hidden_shift": {
        "songs": 160, "song_seconds": 30.0, "split": (80, 20, 60), "noise_db": 6.0,
        "classes": 26, "arch": "hidden", "hidden_units": 64, "context": 5,
        "epochs": 10, "learning_rate": 0.003, "alpha": 0.3, "gamma": 0.7,
        "shift_probability": 0.5, "song_passes": 3,
    },
    "infer_eval": {
        "songs": 100, "song_seconds": (60.0, 240.0), "noise_db": 8.0, "classes": 170,
        "checkpoint_songs": 40, "checkpoint_seconds": 30.0, "checkpoint_epochs": 10,
        "checkpoint_learning_rate": 0.01, "checkpoint_shift_probability": 1.0,
        "setup_repeats": 3, "song_passes": 0,
    },
}

SMOOTHING_BETA = 0.15  # the CLI's default self-transition prior
FRAME_ACC_FLOOR = 90.0  # criterion 8
ROOT_WCSR_FLOOR = 95.0  # criterion 8


@dataclass
class SongResult:
    """One labelled and scored song."""

    seconds: float  # its latency, from loading to its per-song WCSR values
    hop: float
    scores: dict  # MetricKind value -> per-song WCSR, None where undefined
    ref_path: metrics.TimedPath
    est_path: metrics.TimedPath
    ref_ids: np.ndarray
    est_ids: np.ndarray
    raw_ids: np.ndarray
    failures: list[str]
    check_seconds: float


@dataclass
class Outcome:
    """What one timed operation produced."""

    songs: list[SongResult]
    wcsr: dict
    class_wise: tuple
    confusion: dict
    regions: int
    transitions: int
    history: list = field(default_factory=list)

    @property
    def frames(self) -> int:
        return sum(len(s.ref_ids) for s in self.songs)

    @property
    def frame_acc(self) -> float:
        """Raw ``predict_frames`` accuracy in percent."""
        return 100.0 * sum(int((s.raw_ids == s.ref_ids).sum()) for s in self.songs) / self.frames

    @property
    def check_seconds(self) -> float:
        """Time spent on per-song checks inside the operation."""
        return sum(s.check_seconds for s in self.songs)


def render_song(duration: float, noise_db: float, seed: int):
    ann, _, _ = synthgen.generate_song(synthgen.ProgressionConfig(duration=duration), seed)
    params = features.RenderParams(noise_db=noise_db, seed=seed + 1)
    return features.render_synthetic_cqt(ann, annotate.grid_for(duration), params), ann


def label_song(params, feat, ann, vocab, start: float) -> SongResult:
    """Predict, smooth and score one song; ``start`` is when its timing began.

    The song's checks run here, while its posteriorgram is at hand, and
    their time is reported apart so that it can be left out of the timings.
    """
    cfg = decode.DecoderConfig(SMOOTHING_BETA, vocab.size)
    ref_ids = annotate.frame_labels(ann, feat.grid(), vocab)
    post, _, _ = model.forward(params, feat)
    raw_ids = np.argmax(post, axis=1)  # predict_frames without a second forward pass
    est_ids = decode.viterbi_smooth(post, cfg)
    est_path = metrics.path_from_frames(est_ids, feat.hop)
    ref_path = metrics.path_from_annotation(ann, vocab)
    scores = {}
    for kind in MetricKind:
        try:
            scores[kind.value] = metrics.wcsr(kind, [(ref_path, est_path)], vocab)
        except ZeroDefinedTime:  # e.g. no seventh-comparable chord in the song
            scores[kind.value] = None
    done = time.perf_counter()
    failures = song_failures(est_ids, raw_ids, post, scores, cfg)
    return SongResult(done - start, feat.hop, scores, ref_path, est_path, ref_ids, est_ids,
                      raw_ids, failures, time.perf_counter() - done)


def report(songs: list[SongResult], vocab) -> Outcome:
    """The evaluation report's aggregates over all songs."""
    pairs = [(s.ref_path, s.est_path) for s in songs]
    frames = [(s.ref_ids, s.est_ids) for s in songs]
    return Outcome(
        songs=songs,
        wcsr={kind.value: metrics.wcsr(kind, pairs, vocab) for kind in MetricKind},
        class_wise=metrics.class_wise_scores(MetricKind.ACC, pairs, vocab),
        confusion={axis: metrics.confusion_matrix(axis, frames, vocab, row_normalize=True)
                   for axis in ("quality", "root")},
        regions=sum(len(decode.incorrect_regions(s.est_ids, s.ref_ids)) for s in songs),
        transitions=sum(decode.count_transitions(s.est_ids) for s in songs),
    )


# --- correctness checks, kept out of the timings ---

def song_failures(est_ids, raw_ids, post, scores, cfg) -> list[str]:
    out = []
    for name, ids in (("smoothed", est_ids), ("argmax", raw_ids)):
        if ids.min() < 0 or ids.max() >= cfg.n_classes:
            out.append(f"{name} label id outside [0, {cfg.n_classes})")
    viterbi = decode.path_log_score(est_ids, post, cfg)
    argmax = decode.path_log_score(raw_ids, post, cfg)
    if viterbi < argmax - 1e-9 * abs(argmax):
        out.append(f"Viterbi path log score {viterbi} below the argmax path's {argmax}")
    if scores["acc"] > scores["root"] + 1e-9:
        out.append(f"acc WCSR {scores['acc']} above root WCSR {scores['root']}")
    return out


def report_failures(outcome: Outcome, vocab) -> list[str]:
    """Class-wise scores weighted by each class's reference time must give
    back the overall acc WCSR (criterion 7's decomposition)."""
    ref_time: dict[int, float] = {}
    for song in outcome.songs:
        for start, end, chord in song.ref_path.intervals:
            if chord != vocab.x_id:
                ref_time[chord] = ref_time.get(chord, 0.0) + end - start
    _, _, table = outcome.class_wise
    if set(table) != set(ref_time):
        return ["class-wise table covers other classes than the reference"]
    total = sum(ref_time.values())
    rebuilt = sum(ref_time[c] / total * score for c, score in table.items())
    if abs(rebuilt - outcome.wcsr["acc"]) > 1e-6:
        return [f"class-wise scores rebuild acc WCSR {rebuilt}, overall is {outcome.wcsr['acc']}"]
    return []


class Workload:
    """Inputs from a seed, optional set-up, one timed operation, its checks."""

    per_song = False  # whether each song, not each operation, counts as attempted

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.vocab = get_vocabulary(sizes["classes"])
        self.setup_repeats = sizes.get("setup_repeats", 0)
        self.song_passes = sizes.get("song_passes", 0)
        self.labelled = None  # (model, test songs) of the last operation

    def setup(self) -> None:
        """Input preparation, timed as set-up, repeated ``setup_repeats`` times."""

    def operation(self) -> Outcome:
        raise NotImplementedError

    def failures(self, outcome: Outcome) -> list[str]:
        """Failures of the operation as a whole; songs carry their own."""
        return report_failures(outcome, self.vocab)

    def relabel(self, passes: int) -> list[list[SongResult]]:
        """Label the last operation's test songs ``passes`` more times with
        its model, then let go of them. Only training workloads have any."""
        return []


class Training(Workload):
    """Render -> train -> predict -> smooth -> report on the test split."""

    def data_seeds(self) -> tuple[int, int]:
        """(first song's generator seed, split seed)."""
        return self.seed * 1_000_003, self.seed

    def operation(self) -> Outcome:
        s = self.sizes
        base, split_seed = self.data_seeds()
        songs = [render_song(s["song_seconds"], s["noise_db"], base + i) for i in range(s["songs"])]
        order = np.random.default_rng(split_seed).permutation(len(songs))
        n_train, n_val, _ = s["split"]
        train_set = [songs[i] for i in order[:n_train]]
        val_set = [songs[i] for i in order[n_train:n_train + n_val]]
        test_set = [songs[i] for i in order[n_train + n_val:]]
        cfg = model.TrainConfig(epochs=s["epochs"], learning_rate=s["learning_rate"],
                                weight_alpha=s["alpha"], structured_gamma=s["gamma"],
                                shift_probability=s["shift_probability"], seed=self.seed)
        params, history = model.train(train_set, val_set, cfg, self.vocab, arch=s["arch"],
                                      hidden_units=s.get("hidden_units", 64),
                                      context=s.get("context", 5))
        results = [label_song(params, feat, ann, self.vocab, time.perf_counter())
                   for feat, ann in test_set]
        outcome = report(results, self.vocab)
        outcome.history = history
        self.labelled = (params, test_set)
        return outcome

    def relabel(self, passes):
        params, test_set = self.labelled
        self.labelled = None
        return [[label_song(params, feat, ann, self.vocab, time.perf_counter())
                 for feat, ann in test_set] for _ in range(passes)]

    def failures(self, outcome):
        run = super().failures(outcome)
        losses = [v for record in outcome.history for k, v in record.items() if k.endswith("loss")]
        if not all(math.isfinite(v) for v in losses):
            run.append("non-finite loss in the training history")
        return run


class Experiment(Training):
    """Criterion 8's own songs and split; the seed drives training only.

    Criterion 8's floors hold for its dataset, not for every dataset: on
    fresh song seeds, classes never seen in training (about 3% of test
    time) plus the aug/dim7 root ambiguity pushed root WCSR below 95% on
    two seeds in nine.
    """

    def data_seeds(self):
        return 1_000_003, 0

    def failures(self, outcome):
        run = super().failures(outcome)
        # criterion 8's measures: raw frame accuracy and raw root WCSR
        if outcome.frame_acc < FRAME_ACC_FLOOR:
            run.append(f"frame accuracy {outcome.frame_acc:.2f}% below {FRAME_ACC_FLOOR}%")
        raw = [(s.ref_path, metrics.path_from_frames(s.raw_ids, s.hop)) for s in outcome.songs]
        root = metrics.wcsr(MetricKind.ROOT, raw, self.vocab)
        if root < ROOT_WCSR_FLOOR:
            run.append(f"root WCSR {root:.2f}% below {ROOT_WCSR_FLOOR}%")
        return run


class InferEval(Workload):
    """Label and score songs read from disk with a fixed checkpoint."""

    per_song = True

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.params = None
        self.stems: list[str] = []

    def setup(self) -> None:
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        lo, hi = s["song_seconds"]
        n = s["songs"]
        # one length per equal-width stratum of [lo, hi): long songs always
        # reach p90, and the total work varies little between seeds
        durations = lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n
        base = self.seed * 1_000_003
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.stems = []
        for i, duration in enumerate(durations):
            feat, ann = render_song(float(duration), s["noise_db"], base + i)
            stem = f"song_{i:04d}"
            features.save_features(feat, self.workdir / f"{stem}.cqtf")
            annotate.save_annotation(ann, self.workdir / f"{stem}.tsv")
            self.stems.append(stem)
        train_set = [render_song(s["checkpoint_seconds"], s["noise_db"], base + n + i)
                     for i in range(s["checkpoint_songs"])]
        # pitch shifting covers every root, so the checkpoint's accuracy
        # varies little between seeds
        cfg = model.TrainConfig(epochs=s["checkpoint_epochs"],
                                learning_rate=s["checkpoint_learning_rate"],
                                shift_probability=s["checkpoint_shift_probability"],
                                weight_alpha=0.3, structured_gamma=0.7, seed=self.seed)
        params, _ = model.train(train_set, [], cfg, self.vocab)
        model.save_checkpoint(params, self.workdir / "model.npz")
        self.params = model.load_checkpoint(self.workdir / "model.npz")

    def operation(self) -> Outcome:
        results = []
        for stem in self.stems:
            start = time.perf_counter()
            feat = features.load_features(self.workdir / f"{stem}.cqtf")
            ann = annotate.load_annotation(self.workdir / f"{stem}.tsv")
            results.append(label_song(self.params, feat, ann, self.vocab, start))
        return report(results, self.vocab)


WORKLOADS = {
    "experiment": Experiment,
    "train_hidden_shift": Training,
    "infer_eval": InferEval,
}
