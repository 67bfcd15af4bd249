"""Frame-wise chord classifiers trained with manual backpropagation.

Two architectures are provided: ``logistic`` (a single softmax layer over
one frame) and ``hidden`` (one ReLU hidden layer over a context window of
frames, with auxiliary root and pitch-class heads whose logits are
concatenated with the hidden representation before the chord layer).

The loss is a convex combination of the class-weighted chord cross-entropy
and a structured term::

    L = gamma * L_chord + (1 - gamma) * (L_root + L_pitch)

L_root is a 14-way cross-entropy (12 roots plus N and X as their own
classes), L_pitch the mean of 12 binary cross-entropies against the
target's pitch-class membership (all-zero for N/X targets).

The chord, root and pitch logits of a batch share one class-major
[C + 26, n] buffer, which the model hands on as its [n, C + 26] transpose.
Each head is then one contiguous block with a frame per column (F order),
which numpy's reductions and elementwise passes walk in memory order. The
logistic model fills the buffer with a single ``[Wc|Wr|Wp].T @ x.T``; the
hidden model puts its chord logits ``W2.T @ [h|root|pitch].T`` above its root
and pitch logits. Softmax and sigmoid turn the blocks into probabilities in
place, the loss gradient overwrites those in place, and one ``x.T @ buffer``
gives the three weight gradients as its column blocks. The hidden layer's
context window is never copied out: offset by offset, the input rows shifted
by s = j - w times W1's row block j are added to the rows they reach, and
row block j of W1's gradient is those shifted rows, transposed, times the
gradient rows they reach, written in place. Frames past either end of the
input count as zeros, so no temporary grows with the window's width.

Input standardization is fitted song by song, == to the moments of all
training rows concatenated. Training memory does not grow with the batch:
an epoch's patch draws are made first, and each batch is then laid out
block by block in one reused buffer of at most ``BLOCK_ROWS`` rows of whole
patches, each patch pitch-shifted when its block is laid out, standardized
in place (== to :func:`standardize`) and followed by ``context`` rows of
0.0. Those rows are the zero padding of every context window at its own
patch's edges, as :func:`forward` pads a song, so no window reads a
neighbouring patch and results do not depend on ``BLOCK_ROWS``. One
function adds up the blocks' loss terms and gradients, each scaled by the
batch's frame count.

The model computes in its weights' dtype, and inputs are standardized into
it. :func:`train` and :func:`fit_rows` make the weights in the training
rows' dtype (float32 for features read from ``.cqtf`` files),
:func:`load_checkpoint` keeps the stored float32 arrays, and
:func:`init_params` makes float64 weights. Adam's moments follow the
weights. Only the loss is taken in float64, on the gathered target entries,
so that a float32 sigmoid saturated at 1 or a softmax entry underflowed to
0 still costs a finite loss (mixed precision: Micikevicius et al., ICLR
2018).

There is one optimizer and epoch loop (Adam, cosine learning rate,
per-epoch loss record, validation and best-parameter selection). Two batch
sources feed it: :func:`train` samples a patch per song each epoch, with
optional pitch shift, and :func:`fit_rows` shuffles ready-made feature rows
such as beat-pooled vectors.

Checkpoints and saved posteriorgrams are ``.npz`` archives with a JSON
``meta`` entry that records the vocabulary they belong to.
"""

from __future__ import annotations

import copy
import json
import math
import zipfile
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import vocab as vocab_mod
from .annotate import frame_labels, time_axis_fault
from .errors import (AllZeroCounts, BadCheckpoint, BadPosteriors, ChordkitError,
                     DimensionMismatch, EmptyDataset, LengthMismatch, NonFiniteLoss,
                     TargetOutOfRange, VocabularyMismatch)
from .features import FeatureMatrix, pitch_shift_cqt
from .vocab import Vocabulary, check_ids

N_ROOT_CLASSES = 14  # 12 roots + N + X
N_PITCH_CLASSES = 12
N_AUX = N_ROOT_CLASSES + N_PITCH_CLASSES  # root and pitch-class logits
SHIFT_CHOICES = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)
COUNT_GUARD = 10.0
VALIDATE_EVERY = 5  # epochs between validation passes; the last epoch always validates
ARCHITECTURES = ("logistic", "hidden")
DEFAULT_ARCH = ARCHITECTURES[0]
DEFAULT_HIDDEN_UNITS, DEFAULT_CONTEXT = 64, 5  # the hidden architecture's sizes
BLOCK_ROWS = 2048  # rows of a training block; a block holds at least one whole patch
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the ModelParams fields a checkpoint's meta records, besides its version
CHECKPOINT_FIELDS = ("arch", "n_bins", "n_classes", "hidden_units", "context", "vocab_hash")


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 150
    batch_size: int = 64
    patch_seconds: float = 10.0
    shift_probability: float = 0.0
    weight_alpha: float = 0.0
    structured_gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        for name in ("patch_seconds", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0 <= self.shift_probability <= 1:
            raise ValueError("shift_probability must lie in [0, 1]")
        if not 0 <= self.structured_gamma <= 1:
            raise ValueError("structured_gamma must lie in [0, 1]")
        if not (math.isfinite(self.weight_alpha) and self.weight_alpha >= 0):
            raise ValueError(f"weight_alpha must be finite and >= 0, got {self.weight_alpha!r}")


@dataclass
class ModelParams:
    arch: str  # one of ARCHITECTURES
    n_bins: int
    n_classes: int
    hidden_units: int = 0
    context: int = 0  # frames of context on each side (hidden arch)
    weights: dict = field(default_factory=dict)
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    vocab_hash: str = ""

    def __post_init__(self):
        """The one rule for which models exist: ValueError for any other."""
        sizes = (self.n_bins, self.n_classes, self.hidden_units, self.context)
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if not all(type(size) is int for size in sizes) or min(sizes[:2]) < 1:
            raise ValueError(f"sizes {sizes} are not ints with n_bins and n_classes >= 1")
        got = f"got hidden_units {self.hidden_units} and context {self.context}"
        if self.arch == "hidden" and not (self.hidden_units >= 1 and self.context >= 0):
            raise ValueError(f"a hidden model needs hidden_units >= 1 and context >= 0, {got}")
        if self.arch == "logistic" and (self.hidden_units or self.context):
            raise ValueError(f"a logistic model needs hidden_units and context 0, {got}")

    @property
    def dtype(self) -> np.dtype:
        """The dtype the model computes in: that of its weights."""
        return next(iter(self.weights.values())).dtype

    @property
    def input_dim(self) -> int:
        return self.n_bins * (2 * self.context + 1)

    @property
    def weight_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each weight array of the architecture, in the order
        :func:`init_params` draws them."""
        d, h, C = self.input_dim, self.hidden_units, self.n_classes
        if self.arch == "logistic":
            return {"Wc": (d, C), "bc": (C,), "Wr": (d, N_ROOT_CLASSES), "br": (N_ROOT_CLASSES,),
                    "Wp": (d, N_PITCH_CLASSES), "bp": (N_PITCH_CLASSES,)}
        return {"W1": (d, h), "b1": (h,), "Wr": (h, N_ROOT_CLASSES), "br": (N_ROOT_CLASSES,),
                "Wp": (h, N_PITCH_CLASSES), "bp": (N_PITCH_CLASSES,),
                "W2": (h + N_AUX, C), "b2": (C,)}


def init_params(arch: str, n_bins: int, vocab: Vocabulary,
                hidden_units: int = DEFAULT_HIDDEN_UNITS, context: int = DEFAULT_CONTEXT,
                seed: int = 0, scale: float = 0.01) -> ModelParams:
    rng = np.random.default_rng(seed)
    params = ModelParams(arch=arch, n_bins=n_bins, n_classes=vocab.size,
                         hidden_units=hidden_units if arch == "hidden" else 0,
                         context=context if arch == "hidden" else 0,
                         vocab_hash=vocab_mod.manifest_hash(vocab))
    # matrices draw from the generator in table order; biases start at zero
    for name, shape in params.weight_shapes.items():
        params.weights[name] = (rng.standard_normal(shape) * scale if len(shape) == 2
                                else np.zeros(shape))
    params.mean = np.zeros(n_bins)
    params.std = np.ones(n_bins)
    return params


# --- targets ---

def root_targets(ids: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    """14-way root class per chord id (12 = N, 13 = X)."""
    return vocab.tables.root[check_ids(ids, vocab)]


def pitch_targets(ids: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    """12-dim binary pitch-class membership per chord id (zeros for N/X)."""
    return vocab.tables.pitch[check_ids(ids, vocab)]


# --- class weighting ---

def expected_counts(counts: np.ndarray, p: float, vocab: Vocabulary) -> np.ndarray:
    """Expected per-class frame counts under pitch-shift probability p.

    Chord-class mass is redistributed as (1-p) identity plus p/12 to each of
    the 12 transpositions; N and X counts are unchanged.
    """
    counts = np.asarray(counts, dtype=np.float64)
    out = counts.copy()
    n_chord = vocab.n_id
    # row k: the count k semitones below; the axis-0 sum adds rows 0..11 in order
    spread = counts[vocab.tables.shifted[-np.arange(12) % 12, :n_chord]].sum(axis=0)
    out[:n_chord] = (1.0 - p) * counts[:n_chord] + (p / 12.0) * spread
    return out


def class_weights(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Normalized inverse-frequency weights with a +10 count guard.

    w_c = 1 / (count_c + 10)^alpha, rescaled so the count-weighted mean
    weight is exactly 1.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.sum() <= 0:
        raise AllZeroCounts("all class counts are zero")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    w = 1.0 / np.power(counts + COUNT_GUARD, alpha)
    s = float(np.dot(counts, w)) / float(counts.sum())
    return w / s


# --- forward pass ---

def _window_blocks(n: int, w: int):
    """(j, lo, hi, s) per context offset s = j - w in -w..w: rows lo..hi-1
    are those whose frame i + s lies inside the n input rows. Frames past
    either end are the window's zero padding and add nothing."""
    for j in range(2 * w + 1):
        s = j - w
        lo, hi = max(0, -s), min(n, n - s)
        if lo < hi:
            yield j, lo, hi, s


def _window_matmul(x: np.ndarray, W1: np.ndarray, w: int, out: np.ndarray) -> np.ndarray:
    """Each row's context window of frames i-w..i+w, zero-padded at the
    edges, times W1, written to ``out``: per offset s = j - w, the rows
    shifted by s times W1's row block j, added to the rows they reach."""
    d = x.shape[1]
    out[...] = 0.0
    for j, lo, hi, s in _window_blocks(len(x), w):
        out[lo:hi] += x[lo + s:hi + s] @ W1[j * d:(j + 1) * d]
    return out


def _window_grad(x: np.ndarray, d_pre: np.ndarray, w: int) -> np.ndarray:
    """Gradient of W1 in :func:`_window_matmul`: row block j is the rows
    shifted by s = j - w, transposed, times the d_pre rows they reach."""
    d = x.shape[1]
    g = np.zeros(((2 * w + 1) * d, d_pre.shape[1]), dtype=x.dtype)
    for j, lo, hi, s in _window_blocks(len(x), w):
        np.matmul(x[lo + s:hi + s].T, d_pre[lo:hi], out=g[j * d:(j + 1) * d])
    return g


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, in place."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, in place."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _heads(z: np.ndarray, n_classes: int):
    """Chord, root and pitch blocks of the last axis of a [..., C + 26] head buffer."""
    c = n_classes + N_ROOT_CLASSES
    return z[..., :n_classes], z[..., n_classes:c], z[..., c:]


def _forward_raw(params: ModelParams, x: np.ndarray):
    """(logits, cache): the chord, root and pitch logits side by side, as the
    [n, C + 26] transpose of one class-major buffer, and what backprop needs
    besides. x is standardized input; the cache is x (logistic) or the chord
    layer's input (hidden)."""
    w = params.weights
    if params.arch == "logistic":
        z = np.vstack((w["Wc"].T, w["Wr"].T, w["Wp"].T)) @ x.T
        z += np.concatenate((w["bc"], w["br"], w["bp"]))[:, None]
        return z.T, x
    n_h, C = params.hidden_units, params.n_classes
    # the chord layer's input: [h | root logits | pitch logits]
    combined = np.empty((len(x), n_h + N_AUX), dtype=x.dtype)
    h, aux = combined[:, :n_h], combined[:, n_h:]
    _window_matmul(x, w["W1"], params.context, out=h)
    h += w["b1"]
    np.maximum(h, 0.0, out=h)
    np.matmul(h, np.hstack((w["Wr"], w["Wp"])), out=aux)
    aux += np.concatenate((w["br"], w["bp"]))
    z = np.empty((C + N_AUX, len(x)), dtype=x.dtype)
    np.matmul(w["W2"].T, combined.T, out=z[:C])
    z[:C] += w["b2"][:, None]
    z[C:] = aux.T
    return z.T, combined


def _probabilities(z: np.ndarray, n_classes: int):
    """Turn a logits buffer into (posteriors, root_probs, pitch_probs) in place."""
    chord, root, pitch = _heads(z, n_classes)
    return _softmax(chord), _softmax(root), _sigmoid(pitch)


def standardize(params: ModelParams, data: np.ndarray, out=None) -> np.ndarray:
    """(data - mean) / std in the weights' dtype, into ``out`` or one new array."""
    x = np.subtract(data, params.mean, out=out, dtype=params.dtype)
    x /= params.std
    return x


def forward(params: ModelParams, feat: FeatureMatrix | np.ndarray):
    """Posteriorgram plus root and pitch-class probabilities per frame, each
    an [n, k] view of one class-major buffer."""
    data = feat.data if isinstance(feat, FeatureMatrix) else np.asarray(feat)
    if data.ndim != 2 or data.shape[1] != params.n_bins:
        raise DimensionMismatch(
            f"expected n x {params.n_bins} input, got {data.shape}")
    z, _ = _forward_raw(params, standardize(params, data))
    return _probabilities(z, params.n_classes)


def predict_frames(params: ModelParams, feat) -> np.ndarray:
    """Per-frame argmax chord ids (ties go to the lowest id)."""
    post, _, _ = forward(params, feat)
    return np.argmax(post, axis=1)


# --- loss ---

def _targets(targets, vocab: Vocabulary):
    """(chord, root, pitch) targets of a batch, each built once."""
    targets = check_ids(targets, vocab, TargetOutOfRange)
    return targets, root_targets(targets, vocab), pitch_targets(targets, vocab)


def _loss(outputs, targets, weights: np.ndarray, gamma: float, idx: np.ndarray,
          n: int) -> float:
    """Structured, class-weighted loss terms of the frames ``idx``, divided
    by n: their mean when n is their count, their share of a batch of n.

    The logs are taken in float64 on the gathered entries: in float32,
    ``1 - 1e-12`` rounds to 1 and ``1e-300`` to 0, so a saturated sigmoid or
    an underflowed softmax entry would give an infinite loss."""
    post, root_probs, pitch_probs = outputs
    chord_t, root_t, pitch_t = targets
    eps = 1e-300
    w_frame = weights[chord_t[idx]]
    p_chord = post[idx, chord_t[idx]].astype(np.float64)
    p_root = root_probs[idx, root_t[idx]].astype(np.float64)
    l_chord = float(np.sum(-w_frame * np.log(p_chord + eps)) / n)
    l_root = float(np.sum(-np.log(p_root + eps)) / n)
    p_t = pitch_t[idx]
    pp = np.clip(pitch_probs[idx].astype(np.float64), 1e-12, 1 - 1e-12)
    # targets are 0 or 1, so one log per entry gives each term of
    # p_t * log(pp) + (1 - p_t) * log(1 - pp): the other term is 0 * finite
    l_pitch = float(np.sum(-np.log(np.where(p_t > 0, pp, 1 - pp))) / (n * N_PITCH_CLASSES))
    return gamma * l_chord + (1.0 - gamma) * (l_root + l_pitch)


def total_loss(outputs, targets, weights: np.ndarray, gamma: float,
               vocab: Vocabulary, mask: np.ndarray | None = None) -> float:
    """Structured, class-weighted loss given probability outputs.

    ``outputs`` is the (posteriors, root_probs, pitch_probs) triple returned
    by :func:`forward`; ``mask`` marks frames included in the loss.
    """
    built = _targets(targets, vocab)
    idx = np.arange(len(built[0])) if mask is None else np.flatnonzero(mask)
    return _loss(outputs, built, weights, gamma, idx, len(idx))


def loss_and_grads(params: ModelParams, data: np.ndarray, targets: np.ndarray,
                   weights: np.ndarray, gamma: float, vocab: Vocabulary,
                   mask: np.ndarray | None = None):
    """Loss and analytic parameter gradients for one batch of frames."""
    n = len(targets) if mask is None else int(np.count_nonzero(mask))
    return _loss_and_grads(params, n, [(standardize(params, data), targets, mask)],
                           weights, gamma, vocab)


def _loss_and_grads(params: ModelParams, n: int, blocks, weights: np.ndarray, gamma: float,
                    vocab: Vocabulary):
    """Loss and gradients of a batch of n unmasked frames that arrives as
    ``blocks`` of standardized rows (x, targets, mask; a mask of None keeps
    every row): each block's loss terms and gradients, scaled by the batch's
    n, are added up."""
    if n == 0:
        raise EmptyDataset("batch contains no unmasked frames")
    loss, grads = 0.0, {}
    for x, targets, mask in blocks:
        block_loss, block_grads = _block_loss_and_grads(params, n, x, targets, weights,
                                                        gamma, vocab, mask)
        loss += block_loss
        if not grads:
            grads = block_grads
        else:
            for key, g in grads.items():
                g += block_grads[key]
    return loss, grads


def _block_loss_and_grads(params: ModelParams, n: int, x: np.ndarray, targets: np.ndarray,
                          weights: np.ndarray, gamma: float, vocab: Vocabulary,
                          mask: np.ndarray | None):
    """One block's share of :func:`_loss_and_grads` for a batch of n frames."""
    targets, r_t, p_t = built = _targets(targets, vocab)
    if mask is None:
        mask = np.ones(len(targets), dtype=bool)

    z, cache = _forward_raw(params, x)
    post, root_probs, pitch_probs = _probabilities(z, params.n_classes)
    loss = _loss((post, root_probs, pitch_probs), built, weights, gamma, np.flatnonzero(mask), n)

    # the probabilities become the loss gradients of the logits, in place;
    # a masked frame's row scales to zero
    rows = np.arange(len(targets))
    post[rows, targets] -= 1.0
    post *= ((gamma / n) * np.where(mask, weights[targets], 0.0))[:, None]
    root_probs[rows, r_t] -= 1.0
    root_probs *= np.where(mask, (1.0 - gamma) / n, 0.0)[:, None]
    pitch_probs -= p_t
    pitch_probs *= np.where(mask, (1.0 - gamma) / (n * N_PITCH_CLASSES), 0.0)[:, None]

    w, C = params.weights, params.n_classes
    if params.arch == "logistic":
        gc, gr, gp = _heads(cache.T @ z, C)
        bc, br, bp = _heads(z.sum(axis=0), C)
        return loss, {"Wc": gc, "bc": bc, "Wr": gr, "br": br, "Wp": gp, "bp": bp}
    n_h = params.hidden_units
    d_chord, d_aux = z[:, :C], z[:, C:]
    d_combined = d_chord @ w["W2"].T
    # aux logits feed both their own losses and the chord layer
    d_aux += d_combined[:, n_h:]
    h = cache[:, :n_h]
    gr, gp = np.split(h.T @ d_aux, [N_ROOT_CLASSES], axis=1)
    br, bp = np.split(d_aux.sum(axis=0), [N_ROOT_CLASSES])
    grads = {"W2": cache.T @ d_chord, "b2": d_chord.sum(axis=0),
             "Wr": gr, "br": br, "Wp": gp, "bp": bp}
    d_pre = d_combined[:, :n_h]
    d_pre += d_aux @ np.hstack((w["Wr"], w["Wp"])).T
    d_pre *= h > 0
    grads["W1"] = _window_grad(x, d_pre, params.context)
    grads["b1"] = d_pre.sum(axis=0)
    return loss, grads


# --- training ---

def cosine_lr(base: float, epoch: int, total_epochs: int) -> float:
    """Cosine decay from base to base / 10 over the run."""
    floor = base / 10.0
    if total_epochs <= 1:
        return base
    t = epoch / (total_epochs - 1)
    return floor + 0.5 * (base - floor) * (1.0 + math.cos(math.pi * t))


@dataclass
class _AdamState:
    m: dict
    v: dict
    t: int = 0


def _adam_step(params: ModelParams, grads: dict, state: _AdamState, lr: float) -> None:
    state.t += 1
    for key, g in grads.items():
        state.m[key] = ADAM_BETA1 * state.m[key] + (1 - ADAM_BETA1) * g
        state.v[key] = ADAM_BETA2 * state.v[key] + (1 - ADAM_BETA2) * g * g
        m_hat = state.m[key] / (1 - ADAM_BETA1 ** state.t)
        v_hat = state.v[key] / (1 - ADAM_BETA2 ** state.t)
        params.weights[key] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def dataset_frame_ids(dataset, vocab: Vocabulary):
    """Per-song frame id arrays for a list of (FeatureMatrix, Annotation)."""
    return [frame_labels(ann, feat.grid(), vocab) for feat, ann in dataset]


def _column_moments(blocks: list[np.ndarray]):
    """Column mean and std over the rows of all blocks, == to
    ``np.concatenate(blocks).mean(axis=0)`` and ``.std(axis=0)`` without the
    concatenation. numpy sums axis 0 row by row, so each block continues the
    running total from a carried row, and divides as its mean and var do."""
    if blocks[0].shape[1] == 1:
        # one column is summed pairwise, and is small enough to concatenate
        rows = np.concatenate(blocks)
        return rows.mean(axis=0), rows.std(axis=0)
    dtype = np.result_type(*blocks)
    n = sum(len(b) for b in blocks)
    carry = np.empty((max(len(b) for b in blocks) + 1, blocks[0].shape[1]), dtype=dtype)

    def column_mean(fill):
        carry[0] = 0.0
        for b in blocks:
            fill(b, carry[1:len(b) + 1])
            carry[0] = np.add.reduce(carry[:len(b) + 1], axis=0)
        # divided in float64, then rounded to the data's dtype
        return (carry[0] / np.float64(n)).astype(dtype)

    mean = column_mean(lambda b, rows: np.copyto(rows, b))
    var = column_mean(lambda b, rows: np.square(np.subtract(b, mean, out=rows), out=rows))
    return mean, np.sqrt(var)


def _standardized_init(arch: str, blocks: list[np.ndarray], vocab: Vocabulary,
                       cfg: TrainConfig, hidden_units: int, context: int) -> ModelParams:
    """Fresh parameters whose input standardization is fitted to the rows of
    ``blocks``, with weights in the rows' dtype."""
    params = init_params(arch, blocks[0].shape[1], vocab, hidden_units=hidden_units,
                         context=context, seed=cfg.seed)
    params.mean, std = _column_moments(blocks)
    params.std = np.where(std > 1e-8, std, 1.0)
    params.weights = {k: v.astype(params.mean.dtype) for k, v in params.weights.items()}
    return params


def _patch_batches(rng, dataset, ids_per_song, params: ModelParams, cfg: TrainConfig,
                   vocab: Vocabulary):
    """One epoch of ``train`` batches as (n, blocks): cfg.batch_size songs'
    patches, holding n frames, laid out block by block.

    Each song's patch start and optional pitch shift are drawn first, song by
    song. A block is whole patches in one buffer of BLOCK_ROWS rows (more if
    one patch needs them), reused by every block, so each (x, targets, mask)
    is valid until the next is laid out. A patch is pitch-shifted as it is
    laid out, standardized in place (== to :func:`standardize`) and followed
    by ``params.context`` rows of 0.0, the zero padding of its frames'
    context windows; the mask marks the patches' frames."""
    patch_frames = max(1, round(cfg.patch_seconds / dataset[0][0].hop))
    patches = []  # (song, frame ids, start, frames, shift)
    for (feat, _), ids in zip(dataset, ids_per_song):
        start = int(rng.integers(0, max(1, feat.n_frames - patch_frames + 1)))
        k = 0
        if cfg.shift_probability > 0 and rng.random() < cfg.shift_probability:
            k = int(SHIFT_CHOICES[rng.integers(0, len(SHIFT_CHOICES))])
        patches.append((feat, ids, start, min(patch_frames, feat.n_frames - start), k))

    w = params.context
    n_rows = max(BLOCK_ROWS, patch_frames + w)
    xs = np.empty((n_rows, dataset[0][0].n_bins), dtype=params.dtype)
    ys = np.empty(n_rows, dtype=np.int64)
    mask = np.empty(n_rows, dtype=bool)

    def blocks(batch):
        r = 0
        for feat, ids, start, m, k in batch:
            if r + m + w > n_rows:
                yield xs[:r], ys[:r], mask[:r]
                r = 0
            x, y = feat.data[start:start + m], ids[start:start + m]
            if k:
                x = pitch_shift_cqt(replace(feat, data=x), k).data
                y = vocab.tables.shifted[k % 12, y]
            standardize(params, x, out=xs[r:r + m])
            xs[r + m:r + m + w] = 0.0
            ys[r:r + m], ys[r + m:r + m + w] = y, 0
            mask[r:r + m], mask[r + m:r + m + w] = True, False
            r += m + w
        yield xs[:r], ys[:r], mask[:r]

    for b in range(0, len(patches), cfg.batch_size):
        batch = patches[b:b + cfg.batch_size]
        yield sum(m for _, _, _, m, _ in batch), blocks(batch)


def _row_batches(rng, rows: np.ndarray, targets: np.ndarray, params: ModelParams,
                 batch_size: int):
    """One epoch of ``fit_rows`` batches as (n, blocks): every row once, in
    shuffled order, standardized, one block per batch."""
    order = rng.permutation(len(rows))
    for b in range(0, len(order), batch_size):
        sel = order[b:b + batch_size]
        yield len(sel), [(standardize(params, rows[sel]), targets[sel], None)]


def _fit(params: ModelParams, epoch_batches, weights: np.ndarray, cfg: TrainConfig,
         vocab: Vocabulary, val=(), val_ids=()):
    """Adam over ``epoch_batches(rng)`` for cfg.epochs epochs with a cosine rate.

    ``epoch_batches`` returns one epoch's batches as (n, blocks), the blocks
    of standardized rows that :func:`_loss_and_grads` adds up, drawing from
    the run's one generator, seeded by cfg.seed. With ``val``, validation
    runs every VALIDATE_EVERY epochs and on the last one, and the parameters
    of the lowest validation loss are returned.
    """
    rng = np.random.default_rng(cfg.seed)
    adam = _AdamState(m={k: np.zeros_like(v) for k, v in params.weights.items()},
                      v={k: np.zeros_like(v) for k, v in params.weights.items()})
    history = []
    best_val = math.inf
    best_params = copy.deepcopy(params) if val else params

    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.learning_rate, epoch, cfg.epochs)
        epoch_loss, n_batches = 0.0, 0
        for n, blocks in epoch_batches(rng):
            loss, grads = _loss_and_grads(params, n, blocks, weights, cfg.structured_gamma, vocab)
            if not math.isfinite(loss):
                raise NonFiniteLoss(epoch)
            _adam_step(params, grads, adam, lr)
            epoch_loss += loss
            n_batches += 1

        record = {"epoch": epoch, "lr": lr, "train_loss": epoch_loss / n_batches}
        if val and (epoch % VALIDATE_EVERY == 0 or epoch == cfg.epochs - 1):
            val_loss, val_acc = evaluate(params, val, val_ids, weights,
                                         cfg.structured_gamma, vocab)
            record["val_loss"], record["val_acc"] = val_loss, val_acc
            if val_loss < best_val:
                best_val = val_loss
                best_params = copy.deepcopy(params)
        history.append(record)
    return best_params, history


def train(dataset, val, cfg: TrainConfig, vocab: Vocabulary, arch: str = DEFAULT_ARCH,
          hidden_units: int = DEFAULT_HIDDEN_UNITS, context: int = DEFAULT_CONTEXT):
    """Train a frame-wise classifier; returns (best_params, history).

    Each epoch samples one patch of cfg.patch_seconds per training song and
    independently pitch-shifts it with probability cfg.shift_probability.
    Validation runs every VALIDATE_EVERY epochs and the best-validation
    parameters are returned. Deterministic given cfg.seed.
    """
    if not dataset:
        raise EmptyDataset("empty training set")
    n_bins, hop = dataset[0][0].n_bins, dataset[0][0].hop
    for what, songs in (("training", dataset), ("validation", val)):
        for i, (feat, _) in enumerate(songs):
            if feat.n_bins != n_bins:
                raise DimensionMismatch(f"{what} song {i} has {feat.n_bins} bins; "
                                        f"song 0 has {n_bins}")
            if feat.hop != hop:
                raise DimensionMismatch(f"{what} song {i} has hop {feat.hop} s; "
                                        f"song 0 has {hop} s")
    params = _standardized_init(arch, [feat.data for feat, _ in dataset], vocab, cfg,
                                hidden_units, context)

    train_ids = dataset_frame_ids(dataset, vocab)
    counts = np.bincount(np.concatenate(train_ids), minlength=vocab.size).astype(np.float64)
    weights = class_weights(expected_counts(counts, cfg.shift_probability, vocab),
                            cfg.weight_alpha)
    val_ids = dataset_frame_ids(val, vocab) if val else []
    return _fit(params, lambda rng: _patch_batches(rng, dataset, train_ids, params, cfg, vocab),
                weights, cfg, vocab, val, val_ids)


def fit_rows(rows: np.ndarray, targets: np.ndarray, cfg: TrainConfig, vocab: Vocabulary,
             arch: str = DEFAULT_ARCH, hidden_units: int = DEFAULT_HIDDEN_UNITS):
    """Train directly on feature rows (e.g. beat-pooled vectors).

    Skips patch sampling and augmentation, so cfg.shift_probability is not
    read; one pass over shuffled rows per epoch in batches of cfg.batch_size.
    Rows must be 2-D (else DimensionMismatch), one per target (LengthMismatch).
    """
    rows = np.asarray(rows)
    rows = rows.astype(np.promote_types(rows.dtype, np.float32), copy=False)
    targets = np.asarray(targets, dtype=np.int64)
    if rows.ndim != 2:
        raise DimensionMismatch(f"rows of shape {rows.shape} are not 2-D")
    if len(rows) != len(targets):
        raise LengthMismatch(f"{len(rows)} rows but {len(targets)} targets")
    if rows.size == 0:
        raise EmptyDataset("no rows to fit")
    params = _standardized_init(arch, [rows], vocab, cfg, hidden_units, context=0)
    counts = np.bincount(targets, minlength=vocab.size).astype(np.float64)
    return _fit(params, lambda rng: _row_batches(rng, rows, targets, params, cfg.batch_size),
                class_weights(counts, cfg.weight_alpha), cfg, vocab)


def evaluate(params: ModelParams, dataset, ids_per_song, weights, gamma, vocab):
    """Mean loss and frame accuracy over whole songs."""
    losses, correct, total = [], 0, 0
    for (feat, _), ids in zip(dataset, ids_per_song):
        outputs = forward(params, feat)
        losses.append(total_loss(outputs, ids, weights, gamma, vocab))
        pred = np.argmax(outputs[0], axis=1)
        correct += int((pred == ids).sum())
        total += len(ids)
    return float(np.mean(losses)), correct / total


# --- checkpoints ---

def save_checkpoint(params: ModelParams, path) -> None:
    meta = {"version": 1, **{name: getattr(params, name) for name in CHECKPOINT_FIELDS}}
    arrays = {f"w_{k}": v.astype(np.float32) for k, v in params.weights.items()}
    np.savez(path, meta=json.dumps(meta, sort_keys=True),
             mean=params.mean.astype(np.float32),
             std=params.std.astype(np.float32), **arrays)


def _read_archive(path, error: type[ChordkitError], fields):
    """Arrays of an ``.npz`` archive and a dict of the ``fields`` of its JSON meta.

    Raises ``error`` for a file numpy cannot read as an archive (a bare array,
    an empty or garbled file), for a missing or non-JSON meta, and naming the
    first of ``fields`` the meta lacks."""
    with open(path, "rb") as fh:
        try:
            loaded = np.load(fh, allow_pickle=False)
            if not isinstance(loaded, np.lib.npyio.NpzFile):
                raise error(f"{path}: not an .npz archive")
            with loaded as data:
                arrays = {key: data[key] for key in data.files}
        # what numpy and zipfile raise for a truncated or garbled archive
        except (EOFError, OSError, ValueError, NotImplementedError, RuntimeError,
                zipfile.BadZipFile, zlib.error) as exc:
            raise error(f"{path}: not a readable .npz archive ({exc})") from None
    try:
        meta = json.loads(str(arrays.pop("meta")))
    except KeyError:
        raise error(f"{path}: no meta record") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: meta is not JSON ({exc})") from None
    if not isinstance(meta, dict) or meta.get("version") != 1:
        raise error(f"{path}: unsupported version")
    for name in fields:
        if name not in meta:
            raise error(f"{path}: missing {name!r}")
    return arrays, {name: meta[name] for name in fields}


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises BadCheckpoint when the file is not a readable archive, when the
    metadata is missing, is not JSON, lacks a field or names a model that
    :class:`ModelParams` refuses, when an array the architecture needs is
    missing, is not float32 of the shape the sizes give or holds a
    non-finite value, or when a ``std`` entry is not positive.
    """
    arrays, meta = _read_archive(path, BadCheckpoint, CHECKPOINT_FIELDS)
    try:
        params = ModelParams(**meta)
    except ValueError as exc:
        raise BadCheckpoint(f"{path}: {exc}") from None
    shapes = {"mean": (params.n_bins,), "std": (params.n_bins,),
              **{f"w_{name}": shape for name, shape in params.weight_shapes.items()}}
    missing = sorted(set(shapes) - set(arrays))
    if missing:
        raise BadCheckpoint(f"{path}: missing arrays {missing}")
    for key, shape in shapes.items():
        array = arrays[key]
        if array.shape != shape or array.dtype != np.float32:
            raise BadCheckpoint(f"{path}: {key} is {array.dtype} {array.shape}; "
                                f"the sizes give float32 {shape}")
        if not np.isfinite(array).all():
            raise BadCheckpoint(f"{path}: {key} holds a non-finite value")
    if not (arrays["std"] > 0).all():
        raise BadCheckpoint(f"{path}: std holds a value <= 0")
    params.mean, params.std = arrays["mean"], arrays["std"]
    params.weights = {name: arrays[f"w_{name}"] for name in params.weight_shapes}
    return params


def save_posteriors(path, post: np.ndarray, vocab_hash: str, hop: float,
                    intervals=None) -> None:
    """Save a posteriorgram with its time grid and vocabulary hash.

    Row i covers [i * hop, (i + 1) * hop) unless ``intervals`` gives each
    row's (start, end) in seconds, as for beat-pooled rows.
    """
    arrays = {} if intervals is None else {"intervals": np.asarray(intervals, dtype=np.float64)}
    meta = {"version": 1, "vocab_hash": vocab_hash, "hop": hop}
    np.savez(path, meta=json.dumps(meta, sort_keys=True), posteriors=np.ascontiguousarray(post),
             **arrays)


def load_posteriors(path, vocab: Vocabulary):
    """(posteriors, hop, intervals or None) saved by :func:`save_posteriors`.

    Raises VocabularyMismatch when the vocabulary hash or the column count
    differs from ``vocab`` (:func:`check_vocabulary`), and BadPosteriors for
    anything else that is not a 2-D posteriorgram on a valid time grid.
    """
    arrays, meta = _read_archive(path, BadPosteriors, ("hop", "vocab_hash"))
    if "posteriors" not in arrays:
        raise BadPosteriors(f"{path}: missing 'posteriors'")
    post, hop, vocab_hash = arrays["posteriors"], meta["hop"], meta["vocab_hash"]
    if post.ndim != 2:
        raise BadPosteriors(f"{path}: posteriors of shape {post.shape} are not 2-D")
    check_vocabulary("posteriors", post.shape[1], vocab_hash, vocab)
    if post.dtype.kind != "f" or not np.isfinite(post).all():
        raise BadPosteriors(f"{path}: posteriors are not finite floats")
    if type(hop) not in (int, float) or not math.isfinite(hop) or hop <= 0:
        raise BadPosteriors(f"{path}: hop {hop!r} is not a positive number")
    intervals = arrays.get("intervals")
    if intervals is not None and (intervals.shape != (len(post), 2)
                                  or intervals.dtype.kind != "f"):
        raise BadPosteriors(f"{path}: intervals of shape {intervals.shape} "
                            f"do not match {len(post)} rows")
    if intervals is not None and (bad := time_axis_fault(intervals.tolist())) is not None:
        raise BadPosteriors(f"{path}: row {bad} interval {tuple(intervals[bad].tolist())} "
                            f"is off a time axis")
    return post, float(hop), intervals


def check_vocabulary(what: str, n_classes: int, vocab_hash, vocab: Vocabulary) -> None:
    """Raise VocabularyMismatch unless ``what`` has ``vocab``'s class count and hash."""
    expected = vocab_mod.manifest_hash(vocab)
    if n_classes != vocab.size or vocab_hash != expected:
        raise VocabularyMismatch(
            f"{what} has {n_classes} classes (vocabulary {str(vocab_hash)[:12] or '?'}); "
            f"expected {vocab.size} (vocabulary {expected[:12]})")
