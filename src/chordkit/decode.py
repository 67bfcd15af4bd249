"""HMM output smoothing and smoothness analytics.

The smoother runs max-product Viterbi over the model's per-frame posteriors
with a homogeneous transition matrix: self-transition probability beta on
the diagonal and (1 - beta) / (C - 1) elsewhere, uniform initial
distribution. A posterior (max-marginal) decoding variant is available as a
non-default option.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySequence, LengthMismatch
from .metrics import run_edges

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class DecoderConfig:
    beta: float
    n_classes: int
    mode: str = "viterbi"  # or "max_marginal"

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")


def _log_transitions(cfg: DecoderConfig) -> tuple[float, float]:
    off = (1.0 - cfg.beta) / (cfg.n_classes - 1)
    return np.log(max(cfg.beta, PROB_FLOOR)), np.log(max(off, PROB_FLOOR))


def viterbi_smooth(post: np.ndarray, cfg: DecoderConfig) -> np.ndarray:
    """Most probable state path given per-frame emission posteriors."""
    post = np.asarray(post, dtype=np.float64)
    if post.ndim != 2 or post.shape[0] == 0:
        raise EmptySequence("posteriorgram must be a non-empty 2-D array")
    if post.shape[1] != cfg.n_classes:
        raise LengthMismatch(f"posteriorgram has {post.shape[1]} classes, config says {cfg.n_classes}")
    if cfg.mode == "max_marginal":
        return _max_marginal_path(post, cfg)

    log_post = np.log(np.maximum(post, PROB_FLOOR))
    log_self, log_off = _log_transitions(cfg)
    n_frames, n_states = post.shape

    score = log_post[0].copy()  # uniform initial distribution adds a constant
    backptr = np.zeros((n_frames, n_states), dtype=np.int64)
    states = np.arange(n_states)
    for t in range(1, n_frames):
        # the best off-diagonal predecessor of state s is the globally best
        # previous state, or the runner-up when that state is s itself
        order = np.argsort(score)
        best, second = int(order[-1]), int(order[-2])
        move_from = np.where(states == best, second, best)
        stay = score + log_self
        move = score[move_from] + log_off
        take_stay = stay >= move
        backptr[t] = np.where(take_stay, states, move_from)
        score = np.where(take_stay, stay, move) + log_post[t]

    path = np.zeros(n_frames, dtype=np.int64)
    path[-1] = int(np.argmax(score))
    for t in range(n_frames - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path


def path_log_score(path, post: np.ndarray, cfg: DecoderConfig) -> float:
    """Log score of a state path under the smoothing model (up to the
    constant uniform-initial term)."""
    log_post = np.log(np.maximum(np.asarray(post, dtype=np.float64), PROB_FLOOR))
    log_self, log_off = _log_transitions(cfg)
    score = log_post[0, path[0]]
    for t in range(1, len(path)):
        score += log_self if path[t] == path[t - 1] else log_off
        score += log_post[t, path[t]]
    return float(score)


def _max_marginal_path(post: np.ndarray, cfg: DecoderConfig) -> np.ndarray:
    """Per-frame argmax of forward-backward state marginals."""
    n_frames, n_states = post.shape
    emit = np.maximum(post, PROB_FLOOR)
    off = (1.0 - cfg.beta) / (n_states - 1)

    def step(prev):
        total = prev.sum()
        return prev * cfg.beta + (total - prev) * off

    fwd = np.zeros_like(emit)
    fwd[0] = emit[0] / n_states
    fwd[0] /= fwd[0].sum()
    for t in range(1, n_frames):
        fwd[t] = step(fwd[t - 1]) * emit[t]
        fwd[t] /= fwd[t].sum()
    bwd = np.ones_like(emit)
    for t in range(n_frames - 2, -1, -1):
        bwd[t] = step(bwd[t + 1] * emit[t + 1])
        bwd[t] /= bwd[t].sum()
    return np.argmax(fwd * bwd, axis=1)


def count_transitions(ids) -> int:
    """Number of indices where the label differs from its predecessor."""
    if len(ids) == 0:
        raise EmptySequence("empty id sequence")
    return len(run_edges(ids)) - 2


def incorrect_regions(pred, truth) -> list[tuple[int, int, int]]:
    """Maximal runs of incorrect frames sharing the same prediction.

    Returns (start_index, length, predicted_id) triples in order.
    """
    pred, truth = np.asarray(pred), np.asarray(truth)
    if len(pred) != len(truth):
        raise LengthMismatch(f"pred has {len(pred)} frames, truth {len(truth)}")
    wrong = pred != truth
    edges = run_edges(pred, wrong)
    starts, lengths = edges[:-1], np.diff(edges)
    keep = wrong[starts]
    return list(zip(starts[keep].tolist(), lengths[keep].tolist(), pred[starts[keep]].tolist()))
