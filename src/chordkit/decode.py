"""HMM output smoothing and smoothness analytics.

The smoother runs max-product Viterbi over the model's per-frame posteriors
with a homogeneous transition matrix: self-transition probability beta on
the diagonal and (1 - beta) / (C - 1) elsewhere, uniform initial
distribution. A posterior (max-marginal) decoding variant is available as a
non-default option.

Because every off-diagonal entry is equal, each frame of the recursion costs
a few O(C) array operations. Let b be the previous frame's best state
(``argmax``, so ties go to the lowest id):

- beta >= 1/C (staying is at least as likely as any one move; the CLI
  default 0.15 with 170 or 26 classes): every state either stays or moves
  from b, and b itself always stays.
- beta < 1/C: every state other than b either stays or moves from b; b
  weighs staying against moving from the runner-up, the best state other
  than b.

A state stays when staying scores at least as well as moving. The decoder
keeps a ``[T, C]`` bool table of who stayed, plus b (and the runner-up when
beta < 1/C) per frame as Python ints, and backtracks through them.

Memory. The floored log-posteriors are one float64 buffer in the input's
memory order: ``model.forward`` returns a class-major view, and a row-major
copy of it would cost a transposed pass and a second ``[T, C]`` buffer. The
recursion reads one row per frame either way. The framewise argmax is taken
a block of rows at a time, since numpy copies a whole array to argmax across
its columns. So a song's working set is the log-posteriors, the bool table
and a few per-frame vectors.

Quiet runs (beta >= 1/C). A frame is quiet when b alone stays. Every other
state then scores b's move plus its own emission, so the next frame is
quiet too, with the same b, when the best of those would not stay either;
float addition is monotone, so checking that one state covers all of them,
and it also makes b the frame's strict argmax. Within a run of equal
framewise argmax b, the best other emission is the row's second largest.
From a quiet frame where b is the framewise argmax, the decoder chains b's
scores over the rest of that run with one ``np.add.accumulate``, in the
per-frame step's order of additions, applies the check to every frame at
once and skips the frames up to the first that fails it. The chain's work
arrays are allocated once per song, at the length of the longest run. Every
other frame takes the per-frame step, which is the only path when
beta < 1/C, so paths are ``==`` to the per-frame recursion's. Backtracking jumps over each block
of quiet frames, since every path enters one from its b.

Max-marginal decoding floors the posteriors into one row-major buffer, since
its forward and backward passes walk rows, and multiplies the backward
marginals into the forward ones in place before the argmax.
"""

from __future__ import annotations

import itertools
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
        if self.mode not in ("viterbi", "max_marginal"):
            raise ValueError(f"mode must be 'viterbi' or 'max_marginal', got {self.mode!r}")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")


def _log_transitions(cfg: DecoderConfig) -> tuple[float, float]:
    off = (1.0 - cfg.beta) / (cfg.n_classes - 1)
    return float(np.log(max(cfg.beta, PROB_FLOOR))), float(np.log(max(off, PROB_FLOOR)))


def _floored(post: np.ndarray, order: str = "K") -> np.ndarray:
    """``post`` in float64 floored at PROB_FLOOR, in one new buffer that keeps
    its memory order unless ``order`` says otherwise."""
    out = np.empty_like(post, dtype=np.float64, order=order)
    np.copyto(out, post)
    return np.maximum(out, PROB_FLOOR, out=out)


def viterbi_smooth(post: np.ndarray, cfg: DecoderConfig) -> np.ndarray:
    """Most probable state path given per-frame emission posteriors."""
    post = np.asarray(post)
    if post.ndim != 2 or post.shape[0] == 0:
        raise EmptySequence("posteriorgram must be a non-empty 2-D array")
    if post.shape[1] != cfg.n_classes:
        raise LengthMismatch(f"posteriorgram has {post.shape[1]} classes, config says {cfg.n_classes}")
    if cfg.mode == "max_marginal":
        return _max_marginal_path(post, cfg)

    log_post = _floored(post)
    np.log(log_post, out=log_post)
    log_self, log_off = _log_transitions(cfg)
    n_frames, n_states = post.shape
    b_stays = log_self >= log_off
    if b_stays:
        raw, second, run_end = _framewise_runs(log_post)
        # the quiet-run chain's work arrays, sized to the longest run and sliced to each
        longest = int((run_end - np.arange(n_frames)).max())
        terms, sums = np.empty(2 * longest - 1), np.empty(2 * longest - 1)
        terms[1::2] = log_self
        moves, rivals = np.empty(longest), np.empty(longest)
        next_flags = np.empty(longest, dtype=bool)
        raw = raw.tolist()

    score = log_post[0].copy()  # uniform initial distribution adds a constant
    prev = np.empty_like(score)  # the previous frame's scores; the buffers swap each frame
    stayed = np.zeros((n_frames, n_states), dtype=bool)
    best = [0] * n_frames
    runner_up = [0] * n_frames
    quiet = [(1, 0, 0)]  # (first, last, b) of each block of quiet frames, after a sentinel
    frames = iter(range(1, n_frames))
    for t in frames:
        prev, score = score, prev
        row = stayed[t]
        b = best[t] = int(prev.argmax())
        move = prev.item(b) + log_off
        np.add(prev, log_self, out=score)
        np.greater_equal(score, move, out=row)
        np.maximum(score, move, out=score)
        if not b_stays:
            # moving may beat staying for b too, but b cannot move from
            # itself: it moves from the runner-up
            stay = prev.item(b) + log_self
            prev[b] = -np.inf
            r = runner_up[t] = int(prev.argmax())
            move = prev.item(r) + log_off
            row[b] = stays = stay >= move
            score[b] = stay if stays else move
        score += log_post[t]
        if b_stays and raw[t] == b and run_end.item(t) > t + 1 and np.count_nonzero(row) == 1:
            # frame t is quiet. Chain b's scores over the rest of its
            # framewise run, adding in the per-frame step's order, and the
            # move score each of those frames gives every other state.
            n = run_end.item(t) - t
            terms[0] = score[b]
            terms[2:2 * n - 1:2] = log_post[t + 1:t + n, b]
            chain = np.add.accumulate(terms[:2 * n - 1], out=sums[:2 * n - 1])[0::2]
            moves[0] = move
            np.add(chain[:-1], log_off, out=moves[1:n])
            # frame u + 1 is quiet when the best other state at u would not
            # stay. Float addition is monotone, so then no other state
            # stays, and b is u's strict argmax.
            rival = np.add(moves[:n - 1], second[t:t + n - 1], out=rivals[:n - 1])
            rival += log_self
            quiet_next = np.less(rival, moves[1:n], out=next_flags[:n - 1])
            k = int(quiet_next.argmin())
            if quiet_next[k]:  # no frame fails: the run's end
                k = n - 1
            if k:
                np.add(moves[k], log_post[t + k], out=score)
                score[b] = chain[k]
                quiet.append((t, t + k, b))
                next(itertools.islice(frames, k - 1, None))  # frames t + 1 to t + k are done

    path = np.empty(n_frames, dtype=np.int64)
    state = path[-1] = int(score.argmax())
    t = n_frames - 1
    for first, last, b in reversed(quiet):
        for t in range(t, last, -1):
            if not stayed.item(t, state):
                state = runner_up[t] if state == best[t] else best[t]
            path[t - 1] = state
        # b alone stays at a quiet frame, so every path enters one from b
        path[first - 1:last] = state = b
        t = first - 1
    return path


_ARGMAX_ROWS = 128  # rows per argmax: numpy copies a whole array to argmax across its columns


def _framewise_runs(log_post: np.ndarray):
    """Per frame: the best state, the best emission of any other state, and
    the end (exclusive) of the frame's run of equal best states."""
    raw = np.empty(len(log_post), dtype=np.intp)
    for lo in range(0, len(log_post), _ARGMAX_ROWS):
        log_post[lo:lo + _ARGMAX_ROWS].argmax(axis=1, out=raw[lo:lo + _ARGMAX_ROWS])
    rows = np.arange(len(raw))
    top = log_post[rows, raw]
    log_post[rows, raw] = -np.inf  # hidden for the max below, then put back
    second = log_post.max(axis=1)
    log_post[rows, raw] = top
    edges = run_edges(raw)
    return raw, second, np.repeat(edges[1:], np.diff(edges))


def path_log_score(path, post: np.ndarray, cfg: DecoderConfig) -> float:
    """Log score of a state path under the smoothing model (up to the
    constant uniform-initial term)."""
    path = np.asarray(path, dtype=np.int64)
    emitted = np.asarray(post)[np.arange(len(path)), path].astype(np.float64)
    log_self, log_off = _log_transitions(cfg)
    # [lp_0, tr_1, lp_1, tr_2, ...] summed left to right, as a running total adds
    terms = np.empty(2 * len(path) - 1)
    terms[0::2] = np.log(np.maximum(emitted, PROB_FLOOR))
    terms[1::2] = np.where(path[1:] == path[:-1], log_self, log_off)
    return float(np.cumsum(terms)[-1])


def _max_marginal_path(post: np.ndarray, cfg: DecoderConfig) -> np.ndarray:
    """Per-frame argmax of forward-backward state marginals."""
    n_frames, n_states = post.shape
    emit = _floored(post, order="C")  # the recursions walk rows
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
    fwd *= bwd
    return fwd.argmax(axis=1)


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
