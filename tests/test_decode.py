import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chordkit.decode import (PROB_FLOOR, DecoderConfig, _log_transitions, count_transitions,
                             incorrect_regions, path_log_score, viterbi_smooth)
from chordkit.errors import EmptySequence, LengthMismatch


def brute_force_best(post, cfg):
    """Enumerate every state path and return (best_path, best_score)."""
    n_frames, n_states = post.shape
    best_path, best_score = None, -np.inf
    for path in itertools.product(range(n_states), repeat=n_frames):
        score = reference_path_log_score(path, post, cfg)
        if score > best_score:
            best_score, best_path = score, path
    return np.array(best_path), best_score


# --- references: the per-frame argsort recursion and the per-frame score
# loop the decoder replaced ---


def reference_viterbi(post, cfg):
    """(path, tied): ``tied`` is True when some frame's best score, or its
    runner-up when beta < 1/C, was shared, so the argsort broke a tie."""
    log_post = np.log(np.maximum(post, PROB_FLOOR))
    log_self, log_off = _log_transitions(cfg)
    n_frames, n_states = post.shape
    score = log_post[0].copy()
    backptr = np.zeros((n_frames, n_states), dtype=np.int64)
    states = np.arange(n_states)
    tied = False
    for t in range(1, n_frames):
        order = np.argsort(score)
        best, second = int(order[-1]), int(order[-2])
        ranked = score[order]
        tied |= ranked[-1] == ranked[-2]
        tied |= bool(log_self < log_off and n_states > 2 and ranked[-2] == ranked[-3])
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
    return path, tied


def reference_viterbi_loop(post, cfg):
    """The decoder's per-frame loop over every frame, without quiet runs."""
    post = np.asarray(post, dtype=np.float64)
    log_post = np.log(np.maximum(post, PROB_FLOOR))
    log_self, log_off = _log_transitions(cfg)
    n_frames, n_states = post.shape
    score = log_post[0].copy()
    prev = np.empty_like(score)
    stayed = np.zeros((n_frames, n_states), dtype=bool)
    best = np.zeros(n_frames, dtype=np.int64)
    runner_up = np.zeros(n_frames, dtype=np.int64)
    for t in range(1, n_frames):
        prev, score = score, prev
        b = best[t] = prev.argmax()
        move = prev[b] + log_off
        np.add(prev, log_self, out=score)
        np.greater_equal(score, move, out=stayed[t])
        np.maximum(score, move, out=score)
        if log_self < log_off:
            stay = prev[b] + log_self
            prev[b] = -np.inf
            r = runner_up[t] = prev.argmax()
            move = prev[r] + log_off
            stayed[t, b] = stay >= move
            score[b] = max(stay, move)
        score += log_post[t]
    path = np.zeros(n_frames, dtype=np.int64)
    state = path[-1] = score.argmax()
    for t in range(n_frames - 1, 0, -1):
        if not stayed[t, state]:
            state = runner_up[t] if state == best[t] else best[t]
        path[t - 1] = state
    return path


def reference_max_marginal(post, cfg):
    """The max-marginal decoder as it was before it worked in place."""
    post = np.asarray(post, dtype=np.float64, order="C")
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


def class_major(post, extra, dtype):
    """``post`` as the [T, C] view of a C-order [C + extra, T] buffer, the
    layout that ``model.forward`` returns."""
    buf = np.zeros((post.shape[1] + extra, post.shape[0]), dtype=dtype)
    buf[:post.shape[1]] = post.T
    return buf.T[:, :post.shape[1]]


def reference_path_log_score(path, post, cfg):
    log_post = np.log(np.maximum(np.asarray(post, dtype=np.float64), PROB_FLOOR))
    log_self, log_off = _log_transitions(cfg)
    score = log_post[0, path[0]]
    for t in range(1, len(path)):
        score += log_self if path[t] == path[t - 1] else log_off
        score += log_post[t, path[t]]
    return float(score)


def random_posteriors(rng, n_frames, n_states, zeros, decimals):
    """Dirichlet rows; optionally some exact zeros (floored by the decoder)
    and rounding, which makes equal scores and so ties common."""
    post = rng.dirichlet(np.full(n_states, 0.3), size=n_frames)
    if zeros:
        post[rng.random(post.shape) < 0.3] = 0.0
    if decimals is not None:
        post = np.round(post, decimals)
    return post


def run_posteriors(rng, n_frames, n_states, blips, rival, zeros, decimals, dtype):
    """Rows in runs that each favour one state, as a trained model's do, so
    that most frames are quiet. ``blips`` is the share of single frames that
    favour another state, and ``rival`` how close behind each run keeps the
    state the previous run favoured, which then keeps staying for a while."""
    n_runs = int(rng.integers(1, 8))
    states = rng.integers(0, n_states, size=n_runs + 1)
    run = np.sort(rng.integers(0, n_runs, size=n_frames))
    favoured, rivals = states[run + 1], states[run]
    blip = rng.random(n_frames) < blips
    favoured[blip] = rng.integers(0, n_states, size=int(blip.sum()))
    post = rng.dirichlet(np.full(n_states, 0.3), size=n_frames)
    rows = np.arange(n_frames)
    boost = rng.uniform(0.0, 4.0, size=n_frames)
    post[rows, rivals] += rival * boost
    post[rows, favoured] += boost
    post /= post.sum(axis=1, keepdims=True)
    if zeros:
        post[rng.random(post.shape) < 0.3] = 0.0
    if decimals is not None:
        post = np.round(post, decimals)
    return post.astype(dtype)


def beta_for(regime, frac, n_states):
    """A self-transition probability below, equal to or above 1/C."""
    uniform = 1.0 / n_states
    return {"below": uniform * frac, "equal": uniform,
            "above": uniform + (1.0 - uniform) * frac}[regime]


class TestConfig:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.5])
    def test_beta_bounds(self, beta):
        with pytest.raises(ValueError):
            DecoderConfig(beta=beta, n_classes=3)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            DecoderConfig(beta=0.5, n_classes=1)

    @pytest.mark.parametrize("mode", ["max-marginal", "Viterbi", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="mode"):
            DecoderConfig(0.15, 3, mode=mode)


class TestViterbi:
    def test_high_beta_removes_blip(self):
        post = np.array([
            [0.9, 0.1],
            [0.9, 0.1],
            [0.4, 0.6],  # single noisy frame
            [0.9, 0.1],
            [0.9, 0.1],
        ])
        path = viterbi_smooth(post, DecoderConfig(beta=0.9, n_classes=2))
        assert list(path) == [0, 0, 0, 0, 0]

    def test_low_beta_keeps_blip(self):
        post = np.array([
            [0.9, 0.1],
            [0.4, 0.6],
            [0.9, 0.1],
        ])
        path = viterbi_smooth(post, DecoderConfig(beta=0.5, n_classes=2))
        assert list(path) == [0, 1, 0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n_states = int(rng.integers(2, 6))
            n_frames = int(rng.integers(1, 9))
            beta = float(rng.uniform(0.02, 0.98))
            post = rng.dirichlet(np.ones(n_states), size=n_frames)
            cfg = DecoderConfig(beta=beta, n_classes=n_states)
            path = viterbi_smooth(post, cfg)
            _, best_score = brute_force_best(post, cfg)
            assert path_log_score(path, post, cfg) == pytest.approx(best_score, abs=1e-9), trial

    def test_beta_below_uniform(self):
        # beta < 1/C favours changing state; the single-best-predecessor
        # shortcut must still return an optimal path
        rng = np.random.default_rng(1)
        post = rng.dirichlet(np.ones(3), size=6)
        cfg = DecoderConfig(beta=0.05, n_classes=3)
        path = viterbi_smooth(post, cfg)
        _, best = brute_force_best(post, cfg)
        assert path_log_score(path, post, cfg) == pytest.approx(best, abs=1e-9)

    def test_uniform_beta_is_framewise_argmax(self):
        rng = np.random.default_rng(2)
        post = rng.dirichlet(np.ones(4), size=20)
        path = viterbi_smooth(post, DecoderConfig(beta=0.25, n_classes=4))
        assert np.array_equal(path, np.argmax(post, axis=1))

    def test_zero_probabilities_floored(self):
        post = np.array([[1.0, 0.0], [0.0, 1.0]])
        path = viterbi_smooth(post, DecoderConfig(beta=0.5, n_classes=2))
        assert list(path) == [0, 1]

    def test_single_frame(self):
        post = np.array([[0.2, 0.5, 0.3]])
        path = viterbi_smooth(post, DecoderConfig(beta=0.9, n_classes=3))
        assert list(path) == [1]

    def test_shape_errors(self):
        cfg = DecoderConfig(beta=0.5, n_classes=3)
        with pytest.raises(EmptySequence):
            viterbi_smooth(np.zeros((0, 3)), cfg)
        with pytest.raises(LengthMismatch):
            viterbi_smooth(np.ones((4, 2)) / 2, cfg)

    @pytest.mark.parametrize("post, beta, expected", [
        # beta >= 1/C: states 0 and 1 share the best score; the move into
        # state 2 comes from the lowest id
        ([[0.45, 0.45, 0.1], [0.0, 0.0, 1.0]], 0.5, [0, 2]),
        # beta < 1/C: state 0 is best and moves from the runner-up, shared
        # by states 1 and 2
        ([[0.5, 0.25, 0.25], [1.0, 0.0, 0.0]], 0.1, [1, 0]),
        # the last frame's best score is shared
        ([[0.4, 0.3, 0.3], [0.1, 0.45, 0.45]], 0.5, [1, 1]),
    ])
    def test_ties_go_to_the_lowest_id(self, post, beta, expected):
        post = np.array(post)
        cfg = DecoderConfig(beta=beta, n_classes=post.shape[1])
        assert list(viterbi_smooth(post, cfg)) == expected

    @settings(max_examples=300, deadline=None)
    @given(n_states=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 26, 170]),
           n_frames=st.integers(1, 300),
           regime=st.sampled_from(["below", "equal", "above"]),
           frac=st.floats(0.02, 0.98),
           zeros=st.booleans(), decimals=st.one_of(st.none(), st.integers(1, 3)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_argsort_recursion(self, n_states, n_frames, regime, frac, zeros,
                                       decimals, seed):
        rng = np.random.default_rng(seed)
        post = random_posteriors(rng, n_frames, n_states, zeros, decimals)
        cfg = DecoderConfig(beta=beta_for(regime, frac, n_states), n_classes=n_states)
        path = viterbi_smooth(post, cfg)
        expected, tied = reference_viterbi(post, cfg)
        if not tied:
            assert np.array_equal(path, expected)
        assert path_log_score(path, post, cfg) == \
            pytest.approx(path_log_score(expected, post, cfg), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(n_states=st.sampled_from([2, 3, 26, 170]), n_frames=st.integers(1, 400),
           regime=st.sampled_from(["below", "equal", "above"]), frac=st.floats(0.02, 0.98),
           blips=st.sampled_from([0.0, 0.05, 0.3]), rival=st.sampled_from([0.0, 0.8, 0.95]),
           zeros=st.booleans(), decimals=st.one_of(st.none(), st.integers(1, 3)),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_frame_loop(self, n_states, n_frames, regime, frac, blips, rival, zeros,
                                    decimals, dtype, seed):
        rng = np.random.default_rng(seed)
        post = run_posteriors(rng, n_frames, n_states, blips, rival, zeros, decimals, dtype)
        cfg = DecoderConfig(beta=beta_for(regime, frac, n_states), n_classes=n_states)
        assert np.array_equal(viterbi_smooth(post, cfg), reference_viterbi_loop(post, cfg))

    @settings(max_examples=150, deadline=None)
    @given(n_states=st.sampled_from([2, 3, 26, 170]), n_frames=st.integers(1, 300),
           extra=st.integers(0, 40), regime=st.sampled_from(["below", "equal", "above"]),
           frac=st.floats(0.02, 0.98), blips=st.sampled_from([0.0, 0.05, 0.3]),
           rival=st.sampled_from([0.0, 0.8, 0.95]), zeros=st.booleans(),
           decimals=st.one_of(st.none(), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
    def test_memory_order_does_not_matter(self, n_states, n_frames, extra, regime, frac, blips,
                                          rival, zeros, decimals, seed):
        rng = np.random.default_rng(seed)
        post = run_posteriors(rng, n_frames, n_states, blips, rival, zeros, decimals, np.float64)
        cfg = DecoderConfig(beta=beta_for(regime, frac, n_states), n_classes=n_states)
        for dtype in (np.float32, np.float64):
            view = class_major(post, extra, dtype)
            assert view.flags.f_contiguous
            copy = np.ascontiguousarray(view)
            expected = reference_viterbi_loop(copy, cfg)
            assert np.array_equal(viterbi_smooth(view, cfg), expected)
            assert np.array_equal(viterbi_smooth(copy, cfg), expected)

    @pytest.mark.parametrize("rows", [
        # the run's two best emissions are equal, then the second takes over
        [[0.7, 0.2, 0.1]] * 3 + [[0.4, 0.4, 0.2]] * 8 + [[0.2, 0.7, 0.1]] * 3,
        # a one-frame blip inside a run
        [[0.8, 0.1, 0.1]] * 6 + [[0.2, 0.7, 0.1]] + [[0.8, 0.1, 0.1]] * 6,
        # a run that ends on the last frame
        [[0.8, 0.1, 0.1]] * 5 + [[0.1, 0.1, 0.8]] * 7,
        # after each change the old state keeps staying for a few frames
        [[0.46, 0.44, 0.1]] * 5 + [[0.44, 0.46, 0.1]] * 5 + [[0.46, 0.44, 0.1]]
        + [[0.44, 0.46, 0.1]] * 8,
        # a song of a single run
        [[0.6, 0.3, 0.1], [0.5, 0.3, 0.2], [0.7, 0.2, 0.1], [0.5, 0.4, 0.1]] * 3,
    ])
    @pytest.mark.parametrize("beta", [0.05, 1 / 3, 0.5, 0.9])
    def test_crafted_runs_match_per_frame_loop(self, rows, beta):
        post = np.array(rows)
        cfg = DecoderConfig(beta=beta, n_classes=3)
        assert np.array_equal(viterbi_smooth(post, cfg), reference_viterbi_loop(post, cfg))


class TestPathLogScore:
    @settings(max_examples=300, deadline=None)
    @given(n_states=st.integers(2, 30), n_frames=st.integers(1, 300),
           beta=st.floats(0.01, 0.99), zeros=st.booleans(), stay=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_frame_loop(self, n_states, n_frames, beta, zeros, stay, seed):
        rng = np.random.default_rng(seed)
        post = random_posteriors(rng, n_frames, n_states, zeros, None)
        cfg = DecoderConfig(beta=beta, n_classes=n_states)
        # runs of repeated states mix both transition terms
        path = rng.integers(0, n_states, size=n_frames)
        repeat = np.flatnonzero(rng.random(n_frames - 1) < stay) + 1
        for t in repeat:
            path[t] = path[t - 1]
        as_list = path.tolist()
        assert path_log_score(as_list, post, cfg) == reference_path_log_score(as_list, post, cfg)
        assert path_log_score(path, post, cfg) == reference_path_log_score(path, post, cfg)

    def test_float32_posteriorgram_gathers_the_path_first(self):
        """The score of a float32 posteriorgram equals that of its float64
        copy, and scoring holds less than the posteriorgram's own size."""
        rng = np.random.default_rng(11)
        post = rng.dirichlet(np.ones(170), size=2000).astype(np.float32)
        path = rng.integers(0, 170, size=2000)
        cfg = DecoderConfig(beta=0.15, n_classes=170)
        expected = path_log_score(path, post.astype(np.float64), cfg)
        tracemalloc.start()
        try:
            score = path_log_score(path, post, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert score == expected
        assert peak < post.nbytes, (peak, post.nbytes)


class TestMaxMarginal:
    def test_also_smooths(self):
        post = np.array([
            [0.9, 0.1],
            [0.9, 0.1],
            [0.45, 0.55],
            [0.9, 0.1],
            [0.9, 0.1],
        ])
        cfg = DecoderConfig(beta=0.95, n_classes=2, mode="max_marginal")
        assert list(viterbi_smooth(post, cfg)) == [0, 0, 0, 0, 0]

    @settings(max_examples=150, deadline=None)
    @given(n_states=st.sampled_from([2, 3, 26, 170]), n_frames=st.integers(1, 200),
           extra=st.integers(0, 40), beta=st.floats(0.01, 0.99), zeros=st.booleans(),
           decimals=st.one_of(st.none(), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_out_of_place_decoder(self, n_states, n_frames, extra, beta, zeros,
                                             decimals, seed):
        rng = np.random.default_rng(seed)
        post = random_posteriors(rng, n_frames, n_states, zeros, decimals)
        cfg = DecoderConfig(beta=beta, n_classes=n_states, mode="max_marginal")
        for dtype in (np.float32, np.float64):
            view = class_major(post, extra, dtype)
            expected = reference_max_marginal(view, cfg)
            assert np.array_equal(viterbi_smooth(view, cfg), expected)
            assert np.array_equal(viterbi_smooth(np.ascontiguousarray(view), cfg), expected)

    def test_uniform_beta_is_framewise_argmax(self):
        rng = np.random.default_rng(3)
        post = rng.dirichlet(np.ones(4), size=15)
        cfg = DecoderConfig(beta=0.25, n_classes=4, mode="max_marginal")
        assert np.array_equal(viterbi_smooth(post, cfg), np.argmax(post, axis=1))


class TestAnalytics:
    def test_count_transitions(self):
        assert count_transitions([1, 1, 2, 2, 2, 1]) == 2
        assert count_transitions([5]) == 0
        with pytest.raises(EmptySequence):
            count_transitions([])

    def test_incorrect_regions(self):
        pred = [0, 1, 1, 2, 0, 3, 3]
        truth = [0, 0, 0, 0, 0, 0, 3]
        regions = incorrect_regions(pred, truth)
        assert regions == [(1, 2, 1), (3, 1, 2), (5, 1, 3)]

    def test_incorrect_regions_all_correct(self):
        assert incorrect_regions([1, 2], [1, 2]) == []

    def test_incorrect_regions_trailing(self):
        assert incorrect_regions([1, 1], [0, 0]) == [(0, 2, 1)]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            incorrect_regions([1], [1, 2])
