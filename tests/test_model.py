import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chordkit import model as model_mod
from chordkit.annotate import transpose_annotation
from chordkit.decode import DecoderConfig, viterbi_smooth
from chordkit.errors import (AllZeroCounts, BadCheckpoint, BadPosteriors, ChordkitError,
                             DimensionMismatch, EmptyDataset, LengthMismatch, NonFiniteLoss,
                             TargetOutOfRange)
from chordkit.features import FeatureMatrix
from chordkit.model import (ARCHITECTURES, CHECKPOINT_FIELDS, N_ROOT_CLASSES, ModelParams,
                            TrainConfig, _column_moments, _forward_raw, _loss_and_grads,
                            _patch_batches, _window_grad,
                            _window_matmul, class_weights, cosine_lr, dataset_frame_ids, evaluate,
                            expected_counts, fit_rows, forward, init_params, load_checkpoint,
                            load_posteriors, loss_and_grads, pitch_targets,
                            predict_frames, root_targets, save_checkpoint,
                            save_posteriors, standardize, total_loss, train)
from chordkit.vocab import manifest_hash, vocabulary_26, vocabulary_170

V26 = vocabulary_26()
V170 = vocabulary_170()


def context_stack(x: np.ndarray, w: int) -> np.ndarray:
    """Concatenate frames i-w..i+w per row, zero-padding at the edges."""
    if w == 0:
        return x
    n, d = x.shape
    padded = np.zeros((n + 2 * w, d))
    padded[w:w + n] = x
    return np.concatenate([padded[i:i + n] for i in range(2 * w + 1)], axis=1)


def reference_hidden(params, data, targets, weights, gamma, vocab, mask):
    """Logits [chord | root | pitch] and gradients of the hidden model over
    an explicit context_stack copy, with one matmul per head."""
    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    w, n_h = params.weights, params.hidden_units
    xc = context_stack((data - params.mean) / params.std, params.context)
    pre = xc @ w["W1"] + w["b1"]
    h = np.maximum(pre, 0.0)
    z_root = h @ w["Wr"] + w["br"]
    z_pitch = h @ w["Wp"] + w["bp"]
    combined = np.concatenate([h, z_root, z_pitch], axis=1)
    z_chord = combined @ w["W2"] + w["b2"]
    logits = np.concatenate([z_chord, z_root, z_pitch], axis=1)

    n = int(mask.sum())
    rows = np.arange(len(targets))
    d_chord = softmax(z_chord)
    d_chord[rows, targets] -= 1.0
    d_chord *= (gamma / n) * weights[targets][:, None]
    d_root = softmax(z_root)
    d_root[rows, root_targets(targets, vocab)] -= 1.0
    d_root *= (1.0 - gamma) / n
    d_pitch = (1.0 / (1.0 + np.exp(-z_pitch)) - pitch_targets(targets, vocab)) \
        * ((1.0 - gamma) / (n * 12))
    for d in (d_chord, d_root, d_pitch):
        d[~mask] = 0.0
    d_combined = d_chord @ w["W2"].T
    d_root += d_combined[:, n_h:n_h + N_ROOT_CLASSES]
    d_pitch += d_combined[:, n_h + N_ROOT_CLASSES:]
    d_pre = (d_combined[:, :n_h] + d_root @ w["Wr"].T + d_pitch @ w["Wp"].T) * (pre > 0)
    grads = {"W2": combined.T @ d_chord, "b2": d_chord.sum(axis=0),
             "Wr": h.T @ d_root, "br": d_root.sum(axis=0),
             "Wp": h.T @ d_pitch, "bp": d_pitch.sum(axis=0),
             "W1": xc.T @ d_pre, "b1": d_pre.sum(axis=0)}
    return logits, grads


class TestTargets:
    def test_root_targets(self):
        ids = np.array([0, 12 + 5, V26.n_id, V26.x_id])  # C:maj, F:min, N, X
        assert list(root_targets(ids, V26)) == [0, 5, 12, 13]

    def test_pitch_targets(self):
        t = pitch_targets(np.array([0, V26.n_id]), V26)  # C:maj, N
        assert list(np.flatnonzero(t[0])) == [0, 4, 7]
        assert t[1].sum() == 0.0


class TestClassWeights:
    def test_worked_example(self):
        w = class_weights(np.array([100.0, 10.0]), alpha=1.0)
        assert w[0] == pytest.approx(0.70967741935, abs=1e-9)
        assert w[1] == pytest.approx(3.90322580645, abs=1e-9)

    def test_count_weighted_mean_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = rng.integers(0, 1000, size=26).astype(float)
            if counts.sum() == 0:
                continue
            for alpha in (0.0, 0.3, 1.0, 2.0):
                w = class_weights(counts, alpha)
                assert np.dot(counts, w) / counts.sum() == pytest.approx(1.0, abs=1e-9)

    def test_alpha_zero_is_uniform(self):
        w = class_weights(np.array([5.0, 50.0, 500.0]), 0.0)
        assert np.allclose(w, 1.0)

    def test_rare_classes_upweighted(self):
        w = class_weights(np.array([1000.0, 1.0]), 0.5)
        assert w[1] > w[0]

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroCounts):
            class_weights(np.zeros(4), 1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            class_weights(np.array([5.0, -1.0, 3.0]), 0.3)


class TestExpectedCounts:
    def test_p_zero_identity(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 100, size=V26.size).astype(float)
        assert np.array_equal(expected_counts(counts, 0.0, V26), counts)

    def test_chord_mass_preserved(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 100, size=V26.size).astype(float)
        out = expected_counts(counts, 0.7, V26)
        assert out[:V26.n_id].sum() == pytest.approx(counts[:V26.n_id].sum())

    def test_sentinels_unchanged(self):
        counts = np.zeros(V26.size)
        counts[V26.n_id], counts[V26.x_id] = 7.0, 3.0
        counts[0] = 12.0
        out = expected_counts(counts, 0.9, V26)
        assert out[V26.n_id] == 7.0 and out[V26.x_id] == 3.0

    def test_full_shift_uniform_over_roots(self):
        counts = np.zeros(V26.size)
        counts[0] = 120.0  # C:maj only
        out = expected_counts(counts, 1.0, V26)
        maj = [V26.chord_id(r, "maj") for r in range(12)]
        assert np.allclose(out[maj], 10.0)

    def test_root_uniform_is_fixpoint(self):
        counts = np.zeros(V26.size)
        for r in range(12):
            counts[V26.chord_id(r, "maj")] = 8.0
            counts[V26.chord_id(r, "min")] = 3.0
        out = expected_counts(counts, 0.5, V26)
        assert np.allclose(out, counts)


class TestForward:
    def test_posteriors_normalized(self):
        params = init_params("logistic", 6, V26, seed=0)
        rng = np.random.default_rng(0)
        post, root, pitch = forward(params, rng.normal(size=(9, 6)))
        assert post.shape == (9, 26) and root.shape == (9, 14) and pitch.shape == (9, 12)
        assert np.allclose(post.sum(axis=1), 1.0)
        assert np.allclose(root.sum(axis=1), 1.0)
        assert ((pitch > 0) & (pitch < 1)).all()

    def test_dimension_mismatch(self):
        params = init_params("logistic", 6, V26)
        with pytest.raises(DimensionMismatch):
            forward(params, np.zeros((3, 7)))

    def test_context_stack(self):
        x = np.array([[1.0], [2.0], [3.0]])
        out = context_stack(x, 1)
        assert out.shape == (3, 3)
        assert list(out[0]) == [0.0, 1.0, 2.0]
        assert list(out[1]) == [1.0, 2.0, 3.0]
        assert list(out[2]) == [2.0, 3.0, 0.0]

    @settings(max_examples=150, deadline=None)
    @given(context=st.sampled_from([0, 1, 2, 5]), data=st.data())
    def test_window_matches_context_stack(self, context, data):
        """Logits and gradients of the shifted-block hidden layer match an
        explicit context_stack copy, for inputs shorter than the window too."""
        n = data.draw(st.integers(1, 2 * context + 3), label="n")
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)
                                  .filter(any), label="mask"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        n_bins = int(rng.integers(1, 6))
        params = init_params("hidden", n_bins, V26, hidden_units=int(rng.integers(1, 6)),
                             context=context, seed=seed % 1000, scale=0.5)
        params.mean, params.std = rng.normal(size=n_bins), rng.uniform(0.5, 2.0, size=n_bins)
        x = rng.normal(size=(n, n_bins))
        y = rng.integers(0, V26.size, size=n)
        w = class_weights(rng.integers(1, 50, size=V26.size).astype(float), 0.3)
        gamma = float(rng.uniform(0, 1))

        ref_logits, ref_grads = reference_hidden(params, x, y, w, gamma, V26, mask)
        logits, _ = _forward_raw(params, (x - params.mean) / params.std)
        _, grads = loss_and_grads(params, x, y, w, gamma, V26, mask=mask)
        assert list(grads) == list(ref_grads)
        for key, got in [("logits", logits), *grads.items()]:
            want = ref_logits if key == "logits" else ref_grads[key]
            assert got.shape == want.shape, key
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max(), err_msg=key)

    def test_predict_frames_shape(self):
        params = init_params("hidden", 6, V26, hidden_units=4, context=1, seed=1)
        preds = predict_frames(params, np.random.default_rng(0).normal(size=(5, 6)))
        assert preds.shape == (5,) and preds.dtype.kind == "i"

    @pytest.mark.parametrize("arch", ["logistic", "hidden"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_class_major_outputs_keep_their_shapes(self, arch, dtype, tmp_path):
        """The heads are views of one class-major buffer: shapes, dtypes,
        argmax ids, Viterbi paths and the saved file are those of C-ordered
        copies."""
        rng = np.random.default_rng(8)
        params = init_params(arch, 6, V170, hidden_units=4, context=2, seed=1, scale=0.5)
        params.weights = {k: v.astype(dtype) for k, v in params.weights.items()}
        params.mean, params.std = params.mean.astype(dtype), params.std.astype(dtype)
        data = rng.normal(size=(37, 6)).astype(dtype)
        outputs = forward(params, data)
        assert [out.shape for out in outputs] == [(37, V170.size), (37, 14), (37, 12)]
        assert all(out.dtype == dtype for out in outputs)
        post = outputs[0]
        copy = np.ascontiguousarray(post)
        assert np.array_equal(predict_frames(params, data), np.argmax(copy, axis=1))
        cfg = DecoderConfig(0.15, V170.size)
        assert np.array_equal(viterbi_smooth(post, cfg), viterbi_smooth(copy, cfg))
        save_posteriors(tmp_path / "p.npz", post, manifest_hash(V170), 0.1)
        loaded, _, _ = load_posteriors(tmp_path / "p.npz", V170)
        assert loaded.flags.c_contiguous and loaded.tobytes() == copy.tobytes()


class TestWindowMemory:
    """No temporary of the context window grows with (2w + 1) * h per row."""

    @pytest.mark.parametrize("part", ["forward", "gradient"])
    def test_peak_below_a_quarter_of_the_window_buffer(self, part):
        n, d, h, w = 2048, 24, 16, 5
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, d))
        W1 = rng.normal(size=((2 * w + 1) * d, h))
        d_pre, out = rng.normal(size=(n, h)), np.empty((n, h))
        tracemalloc.start()
        try:
            if part == "forward":
                _window_matmul(x, W1, w, out=out)
            else:
                _window_grad(x, d_pre, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * (2 * w + 1) * h * x.itemsize / 4


class TestLoss:
    def test_target_out_of_range(self):
        params = init_params("logistic", 4, V26)
        outputs = forward(params, np.zeros((2, 4)))
        with pytest.raises(TargetOutOfRange):
            total_loss(outputs, np.array([0, 26]), np.ones(26), 1.0, V26)

    def test_perfect_prediction_low_chord_loss(self):
        post = np.full((1, 26), 1e-12)
        post[0, 3] = 1.0
        root = np.full((1, 14), 1.0 / 14)
        pitch = np.full((1, 12), 0.5)
        loss = total_loss((post, root, pitch), np.array([3]), np.ones(26), 1.0, V26)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_mask_excludes_frames(self):
        params = init_params("logistic", 4, V26, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 26, size=6)
        outputs = forward(params, x)
        full = total_loss(outputs, y, np.ones(26), 0.5, V26)
        half = total_loss(outputs, y, np.ones(26), 0.5, V26,
                          mask=np.array([1, 1, 1, 0, 0, 0], dtype=bool))
        sub = forward(params, x[:3])
        expected = total_loss(sub, y[:3], np.ones(26), 0.5, V26)
        assert half == pytest.approx(expected)
        assert half != pytest.approx(full)

    def test_all_masked_batch_rejected(self):
        params = init_params("logistic", 4, V26)
        with pytest.raises(EmptyDataset):
            loss_and_grads(params, np.zeros((3, 4)), np.zeros(3, dtype=int), np.ones(26), 0.5,
                           V26, mask=np.zeros(3, dtype=bool))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_pitch_loss_equals_the_two_term_cross_entropy(self, n, dtype, seed):
        """One log per entry is == to p_t * log(pp) + (1 - p_t) * log(1 - pp)
        for 0/1 targets, with probabilities at and beyond the clip bounds."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, V170.size, size=n)
        pitch = rng.uniform(size=(n, 12))
        pitch[rng.uniform(size=(n, 12)) < 0.15] = 0.0
        pitch[rng.uniform(size=(n, 12)) < 0.15] = 1.0
        pitch[rng.uniform(size=(n, 12)) < 0.15] = 1e-15
        pitch = pitch.astype(dtype)
        # chord and root probabilities of 1 at the targets: their losses are -0.0
        post = np.eye(V170.size, dtype=dtype)[ids]
        root = np.eye(14, dtype=dtype)[root_targets(ids, V170)]
        p_t = pitch_targets(ids, V170)
        pp = np.clip(pitch.astype(np.float64), 1e-12, 1 - 1e-12)
        two_term = float(np.mean(-(p_t * np.log(pp) + (1 - p_t) * np.log(1 - pp))))
        assert total_loss((post, root, pitch), ids, np.ones(V170.size), 0.0, V170) == two_term


def _rel_err(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def _numeric_grad(params, key, flat_idx, data, y, w, gamma, vocab, mask, eps=1e-6):
    arr = params.weights[key]
    orig = arr.flat[flat_idx]
    arr.flat[flat_idx] = orig + eps
    lp, _ = loss_and_grads(params, data, y, w, gamma, vocab, mask=mask)
    arr.flat[flat_idx] = orig - eps
    lm, _ = loss_and_grads(params, data, y, w, gamma, vocab, mask=mask)
    arr.flat[flat_idx] = orig
    return (lp - lm) / (2 * eps)


class TestGradients:
    @pytest.mark.parametrize("arch,context,n", [
        pytest.param("logistic", 1, 12, id="logistic"),
        pytest.param("hidden", 1, 12, id="hidden"),
        # fewer rows than the context window holds
        pytest.param("hidden", 2, 3, id="hidden-context2-n3"),
    ])
    @pytest.mark.parametrize("gamma", [0.0, 0.7, 1.0])
    def test_matches_finite_differences(self, arch, context, n, gamma):
        rng = np.random.default_rng(42)
        n_bins = 5
        params = init_params(arch, n_bins, V26, hidden_units=4, context=context,
                             seed=5, scale=0.3)
        data = rng.normal(size=(n, n_bins))
        y = rng.integers(0, V26.size, size=n)
        y[0], y[1] = V26.n_id, V26.x_id
        w = class_weights(rng.integers(1, 50, size=V26.size).astype(float), 0.3)
        mask = np.ones(n, dtype=bool)
        mask[-2:] = False

        _, grads = loss_and_grads(params, data, y, w, gamma, V26, mask=mask)
        for key, g in grads.items():
            picks = rng.choice(g.size, size=min(10, g.size), replace=False)
            for flat_idx in picks:
                num = _numeric_grad(params, key, flat_idx, data, y, w, gamma,
                                    V26, mask)
                assert _rel_err(g.flat[flat_idx], num) < 1e-5, (key, flat_idx)


class TestInputsUntouched:
    """The in-place softmax and gradients write only to buffers the model
    allocated: every caller's array stays byte-equal."""

    @staticmethod
    def _snapshot(params, *arrays):
        return ([a.tobytes() for a in arrays] + [params.mean.tobytes(), params.std.tobytes()]
                + [(k, v.tobytes()) for k, v in params.weights.items()])

    @pytest.mark.parametrize("arch", ["logistic", "hidden"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_loss_and_evaluate(self, arch, dtype):
        rng = np.random.default_rng(11)
        params = init_params(arch, 8, V26, hidden_units=5, context=2, seed=3, scale=0.3)
        params.mean = rng.normal(size=8).astype(dtype)
        params.std = rng.uniform(0.5, 2.0, size=8).astype(dtype)
        ds = [(FeatureMatrix(data=feat.data.astype(dtype), hop=feat.hop,
                             bins_per_octave=feat.bins_per_octave), ann)
              for feat, ann in tiny_dataset(n_songs=2)]
        ids = dataset_frame_ids(ds, V26)
        data = ds[0][0].data
        weights = class_weights(rng.integers(1, 50, size=V26.size).astype(float), 0.3)
        mask = np.arange(len(data)) % 3 > 0
        before = self._snapshot(params, data, ids[0], weights, mask)

        forward(params, ds[0][0])
        forward(params, data)
        loss_and_grads(params, data, ids[0], weights, 0.7, V26, mask=mask)
        loss_and_grads(params, data, ids[0], weights, 0.7, V26)
        evaluate(params, ds, ids, weights, 0.7, V26)
        assert self._snapshot(params, data, ids[0], weights, mask) == before


class TestDtype:
    """The model computes in its weights' dtype, the weights follow the
    training rows' dtype, and the loss is taken in float64."""

    def test_saturated_float32_batch_has_the_float64_loss(self):
        rng = np.random.default_rng(0)
        n_bins, n = 6, 60
        params = init_params("logistic", n_bins, V26, seed=1, scale=1.0)
        w = params.weights
        # bins 0-2 pin their chord and root logits 150 above the rest and their
        # pitch logits at +-40, so in float32 the other chord probabilities
        # underflow to 0 and the sigmoid reaches 1.0; bins 3-5 stay moderate
        bins = rng.integers(0, n_bins, size=n)
        chord_of_bin = rng.integers(0, V26.n_id, size=n_bins)
        for b in range(3):
            c = chord_of_bin[b]
            w["Wc"][b, c] += 150.0
            w["Wr"][b, root_targets(np.array([c]), V26)[0]] += 150.0
            w["Wp"][b] = 40.0 * (2.0 * pitch_targets(np.array([c]), V26)[0] - 1.0)
        y = np.where(bins < 3, chord_of_bin[bins], rng.integers(0, V26.size, size=n))
        data = np.eye(n_bins)[bins]
        weights = class_weights(rng.integers(1, 50, size=V26.size).astype(float), 0.3)

        p32 = replace(params, weights={k: v.astype(np.float32) for k, v in w.items()},
                      mean=params.mean.astype(np.float32), std=params.std.astype(np.float32))
        post, _, pitch = forward(p32, FeatureMatrix(data=data.astype(np.float32), hop=0.1))
        assert post.dtype == np.float32 and (post == 0.0).any() and (pitch == 1.0).any()
        loss32, grads32 = loss_and_grads(p32, data.astype(np.float32), y, weights, 0.7, V26)
        loss64, _ = loss_and_grads(params, data, y, weights, 0.7, V26)
        assert np.isfinite(loss32) and all(np.isfinite(g).all() for g in grads32.values())
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        # a pinned frame labelled N: its chord and root targets underflowed to
        # 0 and its pitch targets are 0 where the sigmoid is 1.0
        y[np.flatnonzero(bins < 3)[0]] = V26.n_id
        loss32, _ = loss_and_grads(p32, data.astype(np.float32), y, weights, 0.7, V26)
        assert np.isfinite(loss32)

    @pytest.mark.parametrize("arch", ["logistic", "hidden"])
    def test_train_on_float32_features_trains_float32(self, arch):
        ds = tiny_dataset()
        params, _ = train(ds[:2], ds[2:], TrainConfig(epochs=2, seed=0), V26, arch=arch,
                          hidden_units=5, context=1)
        arrays = [params.mean, params.std, *params.weights.values()]
        assert all(a.dtype == np.float32 for a in arrays)
        assert all(out.dtype == np.float32 for out in forward(params, ds[0][0]))

    def test_load_checkpoint_keeps_float32(self, tmp_path):
        save_checkpoint(init_params("hidden", 8, V26, hidden_units=4, context=2, seed=9),
                        tmp_path / "model.npz")
        loaded = load_checkpoint(tmp_path / "model.npz")
        arrays = [loaded.mean, loaded.std, *loaded.weights.values()]
        assert all(a.dtype == np.float32 for a in arrays)

    @pytest.mark.parametrize("arch", ["logistic", "hidden"])
    def test_float64_stays_float64(self, arch):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(30, 6))
        y = rng.integers(0, V26.size, size=30)
        params = init_params(arch, 6, V26, hidden_units=4, context=1, seed=2)
        assert all(out.dtype == np.float64 for out in forward(params, data))
        _, grads = loss_and_grads(params, data, y, np.ones(V26.size), 0.7, V26)
        assert all(g.dtype == np.float64 for g in grads.values())
        fitted, _ = fit_rows(data, y, TrainConfig(epochs=2), V26, arch=arch, hidden_units=4)
        arrays = [fitted.mean, fitted.std, *fitted.weights.values()]
        assert all(a.dtype == np.float64 for a in arrays)


class TestOptim:
    def test_cosine_endpoints(self):
        assert cosine_lr(0.001, 0, 150) == pytest.approx(0.001)
        assert cosine_lr(0.001, 149, 150) == pytest.approx(0.0001)

    def test_cosine_monotone(self):
        lrs = [cosine_lr(0.001, e, 50) for e in range(50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_single_epoch(self):
        assert cosine_lr(0.01, 0, 1) == 0.01


def n_real(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def tiny_dataset(seed=0, n_songs=3, n_frames=40, n_bins=8):
    rng = np.random.default_rng(seed)
    from chordkit.annotate import fill_gaps
    from chordkit.harte import parse_chord
    hop = 0.25
    songs = []
    qualities = ["C:maj", "G:maj", "A:min", "F:maj"]
    for _ in range(n_songs):
        segs, t = [], 0.0
        while t < n_frames * hop:
            d = float(rng.uniform(1.0, 3.0))
            segs.append((t, min(t + d, n_frames * hop),
                         parse_chord(qualities[rng.integers(0, 4)])))
            t += d
        ann = fill_gaps(segs, duration=n_frames * hop)
        from chordkit.annotate import FrameGrid, frame_labels
        ids = frame_labels(ann, FrameGrid(hop=hop, n_frames=n_frames), V26)
        data = rng.normal(scale=0.1, size=(n_frames, n_bins)).astype(np.float32)
        for i, cid in enumerate(ids):
            if cid < V26.n_id:
                data[i, cid % n_bins] += 3.0
        feat = FeatureMatrix(data=data, hop=hop, bins_per_octave=12)
        songs.append((feat, ann))
    return songs


class TestTrain:
    def test_deterministic(self):
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=4, seed=7, patch_seconds=5.0)
        p1, h1 = train(ds[:2], ds[2:], cfg, V26)
        p2, h2 = train(ds[:2], ds[2:], cfg, V26)
        for k in p1.weights:
            assert np.array_equal(p1.weights[k], p2.weights[k])
        assert h1 == h2

    def test_loss_decreases(self):
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=30, seed=0, patch_seconds=10.0)
        _, hist = train(ds, [], cfg, V26)
        assert hist[-1]["train_loss"] < hist[0]["train_loss"]

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            train([], [], TrainConfig(epochs=1), V26)

    def test_validation_song_with_other_bin_count_rejected_before_training(self, monkeypatch):
        (feat, ann), = tiny_dataset(n_songs=1)
        val = [(feat, ann), (replace(feat, data=np.zeros((feat.n_frames, 200), np.float32)), ann)]

        def no_fit(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(model_mod, "_fit", no_fit)
        with pytest.raises(DimensionMismatch, match="^validation song 1 has 200 bins; "
                                                    "song 0 has 8$"):
            train([(feat, ann)], val, TrainConfig(epochs=1), V26)

    @pytest.mark.parametrize("what", ["training", "validation"])
    def test_song_on_another_frame_grid_rejected_before_training(self, monkeypatch, what):
        """Patches span cfg.patch_seconds at song 0's hop, so every song shares it."""
        (feat, ann), = tiny_dataset(n_songs=1)
        other = [(feat, ann), (replace(feat, hop=0.05), ann)]

        def no_fit(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(model_mod, "_fit", no_fit)
        songs, val = (other, []) if what == "training" else ([(feat, ann)], other)
        with pytest.raises(DimensionMismatch,
                           match=f"^{what} song 1 has hop 0.05 s; song 0 has 0.25 s$"):
            train(songs, val, TrainConfig(epochs=1), V26)

    @pytest.mark.parametrize("bins", [(216, 200), (200, 216)], ids=["216-200", "200-216"])
    def test_songs_with_other_bin_counts_rejected(self, bins):
        (feat, ann), = tiny_dataset(n_songs=1)
        songs = [(replace(feat, data=np.zeros((feat.n_frames, b), np.float32)), ann)
                 for b in bins]
        with pytest.raises(DimensionMismatch, match=f"song 1 has {bins[1]} bins"):
            train(songs, [], TrainConfig(epochs=1), V26)

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_batches_equal_the_standardized_zero_padded_batch(self, shift, monkeypatch):
        """Patch rows standardized in the block buffer are == to standardize()
        of the raw, shifted rows; the rows after each patch are +0.0."""
        monkeypatch.setattr(model_mod, "BLOCK_ROWS", 50)  # two 20 + 2-row patches a block
        songs = tiny_dataset(n_songs=5)
        feat, ann = songs[1]
        songs[1] = (replace(feat, data=feat.data[:13]), ann)  # shorter than a patch
        ids = dataset_frame_ids(songs, V26)
        cfg = TrainConfig(patch_seconds=5.0, batch_size=3, shift_probability=shift)
        rng = np.random.default_rng(4)
        params = init_params("hidden", 8, V26, hidden_units=4, context=2)
        params.weights = {k: v.astype(np.float32) for k, v in params.weights.items()}
        params.mean = rng.normal(-40.0, 12.0, size=8).astype(np.float32)
        params.std = rng.uniform(0.5, 12.0, size=8).astype(np.float32)
        # mean 0 and std 1 leave the raw rows as they are
        raw = replace(params, mean=np.zeros(8, np.float32), std=np.ones(8, np.float32))
        padded = _patch_batches(np.random.default_rng(9), songs, ids, raw, cfg, V26)
        got = _patch_batches(np.random.default_rng(9), songs, ids, params, cfg, V26)
        sizes = []
        for (n0, blocks0), (n, blocks) in zip(padded, got, strict=True):
            assert n == n0
            for (x0, y0, mask0), (x, y, mask) in zip(blocks0, blocks, strict=True):
                assert np.array_equal(y, y0) and np.array_equal(mask, mask0)
                assert x.dtype == np.float32
                assert x[mask].tobytes() == standardize(params, x0[mask]).tobytes()
                assert x[~mask].tobytes() == np.zeros_like(x[~mask]).tobytes()
                assert np.array_equal(y[~mask], np.zeros(len(y) - n_real(mask)))
                sizes.append((n, n_real(mask), len(mask)))
        # batch 0: patches of 20 and 13 frames, then 20; batch 1: 20 and 20
        assert sizes == [(53, 33, 37), (53, 20, 22), (40, 40, 44)]

    @pytest.mark.parametrize("arch", ["logistic", "hidden"])
    def test_blocks_add_up_to_the_whole_batch(self, arch, monkeypatch):
        """One patch per block or all in one block: the same loss and gradients."""
        songs = tiny_dataset(n_songs=5)
        feat, ann = songs[3]
        songs[3] = (replace(feat, data=feat.data[:13]), ann)
        ids = dataset_frame_ids(songs, V26)
        cfg = TrainConfig(patch_seconds=5.0, batch_size=5, shift_probability=0.5)
        params = init_params(arch, 8, V26, hidden_units=4, context=2, seed=3, scale=0.5)
        weights = class_weights(np.arange(V26.size, dtype=float), 0.5)

        def batch(block_rows):
            monkeypatch.setattr(model_mod, "BLOCK_ROWS", block_rows)
            (n, blocks), = _patch_batches(np.random.default_rng(1), songs, ids, params, cfg, V26)
            lengths = []

            def counted():
                for block in blocks:
                    lengths.append(len(block[0]))
                    yield block
            loss, grads = _loss_and_grads(params, n, counted(), weights, 0.6, V26)
            return len(lengths), loss, grads

        n_one, loss_one, grads_one = batch(1)
        n_all, loss_all, grads_all = batch(10**6)
        assert (n_one, n_all) == (5, 1)
        assert loss_one == pytest.approx(loss_all, rel=1e-12)
        assert list(grads_one) == list(grads_all)
        for key, g in grads_all.items():
            np.testing.assert_allclose(grads_one[key], g, rtol=1e-10,
                                       atol=1e-12 * np.abs(g).max(), err_msg=key)

    def test_a_patch_window_stops_at_its_own_edges(self):
        """A hidden patch's logits do not change when only its neighbour does."""
        songs = tiny_dataset(n_songs=3)
        feat, ann = songs[1]
        changed = [songs[0], (replace(feat, data=feat.data + 1.0), ann), songs[2]]
        ids = dataset_frame_ids(songs, V26)
        params = init_params("hidden", 8, V26, hidden_units=4, context=2, seed=1, scale=0.5)
        cfg = TrainConfig(patch_seconds=5.0, batch_size=3)
        laid_out = []
        for data in (songs, changed):
            (_, blocks), = _patch_batches(np.random.default_rng(2), data, ids, params, cfg, V26)
            (x, _, mask), = blocks
            laid_out.append((x.copy(), mask.copy(), _forward_raw(params, x)[0].copy()))
        (x0, mask, z0), (x1, _, z1) = laid_out
        neighbour = (x0 != x1).any(axis=1)
        keep = mask & ~neighbour
        assert (n_real(neighbour), n_real(keep)) == (20, 40)
        assert np.array_equal(z0[keep], z1[keep])

    def test_epoch_memory_does_not_grow_with_the_batch(self):
        """Batches stream through one block buffer: the traced peak of an
        epoch of 128 patches of 300 frames is about the same in batches of
        8 and of 128 patches."""
        songs = tiny_dataset(n_songs=128, n_frames=320, n_bins=24)
        peaks = {}
        for batch_size in (8, 128):
            cfg = TrainConfig(epochs=1, batch_size=batch_size, patch_seconds=75.0)
            tracemalloc.start()
            try:
                train(songs, [], cfg, V26)
                peaks[batch_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[128] < 1.2 * peaks[8], peaks

    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(0, 300), min_size=1, max_size=12).filter(any),
           n_bins=st.integers(1, 9), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_song_by_song_moments_equal_concatenated(self, lengths, n_bins, dtype, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.normal(-40.0, 12.0, size=(m, n_bins)).astype(dtype) for m in lengths]
        mean, std = _column_moments(blocks)
        rows = np.concatenate(blocks)
        assert mean.dtype == std.dtype == dtype
        assert np.array_equal(mean, rows.mean(axis=0)) and np.array_equal(std, rows.std(axis=0))

    def test_standardization_fitted_to_training_rows(self):
        ds = tiny_dataset(n_frames=333)
        params, _ = train(ds, [], TrainConfig(epochs=1), V26)
        rows = np.concatenate([feat.data for feat, _ in ds])
        assert np.array_equal(params.mean, rows.mean(axis=0))
        assert np.array_equal(params.std, rows.std(axis=0))

    def test_validation_cadence(self):
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=7, seed=0)
        _, hist = train(ds[:2], ds[2:], cfg, V26)
        with_val = [rec["epoch"] for rec in hist if "val_loss" in rec]
        assert with_val == [0, 5, 6]

    def test_fit_rows_learns_separable_data(self):
        rng = np.random.default_rng(0)
        n = 300
        y = rng.integers(0, 3, size=n)
        rows = rng.normal(scale=0.1, size=(n, 6))
        rows[np.arange(n), y] += 4.0
        cfg = TrainConfig(epochs=60, seed=0, batch_size=32)
        params, _ = fit_rows(rows, y, cfg, V26)
        preds = predict_frames(params, rows)
        assert (preds == y).mean() > 0.95

    @pytest.mark.parametrize("rows, n_targets, error", [
        (np.zeros(10), 10, DimensionMismatch),
        (np.zeros((10, 2, 3)), 10, DimensionMismatch),
        (np.zeros((10, 6)), 12, LengthMismatch),
        (np.zeros((10, 6)), 8, LengthMismatch),
    ], ids=["1-d", "3-d", "more-targets", "fewer-targets"])
    def test_fit_rows_refuses_rows_it_cannot_pair(self, rows, n_targets, error):
        with pytest.raises(error):
            fit_rows(rows, np.zeros(n_targets, dtype=int), TrainConfig(epochs=1), V26)


def _fit_train(songs, cfg, arch):
    return train(songs[:2], songs[2:], cfg, V26, arch=arch, hidden_units=6, context=1)


def _fit_rows(songs, cfg, arch):
    rows = np.concatenate([feat.data for feat, _ in songs])
    return fit_rows(rows, np.concatenate(dataset_frame_ids(songs, V26)), cfg, V26,
                    arch=arch, hidden_units=6)


FITTERS = {"train": _fit_train, "fit_rows": _fit_rows}


class TestFitLoop:
    """The optimizer loop behind both ``train`` and ``fit_rows``."""

    @pytest.mark.parametrize("fitter", FITTERS)
    @pytest.mark.parametrize("arch", ["logistic", "hidden"])
    def test_deterministic(self, fitter, arch):
        cfg = TrainConfig(epochs=4, seed=3, patch_seconds=5.0, batch_size=16,
                          shift_probability=0.5, weight_alpha=0.3, structured_gamma=0.6)
        runs = [FITTERS[fitter](tiny_dataset(n_songs=4), cfg, arch) for _ in range(2)]
        (p1, h1), (p2, h2) = runs
        assert h1 == h2
        assert np.array_equal(p1.mean, p2.mean) and np.array_equal(p1.std, p2.std)
        for k in p1.weights:
            assert np.array_equal(p1.weights[k], p2.weights[k]), k

    @pytest.mark.parametrize("fitter", FITTERS)
    def test_non_finite_loss_raised(self, fitter):
        songs = tiny_dataset(n_songs=4)
        songs[0][0].data[3, 2] = np.nan
        with pytest.raises(NonFiniteLoss) as exc:
            FITTERS[fitter](songs, TrainConfig(epochs=3), "logistic")
        assert exc.value.epoch == 0

    @pytest.mark.parametrize("fitter", FITTERS)
    def test_empty_input_rejected(self, fitter):
        empty = {"train": lambda: train([], [], TrainConfig(epochs=1), V26),
                 "fit_rows": lambda: fit_rows(np.zeros((0, 8)), np.zeros(0, dtype=int),
                                              TrainConfig(epochs=1), V26)}
        with pytest.raises(EmptyDataset):
            empty[fitter]()

    def test_train_returns_best_validation_parameters(self):
        # validation labels a semitone off, so validation loss rises as the
        # model fits the training songs: the best epoch is not the last
        songs = tiny_dataset(n_songs=4)
        val = [(feat, transpose_annotation(ann, 1)) for feat, ann in songs[2:]]
        cfg = TrainConfig(epochs=8, seed=0, learning_rate=0.05, patch_seconds=5.0)
        params, history = train(songs[:2], val, cfg, V26)
        val_losses = [rec["val_loss"] for rec in history if "val_loss" in rec]
        assert min(val_losses) < val_losses[-1]
        loss, _ = evaluate(params, val, dataset_frame_ids(val, V26), np.ones(V26.size),
                           cfg.structured_gamma, V26)
        assert loss == min(val_losses)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"shift_probability": 1.5},
        {"structured_gamma": -0.1},
        {"weight_alpha": -1.0},
        {"epochs": 0}, {"epochs": -2}, {"epochs": 2.5},
        {"batch_size": 0}, {"batch_size": 8.0},
        {"patch_seconds": 0.0}, {"patch_seconds": math.inf},
        {"learning_rate": -1.0}, {"learning_rate": math.nan},
        {"weight_alpha": math.nan}, {"weight_alpha": math.inf},
        {"epochs": True}, {"batch_size": True},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("sizes", [{"hidden_units": 0}, {"context": -1}])
    def test_hidden_sizes_it_cannot_use_rejected(self, sizes):
        with pytest.raises(ValueError, match="hidden_units >= 1 and context >= 0"):
            init_params("hidden", 8, V26, **sizes)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params("hidden", 8, V26, hidden_units=4, context=2, seed=9)
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == "hidden"
        assert loaded.n_bins == 8 and loaded.context == 2
        assert loaded.vocab_hash == params.vocab_hash
        for k, v in params.weights.items():
            assert np.allclose(loaded.weights[k], v, atol=1e-6)

    def test_predictions_survive_round_trip(self, tmp_path):
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=5, seed=1)
        params, _ = train(ds, [], cfg, V26)
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        feat = ds[0][0]
        assert np.array_equal(predict_frames(loaded, feat), predict_frames(params, feat))

    @pytest.mark.parametrize("meta, arrays", [
        ({"n_bins": -1}, {}),
        ({"n_bins": 8.0}, {}),
        ({"hidden_units": "4"}, {}),
        ({"arch": "conv"}, {}),
        ({"context": 1}, {}),
        ({}, {"std": np.zeros(8, dtype=np.float32)}),
        ({}, {"w_b2": np.full(V26.size, np.inf, dtype=np.float32)}),
        ({}, {"w_W1": np.full((40, 4), "0.1")}),
        # arrays of the shapes each meta gives, so only the sizes themselves are wrong
        ({"hidden_units": 0}, {"w_W1": np.zeros((40, 0), np.float32),
                               "w_b1": np.zeros(0, np.float32),
                               "w_Wr": np.zeros((0, N_ROOT_CLASSES), np.float32),
                               "w_Wp": np.zeros((0, 12), np.float32),
                               "w_W2": np.zeros((N_ROOT_CLASSES + 12, V26.size), np.float32)}),
        ({"arch": "logistic", "hidden_units": 0, "context": 5},
         {"w_Wc": np.zeros((8, V26.size), np.float32), "w_bc": np.zeros(V26.size, np.float32),
          "w_Wr": np.zeros((8, N_ROOT_CLASSES), np.float32),
          "w_br": np.zeros(N_ROOT_CLASSES, np.float32),
          "w_Wp": np.zeros((8, 12), np.float32), "w_bp": np.zeros(12, np.float32)}),
        ({"n_bins": 0}, {"mean": np.zeros(0, np.float32), "std": np.ones(0, np.float32),
                         "w_W1": np.zeros((0, 4), np.float32)}),
        ({}, {"w_W1": np.full((40, 4), 0.1), "mean": np.zeros(8)}),
    ], ids=["negative-size", "float-size", "str-size", "unknown-arch", "other-context",
            "zero-std", "inf-bias", "str-weight", "no-hidden-units", "logistic-context",
            "zero-bins", "float64-arrays"])
    def test_arrays_must_fit_the_meta(self, tmp_path, meta, arrays):
        path = tmp_path / "model.npz"
        save_checkpoint(init_params("hidden", 8, V26, hidden_units=4, context=2, seed=9), path)
        with np.load(path) as data:
            stored = {k: data[k] for k in data.files}
        stored["meta"] = json.dumps({**json.loads(str(stored["meta"])), **meta})
        np.savez(path, **{**stored, **arrays})
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop, meta", [
        *(((field,), {}) for field in ("arch", "n_bins", "n_classes", "hidden_units",
                                        "context", "vocab_hash", "version")),
        ((), {"version": 2}),
    ], ids=["no-arch", "no-n_bins", "no-n_classes", "no-hidden_units", "no-context",
            "no-vocab_hash", "no-version", "version-2"])
    def test_meta_needs_every_field_and_version_1(self, tmp_path, drop, meta):
        path = tmp_path / "model.npz"
        save_checkpoint(init_params("hidden", 8, V26, hidden_units=4, context=2, seed=9), path)
        with np.load(path) as data:
            stored = {k: data[k] for k in data.files}
        merged = {**json.loads(str(stored["meta"])), **meta}
        stored["meta"] = json.dumps({k: v for k, v in merged.items() if k not in drop})
        np.savez(path, **stored)
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.one_of(st.none(), st.integers(0, 20_000)), flip=st.integers(0, 160_000))
    def test_truncated_or_flipped_file(self, tmp_path, cut, flip):
        """Any damage ends in a checkpoint or a ChordkitError."""
        path = tmp_path / "model.npz"
        save_checkpoint(init_params("hidden", 8, V26, hidden_units=4, context=2, seed=9), path)
        raw = bytearray(path.read_bytes())
        if cut is None:
            raw[flip // 8 % len(raw)] ^= 1 << (flip % 8)
        else:
            del raw[cut % len(raw):]
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except ChordkitError:
            pass

    def test_meta_holds_the_version_and_each_field(self, tmp_path):
        params = init_params("hidden", 8, V26, hidden_units=4, context=2, seed=9)
        save_checkpoint(params, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as data:
            meta = json.loads(str(data["meta"]))
        assert meta == {"version": 1, "arch": "hidden", "n_bins": 8, "n_classes": V26.size,
                        "hidden_units": 4, "context": 2, "vocab_hash": params.vocab_hash}

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arch=st.sampled_from(ARCHITECTURES), n_bins=st.integers(1, 12),
           vocab=st.sampled_from([V26, V170]), hidden_units=st.integers(1, 6),
           context=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_keeps_the_model(self, tmp_path, arch, n_bins, vocab, hidden_units,
                                        context, seed):
        """What init_params makes, load_checkpoint gives back: the
        architecture, its sizes, the hash and every array's float32 bytes."""
        params = init_params(arch, n_bins, vocab, hidden_units=hidden_units, context=context,
                             seed=seed, scale=0.5)
        params.mean = np.random.default_rng(seed).standard_normal(n_bins)
        save_checkpoint(params, tmp_path / "model.npz")
        loaded = load_checkpoint(tmp_path / "model.npz")
        sizes = (hidden_units, context) if arch == "hidden" else (0, 0)
        assert (loaded.arch, loaded.n_bins, loaded.n_classes, loaded.hidden_units,
                loaded.context, loaded.vocab_hash) == (arch, n_bins, vocab.size, *sizes,
                                                       manifest_hash(vocab))
        assert list(loaded.weights) == list(params.weights)
        for got, made in [(loaded.mean, params.mean), (loaded.std, params.std),
                          *((loaded.weights[k], v) for k, v in params.weights.items())]:
            assert got.dtype == np.float32
            assert got.tobytes() == made.astype(np.float32).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(arch=st.sampled_from([*ARCHITECTURES, "conv", ""]),
           sizes=st.tuples(*[st.one_of(st.integers(-2, 3),
                                       st.sampled_from([True, False, 2.0, "2", np.int64(2)]))
                             for _ in range(4)]))
    def test_model_params_takes_exactly_the_models_that_exist(self, arch, sizes):
        """Int sizes, n_bins and n_classes >= 1, and a hidden model with
        hidden_units >= 1 and context >= 0 or a logistic one with 0 and 0;
        anything else raises ValueError."""
        n_bins, n_classes, hidden_units, context = sizes
        exists = (all(type(size) is int for size in sizes) and n_bins >= 1 and n_classes >= 1
                  and ((arch == "hidden" and hidden_units >= 1 and context >= 0)
                       or (arch == "logistic" and hidden_units == context == 0)))
        if exists:
            ModelParams(arch, *sizes)
        else:
            with pytest.raises(ValueError):
                ModelParams(arch, *sizes)

    @pytest.mark.parametrize("first", range(len(CHECKPOINT_FIELDS)))
    def test_first_missing_field_is_named(self, tmp_path, first):
        path = tmp_path / "model.npz"
        save_checkpoint(init_params("logistic", 8, V26), path)
        with np.load(path) as data:
            stored = {k: data[k] for k in data.files}
        meta = json.loads(str(stored["meta"]))
        stored["meta"] = json.dumps({k: v for k, v in meta.items()
                                     if k not in CHECKPOINT_FIELDS[first:]})
        np.savez(path, **stored)
        with pytest.raises(BadCheckpoint, match=f"missing '{CHECKPOINT_FIELDS[first]}'"):
            load_checkpoint(path)


class TestPosteriorsFile:
    def test_round_trip_keeps_time_grid(self, tmp_path):
        post = np.random.default_rng(0).dirichlet(np.ones(V26.size), size=3)
        intervals = ((0.0, 0.5), (0.5, 1.25), (1.25, 2.0))
        save_posteriors(tmp_path / "p.npz", post, manifest_hash(V26), 0.1, intervals)
        loaded, hop, loaded_intervals = load_posteriors(tmp_path / "p.npz", V26)
        assert np.array_equal(loaded, post) and hop == 0.1
        assert np.array_equal(loaded_intervals, np.array(intervals))

    def test_one_dimensional_posteriorgram_is_malformed(self, tmp_path):
        save_posteriors(tmp_path / "p.npz", np.full(V26.size, 1.0 / V26.size),
                        manifest_hash(V26), 0.1)
        with pytest.raises(BadPosteriors, match="not 2-D"):
            load_posteriors(tmp_path / "p.npz", V26)

    @pytest.mark.parametrize("drop, meta, arrays", [
        (("posteriors",), {}, {}),
        (("hop",), {}, {}),
        ((), {}, {"posteriors": np.ones((3, V26.size), dtype=np.int64)}),
        ((), {}, {"posteriors": np.full((3, V26.size), np.nan)}),
        ((), {}, {"posteriors": np.full((3, V26.size), np.inf)}),
        ((), {"hop": 0.0}, {}),
        ((), {"hop": -0.1}, {}),
        ((), {"hop": "0.1"}, {}),
        ((), {"hop": [0.1]}, {}),
        ((), {"hop": True}, {}),
        ((), {}, {"intervals": np.array([0.0, 0.5, 1.0])}),
        ((), {}, {"intervals": np.array([[0.0, 0.5], [0.5, 1.0]])}),
        ((), {}, {"intervals": np.array([[0, 1], [1, 2], [2, 3]])}),
    ], ids=["no-posteriors", "no-hop", "int-posteriors", "nan-posteriors", "inf-posteriors",
            "zero-hop", "negative-hop", "str-hop", "list-hop", "bool-hop", "flat-intervals",
            "too-few-intervals", "int-intervals"])
    def test_malformed_file_rejected(self, tmp_path, drop, meta, arrays):
        """``drop`` names arrays or meta fields to leave out."""
        path = tmp_path / "p.npz"
        save_posteriors(path, np.full((3, V26.size), 1.0 / V26.size), manifest_hash(V26), 0.1)
        with np.load(path) as data:
            stored = {k: data[k] for k in data.files if k not in drop}
        merged = {**json.loads(str(stored["meta"])), **meta}
        stored["meta"] = json.dumps({k: v for k, v in merged.items() if k not in drop})
        np.savez(path, **{**stored, **arrays})
        with pytest.raises(BadPosteriors):
            load_posteriors(path, V26)

    def test_first_bad_row_is_named(self, tmp_path):
        post = np.full((3, V26.size), 1.0 / V26.size)
        save_posteriors(tmp_path / "p.npz", post, manifest_hash(V26), 0.1,
                        ((0.0, 1.0), (1.5, 2.0), (2.0, 3.0)))
        with pytest.raises(BadPosteriors, match=r": row 1 interval \(1.5, 2.0\) is off a time "
                                                r"axis$"):
            load_posteriors(tmp_path / "p.npz", V26)

    def test_rows_before_time_zero_rejected(self, tmp_path):
        post = np.full((2, V26.size), 1.0 / V26.size)
        save_posteriors(tmp_path / "p.npz", post, manifest_hash(V26), 0.1,
                        ((-1.0, 0.5), (0.5, 1.0)))
        with pytest.raises(BadPosteriors):
            load_posteriors(tmp_path / "p.npz", V26)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.one_of(st.none(), st.integers(0, 10_000)), flip=st.integers(0, 80_000))
    def test_truncated_or_flipped_file(self, tmp_path, cut, flip):
        """Any damage ends in posteriors or a ChordkitError."""
        path = tmp_path / "p.npz"
        post = np.random.default_rng(0).dirichlet(np.ones(V26.size), size=4)
        save_posteriors(path, post, manifest_hash(V26), 0.1, np.arange(8.0).reshape(4, 2))
        raw = bytearray(path.read_bytes())
        if cut is None:
            raw[flip // 8 % len(raw)] ^= 1 << (flip % 8)
        else:
            del raw[cut % len(raw):]
        path.write_bytes(bytes(raw))
        try:
            load_posteriors(path, V26)
        except ChordkitError:
            pass
