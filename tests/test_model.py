import json
import math
import tracemalloc

import numpy as np
import pytest

from sslcrop import blas
from sslcrop import evaluation as E
from sslcrop import model as M
from sslcrop import tensor as T
from sslcrop.model import EncoderConfig, SimSiamConfig
from sslcrop.tensor import Tensor
import reference_ops as R
from conftest import make_dataset


def tiny_state(seed=0, n_bands=3, n_steps=5, d_model=8, n_heads=2, n_layers=1,
               proj_hidden=4, head_out=6, pred_hidden=4, n_classes=None):
    enc = EncoderConfig(n_bands=n_bands, n_steps=n_steps, d_model=d_model,
                        n_heads=n_heads, n_layers=n_layers, ff_dim=4 * d_model)
    sim = SimSiamConfig(proj_hidden=proj_hidden, head_out=head_out, pred_hidden=pred_hidden)
    return M.init_model(enc, sim, n_classes=n_classes, seed=seed)


def reference_encode(state, batch):
    """Step-by-step reimplementation of the encoder with explicit loops."""
    cfg = state.encoder
    p = {k: v.data for k, v in state.params.items()}
    out = np.empty((batch.shape[0], cfg.d_model))
    dh = cfg.d_model // cfg.n_heads
    for n, sample in enumerate(batch):
        x = np.empty((cfg.n_steps, cfg.d_model))
        for t in range(cfg.n_steps):
            for j in range(cfg.d_model):
                acc = p["embed.b"][j]
                for i in range(cfg.n_bands):
                    acc += sample[t, i] * p["embed.w"][i, j]
                acc *= math.sqrt(cfg.d_model)
                div = 10000.0 ** ((2 * (j // 2)) / cfg.d_model)
                pos = math.sin(t / div) if j % 2 == 0 else math.cos(t / div)
                x[t, j] = acc + pos
        for layer in range(cfg.n_layers):
            pre = f"enc{layer}"
            q = x @ p[f"{pre}.attn.q.w"] + p[f"{pre}.attn.q.b"]
            k = x @ p[f"{pre}.attn.k.w"] + p[f"{pre}.attn.k.b"]
            v = x @ p[f"{pre}.attn.v.w"] + p[f"{pre}.attn.v.b"]
            ctx = np.zeros_like(x)
            for h in range(cfg.n_heads):
                sl = slice(h * dh, (h + 1) * dh)
                for tq in range(cfg.n_steps):
                    scores = np.array([
                        float(q[tq, sl] @ k[tk, sl]) / math.sqrt(dh)
                        for tk in range(cfg.n_steps)
                    ])
                    w = np.exp(scores - scores.max())
                    w /= w.sum()
                    for tk in range(cfg.n_steps):
                        ctx[tq, sl] += w[tk] * v[tk, sl]
            attn = ctx @ p[f"{pre}.attn.o.w"] + p[f"{pre}.attn.o.b"]

            def ln(arr, which):
                res = np.empty_like(arr)
                for t in range(arr.shape[0]):
                    row = arr[t]
                    mu = row.mean()
                    var = ((row - mu) ** 2).mean()
                    res[t] = (row - mu) / math.sqrt(var + 1e-5)
                return res * p[f"{pre}.{which}.gain"] + p[f"{pre}.{which}.bias"]

            x = ln(x + attn, "ln1")
            ff = np.maximum(x @ p[f"{pre}.ff1.w"] + p[f"{pre}.ff1.b"], 0.0)
            ff = ff @ p[f"{pre}.ff2.w"] + p[f"{pre}.ff2.b"]
            x = ln(x + ff, "ln2")
        out[n] = x.max(axis=0)
    return out


class TestEncode:
    def test_zero_input_is_finite(self):
        state = tiny_state()
        out = M.encode(state, np.zeros((1, 5, 3))).data
        assert out.shape == (1, 8)
        assert np.all(np.isfinite(out))

    def test_batch_permutation_equivariance(self):
        state = tiny_state(seed=3)
        rng = np.random.default_rng(0)
        batch = rng.normal(0.2, 0.1, (6, 5, 3))
        perm = rng.permutation(6)
        out = M.encode(state, batch).data
        out_perm = M.encode(state, batch[perm]).data
        assert np.array_equal(out[perm], out_perm)

    def test_matches_naive_reference(self):
        state = tiny_state(seed=7, n_heads=2, n_layers=1)
        batch = np.random.default_rng(1).normal(0.3, 0.15, (3, 5, 3))
        fast = M.encode(state, batch).data
        slow = reference_encode(state, batch)
        assert np.abs(fast - slow).max() < 1e-10

    def test_shape_mismatch_rejected(self):
        state = tiny_state()
        with pytest.raises(ValueError, match="batch shape"):
            M.encode(state, np.zeros((2, 4, 3)))

    def test_deterministic_init(self):
        a = tiny_state(seed=5)
        b = tiny_state(seed=5)
        for k in a.params:
            assert np.array_equal(a.params[k].data, b.params[k].data)


class TestSimSiamLoss:
    def test_identical_vectors_give_minus_one(self):
        v = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        assert abs(M._neg_cosine(v, v).item() + 1.0) < 1e-12

    def test_orthogonal_vectors_give_zero(self):
        a = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        b = Tensor(np.array([[0.0, 3.0], [4.0, 0.0]]))
        assert abs(M._neg_cosine(a, b).item()) < 1e-12

    def test_loss_in_range(self):
        state = tiny_state(seed=2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            loss = M.simsiam_forward(state, rng.normal(0.2, 0.2, (4, 5, 3)),
                                     rng.normal(0.2, 0.2, (4, 5, 3)))[0].item()
            assert -1.0 <= loss <= 1.0

    def test_gradients_match_frozen_target_oracle(self):
        state = tiny_state(seed=7)
        rng = np.random.default_rng(3)
        x1 = rng.normal(0.2, 0.1, (3, 5, 3))
        x2 = rng.normal(0.2, 0.1, (3, 5, 3))
        params = {**M.encoder_params(state), **M.head_params(state)}
        grads = T.gradients(M.simsiam_forward(state, x1, x2)[0], params)

        z1 = M.project(state, M.encode(state, x1)).data.copy()
        z2 = M.project(state, M.encode(state, x2)).data.copy()

        def frozen_loss():
            p1 = M.predict_head(state, M.project(state, M.encode(state, x1)))
            p2 = M.predict_head(state, M.project(state, M.encode(state, x2)))
            return T.add(
                T.scale(M._neg_cosine(p1, Tensor(z2)), 0.5),
                T.scale(M._neg_cosine(p2, Tensor(z1)), 0.5),
            ).item()

        h = 1e-5
        for name, p in params.items():
            flat = p.data.reshape(-1)
            for j in range(0, flat.size, max(1, flat.size // 6)):
                orig = flat[j]
                flat[j] = orig + h
                lp = frozen_loss()
                flat[j] = orig - h
                lm = frozen_loss()
                flat[j] = orig
                num = (lp - lm) / (2 * h)
                ana = grads[name].reshape(-1)[j]
                assert abs(ana - num) / max(abs(ana), abs(num), 1.0) < 1e-4, name

    def test_severed_prediction_branch_gets_zero_gradient(self):
        # with the live branch replaced by a constant, stop-gradient is the
        # only remaining path, so every parameter gradient is exactly zero
        state = tiny_state(seed=9)
        x = np.random.default_rng(5).normal(0.2, 0.1, (3, 5, 3))
        const = Tensor(np.random.default_rng(6).normal(size=(3, 6)))
        z = M.project(state, M.encode(state, x))
        loss = M._neg_cosine(const, T.stop_gradient(z))
        params = {**M.encoder_params(state), **M.head_params(state)}
        grads = T.gradients(loss, params)
        for name, g in grads.items():
            assert np.array_equal(g, np.zeros_like(g)), name

    def test_stop_gradient_changes_the_gradient(self):
        state = tiny_state(seed=11)
        rng = np.random.default_rng(7)
        x1 = rng.normal(0.2, 0.1, (3, 5, 3))
        x2 = rng.normal(0.2, 0.1, (3, 5, 3))
        params = M.encoder_params(state)
        with_sg = T.gradients(M.simsiam_forward(state, x1, x2)[0], params)

        z1 = M.project(state, M.encode(state, x1))
        z2 = M.project(state, M.encode(state, x2))
        p1 = M.predict_head(state, z1)
        p2 = M.predict_head(state, z2)
        free = T.add(
            T.scale(M._neg_cosine(p1, z2), 0.5), T.scale(M._neg_cosine(p2, z1), 0.5)
        )
        without_sg = T.gradients(free, params)
        diff = max(np.abs(with_sg[k] - without_sg[k]).max() for k in params)
        assert diff > 1e-8


class TestCollapseMetric:
    def test_identical_rows_give_zero(self):
        z = np.tile(np.array([1.0, 2.0, 3.0]), (8, 1))
        assert abs(M.collapse_metric(z)) < 1e-12

    def test_reference_value(self):
        assert abs(1 / math.sqrt(14) - 0.2673) < 1e-4

    def test_isotropic_rows_near_reference(self):
        z = np.random.default_rng(0).standard_normal((1000, 14))
        assert 0.21 <= M.collapse_metric(z) <= 0.32

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError):
            M.collapse_metric(np.ones((1, 14)))


class TestClassify:
    def test_zero_weights_tie_break_to_first_class(self):
        state = tiny_state(seed=0, n_classes=6)
        state.params["clf.w"].data = np.zeros_like(state.params["clf.w"].data)
        state.params["clf.b"].data = np.zeros_like(state.params["clf.b"].data)
        batch = np.random.default_rng(1).normal(0.2, 0.1, (4, 5, 3))
        logits = M.classify(state, batch).data
        assert np.abs(logits).max() == 0.0
        assert np.array_equal(M.predict_classes(state, batch), np.ones(4, dtype=int))

    def test_constant_logit_shift_keeps_argmax(self):
        state = tiny_state(seed=4, n_classes=6)
        batch = np.random.default_rng(2).normal(0.2, 0.1, (5, 5, 3))
        before = M.predict_classes(state, batch)
        state.params["clf.b"].data = state.params["clf.b"].data + 3.7
        assert np.array_equal(M.predict_classes(state, batch), before)

    def test_logits_match_hand_product(self):
        state = tiny_state(seed=6, n_classes=6)
        batch = np.random.default_rng(3).normal(0.2, 0.1, (2, 5, 3))
        emb = M.encode(state, batch).data
        expect = emb @ state.params["clf.w"].data + state.params["clf.b"].data
        assert np.abs(M.classify(state, batch).data - expect).max() < 1e-12

    def test_missing_head_rejected(self):
        state = tiny_state()
        with pytest.raises(ValueError, match="head"):
            M.classify(state, np.zeros((1, 5, 3)))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        state = tiny_state(seed=8, n_classes=6)
        path = tmp_path / "model.json"
        path.write_text(M.checkpoint_text(state))
        back = M.load_checkpoint(path)
        assert back.encoder == state.encoder
        assert back.simsiam == state.simsiam
        assert back.n_classes == 6
        assert set(back.params) == set(state.params)
        for k in state.params:
            assert np.array_equal(back.params[k].data, state.params[k].data)
        for k in state.buffers:
            assert np.array_equal(back.buffers[k], state.buffers[k])

    def test_checkpoint_text_is_deterministic(self):
        a = M.checkpoint_text(tiny_state(seed=1))
        b = M.checkpoint_text(tiny_state(seed=1))
        assert a == b

    @pytest.mark.parametrize("key, value, message", [
        ("clf.w", np.zeros(6), r"param 'clf.w': shape \(6,\), expected \(8, 6\)"),
        ("enc0.attn.q.w", None, r"param 'enc0.attn.q.w': missing"),
        ("enc9.ff1.b", np.zeros(3), r"param 'enc9.ff1.b': shape \(3,\), expected no such key"),
    ])
    def test_bad_param_named_at_load(self, tmp_path, key, value, message):
        doc = json.loads(M.checkpoint_text(tiny_state(seed=8, n_classes=6)))
        if value is None:
            del doc["params"][key]
        else:
            doc["params"][key] = M._encode_array(value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            M.load_checkpoint(path)

    def test_bad_buffer_named_at_load(self, tmp_path):
        doc = json.loads(M.checkpoint_text(tiny_state(seed=8)))
        doc["buffers"]["proj_bn.mean"] = M._encode_array(np.zeros(2))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="proj_bn.mean"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("section, edit, message", [
        ("encoder", {"bogus": 1}, r"unknown keys \['bogus'\], missing keys \[\]"),
        ("encoder", {"d_model": None}, r"unknown keys \[\], missing keys \['d_model'\]"),
        ("encoder", {"n_heads": 3}, "d_model 8 not divisible by n_heads 3"),
        ("simsiam", {"bogus": 1}, r"unknown keys \['bogus'\], missing keys \[\]"),
        ("simsiam", {"head_out": None}, r"unknown keys \[\], missing keys \['head_out'\]"),
        ("simsiam", {"head_out": 0}, "head_out must be at least 1, got 0"),
    ], ids=["encoder-unknown", "encoder-missing", "encoder-invalid",
            "simsiam-unknown", "simsiam-missing", "simsiam-invalid"])
    def test_bad_config_section_named_at_load(self, tmp_path, section, edit, message):
        doc = json.loads(M.checkpoint_text(tiny_state(seed=8)))
        for key, value in edit.items():
            if value is None:
                del doc[section][key]
            else:
                doc[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"bad.json: {section}: {message}"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("section", ["params", "buffers", "n_classes"])
    def test_missing_section_named_at_load(self, tmp_path, section):
        doc = json.loads(M.checkpoint_text(tiny_state(seed=8)))
        del doc[section]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"bad.json: {section}: missing"):
            M.load_checkpoint(path)

    def test_older_file_with_momentum_and_dropout_loads_the_same(self, tmp_path):
        # the same version-1 layout as written before: a `momentum` section keyed like
        # the params, and `encoder.dropout`, always 0.0
        state = tiny_state(seed=8, n_classes=6)
        doc = json.loads(M.checkpoint_text(state))
        rng = np.random.default_rng(0)
        doc["momentum"] = {k: M._encode_array(rng.normal(size=p.shape)) for k, p in state.params.items()}
        doc["encoder"]["dropout"] = 0.0
        assert doc["version"] == 1
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1))
        back = M.load_checkpoint(path)
        assert (back.encoder, back.simsiam, back.n_classes) == (state.encoder, state.simsiam, 6)
        assert M.checkpoint_text(back) == M.checkpoint_text(state)  # params and buffers, bitwise

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="not a model checkpoint"):
            M.load_checkpoint(path)


class TestTapeFreeInference:
    def test_logits_bitwise_equal_and_state_untouched(self):
        state = tiny_state(seed=6, n_classes=6)
        before = {k: p.data.copy() for k, p in state.params.items()}
        buffers = {k: v.copy() for k, v in state.buffers.items()}
        batch = np.random.default_rng(3).normal(0.2, 0.1, (7, 5, 3))
        taped = M.classify(state, batch)
        view = M.constant_view(state)
        free = M.classify(view, batch)
        assert taped.requires_grad and not free.requires_grad and free._parents == ()
        assert np.array_equal(free.data, taped.data)
        assert all(view.params[k].data is p.data for k, p in state.params.items())
        assert np.array_equal(M.predict_classes(state, batch), taped.data.argmax(axis=1) + 1)
        for k, p in state.params.items():
            assert np.array_equal(p.data, before[k]) and p.requires_grad
        assert "grad" not in Tensor.__slots__
        for k, v in state.buffers.items():
            assert np.array_equal(v, buffers[k])

    def test_batched_helpers_match_one_pass(self, monkeypatch):
        """On one BLAS thread a row's result does not depend on its block, so encoding
        `INFERENCE_BLOCK` samples at a time gives bitwise what one pass over the whole
        batch gives, on each side of the block size and across two blocks."""
        state = tiny_state(seed=2, n_bands=13, n_steps=14, d_model=32, n_heads=4, n_layers=2,
                           head_out=14, pred_hidden=14, n_classes=6)
        reference = E.embed_reference(state, make_dataset(n_per_class=2, n_bands=13, n_steps=14, seed=5))
        view = M.constant_view(state)
        for n in (1, 63, 64, 65, 130):
            X = np.random.default_rng(n).normal(0.2, 0.1, (n, 14, 13))
            with blas.one_thread():
                emb, pred = M.encode_batched(state, X), M.predict_classes(state, X)
                table = E.contrastive_classify_batch(state, X, reference)
                whole, logits = M.encode(view, X).data, M.classify(view, X).data
                with monkeypatch.context() as patch:
                    patch.setattr(M, "INFERENCE_BLOCK", n)
                    whole_table = E.contrastive_classify_batch(state, X, reference)
            assert np.array_equal(emb, whole), n
            assert np.array_equal(pred, logits.argmax(axis=1) + 1), n
            assert all(np.array_equal(a, b) for a, b in zip(table, whole_table, strict=True)), n


class TestMemory:
    """Peak traced allocations at the paper-default encoder (regression guard)."""

    @staticmethod
    def peak_mib(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_training_step_and_prediction_peaks(self):
        state = M.init_model(EncoderConfig(n_bands=13, n_steps=14), SimSiamConfig(), n_classes=6, seed=0)
        rng = np.random.default_rng(0)
        x1, x2 = rng.normal(0.2, 0.1, (64, 14, 13)), rng.normal(0.2, 0.1, (64, 14, 13))
        params = {**M.encoder_params(state), **M.head_params(state)}
        step = self.peak_mib(lambda: T.gradients(M.simsiam_forward(state, x1, x2)[0], params))
        assert step < 100.0, step
        X = rng.normal(0.2, 0.1, (256, 14, 13))
        # one pass over all 256 samples peaks at about 12 MiB, blocks of 64 at about 3.6
        assert self.peak_mib(lambda: M.predict_classes(state, X)) < 6.0

    @staticmethod
    def unfused_encode(state, batch):
        """`M.encode` with the embedding and feed-forward blocks as the separate
        linear, scale, add and relu nodes they fuse, and each layer norm as a node
        of its own after an attention node that keeps its context."""
        cfg, p = state.encoder, state.params
        x = T.scale(T.linear(Tensor(batch), p["embed.w"], p["embed.b"]), math.sqrt(cfg.d_model))
        x = T.add(x, Tensor(np.ascontiguousarray(np.broadcast_to(state.pos, x.shape))))
        for i in range(cfg.n_layers):
            attn = [p[f"enc{i}.attn.{proj}.{part}"] for proj in "qkvo" for part in "wb"]
            x = R.layer_norm(R.attention(x, *attn, n_heads=cfg.n_heads), p[f"enc{i}.ln1.gain"], p[f"enc{i}.ln1.bias"])
            hidden = T.relu(T.linear(x, p[f"enc{i}.ff1.w"], p[f"enc{i}.ff1.b"]))
            x = T.add(x, T.linear(hidden, p[f"enc{i}.ff2.w"], p[f"enc{i}.ff2.b"]))
            x = R.layer_norm(x, p[f"enc{i}.ln2.gain"], p[f"enc{i}.ln2.bias"])
        return T.max_axis(x, axis=1)

    def test_tape_drops_the_arrays_backward_never_reads(self):
        """The fused tape holds less than the unfused one by at least the arrays no
        backward reads (the FF1 pre-activation and the FF2 output, per layer and
        view), and by those plus the arrays the fused backward rebuilds or overwrites
        (both blocks' pre-norm outputs, the attention's q, k and v and its context,
        and the feed-forward hidden layer), the unfused embedding's product, scaled
        product and broadcast positions, and the layer norms' outputs that only the
        next block reads (all but the last, which `max_axis` keeps: each block
        returns its xhat and the next one applies the gain and bias), and gives
        bitwise the same loss and gradients.  The second bound is computed exactly,
        not rounded: the measured gap exceeds it by only about 22 KB."""
        enc, b = EncoderConfig(n_bands=13, n_steps=14), 64
        rng = np.random.default_rng(0)
        x1, x2 = rng.normal(0.2, 0.1, (b, 14, 13)), rng.normal(0.2, 0.1, (b, 14, 13))
        unfused = lambda state, v1, v2: (self.unfused_encode(state, v1), self.unfused_encode(state, v2))
        held, results = {}, {}
        for name, encoder in (("fused", M.encode_views), ("unfused", unfused)):
            state = M.init_model(enc, SimSiamConfig(), seed=0)
            tracemalloc.start()
            try:
                loss = M.simsiam_forward(state, x1, x2, encoder=encoder)[0]
                held[name] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            grads = T.gradients(loss, {**M.encoder_params(state), **M.head_params(state)})
            results[name] = loss.data.tobytes(), {k: g.tobytes() for k, g in grads.items()}
        dead = enc.n_layers * 2 * b * enc.n_steps * (enc.ff_dim + enc.d_model) * 8
        assert held["unfused"] - held["fused"] >= dead, (held, dead)
        per_position = 2 * enc.d_model + enc.d_model + 3 * enc.d_model + enc.ff_dim  # pre-norms, ctx, q/k/v, hidden
        rebuilt = enc.n_layers * 2 * b * enc.n_steps * per_position * 8
        embedding = 2 * b * enc.n_steps * 3 * enc.d_model * 8
        norm_outputs = (2 * enc.n_layers - 1) * 2 * b * enc.n_steps * enc.d_model * 8
        assert held["unfused"] - held["fused"] >= dead + rebuilt + embedding + norm_outputs, \
            (held, dead, rebuilt, embedding, norm_outputs)
        assert results["fused"] == results["unfused"]


class TestConfigs:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError):
            EncoderConfig(n_bands=3, n_steps=5, d_model=10, n_heads=4)

    def test_paper_defaults(self):
        cfg = EncoderConfig(n_bands=13, n_steps=14)
        assert (cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.ff_dim) == (64, 4, 3, 256)
        sim = SimSiamConfig()
        assert (sim.proj_hidden, sim.head_out, sim.pred_hidden) == (6, 14, 6)
