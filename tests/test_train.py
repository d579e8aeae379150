import math
import os
import threading

import numpy as np
import pytest

from sslcrop import augment
from sslcrop import blas
from sslcrop import model as M
from sslcrop import seeding
from sslcrop import tensor as T
from sslcrop.dataio import CANONICAL_BANDS, CropClass, Dataset, Sample
from sslcrop.model import EncoderConfig, SimSiamConfig
from sslcrop.train import (TrainConfig, TrainingDiverged, TrainTrace, _make_pairs, branch_threads,
                           finetune, pretrain, train_supervised)
import reference_ops
from conftest import make_dataset, make_sample

TINY_ENC = EncoderConfig(n_bands=4, n_steps=6, d_model=8, n_heads=2, n_layers=1, ff_dim=32)


def two_blob_dataset(n_per_class=6, seed=0):
    """Two classes with far-apart constant levels: linearly trivial."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_per_class):
        samples.append(Sample(f"a{i}", 2016, CropClass.CORN,
                              rng.uniform(400, 600, (4, 6))))
        samples.append(Sample(f"b{i}", 2016, CropClass.POTATO,
                              rng.uniform(7000, 9000, (4, 6))))
    return Dataset(tuple(samples), CANONICAL_BANDS[:4], 6)


def train_accuracy(state, dataset):
    pred = M.predict_classes(state, M.encoder_batch(s.reflectance for s in dataset.samples), len(dataset))
    return (pred == dataset.labels_array()).mean()


class TestTrainSupervised:
    def test_trivial_dataset_reaches_full_accuracy(self):
        d = two_blob_dataset()
        cfg = TrainConfig(lr=0.02, batch_size=4, epochs_supervised=50, seed=0)
        state, trace = train_supervised(d, cfg, TINY_ENC)
        assert train_accuracy(state, d) == 1.0
        assert len(trace.losses) == 50

    def test_initial_loss_matches_uniform_logit_oracle(self):
        d = make_dataset(n_per_class=8, years=(2016,), n_bands=4, n_steps=6, seed=1)
        state = M.init_model(TINY_ENC, SimSiamConfig(), n_classes=6, seed=0)
        X = M.encoder_batch(s.reflectance for s in d.samples)
        loss = T.cross_entropy(M.classify(state, X), d.labels_array() - 1).item()
        assert abs(loss - math.log(6)) < 0.2

    def test_same_seed_gives_identical_trace_and_params(self):
        d = make_dataset(n_per_class=4, years=(2016,), n_bands=4, n_steps=6, seed=2)
        cfg = TrainConfig(lr=0.01, batch_size=8, epochs_supervised=5, seed=7)
        s1, t1 = train_supervised(d, cfg, TINY_ENC)
        s2, t2 = train_supervised(d, cfg, TINY_ENC)
        assert t1.losses == t2.losses
        for k in s1.params:
            assert np.array_equal(s1.params[k].data, s2.params[k].data)

    def test_unlabeled_sample_rejected(self):
        d = make_dataset(n_per_class=2, years=(2016,), n_bands=4, n_steps=6)
        d = Dataset(d.samples + (make_sample("u", 2016, None),), d.band_ids, d.n_steps)
        with pytest.raises(ValueError, match="unlabeled"):
            train_supervised(d, TrainConfig(epochs_supervised=1), TINY_ENC)

    def test_losses_finite_and_broadly_decreasing(self):
        d = make_dataset(n_per_class=6, years=(2016, 2017), n_bands=4, n_steps=6, seed=3)
        cfg = TrainConfig(lr=0.01, batch_size=16, epochs_supervised=30, seed=1)
        _, trace = train_supervised(d, cfg, TINY_ENC)
        assert all(np.isfinite(trace.losses))
        assert trace.losses[-1] < trace.losses[0]


class TestPretrain:
    def test_zero_epochs_returns_initialization(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=4)
        cfg = TrainConfig(epochs_pretrain=0, seed=5)
        state, trace = pretrain(d, "aug1", cfg, TINY_ENC)
        fresh = M.init_model(TINY_ENC, SimSiamConfig(), seed=5)
        M.cast_state(fresh, np.float32)  # pre-training starts from the float32-rounded init
        for k in fresh.params:
            assert np.array_equal(state.params[k].data, fresh.params[k].data)
        assert trace.losses == [] and trace.collapse == []

    def test_records_collapse_each_epoch(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=6)
        cfg = TrainConfig(lr=0.001, batch_size=9, epochs_pretrain=4, seed=2,
                          collapse_warmup_epochs=10**9)
        _, trace = pretrain(d, "aug2", cfg, TINY_ENC)
        assert len(trace.collapse) == 4
        assert all(np.isfinite(trace.collapse))
        assert not trace.collapse_warning

    def test_aug1_requires_labeled_pool(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6)
        stripped = Dataset(
            tuple(Sample(s.field_id, s.year, None, s.reflectance) for s in d.samples),
            d.band_ids, d.n_steps,
        )
        with pytest.raises(ValueError, match="labeled"):
            pretrain(stripped, "aug1", TrainConfig(epochs_pretrain=1), TINY_ENC)

    def test_unknown_kind_rejected(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6)
        with pytest.raises(ValueError, match="unknown augmentation kind 'augX'"):
            pretrain(d, "augX", TrainConfig(epochs_pretrain=1), TINY_ENC)

    def test_aug2_noise_is_noise_scale_on_the_normalized_scale(self):
        # the noise branch of a pair moves every step; the drift branch keeps step 0
        d = make_dataset(n_per_class=10, years=(2016, 2017), n_bands=4, n_steps=14, seed=21)
        x1, x2 = _make_pairs(d, np.arange(len(d)), "aug2", np.random.default_rng(5))
        diff = x2.astype(np.float64) - x1  # batch x steps x bands
        noisy = np.any(diff[:, 0, :] != 0.0, axis=1)
        assert 40 < noisy.sum() < 200
        assert abs(diff[noisy].std() - augment.NOISE_SCALE) < 0.1 * augment.NOISE_SCALE

    def test_aug2_accepts_unlabeled_pool(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=8)
        stripped = Dataset(
            tuple(Sample(s.field_id, s.year, None, s.reflectance) for s in d.samples),
            d.band_ids, d.n_steps,
        )
        cfg = TrainConfig(lr=0.001, batch_size=9, epochs_pretrain=2, seed=3,
                          collapse_warmup_epochs=10**9)
        _, trace = pretrain(stripped, "aug2", cfg, TINY_ENC)
        assert len(trace.losses) == 2

    def test_loss_in_range_and_deterministic(self):
        d = make_dataset(n_per_class=4, years=(2016,), n_bands=4, n_steps=6, seed=9)
        cfg = TrainConfig(lr=0.005, batch_size=12, epochs_pretrain=3, seed=4,
                          collapse_warmup_epochs=10**9)
        _, t1 = pretrain(d, "aug3", cfg, TINY_ENC)
        _, t2 = pretrain(d, "aug3", cfg, TINY_ENC)
        assert t1.losses == t2.losses
        assert all(-1.0 <= v <= 1.0 for v in t1.losses)

    def test_identical_pair_overfit_drives_loss_to_minus_one(self):
        # single fixed pair, repeated: alignment should become near-perfect
        d = make_dataset(n_per_class=2, years=(2016,), n_bands=4, n_steps=6, seed=10)
        pool = Dataset(d.samples[:2], d.band_ids, d.n_steps)  # both corn
        cfg = TrainConfig(lr=0.05, batch_size=2, epochs_pretrain=200, seed=6,
                          collapse_warmup_epochs=10**9)
        _, trace = pretrain(pool, "aug1", cfg, TINY_ENC)
        assert trace.losses[-1] < -0.99


def use_objective(monkeypatch, objective):
    """Put the collapsing `direct_cosine` forward in `simsiam_forward`'s place, or
    leave the package's own (`simsiam`)."""
    if objective == "direct_cosine":
        monkeypatch.setattr(M, "simsiam_forward", reference_ops.direct_cosine_forward)


def serial_pretrain(pool, aug, cfg, encoder, simsiam):
    """The reference: each step one serial forward over both views, one `gradients`
    over the whole graph and one `sgd_step`, on OpenBLAS's one thread, in float32
    (the state through `cast_state`, the batches from `_make_pairs`); the state is
    returned in float64, as `pretrain` returns it."""
    state = M.init_model(encoder, simsiam, seed=cfg.seed)
    M.cast_state(state, np.float32)
    params = {**M.encoder_params(state), **M.head_params(state)}
    aug_rng = seeding.stream(cfg.seed, "augment")
    n = len(pool)
    losses, collapse, momentum = [], [], {}
    with blas.one_thread():
        for epoch in range(cfg.epochs_pretrain):
            order = seeding.stream(cfg.seed, "shuffle", epoch).permutation(n)
            total, z_parts = 0.0, []
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                x1, x2 = _make_pairs(pool, idx, aug, aug_rng)
                loss, z1, _ = M.simsiam_forward(state, x1, x2)
                grads = T.gradients(loss, params)
                T.sgd_step(params, momentum, grads, cfg.lr, cfg.momentum, cfg.weight_decay)
                total += loss.item() * len(idx)
                z_parts.append(z1)
            losses.append(total / n)
            collapse.append(M.collapse_metric(np.concatenate(z_parts)))
    M.cast_state(state, np.float64)
    return state, losses, collapse


class TestConcurrentBranches:
    ENC = EncoderConfig(n_bands=4, n_steps=6, d_model=16, n_heads=2, n_layers=2, ff_dim=32)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["aug1", "aug2"])
    @pytest.mark.parametrize("objective", ["simsiam", "direct_cosine"])
    def test_bitwise_equal_to_the_serial_loop(self, objective, kind, threads, monkeypatch):
        d = make_dataset(n_per_class=3, years=(2016, 2017), n_bands=4, n_steps=6, seed=15)
        cfg = TrainConfig(lr=0.01, batch_size=16, epochs_pretrain=3, seed=13,
                          collapse_warmup_epochs=10**9, branch_threads=threads)
        use_objective(monkeypatch, objective)
        ref, losses, collapse = serial_pretrain(d, kind, cfg, self.ENC, SimSiamConfig())

        encoded_in = set()

        def recording_encode(state, batch, inner=M.encode):
            encoded_in.add(threading.get_ident())
            return inner(state, batch)

        monkeypatch.setattr(M, "encode", recording_encode)
        state, trace = pretrain(d, kind, cfg, self.ENC, SimSiamConfig())
        assert len(encoded_in) == threads
        assert trace.losses == losses
        assert trace.collapse == collapse
        assert M.checkpoint_text(state) == M.checkpoint_text(ref)  # params, BN buffers

    def test_threads_follow_the_cores_per_worker(self, monkeypatch):
        for cores, workers, threads in ((2, 1, 2), (2, 2, 1), (2, 3, 1), (1, 1, 1), (8, 2, 2),
                                        (None, 1, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            assert branch_threads(workers) == threads, (cores, workers)
        with pytest.raises(ValueError, match="branch_threads"):
            TrainConfig(branch_threads=0)


class TestPrecision:
    """Every training phase computes in float32 from end to end and returns float64.
    A single float64 allocation in a node would silently widen the rest of the pass."""

    @staticmethod
    def recorded_dtypes(monkeypatch, run):
        """The dtypes of every node output, every array a backward rule returned, and
        the grads, momentum buffers and updated params of every `sgd_step` in `run()`."""
        seen = set()

        def recording_op(data, parents, backward, inner=T._op):
            seen.add(("node", np.asarray(data).dtype))

            def recording_backward(g):
                out = backward(g)
                seen.update(("backward", a.dtype) for a in out if a is not None)
                return out

            return inner(data, parents, None if backward is None else recording_backward)

        def recording_step(params, buffers, grads, *args, inner=T.sgd_step, **kwargs):
            inner(params, buffers, grads, *args, **kwargs)
            seen.update(("grad", g.dtype) for g in grads.values())
            seen.update(("momentum", b.dtype) for b in buffers.values())
            seen.update(("param", p.data.dtype) for p in params.values())

        monkeypatch.setattr(T, "_op", recording_op)
        monkeypatch.setattr(T, "sgd_step", recording_step)
        result = run()
        monkeypatch.undo()
        return seen, result

    @pytest.mark.parametrize("kind", ["aug1", "aug2"])
    @pytest.mark.parametrize("objective", ["simsiam", "direct_cosine"])
    def test_a_pretraining_step_is_float32_throughout(self, objective, kind, monkeypatch):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=16)  # 18 samples
        cfg = TrainConfig(lr=0.01, batch_size=32, epochs_pretrain=1, seed=3, collapse_warmup_epochs=10**9)
        use_objective(monkeypatch, objective)
        seen, (state, _) = self.recorded_dtypes(
            monkeypatch, lambda: pretrain(d, kind, cfg, TINY_ENC, SimSiamConfig()))
        assert {role for role, _ in seen} == {"node", "backward", "grad", "momentum", "param"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}, sorted(map(str, seen))
        for k, p in state.params.items():  # returned in float64, holding float32 values
            assert p.data.dtype == np.float64, k
            assert np.array_equal(p.data, p.data.astype(np.float32)), k
        assert all(b.dtype == np.float64 for b in state.buffers.values())
        assert state.pos.dtype == np.float64

    @pytest.mark.parametrize("phase, mode", [("train", "full"), ("finetune", "full"), ("finetune", "linear")])
    def test_a_supervised_step_is_float32_throughout(self, phase, mode, monkeypatch):
        d = make_dataset(n_per_class=2, years=(2016,), n_bands=4, n_steps=6, seed=17)
        cfg = TrainConfig(lr=0.01, batch_size=32, epochs_supervised=1, epochs_finetune=1, seed=3,
                          finetune_mode=mode)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=2)  # float64 values
        before = M.checkpoint_text(backbone)
        seen, (state, _) = self.recorded_dtypes(
            monkeypatch, lambda: train_supervised(d, cfg, TINY_ENC) if phase == "train"
            else finetune(backbone, d, cfg))
        assert {role for role, _ in seen} == {"node", "backward", "grad", "momentum", "param"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}, sorted(map(str, seen))
        for k, p in state.params.items():  # returned in float64, holding float32 values
            assert p.data.dtype == np.float64, k
            assert np.array_equal(p.data, p.data.astype(np.float32)), k
        assert all(b.dtype == np.float64 for b in state.buffers.values())
        assert state.pos.dtype == np.float64
        assert M.checkpoint_text(backbone) == before
        assert all(p.data.dtype == np.float64 for p in backbone.params.values())


class TestFinetune:
    def test_mode_is_full_or_linear(self):
        with pytest.raises(ValueError, match="finetune_mode must be full or linear, got 'linear_probe'"):
            TrainConfig(finetune_mode="linear_probe")

    def test_linear_probe_leaves_backbone_bitwise_unchanged(self):
        d = two_blob_dataset(4)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=1)
        M.cast_state(backbone, np.float32)  # float32 values in float64, as pre-training returns it
        M.cast_state(backbone, np.float64)
        before = {k: p.data.copy() for k, p in backbone.params.items()}
        cfg = TrainConfig(lr=0.05, batch_size=4, epochs_finetune=20, seed=2,
                          finetune_mode="linear")
        tuned, _ = finetune(backbone, d, cfg)
        for k, v in before.items():
            assert np.array_equal(backbone.params[k].data, v)
            assert np.array_equal(tuned.params[k].data, v)

    def test_linear_probe_separates_separable_embeddings(self):
        d = two_blob_dataset(6)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=3)
        cfg = TrainConfig(lr=0.1, batch_size=8, epochs_finetune=150, seed=4,
                          finetune_mode="linear")
        tuned, _ = finetune(backbone, d, cfg)
        assert train_accuracy(tuned, d) == 1.0

    def test_zero_epochs_equals_fresh_head_on_frozen_backbone(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=11)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=5)
        cfg_full = TrainConfig(epochs_finetune=0, seed=6, finetune_mode="full")
        cfg_probe = TrainConfig(epochs_finetune=0, seed=6, finetune_mode="linear")
        a, _ = finetune(backbone, d, cfg_full)
        b, _ = finetune(backbone, d, cfg_probe)
        X = M.encoder_batch(s.reflectance for s in d.samples)
        assert np.array_equal(M.classify(a, X).data, M.classify(b, X).data)

    def test_initial_loss_identical_for_both_modes(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=12)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=7)
        X = M.encoder_batch(s.reflectance for s in d.samples)
        y0 = d.labels_array() - 1
        losses = []
        for mode in ("full", "linear"):
            cfg = TrainConfig(epochs_finetune=0, seed=8, finetune_mode=mode)
            tuned, _ = finetune(backbone, d, cfg)
            losses.append(T.cross_entropy(M.classify(tuned, X), y0).item())
        assert losses[0] == losses[1]


    def test_linear_probe_matches_the_taped_encoder_path(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=13)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=9)
        cfg = TrainConfig(lr=0.05, batch_size=4, epochs_finetune=4, seed=10,
                          finetune_mode="linear")
        tuned, trace = finetune(backbone, d, cfg)

        # the reference: classify on the state itself, taping the whole encoder, in
        # float32 on OpenBLAS's one thread, as `serial_pretrain` runs its loop
        ref = M.clone_state(backbone)
        M.attach_classifier(ref, n_classes=6, seed=cfg.seed)
        M.cast_state(ref, np.float32)
        params = M.classifier_params(ref)
        X, y0 = M.encoder_batch(s.reflectance for s in d.samples).astype(np.float32), d.labels_array() - 1
        losses, momentum = [], {}
        with blas.one_thread():
            for epoch in range(cfg.epochs_finetune):
                order = seeding.stream(cfg.seed, "shuffle", epoch).permutation(len(X))
                total = 0.0
                for start in range(0, len(X), cfg.batch_size):
                    idx = order[start:start + cfg.batch_size]
                    loss = T.cross_entropy(M.classify(ref, X[idx]), y0[idx])
                    grads = T.gradients(loss, params)
                    T.sgd_step(params, momentum, grads, cfg.lr, cfg.momentum, cfg.weight_decay)
                    total += loss.item() * len(idx)
                losses.append(total / len(X))
        M.cast_state(ref, np.float64)
        assert trace.losses == losses
        assert M.checkpoint_text(tuned) == M.checkpoint_text(ref)

    @pytest.mark.parametrize("mode", ["linear", "full"])
    def test_backward_reaches_only_the_trained_params(self, mode, monkeypatch):
        reached = []

        def recording_pass(root, inner=T._backward_pass):
            leaves = inner(root)
            reached.append({id(leaf) for leaf in leaves if leaf.requires_grad})
            return leaves

        monkeypatch.setattr(T, "_backward_pass", recording_pass)
        d = make_dataset(n_per_class=2, years=(2016,), n_bands=4, n_steps=6, seed=14)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=11)
        tuned, _ = finetune(backbone, d, TrainConfig(batch_size=4, epochs_finetune=2, seed=12,
                                                      finetune_mode=mode))
        trained = M.classifier_params(tuned)
        if mode == "full":
            trained = {**M.encoder_params(tuned), **trained}
        assert len(reached) == 6  # 12 samples in batches of 4, two epochs
        assert all(ids == {id(p) for p in trained.values()} for ids in reached)


class TestOneLoop:
    """Every phase runs the one SGD loop: its divergence guard, its config checks, its
    empty-data check and its one BLAS thread."""

    @pytest.mark.parametrize("phase", ["train", "pretrain", "finetune"])
    def test_non_finite_loss_stops_the_phase_before_its_update(self, phase, monkeypatch):
        d = make_dataset(n_per_class=2, years=(2016,), n_bands=4, n_steps=6, seed=3)  # 12 samples
        cfg = TrainConfig(batch_size=5, epochs_supervised=3, epochs_pretrain=3, epochs_finetune=3,
                          seed=1, collapse_warmup_epochs=10**9)  # 3 batches an epoch
        losses, updates = [], []

        def poisoned(inner):  # the 5th batch loss (epoch 1, batch 1) reads NaN
            def forward(*args, **kwargs):
                out = inner(*args, **kwargs)
                loss = out[0] if isinstance(out, tuple) else out
                losses.append(loss)
                if len(losses) == 5:
                    loss.data = np.asarray(np.nan)
                return out
            return forward

        def counting_step(*args, inner=T.sgd_step, **kwargs):
            updates.append(1)
            inner(*args, **kwargs)

        monkeypatch.setattr(T, "sgd_step", counting_step)
        if phase == "pretrain":
            monkeypatch.setattr(M, "simsiam_forward", poisoned(M.simsiam_forward))
        else:
            monkeypatch.setattr(T, "cross_entropy", poisoned(T.cross_entropy))
        with pytest.raises(TrainingDiverged, match=f"^{phase} diverged: epoch 1, batch 1: loss nan$"):
            if phase == "train":
                train_supervised(d, cfg, TINY_ENC)
            elif phase == "pretrain":
                pretrain(d, "aug2", cfg, TINY_ENC)
            else:
                finetune(M.init_model(TINY_ENC, SimSiamConfig(), seed=2), d, cfg)
        assert len(updates) == 4

    @pytest.mark.parametrize("phase", ["train", "finetune"])
    def test_supervised_phases_run_on_one_blas_thread_and_restore_the_callers(self, phase, monkeypatch):
        if not blas._openblas():
            pytest.skip("no OpenBLAS loaded")
        get = blas._openblas()[0][0]
        d = make_dataset(n_per_class=4, years=(2016,), n_bands=4, n_steps=6, seed=18)
        cfg = TrainConfig(lr=0.01, batch_size=8, epochs_supervised=2, epochs_finetune=2, seed=4)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=3)
        during = []

        def recording_step(*args, inner=T.sgd_step, **kwargs):
            during.append(get())
            inner(*args, **kwargs)

        monkeypatch.setattr(T, "sgd_step", recording_step)
        before, results = get(), []
        try:
            for threads in (2, 1):
                blas.set_threads(threads)
                state, trace = (train_supervised(d, cfg, TINY_ENC) if phase == "train"
                                else finetune(backbone, d, cfg))
                assert get() == threads  # the caller's count is back
                results.append((M.checkpoint_text(state), trace.to_csv()))
        finally:
            blas.set_threads(before)
        assert set(during) == {1}
        assert results[0] == results[1]

    @pytest.mark.parametrize("phase", ["train", "pretrain", "finetune"])
    def test_an_empty_dataset_is_rejected_naming_the_phase_before_any_work(self, phase, monkeypatch):
        d = make_dataset(n_per_class=2, years=(2016,), n_bands=4, n_steps=6)
        empty = Dataset((), d.band_ids, d.n_steps)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=2)

        def no_work(*args, **kwargs):
            raise AssertionError("work started on an empty dataset")

        monkeypatch.setattr(M, "init_model", no_work)
        monkeypatch.setattr(M, "clone_state", no_work)
        cfg = TrainConfig(epochs_supervised=1, epochs_pretrain=1, epochs_finetune=1)
        with pytest.raises(ValueError, match=f"^cannot {phase} on an empty dataset$"):
            if phase == "train":
                train_supervised(empty, cfg, TINY_ENC)
            elif phase == "pretrain":
                pretrain(empty, "aug1", cfg, TINY_ENC)
            else:
                finetune(backbone, empty, cfg)

    def test_a_one_sample_pool_is_rejected_before_any_work(self, monkeypatch):
        d = make_dataset(n_per_class=1, years=(2016,), n_bands=4, n_steps=6)
        one = Dataset(d.samples[:1], d.band_ids, d.n_steps)

        def no_work(*args, **kwargs):
            raise AssertionError("work started on a one-sample pool")

        monkeypatch.setattr(M, "init_model", no_work)
        with pytest.raises(ValueError, match="^cannot pretrain on a pool of 1 sample; the collapse metric needs "
                                             "at least 2$"):
            pretrain(one, "aug2", TrainConfig(epochs_pretrain=1), TINY_ENC)

    @pytest.mark.parametrize("name", ["epochs_supervised", "epochs_pretrain", "epochs_finetune",
                                      "collapse_warmup_epochs"])
    def test_negative_epoch_counts_are_rejected_naming_the_field(self, name):
        with pytest.raises(ValueError, match=f"^{name} must not be negative, got -1$"):
            TrainConfig(**{name: -1})
        assert getattr(TrainConfig(**{name: 0}), name) == 0


class TestTrace:
    def test_csv_layout(self):
        trace = TrainTrace(losses=[1.5, 1.2], collapse=[0.25, 0.24])
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "epoch,loss,collapse_metric"
        assert lines[1].startswith("0,1.5,0.25")
        assert len(lines) == 3

    def test_csv_without_collapse(self):
        trace = TrainTrace(losses=[2.0])
        assert trace.to_csv().strip().split("\n")[1] == "0,2.0,"
