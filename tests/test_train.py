import math

import numpy as np
import pytest

from sslcrop import model as M
from sslcrop import seeding
from sslcrop import tensor as T
from sslcrop.augment import AugmentationPolicy
from sslcrop.dataio import CANONICAL_BANDS, CropClass, Dataset, Sample
from sslcrop.model import EncoderConfig, SimSiamConfig
from sslcrop.train import TrainConfig, TrainTrace, finetune, pretrain, train_supervised
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


def train_accuracy(state, dataset, dn_scale=10000.0):
    pred = M.predict_classes(state, dataset.time_major() / dn_scale)
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
        X = d.time_major() / 10000.0
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
        state, trace = pretrain(d, AugmentationPolicy("aug1"), cfg, TINY_ENC)
        fresh = M.init_model(TINY_ENC, SimSiamConfig(), seed=5)
        for k in fresh.params:
            assert np.array_equal(state.params[k].data, fresh.params[k].data)
        assert trace.losses == [] and trace.collapse == []

    def test_records_collapse_each_epoch(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=6)
        cfg = TrainConfig(lr=0.001, batch_size=9, epochs_pretrain=4, seed=2,
                          collapse_warmup_epochs=10**9)
        _, trace = pretrain(d, AugmentationPolicy("aug2"), cfg, TINY_ENC)
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
            pretrain(stripped, AugmentationPolicy("aug1"), TrainConfig(epochs_pretrain=1), TINY_ENC)

    def test_aug2_accepts_unlabeled_pool(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=8)
        stripped = Dataset(
            tuple(Sample(s.field_id, s.year, None, s.reflectance) for s in d.samples),
            d.band_ids, d.n_steps,
        )
        cfg = TrainConfig(lr=0.001, batch_size=9, epochs_pretrain=2, seed=3,
                          collapse_warmup_epochs=10**9)
        _, trace = pretrain(stripped, AugmentationPolicy("aug2"), cfg, TINY_ENC)
        assert len(trace.losses) == 2

    def test_loss_in_range_and_deterministic(self):
        d = make_dataset(n_per_class=4, years=(2016,), n_bands=4, n_steps=6, seed=9)
        cfg = TrainConfig(lr=0.005, batch_size=12, epochs_pretrain=3, seed=4,
                          collapse_warmup_epochs=10**9)
        _, t1 = pretrain(d, AugmentationPolicy("aug3"), cfg, TINY_ENC)
        _, t2 = pretrain(d, AugmentationPolicy("aug3"), cfg, TINY_ENC)
        assert t1.losses == t2.losses
        assert all(-1.0 <= v <= 1.0 for v in t1.losses)

    def test_identical_pair_overfit_drives_loss_to_minus_one(self):
        # single fixed pair, repeated: alignment should become near-perfect
        d = make_dataset(n_per_class=2, years=(2016,), n_bands=4, n_steps=6, seed=10)
        pool = Dataset(d.samples[:2], d.band_ids, d.n_steps)  # both corn
        cfg = TrainConfig(lr=0.05, batch_size=2, epochs_pretrain=200, seed=6,
                          collapse_warmup_epochs=10**9)
        _, trace = pretrain(pool, AugmentationPolicy("aug1"), cfg, TINY_ENC)
        assert trace.losses[-1] < -0.99


class TestFinetune:
    def test_linear_probe_leaves_backbone_bitwise_unchanged(self):
        d = two_blob_dataset(4)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=1)
        before = {k: p.data.copy() for k, p in backbone.params.items()}
        cfg = TrainConfig(lr=0.05, batch_size=4, epochs_finetune=20, seed=2,
                          finetune_mode="linear_probe")
        tuned, _ = finetune(backbone, d, cfg)
        for k, v in before.items():
            assert np.array_equal(backbone.params[k].data, v)
            assert np.array_equal(tuned.params[k].data, v)

    def test_linear_probe_separates_separable_embeddings(self):
        d = two_blob_dataset(6)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=3)
        cfg = TrainConfig(lr=0.1, batch_size=8, epochs_finetune=150, seed=4,
                          finetune_mode="linear_probe")
        tuned, _ = finetune(backbone, d, cfg)
        assert train_accuracy(tuned, d) == 1.0

    def test_zero_epochs_equals_fresh_head_on_frozen_backbone(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=11)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=5)
        cfg_full = TrainConfig(epochs_finetune=0, seed=6, finetune_mode="full")
        cfg_probe = TrainConfig(epochs_finetune=0, seed=6, finetune_mode="linear_probe")
        a, _ = finetune(backbone, d, cfg_full)
        b, _ = finetune(backbone, d, cfg_probe)
        X = d.time_major() / 10000.0
        assert np.array_equal(M.classify(a, X).data, M.classify(b, X).data)

    def test_initial_loss_identical_for_both_modes(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=12)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=7)
        X = d.time_major() / 10000.0
        y0 = d.labels_array() - 1
        losses = []
        for mode in ("full", "linear_probe"):
            cfg = TrainConfig(epochs_finetune=0, seed=8, finetune_mode=mode)
            tuned, _ = finetune(backbone, d, cfg)
            losses.append(T.cross_entropy(M.classify(tuned, X), y0).item())
        assert losses[0] == losses[1]


    def test_linear_probe_matches_the_taped_encoder_path(self):
        d = make_dataset(n_per_class=3, years=(2016,), n_bands=4, n_steps=6, seed=13)
        backbone = M.init_model(TINY_ENC, SimSiamConfig(), seed=9)
        cfg = TrainConfig(lr=0.05, batch_size=4, epochs_finetune=4, seed=10,
                          finetune_mode="linear_probe")
        tuned, trace = finetune(backbone, d, cfg)

        # the reference: classify on the state itself, taping the whole encoder
        ref = M.clone_state(backbone)
        M.attach_classifier(ref, n_classes=6, seed=cfg.seed)
        params = M.classifier_params(ref)
        X, y0 = d.time_major() / cfg.dn_scale, d.labels_array() - 1
        losses = []
        for epoch in range(cfg.epochs_finetune):
            order = seeding.stream(cfg.seed, "shuffle", epoch).permutation(len(X))
            total = 0.0
            for start in range(0, len(X), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                loss = T.cross_entropy(M.classify(ref, X[idx]), y0[idx])
                grads = T.gradients(loss, params)
                T.sgd_step(params, ref.momentum, grads, cfg.lr, cfg.momentum, cfg.weight_decay)
                total += loss.item() * len(idx)
            losses.append(total / len(X))
        assert trace.losses == losses
        assert M.checkpoint_text(tuned) == M.checkpoint_text(ref)

    @pytest.mark.parametrize("mode", ["linear_probe", "full"])
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
