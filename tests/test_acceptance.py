"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible regardless of capture) so the
suite doubles as a checklist.  Budgets are desk-scale: the full module runs
in roughly ten minutes on a laptop.
"""

import contextlib
import math
import os
import sys
import time

import numpy as np
import pytest

from sslcrop import cli
from sslcrop import evaluation as E
from sslcrop import model as M
from sslcrop import tensor as T
from sslcrop.dataio import (
    CANONICAL_BANDS,
    CropClass,
    ScenarioSpec,
    make_split,
    select_bands,
    truncate_steps,
)
from sslcrop.forest import ForestConfig, rf_fit, rf_predict
from sslcrop.model import EncoderConfig, SimSiamConfig
from sslcrop.train import TrainConfig, finetune, pretrain, train_supervised
import reference_ops
from conftest import make_dataset
from test_dataio import published_counts_dataset

REF14 = 1.0 / math.sqrt(14)

# desk-scale encoder used by the training benchmarks
BENCH_ENC = EncoderConfig(n_bands=13, n_steps=14, d_model=32, n_heads=4, n_layers=2, ff_dim=128)
BENCH_SIM = SimSiamConfig(proj_hidden=6, head_out=14, pred_hidden=14)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:>2}] FAIL  {label}", file=sys.__stdout__, flush=True)
        raise
    print(f"[criterion {number:>2}] PASS  {label}", file=sys.__stdout__, flush=True)


def batched_predict(state, dataset, batch=256):
    X = M.encoder_batch(s.reflectance for s in dataset.samples)
    return np.concatenate(
        [M.predict_classes(state, X, batch)]
    )


class TestCriterion1GradientCorrectness:
    def test_simsiam_and_cross_entropy_match_finite_differences(self):
        with criterion(1, "gradients match central finite differences (rel err < 1e-4)"):
            started = time.perf_counter()
            enc = EncoderConfig(n_bands=3, n_steps=5, d_model=8, n_heads=2, n_layers=1, ff_dim=32)
            sim = SimSiamConfig(proj_hidden=4, head_out=6, pred_hidden=4)
            state = M.init_model(enc, sim, n_classes=6, seed=7)
            rng = np.random.default_rng(3)
            x1 = rng.normal(0.2, 0.1, (3, 5, 3))
            x2 = rng.normal(0.2, 0.1, (3, 5, 3))
            labels = np.array([0, 3, 5])
            h = 1e-5

            def check(params, grads, loss_fn):
                worst = 0.0
                for name, p in params.items():
                    flat = p.data.reshape(-1)
                    for j in range(flat.size):
                        orig = flat[j]
                        flat[j] = orig + h
                        lp = loss_fn()
                        flat[j] = orig - h
                        lm = loss_fn()
                        flat[j] = orig
                        num = (lp - lm) / (2 * h)
                        ana = grads[name].reshape(-1)[j]
                        worst = max(worst, abs(ana - num) / max(abs(ana), abs(num), 1.0))
                return worst

            # two-branch loss: finite differences hold the stop-gradient
            # targets at their base values, which is what the loss defines
            sim_params = {**M.encoder_params(state), **M.head_params(state)}
            sim_grads = T.gradients(M.simsiam_forward(state, x1, x2)[0], sim_params)
            z1 = M.project(state, M.encode(state, x1)).data.copy()
            z2 = M.project(state, M.encode(state, x2)).data.copy()

            def frozen_loss():
                p1 = M.predict_head(state, M.project(state, M.encode(state, x1)))
                p2 = M.predict_head(state, M.project(state, M.encode(state, x2)))
                return T.add(
                    T.scale(M._neg_cosine(p1, T.Tensor(z2)), 0.5),
                    T.scale(M._neg_cosine(p2, T.Tensor(z1)), 0.5),
                ).item()

            worst_sim = check(sim_params, sim_grads, frozen_loss)
            assert worst_sim < 1e-4

            ce_params = {**M.encoder_params(state), **M.classifier_params(state)}
            ce_grads = T.gradients(T.cross_entropy(M.classify(state, x1), labels), ce_params)
            worst_ce = check(
                ce_params, ce_grads, lambda: T.cross_entropy(M.classify(state, x1), labels).item()
            )
            assert worst_ce < 1e-4
            assert time.perf_counter() - started < 60.0


class TestCriterion2StopGradient:
    def test_sg_only_paths_get_bitwise_zero(self):
        with criterion(2, "stop-gradient-only parameters receive bitwise-zero gradients"):
            enc = EncoderConfig(n_bands=3, n_steps=5, d_model=8, n_heads=2, n_layers=1, ff_dim=32)
            state = M.init_model(enc, SimSiamConfig(proj_hidden=4, head_out=6, pred_hidden=4), seed=9)
            x = np.random.default_rng(5).normal(0.2, 0.1, (3, 5, 3))
            const = T.Tensor(np.random.default_rng(6).normal(size=(3, 6)))
            loss = M._neg_cosine(const, T.stop_gradient(M.project(state, M.encode(state, x))))
            params = {**M.encoder_params(state), **M.head_params(state)}
            grads = T.gradients(loss, params)
            for name, g in grads.items():
                assert np.array_equal(g, np.zeros_like(g)), name


class TestCriterion3CollapseMonitor:
    def test_identical_rows(self):
        with criterion(3, "collapse monitor (a): identical rows give zero"):
            z = np.tile(np.random.default_rng(0).normal(size=14), (64, 1))
            assert abs(M.collapse_metric(z)) < 1e-12

    def test_isotropic_rows(self):
        with criterion(3, "collapse monitor (b): isotropic rows land near 1/sqrt(14)"):
            z = np.random.default_rng(1).standard_normal((1000, 14))
            assert 0.21 <= M.collapse_metric(z) <= 0.32

    def test_sabotage_collapses_and_healthy_stays(self, synth_fixture, monkeypatch):
        with criterion(3, "collapse monitor (c): sabotage collapses, healthy run stays in band"):
            train, _, _ = make_split(synth_fixture, ScenarioSpec("e3", target_year=2018, seed=11))
            sabotage_cfg = TrainConfig(
                seed=1, batch_size=64, lr=0.08, epochs_pretrain=60, collapse_warmup_epochs=10
            )
            with monkeypatch.context() as sabotage:
                sabotage.setattr(M, "simsiam_forward", reference_ops.direct_cosine_forward)
                _, sab = pretrain(train, "aug1", sabotage_cfg, BENCH_ENC, BENCH_SIM)
            assert sab.collapse[-1] < 0.1 * REF14
            assert sab.collapse_warning

            healthy_cfg = TrainConfig(
                seed=1, batch_size=64, lr=0.005, epochs_pretrain=60,
                collapse_warmup_epochs=10,
            )
            _, heal = pretrain(train, "aug1", healthy_cfg, BENCH_ENC, BENCH_SIM)
            assert all(0.5 * REF14 <= v <= 1.5 * REF14 for v in heal.collapse)
            assert not heal.collapse_warning


class TestCriterion4ContrastiveOracle:
    def test_argmin_matches_brute_force(self):
        with criterion(4, "nearest-class argmin equals brute-force pairwise average (20/20)"):
            enc = EncoderConfig(n_bands=4, n_steps=6, d_model=8, n_heads=2, n_layers=1, ff_dim=32)
            state = M.init_model(enc, SimSiamConfig(proj_hidden=4, head_out=6, pred_hidden=4), seed=5)
            reference = make_dataset(n_per_class=5, years=(2016,), n_bands=4, n_steps=6, seed=3)
            queries = make_dataset(n_per_class=4, years=(2017,), n_bands=4, n_steps=6, seed=4)
            dn = 10000.0
            assert len(queries) >= 20
            preds, _ = E.contrastive_classify_batch(state, M.encoder_batch(s.reflectance for s in queries.samples[:20]),
                                                    E.embed_reference(state, reference, 256), 256)
            for sample, pred in zip(queries.samples[:20], preds, strict=True):
                per_class = {}
                for ref_sample in reference.samples:
                    loss = M.simsiam_forward(
                        state,
                        sample.reflectance.T[None] / dn,
                        ref_sample.reflectance.T[None] / dn,
                        training=False,
                    )[0].item()
                    per_class.setdefault(int(ref_sample.label), []).append(loss)
                means = {c: float(np.mean(v)) for c, v in per_class.items()}
                assert pred == min(means, key=lambda c: (means[c], c))


class TestCriterion5MetricsCrossCheck:
    def test_published_rows_reproduce_per_class_accuracy(self):
        with criterion(5, "confusion rows reproduce the published 0.84 / 0.53 accuracies"):
            e1_row = [2] * 84 + [3] + [4] * 5 + [5] * 10
            conf = E.confusion_matrix([2] * 100, e1_row)
            assert conf[1].tolist() == [0, 84, 1, 5, 10, 0]
            assert E.per_class_accuracy(conf)[1] == 0.84
            e2_row = [1] + [2] * 53 + [3] * 2 + [4] * 3 + [5] * 41
            conf = E.confusion_matrix([2] * 100, e2_row)
            assert conf[1].tolist() == [1, 53, 2, 3, 41, 0]
            assert E.per_class_accuracy(conf)[1] == 0.53


class TestCriterion6SupervisedBenchmark:
    def test_transformer_and_forest_reach_090(self, synth_fixture):
        with criterion(6, "supervised benchmark: TF and RF reach OA >= 0.90 on E1"):
            started = time.perf_counter()
            train, test, _ = make_split(synth_fixture, ScenarioSpec("e1", seed=11))
            truth = test.labels_array()

            cfg = TrainConfig(seed=1, batch_size=64, lr=0.005, epochs_supervised=150)
            state, trace = train_supervised(train, cfg, BENCH_ENC, BENCH_SIM)
            tf_oa = E.overall_accuracy(batched_predict(state, test), truth)
            assert tf_oa >= 0.90, f"TF OA {tf_oa:.3f}"

            # loss decreases over 50-epoch windows; windows are compared by
            # mean so single-epoch shuffle spikes do not count (<= 5% slack)
            means = np.convolve(trace.losses, np.ones(50) / 50, mode="valid")
            n_win = len(means) - 50
            violations = sum(1 for i in range(n_win) if means[i + 50] > means[i])
            assert violations <= 0.05 * n_win, f"{violations}/{n_win} rising windows"

            forest = rf_fit(train, ForestConfig(n_trees=100, seed=1))
            rf_oa = E.overall_accuracy(rf_predict(forest, test), truth)
            assert rf_oa >= 0.90, f"RF OA {rf_oa:.3f}"
            assert time.perf_counter() - started < 300.0
            print(f"    TF OA={tf_oa:.3f}, RF OA={rf_oa:.3f}", file=sys.__stdout__, flush=True)


class TestCriterion7SslBenefit:
    def test_pretraining_beats_scratch_on_divergent_year(self, synth_fixture):
        with criterion(7, "pre-training beats from-scratch by >= 0.05 OA (mean of 3 seeds)"):
            started = time.perf_counter()
            train, test, _ = make_split(synth_fixture, ScenarioSpec("e3", target_year=2018, seed=11))
            truth = test.labels_array()
            gaps = []
            for seed in (1, 2, 3):
                budget = TrainConfig(
                    seed=seed, batch_size=64, lr=0.005,
                    epochs_supervised=60, epochs_finetune=60,
                )
                scratch, _ = train_supervised(train, budget, BENCH_ENC, BENCH_SIM)
                pre_cfg = TrainConfig(
                    seed=seed, batch_size=64, lr=0.005, epochs_pretrain=120,
                    collapse_warmup_epochs=10**9,
                )
                backbone, _ = pretrain(train, "aug1", pre_cfg, BENCH_ENC, BENCH_SIM)
                tuned, _ = finetune(backbone, train, budget)
                scratch_oa = E.overall_accuracy(batched_predict(scratch, test), truth)
                ssl_oa = E.overall_accuracy(batched_predict(tuned, test), truth)
                gaps.append(ssl_oa - scratch_oa)
            mean_gap = float(np.mean(gaps))
            assert mean_gap >= 0.05, f"gaps {gaps}, mean {mean_gap:+.3f}"
            assert time.perf_counter() - started < 900.0
            print(
                f"    gaps {[f'{g:+.3f}' for g in gaps]}, mean {mean_gap:+.3f}",
                file=sys.__stdout__, flush=True,
            )


class TestCriterion8Determinism:
    def test_equal_seeds_give_byte_identical_reports(self, tmp_path):
        with criterion(8, "equal-seed runs are byte-identical; forests ignore --jobs"):
            settings = dict(cli.DEFAULTS)
            settings.update(
                synth_n=6, d_model=8, n_heads=2, n_layers=1, ff_dim=32,
                batch_size=16, lr=0.01, epochs_supervised=2, n_trees=10, seed=5,
            )
            config = cli.settings_to_runconfig(settings, method="tf", scenario="e1")
            _, files_a = cli.run(config)
            _, files_b = cli.run(config)
            assert files_a == files_b

            settings["methods"] = "rf"
            settings["scenarios"] = "e1,e2,e3"
            one = cli.run_matrix(settings, tmp_path / "j1", jobs=1)
            two = cli.run_matrix(settings, tmp_path / "j2", jobs=3)
            assert one == two
            for cell in ("rf_e1", "rf_e2", "rf_e3"):
                a = (tmp_path / "j1" / cell / "report.json").read_text()
                b = (tmp_path / "j2" / cell / "report.json").read_text()
                assert a == b


class TestCriterion9PreprocessingConformance:
    def test_band_step_and_split_numbers(self):
        with criterion(9, "13->9 bands, 14->11 steps, 1318/440 split on 1758 samples"):
            d = make_dataset(n_per_class=2, years=(2016,), n_bands=13, n_steps=14)
            reduced = select_bands(d, set(CANONICAL_BANDS) - {"B01", "B02", "B03", "B10"})
            assert reduced.n_bands == 9
            assert reduced.band_ids == ("B04", "B05", "B06", "B07", "B08", "B8A", "B09", "B11", "B12")
            shortened = truncate_steps(reduced, 3)
            assert shortened.n_steps == 11

            table = published_counts_dataset()
            assert len(table) == 1758
            train, test, _ = make_split(table, ScenarioSpec("e1", seed=0))
            assert (len(train), len(test)) == (1318, 440)


class TestCriterion10RealDataMode:
    def test_matrix_emits_table_layout_from_csv(self, tmp_path, synth_fixture):
        with criterion(10, "matrix over a CSV emits the published table layout"):
            from sslcrop.dataio import write_csv

            csv_path = tmp_path / "data.csv"
            write_csv(synth_fixture, csv_path)
            settings = dict(cli.DEFAULTS)
            settings.update(
                data=str(csv_path), methods="rf", scenarios="e1,e2,e3,e4",
                n_trees=25, seed=2, target_year=2018,
            )
            summary = cli.run_matrix(settings, tmp_path / "m", jobs=1)
            lines = summary.strip().split("\n")
            assert lines[0] == "# bands=13 steps=14"
            assert lines[1] == "method,E1,E2,E3,E4"
            cells = lines[2].split(",")
            assert cells[0] == "rf"
            assert all(0.0 <= float(c) <= 1.0 for c in cells[1:])

    @pytest.mark.skipif(
        "SSLCROP_REAL_CSV" not in os.environ,
        reason="real-data comparison runs only when SSLCROP_REAL_CSV points at the published dataset",
    )
    def test_real_dataset_numbers_reported(self, tmp_path):
        settings = dict(cli.DEFAULTS)
        settings.update(data=os.environ["SSLCROP_REAL_CSV"], methods="rf,tf", seed=0)
        summary = cli.run_matrix(settings, tmp_path / "real", jobs=1)
        print(summary, file=sys.__stdout__)  # numeric agreement reported, not gated
