import json

import numpy as np
import pytest

from sslcrop import evaluation as E
from sslcrop import model as M
from sslcrop.dataio import CropClass, Dataset, Sample
from conftest import make_dataset
from test_model import tiny_state


class TestOverallAccuracy:
    def test_all_correct(self):
        assert E.overall_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_two_thirds(self):
        assert abs(E.overall_accuracy([1, 2, 3], [1, 2, 2]) - 2 / 3) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            E.overall_accuracy([1, 2], [1, 2, 3])

    def test_matches_confusion_trace(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(1, 7, 100)
        pred = rng.integers(1, 7, 100)
        conf = E.confusion_matrix(truth, pred)
        assert E.overall_accuracy(pred, truth) == conf.trace() / conf.sum()


class TestPublishedTableRows:
    """The two winter-barley rows reported for the contrastive classifier."""

    def test_all_years_row(self):
        pred = [2] * 84 + [3] * 1 + [4] * 5 + [5] * 10
        truth = [2] * 100
        conf = E.confusion_matrix(truth, pred)
        assert conf[1].tolist() == [0, 84, 1, 5, 10, 0]
        assert E.per_class_accuracy(conf)[1] == 0.84

    def test_unseen_year_row(self):
        pred = [1] * 1 + [2] * 53 + [3] * 2 + [4] * 3 + [5] * 41
        truth = [2] * 100
        conf = E.confusion_matrix(truth, pred)
        assert conf[1].tolist() == [1, 53, 2, 3, 41, 0]
        assert E.per_class_accuracy(conf)[1] == 0.53

    def test_empty_row_reported_absent(self):
        conf = np.zeros((6, 6), dtype=int)
        conf[0, 0] = 3
        acc = E.per_class_accuracy(conf)
        assert acc[0] == 1.0
        assert acc[1] is None


class TestContrastiveClassify:
    def test_duplicate_reference_wins(self):
        # reference holds the query itself under class 2 and near-orthogonal
        # embeddings for the other classes, so class 2 must win
        state = tiny_state(seed=5, head_out=6)
        query = make_dataset(n_per_class=1, years=(2016,), n_bands=3, n_steps=5, seed=1).samples[0]
        z_hat, p_hat = (a[0] for a in E._unit_heads(state, query.reflectance.T[None] / 10000.0))
        assert float(z_hat @ p_hat) > 0  # seed chosen so self-similarity is attractive
        basis = [z_hat, p_hat]
        others = []
        rng = np.random.default_rng(9)
        while len(others) < 2:
            v = rng.normal(size=6)
            for b in basis + others:
                v -= (v @ b) * b / (b @ b)
            others.append(v / np.linalg.norm(v))
        ref = E.ReferenceEmbeddings(
            z_hat=np.stack([others[0], z_hat, others[1]]),
            p_hat=np.stack([others[0], p_hat, others[1]]),
            labels=np.array([1, 2, 3]),
        )
        preds, losses = E.contrastive_classify_batch(state, query.reflectance.T[None] / 10000.0, ref)
        assert preds.tolist() == [2]
        assert losses[0, 1] < losses[0, 0] and losses[0, 1] < losses[0, 2]

    def test_single_class_reference(self):
        state = tiny_state(seed=4, head_out=6)
        pool = make_dataset(n_per_class=3, years=(2016,), n_bands=3, n_steps=5, seed=2)
        corn_only = Dataset(
            tuple(s for s in pool.samples if s.label is CropClass.CORN),
            pool.band_ids, pool.n_steps,
        )
        x1 = M.encoder_batch([pool.samples[-1].reflectance])  # a potato sample
        preds, losses = E.contrastive_classify_batch(state, x1, E.embed_reference(state, corn_only))
        assert preds.tolist() == [1]
        assert losses.shape == (1, 1)

    def test_exact_tie_goes_to_the_lowest_class(self):
        state = tiny_state(seed=3, head_out=6)
        pool = make_dataset(n_per_class=1, years=(2016,), n_bands=3, n_steps=5, seed=7)
        x = pool.samples[0].reflectance
        reference = Dataset((Sample("r4", 2016, CropClass.SUGAR_BEET, x),
                             Sample("r2", 2016, CropClass.WINTER_BARLEY, x)), pool.band_ids, pool.n_steps)
        queries = M.encoder_batch(s.reflectance for s in pool.samples)
        preds, losses = E.contrastive_classify_batch(
            state, queries, E.embed_reference(state, reference))
        assert np.array_equal(losses[:, 0], losses[:, 1])  # classes 2 and 4, identical series
        assert preds.tolist() == [2] * len(pool)

    def test_agrees_with_brute_force_double_loop(self):
        state = tiny_state(seed=5, head_out=6)
        reference = make_dataset(n_per_class=5, years=(2016,), n_bands=3, n_steps=5, seed=3)
        queries = make_dataset(n_per_class=4, years=(2017,), n_bands=3, n_steps=5, seed=4)
        dn = 10000.0
        preds, _ = E.contrastive_classify_batch(state, M.encoder_batch(s.reflectance for s in queries.samples[:20]),
                                                E.embed_reference(state, reference))
        for sample, pred in zip(queries.samples[:20], preds, strict=True):
            per_class: dict[int, list[float]] = {}
            for ref_sample in reference.samples:
                loss = M.simsiam_forward(
                    state,
                    sample.reflectance.T[None] / dn,
                    ref_sample.reflectance.T[None] / dn,
                    training=False,
                )[0].item()
                per_class.setdefault(int(ref_sample.label), []).append(loss)
            means = {c: float(np.mean(v)) for c, v in per_class.items()}
            brute = min(means, key=lambda c: (means[c], c))
            assert pred == brute

    def test_reference_permutation_invariance(self):
        state = tiny_state(seed=6, head_out=6)
        reference = make_dataset(n_per_class=4, years=(2016,), n_bands=3, n_steps=5, seed=5)
        shuffled = Dataset(
            tuple(np.random.default_rng(0).permutation(np.array(reference.samples, dtype=object))),
            reference.band_ids, reference.n_steps,
        )
        query = make_dataset(n_per_class=1, years=(2017,), n_bands=3, n_steps=5, seed=6).samples[0]
        query = M.encoder_batch([query.reflectance])
        (a,), (la,) = E.contrastive_classify_batch(state, query, E.embed_reference(state, reference))
        (b,), (lb,) = E.contrastive_classify_batch(state, query, E.embed_reference(state, shuffled))
        assert a == b
        assert np.abs(la - lb).max() < 1e-12

    def test_unlabeled_reference_rejected(self):
        state = tiny_state(seed=1, head_out=6)
        pool = make_dataset(n_per_class=2, years=(2016,), n_bands=3, n_steps=5)
        stripped = Dataset(
            tuple(Sample(s.field_id, s.year, None, s.reflectance) for s in pool.samples),
            pool.band_ids, pool.n_steps,
        )
        with pytest.raises(ValueError):
            E.embed_reference(state, stripped)


class TestPca:
    def test_collinear_points_put_all_variance_first(self):
        t = np.linspace(-2, 2, 40)
        direction = np.array([1.0, -2.0, 0.5, 3.0, 1.0])
        X = np.outer(t, direction)
        _, ratios = E.pca_project(X, k=2)
        assert ratios[0] >= 0.999
        assert ratios[1] <= 1e-6

    def test_rotated_plane_preserves_distances(self):
        rng = np.random.default_rng(1)
        flat = rng.normal(size=(200, 2))
        basis, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        X = flat @ basis[:2, :]
        coords, ratios = E.pca_project(X, k=2)
        d_orig = np.linalg.norm(flat[:, None] - flat[None, :], axis=-1)
        d_proj = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
        assert np.abs(d_orig - d_proj).max() < 1e-6
        assert ratios.sum() > 0.999

    def test_centering_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 6))
        a, _ = E.pca_project(X, k=2)
        b, _ = E.pca_project(X + 7.5, k=2)
        assert np.abs(a - b).max() < 1e-8

    def test_ratios_non_increasing_and_bounded(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 7)) * np.array([5, 3, 2, 1, 1, 0.5, 0.1])
        _, ratios = E.pca_project(X, k=3)
        assert ratios[0] >= ratios[1] >= ratios[2]
        assert ratios.sum() <= 1.0 + 1e-12

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 4))
        coords1, _ = E.pca_project(X, k=2)
        coords2, _ = E.pca_project(-X, k=2)
        assert np.abs(np.abs(coords1) - np.abs(coords2)).max() < 1e-8

    def test_near_tied_top_variances(self):
        # centred orthonormal columns scaled so the top two standard deviations
        # differ by 0.01%: the axes are the components, the scales their spreads
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(240, 182))
        Q, _ = np.linalg.qr(Z - Z.mean(axis=0))
        scales = np.r_[1.0001, 1.0, np.linspace(0.5, 0.1, 180)]
        coords, ratios = E.pca_project(Q * scales, k=2)
        expected = Q[:, :2] * scales[:2]
        assert np.abs(np.abs(coords) - np.abs(expected)).max() < 1e-9
        assert np.allclose(ratios, scales[:2] ** 2 / (scales ** 2).sum(), rtol=1e-12, atol=0)

    def test_rank_one_second_component_is_zero(self):
        t = np.linspace(-2, 2, 40)
        X = np.outer(t, np.array([1.0, -2.0, 0.5, 3.0, 1.0]))
        coords, _ = E.pca_project(X, k=2)
        assert np.abs(coords[:, 1]).max() < 1e-9
        assert np.abs(coords[:, 0]).max() > 7

    def test_one_column_leaves_the_second_component_zero(self):
        X = np.random.default_rng(6).normal(size=(30, 1))
        coords, ratios = E.pca_project(X, k=2)
        assert np.array_equal(coords[:, 1], np.zeros(30))
        assert ratios.tolist() == [1.0, 0.0]
        assert np.allclose(np.abs(coords[:, 0]), np.abs(X[:, 0] - X[:, 0].mean()), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(900, 64), (200, 16), (12, 30)])
    def test_coordinates_match_the_svd_up_to_sign(self, shape):
        X = np.random.default_rng(8).normal(size=shape)
        coords, _ = E.pca_project(X, k=2)
        U, S, _ = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
        expected = U[:, :2] * S[:2]
        scale = np.abs(expected).max(axis=0)
        assert (np.abs(np.abs(coords) - np.abs(expected)).max(axis=0) < 1e-10 * scale).all()

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            E.pca_project(np.ones((1, 3)))


class TestReport:
    def test_overall_equals_trace_over_total(self):
        d = make_dataset(n_per_class=2, years=(2016,))
        truth = d.labels_array()
        pred = truth.copy()
        pred[0] = (pred[0] % 6) + 1
        report = E.build_report("e1", "RF", d, pred, truth, seeds={}, traces={}, extras={})
        conf = np.array(report["confusion_matrix"])
        assert report["overall_accuracy"] == conf.trace() / conf.sum()

    def test_json_round_trips_and_is_stable(self):
        d = make_dataset(n_per_class=2, years=(2016,))
        truth = d.labels_array()
        report = E.build_report("e2", "TF", d, truth, truth, seeds={"master": 3}, traces={}, extras={})
        doc = json.loads(E.report_text(report))
        assert doc == report
        assert doc["scenario"] == "e2"
        assert doc["method"] == "TF"
        assert doc["overall_accuracy"] == 1.0
        assert doc["class_index_mapping"]["2"] == "winter barley"
        assert doc["preprocessing"]["bands"] == list(d.band_ids)
        again = E.build_report("e2", "TF", d, truth, truth, seeds={"master": 3}, traces={}, extras={})
        assert E.report_text(report) == E.report_text(again)
