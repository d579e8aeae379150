from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sslcrop.augment import (
    AugmentationPolicy,
    InsufficientClassError,
    aug1_pair,
    aug2,
    aug3_pair,
)
from sslcrop.dataio import CropClass, Sample
from conftest import make_dataset


def pool_of(n_per_class, seed=0):
    return make_dataset(n_per_class=n_per_class, years=(2016,), seed=seed)


class TestAug1:
    def test_two_sample_class_is_forced(self):
        pool = pool_of(2)
        rng = np.random.default_rng(0)
        x1, x2 = aug1_pair(pool, CropClass.CORN, rng)
        corn = [s.reflectance for s in pool.samples if s.label is CropClass.CORN]
        assert any(np.array_equal(x1, c) for c in corn)
        assert any(np.array_equal(x2, c) for c in corn)
        assert not np.array_equal(x1, x2)

    def test_returns_pool_entries_unmodified(self):
        pool = pool_of(4, seed=3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x1, x2 = aug1_pair(pool, CropClass.POTATO, rng)
            entries = [s.reflectance for s in pool.samples if s.label is CropClass.POTATO]
            assert any(np.array_equal(x1, e) for e in entries)
            assert any(np.array_equal(x2, e) for e in entries)

    def test_uniform_over_unordered_pairs(self):
        pool = pool_of(4, seed=5)
        rng = np.random.default_rng(2)
        ids = {s.reflectance.tobytes(): i for i, s in enumerate(pool.samples)
               if s.label is CropClass.CORN}
        counts = Counter()
        n = 10000
        for _ in range(n):
            x1, x2 = aug1_pair(pool, CropClass.CORN, rng)
            pair = frozenset((ids[x1.tobytes()], ids[x2.tobytes()]))
            counts[pair] += 1
        assert len(counts) == 6
        for pair, c in counts.items():
            assert abs(c / n - 1 / 6) < 0.02

    def test_pairs_equal_the_per_pair_class_scan(self):
        def scan_pair(pool, crop, rng):  # the index list rebuilt for every pair
            idx = [i for i, s in enumerate(pool.samples) if s.label == crop]
            i, j = rng.choice(len(idx), size=2, replace=False)
            return pool.samples[idx[i]].reflectance, pool.samples[idx[j]].reflectance

        pool = pool_of(5, seed=7)
        order = np.random.default_rng(3).permutation(len(pool))
        stripped = tuple(Sample(s.field_id + "u", s.year, None, s.reflectance) for s in pool.samples[:4])
        pool = replace(pool, samples=tuple(pool.samples[i] for i in order) + stripped)
        fast, slow = np.random.default_rng(11), np.random.default_rng(11)
        classes = list(CropClass)
        for n in range(200):
            crop = classes[n % len(classes)]
            a, b = aug1_pair(pool, crop, fast)
            c, d = scan_pair(pool, crop, slow)
            assert a is c and b is d

    def test_single_sample_class_rejected(self):
        pool = pool_of(1)
        with pytest.raises(InsufficientClassError, match="corn"):
            aug1_pair(pool, CropClass.CORN, np.random.default_rng(0))


def drift_branch_rng(seed):
    """A generator whose first uniform lands in the drift branch (< 0.5)."""
    rng = np.random.default_rng(seed)
    return rng if np.random.default_rng(seed).random() < 0.5 else None


class TestAug2:
    def test_zero_noise_scale_is_identity(self):
        policy = AugmentationPolicy("aug2", noise_scale=0.0)
        x = np.random.default_rng(0).uniform(0, 5000, (4, 14))
        for seed in range(10):
            rng = drift_branch_rng(seed)
            if rng is not None:
                continue  # want the noise branch here
            out = aug2(x, np.random.default_rng(seed), policy)
            assert np.array_equal(out, x)

    def test_drift_leaves_constant_band_unchanged(self):
        x = np.full((3, 14), 1200.0)
        x[1] = np.linspace(0, 1000, 14)
        hits = 0
        for seed in range(30):
            rng = drift_branch_rng(seed)
            if rng is None:
                continue
            out = aug2(x, rng)
            assert np.array_equal(out[0], x[0])  # zero range -> zero drift
            assert np.array_equal(out[2], x[2])
            hits += 1
        assert hits > 5

    def test_drift_bounded_by_band_range(self):
        rng_data = np.random.default_rng(1)
        checked = 0
        for seed in range(2500):
            rng = drift_branch_rng(seed)
            if rng is None:
                continue
            x = rng_data.uniform(0, 8000, (3, 14))
            out = aug2(x, rng)
            span = x.max(axis=1) - x.min(axis=1)
            assert (np.abs(out - x).max(axis=1) <= 0.1 * span + 1e-12).all()
            checked += 1
            if checked >= 1000:
                break
        assert checked >= 1000

    def test_noise_branch_statistics(self):
        x = np.zeros((2, 2000)) + 5000.0
        policy = AugmentationPolicy("aug2")
        diffs = []
        for seed in range(40):
            if drift_branch_rng(seed) is not None:
                continue
            out = aug2(x, np.random.default_rng(seed), policy)
            diffs.append(out - x)
        sd = np.concatenate(diffs).std()
        assert abs(sd - 0.02 * 10000) < 10.0  # DN equivalent of scale=0.02

    def test_branches_are_balanced(self):
        rng = np.random.default_rng(3)
        x = np.random.default_rng(0).uniform(0, 5000, (2, 14))
        noise_like = 0
        n = 400
        for _ in range(n):
            out = aug2(x, rng)
            # drift keeps each band's first step fixed (curve anchored at zero)
            if not np.isclose(out[0, 0], x[0, 0]):
                noise_like += 1
        assert abs(noise_like / n - 0.5) < 0.1


    def test_drift_equals_the_per_band_interp_loop(self):
        def loop_aug2(x, rng, policy):  # one rng.uniform and np.interp per band
            x = np.asarray(x, dtype=np.float64)
            n_bands, n_steps = x.shape
            if rng.random() < 0.5:
                out = x.copy()
                tgrid = np.arange(n_steps, dtype=np.float64)
                anchors_t = np.linspace(0.0, n_steps - 1.0, policy.drift_points + 2)
                for b in range(n_bands):
                    anchor_vals = np.concatenate(
                        ([0.0], rng.uniform(-1.0, 1.0, policy.drift_points), [0.0]))
                    curve = np.interp(tgrid, anchors_t, anchor_vals)
                    peak = np.abs(curve).max()
                    band_range = x[b].max() - x[b].min()
                    if peak > 0.0 and band_range > 0.0:
                        out[b] += curve * (policy.drift_max * band_range / peak)
                return out
            return x + rng.normal(0.0, policy.noise_scale * policy.dn_scale, x.shape)

        data = np.random.default_rng(7)
        drifted = 0
        for drift_points, n_steps in ((1, 14), (2, 14), (3, 14), (3, 5), (2, 3), (1, 2)):
            policy = AugmentationPolicy("aug2", drift_points=drift_points)
            for seed in range(100):
                x = data.uniform(0, 8000, (5, n_steps))
                x[2] = 1500.0  # a constant band: no drift
                new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                new, old = aug2(x, new_rng, policy), loop_aug2(x, old_rng, policy)
                assert new.tobytes() == old.tobytes(), (drift_points, n_steps, seed)
                assert new_rng.random() == old_rng.random()  # the stream is consumed alike
                drifted += np.array_equal(new[:, 0], x[:, 0])  # drift keeps step 0
        assert drifted >= 250  # of 600 draws


class TestAug3:
    def test_zero_cloud_reduces_to_aug1(self):
        pool = pool_of(3, seed=2)
        policy = AugmentationPolicy("aug3", cloud_dn=0.0)
        a = aug3_pair(pool, CropClass.CORN, np.random.default_rng(9), policy)
        b = aug1_pair(pool, CropClass.CORN, np.random.default_rng(9))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_single_spiked_column_with_constant_offset(self):
        pool = make_dataset(n_per_class=3, years=(2016,), n_steps=14, seed=4)
        rng = np.random.default_rng(7)
        for _ in range(25):
            x1, x2 = aug3_pair(pool, CropClass.SUGAR_BEET, rng)
            for x in (x1, x2):
                # the drawn original is untouched outside exactly one column
                matches = []
                for s in pool.samples:
                    if s.label is not CropClass.SUGAR_BEET:
                        continue
                    diff = x - s.reflectance
                    changed = np.nonzero(np.abs(diff).sum(axis=0))[0]
                    if len(changed) == 1:
                        matches.append(diff[:, changed[0]])
                assert len(matches) == 1
                assert np.abs(matches[0] - 7000.0).max() < 1e-9

    def test_spike_step_uniformity(self):
        pool = make_dataset(n_per_class=3, years=(2016,), n_steps=14, seed=6)
        rng = np.random.default_rng(8)
        originals = {s.reflectance.tobytes(): s.reflectance
                     for s in pool.samples if s.label is CropClass.CORN}
        counts = np.zeros(14)
        n = 700  # two spikes per draw -> 1400 spikes
        for _ in range(n):
            x1, x2 = aug3_pair(pool, CropClass.CORN, rng)
            for x in (x1, x2):
                diff_cols = [np.nonzero(np.abs(x - o).sum(axis=0))[0]
                             for o in originals.values()]
                col = min((c for c in diff_cols if len(c) == 1), key=lambda c: c[0])
                counts[col[0]] += 1
        freq = counts / (2 * n)
        assert np.abs(freq - 1 / 14).max() < 0.03

    def test_spike_second_only_mode(self):
        pool = pool_of(3, seed=2)
        policy = AugmentationPolicy("aug3", spike_both=False)
        rng = np.random.default_rng(11)
        x1, x2 = aug3_pair(pool, CropClass.CORN, rng, policy)
        entries = [s.reflectance for s in pool.samples if s.label is CropClass.CORN]
        assert any(np.array_equal(x1, e) for e in entries)  # first element untouched
        assert not any(np.array_equal(x2, e) for e in entries)


class TestPolicy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AugmentationPolicy("augX")

    def test_determinism_given_seed(self):
        pool = pool_of(4, seed=1)
        a = aug3_pair(pool, CropClass.CORN, np.random.default_rng(42))
        b = aug3_pair(pool, CropClass.CORN, np.random.default_rng(42))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
