"""Positive-pair construction for siamese pre-training.

Three policies:
  aug1  -- pair two distinct samples of the same crop type, unmodified;
           natural variation between fields/years acts as the augmentation.
  aug2  -- pair a series with a distorted copy of itself: either a smooth
           random drift (bounded relative to each band's range) or i.i.d.
           Gaussian noise, chosen 50/50 per call.
  aug3  -- an aug1 pair where each element additionally receives a cloud
           spike: a constant DN added to all bands at one random time step.

All functions take an explicit numpy Generator, never touch global state,
and never mutate pool samples.
"""

from __future__ import annotations

import numpy as np

from .dataio import DN_SCALE, CropClass, Dataset

KINDS = ("aug1", "aug2", "aug3")

# The policies' parameters, read when an augmentation is called.
DRIFT_MAX = 0.1      # aug2: peak drift relative to each band's value range
DRIFT_POINTS = 2     # aug2: interior anchors of the drift curve
NOISE_SCALE = 0.02   # aug2: Gaussian sd in reflectance (NOISE_SCALE * DN_SCALE in DN)
CLOUD_DN = 7000.0    # aug3: additive cloud constant, DN


class InsufficientClassError(ValueError):
    """A class does not hold enough samples to form a pair."""


def aug1_pair(
    pool: Dataset, crop: CropClass, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two distinct, unmodified samples of `crop`, drawn uniformly."""
    idx = pool.class_indices.get(crop, [])
    if len(idx) < 2:
        raise InsufficientClassError(
            f"class {crop.label!r} has {len(idx)} sample(s); need >= 2 for a pair"
        )
    i, j = rng.choice(len(idx), size=2, replace=False)
    return pool.samples[idx[i]].reflectance, pool.samples[idx[j]].reflectance


def aug2(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Distorted copy of one series: drift or noise with equal probability."""
    x = np.asarray(x, dtype=np.float64)
    n_bands, n_steps = x.shape
    if rng.random() < 0.5:
        # Drift: per band, a piecewise-linear curve through DRIFT_POINTS
        # interior anchors (uniform in [-1, 1], zero at both ends), rescaled
        # so its peak equals DRIFT_MAX times the band's value range.  All
        # bands at once, with np.interp's arithmetic so the bits match it.
        anchors_t = np.linspace(0.0, n_steps - 1.0, DRIFT_POINTS + 2)
        vals = np.zeros((n_bands, DRIFT_POINTS + 2))
        vals[:, 1:-1] = rng.uniform(-1.0, 1.0, (n_bands, DRIFT_POINTS))
        tgrid = np.arange(n_steps, dtype=np.float64)
        j = np.searchsorted(anchors_t, tgrid, side="right") - 1  # anchors_t[j] <= t
        slopes = (vals[:, 1:] - vals[:, :-1]) / (anchors_t[1:] - anchors_t[:-1])
        curves = slopes[:, np.minimum(j, DRIFT_POINTS)] * (tgrid - anchors_t[j]) + vals[:, j]
        peak = np.abs(curves).max(axis=1)
        band_range = x.max(axis=1) - x.min(axis=1)
        ok = (peak > 0.0) & (band_range > 0.0)
        out = x.copy()
        out[ok] += curves[ok] * (DRIFT_MAX * band_range[ok] / peak[ok])[:, None]
        return out
    return x + rng.normal(0.0, NOISE_SCALE * DN_SCALE, x.shape)


def _spike(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = x.copy()
    out[:, int(rng.integers(x.shape[1]))] += CLOUD_DN
    return out


def aug3_pair(
    pool: Dataset, crop: CropClass, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Same-class pair with an independent cloud spike on each element."""
    x1, x2 = aug1_pair(pool, crop, rng)
    return _spike(x1, rng), _spike(x2, rng)
