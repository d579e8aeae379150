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

from dataclasses import dataclass

import numpy as np

from .dataio import CropClass, Dataset

KINDS = ("aug1", "aug2", "aug3")


class InsufficientClassError(ValueError):
    """A class does not hold enough samples to form a pair."""


@dataclass(frozen=True)
class AugmentationPolicy:
    """Which augmentation to use and its parameters (DN scale)."""

    kind: str
    drift_max: float = 0.1       # max drift relative to per-band series range
    drift_points: int = 2        # interior anchors of the drift curve
    noise_scale: float = 0.02    # Gaussian sd on the normalized series
    cloud_dn: float = 7000.0     # additive cloud constant, DN
    dn_scale: float = 10000.0    # normalization divisor (converts noise_scale to DN)
    spike_both: bool = True      # aug3: spike both pair elements (else only the second)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        if self.drift_max <= 0 or self.dn_scale <= 0 or self.drift_points < 1:
            raise ValueError("drift_max, dn_scale and drift_points must be positive")
        if self.noise_scale < 0 or self.cloud_dn < 0:
            raise ValueError("noise_scale and cloud_dn must be non-negative")


def _same_class_pair(
    pool: Dataset, crop: CropClass, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    idx = pool.class_indices.get(crop, [])
    if len(idx) < 2:
        raise InsufficientClassError(
            f"class {crop.label!r} has {len(idx)} sample(s); need >= 2 for a pair"
        )
    i, j = rng.choice(len(idx), size=2, replace=False)
    return pool.samples[idx[i]].reflectance, pool.samples[idx[j]].reflectance


def aug1_pair(
    pool: Dataset, crop: CropClass, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two distinct, unmodified samples of `crop`, drawn uniformly."""
    return _same_class_pair(pool, crop, rng)


def aug2(
    x: np.ndarray,
    rng: np.random.Generator,
    policy: AugmentationPolicy | None = None,
) -> np.ndarray:
    """Distorted copy of one series: drift or noise with equal probability."""
    policy = policy or AugmentationPolicy("aug2")
    x = np.asarray(x, dtype=np.float64)
    n_bands, n_steps = x.shape
    if rng.random() < 0.5:
        # Drift: per band, a piecewise-linear curve through `drift_points`
        # interior anchors (uniform in [-1, 1], zero at both ends), rescaled
        # so its peak equals drift_max times the band's value range.  All
        # bands at once, with np.interp's arithmetic so the bits match it.
        anchors_t = np.linspace(0.0, n_steps - 1.0, policy.drift_points + 2)
        vals = np.zeros((n_bands, policy.drift_points + 2))
        vals[:, 1:-1] = rng.uniform(-1.0, 1.0, (n_bands, policy.drift_points))
        tgrid = np.arange(n_steps, dtype=np.float64)
        j = np.searchsorted(anchors_t, tgrid, side="right") - 1  # anchors_t[j] <= t
        slopes = (vals[:, 1:] - vals[:, :-1]) / (anchors_t[1:] - anchors_t[:-1])
        curves = slopes[:, np.minimum(j, policy.drift_points)] * (tgrid - anchors_t[j]) + vals[:, j]
        peak = np.abs(curves).max(axis=1)
        band_range = x.max(axis=1) - x.min(axis=1)
        ok = (peak > 0.0) & (band_range > 0.0)
        out = x.copy()
        out[ok] += curves[ok] * (policy.drift_max * band_range[ok] / peak[ok])[:, None]
        return out
    sd = policy.noise_scale * policy.dn_scale
    return x + rng.normal(0.0, sd, x.shape)


def _spike(x: np.ndarray, step: int, cloud_dn: float) -> np.ndarray:
    out = x.copy()
    out[:, step] += cloud_dn
    return out


def aug3_pair(
    pool: Dataset,
    crop: CropClass,
    rng: np.random.Generator,
    policy: AugmentationPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Same-class pair with an independent cloud spike on each element."""
    policy = policy or AugmentationPolicy("aug3")
    x1, x2 = _same_class_pair(pool, crop, rng)
    n_steps = x1.shape[1]
    if policy.spike_both:
        x1 = _spike(x1, int(rng.integers(n_steps)), policy.cloud_dn)
    x2 = _spike(x2, int(rng.integers(n_steps)), policy.cloud_dn)
    return x1, x2
