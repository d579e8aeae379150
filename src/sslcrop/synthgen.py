"""Synthetic multi-year crop phenology, for exercising the pipeline end to end.

Each class/band series follows a double-logistic growth curve (green-up
rise, senescence fall) in digital numbers.  Years share profiles up to a
small per-year season offset; one optional "divergent" year gets a larger
phenology shift and damped amplitude, emulating a season whose weather
moved the whole spectral fingerprint.  Gaussian noise and additive cloud
spikes complete the picture.  The tables below are written for all 13
`CANONICAL_BANDS` on the `N_STEPS` grid, so that is what is generated; band
selection and step truncation come after, in preprocessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .dataio import CANONICAL_BANDS, CropClass, Dataset, Sample


@dataclass(frozen=True)
class SynthConfig:
    n_per_class_per_year: int = 50
    years: tuple[int, ...] = (2016, 2017, 2018)
    divergent_year: int | None = 2018
    shift_steps: float = 1.0        # extra phenology shift in the divergent year
    amplitude_scale: float = 0.85   # amplitude damping in the divergent year
    noise_sd: float = 150.0         # additive Gaussian noise, DN
    cloud_prob: float = 0.02        # per-step probability of a cloud spike
    cloud_dn: float = 7000.0
    time_jitter_sd: float = 0.4     # per-sample green-up/senescence jitter, steps
    amp_jitter_sd: float = 0.08     # per-sample relative amplitude jitter
    year_effect_sd: float = 0.25    # per-year season offset, steps
    seed: int = 0

    def __post_init__(self):
        if self.n_per_class_per_year < 1:
            raise ValueError(f"n_per_class_per_year must be at least 1, got {self.n_per_class_per_year}")
        if not 0.0 <= self.cloud_prob <= 1.0:
            raise ValueError(f"cloud_prob must lie in [0, 1], got {self.cloud_prob}")
        for name in ("shift_steps", "amplitude_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("noise_sd", "cloud_dn", "time_jitter_sd", "amp_jitter_sd", "year_effect_sd"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and at least 0, got {value}")
        if not all(isinstance(year, int) and not isinstance(year, bool) for year in self.years):
            raise ValueError(f"years must be integers, got {self.years!r}")
        if not self.years or len(set(self.years)) < len(self.years):
            raise ValueError(f"years must be non-empty without repeats, got {self.years}")


N_STEPS = 14  # biweekly, February through August

# Class-level season timing: the green-up and senescence midpoints (step
# indices on the N_STEPS grid), then the per-step logistic rates of the rise
# and the fall.  Winter barley and winter wheat are deliberately close, the
# hard pair of the six.
_CLASS_SEASONS = {
    CropClass.CORN: (6.0, 12.6, 1.6, 1.4),
    CropClass.WINTER_BARLEY: (1.6, 8.8, 1.5, 1.3),
    CropClass.WINTER_RAPESEED: (1.2, 9.2, 1.8, 1.5),
    CropClass.SUGAR_BEET: (5.0, 13.4, 1.2, 1.2),
    CropClass.WINTER_WHEAT: (2.4, 9.8, 1.5, 1.3),
    CropClass.POTATO: (4.2, 10.8, 1.6, 1.8),
}

# Band baselines and vegetation response factors (DN / dimensionless).
# B01/B09/B10 are atmosphere-dominated: flat response, so removing them is
# nearly information-free, as in the band-reduction experiments.
_BAND_BASE = {
    "B01": 2200.0, "B02": 1400.0, "B03": 1300.0, "B04": 1200.0,
    "B05": 1400.0, "B06": 1600.0, "B07": 1700.0, "B08": 1800.0,
    "B8A": 1800.0, "B09": 900.0, "B10": 300.0, "B11": 1900.0, "B12": 1500.0,
}
_BAND_RESPONSE = {
    "B01": 0.05, "B02": 0.15, "B03": 0.30, "B04": 0.25,
    "B05": 0.55, "B06": 1.20, "B07": 1.50, "B08": 1.60,
    "B8A": 1.60, "B09": 0.25, "B10": 0.03, "B11": 0.70, "B12": 0.45,
}

# Per-class amplitude in DN plus a few spectral fingerprints that survive a
# season shift (rapeseed flowering in green, beet in red-edge, ...).
_CLASS_AMPLITUDE = {
    CropClass.CORN: 2600.0,
    CropClass.WINTER_BARLEY: 2200.0,
    CropClass.WINTER_RAPESEED: 2800.0,
    CropClass.SUGAR_BEET: 2500.0,
    CropClass.WINTER_WHEAT: 2100.0,
    CropClass.POTATO: 2400.0,
}
_FINGERPRINT = {
    (CropClass.WINTER_RAPESEED, "B03"): 2.2,
    (CropClass.WINTER_RAPESEED, "B04"): 1.6,
    (CropClass.SUGAR_BEET, "B05"): 1.7,
    (CropClass.SUGAR_BEET, "B11"): 1.4,
    (CropClass.POTATO, "B12"): 1.8,
    (CropClass.CORN, "B11"): 1.3,
    (CropClass.WINTER_BARLEY, "B02"): 1.5,
    (CropClass.WINTER_WHEAT, "B05"): 1.25,
}


def generate(cfg: SynthConfig) -> Dataset:
    """Generate a labelled multi-year dataset; bitwise-deterministic per seed.

    Each sample draws its time and amplitude jitter, then its noise and cloud
    steps; the double-logistic curves of a (year, class) group's samples are
    then computed in one array expression."""
    # per band, as (bands, 1) columns: the baseline, and each class's amplitude
    baseline = np.array([_BAND_BASE[band] for band in CANONICAL_BANDS])[:, None]
    amplitude = {crop: np.array([_CLASS_AMPLITUDE[crop] * _BAND_RESPONSE[band]
                                 * _FINGERPRINT.get((crop, band), 1.0) for band in CANONICAL_BANDS])[:, None]
                 for crop in CropClass}

    rng = seeding.stream(cfg.seed, "synth")
    year_shift = {y: rng.normal(0.0, cfg.year_effect_sd) for y in cfg.years}
    t = np.arange(N_STEPS, dtype=np.float64)
    n, shape = cfg.n_per_class_per_year, (len(CANONICAL_BANDS), N_STEPS)

    samples: list[Sample] = []
    for year in cfg.years:
        divergent = year == cfg.divergent_year
        base_shift = year_shift[year] + (cfg.shift_steps if divergent else 0.0)
        amp_factor = cfg.amplitude_scale if divergent else 1.0
        for crop in CropClass:
            shift, amp = np.empty((n, 1, 1)), np.empty((n, 1, 1))
            noise, cloudy = np.empty((n,) + shape), np.empty((n, 1, N_STEPS), dtype=bool)
            for i in range(n):
                t_jit = rng.normal(0.0, cfg.time_jitter_sd)
                a_jit = max(0.1, 1.0 + rng.normal(0.0, cfg.amp_jitter_sd))
                shift[i], amp[i] = base_shift + t_jit, amp_factor * a_jit
                # Noise and cloud draws are unconditional so that changing
                # noise_sd or cloud_prob leaves every other draw untouched.
                noise[i] = rng.normal(0.0, cfg.noise_sd, shape)
                cloudy[i] = rng.random(N_STEPS) < cfg.cloud_prob
            green_up, senescence, slope_up, slope_down = _CLASS_SEASONS[crop]
            rise = 1.0 / (1.0 + np.exp(-slope_up * (t - (green_up + shift))))
            fall = 1.0 / (1.0 + np.exp(-slope_down * (t - (senescence + shift))))
            curve = baseline + amplitude[crop] * amp * (rise - fall)
            values = np.maximum(curve + noise, 0.0) + cfg.cloud_dn * cloudy
            samples += [Sample(f"synth-{year}-c{int(crop)}-{i:03d}", year, crop, v)
                        for i, v in enumerate(values)]
    return Dataset(tuple(samples), CANONICAL_BANDS, N_STEPS)
