import zlib

import numpy as np
import pytest

from sslcrop.dataio import CANONICAL_BANDS, CropClass, Dataset, Sample
from sslcrop.synthgen import SynthConfig, generate


def make_sample(field_id, year, label, n_bands=4, n_steps=6, fill=None, rng=None):
    if fill is not None:
        ref = np.full((n_bands, n_steps), float(fill))
    else:
        rng = rng or np.random.default_rng(zlib.crc32(field_id.encode()))  # hash() is salted per process
        ref = rng.uniform(500, 5000, (n_bands, n_steps))
    return Sample(field_id, year, label, ref)


def make_dataset(n_per_class=4, years=(2016, 2017), n_bands=4, n_steps=6, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for year in years:
        for crop in CropClass:
            for i in range(n_per_class):
                samples.append(
                    make_sample(f"f{year}-{int(crop)}-{i}", year, crop, n_bands, n_steps, rng=rng)
                )
    return Dataset(tuple(samples), CANONICAL_BANDS[:n_bands], n_steps)


@pytest.fixture(scope="session")
def synth_fixture():
    """The default synthetic benchmark: 6 classes x 50 x 3 years, 2018 divergent."""
    return generate(SynthConfig(seed=11))


@pytest.fixture(scope="session")
def small_synth():
    """A light fixture for fast training tests."""
    return generate(SynthConfig(n_per_class_per_year=8, seed=5))
