"""Property tests: scenario splits, the CSV format and the pair policies over
generated inputs.

The profile is derandomised and keeps no example database, so a run draws the
same examples every time.  What Hypothesis still caches (the constants it reads
from the code under test) goes to a temporary directory, not to `.hypothesis/` in
the working directory."""

import math
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, configuration, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from sslcrop import augment  # noqa: E402
from sslcrop.augment import aug1_pair, aug2  # noqa: E402
from sslcrop.dataio import (  # noqa: E402
    CANONICAL_BANDS, CropClass, Dataset, Sample, ScenarioSpec, _allocate_train_counts, _strata, load_csv,
    make_split, write_csv,
)

settings.register_profile("sslcrop", derandomize=True, database=None, deadline=None, max_examples=60,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("sslcrop")
# set at import: the pytest plugin reads the constants right after collection;
# the directory is removed when the interpreter exits
_storage = tempfile.TemporaryDirectory(prefix="sslcrop-hypothesis-")
configuration.set_hypothesis_home_dir(_storage.name)


YEARS = (2016, 2017, 2018)
reflectance = st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False)


def dataset_of(counts, n_bands=2, n_steps=3):
    """A pool with counts[(year, class)] samples of each stratum, ids numbered in order."""
    samples = []
    for (year, crop), n in sorted(counts.items()):
        for i in range(n):
            ref = np.full((n_bands, n_steps), float(len(samples)))
            samples.append(Sample(f"f{len(samples)}-{i}", year, CropClass(crop), ref))
    return Dataset(tuple(samples), CANONICAL_BANDS[:n_bands], n_steps)


@st.composite
def strata(draw, min_per_stratum=0):
    """Sample counts per (year, class) over 2-3 years and 1-6 classes; every class
    present in one year is present in all of them when min_per_stratum >= 1."""
    years = YEARS[: draw(st.integers(2, 3))]
    classes = draw(st.sets(st.sampled_from([int(c) for c in CropClass]), min_size=1))
    counts = {(y, c): draw(st.integers(min_per_stratum, 7)) for y in years for c in sorted(classes)}
    return {k: n for k, n in counts.items() if n}


def ids(d):
    return [s.field_id for s in d.samples]


class TestSplitInvariants:
    @given(strata(), st.sampled_from(["class", "year_class"]), st.integers(0, 2**31))
    def test_e1_disjoint_covering_and_stratum_counts(self, counts, stratify, seed):
        d = dataset_of(counts)
        train, test, moved = make_split(d, ScenarioSpec("e1", seed=seed, e1_stratify=stratify))
        assert moved == ()
        assert not set(ids(train)) & set(ids(test))
        assert sorted(ids(train) + ids(test)) == sorted(ids(d))
        assert len(train) == math.floor(0.75 * len(d))
        key = (lambda s: (s.year, int(s.label))) if stratify == "year_class" else (lambda s: int(s.label))
        total, in_train = Counter(map(key, d.samples)), Counter(map(key, train.samples))
        for k, n in total.items():  # largest remainder: each stratum gets floor or floor + 1
            assert in_train[k] - math.floor(0.75 * n) in (0, 1), k

    @given(strata(), st.sampled_from([0.5, 0.75, 0.9]), st.booleans())
    def test_largest_remainder_allocation_at_any_fraction(self, counts, fraction, by_year):
        groups = _strata(dataset_of(counts), range(sum(counts.values())), by_year)
        allocated = _allocate_train_counts(groups, fraction)
        assert sum(allocated.values()) == math.floor(fraction * sum(counts.values()))
        for k, members in groups.items():  # each stratum gets floor or floor + 1
            assert allocated[k] - math.floor(fraction * len(members)) in (0, 1), k

    @given(strata(min_per_stratum=1), st.sampled_from(["e2", "e3", "e4"]), st.integers(0, 2**31))
    def test_target_year_scenarios_move_their_share_per_class(self, counts, kind, seed):
        d = dataset_of(counts)
        target_year = max(y for y, _ in counts)
        spec = ScenarioSpec(kind, target_year=target_year, seed=seed)
        shares = {crop: 0 if kind == "e2" else max(1, math.floor(spec.target_label_fraction * n))
                  for (year, crop), n in counts.items() if year == target_year}
        if all(share == counts[target_year, crop] for crop, share in shares.items()):  # no test sample left
            with pytest.raises(ValueError, match=f"^scenario {kind} leaves no test sample"):
                make_split(d, spec)
            return
        train, test, moved = make_split(d, spec)
        assert not set(ids(train)) & set(ids(test))
        assert sorted(ids(train) + ids(test)) == sorted(ids(d))
        assert all(s.year == target_year for s in test.samples)
        assert {s.field_id for s in train.samples if s.year == target_year} == set(moved)
        for crop, share in shares.items():
            assert sum(s.year == target_year and int(s.label) == crop for s in train.samples) == share


samples = st.builds(
    lambda field_id, year, label, values: (field_id, year, label, values),
    st.lists(st.sampled_from('ab1 ,"\n\'é'), min_size=1, max_size=6).map("".join),  # CSV quoting cases
    st.integers(1900, 2100),
    st.one_of(st.none(), st.sampled_from(list(CropClass))),
    arrays(np.float64, (2, 3), elements=reflectance),
)


class TestCsvRoundTrip:
    # a header-only CSV is refused, and so is a repeated field-year
    @given(st.lists(samples, min_size=1, max_size=6, unique_by=lambda row: (row[0], row[1])))
    def test_write_load_write_is_byte_exact(self, rows):
        d = Dataset(tuple(Sample(*row) for row in rows), CANONICAL_BANDS[:2], 3)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            write_csv(d, first)
            loaded = load_csv(first)
            write_csv(loaded, second)
            assert first.read_bytes() == second.read_bytes()
        assert (loaded.band_ids, loaded.n_steps) == (d.band_ids, d.n_steps)
        for got, want in zip(loaded.samples, d.samples, strict=True):
            assert (got.field_id, got.year, got.label) == (want.field_id, want.year, want.label)
            assert got.reflectance.tobytes() == want.reflectance.tobytes()


series = st.tuples(st.integers(1, 5), st.integers(2, 16)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=reflectance))


class TestPairPolicies:
    @given(strata(), st.integers(0, 2**31))
    def test_aug1_returns_two_distinct_entries_of_the_class(self, counts, seed):
        pool = dataset_of(counts)
        rng = np.random.default_rng(seed)
        for crop, idx in pool.class_indices.items():
            if len(idx) < 2:
                continue
            x1, x2 = aug1_pair(pool, crop, rng)
            entries = [pool.samples[i].reflectance for i in idx]
            i1 = [k for k, e in enumerate(entries) if x1 is e]
            i2 = [k for k, e in enumerate(entries) if x2 is e]
            assert len(i1) == len(i2) == 1 and i1 != i2
            assert x1.shape == x2.shape == (pool.n_bands, pool.n_steps)

    @given(series, st.integers(0, 2**31), st.floats(0.01, 0.5), st.integers(1, 4))
    def test_aug2_shape_and_ranges(self, x, seed, drift_max, drift_points):
        x.setflags(write=False)
        drift = np.random.default_rng(seed).random() < 0.5  # the branch aug2 draws first
        # patched per example: a function-scoped monkeypatch fails hypothesis's health check
        with mock.patch.object(augment, "DRIFT_MAX", drift_max), \
                mock.patch.object(augment, "DRIFT_POINTS", drift_points):
            out = aug2(x, np.random.default_rng(seed))
        assert out.shape == x.shape and out.dtype == np.float64 and np.all(np.isfinite(out))
        if drift:  # zero at both ends, and within drift_max of each band's range
            band_range = x.max(axis=1) - x.min(axis=1)
            bound = drift_max * band_range * (1 + 1e-12) + 1e-9 * np.abs(x).max(axis=1)
            assert np.all(np.abs(out - x).max(axis=1) <= bound)
            assert np.array_equal(out[:, [0, -1]], x[:, [0, -1]])
