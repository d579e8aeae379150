import hashlib
import re

import numpy as np
import pytest

from sslcrop import cli
from sslcrop.dataio import CropClass, ScenarioSpec, make_split
from sslcrop.evaluation import overall_accuracy
from sslcrop.forest import ForestConfig, rf_fit, rf_predict
from sslcrop.synthgen import SynthConfig, generate


class TestGenerate:
    def test_degenerate_randomness_gives_identical_samples(self):
        cfg = SynthConfig(
            n_per_class_per_year=3,
            noise_sd=0.0,
            cloud_prob=0.0,
            time_jitter_sd=0.0,
            amp_jitter_sd=0.0,
            seed=0,
        )
        d = generate(cfg)
        for crop in CropClass:
            group = [
                s.reflectance
                for s in d.samples
                if s.label is crop and s.year == 2016
            ]
            for other in group[1:]:
                assert np.array_equal(group[0], other)

    def test_full_cloud_cover_adds_exact_constant(self):
        base = dict(n_per_class_per_year=2, cloud_dn=7000.0, seed=4)
        clear = generate(SynthConfig(cloud_prob=0.0, **base))
        cloudy = generate(SynthConfig(cloud_prob=1.0, **base))
        for a, b in zip(clear.samples, cloudy.samples):
            assert np.array_equal(b.reflectance, a.reflectance + 7000.0)

    def test_values_non_negative(self):
        d = generate(SynthConfig(n_per_class_per_year=3, noise_sd=5000.0, seed=2))
        for s in d.samples:
            assert s.reflectance.min() >= 0.0

    def test_same_seed_bitwise_identical(self):
        a = generate(SynthConfig(n_per_class_per_year=2, seed=7))
        b = generate(SynthConfig(n_per_class_per_year=2, seed=7))
        for x, y in zip(a.samples, b.samples):
            assert x.field_id == y.field_id
            assert np.array_equal(x.reflectance, y.reflectance)

    def test_class_balance_exact(self):
        d = generate(SynthConfig(n_per_class_per_year=4, seed=1))
        for year in (2016, 2017, 2018):
            for crop in CropClass:
                assert sum(1 for s in d.samples if s.year == year and s.label is crop) == 4

    def test_divergent_year_shifts_series(self):
        quiet = dict(noise_sd=0.0, cloud_prob=0.0, time_jitter_sd=0.0, amp_jitter_sd=0.0,
                     year_effect_sd=0.0, n_per_class_per_year=1, seed=0)
        shifted = generate(SynthConfig(divergent_year=2018, shift_steps=2.0, **quiet))
        flat = generate(SynthConfig(divergent_year=None, **quiet))
        s_2016 = {s.label: s for s in shifted.samples if s.year == 2016}
        s_2018 = {s.label: s for s in shifted.samples if s.year == 2018}
        f_2018 = {s.label: s for s in flat.samples if s.year == 2018}
        for crop in CropClass:
            # without divergence 2018 equals 2016; with it the curves move
            assert np.array_equal(f_2018[crop].reflectance, s_2016[crop].reflectance)
            assert not np.array_equal(s_2018[crop].reflectance, s_2016[crop].reflectance)


def dataset_digest(dataset):
    h = hashlib.sha256()
    for s in dataset.samples:
        h.update(s.field_id.encode())
        h.update(np.ascontiguousarray(s.reflectance, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestConfig:
    def test_years_must_be_given(self):
        with pytest.raises(ValueError, match=r"years must be non-empty without repeats, got \(\)"):
            SynthConfig(years=())

    @pytest.mark.parametrize("years", [(2016.5, 2017), (2016, True), "2018"],
                             ids=["fraction", "bool", "text"])
    def test_years_must_be_integers(self, years):
        with pytest.raises(ValueError, match=re.escape(f"years must be integers, got {years!r}")):
            SynthConfig(years=years)

    def test_text_years_from_a_settings_dict_fail(self):
        # parsed settings hold a tuple; text put in by hand once became the years 0, 1, 2, 8
        with pytest.raises(ValueError, match="years must be integers, got '2018'"):
            cli.settings_to_synthconfig(dict(cli.DEFAULTS, synth_years="2018", synth_n=1))


class TestGolden:
    """Every field id and reflectance byte, as the per-sample, per-band loop made them."""

    def test_default_config(self):
        digest = dataset_digest(generate(SynthConfig(seed=0)))
        assert digest == "d07c000b00546d9799faab7e3eb55a124641a7697f494f32a7527fea40e6ee05"

    def test_other_years_and_sizes(self):
        # every band: the generator makes all 13, and preprocessing selects (`select_bands`)
        cfg = SynthConfig(n_per_class_per_year=7, years=(2019, 2020), divergent_year=2020, seed=3)
        digest = dataset_digest(generate(cfg))
        assert digest == "8a8c02823f6c74066312fc5554aac09433343403e65c2e3313b8aa9bb4cb1045"


class TestSeparabilityOracle:
    def test_forest_transfers_to_unseen_non_divergent_year(self, synth_fixture):
        """End-to-end check that the default fixture is learnable across years."""
        spec = ScenarioSpec("e2", target_year=2017, seed=1)
        train, test, _ = make_split(synth_fixture, spec)
        forest = rf_fit(train, ForestConfig(n_trees=100, seed=1))
        oa = overall_accuracy(rf_predict(forest, test), test.labels_array())
        assert oa >= 0.9
