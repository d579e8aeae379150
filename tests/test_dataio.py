import re

import numpy as np
import pytest

from sslcrop.dataio import (
    CANONICAL_BANDS,
    CropClass,
    CsvFormatError,
    Dataset,
    Sample,
    ScenarioSpec,
    drop_constant_series,
    load_csv,
    make_split,
    select_bands,
    truncate_steps,
    write_csv,
)
from conftest import make_dataset, make_sample


def write_wide_csv(path, rows, bands=CANONICAL_BANDS, n_steps=14):
    header = ["field_id", "year", "label"]
    for b in bands:
        header.extend(f"{b}_t{k:02d}" for k in range(n_steps))
    lines = [",".join(header)]
    for field_id, year, label, value in rows:
        cells = [field_id, str(year), label] + [str(value)] * (len(bands) * n_steps)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCropClass:
    def test_paper_fixed_assignments(self):
        assert CropClass(2).label == "winter barley"
        assert CropClass(5).label == "winter wheat"

    def test_bijection(self):
        assert len(CropClass) == 6
        for c in CropClass:
            assert CropClass.from_label(c.label) is c


class TestLoadCsv:
    def test_three_rows_thirteen_bands(self, tmp_path):
        path = tmp_path / "d.csv"
        write_wide_csv(path, [(f"f{i}", 2016, "corn", 100 + i) for i in range(3)])
        d = load_csv(path)
        assert len(d) == 3
        assert d.n_steps == 14
        assert d.band_ids == CANONICAL_BANDS
        assert d.samples[0].reflectance.shape == (13, 14)

    def test_empty_label_is_unlabeled(self, tmp_path):
        path = tmp_path / "d.csv"
        write_wide_csv(path, [("f0", 2016, "", 5.0)])
        d = load_csv(path)
        assert d.samples[0].label is None

    def test_yearly_counts_like_published_table(self, tmp_path):
        rows = []
        for year, count in ((2016, 558), (2017, 600), (2018, 600)):
            per_class = count // 6
            for ci, crop in enumerate(CropClass):
                rows.extend(
                    (f"f{year}-{ci}-{i}", year, crop.label, 1000) for i in range(per_class)
                )
        path = tmp_path / "d.csv"
        write_wide_csv(path, rows)
        assert len(load_csv(path)) == 1758

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("oops,year,label,B01_t00\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 1"):
            load_csv(path)

    def test_header_only_names_the_file_and_line_2(self, tmp_path):
        path = tmp_path / "d.csv"
        write_wide_csv(path, [])
        with pytest.raises(CsvFormatError, match=f"^{re.escape(str(path))}: line 2: no samples"):
            load_csv(path)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        write_wide_csv(path, [("f0", 2016, "corn", 1.0)])
        lines = path.read_text().splitlines()
        lines.append(lines[1].replace("1.0", "zap", 1))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path)

    def test_inconsistent_column_count_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        write_wide_csv(path, [("f0", 2016, "corn", 1.0)])
        with path.open("a") as fh:
            fh.write("f1,2016,corn,1.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path)

    def test_repeated_field_year_names_both_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = [("f0", 2016, "corn", 1.0), ("f0", 2017, "corn", 2.0), ("f1", 2016, "corn", 3.0)]
        write_wide_csv(path, rows)
        assert len(load_csv(path)) == 3  # one field in two years is two samples
        write_wide_csv(path, rows + [("f0", 2016, "corn", 4.0)])
        with pytest.raises(CsvFormatError, match=re.escape("line 5: field-year ('f0', 2016) repeats line 2")):
            load_csv(path)

    def test_round_trip(self, tmp_path):
        d = make_dataset(n_per_class=2, seed=3)
        path = tmp_path / "d.csv"
        write_csv(d, path)
        back = load_csv(path)
        assert back.band_ids == d.band_ids
        assert len(back) == len(d)
        for a, b in zip(d.samples, back.samples):
            assert a.field_id == b.field_id and a.label == b.label and a.year == b.year
            assert np.array_equal(a.reflectance, b.reflectance)


class TestBandAndStepOps:
    def test_paper_band_removal_keeps_nine(self):
        d = make_dataset(n_bands=13)
        keep = set(CANONICAL_BANDS) - {"B01", "B02", "B03", "B10"}
        out = select_bands(d, keep)
        assert out.band_ids == ("B04", "B05", "B06", "B07", "B08", "B8A", "B09", "B11", "B12")
        assert out.samples[0].reflectance.shape[0] == 9

    def test_keep_all_is_identity(self):
        d = make_dataset(n_bands=5)
        out = select_bands(d, d.band_ids)
        assert out.band_ids == d.band_ids
        assert np.array_equal(out.samples[0].reflectance, d.samples[0].reflectance)

    def test_single_band_rows_match(self):
        d = make_dataset(n_bands=5)
        out = select_bands(d, {"B04"})
        assert out.band_ids == ("B04",)
        idx = d.band_ids.index("B04")
        for a, b in zip(d.samples, out.samples):
            assert np.array_equal(b.reflectance[0], a.reflectance[idx])

    def test_unknown_band_rejected(self):
        d = make_dataset(n_bands=4)
        with pytest.raises(ValueError, match="B12"):
            select_bands(d, {"B12"})

    def test_truncate_three_steps(self):
        d = make_dataset(n_steps=14)
        out = truncate_steps(d, 3)
        assert out.n_steps == 11
        assert np.array_equal(out.samples[0].reflectance, d.samples[0].reflectance[:, 3:])

    def test_truncate_zero_is_identity(self):
        d = make_dataset(n_steps=6)
        assert truncate_steps(d, 0) is d

    def test_truncate_to_last_column(self):
        d = make_dataset(n_steps=14)
        out = truncate_steps(d, 13)
        assert out.n_steps == 1
        assert np.array_equal(out.samples[0].reflectance[:, 0], d.samples[0].reflectance[:, -1])

    def test_truncate_out_of_range(self):
        d = make_dataset(n_steps=6)
        with pytest.raises(ValueError):
            truncate_steps(d, 6)

    def test_band_step_ops_commute(self):
        d = make_dataset(n_bands=13, n_steps=14)
        keep = {"B04", "B08", "B11"}
        a = truncate_steps(select_bands(d, keep), 3)
        b = select_bands(truncate_steps(d, 3), keep)
        assert a.band_ids == b.band_ids and a.n_steps == b.n_steps
        for x, y in zip(a.samples, b.samples):
            assert np.array_equal(x.reflectance, y.reflectance)


class TestDropConstantAndNormalize:
    def test_fully_constant_removed_varying_kept(self):
        flat = make_sample("flat", 2016, CropClass.CORN, fill=42.0)
        vary = make_sample("vary", 2016, CropClass.CORN, fill=42.0)
        arr = vary.reflectance.copy()
        arr[0, 0] += 1.0
        vary = Sample("vary", 2016, CropClass.CORN, arr)
        d = Dataset((flat, vary), CANONICAL_BANDS[:4], 6)
        out, removed = drop_constant_series(d)
        assert removed == ("flat",)
        assert [s.field_id for s in out.samples] == ["vary"]

    def test_mixed_set_against_direct_scan(self):
        rng = np.random.default_rng(7)
        samples = []
        for i in range(10):
            if i in (2, 5, 8):
                samples.append(make_sample(f"c{i}", 2016, CropClass.CORN, fill=float(i)))
            else:
                samples.append(make_sample(f"v{i}", 2016, CropClass.CORN, rng=rng))
        d = Dataset(tuple(samples), CANONICAL_BANDS[:4], 6)
        out, removed = drop_constant_series(d)
        assert len(out) == 7
        assert set(removed) == {"c2", "c5", "c8"}

    def test_ops_do_not_mutate_input(self):
        d = make_dataset(seed=2)
        before = d.samples[0].reflectance.copy()
        select_bands(d, {"B01"})
        truncate_steps(d, 2)
        drop_constant_series(d)
        assert np.array_equal(d.samples[0].reflectance, before)


def published_counts_dataset():
    """558/600/600 samples split evenly over the six classes."""
    samples = []
    for year, count in ((2016, 558), (2017, 600), (2018, 600)):
        per_class = count // 6
        for crop in CropClass:
            for i in range(per_class):
                samples.append(make_sample(f"f{year}-{int(crop)}-{i}", year, crop, fill=1000 + i))
    return Dataset(tuple(samples), CANONICAL_BANDS[:4], 6)


class TestMakeSplit:
    def test_e1_sizes_under_floor_rule(self):
        d = published_counts_dataset()
        train, test, moved = make_split(d, ScenarioSpec("e1", seed=3))
        assert len(d) == 1758
        assert (len(train), len(test)) == (1318, 440)
        assert moved == ()

    def test_e1_stratification_within_one_sample(self):
        d = published_counts_dataset()
        train, test, _ = make_split(d, ScenarioSpec("e1", seed=3))
        for crop in CropClass:
            n_train = sum(1 for s in train.samples if s.label is crop)
            assert abs(n_train - 0.75 * 293) <= 1

    def test_e2_counts(self):
        d = published_counts_dataset()
        train, test, moved = make_split(d, ScenarioSpec("e2", target_year=2018, seed=3))
        assert (len(train), len(test)) == (1158, 600)
        assert all(s.year != 2018 for s in train.samples)
        assert all(s.year == 2018 for s in test.samples)
        assert moved == ()

    def test_e3_moves_five_per_class(self):
        d = published_counts_dataset()
        train, test, moved = make_split(d, ScenarioSpec("e3", target_year=2018, seed=3))
        assert len(moved) == 30  # floor(0.05 * 100) per class
        assert (len(train), len(test)) == (1158 + 30, 600 - 30)
        per_class = {c: 0 for c in CropClass}
        by_id = {s.field_id: s for s in d.samples}
        for fid in moved:
            assert by_id[fid].year == 2018
            per_class[by_id[fid].label] += 1
        assert all(v == 5 for v in per_class.values())

    def test_e4_fraction(self):
        d = published_counts_dataset()
        _, _, moved = make_split(d, ScenarioSpec("e4", target_year=2018, seed=3))
        assert len(moved) == 60

    def test_minimum_one_per_class(self):
        d = make_dataset(n_per_class=5, years=(2016, 2018))  # floor(0.05*5) = 0 -> min 1
        _, _, moved = make_split(d, ScenarioSpec("e3", target_year=2018, seed=0))
        assert len(moved) == 6

    def test_disjoint_and_covering(self):
        d = published_counts_dataset()
        for spec in (ScenarioSpec("e1", seed=5), ScenarioSpec("e3", target_year=2018, seed=5)):
            train, test, _ = make_split(d, spec)
            ids = [s.field_id for s in train.samples] + [s.field_id for s in test.samples]
            assert len(ids) == len(d)
            assert set(ids) == {s.field_id for s in d.samples}

    def test_deterministic_per_seed(self):
        d = published_counts_dataset()
        a = make_split(d, ScenarioSpec("e1", seed=8))
        b = make_split(d, ScenarioSpec("e1", seed=8))
        c = make_split(d, ScenarioSpec("e1", seed=9))
        assert [s.field_id for s in a[0].samples] == [s.field_id for s in b[0].samples]
        assert [s.field_id for s in a[0].samples] != [s.field_id for s in c[0].samples]

    def test_empty_class_in_target_year_rejected(self):
        base = make_dataset(n_per_class=3, years=(2016,))
        extra = tuple(
            make_sample(f"t{i}", 2018, CropClass.CORN, fill=900.0) for i in range(3)
        )
        d = Dataset(base.samples + extra, base.band_ids, base.n_steps)
        with pytest.raises(ValueError, match="winter barley"):
            make_split(d, ScenarioSpec("e3", target_year=2018, seed=0))

    @pytest.mark.parametrize("kind", ["e3", "e4"])
    def test_no_test_sample_left_rejected(self, kind):
        d = make_dataset(n_per_class=1, years=(2016, 2018))  # the one target sample per class moves
        with pytest.raises(ValueError, match=f"^scenario {kind} leaves no test sample: every target-year "
                                             r"\(2018\) sample moved into train$"):
            make_split(d, ScenarioSpec(kind, target_year=2018, seed=0))

    def test_e1_with_unlabeled_rejected(self):
        d = make_dataset(n_per_class=2)
        unlabeled = make_sample("u", 2016, None)
        d = Dataset(d.samples + (unlabeled,), d.band_ids, d.n_steps)
        with pytest.raises(ValueError, match="unlabeled"):
            make_split(d, ScenarioSpec("e1", seed=0))

    def test_e1_year_class_stratification_supported(self):
        d = published_counts_dataset()
        train, test, _ = make_split(d, ScenarioSpec("e1", seed=3, e1_stratify="year_class"))
        assert (len(train), len(test)) == (1318, 440)
        # every (year, class) cell keeps its proportion within one sample
        for year, count in ((2016, 93), (2017, 100), (2018, 100)):
            for crop in CropClass:
                n = sum(1 for s in train.samples if s.year == year and s.label is crop)
                assert abs(n - 0.75 * count) <= 1


class TestDatasetValidation:
    def test_band_order_enforced(self):
        with pytest.raises(ValueError, match="canonical"):
            Dataset((), ("B04", "B02"), 6)

    def test_shape_mismatch_rejected(self):
        s = make_sample("a", 2016, CropClass.CORN, n_bands=3, n_steps=6)
        with pytest.raises(ValueError, match="shape"):
            Dataset((s,), CANONICAL_BANDS[:4], 6)

    def test_negative_reflectance_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Sample("a", 2016, CropClass.CORN, np.full((2, 3), -1.0))
