"""Dataset model, CSV ingestion and preprocessing for field-level band series.

A sample is one field-year: a crop label (possibly absent) and a matrix of
per-band reflectance digital numbers on a common time grid; the CSV reader
takes series already gridded.  Preprocessing covers band selection,
leading-step truncation, removal of flat (broken) series, and the four
train/test scenario splits used throughout the experiments.  Series become
the encoder's input in one place, `model.encoder_batch`.

All operations are pure: datasets are immutable and every op returns a new
one.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from . import seeding

#: Sentinel-2 band identifiers in canonical order.
CANONICAL_BANDS = (
    "B01", "B02", "B03", "B04", "B05", "B06", "B07",
    "B08", "B8A", "B09", "B10", "B11", "B12",
)

#: The Level-1C quantification value: a digital number divided by it is reflectance.
DN_SCALE = 10000.0


class CropClass(enum.IntEnum):
    """The six crop types, with a fixed index <-> name bijection."""

    CORN = 1
    WINTER_BARLEY = 2
    WINTER_RAPESEED = 3
    SUGAR_BEET = 4
    WINTER_WHEAT = 5
    POTATO = 6

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", " ")

    @classmethod
    def from_label(cls, text: str) -> "CropClass":
        try:
            return _LABELS[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown crop label {text!r}") from None


_LABELS = {c.label: c for c in CropClass}

#: index -> name mapping, embedded in reports so tables are self-describing.
CLASS_INDEX_MAPPING = {int(c): c.label for c in CropClass}
N_CLASSES = len(CropClass)


class CsvFormatError(ValueError):
    """Malformed ingestion file; message carries the offending line number."""


@dataclass(frozen=True)
class Sample:
    """One field-year: identifier, year, optional label, band x step matrix."""

    field_id: str
    year: int
    label: CropClass | None
    reflectance: np.ndarray  # (n_bands, n_steps) float64, read-only

    def __post_init__(self):
        arr = np.ascontiguousarray(self.reflectance, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"reflectance must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"sample {self.field_id}: non-finite reflectance")
        if arr.min() < 0:
            raise ValueError(f"sample {self.field_id}: negative reflectance")
        arr.flags.writeable = False
        object.__setattr__(self, "reflectance", arr)


@dataclass(frozen=True)
class Dataset:
    """A homogeneous collection of samples sharing one band set and time grid."""

    samples: tuple[Sample, ...]
    band_ids: tuple[str, ...]
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "band_ids", tuple(self.band_ids))
        if not self.band_ids:
            raise ValueError("band_ids must be non-empty")
        if len(set(self.band_ids)) != len(self.band_ids):
            raise ValueError("band_ids contains duplicates")
        order = [CANONICAL_BANDS.index(b) for b in self.band_ids if b in CANONICAL_BANDS]
        unknown = [b for b in self.band_ids if b not in CANONICAL_BANDS]
        if unknown:
            raise ValueError(f"unknown band ids {unknown}")
        if order != sorted(order):
            raise ValueError("band_ids must follow the canonical band order")
        for s in self.samples:
            if s.reflectance.shape != (len(self.band_ids), self.n_steps):
                raise ValueError(
                    f"sample {s.field_id}: shape {s.reflectance.shape} does not match "
                    f"({len(self.band_ids)}, {self.n_steps})"
                )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_bands(self) -> int:
        return len(self.band_ids)

    @cached_property
    def class_indices(self) -> dict[CropClass, list[int]]:
        """Positions of each labeled class's samples, in pool order (built once)."""
        out: dict[CropClass, list[int]] = {}
        for i, s in enumerate(self.samples):
            if s.label is not None:
                out.setdefault(s.label, []).append(i)
        return out

    def subset(self, indices: Iterable[int]) -> "Dataset":
        return replace(self, samples=tuple(self.samples[i] for i in indices))

    def years(self) -> tuple[int, ...]:
        return tuple(sorted({s.year for s in self.samples}))

    def labels_array(self) -> np.ndarray:
        """Integer class indices (1..6); raises if any sample is unlabeled."""
        out = np.empty(len(self.samples), dtype=np.int64)
        for i, s in enumerate(self.samples):
            if s.label is None:
                raise ValueError(f"sample {s.field_id} is unlabeled")
            out[i] = int(s.label)
        return out

    def feature_matrix(self) -> np.ndarray:
        """Row-major flattening of each reflectance matrix, (N, bands*steps)."""
        return np.stack([s.reflectance.reshape(-1) for s in self.samples])


@dataclass(frozen=True)
class ScenarioSpec:
    """Which samples may be trained on and which are held out.

    e1: the paper's stratified 75/25 split over all years.
    e2: train on non-target years only, test on the target year.
    e3/e4: like e2, but 5% / 10% of target-year samples move into train.
    """

    kind: str
    target_year: int | None = None
    target_label_fraction: float | None = None
    seed: int = 0
    e1_stratify: str = "class"  # "class" or "year_class"

    _E1_TRAIN_FRACTION = 0.75
    _FRACTIONS = {"e2": 0.0, "e3": 0.05, "e4": 0.10}

    def __post_init__(self):
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        if kind not in ("e1", "e2", "e3", "e4"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if kind != "e1" and self.target_year is None:
            raise ValueError(f"scenario {kind} needs a target_year")
        if self.target_label_fraction is None and kind != "e1":
            object.__setattr__(self, "target_label_fraction", self._FRACTIONS[kind])
        if self.e1_stratify not in ("class", "year_class"):
            raise ValueError(f"unknown e1_stratify {self.e1_stratify!r}")


# ---------------------------------------------------------------------------
# ingestion


def _parse_header(header: list[str]) -> tuple[tuple[str, ...], int]:
    if header[:3] != ["field_id", "year", "label"]:
        raise CsvFormatError("line 1: header must start with field_id,year,label")
    bands: list[str] = []
    steps_per_band: dict[str, list[int]] = {}
    for col in header[3:]:
        band, sep, step = col.rpartition("_t")
        if not sep or band not in CANONICAL_BANDS or not step.isdigit():
            raise CsvFormatError(f"line 1: malformed value column {col!r}")
        if band not in bands:
            bands.append(band)
        steps_per_band.setdefault(band, []).append(int(step))
    if not bands:
        raise CsvFormatError("line 1: no value columns found")
    n_steps = len(steps_per_band[bands[0]])
    for band in bands:
        if steps_per_band[band] != list(range(n_steps)):
            raise CsvFormatError(f"line 1: band {band} columns are not t00..t{n_steps - 1:02d}")
    order = [CANONICAL_BANDS.index(b) for b in bands]
    if order != sorted(order):
        raise CsvFormatError("line 1: bands are not in canonical order")
    return tuple(bands), n_steps


def load_csv(path: str | Path) -> Dataset:
    """Load the wide-format CSV (one row per field-year) into a Dataset; a repeated
    field-year is an error."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("line 1: empty file") from None
        bands, n_steps = _parse_header(header)
        n_cols = 3 + len(bands) * n_steps
        samples: list[Sample] = []
        first_line: dict[tuple[str, int], int] = {}  # the line of each field-year
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n_cols:
                raise CsvFormatError(f"line {lineno}: expected {n_cols} columns, got {len(row)}")
            try:
                year = int(row[1])
            except ValueError:
                raise CsvFormatError(f"line {lineno}: year {row[1]!r} is not an integer") from None
            label = None
            if row[2].strip():
                try:
                    label = CropClass.from_label(row[2])
                except ValueError as exc:
                    raise CsvFormatError(f"line {lineno}: {exc}") from None
            try:
                values = np.array([float(v) for v in row[3:]], dtype=np.float64)
            except ValueError:
                raise CsvFormatError(f"line {lineno}: non-numeric reflectance cell") from None
            first = first_line.setdefault((row[0], year), lineno)
            if first != lineno:
                raise CsvFormatError(f"line {lineno}: field-year {(row[0], year)} repeats line {first}")
            try:
                samples.append(
                    Sample(row[0], year, label, values.reshape(len(bands), n_steps))
                )
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from None
    if not samples:
        raise CsvFormatError(f"{path}: line 2: no samples after the header")
    return Dataset(tuple(samples), bands, n_steps)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back out in the wide CSV format."""
    path = Path(path)
    header = ["field_id", "year", "label"]
    for band in dataset.band_ids:
        header.extend(f"{band}_t{k:02d}" for k in range(dataset.n_steps))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in dataset.samples:
            row = [s.field_id, str(s.year), s.label.label if s.label is not None else ""]
            row.extend(repr(float(v)) for v in s.reflectance.reshape(-1))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# preprocessing


def select_bands(d: Dataset, keep: Iterable[str]) -> Dataset:
    """Restrict every sample to the given bands, preserving canonical order."""
    keep = set(keep)
    unknown = keep - set(d.band_ids)
    if unknown:
        raise ValueError(f"bands not present in dataset: {sorted(unknown)}")
    if not keep:
        raise ValueError("keep set must be non-empty")
    rows = [i for i, b in enumerate(d.band_ids) if b in keep]
    new_bands = tuple(d.band_ids[i] for i in rows)
    samples = tuple(
        Sample(s.field_id, s.year, s.label, s.reflectance[rows, :]) for s in d.samples
    )
    return Dataset(samples, new_bands, d.n_steps)


def truncate_steps(d: Dataset, drop_leading: int) -> Dataset:
    """Drop the first `drop_leading` time steps from every sample."""
    if not 0 <= drop_leading < d.n_steps:
        raise ValueError(f"drop_leading {drop_leading} out of range for {d.n_steps} steps")
    if drop_leading == 0:
        return d
    samples = tuple(
        Sample(s.field_id, s.year, s.label, s.reflectance[:, drop_leading:])
        for s in d.samples
    )
    return Dataset(samples, d.band_ids, d.n_steps - drop_leading)


def drop_constant_series(d: Dataset) -> tuple[Dataset, tuple[str, ...]]:
    """Remove samples whose every band is flat over time (broken downloads)."""
    kept: list[Sample] = []
    removed: list[str] = []
    for s in d.samples:
        spans = s.reflectance.max(axis=1) - s.reflectance.min(axis=1)
        if np.all(spans == 0.0):
            removed.append(s.field_id)
        else:
            kept.append(s)
    return replace(d, samples=tuple(kept)), tuple(removed)


# ---------------------------------------------------------------------------
# scenario splits


def _strata(d: Dataset, indices: Iterable[int], by_year: bool) -> dict[tuple, list[int]]:
    """`indices` grouped by (year, class) or (class,)."""
    groups: dict[tuple, list[int]] = {}
    for i in indices:
        s = d.samples[i]
        if s.label is None:
            raise ValueError(f"sample {s.field_id} is unlabeled; stratified splits need labels")
        key = (s.year, int(s.label)) if by_year else (int(s.label),)
        groups.setdefault(key, []).append(i)
    return groups


def _stratified_draw(groups: dict[tuple, list[int]], counts: dict[tuple, int], rng) -> list[int]:
    """The first `counts[key]` of each stratum, shuffled one stratum at a time in key order."""
    drawn: list[int] = []
    for key in sorted(groups):
        idx = np.array(groups[key])
        rng.shuffle(idx)
        drawn.extend(idx[: counts[key]].tolist())
    return drawn


def _allocate_train_counts(groups: dict[tuple, list[int]], fraction: float) -> dict[tuple, int]:
    """Largest-remainder allocation: total train size is floor(fraction * N)."""
    total = sum(len(v) for v in groups.values())
    target = math.floor(fraction * total)
    base = {k: math.floor(fraction * len(v)) for k, v in groups.items()}
    leftover = target - sum(base.values())
    order = sorted(
        groups,
        key=lambda k: (-(fraction * len(groups[k]) - base[k]), k),
    )
    for k in order[:leftover]:
        base[k] += 1
    return base


def make_split(d: Dataset, spec: ScenarioSpec) -> tuple[Dataset, Dataset, tuple[str, ...]]:
    """Split a dataset into (train, test, ids of target-year samples in train)."""
    rng = seeding.stream(spec.seed, "split")
    if spec.kind == "e1":
        groups = _strata(d, range(len(d)), by_year=spec.e1_stratify == "year_class")
        train = set(_stratified_draw(groups, _allocate_train_counts(groups, spec._E1_TRAIN_FRACTION), rng))
        test = (i for i in range(len(d)) if i not in train)
        return d.subset(sorted(train)), d.subset(test), ()

    target = [i for i, s in enumerate(d.samples) if s.year == spec.target_year]
    source = [i for i, s in enumerate(d.samples) if s.year != spec.target_year]
    if not target or not source:
        raise ValueError(
            f"scenario {spec.kind} needs both target-year ({spec.target_year}) and other samples"
        )
    if spec.kind == "e2" or spec.target_label_fraction == 0.0:
        return d.subset(source), d.subset(target), ()

    by_class = _strata(d, target, by_year=False)
    present = {int(s.label) for s in d.samples if s.label is not None}
    for c in sorted(present):
        if (c,) not in by_class:
            raise ValueError(f"target year has no samples of class {CropClass(c).label!r}")
    counts = {key: max(1, math.floor(spec.target_label_fraction * len(v))) for key, v in by_class.items()}
    moved = _stratified_draw(by_class, counts, rng)
    moved_set = set(moved)
    train = sorted(source + moved)
    test = sorted(i for i in target if i not in moved_set)
    if not test:
        raise ValueError(f"scenario {spec.kind} leaves no test sample: every target-year ({spec.target_year}) "
                         "sample moved into train")
    moved_ids = tuple(d.samples[i].field_id for i in sorted(moved))
    return d.subset(train), d.subset(test), moved_ids
