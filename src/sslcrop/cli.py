"""Experiment orchestration: configs, scenario runs, matrices, exports.

One flat key=value config file (with `#` comments) plus command-line
overrides drives everything; every stage draws its randomness from the
master seed through named streams.  Artifacts are only written once a run
has fully succeeded, so a failing run leaves nothing half-finished behind.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

from . import blas
from . import evaluation as E
from . import model as M
from .augment import AugmentationPolicy
from .dataio import (
    CANONICAL_BANDS,
    Dataset,
    Sample,
    ScenarioSpec,
    load_csv,
    make_split,
    drop_constant_series,
    select_bands,
    truncate_steps,
    write_csv,
)
from .forest import ForestConfig, rf_fit, rf_predict
from .model import EncoderConfig
from .synthgen import SynthConfig, generate
from .train import TrainConfig, branch_threads, finetune, pretrain, train_supervised

METHODS = ("rf", "tf", "ssl")

DEFAULTS: dict[str, object] = {
    "data": None,
    "out": None,
    "seed": 0,
    "jobs": 1,
    "scenario": "e1",
    "target_year": None,
    "e1_stratify": "class",
    "method": "tf",
    "aug": None,
    "bands": None,
    "drop_leading": 0,
    "lr": 0.0016612,
    "batch_size": 256,
    "momentum": 0.9,
    "weight_decay": 0.0005,
    "epochs_supervised": 300,
    "epochs_pretrain": 600,
    "epochs_finetune": 300,
    "finetune_mode": "full",
    "dn_scale": 10000.0,
    "collapse_warmup": 300,
    "collapse_factor": 0.25,
    "d_model": 64,
    "n_heads": 4,
    "n_layers": 3,
    "ff_dim": 256,
    "proj_hidden": 6,
    "head_out": 14,
    "pred_hidden": 6,
    "n_trees": 500,
    "min_leaf": 1,
    "max_depth": None,
    "max_features": None,
    "aug2_unlabeled_target": True,
    "spike_both": True,
    "methods": "rf,tf",
    "scenarios": "e1,e2,e3,e4",
    "contrastive_table": True,
    "synth_n": 50,
    "synth_years": "2016,2017,2018",
    "synth_divergent_year": 2018,
    "synth_shift_steps": 1.0,
    "synth_amplitude_scale": 0.85,
    "synth_noise_sd": 150.0,
    "synth_cloud_prob": 0.02,
    "synth_cloud_dn": 7000.0,
    "synth_time_jitter": 0.4,
    "synth_amp_jitter": 0.08,
    "synth_year_effect": 0.25,
}

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


class ConfigError(ValueError):
    pass


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments are skipped."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value
    return entries


def _coerce(key: str, value: str):
    default = DEFAULTS[key]
    if value == "" or value.lower() == "none":
        return None
    if key in ("target_year", "max_depth", "max_features", "synth_divergent_year"):
        return int(value)
    if isinstance(default, bool):
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"{key}: cannot parse boolean {value!r}")
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    return value


def resolve_settings(args: argparse.Namespace) -> dict[str, object]:
    """defaults < config file < explicit command-line flags."""
    settings = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, value in parse_config_file(config_path).items():
            settings[key] = _coerce(key, value)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["out"] is None:
        settings["out"] = os.environ.get("SSLCROP_OUT", "runs")
    return settings


def _parse_bands(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    bands = tuple(b.strip() for b in text.split(",") if b.strip())
    unknown = [b for b in bands if b not in CANONICAL_BANDS]
    if unknown:
        raise ConfigError(f"unknown bands {unknown}; choose from {CANONICAL_BANDS}")
    return bands


@dataclass(frozen=True)
class RunConfig:
    """Everything one scenario run needs; exactly one data source is set."""

    method: str
    scenario: str
    data: str | None = None
    synth: SynthConfig | None = None
    target_year: int | None = None
    e1_stratify: str = "class"
    bands: tuple[str, ...] | None = None
    drop_leading: int = 0
    aug: str | None = None
    aug2_unlabeled_target: bool = True
    spike_both: bool = True
    contrastive_table: bool = True
    train: TrainConfig = TrainConfig()
    encoder_overrides: tuple[tuple[str, int], ...] = ()
    simsiam_overrides: tuple[tuple[str, int], ...] = ()
    forest: ForestConfig = ForestConfig()
    seed: int = 0

    def __post_init__(self):
        if (self.data is None) == (self.synth is None):
            raise ConfigError("exactly one of data/synth must be given")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.method == "ssl" and self.aug is None:
            raise ConfigError("method=ssl needs an augmentation (aug1|aug2|aug3)")
        if self.method != "ssl" and self.aug is not None:
            raise ConfigError("aug is only meaningful with method=ssl")


def settings_to_runconfig(s: dict[str, object], method: str | None = None,
                          scenario: str | None = None, aug: str | None = None) -> RunConfig:
    method = method or str(s["method"])
    scenario = scenario or str(s["scenario"])
    aug = aug if aug is not None else (s["aug"] if method == "ssl" else None)
    train = TrainConfig(
        lr=float(s["lr"]),
        batch_size=int(s["batch_size"]),
        epochs_supervised=int(s["epochs_supervised"]),
        epochs_pretrain=int(s["epochs_pretrain"]),
        epochs_finetune=int(s["epochs_finetune"]),
        momentum=float(s["momentum"]),
        weight_decay=float(s["weight_decay"]),
        seed=int(s["seed"]),
        finetune_mode=str(s["finetune_mode"]),
        dn_scale=float(s["dn_scale"]),
        collapse_warmup_epochs=int(s["collapse_warmup"]),
        collapse_threshold_factor=float(s["collapse_factor"]),
    )
    forest = ForestConfig(
        n_trees=int(s["n_trees"]),
        max_features=s["max_features"],
        min_leaf=int(s["min_leaf"]),
        max_depth=s["max_depth"],
        seed=int(s["seed"]),
    )
    return RunConfig(
        method=method,
        scenario=scenario,
        data=s["data"],
        synth=None if s["data"] else settings_to_synthconfig(s),
        target_year=s["target_year"],
        e1_stratify=str(s["e1_stratify"]),
        bands=_parse_bands(s["bands"]) if isinstance(s["bands"], str) else s["bands"],
        drop_leading=int(s["drop_leading"]),
        aug=aug,
        aug2_unlabeled_target=bool(s["aug2_unlabeled_target"]),
        spike_both=bool(s["spike_both"]),
        contrastive_table=bool(s["contrastive_table"]),
        train=train,
        encoder_overrides=(
            ("d_model", int(s["d_model"])),
            ("n_heads", int(s["n_heads"])),
            ("n_layers", int(s["n_layers"])),
            ("ff_dim", int(s["ff_dim"])),
        ),
        simsiam_overrides=(
            ("proj_hidden", int(s["proj_hidden"])),
            ("head_out", int(s["head_out"])),
            ("pred_hidden", int(s["pred_hidden"])),
        ),
        forest=forest,
        seed=int(s["seed"]),
    )


def settings_to_synthconfig(s: dict[str, object]) -> SynthConfig:
    years = tuple(int(y) for y in str(s["synth_years"]).split(","))
    return SynthConfig(
        n_per_class_per_year=int(s["synth_n"]),
        years=years,
        divergent_year=s["synth_divergent_year"],
        shift_steps=float(s["synth_shift_steps"]),
        amplitude_scale=float(s["synth_amplitude_scale"]),
        noise_sd=float(s["synth_noise_sd"]),
        cloud_prob=float(s["synth_cloud_prob"]),
        cloud_dn=float(s["synth_cloud_dn"]),
        time_jitter_sd=float(s["synth_time_jitter"]),
        amp_jitter_sd=float(s["synth_amp_jitter"]),
        year_effect_sd=float(s["synth_year_effect"]),
        seed=int(s["seed"]),
    )


# ---------------------------------------------------------------------------
# pipeline


def _load_dataset(config: RunConfig) -> Dataset:
    if config.data is not None:
        return load_csv(config.data)
    return generate(config.synth)


def _preprocess(config: RunConfig, dataset: Dataset) -> tuple[Dataset, tuple[str, ...]]:
    dataset, removed = drop_constant_series(dataset)
    if config.bands:
        dataset = select_bands(dataset, config.bands)
    if config.drop_leading:
        dataset = truncate_steps(dataset, config.drop_leading)
    return dataset, removed


def _prepare(config: RunConfig, raw: Dataset | None = None) -> tuple:
    """Preprocess `raw` (loaded if None) and split it for the scenario: (dataset,
    removed series, spec, train, test, ids of target-year samples in train)."""
    dataset, removed = _preprocess(config, _load_dataset(config) if raw is None else raw)
    target = config.target_year
    if target is None and config.scenario != "e1":
        if config.synth is not None and config.synth.divergent_year is not None:
            target = config.synth.divergent_year
        else:
            target = max(dataset.years())
    spec = ScenarioSpec(config.scenario, target, seed=config.seed, e1_stratify=config.e1_stratify)
    return (dataset, removed, spec, *make_split(dataset, spec))


def _encoder_config(config: RunConfig, dataset: Dataset) -> EncoderConfig:
    return EncoderConfig(
        n_bands=dataset.n_bands, n_steps=dataset.n_steps, **dict(config.encoder_overrides)
    )


def _simsiam_config(config: RunConfig) -> M.SimSiamConfig:
    return M.SimSiamConfig(**dict(config.simsiam_overrides))


def _trace_dict(trace) -> dict:
    doc = {"losses": trace.losses}
    if trace.collapse is not None:
        doc["collapse"] = trace.collapse
        doc["collapse_warning"] = trace.collapse_warning
    return doc


def _pretrain(config: RunConfig, dataset: Dataset, train_set: Dataset, test_set: Dataset):
    """Pre-train on the training split, plus the unlabeled test series for aug2 on e2 if asked."""
    pool = train_set
    if config.aug == "aug2" and config.aug2_unlabeled_target and config.scenario == "e2":
        stripped = tuple(Sample(s.field_id, s.year, None, s.reflectance) for s in test_set.samples)
        pool = replace(train_set, samples=train_set.samples + stripped)
    policy = AugmentationPolicy(config.aug, dn_scale=config.train.dn_scale, spike_both=config.spike_both)
    return pretrain(pool, policy, config.train, _encoder_config(config, dataset), _simsiam_config(config))


@blas.one_thread()
def run(
    config: RunConfig, raw: Dataset | None = None
) -> tuple[E.ExperimentReport, dict[str, str]]:
    """Execute one scenario on `raw` (loaded if None); returns (report, artifact texts).

    Runs with OpenBLAS on one thread, like a matrix cell, so its bytes do not depend
    on the machine's core count and equal those of the same matrix cell."""
    dataset, removed, spec, train_set, test_set, moved_ids = _prepare(config, raw)
    truth = test_set.labels_array()
    files: dict[str, str] = {}
    extras: dict = {"removed_constant_series": list(removed)}
    if moved_ids:
        extras["target_train_ids"] = list(moved_ids)
    traces: dict[str, dict] = {}
    cfg = config.train

    if config.method == "rf":
        forest = rf_fit(train_set, config.forest)
        pred = rf_predict(forest, test_set)
        method_tag = "RF"
    elif config.method == "tf":
        state, trace = train_supervised(
            train_set, cfg, _encoder_config(config, dataset), _simsiam_config(config)
        )
        pred = M.predict_batched(state, test_set.time_major() / cfg.dn_scale, cfg.batch_size)
        traces["train"] = _trace_dict(trace)
        files["train_trace.csv"] = trace.to_csv()
        files["model.json"] = M.checkpoint_text(state)
        method_tag = "TF"
    else:
        backbone, pre_trace = _pretrain(config, dataset, train_set, test_set)
        tuned, ft_trace = finetune(backbone, train_set, cfg)
        pred = M.predict_batched(tuned, test_set.time_major() / cfg.dn_scale, cfg.batch_size)
        traces["pretrain"] = _trace_dict(pre_trace)
        traces["finetune"] = _trace_dict(ft_trace)
        files["pretrain_trace.csv"] = pre_trace.to_csv()
        files["finetune_trace.csv"] = ft_trace.to_csv()
        files["pretrained.json"] = M.checkpoint_text(backbone)
        files["finetuned.json"] = M.checkpoint_text(tuned)
        if config.contrastive_table:
            ref = E.embed_reference(backbone, train_set, cfg.dn_scale)
            cpred, _ = E.contrastive_classify_batch(
                backbone, test_set.time_major() / cfg.dn_scale, ref
            )
            conf = E.confusion_matrix(truth, cpred)
            extras["contrastive"] = {
                "overall_accuracy": E.overall_accuracy(cpred, truth),
                "confusion_matrix": conf.tolist(),
                "per_class_accuracy": E.per_class_accuracy(conf),
            }
        method_tag = f"SSL+Aug{config.aug[-1]}"

    report = E.build_report(
        scenario=spec.kind,
        method=method_tag,
        dataset_like=dataset,
        pred=pred,
        truth=truth,
        seeds={"master": config.seed},
        traces=traces,
        extras=extras,
    )
    files["report.json"] = report.to_json() + "\n"
    return report, files


def write_artifacts(out_dir: str | Path, files: dict[str, str]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rel, text in files.items():
        target = out / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# matrix


def _method_tokens(text: str) -> list[tuple[str, str | None]]:
    out = []
    for token in (t.strip() for t in str(text).split(",")):
        if not token:
            continue
        if token.startswith("ssl:"):
            out.append(("ssl", token.split(":", 1)[1]))
        else:
            out.append((token, None))
    return out


_worker_cell = None  # the matrix's cell function, set in each worker process


def _init_worker(one) -> None:
    global _worker_cell
    _worker_cell = one
    blas.set_threads(1)


def _run_cell(i: int) -> str:
    return _worker_cell(i)


def run_matrix(
    settings: dict[str, object], out_dir: Path, jobs: int = 1
) -> str:
    """Run every (method, scenario) cell on data loaded once; failed cells become
    `error` and leave their traceback in `<label>_<scenario>/error.txt`.

    Cells run in up to `jobs` forked worker processes with one BLAS thread each,
    so a cell's bytes depend neither on `jobs` nor on the caller's BLAS threads.
    Pre-training in a cell runs its two views on `branch_threads(workers)` threads.
    A worker that dies raises `RuntimeError` naming the cells it was running."""
    methods = _method_tokens(str(settings["methods"]))
    scenarios = [s.strip() for s in str(settings["scenarios"]).split(",") if s.strip()]
    for key, items in (("methods", methods), ("scenarios", scenarios)):
        if not items:
            raise ConfigError(f"matrix needs at least one entry in {key}, got {settings[key]!r}")
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    cells: dict[tuple[int, str], RunConfig] = {}
    for mi, (method, aug) in enumerate(methods):
        for scen in scenarios:
            cells[(mi, scen)] = settings_to_runconfig(
                settings, method=method, scenario=scen, aug=aug
            )
    labels = [method if aug is None else f"{method}+{aug}" for method, aug in methods]
    order = sorted(cells)
    workers = min(jobs, len(order))
    threads = branch_threads(workers)
    cells = {key: replace(c, train=replace(c.train, branch_threads=threads)) for key, c in cells.items()}
    sample = cells[order[0]]
    raw = _load_dataset(sample)  # every cell shares the data source; workers inherit it
    # imported here: every other command would pay about 40 ms and 1.5 MiB at start-up
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    started = ctx.RawArray("b", len(order))  # set by the worker that takes the cell

    def one(i: int) -> str:
        started[i] = 1
        mi, scen = order[i]
        cell_dir = out_dir / f"{labels[mi]}_{scen}"
        try:
            report, files = run(cells[order[i]], raw)
            write_artifacts(cell_dir, files)
            return repr(report.overall)
        except Exception as exc:  # cell failures must not kill the matrix
            print(f"[matrix] {labels[mi]}/{scen} failed: {exc}", file=sys.stderr)
            write_artifacts(cell_dir, {"error.txt": traceback.format_exc()})
            return "error"

    with concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=ctx, initializer=_init_worker, initargs=(one,)
    ) as pool:
        futures = [pool.submit(_run_cell, i) for i in range(len(order))]
        try:
            results = dict(zip(order, (f.result() for f in futures)))
        except concurrent.futures.BrokenExecutor:  # a worker died
            lost = [f"{labels[mi]}/{scen}" for (mi, scen), f, flag in zip(order, futures, started)
                    if flag and f.exception()]
            raise RuntimeError(
                f"a matrix worker process died while running {', '.join(lost)}"
            ) from None

    dataset, _ = _preprocess(sample, raw)
    lines = ["method," + ",".join(s.upper() for s in scenarios)]
    for mi, label in enumerate(labels):
        lines.append(",".join([label] + [results[(mi, scen)] for scen in scenarios]))
    header = f"# bands={len(dataset.band_ids)} steps={dataset.n_steps}\n"
    return header + "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command-line front end


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory (default $SSLCROP_OUT or runs/)")
    p.add_argument("--data", default=None, help="input CSV (omit to use the synthetic generator)")
    p.add_argument("--bands", default=None, help="comma-separated bands to keep")
    p.add_argument("--drop-leading", dest="drop_leading", type=int, default=None)
    p.add_argument("--scenario", choices=("e1", "e2", "e3", "e4"), default=None)
    p.add_argument("--target-year", dest="target_year", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    for key in (
        "lr", "momentum", "weight_decay", "dn_scale",
        "synth_shift_steps", "synth_amplitude_scale", "synth_noise_sd",
        "synth_cloud_prob", "synth_time_jitter", "synth_amp_jitter", "synth_year_effect",
        "collapse_factor",
    ):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float, default=None)
    for key in (
        "batch_size", "epochs_supervised", "epochs_pretrain", "epochs_finetune",
        "d_model", "n_heads", "n_layers", "ff_dim", "proj_hidden", "head_out", "pred_hidden",
        "n_trees", "min_leaf", "collapse_warmup", "synth_n", "synth_divergent_year",
    ):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int, default=None)
    p.add_argument("--synth-years", dest="synth_years", default=None)
    p.add_argument("--e1-stratify", dest="e1_stratify", choices=("class", "year_class"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslcrop",
        description="Crop-type classification experiments on band time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset CSV")
    _add_common(p)
    p.add_argument("--csv", required=True, help="output CSV path")

    p = sub.add_parser("preprocess", help="band selection / truncation / cleanup")
    _add_common(p)
    p.add_argument("--csv", required=True, help="output CSV path")

    p = sub.add_parser("train", help="supervised training (tf or rf) on a scenario")
    _add_common(p)
    p.add_argument("--method", choices=("rf", "tf"), default=None)

    p = sub.add_parser("pretrain", help="siamese pre-training on a scenario's train pool")
    _add_common(p)
    p.add_argument("--aug", choices=("aug1", "aug2", "aug3"), default=None)

    p = sub.add_parser("finetune", help="fine-tune a pre-trained checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--finetune-mode", dest="finetune_mode", choices=("linear", "full"), default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a scenario's test split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--contrastive", action="store_true", help="nearest-class loss evaluation")

    p = sub.add_parser("matrix", help="methods x scenarios grid, summary CSV")
    _add_common(p)
    p.add_argument("--methods", default=None, help="e.g. rf,tf,ssl:aug1,ssl:aug3")
    p.add_argument("--scenarios", default=None, help="e.g. e1,e2,e3,e4")

    p = sub.add_parser("export-embeddings", help="2-D PCA coordinates as CSV")
    _add_common(p)
    p.add_argument("--source", choices=("raw", "encoder"), default="raw")
    p.add_argument("--checkpoint", help="needed for --source encoder")
    p.add_argument("--csv", required=True, help="output CSV path")

    p = sub.add_parser("run", help="full single-scenario pipeline (any method)")
    _add_common(p)
    p.add_argument("--method", choices=("rf", "tf", "ssl"), default=None)
    p.add_argument("--aug", choices=("aug1", "aug2", "aug3"), default=None)
    p.add_argument("--finetune-mode", dest="finetune_mode", choices=("linear", "full"), default=None)
    return parser


def _normalize_finetune_mode(settings: dict[str, object]) -> None:
    if settings.get("finetune_mode") == "linear":
        settings["finetune_mode"] = "linear_probe"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with blas.one_thread():  # every command's bytes are those of one BLAS thread
            return _dispatch(args)
    except Exception as exc:
        print(f"sslcrop: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    _normalize_finetune_mode(settings)
    out_dir = Path(str(settings["out"]))
    command = args.command

    if command == "synth":
        dataset = generate(settings_to_synthconfig(settings))
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        write_csv(dataset, args.csv)
        print(f"wrote {len(dataset)} samples to {args.csv}")
        return 0

    if command == "preprocess":
        config = settings_to_runconfig(settings, method="tf")
        dataset, removed = _preprocess(config, _load_dataset(config))
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        write_csv(dataset, args.csv)
        print(
            f"wrote {len(dataset)} samples ({dataset.n_bands} bands, {dataset.n_steps} steps), "
            f"removed {len(removed)} constant series"
        )
        return 0

    if command in ("train", "run"):
        method = str(settings["method"])
        if command == "train" and method not in ("rf", "tf"):
            raise ConfigError("train handles rf/tf; use run (or pretrain+finetune) for ssl")
        config = settings_to_runconfig(settings, method=method)
        report, files = run(config)
        write_artifacts(out_dir, files)
        print(f"{report.method} {report.scenario}: OA={report.overall:.4f} -> {out_dir}")
        return 0

    if command == "pretrain":
        aug = settings["aug"] or "aug1"
        config = settings_to_runconfig(settings, method="ssl", aug=str(aug))
        dataset, _, spec, train_set, test_set, _ = _prepare(config)
        state, trace = _pretrain(config, dataset, train_set, test_set)
        write_artifacts(out_dir, {
            "pretrained.json": M.checkpoint_text(state),
            "pretrain_trace.csv": trace.to_csv(),
        })
        warn = " (collapse warning)" if trace.collapse_warning else ""
        last = trace.collapse[-1] if trace.collapse else float("nan")
        print(f"pretrained {config.aug} {spec.kind}: collapse={last:.4f}{warn} -> {out_dir}")
        return 0

    if command == "finetune":
        config = settings_to_runconfig(settings, method="tf")
        dataset, _, spec, train_set, test_set, _ = _prepare(config)
        backbone = M.load_checkpoint(args.checkpoint)
        cfg = config.train
        tuned, trace = finetune(backbone, train_set, cfg)
        pred = M.predict_batched(tuned, test_set.time_major() / cfg.dn_scale, cfg.batch_size)
        report = E.build_report(
            spec.kind, "TF", dataset, pred, test_set.labels_array(),
            seeds={"master": config.seed}, traces={"finetune": _trace_dict(trace)},
        )
        write_artifacts(out_dir, {
            "finetuned.json": M.checkpoint_text(tuned),
            "finetune_trace.csv": trace.to_csv(),
            "report.json": report.to_json() + "\n",
        })
        print(f"finetuned {spec.kind}: OA={report.overall:.4f} -> {out_dir}")
        return 0

    if command == "eval":
        config = settings_to_runconfig(settings, method="tf")
        dataset, _, spec, train_set, test_set, _ = _prepare(config)
        state = M.load_checkpoint(args.checkpoint)
        cfg = config.train
        truth = test_set.labels_array()
        if args.contrastive:
            ref = E.embed_reference(state, train_set, cfg.dn_scale)
            pred, _ = E.contrastive_classify_batch(
                state, test_set.time_major() / cfg.dn_scale, ref
            )
            tag = "contrastive"
        else:
            pred = M.predict_batched(state, test_set.time_major() / cfg.dn_scale, cfg.batch_size)
            tag = "TF"
        report = E.build_report(
            spec.kind, tag, dataset, pred, truth, seeds={"master": config.seed}
        )
        write_artifacts(out_dir, {"report.json": report.to_json() + "\n"})
        print(f"eval {tag} {spec.kind}: OA={report.overall:.4f} -> {out_dir}")
        return 0

    if command == "matrix":
        summary = run_matrix(settings, out_dir, jobs=int(settings["jobs"]))
        write_artifacts(out_dir, {"summary.csv": summary})
        print(summary, end="")
        return 0

    if command == "export-embeddings":
        config = settings_to_runconfig(settings, method="tf")
        dataset, _ = _preprocess(config, _load_dataset(config))
        if args.source == "encoder":
            if not args.checkpoint:
                raise ConfigError("--source encoder needs --checkpoint")
            state = M.load_checkpoint(args.checkpoint)
            X = dataset.time_major() / config.train.dn_scale
            emb = M.encode_batched(state, X, config.train.batch_size)
        else:
            emb = dataset.feature_matrix()
        coords, ratios = E.pca_project(emb, k=2)
        lines = ["sample_id,class,pc1,pc2"]
        for s, (pc1, pc2) in zip(dataset.samples, coords):
            cls = str(int(s.label)) if s.label is not None else ""
            lines.append(f"{s.field_id},{cls},{float(pc1)!r},{float(pc2)!r}")
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"explained variance ratios: {ratios[0]:.4f}, {ratios[1]:.4f} -> {args.csv}")
        return 0

    raise ConfigError(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main())
