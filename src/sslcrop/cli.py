"""Experiment orchestration: configs, scenario runs, matrices, exports.

One flat key=value config file (with `#` comments) plus command-line
overrides drives everything.  `SETTINGS` defines each key once: its parser,
the config fields it sets (and so its default) and its flag.  Every stage
draws its randomness from the master seed through named streams.  Artifacts
are only written once a run has fully succeeded, so a failing run leaves
nothing half-finished behind.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from . import blas
from . import evaluation as E
from . import model as M
from .augment import KINDS as AUGS, AugmentationPolicy
from .dataio import (CANONICAL_BANDS, Dataset, Sample, ScenarioSpec, drop_constant_series, load_csv,
                     make_split, select_bands, truncate_steps, write_csv)
from .forest import ForestConfig, rf_fit, rf_predict
from .model import EncoderConfig, SimSiamConfig
from .synthgen import SynthConfig, generate
from .train import (TrainConfig, branch_threads, finetune, in_parallel, pretrain, thread_pair,
                    train_supervised)

METHODS = ("rf", "tf", "ssl")
SCENARIOS = ("e1", "e2", "e3", "e4")


class ConfigError(ValueError):
    pass


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


def _bands(text: str) -> tuple[str, ...]:
    bands = tuple(b.strip() for b in text.split(",") if b.strip())
    unknown = [b for b in bands if b not in CANONICAL_BANDS]
    if unknown:
        raise ValueError(f"unknown bands {unknown}; choose from {CANONICAL_BANDS}")
    return bands


def _one_of(*options: str, **aliases: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        value = aliases.get(text, text)
        if value not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(options + tuple(aliases))}")
        return value
    return parse


class Setting(NamedTuple):
    """One settings key: `key = value` in a config file, `--key` as a flag."""

    key: str
    parse: Callable[[str], object] | None  # text -> value; None: one of `choices`
    fields: str = ""                       # space-separated `section.field`s it sets
    flag: bool = True                      # a flag on every subcommand
    optional: bool = False                 # may be `none` (or empty)
    choices: tuple[str, ...] | None = None
    help: str | None = None
    default: object = None                 # unless its first field has a default


# One row per key.  The rows with a flag on every subcommand are in `--help` order.
SETTINGS: tuple[Setting, ...] = (
    Setting("seed", int, "run.seed train.seed forest.seed synth.seed"),
    Setting("out", str, optional=True, help="output directory (default $SSLCROP_OUT or runs/)"),
    Setting("data", str, "run.data", optional=True,
            help="input CSV (omit to use the synthetic generator)"),
    Setting("bands", _bands, "run.bands", optional=True, help="comma-separated bands to keep"),
    Setting("drop_leading", int, "run.drop_leading"),
    Setting("scenario", None, "run.scenario", choices=SCENARIOS, default="e1"),
    Setting("target_year", int, "run.target_year", optional=True),
    Setting("jobs", int, default=1),
    Setting("method", None, "run.method", flag=False, choices=METHODS, default="tf"),
    Setting("aug", None, "run.aug", flag=False, optional=True, choices=AUGS),
    Setting("aug2_unlabeled_target", _bool, "run.aug2_unlabeled_target", flag=False),
    Setting("spike_both", _bool, "run.spike_both", flag=False),
    Setting("contrastive_table", _bool, "run.contrastive_table", flag=False),
    Setting("methods", str, flag=False, help="e.g. rf,tf,ssl:aug1,ssl:aug3", default="rf,tf"),
    Setting("scenarios", str, flag=False, help="e.g. e1,e2,e3,e4", default="e1,e2,e3,e4"),
    Setting("lr", float, "train.lr"),
    Setting("momentum", float, "train.momentum"),
    Setting("weight_decay", float, "train.weight_decay"),
    Setting("dn_scale", float, "train.dn_scale"),
    Setting("synth_shift_steps", float, "synth.shift_steps"),
    Setting("synth_amplitude_scale", float, "synth.amplitude_scale"),
    Setting("synth_noise_sd", float, "synth.noise_sd"),
    Setting("synth_cloud_prob", float, "synth.cloud_prob"),
    Setting("synth_cloud_dn", float, "synth.cloud_dn", flag=False),
    Setting("synth_time_jitter", float, "synth.time_jitter_sd"),
    Setting("synth_amp_jitter", float, "synth.amp_jitter_sd"),
    Setting("synth_year_effect", float, "synth.year_effect_sd"),
    Setting("collapse_factor", float, "train.collapse_threshold_factor"),
    Setting("batch_size", int, "train.batch_size"),
    Setting("epochs_supervised", int, "train.epochs_supervised"),
    Setting("epochs_pretrain", int, "train.epochs_pretrain"),
    Setting("epochs_finetune", int, "train.epochs_finetune"),
    Setting("finetune_mode", _one_of("full", "linear_probe", linear="linear_probe"),
            "train.finetune_mode", flag=False, choices=("linear", "full")),
    Setting("d_model", int, "encoder.d_model"),
    Setting("n_heads", int, "encoder.n_heads"),
    Setting("n_layers", int, "encoder.n_layers"),
    Setting("ff_dim", int, "encoder.ff_dim"),
    Setting("proj_hidden", int, "simsiam.proj_hidden"),
    Setting("head_out", int, "simsiam.head_out"),
    Setting("pred_hidden", int, "simsiam.pred_hidden"),
    Setting("n_trees", int, "forest.n_trees"),
    Setting("min_leaf", int, "forest.min_leaf"),
    Setting("max_depth", int, "forest.max_depth", flag=False, optional=True),
    Setting("max_features", int, "forest.max_features", flag=False, optional=True),
    Setting("collapse_warmup", int, "train.collapse_warmup_epochs"),
    Setting("synth_n", int, "synth.n_per_class_per_year"),
    Setting("synth_divergent_year", int, "synth.divergent_year", optional=True),
    Setting("synth_years", lambda text: tuple(map(int, text.split(","))), "synth.years"),
    Setting("e1_stratify", None, "run.e1_stratify", choices=("class", "year_class")),
)
_ROWS = {row.key: row for row in SETTINGS}


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
    encoder_overrides: tuple[tuple[str, int], ...] = ()  # the data gives the rest of EncoderConfig
    simsiam: SimSiamConfig = SimSiamConfig()
    forest: ForestConfig = ForestConfig()
    seed: int = 0

    def __post_init__(self):
        if (self.data is None) == (self.synth is None):
            raise ConfigError("exactly one of data/synth must be given")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.method == "ssl" and self.aug not in AUGS:
            raise ConfigError(f"method=ssl needs an augmentation (aug1|aug2|aug3), got {self.aug!r}")
        if self.method != "ssl" and self.aug is not None:
            raise ConfigError("aug is only meaningful with method=ssl")
        if self.scenario.lower() not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")


_SECTIONS = {"run": RunConfig, "train": TrainConfig, "forest": ForestConfig,
             "synth": SynthConfig, "encoder": EncoderConfig, "simsiam": SimSiamConfig}


def _default(row: Setting) -> object:
    if not row.fields:
        return row.default
    section, name = row.fields.split()[0].split(".")
    return getattr(_SECTIONS[section], name, row.default)  # a field default is a class attribute


DEFAULTS: dict[str, object] = {row.key: _default(row) for row in SETTINGS}


def _parse(row: Setting, text: str, where: str) -> object:
    """`text` as `row`'s value; `where` names its source in the error."""
    if text == "" or text.lower() == "none":
        if row.optional:
            return None
        raise ConfigError(f"{where}: needs a value, got {text!r}")
    try:
        return (row.parse or _one_of(*row.choices))(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _config_entries(path: str | Path):
    """(key, text, where) for each `key = value` line; blank lines and # comments are skipped."""
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ROWS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        yield key, value, f"{path}:{lineno}: {key}"


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines, values as text; blank lines and # comments are skipped."""
    return {key: text for key, text, _ in _config_entries(path)}


def resolve_settings(args: argparse.Namespace) -> dict[str, object]:
    """defaults < config file < explicit command-line flags, each value parsed by its row."""
    settings = dict(DEFAULTS)
    given = list(_config_entries(args.config)) if getattr(args, "config", None) else []
    given += [(row.key, getattr(args, row.key), "--" + row.key.replace("_", "-"))
              for row in SETTINGS if getattr(args, row.key, None) is not None]
    for key, text, where in given:
        settings[key] = _parse(_ROWS[key], text, where)
    if settings["out"] is None:
        settings["out"] = os.environ.get("SSLCROP_OUT", "runs")
    return settings


def _sections(s: dict[str, object]) -> dict[str, dict[str, object]]:
    """Each config section's keyword arguments from settings `s` (values or their text)."""
    kwargs: dict[str, dict[str, object]] = {section: {} for section in _SECTIONS}
    for row in SETTINGS:
        value = s[row.key]
        if row.fields and isinstance(value, str):
            value = _parse(row, value, row.key)
        for target in row.fields.split():
            section, name = target.split(".")
            kwargs[section][name] = value
    return kwargs


def settings_to_runconfig(s: dict[str, object], method: str | None = None,
                          scenario: str | None = None, aug: str | None = None) -> RunConfig:
    kwargs = _sections(s)
    run_kwargs = kwargs["run"]
    run_kwargs["method"] = method = method or run_kwargs["method"]
    run_kwargs["scenario"] = scenario or run_kwargs["scenario"]
    run_kwargs["aug"] = aug if aug is not None else (run_kwargs["aug"] if method == "ssl" else None)
    return RunConfig(synth=None if run_kwargs["data"] else SynthConfig(**kwargs["synth"]),
                     train=TrainConfig(**kwargs["train"]), forest=ForestConfig(**kwargs["forest"]),
                     encoder_overrides=tuple(kwargs["encoder"].items()),
                     simsiam=SimSiamConfig(**kwargs["simsiam"]), **run_kwargs)


def settings_to_synthconfig(s: dict[str, object]) -> SynthConfig:
    return SynthConfig(**_sections(s)["synth"])


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
    return pretrain(pool, policy, config.train, _encoder_config(config, dataset), config.simsiam)


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
            train_set, cfg, _encoder_config(config, dataset), config.simsiam
        )
        pred = M.predict_batched(state, test_set.time_major() / cfg.dn_scale, cfg.batch_size)
        traces["train"] = _trace_dict(trace)
        files["train_trace.csv"] = trace.to_csv()
        files["model.json"] = M.checkpoint_text(state)
        method_tag = "TF"
    else:
        backbone, pre_trace = _pretrain(config, dataset, train_set, test_set)
        x_test = test_set.time_major() / cfg.dn_scale

        def tune():
            tuned, ft_trace = finetune(backbone, train_set, cfg)
            return tuned, ft_trace, M.predict_batched(tuned, x_test, cfg.batch_size)

        def contrast():  # reads the backbone only, as fine-tuning does
            ref = E.embed_reference(backbone, train_set, cfg.dn_scale)
            return E.contrastive_classify_batch(backbone, x_test, ref)[0]

        if config.contrastive_table:  # beside fine-tuning, under the views' thread rule
            with thread_pair(cfg.branch_threads or branch_threads(), "sslcrop-eval") as pool:
                (tuned, ft_trace, pred), cpred = in_parallel(pool, tune, contrast)
        else:
            tuned, ft_trace, pred = tune()
        traces["pretrain"] = _trace_dict(pre_trace)
        traces["finetune"] = _trace_dict(ft_trace)
        files["pretrain_trace.csv"] = pre_trace.to_csv()
        files["finetune_trace.csv"] = ft_trace.to_csv()
        files["pretrained.json"] = M.checkpoint_text(backbone)
        files["finetuned.json"] = M.checkpoint_text(tuned)
        if config.contrastive_table:
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
# command-line front end: one handler per subcommand, (args, settings, output directory)


def _csv_path(args: argparse.Namespace) -> Path:
    path = Path(args.csv)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_synth(args, settings, out_dir) -> None:
    dataset = generate(settings_to_synthconfig(settings))
    write_csv(dataset, _csv_path(args))
    print(f"wrote {len(dataset)} samples to {args.csv}")


def _cmd_preprocess(args, settings, out_dir) -> None:
    config = settings_to_runconfig(settings, method="tf")
    dataset, removed = _preprocess(config, _load_dataset(config))
    write_csv(dataset, _csv_path(args))
    print(f"wrote {len(dataset)} samples ({dataset.n_bands} bands, {dataset.n_steps} steps), "
          f"removed {len(removed)} constant series")


def _cmd_run(args, settings, out_dir) -> None:
    """`run`, and `train`: the same limited to rf/tf."""
    if args.command == "train" and settings["method"] == "ssl":
        raise ConfigError("train handles rf/tf; use run (or pretrain+finetune) for ssl")
    report, files = run(settings_to_runconfig(settings))
    write_artifacts(out_dir, files)
    print(f"{report.method} {report.scenario}: OA={report.overall:.4f} -> {out_dir}")


def _cmd_pretrain(args, settings, out_dir) -> None:
    config = settings_to_runconfig(settings, method="ssl", aug=settings["aug"] or "aug1")
    dataset, _, spec, train_set, test_set, _ = _prepare(config)
    state, trace = _pretrain(config, dataset, train_set, test_set)
    write_artifacts(out_dir, {"pretrained.json": M.checkpoint_text(state),
                              "pretrain_trace.csv": trace.to_csv()})
    warn = " (collapse warning)" if trace.collapse_warning else ""
    last = trace.collapse[-1] if trace.collapse else float("nan")
    print(f"pretrained {config.aug} {spec.kind}: collapse={last:.4f}{warn} -> {out_dir}")


def _cmd_evaluate(args, settings, out_dir) -> None:
    """`finetune` (fine-tune the checkpoint first) and `eval`: predict the test split."""
    config = settings_to_runconfig(settings, method="tf")
    dataset, _, spec, train_set, test_set, _ = _prepare(config)
    state = M.load_checkpoint(args.checkpoint)
    cfg = config.train
    x_test = test_set.time_major() / cfg.dn_scale
    files, traces, tag = {}, {}, "TF"
    if args.command == "finetune":
        state, trace = finetune(state, train_set, cfg)
        traces["finetune"] = _trace_dict(trace)
        files = {"finetuned.json": M.checkpoint_text(state), "finetune_trace.csv": trace.to_csv()}
    if getattr(args, "contrastive", False):
        ref = E.embed_reference(state, train_set, cfg.dn_scale)
        pred, tag = E.contrastive_classify_batch(state, x_test, ref)[0], "contrastive"
    else:
        pred = M.predict_batched(state, x_test, cfg.batch_size)
    report = E.build_report(spec.kind, tag, dataset, pred, test_set.labels_array(),
                            seeds={"master": config.seed}, traces=traces)
    files["report.json"] = report.to_json() + "\n"
    write_artifacts(out_dir, files)
    done = "finetuned" if args.command == "finetune" else f"eval {tag}"
    print(f"{done} {spec.kind}: OA={report.overall:.4f} -> {out_dir}")


def _cmd_matrix(args, settings, out_dir) -> None:
    summary = run_matrix(settings, out_dir, jobs=settings["jobs"])
    write_artifacts(out_dir, {"summary.csv": summary})
    print(summary, end="")


def _cmd_export_embeddings(args, settings, out_dir) -> None:
    config = settings_to_runconfig(settings, method="tf")
    dataset, _ = _preprocess(config, _load_dataset(config))
    if args.source == "encoder":
        if not args.checkpoint:
            raise ConfigError("--source encoder needs --checkpoint")
        X = dataset.time_major() / config.train.dn_scale
        emb = M.encode_batched(M.load_checkpoint(args.checkpoint), X, config.train.batch_size)
    else:
        emb = dataset.feature_matrix()
    coords, ratios = E.pca_project(emb, k=2)
    lines = ["sample_id,class,pc1,pc2"]
    for s, (pc1, pc2) in zip(dataset.samples, coords):
        cls = str(int(s.label)) if s.label is not None else ""
        lines.append(f"{s.field_id},{cls},{float(pc1)!r},{float(pc2)!r}")
    _csv_path(args).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"explained variance ratios: {ratios[0]:.4f}, {ratios[1]:.4f} -> {args.csv}")


class Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace, dict, Path], None]
    flags: dict[str, dict]  # after the common ones: a settings key or a flag of its own


_CSV = {"csv": {"required": True, "help": "output CSV path"}}
COMMANDS = {
    "synth": Command("write a synthetic dataset CSV", _cmd_synth, _CSV),
    "preprocess": Command("band selection / truncation / cleanup", _cmd_preprocess, _CSV),
    "train": Command("supervised training (tf or rf) on a scenario", _cmd_run,
                     {"method": {"choices": ("rf", "tf")}}),
    "pretrain": Command("siamese pre-training on a scenario's train pool", _cmd_pretrain, {"aug": {}}),
    "finetune": Command("fine-tune a pre-trained checkpoint", _cmd_evaluate,
                        {"checkpoint": {"required": True}, "finetune_mode": {}}),
    "eval": Command("evaluate a checkpoint on a scenario's test split", _cmd_evaluate, {
        "checkpoint": {"required": True},
        "contrastive": {"action": "store_true", "help": "nearest-class loss evaluation"}}),
    "matrix": Command("methods x scenarios grid, summary CSV", _cmd_matrix,
                      {"methods": {}, "scenarios": {}}),
    "export-embeddings": Command("2-D PCA coordinates as CSV", _cmd_export_embeddings, {
        "source": {"choices": ("raw", "encoder"), "default": "raw"},
        "checkpoint": {"help": "needed for --source encoder"}, **_CSV}),
    "run": Command("full single-scenario pipeline (any method)", _cmd_run,
                   {"method": {}, "aug": {}, "finetune_mode": {}}),
}


def _add_flag(parser: argparse.ArgumentParser, name: str, **kwargs) -> None:
    """`--name`; a settings key's flag takes its choices and help from its row."""
    if name in _ROWS:
        kwargs = {"choices": _ROWS[name].choices, "help": _ROWS[name].help, **kwargs}
    parser.add_argument("--" + name.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslcrop", description="Crop-type classification experiments on band time series")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        _add_flag(p, "config", help="key = value settings file")
        for row in SETTINGS:
            if row.flag:
                _add_flag(p, row.key)
        for flag, kwargs in command.flags.items():
            _add_flag(p, flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with blas.one_thread():  # every command's bytes are those of one BLAS thread
            settings = resolve_settings(args)
            COMMANDS[args.command].handler(args, settings, Path(settings["out"]))
        return 0
    except Exception as exc:
        print(f"sslcrop: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
