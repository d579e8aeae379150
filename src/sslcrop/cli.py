"""Experiment orchestration: configs, scenario runs, matrices, exports.

One flat key=value config file (with `#` comments) plus command-line
overrides drives everything.  `SETTINGS` defines each key once: its parser,
the config fields it sets (and so its default) and its flag.  Every stage
draws its randomness from the master seed through named streams.  One
function, `_preprocess`, loads and preprocesses the data; a scenario run only
splits what it returns, and a matrix prepares it once for all of its cells.
Artifacts are only written once a run has fully succeeded, so a failing run
leaves nothing half-finished behind.
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
from .augment import KINDS as AUGS
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


def _one_of(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(options)}")
        return text
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
    Setting("methods", str, flag=False, help="e.g. rf,tf,ssl:aug1,ssl:aug3", default="rf,tf"),
    Setting("scenarios", str, flag=False, help="e.g. e1,e2,e3,e4", default="e1,e2,e3,e4"),
    Setting("lr", float, "train.lr"),
    Setting("momentum", float, "train.momentum"),
    Setting("weight_decay", float, "train.weight_decay"),
    Setting("synth_shift_steps", float, "synth.shift_steps"),
    Setting("synth_amplitude_scale", float, "synth.amplitude_scale"),
    Setting("synth_noise_sd", float, "synth.noise_sd"),
    Setting("synth_cloud_prob", float, "synth.cloud_prob"),
    Setting("synth_cloud_dn", float, "synth.cloud_dn", flag=False),
    Setting("synth_time_jitter", float, "synth.time_jitter_sd"),
    Setting("synth_amp_jitter", float, "synth.amp_jitter_sd"),
    Setting("synth_year_effect", float, "synth.year_effect_sd"),
    Setting("batch_size", int, "train.batch_size"),
    Setting("epochs_supervised", int, "train.epochs_supervised"),
    Setting("epochs_pretrain", int, "train.epochs_pretrain"),
    Setting("epochs_finetune", int, "train.epochs_finetune"),
    Setting("finetune_mode", None, "train.finetune_mode", flag=False, choices=("full", "linear")),
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
            raise ConfigError(f"aug: method ssl needs an augmentation (aug1|aug2|aug3), got {self.aug!r}")
        if self.method != "ssl" and self.aug is not None:
            raise ConfigError("aug is only meaningful with method=ssl")
        object.__setattr__(self, "scenario", self.scenario.lower())  # as ScenarioSpec does: E2 is e2
        if self.scenario not in SCENARIOS:
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
    """Each config section's keyword arguments from the parsed settings `s`."""
    kwargs: dict[str, dict[str, object]] = {section: {} for section in _SECTIONS}
    for row in SETTINGS:
        for target in row.fields.split():
            section, name = target.split(".")
            kwargs[section][name] = s[row.key]
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


def _preprocess(config: RunConfig) -> tuple[Dataset, tuple[str, ...]]:
    """Load the configured data and preprocess it: (dataset, the removed constant series)."""
    raw = load_csv(config.data) if config.data is not None else generate(config.synth)
    dataset, removed = drop_constant_series(raw)
    if config.bands:
        dataset = select_bands(dataset, config.bands)
    if config.drop_leading:
        dataset = truncate_steps(dataset, config.drop_leading)
    return dataset, removed


def _split(config: RunConfig, dataset: Dataset, removed: tuple[str, ...]) -> tuple:
    """Split the preprocessed `dataset` for the scenario: (dataset, the report's
    extras, spec, train, test).  The extras name the `removed` series and, if any,
    the target-year samples moved into train."""
    target = config.target_year
    if target is None and config.scenario != "e1":
        if config.synth is not None and config.synth.divergent_year is not None:
            target = config.synth.divergent_year
            if target not in dataset.years():
                raise ConfigError(f"scenario {config.scenario}: the target year defaults to "
                                  f"synth_divergent_year ({target}), not among the data's years "
                                  f"{list(dataset.years())}; set --target-year")
        else:
            target = max(dataset.years())
    spec = ScenarioSpec(config.scenario, target, seed=config.seed, e1_stratify=config.e1_stratify)
    train_set, test_set, moved_ids = make_split(dataset, spec)
    extras: dict = {"removed_constant_series": list(removed)}
    if moved_ids:
        extras["target_train_ids"] = list(moved_ids)
    return dataset, extras, spec, train_set, test_set


def _encoder_config(config: RunConfig, dataset: Dataset) -> EncoderConfig:
    return EncoderConfig(
        n_bands=dataset.n_bands, n_steps=dataset.n_steps, **dict(config.encoder_overrides)
    )


def _check_checkpoint(path, state, dataset: Dataset) -> None:
    """Fail unless the checkpoint's encoder takes the prepared data's series."""
    enc = state.encoder
    if (enc.n_bands, enc.n_steps) != (dataset.n_bands, dataset.n_steps):
        raise ConfigError(f"{path}: the encoder takes {enc.n_bands} bands x {enc.n_steps} steps, but the "
                          f"prepared data has {dataset.n_bands} bands x {dataset.n_steps} steps; "
                          "check --bands and --drop-leading")


def _record(files: dict, traces: dict, phase: str, checkpoint_name: str, state, trace) -> None:
    """A training phase's artifacts: its checkpoint, `<phase>_trace.csv` and its report trace."""
    files[checkpoint_name] = M.checkpoint_text(state)
    files[f"{phase}_trace.csv"] = trace.to_csv()
    traces[phase] = {"losses": trace.losses}
    if trace.collapse is not None:
        traces[phase].update(collapse=trace.collapse, collapse_warning=trace.collapse_warning)


def _pretrain(config: RunConfig, dataset: Dataset, train_set: Dataset, test_set: Dataset):
    """Pre-train on the training split, plus the unlabeled test series for aug2 on e2 if asked."""
    pool = train_set
    if config.aug == "aug2" and config.aug2_unlabeled_target and config.scenario == "e2":
        stripped = tuple(Sample(s.field_id, s.year, None, s.reflectance) for s in test_set.samples)
        pool = replace(train_set, samples=train_set.samples + stripped)
    return pretrain(pool, config.aug, config.train, _encoder_config(config, dataset), config.simsiam)


def _nearest_class(state, reference: Dataset, x_test):
    """Contrastive predictions: each test series takes the class nearest under the loss."""
    return E.contrastive_classify_batch(state, x_test, E.embed_reference(state, reference))[0]


@blas.one_thread()
def run(config: RunConfig, prepared: tuple | None = None) -> tuple[dict, dict[str, str]]:
    """Execute one scenario on the `_preprocess`ed data `prepared` (prepared here if
    None); returns (report, artifact texts).

    Runs with OpenBLAS on one thread, like a matrix cell, so its bytes do not depend
    on the machine's core count and equal those of the same matrix cell."""
    dataset, extras, spec, train_set, test_set = _split(config, *(prepared or _preprocess(config)))
    truth = test_set.labels_array()
    files, traces = {}, {}
    cfg = config.train

    if config.method == "rf":
        pred, tag = rf_predict(rf_fit(train_set, config.forest), test_set), "RF"
    elif config.method == "tf":
        state, trace = train_supervised(train_set, cfg, _encoder_config(config, dataset), config.simsiam)
        x_test = M.encoder_batch(s.reflectance for s in test_set.samples)
        pred, tag = M.predict_classes(state, x_test), "TF"
        _record(files, traces, "train", "model.json", state, trace)
    else:
        backbone, pre_trace = _pretrain(config, dataset, train_set, test_set)
        x_test = M.encoder_batch(s.reflectance for s in test_set.samples)

        def tune():
            tuned, ft_trace = finetune(backbone, train_set, cfg)
            return tuned, ft_trace, M.predict_classes(tuned, x_test)

        def contrast():  # reads the backbone only, as fine-tuning does
            return _nearest_class(backbone, train_set, x_test)

        # the table runs beside fine-tuning, under the views' thread rule; one thread runs both serially
        with thread_pair(cfg.branch_threads or branch_threads(), "sslcrop-eval") as pool:
            (tuned, ft_trace, pred), cpred = in_parallel(pool, tune, contrast)
        _record(files, traces, "pretrain", "pretrained.json", backbone, pre_trace)
        _record(files, traces, "finetune", "finetuned.json", tuned, ft_trace)
        extras["contrastive"] = E.scores(cpred, truth)
        tag = f"SSL+Aug{config.aug[-1]}"

    report = E.build_report(spec.kind, tag, dataset, pred, truth, seeds={"master": config.seed},
                            traces=traces, extras=extras)
    files["report.json"] = E.report_text(report)
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


def _method_tokens(text: str) -> list[tuple[str, str, str | None]]:
    """(label, method, aug) of each `method` or `ssl:<aug>` token."""
    out = []
    for token in (t.strip() for t in str(text).split(",")):
        if token.startswith("ssl:"):
            out.append((token.replace(":", "+", 1), "ssl", token.split(":", 1)[1]))
        elif token:
            out.append((token, token, None))
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
    """Run every (method, scenario) cell on data loaded and preprocessed once; each
    cell splits it for its scenario.  Failed cells (a scenario that cannot be split
    too) become `error` and leave their traceback in `<label>_<scenario>/error.txt`.

    Cells run in up to `jobs` forked worker processes with one BLAS thread each,
    so a cell's bytes depend neither on `jobs` nor on the caller's BLAS threads.
    Pre-training in a cell runs its two views on `branch_threads(workers)` threads.
    A worker that dies raises `RuntimeError` naming the cells it was running."""
    methods = _method_tokens(str(settings["methods"]))
    scenarios = [s.strip().lower() for s in str(settings["scenarios"]).split(",") if s.strip()]
    for key, items in (("methods", [label for label, _, _ in methods]), ("scenarios", scenarios)):
        if not items:
            raise ConfigError(f"matrix needs at least one entry in {key}, got {settings[key]!r}")
        if len(set(items)) < len(items):  # scenarios compare in lower case: e1 and E1 are one
            raise ConfigError(f"matrix {key} must not repeat an entry, got {settings[key]!r}")
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    cells = [(label, scen, settings_to_runconfig(settings, method=method, scenario=scen, aug=aug))
             for label, method, aug in methods for scen in scenarios]  # row by row
    workers = min(jobs, len(cells))
    threads = branch_threads(workers)
    prepared = _preprocess(cells[0][2])  # for every cell, so bad input fails before any cell runs
    header = f"# bands={len(prepared[0].band_ids)} steps={prepared[0].n_steps}\n"
    # imported here: every other command would pay about 40 ms and 1.5 MiB at start-up
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    started = ctx.RawArray("b", len(cells))  # set by the worker that takes the cell

    def one(i: int) -> str:
        started[i] = 1
        label, scen, config = cells[i]
        cell_dir = out_dir / f"{label}_{scen}"
        try:
            report, files = run(replace(config, train=replace(config.train, branch_threads=threads)),
                                prepared)
            write_artifacts(cell_dir, files)
            return repr(report["overall_accuracy"])
        except Exception as exc:  # cell failures must not kill the matrix
            print(f"[matrix] {label}/{scen} failed: {exc}", file=sys.stderr)
            write_artifacts(cell_dir, {"error.txt": traceback.format_exc()})
            return "error"

    with concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=ctx, initializer=_init_worker, initargs=(one,)
    ) as pool:
        futures = [pool.submit(_run_cell, i) for i in range(len(cells))]
        try:
            results = [f.result() for f in futures]
        except concurrent.futures.BrokenExecutor:  # a worker died
            lost = [f"{label}/{scen}" for (label, scen, _), f, flag in zip(cells, futures, started)
                    if flag and f.exception()]
            raise RuntimeError(f"a matrix worker process died while running {', '.join(lost)}") from None

    lines = ["method," + ",".join(s.upper() for s in scenarios)]
    for row in range(0, len(cells), len(scenarios)):
        lines.append(",".join([cells[row][0]] + results[row : row + len(scenarios)]))
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
    dataset, removed = _preprocess(config)
    write_csv(dataset, _csv_path(args))
    print(f"wrote {len(dataset)} samples ({dataset.n_bands} bands, {dataset.n_steps} steps), "
          f"removed {len(removed)} constant series")


def _cmd_run(args, settings, out_dir) -> None:
    report, files = run(settings_to_runconfig(settings))
    write_artifacts(out_dir, files)
    print(f"{report['method']} {report['scenario']}: OA={report['overall_accuracy']:.4f} -> {out_dir}")


def _cmd_pretrain(args, settings, out_dir) -> None:
    config = settings_to_runconfig(settings, method="ssl")
    dataset, _, spec, train_set, test_set = _split(config, *_preprocess(config))
    state, trace = _pretrain(config, dataset, train_set, test_set)
    files: dict[str, str] = {}
    _record(files, {}, "pretrain", "pretrained.json", state, trace)
    write_artifacts(out_dir, files)
    warn = " (collapse warning)" if trace.collapse_warning else ""
    last = trace.collapse[-1] if trace.collapse else float("nan")
    print(f"pretrained {config.aug} {spec.kind}: collapse={last:.4f}{warn} -> {out_dir}")


def _cmd_evaluate(args, settings, out_dir) -> None:
    """`finetune` (fine-tune the checkpoint first) and `eval`: predict the test split."""
    config = settings_to_runconfig(settings, method="tf")
    state = M.load_checkpoint(args.checkpoint)
    contrastive = getattr(args, "contrastive", False)
    if args.command == "eval" and not contrastive and state.n_classes is None:
        raise ConfigError(f"{args.checkpoint}: the model has no classification head; "
                          "run finetune on it first, or pass --contrastive")
    dataset, removed = _preprocess(config)
    _check_checkpoint(args.checkpoint, state, dataset)
    dataset, extras, spec, train_set, test_set = _split(config, dataset, removed)
    cfg = config.train
    x_test = M.encoder_batch(s.reflectance for s in test_set.samples)
    files, traces, tag = {}, {}, "TF"
    if args.command == "finetune":
        state, trace = finetune(state, train_set, cfg)
        _record(files, traces, "finetune", "finetuned.json", state, trace)
    if contrastive:
        pred, tag = _nearest_class(state, train_set, x_test), "contrastive"
    else:
        pred = M.predict_classes(state, x_test)
    report = E.build_report(spec.kind, tag, dataset, pred, test_set.labels_array(),
                            seeds={"master": config.seed}, traces=traces, extras=extras)
    files["report.json"] = E.report_text(report)
    write_artifacts(out_dir, files)
    done = "finetuned" if args.command == "finetune" else f"eval {tag}"
    print(f"{done} {spec.kind}: OA={report['overall_accuracy']:.4f} -> {out_dir}")


def _cmd_matrix(args, settings, out_dir) -> None:
    summary = run_matrix(settings, out_dir, jobs=settings["jobs"])
    write_artifacts(out_dir, {"summary.csv": summary})
    print(summary, end="")


def _cmd_export_embeddings(args, settings, out_dir) -> None:
    config = settings_to_runconfig(settings, method="tf")
    dataset, _ = _preprocess(config)
    if args.checkpoint is not None:  # the encoder's embeddings; without a checkpoint, the raw series
        state = M.load_checkpoint(args.checkpoint)
        _check_checkpoint(args.checkpoint, state, dataset)
        X = M.encoder_batch(s.reflectance for s in dataset.samples)
        emb = M.encode_batched(state, X)
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
    "pretrain": Command("siamese pre-training on a scenario's train pool", _cmd_pretrain, {"aug": {}}),
    "finetune": Command("fine-tune a pre-trained checkpoint", _cmd_evaluate,
                        {"checkpoint": {"required": True}, "finetune_mode": {}}),
    "eval": Command("evaluate a checkpoint on a scenario's test split", _cmd_evaluate, {
        "checkpoint": {"required": True},
        "contrastive": {"action": "store_true", "help": "nearest-class loss evaluation"}}),
    "matrix": Command("methods x scenarios grid, summary CSV", _cmd_matrix,
                      {"methods": {}, "scenarios": {}}),
    "export-embeddings": Command("2-D PCA coordinates as CSV", _cmd_export_embeddings, {
        "checkpoint": {"help": "embed with this encoder (default: the raw series)"}, **_CSV}),
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
