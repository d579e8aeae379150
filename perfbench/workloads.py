"""The benchmark's workloads: generated inputs, the timed user-level call, output checks.

Every input comes from the workload seed: the settings dict (and so the
`RunConfig` and `SynthConfig`), and for the matrix the CSV written during
set-up.  The timed call is what `sslcrop run` / `sslcrop matrix` do after
argument parsing: `cli.run` + `cli.write_artifacts`, or `cli.run_matrix` +
writing `summary.csv`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

# The acceptance tests' desk-scale encoder and training settings.
DESK = dict(d_model=32, n_heads=4, n_layers=2, ff_dim=128, pred_hidden=14,
            batch_size=64, lr=0.005)

# Shrunk settings for the harness self-test; same code paths, seconds not minutes.
TINY = dict(synth_n=4, d_model=8, n_heads=2, n_layers=1, ff_dim=16, pred_hidden=4,
            batch_size=16, epochs_pretrain=2, epochs_finetune=1, n_trees=2)

SCENARIOS = ("e1", "e2", "e3", "e4")
SSL_ARTIFACTS = ("report.json", "pretrain_trace.csv", "finetune_trace.csv",
                 "pretrained.json", "finetuned.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "ssl" or "matrix"
    overrides: dict = field(default_factory=dict)
    jobs: int = 1
    layers: tuple[str, ...] = ()  # per-layer spans the workload must produce
    # Scale timings to a quiet host by child.reference_samples (see README.md):
    # right for a workload that slows with the host as that kernel does.
    speed_adjusted: bool = False

    def settings(self, seed: int, tiny: bool = False) -> dict:
        from sslcrop import cli

        s = dict(cli.DEFAULTS)
        s.update(self.overrides)
        if tiny:
            s.update(TINY)
        s["seed"] = seed
        return s


_SSL_LAYERS = ("cli.run", "cli.write_artifacts", "synthgen.generate", "dataio.make_split",
               "train.pretrain", "train.finetune", "augment.pair", "model.forward",
               "model.collapse_metric", "model.predict", "model.checkpoint",
               "tensor.gradients", "tensor.sgd_step", "evaluation.contrastive")

_MATRIX = dict(methods="rf", scenarios=",".join(SCENARIOS), target_year=2018, n_trees=16)
_MATRIX_LAYERS = ("cli.run_matrix", "cli.run", "cli.write_artifacts", "synthgen.generate",
                  "dataio.load_csv", "dataio.make_split", "forest.fit", "forest.predict")

WORKLOADS = {w.name: w for w in (
    Workload(
        "ssl-aug1-desk", "ssl",
        dict(DESK, method="ssl", aug="aug1", scenario="e3", target_year=2018,
             epochs_pretrain=10, epochs_finetune=5),
        layers=_SSL_LAYERS,
        speed_adjusted=True,
    ),
    Workload(
        "ssl-aug2-paper", "ssl",
        dict(method="ssl", aug="aug2", scenario="e2", aug2_unlabeled_target=True,
             epochs_pretrain=4, epochs_finetune=1),
        layers=_SSL_LAYERS,
    ),
    Workload("matrix-rf-jobs2", "matrix", _MATRIX, jobs=2, layers=_MATRIX_LAYERS),
    # Reference only (not in BENCHMARK.json): the same matrix on one worker.
    Workload("matrix-rf-jobs1", "matrix", _MATRIX, jobs=1, layers=_MATRIX_LAYERS),
)}


@dataclass
class Inputs:
    workload: Workload
    settings: dict
    expected_test_size: dict[str, int]   # scenario -> number of test samples
    config: object = None                # RunConfig (ssl)


def setup(workload: Workload, seed: int, work: Path, tiny: bool = False) -> Inputs:
    """Generate the inputs and the expected test-set sizes the checks use."""
    from sslcrop import cli, dataio, synthgen

    s = workload.settings(seed, tiny)
    dataset = synthgen.generate(cli.settings_to_synthconfig(s))
    if workload.kind == "matrix":
        work.mkdir(parents=True, exist_ok=True)
        csv_path = work / "input.csv"
        dataio.write_csv(dataset, csv_path)
        s["data"] = str(csv_path)
    dataset, _ = dataio.drop_constant_series(dataset)
    scenarios = SCENARIOS if workload.kind == "matrix" else (s["scenario"],)
    expected = {}
    for scen in scenarios:
        target = s["target_year"] if s["target_year"] is not None else s["synth_divergent_year"]
        spec = dataio.ScenarioSpec(kind=scen, target_year=None if scen == "e1" else target,
                                   seed=seed, e1_stratify=str(s["e1_stratify"]))
        expected[scen] = len(dataio.make_split(dataset, spec)[1])
    config = cli.settings_to_runconfig(s) if workload.kind == "ssl" else None
    return Inputs(workload, s, expected, config)


def call(inputs: Inputs, out: Path):
    """The timed user-level call; returns what the checks need."""
    from sslcrop import cli

    if inputs.workload.kind == "ssl":
        report, files = cli.run(inputs.config)
        cli.write_artifacts(out, files)
        return files
    summary = cli.run_matrix(inputs.settings, out, jobs=inputs.workload.jobs)
    cli.write_artifacts(out, {"summary.csv": summary})
    return summary


@dataclass
class Checked:
    """Output checks of one call.  `failed` names each failed check."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    cells: int = 0
    cells_failed: int = 0
    oa: float = float("nan")
    fingerprint: dict[str, str] = field(default_factory=dict)  # artifact -> sha256

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def _check_report(c: Checked, text: str, expected_n: int, where: str) -> float:
    doc = json.loads(text)
    conf = doc["confusion_matrix"]
    total = sum(map(sum, conf))
    c.expect(total == expected_n, f"{where}: confusion sums to {total}, test size {expected_n}")
    diag = sum(conf[i][i] for i in range(len(conf)))
    oa = doc["overall_accuracy"]
    c.expect(total > 0 and abs(oa - diag / total) < 1e-12,
             f"{where}: overall accuracy {oa} != trace/total")
    contrastive = doc.get("extras", {}).get("contrastive")
    if contrastive is not None:
        ctotal = sum(map(sum, contrastive["confusion_matrix"]))
        c.expect(ctotal == expected_n,
                 f"{where}: contrastive confusion sums to {ctotal}, test size {expected_n}")
    return oa


def check(inputs: Inputs, result, out: Path) -> Checked:
    """Check one call's outputs."""
    c = Checked()
    s = inputs.settings
    if inputs.workload.kind == "ssl":
        files = result
        for name in SSL_ARTIFACTS:
            c.expect(name in files and (out / name).read_text(encoding="utf-8") == files[name],
                     f"{name} missing or not written")
        n_epochs = len(files.get("pretrain_trace.csv", "").splitlines()) - 1
        c.expect(n_epochs == s["epochs_pretrain"],
                 f"pretrain trace has {n_epochs} epochs, expected {s['epochs_pretrain']}")
        c.oa = _check_report(c, files["report.json"], inputs.expected_test_size[s["scenario"]],
                             "report.json")
        c.fingerprint = {"report.json": files["report.json"]}
    else:
        summary = result
        lines = summary.splitlines()
        c.expect(len(lines) == 3 and lines[0] == "# bands=13 steps=14"
                 and lines[1] == "method," + ",".join(x.upper() for x in SCENARIOS)
                 and lines[2].startswith("rf,"),
                 f"summary layout: {lines[:2]}")
        values = lines[2].split(",")[1:] if len(lines) == 3 else []
        c.fingerprint = {"summary.csv": summary}
        oas = []
        for scen, value in zip(SCENARIOS, values):
            c.cells += 1
            if value == "error":
                c.cells_failed += 1
                c.failed.append(f"cell rf/{scen} failed")
                continue
            text = (out / f"rf_{scen}" / "report.json").read_text(encoding="utf-8")
            oa = _check_report(c, text, inputs.expected_test_size[scen], f"rf_{scen}")
            c.expect(float(value) == oa, f"summary {scen} {value} != report {oa}")
            c.fingerprint[f"rf_{scen}/report.json"] = text
            oas.append(oa)
        c.expect(len(values) == len(SCENARIOS), f"summary has {len(values)} cells")
        c.oa = sum(oas) / len(oas) if oas else float("nan")
    c.fingerprint = {k: hashlib.sha256(v.encode("utf-8")).hexdigest()
                     for k, v in c.fingerprint.items()}
    return c


def identity_failures(first: dict[str, str], other: dict[str, str]) -> list[str]:
    """Equal seeds must give byte-identical reports (acceptance criterion 8)."""
    return [f"{name} differs from the first process's" for name in sorted(first.keys() | other.keys())
            if first.get(name) != other.get(name)]
