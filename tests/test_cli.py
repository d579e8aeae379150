import contextlib
import ctypes
import json
import multiprocessing
import os
import re
import signal
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sslcrop import blas, cli
from sslcrop import evaluation as E
from sslcrop import model as M
from sslcrop.cli import main, run, run_matrix
from sslcrop.dataio import drop_constant_series, load_csv
from sslcrop.forest import ForestConfig
from sslcrop.model import EncoderConfig, SimSiamConfig
from sslcrop.synthgen import SynthConfig
from sslcrop.train import TrainConfig, pretrain


def tiny_settings(**overrides):
    s = dict(cli.DEFAULTS)
    s.update(
        synth_n=6,
        synth_noise_sd=100.0,
        synth_cloud_prob=0.0,
        d_model=8,
        n_heads=2,
        n_layers=1,
        ff_dim=32,
        batch_size=16,
        lr=0.01,
        epochs_supervised=2,
        epochs_pretrain=2,
        epochs_finetune=2,
        n_trees=5,
        collapse_warmup=10**9,
        seed=3,
    )
    s.update(overrides)
    return s


def tagged(cases):
    """`parametrize` arguments for `(tag, flags, message)` cases, each case's id
    `<tag>-<message>`: the tag sits on the case's own line, so removing a case
    renames no other (the tags are the positional ids the cases once had)."""
    return dict(argvalues=[(flags, message) for _, flags, message in cases],
                ids=[f"{tag}-{message}" for tag, _, message in cases])


def openblas_thread_functions():
    """(get, set) of this process's OpenBLAS thread count, or (None, None)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                return (getattr(lib, f"{prefix}_get_num_threads{suffix}"),
                        getattr(lib, f"{prefix}_set_num_threads{suffix}"))
    return None, None


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError instead of hanging when the block outlives `seconds`.

    Forked workers still running are killed first: a process pool's shutdown would
    otherwise wait on a hung worker, and the test would hang instead of failing."""
    def expired(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def tiny_runconfig(**overrides):
    method = overrides.pop("method", "rf")
    scenario = overrides.pop("scenario", "e1")
    aug = overrides.pop("aug", None)
    return cli.settings_to_runconfig(tiny_settings(**overrides), method=method,
                                     scenario=scenario, aug=aug)


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\nmethod = rf  # comment\n\n# full-line comment\nn_trees = 11\n")
        entries = [(key, text) for key, text, _ in cli._config_entries(cfg)]
        assert entries == [("seed", "9"), ("method", "rf"), ("n_trees", "11")]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        removed = (("spike_both", "on"), ("dn_scale", "5000"), ("collapse_factor", "0.25"))
        for key, value in (("bogus", "1"),) + removed:
            cfg.write_text(f"{key} = {value}\n")
            with pytest.raises(cli.ConfigError, match=re.escape(f"{cfg}:1: unknown key '{key}'")):
                list(cli._config_entries(cfg))

    def test_cli_flag_overrides_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\n")
        parser = cli.build_parser()
        args = parser.parse_args(["run", "--config", str(cfg), "--seed", "4"])
        settings = cli.resolve_settings(args)
        assert settings["seed"] == 4
        args = parser.parse_args(["run", "--config", str(cfg)])
        settings = cli.resolve_settings(args)
        assert settings["seed"] == 9

    def test_out_defaults_to_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SSLCROP_OUT", str(tmp_path / "envout"))
        args = cli.build_parser().parse_args(["run"])
        settings = cli.resolve_settings(args)
        assert settings["out"] == str(tmp_path / "envout")

    @pytest.mark.parametrize("line, message", [
        ("seed = abc", "seed: invalid literal for int()"),
        ("lr = none", "lr: needs a value"),
        ("synth_years =", "synth_years: needs a value"),
        ("aug2_unlabeled_target = maybe", "aug2_unlabeled_target: cannot parse boolean"),
        ("e1_stratify = county", "e1_stratify: 'county' is not one of"),
        ("bands = B02,B99", "bands: unknown bands ['B99']"),
        ("finetune_mode = linear_probe", "finetune_mode: 'linear_probe' is not one of full, linear"),
    ])
    def test_bad_value_fails_when_read_naming_where(self, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# the second line is bad\n{line}\nseed = 4\n")
        args = cli.build_parser().parse_args(["run", "--config", str(cfg)])
        with pytest.raises(cli.ConfigError) as err:
            cli.resolve_settings(args)
        assert str(err.value).startswith(f"{cfg}:2: {message}")

    def test_only_optional_keys_may_be_unset(self, tmp_path):
        optional = {"data", "out", "aug", "bands", "target_year", "max_depth", "max_features",
                    "synth_divergent_year"}
        assert {row.key for row in cli.SETTINGS if row.optional} == optional
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = none\n" for key in sorted(optional - {"out"})))
        settings = cli.resolve_settings(cli.build_parser().parse_args(["run", "--config", str(cfg)]))
        assert all(settings[key] is None for key in optional - {"out"})

    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "out"), "--seed", "abc"]) == 1
        assert capsys.readouterr().err.startswith("sslcrop: error: --seed: invalid literal")
        assert not (tmp_path / "out").exists()


def other_text(key):
    """A value of settings key `key` other than its default, as a flag or config file spells it."""
    fixed = {"data": "in.csv", "out": "elsewhere", "bands": "B02,B8A", "target_year": "2017",
             "aug": "aug2", "synth_years": "2017, 2018", "methods": "rf,ssl:aug3", "scenarios": "e2"}
    if key in fixed:
        return fixed[key]
    row = next(row for row in cli.SETTINGS if row.key == key)
    if row.choices:
        return next(choice for choice in row.choices if choice != cli.DEFAULTS[key])
    return repr(cli.DEFAULTS[key] * 2 + 1)


# every key with a flag: those on every subcommand, and those of run and matrix
FLAGGED_KEYS = [("run", row.key) for row in cli.SETTINGS if row.flag] + [
    (command, key) for command in ("run", "matrix") for key in cli.COMMANDS[command].flags]


class TestSettingsTable:
    """cli.SETTINGS defines each key once: its flag and its config-file line give the
    same value, and its defaults are those of the config dataclasses."""

    def test_every_key_is_reachable(self):
        keys = [row.key for row in cli.SETTINGS]
        assert len(keys) == len(set(keys)) and set(keys) == set(cli.DEFAULTS)
        config_only = {"max_depth", "max_features", "synth_cloud_dn", "aug2_unlabeled_target"}
        assert set(keys) - {key for _, key in FLAGGED_KEYS} == config_only

    @pytest.mark.parametrize("command, key", FLAGGED_KEYS)
    def test_flag_and_file_give_the_same_value(self, tmp_path, command, key):
        text = other_text(key)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        parser = cli.build_parser()
        from_file = cli.resolve_settings(parser.parse_args([command, "--config", str(cfg)]))
        from_flag = cli.resolve_settings(parser.parse_args([command, "--" + key.replace("_", "-"), text]))
        assert from_flag == from_file
        assert from_flag[key] != cli.DEFAULTS[key]
        if cli.DEFAULTS[key] is not None:
            assert type(from_flag[key]) is type(cli.DEFAULTS[key])

    def test_defaults_build_the_dataclass_defaults(self):
        config = cli.settings_to_runconfig(cli.DEFAULTS)
        assert config.train == TrainConfig()
        assert config.forest == ForestConfig()
        assert config.simsiam == SimSiamConfig()
        assert config.synth == cli.settings_to_synthconfig(cli.DEFAULTS) == SynthConfig()
        shape = dict(n_bands=13, n_steps=14)
        assert EncoderConfig(**shape, **dict(config.encoder_overrides)) == EncoderConfig(**shape)


class TestRun:
    def test_rf_report_schema(self):
        report, files = run(tiny_runconfig(method="rf"))
        assert report["method"] == "RF"
        assert report["scenario"] == "e1"
        assert 0.0 <= report["overall_accuracy"] <= 1.0
        assert np.array(report["confusion_matrix"]).shape == (6, 6)
        assert len(report["per_class_accuracy"]) == 6
        assert "report.json" in files
        doc = json.loads(files["report.json"])
        assert doc == report
        assert doc["class_index_mapping"]["5"] == "winter wheat"

    def test_ssl_report_has_collapse_and_contrastive_table(self):
        report, files = run(tiny_runconfig(method="ssl", scenario="e2", aug="aug1"))
        assert report["method"] == "SSL+Aug1"
        assert "pretrain" in report["traces"] and "collapse" in report["traces"]["pretrain"]
        assert "contrastive" in report["extras"]
        table = report["extras"]["contrastive"]
        assert len(table["per_class_accuracy"]) == 6
        assert {"pretrained.json", "finetuned.json", "pretrain_trace.csv",
                "finetune_trace.csv", "report.json"} <= set(files)

    def test_same_config_is_byte_identical(self):
        _, files_a = run(tiny_runconfig(method="tf", scenario="e3"))
        _, files_b = run(tiny_runconfig(method="tf", scenario="e3"))
        assert files_a.keys() == files_b.keys()
        for name in files_a:
            assert files_a[name] == files_b[name], name

    def test_method_aug_consistency_enforced(self):
        with pytest.raises(cli.ConfigError):
            tiny_runconfig(method="ssl")  # ssl without aug
        with pytest.raises(cli.ConfigError):
            tiny_runconfig(method="rf", aug="aug1")

    def test_unknown_aug_and_scenario_rejected(self):
        with pytest.raises(cli.ConfigError, match="aug9"):
            tiny_runconfig(method="ssl", aug="aug9")
        with pytest.raises(cli.ConfigError, match="e9"):
            tiny_runconfig(scenario="e9")
        assert tiny_runconfig(scenario="E2").scenario == "e2"  # lower-cased, as ScenarioSpec does


class TestMatrix:
    def test_layout_and_values(self, tmp_path):
        settings = tiny_settings(methods="rf,tf", scenarios="e1,e2,e3,e4")
        summary = run_matrix(settings, tmp_path, jobs=1)
        lines = summary.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "method,E1,E2,E3,E4"
        assert lines[2].split(",")[0] == "rf"
        assert lines[3].split(",")[0] == "tf"
        for cell in lines[2].split(",")[1:]:
            assert 0.0 <= float(cell) <= 1.0
        assert (tmp_path / "rf_e1" / "report.json").exists()

    def test_failing_cell_yields_error_token(self, tmp_path):
        settings = tiny_settings(methods="rf", scenarios="e1,e2")
        settings["synth_years"] = (2018,)  # e2 needs a non-target year -> cell error
        settings["synth_divergent_year"] = 2018
        summary = run_matrix(settings, tmp_path, jobs=1)
        row = summary.strip().split("\n")[2].split(",")
        assert row[0] == "rf"
        assert 0.0 <= float(row[1]) <= 1.0
        assert row[2] == "error"
        error = (tmp_path / "rf_e2" / "error.txt").read_text()
        assert error.startswith("Traceback")
        assert "ValueError" in error
        assert not (tmp_path / "rf_e1" / "error.txt").exists()

    def test_diverging_cell_leaves_its_traceback(self, tmp_path):
        settings = tiny_settings(methods="rf,tf", scenarios="e1", lr=1000.0, epochs_supervised=20)
        row = run_matrix(settings, tmp_path, jobs=1).strip().split("\n")[3].split(",")
        assert row == ["tf", "error"]
        error = (tmp_path / "tf_e1" / "error.txt").read_text()
        assert error.startswith("Traceback")
        assert re.search(r"TrainingDiverged: train diverged: epoch \d+, batch \d+: loss (inf|nan)\n$", error)
        assert not (tmp_path / "tf_e1" / "report.json").exists()

    def test_data_is_loaded_once(self, tmp_path, monkeypatch):
        csv = tmp_path / "data.csv"
        cli.write_csv(cli.generate(cli.settings_to_synthconfig(tiny_settings())), csv)
        calls = []

        def counting_load_csv(path):
            calls.append(path)
            return load_csv(path)

        monkeypatch.setattr(cli, "load_csv", counting_load_csv)
        settings = tiny_settings(data=str(csv), methods="rf", scenarios="e1,e2,e3,e4")
        summary = run_matrix(settings, tmp_path / "out", jobs=2)
        assert calls == [str(csv)]
        assert "error" not in summary

    def test_data_is_preprocessed_once(self, tmp_path, monkeypatch):
        log = tmp_path / "preprocessed.log"  # a file, so that the forked workers' calls count too

        def counting_drop(dataset):
            with log.open("a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return drop_constant_series(dataset)

        monkeypatch.setattr(cli, "drop_constant_series", counting_drop)
        settings = tiny_settings(methods="rf,tf", scenarios="e1,e2")
        summary = run_matrix(settings, tmp_path / "out", jobs=2)
        assert log.read_text(encoding="utf-8").splitlines() == [str(os.getpid())]
        assert "error" not in summary

    def test_scenario_case_does_not_change_a_cell(self, tmp_path):
        # e2 is the scenario whose aug2 pool takes the unlabeled target year
        settings = tiny_settings(methods="ssl:aug2", scenarios="e2")
        lower = run_matrix(settings, tmp_path / "lower", jobs=1)
        upper = run_matrix({**settings, "scenarios": "E2"}, tmp_path / "upper", jobs=1)
        assert lower == upper
        files = {p.relative_to(tmp_path / "lower") for p in (tmp_path / "lower").rglob("*") if p.is_file()}
        assert files == {p.relative_to(tmp_path / "upper") for p in (tmp_path / "upper").rglob("*") if p.is_file()}
        assert Path("ssl+aug2_e2/pretrained.json") in files
        for f in files:
            assert (tmp_path / "upper" / f).read_bytes() == (tmp_path / "lower" / f).read_bytes()

    def test_jobs_do_not_change_results(self, tmp_path):
        settings = tiny_settings(methods="rf,ssl:aug2", scenarios="e1,e2")
        a = run_matrix(settings, tmp_path / "a", jobs=1)
        b = run_matrix(settings, tmp_path / "b", jobs=2)
        assert a == b
        for cell_dir in ("rf_e1", "rf_e2", "ssl+aug2_e1", "ssl+aug2_e2"):
            ra = (tmp_path / "a" / cell_dir / "report.json").read_text()
            rb = (tmp_path / "b" / cell_dir / "report.json").read_text()
            assert ra == rb

    def test_cells_are_byte_identical_for_any_jobs(self, tmp_path):
        settings = tiny_settings(methods="rf,tf", scenarios="e1,e2")
        with deadline(120):
            summaries = [run_matrix(settings, tmp_path / f"j{jobs}", jobs=jobs)
                         for jobs in (1, 2, 3)]
        assert summaries[0] == summaries[1] == summaries[2]
        files = sorted(p.relative_to(tmp_path / "j1") for p in (tmp_path / "j1").rglob("*")
                       if p.is_file())
        assert {str(f) for f in files} >= {"rf_e1/report.json", "tf_e2/model.json"}
        for jobs in (2, 3):
            for f in files:
                assert (tmp_path / f"j{jobs}" / f).read_bytes() == (tmp_path / "j1" / f).read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_dead_worker_raises_naming_its_cell(self, tmp_path, monkeypatch, jobs):
        real_run = cli.run

        def dying_run(config, prepared=None):
            if config.scenario == "e2":
                os._exit(3)
            return real_run(config, prepared)

        monkeypatch.setattr(cli, "run", dying_run)  # forked workers inherit the patch
        settings = tiny_settings(methods="rf", scenarios="e1,e2,e3")
        started = time.perf_counter()
        with deadline(30), pytest.raises(RuntimeError, match="worker process died") as err:
            run_matrix(settings, tmp_path, jobs=jobs)
        assert time.perf_counter() - started < 10.0
        assert "rf/e2" in str(err.value)
        if jobs == 1:  # the only cell that was running
            assert str(err.value).endswith("running rf/e2")

    def test_workers_run_blas_on_one_thread(self, tmp_path, monkeypatch):
        get, set_ = openblas_thread_functions()
        if get is None:
            pytest.skip("no OpenBLAS loaded")

        def reporting_run(config, prepared=None):
            return {"overall_accuracy": get()}, {}

        monkeypatch.setattr(cli, "run", reporting_run)
        before = get()
        set_(2)
        try:
            summary = run_matrix(tiny_settings(methods="rf", scenarios="e1,e2"), tmp_path, jobs=2)
            assert get() == 2  # the caller's threading is left alone
        finally:
            set_(before)
        assert summary.splitlines()[2] == "rf,1,1"

    @pytest.mark.parametrize("flags, message", **tagged([
        ("flags0", ["--methods", ""], "methods"),
        ("flags1", ["--scenarios", " , "], "scenarios"),
        ("flags2", ["--jobs", "0"], "--jobs"),
        ("flags3", ["--methods", "rf,ssl:aug9"], "aug9"),
        ("flags4", ["--scenarios", "e1,e9"], "e9"),
        ("flags5", ["--methods", "rf,rf"], "methods"),
        ("flags6", ["--methods", "ssl:aug1,ssl:aug1"], "methods"),
        ("flags7", ["--scenarios", "e1,E1"], "scenarios"),  # one scenario, as ScenarioSpec compares them
        ("flags8", ["--drop-leading", "14"], "drop_leading 14 out of range for 14 steps"),  # before any cell runs
    ]))
    def test_bad_matrix_input_fails_early(self, tmp_path, capsys, flags, message):
        rc = main(["matrix", "--out", str(tmp_path / "out"), "--synth-n", "2"] + flags)
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("sslcrop: error: ") and message in err
        assert not (tmp_path / "out").exists()


class TestThreads:
    """Pre-training's branch threads and its one-thread BLAS, seen from the caller."""

    def test_pretrain_leaves_no_thread_and_restores_blas(self, monkeypatch):
        get, set_ = openblas_thread_functions()
        blas_inside = []

        def recording_encode(state, batch, inner=M.encode):
            if get is not None:
                blas_inside.append(get())
            return inner(state, batch)

        monkeypatch.setattr(M, "encode", recording_encode)
        config = tiny_runconfig(method="ssl", aug="aug1")
        dataset = cli._split(config, *cli._preprocess(config))[3]
        cfg = TrainConfig(lr=0.01, batch_size=16, epochs_pretrain=2, branch_threads=2)
        threads = threading.active_count()
        before = get() if get is not None else None
        if get is not None:
            set_(2)
        try:
            pretrain(dataset, "aug1", cfg, cli._encoder_config(config, dataset))
            assert threading.active_count() == threads
            if get is not None:
                assert get() == 2  # the caller's count is back
                assert set(blas_inside) == {1}
        finally:
            if get is not None:
                set_(before)

    def test_matrix_after_in_process_pretrain_finishes(self, tmp_path, monkeypatch):
        # a branch pool that outlived pretrain would be inherited, without its
        # thread, by the forked matrix workers, which would then wait forever
        config = tiny_runconfig(method="ssl", aug="aug1")
        dataset = cli._split(config, *cli._preprocess(config))[3]
        pretrain(dataset, "aug1",
                 TrainConfig(lr=0.01, batch_size=16, epochs_pretrain=1, branch_threads=2),
                 cli._encoder_config(config, dataset))
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # two branch threads per worker

        def expired(signum, frame):  # kill the workers too, or the pool's shutdown would wait on them
            for child in multiprocessing.active_children():
                child.kill()
            raise TimeoutError("matrix still running after 60 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(60)
        try:
            summary = run_matrix(tiny_settings(methods="ssl:aug1", scenarios="e1,e2"), tmp_path, jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert "error" not in summary

    def test_matrix_workers_get_the_cores_per_worker(self, tmp_path, monkeypatch):
        def reporting_run(config, prepared=None):
            return {"overall_accuracy": config.train.branch_threads}, {}

        monkeypatch.setattr(cli, "run", reporting_run)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        settings = tiny_settings(methods="rf", scenarios="e1,e2")
        assert run_matrix(settings, tmp_path, jobs=1).splitlines()[2] == "rf,2,2"
        assert run_matrix(settings, tmp_path, jobs=2).splitlines()[2] == "rf,1,1"

    def test_run_writes_the_bytes_of_its_matrix_cell(self, tmp_path):
        # desk encoder and batch: big enough gemms that OpenBLAS's default threading
        # would change the bits if run used it
        settings = tiny_settings(synth_n=50, d_model=32, n_heads=4, n_layers=2, ff_dim=128,
                                 batch_size=64, lr=0.005, epochs_supervised=5,
                                 methods="tf", scenarios="e1")
        _, files = run(cli.settings_to_runconfig(settings, method="tf", scenario="e1"))
        run_matrix(settings, tmp_path, jobs=1)
        for name in ("report.json", "model.json"):
            assert (tmp_path / "tf_e1" / name).read_text() == files[name], name


class TestStepsReproduceRun:
    """`pretrain`, `finetune` and `eval` run the stages of `run --method ssl` one at a time,
    so they write its bytes; and `run` writes exactly its method's files."""

    # settings under which both the head's and the nearest-class predictions spread over classes
    FLAGS = ["--seed", "3", "--synth-n", "6", "--synth-noise-sd", "100", "--synth-cloud-prob", "0",
             "--d-model", "8", "--n-heads", "2", "--n-layers", "1", "--ff-dim", "32",
             "--batch-size", "16", "--lr", "0.01", "--epochs-pretrain", "6", "--epochs-finetune", "4",
             "--collapse-warmup", "1000000", "--scenario", "e3"]

    def test_steps_write_the_bytes_of_run(self, tmp_path):
        def step(out, *flags):
            assert main(list(flags) + ["--out", str(tmp_path / out)] + self.FLAGS) == 0
            return tmp_path / out

        whole = step("run", "run", "--method", "ssl", "--aug", "aug1")
        pretrained = step("pretrain", "pretrain", "--aug", "aug1")
        tuned = step("finetune", "finetune", "--checkpoint", str(pretrained / "pretrained.json"))
        contrastive = step("eval", "eval", "--contrastive",
                           "--checkpoint", str(pretrained / "pretrained.json"))
        for out, names in ((pretrained, ("pretrained.json", "pretrain_trace.csv")),
                           (tuned, ("finetuned.json", "finetune_trace.csv"))):
            for name in names:
                assert (out / name).read_bytes() == (whole / name).read_bytes(), name
        run_doc, tuned_doc, contrastive_doc = (json.loads((out / "report.json").read_text())
                                               for out in (whole, tuned, contrastive))
        for doc, expected in ((tuned_doc, run_doc), (contrastive_doc, run_doc["extras"]["contrastive"])):
            assert doc["overall_accuracy"] == expected["overall_accuracy"]
            assert doc["confusion_matrix"] == expected["confusion_matrix"]
        assert run_doc["extras"]["target_train_ids"]  # e3 moves target-year samples into train
        for doc in (tuned_doc, contrastive_doc):
            for key in ("removed_constant_series", "target_train_ids"):
                assert doc["extras"][key] == run_doc["extras"][key], key

    @pytest.mark.parametrize("method, aug, names", [
        ("rf", None, {"report.json"}),
        ("tf", None, {"report.json", "model.json", "train_trace.csv"}),
        ("ssl", "aug1", {"report.json", "pretrained.json", "finetuned.json", "pretrain_trace.csv",
                         "finetune_trace.csv"}),
    ])
    def test_run_writes_its_methods_files(self, method, aug, names):
        _, files = run(tiny_runconfig(method=method, aug=aug))
        assert set(files) == names


class TestEvaluationBesideFinetuning:
    """cli.run's ssl path: the contrastive table runs beside fine-tuning on the views'
    thread rule, in a pool that lives for the call."""

    def ssl_config(self, threads, **overrides):
        config = tiny_runconfig(method="ssl", aug="aug1", **overrides)
        return replace(config, train=replace(config.train, branch_threads=threads))

    def test_bytes_do_not_depend_on_threads(self, monkeypatch):
        ran_in = {}
        for name, module in (("finetune", cli), ("embed_reference", E)):
            def recording(*args, _inner=getattr(module, name), _name=name, **kwargs):
                ran_in.setdefault(_name, set()).add(threading.current_thread().name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)
        threads = threading.active_count()
        _, serial = run(self.ssl_config(1))
        assert ran_in == {"finetune": {"MainThread"}, "embed_reference": {"MainThread"}}
        ran_in.clear()
        _, overlapped = run(self.ssl_config(2))
        assert threading.active_count() == threads
        assert all(name.startswith("sslcrop-eval") for names in ran_in.values() for name in names)
        assert overlapped == serial
        assert "contrastive" in json.loads(serial["report.json"])["extras"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_contrastive_error_comes_out_of_run(self, monkeypatch, threads):
        def failing(*args, **kwargs):
            raise FloatingPointError("contrastive table failed")

        monkeypatch.setattr(E, "contrastive_classify_batch", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="contrastive table failed"):
            run(self.ssl_config(threads))
        assert threading.active_count() == before

    def test_matrix_after_in_process_ssl_run_finishes(self, tmp_path, monkeypatch):
        # an evaluation pool that outlived run would be inherited, without its
        # threads, by the forked matrix workers, which would then wait forever
        run(self.ssl_config(2, epochs_pretrain=1, epochs_finetune=1))
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # two threads per worker
        with deadline(60):
            summary = run_matrix(tiny_settings(methods="ssl:aug1", scenarios="e1,e2"), tmp_path, jobs=2)
        assert "error" not in summary


class TestCommands:
    def test_synth_and_preprocess_round_trip(self, tmp_path):
        csv = tmp_path / "synth.csv"
        rc = main(["synth", "--csv", str(csv), "--synth-n", "2", "--seed", "1"])
        assert rc == 0
        d = load_csv(csv)
        assert len(d) == 36  # 6 classes x 2 x 3 years
        out_csv = tmp_path / "pre.csv"
        rc = main([
            "preprocess", "--data", str(csv), "--csv", str(out_csv),
            "--bands", "B04,B05,B06,B07,B08,B8A,B09,B11,B12", "--drop-leading", "3",
        ])
        assert rc == 0
        back = load_csv(out_csv)
        assert back.n_bands == 9
        assert back.n_steps == 11

    def test_run_command_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "run", "--method", "rf", "--out", str(out), "--seed", "2",
            "--synth-n", "4", "--n-trees", "5", "--scenario", "e1",
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "RF"

    @pytest.mark.parametrize("flags, message", **tagged([
        ("flags0", ["--d-model", "0"], "d_model must be at least 1, got 0"),
        ("flags1", ["--d-model", "-4"], "d_model must be at least 1, got -4"),
        ("flags2", ["--n-heads", "0"], "n_heads must be at least 1, got 0"),
        ("flags3", ["--n-heads", "-2"], "n_heads must be at least 1, got -2"),
        ("flags4", ["--ff-dim", "0"], "ff_dim must be at least 1, got 0"),
        ("flags5", ["--n-layers", "-1"], "n_layers must not be negative, got -1"),
        ("flags6", ["--lr", "nan"], "lr must be finite and positive, got nan"),
        ("flags7", ["--lr", "inf"], "lr must be finite and positive, got inf"),
        ("flags8", ["--lr", "0"], "lr must be finite and positive, got 0.0"),
        ("flags9", ["--lr", "-1"], "lr must be finite and positive, got -1.0"),
        ("flags10", ["--weight-decay", "-0.1"], "weight_decay must be finite and at least 0, got -0.1"),
        ("flags11", ["--weight-decay", "inf"], "weight_decay must be finite and at least 0, got inf"),
        ("flags12", ["--momentum", "-1"], "momentum must lie in [0, 1), got -1.0"),
        ("flags13", ["--momentum", "1"], "momentum must lie in [0, 1), got 1.0"),
        ("flags14", ["--momentum", "nan"], "momentum must lie in [0, 1), got nan"),
        ("flags15", ["--batch-size", "0"], "batch_size must be positive, got 0"),
        ("flags16", ["--head-out", "0"], "head_out must be at least 1, got 0"),
        ("flags17", ["--proj-hidden", "-1"], "proj_hidden must be at least 1, got -1"),
        ("flags18", ["--n-trees", "0"], "n_trees must be at least 1, got 0"),
        ("flags19", ["--min-leaf", "0"], "min_leaf must be at least 1, got 0"),
    ]))
    def test_bad_model_or_training_setting_fails_naming_the_field(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        rc = main(["run", "--method", "tf", "--synth-n", "2", "--epochs-supervised", "1",
                   "--out", str(out)] + flags)
        assert rc == 1
        assert capsys.readouterr().err == f"sslcrop: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", **tagged([
        ("flags0", ["--synth-noise-sd", "-1"], "noise_sd must be finite and at least 0, got -1.0"),
        ("flags1", ["--synth-noise-sd", "nan"], "noise_sd must be finite and at least 0, got nan"),
        ("flags2", ["--synth-year-effect", "-0.5"], "year_effect_sd must be finite and at least 0, got -0.5"),
        ("flags3", ["--synth-time-jitter", "inf"], "time_jitter_sd must be finite and at least 0, got inf"),
        ("flags4", ["--synth-amp-jitter", "-0.1"], "amp_jitter_sd must be finite and at least 0, got -0.1"),
        ("flags5", ["--synth-shift-steps", "nan"], "shift_steps must be finite, got nan"),
        ("flags6", ["--synth-amplitude-scale", "inf"], "amplitude_scale must be finite, got inf"),
        ("flags7", ["--synth-years", "2016,2016"], "years must be non-empty without repeats, got (2016, 2016)"),
        ("flags8", ["--synth-n", "0"], "n_per_class_per_year must be at least 1, got 0"),
        ("flags9", ["--synth-cloud-prob", "1.5"], "cloud_prob must lie in [0, 1], got 1.5"),
    ]))
    def test_bad_synthetic_setting_fails_naming_the_field(self, tmp_path, capsys, flags, message):
        csv = tmp_path / "synth.csv"
        rc = main(["synth", "--csv", str(csv), "--synth-n", "2"] + flags)
        assert rc == 1
        assert capsys.readouterr().err == f"sslcrop: error: {message}\n"
        assert not csv.exists()

    def test_cloud_dn_is_checked_from_the_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("synth_cloud_dn = -1\n", encoding="utf-8")
        rc = main(["synth", "--config", str(config), "--csv", str(tmp_path / "synth.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "sslcrop: error: cloud_dn must be finite and at least 0, got -1.0\n"

    @pytest.mark.parametrize("line, message", [
        ("max_features = 0", "max_features must be at least 1, got 0"),
        ("max_features = -3", "max_features must be at least 1, got -3"),
        ("max_depth = -1", "max_depth must not be negative, got -1"),
    ])
    def test_bad_forest_setting_is_checked_from_the_config_file(self, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["run", "--method", "rf", "--synth-n", "4", "--n-trees", "3", "--config", str(config),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"sslcrop: error: {message}\n"
        assert not out.exists()

    def test_negative_exponent_flag_value_is_given_with_equals(self, tmp_path):
        # argparse reads "-1e-3" after a space as an option; "--flag=-1e-3" is the value
        config = tmp_path / "run.cfg"
        config.write_text("synth_shift_steps = -1e-3\n", encoding="utf-8")
        by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
        assert main(["synth", "--synth-n", "2", "--csv", str(by_flag), "--synth-shift-steps=-1e-3"]) == 0
        assert main(["synth", "--synth-n", "2", "--csv", str(by_file), "--config", str(config)]) == 0
        assert by_flag.read_bytes() == by_file.read_bytes()

    def test_missing_default_target_year_names_its_setting(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = ["run", "--method", "rf", "--scenario", "e2", "--synth-years", "2016,2017", "--synth-n", "2",
                 "--n-trees", "2", "--out", str(out)]
        assert main(flags) == 1
        err = capsys.readouterr().err
        assert err == ("sslcrop: error: scenario e2: the target year defaults to synth_divergent_year (2018), "
                       "not among the data's years [2016, 2017]; set --target-year\n")
        assert not out.exists()
        assert main(flags + ["--target-year", "2017"]) == 0

    @pytest.mark.parametrize("method, scenario", [("rf", "e3"), ("tf", "e4")])
    def test_empty_test_split_fails_before_training(self, tmp_path, capsys, monkeypatch, method, scenario):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on a split with no test sample")
        monkeypatch.setattr(cli, "rf_fit" if method == "rf" else "train_supervised", no_training)
        out = tmp_path / "out"
        assert main(["run", "--method", method, "--scenario", scenario, "--synth-n", "1", "--n-trees", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"sslcrop: error: scenario {scenario} leaves no test sample: every "
                                           "target-year (2018) sample moved into train\n")
        assert not out.exists()

    def test_error_exits_nonzero_without_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--method", "rf", "--data", str(tmp_path / "missing.csv"),
                   "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_pretrain_then_finetune_then_eval(self, tmp_path):
        out = tmp_path / "ssl"
        base = ["--out", str(out), "--seed", "3", "--synth-n", "4",
                "--d-model", "8", "--n-heads", "2", "--n-layers", "1", "--ff-dim", "32",
                "--batch-size", "16", "--lr", "0.01", "--scenario", "e3"]
        rc = main(["pretrain", "--aug", "aug1", "--epochs-pretrain", "2"] + base)
        assert rc == 0
        assert (out / "pretrained.json").exists()
        rc = main(["finetune", "--checkpoint", str(out / "pretrained.json"),
                   "--epochs-finetune", "2"] + base)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "e3"
        rc = main(["eval", "--checkpoint", str(out / "finetuned.json"), "--contrastive"] + base)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "contrastive"

    def test_pretrain_without_aug_fails_naming_the_setting(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pretrain", "--synth-n", "2", "--epochs-pretrain", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "sslcrop: error: aug: method ssl needs an augmentation (aug1|aug2|aug3), got None\n")
        assert not out.exists()

    def test_train_is_not_a_subcommand(self, capsys):  # run --method rf|tf does what it did
        with pytest.raises(SystemExit) as exc:
            main(["train", "--method", "rf"])
        assert exc.value.code == 2
        assert "invalid choice: 'train'" in capsys.readouterr().err

    def test_eval_without_head_names_the_checkpoint_before_loading_data(self, tmp_path, capsys,
                                                                        monkeypatch):
        checkpoint = tmp_path / "pretrained.json"
        enc = EncoderConfig(n_bands=13, n_steps=14, d_model=8, n_heads=2, n_layers=1, ff_dim=16)
        checkpoint.write_text(M.checkpoint_text(M.init_model(enc)))
        loaded = []
        monkeypatch.setattr(cli, "_preprocess", lambda config: loaded.append(config))
        rc = main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"sslcrop: error: {checkpoint}: the model has no classification head; "
            "run finetune on it first, or pass --contrastive\n")
        assert loaded == []

    @pytest.mark.parametrize("command, flags", [
        (["eval", "--contrastive"], ["--bands", "B02,B04"]),
        (["finetune"], ["--drop-leading", "2"]),
        (["export-embeddings", "--csv", "emb.csv"], ["--drop-leading", "2"]),
    ])
    def test_checkpoint_data_mismatch_fails_before_split_or_training(self, tmp_path, capsys, monkeypatch,
                                                                      command, flags):
        checkpoint = tmp_path / "pretrained.json"
        enc = EncoderConfig(n_bands=13, n_steps=14, d_model=8, n_heads=2, n_layers=1, ff_dim=16)
        checkpoint.write_text(M.checkpoint_text(M.init_model(enc)))
        called = []
        monkeypatch.setattr(cli, "make_split", lambda *args: called.append("split"))
        monkeypatch.setattr(cli, "finetune", lambda *args: called.append("finetune"))
        monkeypatch.chdir(tmp_path)
        rc = main(command + ["--checkpoint", str(checkpoint), "--out", "out", "--synth-n", "2"] + flags)
        assert rc == 1
        bands, steps = (2, 14) if "--bands" in flags else (13, 12)
        assert capsys.readouterr().err == (
            f"sslcrop: error: {checkpoint}: the encoder takes 13 bands x 14 steps, but the prepared data "
            f"has {bands} bands x {steps} steps; check --bands and --drop-leading\n")
        assert called == [] and not (tmp_path / "out").exists() and not (tmp_path / "emb.csv").exists()

    @pytest.mark.parametrize("command", [["export-embeddings", "--csv", "emb.csv"],
                                         ["run", "--method", "rf", "--out", "out"]])
    def test_header_only_csv_names_the_file_and_line_2(self, tmp_path, capsys, monkeypatch, command):
        data = tmp_path / "empty.csv"
        cli.write_csv(cli.generate(cli.settings_to_synthconfig(tiny_settings())).subset([]), data)
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--data", str(data)]) == 1
        assert capsys.readouterr().err == f"sslcrop: error: {data}: line 2: no samples after the header\n"
        assert not (tmp_path / "out").exists() and not (tmp_path / "emb.csv").exists()

    def test_diverging_run_exits_1_without_a_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--method", "tf", "--synth-n", "3", "--d-model", "8", "--n-heads", "2",
                   "--n-layers", "1", "--ff-dim", "16", "--batch-size", "16", "--epochs-supervised", "20",
                   "--lr", "1e3", "--out", str(out)])
        assert rc == 1
        assert re.search(r"sslcrop: error: train diverged: epoch \d+, batch \d+: loss (inf|nan)\n$",
                         capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("method", [["tf"], ["ssl", "--aug", "aug1"]])
    def test_diverging_run_reports_only_the_divergence(self, tmp_path, capsys, method):
        # the ssl run diverges in pre-training, whose two views run in the branch threads
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "--method", *method, "--synth-n", "3", "--d-model", "8", "--n-heads", "2",
                       "--n-layers", "1", "--ff-dim", "16", "--batch-size", "16", "--epochs-supervised", "20",
                       "--lr", "1e3", "--out", str(out)])
        assert rc == 1
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert re.fullmatch(r"sslcrop: error: (train|pretrain) diverged: "
                            r"epoch \d+, batch \d+: loss (inf|nan)\n", capsys.readouterr().err)
        assert not out.exists()

    def test_export_embeddings_raw(self, tmp_path):
        csv = tmp_path / "emb.csv"
        rc = main(["export-embeddings", "--csv", str(csv),
                   "--synth-n", "3", "--seed", "1"])
        assert rc == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "sample_id,class,pc1,pc2"
        assert len(lines) == 1 + 6 * 3 * 3
        cells = lines[1].split(",")
        assert cells[1] in {str(i) for i in range(1, 7)}
        float(cells[2]), float(cells[3])

    def test_export_embeddings_from_encoder(self, tmp_path):
        base = ["--out", str(tmp_path), "--seed", "3", "--synth-n", "3", "--d-model", "8",
                "--n-heads", "2", "--n-layers", "1", "--ff-dim", "16", "--batch-size", "16"]
        assert main(["pretrain", "--aug", "aug1", "--epochs-pretrain", "1"] + base) == 0
        csv = tmp_path / "emb.csv"
        rc = main(["export-embeddings", "--checkpoint", str(tmp_path / "pretrained.json"),
                   "--csv", str(csv)] + base)
        assert rc == 0
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 1 + 6 * 3 * 3  # batch 16 splits the 54 series into 4 batches
        assert all(np.isfinite(float(v)) for line in lines[1:] for v in line.split(",")[2:])

    def test_a_checkpoint_exports_the_encoders_embeddings(self, tmp_path):
        base = ["--seed", "3", "--synth-n", "3", "--batch-size", "16"]
        enc = EncoderConfig(n_bands=13, n_steps=14, d_model=8, n_heads=2, n_layers=1, ff_dim=16)
        state = M.init_model(enc, seed=5)
        checkpoint = tmp_path / "pretrained.json"
        checkpoint.write_text(M.checkpoint_text(state))
        raw, encoded = tmp_path / "raw.csv", tmp_path / "encoded.csv"
        assert main(["export-embeddings", "--csv", str(raw)] + base) == 0
        assert main(["export-embeddings", "--checkpoint", str(checkpoint), "--csv", str(encoded)] + base) == 0
        dataset = cli._preprocess(cli.settings_to_runconfig(dict(cli.DEFAULTS, seed=3, synth_n=3)))[0]
        X = M.encoder_batch(s.reflectance for s in dataset.samples)
        with blas.one_thread():  # as every command runs
            coords, _ = E.pca_project(M.encode_batched(state, X, 16), k=2)
        rows = [line.split(",") for line in encoded.read_text().splitlines()[1:]]
        assert [[float(pc1), float(pc2)] for _, _, pc1, pc2 in rows] == coords.tolist()
        assert encoded.read_bytes() != raw.read_bytes()

    @pytest.mark.parametrize("command", [["export-embeddings", "--csv", "emb.csv", "--source", "encoder"],
                                         ["run", "--collapse-factor", "0.25"]],
                             ids=["export-embeddings --source", "run --collapse-factor"])
    def test_removed_flags_exit_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(command)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(command[-2:]) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
