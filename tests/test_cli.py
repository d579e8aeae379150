import contextlib
import ctypes
import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sslcrop import cli
from sslcrop import evaluation as E
from sslcrop import model as M
from sslcrop.augment import AugmentationPolicy
from sslcrop.cli import main, parse_config_file, run, run_matrix
from sslcrop.dataio import load_csv
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
        entries = parse_config_file(cfg)
        assert entries == {"seed": "9", "method": "rf", "n_trees": "11"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(cli.ConfigError, match="bogus"):
            parse_config_file(cfg)

    def test_cli_flag_overrides_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\n")
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--config", str(cfg), "--seed", "4"])
        settings = cli.resolve_settings(args)
        assert settings["seed"] == 4
        args = parser.parse_args(["train", "--config", str(cfg)])
        settings = cli.resolve_settings(args)
        assert settings["seed"] == 9

    def test_out_defaults_to_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SSLCROP_OUT", str(tmp_path / "envout"))
        args = cli.build_parser().parse_args(["train"])
        settings = cli.resolve_settings(args)
        assert settings["out"] == str(tmp_path / "envout")

    @pytest.mark.parametrize("line, message", [
        ("seed = abc", "seed: invalid literal for int()"),
        ("lr = none", "lr: needs a value"),
        ("synth_years =", "synth_years: needs a value"),
        ("spike_both = maybe", "spike_both: cannot parse boolean"),
        ("e1_stratify = county", "e1_stratify: 'county' is not one of"),
        ("bands = B02,B99", "bands: unknown bands ['B99']"),
    ])
    def test_bad_value_fails_when_read_naming_where(self, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# the second line is bad\n{line}\nseed = 4\n")
        args = cli.build_parser().parse_args(["train", "--config", str(cfg)])
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
        assert main(["train", "--out", str(tmp_path / "out"), "--seed", "abc"]) == 1
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
        config_only = {"max_depth", "max_features", "synth_cloud_dn", "aug2_unlabeled_target",
                       "spike_both", "contrastive_table"}
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

    def test_builders_accept_values_as_text(self):
        as_text = dict(cli.DEFAULTS, seed="4", lr="0.5", synth_years="2017, 2018", bands="B02,B03",
                       finetune_mode="linear", max_depth="none", spike_both="off", aug="aug3")
        values = dict(cli.DEFAULTS, seed=4, lr=0.5, synth_years=(2017, 2018), bands=("B02", "B03"),
                      finetune_mode="linear_probe", spike_both=False, aug="aug3")
        for method in ("tf", "ssl"):
            assert (cli.settings_to_runconfig(as_text, method=method)
                    == cli.settings_to_runconfig(values, method=method))
        assert cli.settings_to_synthconfig(as_text) == cli.settings_to_synthconfig(values)


class TestRun:
    def test_rf_report_schema(self):
        report, files = run(tiny_runconfig(method="rf"))
        assert report.method == "RF"
        assert report.scenario == "e1"
        assert 0.0 <= report.overall <= 1.0
        assert np.array(report.confusion).shape == (6, 6)
        assert len(report.per_class) == 6
        assert "report.json" in files
        doc = json.loads(files["report.json"])
        assert doc["class_index_mapping"]["5"] == "winter wheat"

    def test_ssl_report_has_collapse_and_contrastive_table(self):
        report, files = run(tiny_runconfig(method="ssl", scenario="e2", aug="aug1"))
        assert report.method == "SSL+Aug1"
        assert "pretrain" in report.traces and "collapse" in report.traces["pretrain"]
        assert "contrastive" in report.extras
        table = report.extras["contrastive"]
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
        assert tiny_runconfig(scenario="E2").scenario == "E2"  # ScenarioSpec compares in lower case


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
        settings["synth_years"] = "2018"  # e2 needs a non-target year -> cell error
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

        def dying_run(config, raw=None):
            if config.scenario == "e2":
                os._exit(3)
            return real_run(config, raw)

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

        def reporting_run(config, raw=None):
            return SimpleNamespace(overall=get()), {}

        monkeypatch.setattr(cli, "run", reporting_run)
        before = get()
        set_(2)
        try:
            summary = run_matrix(tiny_settings(methods="rf", scenarios="e1,e2"), tmp_path, jobs=2)
            assert get() == 2  # the caller's threading is left alone
        finally:
            set_(before)
        assert summary.splitlines()[2] == "rf,1,1"

    @pytest.mark.parametrize("flags, message", [
        (["--methods", ""], "methods"),
        (["--scenarios", " , "], "scenarios"),
        (["--jobs", "0"], "--jobs"),
        (["--methods", "rf,ssl:aug9"], "aug9"),
        (["--scenarios", "e1,e9"], "e9"),
    ])
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
        dataset = cli._prepare(config)[3]
        cfg = TrainConfig(lr=0.01, batch_size=16, epochs_pretrain=2, branch_threads=2)
        threads = threading.active_count()
        before = get() if get is not None else None
        if get is not None:
            set_(2)
        try:
            pretrain(dataset, AugmentationPolicy("aug1"), cfg, cli._encoder_config(config, dataset))
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
        dataset = cli._prepare(config)[3]
        pretrain(dataset, AugmentationPolicy("aug1"),
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
        def reporting_run(config, raw=None):
            return SimpleNamespace(overall=config.train.branch_threads), {}

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

    def test_export_embeddings_raw(self, tmp_path):
        csv = tmp_path / "emb.csv"
        rc = main(["export-embeddings", "--source", "raw", "--csv", str(csv),
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
        rc = main(["export-embeddings", "--source", "encoder", "--checkpoint",
                   str(tmp_path / "pretrained.json"), "--csv", str(csv)] + base)
        assert rc == 0
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 1 + 6 * 3 * 3  # batch 16 splits the 54 series into 4 batches
        assert all(np.isfinite(float(v)) for line in lines[1:] for v in line.split(",")[2:])

    def test_export_embeddings_encoder_needs_checkpoint(self, tmp_path):
        rc = main(["export-embeddings", "--source", "encoder",
                   "--csv", str(tmp_path / "x.csv"), "--synth-n", "2"])
        assert rc == 1
