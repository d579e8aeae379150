"""Benchmark sslcrop end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload ssl-aug1-desk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run starts fresh child processes with BLAS pinned to one thread: a
few that only set up (to time set-up), then, for about --seconds, one per
call of the workload's user-level call, each checking its outputs.
The last line of standard output is the result as one JSON object; the
`# run` line before it holds the same metrics with the machine state.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

BENCHMARK_WORKLOADS = ("ssl-aug1-desk", "ssl-aug2-paper", "matrix-rf-jobs2")
SETUP_REPEATS = 2      # set-up-only children; each measuring child also times its set-up
RUN_LIMIT_S = 170.0    # every run ends well inside the 180 s a run may take
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONDONTWRITEBYTECODE": "1"}

# Time of child.reference_samples on a quiet host; a speed-adjusted workload's
# timings are scaled by REF_QUIET_S / (that time in the same process).
REF_QUIET_S = 0.021

# name -> (unit, better, bound); mirrored in BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.15),
}
# name -> (unit, better)
PER_LAYER = {
    "tensor.gradients_s": ("s", "lower"),
    "tensor.gradients_calls": ("count", "lower"),
    "tensor.sgd_step_s": ("s", "lower"),
    "model.forward_s": ("s", "lower"),
    "model.forward_calls": ("count", "lower"),
    "model.collapse_metric_s": ("s", "lower"),
    "model.predict_s": ("s", "lower"),
    "model.checkpoint_s": ("s", "lower"),
    "model.checkpoint_bytes": ("B", "lower"),
    "augment.pair_s": ("s", "lower"),
    "augment.pair_calls": ("count", "lower"),
    "train.pretrain_s": ("s", "lower"),
    "train.finetune_s": ("s", "lower"),
    "train.loop_self_s": ("s", "lower"),
    "train.pretrain_covered": ("ratio", "higher"),
    "forest.fit_s": ("s", "lower"),
    "forest.trees_per_s": ("1/s", "higher"),
    "forest.predict_s": ("s", "lower"),
    "dataio.load_csv_s": ("s", "lower"),
    "dataio.load_csv_calls": ("count", "lower"),
    "dataio.make_split_s": ("s", "lower"),
    "synthgen.generate_s": ("s", "lower"),
    "evaluation.contrastive_s": ("s", "lower"),
    "evaluation.oa": ("ratio", "higher"),
    "cli.run_s": ("s", "lower"),
    "cli.cell_s.max": ("s", "lower"),
    "cli.cell_wait_s": ("s", "lower"),
    "cli.cpu_util": ("ratio", "higher"),
    "cli.write_artifacts_s": ("s", "lower"),
    "cli.cells_failed": ("count", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


class BenchmarkError(RuntimeError):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def spawn(args: list[str], timeout: float) -> dict:
    """Run one child to completion and return its JSON line."""
    env = {**os.environ, **CHILD_ENV}
    cmd = [sys.executable, str(CHILD), *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One run of one workload; returns the `# run` record."""
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups, procs = [], []
    try:
        for k in range(0 if trace else SETUP_REPEATS):
            setups.append(spawn(common + ["--setup-only", "--work", str(work / f"s{k}")], 30.0))
        # One call per process, alternating plain and traced in a traced run,
        # at least two, then while another still fits in `seconds`.
        measuring = time.monotonic()
        while True:
            k = len(procs)
            trace_this = trace and k % 2 == 1
            spans = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}-{k}.jsonl"
            t0 = time.monotonic()
            procs.append(spawn(common + ["--trace", str(int(trace_this)), "--work", str(work / f"p{k}"),
                                         "--spans", str(spans)],
                               RUN_LIMIT_S - (t0 - started)))
            procs[-1]["process_s"] = time.monotonic() - t0
            typical = statistics.median(p["process_s"] for p in procs)
            if len(procs) >= 2 and time.monotonic() - measuring + typical > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    load_after = os.getloadavg()

    failed = [f for p in procs for f in p["failed"]]
    attempted = sum(p["attempted"] for p in procs)
    for p in procs[1:]:
        if p["fingerprint"]:
            mismatch = wl.identity_failures(procs[0]["fingerprint"], p["fingerprint"])
            attempted += 1
            failed += mismatch[:1]
    plain = [p for p in procs if "per_layer" not in p]
    traced = [p for p in procs if "per_layer" in p]
    oas = [p["oa"] for p in procs if p["oa"] is not None]
    oa = statistics.mean(oas) if oas else float("nan")
    if trace:
        metrics = {k: statistics.mean(p["per_layer"][k] for p in traced)
                   for k in traced[0]["per_layer"]}
        metrics["cli.cell_s.max"] = max(p["per_layer"]["cli.cell_s.max"] for p in traced)
        metrics["cli.cells_failed"] = statistics.mean(p["cells_failed"] for p in traced)
        metrics["evaluation.oa"] = oa
        metrics["trace_overhead"] = (_median(p["wall"] for p in traced)
                                     / _median(p["wall"] for p in plain) - 1.0)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": _median(p["wall"] * _speed(p) for p in procs),
            "setup_s": _median(p["setup_s"] for p in setups + procs),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in procs),
        }
        units = {k: v[0] for k, v in END_TO_END.items()}
    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(units))} do not match the list")
    first = procs[0]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "error_rate": len(failed) / attempted,
        "failures": failed[:20],
        "calls": len(procs),
        "call_wall_s": [p["wall"] for p in procs],
        "ref_s": [p["ref_s"] for p in procs],
        "raw_wall_s": _median(p["wall"] for p in plain),
        "raw_step_s.p50": _median(t for p in plain for t in p["steps"]),
        "step_s.p50": _median(t * _speed(p) for p in plain for t in p["steps"]),
        "steps": sum(len(p["steps"]) for p in plain),
        "oa": oa,
        "metrics": {k: {"value": _finite(metrics[k]), "unit": u} for k, u in units.items()},
        "layers_hit": sorted({n for p in traced for n in p["layers_hit"]}) if trace else None,
        "machine": {
            "nproc": nproc,
            "blas": first["blas"],
            "blas_threads": first["blas_threads"],
            "child_env": CHILD_ENV,
            "python": first["python"],
            "numpy": first["numpy"],
            "commit": git_commit(),
            "load_before": load_before,
            "load_after": load_after,
            "loaded_at_start": load_before[0] > nproc,
        },
    }


def _speed(proc: dict) -> float:
    """Factor that scales a speed-adjusted process's timings to a quiet host."""
    return REF_QUIET_S / proc["ref_s"] if proc["ref_s"] else 1.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _finite(value: float) -> float:
    """A failed run can leave a metric without samples; report it as 0."""
    return float(value) if math.isfinite(value) else 0.0


def print_record(rec: dict) -> None:
    print("# run " + json.dumps(rec, sort_keys=True))
    w = rec["workload"]
    if rec["machine"]["loaded_at_start"]:
        print(f"  {w}: load average {rec['machine']['load_before'][0]:.2f} above nproc at start")
    for name, m in rec["metrics"].items():
        print(f"  {w:18s} {name:26s} {m['value']:14.6f} {m['unit']}")
    for name, unit in (("step_s.p50", "s"), ("raw_wall_s", "s"), ("raw_step_s.p50", "s"),
                       ("oa", "ratio")):
        print(f"  {w:18s} {name:26s} {_finite(rec[name]):14.6f} {unit}")
    print(f"  {w:18s} {'error_rate':26s} {rec['error_rate']:14.6f} "
          f"ratio ({rec['failed']}/{rec['attempted']}; {rec['calls']} calls, {rec['steps']} steps)")
    for f in rec["failures"]:
        print(f"  {w:18s} FAILED {f}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help=f"one of {', '.join(BENCHMARK_WORKLOADS)}, matrix-rf-jobs1, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sslcrop" / "__init__.py").is_file():
        print(f"perfbench: no sslcrop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
