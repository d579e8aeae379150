"""One benchmark process: set up a workload, time one call, check its outputs.

run.py starts one per call, in a fresh interpreter with BLAS threads
pinned, so every call pays what a command-line run pays.  Prints one JSON
line with the measured values.  With --setup-only it stops after set-up,
so run.py can time set-up more often than it runs calls.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import sslcrop.cli  # noqa: E402,F401  (part of set-up time)
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the loaded library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_name() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def reference_samples(repeats: int = 5) -> list[float]:
    """Times of a fixed numpy kernel with the desk encoder's mix of work:
    matmuls, layer-norm reductions and head-split copies on a (64, 14, 32)
    array, bound by interpreter overhead (about 21 ms each on a 2-vCPU Xeon
    VM when the host is quiet).

    It uses no sslcrop code, so a change to the package does not move it,
    while the host's speed moves it as it moves the desk workload.
    """
    rng = np.random.default_rng(0)
    x0, w = rng.normal(size=(64, 14, 32)), rng.normal(size=(32, 32)) * 0.1
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(12):
            h = x0
            for _ in range(4):
                z = np.maximum(h @ w, 0.0)
                z = (z - z.mean(axis=-1, keepdims=True)) / np.sqrt(z.var(axis=-1, keepdims=True) + 1e-5)
                h = z.reshape(64, 14, 4, 8).transpose(0, 2, 1, 3).copy().transpose(0, 2, 1, 3)
                h = h.reshape(64, 14, 32)
            h.sum()
        times.append(time.perf_counter() - t0)
    return times


class StepTimes:
    """Captures each call's repeated unit: pre-training epochs (from the
    `TrainTrace` that `train.pretrain` returns to `cli.run`) or matrix cells
    (each `cli.run` that `run_matrix` makes)."""

    def __init__(self, kind: str):
        self.kind = kind
        self.seconds: list[float] = []

    def __enter__(self):
        from sslcrop import cli

        self._cli = cli
        if self.kind == "ssl":
            self._attr, inner = "pretrain", cli.pretrain

            def hook(*args, **kwargs):
                state, trace = inner(*args, **kwargs)
                self.seconds.extend(trace.seconds)
                return state, trace
        else:
            self._attr, inner = "run", cli.run

            def hook(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.seconds.append(time.perf_counter() - t0)
        self._inner = inner
        setattr(cli, self._attr, hook)
        return self

    def __exit__(self, *exc):
        setattr(self._cli, self._attr, self._inner)


def per_layer(tracer: tr.Tracer, wall: float, cpu: float, jobs: int) -> dict:
    """Per-layer values of this process: its set-up plus its one call."""
    spans = [s for s in tracer.spans if s.name != "call"]
    kids = tr.children_by_parent(tracer.spans)
    by_id = {s.id: s for s in tracer.spans}

    def of(layer):
        return [s for s in spans if s.name == layer]

    def total(layer):
        return sum(s.seconds for s in of(layer))

    pretrains, fits = of("train.pretrain"), of("forest.fit")
    inner = ("model.", "tensor.", "augment.")
    covered = sum(
        tr.covered(p, [k for k in kids.get(p.id, []) if k.name.startswith(inner)])
        for p in pretrains
    )
    cells = [s for s in of("cli.run")
             if s.parent in by_id and by_id[s.parent].name == "cli.run_matrix"]
    return {
        "tensor.gradients_s": total("tensor.gradients"),
        "tensor.gradients_calls": len(of("tensor.gradients")),
        "tensor.sgd_step_s": total("tensor.sgd_step"),
        "model.forward_s": total("model.forward"),
        "model.forward_calls": len(of("model.forward")),
        "model.collapse_metric_s": total("model.collapse_metric"),
        "model.predict_s": total("model.predict"),
        "model.checkpoint_s": total("model.checkpoint"),
        "model.checkpoint_bytes": sum(s.count for s in of("model.checkpoint")),
        "augment.pair_s": total("augment.pair"),
        "augment.pair_calls": len(of("augment.pair")),
        "train.pretrain_s": total("train.pretrain"),
        "train.finetune_s": total("train.finetune"),
        "train.loop_self_s": sum(tr.self_seconds(s, kids)
                                 for s in of("train.pretrain") + of("train.finetune")),
        "train.pretrain_covered": covered / total("train.pretrain") if pretrains else 0.0,
        "forest.fit_s": total("forest.fit"),
        "forest.trees_per_s": sum(s.count for s in fits) / total("forest.fit") if fits else 0.0,
        "forest.predict_s": total("forest.predict"),
        "dataio.load_csv_s": total("dataio.load_csv"),
        "dataio.load_csv_calls": len(of("dataio.load_csv")),
        "dataio.make_split_s": total("dataio.make_split"),
        "synthgen.generate_s": total("synthgen.generate"),
        "evaluation.contrastive_s": total("evaluation.contrastive"),
        "cli.run_s": total("cli.run"),
        "cli.cell_s.max": max((s.seconds for s in cells), default=0.0),
        "cli.cell_wait_s": sum(s.seconds - (s.cpu1 - s.cpu0) for s in cells),
        "cli.cpu_util": cpu / (wall * jobs),
        "cli.write_artifacts_s": total("cli.write_artifacts"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--work", required=True, help="scratch directory for artifacts")
    p.add_argument("--spans", help="write the traced spans here as JSON lines")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = p.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    work = Path(args.work)
    tracer = tr.Tracer()

    @contextlib.contextmanager
    def traced():
        if not args.trace:
            yield
            return
        with tracer.installed(), tracer.call():
            yield

    with traced():
        inputs = wl.setup(workload, args.seed, work, args.tiny)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = work / "out"
    doc = {"setup_s": setup_s, "oa": None, "attempted": 1, "failed": [], "cells_failed": 0,
           "fingerprint": {}}
    ref = reference_samples() if workload.speed_adjusted else []
    with StepTimes(workload.kind) as steps:
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with traced():
                result = wl.call(inputs, out)
        except Exception as exc:  # a failed call is counted, not fatal
            result = None
            doc["failed"].append(f"call raised {type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if workload.speed_adjusted:
        ref += reference_samples()
    if result is not None:
        try:
            checked = wl.check(inputs, result, out)
        except Exception as exc:  # unreadable output fails the checks, not the run
            doc["attempted"] += 1
            doc["failed"].append(f"checks raised {type(exc).__name__}: {exc}")
        else:
            doc.update(oa=checked.oa, attempted=1 + checked.cells + checked.attempted,
                       failed=checked.failed, cells_failed=checked.cells_failed,
                       fingerprint=checked.fingerprint)
    doc.update(
        wall=wall,
        cpu=cpu,
        ref_s=sorted(ref)[len(ref) // 2] if ref else None,
        steps=steps.seconds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        blas=blas_name(),
        blas_threads=blas_threads(),
        numpy=np.__version__,
        python=sys.version.split()[0],
    )
    if args.trace:
        doc["per_layer"] = per_layer(tracer, wall, cpu, workload.jobs)
        doc["layers_hit"] = sorted({s.name for s in tracer.spans})
        if args.spans:
            tracer.write(Path(args.spans))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
