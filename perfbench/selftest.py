"""Self-test of the benchmark harness on tiny configurations (about ten seconds).

    python3 perfbench/selftest.py

For each workload: every wrap point the workload should reach fires, the
original functions are back afterwards, spans nest and no self time is
negative, a sabotaged output fails a check, and full runs through run.py
(untraced and traced) report exactly the listed metrics.  Also checks that
BENCHMARK.json lists the metrics and workloads the code reports.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import child  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)
        print(f"FAIL {what}")


def originals() -> dict:
    return {(m, a): getattr(importlib.import_module(m), a) for _, m, a, _ in tr.WRAP_POINTS}


def check_spans(name: str, tracer: tr.Tracer) -> None:
    by_id = {s.id: s for s in tracer.spans}
    kids = tr.children_by_parent(tracer.spans)
    for s in tracer.spans:
        expect(s.t1 >= s.t0, f"{name}: span {s.name} ends before it starts")
        p = by_id.get(s.parent)
        if s.parent is not None:
            expect(p is not None and p.t0 <= s.t0 and s.t1 <= p.t1,
                   f"{name}: span {s.name} not inside its parent")
        expect(tr.self_seconds(s, kids) >= 0.0, f"{name}: negative self time in {s.name}")


def check_in_process(workload: wl.Workload, tmp: Path) -> None:
    name = workload.name
    before = originals()
    tracer = tr.Tracer()
    with tracer.installed(), tracer.call():
        inputs = wl.setup(workload, 3, tmp / "in", tiny=True)
    with child.StepTimes(workload.kind) as steps:
        with tracer.installed(), tracer.call():
            result = wl.call(inputs, tmp / "out")
    after = originals()
    expect(all(after[k] is before[k] for k in before), f"{name}: a wrapped function was not restored")
    checked = wl.check(inputs, result, tmp / "out")
    expect(not checked.failed, f"{name}: checks failed on a clean call: {checked.failed}")
    hit = {s.name for s in tracer.spans}
    expect(set(workload.layers) <= hit, f"{name}: wrappers never fired: {set(workload.layers) - hit}")
    expect(len(steps.seconds) > 0, f"{name}: no step times captured")
    check_spans(name, tracer)

    # A report that differs from the first process's must fail the identity check.
    changed = {k: v[::-1] for k, v in checked.fingerprint.items()}
    expect(not wl.identity_failures(checked.fingerprint, dict(checked.fingerprint))
           and bool(wl.identity_failures(checked.fingerprint, changed)),
           f"{name}: the byte-identity check does not tell equal from changed reports")

    # A confusion matrix that loses a sample must fail the test-size check.
    from sslcrop import evaluation

    real = evaluation.confusion_matrix

    def lossy(*args, **kwargs):
        conf = real(*args, **kwargs)
        conf[conf.nonzero()[0][0], conf.nonzero()[1][0]] -= 1
        return conf

    evaluation.confusion_matrix = lossy
    try:
        sabotaged = wl.check(inputs, wl.call(inputs, tmp / "bad"), tmp / "bad")
    finally:
        evaluation.confusion_matrix = real
    expect(bool(sabotaged.failed), f"{name}: a wrong confusion matrix passed the checks")


def check_runs(workload: wl.Workload) -> None:
    for trace in (0, 1):
        rec = run.run_one(workload.name, 3, 1.0, trace, tiny=True)
        expect(rec["correct"] and rec["failed"] == 0, f"{workload.name} trace={trace}: {rec['failures']}")
        listed = run.PER_LAYER if trace else run.END_TO_END
        expect(set(rec["metrics"]) == set(listed), f"{workload.name} trace={trace}: metric names")
        if trace:
            missing = set(workload.layers) - set(rec["layers_hit"])
            expect(not missing, f"{workload.name}: traced run never hit {missing}")


def check_benchmark_json() -> None:
    path = HERE.parent / "BENCHMARK.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    expect([w["name"] for w in doc["workloads"]] == list(run.BENCHMARK_WORKLOADS),
           "BENCHMARK.json workloads differ from run.BENCHMARK_WORKLOADS")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END")
    layers = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    expect(layers == run.PER_LAYER, "BENCHMARK.json per_layer differs from run.PER_LAYER")


def main() -> int:
    check_benchmark_json()
    (HERE.parent / ".perfbench_work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE.parent / ".perfbench_work"))
    try:
        for name in run.BENCHMARK_WORKLOADS:
            workload = wl.WORKLOADS[name]
            check_in_process(workload, tmp / name)
            check_runs(workload)
            print(f"checked {name}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    print("selftest: " + ("ok" if not FAILURES else f"{len(FAILURES)} failure(s)"))
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
