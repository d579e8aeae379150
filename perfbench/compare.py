"""Compare two result sets of perfbench runs, metric by metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are files or directories of saved run.py output (the
`# run` lines are read; other lines are ignored).  Runs are paired by
workload, trace mode and seed; run the two sides alternately, switching
which goes first, for the pairs to mean anything.  For each workload and
metric it prints both medians and quartiles, the share of pairs the change
wins (ties count for neither side), and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (per-layer metrics have none: worse when
              the parent wins 9/10 of the pairs and the medians differ by
              more than the parent's quartile distance);
  no worse    within the bound, with both sides' spreads within it;
  unresolved  anything else, e.g. a spread wider than the bound, unless
              every change run beats every parent run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END, PER_LAYER  # noqa: E402

WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    return [
        json.loads(line[len("# run "):])
        for f in files if f.is_file()
        for line in f.read_text(encoding="utf-8").splitlines() if line.startswith("# run ")
    ]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            higher_better: bool, bound: float | None) -> tuple[str, float]:
    """Verdict for change values `b` against parent values `a`."""
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = wins / len(pairs) if pairs else 0.0
    qa, qb = _quartiles(a), _quartiles(b)
    gain = sign * (qb[1] - qa[1])          # > 0 means the change is better
    parent_iqr = qa[2] - qa[0]
    if share >= WIN_SHARE and gain > parent_iqr:
        return "improved", share
    if bound is None:
        if pairs and losses / len(pairs) >= WIN_SHARE and -gain > parent_iqr:
            return "worse", share
        return "unresolved", share
    base = abs(qa[1]) or 1.0
    spread = max((qa[2] - qa[0]) / base, (qb[2] - qb[0]) / (abs(qb[1]) or 1.0))
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if -gain / base > bound:
        return "worse", share
    if spread > bound and not all_better:
        return "unresolved", share
    return "no worse", share


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    rows = []
    keys = sorted({(r["workload"], r["trace"]) for r in parent + change})
    for workload, trace in keys:
        a_runs = [r for r in parent if (r["workload"], r["trace"]) == (workload, trace)]
        b_runs = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        if not a_runs or not b_runs:
            rows.append(f"{workload} trace={trace}: runs on one side only")
            continue
        b_by_seed: dict[int, list[dict]] = {}
        for r in b_runs:
            b_by_seed.setdefault(r["seed"], []).append(r)
        names = sorted(set(a_runs[0]["metrics"]) & set(b_runs[0]["metrics"]))
        for name in names:
            unit, better, *rest = END_TO_END.get(name) or PER_LAYER[name]
            bound = rest[0] if rest else None
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            pairs, used = [], {}
            for r in a_runs:
                k = used.get(r["seed"], 0)
                match = b_by_seed.get(r["seed"], [])
                if k < len(match):
                    pairs.append((r["metrics"][name]["value"], match[k]["metrics"][name]["value"]))
                    used[r["seed"]] = k + 1
            text, share = verdict(a, b, pairs, better == "higher", bound)
            qa, qb = _quartiles(a), _quartiles(b)
            rows.append(
                f"{workload:16s} {name:26s} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {unit}"
                f"  wins {share:.0%} of {len(pairs)}  {text}"
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(p)) for p in argv)
    if not parent or not change:
        print("compare: no '# run' lines found on one side", file=sys.stderr)
        return 1
    for row in compare(parent, change):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
