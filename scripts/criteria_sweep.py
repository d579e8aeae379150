"""Acceptance criteria 6 and 7 over more seeds.

    python3 scripts/criteria_sweep.py                      # seeds 1-6
    python3 scripts/criteria_sweep.py --seeds 4,5 --criteria 7 --jobs 2
    python3 scripts/criteria_sweep.py --src OTHER_CHECKOUT/src   # the same sweep on other code

The acceptance tests run criteria 6 and 7 on fixed seeds, so a pass or a fail
may rest on one seed's rounding.  This script runs the same configs (those of
tests/test_acceptance.py, repeated below) for each seed, each in a fresh process,
and prints:

  criterion 6  the E1 transformer's final test OA, and the epochs in 100-149
               whose test OA is below 0.90 (the model is evaluated after every
               epoch; that reads the parameters only, so training is unchanged);
  criterion 7  per seed the from-scratch and the pre-trained+fine-tuned test OA on
               E3 with target year 2018, and their gap, then the mean gap over
               seeds 1-3 (the test's) and over all seeds run.

Training and prediction run on one BLAS thread whatever the machine has, so
the numbers do not depend on its thread count.  `--jobs` runs that many
processes at once: the default sweep (12 runs) took 2 min 40 s with `--jobs 2`
on 2 cores.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

EPOCHS_6 = 150
LATE_6 = range(100, 150)


def _configs():
    from sslcrop.model import EncoderConfig, SimSiamConfig

    return (EncoderConfig(n_bands=13, n_steps=14, d_model=32, n_heads=4, n_layers=2, ff_dim=128),
            SimSiamConfig(proj_hidden=6, head_out=14, pred_hidden=14))


def _split(scenario):
    from sslcrop.dataio import make_split
    from sslcrop.synthgen import SynthConfig, generate

    return make_split(generate(SynthConfig(seed=11)), scenario)


def _oa(state, test) -> float:
    """Test OA on one BLAS thread, as every command predicts."""
    from sslcrop import blas
    from sslcrop import evaluation as E
    from sslcrop import model as M

    X = M.encoder_batch(s.reflectance for s in test.samples)
    with blas.one_thread():
        return E.overall_accuracy(M.predict_classes(state, X, 256), test.labels_array())


def criterion6(seed: int) -> dict:
    """Criterion 6's transformer on E1, with its test OA after every epoch."""
    from sslcrop import model as M
    from sslcrop import tensor as T
    from sslcrop.dataio import ScenarioSpec
    from sslcrop.train import TrainConfig, train_supervised

    enc, sim = _configs()
    train, test, _ = _split(ScenarioSpec("e1", seed=11))
    cfg = TrainConfig(seed=seed, batch_size=64, lr=0.005, epochs_supervised=EPOCHS_6)
    steps_per_epoch = -(-len(train) // cfg.batch_size)
    init_model, sgd_step = M.init_model, T.sgd_step
    states, per_epoch, steps = [], [], [0]

    def recording_init(*args, **kwargs):
        states.append(init_model(*args, **kwargs))
        return states[-1]

    def evaluating_step(*args, **kwargs):  # the epoch's last update done: evaluate
        sgd_step(*args, **kwargs)
        steps[0] += 1
        if steps[0] % steps_per_epoch == 0:
            per_epoch.append(_oa(states[-1], test))

    # the process runs this one criterion, so the wrappers stay in place
    M.init_model, T.sgd_step = recording_init, evaluating_step
    state, _ = train_supervised(train, cfg, enc, sim)
    assert len(per_epoch) == EPOCHS_6 and per_epoch[-1] == _oa(state, test)
    return {"final_oa": per_epoch[-1], "late_below_090": [e for e in LATE_6 if per_epoch[e] < 0.90]}


def criterion7(seed: int) -> dict:
    """One seed of criterion 7: from scratch against pre-trained + fine-tuned on E3/2018."""
    from sslcrop.dataio import ScenarioSpec
    from sslcrop.train import TrainConfig, finetune, pretrain, train_supervised

    enc, sim = _configs()
    train, test, _ = _split(ScenarioSpec("e3", target_year=2018, seed=11))
    budget = TrainConfig(seed=seed, batch_size=64, lr=0.005, epochs_supervised=60, epochs_finetune=60)
    scratch, _ = train_supervised(train, budget, enc, sim)
    pre_cfg = TrainConfig(seed=seed, batch_size=64, lr=0.005, epochs_pretrain=120,
                          collapse_warmup_epochs=10**9)
    backbone, _ = pretrain(train, "aug1", pre_cfg, enc, sim)
    tuned, _ = finetune(backbone, train, budget)
    scratch_oa, ssl_oa = _oa(scratch, test), _oa(tuned, test)
    return {"scratch_oa": scratch_oa, "ssl_oa": ssl_oa, "gap": ssl_oa - scratch_oa}


def run_child(src: Path, criterion: int, seed: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, __file__, "--child", str(criterion), str(seed)],
                         env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    row = {"criterion": criterion, "seed": seed, **json.loads(out.splitlines()[-1])}
    print(json.dumps(row), file=sys.stderr, flush=True)  # progress, and the rows so far
    return row


def _numbers(text: str) -> list[int]:
    values = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        values += range(int(lo), int(hi or lo) + 1)
    return values


def report(rows: list[dict], seeds: list[int]) -> list[str]:
    lines = []
    for r in sorted(rows, key=lambda r: (r["criterion"], r["seed"])):
        if r["criterion"] == 6:
            late = ",".join(map(str, r["late_below_090"])) or "none"
            lines.append(f"c6 seed {r['seed']}: final OA {r['final_oa']:.3f}; "
                         f"epochs 100-149 below 0.90: {late}")
        else:
            lines.append(f"c7 seed {r['seed']}: scratch {r['scratch_oa']:.3f}, "
                         f"ssl {r['ssl_oa']:.3f}, gap {r['gap']:+.3f}")
    gaps = {r["seed"]: r["gap"] for r in rows if r["criterion"] == 7}
    for name, group in (("seeds 1-3", [1, 2, 3]), ("all seeds run", seeds)):
        if all(s in gaps for s in group):
            mean = sum(gaps[s] for s in group) / len(group)
            lines.append(f"c7 mean gap, {name}: {mean:+.3f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-6", help="seeds, e.g. 1-6 or 1,4 (default 1-6)")
    parser.add_argument("--criteria", default="6,7", help="criteria to run (default 6,7)")
    parser.add_argument("--jobs", type=int, default=1, help="processes at once (default 1)")
    parser.add_argument("--src", type=Path, default=SRC, help="the sslcrop source tree to run")
    parser.add_argument("--json", type=Path, help="also write the rows to this file")
    parser.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        criterion, seed = args.child
        print(json.dumps({6: criterion6, 7: criterion7}[criterion](seed)))
        return 0
    seeds, criteria = _numbers(args.seeds), _numbers(args.criteria)
    if not set(criteria) <= {6, 7}:
        parser.error(f"--criteria: only 6 and 7 can be swept, got {args.criteria}")
    jobs = [(c, s) for c in criteria for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
        rows = list(pool.map(lambda job: run_child(args.src.resolve(), *job), jobs))
    print("\n".join(report(rows, seeds)))
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
