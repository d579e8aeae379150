"""Training loops: supervised classification, siamese pre-training, fine-tuning.

Every phase runs the one SGD loop (`_sgd`): mini-batch SGD with momentum
(buffers that start at zero and live for one call) and coupled weight decay,
shuffled by a per-epoch stream derived from (seed, epoch), so two runs with
the same config are bitwise identical.  A phase supplies only its step; a
batch loss that is not finite stops the run with `TrainingDiverged`, and that
is its one report: numpy's floating-point warnings are off inside the loop.

Every phase computes in float32, with OpenBLAS on one thread, and returns its
model in float64 (`_float32`; exact: every float32 value is a float64 value),
so checkpoints and inference see float64 whatever phase trained the model.
A phase's encoder batches are normalized in float64 and rounded to float32
once.  A pre-training step (`_siamese_step`) encodes its two views, and later
back-propagates their encoders, in two threads: the gradients, and so every
artifact, are bitwise those of one serial forward and backward, and do not
depend on the BLAS thread count or on how many threads the step used.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import blas
from . import model as M
from . import seeding
from . import tensor as T
from .augment import KINDS, aug1_pair, aug2, aug3_pair
from .dataio import N_CLASSES, Dataset
from .model import EncoderConfig, ModelState, SimSiamConfig
from .tensor import Tensor


def branch_threads(workers: int = 1) -> int:
    """Threads for the two views of a pre-training step in one of `workers` processes
    sharing this machine's cores: max(1, min(2, cpu_count // workers))."""
    return max(1, min(2, (os.cpu_count() or 1) // workers))


@contextlib.contextmanager
def thread_pair(threads: int, name: str):
    """A two-thread pool for the block if `threads` > 1, else None; joined on exit.

    A pool lives for one call only: a pool kept across calls would be inherited,
    without its threads, by every process forked in between (matrix workers)."""
    if threads < 2:
        yield None
        return
    with concurrent.futures.ThreadPoolExecutor(2, name) as pool:
        yield pool


def in_parallel(pool: concurrent.futures.Executor | None, first, second) -> tuple:
    """(first(), second()): in `pool`'s two threads while the caller waits, so that
    whatever the caller has open (a profiler's span, say) encloses both; one after
    the other in the caller if `pool` is None.  Each thread runs in a copy of the
    caller's context, so context-held state such as `np.errstate` holds there too."""
    if pool is None:
        return first(), second()
    a, b = (pool.submit(contextvars.copy_context().run, fn) for fn in (first, second))
    return a.result(), b.result()


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.0016612
    batch_size: int = 256
    epochs_supervised: int = 300
    epochs_pretrain: int = 600
    epochs_finetune: int = 300
    momentum: float = 0.9
    weight_decay: float = 0.0005
    seed: int = 0
    finetune_mode: str = "full"  # "full" | "linear"
    collapse_warmup_epochs: int = 300
    # threads of a pre-training step (1 runs the views serially); None: branch_threads().
    # Results do not depend on it.
    branch_threads: int | None = None

    def __post_init__(self):
        if self.finetune_mode not in ("full", "linear"):
            raise ValueError(f"finetune_mode must be full or linear, got {self.finetune_mode!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and at least 0, got {self.weight_decay}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.branch_threads is not None and self.branch_threads < 1:
            raise ValueError(f"branch_threads must be at least 1, got {self.branch_threads}")
        for name in ("epochs_supervised", "epochs_pretrain", "epochs_finetune", "collapse_warmup_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")


@dataclass
class TrainTrace:
    """Per-epoch record of a run; wall-clock stays out of serialized reports."""

    losses: list[float] = field(default_factory=list)
    collapse: list[float] | None = None
    seconds: list[float] = field(default_factory=list)
    collapse_warning: bool = False

    def to_csv(self) -> str:
        lines = ["epoch,loss,collapse_metric"]
        for i, loss in enumerate(self.losses):
            c = "" if self.collapse is None else repr(self.collapse[i])
            lines.append(f"{i},{loss!r},{c}")
        return "\n".join(lines) + "\n"


class TrainingDiverged(ArithmeticError):
    """Raised when a batch loss is not finite; no later step could undo it."""


def _require_samples(phase: str, data: Dataset) -> None:
    if len(data) == 0:
        raise ValueError(f"cannot {phase} on an empty dataset")


@contextlib.contextmanager
def _float32(state: ModelState):
    """Run the block on `state` cast to float32 (`cast_state`); on the way out the
    state is float64 again, holding the same values."""
    M.cast_state(state, np.float32)
    try:
        yield
    finally:
        M.cast_state(state, np.float64)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sgd(phase: str, n: int, params: dict[str, Tensor], cfg: TrainConfig, epochs: int,
         trace: TrainTrace, step) -> TrainTrace:
    """`epochs` epochs of SGD on `params` over `n` samples, recorded in `trace`.

    `step(idx)` gives the loss (a float) of the batch of sample indices `idx`,
    d(loss)/d(params) and the batch's projections; when `trace.collapse` is a
    list, each epoch's collapse metric over its projections is appended to it.
    `phase` names the training phase in the `TrainingDiverged` message.  It runs
    with numpy's overflow/invalid/divide warnings off, in the steps' threads too: a
    blow-up shows as a non-finite loss, reported once by `TrainingDiverged`."""
    momentum: dict[str, np.ndarray] = {}
    for epoch in range(epochs):
        t0 = time.perf_counter()
        order = seeding.stream(cfg.seed, "shuffle", epoch).permutation(n)
        total, z_parts = 0.0, []
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            loss, grads, z = step(idx)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"{phase} diverged: epoch {epoch}, batch {batch}: loss {loss!r}")
            T.sgd_step(params, momentum, grads, cfg.lr, cfg.momentum, cfg.weight_decay)
            total += loss * len(idx)
            z_parts.append(z)
        trace.losses.append(total / n)
        if trace.collapse is not None:
            trace.collapse.append(M.collapse_metric(np.concatenate(z_parts)))
        trace.seconds.append(time.perf_counter() - t0)
    return trace


def _supervised_epochs(
    phase: str,
    state: ModelState,
    data: Dataset,
    params: dict,
    cfg: TrainConfig,
    epochs: int,
) -> tuple[ModelState, TrainTrace]:
    """Cross-entropy epochs on `data`, updating `params` of `state` in place, in
    float32 with OpenBLAS on one thread (the caller's count is restored)."""
    y0 = data.labels_array() - 1  # raises on unlabeled samples
    X = M.encoder_batch(s.reflectance for s in data.samples).astype(np.float32)
    with _float32(state), blas.one_thread():
        # params outside `params` are never updated, so a view made once stays current
        view = M.constant_view(state, keep=params)

        def step(idx):
            loss = T.cross_entropy(M.classify(view, X[idx]), y0[idx])
            return loss.item(), T.gradients(loss, params), None

        trace = _sgd(phase, len(X), params, cfg, epochs, TrainTrace(), step)
    return state, trace


def train_supervised(
    train: Dataset,
    cfg: TrainConfig,
    encoder: EncoderConfig,
    simsiam: SimSiamConfig | None = None,
) -> tuple[ModelState, TrainTrace]:
    """Train encoder + linear head from scratch with cross-entropy."""
    _require_samples("train", train)
    state = M.init_model(encoder, simsiam or SimSiamConfig(), n_classes=N_CLASSES, seed=cfg.seed)
    params = {**M.encoder_params(state), **M.classifier_params(state)}
    return _supervised_epochs("train", state, train, params, cfg, cfg.epochs_supervised)


def _make_pairs(
    pool: Dataset,
    indices: np.ndarray,
    aug: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The two views' encoder batches of the pairs drawn for `indices`, normalized
    in float64 and then rounded once to float32."""
    x1s, x2s = [], []
    for i in indices:
        sample = pool.samples[i]
        if aug == "aug2":
            x1, x2 = sample.reflectance, aug2(sample.reflectance, rng)
        elif aug == "aug1":
            x1, x2 = aug1_pair(pool, sample.label, rng)
        else:
            x1, x2 = aug3_pair(pool, sample.label, rng)
        x1s.append(x1)
        x2s.append(x2)
    return tuple(M.encoder_batch(xs).astype(np.float32) for xs in (x1s, x2s))


def _siamese_step(pool: concurrent.futures.Executor | None, state: ModelState,
                  params: dict[str, Tensor], x1_batch, x2_batch) -> tuple[float, dict, np.ndarray]:
    """The loss, d(loss)/d(params) and view-1 projections of one pre-training step,
    its two encoder branches run `in_parallel` on `pool`.

    Both branches encode on the state's own tensors, through `simsiam_forward`'s
    `encoder`.  `M.simsiam_forward` is looked up when the step runs, so a forward
    set in its place runs instead.
    The heads and the loss see each embedding as a leaf of their own; one backward
    through them gives the head grads and both embedding grads, and each branch
    back-propagates its encoder from its embedding's grad.  Every encoder param is
    used once per branch, so its grad is g_view1 + g_view2, a two-term sum that does
    not depend on order: the grads are bitwise those of one backward through the
    whole graph.
    """
    roots, leaves = [], []

    def encode(state, x1, x2):  # the forward's encoder, so the forward's time includes both branches
        roots.extend(in_parallel(pool, lambda: M.encode(state, x1), lambda: M.encode(state, x2)))
        leaves.extend(Tensor(e.data, requires_grad=True) for e in roots)
        return leaves

    loss, z1, _ = M.simsiam_forward(state, x1_batch, x2_batch, encoder=encode)
    encoder_params = M.encoder_params(state)
    heads = {k: p for k, p in params.items() if k not in encoder_params}
    grads = T.gradients(loss, {**heads, "<view 1>": leaves[0], "<view 2>": leaves[1]})
    s1, s2 = grads.pop("<view 1>"), grads.pop("<view 2>")
    g1, g2 = in_parallel(pool, lambda: T.gradients(roots[0], encoder_params, s1),
                         lambda: T.gradients(roots[1], encoder_params, s2))
    for k in g1:  # in place, into the copies `gradients` returned: a new array per
        g1[k] += g2[k]  # sum doubled a desk step's minor page faults (3.8k against 1.7k)
    return loss.item(), {**grads, **g1}, z1


def pretrain(
    pool: Dataset,
    aug: str,
    cfg: TrainConfig,
    encoder: EncoderConfig,
    simsiam: SimSiamConfig | None = None,
) -> tuple[ModelState, TrainTrace]:
    """Siamese pre-training over positive pairs drawn by policy `aug` (one of `KINDS`).

    Records the collapse metric of each epoch's projections and raises the
    warning flag if, past the warm-up epoch, it falls below 0.25 / sqrt(head_out),
    a quarter of the healthy level (SimSiam, arXiv:2011.10566).  Computes in
    float32 with OpenBLAS on one thread and the two views in `cfg.branch_threads`
    threads; the caller's BLAS thread count is restored and no thread outlives the call.
    """
    if aug not in KINDS:
        raise ValueError(f"unknown augmentation kind {aug!r}; choose from {KINDS}")
    _require_samples("pretrain", pool)
    if len(pool) < 2:  # each epoch's collapse metric is a spread over the pool's projections
        raise ValueError(f"cannot pretrain on a pool of {len(pool)} sample; the collapse metric needs at least 2")
    if aug in ("aug1", "aug3") and any(s.label is None for s in pool.samples):
        raise ValueError(f"{aug} needs a fully labeled pool")
    simsiam = simsiam or SimSiamConfig()
    state = M.init_model(encoder, simsiam, seed=cfg.seed)
    params = {**M.encoder_params(state), **M.head_params(state)}
    aug_rng = seeding.stream(cfg.seed, "augment")
    trace = TrainTrace(collapse=[])
    threads = cfg.branch_threads or branch_threads()
    with _float32(state), blas.one_thread(), thread_pair(threads, "sslcrop-view") as branch_pool:
        def step(idx):
            x1, x2 = _make_pairs(pool, idx, aug, aug_rng)
            return _siamese_step(branch_pool, state, params, x1, x2)

        _sgd("pretrain", len(pool), params, cfg, cfg.epochs_pretrain, trace, step)
    floor = 0.25 / math.sqrt(simsiam.head_out)
    trace.collapse_warning = any(metric < floor for metric in trace.collapse[cfg.collapse_warmup_epochs:])
    return state, trace


def finetune(
    backbone: ModelState,
    labeled: Dataset,
    cfg: TrainConfig,
) -> tuple[ModelState, TrainTrace]:
    """Attach a fresh linear head to a copy of `backbone` and train it.

    linear updates only the head; full updates encoder and head.  The copy is
    rounded to float32 once (a pre-trained backbone already holds float32
    values); the input state is never modified.
    """
    _require_samples("finetune", labeled)
    state = M.clone_state(backbone)
    M.attach_classifier(state, n_classes=N_CLASSES, seed=cfg.seed)
    if cfg.finetune_mode == "linear":
        params = M.classifier_params(state)
    else:
        params = {**M.encoder_params(state), **M.classifier_params(state)}
    return _supervised_epochs("finetune", state, labeled, params, cfg, cfg.epochs_finetune)
