"""Training loops: supervised classification, siamese pre-training, fine-tuning.

All loops are plain mini-batch SGD with momentum (buffers that start at zero
and live for one call) and coupled weight decay,
shuffled by a per-epoch stream derived from (seed, epoch), so two runs with
the same config are bitwise identical.

A pre-training step encodes its two views, and later back-propagates their
encoders, in two threads (`_Branches`), with OpenBLAS on one thread: the
gradients, and so every artifact, are bitwise those of one serial forward and
backward, and do not depend on the BLAS thread count or on how many threads
the step used.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import blas
from . import model as M
from . import seeding
from . import tensor as T
from .augment import AugmentationPolicy, aug1_pair, aug2, aug3_pair
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
    the other in the caller if `pool` is None."""
    if pool is None:
        return first(), second()
    a, b = pool.submit(first), pool.submit(second)
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
    finetune_mode: str = "full"  # "full" | "linear_probe"
    dn_scale: float = 10000.0
    collapse_warmup_epochs: int = 300
    collapse_threshold_factor: float = 0.25
    # threads of a pre-training step (1 runs the views serially); None: branch_threads().
    # Results do not depend on it.
    branch_threads: int | None = None

    def __post_init__(self):
        if self.finetune_mode not in ("full", "linear_probe"):
            raise ValueError(f"unknown finetune_mode {self.finetune_mode!r}")
        if min(self.lr, self.batch_size, self.dn_scale) <= 0:
            raise ValueError("lr, batch_size and dn_scale must be positive")
        if self.branch_threads is not None and self.branch_threads < 1:
            raise ValueError(f"branch_threads must be at least 1, got {self.branch_threads}")


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


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _supervised_epochs(
    state: ModelState,
    data: Dataset,
    params: dict,
    cfg: TrainConfig,
    epochs: int,
) -> tuple[ModelState, TrainTrace]:
    """Cross-entropy epochs on `data`, updating `params` of `state` in place."""
    y0 = data.labels_array() - 1  # raises on unlabeled samples
    X = M.encoder_batch((s.reflectance for s in data.samples), cfg.dn_scale)
    n = len(X)
    trace = TrainTrace()
    # params outside `params` are never updated, so a view made once stays current
    view = M.constant_view(state, keep=params)
    momentum: dict[str, np.ndarray] = {}
    for epoch in range(epochs):
        t0 = time.perf_counter()
        order = seeding.stream(cfg.seed, "shuffle", epoch).permutation(n)
        total = 0.0
        for idx in _batches(n, cfg.batch_size, order):
            loss = T.cross_entropy(M.classify(view, X[idx]), y0[idx])
            grads = T.gradients(loss, params)
            T.sgd_step(params, momentum, grads, cfg.lr, cfg.momentum, cfg.weight_decay)
            total += loss.item() * len(idx)
        trace.losses.append(total / n)
        trace.seconds.append(time.perf_counter() - t0)
    return state, trace


def train_supervised(
    train: Dataset,
    cfg: TrainConfig,
    encoder: EncoderConfig | None = None,
    simsiam: SimSiamConfig | None = None,
) -> tuple[ModelState, TrainTrace]:
    """Train encoder + linear head from scratch with cross-entropy."""
    encoder = encoder or EncoderConfig(n_bands=train.n_bands, n_steps=train.n_steps)
    state = M.init_model(encoder, simsiam or SimSiamConfig(), n_classes=N_CLASSES, seed=cfg.seed)
    params = {**M.encoder_params(state), **M.classifier_params(state)}
    return _supervised_epochs(state, train, params, cfg, cfg.epochs_supervised)


def _make_pairs(
    pool: Dataset,
    indices: np.ndarray,
    policy: AugmentationPolicy,
    rng: np.random.Generator,
    dn_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The two views' encoder batches of the pairs drawn for `indices`."""
    x1s, x2s = [], []
    for i in indices:
        sample = pool.samples[i]
        if policy.kind == "aug2":
            x1, x2 = sample.reflectance, aug2(sample.reflectance, rng, policy)
        elif policy.kind == "aug1":
            x1, x2 = aug1_pair(pool, sample.label, rng)
        else:
            x1, x2 = aug3_pair(pool, sample.label, rng, policy)
        x1s.append(x1)
        x2s.append(x2)
    return M.encoder_batch(x1s, dn_scale), M.encoder_batch(x2s, dn_scale)


class _Branches:
    """The two encoder branches of one pre-training step, run `in_parallel` on `pool`.

    Each branch encodes its view on its own leaf tensors for the encoder params,
    sharing their arrays, so no two threads write one `.grad`.  The heads and the
    loss see each embedding as a leaf of their own; one backward through them gives
    the head grads and both embedding grads, and each branch back-propagates its
    encoder from its embedding's grad.  Every encoder param is used once per
    branch, so its grad is g_view1 + g_view2, a two-term sum that does not depend on
    order: the grads are bitwise those of one backward through the whole graph.
    """

    def __init__(self, pool: concurrent.futures.Executor | None):
        self.pool = pool

    def _both(self, fn, args1: tuple, args2: tuple) -> tuple:
        return in_parallel(self.pool, lambda: fn(*args1), lambda: fn(*args2))

    def encode(self, state: ModelState, x1_batch, x2_batch) -> tuple[Tensor, Tensor]:
        """The `encoder` of the siamese forwards: both views' embeddings, as leaves."""
        names = M.encoder_params(state)
        self.views = (M.leaf_view(state, names), M.leaf_view(state, names))
        self.roots = self._both(M.encode, (self.views[0], x1_batch), (self.views[1], x2_batch))
        self.embeddings = tuple(Tensor(e.data, requires_grad=True) for e in self.roots)
        return self.embeddings

    def gradients(self, loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
        """d(loss)/d(p) for `params`, the state's encoder params and some of its heads'."""
        view1, view2 = (M.encoder_params(view) for view in self.views)
        heads = {k: p for k, p in params.items() if k not in view1}
        e1, e2 = self.embeddings
        grads = T.gradients(loss, {**heads, "<view 1>": e1, "<view 2>": e2})
        g1, g2 = self._both(T.gradients, (self.roots[0], view1, grads.pop("<view 1>")),
                            (self.roots[1], view2, grads.pop("<view 2>")))
        for k in g1:  # in place, into the copies `gradients` returned: a new array per
            g1[k] += g2[k]  # sum doubled a desk step's minor page faults (3.8k against 1.7k)
        return {**grads, **g1}


def pretrain(
    pool: Dataset,
    policy: AugmentationPolicy,
    cfg: TrainConfig,
    encoder: EncoderConfig | None = None,
    simsiam: SimSiamConfig | None = None,
    objective: str = "simsiam",
) -> tuple[ModelState, TrainTrace]:
    """Siamese pre-training over positive pairs drawn by the given policy.

    Records the collapse metric of each epoch's projections and raises the
    warning flag if, past the warm-up epoch, it falls below
    collapse_threshold_factor / sqrt(head_out).  Runs with OpenBLAS on one
    thread and the two views in `cfg.branch_threads` threads; the caller's BLAS
    thread count is restored and no thread outlives the call.
    """
    if objective not in ("simsiam", "direct_cosine"):
        raise ValueError(f"unknown objective {objective!r}")
    if policy.kind in ("aug1", "aug3") and any(s.label is None for s in pool.samples):
        raise ValueError(f"{policy.kind} needs a fully labeled pool")
    encoder = encoder or EncoderConfig(n_bands=pool.n_bands, n_steps=pool.n_steps)
    simsiam = simsiam or SimSiamConfig()
    state = M.init_model(encoder, simsiam, seed=cfg.seed)
    if objective == "simsiam":
        forward = M.simsiam_forward
        params = {**M.encoder_params(state), **M.head_params(state)}
    else:
        forward = M.direct_cosine_forward
        params = {**M.encoder_params(state), **M.projector_params(state)}
    aug_rng = seeding.stream(cfg.seed, "augment")
    n = len(pool)
    floor = cfg.collapse_threshold_factor / math.sqrt(simsiam.head_out)
    trace = TrainTrace(collapse=[])
    momentum: dict[str, np.ndarray] = {}
    with blas.one_thread(), thread_pair(cfg.branch_threads or branch_threads(), "sslcrop-view") as branch_pool:
        for epoch in range(cfg.epochs_pretrain):
            t0 = time.perf_counter()
            order = seeding.stream(cfg.seed, "shuffle", epoch).permutation(n)
            total = 0.0
            z_parts = []
            for idx in _batches(n, cfg.batch_size, order):
                x1, x2 = _make_pairs(pool, idx, policy, aug_rng, cfg.dn_scale)
                step = _Branches(branch_pool)
                loss, z1, _ = forward(state, x1, x2, encoder=step.encode)
                grads = step.gradients(loss, params)
                T.sgd_step(params, momentum, grads, cfg.lr, cfg.momentum, cfg.weight_decay)
                total += loss.item() * len(idx)
                z_parts.append(z1)
            trace.losses.append(total / n)
            metric = M.collapse_metric(np.concatenate(z_parts))
            trace.collapse.append(metric)
            if epoch + 1 > cfg.collapse_warmup_epochs and metric < floor:
                trace.collapse_warning = True
            trace.seconds.append(time.perf_counter() - t0)
    return state, trace


def finetune(
    backbone: ModelState,
    labeled: Dataset,
    cfg: TrainConfig,
) -> tuple[ModelState, TrainTrace]:
    """Attach a fresh linear head to a copy of `backbone` and train it.

    linear_probe updates only the head; full updates encoder and head.  The
    input state is never modified.
    """
    state = M.clone_state(backbone)
    M.attach_classifier(state, n_classes=N_CLASSES, seed=cfg.seed)
    if cfg.finetune_mode == "linear_probe":
        params = M.classifier_params(state)
    else:
        params = {**M.encoder_params(state), **M.classifier_params(state)}
    return _supervised_epochs(state, labeled, params, cfg, cfg.epochs_finetune)
