"""Transformer encoder with siamese projection/prediction heads.

The encoder embeds each time step of a band series, adds sinusoidal
positions, runs post-norm self-attention blocks and max-pools over time.
On the tape that is one `embed` node, then per layer `layer_norm(attention)`
and `layer_norm(feed_forward)`, then `max_axis`; the fused nodes keep only
what their backward reads, which is what a pre-training step holds.
On top of it sit a projector and predictor MLP for the two-branch
pre-training loss (negative cosine with a stopped gradient on the target
branch), an optional linear classification head, and the collapse monitor
that tracks the per-channel spread of the l2-normalized projections.

The two views meet only at the heads, so the siamese forwards encode both
views first (through a replaceable `encoder`; pre-training runs the two on
their own `leaf_view`s in parallel threads) and then run the heads and the
loss in a fixed order, which keeps the batch-norm running statistics
updating with view 1, then view 2.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Collection

import numpy as np

from . import seeding
from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class EncoderConfig:
    n_bands: int
    n_steps: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 3
    ff_dim: int = 256
    dropout: float = 0.0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.dropout != 0.0:
            raise ValueError("dropout is fixed at 0.0 (deterministic encoder)")


@dataclass(frozen=True)
class SimSiamConfig:
    proj_hidden: int = 6
    head_out: int = 14
    pred_hidden: int = 6

    def __post_init__(self):
        if min(self.proj_hidden, self.head_out, self.pred_hidden) < 1:
            raise ValueError("head dimensions must be >= 1")


@dataclass
class ModelState:
    """All learnable tensors plus optimizer and normalization buffers."""

    encoder: EncoderConfig
    simsiam: SimSiamConfig
    params: dict[str, Tensor]
    momentum: dict[str, np.ndarray] = field(default_factory=dict)
    buffers: dict[str, np.ndarray] = field(default_factory=dict)  # BN running stats
    n_classes: int | None = None
    pos: np.ndarray | None = None  # sinusoidal table, derived from config

    def __post_init__(self):
        if self.pos is None:
            self.pos = positional_table(self.encoder.n_steps, self.encoder.d_model)


def positional_table(n_steps: int, d_model: int) -> np.ndarray:
    """Standard sinusoidal position encodings, shape (n_steps, d_model)."""
    pos = np.arange(n_steps, dtype=np.float64)[:, None]
    i = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / d_model)
    table = np.empty((n_steps, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def _init_linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> tuple[np.ndarray, np.ndarray]:
    # biases share the fan-in bound: an exactly-zero head output (all-dead
    # rectifier row) would sit on the norm-guard kink of the cosine loss
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, (fan_in, fan_out)), rng.uniform(-bound, bound, fan_out)


def init_model(
    encoder: EncoderConfig,
    simsiam: SimSiamConfig = SimSiamConfig(),
    n_classes: int | None = None,
    seed: int = 0,
) -> ModelState:
    """Fresh parameters with uniform fan-in init, fully seed-determined."""
    rng = seeding.stream(seed, "init")
    params: dict[str, np.ndarray] = {}

    def linear(name: str, fan_in: int, fan_out: int) -> None:
        w, b = _init_linear(rng, fan_in, fan_out)
        params[f"{name}.w"] = w
        params[f"{name}.b"] = b

    linear("embed", encoder.n_bands, encoder.d_model)
    for i in range(encoder.n_layers):
        for proj in ("q", "k", "v", "o"):
            linear(f"enc{i}.attn.{proj}", encoder.d_model, encoder.d_model)
        linear(f"enc{i}.ff1", encoder.d_model, encoder.ff_dim)
        linear(f"enc{i}.ff2", encoder.ff_dim, encoder.d_model)
        for ln in ("ln1", "ln2"):
            params[f"enc{i}.{ln}.gain"] = np.ones(encoder.d_model)
            params[f"enc{i}.{ln}.bias"] = np.zeros(encoder.d_model)
    # head MLPs carry batch normalization on their hidden layer (as in the
    # original two-branch method); without it every projection inherits the
    # encoder's common mean and the collapse monitor pins near zero
    linear("proj1", encoder.d_model, simsiam.proj_hidden)
    params["proj_bn.gain"] = np.ones(simsiam.proj_hidden)
    params["proj_bn.bias"] = np.zeros(simsiam.proj_hidden)
    linear("proj2", simsiam.proj_hidden, simsiam.head_out)
    linear("pred1", simsiam.head_out, simsiam.pred_hidden)
    params["pred_bn.gain"] = np.ones(simsiam.pred_hidden)
    params["pred_bn.bias"] = np.zeros(simsiam.pred_hidden)
    linear("pred2", simsiam.pred_hidden, simsiam.head_out)
    if n_classes is not None:
        linear("clf", encoder.d_model, n_classes)
    tensors = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    buffers = {
        "proj_bn.mean": np.zeros(simsiam.proj_hidden),
        "proj_bn.var": np.ones(simsiam.proj_hidden),
        "pred_bn.mean": np.zeros(simsiam.pred_hidden),
        "pred_bn.var": np.ones(simsiam.pred_hidden),
    }
    return ModelState(encoder, simsiam, tensors, buffers=buffers, n_classes=n_classes)


def attach_classifier(state: ModelState, n_classes: int, seed: int = 0) -> None:
    """Add (or replace with) a freshly initialised linear classification head."""
    rng = seeding.stream(seed, "head-init")
    w, b = _init_linear(rng, state.encoder.d_model, n_classes)
    state.params["clf.w"] = Tensor(w, requires_grad=True)
    state.params["clf.b"] = Tensor(b, requires_grad=True)
    state.momentum.pop("clf.w", None)
    state.momentum.pop("clf.b", None)
    state.n_classes = n_classes


def clone_state(state: ModelState) -> ModelState:
    """Independent copy of parameters and buffers; momentum starts fresh."""
    params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in state.params.items()}
    buffers = {k: v.copy() for k, v in state.buffers.items()}
    return ModelState(state.encoder, state.simsiam, params, buffers=buffers, n_classes=state.n_classes)


def encoder_params(state: ModelState) -> dict[str, Tensor]:
    return {k: v for k, v in state.params.items() if k.startswith(("embed", "enc"))}


def head_params(state: ModelState) -> dict[str, Tensor]:
    return {k: v for k, v in state.params.items() if k.startswith(("proj", "pred"))}


def projector_params(state: ModelState) -> dict[str, Tensor]:
    return {k: v for k, v in state.params.items() if k.startswith("proj")}


def classifier_params(state: ModelState) -> dict[str, Tensor]:
    return {k: v for k, v in state.params.items() if k.startswith("clf")}


# ---------------------------------------------------------------------------
# forward passes


def _linear(x: Tensor, state: ModelState, name: str) -> Tensor:
    return T.linear(x, state.params[f"{name}.w"], state.params[f"{name}.b"])


def _attention(x: Tensor, state: ModelState, layer: int) -> Tensor:
    """x plus the layer's self-attention (the residual branch before ln1)."""
    params = [state.params[f"enc{layer}.attn.{proj}.{part}"] for proj in "qkvo" for part in "wb"]
    return T.attention(x, *params, n_heads=state.encoder.n_heads)


def encode(state: ModelState, batch) -> Tensor:
    """Embed a normalized batch (B, n_steps, n_bands) into (B, d_model)."""
    x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch, dtype=np.float64))
    cfg = state.encoder
    if x.data.ndim != 3 or x.shape[1] != cfg.n_steps or x.shape[2] != cfg.n_bands:
        raise ValueError(
            f"batch shape {x.shape} does not match (B, {cfg.n_steps}, {cfg.n_bands})"
        )
    p = state.params
    # embeddings are scaled by sqrt(d_model) so band information is not
    # drowned out by the unit-magnitude positional encodings
    x = T.embed(x, p["embed.w"], p["embed.b"], math.sqrt(cfg.d_model), state.pos)
    for i in range(cfg.n_layers):
        x = T.layer_norm(_attention(x, state, i), p[f"enc{i}.ln1.gain"], p[f"enc{i}.ln1.bias"])
        ff = [p[f"enc{i}.{name}.{part}"] for name in ("ff1", "ff2") for part in "wb"]
        x = T.layer_norm(T.feed_forward(x, *ff), p[f"enc{i}.ln2.gain"], p[f"enc{i}.ln2.bias"])
    return T.max_axis(x, axis=1)


_BN_MOMENTUM = 0.1


def _head_bn(state: ModelState, x: Tensor, name: str, training: bool) -> Tensor:
    gain, bias = state.params[f"{name}.gain"], state.params[f"{name}.bias"]
    if training:
        out, mean, var = T.batch_norm(x, gain, bias)
        state.buffers[f"{name}.mean"] *= 1.0 - _BN_MOMENTUM
        state.buffers[f"{name}.mean"] += _BN_MOMENTUM * mean
        state.buffers[f"{name}.var"] *= 1.0 - _BN_MOMENTUM
        state.buffers[f"{name}.var"] += _BN_MOMENTUM * var
        return out
    return T.batch_norm_eval(x, gain, bias, state.buffers[f"{name}.mean"], state.buffers[f"{name}.var"])


def project(state: ModelState, emb: Tensor, training: bool = True) -> Tensor:
    h = _head_bn(state, _linear(emb, state, "proj1"), "proj_bn", training)
    return _linear(T.relu(h), state, "proj2")


def predict_head(state: ModelState, z: Tensor, training: bool = True) -> Tensor:
    h = _head_bn(state, _linear(z, state, "pred1"), "pred_bn", training)
    return _linear(T.relu(h), state, "pred2")


def _neg_cosine(a: Tensor, b: Tensor) -> Tensor:
    """Mean over the batch of minus the cosine similarity between rows."""
    return T.scale(T.mean_all(T.sum_last(T.mul(T.l2_normalize(a), T.l2_normalize(b)))), -1.0)


def encode_views(state: ModelState, x1_batch, x2_batch) -> tuple[Tensor, Tensor]:
    """Both views' embeddings, encoded one after the other on `state`."""
    return encode(state, x1_batch), encode(state, x2_batch)


def simsiam_forward(
    state: ModelState, x1_batch, x2_batch, training: bool = True, encoder=encode_views
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Two-branch loss; also returns both projection batches for monitoring.

    `encoder(state, x1_batch, x2_batch)` gives both views' embeddings; the heads
    and the loss then run on them in order."""
    e1, e2 = encoder(state, x1_batch, x2_batch)
    z1 = project(state, e1, training)
    z2 = project(state, e2, training)
    p1 = predict_head(state, z1, training)
    p2 = predict_head(state, z2, training)
    loss = T.add(
        T.scale(_neg_cosine(p1, T.stop_gradient(z2)), 0.5),
        T.scale(_neg_cosine(p2, T.stop_gradient(z1)), 0.5),
    )
    return loss, z1.data, z2.data


def simsiam_loss(state: ModelState, x1_batch, x2_batch, training: bool = True) -> Tensor:
    """Symmetric stop-gradient loss; scalar in [-1, 1]."""
    return simsiam_forward(state, x1_batch, x2_batch, training)[0]


def direct_cosine_forward(
    state: ModelState, x1_batch, x2_batch, training: bool = True, encoder=encode_views
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Ablation objective: plain negative cosine between projections.

    No predictor, no stop-gradient.  This is the textbook collapse mode of
    two-branch training and exists to exercise the collapse monitor.  `encoder`
    is as in `simsiam_forward`.
    """
    e1, e2 = encoder(state, x1_batch, x2_batch)
    z1 = project(state, e1, training)
    z2 = project(state, e2, training)
    return _neg_cosine(z1, z2), z1.data, z2.data


def collapse_metric(z_batch: np.ndarray) -> float:
    """Mean per-channel standard deviation of l2-normalized rows.

    Healthy training keeps this near 1/sqrt(dim); a slide toward zero means
    the embeddings are collapsing onto a single direction.
    """
    z = np.asarray(z_batch, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError(f"need a (B>=2, dim) batch, got shape {z.shape}")
    norms = np.maximum(np.sqrt((z * z).sum(axis=1, keepdims=True)), 1e-12)
    return float((z / norms).std(axis=0).mean())


def classify(state: ModelState, batch) -> Tensor:
    """Logits of the linear head over encoder embeddings, shape (B, n_classes)."""
    if "clf.w" not in state.params:
        raise ValueError("model has no classification head; attach one first")
    return _linear(encode(state, batch), state, "clf")


def constant_view(state: ModelState, keep: Collection[str] = ()) -> ModelState:
    """The same model on constant tensors sharing the params' arrays (nothing is copied),
    except the params named in `keep`, which stay the state's own tensors.

    Forward passes on the view record tape only through `keep`: inference keeps no
    graph alive, and training a head alone tapes no encoder."""
    return replace(state, params={k: p if k in keep else Tensor(p.data)
                                  for k, p in state.params.items()})


def leaf_view(state: ModelState, names: Collection[str]) -> ModelState:
    """The same model with fresh leaf tensors, sharing the params' arrays, for the
    params in `names` (like `constant_view`, but taping): a backward pass through a
    forward on the view leaves those grads on the view's tensors, not the state's."""
    return replace(state, params={k: Tensor(p.data, requires_grad=True) if k in names else p
                                  for k, p in state.params.items()})


def predict_classes(state: ModelState, batch) -> np.ndarray:
    """Predicted class indices (1-based); argmax ties go to the lowest index."""
    logits = classify(constant_view(state), batch).data
    return logits.argmax(axis=1) + 1


def predict_batched(state: ModelState, X: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """`predict_classes` over a normalized (N, n_steps, n_bands) array, batch by batch."""
    return np.concatenate([predict_classes(state, X[i : i + batch_size]) for i in range(0, len(X), batch_size)])


def encode_batched(state: ModelState, X: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Encoder embeddings (N, d_model) of a normalized array, batch by batch, on no tape."""
    view = constant_view(state)
    return np.concatenate([encode(view, X[i : i + batch_size]).data for i in range(0, len(X), batch_size)])


# ---------------------------------------------------------------------------
# checkpoints

_FORMAT = "sslcrop-model"
_VERSION = 1


def _encode_array(a: np.ndarray) -> dict:
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    a = np.frombuffer(base64.b64decode(d["data"]), dtype="<f8").astype(np.float64)
    return a.reshape(d["shape"])


def checkpoint_text(state: ModelState) -> str:
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "encoder": asdict(state.encoder),
        "simsiam": asdict(state.simsiam),
        "n_classes": state.n_classes,
        "params": {k: _encode_array(p.data) for k, p in state.params.items()},
        "momentum": {k: _encode_array(v) for k, v in state.momentum.items()},
        "buffers": {k: _encode_array(v) for k, v in state.buffers.items()},
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def save_checkpoint(state: ModelState, path: str | Path) -> None:
    Path(path).write_text(checkpoint_text(state), encoding="utf-8")


def load_checkpoint(path: str | Path) -> ModelState:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    encoder = EncoderConfig(**doc["encoder"])
    simsiam = SimSiamConfig(**doc["simsiam"])
    params = {k: _decode_array(v) for k, v in doc["params"].items()}
    momentum = {k: _decode_array(v) for k, v in doc["momentum"].items()}
    buffers = {k: _decode_array(v) for k, v in doc["buffers"].items()}
    # names and shapes must be what the configs build, so a bad entry fails
    # here and names its key instead of breaking a later forward pass
    fresh = init_model(encoder, simsiam, n_classes=doc["n_classes"])
    want = {k: p.shape for k, p in fresh.params.items()}
    for kind, got, expected in (("param", params, want), ("momentum", momentum, want),
                                ("buffer", buffers, {k: b.shape for k, b in fresh.buffers.items()})):
        for key in sorted(set(got) | (set() if kind == "momentum" else set(expected))):
            if key not in got or got[key].shape != expected.get(key):
                have = f"shape {got[key].shape}" if key in got else "missing"
                raise ValueError(f"{path}: {kind} {key!r}: {have}, expected {expected.get(key, 'no such key')}")
    return ModelState(
        encoder, simsiam, {k: Tensor(v, requires_grad=True) for k, v in params.items()},
        momentum=momentum, buffers=buffers, n_classes=doc["n_classes"],
    )
