"""Transformer encoder with siamese projection/prediction heads.

The encoder embeds each time step of a band series, adds sinusoidal
positions, runs post-norm self-attention blocks and max-pools over time.
On the tape that is one `embed` node, then per layer an `attention` and a
`feed_forward` node, each returning its layer norm's xhat for the next node
to apply that norm's gain and bias, then one `affine` node for the last norm
and `max_axis`; the fused nodes keep only what their backward reads and
rebuild what one product gives back (a block's input, the attention's q, k,
v and context, the feed-forward hidden layer), which is what a pre-training
step holds.  Inference encodes `INFERENCE_BLOCK` samples at a time on no
tape.
On top of it sit a projector and predictor MLP for the two-branch
pre-training loss (negative cosine with a stopped gradient on the target
branch), an optional linear classification head, and the collapse monitor
that tracks the per-channel spread of the l2-normalized projections.

The two views meet only at the heads, so the siamese forwards encode both
views first (through a replaceable `encoder`; pre-training runs the two in
parallel threads) and then run the heads and the loss in a fixed order,
which keeps the batch-norm running statistics updating with view 1, then
view 2.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Collection, Iterable

import numpy as np

from . import seeding
from . import tensor as T
from .dataio import DN_SCALE
from .tensor import Tensor


@dataclass(frozen=True)
class EncoderConfig:
    n_bands: int
    n_steps: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 3
    ff_dim: int = 256

    def __post_init__(self):
        for name in ("d_model", "n_heads", "ff_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must not be negative, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


@dataclass(frozen=True)
class SimSiamConfig:
    proj_hidden: int = 6
    head_out: int = 14
    pred_hidden: int = 6

    def __post_init__(self):
        for name in ("proj_hidden", "head_out", "pred_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class ModelState:
    """All learnable tensors plus normalization buffers."""

    encoder: EncoderConfig
    simsiam: SimSiamConfig
    params: dict[str, Tensor]
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
    state.n_classes = n_classes


def clone_state(state: ModelState) -> ModelState:
    """Independent copy of parameters and buffers."""
    params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in state.params.items()}
    buffers = {k: v.copy() for k, v in state.buffers.items()}
    return ModelState(state.encoder, state.simsiam, params, buffers=buffers, n_classes=state.n_classes)


def cast_state(state: ModelState, dtype) -> None:
    """Store `state`'s params and positional table as `dtype`, in place.  The BN
    running buffers stay float64: they are updated in place, so float32 batch
    statistics widen into them exactly."""
    for p in state.params.values():
        p.data = p.data.astype(dtype)
    state.pos = state.pos.astype(dtype)


def encoder_params(state: ModelState) -> dict[str, Tensor]:
    return {k: v for k, v in state.params.items() if k.startswith(("embed", "enc"))}


def head_params(state: ModelState) -> dict[str, Tensor]:
    return {k: v for k, v in state.params.items() if k.startswith(("proj", "pred"))}


def classifier_params(state: ModelState) -> dict[str, Tensor]:
    return {k: v for k, v in state.params.items() if k.startswith("clf")}


# ---------------------------------------------------------------------------
# forward passes


def _linear(x: Tensor, state: ModelState, name: str) -> Tensor:
    return T.linear(x, state.params[f"{name}.w"], state.params[f"{name}.b"])


def encoder_batch(series: Iterable[np.ndarray]) -> np.ndarray:
    """The encoder's input: DN series (each n_bands x n_steps) as one
    (N, n_steps, n_bands) batch of reflectance (divided by DN_SCALE)."""
    return np.stack([x.T for x in series]) / DN_SCALE


def encode(state: ModelState, batch) -> Tensor:
    """Embed a normalized batch (B, n_steps, n_bands) into (B, d_model), in the
    dtype of the batch and the state (float32 in training, float64 in inference)."""
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    cfg = state.encoder
    if x.data.ndim != 3 or x.shape[1] != cfg.n_steps or x.shape[2] != cfg.n_bands:
        raise ValueError(
            f"batch shape {x.shape} does not match (B, {cfg.n_steps}, {cfg.n_bands})"
        )
    p = state.params
    # embeddings are scaled by sqrt(d_model) so band information is not
    # drowned out by the unit-magnitude positional encodings
    x = T.embed(x, p["embed.w"], p["embed.b"], math.sqrt(cfg.d_model), state.pos)
    norm = ()  # the gain and bias of the layer norm whose xhat x is
    for i in range(cfg.n_layers):
        attn = [p[f"enc{i}.attn.{proj}.{part}"] for proj in "qkvo" for part in "wb"]
        x = T.attention(x, *attn, n_heads=cfg.n_heads, norm=norm)
        ff = [p[f"enc{i}.{name}.{part}"] for name in ("ff1", "ff2") for part in "wb"]
        x = T.feed_forward(x, *ff, norm=(p[f"enc{i}.ln1.gain"], p[f"enc{i}.ln1.bias"]))
        norm = (p[f"enc{i}.ln2.gain"], p[f"enc{i}.ln2.bias"])
    if norm:
        x = T.affine(x, *norm)
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


def collapse_metric(z_batch: np.ndarray) -> float:
    """Mean per-channel standard deviation of l2-normalized rows.

    Healthy training keeps this near 1/sqrt(dim); a slide toward zero means
    the embeddings are collapsing onto a single direction.
    """
    z = Tensor(z_batch)
    if z.data.ndim != 2 or z.shape[0] < 2:
        raise ValueError(f"need a (B>=2, dim) batch, got shape {z.shape}")
    return float(T.l2_normalize(z).data.std(axis=0).mean())


def _classifier(state: ModelState, emb: Tensor) -> Tensor:
    if "clf.w" not in state.params:
        raise ValueError("model has no classification head; attach one first")
    return _linear(emb, state, "clf")


def classify(state: ModelState, batch) -> Tensor:
    """Logits of the linear head over encoder embeddings, shape (B, n_classes)."""
    return _classifier(state, encode(state, batch))


def constant_view(state: ModelState, keep: Collection[str] = ()) -> ModelState:
    """The same model on constant tensors sharing the params' arrays (nothing is copied),
    except the params named in `keep`, which stay the state's own tensors.

    Forward passes on the view record tape only through `keep`: inference keeps no
    graph alive, and training a head alone tapes no encoder."""
    return replace(state, params={k: p if k in keep else Tensor(p.data)
                                  for k, p in state.params.items()})


# Samples per encoder pass in inference.  On one BLAS thread a row's result does not
# depend on its block, and 64 bounds the pass's arrays at any input size.
INFERENCE_BLOCK = 64


def encode_batched(state: ModelState, X: np.ndarray) -> np.ndarray:
    """Encoder embeddings (N, d_model) of an encoder batch, `INFERENCE_BLOCK` samples at
    a time, on no tape."""
    view = constant_view(state)
    return np.concatenate([encode(view, X[i : i + INFERENCE_BLOCK]).data
                           for i in range(0, len(X), INFERENCE_BLOCK)])


def predict_classes(state: ModelState, X: np.ndarray) -> np.ndarray:
    """Predicted class indices (1-based) of an encoder batch, encoded as by
    `encode_batched`; argmax ties go to the lowest index."""
    logits = _classifier(constant_view(state), Tensor(encode_batched(state, X))).data
    return logits.argmax(axis=1) + 1


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
        "buffers": {k: _encode_array(v) for k, v in state.buffers.items()},
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def _config(path, doc: dict, section: str, cls):
    """`doc[section]` as a `cls`; it must give every field of `cls` and no other key."""
    given = doc.get(section, {})
    names = {f.name for f in fields(cls)}
    if set(given) != names:
        raise ValueError(f"{path}: {section}: unknown keys {sorted(set(given) - names)}, "
                         f"missing keys {sorted(names - set(given))}")
    try:
        return cls(**given)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {section}: {exc}") from None


def load_checkpoint(path: str | Path) -> ModelState:
    """The model a checkpoint holds.  Older files' `momentum` section (no command
    resumes training) and `encoder.dropout` (always 0.0) are ignored."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    for section in ("params", "buffers", "n_classes"):
        if section not in doc:
            raise ValueError(f"{path}: {section}: missing")
    doc.get("encoder", {}).pop("dropout", None)
    encoder = _config(path, doc, "encoder", EncoderConfig)
    simsiam = _config(path, doc, "simsiam", SimSiamConfig)
    params = {k: _decode_array(v) for k, v in doc["params"].items()}
    buffers = {k: _decode_array(v) for k, v in doc["buffers"].items()}
    # names and shapes must be what the configs build, so a bad entry fails
    # here and names its key instead of breaking a later forward pass
    fresh = init_model(encoder, simsiam, n_classes=doc["n_classes"])
    for kind, got, expected in (("param", params, {k: p.shape for k, p in fresh.params.items()}),
                                ("buffer", buffers, {k: b.shape for k, b in fresh.buffers.items()})):
        for key in sorted(set(got) | set(expected)):
            if key not in got or got[key].shape != expected.get(key):
                have = f"shape {got[key].shape}" if key in got else "missing"
                raise ValueError(f"{path}: {kind} {key!r}: {have}, expected {expected.get(key, 'no such key')}")
    return ModelState(
        encoder, simsiam, {k: Tensor(v, requires_grad=True) for k, v in params.items()},
        buffers=buffers, n_classes=doc["n_classes"],
    )
