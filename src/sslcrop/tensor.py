"""Dense float32/float64 tensors with reverse-mode automatic differentiation.

Every operation on a tensor that needs a gradient records its parents and
local backward rule on the result, so the computation graph doubles as the
gradient tape; operations on tensors that need none record nothing, which
is how inference runs without a tape.  Gradients are obtained by
topologically replaying the graph from a scalar root, or from a root of any
shape seeded with a gradient of that shape (`gradients(..., grad=)`, a
vector-Jacobian product: the siamese pre-training step back-propagates each
view's encoder from its embedding's gradient this way).  A tape is single
use: the pass releases each interior node's gradient, backward rule and
parents as soon as it has propagated them, so the graph is freed while the
pass runs, and replaying a consumed tape raises `GradientContractError`.
Gradients live in the pass, never on a tensor, so two threads may run
backward passes through graphs that share leaves.  `stop_gradient` inserts
a node that backward passes treat as a constant, which is what the siamese
pre-training loss needs.

A backward rule never writes into the gradient it receives: that array may
also be another node's gradient (`add` hands one array to both parents, and a
parent's first gradient is the array its child returned).  Rules write only
into arrays they allocated themselves, which is how `_normalize` keeps its
large temporaries few.

Storage is a row-major ndarray: float32 stays float32, everything else is
float64.  Every array a node or the optimizer allocates takes its operands'
dtype, so a float32 graph (every training phase) computes, back-propagates
and updates in float32; one float64 array would widen the rest of the pass
and take it off the float32 BLAS kernels.  Broadcasting is restricted to
last-axis bias/gain addition and the positional table of `embed`, so every
backward rule stays easy to audit.  The encoder's blocks are single nodes
(`embed`, `attention` and `feed_forward`, the last two ending with their layer
norm, and `linear` for a dense layer).  A node's backward rule closes over only
the arrays it reads, so an intermediate such as the feed-forward pre-activation
is not kept alive for the backward pass, and an array that one product gives
back (the attention's q, k and v and its context, the feed-forward hidden layer)
is rebuilt there instead of kept.  A block normalises its pre-norm output in
place.  Each fused node computes and sums in the order of the separate nodes it
replaces, so its results are bitwise theirs.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class GradientContractError(ValueError):
    """Raised on misuse of gradients / sgd_step (non-scalar root, bad keys)."""


class Tensor:
    """A float32 or float64 ndarray plus the bookkeeping needed for reverse-mode AD:
    a float32 array is kept as it is, anything else is stored as float64."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
    ):
        arr = np.asarray(data)
        self.data = arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        # Parents are only kept when a gradient can actually flow.
        if self.requires_grad:
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _op(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    return Tensor(data, _parents=parents, _backward=backward)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add needs equal shapes, got {a.shape} and {b.shape}")
    return _op(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul needs equal shapes, got {a.shape} and {b.shape}")
    return _op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    return _op(a.data * c, (a,), lambda g: (g * c,))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x, as one node (one gemm per product)."""
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeMismatch(f"linear needs x (..., k), w (k, n), b (n,), got {x.shape}, {w.shape}, {b.shape}")
    k, n = w.shape
    x2 = x.data.reshape(-1, k)
    out = x2 @ w.data
    out += b.data

    def backward(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return gx, x2.T @ g2, g2.sum(axis=0)

    return _op(out.reshape(x.shape[:-1] + (n,)), (x, w, b), backward)


def embed(x: Tensor, w: Tensor, b: Tensor, c: float, pos: np.ndarray) -> Tensor:
    """(x @ w + b) * c + pos for x (B, t, k), as one node; the constant pos (t, n)
    broadcasts over the batch.  Its arithmetic is linear -> scale -> add(pos) in
    place, so the result is bitwise theirs, and the backward keeps only x."""
    if w.data.ndim != 2 or x.data.ndim != 3 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:] \
            or pos.shape != x.shape[1:2] + w.shape[1:]:
        raise ShapeMismatch(f"embed needs x (B, t, k), w (k, n), b (n,), pos (t, n), "
                            f"got {x.shape}, {w.shape}, {b.shape}, {pos.shape}")
    k, n = w.shape
    x2 = x.data.reshape(-1, k)
    out = x2 @ w.data
    out += b.data
    out *= c
    out = out.reshape(x.shape[:-1] + (n,))
    out += pos

    def backward(g):
        g2 = (g * c).reshape(-1, n)
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return gx, x2.T @ g2, g2.sum(axis=0)

    return _op(out, (x, w, b), backward)


def _hidden(x2: np.ndarray, w1: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """relu(x2 @ w1 + b1), the rectifier in place on the product, as in linear -> relu."""
    h = x2 @ w1
    h += b1
    np.fmax(h, 0.0, out=h)  # as in relu: NaN -> 0,
    h += 0.0  # and -0.0 -> +0.0
    return h


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """layer_norm(x + relu(x @ w1 + b1) @ w2 + b2) over the last axis of x, with the
    layer norm's gain and bias, as one node.  The node keeps x, the normalised xhat
    and 1/std: the hidden layer h is rebuilt in the backward (one gemm) and freed
    after its last product, and the pre-norm sum is normalised in place.  Products
    and sums are those of linear -> relu -> linear -> add -> layer_norm, so results
    are bitwise theirs (x's gradient is g + gm @ w1.T, the tape's order)."""
    d = x.shape[-1]
    if w1.data.ndim != 2 or w1.shape[0] != d or b1.shape != w1.shape[1:] \
            or w2.shape != (w1.shape[1], d) or any(p.shape != (d,) for p in (b2, gain, bias)):
        raise ShapeMismatch(f"feed_forward needs x (..., d), w1 (d, f), b1 (f,), w2 (f, d), b2, gain, bias (d,), "
                            f"got {x.shape}, {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}, "
                            f"{gain.shape}, {bias.shape}")
    x2 = x.data.reshape(-1, d)
    y = _hidden(x2, w1.data, b1.data) @ w2.data
    y += b2.data
    np.add(x2, y, out=y)  # x first, as add(x, ff): NaN operands keep their order
    out, xhat, inv = _normalize(y, gain, bias, _EPS, -1)[:3]  # y becomes xhat

    def backward(g):
        g2, g_gain, g_bias = _normalize_backward(g.reshape(-1, d), xhat, inv, gain, -1)
        h = _hidden(x2, w1.data, b1.data)
        g_w2 = h.T @ g2
        mask = h > 0.0  # exactly where the pre-activation is > 0
        del h
        gm = g2 @ w2.data.T
        gm *= mask
        gx = (g2 + gm @ w1.data.T).reshape(x.shape) if x.requires_grad else None
        return gx, x2.T @ gm, gm.sum(axis=0), g_w2, g2.sum(axis=0), g_gain, g_bias

    return _op(out.reshape(x.shape), (x, w1, b1, w2, b2, gain, bias), backward)


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True) as np.maximum over the last axis's columns in
    turn: numpy reduces a short last axis about 10x slower.  The bits are max's,
    ±0, ±inf and the quiet NaN included; a NaN with another sign or payload may
    come out as itself where max gives the quiet NaN."""
    m = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j : j + 1], out=m)
    return m


def _context(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """p @ v of the heads (B, h, t, t) @ (B, h, t, dh), laid out as (B * t, h * dh)."""
    b, n_heads, t, dh = v.shape
    ctx = np.empty((b * t, n_heads * dh), dtype=p.dtype)
    np.matmul(p, v, out=ctx.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3))
    return ctx


def attention(x: Tensor, *params: Tensor, n_heads: int) -> Tensor:
    """layer_norm(x plus multi-head self-attention of (B, t, d) over t) as one node, the
    output projection and the residual included; `params` are wq, bq, wk, bk, wv, bv,
    wo, bo and the layer norm's gain and bias.  q, k and v come from one (d, 3d) gemm
    and the heads are strided views of it.  The node keeps x, the attention weights
    p, the normalised xhat and 1/std: the backward rebuilds q, k and v with the
    forward's own closure, then ctx = p @ v, and the pre-norm sum is normalised in
    place.  Each product and sum is formed in the order separate matmul/linear/
    layer_norm nodes would (x's gradient as ((residual + q) + k) + v): bitwise theirs."""
    b, t, d = x.shape
    if len(params) != 10 or d % n_heads or any(p.shape != (d, d) for p in params[:8:2]) \
            or any(p.shape != (d,) for p in params[1::2] + params[8:9]):
        raise ShapeMismatch(f"attention on {x.shape} needs (d, d) weights, (d,) biases, gain and bias, "
                            f"d % n_heads == 0")
    wq, bq, wk, bk, wv, bv, wo, bo, gain, bias = params
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)
    x2 = x.data.reshape(-1, d)

    def heads():  # q, k and v, each (B, h, t, dh)
        qkv = x2 @ np.concatenate((wq.data, wk.data, wv.data), axis=1)
        qkv += np.concatenate((bq.data, bk.data, bv.data))
        return qkv.reshape(b, t, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q, k, v = heads()
    p = q @ k.swapaxes(-1, -2)
    p *= c
    p -= _row_max(p)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    y = _context(p, v) @ wo.data
    del q, k, v
    y += bo.data
    y += x2
    out, xhat, inv = _normalize(y, gain, bias, _EPS, -1)[:3]  # y becomes xhat

    def backward(g):
        g2, g_gain, g_bias = _normalize_backward(g.reshape(-1, d), xhat, inv, gain, -1)
        q, k, v = heads()
        g_wo = _context(p, v).T @ g2
        g_ctx = (g2 @ wo.data.T).reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3)
        g_qkv = np.empty((b * t, 3 * d), dtype=g_ctx.dtype)
        gq, gk, gv = g_qkv.reshape(b, t, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
        np.matmul(p.swapaxes(-1, -2), g_ctx, out=gv)
        gs = g_ctx @ v.swapaxes(-1, -2)  # softmax backward, then the 1/sqrt(dh) scale
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= c
        np.matmul(gs, k, out=gq)
        np.matmul(q.swapaxes(-1, -2), gs, out=gk.swapaxes(-1, -2))
        gx, grads = g2, []
        for i, w in enumerate((wq, wk, wv)):
            g_proj = g_qkv[:, i * d : (i + 1) * d]
            gx = gx + g_proj @ w.data.T
            grads += [x2.T @ g_proj, g_proj.sum(axis=0)]
        return (gx.reshape(x.shape), *grads, g_wo, g2.sum(axis=0), g_gain, g_bias)

    return _op(out.reshape(x.shape), (x, *params), backward)


def relu(a: Tensor) -> Tensor:
    out = np.fmax(a.data, 0.0)  # NaN -> 0
    out += 0.0  # -0.0 -> +0.0: bitwise where(a > 0, a, 0)
    return _op(out, (a,), lambda g: (g * (out > 0.0),))  # out > 0 exactly where a > 0


_EPS = 1e-5  # added to the variance by layer and batch norm
_NORM_FLOOR = 1e-12  # l2_normalize's smallest divisor


def _normalize(y: np.ndarray, gain: Tensor, bias: Tensor, eps: float, axis: int):
    """Standardise y along `axis`, then apply a per-feature (last axis) gain and bias.
    y is overwritten with xhat; returns the result, xhat, 1/std and the mean and
    variance."""
    # the arithmetic of centered = y - mean, xhat = centered * inv, xhat * gain + bias,
    # evaluated in place: one new large array, the result
    mean = y.mean(axis=axis, keepdims=True)
    xhat = np.subtract(y, mean, out=y)
    out = xhat * xhat
    var = out.mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data
    return out, xhat, inv, mean, var


def _normalize_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: Tensor, axis: int):
    """The gradients of y, gain and bias of `_normalize` from its result's gradient g."""
    # inv * (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat)), gx_hat = g * gain
    d = xhat.shape[-1]
    gx = g * gain.data
    tmp = gx * xhat
    m2 = tmp.mean(axis=axis, keepdims=True)
    gx -= gx.mean(axis=axis, keepdims=True)
    gx -= np.multiply(xhat, m2, out=tmp)
    np.multiply(inv, gx, out=gx)  # inv first, as written above: NaN operands keep their order
    np.multiply(g, xhat, out=tmp)
    return gx, tmp.reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def batch_norm(a: Tensor, gain: Tensor, bias: Tensor) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalise each column over the batch axis (2-D input), then affine.

    Returns the output plus the batch mean/variance so the caller can keep
    running statistics for inference.
    """
    if a.data.ndim != 2:
        raise ShapeMismatch(f"batch_norm expects a 2-D batch, got {a.shape}")
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    out, xhat, inv, mean, var = _normalize(a.data.copy(), gain, bias, _EPS, 0)
    backward = lambda g: _normalize_backward(g, xhat, inv, gain, 0)
    return _op(out, (a, gain, bias), backward), mean[0], var[0]


def batch_norm_eval(a: Tensor, gain: Tensor, bias: Tensor, mean: np.ndarray, var: np.ndarray) -> Tensor:
    """Affine normalisation against fixed (running) statistics; inference only.

    It has no backward rule: a pass that reaches it with a gradient raises.
    """
    out = (a.data - mean) * (gain.data * (1.0 / np.sqrt(var + _EPS))) + bias.data
    return _op(out, (a, gain, bias), _no_backward)


def l2_normalize(a: Tensor) -> Tensor:
    """Scale rows (last axis) to unit norm; norms below _NORM_FLOOR are clamped to it."""
    r = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    n = np.maximum(r, _NORM_FLOOR)
    y = a.data / n

    def backward(g):
        guarded = r <= _NORM_FLOOR  # below the clamp the map is simply x/_NORM_FLOOR
        gx = (g - y * (g * y).sum(axis=-1, keepdims=True)) / n
        return (np.where(guarded, g / n, gx),)

    return _op(y, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    inv = 1.0 / a.size
    return _op(np.asarray(a.data.mean()), (a,),
               lambda g: (np.full(a.shape, float(g) * inv, dtype=a.data.dtype),))


def sum_last(a: Tensor) -> Tensor:
    """Sum over the last axis (used for row-wise dot products)."""
    def backward(g):
        return (np.repeat(g[..., None], a.shape[-1], axis=-1),)

    return _op(a.data.sum(axis=-1), (a,), backward)


def max_axis(a: Tensor, axis: int) -> Tensor:
    """Max-reduce one axis; gradient is routed to the first arg-max entry."""
    out = a.data.max(axis=axis)
    idx = np.expand_dims(a.data.argmax(axis=axis), axis)

    def backward(g):
        ga = np.zeros(a.shape, dtype=a.data.dtype)
        np.put_along_axis(ga, idx, np.expand_dims(g, axis), axis=axis)
        return (ga,)

    return _op(out, (a,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeMismatch(f"logits must be 2-D, got {logits.shape}")
    b, c = logits.shape
    if labels.shape != (b,):
        raise ShapeMismatch(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    loss = -logp[np.arange(b), labels].mean()

    def backward(g):
        grad = np.exp(logp)
        grad[np.arange(b), labels] -= 1.0
        return (grad * (float(g) / b),)

    return _op(np.asarray(loss), (logits,), backward)


def stop_gradient(a: Tensor) -> Tensor:
    """Return a tensor with the same values that backward treats as constant."""
    return Tensor(a.data)


# ---------------------------------------------------------------------------
# reverse pass and optimizer


def _no_backward(g):
    raise GradientContractError("batch_norm_eval has no backward rule; train with batch_norm")


def _spent(g):  # backward rule of a node whose tape a backward pass has consumed
    raise GradientContractError("tape already consumed by a backward pass; run the forward again")


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _backward_pass(root: Tensor, seed: np.ndarray | None = None) -> dict[Tensor, np.ndarray]:
    """Propagate from root, seeded with `seed` (ones for a scalar root when None),
    consuming the tape; returns the gradient of each leaf it reached."""
    if seed is None:
        if root.size != 1:
            raise GradientContractError(f"backward root must be scalar, got shape {root.shape}; "
                                        "seed a non-scalar root with a gradient")
        seed = np.ones_like(root.data)
    elif seed.shape != root.shape:
        raise GradientContractError(f"gradient seed of shape {seed.shape} for a root of shape {root.shape}")
    order = _toposort(root)
    # keyed by the node itself (tensors hash by identity), so a leaf stays alive with its gradient
    grads = {root: seed}
    while order:  # popping drops the list's reference, so a finished node is freed
        node = order.pop()
        rule, parents = node._backward, node._parents
        grad = None if rule is None else grads.pop(node, None)  # a leaf keeps its gradient
        if grad is None:
            continue
        node._parents, node._backward = (), _spent
        for parent, g in zip(parents, rule(grad)):
            if g is None or not parent.requires_grad:
                continue
            # grads are never mutated in place, so first-touch can alias g
            existing = grads.get(parent)
            grads[parent] = g if existing is None else existing + g
    return grads


def gradients(
    root: Tensor, params: Mapping[str, Tensor], grad: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Return d(root)/d(p) for every named parameter (zeros when unreachable).

    With `grad`, the root may have any shape and `grad`, of that shape, seeds it:
    the result is the vector-Jacobian product d(sum(root * grad))/d(p).  Consumes
    the tape.
    """
    grads = (_backward_pass(root) if grad is None
             else _backward_pass(root, np.asarray(grad, dtype=root.data.dtype)))
    # copies: `add` hands one array to both parents, and callers may sum in place
    return {name: (grads[p].copy() if p in grads else np.zeros_like(p.data)) for name, p in params.items()}


def sgd_step(
    params: Mapping[str, Tensor],
    momentum_buffers: dict[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> None:
    """One SGD update with coupled weight decay and classical momentum.

    For each parameter: g' = g + weight_decay * theta, m = momentum * m + g',
    theta = theta - lr * m.  Buffers start at zero and are keyed like params.
    """
    missing = set(params) - set(grads)
    extra = set(grads) - set(params)
    if missing or extra:
        raise GradientContractError(
            f"gradient keys do not match parameters (missing={sorted(missing)}, extra={sorted(extra)})"
        )
    for name in params:
        p = params[name]
        g = grads[name] + weight_decay * p.data
        buf = momentum_buffers.get(name)
        if buf is None:
            buf = np.zeros_like(p.data)
        buf = momentum * buf + g
        momentum_buffers[name] = buf
        p.data = p.data - lr * buf
