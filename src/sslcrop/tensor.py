"""Dense float64 tensors with reverse-mode automatic differentiation.

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
pass runs, only leaves keep a gradient, and replaying a consumed tape
raises `GradientContractError`.  `stop_gradient` inserts a node that
backward passes treat as a constant, which is what the siamese
pre-training loss needs.

Storage is always a row-major float64 ndarray.  Broadcasting is restricted
to last-axis bias/gain addition and batched matmul so every backward rule
stays easy to audit.  The encoder's dense layers and self-attention are
single nodes (`linear`, `attention`).
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class GradientContractError(ValueError):
    """Raised on misuse of backward / sgd_step (non-scalar root, bad keys)."""


class Tensor:
    """A float64 ndarray plus the bookkeeping needed for reverse-mode AD."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
    ):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that numpy broadcast during the forward."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _op(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    return Tensor(data, _parents=parents, _backward=backward)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-D or batched with matching/broadcastable leading dims."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatch(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        return ga, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return _op(a.data @ b.data, (a, b), backward)


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


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias along the last axis (the only broadcast we allow)."""
    if b.data.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise ShapeMismatch(f"bias shape {b.shape} does not match last axis of {x.shape}")

    def backward(g):
        return g, g.reshape(-1, g.shape[-1]).sum(axis=0)

    return _op(x.data + b.data, (x, b), backward)


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


def attention(x: Tensor, *params: Tensor, n_heads: int) -> Tensor:
    """x plus multi-head self-attention of (B, t, d) over t (the output projection and
    the residual included), as one node; `params` are wq, bq, wk, bk, wv, bv, wo, bo.
    q, k and v come from one (d, 3d) gemm and the heads are strided views of it.
    The backward forms and sums each product in the order separate matmul/linear
    nodes would (x's gradient as ((residual + q) + k) + v), so results are bitwise
    those of the unfused graph."""
    b, t, d = x.shape
    wq, bq, wk, bk, wv, bv, wo, bo = params
    if d % n_heads or any(p.shape != (d, d) for p in params[::2]) or any(p.shape != (d,) for p in params[1::2]):
        raise ShapeMismatch(f"attention on {x.shape} needs (d, d) weights, (d,) biases, d % n_heads == 0")
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)
    x2 = x.data.reshape(-1, d)
    qkv = x2 @ np.concatenate((wq.data, wk.data, wv.data), axis=1)
    qkv += np.concatenate((bq.data, bk.data, bv.data))
    q, k, v = qkv.reshape(b, t, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)  # each (B, h, t, dh)
    p = q @ k.swapaxes(-1, -2)
    p *= c
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = np.empty((b * t, d))
    np.matmul(p, v, out=ctx.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3))
    out = ctx @ wo.data
    out += bo.data
    out += x2

    def backward(g):
        g2 = g.reshape(-1, d)
        g_ctx = (g2 @ wo.data.T).reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3)
        g_qkv = np.empty((b * t, 3 * d))
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
        return (gx.reshape(x.shape), *grads, ctx.T @ g2, g2.sum(axis=0))

    return _op(out.reshape(x.shape), (x, *params), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _op(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilised by per-row max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _op(y, (a,), backward)


def _normalize(a: Tensor, gain: Tensor, bias: Tensor, eps: float, axis: int):
    """Standardise along `axis`, then apply a per-feature (last axis) gain and bias."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    mean = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mean
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def backward(g):
        gx_hat = g * gain.data
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=axis, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=axis, keepdims=True)
        )
        return gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _op(xhat * gain.data + bias.data, (a, gain, bias), backward), mean, var


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to mean 0 / variance 1, then apply gain and bias."""
    return _normalize(a, gain, bias, eps, axis=-1)[0]


def batch_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalise each column over the batch axis (2-D input), then affine.

    Returns the output plus the batch mean/variance so the caller can keep
    running statistics for inference.
    """
    if a.data.ndim != 2:
        raise ShapeMismatch(f"batch_norm expects a 2-D batch, got {a.shape}")
    out, mean, var = _normalize(a, gain, bias, eps, axis=0)
    return out, mean[0], var[0]


def batch_norm_eval(a: Tensor, gain: Tensor, bias: Tensor, mean: np.ndarray, var: np.ndarray,
                    eps: float = 1e-5) -> Tensor:
    """Affine normalisation against fixed (running) statistics; inference only.

    It has no backward rule: a pass that reaches it with a gradient raises.
    """
    out = (a.data - mean) * (gain.data * (1.0 / np.sqrt(var + eps))) + bias.data
    return _op(out, (a, gain, bias), _no_backward)


def l2_normalize(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale rows (last axis) to unit norm; norms below eps are clamped to eps."""
    r = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    n = np.maximum(r, eps)
    y = a.data / n

    def backward(g):
        guarded = r <= eps  # below the clamp the map is simply x/eps
        gx = (g - y * (g * y).sum(axis=-1, keepdims=True)) / n
        return (np.where(guarded, g / n, gx),)

    return _op(y, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    return _op(np.asarray(a.data.sum()), (a,), lambda g: (np.full(a.shape, float(g)),))


def mean_all(a: Tensor) -> Tensor:
    inv = 1.0 / a.size
    return _op(np.asarray(a.data.mean()), (a,), lambda g: (np.full(a.shape, float(g) * inv),))


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
        ga = np.zeros(a.shape)
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


def _backward_pass(root: Tensor, seed: np.ndarray | None = None) -> list[Tensor]:
    """Propagate from root, seeded with `seed` (ones for a scalar root when None),
    consuming the tape; returns the leaves it reached."""
    if seed is None:
        if root.size != 1:
            raise GradientContractError(f"backward root must be scalar, got shape {root.shape}; "
                                        "seed a non-scalar root with a gradient")
        seed = np.ones_like(root.data)
    elif seed.shape != root.shape:
        raise GradientContractError(f"gradient seed of shape {seed.shape} for a root of shape {root.shape}")
    order = _toposort(root)
    leaves = [node for node in order if node._backward is None]
    for leaf in leaves:
        leaf.grad = None
    root.grad = seed
    while order:  # popping drops the list's reference, so a finished node is freed
        node = order.pop()
        rule, grad, parents = node._backward, node.grad, node._parents
        if rule is None or grad is None:
            continue
        node.grad, node._parents, node._backward = None, (), _spent
        for parent, g in zip(parents, rule(grad)):
            if g is None or not parent.requires_grad:
                continue
            # grads are never mutated in place, so first-touch can alias g
            parent.grad = g if parent.grad is None else parent.grad + g
    return leaves


def backward(root: Tensor) -> None:
    """Set .grad to d(root)/d(leaf) on every leaf reachable from root; interior nodes
    keep none, since the pass consumes the tape (a second call on root raises)."""
    _backward_pass(root)


def gradients(
    root: Tensor, params: Mapping[str, Tensor], grad: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Return d(root)/d(p) for every named parameter (zeros when unreachable).

    With `grad`, the root may have any shape and `grad`, of that shape, seeds it:
    the result is the vector-Jacobian product d(sum(root * grad))/d(p).  Consumes
    the tape like `backward`, and leaves no gradient on any leaf.
    """
    for p in params.values():
        p.grad = None
    leaves = _backward_pass(root) if grad is None else _backward_pass(root, np.asarray(grad, dtype=np.float64))
    out = {name: (p.grad.copy() if p.grad is not None else np.zeros(p.shape)) for name, p in params.items()}
    for leaf in leaves:
        leaf.grad = None
    return out


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
            buf = np.zeros(p.shape)
        buf = momentum * buf + g
        momentum_buffers[name] = buf
        p.data = p.data - lr * buf
