"""Graph code that only the tests use: composition blocks for gradient checks
(`matmul`, `add_bias`, `softmax_rows`, `sum_all`), the unfused references that
the fused nodes are checked against (`add_bias(matmul(x, w), b)` for `linear`;
`layer_norm` after `attention` or `feed_forward`, as the encoder's blocks were
before each took its layer norm in, and `affine`, the gain and bias of the
layer norm before a block, which the fused blocks apply to their input), and
the collapsing objective that the
collapse-monitor tests put in place of `simsiam_forward`
(`direct_cosine_forward`).  The nodes are built on `tensor._op`, so they tape
and back-propagate like the package's nodes."""

from __future__ import annotations

import math

import numpy as np

from sslcrop.model import ModelState, _neg_cosine, encode_views, project
from sslcrop.tensor import ShapeMismatch, Tensor, _op


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that numpy broadcast during the forward."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


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


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias along the last axis."""
    if b.data.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise ShapeMismatch(f"bias shape {b.shape} does not match last axis of {x.shape}")

    def backward(g):
        return g, g.reshape(-1, g.shape[-1]).sum(axis=0)

    return _op(x.data + b.data, (x, b), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilised by per-row max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _op(y, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    return _op(np.asarray(a.data.sum()), (a,), lambda g: (np.full(a.shape, float(g)),))


def attention(x: Tensor, *params: Tensor, n_heads: int) -> Tensor:
    """x plus multi-head self-attention (output projection and residual included) as
    one node that keeps ctx = p @ v; `params` are wq, bq, wk, bk, wv, bv, wo, bo."""
    b, t, d = x.shape
    wq, bq, wk, bk, wv, bv, wo, bo = params
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)
    x2 = x.data.reshape(-1, d)
    qkv = x2 @ np.concatenate((wq.data, wk.data, wv.data), axis=1)
    qkv += np.concatenate((bq.data, bk.data, bv.data))
    q, k, v = qkv.reshape(b, t, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    p = q @ k.swapaxes(-1, -2)
    p *= c
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = np.empty((b * t, d), dtype=p.dtype)
    np.matmul(p, v, out=ctx.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3))
    out = ctx @ wo.data
    out += bo.data
    out += x2

    def backward(g):
        g2 = g.reshape(-1, d)
        g_ctx = (g2 @ wo.data.T).reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3)
        g_qkv = np.empty((b * t, 3 * d), dtype=g_ctx.dtype)
        gq, gk, gv = g_qkv.reshape(b, t, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
        np.matmul(p.swapaxes(-1, -2), g_ctx, out=gv)
        gs = g_ctx @ v.swapaxes(-1, -2)
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


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to mean 0 / variance 1, then apply gain and bias, as a
    node whose input stays on the tape as its parent."""
    d = a.shape[-1]
    mean = a.data.mean(axis=-1, keepdims=True)
    xhat = a.data - mean
    out = xhat * xhat
    var = out.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def backward(g):
        gx = g * gain.data
        tmp = gx * xhat
        m2 = tmp.mean(axis=-1, keepdims=True)
        gx -= gx.mean(axis=-1, keepdims=True)
        gx -= np.multiply(xhat, m2, out=tmp)
        np.multiply(inv, gx, out=gx)
        np.multiply(g, xhat, out=tmp)
        return gx, tmp.reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _op(out, (a, gain, bias), backward)


def affine(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """x * gain + bias over the last axis as a node of its own, with layer_norm's
    backward for gain and bias."""
    d = x.shape[-1]
    out = x.data * gain.data
    out += bias.data

    def backward(g):
        return g * gain.data, (g * x.data).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _op(out, (x, gain, bias), backward)


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
