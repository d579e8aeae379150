"""Graph code that only the tests use: composition blocks for gradient checks
(`matmul`, `add_bias`, `softmax_rows`, `sum_all`), the unfused reference that
`linear` is checked against (`add_bias(matmul(x, w), b)`), and the collapsing
objective that the collapse-monitor tests put in place of `simsiam_forward`
(`direct_cosine_forward`).  The nodes are built on `tensor._op`, so they tape
and back-propagate like the package's nodes."""

from __future__ import annotations

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
