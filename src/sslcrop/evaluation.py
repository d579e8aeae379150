"""Metrics, the contrastive nearest-class classifier, PCA exports and the report.

The contrastive classifier scores a sample against every labeled reference
sample with the trained two-branch loss and assigns the class whose mean
pairwise loss is smallest; it needs no classification head at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model as M
from . import tensor as T
from .dataio import CLASS_INDEX_MAPPING, N_CLASSES, Dataset
from .model import ModelState
from .tensor import Tensor


def overall_accuracy(pred: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of exact matches."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError(f"prediction/truth shapes disagree: {pred.shape} vs {truth.shape}")
    return float((pred == truth).mean())


def confusion_matrix(truth: Sequence[int], pred: Sequence[int]) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class (1-based labels)."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape:
        raise ValueError(f"prediction/truth shapes disagree: {pred.shape} vs {truth.shape}")
    for name, arr in (("truth", truth), ("pred", pred)):
        if arr.size and (arr.min() < 1 or arr.max() > N_CLASSES):
            raise ValueError(f"{name} labels must lie in 1..{N_CLASSES}")
    conf = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(conf, (truth - 1, pred - 1), 1)
    return conf


def per_class_accuracy(conf: np.ndarray) -> list[float | None]:
    """diag/rowsum per class; None where a class has no evaluated samples."""
    conf = np.asarray(conf)
    out: list[float | None] = []
    for i in range(conf.shape[0]):
        total = conf[i].sum()
        out.append(float(conf[i, i] / total) if total > 0 else None)
    return out


def scores(pred: Sequence[int], truth: Sequence[int]) -> dict:
    """A report's accuracy keys: overall_accuracy, confusion_matrix, per_class_accuracy."""
    conf = confusion_matrix(truth, pred)
    return {"overall_accuracy": overall_accuracy(pred, truth), "confusion_matrix": conf.tolist(),
            "per_class_accuracy": per_class_accuracy(conf)}


# ---------------------------------------------------------------------------
# contrastive nearest-class classification


@dataclass
class ReferenceEmbeddings:
    """Normalized projections/predictions of a labeled reference set."""

    z_hat: np.ndarray      # (N, head_out), unit rows
    p_hat: np.ndarray      # (N, head_out), unit rows
    labels: np.ndarray     # (N,), 1-based


def _unit_heads(state: ModelState, batch: np.ndarray, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of the projections and predictions of an encoder batch, on no tape."""
    view = M.constant_view(state)
    z = M.project(view, Tensor(M.encode_batched(state, batch, batch_size)), training=False)
    p = M.predict_head(view, z, training=False)
    return T.l2_normalize(z).data, T.l2_normalize(p).data


def embed_reference(state: ModelState, reference: Dataset, dn_scale: float,
                    batch_size: int) -> ReferenceEmbeddings:
    """The labeled reference set's heads, encoded `batch_size` rows at a time."""
    labels = reference.labels_array()
    batch = M.encoder_batch((s.reflectance for s in reference.samples), dn_scale)
    return ReferenceEmbeddings(*_unit_heads(state, batch, batch_size), labels)


def contrastive_classify_batch(
    state: ModelState,
    batch: np.ndarray,
    ref: ReferenceEmbeddings,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised nearest-class evaluation of an encoder batch, encoded `batch_size`
    rows at a time.

    Each row takes the class whose mean pairwise two-branch loss against the
    reference is minimal, ties going to the lowest class index.  Returns (class
    indices, the (N, classes) mean losses, a column per reference class in
    ascending order).
    """
    classes = np.unique(ref.labels)
    if not classes.size:
        raise ValueError("reference set holds no labeled samples")
    z_hat, p_hat = _unit_heads(state, batch, batch_size)
    # symmetric loss of (sample i, reference j): mean of the two crossed
    # negative cosines, identical in value to the training loss on one pair
    pairwise = -0.5 * (p_hat @ ref.z_hat.T) - 0.5 * (z_hat @ ref.p_hat.T)
    means = np.stack([pairwise[:, ref.labels == c].mean(axis=1) for c in classes], axis=1)
    return classes[means.argmin(axis=1)], means


# ---------------------------------------------------------------------------
# PCA via power iteration


class PowerIterationError(RuntimeError):
    def __init__(self, iterations: int):
        super().__init__(f"power iteration did not converge within {iterations} iterations")
        self.iterations = iterations


def pca_project(
    embeddings: np.ndarray,
    k: int = 2,
    tol: float = 1e-10,
    max_iters: int = 10000,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k principal components by power iteration with deflation.

    Returns (N x k coordinates, explained-variance ratios).  Eigenvector
    signs are fixed so the largest-magnitude entry is positive.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"need a (N>=2, d) matrix, got shape {X.shape}")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / len(X)
    total = float(np.trace(cov))
    d = cov.shape[0]
    comps = np.zeros((d, k))
    eigvals = np.zeros(k)
    rng = np.random.Generator(np.random.PCG64(0))  # fixed: results must be reproducible
    A = cov.copy()
    for c in range(k):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        lam = 0.0
        for it in range(max_iters):
            av = A @ v
            lam = float(v @ av)
            if lam <= max(total, 1.0) * 1e-14:
                break  # (near-)zero eigenvalue: any unit vector is fine
            v_new = av / np.linalg.norm(av)
            if np.linalg.norm(v_new - v) < tol:
                v = v_new
                break
            v = v_new
        else:
            raise PowerIterationError(max_iters)
        if v[np.abs(v).argmax()] < 0:
            v = -v
        comps[:, c] = v
        eigvals[c] = max(lam, 0.0)
        A = A - lam * np.outer(v, v)
    ratios = eigvals / total if total > 0 else np.zeros(k)
    return centered @ comps, ratios


# ---------------------------------------------------------------------------
# reports


def build_report(scenario: str, method: str, dataset: Dataset, pred: Sequence[int],
                 truth: Sequence[int], *, seeds: dict, traces: dict, extras: dict) -> dict:
    """One run's `report.json` document, shaped like the accuracy tables of the study."""
    return {
        "scenario": scenario,
        "method": method,
        "preprocessing": {"bands": list(dataset.band_ids), "n_steps": dataset.n_steps},
        **scores(pred, truth),
        "class_index_mapping": {str(k): v for k, v in CLASS_INDEX_MAPPING.items()},
        "seeds": seeds,
        "traces": traces,
        "extras": extras,
    }


def report_text(report: dict) -> str:
    """`report.json`'s text: sorted keys, one-space indent, a final newline."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"
