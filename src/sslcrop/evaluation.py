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


def _unit_heads(state: ModelState, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of the projections and predictions of an encoder batch, on no tape."""
    view = M.constant_view(state)
    z = M.project(view, Tensor(M.encode_batched(state, batch)), training=False)
    p = M.predict_head(view, z, training=False)
    return T.l2_normalize(z).data, T.l2_normalize(p).data


def embed_reference(state: ModelState, reference: Dataset) -> ReferenceEmbeddings:
    """The labeled reference set's heads, encoded as by `model.encode_batched`."""
    labels = reference.labels_array()
    batch = M.encoder_batch(s.reflectance for s in reference.samples)
    return ReferenceEmbeddings(*_unit_heads(state, batch), labels)


def contrastive_classify_batch(
    state: ModelState,
    batch: np.ndarray,
    ref: ReferenceEmbeddings,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised nearest-class evaluation of an encoder batch, encoded as by
    `model.encode_batched`.

    Each row takes the class whose mean pairwise two-branch loss against the
    reference is minimal, ties going to the lowest class index.  Returns (class
    indices, the (N, classes) mean losses, a column per reference class in
    ascending order).
    """
    classes = np.unique(ref.labels)
    if not classes.size:
        raise ValueError("reference set holds no labeled samples")
    z_hat, p_hat = _unit_heads(state, batch)
    # symmetric loss of (sample i, reference j): mean of the two crossed
    # negative cosines, identical in value to the training loss on one pair
    pairwise = -0.5 * (p_hat @ ref.z_hat.T) - 0.5 * (z_hat @ ref.p_hat.T)
    means = np.stack([pairwise[:, ref.labels == c].mean(axis=1) for c in classes], axis=1)
    return classes[means.argmin(axis=1)], means


# ---------------------------------------------------------------------------
# PCA


def pca_project(embeddings: np.ndarray, k: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Top-k principal components from one eigendecomposition of the covariance.

    Returns (N x k coordinates, explained-variance ratios).  Eigenvector signs
    are fixed so the largest-magnitude entry is positive.  A component past the
    data's rank has coordinates and ratio zero up to rounding; one past its
    width d has them exactly zero.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"need a (N>=2, d) matrix, got shape {X.shape}")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / len(X)
    total = float(np.trace(cov))
    eigvals, vecs = np.linalg.eigh(cov)  # ascending
    pad = max(k - len(eigvals), 0)  # components past the width d
    comps = np.pad(vecs[:, ::-1][:, :k], ((0, 0), (0, pad)))
    comps *= np.where(comps[np.abs(comps).argmax(axis=0), np.arange(k)] < 0, -1.0, 1.0)
    lam = np.pad(np.maximum(eigvals[::-1][:k], 0.0), (0, pad))
    ratios = lam / total if total > 0 else np.zeros(k)
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
