"""Metrics, the contrastive nearest-class classifier, and PCA exports.

The contrastive classifier scores a sample against every labeled reference
sample with the trained two-branch loss and assigns the class whose mean
pairwise loss is smallest; it needs no classification head at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import model as M
from .dataio import CLASS_INDEX_MAPPING, Dataset
from .model import ModelState
from .tensor import Tensor


def overall_accuracy(pred: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of exact matches."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError(f"prediction/truth shapes disagree: {pred.shape} vs {truth.shape}")
    return float((pred == truth).mean())


def confusion_matrix(truth: Sequence[int], pred: Sequence[int], n_classes: int = 6) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class (1-based labels)."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape:
        raise ValueError(f"prediction/truth shapes disagree: {pred.shape} vs {truth.shape}")
    for name, arr in (("truth", truth), ("pred", pred)):
        if arr.size and (arr.min() < 1 or arr.max() > n_classes):
            raise ValueError(f"{name} labels must lie in 1..{n_classes}")
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
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


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.maximum(np.sqrt((a * a).sum(axis=1, keepdims=True)), 1e-12)


def _heads_values(state: ModelState, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    view = M.constant_view(state)
    z = M.project(view, Tensor(M.encode_batched(state, batch)), training=False)
    p = M.predict_head(view, z, training=False)
    return z.data, p.data


def embed_reference(state: ModelState, reference: Dataset, dn_scale: float = 10000.0) -> ReferenceEmbeddings:
    labels = reference.labels_array()
    z, p = _heads_values(state, reference.time_major() / dn_scale)
    return ReferenceEmbeddings(_unit_rows(z), _unit_rows(p), labels)


def contrastive_classify_batch(
    state: ModelState,
    batch: np.ndarray,
    ref: ReferenceEmbeddings,
) -> tuple[np.ndarray, list[dict[int, float]]]:
    """Vectorised nearest-class evaluation of an already normalized batch.

    Each row takes the class whose mean pairwise two-branch loss against the
    reference is minimal, ties going to the lowest class index.  Returns (class
    indices, each row's per-class mean losses).
    """
    classes = sorted(set(int(c) for c in ref.labels))
    if not classes:
        raise ValueError("reference set holds no labeled samples")
    z, p = _heads_values(state, batch)
    z_hat, p_hat = _unit_rows(z), _unit_rows(p)
    # symmetric loss of (sample i, reference j): mean of the two crossed
    # negative cosines, identical in value to the training loss on one pair
    pairwise = -0.5 * (p_hat @ ref.z_hat.T) - 0.5 * (z_hat @ ref.p_hat.T)
    preds = np.empty(len(batch), dtype=np.int64)
    tables: list[dict[int, float]] = []
    means = {c: pairwise[:, ref.labels == c].mean(axis=1) for c in classes}
    for i in range(len(batch)):
        table = {c: float(means[c][i]) for c in classes}
        preds[i] = min(table, key=lambda c: (table[c], c))
        tables.append(table)
    return preds, tables


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


@dataclass
class ExperimentReport:
    """One run's results, shaped like the accuracy tables of the study."""

    scenario: str
    method: str
    bands: tuple[str, ...]
    n_steps: int
    overall: float
    confusion: list[list[int]]
    per_class: list[float | None]
    class_index_mapping: dict[int, str] = field(
        default_factory=lambda: dict(CLASS_INDEX_MAPPING)
    )
    seeds: dict[str, int] = field(default_factory=dict)
    traces: dict[str, dict] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "scenario": self.scenario,
            "method": self.method,
            "preprocessing": {"bands": list(self.bands), "n_steps": self.n_steps},
            "overall_accuracy": self.overall,
            "confusion_matrix": self.confusion,
            "per_class_accuracy": self.per_class,
            "class_index_mapping": {str(k): v for k, v in self.class_index_mapping.items()},
            "seeds": self.seeds,
            "traces": self.traces,
            **({"extras": self.extras} if self.extras else {}),
        }
        return json.dumps(doc, sort_keys=True, indent=1)


def build_report(
    scenario: str,
    method: str,
    dataset_like: Dataset,
    pred: Sequence[int],
    truth: Sequence[int],
    **kwargs,
) -> ExperimentReport:
    s = scores(pred, truth)
    return ExperimentReport(scenario, method, dataset_like.band_ids, dataset_like.n_steps,
                            s["overall_accuracy"], s["confusion_matrix"], s["per_class_accuracy"],
                            **kwargs)
