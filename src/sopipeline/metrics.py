"""Class-weighted metrics for imbalanced classification.

Weighted accuracy, recall and F1 reweight per-class contributions, by
default with inverse-frequency weights normalized to sum to one. The same
weight computation feeds the weighted cross-entropy fine-tune loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import MetricError


class WeightMode(Enum):
    INVERSE_FREQUENCY = "inverse_frequency"
    BALANCED = "balanced"
    UNIFORM = "uniform"


@dataclass
class ConfusionStats:
    n_classes: int
    tp: np.ndarray  # correctly predicted per class
    ap: np.ndarray  # actual instances per class
    pp: np.ndarray  # predicted instances per class

    @property
    def n(self) -> int:
        return int(self.ap.sum())


@dataclass
class ClassWeights:
    weights: np.ndarray
    mode: WeightMode


def confusion(y_true: Sequence[int], y_pred: Sequence[int], n_classes: int) -> ConfusionStats:
    """Exact per-class TP/actual/predicted counts."""
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.shape != yp.shape:
        raise MetricError(f"length mismatch: {yt.shape} vs {yp.shape}")
    if yt.size and (yt.min() < 0 or yt.max() >= n_classes or yp.min() < 0 or yp.max() >= n_classes):
        raise MetricError(f"labels must lie in [0, {n_classes})")
    tp = np.bincount(yt[yt == yp], minlength=n_classes).astype(np.int64)
    ap = np.bincount(yt, minlength=n_classes).astype(np.int64)
    pp = np.bincount(yp, minlength=n_classes).astype(np.int64)
    return ConfusionStats(n_classes=n_classes, tp=tp, ap=ap, pp=pp)


def class_weights(ap_counts: Sequence[int], mode: WeightMode = WeightMode.INVERSE_FREQUENCY) -> ClassWeights:
    """Per-class weights, normalized to sum to one.

    InverseFrequency: w_i proportional to n/n_i (errors on empty classes).
    Balanced: w_i = 1/N. Uniform: every class weighted the same, so the
    constant cancels out of the ratio-form metrics and weighted recall
    collapses to the micro average (plain accuracy).
    """
    counts = np.asarray(ap_counts, dtype=np.float64)
    n = counts.sum()
    if mode is WeightMode.INVERSE_FREQUENCY:
        if n == 0:
            raise MetricError("cannot weight an empty dataset")
        zero = np.flatnonzero(counts == 0)
        if zero.size:
            raise MetricError(f"class {int(zero[0])} has no instances; inverse-frequency weight undefined")
        raw = n / counts
    elif mode in (WeightMode.BALANCED, WeightMode.UNIFORM):
        raw = np.ones_like(counts)
    else:
        raise MetricError(f"unknown weight mode {mode!r}")
    return ClassWeights(weights=raw / raw.sum(), mode=mode)


def _check(stats: ConfusionStats, weights: ClassWeights) -> np.ndarray:
    w = np.asarray(weights.weights, dtype=np.float64)
    if w.shape != (stats.n_classes,):
        raise MetricError(f"need one weight per class ({stats.n_classes}), got {w.shape}")
    return w


def weighted_accuracy(stats: ConfusionStats, weights: ClassWeights, *, literal_unnormalized: bool = False) -> float:
    """Sum of w_i * (per-class recall), skipping absent classes.

    With ``literal_unnormalized`` the raw (n/n_i) weighting is used instead
    of weights summing to one; that audit value can exceed 1.
    """
    w = _check(stats, weights)
    present = stats.ap > 0
    if not present.any():
        raise MetricError("no class has any actual instances")
    acc_i = stats.tp[present] / stats.ap[present]
    if literal_unnormalized:
        return float(((stats.n / stats.ap[present]) * acc_i).sum())
    w_present = w[present]
    return float((w_present * acc_i).sum() / w_present.sum())


def weighted_recall(stats: ConfusionStats, weights: ClassWeights) -> float:
    """Ratio form: sum(w_i * TP_i) / sum(w_i * AP_i)."""
    w = _check(stats, weights)
    denom = float((w * stats.ap).sum())
    if denom == 0:
        raise MetricError("weighted actual-positive mass is zero")
    return float((w * stats.tp).sum() / denom)


def weighted_f1(stats: ConfusionStats, weights: ClassWeights) -> float:
    """Per-class F1 combined as sum(w_i * F1_i * AP_i) / sum(w_i * AP_i)."""
    w = _check(stats, weights)
    denom = float((w * stats.ap).sum())
    if denom == 0:
        raise MetricError("weighted actual-positive mass is zero")
    _, _, f1 = _precision_recall_f1(stats)
    return float((w * f1 * stats.ap).sum() / denom)


def _precision_recall_f1(stats: ConfusionStats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class precision, recall and F1; 0 where a class has no predictions,
    no instances, or neither."""
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(stats.pp > 0, stats.tp / np.maximum(stats.pp, 1), 0.0)
        recall = np.where(stats.ap > 0, stats.tp / np.maximum(stats.ap, 1), 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2 * precision * recall / np.where(pr > 0, pr, 1), 0.0)
    return precision, recall, f1


def metric_report(y_true: Sequence[int], y_pred: Sequence[int], n_classes: int, mode: WeightMode) -> dict:
    """Per-class precision/recall/F1 plus the weighted aggregates, as a
    JSON-ready dict (consumed by the CLI eval subcommand)."""
    stats = confusion(y_true, y_pred, n_classes)
    weights = class_weights(stats.ap, mode)
    precision, recall, f1 = _precision_recall_f1(stats)
    return {
        "n": stats.n,
        "mode": mode.value,
        "per_class": [
            {
                "class": i,
                "precision": float(precision[i]),
                "recall": float(recall[i]),
                "f1": float(f1[i]),
                "support": int(stats.ap[i]),
            }
            for i in range(n_classes)
        ],
        "weights": [float(x) for x in weights.weights],
        "weighted_accuracy": weighted_accuracy(stats, weights),
        "weighted_recall": weighted_recall(stats, weights),
        "weighted_f1": weighted_f1(stats, weights),
    }
