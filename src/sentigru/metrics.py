"""Confusion matrix and the derived classification metrics.

Zero-denominator cells follow one convention everywhere: the metric is 0
and the report carries an explicit flag, so aggregates stay numeric.
"""

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns are predictions."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("counts must be a square matrix")
        if (c < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", c.astype(np.int64))

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(truth, pred, num_classes: int) -> ConfusionMatrix:
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError("truth and pred must be 1-d and the same length")
    for name, codes in (("truth", truth), ("pred", pred)):
        if codes.size and (codes.min() < 0 or codes.max() >= num_classes):
            raise ValueError(f"{name} contains codes outside [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return ConfusionMatrix(counts)


@dataclass(frozen=True)
class ClassMetrics:
    label: int
    support: int
    precision: float
    recall: float
    f1: float
    # False marks a zero-denominator case where the value 0 is by convention
    precision_defined: bool
    recall_defined: bool
    f1_defined: bool


@dataclass(frozen=True)
class Averages:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    accuracy: float
    per_class: tuple[ClassMetrics, ...]
    macro: Averages
    micro: Averages
    weighted: Averages

    def to_dict(self, label_names=None) -> dict:
        def name(k):
            return label_names[k] if label_names else str(k)
        return {
            "confusion": self.confusion.counts.tolist(),
            "total": self.confusion.total(),
            "accuracy": self.accuracy,
            "per_class": [{"label": m.label, "label_name": name(m.label)} | vars(m)
                          for m in self.per_class],
            "macro": vars(self.macro).copy(),
            "micro": vars(self.micro).copy(),
            "weighted": vars(self.weighted).copy(),
        }


def _f1(p: float, r: float) -> float:
    if p + r == 0.0:
        return 0.0
    if p == r:
        return p
    return 2.0 * p * r / (p + r)


def classification_metrics(cm: ConfusionMatrix) -> EvalReport:
    """All four views (per-class, macro, micro, weighted) from one matrix."""
    counts = cm.counts
    total = cm.total()
    if total == 0:
        raise ValueError("cannot compute metrics for an empty matrix")
    k = cm.num_classes
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    per_class = []
    for i in range(k):
        p_den = int(tp[i] + fp[i])
        r_den = int(tp[i] + fn[i])
        p = tp[i] / p_den if p_den else 0.0
        r = tp[i] / r_den if r_den else 0.0
        p, r = float(p), float(r)
        per_class.append(ClassMetrics(
            label=i, support=r_den,
            precision=p, recall=r, f1=_f1(p, r),
            precision_defined=p_den > 0, recall_defined=r_den > 0,
            f1_defined=p + r > 0))
    macro = Averages(
        sum(m.precision for m in per_class) / k,
        sum(m.recall for m in per_class) / k,
        sum(m.f1 for m in per_class) / k)
    accuracy = int(np.trace(counts)) / total
    # pooled counts: each error is one fp and one fn, so micro p = r = accuracy
    micro = Averages(accuracy, accuracy, accuracy)
    weighted = Averages(
        sum(m.support * m.precision for m in per_class) / total,
        sum(m.support * m.recall for m in per_class) / total,
        sum(m.support * m.f1 for m in per_class) / total)
    return EvalReport(
        confusion=cm,
        accuracy=accuracy,
        per_class=tuple(per_class),
        macro=macro, micro=micro, weighted=weighted)


def report_from_predictions(truth, pred, num_classes: int) -> EvalReport:
    return classification_metrics(confusion_matrix(truth, pred, num_classes))


def history_report(history, path) -> dict:
    """Write per-epoch series plus first-to-last deltas as JSON; returns it."""
    if not history:
        raise ValueError("history is empty")
    first, last = history[0], history[-1]
    doc = {
        "epochs": [r.to_dict() for r in history],
        "summary": {
            "first_val_acc": first.val_acc,
            "final_val_acc": last.val_acc,
            "val_acc_delta": last.val_acc - first.val_acc,
            "first_val_loss": first.val_loss,
            "final_val_loss": last.val_loss,
            "val_loss_delta": last.val_loss - first.val_loss,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc
