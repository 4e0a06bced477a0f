"""Confusion counts, rate/AUC formulas, and the metrics CSV report."""

from __future__ import annotations

import csv
from dataclasses import dataclass


@dataclass(frozen=True)
class Counts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(
            self.tp + other.tp,
            self.fp + other.fp,
            self.tn + other.tn,
            self.fn + other.fn,
        )


def accumulate_pairs(counts: Counts, pairs) -> Counts:
    """Fold a batch of (y_true, y_pred) pairs; order cannot matter."""
    tp = fp = tn = fn = 0
    for y_true, y_pred in pairs:
        if y_true == 1:
            if y_pred == 1:
                tp += 1
            else:
                fn += 1
        elif y_pred == 1:
            fp += 1
        else:
            tn += 1
    return counts + Counts(tp, fp, tn, fn)


def rates(counts: Counts) -> tuple[float, float]:
    """(TPR, FPR) with the 0.0 convention for empty denominators."""
    pos = counts.tp + counts.fn
    neg = counts.fp + counts.tn
    tpr = counts.tp / pos if pos else 0.0
    fpr = counts.fp / neg if neg else 0.0
    return tpr, fpr


def auc_point(tpr: float, fpr: float) -> float:
    """Area under the two-segment ROC of a hard classifier.

    The curve runs (0,0) -> (fpr,tpr) -> (1,1); the trapezoid area is
    (1 + tpr - fpr) / 2, which is 1.0 for a perfect detector and 0.5
    whenever tpr == fpr.
    """
    return (1.0 + tpr - fpr) / 2.0


@dataclass(frozen=True)
class WindowRecord:
    """Cumulative scores at one window boundary."""

    window: int
    mode: str
    counts: Counts
    tpr: float
    fpr: float
    auc: float
    model_size: int


CSV_FIELDS = ["window", "mode", "tp", "fp", "tn", "fn", "tpr", "fpr", "auc", "model_size"]


def _row(r: WindowRecord) -> list:
    return [
        r.window,
        r.mode,
        r.counts.tp,
        r.counts.fp,
        r.counts.tn,
        r.counts.fn,
        f"{r.tpr:.6f}",
        f"{r.fpr:.6f}",
        f"{r.auc:.6f}",
        r.model_size,
    ]


def write_report(records, path) -> None:
    """Write the metrics CSV (header + one row per window record)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        writer.writerows(_row(r) for r in records)


class ReportWriter:
    """The metrics CSV of :func:`write_report`, written one record at a time.

    The file and its header are created with the first record, so a run
    that scores nothing leaves no file behind.  Each row is flushed as it
    is written, so a run that fails later keeps the rows already scored.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        self._writer = None

    def write(self, record: WindowRecord) -> None:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8", newline="")
            self._writer = csv.writer(self._fh)
            self._writer.writerow(CSV_FIELDS)
        self._writer.writerow(_row(record))
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def read_report(path) -> list[WindowRecord]:
    """Parse a metrics CSV back into window records."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            counts = Counts(int(row["tp"]), int(row["fp"]), int(row["tn"]), int(row["fn"]))
            records.append(
                WindowRecord(
                    window=int(row["window"]),
                    mode=row["mode"],
                    counts=counts,
                    tpr=float(row["tpr"]),
                    fpr=float(row["fpr"]),
                    auc=float(row["auc"]),
                    model_size=int(row["model_size"]),
                )
            )
    return records
