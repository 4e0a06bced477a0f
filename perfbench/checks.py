"""Output checks, each made apart from the program under test.

Matching is re-done by the backtracking oracle of ``tests/oracle.py`` or
by a Python ``re`` translation of the pattern dialect; labels come from
the benchmark's own suffix lookup; rates and AUC are recomputed from the
counts.  Every check raises :class:`CheckFailed` on the first mismatch.
"""

from __future__ import annotations

import csv
import io
import re

from oracle import backtrack_match

from driftsig.patterns import parse_pattern


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rates(tp, fp, tn, fn):
    tpr = tp / (tp + fn) if tp + fn else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    return tpr, fpr, (1.0 + tpr - fpr) / 2.0


def check_records(records, scored_events, window: int = 1000) -> None:
    """Cumulative counts match truth counted straight from the stream, and
    each record's rates recompute from its counts."""
    _expect(len(records) == len(scored_events) // window, "one record per scored window")
    pos = neg = 0
    for k, r in enumerate(records):
        chunk = scored_events[k * window : (k + 1) * window]
        ones = sum(e.truth for e in chunk)
        pos, neg = pos + ones, neg + len(chunk) - ones
        c = r.counts
        _expect(c.tp + c.fn == pos, f"window {r.window}: tp+fn {c.tp + c.fn} != {pos} positives")
        _expect(c.fp + c.tn == neg, f"window {r.window}: fp+tn {c.fp + c.tn} != {neg} negatives")
        tpr, fpr, auc = _rates(c.tp, c.fp, c.tn, c.fn)
        _expect(abs(r.tpr - tpr) < 1e-12 and abs(r.fpr - fpr) < 1e-12 and abs(r.auc - auc) < 1e-12,
                f"window {r.window}: rates do not recompute from the counts")


def _decrease(records) -> float:
    return (records[0].tpr - records[-1].tpr) / records[0].tpr


def check_criterion_4(naive, adaptive) -> None:
    """The criterion-4 properties of the adaptive run against the naive one."""
    naive_dec, adaptive_dec = _decrease(naive), _decrease(adaptive)
    _expect(naive_dec >= 0.40, f"naive decay {naive_dec:.3f} < 0.40")
    _expect(adaptive_dec <= 0.6 * naive_dec, f"adaptive decay {adaptive_dec:.3f} > 0.6 x naive")
    _expect(all(r.fpr == 0.0 for r in naive), "naive FPR is not 0")
    gap = abs(adaptive[-1].auc - naive[-1].auc)
    _expect(gap <= 0.10, f"AUC gap {gap:.3f} > 0.10")


def oracle_labels(patterns, values) -> list[int]:
    return [int(any(backtrack_match(p, v) for p in patterns)) for v in values]


def check_oracle_predictions(patterns, values, preds) -> None:
    want = oracle_labels(patterns, values)
    for v, got, exp in zip(values, preds, want):
        _expect(int(got) == exp, f"prediction {int(got)} for {v!r}, oracle says {exp}")


def check_golf(problems, models) -> None:
    """Every learned model (as pattern texts) matches all of its positives,
    none of its negatives, and has no more patterns than positives."""
    for k, ((pos, neg), texts) in enumerate(zip(problems, models)):
        patterns = [parse_pattern(t) for t in texts]
        _expect(len(patterns) <= len(pos), f"problem {k}: {len(patterns)} patterns for {len(pos)} positives")
        _expect(all(oracle_labels(patterns, pos)), f"problem {k}: a positive is not matched")
        _expect(not any(oracle_labels(patterns, neg)), f"problem {k}: a negative is matched")


def training_auc(problems, models) -> float:
    tp = fp = tn = fn = 0
    for (pos, neg), texts in zip(problems, models):
        patterns = [parse_pattern(t) for t in texts]
        hits = sum(oracle_labels(patterns, pos))
        false = sum(oracle_labels(patterns, neg))
        tp, fn, fp, tn = tp + hits, fn + len(pos) - hits, fp + false, tn + len(neg) - false
    return _rates(tp, fp, tn, fn)[2]


class SuffixLookup:
    """Blacklist labels: a value is positive when any dot-boundary suffix
    of it is a listed domain."""

    def __init__(self, domains):
        self.domains = frozenset(domains)

    def label(self, value: str) -> int:
        parts = value.split(".")
        return int(any(".".join(parts[i:]) in self.domains for i in range(len(parts))))


def check_replay_csv(data: bytes, labels, window: int) -> None:
    """One row per scored window, tp+fn and fp+tn equal to the labeled
    counts of the scored events, and a naive FPR of 0 throughout."""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    _expect(len(rows) == len(labels) // window - 1, f"{len(rows)} rows for {len(labels) // window - 1} windows")
    pos = neg = 0
    for k, row in enumerate(rows, start=1):
        chunk = labels[k * window : (k + 1) * window]
        pos, neg = pos + sum(chunk), neg + len(chunk) - sum(chunk)
        tp, fp, tn, fn = (int(row[f]) for f in ("tp", "fp", "tn", "fn"))
        _expect(int(row["window"]) == k and row["mode"] == "naive", f"row {k}: bad window or mode")
        _expect(tp + fn == pos, f"row {k}: tp+fn {tp + fn} != {pos} labeled positives")
        _expect(fp + tn == neg, f"row {k}: fp+tn {fp + tn} != {neg} labeled negatives")
        _expect(float(row["fpr"]) == 0.0, f"row {k}: naive FPR {row['fpr']} != 0")


_WILDCARD = "[a-z0-9._-]"
_EXACT = re.compile(r"\^(?:[a-z0-9_-]|\\\.)+\$")
_TOKEN = re.compile(r"\\\.|\.|[a-z0-9_-]|[?*+]")


def translate(text: str) -> str:
    """Python ``re`` source for one pattern of the dialect."""
    body = text[1:] if text.startswith("^") else text
    body = body[:-1] if body.endswith("$") else body
    out = []
    for tok in _TOKEN.findall(body):
        out.append(_WILDCARD if tok == "." else tok if tok in ("\\.", "?", "*", "+") else re.escape(tok))
    return ("^" if text.startswith("^") else "") + "".join(out) + (r"\Z" if text.endswith("$") else "")


class ModelFileMatcher:
    """Labels from a model file: set membership for exact entries, one
    ``re`` alternation for everything else."""

    def __init__(self, lines):
        texts = [t.strip() for t in lines if t.strip() and not t.startswith("#")]
        self.exact = {t[1:-1].replace("\\.", ".") for t in texts if _EXACT.fullmatch(t)}
        rest = [t for t in texts if not _EXACT.fullmatch(t)]
        self.regex = re.compile("|".join(f"(?:{translate(t)})" for t in rest)) if rest else None

    def label(self, value: str) -> int:
        return int(value in self.exact or (self.regex is not None and self.regex.search(value) is not None))


def check_serve(model_path, values, preds) -> None:
    with open(model_path, "r", encoding="utf-8") as fh:
        matcher = ModelFileMatcher(fh)
    for v, got in zip(values, preds):
        exp = matcher.label(v)
        _expect(int(got) == exp, f"served label {int(got)} for {v!r}, independent matcher says {exp}")
