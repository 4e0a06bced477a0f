"""Window-by-window self-training loop.

Window 0 is the bootstrap: ground-truth labels split it into the initial
positive/negative sets (the naive mode freezes an exact-match list of
the positives, the adaptive mode learns a model).  From then on ground
truth is only read by the metrics accumulator -- each later window is
partitioned by the current model's own predictions, and in adaptive mode
the learner's output is unioned into the model at the window boundary.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import islice

from .engine import DEFAULT_STATE_LIMIT
from .errors import InsufficientStreamError
from .learner import LearnerConfig, learn
from .metrics import Counts, WindowRecord, accumulate_pairs, auc_point, rates
from .model import Model, save_model
from .patterns import exact_pattern

MODES = ("naive", "adaptive")


@dataclass
class WindowOutcome:
    """One window's partition and the (truth, prediction) pairs for scoring."""

    positives: list[str]
    negatives: list[str]
    pairs: list[tuple[int, int]]


def run_window(model: Model, events, cfg: LearnerConfig | None = None):
    """Run one self-training window; returns (updated model, outcome).

    The model stays fixed while the window is labeled, so identical
    strings always land on the same side.  If nothing was predicted
    positive there is no new evidence and the model is returned as-is.
    Ground-truth labels are copied into the outcome for scoring but
    never shown to the learner.
    """
    events = list(events)
    if not events:
        raise ValueError("window must contain at least one event")
    values = [e.value for e in events]
    preds = model.predict_batch(values)
    positives = [v for v, p in zip(values, preds) if p == 1]
    negatives = [v for v, p in zip(values, preds) if p == 0]
    pairs = [(e.truth, int(p)) for e, p in zip(events, preds)]
    outcome = WindowOutcome(positives, negatives, pairs)
    if not positives:
        return model, outcome
    addition = learn(set(positives), set(negatives), cfg)
    return model.union(addition.patterns), outcome


def run_tracking(
    source,
    mode: str,
    window_size: int,
    cfg: LearnerConfig | None = None,
    snapshot_dir=None,
    on_record=None,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> list[WindowRecord]:
    """Consume a labeled event source and score it window by window.

    Emits one cumulative :class:`WindowRecord` per post-bootstrap window
    (the bootstrap window seeds the models and is not scored; a trailing
    partial window is dropped).  Requires at least ``2 * window_size``
    events or raises :class:`InsufficientStreamError`.  ``on_record``,
    when given, is called with each record as soon as its window is
    scored, so a caller can persist it before the next window runs.
    ``state_limit`` caps every generation's automaton (see
    :class:`Model`); a limit below 1 raises before any event is read.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    cfg = cfg or LearnerConfig()
    # built first, so a bad state limit fails before any event is read
    empty = Model(state_limit=state_limit)

    stream = iter(source)
    bootstrap = list(islice(stream, window_size))
    if len(bootstrap) < window_size:
        raise InsufficientStreamError(
            f"need at least {2 * window_size} events, got {len(bootstrap)}"
        )

    pos0 = sorted({e.value for e in bootstrap if e.truth == 1})
    neg0 = sorted({e.value for e in bootstrap if e.truth == 0})
    if mode == "naive":
        patterns = tuple(exact_pattern(v) for v in pos0)
    else:
        patterns = learn(set(pos0), set(neg0), cfg).patterns if pos0 else ()
    model = replace(empty, patterns=patterns)
    _snapshot(model, snapshot_dir)

    counts = Counts()
    records: list[WindowRecord] = []
    window = 0
    while True:
        chunk = list(islice(stream, window_size))
        if len(chunk) < window_size:
            break
        window += 1
        if mode == "naive":
            preds = model.predict_batch([e.value for e in chunk])
            pairs = [(e.truth, int(p)) for e, p in zip(chunk, preds)]
        else:
            before = model.generation
            model, outcome = run_window(model, chunk, cfg)
            pairs = outcome.pairs
            if model.generation != before:
                _snapshot(model, snapshot_dir)
        counts = accumulate_pairs(counts, pairs)
        tpr, fpr = rates(counts)
        record = WindowRecord(
            window=window,
            mode=mode,
            counts=counts,
            tpr=tpr,
            fpr=fpr,
            auc=auc_point(tpr, fpr),
            model_size=model.size,
        )
        records.append(record)
        if on_record is not None:
            on_record(record)
    if not records:
        raise InsufficientStreamError(
            f"need at least {2 * window_size} events for one scored window"
        )
    return records


def _snapshot(model: Model, snapshot_dir) -> None:
    if snapshot_dir is None:
        return
    os.makedirs(snapshot_dir, exist_ok=True)
    save_model(model, os.path.join(snapshot_dir, f"model_gen{model.generation}.txt"))
