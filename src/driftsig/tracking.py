"""Window-by-window self-training loop.

Window 0 is the bootstrap: ground-truth labels split it into the initial
positive/negative sets (the naive mode freezes an exact-match list of
the positives, the adaptive mode learns a model).  From then on ground
truth is only read by the metrics accumulator: both modes run each
later window through :func:`run_window`, which partitions it by the
current model's own predictions and, in adaptive mode only, unions the
learner's output into the model at the window boundary.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import chain, islice

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


def run_window(model: Model, events, cfg: LearnerConfig | None = None, mode: str = "adaptive"):
    """Run one tracking window; returns (model, outcome).

    The model stays fixed while the window is labeled, so identical
    strings always land on the same side.  Only in adaptive mode, and
    only when something was predicted positive, is the partition learned
    and the addition unioned into a new model; otherwise the same model
    object is returned.  Ground-truth labels are copied into the outcome
    for scoring but never shown to the learner.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    events = list(events)
    if not events:
        raise ValueError("window must contain at least one event")
    values = [e.value for e in events]
    preds = model.predict_batch(values).tolist()
    positives = [v for v, p in zip(values, preds) if p]
    negatives = [v for v, p in zip(values, preds) if not p]
    pairs = [(e.truth, p) for e, p in zip(events, preds)]
    outcome = WindowOutcome(positives, negatives, pairs)
    if mode != "adaptive" or not positives:
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
    events or raises :class:`InsufficientStreamError`, before the
    bootstrap is learned or any snapshot written.  ``on_record``, when
    given, is called with each record as soon as its window is scored,
    so a caller can persist it before the next window runs.
    ``state_limit`` caps every generation's automaton (see
    :class:`Model`); a limit below 1 raises before any event is read.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    # built first, so a bad state limit fails before any event is read
    empty = Model(state_limit=state_limit)

    stream = iter(source)
    windows = iter(lambda: list(islice(stream, window_size)), [])
    bootstrap, first = next(windows, []), next(windows, [])
    if len(first) < window_size:
        got = len(bootstrap) + len(first)
        raise InsufficientStreamError(f"need at least {2 * window_size} events, got {got}")

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
    for window, chunk in enumerate(chain([first], windows), 1):
        if len(chunk) < window_size:
            break
        before = model
        model, outcome = run_window(model, chunk, cfg, mode)
        if model is not before:
            _snapshot(model, snapshot_dir)
        counts = accumulate_pairs(counts, outcome.pairs)
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
    return records


def _snapshot(model: Model, snapshot_dir) -> None:
    if snapshot_dir is None:
        return
    os.makedirs(snapshot_dir, exist_ok=True)
    save_model(model, os.path.join(snapshot_dir, f"model_gen{model.generation}.txt"))
