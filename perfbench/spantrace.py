"""Span tracer that wraps driftsig's public functions from outside the package.

Every module of the program binds the functions it calls as module
attributes (``from .engine import compile_set`` puts ``compile_set`` into
``driftsig.model``), and the three kernels are looked up as
``_kernels.<name>`` at call time.  Replacing each such attribute -- in
every module that holds it -- with a timing wrapper therefore sees every
call without touching ``src/``.  Methods are wrapped on their class.

A span is ``[name, start, end, parent_index, info]``; spans stay in
memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute) of every wrapped function; the span name is
# "<module>.<attribute>" with the package prefix dropped.
FUNCTIONS = [
    ("patterns", "parse_pattern"),
    ("patterns", "render_pattern"),
    ("patterns", "exact_pattern"),
    ("_kernels", "nfa_match_matrix"),
    ("_kernels", "nfa_match_any"),
    ("_kernels", "dfa_match_any"),
    ("engine", "compile_set"),
    ("engine", "match_many"),
    ("engine", "match_any_of"),
    ("learner", "learn"),
    ("learner", "filter_components"),
    ("learner", "greedy_set_cover"),
    ("model", "load_model"),
    ("model", "save_model"),
    ("streams", "load_blacklist"),
    ("streams", "bootstrap_label"),
    ("tracking", "run_tracking"),
    ("tracking", "run_window"),
    ("metrics", "accumulate_pairs"),
    ("metrics", "write_report"),
    ("cli", "main"),
]
METHODS = [
    ("engine", "MultiMatcher", "match_any_batch"),
    ("model", "Model", "predict_batch"),
    ("model", "Model", "union"),
]
MODULES = sorted({m for m, _ in FUNCTIONS} | {m for m, _, _ in METHODS})

# Every per-layer metric of a traced run: (name, unit, better).  A layer
# that does not run in a workload reports 0.
LAYER_METRICS = [
    ("learner.learn_calls", "calls", "lower"),
    ("learner.learn_s", "s", "lower"),
    ("learner.generate_s", "s", "lower"),
    ("learner.pool_in", "components", "lower"),
    ("learner.pool_kept", "components", "lower"),
    ("learner.filter_keep_ratio", "1", "higher"),
    ("learner.filter_cells", "cells", "lower"),
    ("learner.filter_s", "s", "lower"),
    ("learner.cover_cells", "cells", "lower"),
    ("learner.cover_s", "s", "lower"),
    ("learner.greedy_s", "s", "lower"),
    ("learner.cover_size", "patterns", "lower"),
    ("learner.fallbacks", "patterns", "lower"),
    ("kernels.numba_enabled", "count", "higher"),
    ("kernels.nfa_cells_per_s", "cells/s", "higher"),
    ("kernels.dfa_chars_per_s", "chars/s", "higher"),
    ("patterns.parse_calls", "calls", "lower"),
    ("patterns.parse_s", "s", "lower"),
    ("patterns.render_calls", "calls", "lower"),
    ("patterns.render_s", "s", "lower"),
    ("engine.compile_calls", "calls", "lower"),
    ("engine.compile_s", "s", "lower"),
    ("engine.nfa_states", "states", "lower"),
    ("engine.dfa_states", "states", "lower"),
    ("engine.dfa_states_per_s", "states/s", "higher"),
    ("engine.states_reached_ratio", "1", "higher"),
    ("engine.scan_events", "events", "higher"),
    ("engine.scan_s", "s", "lower"),
    ("engine.scan_ns_per_event", "ns/event", "lower"),
    ("model.union_calls", "calls", "lower"),
    ("model.union_s", "s", "lower"),
    ("model.patterns", "patterns", "lower"),
    ("model.load_s", "s", "lower"),
    ("streams.gen_s", "s", "lower"),
    ("streams.rows_read", "rows", "higher"),
    ("streams.load_tsv_s", "s", "lower"),
    ("streams.load_blacklist_s", "s", "lower"),
    ("streams.relabel_calls", "calls", "lower"),
    ("streams.relabel_s", "s", "lower"),
    ("streams.relabel_us_per_event", "us/event", "lower"),
    ("tracking.windows", "windows", "higher"),
    ("tracking.windows_learned", "windows", "lower"),
    ("tracking.patterns_added", "patterns", "lower"),
    ("tracking.self_s", "s", "lower"),
    ("metrics.accumulate_s", "s", "lower"),
    ("metrics.write_report_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "spans", "lower"),
    ("trace.coverage", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _kernel_cells(args, result):
    # (n_patterns, n_strings) of a pattern x string kernel call
    return (len(args[3]) - 1, len(args[6]) - 1)


def _dfa_chars(args, result):
    return len(args[3])


def _compile_info(args, result):
    return (sum(len(p.atoms) + 1 for p in args[0]), result.n_states)


def _filter_info(args, result):
    return (len(args[0]), len(set(args[1])), len(result))


def _match_many_info(args, result):
    # columns no pattern reaches become exact-match fallbacks inside learn
    return (result.shape[0], result.shape[1], int((~result.any(axis=0)).sum()) if result.size else result.shape[1])


def _size_info(args, result):
    return result.size


def _union_info(args, result):
    return (result.size - args[0].size, result.size)


def _scan_info(args, result):
    return (args[0], args[1])


INFO = {
    "_kernels.nfa_match_matrix": _kernel_cells,
    "_kernels.nfa_match_any": _kernel_cells,
    "_kernels.dfa_match_any": _dfa_chars,
    "engine.compile_set": _compile_info,
    "learner.filter_components": _filter_info,
    "engine.match_many": _match_many_info,
    "learner.learn": _size_info,
    "model.load_model": _size_info,
    "model.Model.union": _union_info,
    "engine.MultiMatcher.match_any_batch": _scan_info,
}


class Tracer:
    """Collects spans while installed; :meth:`install` / :meth:`remove`
    patch and restore the program's module attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_iter(self, name, fn):
        """Wrap a generator function so that each ``next`` is a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def rows():
                while True:
                    span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
                    stack.append(len(spans))
                    spans.append(span)
                    span[1] = clock()
                    try:
                        row = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[2] = clock()
                        stack.pop()
                    span[4] = 1  # a row, not the final exhausted call
                    yield row

            return rows()

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"driftsig.{m}") for m in MODULES}
        wrappers = {}
        for mod, attr in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{attr}", fn))
        load_tsv = mods["streams"].load_tsv
        wrappers[id(load_tsv)] = (load_tsv, self._wrap_iter("streams.load_tsv", load_tsv))
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for mod, cls_name, attr in METHODS:
            cls = getattr(mods[mod], cls_name)
            fn = vars(cls)[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"{mod}.{cls_name}.{attr}", fn))

    def remove(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def dump(self, path) -> None:
        """Write every span as ``index, name, start_ns, end_ns, parent``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\t{parent}\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def reached_states(matcher, values) -> set:
    """DFA states a full left-to-right read of ``values`` visits."""
    import numpy as np

    from driftsig.alphabet import CODE_OTHER, encode_many

    trans = matcher._trans
    codes, offsets = encode_many(values)
    lengths = np.diff(offsets)
    seen = {0}
    states = np.zeros(len(values), dtype=np.int64)
    for t in range(int(lengths.max()) if len(values) else 0):
        ok = t < lengths
        col = np.full(len(values), CODE_OTHER, dtype=np.int64)
        col[ok] = codes[offsets[:-1][ok] + t]
        states = np.where(ok, trans[states, col], states)
        seen.update(np.unique(states[ok]).tolist())
    return seen


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (zero where a layer
    did not run)."""
    own = self_times(spans)
    names = [s[0] for s in spans]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, name in zip(spans, names):
        total[name] = total.get(name, 0.0) + span[2] - span[1]
        calls[name] = calls.get(name, 0) + 1

    def parent_name(span):
        return names[span[3]] if span[3] >= 0 else None

    def by(name):
        return [s for s in spans if s[0] == name]

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}

    # learner: learn's self time is component generation (and the glue
    # around it); its children are the filter, the cover matrix and greedy
    learns = by("learner.learn")
    learn_idx = {i for i, n in enumerate(names) if n == "learner.learn"}
    filters = by("learner.filter_components")
    covers = [s for s in by("engine.match_many") if s[3] in learn_idx]
    pool_in = sum(s[4][0] for s in filters)
    pool_kept = sum(s[4][2] for s in filters)
    learn_s = total.get("learner.learn", 0.0)
    filter_s = total.get("learner.filter_components", 0.0)
    cover_s = sum(s[2] - s[1] for s in covers)
    greedy_s = sum(s[2] - s[1] for s in by("learner.greedy_set_cover") if s[3] in learn_idx)
    out["learner.learn_calls"] = len(learns)
    out["learner.learn_s"] = learn_s
    out["learner.generate_s"] = learn_s - filter_s - cover_s - greedy_s
    out["learner.pool_in"] = pool_in
    out["learner.pool_kept"] = pool_kept
    out["learner.filter_keep_ratio"] = ratio(pool_kept, pool_in)
    out["learner.filter_cells"] = sum(s[4][0] * s[4][1] for s in filters)
    out["learner.filter_s"] = filter_s
    out["learner.cover_cells"] = sum(s[4][0] * s[4][1] for s in covers)
    out["learner.cover_s"] = cover_s
    out["learner.greedy_s"] = greedy_s
    out["learner.cover_size"] = sum(s[4] for s in learns)
    out["learner.fallbacks"] = sum(s[4][2] for s in covers)

    nfa = by("_kernels.nfa_match_matrix") + by("_kernels.nfa_match_any")
    nfa_s = sum(s[2] - s[1] for s in nfa)
    dfa = by("_kernels.dfa_match_any")
    out["kernels.nfa_cells_per_s"] = ratio(sum(s[4][0] * s[4][1] for s in nfa), nfa_s)
    out["kernels.dfa_chars_per_s"] = ratio(sum(s[4] for s in dfa), sum(s[2] - s[1] for s in dfa))

    out["patterns.parse_calls"] = calls.get("patterns.parse_pattern", 0)
    out["patterns.parse_s"] = total.get("patterns.parse_pattern", 0.0)
    out["patterns.render_calls"] = calls.get("patterns.render_pattern", 0)
    out["patterns.render_s"] = total.get("patterns.render_pattern", 0.0)

    compiles = by("engine.compile_set")
    compile_s = total.get("engine.compile_set", 0.0)
    dfa_states = sum(s[4][1] for s in compiles)
    scans = by("engine.MultiMatcher.match_any_batch")
    scan_events = sum(len(s[4][1]) for s in scans)
    scan_s = sum(s[2] - s[1] for s in scans)
    reached: dict[int, set] = {}
    built: dict[int, int] = {}
    for s in scans:
        matcher, values = s[4]
        built[id(matcher)] = matcher.n_states
        reached.setdefault(id(matcher), set()).update(reached_states(matcher, values))
    out["engine.compile_calls"] = len(compiles)
    out["engine.compile_s"] = compile_s
    out["engine.nfa_states"] = sum(s[4][0] for s in compiles)
    out["engine.dfa_states"] = dfa_states
    out["engine.dfa_states_per_s"] = ratio(dfa_states, compile_s)
    out["engine.states_reached_ratio"] = ratio(sum(len(r) for r in reached.values()), sum(built.values()))
    out["engine.scan_events"] = scan_events
    out["engine.scan_s"] = scan_s
    out["engine.scan_ns_per_event"] = ratio(scan_s * 1e9, scan_events)

    loads = by("model.load_model")
    out["model.union_calls"] = calls.get("model.Model.union", 0)
    out["model.union_s"] = total.get("model.Model.union", 0.0)
    unions = by("model.Model.union")
    # the largest model the workload built or loaded
    out["model.patterns"] = max([s[4] for s in loads + learns] + [s[4][1] for s in unions] + [0])
    out["model.load_s"] = total.get("model.load_model", 0.0)

    relabel_n = calls.get("streams.bootstrap_label", 0)
    relabel_s = total.get("streams.bootstrap_label", 0.0)
    out["streams.rows_read"] = sum(1 for s in by("streams.load_tsv") if s[4])
    out["streams.load_tsv_s"] = total.get("streams.load_tsv", 0.0)
    out["streams.load_blacklist_s"] = total.get("streams.load_blacklist", 0.0)
    out["streams.relabel_calls"] = relabel_n
    out["streams.relabel_s"] = relabel_s
    out["streams.relabel_us_per_event"] = ratio(relabel_s * 1e6, relabel_n)

    run_idx = {i for i, n in enumerate(names) if n == "tracking.run_window"}
    out["tracking.windows"] = calls.get("tracking.run_window", 0) + sum(
        1 for s in by("model.Model.predict_batch") if parent_name(s) == "tracking.run_tracking"
    )
    out["tracking.windows_learned"] = sum(1 for s in learns if s[3] in run_idx)
    out["tracking.patterns_added"] = sum(s[4][0] for s in unions)
    out["tracking.self_s"] = sum(t for t, n in zip(own, names) if n.startswith("tracking."))
    out["metrics.accumulate_s"] = total.get("metrics.accumulate_pairs", 0.0)
    out["metrics.write_report_s"] = total.get("metrics.write_report", 0.0)
    out["cli.self_s"] = sum(t for t, n in zip(own, names) if n.startswith("cli."))

    top = sum(s[2] - s[1] for s in spans if s[3] < 0)
    out["trace.spans"] = len(spans)
    out["trace.coverage"] = ratio(top, wall_s)
    return out
