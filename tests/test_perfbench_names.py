"""The names of the program that perfbench/ reads by attribute.

perfbench's span tracer replaces the functions it lists with timing
wrappers, looked up by name, and its runner reads the kernel flags; a
rename or removal in ``src/`` breaks the benchmark without failing any
other test.
"""

import importlib.util
from itertools import islice
from pathlib import Path

import pytest

from driftsig import _kernels, engine, learner, tracking
from driftsig.learner import LearnerConfig
from driftsig.patterns import Pattern, parse_pattern
from driftsig.streams import DriftConfig, gen_synthetic

SPANTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"


def _spantrace():
    spec = importlib.util.spec_from_file_location("spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_name_it_lists_and_restores_them():
    spantrace = _spantrace()
    learn = learner.learn
    tracer = spantrace.Tracer()
    try:
        tracer.install()
        assert learner.learn is not learn
        model = learner.learn({"ab", "ac"}, {"b"}, learner.LearnerConfig(max_ngram=2))
        model.predict_batch(["ab", "b"])
        learner.filter_components(["a", "b"], {"b"})
        engine.match_many(model.patterns, ["ab"])
    finally:
        tracer.remove()
    assert learner.learn is learn
    names = {span[0] for span in tracer.spans}
    assert {"learner.learn", "learner.filter_components", "engine.match_any_of", "engine.compile_set"} <= names
    metrics = spantrace.layer_metrics(tracer.spans, 1.0)
    assert metrics["learner.learn_calls"] == 1 and metrics["engine.compile_calls"] >= 1


def test_a_compile_books_one_span_however_deep_its_tree(monkeypatch):
    # compile_set recurses through a function of its own, never through the
    # attribute the tracer wraps, so a tree of joins books one compile with
    # the whole automaton's states, not one per node
    monkeypatch.setattr(engine, "_LEAF_PATTERNS", 2)
    patterns = [parse_pattern(t) for t in ("ab", "b?c", "^d", "e.f", "g+", "h$", "a*i")]
    with _spantrace().Tracer() as tracer:
        matcher = engine.compile_set(patterns)
    compiles = [span for span in tracer.spans if span[0] == "engine.compile_set"]
    assert len(compiles) == 1
    assert compiles[0][4][1] == matcher.n_states


@pytest.mark.parametrize("mode", tracking.MODES)
def test_the_tracking_totals_count_each_scored_window_once(mode):
    # a naive window is a run_window call that learns nothing; an adaptive
    # one learns and unions once, and the unions add the model's growth
    events = list(islice(gen_synthetic(DriftConfig(seed=29, drift_rate=0.1, window_hint=500)), 5000))
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0)
    spantrace = _spantrace()
    with spantrace.Tracer() as tracer:
        records = tracking.run_tracking(events, mode, 500, cfg)
    metrics = spantrace.layer_metrics(tracer.spans, 1.0)
    assert metrics["tracking.windows"] == len(records) == 9
    if mode == "naive":
        assert metrics["tracking.windows_learned"] == metrics["tracking.patterns_added"] == 0
        return
    # the first learn is the bootstrap's; its span holds the model's size
    bootstrap = next(span[4] for span in tracer.spans if span[0] == "learner.learn")
    assert metrics["tracking.windows_learned"] == metrics["model.union_calls"] == 9
    assert metrics["tracking.patterns_added"] == records[-1].model_size - bootstrap == 22


def test_the_runner_reads_the_kernel_flags_and_pattern_atoms():
    assert _kernels.HAVE_NUMBA is False and _kernels.NUMBA_ENABLED is False
    assert len(Pattern("a").atoms) == 1
