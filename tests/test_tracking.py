import os
import tempfile
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftsig import engine, tracking
from driftsig import model as model_mod
from driftsig.engine import compile_set
from driftsig.errors import CapacityError, InsufficientStreamError
from driftsig.learner import LearnerConfig
from driftsig.model import Model
from driftsig.patterns import parse_pattern
from driftsig.streams import DriftConfig, Event, gen_synthetic
from driftsig.tracking import MODES, run_tracking, run_window

from oracle import automaton_fields, reference_track
from test_engine import all_join_paths

FAST = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0)


def events_from(values_and_labels, start=0):
    return [Event(start + i, v, y) for i, (v, y) in enumerate(values_and_labels)]


def model_of(*texts):
    return Model(tuple(parse_pattern(t) for t in texts))


def test_predict_examples():
    model = model_of("ads", "track")
    assert model.predict_batch(["ads.example.com"]).tolist() == [1]
    assert Model().predict_batch(["whatever"]).tolist() == [0]
    assert model_of("^ab$").predict_batch(["cab"]).tolist() == [0]


def test_run_window_partitions_and_learns():
    model = model_of("ad")
    window = events_from([("ad1", 1), ("news", 0), ("adx", 1), ("blog", 0)])
    updated, outcome = run_window(model, window, FAST)
    assert outcome.positives == ["ad1", "adx"]
    assert outcome.negatives == ["news", "blog"]
    assert len(outcome.positives) + len(outcome.negatives) == 4
    assert outcome.pairs == [(1, 1), (0, 0), (1, 1), (0, 0)]
    # shortest covering component for {ad1, adx} vs {news, blog} is "a"
    assert updated.texts() == ["ad", "a"]
    assert updated.generation == model.generation + 1


def test_run_window_dedups_relearned_patterns():
    model = model_of("a")
    window = events_from([("ad1", 1), ("news", 0), ("adx", 1), ("blog", 0)])
    updated, _ = run_window(model, window, FAST)
    # the addition relearns "a" itself; dedup leaves the text set unchanged
    assert updated.texts() == ["a"]
    assert updated.generation == model.generation + 1


def test_run_window_empty_positive_set_keeps_model():
    model = Model()
    window = events_from([("abc", 1), ("xyz", 0)])
    updated, outcome = run_window(model, window, FAST)
    assert updated is model
    assert outcome.positives == []
    assert [p for _, p in outcome.pairs] == [0, 0]


def test_naive_run_window_labels_alike_and_keeps_the_model():
    model = model_of("ad")
    window = events_from([("ad1", 1), ("news", 0), ("adx", 1), ("blog", 0)])
    kept, naive = run_window(model, window, FAST, "naive")
    _, adaptive = run_window(model, window, FAST, "adaptive")
    assert kept is model
    assert naive == adaptive


def test_run_window_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        run_window(model_of("ad"), events_from([("ad1", 1)]), FAST, "hybrid")


def test_run_window_single_event():
    model = model_of("x")
    updated, outcome = run_window(model, events_from([("x", 1)]), FAST)
    assert outcome.positives == ["x"]
    assert updated.texts() == ["x"]


def test_run_window_predictions_consistent_for_duplicates():
    model = model_of("ab")
    window = events_from([("abz", 1), ("qqq", 0), ("abz", 0), ("qqq", 1)])
    _, outcome = run_window(model, window, FAST)
    preds = {}
    for e, (truth, pred) in zip(window, outcome.pairs):
        assert preds.setdefault(e.value, pred) == pred


def naive_stationary_events(n):
    # two positive values, two negative values, fixed labels, recurring
    pattern = [("adsrv0.com", 1), ("blog0.net", 0), ("track0.biz", 1), ("shop0.org", 0)]
    return [Event(i, *pattern[i % 4]) for i in range(n)]


def test_naive_mode_on_stationary_stream_is_perfect():
    records = run_tracking(naive_stationary_events(400), "naive", 100, FAST)
    assert len(records) == 3
    for r in records:
        assert r.tpr == 1.0
        assert r.fpr == 0.0
        assert r.auc == 1.0
    # frozen model: size constant
    assert len({r.model_size for r in records}) == 1
    assert all(r.mode == "naive" for r in records)


def test_adaptive_beats_naive_on_constructed_drift():
    # bootstrap positives share the stem "adserv"; later windows use new
    # suffixes, so exact matching decays while the regex keeps catching them
    def window(k):
        out = []
        for i in range(50):
            if i % 2 == 0:
                out.append((f"adserv{k}x{i}.com", 1))
            else:
                out.append((f"blog{k}y{i}.net", 0))
        return out

    events = []
    for k in range(4):
        events.extend(window(k))
    stream = events_from(events)
    naive = run_tracking(stream, "naive", 50, FAST)
    adaptive = run_tracking(stream, "adaptive", 50, FAST)
    assert naive[-1].tpr == 0.0  # every post-bootstrap positive is new
    assert adaptive[-1].tpr > naive[-1].tpr
    assert adaptive[-1].tpr == 1.0


@all_join_paths
def test_every_generation_automaton_equals_compile_set(monkeypatch):
    models, extended = [], []

    def recording_window(model, events, *args):
        new_model, outcome = run_window(model, events, *args)
        models.append(new_model)
        return new_model, outcome

    def recording_extend(base, *args):
        extended.append(base.n_patterns)
        return engine.extend_set(base, *args)

    monkeypatch.setattr(tracking, "run_window", recording_window)
    monkeypatch.setattr(model_mod, "extend_set", recording_extend)
    stream = islice(gen_synthetic(DriftConfig(seed=29, drift_rate=0.1, window_hint=200)), 2000)
    run_tracking(stream, "adaptive", 200, FAST)
    assert [m.generation for m in models] == list(range(1, 10))
    for model in models:
        want = compile_set(model.patterns, model.state_limit)
        assert automaton_fields(model.matcher) == automaton_fields(want), model.generation
    assert len(extended) >= 5  # most generations extended their predecessor


@pytest.mark.parametrize("limit", [0, -5])
def test_run_tracking_rejects_state_limit_before_reading(limit):
    def unread():
        raise AssertionError("an event was read")
        yield

    with pytest.raises(ValueError, match="state_limit"):
        run_tracking(unread(), "adaptive", 100, FAST, state_limit=limit)


@pytest.mark.parametrize("mode", ["naive", "adaptive"])
def test_run_tracking_caps_the_bootstrap_model(mode):
    stream = islice(gen_synthetic(DriftConfig(seed=29, window_hint=200)), 400)
    with pytest.raises(CapacityError, match="more than 2 states"):
        run_tracking(stream, mode, 200, FAST, state_limit=2)


def test_run_tracking_requires_two_windows():
    with pytest.raises(InsufficientStreamError, match="need at least 200 events, got 150"):
        run_tracking(naive_stationary_events(150), "naive", 100, FAST)
    with pytest.raises(InsufficientStreamError, match="need at least 200 events, got 50"):
        run_tracking(naive_stationary_events(50), "naive", 100, FAST)


def test_a_short_stream_fails_before_the_bootstrap_learn(monkeypatch, tmp_path):
    def no_learn(*args):
        raise AssertionError("the bootstrap was learned")

    monkeypatch.setattr(tracking, "learn", no_learn)
    events = islice(gen_synthetic(DriftConfig(seed=29, window_hint=1000)), 1500)
    with pytest.raises(InsufficientStreamError, match="need at least 2000 events, got 1500"):
        run_tracking(events, "adaptive", 1000, FAST, snapshot_dir=tmp_path / "snaps")
    assert not (tmp_path / "snaps").exists()


def test_naive_scores_every_window_through_run_window(monkeypatch):
    calls = []

    def counting_window(model, events, *args):
        calls.append(args)
        return run_window(model, events, *args)

    monkeypatch.setattr(tracking, "run_window", counting_window)
    records = run_tracking(naive_stationary_events(400), "naive", 100, FAST)
    assert len(calls) == len(records) == 3
    assert all(mode == "naive" for _, mode in calls)


def test_partial_trailing_window_dropped():
    records = run_tracking(naive_stationary_events(390), "naive", 100, FAST)
    assert len(records) == 2


def test_records_are_cumulative_from_window_one():
    records = run_tracking(naive_stationary_events(400), "naive", 100, FAST)
    assert [r.window for r in records] == [1, 2, 3]
    totals = [r.counts.tp + r.counts.fp + r.counts.tn + r.counts.fn for r in records]
    assert totals == [100, 200, 300]


def test_ground_truth_never_reaches_the_learner():
    # poisoning post-bootstrap labels must not change the model trajectory
    cfg = DriftConfig(seed=3, drift_rate=0.1, window_hint=100)
    events = list(islice(gen_synthetic(cfg), 600))
    poisoned = events[:100] + [Event(e.seq, e.value, 1 - e.truth) for e in events[100:]]
    clean_records = run_tracking(events, "adaptive", 100, FAST)
    poisoned_records = run_tracking(poisoned, "adaptive", 100, FAST)
    assert [r.model_size for r in clean_records] == [r.model_size for r in poisoned_records]
    # metrics do change, proving truth is read by the accumulator only
    assert [r.tpr for r in clean_records] != [r.tpr for r in poisoned_records]


def test_adaptive_model_growth_is_monotone():
    cfg = DriftConfig(seed=8, drift_rate=0.2, window_hint=100)
    events = list(islice(gen_synthetic(cfg), 800))
    records = run_tracking(events, "adaptive", 100, FAST)
    sizes = [r.model_size for r in records]
    assert sizes == sorted(sizes)


def test_full_run_determinism():
    cfg = DriftConfig(seed=21, drift_rate=0.1)
    a = run_tracking(islice(gen_synthetic(cfg), 3000), "adaptive", 500, FAST)
    b = run_tracking(islice(gen_synthetic(cfg), 3000), "adaptive", 500, FAST)
    assert a == b


def test_snapshots_written_per_generation(tmp_path):
    cfg = DriftConfig(seed=5, drift_rate=0.3, window_hint=100)
    events = list(islice(gen_synthetic(cfg), 500))
    run_tracking(events, "adaptive", 100, FAST, snapshot_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names[0] == "model_gen0.txt"
    assert len(names) >= 2
    assert all(n.startswith("model_gen") and n.endswith(".txt") for n in names)


def test_naive_mode_takes_no_snapshots_beyond_bootstrap(tmp_path):
    events = naive_stationary_events(400)
    run_tracking(events, "naive", 100, FAST, snapshot_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model_gen0.txt"]


def test_invalid_mode_and_window():
    with pytest.raises(ValueError):
        run_tracking([], "hybrid", 10, FAST)
    with pytest.raises(ValueError):
        run_tracking([], "naive", 0, FAST)


@st.composite
def tracking_inputs(draw):
    # a stream of short values over a small alphabet, each value with one
    # truth, cut into windows of 5-30 events, then a partial window; caps
    # with quantifiers on and a max_pool small enough to cut most pools
    alphabet = draw(st.sampled_from(["ab", "ab.", "abc", "a0-"]))
    values = draw(st.lists(st.text(alphabet, min_size=1, max_size=6), min_size=2, max_size=16, unique=True))
    truth = draw(st.lists(st.integers(0, 1), min_size=len(values), max_size=len(values)))
    window = draw(st.integers(5, 30))
    n_events = window * draw(st.integers(2, 6)) + draw(st.integers(0, window - 1))
    span = draw(st.integers(2, len(values)))
    rng = draw(st.randoms(use_true_random=False))
    # event i draws from ``span`` values that slide along the list, so the
    # windows drift: later ones hold values the bootstrap never saw, and
    # lack some it did
    picks = [i * (len(values) - span) // n_events + rng.randrange(span) for i in range(n_events)]
    cfg = LearnerConfig(
        max_ngram=draw(st.integers(1, 3)),
        max_wildcards=draw(st.integers(0, 2)),
        max_quantified=draw(st.integers(1, 2)),
        max_pool=draw(st.integers(0, 30)),
    )
    return events_from((values[j], truth[j]) for j in picks), window, cfg


@settings(database=None, derandomize=True, deadline=None, max_examples=1000)
@given(tracking_inputs())
# the bootstrap learns b; window 1 learns a, which sorts before b, from its
# positive ab, and a then labels window 2's negative ca positive
@example((events_from([("b", 1), ("a", 0)] * 3 + [("ab", 1), ("c", 0)] * 3 + [("ca", 0), ("b", 1)] * 3), 6,
          LearnerConfig(max_ngram=1, max_wildcards=0, max_quantified=1)))
def test_run_tracking_equals_the_reference_track(inp):
    # every scored window's record and every generation's model, in both
    # modes, against the loop run on the oracle's matcher and learner
    events, window, cfg = inp
    for mode in MODES:
        records, generations = reference_track(events, mode, window, cfg)
        with tempfile.TemporaryDirectory() as snapshots:
            assert run_tracking(events, mode, window, cfg, snapshot_dir=snapshots) == records
            written = [
                Path(snapshots, f"model_gen{k}.txt").read_text().splitlines()
                for k in range(len(os.listdir(snapshots)))
            ]
        assert written == generations
