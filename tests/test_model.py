import gc
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftsig import model as model_mod
from driftsig.engine import compile_set
from driftsig.errors import PatternSyntaxError
from driftsig.model import Model, load_model, save_model
from driftsig.patterns import parse_pattern

from oracle import automaton_fields
from test_engine import all_join_paths


def pats(*texts):
    return tuple(parse_pattern(t) for t in texts)


def test_model_prediction_rule():
    model = Model(pats("ads", "track"))
    assert model.predict_batch(["ads.example.com", "news.example.com"]).tolist() == [1, 0]
    empty = Model()
    assert empty.predict_batch(["anything"]).tolist() == [0]
    anchored = Model(pats("^ab$"))
    assert anchored.predict_batch(["cab"]).tolist() == [0]


def test_model_rejects_duplicate_patterns():
    with pytest.raises(ValueError):
        Model(pats("a", "a"))


@pytest.mark.parametrize("limit", [0, -5])
def test_model_rejects_state_limit_below_one(limit):
    with pytest.raises(ValueError, match="state_limit"):
        Model(pats("a"), state_limit=limit)


def test_union_dedups_and_bumps_generation():
    model = Model(pats("a", "b"))
    merged = model.union(pats("b", "c"))
    assert merged.texts() == ["a", "b", "c"]
    assert merged.generation == 1
    assert model.texts() == ["a", "b"]  # original untouched
    again = merged.union(pats("a"))
    assert again.generation == 2
    assert again.texts() == ["a", "b", "c"]


def test_matcher_cached_per_model():
    model = Model(pats("xy"))
    assert model.matcher is model.matcher


@all_join_paths
def test_union_of_compiled_model_compiles_only_appended_patterns(monkeypatch):
    compiled = []

    def recording(patterns, state_limit):
        compiled.append(tuple(patterns))
        return compile_set(patterns, state_limit)

    model = Model(pats("ab", "^c.d", "e*$"))
    model.matcher
    monkeypatch.setattr(model_mod, "compile_set", recording)
    merged = model.union(pats("e*$", "x?y", "^q"))
    assert automaton_fields(merged.matcher) == automaton_fields(compile_set(merged.patterns))
    assert compiled == [pats("x?y", "^q")]


def test_union_adding_only_duplicates_serves_the_same_matcher():
    model = Model(pats("ab", "cd"))
    matcher = model.matcher
    merged = model.union(pats("cd", "ab"))
    assert merged.generation == 1
    assert merged.matcher is matcher


def test_union_of_never_compiled_model_compiles_from_scratch(monkeypatch):
    def no_extension(*args):
        raise AssertionError("extend_set called without a compiled base")

    monkeypatch.setattr(model_mod, "extend_set", no_extension)
    model = Model(pats("ab", "cd"))
    merged = model.union(pats("ef"))
    assert automaton_fields(merged.matcher) == automaton_fields(compile_set(merged.patterns))
    assert model._matcher is None
    # nor does a union that adds nothing compile the base on its behalf
    again = model.union(pats("ab"))
    assert automaton_fields(again.matcher) == automaton_fields(model.matcher)
    assert again.matcher is not model.matcher


def test_extended_model_drops_its_base():
    # a long adaptive run must not keep every generation's automaton alive
    model = Model(pats("ab", "c.d"))
    base = weakref.ref(model.matcher)
    merged = model.union(pats("x+y"))
    del model
    gc.collect()
    assert base() is not None  # held until the new matcher is built
    merged.matcher
    gc.collect()
    assert base() is None


# anchors, wildcards, quantifiers and empty-matching (always-matching) patterns
_POOL = pats("ab", "^c.d", "e*$", "x?y", "^q", "a?", "b+c", "..9", "^z$", "d*")
# a step is a union of a few pool patterns (duplicates likely) or, as
# None, a read of the current model's matcher
_STEPS = st.lists(st.one_of(st.none(), st.lists(st.sampled_from(_POOL), max_size=3)), max_size=8)


@settings(database=None, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(_POOL), max_size=3, unique=True), _STEPS)
@example([], [None, [_POOL[0]], None, [_POOL[0]], None, [_POOL[1]]])
@example([_POOL[2]], [None, [], [_POOL[3], _POOL[4]], None, [_POOL[5]]])
@all_join_paths
def test_any_union_and_read_order_gives_compile_set(first, steps):
    # covers all three of Model.matcher's paths: a fresh compile (no
    # compiled base), the base served as is (nothing appended) and an
    # extension of the base
    models = [Model(tuple(first))]
    for step in steps:
        if step is None:
            models[-1].matcher
        else:
            models.append(models[-1].union(step))
    for model in models:
        want = compile_set(model.patterns)
        assert automaton_fields(model.matcher) == automaton_fields(want), model.generation
        assert model.matcher.n_patterns == model.size


def test_save_load_round_trip(tmp_path):
    model = Model(pats("ab?c", "^exact$", "x.y", "\\.biz"))
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert back.texts() == model.texts()


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("# learned patterns\n\nab\n# another\nxy\n\n")
    model = load_model(path)
    assert model.texts() == ["ab", "xy"]


def test_load_dedups_repeated_lines(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("ab\nab\ncd\n")
    assert load_model(path).texts() == ["ab", "cd"]


SERVE_MODEL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "serve_model.txt"


def test_load_of_the_serve_model_equals_the_per_line_parse():
    lines = SERVE_MODEL.read_text().splitlines()
    assert load_model(SERVE_MODEL).patterns == pats(*lines)
    assert len(lines) == 2214


def test_load_strips_lines_and_keeps_a_repeated_line_once(tmp_path):
    path = tmp_path / "model.txt"
    path.write_bytes(b"# learned\r\n  ab?c \r\n\r\n\t^x\\.y$\r\n# x.y\r\n ab?c\r\nd*.e\r\n^x\\.y$\r\n   \r\n")
    assert load_model(path).texts() == ["ab?c", "^x\\.y$", "d*.e"]


def test_load_raises_the_error_of_a_bad_line_near_the_end(tmp_path):
    lines = SERVE_MODEL.read_text().splitlines()
    lines[-3] = "^ab+c\\x$"
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PatternSyntaxError) as err:
        load_model(path)
    with pytest.raises(PatternSyntaxError) as want:
        parse_pattern(lines[-3])
    assert str(err.value) == str(want.value)
    assert err.value.position == want.value.position == 5


def test_long_event_memory_is_bounded_by_its_characters():
    # 1000 synthetic events plus one 50,000-character event: the scan and
    # the learner's kernel pass lay a batch out with one entry per character,
    # so their peak is a small multiple of the batch's characters, not of
    # its event count times its longest event (477 MB and 57.6 MB when
    # every event was padded to the longest)
    import random
    import tracemalloc
    from itertools import islice

    from driftsig.alphabet import ALPHABET
    from driftsig.engine import match_split, pack_tokens
    from driftsig.learner import LearnerConfig, _cut_pool, learn
    from driftsig.streams import DriftConfig, gen_synthetic

    events = list(islice(gen_synthetic(DriftConfig(seed=1)), 1000))
    pos = sorted({e.value for e in events if e.truth})
    neg = sorted({e.value for e in events if not e.truth})
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0)
    model = learn(pos, neg, cfg)
    model.matcher
    raw, offsets = pack_tokens(_cut_pool(pos, cfg, ()))
    rng = random.Random(5)
    long_event = "".join(rng.choice(ALPHABET) for _ in range(50_000))
    values = [e.value for e in events] + [long_event]
    n_chars = sum(map(len, values))

    def peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    labels, scan_peak = peak(model.predict_batch, values)
    (_, _, hit), split_peak = peak(match_split, raw, offsets, pos, neg + [long_event])
    assert scan_peak < 100 * n_chars, scan_peak
    assert split_peak < 100 * n_chars, split_peak
    # the long event changes no other event's label, and the pass drops
    # some components for it but keeps none that a short negative holds
    assert labels[:-1].tolist() == model.predict_batch(values[:-1]).tolist()
    assert model.predict_batch([long_event]).tolist() == [labels[-1]]
    short_hit = match_split(raw, offsets, pos, neg)[2]
    assert not (short_hit & ~hit).any()
    assert (hit & ~short_hit).any()
