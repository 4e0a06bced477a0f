import gc
import weakref

import pytest

from driftsig import model as model_mod
from driftsig.engine import compile_set
from driftsig.model import Model, load_model, save_model
from driftsig.patterns import parse_pattern

from oracle import automaton_fields


def pats(*texts):
    return tuple(parse_pattern(t) for t in texts)


def test_model_prediction_rule():
    model = Model(pats("ads", "track"))
    assert model.predict("ads.example.com") == 1
    assert model.predict("news.example.com") == 0
    empty = Model()
    assert empty.predict("anything") == 0
    anchored = Model(pats("^ab$"))
    assert anchored.predict("cab") == 0


def test_model_rejects_duplicate_patterns():
    with pytest.raises(ValueError):
        Model(pats("a", "a"))


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
