import hashlib
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftsig.engine import match_one
from driftsig.errors import DisjointnessViolation, EmptyPositiveSetError, UncoverableElements
from driftsig.learner import (
    ComponentPool,
    LearnerConfig,
    filter_components,
    generate_components,
    greedy_set_cover,
    learn,
)
from driftsig.patterns import parse_pattern, pattern_tokens

from oracle import cover_matrix, minimum_cover_size


# no example database on disk, and the same examples on every run
PROPERTY = settings(database=None, derandomize=True, deadline=None)


def texts_of(pool):
    return set(pool.texts())


def test_generate_basic_pool():
    cfg = LearnerConfig(max_ngram=2, max_wildcards=1, max_quantified=0)
    pool = generate_components({"ab"}, cfg)
    assert texts_of(pool) == {"a", "b", "ab", "a.", ".b"}
    # ordered shortest text first, then lexicographic
    assert pool.texts() == sorted(pool.texts(), key=lambda t: (len(t), t))


def test_generate_single_char_with_quantifiers():
    pool = generate_components({"a"}, LearnerConfig())
    assert texts_of(pool) == {"a", "a?", "a*", "a+"}


def test_generate_quantifier_insertions_superset():
    cfg = LearnerConfig(max_ngram=2, max_wildcards=1, max_quantified=1)
    got = texts_of(generate_components({"ab"}, cfg))
    expected_subset = {
        "a?", "a*", "a+", "b?", "b*", "b+",
        "a?b", "a*b", "a+b", "ab?", "ab*", "ab+",
        "a.", "a?.", "a*.", "a+.", ".b", ".b?", ".b*", ".b+",
    }
    assert expected_subset <= got


def test_generate_enumeration_matches_brute_force():
    # brute-force oracle: expand the production rules literally, with
    # literal dots written escaped and wildcards written bare; each text's
    # provenance is the first (sorted) positive that produces it
    from itertools import combinations, product

    def brute(strings, max_ngram, max_wild, max_quant):
        out = {}
        for src, s in enumerate(sorted(strings)):
            for n in range(1, min(max_ngram, len(s)) + 1):
                for i in range(len(s) - n + 1):
                    gram = s[i : i + n]
                    for k in range(min(max_wild, n) + 1):
                        for wild in combinations(range(n), k):
                            if k == n:
                                continue
                            base = [
                                "." if j in wild else ("\\." if gram[j] == "." else gram[j])
                                for j in range(n)
                            ]
                            plain = [j for j in range(n) if j not in wild]
                            for q in range(min(max_quant, len(plain)) + 1):
                                for qpos in combinations(plain, q):
                                    for quants in product("?*+", repeat=q):
                                        parts = list(base)
                                        for j, sym in zip(qpos, quants):
                                            parts[j] = parts[j] + sym
                                        out.setdefault("".join(parts), src)
        return out

    for strings, caps in [({"abc", "b.c", "dd"}, (3, 2, 1)), ({"xbcd", "abc", "bcd.", "c"}, (4, 1, 2))]:
        cfg = LearnerConfig(max_ngram=caps[0], max_wildcards=caps[1], max_quantified=caps[2])
        pool = generate_components(strings, cfg)
        assert dict(zip(pool.texts(), pool.provenance)) == brute(strings, *caps)


def test_generate_rejects_bad_input():
    with pytest.raises(EmptyPositiveSetError):
        generate_components(set(), LearnerConfig())
    with pytest.raises(ValueError):
        generate_components({"UPPER"}, LearnerConfig())
    with pytest.raises(ValueError):
        generate_components({""}, LearnerConfig())


@pytest.mark.parametrize(
    "caps",
    [{"max_ngram": 0}, {"max_wildcards": -1}, {"max_pool": -1}],
)
def test_learner_config_rejects_bad_caps(caps):
    with pytest.raises(ValueError):
        LearnerConfig(**caps)


def test_max_pool_truncation_keeps_shortest():
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0, max_pool=5)
    full = generate_components({"abcd"}, LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0))
    pool = generate_components({"abcd"}, cfg)
    assert len(pool) == 5
    assert pool.texts() == full.texts()[:5]


def test_golden_learned_models():
    # sha256 over the learned pattern texts of 40 seeded cases with the
    # regex-golf caps: a change in pool order or cover tie-break changes it
    rng = random.Random(4040)
    alphabet = "abcdefgh01.-_"
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1, max_pool=20_000)

    def draw(lo, hi):
        return {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(lo, hi))
        }

    h = hashlib.sha256()
    for _ in range(40):
        positives = draw(1, 20)
        negatives = draw(0, 20) - positives
        h.update("\n".join(learn(positives, negatives, cfg).texts()).encode() + b"\0")
    assert h.hexdigest() == "48cb8ff36c0eb9ea2091549a0d561e91deba05e19359be78130d914fac78ae85"


def test_golden_learned_models_drift_caps(monkeypatch):
    # sha256 over the learned pattern texts of the bootstrap and the first
    # ten self-training windows of the criterion-4 stream, with the
    # tracking caps (no quantifiers): wildcard-only pools and self-labels
    from driftsig import tracking
    from driftsig.streams import DriftConfig, gen_synthetic

    stream = DriftConfig(
        seed=29, drift_rate=0.034, mutation_weights=(0.30, 0.10, 0.45, 0.15),
        n_neg_seeds=600, window_hint=1000,
    )
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0)
    h = hashlib.sha256()
    calls = []

    def recorded(positives, negatives, cfg):
        model = learn(positives, negatives, cfg)
        calls.append(model.size)
        h.update("\n".join(model.texts()).encode() + b"\0")
        return model

    monkeypatch.setattr(tracking, "learn", recorded)
    tracking.run_tracking(islice(gen_synthetic(stream), 11_000), "adaptive", 1000, cfg)
    assert len(calls) == 11
    assert h.hexdigest() == "86d88b27d716ef8a3a5cfb1416e6086bb8584533bc4870301928a34015af5300"


def test_filter_components_examples():
    pool = ComponentPool(tuple(pattern_tokens(parse_pattern(t)) for t in ["a", "b", "ab"]), (0, 0, 0))
    assert filter_components(pool, {"ba"}).texts() == ["ab"]
    assert filter_components(pool, set()).texts() == ["a", "b", "ab"]
    single = ComponentPool((pattern_tokens(parse_pattern("x")),), (0,))
    assert filter_components(single, {"axb"}).texts() == []


def test_greedy_cover_on_known_instance():
    subsets = tuple(map(frozenset, [{1, 2}, {2, 3, 4, 5}, {2, 4, 6}, {4, 6, 8}, {1, 3, 5}, {7, 9}, {1, 10}]))
    chosen = greedy_set_cover(cover_matrix(range(1, 11), subsets))
    assert chosen == [1, 3, 5, 6]
    assert {subsets[i] for i in chosen} == {
        frozenset({2, 3, 4, 5}),
        frozenset({4, 6, 8}),
        frozenset({7, 9}),
        frozenset({1, 10}),
    }


def test_greedy_cover_singleton_and_ties():
    assert greedy_set_cover(cover_matrix({1}, [{1}])) == [0]
    assert greedy_set_cover(cover_matrix({1, 2, 3}, [{1, 2}, {2, 3}, {3}])) == [0, 1]


def test_greedy_cover_uncoverable():
    with pytest.raises(UncoverableElements) as err:
        greedy_set_cover(cover_matrix({1, 2}, [{1}]))
    assert err.value.elements == frozenset({1})


def test_greedy_cover_empty_universe():
    assert greedy_set_cover(cover_matrix(set(), [{1}])) == []


def test_greedy_within_harmonic_bound_of_optimum():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 8)
        universe = frozenset(range(n))
        subsets = tuple(
            frozenset(x for x in universe if rng.random() < 0.45)
            for _ in range(rng.randint(1, 10))
        )
        if not universe <= frozenset().union(*subsets):
            continue
        greedy = len(greedy_set_cover(cover_matrix(universe, subsets)))
        best = minimum_cover_size(universe, subsets)
        harmonic = sum(1.0 / k for k in range(1, n + 1))
        assert greedy <= harmonic * best + 1e-9


def test_learn_spec_cases():
    model = learn({"foo", "food"}, {"bar"})
    assert model.texts() == ["f"]
    assert all(match_one(p, "foo") for p in model.patterns)
    assert model.predict_batch(["foo", "food"]).tolist() == [1, 1]
    assert model.predict_batch(["bar"]).tolist() == [0]

    assert learn({"ab"}, {"xaby"}).texts() == ["^ab$"]
    assert learn({"a"}, set()).texts() == ["a"]


def test_learn_error_cases():
    with pytest.raises(DisjointnessViolation) as err:
        learn({"x", "y"}, {"y", "z"})
    assert err.value.strings == ["y"]
    with pytest.raises(EmptyPositiveSetError):
        learn(set(), {"x"})


def test_learn_perfect_separation_randomized():
    rng = random.Random(2024)
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1, max_pool=20_000)
    alphabet = "abcdef01."
    for _ in range(40):
        pos = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
               for _ in range(rng.randint(1, 12))}
        neg = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
               for _ in range(rng.randint(0, 12))} - pos
        model = learn(pos, neg, cfg)
        assert model.predict_batch(sorted(pos)).all()
        if neg:
            assert not model.predict_batch(sorted(neg)).any()


def test_learn_cover_validity_every_pick_contributes():
    # each selected component, in selection order, must have covered at
    # least one positive not covered by the components chosen before it
    from driftsig.engine import match_many

    rng = random.Random(77)
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0)
    for _ in range(20):
        pos = {"".join(rng.choice("abcd") for _ in range(rng.randint(2, 8))) for _ in range(6)}
        neg = {"".join(rng.choice("abcd") for _ in range(rng.randint(2, 8))) for _ in range(6)} - pos
        model = learn(pos, neg, cfg)
        ordered = sorted(pos)
        hits = match_many(model.patterns, ordered)
        assert hits.any(axis=0).all(), "every positive covered"
        covered = set()
        for row in hits:
            new = {v for v, h in zip(ordered, row) if h} - covered
            assert new, "every greedy pick contributed a new element"
            covered |= new


def test_learn_deterministic_across_input_orderings():
    values = ["abc", "bcd", "cde", "dff", "e0f"]
    negs = ["zzz", "yyy", "xyx"]
    base = learn(set(values), set(negs))
    for _ in range(5):
        shuffled_p = set(list(reversed(values)))
        shuffled_n = set(sorted(negs, reverse=True))
        again = learn(shuffled_p, shuffled_n)
        assert again.texts() == base.texts()


def test_learn_pool_matches_literal_composition():
    # the fused gram prefilter inside learn must agree with the plain
    # generate -> filter pipeline
    rng = random.Random(31)
    for _ in range(10):
        pos = {"".join(rng.choice("abc0.") for _ in range(rng.randint(1, 9))) for _ in range(5)}
        neg = {"".join(rng.choice("abc0.") for _ in range(rng.randint(1, 9))) for _ in range(5)} - pos
        cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1)
        full = filter_components(generate_components(pos, cfg), neg)
        from driftsig.learner import _generate

        blob = "\n".join(sorted(neg))
        fused = filter_components(_generate(pos, cfg, skip_gram=lambda g: g in blob), neg)
        assert full.texts() == fused.texts()
        assert full.provenance == fused.provenance


@st.composite
def coverable_matrices(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(0, 40))
    cover = draw(arrays(np.bool_, (rows, cols)))
    # give every column at least one row, so the instance is coverable
    owners = draw(st.lists(st.integers(0, rows - 1), min_size=cols, max_size=cols))
    cover[owners, np.arange(cols)] = True
    return cover


@PROPERTY
@given(coverable_matrices())
def test_greedy_cover_properties(cover):
    chosen = greedy_set_cover(cover)
    covered = np.zeros(cover.shape[1], dtype=bool)
    for i in chosen:
        assert (cover[i] & ~covered).any(), "every pick adds an uncovered column"
        covered |= cover[i]
    assert covered.all()
    if chosen:
        assert chosen[0] == int(np.argmax(cover.sum(axis=1)))


_WORDS = st.text(alphabet="abc0.", min_size=1, max_size=8)


@PROPERTY
@given(st.sets(_WORDS, min_size=1, max_size=8), st.sets(_WORDS, max_size=8))
def test_learn_separates_disjoint_sets(pos, neg):
    neg = neg - pos
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1, max_pool=5_000)
    model = learn(pos, neg, cfg)
    assert model.predict_batch(sorted(pos)).tolist() == [1] * len(pos)
    assert model.predict_batch(sorted(neg)).tolist() == [0] * len(neg)
