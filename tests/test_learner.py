import dataclasses
import hashlib
import importlib.util
import random
import sys
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftsig import _kernels, engine, learner, tracking
from driftsig import model as model_mod
from driftsig.engine import match_many, match_split, pack_tokens
from driftsig.errors import DisjointnessViolation, EmptyPositiveSetError, UncoverableElements
from driftsig.learner import (
    LearnerConfig,
    _grams,
    _text_order,
    filter_components,
    greedy_set_cover,
    learn,
)
from driftsig.model import load_model
from driftsig.patterns import ANY_TOKEN, TOKEN_ATOMS, Quant, parse_pattern, render_tokens
from driftsig.streams import gen_synthetic

from oracle import (
    backtrack_match,
    cover_matrix,
    cut_pool_tokens,
    gram_variants,
    greedy_cover_reference,
    kept_grams_reference,
    minimum_cover_size,
    pool_reference,
    reference_learn,
    variant_pool_reference,
)


# no example database on disk, and the same examples on every run
PROPERTY = settings(database=None, derandomize=True, deadline=None)


def texts(pool):
    """The pool's components as pattern text, in pool order."""
    return [render_tokens(t) for t in pool]


def texts_of(pool):
    return set(texts(pool))


def _reducible(text):
    """Whether a component's first or last non-wildcard atom carries a
    ``+``, or any quantifier when it has two non-wildcard atoms or more."""
    plain = [a for a in parse_pattern(text).atoms if not a.is_any]
    return any(
        a.quant is Quant.ONE_OR_MORE or (a.quant is not Quant.ONE and len(plain) > 1)
        for a in (plain[0], plain[-1])
    )


def survivors(pos, neg, cfg):
    """learn's surviving components, as learn finds them: the cut pool,
    matched against the sorted positives and the negatives in one kernel
    pass, less those a negative matches, in text order."""
    tokens = cut_pool_tokens(pos, cfg, neg)
    raw, offsets = pack_tokens(tokens)
    hit = match_split(raw, offsets, sorted(pos), neg)[2]
    return [tokens[i] for i in _text_order(raw, offsets).tolist() if not hit[i]]


def test_generate_basic_pool():
    cfg = LearnerConfig(max_ngram=2, max_wildcards=1, max_quantified=0)
    assert texts_of(cut_pool_tokens({"ab"}, cfg, set())) == {"a", "b", "ab", "a.", ".b"}
    pool = survivors({"ab"}, set(), cfg)
    assert texts_of(pool) == {"a", "b", "ab", "a.", ".b"}
    # ordered shortest text first, then lexicographic
    assert texts(pool) == sorted(texts(pool), key=lambda t: (len(t), t))


def test_generate_single_char_with_quantifiers():
    # a+ matches as a, so the pool defers it until a cut must count it
    cfg = LearnerConfig()
    assert set(pool_reference({"a"}, set(), cfg)) == {"a", "a?", "a*", "a+"}
    assert texts_of(cut_pool_tokens({"a"}, cfg, set())) == {"a", "a?", "a*"}
    assert texts(cut_pool_tokens({"a"}, LearnerConfig(max_pool=3), set())) == ["a", "a*", "a+"]


def test_generate_quantifier_insertions_superset():
    cfg = LearnerConfig(max_ngram=2, max_wildcards=1, max_quantified=1)
    expected_subset = {
        "a?", "a*", "a+", "b?", "b*", "b+",
        "a?b", "a*b", "a+b", "ab?", "ab*", "ab+",
        "a.", "a?.", "a*.", "a+.", ".b", ".b?", ".b*", ".b+",
    }
    assert expected_subset <= set(pool_reference({"ab"}, set(), cfg))
    got = texts_of(cut_pool_tokens({"ab"}, cfg, set()))
    assert {t for t in expected_subset if not _reducible(t)} <= got
    # a cut of one component expands the deferred variants too, and drops
    # the last text, ab?
    whole = len(variant_pool_reference({"ab"}, set(), cfg))
    got = texts_of(cut_pool_tokens({"ab"}, LearnerConfig(2, 1, 1, max_pool=whole - 1), set()))
    assert len(got) == whole - 1 and expected_subset - got == {"ab?"}


def test_generate_enumeration_matches_brute_force():
    # the oracle expands the production rules literally, with literal dots
    # written escaped and wildcards written bare; variants of 9 and 10
    # atoms are deduplicated on two words a row, and equal ones come from
    # grams that differ in either word
    cases = [({"abc", "b.c", "dd"}, (3, 2, 1)), ({"xbcd", "abc", "bcd.", "c"}, (4, 1, 2))]
    cases.append(({"abcdefgh0a", "abcdefgh0b", "bbcdefgh0a"}, (10, 2, 0)))
    for strings, caps in cases:
        want = variant_pool_reference(strings, set(), LearnerConfig(*caps))
        pool = texts(cut_pool_tokens(strings, LearnerConfig(*caps), set()))
        assert len(pool) == len(set(pool)), "each component once"
        assert set(pool) == {t for t in want if not _reducible(t)}
        # a cut of one component expands the deferred variants, then keeps
        # the rest in text order
        pool = cut_pool_tokens(strings, LearnerConfig(*caps, max_pool=len(want) - 1), set())
        assert texts(pool) == sorted(want, key=lambda t: (len(t), t))[:-1]


def test_generate_rejects_bad_input():
    with pytest.raises(EmptyPositiveSetError):
        cut_pool_tokens(set(), LearnerConfig(), set())
    with pytest.raises(ValueError):
        cut_pool_tokens({"UPPER"}, LearnerConfig(), set())
    with pytest.raises(ValueError):
        cut_pool_tokens({""}, LearnerConfig(), set())


@pytest.mark.parametrize(
    "caps",
    [{"max_ngram": 0}, {"max_wildcards": -1}, {"max_pool": -1}],
)
def test_learner_config_rejects_bad_caps(caps):
    with pytest.raises(ValueError):
        LearnerConfig(**caps)


def test_max_pool_truncation_keeps_shortest():
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0, max_pool=5)
    full = survivors({"abcd"}, set(), LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0))
    pool = cut_pool_tokens({"abcd"}, cfg, set())
    assert len(pool) == 5
    assert pool == full[:5]
    assert survivors({"abcd"}, set(), cfg) == pool


def test_max_pool_cut_comes_before_the_filter():
    # "a*" holds the third place of the cut and matches every string, so
    # the filter drops it; cutting after the filter would keep "a+" instead
    pos, neg = {"ab"}, {"c"}
    caps = {"max_ngram": 1, "max_wildcards": 0, "max_quantified": 1}
    everything = pool_reference(pos, set(), LearnerConfig(**caps))
    assert everything[:4] == ["a", "b", "a*", "a+"]
    cut = cut_pool_tokens(pos, LearnerConfig(**caps, max_pool=3), neg)
    assert texts(cut) == everything[:3]
    pool = survivors(pos, neg, LearnerConfig(**caps, max_pool=3))
    assert pool == filter_components(cut, neg)
    assert texts(pool) == ["a", "b"]


# atoms whose texts differ in length: a literal dot renders as two bytes
# and a quantified one as three, a wildcard and a plain literal as one
_DOTTY = [ANY_TOKEN, "a"] + [parse_pattern(t).tokens for t in ("\\.", "\\.?", "\\.*", "\\.+", "a?", "b+")]
_TOKEN_STRINGS = st.lists(
    st.one_of(st.sampled_from(_DOTTY), st.sampled_from(sorted(TOKEN_ATOMS))), min_size=1, max_size=12
).map("".join)


@PROPERTY
@given(st.lists(_TOKEN_STRINGS, max_size=40))
@example([parse_pattern("a?").tokens, "a"])
@example([parse_pattern("\\.").tokens, ANY_TOKEN])
def test_text_order_sorts_by_length_then_text(tokens):
    # texts of up to 36 bytes cross the 8- and 16-byte word boundaries
    def by_text(t):
        return len(render_tokens(t)), render_tokens(t)

    order = _text_order(*pack_tokens(tokens))
    assert [tokens[i] for i in order] == sorted(tokens, key=by_text)


@st.composite
def pool_inputs(draw):
    # small caps with quantifiers and a max_pool small enough to cut most pools
    pos = draw(st.sets(st.text("ab.", min_size=1, max_size=5), min_size=1, max_size=4))
    neg = draw(st.sets(st.text("ab.X", max_size=5), max_size=4)) - pos
    cfg = LearnerConfig(
        max_ngram=draw(st.integers(1, 3)),
        max_wildcards=draw(st.integers(0, 2)),
        max_quantified=draw(st.integers(0, 2)),
        max_pool=draw(st.integers(0, 40)),
    )
    return pos, neg, cfg


@PROPERTY
@given(pool_inputs())
@example(({"ab"}, {"c"}, LearnerConfig(max_ngram=1, max_wildcards=0, max_quantified=1, max_pool=3)))
def test_learn_survivors_equal_the_reference_pool(inp):
    # the pool defers the reducible variants unless a max_pool cut must
    # count them: when the pool less them, plus one for each of their
    # (gram, shape) pairs, exceeds max_pool
    pos, neg, cfg = inp
    pool = survivors(pos, neg, cfg)
    want = pool_reference(pos, neg, cfg)
    whole = variant_pool_reference(pos, neg, cfg)
    grams = kept_grams_reference(pos, neg, cfg.max_ngram)
    variants = (t for g in grams for t in gram_variants(g, cfg.max_wildcards, cfg.max_quantified))
    n_deferred = sum(map(_reducible, variants))
    if len(whole) - sum(map(_reducible, whole)) + n_deferred <= cfg.max_pool:
        want = [t for t in want if not _reducible(t)]
    assert texts(pool) == want


@PROPERTY
@given(pool_inputs())
@example(({"ab"}, {"c"}, LearnerConfig(max_ngram=1, max_wildcards=0, max_quantified=1, max_pool=3)))
@example(({"ab", "ba"}, {"a", "b"}, LearnerConfig(max_pool=0)))
# max_pool between the pool without the variants learn defers (7, 6 and
# 35 components) and the whole pool (32, 52 and 107): the deferred
# variants must be expanded and cut with the rest
@example(({"..", ".ba", "aba"}, {".", "bX."}, LearnerConfig(max_ngram=2, max_wildcards=0, max_quantified=1, max_pool=13)))
@example(({"abb.", "b...", "b.a"}, {"..", "X.b", "bbXb"},
          LearnerConfig(max_ngram=2, max_wildcards=0, max_quantified=2, max_pool=9)))
@example(({"a.b", "aa", "aba"}, {"", "XbaX", "abXa"},
          LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1, max_pool=56)))
# 17 components and 36 deferred variants exceed max_pool, but two of the
# deferred ones are the same component: the whole pool of 52 is not cut
@example(({"a", "bb", "bba"}, set(), LearnerConfig(max_ngram=2, max_wildcards=2, max_quantified=2, max_pool=52)))
def test_learn_equals_the_reference_learn(inp):
    pos, neg, cfg = inp
    assert learn(pos, neg, cfg).texts() == reference_learn(pos, neg, cfg)


@PROPERTY
@given(pool_inputs())
@example(({"abc"}, set(), LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=2)))
def test_learn_defers_exactly_the_reducible_variants(inp):
    # with no cut to make, learn's pool is the whole pool less the
    # variants whose end quantifier a shorter component makes redundant
    pos, neg, cfg = inp
    cfg = LearnerConfig(cfg.max_ngram, cfg.max_wildcards, cfg.max_quantified, max_pool=10**6)
    whole = variant_pool_reference(pos, neg, cfg)
    pool = texts(cut_pool_tokens(pos, cfg, neg))
    assert len(pool) == len(set(pool)), "each component once"
    assert set(pool) == {t for t in whole if not _reducible(t)}


@st.composite
def deferred_variants(draw):
    """(variant, reduced form, instances): a component with a quantifier on
    its first or last literal atom and at most one more quantifier, as
    learn defers it; the shorter component that matches the same strings,
    with the ``+`` dropped or the ``?`` or ``*`` atom dropped whole; and
    strings holding a match of the variant."""
    chars = draw(st.lists(st.sampled_from("ab."), min_size=1, max_size=4))
    quants = [""] * len(chars)
    end = draw(st.sampled_from([0, len(chars) - 1]))
    quants[end] = draw(st.sampled_from("?*+" if len(chars) > 1 else "+"))
    others = [i for i in range(len(chars)) if i != end]
    if others and draw(st.booleans()):
        quants[draw(st.sampled_from(others))] = draw(st.sampled_from("?*+"))
    # wildcards before, between and after the literals
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(chars) + 1, max_size=len(chars) + 1))

    def text(reduce):
        parts = ["." * gaps[0]]
        for i, (ch, q) in enumerate(zip(chars, quants)):
            if not (reduce and i == end and q != "+"):
                parts.append(("\\." if ch == "." else ch) + ("" if reduce and i == end else q))
            parts.append("." * gaps[i + 1])
        return "".join(parts)

    def instance():
        fill = st.text("ab.X", max_size=2)
        out = [draw(fill), draw(st.text("ab.", min_size=gaps[0], max_size=gaps[0]))]
        for ch, q, gap in zip(chars, quants, gaps[1:]):
            lo, hi = {"": (1, 1), "?": (0, 1), "*": (0, 3), "+": (1, 3)}[q]
            out.append(ch * draw(st.integers(lo, hi)))
            out.append(draw(st.text("ab.", min_size=gap, max_size=gap)))
        return "".join(out + [draw(fill)])

    return text(False), text(True), [instance() for _ in range(3)]


@PROPERTY
@given(deferred_variants(), st.lists(st.text("ab.X", max_size=7), max_size=10))
@example((".a?c", ".c", ["bac", "Xac"]), ["c", "Xc", "ac"])
@example(("ab*", "a", ["abbb"]), ["b", "ba"])
@example(("a+bc", "abc", ["aaabc"]), ["bc", "ab"])
@example(("a?.b+", ".b+", ["ab"]), ["Xb", "abb"])
def test_deferred_variants_match_like_their_reduced_form(case, subjects):
    variant, reduced, instances = case
    v, r = parse_pattern(variant), parse_pattern(reduced)
    assert len(reduced) < len(variant)
    assert all(backtrack_match(v, s) for s in instances)
    for s in subjects + instances + ["", "X", "\xe9"]:
        assert backtrack_match(v, s) == backtrack_match(r, s), s


def test_middle_and_lone_end_quantifiers_are_not_deferred():
    def m(text, s):
        return backtrack_match(parse_pattern(text), s)

    # a quantifier between literals: dropping b? loses "abc", dropping
    # the ? loses "ac"
    assert m("ab?c", "abc") and not m("ac", "abc")
    assert m("ab?c", "ac") and not m("abc", "ac")
    # .a? matches every alphabet character, and .a does not; its only
    # shorter form is ".", which is no component (.a* matches the same
    # strings and sorts first, but it is no shorter)
    assert m(".a?", "b") and not m(".a", "b")
    with pytest.raises(ValueError):
        parse_pattern(".")
    pool = texts(cut_pool_tokens({"abc"}, LearnerConfig(max_ngram=3, max_wildcards=1), set()))
    assert {"ab?c", "ab+c", ".b?", "a?"} <= set(pool)
    assert not {"a?bc", "ab?", "a+", "a+bc", ".b+"} & set(pool)


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
    pool = [parse_pattern(t).tokens for t in ("a", "b", "ab")]
    assert filter_components(pool, {"ba"}) == [parse_pattern("ab").tokens]
    assert filter_components(pool, set()) == pool
    assert filter_components([parse_pattern("x").tokens], {"axb"}) == []


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
    assert match_many(model.patterns, ["foo"]).all()
    assert model.predict_batch(["foo", "food"]).tolist() == [1, 1]
    assert model.predict_batch(["bar"]).tolist() == [0]

    assert learn({"ab"}, {"xaby"}).texts() == ["^ab$"]
    assert learn({"a"}, set()).texts() == ["a"]


def test_learn_places_fallbacks_after_the_cover():
    # "ab" and "ba" lie inside the negative, so no component reaches
    # them: each gets an exact-match fallback after greedy's picks, in
    # sorted order
    pos, neg = {"ab", "ba", "xy"}, {"zabaz"}
    model = learn(pos, neg)
    assert model.texts() == ["x", "^ab$", "^ba$"]
    ordered = sorted(pos)
    pool = pool_reference(ordered, neg, LearnerConfig())
    cover = match_many([parse_pattern(t) for t in pool], ordered)
    reached = cover.any(axis=0)
    picks = greedy_set_cover(cover[:, reached])
    assert model.texts()[: len(picks)] == [pool[i] for i in picks]


@PROPERTY
@given(arrays(np.bool_, st.tuples(st.integers(0, 8), st.integers(0, 30))))
def test_greedy_picks_components_before_fallback_rows(cover):
    # greedy over the components' rows plus one fallback row per column
    # no component covers picks every component first, and then the
    # fallbacks in column order: learn's cover of the reached columns
    # followed by its sorted fallbacks is the same selection
    reached = cover.any(axis=0)
    unreached = np.flatnonzero(~reached)
    fallback = np.zeros((len(unreached), cover.shape[1]), dtype=bool)
    fallback[np.arange(len(unreached)), unreached] = True
    joint = greedy_set_cover(np.vstack([cover, fallback]))
    n = cover.shape[0]
    assert joint == greedy_set_cover(cover[:, reached]) + list(range(n, n + len(unreached)))


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


def test_learn_ignores_the_order_of_the_negatives():
    # nothing orders the negatives: the gram stage sorts its window keys
    # and the kernel ORs the negatives' hits, so any order, with repeats,
    # gives the same pool, the same hits and the same model (learn's own
    # set of the negatives may iterate alike for both lists, so the
    # kernel is also called with the lists as they are)
    rng = random.Random(53)
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1, max_pool=400)
    for _ in range(10):
        pos = {"".join(rng.choice("abc0.") for _ in range(rng.randint(1, 9))) for _ in range(5)}
        neg = sorted({"".join(rng.choice("abc0.") for _ in range(rng.randint(1, 9))) for _ in range(8)} - pos)
        shuffled = neg + neg[:3]
        rng.shuffle(shuffled)
        for pair in [(neg, shuffled), (neg, neg[::-1])]:
            a, b = (survivors(pos, n, cfg) for n in pair)
            assert a == b
            packed = pack_tokens(cut_pool_tokens(pos, cfg, ()))
            hits = [match_split(*packed, sorted(pos), n)[2] for n in pair]
            assert hits[0].tolist() == hits[1].tolist()
            assert learn(pos, pair[0], cfg).texts() == learn(pos, pair[1], cfg).texts()


def test_learn_pool_matches_literal_composition():
    # the fused gram prefilter inside learn must agree with the plain
    # generate -> filter pipeline: every variant of every gram, less
    # those a negative matches (and the reducible ones, which no cut
    # makes learn expand here)
    rng = random.Random(31)
    for _ in range(10):
        pos = {"".join(rng.choice("abc0.") for _ in range(rng.randint(1, 9))) for _ in range(5)}
        neg = {"".join(rng.choice("abc0.") for _ in range(rng.randint(1, 9))) for _ in range(5)} - pos
        cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1)
        full = [
            t for t in pool_reference(pos, set(), cfg)
            if not _reducible(t) and not any(backtrack_match(parse_pattern(t), s) for s in neg)
        ]
        assert texts(survivors(pos, neg, cfg)) == full
        unfiltered, prefiltered = (filter_components(cut_pool_tokens(pos, cfg, n), neg) for n in ((), neg))
        assert sorted(unfiltered) == sorted(prefiltered)


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
# the gain-1 tail from the first pick on
@example(np.eye(4, dtype=bool))
# a gain-2 pick that lowers the last row's gain to 1, then a tail of three
@example(np.array([[1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 1]], dtype=bool))
# a tail whose rows cover the columns in the opposite order
@example(np.eye(3, dtype=bool)[::-1].copy())
def test_greedy_cover_properties(cover):
    chosen = greedy_set_cover(cover)
    # learn passes the transpose of an elements-major matrix
    assert greedy_set_cover(np.ascontiguousarray(cover.T).T) == chosen
    covered = np.zeros(cover.shape[1], dtype=bool)
    for i in chosen:
        assert (cover[i] & ~covered).any(), "every pick adds an uncovered column"
        covered |= cover[i]
    assert covered.all()
    if chosen:
        assert chosen[0] == int(np.argmax(cover.sum(axis=1)))
    # the running gains pick what a fresh count at every pick picks
    assert chosen == greedy_cover_reference(cover)


# negatives mix the alphabet with characters that must end a gram: the
# separator, upper case, non-ASCII characters and a lone surrogate
_NEG_CHARS = "abc0.\nAZ\xe9\u20ac\U0001f600\ud800"


@st.composite
def gram_inputs(draw):
    ordered = sorted(draw(st.sets(st.text("abc0.", min_size=1, max_size=14), min_size=1, max_size=6)))
    negatives = draw(st.lists(st.text(_NEG_CHARS, max_size=16), max_size=6))
    # negatives holding pieces of the positives, so grams of every length drop
    for _ in range(draw(st.integers(0, 3))):
        s = draw(st.sampled_from(ordered))
        i = draw(st.integers(0, len(s) - 1))
        j = draw(st.integers(i + 1, len(s)))
        negatives.append(draw(st.text(_NEG_CHARS, max_size=3)) + s[i:j] + draw(st.text(_NEG_CHARS, max_size=3)))
    return ordered, negatives, draw(st.integers(1, 12))


@PROPERTY
@given(gram_inputs())
@example((["ab"], [], 3))
# past ten characters the keys are ranks: 'a' and 'q' differ only above
# the low 4 bits of their codes, which an int64 key of 11 characters loses
@example((["qbbbbbbbbbbb"], ["abbbbbbbbbbb", "\ud800bbbbbbbbbb\xe9"], 12))
def test_gram_stage_equals_reference(inp):
    # learner._SCAN_CHARS at 0 sends every input to the numpy key pass, and
    # above every input to the substring scan: both routes yield the
    # reference's grams, one matrix of byte rows per length
    ordered, negatives, max_ngram = inp
    want = kept_grams_reference(ordered, negatives, max_ngram)
    for bound in (0, 10**9):
        with mock.patch.object(learner, "_SCAN_CHARS", bound):
            yielded = list(_grams(ordered, negatives, max_ngram))
        assert [g.shape[1] for g in yielded] == list(range(1, min(max_ngram, max(map(len, ordered))) + 1))
        assert all(g.dtype == np.uint8 and g.ndim == 2 for g in yielded)
        got = [row.tobytes().decode("ascii") for g in yielded for row in g]
        assert len(got) == len(set(got)), "each gram once"
        assert set(got) == want


_WORDS = st.text(alphabet="abc0.", min_size=1, max_size=8)


@PROPERTY
@given(st.sets(_WORDS, min_size=1, max_size=8), st.sets(_WORDS, max_size=8))
def test_learn_separates_disjoint_sets(pos, neg):
    neg = neg - pos
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1, max_pool=5_000)
    model = learn(pos, neg, cfg)
    assert model.predict_batch(sorted(pos)).tolist() == [1] * len(pos)
    assert model.predict_batch(sorted(neg)).tolist() == [0] * len(neg)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    """perfbench's workloads module, imported with its directory on the path."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
            spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_golf_learns_match_on_ints_and_w1_learns_on_windows():
    # the benchmark's golf learns stay below _kernels._SMALL_CELLS, so
    # their match runs on Python ints; a W1 window's learn (about 15k
    # characters x 2k atoms) is far above it, and at max_quantified=0 its
    # components are fixed-length and unanchored, so it reads windows.
    # With quantifiers on, the same window's learn steps the word layout.
    workloads = _workloads()
    with (
        mock.patch.object(_kernels, "_match_ints", wraps=_kernels._match_ints) as ints,
        mock.patch.object(_kernels, "_match_windows", wraps=_kernels._match_windows) as windows,
        mock.patch.object(_kernels, "_simulate", wraps=_kernels._simulate) as words,
    ):
        problems = workloads.golf_problems(1)
        for pos, neg in problems:
            learn(set(pos), set(neg), workloads.GOLF_LEARNER)
        assert (ints.call_count, windows.call_count, words.call_count) == (len(problems), 0, 0)
        window = list(islice(gen_synthetic(workloads.W1_STREAM), workloads.W1_WINDOW))
        pos = {e.value for e in window if e.truth}
        neg = {e.value for e in window if not e.truth}
        learn(pos, neg, workloads.W1_LEARNER)
        assert (ints.call_count, windows.call_count, words.call_count) == (len(problems), 1, 0)
        learn(pos, neg, dataclasses.replace(workloads.W1_LEARNER, max_quantified=1))
        assert (ints.call_count, windows.call_count) == (len(problems), 1) and words.call_count > 0


def test_golf_grams_are_scanned_and_w1_grams_keyed():
    # the benchmark's golf learns (72 characters of positives and
    # negatives) stay below learner._SCAN_CHARS, so their gram stage scans
    # substrings; every one of a W1 round's 50 learns (5,816 characters or
    # more) is far above it and takes the numpy key pass
    workloads = _workloads()
    with (
        mock.patch.object(learner, "_scanned_grams", wraps=learner._scanned_grams) as scanned,
        mock.patch.object(learner, "_keyed_grams", wraps=learner._keyed_grams) as keyed,
    ):
        problems = workloads.golf_problems(1)
        for pos, neg in problems:
            learn(set(pos), set(neg), workloads.GOLF_LEARNER)
        assert (scanned.call_count, keyed.call_count) == (len(problems), 0) == (40, 0)
        events = islice(gen_synthetic(workloads.W1_STREAM), workloads.W1_EVENTS)
        tracking.run_tracking(events, "adaptive", workloads.W1_WINDOW, workloads.W1_LEARNER)
        assert (scanned.call_count, keyed.call_count) == (40, 50)


@pytest.mark.parametrize("permute", ["reversed", "shuffled"])
def test_learn_does_not_depend_on_the_order_of_the_pool(monkeypatch, permute):
    # learn reads its pool only through the text order, a total order on
    # token strings, and greedy breaks ties in that order, so it learns
    # the same model from the packed cut pool with its components in any
    # order, and from the gram rows of either route in any order, which
    # is the order their variants are written in before the max_pool cut
    workloads = _workloads()
    window = list(islice(gen_synthetic(workloads.W1_STREAM), workloads.W1_WINDOW))
    pos = {e.value for e in window if e.truth}
    neg = {e.value for e in window if not e.truth}
    # 881 components and their deferred variants, cut to 100: a cut made
    # in generation order learns another model here
    cut = dataclasses.replace(workloads.W1_LEARNER, max_quantified=1, max_pool=100)
    cases = [(set(p), set(n), workloads.GOLF_LEARNER) for p, n in workloads.golf_problems(1)]
    cases += [(pos, neg, workloads.W1_LEARNER), (pos, neg, cut)]
    want = [learn(*case).texts() for case in cases]
    uncut = dataclasses.replace(cut, max_pool=10**6)
    assert len(cut_pool_tokens(pos, cut, neg)) == 100 < len(cut_pool_tokens(pos, uncut, neg))

    rng = random.Random(11)

    def permuted(items):
        items = list(items)
        if permute == "reversed":
            return items[::-1]
        rng.shuffle(items)
        return items

    # the packed components, repacked in another order
    cut_pool, grams = learner._cut_pool, learner._grams
    monkeypatch.setattr(learner, "_cut_pool", lambda *args: pack_tokens(permuted(cut_pool_tokens(*args))))
    assert [learn(*case).texts() for case in cases] == want

    def permuted_grams(*args):
        for rows in grams(*args):
            yield rows[np.array(permuted(range(len(rows))), dtype=np.intp)]

    monkeypatch.setattr(learner, "_cut_pool", cut_pool)
    monkeypatch.setattr(learner, "_grams", permuted_grams)
    for bound in (0, 10**9):
        monkeypatch.setattr(learner, "_SCAN_CHARS", bound)
        assert [learn(*case).texts() for case in cases] == want


def test_w1_extensions_look_pairs_up_in_a_table_and_serve_joins_a_tree_base():
    # extend_set looks its pairs up in the table when the product of the
    # two automata's state counts is at most engine._DENSE_PAIRS: a W1
    # round's 44 extensions join at most 12,852 pairs (378 x 34 states),
    # the serve model's one join, of the trie of its literals and the
    # leaf of its other patterns, 9,420,030 (22,590 x 417), and that
    # join finds its pairs at the trie's states, its base being a tree
    workloads = _workloads()
    products, trees = [], []

    def recording(extend):
        def run(base, addition, *rest):
            products.append(base.n_states * addition.n_states)
            trees.append(engine._trie_core(base.real_table()) is not None)
            return extend(base, addition, *rest)

        return run

    with mock.patch.object(model_mod, "extend_set", recording(engine.extend_set)):
        events = islice(gen_synthetic(workloads.W1_STREAM), workloads.W1_EVENTS)
        tracking.run_tracking(events, "adaptive", workloads.W1_WINDOW, workloads.W1_LEARNER)
    assert len(products) == 44
    assert max(products) <= engine._DENSE_PAIRS
    products.clear()
    trees.clear()
    with mock.patch.object(engine, "extend_set", recording(engine.extend_set)):
        engine.compile_set(load_model(workloads.SERVE_MODEL).patterns)
    assert len(products) == 1
    assert min(products) > engine._DENSE_PAIRS
    assert trees == [True]
