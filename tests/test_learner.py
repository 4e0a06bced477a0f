import hashlib
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftsig.engine import match_many, match_split, pack_tokens
from driftsig.errors import DisjointnessViolation, EmptyPositiveSetError, UncoverableElements
from driftsig.learner import (
    LearnerConfig,
    _cut_pool,
    _grams,
    _text_order,
    filter_components,
    greedy_set_cover,
    learn,
)
from driftsig.patterns import ANY_TOKEN, TOKEN_ATOMS, Quant, parse_pattern, render_tokens

from oracle import (
    backtrack_match,
    cover_matrix,
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
    """learn's surviving components and their sources, as learn finds
    them: the cut pool, matched against the sorted positives and the
    negatives in one kernel pass, less those a negative matches, in text
    order."""
    pool = _cut_pool(pos, cfg, neg)
    tokens = list(pool)
    raw, offsets = pack_tokens(tokens)
    hit = match_split(raw, offsets, sorted(pos), neg)[2]
    return {tokens[i]: pool[tokens[i]] for i in _text_order(raw, offsets).tolist() if not hit[i]}


def test_generate_basic_pool():
    cfg = LearnerConfig(max_ngram=2, max_wildcards=1, max_quantified=0)
    assert texts_of(_cut_pool({"ab"}, cfg, set())) == {"a", "b", "ab", "a.", ".b"}
    pool = survivors({"ab"}, set(), cfg)
    assert texts_of(pool) == {"a", "b", "ab", "a.", ".b"}
    # ordered shortest text first, then lexicographic
    assert texts(pool) == sorted(texts(pool), key=lambda t: (len(t), t))


def test_generate_single_char_with_quantifiers():
    # a+ matches as a, so the pool defers it until a cut must count it
    cfg = LearnerConfig()
    assert set(pool_reference({"a"}, set(), cfg)) == {"a", "a?", "a*", "a+"}
    assert texts_of(_cut_pool({"a"}, cfg, set())) == {"a", "a?", "a*"}
    assert texts(_cut_pool({"a"}, LearnerConfig(max_pool=3), set())) == ["a", "a*", "a+"]


def test_generate_quantifier_insertions_superset():
    cfg = LearnerConfig(max_ngram=2, max_wildcards=1, max_quantified=1)
    expected_subset = {
        "a?", "a*", "a+", "b?", "b*", "b+",
        "a?b", "a*b", "a+b", "ab?", "ab*", "ab+",
        "a.", "a?.", "a*.", "a+.", ".b", ".b?", ".b*", ".b+",
    }
    assert expected_subset <= set(pool_reference({"ab"}, set(), cfg))
    got = texts_of(_cut_pool({"ab"}, cfg, set()))
    assert {t for t in expected_subset if not _reducible(t)} <= got
    # a cut of one component expands the deferred variants too, and drops
    # the last text, ab?
    whole = len(variant_pool_reference({"ab"}, set(), cfg))
    got = texts_of(_cut_pool({"ab"}, LearnerConfig(2, 1, 1, max_pool=whole - 1), set()))
    assert len(got) == whole - 1 and expected_subset - got == {"ab?"}


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
        want = brute(strings, *caps)
        pool = _cut_pool(strings, cfg, set())
        assert dict(zip(texts(pool), pool.values())) == {t: s for t, s in want.items() if not _reducible(t)}
        # a cut of one component expands the deferred variants, then keeps
        # the rest in text order
        cut = LearnerConfig(*caps, max_pool=len(want) - 1)
        pool = _cut_pool(strings, cut, set())
        ranked = sorted(want, key=lambda t: (len(t), t))[:-1]
        assert list(zip(texts(pool), pool.values())) == [(t, want[t]) for t in ranked]


def test_generate_rejects_bad_input():
    with pytest.raises(EmptyPositiveSetError):
        _cut_pool(set(), LearnerConfig(), set())
    with pytest.raises(ValueError):
        _cut_pool({"UPPER"}, LearnerConfig(), set())
    with pytest.raises(ValueError):
        _cut_pool({""}, LearnerConfig(), set())


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
    pool = _cut_pool({"abcd"}, cfg, set())
    assert len(pool) == 5
    assert list(pool.items()) == list(full.items())[:5]
    assert list(survivors({"abcd"}, set(), cfg).items()) == list(pool.items())


def test_max_pool_cut_comes_before_the_filter():
    # "a*" holds the third place of the cut and matches every string, so
    # the filter drops it; cutting after the filter would keep "a+" instead
    pos, neg = {"ab"}, {"c"}
    caps = {"max_ngram": 1, "max_wildcards": 0, "max_quantified": 1}
    everything = pool_reference(pos, set(), LearnerConfig(**caps))
    assert list(everything)[:4] == ["a", "b", "a*", "a+"]
    cut = _cut_pool(pos, LearnerConfig(**caps, max_pool=3), neg)
    assert list(zip(texts(cut), cut.values())) == list(everything.items())[:3]
    pool = survivors(pos, neg, LearnerConfig(**caps, max_pool=3))
    assert list(pool.items()) == list(filter_components(cut, neg).items())
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
        want = {t: src for t, src in want.items() if not _reducible(t)}
    assert list(zip(texts(pool), pool.values())) == list(want.items())


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
    pool = _cut_pool(pos, cfg, neg)
    assert dict(zip(texts(pool), pool.values())) == {t: src for t, src in whole.items() if not _reducible(t)}


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
    pool = texts(_cut_pool({"abc"}, LearnerConfig(max_ngram=3, max_wildcards=1), set()))
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
    pool = {parse_pattern(t).tokens: src for t, src in [("a", 0), ("b", 1), ("ab", 0)]}
    assert filter_components(pool, {"ba"}) == {parse_pattern("ab").tokens: 0}
    assert list(filter_components(pool, set()).items()) == list(pool.items())
    assert filter_components({parse_pattern("x").tokens: 0}, {"axb"}) == {}


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
    pool = list(pool_reference(ordered, neg, LearnerConfig()))
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
            assert list(a.items()) == list(b.items())
            packed = pack_tokens(_cut_pool(pos, cfg, ()))
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
        full = {
            t: src for t, src in pool_reference(pos, set(), cfg).items()
            if not _reducible(t) and not any(backtrack_match(parse_pattern(t), s) for s in neg)
        }
        fused = survivors(pos, neg, cfg)
        assert list(zip(texts(fused), fused.values())) == list(full.items())
        assert filter_components(_cut_pool(pos, cfg, ()), neg) == filter_components(_cut_pool(pos, cfg, neg), neg)


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
    ordered, negatives, max_ngram = inp
    got: dict[str, int] = {}
    count = 0
    for length, grams, srcs in _grams(ordered, negatives, max_ngram):
        assert len(grams) == length * len(srcs)
        assert srcs == sorted(srcs, reverse=True)
        got.update(zip((grams[i : i + length] for i in range(0, len(grams), length)), srcs))
        count += len(srcs)
    assert count == len(got), "each gram once"
    assert got == kept_grams_reference(ordered, negatives, max_ngram)


_WORDS = st.text(alphabet="abc0.", min_size=1, max_size=8)


@PROPERTY
@given(st.sets(_WORDS, min_size=1, max_size=8), st.sets(_WORDS, max_size=8))
def test_learn_separates_disjoint_sets(pos, neg):
    neg = neg - pos
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1, max_pool=5_000)
    model = learn(pos, neg, cfg)
    assert model.predict_batch(sorted(pos)).tolist() == [1] * len(pos)
    assert model.predict_batch(sorted(neg)).tolist() == [0] * len(neg)
