import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsig.alphabet import ALPHABET
from driftsig.patterns import (
    TOKEN_ATOMS,
    Atom,
    Pattern,
    Quant,
    exact_pattern,
    parse_pattern,
    pattern_tokens,
    render_pattern,
    render_tokens,
    token_pattern,
)
from driftsig.errors import PatternSyntaxError

from oracle import random_pattern


def test_parse_quantifier_and_literals():
    p = parse_pattern("a+b")
    assert not p.anchored_start and not p.anchored_end
    assert [(a.char, a.quant) for a in p.atoms] == [("a", Quant.ONE_OR_MORE), ("b", Quant.ONE)]


def test_parse_anchors():
    p = parse_pattern("^ab$")
    assert p.anchored_start and p.anchored_end
    assert [a.char for a in p.atoms] == ["a", "b"]


def test_parse_escaped_dot_vs_wildcard():
    escaped = parse_pattern("a\\.b")
    assert [a.char for a in escaped.atoms] == ["a", ".", "b"]
    wild = parse_pattern("a.b")
    assert wild.atoms[1].char is None
    assert escaped != wild


def test_render_examples():
    assert render_pattern(Pattern((Atom("."),))) == "\\."
    assert render_pattern(exact_pattern("ab")) == "^ab$"
    assert render_pattern(Pattern((Atom("a", Quant.ZERO_OR_MORE), Atom(None)))) == "a*."


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("^", 1),
        ("^$", 1),
        ("+ab", 0),
        ("a++", 2),
        (".+", 1),
        ("a\\x", 1),
        ("a\\", 1),
        ("aBc", 1),
        ("a$b", 1),
        ("a^b", 1),
        ("..", 0),
        (".", 0),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern(text)
    assert err.value.position == position


def test_atom_invariants():
    with pytest.raises(ValueError):
        Atom(None, Quant.ONE_OR_MORE)
    with pytest.raises(ValueError):
        Atom("A")
    with pytest.raises(ValueError):
        Pattern(())
    with pytest.raises(ValueError):
        Pattern((Atom(None), Atom(None)))


def test_round_trip_canonical_texts():
    for text in ["a", "^a$", "a?b*c+", "\\.", "x-y_z", "^9.\\.-$", "a\\.+b"]:
        assert render_pattern(parse_pattern(text)) == text


def test_round_trip_random_patterns():
    rng = random.Random(1234)
    for _ in range(500):
        p = random_pattern(rng)
        assert parse_pattern(render_pattern(p)) == p


# every atom the grammar allows: all of the alphabet (the literal '.'
# included) under each quantifier, and the wildcard
_ATOMS = st.one_of(
    st.builds(Atom, st.sampled_from(ALPHABET), st.sampled_from(list(Quant))),
    st.just(Atom(None)),
)
_PATTERNS = st.builds(
    Pattern,
    st.lists(_ATOMS, min_size=1, max_size=8).filter(lambda a: not all(x.is_any for x in a)).map(tuple),
    st.booleans(),
    st.booleans(),
)


def test_token_table_is_one_byte_per_atom():
    assert len(TOKEN_ATOMS) == 1 + 4 * len(ALPHABET)
    assert len(set(TOKEN_ATOMS.values())) == len(TOKEN_ATOMS)
    assert all(len(t) == 1 and ord(t) < 256 for t in TOKEN_ATOMS)
    # a plain literal is its own token
    assert all(TOKEN_ATOMS[ch] == Atom(ch) for ch in ALPHABET)


@settings(database=None, derandomize=True, deadline=None)
@given(st.lists(_PATTERNS, min_size=1, max_size=12))
def test_token_encoding_round_trips_and_keeps_text_order(patterns):
    keys = [pattern_tokens(p) for p in patterns]
    for p, key in zip(patterns, keys):
        assert len(key) == len(p.atoms)
        back = token_pattern(key)
        assert not back.anchored_start and not back.anchored_end
        assert replace(back, anchored_start=p.anchored_start, anchored_end=p.anchored_end) == p
        assert render_tokens(key) == render_pattern(back)

    def by_text(t):
        return len(t), t

    bare = [Pattern(p.atoms) for p in patterns]
    want = sorted(bare, key=lambda p: by_text(render_pattern(p)))
    got = sorted(keys, key=lambda k: by_text(render_tokens(k)))
    assert [token_pattern(k) for k in got] == want
    # the token strings of equal patterns are equal, and of distinct ones distinct
    assert len(set(keys)) == len(set(bare))


@settings(database=None, derandomize=True, deadline=None)
@given(_PATTERNS)
def test_cached_hash_and_text_equal_a_fresh_parse(p):
    assert p.text == render_pattern(p) == str(p)
    q = parse_pattern(p.text)
    assert q == p and hash(q) == hash(p)
    assert hash(p) == hash((p.atoms, p.anchored_start, p.anchored_end))
    flipped = replace(p, anchored_end=not p.anchored_end)
    assert flipped.text == render_pattern(flipped) != p.text
    # a pickle holds the fields alone, since string hashes differ between
    # processes: a hash cached elsewhere is not carried over
    stale = replace(p)
    object.__setattr__(stale, "_hash", hash(p) + 1)
    back = pickle.loads(pickle.dumps(stale))
    assert back == p and hash(back) == hash(p) and "text" not in vars(back)
