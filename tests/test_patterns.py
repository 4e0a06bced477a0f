import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftsig
from driftsig.alphabet import ALPHABET
from driftsig.patterns import (
    TOKEN_ATOMS,
    Atom,
    Pattern,
    Quant,
    exact_pattern,
    parse_pattern,
    parse_patterns,
    render_pattern,
    render_tokens,
)
from driftsig.errors import PatternSyntaxError

from oracle import atom_pattern, random_pattern


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
    assert render_pattern(atom_pattern([Atom(".")])) == "\\."
    assert render_pattern(exact_pattern("ab")) == "^ab$"
    assert render_pattern(atom_pattern([Atom("a", Quant.ZERO_OR_MORE), Atom(None)])) == "a*."


_BAD_TEXTS = [
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
    # a newline inside a text, only wildcards between anchors, a trailing backslash
    ("a\nb", 1),
    ("^..$", 0),
    ("ab\\", 2),
]


@pytest.mark.parametrize("text,position", _BAD_TEXTS)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern(text)
    assert err.value.position == position


def test_atom_invariants():
    with pytest.raises(ValueError):
        Atom(None, Quant.ONE_OR_MORE)
    with pytest.raises(ValueError):
        Atom("A")


# the empty string, only wildcards, and characters no token uses
@pytest.mark.parametrize("tokens", ["", "\x80\x80", "A", "\x7f", "ab\x7f"])
def test_pattern_rejects_bad_token_strings(tokens):
    with pytest.raises(ValueError):
        Pattern(tokens)


# 'é' is a token character (a quantified literal), not an event character
@pytest.mark.parametrize("value", ["", "aB", "aé"])
def test_exact_pattern_rejects_values_outside_the_alphabet(value):
    with pytest.raises(ValueError):
        exact_pattern(value)


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
    atom_pattern,
    st.lists(_ATOMS, min_size=1, max_size=8).filter(lambda a: not all(x.is_any for x in a)),
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
    for p in patterns:
        assert len(p.tokens) == len(p.atoms)
        assert atom_pattern(p.atoms, p.anchored_start, p.anchored_end) == p
        assert render_tokens(p.tokens) == render_pattern(replace(p, anchored_start=False, anchored_end=False))

    def by_text(t):
        return len(t), t

    bare = [Pattern(p.tokens) for p in patterns]
    want = sorted(bare, key=lambda p: by_text(render_pattern(p)))
    got = sorted((p.tokens for p in patterns), key=lambda k: by_text(render_tokens(k)))
    assert [Pattern(k) for k in got] == want
    # the token strings of equal atom sequences are equal, and of distinct ones distinct
    assert len({p.tokens for p in patterns}) == len({p.atoms for p in patterns})


@settings(database=None, derandomize=True, deadline=None)
@given(st.lists(_PATTERNS, max_size=12))
@example([])
def test_bulk_parse_equals_the_per_text_parse(patterns):
    texts = [p.text for p in patterns]
    assert parse_patterns(texts) == [parse_pattern(t) for t in texts] == patterns


def _syntax_error(parse, arg):
    with pytest.raises(PatternSyntaxError) as err:
        parse(arg)
    return str(err.value), err.value.position


@pytest.mark.parametrize("bad", [text for text, _ in _BAD_TEXTS])
@settings(database=None, derandomize=True, deadline=None, max_examples=25)
@given(patterns=st.lists(_PATTERNS, min_size=1, max_size=12), data=st.data())
def test_bulk_parse_raises_the_first_bad_texts_error(bad, patterns, data):
    texts = [p.text for p in patterns]
    at = data.draw(st.integers(0, len(texts) - 1))
    texts[at] = bad
    # a second bad text after the first must not be the one reported
    if data.draw(st.booleans()):
        texts.insert(data.draw(st.integers(at + 1, len(texts))), data.draw(st.sampled_from([t for t, _ in _BAD_TEXTS])))
    assert _syntax_error(parse_patterns, texts) == _syntax_error(parse_pattern, bad)


@settings(database=None, derandomize=True, deadline=None)
@given(_PATTERNS)
def test_cached_hash_and_text_equal_a_fresh_parse(p):
    assert p.text == render_pattern(p) == str(p)
    q = parse_pattern(p.text)
    assert q == p and hash(q) == hash(p)
    assert hash(p) == hash((p.tokens, p.anchored_start, p.anchored_end))
    flipped = replace(p, anchored_end=not p.anchored_end)
    assert flipped.text == render_pattern(flipped) != p.text


# pickles the patterns of argv[2]'s texts to argv[3], or loads them back
# and looks each text's pattern up in the loaded set
_PICKLE_SCRIPT = """
import pickle, sys
from driftsig.patterns import parse_pattern
texts = open(sys.argv[2]).read().split()
if sys.argv[1] == "dump":
    patterns = {parse_pattern(t) for t in texts}
    assert all(p.text for p in patterns)  # cached, so pickled along
    open(sys.argv[3], "wb").write(pickle.dumps(patterns))
else:
    loaded = pickle.loads(open(sys.argv[3], "rb").read())
    assert all(parse_pattern(t) in loaded for t in texts)
"""


def test_pickled_pattern_set_is_found_under_another_hash_seed(tmp_path):
    # string hashes differ between processes, so a pickled pattern must
    # carry no hash of its own: a set pickled under one hash seed still
    # finds every pattern under another
    rng = random.Random(99)
    texts = tmp_path / "texts"
    texts.write_text("\n".join(sorted({random_pattern(rng).text for _ in range(300)})))
    src = os.path.dirname(os.path.dirname(os.path.abspath(driftsig.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for step, seed in [("dump", "1"), ("load", "2")]:
        proc = subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, step, str(texts), str(tmp_path / "set.pkl")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
