import random

import pytest

from driftsig.patterns import (
    Atom,
    Pattern,
    Quant,
    exact_pattern,
    parse_pattern,
    render_pattern,
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
