"""Restricted regular-expression patterns used as indicators.

Grammar (canonical text form)::

    pattern := ['^'] atom+ ['$']
    atom    := (literal | '\\.' | '.') quant?
    quant   := '?' | '*' | '+'

Literals are lowercase letters, digits, '-' and '_'.  A literal dot must
be escaped as ``\\.``; a bare ``.`` is the single-character wildcard and
may not carry a quantifier.  Disjunction does not exist at this level:
a model ORs whole patterns together.

A pattern is stored as its token string and two anchor flags.  The
token string has one character per atom, every one below U+0100, so it
encodes to one byte per atom.  A plain literal is its own character
(the literal dot is ``.``); the wildcard and the quantified literals
take the characters from U+0080 up.  The parser writes token strings,
the learner holds its candidate components as bare token strings and
the engine packs them, so this module owns the one atom <-> character
table and the per-atom text it renders to.

A list of texts, such as a model file's lines, is parsed in bulk by
:func:`parse_patterns`: one regex checks the grammar of all of them,
and whole-text replaces write their token strings.  A list that fails
any bulk check goes through :func:`parse_pattern`, the per-text loop,
which defines every error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product

from .alphabet import ALPHABET, LITERAL_CHARS, in_alphabet
from .errors import PatternSyntaxError

QUANT_CHARS = "?*+"


class Quant(Enum):
    ONE = ""
    ZERO_OR_ONE = "?"
    ZERO_OR_MORE = "*"
    ONE_OR_MORE = "+"


@dataclass(frozen=True)
class Atom:
    """One pattern element: a literal character or the wildcard.

    ``char`` is ``None`` for the wildcard, which always has quantifier
    ``ONE`` (the grammar forbids quantifiers after '.').
    """

    char: str | None
    quant: Quant = Quant.ONE

    def __post_init__(self):
        if self.char is None:
            if self.quant is not Quant.ONE:
                raise ValueError("wildcard atoms cannot carry a quantifier")
        elif self.char not in LITERAL_CHARS and self.char != ".":
            raise ValueError(f"literal {self.char!r} outside the event alphabet")

    @property
    def is_any(self) -> bool:
        return self.char is None


def _render_atom(atom: Atom) -> str:
    if atom.is_any:
        return "."
    return ("\\." if atom.char == "." else atom.char) + atom.quant.value


# The token table: every atom the grammar allows, each with its character.
ANY_TOKEN = "\x80"
_REPEATS = (Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE, Quant.ONE_OR_MORE)
TOKEN_ATOMS: dict[str, Atom] = {ch: Atom(ch) for ch in ALPHABET}
TOKEN_ATOMS[ANY_TOKEN] = Atom(None)
TOKEN_ATOMS.update(
    (chr(0x81 + n), Atom(ch, q)) for n, (q, ch) in enumerate(product(_REPEATS, ALPHABET))
)
# (quantifier, literal) -> token
_TOKEN_OF = {(a.quant, a.char): t for t, a in TOKEN_ATOMS.items()}
# str.translate tables from a literal's token to its ``?``, ``*`` and ``+`` tokens
QUANTIFY = tuple({ord(ch): _TOKEN_OF[q, ch] for ch in ALPHABET} for q in _REPEATS)
# str.translate table from tokens to canonical text, one to three ASCII
# characters a token
TOKEN_TEXT = {ord(t): _render_atom(a) for t, a in TOKEN_ATOMS.items()}
# every token character, for Pattern's check
_TOKENS = frozenset(TOKEN_ATOMS)


@dataclass(frozen=True)
class Pattern:
    """One indicator regex: its token string and its anchors.

    Matching is substring containment by default; ``anchored_start`` /
    ``anchored_end`` pin the match to the start / end of the subject.
    """

    tokens: str
    anchored_start: bool = False
    anchored_end: bool = False

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("pattern needs at least one atom")
        if not self.tokens.strip(ANY_TOKEN):
            raise ValueError("pattern of only wildcards is forbidden")
        if not _TOKENS.issuperset(self.tokens):
            raise ValueError(f"pattern tokens {self.tokens!r} outside the token table")

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(map(TOKEN_ATOMS.__getitem__, self.tokens))

    # rendered again at each model save, so rendered once, when first read
    @cached_property
    def text(self) -> str:
        return render_pattern(self)

    def __str__(self) -> str:
        return self.text


def parse_pattern(text: str) -> Pattern:
    """Parse canonical pattern text into a :class:`Pattern`.

    Raises :class:`PatternSyntaxError` (with the offending character
    position) for a dangling quantifier, a quantifier after '.', an
    empty body, characters outside the alphabet, or a bad escape.
    """
    if not text:
        raise PatternSyntaxError("empty pattern", 0)

    i = 0
    end = len(text)
    anchored_start = False
    anchored_end = False
    if text[0] == "^":
        anchored_start = True
        i = 1
    if end > i and text[end - 1] == "$":
        anchored_end = True
        end -= 1

    tokens: list[str] = []
    while i < end:
        c = text[i]
        if c == "\\":
            if i + 1 >= end or text[i + 1] != ".":
                raise PatternSyntaxError("only '\\.' may be escaped", i)
            token = "."
            i += 2
        elif c == ".":
            token = ANY_TOKEN
            i += 1
        elif c in LITERAL_CHARS:
            token = c
            i += 1
        elif c in QUANT_CHARS:
            raise PatternSyntaxError(f"quantifier {c!r} has nothing to repeat", i)
        else:
            raise PatternSyntaxError(f"character {c!r} not allowed", i)

        if i < end and text[i] in QUANT_CHARS:
            if token == ANY_TOKEN:
                raise PatternSyntaxError("quantifier not allowed after '.'", i)
            token = _TOKEN_OF[Quant(text[i]), token]
            i += 1
        tokens.append(token)

    if not tokens:
        raise PatternSyntaxError("pattern has an empty body", i)
    if all(t == ANY_TOKEN for t in tokens):
        raise PatternSyntaxError("pattern of only wildcards is forbidden", 0)
    return Pattern("".join(tokens), anchored_start, anchored_end)


# The grammar of one text as a regex, and of texts joined one a line
_TEXT = r"\^?(?:(?:[%s]|\\\.)[?*+]?|\.)+\$?" % re.escape("".join(sorted(LITERAL_CHARS)))
_TEXTS = re.compile(f"{_TEXT}(?:\n{_TEXT})*")
_WILDCARDS_ONLY = re.compile(r"^\^?\.+\$?$", re.M)
_QUANTIFIED = re.compile(r".[?*+]")
# a literal's token followed by its quantifier's text -> the quantified token
_QUANTIFIED_TOKEN = {ch + q.value: t for (q, ch), t in _TOKEN_OF.items() if q is not Quant.ONE}


def parse_patterns(texts: list[str]) -> list[Pattern]:
    """Parse many canonical pattern texts; equals
    ``[parse_pattern(t) for t in texts]``, errors included.

    The texts are checked together: joined one a line, they must match
    the grammar as one regex, with no line of only wildcards and no
    newline inside a text.  Their token strings are then written by
    whole-text replaces and split at the newlines.  A list that fails a
    check goes text by text through :func:`parse_pattern`, the per-text
    loop that defines every error, so the first bad text raises its
    :class:`PatternSyntaxError`.
    """
    joined = "\n".join(texts)
    if (
        joined.count("\n") != len(texts) - 1
        or _TEXTS.fullmatch(joined) is None
        or _WILDCARDS_ONLY.search(joined) is not None
    ):
        return [parse_pattern(t) for t in texts]
    body = joined.replace("^", "").replace("$", "").replace(".", ANY_TOKEN).replace("\\" + ANY_TOKEN, ".")
    if "?" in body or "*" in body or "+" in body:
        body = _QUANTIFIED.sub(lambda m: _QUANTIFIED_TOKEN[m[0]], body)
    starts = [t[0] == "^" for t in texts]
    ends = [t[-1] == "$" for t in texts]
    return list(map(Pattern, body.split("\n"), starts, ends))


def render_pattern(pattern: Pattern) -> str:
    """Render the canonical text; inverse of :func:`parse_pattern`."""
    text = render_tokens(pattern.tokens)
    return ("^" if pattern.anchored_start else "") + text + ("$" if pattern.anchored_end else "")


def exact_pattern(value: str) -> Pattern:
    """Anchored pattern matching exactly ``value`` and nothing else."""
    if not in_alphabet(value):
        raise ValueError(f"value {value!r} outside the event alphabet")
    return Pattern(value, True, True)


def render_tokens(tokens: str) -> str:
    """Canonical text of the unanchored pattern ``tokens`` encodes."""
    return tokens.translate(TOKEN_TEXT)
