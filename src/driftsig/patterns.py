"""Restricted regular-expression patterns used as indicators.

Grammar (canonical text form)::

    pattern := ['^'] atom+ ['$']
    atom    := (literal | '\\.' | '.') quant?
    quant   := '?' | '*' | '+'

Literals are lowercase letters, digits, '-' and '_'.  A literal dot must
be escaped as ``\\.``; a bare ``.`` is the single-character wildcard and
may not carry a quantifier.  Disjunction does not exist at this level:
a model ORs whole patterns together.

Besides the text form, a pattern's atoms have a token form: one
character per atom, every one below U+0100, so a joined token string
encodes to one byte per atom.  A plain literal is its own character;
the wildcard and the quantified literals take the characters from
U+0080 up.  The learner holds its candidate components as token strings
and the engine packs patterns through them, so this module owns the one
atom <-> character table and the per-atom text it renders to.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product

from .alphabet import ALPHABET, LITERAL_CHARS
from .errors import PatternSyntaxError

QUANT_CHARS = "?*+"


class Quant(Enum):
    ONE = ""
    ZERO_OR_ONE = "?"
    ZERO_OR_MORE = "*"
    ONE_OR_MORE = "+"

    @property
    def symbol(self) -> str:
        return self.value


_QUANT_BY_SYMBOL = {q.value: q for q in Quant}


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


@dataclass(frozen=True)
class Pattern:
    """AST of one indicator regex.

    Matching is substring containment by default; ``anchored_start`` /
    ``anchored_end`` pin the match to the start / end of the subject.
    """

    atoms: tuple[Atom, ...]
    anchored_start: bool = False
    anchored_end: bool = False

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("pattern needs at least one atom")
        if all(a.is_any for a in self.atoms):
            raise ValueError("pattern of only wildcards is forbidden")
        # a model's patterns are hashed again at each union, so the hash
        # dataclass would generate is computed once, here
        object.__setattr__(self, "_hash", hash((self.atoms, self.anchored_start, self.anchored_end)))

    def __hash__(self) -> int:
        return self._hash

    # rendered again at each model save, so rendered once, when first read
    @cached_property
    def text(self) -> str:
        return render_pattern(self)

    def __str__(self) -> str:
        return self.text

    def __reduce__(self):
        # rebuilt through __init__, since string hashes differ between
        # processes: a copy or a pickle carries the fields alone
        return Pattern, (self.atoms, self.anchored_start, self.anchored_end)


def parse_pattern(text: str) -> Pattern:
    """Parse canonical pattern text into its AST.

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

    atoms: list[Atom] = []
    while i < end:
        c = text[i]
        if c == "\\":
            if i + 1 >= end or text[i + 1] != ".":
                raise PatternSyntaxError("only '\\.' may be escaped", i)
            char: str | None = "."
            i += 2
        elif c == ".":
            char = None
            i += 1
        elif c in LITERAL_CHARS:
            char = c
            i += 1
        elif c in QUANT_CHARS:
            raise PatternSyntaxError(f"quantifier {c!r} has nothing to repeat", i)
        else:
            raise PatternSyntaxError(f"character {c!r} not allowed", i)

        quant = Quant.ONE
        if i < end and text[i] in QUANT_CHARS:
            if char is None:
                raise PatternSyntaxError("quantifier not allowed after '.'", i)
            quant = _QUANT_BY_SYMBOL[text[i]]
            i += 1
        atoms.append(Atom(char, quant))

    if not atoms:
        raise PatternSyntaxError("pattern has an empty body", i)
    if all(a.is_any for a in atoms):
        raise PatternSyntaxError("pattern of only wildcards is forbidden", 0)
    return Pattern(tuple(atoms), anchored_start, anchored_end)


def _render_atom(atom: Atom) -> str:
    if atom.is_any:
        return "."
    return ("\\." if atom.char == "." else atom.char) + atom.quant.symbol


def render_pattern(pattern: Pattern) -> str:
    """Render the canonical text; inverse of :func:`parse_pattern`."""
    parts = ["^"] if pattern.anchored_start else []
    parts.extend(_render_atom(atom) for atom in pattern.atoms)
    if pattern.anchored_end:
        parts.append("$")
    return "".join(parts)


def exact_pattern(value: str) -> Pattern:
    """Anchored pattern matching exactly ``value`` and nothing else."""
    if not value:
        raise ValueError("cannot build an exact pattern for the empty string")
    atoms = tuple(Atom(ch) for ch in value)
    return Pattern(atoms, anchored_start=True, anchored_end=True)


# The token table: every atom the grammar allows, each with its character.
ANY_TOKEN = "\x80"
_REPEATS = (Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE, Quant.ONE_OR_MORE)
TOKEN_ATOMS: dict[str, Atom] = {ch: Atom(ch) for ch in ALPHABET}
TOKEN_ATOMS[ANY_TOKEN] = Atom(None)
TOKEN_ATOMS.update(
    (chr(0x81 + n), Atom(ch, q)) for n, (q, ch) in enumerate(product(_REPEATS, ALPHABET))
)
# (quantifier symbol, literal or None) -> token
_TOKEN_OF = {(a.quant.symbol, a.char): t for t, a in TOKEN_ATOMS.items()}
# str.translate tables from a literal's token to its ``?``, ``*`` and ``+`` tokens
QUANTIFY = tuple({ord(ch): _TOKEN_OF[q.symbol, ch] for ch in ALPHABET} for q in _REPEATS)
# str.translate table from tokens to canonical text
_TOKEN_TEXT = {ord(t): _render_atom(a) for t, a in TOKEN_ATOMS.items()}


def pattern_tokens(pattern: Pattern) -> str:
    """The token string of a pattern's atoms (anchors are not atoms)."""
    return "".join([_TOKEN_OF[a.quant.symbol, a.char] for a in pattern.atoms])


def token_pattern(tokens: str) -> Pattern:
    """The unanchored pattern whose atoms ``tokens`` encodes."""
    return Pattern(tuple(map(TOKEN_ATOMS.__getitem__, tokens)))


def render_tokens(tokens: str) -> str:
    """Canonical text of the unanchored pattern ``tokens`` encodes, equal to
    ``render_pattern(token_pattern(tokens))``."""
    return tokens.translate(_TOKEN_TEXT)
