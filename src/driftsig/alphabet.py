"""Event alphabet and the symbol encoding shared by the engine and generators.

Events are domain-like strings over lowercase letters, digits, '-', '.'
and '_'.  The engine works on small integer codes; any character outside
the alphabet maps to ``CODE_OTHER``, which no atom (not even the
wildcard) can match.  The wildcard atom's code is ``N_SYMBOLS``, one
past every symbol, so a symbol table indexed by atom code has its
wildcard row right after the symbols' rows.
"""

from __future__ import annotations

import numpy as np

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-._"
ALPHABET_SET = frozenset(ALPHABET)

# Literal characters that may appear unescaped in pattern text; a literal
# dot is written '\.' so it cannot be confused with the wildcard.
LITERAL_CHARS = ALPHABET_SET - {"."}

CODE_OTHER = len(ALPHABET)      # any character outside the alphabet
N_SYMBOLS = len(ALPHABET) + 1   # alphabet codes plus CODE_OTHER; also the '.' wildcard's atom code

CHAR_TO_CODE = {ch: i for i, ch in enumerate(ALPHABET)}

# byte -> code table so encoding is a single bytes.translate pass.  Strings
# are encoded as UTF-8 with "surrogatepass", so every character outside
# ASCII, lone surrogates included, becomes bytes >= 0x80 and so CODE_OTHER.
BYTE_TABLE = bytes(
    CHAR_TO_CODE.get(chr(b), CODE_OTHER) for b in range(256)
)


def encode_many(values) -> tuple[np.ndarray, np.ndarray]:
    """Encode a sequence of strings as (flat codes, offsets).

    ``offsets`` has one extra trailing entry, so string ``j`` occupies
    ``codes[offsets[j]:offsets[j + 1]]``.
    """
    values = list(values)
    joined = "".join(values)
    raw = joined.encode("utf-8", "surrogatepass")
    if len(raw) == len(joined):
        # all ASCII: one byte per character
        lengths = np.fromiter(map(len, values), np.int64, len(values))
    else:
        lengths = [len(v.encode("utf-8", "surrogatepass")) for v in values]
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return np.frombuffer(raw.translate(BYTE_TABLE), dtype=np.uint8), offsets


def in_alphabet(value: str) -> bool:
    """True when every character of ``value`` is in the event alphabet."""
    return ALPHABET_SET.issuperset(value)
