"""Regex-golf learner.

Given disjoint positive and negative string sets, build candidate
components from positive-set n-grams (with bounded wildcard substitution
and quantifier insertion), drop every component that matches a negative,
then greedily pick a small subset whose union covers all positives.
Positives no surviving component can reach get an anchored exact-match
fallback, so the learned model always separates the two sets perfectly.

Components are token strings, one byte per atom (see
:mod:`driftsig.patterns`): a gram's bytes are its own literal token
string, and its variants substitute wildcard and quantifier tokens into
it.  Generation writes the pool packed, in ``engine.pack_tokens``'
layout: one byte buffer and its offsets, holding the distinct token
strings and nothing else.  The gram stage gives each length's grams as
one byte matrix (by substring search on a small input, by one numpy
pass over integer window keys on a larger one), each shape's variants
of every gram are one table lookup, and each length is deduplicated on
integer keys.  Only an oversized pool is ordered before the filter, for
the ``max_pool`` cut.  ``learn`` matches the cut pool against the
positives and the negatives in one pass of the Shift-And kernel, which
returns the positives' match words, then orders the whole cut pool by
its canonical text and drops the components that match a negative from
that order.  The order by text is one numpy sort over keys rendered
from the buffer; the components that match no negative, in that
order, are read from the words in one gather, so the cover stays
elements-major (positives by components) from the kernel to greedy.
Only greedy's picks are decoded to token strings, and they become
patterns as they are, with no anchors.

The pool leaves out the variants whose first or last non-wildcard atom
carries a ``+``, or a ``?`` or ``*`` when there is another non-wildcard
atom: each matches exactly what a shorter component of the pool matches,
which sorts before it, so greedy never picks it.  With the regex-golf
caps they are about three quarters of the pool.  They are expanded after
all when the ``max_pool`` cut may have to count them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, product

import numpy as np

from ._kernels import bits_at
from .alphabet import BYTE_TABLE, CODE_OTHER, in_alphabet
from .engine import match_any_of, match_split
from .errors import DisjointnessViolation, EmptyPositiveSetError, UncoverableElements
from .model import Model
from .patterns import ANY_TOKEN, QUANTIFY, TOKEN_TEXT, Pattern, exact_pattern


@dataclass(frozen=True)
class LearnerConfig:
    """Tractability caps for component generation.

    Exhaustive generation over all n-gram/wildcard/quantifier products is
    combinatorial, so each axis is bounded; the exact-match fallback keeps
    coverage intact no matter how tight the caps are.
    """

    max_ngram: int = 4
    max_wildcards: int = 2
    max_quantified: int = 1
    max_pool: int = 200_000

    def __post_init__(self):
        if self.max_ngram < 1:
            raise ValueError("max_ngram must be >= 1")
        if min(self.max_wildcards, self.max_quantified, self.max_pool) < 0:
            raise ValueError("caps must be >= 0")


def _cut_pool(positives, cfg: LearnerConfig, negatives) -> tuple[np.ndarray, np.ndarray]:
    """The candidate components of the positives, cut to ``max_pool``
    before the negative filter, which :func:`learn` runs in its kernel
    pass.

    For every substring of length 1..max_ngram of every positive that
    occurs in no string of ``negatives``: all variants with at most
    ``max_wildcards`` characters replaced by the wildcard (never all of
    them), each with at most ``max_quantified`` quantifiers inserted
    after non-wildcard atoms.  The pool is the components' distinct
    token strings, packed as ``(raw, offsets)`` exactly as
    ``engine.pack_tokens`` packs a list of them, and holds nothing else.
    Each length's variants are written as one byte matrix, one token
    string a row, and deduplicated on integer keys (:func:`_variants`),
    so no component is a Python string before greedy picks it.  A gram
    found in a negative is dropped before expansion, and so before the
    cut: every variant of it matches a superset of its language, so the
    filter would drop them all.  A pool of more than ``max_pool``
    components is cut to the ``max_pool`` with the shortest canonical
    text (ties by text), in that order; the filter then drops every
    component matching a negative.

    The shapes :func:`_shapes` defers are left out when no cut follows.
    Each of their variants matches exactly the strings some component of
    shorter text matches, so the filter keeps both or neither, their
    cover rows are equal, and greedy, which breaks ties by the lower
    index in text order, never picks the variant.  A cut must count
    them, though: they are counted (one per gram a shape, an upper
    bound on the distinct ones), and when the pool plus that count
    exceeds ``max_pool``, the deferred shapes are expanded as well and
    the whole pool is cut.
    """
    if not positives:
        raise EmptyPositiveSetError("no positive strings to learn from")
    ordered = sorted(set(positives))
    for s in ordered:
        if not s or not in_alphabet(s):
            raise ValueError(f"positive string outside the event alphabet: {s!r}")

    parts = []  # each length's distinct variants, one token string a row
    deferred = []  # (grams, deferred shapes) per gram length
    n_deferred = 0
    for grams in _grams(ordered, negatives, cfg.max_ngram):
        now, later = _shapes(grams.shape[1], cfg.max_wildcards, cfg.max_quantified)
        parts.append(_variants(grams, now))
        if len(later):
            deferred.append((grams, later))
            n_deferred += len(grams) * len(later)
    if sum(map(len, parts)) + n_deferred > cfg.max_pool:
        parts += [_variants(grams, later) for grams, later in deferred]
    raw = np.concatenate([part.ravel() for part in parts])
    offsets = np.zeros(sum(map(len, parts)) + 1, dtype=np.int64)
    np.cumsum(np.repeat([part.shape[1] for part in parts], list(map(len, parts))), out=offsets[1:])
    if len(offsets) - 1 > cfg.max_pool:
        return _take(raw, offsets, _text_order(raw, offsets)[: cfg.max_pool])
    return raw, offsets


def _take(raw, offsets, idx):
    """The token strings ``idx`` of the packed ``(raw, offsets)``, packed
    in that order."""
    lengths = np.diff(offsets)[idx]
    out = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    at = np.repeat(offsets[idx] - out[:-1], lengths)
    at += np.arange(len(at))
    return raw[at], out


_EXACT_KEY_LEN = 10  # grams an int64 key holds exactly at 6 bits a character
# inputs of fewer characters (positives and negatives) scan substrings;
# the two gram routes break even at about 190 characters on golf-shaped
# inputs and about 290 on W1-shaped ones
_SCAN_CHARS = 256


def _grams(ordered, negatives, max_ngram):
    """For each gram length up to ``max_ngram``, the distinct grams of the
    sorted positives ``ordered`` that occur in no negative.

    Yields one ``(k, length)`` uint8 matrix per length, one gram's ASCII
    bytes a row.  Inputs of fewer than ``_SCAN_CHARS`` characters, such
    as a regex-golf learn's, take :func:`_scanned_grams`, whose cost is
    a few Python operations per gram; larger ones take
    :func:`_keyed_grams`, whose cost is a dozen numpy calls per length
    and little per character.
    """
    if sum(map(len, ordered)) + sum(map(len, negatives)) < _SCAN_CHARS:
        return _scanned_grams(ordered, negatives, max_ngram)
    return _keyed_grams(ordered, negatives, max_ngram)


def _scanned_grams(ordered, negatives, max_ngram):
    """:func:`_grams` by substring search: each distinct gram of one length,
    in order of first occurrence, kept when it is in none of the
    negatives joined by a separator (a gram holds no separator, so it
    cannot span two negatives)."""
    blob = "\n".join(negatives)
    for n in range(1, min(max_ngram, max(map(len, ordered))) + 1):
        grams = dict.fromkeys(s[i : i + n] for s in ordered for i in range(len(s) - n + 1))
        kept = "".join([g for g in grams if g not in blob]).encode("ascii")
        yield np.frombuffer(kept, dtype=np.uint8).reshape(-1, n)


def _keyed_grams(ordered, negatives, max_ngram):
    """:func:`_grams` on integer window keys, in the order of the keys.

    The positives and negatives are encoded once through the alphabet's
    byte table, joined by a separator, and ``CODE_OTHER`` (the
    separator, characters outside the alphabet and each byte of a
    non-ASCII character's UTF-8) ends a gram.  Every window of one
    length is keyed at once: a window's key is its prefix's key times 64
    plus its last code, and every code is below 64, so equal keys are
    equal grams.  Past ``_EXACT_KEY_LEN`` characters that product would
    overflow int64, so the prefix keys are first replaced by their dense
    ranks, which keeps them distinct.
    """
    pos_text = "\n".join(ordered)
    raw = (pos_text + "\n" + "\n".join(negatives)).encode("utf-8", "surrogatepass")
    chars = np.frombuffer(raw, dtype=np.uint8)
    codes = np.frombuffer(raw.translate(BYTE_TABLE), dtype=np.uint8)
    # the positives are ASCII, so their windows start before len(pos_text)
    # and the negatives' after it
    n_pos = len(pos_text)
    key = np.zeros(len(codes), dtype=np.int64)
    valid = np.ones(len(codes), dtype=bool)
    for n in range(1, min(max_ngram, max(map(len, ordered))) + 1):
        if n > _EXACT_KEY_LEN:
            key = np.unique(key, return_inverse=True)[1]
        key = key[: len(codes) - n + 1] * 64 + codes[n - 1 :]
        valid = valid[: len(key)] & (codes[n - 1 :] != CODE_OTHER)
        at = np.flatnonzero(valid[:n_pos])
        # the distinct keys, each at one of its positions: equal keys are
        # equal grams, so any of them gives the gram's bytes
        order = key[at].argsort()
        ranked = key[at[order]]
        head = np.ones(len(order), dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        uniq = ranked[head]
        # a gram is kept when no negative window has its key
        neg = np.sort(key[n_pos:][valid[n_pos:]])
        keep = np.searchsorted(neg, uniq, "right") == np.searchsorted(neg, uniq)
        starts = at[order[head][keep]]
        yield chars[starts[:, None] + np.arange(n)]


# per token byte: the bytes of its canonical text, zero-filled to four so
# that each token's text is one uint32, and their count
_TEXT_BYTES = np.zeros((256, 4), dtype=np.uint8)
for _code, _text in TOKEN_TEXT.items():
    _TEXT_BYTES[_code, : len(_text)] = list(_text.encode("ascii"))
_TEXT_WORD = _TEXT_BYTES.view(np.uint32).ravel()
_TEXT_LEN = np.count_nonzero(_TEXT_BYTES, axis=1)


def _text_order(raw, offsets) -> np.ndarray:
    """Indices of the token strings packed as ``raw`` and ``offsets``
    (``engine.pack_tokens``), shortest canonical text first, ties by text.

    Each string's text is written right-aligned into a zero-filled row of
    a byte matrix, whose rows are then sorted as big-endian uint64 words.
    Every text byte is nonzero, so a shorter text has more leading zeros
    and sorts first, and texts of one length compare byte by byte, as
    ASCII strings do.  Rendering is one-to-one, so no two rows tie.
    """
    n = len(offsets) - 1
    if not n:
        return np.zeros(0, dtype=np.intp)
    codes = raw.astype(np.intp)
    # the joined texts: every token's text bytes, without the zero fill
    text = _TEXT_WORD[codes].view(np.uint8)
    text = text.compress(text != 0)
    text_off = np.zeros(len(raw) + 1, dtype=np.int64)
    np.cumsum(_TEXT_LEN[codes], out=text_off[1:])
    text_off = text_off[offsets]
    lengths = np.diff(text_off)
    width = -(-int(lengths.max()) // 8) * 8
    # byte k of the joined texts, in string i, lands text_off[i + 1] - k
    # bytes before the end of row i
    at = np.repeat(np.arange(1, n + 1) * width - text_off[1:], lengths)
    at += np.arange(len(text))
    rows = np.zeros(n * width, dtype=np.uint8)
    rows[at] = text
    words = rows.view(">u8").reshape(n, width // 8).astype(np.uint64)
    return np.lexsort(words.T[::-1])


_PLUS = 2  # the index of the ``+`` table in QUANTIFY

# per shape op and token byte, the token byte the op writes: op 0 keeps a
# gram's literal, op 1 writes the wildcard and op 2 + k quantifies the
# literal with the k-th table of QUANTIFY
_OP_TOKEN = np.zeros((2 + len(QUANTIFY), 256), dtype=np.uint8)
_OP_TOKEN[0] = np.arange(256)
_OP_TOKEN[1] = ord(ANY_TOKEN)
for _kind, _table in enumerate(QUANTIFY):
    _OP_TOKEN[2 + _kind, list(_table)] = [ord(t) for t in _table.values()]


# one entry holds the shapes of one gram length, no more than the variants
# of one gram, under one set of caps
@lru_cache(maxsize=256)
def _shapes(length: int, max_wildcards: int, max_quantified: int):
    """The variant shapes of a ``length``-character gram, as rows of
    ``_OP_TOKEN`` ops, one per atom: its wildcard positions (never all
    of them), then its quantifier positions and kinds.

    Returns two read-only uint8 arrays of rows: the shapes to expand now
    and, apart from them, the shapes :func:`_cut_pool` defers: a ``+``
    on the first or last non-wildcard atom, or any quantifier there when
    the shape has two non-wildcard atoms or more.  An unanchored
    component of such a shape matches exactly what a shorter one
    matches.  ``x+`` matches as ``x``: the last ``x`` of a run and the
    wildcards before it, or the first and the wildcards after it, match
    alone (``a+bc`` as ``abc``).  ``x?`` and ``x*`` match as the
    component without that atom, whose wildcards take the characters
    next to the rest (``.a?c`` as ``.c``, ``ab*`` as ``a``).  That
    component is a variant of the same gram, or of the gram one
    character shorter at that end, with the same wildcards and one
    quantifier less, and a negative that holds that gram is matched by
    both.  A quantifier between literals changes what matches
    (``ab?c``), and ``.a?`` has no shorter form, ``.`` being no
    component.
    """
    now, later = [], []
    positions = range(length)
    for n_wild in range(min(max_wildcards, length - 1) + 1):
        for wild in combinations(positions, n_wild):
            plain = [i for i in positions if i not in wild]
            ends = (plain[0], plain[-1])
            for n_q in range(min(max_quantified, len(plain)) + 1):
                for q_pos in combinations(plain, n_q):
                    for kinds in product(range(len(QUANTIFY)), repeat=n_q):
                        ops = [1 if i in wild else 0 for i in positions]
                        for i, k in zip(q_pos, kinds):
                            ops[i] = 2 + k
                        reducible = any(i in ends and (k == _PLUS or len(plain) > 1) for i, k in zip(q_pos, kinds))
                        (later if reducible else now).append(ops)
    shapes = tuple(np.array(rows, dtype=np.uint8).reshape(-1, length) for rows in (now, later))
    for rows in shapes:
        rows.flags.writeable = False
    return shapes


def _variants(grams, shapes):
    """The distinct variants of the gram rows ``grams`` in the shapes
    ``shapes`` of :func:`_shapes`, one token string a row.

    A gram's plain literals are its own token bytes, so every variant
    of every gram is one lookup into ``_OP_TOKEN``.  Variants several
    grams share (they differ only under a wildcard) are kept once: each
    row is keyed by its bytes, zero-filled to whole big-endian 64-bit
    words, and the rows are deduplicated on those keys, in the order of
    their token bytes, close to the text order :func:`learn` reads them
    in.  A variant fixes its shape, so variants of two shapes never
    coincide.
    """
    length = grams.shape[1]
    rows = _OP_TOKEN[shapes[:, None, :], grams].reshape(-1, length)
    width = -(-length // 8)
    keyed = np.zeros((len(rows), 8 * width), dtype=np.uint8)
    keyed[:, :length] = rows
    words = keyed.view(">u8")
    if width == 1:
        keys = np.sort(words[:, 0])
        head = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        return keys[head].view(np.uint8).reshape(-1, 8)[:, :length]
    order = np.lexsort(words.T[::-1])
    words = words[order]
    head = np.ones(len(rows), dtype=bool)
    np.any(words[1:] != words[:-1], axis=1, out=head[1:])
    return rows[order[head]]


def filter_components(pool: list[str], negatives) -> list[str]:
    """The token strings of ``pool`` that match no negative string, in
    pool order.

    :func:`learn` filters inside its one kernel pass and never calls this;
    it is kept because perfbench's tracer wraps it by attribute.
    """
    if not negatives or not pool:
        return list(pool)
    hits = match_any_of(map(Pattern, pool), set(negatives))
    return list(compress(pool, (~hits).tolist()))


def greedy_set_cover(cover: np.ndarray) -> list[int]:
    """Row indices chosen greedily until every column of the boolean
    ``(candidates x elements)`` matrix ``cover`` is covered.

    Each round picks the row covering the most still-uncovered columns
    (ties broken by lowest index).  Raises :class:`UncoverableElements`
    when some column is True in no row.

    Works on ``cover.T``, one row per element, which is copied only when
    it is not C-contiguous already: ``learn`` passes the transpose of
    its elements-major cover.  Each pick lowers the running gains by the
    rows of the elements it newly covers.  Once the best gain is 1, each
    candidate covers at most one uncovered element, so the remaining
    picks are the first covering candidates of the uncovered elements,
    distinct and in ascending order, all taken in one step.
    """
    rows = np.ascontiguousarray(cover.T)
    missing = np.flatnonzero(~rows.any(axis=1))
    if missing.size:
        raise UncoverableElements(missing.tolist())
    if not len(rows):
        return []

    uncovered = np.ones(len(rows), dtype=bool)
    # each candidate's count of still-uncovered elements, lowered after
    # each pick by the rows of the elements that pick newly covered
    gains = np.add.reduce(rows.view(np.uint8), axis=0, dtype=np.int32)
    chosen: list[int] = []
    best = int(np.argmax(gains))
    while gains[best] > 1:
        chosen.append(best)
        newly = rows[:, best] & uncovered
        uncovered ^= newly
        gains -= np.add.reduce(rows[newly].view(np.uint8), axis=0, dtype=np.int32)
        best = int(np.argmax(gains))
    # no candidate is the first cover of two uncovered elements, or its
    # gain would be 2: the sorted firsts are the remaining picks
    return chosen + np.sort(rows[uncovered].argmax(axis=1)).tolist()


def learn(positives, negatives, cfg: LearnerConfig | None = None) -> Model:
    """Learn a model matching every positive and no negative.

    Pipeline: generate components from the positives, match them against
    the positives and the negatives in one pass, keep those that match no
    negative (:func:`_cut_pool`'s survivors, in text order), pick
    a cover of the positives they reach greedily, then append an anchored
    exact-match fallback for each positive no component reaches
    (disjointness guarantees those are safe), in sorted order.
    Deterministic for identical inputs regardless of set iteration order.
    """
    cfg = cfg or LearnerConfig()
    positives, negatives = set(positives), set(negatives)
    overlap = positives & negatives
    if overlap:
        raise DisjointnessViolation(overlap)

    pos = sorted(positives)
    raw, offsets = _cut_pool(pos, cfg, negatives)
    words, last, hit = match_split(raw, offsets, pos, negatives)
    order = _text_order(raw, offsets)
    order = order[~hit[order]]
    # positives x survivors in text order
    cover = bits_at(words, last[order])
    reached = cover.any(axis=1)
    picks = order[greedy_set_cover(cover[reached].T)]
    picked = [Pattern(raw[offsets[i] : offsets[i + 1]].tobytes().decode("latin-1")) for i in picks.tolist()]
    fallbacks = [exact_pattern(pos[j]) for j in np.flatnonzero(~reached)]
    return Model(tuple(picked + fallbacks))
