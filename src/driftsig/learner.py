"""Regex-golf learner.

Given disjoint positive and negative string sets, build candidate
components from positive-set n-grams (with bounded wildcard substitution
and quantifier insertion), drop every component that matches a negative,
then greedily pick a small subset whose union covers all positives.
Positives no surviving component can reach get an anchored exact-match
fallback, so the learned model always separates the two sets perfectly.

Components are token strings, one character per atom (see
:mod:`driftsig.patterns`): a gram is its own literal token string, and
its variants substitute wildcard and quantifier tokens into it, so
the pool is one dict from token string to source positive, deduplicated
on strings.  It stays in generation order until the filter has run;
only an oversized pool is ordered before it, for the ``max_pool`` cut,
and then the survivors are ordered by their canonical text.  ``learn``
packs the cut pool once into one byte buffer (``engine.pack_tokens``)
and matches it against the positives and the negatives in one pass of
the Shift-And kernel, which returns the positives' match words.  The
order by text is one numpy sort over keys rendered from that buffer;
the components that match no negative, in that order, are read from the
words in one gather, so the cover stays elements-major (positives by
components) from the kernel to greedy, and the token strings greedy
picks become patterns as they are, with no anchors.

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
from .engine import match_any_of, match_split, pack_tokens
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


def _cut_pool(positives, cfg: LearnerConfig, negatives) -> dict[str, int]:
    """The candidate components of the positives, cut to ``max_pool``
    before the negative filter, which :func:`learn` runs in its kernel
    pass.

    For every substring of length 1..max_ngram of every positive that
    occurs in no string of ``negatives``: all variants with at most
    ``max_wildcards`` characters replaced by the wildcard (never all of
    them), each with at most ``max_quantified`` quantifiers inserted
    after non-wildcard atoms.  The pool maps each component's token
    string to its source, the lowest index (into the sorted positives)
    of a string it was generated from, in generation order.  A gram
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
    them, though: they are counted (``len(srcs)`` a shape, an upper
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

    pool: dict[str, int] = {}
    deferred = []  # (grams, length, srcs, deferred shapes) per gram length
    n_deferred = 0
    for length, grams, srcs in _grams(ordered, negatives, cfg.max_ngram):
        now, later = _shapes(length, cfg.max_wildcards, cfg.max_quantified)
        _expand_grams(grams, length, srcs, now, pool)
        if later:
            deferred.append((grams, length, srcs, later))
            n_deferred += len(srcs) * len(later)
    if len(pool) + n_deferred > cfg.max_pool:
        for grams, length, srcs, later in deferred:
            _expand_grams(grams, length, srcs, later, pool)
    if len(pool) > cfg.max_pool:
        tokens = list(pool)
        cut = _text_order(*pack_tokens(tokens))[: cfg.max_pool].tolist()
        pool = {tokens[i]: pool[tokens[i]] for i in cut}
    return pool


_EXACT_KEY_LEN = 10  # grams an int64 key holds exactly at 6 bits a character


def _grams(ordered, negatives, max_ngram):
    """For each gram length up to ``max_ngram``, the distinct grams of the
    sorted positives ``ordered`` that occur in no negative.

    Yields ``(length, grams, srcs)``: the grams joined into one string,
    highest source first, and the source of each, the lowest index of a
    positive holding it.  The positives and negatives are encoded once
    through the alphabet's byte table, joined by a separator, and
    ``CODE_OTHER`` (the separator, characters outside the alphabet and
    each byte of a non-ASCII character's UTF-8) ends a gram.  Every
    window of one length is keyed at once: a window's key is its
    prefix's key times 64 plus its last code, and every code is below
    64, so equal keys are equal grams.  Past ``_EXACT_KEY_LEN``
    characters that product would overflow int64, so the prefix keys are
    first replaced by their dense ranks, which keeps them distinct.
    """
    pos_text = "\n".join(ordered)
    raw = (pos_text + "\n" + "\n".join(negatives)).encode("utf-8", "surrogatepass")
    chars = np.frombuffer(raw, dtype=np.uint8)
    codes = np.frombuffer(raw.translate(BYTE_TABLE), dtype=np.uint8)
    # the positives are ASCII, so their windows start before len(pos_text)
    # and the negatives' after it
    n_pos = len(pos_text)
    src_at = np.repeat(np.arange(len(ordered)), [len(s) + 1 for s in ordered])
    key = np.zeros(len(codes), dtype=np.int64)
    valid = np.ones(len(codes), dtype=bool)
    for n in range(1, min(max_ngram, max(map(len, ordered))) + 1):
        if n > _EXACT_KEY_LEN:
            key = np.unique(key, return_inverse=True)[1]
        key = key[: len(codes) - n + 1] * 64 + codes[n - 1 :]
        valid = valid[: len(key)] & (codes[n - 1 :] != CODE_OTHER)
        at = np.flatnonzero(valid[:n_pos])
        # the distinct keys and each one's lowest position in ``at``: the
        # default sort, then the least position in each run of equal keys
        order = key[at].argsort()
        ranked = key[at[order]]
        head = np.ones(len(order), dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        uniq = ranked[head]
        first = np.minimum.reduceat(order, head.nonzero()[0])
        # a gram is kept when no negative window has its key
        neg = np.sort(key[n_pos:][valid[n_pos:]])
        keep = np.searchsorted(neg, uniq, "right") == np.searchsorted(neg, uniq)
        starts = np.sort(at[first[keep]])[::-1]
        grams = chars[starts[:, None] + np.arange(n)].tobytes().decode("ascii")
        yield n, grams, src_at[starts].tolist()


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


# one entry holds the shapes of one gram length, no more than the variants
# of one gram, under one set of caps
@lru_cache(maxsize=256)
def _shapes(length: int, max_wildcards: int, max_quantified: int):
    """The variant shapes of a ``length``-character gram, as ``(wild,
    quants)``: its wildcard positions (never all of them), then its
    quantifier positions and kinds (indices into ``QUANTIFY``).

    Returns the shapes to expand now and, apart from them, the shapes
    :func:`_cut_pool` defers: a ``+`` on the first or last
    non-wildcard atom, or any quantifier there when the shape has two
    non-wildcard atoms or more.  An unanchored component of such a shape
    matches exactly what a shorter one matches.  ``x+`` matches as ``x``:
    the last ``x`` of a run and the wildcards before it, or the first
    and the wildcards after it, match alone (``a+bc`` as ``abc``).
    ``x?`` and ``x*`` match as the component without that atom, whose
    wildcards take the characters next to the rest (``.a?c`` as ``.c``,
    ``ab*`` as ``a``).  That component is a variant of the same gram, or
    of the gram one character shorter at that end, with the same
    wildcards and one quantifier less, and a negative that holds that
    gram is matched by both.  A quantifier between literals changes what
    matches (``ab?c``), and ``.a?`` has no shorter form, ``.`` being no
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
                        quants = tuple(zip(q_pos, kinds))
                        reducible = any(i in ends and (k == _PLUS or len(plain) > 1) for i, k in quants)
                        (later if reducible else now).append((wild, quants))
    return tuple(now), tuple(later)


def _expand_grams(grams: str, length: int, srcs: list[int], shapes, seen: dict) -> None:
    """Add the variants of the joined ``length``-character ``grams`` in
    the ``shapes`` of :func:`_shapes` to ``seen``.

    A gram's plain literals are its own token string.  The grams are
    taken column by column: a shape swaps some columns for a column of
    wildcard tokens or a ``str.translate``d column of quantified tokens,
    and zipping the columns back gives that shape's variant of every gram.
    A component's tokens fix its shape, so shapes never share a component;
    within a shape, ``srcs`` runs from the highest source down, so a
    variant several grams share keeps the lowest.  :func:`_cut_pool`
    passes the shapes it defers only when its ``max_pool`` cut must count
    them: their variants match exactly what shorter components match,
    and greedy picks those first.
    """
    columns = [grams[i::length] for i in range(length)]
    # each column's ?, * and + forms, translated once for every shape
    quantified = [[col.translate(t) for t in QUANTIFY] for col in columns] if any(q for _, q in shapes) else []
    wild_column = ANY_TOKEN * len(srcs)
    for wild, quants in shapes:
        cols = list(columns)
        for i in wild:
            cols[i] = wild_column
        for i, kind in quants:
            cols[i] = quantified[i][kind]
        seen.update(zip(map("".join, zip(*cols)), srcs))


def filter_components(pool: dict[str, int], negatives) -> dict[str, int]:
    """The sub-dict of ``pool`` whose components match no negative string.

    :func:`learn` filters inside its one kernel pass and never calls this;
    it is kept because perfbench's tracer wraps it by attribute.
    """
    if not negatives or not pool:
        return dict(pool)
    hits = match_any_of(map(Pattern, pool), set(negatives))
    return dict(compress(pool.items(), (~hits).tolist()))


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
    tokens = list(_cut_pool(pos, cfg, negatives))
    raw, offsets = pack_tokens(tokens)
    words, last, hit = match_split(raw, offsets, pos, negatives)
    order = _text_order(raw, offsets)
    order = order[~hit[order]]
    # positives x survivors in text order
    cover = bits_at(words, last[order])
    reached = cover.any(axis=1)
    picks = order[greedy_set_cover(cover[reached].T)]
    picked = [Pattern(tokens[i]) for i in picks]
    fallbacks = [exact_pattern(pos[j]) for j in np.flatnonzero(~reached)]
    return Model(tuple(picked + fallbacks))
