"""Hot matching loops, vectorized with numpy or on Python-int bitsets.

Two kernels dominate runtime: the pattern-set x string-set match used by
the learner, and the combined-automaton scan that labels events,
:func:`dfa_match_any`.  :func:`dfa_states` is the one loop that steps
an automaton: the scan runs it on the stored table, in which every
state with a run accept loops to itself, and reads each string's label
once, off the state it ends in; ``MultiMatcher.match_set`` runs it on
the real table.  The match
has one entry, :func:`nfa_match_split`: one pass over a string list
gives the match words of its first n strings, one row per string with
one bit per pattern's last atom, and, per pattern, whether it matches
any of the others, so the learner's cover and negative filter come from
one call.  The learner reads the bits of the components it keeps from
those rows with :func:`bits_at`, strings by components, and the match
matrix of :func:`nfa_match_matrix` is read the same way.  Both kernels
take flat arrays: patterns as packed by ``engine.pack_patterns`` and
subjects as encoded by ``alphabet.encode_many``.  The scan, and the
match on large inputs, step the subjects one character position at a
time over the same layout, :func:`time_major`: the strings sorted
longest first and their codes laid out step by step,
so the strings still being read at a step are a prefix of the sorted
ones and that step's characters one contiguous slice.  Nothing is
padded: a batch costs one entry per character, and a step costs only
the strings still live at it, however long the longest one is.

Patterns are matched by one bit-parallel extended Shift-And recurrence
(Baeza-Yates & Gonnet, CACM 1992; optional and repeatable atoms as in
Navarro & Raffinot, *Flexible Pattern Matching in Strings*, 2002):
every atom of every pattern is one bit, and :func:`shift_and_masks` is
the one place that derives the recurrence's masks from the packed
patterns.  Three consumers run them, in two layouts:
  - the match on a call of ``_SMALL_CELLS`` string x atom cells or more
    lays the masks out in uint64 words that no pattern of at most 64
    atoms crosses, and updates all patterns against all live strings
    with a few whole-array operations per input character;
  - the match on a smaller call, such as a regex-golf learn's, and the
    engine's subset construction take the masks with atom i at bit i,
    as Python ints (:func:`bitsets`), and close a state over its
    skippable atoms with :func:`closed`: the match runs the recurrence
    once per string and character, the construction once per
    automaton state and symbol.

A large call whose patterns are all unanchored and fixed-length (no
atom repeats or may be skipped), such as every learn's with
``max_quantified=0``, needs no recurrence: a pattern of n atoms matches
where its atoms read the n characters from there on.  Such a call runs
:func:`_match_windows`, with one bit per pattern instead of one per
atom (extended string matching with classes, Navarro & Raffinot 2002):
each position's window is the AND of one symbol-table row per atom
position, and a string's row the OR of its windows.
:func:`nfa_match_split` picks one of the three for each call from its
cell count and its patterns' flags.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .alphabet import CODE_OTHER, N_SYMBOLS

# There is one numpy implementation of each kernel; these flags are kept
# so that callers reporting the kernel path can still read them.
HAVE_NUMBA = False
NUMBA_ENABLED = False


def time_major(scodes, s_off):
    """The strings' codes laid out time-major, longest string first, with
    no padding: one entry per character.

    Returns ``(cols, off, order)``: the strings still being read at step t
    are the first ``off[t + 1] - off[t]`` sorted ones, ``cols[off[t]:off[t + 1]]``
    holds their character t, and sorted string j is ``order[j]`` in the
    input.  Empty strings sort last and are never read.
    """
    lengths = np.diff(s_off)
    order = np.argsort(-lengths, kind="stable")
    by_len = lengths.take(order)
    n_steps = int(by_len[0]) if len(by_len) else 0
    # strings longer than t, that is, still live at step t
    live = np.searchsorted(-by_len, -np.arange(n_steps), side="left")
    off = np.zeros(n_steps + 1, dtype=np.int64)
    np.cumsum(live, out=off[1:])
    # entry i of step t is character t of sorted string i - off[t]
    src = np.arange(off[-1])
    src -= np.repeat(off[:-1], live)
    src = s_off.take(order).take(src)
    src += np.repeat(np.arange(n_steps), live)
    return scodes.take(src), off, order


# ---------------------------------------------------------------------------
# Pattern-set x string-set match matrix (bit-parallel Shift-And).
#
# Pattern p occupies atom slots pat_off[p]:pat_off[p+1] of the flat
# arrays.  Every atom is one bit of a state vector of uint64 words, a
# pattern's atoms on consecutive bits.  _word_layout places the patterns
# so that none of at most 64 atoms crosses a word: patterns of one
# length share words, a longer pattern starts a word of its own, and no
# mask sets the bits left between.
# Bit i set means "atoms up to and including bit i consumed"; each
# pattern's start state is implicit.  Flags:
#   loop[i] -- atom i may consume another copy of itself (* and +)
#   skip[i] -- atom i may be passed over without input (? and *)
# pat_flags bit 0 = anchored at start, bit 1 = anchored at end.
#
# With FIRST the patterns' first atoms and START_t those whose pattern
# start is live before character t (all at t = 0, the unanchored ones
# afterwards), each character c does
#   D = ((shift1(D) & ~FIRST) | START_t | (D & LOOP)) & B[c]
# and then, once per atom of the longest run of skippable atoms,
#   D |= ((shift1(D) & ~FIRST) | START_t+1) & SKIP
# shift1 moves every bit one slot up.  It carries from word to word only
# when some pattern has more than 64 atoms: otherwise a bit that leaves
# its word leaves its pattern too.  A pattern has matched when its last
# bit is set after any step (LAST_RUN, unanchored end) or after the last
# character (LAST_END, anchored end).
# ---------------------------------------------------------------------------

_BATCH_CELLS = 1 << 22  # string x atom cells stepped together; bounds the state arrays
_SMALL_CELLS = 1 << 17  # calls of fewer string x atom cells run on Python ints
_ONE = np.uint64(1)
_TOP = np.uint64(63)


def _bits(words):
    """One bool per bit of uint64 words, along the last axis."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, bitorder="little").view(bool)


def _shift1(d, carry, out=None):
    """Move every bit one slot up, into ``out`` (which may be ``d``) or a
    new array; with ``carry``, bit 63 of a word moves to bit 0 of the next."""
    if carry:
        top = d[:, :-1] >> _TOP
    out = np.left_shift(d, _ONE, out=out)
    if carry:
        out[:, 1:] |= top
    return out


def _word_layout(pat_off):
    """The bit of each atom slot of the patterns ``pat_off[0]:pat_off[-1]``,
    in uint64 words that no pattern of at most 64 atoms crosses.

    Patterns are placed shortest first.  Patterns of one length share
    words, as many to a word as fit, and each length starts a new word;
    a pattern longer than 64 atoms starts a word and spans as many as it
    needs.  Returns ``(bit, n_words)``.
    """
    lengths = np.diff(pat_off)
    order = np.argsort(lengths, kind="stable")
    by_len = lengths.take(order)
    # per length present: its patterns, how many share a word, how many
    # words one spans, and the words they take
    count = np.bincount(by_len)
    n = np.flatnonzero(count)
    count = count[n]
    per_word = np.maximum(64 // n, 1)
    span = -(-n // 64)
    words = -(-count // per_word) * span
    rank = np.arange(len(order)) - np.repeat(np.cumsum(count) - count, count)
    per = np.repeat(per_word, count)
    word = np.repeat(np.cumsum(words) - words, count) + rank // per * np.repeat(span, count)
    start = np.empty_like(lengths)
    start[order] = word * 64 + rank % per * by_len
    bit = np.repeat(start - (pat_off[:-1] - pat_off[0]), lengths)
    bit += np.arange(len(bit))
    return bit, int(words.sum())


class Masks(NamedTuple):
    """The Shift-And masks of a run of whole patterns, one bool per bit.

    ``rows`` holds the symbol table's ``N_SYMBOLS`` rows (row c: the atoms
    that read symbol c), then seven masks:
      wild        wildcard atoms
      loops       atoms that may repeat (* and +)
      skips       atoms that may be skipped (? and *)
      start_all   every pattern's first atom
      start_free  first atoms of patterns not anchored at the start
      last_run    last atoms of patterns not anchored at the end
      last_end    last atoms of patterns anchored at the end
    """

    last: np.ndarray  # bit of each pattern's last atom
    rows: np.ndarray  # (N_SYMBOLS + 7, width) bool


def shift_and_masks(codes, loop, skip, pat_off, pat_flags, layout=None) -> Masks:
    """Masks of the patterns in atom slots ``pat_off[0]:pat_off[-1]``.

    Slot ``pat_off[0] + i`` is bit i, or, given a :func:`_word_layout`
    ``(bit, n_words)``, bit ``bit[i]`` of ``n_words`` words.  Every mask
    is scattered at the atoms' bits into one zeroed array, an atom's
    symbol row being its code: its own symbol's for a literal, and for
    the wildcard, whose code is ``N_SYMBOLS``, the wild row.  A literal
    reads its own code and the wildcard every alphabet code, never
    ``CODE_OTHER``: the wild row is ORed into the alphabet's rows.
    """
    lo, hi = int(pat_off[0]), int(pat_off[-1])
    bit, width = (np.arange(hi - lo), hi - lo) if layout is None else (layout[0], layout[1] * 64)
    first = bit.take(pat_off[:-1] - lo)
    last = bit.take(pat_off[1:] - (lo + 1))
    rows = np.zeros((N_SYMBOLS + 7, width), dtype=bool)
    at = np.multiply(codes[lo:hi], width, dtype=np.intp)
    at += bit
    rows.reshape(-1)[at] = True
    wild, loops, skips, start_all, start_free, last_run, last_end = rows[N_SYMBOLS:]
    rows[:CODE_OTHER] |= wild
    loops[bit[loop[lo:hi] != 0]] = True
    skips[bit[skip[lo:hi] != 0]] = True
    start_all[first] = True
    start_free[first[(pat_flags & 1) == 0]] = True
    last_run[last[(pat_flags & 2) == 0]] = True
    last_end[last[(pat_flags & 2) != 0]] = True
    return Masks(last, rows)


def bitsets(rows) -> list[int]:
    """Each row of a 2-D bool array as a Python int, element i being bit i."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(rows, axis=1, bitorder="little")]


def closed(x: int, follow: int) -> int:
    """The skip closure of the Python-int state ``x``: every consumed atom
    passes over the skippable atoms after it, ``follow`` being the
    skippable atoms that are not a pattern's first."""
    y = x | ((x << 1) & follow)
    while y != x:
        x, y = y, y | ((y << 1) & follow)
    return x


def _pack(codes, loop, skip, pat_off, pat_flags):
    """The patterns' masks in uint64 words, for :func:`_simulate`.

    All the patterns are laid out by one :func:`_word_layout`, and their
    bool masks packed into words with one ``packbits``.  Returns the bit
    of each pattern's last atom and ``(words, carry, repeats,
    n_closure)``: the table's rows and the seven masks of :class:`Masks`
    as words, whether some pattern is longer than 64 atoms, whether some
    atom repeats, and the longest run of skippable atoms inside one
    pattern (the closure moves each bit one atom further per round).
    """
    m = shift_and_masks(codes, loop, skip, pat_off, pat_flags, _word_layout(pat_off))
    words = np.packbits(m.rows, axis=-1, bitorder="little").view("<u8")

    n_closure = 0
    skippable = skip[pat_off[0] : pat_off[-1]] != 0
    if skippable.any():
        slot = np.arange(len(skippable))
        brk = np.where(skippable, -1, slot)
        first = pat_off[:-1] - pat_off[0]
        brk[first] = np.maximum(brk[first], first - 1)
        n_closure = int((slot - np.maximum.accumulate(brk)).max())
    carry = bool(np.diff(pat_off).max() > 64)
    repeats = bool(loop[pat_off[0] : pat_off[-1]].any())
    return m.last, (words, carry, repeats, n_closure)


def _simulate(packed, cols, bounds, s0, s1):
    """Run the patterns :func:`_pack` packed over the sorted strings
    ``s0:s1`` of a :func:`time_major` layout, ``bounds`` being its offsets
    as a list.

    Returns one row of words per string, with bit ``last[p]`` set when
    pattern p matched it.
    """
    words, carry, repeats, n_closure = packed
    table = words[:N_SYMBOLS]
    _, loops, skips, start_all, start_free, last_run, last_end = words[N_SYMBOLS:]
    not_first = ~start_all
    follow = not_first & skips
    free_skip = start_free & skips

    d = np.zeros((1, len(not_first)), dtype=np.uint64)
    for _ in range(n_closure):
        d |= (_shift1(d, carry) & follow) | (start_all & skips)
    d = np.repeat(d, s1 - s0, axis=0)
    # every state any step reached; masked to the last atoms once, below
    matched = d.copy()

    start = start_all
    for t in range(len(bounds) - 1):
        lo = bounds[t] + s0
        hi = min(bounds[t + 1], bounds[t] + s1)
        if hi <= lo:  # strings s0:s1 all read
            break
        cur = d[: hi - lo]  # stepped in place
        if repeats:  # else the (D & LOOP) term is always 0
            looped = cur & loops
        _shift1(cur, carry, out=cur)
        cur &= not_first
        cur |= start
        if repeats:
            cur |= looped
        cur &= table.take(cols[lo:hi], axis=0)
        for _ in range(n_closure):
            cur |= (_shift1(cur, carry) & follow) | free_skip
        matched[: hi - lo] |= cur
        start = start_free
    matched &= last_run
    matched |= d & last_end
    return matched


def _match_ints(codes, loop, skip, pat_off, pat_flags, scodes, s_off, n_rows):
    """:func:`nfa_match_split` on Python-int bitsets in the dense layout
    (atom i at bit i), one string at a time.

    The same recurrence as :func:`_simulate`.  The skip closure
    distributes over OR, so the closure of a step's unanchored starts,
    ``core``, is computed once and ORed into every state.
    """
    m = shift_and_masks(codes, loop, skip, pat_off, pat_flags)
    rows = bitsets(m.rows)
    table = rows[:N_SYMBOLS]
    _, loops, skips, first, start_free, last_run, last_end = rows[N_SYMBOLS:]
    not_first = ~first
    follow = skips & not_first
    may_follow = follow >> 1
    core = closed(start_free & skips, follow)
    d0 = closed(first & skips, follow)
    text = scodes.tolist()
    bounds = s_off.tolist()
    out, others = [], 0
    for j in range(len(bounds) - 1):
        d = matched = d0
        start = first
        for c in text[bounds[j] : bounds[j + 1]]:
            x = (((d << 1) & not_first) | start | (d & loops)) & table[c]
            if x & may_follow:
                x = closed(x, follow)
            d = x | core
            matched |= d
            start = start_free
        matched = (matched & last_run) | (d & last_end)
        if j < n_rows:
            out.append(matched)
        else:
            others |= matched
    n_bytes = -(-m.rows.shape[1] // 64) * 8
    words = np.frombuffer(b"".join(r.to_bytes(n_bytes, "little") for r in out), dtype="<u8")
    others = np.frombuffer(others.to_bytes(n_bytes, "little"), dtype="<u8")
    return words.reshape(n_rows, n_bytes // 8), m.last, _bits(others)[m.last]


def _or_rows(rows):
    """The OR of the rows of a 2-D array, folded in place, halves at a
    time (one ``reduce`` along the rows costs several times more)."""
    n = len(rows)
    while n > 1:
        half = (n + 1) // 2
        rows[: n - half] |= rows[half:n]
        n = half
    return rows[0]


def _match_words(codes, loop, skip, pat_off, pat_flags, scodes, s_off, n_rows):
    """:func:`nfa_match_split` on the word layout (:func:`_word_layout`):
    every pattern is stepped at once over the length-sorted strings, in
    batches of at most ``_BATCH_CELLS`` cells, so a long string's lone
    steps cost one pass over all the patterns."""
    last, packed = _pack(codes, loop, skip, pat_off, pat_flags)
    cols, off, order = time_major(scodes, s_off)
    bounds = off.tolist()
    n_words = packed[0].shape[1]
    words = np.empty((n_rows, n_words), dtype=np.uint64)
    others = np.zeros(n_words, dtype=np.uint64)
    per_batch = max(1, _BATCH_CELLS // int(pat_off[-1] - pat_off[0]))
    for s0 in range(0, len(order), per_batch):
        strings = order[s0 : s0 + per_batch]
        matched = _simulate(packed, cols, bounds, s0, s0 + len(strings))
        in_rows = strings < n_rows
        words[strings[in_rows]] = matched[in_rows]
        if not in_rows.all():
            others |= _or_rows(matched[~in_rows])
    return words, last, _bits(others)[last]


# ---------------------------------------------------------------------------
# Fixed-length patterns, one bit each (extended string matching with
# classes, Navarro & Raffinot 2002).
#
# A pattern none of whose atoms repeats or may be skipped reads exactly
# as many characters as it has atoms, so it matches at position i when
# its atom k reads character i + k for every k.  Pattern p is bit p, and
# there is one symbol table per atom position k below L, the longest
# pattern's atom count: row c of table k holds the patterns whose atom k
# reads c, and every pattern of k atoms or fewer, which has matched by
# then.  The strings are laid out flat, each followed by one
# past-the-end code, whose row in table k holds only those shorter
# patterns.  The window at position i, the AND of the rows of table k at
# the codes i + k, then holds the patterns matching at i inside its own
# string, and a string's row is the OR of the windows at its positions.
# ---------------------------------------------------------------------------

_WINDOW_BYTES = 1 << 18  # window rows computed together, so they stay in cache


def _window_tables(codes, pat_off, n_words):
    """The symbol tables of the fixed-length patterns in atom slots
    ``pat_off[0]:pat_off[-1]``, pattern p at bit p of ``n_words`` words.

    Returns an ``(L, N_SYMBOLS + 1, n_words)`` uint64 array; row
    ``N_SYMBOLS`` of each table is the past-the-end code's.  A literal
    reads its own code and the wildcard every alphabet code, never
    ``CODE_OTHER`` or the past-the-end code.
    """
    lo, hi = int(pat_off[0]), int(pat_off[-1])
    lengths = np.diff(pat_off)
    n_tables = int(lengths.max())
    width = n_words * 64
    # atom k of pattern p reading code c sets bit p of row c of table k;
    # the wildcard's code, N_SYMBOLS, sets its bit in that row
    k = np.arange(hi - lo) - np.repeat(pat_off[:-1] - lo, lengths)
    at = np.multiply(k, N_SYMBOLS + 1, dtype=np.intp)
    at += codes[lo:hi]
    at *= width
    at += np.repeat(np.arange(len(lengths)), lengths)
    rows = np.zeros((n_tables, N_SYMBOLS + 1, width), dtype=bool)
    rows.reshape(-1)[at] = True
    done = np.zeros((n_tables, width), dtype=bool)
    done[:, : len(lengths)] = lengths <= np.arange(n_tables)[:, None]
    tables = np.packbits(rows, axis=-1, bitorder="little").view("<u8")
    done = np.packbits(done, axis=-1, bitorder="little").view("<u8")
    tables[:, :CODE_OTHER] |= tables[:, N_SYMBOLS, None]
    tables[:, N_SYMBOLS] = done
    tables[:, :N_SYMBOLS] |= done[:, None]
    return tables


def _match_windows(codes, loop, skip, pat_off, pat_flags, scodes, s_off, n_rows):
    """:func:`nfa_match_split` of fixed-length unanchored patterns, pattern
    p at bit p (``last`` is ``arange``); ``loop``, ``skip`` and
    ``pat_flags`` are all clear, so they are not read.

    The flat layout of the strings (as :func:`alphabet.encode_many` gives
    them) ends in ``L - 1`` more past-the-end codes, so every window has
    its ``L`` codes.  Positions are taken in chunks of at most
    ``_WINDOW_BYTES`` of window rows, so a chunk's windows stay in cache
    and a long string costs no more memory than its characters.  A chunk
    may end inside a string: each string's windows in a chunk are ORed
    into its row.
    """
    n_words = -(-(len(pat_off) - 1) // 64)
    tables = _window_tables(codes, pat_off, n_words)
    n_str = len(s_off) - 1
    starts = s_off[:-1] + np.arange(n_str)
    n_pos = int(s_off[-1]) + n_str
    text = np.full(n_pos + len(tables) - 1, N_SYMBOLS, dtype=np.uint8)
    chars = np.ones(len(text), dtype=bool)
    chars[s_off[1:] + np.arange(n_str)] = False
    chars[n_pos:] = False
    text[chars] = scodes
    split = int(starts[n_rows]) if n_rows < n_str else n_pos  # the others' first position

    words = np.zeros((n_rows, n_words), dtype=np.uint64)
    others = np.zeros(n_words, dtype=np.uint64)
    step = max(1, _WINDOW_BYTES // (8 * n_words))
    windows = np.empty((min(step, n_pos), n_words), dtype=np.uint64)
    gathered = np.empty_like(windows)
    for a in range(0, n_pos, step):
        b = min(a + step, n_pos)
        codes_at = text[a : b + len(tables) - 1].astype(np.intp)
        w, g = windows[: b - a], gathered[: b - a]
        # every code is in range; "clip" lets take write into out unbuffered
        np.take(tables[0], codes_at[: b - a], axis=0, out=w, mode="clip")
        for k in range(1, len(tables)):
            np.take(tables[k], codes_at[k : k + b - a], axis=0, out=g, mode="clip")
            w &= g
        if a < split:
            # the strings j0:j1 have windows in a:end; j0's may have begun before a
            end = min(b, split)
            j0 = int(starts.searchsorted(a, "right")) - 1
            j1 = int(starts.searchsorted(end))
            heads = starts[j0:j1] - a
            heads[0] = 0
            words[j0:j1] |= np.bitwise_or.reduceat(w[: end - a], heads, axis=0)
        if b > split:
            others |= _or_rows(w[max(split - a, 0) :])
    n_pat = len(pat_off) - 1
    return words, np.arange(n_pat), _bits(others)[:n_pat]


def nfa_match_split(codes, loop, skip, pat_off, pat_flags, scodes, s_off, n_rows):
    """Match every pattern against every string in one pass.

    Returns ``(words, last, hit)``: one row of uint64 words per string of
    the first ``n_rows``, in input order, where bit ``last[p]`` is set
    when pattern p matches that string (:func:`bits_at` reads them), and
    per pattern whether it matches any of the strings after them.

    A call of fewer than ``_SMALL_CELLS`` string x atom cells (the
    strings' characters times the patterns' atoms, counted in whole
    64-bit words), such as a regex-golf learn's, runs
    :func:`_match_ints`: one string at a time on Python-int bitsets in
    the dense layout, with no per-call layout and no numpy call per
    character.  Its cost is per character, and a character costs about
    a word's operations however few atoms fill the word, so the atoms
    are rounded up.

    A larger call of unanchored patterns none of whose atoms repeats or
    may be skipped, such as every learn's with ``max_quantified=0``,
    runs :func:`_match_windows`, with one bit per pattern (``last`` is
    ``arange``): each position's window costs one table row per atom of
    the longest pattern, where the word layout steps every atom's bit
    several times per character.  Any other call runs
    :func:`_match_words` on the word layout, one bit per atom.  All
    three return the same bits: only ``last`` and the words' layout
    differ.
    """
    n_pat = len(pat_off) - 1
    if not n_pat:
        return np.zeros((n_rows, 0), dtype=np.uint64), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool)
    lo, hi = int(pat_off[0]), int(pat_off[-1])
    atoms = -(-(hi - lo) // 64) * 64  # in whole words
    if int(s_off[-1] - s_off[0]) * atoms < _SMALL_CELLS:
        return _match_ints(codes, loop, skip, pat_off, pat_flags, scodes, s_off, n_rows)
    if not (pat_flags.any() or loop[lo:hi].any() or skip[lo:hi].any()):
        return _match_windows(codes, loop, skip, pat_off, pat_flags, scodes, s_off, n_rows)
    return _match_words(codes, loop, skip, pat_off, pat_flags, scodes, s_off, n_rows)


def bits_at(words, cols):
    """Bits ``cols`` of each row of uint64 ``words``: a ``(rows x
    len(cols))`` bool matrix.  Rows are unpacked a block at a time, so
    no more than about ``_BATCH_CELLS`` bools are unpacked at once."""
    out = np.empty((len(words), len(cols)), dtype=bool)
    per_block = max(1, _BATCH_CELLS // max(64 * words.shape[1], 1))
    for r0 in range(0, len(words), per_block):
        out[r0 : r0 + per_block] = _bits(words[r0 : r0 + per_block])[:, cols]
    return out


def nfa_match_matrix(codes, loop, skip, pat_off, pat_flags, scodes, s_off):
    """Match every pattern against every string; returns a bool matrix."""
    words, last, _ = nfa_match_split(codes, loop, skip, pat_off, pat_flags, scodes, s_off, len(s_off) - 1)
    return bits_at(words, last).T


def nfa_match_any(codes, loop, skip, pat_off, pat_flags, scodes, s_off):
    """Per pattern: does it match at least one of the strings?"""
    return nfa_match_split(codes, loop, skip, pat_off, pat_flags, scodes, s_off, 0)[2]


# ---------------------------------------------------------------------------
# Combined-automaton scan: one transition-table lookup per input char.
# hit_run[s] marks states holding an accept that may fire anywhere,
# hit_end[s] one valid only at the end of the subject; MultiMatcher
# derives both from its CSR accept offsets.  dfa_states is the one
# stepping loop: dfa_match_any labels a batch with it on the stored
# table, whose run-accepting rows loop to their own state, and match_set
# reads every state a string passes with it on the real table.
# ---------------------------------------------------------------------------


def dfa_states(trans, cols, off):
    """Step the automaton over a :func:`time_major` layout, every string
    from state 0.

    Yields, for each step t, the states the live strings reach on reading
    their character t, one array aligned with ``cols[off[t]:off[t + 1]]``.
    Each step advances only the live prefix, with one flat gather.
    """
    flat = trans.ravel()
    bounds = off.tolist()
    states = np.zeros(bounds[1] if len(bounds) > 1 else 0, dtype=np.intp)
    for lo, hi in zip(bounds, bounds[1:]):
        idx = np.multiply(states[: hi - lo], N_SYMBOLS, dtype=np.intp)
        idx += cols[lo:hi]
        states = flat.take(idx)
        yield states


def dfa_match_any(table, hit_run, hit_end, scodes, s_off):
    """For each string, True when the automaton reports any match.

    ``table`` is an automaton's stored table (``MultiMatcher._table``),
    in which every state with a run accept loops to itself: a string that
    reaches one stays there, so each string's label is read once, off
    the state it ends in, as its run accept or its end accept.  The
    strings that end at a step have their last states copied out.
    """
    cols, off, order = time_major(scodes, s_off)
    last = np.zeros(len(order), dtype=np.intp)
    prev = last
    for states in dfa_states(table, cols, off):
        if len(states) < len(prev):  # strings len(states):len(prev) ended
            last[len(states) : len(prev)] = prev[len(states) :]
        prev = states
    last[: len(prev)] = prev
    out = np.empty(len(order), dtype=bool)
    out[order] = (hit_run | hit_end).take(last)
    return out
