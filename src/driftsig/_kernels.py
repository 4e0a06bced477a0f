"""Hot matching loops, vectorized with numpy.

Two kernels dominate runtime: the pattern-set x string-set match matrix
used by the learner, and the combined-automaton scan that labels events,
:func:`dfa_states`, the one loop that steps the automaton.  Both take
flat arrays: patterns as packed by ``engine.pack_patterns`` and subjects
as encoded by ``alphabet.encode_many``.  Both step the subjects one
character position at a time over the same layout, :func:`time_major`:
the strings sorted longest first and their codes laid out step by step,
so the strings still being read at a step are a prefix of the sorted
ones and that step's characters one contiguous slice.  Nothing is
padded: a batch costs one entry per character, and a step costs only
the strings still live at it, however long the longest one is.

Patterns are matched by one bit-parallel extended Shift-And recurrence
(Baeza-Yates & Gonnet, CACM 1992; optional and repeatable atoms as in
Navarro & Raffinot, *Flexible Pattern Matching in Strings*, 2002):
every atom of every pattern is one bit, and :func:`shift_and_masks` is
the one place that derives the recurrence's masks from the packed
patterns.  It has two consumers.  The match matrix lays the masks out
in uint64 words and updates all patterns against all live strings with
a few whole-array operations per input character; the engine's subset
construction turns them into Python ints and runs the recurrence once
per automaton state and symbol.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .alphabet import CODE_ANY, CODE_OTHER, N_SYMBOLS

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
# arrays.  Within a chunk of whole patterns, atom slot i is bit i of a
# state vector of uint64 words (bit i in word i // 64), so a pattern may
# straddle a word boundary.  Bit i set means "atoms up to and including
# slot i consumed"; each pattern's start state is implicit.  Flags:
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
# A pattern has matched when its last bit is set after any step (LAST_RUN,
# unanchored end) or after the last character (LAST_END, anchored end).
# ---------------------------------------------------------------------------

_CHUNK_ATOMS = 4096  # atoms simulated together; bounds the state arrays
_ONE = np.uint64(1)
_TOP = np.uint64(63)


def _words(bits, n_words):
    """Pack a bool array's last axis into ``n_words`` uint64 words."""
    padded = np.zeros(bits.shape[:-1] + (n_words * 64,), dtype=bool)
    padded[..., : bits.shape[-1]] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def _bits(words):
    """Inverse of :func:`_words`: one bool per bit along the last axis."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, bitorder="little").view(bool)


def _shift1(d, out=None):
    """Move every bit one slot up, carrying across word boundaries, into
    ``out`` (which may be ``d``) or a new array."""
    carry = d[:, :-1] >> _TOP
    out = np.left_shift(d, _ONE, out=out)
    out[:, 1:] |= carry
    return out


def _chunks(pat_off):
    """Split the patterns into runs of whole patterns with at most
    ``_CHUNK_ATOMS`` atoms each (a longer pattern gets a run of its own)."""
    n_pat = len(pat_off) - 1
    p0 = 0
    while p0 < n_pat:
        p1 = int(np.searchsorted(pat_off, pat_off[p0] + _CHUNK_ATOMS, side="right")) - 1
        p1 = min(max(p1, p0 + 1), n_pat)
        yield p0, p1
        p0 = p1


# _READS[code, c]: an atom with this code reads symbol c.  A literal reads
# its own code; the wildcard reads every alphabet code, never CODE_OTHER.
_READS = np.zeros((CODE_ANY + 1, N_SYMBOLS), dtype=bool)
_READS[:CODE_OTHER, :CODE_OTHER] = np.eye(CODE_OTHER, dtype=bool)
_READS[CODE_ANY, :CODE_OTHER] = True


class Masks(NamedTuple):
    """The Shift-And masks of a run of whole patterns, one bool per atom slot."""

    first: np.ndarray       # slot of each pattern's first atom
    last: np.ndarray        # slot of each pattern's last atom
    table: np.ndarray       # (N_SYMBOLS, n): the atoms that read each symbol
    loops: np.ndarray       # atoms that may repeat (* and +)
    skips: np.ndarray       # atoms that may be skipped (? and *)
    start_all: np.ndarray   # every pattern's first atom
    start_free: np.ndarray  # first atoms of patterns not anchored at the start
    last_run: np.ndarray    # last atoms of patterns not anchored at the end
    last_end: np.ndarray    # last atoms of patterns anchored at the end


def shift_and_masks(codes, loop, skip, pat_off, pat_flags) -> Masks:
    """Masks of the patterns in atom slots ``pat_off[0]:pat_off[-1]``,
    slot ``pat_off[0]`` being bit 0."""
    lo = int(pat_off[0])
    n = int(pat_off[-1]) - lo
    first = pat_off[:-1] - lo
    last = pat_off[1:] - lo - 1

    def mask(slots):
        bits = np.zeros(n, dtype=bool)
        bits[slots] = True
        return bits

    return Masks(
        first,
        last,
        _READS.take(codes[lo : lo + n], axis=0).T,
        loop[lo : lo + n] != 0,
        skip[lo : lo + n] != 0,
        mask(first),
        mask(first[(pat_flags & 1) == 0]),
        mask(last[(pat_flags & 2) == 0]),
        mask(last[(pat_flags & 2) != 0]),
    )


def _simulate(codes, loop, skip, pat_off, pat_flags, layout):
    """Run one chunk of patterns over every string of a :func:`time_major`
    layout.

    Returns ``(matched, last)``: ``matched`` has one row of words per
    sorted string, with bit ``last[p]`` set when pattern p matched it.
    """
    cols, off, order = layout
    m = shift_and_masks(codes, loop, skip, pat_off, pat_flags)
    n = len(m.skips)
    n_words = -(-n // 64)
    rows = (m.table, m.loops, m.skips, m.start_all, m.start_free, m.last_run, m.last_end)
    words = _words(np.vstack(rows), n_words)
    table = words[:N_SYMBOLS]
    loops, skips, start_all, start_free, last_run, last_end = words[N_SYMBOLS:]
    not_first = ~start_all

    # longest run of skippable atoms inside one pattern: the closure moves
    # each bit one atom further per round
    slot = np.arange(n)
    brk = np.where(m.skips, -1, slot)
    brk[m.first] = np.maximum(brk[m.first], m.first - 1)
    n_closure = int((slot - np.maximum.accumulate(brk)).max())
    follow = not_first & skips
    free_skip = start_free & skips

    d = np.zeros((1, n_words), dtype=np.uint64)
    for _ in range(n_closure):
        d |= (_shift1(d) & follow) | (start_all & skips)
    d = np.repeat(d, len(order), axis=0)
    # every state any step reached; masked to the last atoms once, below
    matched = d.copy()
    repeats = bool(m.loops.any())  # else the (D & LOOP) term is always 0

    start = start_all
    bounds = off.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        k = hi - lo
        cur = d[:k]  # stepped in place
        if repeats:
            looped = cur & loops
        _shift1(cur, out=cur)
        cur &= not_first
        cur |= start
        if repeats:
            cur |= looped
        cur &= table.take(cols[lo:hi], axis=0)
        for _ in range(n_closure):
            cur |= (_shift1(cur) & follow) | free_skip
        matched[:k] |= cur
        start = start_free
    matched &= last_run
    matched |= d & last_end
    return matched, m.last


def nfa_match_matrix(codes, loop, skip, pat_off, pat_flags, scodes, s_off):
    """Match every pattern against every string; returns a bool matrix."""
    out = np.zeros((len(pat_off) - 1, len(s_off) - 1), dtype=bool)
    layout = time_major(scodes, s_off)
    for p0, p1 in _chunks(pat_off):
        matched, last = _simulate(codes, loop, skip, pat_off[p0 : p1 + 1], pat_flags[p0:p1], layout)
        out[p0:p1, layout[2]] = _bits(matched)[:, last].T
    return out


def nfa_match_any(codes, loop, skip, pat_off, pat_flags, scodes, s_off):
    """Per pattern: does it match at least one of the strings?"""
    out = np.zeros(len(pat_off) - 1, dtype=bool)
    layout = time_major(scodes, s_off)
    for p0, p1 in _chunks(pat_off):
        matched, last = _simulate(codes, loop, skip, pat_off[p0 : p1 + 1], pat_flags[p0:p1], layout)
        out[p0:p1] = _bits(np.bitwise_or.reduce(matched, axis=0))[last]
    return out


# ---------------------------------------------------------------------------
# Combined-automaton scan: one transition-table lookup per input char.
# dfa_states is the one stepping loop; every reading of the automaton
# derives from the states it yields.  hit_run[s] marks states holding an
# accept that may fire anywhere, hit_end[s] one valid only at the end of
# the subject; MultiMatcher derives both from its CSR accept offsets.
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


def dfa_match_any(trans, hit_run, hit_end, scodes, s_off):
    """For each string, True when the automaton reports any match."""
    cols, off, order = time_major(scodes, s_off)
    hit = np.full(len(order), hit_run[0])
    last = np.zeros(len(order), dtype=np.intp)
    for states in dfa_states(trans, cols, off):
        hit[: len(states)] |= hit_run.take(states)
        last[: len(states)] = states
    out = np.empty(len(order), dtype=bool)
    out[order] = hit | hit_end.take(last)
    return out
