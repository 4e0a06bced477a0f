"""Matching engine: a pattern x string match matrix and a combined multi-pattern automaton.

Each pattern is a short chain of states: state 0 is the start and
state ``i`` means "first ``i`` atoms consumed".  Quantifiers become two
flags per atom (may repeat; may be skipped), so simulation is a linear
scan over states -- no backtracking.  :func:`pack_patterns` is the one
place that encodes atoms into these flat arrays: patterns become token
strings (one character per atom, see :mod:`driftsig.patterns`), and
three 256-entry tables turn the joined tokens' bytes into the atoms'
codes and repeat and skip flags; the learner hands its components over
as token strings already.  The learner's kernels
simulate every chain of a batch at once, one bit per atom (bit-parallel
Shift-And, see :mod:`driftsig._kernels`); :func:`compile_set` runs
the same recurrence, on the same masks, as a subset construction, so a
whole pattern set is matched in a single pass over the input, with one
table lookup per character regardless of how many patterns are loaded.
An automaton state is the Shift-And state of all the chains at once,
a Python int with one bit per atom, and its successor on a symbol is a
few integer operations.  Most successors are shared: on a symbol that
none of a state's own atoms reads, every state moves to the same
state, so each compile fills the table with one base row and a state
overwrites only the entries of the symbols its atoms read (a state
holding a live wildcard, and state 0, write their whole row).  The
chains' start states are implicit: the unanchored ones are live in
every state, the anchored ones only in state 0, so state 0 is a state
of its own exactly when some pattern is anchored at the start.  Each
state's accepts, the ids of the patterns it matches, are stored once
as CSR arrays, and one numpy scan (:func:`driftsig._kernels.dfa_states`)
reads every automaton.
:func:`extend_set` appends one compiled set to another without a second
subset construction: it takes the reachable product of the two
automata, which is the automaton one construction builds for the
joined list, state for state.  Each automaton counts its own patterns,
so the appended set's ids shift past the first's without the caller's
bookkeeping.
:func:`compile_set` uses the same join to build a long list as a
balanced tree: lists of at most ``_LEAF_PATTERNS`` patterns take one
construction, longer ones are halved by count and their halves'
automata joined.  A half's automaton is a projection of the whole
one's (a string reaches the same subset of the half's chains in
both), so no intermediate automaton has more states than the result
and the state limit trips exactly when one construction's would.
"""

from __future__ import annotations

from array import array
from collections import deque

import numpy as np

from . import _kernels
from .alphabet import CHAR_TO_CODE, CODE_ANY, N_SYMBOLS, encode_many
from .errors import CapacityError
from .patterns import TOKEN_ATOMS, Pattern, Quant, pattern_tokens

DEFAULT_STATE_LIMIT = 1_000_000


def _token_table(value) -> np.ndarray:
    """``value(atom)`` per token byte (see :mod:`driftsig.patterns`); bytes
    no token uses are never looked up."""
    table = np.zeros(256, dtype=np.uint8)
    for token, atom in TOKEN_ATOMS.items():
        table[ord(token)] = value(atom)
    return table


# per token: the atom's symbol code, whether it may repeat (* and +) and
# whether it may be skipped (? and *)
_TOKEN_CODE = _token_table(lambda a: CODE_ANY if a.is_any else CHAR_TO_CODE[a.char])
_TOKEN_LOOP = _token_table(lambda a: a.quant in (Quant.ZERO_OR_MORE, Quant.ONE_OR_MORE))
_TOKEN_SKIP = _token_table(lambda a: a.quant in (Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE))


def pack_patterns(patterns) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten patterns into (codes, loop, skip, offsets, flags) kernel arrays.

    ``patterns`` holds :class:`Pattern` objects, or the token strings of
    unanchored patterns, as the learner keeps its components.
    """
    pats = list(patterns)
    if pats and isinstance(pats[0], str):
        keys = pats
        flags = np.zeros(len(pats), dtype=np.uint8)
    else:
        keys = [pattern_tokens(p) for p in pats]
        flags = np.array([p.anchored_start + 2 * p.anchored_end for p in pats], dtype=np.uint8)
    raw = np.frombuffer("".join(keys).encode("latin-1"), dtype=np.uint8)
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum([len(k) for k in keys], out=offsets[1:])
    return _TOKEN_CODE[raw], _TOKEN_LOOP[raw], _TOKEN_SKIP[raw], offsets, flags


def match_many(patterns, values) -> np.ndarray:
    """Boolean matrix: entry [p, j] is True when pattern p matches values[j].
    ``patterns`` is as for :func:`pack_patterns`."""
    codes, loop, skip, offsets, flags = pack_patterns(patterns)
    scodes, s_off = encode_many(values)
    return _kernels.nfa_match_matrix(codes, loop, skip, offsets, flags, scodes, s_off)


def match_any_of(patterns, values) -> np.ndarray:
    """Boolean vector: entry [p] is True when pattern p matches some value,
    the same result as ``match_many(...).any(axis=1)``."""
    codes, loop, skip, offsets, flags = pack_patterns(patterns)
    scodes, s_off = encode_many(values)
    return _kernels.nfa_match_any(codes, loop, skip, offsets, flags, scodes, s_off)


def match_one(pattern: Pattern, value: str) -> bool:
    """True when the pattern matches somewhere in ``value``.

    Containment semantics: an unanchored pattern matches if any
    substring of ``value`` belongs to its language; anchors pin the
    match to the start and/or end.  Characters outside the event
    alphabet never match anything.
    """
    return bool(match_many([pattern], [value])[0, 0])


class MultiMatcher:
    """Immutable combined automaton over an ordered pattern set.

    Built once by :func:`compile_set` or :func:`extend_set` from
    ``n_patterns`` patterns, ids ``0 .. n_patterns - 1``.  State s
    matches ``run_pid[run_off[s]:run_off[s + 1]]`` wherever it is reached
    and ``end_pid[end_off[s]:end_off[s + 1]]`` at the end of the subject
    (CSR arrays, ids ascending); the scan's hit flags derive from the
    offsets.  Every array is read-only and matching never mutates state,
    so instances can be shared freely across threads.
    """

    def __init__(self, trans, run_off, run_pid, end_off, end_pid, always, n_patterns):
        self._trans = trans
        self._run_off, self._run_pid = run_off, run_pid
        self._end_off, self._end_pid = end_off, end_pid
        self._hit_run = (run_off[1:] != run_off[:-1]).view(np.uint8)
        self._hit_end = (end_off[1:] != end_off[:-1]).view(np.uint8)
        self._always = always
        self.n_patterns = n_patterns
        for arr in (trans, run_off, run_pid, end_off, end_pid, self._hit_run, self._hit_end):
            arr.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self._trans.shape[0]

    def match_set(self, value: str) -> set[int]:
        """Indices of all patterns matching ``value``."""
        visited = _kernels.dfa_states(self._trans, *encode_many([value]))[0].tolist()
        last = visited[-1]
        ids = [self._run_pid[self._run_off[s] : self._run_off[s + 1]] for s in visited]
        ids.append(self._end_pid[self._end_off[last] : self._end_off[last + 1]])
        return set(self._always).union(np.concatenate(ids).tolist())

    def match_any_batch(self, values) -> np.ndarray:
        """Per string: True when at least one pattern matches it."""
        if self._always:
            return np.ones(len(values), dtype=bool)
        scodes, s_off = encode_many(values)
        return _kernels.dfa_match_any(self._trans, self._hit_run, self._hit_end, scodes, s_off)


# Lists longer than this compile as a balanced tree of extend_set joins.
_LEAF_PATTERNS = 512


def compile_set(patterns, state_limit: int = DEFAULT_STATE_LIMIT) -> MultiMatcher:
    """Compile patterns into one shared automaton.

    A list of at most ``_LEAF_PATTERNS`` patterns takes one subset
    construction.  A longer one is split in half by count, each half is
    compiled the same way, and the halves' automata are joined with
    :func:`extend_set`, so the work is a balanced tree of small
    constructions and numpy product searches; the result is the single
    construction's automaton, field for field.

    Raises :class:`CapacityError` if the automaton needs more than
    ``state_limit`` states.  The tree raises exactly when the single
    construction would: a string reaches the same subset of a half's
    chains in the half's automaton as in the whole one, so every
    intermediate automaton is a projection of the final one and never
    has more states.
    """
    return _compile_tree(list(patterns), state_limit)


# compile_set's recursion goes through this helper, not compile_set itself:
# perfbench's tracer wraps engine.compile_set by attribute, and a recursive
# compile_set would book every node of the tree as a compile of its own
# (serve's traced compile_calls 15 instead of 1, dfa_states 92,068
# instead of 23,006).
def _compile_tree(pats: list, state_limit: int) -> MultiMatcher:
    if len(pats) <= _LEAF_PATTERNS:
        return _subset_construction(pats, state_limit)
    half = len(pats) // 2
    left = _compile_tree(pats[:half], state_limit)
    right = _compile_tree(pats[half:], state_limit)
    return extend_set(left, right, state_limit)


def _bitsets(rows) -> list[int]:
    """Each row of a 2-D bool array as a Python int, element i being bit i."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(rows, axis=1, bitorder="little")]


def _subset_construction(pats: list, state_limit: int) -> MultiMatcher:
    """One subset construction over the whole list, on Python-int bitsets.

    A state is the Shift-And state of the packed atoms (see
    :mod:`driftsig._kernels`): bit i is set when the atoms up to slot i
    have been consumed.  Each pattern's start is implicit: all of them
    are live in state 0, the unanchored ones in every state, so ``core``
    -- the unanchored starts' skip closure -- is in every state and a
    state's bits key it uniquely, except that state 0 holds the anchored
    starts besides its bits.  State 0 therefore gets a key no bitset has
    when some pattern is anchored at the start, and is the state holding
    only ``core`` otherwise.  States are numbered breadth first, by
    (parent state, symbol).

    The skip closure distributes over OR, so a state's successor on
    symbol c is ``base[c] | closed(rest & table[c])``.  ``base[c]``, the
    closure of the unanchored starts that read c plus ``core``, is the
    same for every state; ``rest`` holds the state's own atoms: the
    consumed ones moved on a slot, the repeating ones kept and, in state
    0, every start.  On a symbol no atom of ``rest`` reads, the
    successor is base[c]'s state, whose id the first whole row to meet
    it records.  Once every base id is known, they fill the table as one
    base row, and a state with no wildcard in ``rest`` computes and
    overwrites only the entries of the symbols its literal atoms read.
    The other states, state 0 first among them, write their whole row.
    """
    codes, loop, skip, offsets, flags = pack_patterns(pats)
    m = _kernels.shift_and_masks(codes, loop, skip, offsets, flags)
    masks = (m.loops, m.skips, m.start_all, m.start_free, codes == CODE_ANY, m.last_run, m.last_end)
    bitsets = _bitsets(np.vstack((m.table, *masks)))
    table = bitsets[:N_SYMBOLS]
    loops, skips, first, start_free, wild, last_run, last_end = bitsets[N_SYMBOLS:]
    follow = skips & ~first
    may_follow = follow >> 1
    # where a consumed atom moves on to: not to a first atom, nor past the last slot
    inner = ((1 << len(codes)) - 1) & ~first
    code_of = codes.tolist()

    def closed(x: int) -> int:
        # skip closure: a consumed atom passes over the skippable ones after it
        y = x | ((x << 1) & follow)
        while y != x:
            x, y = y, y | ((y << 1) & follow)
        return x

    core = closed(start_free & skips)
    base = [closed(start_free & row) | core for row in table]
    base_row = [0] * N_SYMBOLS
    missing = set(range(N_SYMBOLS))  # symbols whose base state has no id yet
    states = [closed(first & skips)]
    index = {core if start_free == first else -1: 0}
    # whole rows back to back with their states, and the sparse states'
    # (state, symbol, successor) overwrites of the base row
    full_sid, full = array("i"), array("i")
    patch_sid, patch_sym, patch = array("i"), array("i"), array("i")
    work = deque([0])
    while work:
        sid = work.popleft()
        d = states[sid]
        rest = ((d << 1) & inner) | (d & loops)
        if not sid:
            rest |= first
        if missing or rest & wild:
            symbols, out = range(N_SYMBOLS), full
            full_sid.append(sid)
        else:
            read, r = set(), rest
            while r:
                low = r & -r
                read.add(code_of[low.bit_length() - 1])
                r ^= low
            symbols, out = sorted(read), patch
            patch_sid.extend([sid] * len(symbols))
            patch_sym.extend(symbols)
        for c in symbols:
            x = rest & table[c]
            if x & may_follow:
                x = closed(x)
            x |= base[c]
            nid = index.get(x)
            if nid is None:
                nid = len(states)
                if nid >= state_limit:
                    raise CapacityError(
                        f"combined automaton needs more than {state_limit} states"
                    )
                index[x] = nid
                states.append(x)
                work.append(nid)
            out.append(nid)
        if missing:  # so this row was written whole, at the end of ``full``
            for c in [c for c in missing if not rest & table[c]]:
                base_row[c] = full[c - N_SYMBOLS]
                missing.discard(c)

    def ints(buf: array) -> np.ndarray:
        return np.frombuffer(buf, dtype=np.int32)

    trans = np.empty((len(states), N_SYMBOLS), dtype=np.int32)
    trans[:] = base_row
    trans[ints(full_sid)] = ints(full).reshape(-1, N_SYMBOLS)
    trans[ints(patch_sid), ints(patch_sym)] = ints(patch)

    # accepts are the last atoms' bits; ascending bits are ascending ids
    pid_of = {slot: pid for pid, slot in enumerate(m.last.tolist())}

    def ids(x: int):
        while x:
            low = x & -x
            yield pid_of[low.bit_length() - 1]
            x ^= low

    def accepts(mask: int):
        off, pid = array("i", [0]), array("i")
        for d in states:
            if hit := d & mask:  # most states accept nothing
                pid.extend(ids(hit))
            off.append(len(pid))
        return ints(off), ints(pid)

    always = tuple(ids(core & (last_run | last_end)))
    return MultiMatcher(trans, *accepts(last_run & ~core), *accepts(last_end & ~core), always, len(pats))


def extend_set(
    base: MultiMatcher, addition: MultiMatcher, state_limit: int = DEFAULT_STATE_LIMIT
) -> MultiMatcher:
    """The automaton ``compile_set(base_patterns + added_patterns)`` builds,
    from ``base`` and ``addition``, the automata of the two lists; the
    added patterns' ids follow the base's ``n_patterns``.

    The two sets' chains share no atom, so the combined state a string
    reaches is the union of the states it reaches in each automaton: the
    combined automaton is the reachable part of the product of the two,
    its state for the pair ``(a, b)`` holding ``S_a | S_b``.  The pairs
    are explored one breadth-first level at a time and numbered in the
    order one subset construction's search meets them, by (parent
    state, symbol), so every field of the result equals compile_set's.
    Raises :class:`CapacityError` exactly when compile_set would.
    """
    trans_a, trans_b = base._trans, addition._trans
    n_add = trans_b.shape[0]
    # pair (a, b) is keyed a * n_add + b; by_id holds the keys of the
    # pairs met so far in state order, the start pair (0, 0) being state 0
    by_id = level = np.zeros(1, dtype=np.int64)
    rows = []
    while len(level):
        rank = by_id.argsort()
        known = by_id[rank]
        # successors of the level's pairs, row by row: (parent, symbol) order
        keys = (trans_a[level // n_add].astype(np.int64) * n_add + trans_b[level % n_add]).ravel()
        order = keys.argsort(kind="stable")
        sorted_keys = keys[order]
        head = np.ones(len(keys), dtype=bool)
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
        uniq = sorted_keys[head]
        at = np.minimum(known.searchsorted(uniq), len(known) - 1)
        ids = rank[at]
        fresh = np.flatnonzero(known[at] != uniq)
        # new pairs are numbered in the order of their first occurrence
        fresh = fresh[order[head][fresh].argsort()]
        if len(fresh) and len(by_id) + len(fresh) > state_limit:
            raise CapacityError(f"combined automaton needs more than {state_limit} states")
        ids[fresh] = np.arange(len(by_id), len(by_id) + len(fresh))
        row = np.empty(len(keys), dtype=np.int32)
        row[order] = ids[np.cumsum(head) - 1]
        rows.append(row)
        level = uniq[fresh]
        by_id = np.concatenate([by_id, level])

    trans = np.concatenate(rows).reshape(-1, N_SYMBOLS)
    pa = by_id // n_add
    pb = by_id % n_add

    def accepts(off_a, pid_a, off_b, pid_b):
        # pair (a, b) holds a's ids, then b's shifted past the base's:
        # two segments per pair, gathered from the two id arrays end to end
        starts = np.stack([off_a[pa], off_b[pb] + len(pid_a)], axis=1).ravel()
        lens = np.stack([np.diff(off_a)[pa], np.diff(off_b)[pb]], axis=1).ravel()
        ends = np.cumsum(lens)
        pool = np.concatenate([pid_a, pid_b + base.n_patterns])
        off = np.zeros(len(pa) + 1, dtype=np.int32)
        off[1:] = ends[1::2]
        return off, pool[np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)]

    return MultiMatcher(
        trans,
        *accepts(base._run_off, base._run_pid, addition._run_off, addition._run_pid),
        *accepts(base._end_off, base._end_pid, addition._end_off, addition._end_pid),
        base._always + tuple(i + base.n_patterns for i in addition._always),
        base.n_patterns + addition.n_patterns,
    )
