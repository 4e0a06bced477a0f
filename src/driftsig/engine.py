"""Matching engine: a pattern x string match matrix and a combined multi-pattern automaton.

Each pattern is a short chain of states: state 0 is the start and
state ``i`` means "first ``i`` atoms consumed".  Quantifiers become two
flags per atom (may repeat; may be skipped), so simulation is a linear
scan over states -- no backtracking.  :func:`pack_tokens` is the one
place that encodes atoms into these flat arrays: a pattern is stored as
its token string (one character per atom, see :mod:`driftsig.patterns`),
the token strings are joined into one byte array with offsets (the
learner packs its components once and hands the buffer to
:func:`match_split`), and three 256-entry tables turn those bytes into
the atoms' codes and repeat and skip flags.  The learner's kernels
simulate every chain of a batch at once, one bit per atom (bit-parallel
Shift-And, see :mod:`driftsig._kernels`); :func:`compile_set` runs
the same recurrence, on the same masks, as a subset construction, so a
whole pattern set is matched in a single pass over the input, with one
table lookup per character regardless of how many patterns are loaded.
An automaton state is the Shift-And state of all the chains at once,
a Python int with one bit per atom, and its successor on a symbol is a
few integer operations.  The chains' start states are implicit: the
unanchored ones are live in every state, the anchored ones only in
state 0, so state 0 is a state of its own exactly when some pattern is
anchored at the start.  Every state holds the atoms of the core state,
where every string goes on a character outside the alphabet, and most
successors are shared: on a symbol that none of a state's own atoms
(those outside the core) reads, every state moves where the core state
moves.  So a compile fills the table with the core state's row, and a
state past it overwrites only the entries of the symbols its own atoms
read (a state with a live wildcard of its own writes its whole row).
Each state's accepts, the ids of the patterns it matches, are stored once
as CSR arrays, and one numpy scan (:func:`driftsig._kernels.dfa_states`)
reads every automaton.  The scan steps a batch's strings together, one
character position at a time, over the unpadded time-major layout of
:func:`driftsig._kernels.time_major`: the strings sorted longest first,
so each step advances only the prefix still being read, with one flat
gather from the table, and a long event costs only its own characters.
:func:`extend_set` appends one compiled set to another without a second
subset construction: it takes the reachable product of the two
automata, which is the automaton one construction builds for the
joined list, state for state.  Its search is sparse too: a pair's
successor on a symbol is mostly the pair of the two core states'
successors, so a level fills its rows from the core pair's row and
sorts only the other successors (on the serve model, 2-29% of a join's
entries).  Each
automaton counts its own patterns, so the appended set's ids shift
past the first's without the caller's bookkeeping.
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
from .alphabet import CHAR_TO_CODE, CODE_OTHER, N_SYMBOLS, encode_many
from .errors import CapacityError
from .patterns import TOKEN_ATOMS, Quant

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
_TOKEN_CODE = _token_table(lambda a: N_SYMBOLS if a.is_any else CHAR_TO_CODE[a.char])
_TOKEN_LOOP = _token_table(lambda a: a.quant in (Quant.ZERO_OR_MORE, Quant.ONE_OR_MORE))
_TOKEN_SKIP = _token_table(lambda a: a.quant in (Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE))


def pack_tokens(keys) -> tuple[np.ndarray, np.ndarray]:
    """Join the token strings ``keys`` into one byte array; returns
    ``(raw, offsets)``, token string ``i`` being ``raw[offsets[i]:offsets[i + 1]]``."""
    keys = list(keys)
    raw = np.frombuffer("".join(keys).encode("latin-1"), dtype=np.uint8)
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, keys), np.int64, len(keys)), out=offsets[1:])
    return raw, offsets


def _atom_arrays(raw):
    """The (codes, loop, skip) kernel arrays of the joined token bytes ``raw``."""
    return _TOKEN_CODE[raw], _TOKEN_LOOP[raw], _TOKEN_SKIP[raw]


def pack_patterns(patterns) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten :class:`Pattern` objects into (codes, loop, skip, offsets,
    flags) kernel arrays."""
    pats = list(patterns)
    flags = np.array([p.anchored_start + 2 * p.anchored_end for p in pats], dtype=np.uint8)
    raw, offsets = pack_tokens(p.tokens for p in pats)
    return (*_atom_arrays(raw), offsets, flags)


def match_many(patterns, values) -> np.ndarray:
    """Boolean matrix: entry [p, j] is True when pattern p matches values[j].
    ``patterns`` is as for :func:`pack_patterns`."""
    return _kernels.nfa_match_matrix(*pack_patterns(patterns), *encode_many(values))


def match_any_of(patterns, values) -> np.ndarray:
    """Boolean vector: entry [p] is True when pattern p matches some value,
    the same result as ``match_many(...).any(axis=1)``."""
    return _kernels.nfa_match_any(*pack_patterns(patterns), *encode_many(values))


def match_split(raw, offsets, values, others) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match the unanchored token strings that :func:`pack_tokens` packed
    as ``raw`` and ``offsets`` against ``values`` and ``others`` in one
    pass of the kernel.

    Returns ``(words, last, hit)`` as ``_kernels.nfa_match_split`` does:
    one row of match words per value, in order, where bit ``last[i]``
    is set when token string i matches it, and per token string whether
    it matches any of ``others`` (``match_any_of`` of its unanchored
    :class:`Pattern`).
    """
    values = list(values)
    flags = np.zeros(len(offsets) - 1, dtype=np.uint8)
    strings = encode_many(values + list(others))
    return _kernels.nfa_match_split(*_atom_arrays(raw), offsets, flags, *strings, len(values))


class MultiMatcher:
    """Immutable combined automaton over an ordered pattern set.

    Built once by :func:`compile_set` or :func:`extend_set` from
    ``n_patterns`` patterns, ids ``0 .. n_patterns - 1``.  State s
    matches ``run_pid[run_off[s]:run_off[s + 1]]`` wherever it is reached
    and ``end_pid[end_off[s]:end_off[s + 1]]`` at the end of the subject
    (CSR arrays, ids ascending), so a pattern that matches everywhere is
    listed in every state.  The scan's hit flags derive from the offsets.
    ``trans[0, CODE_OTHER]`` is the core state, which every string reaches
    after a character outside the alphabet, and its row holds each
    symbol's base state, where a state moves on every symbol that none
    of its own atoms reads (see :func:`_subset_construction`).
    Every array is read-only and matching never mutates state, so
    instances can be shared freely across threads.
    """

    def __init__(self, trans, run_off, run_pid, end_off, end_pid, n_patterns):
        self._trans = trans
        self._run_off, self._run_pid = run_off, run_pid
        self._end_off, self._end_pid = end_off, end_pid
        self._hit_run = run_off[1:] != run_off[:-1]
        self._hit_end = end_off[1:] != end_off[:-1]
        self.n_patterns = n_patterns
        for arr in (trans, run_off, run_pid, end_off, end_pid, self._hit_run, self._hit_end):
            arr.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self._trans.shape[0]

    def match_set(self, value: str) -> set[int]:
        """Indices of all patterns matching ``value``."""
        cols, off, _ = _kernels.time_major(*encode_many([value]))
        visited = [0, *(int(s[0]) for s in _kernels.dfa_states(self._trans, cols, off))]
        last = visited[-1]
        ids = [self._run_pid[self._run_off[s] : self._run_off[s + 1]] for s in visited]
        ids.append(self._end_pid[self._end_off[last] : self._end_off[last + 1]])
        return set(np.concatenate(ids).tolist())

    def match_any_batch(self, values) -> np.ndarray:
        """Per string: True when at least one pattern matches it."""
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

    # the halves recurse through ``tree``, not ``compile_set``, so a wrapper
    # of the ``compile_set`` attribute (perfbench's tracer) sees one call
    def tree(pats: list) -> MultiMatcher:
        if len(pats) <= _LEAF_PATTERNS:
            return _subset_construction(pats, state_limit)
        half = len(pats) // 2
        return extend_set(tree(pats[:half]), tree(pats[half:]), state_limit)

    return tree(list(patterns))


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
    symbol c is ``base[c] | closed(own & table[c])``.  ``own`` holds the
    state's own atoms: the consumed ones moved on a slot and the
    repeating ones kept, less the ``shared`` ones that ``core`` makes
    live in every state, and, in state 0, every start.  ``base[c]``,
    ``core`` plus the closure of the unanchored starts and the shared
    atoms that read c, is the same for every state: it is the successor
    of the core state, which holds only ``core`` and is where state 0
    moves on ``CODE_OTHER``, a symbol no atom reads.  On a symbol no
    atom of ``own`` reads, a state moves to base[c]'s state.  Rows are
    written whole up to the core state's, which gives every base state
    its id; past it, a state with no wildcard in ``own`` computes only
    the entries of the symbols its literal atoms read, and the base
    states' ids fill the rest of its row.
    """
    codes, loop, skip, offsets, flags = pack_patterns(pats)
    m = _kernels.shift_and_masks(codes, loop, skip, offsets, flags)
    bitsets = _kernels.bitsets(m.rows)
    table = bitsets[:N_SYMBOLS]
    wild, loops, skips, first, start_free, last_run, last_end = bitsets[N_SYMBOLS:]
    follow = skips & ~first
    may_follow = follow >> 1
    # where a consumed atom moves on to: not to a first atom, nor past the last slot
    inner = ((1 << len(codes)) - 1) & ~first
    code_of = codes.tolist()
    closed = _kernels.closed
    core = closed(start_free & skips, follow)
    shared = ((core << 1) & inner) | (core & loops)
    base = [closed((start_free | shared) & row, follow) | core for row in table]
    states = [closed(first & skips, follow)]
    index = {core if start_free == first else -1: 0}
    core_sid = 0  # the core state's id, known once state 0's row is written
    # whole rows back to back with their states, and the sparse states'
    # (state, symbol, successor) overwrites of the base states' ids
    full_sid, full = array("i"), array("i")
    patch_sid, patch_sym, patch = array("i"), array("i"), array("i")
    work = deque([0])
    while work:
        sid = work.popleft()
        d = states[sid]
        own = (((d << 1) & inner) | (d & loops)) & ~shared
        if not sid:
            own |= first
        if sid <= core_sid or own & wild:
            symbols, out = range(N_SYMBOLS), full
            full_sid.append(sid)
        else:
            read, r = set(), own
            while r:
                low = r & -r
                read.add(code_of[low.bit_length() - 1])
                r ^= low
            symbols, out = sorted(read), patch
            patch_sid.extend([sid] * len(symbols))
            patch_sym.extend(symbols)
        for c in symbols:
            x = own & table[c]
            if x & may_follow:
                x = closed(x, follow)
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
        if not sid:
            core_sid = index[core]

    def ints(buf: array) -> np.ndarray:
        return np.frombuffer(buf, dtype=np.int32)

    trans = np.empty((len(states), N_SYMBOLS), dtype=np.int32)
    trans[:] = [index[x] for x in base]
    trans[ints(full_sid)] = ints(full).reshape(-1, N_SYMBOLS)
    trans[ints(patch_sid), ints(patch_sym)] = ints(patch)

    # accepts are the last atoms' bits, ascending bits being ascending ids;
    # an always-matching pattern's last bit is in ``core``, so every state has it
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

    return MultiMatcher(trans, *accepts(last_run), *accepts(last_end), len(pats))


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

    The search is sparse, as the leaf construction is: a pair's successor
    on a symbol c is mostly its base pair, the pair of the two automata's
    base states for c (each the successor of its core state, see
    :class:`MultiMatcher`), which is the successor of the core pair.  The
    core pair is the start pair or one of its successors, so once the
    first levels have written its row, a level fills its rows with the
    base pairs' ids and keys, sorts and deduplicates only the successors
    off the base pair; until then a level keys every successor, so every
    pair is numbered at its first place.
    """
    trans_a, trans_b = base._trans, addition._trans
    n_add = trans_b.shape[0]
    base_a = trans_a[trans_a[0, CODE_OTHER]]
    base_b = trans_b[trans_b[0, CODE_OTHER]]
    # pair (a, b) is keyed a * n_add + b; by_id holds the keys of the
    # pairs met so far in state order, the start pair (0, 0) being state 0
    by_id = level = np.zeros(1, dtype=np.int64)
    base_ids = None  # the core pair's row, once it is written
    # the table, filled a level of rows at a time, is sized once for as
    # many states as the two automata hold together, about what disjoint
    # chains reach; a search that outgrows it adds at least its size again
    trans = np.empty((trans_a.shape[0] + n_add, N_SYMBOLS), dtype=np.int32)
    while len(level):
        if len(by_id) > len(trans):
            trans = np.concatenate([trans, np.empty((len(by_id), N_SYMBOLS), dtype=np.int32)])
        rank = by_id.argsort()
        known = by_id[rank]
        # successors of the level's pairs, row by row, at their (parent,
        # symbol) places; those at their symbol's base pair, once its id is
        # known, are not keyed
        succ_a = trans_a[level // n_add]
        succ_b = trans_b[level % n_add]
        if base_ids is None:
            places = np.arange(succ_a.size)
        else:
            off = succ_a != base_a
            off |= succ_b != base_b
            places = off.ravel().nonzero()[0]
        keys = succ_a.ravel()[places].astype(np.int64)
        keys *= n_add
        keys += succ_b.ravel()[places]
        order = keys.argsort(kind="stable")
        keys = keys[order]
        head = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        uniq = keys[head]
        starts = head.nonzero()[0]
        at = np.minimum(known.searchsorted(uniq), len(known) - 1)
        ids = rank[at].astype(np.int32)
        fresh = (known[at] != uniq).nonzero()[0]
        # new pairs are numbered in the order of their first occurrence:
        # the stable sort keeps a run of equal keys in place order, so its
        # first entry is at its smallest place
        fresh = fresh[order[starts[fresh]].argsort()]
        if len(fresh) and len(by_id) + len(fresh) > state_limit:
            raise CapacityError(f"combined automaton needs more than {state_limit} states")
        ids[fresh] = np.arange(len(by_id), len(by_id) + len(fresh))
        # the level's rows: base ids, then every keyed successor's id,
        # which is the id of its run of equal sorted keys
        rows = trans[len(by_id) - len(level) : len(by_id)]
        if base_ids is not None:
            rows[:] = base_ids
        runs = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=runs[:-1])
        runs[-1:] = len(keys) - starts[-1:]
        rows.reshape(-1)[places[order]] = ids.repeat(runs)
        if base_ids is None and trans[0, CODE_OTHER] < len(by_id):
            base_ids = trans[trans[0, CODE_OTHER]].copy()
        level = uniq[fresh]
        by_id = np.concatenate([by_id, level])

    trans = trans[: len(by_id)]
    pa = by_id // n_add
    pb = by_id % n_add

    def accepts(off_a, pid_a, off_b, pid_b):
        # pair (a, b) holds a's ids, then b's shifted past the base's:
        # two segments per pair, gathered from the two id arrays end to end
        starts = np.stack([off_a[pa], off_b[pb] + len(pid_a)], axis=1).ravel()
        lens = np.stack([np.diff(off_a)[pa], np.diff(off_b)[pb]], axis=1).ravel()
        ends = np.cumsum(lens, dtype=np.int32)  # the offsets' dtype
        pool = np.concatenate([pid_a, pid_b + base.n_patterns])
        off = np.zeros(len(pa) + 1, dtype=np.int32)
        off[1:] = ends[1::2]
        return off, pool[np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)]

    return MultiMatcher(
        trans,
        *accepts(base._run_off, base._run_pid, addition._run_off, addition._run_pid),
        *accepts(base._end_off, base._end_pid, addition._end_off, addition._end_pid),
        base.n_patterns + addition.n_patterns,
    )
