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
as CSR arrays.  An automaton stores one transition table, in which
every state holding a run accept loops to itself on every symbol: a
string that reaches one matches whatever follows.  The label scan
(:func:`driftsig._kernels.dfa_match_any`) steps that table and reads
each string's label once, off the state it ends in.  The rows those
states had are kept aside, and every reader of real transitions
(:meth:`MultiMatcher.match_set`, :func:`extend_set`) reads the real
table that :meth:`MultiMatcher.real_table` derives from the two.  Both
scans step a batch's strings together, one character position at a
time, over the unpadded time-major layout of
:func:`driftsig._kernels.time_major`: the strings sorted longest first,
so each step advances only the prefix still being read, with one flat
gather from the table, and a long event costs only its own characters.
:func:`extend_set` appends one compiled set to another without a second
subset construction: it takes the reachable product of the two
automata, which is the automaton one construction builds for the
joined list, state for state.  Every level of its breadth-first search
runs one body.  A pair's successor on a symbol is mostly the pair of the
two core states' successors, so a level fills its rows from the core
pair's row and keys only the other successors (on the serve model, 2-29%
of a join's entries); the pairs not met yet are numbered in the order of
their first place.  Only how a key's id is found, and a new one recorded,
depends on the product: one of at most ``_DENSE_PAIRS`` pairs, such as
every per-generation extension of an adaptive run, keeps a table of
every pair's id; a larger one whose base is a tree, such as the serve
model's join of its trie, keeps a table of one id per state of each
automaton, since a base state other than the core is reached by one
string and so pairs with one addition state; and any other searches the
sorted keys of the pairs met so far, into which each level merges its
new keys.  Each automaton counts its own patterns, so
the appended set's ids shift past the first's without the caller's
bookkeeping.
:func:`compile_set` builds a long list with the same join.  A non-empty
list of patterns all anchored at the start and of literal atoms only,
such as a blocklist's exact values, reaches one state per prefix of
their strings: it is their trie, which :func:`_trie_construction` builds
a level of depth at a time in numpy, field for field as the subset
construction would, whatever its length.  Any other list of at most
``_LEAF_PATTERNS`` patterns, the empty one included, takes the subset
construction.  A longer one is split: its start-anchored literals are
one trie, joined to the automaton of its other patterns, which are
halved by count and their halves' automata joined, and the joined
accept ids are mapped back to list order.  A part's automaton is a
projection of the whole one's (a string reaches the same subset of the
part's chains in both), so no intermediate automaton has more states
than the result and the state limit trips as one construction's would.
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
    In the real transition table, ``trans[0, CODE_OTHER]`` is the core
    state, which every string reaches after a character outside the
    alphabet, and its row holds each symbol's base state, where a state
    moves on every symbol that none of its own atoms reads (see
    :func:`_subset_construction`).

    The automaton stores one table, ``_table``: the construction's, in
    which the row of each state with a run accept points to that state
    on every symbol.  A string that reaches such a state matches whatever
    follows, so the label scan stays there and reads each label off the
    last state.  ``_run_rows`` keeps those rows' real entries, one int32
    row per such state, ascending, and :meth:`real_table` derives the
    real table from the two for every reader of real transitions.  The
    constructor takes a construction's real table and rewrites it in
    place; ``run_rows`` passes an automaton's stored pair on unchanged.
    Every array is read-only and matching never mutates state, so
    instances can be shared freely across threads.
    """

    def __init__(self, trans, run_off, run_pid, end_off, end_pid, n_patterns, run_rows=None):
        self._run_off, self._run_pid = run_off, run_pid
        self._end_off, self._end_pid = end_off, end_pid
        self._hit_run = run_off[1:] != run_off[:-1]
        self._hit_end = end_off[1:] != end_off[:-1]
        self.n_patterns = n_patterns
        if run_rows is None:
            run = np.flatnonzero(self._hit_run)
            run_rows = trans[run]
            trans[run] = run[:, None]
        self._table, self._run_rows = trans, run_rows
        for arr in (trans, run_rows, run_off, run_pid, end_off, end_pid, self._hit_run, self._hit_end):
            arr.setflags(write=False)

    def real_table(self) -> np.ndarray:
        """The real transition table: ``_table`` itself when no state has a
        run accept, else a fresh read-only copy of the whole table with the
        run rows written back, so a caller binds it once."""
        if not len(self._run_rows):
            return self._table
        trans = self._table.copy()
        trans[self._hit_run] = self._run_rows
        trans.setflags(write=False)
        return trans

    # perfbench's tracer reads the real table under this name
    _trans = property(real_table)

    @property
    def n_states(self) -> int:
        return self._table.shape[0]

    def match_set(self, value: str) -> set[int]:
        """Indices of all patterns matching ``value``."""
        cols, off, _ = _kernels.time_major(*encode_many([value]))
        visited = [0, *(int(s[0]) for s in _kernels.dfa_states(self.real_table(), cols, off))]
        last = visited[-1]
        ids = [self._run_pid[self._run_off[s] : self._run_off[s + 1]] for s in visited]
        ids.append(self._end_pid[self._end_off[last] : self._end_off[last + 1]])
        return set(np.concatenate(ids).tolist())

    def match_any_batch(self, values) -> np.ndarray:
        """Per string: True when at least one pattern matches it."""
        scodes, s_off = encode_many(values)
        return _kernels.dfa_match_any(self._table, self._hit_run, self._hit_end, scodes, s_off)


# Lists longer than this compile as a balanced tree of extend_set joins,
# their start-anchored literals (one trie at any length) split off first
_LEAF_PATTERNS = 512
# extend_set joins of at most this many pairs (a 4 MB table of int32 ids)
# find their pairs' ids in a dense table, larger ones in the slots of a
# tree base's states or else in sorted keys
_DENSE_PAIRS = 1 << 20


def compile_set(patterns, state_limit: int = DEFAULT_STATE_LIMIT) -> MultiMatcher:
    """Compile patterns into one shared automaton.

    A non-empty list whose every pattern is anchored at the start and
    holds only literal atoms (no wildcard, no quantifier; either end
    anchor) is one trie of :func:`_trie_construction`, at any length.
    Any other list of at most ``_LEAF_PATTERNS`` patterns takes the
    subset construction.  A longer one that holds such literals is split:
    the literals are one trie, the other patterns are compiled as below,
    the two automata are joined with :func:`extend_set` and the accept
    ids are mapped back to list order.  A longer list with no literal is
    split in half by count, each half compiled the same way, and the
    halves' automata joined, so the work is a balanced tree of small
    constructions and numpy product searches.  Either way the result is
    the single subset construction's automaton, field for field.

    Raises :class:`CapacityError` if the automaton needs more than
    ``state_limit`` states.  The split and the tree raise exactly when
    the single construction would: a string reaches the same subset of a
    part's chains in the part's automaton as in the whole one, so every
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

    pats = list(patterns)
    # a literal atom's token is its own ASCII character, every other token
    # is from U+0080 up (see driftsig.patterns)
    literal = np.array([p.anchored_start and p.tokens.isascii() for p in pats], dtype=bool)
    if pats and literal.all():
        return _trie_construction(pats, state_limit)
    if len(pats) <= _LEAF_PATTERNS or not literal.any():
        return tree(pats)
    # the joined ids list the literals first: ``order`` maps them back
    order = np.argsort(~literal, kind="stable")
    n_lit = np.count_nonzero(literal)
    lits = _trie_construction([pats[i] for i in order[:n_lit]], state_limit)
    joined = extend_set(lits, tree([pats[i] for i in order[n_lit:]]), state_limit)
    n = len(pats)

    def in_list_order(off: np.ndarray, pid: np.ndarray) -> np.ndarray:
        # one sort of (state, id) keys puts each state's ids in ascending order
        state = np.repeat(np.arange(len(off) - 1, dtype=np.int64), np.diff(off))
        return (np.sort(state * n + order[pid]) % n).astype(np.int32)

    # the reordered ids leave the run-accepting states, so the stored pair
    # passes on as it is
    return MultiMatcher(
        joined._table,
        joined._run_off,
        in_list_order(joined._run_off, joined._run_pid),
        joined._end_off,
        in_list_order(joined._end_off, joined._end_pid),
        n,
        joined._run_rows,
    )


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


def _trie_construction(pats: list, state_limit: int) -> MultiMatcher:
    """The automaton :func:`_subset_construction` builds for a non-empty
    list of start-anchored patterns of literal atoms, field for field,
    built as the trie of their token strings.

    Such a pattern's chain is live only in state 0, so a string reaches
    the state holding the chains its whole text is a prefix of: there is
    one state per distinct prefix of the token strings (state 0 for the
    empty one) and the core state, holding no chain, that every other
    string reaches.  A state moves to its child prefix on the child's
    symbol and to the core state on every other.  The subset construction
    numbers the states breadth first, by (parent, symbol), and meets the
    core state among state 0's successors, at the first symbol no pattern
    starts with.  Each pattern accepts on its string's last state, as a
    run accept or, anchored at the end, as an end accept.

    The distinct strings are walked one depth at a time.  A level's nodes
    are keyed ``parent * N_SYMBOLS + code``, which is also the node's
    entry in the flat table, and ``np.unique`` returns them in
    breadth-first order.  Once no node is on the way of two strings, each
    string left goes on as a chain of its own, so the chains' nodes are
    numbered in one step, by depth and then by the id of the node where
    the chain starts.  Raises :class:`CapacityError` exactly when the
    subset construction would.
    """
    # the distinct token strings, and each pattern's
    string_of: dict[str, int] = {}
    which = [string_of.setdefault(p.tokens, len(string_of)) for p in pats]
    raw, offsets = pack_tokens(string_of)
    codes = _TOKEN_CODE[raw]
    lengths = np.diff(offsets)

    def check(n_states: int):
        if n_states > state_limit:
            raise CapacityError(f"combined automaton needs more than {state_limit} states")

    # each string's node at the depth reached, state 0 being the root, and
    # the strings longer than that depth
    node = np.zeros(len(lengths), dtype=np.int64)
    live = np.arange(len(lengths))
    # the flat table entries of the trie's edges, and the children's ids
    entries, children = [], []
    n_states, depth, shared = 1, 0, True
    while shared:
        keys = node[live] * N_SYMBOLS + codes[offsets[live] + depth]
        uniq, inverse = np.unique(keys, return_inverse=True)
        ids = np.arange(n_states, n_states + len(uniq))
        if not depth:
            # the root's children are its symbols, ascending: the core
            # state takes the id of the first symbol no string starts with
            first_free = np.count_nonzero(uniq == np.arange(len(uniq)))
            core = n_states + first_free
            ids[first_free:] += 1
            n_states += 1
        n_states += len(uniq)
        check(n_states)
        entries.append(uniq)
        children.append(ids)
        node[live] = ids[inverse]
        depth += 1
        longer = lengths[live] > depth
        live = live[longer]
        # another level while two live strings still share a node
        shared = np.bincount(inverse[longer]).max(initial=0) > 1

    # each live string's chain, its nodes by depth, in the order of the
    # nodes the chains start from
    live = live[np.argsort(node[live])]
    tail = lengths[live] - depth
    total = int(tail.sum())
    check(n_states + total)
    # the chains laid end to end; a stable sort by step keeps their order
    ends = np.cumsum(tail)
    step = np.arange(total) - np.repeat(ends - tail, tail)
    ids = np.empty(total, dtype=np.int64)
    ids[np.argsort(step, kind="stable")] = np.arange(n_states, n_states + total)
    parent = np.roll(ids, 1)
    parent[ends - tail] = node[live]
    entries.append(parent * N_SYMBOLS + codes[np.repeat(offsets[live], tail) + depth + step])
    children.append(ids)
    node[live] = ids[ends - 1]
    n_states += total

    trans = np.full((n_states, N_SYMBOLS), core, dtype=np.int32)
    trans.reshape(-1)[np.concatenate(entries)] = np.concatenate(children)

    # each pattern accepts on its string's last node; ids ascend in a state
    state = node[which]
    at_end = np.array([p.anchored_end for p in pats])

    def accepts(mask: np.ndarray):
        pid = mask.nonzero()[0]
        pid = pid[np.argsort(state[pid], kind="stable")]
        off = np.zeros(n_states + 1, dtype=np.int32)
        off[1:] = np.cumsum(np.bincount(state[pid], minlength=n_states))
        return off, pid.astype(np.int32)

    return MultiMatcher(trans, *accepts(~at_end), *accepts(at_end), len(pats))


def _trie_core(trans: np.ndarray) -> int | None:
    """The core state of the automaton ``trans`` when it is a tree, such
    as every :func:`_trie_construction` output, else None.

    A tree's states other than its core are each reached by exactly one
    string.  That holds exactly when the core's row is all core and just
    ``n_states - 2`` entries are not the core: every state is reached, so
    each state other than state 0 and the core has an entry of its own,
    its one parent, and no entry is left to lead back to state 0.
    """
    core = trans[0, CODE_OTHER]
    if (trans[core] == core).all() and np.count_nonzero(trans != core) == len(trans) - 2:
        return int(core)
    return None


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

    Every level runs one body.  A pair's successor on a symbol c is
    mostly its base pair, the pair of the two automata's base states for
    c (each the successor of its core state, see :class:`MultiMatcher`),
    which is the successor of the core pair.  The core pair is the start
    pair or one of its successors, so once the first levels have written
    its row, a level fills its rows with the base pairs' ids and keys only
    the successors off the base pair; until then a level keys every
    successor.  Each key's id is found, -1 for a pair not met yet, and
    those pairs are numbered in the order of their first place.  Only
    finding a key's id and recording the new ones depends on the product.
    A product of at most ``_DENSE_PAIRS`` pairs keeps a table of every
    pair's id, -1 until it is met, gathers the ids from it and writes the
    new ones into it.  A larger product's table would cost more than it
    saves.  When the base is a tree (see :func:`_trie_core`), as a trie
    is, a base state ``a`` other than the core is reached by one string,
    so it pairs with the one addition state that string reaches, and the
    same gather and write run on a table of ``n_a + n_b`` ids: pair
    ``(a, b)`` at slot ``a``, or ``n_a + b`` when ``a`` is the core.  Any
    other larger product searches its keys in the sorted keys of the
    pairs met so far, kept sorted with their ids from level to level: a
    level merges its new keys in, a linear merge instead of a sort of
    every pair met.  The merge still copies every key met so far, so on a
    base that is not a tree a long chain of levels costs the square of
    its length; on a tree base each level costs only its own pairs.
    """
    trans_a, trans_b = base.real_table(), addition.real_table()
    n_base, n_add = trans_a.shape[0], trans_b.shape[0]
    n_pairs = n_base * n_add
    base_a = trans_a[trans_a[0, CODE_OTHER]]
    base_b = trans_b[trans_b[0, CODE_OTHER]]
    # pair (a, b) is keyed a * n_add + b; the levels hold the keys of the
    # pairs met so far in state order, the start pair (0, 0) being state 0
    level = np.zeros(1, dtype=np.int64)
    levels, n_met = [level], 1
    base_ids = None  # the core pair's row, once it is written
    # above the bound, a tree base's core state, else None
    core_a = None if n_pairs <= _DENSE_PAIRS else _trie_core(trans_a)
    if n_pairs <= _DENSE_PAIRS or core_a is not None:
        # every pair's id, -1 until the search meets it, at its key, or at
        # its slot past a tree base: a base state other than the core is
        # reached by one string, so it pairs with one addition state and
        # (a, b) takes slot a, or n_base + b when a is the core
        pair_ids = np.full(n_pairs if core_a is None else n_base + n_add, -1, dtype=np.int32)
        pair_ids[0] = 0
    else:
        # the keys of the pairs met so far, ascending, and their ids
        pair_ids, known, rank = None, level, np.zeros(1, dtype=np.intp)
    # the table, filled a level of rows at a time, is sized once for as
    # many states as the two automata hold together, about what disjoint
    # chains reach; a search that outgrows it adds at least its size again
    trans = np.empty((n_base + n_add, N_SYMBOLS), dtype=np.int32)
    while len(level):
        if n_met > len(trans):
            trans = np.concatenate([trans, np.empty((n_met, N_SYMBOLS), dtype=np.int32)])
        rows = trans[n_met - len(level) : n_met]
        # successors of the level's pairs, row by row, at their (parent,
        # symbol) places; once the core pair's row is written, the rows
        # start as base ids and only the successors off their base pair are
        # keyed
        succ_a = trans_a[level // n_add]
        succ_b = trans_b[level % n_add]
        if base_ids is None:
            places = np.arange(succ_a.size)
        else:
            rows[:] = base_ids
            off = succ_a != base_a
            off |= succ_b != base_b
            places = off.ravel().nonzero()[0]
        a = succ_a.ravel()[places]
        keys = a.astype(np.int64)
        keys *= n_add
        keys += succ_b.ravel()[places]
        # where a table holds each key's id: at the key, or past a tree base
        # at its slot (the key less core_a * n_add is b when a is the core)
        look = keys if core_a is None else np.where(a == core_a, keys + (n_base - core_a * n_add), a)
        # each key's id, -1 for a pair not met yet
        if pair_ids is not None:
            ids = pair_ids[look]
        else:
            at = np.minimum(known.searchsorted(keys), len(known) - 1)
            ids = rank[at]
            ids[known[at] != keys] = -1
        # new pairs are numbered in the order of their first place
        unseen = ids < 0
        unseen_keys = keys[unseen]
        uniq, first = np.unique(unseen_keys, return_index=True)
        order = first.argsort()
        new = uniq[order]
        # record the new pairs' ids and give them to their keys
        if pair_ids is not None:
            new_look = new if core_a is None else look[unseen][first[order]]
            pair_ids[new_look] = np.arange(n_met, n_met + len(new), dtype=np.int32)
            ids = pair_ids[look]
        else:
            new_ids = np.empty(len(new), dtype=np.intp)
            new_ids[order] = np.arange(n_met, n_met + len(new))
            ids[unseen] = new_ids[uniq.searchsorted(unseen_keys)]
            # merge the new keys into the sorted ones, no pair met twice
            at = known.searchsorted(uniq)
            known = np.insert(known, at, uniq)
            rank = np.insert(rank, at, new_ids)
        rows.reshape(-1)[places] = ids
        if base_ids is None and trans[0, CODE_OTHER] < n_met:
            base_ids = trans[trans[0, CODE_OTHER]].copy()
        if len(new) and n_met + len(new) > state_limit:
            raise CapacityError(f"combined automaton needs more than {state_limit} states")
        level = new
        levels.append(level)
        n_met += len(level)

    by_id = np.concatenate(levels)
    trans = trans[:n_met]
    # pair (a, b) holds a's accepts, then b's shifted past the base's: two
    # segments of a CSR over a's states followed by b's
    seg = np.empty(2 * len(by_id), dtype=np.intp)
    seg[0::2] = by_id // n_add
    seg[1::2] = by_id % n_add + n_base

    def accepts(off_a, pid_a, off_b, pid_b):
        off = np.concatenate([off_a, off_b[1:] + len(pid_a)])
        pool = np.concatenate([pid_a, pid_b + base.n_patterns])
        starts = off[seg]
        lens = off[seg + 1] - starts
        ends = np.cumsum(lens, dtype=np.int32)  # the offsets' dtype
        out = np.zeros(len(by_id) + 1, dtype=np.int32)
        out[1:] = ends[1::2]
        return out, pool[np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)]

    return MultiMatcher(
        trans,
        *accepts(base._run_off, base._run_pid, addition._run_off, addition._run_pid),
        *accepts(base._end_off, base._end_pid, addition._end_off, addition._end_pid),
        base.n_patterns + addition.n_patterns,
    )
