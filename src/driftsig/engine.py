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
Shift-And, see :mod:`driftsig._kernels`); :func:`compile_set` lays the
same chains back to back and glues them into one subset-construction
automaton, so a whole pattern set is matched in a single pass over the
input, with one table lookup per character regardless of how many
patterns are loaded.  The construction is table-driven: each chain
state lists once, per symbol it can read, the skip-closed states it
moves to, and an automaton state's successors on all symbols are the
unions of its members' entries, gathered in one pass.
:func:`extend_set` appends patterns to a compiled set without a second
subset construction: it takes the reachable product of the set's
automaton and the appended patterns' own, which is the automaton one
construction builds for the joined list, state for state.
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
from .alphabet import CHAR_TO_CODE, CODE_ANY, CODE_OTHER, N_SYMBOLS, encode, encode_many
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

    Built once by :func:`compile_set` or :func:`extend_set`; matching
    never mutates state, so instances can be shared freely across threads.
    """

    def __init__(self, trans, hit_run, hit_end, run_ids, end_ids, always):
        self._trans = trans
        self._hit_run = hit_run
        self._hit_end = hit_end
        self._run_ids = run_ids
        self._end_ids = end_ids
        self._always = always
        trans.setflags(write=False)
        hit_run.setflags(write=False)
        hit_end.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self._trans.shape[0]

    def scan_states(self, value: str):
        """Automaton states visited while reading ``value``, including the
        initial one -- exactly ``len(value) + 1`` entries, one shared pass."""
        states = [0]
        state = 0
        trans = self._trans
        for c in encode(value):
            state = int(trans[state, c])
            states.append(state)
        return states

    def match_set(self, value: str) -> set[int]:
        """Indices of all patterns matching ``value``."""
        matched = set(self._always)
        states = self.scan_states(value)
        for state in states:
            matched.update(self._run_ids[state])
        matched.update(self._end_ids[states[-1]])
        return matched

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


def _compile_tree(pats: list, state_limit: int) -> MultiMatcher:
    if len(pats) <= _LEAF_PATTERNS:
        return _subset_construction(pats, state_limit)
    half = len(pats) // 2
    left = _compile_tree(pats[:half], state_limit)
    right = _compile_tree(pats[half:], state_limit)
    return extend_set(left, right, half, state_limit)


def _subset_construction(pats: list, state_limit: int) -> MultiMatcher:
    """One table-driven subset construction over the whole list."""
    codes, loop, skip, offsets, flags = pack_patterns(pats)

    # chain NFA over the packed atoms: a start state is inserted before
    # each pattern's first atom, so pattern p starts at offsets[p] + p and
    # accepts at offsets[p + 1] + p.  The subset construction indexes
    # these one element at a time, which is much faster on Python lists
    # than on numpy arrays.
    first = offsets[:-1]
    code = np.insert(codes, first, 0).tolist()
    loop = np.insert(loop, first, 0).tolist()
    skip = np.insert(skip, first, 0).tolist()
    is_start = np.insert(np.zeros(len(codes), dtype=bool), first, True).tolist()
    n_states = len(code)
    pids = np.arange(len(pats))
    starts = (first + pids).tolist()
    accept_of = [-1] * n_states
    for pid, state in enumerate((offsets[1:] + pids).tolist()):
        accept_of[state] = pid
    anchored_start = (flags & 1).tolist()
    anchored_end = (flags & 2).tolist()

    def closed(states) -> set[int]:
        out = set(states)
        for t in states:
            v = t + 1
            while v < n_states and not is_start[v] and skip[v]:
                out.add(v)
                v += 1
        return out

    def reads(c: int):
        # the wildcard reads every alphabet code, never CODE_OTHER
        return range(CODE_OTHER) if c == CODE_ANY else (c,)

    # Successor table, built once: for each NFA state u, one (sym, targets)
    # pair per symbol u can read, targets being the skip closure of u's
    # successors on sym (u itself when its atom repeats, and u + 1 unless
    # that starts the next pattern; start states never repeat).  Closure
    # and move distribute over union, so a subset's successors on every
    # symbol are gathered in one pass over its members.
    table = []
    for u in range(n_states):
        succ: dict[int, set[int]] = {}
        if loop[u]:
            for sym in reads(code[u]):
                succ.setdefault(sym, set()).add(u)
        v = u + 1
        if v < n_states and not is_start[v]:
            for sym in reads(code[v]):
                succ.setdefault(sym, set()).add(v)
        table.append(tuple((sym, tuple(closed(vs))) for sym, vs in succ.items()))

    def successors(states) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for u in states:
            for sym, targets in table[u]:
                found = out.get(sym)
                if found is None:
                    out[sym] = set(targets)
                else:
                    found.update(targets)
        return out

    # States live while the scan runs regardless of position: the start
    # states of unanchored patterns plus their skip closures.  They are in
    # every subset, so they are factored out of the stored sets and their
    # per-symbol moves are computed once.
    core = frozenset(closed({s for s, anchored in zip(starts, anchored_start) if not anchored}))
    core_succ = successors(core)
    core_move = [frozenset(core_succ.get(sym, ())) - core for sym in range(N_SYMBOLS)]

    start_store = frozenset(closed(set(starts)) - core)
    index = {start_store: 0}
    stores = [start_store]
    # rows of the transition table, back to back, in state order
    flat = array("i")
    work = deque([0])
    while work:
        succ = successors(stores[work.popleft()])
        for sym in range(N_SYMBOLS):
            found = succ.get(sym)
            if found:
                found -= core
            if found:
                found |= core_move[sym]
                target = frozenset(found)
            else:
                # nothing beyond the core's own move: reuse its frozenset
                target = core_move[sym]
            nid = index.get(target)
            if nid is None:
                nid = len(stores)
                if nid >= state_limit:
                    raise CapacityError(
                        f"combined automaton needs more than {state_limit} states"
                    )
                index[target] = nid
                stores.append(target)
                work.append(nid)
            flat.append(nid)

    trans = np.frombuffer(flat, dtype=np.int32).reshape(-1, N_SYMBOLS)

    always = tuple(sorted(accept_of[t] for t in core if accept_of[t] >= 0))
    run_ids = []
    end_ids = []
    for store in stores:
        run, endl = [], []
        for t in store:
            pid = accept_of[t]
            if pid >= 0:
                (endl if anchored_end[pid] else run).append(pid)
        run_ids.append(tuple(sorted(run)))
        end_ids.append(tuple(sorted(endl)))
    hit_run = np.array([1 if ids else 0 for ids in run_ids], dtype=np.uint8)
    hit_end = np.array([1 if ids else 0 for ids in end_ids], dtype=np.uint8)

    return MultiMatcher(trans, hit_run, hit_end, tuple(run_ids), tuple(end_ids), always)


def extend_set(
    base: MultiMatcher, addition: MultiMatcher, n_base: int, state_limit: int = DEFAULT_STATE_LIMIT
) -> MultiMatcher:
    """The automaton ``compile_set(base_patterns + added_patterns)`` builds,
    from ``base`` (compiled from the first ``n_base`` patterns) and
    ``addition`` (compiled from the rest).

    The two sets' chains share no NFA state, so the combined subset a
    string reaches is the union of the subsets it reaches in each
    automaton: the combined automaton is the reachable part of the
    product of the two, its state for the pair ``(a, b)`` storing
    ``S_a | S_b``.  The pairs are explored one breadth-first level at a
    time and numbered in the order one subset construction's search
    meets their stores, by (parent state, symbol), so every field of the
    result equals compile_set's.  Raises :class:`CapacityError` exactly
    when compile_set would.
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

    def shifted(ids):
        return tuple(i + n_base for i in ids)

    run_b = [shifted(ids) for ids in addition._run_ids]
    end_b = [shifted(ids) for ids in addition._end_ids]
    pairs = list(zip(pa.tolist(), pb.tolist()))
    return MultiMatcher(
        trans,
        base._hit_run[pa] | addition._hit_run[pb],
        base._hit_end[pa] | addition._hit_end[pb],
        tuple(base._run_ids[a] + run_b[b] for a, b in pairs),
        tuple(base._end_ids[a] + end_b[b] for a, b in pairs),
        base._always + shifted(addition._always),
    )
