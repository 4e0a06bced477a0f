import functools
import hashlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftsig import _kernels, engine
from driftsig.engine import DEFAULT_STATE_LIMIT, compile_set, extend_set, match_many, pack_patterns
from driftsig.alphabet import ALPHABET, BYTE_TABLE, CODE_OTHER, N_SYMBOLS, encode_many
from driftsig.errors import CapacityError
from driftsig.patterns import Atom, Pattern, Quant, exact_pattern, parse_pattern

from oracle import (
    SYMBOLS,
    atom_pattern,
    automaton_fields,
    backtrack_match,
    match_set_bruteforce,
    pack_patterns_per_atom,
    position_reads,
    random_pattern,
    random_subject,
    state_ids,
    subset_construction_fields,
    subset_construction_reference,
)

# no example database on disk, and the same examples on every run
PROPERTY = settings(database=None, derandomize=True, deadline=None)


# patches of _kernels that send every nfa_match_split call to the
# Python-int bitsets, to the word layout (the window route runs it too),
# and to the windows wherever the call's patterns are fixed-length and
# unanchored (else the word layout)
KERNEL_PATHS = (
    {"_SMALL_CELLS": 1 << 62},
    {"_SMALL_CELLS": 0, "_match_windows": _kernels._match_words},
    {"_SMALL_CELLS": 0},
)
# patches of engine that send every extend_set join to the slot table of
# its base when that base is a tree (else to the sorted-key search), to
# the sorted-key search and to the dense pair table; every product a test
# joins is far below the third bound
JOIN_PATHS = (
    {"_DENSE_PAIRS": 0},
    {"_DENSE_PAIRS": 0, "_trie_core": lambda trans: None},
    {"_DENSE_PAIRS": np.iinfo(np.int32).max},
)


def _on_paths(module, patches):
    """A decorator that runs a test once with ``module`` patched by each
    of ``patches``.  The test keeps its name: it passes only when every
    run does."""

    def decorate(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            for patch in patches:
                with mock.patch.multiple(module, **patch):
                    test(*args, **kwargs)

        return run

    return decorate


all_kernel_paths = _on_paths(_kernels, KERNEL_PATHS)
all_join_paths = _on_paths(engine, JOIN_PATHS)


def pat(text):
    return parse_pattern(text)


@pytest.mark.parametrize(
    "text,subject,expected",
    [
        ("a+b", "xaab", True),
        ("^ab$", "xaby", False),
        ("^ab$", "ab", True),
        (".b", "cb", True),
        ("a\\.b", "axb", False),
        ("a\\.b", "xa.by", True),
        ("a*", "zzz", True),
        ("^a?", "zzz", True),
        ("a$", "xa", True),
        ("a$", "ax", False),
        ("^a*$", "b", False),
        ("^a*$", "", True),
        ("a", "A", False),
    ],
)
@all_kernel_paths
def test_match_one_cases(text, subject, expected):
    assert match_many([pat(text)], [subject]).tolist() == [[expected]]


@all_kernel_paths
def test_non_alphabet_chars_never_match_wildcard():
    assert match_many([pat("x.z")], ["xAz", "xaz"]).tolist() == [[False, True]]


@all_kernel_paths
def test_automaton_wildcard_never_reads_outside_alphabet():
    patterns = [pat("a.c"), pat("^.b"), pat("x.$"), pat("ud800"), pat("x."), pat("^x.$")]
    # lone surrogates must not encode to alphabet characters (an escaping
    # encoder would turn "\ud800" into the text "\\ud800")
    outside = ["a!c", "a c", "a\u00e9c", "!b", "x!", "\ud800", "x\udcff"]
    twins = ["a-c", "a_c", "a.c", ".b", "x9", "ud800", "xd"]
    subjects = outside + twins
    m = compile_set(patterns)
    for s in subjects:
        assert m.match_set(s) == match_set_bruteforce(patterns, s), s
    assert not m.match_any_batch(outside).any()
    assert m.match_any_batch(twins).all()
    expected = [[backtrack_match(p, s) for s in subjects] for p in patterns]
    assert match_many(patterns, subjects).tolist() == expected
    for p in patterns:
        single = compile_set([p])
        expected = [backtrack_match(p, s) for s in subjects]
        assert single.match_any_batch(subjects).tolist() == expected, p.text


@all_kernel_paths
def test_match_one_agrees_with_backtracking_oracle():
    rng = random.Random(99)
    for _ in range(400):
        p = random_pattern(rng)
        s = random_subject(rng)
        assert match_many([p], [s]).tolist() == [[backtrack_match(p, s)]], (p.text, s)


@all_kernel_paths
def test_unanchored_matches_survive_superstrings():
    rng = random.Random(5)
    found = 0
    for _ in range(400):
        p = random_pattern(rng)
        if p.anchored_start or p.anchored_end:
            continue
        s = random_subject(rng)
        if not match_many([p], [s])[0, 0]:
            continue
        found += 1
        assert match_many([p], ["zz" + s, s + "00"]).tolist() == [[True, True]]
    assert found > 30


def test_compile_set_examples():
    m = compile_set([pat("ab"), pat("b+c")])
    assert m.match_set("abbc") == {0, 1}
    empty = compile_set([])
    assert empty.match_set("anything") == set()
    single = compile_set([pat("x")])
    assert single.match_set("yxz") == {0}
    assert single.match_set("yz") == set()


def test_match_set_derived_from_per_pattern_oracle():
    patterns = [pat("a.c"), pat("^b")]
    m = compile_set(patterns)
    assert m.match_set("bac") == match_set_bruteforce(patterns, "bac") == {1}
    assert m.match_set("baxc") == match_set_bruteforce(patterns, "baxc") == {0, 1}


def test_match_set_equals_union_random_sets():
    rng = random.Random(7)
    for _ in range(60):
        patterns = [random_pattern(rng, max_atoms=5) for _ in range(rng.randint(1, 8))]
        m = compile_set(patterns)
        for _ in range(10):
            s = random_subject(rng, max_len=12)
            assert m.match_set(s) == match_set_bruteforce(patterns, s)


def test_match_any_batch_matches_scalar_path():
    rng = random.Random(21)
    patterns = [random_pattern(rng, max_atoms=5) for _ in range(12)]
    subjects = [random_subject(rng) for _ in range(200)]
    m = compile_set(patterns)
    batch = m.match_any_batch(subjects)
    for s, got in zip(subjects, batch):
        assert bool(got) == (len(m.match_set(s)) > 0)


def test_single_shared_pass_over_input():
    # 1000 distinct literal patterns, one 64-char event: the combined
    # automaton touches each input position exactly once.
    rng = random.Random(3)
    patterns = []
    seen = set()
    while len(patterns) < 1000:
        text = "".join(rng.choice("abcdefgh") for _ in range(6))
        if text not in seen:
            seen.add(text)
            patterns.append(pat(text))
    m = compile_set(patterns)
    event = "".join(rng.choice("abcdefgh") for _ in range(64))
    cols, off, order = _kernels.time_major(*encode_many([event]))
    assert np.array_equal(cols, encode_many([event])[0]) and np.array_equal(off, np.arange(65))
    steps = list(_kernels.dfa_states(m.real_table(), cols, off))
    assert [len(s) for s in steps] == [1] * 64
    assert m.match_set(event) == match_set_bruteforce(patterns, event)


@all_join_paths
def test_capacity_error():
    patterns = [pat("abc"), pat("xyz"), pat("q.r")]
    with pytest.raises(CapacityError):
        compile_set(patterns, state_limit=3)
    # the limit is exact: a set that needs n states compiles with n, not n - 1
    patterns = [pat("^a.c"), pat("b?d*e+"), pat("x.y$"), pat("^q+z?$"), pat("..0")]
    m = compile_set(patterns)
    assert m.n_states > 10
    assert compile_set(patterns, state_limit=m.n_states).n_states == m.n_states
    with pytest.raises(CapacityError):
        compile_set(patterns, state_limit=m.n_states - 1)
    # exact-match entries: past the core state, rows overwrite only the
    # base states' ids for the symbols their atoms read
    entries = [exact_pattern(v) for v in ["abc.com", "abd.net", "x-y.org", "q0_9.io", "bca.co", "zzz.com"]]
    n = engine._subset_construction(entries, DEFAULT_STATE_LIMIT).n_states
    assert n > 30
    with mock.patch.object(engine, "_LEAF_PATTERNS", 2):
        for build in (engine._subset_construction, compile_set):
            assert build(entries, n).n_states == n
            with pytest.raises(CapacityError) as err:
                build(entries, n - 1)
            assert str(err.value) == f"combined automaton needs more than {n - 1} states"


def test_anchored_and_empty_matching_patterns_in_sets():
    patterns = [pat("^a*$"), pat("b?"), pat("^x"), pat("y$")]
    m = compile_set(patterns)
    for s in ["", "a", "aa", "b", "xy", "zy", "zx", "ba"]:
        assert m.match_set(s) == match_set_bruteforce(patterns, s), s


@all_kernel_paths
def test_kernel_paths_agree():
    # one batch of subjects with mixed lengths (including empty ones), so
    # short subjects are done while longer ones are still being read
    rng = random.Random(11)
    patterns = [random_pattern(rng, max_atoms=6) for _ in range(40)]
    subjects = [random_subject(rng) for _ in range(80)]
    assert len({len(s) for s in subjects}) > 5 and "" in subjects
    codes, loop, skip, offs, flags = pack_patterns(patterns)
    scodes, s_off = encode_many(subjects)

    matrix = _kernels.nfa_match_matrix(codes, loop, skip, offs, flags, scodes, s_off)
    expected = np.array([[backtrack_match(p, s) for s in subjects] for p in patterns])
    assert np.array_equal(matrix, expected)
    any_hit = _kernels.nfa_match_any(codes, loop, skip, offs, flags, scodes, s_off)
    assert np.array_equal(any_hit, matrix.any(axis=1))

    m = compile_set(patterns)
    dfa = _kernels.dfa_match_any(m._table, m._hit_run, m._hit_end, scodes, s_off)
    assert np.array_equal(dfa, matrix.any(axis=0))

    # the shared layout: strings longest first, time-major, one entry per
    # character and no padding; the strings still being read at step t are
    # a prefix of the sorted ones
    cols, off, order = _kernels.time_major(scodes, s_off)
    lengths = [len(subjects[i]) for i in order]
    assert sorted(order.tolist()) == list(range(len(subjects)))
    assert lengths == sorted(lengths, reverse=True)
    assert len(cols) == off[-1] == sum(lengths)
    live = np.diff(off).tolist()
    assert live == [sum(n > t for n in lengths) for t in range(max(lengths))]
    for j, i in enumerate(order):
        assert [int(cols[off[t] + j]) for t in range(lengths[j])] == encode_many([subjects[i]])[0].tolist()

    # the shared scan: each step yields the live strings' states, so a
    # string's walk is state 0 and then one state per character it reads,
    # equal to stepping the table by hand; an empty string stays in state 0
    walks = [[0] for _ in subjects]
    trans = m.real_table()
    steps = list(_kernels.dfa_states(trans, cols, off))
    assert [len(states) for states in steps] == live
    for states in steps:
        for j, state in enumerate(states.tolist()):
            walks[order[j]].append(state)
    for walk, s in zip(walks, subjects):
        state, expected = 0, [0]
        for c in encode_many([s])[0]:
            state = int(trans[state, c])
            expected.append(state)
        assert walk == expected, s
    for s in subjects:
        assert m.match_set(s) == match_set_bruteforce(patterns, s), s


def _golden_patterns():
    """300 fixed patterns: the full alphabet, wildcards, all three
    quantifiers, both anchors and a few long exact-match patterns."""
    rng = random.Random(20261018)
    quants = [Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE, Quant.ONE_OR_MORE]
    patterns = []
    for i in range(300):
        if i % 60 == 0:
            text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(40, 70)))
            patterns.append(atom_pattern([Atom(c) for c in text], True, True))
            continue
        atoms = []
        for _ in range(rng.randint(2, 6)):
            r = rng.random()
            if r < 0.02:
                atoms.append(Atom(None))
            elif r < 0.07:
                atoms.append(Atom(rng.choice(ALPHABET), rng.choice(quants)))
            else:
                atoms.append(Atom(rng.choice(ALPHABET)))
        if all(a.is_any for a in atoms):
            atoms[0] = Atom(rng.choice(ALPHABET))
        patterns.append(atom_pattern(atoms, rng.random() < 0.2, rng.random() < 0.2))
    return patterns


def test_golden_automaton():
    # n_states and digest were recorded from the set-based subset
    # construction; any rewrite of compile_set must reproduce them
    patterns = _golden_patterns()
    atoms = [a for p in patterns for a in p.atoms]
    assert {a.quant for a in atoms} == set(Quant) and any(a.is_any for a in atoms)
    assert {a.char for a in atoms} >= set(ALPHABET)
    assert any(p.anchored_start and not p.anchored_end for p in patterns)
    assert any(p.anchored_end and not p.anchored_start for p in patterns)
    m = compile_set(patterns)
    assert m.n_states == 2110
    assert _digest(m) == "39f4be09ca218394bf7dbc7cfd4f27110ef2cf5981cc65d097009c817c84162f"
    # shared across threads: no array the matcher holds can be written
    arrays = (m._table, m._run_rows, m.real_table(), m._run_off, m._run_pid, m._end_off, m._end_pid, m._hit_run, m._hit_end)
    for arr in arrays:
        assert not arr.flags.writeable


def _digest(m):
    h = hashlib.sha256()
    for arr in (m.real_table().astype("<i4"), m._hit_run, m._hit_end):
        h.update(arr.tobytes())
    run_ids, end_ids = state_ids(m._run_off, m._run_pid), state_ids(m._end_off, m._end_pid)
    # () stands where the always-matching ids were hashed when the
    # automaton kept them apart; both golden sets have none
    h.update(repr((run_ids, end_ids, ())).encode())
    return h.hexdigest()


def _large_golden_patterns():
    """1500 fixed distinct patterns, two in three of them exact-match
    entries and the rest random: quantified literals, wildcards and
    anchors."""
    rng = random.Random(20261019)
    quants = [Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE, Quant.ONE_OR_MORE]
    letters = ALPHABET[:36]
    patterns = []
    seen = set()
    while len(patterns) < 1500:
        if len(patterns) % 3 != 0:
            p = exact_pattern("".join(rng.choice(ALPHABET) for _ in range(rng.randint(4, 9))))
        else:
            atoms = []
            for _ in range(rng.randint(3, 7)):
                r = rng.random()
                if r < 0.04:
                    atoms.append(Atom(None))
                elif r < 0.10:
                    atoms.append(Atom(rng.choice(ALPHABET), rng.choice(quants)))
                else:
                    atoms.append(Atom(rng.choice(letters)))
            if all(a.is_any for a in atoms):
                atoms[0] = Atom(rng.choice(letters))
            p = atom_pattern(atoms, rng.random() < 0.15, rng.random() < 0.15)
        if p not in seen:
            seen.add(p)
            patterns.append(p)
    return patterns


@all_join_paths
def test_golden_automaton_above_leaf_size():
    # recorded from one subset construction over the whole list; the
    # list is long enough that compile_set builds it as a join tree
    patterns = _large_golden_patterns()
    assert len(patterns) > 2 * engine._LEAF_PATTERNS
    atoms = [a for p in patterns for a in p.atoms]
    assert {a.quant for a in atoms} == set(Quant) and any(a.is_any for a in atoms)
    assert any(p.anchored_start != p.anchored_end for p in patterns)
    m = compile_set(patterns)
    assert m.n_states == 13167
    assert _digest(m) == "6681b0f7cc066fb3d9c79ab0b545b9e23927b4f3b56010d9f46bfb2aa287d0e2"


def _assert_stored_form(m):
    """The stored table is the real one with every run-accepting row
    pointing to its own state, and ``_run_rows`` holds those rows."""
    trans, run = m.real_table(), np.flatnonzero(m._hit_run)
    assert m._table.dtype == m._run_rows.dtype == np.int32
    assert m._run_rows.shape == (len(run), N_SYMBOLS)
    assert np.array_equal(m._run_rows, trans[run])
    assert (m._table[run] == run[:, None]).all()
    assert np.array_equal(m._table[~m._hit_run], trans[~m._hit_run])
    assert np.array_equal(m._trans, trans)  # the name perfbench's tracer reads
    if not len(run):
        assert trans is m._table


def test_stored_table_loops_run_accepting_rows():
    # one leaf, a join tree with a literal trie split off, a trie with
    # no run accept, and a set whose every state accepts anywhere
    golden, large = compile_set(_golden_patterns()), compile_set(_large_golden_patterns())
    exact = compile_set([exact_pattern(v) for v in ["abc", "abd", "x0"]])
    always = compile_set([pat("a*"), pat("b0$")])
    for m in (golden, large, exact, always):
        _assert_stored_form(m)
    assert golden._hit_run.sum() > 0 and large._hit_run.sum() > 0
    assert not exact._hit_run.any()
    assert always._hit_run.all() and (always._table == np.arange(always.n_states)[:, None]).all()


@all_kernel_paths
def test_match_many_matrix_shape_and_content():
    patterns = [pat("ab"), pat("^z")]
    values = ["ab", "zebra", "none"]
    got = match_many(patterns, values)
    assert got.shape == (2, 3)
    assert got.tolist() == [[True, False, False], [False, True, False]]



def _witness(pattern, rng):
    """A string the pattern matches once its anchors are honoured."""
    repeats = {Quant.ONE: (1, 1), Quant.ZERO_OR_ONE: (0, 1),
               Quant.ZERO_OR_MORE: (0, 2), Quant.ONE_OR_MORE: (1, 2)}
    out = []
    for atom in pattern.atoms:
        ch = rng.choice("ab01") if atom.is_any else atom.char
        out.append(ch * rng.randint(*repeats[atom.quant]))
    return "".join(out)


@all_kernel_paths
def test_kernels_on_multiword_and_multichunk_batches():
    rng = random.Random(17)
    patterns = [
        pat("".join(rng.choice("ab01-_c") for _ in range(100))),  # over 64 atoms
        pat("^a?b?c?$"), pat("a?b?c?"), pat("^a?b?c?d"), pat("x*a?b?c?$"),
        pat("^" + "a" * 60 + "b?c?d$"),
    ]
    # more than 4096 atoms, laid out and packed in one pass
    while sum(len(p.atoms) for p in patterns) <= 4096 + 200:
        patterns.append(random_pattern(rng, max_atoms=8))
    codes, loop, skip, offs, flags = pack_patterns(patterns)
    straddle = [p for p in range(len(patterns))
                if offs[p] // 64 != (offs[p + 1] - 1) // 64 and offs[p + 1] - offs[p] < 64]

    subjects = ["", "", "a", "bc", "abc", "abcd", "xxab", "d", "zabcd", "c.b"]
    for p in straddle + list(range(0, len(patterns), 25)):
        w = _witness(patterns[p], rng)
        subjects += [w, "zz" + w + "00"]
    subjects += [random_subject(rng) for _ in range(10)]
    scodes, s_off = encode_many(subjects)

    matrix = _kernels.nfa_match_matrix(codes, loop, skip, offs, flags, scodes, s_off)
    expected = np.array([[backtrack_match(p, s) for s in subjects] for p in patterns])
    assert expected[straddle].any(axis=1).sum() >= 5, "straddling patterns must match"
    assert expected[len(patterns) // 2 :].any()
    assert np.array_equal(matrix, expected)
    any_hit = _kernels.nfa_match_any(codes, loop, skip, offs, flags, scodes, s_off)
    assert np.array_equal(any_hit, matrix.any(axis=1))


def _match_bits(words, last):
    """Bit ``last[p]`` of string j's match words, read one at a time, as
    a (patterns x strings) bool matrix."""
    cells = [[int(row[b // 64]) >> (b % 64) & 1 for row in words] for b in last.tolist()]
    return np.array(cells, dtype=bool).reshape(len(last), len(words))


@all_kernel_paths
def test_kernels_on_an_empty_pattern_list():
    # no pattern: no match words, no last bits and no hits, whatever the strings
    codes, loop, skip, offs, flags = pack_patterns([])
    scodes, s_off = encode_many(["ab", "", "xaby"])
    for n_rows in (0, 2, 3):
        words, last, hit = _kernels.nfa_match_split(codes, loop, skip, offs, flags, scodes, s_off, n_rows)
        assert words.shape == (n_rows, 0) and last.shape == (0,) and hit.shape == (0,)
    assert _kernels.nfa_match_matrix(codes, loop, skip, offs, flags, scodes, s_off).shape == (0, 3)
    assert _kernels.nfa_match_any(codes, loop, skip, offs, flags, scodes, s_off).shape == (0,)


@all_kernel_paths
def test_kernels_at_word_boundaries():
    # patterns of 64, 65 and 130 atoms, anchored at either end, with
    # short patterns: the word layout keeps every pattern of at
    # most 64 atoms inside one word, so only the longer ones need the
    # carry from word to word, in the step and in the skip closure
    rng = random.Random(64)

    def literal(n):
        return "".join(rng.choice("ab01") for _ in range(n))

    # atoms 60..69 may be skipped: the run straddles the first word boundary
    skippable = literal(60) + "".join(c + "?" for c in literal(10)) + literal(60)
    long = [literal(64), literal(65), literal(130), skippable]
    patterns = [pat(a + t + b) for t in long for a, b in (("^", ""), ("", "$"))]
    patterns += [random_pattern(rng, max_atoms=3) for _ in range(40)]
    rng.shuffle(patterns)
    codes, loop, skip, offs, flags = pack_patterns(patterns)
    assert sorted(len(p.atoms) for p in patterns)[-8:] == [64, 64, 65, 65, 130, 130, 130, 130]

    bit, n_words = _kernels._word_layout(offs)
    assert len(set(bit.tolist())) == len(bit) and bit.max() < 64 * n_words
    for p in range(len(patterns)):
        own = bit[offs[p] : offs[p + 1]]
        assert np.array_equal(own, own[0] + np.arange(len(own)))
        if len(own) <= 64:
            assert own[0] // 64 == own[-1] // 64, patterns[p].text
        else:
            assert own[0] % 64 == 0, patterns[p].text

    subjects = ["", "a", "ab", "0b1"]
    for t in long[:3]:
        subjects += [t, "z" + t, t + "z", t[:-1], t[1:]]
        # one character changed on either side of each word boundary
        for i in (62, 63, 64, 65, 127, 128):
            if i < len(t):
                subjects.append(t[:i] + "_" + t[i + 1 :])
    head, run, tail = skippable[:60], skippable[60:80:2], skippable[80:]
    subjects += [head + run + tail, head + tail, head + run[:3] + run[6:] + tail,
                 "x" + head + run[:4] + tail + "x", head + run[1:] + tail]
    scodes, s_off = encode_many(subjects)

    expected = np.array([[backtrack_match(p, s) for s in subjects] for p in patterns])
    assert expected[[len(p.atoms) >= 64 for p in patterns]].any(axis=1).all()
    matrix = _kernels.nfa_match_matrix(codes, loop, skip, offs, flags, scodes, s_off)
    assert np.array_equal(matrix, expected)
    for n_rows in (0, 7, len(subjects)):
        words, last, hit = _kernels.nfa_match_split(codes, loop, skip, offs, flags, scodes, s_off, n_rows)
        assert np.array_equal(_match_bits(words, last), expected[:, :n_rows])
        assert np.array_equal(hit, expected[:, n_rows:].any(axis=1))


def test_kernels_step_string_batches_with_every_pattern_at_once():
    # every pattern is stepped at once, a 70-atom one among them, over
    # the length-sorted strings in batches of at most _BATCH_CELLS
    # string x atom cells; a small bound makes batches of two strings
    rng = random.Random(256)
    patterns = [pat("^" + "".join(rng.choice("ab01") for _ in range(70)))]
    patterns += [random_pattern(rng, max_atoms=6) for _ in range(40)]
    codes, loop, skip, offs, flags = pack_patterns(patterns)

    def filler(n):
        return "".join(rng.choice("ab01-_c") for _ in range(n))

    subjects = [random_subject(rng) for _ in range(30)] + [""]
    for p in rng.sample(range(len(patterns)), 6) + [0]:
        w = _witness(patterns[p], rng)
        subjects += [w + filler(rng.randint(14, 30)), filler(rng.randint(14, 30)) + w]
    rng.shuffle(subjects)
    scodes, s_off = encode_many(subjects)
    expected = np.array([[backtrack_match(p, s) for s in subjects] for p in patterns])
    assert expected.any(axis=1).sum() >= 20 and expected[0].any()

    steps = []
    simulate = _kernels._simulate

    def recorded(packed, cols, bounds, s0, s1):
        steps.append((s0, s1))
        return simulate(packed, cols, bounds, s0, s1)

    with mock.patch.multiple(_kernels, _BATCH_CELLS=2 * int(offs[-1]), _SMALL_CELLS=0, _simulate=recorded):
        assert len(_kernels._pack(codes, loop, skip, offs, flags)[0]) == len(patterns)
        matrix = _kernels.nfa_match_matrix(codes, loop, skip, offs, flags, scodes, s_off)
        assert steps == [(s0, min(s0 + 2, len(subjects))) for s0 in range(0, len(subjects), 2)]
        assert np.array_equal(matrix, expected)
        for n_rows in (0, 9, len(subjects)):
            words, last, hit = _kernels.nfa_match_split(codes, loop, skip, offs, flags, scodes, s_off, n_rows)
            assert np.array_equal(_match_bits(words, last), expected[:, :n_rows])
            assert np.array_equal(hit, expected[:, n_rows:].any(axis=1))


_ATOMS = st.one_of(
    st.builds(Atom, st.sampled_from("ab0."), st.sampled_from(list(Quant))),
    st.just(Atom(None)),
)
_PATTERNS = st.builds(
    atom_pattern,
    st.lists(_ATOMS, min_size=1, max_size=6).filter(lambda a: not all(x.is_any for x in a)),
    st.booleans(),
    st.booleans(),
)
# 'X' is outside the event alphabet
_SUBJECTS = st.text(alphabet="ab0.X", max_size=10)


# atom slots run well past one 64-bit word: 20 patterns over 129 slots,
# every one of them matched by some subject
_WIDE_PATTERNS = [
    pat(t)
    for t in [
        "a?b*0.ab", "b+a?0ab0", "0*b.ab0a", "a.b?0*ba", "ba0?b+a.", "00a*b.0b", "b.0*a?ba",
        "a+0b?.ab", "0b*a.b0a", "a\\.b0?ab", "b?a?0+ba", "ab.0a*b0", "0.a?bb0a", "^ab?0.ab",
        "b0a.a+0b", "a*0*b.0a", "0a.b?ba0", "bb0+a.ba", "a0.b*0ab$", "0?0?b.a.b",
    ]
]
_WIDE_SUBJECTS = [
    "", "X", "b0aab", "bb0ab0", "b0baab0a", "bab0ba", "bba0bba0", "b00aba0b", "bba00aba",
    "ab0bab", "Xaa0b0ab", "b0aaaa0b0", "0ba0a0", "0abba00", "bb0aaba0", "a.bab", "ab00b0", "00abb0a",
]
_LONG_EXACT = "ab0." * 17 + "ba"
# the same layout with no repeating atom (literals, '?' and wildcards only),
# so the step leaves out its repeat term: 20 patterns over 131 slots
_WIDE_NO_REPEAT = [
    pat(t)
    for t in [
        "a?b0.ab", "b.a?0ab0", "0b?.ab0a", "a.b?0ba", "ba0?b.a.", "00a?b.0b", "b.0?a?ba",
        "a0b?.ab", "0b?a.b0a", "a\\.b0?ab", "b?a?0ba", "ab.0a?b0", "0.a?bb0a", "^ab?0.ab",
        "b0a.a0?b", "a?0?b.0a", "0a.b?ba0", "bb0?a.ba", "a0.b?0ab$", "0?0?b.a.b",
    ]
]


@PROPERTY
@given(st.lists(_PATTERNS, max_size=8), st.lists(_SUBJECTS, max_size=8))
@example(_WIDE_PATTERNS, _WIDE_SUBJECTS)
@example(_WIDE_NO_REPEAT, _WIDE_SUBJECTS)
@example([exact_pattern(_LONG_EXACT)], [_LONG_EXACT, "a" + _LONG_EXACT, _LONG_EXACT[:-1]])
@all_kernel_paths
def test_match_many_and_match_set_agree_with_oracle(patterns, subjects):
    got = match_many(patterns, subjects)
    assert got.tolist() == [[backtrack_match(p, s) for s in subjects] for p in patterns]
    matcher = compile_set(patterns)
    for j, s in enumerate(subjects):
        assert set(np.flatnonzero(got[:, j]).tolist()) == matcher.match_set(s)


# mixed-length batches for the unpadded layout: short subjects, empty ones
# among them, with non-ASCII characters ('é' is two UTF-8 bytes, the
# emoji four), and one outlier at least ten times longer than the rest
_SHORT_PATTERNS = st.builds(
    atom_pattern,
    st.lists(_ATOMS, min_size=1, max_size=4).filter(lambda a: not all(x.is_any for x in a)),
    st.booleans(),
    st.booleans(),
)
_MIXED_CHARS = "ab0.Xé😀"
_MIXED_BATCHES = st.builds(
    lambda short, outlier, at: short[:at] + [outlier] + short[at:] + [""],
    st.lists(st.text(alphabet=_MIXED_CHARS, max_size=4), max_size=8),
    st.text(alphabet=_MIXED_CHARS, min_size=40, max_size=48),
    st.integers(0, 8),
)


@PROPERTY
@given(st.lists(_SHORT_PATTERNS, min_size=1, max_size=6), _MIXED_BATCHES)
# always-matching sets: a? matches anywhere, through state 0's run flag,
# and 0*$ at the end, through the last state's end flag, also on empty
# subjects and on ones that hold no alphabet character
@example([pat("a?")], ["", "é", "😀é", "Xb", "a"])
@example([pat("0*$")], ["", "é", "😀é", "Xb", "a0"])
@all_kernel_paths
def test_kernels_agree_with_oracle_on_mixed_length_batches(patterns, subjects):
    expected = [[backtrack_match(p, s) for s in subjects] for p in patterns]
    assert match_many(patterns, subjects).tolist() == expected
    m = compile_set(patterns)
    columns = range(len(subjects))
    assert m.match_any_batch(subjects).tolist() == [any(row[j] for row in expected) for j in columns]
    for j, s in enumerate(subjects):
        assert m.match_set(s) == {i for i, row in enumerate(expected) if row[j]}


# patterns over more than 64 atoms, with a string each matches
_LONG_PATTERNS = st.builds(
    atom_pattern,
    st.lists(_ATOMS, min_size=65, max_size=80),
    st.booleans(),
    st.booleans(),
).filter(lambda p: not all(a.is_any for a in p.atoms))


@PROPERTY
@given(
    st.lists(_PATTERNS, max_size=8),
    _LONG_PATTERNS,
    st.integers(0, 8),
    st.lists(st.text(alphabet=_MIXED_CHARS, max_size=10), max_size=8),
)
@example(_WIDE_PATTERNS, pat("ab" * 40), 3, _WIDE_SUBJECTS)
@example(_WIDE_NO_REPEAT, pat("^" + _LONG_EXACT + "$"), 20, ["", _LONG_EXACT, "X" + _LONG_EXACT])
def test_word_and_int_paths_give_the_same_bits(patterns, long, at, subjects):
    patterns = patterns[:at] + [long] + patterns[at:]
    # a string the long pattern matches (each atom once, 'a' for a
    # wildcard), itself and inside others
    witness = "".join(a.char or "a" for a in long.atoms)
    assert backtrack_match(long, witness)
    subjects = subjects + [witness, "X" + witness + "é", witness[1:]]
    packed = pack_patterns(patterns)
    strings = encode_many(subjects)
    for n_rows in range(len(subjects) + 1):
        results = []
        for patch in KERNEL_PATHS:
            with mock.patch.multiple(_kernels, **patch):
                words, last, hit = _kernels.nfa_match_split(*packed, *strings, n_rows)
            results.append((_kernels.bits_at(words, last).tolist(), hit.tolist()))
        assert results[1:] == results[:-1], n_rows


# fixed-length unanchored patterns of 1-6 atoms, literals and wildcards
# only, so a wildcard may sit at either end
_FIXED_PATTERNS = st.builds(
    atom_pattern,
    st.lists(
        st.one_of(st.builds(Atom, st.sampled_from("ab0.")), st.just(Atom(None))), min_size=1, max_size=6
    ).filter(lambda a: not all(x.is_any for x in a)),
)


@PROPERTY
@given(
    st.lists(_FIXED_PATTERNS, min_size=1, max_size=70),
    st.lists(st.text(alphabet=_MIXED_CHARS, max_size=10), max_size=8),
    st.integers(1, 80),
)
# strings shorter than every pattern, empty ones among them, and a
# wildcard at either end
@example([pat("..ab"), pat("ab.."), pat("a.0."), pat("0..b")], ["", "a", "ab0", "", "zab00", "éab.."], 8)
@example([pat(".a"), pat("a."), pat("b")], ["a", "Xa", "aX", "éa", "a😀", "ba", ""], 1)
def test_window_kernel_agrees_with_oracle_and_word_layout(patterns, subjects, chunk_bytes):
    # chunks of at most 10 windows (a 64-bit word is 8 bytes), so chunks
    # end inside strings; the word path steps _simulate on the same call
    packed = pack_patterns(patterns)
    strings = encode_many(subjects)
    expected = np.array([[backtrack_match(p, s) for s in subjects] for p in patterns])
    simulate = mock.Mock(wraps=_kernels._simulate)
    for n_rows in range(len(subjects) + 1):
        with mock.patch.object(_kernels, "_WINDOW_BYTES", chunk_bytes):
            words, last, hit = _kernels._match_windows(*packed, *strings, n_rows)
        assert np.array_equal(last, np.arange(len(patterns)))
        assert np.array_equal(_match_bits(words, last), expected[:, :n_rows])
        assert np.array_equal(hit, expected[:, n_rows:].any(axis=1))
        with mock.patch.object(_kernels, "_simulate", simulate):
            by_words, by_words_last, by_words_hit = _kernels._match_words(*packed, *strings, n_rows)
        assert np.array_equal(_kernels.bits_at(by_words, by_words_last), _kernels.bits_at(words, last))
        assert np.array_equal(by_words_hit, hit)
    assert simulate.call_count == (len(subjects) + 1 if subjects else 0)


def test_window_route_needs_fixed_length_unanchored_patterns():
    # above _SMALL_CELLS, 40 literals of 2-4 atoms read windows, and so
    # does a lone 69-atom literal; an anchor or a quantifier sends them
    # to the word layout
    rng = random.Random(3)
    short = [pat("".join(rng.choice("ab01") for _ in range(rng.randint(2, 4)))) for _ in range(40)]
    subjects = ["".join(rng.choice("ab01c") for _ in range(40)) for _ in range(400)]
    cases = [(short, 1), ([pat("ab01" * 17 + "a")], 1), (short + [pat("^ab")], 0), (short + [pat("a?b")], 0)]
    for patterns, windows in cases:
        packed = pack_patterns(patterns)
        strings = encode_many(subjects)
        assert int(strings[1][-1]) * 64 >= _kernels._SMALL_CELLS
        with mock.patch.object(_kernels, "_match_windows", wraps=_kernels._match_windows) as route:
            words, last, hit = _kernels.nfa_match_split(*packed, *strings, 200)
        assert route.call_count == windows, [p.text for p in patterns[-1:]]
        expected = np.array([[backtrack_match(p, s) for s in subjects] for p in patterns])
        assert np.array_equal(_kernels.bits_at(words, last).T, expected[:, :200])
        assert np.array_equal(hit, expected[:, 200:].any(axis=1))


# every atom the grammar allows: all of the alphabet (the literal '.'
# included) under each quantifier, and the wildcard
_ANY_ATOMS = st.one_of(
    st.builds(Atom, st.sampled_from(ALPHABET), st.sampled_from(list(Quant))),
    st.just(Atom(None)),
)
_ANY_PATTERNS = st.builds(
    atom_pattern,
    st.lists(_ANY_ATOMS, min_size=1, max_size=8).filter(lambda a: not all(x.is_any for x in a)),
    st.booleans(),
    st.booleans(),
)


@PROPERTY
@given(st.lists(_ANY_PATTERNS, max_size=12))
def test_pack_patterns_matches_per_atom_packer(patterns):
    got = pack_patterns(patterns)
    want = pack_patterns_per_atom(patterns)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@st.composite
def pattern_runs(draw):
    """Patterns and a run ``p0:p1`` of them that need not start at slot 0."""
    patterns = draw(st.lists(_ANY_PATTERNS, min_size=1, max_size=12))
    p0 = draw(st.integers(0, len(patterns) - 1))
    return patterns, p0, draw(st.integers(p0 + 1, len(patterns)))


@PROPERTY
@given(pattern_runs())
@example(([pat("a.b"), pat("^.\\.?x*$"), pat("z+.0")], 1, 3))
def test_shift_and_table_is_the_code_compare(run):
    # symbol c reads the atoms whose code is c, and the wildcard reads
    # every alphabet symbol and never CODE_OTHER
    patterns, p0, p1 = run
    codes, loop, skip, off, flags = pack_patterns(patterns)
    table = _kernels.shift_and_masks(codes, loop, skip, off[p0 : p1 + 1], flags[p0:p1]).rows[:N_SYMBOLS]
    pcodes = codes[off[p0] : off[p1]]
    sym = np.arange(N_SYMBOLS)[:, None]
    assert table.dtype == bool
    assert np.array_equal(table, (pcodes == sym) | ((pcodes == N_SYMBOLS) & (sym != CODE_OTHER)))
    assert not table[CODE_OTHER].any()
    assert table[:CODE_OTHER, pcodes == N_SYMBOLS].all()


# patterns whose every atom may be skipped match the empty string, so an
# unanchored one is in every state's accepts
_EMPTY_MATCHING = st.builds(
    atom_pattern,
    st.lists(
        st.builds(Atom, st.sampled_from(ALPHABET), st.sampled_from([Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE])),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
    st.booleans(),
)


# unanchored patterns whose first atom may be skipped: the core state makes
# their second atom live, so every state reads its symbols
_LIVE_EVERYWHERE = st.builds(
    lambda first, rest, end: atom_pattern([first, *rest], False, end),
    st.builds(Atom, st.sampled_from(ALPHABET), st.sampled_from([Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE])),
    st.lists(_ANY_ATOMS, min_size=1, max_size=3),
    st.booleans(),
)


# two 1,000-character exact values that share 999 characters: each level
# of their join meets one new pair, so the sorted keys take a thousand
# merges and the base's trie a thousand slots; 1,002 x 1,002 pairs are
# within the dense table's bound
_STEM = "".join(random.Random(3).choices(ALPHABET, k=999))
_TWIN_CHAINS = [exact_pattern(_STEM + "a"), exact_pattern(_STEM + "b")]

# a pattern list and a point to split it at, empty halves included
_SPLIT_LISTS = st.lists(st.one_of(_ANY_PATTERNS, _EMPTY_MATCHING, _LIVE_EVERYWHERE), max_size=12).flatmap(
    lambda ps: st.tuples(st.just(ps), st.integers(0, len(ps)))
)


@PROPERTY
@given(_SPLIT_LISTS)
@example(([], 0))
@example(([pat("a?"), pat("^b.c"), pat("0*$")], 0))
@example(([pat("a?"), pat("^b.c"), pat("0*$")], 3))
# always-matching patterns on both sides; more than ten states
@example(([pat("^a.c"), pat("b?d*e+"), pat("x?"), pat("x.y$"), pat("^q+z?$"), pat("..0"), pat("y*")], 3))
# every state reads b (the core holds a? of a?b), so b's base state is the
# core state's successor on b: the always-live atom in the base, then in
# the addition, each with an anchored state 0 on the other side, then in
# both halves
@example(([pat("a?b"), pat("b"), pat("^c")], 2))
@example(([pat("^c"), pat("a?b"), pat("b")], 1))
@example(([pat("a?b"), pat("^c"), pat("b")], 1))
@example((_TWIN_CHAINS, 1))
@all_join_paths
def test_extend_set_equals_compile_set(case):
    patterns, split = case
    head, tail = patterns[:split], patterns[split:]
    want = compile_set(patterns)
    n = want.n_states
    got = extend_set(compile_set(head), compile_set(tail), n)
    assert automaton_fields(got) == automaton_fields(want)
    assert got.n_patterns == want.n_patterns == len(patterns)
    # one state short, extend_set fails exactly when compile_set does
    # (a one-state automaton fits any limit), with the same message
    try:
        compile_set(patterns, n - 1)
    except CapacityError as exc:
        with pytest.raises(CapacityError) as err:
            extend_set(compile_set(head), compile_set(tail), n - 1)
        assert str(err.value) == str(exc)
    else:
        assert n == 1
        got = extend_set(compile_set(head), compile_set(tail), n - 1)
        assert automaton_fields(got) == automaton_fields(want)


@PROPERTY
@given(st.lists(st.one_of(_ANY_PATTERNS, _EMPTY_MATCHING), max_size=12), st.integers(1, 3))
@example([pat("^a.c"), pat("b?d*e+"), pat("x?"), pat("x.y$"), pat("^q+z?$"), pat("..0"), pat("y*")], 1)
@all_join_paths
def test_compile_tree_equals_single_construction(patterns, leaf):
    # patched here, not in a fixture: Hypothesis reruns the body per example
    with mock.patch.object(engine, "_LEAF_PATTERNS", leaf):
        want = engine._subset_construction(patterns, DEFAULT_STATE_LIMIT)
        assert automaton_fields(compile_set(patterns)) == automaton_fields(want)
        # one state short, the tree fails exactly when the single
        # construction does, with the same message
        limit = want.n_states - 1
        try:
            engine._subset_construction(patterns, limit)
        except CapacityError as exc:
            with pytest.raises(CapacityError) as err:
                compile_set(patterns, limit)
            assert str(err.value) == str(exc)
        else:
            assert want.n_states == 1
            assert automaton_fields(compile_set(patterns, limit)) == automaton_fields(want)


# always-matching patterns make state 0, and so every state, run-accepting
_ALWAYS_OR_AT_END = st.sampled_from([pat("a*"), pat("^0?"), pat("b*$"), pat("a0$"), pat("^ab$")])


@PROPERTY
@given(
    st.lists(st.one_of(_PATTERNS, _EMPTY_MATCHING, _ALWAYS_OR_AT_END), max_size=8),
    st.lists(st.text(alphabet="ab0.Xé", max_size=12), max_size=10),
    st.integers(1, 3),
)
@example([pat("a*")], ["", "X", "ba0"], 1)
@example([pat("a0$"), pat("^ab"), pat("b.0")], ["a0", "a0b", "ab0X", "Xa0", "bX0", ""], 1)
def test_label_scan_agrees_with_oracle(patterns, subjects, leaf):
    subjects = subjects + [""]
    with mock.patch.object(engine, "_LEAF_PATTERNS", leaf):
        m = compile_set(patterns)
    _assert_stored_form(m)
    want = [bool(match_set_bruteforce(patterns, s)) for s in subjects]
    assert m.match_any_batch(subjects).tolist() == want


@st.composite
def _start_literals(draw):
    """A non-empty list of start-anchored literal patterns, either end
    anchor: words over four symbols share prefixes, and prefixes of the
    drawn words (the whole word, a duplicate, among them) are added."""
    words = draw(st.lists(st.text(alphabet="ab0.", min_size=1, max_size=6), min_size=1, max_size=10))
    cuts = draw(st.lists(st.tuples(st.sampled_from(words), st.integers(1, 6)), max_size=4))
    words = draw(st.permutations(words + [word[:n] for word, n in cuts]))
    return [Pattern(word, True, draw(st.booleans())) for word in words]


# a 2,000-character chain whose tail starts where two siblings branch off
# the same parent as it does: listed last, on the lowest symbol, its nodes
# take the first id of each depth below
_CHAIN_SIBLINGS = [pat("^a\\.ef$"), pat("^a0c"), pat("^ab" + "0a" * 1000)]


@PROPERTY
@given(_start_literals())
@example(_CHAIN_SIBLINGS)
@example([pat("^ab$"), pat("^a"), pat("^a0b"), pat("^a\\.")])  # all start with a: the core state's id moves
@example([pat("^b0"), pat("^b0$"), pat("^b0"), pat("^0")])  # duplicates, by string and with either end anchor
def test_trie_leaf_equals_subset_construction(patterns):
    want = engine._subset_construction(patterns, DEFAULT_STATE_LIMIT)
    got = engine._trie_construction(patterns, DEFAULT_STATE_LIMIT)
    assert automaton_fields(got) == automaton_fields(want)
    assert got.n_patterns == want.n_patterns == len(patterns)
    # one state short, both fail with the same message
    messages = set()
    for build in (engine._subset_construction, engine._trie_construction):
        with pytest.raises(CapacityError) as err:
            build(patterns, want.n_states - 1)
        messages.add(str(err.value))
    assert messages == {f"combined automaton needs more than {want.n_states - 1} states"}


def _is_tree(trans, core):
    """Whether no entry leads to state 0, each state other than state 0
    and ``core`` has one entry leading to it, and ``core``'s row is all
    ``core``: the table's states other than the core are each reached by
    one string."""
    into = np.bincount(trans[trans != core], minlength=len(trans))
    return into[0] == 0 and (np.delete(into, [0, core]) == 1).all() and (trans[core] == core).all()


@PROPERTY
@given(_start_literals())
@example([pat("^a")])  # a single pattern
@example([pat("^ab$"), pat("^ab"), pat("^ab$")])  # one string, twice with the end anchor
@example(_CHAIN_SIBLINGS)
def test_trie_core_finds_the_core_of_every_trie(patterns):
    trans = engine._trie_construction(patterns, DEFAULT_STATE_LIMIT).real_table()
    core = int(trans[0, CODE_OTHER])
    assert engine._trie_core(trans) == core
    assert _is_tree(trans, core)


@pytest.mark.parametrize(
    "patterns",
    [
        [pat("^a*")],  # a loop
        [pat("^a?b")],  # a state reached from two parents
        [pat("ab$")],  # unanchored at the start: state 0 is the core, which every string reaches
        [pat("^ab"), pat("b")],  # b's state is reached from every state
        [],  # one state
    ],
)
def test_trie_core_rejects_automata_that_are_not_trees(patterns):
    trans = compile_set(patterns).real_table()
    assert engine._trie_core(trans) is None
    assert len(trans) == 1 or not _is_tree(trans, int(trans[0, CODE_OTHER]))


@PROPERTY
@given(st.lists(st.one_of(_ANY_PATTERNS, _EMPTY_MATCHING, _start_literals().map(lambda ps: ps[0])), max_size=6))
@example([pat("^b"), pat("a*")])  # an always-matching pattern beside a literal: still a tree
def test_trie_core_returns_a_core_exactly_for_trees(patterns):
    trans = compile_set(patterns).real_table()
    core = int(trans[0, CODE_OTHER])
    tree = core != 0 and _is_tree(trans, core)
    assert engine._trie_core(trans) == (core if tree else None)


_LITERAL_LEAF = [pat("^ab0"), pat("^b\\.c$"), pat("^ab")]


@pytest.mark.parametrize(
    "patterns, trie",
    [
        (_LITERAL_LEAF, True),
        (_LITERAL_LEAF + [pat("^ab$")], True),
        (_LITERAL_LEAF + [pat("ab")], False),  # unanchored
        (_LITERAL_LEAF + [pat("ab$")], False),  # anchored at the end only
        (_LITERAL_LEAF + [pat("^a.b")], False),  # a wildcard
        (_LITERAL_LEAF + [pat("^ab?")], False),  # a quantifier
        ([], False),  # driftsig bench --pattern-counts 0
    ],
)
def test_compile_set_builds_a_leaf_as_a_trie_only_when_every_pattern_qualifies(patterns, trie):
    with (
        mock.patch.object(engine, "_trie_construction", wraps=engine._trie_construction) as tries,
        mock.patch.object(engine, "_subset_construction", wraps=engine._subset_construction) as subsets,
    ):
        got = compile_set(patterns)
    assert (tries.call_count, subsets.call_count) == ((1, 0) if trie else (0, 1))
    assert automaton_fields(got) == automaton_fields(engine._subset_construction(patterns, DEFAULT_STATE_LIMIT))


def test_compile_set_routes_each_leaf_of_its_tree_by_its_own_patterns():
    # with leaves of two, a list of start-anchored literals is one trie at
    # any length; a longer mixed list joins the trie of its literals to
    # the tree of its other patterns, whose leaves hold no literal
    mixed = [pat("^ab"), pat("^ac$"), pat("x"), pat("^b")]
    spread = [pat("^a"), pat("^b"), pat("^c"), pat("^d"), pat("x"), pat("y")]
    literals = [pat("^ab"), pat("^a0$"), pat("^b"), pat("^ab0"), pat("^0-")]
    # per list: the tries' lists, the bitset leaves' lists, the joins
    cases = [
        (mixed, [mixed[:2] + mixed[3:]], [mixed[2:3]], 1),
        (spread, [spread[:4]], [spread[4:]], 1),
        (literals, [literals], [], 0),
    ]
    for patterns, trie_lists, subset_lists, joins in cases:
        want = engine._subset_construction(patterns, DEFAULT_STATE_LIMIT)
        with mock.patch.object(engine, "_LEAF_PATTERNS", 2):
            with (
                mock.patch.object(engine, "_trie_construction", wraps=engine._trie_construction) as tries,
                mock.patch.object(engine, "_subset_construction", wraps=engine._subset_construction) as subsets,
                mock.patch.object(engine, "extend_set", wraps=engine.extend_set) as extends,
            ):
                got = compile_set(patterns)
            assert [c.args[0] for c in tries.call_args_list] == trie_lists
            assert [c.args[0] for c in subsets.call_args_list] == subset_lists
            assert extends.call_count == joins
            assert automaton_fields(got) == automaton_fields(want)
            # one state short, the tree and the single construction fail alike
            messages = set()
            for build in (compile_set, engine._subset_construction):
                with pytest.raises(CapacityError) as err:
                    build(patterns, want.n_states - 1)
                messages.add(str(err.value))
        assert messages == {f"combined automaton needs more than {want.n_states - 1} states"}


def _is_start_literal(p):
    return p.anchored_start and p.tokens.isascii()


@st.composite
def _mixed_lists(draw):
    """Start-anchored literals and other patterns, the literals either
    interleaved with the others or all after them, and a leaf cap below
    the list's length."""
    literals = draw(_start_literals())
    others = draw(
        st.lists(
            st.one_of(_ANY_PATTERNS, _EMPTY_MATCHING, _LIVE_EVERYWHERE).filter(lambda p: not _is_start_literal(p)),
            min_size=1,
            max_size=8,
        )
    )
    patterns = others + literals if draw(st.booleans()) else draw(st.permutations(others + literals))
    return patterns, draw(st.integers(1, len(patterns) - 1))


@PROPERTY
@given(_mixed_lists())
# one string under both end anchors, and twice, between and after others
# that accept in the same states: the ids must come back in list order
@example(([pat("b"), pat("^ab$"), pat("a?b"), pat("^ab"), pat("ab"), pat("^ab$")], 2))
@example(([pat("x"), pat("a*"), pat("^x"), pat("^x$")], 1))  # an always-matching pattern in every state
@all_join_paths
def test_compile_set_joins_the_trie_of_a_long_mixed_lists_literals_to_the_rest(case):
    patterns, leaf = case
    want = engine._subset_construction(patterns, DEFAULT_STATE_LIMIT)
    with (
        mock.patch.object(engine, "_LEAF_PATTERNS", leaf),
        mock.patch.object(engine, "_trie_construction", wraps=engine._trie_construction) as tries,
    ):
        got = compile_set(patterns)
        assert [c.args[0] for c in tries.call_args_list] == [[p for p in patterns if _is_start_literal(p)]]
        assert automaton_fields(got) == automaton_fields(want)
        assert got.n_patterns == len(patterns)
        # one state short, the split and the single construction fail alike
        messages = set()
        for build in (compile_set, engine._subset_construction):
            with pytest.raises(CapacityError) as err:
                build(patterns, want.n_states - 1)
            messages.add(str(err.value))
    assert messages == {f"combined automaton needs more than {want.n_states - 1} states"}


@PROPERTY
@given(st.lists(st.one_of(_ANY_PATTERNS, _EMPTY_MATCHING), max_size=8))
@example([])
@example([pat("^ab0"), pat("b0a"), pat("0ab")])  # state 0 has its own row
@example([pat("ab.0"), pat("b0a"), pat("0ab")])  # a wildcard live in a state: a whole row
@example([pat("a+b"), pat("b0a")])  # a repeating first atom, in rest and in the starts
@example([pat("0ba"), pat("ab+")])  # a repeating last atom: d << 1 sets the bit past the last slot
@example([pat("a?"), pat("b*"), pat("^0?$"), pat("a?b*$")])  # all skippable
@example([pat("a?b"), pat("b")])  # every state reads b: rows list only their other atoms' symbols
@example([pat("^c"), pat("b+"), pat("a?b")])  # the same past an anchored state 0
def test_subset_construction_equals_reference(patterns):
    got = engine._subset_construction(patterns, DEFAULT_STATE_LIMIT)
    assert automaton_fields(got) == subset_construction_fields(patterns)


@PROPERTY
@given(
    st.lists(st.one_of(_ANY_PATTERNS, _EMPTY_MATCHING, _LIVE_EVERYWHERE), max_size=8).flatmap(
        lambda ps: st.tuples(st.just(ps), st.integers(0, len(ps)))
    )
)
@example(([pat("a?b"), pat("b")], 1))  # every state reads b
@example(([pat("^c"), pat("b+"), pat("a?b")], 2))  # the same past an anchored state 0
# a wildcard live in every state, one live in some states, and one that
# only an anchored state 0 reads
@example(([pat("a*.b"), pat("ab.0"), pat("^.c")], 1))
@all_join_paths
def test_states_move_as_the_core_state_on_symbols_their_own_positions_skip(case):
    # the invariant sparse rows and sparse joins rest on: the core state,
    # where state 0 moves on CODE_OTHER, is in every state, and a state
    # moves as the core state does on every symbol that none of its own
    # positions (those outside the core) reads.  Positions come from the
    # oracle's frozenset construction; the tables from the oracle, a leaf
    # and a join.
    patterns, split = case
    states, want = subset_construction_reference(patterns)
    core = int(want[0, CODE_OTHER])
    assert all(states[core] <= state for state in states)
    leaf = engine._subset_construction(patterns, DEFAULT_STATE_LIMIT)
    join = extend_set(compile_set(patterns[:split]), compile_set(patterns[split:]))
    for trans in (want, leaf.real_table(), join.real_table()):
        assert trans.shape[0] == len(states) and trans[0, CODE_OTHER] == core
        for s, state in enumerate(states):
            own = state - states[core]
            for c, ch in enumerate(SYMBOLS):
                if not any(position_reads(patterns, q, ch) for q in own):
                    assert trans[s, c] == trans[core, c], (s, ch)


def _encode_each(values):
    # each value on its own: its UTF-8 bytes through the alphabet's byte table
    codes = [np.frombuffer(v.encode("utf-8", "surrogatepass").translate(BYTE_TABLE), dtype=np.uint8) for v in values]
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in codes], out=offsets[1:])
    return np.concatenate(codes) if codes else np.zeros(0, dtype=np.uint8), offsets


@pytest.mark.parametrize(
    "values",
    [[], [""], ["a\ud800b"], ["\u00e9"], ["", "ab", ""], ["ab", "\u00e9", "", "a\ud800b", "x.y"],
     ["\ud800", "\udc00"], ["abc", "-_."]],
)
def test_encode_many_matches_per_value_encoding(values):
    codes, offsets = encode_many(values)
    want_codes, want_offsets = _encode_each(values)
    assert np.array_equal(codes, want_codes)
    assert np.array_equal(offsets, want_offsets)


@PROPERTY
@given(st.lists(st.text(max_size=6), max_size=8))
def test_encode_many_matches_per_value_encoding_random(values):
    codes, offsets = encode_many(values)
    want_codes, want_offsets = _encode_each(values)
    assert np.array_equal(codes, want_codes)
    assert np.array_equal(offsets, want_offsets)
