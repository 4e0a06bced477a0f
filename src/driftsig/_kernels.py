"""Hot matching loops, vectorized with numpy across the subject strings.

Two kernels dominate runtime: the pattern-set x string-set match matrix
used by the learner, and the combined-automaton scan used to label
events.  Both take flat arrays: patterns as packed by
``engine.pack_patterns`` and subjects as encoded by
``alphabet.encode_many``.
"""

from __future__ import annotations

import numpy as np

from .alphabet import CODE_ANY, CODE_OTHER

# There is one numpy implementation of each kernel; these flags are kept
# so that callers reporting the kernel path can still read them.
HAVE_NUMBA = False
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# Pattern-set x string-set match matrix (shared-state NFA simulation).
#
# Pattern p occupies atom slots pat_off[p]:pat_off[p+1] of the flat
# arrays.  For atom slot i (0-based within the pattern), simulation
# state i+1 means "atoms 0..i consumed"; state 0 is the start.  Flags:
#   loop[i] -- state i+1 may consume another copy of atom i (* and +)
#   skip[i] -- state i+1 is reachable from state i without input (? and *)
# pat_flags bit 0 = anchored at start, bit 1 = anchored at end.
# ---------------------------------------------------------------------------


def _pad_strings(scodes, s_off):
    n_str = len(s_off) - 1
    lengths = np.diff(s_off)
    max_len = int(lengths.max()) if n_str else 0
    padded = np.full((n_str, max_len), CODE_OTHER, dtype=np.uint8)
    for j in range(n_str):
        padded[j, : lengths[j]] = scodes[s_off[j] : s_off[j + 1]]
    return padded, lengths


def nfa_match_matrix(codes, loop, skip, pat_off, pat_flags, scodes, s_off):
    """Match every pattern against every string; returns a bool matrix."""
    n_pat = len(pat_off) - 1
    n_str = len(s_off) - 1
    out = np.zeros((n_pat, n_str), dtype=bool)
    if n_pat == 0 or n_str == 0:
        return out
    padded, lengths = _pad_strings(scodes, s_off)
    max_len = padded.shape[1]
    live = np.arange(max_len)[None, :] < lengths[:, None]

    for p in range(n_pat):
        a, b = int(pat_off[p]), int(pat_off[p + 1])
        n = b - a
        pcodes = codes[a:b]
        ploop = loop[a:b] != 0
        pskip = skip[a:b] != 0
        anch_start = bool(pat_flags[p] & 1)
        anch_end = bool(pat_flags[p] & 2)

        active = np.zeros((n_str, n + 1), dtype=bool)
        active[:, 0] = True
        for i in range(n):
            if pskip[i]:
                active[:, i + 1] |= active[:, i]

        matched = np.zeros(n_str, dtype=bool)
        if not anch_end:
            matched |= active[:, n]
        for t in range(max_len):
            col = padded[:, t]
            ok = live[:, t]
            new = np.zeros_like(active)
            if not anch_start:
                new[:, 0] = True
            for i in range(n):
                hit = col == pcodes[i]
                if pcodes[i] == CODE_ANY:
                    hit = col != CODE_OTHER
                feed = active[:, i]
                if ploop[i]:
                    feed = feed | active[:, i + 1]
                new[:, i + 1] = hit & feed
            for i in range(n):
                if pskip[i]:
                    new[:, i + 1] |= new[:, i]
            active = np.where(ok[:, None], new, active)
            if not anch_end:
                matched |= active[:, n] & ok
        if anch_end:
            matched = active[:, n]
        out[p] = matched
    return out


def nfa_match_any(codes, loop, skip, pat_off, pat_flags, scodes, s_off):
    """Per pattern: does it match at least one of the strings?"""
    return nfa_match_matrix(codes, loop, skip, pat_off, pat_flags, scodes, s_off).any(axis=1)


# ---------------------------------------------------------------------------
# Combined-automaton scan: one transition-table lookup per input char.
# hit_run[s] marks states holding an accept that may fire anywhere;
# hit_end[s] marks accepts valid only at the end of the subject.
# ---------------------------------------------------------------------------


def dfa_match_any(trans, hit_run, hit_end, scodes, s_off):
    """For each string, True when the automaton reports any match."""
    n_str = len(s_off) - 1
    if n_str == 0:
        return np.zeros(0, dtype=bool)
    padded, lengths = _pad_strings(scodes, s_off)
    max_len = padded.shape[1]
    states = np.zeros(n_str, dtype=np.int64)
    matched = np.full(n_str, hit_run[0] != 0)
    for t in range(max_len):
        ok = t < lengths
        nxt = trans[states, padded[:, t]]
        states = np.where(ok, nxt, states)
        matched |= (hit_run[states] != 0) & ok
    matched |= hit_end[states] != 0
    return matched
