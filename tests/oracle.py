"""Independent reference implementations used as test oracles.

The matcher here is a naive recursive backtracker over the pattern AST,
written without looking at the engine's simulation: quantifiers consume
greedily and give back one repetition at a time.  The automaton here is
a textbook subset construction over sets of (pattern, atoms consumed)
positions, with no bitsets.  The replay readers here read one row at a
time.  The synthetic generator here draws each event through the
``random`` calls that define it and formats its value per event.  Slow
and obviously correct is the whole point.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import accumulate, combinations, product

import numpy as np

from driftsig.alphabet import ALPHABET, ALPHABET_SET, CHAR_TO_CODE, N_SYMBOLS, in_alphabet
from driftsig.errors import LabelError, ParseError
from driftsig.metrics import Counts, WindowRecord
from driftsig.patterns import TOKEN_ATOMS, Atom, Pattern, Quant, parse_pattern
from driftsig.streams import (
    N_SUFFIXES,
    STEM_ALPHABET,
    TAIL_ALPHABET,
    TAIL_START,
    TLDS,
    ZIPF_EXPONENT,
    DriftConfig,
    Event,
    _draw_stem,
    _mutate_stem,
)


def _atom_accepts(atom: Atom, ch: str) -> bool:
    if atom.char is None:
        return ch in ALPHABET_SET
    return ch == atom.char


def backtrack_match(pattern: Pattern, s: str) -> bool:
    """Reference semantics of one pattern matching one string."""
    atoms = pattern.atoms
    n = len(atoms)
    limit = len(s)

    def walk(k: int, i: int) -> bool:
        if k == n:
            return i == limit if pattern.anchored_end else True
        atom = atoms[k]
        if atom.quant is Quant.ONE:
            return i < limit and _atom_accepts(atom, s[i]) and walk(k + 1, i + 1)
        if atom.quant is Quant.ZERO_OR_ONE:
            if i < limit and _atom_accepts(atom, s[i]) and walk(k + 1, i + 1):
                return True
            return walk(k + 1, i)
        # greedy repetition: longest run first, backing off one at a time
        j = i
        while j < limit and _atom_accepts(atom, s[j]):
            j += 1
        floor = i + 1 if atom.quant is Quant.ONE_OR_MORE else i
        for stop in range(j, floor - 1, -1):
            if walk(k + 1, stop):
                return True
        return False

    if pattern.anchored_start:
        return walk(0, 0)
    return any(walk(0, start) for start in range(limit + 1))


def pack_patterns_per_atom(patterns):
    """Reference for engine.pack_patterns: (codes, loop, skip, offsets,
    flags) filled atom by atom straight from the AST."""
    pats = list(patterns)
    atoms = [atom for pat in pats for atom in pat.atoms]
    offsets = np.zeros(len(pats) + 1, dtype=np.int64)
    np.cumsum([len(p.atoms) for p in pats], out=offsets[1:])
    codes = np.array([N_SYMBOLS if a.is_any else CHAR_TO_CODE[a.char] for a in atoms], dtype=np.uint8)
    loop = np.array([a.quant in (Quant.ZERO_OR_MORE, Quant.ONE_OR_MORE) for a in atoms], dtype=np.uint8)
    skip = np.array([a.quant in (Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE) for a in atoms], dtype=np.uint8)
    flags = np.array([p.anchored_start + 2 * p.anchored_end for p in pats], dtype=np.uint8)
    return codes, loop, skip, offsets, flags


def match_set_bruteforce(patterns, s: str) -> set[int]:
    """Per-pattern union; the reference for MultiMatcher.match_set."""
    return {i for i, p in enumerate(patterns) if backtrack_match(p, s)}


_ATOM_TOKEN = {atom: token for token, atom in TOKEN_ATOMS.items()}


def atom_pattern(atoms, start: bool = False, end: bool = False) -> Pattern:
    """The pattern of a sequence of atoms, through the token table."""
    return Pattern("".join(_ATOM_TOKEN[a] for a in atoms), start, end)


def random_pattern(rng: random.Random, max_atoms: int = 8) -> Pattern:
    """Random well-formed pattern biased toward collisions on few letters."""
    chars = "ab01.-_c"
    n = rng.randint(1, max_atoms)
    atoms = []
    for _ in range(n):
        if rng.random() < 0.2:
            atoms.append(Atom(None))
        else:
            quant = rng.choice(list(Quant)) if rng.random() < 0.4 else Quant.ONE
            atoms.append(Atom(rng.choice(chars), quant))
    if all(a.is_any for a in atoms):
        atoms[rng.randrange(n)] = Atom("a")
    return atom_pattern(atoms, start=rng.random() < 0.25, end=rng.random() < 0.25)


def random_subject(rng: random.Random, max_len: int = 16) -> str:
    """Random subject string; occasionally injects a non-alphabet char."""
    chars = "ab01.-_c"
    s = "".join(rng.choice(chars) for _ in range(rng.randint(0, max_len)))
    if s and rng.random() < 0.1:
        k = rng.randrange(len(s))
        s = s[:k] + rng.choice("AZ%") + s[k + 1 :]
    return s


def cover_matrix(universe, subsets) -> np.ndarray:
    """Boolean (subsets x elements) matrix, columns in sorted element order."""
    columns = sorted(universe)
    return np.array([[e in s for e in columns] for s in subsets], dtype=bool)


def minimum_cover_size(universe: frozenset, subsets) -> int | None:
    """Exhaustive smallest-cover search for tiny instances."""
    indices = range(len(subsets))
    for size in range(len(subsets) + 1):
        for combo in combinations(indices, size):
            covered = set()
            for i in combo:
                covered |= subsets[i]
            if universe <= covered:
                return size
    return None


def greedy_cover_reference(cover: np.ndarray) -> list[int]:
    """Greedy set cover that counts every row's uncovered columns afresh
    at each pick (ties to the lowest row)."""
    uncovered = np.ones(cover.shape[1], dtype=bool)
    chosen = []
    while uncovered.any():
        best = int(np.argmax(np.count_nonzero(cover[:, uncovered], axis=1)))
        chosen.append(best)
        uncovered &= ~cover[best]
    return chosen


def kept_grams_reference(positives, negatives, max_ngram: int) -> dict[str, int]:
    """Every distinct substring of 1..max_ngram characters of the sorted
    positives that is a substring of no negative, with the lowest index of
    a sorted positive holding it: one dict entry and one substring search
    of the joined negatives per gram."""
    ordered = sorted(set(positives))
    blob = "\n".join(sorted(set(negatives)))
    kept: dict[str, int] = {}
    for src, s in enumerate(ordered):
        for n in range(1, max_ngram + 1):
            for i in range(len(s) - n + 1):
                gram = s[i : i + n]
                if gram not in kept and gram not in blob:
                    kept[gram] = src
    return kept


def gram_variants(gram: str, max_wild: int, max_quant: int):
    """The text of every component the production rules derive from
    ``gram``: at most ``max_wild`` of its characters (never all of them)
    replaced by the wildcard, then at most ``max_quant`` quantifiers
    after the other characters.  A literal dot is written escaped and
    the wildcard bare."""
    n = len(gram)
    for k in range(min(max_wild, n - 1) + 1):
        for wild in combinations(range(n), k):
            base = ["." if j in wild else ("\\." if gram[j] == "." else gram[j]) for j in range(n)]
            plain = [j for j in range(n) if j not in wild]
            for q in range(min(max_quant, len(plain)) + 1):
                for qpos in combinations(plain, q):
                    for quants in product("?*+", repeat=q):
                        parts = list(base)
                        for j, sym in zip(qpos, quants):
                            parts[j] += sym
                        yield "".join(parts)


def variant_pool_reference(positives, negatives, cfg) -> dict[str, int]:
    """Every variant of every gram no negative holds, on pattern text,
    with the lowest source positive of the grams giving it: the pool
    before its cut and filter."""
    pool: dict[str, int] = {}
    for gram, src in kept_grams_reference(positives, negatives, cfg.max_ngram).items():
        for text in gram_variants(gram, cfg.max_wildcards, cfg.max_quantified):
            pool[text] = min(pool.get(text, src), src)
    return pool


def pool_reference(positives, negatives, cfg) -> dict[str, int]:
    """The learner's component pool by its contract, on pattern text:
    :func:`variant_pool_reference` ordered by (length, text) and cut at
    ``cfg.max_pool``; then every component that :func:`backtrack_match`
    finds in some negative dropped."""
    pool = variant_pool_reference(positives, negatives, cfg)
    cut = sorted(pool, key=lambda t: (len(t), t))[: cfg.max_pool]
    negs = sorted(set(negatives))
    return {t: pool[t] for t in cut if not any(backtrack_match(parse_pattern(t), s) for s in negs)}


def reference_learn(positives, negatives, cfg) -> list[str]:
    """The learner's model texts by its contract: the components of
    :func:`pool_reference`, a cover matrix over the sorted positives by
    :func:`backtrack_match`, :func:`greedy_cover_reference`'s picks over
    the positives some component reaches, then an anchored exact-match
    pattern for each of the others, in sorted order."""
    pos = sorted(set(positives))
    pool = list(pool_reference(pos, negatives, cfg))
    cover = np.array([[backtrack_match(parse_pattern(t), s) for s in pos] for t in pool], dtype=bool)
    cover = cover.reshape(len(pool), len(pos))
    reached = cover.any(axis=0)
    picks = [pool[i] for i in greedy_cover_reference(cover[:, reached])]
    return picks + ["^" + s.replace(".", "\\.") + "$" for s, r in zip(pos, reached) if not r]


def reference_track(events, mode: str, window: int, cfg):
    """The tracking loop by its contract, on pattern text: returns the
    cumulative :class:`WindowRecord` of every scored window and the model
    texts of every generation.

    The first ``window`` events are the bootstrap, split by their truth:
    the naive model is the anchored exact pattern of each positive, in
    sorted order, and the adaptive one :func:`reference_learn`'s (empty
    with no positive).  Each later whole window is labeled by the model
    as it stood before the window, through :func:`backtrack_match`, and
    scored against the truth.  In adaptive mode a window with a
    predicted positive then makes a new generation: its predicted
    positives and negatives are learned with :func:`reference_learn`,
    and the patterns the model lacks are appended after the old ones.
    A trailing partial window is dropped."""
    events = list(events)
    boot = events[:window]
    pos0 = sorted({e.value for e in boot if e.truth == 1})
    neg0 = sorted({e.value for e in boot if e.truth == 0})
    if mode == "naive":
        model = ["^" + v.replace(".", "\\.") + "$" for v in pos0]
    else:
        model = reference_learn(pos0, neg0, cfg) if pos0 else []
    generations = [model]
    counts = Counts()
    records = []
    for k in range(1, len(events) // window):
        chunk = events[k * window : (k + 1) * window]
        patterns = [parse_pattern(t) for t in model]
        label = {v: int(any(backtrack_match(p, v) for p in patterns)) for v in {e.value for e in chunk}}
        for e in chunk:
            counts = accumulate_reference(counts, e.truth, label[e.value])
        positives = {v for v, y in label.items() if y}
        if mode == "adaptive" and positives:
            added = reference_learn(positives, set(label) - positives, cfg)
            model = model + [t for t in added if t not in model]
            generations.append(model)
        pos, neg = counts.tp + counts.fn, counts.fp + counts.tn
        tpr = counts.tp / pos if pos else 0.0
        fpr = counts.fp / neg if neg else 0.0
        records.append(WindowRecord(k, mode, counts, tpr, fpr, (1.0 + tpr - fpr) / 2.0, len(model)))
    return records, generations


def accumulate_reference(counts: Counts, y_true: int, y_pred: int) -> Counts:
    """Reference for metrics.accumulate_pairs: counts with one more
    (truth, prediction) outcome folded in."""
    if y_true not in (0, 1) or y_pred not in (0, 1):
        raise ValueError("labels must be 0 or 1")
    if y_true == 1:
        if y_pred == 1:
            return Counts(counts.tp + 1, counts.fp, counts.tn, counts.fn)
        return Counts(counts.tp, counts.fp, counts.tn, counts.fn + 1)
    if y_pred == 1:
        return Counts(counts.tp, counts.fp + 1, counts.tn, counts.fn)
    return Counts(counts.tp, counts.fp, counts.tn + 1, counts.fn)


def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation, small-n, no tie correction beyond averaging."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = sum((a - mx) ** 2 for a in rx) ** 0.5
    dy = sum((b - my) ** 2 for b in ry) ** 0.5
    if dx == 0 or dy == 0:
        return 0.0
    return num / (dx * dy)


def state_ids(off, pid):
    """CSR accept arrays as per-state tuples of pattern ids."""
    return tuple(tuple(pid[off[s] : off[s + 1]].tolist()) for s in range(len(off) - 1))


def automaton_fields(matcher):
    """The five fields of a compiled automaton, as one comparable value:
    the transition table (dtype and shape included), both hit flags and
    the per-state run and end-anchored pattern ids."""
    trans = matcher._trans
    return (
        (trans.dtype.str, trans.shape, trans.tobytes()),
        (matcher._hit_run.dtype.str, matcher._hit_run.tobytes()),
        (matcher._hit_end.dtype.str, matcher._hit_end.tobytes()),
        state_ids(matcher._run_off, matcher._run_pid),
        state_ids(matcher._end_off, matcher._end_pid),
    )


# the oracle automaton's symbols: the alphabet, then None for any
# character outside it (symbol ``len(ALPHABET)``)
SYMBOLS = list(ALPHABET) + [None]


def _skippable(atom):
    return atom.quant in (Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE)


def _repeats(atom):
    return atom.quant in (Quant.ZERO_OR_MORE, Quant.ONE_OR_MORE)


def _reads(atom, ch):
    return ch is not None and _atom_accepts(atom, ch)


def position_reads(pats, position, ch) -> bool:
    """Whether position ``(p, k)`` of the frozenset construction over
    ``pats`` moves on ``ch``: atom k reads it, or atom k - 1 repeats and
    reads it."""
    p, k = position
    atoms = pats[p].atoms
    if k < len(atoms) and _reads(atoms[k], ch):
        return True
    return k > 0 and _repeats(atoms[k - 1]) and _reads(atoms[k - 1], ch)


def subset_construction_reference(patterns):
    """A textbook subset construction, returning ``(states, trans)``.

    A state is the frozenset of (pattern, atoms consumed) positions that
    a string can reach, skip closure included.  Every unanchored
    pattern's start (p, 0) is in every state; the anchored ones' starts
    are only in the start state.  States are numbered breadth first, by
    (parent, symbol) over ``SYMBOLS``; ``trans`` is the int32 table.
    """
    pats = list(patterns)

    def closure(positions):
        out = set(positions)
        todo = list(out)
        while todo:
            p, k = todo.pop()
            atoms = pats[p].atoms
            if k < len(atoms) and _skippable(atoms[k]) and (p, k + 1) not in out:
                out.add((p, k + 1))
                todo.append((p, k + 1))
        return frozenset(out)

    free = [(p, 0) for p, pat in enumerate(pats) if not pat.anchored_start]

    def step(state, ch):
        nxt = set(free)
        for p, k in state:
            atoms = pats[p].atoms
            if k < len(atoms) and _reads(atoms[k], ch):
                nxt.add((p, k + 1))
            if k > 0 and _repeats(atoms[k - 1]) and _reads(atoms[k - 1], ch):
                nxt.add((p, k))
        return closure(nxt)

    start = closure((p, 0) for p in range(len(pats)))
    states, index, rows = [start], {start: 0}, []
    work = deque([start])
    while work:
        state = work.popleft()
        for ch in SYMBOLS:
            nxt = step(state, ch)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                work.append(nxt)
            rows.append(index[nxt])
    return states, np.array(rows, dtype=np.int32).reshape(-1, N_SYMBOLS)


def subset_construction_fields(patterns):
    """Reference for engine._subset_construction, as automaton_fields,
    from :func:`subset_construction_reference`.  A pattern that matches
    the empty string everywhere is in every state's ids."""
    pats = list(patterns)
    states, trans = subset_construction_reference(pats)

    def ids(state, anchored_end):
        done = (p for p, k in state if k == len(pats[p].atoms) and pats[p].anchored_end == anchored_end)
        return tuple(sorted(done))

    run = tuple(ids(s, False) for s in states)
    end = tuple(ids(s, True) for s in states)
    hit_run = np.array([bool(r) for r in run], dtype=bool)
    hit_end = np.array([bool(e) for e in end], dtype=bool)
    return (
        (trans.dtype.str, trans.shape, trans.tobytes()),
        (hit_run.dtype.str, hit_run.tobytes()),
        (hit_end.dtype.str, hit_end.tobytes()),
        run,
        end,
    )


# The replay readers as they were before block parsing: one row at a time,
# each row split and checked on its own.


def load_tsv_reference(path):
    """Reference for streams.load_tsv."""
    labels: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            row = line.rstrip("\n").rstrip("\r")
            if not row:
                continue
            parts = row.split("\t")
            if len(parts) != 3:
                raise ParseError(line_no, f"expected 3 tab-separated fields, got {len(parts)}")
            seq_text, value, label_text = parts
            try:
                int(seq_text)
            except ValueError:
                raise ParseError(line_no, f"bad sequence number {seq_text!r}") from None
            if label_text not in ("0", "1"):
                raise ParseError(line_no, f"label must be 0 or 1, got {label_text!r}")
            if not value or not in_alphabet(value):
                raise ParseError(line_no, f"value outside the event alphabet: {value!r}")
            truth = int(label_text)
            if labels.setdefault(value, truth) != truth:
                raise LabelError(value)
            yield Event(line_no - 1, value, truth)


def load_blacklist_reference(path) -> dict[str, set[str]]:
    """Reference for streams.load_blacklist."""
    categories: dict[str, set[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            row = line.strip()
            if not row or row.startswith("#"):
                continue
            parts = row.split("\t")
            if len(parts) != 2:
                raise ParseError(line_no, "expected category<TAB>domain")
            category, domain = parts
            categories.setdefault(category, set()).add(domain)
    return categories


def bootstrap_label_reference(value: str, positive: set[str]) -> int:
    """Reference for streams.bootstrap_label."""
    parts = value.split(".")
    for i in range(len(parts)):
        if ".".join(parts[i:]) in positive:
            return 1
    return 0


# The synthetic generator as it was before its per-event loop drew from
# getrandbits and bisect directly: choice, choices and randrange per event.


def gen_synthetic_reference(cfg: DriftConfig):
    """Reference for streams.gen_synthetic."""
    rng = random.Random(cfg.seed)

    neg_stems: list[str] = []
    taken = set()
    while len(neg_stems) < cfg.n_neg_seeds:
        alphabet = TAIL_ALPHABET if len(neg_stems) >= TAIL_START else STEM_ALPHABET
        stem = _draw_stem(rng, alphabet)
        if stem not in taken:
            taken.add(stem)
            neg_stems.append(stem)
    neg_set = frozenset(neg_stems)

    pos_stems: list[str] = []
    while len(pos_stems) < cfg.n_pos_seeds:
        stem = _draw_stem(rng)
        if stem not in taken:
            taken.add(stem)
            pos_stems.append(stem)

    # rare negatives matter: Zipf weights give the pool a long tail
    neg_cum = list(accumulate(1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(cfg.n_neg_seeds)))
    tld_of = {stem: rng.choice(TLDS) for stem in neg_stems + pos_stems}

    def value_of(stem: str) -> str:
        return f"{stem}{rng.randrange(N_SUFFIXES)}.{tld_of[stem]}"

    seq = 0
    while True:
        if seq > 0 and seq % cfg.window_hint == 0:
            for i, stem in enumerate(pos_stems):
                if rng.random() < cfg.drift_rate:
                    mutated = _mutate_stem(stem, rng, cfg.mutation_weights, neg_set)
                    if mutated not in tld_of:
                        tld_of[mutated] = rng.choice(TLDS)
                    pos_stems[i] = mutated
        if rng.random() < cfg.positive_frac:
            stem = rng.choice(pos_stems)
            truth = 1
        else:
            stem = rng.choices(neg_stems, cum_weights=neg_cum)[0]
            truth = 0
        yield Event(seq, value_of(stem), truth)
        seq += 1
