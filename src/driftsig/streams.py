"""Labeled event sources: TSV replay and a drifting synthetic generator.

The synthetic stream stands in for a live corpus.  Positive events are
built from a pool of seed tokens that mutate over time (the adversary
changing tactics); negative events come from a fixed, Zipf-weighted
token pool so that rare negatives drop out of individual windows.  Every
value is ``<letters><digit>.<tld>``, which keeps the two classes
textually similar while guaranteeing that a string never flips class.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, Iterator, NamedTuple

from .alphabet import ALPHABET, in_alphabet
from .errors import LabelError, ParseError

# Shape of generated values.  Stems are letters-only (the single digit that
# follows makes the stem parse out unambiguously, so positive and negative
# values can never collide).  The reduced stem alphabet keeps n-gram overlap
# between the two classes high enough that self-training errors can occur;
# the long Zipf tail of negative stems, drawn from an even narrower alphabet,
# means individual windows never see the whole negative population.
STEM_ALPHABET = "abcdefghijkl"
TAIL_ALPHABET = "abcdefgh"
TAIL_START = 100
STEM_MIN_LEN = 5
STEM_MAX_LEN = 8
N_SUFFIXES = 8
TLDS = ("com", "net", "org", "biz")
ZIPF_EXPONENT = 1.0
SWAP_KEEP = 2

MUTATION_KINDS = ("substitution", "insertion", "suffix_swap", "rotation")

# Replay files are read in blocks of lines of about this many characters
# (the ``readlines`` hint).
_BLOCK_BYTES = 1 << 16
_ALPHABET_BYTES = ALPHABET.encode("ascii")
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")
_LABEL_TEXTS = frozenset(("0", "1"))
# int() refuses more digits than sys.get_int_max_str_digits(), a limit
# that is never set below 640; shorter digit strings always parse
_INT_SAFE_DIGITS = 640


class Event(NamedTuple):
    seq: int
    value: str
    truth: int


@dataclass(frozen=True)
class DriftConfig:
    """Parameters of the synthetic evolving-adversary stream."""

    positive_frac: float = 0.34
    drift_rate: float = 0.034
    mutation_weights: tuple[float, float, float, float] = (0.30, 0.10, 0.45, 0.15)
    n_pos_seeds: int = 20
    n_neg_seeds: int = 600
    window_hint: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.positive_frac <= 1.0:
            raise ValueError("positive_frac must be in [0, 1]")
        if not 0.0 <= self.drift_rate <= 1.0:
            raise ValueError("drift_rate must be in [0, 1]")
        if self.n_pos_seeds < 1 or self.n_neg_seeds < 1:
            raise ValueError("seed pools must be non-empty")
        if self.window_hint < 1:
            raise ValueError("window_hint must be >= 1")
        if len(self.mutation_weights) != len(MUTATION_KINDS) or min(self.mutation_weights) < 0:
            raise ValueError("mutation_weights needs one non-negative weight per kind")
        # the total random.choices draws against; it refuses a NaN, infinite
        # or zero total, which would surface only at the first drift step
        total = list(accumulate(self.mutation_weights))[-1]
        if not math.isfinite(total):
            raise ValueError("mutation_weights must be finite, with a finite total")
        if total == 0 and self.drift_rate > 0:
            raise ValueError("mutation_weights must not all be zero when drift_rate > 0")


def _draw_stem(rng: random.Random, alphabet: str = STEM_ALPHABET) -> str:
    length = rng.randint(STEM_MIN_LEN, STEM_MAX_LEN)
    return "".join(rng.choice(alphabet) for _ in range(length))


def _mutate_stem(stem: str, rng: random.Random, weights, forbidden: frozenset) -> str:
    """Apply one weighted mutation; redraw until the result is a new stem
    that does not collide with the negative pool (keeps labels a function
    of the value).  suffix_swap models a hard re-tool: everything past the
    first couple of characters is replaced."""
    for _ in range(64):
        kind = rng.choices(MUTATION_KINDS, weights=weights)[0]
        if kind == "substitution" or (kind == "insertion" and len(stem) >= STEM_MAX_LEN):
            pos = rng.randrange(len(stem))
            mutated = stem[:pos] + rng.choice(STEM_ALPHABET) + stem[pos + 1 :]
        elif kind == "insertion":
            pos = rng.randrange(len(stem) + 1)
            mutated = stem[:pos] + rng.choice(STEM_ALPHABET) + stem[pos:]
        elif kind == "suffix_swap":
            keep = min(SWAP_KEEP, len(stem) - 1)
            mutated = stem[:keep] + "".join(rng.choice(STEM_ALPHABET) for _ in range(len(stem) - keep))
        else:  # rotation
            mutated = stem[1:] + stem[0]
        if mutated != stem and mutated not in forbidden:
            return mutated
    return stem


def _values_of(stem: str, tld: str) -> tuple[str, ...]:
    """The ``N_SUFFIXES`` values of a stem, by suffix."""
    return tuple(f"{stem}{k}.{tld}" for k in range(N_SUFFIXES))


def gen_synthetic(cfg: DriftConfig) -> Iterator[Event]:
    """Infinite deterministic stream of labeled events.

    Each event is positive with probability ``positive_frac``.  Every
    ``window_hint`` events each positive stem mutates independently with
    probability ``drift_rate``; the negative pool never changes, so the
    truth label is a fixed function of the value.

    An event draws, in order: ``random()`` for its class, its stem
    (``choice`` over the positive stems, or ``choices`` over the Zipf
    weights of the negative ones) and ``randrange(N_SUFFIXES)`` for its
    suffix.  The loop makes those draws from the primitives the library
    calls build them from, so it yields the events the library calls
    would.  A stem's values are rendered when it joins a pool, and its
    events share them.
    """
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
    neg_values = [_values_of(stem, tld_of[stem]) for stem in neg_stems]
    pos_values = [_values_of(stem, tld_of[stem]) for stem in pos_stems]

    rand = rng.random
    getrandbits = rng.getrandbits
    positive_frac = cfg.positive_frac
    # choices(neg_stems, cum_weights=neg_cum) bisects random() * total
    neg_total = neg_cum[-1]
    neg_hi = len(neg_cum) - 1
    # choice and randrange draw below n by rejection from n.bit_length() bits
    n_pos = len(pos_stems)
    pos_bits = n_pos.bit_length()
    suffix_bits = N_SUFFIXES.bit_length()
    make_event = tuple.__new__  # Event(...) without the Python-level __new__

    start = 0
    while True:
        for seq in range(start, start + cfg.window_hint):
            if rand() < positive_frac:
                i = getrandbits(pos_bits)
                while i >= n_pos:
                    i = getrandbits(pos_bits)
                values = pos_values[i]
                truth = 1
            else:
                values = neg_values[bisect(neg_cum, rand() * neg_total, 0, neg_hi)]
                truth = 0
            k = getrandbits(suffix_bits)
            while k >= N_SUFFIXES:
                k = getrandbits(suffix_bits)
            yield make_event(Event, (seq, values[k], truth))
        start += cfg.window_hint
        for i, stem in enumerate(pos_stems):
            if rand() < cfg.drift_rate:
                mutated = _mutate_stem(stem, rng, cfg.mutation_weights, neg_set)
                if mutated not in tld_of:
                    tld_of[mutated] = rng.choice(TLDS)
                pos_stems[i] = mutated
                pos_values[i] = _values_of(mutated, tld_of[mutated])


def load_tsv(path) -> Iterator[Event]:
    """Replay an events TSV (``seq<TAB>value<TAB>label``, no header).

    Yields events in file order with ``seq`` equal to the 0-based line
    index.  Raises :class:`ParseError` (1-based line number) on malformed
    rows and :class:`LabelError` when a value reappears with a different
    label.

    The file is read a block of lines at a time, and the events of a
    block are yielded before the next block is read.  A block that
    passes the whole-block checks of :func:`_parse_tsv_block` becomes
    events in bulk; any other block goes through :func:`_parse_tsv_rows`,
    the row-by-row reader that defines every error.  Bytes that are not
    UTF-8 raise :class:`UnicodeDecodeError` after the events of the rows
    before them.
    """
    labels: dict[str, int] = {}
    line_no = 0
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            try:
                lines = fh.readlines(_BLOCK_BYTES)
            except UnicodeDecodeError:
                break
            if not lines:
                return
            bulk = _parse_tsv_block(lines, labels)
            if bulk is None:
                yield from _parse_tsv_rows(lines, line_no, labels)
            else:
                yield from map(Event, range(line_no, line_no + len(lines)), *bulk)
            line_no += len(lines)
    # The next block holds bytes that are not UTF-8.  Read the file again
    # row by row from that block's first line, so that the rows before
    # those bytes are yielded and the decoder raises where a row-by-row
    # read meets them.
    with open(path, "r", encoding="utf-8") as fh:
        yield from _parse_tsv_rows(islice(fh, line_no, None), line_no, labels)


def _parse_tsv_block(lines: list[str], labels: dict[str, int]) -> tuple[list[str], list[int]] | None:
    """(values, truths) of a block of TSV lines, or None when a row needs
    :func:`_parse_tsv_rows`: a malformed or blank row, a sequence number
    that only ``int()`` reads (``" 3"``, ``"+3"``, ``"٣"``) or a label
    conflict.  ``labels`` (first label of each value) gains the block's
    values only when the block is accepted."""
    text = "".join(lines)
    if text.endswith("\n"):
        text = text[:-1]
    # with every alphabet character deleted, good rows leave only their
    # separators: two tabs per row and a newline between rows
    layout = b"\t\t\n" * (len(lines) - 1) + b"\t\t"
    if text.encode("utf-8").translate(None, _ALPHABET_BYTES) != layout:
        return None
    fields = text.replace("\n", "\t").split("\t")
    seqs, values, marks = fields[0::3], fields[1::3], fields[2::3]
    if not (all(seqs) and "".join(seqs).isdigit() and max(map(len, seqs)) <= _INT_SAFE_DIGITS):
        return None
    if not (all(values) and _LABEL_TEXTS.issuperset(marks)):
        return None
    truths = list(map(int, marks))
    block = dict(zip(values, truths))
    if len(set(zip(values, truths))) != len(block):
        return None  # a value with both labels within the block
    seen = block.keys() & labels.keys()
    if list(map(block.__getitem__, seen)) != list(map(labels.__getitem__, seen)):
        return None  # a value relabeled since an earlier block
    labels.update(block)
    return values, truths


def _parse_tsv_rows(lines: Iterable[str], line_no: int, labels: dict[str, int]) -> Iterator[Event]:
    """Events of TSV lines, one row at a time; the first line is line
    ``line_no + 1``.  Raises on the first bad row."""
    for line_no, line in enumerate(lines, start=line_no + 1):
        row = line.rstrip("\n")
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
        if label_text not in _LABEL_TEXTS:
            raise ParseError(line_no, f"label must be 0 or 1, got {label_text!r}")
        if not value or not in_alphabet(value):
            raise ParseError(line_no, f"value outside the event alphabet: {value!r}")
        truth = int(label_text)
        if labels.setdefault(value, truth) != truth:
            raise LabelError(value)
        yield Event(line_no - 1, value, truth)


def write_tsv(events, path) -> int:
    """Write events in the TSV format; returns the number of rows."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(f"{event.seq}\t{event.value}\t{event.truth}\n")
            n += 1
    return n


def load_blacklist(path) -> dict[str, set[str]]:
    """Read a ``category<TAB>domain`` file into a category map.

    Each row is stripped of surrounding whitespace; blank rows and rows
    starting with ``#`` are skipped.  Raises :class:`ParseError` at the
    first row that is not two tab-separated fields.  The file is read a
    block of lines at a time, and a block's rows are split all at once.
    """
    categories = defaultdict(set)
    line_no = 0
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(_BLOCK_BYTES):
            rows = [row for row in map(str.strip, lines) if row and row[0] != "#"]
            text = "\n".join(rows)
            # one tab per row, a newline between rows
            if text.encode("utf-8").translate(None, _NOT_SEPARATORS) != (b"\t\n" * len(rows))[:-1]:
                bad = next(i for i, line in enumerate(lines, start=line_no + 1)
                           if (row := line.strip()) and row[0] != "#" and row.count("\t") != 1)
                raise ParseError(bad, "expected category<TAB>domain")
            fields = text.replace("\n", "\t").split("\t")
            for category, domain in zip(fields[0::2], fields[1::2]):
                categories[category].add(domain)
            line_no += len(lines)
    return dict(categories)


def bootstrap_label(value: str, positive: set[str]) -> int:
    """1 when a dot-boundary suffix of the value is a positive domain.

    ``positive`` is the union of the blacklist's positive categories,
    built once per stream.  Suffix semantics: ``x.doubleclick.net``
    inherits the label of ``doubleclick.net``.  The suffixes tried are
    the whole value and the text after each dot (empty after a trailing
    dot).
    """
    start = 0
    while True:
        if value[start:] in positive:
            return 1
        dot = value.find(".", start)
        if dot < 0:
            return 0
        start = dot + 1
