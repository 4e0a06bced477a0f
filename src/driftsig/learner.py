"""Regex-golf learner.

Given disjoint positive and negative string sets, build candidate
components from positive-set n-grams (with bounded wildcard substitution
and quantifier insertion), drop every component that matches a negative,
then greedily pick a small subset whose union covers all positives.
Positives no surviving component can reach get an anchored exact-match
fallback, so the learned model always separates the two sets perfectly.

Components are built directly as pattern ASTs from shared atoms; they
are rendered to text only to order the pool by canonical text.  The
filter, the cover matrix and the greedy pick work on whole arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .alphabet import ALPHABET, in_alphabet
from .engine import DEFAULT_STATE_LIMIT, match_any_of, match_many
from .errors import DisjointnessViolation, EmptyPositiveSetError, UncoverableElements
from .model import Model
from .patterns import Atom, Pattern, Quant, exact_pattern, render_pattern

# Shared atoms: the wildcard, and per alphabet character its plain atom and
# its three quantified ones.  Components hold these objects, so equal
# components share atoms and compare by identity first.
_ANY = Atom(None)
_LITERAL = {ch: Atom(ch) for ch in ALPHABET}
_QUANTIFIED = {
    ch: tuple(Atom(ch, q) for q in (Quant.ZERO_OR_ONE, Quant.ZERO_OR_MORE, Quant.ONE_OR_MORE))
    for ch in ALPHABET
}


@dataclass(frozen=True)
class LearnerConfig:
    """Tractability caps for component generation.

    Exhaustive generation over all n-gram/wildcard/quantifier products is
    combinatorial, so each axis is bounded; the exact-match fallback keeps
    coverage intact no matter how tight the caps are.
    """

    max_ngram: int = 4
    max_wildcards: int = 2
    max_quantified: int = 1
    max_pool: int = 200_000
    state_limit: int = DEFAULT_STATE_LIMIT

    def __post_init__(self):
        if self.max_ngram < 1:
            raise ValueError("max_ngram must be >= 1")
        if min(self.max_wildcards, self.max_quantified, self.max_pool) < 0:
            raise ValueError("caps must be >= 0")


@dataclass
class ComponentPool:
    """Deduplicated candidate components plus, for each, the index (into
    the sorted positive list) of the string it was generated from."""

    components: tuple[Pattern, ...]
    provenance: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.components)

    def texts(self) -> list[str]:
        return [render_pattern(p) for p in self.components]


def generate_components(positives, cfg: LearnerConfig) -> ComponentPool:
    """Enumerate candidate components from positive-set n-grams.

    For every substring of length 1..max_ngram of every positive: all
    variants with at most ``max_wildcards`` characters replaced by the
    wildcard (never all of them), each with at most ``max_quantified``
    quantifiers inserted after non-wildcard atoms.  The pool is deduped
    by value, ordered shortest-canonical-text-first (ties by text), and
    truncated to ``max_pool``.
    """
    return _generate(positives, cfg, skip_gram=None)


def _generate(positives, cfg: LearnerConfig, skip_gram) -> ComponentPool:
    """Shared enumeration; ``skip_gram`` (when given) drops whole n-grams
    early.  Safe inside :func:`learn` because every variant of a gram
    matches a superset of that gram's language, so a gram that hits a
    negative can only produce components the filter would drop anyway."""
    if not positives:
        raise EmptyPositiveSetError("no positive strings to learn from")
    ordered = sorted(set(positives))
    for s in ordered:
        if not s or not in_alphabet(s):
            raise ValueError(f"positive string outside the event alphabet: {s!r}")

    seen: dict[Pattern, int] = {}
    done_grams: set[str] = set()
    for src, s in enumerate(ordered):
        top = min(cfg.max_ngram, len(s))
        for length in range(1, top + 1):
            for start in range(len(s) - length + 1):
                gram = s[start : start + length]
                if gram in done_grams:
                    continue
                done_grams.add(gram)
                if skip_gram is not None and skip_gram(gram):
                    continue
                _expand_gram(gram, src, cfg, seen)

    items = sorted(seen.items(), key=_text_order)[: cfg.max_pool]
    components = tuple(p for p, _ in items)
    provenance = tuple(src for _, src in items)
    return ComponentPool(components, provenance)


def _text_order(item) -> tuple[int, str]:
    text = render_pattern(item[0])
    return len(text), text


def _expand_gram(gram: str, src: int, cfg: LearnerConfig, seen: dict) -> None:
    length = len(gram)
    positions = range(length)
    literal = [_LITERAL[ch] for ch in gram]
    max_wild = min(cfg.max_wildcards, length)
    for n_wild in range(max_wild + 1):
        for wild in combinations(positions, n_wild):
            if n_wild == length:
                continue  # all-wildcard components are forbidden
            base = list(literal)
            for i in wild:
                base[i] = _ANY
            plain = [i for i in positions if i not in wild]
            max_q = min(cfg.max_quantified, len(plain))
            for n_q in range(max_q + 1):
                for q_pos in combinations(plain, n_q):
                    for variant in product(*(_QUANTIFIED[gram[i]] for i in q_pos)):
                        atoms = list(base)
                        for i, atom in zip(q_pos, variant):
                            atoms[i] = atom
                        seen.setdefault(Pattern(tuple(atoms)), src)


def filter_components(pool: ComponentPool, negatives) -> ComponentPool:
    """Keep only components that match no negative string."""
    if not negatives or not pool.components:
        return ComponentPool(pool.components, pool.provenance)
    neg = sorted(set(negatives))
    hits = match_any_of(pool.components, neg)
    keep = [i for i in range(len(pool.components)) if not hits[i]]
    return ComponentPool(
        tuple(pool.components[i] for i in keep),
        tuple(pool.provenance[i] for i in keep),
    )


def greedy_set_cover(cover: np.ndarray) -> list[int]:
    """Row indices chosen greedily until every column of the boolean
    ``(candidates x elements)`` matrix ``cover`` is covered.

    Each round picks the row covering the most still-uncovered columns
    (ties broken by lowest index).  Raises :class:`UncoverableElements`
    when some column is True in no row.
    """
    missing = np.flatnonzero(~cover.any(axis=0))
    if missing.size:
        raise UncoverableElements(missing.tolist())

    uncovered = np.ones(cover.shape[1], dtype=bool)
    chosen: list[int] = []
    while uncovered.any():
        best = int(np.argmax(np.count_nonzero(cover[:, uncovered], axis=1)))
        chosen.append(best)
        uncovered &= ~cover[best]
    return chosen


def learn(positives, negatives, cfg: LearnerConfig | None = None) -> Model:
    """Learn a model matching every positive and no negative.

    Pipeline: generate components from the positives, filter against the
    negatives, append anchored exact-match fallbacks for positives no
    component covers (disjointness guarantees those are safe), then pick
    a cover greedily.  Deterministic for identical inputs regardless of
    set iteration order.
    """
    cfg = cfg or LearnerConfig()
    if not positives:
        raise EmptyPositiveSetError("no positive strings to learn from")
    overlap = set(positives) & set(negatives)
    if overlap:
        raise DisjointnessViolation(overlap)

    pos = sorted(set(positives))
    # the separator is outside the alphabet, so grams cannot straddle values
    blob = "\n".join(sorted(set(negatives)))
    pool = filter_components(_generate(pos, cfg, skip_gram=lambda g: g in blob), negatives)

    cover = match_many(pool.components, pos)
    unreached = np.flatnonzero(~cover.any(axis=0))
    components = pool.components + tuple(exact_pattern(pos[j]) for j in unreached)
    fallback = np.zeros((len(unreached), len(pos)), dtype=bool)
    fallback[np.arange(len(unreached)), unreached] = True

    order = greedy_set_cover(np.vstack([cover, fallback]))
    selected = tuple(components[i] for i in order)
    return Model(selected, generation=0, state_limit=cfg.state_limit)
