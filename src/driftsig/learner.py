"""Regex-golf learner.

Given disjoint positive and negative string sets, build candidate
components from positive-set n-grams (with bounded wildcard substitution
and quantifier insertion), drop every component that matches a negative,
then greedily pick a small subset whose union covers all positives.
Positives no surviving component can reach get an anchored exact-match
fallback, so the learned model always separates the two sets perfectly.

Components are token strings, one character per atom (see
:mod:`driftsig.patterns`): a gram is its own literal token string, and
its variants substitute wildcard and quantifier tokens into it, so
deduplication is on strings and the pool is ordered by the canonical
text a translate table gives.  The filter and the cover matrix pack the
token strings through the engine's per-token tables, and only the
components greedy picks become pattern ASTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import itemgetter

import numpy as np

from .alphabet import in_alphabet
from .engine import match_any_of, match_many
from .errors import DisjointnessViolation, EmptyPositiveSetError, UncoverableElements
from .model import Model
from .patterns import ANY_TOKEN, QUANTIFY, exact_pattern, render_tokens, token_pattern


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

    def __post_init__(self):
        if self.max_ngram < 1:
            raise ValueError("max_ngram must be >= 1")
        if min(self.max_wildcards, self.max_quantified, self.max_pool) < 0:
            raise ValueError("caps must be >= 0")


@dataclass
class ComponentPool:
    """Deduplicated candidate components, each an unanchored pattern's
    token string, plus, for each, the index (into the sorted positive
    list) of the string it was generated from."""

    components: tuple[str, ...]
    provenance: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.components)

    def texts(self) -> list[str]:
        return [render_tokens(t) for t in self.components]


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

    # every distinct gram, with the lowest index of a positive holding it:
    # the grams of each length are read off all positives at once, joined
    # by a separator outside the alphabet, and written last to first
    joined = "\n".join(ordered)
    src_at = [src for src, s in enumerate(ordered) for _ in range(len(s) + 1)]
    first: dict[str, int] = {}
    for n in range(1, min(cfg.max_ngram, max(map(len, ordered))) + 1):
        subs = [joined[i : i + n] for i in range(len(joined) - n + 1)]
        first.update(zip(reversed(subs), reversed(src_at[: len(subs)])))

    # grams by length, highest source first (see _expand_grams)
    groups: dict[int, tuple[list[str], list[int]]] = {}
    for gram, src in sorted(first.items(), key=itemgetter(1), reverse=True):
        if "\n" not in gram and (skip_gram is None or not skip_gram(gram)):
            grams, srcs = groups.setdefault(len(gram), ([], []))
            grams.append(gram)
            srcs.append(src)

    seen: dict[str, int] = {}
    for grams, srcs in groups.values():
        _expand_grams(grams, srcs, cfg, seen)

    items = sorted(seen.items(), key=_text_order)[: cfg.max_pool]
    components = tuple(t for t, _ in items)
    provenance = tuple(src for _, src in items)
    return ComponentPool(components, provenance)


def _text_order(item) -> tuple[int, str]:
    text = render_tokens(item[0])
    return len(text), text


def _expand_grams(grams: list[str], srcs: list[int], cfg: LearnerConfig, seen: dict) -> None:
    """Add every variant of the equal-length ``grams`` to ``seen``.

    A gram's plain literals are its own token string.  The grams are
    taken column by column: a variant shape (wildcard positions, then
    quantifier positions and kinds) swaps some columns for a column of
    wildcard tokens or a ``str.translate``d column of quantified tokens,
    and zipping the columns back gives that shape's variant of every gram.
    A component's tokens fix its shape, so shapes never share a component;
    within a shape, ``srcs`` runs from the highest source down, so a
    variant several grams share keeps the lowest.
    """
    length = len(grams[0])
    joined = "".join(grams)
    columns = [joined[i::length] for i in range(length)]
    wild_column = ANY_TOKEN * len(grams)
    positions = range(length)
    # all-wildcard components are forbidden
    for n_wild in range(min(cfg.max_wildcards, length - 1) + 1):
        for wild in combinations(positions, n_wild):
            base = [wild_column if i in wild else col for i, col in enumerate(columns)]
            plain = [i for i in positions if i not in wild]
            for n_q in range(min(cfg.max_quantified, len(plain)) + 1):
                for q_pos in combinations(plain, n_q):
                    for kinds in product(QUANTIFY, repeat=n_q):
                        cols = list(base)
                        for i, table in zip(q_pos, kinds):
                            cols[i] = columns[i].translate(table)
                        seen.update(zip(map("".join, zip(*cols)), srcs))


def filter_components(pool: ComponentPool, negatives) -> ComponentPool:
    """Keep only components that match no negative string."""
    if not negatives or not pool.components:
        return ComponentPool(pool.components, pool.provenance)
    neg = sorted(set(negatives))
    hits = match_any_of(pool.components, neg)
    keep = np.flatnonzero(~hits).tolist()
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
    fallbacks = tuple(exact_pattern(pos[j]) for j in unreached)
    fallback = np.zeros((len(unreached), len(pos)), dtype=bool)
    fallback[np.arange(len(unreached)), unreached] = True

    order = greedy_set_cover(np.vstack([cover, fallback]))
    n = len(pool)
    selected = tuple(token_pattern(pool.components[i]) if i < n else fallbacks[i - n] for i in order)
    return Model(selected)
