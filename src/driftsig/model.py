"""Detection model: an ordered disjunction of patterns, plus file I/O.

A model predicts positive when any of its patterns matches the event
string; the empty model predicts negative for everything.  Updates never
drop patterns -- new ones are unioned in, ensemble style -- so a
generation's automaton extends the previous one's rather than being
rebuilt (see :func:`driftsig.engine.extend_set`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import DEFAULT_STATE_LIMIT, MultiMatcher, compile_set, extend_set
from .patterns import Pattern, parse_pattern, render_pattern


@dataclass
class Model:
    patterns: tuple[Pattern, ...] = ()
    generation: int = 0
    state_limit: int = DEFAULT_STATE_LIMIT
    _matcher: MultiMatcher | None = field(default=None, repr=False, compare=False)
    # (compiled matcher, pattern count) of the model this one was unioned
    # from, until this model's own matcher is built
    _base: tuple[MultiMatcher, int] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.patterns)) != len(self.patterns):
            raise ValueError("model patterns must be unique")

    @property
    def size(self) -> int:
        return len(self.patterns)

    def texts(self) -> list[str]:
        return [render_pattern(p) for p in self.patterns]

    @property
    def matcher(self) -> MultiMatcher:
        """The combined automaton, built once per model generation.

        A model unioned from a compiled one compiles only the appended
        patterns and extends the base automaton with them, then drops
        its reference to the base; any other model compiles all of its
        patterns.  Either way the result equals
        ``compile_set(self.patterns, self.state_limit)``.
        """
        if self._matcher is None:
            if self._base is None:
                self._matcher = compile_set(self.patterns, self.state_limit)
            else:
                base, n_base = self._base
                added = compile_set(self.patterns[n_base:], self.state_limit)
                self._matcher = extend_set(base, added, n_base, self.state_limit)
                self._base = None
        return self._matcher

    def predict(self, value: str) -> int:
        return int(self.predict_batch([value])[0])

    def predict_batch(self, values) -> np.ndarray:
        """Labels (0/1) for a sequence of event strings."""
        if not self.patterns:
            return np.zeros(len(values), dtype=np.int8)
        return self.matcher.match_any_batch(values).astype(np.int8)

    def union(self, new_patterns) -> "Model":
        """Next-generation model with ``new_patterns`` appended, duplicates dropped.

        If this model's matcher is built, the new model reuses it: as it
        is when nothing new was appended, else as the base that its own
        matcher extends.
        """
        merged = tuple(dict.fromkeys(self.patterns + tuple(new_patterns)))
        if self._matcher is None:
            return Model(merged, self.generation + 1, self.state_limit)
        if len(merged) == len(self.patterns):
            return Model(merged, self.generation + 1, self.state_limit, _matcher=self._matcher)
        return Model(merged, self.generation + 1, self.state_limit, _base=(self._matcher, len(self.patterns)))


def save_model(model: Model, path) -> None:
    """Write one rendered pattern per line (the model file format)."""
    with open(path, "w", encoding="utf-8") as fh:
        for text in model.texts():
            fh.write(text + "\n")


def load_model(path) -> Model:
    """Read a model file; '#' lines are comments, blank lines are skipped."""
    patterns = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line not in seen:
                seen.add(line)
                patterns.append(parse_pattern(line))
    return Model(tuple(patterns))
