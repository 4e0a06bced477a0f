"""Detection model: an ordered disjunction of patterns, plus file I/O.

A model predicts positive when any of its patterns matches the event
string; the empty model predicts negative for everything.  Updates never
drop patterns -- new ones are unioned in, ensemble style -- so a
generation's automaton extends the previous one's rather than being
rebuilt (see :func:`driftsig.engine.extend_set`).  The model owns the
automaton's state limit.
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
    _matcher: MultiMatcher | None = field(default=None, init=False, repr=False, compare=False)
    # the compiled matcher of the model this one was unioned from, until
    # this model's own matcher is built
    _base: MultiMatcher | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.patterns)) != len(self.patterns):
            raise ValueError("model patterns must be unique")
        if self.state_limit < 1:
            raise ValueError("state_limit must be >= 1")

    @property
    def size(self) -> int:
        return len(self.patterns)

    def texts(self) -> list[str]:
        return [render_pattern(p) for p in self.patterns]

    @property
    def matcher(self) -> MultiMatcher:
        """The combined automaton, built once per model generation.

        A model unioned from a compiled one drops its reference to that
        base automaton and serves it as it is when the union appended
        nothing, or else compiles only the appended patterns and extends
        the base with them.  Any other model compiles all of its
        patterns.  Either way the result equals
        ``compile_set(self.patterns, self.state_limit)``.
        """
        if self._matcher is None:
            base, self._base = self._base, None
            if base is None:
                self._matcher = compile_set(self.patterns, self.state_limit)
            elif base.n_patterns == self.size:
                self._matcher = base
            else:
                added = compile_set(self.patterns[base.n_patterns :], self.state_limit)
                self._matcher = extend_set(base, added, self.state_limit)
        return self._matcher

    def predict(self, value: str) -> int:
        return int(self.predict_batch([value])[0])

    def predict_batch(self, values) -> np.ndarray:
        """Labels (0/1) for a sequence of event strings."""
        return self.matcher.match_any_batch(values).astype(np.int8)

    def union(self, new_patterns) -> "Model":
        """Next-generation model with ``new_patterns`` appended, duplicates
        dropped; its matcher starts from this model's, if that is built."""
        merged = tuple(dict.fromkeys(self.patterns + tuple(new_patterns)))
        return Model(merged, self.generation + 1, self.state_limit, _base=self._matcher)


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
