"""driftsig: self-updating regex blocklists for drifting event streams.

Learns a shortest-disjunction regex separating positive from negative
strings (regex golf via greedy set cover), keeps it current with a
windowed self-training loop, and quantifies naive-vs-adaptive detection
decay with cumulative TPR/FPR/AUC.
"""

from .engine import DEFAULT_STATE_LIMIT, MultiMatcher, compile_set, match_many, match_one
from .errors import (
    CapacityError,
    DisjointnessViolation,
    DriftsigError,
    EmptyPositiveSetError,
    InsufficientStreamError,
    LabelError,
    ParseError,
    PatternSyntaxError,
    UncoverableElements,
)
from .learner import (
    ComponentPool,
    LearnerConfig,
    filter_components,
    generate_components,
    greedy_set_cover,
    learn,
)
from .metrics import Counts, WindowRecord, accumulate, auc_point, rates, read_report, write_report
from .model import Model, load_model, save_model
from .patterns import Atom, Pattern, Quant, exact_pattern, parse_pattern, render_pattern
from .streams import DriftConfig, Event, bootstrap_label, gen_synthetic, load_blacklist, load_tsv, write_tsv
from .tracking import WindowOutcome, run_tracking, run_window

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "CapacityError",
    "ComponentPool",
    "Counts",
    "DEFAULT_STATE_LIMIT",
    "DisjointnessViolation",
    "DriftConfig",
    "DriftsigError",
    "EmptyPositiveSetError",
    "Event",
    "InsufficientStreamError",
    "LabelError",
    "LearnerConfig",
    "Model",
    "MultiMatcher",
    "ParseError",
    "Pattern",
    "PatternSyntaxError",
    "Quant",
    "UncoverableElements",
    "WindowOutcome",
    "WindowRecord",
    "accumulate",
    "auc_point",
    "bootstrap_label",
    "compile_set",
    "exact_pattern",
    "filter_components",
    "gen_synthetic",
    "generate_components",
    "greedy_set_cover",
    "learn",
    "load_blacklist",
    "load_model",
    "load_tsv",
    "match_many",
    "match_one",
    "parse_pattern",
    "rates",
    "read_report",
    "render_pattern",
    "run_tracking",
    "run_window",
    "save_model",
    "write_report",
    "write_tsv",
]
