"""driftsig: self-updating regex blocklists for drifting event streams.

Learns a shortest-disjunction regex separating positive from negative
strings (regex golf via greedy set cover), keeps it current with a
windowed self-training loop, and quantifies naive-vs-adaptive detection
decay with cumulative TPR/FPR/AUC.

The package root exports the pipeline that the CLI runs: event sources,
the learner, the model and its file format, the tracking loop and its
report.  Every other name is imported from its submodule.
"""

from .errors import DriftsigError
from .learner import LearnerConfig, learn
from .metrics import WindowRecord, read_report
from .model import Model, load_model, save_model
from .patterns import parse_pattern
from .streams import DriftConfig, Event, gen_synthetic, load_blacklist, load_tsv, write_tsv
from .tracking import run_tracking

__version__ = "0.1.0"

__all__ = [
    "DriftConfig",
    "DriftsigError",
    "Event",
    "LearnerConfig",
    "Model",
    "WindowRecord",
    "gen_synthetic",
    "learn",
    "load_blacklist",
    "load_model",
    "load_tsv",
    "parse_pattern",
    "read_report",
    "run_tracking",
    "save_model",
    "write_tsv",
]
