"""Command-line front end.

Subcommands mirror the pipeline stages: ``gen`` writes a synthetic
labeled stream, ``learn`` plays regex golf on two string files, ``track``
runs the windowed naive/adaptive experiment and writes the metrics CSV
one row per window as each is scored, ``bench`` times the combined
automaton against the learner's match-matrix kernel and reports its
compile time.

Exit codes are stable for scripting: 0 success, 2 disjointness
violation, 3 insufficient stream, 4 automaton capacity exceeded,
1 anything else.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from contextlib import closing
from itertools import islice

from .alphabet import ALPHABET
from .engine import DEFAULT_STATE_LIMIT, compile_set, match_many
from .errors import CapacityError, DisjointnessViolation, DriftsigError, InsufficientStreamError
from .learner import LearnerConfig, learn
from .metrics import ReportWriter
from .model import save_model
from .patterns import Pattern, parse_pattern
from .streams import DriftConfig, Event, bootstrap_label, gen_synthetic, load_blacklist, load_tsv, write_tsv
from .tracking import MODES, run_tracking

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DISJOINTNESS = 2
EXIT_INSUFFICIENT = 3
EXIT_CAPACITY = 4


class _Parser(argparse.ArgumentParser):
    # usage problems belong to the generic failure code, not exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_drift_flags(p):
    d = DriftConfig
    p.add_argument("--seed", type=int, default=d.seed, help="RNG seed for the synthetic stream")
    p.add_argument("--positive-frac", type=float, default=d.positive_frac, help="target positive fraction")
    p.add_argument("--drift-rate", type=float, default=d.drift_rate,
                   help="per-window mutation probability of each positive seed token")
    p.add_argument("--n-pos-seeds", type=int, default=d.n_pos_seeds, help="positive token pool size")
    p.add_argument("--n-neg-seeds", type=int, default=d.n_neg_seeds, help="negative token pool size")
    p.add_argument("--window-hint", type=int, default=d.window_hint, help="events per drift step")


def _add_learner_flags(p):
    d = LearnerConfig
    p.add_argument("--max-ngram", type=int, default=d.max_ngram, help="longest substring used as a component")
    p.add_argument("--max-wildcards", type=int, default=d.max_wildcards,
                   help="max '.' substitutions per component")
    p.add_argument("--max-quantified", type=int, default=d.max_quantified,
                   help="max quantifier insertions per component")
    p.add_argument("--max-pool", type=int, default=d.max_pool, help="component pool cap after dedup")


def _drift_config(args) -> DriftConfig:
    return DriftConfig(
        positive_frac=args.positive_frac,
        drift_rate=args.drift_rate,
        n_pos_seeds=args.n_pos_seeds,
        n_neg_seeds=args.n_neg_seeds,
        window_hint=args.window_hint,
        seed=args.seed,
    )


def _learner_config(args) -> LearnerConfig:
    return LearnerConfig(
        max_ngram=args.max_ngram,
        max_wildcards=args.max_wildcards,
        max_quantified=args.max_quantified,
        max_pool=args.max_pool,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftsig", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[], help="write a synthetic labeled events TSV")
    _add_drift_flags(p_gen)
    p_gen.add_argument("--events", type=int, required=True, help="number of events to write")
    p_gen.add_argument("--out", required=True, help="output TSV path")

    p_learn = sub.add_parser("learn", help="learn a model from positive/negative string files")
    p_learn.add_argument("--positives", required=True, help="file with one positive string per line")
    p_learn.add_argument("--negatives", required=True, help="file with one negative string per line")
    p_learn.add_argument("--out", required=True, help="output model file")
    _add_learner_flags(p_learn)

    p_track = sub.add_parser("track", help="run the windowed tracking experiment")
    p_track.add_argument("--in", dest="in_path", help="events TSV to replay (else synthetic)")
    p_track.add_argument("--events", type=int, default=50_000,
                         help="synthetic event count when no --in file is given")
    p_track.add_argument("--mode", required=True, choices=MODES)
    p_track.add_argument("--window-size", type=int, default=1000)
    p_track.add_argument("--out", required=True, help="metrics CSV path")
    p_track.add_argument("--snapshots", help="directory for model_gen<k>.txt snapshots")
    p_track.add_argument("--blacklist", help="category<TAB>domain file relabeling the --in stream")
    p_track.add_argument("--positive-categories", default="ads",
                         help="comma-separated blacklist categories treated as positive")
    p_track.add_argument("--state-limit", type=int, default=DEFAULT_STATE_LIMIT,
                         help="combined automaton state limit")
    _add_drift_flags(p_track)
    _add_learner_flags(p_track)

    p_bench = sub.add_parser("bench", help="time the combined automaton vs the match-matrix kernel")
    p_bench.add_argument("--pattern-counts", default="10,100,1000",
                         help="comma-separated pattern set sizes")
    p_bench.add_argument("--events", type=int, default=10_000, help="corpus size")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeats", type=int, default=3, help="timing repetitions (best taken)")
    p_bench.add_argument("--out", required=True, help="output CSV path")
    p_bench.add_argument("--state-limit", type=int, default=DEFAULT_STATE_LIMIT)

    return parser


def _check_events(args) -> None:
    if args.events < 0:
        raise ValueError("--events must be >= 0")


def cmd_gen(args) -> int:
    _check_events(args)
    events = islice(gen_synthetic(_drift_config(args)), args.events)
    n = write_tsv(events, args.out)
    print(f"wrote {n} events to {args.out}")
    return EXIT_OK


def _read_strings(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def cmd_learn(args) -> int:
    positives = set(_read_strings(args.positives))
    negatives = set(_read_strings(args.negatives))
    model = learn(positives, negatives, _learner_config(args))
    save_model(model, args.out)

    values = sorted(positives) + sorted(negatives)
    matched = match_many(model.patterns, values).any(axis=0)
    tpr = matched[: len(positives)].mean()
    fpr = matched[len(positives) :].mean() if negatives else 0.0
    print(f"patterns: {model.size}")
    print(f"training tpr: {tpr:.6f}")
    print(f"training fpr: {fpr:.6f}")
    return EXIT_OK


def cmd_track(args) -> int:
    _check_events(args)
    cfg = _learner_config(args)
    if args.blacklist and not args.in_path:
        raise ValueError("--blacklist needs --in")
    if args.in_path:
        events = load_tsv(args.in_path)
        if args.blacklist:
            events = _relabel(events, _positive_domains(args.blacklist, args.positive_categories))
    else:
        events = islice(gen_synthetic(_drift_config(args)), args.events)

    with closing(ReportWriter(args.out)) as report:
        records = run_tracking(
            events,
            mode=args.mode,
            window_size=args.window_size,
            cfg=cfg,
            snapshot_dir=args.snapshots,
            on_record=report.write,
            state_limit=args.state_limit,
        )

    first, last = records[0], records[-1]
    decrease = (first.tpr - last.tpr) / first.tpr if first.tpr > 0 else 0.0
    print(f"windows: {len(records)}")
    print(f"final tpr: {last.tpr:.6f}")
    print(f"final fpr: {last.fpr:.6f}")
    print(f"final auc: {last.auc:.6f}")
    print(f"tpr decrease: {decrease:.6f}")
    return EXIT_OK


def _positive_domains(path, names: str) -> set[str]:
    """The union of the blacklist categories named in the comma-separated
    ``names``; naming no category, or one the blacklist lacks, is an error."""
    blacklist = load_blacklist(path)
    categories = [c for c in names.split(",") if c]
    if not categories:
        raise ValueError("--positive-categories names no category")
    missing = [c for c in categories if c not in blacklist]
    if missing:
        raise ValueError(f"--positive-categories not in the blacklist: {', '.join(missing)}")
    return set().union(*(blacklist[c] for c in categories))


def _relabel(events, positive: set[str]):
    """The events with each label replaced by the blacklist's; each
    distinct value is looked up once, and an event whose label does not
    change is passed on as it is."""
    labels: dict[str, int] = {}
    for e in events:
        label = labels.get(e.value)
        if label is None:
            label = labels[e.value] = bootstrap_label(e.value, positive)
        yield e if label == e.truth else Event(e.seq, e.value, label)


def _random_literal_pattern(rng: random.Random) -> Pattern:
    letters = ALPHABET[:36]  # letters and digits only
    text = "".join(rng.choice(letters) for _ in range(rng.randint(5, 9)))
    return parse_pattern(text)


def cmd_bench(args) -> int:
    counts = [int(c) for c in args.pattern_counts.split(",") if c != ""]
    if min(args.events, args.repeats, args.state_limit) < 1:
        raise ValueError("--events, --repeats and --state-limit must be >= 1")
    if min(counts, default=0) < 0:
        raise ValueError("--pattern-counts must be >= 0")
    rng = random.Random(args.seed)
    corpus = [e.value for e in islice(gen_synthetic(DriftConfig(seed=args.seed)), args.events)]

    rows = []
    for k in counts:
        patterns = []
        seen = set()
        while len(patterns) < k:
            pat = _random_literal_pattern(rng)
            if pat.text not in seen:
                seen.add(pat.text)
                patterns.append(pat)

        start = time.perf_counter_ns()
        matcher = compile_set(patterns, args.state_limit)
        compile_ns = time.perf_counter_ns() - start
        naive_best = combined_best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter_ns()
            if patterns:
                match_many(patterns, corpus)
            naive_best = min(naive_best, time.perf_counter_ns() - start)

            start = time.perf_counter_ns()
            matcher.match_any_batch(corpus)
            combined_best = min(combined_best, time.perf_counter_ns() - start)
        rows.append((k, naive_best / len(corpus), combined_best / len(corpus), compile_ns / 1e6))
        print(f"k={k}: naive {rows[-1][1]:.1f} ns/event, combined {rows[-1][2]:.1f} ns/event, "
              f"compile {rows[-1][3]:.1f} ms")

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("k,naive_ns_per_event,combined_ns_per_event,compile_ms\n")
        for k, naive_ns, combined_ns, compile_ms in rows:
            fh.write(f"{k},{naive_ns:.1f},{combined_ns:.1f},{compile_ms:.1f}\n")
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "learn": cmd_learn,
    "track": cmd_track,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return _COMMANDS[args.command](args)
    except DisjointnessViolation as exc:
        print("error: positive and negative inputs overlap", file=sys.stderr)
        for s in exc.strings:
            print(f"  {s}", file=sys.stderr)
        return EXIT_DISJOINTNESS
    except InsufficientStreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DriftsigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
