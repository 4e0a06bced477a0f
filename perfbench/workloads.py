"""The four benchmark workloads.

Each workload makes its inputs from the seed (``setup``), runs one
round of fixed work (``run_round``), checks a round's outputs against a
computation made apart from the program (``check``), and turns the
rounds of a run into the end-to-end metrics (``summarize``).  Every
workload reports every end-to-end metric; README.md gives what each one
means on each workload.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from driftsig import cli, learner, model as model_mod, tracking
from driftsig.learner import LearnerConfig
from driftsig.metrics import write_report
from driftsig.streams import DriftConfig, gen_synthetic

import checks
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
SERVE_MODEL = HERE / "data" / "serve_model.txt"

clock = time.perf_counter


@dataclass
class Round:
    ops: int                    # operations attempted in the round
    samples_ms: list[float]     # one latency per operation
    starts: list[float]         # clock() at the start of each sample
    work_s: float               # time of the program calls the round times
    span: tuple[float, float]   # clock() at the start and end of that work
    events: int                 # input events (or strings) those calls consumed
    output: dict = field(default_factory=dict)
    failed: int = 0             # operations that raised


def attempt(call, *args):
    """``call(*args)``, or None when it raises: the error goes to standard
    error and the caller counts the operation as failed."""
    try:
        return call(*args)
    except Exception:
        traceback.print_exc()
        return None


def quartiles(values):
    """(p50, p75) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def final_snapshot(snapshot_dir: Path) -> Path:
    """The highest-generation ``model_gen<k>.txt`` in a snapshot directory."""
    return max(snapshot_dir.glob("model_gen*.txt"), key=lambda p: int(p.stem[len("model_gen"):]))


def deploy_time(model_paths) -> float:
    """Time of ``load_model`` plus the first ``Model.matcher``, summed over
    ``model_paths``: from pushing model files to serving them."""
    start = clock()
    for path in model_paths:
        model_mod.load_model(path).matcher
    return clock() - start


# ---------------------------------------------------------------------------
# drift-adaptive: ROADMAP W1, the paper's self-training loop
# ---------------------------------------------------------------------------

# The criterion-4 stream of tests/test_acceptance.py.  Its window contents
# stay fixed: the criterion-4 properties are calibrated on this stream and
# do not hold for every stream seed (stream seed 1: naive decay 0.39 and an
# AUC gap of 0.14).  The benchmark seed shuffles the events inside each
# window, which the loop must not notice: a window is learned as two sets.
W1_STREAM = DriftConfig(
    seed=29,
    drift_rate=0.034,
    mutation_weights=(0.30, 0.10, 0.45, 0.15),
    n_neg_seeds=600,
    window_hint=1000,
)
W1_EVENTS = 50_000
W1_WINDOW = 1000
W1_LEARNER = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0)
W1_ORACLE_SAMPLE = 300


class Workload:
    """Defaults shared by the workloads."""

    compiles_in_prepare = False  # prepare() deploys the model_files

    def prepare(self, inp):
        return None

    def digest(self, out) -> bytes:
        """Bytes two rounds over the same inputs must reproduce exactly."""
        return out["csv"]

    def model_files(self, inp, out) -> list:
        """Model files a round produced; ``compile_s`` deploys them."""
        return []


class DriftAdaptive(Workload):
    name = "drift-adaptive"

    def setup(self, seed, workdir: Path):
        events = list(islice(gen_synthetic(W1_STREAM), W1_EVENTS))
        rng = random.Random(seed)
        shuffled = []
        for start in range(0, len(events), W1_WINDOW):
            chunk = events[start : start + W1_WINDOW]
            rng.shuffle(chunk)
            shuffled.extend(chunk)
        return {"events": shuffled, "seed": seed, "workdir": workdir / self.name}

    @staticmethod
    def _stamped(events, window_ms, starts, speed, ticks):
        """Event source that times each window boundary: from the pull of a
        window's last event to the pull of the next event (or the end).  The
        host-speed sample taken at each boundary is kept out of the window."""
        for i, event in enumerate(events):
            if i % W1_WINDOW == W1_WINDOW - 1:
                ticks.append(speed.tick())
                start = clock()
                yield event
                window_ms.append((clock() - start) * 1e3)
                starts.append(start)
            else:
                yield event

    def run_round(self, inp, state, speed) -> Round:
        snaps = _fresh_dir(inp["workdir"] / "snapshots")
        window_ms: list[float] = []
        starts: list[float] = []
        ticks: list[float] = []
        source = self._stamped(inp["events"], window_ms, starts, speed, ticks)
        start = clock()
        records = tracking.run_tracking(source, "adaptive", W1_WINDOW, W1_LEARNER, snapshot_dir=snaps)
        end = clock()
        report = inp["workdir"] / "adaptive.csv"
        write_report(records, report)
        final = final_snapshot(snaps)
        # window 0 is the bootstrap learn
        return Round(len(window_ms) - 1, window_ms[1:], starts[1:], end - start - sum(ticks), (start, end),
                     len(inp["events"]), {"records": records, "csv": report.read_bytes(), "final_model": final})

    def check(self, inp, out) -> None:
        events = inp["events"]
        scored = events[W1_WINDOW : (len(events) // W1_WINDOW) * W1_WINDOW]
        checks.check_records(out["records"], scored)
        naive = tracking.run_tracking(iter(events), "naive", W1_WINDOW, W1_LEARNER)
        checks.check_records(naive, scored)
        checks.check_criterion_4(naive, out["records"])
        final = model_mod.load_model(out["final_model"])
        if final.size != out["records"][-1].model_size:
            raise CheckFailed("final snapshot size differs from the last record's model_size")
        rng = random.Random(inp["seed"])
        sample = [e.value for e in rng.sample(events, W1_ORACLE_SAMPLE)]
        checks.check_oracle_predictions(final.patterns, sample, final.predict_batch(sample))

    def model_files(self, inp, out) -> list:
        return [out["final_model"]]

    def summarize(self, inp, rounds):
        last = rounds[0].output["records"][-1]
        samples = [ms for r in rounds for ms in r.samples_ms]
        p50, p75 = quartiles(samples)
        return {
            "events_per_s": sum(r.events for r in rounds) / sum(r.work_s for r in rounds),
            "op_ms_p50": p50,
            "op_ms_p75": p75,
            "final_auc": last.auc,
            "model_patterns": last.model_size,
        }


# ---------------------------------------------------------------------------
# golf: independent learn calls, quantifiers on
# ---------------------------------------------------------------------------

# Criterion-2 alphabet and caps.  Problem sizes are fixed (6 positives, 6
# negatives, 6 characters each) so that per-problem cost varies little
# from one problem set to the next.  The problems themselves are fixed too:
# the seed renames the letters among themselves and the digits among
# themselves, and orders the problems.  With problems drawn from the seed,
# the total cover size over 40 problems spread by 4.5% between seeds,
# which would hide a worse cover of that size; renamed problems keep it
# the same for every seed.
GOLF_ALPHABET = "abcdefgh01.-_"
GOLF_RENAMED = ("abcdefgh", "01")
GOLF_LEARNER = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1, max_pool=20_000)
GOLF_PROBLEMS = 40
GOLF_SET_SIZE = 6
GOLF_STRING_LEN = 6
GOLF_PROBLEM_SEED = 7


def golf_problems(seed, n=GOLF_PROBLEMS, size=GOLF_SET_SIZE, length=GOLF_STRING_LEN):
    rng = random.Random(GOLF_PROBLEM_SEED)

    def draw():
        return "".join(rng.choice(GOLF_ALPHABET) for _ in range(length))

    problems = []
    for _ in range(n):
        pos: set[str] = set()
        while len(pos) < size:
            pos.add(draw())
        neg: set[str] = set()
        while len(neg) < size:
            s = draw()
            if s not in pos:
                neg.add(s)
        problems.append((pos, neg))

    rng = random.Random(seed)
    renaming = {}
    for chars in GOLF_RENAMED:
        renaming.update(zip(chars, rng.sample(chars, len(chars))))
    table = str.maketrans(renaming)
    rng.shuffle(problems)
    return [(sorted(s.translate(table) for s in pos), sorted(s.translate(table) for s in neg))
            for pos, neg in problems]


class Golf(Workload):
    name = "golf"

    def setup(self, seed, workdir: Path):
        return {"problems": golf_problems(seed), "workdir": workdir / self.name}

    def run_round(self, inp, state, speed) -> Round:
        samples, starts, models, events = [], [], [], 0
        for pos, neg in inp["problems"]:
            start = clock()
            learned = attempt(learner.learn, set(pos), set(neg), GOLF_LEARNER)
            took = clock() - start
            speed.tick()
            models.append(None if learned is None else learned.texts())
            if learned is not None:
                samples.append(took * 1e3)
                starts.append(start)
                events += len(pos) + len(neg)
        return Round(len(models), samples, starts, sum(samples) / 1e3, (starts[0], clock()), events,
                     {"models": models}, sum(m is None for m in models))

    @staticmethod
    def _learned(inp, out):
        """(problem, model texts) of the problems whose learn call returned."""
        return [(p, m) for p, m in zip(inp["problems"], out["models"]) if m is not None]

    def check(self, inp, out) -> None:
        checks.check_golf(*zip(*self._learned(inp, out)))

    def digest(self, out) -> bytes:
        return "\n\n".join("failed" if t is None else "\n".join(t) for t in out["models"]).encode()

    def model_files(self, inp, out) -> list:
        paths = []
        mdir = _fresh_dir(inp["workdir"] / "models")
        for i, (_, texts) in enumerate(self._learned(inp, out)):
            path = mdir / f"problem{i}.txt"
            path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
            paths.append(path)
        return paths

    def summarize(self, inp, rounds):
        problems, models = zip(*self._learned(inp, rounds[0].output))
        samples = [ms for r in rounds for ms in r.samples_ms]
        p50, p75 = quartiles(samples)
        # every learned model separates its training sets (checked), so the
        # training AUC is 1 unless the check has failed
        return {
            "events_per_s": sum(r.events for r in rounds) / (sum(samples) / 1e3),
            "op_ms_p50": p50,
            "op_ms_p75": p75,
            "final_auc": checks.training_auc(problems, models),
            "model_patterns": sum(len(t) for t in models),
        }


# ---------------------------------------------------------------------------
# replay-blacklist: `driftsig track --mode naive --in --blacklist`, in-process
# ---------------------------------------------------------------------------

BL_CATEGORIES = {"ads": 3000, "tracking": 2000, "malware": 2500, "social": 2500}
BL_POSITIVE = ("ads", "tracking")
BL_TLDS = ("com", "net", "org", "io", "biz")
BL_SUBDOMAINS = ("www", "cdn", "px", "img", "api", "s1", "s2", "m")
REPLAY_EVENTS = 2000
REPLAY_WINDOW = 250
# Each window holds every host of a small positive core REPLAY_CORE_REPEATS
# times, REPLAY_TAIL hosts of a long positive tail that the stream has not
# shown before, then draws from listed negatives and from unlisted hosts.
# Fixed counts per window make the window-0 blocklist (38 hosts) and the
# naive detection rate the same for every seed.
REPLAY_CORE = 10
REPLAY_CORE_REPEATS = 6
REPLAY_TAIL = 28
REPLAY_TAIL_POOL = 2000
REPLAY_NEG = (37, 600)       # draws per window, listed negative hosts
REPLAY_UNLISTED = (125, 600)  # draws per window, unlisted hosts


def _domain(rng) -> str:
    stem = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(5, 10)))
    return f"{stem}.{rng.choice(BL_TLDS)}"


def replay_inputs(seed, n_events=REPLAY_EVENTS):
    """(blacklist rows, events as (value, label)) for one seed; labels come
    from the benchmark's own suffix lookup."""
    rng = random.Random(seed)
    taken: set[str] = set()

    def fresh() -> str:
        while True:
            d = _domain(rng)
            if d not in taken:
                taken.add(d)
                return d

    rows = [(cat, fresh()) for cat, n in BL_CATEGORIES.items() for _ in range(n)]
    rng.shuffle(rows)

    def hosts(domains):
        return [d if rng.random() < 0.5 else f"{rng.choice(BL_SUBDOMAINS)}.{d}" for d in domains]

    n_windows = n_events // REPLAY_WINDOW
    positive = rng.sample([d for c, d in rows if c in BL_POSITIVE], REPLAY_CORE + REPLAY_TAIL_POOL)
    core = hosts(positive[:REPLAY_CORE])
    tail = rng.sample(hosts(positive[REPLAY_CORE:]), REPLAY_TAIL * n_windows)
    negative = hosts(rng.sample([d for c, d in rows if c not in BL_POSITIVE], REPLAY_NEG[1]))
    unlisted = [fresh() for _ in range(REPLAY_UNLISTED[1])]
    lookup = checks.SuffixLookup(d for c, d in rows if c in BL_POSITIVE)
    events = []
    for k in range(n_windows):
        window = (core * REPLAY_CORE_REPEATS + tail[k * REPLAY_TAIL : (k + 1) * REPLAY_TAIL]
                  + rng.choices(negative, k=REPLAY_NEG[0]) + rng.choices(unlisted, k=REPLAY_UNLISTED[0]))
        rng.shuffle(window)
        events.extend((v, lookup.label(v)) for v in window)
    return rows, events


def write_events_tsv(events, path) -> None:
    """The events TSV with every label 0: only `track`'s relabel from the
    blacklist can give the counts the check expects."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{v}\t0\n" for i, (v, _) in enumerate(events))


class ReplayBlacklist(Workload):
    name = "replay-blacklist"

    def setup(self, seed, workdir: Path):
        wdir = _fresh_dir(workdir / self.name)
        rows, events = replay_inputs(seed)
        blacklist = wdir / "blacklist.tsv"
        with open(blacklist, "w", encoding="utf-8") as fh:
            fh.writelines(f"{c}\t{d}\n" for c, d in rows)
        tsv = wdir / "events.tsv"
        write_events_tsv(events, tsv)
        return {"events": events, "blacklist": blacklist, "tsv": tsv, "workdir": wdir}

    def run_round(self, inp, state, speed) -> Round:
        for _ in range(3):
            speed.tick()
        wdir = inp["workdir"]
        snaps = _fresh_dir(wdir / "snapshots")
        out = wdir / "naive.csv"
        argv = [
            "track", "--mode", "naive", "--in", str(inp["tsv"]),
            "--blacklist", str(inp["blacklist"]), "--positive-categories", ",".join(BL_POSITIVE),
            "--window-size", str(REPLAY_WINDOW), "--out", str(out), "--snapshots", str(snaps),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            code = cli.main(argv)
            work_s = clock() - start
        if code != 0:
            raise CheckFailed(f"track exited with {code}")
        return Round(1, [work_s * 1e3], [start], work_s, (start, start + work_s), len(inp["events"]),
                     {"csv": out.read_bytes(), "blocklist": snaps / "model_gen0.txt"})

    def check(self, inp, out) -> None:
        checks.check_replay_csv(out["csv"], [y for _, y in inp["events"]], REPLAY_WINDOW)

    def model_files(self, inp, out) -> list:
        return [out["blocklist"]]

    def summarize(self, inp, rounds):
        rows = list(csv.DictReader(io.StringIO(rounds[0].output["csv"].decode())))
        samples = [ms for r in rounds for ms in r.samples_ms]
        p50, p75 = quartiles(samples)
        return {
            "events_per_s": len(inp["events"]) / (p50 / 1e3),
            "op_ms_p50": p50,
            "op_ms_p75": p75,
            "final_auc": float(rows[-1]["auc"]),
            "model_patterns": int(rows[-1]["model_size"]),
        }


# ---------------------------------------------------------------------------
# serve: a frozen deployed model labels a long stream in batches
# ---------------------------------------------------------------------------

SERVE_EXACT = 2000         # exact blocklist entries in the committed model
SERVE_EXACT_SEED = 4099
SERVE_POOL = 19_000        # W1 stream events, each served SERVE_REPEATS times
SERVE_REPEATS = 5
SERVE_HITS = 5_000         # served events that are exact blocklist entries
SERVE_HIT_ZIPF = 1.0       # popularity exponent of those entries
SERVE_BATCH = 1000
SERVE_CHECK_SAMPLE = 2000


def serve_exact_entries():
    rng = random.Random(SERVE_EXACT_SEED)
    entries: set[str] = set()
    while len(entries) < SERVE_EXACT:
        stem = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(rng.randint(6, 12)))
        entries.add(f"{stem}.{rng.choice(BL_TLDS)}")
    return sorted(entries)


def build_serve_model(workdir: Path):
    """The committed serve model: the final model of an adaptive W1 run
    followed by exact-match entries of a generated blocklist."""
    from driftsig.patterns import exact_pattern

    snaps = _fresh_dir(workdir / "serve-model-snapshots")
    events = islice(gen_synthetic(W1_STREAM), W1_EVENTS)
    tracking.run_tracking(events, "adaptive", W1_WINDOW, W1_LEARNER, snapshot_dir=snaps)
    learned = model_mod.load_model(final_snapshot(snaps))
    return learned.union(exact_pattern(v) for v in serve_exact_entries())


class Serve(Workload):
    """The served stream is the W1 pool, each event SERVE_REPEATS times,
    plus SERVE_HITS requests for exact entries, shuffled by the seed.  The
    5% hit share is an assumption, not a measurement.  Hits follow the
    Zipf popularity (exponent 1) that the program's own stream generator
    gives its negative pool; the seed picks the entries drawn."""

    name = "serve"
    compiles_in_prepare = True

    def setup(self, seed, workdir: Path):
        pool = [(e.value, e.truth) for e in islice(gen_synthetic(W1_STREAM), SERVE_POOL)]
        exact = serve_exact_entries()
        rng = random.Random(seed)
        rng.shuffle(exact)
        weights = [1.0 / (rank + 1) ** SERVE_HIT_ZIPF for rank in range(len(exact))]
        events = pool * SERVE_REPEATS + [(v, 1) for v in rng.choices(exact, weights, k=SERVE_HITS)]
        rng.shuffle(events)
        values = [v for v, _ in events]
        batches = [values[i : i + SERVE_BATCH] for i in range(0, len(values), SERVE_BATCH)]
        return {"batches": batches, "truth": np.array([y for _, y in events]), "seed": seed}

    def prepare(self, inp):
        deployed = model_mod.load_model(SERVE_MODEL)
        deployed.matcher
        return {"model": deployed}

    def model_files(self, inp, out) -> list:
        return [SERVE_MODEL]

    def run_round(self, inp, state, speed) -> Round:
        deployed = state["model"]
        samples, starts, preds, events = [], [], [], 0
        for i, batch in enumerate(inp["batches"]):
            start = clock()
            labels = attempt(deployed.predict_batch, batch)
            took = clock() - start
            preds.append(labels)
            if labels is not None:
                samples.append(took * 1e3)
                starts.append(start)
                events += len(batch)
            if i % 10 == 9:
                speed.tick()
        return Round(len(preds), samples, starts, sum(samples) / 1e3, (starts[0], clock()), events,
                     {"preds": preds, "patterns": deployed.size}, sum(p is None for p in preds))

    @staticmethod
    def _served(inp, out):
        """(values, truth, labels) of the batches that were served."""
        kept = [k for k, p in enumerate(out["preds"]) if p is not None]
        values = [v for k in kept for v in inp["batches"][k]]
        truth = np.concatenate([inp["truth"][k * SERVE_BATCH : (k + 1) * SERVE_BATCH] for k in kept])
        return values, truth, np.concatenate([out["preds"][k] for k in kept])

    def digest(self, out) -> bytes:
        return b"".join(b"failed" if p is None else p.tobytes() for p in out["preds"])

    def check(self, inp, out) -> None:
        values, _, preds = self._served(inp, out)
        rng = random.Random(inp["seed"])
        idx = rng.sample(range(len(values)), SERVE_CHECK_SAMPLE)
        checks.check_serve(SERVE_MODEL, [values[i] for i in idx], preds[idx])

    def summarize(self, inp, rounds):
        _, truth, preds = self._served(inp, rounds[0].output)
        preds, truth = preds == 1, truth == 1
        tpr = (preds & truth).sum() / truth.sum()
        fpr = (preds & ~truth).sum() / (~truth).sum()
        # Batch latency is bimodal on a host whose phases the host-speed
        # scale does not fully correct, and the quartiles of all batches
        # jump from one mode to the other as the share of fast phases
        # crosses a half.  Each pass is short enough to sit in one phase,
        # so the mean of the passes' quartiles moves smoothly instead.
        p50, p75 = np.mean([quartiles(r.samples_ms) for r in rounds if r.samples_ms], axis=0)
        return {
            "events_per_s": sum(r.events for r in rounds) / (sum(ms for r in rounds for ms in r.samples_ms) / 1e3),
            "op_ms_p50": p50,
            "op_ms_p75": p75,
            "final_auc": float(1.0 + tpr - fpr) / 2.0,
            "model_patterns": rounds[0].output["patterns"],
        }


WORKLOADS = {w.name: w for w in (DriftAdaptive(), Golf(), ReplayBlacklist(), Serve())}
