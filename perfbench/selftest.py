#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check must accept the program's real output on a small input and
reject the same output with one deliberate corruption: a dropped pattern,
a flipped prediction, an altered count.  The ``re`` translation used for
the serve check is also compared with the backtracking oracle on random
patterns.  Takes about ten seconds; exits 1 if any case fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import shutil
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from driftsig import cli, learner, model as model_mod, tracking  # noqa: E402
from driftsig.metrics import Counts, WindowRecord  # noqa: E402
from driftsig.patterns import exact_pattern, render_pattern  # noqa: E402
from driftsig.streams import gen_synthetic  # noqa: E402
from oracle import backtrack_match, random_pattern, random_subject  # noqa: E402
from spantrace import LAYER_METRICS  # noqa: E402

WORKDIR = ROOT / ".perfbench" / "selftest"
failures: list[str] = []


def case(name, check, good, bad):
    """``check(good)`` must pass and ``check(bad)`` must raise CheckFailed."""
    try:
        check(good)
    except CheckFailed as exc:
        failures.append(f"{name}: rejected the real output ({exc})")
        return
    try:
        check(bad)
    except CheckFailed as exc:
        print(f"PASS {name}: rejected ({exc})")
        return
    failures.append(f"{name}: accepted the corrupted output")


def golf_cases():
    problems = workloads.golf_problems(seed=3, n=3)
    models = [learner.learn(set(p), set(n), workloads.GOLF_LEARNER).texts() for p, n in problems]
    # greedy cover adds a pattern only for positives nothing earlier covers,
    # so dropping the last one leaves a positive unmatched
    dropped = [models[0][:-1]] + models[1:]
    case("golf: one pattern dropped", lambda m: checks.check_golf(problems, m), models, dropped)
    padded = [models[0] + [render_pattern(exact_pattern(p)) for p in problems[0][0]]] + models[1:]
    case("golf: more patterns than positives", lambda m: checks.check_golf(problems, m), models, padded)


def drift_cases():
    events = list(islice(gen_synthetic(workloads.W1_STREAM), 5000))
    snaps = WORKDIR / "snapshots"
    records = tracking.run_tracking(iter(events), "adaptive", 1000, workloads.W1_LEARNER, snapshot_dir=snaps)
    scored = events[1000:]
    c = records[-1].counts
    bumped = records[:-1] + [dataclasses.replace(records[-1], counts=Counts(c.tp + 1, c.fp, c.tn, c.fn))]
    case("drift-adaptive: one count altered", lambda r: checks.check_records(r, scored), records, bumped)
    skewed = records[:-1] + [dataclasses.replace(records[-1], auc=records[-1].auc + 1e-6)]
    case("drift-adaptive: AUC not from the counts", lambda r: checks.check_records(r, scored), records, skewed)

    final = model_mod.load_model(workloads.final_snapshot(snaps))
    sample = [e.value for e in events[:300]]
    preds = final.predict_batch(sample)
    flipped = preds.copy()
    flipped[7] ^= 1
    case("drift-adaptive: one prediction flipped",
         lambda p: checks.check_oracle_predictions(final.patterns, sample, p), preds, flipped)

    def rec(k, tpr, fpr):
        return WindowRecord(k, "x", Counts(), tpr, fpr, (1 + tpr - fpr) / 2, 1)

    naive = [rec(1, 0.9, 0.0), rec(2, 0.45, 0.0)]
    adaptive = [rec(1, 0.9, 0.0), rec(2, 0.65, 0.08)]
    leaky = [naive[0], rec(2, 0.45, 0.001)]
    case("drift-adaptive: naive FPR above 0", lambda n: checks.check_criterion_4(n, adaptive), naive, leaky)


def replay_cases():
    rows, events = workloads.replay_inputs(seed=5, n_events=1000)
    bl, tsv, out = WORKDIR / "blacklist.tsv", WORKDIR / "events.tsv", WORKDIR / "naive.csv"
    bl.write_text("".join(f"{c}\t{d}\n" for c, d in rows), encoding="utf-8")
    workloads.write_events_tsv(events, tsv)

    def track(*flags):
        argv = ["track", "--mode", "naive", "--in", str(tsv), "--window-size", "250", "--out", str(out), *flags]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return out.read_bytes()

    data = track("--blacklist", str(bl), "--positive-categories", "ads,tracking")
    labels = [y for _, y in events]
    # the TSV's own labels are all 0, so a track that skips the relabel
    # reports no positives at all
    case("replay-blacklist: track without the blacklist relabel",
         lambda d: checks.check_replay_csv(d, labels, 250), data, track())
    lines = data.decode().splitlines()
    last = lines[-1].split(",")
    last[2] = str(int(last[2]) + 1)  # tp
    altered = "\n".join(lines[:-1] + [",".join(last)]).encode() + b"\n"
    case("replay-blacklist: one CSV count altered",
         lambda d: checks.check_replay_csv(d, labels, 250), data, altered)
    case("replay-blacklist: one window row missing",
         lambda d: checks.check_replay_csv(d, labels, 250), data, "\n".join(lines[:-1]).encode() + b"\n")


def serve_cases():
    texts = [t.strip() for t in workloads.SERVE_MODEL.read_text(encoding="utf-8").splitlines()]
    small = texts[:60] + texts[-40:]
    path = WORKDIR / "serve_model.txt"
    path.write_text("".join(t + "\n" for t in small), encoding="utf-8")
    exact = [t[1:-1].replace("\\.", ".") for t in texts[-40:]]
    values = [e.value for e in islice(gen_synthetic(workloads.W1_STREAM), 400)] + exact
    preds = model_mod.load_model(path).predict_batch(values)
    flipped = preds.copy()
    flipped[-1] ^= 1
    case("serve: one prediction flipped", lambda p: checks.check_serve(path, values, p), preds, flipped)

    rng = random.Random(11)
    for _ in range(3000):
        pattern = random_pattern(rng)
        subject = random_subject(rng)
        matcher = checks.ModelFileMatcher([render_pattern(pattern)])
        if matcher.label(subject) != int(backtrack_match(pattern, subject)):
            failures.append(f"serve: re translation of {render_pattern(pattern)!r} disagrees on {subject!r}")
            return
    print("PASS serve: re translation agrees with the oracle on 3000 random pattern/string pairs")


def failure_case():
    """A learn call that raises is counted as failed; the others are checked."""
    from hostspeed import HostSpeed

    golf = workloads.WORKLOADS["golf"]
    inp = {"problems": workloads.golf_problems(seed=3, n=3), "workdir": WORKDIR / "golf"}
    real = learner.learn
    calls = []

    def second_fails(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("deliberate failure")
        return real(*args)

    learner.learn = second_fails
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            out = golf.run_round(inp, None, HostSpeed())
    finally:
        learner.learn = real
    try:
        golf.check(inp, out.output)
    except CheckFailed as exc:
        failures.append(f"golf: a failed learn call broke the check of the others ({exc})")
        return
    if (out.ops, out.failed, len(out.samples_ms)) != (3, 1, 2):
        failures.append(f"golf: {out.failed} of {out.ops} learn calls counted as failed, 1 of 3 raised")
    else:
        print("PASS golf: a raising learn call is counted as failed, the other two are checked")


def benchmark_json_case():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import run

    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != run.END_TO_END or layers != LAYER_METRICS or [w["name"] for w in spec["workloads"]] != list(
        workloads.WORKLOADS
    ):
        failures.append("BENCHMARK.json does not list the metrics and workloads the benchmark prints")
    else:
        print("PASS BENCHMARK.json lists exactly the workloads and metrics the benchmark prints")


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    try:
        golf_cases()
        drift_cases()
        replay_cases()
        serve_cases()
        failure_case()
        benchmark_json_case()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
