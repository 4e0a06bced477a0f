#!/usr/bin/env python3
"""driftsig pipeline benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the program is imported from
``src/`` and the reference matcher from ``tests/oracle.py``, nothing is
installed.  With ``--trace 0`` a run sets its inputs up five times,
repeats whole rounds of the workload until they have taken ``--seconds``
(stopping at the round boundary nearest to it, and after at least one
round), checks the outputs and prints the end-to-end metrics, with
timings scaled to a reference host speed (see ``hostspeed.py``).  With
``--trace 1`` it alternates untraced and traced rounds for as long, and
prints the per-layer metrics of the first traced round and the tracing
overhead; that round's spans go to ``.perfbench/trace-<workload>.tsv``.  The last line of standard output
is the JSON result; the line before it records the machine and the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
REDEPLOYS = 2  # of a model deployed in prepare, spread over the rounds

# (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = [
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p75", "ms"),
    ("compile_s", "s"),
    ("final_auc", "1"),
    ("model_patterns", "patterns"),
    ("peak_rss_mb", "MB"),
]

clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_facts() -> dict:
    import numpy

    from driftsig import _kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": _kernels.HAVE_NUMBA,
        "kernel_path": "numba" if _kernels.NUMBA_ENABLED else "numpy",
    }


def startup_s() -> float:
    """Wall time of a fresh interpreter that imports the program."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import driftsig.cli"
    start = clock()
    subprocess.run([sys.executable, "-c", code], check=True)
    return clock() - start


def timed_run(wl, seed, seconds, workdir):
    from checks import CheckFailed
    from hostspeed import HostSpeed
    from workloads import deploy_time

    # Every timing is scaled by the host-speed loops timed next to it; the
    # unscaled figures go to the details line.
    speed = HostSpeed()
    speed.tick()
    starts, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        start = clock()
        took = startup_s()
        speed.tick()
        starts.append((took, speed.scale(took, start)))
    for _ in range(SETUP_REPEATS):
        start = clock()
        inp = wl.setup(seed, workdir)
        took = clock() - start
        speed.tick()
        setup_times.append((took, speed.scale(took, start)))

    # compile_s is the median of deploy samples spread over the run: the
    # serve model's deploy in prepare and its redeploys a third and two
    # thirds through the rounds, or else one after each round while deploys
    # have taken less time than rounds; topped up at the end to at least
    # four samples and three seconds.  The served state is dropped
    # before each redeploy, so that no two deployed models are alive at once.
    start = clock()
    state = wl.prepare(inp)
    deploys = [(clock() - start, start)] if wl.compiles_in_prepare else []
    for _ in range(5):
        speed.tick()
    rounds, measured = [], 0.0
    while True:
        start = clock()
        rounds.append(wl.run_round(inp, state, speed))
        measured += clock() - start
        files = wl.model_files(inp, rounds[-1].output)
        if wl.compiles_in_prepare:
            if len(deploys) < REDEPLOYS + 1 and measured >= seconds * len(deploys) / (REDEPLOYS + 1):
                state = None
                start = clock()
                state = wl.prepare(inp)
                deploys.append((clock() - start, start))
                speed.tick()
        elif sum(d for d, _ in deploys) < sum(r.work_s for r in rounds):
            start = clock()
            deploys.append((deploy_time(files), start))
            speed.tick()
        if measured + measured / len(rounds) / 2 >= seconds:
            break
    state = None
    while len(deploys) < 4 or sum(d for d, _ in deploys) < 3.0:
        start = clock()
        deploys.append((deploy_time(files), start))
        speed.tick()
    # the program's footprint, before the checks load models of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = sum(r.failed for r in rounds)
    if failed:
        print(f"{failed} operations failed; the checks cover the rest", file=sys.stderr)
    if not any(r.samples_ms for r in rounds):
        raise SystemExit("every operation failed: nothing to measure")
    correct = True
    try:
        wl.check(inp, rounds[0].output)
        first = wl.digest(rounds[0].output)
        if any(wl.digest(r.output) != first for r in rounds[1:]):
            raise CheckFailed("rounds over the same inputs gave different outputs")
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    def metrics_of(scaled: bool) -> dict:
        def at(seconds, start):
            return speed.scale(seconds, start) if scaled else seconds

        timed = [
            dataclasses.replace(
                r,
                samples_ms=[at(ms / 1e3, t) * 1e3 for ms, t in zip(r.samples_ms, r.starts)],
                work_s=r.work_s * (speed.factor(*r.span) if scaled else 1.0),
            )
            for r in rounds
        ]
        out = wl.summarize(inp, timed)
        out["compile_s"] = statistics.median(at(d, t) for d, t in deploys)
        out["setup_s"] = statistics.median(s[scaled] for s in starts) + statistics.median(
            s[scaled] for s in setup_times
        )
        out["peak_rss_mb"] = peak_rss_mb
        return out

    raw = metrics_of(False)
    metrics = metrics_of(True)
    details = {
        "rounds": len(rounds),
        "measured_s": measured,
        "samples": sum(len(r.samples_ms) for r in rounds),
        "compile_samples": len(deploys),
        "host_speed_loops": len(speed.samples),
        "host_speed_median_s": statistics.median(speed.samples),
        "unscaled": raw,
    }
    units = dict(END_TO_END)
    result = {name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END}
    return correct, sum(r.ops for r in rounds), failed, result, details


def traced_run(wl, seed, seconds, workdir):
    from checks import CheckFailed
    from driftsig import _kernels
    from hostspeed import HostSpeed
    from spantrace import LAYER_METRICS, Tracer, layer_metrics

    start = clock()
    inp = wl.setup(seed, workdir)
    gen_s = clock() - start

    # Untraced and traced rounds alternate until --seconds have passed; the
    # per-layer metrics come from the first traced round, the overhead from
    # the medians of both kinds, each round scaled to the reference host
    # speed by the loops timed around it.
    plain_s, traced_s, ops, failed = [], [], 0, 0
    tracer = plain = traced = None
    speed = HostSpeed()
    speed.tick()

    def timed_round(trace):
        start = clock()
        if trace is None:
            out = wl.run_round(inp, wl.prepare(inp), speed)
        else:
            with trace:
                out = wl.run_round(inp, wl.prepare(inp), speed)
        took = clock() - start
        speed.tick()
        return out, took, speed.scale(took, start)

    began = clock()
    while True:
        out, wall_s, scaled_s = timed_round(None)
        plain_s.append(scaled_s)
        plain = plain or out
        spans = Tracer()
        out_t, wall_t, scaled_t = timed_round(spans)
        traced_s.append(scaled_t)
        if tracer is None:
            tracer, traced, traced_wall = spans, out_t, wall_t
        ops += out.ops + out_t.ops
        failed += out.failed + out_t.failed
        elapsed = clock() - began
        if elapsed + elapsed / len(plain_s) / 2 >= seconds:
            break

    correct = True
    try:
        wl.check(inp, traced.output)
        if wl.digest(traced.output) != wl.digest(plain.output):
            raise CheckFailed("the traced round's output differs from the untraced round's")
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    metrics = layer_metrics(tracer.spans, traced_wall)
    overhead = statistics.median(traced_s) - statistics.median(plain_s)
    metrics["kernels.numba_enabled"] = int(_kernels.NUMBA_ENABLED)
    metrics["streams.gen_s"] = gen_s
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain_s)
    WORKDIR.mkdir(exist_ok=True)
    tracer.dump(WORKDIR / f"trace-{wl.name}.tsv")
    details = {"untraced_s": plain_s, "traced_s": traced_s, "spans": len(tracer.spans)}
    result = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    return correct, ops, failed, result, details


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftsig" / "__init__.py").is_file() or not (TESTS / "oracle.py").is_file():
        print("run from the root of a driftsig checkout: src/driftsig and tests/oracle.py are needed",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = WORKDIR / f"run-{os.getpid()}"
    try:
        if args.trace:
            correct, attempted, failed, metrics, details = traced_run(wl, args.seed, args.seconds, workdir)
        else:
            correct, attempted, failed, metrics, details = timed_run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({"machine": machine_facts(), "run": run, "details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
