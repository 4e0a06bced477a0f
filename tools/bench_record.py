#!/usr/bin/env python3
"""Record a benchmark comparison in ``BENCH_<workload>.json``.

    python3 tools/bench_record.py --workload <name> --pairs <n> --seed <first>

Run from the root of a driftsig checkout.  The committed files of
``HEAD`` are extracted with ``git archive`` into a temporary directory,
and the benchmark's command (``BENCHMARK.json``'s ``command``, for its
``run_seconds``, with ``--trace 0``) runs ``--pairs`` times on each
side: on that copy and on the working tree.  Pair i runs
both sides on seed ``--seed`` + i, the base first in even pairs and the
working tree first in odd ones, with every ``__pycache__`` of both sides
removed before each run.  A failed check aborts the recording.  Each
run prints one progress line to stderr with its ``compile_s``,
``events_per_s``, ``rounds`` and ``peak_rss_mb``: a side that runs more
rounds holds more of their outputs, which its peak memory reads.

One entry is appended to ``BENCH_<workload>.json`` at the repository
root:

- ``commit``: the working tree's ``HEAD``, with a ``+`` appended when it
  differs from ``HEAD`` (the entry is committed with those changes), and
  ``position``: the number of commits up to the measured code, which
  orders the entries;
- ``parent``: ``HEAD``, the base; ``date``; ``machine``: perfbench's machine
  line and the platform; ``command``: the run command, ``{seed}`` for the
  seed; ``seeds`` and ``pairs``;
- ``wins``: per end-to-end metric, the pairs in which the working tree
  reads better than the base (ties count for neither);
- ``change`` and ``base``: per end-to-end metric and for ``rounds``
  (perfbench's ``details.rounds``), the ``median`` and the quartiles
  ``q1`` and ``q3`` of the side's runs (``statistics.quantiles``,
  inclusive method).
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, written under ``dest``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def run_once(checkout: Path, command: list[str]) -> tuple[dict, dict]:
    """One perfbench run in ``checkout``: its run line and its result line."""
    for cache in checkout.glob("**/__pycache__"):
        shutil.rmtree(cache)
    proc = subprocess.run([sys.executable, *command[1:]], cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"{' '.join(command)} in {checkout} exited with {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = benchmark["end_to_end"]
    template = [*benchmark["command"], "--workload", args.workload, "--seed", "{seed}",
                "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))
    runs = {"change": [], "base": []}
    machine = None
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        extract(head, Path(tmp))
        checkouts = {"change": ROOT, "base": Path(tmp)}
        for i in range(args.pairs):
            command = [part.format(seed=args.seed + i) for part in template]
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                line, result = run_once(checkouts[side], command)
                machine = machine or line["machine"]
                runs[side].append({"rounds": line["details"]["rounds"],
                                   **{m: v["value"] for m, v in result["metrics"].items()}})
                shown = ("compile_s", "events_per_s", "rounds", "peak_rss_mb")
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      + " ".join(f"{m}={runs[side][-1][m]:.6g}" for m in shown),
                      file=sys.stderr)

    wins = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        wins[name] = sum(sign * (c[name] - b[name]) > 0 for c, b in zip(runs["change"], runs["base"]))
    names = [m["name"] for m in end_to_end] + ["rounds"]
    entry = {
        "commit": head + ("+" if dirty else ""),
        "position": int(git("rev-list", "--count", "HEAD")) + dirty,
        "parent": head,
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": {**machine, "platform": platform.platform()},
        "command": template,
        "workload": args.workload,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "pairs": args.pairs,
        "wins": wins,
        **{side: {n: summary([r[n] for r in runs[side]]) for n in names} for side in ("change", "base")},
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
