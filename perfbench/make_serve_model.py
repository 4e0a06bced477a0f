#!/usr/bin/env python3
"""Regenerate the serve workload's committed model file.

    python3 perfbench/make_serve_model.py

Runs the adaptive W1 loop (about half a minute), appends the exact-match
entries of the generated serve blocklist and writes
``perfbench/data/serve_model.txt``.
"""

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from driftsig.model import save_model  # noqa: E402

from workloads import SERVE_MODEL, build_serve_model  # noqa: E402


def main() -> int:
    workdir = ROOT / ".perfbench" / "make-serve-model"
    try:
        deployed = build_serve_model(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    SERVE_MODEL.parent.mkdir(exist_ok=True)
    save_model(deployed, SERVE_MODEL)
    print(f"wrote {deployed.size} patterns to {SERVE_MODEL.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
