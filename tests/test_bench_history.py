"""The committed benchmark history: every ``BENCH_<workload>.json`` at the
repository root that ``tools/bench_record.py`` appends to."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HISTORY = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
FIELDS = {"commit", "position", "parent", "date", "machine", "command", "workload", "seeds", "pairs", "wins",
          "change", "base"}


def test_the_benchmark_history_is_committed():
    assert HISTORY


@pytest.mark.parametrize("path", HISTORY, ids=lambda path: path.name)
def test_history_entries_are_complete_and_in_commit_order(path):
    entries = json.loads(path.read_text())
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert FIELDS <= entry.keys()
        assert entry["workload"] == path.stem.removeprefix("BENCH_")
        assert entry["pairs"] == len(entry["seeds"]) >= 2
        assert "{seed}" in entry["command"]
        assert entry["wins"].keys() == set(END_TO_END)
        assert all(0 <= won <= entry["pairs"] for won in entry["wins"].values())
        for side in ("change", "base"):
            assert entry[side].keys() == {*END_TO_END, "rounds"}
            assert all(s["q1"] <= s["median"] <= s["q3"] for s in entry[side].values())
    positions = [entry["position"] for entry in entries]
    dates = [entry["date"] for entry in entries]
    assert positions == sorted(positions) and dates == sorted(dates)
