"""Forks compared on whole inputs: each test forces one side of a fork
with a patch and checks that it gives the default side's bytes, on the
committed serve model or on a ``track`` run's CSV and snapshots."""

import contextlib
import random
from unittest import mock

import pytest

from driftsig import _kernels, cli, engine
from driftsig.alphabet import ALPHABET
from driftsig.model import load_model
from driftsig.patterns import exact_pattern, parse_pattern

from oracle import automaton_fields
from test_engine import JOIN_PATHS, all_join_paths
from test_model import SERVE_MODEL


def _serve():
    return list(load_model(SERVE_MODEL).patterns)


def _serve_with_a_long_value():
    rng = random.Random(0)
    value = "".join(rng.choice(ALPHABET) for _ in range(10_000))
    return _serve() + [exact_pattern(value)]


@pytest.mark.parametrize("always_live", [[], ["a?b"]])
def test_serve_model_compiles_as_its_split_to_the_single_construction(always_live):
    # the trie of the committed serve model's start-anchored literals
    # joined to the bitset leaf of its other patterns, alone and with an
    # always-live atom
    patterns = _serve() + [parse_pattern(t) for t in always_live]
    tree = engine.compile_set(patterns)
    single = engine._subset_construction(patterns, engine.DEFAULT_STATE_LIMIT)
    assert tree.n_states == single.n_states == 23006
    assert automaton_fields(tree) == automaton_fields(single)


# the serve model's one join has 9,420,030 pairs (the trie of its 2,002
# start-anchored literals with the bitset leaf of its 212 other
# patterns); a random 10,000-character exact value adds 9,998 states to
# the model's 23,006 and makes it 32,588 x 417
SERVE_JOINS = {
    "serve": (_serve, [9_420_030], 23006),
    "serve plus a 10,000-character value": (_serve_with_a_long_value, [32_588 * 417], 33004),
}


@pytest.fixture(scope="module", params=list(SERVE_JOINS))
def serve_join(request):
    """One list of SERVE_JOINS with its join products and states, and
    the fields of its automaton at the default lookups."""
    build, products, n_states = SERVE_JOINS[request.param]
    patterns = build()
    return patterns, products, n_states, automaton_fields(engine.compile_set(patterns))


@all_join_paths
def test_serve_model_joins_to_the_same_automaton_on_every_lookup(serve_join):
    patterns, products, n_states, default = serve_join
    with mock.patch.object(engine, "extend_set", wraps=engine.extend_set) as joins:
        matcher = engine.compile_set(patterns)
    assert [c.args[0].n_states * c.args[1].n_states for c in joins.call_args_list] == products
    assert matcher.n_states == n_states
    assert automaton_fields(matcher) == default


@contextlib.contextmanager
def _trie_by_subsets(forced):
    build = engine._subset_construction if forced else engine._trie_construction
    with (
        mock.patch.object(engine, "_trie_construction", wraps=build) as trie,
        mock.patch.object(engine, "extend_set", wraps=engine.extend_set) as joins,
    ):
        yield
    # the whole bootstrap list, longer than the leaf cap, enters one trie
    assert [len(c.args[0]) for c in trie.call_args_list] == [766]
    assert joins.call_count == 0


def _joins_by_sorted_keys(forced):
    # at the default bound each generation's join looks its pairs up in
    # a dense table; at 0 every join searches sorted keys (none of the
    # bases is a tree)
    return mock.patch.multiple(engine, **JOIN_PATHS[0]) if forced else contextlib.nullcontext()


@contextlib.contextmanager
def _matches_by_words(forced):
    kernel = _kernels._match_words if forced else _kernels._match_windows
    with (
        mock.patch.object(_kernels, "_match_windows", wraps=kernel) as windows,
        mock.patch.object(_kernels, "_simulate", wraps=_kernels._simulate) as steps,
    ):
        yield
    # all 50 learns take the window route; only the forced word layout
    # steps _simulate
    assert windows.call_count == 50
    assert (steps.call_count > 0) == forced


def _naive_766(tmp_path):
    events = tmp_path / "naive766.tsv"
    assert cli.main(["gen", "--events", "9000", "--seed", "3", "--n-pos-seeds", "200", "--out", str(events)]) == 0
    return ["--in", str(events), "--mode", "naive", "--window-size", "3000"]


def _adaptive_seed_29(tmp_path):
    return ["--mode", "adaptive", "--events", "50000", "--seed", "29"]


def _adaptive_w1_caps(tmp_path):
    return _adaptive_seed_29(tmp_path) + ["--max-ngram", "3", "--max-wildcards", "1", "--max-quantified", "0"]


# each replay's track arguments, the patch that forces one side of a
# fork (with its call counts on either side), and its snapshot count
REPLAYS = {
    # a bootstrap list of 766 exact values, longer than engine._LEAF_PATTERNS
    "naive 766 values, trie by the subset construction": (_naive_766, _trie_by_subsets, 1),
    "adaptive, every join on sorted keys": (_adaptive_seed_29, _joins_by_sorted_keys, 50),
    "adaptive at W1's caps, every match on the word layout": (_adaptive_w1_caps, _matches_by_words, 50),
}


@pytest.mark.parametrize("replay", list(REPLAYS))
def test_track_writes_the_same_csv_and_snapshots_on_either_side_of_a_fork(tmp_path, replay):
    track_args, force, n_snapshots = REPLAYS[replay]
    args = track_args(tmp_path)
    for side in ("forced", "default"):
        with force(side == "forced"):
            assert cli.main(["track", *args, "--out", str(tmp_path / f"{side}.csv"),
                             "--snapshots", str(tmp_path / side)]) == 0
    assert (tmp_path / "forced.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
    snapshots = sorted(p.name for p in (tmp_path / "forced").iterdir())
    assert len(snapshots) == n_snapshots
    assert snapshots == sorted(p.name for p in (tmp_path / "default").iterdir())
    for name in snapshots:
        assert (tmp_path / "forced" / name).read_bytes() == (tmp_path / "default" / name).read_bytes(), name
