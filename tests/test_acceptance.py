"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS lines.

The tracking experiments use a frozen stream fixture calibrated so the
frozen exact-match baseline decays clearly while the self-updating model
keeps detecting the drifting positives at a false-positive cost:

* stream: seed 29, positive_frac 0.34, drift_rate 0.034 per window,
  mutation weights (0.30, 0.10, 0.45, 0.15), 20 positive / 600 negative
  seed tokens, drift step aligned with the tracking window;
* learner caps: max_ngram 3, max_wildcards 1, max_quantified 0;
* the 10k-window run keeps the same per-event drift velocity, so its
  per-window rate is 1 - (1 - 0.034)**10.
"""

import gc
import random
import time
from itertools import islice

import pytest

from driftsig.cli import main as cli_main
from driftsig.engine import compile_set, match_many
from driftsig.learner import LearnerConfig, greedy_set_cover, learn
from driftsig.metrics import WindowRecord
from driftsig.patterns import parse_pattern
from driftsig.streams import DriftConfig, gen_synthetic
from driftsig.tracking import run_tracking

from oracle import backtrack_match, cover_matrix, match_set_bruteforce, random_pattern, random_subject

STREAM_SEED = 29
DRIFT_RATE = 0.034
WEIGHTS = (0.30, 0.10, 0.45, 0.15)
N_NEG_SEEDS = 600
LEARNER = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=0)


def _tracking_pair(window_size, events, drift_rate):
    """Naive and adaptive records over the same frozen stream."""
    results = {}
    for mode in ("naive", "adaptive"):
        cfg = DriftConfig(
            seed=STREAM_SEED,
            drift_rate=drift_rate,
            mutation_weights=WEIGHTS,
            n_neg_seeds=N_NEG_SEEDS,
            window_hint=window_size,
        )
        source = islice(gen_synthetic(cfg), events)
        results[mode] = run_tracking(source, mode, window_size, LEARNER)
    return results


@pytest.fixture(scope="module")
def window_1k():
    start = time.perf_counter()
    results = _tracking_pair(1000, 50_000, DRIFT_RATE)
    results["elapsed"] = time.perf_counter() - start
    return results


@pytest.fixture(scope="module")
def window_10k():
    rate = 1 - (1 - DRIFT_RATE) ** 10
    return _tracking_pair(10_000, 60_000, rate)


def _relative_decrease(records: list[WindowRecord]) -> float:
    first, last = records[0], records[-1]
    return (first.tpr - last.tpr) / first.tpr


def test_criterion_1_paper_set_cover_instance():
    subsets = tuple(
        map(frozenset, [{1, 2}, {2, 3, 4, 5}, {2, 4, 6}, {4, 6, 8}, {1, 3, 5}, {7, 9}, {1, 10}])
    )
    cover = cover_matrix(range(1, 11), subsets)
    # collect the test session's garbage first: a full collection costs
    # 10-40 ms and would otherwise land in the timed call whenever the
    # allocation count happens to cross its threshold there
    gc.collect()
    start = time.perf_counter()
    chosen = greedy_set_cover(cover)
    elapsed = time.perf_counter() - start
    expected = {frozenset({2, 3, 4, 5}), frozenset({4, 6, 8}), frozenset({7, 9}), frozenset({1, 10})}
    assert {subsets[i] for i in chosen} == expected
    assert len(chosen) == 4
    assert elapsed < 0.001
    print(f"\nPASS criterion 1: exhibited 4-subset cover reproduced in {elapsed * 1e6:.0f} us")


def test_criterion_2_perfect_separation_randomized():
    rng = random.Random(20_29)
    alphabet = "abcdefgh01.-_"
    cfg = LearnerConfig(max_ngram=3, max_wildcards=1, max_quantified=1, max_pool=20_000)
    worst = 0.0
    for case in range(200):
        positives = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(1, 20))
        }
        negatives = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(0, 20))
        } - positives
        start = time.perf_counter()
        model = learn(positives, negatives, cfg)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 5.0, f"case {case} took {elapsed:.2f}s"
        assert model.predict_batch(sorted(positives)).all(), f"case {case}: TPR < 1"
        if negatives:
            assert not model.predict_batch(sorted(negatives)).any(), f"case {case}: FPR > 0"
    print(f"\nPASS criterion 2: 200/200 training-perfect models, worst case {worst:.3f}s")


def test_criterion_3_engine_oracle_equivalence():
    rng = random.Random(77_01)
    for _ in range(1000):
        pattern = random_pattern(rng, max_atoms=8)
        subject = random_subject(rng, max_len=16)
        got = bool(match_many([pattern], [subject])[0, 0])
        want = backtrack_match(pattern, subject)
        assert got == want, (pattern.text, subject)
    for _ in range(200):
        patterns = [random_pattern(rng, max_atoms=6) for _ in range(rng.randint(1, 10))]
        matcher = compile_set(patterns)
        for _ in range(5):
            subject = random_subject(rng, max_len=16)
            assert matcher.match_set(subject) == match_set_bruteforce(patterns, subject)
    print("\nPASS criterion 3: 1000 oracle pairs and 200 pattern sets, zero mismatches")


def test_criterion_4_drift_tracking_trend(window_1k):
    naive = window_1k["naive"]
    adaptive = window_1k["adaptive"]
    elapsed = window_1k["elapsed"]

    naive_dec = _relative_decrease(naive)
    adaptive_dec = _relative_decrease(adaptive)
    assert naive_dec >= 0.40, f"fixture drift too weak: naive decrease {naive_dec:.3f}"

    # (a) the self-updating model keeps finding positives
    assert adaptive_dec <= 0.6 * naive_dec, (adaptive_dec, naive_dec)

    # (b) frozen blocklist never fires on a negative
    assert all(r.fpr == 0.0 for r in naive)

    # (c) self-training pays in false positives, monotonically within noise
    assert adaptive[-1].fpr > 0.0
    fprs = [r.fpr for r in adaptive]
    assert all(fprs[i + 1] >= fprs[i] - 0.01 for i in range(len(fprs) - 1))

    # (d) overall detection performance stays comparable
    auc_gap = abs(adaptive[-1].auc - naive[-1].auc)
    assert auc_gap <= 0.10, f"AUC gap {auc_gap:.3f}"

    assert elapsed < 120.0, f"runtime {elapsed:.1f}s"
    print(
        f"\nPASS criterion 4: naive -{naive_dec:.0%} vs adaptive -{adaptive_dec:.0%}, "
        f"adaptive FPR {adaptive[-1].fpr:.3f}, AUC gap {auc_gap:.3f}, {elapsed:.0f}s"
    )


def test_criterion_5_window_size_robustness(window_10k):
    naive = window_10k["naive"]
    adaptive = window_10k["adaptive"]

    naive_dec = _relative_decrease(naive)
    adaptive_dec = _relative_decrease(adaptive)
    assert naive_dec > 0
    assert adaptive_dec <= 0.6 * naive_dec, (adaptive_dec, naive_dec)
    assert all(r.fpr == 0.0 for r in naive)
    assert adaptive[-1].fpr > 0.0
    fprs = [r.fpr for r in adaptive]
    assert all(fprs[i + 1] >= fprs[i] - 0.01 for i in range(len(fprs) - 1))
    print(
        f"\nPASS criterion 5: w=10000 naive -{naive_dec:.0%} vs adaptive -{adaptive_dec:.0%}, "
        f"adaptive FPR {adaptive[-1].fpr:.4f}"
    )


def test_criterion_6_multi_pattern_scaling():
    rng = random.Random(4242)
    corpus = [e.value for e in islice(gen_synthetic(DriftConfig(seed=0)), 10_000)]

    patterns = []
    seen = set()
    while len(patterns) < 1000:
        text = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(rng.randint(5, 9)))
        if text not in seen:
            seen.add(text)
            patterns.append(parse_pattern(text))

    def time_naive(k):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            match_many(patterns[:k], corpus)
            best = min(best, time.perf_counter() - start)
        return best

    def time_combined(k, scans=10):
        matcher = compile_set(patterns[:k])
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(scans):
                matcher.match_any_batch(corpus)
            best = min(best, time.perf_counter() - start)
        return best / scans

    # run both paths once so one-off first-call costs stay out of the timing
    time_naive(10)
    time_combined(10, scans=2)

    naive_ratio = time_naive(1000) / time_naive(10)
    combined_ratio = time_combined(1000) / time_combined(10)
    assert combined_ratio <= 0.25 * naive_ratio, (combined_ratio, naive_ratio)
    print(
        f"\nPASS criterion 6: combined growth x{combined_ratio:.2f} vs "
        f"match-matrix kernel x{naive_ratio:.1f} from k=10 to k=1000"
    )


def test_criterion_7_track_runs_byte_identical(tmp_path):
    flags = [
        "track", "--mode", "adaptive", "--seed", str(STREAM_SEED), "--events", "6000",
        "--window-size", "1000", "--drift-rate", str(DRIFT_RATE),
        "--max-ngram", "3", "--max-quantified", "0",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(flags + ["--out", str(out_a)]) == 0
    assert cli_main(flags + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print("\nPASS criterion 7: identical flags produce byte-identical metrics CSVs")
