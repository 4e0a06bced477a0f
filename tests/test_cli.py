import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import driftsig
from driftsig import _kernels, cli, streams
from driftsig.cli import main
from driftsig.errors import (
    CapacityError,
    DisjointnessViolation,
    DriftsigError,
    EmptyPositiveSetError,
    InsufficientStreamError,
    LabelError,
    ParseError,
    PatternSyntaxError,
    UncoverableElements,
)
from driftsig.learner import LearnerConfig, learn
from driftsig.metrics import read_report
from driftsig.model import load_model
from driftsig.streams import DriftConfig

from oracle import bootstrap_label_reference, load_blacklist_reference, load_tsv_reference


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert run_cli("gen", "--seed", 7, "--events", 100, "--out", a) == 0
    assert run_cli("gen", "--seed", 7, "--events", 100, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 100


def test_gen_positive_frac_zero(tmp_path):
    out = tmp_path / "z.tsv"
    assert run_cli("gen", "--seed", 1, "--events", 500, "--positive-frac", 0, "--out", out) == 0
    labels = {line.split("\t")[2] for line in out.read_text().splitlines()}
    assert labels == {"0"}


def test_gen_positive_count_concentrates(tmp_path):
    out = tmp_path / "c.tsv"
    assert run_cli("gen", "--seed", 3, "--events", 50_000, "--positive-frac", 0.34, "--out", out) == 0
    positives = sum(line.endswith("\t1") for line in out.read_text().splitlines())
    assert 16_500 <= positives <= 17_500


def test_learn_writes_model_and_reports_perfect_rates(tmp_path, capsys):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    out = tmp_path / "model.txt"
    pos.write_text("foo\nfood\n")
    neg.write_text("bar\n")
    assert run_cli("learn", "--positives", pos, "--negatives", neg, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "patterns: 1" in printed
    assert "training tpr: 1.000000" in printed
    assert "training fpr: 0.000000" in printed
    assert load_model(out).texts() == ["f"]


def test_learn_exit_2_on_overlap(tmp_path, capsys):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("same\nother\n")
    neg.write_text("same\n")
    assert run_cli("learn", "--positives", pos, "--negatives", neg, "--out", tmp_path / "m.txt") == 2
    assert "same" in capsys.readouterr().err


def test_learn_empty_negatives_is_training_perfect(tmp_path, capsys):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("aaa\nbbb\nccc\n")
    neg.write_text("")
    out = tmp_path / "m.txt"
    assert run_cli("learn", "--positives", pos, "--negatives", neg, "--out", out) == 0
    model = load_model(out)
    assert model.size <= 3
    assert "training tpr: 1.000000" in capsys.readouterr().out


# "_", "-" and "." are not in _P, so the 1000-character negatives drop
# no gram and match no component
_P = "hs32iugjn0ypze6ury2gfc5wsibq2h5eiw8ofd7zctjwhmj8eszgj51r86jgrwflhf3ddnqhqd1ie3se"
_U = "_" * 1000
_PERFECT = ["training tpr: 1.000000", "training fpr: 0.000000"]
# every proper substring of _W lies in its 65-character prefix or suffix,
# so its one gram is the whole string
_W = "et1p2sq9g5l37iexk036b7hyixban3nu_4tmsemuwzetfzrbhw4_0dz9g_1u4xxnla"
_W_FLAGS = ["--max-ngram", 66, "--max-wildcards", 0, "--max-quantified", 1]

# each learn's positives, negatives, flags, model file lines, printed
# lines and, where pinned, how often its learn steps _kernels._simulate
PINNED_LEARNS = [
    # cutting after the filter would learn the one pattern c. instead
    pytest.param(["bcb", "cac"], ["ac"], ["--max-pool", 9], ["b", ".a"], _PERFECT, None,
                 id="max-pool cut before the filter"),
    # 239 components without the end-quantified variants, 903 with them:
    # a cut at 571 must count them; cutting the pool without them learns
    # .d a.e f0*h instead
    pytest.param(["-fcdaa", "1bhcfh", "cace.-", "fdcfbb", "fgace.", "g1.f0h"],
                 ["1_a.-_", "1_cefe", "ag0cgc", "bacbge", "df1.hh", "ff.he0"],
                 ["--max-ngram", 3, "--max-wildcards", 1, "--max-quantified", 1, "--max-pool", 571],
                 [".d", "a.e", "0h", "1b"], _PERFECT, None, id="max-pool cut that needs the quantified variants"),
    # .b covers two positives; the tail of three then picks in component
    # order, so emitting it in the positives' order learns .b .a 9 1 instead
    pytest.param(["ab", "ba", "k9", "q1x", "zb2"], ["a", "b", "x", "z"],
                 ["--max-ngram", 3, "--max-wildcards", 1, "--max-quantified", 0],
                 [".b", "1", "9", ".a"], _PERFECT, None, id="greedy tail of gain 1"),
    # 114 characters x 18 words of atoms: 131,328 cells, just above
    # _kernels._SMALL_CELLS, so learn's one match takes the word path
    pytest.param(["--bd0f", "_.dh-a", "cb11ca", "cedfg-", "cf10b.", "e_0eee", "fd-bae", "g10ecd", "gc.abg", "gcea0e",
                  "gge1.1"],
                 ["00dged", "1h0dch", "_bb1g.", "_f-d-b", "ad-fcd", "e.__-h", "h..e0-", "h.hehc"],
                 ["--max-ngram", 3, "--max-wildcards", 1, "--max-quantified", 1],
                 [".a", "0e", "d0*f", "0b", "e1"], _PERFECT, 1, id="word path just above the small-input bound"),
    # the cut keeps 5275 of 5293 components, among them 6 of the 24 whose
    # text is 17 bytes; right-padded keys, little-endian words or the last
    # word first each learn another model
    pytest.param(["-.a.ab", "a.........-"], [".-.b.ba.-", "....a", ".a.a...-", ".aa", "aa.b..-.-"],
                 ["--max-ngram", 8, "--max-pool", 5275], ["ab", "\\.\\...\\."], _PERFECT, None,
                 id="max-pool cut over texts wider than 16 bytes"),
    # only grams holding characters 2 and 70 survive; the shortest is
    # P[2:71], 69 atoms.  A pool of fixed-length grams takes the window
    # route, so test_engine, not this learn, steps a pattern across words
    pytest.param([_P], [_P[:2] + "_" + _P[3:], _P[:70] + "_" + _P[71:], _U, _U + "-", _U + ".", _U + "--"],
                 ["--max-ngram", 70, "--max-wildcards", 0, "--max-quantified", 0],
                 [_P[2:71]], ["patterns: 1", *_PERFECT], None, id="one 69-atom pattern"),
    # the quantified variants send the match to the word layout, where every
    # one of the 193 components crosses a word; shifts that drop bit 63
    # learn the fallback ^_W$ instead (test_learn_carries_a_component_across_words)
    pytest.param([_W], [_W[:65], _W[1:]], _W_FLAGS, [_W], ["patterns: 1", *_PERFECT], 1,
                 id="one 66-atom pattern across a state word"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pos, neg, flags, model, printed, steps", PINNED_LEARNS)
def test_learn_writes_its_pinned_model(tmp_path, capsys, monkeypatch, pos, neg, flags, model, printed, steps):
    pos_path, neg_path, out = tmp_path / "pos.txt", tmp_path / "neg.txt", tmp_path / "model.txt"
    pos_path.write_text("".join(v + "\n" for v in pos))
    neg_path.write_text("".join(v + "\n" for v in neg))
    calls = []

    def counted(*args):
        with mock.patch.object(_kernels, "_simulate", wraps=_kernels._simulate) as simulate:
            learned = learn(*args)
        calls.append(simulate.call_count)
        return learned

    monkeypatch.setattr(cli, "learn", counted)
    assert run_cli("learn", "--positives", pos_path, "--negatives", neg_path, *flags, "--out", out) == 0
    assert out.read_bytes() == "".join(line + "\n" for line in model).encode()
    lines = capsys.readouterr().out.splitlines()
    assert all(line in lines for line in printed), lines
    if steps is not None:
        assert calls == [steps]


def test_learn_carries_a_component_across_words():
    # the 66-atom learn above: its pool is _W and its 192 variants with one
    # ? * or + on an interior atom, so its one match steps the word layout,
    # and every shift of the state carries bit 63 into the next word
    carried = []
    shift = _kernels._shift1

    def counted(d, carry, out=None):
        carried.append(carry)
        return shift(d, carry, out)

    with (
        mock.patch.object(_kernels, "_shift1", counted),
        mock.patch.object(_kernels, "_match_words", wraps=_kernels._match_words) as words,
    ):
        model = learn({_W}, {_W[:65], _W[1:]}, LearnerConfig(max_ngram=66, max_wildcards=0, max_quantified=1))
    assert model.texts() == [_W]
    assert words.call_count == 1
    assert len(carried) == sum(carried) == 133


def test_track_naive_fpr_column_zero(tmp_path):
    events = tmp_path / "e.tsv"
    run_cli("gen", "--seed", 5, "--events", 4000, "--out", events)
    out = tmp_path / "m.csv"
    assert run_cli("track", "--in", events, "--mode", "naive", "--window-size", 1000, "--out", out) == 0
    records = read_report(out)
    assert len(records) == 3
    assert all(r.fpr == 0.0 for r in records)
    assert len({r.model_size for r in records}) == 1


def test_track_naive_pins_its_csv_and_snapshots_only_the_bootstrap(tmp_path):
    out, snapshots = tmp_path / "naive.csv", tmp_path / "snapshots"
    assert run_cli("track", "--mode", "naive", "--events", 5000, "--seed", 3, "--window-size", 1000,
                   "--out", out, "--snapshots", snapshots) == 0
    # the CSV's rows end in CRLF
    rows = [
        "window,mode,tp,fp,tn,fn,tpr,fpr,auc,model_size",
        "1,naive,269,0,662,69,0.795858,0.000000,0.897929,138",
        "2,naive,526,0,1343,131,0.800609,0.000000,0.900304,138",
        "3,naive,776,0,1997,227,0.773679,0.000000,0.886839,138",
        "4,naive,1033,0,2641,326,0.760118,0.000000,0.880059,138",
    ]
    assert out.read_bytes() == "".join(row + "\r\n" for row in rows).encode()
    assert [p.name for p in snapshots.iterdir()] == ["model_gen0.txt"]


def test_track_window_arithmetic_drops_remainder(tmp_path):
    events = tmp_path / "e.tsv"
    run_cli("gen", "--seed", 5, "--events", 25_000, "--out", events)
    out = tmp_path / "m.csv"
    assert run_cli(
        "track", "--in", events, "--mode", "naive", "--window-size", 10_000, "--out", out,
        "--max-ngram", 3, "--max-quantified", 0,
    ) == 0
    assert len(read_report(out)) == 1


def test_track_insufficient_stream_exit_3(tmp_path, capsys):
    events = tmp_path / "e.tsv"
    run_cli("gen", "--seed", 5, "--events", 1500, "--out", events)
    code = run_cli("track", "--in", events, "--mode", "naive", "--window-size", 1000,
                   "--out", tmp_path / "m.csv")
    assert code == 3
    assert not (tmp_path / "m.csv").exists()


def test_track_keeps_scored_rows_when_a_later_row_is_malformed(tmp_path, capsys):
    events = tmp_path / "e.tsv"
    run_cli("gen", "--seed", 5, "--events", 500, "--out", events)
    flags = ["track", "--in", events, "--mode", "adaptive", "--window-size", 100,
             "--max-ngram", 3, "--max-quantified", 0]
    assert run_cli(*flags, "--out", tmp_path / "full.csv") == 0
    full = (tmp_path / "full.csv").read_text().splitlines(keepends=True)
    assert len(full) == 5

    lines = events.read_text().splitlines(keepends=True)
    lines[349] = "349\tbroken row\n"  # window 0 is the bootstrap; this is in window 3
    events.write_text("".join(lines))
    out = tmp_path / "m.csv"
    assert run_cli(*flags, "--out", out) == 1
    assert "line 350" in capsys.readouterr().err
    assert out.read_text().splitlines(keepends=True) == full[:3]


def test_track_synthetic_runs_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = run_cli(
        "track", "--mode", "adaptive", "--events", 3000, "--window-size", 1000,
        "--seed", 11, "--out", out, "--max-ngram", 3, "--max-quantified", 0,
        "--snapshots", tmp_path / "snaps",
    )
    assert code == 0
    printed = capsys.readouterr().out
    for key in ("windows:", "final tpr:", "final fpr:", "final auc:", "tpr decrease:"):
        assert key in printed
    assert (tmp_path / "snaps" / "model_gen0.txt").exists()
    records = read_report(out)
    assert [r.window for r in records] == [1, 2]
    assert all(r.mode == "adaptive" for r in records)


def test_track_adaptive_decays_less_than_naive_on_same_file(tmp_path):
    events = tmp_path / "e.tsv"
    run_cli("gen", "--seed", 29, "--events", 12_000, "--drift-rate", 0.08, "--out", events)
    naive_csv = tmp_path / "naive.csv"
    adaptive_csv = tmp_path / "adaptive.csv"
    common = ["--in", events, "--window-size", 1000, "--max-ngram", 3, "--max-quantified", 0]
    assert run_cli("track", "--mode", "naive", "--out", naive_csv, *common) == 0
    assert run_cli("track", "--mode", "adaptive", "--out", adaptive_csv, *common) == 0

    def decrease(records):
        return (records[0].tpr - records[-1].tpr) / records[0].tpr

    naive = read_report(naive_csv)
    adaptive = read_report(adaptive_csv)
    assert decrease(adaptive) < decrease(naive)


def test_track_blacklist_override(tmp_path):
    events = tmp_path / "e.tsv"
    rows = []
    for i in range(400):
        if i % 2 == 0:
            rows.append(f"{i}\tads{i % 7}.adnet.com\t0")  # wrong stored label
        else:
            rows.append(f"{i}\tclean{i % 5}.site.org\t1")
    events.write_text("\n".join(rows) + "\n")
    blacklist = tmp_path / "bl.tsv"
    blacklist.write_text("ads\tadnet.com\n")
    out = tmp_path / "m.csv"
    code = run_cli(
        "track", "--in", events, "--mode", "naive", "--window-size", 100, "--out", out,
        "--blacklist", blacklist, "--positive-categories", "ads",
    )
    assert code == 0
    records = read_report(out)
    # relabeled stream is stationary and perfectly recalled by the blocklist
    assert records[-1].tpr == 1.0
    assert records[-1].fpr == 0.0


def test_track_blacklist_without_in_exit_1(tmp_path, capsys):
    blacklist = tmp_path / "bl.tsv"
    blacklist.write_text("ads\tadnet.com\n")
    out = tmp_path / "m.csv"
    code = run_cli("track", "--mode", "naive", "--events", 2000, "--out", out,
                   "--blacklist", blacklist)
    assert code == 1
    assert "--blacklist needs --in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "categories,message",
    [
        ("ads,trackng", "--positive-categories not in the blacklist: trackng"),
        ("", "--positive-categories names no category"),
    ],
)
def test_track_blacklist_unknown_categories_exit_1_before_reading(tmp_path, capsys, categories, message):
    events = tmp_path / "e.tsv"
    events.write_text("not a row\n")  # reading it would fail at line 1
    blacklist = tmp_path / "bl.tsv"
    blacklist.write_text("ads\tadnet.com\ntracking\tpx.io\n")
    out = tmp_path / "m.csv"
    code = run_cli("track", "--in", events, "--mode", "naive", "--window-size", 100, "--out", out,
                   "--blacklist", blacklist, "--positive-categories", categories)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("bad_row", ["ads site24.com", "ads\tsite24.com\textra"])
def test_track_blacklist_bad_row_in_a_later_block_exit_1(tmp_path, capsys, monkeypatch, bad_row):
    events = tmp_path / "e.tsv"
    run_cli("gen", "--seed", 3, "--events", 2000, "--out", events)
    rows = ["# blocklist"] + [f"ads\tsite{i}.com" for i in range(30)]
    rows[25] = bad_row  # line 26
    blacklist = tmp_path / "bl.tsv"
    blacklist.write_text("\n".join(rows) + "\n")
    # blocks of about three lines, so the rows before the bad one are
    # read and split in blocks of their own
    monkeypatch.setattr(streams, "_BLOCK_BYTES", 40)
    out = tmp_path / "m.csv"
    code = run_cli("track", "--in", events, "--mode", "naive", "--window-size", 1000, "--out", out,
                   "--blacklist", blacklist, "--positive-categories", "ads")
    assert code == 1
    assert capsys.readouterr().err == "error: line 26: expected category<TAB>domain\n"
    assert not out.exists()


def test_track_flag_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(["track", "--mode", "naive", "--out", "m.csv"])
    assert cli._learner_config(args) == LearnerConfig()
    assert cli._drift_config(args) == DriftConfig()


@pytest.mark.parametrize("mode", ["naive", "adaptive"])
def test_track_blacklist_equals_a_relabeled_file(tmp_path, mode):
    # `--blacklist` gives the bytes of a run on the file relabeled by the
    # row-by-row reference readers
    events = tmp_path / "e.tsv"
    run_cli("gen", "--seed", 3, "--events", 3000, "--out", events)
    values = [line.split("\t")[1] for line in events.read_text().splitlines()]
    blacklist = tmp_path / "bl.tsv"
    blacklist.write_bytes(
        f"# blocklist\r\nads\t{values[0]}\r\n\r\n  tracking\t{values[7]}  \n"
        f"news\torg\nads\t{values[1].split('.')[-1]}\n\t ads\t{values[20]}\t\n".encode()
    )
    listed = load_blacklist_reference(blacklist)
    positive = listed["ads"] | listed["tracking"]
    relabeled = tmp_path / "relabeled.tsv"
    relabeled.write_text("".join(
        f"{e.seq}\t{e.value}\t{bootstrap_label_reference(e.value, positive)}\n"
        for e in load_tsv_reference(events)
    ))
    common = ["--mode", mode, "--window-size", 500, "--max-ngram", 3, "--max-quantified", 0]
    assert run_cli("track", "--in", events, "--blacklist", blacklist, "--positive-categories",
                   "ads,tracking", *common, "--out", tmp_path / "a.csv", "--snapshots", tmp_path / "a") == 0
    assert run_cli("track", "--in", relabeled, *common,
                   "--out", tmp_path / "b.csv", "--snapshots", tmp_path / "b") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    snaps = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert snaps == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in snaps:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    last = read_report(tmp_path / "a.csv")[-1]
    assert last.counts.tp + last.counts.fn > 0  # the blacklist marks some events positive


@pytest.mark.parametrize("limit", [0, -5])
def test_track_rejects_state_limit_below_one_exit_1(tmp_path, capsys, limit):
    out = tmp_path / "m.csv"
    code = run_cli("track", "--mode", "adaptive", "--events", 2000, "--window-size", 1000,
                   "--state-limit", limit, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "state_limit" in err
    assert not out.exists()


def test_track_capacity_exit_4_keeps_rows_and_snapshots_before_it(tmp_path, capsys):
    flags = ["track", "--mode", "adaptive", "--events", 6000, "--seed", 0, "--window-size", 1000,
             "--max-ngram", 3, "--max-wildcards", 1, "--max-quantified", 0]
    assert run_cli(*flags, "--out", tmp_path / "full.csv", "--snapshots", tmp_path / "full") == 0
    full = (tmp_path / "full.csv").read_text().splitlines(keepends=True)
    n_gens = len(list((tmp_path / "full").iterdir()))
    gens = [load_model(tmp_path / "full" / f"model_gen{g}.txt") for g in range(n_gens)]
    states = [m.matcher.n_states for m in gens]
    # the first generation after window 1 whose automaton outgrows its
    # predecessor's; the limit admits the predecessor and trips on it
    k = next(k for k in range(2, len(gens)) if states[k] > states[k - 1])
    limit = states[k] - 1
    # each row is scored before its window's union, and generation k's
    # automaton is first compiled by the window after the one that made it
    kept = 1 + sum(int(line.rsplit(",", 1)[1]) <= gens[k].size for line in full[1:])
    assert kept < len(full)  # the limit trips partway through the run

    out, snaps = tmp_path / "m.csv", tmp_path / "snaps"
    assert run_cli(*flags, "--state-limit", limit, "--out", out, "--snapshots", snaps) == 4
    assert f"more than {limit} states" in capsys.readouterr().err
    assert out.read_text().splitlines(keepends=True) == full[:kept]
    assert {p.name for p in snaps.iterdir()} == {f"model_gen{g}.txt" for g in range(k + 1)}
    for g in range(k + 1):
        assert (snaps / f"model_gen{g}.txt").read_text() == (tmp_path / "full" / f"model_gen{g}.txt").read_text()


def test_learn_has_no_state_limit_flag(tmp_path, capsys):
    (tmp_path / "p.txt").write_text("ads\n")
    (tmp_path / "n.txt").write_text("news\n")
    code = run_cli("learn", "--positives", tmp_path / "p.txt", "--negatives", tmp_path / "n.txt",
                   "--out", tmp_path / "m.txt", "--state-limit", 5)
    assert code == 1
    assert "unrecognized arguments: --state-limit 5" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize(
    "command",
    [("gen", "--events", -3), ("track", "--mode", "naive", "--events", -5),
     ("track", "--mode", "adaptive", "--events", -1, "--window-size", 10)],
)
def test_negative_events_rejected_exit_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run_cli(*command, "--out", out) == 1
    assert capsys.readouterr().err == "error: --events must be >= 0\n"
    assert not out.exists()


def test_track_zero_events_exit_3(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert run_cli("track", "--mode", "naive", "--events", 0, "--out", out) == 3
    assert capsys.readouterr().err.startswith("error: need at least")
    assert not out.exists()


def test_bench_writes_expected_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--pattern-counts", "0,5,20", "--events", 300,
                   "--repeats", 1, "--seed", 2, "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,naive_ns_per_event,combined_ns_per_event,compile_ms"
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == [0, 5, 20]
    for line in lines[1:]:
        _, naive_ns, combined_ns, compile_ms = line.split(",")
        assert float(naive_ns) >= 0.0
        assert float(combined_ns) >= 0.0
        assert float(compile_ms) >= 0.0


def test_bench_capacity_exit_4(tmp_path):
    code = run_cli("bench", "--pattern-counts", "50", "--events", 50,
                   "--repeats", 1, "--state-limit", 5, "--out", tmp_path / "b.csv")
    assert code == 4


@pytest.mark.parametrize(
    "flags",
    [
        ("--events", 0),
        ("--events", -3),
        ("--repeats", 0),
        ("--pattern-counts", "5,-1"),
        ("--state-limit", 0),
    ],
)
def test_bench_rejects_bad_values_exit_1(tmp_path, capsys, flags):
    out = tmp_path / "b.csv"
    assert run_cli("bench", "--pattern-counts", "5", "--events", 50, "--repeats", 1,
                   *flags, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "exc,code",
    [
        (DisjointnessViolation({"bb", "aa"}), 2),
        (InsufficientStreamError("stream ended after 1 window"), 3),
        (CapacityError("more than 5 states"), 4),
        (DriftsigError("generic"), 1),
        (EmptyPositiveSetError("no positives"), 1),
        (UncoverableElements([3]), 1),
        (ParseError(7, "bad row"), 1),
        (LabelError("a.com"), 1),
        (PatternSyntaxError("bad", 2), 1),
        (OSError("disk full"), 1),
        (ValueError("bad value"), 1),
    ],
)
def test_error_exit_codes(monkeypatch, capsys, exc, code):
    def stub(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "gen", stub)
    assert run_cli("gen", "--events", 1, "--out", "unused.tsv") == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if code == 2:
        assert err.splitlines()[1:] == ["  aa", "  bb"]
    else:
        assert str(exc) in err


def test_usage_errors_exit_1():
    assert run_cli("track", "--mode", "bogus", "--out", "x.csv") == 1
    assert run_cli("nonsense") == 1
    assert run_cli() == 1
    assert run_cli("bench", "--events", "many", "--out", "x.csv") == 1


def test_missing_input_file_exit_1(tmp_path, capsys):
    assert run_cli("track", "--in", tmp_path / "absent.tsv", "--mode", "naive",
                   "--out", tmp_path / "m.csv") == 1


def test_console_entry_point_runs():
    # the child interpreter imports the same package as this one, even when
    # only pytest's own path setting puts it on the path
    src = str(Path(driftsig.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "driftsig", "gen", "--events", "5", "--out", "/dev/null"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "wrote 5 events" in proc.stdout
