import random

import pytest

from driftsig.metrics import (
    Counts,
    WindowRecord,
    accumulate_pairs,
    auc_point,
    rates,
    read_report,
    write_report,
)

from oracle import accumulate_reference


def test_accumulate_each_cell():
    c = Counts()
    c = accumulate_pairs(c, [(1, 1)])
    assert c == Counts(tp=1)
    c = accumulate_pairs(c, [(0, 1)])
    assert c == Counts(tp=1, fp=1)
    c = accumulate_pairs(c, [(1, 0)])
    assert c == Counts(tp=1, fp=1, fn=1)
    c = accumulate_pairs(c, [(0, 0)])
    assert c == Counts(tp=1, fp=1, tn=1, fn=1)


def test_accumulate_rejects_bad_labels():
    with pytest.raises(ValueError):
        accumulate_reference(Counts(), 2, 0)


def test_rates_formulas_and_conventions():
    assert rates(Counts(tp=3, fn=1)) == (0.75, 0.0)
    assert rates(Counts(fp=0, tn=10)) == (0.0, 0.0)
    assert rates(Counts()) == (0.0, 0.0)
    assert rates(Counts(fp=1, tn=3)) == (0.0, 0.25)


def test_auc_point_values():
    assert auc_point(1.0, 0.0) == 1.0
    for t in (0.0, 0.3, 0.8, 1.0):
        assert auc_point(t, t) == 0.5
    assert abs(auc_point(0.8, 0.2) - 0.8) < 1e-12


def test_auc_point_bounds_and_monotonicity():
    grid = [i / 20 for i in range(21)]
    for tpr in grid:
        for fpr in grid:
            v = auc_point(tpr, fpr)
            assert 0.0 <= v <= 1.0
    for fpr in grid:
        vals = [auc_point(t, fpr) for t in grid]
        assert vals == sorted(vals)
    for tpr in grid:
        vals = [auc_point(tpr, f) for f in grid]
        assert vals == sorted(vals, reverse=True)


def test_accumulation_order_independent():
    rng = random.Random(8)
    pairs = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(500)]
    total = accumulate_pairs(Counts(), pairs)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    assert accumulate_pairs(Counts(), shuffled) == total
    one_by_one = Counts()
    for y, p in pairs:
        one_by_one = accumulate_reference(one_by_one, y, p)
    assert one_by_one == total


def test_counts_merge_is_fieldwise_addition():
    a = Counts(1, 2, 3, 4)
    b = Counts(10, 20, 30, 40)
    assert a + b == Counts(11, 22, 33, 44)


def _record(window, mode="adaptive", tp=5, fp=1, tn=10, fn=2, size=3):
    c = Counts(tp, fp, tn, fn)
    tpr, fpr = rates(c)
    return WindowRecord(window, mode, c, tpr, fpr, auc_point(tpr, fpr), size)


def test_write_report_empty_and_single(tmp_path):
    path = tmp_path / "m.csv"
    write_report([], path)
    assert path.read_text() == "window,mode,tp,fp,tn,fn,tpr,fpr,auc,model_size\n"
    write_report([_record(1)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1,adaptive,5,1,10,2,")


def test_report_round_trip(tmp_path):
    records = [_record(i, tp=i * 3 + 1, fp=i, tn=20 - i, fn=2) for i in range(1, 6)]
    path = tmp_path / "m.csv"
    write_report(records, path)
    back = read_report(path)
    assert len(back) == len(records)
    for orig, got in zip(records, back):
        assert got.window == orig.window
        assert got.mode == orig.mode
        assert got.counts == orig.counts
        assert got.model_size == orig.model_size
        assert abs(got.tpr - orig.tpr) < 5e-7
        assert abs(got.fpr - orig.fpr) < 5e-7
        assert abs(got.auc - orig.auc) < 5e-7
