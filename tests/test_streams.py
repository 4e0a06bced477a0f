import hashlib
from itertools import islice

import pytest

from driftsig.alphabet import in_alphabet
from driftsig.errors import LabelError, ParseError
from driftsig.streams import (
    DriftConfig,
    Event,
    bootstrap_label,
    gen_synthetic,
    load_blacklist,
    load_tsv,
    write_tsv,
)

from oracle import spearman_rho


def take(cfg, n):
    return list(islice(gen_synthetic(cfg), n))


def stem_of(value):
    # letters-only stem ends where the digit suffix starts
    head = value.split(".", 1)[0]
    return head[:-1]


def test_same_seed_same_stream():
    cfg = DriftConfig(seed=13)
    assert take(cfg, 1000) == take(cfg, 1000)


def test_golden_stream():
    # sha256 of the first 5000 events: any change to the draw order or the
    # weights changes it
    h = hashlib.sha256()
    for e in take(DriftConfig(seed=29), 5000):
        h.update(f"{e.seq}\t{e.value}\t{e.truth}\n".encode())
    assert h.hexdigest() == "7fca22102d04d35f4984478b2ba39b9facb4dcac2652c262a6908ee69083b9ba"


def test_different_seed_different_stream():
    assert take(DriftConfig(seed=1), 200) != take(DriftConfig(seed=2), 200)


def test_zero_drift_keeps_stem_population():
    cfg = DriftConfig(seed=9, drift_rate=0.0, window_hint=500)
    events = take(cfg, 30_000)
    early = {stem_of(e.value) for e in events[:2000] if e.truth == 1}
    late = {stem_of(e.value) for e in events[-2000:] if e.truth == 1}
    assert late <= early


def test_positive_fraction_concentrates():
    cfg = DriftConfig(seed=7, positive_frac=0.34)
    events = take(cfg, 50_000)
    frac = sum(e.truth for e in events) / len(events)
    assert abs(frac - 0.34) <= 0.01


def test_positive_frac_zero_yields_all_negative():
    cfg = DriftConfig(seed=3, positive_frac=0.0)
    assert all(e.truth == 0 for e in take(cfg, 2000))


def test_alphabet_closure():
    cfg = DriftConfig(seed=5, drift_rate=0.2, window_hint=100)
    assert all(in_alphabet(e.value) and e.value for e in take(cfg, 20_000))


def test_labels_are_a_function_of_value():
    cfg = DriftConfig(seed=11, drift_rate=0.3, window_hint=200)
    seen = {}
    for e in take(cfg, 100_000):
        assert seen.setdefault(e.value, e.truth) == e.truth


def test_seq_is_monotone():
    cfg = DriftConfig(seed=2)
    events = take(cfg, 500)
    assert [e.seq for e in events] == list(range(500))


def test_drift_decays_window_similarity():
    # Jaccard similarity of distinct positive values, window 1 vs window k,
    # should trend down; Spearman over window index across 20 seeds < 0
    rhos = []
    for seed in range(20):
        cfg = DriftConfig(seed=seed, drift_rate=0.25, window_hint=1000)
        events = take(cfg, 12_000)
        windows = [events[i * 1000 : (i + 1) * 1000] for i in range(12)]
        base = {e.value for e in windows[0] if e.truth == 1}
        sims = []
        for win in windows[1:]:
            cur = {e.value for e in win if e.truth == 1}
            sims.append(len(base & cur) / len(base | cur) if base | cur else 0.0)
        rhos.append(spearman_rho(list(range(len(sims))), sims))
    assert sum(rhos) / len(rhos) < 0


def test_drift_config_validation():
    with pytest.raises(ValueError):
        DriftConfig(positive_frac=1.5)
    with pytest.raises(ValueError):
        DriftConfig(drift_rate=-0.1)
    with pytest.raises(ValueError):
        DriftConfig(n_pos_seeds=0)
    with pytest.raises(ValueError):
        DriftConfig(mutation_weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        DriftConfig(window_hint=0)


def test_tsv_round_trip(tmp_path):
    cfg = DriftConfig(seed=4)
    events = take(cfg, 300)
    path = tmp_path / "events.tsv"
    assert write_tsv(events, path) == 300
    back = list(load_tsv(path))
    assert back == events


def test_load_tsv_parses_fields(tmp_path):
    path = tmp_path / "events.tsv"
    path.write_text("0\tads.foo.com\t1\n1\tnews.foo.com\t0\n")
    events = list(load_tsv(path))
    assert events[0] == Event(0, "ads.foo.com", 1)
    assert events[1] == Event(1, "news.foo.com", 0)


@pytest.mark.parametrize(
    "row,line_no",
    [
        ("x\ty", 1),
        ("0\tvalue\t2", 1),
        ("zero\tvalue\t1", 1),
        ("0\tUPPER\t1", 1),
        ("0\t\t1", 1),
    ],
)
def test_load_tsv_parse_errors(tmp_path, row, line_no):
    path = tmp_path / "bad.tsv"
    path.write_text(row + "\n")
    with pytest.raises(ParseError) as err:
        list(load_tsv(path))
    assert err.value.line_no == line_no


def test_load_tsv_second_bad_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\tok.com\t1\nx\ty\n")
    with pytest.raises(ParseError) as err:
        list(load_tsv(path))
    assert err.value.line_no == 2


def test_load_tsv_label_conflict(tmp_path):
    path = tmp_path / "conflict.tsv"
    path.write_text("0\tsame.com\t1\n1\tsame.com\t0\n")
    with pytest.raises(LabelError):
        list(load_tsv(path))


def test_bootstrap_label_suffix_semantics(tmp_path):
    ads = {"doubleclick.net"}
    ads_and_news = ads | {"cnn.com"}
    assert bootstrap_label("x.doubleclick.net", ads) == 1
    assert bootstrap_label("doubleclick.net", ads) == 1
    assert bootstrap_label("example.org", ads) == 0
    assert bootstrap_label("cnn.com", ads) == 0
    assert bootstrap_label("cnn.com", ads_and_news) == 1
    # suffix match is on dot boundaries, not substrings
    assert bootstrap_label("evildoubleclick.net", ads) == 0


def test_load_blacklist(tmp_path):
    path = tmp_path / "bl.tsv"
    path.write_text("# comment\nads\tdoubleclick.net\nads\tadnxs.com\nnews\tcnn.com\n")
    got = load_blacklist(path)
    assert got == {"ads": {"doubleclick.net", "adnxs.com"}, "news": {"cnn.com"}}
    bad = tmp_path / "bad.tsv"
    bad.write_text("justonefield\n")
    with pytest.raises(ParseError):
        load_blacklist(bad)
