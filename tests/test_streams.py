import hashlib
import tracemalloc
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftsig import streams
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

from oracle import (
    bootstrap_label_reference,
    gen_synthetic_reference,
    load_blacklist_reference,
    load_tsv_reference,
    spearman_rho,
)


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
    # sha256 of the first 5000 events and of the whole 50,000-event
    # criterion-4 stream: any change to the draw order or the weights
    # changes them
    h = hashlib.sha256()
    for e in take(DriftConfig(seed=29), 50_000):
        h.update(f"{e.seq}\t{e.value}\t{e.truth}\n".encode())
        if e.seq == 4999:
            assert h.hexdigest() == "7fca22102d04d35f4984478b2ba39b9facb4dcac2652c262a6908ee69083b9ba"
    assert h.hexdigest() == "d54aaecb52bd56b55d547660ec4873bd4f4c8a935b349fe75eb00985d7153831"


@st.composite
def _drift_configs(draw):
    drift_rate = draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0))
    weight = st.sampled_from((0.0, 0.25, 1.0, 3.0))
    weights = draw(st.tuples(weight, weight, weight, weight).filter(lambda w: any(w) or drift_rate == 0))
    return DriftConfig(
        positive_frac=draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)),
        drift_rate=drift_rate,
        mutation_weights=weights,
        n_pos_seeds=draw(st.integers(1, 9)),
        n_neg_seeds=draw(st.integers(1, streams.TAIL_START + 20)),
        window_hint=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_drift_configs(), st.integers(0, 400))
@example(DriftConfig(positive_frac=1.0, drift_rate=1.0, n_pos_seeds=1, n_neg_seeds=1, window_hint=1, seed=1), 300)
@example(DriftConfig(positive_frac=0.0, drift_rate=0.0, mutation_weights=(0.0, 0.0, 0.0, 0.0),
                     n_neg_seeds=streams.TAIL_START - 1, window_hint=7, seed=2), 400)
@example(DriftConfig(drift_rate=1.0, mutation_weights=(0.0, 0.0, 1.0, 0.0), n_pos_seeds=1,
                     n_neg_seeds=streams.TAIL_START + 1, window_hint=5, seed=3), 400)
@example(DriftConfig(positive_frac=0.5, drift_rate=0.5, mutation_weights=(1.0, 1.0, 0.0, 0.0), n_pos_seeds=5,
                     n_neg_seeds=streams.TAIL_START, window_hint=1, seed=4), 400)
def test_gen_synthetic_matches_reference(cfg, n):
    assert take(cfg, n) == list(islice(gen_synthetic_reference(cfg), n))


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


@pytest.mark.parametrize(
    "weights",
    [
        (0.0, 0.0, 0.0, 0.0),
        (float("nan"), 0.1, 0.4, 0.1),
        (float("inf"), 0.0, 0.0, 0.0),
        (1e308, 1e308, 0.0, 0.0),
    ],
    ids=["zero", "nan", "inf", "overflowing-total"],
)
def test_drift_config_rejects_weights_choices_refuses(weights):
    # random.choices would raise these at the first drift step, after a
    # window of events had been yielded
    with pytest.raises(ValueError, match="mutation_weights"):
        DriftConfig(mutation_weights=weights)


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


# --- block readers against the row-by-row references ---------------------

PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=300)

# good values, each with a fixed label
_LABEL_OF = {"a.com": 1, "x.a.com": 0, "b-c_d.net": 1, "0.9": 0, "zz": 0, "q.q.q": 1}
_TERMINATORS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
# sequence numbers that int() reads but only the row reader takes
_ODD_SEQS = ["", " 3", "+3", "-3", "3 ", "1_0", "٣", "7" * 700]  # "" marks a blank row
# rows the reference rejects
_BAD_TSV_ROWS = [
    "{i}\t\t0",             # empty value
    "{i}\taé.com\t1",       # non-ASCII value
    "{i}\ta\tb.com\t1",     # a tab inside the value
    "{i}\tA.com\t0",        # upper case
    "{i}\ta.com\t2",        # bad label
    "{i}\ta.com\t 1",       # padded label
    "{i}\ta.com\t",         # empty label
    "\ta.com\t1",           # empty sequence number
    "x{i}\ta.com\t1",       # not a number
    "²\ta.com\t1",          # a digit int() does not read
    "1" * 4301 + "\ta.com\t1",  # more digits than int() reads
    "{i}\ta.com",           # two fields
    "   ",                  # whitespace only is not blank
    "{i}\t zz\t0",          # padded value
    "{i}\tzz\t1",           # zz is labeled 0 elsewhere
]


def _good_row(i, value):
    return f"{i}\t{value}\t{_LABEL_OF[value]}"


@st.composite
def _tsv_texts(draw):
    """An events file of good rows, some of them blank or with sequence
    numbers only int() reads, CRLF and lone-CR ends, and at most one bad
    row anywhere."""
    lines = []
    for i in range(draw(st.integers(0, 60))):
        value = draw(st.sampled_from(sorted(_LABEL_OF)))
        if draw(st.integers(0, 19)):
            lines.append(_good_row(i, value))
        else:
            seq = draw(st.sampled_from(_ODD_SEQS))
            lines.append(seq and f"{seq}\t{value}\t{_LABEL_OF[value]}")
    if draw(st.booleans()):
        row = draw(st.sampled_from(_BAD_TSV_ROWS)).format(i=len(lines))
        lines.insert(draw(st.integers(0, len(lines))), row)
    ends = [draw(_TERMINATORS) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no newline after the last row
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(events):
    """Events read until the first reader error, and that error."""
    got = []
    try:
        for e in events:
            got.append(e)
    except (ParseError, LabelError, UnicodeDecodeError) as exc:
        return got, (type(exc), getattr(exc, "line_no", None), str(exc))
    return got, None


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "file.tsv"


@PROPERTY
@given(_tsv_texts(), st.sampled_from([1, 7, 40, 200, streams._BLOCK_BYTES]))
@example("0\ta.com\t1\n1\ta.com\t0\n", 1)  # a conflict across two blocks
@example("0\ta.com\t1\n1\tzz\t0\n2\ta.com\t0\n", 20)  # the conflict's block holds a good row first
@example("0\ta.com\t1\n\n1\ta.com\t1", 1)
@example("0\ta.com\t1\r\n1\tzz\t0\r\n", streams._BLOCK_BYTES)
@example("0\ta.com\t1\t1\n1\tzz\n", 100)  # four fields, then two: six in all
@example("", 1)
def test_load_tsv_equals_reference(scratch, text, block):
    scratch.write_bytes(text.encode("utf-8"))
    with patch.object(streams, "_BLOCK_BYTES", block):
        got = _outcome(load_tsv(scratch))
    assert got == _outcome(load_tsv_reference(scratch))


@pytest.mark.parametrize("block", [1, 100, None])
@pytest.mark.parametrize(
    "odd",
    _BAD_TSV_ROWS + [seq and f"{seq}\t{{i}}.com\t1" for seq in _ODD_SEQS],
    ids=lambda row: repr(row)[1:-1][:20],
)
def test_load_tsv_odd_row_equals_reference(tmp_path, odd, block):
    # each bad or odd row in the middle of plain rows, in a block of its
    # own, in a block with its neighbours and in one block for the file
    values = sorted(_LABEL_OF)
    lines = [_good_row(i, values[i % len(values)]) for i in range(12)]
    lines[6] = odd.format(i=6)
    path = tmp_path / "e.tsv"
    path.write_text("\n".join(lines) + "\n")
    with patch.object(streams, "_BLOCK_BYTES", block or streams._BLOCK_BYTES):
        got = _outcome(load_tsv(path))
    assert got == _outcome(load_tsv_reference(path))


@pytest.mark.parametrize("block", [1, 100, None])
@pytest.mark.parametrize("bad_row", [0, 7, 4500, 5999])
def test_load_tsv_bytes_not_utf8_equal_reference(tmp_path, bad_row, block):
    # the decoder raises at the same place, after the same events, when a
    # file of many blocks holds a byte that is not UTF-8
    rows = [_good_row(i, sorted(_LABEL_OF)[i % len(_LABEL_OF)]).encode() for i in range(6000)]
    rows[bad_row] = f"{bad_row}\tzz".encode() + b"\xff\t0"
    path = tmp_path / "e.tsv"
    path.write_bytes(b"\n".join(rows) + b"\n")
    with patch.object(streams, "_BLOCK_BYTES", block or streams._BLOCK_BYTES):
        got = _outcome(load_tsv(path))
    want = _outcome(load_tsv_reference(path))
    assert want[1][0] is UnicodeDecodeError
    assert got == want


@st.composite
def _blacklist_texts(draw):
    """A blacklist of good rows (comments, blank and padded rows, CRLF,
    non-ASCII and repeated domains) with up to two bad rows anywhere."""
    good = st.sampled_from([
        "ads\ta.com", "ads\tx.a.com", "news\tcnn.com", "ads\tcnn.com", " ads\tb.org ",
        "\tads\tpad.com\t", "soc ial\tsp ace.com", "ads\tdomaïn.fr", "# a comment",
        "#ads\tcommented.com", "   # indented comment", "", "  ", "ads\ta.com",
    ])
    lines = draw(st.lists(good, max_size=60))
    bad = st.sampled_from(["justonefield", "ads\ta\tb.com", "ads\t\tb.com", "a b", "ads\tx\t\ty"])
    for row in draw(st.lists(bad, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), row)
    ends = [draw(_TERMINATORS) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _blacklist_outcome(path, reader):
    try:
        return list(reader(path).items()), None
    except ParseError as exc:
        return None, (exc.line_no, str(exc))


@PROPERTY
@given(_blacklist_texts(), st.sampled_from([1, 7, 40, 200, streams._BLOCK_BYTES]))
@example("# c\n\nads\ta.com\r\n  ads\tb.com  \nbad\n", 1)
@example("ads\ta\tb.com\njustonefield\n", 100)  # three fields, then one: two tabs in all
def test_load_blacklist_equals_reference(scratch, text, block):
    scratch.write_bytes(text.encode("utf-8"))
    with patch.object(streams, "_BLOCK_BYTES", block):
        got = _blacklist_outcome(scratch, load_blacklist)
    assert got == _blacklist_outcome(scratch, load_blacklist_reference)


@PROPERTY
@given(st.text("ab.", max_size=8), st.sets(st.text("ab.", max_size=5), max_size=6))
@example("..a..", {"", ".a..", "a.."})
@example("a.", {""})
@example(".", {"."})
def test_bootstrap_label_equals_reference(value, positive):
    assert bootstrap_label(value, positive) == bootstrap_label_reference(value, positive)


def _first_event_peak(path) -> int:
    tracemalloc.start()
    try:
        events = load_tsv(path)
        next(events)
        peak = tracemalloc.get_traced_memory()[1]
        events.close()
    finally:
        tracemalloc.stop()
    return peak


def test_reader_memory_is_bounded_by_the_block(tmp_path):
    # the first event of a 100k-row file (about 36 blocks) costs what it
    # costs for a file of a few blocks; the whole file held as rows would
    # be several MB
    small, large = tmp_path / "small.tsv", tmp_path / "large.tsv"
    events = take(DriftConfig(seed=4), 100_000)
    write_tsv(events[:10_000], small)
    write_tsv(events, large)
    bound = 32 * streams._BLOCK_BYTES
    peak = _first_event_peak(large)
    assert peak < bound
    assert peak < 1.25 * _first_event_peak(small)

    # the blacklist keeps its sets; what it allocates on top of them is
    # bounded by the block as well
    blacklist = tmp_path / "bl.tsv"
    with open(blacklist, "w", encoding="utf-8") as fh:
        fh.writelines(f"cat{i % 5}\t{e.value}{i}\n" for i, e in enumerate(events))
    tracemalloc.start()
    try:
        categories = load_blacklist(blacklist)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, categories.values())) == len(events)
    assert peak - kept < bound
