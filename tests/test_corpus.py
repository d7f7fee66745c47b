"""Corpus layer: documents, tokenization, queries, JSONL round trips."""

from __future__ import annotations

import json
import re
from collections import Counter
import time
import tracemalloc
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from opflow.corpus import (
    Corpus,
    Document,
    FlowQuery,
    TermTable,
    _RECORD_RE,
    _extract_tokens,
    _term_ids,
    csr_offsets,
    csr_take,
    filter_by_dates,
    filter_by_query,
    format_timestamp,
    load_corpus,
    normalize_term,
    parse_timestamp,
    read_line_file,
    read_terms,
    save_corpus,
    tokenize_corpus,
)
from opflow.errors import DataError


def doc(id="d1", ts="2016-06-24T08:00:00Z", source="wire", title="tt", body="bb"):
    return Document(
        id=id, published_at=parse_timestamp(ts), source=source, title=title, body=body
    )


def table(*term_lists):
    return TermTable.from_terms((f"d{i}", list(terms)) for i, terms in enumerate(term_lists))


# --- normalization ---------------------------------------------------------


def test_normalize_term_casefolds_and_joins():
    assert normalize_term("  Terrorist  ACT! ") == "terrorist act"
    assert normalize_term("Referendum") == "referendum"
    assert normalize_term("BREXIT-2016") == "brexit 2016"


def test_normalize_term_drops_single_char_tokens():
    assert normalize_term("a b") == ""
    assert normalize_term("a real term") == "real term"


def test_normalize_underscore_is_a_separator():
    assert normalize_term("foo_bar") == "foo bar"


# --- timestamps ------------------------------------------------------------


def test_parse_timestamp_accepts_zulu_and_offset():
    a = parse_timestamp("2016-06-24T08:00:00Z")
    b = parse_timestamp("2016-06-24T10:00:00+02:00")
    assert a == b
    assert a.tzinfo == timezone.utc


def test_parse_timestamp_naive_is_utc():
    t = parse_timestamp("2016-06-24T08:00:00")
    assert t == datetime(2016, 6, 24, 8, 0, tzinfo=timezone.utc)


def test_format_timestamp_round_trip():
    raw = "2016-07-01T23:59:59Z"
    assert format_timestamp(parse_timestamp(raw)) == raw


def test_naive_times_are_utc_in_any_local_zone(monkeypatch, tmp_path):
    # New York rules, spelled out so that no zone database is needed
    monkeypatch.setenv("TZ", "EST+5EDT,M3.2.0/2,M11.1.0/2")
    time.tzset()
    try:
        naive = Document(
            id="a", published_at=datetime(2016, 6, 1, 23, 30), source="s", title="tt", body="bb"
        )
        assert naive.json_line == doc(id="a", ts="2016-06-01T23:30:00Z", source="s").json_line
        c = Corpus.from_documents([naive])
        assert c.days.tolist() == [date(2016, 6, 1).toordinal()]
        p = tmp_path / "c.jsonl"
        save_corpus(c, p)
        again = load_corpus(p)
        assert again == c and again.days.tolist() == c.days.tolist()
    finally:
        monkeypatch.undo()
        time.tzset()


# --- documents and corpus --------------------------------------------------


def test_document_day_agrees_with_corpus_days_for_any_offset():
    # 00:30 at +02:00 is 22:30 UTC the day before
    d = Document(
        id="a", published_at=datetime(2016, 6, 25, 0, 30, tzinfo=timezone(timedelta(hours=2))),
        source="s", title="tt", body="bb",
    )
    c = Corpus.from_documents([d])
    assert c.days.tolist() == [date(2016, 6, 24).toordinal()]
    assert len(filter_by_dates(c, date(2016, 6, 24), date(2016, 6, 24))) == 1
    assert len(filter_by_dates(c, date(2016, 6, 25), date(2016, 6, 25))) == 0
    assert list(c) == [d]


def test_corpus_equality_compares_records(tmp_path):
    c = Corpus.from_documents([doc(id="a"), doc(id="b", title="Naïve café")])
    p = tmp_path / "c.jsonl"
    save_corpus(c, p)
    assert load_corpus(p) == c
    assert c == Corpus.from_documents([doc(id="b", title="Naïve café"), doc(id="a")])
    assert c != Corpus.from_documents([doc(id="a")])
    assert c != Corpus.from_documents([doc(id="a"), doc(id="b", title="cafe")])


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(DataError, match="line 2: duplicate id 'x' with differing content"):
        Corpus.from_documents([doc(id="x"), doc(id="x", ts="2016-06-25T08:00:00Z")])


def test_from_documents_merges_identical_duplicates():
    c = Corpus.from_documents([doc(id="x"), doc(id="y"), doc(id="x")])
    assert c == Corpus.from_documents([doc(id="x"), doc(id="y")])


def test_from_documents_rejects_a_tokenless_document_as_load_corpus_does(tmp_path):
    docs = [doc(id="a"), doc(id="b", title="!", body="? !")]
    with pytest.raises(DataError) as from_documents:
        Corpus.from_documents(docs)
    p = _write(tmp_path, "c.jsonl", "".join(d.json_line for d in docs))
    with pytest.raises(DataError) as loaded:
        load_corpus(p)
    # a position names the document in a list; a loaded corpus names its file too
    assert str(from_documents.value) == "line 2: document 'b' has no tokens"
    assert str(loaded.value) == f"{p}: " + str(from_documents.value)


def test_a_lone_surrogate_is_refused_as_a_document_and_as_an_escape(tmp_path):
    # no UTF-8 file can hold one, so a saved corpus could not be written
    bad = doc(id="b", body="march \ud800")
    with pytest.raises(DataError) as from_documents:
        Corpus.from_documents([doc(id="a"), bad])
    message = "a string holds a lone surrogate, which UTF-8 cannot encode"
    assert str(from_documents.value) == f"line 2: {message}"
    escaped = bad.json_line.replace("\ud800", "\\ud800").rstrip("\n")
    assert _load_error(tmp_path, escaped) == f"line 1: {message}"


def test_from_documents_sorts_by_time_then_id():
    c = Corpus.from_documents(
        [doc(id="b"), doc(id="a"), doc(id="c", ts="2016-06-23T08:00:00Z")]
    )
    assert [d.id for d in c] == ["c", "a", "b"]


def test_corpus_days_are_utc_day_ordinals():
    c = Corpus.from_documents(
        [doc(id="a", ts="2016-06-20T10:00:00Z"), doc(id="b", ts="2016-07-02T23:00:00-02:00")]
    )
    assert c.days.tolist() == [date(2016, 6, 20).toordinal(), date(2016, 7, 3).toordinal()]


def test_from_documents_of_no_documents_is_empty():
    c = Corpus.from_documents([])
    assert len(c) == 0 and c.days.tolist() == [] and list(c) == []


# --- tokenization ----------------------------------------------------------


def test_tokenize_merges_title_and_body():
    d = doc(title="Big Protest", body="protest in the square")
    t = tokenize_corpus(Corpus.from_documents([d]))
    assert [t.vocab[i] for i in t.term_ids] == ["big", "protest", "protest", "in", "the", "square"]
    # distinct terms in order of first appearance, with their counts
    assert [t.vocab[i] for i in t.row_terms] == ["big", "protest", "in", "the", "square"]
    assert t.row_counts.tolist() == [1, 2, 1, 1, 1]


def test_tokenize_applies_stopwords():
    c = Corpus.from_documents([doc(title="the protest", body="the the square")])
    t = tokenize_corpus(c, stopwords={"the"})
    assert [t.vocab[i] for i in t.term_ids] == ["protest", "square"]


def test_term_table_rows_follow_the_input():
    t = table(["bb", "aa", "bb"], [], ["cc", "aa"])
    assert t.doc_ids == ["d0", "d1", "d2"] and list(t) == t.doc_ids and len(t) == 3
    assert t.vocab == ["bb", "aa", "cc"]
    assert t.indptr.tolist() == [0, 3, 3, 5]
    assert t.row_ptr.tolist() == [0, 2, 2, 4]
    assert t.row_terms.tolist() == [0, 1, 2, 1]
    assert t.row_counts.tolist() == [2, 1, 1, 1]


def test_contains_single_term():
    t = table(["protest", "march"])
    assert t.contains_any(["protest"]).tolist() == [True]
    assert t.contains_any(["petition"]).tolist() == [False]


def test_contains_phrase_needs_adjacency():
    t = table(["terrorist", "big", "act"], ["big", "terrorist", "act"])
    assert t.contains_any(["terrorist act"]).tolist() == [False, True]
    # a run across two documents is no occurrence
    assert table(["big", "terrorist"], ["act"]).contains_any(["terrorist act"]).tolist() == [
        False, False
    ]


def test_tokenizing_a_whole_loaded_corpus_shares_the_tables_read_only_arrays(fixtures_dir):
    corpus = load_corpus(fixtures_dir / "corpus.jsonl")
    tokenized = tokenize_corpus(corpus)
    assert np.shares_memory(tokenized.term_ids, corpus.table.term_ids)
    assert np.shares_memory(tokenized.indptr, corpus.table.indptr)
    for array in (tokenized.term_ids, tokenized.indptr, corpus.table.term_ids):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # stopwords give the table a stream of its own
    assert not np.shares_memory(tokenize_corpus(corpus, {"protest"}).term_ids, corpus.table.term_ids)


def test_term_table_peak_memory_is_a_few_token_arrays():
    # numpy reports its buffers to tracemalloc, so the bound holds on
    # every platform; 8 bytes per token is one int64 array of the stream
    rng = np.random.default_rng(3)
    indptr = csr_offsets(rng.integers(0, 30, 20_000))
    term_ids = rng.integers(0, 2_000, int(indptr[-1]))
    doc_ids = [f"d{i}" for i in range(len(indptr) - 1)]
    vocab = [f"t{i}" for i in range(2_000)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        TermTable.from_stream(doc_ids, vocab, indptr, term_ids)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * len(term_ids), peak / (8 * len(term_ids))


def test_released_lines_free_a_buffer_of_the_files_size(fixtures_dir, tmp_path):
    path = fixtures_dir / "corpus.jsonl"
    size = path.stat().st_size
    tracemalloc.start()
    try:
        corpus = load_corpus(path)
        assert corpus.table.buffer.nbytes == size
        held = tracemalloc.get_traced_memory()[0]
        corpus.table.release_lines()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed >= size
    out = tmp_path / "out.jsonl"
    with pytest.raises(ValueError, match=r"release_lines\(\)"):
        save_corpus(corpus, out)
    assert not out.exists()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n_terms: st.tuples(
    st.just(n_terms), st.lists(st.lists(st.integers(0, n_terms - 1), max_size=40), max_size=8)
)))
def test_from_stream_counts_each_rows_terms_in_first_appearance_order(vocab_and_rows):
    # Counter counts without sorting and keeps first-appearance order, so
    # it checks the sort-based table independently of from_terms
    n_terms, rows = vocab_and_rows
    got = TermTable.from_stream(
        [f"d{i}" for i in range(len(rows))], [f"t{t}" for t in range(n_terms)],
        csr_offsets(np.array([len(row) for row in rows], dtype=np.int64)),
        np.array([t for row in rows for t in row], dtype=np.int64),
    )
    assert len(got.row_ptr) == len(rows) + 1
    for i, row in enumerate(rows):
        a, b = got.row_ptr[i], got.row_ptr[i + 1]
        pairs = list(zip(got.row_terms[a:b].tolist(), got.row_counts[a:b].tolist()))
        assert pairs == list(Counter(row).items()), row


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(0, 4), max_size=10), data=st.data())
def test_csr_take_of_a_run_of_rows_is_a_slice(lengths, data):
    indptr = csr_offsets(np.array(lengths, dtype=np.int64))
    rows = np.array(data.draw(st.one_of(
        st.integers(0, len(lengths)).flatmap(
            lambda lo: st.integers(lo, len(lengths)).map(lambda hi: list(range(lo, hi)))
        ),
        st.permutations(range(len(lengths))),
    )), dtype=np.int64)
    entries, taken = csr_take(indptr, rows)
    want = [e for r in rows.tolist() for e in range(indptr[r], indptr[r + 1])]
    assert np.arange(indptr[-1])[entries].tolist() == want
    assert taken.tolist() == csr_offsets(np.diff(indptr)[rows]).tolist()
    run = len(rows) > 0 and rows.tolist() == list(range(rows[0], rows[0] + len(rows)))
    assert isinstance(entries, slice) == run
    # a run whose entries start at 0, as every run from row 0 does, keeps
    # the given row pointer: a view of it, not a copy
    assert np.shares_memory(taken, indptr) == (run and indptr[rows[0]] == 0)
    if run and rows[0] == 0:
        assert taken.base is indptr


# --- queries ---------------------------------------------------------------


def test_query_and_of_ors():
    q = FlowQuery(required_groups=[{"brexit"}, {"protest", "petition"}])
    docs = table(["brexit", "petition"], ["brexit", "weather"], ["protest"])
    assert q.matches(docs).tolist() == [True, False, False]


def test_query_exclusion_wins():
    q = FlowQuery(required_groups=[{"brexit"}], excluded_terms=frozenset({"sport"}))
    assert q.matches(table(["brexit", "sport"])).tolist() == [False]


def test_query_phrase_group():
    q = FlowQuery(required_groups=[{"terrorist act"}])
    docs = table(["terrorist", "act"], ["terrorist", "x", "act"])
    assert q.matches(docs).tolist() == [True, False]


def test_query_needs_groups():
    with pytest.raises(ValueError):
        FlowQuery(required_groups=[])
    with pytest.raises(ValueError):
        FlowQuery(required_groups=[set()])


def test_query_exclusion_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        FlowQuery(required_groups=[{"brexit"}], excluded_terms=frozenset({"brexit"}))


# --- files -----------------------------------------------------------------


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


GOOD_LINE = (
    '{"id": "a", "published_at": "2016-06-24T08:00:00Z", "source": "s",'
    ' "title": "Referendum", "body": "words here"}'
)


def test_load_corpus_happy_path(tmp_path):
    p = _write(tmp_path, "c.jsonl", GOOD_LINE + "\n")
    c = load_corpus(p)
    assert len(c) == 1 and next(iter(c)).id == "a"


def test_load_corpus_reports_line_numbers(tmp_path):
    p = _write(tmp_path, "c.jsonl", GOOD_LINE + "\n{broken\n")
    with pytest.raises(DataError, match="line 2"):
        load_corpus(p)
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes((GOOD_LINE + "\n\n" + GOOD_LINE.replace("Referendum", "Caf\xe9")).encode("latin-1"))
    with pytest.raises(DataError, match=rf"^{re.escape(str(bad))}: line 3: invalid UTF-8.*0xe9"):
        load_corpus(bad)


def test_load_corpus_missing_key(tmp_path):
    p = _write(tmp_path, "c.jsonl", '{"id": "a"}\n')
    with pytest.raises(DataError, match="missing key"):
        load_corpus(p)


def test_load_corpus_zero_token_document(tmp_path):
    line = GOOD_LINE.replace("Referendum", "!").replace("words here", "? !")
    p = _write(tmp_path, "c.jsonl", line + "\n")
    with pytest.raises(DataError, match="no tokens"):
        load_corpus(p)


@pytest.mark.parametrize(
    "title, has_tokens", [("ß", True), ("a _ b", False)], ids=["sharp-s", "underscore"]
)
def test_load_corpus_token_check_agrees_with_the_tokenizer(tmp_path, title, has_tokens):
    # "ß" casefolds to "ss"; "_" separates tokens, leaving two 1-char runs
    line = GOOD_LINE.replace("Referendum", title).replace("words here", "")
    p = _write(tmp_path, "c.jsonl", line + "\n")
    if has_tokens:
        assert next(iter(load_corpus(p))).title == title
    else:
        with pytest.raises(DataError, match="line 1: .* has no tokens"):
            load_corpus(p)


def test_load_corpus_merges_identical_duplicates(tmp_path):
    p = _write(tmp_path, "c.jsonl", GOOD_LINE + "\n" + GOOD_LINE + "\n")
    assert len(load_corpus(p)) == 1


def test_load_corpus_rejects_conflicting_duplicates(tmp_path):
    other = GOOD_LINE.replace("words here", "different words")
    p = _write(tmp_path, "c.jsonl", GOOD_LINE + "\n" + other + "\n")
    with pytest.raises(DataError, match="differing content"):
        load_corpus(p)


def test_load_corpus_empty_file(tmp_path):
    p = _write(tmp_path, "c.jsonl", "\n\n")
    with pytest.raises(DataError, match="no records"):
        load_corpus(p)


def test_save_load_round_trip_is_stable(tmp_path):
    c = Corpus.from_documents(
        [doc(id="a", title="Naïve café"), doc(id="b", ts="2016-06-25T00:00:00Z")]
    )
    p1, p2 = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
    save_corpus(c, p1)
    save_corpus(load_corpus(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_corpus_writes_one_json_object_per_line(tmp_path):
    d = Document(
        id="a", published_at=parse_timestamp("2016-06-24T08:00:00Z"), source="s",
        title='Naïve "café"', body="x\ty", language="fr",
    )
    p = tmp_path / "c.jsonl"
    save_corpus(Corpus.from_documents([d, doc(id="b")]), p)
    first = p.read_text(encoding="utf-8").splitlines()[0]
    assert first == json.dumps(
        {"id": "a", "published_at": "2016-06-24T08:00:00Z", "source": "s",
         "title": 'Naïve "café"', "body": "x\ty", "language": "fr"},
        ensure_ascii=False,
    )


def test_load_corpus_merges_one_instant_written_two_ways(tmp_path):
    offset = GOOD_LINE.replace("2016-06-24T08:00:00Z", "2016-06-24T10:00:00+02:00")
    p = _write(tmp_path, "c.jsonl", offset + "\n" + GOOD_LINE + "\n")
    c = load_corpus(p)
    assert len(c) == 1
    save_corpus(c, tmp_path / "out.jsonl")
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == GOOD_LINE + "\n"


def test_load_corpus_names_the_line_of_a_conflicting_duplicate(tmp_path):
    other = GOOD_LINE.replace('"source": "s"', '"source": "t"')
    p = _write(tmp_path, "c.jsonl", GOOD_LINE + "\n\n" + other + "\n")
    with pytest.raises(DataError, match="line 3: duplicate id 'a' with differing content"):
        load_corpus(p)


def test_load_corpus_orders_by_full_timestamp_not_by_day(tmp_path):
    stamps = {
        "a": "2016-06-24T10:00:00Z",
        "b": "2016-06-24T08:00:00.000001Z",
        "c": "2016-06-24T08:00:00Z",
        "d": "2016-06-24T09:00:00+02:00",  # 07:00 UTC
        "e": "2016-06-24T08:00:00Z",  # ties with c: the id decides
    }
    lines = [GOOD_LINE.replace('"a"', f'"{i}"').replace("2016-06-24T08:00:00Z", t) for i, t in stamps.items()]
    c = load_corpus(_write(tmp_path, "c.jsonl", "\n".join(lines) + "\n"))
    assert c.ids == ["d", "c", "e", "b", "a"]
    assert [d.id for d in c] == c.ids


def test_bom_is_dropped_at_the_start_and_an_error_later(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_bytes(b"\xef\xbb\xbf" + (GOOD_LINE + "\n").encode("utf-8"))
    save_corpus(load_corpus(p), tmp_path / "out.jsonl")
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == GOOD_LINE + "\n"
    stray = _write(tmp_path, "s.jsonl", GOOD_LINE + "\n\ufeff" + GOOD_LINE.replace('"a"', '"b"') + "\n")
    with pytest.raises(DataError, match="line 2: invalid JSON"):
        load_corpus(stray)
    words = tmp_path / "w.txt"
    words.write_bytes(b"\xef\xbb\xbfthe # first\nand\n")
    assert read_line_file(words) == [(1, "the"), (2, "and")]


def test_lines_laid_out_as_saved_are_kept_without_encoding(tmp_path, monkeypatch, fixtures_dir):
    import opflow.corpus as corpus_module

    encoded = []
    original = corpus_module._encode_line
    monkeypatch.setattr(
        corpus_module, "_encode_line", lambda *a: encoded.append(a[0]) or original(*a)
    )
    fixture = (fixtures_dir / "corpus.jsonl").read_text(encoding="utf-8")
    with_language = GOOD_LINE.replace('"a"', '"lang"')[:-1] + ', "language": "en"}'
    p = _write(tmp_path, "c.jsonl", fixture + with_language)  # no final newline
    c = load_corpus(p)
    assert encoded == [] and len(c) == 201
    escaped = GOOD_LINE.replace('"a"', '"esc"').replace("words", "w\\u00f6rds")
    offset = GOOD_LINE.replace('"a"', '"off"').replace("08:00:00Z", "08:00:00+00:00")
    load_corpus(_write(tmp_path, "d.jsonl", "\n".join([GOOD_LINE, escaped, offset]) + "\n"))
    assert encoded == ["esc", "off"]


# characters json.dumps escapes, or writes as they stand, or the loader
# must not take for line ends
TRICKY = st.text(
    alphabet=st.sampled_from(list('ab Z"\\/\x00\x1f\t\r\n\x7f\x85é€\u2028\u2029\U0001f600')),
    max_size=6,
)


@st.composite
def raw_records(draw):
    """Corpus records with distinct ids, each written as a line that may
    or may not be laid out as save_corpus writes it.  About half of the
    lines have the field order, separators and raw non-ASCII text of
    save_corpus, whatever their timestamp or strings need."""
    n = draw(st.integers(1, 5))
    ids = draw(st.lists(TRICKY.filter(bool), min_size=n, max_size=n, unique=True))
    lines, records = [], []
    for doc_id in ids:
        when = datetime(2016, 6, 24, tzinfo=timezone.utc) + timedelta(
            seconds=draw(st.integers(0, 3 * 86_400)),
            microseconds=draw(st.sampled_from([0, 0, 1, 250_000])),
        )
        form = draw(st.sampled_from(["Z", "Z", "z", "+02:00", "-05:30", "naive"]))
        if form in ("Z", "z", "naive"):
            stamp = when.replace(tzinfo=None).isoformat() + ("" if form == "naive" else form)
        else:
            hours, minutes = int(form[1:3]), int(form[4:6])
            sign = 1 if form[0] == "+" else -1
            zone = timezone(sign * timedelta(hours=hours, minutes=minutes))
            stamp = when.astimezone(zone).isoformat()
        record = {
            "id": doc_id,
            "published_at": stamp,
            "source": draw(TRICKY),
            "title": draw(TRICKY),
            "body": draw(TRICKY) + " xx",  # every record keeps a token
        }
        if draw(st.booleans()):
            record["language"] = draw(TRICKY)
        if draw(st.booleans()):
            lines.append(json.dumps(record, ensure_ascii=False))
        else:
            if draw(st.booleans()):
                record["extra"] = draw(st.sampled_from([1, None, "x", [1, "y"]]))
            keys = draw(st.permutations(list(record)))
            separators = draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,\t", " :  ")]))
            line = json.dumps(
                {k: record[k] for k in keys},
                ensure_ascii=draw(st.booleans()),
                separators=separators,
            )
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + line)
        records.append(record)
    last_newline = draw(st.booleans())
    return records, "\n".join(lines) + ("\n" if last_newline else "")


@settings(max_examples=300, deadline=None)
@given(raw=raw_records())
@example(
    raw=(
        [{"id": "a", "published_at": "2016-06-24T08:00:00Z", "source": "s", "title": "t",
          "body": "b xx", "language": "en"}],
        '{"id": "a", "published_at": "2016-06-24T08:00:00Z", "source": "s", "title": "t",'
        ' "body": "b xx", "language": "en"}',
    )
)
def test_saved_lines_equal_the_reference_encoding(raw, tmp_path_factory):
    records, text = raw
    folder = tmp_path_factory.mktemp("lines")
    (folder / "in.jsonl").write_text(text, encoding="utf-8", newline="")
    save_corpus(load_corpus(folder / "in.jsonl"), folder / "out.jsonl")
    ordered = sorted(records, key=lambda r: (oracles.utc_instant(r["published_at"]), r["id"]))
    want = "".join(oracles.json_line(r) for r in ordered)
    assert (folder / "out.jsonl").read_bytes() == want.encode("utf-8")


def test_save_keeps_the_order_of_runs_across_write_blocks(tmp_path):
    # the file holds one sorted run of at least one write block (128 KiB),
    # then three blocks or more of lines in reverse order, which sort
    # before and after the run: a long run is written as it lies, and the
    # reversed lines, each a run of its own, are joined block by block
    block = 1 << 17
    words = ["protest", "marché", "vote", "città", "square", "naïve"]
    start = datetime(2016, 6, 1, tzinfo=timezone.utc)

    def record(t):
        # two rows a minute, so ties on published_at are broken by id
        stamp = (start + timedelta(minutes=t // 2)).strftime("%Y-%m-%dT%H:%M:%SZ")
        body = " ".join(words[(t + j) % len(words)] for j in range(1 + t % 13))
        return {"id": f"d{t:05d}", "published_at": stamp, "source": f"s{t % 3}",
                "title": "tt", "body": body}

    run = [oracles.json_line(record(t)) for t in range(2000, 3500)]
    rest = [oracles.json_line(record(t)) for t in [*range(2000), *range(3500, 5500)]]
    assert len("".join(run).encode("utf-8")) >= block
    assert len("".join(rest).encode("utf-8")) >= 3 * block
    _write(tmp_path, "in.jsonl", "".join(run + rest[::-1]))
    save_corpus(load_corpus(tmp_path / "in.jsonl"), tmp_path / "out.jsonl")
    want = "".join(rest[:2000] + run + rest[2000:])
    assert (tmp_path / "out.jsonl").read_bytes() == want.encode("utf-8")


# records out of (published_at, id) order, with multi-byte characters,
# one of them escaped, so a line's byte range differs from its
# character range
_MULTIBYTE_RECORDS = [
    {"id": "b", "published_at": "2016-06-25T08:00:00Z", "source": "s\u20ac",
     "title": "\U0001f600 \u00e9t\u00e9", "body": "x\u2028y xx"},
    {"id": "a", "published_at": "2016-06-24T08:00:00Z", "source": "s",
     "title": "\u00e9", "body": "b xx"},
    {"id": "c", "published_at": "2016-06-24T09:00:00+02:00", "source": "\u20ac",
     "title": "t", "body": "\U0001f600 xx"},
]


@settings(max_examples=200, deadline=None)
@given(
    raw=raw_records(),
    mask=st.lists(st.booleans(), min_size=5, max_size=5),
    span=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
@example(
    raw=(_MULTIBYTE_RECORDS, "\n".join([
        json.dumps(_MULTIBYTE_RECORDS[0], ensure_ascii=False),
        json.dumps(_MULTIBYTE_RECORDS[1]),
        json.dumps(_MULTIBYTE_RECORDS[2], ensure_ascii=False, separators=(",", ":")),
    ])),
    mask=[True, False, True, False, False],
    span=(1, 1),
)
def test_loaded_columns_equal_the_decoded_records(raw, mask, span, tmp_path_factory):
    records, text = raw
    folder = tmp_path_factory.mktemp("columns")
    path = folder / "in.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    corpus = load_corpus(path)
    table = corpus.table
    want = oracles.document_columns(text)
    assert table.micros.tolist() == want["micros"]
    assert table.days.tolist() == want["days"]
    assert table.vocab == want["vocab"]
    assert table.indptr.tolist() == want["indptr"]
    assert table.term_ids.tolist() == want["term_ids"]
    # a subset is saved as the reference lines of its records, in order
    ordered = sorted(records, key=lambda r: (oracles.utc_instant(r["published_at"]), r["id"]))
    days = [oracles.utc_instant(r["published_at"]).date() for r in ordered]
    distinct = sorted(set(days))
    lo, hi = sorted(distinct[min(i, len(distinct) - 1)] for i in span)
    keep = mask[:len(ordered)]
    subsets = [
        (Corpus(table, corpus.rows[np.array(keep, dtype=bool)]), keep),
        (filter_by_dates(corpus, lo, hi), [lo <= day <= hi for day in days]),
    ]
    for subset, chosen in subsets:
        save_corpus(subset, folder / "out.jsonl")
        lines = [oracles.json_line(r) for r, kept in zip(ordered, chosen) if kept]
        assert (folder / "out.jsonl").read_bytes() == "".join(lines).encode("utf-8")


def _load_error(tmp_path, line):
    """The message a one-line corpus fails to load with, which names the
    file first; returned without that prefix."""
    path = _write(tmp_path, "c.jsonl", line + "\n")
    with pytest.raises(DataError) as info:
        load_corpus(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    return message[len(f"{path}: "):]


def test_lines_in_saved_layout_keep_the_errors_of_their_fields(tmp_path):
    # a bad day passes the layout match and is then decoded, which names
    # the fault; a tokenless text passes it too and fails in the tail
    # that both paths share; an empty id or a raw control character
    # fails the match
    bad_day = GOOD_LINE.replace("2016-06-24T08", "2016-02-30T00")
    tokenless = GOOD_LINE.replace("Referendum", "!").replace("words here", "? _")
    assert _RECORD_RE.fullmatch(bad_day + "\n") and _RECORD_RE.fullmatch(tokenless + "\n")
    with pytest.raises(ValueError) as day:
        parse_timestamp("2016-02-30T00:00:00Z")
    assert _load_error(tmp_path, bad_day) == f"line 1: bad published_at: {day.value}"
    assert _load_error(tmp_path, tokenless) == "line 1: document 'a' has no tokens"
    assert _load_error(tmp_path, GOOD_LINE.replace('"a"', '""')) == "line 1: empty id"
    control = GOOD_LINE.replace("words", "wo\x01rds")
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads(control)
    assert _load_error(tmp_path, control) == f"line 1: invalid JSON: {decode.value.msg}"


@pytest.mark.parametrize("stamp", [
    "0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"
], ids=["before-year-1-in-utc", "after-year-9999-in-utc"])
def test_load_corpus_names_a_timestamp_beyond_the_datetime_range(tmp_path, stamp):
    # each parses, then leaves datetime's range on the way to UTC
    with pytest.raises(OverflowError) as fault:
        parse_timestamp(stamp)
    line = GOOD_LINE.replace("2016-06-24T08:00:00Z", stamp)
    assert _load_error(tmp_path, line) == f"line 1: bad published_at: {fault.value}"


# Python 3.11 widened datetime.fromisoformat to basic and week forms; the
# loader keeps to the grammar that 3.10 documents on every version
@pytest.mark.parametrize("stamp, utc", [
    ("20160601T080000Z", None),
    ("2016-W22-3", None),
    ("2016-06-01T10:00:00.250+02:00:00.250000", "2016-06-01T08:00:00Z"),
], ids=["basic-form", "week-form", "fractional-second-offset"])
def test_load_corpus_reads_one_timestamp_grammar(tmp_path, stamp, utc):
    line = GOOD_LINE.replace("2016-06-24T08:00:00Z", stamp)
    if utc is None:
        message = f"line 1: bad published_at: Invalid isoformat string: {stamp!r}"
        assert _load_error(tmp_path, line) == message
    else:
        [doc] = load_corpus(_write(tmp_path, "c.jsonl", line + "\n"))
        assert format_timestamp(doc.published_at) == utc


def _columns(corpus):
    table = corpus.table
    return (
        table.ids, table.micros.tolist(), table.days.tolist(), table.sources,
        table.source_ids.tolist(), corpus.lines, table.vocab, table.indptr.tolist(),
        table.term_ids.tolist(),
    )


def test_crlf_and_lone_cr_files_load_like_lf_files(tmp_path, fixtures_dir):
    lines = (fixtures_dir / "corpus.jsonl").read_text(encoding="utf-8").rstrip("\n").split("\n")
    tables = []
    for i, end in enumerate(["\n", "\r\n", "\r"]):
        path = tmp_path / f"c{i}.jsonl"
        path.write_bytes((end.join(lines) + end).encode("utf-8"))
        tables.append(_columns(load_corpus(path)))
    assert tables[1] == tables[0] and tables[2] == tables[0]


BODY_WORDS = ["protest", "march", "vote", "city"]


def _rows_by_term(corpus):
    # each token as its term: interning follows file order, term text does not
    table = corpus.table
    return (
        table.ids, table.micros.tolist(), corpus.lines, table.indptr.tolist(),
        [table.vocab[t] for t in table.term_ids.tolist()],
    )


@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(
        st.text(alphabet="abz", min_size=1, max_size=3), min_size=1, max_size=12, unique=True
    ),
    data=st.data(),
)
def test_saved_and_shuffled_records_give_equal_tables(ids, data, tmp_path_factory):
    # few distinct stamps, so many records tie on published_at
    stamps = st.sampled_from(["2016-06-24T08:00:00Z", "2016-06-24T08:00:01Z"])
    bodies = st.lists(st.sampled_from(BODY_WORDS), min_size=1, max_size=4).map(" ".join)
    docs = [doc(id=doc_id, ts=data.draw(stamps), body=data.draw(bodies)) for doc_id in ids]
    saved = sorted(docs, key=lambda d: (d.published_at, d.id))
    by_id_descending = sorted(docs, key=lambda d: d.id, reverse=True)
    ties_descending = sorted(by_id_descending, key=lambda d: d.published_at)
    shuffled = data.draw(st.permutations(docs))
    folder = tmp_path_factory.mktemp("order")
    tables = []
    for name, order in [("saved", saved), ("ties", ties_descending), ("shuffled", shuffled)]:
        path = folder / f"{name}.jsonl"
        path.write_text("".join(d.json_line for d in order), encoding="utf-8")
        tables.append(_rows_by_term(load_corpus(path)))
    assert tables[0][0] == [d.id for d in saved]
    assert tables[1] == tables[0] and tables[2] == tables[0]


def test_load_stopwords_with_comments(tmp_path):
    p = _write(tmp_path, "s.txt", "# noise\nthe\nand # inline\n\n")
    assert read_terms(p) == ["the", "and"]


# --- filters ---------------------------------------------------------------


def test_filter_by_query_keeps_order():
    c = Corpus.from_documents(
        [doc(id="a", body="protest"), doc(id="b", body="weather"),
         doc(id="c", body="protest march", ts="2016-06-25T08:00:00Z")]
    )
    tok = tokenize_corpus(c)
    out = filter_by_query(c, FlowQuery(required_groups=[{"protest"}]), tok)
    assert [d.id for d in out] == ["a", "c"]


def test_filter_by_query_needs_tokenized_forms():
    c = Corpus.from_documents([doc(id="a")])
    with pytest.raises(ValueError, match="no tokenized form"):
        filter_by_query(c, FlowQuery(required_groups=[{"x"}]), table())
    assert len(filter_by_query(Corpus.from_documents([]), FlowQuery(required_groups=[{"x"}]), table(["x"]))) == 0


def test_filter_by_query_takes_a_subset_from_a_wider_table():
    c = Corpus.from_documents(
        [doc(id="a", body="protest", ts="2016-06-20T10:00:00Z"),
         doc(id="b", body="protest", ts="2016-06-21T10:00:00Z"),
         doc(id="c", body="weather", ts="2016-06-21T11:00:00Z")]
    )
    query = FlowQuery(required_groups=[{"protest"}])
    later = filter_by_dates(c, date(2016, 6, 21), date(2016, 6, 21))
    assert [d.id for d in filter_by_query(later, query, tokenize_corpus(c))] == ["b"]
    with pytest.raises(ValueError, match=r"no tokenized form for doc ids: \['a'\]"):
        filter_by_query(c, query, tokenize_corpus(later))


def test_tokenize_corpus_drops_stopwords_from_the_loaded_stream(tmp_path):
    lines = [
        GOOD_LINE.replace("words here", "the protest and the square"),
        GOOD_LINE.replace('"a"', '"b"').replace("Referendum", "The").replace("words here", "and"),
    ]
    c = load_corpus(_write(tmp_path, "c.jsonl", "\n".join(lines) + "\n"))
    stopwords = frozenset({"the", "and"})
    t = tokenize_corpus(c, stopwords)
    rows = [
        [t.vocab[i] for i in t.term_ids[t.indptr[r]:t.indptr[r + 1]].tolist()] for r in range(len(t))
    ]
    assert rows == [["referendum", "protest", "square"], []]
    assert t.row_ptr.tolist() == [0, 3, 3]


def test_filter_by_dates_inclusive():
    c = Corpus.from_documents(
        [doc(id="a", ts="2016-06-20T10:00:00Z"),
         doc(id="b", ts="2016-06-21T10:00:00Z"),
         doc(id="c", ts="2016-06-22T10:00:00Z")]
    )
    out = filter_by_dates(c, date(2016, 6, 20), date(2016, 6, 21))
    assert [d.id for d in out] == ["a", "b"]


def test_filter_by_dates_rejects_inverted_range():
    c = Corpus.from_documents([doc()])
    with pytest.raises(ValueError, match="after"):
        filter_by_dates(c, date(2016, 7, 1), date(2016, 6, 1))


# --- properties ------------------------------------------------------------


@st.composite
def documents(draw):
    n = draw(st.integers(1, 12))
    docs = []
    for i in range(n):
        offset = draw(st.integers(0, 10_000))
        d = Document(
            id=f"doc{i}",
            published_at=datetime(2016, 6, 1, tzinfo=timezone.utc)
            + timedelta(minutes=offset),
            source=draw(st.sampled_from(["s1", "s2"])),
            title=draw(st.text(alphabet="abc XY2", max_size=12)),
            body=draw(st.text(alphabet="abc XY2", max_size=20)) + " yy",  # always a token
        )
        docs.append(d)
    return docs


@settings(max_examples=150, deadline=None)
@given(documents(), st.data())
def test_tokenized_subsets_equal_their_documents_tokens(docs, data):
    # a run of rows (a date range) is taken by views, any other subset
    # by copies; both must give the rows of the documents' own tokens
    c = Corpus.from_documents(docs)
    days = sorted(set(c.days.tolist()))
    lo = data.draw(st.sampled_from(days))
    hi = data.draw(st.sampled_from([d for d in days if d >= lo]))
    ranged = filter_by_dates(c, date.fromordinal(lo), date.fromordinal(hi))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(c), max_size=len(c))))
    masked = Corpus(c.table, c.rows[keep])
    whole = tokenize_corpus(c)
    for sub in (ranged, masked):
        want = [_extract_tokens(d.title + " " + d.body) for d in sub]
        oracle = table(*want)
        for got in (tokenize_corpus(sub), whole.select(sub)):
            assert list(got) == sub.ids
            assert _csr_terms(got.indptr, got.term_ids, got.vocab) == want
            assert _csr_terms(got.row_ptr, got.row_terms, got.vocab) == _csr_terms(
                oracle.row_ptr, oracle.row_terms, oracle.vocab
            )
            assert got.row_counts.tolist() == oracle.row_counts.tolist()


def _csr_terms(indptr, term_ids, vocab):
    return [[vocab[t] for t in term_ids[a:b].tolist()] for a, b in zip(indptr[:-1], indptr[1:])]


@given(documents())
def test_from_documents_always_sorted(docs):
    c = Corpus.from_documents(docs)
    keys = [(d.published_at, d.id) for d in c]
    assert keys == sorted(keys)


@given(docs=documents())
def test_round_trip_preserves_documents(docs, tmp_path_factory):
    c = Corpus.from_documents(docs)
    p = tmp_path_factory.mktemp("rt") / "c.jsonl"
    save_corpus(c, p)
    assert list(load_corpus(p)) == list(c)


@given(st.text())
@example("Straße ß")  # casefolds to "ss"
@example("a_bb_c__dd")  # underscore separates
@example("x1 22 3")  # digits
@example("e\u0301te \u0301a")  # combining marks
@example("a b c")  # single letters only
def test_one_step_tokenizer_equals_runs_of_two_or_more(text):
    assert _extract_tokens(text) == oracles.tokens(text)


def test_no_whitespace_character_folds_to_a_letter_or_digit():
    # so no token spans a whitespace character, and a text's tokens are
    # those of its whitespace-separated words, in order
    word_character = re.compile(r"[^\W_]")
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert " " in spaces and "\u3000" in spaces
    assert [c for c in spaces if word_character.search(c.casefold())] == []


def test_word_characters_are_the_alphanumerics():
    # so a case-folded word that is all alphanumeric is one maximal run,
    # its own single token, as _term_ids assumes
    word_character = re.compile(r"[^\W_]")
    assert all(
        bool(word_character.match(chr(c))) == chr(c).isalnum() for c in range(0x110000)
    )


# whitespace that str.split() splits on, separators, punctuation, digits
# and numerals, a combining mark, and letters whose case folding changes
# their length or has a final form
WORDY = st.text(
    alphabet=st.sampled_from(
        list(" \t\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000_ßİΣσςaZé09")
        + list("-.,'!²½٣\u0301ǅﬁ")
    ),
    max_size=24,
)


@settings(max_examples=300)
@given(texts=st.lists(WORDY, min_size=1, max_size=4))
@example(texts=["ΑΣ ς", "İx\u3000ß_ss", "ss"])
@example(texts=["ß ßa İİ 09 a9 ﬁ", "x-ß, İa! _a9_ ½² é\u0301"])
def test_word_memo_equals_tokenizing_each_whole_text(texts):
    vocab, words, want = {}, {}, {}
    for text in texts:
        expected = [want.setdefault(t, len(want)) for t in _extract_tokens(text)]
        assert _term_ids(text, vocab, words) == expected
        assert _term_ids(text, vocab, words) == expected  # every word known now
    assert list(vocab) == list(want)
