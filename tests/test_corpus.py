"""Corpus layer: documents, tokenization, queries, JSONL round trips."""

from __future__ import annotations

import json
import re
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from opflow.corpus import (
    Corpus,
    CorpusFormatError,
    Document,
    FlowQuery,
    TermTable,
    _extract_tokens,
    filter_by_dates,
    filter_by_query,
    format_timestamp,
    load_corpus,
    load_stopwords,
    normalize_term,
    parse_timestamp,
    save_corpus,
    tokenize,
    tokenize_corpus,
)


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


# --- documents and corpus --------------------------------------------------


def test_document_day_is_utc_date():
    d = doc(ts="2016-06-24T23:30:00-02:00")
    assert d.day() == date(2016, 6, 25)


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Corpus([doc(id="x"), doc(id="x", ts="2016-06-25T08:00:00Z")])


def test_corpus_rejects_unsorted_documents():
    with pytest.raises(ValueError, match="sorted"):
        Corpus([doc(id="b", ts="2016-06-25T08:00:00Z"), doc(id="a")])


def test_from_documents_sorts_by_time_then_id():
    c = Corpus.from_documents(
        [doc(id="b"), doc(id="a"), doc(id="c", ts="2016-06-23T08:00:00Z")]
    )
    assert [d.id for d in c] == ["c", "a", "b"]


def test_date_span_inclusive():
    c = Corpus.from_documents(
        [doc(id="a", ts="2016-06-20T10:00:00Z"), doc(id="b", ts="2016-07-02T10:00:00Z")]
    )
    assert c.date_span == (date(2016, 6, 20), date(2016, 7, 2))


def test_date_span_of_empty_corpus_fails():
    with pytest.raises(ValueError, match="empty"):
        Corpus([]).date_span


# --- tokenization ----------------------------------------------------------


def test_tokenize_merges_title_and_body():
    d = doc(title="Big Protest", body="protest in the square")
    assert tokenize(d) == ["big", "protest", "protest", "in", "the", "square"]
    t = tokenize_corpus(Corpus([d]))
    assert [t.vocab[i] for i in t.term_ids] == tokenize(d)
    # distinct terms in order of first appearance, with their counts
    assert [t.vocab[i] for i in t.row_terms] == ["big", "protest", "in", "the", "square"]
    assert t.row_counts.tolist() == [1, 2, 1, 1, 1]


def test_tokenize_applies_stopwords():
    assert tokenize(doc(title="the protest", body="the the square"), stopwords={"the"}) == [
        "protest", "square"
    ]


def test_term_table_rows_follow_the_input():
    t = table(["bb", "aa", "bb"], [], ["cc", "aa"])
    assert list(t) == ["d0", "d1", "d2"] and len(t) == 3
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
    assert len(c) == 1 and c.documents[0].id == "a"


def test_load_corpus_reports_line_numbers(tmp_path):
    p = _write(tmp_path, "c.jsonl", GOOD_LINE + "\n{broken\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(p)
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes((GOOD_LINE + "\n\n" + GOOD_LINE.replace("Referendum", "Caf\xe9")).encode("latin-1"))
    with pytest.raises(CorpusFormatError, match=r"line 3: invalid UTF-8.*0xe9"):
        load_corpus(bad)


def test_load_corpus_missing_key(tmp_path):
    p = _write(tmp_path, "c.jsonl", '{"id": "a"}\n')
    with pytest.raises(CorpusFormatError, match="missing key"):
        load_corpus(p)


def test_load_corpus_zero_token_document(tmp_path):
    line = GOOD_LINE.replace("Referendum", "!").replace("words here", "? !")
    p = _write(tmp_path, "c.jsonl", line + "\n")
    with pytest.raises(CorpusFormatError, match="no tokens"):
        load_corpus(p)


@pytest.mark.parametrize(
    "title, has_tokens", [("ß", True), ("a _ b", False)], ids=["sharp-s", "underscore"]
)
def test_load_corpus_token_check_agrees_with_the_tokenizer(tmp_path, title, has_tokens):
    # "ß" casefolds to "ss"; "_" separates tokens, leaving two 1-char runs
    line = GOOD_LINE.replace("Referendum", title).replace("words here", "")
    p = _write(tmp_path, "c.jsonl", line + "\n")
    if has_tokens:
        assert load_corpus(p).documents[0].title == title
    else:
        with pytest.raises(CorpusFormatError, match="line 1: .* has no tokens"):
            load_corpus(p)


def test_load_corpus_merges_identical_duplicates(tmp_path):
    p = _write(tmp_path, "c.jsonl", GOOD_LINE + "\n" + GOOD_LINE + "\n")
    assert len(load_corpus(p)) == 1


def test_load_corpus_rejects_conflicting_duplicates(tmp_path):
    other = GOOD_LINE.replace("words here", "different words")
    p = _write(tmp_path, "c.jsonl", GOOD_LINE + "\n" + other + "\n")
    with pytest.raises(CorpusFormatError, match="differing content"):
        load_corpus(p)


def test_load_corpus_empty_file(tmp_path):
    p = _write(tmp_path, "c.jsonl", "\n\n")
    with pytest.raises(CorpusFormatError, match="no records"):
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
    save_corpus(Corpus([d, doc(id="b")]), p)
    first = p.read_text(encoding="utf-8").splitlines()[0]
    assert first == json.dumps(
        {"id": "a", "published_at": "2016-06-24T08:00:00Z", "source": "s",
         "title": 'Naïve "café"', "body": "x\ty", "language": "fr"},
        ensure_ascii=False,
    )


def test_load_stopwords_with_comments(tmp_path):
    p = _write(tmp_path, "s.txt", "# noise\nthe\nand # inline\n\n")
    assert load_stopwords(p) == frozenset({"the", "and"})


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
        title = draw(st.text(alphabet="abc XY2", min_size=2, max_size=12))
        body = draw(st.text(alphabet="abc XY2", min_size=2, max_size=20))
        d = Document(
            id=f"doc{i}",
            published_at=datetime(2016, 6, 1, tzinfo=timezone.utc)
            + timedelta(minutes=offset),
            source=draw(st.sampled_from(["s1", "s2"])),
            title=title if any(ch.isalnum() for ch in title) else title + "xx",
            body=body if any(ch.isalnum() for ch in body) else body + "yy",
        )
        docs.append(d)
    return docs


@given(documents())
def test_from_documents_always_sorted(docs):
    c = Corpus.from_documents(docs)
    keys = [(d.published_at, d.id) for d in c]
    assert keys == sorted(keys)


@given(docs=documents())
def test_round_trip_preserves_documents(docs, tmp_path_factory):
    c = Corpus.from_documents(docs)
    p = tmp_path_factory.mktemp("rt") / "c.jsonl"
    skip = any(not tokenize(d) for d in c)
    if skip:
        return  # zero-token docs are rejected on load by design
    save_corpus(c, p)
    assert load_corpus(p).documents == c.documents


@given(st.text())
@example("Straße ß")  # casefolds to "ss"
@example("a_bb_c__dd")  # underscore separates
@example("x1 22 3")  # digits
@example("e\u0301te \u0301a")  # combining marks
@example("a b c")  # single letters only
def test_one_step_tokenizer_equals_runs_of_two_or_more(text):
    # the two-step rule: every maximal letter/digit run, then drop runs
    # shorter than two characters
    folded = text.casefold()
    two_step = [t for t in re.findall(r"[^\W_]+", folded) if len(t) >= 2]
    assert _extract_tokens(text) == two_step
