"""Term ranking, event lexicon matching, query augmentation."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from opflow.corpus import FlowQuery, TermTable
from opflow.errors import DataError
from opflow.termbase import (
    DEFAULT_EVENT_LEXICON,
    DEFAULT_TOP_M,
    augment_query,
    compute_tfidf,
    document_frequencies,
    load_lexicon,
    match_event_terms,
    write_term_report,
)


def toks(*term_lists):
    return TermTable.from_terms((f"d{i}", list(terms)) for i, terms in enumerate(term_lists))


# --- tf-idf ----------------------------------------------------------------


def test_document_frequencies():
    docs = toks(["ab", "ab", "cd"], ["cd", "ef"])
    df = document_frequencies(docs)
    assert dict(zip(docs.vocab, df.tolist())) == {"ab": 1, "cd": 2, "ef": 1}


def test_tfidf_frozen_value():
    # one term in 1 of 2 docs with tf 3: weight = 3 * ln 2
    ranked = compute_tfidf(toks(["xx", "xx", "xx", "shared"], ["shared"]))
    by_term = {tw.term: tw for tw in ranked}
    assert abs(by_term["xx"].weight - 3 * math.log(2)) <= 1e-12
    assert by_term["xx"].tf_total == 3 and by_term["xx"].df == 1
    # a term in every document carries zero discriminating weight
    assert by_term["shared"].weight == 0.0


def test_tfidf_ties_break_lexicographically():
    # all three terms carry weight ln 2, so order is purely lexical
    ranked = compute_tfidf(toks(["bb", "aa"], ["zz"]))
    assert [tw.term for tw in ranked] == ["aa", "bb", "zz"]


def test_tfidf_counts_empty_docs_in_n():
    # N = 3 including the empty doc, so df 1 gives ln 3
    ranked = compute_tfidf(toks(["aa"], [], ["bb"]))
    by_term = {tw.term: tw.weight for tw in ranked}
    assert abs(by_term["aa"] - math.log(3)) <= 1e-12


def test_tfidf_rejects_all_empty():
    with pytest.raises(ValueError):
        compute_tfidf(toks([], []))
    with pytest.raises(ValueError):
        compute_tfidf(toks())


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee"]), min_size=1, max_size=8),
        min_size=1,
        max_size=12,
    )
)
def test_tfidf_matches_oracle_exactly(term_lists):
    ranked = compute_tfidf(toks(*term_lists))
    want = oracles.tfidf_weights(term_lists)
    assert [(tw.term, tw.weight) for tw in ranked] == want


# --- lexicon ---------------------------------------------------------------


def test_default_lexicon_is_the_six_event_terms():
    assert DEFAULT_EVENT_LEXICON == frozenset(
        {"protest", "referendum", "petition", "signatures", "demonstration",
         "terrorist act"}
    )


def test_bundled_lexicon_file_is_the_default_lexicon(fixtures_dir):
    assert load_lexicon(fixtures_dir / "lexicon.txt") == DEFAULT_EVENT_LEXICON


def test_load_lexicon_normalizes_and_dedupes(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("Protest\nPROTEST  # dup\nTerrorist Act\n# note\n", encoding="utf-8")
    lex = load_lexicon(p)
    assert lex == frozenset({"protest", "terrorist act"})


def test_load_lexicon_rejects_empty(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(DataError, match="no usable entries"):
        load_lexicon(p)


# --- event term matching ---------------------------------------------------


def test_match_single_terms_ranked_by_weight():
    docs = toks(
        ["referendum"] * 5 + ["protest"],
        ["filler"],
        ["filler2"],
    )
    ranked = compute_tfidf(docs)
    matched = match_event_terms(ranked, DEFAULT_EVENT_LEXICON, tokenized=docs)
    assert matched[0] == "referendum"
    assert "protest" in matched
    assert "petition" not in matched


def test_match_respects_top_m_cut():
    docs = toks(["strong"] * 9 + ["protest"], ["other"])
    ranked = compute_tfidf(docs)
    all_terms = match_event_terms(ranked, DEFAULT_EVENT_LEXICON, top_m=DEFAULT_TOP_M,
                                  tokenized=docs)
    assert "protest" in all_terms
    cut = match_event_terms(ranked, DEFAULT_EVENT_LEXICON, top_m=1, tokenized=docs)
    assert cut == []


def test_match_phrase_needs_adjacency_evidence():
    adjacent = toks(["terrorist", "act", "news"], ["filler"])
    apart = toks(["terrorist", "news", "act"], ["filler"])
    lex = frozenset({"terrorist act"})
    assert match_event_terms(compute_tfidf(adjacent), lex, tokenized=adjacent) == [
        "terrorist act"
    ]
    assert match_event_terms(compute_tfidf(apart), lex, tokenized=apart) == []


def test_match_empty_when_lexicon_disjoint():
    docs = toks(["economy", "market"], ["trade"])
    assert match_event_terms(compute_tfidf(docs), DEFAULT_EVENT_LEXICON,
                             tokenized=docs) == []


# --- augmentation ----------------------------------------------------------


def test_augment_query_adds_one_group():
    base = FlowQuery(required_groups=[{"brexit"}])
    aug = augment_query(base, ["protest", "petition"])
    assert len(aug.required_groups) == 2
    assert frozenset({"protest", "petition"}) in aug.required_groups


def test_augment_query_without_terms_or_base():
    base = FlowQuery(required_groups=[{"brexit"}], excluded_terms={"sport"})
    assert augment_query(base, []) is base
    assert augment_query(None, []) is None
    alone = augment_query(None, ["protest"])
    assert alone.required_groups == [frozenset({"protest"})]
    assert alone.excluded_terms == frozenset()


# --- report ----------------------------------------------------------------


def test_write_term_report_layout(tmp_path):
    ranked = compute_tfidf(toks(["aa", "aa", "bb"], ["bb"]))
    p = tmp_path / "terms.tsv"
    write_term_report(ranked, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "rank\tterm\tdf\ttf_total\tweight"
    first = lines[1].split("\t")
    assert first[0] == "1" and first[1] == "aa"
    assert float(first[4]) == pytest.approx(2 * math.log(2))


def test_report_is_deterministic(tmp_path):
    random.seed(4)
    lists = [[random.choice("abcde") * 2 for _ in range(6)] for _ in range(9)]
    p1, p2 = tmp_path / "1.tsv", tmp_path / "2.tsv"
    write_term_report(compute_tfidf(toks(*lists)), p1)
    write_term_report(compute_tfidf(toks(*lists)), p2)
    assert p1.read_bytes() == p2.read_bytes()
