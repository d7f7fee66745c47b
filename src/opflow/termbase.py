"""Significant-term extraction and event-lexicon matching.

Ranks corpus terms by an aggregated tf-idf score (per-document
tf * ln(N/df), summed over documents), intersects the top of the ranking
with a curated lexicon of event words, and uses the surviving event
terms to tighten the flow query so only event-bearing documents remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import FlowQuery, TokenizedDoc, normalize_term, read_line_file
from .errors import DataError

DEFAULT_TOP_M = 200


class LexiconError(DataError):
    """The event lexicon file is missing, empty, or unusable."""


@dataclass
class TermWeight:
    """Corpus-level significance of one term."""

    term: str
    tf_total: int
    df: int
    weight: float


# The six-entry default event dictionary of normalized words and phrases;
# callers supply their own file for richer domains.
DEFAULT_EVENT_LEXICON = frozenset(
    {
        "protest",
        "referendum",
        "petition",
        "signatures",
        "demonstration",
        "terrorist act",
    }
)


def document_frequencies(tokenized: list[TokenizedDoc]) -> dict[str, int]:
    """Number of documents containing each term."""
    df: dict[str, int] = {}
    for tok in tokenized:
        for term in tok.term_counts:
            df[term] = df.get(term, 0) + 1
    return df


def compute_tfidf(tokenized: list[TokenizedDoc]) -> list[TermWeight]:
    """Rank all corpus terms by summed tf * ln(N/df).

    N counts every document passed in, empty ones included.  Ties are
    broken by term, ascending, so the ranking is total and reproducible.
    """
    n_docs = len(tokenized)
    if n_docs == 0 or all(not tok.terms for tok in tokenized):
        raise ValueError("tf-idf needs at least one non-empty document")
    df = document_frequencies(tokenized)
    idf = {term: math.log(n_docs / count) for term, count in df.items()}
    weights: dict[str, float] = {term: 0.0 for term in df}
    tf_totals: dict[str, int] = {term: 0 for term in df}
    for tok in tokenized:
        for term, tf in tok.term_counts.items():
            weights[term] += tf * idf[term]
            tf_totals[term] += tf
    ranked = [
        TermWeight(term=t, tf_total=tf_totals[t], df=df[t], weight=weights[t])
        for t in df
    ]
    ranked.sort(key=lambda tw: (-tw.weight, tw.term))
    return ranked


def load_lexicon(path: str | Path) -> frozenset[str]:
    """Lexicon file: one entry per line, '#' comments; entries are
    normalized with the corpus tokenizer and deduplicated."""
    terms = (normalize_term(data) for _, data, _ in read_line_file(path))
    entries = frozenset(t for t in terms if t)
    if not entries:
        raise LexiconError(f"lexicon file {path} has no usable entries")
    return entries


def _phrase_occurs(phrase: str, tokenized: list[TokenizedDoc]) -> bool:
    return any(tok.contains(phrase) for tok in tokenized)


def match_event_terms(
    ranked: list[TermWeight],
    lexicon: frozenset[str],
    tokenized: list[TokenizedDoc],
    top_m: int = DEFAULT_TOP_M,
) -> list[str]:
    """Lexicon entries present among the top_m ranked terms, best first.

    A multi-token phrase matches when every constituent token is in the
    top_m single-term ranking and the phrase occurs as an adjacent token
    run in at least one document; it is scored with the minimum of its
    constituents' weights.  ``tokenized`` supplies the adjacency
    evidence.
    """
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    top = ranked[:top_m]
    weight_of = {tw.term: tw.weight for tw in top}
    matched: list[tuple[float, str]] = []
    for entry in lexicon:
        if " " not in entry:
            if entry in weight_of:
                matched.append((weight_of[entry], entry))
            continue
        tokens = entry.split(" ")
        if not all(t in weight_of for t in tokens):
            continue
        if _phrase_occurs(entry, tokenized):
            matched.append((min(weight_of[t] for t in tokens), entry))
    matched.sort(key=lambda pair: (-pair[0], pair[1]))
    return [term for _, term in matched]


def augment_query(base: FlowQuery, event_terms: list[str]) -> FlowQuery:
    """Narrow the base query with one extra OR-group of event terms."""
    if not event_terms:
        raise ValueError("cannot augment a query with an empty event-term list")
    return FlowQuery(
        required_groups=list(base.required_groups) + [frozenset(event_terms)],
        excluded_terms=base.excluded_terms,
    )


def write_term_report(ranked: list[TermWeight], path: str | Path) -> None:
    """TSV export with columns rank, term, df, tf_total, weight."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("rank\tterm\tdf\ttf_total\tweight\n")
        for rank, tw in enumerate(ranked, start=1):
            handle.write(f"{rank}\t{tw.term}\t{tw.df}\t{tw.tf_total}\t{repr(tw.weight)}\n")
