"""Significant-term extraction and event-lexicon matching.

Ranks corpus terms by an aggregated tf-idf score (per-document
tf * ln(N/df), summed over documents), intersects the top of the ranking
with a curated lexicon of event words, and uses the surviving event
terms to tighten the flow query so only event-bearing documents remain.

Scores come from the term table's arrays: df and the summed weights are
``np.bincount`` over the rows' distinct terms, which adds each term's
contributions one by one in document order, so the floats equal a plain
loop over the documents.  idf is ``math.log`` per vocabulary term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import FlowQuery, TermTable, read_terms
from .errors import DataError

DEFAULT_TOP_M = 200


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


def document_frequencies(tokenized: TermTable) -> np.ndarray:
    """Number of documents containing each term, indexed by term id."""
    return np.bincount(tokenized.row_terms, minlength=len(tokenized.vocab))


def inverse_document_frequencies(df: np.ndarray, n_docs: int) -> np.ndarray:
    """ln(N/df) per term id, by ``math.log`` one term at a time; 0.0
    where df is 0."""
    present = np.flatnonzero(df)
    idf = np.zeros(len(df))
    idf[present] = [math.log(n_docs / count) for count in df[present].tolist()]
    return idf


def compute_tfidf(tokenized: TermTable) -> list[TermWeight]:
    """Rank the terms of the table's documents by summed tf * ln(N/df).

    N counts every document passed in, empty ones included.  Ties are
    broken by term, ascending, so the ranking is total and reproducible.
    """
    n_docs = len(tokenized)
    if n_docs == 0 or len(tokenized.term_ids) == 0:
        raise DataError("tf-idf needs at least one non-empty document")
    df = document_frequencies(tokenized)
    idf = inverse_document_frequencies(df, n_docs)
    present = np.flatnonzero(df)
    terms = tokenized.row_terms
    weights = np.bincount(terms, weights=tokenized.row_counts * idf[terms], minlength=len(df))
    tf_totals = np.bincount(tokenized.term_ids, minlength=len(df))
    ranked = [
        TermWeight(term=tokenized.vocab[t], tf_total=tf, df=d, weight=w)
        for t, tf, d, w in zip(
            present.tolist(),
            tf_totals[present].tolist(),
            df[present].tolist(),
            weights[present].tolist(),
        )
    ]
    ranked.sort(key=lambda tw: (-tw.weight, tw.term))
    return ranked


def load_lexicon(path: str | Path) -> frozenset[str]:
    """Lexicon file: the terms :func:`read_terms` reads, as a set."""
    entries = frozenset(read_terms(path))
    if not entries:
        raise DataError(f"lexicon file {path} has no usable entries")
    return entries


def match_event_terms(
    ranked: list[TermWeight],
    lexicon: frozenset[str],
    tokenized: TermTable,
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
        if tokenized.contains_any([entry]).any():
            matched.append((min(weight_of[t] for t in tokens), entry))
    matched.sort(key=lambda pair: (-pair[0], pair[1]))
    return [term for _, term in matched]


def augment_query(base: FlowQuery | None, event_terms: list[str]) -> FlowQuery | None:
    """Narrow the base query with one extra OR-group of event terms: the
    base itself when there are none, the event terms' group alone when
    there is no base."""
    if not event_terms:
        return base
    groups = base.required_groups if base else []
    return FlowQuery(
        required_groups=[*groups, frozenset(event_terms)],
        excluded_terms=base.excluded_terms if base else frozenset(),
    )


def write_term_report(ranked: list[TermWeight], path: str | Path) -> None:
    """TSV export with columns rank, term, df, tf_total, weight."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("rank\tterm\tdf\ttf_total\tweight\n")
        for rank, tw in enumerate(ranked, start=1):
            handle.write(f"{rank}\t{tw.term}\t{tw.df}\t{tw.tf_total}\t{repr(tw.weight)}\n")
