"""Keyword-seeded k-means over sparse tf-idf document vectors.

Documents are L2-normalized sparse term vectors, held together as CSR
rows (:class:`DocVectors`); each cluster centroid starts as a unit
vector spread uniformly over the tokens of one seed term and is
re-estimated as the truncated, renormalized mean of its members.
Similarity is the plain dot product (cosine, since all vectors are unit
length with non-negative weights), so one assignment pass costs exactly
k*N similarity evaluations; these are counted so the linear per-pass
cost is checkable, not just claimed.

Documents orthogonal to every centroid go to a reserved "unassigned"
bucket (index 0) and never contribute to the clustering quality Q.

Every float sum runs left to right in a fixed order, as a plain Python
loop over term maps would, never pairwise (``np.sum``) or compensated
(builtin ``sum`` on Python >= 3.12).  Each similarity is summed once,
over the smaller of its two maps: a row's terms in first-appearance
order, added column by column over the rows (:func:`_row_sums`), or the
centroid's terms in its own order, over each term's postings, which a
stable sort of the term ids lists in row order.  A term's weights over
cluster members are added in doc-id order (``np.bincount``), and Q over
documents in order.  So vectors, similarities, Q and centroids are the
same bits on every supported Python version.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .corpus import TermTable, csr_entry_rows, csr_offsets, csr_take
from .termbase import inverse_document_frequencies

UNASSIGNED = 0
# one member of the cluster report, and the text between two members
_MEMBER = '{\n          "doc_id": %s,\n          "sim": %r\n        }'
_MEMBER_GLUE = ",\n        "
# members formatted per write of the cluster report, which bounds the
# memory the report takes whatever the clusters' sizes
_MEMBERS_CHUNK = 1024


# similarity evaluations so far, in ``.count``: the difference of two
# readings audits the per-pass work
SIM_EVALUATIONS = SimpleNamespace(count=0)


@dataclass
class DocVectors:
    """Sparse, L2-normalized term-weight vectors of documents, as CSR rows.

    Row ``i`` is document ``doc_ids[i]``; its term ids (into ``vocab``)
    and weights are ``terms`` and ``weights`` over
    ``indptr[i]:indptr[i + 1]``, in order of first appearance in the
    document.  ``len()`` is the number of documents.
    """

    doc_ids: list[str]
    vocab: list[str]
    indptr: np.ndarray
    terms: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def _columns(self) -> np.ndarray:
        return _columns_of(self.indptr)

    @cached_property
    def _term_index(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.vocab)}

    @cached_property
    def _by_term(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The same entries grouped by term (CSC): pointer, rows, weights."""
        # a stable sort of 16-bit keys is a radix sort, and the stable
        # permutation of equal ids does not depend on the key width
        keys = self.terms.astype(np.uint16) if len(self.vocab) <= 1 << 16 else self.terms
        order = np.argsort(keys, kind="stable")
        del keys
        pointer = csr_offsets(np.bincount(self.terms, minlength=len(self.vocab)))
        rows = np.repeat(np.arange(len(self), dtype=_index_dtype(len(self))), np.diff(self.indptr))
        return pointer, rows[order], self.weights[order]

    @cached_property
    def _id_order(self) -> np.ndarray:
        """Rows in ascending doc-id order."""
        return np.array(sorted(range(len(self)), key=self.doc_ids.__getitem__), dtype=np.int64)

    @cached_property
    def _term_rank(self) -> np.ndarray:
        """Each term id's place in ascending term order."""
        order = sorted(range(len(self.vocab)), key=self.vocab.__getitem__)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return rank


@dataclass
class Centroid:
    """Unit-length representative vector of one cluster."""

    cluster_index: int
    weights: dict[str, float]
    seed_terms: list[str] = field(default_factory=list)


@dataclass(eq=False)  # arrays have no single truth value to compare by
class Clustering:
    """Result of a seeded k-means run: the cluster index and best sim the
    final pass gave each row of ``vectors``, and the centroids it used."""

    vectors: DocVectors
    labels: np.ndarray
    sims: np.ndarray
    centroids: list[Centroid]
    q_history: list[float]
    iterations: int


def _index_dtype(top: int) -> type:
    """The narrower integer type that holds indices up to ``top``."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


def _columns_of(indptr: np.ndarray) -> np.ndarray:
    """The rows padded to equal length, as a (width x rows) matrix of
    entry indices: row ``i``'s ``j``-th entry index at ``[j, i]``, and
    ``indptr[-1]``, one past the last entry, where the row is shorter."""
    lengths = np.diff(indptr)
    starts, end = indptr[:-1], int(indptr[-1])
    columns = np.empty((int(lengths.max(initial=0)), len(lengths)), dtype=_index_dtype(end))
    for j, column in enumerate(columns):
        column[:] = np.where(lengths > j, starts + j, end)
    return columns


def _row_sums(values: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Sum of each row's values, added left to right from 0.0, where
    ``values`` holds the entries and then one 0.0, at which
    :func:`_columns_of` points a row's padding.  A sum that starts at
    +0.0 is never -0.0, and adding +0.0 changes no other value, so the
    padding changes no bit of any sum."""
    total = np.zeros(columns.shape[1])
    for column in columns:
        total += values[column]
    return total


def vectorize(tokenized: TermTable, df: np.ndarray, n_docs: int) -> DocVectors:
    """tf * ln(N/df) weights per document, L2-normalized.

    ``df`` is indexed by term id.  Documents whose every term has zero
    idf (df == N) reduce to the zero vector and are left out of the
    result.
    """
    if n_docs < 1:
        raise ValueError("corpus size must be >= 1")
    idf = inverse_document_frequencies(df, n_docs)
    raw = idf[tokenized.row_terms]
    raw *= tokenized.row_counts
    rows = csr_entry_rows(tokenized.row_ptr)
    terms = tokenized.row_terms
    kept = raw > 0.0
    if not kept.all():
        raw, rows, terms = raw[kept], rows[kept], terms[kept]
    indptr = csr_offsets(np.bincount(rows, minlength=len(tokenized)))
    squares = np.empty(len(raw) + 1)
    np.multiply(raw, raw, out=squares[:-1])
    squares[-1] = 0.0
    norms = np.sqrt(_row_sums(squares, _columns_of(indptr)))
    del squares
    raw /= norms[rows]
    nonempty = np.flatnonzero(np.diff(indptr))
    return DocVectors(
        doc_ids=[tokenized.doc_ids[i] for i in nonempty.tolist()],
        vocab=tokenized.vocab,
        indptr=csr_offsets(np.diff(indptr)[nonempty]),
        terms=terms,
        weights=raw,
    )


def seed_centroids(event_terms: list[str]) -> list[Centroid]:
    """One centroid per event term, uniform over the term's distinct
    tokens (a phrase contributes each constituent token), L2-normalized.
    """
    if not event_terms:
        raise ValueError("at least one event term is required")
    centroids = []
    seen: set[str] = set()
    for j, term in enumerate(event_terms, start=1):
        if term in seen:
            raise ValueError(f"repeated seed term {term!r}")
        seen.add(term)
        tokens = sorted(set(term.split(" ")))
        w = 1.0 / math.sqrt(len(tokens))
        centroids.append(
            Centroid(cluster_index=j, weights={t: w for t in tokens}, seed_terms=[term])
        )
    return centroids


def _sims(vectors: DocVectors, centroid: Centroid) -> np.ndarray:
    """Dot product of every vector with the centroid, summed left to
    right over the smaller of the two term maps (the vector's when they
    are the same size), in that map's order; in [0, 1] for unit vectors
    with non-negative weights.  Each row is summed in that one order."""
    index = vectors._term_index
    known = [(index[t], w) for t, w in centroid.weights.items() if t in index]
    size = len(centroid.weights)
    longer = np.diff(vectors.indptr) > size
    sims = np.zeros(len(vectors))
    if not longer.all():
        dense = np.zeros(len(vectors.vocab))
        for term_id, w in known:
            dense[term_id] = w
        # a row no longer than the centroid has no entry past column ``size``
        products = np.empty(len(vectors.terms) + 1)
        # every id is in range; "clip" writes into ``out`` without a buffer
        np.take(dense, vectors.terms, out=products[:-1], mode="clip")
        products[:-1] *= vectors.weights
        products[-1] = 0.0
        sims = _row_sums(products, vectors._columns[:size])
    if longer.any():
        pointer, rows, doc_weights = vectors._by_term
        in_centroid_order = np.zeros(len(vectors))
        for term_id, w in known:
            span = slice(pointer[term_id], pointer[term_id + 1])
            in_centroid_order[rows[span]] += w * doc_weights[span]
        sims = np.where(longer, in_centroid_order, sims)
    return sims


def assign(vectors: DocVectors, centroids: list[Centroid]) -> tuple[np.ndarray, np.ndarray]:
    """One assignment pass: the cluster index of the centroid with the
    largest similarity to each vector, and that similarity, per row.

    Ties go to the smallest cluster index; docs with zero similarity to
    every centroid go to the UNASSIGNED bucket.  Exactly
    len(centroids) * len(vectors) sim evaluations.
    """
    if not centroids:
        raise ValueError("at least one centroid is required")
    best_j = np.full(len(vectors), UNASSIGNED, dtype=np.int64)
    best_s = np.zeros(len(vectors))
    for c in centroids:
        s = _sims(vectors, c)
        SIM_EVALUATIONS.count += len(vectors)
        better = s > best_s
        best_s[better] = s[better]
        best_j[better] = c.cluster_index
    return best_j, best_s


def recompute_centroids(
    assignments: np.ndarray,
    vectors: DocVectors,
    top_t: int,
    previous: list[Centroid],
) -> list[Centroid]:
    """Per cluster: mean of member vectors, truncated to the top_t
    heaviest terms (ties broken by term), renormalized.  Empty clusters
    keep their previous centroid.  ``assignments`` holds each row's
    cluster index.  Members are summed in ascending doc-id order."""
    if top_t < 1:
        raise ValueError(f"top_t must be >= 1, got {top_t}")
    order = vectors._id_order
    labels = assignments[order]
    n_terms = len(vectors.vocab)
    out = []
    for c in previous:
        members = order[labels == c.cluster_index]
        if not members.size:
            out.append(c)
            continue
        entries, _ = csr_take(vectors.indptr, members)
        terms = vectors.terms[entries]
        sums = np.bincount(terms, weights=vectors.weights[entries], minlength=n_terms)
        present = np.flatnonzero(np.bincount(terms, minlength=n_terms))
        mean = sums[present] / len(members)
        top = np.lexsort((vectors._term_rank[present], -mean))[:top_t]
        kept = [
            (vectors.vocab[t], w) for t, w in zip(present[top].tolist(), mean[top].tolist())
        ]
        norm_sq = 0.0
        for _, w in kept:
            norm_sq += w * w
        norm = math.sqrt(norm_sq)
        out.append(
            Centroid(
                cluster_index=c.cluster_index,
                weights={t: w / norm for t, w in kept},
                seed_terms=list(c.seed_terms),
            )
        )
    return out


def kmeans_seeded(
    vectors: DocVectors,
    seeds: list[Centroid],
    max_iter: int = 50,
    top_t: int = 25,
) -> Clustering:
    """Alternate assignment and centroid re-estimation until the
    assignment is a fixed point (or max_iter passes have run).  A pass
    that assigns no document (no vectors, or none sharing a term with a
    centroid) leaves every centroid in place, so it is a fixed point.

    q_history records Q of each pass, i.e. the sum of winning
    similarities against the centroids that produced the assignment; an
    unassigned doc's best sim is 0.0, so Q is 0.0 exactly when the pass
    assigns nothing.
    """
    if not seeds:
        raise ValueError("at least one seed centroid is required")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    centroids = list(seeds)
    q_history: list[float] = []
    prev: np.ndarray | None = None
    for it in range(1, max_iter + 1):
        labels, best_sims = assign(vectors, centroids)
        q = 0.0
        for s in best_sims.tolist():  # left to right, in doc order
            q += s
        q_history.append(q)
        if (prev is not None and np.array_equal(labels, prev)) or it == max_iter or q == 0.0:
            break
        centroids = recompute_centroids(labels, vectors, top_t, centroids)
        prev = labels
    return Clustering(
        vectors=vectors, labels=labels, sims=best_sims, centroids=centroids,
        q_history=q_history, iterations=len(q_history),
    )


def _members_chunk(doc_ids: list[str], sims: np.ndarray, rows: list[int]) -> str:
    """Members of the given rows, laid out and joined as ``json.dump``
    with ``indent=2`` lays out a "members" list at that depth of the
    report: one ``%`` format over the interleaved (encoded id, sim)
    values."""
    values = [None] * (2 * len(rows))
    values[::2] = map(encode_basestring_ascii, map(doc_ids.__getitem__, rows))
    values[1::2] = sims[rows].tolist()
    return _MEMBER_GLUE.join([_MEMBER] * len(rows)) % tuple(values)


def write_cluster_report(
    clustering: Clustering, path: str | Path, omitted_doc_ids: list[str]
) -> None:
    """One JSON document describing clusters, members (in doc-id order), and the Q trace.

    ``json.dumps(indent=2, sort_keys=True)`` lays the report out with
    every member list empty.  It is written piece by piece, with each
    ``"members": []`` replaced by its cluster's list, written directly
    a chunk of members at a time, so the report is never held whole.
    The text ``"members": []`` can only be such a key: a string's own
    quotes are escaped.
    """
    order = clustering.vectors._id_order
    labels = clustering.labels[order]
    doc_ids = clustering.vectors.doc_ids
    rows_of = {
        j: order[labels == j]
        for j in [c.cluster_index for c in clustering.centroids] + [UNASSIGNED]
    }
    clusters = [
        {
            "index": c.cluster_index,
            "seed_terms": list(c.seed_terms),
            "centroid_terms": [
                {"term": t, "weight": w}
                for t, w in sorted(c.weights.items(), key=lambda item: (-item[1], item[0]))
            ],
            "member_count": len(rows_of[c.cluster_index]),
            "members": [],
        }
        for c in clustering.centroids
    ]
    report = {
        "iterations": clustering.iterations,
        "q_history": clustering.q_history,
        "clusters": clusters,
        "unassigned_doc_ids": [doc_ids[i] for i in rows_of[UNASSIGNED].tolist()],
        "omitted_doc_ids": sorted(omitted_doc_ids),
    }
    pieces = json.dumps(report, indent=2, sort_keys=True).split('"members": []')
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(pieces[0])
        for c, piece in zip(clustering.centroids, pieces[1:]):
            rows = rows_of[c.cluster_index]
            handle.write('"members": [')
            for start in range(0, len(rows), _MEMBERS_CHUNK):
                part = rows[start:start + _MEMBERS_CHUNK].tolist()
                handle.write(_MEMBER_GLUE if start else "\n        ")
                handle.write(_members_chunk(doc_ids, clustering.sims, part))
            handle.write(("\n      ]" if len(rows) else "]") + piece)
        handle.write("\n")
