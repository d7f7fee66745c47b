"""Keyword-seeded k-means over sparse tf-idf document vectors.

Documents are L2-normalized sparse term vectors; each cluster centroid
starts as a unit vector spread uniformly over the tokens of one seed
term and is re-estimated as the truncated, renormalized mean of its members.
Similarity is the plain dot product (cosine, since all vectors are unit
length with non-negative weights), so one assignment pass costs exactly
k*N similarity evaluations; these are counted so the linear per-pass
cost is checkable, not just claimed.

Documents orthogonal to every centroid go to a reserved "unassigned"
bucket (index 0) and never contribute to the clustering quality Q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

UNASSIGNED = 0


class SimCounter:
    """Counts similarity evaluations; lets tests audit the per-pass work."""

    def __init__(self) -> None:
        self.count = 0

    def reset(self) -> None:
        self.count = 0


SIM_EVALUATIONS = SimCounter()


@dataclass
class DocVector:
    """Sparse, L2-normalized term-weight vector of one document."""

    doc_id: str
    weights: dict[str, float]


@dataclass
class Centroid:
    """Unit-length representative vector of one cluster."""

    cluster_index: int
    weights: dict[str, float]
    seed_terms: list[str] = field(default_factory=list)


@dataclass
class Clustering:
    """Result of a seeded k-means run."""

    assignments: dict[str, int]
    centroids: list[Centroid]
    q_history: list[float]
    iterations: int
    sims: dict[str, float]  # each doc's best sim in the final pass


def vectorize(
    tokenized: list,  # list[TokenizedDoc]
    df: dict[str, int],
    n_docs: int,
) -> list[DocVector]:
    """tf * ln(N/df) weights per document, L2-normalized.

    Documents whose every term has zero idf (df == N) reduce to the zero
    vector and are left out of the result.
    """
    if n_docs < 1:
        raise ValueError("corpus size must be >= 1")
    idf = {}
    vectors = []
    for tok in tokenized:
        weights: dict[str, float] = {}
        for term, tf in tok.term_counts.items():
            if term not in idf:
                idf[term] = math.log(n_docs / df[term])
            w = tf * idf[term]
            if w > 0.0:
                weights[term] = w
        if not weights:
            continue
        norm = math.sqrt(sum(w * w for w in weights.values()))
        vectors.append(
            DocVector(doc_id=tok.doc_id, weights={t: w / norm for t, w in weights.items()})
        )
    return vectors


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


def sim(d: DocVector, c: Centroid) -> float:
    """Dot product of the sparse weight maps; in [0, 1] for unit vectors
    with non-negative weights."""
    SIM_EVALUATIONS.count += 1
    a, b = d.weights, c.weights
    if len(b) < len(a):
        a, b = b, a
    return sum(w * b[t] for t, w in a.items() if t in b)


def assign(
    vectors: list[DocVector], centroids: list[Centroid]
) -> tuple[dict[str, int], dict[str, float]]:
    """One assignment pass: map each doc to the centroid with the largest
    similarity, and report that similarity per doc.

    Ties go to the smallest cluster index; docs with zero similarity to
    every centroid go to the UNASSIGNED bucket.  Exactly
    len(centroids) * len(vectors) sim evaluations.
    """
    if not centroids:
        raise ValueError("at least one centroid is required")
    assignments: dict[str, int] = {}
    best_sims: dict[str, float] = {}
    for vec in vectors:
        best_j = UNASSIGNED
        best_s = 0.0
        for c in centroids:
            s = sim(vec, c)
            if s > best_s:
                best_s = s
                best_j = c.cluster_index
        assignments[vec.doc_id] = best_j
        best_sims[vec.doc_id] = best_s
    return assignments, best_sims


def recompute_centroids(
    assignments: dict[str, int],
    vectors: list[DocVector],
    top_t: int,
    previous: list[Centroid],
) -> list[Centroid]:
    """Per cluster: mean of member vectors, truncated to the top_t
    heaviest terms (ties broken by term), renormalized.  Empty clusters
    keep their previous centroid."""
    if top_t < 1:
        raise ValueError(f"top_t must be >= 1, got {top_t}")
    by_id = {v.doc_id: v for v in vectors}
    members: dict[int, list[str]] = {c.cluster_index: [] for c in previous}
    for doc_id, j in assignments.items():
        if j != UNASSIGNED:
            members[j].append(doc_id)
    out = []
    for c in previous:
        ids = sorted(members[c.cluster_index])
        if not ids:
            out.append(c)
            continue
        sums: dict[str, float] = {}
        for doc_id in ids:
            for term, w in by_id[doc_id].weights.items():
                sums[term] = sums.get(term, 0.0) + w
        count = len(ids)
        mean = {t: s / count for t, s in sums.items()}
        kept = sorted(mean.items(), key=lambda item: (-item[1], item[0]))[:top_t]
        norm = math.sqrt(sum(w * w for _, w in kept))
        out.append(
            Centroid(
                cluster_index=c.cluster_index,
                weights={t: w / norm for t, w in kept},
                seed_terms=list(c.seed_terms),
            )
        )
    return out


def kmeans_seeded(
    vectors: list[DocVector],
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
    assigns nothing.  The result keeps the final pass's best sims and
    the centroids that pass used.
    """
    if not seeds:
        raise ValueError("at least one seed centroid is required")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    centroids = list(seeds)
    q_history: list[float] = []
    prev: dict[str, int] | None = None
    for it in range(1, max_iter + 1):
        assignments, best_sims = assign(vectors, centroids)
        q = 0.0
        for s in best_sims.values():  # doc order; sum() compensates on Python >= 3.12
            q += s
        q_history.append(q)
        if assignments == prev or it == max_iter or q == 0.0:
            break
        centroids = recompute_centroids(assignments, vectors, top_t, centroids)
        prev = assignments
    return Clustering(
        assignments=assignments,
        centroids=centroids,
        q_history=q_history,
        iterations=len(q_history),
        sims=best_sims,
    )


def write_cluster_report(
    clustering: Clustering, path: str | Path, omitted_doc_ids: list[str]
) -> None:
    """One JSON document describing clusters, members, and the Q trace."""
    members: dict[int, list[str]] = {c.cluster_index: [] for c in clustering.centroids}
    members[UNASSIGNED] = []
    for doc_id, j in sorted(clustering.assignments.items()):
        members[j].append(doc_id)
    clusters = []
    for c in clustering.centroids:
        member_ids = members[c.cluster_index]
        centroid_terms = [
            {"term": t, "weight": w}
            for t, w in sorted(c.weights.items(), key=lambda item: (-item[1], item[0]))
        ]
        clusters.append(
            {
                "index": c.cluster_index,
                "seed_terms": list(c.seed_terms),
                "centroid_terms": centroid_terms,
                "member_count": len(member_ids),
                "members": [
                    {"doc_id": doc_id, "sim": clustering.sims[doc_id]} for doc_id in member_ids
                ],
            }
        )
    report = {
        "iterations": clustering.iterations,
        "q_history": clustering.q_history,
        "clusters": clusters,
        "unassigned_doc_ids": members[UNASSIGNED],
        "omitted_doc_ids": sorted(omitted_doc_ids),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
