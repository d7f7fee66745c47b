"""Independent reference implementations used to gate the fast paths.

Each oracle is written in the most direct way available (fsum loops,
literal O(n^3) scans) with no code shared with the package, so
agreement between the two is evidence and not tautology.
``correlation_cell`` is no oracle: it is the package's correlogram read
at one cell, the side the correlation oracle checks.  ``cells`` reads a
correlogram's arrays cell by cell, so tests can compare them as a dict.
``smooth_loop`` is no oracle either: it is a frozen copy of the
per-day loop ``smooth`` replaced.  ``FIXTURE_BURST``, ``FIXTURE_CLUSTERS``
and ``write_fixture`` are the recipe of the bundled fixture, built by the
package's own generators.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from opflow.corpus import save_corpus
from opflow.flowseries import DEFAULT_TEMPLATE, LifecycleTemplate, correlogram, write_series_csv
from opflow.synthflow import (
    BurstSpec, ClusterDef, ClusterSpec, generate_burst_series, generate_cluster_corpus,
)


def pearson(xs, ps):
    """Direct Pearson correlation; None when either side has no spread."""
    n = len(xs)
    assert n == len(ps) and n >= 2
    if all(x == xs[0] for x in xs) or all(p == ps[0] for p in ps):
        return None
    mean_x = math.fsum(xs) / n
    mean_p = math.fsum(ps) / n
    num = math.fsum((x - mean_x) * (p - mean_p) for x, p in zip(xs, ps))
    den_x = math.fsum((x - mean_x) ** 2 for x in xs)
    den_p = math.fsum((p - mean_p) ** 2 for p in ps)
    return num / math.sqrt(den_x * den_p)


def cells(corr):
    """``(l, k) -> value`` dict of a correlogram's admissible cells, in
    (l, k) order, with None where the correlation is undefined; read from
    its arrays one scale and shift at a time."""
    out = {}
    for i, k in enumerate(corr.scales):
        for j, l in enumerate(corr.shifts):
            if corr.admissible[i, j]:
                out[(l, k)] = None if corr.undefined[i, j] else float(corr.values[i, j])
    return dict(sorted(out.items()))


def smooth_loop(values, window):
    """The centered moving average of a series' values as ``smooth`` once
    computed it, one ``np.mean`` per day; a regression pin, not an oracle."""
    half = window // 2
    vals = np.asarray(values, dtype=float)
    n = len(vals)
    return [float(np.mean(vals[max(0, i - half):min(n, i + half + 1)])) for i in range(n)]


def correlation_cell(series, l, k, samples):
    """Cell (l, k) of the correlogram of the series against the template
    whose knots are the k samples at positions i/(k-1), which
    ``sample_template`` gives back exactly; None where undefined.  An
    inadmissible window has no cell (KeyError)."""
    template = LifecycleTemplate(list(zip(np.arange(k) / (k - 1), samples)))
    return cells(correlogram(series, template, scales=[k], shifts=[l]))[(l, k)]


def detect_peaks(cells, threshold, top_n):
    """(shift, scale, value) of the defined cells of a ``(l, k) -> value``
    dict at or above min(threshold, 1), by one tuple sort: value
    descending, then shift, then scale; the first top_n."""
    threshold = min(float(threshold), 1.0)
    hits = [(l, k, v) for (l, k), v in sorted(cells.items()) if v is not None and v >= threshold]
    hits.sort(key=lambda cell: (-cell[2], cell[0], cell[1]))
    return hits[:top_n]


def correlogram_csv(cells):
    """Bytes of correlogram.csv for a ``(l, k) -> value`` dict, rows in
    sorted key order, undefined cells as NA."""
    rows = ["l,k,c\n"]
    for (l, k), v in sorted(cells.items()):
        rows.append(f"{l},{k},{'NA' if v is None else repr(v)}\n")
    return "".join(rows).encode("utf-8")


def sample_piecewise(points, k):
    """Piecewise-linear values at positions i/(k-1), by segment search."""
    assert k >= 2
    out = []
    for i in range(k):
        t = i / (k - 1)
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if x0 <= t <= x1:
                out.append(y0 if x1 == x0 else y0 + (y1 - y0) * (t - x0) / (x1 - x0))
                break
        else:
            raise AssertionError(f"position {t} outside control points")
    return out


def hvg_edges(values):
    """Literal reading of the horizontal visibility rule, O(n^3)."""
    n = len(values)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if all(
                values[m] < values[i] and values[m] < values[j]
                for m in range(i + 1, j)
            ):
                edges.add((i, j))
    return edges


def source_graph(day_sources):
    """Nodes and edges of the source projection of the HVG, by Counters.

    ``day_sources[k]`` lists the sources of the documents on day k of
    the span; a day's dominant source has the most documents, ties to
    the smallest name.
    """
    dominant = []
    for sources in day_sources:
        counts = Counter(sources)
        dominant.append(min(counts, key=lambda s: (-counts[s], s)) if counts else None)
    edges = Counter()
    for i, j in hvg_edges([len(sources) for sources in day_sources]):
        a, b = dominant[i], dominant[j]
        if a is not None and b is not None and a != b:
            edges[tuple(sorted((a, b)))] += 1
    nodes = Counter(s for sources in day_sources for s in sources)
    return dict(nodes), dict(edges)


def tfidf_weights(token_lists):
    """tf_total * ln(N/df) per term, one product each, with the counts
    taken by Counters over the token lists.

    Returns (term, weight) pairs sorted by weight descending, term
    ascending.  Each weight is one float product of an integer and one
    ``math.log``, so the comparison can demand exact float equality.
    """
    n = len(token_lists)
    df = Counter()
    tf_total = Counter()
    for terms in token_lists:
        df.update(set(terms))
        tf_total.update(terms)
    weights = {term: tf_total[term] * math.log(n / df[term]) for term in df}
    return sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))


def _left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def sparse_dot(vector, centroid):
    """Dot product of two {term: weight} maps, summed left to right over
    the smaller map (the vector's when they are the same size), in that
    map's order."""
    small, large = (centroid, vector) if len(centroid) < len(vector) else (vector, centroid)
    return _left_to_right(w * large[t] for t, w in small.items() if t in large)


def row_sums_by_column(values, indptr, size):
    """Each CSR row's first ``size`` values (all of a shorter row's)
    summed left to right from 0.0, one column of the rows at a time:
    column ``j`` is scattered onto the rows that have a ``j``-th entry."""
    lengths = np.diff(indptr)
    total = np.zeros(len(lengths))
    for j in range(size):
        rows = np.flatnonzero(lengths > j)
        total[rows] += values[indptr[rows] + j]
    return total


def seeded_kmeans(docs, seed_terms, max_iter, top_t):
    """Keyword-seeded k-means on plain dicts, step by step.

    ``docs`` is a list of (doc id, token list).  A document's vector is
    tf * ln(N/df) per term (terms in first-appearance order), zero
    weights dropped, L2-normalized; a document left with no weight gets
    no vector.  A seed centroid is uniform over the seed term's sorted
    distinct tokens.  A similarity is the dot product over the smaller
    of the two maps (the document's when they are the same size), in
    that map's order.  A document goes to the centroid of largest
    similarity, ties to the smallest index, and to 0 when every
    similarity is 0.  A centroid becomes the mean of its members summed
    in doc-id order, cut to its top_t terms (weight descending, then
    term), renormalized; an empty cluster keeps its centroid.  Passes
    stop at a repeated assignment, at max_iter, or when Q is 0.  Every
    sum runs left to right.

    Returns a dict of the vectors, the final assignments and best sims,
    the Q of each pass, the final centroids and the number of
    similarities computed.
    """
    n = len(docs)
    df = Counter()
    for _, terms in docs:
        df.update(set(terms))
    vectors = {}
    for doc_id, terms in docs:
        raw = {t: count * math.log(n / df[t]) for t, count in Counter(terms).items()}
        raw = {t: w for t, w in raw.items() if w > 0.0}
        if raw:
            norm = math.sqrt(_left_to_right(w * w for w in raw.values()))
            vectors[doc_id] = {t: w / norm for t, w in raw.items()}
    centroids = []
    for term in seed_terms:
        tokens = sorted(set(term.split(" ")))
        centroids.append({t: 1.0 / math.sqrt(len(tokens)) for t in tokens})

    evaluations = 0
    q_history = []
    previous = None
    for it in range(1, max_iter + 1):
        assignments, sims = {}, {}
        for doc_id, vector in vectors.items():
            best_j, best_s = 0, 0.0
            for j, centroid in enumerate(centroids, start=1):
                s = sparse_dot(vector, centroid)
                evaluations += 1
                if s > best_s:
                    best_j, best_s = j, s
            assignments[doc_id], sims[doc_id] = best_j, best_s
        q = _left_to_right(sims.values())
        q_history.append(q)
        if assignments == previous or it == max_iter or q == 0.0:
            break
        previous = assignments
        for j in range(1, len(centroids) + 1):
            members = sorted(d for d, a in assignments.items() if a == j)
            if not members:
                continue
            sums = {}
            for doc_id in members:
                for t, w in vectors[doc_id].items():
                    sums[t] = sums.get(t, 0.0) + w
            mean = sorted(
                ((t, s / len(members)) for t, s in sums.items()),
                key=lambda tw: (-tw[1], tw[0]),
            )[:top_t]
            norm = math.sqrt(_left_to_right(w * w for _, w in mean))
            centroids[j - 1] = {t: w / norm for t, w in mean}
    return {
        "vectors": vectors,
        "assignments": assignments,
        "sims": sims,
        "q_history": q_history,
        "centroids": centroids,
        "sim_evaluations": evaluations,
    }


def utc_instant(stamp):
    """The aware UTC datetime of an ISO-8601 text; "Z"/"z" or no zone is UTC."""
    text = stamp.strip()
    if text[-1:] in ("Z", "z"):
        text = text[:-1] + "+00:00"
    when = datetime.fromisoformat(text)
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when.astimezone(timezone.utc)


def tokens(text):
    """Tokens by the two-step rule: every maximal letter/digit run of the
    case-folded text, then the runs shorter than two characters dropped."""
    return [t for t in re.findall(r"[^\W_]+", text.casefold()) if len(t) >= 2]


def document_columns(text):
    """Columns of the document table of a corpus file's text whose ids
    are distinct, as lists: each line decoded by ``json.loads``, its
    instant by ``utc_instant``, the tokens of title + " " + body by the
    two-step rule, terms numbered in order of first appearance in the
    file and rows sorted by (instant, id)."""
    records = [json.loads(line) for line in text.split("\n") if line.strip()]
    vocab = {}
    rows = []
    for record in records:
        terms = tokens(record["title"] + " " + record["body"])
        rows.append((
            utc_instant(record["published_at"]),
            record["id"],
            [vocab.setdefault(t, len(vocab)) for t in terms],
        ))
    rows.sort(key=lambda row: row[:2])
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    indptr = [0]
    for _, _, ids in rows:
        indptr.append(indptr[-1] + len(ids))
    return {
        "micros": [(when - epoch) // timedelta(microseconds=1) for when, _, _ in rows],
        "days": [when.date().toordinal() for when, _, _ in rows],
        "vocab": list(vocab),
        "indptr": indptr,
        "term_ids": [i for _, _, ids in rows for i in ids],
    }


def json_line(record):
    """A corpus record as its saved JSONL line: the five fields and the
    language, if any, in that order, published_at as the UTC instant
    with a "Z" and the microseconds only when nonzero, one
    ``json.dumps(..., ensure_ascii=False)`` each."""
    when = utc_instant(record["published_at"])
    stamp = (
        f"{when.year:04d}-{when.month:02d}-{when.day:02d}"
        f"T{when.hour:02d}:{when.minute:02d}:{when.second:02d}"
        + (f".{when.microsecond:06d}" if when.microsecond else "")
        + "Z"
    )
    out = {
        "id": record["id"],
        "published_at": stamp,
        "source": record["source"],
        "title": record["title"],
        "body": record["body"],
    }
    if record.get("language") is not None:
        out["language"] = record["language"]
    return json.dumps(out, ensure_ascii=False) + "\n"


def cluster_report(clustering, omitted_doc_ids):
    """The cluster report as ``json.dumps(indent=2, sort_keys=True)``
    writes the whole of it, members included, plus a newline."""
    doc_ids = clustering.vectors.doc_ids
    assignments = dict(zip(doc_ids, clustering.labels.tolist(), strict=True))
    sims = dict(zip(doc_ids, clustering.sims.tolist(), strict=True))
    members = {c.cluster_index: [] for c in clustering.centroids}
    members[0] = []
    for doc_id, j in sorted(assignments.items()):
        members[j].append(doc_id)
    clusters = [
        {
            "index": c.cluster_index,
            "seed_terms": list(c.seed_terms),
            "centroid_terms": [
                {"term": t, "weight": w}
                for t, w in sorted(c.weights.items(), key=lambda item: (-item[1], item[0]))
            ],
            "member_count": len(members[c.cluster_index]),
            "members": [
                {"doc_id": d, "sim": sims[d]} for d in members[c.cluster_index]
            ],
        }
        for c in clustering.centroids
    ]
    report = {
        "iterations": clustering.iterations,
        "q_history": clustering.q_history,
        "clusters": clusters,
        "unassigned_doc_ids": members[0],
        "omitted_doc_ids": sorted(omitted_doc_ids),
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# the bundled fixture: one lifecycle-shaped bump in a two-month window,
# and four planted topics, one keyed by a two-word phrase
FIXTURE_BURST = BurstSpec(
    length_days=61, plant_shift=8, plant_scale=40, amplitude=40.0, baseline=2.0,
    noise_sigma=1.5, rng_seed=20160601, start_date=date(2016, 6, 1),
)
FIXTURE_CLUSTERS = ClusterSpec(
    clusters=tuple(
        ClusterDef(keyword, tuple(f"{keyword.replace(' ', '')}topic{i:02d}" for i in range(20)),
                   count)
        for keyword, count in (("protest", 60), ("referendum", 60), ("petition", 40),
                               ("terrorist act", 40))
    ),
    shared_vocab=tuple(f"common{i:02d}" for i in range(40)),
    rng_seed=777,
)


def write_fixture(directory):
    """Write the bundled fixture's ``series.csv``, ``corpus.jsonl`` and
    ``truth.tsv`` (doc id and 1-based cluster, by doc id) into ``directory``."""
    directory = Path(directory)
    write_series_csv(generate_burst_series(DEFAULT_TEMPLATE, FIXTURE_BURST),
                     directory / "series.csv")
    corpus, truth = generate_cluster_corpus(FIXTURE_CLUSTERS, DEFAULT_TEMPLATE, FIXTURE_BURST)
    save_corpus(corpus, directory / "corpus.jsonl")
    rows = "".join(f"{doc_id}\t{truth[doc_id]}\n" for doc_id in sorted(truth))
    (directory / "truth.tsv").write_text("doc_id\tcluster\n" + rows, encoding="utf-8")
