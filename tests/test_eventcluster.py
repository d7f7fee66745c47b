"""Seeded k-means: vectors, similarity, assignment, Q, determinism."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from opflow.corpus import TermTable, csr_entry_rows, csr_offsets
from opflow.eventcluster import (
    SIM_EVALUATIONS,
    UNASSIGNED,
    Centroid,
    Clustering,
    DocVectors,
    _sims,
    assign,
    kmeans_seeded,
    recompute_centroids,
    seed_centroids,
    vectorize,
    write_cluster_report,
)
from opflow.termbase import document_frequencies


def vectors_of(rows):
    """DocVectors of {doc id: {term: weight}}, each row in the given order."""
    vocab = list(dict.fromkeys(t for weights in rows.values() for t in weights))
    index = {t: i for i, t in enumerate(vocab)}
    return DocVectors(
        doc_ids=list(rows),
        vocab=vocab,
        indptr=np.cumsum([0] + [len(weights) for weights in rows.values()]),
        terms=np.array([index[t] for weights in rows.values() for t in weights], dtype=np.int64),
        weights=np.array([w for weights in rows.values() for w in weights.values()], dtype=float),
    )


def row(vectors, doc_id):
    """The {term: weight} map of one document's row."""
    i = vectors.doc_ids.index(doc_id)
    span = slice(vectors.indptr[i], vectors.indptr[i + 1])
    terms = [vectors.vocab[t] for t in vectors.terms[span].tolist()]
    return dict(zip(terms, vectors.weights[span].tolist()))


def by_doc_id(values, vectors):
    """{doc id: value} of a per-row array of the clustering result."""
    return dict(zip(vectors.doc_ids, values.tolist(), strict=True))


def unit(*terms):
    return {t: 1.0 / math.sqrt(len(terms)) for t in terms}


# --- similarity ------------------------------------------------------------


def test_sim_is_sparse_dot_product():
    vectors = vectors_of({"d": {"aa": 0.6, "bb": 0.8}})
    _, sims = assign(vectors, [Centroid(cluster_index=1, weights={"bb": 1.0})])
    assert sims.tolist() == [pytest.approx(0.8)]
    _, sims = assign(vectors, [Centroid(cluster_index=2, weights={"zz": 1.0})])
    assert sims.tolist() == [0.0]


def test_sim_counter_counts():
    SIM_EVALUATIONS.count = 0
    vectors = vectors_of({"d": {"aa": 1.0}})
    c = Centroid(cluster_index=1, weights={"aa": 1.0})
    assign(vectors, [c])
    assign(vectors, [c])
    assert SIM_EVALUATIONS.count == 2


def test_sums_run_left_to_right_on_every_python():
    # crafted so that a compensated sum (math.fsum, or builtin sum() on
    # Python >= 3.12) rounds differently from adding left to right
    tiny = 2.0 ** -53
    assert math.fsum([1.0, tiny, tiny]) != 1.0
    c = Centroid(cluster_index=1, weights={"aa": 1.0, "bb": 1.0, "cc": 1.0})
    _, sims = assign(vectors_of({"d": {"aa": 1.0, "bb": tiny, "cc": tiny}}), [c])
    assert sims.tolist() == [1.0]
    # Q adds the best sims 1.0, tiny, tiny in doc order
    vectors = vectors_of({"d1": {"aa": 1.0}, "d2": {"aa": tiny}, "d3": {"aa": tiny}})
    assert kmeans_seeded(vectors, seed_centroids(["aa"]), max_iter=1).q_history == [1.0]
    # a centroid's norm: squares 1.0 and eight of 2**-54
    weights = {"aa": 1.0, **{f"t{i}": 2.0 ** -27 for i in range(8)}}
    assert math.sqrt(math.fsum(w * w for w in weights.values())) != 1.0
    (centroid,) = recompute_centroids(
        np.array([1]), vectors_of({"d": weights}), top_t=9, previous=seed_centroids(["aa"])
    )
    assert centroid.weights["aa"] == 1.0


def test_sims_of_a_vocabulary_wider_than_16_bits():
    # term ids past 65,535 whose low 16 bits equal those of earlier rows'
    # ids, so a gather through 16-bit ids would read the wrong weights
    n_terms = 70_000
    rng = np.random.default_rng(7)
    rows = []
    for i in range(6):
        ids = [i, i + 65_536, 3_000 + i, 65_536 + 3_000 - i, n_terms - 1 - i]
        ids += rng.choice(n_terms, size=20, replace=False).tolist()
        ids = list(dict.fromkeys(ids))[: 3 + 4 * i]  # row lengths 3..23
        rows.append(dict(zip(ids, rng.random(len(ids)).tolist())))
    vectors = DocVectors(
        doc_ids=[f"d{i}" for i in range(len(rows))],
        vocab=[f"t{i}" for i in range(n_terms)],
        indptr=csr_offsets(np.array([len(r) for r in rows])),
        terms=np.array([t for r in rows for t in r], dtype=np.int64),
        weights=np.array([w for r in rows for w in r.values()]),
    )
    maps = [{f"t{t}": w for t, w in r.items()} for r in rows]
    centroids = [
        {"t65536": 0.6, "t0": 0.8},  # shorter than every row
        {f"t{t}": 0.1 * (j + 1) for j, t in enumerate(list(rows[2])[::-1])},  # 11 terms
    ]
    for weights in centroids:
        got = _sims(vectors, Centroid(cluster_index=1, weights=weights))
        assert _bits(got.tolist()) == _bits(oracles.sparse_dot(m, weights) for m in maps)

    # a row longer than the centroid, sharing 3 terms with it: added in
    # the row's order, not the centroid's
    weights = {"c": 0.63, "b": 0.07, "a": 0.01}
    vector = {"a": 0.24, "b": 0.54, "c": 0.37, "d": 0.6}
    (got,) = _sims(vectors_of({"d": vector}), Centroid(cluster_index=1, weights=weights))
    assert got.hex() == oracles.sparse_dot(vector, weights).hex() == "0x1.17dbf487fcb92p-2"


@st.composite
def csr_layouts(draw):
    """Row lengths with empty rows, all rows empty or one long row, and
    finite values of either sign."""
    lengths = draw(st.one_of(
        st.lists(st.integers(0, 6), max_size=12),
        st.lists(st.just(0), min_size=1, max_size=4),
        st.integers(20, 60).map(lambda n: [0, n, 1, 0]),
    ))
    n = sum(lengths)
    return lengths, draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(csr_layouts())
def test_bincount_row_sums_add_left_to_right_bit_for_bit(layout):
    # every row sum of vectors and k-means rests on this; with no
    # entries np.bincount returns integer zeros, so compare as floats
    lengths, values = layout
    indptr = csr_offsets(np.array(lengths, dtype=np.int64))
    got = np.bincount(csr_entry_rows(indptr), weights=np.array(values, dtype=float),
                      minlength=len(lengths))
    want = [oracles._left_to_right(values[a:b]) for a, b in zip(indptr[:-1], indptr[1:])]
    assert _bits(map(float, got.tolist())) == _bits(want)


# --- vectorize -------------------------------------------------------------


def test_vectorize_weights_and_normalization():
    tok = TermTable.from_terms([("a", ["xx", "xx", "shared"]), ("b", ["yy", "shared"])])
    df = document_frequencies(tok)
    vectors = vectorize(tok, df)
    va = row(vectors, "a")
    # "shared" has df == N, zero weight, dropped; "xx" alone remains
    assert set(va) == {"xx"}
    assert va["xx"] == pytest.approx(1.0)
    assert math.hypot(*va.values()) == pytest.approx(1.0)


def test_vectorize_omits_zero_weight_docs():
    tok = TermTable.from_terms(
        [("a", ["everywhere"]), ("b", ["everywhere"]), ("c", ["everywhere", "rare"])]
    )
    df = document_frequencies(tok)
    vectors = vectorize(tok, df)
    assert vectors.doc_ids == ["c"]


def test_vectorize_refuses_an_empty_table():
    with pytest.raises(ValueError, match="^corpus size must be >= 1$"):
        vectorize(TermTable.from_terms([]), np.zeros(0, dtype=np.int64))


# --- seeds -----------------------------------------------------------------


def test_seed_centroids_one_per_term():
    seeds = seed_centroids(["protest", "referendum"])
    assert [c.cluster_index for c in seeds] == [1, 2]
    assert seeds[0].weights == {"protest": 1.0}
    assert seeds[0].seed_terms == ["protest"]


def test_seed_centroids_phrase_spreads_over_tokens():
    (c,) = seed_centroids(["terrorist act"])
    assert c.weights == {
        "act": pytest.approx(1 / math.sqrt(2)),
        "terrorist": pytest.approx(1 / math.sqrt(2)),
    }


def test_seed_centroids_validation():
    with pytest.raises(ValueError):
        seed_centroids([])
    with pytest.raises(ValueError, match="repeated seed term 'aa'"):
        seed_centroids(["aa", "bb", "aa"])


# --- assignment ------------------------------------------------------------


def test_assign_picks_largest_sim():
    vectors = vectors_of({"d1": unit("aa"), "d2": unit("bb")})
    seeds = seed_centroids(["aa", "bb"])
    assignments, best_sims = assign(vectors, seeds)
    assert assignments.tolist() == [1, 2]
    assert best_sims.tolist() == [pytest.approx(1.0), pytest.approx(1.0)]


def test_assign_tie_goes_to_smallest_index():
    vectors = vectors_of({"d": unit("aa", "bb")})
    seeds = seed_centroids(["aa", "bb"])
    assert assign(vectors, seeds)[0].tolist() == [1]


def test_assign_orthogonal_docs_are_unassigned():
    vectors = vectors_of({"d": unit("zz")})
    seeds = seed_centroids(["aa"])
    assignments, best_sims = assign(vectors, seeds)
    assert assignments.tolist() == [UNASSIGNED] and best_sims.tolist() == [0.0]


def test_assign_needs_centroids():
    with pytest.raises(ValueError):
        assign(vectors_of({"d": unit("aa")}), [])


# --- centroid recomputation ------------------------------------------------


def test_recompute_singleton_equals_doc_vector():
    weights = {"aa": 0.6, "bb": 0.8}
    seeds = seed_centroids(["aa"])
    out = recompute_centroids(np.array([1]), vectors_of({"d": weights}), top_t=5, previous=seeds)
    assert out[0].weights == pytest.approx(weights)


def test_recompute_two_singletons_mean():
    vectors = vectors_of({"x": {"aa": 1.0}, "y": {"bb": 1.0}})
    seeds = seed_centroids(["aa"])
    out = recompute_centroids(np.array([1, 1]), vectors, top_t=2, previous=seeds)
    r = 1 / math.sqrt(2)
    assert out[0].weights == {"aa": pytest.approx(r), "bb": pytest.approx(r)}


def test_recompute_truncates_to_top_t_with_lexical_ties():
    vectors = vectors_of({"x": {"dd": 0.5, "cc": 0.5, "bb": 0.5, "aa": 0.5}})
    seeds = seed_centroids(["aa"])
    out = recompute_centroids(np.array([1]), vectors, top_t=2, previous=seeds)
    assert list(out[0].weights) == ["aa", "bb"]
    assert out[0].weights["aa"] == pytest.approx(1 / math.sqrt(2))


def test_recompute_empty_cluster_keeps_previous():
    seeds = seed_centroids(["aa", "bb"])
    out = recompute_centroids(
        np.array([1]), vectors_of({"d": unit("aa")}), top_t=3, previous=seeds
    )
    assert out[1].weights == seeds[1].weights


def test_recompute_rejects_bad_top_t():
    with pytest.raises(ValueError):
        recompute_centroids(
            np.array([], dtype=np.int64), vectors_of({}), top_t=0, previous=seed_centroids(["aa"])
        )


# --- k-means loop ----------------------------------------------------------


def _planted_rows():
    rows = {}
    for i in range(6):
        rows[f"a{i}"] = {"aa": 0.9, f"f{i}": math.sqrt(1 - 0.81)}
    for i in range(6):
        rows[f"b{i}"] = {"bb": 0.9, f"g{i}": math.sqrt(1 - 0.81)}
    return rows


def _planted_vectors():
    return vectors_of(_planted_rows())


def test_kmeans_recovers_planted_split():
    vectors = _planted_vectors()
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]))
    assignments = by_doc_id(result.labels, vectors)
    assert all(assignments[f"a{i}"] == 1 for i in range(6))
    assert all(assignments[f"b{i}"] == 2 for i in range(6))
    assert result.iterations <= 5


def test_kmeans_max_iter_one_is_a_single_pass():
    vectors = _planted_vectors()
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]), max_iter=1)
    assert result.iterations == 1
    assert len(result.q_history) == 1
    # Q sums the members' sims; d3 is orthogonal to both seeds and adds nothing
    vectors = vectors_of({"d1": unit("aa"), "d2": unit("bb"), "d3": unit("zz")})
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]), max_iter=1)
    assert result.q_history == [pytest.approx(2.0)]


@pytest.mark.parametrize("rows", [{}, {"d0": unit("zz")}], ids=["no-vectors", "orthogonal"])
def test_kmeans_that_assigns_nothing_is_a_single_pass(rows):
    vectors = vectors_of(rows)
    result = kmeans_seeded(vectors, seed_centroids(["protest"]))
    assert result.iterations == 1
    assert result.q_history == [0.0]
    assert by_doc_id(result.labels, vectors) == {doc_id: UNASSIGNED for doc_id in rows}


def test_kmeans_exact_sim_budget_per_iteration():
    vectors = _planted_vectors()
    seeds = seed_centroids(["aa", "bb"])
    SIM_EVALUATIONS.count = 0
    result = kmeans_seeded(vectors, seeds, max_iter=1)
    assert SIM_EVALUATIONS.count == len(seeds) * len(vectors)
    SIM_EVALUATIONS.count = 0
    result = kmeans_seeded(vectors, seeds)
    assert SIM_EVALUATIONS.count == result.iterations * len(seeds) * len(vectors)


def test_kmeans_is_deterministic():
    vectors = _planted_vectors()
    r1 = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]))
    r2 = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]))
    assert by_doc_id(r1.labels, vectors) == by_doc_id(r2.labels, vectors)
    assert r1.q_history == r2.q_history
    assert [c.weights for c in r1.centroids] == [c.weights for c in r2.centroids]


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans_seeded(vectors_of({}), [])
    with pytest.raises(ValueError):
        kmeans_seeded(vectors_of({}), seed_centroids(["aa"]), max_iter=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_kmeans_q_monotone_with_untruncated_centroids(seed):
    import random as _random

    rng = _random.Random(seed)
    terms = [f"t{i}" for i in range(12)]
    rows = {}
    for i in range(rng.randint(4, 30)):
        chosen = rng.sample(terms, rng.randint(1, 4))
        raw = {t: rng.uniform(0.1, 1.0) for t in chosen}
        norm = math.sqrt(sum(w * w for w in raw.values()))
        rows[f"d{i}"] = {t: w / norm for t, w in raw.items()}
    vectors = vectors_of(rows)
    seeds = seed_centroids(rng.sample(terms, rng.randint(1, 4)))
    result = kmeans_seeded(vectors, seeds, max_iter=30, top_t=len(terms) + 1)
    for earlier, later in zip(result.q_history, result.q_history[1:]):
        assert later >= earlier - 1e-9


# --- report ----------------------------------------------------------------


def test_cluster_report_layout_and_determinism(tmp_path):
    vectors = vectors_of({**_planted_rows(), "stray": unit("zz")})
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]))
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    SIM_EVALUATIONS.count = 0
    write_cluster_report(result, p1, ["skipped"])
    write_cluster_report(result, p2, ["skipped"])
    assert SIM_EVALUATIONS.count == 0  # the member sims come from the clustering
    assert p1.read_bytes() == p2.read_bytes()
    report = json.loads(p1.read_text())
    assert report["iterations"] == result.iterations
    assert report["unassigned_doc_ids"] == ["stray"]
    assert report["omitted_doc_ids"] == ["skipped"]
    clusters = report["clusters"]
    assert [c["index"] for c in clusters] == [1, 2]
    assert clusters[0]["member_count"] == 6
    member_ids = [m["doc_id"] for m in clusters[0]["members"]]
    assert member_ids == sorted(member_ids)
    top_term = clusters[0]["centroid_terms"][0]
    assert top_term["term"] == "aa"


@pytest.mark.parametrize("max_iter", [1, 2, 50])
def test_cluster_report_sims_are_those_of_the_final_centroids(tmp_path, max_iter):
    rows = {**_planted_rows(), "mixed": unit("aa", "bb", "zz"), "stray": unit("zz")}
    vectors = vectors_of(rows)
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]), max_iter=max_iter, top_t=3)
    write_cluster_report(result, tmp_path / "r.json", [])
    report = json.loads((tmp_path / "r.json").read_text())
    checked = 0
    for c, cluster in zip(result.centroids, report["clusters"]):
        for member in cluster["members"]:
            doc_id = member["doc_id"]
            _, sims = assign(vectors_of({doc_id: rows[doc_id]}), [c])
            assert member["sim"] == sims[0]
            checked += 1
    assert checked + len(report["unassigned_doc_ids"]) == len(vectors)
    sims = by_doc_id(result.sims, vectors)
    assert all(sims[d] == 0.0 for d in report["unassigned_doc_ids"])


@st.composite
def clusterings(draw):
    ids = draw(st.lists(st.text(alphabet='aé"\\\x01\u2028😀', min_size=1, max_size=4), unique=True, max_size=8))
    k = draw(st.integers(1, 3))
    sims = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.1 + 0.2]), st.floats(0.0, 1.0))
    weights = st.dictionaries(st.sampled_from(["aa", "bb", "terrorist act"]), st.floats(0.0, 1.0))
    return Clustering(
        vectors=vectors_of({d: {} for d in ids}),
        labels=np.array([draw(st.integers(0, k)) for _ in ids], dtype=np.int64),
        sims=np.array([draw(sims) for _ in ids], dtype=float),
        centroids=[
            Centroid(cluster_index=j, weights=draw(weights), seed_terms=[f"s{j}"])
            for j in range(1, k + 1)
        ],
        q_history=draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3)),
        iterations=draw(st.integers(1, 3)),
    ), draw(st.lists(st.text(alphabet="xé", max_size=3), max_size=3))


@settings(max_examples=200, deadline=None)
@given(case=clusterings())
def test_cluster_report_equals_json_dump_of_the_whole_report(case, tmp_path_factory):
    # ids that need escaping or are not ASCII, empty member lists, and
    # sims whose shortest repr is long
    clustering, omitted = case
    path = tmp_path_factory.mktemp("report") / "clusters.json"
    write_cluster_report(clustering, path, omitted)
    assert path.read_text(encoding="utf-8") == oracles.cluster_report(clustering, omitted)


# --- against the plain-dict oracle -----------------------------------------

# rows of 8 or more terms tell a pairwise sum (np.sum) from a left-to-right one
WORDS = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "terrorist", "act"]


def test_cluster_report_is_written_a_chunk_of_members_at_a_time(tmp_path):
    # six clusters of about 3,300 members each, several chunks apiece,
    # and a few unassigned docs; the id order is cached beforehand, as
    # the k-means passes leave it, so only the writer is measured
    rng = np.random.default_rng(5)
    n = 20_000
    ids = [f"doc-{i:06d}" for i in rng.permutation(n).tolist()]
    vectors = DocVectors(ids, ["aa"], np.zeros(n + 1, dtype=np.int64),
                         np.zeros(0, dtype=np.int64), np.zeros(0))
    clustering = Clustering(
        vectors=vectors,
        labels=rng.choice(7, size=n, p=[0.04] + [0.16] * 6),
        sims=rng.random(n),
        centroids=[Centroid(j, {"aa": 1.0}, [f"s{j}"]) for j in range(1, 7)],
        q_history=[1.0],
        iterations=1,
    )
    assert len(vectors._id_order) == n
    path = tmp_path / "clusters.json"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_cluster_report(clustering, path, [])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.6 * size, (peak, size)
    assert path.read_text(encoding="utf-8") == oracles.cluster_report(clustering, [])


@st.composite
def small_corpora(draw):
    """Up to 14 docs (ids d0..d13, so id order is not doc order); some
    empty, some made only of a word every doc holds (df == N)."""
    everywhere = draw(st.sampled_from([[], ["common"]]))
    docs = []
    for i in range(draw(st.integers(1, 14))):
        terms = draw(st.lists(st.sampled_from(WORDS + ["terrorist act"]), max_size=12))
        docs.append((f"d{i}", " ".join(terms + everywhere).split()))
    seed_terms = draw(
        st.lists(st.sampled_from(["aa", "bb", "cc", "terrorist act", "zz"]),
                 min_size=1, max_size=4, unique=True)
    )
    return docs, seed_terms


def _bits(values):
    return [v.hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(small_corpora(), st.integers(1, 3), st.integers(1, 4))
def test_kmeans_equals_the_dict_oracle_bit_for_bit(corpus, max_iter, top_t):
    docs, seed_terms = corpus
    table = TermTable.from_terms(docs)
    vectors = vectorize(table, document_frequencies(table))
    seeds = seed_centroids(seed_terms)
    SIM_EVALUATIONS.count = 0
    result = kmeans_seeded(vectors, seeds, max_iter=max_iter, top_t=top_t)
    want = oracles.seeded_kmeans(docs, seed_terms, max_iter=max_iter, top_t=top_t)

    assert vectors.doc_ids == list(want["vectors"])
    for doc_id, weights in want["vectors"].items():
        got = row(vectors, doc_id)
        assert list(got) == list(weights) and _bits(got.values()) == _bits(weights.values())
    assert result.vectors is vectors
    assert by_doc_id(result.labels, vectors) == want["assignments"]
    sims = by_doc_id(result.sims, vectors)
    assert list(sims) == list(want["sims"])
    assert _bits(sims.values()) == _bits(want["sims"].values())
    assert _bits(result.q_history) == _bits(want["q_history"])
    assert [[(t, w.hex()) for t, w in c.weights.items()] for c in result.centroids] == [
        [(t, w.hex()) for t, w in c.items()] for c in want["centroids"]
    ]
    assert SIM_EVALUATIONS.count == want["sim_evaluations"]
    assert SIM_EVALUATIONS.count == result.iterations * len(seeds) * len(vectors)
