"""Seeded k-means: vectors, similarity, assignment, Q, determinism."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opflow.corpus import TokenizedDoc
from opflow.eventcluster import (
    SIM_EVALUATIONS,
    UNASSIGNED,
    Centroid,
    DocVector,
    assign,
    kmeans_seeded,
    recompute_centroids,
    seed_centroids,
    sim,
    vectorize,
    write_cluster_report,
)
from opflow.termbase import document_frequencies


def vec(doc_id, **weights):
    return DocVector(doc_id=doc_id, weights=dict(weights))


def unit(doc_id, *terms):
    w = 1.0 / math.sqrt(len(terms))
    return DocVector(doc_id=doc_id, weights={t: w for t in terms})


# --- similarity ------------------------------------------------------------


def test_sim_is_sparse_dot_product():
    d = vec("d", aa=0.6, bb=0.8)
    c = Centroid(cluster_index=1, weights={"bb": 1.0})
    assert sim(d, c) == pytest.approx(0.8)
    assert sim(d, Centroid(cluster_index=2, weights={"zz": 1.0})) == 0.0


def test_sim_counter_counts():
    SIM_EVALUATIONS.reset()
    d = vec("d", aa=1.0)
    c = Centroid(cluster_index=1, weights={"aa": 1.0})
    sim(d, c)
    sim(d, c)
    assert SIM_EVALUATIONS.count == 2


# --- vectorize -------------------------------------------------------------


def _tok(doc_id, terms):
    return TokenizedDoc.from_terms(doc_id, terms)


def test_vectorize_weights_and_normalization():
    tok = [_tok("a", ["xx", "xx", "shared"]), _tok("b", ["yy", "shared"])]
    df = document_frequencies(tok)
    vectors = vectorize(tok, df, len(tok))
    va = {v.doc_id: v for v in vectors}["a"]
    # "shared" has df == N, zero weight, dropped; "xx" alone remains
    assert set(va.weights) == {"xx"}
    assert va.weights["xx"] == pytest.approx(1.0)
    assert math.hypot(*va.weights.values()) == pytest.approx(1.0)


def test_vectorize_omits_zero_weight_docs():
    tok = [_tok("a", ["everywhere"]), _tok("b", ["everywhere"]),
           _tok("c", ["everywhere", "rare"])]
    df = document_frequencies(tok)
    vectors = vectorize(tok, df, len(tok))
    assert [v.doc_id for v in vectors] == ["c"]


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
    vectors = [unit("d1", "aa"), unit("d2", "bb")]
    seeds = seed_centroids(["aa", "bb"])
    assignments, best_sims = assign(vectors, seeds)
    assert assignments == {"d1": 1, "d2": 2}
    assert best_sims == {"d1": pytest.approx(1.0), "d2": pytest.approx(1.0)}


def test_assign_tie_goes_to_smallest_index():
    vectors = [unit("d", "aa", "bb")]
    seeds = seed_centroids(["aa", "bb"])
    assert assign(vectors, seeds)[0]["d"] == 1


def test_assign_orthogonal_docs_are_unassigned():
    vectors = [unit("d", "zz")]
    seeds = seed_centroids(["aa"])
    assert assign(vectors, seeds) == ({"d": UNASSIGNED}, {"d": 0.0})


def test_assign_needs_centroids():
    with pytest.raises(ValueError):
        assign([unit("d", "aa")], [])


# --- centroid recomputation ------------------------------------------------


def test_recompute_singleton_equals_doc_vector():
    v = vec("d", aa=0.6, bb=0.8)
    seeds = seed_centroids(["aa"])
    out = recompute_centroids({"d": 1}, [v], top_t=5, previous=seeds)
    assert out[0].weights == pytest.approx(v.weights)


def test_recompute_two_singletons_mean():
    vectors = [vec("x", aa=1.0), vec("y", bb=1.0)]
    seeds = seed_centroids(["aa"])
    out = recompute_centroids({"x": 1, "y": 1}, vectors, top_t=2, previous=seeds)
    r = 1 / math.sqrt(2)
    assert out[0].weights == {"aa": pytest.approx(r), "bb": pytest.approx(r)}


def test_recompute_truncates_to_top_t_with_lexical_ties():
    vectors = [vec("x", aa=0.5, bb=0.5, cc=0.5, dd=0.5)]
    seeds = seed_centroids(["aa"])
    out = recompute_centroids({"x": 1}, vectors, top_t=2, previous=seeds)
    assert set(out[0].weights) == {"aa", "bb"}
    assert out[0].weights["aa"] == pytest.approx(1 / math.sqrt(2))


def test_recompute_empty_cluster_keeps_previous():
    seeds = seed_centroids(["aa", "bb"])
    out = recompute_centroids({"d": 1}, [unit("d", "aa")], top_t=3, previous=seeds)
    assert out[1].weights == seeds[1].weights


def test_recompute_rejects_bad_top_t():
    with pytest.raises(ValueError):
        recompute_centroids({}, [], top_t=0, previous=seed_centroids(["aa"]))


# --- k-means loop ----------------------------------------------------------


def _planted_vectors():
    vectors = []
    for i in range(6):
        vectors.append(DocVector(f"a{i}", {"aa": 0.9, f"f{i}": math.sqrt(1 - 0.81)}))
    for i in range(6):
        vectors.append(DocVector(f"b{i}", {"bb": 0.9, f"g{i}": math.sqrt(1 - 0.81)}))
    return vectors


def test_kmeans_recovers_planted_split():
    vectors = _planted_vectors()
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]))
    assert all(result.assignments[f"a{i}"] == 1 for i in range(6))
    assert all(result.assignments[f"b{i}"] == 2 for i in range(6))
    assert result.iterations <= 5


def test_kmeans_max_iter_one_is_a_single_pass():
    vectors = _planted_vectors()
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]), max_iter=1)
    assert result.iterations == 1
    assert len(result.q_history) == 1
    # Q sums the members' sims; d3 is orthogonal to both seeds and adds nothing
    vectors = [unit("d1", "aa"), unit("d2", "bb"), unit("d3", "zz")]
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]), max_iter=1)
    assert result.q_history == [pytest.approx(2.0)]


@pytest.mark.parametrize("vectors", [[], [unit("d0", "zz")]], ids=["no-vectors", "orthogonal"])
def test_kmeans_that_assigns_nothing_is_a_single_pass(vectors):
    result = kmeans_seeded(vectors, seed_centroids(["protest"]))
    assert result.iterations == 1
    assert result.q_history == [0.0]
    assert result.assignments == {v.doc_id: UNASSIGNED for v in vectors}


def test_kmeans_exact_sim_budget_per_iteration():
    vectors = _planted_vectors()
    seeds = seed_centroids(["aa", "bb"])
    SIM_EVALUATIONS.reset()
    result = kmeans_seeded(vectors, seeds, max_iter=1)
    assert SIM_EVALUATIONS.count == len(seeds) * len(vectors)
    SIM_EVALUATIONS.reset()
    result = kmeans_seeded(vectors, seeds)
    assert SIM_EVALUATIONS.count == result.iterations * len(seeds) * len(vectors)


def test_kmeans_is_deterministic():
    vectors = _planted_vectors()
    r1 = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]))
    r2 = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]))
    assert r1.assignments == r2.assignments
    assert r1.q_history == r2.q_history
    assert [c.weights for c in r1.centroids] == [c.weights for c in r2.centroids]


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans_seeded([], [])
    with pytest.raises(ValueError):
        kmeans_seeded([], seed_centroids(["aa"]), max_iter=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_kmeans_q_monotone_with_untruncated_centroids(seed):
    import random as _random

    rng = _random.Random(seed)
    terms = [f"t{i}" for i in range(12)]
    vectors = []
    for i in range(rng.randint(4, 30)):
        chosen = rng.sample(terms, rng.randint(1, 4))
        raw = {t: rng.uniform(0.1, 1.0) for t in chosen}
        norm = math.sqrt(sum(w * w for w in raw.values()))
        vectors.append(DocVector(f"d{i}", {t: w / norm for t, w in raw.items()}))
    seeds = seed_centroids(rng.sample(terms, rng.randint(1, 4)))
    result = kmeans_seeded(vectors, seeds, max_iter=30, top_t=len(terms) + 1)
    for earlier, later in zip(result.q_history, result.q_history[1:]):
        assert later >= earlier - 1e-9


# --- report ----------------------------------------------------------------


def test_cluster_report_layout_and_determinism(tmp_path):
    vectors = _planted_vectors() + [unit("stray", "zz")]
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]))
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    SIM_EVALUATIONS.reset()
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
    vectors = _planted_vectors() + [unit("mixed", "aa", "bb", "zz"), unit("stray", "zz")]
    result = kmeans_seeded(vectors, seed_centroids(["aa", "bb"]), max_iter=max_iter, top_t=3)
    write_cluster_report(result, tmp_path / "r.json", [])
    report = json.loads((tmp_path / "r.json").read_text())
    by_id = {v.doc_id: v for v in vectors}
    checked = 0
    for c, cluster in zip(result.centroids, report["clusters"]):
        for member in cluster["members"]:
            assert member["sim"] == sim(by_id[member["doc_id"]], c)
            checked += 1
    assert checked + len(report["unassigned_doc_ids"]) == len(vectors)
    assert all(result.sims[d] == 0.0 for d in report["unassigned_doc_ids"])
