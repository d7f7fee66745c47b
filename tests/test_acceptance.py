"""Release gate: one test per acceptance criterion.

Every test prints a single line, ``ACCEPTANCE PASS <name>: <measured>``
or ``ACCEPTANCE FAIL <name>: <measured>``, before asserting, so a
``pytest -s tests/test_acceptance.py`` run reads as a checklist.  The
criteria pin oracle equivalence (windowed correlation, tf-idf, the
visibility graph), planted-ground-truth recovery (burst location,
cluster membership), cost and monotonicity contracts of the clustering
loop, the shipped default parameters, and end-to-end determinism of the
pipeline.
"""

from __future__ import annotations

import csv
import math
import os
import random
import subprocess
import sys
import time
from datetime import date
from itertools import product
from pathlib import Path

from opflow.cli import MANIFEST_TXT, main
from opflow.corpus import TermTable, load_corpus, save_corpus, tokenize_corpus
from opflow.eventcluster import (
    SIM_EVALUATIONS,
    kmeans_seeded,
    seed_centroids,
    vectorize,
)
from opflow.flowseries import (
    DEFAULT_SMOOTHING_WINDOW,
    DEFAULT_TEMPLATE,
    DailySeries,
    correlogram,
    detect_peaks,
    sample_template,
)
from opflow.sourcegraph import horizontal_visibility_graph
from opflow.synthflow import BurstSpec, ClusterDef, ClusterSpec, generate_burst_series, generate_cluster_corpus
from opflow.termbase import DEFAULT_EVENT_LEXICON, compute_tfidf, document_frequencies
from oracles import correlation_cell, hvg_edges, pearson, tfidf_weights

START = date(2016, 6, 1)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _series(values) -> DailySeries:
    return DailySeries(start_date=START, values=[float(v) for v in values])


# --------------------------------------------------------------------------


def test_windowed_correlation_matches_direct_pearson():
    rng = random.Random(1001)
    mismatches = 0
    undefined_agreed = 0
    max_err = 0.0
    started = time.perf_counter()
    for case in range(1000):
        n = rng.randint(10, 60)
        if case % 3 == 0:
            values = [float(rng.randint(0, 20)) for _ in range(n)]
        else:
            values = [rng.uniform(0.0, 50.0) for _ in range(n)]
        k = rng.randint(2, min(n, 30))
        l = rng.randint(0, n - k)
        samples = [rng.uniform(0.0, 1.0) for _ in range(k)]
        if case % 10 == 7:
            samples = [0.5] * k  # flat template, correlation undefined
        if case % 10 == 8:
            values[l:l + k] = [float(rng.randint(0, 5))] * k  # flat window
        got = correlation_cell(_series(values), l, k, samples)
        want = pearson(values[l:l + k], samples)
        if (got is None) != (want is None):
            mismatches += 1
        elif got is None:
            undefined_agreed += 1
        else:
            max_err = max(max_err, abs(got - want))
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and max_err <= 1e-12 and undefined_agreed > 100 and elapsed < 5.0
    _report(
        "correlation-oracle",
        ok,
        f"1000 cases, max |err| = {max_err:.2e}, {undefined_agreed} joint undefined,"
        f" {mismatches} disagreements, {elapsed:.2f} s",
    )


def test_affine_windows_correlate_at_unity():
    rng = random.Random(2002)
    worst = 0.0
    for i in range(200):
        k = rng.randint(3, 40)
        samples = sample_template(DEFAULT_TEMPLATE, k)
        a = rng.uniform(0.1, 10.0) * (1.0 if i % 2 == 0 else -1.0)
        # the offset keeps the affine image inside the series' value
        # domain (daily counts are never negative)
        b = rng.uniform(0.0, 5.0) + (abs(a) * max(samples) if a < 0 else 0.0)
        n = k + rng.randint(0, 20)
        l = rng.randint(0, n - k)
        values = [rng.uniform(0.0, 9.0) for _ in range(n)]
        values[l:l + k] = [a * s + b for s in samples]
        c = correlation_cell(_series(values), l, k, samples)
        expected = 1.0 if a > 0 else -1.0
        worst = max(worst, abs(c - expected))
    ok = worst <= 1e-12
    _report("affine-invariance", ok, f"200 windows, worst |C - sign(a)| = {worst:.2e}")


def test_planted_burst_recovered_across_seeds():
    length, shift, scale = 365, 120, 40
    scales = list(range(10, 121))
    shifts = list(range(0, length - scales[0] + 1))
    hits = 0
    started = time.perf_counter()
    for seed in range(100):
        spec = BurstSpec(
            length_days=length,
            plant_shift=shift,
            plant_scale=scale,
            amplitude=100.0,
            baseline=5.0,
            noise_sigma=5.0,
            rng_seed=seed,
        )
        series = generate_burst_series(DEFAULT_TEMPLATE, spec)
        corr = correlogram(series, DEFAULT_TEMPLATE, scales=scales, shifts=shifts)
        peaks = detect_peaks(corr, threshold=0.0, top_n=1)
        if not peaks:
            continue
        top = peaks[0]
        if abs(top.shift - shift) <= 3 and abs(top.scale - scale) <= 5 and top.value >= 0.9:
            hits += 1
    elapsed = time.perf_counter() - started
    ok = hits >= 95 and elapsed < 60.0
    _report("burst-recovery", ok, f"{hits}/100 seeds on target, {elapsed:.1f} s")


def _kmeans_inputs(spec: ClusterSpec, burst: BurstSpec):
    corpus, truth = generate_cluster_corpus(spec, DEFAULT_TEMPLATE, burst)
    tokenized = tokenize_corpus(corpus)
    df = document_frequencies(tokenized)
    vectors = vectorize(tokenized, df, len(tokenized))
    seeds = seed_centroids([c.keyword for c in spec.clusters])
    return vectors, seeds, truth, len(df)


def test_clustering_quality_never_decreases():
    violations = 0
    runs = 0
    for seed in range(100):
        rng = random.Random(seed)
        n_clusters = rng.choice([2, 3])
        counts = [60 // n_clusters] * n_clusters
        counts[0] += 60 % n_clusters
        clusters = tuple(
            ClusterDef(
                keyword=f"event{j}",
                topical_vocab=tuple(
                    f"c{j}w{i:02d}" for i in range(rng.randint(10, 15))
                ),
                doc_count=counts[j],
            )
            for j in range(n_clusters)
        )
        spec = ClusterSpec(
            clusters=clusters,
            shared_vocab=tuple(f"shared{i:02d}" for i in range(rng.randint(10, 15))),
            rng_seed=seed,
        )
        burst = BurstSpec(
            length_days=30, plant_shift=5, plant_scale=10,
            amplitude=20.0, baseline=1.0,
        )
        vectors, seeds, _, vocab_size = _kmeans_inputs(spec, burst)
        result = kmeans_seeded(vectors, seeds, max_iter=25, top_t=vocab_size + 1)
        runs += 1
        for earlier, later in zip(result.q_history, result.q_history[1:]):
            if later < earlier - 1e-9:
                violations += 1
    ok = runs == 100 and violations == 0
    _report(
        "q-monotonicity",
        ok,
        f"{runs} corpora of 60 docs, {violations} decreasing steps (tol 1e-9)",
    )


def _recovery_inputs():
    clusters = tuple(
        ClusterDef(
            keyword=f"marker{j}",
            topical_vocab=tuple(f"t{j}w{i:02d}" for i in range(20)),
            doc_count=50,
        )
        for j in range(3)
    )
    spec = ClusterSpec(
        clusters=clusters,
        shared_vocab=tuple(f"bg{i:02d}" for i in range(50)),
        rng_seed=20162016,
    )
    burst = BurstSpec(
        length_days=61, plant_shift=8, plant_scale=40, amplitude=40.0, baseline=2.0,
    )
    return _kmeans_inputs(spec, burst)


def test_planted_clusters_recovered_accurately():
    vectors, seeds, truth, _ = _recovery_inputs()
    first = kmeans_seeded(vectors, seeds)
    second = kmeans_seeded(vectors, seeds)
    total = len(truth)
    assignments = dict(zip(vectors.doc_ids, first.labels.tolist(), strict=True))
    correct = sum(1 for doc_id, j in truth.items() if assignments.get(doc_id) == j)
    accuracy = correct / total
    deterministic = (
        first.labels.tolist() == second.labels.tolist()
        and first.q_history == second.q_history
    )
    ok = accuracy >= 0.95 and first.iterations <= 20 and deterministic
    _report(
        "cluster-recovery",
        ok,
        f"3x50 docs, accuracy {accuracy:.3f}, {first.iterations} iterations,"
        f" deterministic={deterministic}",
    )


def test_assignment_pass_costs_k_times_n():
    vectors, seeds, _, _ = _recovery_inputs()
    k, n = len(seeds), len(vectors)
    SIM_EVALUATIONS.count = 0
    kmeans_seeded(vectors, seeds, max_iter=1)
    single_pass = SIM_EVALUATIONS.count
    SIM_EVALUATIONS.count = 0
    full = kmeans_seeded(vectors, seeds)
    full_count = SIM_EVALUATIONS.count
    ok = single_pass == k * n and full_count == full.iterations * k * n
    _report(
        "linear-pass-cost",
        ok,
        f"one pass = {single_pass} sims (k*N = {k * n}),"
        f" {full.iterations} passes = {full_count}",
    )


def test_visibility_graph_matches_brute_force():
    mismatches = 0
    cases = 0
    for n in range(1, 7):
        for values in product((1, 2, 3), repeat=n):
            cases += 1
            if horizontal_visibility_graph(_series(values)).edges != hvg_edges(values):
                mismatches += 1
    rng = random.Random(7007)
    for _ in range(500):
        values = [rng.randint(1, 4) for _ in range(12)]
        cases += 1
        if horizontal_visibility_graph(_series(values)).edges != hvg_edges(values):
            mismatches += 1
    bounds_ok = True
    for _ in range(100):
        n = rng.randint(2, 40)
        values = rng.sample(range(10000), n)
        edges = horizontal_visibility_graph(_series(values)).edges
        if not (n - 1 <= len(edges) <= max(2 * n - 3, 1)):
            bounds_ok = False
    ok = mismatches == 0 and bounds_ok
    _report(
        "visibility-oracle",
        ok,
        f"{cases} series checked, {mismatches} mismatches,"
        f" distinct-value bounds held={bounds_ok}",
    )


def test_tfidf_matches_independent_recomputation():
    rng = random.Random(8008)
    exact = True
    for _ in range(50):
        vocab = [f"w{i:02d}" for i in range(rng.randint(5, 30))]
        token_lists = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            for _ in range(rng.randint(2, 50))
        ]
        ranked = compute_tfidf(
            TermTable.from_terms((f"d{i}", terms) for i, terms in enumerate(token_lists))
        )
        if [(tw.term, tw.weight) for tw in ranked] != tfidf_weights(token_lists):
            exact = False
            break
    ranked = compute_tfidf(
        TermTable.from_terms([("d0", ["burst", "burst", "burst", "filler"]), ("d1", ["filler"])])
    )
    frozen = {tw.term: tw.weight for tw in ranked}["burst"]
    frozen_err = abs(frozen - 3 * math.log(2))
    ok = exact and frozen_err <= 1e-12
    _report(
        "tfidf-oracle",
        ok,
        f"50 corpora exact={exact}, tf 3 in 1-of-2 docs = {frozen:.4f}"
        f" (|err vs 3 ln 2| = {frozen_err:.2e})",
    )


def test_default_parameters_and_large_corpus_pipeline(tmp_path):
    six_terms = frozenset(
        {"protest", "referendum", "petition", "signatures", "demonstration", "terrorist act"}
    )
    defaults_ok = (
        DEFAULT_SMOOTHING_WINDOW == 7 and DEFAULT_EVENT_LEXICON == six_terms
    )
    keywords = [
        "protest", "referendum", "petition", "signatures", "demonstration", "terrorist act",
    ]
    counts = [7283] * 5 + [7282]  # totals 43697
    clusters = tuple(
        ClusterDef(
            keyword=kw,
            topical_vocab=tuple(f"{kw.replace(' ', '')}topic{i:02d}" for i in range(12)),
            doc_count=count,
        )
        for kw, count in zip(keywords, counts)
    )
    spec = ClusterSpec(
        clusters=clusters,
        shared_vocab=tuple(f"common{i:02d}" for i in range(30)),
        rng_seed=2016,
        topical_terms_per_doc=9,
        shared_terms_per_doc=4,
    )
    burst = BurstSpec(
        length_days=61, plant_shift=8, plant_scale=40,
        amplitude=100.0, baseline=5.0, rng_seed=2016,
    )
    corpus, _ = generate_cluster_corpus(spec, DEFAULT_TEMPLATE, burst)
    corpus_path = tmp_path / "big_corpus.jsonl"
    save_corpus(corpus, corpus_path)
    out = tmp_path / "out"
    started = time.perf_counter()
    rc = main([
        "pipeline", "--corpus", str(corpus_path), "--out-dir", str(out),
        "--query", ",".join(keywords), "--threshold", "0.8",
    ])
    elapsed = time.perf_counter() - started
    with open(out / "series_raw.csv", newline="") as handle:
        rows = [(row["date"], float(row["value"])) for row in csv.DictReader(handle)]
    total = sum(v for _, v in rows)
    first_day = date.fromisoformat(rows[0][0])
    last_day = date.fromisoformat(rows[-1][0])
    span_ok = first_day == date(2016, 6, 1) and last_day == date(2016, 7, 31)
    ok = defaults_ok and rc == 0 and elapsed <= 120.0 and total == 43697.0 and span_ok
    _report(
        "paper-parameters",
        ok,
        f"window={DEFAULT_SMOOTHING_WINDOW}, lexicon={len(DEFAULT_EVENT_LEXICON)}"
        f" terms, {len(corpus)} docs {first_day}..{last_day}, series sum {total:.0f},"
        f" pipeline rc={rc} in {elapsed:.1f} s",
    )


def test_pipeline_manifests_are_byte_identical(tmp_path, fixtures_dir):
    def args(out: Path) -> list[str]:
        return [
            "pipeline",
            "--corpus", str(fixtures_dir / "corpus.jsonl"),
            "--out-dir", str(out),
            "--stopwords", str(fixtures_dir / "stopwords.txt"),
            "--threshold", "0.6",
        ]

    manifests = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = main(args(out))
        assert rc == 0
        manifests.append((out / MANIFEST_TXT).read_bytes())
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}"
        env = dict(
            os.environ,
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "opflow.cli"] + args(out),
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        manifests.append((out / MANIFEST_TXT).read_bytes())
    identical = all(m == manifests[0] for m in manifests)
    ok = identical and len(manifests) == 4
    _report(
        "deterministic-pipeline",
        ok,
        f"4 runs (2 in-process, OMP threads 1 and 4), identical={identical}",
    )
