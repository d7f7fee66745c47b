"""Workload inputs, generated from ``opflow.synthflow`` and the benchmark seed.

Each generator builds its inputs before any timing starts.  The program
only ever sees the generated files or series; the planted truth stays
with the benchmark, which uses it to check the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from opflow.corpus import save_corpus
from opflow.flowseries import DEFAULT_TEMPLATE, DailySeries
from opflow.synthflow import (
    BurstSpec,
    ClusterDef,
    ClusterSpec,
    generate_burst_series,
    generate_cluster_corpus,
)

LEXICON_KEYWORDS = (
    "protest", "referendum", "petition", "signatures", "demonstration", "terrorist act",
)

# Burst-grid parameters: the acceptance burst gate and scripts/burst_sweep.py.
BURST_LENGTH, BURST_SHIFT, BURST_SCALE = 365, 120, 40
BURST_SCALES = list(range(10, 121))
BURST_SHIFTS = list(range(0, BURST_LENGTH - BURST_SCALES[0] + 1))
BURST_CELLS = sum(1 for k in BURST_SCALES for l in BURST_SHIFTS if l + k <= BURST_LENGTH)
BURST_POOL = 100  # distinct planted series per run; scans cycle through them


@dataclass
class PipelineWorkload:
    """A corpus file plus the query flags of one ``opflow pipeline`` run."""

    corpus_path: Path
    flags: list[str]
    keyword_of: dict[str, str]  # doc id -> planted keyword
    flow_size: int  # docs the query keeps, counted from the generated text


@dataclass
class BurstWorkload:
    """Planted year-long series, all with the same plant."""

    series: list[DailySeries]


def _cluster_corpus(keywords, counts, seed: int, burst: BurstSpec):
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
        rng_seed=seed,
        topical_terms_per_doc=9,
        shared_terms_per_doc=4,
    )
    corpus, truth = generate_cluster_corpus(spec, DEFAULT_TEMPLATE, burst)
    keyword_of = {doc_id: keywords[j - 1] for doc_id, j in truth.items()}
    return corpus, keyword_of


def _contains(tokens: list[str], term: str) -> bool:
    words = term.split(" ")
    n = len(words)
    return any(tokens[i:i + n] == words for i in range(len(tokens) - n + 1))


def _count_flow(corpus, query_terms) -> int:
    """Docs holding any query term.

    Generated text is lowercase words joined by single spaces, so a
    plain split is an independent tokenizer for it.
    """
    return sum(
        1 for doc in corpus
        if any(_contains((doc.title + " " + doc.body).split(" "), t) for t in query_terms)
    )


def paper_pipeline(seed: int, work_dir: Path) -> PipelineWorkload:
    """The acceptance paper-parameters corpus: 43,697 docs over 61 days,
    six lexicon clusters, queried by all six keywords."""
    burst = BurstSpec(
        length_days=61, plant_shift=8, plant_scale=40,
        amplitude=100.0, baseline=5.0, rng_seed=seed,
    )
    counts = [7283] * 5 + [7282]
    corpus, keyword_of = _cluster_corpus(LEXICON_KEYWORDS, counts, seed, burst)
    path = work_dir / "corpus.jsonl"
    save_corpus(corpus, path)
    flags = ["--query", ",".join(LEXICON_KEYWORDS), "--threshold", "0.8"]
    return PipelineWorkload(path, flags, keyword_of, _count_flow(corpus, LEXICON_KEYWORDS))


def burst_grid(seed: int) -> BurstWorkload:
    """Noisy planted series (shift 120, scale 40, amplitude 100,
    baseline 5, sigma 5), one per pool slot, seeded from the run seed."""
    series = []
    for i in range(BURST_POOL):
        spec = BurstSpec(
            length_days=BURST_LENGTH,
            plant_shift=BURST_SHIFT,
            plant_scale=BURST_SCALE,
            amplitude=100.0,
            baseline=5.0,
            noise_sigma=5.0,
            rng_seed=seed * BURST_POOL + i,
        )
        series.append(generate_burst_series(DEFAULT_TEMPLATE, spec))
    return BurstWorkload(series)
