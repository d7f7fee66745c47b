"""Synthetic series and corpora with planted, recoverable ground truth.

A burst series is a flat baseline plus one template-shaped bump at a
known shift and scale, with optional Gaussian noise.  A cluster corpus
draws documents for each planted topic: every document carries its
topic's event keyword, words from a topic-private vocabulary, and words
from a shared background pool, with publication dates sampled in
proportion to the burst series.

All randomness flows from numpy's PCG64 seeded via SeedSequence, with
one spawned child stream per planted cluster, so any part of a fixture
can be regenerated independently and byte-identically.  Gaussian noise
is produced by the Box-Muller transform of uniform draws rather than a
library normal, so the exact sample sequence is pinned by this module
and not by the numerics backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

import numpy as np

from .corpus import Corpus, Document, normalize_term
from .errors import DataError
from .flowseries import DailySeries, LifecycleTemplate, sample_template

DEFAULT_SOURCES = ("agency-alpha", "channel-beta", "daily-gamma", "portal-delta")

_SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class BurstSpec:
    """Where and how large the planted template bump is."""

    length_days: int
    plant_shift: int
    plant_scale: int
    amplitude: float
    baseline: float = 0.0
    noise_sigma: float = 0.0
    rng_seed: int = 0
    start_date: date = date(2016, 6, 1)

    def __post_init__(self) -> None:
        if self.length_days < 1:
            raise ValueError(f"length_days must be >= 1, got {self.length_days}")
        if self.plant_scale < 2:
            raise ValueError(f"plant_scale must be >= 2, got {self.plant_scale}")
        if self.plant_shift < 0:
            raise ValueError(f"plant_shift must be >= 0, got {self.plant_shift}")
        if self.plant_shift + self.plant_scale > self.length_days:
            raise ValueError(
                f"planted window [{self.plant_shift}, {self.plant_shift + self.plant_scale})"
                f" does not fit in {self.length_days} days"
            )
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be > 0, got {self.amplitude}")
        if not self.baseline >= 0:
            raise ValueError(f"baseline must be >= 0, got {self.baseline}")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for key in ("amplitude", "baseline", "noise_sigma"):
            if math.isinf(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got inf")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class ClusterDef:
    """One planted topic: its event keyword, private vocabulary, size."""

    keyword: str
    topical_vocab: tuple[str, ...]
    doc_count: int

    def __post_init__(self) -> None:
        kw = normalize_term(self.keyword)
        if not kw:
            raise ValueError(f"keyword {self.keyword!r} normalizes to nothing")
        object.__setattr__(self, "keyword", kw)
        vocab = tuple(normalize_term(t) for t in self.topical_vocab)
        if any(not t or " " in t for t in vocab):
            raise ValueError("topical vocab entries must be single non-empty tokens")
        if len(set(vocab)) != len(vocab):
            raise ValueError("topical vocab has duplicate terms")
        if len(vocab) < 10:
            raise ValueError(f"topical vocab needs >= 10 terms, got {len(vocab)}")
        object.__setattr__(self, "topical_vocab", vocab)
        if self.doc_count < 1:
            raise ValueError(f"doc_count must be >= 1, got {self.doc_count}")


@dataclass(frozen=True)
class ClusterSpec:
    """A full planted-corpus recipe."""

    clusters: tuple[ClusterDef, ...]
    shared_vocab: tuple[str, ...] = ()
    rng_seed: int = 0
    topical_terms_per_doc: int = 12
    shared_terms_per_doc: int = 5

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("at least one cluster is required")
        shared = tuple(normalize_term(t) for t in self.shared_vocab)
        if any(not t or " " in t for t in shared):
            raise ValueError("shared vocab entries must be single non-empty tokens")
        if len(set(shared)) != len(shared):
            raise ValueError("shared vocab has duplicate terms")
        object.__setattr__(self, "shared_vocab", shared)
        keywords = [c.keyword for c in self.clusters]
        if len(set(keywords)) != len(keywords):
            raise ValueError("cluster keywords must be pairwise distinct")
        shared_set = set(shared)
        claimed: dict[str, str] = {}
        for c in self.clusters:
            for term in c.topical_vocab:
                if term in shared_set:
                    raise ValueError(f"term {term!r} is in both topical and shared vocab")
                if term in claimed and claimed[term] != c.keyword:
                    raise ValueError(f"term {term!r} appears in two topical vocabs")
                claimed[term] = c.keyword
        for c in self.clusters:
            for token in c.keyword.split(" "):
                owner = claimed.get(token)
                if (owner is not None and owner != c.keyword) or token in shared_set:
                    raise ValueError(
                        f"keyword token {token!r} of {c.keyword!r} collides with another vocabulary"
                    )
        if self.topical_terms_per_doc < 1:
            raise ValueError("topical_terms_per_doc must be >= 1")
        if self.shared_terms_per_doc < 0:
            raise ValueError("shared_terms_per_doc must be >= 0")
        if self.shared_terms_per_doc > 0 and not shared:
            raise ValueError("shared_terms_per_doc > 0 needs a shared vocab")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")


def _gauss(rng: np.random.Generator) -> float:
    """Box-Muller: one standard normal from two uniform draws."""
    u1 = 1.0 - rng.random()  # (0, 1], keeps the log finite
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def generate_burst_series(template: LifecycleTemplate, spec: BurstSpec) -> DailySeries:
    """Baseline everywhere, baseline + amplitude * template inside the
    planted window, noise on every day, clamped at zero."""
    samples = sample_template(template, spec.plant_scale)
    values = [spec.baseline] * spec.length_days
    for i, s in enumerate(samples):
        values[spec.plant_shift + i] = spec.baseline + spec.amplitude * s
    if spec.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.rng_seed)))
        values = [v + spec.noise_sigma * _gauss(rng) for v in values]
    values = [v if v > 0.0 else 0.0 for v in values]
    return DailySeries(start_date=spec.start_date, values=values)


def _draw_day(rng: np.random.Generator, cumulative: np.ndarray) -> int:
    u = rng.random() * cumulative[-1]
    return int(np.searchsorted(cumulative, u, side="right"))


def generate_cluster_corpus(
    spec: ClusterSpec,
    template: LifecycleTemplate,
    burst: BurstSpec,
) -> tuple[Corpus, dict[str, int]]:
    """Planted corpus plus the doc_id -> cluster index (1-based) truth.

    Cluster indices follow spec order, matching centroids seeded from
    the keywords in that order.
    """
    series = generate_burst_series(template, burst)
    with np.errstate(over="ignore"):  # finite values can sum past the float range
        cumulative = np.cumsum(np.asarray(series.values, dtype=float))
    if cumulative[-1] <= 0.0:
        raise DataError("planted series has no mass to sample dates from")
    if math.isinf(cumulative[-1]):
        raise DataError("planted series sums past the float range: no date can be sampled")
    root = np.random.SeedSequence(spec.rng_seed)
    streams = root.spawn(len(spec.clusters))
    truth: dict[str, int] = {}

    def documents():
        # made one at a time, so the corpus reads each and holds only its line
        for j, (cdef, stream) in enumerate(zip(spec.clusters, streams), start=1):
            rng = np.random.Generator(np.random.PCG64(stream))
            for i in range(cdef.doc_count):
                day_index = _draw_day(rng, cumulative)
                second = int(rng.random() * _SECONDS_PER_DAY)
                published = datetime.combine(
                    series.start_date + timedelta(days=day_index),
                    datetime.min.time(),
                    tzinfo=timezone.utc,
                ) + timedelta(seconds=second)
                body_terms = [
                    cdef.topical_vocab[int(rng.integers(0, len(cdef.topical_vocab)))]
                    for _ in range(spec.topical_terms_per_doc)
                ]
                body_terms += [
                    spec.shared_vocab[int(rng.integers(0, len(spec.shared_vocab)))]
                    for _ in range(spec.shared_terms_per_doc)
                ]
                # keyword goes in as an adjacent token run so phrase
                # keywords survive tokenization
                slot = int(rng.integers(0, len(body_terms) + 1))
                body_terms[slot:slot] = cdef.keyword.split(" ")
                source = DEFAULT_SOURCES[int(rng.integers(0, len(DEFAULT_SOURCES)))]
                doc_id = f"c{j:02d}d{i:04d}"
                truth[doc_id] = j
                yield Document(
                    id=doc_id,
                    published_at=published,
                    source=source,
                    title=cdef.keyword,
                    body=" ".join(body_terms),
                )

    return Corpus.from_documents(documents()), truth
