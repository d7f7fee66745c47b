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

The flat ``key = value`` spec files that describe a fixture are read
here as well.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

import numpy as np

from .corpus import Corpus, Document, normalize_term, read_line_file
from .errors import ConfigError, DataError
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


def write_ground_truth(truth: dict[str, int], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("doc_id\tcluster\n")
        for doc_id in sorted(truth):
            handle.write(f"{doc_id}\t{truth[doc_id]}\n")


def read_kv_file(path) -> list[tuple[str, str]]:
    """A spec file's flat "key = value" lines, read by ``read_line_file``:
    a leading byte order mark is dropped, '#' starts a comment anywhere on
    a line, and blank lines are skipped.

    Returned as pairs because some consumers allow repeated keys.
    """
    try:
        entries = read_line_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read spec file {path}: {exc.strerror}") from None
    except DataError as exc:  # names the file and the line
        raise ConfigError(f"cannot read spec file {exc}") from None
    pairs = []
    for line_no, line in entries:
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def _iso_date(text: str) -> date:
    """A ``YYYY-MM-DD`` date.  Python 3.11 and later also read basic and
    week forms (``20160601``, ``2016-W22-3``) that 3.10 rejects."""
    if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text) is None:
        raise ValueError(text)
    return date.fromisoformat(text)


def typed_values(pairs: list[tuple[str, str]], types: dict[str, type], where) -> dict:
    """Each key's value coerced to its type in ``types``; a repeated key
    keeps its last value.  Unknown keys and unparsable values are
    ConfigErrors."""
    values = {}
    for key, raw in pairs:
        if key not in types:
            raise ConfigError(f"{where}: unknown key {key!r}")
        kind = types[key]
        try:
            values[key] = _iso_date(raw) if kind is date else kind(raw)
        except ValueError:
            wanted = {date: "an ISO date", int: "a whole number"}.get(kind, "a number")
            raise ConfigError(f"{where}: key {key!r} needs {wanted}, got {raw!r}") from None
    return values


_BURST_SPEC_TYPES = {
    "length_days": int, "plant_shift": int, "plant_scale": int, "amplitude": float,
    "baseline": float, "noise_sigma": float, "seed": int, "start_date": date,
}

_CLUSTER_SPEC_TYPES = {"cluster": str, "vocab_size": int, "shared_size": int, "seed": int}

# the largest spec values: a century of days, a vocabulary of terms, the
# documents and topical terms of a planted corpus, and a keyword, which
# each of its cluster's topical terms repeats
MAX_SPEC_DAYS = 36_525
MAX_SPEC_TERMS = 10_000
MAX_SPEC_DOCS = 200_000
MAX_SPEC_TOPICAL_TERMS = 1_000_000
MAX_SPEC_KEYWORD_CHARS = 100


def _at_most(path, key: str, value: int, bound: int) -> None:
    """A spec value that sizes an allocation is checked before it is made."""
    if value > bound:
        raise ConfigError(f"{path}: {key} must be at most {bound}, got {value}")


def load_burst_spec(path) -> BurstSpec:
    """Burst spec file: one "key = value" line per BurstSpec field, with
    ``seed`` for the noise seed."""
    values = typed_values(read_kv_file(path), _BURST_SPEC_TYPES, path)
    for key in ("length_days", "plant_shift", "plant_scale", "amplitude"):
        if key not in values:
            raise ConfigError(f"{path}: burst spec is missing key {key!r}")
    _at_most(path, "length_days", values["length_days"], MAX_SPEC_DAYS)
    try:
        return BurstSpec(rng_seed=values.pop("seed", 0), **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_cluster_spec(path) -> ClusterSpec:
    """Cluster spec: repeatable "cluster = keyword:count" lines plus
    sizing knobs; vocabularies are generated from the keywords."""
    pairs = read_kv_file(path)
    values = typed_values(pairs, _CLUSTER_SPEC_TYPES, path)
    cluster_lines = [value for key, value in pairs if key == "cluster"]
    if not cluster_lines:
        raise ConfigError(f"{path}: at least one 'cluster = keyword:count' line is required")
    vocab_size, shared_size = values.get("vocab_size", 20), values.get("shared_size", 50)
    _at_most(path, "vocab_size", vocab_size, MAX_SPEC_TERMS)
    _at_most(path, "shared_size", shared_size, MAX_SPEC_TERMS)
    counts = []
    for line in cluster_lines:
        keyword_text, sep, count_text = line.rpartition(":")
        if not sep:
            raise ConfigError(f"{path}: cluster line {line!r} is not 'keyword:count'")
        _at_most(path, "a cluster keyword's length", len(keyword_text), MAX_SPEC_KEYWORD_CHARS)
        try:
            counts.append((keyword_text, int(count_text)))
        except ValueError:
            raise ConfigError(f"{path}: cluster count {count_text!r} is not an integer") from None
    _at_most(path, "the total of the cluster counts", sum(c for _, c in counts), MAX_SPEC_DOCS)
    _at_most(path, "clusters x vocab_size", len(counts) * vocab_size, MAX_SPEC_TOPICAL_TERMS)
    defs = []
    for keyword_text, count in counts:
        compact = normalize_term(keyword_text).replace(" ", "")
        vocab = tuple(f"{compact}topic{i:02d}" for i in range(vocab_size))
        try:
            defs.append(ClusterDef(keyword=keyword_text, topical_vocab=vocab, doc_count=count))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    try:
        return ClusterSpec(
            clusters=tuple(defs),
            shared_vocab=tuple(f"common{i:02d}" for i in range(shared_size)),
            rng_seed=values.get("seed", 0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
