"""Command line front end for the flow-analysis stages.

Subcommands mirror the stages of the method: ``series`` (filter the
flow, write its daily dynamics), ``correlogram`` (template correlation
over shifts and scales, peak report), ``events`` (tf-idf term ranking,
event-lexicon match, query augmentation, event corpus, source graph),
``cluster`` (seeded k-means report), ``pipeline`` (all of the above in
order, with date narrowing to the best peak window and a digest
manifest), and ``synth`` (fixture generation).

Each ``PipelineConfig`` field is an option, set by a flat ``key = value``
config file or by its flag; flags override file values.  Exit status: 0 success (warnings allowed),
1 usage or config error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

from .corpus import (
    Corpus,
    FlowQuery,
    TermTable,
    filter_by_dates,
    filter_by_query,
    load_corpus,
    load_stopwords,
    normalize_term,
    read_terms,
    save_corpus,
    tokenize_corpus,
)
from .errors import ConfigError, DataError
from .eventcluster import (
    Clustering, kmeans_seeded, seed_centroids, vectorize, write_cluster_report,
)
from .flowseries import (
    DEFAULT_SMOOTHING_WINDOW,
    DEFAULT_TEMPLATE,
    Correlogram,
    DailySeries,
    Peak,
    build_daily_series,
    correlogram,
    detect_peaks,
    load_template,
    smooth,
    write_correlogram_csv,
    write_peaks_csv,
    write_series_csv,
)
from .sourcegraph import SourceGraph, source_link_graph, write_source_graph
from .synthflow import (
    generate_burst_series,
    generate_cluster_corpus,
    load_burst_spec,
    load_cluster_spec,
    read_kv_file,
    typed_values,
    write_ground_truth,
)
from .termbase import (
    DEFAULT_EVENT_LEXICON,
    DEFAULT_TOP_M,
    TermWeight,
    augment_query,
    compute_tfidf,
    document_frequencies,
    load_lexicon,
    match_event_terms,
    write_term_report,
)

log = logging.getLogger(__name__)

FLOW_CORPUS = "flow_corpus.jsonl"
SERIES_RAW = "series_raw.csv"
SERIES_SMOOTHED = "series_smoothed.csv"
CORRELOGRAM_CSV = "correlogram.csv"
PEAKS_CSV = "peaks.csv"
NARROWED_CORPUS = "narrowed_corpus.jsonl"
TERMS_TSV = "terms.tsv"
EVENT_TERMS_TXT = "event_terms.txt"
AUGMENTED_QUERY_JSON = "augmented_query.json"
EVENT_CORPUS = "event_corpus.jsonl"
SOURCE_EDGES_TSV = "source_edges.tsv"
SOURCE_NODES_TSV = "source_nodes.tsv"
CLUSTERS_JSON = "clusters.json"
MANIFEST_TXT = "manifest.txt"

PIPELINE_ARTIFACTS = (
    FLOW_CORPUS,
    SERIES_RAW,
    SERIES_SMOOTHED,
    CORRELOGRAM_CSV,
    PEAKS_CSV,
    NARROWED_CORPUS,
    TERMS_TSV,
    EVENT_TERMS_TXT,
    AUGMENTED_QUERY_JSON,
    EVENT_CORPUS,
    SOURCE_EDGES_TSV,
    SOURCE_NODES_TSV,
    CLUSTERS_JSON,
)


def _option(default, help_text: str):
    return field(default=default, metadata={"help": help_text})


@dataclass
class PipelineConfig:
    """Everything a stage needs; assembled from config file plus flags.
    Each field is also the flag ``--name-with-dashes``, with its help
    text beside its default."""

    corpus: Path | None = _option(None, "JSONL corpus file")
    query: str = _option("", "AND-groups split by ';', OR-terms by ','")
    exclude: str = _option("", "comma list of excluded terms")
    stopwords: Path | None = _option(None, "stopword file, one per line")
    lexicon: Path | None = _option(None, "event lexicon file (default: built-in)")
    template: Path | None = _option(None, "lifecycle template file (default: built-in)")
    window: int = _option(DEFAULT_SMOOTHING_WINDOW, "smoothing window in days")
    scales: str = _option("", "scale grid, 'a..b' or comma list (default 7..n)")
    shifts: str = _option("", "shift grid, 'a..b' or comma list (default all)")
    threshold: float = _option(0.8, "peak threshold")
    top_n: int = _option(10, "max peaks reported")
    top_m: int = _option(DEFAULT_TOP_M, "ranked terms searched for events")
    top_t: int = _option(25, "terms kept per centroid")
    max_iter: int = _option(50, "k-means iteration cap")
    out_dir: Path | None = _option(None, "output directory")
    terms: Path | None = _option(None, "event term file (default: out dir's)")


# a None default marks a path; every other field takes its default's type
_CONFIG_TYPES = {
    f.name: Path if f.default is None else type(f.default) for f in fields(PipelineConfig)
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1."""

    def error(self, message: str):
        raise ConfigError(message)


def build_config(args: argparse.Namespace) -> PipelineConfig:
    values: dict = {}
    if args.config is not None:
        values = typed_values(read_kv_file(args.config), _CONFIG_TYPES, args.config)
        # a subcommand reads the config keys it has flags for, and no other
        for key in values:
            if not hasattr(args, key):
                raise ConfigError(
                    f"{args.config}: config key {key!r} is not an option of"
                    f" the {args.command} subcommand"
                )
    for key in _CONFIG_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return PipelineConfig(**values)


def validate_config(config: PipelineConfig) -> PipelineConfig:
    if config.corpus is None:
        raise ConfigError("a corpus file is required (--corpus or config key 'corpus')")
    if config.out_dir is None:
        raise ConfigError("an output directory is required (--out-dir or 'out_dir')")
    for label, path in (
        ("corpus", config.corpus),
        ("stopwords", config.stopwords),
        ("lexicon", config.lexicon),
        ("template", config.template),
    ):
        if path is not None and not Path(path).is_file():
            raise ConfigError(f"{label} file not found: {path}")
    if math.isnan(config.threshold):
        raise ConfigError("peak threshold must be a number, got nan")
    if config.window < 1 or config.window % 2 == 0:
        raise ConfigError(
            f"smoothing window must be odd and positive, got {config.window}"
        )
    for label, value in (
        ("top_n", config.top_n),
        ("top_m", config.top_m),
        ("top_t", config.top_t),
        ("max_iter", config.max_iter),
    ):
        if value < 1:
            raise ConfigError(f"{label} must be >= 1, got {value}")
    _make_out_dir(config.out_dir)
    return config


def _make_out_dir(out: Path) -> Path:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def _comma_terms(text: str, label: str) -> frozenset[str]:
    """Normalized terms of a comma list; blank pieces are skipped."""
    terms = set()
    for piece in text.split(","):
        if not piece.strip():
            continue
        term = normalize_term(piece)
        if not term:
            raise ConfigError(f"{label} term {piece.strip()!r} contains no usable tokens")
        terms.add(term)
    return frozenset(terms)


def parse_query(query_text: str, exclude_text: str = "") -> FlowQuery | None:
    """";" separates AND-groups, "," separates OR-terms in a group.

    Empty query text means "no filtering" and returns None.
    """
    groups = [g for part in (query_text or "").split(";") if (g := _comma_terms(part, "query"))]
    excluded = _comma_terms(exclude_text or "", "excluded")
    if not groups:
        if excluded:
            raise ConfigError("excluded terms need a base query")
        return None
    try:
        return FlowQuery(required_groups=groups, excluded_terms=excluded)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_grid(text: str, name: str, valid: range | None = None) -> list[int]:
    """"a..b" for an inclusive range, or a comma list of integers; sorted,
    without repeats.  With ``valid``, the grid's two ends must lie in it,
    which is checked before a range is expanded."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            grid = range(int(lo_text), int(hi_text) + 1)
        else:
            grid = sorted({int(piece) for piece in text.split(",") if piece.strip()})
        if not grid:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"bad {name} grid {text!r}: use 'a..b' or a comma list of integers"
        ) from None
    if valid is not None and not (grid[0] in valid and grid[-1] in valid):
        raise ConfigError(
            f"{name}s {text!r} outside the valid range [{valid[0]}, {valid[-1]}]"
        )
    return list(grid)


def resolve_grids(config: PipelineConfig, n: int) -> tuple[list[int], list[int]]:
    """Concrete scale/shift lists for a series of length n."""
    if n < 2:
        raise DataError(f"series of {n} day(s) is too short for correlation")
    if config.scales:
        scales = parse_grid(config.scales, "scale", range(2, n + 1))
    else:
        scales = list(range(min(7, n), n + 1)) if n >= 7 else list(range(2, n + 1))
    if config.shifts:
        shifts = parse_grid(config.shifts, "shift", range(0, n - 1))
    else:
        shifts = list(range(0, n - min(scales) + 1))
    return scales, shifts


def _load_inputs(config: PipelineConfig) -> tuple[Corpus, TermTable]:
    corpus = load_corpus(config.corpus)
    stopwords = load_stopwords(config.stopwords) if config.stopwords else frozenset()
    return corpus, tokenize_corpus(corpus, stopwords)


def _flow(config: PipelineConfig) -> tuple[Corpus, TermTable, FlowQuery | None]:
    corpus, tokenized = _load_inputs(config)
    query = parse_query(config.query, config.exclude)
    flow = filter_by_query(corpus, query, tokenized) if query is not None else corpus
    if len(flow) == 0:
        raise DataError("empty flow: the query matched no documents")
    return flow, tokenized, query


def dynamics_series(flow: Corpus, config: PipelineConfig) -> tuple[DailySeries, DailySeries]:
    """Raw and smoothed daily counts of the flow."""
    series = build_daily_series(flow)
    log.info("series: %d docs over %d days", len(flow), len(series.values))
    return series, smooth(series, config.window)


def dynamics_correlogram(
    series: DailySeries, config: PipelineConfig
) -> tuple[Correlogram, list[Peak]]:
    """Template correlation over the scale/shift grid, and its peaks."""
    template = load_template(config.template) if config.template else DEFAULT_TEMPLATE
    scales, shifts = resolve_grids(config, len(series.values))
    corr = correlogram(series, template, scales=scales, shifts=shifts)
    peaks = detect_peaks(corr, config.threshold, config.top_n)
    if not (corr.admissible & ~corr.undefined).any():
        log.warning("correlogram: every window is flat, no defined cells")
    elif not peaks:
        log.warning("correlogram: no peak at or above threshold %g", config.threshold)
    else:
        best = peaks[0]
        log.info(
            "correlogram: best peak l=%d k=%d c=%.4f (%s..%s)",
            best.shift, best.scale, best.value, best.window_start, best.window_end,
        )
    return corr, peaks


def _write_series(series: DailySeries, smoothed: DailySeries, out: Path) -> None:
    write_series_csv(series, out / SERIES_RAW)
    write_series_csv(smoothed, out / SERIES_SMOOTHED)


def _write_correlogram(corr: Correlogram, peaks: list[Peak], out: Path) -> None:
    write_correlogram_csv(corr, out / CORRELOGRAM_CSV)
    write_peaks_csv(peaks, out / PEAKS_CSV)


def cmd_series(config: PipelineConfig) -> int:
    """Write raw and smoothed daily dynamics of the filtered flow."""
    flow, _, _ = _flow(config)
    _write_series(*dynamics_series(flow, config), Path(config.out_dir))
    return 0


def cmd_correlogram(config: PipelineConfig) -> int:
    """Write template correlation over the grid, plus the peak report."""
    flow, _, _ = _flow(config)
    series = build_daily_series(flow)
    _write_correlogram(*dynamics_correlogram(series, config), Path(config.out_dir))
    return 0


@dataclass
class Events:
    """What the events stage finds in one stage corpus; ``table`` is the
    stage corpus's tokenized rows, which hold the event corpus's."""

    ranked: list[TermWeight]
    matched: list[str]
    corpus: Corpus
    graph: SourceGraph
    table: TermTable


def find_events(
    corpus: Corpus, tokenized: TermTable, config: PipelineConfig
) -> Events:
    """Rank terms, match the event lexicon, keep the documents carrying
    an event term, and project them onto sources."""
    lexicon = load_lexicon(config.lexicon) if config.lexicon else DEFAULT_EVENT_LEXICON
    table = tokenized.select(corpus)
    ranked = compute_tfidf(table)
    matched = match_event_terms(ranked, lexicon, table, top_m=config.top_m)
    if matched:
        event_query = FlowQuery(required_groups=[frozenset(matched)])
        event_corpus = filter_by_query(corpus, event_query, table)
    else:
        log.warning("events: no lexicon term among the top %d ranked terms", config.top_m)
        event_corpus = Corpus(corpus.table, corpus.rows[:0])
    graph = source_link_graph(event_corpus) if len(event_corpus) else SourceGraph({}, {})
    log.info(
        "events: %d matched terms, %d event docs, %d source links",
        len(matched), len(event_corpus), len(graph.edges),
    )
    return Events(ranked, matched, event_corpus, graph, table)


def _write_augmented_query(query: FlowQuery | None, event_terms: list[str], path: Path) -> None:
    """The flow query narrowed by one OR-group of the event terms."""
    if event_terms:
        query = augment_query(query, event_terms) if query else FlowQuery([frozenset(event_terms)])
    payload = {
        "required_groups": [sorted(g) for g in query.required_groups] if query else [],
        "excluded_terms": sorted(query.excluded_terms) if query else [],
        "event_terms": list(event_terms),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_events(events: Events, query: FlowQuery | None, out: Path) -> None:
    write_term_report(events.ranked, out / TERMS_TSV)
    (out / EVENT_TERMS_TXT).write_text("".join(t + "\n" for t in events.matched), encoding="utf-8")
    _write_augmented_query(query, events.matched, out / AUGMENTED_QUERY_JSON)
    save_corpus(events.corpus, out / EVENT_CORPUS)
    write_source_graph(events.graph, out / SOURCE_EDGES_TSV, out / SOURCE_NODES_TSV)


def cmd_events(config: PipelineConfig) -> int:
    """Rank terms, match the event lexicon, narrow to event documents,
    and project the event flow onto sources."""
    flow, tokenized, query = _flow(config)
    _write_events(find_events(flow, tokenized, config), query, Path(config.out_dir))
    return 0


def cluster_events(
    corpus: Corpus, tokenized: TermTable, terms: list[str], config: PipelineConfig
) -> tuple[list[str], Clustering]:
    """Seeded k-means over the corpus, one cluster per seed term; idf
    comes from this corpus alone.  Returns the ids of the documents left
    without a vector (every term in every document) and the clustering."""
    table = tokenized.select(corpus)
    df = document_frequencies(table)
    vectors = vectorize(table, df, len(table))
    omitted: list[str] = []
    if len(vectors) < len(table):
        vectorized = set(vectors.doc_ids)
        omitted = [doc_id for doc_id in table if doc_id not in vectorized]
        log.warning("cluster: omitted %d zero-weight docs: %s", len(omitted), omitted[:5])
    seeds = seed_centroids(terms)
    clustering = kmeans_seeded(vectors, seeds, max_iter=config.max_iter, top_t=config.top_t)
    log.info(
        "cluster: k=%d, %d docs, %d iterations, Q=%.4f",
        len(seeds), len(vectors), clustering.iterations, clustering.q_history[-1],
    )
    return omitted, clustering


def cmd_cluster(config: PipelineConfig) -> int:
    """Seeded k-means over the given corpus; one cluster per event term."""
    terms_path = Path(config.terms) if config.terms else Path(config.out_dir) / EVENT_TERMS_TXT
    if not terms_path.is_file():
        raise ConfigError(
            f"no event terms at {terms_path}: run the events subcommand first,"
            " or point --terms at a term file"
        )
    seed_terms = read_terms(terms_path)
    if not seed_terms:
        raise ConfigError(
            f"event term file {terms_path} is empty: run the events subcommand"
            " on a corpus that matches the lexicon, or pass --terms"
        )
    corpus, tokenized = _load_inputs(config)
    omitted, clustering = cluster_events(corpus, tokenized, seed_terms, config)
    write_cluster_report(clustering, Path(config.out_dir) / CLUSTERS_JSON, omitted)
    return 0


def _file_digest(path: Path) -> str:
    """SHA-256 of a file, read in 1 MiB blocks so no artifact is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, notes: list[str]) -> None:
    lines = [f"# {note}" for note in notes]
    for name in sorted(PIPELINE_ARTIFACTS):
        path = out_dir / name
        if path.is_file():
            lines.append(f"{name}\t{_file_digest(path)}")
    (out_dir / MANIFEST_TXT).write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextmanager
def _stage(name: str):
    """Prefix the error a pipeline stage raises with the stage name; a
    ValueError from library validation counts as bad data."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"stage {name}: {exc}") from exc
    except DataError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"stage {name}: {exc}") from exc


def cmd_pipeline(config: PipelineConfig) -> int:
    """All stages in order on one load and one tokenization of the corpus,
    ending with a digest manifest.  A stage failure aborts with the stage
    name; files already written stay in place."""
    out = Path(config.out_dir)
    for name in PIPELINE_ARTIFACTS + (MANIFEST_TXT,):
        (out / name).unlink(missing_ok=True)
    notes: list[str] = []

    with _stage("flow"):
        flow, tokenized, query = _flow(config)
    save_corpus(flow, out / FLOW_CORPUS)

    with _stage("dynamics"):
        series, smoothed = dynamics_series(flow, config)
        _write_series(series, smoothed, out)
        corr, peaks = dynamics_correlogram(series, config)
        _write_correlogram(corr, peaks, out)

    with _stage("narrowing"):
        if not peaks:
            notes.append("narrowing: none (no peak at or above threshold)")
            stage_corpus = flow
        else:
            # a peak's window of counts is not flat, so it holds a document
            best = peaks[0]
            stage_corpus = filter_by_dates(flow, best.window_start, best.window_end)
            save_corpus(stage_corpus, out / NARROWED_CORPUS)
            notes.append(
                f"narrowing: {best.window_start}..{best.window_end}"
                f" (peak l={best.shift} k={best.scale} c={best.value!r})"
            )

    with _stage("terms"):
        events = find_events(stage_corpus, tokenized, config)
        del tokenized  # free the full table: clustering reads events.table
        _write_events(events, query, out)

    with _stage("clustering"):
        if events.matched:
            omitted, clustering = cluster_events(
                events.corpus, events.table, events.matched, config
            )
            write_cluster_report(clustering, out / CLUSTERS_JSON, omitted)
        else:
            notes.append("clustering: skipped (no event terms matched)")
    _write_manifest(out, notes)
    log.info("pipeline: done, manifest at %s", out / MANIFEST_TXT)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    """Generate a planted series (and optionally a planted corpus).  Both
    spec files are read before any output is written."""
    burst = load_burst_spec(args.burst_spec, args.seed)
    spec = None
    if args.cluster_spec is not None:
        spec = load_cluster_spec(args.cluster_spec, args.seed)
    template = load_template(args.template) if args.template else DEFAULT_TEMPLATE
    out = _make_out_dir(args.out_dir)
    series = generate_burst_series(template, burst)
    write_series_csv(series, out / "synth_series.csv")
    log.info("synth: series of %d days written", len(series.values))
    if spec is not None:
        corpus, truth = generate_cluster_corpus(spec, template, burst)
        save_corpus(corpus, out / "synth_corpus.jsonl")
        write_ground_truth(truth, out / "synth_truth.tsv")
        log.info("synth: corpus of %d docs in %d clusters written",
                 len(corpus), len(spec.clusters))
    return 0


def _add_common_options(sub: argparse.ArgumentParser, with_terms: bool) -> None:
    """--config, then one flag per PipelineConfig field; --terms only
    where ``with_terms``."""
    sub.add_argument("--config", type=Path, help="flat key = value config file")
    for option in fields(PipelineConfig):
        if option.name == "terms" and not with_terms:
            continue
        help_text = option.metadata["help"]
        if option.default not in (None, ""):
            help_text += f" (default {option.default})"
        sub.add_argument(
            "--" + option.name.replace("_", "-"), dest=option.name,
            type=_CONFIG_TYPES[option.name], help=help_text,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opflow",
        description="Detect the event basis of information operations in news flows.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    handlers = {
        "series": (cmd_series, "write raw and smoothed daily dynamics"),
        "correlogram": (cmd_correlogram, "correlate the flow with the lifecycle template"),
        "events": (cmd_events, "rank terms, match the event lexicon, build the source graph"),
        "cluster": (cmd_cluster, "seeded k-means over event documents"),
        "pipeline": (cmd_pipeline, "run every stage in order and write a manifest"),
    }
    for name, (handler, description) in handlers.items():
        sub = commands.add_parser(name, help=description)
        _add_common_options(sub, with_terms=(name == "cluster"))
        sub.set_defaults(func=lambda args, h=handler: h(validate_config(build_config(args))))

    synth = commands.add_parser("synth", help="generate planted fixtures")
    synth.add_argument("--burst-spec", type=Path, required=True, dest="burst_spec")
    synth.add_argument("--cluster-spec", type=Path, dest="cluster_spec")
    synth.add_argument("--template", type=Path, help="lifecycle template file (default: built-in)")
    synth.add_argument("--out-dir", type=Path, dest="out_dir", required=True)
    synth.add_argument("--seed", type=int, help="override the seeds in the spec files")
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 1
    except (DataError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except Exception:  # pragma: no cover - defensive
        log.exception("internal error")
        return 3


if __name__ == "__main__":
    sys.exit(main())
