"""Command line front end for the flow-analysis stages.

Subcommands mirror the stages of the method: ``series`` (filter the
flow, write its daily dynamics), ``correlogram`` (template correlation
over shifts and scales, peak report), ``events`` (tf-idf term ranking,
event-lexicon match, query augmentation, event corpus, source graph),
``cluster`` (seeded k-means report), ``pipeline`` (all of the above in
order, with date narrowing to the best peak window and a digest
manifest).  Before a handler runs, ``run_command`` removes the files
``COMMANDS`` lists for its subcommand.
Each stage is one function that computes, then writes its files
(``dynamics_series``, ``dynamics_correlogram``, ``find_events``,
``cluster_events``); the stage subcommands and ``pipeline`` call the
same ones, on a corpus loaded and filtered by ``_flow``, or its daily series.

Each ``PipelineConfig`` field is an option, and its flag is the one
source of its value.  Other values, the smoothing window among them, are
fixed as the defaults of the library functions.  Exit status: 0 success
(warnings allowed), 1 usage or config error, 2 data error, 3 internal
error.
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
    DEFAULT_TEMPLATE,
    DailySeries,
    LifecycleTemplate,
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
from .termbase import (
    DEFAULT_EVENT_LEXICON,
    DEFAULT_TOP_M,
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

# each subcommand's help and the files it writes into --out-dir
_STAGES = {
    "series": ("write raw and smoothed daily dynamics", (SERIES_RAW, SERIES_SMOOTHED)),
    "correlogram": ("correlate the flow with the lifecycle template", (CORRELOGRAM_CSV, PEAKS_CSV)),
    "events": ("rank terms, match the event lexicon, build the source graph", (
        TERMS_TSV, EVENT_TERMS_TXT, AUGMENTED_QUERY_JSON, EVENT_CORPUS, SOURCE_EDGES_TSV,
        SOURCE_NODES_TSV)),
    "cluster": ("seeded k-means over event documents", (CLUSTERS_JSON,)),
}
PIPELINE_ARTIFACTS = (FLOW_CORPUS, NARROWED_CORPUS) + sum(
    (names for _, names in _STAGES.values()), ())
COMMANDS = {
    **_STAGES,
    "pipeline": ("run every stage in order and write a manifest",
                 PIPELINE_ARTIFACTS + (MANIFEST_TXT,)),
}


def _option(default, help_text: str):
    return field(default=default, metadata={"help": help_text})


@dataclass
class PipelineConfig:
    """Everything a stage needs.  Each field is set by the flag
    ``--name-with-dashes`` alone, with its help text beside its default."""

    corpus: Path | None = _option(None, "JSONL corpus file")
    query: str = _option("", "AND-groups split by ';', OR-terms by ','")
    exclude: str = _option("", "comma list of excluded terms")
    stopwords: Path | None = _option(None, "stopword file, one per line")
    lexicon: Path | None = _option(None, "event lexicon file (default: built-in)")
    template: Path | None = _option(None, "lifecycle template file (default: built-in)")
    scales: str = _option("", "scale grid, 'a..b' or comma list (default 7..n)")
    shifts: str = _option("", "shift grid, 'a..b' or comma list (default all)")
    threshold: float = _option(0.8, "peak threshold")
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

    def parse_args(self, args=None, namespace=None):
        # argparse up to Python 3.12 drops the value of "--flag=--" and sets
        # the flag to an empty list, which no option's type reads
        for arg in sys.argv[1:] if args is None else args:
            flag, _, value = arg.partition("=")
            if flag.startswith("--") and value == "--":
                self.error(f"argument {flag}: expected one argument")
        return super().parse_args(args, namespace)


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """The flags given; a flag left out keeps its field's default."""
    return PipelineConfig(**{
        key: value for key in _CONFIG_TYPES if (value := getattr(args, key, None)) is not None
    })


def validate_config(config: PipelineConfig) -> PipelineConfig:
    for label, path in (
        ("corpus", config.corpus),
        ("stopwords", config.stopwords),
        ("lexicon", config.lexicon),
        ("template", config.template),
    ):
        if path is not None and not Path(path).is_file():
            raise ConfigError(f"{label} file not found: {path}")
    if math.isnan(config.threshold):
        raise ConfigError("--threshold must be a number, got nan")
    return config


def _comma_terms(text: str, flag: str) -> frozenset[str]:
    """Normalized terms of the comma list given to ``flag``; blank pieces are skipped."""
    terms = set()
    for piece in text.split(","):
        if not piece.strip():
            continue
        term = normalize_term(piece)
        if not term:
            raise ConfigError(f"{flag} term {piece.strip()!r} contains no usable tokens")
        terms.add(term)
    return frozenset(terms)


def parse_query(query_text: str, exclude_text: str = "") -> FlowQuery | None:
    """";" separates AND-groups, "," separates OR-terms in a group.

    Empty query text means "no filtering" and returns None.
    """
    groups = [g for part in (query_text or "").split(";") if (g := _comma_terms(part, "--query"))]
    excluded = _comma_terms(exclude_text or "", "--exclude")
    if not groups:
        if excluded:
            raise ConfigError("--exclude terms need a base --query")
        return None
    try:
        return FlowQuery(required_groups=groups, excluded_terms=excluded)
    except ValueError as exc:
        raise ConfigError(f"--query and --exclude: {exc}") from None


def parse_grid(text: str, name: str, valid: range) -> list[int]:
    """"a..b" for an inclusive range, or a comma list of integers; sorted,
    without repeats.  The grid's two ends must lie in ``valid``, which is
    checked before a range is expanded.  A refusal names the flag, ``--{name}s``."""
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
            f"bad --{name}s grid {text!r}: use 'a..b' or a comma list of integers"
        ) from None
    if not (grid[0] in valid and grid[-1] in valid):
        raise ConfigError(
            f"--{name}s {text!r} outside the valid range [{valid[0]}, {valid[-1]}]"
        )
    return list(grid)


# the correlogram returns three (scale x shift) arrays, 10 bytes a cell
MAX_GRID_CELLS = 2**24


def resolve_grids(config: PipelineConfig, n: int) -> tuple[list[int], list[int]]:
    """Concrete scale/shift lists for a series of length n, of at most
    MAX_GRID_CELLS cells: the series' span sizes the default grid.  A
    refusal of the span names the inputs that make the flow."""
    flow = f"the flow of --query {config.query!r} --exclude {config.exclude!r} in {config.corpus}"
    if n < 2:
        raise DataError(f"{flow} spans {n} day(s), too short for correlation")
    if config.scales:
        scales = parse_grid(config.scales, "scale", range(2, n + 1))
    else:
        scales = list(range(7 if n >= 7 else 2, n + 1))
    if config.shifts:
        shifts = parse_grid(config.shifts, "shift", range(0, n - 1))
    else:
        shifts = list(range(0, n - min(scales) + 1))
    cells = len(scales) * len(shifts)
    if cells > MAX_GRID_CELLS:
        raise DataError(
            f"{flow} spans {n} days: the grid of {len(scales)} scales x {len(shifts)} shifts"
            f" has {cells} cells, over the limit of {MAX_GRID_CELLS}: narrow it with --scales"
            " or --shifts"
        )
    return scales, shifts


# the template and the lexicon are read before the corpus, so a fault in
# either is reported before a long load and before pipeline writes a file
def _template(config: PipelineConfig) -> LifecycleTemplate:
    return load_template(config.template) if config.template else DEFAULT_TEMPLATE


def _lexicon(config: PipelineConfig) -> frozenset[str]:
    return load_lexicon(config.lexicon) if config.lexicon else DEFAULT_EVENT_LEXICON


def _flow(config: PipelineConfig) -> tuple[Corpus, TermTable, FlowQuery | None]:
    """Parse the query and read the stopwords, then load and tokenize the
    corpus, and keep the documents the query matches."""
    query = parse_query(config.query, config.exclude)
    stopwords = frozenset(read_terms(config.stopwords)) if config.stopwords else frozenset()
    corpus = load_corpus(config.corpus)
    tokenized = tokenize_corpus(corpus, stopwords)
    flow = filter_by_query(corpus, query, tokenized) if query is not None else corpus
    if len(flow) == 0:
        flags = f"--query {config.query!r}"
        if config.exclude:
            flags += f" --exclude {config.exclude!r}"
        raise DataError(f"empty flow: {flags} matched no document of {config.corpus}")
    return flow, tokenized, query


def _flow_grid(config: PipelineConfig, flow: Corpus) -> tuple[list[int], list[int]]:
    """The grid of the flow's daily series, sized from its day span, so a
    grid over the limit is refused before any series is built."""
    days = flow.days
    return resolve_grids(config, int(days[-1] - days[0]) + 1)


def dynamics_series(series: DailySeries, out: Path) -> None:
    """Write the raw and smoothed daily counts of the series."""
    smoothed = smooth(series)
    log.info("series: %d docs over %d days", int(series.values.sum()), len(series.values))
    write_series_csv(series, out / SERIES_RAW)
    write_series_csv(smoothed, out / SERIES_SMOOTHED)


def dynamics_correlogram(
    series: DailySeries, template: LifecycleTemplate, grid: tuple[list[int], list[int]],
    config: PipelineConfig,
) -> list[Peak]:
    """Write the template correlation over the (scales, shifts) grid and
    its peaks at or above the threshold; return the peaks.  A template
    whose samples overflow is refused under its file's name."""
    scales, shifts = grid
    try:
        corr = correlogram(series, template, scales=scales, shifts=shifts)
    except DataError as exc:
        raise DataError(f"{config.template}: {exc}") from None
    peaks = detect_peaks(corr, config.threshold)
    if not corr.admissible.any():
        log.warning(
            "correlogram: no (shift, scale) window of the grid fits the %d-day series",
            len(series.values),
        )
    elif not (corr.admissible & ~corr.undefined).any():
        log.warning(
            "correlogram: no defined cells: every window, or the template at its scale, is flat"
        )
    elif not peaks:
        log.warning("correlogram: no peak at or above threshold %g", config.threshold)
    else:
        best = peaks[0]
        log.info(
            "correlogram: best peak l=%d k=%d c=%.4f (%s..%s)",
            best.shift, best.scale, best.value, best.window_start, best.window_end,
        )
    write_correlogram_csv(corr, Path(config.out_dir, CORRELOGRAM_CSV))
    write_peaks_csv(peaks, Path(config.out_dir, PEAKS_CSV))
    return peaks


def cmd_series(config: PipelineConfig) -> int:
    """Write raw and smoothed daily dynamics of the filtered flow."""
    flow, _, _ = _flow(config)
    dynamics_series(build_daily_series(flow), Path(config.out_dir))
    return 0


def cmd_correlogram(config: PipelineConfig) -> int:
    """Write template correlation over the grid, plus the peak report."""
    template = _template(config)
    flow, _, _ = _flow(config)
    grid = _flow_grid(config, flow)
    dynamics_correlogram(build_daily_series(flow), template, grid, config)
    return 0


def find_events(
    corpus: Corpus, tokenized: TermTable, query: FlowQuery | None, lexicon: frozenset[str],
    out: Path,
) -> tuple[list[str], Corpus, TermTable]:
    """Rank terms, match the event lexicon, keep the documents carrying
    an event term, project them onto sources, and write all of it.
    Returns the matched terms, the event corpus and the stage corpus's
    tokenized rows, which hold the event corpus's."""
    table = tokenized.select(corpus)
    ranked = compute_tfidf(table)
    matched = match_event_terms(ranked, lexicon, table)
    if matched:
        event_corpus = filter_by_query(corpus, augment_query(None, matched), table)
    else:
        log.warning("events: no lexicon term among the top %d ranked terms", DEFAULT_TOP_M)
        event_corpus = Corpus(corpus.table, corpus.rows[:0])
    graph = source_link_graph(event_corpus) if len(event_corpus) else SourceGraph({}, {})
    augmented = augment_query(query, matched)
    log.info(
        "events: %d matched terms, %d event docs, %d source links",
        len(matched), len(event_corpus), len(graph.edges),
    )
    write_term_report(ranked, out / TERMS_TSV)
    (out / EVENT_TERMS_TXT).write_text("".join(t + "\n" for t in matched), encoding="utf-8")
    (out / AUGMENTED_QUERY_JSON).write_text(json.dumps({
        "required_groups": [sorted(g) for g in augmented.required_groups] if augmented else [],
        "excluded_terms": sorted(augmented.excluded_terms) if augmented else [],
        "event_terms": matched,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    save_corpus(event_corpus, out / EVENT_CORPUS)
    write_source_graph(graph, out / SOURCE_EDGES_TSV, out / SOURCE_NODES_TSV)
    return matched, event_corpus, table


def cmd_events(config: PipelineConfig) -> int:
    """Rank terms, match the event lexicon, narrow to event documents,
    and project the event flow onto sources."""
    lexicon = _lexicon(config)
    flow, tokenized, query = _flow(config)
    find_events(flow, tokenized, query, lexicon, Path(config.out_dir))
    return 0


def cluster_events(
    corpus: Corpus, tokenized: TermTable, terms: list[str], out: Path
) -> tuple[list[str], Clustering]:
    """Seeded k-means over the corpus, one cluster per seed term; idf
    comes from this corpus alone.  Writes the cluster report and returns
    the ids of the documents left without a vector (every term in every
    document) and the clustering."""
    table = tokenized.select(corpus)
    df = document_frequencies(table)
    vectors = vectorize(table, df)
    omitted: list[str] = []
    if len(vectors) < len(table):
        vectorized = set(vectors.doc_ids)
        omitted = [doc_id for doc_id in table.doc_ids if doc_id not in vectorized]
        log.warning("cluster: omitted %d zero-weight docs: %s", len(omitted), omitted[:5])
    seeds = seed_centroids(terms)
    clustering = kmeans_seeded(vectors, seeds)
    log.info(
        "cluster: k=%d, %d docs, %d iterations, Q=%.4f",
        len(seeds), len(vectors), clustering.iterations, clustering.q_history[-1],
    )
    write_cluster_report(clustering, out / CLUSTERS_JSON, omitted)
    return omitted, clustering


def cmd_cluster(config: PipelineConfig) -> int:
    """Seeded k-means over the filtered flow; one cluster per event term."""
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
    flow, tokenized, _ = _flow(config)
    cluster_events(flow, tokenized, seed_terms, Path(config.out_dir))
    return 0


def _file_digest(path: Path) -> str:
    """SHA-256 of a file, read in 1 MiB blocks so no artifact is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, notes: list[str], skipped: set[str]) -> None:
    """The run's notes, then the digest of each artifact but the skipped
    ones, which the run did not write even where a file of that name is
    its input."""
    lines = [f"# {note}" for note in notes]
    for name in sorted(set(PIPELINE_ARTIFACTS) - skipped):
        lines.append(f"{name}\t{_file_digest(out_dir / name)}")
    (out_dir / MANIFEST_TXT).write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextmanager
def _stage(name: str):
    """Prefix the stage name to a ConfigError or DataError a pipeline stage
    raises; any other exception passes through, to exit 3."""
    try:
        yield
    except (ConfigError, DataError) as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def cmd_pipeline(config: PipelineConfig) -> int:
    """All stages in order on one load and one tokenization of the corpus,
    then a digest manifest.  A failed stage aborts with its name and no
    manifest; the files the stages before it wrote stay in place."""
    out = Path(config.out_dir)
    notes: list[str] = []
    skipped: set[str] = set()

    with _stage("flow"):
        template, lexicon = _template(config), _lexicon(config)
        flow, tokenized, query = _flow(config)
    save_corpus(flow, out / FLOW_CORPUS)

    with _stage("dynamics"):
        grid = _flow_grid(config, flow)
        series = build_daily_series(flow)
        peaks = dynamics_correlogram(series, template, grid, config)
        dynamics_series(series, out)

    with _stage("narrowing"):
        if not peaks:
            notes.append("narrowing: none (no peak at or above threshold)")
            skipped.add(NARROWED_CORPUS)
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
        matched, event_corpus, table = find_events(stage_corpus, tokenized, query, lexicon, out)
        del tokenized  # free the full table: clustering reads the stage table
        flow.table.release_lines()  # the last corpus file is written

    with _stage("clustering"):
        if matched:
            cluster_events(event_corpus, table, matched, out)
        else:
            notes.append("clustering: skipped (no event terms matched)")
            skipped.add(CLUSTERS_JSON)
    _write_manifest(out, notes, skipped)
    log.info("pipeline: done, manifest at %s", out / MANIFEST_TXT)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opflow",
        description="Detect the event basis of information operations in news flows.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (description, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=description)
        # looked up when the parser is built, not at import, so a rebound cmd_<name> is called
        sub.set_defaults(handler=globals()[f"cmd_{name}"])
        for option in fields(PipelineConfig):
            if option.name == "terms" and name != "cluster":
                continue
            help_text = option.metadata["help"]
            if option.default not in (None, ""):
                help_text += f" (default {option.default})"
            sub.add_argument(
                "--" + option.name.replace("_", "-"), dest=option.name,
                type=_CONFIG_TYPES[option.name], help=help_text,
                required=option.name in ("corpus", "out_dir"),
            )
    return parser


def run_command(args: argparse.Namespace) -> int:
    """Read the options, make the output directory, remove the files the
    subcommand writes there but does not read, then call its handler."""
    config = validate_config(build_config(args))
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    inputs = {value.resolve() for value in vars(config).values() if isinstance(value, Path)}
    for name in COMMANDS[args.command][1]:
        if (out / name).resolve() not in inputs:
            (out / name).unlink(missing_ok=True)
    return args.handler(config)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    try:
        return run_command(parser.parse_args(argv))
    except ConfigError as exc:
        log.error("%s", exc)
        return 1
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except Exception:
        log.exception("internal error")
        return 3


if __name__ == "__main__":
    sys.exit(main())
