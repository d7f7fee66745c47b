"""Spans around calls into opflow's modules, and the per-layer metrics
built from them.

A span is recorded by replacing a module attribute with a wrapper, under
the name its caller looks up, so ``opflow.cli.load_corpus`` is wrapped
for the calls ``cmd_pipeline`` makes.  Spans stay in memory until the
run ends.  Times are integer nanoseconds, so the self times of a span
and of every span under it add up to its duration exactly.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    op: int  # spans of one operation share this id
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans around wrapped functions; ``restore`` unwraps them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self._open[-1] if self._open else None, self.op, 0)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start_ns = time.perf_counter_ns()
        return span

    def _end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._open.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        span = self._begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def wrap(self, module, attr: str, layer: str, count=None, before=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper.

        ``count(arguments, result, pre)`` returns the span's counts, where
        ``arguments`` maps parameter names to values and ``pre`` is what
        ``before()`` returned just before the call.  Both run outside the
        span's own interval.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)
        name = f"{layer}.{attr}"

        def traced(*args, **kwargs):
            pre = before() if before is not None else None
            span = self._begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(span)
            if count is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                span.counts.update(count(arguments, result, pre))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration_ns
        return own

    def subtree_self_mismatches(self) -> list[str]:
        """Root spans whose subtree self times do not sum to their duration."""
        own = self.self_ns()
        root_of = []
        sums: dict[int, int] = {}
        for i, s in enumerate(self.spans):
            root = i if s.parent is None else root_of[s.parent]
            root_of.append(root)
            sums[root] = sums.get(root, 0) + own[i]
        return [
            f"{self.spans[r].name} (op {self.spans[r].op}): self sum {total} ns"
            f" != duration {self.spans[r].duration_ns} ns"
            for r, total in sums.items()
            if total != self.spans[r].duration_ns
        ]

    def records(self) -> list[dict]:
        own = self.self_ns()
        return [
            {
                "id": i,
                "op": s.op,
                "name": s.name,
                "layer": s.layer,
                "parent": s.parent,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": own[i],
                "counts": s.counts,
            }
            for i, s in enumerate(self.spans)
        ]


def _out(key: str):
    return lambda arguments, result, pre: {key: len(result)}


def _filtered(arguments, result, pre):
    return {"docs_in": len(arguments["corpus"]), "docs_out": len(result)}


def _cells(arguments, result, pre):
    undefined = sum(1 for v in result.cells.values() if v is None)
    return {"cells": len(result.cells), "undefined_cells": undefined}


def _edges(arguments, result, pre):
    return {"edges": len(result.edges)}


def _vectorized(arguments, result, pre):
    docs = len(arguments["tokenized"])
    return {"vectors": len(result), "omitted_docs": docs - len(result)}


def instrument_pipeline(tracer: Tracer, tokenized_ids: set) -> None:
    """Wrap every module function ``opflow.cli`` calls, under its
    ``opflow.cli`` name, plus the visibility graph ``source_link_graph``
    builds.  Doc ids passed through tokenization go into ``tokenized_ids``."""
    import opflow.cli as cli
    import opflow.eventcluster as eventcluster
    import opflow.sourcegraph as sourcegraph

    sims = eventcluster.SIM_EVALUATIONS

    def tokenized(arguments, result, pre):
        tokenized_ids.update(result)
        return {"docs": len(result)}

    def kmeans(arguments, result, pre):
        k, n = len(arguments["seeds"]), len(arguments["vectors"])
        return {
            "iterations": result.iterations,
            "sim_evals": sims.count - pre,
            "pass_sims": result.iterations * k * n,
        }

    for attr in ("cmd_pipeline", "cmd_series", "cmd_correlogram", "cmd_events", "cmd_cluster"):
        tracer.wrap(cli, attr, "cli")
    table = [
        ("corpus", "load_corpus", _out("docs"), None),
        ("corpus", "tokenize_corpus", tokenized, None),
        ("corpus", "filter_by_query", _filtered, None),
        ("corpus", "filter_by_dates", _filtered, None),
        ("corpus", "save_corpus", lambda a, r, p: {"docs": len(a["corpus"])}, None),
        ("flowseries", "build_daily_series", None, None),
        ("flowseries", "smooth", None, None),
        ("flowseries", "correlogram", _cells, None),
        ("flowseries", "detect_peaks", None, None),
        ("flowseries", "write_series_csv", None, None),
        ("flowseries", "write_correlogram_csv", None, None),
        ("flowseries", "write_peaks_csv", None, None),
        ("termbase", "compute_tfidf", lambda a, r, p: {"docs": len(a["tokenized"]), "terms": len(r)}, None),
        ("termbase", "document_frequencies", None, None),
        ("termbase", "match_event_terms", _out("event_terms"), None),
        ("termbase", "write_term_report", None, None),
        ("sourcegraph", "source_link_graph", _edges, None),
        ("sourcegraph", "write_source_graph", None, None),
        ("eventcluster", "vectorize", _vectorized, None),
        ("eventcluster", "seed_centroids", None, None),
        ("eventcluster", "kmeans_seeded", kmeans, lambda: sims.count),
        ("eventcluster", "write_cluster_report", None, None),
    ]
    for layer, attr, count, before in table:
        tracer.wrap(cli, attr, layer, count, before)
    tracer.wrap(sourcegraph, "horizontal_visibility_graph", "sourcegraph", _edges)


def instrument_scan(tracer: Tracer) -> None:
    """Wrap the two calls one burst-grid scan makes."""
    import opflow.flowseries as flowseries

    tracer.wrap(flowseries, "correlogram", "flowseries", _cells)
    tracer.wrap(flowseries, "detect_peaks", "flowseries")


def layer_metrics(tracer: Tracer, tokenized_ids: set, artifact_bytes: int) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    own = tracer.self_ns()
    spans = tracer.spans

    def secs(*names: str) -> float:
        return sum(s.duration_ns for s in spans if s.name in names) / 1e9

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["cli.self_s"] = sum(own[i] for i, s in enumerate(spans) if s.layer == "cli") / 1e9
    for cmd in ("series", "correlogram", "events", "cluster"):
        m[f"cli.cmd_{cmd}_s"] = secs(f"cli.cmd_{cmd}")
    m["cli.artifact_bytes"] = artifact_bytes

    docs_tokenized = count("corpus.tokenize_corpus", "docs")
    filters = ("corpus.filter_by_query", "corpus.filter_by_dates")
    m["corpus.load_calls"] = calls("corpus.load_corpus")
    m["corpus.load_s"] = secs("corpus.load_corpus")
    m["corpus.docs_loaded"] = count("corpus.load_corpus", "docs")
    m["corpus.tokenize_calls"] = calls("corpus.tokenize_corpus")
    m["corpus.tokenize_s"] = secs("corpus.tokenize_corpus")
    m["corpus.docs_tokenized"] = docs_tokenized
    m["corpus.tokenize_useful_ratio"] = ratio(len(tokenized_ids), docs_tokenized)
    m["corpus.filter_s"] = secs(*filters)
    m["corpus.filter_docs_in"] = sum(count(f, "docs_in") for f in filters)
    m["corpus.filter_docs_out"] = sum(count(f, "docs_out") for f in filters)
    m["corpus.save_s"] = secs("corpus.save_corpus")

    correlogram_s = secs("flowseries.correlogram")
    cells = count("flowseries.correlogram", "cells")
    m["flowseries.build_series_s"] = secs("flowseries.build_daily_series")
    m["flowseries.smooth_s"] = secs("flowseries.smooth")
    m["flowseries.correlogram_s"] = correlogram_s
    m["flowseries.cells"] = cells
    m["flowseries.undefined_cells"] = count("flowseries.correlogram", "undefined_cells")
    m["flowseries.cells_per_s"] = ratio(cells, correlogram_s)
    m["flowseries.detect_peaks_s"] = secs("flowseries.detect_peaks")
    m["flowseries.write_csv_s"] = secs(
        "flowseries.write_series_csv", "flowseries.write_correlogram_csv",
        "flowseries.write_peaks_csv",
    )

    m["termbase.tfidf_s"] = secs("termbase.compute_tfidf")
    m["termbase.tfidf_docs"] = count("termbase.compute_tfidf", "docs")
    m["termbase.terms_ranked"] = count("termbase.compute_tfidf", "terms")
    m["termbase.df_s"] = secs("termbase.document_frequencies")
    m["termbase.match_s"] = secs("termbase.match_event_terms")
    m["termbase.event_terms"] = count("termbase.match_event_terms", "event_terms")
    m["termbase.write_terms_s"] = secs("termbase.write_term_report")

    m["sourcegraph.link_graph_s"] = secs("sourcegraph.source_link_graph")
    m["sourcegraph.hvg_edges"] = count("sourcegraph.horizontal_visibility_graph", "edges")
    m["sourcegraph.source_edges"] = count("sourcegraph.source_link_graph", "edges")

    kmeans_s = secs("eventcluster.kmeans_seeded")
    sim_evals = count("eventcluster.kmeans_seeded", "sim_evals")
    m["eventcluster.vectorize_s"] = secs("eventcluster.vectorize")
    m["eventcluster.vectors"] = count("eventcluster.vectorize", "vectors")
    m["eventcluster.omitted_docs"] = count("eventcluster.vectorize", "omitted_docs")
    m["eventcluster.kmeans_s"] = kmeans_s
    m["eventcluster.iterations"] = count("eventcluster.kmeans_seeded", "iterations")
    m["eventcluster.sim_evals"] = sim_evals
    m["eventcluster.sims_per_s"] = ratio(sim_evals, kmeans_s)
    m["eventcluster.pass_cost_ratio"] = ratio(
        sim_evals, count("eventcluster.kmeans_seeded", "pass_sims")
    )
    m["eventcluster.write_report_s"] = secs("eventcluster.write_cluster_report")
    return m
