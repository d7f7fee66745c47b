"""Horizontal visibility graph of the event flow, projected onto sources.

Two days of the daily series see each other when every day strictly
between them sits strictly below both; ties block the line of sight.
Each visibility edge is then attributed to the dominant source (most
documents, ties to the lexicographically smallest name) of its two
days, producing a weighted graph over sources.  Days without documents
have no dominant source and contribute no source edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .flowseries import DailySeries, build_daily_series


@dataclass
class VisibilityGraph:
    """Undirected graph over day indices of a series."""

    edges: set[tuple[int, int]]  # (i, j) with i < j


@dataclass
class SourceGraph:
    """Undirected weighted graph over source names."""

    nodes: dict[str, int]  # source -> document count
    edges: dict[tuple[str, str], int] = field(default_factory=dict)


def horizontal_visibility_graph(series: DailySeries) -> VisibilityGraph:
    """Stack scan: maintain a strictly decreasing stack of open indices.

    Arriving at j, every stacked index strictly below x[j] is fully
    shadowed from anything to the right of j, so it links to j and pops.
    The surviving top (if any) still sees j; it pops too when its value
    only ties x[j], since the tie blocks its view past j.
    """
    values = series.values.tolist()
    edges: set[tuple[int, int]] = set()
    stack: list[int] = []
    for j in range(len(values)):
        while stack and values[stack[-1]] < values[j]:
            edges.add((stack.pop(), j))
        if stack:
            edges.add((stack[-1], j))
            if values[stack[-1]] == values[j]:
                stack.pop()
        stack.append(j)
    return VisibilityGraph(edges=edges)


def _dominant_sources(corpus: Corpus, n: int) -> list[str | None]:
    """Dominant source of each day of the corpus's n-day span."""
    names = corpus.table.sources
    days = corpus.days
    # only the (day, source) cells that occur are counted
    cells, counts = np.unique(
        (days - days[0]) * len(names) + corpus.table.source_ids[corpus.rows],
        return_counts=True,
    )
    day, source = np.divmod(cells, len(names))
    # most documents first, then the smallest source id, which ranks
    # the names: each day's first cell in this order is its winner
    order = np.lexsort((source, -counts, day))
    day, source = day[order], source[order]
    first = np.flatnonzero(np.diff(day, prepend=-1))
    dominant: list[str | None] = [None] * n
    for i, s in zip(day[first].tolist(), source[first].tolist()):
        dominant[i] = names[s]
    return dominant


def source_link_graph(corpus: Corpus) -> SourceGraph:
    """Project the flow's visibility edges onto per-day dominant sources."""
    series = build_daily_series(corpus)
    vg = horizontal_visibility_graph(series)
    dominant = _dominant_sources(corpus, len(series.values))
    names = corpus.table.sources
    used, counts = np.unique(corpus.table.source_ids[corpus.rows], return_counts=True)
    nodes = {names[s]: count for s, count in zip(used.tolist(), counts.tolist())}
    edges: dict[tuple[str, str], int] = {}
    for i, j in vg.edges:
        a, b = dominant[i], dominant[j]
        if a is None or b is None or a == b:
            continue
        if a > b:
            a, b = b, a
        edges[(a, b)] = edges.get((a, b), 0) + 1
    return SourceGraph(nodes=nodes, edges=edges)


def write_source_graph(graph: SourceGraph, edges_path: str | Path, nodes_path: str | Path) -> None:
    """Tab-separated edge and node lists, sorted for stable output."""
    with open(edges_path, "w", encoding="utf-8") as handle:
        handle.write("source_a\tsource_b\tweight\n")
        for (a, b), w in sorted(graph.edges.items()):
            handle.write(f"{a}\t{b}\t{w}\n")
    with open(nodes_path, "w", encoding="utf-8") as handle:
        handle.write("source\tdoc_count\n")
        for source, count in sorted(graph.nodes.items()):
            handle.write(f"{source}\t{count}\n")
