"""Visibility graph of the flow and its projection onto sources."""

from __future__ import annotations

import itertools
import random
from datetime import date, datetime, timedelta, timezone

import pytest

from opflow.corpus import Corpus, Document, filter_by_dates
from opflow.flowseries import DailySeries
from opflow.sourcegraph import (
    SourceGraph,
    horizontal_visibility_graph,
    source_link_graph,
    write_source_graph,
)
from oracles import hvg_edges, source_graph

START = date(2016, 6, 1)


def series(values):
    return DailySeries(start_date=START, values=[float(v) for v in values])


def mkcorpus(day_sources):
    """Build a corpus from a per-day list of source names.

    ``day_sources[k]`` holds the sources publishing on day k; an empty
    list leaves that day without documents (interior gaps only, since
    the series span is defined by the first and last document).
    """
    docs = []
    k = 0
    for offset, sources in enumerate(day_sources):
        when = datetime(2016, 6, 1, 8, 0, tzinfo=timezone.utc) + timedelta(days=offset)
        for s in sources:
            docs.append(
                Document(
                    id=f"d{k:03d}",
                    published_at=when + timedelta(minutes=k),
                    source=s,
                    title="tt",
                    body="bb",
                )
            )
            k += 1
    return Corpus.from_documents(docs)


# --- horizontal visibility -------------------------------------------------


def test_hvg_monotone_series_is_a_path():
    vg = horizontal_visibility_graph(series([1, 2, 3, 4]))
    assert vg.edges == {(0, 1), (1, 2), (2, 3)}


def test_hvg_valley_closes_a_triangle():
    # the middle day sits below both ends, so the ends see each other
    vg = horizontal_visibility_graph(series([3, 1, 2]))
    assert vg.edges == {(0, 1), (0, 2), (1, 2)}


def test_hvg_tie_blocks_the_view():
    # equal-valued days see each other but nothing past the twin
    vg = horizontal_visibility_graph(series([2, 2, 2]))
    assert vg.edges == {(0, 1), (1, 2)}


def test_hvg_single_point_has_no_edges():
    vg = horizontal_visibility_graph(series([5]))
    assert vg.edges == set()


def test_hvg_two_points_always_linked():
    assert horizontal_visibility_graph(series([0, 9])).edges == {(0, 1)}


def test_hvg_matches_oracle_exhaustively_to_length_six():
    for n in range(1, 7):
        for values in itertools.product((1, 2, 3), repeat=n):
            got = horizontal_visibility_graph(series(values)).edges
            assert got == hvg_edges(values), values


def test_hvg_matches_oracle_on_random_series_with_ties():
    rng = random.Random(20160624)
    for _ in range(500):
        values = [rng.randint(1, 4) for _ in range(12)]
        got = horizontal_visibility_graph(series(values)).edges
        assert got == hvg_edges(values), values


def test_hvg_edge_count_bounds_for_distinct_values():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 30)
        values = rng.sample(range(1000), n)
        edges = horizontal_visibility_graph(series(values)).edges
        assert n - 1 <= len(edges) <= max(2 * n - 3, 1)


def test_hvg_invariant_under_monotone_rescaling():
    rng = random.Random(99)
    values = [rng.randint(0, 6) for _ in range(40)]
    base = horizontal_visibility_graph(series(values)).edges
    rescaled = horizontal_visibility_graph(series([10 * v + 3 for v in values])).edges
    assert base == rescaled


# --- source projection -----------------------------------------------------


def test_source_link_graph_hand_example():
    # day counts [3, 1, 2] form a triangle; dominant sources A, B, A,
    # so the A-A edge across the valley is dropped as a self-pair
    corpus = mkcorpus([["A", "A", "B"], ["B"], ["A", "A"]])
    graph = source_link_graph(corpus)
    assert graph.edges == {("A", "B"): 2}
    assert graph.nodes == {"A": 4, "B": 2}


def test_source_link_graph_day_tie_prefers_smaller_name():
    # one doc each on the first day: "bb" loses dominance to "aa"
    corpus = mkcorpus([["bb", "aa"], ["cc"]])
    graph = source_link_graph(corpus)
    assert graph.edges == {("aa", "cc"): 1}


def test_source_link_graph_skips_empty_days():
    # edges into the zero-document middle day cannot be attributed
    corpus = mkcorpus([["A", "A"], [], ["B"]])
    graph = source_link_graph(corpus)
    assert graph.edges == {("A", "B"): 1}


def test_source_link_graph_ignores_document_order():
    days = [["B", "A", "A"], ["C"], ["A"], ["B", "B"]]
    corpus = mkcorpus(days)
    shuffled = Corpus.from_documents(list(corpus)[::-1])
    a = source_link_graph(corpus)
    b = source_link_graph(shuffled)
    assert a.edges == b.edges
    assert a.nodes == b.nodes


def test_source_link_graph_nodes_cover_all_sources():
    corpus = mkcorpus([["A"], ["B"], ["C"], ["A"]])
    graph = source_link_graph(corpus)
    assert set(graph.nodes) == {"A", "B", "C"}
    assert sum(graph.nodes.values()) == len(corpus)


def test_source_link_graph_matches_oracle_with_many_sparse_sources():
    # 400 sources over two years, most days empty or with a few
    # documents: only the (day, source) cells that occur are counted
    rng = random.Random(20160601)
    names = [f"s{i:03d}" for i in range(400)]
    day_sources = [
        [rng.choice(names[:5] if rng.random() < 0.5 else names) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2 else []
        for _ in range(730)
    ]
    day_sources[0] = day_sources[0] or ["s000"]
    day_sources[-1] = day_sources[-1] or ["s399"]
    graph = source_link_graph(mkcorpus(day_sources))
    assert (graph.nodes, graph.edges) == source_graph(day_sources)


def test_source_link_graph_of_a_subset_ignores_unused_sources():
    corpus = mkcorpus([["zz"], ["A", "B", "B"], ["A"], ["zz", "A"], ["zz"]])
    flow = filter_by_dates(corpus, START + timedelta(days=1), START + timedelta(days=3))
    graph = source_link_graph(flow)
    assert (graph.nodes, graph.edges) == source_graph([["A", "B", "B"], ["A"], ["zz", "A"]])


# --- writer ----------------------------------------------------------------


def test_write_source_graph_layout(tmp_path):
    graph = SourceGraph(nodes={"bb": 2, "aa": 3}, edges={("aa", "bb"): 5})
    edges_path = tmp_path / "edges.tsv"
    nodes_path = tmp_path / "nodes.tsv"
    write_source_graph(graph, edges_path, nodes_path)
    assert edges_path.read_text() == "source_a\tsource_b\tweight\naa\tbb\t5\n"
    assert nodes_path.read_text() == "source\tdoc_count\naa\t3\nbb\t2\n"


def test_write_source_graph_sorted_and_stable(tmp_path):
    corpus = mkcorpus([["B", "A"], ["C"], ["A"], ["B"]])
    graph = source_link_graph(corpus)
    first = tmp_path / "e1.tsv", tmp_path / "n1.tsv"
    second = tmp_path / "e2.tsv", tmp_path / "n2.tsv"
    write_source_graph(graph, *first)
    write_source_graph(graph, *second)
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()
    body = first[0].read_text().splitlines()[1:]
    assert body == sorted(body)
