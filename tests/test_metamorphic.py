"""Metamorphic relations of the whole pipeline on the bundled fixture.

Each test runs ``opflow pipeline`` twice in process, once on the fixture
corpus and once on a corpus changed in a known way, and checks that
every artifact changes exactly as the relation says (Chen et al.,
"Metamorphic testing: a new approach for generating next test cases",
1998): no oracle says what the artifacts should be, but the two runs
must agree.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from datetime import date, datetime, timedelta, timezone

import pytest

from opflow.cli import (
    CLUSTERS_JSON,
    CORRELOGRAM_CSV,
    EVENT_CORPUS,
    EVENT_TERMS_TXT,
    FLOW_CORPUS,
    MANIFEST_TXT,
    NARROWED_CORPUS,
    PEAKS_CSV,
    PIPELINE_ARTIFACTS,
    SERIES_RAW,
    SERIES_SMOOTHED,
    TERMS_TSV,
    main,
)

SELECTIVE = ["--query", "protest", "--exclude", "common29"]
# the artifacts that hold dates: the series' days, the peaks' windows
# and the corpora's timestamps
DATED = {SERIES_RAW, SERIES_SMOOTHED, PEAKS_CSV, FLOW_CORPUS, NARROWED_CORPUS, EVENT_CORPUS}
DATE = re.compile(rb"(\d{4})-(\d{2})-(\d{2})")


@pytest.fixture()
def fixture_lines(fixtures_dir):
    return (fixtures_dir / "corpus.jsonl").read_bytes().splitlines(keepends=True)


@pytest.fixture()
def run(fixtures_dir, tmp_path):
    """Run the pipeline on corpus lines, with the bundled stopwords,
    threshold 0.6 and the given flags; the bytes of every file the run
    wrote, by name."""
    runs = itertools.count()

    def pipeline(lines, flags=()):
        work = tmp_path / str(next(runs))
        work.mkdir()
        (work / "corpus.jsonl").write_bytes(b"".join(lines))
        out = work / "out"
        assert main(["pipeline", "--corpus", str(work / "corpus.jsonl"), "--out-dir", str(out),
                     "--stopwords", str(fixtures_dir / "stopwords.txt"), "--threshold", "0.6",
                     *flags]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    return pipeline


def test_documents_the_query_does_not_match_change_no_artifact(run, fixture_lines):
    rng = random.Random(11)
    start = datetime(2016, 6, 1, tzinfo=timezone.utc)
    unmatched = []
    for i in range(60):
        # no "protest", or "protest" with the excluded "common29"
        body = ["referendum", "common05"] if i % 2 else ["protest", "common29", "common05"]
        when = start + timedelta(minutes=rng.randrange(61 * 1440))
        unmatched.append(json.dumps({
            "id": f"u{i:03d}", "published_at": when.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "source": rng.choice(["agency-alpha", "outlet-epsilon"]), "title": "news",
            "body": " ".join(body),
        }).encode() + b"\n")
    base = run(fixture_lines, SELECTIVE)
    assert run(unmatched + fixture_lines, SELECTIVE) == base
    assert run(fixture_lines + unmatched, SELECTIVE) == base


def test_a_shuffle_of_the_lines_changes_no_artifact(run, fixture_lines):
    shuffled = list(fixture_lines)
    random.Random(5).shuffle(shuffled)
    assert shuffled != fixture_lines
    assert run(shuffled) == run(fixture_lines)


def shift_dates(data: bytes, days: int) -> bytes:
    """Every YYYY-MM-DD in the bytes moved by the given days."""
    def moved(match):
        when = date(*map(int, match.groups())) + timedelta(days=days)
        return when.isoformat().encode()

    return DATE.sub(moved, data)


@pytest.mark.parametrize("days", [45, 200], ids=["across-months", "across-a-year"])
def test_a_date_shift_moves_every_date_by_the_shift_and_nothing_else(run, fixture_lines, days):
    base = run(fixture_lines)
    shifted = run([shift_dates(line, days) for line in fixture_lines])
    # 2016-06-01..2016-07-31 becomes 2016-12-18..2017-02-16 at 200 days
    assert shifted[SERIES_RAW].splitlines()[1].startswith(
        (date(2016, 6, 1) + timedelta(days=days)).isoformat().encode())
    assert shifted.keys() == base.keys()
    for name in PIPELINE_ARTIFACTS:
        assert (DATE.search(base[name]) is not None) == (name in DATED), name
        assert shifted[name] == shift_dates(base[name], days), name
    # the notes' dates move too, and each digest is that of its file
    manifest = []
    for line in shift_dates(base[MANIFEST_TXT], days).decode().splitlines():
        name, tab, _ = line.partition("\t")
        manifest.append(f"{name}\t{hashlib.sha256(shifted[name]).hexdigest()}" if tab else line)
    assert shifted[MANIFEST_TXT].decode().splitlines() == manifest


def read_terms_tsv(data: bytes):
    return [line.split("\t") for line in data.decode().splitlines()[1:]]


def test_duplicated_documents_double_the_counts_and_keep_the_events(run, fixture_lines):
    copies = []
    for line in fixture_lines:
        record = json.loads(line)
        record["id"] += "-copy"
        copies.append(json.dumps(record, ensure_ascii=False).encode() + b"\n")
    base = run(fixture_lines)
    doubled = run(fixture_lines + copies)
    for name in (CORRELOGRAM_CSV, PEAKS_CSV, EVENT_TERMS_TXT):
        assert doubled[name] == base[name], name
    # the same ranking, with df, tf_total and the weight each exactly doubled
    base_terms = read_terms_tsv(base[TERMS_TSV])
    doubled_terms = read_terms_tsv(doubled[TERMS_TSV])
    assert [row[:2] for row in doubled_terms] == [row[:2] for row in base_terms]
    for (_, term, df, tf, weight), (_, _, df2, tf2, weight2) in zip(base_terms, doubled_terms):
        assert (int(df2), int(tf2)) == (2 * int(df), 2 * int(tf)), term
        assert float(weight2) == 2 * float(weight), term
    # each cluster: its members and their copies, at the members' similarities
    base_report, doubled_report = (json.loads(files[CLUSTERS_JSON]) for files in (base, doubled))
    for key in ("unassigned_doc_ids", "omitted_doc_ids"):
        assert doubled_report[key] == sorted(
            base_report[key] + [d + "-copy" for d in base_report[key]]), key
    assert len(doubled_report["clusters"]) == len(base_report["clusters"])
    for cluster, cluster2 in zip(base_report["clusters"], doubled_report["clusters"]):
        assert cluster2["seed_terms"] == cluster["seed_terms"]
        sims = {m["doc_id"]: m["sim"] for m in cluster["members"]}
        sims2 = {m["doc_id"]: m["sim"] for m in cluster2["members"]}
        assert sorted(sims2) == sorted([*sims, *(d + "-copy" for d in sims)])
        for doc_id, sim in sims.items():
            assert abs(sims2[doc_id] - sim) <= 1e-12, doc_id
            assert abs(sims2[doc_id + "-copy"] - sim) <= 1e-12, doc_id
