"""Command line behavior: options, artifacts, exit codes."""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import re
import tempfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opflow.cli import (
    CLUSTERS_JSON,
    COMMANDS,
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
    PipelineConfig,
    cluster_events,
    main,
    parse_grid,
    parse_query,
    resolve_grids,
    validate_config,
)
from opflow.corpus import Corpus, Document, load_corpus, save_corpus, tokenize_corpus
from opflow.errors import ConfigError, DataError
from opflow.eventcluster import vectorize
from opflow.flowseries import smooth
from opflow.termbase import document_frequencies

pytestmark = pytest.mark.usefixtures("fixtures_dir")


def read_series(path):
    with open(path, newline="") as handle:
        return [(row["date"], float(row["value"])) for row in csv.DictReader(handle)]


@pytest.fixture()
def fx(fixtures_dir):
    return {
        "corpus": str(fixtures_dir / "corpus.jsonl"),
        "stopwords": str(fixtures_dir / "stopwords.txt"),
        "lexicon": str(fixtures_dir / "lexicon.txt"),
        "template": str(fixtures_dir / "template.txt"),
        "truth": fixtures_dir / "truth.tsv",
        "corpus_path": fixtures_dir / "corpus.jsonl",
    }


# --- query parsing ---------------------------------------------------------


def test_parse_query_empty_means_no_filter():
    assert parse_query("") is None
    assert parse_query("  ;  , ") is None


def test_parse_query_groups_and_terms():
    q = parse_query("protest, Referendum; riot")
    assert q.required_groups == [frozenset({"protest", "referendum"}), frozenset({"riot"})]
    assert q.excluded_terms == frozenset()


def test_parse_query_with_exclusions():
    q = parse_query("protest", "sport, Weather")
    assert q.excluded_terms == {"sport", "weather"}


def test_parse_query_exclusion_needs_base():
    with pytest.raises(ConfigError, match="base --query"):
        parse_query("", "sport")


def test_parse_query_rejects_unusable_terms():
    with pytest.raises(ConfigError, match="usable"):
        parse_query("protest; a")


# --- grid parsing ----------------------------------------------------------


def test_parse_grid_range_and_list():
    assert parse_grid("3..6", "scale", range(2, 10)) == [3, 4, 5, 6]
    assert parse_grid("9, 3, 5, 3", "scale", range(2, 10)) == [3, 5, 9]


def test_parse_grid_rejects_garbage():
    for bad in ("6..3", "abc", "", "1..b"):
        with pytest.raises(ConfigError):
            parse_grid(bad, "scale", range(2, 10))


def test_resolve_grids_defaults():
    scales, shifts = resolve_grids(PipelineConfig(), 20)
    assert scales == list(range(7, 21))
    assert shifts == list(range(0, 14))
    scales, shifts = resolve_grids(PipelineConfig(), 5)
    assert scales == list(range(2, 6))


def test_resolve_grids_short_series_is_a_data_error():
    with pytest.raises(DataError):
        resolve_grids(PipelineConfig(), 1)
    # the refusal names the inputs that make the flow
    message = r"^the flow of --query 'protest' --exclude 'sport' in c\.jsonl spans 1 day\(s\)"
    with pytest.raises(DataError, match=message):
        resolve_grids(PipelineConfig(corpus=Path("c.jsonl"), query="protest", exclude="sport"), 1)


def test_resolve_grids_bounds():
    with pytest.raises(ConfigError, match="scales"):
        resolve_grids(PipelineConfig(scales="2..25"), 20)
    with pytest.raises(ConfigError, match="shifts"):
        resolve_grids(PipelineConfig(shifts="0..19"), 20)
    # the ends are checked before the range is expanded, so a range of
    # 10**12 values fails at once, and the message names it
    with pytest.raises(ConfigError, match=r"scales '2\.\.1000000000000' outside .*\[2, 20\]"):
        resolve_grids(PipelineConfig(scales="2..1000000000000"), 20)
    with pytest.raises(ConfigError, match=r"shifts '0\.\.1000000000000' outside .*\[0, 18\]"):
        resolve_grids(PipelineConfig(shifts="0..1000000000000"), 20)
    # a grid of 4,096 x 4,096 cells is at the limit, and one shift more is
    # a data error; the default grid of ten years is below it
    assert len(resolve_grids(PipelineConfig(scales="2..4097", shifts="0..4095"), 5000)[1]) == 4096
    message = (r"^the flow of --query '' --exclude '' in None spans 5000 days: the grid of"
               r" 4096 scales x 4097 shifts has 16781312 cells, over the limit of 16777216:"
               r" narrow it with --scales or --shifts$")
    with pytest.raises(DataError, match=message):
        resolve_grids(PipelineConfig(scales="2..4097", shifts="0..4096"), 5000)
    assert len(resolve_grids(PipelineConfig(), 3653)[1]) == 3647


# --- flags -----------------------------------------------------------------


def test_stage_flags_are_config_plus_one_per_field():
    from dataclasses import fields

    from opflow.cli import build_parser

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("series", "correlogram", "events", "cluster", "pipeline"):
        actions = [a for a in commands[command]._actions if a.dest != "help"]
        flags = {a.option_strings[0]: a.dest for a in actions}
        expected = {}
        for option in fields(PipelineConfig):
            if option.name != "terms" or command == "cluster":
                expected["--" + option.name.replace("_", "-")] = option.name
        assert flags == expected, command
        for action in actions:
            default = getattr(PipelineConfig, action.dest, None)
            if default not in (None, ""):
                assert action.help.endswith(f" (default {default})"), action.dest
    assert "--terms" in commands["cluster"].format_help()
    assert "--terms" not in commands["pipeline"].format_help()


# --- exit codes ------------------------------------------------------------


def test_exit_1_when_corpus_is_missing(tmp_path, caplog):
    out = tmp_path / "out"
    with caplog.at_level("ERROR"):
        assert main(["series", "--out-dir", str(out)]) == 1
    assert caplog.messages == ["the following arguments are required: --corpus"]
    assert not out.exists()
    assert main(["series", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--out-dir", str(tmp_path)]) == 1


def test_exit_1_on_a_nan_threshold(fx, tmp_path, caplog):
    # nan would match no cell and skip narrowing; inf and -inf keep their meaning
    with caplog.at_level("ERROR"):
        rc = main(["pipeline", "--corpus", fx["corpus"], "--out-dir", str(tmp_path / "out"),
                   "--threshold", "nan"])
    assert rc == 1
    assert "--threshold must be a number, got nan" in caplog.text
    assert not (tmp_path / "out" / "manifest.txt").exists()
    for threshold in (float("inf"), float("-inf")):
        config = PipelineConfig(corpus=Path(fx["corpus"]), out_dir=tmp_path / "out",
                                threshold=threshold)
        assert validate_config(config).threshold == threshold


# each rule of the parser or of validate_config no other test checks, with
# the flags after --corpus that break it and the message it exits 1 with
_OUT = ["--out-dir", "{out}"]
BAD_OPTIONS = {
    "no out dir": ([], "the following arguments are required: --out-dir"),
    "missing stopwords": ([*_OUT, "--stopwords", "{missing}"], "stopwords file not found: {missing}"),
    "missing lexicon": ([*_OUT, "--lexicon", "{missing}"], "lexicon file not found: {missing}"),
    "missing template": ([*_OUT, "--template", "{missing}"], "template file not found: {missing}"),
    "stopwords dir": ([*_OUT, "--stopwords", "{dir}"], "stopwords file not found: {dir}"),
    # argparse up to Python 3.12 would set the threshold to [] (exit 3)
    "explicit -- value": ([*_OUT, "--threshold=--"], "argument --threshold: expected one argument"),
}


@pytest.mark.parametrize("bad_option", BAD_OPTIONS)
def test_exit_1_on_each_config_rule_before_the_out_dir_is_made(fx, tmp_path, caplog, bad_option):
    paths = {"out": tmp_path / "out", "missing": tmp_path / "missing.txt", "dir": tmp_path}
    flags, message = BAD_OPTIONS[bad_option]
    with caplog.at_level("ERROR"):
        rc = main(["pipeline", "--corpus", fx["corpus"], *(f.format(**paths) for f in flags)])
    assert rc == 1
    assert caplog.messages == [message.format(**paths)]
    assert not paths["out"].exists()


@pytest.mark.parametrize("key", ["config", "window", "top_n", "top_m", "top_t", "max_iter"])
def test_exit_1_on_a_removed_option(fx, tmp_path, caplog, key):
    # flags are the one source of every setting, and the other values are
    # fixed, each as the default of the library function that uses it
    flag = "--" + key.replace("_", "-")
    value = "5"
    if key == "config":
        value = str(tmp_path / "c.conf")
        Path(value).write_text("threshold = 0.6\n")
    with caplog.at_level("ERROR"):
        rc = main(["pipeline", "--corpus", fx["corpus"], "--out-dir", str(tmp_path / "out"),
                   flag, value])
    assert rc == 1
    assert caplog.messages == [f"unrecognized arguments: {flag} {value}"]
    assert not (tmp_path / "out" / "manifest.txt").exists()


def test_exit_1_on_usage_errors(tmp_path):
    assert main(["series", "--no-such-flag"]) == 1
    assert main([]) == 1
    assert main(["not-a-command"]) == 1
    # fixtures are built from the library's spec classes, by no subcommand
    assert main(["synth", "--burst-spec", "x", "--out-dir", str(tmp_path)]) == 1


def test_exit_1_on_terms_flag_outside_cluster(fx, tmp_path):
    # the pipeline seeds k-means from its own event terms, so it takes no --terms
    assert main(["pipeline", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
                 "--terms", str(tmp_path / "nonexistent")]) == 1


# each malformed filter, with the message it exits 1 with
BAD_FILTERS = {
    "query": (["--query", "!!!"], "--query term '!!!' contains no usable tokens"),
    "exclude without query": (["--exclude", "sport"], "--exclude terms need a base --query"),
    "exclude overlaps query": (["--query", "protest", "--exclude", "protest"],
                               "excluded terms overlap a required group: ['protest']"),
}


@pytest.mark.parametrize("bad_filter", BAD_FILTERS)
@pytest.mark.parametrize("command", ["series", "correlogram", "events", "cluster", "pipeline"])
def test_exit_1_on_a_bad_filter_before_the_corpus_is_read(
    fx, tmp_path, monkeypatch, caplog, command, bad_filter
):
    import opflow.cli as cli

    loads = []
    monkeypatch.setattr(cli, "load_corpus", lambda path: loads.append(path) or load_corpus(path))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("{not json\n")
    flags, message = BAD_FILTERS[bad_filter]
    terms = ["--terms", fx["lexicon"]] if command == "cluster" else []
    with caplog.at_level("ERROR"):
        rc = main([command, "--corpus", str(corpus), "--out-dir", str(tmp_path / "out"),
                   *terms, *flags])
    assert rc == 1
    assert message in caplog.text
    assert loads == []


@pytest.mark.parametrize("command", COMMANDS)
def test_exit_1_when_the_output_directory_cannot_be_made(fx, tmp_path, caplog, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    with caplog.at_level("ERROR"):
        rc = main([command, "--corpus", fx["corpus"], "--out-dir", str(out)])
    assert rc == 1
    assert f"cannot create output directory {out}: " in caplog.text


def test_exit_2_on_corrupt_corpus(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "d1"}\n')
    rc = main(["series", "--corpus", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("flags", [
    {"--query": "unicorn sightings"},
    # the query alone keeps 60 documents; the exclusion drops every one
    {"--query": "protest", "--exclude": ",".join(f"protesttopic{i:02d}" for i in range(20))},
], ids=["query", "exclude"])
def test_exit_2_when_query_matches_nothing(fx, tmp_path, caplog, flags):
    with caplog.at_level("ERROR"):
        rc = main(["series", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
                   *(word for flag in flags.items() for word in flag)])
    assert rc == 2
    named = " ".join(f"{flag} {value!r}" for flag, value in flags.items())
    assert caplog.messages == [f"empty flow: {named} matched no document of {fx['corpus']}"]


@pytest.mark.parametrize("command, flag", [
    ("series", "--stopwords"),
    ("events", "--lexicon"),
    ("correlogram", "--template"),
    ("cluster", "--terms"),
])
def test_exit_2_on_a_line_file_that_is_not_utf8(fx, tmp_path, caplog, command, flag):
    bad = tmp_path / "entries.txt"
    bad.write_bytes(b"protest\ncaf\xe9\n")
    with caplog.at_level("ERROR"):
        rc = main([command, "--corpus", fx["corpus"], "--out-dir", str(tmp_path / "out"),
                   flag, str(bad)])
    assert rc == 2
    assert f"{bad}: line 2: invalid UTF-8" in caplog.text


@pytest.mark.parametrize("command", ["correlogram", "pipeline"])
def test_exit_2_on_a_non_finite_template_point(fx, tmp_path, caplog, command):
    bad = tmp_path / "template.txt"
    bad.write_text("0 0.1\n0.5 nan\n1 0.3\n")
    with caplog.at_level("ERROR"):
        rc = main([command, "--corpus", fx["corpus"], "--out-dir", str(tmp_path / "out"),
                   "--template", str(bad)])
    assert rc == 2
    assert f"{bad}: line 2: non-finite control point '0.5 nan'" in caplog.text


# a template or lexicon file its reader refuses, and the message it exits 2 with
BAD_INPUT_FILES = {
    "--template": ("0 0.1\n0.5 nan\n1 0.3\n", "line 2: non-finite control point '0.5 nan'"),
    "--lexicon": ("# comments only\n", "has no usable entries"),
}


@pytest.mark.parametrize("command, flag", [("correlogram", "--template"), ("events", "--lexicon")])
def test_a_bad_template_or_lexicon_is_reported_before_the_corpus_is_read(
    tmp_path, caplog, command, flag
):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("{not json\n")
    text, message = BAD_INPUT_FILES[flag]
    bad = tmp_path / "input.txt"
    bad.write_text(text)
    with caplog.at_level("ERROR"):
        rc = main([command, "--corpus", str(corpus), "--out-dir", str(tmp_path / "out"),
                   flag, str(bad)])
    assert rc == 2
    assert message in caplog.text
    assert "invalid JSON" not in caplog.text


@pytest.mark.parametrize("flag", BAD_INPUT_FILES)
def test_a_pipeline_with_a_bad_template_or_lexicon_writes_no_file(fx, tmp_path, caplog, flag):
    text, message = BAD_INPUT_FILES[flag]
    bad = tmp_path / "input.txt"
    bad.write_text(text)
    out = tmp_path / "out"
    with caplog.at_level("ERROR"):
        rc = main(["pipeline", "--corpus", fx["corpus"], "--out-dir", str(out), flag, str(bad)])
    assert rc == 2
    assert message in caplog.text
    assert not (out / FLOW_CORPUS).exists()
    assert not any(out.iterdir())


def write_stopword_corpus(fx) -> list[str]:
    """The fixture corpus with every title and body a stopword, so no
    document keeps a token; returns the flags that read it."""
    with open("corpus.jsonl", "w", encoding="utf-8") as handle:
        for line in fx["corpus_path"].read_text(encoding="utf-8").splitlines():
            record = {**json.loads(line), "title": "the", "body": "and the"}
            handle.write(json.dumps(record) + "\n")
    Path("stopwords.txt").write_text("the\nand\n")
    return ["--corpus", "corpus.jsonl", "--stopwords", "stopwords.txt"]


# each input fault a stage meets, with the message it exits 2 with
INPUT_FAULTS = {
    "pipeline": "stage terms: tf-idf needs at least one non-empty document",
    "events": "tf-idf needs at least one non-empty document",
    "century-long flow": (
        "stage dynamics: the flow of --query '' --exclude '' in corpus.jsonl spans 36526 days:"
        " the grid of 36520 scales x 36520 shifts has 1333710400 cells,"
        " over the limit of 16777216: narrow it with --scales or --shifts"
    ),
    # each control point is finite, but the slope between the last two is not
    "template slope past the float range": (
        "stage dynamics: template.txt: template samples overflow"
    ),
    "artifact is a directory": f"Is a directory: '{Path('out', SERIES_RAW)}'",
    "stamp before year 1 in UTC": "line 1: bad published_at: date value out of range",
    "stamp is a number": "line 1: key 'published_at' must be a string",
    "record is an array": "line 1: record must be a JSON object",
    "language is a number": "line 1: language must be a string",
    # valid UTF-8 whose JSON escape decodes to a string no file can hold
    "lone surrogate escape": (
        "stage flow: corpus.jsonl: line 1: a string holds a lone surrogate,"
        " which UTF-8 cannot encode"
    ),
    "events lone surrogate escape": "corpus.jsonl: line 1: a string holds a lone surrogate",
    # an escaped tab or line break that would split a row of the source-graph TSVs
    "source holds a tab": (
        "stage flow: corpus.jsonl: line 1: source 'agency\\talpha' holds a control character"
    ),
    "source holds a line break": (
        "stage flow: corpus.jsonl: line 1: source 'line\\nbreak' holds a control character"
    ),
}


@pytest.mark.parametrize("fault", INPUT_FAULTS)
def test_exit_2_on_an_input_fault_a_stage_finds(fx, tmp_path, monkeypatch, caplog, fault):
    monkeypatch.chdir(tmp_path)
    if fault in ("pipeline", "events"):
        argv = [fault, *write_stopword_corpus(fx)]
    elif fault == "century-long flow":
        records = [{"id": day, "published_at": f"{day}T12:00:00+00:00", "source": "s",
                    "title": "protest", "body": "march"} for day in ("1990-01-01", "2090-01-01")]
        Path("corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        argv = ["pipeline", "--corpus", "corpus.jsonl"]
    elif fault == "template slope past the float range":
        Path("template.txt").write_text("0 0\n0.5 1\n1 1e308\n")
        argv = ["pipeline", "--corpus", fx["corpus"], "--template", "template.txt"]
    elif fault == "artifact is a directory":
        Path("out", SERIES_RAW).mkdir(parents=True)
        argv = ["series", "--corpus", fx["corpus"]]
    elif fault.endswith("lone surrogate escape"):
        line = ('{"id": "a", "published_at": "2016-06-01T12:00:00Z", "source": "s",'
                ' "title": "protest", "body": "march \\ud800"}\n')
        Path("corpus.jsonl").write_text(line, encoding="utf-8")
        argv = ["events" if fault.startswith("events") else "pipeline", "--corpus", "corpus.jsonl"]
    else:
        record = {"id": "a", "published_at": "2016-06-01T12:00:00Z", "source": "s",
                  "title": "protest", "body": "march"}
        line = {
            "stamp before year 1 in UTC": {**record, "published_at": "0001-01-01T00:00:00+01:00"},
            "stamp is a number": {**record, "published_at": 20160601},
            "record is an array": [record],
            "language is a number": {**record, "language": 1},
            "source holds a tab": {**record, "source": "agency\talpha"},
            "source holds a line break": {**record, "source": "line\nbreak"},
        }[fault]
        Path("corpus.jsonl").write_text(json.dumps(line) + "\n")
        argv = ["pipeline" if fault.startswith("source") else "series", "--corpus", "corpus.jsonl"]
    with caplog.at_level("ERROR"):
        assert main([*argv, "--out-dir", "out"]) == 2
    assert INPUT_FAULTS[fault] in caplog.text
    assert "Traceback" not in caplog.text
    assert not Path("out", MANIFEST_TXT).exists()
    if fault in ("century-long flow", "template slope past the float range"):
        # the grid and the template are refused before any dynamics file is written
        assert not Path("out", SERIES_RAW).exists()
        assert not Path("out", SERIES_SMOOTHED).exists()
        assert not Path("out", CORRELOGRAM_CSV).exists()
        assert not Path("out", PEAKS_CSV).exists()
    if fault.endswith("lone surrogate escape") or fault.startswith("source"):
        assert not any(Path("out").iterdir())


@pytest.mark.parametrize("command", COMMANDS)
def test_a_failed_run_leaves_none_of_the_files_its_subcommand_writes(
    fx, tmp_path, monkeypatch, caplog, command
):
    monkeypatch.chdir(tmp_path)
    fixture = ["--corpus", fx["corpus"]]
    Path("nan_template.txt").write_text("0 0.1\n0.5 nan\n1 0.3\n")
    Path("no_terms.txt").write_text("# none\n")
    # the arguments of a good run, of a run that then fails, and its exit status
    good, failing, status = {
        "series": (fixture, [*fixture, "--query", "unicorn"], 2),
        "correlogram": (fixture, [*fixture, "--template", "nan_template.txt"], 2),
        "events": (fixture, write_stopword_corpus(fx), 2),
        "cluster": ([*fixture, "--terms", fx["lexicon"]], [*fixture, "--terms", "no_terms.txt"], 1),
        "pipeline": ([*fixture, "--threshold", "0.6"], [*fixture, "--query", "unicorn"], 2),
    }[command]
    out = Path("out")
    assert main([command, *good, "--out-dir", "out"]) == 0
    assert {path.name for path in out.iterdir()} == set(COMMANDS[command][1])
    assert main([command, *failing, "--out-dir", "out"]) == status
    assert not any(out.iterdir())
    if command == "events":
        # so cluster finds no stale event terms to seed from
        with caplog.at_level("ERROR"):
            assert main(["cluster", *fixture, "--out-dir", "out"]) == 1
        assert f"no event terms at {out / EVENT_TERMS_TXT}" in caplog.text


# --- series ----------------------------------------------------------------


def test_series_artifacts_account_for_every_document(fx, tmp_path):
    rc = main(["series", "--corpus", fx["corpus"], "--out-dir", str(tmp_path)])
    assert rc == 0
    raw = read_series(tmp_path / "series_raw.csv")
    assert sum(v for _, v in raw) == 200.0
    smoothed = read_series(tmp_path / "series_smoothed.csv")
    assert [d for d, _ in smoothed] == [d for d, _ in raw]
    corpus = load_corpus(fx["corpus"])
    from opflow.flowseries import build_daily_series

    expected = smooth(build_daily_series(corpus), 7)
    assert [v for _, v in smoothed] == pytest.approx(expected.values)


def test_series_respects_query_filter(fx, tmp_path):
    rc = main(["series", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
               "--query", "petition"])
    assert rc == 0
    raw = read_series(tmp_path / "series_raw.csv")
    assert sum(v for _, v in raw) == 40.0  # the planted petition cluster


# --- correlogram -----------------------------------------------------------


def test_correlogram_finds_the_planted_burst(fx, tmp_path):
    rc = main(["correlogram", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
               "--threshold", "0.6"])
    assert rc == 0
    assert (tmp_path / "correlogram.csv").is_file()
    rows = list(csv.DictReader((tmp_path / "peaks.csv").read_text().splitlines()))
    assert rows, "expected at least one peak on the planted corpus"
    top = rows[0]
    # the fixture plants the bump at shift 8, scale 40
    assert abs(int(top["l"]) - 8) <= 3
    assert abs(int(top["k"]) - 40) <= 5
    assert float(top["c"]) >= 0.8
    span = date.fromisoformat(top["window_end"]) - date.fromisoformat(top["window_start"])
    assert span.days == int(top["k"]) - 1


NO_DEFINED_CELLS = (
    "correlogram: no defined cells: every window, or the template at its scale, is flat"
)


def flat_corpus(path, days=4):
    docs = []
    for i in range(days):
        docs.append(Document(
            id=f"d{i}",
            published_at=datetime(2016, 6, 1 + i, 9, 0, tzinfo=timezone.utc),
            source="wire", title="tt", body="bb",
        ))
    save_corpus(Corpus.from_documents(docs), path)


def test_correlogram_on_flat_flow_warns_but_succeeds(tmp_path, caplog):
    corpus_path = tmp_path / "flat.jsonl"
    flat_corpus(corpus_path)
    with caplog.at_level("WARNING"):
        rc = main(["correlogram", "--corpus", str(corpus_path),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [NO_DEFINED_CELLS]
    content = (tmp_path / "out" / "correlogram.csv").read_text()
    assert "NA" in content
    peaks = (tmp_path / "out" / "peaks.csv").read_text().splitlines()
    assert len(peaks) == 1  # header only


def test_correlogram_with_a_constant_template_blames_the_template(fx, tmp_path, caplog):
    # the fixture's windows vary; only the template has no variance, the
    # second one because both its samples at k = 2 are 0.5
    template = tmp_path / "t.txt"
    for points, grid in [("0 0.5\n1 0.5\n", []), ("0 0.5\n0.5 1\n1 0.5\n", ["--scales", "2"])]:
        template.write_text(points)
        caplog.clear()
        with caplog.at_level("WARNING"):
            rc = main(["correlogram", "--corpus", fx["corpus"], "--out-dir", str(tmp_path / "out"),
                       "--template", str(template), *grid])
        assert rc == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [NO_DEFINED_CELLS]


def test_correlogram_warns_when_no_window_of_the_grid_fits(fx, tmp_path, caplog):
    # shift 30 plus scale 50 runs past the fixture's 59 days
    out = tmp_path / "out"
    with caplog.at_level("WARNING"):
        rc = main(["correlogram", "--corpus", fx["corpus"], "--out-dir", str(out),
                   "--scales", "50", "--shifts", "30"])
    assert rc == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["correlogram: no (shift, scale) window of the grid fits the 59-day series"]
    assert (out / "correlogram.csv").read_text() == "l,k,c\n"
    assert (out / "peaks.csv").read_text() == "l,k,c,window_start,window_end\n"


def test_correlogram_on_a_sparse_shift_grid_keeps_the_full_grids_cells(fx, tmp_path):
    def lines(out, grid):
        assert main(["correlogram", "--corpus", fx["corpus"], "--out-dir", str(out)] + grid) == 0
        return (out / "correlogram.csv").read_text().splitlines()

    shifts = list(range(0, 58, 10))  # the fixture's 59 days admit shifts 0..57
    full = lines(tmp_path / "full", [])
    sparse = lines(tmp_path / "sparse", ["--shifts", ",".join(map(str, shifts))])
    assert len(sparse) > 1
    assert sparse == [full[0]] + [line for line in full[1:] if int(line.split(",")[0]) in shifts]


# --- events ----------------------------------------------------------------


def test_events_matches_planted_keywords(fx, tmp_path):
    rc = main(["events", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
               "--stopwords", fx["stopwords"]])
    assert rc == 0
    terms = (tmp_path / "event_terms.txt").read_text().splitlines()
    assert set(terms) == {"protest", "referendum", "petition", "terrorist act"}
    payload = json.loads((tmp_path / "augmented_query.json").read_text())
    assert payload["event_terms"] == terms
    assert payload["required_groups"] == [sorted(terms)]
    assert payload["excluded_terms"] == []
    event_corpus = load_corpus(tmp_path / EVENT_CORPUS)
    assert len(event_corpus) == 200  # every fixture doc carries a keyword
    nodes = (tmp_path / "source_nodes.tsv").read_text().splitlines()
    assert nodes[0] == "source\tdoc_count"
    assert len(nodes) > 1


def test_events_with_disjoint_lexicon_is_empty_but_clean(fx, tmp_path, caplog):
    lex = tmp_path / "lexicon.txt"
    lex.write_text("earthquake\nfloods\n")
    with caplog.at_level("WARNING"):
        rc = main(["events", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
                   "--lexicon", str(lex)])
    assert rc == 0
    assert "no lexicon term" in caplog.text
    assert (tmp_path / "event_terms.txt").read_text() == ""
    assert (tmp_path / EVENT_CORPUS).read_text() == ""
    assert (tmp_path / "source_edges.tsv").read_text() == "source_a\tsource_b\tweight\n"


def test_events_event_corpus_is_a_subset_of_the_flow(fx, tmp_path):
    rc = main(["events", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
               "--query", "petition"])
    assert rc == 0
    flow_ids = {d.id for d in load_corpus(fx["corpus"])}
    event_ids = {d.id for d in load_corpus(tmp_path / EVENT_CORPUS)}
    assert event_ids <= flow_ids
    assert all(d.startswith("c03") for d in event_ids)  # petition is cluster 3


# --- cluster ---------------------------------------------------------------


def test_cluster_without_event_terms_points_at_events(fx, tmp_path, caplog):
    with caplog.at_level("ERROR"):
        rc = main(["cluster", "--corpus", fx["corpus"], "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "events subcommand" in caplog.text


def test_cluster_recovers_planted_assignments(fx, tmp_path):
    assert main(["events", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
                 "--stopwords", fx["stopwords"]]) == 0
    assert main(["cluster", "--corpus", str(tmp_path / EVENT_CORPUS),
                 "--out-dir", str(tmp_path), "--stopwords", fx["stopwords"]]) == 0
    report = json.loads((tmp_path / CLUSTERS_JSON).read_text())
    by_keyword = {
        " ".join(c["seed_terms"]): {m["doc_id"] for m in c["members"]}
        for c in report["clusters"]
    }
    truth = {}
    for line in fx["truth"].read_text().splitlines()[1:]:
        doc_id, cluster = line.split("\t")
        truth[doc_id] = int(cluster)
    label = {"protest": 1, "referendum": 2, "petition": 3, "terrorist act": 4}
    total = correct = 0
    for keyword, members in by_keyword.items():
        for doc_id in members:
            total += 1
            correct += truth[doc_id] == label[keyword]
    assert total >= 190  # few docs may be unassigned or omitted
    assert correct / total >= 0.95


def test_cluster_accepts_an_external_term_file(fx, tmp_path):
    terms = tmp_path / "terms.txt"
    terms.write_text("petition\n")
    rc = main(["cluster", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
               "--terms", str(terms)])
    assert rc == 0
    report = json.loads((tmp_path / CLUSTERS_JSON).read_text())
    assert [c["index"] for c in report["clusters"]] == [1]
    assert report["clusters"][0]["seed_terms"] == ["petition"]


def test_cluster_applies_the_query(fx, tmp_path):
    # the fixture's protest docs are c01*, its petition docs c03*
    terms = tmp_path / "terms.txt"
    terms.write_text("petition\nprotest\n")
    rc = main(["cluster", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
               "--terms", str(terms), "--query", "petition,protest"])
    assert rc == 0
    report = json.loads((tmp_path / CLUSTERS_JSON).read_text())
    members = [m["doc_id"] for c in report["clusters"] for m in c["members"]]
    members += report["unassigned_doc_ids"] + report["omitted_doc_ids"]
    assert members and all(doc_id[:3] in ("c01", "c03") for doc_id in members)
    assert [c["member_count"] for c in report["clusters"]] == [40, 60]


def test_cluster_report_is_byte_stable(fx, tmp_path):
    terms = tmp_path / "terms.txt"
    terms.write_text("protest\nreferendum\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["cluster", "--corpus", fx["corpus"], "--out-dir", str(out),
                   "--terms", str(terms)])
        assert rc == 0
    assert (out_a / CLUSTERS_JSON).read_bytes() == (out_b / CLUSTERS_JSON).read_bytes()


def test_cluster_term_file_skips_comments_and_repeats(fx, tmp_path):
    terms = tmp_path / "terms.txt"
    terms.write_text("# note\nprotest\nProtest\nreferendum\n")
    rc = main(["cluster", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
               "--terms", str(terms)])
    assert rc == 0
    report = json.loads((tmp_path / CLUSTERS_JSON).read_text())
    assert [c["seed_terms"] for c in report["clusters"]] == [["protest"], ["referendum"]]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(["protest", "march", "vote"]), max_size=3),
                          st.sampled_from(["shared words", "protest", "march vote"])),
                min_size=1, max_size=8))
def test_cluster_omits_exactly_the_docs_left_without_a_vector(texts):
    # a word in every document has df == N and zero weight; ids run
    # against time order
    docs = [
        Document(id=f"d{len(texts) - i}", published_at=datetime(2016, 6, 1, 9, i, tzinfo=timezone.utc),
                 source="wire", title=" ".join(words), body=body)
        for i, (words, body) in enumerate(texts)
    ]
    corpus = Corpus.from_documents(docs)
    tokenized = tokenize_corpus(corpus)
    vectors = vectorize(tokenized, document_frequencies(tokenized))
    vectorized = set(vectors.doc_ids)
    with tempfile.TemporaryDirectory() as out:
        omitted, clustering = cluster_events(corpus, tokenized, ["protest"], Path(out))
    assert omitted == [doc_id for doc_id in tokenized.doc_ids if doc_id not in vectorized]
    assert clustering.vectors.doc_ids == vectors.doc_ids
    # a weight is copied out only when some term has zero weight
    dropped = len(vectors.terms) < len(tokenized.row_terms)
    assert np.shares_memory(vectors.terms, tokenized.row_terms) == (not dropped)


def test_cluster_reports_docs_without_a_vector(tmp_path, caplog):
    # every term of z1 and z2 occurs in every document, so idf leaves them nothing
    docs = [
        Document(id=doc_id, published_at=datetime(2016, 6, 1, 9, i, tzinfo=timezone.utc),
                 source="wire", title=title, body="shared words")
        for i, (doc_id, title) in enumerate(
            [("p1", "protest"), ("p2", "protest"), ("z1", ""), ("z2", "")]
        )
    ]
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus.from_documents(docs), corpus_path)
    terms = tmp_path / "terms.txt"
    terms.write_text("protest\n")
    with caplog.at_level("WARNING"):
        rc = main(["cluster", "--corpus", str(corpus_path), "--out-dir", str(tmp_path),
                   "--terms", str(terms)])
    assert rc == 0
    assert "omitted 2 zero-weight docs" in caplog.text
    report = json.loads((tmp_path / CLUSTERS_JSON).read_text())
    assert report["omitted_doc_ids"] == ["z1", "z2"]
    assert [m["doc_id"] for m in report["clusters"][0]["members"]] == ["p1", "p2"]


# --- pipeline --------------------------------------------------------------


def run_pipeline(fx, out, threshold="0.6"):
    return main(["pipeline", "--corpus", fx["corpus"], "--out-dir", str(out),
                 "--stopwords", fx["stopwords"], "--threshold", threshold])


def test_pipeline_writes_every_artifact_and_manifest(fx, tmp_path):
    assert run_pipeline(fx, tmp_path) == 0
    for name in PIPELINE_ARTIFACTS:
        assert (tmp_path / name).is_file(), name
    manifest = (tmp_path / MANIFEST_TXT).read_text().splitlines()
    notes = [line for line in manifest if line.startswith("# ")]
    assert any("narrowing:" in n for n in notes)
    listed = {line.split("\t")[0] for line in manifest if not line.startswith("#")}
    assert listed == set(PIPELINE_ARTIFACTS)


def test_pipeline_narrows_to_the_peak_window(fx, tmp_path):
    assert run_pipeline(fx, tmp_path) == 0
    top = list(csv.DictReader((tmp_path / "peaks.csv").read_text().splitlines()))[0]
    window_start = date.fromisoformat(top["window_start"])
    window_end = date.fromisoformat(top["window_end"])
    narrowed = load_corpus(tmp_path / "narrowed_corpus.jsonl")
    days = narrowed.days
    assert window_start.toordinal() <= days[0] and days[-1] <= window_end.toordinal()
    assert 0 < len(narrowed) < 200


def test_pipeline_without_a_peak_skips_narrowing(fx, tmp_path):
    assert run_pipeline(fx, tmp_path, threshold="0.999") == 0
    assert not (tmp_path / "narrowed_corpus.jsonl").exists()
    manifest = (tmp_path / MANIFEST_TXT).read_text()
    assert "narrowing: none" in manifest
    # events then run on the whole flow
    assert len(load_corpus(tmp_path / EVENT_CORPUS)) == 200


def test_pipeline_without_event_terms_skips_clustering(fx, tmp_path):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("nosuchterm\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--corpus", fx["corpus"], "--out-dir", str(out),
                 "--stopwords", fx["stopwords"], "--threshold", "0.6",
                 "--lexicon", str(lexicon)]) == 0
    assert not (out / CLUSTERS_JSON).exists()
    manifest = (out / MANIFEST_TXT).read_text().splitlines()
    assert "# clustering: skipped (no event terms matched)" in manifest
    listed = {line.split("\t")[0] for line in manifest if not line.startswith("#")}
    assert listed == set(PIPELINE_ARTIFACTS) - {CLUSTERS_JSON}


def test_pipeline_is_reproducible(fx, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_pipeline(fx, out_a) == 0
    assert run_pipeline(fx, out_b) == 0
    assert (out_a / MANIFEST_TXT).read_bytes() == (out_b / MANIFEST_TXT).read_bytes()


def test_a_pipeline_run_leaves_no_stage_object_in_a_reference_cycle(fx, tmp_path):
    # an object in a cycle, with all it holds, lives until the cyclic
    # collector runs; DEBUG_SAVEALL keeps what the collector finds.
    # argparse's own cycles, through opflow.cli's parser, are not the stages'
    stages = {f"opflow.{name}" for name in
              ("corpus", "flowseries", "eventcluster", "termbase", "sourcegraph")}
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_pipeline(fx, tmp_path) == 0
        gc.collect()
        cyclic = {type(o).__qualname__ for o in gc.garbage if type(o).__module__ in stages}
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not cyclic


# each input whose artifacts a golden manifest holds: whether the corpus
# lines are reversed, a prefix of both input files, the flags after them,
# and the manifest
GOLDEN_RUNS = {
    "fixture": (False, b"", [], "pipeline_manifest.txt"),
    # every row is a byte run of its own, and the artifacts stay the same
    "reversed": (True, b"", [], "pipeline_manifest.txt"),
    "bom": (False, b"\xef\xbb\xbf", [], "pipeline_manifest.txt"),
    # a query that drops documents, so the flow and every stage after it
    # see a proper subset of the corpus
    "selective": (False, b"", ["--query", "protest", "--exclude", "common29"],
                  "pipeline_manifest_selective.txt"),
}


@pytest.mark.parametrize("run", GOLDEN_RUNS)
def test_pipeline_reproduces_the_golden_manifest(fx, fixtures_dir, tmp_path, run):
    # the digests of every artifact for these arguments: any change to
    # an artifact's bytes shows here
    reverse, prefix, flags, golden = GOLDEN_RUNS[run]
    lines = fx["corpus_path"].read_bytes().splitlines(keepends=True)
    corpus, stopwords = tmp_path / "corpus.jsonl", tmp_path / "stopwords.txt"
    corpus.write_bytes(prefix + b"".join(lines[::-1] if reverse else lines))
    stopwords.write_bytes(prefix + Path(fx["stopwords"]).read_bytes())
    out = tmp_path / "out"
    assert main(["pipeline", "--corpus", str(corpus), "--out-dir", str(out),
                 "--stopwords", str(stopwords), "--threshold", "0.6", *flags]) == 0
    flow = len(load_corpus(out / FLOW_CORPUS))
    assert 0 < flow < 200 if flags else flow == 200
    assert (out / MANIFEST_TXT).read_bytes() == (fixtures_dir / golden).read_bytes()


def test_pipeline_refuses_a_bom_inside_the_corpus(fx, tmp_path):
    # a byte order mark anywhere but at the start is a data error
    lines = fx["corpus_path"].read_text(encoding="utf-8").splitlines(keepends=True)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(lines[0] + "\ufeff" + "".join(lines[1:]), encoding="utf-8")
    assert run_pipeline({"corpus": str(corpus), "stopwords": fx["stopwords"]}, tmp_path) == 2


def test_pipeline_builds_no_document_objects(fx, tmp_path, monkeypatch):
    from opflow.corpus import DocumentTable

    def refuse(self, row):
        raise AssertionError("a Document was built")

    monkeypatch.setattr(DocumentTable, "document", refuse)
    assert run_pipeline(fx, tmp_path) == 0
    assert (tmp_path / CLUSTERS_JSON).is_file()


def test_pipeline_clears_stale_artifacts(fx, tmp_path):
    stale = tmp_path / CLUSTERS_JSON
    unrelated = tmp_path / "keep.txt"
    tmp_path.mkdir(exist_ok=True)
    stale.write_text("stale garbage")
    unrelated.write_text("mine")
    assert run_pipeline(fx, tmp_path) == 0
    assert json.loads(stale.read_text())["clusters"]  # regenerated, not stale
    assert unrelated.read_text() == "mine"


def test_pipeline_keeps_an_artifact_it_reads_as_input(fx, tmp_path):
    assert run_pipeline(fx, tmp_path) == 0
    manifest = (tmp_path / MANIFEST_TXT).read_bytes()
    flow = {"corpus": str(tmp_path / "flow_corpus.jsonl"), "stopwords": fx["stopwords"]}
    assert run_pipeline(flow, tmp_path) == 0
    assert (tmp_path / MANIFEST_TXT).read_bytes() == manifest


def test_the_manifest_lists_no_skipped_artifact_that_is_the_runs_input(fx, tmp_path):
    # the second run reads the first one's narrowed corpus and narrows
    # nothing, so that file stays, as its input, but the run did not write it
    assert run_pipeline(fx, tmp_path) == 0
    narrowed = {"corpus": str(tmp_path / NARROWED_CORPUS), "stopwords": fx["stopwords"]}
    assert run_pipeline(narrowed, tmp_path, threshold="1.5") == 0
    assert (tmp_path / NARROWED_CORPUS).is_file()
    manifest = (tmp_path / MANIFEST_TXT).read_text().splitlines()
    assert "# narrowing: none (no peak at or above threshold)" in manifest
    listed = {line.split("\t")[0] for line in manifest if not line.startswith("#")}
    assert listed == set(PIPELINE_ARTIFACTS) - {NARROWED_CORPUS}


def test_pipeline_exits_3_on_an_internal_fault_and_leaves_no_stale_artifact(
    fx, tmp_path, monkeypatch, caplog
):
    import opflow.cli as cli

    assert run_pipeline(fx, tmp_path) == 0

    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "kmeans_seeded", fail)
    with caplog.at_level("ERROR"):
        assert run_pipeline(fx, tmp_path) == 3
    assert "internal error" in caplog.text and "ValueError: boom" in caplog.text
    assert not (tmp_path / MANIFEST_TXT).exists()
    assert not (tmp_path / CLUSTERS_JSON).exists()  # the first run's is gone
    assert (tmp_path / EVENT_CORPUS).is_file()  # the stages before it ran


# every name perfbench/spans.py wraps in opflow.cli, with the calls one
# fixture pipeline makes of it
TRACED_CALLS = {
    "cmd_pipeline": 1, "cmd_series": 0, "cmd_correlogram": 0, "cmd_events": 0,
    "cmd_cluster": 0,
    "load_corpus": 1, "tokenize_corpus": 1, "filter_by_query": 1, "filter_by_dates": 1,
    "save_corpus": 3, "build_daily_series": 1, "smooth": 1, "correlogram": 1,
    "detect_peaks": 1, "write_series_csv": 2, "write_correlogram_csv": 1,
    "write_peaks_csv": 1, "compute_tfidf": 1, "document_frequencies": 1,
    "match_event_terms": 1, "write_term_report": 1, "source_link_graph": 1,
    "write_source_graph": 1, "vectorize": 1, "seed_centroids": 1, "kmeans_seeded": 1,
    "write_cluster_report": 1,
}
# the parameters perfbench's span counts read by name
TRACED_PARAMETERS = {
    "filter_by_query": {"corpus"}, "filter_by_dates": {"corpus"}, "save_corpus": {"corpus"},
    "compute_tfidf": {"tokenized"}, "vectorize": {"tokenized"},
    "kmeans_seeded": {"seeds", "vectors"},
}


def test_pipeline_calls_each_traced_name_as_often_as_measured(fx, tmp_path, monkeypatch):
    import inspect

    import opflow.cli as cli

    calls = dict.fromkeys(TRACED_CALLS, 0)
    for name in calls:
        original = getattr(cli, name)
        assert TRACED_PARAMETERS.get(name, set()) <= set(inspect.signature(original).parameters)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    assert run_pipeline(fx, tmp_path) == 0
    assert (tmp_path / CLUSTERS_JSON).is_file()  # the chain ran to its last stage
    assert calls == TRACED_CALLS


def test_selective_pipeline_does_each_step_once(fx, tmp_path, monkeypatch):
    # the selective golden manifest's query: the flow is a proper subset
    import opflow.cli as cli

    steps = []  # (name, docs received, docs produced) in call order
    for name in ("load_corpus", "tokenize_corpus", "filter_by_query", "filter_by_dates",
                 "compute_tfidf", "vectorize"):

        def counted(first, *args, _name=name, _original=getattr(cli, name)):
            result = _original(first, *args)
            received = None if _name == "load_corpus" else len(first)
            # tf-idf ranks the terms of every document it reads
            produced = received if _name == "compute_tfidf" else len(result)
            steps.append((_name, received, produced))
            return result

        monkeypatch.setattr(cli, name, counted)
    assert main(["pipeline", "--corpus", fx["corpus"], "--out-dir", str(tmp_path),
                 "--stopwords", fx["stopwords"], "--threshold", "0.6",
                 "--query", "protest", "--exclude", "common29"]) == 0
    # flow filter, narrowing, tf-idf, event filter, vectors
    assert [name for name, _, _ in steps] == [
        "load_corpus", "tokenize_corpus", "filter_by_query", "filter_by_dates",
        "compute_tfidf", "filter_by_query", "vectorize",
    ]
    (_, _, loaded), (_, tokenized, _), (_, _, flow) = steps[:3]
    assert tokenized == loaded == 200
    assert 0 < flow < loaded
    for (before, _, produced), (after, received, _) in zip(steps[2:], steps[3:]):
        assert received <= produced, (before, after)


@pytest.mark.parametrize("query", [[], ["--query", "protest", "--exclude", "common29"]],
                         ids=["no-query", "selective"])
def test_pipeline_equals_manual_stage_composition(fx, tmp_path, query):
    pipe = tmp_path / "pipe"
    manual = tmp_path / "manual"
    common = ["--stopwords", fx["stopwords"], "--threshold", "0.6"] + query
    assert main(["pipeline", "--corpus", fx["corpus"], "--out-dir", str(pipe)] + common) == 0
    assert main(["series", "--corpus", str(pipe / "flow_corpus.jsonl"),
                 "--out-dir", str(manual)] + common) == 0
    assert main(["correlogram", "--corpus", str(pipe / "flow_corpus.jsonl"),
                 "--out-dir", str(manual)] + common) == 0
    assert main(["events", "--corpus", str(pipe / "narrowed_corpus.jsonl"),
                 "--out-dir", str(manual)] + common) == 0
    assert main(["cluster", "--corpus", str(pipe / EVENT_CORPUS),
                 "--out-dir", str(manual), "--terms", str(pipe / EVENT_TERMS_TXT)]
                + common) == 0
    for name in ("series_raw.csv", "series_smoothed.csv", "correlogram.csv",
                 "peaks.csv", "terms.tsv", "event_terms.txt", "augmented_query.json",
                 "event_corpus.jsonl", "source_edges.tsv", "source_nodes.tsv", CLUSTERS_JSON):
        assert (pipe / name).read_bytes() == (manual / name).read_bytes(), name


def test_pipeline_clusters_an_event_corpus_smaller_than_its_stage(fx, tmp_path):
    # two lexicon terms keep 107 of the 180 narrowed docs, so clustering
    # selects its rows from the stage table the events stage ranked
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("protest\nreferendum\n", encoding="utf-8")
    pipe, manual = tmp_path / "pipe", tmp_path / "manual"
    common = ["--stopwords", fx["stopwords"]]
    assert main(["pipeline", "--corpus", fx["corpus"], "--out-dir", str(pipe),
                 "--threshold", "0.6", "--lexicon", str(lexicon)] + common) == 0
    narrowed = (pipe / "narrowed_corpus.jsonl").read_text().splitlines()
    events = (pipe / EVENT_CORPUS).read_text().splitlines()
    assert 0 < len(events) < len(narrowed)
    assert main(["cluster", "--corpus", str(pipe / EVENT_CORPUS), "--out-dir", str(manual),
                 "--terms", str(pipe / EVENT_TERMS_TXT)] + common) == 0
    assert (pipe / CLUSTERS_JSON).read_bytes() == (manual / CLUSTERS_JSON).read_bytes()


# --- robustness ------------------------------------------------------------

STOPWORDS = ("the", "and")
WORDS = ("protest", "referendum", "terrorist", "act", "petition", "common") + STOPWORDS


@st.composite
def small_corpora(draw):
    """JSONL lines of a few documents within one to a dozen days, with
    UTC offsets that move them across midnight, some made only of
    stopwords and some only of their title, "common" or the stopword
    "the"."""
    span_days = draw(st.sampled_from([1, 2, 12]))
    lines = []
    for i in range(draw(st.integers(1, 25))):
        minutes = draw(st.integers(0, span_days * 1440 - 1))
        zone = timezone(timedelta(hours=draw(st.integers(-12, 14))))
        published = datetime(2016, 6, 1, tzinfo=timezone.utc) + timedelta(minutes=minutes)
        kind = draw(st.sampled_from(["words", "stopwords", "everywhere"]))
        if kind == "words":
            body = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6))
        else:
            body = list(STOPWORDS) if kind == "stopwords" else []
        lines.append(json.dumps({
            "id": f"d{i}", "published_at": published.astimezone(zone).isoformat(),
            "source": draw(st.sampled_from(["s1", "s2"])),
            "title": draw(st.sampled_from(["common", "the"])),
            "body": " ".join(body),
        }))
    return lines


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    small_corpora(),
    st.sampled_from(["-1", "0.5", "0.9"]),
    st.booleans(),
    st.sampled_from(["", "protest,terrorist act"]),
)
def test_pipeline_exits_0_1_or_2_on_small_corpora(
    tmp_path_factory, lines, threshold, with_stopwords, query
):
    work = tmp_path_factory.mktemp("robust")
    corpus = work / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stopwords = work / "stopwords.txt"
    stopwords.write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
    out = work / "out"
    argv = ["pipeline", "--corpus", str(corpus), "--out-dir", str(out)]
    argv += ["--threshold", threshold]
    argv += ["--stopwords", str(stopwords)] if with_stopwords else []
    argv += ["--query", query] if query else []
    rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 0:
        # a stage the manifest notes as skipped leaves its artifact out
        manifest = (out / MANIFEST_TXT).read_text(encoding="utf-8")
        skipped = set()
        if "# narrowing: none" in manifest:
            skipped.add("narrowed_corpus.jsonl")
        if "# clustering: skipped" in manifest:
            skipped.add(CLUSTERS_JSON)
        listed = {line.split("\t")[0] for line in manifest.splitlines() if "\t" in line}
        assert listed == set(PIPELINE_ARTIFACTS) - skipped
        for name in PIPELINE_ARTIFACTS:
            assert (out / name).is_file() == (name not in skipped), name
    else:
        assert not (out / MANIFEST_TXT).exists()  # a failed run looks incomplete


# what a mutation inserts: digits, the separators and signs of every file
# and flag format, the letters of nan and inf, a comment and a BOM
MUTATION_CHARS = "0123456789.-+e ,;:=#\n\ufeffnaifx"
# what a word of a file or flag value may become: values at or past the
# edge of what each key or flag accepts
# and, in a JSON string, an escape that decodes to a lone surrogate
EDGE_VALUES = (
    "0", "1", "-1", "2", "0.5", "1000", "1e-320", "1e308", "nan", "inf", "-inf", "\\ud800",
)
# the input files the fuzz gate mutates, by their flag's name, the
# corpus first
FUZZED_FILES = ("corpus", "stopwords", "lexicon", "template")
# the pipeline flags the fuzz gate mutates, each with a value that works
FUZZED_FLAGS = {
    "--query": "protest,referendum,petition", "--exclude": "common29",
    "--scales": "10..40", "--shifts": "0..20", "--threshold": "0.6",
}


@st.composite
def mutated(draw, text: str) -> str:
    """The text after up to three edits, each either a word replaced by one
    of EDGE_VALUES, or a span of up to 8 characters replaced by up to 2
    characters of MUTATION_CHARS (an empty span is an insertion).  So a
    number grows at most a hundredfold per edit, and a run stays short."""
    for _ in range(draw(st.integers(0, 3))):
        words = list(re.finditer(r"[\w.+-]+", text))
        if words and draw(st.booleans()):
            word = draw(st.sampled_from(words))
            text = text[:word.start()] + draw(st.sampled_from(EDGE_VALUES)) + text[word.end():]
            continue
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(st.text(MUTATION_CHARS, max_size=2)) + text[end:]
    return text


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_inputs_exit_0_1_or_2_and_a_failed_run_writes_no_result(
    fx, tmp_path_factory, caplog, data
):
    # one input is mutated; every other one the run is given works, so a
    # run that fails fails for that input, and most runs reach clustering
    work = tmp_path_factory.mktemp("fuzz")
    target = data.draw(st.sampled_from([*FUZZED_FILES, *FUZZED_FLAGS]))
    named = str(work / target) if target in FUZZED_FILES else target
    argv = ["pipeline"]
    for name in FUZZED_FILES:
        if name == target:
            text = data.draw(mutated(Path(fx[name]).read_text(encoding="utf-8")))
            Path(named).write_text(text, encoding="utf-8")
            argv += [f"--{name}", named]
        elif name == "corpus" or data.draw(st.booleans()):
            argv += [f"--{name}", fx[name]]
    flags = {flag for flag in FUZZED_FLAGS if flag == target or data.draw(st.booleans())}
    if "--exclude" in flags:
        flags.add("--query")  # --exclude needs a base --query
    for flag, value in FUZZED_FLAGS.items():
        if flag in flags:
            argv.append(f"{flag}={data.draw(mutated(value)) if flag == target else value}")
    out = work / "out"
    caplog.clear()
    with caplog.at_level("ERROR"):
        rc = main([*argv, "--out-dir", str(out)])
    assert rc in (0, 1, 2), caplog.text
    assert "internal error" not in caplog.text
    if rc == 0:
        # each digest in the manifest is that of the file it names
        for line in (out / MANIFEST_TXT).read_text(encoding="utf-8").splitlines():
            name, tab, digest = line.partition("\t")
            if tab:
                assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name
    else:
        assert not (out / MANIFEST_TXT).exists()
        # a refusal says which input to mend
        assert named in caplog.text, caplog.text
