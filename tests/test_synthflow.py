"""Synthetic fixtures: planted bursts and cluster corpora."""

from __future__ import annotations

from datetime import timedelta

import pytest

from opflow.corpus import save_corpus, tokenize_corpus
from opflow.errors import DataError
from opflow.flowseries import (
    DEFAULT_TEMPLATE, LifecycleTemplate, build_daily_series, sample_template,
)
from opflow.synthflow import (
    DEFAULT_SOURCES,
    BurstSpec,
    ClusterDef,
    ClusterSpec,
    generate_burst_series,
    generate_cluster_corpus,
)
from oracles import correlation_cell, pearson, write_fixture


def vocab(prefix, n=10):
    return tuple(f"{prefix}{i:02d}" for i in range(n))


def burst(**kw):
    base = dict(length_days=30, plant_shift=5, plant_scale=10, amplitude=20.0)
    base.update(kw)
    return BurstSpec(**base)


def cluster_spec(**kw):
    base = dict(
        clusters=(
            ClusterDef("protest", vocab("pp"), 6),
            ClusterDef("terrorist act", vocab("qq"), 6),
        ),
        shared_vocab=vocab("cc", 12),
        rng_seed=101,
    )
    base.update(kw)
    return ClusterSpec(**base)


# --- spec validation -------------------------------------------------------


def test_burst_spec_window_must_fit():
    with pytest.raises(ValueError, match="does not fit"):
        burst(plant_shift=25, plant_scale=10)


def test_burst_spec_scale_floor():
    with pytest.raises(ValueError, match="plant_scale"):
        burst(plant_scale=1)


def test_burst_spec_rejects_bad_magnitudes():
    with pytest.raises(ValueError):
        burst(amplitude=0.0)
    with pytest.raises(ValueError):
        burst(baseline=-1.0)
    with pytest.raises(ValueError):
        burst(noise_sigma=-0.5)
    with pytest.raises(ValueError):
        burst(plant_shift=-1)
    # nan fails every comparison, so it must not pass a ">= 0" check; inf
    # passes it, and must not reach the series
    for key in ("baseline", "noise_sigma"):
        with pytest.raises(ValueError, match=f"^{key} must be >= 0, got nan$"):
            burst(**{key: float("nan")})
    for key in ("amplitude", "baseline", "noise_sigma"):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got inf$"):
            burst(**{key: float("inf")})


def test_specs_refuse_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -3$"):
        burst(rng_seed=-3)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -3$"):
        cluster_spec(rng_seed=-3)


def test_cluster_def_normalizes_keyword():
    cdef = ClusterDef("  Terrorist ACT! ", vocab("xx"), 3)
    assert cdef.keyword == "terrorist act"
    with pytest.raises(ValueError, match="^keyword '!!!' normalizes to nothing$"):
        ClusterDef("!!!", vocab("xx"), 3)


def test_cluster_def_vocab_rules():
    with pytest.raises(ValueError, match=">= 10"):
        ClusterDef("protest", vocab("xx", 9), 3)
    with pytest.raises(ValueError, match="duplicate"):
        ClusterDef("protest", vocab("xx", 9) + ("xx00",), 3)
    with pytest.raises(ValueError, match="single"):
        ClusterDef("protest", vocab("xx", 9) + ("two words",), 3)
    with pytest.raises(ValueError, match="doc_count"):
        ClusterDef("protest", vocab("xx"), 0)


def test_cluster_spec_keywords_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        cluster_spec(
            clusters=(
                ClusterDef("protest", vocab("pp"), 2),
                ClusterDef("Protest", vocab("qq"), 2),
            )
        )


def test_cluster_spec_vocabs_must_be_disjoint():
    with pytest.raises(ValueError, match="two topical"):
        cluster_spec(
            clusters=(
                ClusterDef("protest", vocab("pp"), 2),
                ClusterDef("riot", vocab("pp"), 2),
            )
        )
    with pytest.raises(ValueError, match="shared"):
        cluster_spec(shared_vocab=vocab("pp"))


def test_cluster_spec_keyword_cannot_hide_in_other_vocab():
    with pytest.raises(ValueError, match="collides"):
        cluster_spec(
            clusters=(
                ClusterDef("protest", vocab("pp"), 2),
                ClusterDef("pp00", vocab("qq"), 2),
            )
        )


def test_cluster_spec_shared_draws_need_shared_vocab():
    with pytest.raises(ValueError, match="shared"):
        cluster_spec(shared_vocab=(), shared_terms_per_doc=3)


# --- burst series ----------------------------------------------------------


def test_noiseless_burst_is_exact():
    spec = burst(baseline=2.0, amplitude=20.0)
    series = generate_burst_series(DEFAULT_TEMPLATE, spec)
    assert series.start_date == spec.start_date
    assert len(series.values) == 30
    samples = sample_template(DEFAULT_TEMPLATE, 10)
    for i, v in enumerate(series.values):
        if 5 <= i < 15:
            assert v == 2.0 + 20.0 * samples[i - 5]
        else:
            assert v == 2.0


def test_noiseless_burst_correlates_perfectly_at_the_plant():
    spec = burst(baseline=2.0)
    series = generate_burst_series(DEFAULT_TEMPLATE, spec)
    samples = sample_template(DEFAULT_TEMPLATE, spec.plant_scale)
    c = correlation_cell(series, spec.plant_shift, spec.plant_scale, samples)
    assert c == pytest.approx(1.0, abs=1e-12)


def test_noisy_burst_is_clamped_at_zero():
    spec = burst(baseline=0.0, noise_sigma=5.0, amplitude=3.0, rng_seed=4)
    series = generate_burst_series(DEFAULT_TEMPLATE, spec)
    assert all(v >= 0.0 for v in series.values)
    assert min(series.values) == 0.0  # sigma swamps the signal somewhere


def test_burst_series_same_seed_same_values():
    a = generate_burst_series(DEFAULT_TEMPLATE, burst(noise_sigma=1.5, rng_seed=9))
    b = generate_burst_series(DEFAULT_TEMPLATE, burst(noise_sigma=1.5, rng_seed=9))
    assert a.values == b.values


def test_burst_series_refuses_an_overflowing_template():
    # each control point is finite, but the slope between the last two is not
    steep = LifecycleTemplate([(0.0, 0.0), (0.5, 1.0), (1.0, 1e308)])
    message = ("^template samples overflow: a slope between two control points"
               " is past the float range$")
    with pytest.raises(DataError, match=message):
        generate_burst_series(steep, burst())


def test_burst_series_seed_changes_noise():
    a = generate_burst_series(DEFAULT_TEMPLATE, burst(noise_sigma=1.5, rng_seed=9))
    b = generate_burst_series(DEFAULT_TEMPLATE, burst(noise_sigma=1.5, rng_seed=10))
    assert a.values != b.values


# --- cluster corpus --------------------------------------------------------


def test_corpus_sizes_and_truth_match_spec():
    spec = cluster_spec()
    corpus, truth = generate_cluster_corpus(spec, DEFAULT_TEMPLATE, burst())
    assert len(corpus) == 12
    assert sorted(truth.values()).count(1) == 6
    assert sorted(truth.values()).count(2) == 6
    assert set(truth) == {d.id for d in corpus}
    assert all(doc_id.startswith("c0") for doc_id in truth)


def test_every_document_carries_its_keyword():
    spec = cluster_spec()
    corpus, truth = generate_cluster_corpus(spec, DEFAULT_TEMPLATE, burst())
    by_kw = {1: "protest", 2: "terrorist act"}
    table = tokenize_corpus(corpus)
    for keyword_index, keyword in by_kw.items():
        carries = table.contains_any([keyword])
        for doc_id, has_it in zip(table, carries.tolist()):
            assert has_it or truth[doc_id] != keyword_index, doc_id


def test_document_dates_and_sources_stay_in_bounds():
    spec = cluster_spec()
    bspec = burst()
    corpus, _ = generate_cluster_corpus(spec, DEFAULT_TEMPLATE, bspec)
    last = bspec.start_date + timedelta(days=bspec.length_days - 1)
    for doc in corpus:
        assert bspec.start_date <= doc.day() <= last
        assert doc.source in DEFAULT_SOURCES


def test_cluster_corpus_is_byte_deterministic(tmp_path):
    spec = cluster_spec()
    out = []
    for run in range(2):
        corpus, truth = generate_cluster_corpus(spec, DEFAULT_TEMPLATE, burst())
        path = tmp_path / f"corpus{run}.jsonl"
        save_corpus(corpus, path)
        out.append((path.read_bytes(), truth))
    assert out[0] == out[1]


def test_cluster_corpus_seed_matters():
    a, _ = generate_cluster_corpus(cluster_spec(rng_seed=1), DEFAULT_TEMPLATE, burst())
    b, _ = generate_cluster_corpus(cluster_spec(rng_seed=2), DEFAULT_TEMPLATE, burst())
    assert [d.published_at for d in a] != [d.published_at for d in b]


def test_document_dates_follow_the_planted_burst():
    # a short series with a dominant bump: the per-day date histogram of
    # a moderately sized corpus must track the series shape closely
    bspec = BurstSpec(
        length_days=10, plant_shift=1, plant_scale=8,
        amplitude=50.0, baseline=0.1, rng_seed=5,
    )
    spec = cluster_spec(
        clusters=(ClusterDef("protest", vocab("pp"), 150),), rng_seed=5
    )
    corpus, _ = generate_cluster_corpus(spec, DEFAULT_TEMPLATE, bspec)
    series = generate_burst_series(DEFAULT_TEMPLATE, bspec)
    hist = [0.0] * bspec.length_days
    for doc in corpus:
        hist[(doc.day() - bspec.start_date).days] += 1.0
    assert pearson(hist, series.values) >= 0.9


def test_dates_cannot_be_sampled_from_a_series_without_mass():
    flat = LifecycleTemplate([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(DataError, match="^planted series has no mass to sample dates from$"):
        generate_cluster_corpus(cluster_spec(), flat, burst())


def test_dates_cannot_be_sampled_from_a_series_summing_past_the_float_range():
    # each day is finite, but the sum that dates are sampled from is not
    message = "^planted series sums past the float range: no date can be sampled$"
    with pytest.raises(DataError, match=message):
        generate_cluster_corpus(cluster_spec(), DEFAULT_TEMPLATE, burst(amplitude=1e308))


def test_date_sampling_is_proportional_not_truncated():
    # build_daily_series spans only the sampled days, which must sit
    # inside the planted window plus baseline days
    corpus, _ = generate_cluster_corpus(cluster_spec(), DEFAULT_TEMPLATE, burst())
    series = build_daily_series(corpus)
    assert sum(series.values) == float(len(corpus))


# --- the bundled fixture --------------------------------------------------


def test_the_fixture_recipe_regenerates_the_bundled_fixture(fixtures_dir, tmp_path):
    write_fixture(tmp_path)
    for name in ("series.csv", "corpus.jsonl", "truth.tsv"):
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name
