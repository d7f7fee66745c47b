"""Daily series, lifecycle template, windowed correlation, peaks."""

from __future__ import annotations

import collections
import gc
import math
import re
import tempfile
import tracemalloc
import weakref
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import oracles
from opflow.corpus import Corpus, Document, parse_timestamp
from opflow.errors import DataError
from opflow.flowseries import (
    DEFAULT_SMOOTHING_WINDOW,
    DEFAULT_TEMPLATE,
    Correlogram,
    DailySeries,
    LifecycleTemplate,
    _sample_scales,
    build_daily_series,
    correlogram,
    detect_peaks,
    load_template,
    sample_template,
    smooth,
    write_correlogram_csv,
    write_peaks_csv,
    write_series_csv,
)
from opflow.synthflow import BurstSpec, generate_burst_series

START = date(2016, 6, 1)


def series(values, start=START):
    return DailySeries(start_date=start, values=list(values))


# --- series basics ---------------------------------------------------------


def test_series_rejects_empty_and_negative():
    # in this order: empty, then non-finite (a data error), then negative
    with pytest.raises(ValueError, match="at least one day"):
        series([])
    with pytest.raises(ValueError, match="non-negative") as refused:
        series([1.0, -0.0, -0.5])
    assert type(refused.value) is ValueError
    for bad in (math.nan, math.inf):
        with pytest.raises(DataError, match="finite"):
            series([-1.0, bad, 2.0])


def test_series_owns_a_read_only_float64_copy_of_its_values():
    for given in ([1, 2, 3], np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])):
        s = DailySeries(START, given)
        assert s.values.dtype == np.float64 and not s.values.flags.writeable
        given[0] = 9
        assert s.values.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            s.values[0] = 9.0


def test_a_series_holds_8_bytes_a_day():
    # a list of float objects would hold 32: an 8-byte slot and a 24-byte float
    n = 100_000
    given = np.arange(n, dtype=float)  # made before tracing, so only the series counts
    tracemalloc.start()
    try:
        s = DailySeries(START, given)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(s.values) == n
    assert held <= 8 * n + 4096, held / n


def test_series_dates_are_contiguous():
    s = series([1, 2, 3])
    assert s.dates() == [date(2016, 6, 1), date(2016, 6, 2), date(2016, 6, 3)]


def test_build_daily_series_counts_per_day():
    docs = [
        Document(id=f"d{i}", published_at=parse_timestamp(ts), source="s",
                 title="tt", body="bb")
        for i, ts in enumerate(
            ["2016-06-01T01:00:00Z", "2016-06-01T09:00:00Z", "2016-06-03T12:00:00Z"]
        )
    ]
    s = build_daily_series(Corpus.from_documents(docs))
    assert s.start_date == date(2016, 6, 1)
    assert s.values.tolist() == [2.0, 0.0, 1.0]


def test_build_daily_series_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        build_daily_series(Corpus.from_documents([]))


# --- smoothing -------------------------------------------------------------


def test_smooth_default_window_is_seven():
    import inspect

    assert DEFAULT_SMOOTHING_WINDOW == 7
    assert inspect.signature(smooth).parameters["window"].default == 7


def test_smooth_shrinks_at_edges():
    s = smooth(series([0, 0, 7, 0, 0]), window=3)
    assert s.values.tolist() == [0.0, 7 / 3, 7 / 3, 7 / 3, 0.0]


def test_smooth_window_one_is_identity():
    s = series([3, 1, 4, 1, 5])
    assert smooth(s, window=1).values.tolist() == s.values.tolist()


def test_smooth_constant_series_unchanged():
    s = smooth(series([4, 4, 4, 4, 4, 4, 4, 4]), window=7)
    assert s.values.tolist() == [4.0] * 8


def test_smooth_preserves_total_roughly_and_rejects_even_window():
    for window in (4, 0, -3):
        message = f"^smoothing window must be odd and positive, got {window}$"
        with pytest.raises(ValueError, match=message):
            smooth(series([1, 2, 3]), window=window)


@pytest.mark.parametrize("n", [1, 2, 61, 365, 1461])
def test_smooth_keeps_the_bits_of_the_per_day_loop(n):
    # count series, as build_daily_series makes them, with bursts of a few
    # hundred docs so that sums and means have all their bits
    rng = np.random.default_rng(n)
    counts = rng.poisson(3.0, n) + (rng.random(n) < 0.05) * rng.integers(100, 900, n)
    for window in (1, 3, 7, 9, 2 * n + 1):
        got = np.array(smooth(series(counts), window).values)
        want = np.array(oracles.smooth_loop(counts, window))
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), window


# --- template --------------------------------------------------------------


def test_default_template_has_nine_phases_peaking_at_the_sixth():
    pts = DEFAULT_TEMPLATE.control_points
    assert len(pts) == 9
    amplitudes = [a for _, a in pts]
    assert max(amplitudes) == amplitudes[5] == 1.0


def test_template_validation():
    with pytest.raises(ValueError):
        LifecycleTemplate([(0.0, 1.0)])
    with pytest.raises(ValueError, match="start at 0"):
        LifecycleTemplate([(0.1, 1.0), (1.0, 0.5)])
    with pytest.raises(ValueError, match="strictly increasing"):
        LifecycleTemplate([(0.0, 1.0), (0.5, 0.2), (0.5, 0.3), (1.0, 0.1)])
    with pytest.raises(ValueError, match="non-negative"):
        LifecycleTemplate([(0.0, 1.0), (1.0, -0.1)])
    for bad in ([(0, .1), (math.nan, .5), (1, .2)], [(0, .1), (.5, math.inf), (1, .2)],
                [(0, .1), (.5, math.nan), (1, .2)]):
        with pytest.raises(ValueError, match="finite"):
            LifecycleTemplate(bad)


def test_sample_template_endpoints_hit_control_amplitudes():
    samples = sample_template(DEFAULT_TEMPLATE, 5)
    assert samples[0] == 0.10
    assert samples[-1] == 0.30


def test_sample_template_matches_piecewise_oracle():
    for k in (2, 3, 7, 9, 40, 101):
        got = sample_template(DEFAULT_TEMPLATE, k)
        want = oracles.sample_piecewise(DEFAULT_TEMPLATE.control_points, k)
        assert len(got) == k
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12


@pytest.mark.parametrize("template", [
    DEFAULT_TEMPLATE,
    LifecycleTemplate([(0.0, 0.0), (1 / 3, 2.5), (0.7, 0.1), (1.0, 1.0)]),
], ids=["default", "four-point"])
def test_one_sampling_of_every_scale_equals_each_scale_sampled_alone(template):
    scales = np.arange(2, 401)
    batched = _sample_scales(template, scales)
    xs, ys = (np.array(column) for column in zip(*template.control_points))
    start = 0
    for k in scales.tolist():
        got = [v.hex() for v in batched[start:start + k].tolist()]
        alone = np.interp(np.arange(k, dtype=float) / (k - 1), xs, ys)
        assert got == [v.hex() for v in alone.tolist()], k
        assert got == [v.hex() for v in sample_template(template, k)], k
        start += k
    assert start == len(batched)


def test_sample_template_rejects_tiny_k():
    with pytest.raises(ValueError):
        sample_template(DEFAULT_TEMPLATE, 1)


def test_load_template_round_trip(tmp_path, fixtures_dir):
    t = load_template(fixtures_dir / "template.txt")
    assert t.control_points == DEFAULT_TEMPLATE.control_points


def test_load_template_rejects_garbage(tmp_path):
    p = tmp_path / "t.txt"
    named = re.escape(f"{p}: ")
    p.write_text("0 1 extra\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{named}line 1: expected 'position amplitude'"):
        load_template(p)
    p.write_text("0 zz\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{named}line 1: non-numeric control point '0 zz'$"):
        load_template(p)
    p.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(DataError, match="no control points"):
        load_template(p)
    for bad in ("nan 0.5", "0.5 inf", "0.5 -Infinity"):
        p.write_text(f"0 0.1\n{bad}\n1 0.3\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{named}line 2: non-finite"):
            load_template(p)
    # the template's own rules name the file too
    p.write_text("0.1 1\n1 0.5\n", encoding="utf-8")
    message = f"^{named}template positions must start at 0 and end at 1$"
    with pytest.raises(DataError, match=message):
        load_template(p)


# --- windowed correlation --------------------------------------------------


def test_correlation_frozen_example():
    # corr([3,2,5], [1,1,2]) = 15 / sqrt(14*18 * ... ) = 2.5 / sqrt(7)
    c = oracles.correlation_cell(series([3, 2, 5]), 0, 3, [1.0, 1.0, 2.0])
    assert c == pytest.approx(2.5 / math.sqrt(7), abs=1e-15)


def test_correlation_zero_variance_is_none():
    assert oracles.correlation_cell(series([4, 4, 4]), 0, 3, [1.0, 2.0, 3.0]) is None
    assert oracles.correlation_cell(series([1, 2, 3]), 0, 3, [5.0, 5.0, 5.0]) is None


def test_correlation_window_bounds():
    with pytest.raises(KeyError):  # an inadmissible window has no cell
        oracles.correlation_cell(series([1, 2, 3, 4]), 3, 2, [1.0, 2.0])


@settings(max_examples=200)
@given(
    values=st.lists(st.integers(0, 30), min_size=4, max_size=40),
    template=st.lists(
        st.floats(0, 1, allow_nan=False, width=32), min_size=4, max_size=4
    ),
    data=st.data(),
)
def test_correlation_agrees_with_fsum_oracle(values, template, data):
    s = series(values)
    k = 4
    l = data.draw(st.integers(0, len(values) - k))
    got = oracles.correlation_cell(s, l, k, template)
    want = oracles.pearson(values[l:l + k], template)
    if want is None:
        assert got is None
    else:
        assert got is not None and abs(got - want) <= 1e-12


def test_correlation_affine_invariance_spot():
    samples = sample_template(DEFAULT_TEMPLATE, 9)
    up = series([5.0 + 3.0 * v for v in samples])
    down = series([50.0 - 3.0 * v for v in samples])
    assert oracles.correlation_cell(up, 0, 9, samples) == pytest.approx(1.0, abs=1e-12)
    assert oracles.correlation_cell(down, 0, 9, samples) == pytest.approx(-1.0, abs=1e-12)


# --- correlogram -----------------------------------------------------------


def test_correlogram_grid_and_admissibility():
    s = series(range(10))
    corr = correlogram(s, DEFAULT_TEMPLATE, scales=[3, 8], shifts=[0, 4, 7])
    assert set(oracles.cells(corr)) == {(0, 3), (4, 3), (7, 3), (0, 8)}
    assert corr.start_date == START


def test_correlogram_cells_equal_scalar_calls():
    s = series([2, 9, 4, 4, 7, 1, 0, 3, 8, 8, 5, 2])
    scales = [2, 3, 5, 8]
    shifts = list(range(0, 10))
    corr = correlogram(s, DEFAULT_TEMPLATE, scales=scales, shifts=shifts)
    for (l, k), got in oracles.cells(corr).items():
        want = oracles.correlation_cell(s, l, k, sample_template(DEFAULT_TEMPLATE, k))
        assert got == want  # bit-identical shared path


def test_correlogram_input_validation():
    s = series(range(10))
    with pytest.raises(ValueError):
        correlogram(s, DEFAULT_TEMPLATE, scales=[], shifts=[0])
    with pytest.raises(ValueError):
        correlogram(s, DEFAULT_TEMPLATE, scales=[3], shifts=[])
    with pytest.raises(ValueError):
        correlogram(s, DEFAULT_TEMPLATE, scales=[1], shifts=[0])
    with pytest.raises(ValueError):
        correlogram(s, DEFAULT_TEMPLATE, scales=[3], shifts=[-1])


def test_correlogram_flat_series_all_undefined():
    corr = correlogram(series([5] * 9), DEFAULT_TEMPLATE, scales=[3, 4], shifts=[0, 2])
    assert corr.undefined[corr.admissible].all()
    assert oracles.cells(corr) == {(0, 3): None, (2, 3): None, (0, 4): None, (2, 4): None}


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(0, 30), min_size=2, max_size=16),
    power=st.integers(-300, 300),
    spike=st.sampled_from([[], [1e300, 0.0]]),
    data=st.data(),
)
def test_correlogram_is_scale_free_from_1e_minus_300_to_1e300(values, power, spike, data):
    # squares of values past about 1e154 overflow and below 1e-162 underflow;
    # a spike ahead of the series must not cost the windows after it
    n = len(spike) + len(values)
    scales = data.draw(st.lists(st.integers(2, len(values)), min_size=1, max_size=4))
    scaled = series(spike + [v * 10.0**power for v in values])
    corr = correlogram(scaled, DEFAULT_TEMPLATE, scales=scales, shifts=list(range(n)))
    for (l, k), got in oracles.cells(corr).items():
        assert got is None or (math.isfinite(got) and abs(got) <= 1 + 1e-12)
        if l < len(spike):
            continue
        start = l - len(spike)
        want = oracles.pearson(values[start:start + k], sample_template(DEFAULT_TEMPLATE, k))
        if want is None:
            assert got is None
        else:
            assert got is not None and abs(got - want) <= 1e-12


def test_correlogram_rescales_tiny_windows_of_an_ordinary_series():
    # the largest value is ordinary, but squares of the 1e-170 window
    # underflow; they would in the oracle too, so it reads the window
    # times 1e170, which r does not depend on
    values = [1, 0, 1e-170, 3e-170, 2e-170, 5e-170, 4e-170, 7e-170]
    corr = correlogram(series(values), DEFAULT_TEMPLATE, scales=[6], shifts=[2])
    want = oracles.pearson([1, 3, 2, 5, 4, 7], sample_template(DEFAULT_TEMPLATE, 6))
    assert round(want, 3) == 0.585
    assert abs(oracles.cells(corr)[(2, 6)] - want) <= 1e-12


# --- peaks -----------------------------------------------------------------


def _burst_corr():
    samples = sample_template(DEFAULT_TEMPLATE, 8)
    values = [1.0] * 20
    for i, v in enumerate(samples):
        values[6 + i] = 1.0 + 10.0 * v
    return correlogram(
        series(values), DEFAULT_TEMPLATE, scales=list(range(4, 13)),
        shifts=list(range(0, 17)),
    )


def test_detect_peaks_orders_and_dates():
    corr = _burst_corr()
    peaks = detect_peaks(corr, threshold=0.5, top_n=5)
    assert peaks, "planted burst must produce peaks"
    top = peaks[0]
    assert (top.shift, top.scale) == (6, 8)
    assert top.value == pytest.approx(1.0, abs=1e-12)
    assert top.window_start == START.replace(day=7)
    assert top.window_end == START.replace(day=14)
    values = [p.value for p in peaks]
    assert values == sorted(values, reverse=True)


def test_detect_peaks_threshold_and_top_n():
    corr = _burst_corr()
    assert len(detect_peaks(corr, threshold=0.0, top_n=3)) == 3
    # anything above 1 clamps to 1
    assert detect_peaks(corr, 1.5, 3) == detect_peaks(corr, 1.0, 3)
    with pytest.raises(ValueError):
        detect_peaks(corr, threshold=0.5, top_n=0)


def test_detect_peaks_refuses_a_nan_threshold():
    corr = _burst_corr()
    with pytest.raises(ValueError, match="threshold must not be nan"):
        detect_peaks(corr, threshold=math.nan, top_n=5)
    # the infinities keep their meaning: every defined cell, or the clamp to 1
    every = corr.values.size
    assert len(detect_peaks(corr, -math.inf, every)) == int(np.count_nonzero(
        corr.admissible & ~corr.undefined
    ))
    assert detect_peaks(corr, math.inf, every) == detect_peaks(corr, 1.0, every)


def test_detect_peaks_empty_on_flat_series():
    corr = correlogram(series([2] * 8), DEFAULT_TEMPLATE, scales=[3], shifts=[0, 1])
    assert detect_peaks(corr, threshold=0.0, top_n=5) == []


# values with flat runs, repeats, and magnitudes whose squares underflow
# unless the kernel rescales (nan and inf cells are tested directly below)
_CELL_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 5.0]),
    st.sampled_from([0.0, 1e-200, 3e-200]),
    st.floats(0, 50, allow_nan=False),
)
_TEMPLATES = st.sampled_from([
    DEFAULT_TEMPLATE,
    LifecycleTemplate([(0.0, 0.5), (1.0, 0.5)]),  # constant: every cell undefined
    LifecycleTemplate([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]),
])


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(st.tuples(_CELL_VALUES, st.integers(1, 4)), min_size=1, max_size=12),
    template=_TEMPLATES,
    threshold=st.one_of(st.floats(-1.5, 1.5), st.sampled_from([-1.5, -0.0, 0.0, 1.0, 1.5])),
    top_n=st.one_of(st.integers(1, 4), st.integers(1, 10_000)),
    data=st.data(),
)
def test_peaks_and_csv_match_the_tuple_sort_oracle(runs, template, threshold, top_n, data):
    values = [v for v, length in runs for _ in range(length)]
    n = len(values)
    # grids reach past the series end, so some pairs are inadmissible
    scales = data.draw(st.lists(st.integers(2, n + 3), min_size=1, max_size=10))
    shifts = data.draw(st.lists(st.integers(0, n + 2), min_size=1, max_size=16))
    corr = correlogram(series(values), template, scales=scales, shifts=shifts)

    pairs = {(l, k) for l in shifts for k in scales if l + k <= n}
    cells = oracles.cells(corr)
    assert set(cells) == pairs
    # the two reads the benchmark harness makes of the correlogram
    assert len(corr.cells) == len(cells)
    assert list(map(repr, corr.cells.values())) == list(map(repr, cells.values()))
    for (l, k), v in cells.items():
        flat = len(set(values[l:l + k])) == 1 or len(set(sample_template(template, k))) == 1
        assert (v is None) == flat

    got = [(p.shift, p.scale, p.value.hex()) for p in detect_peaks(corr, threshold, top_n)]
    want = [(l, k, v.hex()) for l, k, v in oracles.detect_peaks(cells, threshold, top_n)]
    assert got == want
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        write_correlogram_csv(corr, path)
        assert path.read_bytes() == oracles.correlogram_csv(cells)


def _pinned_correlogram(values, template, scales, shifts):
    """A regression pin, not an oracle: the arithmetic of the correlogram
    when each scale made its own window view and template sampling,
    frozen here, so that any cell whose bits move shows.  Returns the
    values, admissible and undefined arrays."""
    scales = sorted(set(scales))
    shifts = sorted(set(shifts))
    values = np.asarray(values, dtype=float)
    n = len(values)
    changes = np.concatenate(([0], np.cumsum(values[1:] != values[:-1])))
    largest = np.frexp(values.max(initial=0.0))[1]
    smallest = np.frexp(values[values > 0.0].min(initial=1.0))[1]
    rescale = largest > 500 or smallest < -500
    xs, ys = (np.array(column) for column in zip(*template.control_points))
    shift_grid = np.asarray(shifts)
    grid = np.zeros((len(scales), len(shifts)))
    admissible = np.zeros(grid.shape, dtype=bool)
    undefined = np.zeros(grid.shape, dtype=bool)
    for i, k in enumerate(scales):
        fit = int(np.searchsorted(shift_grid, n - k, side="right"))
        if not fit:
            continue
        samples = np.interp(np.arange(k, dtype=float) / (k - 1), xs, ys)
        windows = sliding_window_view(values, k)
        if rescale:
            windows = np.ldexp(windows, -np.frexp(windows.max(axis=1))[1][:, None])
        p_mean = samples.mean()
        p_centered = samples - p_mean
        p_ss = np.sum(p_centered * p_centered)
        x_mean = windows.mean(axis=1)
        x_centered = windows - x_mean[:, None]
        numerator = np.sum(x_centered * p_centered, axis=1)
        x_ss = np.sum(x_centered * x_centered, axis=1)
        flat = changes[k - 1:] == changes[:n - k + 1]
        if bool(np.all(samples == samples[0])):
            flat = np.ones_like(flat)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = numerator / np.sqrt(x_ss * p_ss)
        grid[i, :fit] = corr[shift_grid[:fit]]
        undefined[i, :fit] = flat[shift_grid[:fit]]
        admissible[i, :fit] = True
    return grid, admissible, undefined


def assert_pinned(values, template, scales, shifts):
    corr = correlogram(series(values), template, scales=scales, shifts=shifts)
    grid, admissible, undefined = _pinned_correlogram(values, template, scales, shifts)
    assert np.array_equal(corr.values.view(np.int64), grid.view(np.int64))
    assert np.array_equal(corr.admissible, admissible)
    assert np.array_equal(corr.undefined, undefined)


# flat runs, magnitudes on both sides of the rescale path, and runs long
# enough for windows past numpy's 8- and 128-wide summation blocks
_PIN_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 5.0]),
    st.sampled_from([1e-200, 3e-200, 1e200, 4e200]),
    st.floats(0, 50, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    runs=st.lists(st.tuples(_PIN_VALUES, st.integers(1, 12)), min_size=1, max_size=16),
    template=_TEMPLATES,
    data=st.data(),
)
def test_correlogram_keeps_the_bits_of_the_per_scale_kernel(runs, template, data):
    values = [v for v, length in runs for _ in range(length)]
    n = len(values)
    # unsorted and repeated, with scales and shifts past the series end
    scales = data.draw(st.lists(st.integers(2, n + 3), min_size=1, max_size=12))
    shifts = data.draw(st.one_of(
        st.lists(st.integers(0, n + 2), min_size=1, max_size=24), st.just(list(range(n))),
        # consecutive shifts from past 0, as "--shifts a..b" gives them
        st.integers(1, n + 2).flatmap(
            lambda lo: st.integers(lo, n + 2).map(lambda hi: list(range(lo, hi + 1)))
        ),
    ))
    assert_pinned(values, template, scales, shifts)


def test_correlogram_keeps_the_bits_of_the_per_scale_kernel_on_a_planted_year():
    spec = BurstSpec(length_days=365, plant_shift=120, plant_scale=40, amplitude=100.0,
                     baseline=5.0, noise_sigma=5.0, rng_seed=7)
    values = generate_burst_series(DEFAULT_TEMPLATE, spec).values
    for shifts in (range(356), range(5, 300)):  # every shift, and a run from past 0
        assert_pinned(values, DEFAULT_TEMPLATE, list(range(10, 121)), list(shifts))


def _traced_peak(call):
    """call()'s result and its tracemalloc peak, above what was traced
    before it; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _default_grid_year():
    """The planted year and its default grid: 64,620 admissible cells."""
    spec = BurstSpec(length_days=365, plant_shift=120, plant_scale=40, amplitude=100.0,
                     baseline=5.0, noise_sigma=5.0, rng_seed=7)
    burst = generate_burst_series(DEFAULT_TEMPLATE, spec)
    return burst, DEFAULT_TEMPLATE, list(range(7, 366)), list(range(359))


def _grid_bytes(corr):
    return corr.values.nbytes + corr.admissible.nbytes + corr.undefined.nbytes


def test_correlogram_peak_memory_is_its_output_and_one_rows_work():
    # each scale's row is computed whole, so no (scale x shift) scratch
    # array adds to the three the correlogram returns
    grid = _default_grid_year()
    corr, peak = _traced_peak(lambda: correlogram(*grid))
    assert peak < 3.5 * _grid_bytes(corr), peak / _grid_bytes(corr)


def test_csv_and_cell_values_read_the_correlogram_one_shift_at_a_time(tmp_path):
    corr = correlogram(*_default_grid_year())
    assert len(corr.cells) == 64620
    for read in (lambda: write_correlogram_csv(corr, tmp_path / "c.csv"),
                 lambda: collections.deque(corr.cells.values(), maxlen=0)):
        _, peak = _traced_peak(read)
        assert peak < 0.25 * _grid_bytes(corr), peak / _grid_bytes(corr)


def test_a_dropped_correlogram_is_freed_without_the_cyclic_collector():
    # a reference cycle would keep the grid arrays until the collector
    # ran; reading the cells first shows that they hold none either
    enabled = gc.isenabled()
    gc.disable()
    try:
        corr = _burst_corr()
        assert len(corr.cells) == 117 and len(list(corr.cells.values())) == 117
        dropped = weakref.ref(corr)
        del corr
        assert dropped() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("power", [700, -700])
def test_correlogram_rescales_a_template_of_extreme_amplitudes(power):
    # the template's squares would overflow at 2**700 and underflow at
    # 2**-700; r does not depend on its scale, and a power of two is exact
    spec = BurstSpec(length_days=365, plant_shift=120, plant_scale=40, amplitude=100.0,
                     baseline=5.0, noise_sigma=5.0, rng_seed=7)
    burst = generate_burst_series(DEFAULT_TEMPLATE, spec)
    scaled = LifecycleTemplate([(x, y * 2.0**power) for x, y in DEFAULT_TEMPLATE.control_points])
    grid = {"scales": list(range(10, 121)), "shifts": list(range(356))}
    want = correlogram(burst, DEFAULT_TEMPLATE, **grid)
    got = correlogram(burst, scaled, **grid)
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    assert np.array_equal(got.admissible, want.admissible)
    assert np.array_equal(got.undefined, want.undefined)


def test_detect_peaks_keeps_every_tie_at_the_top_n_cut():
    # five cells share 0.5 and five share a zero of either sign, so most
    # top_n cut inside a tie; a nan sits in a defined cell, and an
    # undefined and an inadmissible cell hold values that must not count
    nan, inf = float("nan"), float("inf")
    corr = Correlogram(
        shifts=[0, 1, 2, 3, 4],
        scales=[2, 3, 4],
        values=np.array([
            [0.5, 0.0, 0.5, inf, 0.0],
            [-0.0, 0.5, nan, 0.5, -0.0],
            [0.5, 0.0, 0.25, 0.5, 0.9],
        ]),
        admissible=np.array([[True] * 5, [True] * 5, [True] * 4 + [False]]),
        undefined=np.array([[False] * 5, [False] * 5, [False] * 3 + [True, False]]),
        start_date=START,
    )
    cells = oracles.cells(corr)
    for threshold in (-inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0):
        for top_n in range(1, 16):  # 12 cells are defined, so the last top_n keep all
            got = [(p.shift, p.scale, p.value.hex()) for p in detect_peaks(corr, threshold, top_n)]
            want = [(l, k, v.hex()) for l, k, v in oracles.detect_peaks(cells, threshold, top_n)]
            assert got == want, (threshold, top_n)
    assert [(p.shift, p.scale) for p in detect_peaks(corr, 0.0, 2)] == [(3, 2), (0, 2)]
    eighth = detect_peaks(corr, 0.0, 8)[-1]
    assert (eighth.shift, eighth.scale, eighth.value.hex()) == (0, 3, "-0x0.0p+0")


def test_peaks_and_csv_read_nan_and_inf_cells_as_the_oracle_does(tmp_path):
    # values the kernel no longer makes, in a hand-built correlogram
    nan, inf = float("nan"), float("inf")
    corr = Correlogram(
        shifts=[0, 1, 2, 3],
        scales=[2, 3],
        values=np.array([[nan, inf, 0.5, 0.25], [-inf, inf, 0.75, 0.0]]),
        admissible=np.array([[True, True, True, True], [True, True, True, False]]),
        undefined=np.array([[False, False, False, True], [False, False, False, False]]),
        start_date=START,
    )
    cells = oracles.cells(corr)
    assert len(corr.cells) == len(cells) == 7
    # repr, since nan equals no other nan
    assert list(map(repr, corr.cells.values())) == list(map(repr, cells.values()))
    for threshold, top_n in [(-1.5, 10), (0.6, 10), (0.0, 1), (1.5, 10)]:
        got = [(p.shift, p.scale, p.value) for p in detect_peaks(corr, threshold, top_n)]
        assert got == oracles.detect_peaks(cells, threshold, top_n)
    assert [(p.shift, p.scale) for p in detect_peaks(corr, -1.5, 10)] == [
        (1, 2), (1, 3), (2, 3), (2, 2)
    ]
    path = tmp_path / "c.csv"
    write_correlogram_csv(corr, path)
    assert path.read_bytes() == oracles.correlogram_csv(cells)
    assert path.read_text() == (
        "l,k,c\n0,2,nan\n0,3,-inf\n1,2,inf\n1,3,inf\n2,2,0.5\n2,3,0.75\n3,2,NA\n"
    )


# --- csv writers -----------------------------------------------------------


def test_write_series_csv_format(tmp_path):
    p = tmp_path / "s.csv"
    write_series_csv(series([3, 0, 2.5]), p)
    assert p.read_text() == "date,value\n2016-06-01,3\n2016-06-02,0\n2016-06-03,2.5\n"


def test_write_correlogram_csv_marks_undefined(tmp_path):
    corr = correlogram(series([1, 1, 1, 5]), DEFAULT_TEMPLATE, scales=[3], shifts=[0, 1])
    p = tmp_path / "c.csv"
    write_correlogram_csv(corr, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "l,k,c"
    assert lines[1] == "0,3,NA"  # flat window
    assert lines[2].startswith("1,3,")


def test_write_peaks_csv_round_trips_floats(tmp_path):
    corr = _burst_corr()
    peaks = detect_peaks(corr, threshold=0.5, top_n=2)
    p = tmp_path / "p.csv"
    write_peaks_csv(peaks, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "l,k,c,window_start,window_end"
    value = float(lines[1].split(",")[2])
    assert value == peaks[0].value
