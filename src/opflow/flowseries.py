"""Daily flow dynamics and template-correlation analysis.

Turns a corpus into a gap-free daily count series, smooths it with a
centered moving average, and scans it against a 9-phase operation
lifecycle template: for every shift l and scale k on a grid, the series
window x[l:l+k] is Pearson-correlated with the template resampled to k
points.  The resulting correlogram localizes operation-like bursts; its
peaks map back to calendar date windows.

The correlogram is dense: one (scale x shift) float array, with boolean
masks for the admissible cells (l + k <= n) and the undefined ones.
Zero-variance windows (or a constant template) have no defined
correlation; they are marked in the ``undefined`` mask, never by a
value, and written as "NA" in CSV exports, so they can never masquerade
as real peaks.  The arrays are the interface; ``Correlogram.cells``
serves only the cell count and the values that the benchmark harness
reads.

Every scale shares one set-up: one read-only window view of the
zero-padded series, as wide as the widest fitting scale, whose first k
columns are the length-k windows; one interpolation that samples the
template at every fitting scale; and the masks and the final division
over the whole grid.  Only the window arithmetic runs one scale at a
time, with the same numpy operations as when each scale had its own
view and sampling, so every cell keeps its bits (a test pins them).
``detect_peaks`` keeps, by partition, only the cells at or above the
top_n-th largest value before it sorts them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import Corpus, read_line_file
from .errors import DataError

DEFAULT_SMOOTHING_WINDOW = 7


@dataclass
class DailySeries:
    """Per-day values over a contiguous date range (no gaps)."""

    start_date: date
    values: list[float]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("series must have at least one day")
        self.values = [float(v) for v in self.values]
        if not all(map(math.isfinite, self.values)):
            raise DataError("series values must be finite")
        if any(v < 0 for v in self.values):
            raise ValueError("series values must be non-negative")

    def dates(self) -> list[date]:
        return [self.start_date + timedelta(days=i) for i in range(len(self.values))]


@dataclass
class LifecycleTemplate:
    """Piecewise-linear operation lifecycle curve.

    Control points are finite (position, amplitude) pairs with positions
    strictly increasing from 0 to 1; amplitudes are non-negative.
    """

    control_points: list[tuple[float, float]]

    def __post_init__(self) -> None:
        pts = [(float(p), float(a)) for p, a in self.control_points]
        if len(pts) < 2:
            raise ValueError("template needs at least 2 control points")
        if not all(math.isfinite(p) and math.isfinite(a) for p, a in pts):
            raise ValueError("template control points must be finite")
        positions = [p for p, _ in pts]
        if positions[0] != 0.0 or positions[-1] != 1.0:
            raise ValueError("template positions must start at 0 and end at 1")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ValueError("template positions must be strictly increasing")
        if any(a < 0 for _, a in pts):
            raise ValueError("template amplitudes must be non-negative")
        self.control_points = pts


# Default 9-phase curve: amplitudes are configurable artifact defaults
# (overridable via a template file); the phases follow the standard
# operation lifecycle vocabulary.
DEFAULT_TEMPLATE = LifecycleTemplate(
    control_points=[
        (0.00, 0.10),  # background
        (0.15, 0.08),  # calm
        (0.25, 0.30),  # art preparation
        (0.35, 0.10),  # calm
        (0.45, 0.15),  # attack trigger
        (0.55, 1.00),  # peak of expectations
        (0.70, 0.25),  # loss of illusions
        (0.85, 0.45),  # public awareness
        (1.00, 0.30),  # productivity
    ],
)


@dataclass
class Peak:
    """A correlogram cell selected by detect_peaks, with its date window."""

    shift: int
    scale: int
    value: float
    window_start: date
    window_end: date


class _Cells:
    """The admissible cells, as the benchmark harness reads them:
    ``len()``, counted once, and ``values()``, each cell's float in
    (l, k) order, or None where the correlation is undefined."""

    def __init__(self, corr: Correlogram) -> None:
        self._corr = corr
        self._len = int(np.count_nonzero(corr.admissible))

    def __len__(self) -> int:
        return self._len

    def values(self) -> Iterator[float | None]:
        _, _, values, undefined = _admissible_cells(self._corr)
        return (None if flat else v for v, flat in zip(values, undefined))


@dataclass(eq=False)  # arrays have no single truth value to compare by
class Correlogram:
    """Correlation values over the (scale, shift) grid.

    ``values[i, j]`` is the correlation of the window
    x[shifts[j] : shifts[j] + scales[i]] with the template resampled to
    scales[i] points.  It is meaningful only where ``admissible`` (the
    window fits: l + k <= series length) and not ``undefined`` (the
    window or the template has zero variance).  ``cells`` gives the
    benchmark harness the count of admissible cells and their values.
    """

    shifts: list[int]
    scales: list[int]
    values: np.ndarray
    admissible: np.ndarray
    undefined: np.ndarray
    start_date: date

    def __post_init__(self) -> None:
        self.cells = _Cells(self)


def _admissible_cells(corr: Correlogram) -> tuple[list[int], list[int], list[float], list[bool]]:
    """Shift, scale, value and undefined flag of every admissible cell,
    in (l, k) order."""
    # the transposed mask is shift-major, so its cells come in (l, k) order
    shift_at, scale_at = np.nonzero(corr.admissible.T)
    return (
        np.asarray(corr.shifts, dtype=np.int64)[shift_at].tolist(),
        np.asarray(corr.scales, dtype=np.int64)[scale_at].tolist(),
        corr.values[scale_at, shift_at].tolist(),
        corr.undefined[scale_at, shift_at].tolist(),
    )


def build_daily_series(corpus: Corpus) -> DailySeries:
    """Documents per day from the earliest through the latest date."""
    if len(corpus) == 0:
        raise ValueError("cannot build a series from an empty corpus")
    days = corpus.days
    counts = np.bincount(days - days[0]).astype(float)
    return DailySeries(start_date=date.fromordinal(int(days[0])), values=counts.tolist())


def smooth(series: DailySeries, window: int = DEFAULT_SMOOTHING_WINDOW) -> DailySeries:
    """Centered moving average; the window shrinks at the series edges.

    ``window`` must be odd so the average is centered on each day.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"smoothing window must be odd and positive, got {window}")
    half = window // 2
    vals = np.asarray(series.values, dtype=float)
    n = len(vals)
    out = [float(np.mean(vals[max(0, i - half):min(n, i + half + 1)])) for i in range(n)]
    return DailySeries(series.start_date, out)


def _sample_scales(template: LifecycleTemplate, scales: np.ndarray) -> np.ndarray:
    """The template resampled to k points on the grid i/(k-1), for each
    scale k in turn, concatenated: one interpolation serves every scale."""
    ends = np.cumsum(scales)
    index = np.arange(ends[-1]) - np.repeat(ends - scales, scales)
    xs, ys = np.array(template.control_points).T
    return np.interp(index / np.repeat(scales - 1, scales), xs, ys)


def sample_template(template: LifecycleTemplate, k: int) -> list[float]:
    """Resample the template to k points on the uniform grid (i-1)/(k-1)."""
    if k < 2:
        raise ValueError(f"template must be sampled at k >= 2 points, got {k}")
    return _sample_scales(template, np.array([k])).tolist()


def correlogram(
    series: DailySeries,
    template: LifecycleTemplate,
    scales: list[int],
    shifts: list[int],
) -> Correlogram:
    """Evaluate the correlation over the whole (scale, shift) grid.

    Inadmissible pairs (l + k beyond the series end) are masked out.
    """
    if not scales:
        raise ValueError("scale list must not be empty")
    if not shifts:
        raise ValueError("shift list must not be empty")
    if any(k < 2 for k in scales):
        raise ValueError("all scales must be >= 2")
    if any(l < 0 for l in shifts):
        raise ValueError("all shifts must be >= 0")
    scales = sorted(set(int(k) for k in scales))
    shifts = sorted(set(int(l) for l in shifts))
    values = np.asarray(series.values, dtype=float)
    n = len(values)
    # squares overflow past a binary exponent of 500, or underflow below -500
    largest = np.frexp(values.max(initial=0.0))[1]
    smallest = np.frexp(values[values > 0.0].min(initial=1.0))[1]
    rescale = largest > 500 or smallest < -500
    scale_grid = np.asarray(scales, dtype=np.int64)
    shift_grid = np.asarray(shifts, dtype=np.int64)
    ends = shift_grid + scale_grid[:, None]
    admissible = ends <= n
    # A window of identical values has zero variance; the correlation is
    # undefined there, not zero.  A window is flat exactly when no value
    # changes inside it: changes[i] counts the j < i with values[j + 1] != values[j].
    changes = np.concatenate(([0], np.cumsum(values[1:] != values[:-1])))
    undefined = admissible & (
        changes.take(ends - 1, mode="clip") == changes.take(shift_grid, mode="clip")
    )
    numerators = np.zeros(admissible.shape)
    sums_of_squares = np.zeros(admissible.shape)
    template_ss = np.zeros((len(scales), 1))
    # shifts are sorted, so the admissible ones (l <= n - k) lead; scales
    # are too, so the scales with an admissible shift lead
    fits = np.count_nonzero(admissible, axis=1)
    fitting = scale_grid[fits > 0]
    if len(fitting):
        # row l holds values[l:l + k] in its first k columns, for every fitting k
        widest = int(fitting[-1])
        padded = np.zeros(n + widest - 1)
        padded[:n] = values
        rows = sliding_window_view(padded, widest)
        samples = _sample_scales(template, fitting)
        starts = np.cumsum(fitting) - fitting
        # the template, too, has no variance at a scale where its samples are equal
        flat = np.minimum.reduceat(samples, starts) == np.maximum.reduceat(samples, starts)
        undefined[:len(fitting)] |= flat[:, None] & admissible[:len(fitting)]
        per_scale = zip(fitting.tolist(), starts.tolist(), fits.tolist())
        for i, (k, start, fit) in enumerate(per_scale):
            windows = rows[:n - k + 1, :k]
            if rescale:  # r is scale-free and a power-of-two scale is exact
                windows = np.ldexp(windows, -np.frexp(windows.max(axis=1))[1][:, None])
            p = samples[start:start + k]
            p_centered = p - p.mean()
            template_ss[i] = np.sum(p_centered * p_centered)
            x_centered = windows - windows.mean(axis=1)[:, None]
            at = shift_grid[:fit]
            numerators[i, :fit] = np.sum(x_centered * p_centered, axis=1)[at]
            sums_of_squares[i, :fit] = np.sum(x_centered * x_centered, axis=1)[at]
    grid = np.zeros(admissible.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(
            numerators, np.sqrt(sums_of_squares * template_ss), out=grid, where=admissible
        )
    return Correlogram(
        shifts=shifts,
        scales=scales,
        values=grid,
        admissible=admissible,
        undefined=undefined,
        start_date=series.start_date,
    )


def detect_peaks(corr: Correlogram, threshold: float, top_n: int) -> list[Peak]:
    """Defined cells at or above the threshold, best first.

    Ordering is total: value descending, then smaller shift, then
    smaller scale.  Thresholds above 1 are clamped to 1; nan is refused.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    if math.isnan(threshold):
        raise ValueError("threshold must not be nan")
    threshold = min(float(threshold), 1.0)
    hit = corr.admissible & ~corr.undefined & (corr.values >= threshold)
    hits = int(np.count_nonzero(hit))
    if hits > top_n:
        # no cell below the top_n-th largest value makes the cut; ties at it stay
        cut = np.partition(corr.values[hit], hits - top_n)[hits - top_n]
        hit &= corr.values >= cut
    scale_at, shift_at = np.nonzero(hit)
    scale = np.asarray(corr.scales)[scale_at]
    shift = np.asarray(corr.shifts)[shift_at]
    value = corr.values[scale_at, shift_at]
    # lexsort is stable and its last key is the primary one
    best = np.lexsort((scale, shift, -value))[:top_n]
    return [
        Peak(
            shift=l,
            scale=k,
            value=v,
            window_start=corr.start_date + timedelta(days=l),
            window_end=corr.start_date + timedelta(days=l + k - 1),
        )
        for l, k, v in zip(shift[best].tolist(), scale[best].tolist(), value[best].tolist())
    ]


def load_template(path: str | Path) -> LifecycleTemplate:
    """Template file: one "position amplitude" pair per line, '#' comments."""
    points: list[tuple[float, float]] = []
    for line_no, data, _ in read_line_file(path):
        parts = data.split()
        if len(parts) != 2:
            raise DataError(f"line {line_no}: expected 'position amplitude', got {data!r}")
        try:
            point = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise DataError(f"line {line_no}: non-numeric control point {data!r}") from None
        if not all(map(math.isfinite, point)):
            raise DataError(f"line {line_no}: non-finite control point {data!r}")
        points.append(point)
    if not points:
        raise DataError(f"template file {path} has no control points")
    try:
        return LifecycleTemplate(points)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_series_csv(series: DailySeries, path: str | Path) -> None:
    """CSV export with header date,value."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("date,value\n")
        for day, value in zip(series.dates(), series.values):
            handle.write(f"{day.isoformat()},{_format_value(value)}\n")


def write_correlogram_csv(corr: Correlogram, path: str | Path) -> None:
    """CSV export with header l,k,c; undefined cells emit the token NA."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("l,k,c\n")
        handle.writelines(
            f"{l},{k},{'NA' if flat else repr(v)}\n"
            for l, k, v, flat in zip(*_admissible_cells(corr))
        )


def write_peaks_csv(peaks: list[Peak], path: str | Path) -> None:
    """CSV export with header l,k,c,window_start,window_end."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("l,k,c,window_start,window_end\n")
        for p in peaks:
            handle.write(
                f"{p.shift},{p.scale},{repr(p.value)},"
                f"{p.window_start.isoformat()},{p.window_end.isoformat()}\n"
            )
