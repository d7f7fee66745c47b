"""Daily flow dynamics and template-correlation analysis.

Turns a corpus into a gap-free daily count series, smooths it with a
centered moving average, and scans it against a 9-phase operation
lifecycle template: for every shift l and scale k on a grid, the series
window x[l:l+k] is Pearson-correlated with the template resampled to k
points.  The resulting correlogram localizes operation-like bursts; its
peaks map back to calendar date windows.

A daily series holds one read-only float64 array of its values, copied
once when the series is made; no stage turns it into a list and back.

The correlogram is dense: one (scale x shift) float array, with boolean
masks for the admissible cells (l + k <= n) and the undefined ones.
Zero-variance windows (or template samples) have no defined
correlation; they are marked in the ``undefined`` mask, never by a
value, and written as "NA" in CSV exports, so they can never masquerade
as real peaks.  The arrays are the interface; ``Correlogram.cells``, a
view built on access, serves the benchmark harness the cell count and
the values, one shift column at a time, as the CSV export reads them.

Every scale shares one set-up: one read-only window view of the
zero-padded series, as wide as the widest fitting scale, whose first k
columns are the length-k windows, and one interpolation that samples the
template at every fitting scale.  Then each scale's row is computed
whole, values and undefined mask, on the rows of the requested shifts
that fit, gathered from the view.  That copy is rescaled (for extreme
values), centered and, once its products with the template are summed,
squared in place; each window's sum is one ``np.add.reduce`` over its
contiguous row of k values, and the division and the flat-window test
write straight into the row of the returned arrays.  These are the
arithmetic steps of the kernel that gave each scale its own view and
sampling, so every cell keeps its bits (a test pins them), and the work
follows the grid.  The only arrays of grid size are the three the
correlogram returns.
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


@dataclass(eq=False)  # arrays have no single truth value to compare by
class DailySeries:
    """Per-day values over a contiguous date range (no gaps).

    ``values`` is a read-only float64 array that the series owns: it is
    copied once from the list or array it is given, so changing that
    afterwards does not change the series.  It holds 8 bytes a day.
    """

    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if len(values) < 1:
            raise ValueError("series must have at least one day")
        if not np.isfinite(values).all():
            raise DataError("series values must be finite")
        if (values < 0).any():
            raise ValueError("series values must be non-negative")
        values.flags.writeable = False
        self.values = values

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
    ``len()``, their count, and ``values()``, each cell's float in
    (l, k) order, or None where the correlation is undefined."""

    def __init__(self, corr: Correlogram) -> None:
        self._corr = corr

    def __len__(self) -> int:
        return int(np.count_nonzero(self._corr.admissible))

    def values(self) -> Iterator[float | None]:
        for _, _, values, undefined in _admissible_cells(self._corr):
            yield from (None if flat else v for v, flat in zip(values, undefined))


@dataclass(eq=False)  # arrays have no single truth value to compare by
class Correlogram:
    """Correlation values over the (scale, shift) grid.

    ``values[i, j]`` is the correlation of the window
    x[shifts[j] : shifts[j] + scales[i]] with the template resampled to
    scales[i] points.  It is meaningful only where ``admissible`` (the
    window fits: l + k <= series length) and not ``undefined`` (the
    window or the template has zero variance).  ``cells``, built on each
    access, serves the benchmark harness the admissible cells.
    """

    shifts: list[int]
    scales: list[int]
    values: np.ndarray
    admissible: np.ndarray
    undefined: np.ndarray
    start_date: date

    @property
    def cells(self) -> _Cells:
        return _Cells(self)


def _admissible_cells(
    corr: Correlogram,
) -> Iterator[tuple[int, list[int], list[float], list[bool]]]:
    """Per shift l, in order: l, and the scale, value and undefined flag
    of each admissible cell (l, k), in k order."""
    # scales are sorted, so a column's admissible scales lead it
    fits = np.count_nonzero(corr.admissible, axis=0).tolist()
    for j, (l, fit) in enumerate(zip(corr.shifts, fits)):
        yield l, corr.scales[:fit], corr.values[:fit, j].tolist(), corr.undefined[:fit, j].tolist()


def build_daily_series(corpus: Corpus) -> DailySeries:
    """Documents per day from the earliest through the latest date."""
    if len(corpus) == 0:
        raise ValueError("cannot build a series from an empty corpus")
    days = corpus.days
    return DailySeries(date.fromordinal(int(days[0])), np.bincount(days - days[0]))


def smooth(series: DailySeries, window: int = DEFAULT_SMOOTHING_WINDOW) -> DailySeries:
    """Centered moving average; the window shrinks at the series edges.

    ``window`` must be odd so the average is centered on each day.  Each
    day's sum adds its window's values left to right and is divided by
    the number of days the window holds.  On a count series every sum is
    exact, so each value is the correctly rounded mean.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"smoothing window must be odd and positive, got {window}")
    vals = series.values
    n = len(vals)
    half = min(window // 2, n - 1)  # a wider window holds the whole series
    padded = np.concatenate([np.zeros(half), vals, np.zeros(half)])
    sums = sum(padded[offset:offset + n] for offset in range(2 * half + 1))
    days = np.arange(n)
    counts = np.minimum(days + half, n - 1) - np.maximum(days - half, 0) + 1
    return DailySeries(series.start_date, sums / counts)


def _sample_scales(template: LifecycleTemplate, scales: np.ndarray) -> np.ndarray:
    """The template resampled to k points on the grid i/(k-1), for each
    scale k in turn, concatenated: one interpolation serves every scale.
    Every control point is finite, but a slope between two can overflow,
    so a sample past the float range is a DataError."""
    starts = np.cumsum(scales) - scales
    # every integer here is below 2**53, so the float positions are exact
    positions = np.arange(scales.sum(), dtype=float)
    positions -= np.repeat(starts, scales)
    positions /= np.repeat(scales - 1, scales)
    xs, ys = np.array(template.control_points).T
    samples = np.interp(positions, xs, ys)
    del positions  # before the finiteness mask, which would add to the peak
    if not np.isfinite(samples).all():
        raise DataError("template samples overflow: a slope between two control points"
                        " is past the float range")
    return samples


def sample_template(template: LifecycleTemplate, k: int) -> list[float]:
    """Resample the template to k points on the uniform grid (i-1)/(k-1)."""
    if k < 2:
        raise ValueError(f"template must be sampled at k >= 2 points, got {k}")
    return _sample_scales(template, np.array([k])).tolist()


def _extreme(values: np.ndarray) -> bool:
    """Whether squares overflow (a binary exponent past 500) or underflow (one below -500)."""
    largest = np.frexp(values.max(initial=0.0))[1]
    smallest = np.frexp(values[values > 0.0].min(initial=1.0))[1]
    return largest > 500 or smallest < -500


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
    values = series.values
    n = len(values)
    rescale = _extreme(values)
    scale_grid = np.asarray(scales, dtype=np.int64)
    shift_grid = np.asarray(shifts, dtype=np.int64)
    # shifts are sorted, so the admissible ones (l <= n - k) lead; scales
    # are too, so the scales with an admissible shift lead
    fits = np.searchsorted(shift_grid, n - scale_grid, side="right")
    admissible = np.arange(len(shifts)) < fits[:, None]
    grid = np.zeros(admissible.shape)
    undefined = np.zeros(admissible.shape, dtype=bool)
    fitting = scale_grid[fits > 0]
    if len(fitting):
        # row l holds values[l:l + k] in its first k columns, for every fitting k
        widest = int(fitting[-1])
        padded = np.zeros(n + widest - 1)
        padded[:n] = values
        rows = sliding_window_view(padded, widest)
        # A window of identical values has zero variance; the correlation is
        # undefined there, not zero.  A window is flat exactly when no value
        # changes inside it: changes[i] counts the j < i with values[j + 1] != values[j].
        changes = np.concatenate(([0], np.cumsum(values[1:] != values[:-1])))
        at = shift_grid[:fits[0]]  # the shifts at which the smallest scale fits
        changes_at = changes[at]
        samples = _sample_scales(template, fitting)
        rescale_template = _extreme(samples)
        starts = np.cumsum(fitting) - fitting
        # the template, too, has no variance at a scale where its samples are equal
        flat = np.minimum.reduceat(samples, starts) == np.maximum.reduceat(samples, starts)
        per_scale = zip(fitting.tolist(), starts.tolist(), fits.tolist(), flat.tolist())
        with np.errstate(invalid="ignore", divide="ignore"):  # a flat window or template is 0/0
            for i, (k, start, fit, flat_template) in enumerate(per_scale):
                # the gather copies the windows, so they are centered in place
                x = rows[at[:fit], :k]
                if rescale:  # r is scale-free and a power-of-two scale is exact
                    np.ldexp(x, -np.frexp(x.max(axis=1))[1][:, None], out=x)
                p = samples[start:start + k]
                if rescale_template:
                    p = np.ldexp(p, -np.frexp(p.max())[1])
                p_centered = p - np.add.reduce(p) / k
                p_ss = np.add.reduce(p_centered * p_centered)
                x -= (np.add.reduce(x, axis=1) / k)[:, None]
                numerator = np.add.reduce(x * p_centered, axis=1)
                x_ss = np.add.reduce(np.multiply(x, x, out=x), axis=1)
                np.multiply(x_ss, p_ss, out=x_ss)
                np.divide(numerator, np.sqrt(x_ss, out=x_ss), out=grid[i, :fit])
                np.equal(changes[k - 1:][at[:fit]], changes_at[:fit], out=undefined[i, :fit])
                if flat_template:
                    undefined[i, :fit] = True
    return Correlogram(
        shifts=shifts,
        scales=scales,
        values=grid,
        admissible=admissible,
        undefined=undefined,
        start_date=series.start_date,
    )


def detect_peaks(corr: Correlogram, threshold: float, top_n: int = 10) -> list[Peak]:
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
    """Template file: one "position amplitude" pair per line, '#' comments.
    A fault names the file."""
    points: list[tuple[float, float]] = []
    for line_no, data in read_line_file(path):
        parts = data.split()
        if len(parts) != 2:
            raise DataError(f"{path}: line {line_no}: expected 'position amplitude', got {data!r}")
        try:
            point = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise DataError(f"{path}: line {line_no}: non-numeric control point {data!r}") from None
        if not all(map(math.isfinite, point)):
            raise DataError(f"{path}: line {line_no}: non-finite control point {data!r}")
        points.append(point)
    if not points:
        raise DataError(f"template file {path} has no control points")
    try:
        return LifecycleTemplate(points)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_series_csv(series: DailySeries, path: str | Path) -> None:
    """CSV export with header date,value."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("date,value\n")
        for day, value in zip(series.dates(), series.values.tolist()):
            handle.write(f"{day.isoformat()},{_format_value(value)}\n")


def write_correlogram_csv(corr: Correlogram, path: str | Path) -> None:
    """CSV export with header l,k,c; undefined cells emit the token NA."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("l,k,c\n")
        for l, scales, values, undefined in _admissible_cells(corr):
            handle.writelines(
                f"{l},{k},{'NA' if flat else repr(v)}\n"
                for k, v, flat in zip(scales, values, undefined)
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
