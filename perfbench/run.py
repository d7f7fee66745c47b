#!/usr/bin/env python3
"""opflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports opflow from the
checkout's ``src/`` and writes only under ``.perfbench/`` there.  The
workload's inputs are generated from ``--seed`` before timing starts.

With ``--trace 0`` it measures the end-to-end metrics: set-up time, the
median wall time of the workload's operation, peak memory and the share
of planted truth recovered.  The operation and set-up times are
calibrated against reference work timed through the run (see
``calibrate.py``).  With ``--trace 1`` it runs a fixed amount of the
workload both untraced and with spans around every call into opflow's
modules, and reports the per-layer metrics and the tracing overhead;
the spans are written to ``.perfbench/spans-<workload>-seed<seed>.json``.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output check passed, 1 when
one failed, and 2 when the checkout holds no opflow sources.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One client, no extra threads: children see one BLAS/OpenMP thread.
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("paper-pipeline", "burst-grid")
SETUP_REPEATS = 15
SCANS_PER_KERNEL = 4  # scans between two calibration kernel runs

ARTIFACTS = (
    "flow_corpus.jsonl", "series_raw.csv", "series_smoothed.csv", "correlogram.csv",
    "peaks.csv", "narrowed_corpus.jsonl", "terms.tsv", "event_terms.txt",
    "augmented_query.json", "event_corpus.jsonl", "source_edges.tsv",
    "source_nodes.tsv", "clusters.json",
)
MANIFEST = "manifest.txt"

# Quality floors below which a run counts as incorrect.
MIN_CLUSTER_ACCURACY = 0.95
MIN_BURST_HIT_RATE = 0.9
# Acceptance rule for a planted burst: shift within 3, scale within 5, c >= 0.9.
SHIFT_TOL, SCALE_TOL, MIN_PEAK_C = 3, 5, 0.9


class Checks:
    """Counts attempted and failed operations; every failure is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.add_run(problems)

    def add_run(self, problems: list[str]) -> None:
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        self.problems += problems


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def median_and_tail(values: list[float]) -> str:
    """Median, plus the highest whole percentile with at least ten
    samples beyond it, and the sample count."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} over {n} samples"
    if n < 11:
        return text + "; too few samples for a tail percentile"
    p = int(100 * (1 - 10 / n))
    ordered = sorted(values)
    return text + f", p{p} {ordered[min(n - 1, int(n * p / 100))]:.4f}"


# ---------------------------------------------------------------- set-up


def time_child(argv: list[str], tmp: Path) -> float:
    started = time.perf_counter()
    subprocess.run(argv, env=child_env(), cwd=tmp, check=True)
    return time.perf_counter() - started


def measure_setup(tmp: Path) -> float:
    """Wall time of a fresh interpreter running ``import opflow.cli``,
    calibrated by a reference interpreter timed just before each one.

    The reference imports the modules from outside opflow that
    ``opflow.cli`` imports (see ``calibrate.py``).  Each import is scaled
    by ``REFERENCE_IMPORTS_S / its reference's time``, and the median of
    these is returned.  One untimed run of each first compiles the
    bytecode cache, which users pay once per install, not per invocation.
    """
    from calibrate import REFERENCE_IMPORTS, REFERENCE_IMPORTS_S

    cmd = [sys.executable, "-c", "import opflow.cli"]
    ref = [sys.executable, "-c", REFERENCE_IMPORTS]
    times, refs = [], []
    for i in range(SETUP_REPEATS + 1):
        ref_s, cmd_s = time_child(ref, tmp), time_child(cmd, tmp)
        if i:
            refs.append(ref_s)
            times.append(cmd_s)
    print(f"setup_s: median {statistics.median(times):.4f} s uncalibrated"
          f" over {SETUP_REPEATS} fresh interpreters")
    print(f"reference imports_median_s: {statistics.median(refs):.6f} s")
    return REFERENCE_IMPORTS_S * statistics.median(t / r for t, r in zip(times, refs))


# ---------------------------------------------------------- pipeline runs


def run_pipeline_child(argv: list[str], tmp: Path) -> tuple[int, float, float]:
    """Spawn ``opflow pipeline``; return exit code, wall seconds from spawn
    to exit, and the child's peak resident memory in MB."""
    with open(tmp / "pipeline.log", "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=tmp, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024


def artifact_problems(out: Path) -> list[str]:
    missing = [name for name in ARTIFACTS + (MANIFEST,) if not (out / name).is_file()]
    return [f"missing pipeline artifacts: {missing}"] if missing else []


def output_problems(out: Path, work) -> tuple[list[str], float]:
    """Checks of one pipeline output against the planted truth; returns
    the problems found and the cluster accuracy."""
    problems = artifact_problems(out)
    if problems:
        return problems, 0.0
    with open(out / "series_raw.csv", newline="", encoding="utf-8") as handle:
        total = sum(float(row["value"]) for row in csv.DictReader(handle))
    if total != work.flow_size:
        problems.append(f"series_raw.csv sums to {total}, flow has {work.flow_size} docs")
    report = json.loads((out / "clusters.json").read_text(encoding="utf-8"))
    clustered = correct = 0
    for cluster in report["clusters"]:
        for member in cluster["members"]:
            clustered += 1
            correct += cluster["seed_terms"] == [work.keyword_of[member["doc_id"]]]
    clustered += len(report["unassigned_doc_ids"]) + len(report["omitted_doc_ids"])
    with open(out / "event_corpus.jsonl", encoding="utf-8") as handle:
        event_docs = sum(1 for line in handle if line.strip())
    if clustered != event_docs or not clustered:
        problems.append(f"clusters.json covers {clustered} docs, event corpus has {event_docs}")
        return problems, 0.0
    accuracy = correct / clustered
    if accuracy < MIN_CLUSTER_ACCURACY:
        problems.append(f"cluster accuracy {accuracy:.4f} < {MIN_CLUSTER_ACCURACY}")
    return problems, accuracy


def pipeline_argv(work, out: Path) -> list[str]:
    return ["pipeline", "--corpus", str(work.corpus_path), "--out-dir", str(out)] + work.flags


def measure_pipeline(work, seconds: float, tmp: Path, checks: Checks) -> dict:
    """``opflow pipeline`` in fresh child processes, one after another,
    while the next run is expected to end within ``seconds`` (at least two
    runs, so that repeats can be compared byte for byte).

    A reference child runs before the first pipeline run and after each
    one.  Each run is scaled by ``REFERENCE_CHILD_S / the mean of the two
    reference times around it``, and the median of these is returned.
    """
    from calibrate import REFERENCE_CHILD, REFERENCE_CHILD_S

    out = tmp / "out"
    argv = [sys.executable, "-m", "opflow.cli"] + pipeline_argv(work, out)
    ref = [sys.executable, "-c", REFERENCE_CHILD]
    times, refs, rounds, rss, accuracy = [], [time_child(ref, tmp)], [], [], 0.0
    first_manifest = None
    deadline = time.perf_counter() + seconds
    while len(times) < 2 or time.perf_counter() + statistics.median(rounds) <= deadline:
        rc, elapsed, peak_mb = run_pipeline_child(argv, tmp)
        refs.append(time_child(ref, tmp))
        times.append(elapsed)
        rounds.append(elapsed + refs[-1])
        rss.append(peak_mb)
        if rc != 0:
            log = (tmp / "pipeline.log").read_text(encoding="utf-8", errors="replace")
            checks.add_op([f"opflow pipeline exited {rc}: {log[-2000:]}"])
            continue
        if first_manifest is None:
            problems, accuracy = output_problems(out, work)
            if not problems:
                first_manifest = (out / MANIFEST).read_bytes()
        else:
            problems = artifact_problems(out)
            if not problems and (out / MANIFEST).read_bytes() != first_manifest:
                problems = ["manifest.txt differs between repeats of one input"]
        checks.add_op(problems)
    print(f"pipeline_s: {median_and_tail(times)} s (uncalibrated)")
    print(f"cluster_accuracy: {accuracy:.6f} ratio")
    print(f"reference child_median_s: {statistics.median(refs):.6f} s"
          f" over {len(refs)} children")
    calibrated = [REFERENCE_CHILD_S * t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
    return {
        "op_median_s": (statistics.median(calibrated), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "planted_recovery": (accuracy, "ratio"),
    }


def trace_pipeline(work, tmp: Path, checks: Checks, spans_path: Path) -> dict:
    """In-process pipeline runs on one input: untraced, traced, untraced.
    The overhead is the traced time minus the mean untraced time."""
    import opflow.cli as cli
    from spans import Tracer, instrument_pipeline, layer_metrics

    tracer = Tracer()
    tokenized_ids: set = set()
    manifests, untraced_s, traced_s = [], [], 0.0
    for i, label in enumerate(("untraced", "traced", "untraced")):
        out = tmp / f"{label}{i}"
        argv = pipeline_argv(work, out)
        started = time.perf_counter()
        if label == "traced":
            instrument_pipeline(tracer, tokenized_ids)
            try:
                rc = tracer.call("opflow pipeline", "cli", cli.main, argv)
            finally:
                tracer.restore()
            traced_s = time.perf_counter() - started
            traced_out = out
        else:
            rc = cli.main(argv)
            untraced_s.append(time.perf_counter() - started)
        problems = [f"{label} pipeline exited {rc}"] if rc else output_problems(out, work)[0]
        if not problems:
            manifests.append((out / MANIFEST).read_bytes())
            if manifests[0] != manifests[-1]:
                problems = [f"manifest.txt of {label} run {i} differs from run 0"]
        checks.add_op(problems)
    mismatches = tracer.subtree_self_mismatches()
    checks.add_run(mismatches)
    if not mismatches:
        print("self times: the spans under each root add up to its duration")

    artifact_bytes = sum((traced_out / n).stat().st_size for n in ARTIFACTS + (MANIFEST,))
    metrics = layer_metrics(tracer, tokenized_ids, artifact_bytes)
    metrics["trace_overhead_s"] = traced_s - statistics.mean(untraced_s)
    write_spans(tracer, spans_path)
    return metrics


# --------------------------------------------------------------- burst grid


def scan(fns, template, series):
    """One scan: the correlogram over the burst grid, then its top peak.
    ``fns`` supplies ``correlogram`` and ``detect_peaks``."""
    from workloads import BURST_SCALES, BURST_SHIFTS

    corr = fns.correlogram(series, template, scales=BURST_SCALES, shifts=BURST_SHIFTS)
    peaks = fns.detect_peaks(corr, threshold=0.0, top_n=1)
    return len(corr.cells), (peaks[0] if peaks else None)


def scan_problems(i: int, cells: int, peak, seen: dict) -> list[str]:
    from workloads import BURST_CELLS

    if cells != BURST_CELLS:
        return [f"series {i}: correlogram has {cells} cells, expected {BURST_CELLS}"]
    if peak is None:
        return [f"series {i}: no peak"]
    if seen.setdefault(i, peak) != peak:
        return [f"series {i}: top peak changed between scans: {seen[i]} then {peak}"]
    return []


def hit_rate(seen: dict) -> float:
    from workloads import BURST_SCALE, BURST_SHIFT

    hits = sum(
        1 for p in seen.values()
        if abs(p.shift - BURST_SHIFT) <= SHIFT_TOL
        and abs(p.scale - BURST_SCALE) <= SCALE_TOL
        and p.value >= MIN_PEAK_C
    )
    return hits / len(seen) if seen else 0.0


def check_hit_rate(rate: float, checks: Checks) -> None:
    if rate < MIN_BURST_HIT_RATE:
        checks.add_run([f"burst hit rate {rate:.4f} < {MIN_BURST_HIT_RATE}"])


def measure_burst(work, seconds: float, checks: Checks) -> dict:
    """Scans in this process, cycling through the series pool, for
    ``seconds`` (at least one full pass over the pool).  The median scan
    time is calibrated by the kernel, timed after every few scans."""
    import opflow.flowseries as flowseries
    from calibrate import Calibration

    template = flowseries.DEFAULT_TEMPLATE
    calib = Calibration()
    times, seen = [], {}
    deadline = time.perf_counter() + seconds
    while len(times) < len(work.series) or time.perf_counter() < deadline:
        i = len(times) % len(work.series)
        started = time.perf_counter()
        try:
            cells, peak = scan(flowseries, template, work.series[i])
        except Exception as exc:  # a failed scan is counted, not fatal
            checks.add_op([f"series {i}: scan raised {exc!r}"])
            continue
        finally:
            times.append(time.perf_counter() - started)
            if len(times) % SCANS_PER_KERNEL == 0:
                calib.sample()
        checks.add_op(scan_problems(i, cells, peak, seen))
    rate = hit_rate(seen)
    check_hit_rate(rate, checks)
    print(f"scan_s: {median_and_tail(times)} s (uncalibrated)")
    print(f"scans_per_s: {len(times) / sum(times):.4f} 1/s (uncalibrated)")
    print(f"burst_hit_rate: {rate:.6f} ratio over {len(seen)} planted series")
    print(f"reference kernel_median_s: {statistics.median(calib.samples):.6f} s"
          f" over {len(calib.samples)} kernel runs")
    return {
        "op_median_s": (statistics.median(times) * calib.factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "planted_recovery": (rate, "ratio"),
    }


def trace_burst(work, checks: Checks, spans_path: Path) -> dict:
    """Each series of the pool scanned untraced, then traced.  The
    overhead is the summed traced time minus the summed untraced time."""
    import opflow.flowseries as flowseries
    from spans import Tracer, instrument_scan, layer_metrics

    template = flowseries.DEFAULT_TEMPLATE
    plain = SimpleNamespace(
        correlogram=flowseries.correlogram, detect_peaks=flowseries.detect_peaks
    )
    tracer = Tracer()
    instrument_scan(tracer)
    seen: dict = {}
    overhead = 0.0
    try:
        for i, series in enumerate(work.series):
            started = time.perf_counter()
            untraced = scan(plain, template, series)
            middle = time.perf_counter()
            tracer.op = i
            traced = tracer.call("scan", "perfbench", scan, flowseries, template, series)
            overhead += (time.perf_counter() - middle) - (middle - started)
            checks.add_op(scan_problems(i, *untraced, seen))
            checks.add_op(scan_problems(i, *traced, seen))
    finally:
        tracer.restore()
    check_hit_rate(hit_rate(seen), checks)
    mismatches = tracer.subtree_self_mismatches()
    checks.add_run(mismatches)
    if not mismatches:
        print("self times: the spans under each root add up to its duration")

    metrics = layer_metrics(tracer, set(), 0)
    metrics["trace_overhead_s"] = overhead
    write_spans(tracer, spans_path)
    return metrics


# --------------------------------------------------------------------- main


def write_spans(tracer, path: Path) -> None:
    path.write_text(json.dumps(tracer.records()) + "\n", encoding="utf-8")
    print(f"spans: {len(tracer.spans)} written to {path}")


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple[dict, Checks]:
    import workloads

    checks = Checks()
    started = time.perf_counter()
    if workload == "burst-grid":
        work = workloads.burst_grid(seed)
        size = f"{len(work.series)} planted series"
    else:
        work = workloads.paper_pipeline(seed, tmp)
        size = f"{len(work.keyword_of)} docs, flow of {work.flow_size}"
    print(f"generate_s: {time.perf_counter() - started:.4f} s ({size}; not a metric)")

    if trace:
        spans_path = WORK / f"spans-{workload}-seed{seed}.json"
        if workload == "burst-grid":
            values = trace_burst(work, checks, spans_path)
        else:
            values = trace_pipeline(work, tmp, checks, spans_path)
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        for name, entry in metrics.items():
            print(f"{name}: {entry['value']} {entry['unit']}")
        return metrics, checks

    setup_s = measure_setup(tmp)
    if workload == "burst-grid":
        values = measure_burst(work, seconds, checks)
    else:
        values = measure_pipeline(work, seconds, tmp, checks)
    values["setup_s"] = (setup_s, "s")
    for name in ("op_median_s", "setup_s"):
        print(f"{name}: {values[name][0]:.6f} s (calibrated)")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    print(f"peak_rss_mb: {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"error_rate: {checks.failed}/{checks.attempted} ratio")
    return metrics, checks


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opflow" / "cli.py").is_file():
        print(f"perfbench: no opflow sources at {SRC / 'opflow'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)  # so that cleanup runs
    os.environ.update(THREADS)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        metrics, checks = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = not checks.problems and checks.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
