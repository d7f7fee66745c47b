#!/usr/bin/env python3
"""Steadiness check: run the benchmark in two sets and compare them with its bounds.

    python3 perfbench/steadiness.py [--out FILE]

Each set runs every workload of BENCHMARK.json once per seed (set 1
uses seeds 1..10, set 2 seeds 11..20), untraced, with ``run_seconds``
from BENCHMARK.json.  For each workload and end-to-end metric it reports
the median and the spread, the distance between the first and third
quartile as a share of the median.  The check fails when a spread
exceeds the metric's bound, when set 2's median is worse than set 1's
by more than the bound, or when a run fails.  ``--out`` writes every
value as JSON, with the median reference times of every run (see
``calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = 10  # per set
REFERENCE_LINE = re.compile(r"^reference (\S+): (\S+) s", re.MULTILINE)  # printed by run.py


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return result, {name: float(v) for name, v in REFERENCE_LINE.findall(proc.stdout)}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write every measured value here as JSON")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[set][workload][metric or reference] -> one value per seed
    values = [{w: {} for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for seed in range(s * SEEDS + 1, (s + 1) * SEEDS + 1):
            for w in workloads:
                result, references = run_once(spec["command"], w, seed, spec["run_seconds"])
                measured = {n: v["value"] for n, v in result["metrics"].items()} | references
                for name, value in measured.items():
                    values[s][w].setdefault(name, []).append(value)
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{name}={value:.4g}" for name, value in measured.items()
                ), flush=True)

    ok = True
    print(f"\n{'workload':<16}{'metric':<18}{'bound':>7}  per set: median / spread")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells = []
            first = statistics.median(values[0][w][name])
            for s in range(SETS):
                series = values[s][w][name]
                median, sp = statistics.median(series), spread(series)
                flags = ""
                if sp > bound:
                    flags += " SPREAD>BOUND"
                    ok = False
                if s and worse_by(first, median, m["better"]) > bound:
                    flags += " WORSE>BOUND"
                    ok = False
                if sp > bound / 3:
                    flags += " (spread above a third of the bound)"
                cells.append(f"{median:.4g} / {sp:.4f}{flags}")
            print(f"{w:<16}{name:<18}{bound:>7}  " + " | ".join(cells))
    metric_names = {m["name"] for m in metrics}
    for w in workloads:
        for name in values[0][w].keys() - metric_names:
            every = [v for set_values in values for v in set_values[w][name]]
            print(f"{w} reference {name}: median {statistics.median(every):.4f} s over all runs")
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
