"""Fixed reference work that measures how fast the host runs right now.

The host is shared and drifts in speed over minutes: while this
benchmark was built, one burst-grid scan took anywhere from 85 to 180 ms.
CPU time moves with wall time and steal time stays near zero, so the
slowdown cannot be subtracted.  Instead the benchmark times this kernel
between its in-process operations, the burst-grid scans, and scales
their times by ``REFERENCE_S / median kernel time``.  They then read as
seconds on a host where the kernel takes ``REFERENCE_S``.  The kernel mixes the kinds
of work opflow does: JSON decoding, regex tokenizing, dict counting,
sorting tuples and numpy window sums.  It never calls opflow, so a
change to opflow cannot move it.

Two other references calibrate work that runs in fresh processes.
Set-up time uses a fresh interpreter that imports the modules from
outside opflow that ``opflow.cli`` imports, timed just before each
``import opflow.cli``.  Pipeline runs use a fresh interpreter doing
pipeline-like work at a pipeline-like size (``REFERENCE_CHILD``), timed
before and after each run; the short in-process kernel tracks the
speed of a 15 s child too loosely.  Each reference constant is that
reference's median time on the host that made the baseline, so
calibrated times read as seconds on that host.
"""

from __future__ import annotations

import json
import re
import statistics
import time

import numpy as np

# Medians over the forty runs of one `perfbench/steadiness.py` on a shared
# 2-core x86-64 host (Python 3.11, numpy 2.4).  perfbench/baseline.json
# keeps the reference times of the baseline runs.
REFERENCE_S = 0.115  # kernel()
REFERENCE_IMPORTS_S = 0.247  # a fresh interpreter running REFERENCE_IMPORTS
REFERENCE_CHILD_S = 2.32  # a fresh interpreter running REFERENCE_CHILD
REFERENCE_IMPORTS = (
    "import argparse, collections, csv, dataclasses, datetime, hashlib, json, logging,"
    " math, pathlib, re; import numpy.lib.stride_tricks"
)
# JSON-decodes, tokenizes and counts 40,000 docs over a 60,000-word
# vocabulary, then ranks the counts: about 136 MB at its peak.
REFERENCE_CHILD = """
import collections, json, re
token = re.compile(r"[^\\W_]+")
lines = [
    json.dumps({"id": f"d{i}", "body": " ".join(f"w{(i * 7919 + j * 104729) % 60000}x" for j in range(24))})
    for i in range(40000)
]
counts, index = collections.Counter(), {}
for doc in map(json.loads, lines):
    index[doc["id"]] = token.findall(doc["body"].casefold())
    counts.update(index[doc["id"]])
sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
"""

_LINES = [
    json.dumps({"id": f"d{i}", "body": " ".join(f"w{(i * 7 + j) % 97}x" for j in range(14))})
    for i in range(3000)
]
_TOKEN = re.compile(r"[^\W_]+")
_SERIES = np.arange(4000, dtype=float)


def kernel() -> int:
    counts: dict[str, int] = {}
    for line in _LINES:
        for token in _TOKEN.findall(json.loads(line)["body"].casefold()):
            counts[token] = counts.get(token, 0) + 1
    for k in range(10, 60):
        windows = np.lib.stride_tricks.sliding_window_view(_SERIES, k)
        (windows - windows.mean(axis=1)[:, None]).sum(axis=1)
    cells = sorted(((i * 7919) % 33411, i) for i in range(33411))
    return len(counts) + len(cells)


class Calibration:
    """Kernel timings taken through one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get a calibrated time."""
        return REFERENCE_S / statistics.median(self.samples)
