#!/usr/bin/env python3
"""Regenerate the bundled test fixture under tests/fixtures.

The fixture is fully determined by the two spec files this script
writes first; `opflow synth` derives the series, corpus, and truth
files from them with fixed seeds, so reruns on the same platform
reproduce identical bytes.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from opflow.cli import main as opflow_main
from opflow.flowseries import DEFAULT_TEMPLATE

BURST_SPEC = """\
# one lifecycle-shaped bump in a two-month window
length_days = 61
plant_shift = 8
plant_scale = 40
amplitude = 40
baseline = 2
noise_sigma = 1.5
seed = 20160601
start_date = 2016-06-01
"""

CLUSTER_SPEC = """\
# four planted topics, one keyed by a two-word phrase
cluster = protest:60
cluster = referendum:60
cluster = petition:40
cluster = terrorist act:40
vocab_size = 20
shared_size = 40
seed = 777
"""

STOPWORDS = """\
# background words treated as noise in term ranking tests
common00
common01
"""

LEXICON = """\
# the shipped default event dictionary, in file form
protest
referendum
petition
signatures
demonstration
terrorist act
"""


# the lifecycle phase of each control point of DEFAULT_TEMPLATE
PHASES = (
    "background",
    "calm",
    "art preparation",
    "calm",
    "attack trigger",
    "peak of expectations",
    "loss of illusions",
    "public awareness",
    "productivity",
)


def template_lines() -> str:
    lines = ["# lifecycle template, position amplitude # phase"]
    for (pos, amp), label in zip(DEFAULT_TEMPLATE.control_points, PHASES, strict=True):
        lines.append(f"{pos} {amp}  # {label}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "tests" / "fixtures",
    )
    args = parser.parse_args()
    out: Path = args.out_dir
    out.mkdir(parents=True, exist_ok=True)

    (out / "burst.spec").write_text(BURST_SPEC, encoding="utf-8")
    (out / "clusters.spec").write_text(CLUSTER_SPEC, encoding="utf-8")
    (out / "stopwords.txt").write_text(STOPWORDS, encoding="utf-8")
    (out / "lexicon.txt").write_text(LEXICON, encoding="utf-8")
    (out / "template.txt").write_text(template_lines(), encoding="utf-8")

    status = opflow_main([
        "synth", "--burst-spec", str(out / "burst.spec"),
        "--cluster-spec", str(out / "clusters.spec"), "--out-dir", str(out),
    ])
    if status:
        return status
    for name in ("series.csv", "corpus.jsonl", "truth.tsv"):
        (out / f"synth_{name}").replace(out / name)
    print(f"fixture written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
