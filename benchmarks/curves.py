"""Scaling curves from the spans of a traced run.

Usage, from the root of a checkout, after a traced run of ``deep-arms``:

    python3 benchmarks/run.py --workload deep-arms --seed 1 --seconds 30 --trace 1
    python3 benchmarks/curves.py .bench_work/deep-arms-seed1-trace1/trace.json

Prints the median self time of ``compose_arm`` against crystals per arm (with its
branch and output counts), and the median self time of
``contrast_shared_env`` against the distinct bins per arm it joins.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from tracing import self_times


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    compose = defaultdict(list)
    contrast = defaultdict(list)
    for (name, _, _, _, sizes), self_s in zip(spans, self_times(spans)):
        if name == "arms.compose_arm":
            compose[(sizes["elements"], sizes["branches"], sizes["kraus_out"])].append(self_s)
        elif name == "interferometer.contrast_shared_env":
            contrast[(sizes["upper_bins"], sizes["lower_bins"])].append(self_s)

    print("compose_arm: elements branches kraus_out calls median_self_s")
    for (elements, branches, out), times in sorted(compose.items()):
        print(f"  {elements:3d} {branches:8d} {out:6d} {len(times):5d} "
              f"{statistics.median(times):.6f}")
    print("contrast_shared_env: upper_bins lower_bins calls median_self_s")
    for (upper, lower), times in sorted(contrast.items()):
        print(f"  {upper:6d} {lower:6d} {len(times):5d} {statistics.median(times):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
