"""Steadiness test of the benchmark itself.

Usage, from the root of a checkout:

    python3 benchmarks/steadiness.py [--workload NAME ...]

Runs ``run.py`` once per seed on each workload (all of BENCHMARK.json's by
default), in two sets of ten distinct seeds. For every end-to-end metric it
reports the spread of each set (the distance between the first and third
quartile of its values, as a share of their median) and how far the second
set's median lies from the first set's. The two sets agree when, on every
metric, each spread and that distance, either way, are within the metric's
bound; the script exits 1 otherwise. It also marks each metric whose spreads
are all below a third of its bound, the margin the benchmark aims for. The
report goes to ``.bench_work/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2
SEEDS = 10


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    command = [sys.executable, *spec["command"][1:]]  # the command names python3

    report = {"sets": SETS, "seeds": SEEDS, "workloads": {}}
    steady = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            results = []
            for k in range(SEEDS):
                seed = 1000 * (s + 1) + k
                result = run_once(command, workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    steady = False
                results.append(result)
                print(f"{workload} set={s} seed={seed} correct={result['correct']} "
                      + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                      flush=True)
            sets.append(results)
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in results] for results in sets]
            medians = [statistics.median(v) for v in values]
            drift = [(m - medians[0]) / medians[0] for m in medians]
            spreads = [spread(v) for v in values]
            ok = max(map(abs, drift)) <= bound and max(spreads) <= bound
            margin = max(spreads) < bound / 3
            steady &= ok
            rows[name] = {"bound": bound, "spreads": spreads, "medians": medians,
                          "drift_from_first_set": drift, "values": values, "ok": ok,
                          "spreads_below_third_of_bound": margin}
            print(f"{workload} {name}: spreads={[round(x, 4) for x in spreads]} "
                  f"medians={[round(x, 6) for x in medians]} "
                  f"drift={[round(x, 4) for x in drift]} bound={bound} "
                  f"{'ok' if ok else 'NOT STEADY'}"
                  f"{'' if margin else ', spread above a third of the bound'}", flush=True)
        report["workloads"][workload] = rows
    out = Path(".bench_work") / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"{'sets agree' if steady else 'NOT STEADY'}; report in {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
