"""mzfringe benchmark: CLI workloads timed to a verified result.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0

Each pass runs the workload's seeded command list through ``mzfringe.cli.main``
in a fresh interpreter (``child.py``), one client in a closed loop: each
command starts when the previous one returns. Passes repeat until
``--seconds`` have gone by (at least ``MIN_PASSES``). After the last pass,
``gate.py`` checks every output of every pass; only then are numbers recorded.

End-to-end metrics (``--trace 0``):

- ``setup_s``: from the child's start until ``import mzfringe.cli`` returns,
  the median over the run's passes.
- ``wall_cal``: the time from the end of set-up until the last command
  returns, in units of a calibration loop (``child.calibrate``) timed just
  before and just after each command. Each command's time is divided by the
  mean of its two calibration times; the medians of these ratios over the
  run's passes are summed over the commands. On a shared 2-vCPU VM the same
  code runs up to 1.8x slower for seconds to minutes at a time. Over ten runs
  of the same code, the spread (interquartile range over median) of the
  median pass time in seconds reached 0.26; the calibration loop slows down
  with the program, and the spread of ``wall_cal`` stayed at or below 0.08.
  The pass time in seconds is printed and recorded too.
- ``peak_rss_mb``: the child's peak resident set, read before the gate, the
  median over the run's passes.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics BENCHMARK.json lists: those ``tracing.py`` computes
(medians over traced passes) and ``trace.overhead_share``, the traced
``wall_cal`` over the untraced one, minus 1.

A command fails when it exits non-zero or its output fails the gate;
``failed`` counts such (pass, command) pairs out of ``attempted``. The last
line of stdout is the JSON result. The run record, and for traced runs the
spans of one traced pass, are kept under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
# Metric names and units: the end-to-end and per-layer lists of BENCHMARK.json.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Passes per run at least: untraced, or untraced plus traced with --trace 1.
MIN_PASSES = 3
MIN_TRACED_PASSES = 4
# Every child and the gate must end within this many seconds of the run's start.
RUN_LIMIT_S = 170.0

VERSIONS = r"""
import json, platform
import numpy, scipy
import mzfringe.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


class RunError(Exception):
    """The benchmark cannot produce a result; exit non-zero without one."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, cwd: Path, env: dict, deadline: float, what: str):
    try:
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            proc = subprocess.run(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                  timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{what} did not finish within the run limit")
    if proc.returncode != 0:
        tail = (cwd / "stderr.txt").read_text(errors="replace")[-2000:]
        raise RunError(f"{what} exited with code {proc.returncode}:\n{tail}")


def run_pass(index: int, traced: bool, work: Path, env: dict, deadline: float) -> dict:
    pass_dir = work / f"pass-{index:02d}"
    pass_dir.mkdir()
    spawned = now()
    run_child([sys.executable, str(HERE / "child.py"), str(work / "commands.json"),
               env["PYTHONPATH"], "1" if traced else "0"],
              pass_dir, env, deadline, f"pass {index}")
    result = json.loads((pass_dir / "result.json").read_text())
    result["setup_s"] = result["setup_end"] - spawned
    result["traced"] = traced
    result["dir"] = str(pass_dir)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wall_cal(passes: list[dict]) -> float:
    """Sum over commands of the median over ``passes`` of the command's time
    divided by the mean of the calibration times on either side of it."""
    ratios = [[t / ((p["cal_s"][c] + p["cal_s"][c + 1]) / 2)
               for c, t in enumerate(p["command_s"])] for p in passes]
    return sum(map(statistics.median, zip(*ratios)))


def benchmark(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    started = now()
    deadline = started + RUN_LIMIT_S
    src = root / "src"
    if not (src / "mzfringe" / "__init__.py").is_file():
        raise RunError(f"no mzfringe package under {src}; run from the root of a checkout")
    work = root / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = generate(workload, seed)
    (work / "commands.json").write_text(json.dumps(commands))
    env = child_env(src)

    # Untimed warm-up: compiles bytecode and fills the file cache, which a
    # user's installed copy has already done.
    warm = work / "warm-up"
    warm.mkdir()
    run_child([sys.executable, "-c", VERSIONS], warm, env, deadline, "warm-up")
    versions = json.loads((warm / "stdout.txt").read_text())

    passes = []
    measure_start = now()
    while (len(passes) < (MIN_TRACED_PASSES if trace else MIN_PASSES)
           or now() - measure_start < seconds):
        passes.append(run_pass(len(passes), trace and len(passes) % 2 == 1,
                               work, env, deadline))

    gate_dir = work / "gate"
    gate_dir.mkdir()
    run_child([sys.executable, str(HERE / "gate.py"), str(work / "commands.json"),
               str(gate_dir / "gate.json"), *[p["dir"] for p in passes]],
              gate_dir, env, deadline, "gate")
    gate_failures = json.loads((gate_dir / "gate.json").read_text())["failures"]

    failed_pairs = {(p, c) for p, c, _ in gate_failures}
    for p, result in enumerate(passes):
        failed_pairs.update((p, c) for c, code in enumerate(result["codes"]) if code != 0)
    attempted = len(passes) * len(commands)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    summary = {name: quartiles([p[name] for p in plain])
               for name in ("setup_s", "wall_s", "peak_rss_mb")}
    values = {name: q2 for name, (_, q2, _) in summary.items()}
    values["wall_cal"] = wall_cal(plain)
    if trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in PER_LAYER_UNITS if name != "trace.overhead_share"}
        layers["trace.overhead_share"] = wall_cal(traced) / values["wall_cal"] - 1
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        shutil.copy(Path(traced[0]["dir"]) / "spans.json", work / "trace.json")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)), "versions": versions,
        "commands_per_pass": len(commands), "passes": len(passes),
        "untraced_passes": len(plain), "traced_passes": len(traced),
        "reported": values,
        "summary": {k: {"q1": q1, "median": q2, "q3": q3} for k, (q1, q2, q3) in summary.items()},
        "per_pass": {k: [p[k] for p in passes]
                     for k in ("traced", *summary, "command_s", "cal_s")},
        "failures": [{"pass": p, "command": c, "argv": commands[c]["argv"][:2], "reason": r}
                     for p, c, r in gate_failures],
        "exit_codes": [p["codes"] for p in passes],
        "missing_traced_functions": traced[0]["missing"] if traced else [],
        "elapsed_s": now() - started,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for p in passes:
        shutil.rmtree(p["dir"])

    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"passes={len(passes)} (untraced {len(plain)}, traced {len(traced)}) "
          f"commands/pass={len(commands)} nproc={record['nproc']} "
          + " ".join(f"{k}={v}" for k, v in versions.items()))
    for name, (q1, q2, q3) in summary.items():
        print(f"{name}: median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"{END_TO_END_UNITS.get(name, 's')} over {len(plain)} passes")
    print(f"wall_cal: {values['wall_cal']:.6g} cal over {len(plain)} passes")
    print(f"failed_share={len(failed_pairs) / attempted:.6g} "
          f"({len(failed_pairs)} of {attempted} commands)")
    for failure in record["failures"][:10]:
        print(f"gate failure: {failure}")
    if record["missing_traced_functions"]:
        print(f"traced functions not found: {record['missing_traced_functions']}")
    return {"correct": not failed_pairs, "attempted": attempted,
            "failed": len(failed_pairs), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           Path.cwd())
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
