"""One pass of a workload in a fresh interpreter.

Usage: python3 child.py COMMANDS_JSON SRC_DIR TRACE

Runs from the pass directory, so the commands' relative output paths land
there. Set-up ends when ``mzfringe.cli`` has been imported, which is what every
command-line user pays. The pass then calls ``mzfringe.cli.main`` on each
command in turn, one client in a closed loop, and writes ``result.json``: the
set-up end on the system-wide monotonic clock, the pass's wall time, peak RSS,
exit codes, the time of each command and the calibration times. A fixed
calibration loop is timed before the first command and after each command, so
every command is bracketed by two measurements of the host's current speed.
With TRACE=1 it also writes the spans and per-layer metrics.
"""

import time

import mzfringe.cli

SETUP_END = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (imported after set-up ends on purpose)
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

# The calibration loop mixes what the program spends its time on: the
# interpreter, numpy calls on 4x4 matrices, and reads from memory beyond the
# 2 MiB per-core L2 cache. On a shared 2-vCPU VM this mix slowed down with the
# counts workload (log-log slope 1.13, correlation 0.98 over 67 passes), the
# pure-Python part alone less well (slope 1.23, correlation 0.89).
SMALL = numpy.eye(4) / 2
LARGE = numpy.ones(1 << 19)  # 4 MiB


def calibrate() -> float:
    """Time a fixed loop, a few milliseconds long."""
    start = time.perf_counter()
    x = 0
    for i in range(40_000):
        x += i * i
    m = SMALL
    for _ in range(800):
        m = SMALL @ m + SMALL
    for _ in range(4):
        LARGE.sum()
    return time.perf_counter() - start


def main() -> int:
    commands_path, src_dir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    package_dir = os.path.dirname(os.path.abspath(mzfringe.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src_dir):
        print(f"mzfringe imported from {package_dir}, not from {src_dir}", file=sys.stderr)
        return 3
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)

    tracer = None
    if trace:
        import tracing
        tracer = tracing.install()

    codes, command_s, cal_s = [], [], [calibrate()]
    for command in commands:
        start = time.perf_counter()
        codes.append(mzfringe.cli.main(command["argv"]))
        command_s.append(time.perf_counter() - start)
        cal_s.append(calibrate())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"setup_end": SETUP_END, "wall_s": sum(command_s),
              "peak_rss_mb": rss_kb / 1024.0, "codes": codes,
              "command_s": command_s, "cal_s": cal_s}
    if tracer is not None:
        result["layers"] = tracer.finish()
        result["missing"] = tracer.missing
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "sizes"],
                       "spans": tracer.spans}, fh)
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
