"""Rewrite the pinned outputs of the benchmark workloads.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/pin_outputs.py [SEED ...]

For each seed (default 1, 2 and 3) it runs every workload's seeded command
list through ``mzfringe.cli.main`` in a temporary directory and rewrites
``tests/seed_<seed>_csv_sha256.json`` (the sha256 of each command's CSV) and
``tests/seed_<seed>_stdout.json`` (each command's exit code and one-line
stdout summary), which ``test_benchmark_gate.py`` checks. Run it only for a
change that alters these outputs on purpose, and say which ones moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from mzfringe.cli import main

TESTS = Path(__file__).resolve().parent
SEEDS = (1, 2, 3)


def _workloads():
    path = TESTS.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pin(seed: int, workloads) -> tuple[dict, dict]:
    """CSV digests and (exit code, stdout line) of every command of ``seed``,
    by workload and output file, in run order."""
    digests, stdout = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for workload in sorted(workloads.WORKLOADS):
                digests[workload], stdout[workload] = {}, {}
                for command in workloads.generate(workload, seed):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(command["argv"])
                    data = Path(command["output"]).read_bytes()
                    digests[workload][command["output"]] = hashlib.sha256(data).hexdigest()
                    stdout[workload][command["output"]] = [code, out.getvalue().removesuffix("\n")]
        finally:
            os.chdir(cwd)
    return digests, stdout


def _write(path: Path, data: dict) -> None:
    """``data``, a dict of dicts, as JSON indented by one space per level, with
    each innermost value on its key's line."""
    workloads = [f" {json.dumps(workload)}: {{\n"
                 + ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                               for key, value in entries.items())
                 + "\n }" for workload, entries in data.items()]
    path.write_text("{\n" + ",\n".join(workloads) + "\n}\n")


def run(seeds) -> None:
    workloads = _workloads()
    for seed in seeds:
        digests, stdout = pin(seed, workloads)
        _write(TESTS / f"seed_{seed}_csv_sha256.json", digests)
        _write(TESTS / f"seed_{seed}_stdout.json", stdout)
        print(f"seed {seed}: pinned {sum(map(len, digests.values()))} commands")


if __name__ == "__main__":
    run([int(seed) for seed in sys.argv[1:]] or SEEDS)
