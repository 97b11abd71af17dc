"""The benchmark's own correctness gate, run on one pass of each workload.

The command lists and the gate come from ``benchmarks/``, loaded by file path
so that the benchmark stays a directory of scripts rather than a package.
The pass's CSVs must also match, byte for byte, the sha256 digests recorded
in ``seed_1_csv_sha256.json``, and each command's exit code and one-line
stdout summary those in ``seed_1_stdout.json``; a change that alters them on
purpose regenerates the file. The tracer's function list is checked against the
package without installing the tracer.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from mzfringe.cli import main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
DIGESTS = json.loads((Path(__file__).resolve().parent / "seed_1_csv_sha256.json").read_text())
STDOUT = json.loads((Path(__file__).resolve().parent / "seed_1_stdout.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
gate = _load("gate")
tracing = _load("tracing")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_1_pass_clears_the_benchmark_gate(tmp_path, monkeypatch, capsys, workload):
    commands = workloads.generate(workload, 1)
    monkeypatch.chdir(tmp_path)
    runs = {}
    for command in commands:
        code = main(command["argv"])
        runs[command["output"]] = [code, capsys.readouterr().out]
    assert [output for output, (code, _) in runs.items() if code != 0] == []
    assert runs == {output: [code, line + "\n"]
                    for output, (code, line) in STDOUT[workload].items()}
    assert gate.gate(commands, [str(tmp_path)]) == []
    want = DIGESTS[workload]
    assert len(commands) == len(want)
    changed = [" ".join(command["argv"]) for command in commands
               if hashlib.sha256((tmp_path / command["output"]).read_bytes()).hexdigest()
               != want.get(command["output"])]
    assert changed == []


def test_traced_names_that_no_longer_resolve():
    # the one-spec wrappers are gone and their per-layer metrics read 0; this
    # set only shrinks, when the tracer follows the batch routines
    missing = set()
    for qualname in tracing.TRACED:
        module_name, fn_name = qualname.split(".")
        if not hasattr(importlib.import_module(f"mzfringe.{module_name}"), fn_name):
            missing.add(qualname)
    assert missing == {"arms.compose_arm", "interferometer.contrast_shared_env"}
