"""The benchmark's own correctness gate, run on one pass of each workload.

The command lists and the gate come from ``benchmarks/``, loaded by file path
so that the benchmark stays a directory of scripts rather than a package.
The passes of seeds 1 to 3 must also match, byte for byte, the sha256 digests
of their CSVs recorded in ``seed_<seed>_csv_sha256.json``, and each command's
exit code and one-line stdout summary those in ``seed_<seed>_stdout.json``; a
change that alters them on purpose regenerates these files with
``tests/pin_outputs.py``. The tracer's function list is checked against the
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
TESTS = Path(__file__).resolve().parent
SEEDS = (1, 2, 3)
DIGESTS = {seed: json.loads((TESTS / f"seed_{seed}_csv_sha256.json").read_text())
           for seed in SEEDS}
STDOUT = {seed: json.loads((TESTS / f"seed_{seed}_stdout.json").read_text()) for seed in SEEDS}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
gate = _load("gate")
tracing = _load("tracing")


def assert_pass_clears_the_gate(tmp_path, monkeypatch, capsys, workload, seed):
    """One pass of ``workload`` at ``seed`` through the gate and against its pins."""
    commands = workloads.generate(workload, seed)
    monkeypatch.chdir(tmp_path)
    runs = {}
    for command in commands:
        code = main(command["argv"])
        runs[command["output"]] = [code, capsys.readouterr().out]
    assert [output for output, (code, _) in runs.items() if code != 0] == []
    assert runs == {output: [code, line + "\n"]
                    for output, (code, line) in STDOUT[seed][workload].items()}
    assert gate.gate(commands, [str(tmp_path)]) == []
    want = DIGESTS[seed][workload]
    assert len(commands) == len(want)
    changed = [" ".join(command["argv"]) for command in commands
               if hashlib.sha256((tmp_path / command["output"]).read_bytes()).hexdigest()
               != want.get(command["output"])]
    assert changed == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_1_pass_clears_the_benchmark_gate(tmp_path, monkeypatch, capsys, workload):
    assert_pass_clears_the_gate(tmp_path, monkeypatch, capsys, workload, 1)


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_2_and_3_pass_clear_the_benchmark_gate(tmp_path, monkeypatch, capsys, workload,
                                                     seed):
    assert_pass_clears_the_gate(tmp_path, monkeypatch, capsys, workload, seed)


def test_traced_names_that_no_longer_resolve():
    # the one-spec wrappers are gone and their per-layer metrics read 0; this
    # set only shrinks, when the tracer follows the batch routines
    missing = set()
    for qualname in tracing.TRACED:
        module_name, fn_name = qualname.split(".")
        if not hasattr(importlib.import_module(f"mzfringe.{module_name}"), fn_name):
            missing.add(qualname)
    assert missing == {"arms.compose_arm", "interferometer.contrast_shared_env"}
