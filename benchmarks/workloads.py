"""Seeded command lists for the three benchmark workloads.

A command is the argv handed to ``mzfringe.cli.main`` plus a ``check`` record
that tells the correctness gate what the command's CSV must contain. Problem
sizes are fixed per workload, so runs with different seeds do the same amount
of work; the seed varies angles, sampler seeds, the random specs of
``oracle-check`` and the order of the commands.

Why these workloads:

- ``paper-tables``: the paper's own tables at small size. Every arm has at most
  three elements, so time goes to per-call overhead, recomposing identical
  arms, the small-dimension oracle and process tomography.
- ``deep-arms``: long arms of two shapes. Merging arms (equal delays) expand
  2^n branches that collapse to n+1 bins; spreading arms (delays 150 * 2^k in
  permuted order) keep up to 1,024 distinct bins, which the pair loop of the
  shared-environment contrast then joins. A merge optimisation shows on the
  first shape and a join optimisation on the second.
- ``counts``: seeded Poisson fringes followed by fits, across visibility 0,
  intermediate and 1, three phase-grid sizes and mean counts on both sides of
  the sampler's switch at mean 30. Sampling, fitting and CSV I/O dominate.
"""

from __future__ import annotations

import math
import random

SWEEP_POINTS = 200
TOMOGRAPHY_POINTS = 100
ORACLE_SPECS = 1000
# The qkd example of the README, one crystal (angle in degrees, delay in um)
# per segment; it reduces to variant "b" at 60 degrees.
QKD_SEGMENTS = ((60.0, 310.0), (0.0, 150.0), (60.0, 150.0), (0.0, 310.0))
FRINGE_PHASES = 64

MERGING_SIZES = (12, 13, 14, 15, 12, 13, 14, 15)
SPREADING_SIZES = (8, 9, 10, 10, 10, 10, 10, 10)
SPREAD_UNIT_UM = 150.0
EQUAL_DELAYS_UM = (150.0, 310.0)

COUNT_PHASES = (64, 256, 1024)
COUNT_MEANS = (2, 20, 10000)
COUNT_REPEATS = 4


def _rad(x: float) -> str:
    """Angle argument that parses back to exactly ``x``."""
    return f"{x!r}rad"


def _arm_text(crystals) -> str:
    return ";".join(f"crystal:{_rad(angle)}:{delay!r}" for angle, delay in crystals)


def _add(commands: list[dict], argv: list[str], check: dict) -> str:
    """Append a command writing its own output file, numbered in run order."""
    output = f"{len(commands):03d}-{argv[0]}.csv"
    commands.append({"argv": argv + ["--output", output], "output": output,
                     "check": check})
    return output


def paper_tables(rng: random.Random) -> list[dict]:
    jobs = [
        (["sweep", "--variant", v, "--beta-points", str(SWEEP_POINTS)],
         {"kind": "sweep", "variant": v, "points": SWEEP_POINTS})
        for v in "abcd"
    ]
    jobs.append((["tomography", "--beta-points", str(TOMOGRAPHY_POINTS)],
                 {"kind": "tomography", "points": TOMOGRAPHY_POINTS}))
    jobs.append((["oracle-check", "--specs", str(ORACLE_SPECS),
                  "--seed", str(rng.randrange(2**31))],
                 {"kind": "oracle-check", "specs": ORACLE_SPECS}))
    segments = "|".join(f"crystal:{deg:g}deg:{delay:g}" for deg, delay in QKD_SEGMENTS)
    jobs.append((["qkd", "--segments", segments],
                 {"kind": "qkd",
                  "segments": [[math.radians(deg), delay] for deg, delay in QKD_SEGMENTS]}))
    beta = rng.uniform(0.0, math.pi / 2)
    jobs.append((["fringe", "--variant", "d", "--beta", _rad(beta),
                  "--phases", str(FRINGE_PHASES)],
                 {"kind": "fringe-d", "beta": beta, "phases": FRINGE_PHASES}))
    rng.shuffle(jobs)
    commands: list[dict] = []
    for argv, check in jobs:
        _add(commands, argv, check)
    return commands


def deep_arms(rng: random.Random) -> list[dict]:
    arm_pairs = []
    for n in MERGING_SIZES:
        delay = rng.choice(EQUAL_DELAYS_UM)
        arm_pairs.append([[(rng.uniform(0.0, math.pi), delay) for _ in range(n)]
                          for _ in range(2)])
    for n in SPREADING_SIZES:
        delays = [SPREAD_UNIT_UM * 2**k for k in range(n)]
        arm_pairs.append([list(zip([rng.uniform(0.0, math.pi) for _ in range(n)],
                                   rng.sample(delays, n)))
                          for _ in range(2)])
    rng.shuffle(arm_pairs)
    commands: list[dict] = []
    for upper, lower in arm_pairs:
        _add(commands,
             ["fringe", "--arms", f"{_arm_text(upper)}|{_arm_text(lower)}",
              "--phases", str(FRINGE_PHASES)],
             {"kind": "fringe-arms", "upper": upper, "lower": lower,
              "phases": FRINGE_PHASES})
    return commands


def counts(rng: random.Random) -> list[dict]:
    runs = []
    for _ in range(COUNT_REPEATS):
        for visibility in ("zero", "intermediate", "one"):
            for phases in COUNT_PHASES:
                for mean in COUNT_MEANS:
                    if visibility == "zero":
                        variant, beta = "c", math.pi / 4
                    elif visibility == "one":
                        variant, beta = "d", math.pi / 8
                    else:
                        variant, beta = "b", rng.uniform(math.pi / 6, math.pi / 3)
                    runs.append((variant, beta, phases, mean, rng.randrange(2**31)))
    rng.shuffle(runs)
    commands: list[dict] = []
    for variant, beta, phases, mean, seed in runs:
        counts_csv = _add(commands,
                          ["fringe", "--variant", variant, "--beta", _rad(beta),
                           "--phases", str(phases), "--mean-total", str(mean),
                           "--seed", str(seed)],
                          {"kind": "counts", "phases": phases})
        _add(commands, ["fit", "--counts", counts_csv], {"kind": "fit"})
    return commands


WORKLOADS = {
    "paper-tables": paper_tables,
    "deep-arms": deep_arms,
    "counts": counts,
}


def generate(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(seed))
