"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``). Tolerances are fixed
here, not configurable."""

import time

import numpy as np
import pytest

import mzfringe.arms
import mzfringe.interferometer
from conftest import (channel_one, compose_one, contrast, oracle, random_arm, random_pair,
                      standard_pair, table_arms, validate_cptp)
from mzfringe import (
    Crystal,
    arm_table,
    blindness_demo,
    compose_arms,
    fit_fringe,
    half_waveplate,
    maximally_mixed,
    poisson_fringe,
    qkd_visibility,
    rotated_basis,
)
from mzfringe.cli import main
from mzfringe.interferometer import kraus_contrasts


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_visibilities():
    closed = {
        "a": lambda b: 1 - np.sin(2 * b) ** 2 / 2,
        "b": lambda b: np.cos(b) ** 2,
        "c": lambda b: np.cos(b) ** 2 * np.cos(2 * b),
    }
    start = time.perf_counter()
    worst = 0.0
    for variant, formula in closed.items():
        for beta in np.linspace(0.0, np.pi / 2, 25):
            v = abs(contrast(*standard_pair(variant, beta)))
            worst = max(worst, abs(v - abs(formula(beta))))
    elapsed = time.perf_counter() - start
    _report(1, "closed-form visibility curves",
            worst < 1e-9 and elapsed < 1.0,
            f"max_err={worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_waveplate_variant_convention():
    v_center = abs(contrast(*standard_pair("d", np.pi / 8)))
    worst = 0.0
    for beta in np.linspace(0.0, np.pi / 2, 25):
        v = abs(contrast(*standard_pair("d", beta)))
        worst = max(worst, abs(v - abs(np.cos(2 * (beta - np.pi / 8)))))
    _report(2, "waveplate variant curve",
            abs(v_center - 1.0) < 1e-9 and worst < 1e-9,
            f"v(pi/8)={v_center:.12f}, max_err={worst:.2e}")


def _criterion_3_max_delta() -> float:
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(200):
        spec = random_pair(rng, max_elements=3)
        delta = abs(contrast(*spec) - oracle(*spec))
        worst = max(worst, delta)
    return worst


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    worst = _criterion_3_max_delta()
    elapsed = time.perf_counter() - start
    _report(3, "dilation oracle equivalence on 200 random specs",
            worst < 1e-9 and elapsed < 10.0,
            f"max_delta={worst:.2e}, {elapsed:.2f}s")


# The contrast composes through the stacked composition that interferometer
# binds; the mutations below replace that binding, so they reach every contrast.
def test_oracle_catches_reversed_composition(monkeypatch):
    monkeypatch.setattr(mzfringe.interferometer, "compose_arms",
                        lambda table: compose_arms(arm_table([arm[::-1]
                                                              for arm in table_arms(table)])))
    assert _criterion_3_max_delta() > 1e-3


def test_oracle_catches_widened_delay_merging(monkeypatch):
    # merge each arm's rows within 100 um of their predecessor, as a merge bug would
    def compose_widened(table):
        owner, delays, ops = compose_arms(table)
        starts = np.flatnonzero(np.concatenate(
            ([True], (owner[1:] != owner[:-1]) | (delays[1:] - delays[:-1] > 100.0))))
        return owner[starts], delays[starts], np.add.reduceat(ops, starts)

    monkeypatch.setattr(mzfringe.interferometer, "compose_arms", compose_widened)
    assert _criterion_3_max_delta() > 1e-3


def test_oracle_catches_widened_delay_join(monkeypatch):
    # join on delays snapped to a 100 um grid while composition keeps its own
    def join_widened(table, upper, lower, rho):
        owner, delays, ops = table
        return kraus_contrasts((owner, np.round(delays / 100.0) * 100.0, ops), upper, lower, rho)

    monkeypatch.setattr(mzfringe.interferometer, "kraus_contrasts", join_widened)
    assert _criterion_3_max_delta() > 1e-3


# Composition builds its elements through these arms bindings and the oracle
# writes its matrices out, so a fault in either constructor reaches the
# contrast alone.
def test_oracle_catches_a_shifted_crystal_basis(monkeypatch):
    monkeypatch.setattr(mzfringe.arms, "rotated_basis", lambda theta: rotated_basis(theta + 0.05))
    assert _criterion_3_max_delta() > 1e-3


def test_oracle_catches_a_shifted_waveplate(monkeypatch):
    monkeypatch.setattr(mzfringe.arms, "half_waveplate",
                        lambda theta: half_waveplate(theta + 0.05))
    assert _criterion_3_max_delta() > 1e-3


def test_criterion_4_tomography_blindness():
    [(_, d_upper, d_lower, vis_a, vis_b, gap)] = zip(*blindness_demo([np.pi / 4]))
    point_ok = (d_upper < 1e-9 and d_lower < 1e-9
                and abs(vis_a - 0.5) < 1e-9
                and abs(vis_b) < 1e-9
                and abs(gap - 0.5) < 1e-9)
    _, grid_upper, grid_lower, *_ = blindness_demo(np.linspace(0.0, np.pi / 2, 25))
    worst_chi = max(grid_upper.max(), grid_lower.max())
    _report(4, "tomography blindness",
            point_ok and worst_chi < 1e-9,
            f"gap(pi/4)={gap:.9f}, max_chi_distance={worst_chi:.2e}")


def test_criterion_5_cptp_and_unitality():
    rng = np.random.default_rng(20260811)
    worst_residual = 0.0
    worst_unital = 0.0
    for _ in range(200):
        arm = random_arm(rng, max_elements=4)
        check = validate_cptp(compose_one(arm)[1])
        worst_residual = max(worst_residual, check.residual)
        out = channel_one(arm, maximally_mixed(2))
        worst_unital = max(worst_unital, float(np.max(np.abs(out - np.eye(2) / 2))))
    _report(5, "CPTP and unitality on 200 random arms",
            worst_residual <= 1e-10 and worst_unital <= 1e-12,
            f"max_completeness_residual={worst_residual:.2e}, "
            f"max_unitality_dev={worst_unital:.2e}")


def test_criterion_6_statistical_fit_recovery():
    start = time.perf_counter()
    pair = standard_pair("a", np.pi / 8)  # true visibility 0.75
    phis = 2 * np.pi * np.arange(64) / 64
    counts = poisson_fringe(contrast(*pair), phis, 10_000, 42)
    fit = fit_fringe(phis, counts)
    elapsed = time.perf_counter() - start
    err = abs(fit.visibility_hat - 0.75)
    _report(6, "seeded Poisson fringe recovery",
            fit.converged and err < 3 * fit.stderr_visibility and err < 0.02
            and elapsed < 1.0,
            f"vhat={fit.visibility_hat:.6f}, stderr={fit.stderr_visibility:.6f}, "
            f"{elapsed:.3f}s")


def test_criterion_7_qkd_reduction():
    vis_id, qber_id = qkd_visibility([], [], [], [])
    beta = np.pi / 3
    vis, qber = qkd_visibility(
        u1=[Crystal(beta, 310.0)], u2=[Crystal(0.0, 150.0)],
        u3=[Crystal(beta, 150.0)], u4=[Crystal(0.0, 310.0)],
    )
    _report(7, "unbalanced-interferometer key-link reduction",
            vis_id == 1.0 and qber_id == 0.0
            and abs(vis - 0.25) < 1e-9 and abs(qber - 0.375) < 1e-9,
            f"identity=({vis_id}, {qber_id}), crossed=({vis:.9f}, {qber:.9f})")


def test_criterion_8_csv_determinism(tmp_path):
    checks = []
    for args in (
        ["fringe", "--variant", "a", "--beta", "22.5deg", "--phases", "64",
         "--mean-total", "10000", "--seed", "42"],
        ["oracle-check", "--specs", "20", "--seed", "5"],
    ):
        out1 = tmp_path / f"{args[0]}-1.csv"
        out2 = tmp_path / f"{args[0]}-2.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        checks.append(out1.read_bytes() == out2.read_bytes())
    _report(8, "seeded CSV byte determinism", all(checks),
            f"commands_checked={len(checks)}")
