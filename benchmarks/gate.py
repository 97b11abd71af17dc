"""Correctness gate: checks every CSV of every pass of a run.

Usage: python3 gate.py COMMANDS_JSON OUT_JSON PASS_DIR...

Closed forms are written out here, independent of the program, and so is a
reference contrast for crystal-only arms (``reference_contrast``). Oracle
values come from ``mzfringe.interferometer.oracle_contrast``. Oracle and
reference are computed once per spec and compared with the CSV of every pass.
All tolerances are 1e-9, the simulator-vs-oracle and closed-form tolerance the
package documents. Writes
``{"failures": [[pass index, command index, reason], ...]}``.
"""

import cmath
import csv
import hashlib
import json
import math
import re
import sys

from mzfringe.arms import Crystal, Waveplate
from mzfringe.core import maximally_mixed
from mzfringe.interferometer import InterferometerSpec, oracle_contrast

TOL = 1e-9
_COUNT = re.compile(r"[0-9]+")


class GateError(Exception):
    pass


def closed_form(variant: str, beta: float) -> float:
    """Signed contrast of a standard configuration, from the paper."""
    if variant == "a":
        return 1.0 - math.sin(2.0 * beta) ** 2 / 2.0
    if variant == "b":
        return math.cos(beta) ** 2
    if variant == "c":
        return math.cos(beta) ** 2 * math.cos(2.0 * beta)
    if variant == "d":
        return math.cos(2.0 * (beta - math.pi / 8.0))
    raise ValueError(variant)


def _near(what: str, got: float, want: float) -> None:
    if not abs(got - want) <= TOL:
        raise GateError(f"{what}: {got!r} differs from {want!r} by more than {TOL}")


def _table(path: str, header: list[str], rows: int) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        raise GateError(f"cannot read output: {exc}")
    if not table or table[0] != header:
        raise GateError(f"header is {table[:1]}, expected {header}")
    if len(table) - 1 != rows:
        raise GateError(f"{len(table) - 1} rows, expected {rows}")
    return table[1:]


def _grid(n: int, stop: float, endpoint: bool) -> list[float]:
    return [stop * k / (n - 1 if endpoint else n) for k in range(n)]


def _spec(upper, lower) -> InterferometerSpec:
    return InterferometerSpec(upper, lower, maximally_mixed(2))


def _crystals(pairs) -> list:
    return [Crystal(angle, delay) for angle, delay in pairs]


def _mul(a, b):
    """Product of 2x2 matrices stored row-major as 4-tuples."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _arm_bins(crystals) -> dict:
    """Operator of each total delay of a crystal-only arm.

    Each crystal at axis angle t has the o-ray projector on (cos t, sin t) at
    delay 0 and the e-ray projector on (-sin t, cos t) at its delay. Elements
    are applied in order, later ones multiplied on the left, and branches that
    reach the same total delay are summed at every step. The delays here are
    integers in micrometers, so their float sums are exact and key the dict.
    """
    bins = {0.0: (1.0, 0.0, 0.0, 1.0)}
    for angle, delay in crystals:
        c, s = math.cos(angle), math.sin(angle)
        branches = (((c * c, c * s, c * s, s * s), 0.0),
                    ((s * s, -c * s, -c * s, c * c), delay))
        grown: dict = {}
        for total, op in bins.items():
            for proj, extra in branches:
                term = _mul(proj, op)
                old = grown.get(total + extra)
                grown[total + extra] = term if old is None else tuple(
                    x + y for x, y in zip(old, term))
        bins = grown
    return bins


def reference_contrast(upper, lower) -> complex:
    """C = sum over shared delays d of Tr[U_d^dag V_d rho] with rho = I/2."""
    up, low = _arm_bins(upper), _arm_bins(lower)
    return sum(sum(x.conjugate() * y for x, y in zip(up[d], low[d])) / 2.0
               for d in up.keys() & low.keys())


def _check_fringe(path: str, phases: int, contrasts: dict) -> None:
    rows = _table(path, ["phi", "p0"], phases)
    for phi, (phi_text, p0_text) in zip(_grid(phases, 2.0 * math.pi, False), rows):
        _near("phi", float(phi_text), phi)
        for what, contrast in contrasts.items():
            _near(f"p0 at phi={phi:.6f} against the {what}", float(p0_text),
                  0.5 * (1.0 + (cmath.exp(1j * phi) * complex(contrast)).real))


def check_sweep(path, check, once):
    variant = check["variant"]
    rows = _table(path, ["beta", "v_closed_form", "v_simulated", "v_oracle"], check["points"])
    for beta, row in zip(_grid(check["points"], math.pi / 2.0, True), rows):
        b, v_cf, v_sim, v_or = (float(x) for x in row)
        want = closed_form(variant, beta)
        _near("beta", b, beta)
        _near(f"v_closed_form at beta={beta:.6f}", v_cf, want)
        _near(f"v_simulated at beta={beta:.6f} against the closed form", v_sim, abs(want))
        _near(f"v_oracle at beta={beta:.6f} against v_simulated", v_or, v_sim)


def check_tomography(path, check, once):
    header = ["beta", "chi_distance_upper", "chi_distance_lower",
              "visibility_a", "visibility_b", "visibility_gap"]
    rows = _table(path, header, check["points"])
    for beta, row in zip(_grid(check["points"], math.pi / 2.0, True), rows):
        b, d_up, d_low, v_a, v_b, gap = (float(x) for x in row)
        _near("beta", b, beta)
        _near(f"chi_distance_upper at beta={beta:.6f}", d_up, 0.0)
        _near(f"chi_distance_lower at beta={beta:.6f}", d_low, 0.0)
        _near(f"visibility_a at beta={beta:.6f}", v_a, abs(closed_form("a", beta)))
        _near(f"visibility_b at beta={beta:.6f}", v_b, abs(closed_form("c", beta)))
        _near(f"visibility_gap at beta={beta:.6f}", gap, abs(v_a - v_b))


def check_oracle_check(path, check, once):
    header = ["index", "contrast_re", "contrast_im", "oracle_re", "oracle_im", "delta"]
    for i, row in enumerate(_table(path, header, check["specs"])):
        c_re, c_im, o_re, o_im, delta = (float(x) for x in row[1:])
        _near(f"spec {i} contrast against its oracle",
              abs(complex(c_re, c_im) - complex(o_re, o_im)), 0.0)
        _near(f"spec {i} delta", delta, 0.0)


def check_qkd(path, check, once):
    ((vis_text, qber_text),) = _table(path, ["visibility", "qber"], 1)
    vis, qber = float(vis_text), float(qber_text)
    u1, u2, u3, u4 = ([Crystal(angle, delay)] for angle, delay in check["segments"])
    want = closed_form("b", check["segments"][0][0])
    _near("visibility against the variant-b closed form", vis, want)
    contrast = once("oracle", lambda: oracle_contrast(_spec(u1 + u2, u3 + u4)))
    _near("visibility against the oracle", vis, abs(contrast))
    _near("qber", qber, (1.0 - want) / 2.0)


def check_fringe_d(path, check, once):
    beta = check["beta"]
    contrast = once("oracle", lambda: oracle_contrast(
        _spec([Waveplate(math.pi / 8.0)], [Waveplate(beta)])))
    _near("oracle visibility against the variant-d closed form", abs(contrast),
          abs(closed_form("d", beta)))
    _check_fringe(path, check["phases"], {"oracle": contrast})


def check_fringe_arms(path, check, once):
    upper, lower = check["upper"], check["lower"]
    _check_fringe(path, check["phases"], {
        "reference": once("reference", lambda: reference_contrast(upper, lower)),
        "oracle": once("oracle", lambda: oracle_contrast(
            _spec(_crystals(upper), _crystals(lower)))),
    })


def check_counts(path, check, once):
    rows = _table(path, ["phi", "counts"], check["phases"])
    for phi, (phi_text, count_text) in zip(_grid(check["phases"], 2.0 * math.pi, False), rows):
        _near("phi", float(phi_text), phi)
        if not _COUNT.fullmatch(count_text):
            raise GateError(f"count {count_text!r} at phi={phi:.6f} is not a "
                            "non-negative integer")


def check_fit(path, check, once):
    header = ["amplitude", "visibility_hat", "phase_hat", "stderr_visibility",
              "iterations", "converged"]
    ((*_, converged),) = _table(path, header, 1)
    if converged != "1":
        raise GateError(f"converged={converged}")


CHECKS = {
    "sweep": check_sweep,
    "tomography": check_tomography,
    "oracle-check": check_oracle_check,
    "qkd": check_qkd,
    "fringe-d": check_fringe_d,
    "fringe-arms": check_fringe_arms,
    "counts": check_counts,
    "fit": check_fit,
}
# Seeded outputs must repeat byte for byte across the passes of a run.
SAME_BYTES = ("counts", "fit")


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return ""


def gate(commands: list[dict], pass_dirs: list[str]) -> list[list]:
    failures = []
    for index, command in enumerate(commands):
        check = command["check"]
        cached: dict = {}

        def once(key, compute):
            """Computes oracle and reference values once per command, not per pass."""
            if key not in cached:
                cached[key] = compute()
            return cached[key]

        for p, pass_dir in enumerate(pass_dirs):
            try:
                CHECKS[check["kind"]](f"{pass_dir}/{command['output']}", check, once)
            except Exception as exc:  # every failure is recorded, none ends the gate
                failures.append([p, index, f"{type(exc).__name__}: {exc}"])
        if check["kind"] in SAME_BYTES:
            digests = [_digest(f"{d}/{command['output']}") for d in pass_dirs]
            if len(set(digests)) > 1:
                failures.extend([p, index, "output bytes differ between passes"]
                                for p in range(len(pass_dirs)))
    return failures


def main() -> int:
    commands_path, out_path, *pass_dirs = sys.argv[1:]
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"failures": gate(commands, pass_dirs)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
