"""Command-line front end.

Commands: fringe, sweep, oracle-check, tomography, qkd, fit. Each writes one
CSV table (12 significant digits, header row, newline-terminated) and prints a
one-line summary to stdout. Options may come from flags or from a flat
``key = value`` config file (``--config``) whose keys are the flag names without
``--``. File values are parsed by the same parser as flags, with the same types
and checks; flags override file values, and unknown file keys are rejected.

Angles accept an explicit unit suffix, e.g. ``22.5deg`` or ``0.3927rad``;
bare numbers are radians. Arms are serialized as semicolon-separated elements
``crystal:<angle>:<delay-um>``, ``hwp:<angle>``, ``unitary:<4 complex row-major
entries, comma-separated>``, or ``identity``; an arm pair joins two arm strings
with ``|`` (upper first), and the qkd segments join four.

Exit codes: 0 success, 1 runtime or numerical error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .arms import ArmElement, Crystal, RawUnitary, Waveplate
from .core import maximally_mixed
from .experiments import (
    VARIANTS,
    CountRecord,
    QkdSpec,
    standard_config,
    default_beta_grid,
    fit_fringe,
    poisson_fringe,
    qkd_visibility,
    random_interferometer_spec,
    sweep,
)
from .interferometer import (
    InterferometerSpec,
    contrast_shared_env,
    oracle_contrast,
    output_probability,
)
from .tomography import blindness_demo

__all__ = ["UsageError", "parse_config", "main", "main_entry"]

COMMANDS = ("fringe", "sweep", "oracle-check", "tomography", "qkd", "fit")


class UsageError(Exception):
    """Bad flags or config; mapped to exit code 2."""


def parse_angle(text: str) -> float:
    """Angle in radians from '<x>deg', '<x>rad', or a bare radian value."""
    t = str(text).strip().lower()
    try:
        if t.endswith("deg"):
            angle = float(np.deg2rad(float(t[:-3])))
        elif t.endswith("rad"):
            angle = float(t[:-3])
        else:
            angle = float(t)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r} (use e.g. 22.5deg or 0.3927rad)")
    if not math.isfinite(angle):
        raise UsageError(f"angle {text!r} is not finite")
    return angle


def parse_arm(text: str) -> list[ArmElement]:
    """Arm element list from its serialized form (empty string = empty arm)."""
    elements: list[ArmElement] = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        kind, _, rest = token.partition(":")
        kind = kind.strip().lower()
        if kind == "crystal":
            angle_text, _, delay_text = rest.partition(":")
            if not delay_text:
                raise UsageError(f"crystal element needs angle and delay: {token!r}")
            try:
                elements.append(Crystal(parse_angle(angle_text), float(delay_text)))
            except ValueError as exc:
                raise UsageError(f"bad crystal delay in {token!r}: {exc}")
        elif kind in ("hwp", "waveplate"):
            elements.append(Waveplate(parse_angle(rest)))
        elif kind == "unitary":
            parts = rest.split(",")
            if len(parts) != 4:
                raise UsageError(f"unitary element needs 4 comma-separated entries: {token!r}")
            try:
                entries = [complex(p.strip()) for p in parts]
            except ValueError:
                raise UsageError(f"bad complex entry in {token!r}")
            try:
                elements.append(RawUnitary(np.array(entries).reshape(2, 2)))
            except ValueError as exc:
                raise UsageError(f"{token!r}: {exc}")
        elif kind == "identity":
            elements.append(RawUnitary(np.eye(2)))
        else:
            raise UsageError(f"unknown arm element kind {kind!r} in {token!r}")
    return elements


def _parse_arm_groups(text: str, n: int, what: str) -> list[list[ArmElement]]:
    groups = text.split("|")
    if len(groups) != n:
        raise UsageError(f"{what} must contain {n} '|'-separated arm strings, "
                         f"got {len(groups)}")
    return [parse_arm(g) for g in groups]


def _parse_config_text(text: str, dests) -> dict[str, str]:
    """Values by parser dest from a flat 'key = value' document; a key is the
    flag name without '--' and must name one of ``dests``."""
    keys = {dest.replace("_", "-") for dest in dests}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise UsageError(f"unknown config key {key!r}")
        values[key.replace("-", "_")] = value.strip()
    return values


def parse_config(argv) -> argparse.Namespace:
    """Validated options from command-line flags plus an optional config file.

    File values become parser defaults and argv is parsed again, so argparse
    converts and checks them as it does flags, and flags win.
    """
    parser = argparse.ArgumentParser(
        prog="mzfringe",
        description="Mach-Zehnder interference of polarization channels with a "
                    "shared time-bin environment.")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="what to run (may also come from the config file)")
    parser.add_argument("--config", help="flat 'key = value' config file")
    parser.add_argument("--variant", choices=VARIANTS,
                        help="built-in configuration tag")
    parser.add_argument("--beta", type=parse_angle,
                        help="crystal angle, e.g. 22.5deg or 0.3927rad")
    parser.add_argument("--beta-points", type=int, default=25,
                        help="number of beta grid points (default %(default)s)")
    parser.add_argument("--phases", type=int, default=64,
                        help="number of phase samples (default %(default)s)")
    parser.add_argument("--mean-total", type=int,
                        help="mean counts per phase point at unit probability")
    parser.add_argument("--seed", type=int, default=0,
                        help="non-negative RNG seed (default %(default)s)")
    parser.add_argument("--arms", help="serialized 'upper|lower' arm pair")
    parser.add_argument("--segments", help="serialized 'u1|u2|u3|u4' qkd segments")
    parser.add_argument("--counts", help="input counts CSV (phi,counts) for fit")
    parser.add_argument("--specs", type=int, default=200,
                        help="number of random specs for oracle-check (default %(default)s)")
    parser.add_argument("--output", help="output CSV path")
    config = parser.parse_args(argv)
    if config.config:
        try:
            with open(config.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        parser.set_defaults(**_parse_config_text(text, set(vars(config)) - {"config"}))
        config = parser.parse_args(argv)
    _validate(config)
    return config


def _validate(config: argparse.Namespace) -> None:
    if config.command is None:
        raise UsageError(f"missing command; choose one of {', '.join(COMMANDS)}")
    # argparse checks choices on flags only, not on defaults from a config file
    if config.variant not in (None, *VARIANTS):
        raise UsageError(f"key 'variant' must be one of {VARIANTS}, got {config.variant!r}")
    if not config.output:
        raise UsageError("missing required key 'output'")
    if config.seed < 0:
        raise UsageError("key 'seed' must be non-negative")
    for key in ("beta-points", "phases", "mean-total", "specs"):
        value = getattr(config, key.replace("-", "_"))
        if value is not None and value < 1:
            raise UsageError(f"key {key!r} must be >= 1, got {value}")
    if config.command == "sweep" and config.variant is None:
        raise UsageError("command 'sweep' requires key 'variant'")
    if config.command == "fringe":
        if config.arms is None and config.variant is None:
            raise UsageError("command 'fringe' requires key 'arms' or keys "
                             "'variant' and 'beta'")
        if config.arms is None and config.beta is None:
            raise UsageError("command 'fringe' with 'variant' requires key 'beta'")
    if config.command == "fit":
        has_spec = config.arms is not None or (config.variant is not None
                                               and config.beta is not None)
        if config.counts is None and not (has_spec and config.mean_total is not None):
            raise UsageError("command 'fit' requires key 'counts' or inline sampling "
                             "keys ('variant' and 'beta', or 'arms') plus 'mean-total'")
        if config.counts is None and config.phases < 4:
            raise UsageError(f"key 'phases' must be >= 4 for command 'fit', got {config.phases}")


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format_value(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_counts(path: str) -> list[CountRecord]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise UsageError(f"cannot read counts file: {exc}")
    if not rows or [c.strip() for c in rows[0][:2]] != ["phi", "counts"]:
        raise UsageError(f"counts file {path!r} must start with a 'phi,counts' header")
    records = []
    for lineno, row in enumerate(rows[1:], 2):
        try:
            phi, counts = float(row[0]), float(row[1])
        except (IndexError, ValueError):
            raise UsageError(f"counts file {path!r} line {lineno}: expected 'phi,counts'")
        if not math.isfinite(phi):
            raise UsageError(f"counts file {path!r} line {lineno}: phi {row[0].strip()!r} "
                             "must be finite")
        if not (math.isfinite(counts) and counts >= 0):
            raise UsageError(f"counts file {path!r} line {lineno}: count {row[1].strip()!r} "
                             "must be finite and >= 0")
        records.append(CountRecord(phi, counts, counts))
    return records


def _phase_grid(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def _fringe_spec(config: argparse.Namespace) -> InterferometerSpec:
    if config.arms is not None:
        upper, lower = _parse_arm_groups(config.arms, 2, "key 'arms'")
        return InterferometerSpec(upper, lower, maximally_mixed(2))
    return standard_config(config.variant, config.beta)


def _run_fringe(config: argparse.Namespace) -> int:
    spec = _fringe_spec(config)
    fringe = contrast_shared_env(spec)
    phis = _phase_grid(config.phases)
    if config.mean_total is not None:
        records = poisson_fringe(spec, phis, config.mean_total, config.seed)
        _write_csv(config.output, ["phi", "counts"],
                   [(r.phi, r.counts) for r in records])
    else:
        _write_csv(config.output, ["phi", "p0"],
                   [(phi, output_probability(fringe, phi)) for phi in phis])
    print(f"visibility={fringe.visibility:.6f} phase={fringe.fringe_phase:.6f}")
    return 0


def _run_sweep(config: argparse.Namespace) -> int:
    betas = default_beta_grid(config.beta_points)
    rows = sweep(config.variant, betas)
    _write_csv(config.output,
               ["beta", "v_closed_form", "v_simulated", "v_oracle"],
               [(r.beta, r.v_closed_form, r.v_simulated, r.v_oracle) for r in rows])
    dev = max(abs(abs(r.v_closed_form) - r.v_simulated) for r in rows)
    print(f"variant={config.variant} points={len(rows)} max|closed-simulated|={dev:.3e}")
    return 0


def _run_oracle_check(config: argparse.Namespace) -> int:
    n = config.specs
    rng = np.random.default_rng(config.seed)
    rows = []
    worst = 0.0
    for i in range(n):
        spec = random_interferometer_spec(rng)
        c = contrast_shared_env(spec).contrast
        c_oracle = oracle_contrast(spec)
        delta = abs(c - c_oracle)
        worst = max(worst, delta)
        rows.append((i, c.real, c.imag, c_oracle.real, c_oracle.imag, delta))
    _write_csv(config.output,
               ["index", "contrast_re", "contrast_im", "oracle_re", "oracle_im", "delta"],
               rows)
    print(f"specs={n} max_delta={worst:.3e}")
    if worst > 1e-9:
        print(f"error (OracleMismatch): max_delta {worst:.3e} exceeds 1e-9",
              file=sys.stderr)
        return 1
    return 0


def _run_tomography(config: argparse.Namespace) -> int:
    if config.beta is not None:
        betas = [config.beta]
    else:
        betas = list(default_beta_grid(config.beta_points))
    rows = []
    for beta in betas:
        rep = blindness_demo(beta)
        rows.append((beta, rep.chi_distance_upper, rep.chi_distance_lower,
                     rep.visibility_a, rep.visibility_b, rep.visibility_gap))
    _write_csv(config.output,
               ["beta", "chi_distance_upper", "chi_distance_lower",
                "visibility_a", "visibility_b", "visibility_gap"],
               rows)
    if len(rows) == 1:
        _, du, dl, va, vb, gap = rows[0]
        print(f"chi_upper={du:.3e} chi_lower={dl:.3e} visibility_a={va:.6f} "
              f"visibility_b={vb:.6f} gap={gap:.6f}")
    else:
        max_chi = max(max(r[1], r[2]) for r in rows)
        max_gap = max(r[5] for r in rows)
        print(f"points={len(rows)} max_chi_distance={max_chi:.3e} max_gap={max_gap:.6f}")
    return 0


def _run_qkd(config: argparse.Namespace) -> int:
    if config.segments is not None:
        segments = _parse_arm_groups(config.segments, 4, "key 'segments'")
    else:
        segments = [[], [], [], []]
    spec = QkdSpec(*segments, input_state=maximally_mixed(2))
    vis, qber = qkd_visibility(spec)
    _write_csv(config.output, ["visibility", "qber"], [(vis, qber)])
    print(f"visibility={vis:.6f} qber={qber:.6f}")
    return 0


def _run_fit(config: argparse.Namespace) -> int:
    if config.counts is not None:
        try:
            result = fit_fringe(_read_counts(config.counts))
        except ValueError as exc:  # too few records, or phases spanning at most pi
            raise UsageError(f"counts file {config.counts!r}: {exc}")
    else:
        spec = _fringe_spec(config)
        phis = _phase_grid(config.phases)
        result = fit_fringe(poisson_fringe(spec, phis, config.mean_total, config.seed))
    _write_csv(config.output,
               ["amplitude", "visibility_hat", "phase_hat", "stderr_visibility",
                "iterations", "converged"],
               [(result.amplitude, result.visibility_hat, result.phase_hat,
                 result.stderr_visibility, result.iterations, result.converged)])
    print(f"visibility_hat={result.visibility_hat:.6f} "
          f"stderr={result.stderr_visibility:.6f} converged={int(result.converged)}")
    return 0


_RUNNERS = {
    "fringe": _run_fringe,
    "sweep": _run_sweep,
    "oracle-check": _run_oracle_check,
    "tomography": _run_tomography,
    "qkd": _run_qkd,
    "fit": _run_fit,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse handles --help and bad flags itself
        return int(exc.code or 0)
    try:
        return _RUNNERS[config.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
