"""Command-line front end.

Commands: fringe, sweep, oracle-check, tomography, qkd, fit. Each writes one
CSV table (12 significant digits, header row, newline-terminated) and prints a
one-line summary to stdout. Options may come from flags or from a flat
``key = value`` config file (``--config``) whose keys are the flag names without
``--``. File values become ``--key=value`` flags placed before the command
line's, so they get the flags' types, checks and messages; flags override file
values, and unknown or repeated file keys are rejected.

Each command has modes (``_MODES``): required keys and optional keys besides
``output``. The keys given, as flags or file values but not defaults, must
hold every required key of some mode and no key outside it; any other set
exits with code 2, naming the keys missing or unread in the closest mode.

Angles accept an explicit unit suffix, e.g. ``22.5deg`` or ``0.3927rad``;
bare numbers are radians. Arms are serialized as semicolon-separated elements
``crystal:<angle>:<delay-um>`` (delay in whole picometres), ``hwp:<angle>``,
``unitary:<4 complex row-major entries, comma-separated>`` or ``identity``; an
arm pair joins two arm strings with ``|`` (upper first), qkd segments four.

Counts are bounded: ``phases`` at most 2**20, ``beta-points`` and ``specs`` at
most 2**16 each, every count at least 1. A count past its bound raises
``ResourceLimitError`` before anything is computed.

Exit codes: 0 success, 1 runtime or numerical error, 2 usage or config error
or input past a stated resource limit (``ResourceLimitError``).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .arms import ArmElement, Crystal, RawUnitary, ResourceLimitError, Waveplate, compose_arms
from .core import maximally_mixed
from .experiments import (
    VARIANTS,
    blindness_demo,
    default_beta_grid,
    fit_fringe,
    poisson_fringe,
    qkd_visibility,
    random_specs,
    standard_arms,
    sweep,
)
from .interferometer import (kraus_contrasts, oracle_contrasts, output_probability,
                             shared_env_contrasts)

__all__ = ["UsageError", "parse_config", "main", "main_entry"]

COMMANDS = ("fringe", "sweep", "oracle-check", "tomography", "qkd", "fit")
# Upper bounds of the counts, far above the benchmark workloads' 1,024 phases,
# 200 beta points and 1,000 specs. At the bounds, on a 2-vCPU VM, fringe took
# 0.8 s and a peak resident set of 217 MiB (0.9 s and 190 MiB with mean-total),
# sweep 1.7 s and 237 MiB, tomography 3.3 s and 254 MiB, oracle-check 2.7 s and
# 167 MiB. Tests hold traced memory per unit under 160 B (fringe phase, with or
# without mean-total), 3.25 KiB (sweep point), 5.25 KiB (tomography point) and
# 2.25 KiB (oracle-check spec).
_COUNT_LIMITS = {"phases": 2**20, "beta-points": 2**16, "specs": 2**16}
# Each command's modes, as (required keys, optional keys) besides 'output'; a
# shorter mode comes first, so that it wins a tie for the closest mode.
_MODES = {
    "fringe": (("arms", "phases"), ("arms mean-total", "phases seed"),
               ("variant beta", "phases"), ("variant beta mean-total", "phases seed")),
    "fit": (("counts", ""), ("arms mean-total", "phases seed"),
            ("variant beta mean-total", "phases seed")),
    "sweep": (("variant", "beta-points"),),
    "oracle-check": (("", "specs seed"),),
    "tomography": (("", "beta-points"), ("beta", "")),
    "qkd": (("", "segments"),),
}


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
        kind, colon, rest = token.partition(":")
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
            if colon:
                raise UsageError(f"identity element takes no value: {token!r}")
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
    """Values by key from a flat 'key = value' document; a key is the flag
    name without '--', must name one of ``dests`` and may appear once."""
    keys = {dest.replace("_", "-") for dest in dests}
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
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
        if lines.setdefault(key, lineno) != lineno:
            raise UsageError(f"config line {lineno}: key {key!r} repeats line {lines[key]}")
        values[key] = value.strip()
    return values


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The option parser, built on first use and kept for the process."""
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
    parser.add_argument("--beta-points", type=int,
                        help="number of beta grid points (default 25)")
    parser.add_argument("--phases", type=int, help="number of phase samples (default 64)")
    parser.add_argument("--mean-total", type=int,
                        help="mean counts per phase point at unit probability")
    parser.add_argument("--seed", type=int, help="non-negative RNG seed (default 0)")
    parser.add_argument("--arms", help="serialized 'upper|lower' arm pair")
    parser.add_argument("--segments", help="serialized 'u1|u2|u3|u4' qkd segments")
    parser.add_argument("--counts", help="input counts CSV (phi,counts) for fit")
    parser.add_argument("--specs", type=int,
                        help="number of random specs for oracle-check (default 200)")
    parser.add_argument("--output", help="output CSV path")
    return parser


def parse_config(argv) -> argparse.Namespace:
    """Validated options from command-line flags plus an optional config file.

    File values become ``--key=value`` tokens placed before argv, and the
    whole is parsed again, so argparse converts and checks them as flags, and
    argv's flags, parsed later, win. The file's command is parsed alone, as
    argv's is, and used when argv names none.
    """
    parser = _parser()
    config = parser.parse_args(argv)
    if config.config:
        try:
            with open(config.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}")
        values = _parse_config_text(text, set(vars(config)) - {"config"})
        head = [values.pop("command")] if "command" in values else []
        command = parser.parse_args(head).command  # checked as argv's command is
        config = parser.parse_args([*(f"--{key}={value}" for key, value in values.items()), *argv])
        config.command = config.command or command
    _validate(config)
    for dest, default in (("beta_points", 25), ("phases", 64), ("seed", 0), ("specs", 200)):
        setattr(config, dest, getattr(config, dest) or default)  # a given count of 0 is refused
    return config


def _validate(config: argparse.Namespace) -> None:
    if config.command is None:
        raise UsageError(f"missing command; choose one of {', '.join(COMMANDS)}")
    if not config.output:
        raise UsageError("missing required key 'output'")
    if config.seed is not None and config.seed < 0:
        raise UsageError("key 'seed' must be non-negative")
    for key in ("beta-points", "phases", "mean-total", "specs"):
        value = getattr(config, key.replace("-", "_"))
        if value is not None and value < 1:
            raise UsageError(f"key {key!r} must be >= 1, got {value}")
        if value is not None and key in _COUNT_LIMITS and value > _COUNT_LIMITS[key]:
            raise ResourceLimitError(f"resource limit: key {key!r} is {value}, past its "
                                     f"limit of {_COUNT_LIMITS[key]}")
    given = [dest.replace("_", "-") for dest, value in vars(config).items()
             if value is not None and dest not in ("command", "config", "output")]

    def unread_and_missing(mode) -> tuple[list, list]:
        required, optional = mode[0].split(), mode[1].split()
        return ([key for key in given if key not in required and key not in optional],
                [key for key in required if key not in given])

    mode = min(_MODES[config.command], key=lambda mode: sum(map(len, unread_and_missing(mode))))
    unread, missing = unread_and_missing(mode)
    if unread or missing:
        parts = [f"{verb} " + ", ".join(f"key {key!r}" for key in keys)
                 for verb, keys in (("does not read", unread), ("requires", missing)) if keys]
        reads = ([f"key {key!r}" for key in mode[0].split()]
                 + [f"optional key {key!r}" for key in mode[1].split()])
        raise UsageError(f"command {config.command!r} " + " and ".join(parts)
                         + "; the closest mode reads " + ", ".join(reads))
    if config.command == "fit" and config.phases is not None and config.phases < 4:
        raise UsageError(f"key 'phases' must be >= 4 for command 'fit', got {config.phases}")


def _write_csv(path: str, header, columns) -> None:
    """One format per column: ``%d`` for bool and integer columns, else ``%.12g``,
    the text of ``{:d}`` and ``{:.12g}``. The row template, repeated once per
    row, formats the row-major values with one ``%``."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    values = [None] * (rows * len(columns))
    for j, column in enumerate(columns):
        values[j::len(columns)] = column.tolist()
    row = ",".join("%d" if c.dtype.kind in "biu" else "%.12g" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n" + row * rows % tuple(values))


def _read_counts(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(phis, counts) of a 'phi,counts' file; one that fails is scanned for its bad line."""
    layout = {"delimiter": ",", "usecols": (0, 1), "ndmin": 2, "comments": None}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read counts file: {exc}")
    start, header = next(((n, line) for n, line in enumerate(lines, 1) if line != "\n"), (0, ""))
    if [c.strip() for c in header.split(",")[:2]] != ["phi", "counts"]:
        raise UsageError(f"counts file {path!r} must start with a 'phi,counts' header")
    if all(line == "\n" for line in lines[start:]):  # no rows, which the fit refuses
        return np.zeros(0), np.zeros(0)
    try:
        phis, counts = np.loadtxt(lines[start:], **layout).T
        if (np.isfinite(phis).all() and (counts >= 0).all() and (counts <= 2**53).all()
                and (counts % 1 == 0).all()):
            return phis, counts
    except ValueError:
        pass
    for lineno, line in enumerate(lines[start:], start + 1):
        if line == "\n":
            continue
        where = f"counts file {path!r} line {lineno}"
        try:
            [(phi, count)] = np.loadtxt([line], **layout)
        except ValueError:
            raise UsageError(f"{where}: expected 'phi,counts'")
        phi_text, count_text = (text.strip() for text in line.split(",")[:2])
        if not math.isfinite(phi):
            raise UsageError(f"{where}: phi {phi_text!r} must be finite")
        if not (math.isfinite(count) and count >= 0):
            raise UsageError(f"{where}: count {count_text!r} must be finite and >= 0")
        if count > 2**53:  # float64 skips whole counts past 2**53
            raise UsageError(f"{where}: count {count_text!r} must be at most 2**53")
        if count % 1:
            raise UsageError(f"{where}: count {count_text!r} must be a whole number")
    raise AssertionError(f"counts file {path!r} failed a check that no row fails")


def _phase_grid(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def _fringe_contrast(config: argparse.Namespace) -> complex:
    """Contrast of the 'arms' pair, or of 'variant' at 'beta', with the
    maximally mixed input."""
    if config.arms is not None:
        upper, lower = _parse_arm_groups(config.arms, 2, "key 'arms'")
        uppers, lowers = [upper], [lower]
    else:
        uppers, lowers = standard_arms(config.variant, [config.beta])
    return kraus_contrasts(compose_arms([*uppers, *lowers]), [0], [1], maximally_mixed(2))[0]


def _run_fringe(config: argparse.Namespace) -> int:
    c = _fringe_contrast(config)
    phis = _phase_grid(config.phases)
    if config.mean_total is not None:
        counts = poisson_fringe(c, phis, config.mean_total, config.seed)
        _write_csv(config.output, ["phi", "counts"], [phis, counts])
    else:
        _write_csv(config.output, ["phi", "p0"], [phis, output_probability(c, phis)])
    print(f"visibility={abs(c):.6f} phase={np.angle(c):.6f}")
    return 0


def _run_sweep(config: argparse.Namespace) -> int:
    columns = sweep(config.variant, default_beta_grid(config.beta_points))
    _write_csv(config.output, ["beta", "v_closed_form", "v_simulated", "v_oracle"], columns)
    _, v_closed_form, v_simulated, _ = columns
    dev = np.max(np.abs(np.abs(v_closed_form) - v_simulated))
    print(f"variant={config.variant} points={len(v_simulated)} max|closed-simulated|={dev:.3e}")
    return 0


def _run_oracle_check(config: argparse.Namespace) -> int:
    uppers, lowers, rho = random_specs(config.seed, config.specs)
    contrasts = shared_env_contrasts(uppers, lowers, rho)
    oracles = oracle_contrasts(uppers, lowers, rho).tolist()
    delta = [abs(c - o) for c, o in zip(contrasts, oracles)]
    c, o = np.array(contrasts), np.array(oracles)
    _write_csv(config.output,
               ["index", "contrast_re", "contrast_im", "oracle_re", "oracle_im", "delta"],
               [np.arange(len(c)), c.real, c.imag, o.real, o.imag, delta])
    worst = max(delta)
    print(f"specs={len(c)} max_delta={worst:.3e}")
    if worst > 1e-9:
        print(f"error (OracleMismatch): max_delta {worst:.3e} exceeds 1e-9",
              file=sys.stderr)
        return 1
    return 0


def _run_tomography(config: argparse.Namespace) -> int:
    betas = [config.beta] if config.beta is not None else default_beta_grid(config.beta_points)
    columns = blindness_demo(betas)
    _write_csv(config.output,
               ["beta", "chi_distance_upper", "chi_distance_lower",
                "visibility_a", "visibility_b", "visibility_gap"],
               columns)
    _, du, dl, va, vb, gap = columns
    if config.beta is not None:
        print(f"chi_upper={du[0]:.3e} chi_lower={dl[0]:.3e} visibility_a={va[0]:.6f} "
              f"visibility_b={vb[0]:.6f} gap={gap[0]:.6f}")
    else:
        print(f"points={len(betas)} max_chi_distance={max(du.max(), dl.max()):.3e} "
              f"max_gap={gap.max():.6f}")
    return 0


def _run_qkd(config: argparse.Namespace) -> int:
    if config.segments is not None:
        segments = _parse_arm_groups(config.segments, 4, "key 'segments'")
    else:
        segments = [[], [], [], []]
    vis, qber = qkd_visibility(*segments)
    _write_csv(config.output, ["visibility", "qber"], [[vis], [qber]])
    print(f"visibility={vis:.6f} qber={qber:.6f}")
    return 0


def _run_fit(config: argparse.Namespace) -> int:
    if config.counts is not None:
        try:
            result = fit_fringe(*_read_counts(config.counts))
        except ValueError as exc:  # too few records, phases spanning at most pi, all zero
            raise UsageError(f"counts file {config.counts!r}: {exc}")
        if not result.converged:
            raise UsageError(f"counts file {config.counts!r}: the fit did not converge "
                             f"in {result.iterations} steps")
    else:
        phis = _phase_grid(config.phases)
        result = fit_fringe(phis, poisson_fringe(_fringe_contrast(config), phis,
                                                 config.mean_total, config.seed))
    _write_csv(config.output,
               ["amplitude", "visibility_hat", "phase_hat", "stderr_visibility",
                "iterations", "converged"],
               [[result.amplitude], [result.visibility_hat], [result.phase_hat],
                [result.stderr_visibility], [result.iterations], [result.converged]])
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
    except (UsageError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse handles --help and bad flags itself
        return int(exc.code or 0)
    try:
        return _RUNNERS[config.command](config)
    except (UsageError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
