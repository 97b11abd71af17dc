"""Mach-Zehnder fringes for two arm channels sharing one time-bin environment.

The interference contrast is the complex number C whose magnitude is the
fringe visibility and whose argument sets the fringe phase. With a shared
environment, C sums Tr[u^dag v rho] over pairs of upper-arm and lower-arm
Kraus operators whose time-bin delays coincide; delays differing by more than
the coherence criterion contribute nothing (orthogonal bins). The dilation
oracle reproduces the same fringe by brute force: it evolves the full
path (x) polarization (x) time-bin state through beamsplitter, each arm element
by element on its own path, phase plate and closing beamsplitter, then projects
the path onto the lower port. It never composes a Kraus set, so it is an
independent check of ``compose_arm``.

Time-bin orthogonality is binary here: delays matching within
``DELAY_MERGE_TOL`` interfere fully, all others not at all. Partial wavepacket
overlap is out of scope.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .arms import (
    DELAY_MERGE_TOL,
    ORACLE_DIM_LIMIT,
    ArmSpec,
    _delay_grid,
    _evolve_arm,
    compose_arm,
)
from .core import beamsplitter, phase_shifter, validate_density_matrix

__all__ = [
    "ORACLE_DIM_LIMIT",
    "InterferometerSpec",
    "FringeResult",
    "contrast_shared_env",
    "contrast_independent_env",
    "output_probability",
    "oracle_probabilities",
    "oracle_probability",
    "oracle_contrast",
    "output_polarization_state",
]


@dataclass
class InterferometerSpec:
    """Two arms and an input polarization state."""

    upper: ArmSpec
    lower: ArmSpec
    input_state: np.ndarray

    def __post_init__(self):
        state = validate_density_matrix(self.input_state, "input_state")
        if state.shape != (2, 2):
            raise ValueError(f"input_state must be 2x2, got shape {state.shape}")
        self.input_state = state


@dataclass(frozen=True)
class FringeResult:
    contrast: complex
    visibility: float
    fringe_phase: float


def _fringe(c: complex) -> FringeResult:
    c = complex(c)
    return FringeResult(c, abs(c), float(np.angle(c)))


def contrast_shared_env(spec: InterferometerSpec) -> FringeResult:
    """Interference contrast when both arms disturb the same environment.

    C = sum of Tr[u^dag v rho] over delay-matched Kraus pairs (u from the
    upper arm, v from the lower): each upper operator is joined by bisection
    with every lower operator whose delay lies within ``DELAY_MERGE_TOL``.
    """
    upper = compose_arm(spec.upper)
    lower = compose_arm(spec.lower)
    lower_delays = [d for d, _ in lower]
    rho = spec.input_state
    c = 0.0 + 0.0j
    for d, u in upper:
        lo = bisect_left(lower_delays, d - DELAY_MERGE_TOL)
        hi = bisect_right(lower_delays, d + DELAY_MERGE_TOL)
        for _, v in lower[lo:hi]:
            c += np.trace(u.conj().T @ v @ rho)
    return _fringe(c)


def contrast_independent_env(upper: ArmSpec, lower: ArmSpec, rho) -> FringeResult:
    """Interference contrast when each arm carries its own environment.

    Only the undisturbed components interfere: C = Tr[u0^dag v0 rho] with u0,
    v0 the zero-delay Kraus operator of each arm (the zero matrix if an arm
    has none).
    """
    rho = validate_density_matrix(rho)
    u0 = _zero_delay_op(compose_arm(upper))
    v0 = _zero_delay_op(compose_arm(lower))
    return _fringe(np.trace(u0.conj().T @ v0 @ rho))


def _zero_delay_op(kraus) -> np.ndarray:
    for delay, op in kraus:
        if abs(delay) <= DELAY_MERGE_TOL:
            return op
    return np.zeros((2, 2), dtype=complex)


def output_probability(f: FringeResult, phi: float) -> float:
    """Lower-port detection probability P(phi) = (1 + Re[e^{i phi} C]) / 2."""
    p = 0.5 * (1.0 + (np.exp(1j * phi) * f.contrast).real)
    if abs(p - 0.5) > 0.5 + 1e-9:
        raise RuntimeError(f"probability {p} outside [0, 1]: contrast {f.contrast} "
                           "exceeds unit magnitude")
    if -1e-12 <= p < 0.0:
        p = 0.0
    elif 1.0 < p <= 1.0 + 1e-12:
        p = 1.0
    return float(p)


class _OraclePieces:
    """Phase-independent part of the dilation-oracle evolution.

    The joint state starts as |0>_path (x) rho (x) |bin_0> with rho factored
    into scaled eigenvector columns, held as an array (path, polarization,
    time bin, column). The first beamsplitter acts on the path, and each arm
    then acts element by element on its own path component: the upper arm on
    path 0, the lower arm on path 1. ``ports`` applies the phase plate to
    path 1 and the closing beamsplitter, the inverse of the first. The phase
    plate is applied after the arms, which is the same because both act
    diagonally on the path.
    """

    def __init__(self, spec: InterferometerSpec):
        unit, n = _delay_grid([spec.upper, spec.lower])
        evals, evecs = np.linalg.eigh(spec.input_state)
        state = np.zeros((2, 2, n, 2), dtype=complex)
        state[0, :, 0, :] = evecs * np.sqrt(np.clip(evals, 0.0, None))
        state = np.einsum("ab,b...->a...", beamsplitter(), state)
        self.paths = np.stack([_evolve_arm(spec.upper, state[0], unit),
                               _evolve_arm(spec.lower, state[1], unit)])

    def ports(self, phis) -> np.ndarray:
        """Output columns at each phase, shape (phase, port, polarization, bin,
        column); port 0 is the lower port."""
        closing = beamsplitter().conj().T @ np.array([phase_shifter(phi) for phi in phis])
        return np.einsum("kab,b...->ka...", closing, self.paths)


def _port_probabilities(out: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(out) ** 2, axis=(-3, -2, -1))


def oracle_probabilities(spec: InterferometerSpec, phi: float) -> tuple[float, float]:
    """Both port probabilities (lower, upper) from the dilation oracle."""
    p0, p1 = _port_probabilities(_OraclePieces(spec).ports([phi])[0])
    return float(p0), float(p1)


def oracle_probability(spec: InterferometerSpec, phi: float) -> float:
    """Lower-port detection probability from the dilation oracle."""
    return oracle_probabilities(spec, phi)[0]


def oracle_contrast(spec: InterferometerSpec, n_phases: int = 16) -> complex:
    """Complex contrast extracted from the oracle fringe.

    Samples P(phi) on a uniform phase grid and returns its unit-frequency
    Fourier component, C = 4 <P(phi_k) e^{-i phi_k}>. Requires n_phases >= 3
    so the conjugate component aliases to zero.
    """
    if n_phases < 3:
        raise ValueError("need at least 3 phases to extract the contrast")
    phis = 2.0 * np.pi * np.arange(n_phases) / n_phases
    p0 = _port_probabilities(_OraclePieces(spec).ports(phis)[:, 0])
    return complex(4.0 * np.mean(p0 * np.exp(-1j * phis)))


def output_polarization_state(spec: InterferometerSpec, phi: float) -> np.ndarray:
    """Conditional polarization state in the lower port, post-selected on
    detection at phase ``phi``."""
    out0 = _OraclePieces(spec).ports([phi])[0, 0]
    p = float(_port_probabilities(out0))
    if p < 1e-12:
        raise RuntimeError(f"degenerate post-selection: detection probability {p:.3e}")
    return np.einsum("pbk,qbk->pq", out0, out0.conj()) / p
