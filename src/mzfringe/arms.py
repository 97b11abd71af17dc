"""Delay-tagged Kraus operators for birefringent interferometer arms.

A birefringent crystal splits polarization into its ordinary and
extraordinary components and retards the extraordinary one, entangling the
polarization qubit with photon arrival time. An arm is an ordered list of
optical elements in traversal order; composing it yields (delay, op) pairs,
one 2x2 Kraus operator per distinct accumulated delay. Delays are stored in
micrometers of o/e wavepacket separation. Only delay differences are
observable, so the o-ray carries zero delay by convention.

The dilation oracle does not compose Kraus sets. It applies an arm element by
element to vectors on polarization (x) time bins, on a grid whose unit is the
gcd of the crystal delays (``_delay_grid``, ``_evolve_arm``), so it checks
``compose_arm`` rather than repeating it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .core import (
    UNITARY_ATOL,
    as_complex_matrix,
    half_waveplate,
    rotated_basis,
    validate_density_matrix,
)

__all__ = [
    "DELAY_MERGE_TOL",
    "ZERO_OP_TOL",
    "ORACLE_DIM_LIMIT",
    "Crystal",
    "Waveplate",
    "RawUnitary",
    "ArmElement",
    "ArmSpec",
    "compose_arm",
    "arm_dilation",
    "arm_channel_apply",
]

# Delays in scope are exact sums of configuration constants, so this tolerance
# only merges genuinely equal sums.
DELAY_MERGE_TOL = 1e-9
# Entrywise threshold below which a composed branch operator is dropped as an
# exact-orthogonality artifact.
ZERO_OP_TOL = 1e-14
# Joint path x polarization x time-bin dimension beyond which the oracle
# refuses to run.
ORACLE_DIM_LIMIT = 4096


@dataclass(frozen=True)
class Crystal:
    """Birefringent crystal: fast axis at ``axis_angle`` (radians from
    horizontal), o/e separation ``delay`` in micrometers."""

    axis_angle: float
    delay: float

    def __post_init__(self):
        if not np.isfinite(self.delay) or self.delay < 0:
            raise ValueError(f"crystal delay must be finite and >= 0, got {self.delay}")


@dataclass(frozen=True)
class Waveplate:
    """Half-wave plate with fast axis at ``axis_angle`` (radians)."""

    axis_angle: float


@dataclass(frozen=True)
class RawUnitary:
    """An arbitrary 2x2 unitary element acting on polarization alone."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "matrix")
        if m.shape != (2, 2):
            raise ValueError(f"RawUnitary must be 2x2, got shape {m.shape}")
        resid = float(np.max(np.abs(m.conj().T @ m - np.eye(2))))
        if resid > UNITARY_ATOL:
            raise ValueError(f"RawUnitary is not unitary (residual {resid:.3e})")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


ArmElement = Union[Crystal, Waveplate, RawUnitary]
ArmSpec = Sequence[ArmElement]


def _element_kraus(elem: ArmElement) -> list[tuple[float, np.ndarray]]:
    """(delay, op) pairs of one element: a crystal's o-ray projector at delay 0
    and e-ray projector at its delay, or a single unitary at delay 0."""
    if isinstance(elem, Crystal):
        ket_o, ket_e = rotated_basis(elem.axis_angle)
        return [(0.0, np.outer(ket_o, ket_o.conj())),
                (float(elem.delay), np.outer(ket_e, ket_e.conj()))]
    if isinstance(elem, Waveplate):
        return [(0.0, half_waveplate(elem.axis_angle))]
    if isinstance(elem, RawUnitary):
        return [(0.0, elem.matrix)]
    raise ValueError(f"unknown arm element {elem!r}")


def compose_arm(arm: ArmSpec) -> list[tuple[float, np.ndarray]]:
    """Delay-tagged Kraus operators of a whole arm as (delay, op) pairs.

    Applies the elements in traversal order (later elements left-multiplied).
    After each element, branches whose total delays coincide within
    ``DELAY_MERGE_TOL`` of the smallest delay of their group are merged
    coherently, so the set never holds more operators than distinct delays.
    Operators that vanish entrywise below ``ZERO_OP_TOL`` are dropped at the
    end. The result is sorted by delay.
    """
    kraus: list[tuple[float, np.ndarray]] = [(0.0, np.eye(2, dtype=complex))]
    for elem in arm:
        branches = sorted(((d_k + d_e, op_e @ op_k)
                           for d_e, op_e in _element_kraus(elem)
                           for d_k, op_k in kraus), key=lambda t: t[0])
        kraus = []
        for d, op in branches:
            if kraus and d - kraus[-1][0] <= DELAY_MERGE_TOL:
                kraus[-1] = (kraus[-1][0], kraus[-1][1] + op)
            else:
                kraus.append((d, op))
    return [(d, op) for d, op in kraus if float(np.max(np.abs(op))) >= ZERO_OP_TOL]


def _gcd(a: float, b: float) -> float:
    """Euclid's algorithm on delays; a remainder within DELAY_MERGE_TOL ends it."""
    while b > DELAY_MERGE_TOL:
        a, b = b, a % b
    return a


def _shift(delay: float, unit: float) -> int:
    return round(delay / unit) if unit else 0


def _delay_grid(arms: Sequence[ArmSpec]) -> tuple[float, int]:
    """Unit and bin count of a time grid that holds every delay of ``arms``.

    The unit is the gcd of the crystal delays (0 when every delay is within
    DELAY_MERGE_TOL of zero). Bin 0 is the input bin, and the grid reaches the
    largest total crystal delay of any one arm, so cyclic shifts of a vector
    that starts in bin 0 never wrap. Raises ValueError, before anything is
    allocated, when the joint dimension 4 * bins exceeds ORACLE_DIM_LIMIT;
    incommensurate delays drive the unit towards DELAY_MERGE_TOL and end there.
    """
    crystals = [[e.delay for e in arm if isinstance(e, Crystal)] for arm in arms]
    unit = reduce(_gcd, (d for delays in crystals for d in delays), 0.0)
    n = 1 + max((sum(_shift(d, unit) for d in delays) for delays in crystals), default=0)
    if 4 * n > ORACLE_DIM_LIMIT:
        raise ValueError(f"resource limit: joint dimension {4 * n} exceeds "
                         f"{ORACLE_DIM_LIMIT} (time grid of {n} bins at {unit:.6g} um)")
    return unit, n


def _evolve_arm(arm: ArmSpec, cols: np.ndarray, unit: float) -> np.ndarray:
    """Apply an arm element by element to columns on polarization (x) time bins.

    ``cols`` has shape (2, bins, k). A crystal acts as P_o (x) I + P_e (x) S_d,
    with S_d the cyclic shift by its delay in grid units, computed as
    x + P_e (S_d x - x) because P_o + P_e = I; waveplates and raw unitaries act
    as U (x) I.
    """
    for elem in arm:
        if isinstance(elem, Crystal):
            _, ket_e = rotated_basis(elem.axis_angle)
            delayed = np.roll(cols, _shift(elem.delay, unit), axis=1) - cols
            cols = cols + np.einsum("pq,q...->p...", np.outer(ket_e, ket_e.conj()), delayed)
        elif isinstance(elem, Waveplate):
            cols = np.einsum("pq,q...->p...", half_waveplate(elem.axis_angle), cols)
        elif isinstance(elem, RawUnitary):
            cols = np.einsum("pq,q...->p...", elem.matrix, cols)
        else:
            raise ValueError(f"unknown arm element {elem!r}")
    return cols


def arm_dilation(arm: ArmSpec) -> tuple[np.ndarray, list[float]]:
    """Exact unitary of an arm on polarization (x) time bins.

    Returns (unitary, bins) with bins the delays of the arm's time grid (see
    ``_delay_grid``). Rows and columns are indexed pol-major, p * len(bins) +
    bin. The block at (bins[k], bin 0) is the arm's Kraus operator at delay
    bins[k], or zero where no path arrives.
    """
    unit, n = _delay_grid([arm])
    u = _evolve_arm(arm, np.eye(2 * n, dtype=complex).reshape(2, n, 2 * n), unit)
    return u.reshape(2 * n, 2 * n), [k * unit for k in range(n)]


def arm_channel_apply(arm: ArmSpec, rho) -> np.ndarray:
    """Polarization channel of an arm with the time bins traced out:
    sum_k K rho K^dag over the composed Kraus set."""
    rho = validate_density_matrix(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"arm channels act on 2x2 states, got shape {rho.shape}")
    out = np.zeros((2, 2), dtype=complex)
    for _, op in compose_arm(arm):
        out += op @ rho @ op.conj().T
    return out
