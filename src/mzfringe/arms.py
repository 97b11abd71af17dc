"""Delay-tagged Kraus operators for birefringent interferometer arms.

A birefringent crystal splits polarization into its ordinary and
extraordinary components and retards the extraordinary one, entangling the
polarization qubit with photon arrival time. An arm is an ordered list of
optical elements in traversal order; composing it yields delays (k,) and 2x2
Kraus operators (k, 2, 2), one per distinct accumulated delay. Delays are
micrometers of o/e wavepacket separation. Only delay differences are
observable, so the o-ray carries zero delay by convention.

``compose_arms`` composes any list of arms into one Kraus table, each arm's
rows in delay order, arm after arm, composing the arms of one crystal-delay
sequence as one stack (``_compose_stack``). ``arm_channel_apply`` maps a stack
of states through the operators of each arm of a table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import UNITARY_ATOL, half_waveplate, rotated_basis, validate_density_matrix

__all__ = [
    "DELAY_MERGE_TOL",
    "ZERO_OP_TOL",
    "Crystal",
    "Waveplate",
    "RawUnitary",
    "ArmElement",
    "ArmSpec",
    "COMPOSE_BIN_LIMIT",
    "ResourceLimitError",
    "compose_arms",
    "arm_channel_apply",
]

# Delays in scope are exact sums of configuration constants, so this tolerance
# only merges genuinely equal sums.
DELAY_MERGE_TOL = 1e-9
# Entrywise threshold below which a composed branch operator is dropped as an
# exact-orthogonality artifact.
ZERO_OP_TOL = 1e-14
# Distinct delays beyond which compose_arms refuses to run: 16x the 1,024 bins
# of ten crystals at 150 * 2^k um. A 2^14-bin arm composes in about a second.
COMPOSE_BIN_LIMIT = 2**14
# The Kraus set (arms, k, 2, 2) of one empty arm.
_IDENTITY = np.eye(2, dtype=complex)[None, None]


class ResourceLimitError(ValueError):
    """Input past a stated resource limit (COMPOSE_BIN_LIMIT, ORACLE_DIM_LIMIT, a 2**53 mean)."""


@dataclass(frozen=True)
class Crystal:
    """Birefringent crystal: fast axis at ``axis_angle`` (finite radians from
    horizontal), o/e separation ``delay`` (finite micrometers, >= 0)."""

    axis_angle: float
    delay: float

    def __post_init__(self):
        if not math.isfinite(self.axis_angle):
            raise ValueError(f"crystal axis_angle must be finite, got {self.axis_angle}")
        if not math.isfinite(self.delay) or self.delay < 0:
            raise ValueError(f"crystal delay must be finite and >= 0, got {self.delay}")


@dataclass(frozen=True)
class Waveplate:
    """Half-wave plate with fast axis at ``axis_angle`` (finite radians)."""

    axis_angle: float

    def __post_init__(self):
        if not math.isfinite(self.axis_angle):
            raise ValueError(f"waveplate axis_angle must be finite, got {self.axis_angle}")


@dataclass(frozen=True)
class RawUnitary:
    """An arbitrary 2x2 unitary element acting on polarization alone, held as a
    read-only complex copy: 2x2, finite, and unitary within ``UNITARY_ATOL``.

    The checks run in that order, the last two on the four entries as Python
    complex numbers: the residual is the largest entry of |M^dag M - I|, and
    one that overflows to inf or NaN fails."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"RawUnitary must be 2x2, got shape {m.shape}")
        a, b, c, d = m.ravel().tolist()
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ValueError("RawUnitary contains NaN or Inf entries")
        off = a.conjugate() * b + c.conjugate() * d
        resid = max(abs((a.conjugate() * a + c.conjugate() * c).real - 1.0),
                    abs((b.conjugate() * b + d.conjugate() * d).real - 1.0),
                    math.hypot(off.real, off.imag))
        if not resid <= UNITARY_ATOL:
            raise ValueError(f"RawUnitary is not unitary (residual {resid:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


ArmElement = Union[Crystal, Waveplate, RawUnitary]
ArmSpec = Sequence[ArmElement]


def _element_kraus(elems: Sequence[ArmElement]) -> np.ndarray:
    """Operators (arms, m, 2, 2) of elements of one kind across an arm stack,
    from one angle array: a crystal's o-ray and e-ray projectors, in that
    order, or a single unitary. C order keeps each operator contiguous, so
    matmul rounds its products as for a single arm."""
    kind = type(elems[0])
    if kind is RawUnitary:
        return np.array([[e.matrix] for e in elems])
    angles = np.array([e.axis_angle for e in elems])
    if kind is Crystal:
        kets = rotated_basis(angles)
        ops = kets[:, :, None] * kets[:, None].conj()
    elif kind is Waveplate:
        ops = half_waveplate(angles)[None]
    else:
        raise ValueError(f"unknown arm element {elems[0]!r}")
    return np.ascontiguousarray(ops.transpose(3, 0, 1, 2))


def _stack_steps(arms: Sequence[ArmSpec]) -> tuple[list, list]:
    """The elements of an arm stack in kind subsets: the crystals by index,
    one per arm, and the other elements by segment, those before crystal 0
    and after each crystal, as (rows, elements) of one rank and kind in rank
    order; the arms share their crystal delays."""
    crystals, others = [], {}
    for row, arm in enumerate(arms):
        passed = rank = 0
        for e in arm:
            if type(e) is Crystal:
                if passed == len(crystals):
                    crystals.append([])
                crystals[passed].append(e)
                passed, rank = passed + 1, 0
            else:
                key = (passed, rank, type(e))
                if key not in others:
                    others[key] = [], []
                others[key][0].append(row)
                others[key][1].append(e)
                rank += 1
    segments = [[] for _ in range(len(crystals) + 1)]
    for key in sorted(others, key=lambda key: key[:2]):
        segments[key[0]].append(others[key])
    return crystals, segments


def _compose_stack(arms: Sequence[ArmSpec]) -> tuple[np.ndarray, np.ndarray]:
    """Kraus sets of a stack of arms that share their crystal delays: delays
    (k,) of the stack and operators (arms, k, 2, 2), sorted by delay.

    Applies the elements in traversal order (later elements left-multiplied).
    After each crystal, the o- and e-branches are sorted stably by total delay
    and a branch joins the group whose first delay lies within
    ``DELAY_MERGE_TOL``; a group's operators are summed coherently. The delays
    are composed first, and more than ``COMPOSE_BIN_LIMIT`` of them raise
    ResourceLimitError before any operator is built. Waveplates and raw
    unitaries between two crystals may differ across the stack; each rank of
    them is applied to the arms that have it.
    """
    crystals, segments = _stack_steps(arms)
    delays, merges = np.zeros(1), []
    for elems in crystals:
        branches = np.concatenate((delays, delays + float(elems[0].delay)))
        order = branches.argsort(kind="stable")
        branches = branches[order]
        start = np.empty(len(branches), dtype=bool)
        start[0] = True
        start[1:] = branches[1:] - branches[:-1] > DELAY_MERGE_TOL
        # A branch within the tolerance of its predecessor joins the group
        # only if it also lies within the tolerance of the group's first delay.
        for i in (~start).nonzero()[0].tolist():
            if start[i - 1]:
                leader = branches[i - 1]
            start[i] = branches[i] - leader > DELAY_MERGE_TOL
        starts = start.nonzero()[0]
        delays = branches[starts]
        if len(delays) > COMPOSE_BIN_LIMIT:
            raise ResourceLimitError(
                f"resource limit: arm reaches more than {COMPOSE_BIN_LIMIT} "
                "distinct delays (COMPOSE_BIN_LIMIT)")
        merges.append((order, starts))
    # the projectors of every crystal from one angle array, crystal by crystal
    projectors = _element_kraus([e for elems in crystals for e in elems]) if crystals else None
    kraus = _IDENTITY.repeat(len(arms), axis=0)
    for index, segment in enumerate(segments):
        if index:
            # Each half of a crystal's branches is spaced by more than the
            # tolerance (up to rounding), so a group holds at most an o- and
            # an e-branch, which reduceat adds in sorted order.
            ops = projectors[(index - 1) * len(arms):index * len(arms)]
            order, starts = merges[index - 1]
            kraus = (ops[:, :, None] @ kraus[:, None]).reshape(len(arms), -1, 2, 2)
            kraus = np.add.reduceat(kraus.take(order, axis=1), starts, axis=1)
        for rows, elems in segment:
            if len(rows) == len(arms):
                kraus = _element_kraus(elems) @ kraus
            else:
                kraus[rows] = _element_kraus(elems) @ kraus[rows]
    return delays, kraus


def compose_arms(arms: Sequence[ArmSpec]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kraus table of any list of arms: owner (K,), the index of each row's
    arm, delays (K,) and operators (K, 2, 2), arm after arm, each arm's rows in
    delay order; one arm's Kraus set is ``compose_arms([arm])[1:]``. The arms
    of one crystal-delay sequence are composed as one stack
    (``_compose_stack``). Zero rule: each arm drops its operators below
    ``ZERO_OP_TOL`` entrywise (README, "Conventions and numerics").
    """
    groups: dict = {}
    for i, arm in enumerate(arms):
        groups.setdefault(tuple([e.delay for e in arm if type(e) is Crystal]), []).append(i)
    columns = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros((0, 2, 2), dtype=complex))]
    for members in groups.values():
        delays, kraus = _compose_stack([arms[i] for i in members])
        keep = ~(np.maximum.reduce(np.abs(kraus), axis=(2, 3)) < ZERO_OP_TOL)
        columns.append((np.repeat(members, keep.sum(axis=1)),
                        np.broadcast_to(delays, keep.shape)[keep],
                        kraus.reshape(-1, 2, 2).compress(keep.ravel(), axis=0)))
    owner, delays, ops = (np.concatenate(column) for column in zip(*columns))
    order = owner.argsort(kind="stable")
    return owner[order], delays[order], ops[order]


def arm_channel_apply(table: tuple, rho) -> np.ndarray:
    """Polarization channels, time traced out, of the arms of a Kraus table
    from ``compose_arms``: sum_k K rho K^dag over each arm's operators, added
    in delay order from 0, as outputs (arms, ..., 2, 2) for ``rho``, one state
    or a stack (..., 2, 2). Anything but a table whose operators are
    (k, 2, 2), such as an element list, raises ValueError."""
    owner, _, ops = table if type(table) is tuple and len(table) == 3 else (None, None, table)
    shape = (len(ops),) if type(ops) is tuple else np.shape(ops)  # a tuple may be ragged
    if owner is None or len(shape) != 3 or shape[1:] != (2, 2):
        raise ValueError("arm_channel_apply takes the Kraus table (owner, delays, ops) of "
                         f"compose_arms, ops of shape (k, 2, 2), got shape {shape}")
    rho = validate_density_matrix(rho)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"arm channels act on 2x2 states, got shape {rho.shape}")
    counts = np.bincount(owner)
    starts = counts.cumsum() - counts
    # each operator broadcast over the stack of states
    ops = ops.reshape((len(ops),) + (1,) * (rho.ndim - 2) + (2, 2))
    out = np.zeros((len(counts),) + rho.shape, dtype=complex)
    for j in range(counts.max(initial=0)):  # the j-th operator of every arm that has one
        op = ops[starts[counts > j] + j]
        out[counts > j] += op @ rho @ op.conj().swapaxes(-1, -2)
    return out
