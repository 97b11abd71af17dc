"""Delay-tagged Kraus operators for birefringent interferometer arms.

A birefringent crystal splits polarization into its ordinary and
extraordinary components and retards the extraordinary one, entangling the
polarization qubit with photon arrival time. An arm is an ordered list of
optical elements in traversal order; composing it yields delays (k,) and 2x2
Kraus operators (k, 2, 2), one per distinct accumulated delay. Delays are
micrometers of o/e wavepacket separation. Only delay differences are
observable, so the o-ray carries zero delay by convention.

``compose_arms`` composes any list of arms into one Kraus table, each arm's
rows in delay order, arm after arm, in one pass over every arm, crystal index
by crystal index. ``arm_channel_apply`` maps a stack of states through the
operators of each arm of a table.
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


class ResourceLimitError(ValueError):
    """Input past a stated resource limit (COMPOSE_BIN_LIMIT, ORACLE_DIM_LIMIT, a 2**53 mean,
    float64's range for an arm's total crystal delay)."""


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
    """Operators (arms, m, 2, 2) of elements of one kind, one per element, from
    one angle array: a crystal's o-ray and e-ray projectors, in that order, or a
    single unitary. C order keeps each operator contiguous, so matmul rounds its
    products as for a single arm."""
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


def _walk_arms(arms: Sequence[ArmSpec]) -> tuple[list, dict]:
    """Each arm's crystals, and the other elements of all arms keyed by
    (crystals before them, rank after the last of those, kind) as (arms,
    elements). An arm whose crystal delays, added in traversal order, pass the
    largest float raises ResourceLimitError: that sum bounds its delays."""
    crystals, others = [], {}
    for i, arm in enumerate(arms):
        own, rank, total = [], 0, 0.0
        for e in arm:
            if type(e) is Crystal:
                own.append(e)
                rank, total = 0, total + e.delay
            else:
                key = (len(own), rank, type(e))
                if key not in others:
                    others[key] = [], []
                others[key][0].append(i)
                others[key][1].append(e)
                rank += 1
        if not math.isfinite(total):
            raise ResourceLimitError(f"resource limit: arm {i}'s crystal delays overflow float64")
        crystals.append(own)
    return crystals, others


def compose_arms(arms: Sequence[ArmSpec]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kraus table of any list of arms: owner (K,), the index of each row's
    arm, delays (K,) and operators (K, 2, 2), arm after arm, each arm's rows in
    delay order; one arm's Kraus set is ``compose_arms([arm])[1:]``.

    All arms are composed in one pass, crystal index by crystal index, each in
    traversal order (later elements left-multiplied); ordered by descending
    crystal count, the arms that have crystal c own a prefix of the table.
    After each crystal, their o- and e-branches are sorted stably on exact
    (arm, delay) keys, and a branch joins its arm's group whose first delay
    lies within ``DELAY_MERGE_TOL``; a group's operators are summed
    coherently. The delays are composed first: an arm past
    ``COMPOSE_BIN_LIMIT`` of them raises ResourceLimitError before any
    operator is built. Zero rule: each arm drops its operators below
    ``ZERO_OP_TOL`` entrywise (README, "Conventions and numerics").
    """
    crystals, others = _walk_arms(arms)
    counts = np.array([len(own) for own in crystals], dtype=np.intp)
    arm = (-counts).argsort(kind="stable")
    # the arms that have crystal c, and their crystals c: that of arm[i] at first[c] + i
    having = (len(arms) - np.bincount(counts).cumsum())[:-1]
    flat = [crystals[i][c] for c, n in enumerate(having.tolist()) for i in arm[:n].tolist()]
    first, delay = having.cumsum() - having, np.array([e.delay for e in flat], dtype=float)
    segments = [[] for _ in range(len(having) + 1)]
    for key in sorted(others, key=lambda key: key[:2]):
        segments[key[0]].append(others[key])
    # the rows as exact (arm, delay) keys arm + i delay, before each crystal
    keys = np.arange(len(arms)) + 0j
    steps = [(None, None, None, keys)]
    for n, base in zip(having.tolist(), first.tolist()):
        prefix = keys[:keys.searchsorted(n)]
        at = prefix.real.astype(np.intp) + base  # the crystal of each row's arm in flat
        branches = np.concatenate((prefix, prefix + 1j * delay[at]))
        order = branches.argsort(kind="stable")
        branches = branches[order]
        delays, owners = branches.imag, branches.real
        start = np.concatenate(([True], (delays[1:] - delays[:-1] > DELAY_MERGE_TOL)
                                | (owners[1:] != owners[:-1])))
        # A branch within the tolerance of its predecessor joins the group
        # only if it also lies within the tolerance of the group's first
        # delay, a test that only a branch after another joining one can fail.
        for i in (np.flatnonzero(~(start[1:-1] | start[2:])) + 2).tolist():
            if start[i - 1]:
                leader = delays[i - 1]
            elif start[i - 2]:
                leader = delays[i - 2]
            start[i] = delays[i] - leader > DELAY_MERGE_TOL
        starts = start.nonzero()[0]
        keys = np.concatenate((branches[starts], keys[len(at):]))
        if (len(starts) > COMPOSE_BIN_LIMIT
                and np.bincount(keys.real.astype(np.intp)).max() > COMPOSE_BIN_LIMIT):
            raise ResourceLimitError(f"resource limit: arm reaches more than {COMPOSE_BIN_LIMIT} "
                                     "distinct delays (COMPOSE_BIN_LIMIT)")
        # the rows' keys only where a waveplate or raw unitary follows
        steps.append((at, order, starts, keys if segments[len(steps)] else None))
    projectors = _element_kraus(flat) if flat else None  # from one angle array
    kraus = np.eye(2, dtype=complex)[None].repeat(len(arms), axis=0)
    for (at, order, starts, row_keys), segment in zip(steps, segments):
        if at is not None:
            # One (4, 2) @ (2, 2) product per row, the o-projector over the
            # e-projector, rounds each entry as the two 2x2 products do. Each
            # half of a crystal's branches is spaced by more than the tolerance
            # (up to rounding), so a group holds at most an o- and an
            # e-branch, which reduceat adds in sorted order.
            products = (projectors[at].reshape(-1, 4, 2) @ kraus[:len(at)]).reshape(-1, 2, 2, 2)
            # the o-products of every row, then the e-products, as the branches
            products = products.swapaxes(0, 1).reshape(-1, 2, 2).take(order, axis=0)
            kraus = np.concatenate((np.add.reduceat(products, starts), kraus[len(at):]))
        # each rank of waveplates or raw unitaries to the rows of its arms
        for members, elems in segment:
            which = np.full(len(arms), -1)
            which[members] = np.arange(len(members))
            which = which[arm][row_keys.real.astype(np.intp)]
            rows = (which >= 0).nonzero()[0]
            kraus[rows] = _element_kraus(elems)[which[rows], 0] @ kraus[rows]
    owner = arm[keys.real.astype(np.intp)]
    kept = np.flatnonzero(~(np.maximum.reduce(np.abs(kraus), axis=(1, 2)) < ZERO_OP_TOL))
    kept = kept[owner[kept].argsort(kind="stable")]
    return owner[kept], keys.imag[kept], kraus[kept]


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
