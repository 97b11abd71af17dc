"""Delay-tagged Kraus operators for birefringent interferometer arms.

A birefringent crystal splits polarization into its ordinary and
extraordinary components and retards the extraordinary one, entangling the
polarization qubit with photon arrival time. An arm is an ordered list of
optical elements in traversal order; composing it yields delays (k,) and 2x2
Kraus operators (k, 2, 2), one per distinct accumulated delay. Delays are
micrometers of o/e wavepacket separation. Only delay differences are
observable, so the o-ray carries zero delay by convention. Crystal delays
are whole picometres, which composition adds exactly.

``compose_arms`` composes any list of arms into one Kraus table, each arm's
rows in delay order, arm after arm, in one loop over crystal indices: each step
merges one crystal's delays and sums its operators. ``arm_channel_apply`` maps
a stack of states through the operators of each arm of a table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import UNITARY_ATOL, half_waveplate, matmul2, rotated_basis, validate_density_matrix

__all__ = [
    "PM_PER_UM",
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

# Picometres per micrometre: crystal delays, in micrometres, are whole picometres.
PM_PER_UM = 1e6
# Entrywise threshold below which a composed branch operator is dropped as an
# exact-orthogonality artifact.
ZERO_OP_TOL = 1e-14
# Distinct delays beyond which compose_arms refuses to run: 16x the 1,024 bins
# of ten crystals at 150 * 2^k um. A 2^14-bin arm composes in about a second.
COMPOSE_BIN_LIMIT = 2**14


class ResourceLimitError(ValueError):
    """Input past a stated resource limit (COMPOSE_BIN_LIMIT, ORACLE_DIM_LIMIT, a 2**53 mean,
    2**52 pm of total crystal delay in one arm, the CLI counts phases, beta-points, specs)."""


@dataclass(frozen=True)
class Crystal:
    """Birefringent crystal: fast axis at ``axis_angle`` (finite radians from
    horizontal), o/e separation ``delay`` (micrometers, >= 0), a whole number
    of picometres below 2**52: ``round(delay * PM_PER_UM) / PM_PER_UM ==
    delay``, so 0.1 is accepted and 0.1 * 3 (0.30000000000000004) is refused.
    ``compose_arms`` refuses an arm whose delays add up to 2**52 pm."""

    axis_angle: float
    delay: float

    def __post_init__(self):
        if not math.isfinite(self.axis_angle):
            raise ValueError(f"crystal axis_angle must be finite, got {self.axis_angle}")
        pm = self.delay * PM_PER_UM
        if not math.isfinite(pm) or pm < 0:
            raise ValueError(f"crystal delay must be >= 0 and finite in pm, got {self.delay}")
        if pm < 2**52 and round(pm) / PM_PER_UM != self.delay:
            raise ValueError(f"crystal delay {self.delay!r} um is not in whole picometres")


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
    """Unitaries (elements, 2, 2) of waveplates or of raw unitaries, one kind,
    the waveplates' from one angle array."""
    if type(elems[0]) is RawUnitary:
        return np.array([e.matrix for e in elems])
    if type(elems[0]) is not Waveplate:
        raise ValueError(f"unknown arm element {elems[0]!r}")
    return half_waveplate(np.array([e.axis_angle for e in elems])).transpose(2, 0, 1)


def _walk_arms(arms: Sequence[ArmSpec]) -> tuple[list, dict]:
    """Each arm's crystals, and the other elements of all arms keyed by
    (crystals before them, rank after the last of those, kind) as (arms,
    elements). An arm whose crystal delays reach 2**52 pm raises
    ResourceLimitError: below it, micrometres tell every picometre apart."""
    crystals, others = [], {}
    for i, arm in enumerate(arms):
        own, rank, total = [], 0, 0
        for e in arm:
            if type(e) is Crystal:
                own.append(e)
                rank, total = 0, total + round(e.delay * PM_PER_UM)  # whole pm, exact
            else:
                key = (len(own), rank, type(e))
                if key not in others:
                    others[key] = [], []
                others[key][0].append(i)
                others[key][1].append(e)
                rank += 1
        if total >= 2**52:
            raise ResourceLimitError(f"resource limit: arm {i}'s crystal delays reach 2**52 pm")
        crystals.append(own)
    return crystals, others


def compose_arms(arms: Sequence[ArmSpec]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kraus table of any list of arms: owner (K,), the index of each row's
    arm, delays (K,) and operators (K, 2, 2), arm after arm, each arm's rows in
    delay order; one arm's Kraus set is ``compose_arms([arm])[1:]``.

    All arms are composed in one loop, crystal index by crystal index, each in
    traversal order (later elements left-multiplied); ordered by descending
    crystal count, the arms that have crystal c own a prefix of the table.
    At each crystal, their o- and e-branches are sorted stably on exact (arm,
    delay) keys, delays in whole picometres, the operators of equal keys are
    summed coherently, and the waveplates and raw unitaries that follow the
    crystal are applied. An arm past ``COMPOSE_BIN_LIMIT`` delays raises
    ResourceLimitError at the crystal that passes it, before that crystal's
    operators are built. Zero rule: each arm drops its operators below
    ``ZERO_OP_TOL`` entrywise (README, "Conventions and numerics").
    """
    crystals, others = _walk_arms(arms)
    counts = np.array([len(own) for own in crystals], dtype=np.intp)
    arm = (-counts).argsort(kind="stable")
    # the arms that have crystal c, and their crystals c: that of arm[i] at first[c] + i
    having = (len(arms) - np.bincount(counts).cumsum())[:-1]
    flat = [crystals[i][c] for c, n in enumerate(having.tolist()) for i in arm[:n].tolist()]
    first, delay = having.cumsum() - having, np.array([e.delay for e in flat], dtype=float)
    delay = np.rint(delay * PM_PER_UM)  # whole picometres
    segments = [[] for _ in range(len(having) + 1)]
    for key in sorted(others, key=lambda key: key[:2]):
        segments[key[0]].append(others[key])
    # each crystal's o- and e-ket, real, from one angle array: (crystals, branch, 2)
    kets = rotated_basis(np.array([e.axis_angle for e in flat])).real.transpose(2, 0, 1)
    # the rows as (arm, delay) keys arm + i delay, exact in pm, and their operators
    keys = np.arange(len(arms)) + 0j
    kraus = np.eye(2, dtype=complex)[None].repeat(len(arms), axis=0)
    for c, segment in enumerate(segments):
        if c:  # crystal c - 1, then the elements that follow it
            prefix = keys[:keys.searchsorted(having[c - 1])]
            at = prefix.real.astype(np.intp) + first[c - 1]  # each row's crystal in flat
            branches = prefix.repeat(2)  # each row's o-branch, then its e-branch
            branches[1::2] += 1j * delay[at]
            order = branches.argsort(kind="stable")
            branches = branches[order]
            starts = np.concatenate(([True], branches[1:] != branches[:-1])).nonzero()[0]
            keys = np.concatenate((branches[starts], keys[len(at):]))
            del prefix, branches
            if (len(starts) > COMPOSE_BIN_LIMIT
                    and np.bincount(keys.real.astype(np.intp)).max() > COMPOSE_BIN_LIMIT):
                raise ResourceLimitError(
                    f"resource limit: arm reaches more than {COMPOSE_BIN_LIMIT} distinct delays "
                    "(COMPOSE_BIN_LIMIT)")
            # Projectors have rank 1, P K = |k><k|K: each row's o- and e-bras <k|K, then
            # outer products with the real kets in sorted order, as floats. A group has
            # at most two branches (an arm's keys are distinct); reduceat adds them.
            ket = kets.take(at, axis=0)  # take: a tenth of the time of [at] here
            bra = matmul2(ket, kraus[:len(at)].view(float)).reshape(-1, 4).take(order, axis=0)
            ket = ket.reshape(-1, 2).take(order, axis=0)
            terms = (ket[:, :, None] * bra[:, None]).view(complex)
            del ket, bra
            terms = np.add.reduceat(terms, starts)
            kraus = np.concatenate((terms, kraus[len(at):]))
            del terms
        # each rank of waveplates or raw unitaries to the rows of its arms
        for members, elems in segment:
            which = np.full(len(arms), -1)
            which[members] = np.arange(len(members))
            which = which[arm][keys.real.astype(np.intp)]
            rows = (which >= 0).nonzero()[0]
            kraus[rows] = matmul2(_element_kraus(elems).take(which[rows], axis=0),
                                  kraus.take(rows, axis=0))
    owner = arm[keys.real.astype(np.intp)]
    kept = np.flatnonzero(~(np.maximum.reduce(np.abs(kraus), axis=(1, 2)) < ZERO_OP_TOL))
    kept = kept[owner[kept].argsort(kind="stable")]
    return owner[kept], keys.imag[kept] / PM_PER_UM, kraus.take(kept, axis=0)


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
        op = ops.take(starts[counts > j] + j, axis=0)
        out[counts > j] += matmul2(matmul2(op, rho), op.conj().swapaxes(-1, -2))
    return out
