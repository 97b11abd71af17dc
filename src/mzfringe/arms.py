"""Delay-tagged Kraus operators for birefringent interferometer arms.

A birefringent crystal splits polarization into its ordinary and
extraordinary components and retards the extraordinary one, entangling the
polarization qubit with photon arrival time. An arm is an ordered list of
optical elements in traversal order; composing it yields delays (k,) and 2x2
Kraus operators (k, 2, 2), one per distinct accumulated delay. Delays are
micrometers of o/e wavepacket separation. Only delay differences are
observable, so the o-ray carries zero delay by convention. Crystal delays
are whole picometres, which composition adds exactly.

A stack of arms is one element table (``ArmTable``) of flat arrays, built
by ``element_table`` from arrays or by ``arm_table`` from element lists
(``Crystal``, ``Waveplate``, ``RawUnitary``). ``compose_arms`` composes a
table's arms into one Kraus table, each arm's rows in delay order, arm after
arm, in one loop over crystal indices: each step merges one crystal's delays
and sums its operators. ``arm_channel_apply`` maps a stack of states through
the operators of each arm of a Kraus table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

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
    "CRYSTAL",
    "WAVEPLATE",
    "UNITARY",
    "ArmTable",
    "element_table",
    "arm_table",
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
    An arm table refuses an arm whose delays add up to 2**52 pm."""

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
    read-only complex copy, checked as ``element_table`` checks a unitary: 2x2,
    finite, and unitary within ``UNITARY_ATOL``."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        element_table([1], [UNITARY], [0.0], [0.0], m[None])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


ArmElement = Union[Crystal, Waveplate, RawUnitary]
ArmSpec = Sequence[ArmElement]
CRYSTAL, WAVEPLATE, UNITARY = 0, 1, 2  # element kinds in an ArmTable
_KINDS = {Crystal: CRYSTAL, Waveplate: WAVEPLATE, RawUnitary: UNITARY}


class ArmTable(NamedTuple):
    """A stack of ``arms`` arms as flat arrays over their elements in traversal
    order, arm after arm: ``arm`` each element's arm (ascending; an arm may
    have none), ``kind`` (CRYSTAL, WAVEPLATE or UNITARY), ``angle`` in radians
    (0 for a unitary), ``delay`` a crystal's delay in whole picometres (int64,
    0 for the others), and ``unitary`` (u, 2, 2) the matrices of the u
    unitaries in order. ``element_table`` and ``arm_table`` build it, checked."""

    arms: int
    arm: np.ndarray
    kind: np.ndarray
    angle: np.ndarray
    delay: np.ndarray
    unitary: np.ndarray


def element_table(lengths, kind, angle, delay, unitary) -> ArmTable:
    """The table of arms of ``lengths`` elements each, from element arrays in
    traversal order: kind, angle, delay in micrometres, and the matrices of
    the unitaries (u, 2, 2). A unitary's angle and a delay of any element but
    a crystal are stored as 0.

    The one check of every table runs over its arrays, with the element
    constructors' messages, naming the first element that fails: finite
    angles; crystal delays >= 0 and finite in pm, then in whole picometres;
    unitaries 2x2, finite, then unitary within ``UNITARY_ATOL`` (the largest
    entry of |M^dag M - I|; one that overflows fails). Last, an arm whose
    crystal delays reach 2**52 pm in all raises ResourceLimitError."""
    arm, kind = np.arange(len(lengths)).repeat(lengths), np.asarray(kind, dtype=np.int8)
    if (not len(arm) == len(kind) == len(angle) == len(delay)
            or (kind.view(np.uint8) > UNITARY).any()):
        raise ValueError("an arm table needs a kind (CRYSTAL, WAVEPLATE or UNITARY), an angle "
                         "and a delay for each of its elements")
    angle, delay = np.where(kind == UNITARY, 0.0, angle), np.where(kind == CRYSTAL, delay, 0.0)
    unitary = np.asarray(unitary, dtype=complex)

    def fail(bad, message, error=ValueError) -> None:
        """Raise message(i) for the first i where ``bad`` holds, if any."""
        if np.count_nonzero(bad):
            raise error(message(int(np.argmax(bad))))

    with np.errstate(over="ignore", invalid="ignore"):
        fail(~np.isfinite(angle), lambda i: f"{('crystal', 'waveplate')[kind[i]]} axis_angle "
                                            f"must be finite, got {angle[i]}")
        pm = delay * PM_PER_UM
        fail(~(pm >= 0) | (pm == np.inf),
             lambda i: f"crystal delay must be >= 0 and finite in pm, got {delay[i]}")
        whole = np.rint(pm)
        fail((whole / PM_PER_UM != delay) & (pm < 2**52),
             lambda i: f"crystal delay {float(delay[i])!r} um is not in whole picometres")
        if unitary.shape != (np.count_nonzero(kind == UNITARY), 2, 2):
            raise ValueError(f"RawUnitary must be 2x2, got shape {unitary.shape[1:]}"
                             if unitary.shape[1:] != (2, 2) else "one matrix per unitary")
        if len(unitary):
            fail(~np.isfinite(unitary).all(axis=(1, 2)),
                 lambda i: "RawUnitary contains NaN or Inf entries")
            gram = matmul2(unitary.conj().swapaxes(1, 2), unitary)
            resid = np.abs(gram - np.eye(2)).max(axis=(1, 2))
            fail(~(resid <= UNITARY_ATOL),
                 lambda i: f"RawUnitary is not unitary (residual {resid[i]:.3e})")
        fail(np.bincount(arm, weights=pm, minlength=len(lengths)) >= 2**52,
             lambda i: f"resource limit: arm {i}'s crystal delays reach 2**52 pm",
             ResourceLimitError)
    return ArmTable(len(lengths), arm, kind, angle, whole.astype(np.int64), unitary)


def arm_table(arms: Sequence[ArmSpec]) -> ArmTable:
    """The table of a list of arms, each a list of elements in traversal
    order, checked by ``element_table``; any other element raises ValueError."""
    elements = [e for arm in arms for e in arm]
    kinds = [_KINDS.get(type(e)) for e in elements]
    if None in kinds:
        raise ValueError(f"unknown arm element {elements[kinds.index(None)]!r}")
    return element_table([len(arm) for arm in arms], kinds,
                         [getattr(e, "axis_angle", 0.0) for e in elements],
                         [getattr(e, "delay", 0.0) for e in elements],
                         np.array([e.matrix for e in elements if type(e) is RawUnitary],
                                  dtype=complex).reshape(-1, 2, 2))


def _element_kraus(table: ArmTable) -> np.ndarray:
    """Unitaries (elements, 2, 2) of a table's waveplates and raw unitaries,
    in table order, the waveplates' from one angle array."""
    other = table.kind != CRYSTAL
    ops = half_waveplate(table.angle[other]).transpose(2, 0, 1).copy()  # contiguous, for take
    ops[table.kind[other] == UNITARY] = table.unitary
    return ops


def _walk_arms(table: ArmTable) -> tuple:
    """The arms by descending crystal count (stable), how many of them have
    crystal c, each crystal's element in (c, that order), the other elements,
    and their places among them grouped by (crystals before them, position in
    the arm), each group in arm order, with its crystals before."""
    arm = table.arm
    crystals, others = np.flatnonzero(table.kind == CRYSTAL), np.flatnonzero(table.kind != CRYSTAL)
    counts = np.bincount(arm[crystals], minlength=table.arms)
    order = (-counts).argsort(kind="stable")
    having = (table.arms - np.bincount(counts).cumsum())[:-1]
    # by (c, place of the arm in order), crystal c of the arm at place p is
    # crystal first[c] + p of flat; earlier: the crystals of the arms before
    earlier = counts.cumsum() - counts
    flat = crystals[np.lexsort((order.argsort()[arm[crystals]],
                                np.arange(len(crystals)) - earlier[arm[crystals]]))]
    if not len(others):
        return order, having, flat, others, []
    key = ((crystals.searchsorted(others) - earlier[arm[others]]) * len(arm) + others
           - arm.searchsorted(arm[others]))
    sort = key.argsort(kind="stable")
    key = key[sort]
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    return order, having, flat, others, [(int(key[a]) // len(arm), sort[a:b])
                                         for a, b in zip(bounds, bounds[1:])]


def compose_arms(table: ArmTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kraus table of the arms of an element table (``ArmTable``): owner (K,),
    the index of each row's arm, delays (K,) and operators (K, 2, 2), arm
    after arm, each arm's rows in delay order; one arm's Kraus set is
    ``compose_arms(arm_table([arm]))[1:]``.

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
    arm, having, flat, others, groups = _walk_arms(table)
    first, delay = having.cumsum() - having, table.delay.take(flat).astype(float)
    element_ops = _element_kraus(table) if groups else None
    # each crystal's o- and e-ket, real, from one angle array: (crystals, branch, 2)
    kets = rotated_basis(table.angle.take(flat)).real.transpose(2, 0, 1).copy()
    # the rows as (arm, delay) keys arm + i delay, exact in pm, and their operators
    keys = np.arange(table.arms) + 0j
    kraus = np.eye(2, dtype=complex)[None].repeat(table.arms, axis=0)
    for c in range(len(having) + 1):
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
        # each position of waveplates and raw unitaries to the rows of its arms
        while groups and groups[0][0] == c:
            group = groups.pop(0)[1]
            which = np.full(table.arms, -1)
            which[table.arm.take(others.take(group))] = group
            which = which[arm][keys.real.astype(np.intp)]
            rows = (which >= 0).nonzero()[0]
            kraus[rows] = matmul2(element_ops.take(which[rows], axis=0), kraus.take(rows, axis=0))
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
    counts = np.bincount(owner)
    starts = counts.cumsum() - counts
    # each operator broadcast over the stack of states
    ops = ops.reshape((len(ops),) + (1,) * (rho.ndim - 2) + (2, 2))
    out = np.zeros((len(counts),) + rho.shape, dtype=complex)
    for j in range(counts.max(initial=0)):  # the j-th operator of every arm that has one
        op = ops.take(starts[counts > j] + j, axis=0)
        out[counts > j] += matmul2(matmul2(op, rho), op.conj().swapaxes(-1, -2))
    return out
