"""Mach-Zehnder fringes for two arm channels sharing one time-bin environment.

The interference contrast is the complex number C whose magnitude is the
fringe visibility and whose argument sets the fringe phase;
``shared_env_contrasts`` returns it as a plain ``complex`` per arm pair, and
``oracle_contrasts`` as a complex array. With a shared environment, C sums
Tr[u^dag v rho] over pairs of upper-arm and lower-arm Kraus operators at
equal time-bin delays; other pairs contribute nothing (orthogonal bins).

Both routines take an element table of arms (``arms.ArmTable``) and pairs of
its arm indices, arm ``upper[i]`` against arm ``lower[i]``, and one input
state or one per pair. The contrast composes the table's arms in one Kraus
table (``compose_arms``) and joins every pair at once on exact (arm, delay)
keys (``kraus_contrasts``). A pair's result has the same bits in any stack.

The dilation oracle reproduces the fringe by brute force in the frequency
basis of the time register, where a crystal's delay is a phase on its e-ray:
each arm becomes 2x2 transfer matrices at N roots of unity, the path Gram
follows by Parseval, and the lower port by the closing row. It composes no
Kraus set and calls no element constructor, BLAS or LAPACK routine, so it
checks ``compose_arms`` without repeating it and its bits follow no BLAS
kernel. ``InterferometerSpec`` and ``oracle_contrast`` serve the benchmark gate.

Time-bin orthogonality is binary here: crystal delays are whole picometres
(``Crystal``), equal delays interfere fully, all others not at all. Partial
wavepacket overlap is out of scope.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arms import (CRYSTAL, UNITARY, ArmSpec, ArmTable, ResourceLimitError, arm_table,
                   compose_arms)
from .core import matmul2, validate_density_matrix

__all__ = [
    "ORACLE_DIM_LIMIT",
    "kraus_contrasts",
    "shared_env_contrasts",
    "output_probability",
    "oracle_contrasts",
]

# Joint path x polarization x time-bin dimension past which the oracle refuses.
ORACLE_DIM_LIMIT = 4096
# The oracle's 50/50 beamsplitter on the path qubit; the closing one is its inverse.
_BEAMSPLITTER = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)
_BEAMSPLITTER.setflags(write=False)

# Bytes of oracle state (2 arms x 2 x 2 x N frequencies, complex) per block of
# pairs: 85 at the N = 6 of the crystal configurations, 512 at N = 1, 1 at N =
# 1,024. Blocks of 150 KiB raised paper-tables' peak RSS 0.3 MiB; 64 KiB did not.
_ORACLE_BLOCK_BYTES = 64 * 1024
# Phases of the oracle fringe. Any 3 or more alias the conjugate Fourier
# component of P(phi) to zero, leaving C alone at unit frequency.
_ORACLE_PHASES = 16
_ORACLE_PHIS = 2.0 * np.pi * np.arange(_ORACLE_PHASES) / _ORACLE_PHASES


class InterferometerSpec(NamedTuple):
    """Two arms and an input polarization state: the input of
    ``oracle_contrast``, kept for the benchmark's correctness gate. It checks
    nothing itself; ``oracle_contrast`` converts the arms and validates the
    state."""

    upper: ArmSpec
    lower: ArmSpec
    input_state: np.ndarray


def kraus_contrasts(table: tuple, upper, lower, rho) -> list[complex]:
    """Complex contrasts of arm pairs from a Kraus table of ``compose_arms``:
    pair i joins arm ``upper[i]`` of the table with arm ``lower[i]``, with
    input ``rho``, an unvalidated complex array, one state (2, 2) or one per pair.

    C = sum of Tr[u^dag v rho] over Kraus pairs at equal delays (u from the
    upper arm, v from the lower): an arm's delays are distinct, so each upper
    row is joined with at most one lower row, searched for on exact (arm,
    delay) keys. A term sums the entries of conj(u) * (v rho) as (row 0) +
    (row 1), v rho written out (``matmul2``); each pair's terms are added in
    upper delay order from 0, which fixes their rounding.
    """
    owner, delays, ops = table
    upper, lower = np.asarray(upper, dtype=np.intp), np.asarray(lower, dtype=np.intp)
    # (arm, delay) keys as arm + i delay, which numpy sorts and searches
    # lexicographically, real part first: exact, and ascending over the table
    keys = owner + 1j * delays
    # the rows of each pair's upper arm, pair after pair
    start = keys.searchsorted(upper)
    per_pair = keys.searchsorted(upper + 1) - start
    pair = np.arange(len(upper)).repeat(per_pair)
    rows = np.arange(len(pair)) + (start - per_pair.cumsum() + per_pair).repeat(per_pair)
    wanted = lower[pair] + 1j * delays[rows]
    at = keys.searchsorted(wanted)
    hit = keys.take(at, mode="clip") == wanted  # a lower row at the upper row's delay
    rows, pair, at = rows[hit], pair[hit], at[hit]
    if rho.ndim > 2:  # one state per pair, else one state broadcast over the terms
        rho = np.broadcast_to(rho, (len(upper), 2, 2)).take(pair, axis=0)
    m = ops.take(rows, axis=0).conj() * matmul2(ops.take(at, axis=0), rho)
    terms = ((m[:, 0, 0] + m[:, 0, 1]) + (m[:, 1, 0] + m[:, 1, 1])).tolist()
    ends = np.bincount(pair, minlength=len(upper)).cumsum().tolist()
    return [sum(terms[a:b], 0j) for a, b in zip([0, *ends], ends)]


def shared_env_contrasts(table: ArmTable, upper, lower, rho) -> list[complex]:
    """Complex contrasts of the arm pairs (``upper[i]``, ``lower[i]``), arm
    indices of an element table, with input ``rho``, one state (2, 2) or one
    per pair, when both arms disturb the same environment. One pair's
    contrast is ``shared_env_contrasts(arm_table([u, l]), [0], [1], rho)[0]``.

    ``rho`` is validated once, as one stack; a matrix that is not a 2x2
    density matrix raises ValueError. All arms of the table are composed in
    one ``compose_arms`` table, and every pair is joined by one
    ``kraus_contrasts`` call. A pair's contrast has the bits it has alone.
    """
    rho = validate_density_matrix(rho)
    return kraus_contrasts(compose_arms(table), upper, lower, rho)


def output_probability(c: complex, phi):
    """Lower-port detection probability P(phi) = (1 + Re[e^{i phi} C]) / 2 of
    the complex contrast ``c``.

    ``phi`` may be an array of phases, giving an array; a scalar phase gives a
    float. Re[e^{i phi} C] is written out as two products and a difference, the
    rounding of a scalar complex product (numpy's array complex multiply may
    fuse them). Values within 1e-9 outside [0, 1] are clipped into it; any
    further out, and the NaN of a non-finite contrast or phase, raise
    RuntimeError.
    """
    phi = np.asarray(phi, dtype=float)
    e = np.exp(1j * phi)
    p = 0.5 * (1.0 + (e.real * c.real - e.imag * c.imag))
    outside = ~(np.abs(p - 0.5) <= 0.5 + 1e-9)  # NaN fails the test
    if outside.any():
        cause = "exceeds unit magnitude" if abs(c) > 1.0 else "or the phase is not finite"
        raise RuntimeError(f"probability {p[outside].flat[0]} at phase {phi[outside].flat[0]} "
                           f"outside [0, 1]: contrast {c} {cause}")
    p = np.clip(p, 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


def _frequencies(upper, lower) -> tuple[int, int]:
    """Unit in picometres and frequency count N of the oracle for one arm
    pair, given as the crystal delays of each arm in whole picometres.

    The unit is the gcd of the crystal delays (1 without crystals). The full
    time grid has n = 1 + (largest arm total) / unit bins, and a joint
    dimension 4n over ORACLE_DIM_LIMIT raises ResourceLimitError before
    anything is allocated. N <= n is the smallest count that divides no
    nonzero member of the signed sumset (upper subset sums of shifts minus
    lower ones), so no upper bin aliases a different lower bin.
    """
    unit = math.gcd(*upper, *lower) or 1
    n = 1 + max(sum(upper), sum(lower)) // unit
    if 4 * n > ORACLE_DIM_LIMIT:
        raise ResourceLimitError(
            f"resource limit: joint dimension {4 * n} exceeds "
            f"{ORACLE_DIM_LIMIT} (time grid of {n} bins at {unit} pm)")
    sums = {0}
    for sign, delays in zip((1, -1), (upper, lower)):
        for d in delays:
            sums |= {s + sign * (d // unit) for s in sums}
    gaps = {abs(s) for s in sums}
    return unit, next(m for m in range(1, n + 1) if gaps.isdisjoint(range(m, n, m)))


def _stacked_ops(table: ArmTable) -> np.ndarray:
    """Operators (elements, 2, 2) of a table's elements, from angles t with
    c, s = cos t, sin t, written out rather than built by the constructors
    composition uses: a crystal's e-ray projector ket_e ket_e^T with ket_e =
    (-s, c), a waveplate's reflection R(t) diag(1, -1) R(t)^T, or a raw
    unitary as given."""
    c, s = np.cos(table.angle), np.sin(table.angle)
    ops = np.where(table.kind == CRYSTAL, [[s * s, -s * c], [-c * s, c * c]],
                   [[c * c - s * s, c * s + s * c], [s * c + c * s, s * s - c * c]])
    ops = np.moveaxis(ops, -1, 0).astype(complex, order="C")  # contiguous, for take
    ops[table.kind == UNITARY] = table.unitary
    return ops


def _transfer(table: ArmTable, ops: np.ndarray, rows, unit: int, count: int) -> np.ndarray:
    """Transfer matrices (rows, 2, 2, N) of the arms ``rows`` of a table,
    whose element operators are ``ops`` (``_stacked_ops``), at the N =
    ``count`` roots of unity w^k = e^{2 pi i k / N}, the frequency axis last.

    The identity is evolved through the elements grouped by (position,
    crystal delay or kind), found by one lexsort, each group's operators
    gathered with ``take``: a crystal of d units as x + (w^{kd} - 1) P_e x,
    the phase read at the exact residue kd mod N, other elements as U x.
    """
    roots = np.exp(2j * np.pi * np.arange(count) / count)
    t = np.zeros((len(rows), 2, 2, count), dtype=complex)
    t[:, 0, 0] = t[:, 1, 1] = 1.0
    # the elements of the arms in rows, row after row: their row and position
    first = table.arm.searchsorted(rows)
    sizes = table.arm.searchsorted(np.add(rows, 1)) - first
    row = np.arange(len(rows)).repeat(sizes)
    position = np.arange(len(row)) - (sizes.cumsum() - sizes).repeat(sizes)
    at = first.repeat(sizes) + position
    key = np.where(table.kind.take(at) == CRYSTAL, table.delay.take(at), -1 - table.kind.take(at))
    order = np.lexsort((key, position))
    key, position = key[order], position[order]
    cuts = (np.flatnonzero((key[1:] != key[:-1]) | (position[1:] != position[:-1])) + 1).tolist()
    bounds = [0, *cuts, len(order)] if len(order) else []
    for a, b in zip(bounds, bounds[1:]):
        members, group = row.take(order[a:b]), at.take(order[a:b])
        x = t.take(members, axis=0)
        y = np.einsum("apq,aq...->ap...", ops.take(group, axis=0), x)
        if key[a] >= 0:  # a crystal
            y = x + (roots[np.arange(count) * (key[a] // unit) % count] - 1.0) * y
        t[members] = y
    return t


def _path_gram(table: ArmTable, upper, lower, rho) -> np.ndarray:
    """Gram matrices (pair, path, path) of the oracle's arm-evolved path
    states, one per arm pair (``upper[i]``, ``lower[i]``) of an element table
    with input ``rho``, one state (2, 2) or one per pair.

    The first beamsplitter puts amplitude s_p = ``_BEAMSPLITTER[p, 0]`` on
    path p, where the upper arm acts on path 0 and the lower on path 1; with
    T_p their transfer matrices, Parseval gives G[p, q] = s_p* s_q (1/N) sum_k
    Tr[T_p(w^k)^dag T_q(w^k) rho]. ``_frequencies`` runs once per distinct
    pair of arms' sorted nonzero crystal delays, and the pairs of one (unit,
    N) go through ``_transfer`` in blocks of ``_ORACLE_BLOCK_BYTES``, pair i's
    upper arm in row 2i and its lower in 2i + 1.
    """
    upper, lower = np.asarray(upper, dtype=np.intp), np.asarray(lower, dtype=np.intp)
    weights = np.multiply.outer(_BEAMSPLITTER[:, 0].conj(), _BEAMSPLITTER[:, 0])
    rho = np.broadcast_to(rho, (len(upper), 2, 2))
    grams = np.empty((len(upper), 2, 2), dtype=complex)
    # (unit, N) follows from each arm's nonzero crystal delays in any order:
    # sorted, they are the bytes of the arm's slice of one int64 array
    shifted = np.flatnonzero(table.delay)
    shifted = shifted[np.lexsort((table.delay[shifted], table.arm[shifted]))]
    ends = (8 * np.bincount(table.arm[shifted], minlength=table.arms).cumsum()).tolist()
    text = table.delay[shifted].tobytes()
    delays = [text[a:b] for a, b in zip([0, *ends], ends)]
    found, groups = {}, {}
    for i, key in enumerate(zip([delays[a] for a in upper.tolist()],
                                [delays[a] for a in lower.tolist()])):
        if key not in found:
            found[key] = _frequencies(*(np.frombuffer(k, dtype=np.int64).tolist() for k in key))
        groups.setdefault(found[key], []).append(i)
    ops = _stacked_ops(table)
    for (unit, count), pairs in groups.items():
        block = max(1, _ORACLE_BLOCK_BYTES // (2 * 2 * 2 * count * 16))
        for start in range(0, len(pairs), block):
            at = pairs[start:start + block]
            rows = np.stack((upper[at], lower[at]), axis=1).ravel()
            t = _transfer(table, ops, rows, unit, count).reshape(len(at), 2, 2, 2, count)
            grams[at] = np.einsum("ipabk,iqack,icb->ipq", t.conj(), t, rho[at]) * weights / count
    return grams


def oracle_contrasts(table: ArmTable, upper, lower, rho) -> np.ndarray:
    """Complex contrasts (pairs,) of the arm pairs (``upper[i]``,
    ``lower[i]``) of an element table with input ``rho``, one state (2, 2)
    or one per pair, from the oracle fringe (``_path_gram``). ``rho`` is
    validated as in ``shared_env_contrasts``.

    Samples the lower-port probability P(phi) = c^dag G c on a uniform grid of
    ``_ORACLE_PHASES`` phases, c(phi) the lower port's row of the phase plate
    diag(1, e^{i phi}) on path 1 and the closing beamsplitter, the first's
    inverse; returns its unit-frequency component C = 4 <P(phi_k) e^{-i phi_k}>.
    """
    gram = _path_gram(table, upper, lower, validate_density_matrix(rho))
    row = _BEAMSPLITTER.conj().T[0] * np.exp(1j * np.multiply.outer(_ORACLE_PHIS, (0.0, 1.0)))
    p0 = np.einsum("ip,...pq,iq->...i", row.conj(), gram, row).real
    return 4.0 * ((p0 * np.exp(-1j * _ORACLE_PHIS)).sum(axis=-1) / _ORACLE_PHASES)


def oracle_contrast(spec: InterferometerSpec) -> complex:
    """Complex contrast of one spec from the dilation-oracle fringe
    (``oracle_contrasts`` of the table of its two arms, which validates the
    state), for the benchmark's correctness gate."""
    return complex(oracle_contrasts(arm_table([spec.upper, spec.lower]), [0], [1],
                                    spec.input_state)[0])
