"""Mach-Zehnder fringes for two arm channels sharing one time-bin environment.

The interference contrast is the complex number C whose magnitude is the
fringe visibility and whose argument sets the fringe phase;
``shared_env_contrasts`` returns it as a plain ``complex`` per arm pair, and
``oracle_contrasts`` as a complex array. With a shared environment, C sums
Tr[u^dag v rho] over pairs of upper-arm and lower-arm Kraus operators at
equal time-bin delays; other pairs contribute nothing (orthogonal bins). The
dilation oracle reproduces the same fringe by brute force: it evolves the
full path (x) polarization (x) time-bin state through the first beamsplitter
and each arm element by element on its own path. The phase plate and the
closing beamsplitter act on the path alone, so the lower-port probability at
each phase is c^dag G c, with G the 2x2 Gram matrix of the two evolved path
states and c the closing row at that phase.

Both routines take a stack of arm pairs, ``uppers[i]`` against ``lowers[i]``,
and one input state or one per pair; one pair is a stack of one. The contrast
composes all arms in one Kraus table (``compose_arms``) and joins every pair
at once on exact (arm, delay) keys (``kraus_contrasts``), and the oracle
evolves the pairs of each time grid and set of reachable bins as one stack in
memory-bounded blocks. A pair's result has the same bits in any stack.

The whole oracle lives here: its time grid at the gcd of the crystal delays
in picometres, up to ``ORACLE_DIM_LIMIT`` on the full grid, with the bins
each pair reaches on it (``_time_grid``), which group its pairs; its
evolution of both arms of a pair in one stack on those bins (``_evolve``),
each block grouped by element position and kind and acted on with element
matrices (``_stacked_ops``) and a beamsplitter of its own; the path Gram on
the full grid; the lower port.
Composing no Kraus set and calling no element constructor, it checks
``compose_arms`` rather than repeating it; with the contrast it shares
``_input_states``. ``InterferometerSpec``, a plain record of two arms and a
state, and ``oracle_contrast`` are the one-spec interface of the benchmark's
correctness gate; no command uses them.

Time-bin orthogonality is binary here: crystal delays are whole picometres
(``Crystal``), equal delays interfere fully, all others not at all. Partial
wavepacket overlap is out of scope.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .arms import (PM_PER_UM, ArmElement, ArmSpec, Crystal, RawUnitary, ResourceLimitError,
                   Waveplate, compose_arms)
from .core import validate_density_matrix

__all__ = [
    "ORACLE_DIM_LIMIT",
    "kraus_contrasts",
    "shared_env_contrasts",
    "output_probability",
    "oracle_contrasts",
]

# Joint path x polarization x time-bin dimension beyond which the oracle
# refuses to run.
ORACLE_DIM_LIMIT = 4096
# The oracle's 50/50 beamsplitter on the path qubit; the closing one is its inverse.
_BEAMSPLITTER = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)
_BEAMSPLITTER.setflags(write=False)

# Bytes of oracle state (2 paths x 2 polarizations x bins x 2 columns, complex)
# per block of specs, evolved by ``_evolve`` on their reachable bins and the
# zero bin, or scattered onto their full grid for the Gram product: 102 and 10
# specs of the crystal configurations, which reach 4 of 47 bins. Blocks of
# 150 KiB raised the peak resident set of a paper-tables pass by 0.3 MiB;
# 64 KiB did not.
_ORACLE_BLOCK_BYTES = 64 * 1024
# Phases of the oracle fringe. Any 3 or more alias the conjugate Fourier
# component of P(phi) to zero, leaving C alone at unit frequency.
_ORACLE_PHASES = 16
_ORACLE_PHIS = 2.0 * np.pi * np.arange(_ORACLE_PHASES) / _ORACLE_PHASES


class InterferometerSpec(NamedTuple):
    """Two arms and an input polarization state: the input of
    ``oracle_contrast``, kept for the benchmark's correctness gate. It checks
    nothing itself; ``oracle_contrast`` validates the state."""

    upper: ArmSpec
    lower: ArmSpec
    input_state: np.ndarray


def _input_states(rho) -> np.ndarray:
    """``rho``, one input state (2, 2) or a stack of them, as a validated
    complex array; a matrix that is not a 2x2 density matrix raises
    ValueError."""
    states = validate_density_matrix(rho)
    if states.shape[-2:] != (2, 2):
        raise ValueError(f"input states must be 2x2, got shape {states.shape}")
    return states


def kraus_contrasts(table: tuple, upper, lower, rho) -> list[complex]:
    """Complex contrasts of arm pairs from a Kraus table of ``compose_arms``:
    pair i joins arm ``upper[i]`` of the table with arm ``lower[i]``, with
    input ``rho``, an unvalidated complex array, one state (2, 2) or one per pair.

    C = sum of Tr[u^dag v rho] over Kraus pairs at equal delays (u from the
    upper arm, v from the lower): an arm's delays are distinct, so each upper
    row is joined with at most one lower row, searched for on exact (arm,
    delay) keys. Each pair's terms are added in upper delay order starting
    from 0, which fixes their rounding (np.sum would add them pairwise).
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
        rho = np.broadcast_to(rho, (len(upper), 2, 2))[pair]
    m = ops.take(rows, axis=0).conj().swapaxes(1, 2) @ ops.take(at, axis=0) @ rho
    terms = (m[:, 0, 0] + m[:, 1, 1]).tolist()
    ends = np.bincount(pair, minlength=len(upper)).cumsum().tolist()
    return [sum(terms[a:b], 0j) for a, b in zip([0, *ends], ends)]


def shared_env_contrasts(uppers: Sequence[ArmSpec], lowers: Sequence[ArmSpec],
                         rho) -> list[complex]:
    """Complex contrasts of the arm pairs (``uppers[i]``, ``lowers[i]``) with
    input ``rho``, one state (2, 2) or one per pair, when both arms disturb the
    same environment. One pair's contrast is
    ``shared_env_contrasts([upper], [lower], rho)[0]``.

    ``rho`` is validated once, as one stack; a matrix that is not a 2x2
    density matrix raises ValueError. All arms, upper and lower alike, are
    composed in one ``compose_arms`` table, and every pair is joined by one
    ``kraus_contrasts`` call. A pair's contrast has the bits it has alone.
    """
    rho = _input_states(rho)
    n = len(uppers)
    return kraus_contrasts(compose_arms([*uppers, *lowers]), range(n), range(n, 2 * n), rho)


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


def _time_grid(arms: Sequence[ArmSpec]) -> tuple[int, int, tuple]:
    """Unit in picometres, bin count and reachable bins of a time grid that
    holds every delay of ``arms``, from one walk over their crystals.

    The unit is the gcd of the crystal delays in whole picometres (1 when
    every delay is zero), so every delay is a whole number of bins. Bin 0 is
    the input bin, and the grid reaches the largest total crystal delay of any
    one arm, so no shift of a vector that starts in bin 0 leaves the grid.
    Raises ResourceLimitError, before anything is allocated, when the joint
    dimension 4 * bins exceeds ORACLE_DIM_LIMIT. The reachable bins, ascending,
    are the subset sums of each arm's crystal shifts.
    """
    crystals = [[round(e.delay * PM_PER_UM) for e in arm if type(e) is Crystal] for arm in arms]
    unit = math.gcd(*(d for delays in crystals for d in delays)) or 1
    n = 1 + max(map(sum, crystals), default=0) // unit
    if 4 * n > ORACLE_DIM_LIMIT:
        raise ResourceLimitError(
            f"resource limit: joint dimension {4 * n} exceeds "
            f"{ORACLE_DIM_LIMIT} (time grid of {n} bins at {unit} pm)")
    reach = set()
    for delays in crystals:
        sums = {0}
        for d in delays:
            sums |= {k + d // unit for k in sums}
        reach |= sums
    return unit, n, tuple(sorted(reach))


def _stacked_ops(elems: Sequence[ArmElement]) -> np.ndarray:
    """Operators (arms, 2, 2) of elements of one kind across an arm stack, from
    angles t with c, s = cos t, sin t, written out rather than built by the
    constructors composition uses: a crystal's e-ray projector ket_e ket_e^T
    with ket_e = (-s, c), a waveplate's reflection R(t) diag(1, -1) R(t)^T, or
    a raw unitary as given."""
    kind = type(elems[0])
    if kind is RawUnitary:
        return np.array([e.matrix for e in elems])
    angles = np.array([e.axis_angle for e in elems])
    c, s = np.cos(angles), np.sin(angles)
    if kind is Crystal:
        ops = [[s * s, -s * c], [-c * s, c * c]]
    elif kind is Waveplate:
        ops = [[c * c - s * s, c * s + s * c], [s * c + c * s, s * s - c * c]]
    else:
        raise ValueError(f"unknown arm element {elems[0]!r}")
    return np.array(ops, dtype=complex).transpose(2, 0, 1)


def _evolve(arms: Sequence[ArmSpec], cols: np.ndarray, unit: int, sources) -> np.ndarray:
    """Apply a stack of arms position by position to columns on polarization
    (x) time bins, in place.

    ``cols`` has shape (arms, 2, bins, k), one slice per arm. The elements are
    grouped by (position, crystal delay or element type), in one walk over
    the stack; arms shorter than a position are in none of its groups. Each
    group gathers its arms' slices, acts with its matrices (``_stacked_ops``)
    and scatters them back. A crystal acts as P_o (x) I + P_e (x) S_d,
    computed as x + P_e (S_d x - x) because P_o + P_e = I, with S_d the
    gather ``x[:, :, sources(d)]`` of each bin's source d grid units below it
    (d the delay in units of ``unit`` picometres); waveplates and raw
    unitaries act as U (x) I.
    """
    groups: dict = {}
    for row, arm in enumerate(arms):
        for at, e in enumerate(arm):
            rows, elems = groups.setdefault((at, e.delay if type(e) is Crystal else type(e)),
                                            ([], []))
            rows.append(row)
            elems.append(e)
    for _, (rows, elems) in sorted(groups.items(), key=lambda group: group[0][0]):
        x, ops = cols[rows], _stacked_ops(elems)
        if type(elems[0]) is Crystal:
            shift = round(elems[0].delay * PM_PER_UM) // unit
            cols[rows] = x + np.einsum("apq,aq...->ap...", ops, x[:, :, sources(shift)] - x)
        else:
            cols[rows] = np.einsum("apq,aq...->ap...", ops, x)
    return cols


def _path_gram(uppers: Sequence[ArmSpec], lowers: Sequence[ArmSpec], rho) -> np.ndarray:
    """Gram matrices (pair, path, path) of the oracle's arm-evolved path
    states, one per arm pair (``uppers[i]``, ``lowers[i]``) with input
    ``rho``, one state (2, 2) or one per pair.

    The joint state starts as |0>_path (x) rho (x) |bin_0> with rho factored
    into scaled eigenvector columns. The first beamsplitter splits it onto the
    two paths, and each arm then acts element by element on its own path: the
    upper arm on path 0, the lower arm on path 1. With x_p the evolved state
    of path p, G[p, q] = <x_p, x_q>. Each pair's time grid and the bins it
    reaches on it (``_time_grid``) are found once per distinct pair of
    crystal-delay sequences. The pairs of one grid and one set of bins evolve
    in blocks that fit ``_ORACLE_BLOCK_BYTES``, each block one stack
    (``_evolve``), pair i's upper arm in row 2i and its lower in 2i + 1, on
    those bins and a bin that stays zero, scattered onto the full grid so that
    the Gram product rounds as the dense one does.
    """
    split = _BEAMSPLITTER[:, 0]
    evals, evecs = np.linalg.eigh(rho)
    states = np.broadcast_to(evecs * np.sqrt(np.maximum(evals, 0.0))[..., None, :],
                             (len(uppers), 2, 2))
    grams = np.empty((len(uppers), 2, 2), dtype=complex)
    delays = [tuple([e.delay for e in arm if type(e) is Crystal]) for arm in (*uppers, *lowers)]
    grids, groups = {}, {}
    for i, key in enumerate(zip(delays[:len(uppers)], delays[len(uppers):])):
        if key not in grids:
            grids[key] = _time_grid([uppers[i], lowers[i]])
        groups.setdefault(grids[key], []).append(i)
    for (unit, n, bins), pairs in groups.items():
        m = len(bins)
        where = dict(zip(bins, range(m)))

        def sources(shift):  # each row's source: the bin shift below, or the zero bin m
            return np.array([where.get(b - shift, m) for b in (*bins, -n)])

        block = max(1, _ORACLE_BLOCK_BYTES // (2 * 2 * (m + 1) * 2 * 16))
        dense = max(1, _ORACLE_BLOCK_BYTES // (2 * 2 * n * 2 * 16))
        for start in range(0, len(pairs), block):
            at = pairs[start:start + block]
            cols = np.zeros((len(at), 2, m + 1, 2), dtype=complex)
            cols[:, :, 0, :] = states[at]
            cols = np.stack((split[0] * cols, split[1] * cols), axis=1).reshape(-1, 2, m + 1, 2)
            arms = [arm for i in at for arm in (uppers[i], lowers[i])]
            cols = _evolve(arms, cols, unit, sources).reshape(len(at), 2, 2, m + 1, 2)
            for lo in range(0, len(at), dense):
                paths = np.zeros((len(at[lo:lo + dense]), 2, 4 * n), dtype=complex)
                paths.reshape(-1, 2, 2, n, 2)[:, :, :, bins] = cols[lo:lo + dense, :, :, :m]
                grams[at[lo:lo + dense]] = paths.conj() @ paths.transpose(0, 2, 1)
    return grams


def oracle_contrasts(uppers: Sequence[ArmSpec], lowers: Sequence[ArmSpec], rho) -> np.ndarray:
    """Complex contrasts (pairs,) of the arm pairs (``uppers[i]``,
    ``lowers[i]``) with input ``rho``, one state (2, 2) or one per pair, from
    the oracle fringe (``_path_gram``). ``rho`` is validated as in
    ``shared_env_contrasts``.

    Samples the lower-port probability P(phi) = c^dag G c on a uniform grid of
    ``_ORACLE_PHASES`` phases, c(phi) the lower port's row of the phase plate
    diag(1, e^{i phi}) on path 1 and the closing beamsplitter, the first's
    inverse; returns its unit-frequency component C = 4 <P(phi_k) e^{-i phi_k}>.
    """
    gram = _path_gram(uppers, lowers, _input_states(rho))
    row = _BEAMSPLITTER.conj().T[0] * np.exp(1j * np.multiply.outer(_ORACLE_PHIS, (0.0, 1.0)))
    p0 = np.einsum("ip,...pq,iq->...i", row.conj(), gram, row).real
    return 4.0 * ((p0 * np.exp(-1j * _ORACLE_PHIS)).sum(axis=-1) / _ORACLE_PHASES)


def oracle_contrast(spec: InterferometerSpec) -> complex:
    """Complex contrast of one spec from the dilation-oracle fringe
    (``oracle_contrasts`` of a one-pair stack, which validates the state), for
    the benchmark's correctness gate."""
    return complex(oracle_contrasts([spec.upper], [spec.lower], spec.input_state)[0])
