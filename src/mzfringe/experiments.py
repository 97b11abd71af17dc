"""Standard interferometer configurations, the paper's tables (visibility
sweeps and tomography blindness), photon-count simulation, fringe fitting, and
the unbalanced-interferometer key-distribution reduction.

Four built-in configurations (tags "a" through "d") pair two-crystal arms, or
half-wave-plate arms for "d", against each other with the maximally mixed
input; ``standard_arms`` writes them as one element table (``ArmTable``). The
crystal o/e separations are 150 um (short) and 310 um (long). Each
configuration has a closed-form contrast in the crystal angle beta; the sweep
table puts the closed form, the shared-environment simulation, and the
dilation oracle side by side, as columns over a beta grid. The blindness table
puts the chi distances between the arms of "a" and "c" next to their fringe
visibilities: tomography cannot see which crystal length sits where.

Every random draw reads counter-based uniforms (``_uniforms``): u_j =
(mix64(key + (j + 1) gamma) >> 11) 2^-53, with mix64 SplitMix64's finalizer,
gamma = 0x9E3779B97F4A7C15 and a key folded from every 64-bit word of the seed.
So each draw depends only on (seed, its counter), each kind of draw is one
array pass, and no module imports ``numpy.random``.

Photon counting is modeled as independent Poisson draws per phase point from a
deterministic, documented sampler (see ``poisson_fringe``); point i of a fringe
reads counter i. Fringes are fitted as A + a cos(phi) + b sin(phi), linear in
(A, a, b), by reweighted least squares.

The random arm pairs and states of the oracle cross-check (``random_specs``)
read spec i's own 76 counters, i * 76 + offset: its two arm lengths, three
for each element that exists (kind, angle, delay) and eight for each complex
Gaussian, its state's and each unitary's; the arms form one element table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .arms import (WAVEPLATE, ArmSpec, ArmTable, ResourceLimitError, arm_channel_apply,
                   arm_table, compose_arms, element_table)
from .core import matmul2, maximally_mixed
from .interferometer import (kraus_contrasts, oracle_contrasts, output_probability,
                             shared_env_contrasts)
from .tomography import qpt

__all__ = [
    "SHORT_CRYSTAL_UM",
    "LONG_CRYSTAL_UM",
    "VARIANTS",
    "standard_arms",
    "closed_form_contrast",
    "sweep",
    "blindness_demo",
    "default_beta_grid",
    "poisson_fringe",
    "FitResult",
    "fit_fringe",
    "qkd_visibility",
    "random_specs",
]

SHORT_CRYSTAL_UM = 150.0
LONG_CRYSTAL_UM = 310.0

VARIANTS = ("a", "b", "c", "d")


def standard_arms(variant: str, betas: Sequence[float]) -> ArmTable:
    """The element table of a standard configuration over a beta grid: for n
    betas, arm i < n is beta i's upper arm and arm n + i its lower arm; the
    input state is the maximally mixed one.

    Arms list crystals in traversal order, second-position crystal first.
    Variants "a" to "c" share their lower arm. The "d" variant replaces the
    crystals with one half-wave plate per arm, fixed at pi/8 in the upper arm
    and at beta in the lower. A beta that is not finite raises ValueError.
    """
    betas = np.asarray(betas, dtype=float).reshape(-1)
    if not np.isfinite(betas).all():
        raise ValueError(f"beta must be finite, got {betas[~np.isfinite(betas)][0]}")
    n, zeros, l1, l2 = len(betas), np.zeros(len(betas)), SHORT_CRYSTAL_UM, LONG_CRYSTAL_UM
    if variant == "d":
        return element_table(np.full(2 * n, 1), np.full(2 * n, WAVEPLATE),
                             np.concatenate((np.full(n, np.pi / 8.0), betas)), zeros.repeat(2),
                             np.zeros((0, 2, 2)))
    uppers = {"a": ((zeros, l2), (betas, l1)), "b": ((betas, l2), (zeros, l1)),
              "c": ((zeros, l1), (betas, l2))}
    if variant not in uppers:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    # two crystals per arm, (angle, delay) each: uppers, then the lowers
    (a1, d1), (a2, d2) = uppers[variant]
    angle = np.stack((np.concatenate((a1, betas)), np.concatenate((a2, zeros))), axis=1)
    return element_table(np.full(2 * n, 2), np.zeros(4 * n), angle.ravel(),
                         np.repeat([[d1, d2], [l1, l2]], n, axis=0).ravel(), np.zeros((0, 2, 2)))


def closed_form_contrast(variant: str, beta: float) -> float:
    """Signed closed-form contrast of a configuration.

    A negative value means a pi-shifted fringe; its magnitude is the
    visibility. Variant "d" uses the polarization-rotation-doubling half-wave
    plate convention, cos(2 (beta - pi/8)).
    """
    if variant == "a":
        return 1.0 - np.sin(2.0 * beta) ** 2 / 2.0
    if variant == "b":
        return np.cos(beta) ** 2
    if variant == "c":
        return np.cos(beta) ** 2 * np.cos(2.0 * beta)
    if variant == "d":
        return float(np.cos(2.0 * (beta - np.pi / 8.0)))
    raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


def default_beta_grid(points: int) -> np.ndarray:
    """Evenly spaced crystal angles over [0, pi/2]."""
    return np.linspace(0.0, np.pi / 2.0, points)


def sweep(variant: str, betas: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The columns beta, v_closed_form, v_simulated and v_oracle over a beta grid.

    The closed-form column keeps its sign; the simulated and oracle columns
    are contrast magnitudes. The contrast composes all arms of the
    configuration's table in one Kraus table and joins all betas at once,
    and the oracle evolves them as one stack in memory-bounded blocks.
    """
    table, n = standard_arms(variant, betas), len(betas)
    rho, upper, lower = maximally_mixed(2), range(n), range(n, 2 * n)
    return (np.asarray(betas, dtype=float),
            np.array([closed_form_contrast(variant, beta) for beta in betas], dtype=float),
            np.array([abs(c) for c in shared_env_contrasts(table, upper, lower, rho)],
                     dtype=float),
            np.abs(oracle_contrasts(table, upper, lower, rho)))


def _blindness_configuration(variant: str, betas: Sequence[float]) -> tuple:
    """Upper-arm process matrices and visibilities of a standard configuration
    over a beta grid, from one Kraus table of its upper and lower arms, which
    is freed when this returns."""
    n = len(betas)
    table = compose_arms(standard_arms(variant, betas))
    upper = tuple(column[:table[0].searchsorted(n)] for column in table)
    chi = qpt(lambda rho: arm_channel_apply(upper, rho))
    return chi, [abs(c) for c in kraus_contrasts(table, range(n), range(n, 2 * n),
                                                 maximally_mixed(2))]


def blindness_demo(betas: Sequence[float]) -> tuple[np.ndarray, ...]:
    """Identical per-arm tomography, different fringes, over a beta grid.

    Builds the first and third standard configurations over the grid (they
    share per-arm angle sequences and differ only in which crystal length sits
    in which position). One configuration at a time, its upper arms feed one
    process tomography and, joined with the lower arm by one
    ``kraus_contrasts`` call, give its visibilities; only one Kraus table is
    held at once. Returns the columns beta, chi_distance_upper (the Frobenius
    norm of the chi difference), chi_distance_lower (0 by construction: the
    arm is shared), visibility_a, visibility_b and visibility_gap.
    """
    (chi_a, vis_a), (chi_c, vis_b) = (_blindness_configuration(v, betas) for v in "ac")
    d = chi_a - chi_c
    columns = (betas, np.sqrt((d.real ** 2 + d.imag ** 2).sum(axis=(1, 2))), np.zeros(len(vis_a)),
               vis_a, vis_b, [abs(a - b) for a, b in zip(vis_a, vis_b)])
    return tuple(np.array(column, dtype=float) for column in columns)


# SplitMix64: its Weyl increment (the golden ratio in 64 bits) and the
# multipliers of its finalizer, as uint64 so that no operand promotes.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULTS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_MASK64 = 2**64 - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, a bijection of 64-bit words, on a uint64 array in place."""
    for shift, mult in zip((30, 27), _MIX_MULTS):
        z ^= z >> shift
        z *= mult
    z ^= z >> 31
    return z


def _uniforms(seed: int, index) -> np.ndarray:
    """Counter-based uniforms in [0, 1): u_j = (mix64(key + (j + 1) gamma) >> 11)
    * 2^-53 for each counter j of ``index``, the j-th output of SplitMix64
    started at ``key``.

    The key folds in the little-endian 64-bit words w of ``seed`` (a single 0
    for seed 0), key = mix64((key + w) gamma) from key 0, in Python integers,
    so a seed of any size works and seeds that differ by 2^64 differ. u_j
    depends only on (seed, j): any set of counters, in any order, in one array
    pass. A negative seed raises ValueError.
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        word = (key + (seed >> shift & _MASK64)) * _GAMMA & _MASK64
        key = int(_mix64(np.array([word], dtype=np.uint64))[0])
    z = np.asarray(index, dtype=np.uint64) + np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(key)
    return (_mix64(z) >> 11).astype(np.float64) * 2.0**-53


def poisson_fringe(contrast: complex, phis: Sequence[float],
                   mean_total: int, seed: int) -> np.ndarray:
    """Simulated coincidence counts along the fringe of a complex contrast.

    Returns one int64 count per phase in ``phis``. Per phase point, the
    expectation is lam = mean_total * P(phi), with P from
    ``output_probability(contrast, phi)``, and the count is one Poisson draw
    from one uniform u. Point i's u is counter i of ``_uniforms(seed, ...)``,
    so it depends only on (seed, i), the draws for all points are one array
    pass, and identical (contrast, phis, mean_total, seed) reproduce identical
    counts. With u clamped to [1e-300, 1 - 1e-16]: below mean 30 the count is
    the CDF inversion min{k : u <= F(k)}, stopped at k = int(lam + 20 sqrt(lam)
    + 20); from mean 30 on, a normal approximation with continuity correction,
    max(0, floor(lam + sqrt(lam) z + 1/2)) with z the standard normal quantile
    of u. lam <= 0 gives 0. A mean_total past 2**53, where float64 starts to
    skip whole counts, raises ResourceLimitError.
    """
    if mean_total < 1:
        raise ValueError("mean_total must be >= 1")
    if mean_total > 2**53:
        raise ResourceLimitError(f"resource limit: mean_total {mean_total} is past 2**53")
    phis = np.asarray(phis, dtype=float)
    expected = mean_total * output_probability(contrast, phis)
    u = np.clip(_uniforms(int(seed), np.arange(len(phis))), 1e-300, 1.0 - 1e-16)
    counts = np.zeros(len(phis), dtype=np.int64)

    small = (expected > 0.0) & (expected < 30.0)
    lam, v = expected[small], u[small]
    p = np.exp(-lam)
    cdf = p.copy()
    limit = (lam + 20.0 * np.sqrt(lam) + 20.0).astype(np.int64)
    k = np.zeros(len(lam))
    active = v > cdf
    step = 0
    while active.any():
        step += 1
        k[active] = step
        p *= lam / step
        cdf += p
        active &= (v > cdf) & (step < limit)
    counts[small] = k

    large = expected >= 30.0
    lam = expected[large]
    inv_cdf = NormalDist().inv_cdf
    z = np.array([inv_cdf(x) for x in u[large].tolist()])
    counts[large] = np.maximum(0.0, np.floor(lam + np.sqrt(lam) * z + 0.5))
    return counts


@dataclass(frozen=True)
class FitResult:
    amplitude: float
    visibility_hat: float
    phase_hat: float
    stderr_visibility: float
    iterations: int
    converged: bool


def fit_fringe(phis: Sequence[float], counts: Sequence[float]) -> FitResult:
    """Poisson-weighted least-squares fit of A (1 + v cos(phi + psi)) to ``counts`` at ``phis``.

    Fits A + a cos(phi) + b sin(phi), linear in (A, a, b) with a = A v cos(psi)
    and b = -A v sin(psi), by iteratively reweighted least squares: from
    (mean count, 0, 0), whose first step is the unweighted fit, each step solves
    the 3x3 normal equations under the weights 1 / max(model, 1), for at most
    100 steps or until the step norm drops below 1e-10. Then v = hypot(a, b) / A,
    clipped to 1, psi = atan2(-b, a), and the visibility standard error is
    sqrt(g^T (X^T W X)^-1 g) with g = (-v, cos psi, -sin psi) / A, both at the
    clipped point. Counts may be real-valued, so noiseless fringes are recovered
    to numerical precision. Fewer than 4 records, phases spanning at most pi,
    fewer than 3 distinct phases, or counts that sum to 0 raise ``ValueError``.
    """
    phis = np.asarray(phis, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if len(phis) < 4:
        raise ValueError("need at least 4 records to fit a fringe")
    if phis.max() - phis.min() <= np.pi:
        raise ValueError("records must span more than half a fringe period")
    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    if np.linalg.matrix_rank(design.T @ design) < 3:  # the rank the normal equations see
        raise ValueError("need at least 3 distinct phases to fit a fringe")

    coef = np.array([counts.mean(), 0.0, 0.0])
    if coef[0] <= 0.0:
        raise ValueError("counts must sum to more than 0 to fit a fringe")
    converged = False
    for iterations in range(1, 101):
        model = design @ coef
        weighted = design.T / np.maximum(model, 1.0)
        step = np.linalg.solve(weighted @ design, weighted @ (counts - model))
        coef += step
        if math.sqrt(step.dot(step)) < 1e-10:  # the bits of np.linalg.norm(step)
            converged = True
            break

    amp, a, b = coef
    vis = min(np.hypot(a, b) / amp, 1.0)
    psi = np.arctan2(0.0 - b, a + 0.0)  # no -0.0: a flat fringe gets psi 0, not -0
    cos, sin = np.cos(psi), np.sin(psi)
    weighted = design.T / np.maximum(design @ (amp * np.array([1.0, vis * cos, -vis * sin])), 1.0)
    grad = np.array([-vis, cos, -sin]) / amp
    stderr = np.sqrt(grad @ np.linalg.solve(weighted @ design, grad))
    return FitResult(float(amp), float(vis), float(psi), float(stderr), iterations, converged)


# Crystal delays of random arms in micrometres, indexed by floor(4 u).
_RANDOM_DELAYS_UM = (0.0, 75.0, 150.0, 310.0)
# Counter slots of spec i are i * _SPEC_SLOTS + offset: offsets 0 and 1 hold the
# upper and lower arm lengths; _ELEMENT_SLOT + 3 e + (0, 1, 2) element e's kind,
# angle and delay, e = 3 side + position; _GAUSS_SLOT + 8 g + (0, ..., 7)
# Gaussian g's four radii and four phases, g = 0 the state's, 1 + e element e's.
_ELEMENT_SLOT, _GAUSS_SLOT, _SPEC_SLOTS = 2, 20, 76


def _gaussians(seed: int, slots: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians (g, 2, 2) by Box-Muller, one from the eight
    counters from each slot on, four radii u1 and then four phases u2:
    r e^{i theta} with r = sqrt(-2 log1p(-u1)) and theta = 2 pi u2, so real
    and imaginary parts are independent N(0, 1)."""
    u = _uniforms(seed, slots[:, None] + np.arange(8)).reshape(-1, 2, 2, 2)
    r, theta = np.sqrt(-2.0 * np.log1p(-u[:, 0])), 2.0 * np.pi * u[:, 1]
    gauss = np.empty(r.shape, dtype=complex)
    gauss.real, gauss.imag = r * np.cos(theta), r * np.sin(theta)
    return gauss


def random_specs(seed: int, n: int) -> tuple[ArmTable, np.ndarray]:
    """``n`` random arm pairs with random mixed input states, for
    cross-checking the simulator against the oracle: the element table of
    the arms, spec i's upper arm 2i and its lower arm 2i + 1, and the states
    (n, 2, 2).

    Spec i reads the counter-based uniforms (``_uniforms``) of its own fixed
    slots, i * 76 + offset, so it depends only on (seed, i), and the first n
    specs of any longer draw are the same. An arm has floor(4 u) elements, 0
    to 3: by its kind u, crystals (u < 1/2) with angles pi u in [0, pi) and
    delays from 0, 75, 150 and 310 um by floor(4 u), half-wave plates (u <
    3/4) and Haar random unitaries. The state is G G^dag / tr from a complex
    Gaussian G, made exactly Hermitian by averaging with its adjoint; a
    unitary is the Q of its Gaussian's QR with R's diagonal made positive, in
    closed form. One array pass draws the arm lengths, one the kinds, angles
    and delays of the elements that exist, one the Gaussians of the states
    and unitaries; the states, the unitaries and the table are then written
    out as arrays, with no BLAS or LAPACK routine and no element object.
    """
    base = np.arange(n) * _SPEC_SLOTS
    lengths = (4.0 * _uniforms(seed, base[:, None] + np.arange(2))).astype(np.intp).ravel()
    arm = np.arange(2 * n).repeat(lengths)  # each element's arm, upper and lower alternating
    position = np.arange(len(arm)) - (lengths.cumsum() - lengths).repeat(lengths)
    element = 3 * (arm % 2) + position  # e, its index within its spec
    at = base[arm // 2]  # the first slot of its spec
    kinds, angles, delays = _uniforms(seed, (at + _ELEMENT_SLOT + 3 * element)[:, None]
                                      + np.arange(3)).T
    unitary = kinds >= 0.75
    g = _gaussians(seed, np.concatenate((base, (at + 8 * (1 + element))[unitary])) + _GAUSS_SLOT)
    rho = matmul2(g[:n], g[:n].conj().transpose(0, 2, 1))
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2
    g = g[n:]
    # Q of g = QR with R's diagonal positive: q0 = g0 / |g0| and q1 = w <w, g1>
    # / |<w, g1>|, w = (-q0_1*, q0_0*) the unit vector orthogonal to q0
    q0 = g[..., 0] / np.sqrt((g[..., 0].real ** 2 + g[..., 0].imag ** 2).sum(axis=1))[:, None]
    w = np.stack((-q0[:, 1].conj(), q0[:, 0].conj()), axis=1)
    p = q0[:, 0] * g[:, 1, 1] - q0[:, 1] * g[:, 0, 1]  # <w, g1>
    table = element_table(lengths, np.digitize(kinds, (0.5, 0.75)), np.pi * angles,
                          np.take(_RANDOM_DELAYS_UM, (4.0 * delays).astype(np.intp)),
                          np.stack((q0, w * (p / np.abs(p))[:, None]), axis=2))
    return table, rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def qkd_visibility(u1: ArmSpec, u2: ArmSpec, u3: ArmSpec,
                   u4: ArmSpec) -> tuple[float, float]:
    """Fringe visibility and qubit error rate of an unbalanced-interferometer
    key link with the maximally mixed input.

    Segments u1, u2 lie on one of the two interfering path combinations
    through the linked interferometers, u3, u4 on the other. With an identity
    channel between the two unbalanced interferometers, the link reduces to a
    single balanced interferometer with u1+u2 as the upper arm and u3+u4 as
    the lower. QBER is modeled as (1 - visibility) / 2: at unit visibility the
    wrong port never fires, at zero visibility it fires half the time.
    """
    vis = abs(kraus_contrasts(compose_arms(arm_table([[*u1, *u2], [*u3, *u4]])), [0], [1],
                              maximally_mixed(2))[0])
    return vis, (1.0 - vis) / 2.0
