from typing import NamedTuple

import numpy as np

from mzfringe import (Crystal, RawUnitary, Waveplate, arm_channel_apply, compose_arms,
                      maximally_mixed, oracle_contrasts, shared_env_contrasts, standard_arms)
from mzfringe.experiments import _uniforms
from mzfringe.interferometer import _BEAMSPLITTER


def random_density(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    """Random full-rank density matrix via a Wishart draw."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


MIXED = maximally_mixed(2)
# angles in radians over [-10, 10], endpoints and zero included
ANGLES = np.linspace(-10.0, 10.0, 401)


CPTP_ATOL = 1e-10


class CptpCheck(NamedTuple):
    passed: bool
    residual: float


def validate_cptp(operators) -> CptpCheck:
    """Trace preservation of a Kraus set (k, d, d), such as one arm's
    operators ``compose_one(arm)[1]``: the max-entry residual of
    |sum K^dag K - I|, passed when it is within ``CPTP_ATOL``."""
    ops = np.asarray(operators, dtype=complex)
    acc = (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)
    residual = float(np.max(np.abs(acc - np.eye(ops.shape[1]))))
    return CptpCheck(residual <= CPTP_ATOL, residual)


def compose_one(arm) -> tuple[np.ndarray, np.ndarray]:
    """Kraus set of one arm, delays (k,) and operators (k, 2, 2): the one-arm table."""
    return compose_arms([arm])[1:]


def channel_one(arm, rho) -> np.ndarray:
    """Channel of one arm on ``rho``, one state or a stack of states (..., 2, 2)."""
    return arm_channel_apply(compose_arms([arm]), rho)[0]


def contrast(upper, lower, rho=MIXED) -> complex:
    """Shared-environment contrast of one arm pair."""
    return shared_env_contrasts([upper], [lower], rho)[0]


def oracle(upper, lower, rho=MIXED) -> complex:
    """Oracle contrast of one arm pair."""
    return complex(oracle_contrasts([upper], [lower], rho)[0])


def port_probabilities(gram: np.ndarray, phis) -> np.ndarray:
    """Oracle port probabilities (..., port, phase) from path Gram matrices
    (..., 2, 2); port 0 is the lower port. The phase plate diag(1, e^{i phi})
    on path 1 and the closing beamsplitter, the inverse of the first, map the
    paths to port k through the row c_k(phi) of their product, and port k
    fires with probability c_k^dag G c_k."""
    plate = np.exp(1j * np.multiply.outer(np.asarray(phis, dtype=float), (0.0, 1.0)))
    rows = _BEAMSPLITTER.conj().T[:, None, :] * plate
    return np.einsum("kip,...pq,kiq->...ki", rows.conj(), gram, rows).real


def standard_pair(variant: str, beta: float) -> tuple[list, list]:
    """Upper and lower arm of a standard configuration at one beta."""
    (upper,), (lower,) = standard_arms(variant, [beta])
    return upper, lower


RANDOM_DELAYS_UM = (0.0, 75.0, 150.0, 310.0)


def matmul2(a, b) -> np.ndarray:
    """a @ b for (stacks of) 2x2 matrices as the package writes it out, column
    times row: references that call it round as the package does, on any BLAS
    kernel."""
    out = a[..., :, :1] * b[..., :1, :]
    out += a[..., :, 1:] * b[..., 1:, :]
    return out


def haar_unitaries(gauss: np.ndarray) -> np.ndarray:
    """The Q factors (n, 2, 2) of complex Gaussians (n, 2, 2), R's diagonal made
    positive, in the closed form of ``random_specs``: q0 = g0 / |g0| and q1 = w
    <w, g1> / |<w, g1>| with w = (-q0_1*, q0_0*). Pass a stack, even of one:
    numpy's scalar complex products round differently from its array loops."""
    g0 = gauss[:, :, 0]
    q0 = g0 / np.sqrt((g0.real ** 2 + g0.imag ** 2).sum(axis=1))[:, None]
    w = np.stack((-q0[:, 1].conj(), q0[:, 0].conj()), axis=1)
    p = q0[:, 0] * gauss[:, 1, 1] - q0[:, 1] * gauss[:, 0, 1]
    return np.stack((q0, w * (p / np.abs(p))[:, None]), axis=2)


def random_arm(rng: np.random.Generator, max_elements: int = 3) -> list:
    """A random arm drawn one element at a time from a numpy generator, each
    unitary from its own Gaussian.

    Draws up to ``max_elements`` elements: crystals with angles uniform in
    [0, pi) and delays from 0, 75, 150 and 310 um, half-wave plates, and
    Haar random unitaries.
    """
    elements = []
    for _ in range(int(rng.integers(0, max_elements + 1))):
        kind = rng.random()
        if kind < 0.5:
            elements.append(Crystal(float(rng.uniform(0.0, np.pi)),
                                    RANDOM_DELAYS_UM[int(rng.integers(4))]))
        elif kind < 0.75:
            elements.append(Waveplate(float(rng.uniform(0.0, np.pi))))
        else:
            gauss = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            elements.append(RawUnitary(haar_unitaries(gauss[None])[0]))
    return elements


def random_pair(rng: np.random.Generator, max_elements: int = 3) -> tuple[list, list, np.ndarray]:
    """A random (upper, lower, rho) from a numpy generator: the state first,
    then the upper arm, then the lower arm."""
    gauss = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = matmul2(gauss, gauss.conj().T)
    rho = rho / np.trace(rho)
    return random_arm(rng, max_elements), random_arm(rng, max_elements), rho


def reference_spec(seed: int, i: int) -> tuple[list, list, np.ndarray]:
    """Spec i of ``random_specs(seed, n)``, (upper, lower, rho), read one
    counter slot at a time from ``_uniforms``: the reference that
    ``random_specs`` must reproduce bit for bit.

    Spec i's slots are i * 76 + offset. Offsets 0 and 1 give the upper and
    lower arm lengths, floor(4 u). Element e (3 for each side, then its
    position) reads its kind, angle and delay at 2 + 3 e, 3 + 3 e and 4 + 3 e:
    a crystal below 1/2, at pi u and delay floor(4 u), a waveplate below 3/4,
    else a unitary from the Gaussian at 28 + 8 e. The state's Gaussian is at
    20. A Gaussian reads four radii and then four phases, entry by entry,
    r = sqrt(-2 log1p(-u)) and theta = 2 pi u, as one-spec arrays.
    """
    def u(offset):
        return float(_uniforms(seed, [76 * i + offset])[0])

    def gaussian(offset):
        radius, phase = np.array([u(offset + k) for k in range(8)]).reshape(2, 1, 2, 2)
        r, theta = np.sqrt(-2.0 * np.log1p(-radius)), 2.0 * np.pi * phase
        gauss = np.empty((1, 2, 2), dtype=complex)
        gauss.real, gauss.imag = r * np.cos(theta), r * np.sin(theta)
        return gauss

    arms = ([], [])
    for side, arm in enumerate(arms):
        for position in range(int(4.0 * u(side))):
            e = 3 * side + position
            kind, angle, delay = u(2 + 3 * e), np.pi * u(3 + 3 * e), u(4 + 3 * e)
            if kind < 0.5:
                arm.append(Crystal(angle, RANDOM_DELAYS_UM[int(4.0 * delay)]))
            elif kind < 0.75:
                arm.append(Waveplate(angle))
            else:
                arm.append(RawUnitary(haar_unitaries(gaussian(28 + 8 * e))[0]))
    gauss = gaussian(20)
    rho = matmul2(gauss, gauss.conj().transpose(0, 2, 1))
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2
    return arms[0], arms[1], (rho / np.trace(rho, axis1=1, axis2=2)[:, None, None])[0]
