import numpy as np

from mzfringe import (compose_arms, maximally_mixed, oracle_contrasts, shared_env_contrasts,
                     standard_arms)
from mzfringe.experiments import random_arm


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


def compose_one(arm) -> tuple[np.ndarray, np.ndarray]:
    """Kraus set of one arm, delays (k,) and operators (k, 2, 2): the one-arm stack."""
    delays, ops = compose_arms([arm])
    return delays, ops[0]


def contrast(upper, lower, rho=MIXED) -> complex:
    """Shared-environment contrast of one arm pair."""
    return shared_env_contrasts([upper], [lower], rho)[0]


def oracle(upper, lower, rho=MIXED) -> complex:
    """Oracle contrast of one arm pair."""
    return complex(oracle_contrasts([upper], [lower], rho)[0])


def standard_pair(variant: str, beta: float) -> tuple[list, list]:
    """Upper and lower arm of a standard configuration at one beta."""
    (upper,), (lower,) = standard_arms(variant, [beta])
    return upper, lower


def random_pair(rng: np.random.Generator, max_elements: int = 3) -> tuple[list, list, np.ndarray]:
    """A random (upper, lower, rho) by the per-pair loop that ``random_specs``
    keeps: the state first, then the upper arm, then the lower arm."""
    gauss = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = gauss @ gauss.conj().T
    rho = rho / np.trace(rho)
    return random_arm(rng, max_elements), random_arm(rng, max_elements), rho
