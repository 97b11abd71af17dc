"""Complex matrix plumbing and elementary polarization-optics operators.

Conventions used throughout the package: the polarization basis is ordered
(H, V), path states are ordered (|0> = lower output port, |1> = upper), and
every matrix is a dense complex128 numpy array. All tolerances are absolute
and entrywise, which is adequate here because every matrix in scope has
entries of magnitude <= 1.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITIAN_ATOL",
    "TRACE_ATOL",
    "EIGENVALUE_FLOOR",
    "UNITARY_ATOL",
    "matmul2",
    "rotated_basis",
    "half_waveplate",
    "maximally_mixed",
    "validate_density_matrix",
]

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
UNITARY_ATOL = 1e-10


def matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a @ b of 2x2 matrices, broadcast over stacks (..., 2, 2),
    written out as column times row, a[:, 0] b[0, :] + a[:, 1] b[1, :]: no BLAS
    routine, so each product rounds alike in any stack and on any kernel."""
    out = a[..., :, :1] * b[..., :1, :]
    out += a[..., :, 1:] * b[..., 1:, :]
    return out


def rotated_basis(theta: float) -> np.ndarray:
    """Orthonormal polarization pair at angle theta from horizontal.

    Returns the rows (ket_o, ket_e), ket_o = (cos t, sin t) and ket_e =
    (-sin t, cos t) in the (H, V) basis. Angles (n,) give shape (2, 2, n).
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=complex)


def half_waveplate(theta: float) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at ``theta``.

    Reflection about the axis, [[cos 2t, sin 2t], [sin 2t, -cos 2t]]; the
    conventional -i global phase is dropped. An array of angles gives
    matrices of shape (2, 2, angles).
    """
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def maximally_mixed(d: int) -> np.ndarray:
    """The maximally mixed state I/d."""
    d = int(d)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.eye(d, dtype=complex) / d


def validate_density_matrix(rho, name: str = "rho") -> np.ndarray:
    """Validate a 2x2 density matrix, or a stack of them (..., 2, 2): the
    shape, then finite, Hermitian, unit trace and positive semidefinite, the
    last by the smaller eigenvalue of the Hermitian part [[a, b], [b*, d]] in
    closed form, (a + d)/2 - sqrt(((a - d)/2)^2 + |b|^2).

    The properties are checked in that order over the whole stack. Raises
    ValueError naming the first violated property and, for a stack, the index
    of the first matrix that violates it (``rho[2]``); returns the validated
    complex array on success; an empty stack (0, 2, 2) passes vacuously.
    """
    arr = np.array(rho, dtype=complex)
    if arr.shape[-2:] != (2, 2):
        raise ValueError(f"{name}: input states must be 2x2, got shape {arr.shape}")

    def fail(bad: np.ndarray, message) -> None:
        """Raise message(label, index) for the first matrix where ``bad`` holds."""
        index = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
        label = f"{name}[{', '.join(map(str, index))}]" if index else name
        raise ValueError(message(label, index))

    finite = np.isfinite(arr)
    if not finite.all():
        fail(~finite.all(axis=(-2, -1)), lambda at, i: f"{at} contains NaN or Inf entries")
    herm = np.abs(arr - arr.swapaxes(-2, -1).conj())
    if herm.max(initial=0.0) > HERMITIAN_ATOL:
        herm = herm.max(axis=(-2, -1))
        fail(herm > HERMITIAN_ATOL,
             lambda at, i: f"{at} is not Hermitian (residual {herm[i]:.3e})")
    tr = np.trace(arr, axis1=-2, axis2=-1)
    if np.max(np.abs(tr - 1.0), initial=0.0) > TRACE_ATOL:
        fail(np.abs(tr - 1.0) > TRACE_ATOL,
             lambda at, i: f"{at} trace is {complex(tr[i])}, expected 1")
    a, d = arr[..., 0, 0].real, arr[..., 1, 1].real
    b = (arr[..., 0, 1] + arr[..., 1, 0].conj()) / 2
    eig_min = (a + d) / 2 - np.sqrt(((a - d) / 2) ** 2 + b.real ** 2 + b.imag ** 2)
    if np.min(eig_min, initial=0.0) < EIGENVALUE_FLOOR:
        fail(eig_min < EIGENVALUE_FLOOR,
             lambda at, i: f"{at} has a negative eigenvalue ({eig_min[i]:.3e})")
    return arr
