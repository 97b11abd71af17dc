"""Single-qubit process tomography: the process matrix chi of a qubit channel.

Linear-inversion tomography in the Pauli basis {I, X, Y, Z}: probing a channel
with the four states {H, V, D, R} determines it completely, and the process
matrix chi satisfies channel(rho) = sum_mn chi[m, n] sigma_m rho sigma_n. A
trace-preserving channel has Tr chi = 1, so the identity channel reads
diag(1, 0, 0, 0). The channel receives the four probes as one (4, 2, 2) stack,
and one constant 16x16 matrix, built at import, maps the 16 entries of its
outputs to chi. The blindness table that compares chi with the fringes is
``experiments.blindness_demo``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import validate_density_matrix

__all__ = [
    "PAULIS",
    "PROBE_STATES",
    "qpt",
]

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_KET_H = np.array([1.0, 0.0], dtype=complex)
_KET_V = np.array([0.0, 1.0], dtype=complex)
_KET_D = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_KET_R = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)

# Minimal informationally complete probe set (fixed), stacked (4, 2, 2).
PROBE_STATES = np.array([np.outer(k, k.conj()) for k in (_KET_H, _KET_V, _KET_D, _KET_R)])
PROBE_STATES.setflags(write=False)


def _chi_map() -> np.ndarray:
    """The 16x16 matrix from the stacked probe outputs, flattened, to chi.

    The channel's action on the matrix units E_jk, in row-major order, as
    combinations of the probe outputs (H, V, D, R):
      E00 = H,  E11 = V,
      E01 = D + iR - (1+i)/2 (H + V),   E10 = D - iR - (1-i)/2 (H + V).
    These columns form the transfer matrix T with vec(A rho B) = (A kron B^T)
    vec(rho), and chi[m, n] = Tr[(sigma_m kron sigma_n^T)^dag T] / 4, where
    (sigma_m kron sigma_n^T)[a, c] = sigma_m[a // 2, c // 2] sigma_n[c % 2, a % 2].
    The sums run on Python numbers: a process's first numpy kron or einsum
    raises its peak resident set by about 0.25 MiB, which every command would
    pay at import.
    """
    units = [[1, 0, 0, 0],
             [-(1 + 1j) / 2, -(1 + 1j) / 2, 1, 1j],
             [-(1 - 1j) / 2, -(1 - 1j) / 2, 1, -1j],
             [0, 1, 0, 0]]
    sigma = [p.tolist() for p in PAULIS]
    return np.array([[sum((sigma[m][a // 2][c // 2] * sigma[n][c % 2][a % 2]).conjugate()
                          * units[c][p] for c in range(4)) / 4.0
                      for p in range(4) for a in range(4)]
                     for m in range(4) for n in range(4)])


_CHI_MAP = _chi_map()


def qpt(channel: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Process matrix of a linear trace-preserving qubit channel, or matrices
    (..., 4, 4) of a stack of channels with outputs (..., 4, 2, 2).

    Calls the channel once, on the (4, 2, 2) stack of the probes {H, V, D, R},
    validates all outputs in one check, and maps each probe set to chi with
    one constant linear map (the linear inversion of Chuang and Nielsen,
    J. Mod. Opt. 44 (1997) 2455) in a plain einsum, which calls no BLAS.
    """
    outs = channel(PROBE_STATES)
    try:
        outs = validate_density_matrix(outs, "channel output")
    except ValueError as exc:
        raise ValueError(f"invalid channel: {exc}") from exc
    if outs.shape[-3:-2] != (4,):
        raise ValueError(f"invalid channel: outputs have shape {outs.shape}, "
                         "expected (..., 4, 2, 2)")
    chi = np.einsum("ij,...j->...i", _CHI_MAP, outs.reshape(outs.shape[:-3] + (16,)))
    return chi.reshape(chi.shape[:-1] + (4, 4))
