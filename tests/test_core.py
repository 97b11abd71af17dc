import numpy as np
import pytest

from conftest import ANGLES, random_density, random_unitary
from mzfringe import (
    half_waveplate,
    maximally_mixed,
    rotated_basis,
    validate_density_matrix,
)
from mzfringe.core import EIGENVALUE_FLOOR, HERMITIAN_ATOL, TRACE_ATOL, matmul2
from mzfringe.interferometer import _BEAMSPLITTER

I2 = np.eye(2, dtype=complex)


def test_beamsplitter_squared():
    # hand multiplication of the 50/50 splitter with itself
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(_BEAMSPLITTER @ _BEAMSPLITTER, expected, atol=1e-15)


def test_beamsplitter_entries():
    u = _BEAMSPLITTER
    assert u[0, 0] == pytest.approx(1 / np.sqrt(2))
    assert u[1, 0] == pytest.approx(-1 / np.sqrt(2))
    np.testing.assert_allclose(u.conj().T @ u, I2, atol=1e-15)


def test_matmul2_is_the_matrix_product_over_broadcast_stacks():
    # a stack against one matrix, stacks of different depths, real by complex,
    # and a 2x4 right factor (a complex row as four floats)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
    b = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    for x, y in ((a, b), (a, b[0]), (b[0], a), (a.real, b), (a.real, b.view(float))):
        np.testing.assert_allclose(matmul2(x, y), x @ y, rtol=0, atol=1e-14)


def test_rotated_basis_axis_cases():
    ket_o, ket_e = rotated_basis(0.0)
    np.testing.assert_allclose(ket_o, [1, 0])
    np.testing.assert_allclose(ket_e, [0, 1])
    ket_o, ket_e = rotated_basis(np.pi / 2)
    np.testing.assert_allclose(ket_o, [0, 1], atol=1e-15)
    np.testing.assert_allclose(ket_e, [-1, 0], atol=1e-15)


def test_rotated_basis_orthonormal():
    rng = np.random.default_rng(17)
    for theta in rng.uniform(-10, 10, size=100):
        ket_o, ket_e = rotated_basis(theta)
        assert abs(np.vdot(ket_o, ket_e)) <= 1e-12
        assert abs(np.vdot(ket_o, ket_o) - 1) <= 1e-12
        assert abs(np.vdot(ket_e, ket_e) - 1) <= 1e-12


def test_half_waveplate_axis_aligned():
    np.testing.assert_allclose(half_waveplate(0.0), np.diag([1.0, -1.0]))


def test_half_waveplate_at_pi_over_8():
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    np.testing.assert_allclose(half_waveplate(np.pi / 8), expected, atol=1e-15)


def test_half_waveplate_involution():
    for theta in ANGLES:
        w = half_waveplate(theta)
        np.testing.assert_allclose(w @ w, I2, atol=1e-12)


def test_optical_elements_unitary():
    for theta in ANGLES:
        for m in (_BEAMSPLITTER, half_waveplate(theta)):
            np.testing.assert_allclose(m.conj().T @ m, I2, atol=1e-12)


def test_maximally_mixed():
    np.testing.assert_allclose(maximally_mixed(2), np.diag([0.5, 0.5]))
    assert abs(np.trace(maximally_mixed(7)) - 1.0) <= 1e-12
    np.testing.assert_allclose(np.linalg.eigvalsh(maximally_mixed(5)), np.full(5, 0.2))


def test_maximally_mixed_rejects_zero():
    with pytest.raises(ValueError):
        maximally_mixed(0)


def test_validate_density_matrix_accepts_valid():
    rng = np.random.default_rng(23)
    rho = random_density(rng)
    np.testing.assert_allclose(validate_density_matrix(rho), rho)


def test_validate_density_matrix_rejections():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="eigenvalue"):
        validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="NaN|Inf"):
        validate_density_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_validate_density_matrix_takes_an_empty_stack():
    assert validate_density_matrix(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    with pytest.raises(ValueError, match=r"must be 2x2, got shape \(0, 2\)"):
        validate_density_matrix(np.zeros((0, 2)))


@pytest.mark.parametrize("bad, message", [
    (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
    (np.diag([0.7, 0.7]), "trace"),
    (np.diag([1.5, -0.5]), "eigenvalue"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "NaN|Inf"),
])
def test_validate_density_matrix_stack_names_the_failing_index(bad, message):
    stack = np.array([I2 / 2, I2 / 2, bad, I2 / 2])
    with pytest.raises(ValueError, match=rf"^rho\[2\] .*({message})"):
        validate_density_matrix(stack)
    np.testing.assert_allclose(validate_density_matrix(np.array([I2 / 2] * 4)),
                               np.array([I2 / 2] * 4))


def eigvalsh_accepts(rho) -> bool:
    """The reference decision: Hermitian and unit trace within their
    tolerances, and eigvalsh's smallest eigenvalue of the Hermitian part at
    or above EIGENVALUE_FLOOR."""
    hermitian = np.abs(rho - rho.conj().T).max() <= HERMITIAN_ATOL
    unit_trace = abs(np.trace(rho) - 1.0) <= TRACE_ATOL
    return bool(hermitian and unit_trace
                and np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= EIGENVALUE_FLOOR)


def test_closed_form_state_check_decides_as_eigvalsh_on_either_side_of_the_floors():
    # rotated states whose smaller eigenvalue lies 1e-12 or 1e-11 either side
    # of EIGENVALUE_FLOOR, and states whose anti-Hermitian part lies as far
    # either side of HERMITIAN_ATOL
    rng = np.random.default_rng(29)
    states = []
    for offset in (-1e-11, -1e-12, 1e-12, 1e-11):
        for _ in range(50):
            u = random_unitary(rng)
            lam = EIGENVALUE_FLOOR + offset
            states.append(u @ np.diag([1.0 - lam, lam]) @ u.conj().T)
            skew = np.array([[0.0, 1.0], [-1.0, 0.0]]) * (HERMITIAN_ATOL + offset) * np.exp(
                1j * rng.uniform(0.0, 2.0 * np.pi))
            states.append(random_density(rng) + skew)
    decisions = {True: 0, False: 0}
    for rho in states:
        want = eigvalsh_accepts(rho)
        decisions[want] += 1
        try:
            validate_density_matrix(rho)
            got = True
        except ValueError as exc:
            assert "eigenvalue" in str(exc) or "Hermitian" in str(exc)
            got = False
        assert got == want, rho
    assert decisions[True] > 100 and decisions[False] > 100
