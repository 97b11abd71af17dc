import numpy as np
import pytest

from conftest import random_density
from mzfringe import (
    beamsplitter,
    half_waveplate,
    maximally_mixed,
    partial_trace,
    phase_shifter,
    rotated_basis,
    validate_cptp,
    validate_density_matrix,
)

I2 = np.eye(2, dtype=complex)

# angles in radians over [-10, 10], endpoints and zero included
ANGLES = np.linspace(-10.0, 10.0, 401)


def test_beamsplitter_squared():
    # hand multiplication of the 50/50 splitter with itself
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(beamsplitter() @ beamsplitter(), expected, atol=1e-15)


def test_adjoint_of_phase_shifter():
    np.testing.assert_allclose(phase_shifter(0.7).conj().T, phase_shifter(-0.7),
                               atol=1e-15)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho, sigma = random_density(rng), random_density(rng)
    np.testing.assert_allclose(partial_trace(np.kron(rho, sigma), [2, 2], [0]), rho,
                               atol=1e-12)
    np.testing.assert_allclose(partial_trace(np.kron(rho, sigma), [2, 2], [1]), sigma,
                               atol=1e-12)


def test_partial_trace_bell_state():
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
    bell = np.outer(psi, psi.conj())
    for keep in ([0], [1]):
        np.testing.assert_allclose(partial_trace(bell, [2, 2], keep), I2 / 2,
                                   atol=1e-12)


def test_partial_trace_three_factor_middle():
    # independent oracle: build the product directly, keep the middle factor
    rng = np.random.default_rng(5)
    r1, r2, r3 = (random_density(rng) for _ in range(3))
    joint = np.kron(np.kron(r1, r2), r3)
    np.testing.assert_allclose(partial_trace(joint, [2, 2, 2], [1]), r2, atol=1e-12)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_density(rng, 4)
        for keep in ([0], [1]):
            red = partial_trace(rho, [2, 2], keep)
            assert abs(np.trace(red) - 1.0) <= 1e-12
            assert np.max(np.abs(red - red.conj().T)) <= 1e-12


def test_partial_trace_dims_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 3], [0])


def test_beamsplitter_entries():
    u = beamsplitter()
    assert u[0, 0] == pytest.approx(1 / np.sqrt(2))
    assert u[1, 0] == pytest.approx(-1 / np.sqrt(2))
    np.testing.assert_allclose(u.conj().T @ u, I2, atol=1e-15)


def test_phase_shifter_values():
    np.testing.assert_allclose(phase_shifter(0.0), I2)
    np.testing.assert_allclose(phase_shifter(np.pi), np.diag([1.0, -1.0]), atol=1e-12)


def test_phase_shifter_group_property():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b = rng.uniform(-5, 5, size=2)
        np.testing.assert_allclose(phase_shifter(a) @ phase_shifter(b),
                                   phase_shifter(a + b), atol=1e-12)


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
        for m in (beamsplitter(), phase_shifter(theta), half_waveplate(theta)):
            np.testing.assert_allclose(m.conj().T @ m, I2, atol=1e-12)


def test_maximally_mixed():
    np.testing.assert_allclose(maximally_mixed(2), np.diag([0.5, 0.5]))
    assert abs(np.trace(maximally_mixed(7)) - 1.0) <= 1e-12
    np.testing.assert_allclose(np.linalg.eigvalsh(maximally_mixed(5)), np.full(5, 0.2))


def test_maximally_mixed_rejects_zero():
    with pytest.raises(ValueError):
        maximally_mixed(0)


def test_validate_cptp_identity():
    check = validate_cptp([I2])
    assert check.passed and check.residual == 0.0


def test_validate_cptp_crystal_projectors():
    ops = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    assert validate_cptp(ops).passed


def test_validate_cptp_subnormalized_fails():
    check = validate_cptp([0.9 * I2])
    assert not check.passed
    assert check.residual > 1e-2


def test_validate_cptp_mixed_dimensions():
    with pytest.raises(ValueError):
        validate_cptp([I2, np.eye(3)])


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
