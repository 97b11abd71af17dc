import tracemalloc

import numpy as np
import pytest

from conftest import channel_one, random_arm, random_density, random_unitary
from mzfringe import (
    Crystal,
    Waveplate,
    arm_channel_apply,
    blindness_demo,
    compose_arms,
    maximally_mixed,
    qpt,
)
from mzfringe.experiments import default_beta_grid, standard_arms
from mzfringe.tomography import PAULIS, PROBE_STATES


def apply_chi(chi, rho):
    """A Pauli-basis process matrix applied to a state: sum chi[m, n] s_m rho s_n."""
    return sum(chi[m, n] * (PAULIS[m] @ rho @ PAULIS[n]) for m in range(4) for n in range(4))


def unitary_channel(u):
    return lambda rho: u @ rho @ u.conj().T


def random_kraus_channel(rng, n_ops=2):
    """Random trace-preserving channel from an orthonormalized operator stack."""
    stack = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    q, _ = np.linalg.qr(stack)
    ops = [q[2 * i:2 * i + 2, :] for i in range(n_ops)]
    return lambda rho: sum(k @ rho @ k.conj().T for k in ops)


def reference_qpt(channel):
    """The matrix-unit and 16-kron formula, one probe per channel call, kept as
    the reference for the single linear map."""
    o_h, o_v, o_d, o_r = (channel(probe) for probe in PROBE_STATES)
    action = {
        (0, 0): o_h,
        (1, 1): o_v,
        (0, 1): o_d + 1j * o_r - 0.5 * (1 + 1j) * (o_h + o_v),
        (1, 0): o_d - 1j * o_r - 0.5 * (1 - 1j) * (o_h + o_v),
    }
    transfer = np.zeros((4, 4), dtype=complex)
    for (j, k), out in action.items():
        transfer[:, 2 * j + k] = out.reshape(4)
    chi = np.empty((4, 4), dtype=complex)
    for m in range(4):
        for n in range(4):
            basis = np.kron(PAULIS[m], PAULIS[n].T)
            chi[m, n] = np.trace(basis.conj().T @ transfer) / 4.0
    return chi


def test_qpt_equals_matrix_unit_reference():
    rng = np.random.default_rng(103)
    channels = [random_kraus_channel(rng, n) for n in (1, 2, 3, 2)]
    channels.append(unitary_channel(random_unitary(rng)))
    rng = np.random.default_rng(107)
    for _ in range(20):
        arm = random_arm(rng, max_elements=3)
        channels.append(lambda rho, arm=arm: channel_one(arm, rho))
    for channel in channels:
        np.testing.assert_allclose(qpt(channel), reference_qpt(channel), rtol=0, atol=1e-15)


def test_qpt_of_a_channel_stack_equals_per_channel_qpt_bit_for_bit():
    # a flattened (n, 16) @ (16, 16) product would change most entries of
    # 300 random output sets; the plain einsum makes the same products as one
    # channel at a time
    rng = np.random.default_rng(127)
    channels = [random_kraus_channel(rng, n) for n in rng.integers(1, 4, 300)]
    chi = qpt(lambda rho: np.array([channel(rho) for channel in channels]))
    assert chi.shape == (300, 4, 4)
    for stacked, channel in zip(chi, channels):
        assert stacked.tobytes() == qpt(channel).tobytes()
    # a Kraus table's channels, as blindness_demo applies them, against each
    # arm alone
    arms = standard_arms("a", default_beta_grid(100))[0]
    table = compose_arms(arms)
    chi = qpt(lambda rho: arm_channel_apply(table, rho))
    for stacked, arm in zip(chi, arms):
        alone = qpt(lambda rho: channel_one(arm, rho))
        assert stacked.tobytes() == alone.tobytes()


def test_qpt_calls_its_channel_once_on_the_probe_stack():
    calls = []

    def channel(rho):
        calls.append(np.shape(rho))
        return channel_one([Crystal(0.3, 150.0)], rho)

    qpt(channel)
    assert calls == [(4, 2, 2)]


def test_qpt_of_an_empty_channel_stack_is_empty():
    assert qpt(lambda rho: np.zeros((0,) + rho.shape, dtype=complex)).shape == (0, 4, 4)


def test_qpt_names_the_failing_probe_output():
    def channel(rho):
        out = np.array(rho, dtype=complex)
        out[2] *= 0.5
        return out

    with pytest.raises(ValueError, match=r"invalid channel: channel output\[2\] trace"):
        qpt(channel)


def test_qpt_identity_channel():
    chi = qpt(lambda rho: rho)
    np.testing.assert_allclose(chi, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)


def test_qpt_full_dephasing():
    chi = qpt(lambda rho: channel_one([Crystal(0.0, 310.0)], rho))
    np.testing.assert_allclose(chi, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)


def test_qpt_axis_aligned_waveplate_is_z():
    chi = qpt(lambda rho: channel_one([Waveplate(0.0)], rho))
    np.testing.assert_allclose(chi, np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-12)


def test_qpt_rejects_nonphysical_channel():
    with pytest.raises(ValueError, match="invalid channel"):
        qpt(lambda rho: 0.5 * rho)


def test_qpt_round_trip_on_random_channels():
    rng = np.random.default_rng(103)
    channels = [random_kraus_channel(rng, n) for n in (1, 2, 3, 2)]
    channels.append(unitary_channel(random_unitary(rng)))
    for channel in channels:
        chi = qpt(channel)
        for _ in range(20):
            rho = random_density(rng)
            np.testing.assert_allclose(apply_chi(chi, rho), channel(rho), atol=1e-9)


def test_qpt_process_matrix_is_physical():
    rng = np.random.default_rng(107)
    for _ in range(20):
        arm = random_arm(rng, max_elements=3)
        chi = qpt(lambda rho: channel_one(arm, rho))
        assert np.max(np.abs(chi - chi.conj().T)) <= 1e-10
        assert abs(np.trace(chi) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (chi + chi.conj().T)).min() >= -1e-10


def test_qpt_crystal_arms_keep_unitality():
    rng = np.random.default_rng(109)
    for _ in range(10):
        arm = random_arm(rng, max_elements=3)
        chi = qpt(lambda rho: channel_one(arm, rho))
        np.testing.assert_allclose(apply_chi(chi, maximally_mixed(2)),
                                   maximally_mixed(2), atol=1e-10)


def test_blindness_at_quarter_pi():
    [(_, d_upper, d_lower, vis_a, vis_b, gap)] = zip(*blindness_demo([np.pi / 4]))
    assert d_upper < 1e-9
    assert d_lower < 1e-9
    assert vis_a == pytest.approx(0.5, abs=1e-9)
    assert vis_b == pytest.approx(0.0, abs=1e-9)
    assert gap == pytest.approx(0.5, abs=1e-9)


def test_blindness_at_zero_angle():
    [(_, d_upper, d_lower, vis_a, vis_b, gap)] = zip(*blindness_demo([0.0]))
    assert d_upper < 1e-9 and d_lower < 1e-9
    assert vis_a == pytest.approx(1.0, abs=1e-12)
    assert vis_b == pytest.approx(1.0, abs=1e-12)
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_blindness_at_eighth_pi():
    [(_, _, _, vis_a, vis_b, gap)] = zip(*blindness_demo([np.pi / 8]))
    assert vis_a == pytest.approx(0.75, abs=1e-12)
    assert vis_b == pytest.approx(np.cos(np.pi / 8) ** 2 * np.cos(np.pi / 4), abs=1e-12)
    assert gap == pytest.approx(0.1464466094067263, abs=1e-12)


def test_blindness_over_grid():
    columns = blindness_demo(np.linspace(0.0, np.pi / 2, 25))
    assert all(len(column) == 25 for column in columns)
    for beta, d_upper, d_lower, _, _, gap in zip(*columns):
        assert d_upper < 1e-9
        assert d_lower < 1e-9
        expected_gap = abs((1 - np.sin(2 * beta) ** 2 / 2)
                           - abs(np.cos(beta) ** 2 * np.cos(2 * beta)))
        assert gap == pytest.approx(expected_gap, abs=1e-9)


def test_blindness_of_an_empty_grid_is_six_empty_columns():
    columns = blindness_demo([])
    assert len(columns) == 6
    assert all(column.shape == (0,) for column in columns)


def test_blindness_memory_grows_by_a_fixed_budget_per_point():
    # The per-point budget that the tomography bound in cli._COUNT_LIMITS
    # rests on: one configuration's table at a time peaks near 4.0 KiB per
    # point, both tables at once near 5.5 KiB. 1,024 points is 1/64 of the
    # bound; the peak is linear in the points from 256 to 4,096.
    blindness_demo([0.3])
    tracemalloc.start()
    try:
        blindness_demo(default_beta_grid(1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 5.25 * 1024
