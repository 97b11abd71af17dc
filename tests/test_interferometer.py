import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest

from conftest import (ANGLES, MIXED, compose_one, contrast, matmul2, oracle, pair_table,
                      pm_delays, port_probabilities, random_arm, random_density, random_pair,
                      random_unitary, standard_pair)
from mzfringe.arms import PM_PER_UM, ResourceLimitError
from mzfringe.interferometer import (ORACLE_DIM_LIMIT, InterferometerSpec, _frequencies,
                                     _path_gram, _stacked_ops, _transfer, oracle_contrast,
                                     oracle_contrasts, shared_env_contrasts)
from mzfringe import (
    Crystal,
    RawUnitary,
    Waveplate,
    arm_table,
    half_waveplate,
    maximally_mixed,
    output_probability,
    rotated_basis,
)

I2 = np.eye(2, dtype=complex)


def oracle_ports(upper, lower, rho, phis):
    """Oracle port probabilities (port, phase) of one arm pair from the path
    Gram matrix; port 0 is the lower port."""
    return port_probabilities(_path_gram(*pair_table([upper], [lower]), rho), phis)[0]


def transfer(arms, unit, count):
    """``_transfer`` of every arm of the table of ``arms``."""
    table = arm_table(arms)
    return _transfer(table, _stacked_ops(table), range(len(arms)), unit, count)


def arm_transfer(arm):
    """An arm's transfer matrices (k, 2, 2) from ``_transfer`` at N = n, the
    bin count of its full time grid, and the operators (d, 2, 2) at each of
    its bins by the inverse DFT over k, with the bins' delays in um."""
    unit, _ = _frequencies(pm_delays(arm), [])
    n = 1 + sum(pm_delays(arm)) // unit
    t = transfer([arm], unit, n)[0].transpose(2, 0, 1)
    inverse = np.exp(-2j * np.pi * np.multiply.outer(np.arange(n), np.arange(n)) / n) / n
    bins = [d * unit / PM_PER_UM for d in range(n)]  # in um, as composed delays
    return t, np.einsum("dk,kpq->dpq", inverse, t), bins


def test_empty_arms_full_contrast():
    c = contrast([], [])
    assert c == pytest.approx(1.0)
    assert abs(c) == pytest.approx(1.0)


def test_first_config_at_quarter_pi():
    c = contrast(*standard_pair("a", np.pi / 4))
    assert abs(c) == pytest.approx(0.5, abs=1e-12)


def test_single_matched_bin():
    # only the undelayed branch of the lower crystal can interfere
    c = contrast([], [Crystal(0.0, 310.0)])
    assert c == pytest.approx(0.5 + 0.0j)


def test_upper_bin_joins_every_lower_bin_within_tolerance():
    # the tolerance is zero: the upper e-ray bin at 3 pm joins the lower bin
    # at 1 + 2 pm alone, not the lower bins at 2 and 1 pm, 1 and 2 pm away
    upper = [Crystal(0.3, 3e-6)]
    lower = [Crystal(0.7, 1e-6), Crystal(1.1, 2e-6)]
    u_o, u_e = (np.outer(k, k.conj()) for k in rotated_basis(0.3))
    a_o, a_e = (np.outer(k, k.conj()) for k in rotated_basis(0.7))
    b_o, b_e = (np.outer(k, k.conj()) for k in rotated_basis(1.1))
    rho = maximally_mixed(2)
    pairs = [(u_o, b_o @ a_o), (u_e, b_e @ a_e)]
    brute = sum(np.trace(u.conj().T @ v @ rho) for u, v in pairs)
    c = contrast(upper, lower)
    assert c == pytest.approx(brute, abs=1e-15)
    assert abs(c - oracle(upper, lower)) < 1e-9


def test_decimal_delays_that_float_sums_miss_still_interfere():
    # 0.1 + 0.2 != 0.3 in float64, but 100,000 + 200,000 = 300,000 pm: the
    # upper e-e bin joins the lower e-ray bin
    upper = [Crystal(0.3, 0.1), Crystal(0.9, 0.2)]
    lower = [Crystal(1.4, 0.3)]
    u_o, u_e = (np.outer(k, k.conj()) for k in rotated_basis(0.3))
    w_o, w_e = (np.outer(k, k.conj()) for k in rotated_basis(0.9))
    l_o, l_e = (np.outer(k, k.conj()) for k in rotated_basis(1.4))
    rho = maximally_mixed(2)
    pairs = [(w_o @ u_o, l_o), (w_e @ u_e, l_e)]
    brute = sum(np.trace(u.conj().T @ v @ rho) for u, v in pairs)
    c = contrast(upper, lower)
    assert c == pytest.approx(brute, abs=1e-15)
    assert abs(c - oracle(upper, lower)) < 1e-9


def test_delays_one_picometre_apart_stay_in_separate_bins():
    upper = [Crystal(0.3, 1e-6), Crystal(0.8, 2e-6)]
    lower = [Crystal(1.2, 2e-6), Crystal(0.5, 1e-6)]
    assert compose_one(upper)[0].tolist() == [0.0, 1e-6, 2e-6, 3e-6]
    # bins 0 to 3 pm in each arm: the differences 1 to 3 need N = 4
    assert _frequencies(pm_delays(upper), pm_delays(lower)) == (1, 4)
    c = contrast(upper, lower)
    assert abs(c - oracle(upper, lower)) < 1e-9


def reference_contrast(upper, lower, rho):
    """Per-pair join: each upper operator is joined by bisection with the
    lower operator at its delay, if there is one, and each trace Tr[u^dag v
    rho], the entries of conj(u) * (v rho) summed row by row, is added to a
    running sum that starts from 0."""
    upper_delays, upper_ops = compose_one(upper)
    lower_delays, lower_ops = compose_one(lower)
    lower_delays = lower_delays.tolist()
    c = 0.0 + 0.0j
    for d, u in zip(upper_delays.tolist(), upper_ops):
        at = bisect_left(lower_delays, d)
        if lower_delays[at:at + 1] == [d]:
            m = u.conj() * matmul2(lower_ops[at], rho)
            c += (m[0, 0] + m[0, 1]) + (m[1, 0] + m[1, 1])
    return complex(c)


def test_contrast_matches_the_per_pair_join_bit_for_bit():
    rng = np.random.default_rng(127)
    specs = [random_pair(rng, 4) for _ in range(1000)]
    # ten crystals at 150 * 2^k um per arm in two orders: 1,024 matched pairs
    delays = [150.0 * 2 ** k for k in range(10)]
    spreading = ([Crystal(a, d) for a, d in zip(rng.uniform(0, np.pi, 10), delays)],
                 [Crystal(a, d) for a, d in zip(rng.uniform(0, np.pi, 10),
                                                rng.permutation(delays))], MIXED)
    assert len(compose_one(spreading[0])[1]) == len(compose_one(spreading[1])[1]) == 1024
    specs.append(spreading)
    # fifteen equal-delay crystals per arm: 16 bins, each matched once
    specs.append(([Crystal(a, 310.0) for a in rng.uniform(0, np.pi, 15)],
                  [Crystal(a, 310.0) for a in rng.uniform(0, np.pi, 15)], MIXED))
    specs.append(([], [], MIXED))
    # one operator at delay 75 against one at delay 0: no matched pair
    specs.append(([Crystal(0.0, 75.0), Crystal(np.pi / 2, 75.0)], [], MIXED))
    # aligned crystals on a horizontal input: the delay-460 pair adds an exact zero
    aligned = [Crystal(0.0, 150.0), Crystal(0.0, 310.0)]
    specs.append((aligned, aligned, np.diag([1.0, 0.0]).astype(complex)))
    # one upper delay at 3 pm against lower delays 1 pm either side of it and at it
    specs.append(([Crystal(0.3, 3e-6)], [Crystal(0.7, 2e-6), Crystal(1.1, 2e-6)], MIXED))
    specs.append(([Crystal(0.3, 3e-6)], [Crystal(0.7, 1e-6), Crystal(1.1, 2e-6)], MIXED))
    for spec in specs:
        assert repr(contrast(*spec)) == repr(reference_contrast(*spec)), spec


def test_grouped_routines_equal_the_per_spec_routines_bit_for_bit():
    # a random mixed input per spec, plus pure and maximally mixed inputs
    rng = np.random.default_rng(131)
    specs = [random_pair(rng) for _ in range(1000)]
    specs += [(upper, lower, rho) for (upper, lower, _), rho in
              zip(specs[:20], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), maximally_mixed(2)] * 7)]
    uppers, lowers, states = zip(*specs)
    # 211 distinct (upper, lower) crystal-delay sequences and 19 oracle
    # (unit, N) over the 1,020 pairs
    def delays(arm):
        return tuple([e.delay for e in arm if type(e) is Crystal])

    assert len({(delays(u), delays(l)) for u, l in zip(uppers, lowers)}) == 211
    assert len({_frequencies(pm_delays(u), pm_delays(l)) for u, l in zip(uppers, lowers)}) == 19
    rho = np.array(states)
    contrasts = shared_env_contrasts(*pair_table(uppers, lowers), rho)
    oracles = oracle_contrasts(*pair_table(uppers, lowers), rho).tolist()
    for spec, c, o in zip(specs, contrasts, oracles, strict=True):
        assert repr(c) == repr(contrast(*spec)), spec
        assert repr(o) == repr(oracle(*spec)), spec
        assert repr(o) == repr(oracle_contrast(InterferometerSpec(*spec))), spec


def test_independent_env_zero_when_no_undelayed_branch():
    # equal-delay crystal sandwich leaves a single Kraus operator at delay d,
    # with no undelayed branch; the shared environment sees matching bins and
    # full interference
    arm = [Crystal(0.0, 75.0), Crystal(np.pi / 2, 75.0)]
    assert compose_one(arm)[0].tolist() == [75.0]
    assert abs(contrast(arm, arm)) == pytest.approx(1.0)


def test_independent_matches_shared_for_unitary_arms():
    # unitary arms have one Kraus operator each, U and V: C = Tr[U^dag V rho]
    rng = np.random.default_rng(61)
    for _ in range(20):
        angle, u, v = rng.uniform(0, np.pi), random_unitary(rng), random_unitary(rng)
        upper = [Waveplate(angle), RawUnitary(u)]
        lower = [RawUnitary(v)]
        rho = random_density(rng)
        c_shared = contrast(upper, lower, rho)
        written_out = np.trace((u @ half_waveplate(angle)).conj().T @ v @ rho)
        assert c_shared == pytest.approx(written_out, abs=1e-12)


def test_output_probability_values():
    assert output_probability(1.0 + 0j, 0.0) == pytest.approx(1.0)
    assert output_probability(1.0 + 0j, np.pi) == pytest.approx(0.0)
    assert output_probability(0.5 + 0j, 0.0) == pytest.approx(0.75)


def test_output_probability_rejects_unphysical_contrast():
    with pytest.raises(RuntimeError):
        output_probability(2.0 + 0j, 0.0)


def test_output_probability_clamps_roundoff():
    c = 1.0 + 4e-13  # just over unit magnitude, within clamp range
    assert output_probability(c + 0j, 0.0) == 1.0


def test_output_probability_array_equals_scalar_calls():
    c = contrast(*standard_pair("a", 0.37))
    phis = np.random.default_rng(107).uniform(-10.0, 10.0, 1024)
    p = output_probability(c, phis)
    assert isinstance(p, np.ndarray) and p.shape == (1024,)
    assert p.tolist() == [output_probability(c, phi) for phi in phis]
    assert isinstance(output_probability(c, phis[0]), float)


def test_output_probability_array_rejects_one_bad_point():
    c = 1.5 + 0j
    assert output_probability(c, [np.pi / 2, -np.pi / 2]).tolist() == \
        pytest.approx([0.5, 0.5])
    with pytest.raises(RuntimeError, match="outside"):
        output_probability(c, [np.pi / 2, 0.0, -np.pi / 2])


def test_output_probability_clamps_roundoff_in_arrays():
    c = 1.0 + 4e-13
    p = output_probability(c + 0j, [0.0, np.pi, np.pi / 2])
    assert p[0] == 1.0 and p[1] == 0.0 and p[2] == pytest.approx(0.5)


@pytest.mark.parametrize("c, phi, cause", [
    (complex("nan"), 0.0, "or the phase is not finite"),
    (0.5, float("nan"), "or the phase is not finite"),
    (complex("nan"), [0.0, 1.0], "or the phase is not finite"),
    (0.5, [0.0, float("nan"), 1.0], "or the phase is not finite"),
    (2.0 + 0j, 0.0, "exceeds unit magnitude"),
])
def test_output_probability_rejects_nan_and_names_the_cause(c, phi, cause):
    with pytest.raises(RuntimeError, match=f"outside \\[0, 1\\]: contrast .* {cause}$"):
        output_probability(c, phi)


def test_oracle_of_an_empty_stack_is_empty():
    assert oracle_contrasts(*pair_table([], []), maximally_mixed(2)).shape == (0,)


def test_oracle_empty_arms():
    assert oracle_ports([], [], MIXED, [0.0])[0, 0] == pytest.approx(1.0)


def test_oracle_first_config_extrema():
    upper, lower = standard_pair("a", np.pi / 4)
    probs = oracle_ports(upper, lower, MIXED, np.linspace(0, 2 * np.pi, 64, endpoint=False))[0]
    assert max(probs) - min(probs) == pytest.approx(0.5, abs=1e-9)


def test_oracle_ports_sum_to_one():
    rng = np.random.default_rng(67)
    for _ in range(20):
        spec = random_pair(rng)
        p0, p1 = oracle_ports(*spec, [rng.uniform(0, 2 * np.pi)])[:, 0]
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_oracle_matches_kraus_pair_contrast():
    rng = np.random.default_rng(71)
    for _ in range(40):
        spec = random_pair(rng)
        c = contrast(*spec)
        assert abs(c - oracle(*spec)) < 1e-9


def test_oracle_fringe_matches_closed_probability():
    rng = np.random.default_rng(73)
    for _ in range(10):
        spec = random_pair(rng)
        c = contrast(*spec)
        phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        np.testing.assert_allclose(oracle_ports(*spec, phis)[0], output_probability(c, phis),
                                   rtol=0, atol=1e-9)


def test_fringe_extrema_at_contrast_phase():
    rng = np.random.default_rng(79)
    for _ in range(10):
        c = contrast(*random_pair(rng))
        p_max = output_probability(c, -np.angle(c))
        p_min = output_probability(c, -np.angle(c) + np.pi)
        assert p_max - p_min == pytest.approx(abs(c), abs=1e-9)
        grid = max(output_probability(c, phi)
                   for phi in np.linspace(0, 2 * np.pi, 101))
        assert p_max >= grid - 1e-12


def test_phase_covariance_of_lower_arm():
    rng = np.random.default_rng(83)
    upper = random_arm(rng)
    lower = random_arm(rng)
    rho = random_density(rng)
    base = contrast(upper, lower, rho)
    for theta in np.linspace(0, 2 * np.pi, 10, endpoint=False):
        shifted = list(lower) + [RawUnitary(np.exp(1j * theta) * I2)]
        c = contrast(upper, shifted, rho)
        assert c == pytest.approx(np.exp(1j * theta) * base, abs=1e-12)
        assert abs(c) == pytest.approx(abs(base), abs=1e-12)


def test_arm_swap_conjugates_contrast():
    rng = np.random.default_rng(89)
    for _ in range(10):
        upper, lower, rho = random_pair(rng)
        c = contrast(upper, lower, rho)
        g = contrast(lower, upper, rho)
        assert g == pytest.approx(np.conj(c), abs=1e-12)
        assert abs(g) == pytest.approx(abs(c), abs=1e-12)


def test_identical_arms_full_visibility():
    rng = np.random.default_rng(97)
    for _ in range(10):
        arm = random_arm(rng)
        c = contrast(arm, arm, random_density(rng))
        assert c == pytest.approx(1.0, abs=1e-12)


def test_oracle_of_deep_arms_stays_small():
    # ten crystals at 150 * 2^k um per arm: 1024 bins, read out through the
    # 2x2 path Gram matrix without a per-phase port array
    delays = [150.0 * 2 ** k for k in range(10)]
    upper = [Crystal(0.1 * k, d) for k, d in enumerate(delays)]
    lower = [Crystal(0.1 * k + 0.8, d) for k, d in enumerate(delays)]
    tracemalloc.start()
    try:
        c = oracle(upper, lower)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert abs(c - contrast(upper, lower)) < 1e-9


def test_oracle_resource_limit():
    arm = [Crystal(0.3 + 0.25 * i, float(2 ** i)) for i in range(11)]
    with pytest.raises(ResourceLimitError, match="resource"):
        oracle(arm, [])


def test_oracle_incommensurate_delays_hit_resource_limit():
    # 1 um against 1.000001 um: a unit of 1 pm and a grid of 1,000,002 bins
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="1000002 bins at 1 pm"):
            oracle([Crystal(0.3, 1.0)], [Crystal(0.7, 1.000001)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_at_dimension_limit():
    # ten crystals at 150 * 2^k um per arm fill exactly 1024 bins of 150 um
    rng = np.random.default_rng(103)
    delays = rng.permutation([150.0 * 2 ** k for k in range(10)])
    angles = rng.uniform(0, np.pi, 10)
    upper = [Crystal(a, d) for a, d in zip(angles, delays)]
    lower = [Crystal(a + 0.8, d) for a, d in zip(angles, delays)]
    # every difference from -1023 to 1023 bins occurs, so N is the full n
    assert _frequencies(pm_delays(upper), pm_delays(lower)) == (150_000_000, 1024)  # 150 um
    assert 4 * 1024 == ORACLE_DIM_LIMIT
    # the gcd of 150, 75 and 310 um is 5 um; the differences 15, 30, 32, 47,
    # 62 and 77 units rule out N = 1 to 8
    assert _frequencies([150_000_000], [75_000_000, 310_000_000]) == (5_000_000, 9)
    c = contrast(upper, lower)
    assert abs(c) > 0.1
    assert abs(c - oracle(upper, lower)) < 1e-9


def test_dilation_empty_arm():
    t, kraus, bins = arm_transfer([])
    assert bins == [0.0]
    np.testing.assert_allclose(t, [I2])
    np.testing.assert_allclose(kraus, [I2])


def test_dilation_single_crystal_blocks():
    t, kraus, bins = arm_transfer([Crystal(0.0, 310.0)])
    assert bins == [0.0, 310.0]
    np.testing.assert_allclose(t, [I2, np.diag([1.0, -1.0])], atol=1e-15)
    np.testing.assert_allclose(kraus[0], np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(kraus[1], np.diag([0.0, 1.0]), atol=1e-14)


def test_dilation_reproduces_composed_kraus():
    # the grid can hold bins the arm cannot reach; their operators are zero
    rng = np.random.default_rng(53)
    for _ in range(30):
        arm = random_arm(rng, max_elements=3)
        delays, ops = compose_one(arm)
        kraus = dict(zip(delays.tolist(), ops))
        t, at_bins, bins = arm_transfer(arm)
        np.testing.assert_allclose(t.conj().swapaxes(1, 2) @ t, [I2] * len(t), atol=1e-12)
        for delay, op in zip(bins, at_bins):
            np.testing.assert_allclose(op, kraus.pop(delay, np.zeros((2, 2))), atol=1e-12)
        assert not kraus, f"composed delays {list(kraus)} missing from the grid"


def test_stacked_evolution_equals_single_arm_evolutions():
    # angles and unitaries differ across the stack; the first five arms share
    # kinds and delays, the last five differ in kinds, delays and length
    rng = np.random.default_rng(113)
    arms = [[Crystal(rng.uniform(0, np.pi), 150.0), Waveplate(rng.uniform(0, np.pi)),
             RawUnitary(random_unitary(rng)), Crystal(rng.uniform(0, np.pi), 310.0)]
            for _ in range(5)]
    arms += [[], [Waveplate(0.3)], [Crystal(0.2, 310.0), Crystal(0.9, 150.0)],
             [RawUnitary(random_unitary(rng)), Crystal(0.4, 310.0), Waveplate(1.1)],
             [Crystal(1.3, 150.0), Crystal(0.1, 150.0), Crystal(0.6, 150.0), Waveplate(0.5)]]
    # a unit of 10 um, and N = 47, the full grid of the 460 um arms
    unit, count = 10_000_000, 47
    stacked = transfer(arms, unit, count)
    # in blocks of three from arm 2 on, as the oracle evolves large groups
    blocks = np.concatenate([transfer(arms[2 + start:5 + start], unit, count)
                             for start in range(0, 8, 3)])
    for i, arm in enumerate(arms):
        single = transfer([arm], unit, count)[0]
        assert stacked[i].tobytes() == single.tobytes(), arm
        if i >= 2:
            assert blocks[i - 2].tobytes() == single.tobytes(), arm


def test_oracle_element_matrices_equal_the_constructors():
    # the oracle writes its matrices out; composition calls the constructors
    crystals = _stacked_ops(arm_table([[Crystal(t, 150.0) for t in ANGLES]]))
    plates = _stacked_ops(arm_table([[Waveplate(t) for t in ANGLES]]))
    projectors = [np.outer(ket, ket.conj()) for ket in rotated_basis(ANGLES)[1].T]
    np.testing.assert_allclose(crystals, projectors, rtol=0, atol=1e-15)
    np.testing.assert_allclose(plates, half_waveplate(ANGLES).transpose(2, 0, 1),
                               rtol=0, atol=1e-15)


def test_spec_validates_input_state():
    with pytest.raises(ValueError):
        oracle_contrast(InterferometerSpec([], [], np.diag([0.7, 0.7])))


BAD_STATES = [
    (np.diag([0.7, 0.7]), r"rho trace is \(1\.4"),
    (np.array([np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]]]), r"rho\[1\] is not Hermitian"),
    (np.eye(3) / 3, r"input states must be 2x2, got shape \(3, 3\)"),
]


@pytest.mark.parametrize("routine", [shared_env_contrasts, oracle_contrasts])
@pytest.mark.parametrize("rho, message", BAD_STATES, ids=["trace", "hermitian", "3x3"])
def test_batch_routines_validate_the_input_states(routine, rho, message):
    pairs = len(rho) if rho.ndim == 3 else 1
    with pytest.raises(ValueError, match=message):
        routine(*pair_table([[Crystal(0.3, 150.0)]] * pairs, [[]] * pairs), rho)


# The bytes of oracle-check's contrasts and oracle values for 1,000 seeded
# specs, of the columns of sweeps a and d at 200 betas, and of the blindness
# columns at 100, written to stdout.
KERNEL_CHILD = """
import sys
import numpy as np
from mzfringe import (blindness_demo, default_beta_grid, oracle_contrasts,
                      shared_env_contrasts, sweep)
from mzfringe.experiments import random_specs
table, rho = random_specs(1, 1000)
pairs = table, range(0, 2000, 2), range(1, 2000, 2)
out = [np.array(shared_env_contrasts(*pairs, rho)), oracle_contrasts(*pairs, rho)]
out += [*sweep("a", default_beta_grid(200)), *sweep("d", default_beta_grid(200))]
out += blindness_demo(default_beta_grid(100))
sys.stdout.buffer.write(b"".join(column.tobytes() for column in out))
"""


def test_oracle_bits_follow_no_blas_kernel():
    # nor do the contrasts, the random specs, the sweeps or the blindness table
    config = getattr(np.__config__, "CONFIG", None) or vars(np.__config__)
    if "openblas" not in repr(config).lower():
        pytest.skip("numpy is not built on OpenBLAS, whose kernel OPENBLAS_CORETYPE picks")
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for kernel in ("Haswell", "Prescott"):
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        outputs.append(subprocess.run([sys.executable, "-c", KERNEL_CHILD], env=env,
                                      capture_output=True, check=True, timeout=120).stdout)
    assert len(outputs[0]) == 2 * 16 * 1000 + 2 * 4 * 8 * 200 + 6 * 8 * 100
    assert outputs[0] == outputs[1]
