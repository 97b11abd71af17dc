import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (channel_one, compose_one, matmul2, random_arm, random_unitary,
                      standard_stacks, table_arms, validate_cptp)
from mzfringe import (
    Crystal,
    RawUnitary,
    Waveplate,
    arm_channel_apply,
    arm_table,
    compose_arms,
    half_waveplate,
    maximally_mixed,
    rotated_basis,
)
from mzfringe.arms import (
    COMPOSE_BIN_LIMIT,
    CRYSTAL,
    PM_PER_UM,
    UNITARY,
    WAVEPLATE,
    ZERO_OP_TOL,
    ResourceLimitError,
    element_table,
)
from mzfringe.experiments import default_beta_grid
from mzfringe.tomography import PROBE_STATES

I2 = np.eye(2, dtype=complex)


def projector(ket):
    return np.outer(ket, ket.conj())


def test_crystal_kraus_axis_aligned():
    delays, ops = compose_one([Crystal(0.0, 310.0)])
    assert delays.tolist() == [0.0, 310.0]
    np.testing.assert_allclose(ops[0], np.diag([1.0, 0.0]))
    np.testing.assert_allclose(ops[1], np.diag([0.0, 1.0]))


def test_crystal_kraus_diagonal_basis():
    _, ops = compose_one([Crystal(np.pi / 4, 12.0)])
    d = np.array([1.0, 1.0]) / np.sqrt(2)
    a = np.array([-1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(ops[0], projector(d), atol=1e-15)
    np.testing.assert_allclose(ops[1], projector(a), atol=1e-15)


def test_crystal_kraus_complete():
    _, ops = compose_one([Crystal(0.83, 75.0)])
    assert validate_cptp(ops).passed


def test_crystal_rejects_negative_delay():
    with pytest.raises(ValueError):
        Crystal(0.1, -5.0)


@pytest.mark.parametrize("delay", [0.1, 1e-6])
def test_crystal_accepts_a_whole_number_of_picometres(delay):
    assert Crystal(0.0, delay).delay == delay


@pytest.mark.parametrize("delay", [0.1 * 3, 2.75e-9, math.sqrt(2)])
def test_crystal_refuses_a_delay_off_the_picometre_grid(delay):
    # 0.1 * 3 is 0.30000000000000004 um, which no whole picometre rounds to
    with pytest.raises(ValueError, match="not in whole picometres"):
        Crystal(0.0, delay)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_arm_elements_refuse_a_non_finite_angle(angle):
    with pytest.raises(ValueError, match="crystal axis_angle must be finite"):
        Crystal(angle, 150.0)
    with pytest.raises(ValueError, match="waveplate axis_angle must be finite"):
        Waveplate(angle)


@pytest.mark.parametrize("matrix, message", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "NaN or Inf"),
    (np.array([[1.0, 0.0], [0.0, np.inf]]), "NaN or Inf"),
    (np.array([[1.0, 0.0], [0.0, -np.inf]]), "NaN or Inf"),
    (np.eye(3), r"must be 2x2, got shape \(3, 3\)"),
    (np.array([1.0, 0.0, 0.0, 1.0]), r"got shape \(4,\)"),
])
def test_raw_unitary_names_a_bad_shape_or_a_non_finite_entry(matrix, message):
    with pytest.raises(ValueError, match=message):
        RawUnitary(matrix)


def test_raw_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        RawUnitary(np.array([[1.0, 0.0], [0.0, 0.5]]))
    # finite entries whose products overflow: M^dag M has an inf - inf entry
    with pytest.raises(ValueError, match="not unitary"):
        RawUnitary(np.array([[1e200 + 1e200j, 0.0], [0.0, 1.0]]))


NO_UNITARY = np.zeros((0, 2, 2))


@pytest.mark.parametrize("element, message", [
    pytest.param(lambda: Crystal(np.nan, 150.0), "crystal axis_angle must be finite, got nan",
                 id="crystal-angle-nan"),
    pytest.param(lambda: Crystal(-np.inf, 150.0), "crystal axis_angle must be finite, got -inf",
                 id="crystal-angle-inf"),
    pytest.param(lambda: Waveplate(np.inf), "waveplate axis_angle must be finite, got inf",
                 id="waveplate-angle-inf"),
    pytest.param(lambda: Crystal(0.1, -5.0),
                 "crystal delay must be >= 0 and finite in pm, got -5.0", id="negative-delay"),
    pytest.param(lambda: Crystal(0.1, np.nan),
                 "crystal delay must be >= 0 and finite in pm, got nan", id="nan-delay"),
    pytest.param(lambda: Crystal(0.3, 1e308),
                 "crystal delay must be >= 0 and finite in pm, got 1e+308",
                 id="delay-past-the-largest-float-in-pm"),
    pytest.param(lambda: Crystal(0.0, 0.1 * 3),
                 "crystal delay 0.30000000000000004 um is not in whole picometres",
                 id="delay-off-the-picometre-grid"),
    pytest.param(lambda: RawUnitary(np.eye(3)), "RawUnitary must be 2x2, got shape (3, 3)",
                 id="unitary-3x3"),
    pytest.param(lambda: RawUnitary(np.array([[np.nan, 0.0], [0.0, 1.0]])),
                 "RawUnitary contains NaN or Inf entries", id="unitary-nan"),
    pytest.param(lambda: RawUnitary(np.diag([1.0, 0.5])),
                 "RawUnitary is not unitary (residual 7.500e-01)", id="not-unitary"),
    pytest.param(lambda: RawUnitary(np.array([[1e200 + 1e200j, 0.0], [0.0, 1.0]])),
                 "RawUnitary is not unitary (residual inf)", id="unitary-overflow"),
])
@pytest.mark.filterwarnings("error")
def test_a_table_refuses_each_element_the_constructors_refuse_alike(element, message):
    # an element is checked once, by its constructor: the table of element
    # lists that would hold it, between two valid arms, is refused with its message
    with pytest.raises(ValueError) as refused:
        arm_table([[Crystal(0.3, 150.0)], [element()], []])
    assert str(refused.value) == message


def test_a_table_names_its_first_bad_element_and_its_first_arm_past_2_52_pm():
    # the table checks only each arm's crystal delays in all: arms 2 and 3
    # reach 2**52 pm, and the first of them is named
    half = 2**51 / PM_PER_UM
    with pytest.raises(ResourceLimitError, match="arm 2's crystal delays reach 2\\*\\*52 pm"):
        element_table([1, 0, 2, 2], [CRYSTAL] * 5, [0.1] * 5, [half] * 5, NO_UNITARY)
    # a unitary's angle and a non-crystal's delay are not read, and stored as 0
    table = element_table([2], [WAVEPLATE, UNITARY], [0.4, np.nan], [np.nan, 5.0], [np.eye(2)])
    assert table.angle.tolist() == [0.4, 0.0] and table.delay.tolist() == [0, 0]


def test_arm_table_round_trips_the_element_lists():
    rng = np.random.default_rng(19)
    arms = [random_arm(rng, max_elements=5) for _ in range(300)] + [[], []]
    table = arm_table(arms)
    assert table.arms == len(arms) and table.arm.tolist() == sorted(table.arm.tolist())
    assert table.delay.dtype == np.int64 and table.kind.dtype == np.int8
    def spelled(arms):
        return [[(type(e), getattr(e, "axis_angle", None), getattr(e, "delay", None),
                  e.matrix.tobytes() if type(e) is RawUnitary else None) for e in arm]
                for arm in arms]

    assert spelled(table_arms(table)) == spelled(arms)
    with pytest.raises(ValueError, match="unknown arm element 'hwp'"):
        arm_table([[Waveplate(0.1)], ["hwp"]])


def test_raw_unitary_holds_a_read_only_copy():
    m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u = RawUnitary(m)
    m[0, 0] = 5.0
    np.testing.assert_array_equal(u.matrix, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="read-only"):
        u.matrix[0, 0] = 5.0


def test_compose_empty_arm():
    delays, ops = compose_one([])
    assert len(ops) == 1 and delays[0] == 0.0
    np.testing.assert_allclose(ops[0], I2)


def test_compose_two_crystal_arm():
    """Two crystals produce the four overlap-weighted transition operators."""
    beta = 0.7
    delays, ops = compose_one([Crystal(0.0, 310.0), Crystal(beta, 150.0)])
    assert delays.tolist() == [0.0, 150.0, 310.0, 460.0]
    a = rotated_basis(beta)
    b = rotated_basis(0.0)
    # delay = 150 * (a branch is e) + 310 * (b branch is e)
    expected = {
        0.0: (0, 0), 150.0: (1, 0), 310.0: (0, 1), 460.0: (1, 1),
    }
    for delay, op in zip(delays.tolist(), ops):
        i, j = expected[delay]
        np.testing.assert_allclose(op, np.vdot(a[i], b[j]) * np.outer(a[i], b[j].conj()),
                                   atol=1e-14)


def test_compose_aligned_crystals_drop_cross_terms():
    delays, ops = compose_one([Crystal(0.0, 150.0), Crystal(0.0, 310.0)])
    assert delays.tolist() == [0.0, 460.0]
    np.testing.assert_allclose(ops[0], np.diag([1.0, 0.0]))
    np.testing.assert_allclose(ops[1], np.diag([0.0, 1.0]))


def test_validate_cptp_takes_the_stack_compose_arm_returns():
    _, ops = compose_one([Crystal(0.0, 150.0), Crystal(0.0, 310.0)])
    assert ops.shape == (2, 2, 2)
    check = validate_cptp(ops)
    assert check.passed and check.residual == 0.0


def test_compose_zero_delay_crystal_merges_to_identity():
    _, ops = compose_one([Crystal(0.37, 0.0)])
    assert len(ops) == 1
    np.testing.assert_allclose(ops[0], I2, atol=1e-14)


def test_compose_all_zero_delays_is_jones_product():
    rng = np.random.default_rng(31)
    u = random_unitary(rng)
    _, ops = compose_one([Crystal(0.4, 0.0), Waveplate(0.9), RawUnitary(u)])
    assert len(ops) == 1
    np.testing.assert_allclose(ops[0], u @ half_waveplate(0.9), atol=1e-14)


def test_compose_equal_delay_crystals_merge_coherently():
    # both e-branches land in the same bin; o/e cross products survive as a sum
    theta = 0.6
    delays, ops = compose_one([Crystal(0.0, 75.0), Crystal(theta, 75.0)])
    assert delays.tolist() == [0.0, 75.0, 150.0]
    a = rotated_basis(theta)
    ket_h, ket_v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    merged = (np.vdot(a[0], ket_v) * np.outer(a[0], ket_v.conj())
              + np.vdot(a[1], ket_h) * np.outer(a[1], ket_h.conj()))
    match = ops[delays == 75.0][0]
    np.testing.assert_allclose(match, merged, atol=1e-14)


def test_compose_random_arms_trace_preserving():
    rng = np.random.default_rng(37)
    for _ in range(200):
        arm = random_arm(rng, max_elements=4)
        check = validate_cptp(compose_one(arm)[1])
        assert check.passed, check


def test_compose_merges_equal_delays_after_each_element():
    # 2^16 branches land in 17 bins; merging per element never holds them all
    angles = np.random.default_rng(59).uniform(0, np.pi, 16)
    arm = [Crystal(a, 150.0) for a in angles]
    tracemalloc.start()
    try:
        delays, ops = compose_one(arm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delays.tolist() == [150.0 * k for k in range(17)]
    assert validate_cptp(ops).passed
    assert peak < 1 << 20


def test_kraus_count_bounded_by_crystal_count():
    rng = np.random.default_rng(41)
    for _ in range(50):
        arm = random_arm(rng, max_elements=4)
        n_crystals = sum(isinstance(e, Crystal) for e in arm)
        assert len(compose_one(arm)[1]) <= 2 ** n_crystals


def test_channel_preserves_maximally_mixed():
    rng = np.random.default_rng(43)
    for _ in range(50):
        arm = random_arm(rng, max_elements=4)
        out = channel_one(arm, maximally_mixed(2))
        np.testing.assert_allclose(out, I2 / 2, atol=1e-12)


def test_channel_unital_with_compensating_delays():
    # two equal-delay crystals after a third: merged bins mix branches from
    # different elements, and the aggregate still maps I/2 to I/2
    arm = [Crystal(0.0, 150.0), Crystal(0.7, 75.0), Crystal(1.1, 75.0)]
    out = channel_one(arm, maximally_mixed(2))
    np.testing.assert_allclose(out, I2 / 2, atol=1e-12)


def test_channel_dephases_diagonal_input():
    d = np.array([1.0, 1.0]) / np.sqrt(2)
    out = channel_one([Crystal(0.0, 310.0)], projector(d))
    np.testing.assert_allclose(out, I2 / 2, atol=1e-14)


def test_channel_identity_on_empty_arm():
    rng = np.random.default_rng(47)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    np.testing.assert_allclose(channel_one([], rho), rho)


@pytest.mark.parametrize("kraus, got", [
    ([Crystal(0.3, 150.0)], r"shape \(1,\)"),    # the element list it once took
    ([], r"shape \(0,\)"),                       # an empty element list
    (I2, r"shape \(2, 2\)"),                     # a bare 2x2 matrix
    (compose_one([]), r"shape \(2,\)"),          # one arm's (delays, ops)
])
def test_channel_names_the_operator_stack_it_takes(kraus, got):
    with pytest.raises(ValueError, match=r"Kraus table \(owner, delays, ops\) of compose_arms, "
                                         r"ops of shape \(k, 2, 2\), got " + got):
        arm_channel_apply(kraus, maximally_mixed(2))


def test_channel_of_an_empty_arm_stack_is_an_empty_stack():
    assert arm_channel_apply(compose_arms(arm_table([])), PROBE_STATES).shape == (0, 4, 2, 2)


def assert_refused_at_once(arms):
    """compose_arms of the table of ``arms`` raises ResourceLimitError within
    0.5 s and 4 MiB of traced memory."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError, match="resource limit"):
            compose_arms(arm_table(arms))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 4 << 20


def test_compose_refuses_arms_past_the_bin_limit_at_once():
    # 40 crystals at 150 * 2^k pm reach 2^40 distinct delays, their sum well
    # below the 2^52 pm limit; the check stops at the first crystal past 2^14
    # and builds none of that crystal's operators
    assert_refused_at_once([[Crystal(0.1 * k, 150e-6 * 2 ** k) for k in range(40)]])
    assert COMPOSE_BIN_LIMIT == 2 ** 14


def test_compose_refuses_an_arm_past_the_bin_limit_among_small_arms_at_once():
    # the same arm after 1,000 arms of up to 4 elements, in one call: each
    # crystal's delays are checked before that crystal's operators are built
    rng = np.random.default_rng(43)
    arms = [random_arm(rng, max_elements=4) for _ in range(1000)]
    assert_refused_at_once([*arms, [Crystal(0.1 * k, 150e-6 * 2 ** k) for k in range(40)]])


@pytest.mark.filterwarnings("error")
def test_compose_refuses_crystal_delays_past_the_largest_float():
    # past 2**52 pm, micrometre delays no longer tell whole picometres apart;
    # the walk refuses an arm whose crystal delays reach it, in one crystal
    # or in a sum, before any delay is composed; 1e308 um is inf pm
    half = 2**51 / PM_PER_UM
    for arm in ([Crystal(0.3, half), Crystal(0.2, half)], [Crystal(0.3, 2**52 / PM_PER_UM)]):
        with pytest.raises(ResourceLimitError, match=r"arm 1's crystal delays reach 2\*\*52 pm"):
            compose_arms(arm_table([[Crystal(0.1, 150.0)], arm]))
    with pytest.raises(ValueError, match="finite in pm"):
        Crystal(0.3, 1e308)
    # a sum 1 pm below the limit composes, every delay exact
    below = (2**51 - 1) / PM_PER_UM
    delays, ops = compose_one([Crystal(0.3, half), Crystal(0.2, below)])
    assert delays.tolist() == [0.0, below, half, (2**52 - 1) / PM_PER_UM]
    assert validate_cptp(ops).passed


def test_bin_limit_counts_merged_delays():
    # 2^14 distinct delays compose; one more doubling does not. Nonzero angles
    # keep every branch: aligned crystals leave only 2 nonzero operators.
    assert len(compose_one([Crystal(0.1 * k, 150.0 * 2 ** k) for k in range(14)])[1]) == 2 ** 14
    assert len(compose_one([Crystal(0.0, 150.0 * 2 ** k) for k in range(14)])[1]) == 2
    with pytest.raises(ResourceLimitError, match="resource limit"):
        compose_one([Crystal(0.1 * k, 150.0 * 2 ** k) for k in range(15)])
    # equal sums merge: 40 equal delays reach 41 bins, not 2^40
    arm = [Crystal(0.1 * k, 150.0) for k in range(40)]
    assert len(compose_one(arm)[1]) == 41


def projected(ket, op):
    """|k><k| op for a real ket, as the package writes it out on the real and
    imaginary parts: the bra <k| op, then its outer product with the ket."""
    bra = matmul2(ket[None], op.view(float))[0]
    return (ket[:, None] * bra[None, :]).view(complex)


def reference_compose(arm):
    """Per-branch composition: one (delay, op) tuple per branch, delays in
    whole picometres, merged after each element into the group of its equal
    delay, summed in sorted order, zero operators dropped last; delays are
    returned in micrometres."""
    kraus = [(0, np.eye(2, dtype=complex))]
    for elem in arm:
        if isinstance(elem, Crystal):
            ket_o, ket_e = rotated_basis(elem.axis_angle).real
            elem_ops = [(0, lambda op, ket=ket_o: projected(ket, op)),
                        (round(elem.delay * PM_PER_UM), lambda op, ket=ket_e: projected(ket, op))]
        else:
            u = half_waveplate(elem.axis_angle) if isinstance(elem, Waveplate) else elem.matrix
            elem_ops = [(0, lambda op, u=u: matmul2(u, op))]
        branches = sorted(((d_k + d_e, apply(op_k))
                           for d_e, apply in elem_ops
                           for d_k, op_k in kraus), key=lambda t: t[0])
        kraus = []
        for d, op in branches:
            if kraus and d == kraus[-1][0]:
                kraus[-1] = (d, kraus[-1][1] + op)
            else:
                kraus.append((d, op))
    return [(d / PM_PER_UM, op) for d, op in kraus if float(np.max(np.abs(op))) >= ZERO_OP_TOL]


def test_compose_matches_the_per_branch_rule_bit_for_bit():
    rng = np.random.default_rng(61)
    arms = [random_arm(rng, max_elements=4) for _ in range(1000)]
    arms.append([Crystal(a, 310.0) for a in rng.uniform(0, np.pi, 15)])
    arms.append([Crystal(a, 150.0 * 2 ** k)
                 for a, k in zip(rng.uniform(0, np.pi, 10), rng.permutation(10))])
    arms += [[], [Waveplate(0.4)], [Crystal(0.0, 150.0), Crystal(0.0, 310.0)]]
    # delays 1 pm apart keep their bins apart, and 0.1 + 0.2 merges with 0.3,
    # exact in picometres where float64 sums of micrometres differ
    chain = [Crystal(0.3, 150.0), Crystal(0.7, 150.000002), Crystal(1.1, 150.000001)]
    assert compose_one(chain)[0].tolist() == [
        0.0, 150.0, 150.000001, 150.000002, 300.000001, 300.000002, 300.000003, 450.000003]
    decimals = [Crystal(0.3, 0.1), Crystal(0.7, 0.2), Crystal(1.1, 0.3)]
    assert compose_one(decimals)[0].tolist() == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    arms += [chain, decimals]
    for arm in arms:
        (delays, ops), want = compose_one(arm), reference_compose(arm)
        assert delays.tolist() == [d for d, _ in want], arm
        assert [op.tobytes() for op in ops] == [op.tobytes() for _, op in want], arm


def assert_rows_are_each_arms_own(arms):
    """``compose_arms`` of the table of ``arms`` in one call: arm after arm,
    each arm's rows are those it has alone, bit for bit, and no kept operator
    lies below ZERO_OP_TOL."""
    owner, delays, ops = compose_arms(arm_table(arms))
    assert owner.tolist() == sorted(owner.tolist())
    assert (np.abs(ops).max(axis=(1, 2)) >= ZERO_OP_TOL).all()
    for i, arm in enumerate(arms):
        want_delays, want_ops = compose_one(arm)
        assert delays[owner == i].tobytes() == want_delays.tobytes(), arm
        assert ops[owner == i].tobytes() == want_ops.tobytes(), arm


@pytest.mark.parametrize("lower", [
    pytest.param([Crystal(0.2, 150.0)], id="crystal-count"),
    pytest.param([Waveplate(0.2), Crystal(0.3, 310.0)], id="crystal-count-after-a-waveplate"),
    pytest.param([Crystal(0.2, 150.0), Crystal(0.3, 150.0)], id="delay-of-crystal-1"),
])
def test_arms_of_other_crystal_delays_compose_in_one_call(lower):
    # the two copies of arm share a stack that lower is not in
    arm = [Crystal(0.1, 150.0), Crystal(0.4, 310.0)]
    assert_rows_are_each_arms_own([arm, lower, arm])


def test_stacked_arms_may_differ_in_their_other_elements():
    # one crystal-delay sequence (150, 310); waveplates and raw unitaries
    # differ in number, kind and place, before, between and after the crystals
    rng = np.random.default_rng(71)
    u = RawUnitary(random_unitary(rng))
    arms = [
        [Crystal(0.1, 150.0), Crystal(0.4, 310.0)],
        [Waveplate(0.3), Crystal(0.2, 150.0), u, Waveplate(0.9), Crystal(0.5, 310.0)],
        [u, Crystal(0.0, 150.0), Crystal(0.0, 310.0), Waveplate(1.2)],
        [Crystal(0.7, 150.0), Waveplate(0.6), Crystal(1.1, 310.0), u, u],
        [Waveplate(0.3), Waveplate(0.8), u, Crystal(0.2, 150.0), Crystal(np.pi / 2, 310.0)],
    ]
    assert_rows_are_each_arms_own(arms)


def test_each_arm_drops_its_own_vanished_operators():
    # crossed crystals keep only their 150 um operator, while arms of the
    # same crystal delays keep all three
    crossed = [Crystal(0.0, 150.0), Crystal(np.pi / 2, 150.0)]
    others = [[Crystal(0.3, 150.0), Crystal(1.1, 150.0)],
              [Waveplate(0.4), Crystal(0.2, 150.0), Crystal(0.9, 150.0)]]
    assert compose_one(crossed)[0].tolist() == [150.0]
    assert [compose_one(arm)[0].tolist() for arm in others] == [[0.0, 150.0, 300.0]] * 2
    assert_rows_are_each_arms_own([others[0], crossed, others[1]])


def stacks_under_test():
    """The arm stacks that sweep and blindness_demo compose: both arms of the
    four variants over 200 betas; upper a, and upper c with the shared lower
    arm, over 100 betas, and each of those arms alone. Both grids start at
    beta = 0, where aligned crystals make some operators vanish in one arm of
    a stack and not in the others."""
    for variant in "abcd":
        yield from standard_stacks(variant, default_beta_grid(200))
    uppers_a, lowers = standard_stacks("a", default_beta_grid(100))
    uppers_c = standard_stacks("c", default_beta_grid(100))[0]
    yield from (uppers_a, uppers_c, lowers, [*uppers_c, *lowers])


def test_stacked_composition_equals_per_arm_composition_bit_for_bit():
    for arms in stacks_under_test():
        assert_rows_are_each_arms_own(arms)
    # the 300 arms of blindness_demo in one call
    uppers_a, lowers = standard_stacks("a", default_beta_grid(100))
    assert_rows_are_each_arms_own([*uppers_a, *standard_stacks("c", default_beta_grid(100))[0],
                                   *lowers])
