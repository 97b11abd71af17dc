"""The one-loop composition and join, and the time-grid oracle groups,
against the routines they replaced, kept here as references.

The composition references compose a stack of arms that share their crystal
delays into delays shared by the stack and operators (arms, k, 2, 2), zero an
operator that vanishes in one arm of a stack and drop its delay only where it
vanishes in every arm; the contrast composes one stack per crystal-delay
sequence and joins the pairs of each (upper, lower) sequence at once. The
package composes any arms in one loop over crystal indices, each step merging
one crystal's delays and summing its operators, into one Kraus table, drops
each arm's own vanished operators and joins every pair at once. The oracle
references group pairs by their full structure, element kinds and crystal
delays, evolve each arm stack element by element at the N frequencies of the
pair's (unit, N), the upper and lower stacks apart and each group whole, and
read both ports of the fringe. The package groups pairs by (unit, N) alone,
evolves both arms of a pair in one stack, in blocks, and reads only the lower
port. Every kept Kraus row, contrast, oracle Gram matrix and blindness column
must keep its bits. The references form each 2x2 product with the package's
written-out arithmetic (``conftest.matmul2``, a crystal's projector as |k><k|
applied to the rows), so they check the stacking on any BLAS kernel.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mzfringe.interferometer
from conftest import matmul2, port_probabilities, random_density, random_unitary
from mzfringe import (Crystal, RawUnitary, Waveplate, blindness_demo, compose_arms,
                      default_beta_grid, maximally_mixed, oracle_contrasts, qpt, rotated_basis,
                      shared_env_contrasts, standard_arms, sweep)
from mzfringe.arms import (COMPOSE_BIN_LIMIT, PM_PER_UM, ZERO_OP_TOL, ArmSpec,
                           ResourceLimitError, _element_kraus)
from mzfringe.experiments import random_specs
from mzfringe.interferometer import (_BEAMSPLITTER, _ORACLE_PHASES, _ORACLE_PHIS, _frequencies,
                                     _input_states, _path_gram, _stacked_ops)


def crystal_delays(arm: ArmSpec) -> tuple:
    """The stack key of the composition references: the arm's crystal delays."""
    return tuple([e.delay for e in arm if type(e) is Crystal])


def structure(arm: ArmSpec) -> tuple:
    """The oracle references' key: per element, a crystal's delay or another element's kind."""
    return tuple([e.delay if type(e) is Crystal else type(e) for e in arm])


def groups(keys) -> dict:
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def stack_steps(arms):
    """The crystals of a stack by index, and its other elements by segment as
    (rows, elements) of one rank and kind in rank order."""
    crystals, others = [], {}
    for row, arm in enumerate(arms):
        passed = rank = 0
        for e in arm:
            if type(e) is Crystal:
                if passed == len(crystals):
                    crystals.append([])
                crystals[passed].append(e)
                passed, rank = passed + 1, 0
            else:
                key = (passed, rank, type(e))
                if key not in others:
                    others[key] = [], []
                others[key][0].append(row)
                others[key][1].append(e)
                rank += 1
    segments = [[] for _ in range(len(crystals) + 1)]
    for key in sorted(others, key=lambda key: key[:2]):
        segments[key[0]].append(others[key])
    return crystals, segments


def stack_compose(arms):
    """Delays (k,) and operators (arms, k, 2, 2) of a stack of one
    crystal-delay sequence, with the stack's zero rule. Delays are composed
    in whole picometres, merged where equal, and returned in micrometres."""
    assert len({crystal_delays(arm) for arm in arms}) <= 1
    crystals, segments = stack_steps(arms)
    delays, merges = np.zeros(1), []
    for elems in crystals:
        branches = np.concatenate((delays, delays + round(elems[0].delay * PM_PER_UM)))
        order = branches.argsort(kind="stable")
        branches = branches[order]
        starts = np.concatenate(([True], branches[1:] != branches[:-1])).nonzero()[0]
        delays = branches[starts]
        if len(delays) > COMPOSE_BIN_LIMIT:
            raise ResourceLimitError("COMPOSE_BIN_LIMIT")
        merges.append((order, starts))
    angles = np.array([e.axis_angle for elems in crystals for e in elems])
    kets = rotated_basis(angles).real.transpose(2, 0, 1)
    kraus = np.eye(2, dtype=complex)[None, None].repeat(len(arms), axis=0)
    for index, segment in enumerate(segments):
        if index:
            ket = kets[(index - 1) * len(arms):index * len(arms)]
            order, starts = merges[index - 1]
            # P K = |k><k|K on the real and imaginary parts, o-branches first
            bra = matmul2(ket[:, None], kraus.view(float)).transpose(0, 2, 1, 3)
            kraus = (ket[:, :, None, :, None] * bra[:, :, :, None, :]).view(complex)
            kraus = kraus.reshape(len(arms), -1, 2, 2)
            kraus = np.add.reduceat(kraus.take(order, axis=1), starts, axis=1)
        for rows, elems in segment:
            if len(rows) == len(arms):
                kraus = matmul2(_element_kraus(elems)[:, None], kraus)
            else:
                kraus[rows] = matmul2(_element_kraus(elems)[:, None], kraus[rows])
    delays = delays / PM_PER_UM
    vanish = np.maximum.reduce(np.abs(kraus), axis=(2, 3)) < ZERO_OP_TOL
    if len(arms) == 1:
        return delays.compress(~vanish[0]), kraus.compress(~vanish[0], axis=1)
    kraus[vanish] = 0.0
    keep = ~np.logical_and.reduce(vanish)
    return delays.compress(keep), kraus.compress(keep, axis=1)


def stack_join(upper, lower, rho) -> list[complex]:
    """Contrasts of the pairs of two composed stacks, row i against row i."""
    (upper_delays, upper_ops), (lower_delays, lower_ops) = upper, lower
    lo = lower_delays.searchsorted(upper_delays)
    counts = lower_delays.searchsorted(upper_delays, "right") - lo
    first = (lo - counts.cumsum() + counts).repeat(counts)
    v = lower_ops.take(first + np.arange(len(first)), axis=1)
    m = upper_ops.repeat(counts, axis=1).conj() * matmul2(v, rho[..., None, :, :])
    terms = (m[:, :, 0, 0] + m[:, :, 0, 1]) + (m[:, :, 1, 0] + m[:, :, 1, 1])
    return [sum(row, 0j) for row in terms.tolist()]


def stack_contrasts(uppers, lowers, rho) -> list[complex]:
    """The contrast with arms composed per crystal-delay sequence and joined
    per (upper, lower) sequence."""
    rho = _input_states(rho)
    arms = [*uppers, *lowers]
    keys = [crystal_delays(arm) for arm in arms]
    stacks, rows = {}, [0] * len(arms)
    for key, members in groups(keys).items():
        stacks[key] = stack_compose([arms[i] for i in members])
        for row, i in enumerate(members):
            rows[i] = row
    rho = np.broadcast_to(rho, (len(uppers), 2, 2))
    n, out = len(uppers), [0j] * len(uppers)
    for (upper, lower), pairs in groups(zip(keys[:n], keys[n:])).items():
        (upper_delays, upper_ops), (lower_delays, lower_ops) = stacks[upper], stacks[lower]
        contrasts = stack_join(
            (upper_delays, upper_ops[[rows[i] for i in pairs]]),
            (lower_delays, lower_ops[[rows[n + i] for i in pairs]]), rho[pairs])
        for i, c in zip(pairs, contrasts):
            out[i] = c
    return out


def stack_channel(kraus, rho):
    """Channels of a composed stack (arms, k, 2, 2), summed over k from 0."""
    ops = np.moveaxis(kraus, -3, 0)
    out = np.zeros(ops.shape[1:-2] + rho.shape, dtype=complex)
    ops = ops.reshape(ops.shape[:-2] + (1,) * (rho.ndim - 2) + (2, 2))
    return sum((matmul2(matmul2(op, rho), op.conj().swapaxes(-1, -2)) for op in ops), out)


def stack_blindness(betas):
    """The blindness columns from two stacks: upper a, and upper c with the
    shared lower arm."""
    (uppers_a, lowers), uppers_c = standard_arms("a", betas), standard_arms("c", betas)[0]
    upper_a, (delays, ops) = stack_compose(uppers_a), stack_compose([*uppers_c, *lowers])
    upper_c, lower = (delays, ops[:len(lowers)]), (delays, ops[len(lowers):])
    chi_a, chi_c = (qpt(lambda rho: stack_channel(arm[1], rho)) for arm in (upper_a, upper_c))
    vis_a, vis_b = ([abs(c) for c in stack_join(upper, lower, maximally_mixed(2))]
                    for upper in (upper_a, upper_c))
    d = chi_a - chi_c
    columns = (betas, np.sqrt((d.real ** 2 + d.imag ** 2).sum(axis=(1, 2))), np.zeros(len(betas)),
               vis_a, vis_b, [abs(a - b) for a, b in zip(vis_a, vis_b)])
    return tuple(np.array(column, dtype=float) for column in columns)


def structure_evolve(arms, unit, n):
    """Transfer matrices (arms, 2, 2, n) of a stack of one structure at the n
    roots of unity, element by element."""
    t = np.zeros((len(arms), 2, 2, n), dtype=complex)
    t[:, 0, 0] = t[:, 1, 1] = 1.0
    for elems in zip(*arms):
        ops = _stacked_ops(elems)
        if type(elems[0]) is Crystal:
            d = round(elems[0].delay * PM_PER_UM) // unit
            t = t + (np.exp(2j * np.pi * (np.arange(n) * d % n) / n) - 1.0) * np.einsum(
                "apq,aq...->ap...", ops, t)
        else:
            t = np.einsum("apq,aq...->ap...", ops, t)
    return t


def structure_gram(uppers, lowers, rho):
    """Oracle path Gram matrices with the pairs evolved per (upper, lower)
    structure, by Parseval over the frequencies."""
    split = _BEAMSPLITTER[:, 0]
    rho = np.broadcast_to(rho, (len(uppers), 2, 2))
    grams = np.empty((len(uppers), 2, 2), dtype=complex)
    keys = zip(map(structure, uppers), map(structure, lowers))
    for pairs in groups(keys).values():
        unit, n = _frequencies(uppers[pairs[0]], lowers[pairs[0]])
        # in C order, as the package's: einsum's rounding follows the layout
        t = np.empty((len(pairs), 2, 2, 2, n), dtype=complex)
        t[:, 0] = structure_evolve([uppers[i] for i in pairs], unit, n)
        t[:, 1] = structure_evolve([lowers[i] for i in pairs], unit, n)
        grams[pairs] = (np.einsum("ipabk,iqack,icb->ipq", t.conj(), t, rho[pairs])
                        * np.multiply.outer(split.conj(), split) / n)
    return grams


def structure_oracle(uppers, lowers, rho) -> np.ndarray:
    p0 = port_probabilities(structure_gram(uppers, lowers, _input_states(rho)),
                            _ORACLE_PHIS)[:, 0]
    return 4.0 * ((p0 * np.exp(-1j * _ORACLE_PHIS)).sum(axis=-1) / _ORACLE_PHASES)


def assert_compositions_keep_their_bits(arms):
    """Each arm's rows of the one-call table against its row of the reference
    stack of its crystal delays: the same operators at the same delays where
    the reference's do not vanish."""
    owner, delays, ops = compose_arms(arms)
    for members in groups(map(crystal_delays, arms)).values():
        want_delays, want_ops = stack_compose([arms[i] for i in members])
        for i, want in zip(members, want_ops):
            kept = np.abs(want).max(axis=(1, 2)) >= ZERO_OP_TOL
            assert delays[owner == i].tobytes() == want_delays[kept].tobytes()
            assert ops[owner == i].tobytes() == want[kept].tobytes()


def assert_contrasts_keep_their_bits(uppers, lowers, rho):
    got = shared_env_contrasts(uppers, lowers, rho)
    assert [repr(c) for c in got] == [repr(c) for c in stack_contrasts(uppers, lowers, rho)]


def assert_routines_keep_their_bits(uppers, lowers, rho):
    assert_contrasts_keep_their_bits(uppers, lowers, rho)
    states = _input_states(rho)
    assert (_path_gram(uppers, lowers, states).tobytes()
            == structure_gram(uppers, lowers, states).tobytes())
    assert (oracle_contrasts(uppers, lowers, rho).tobytes()
            == structure_oracle(uppers, lowers, rho).tobytes())


@pytest.mark.parametrize("seed", [1, 5, 19])
def test_random_spec_stack_keeps_its_bits(seed):
    # the 1,000 specs of oracle-check, checked as one stack
    uppers, lowers, rho = random_specs(seed, 1000)
    assert_compositions_keep_their_bits([*uppers, *lowers])
    assert_routines_keep_their_bits(uppers, lowers, rho)


def mixed_arms(rng, count, crystals):
    """``count`` arms of the crystal delays ``crystals``, with waveplates and
    raw unitaries of several ranks before, between and after the crystals;
    every seventh arm's first crystal lies at angle 0."""
    arms = []
    for i in range(count):
        others = [[] for _ in range(len(crystals) + 1)]
        for _ in range(int(rng.integers(0, 5))):
            element = (Waveplate(float(rng.uniform(0, np.pi))) if rng.random() < 0.5
                       else RawUnitary(random_unitary(rng)))
            others[int(rng.integers(len(others)))].append(element)
        arm = others[0]
        for k, (delay, segment) in enumerate(zip(crystals, others[1:])):
            angle = 0.0 if k == 0 and i % 7 == 0 else float(rng.uniform(0, np.pi))
            arm = [*arm, Crystal(angle, delay), *segment]
        arms.append(arm)
    return arms


def test_a_stack_of_mixed_elements_at_equal_crystal_delays_keeps_its_bits():
    # crystals at 150 and 75 um in every arm; aligned crystals at beta = 0
    # make some operators vanish in one arm and not in others
    rng = np.random.default_rng(29)
    arms = []
    for i in range(60):
        others = [[] for _ in range(3)]
        for _ in range(int(rng.integers(0, 5))):
            kind = rng.random()
            element = (Waveplate(float(rng.uniform(0, np.pi))) if kind < 0.5
                       else RawUnitary(random_unitary(rng)))
            others[int(rng.integers(3))].append(element)
        angle = 0.0 if i % 7 == 0 else float(rng.uniform(0, np.pi))
        arms.append([*others[0], Crystal(angle, 150.0), *others[1], Crystal(0.0, 75.0),
                     *others[2]])
    assert len({structure(arm) for arm in arms}) > 30
    assert len({crystal_delays(arm) for arm in arms}) == 1
    assert_compositions_keep_their_bits(arms)
    rho = np.array([maximally_mixed(2), np.diag([1.0, 0.0])] * 15)
    assert_routines_keep_their_bits(arms[:30], arms[30:], rho)


def test_a_list_mixing_crystal_delay_sequences_keeps_its_bits():
    # five crystal-delay sequences, equal delays and a chain of delays 1 pm
    # apart among them, interleaved in one list with waveplates and raw
    # unitaries; the chain's time grid is past the oracle's limit
    rng = np.random.default_rng(37)
    sequences = [(), (150.0, 310.0), (310.0, 150.0), (75.0, 75.0, 150.0),
                 (150.0, 150.000001, 150.000002)]
    arms = [arm for delays in sequences for arm in mixed_arms(rng, 24, delays)]
    arms = [arms[i] for i in rng.permutation(len(arms))]
    assert len({crystal_delays(arm) for arm in arms}) == len(sequences)
    assert_compositions_keep_their_bits(arms)
    rho = np.array([maximally_mixed(2), np.diag([0.0, 1.0]), random_density(rng)] * 20)
    assert_contrasts_keep_their_bits(arms[:60], arms[60:], rho)


@pytest.mark.parametrize("variant", "abcd")
def test_the_sweeps_keep_their_bits(variant):
    betas = default_beta_grid(200)
    uppers, lowers = standard_arms(variant, betas)
    rho = maximally_mixed(2)
    # a unit of 10 um and N = 6, where the time grid has 47 bins; no
    # difference between the arms' bins 0, 15, 31 and 46 is a multiple of 6.
    # Variant d has no crystals.
    assert {_frequencies(upper, lower) for upper, lower in zip(uppers, lowers)} == {
        (1, 1) if variant == "d" else (10_000_000, 6)}
    assert_compositions_keep_their_bits([*uppers, *lowers])
    assert_routines_keep_their_bits(uppers, lowers, rho)
    columns = sweep(variant, betas)
    assert columns[2].tobytes() == np.array(
        [abs(c) for c in stack_contrasts(uppers, lowers, rho)]).tobytes()
    assert columns[3].tobytes() == np.abs(structure_oracle(uppers, lowers, rho)).tobytes()


def test_the_blindness_arms_keep_their_bits():
    betas = default_beta_grid(100)
    (uppers_a, lowers), uppers_c = standard_arms("a", betas), standard_arms("c", betas)[0]
    assert_compositions_keep_their_bits([*uppers_a, *uppers_c, *lowers])
    got, want = blindness_demo(betas), stack_blindness(betas)
    assert [column.tobytes() for column in got] == [column.tobytes() for column in want]


def deep_arms_pairs() -> list:
    """The 48 arm pairs of the deep-arms benchmark workload, seeds 1 to 3."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [[[Crystal(angle, delay) for angle, delay in command["check"][side]]
             for side in ("upper", "lower")]
            for seed in (1, 2, 3) for command in workloads.generate("deep-arms", seed)]


def test_the_deep_arms_pairs_keep_their_bits():
    pairs = deep_arms_pairs()
    assert len(pairs) == 48
    uppers, lowers = zip(*pairs)
    assert_compositions_keep_their_bits([*uppers, *lowers])
    assert_routines_keep_their_bits(uppers, lowers, maximally_mixed(2))
    for upper, lower in pairs:
        assert_routines_keep_their_bits([upper], [lower], maximally_mixed(2))


def test_a_list_mixing_shapes_keeps_its_bits():
    # the deep-arms arms (8 to 15 crystals) interleaved with an oracle-check
    # draw (0 to 3 elements), and two adjacent arms of the only 4-crystal
    # sequence, whose equal delays sit side by side in the table's sort but
    # belong to different arms and never merge
    uppers, lowers, _ = random_specs(5, 500)
    rng = np.random.default_rng(5)
    deep = [arm for pair in deep_arms_pairs() for arm in pair]
    arms = [*uppers, *lowers]
    for i, arm in enumerate(deep):
        arms.insert(11 * i, arm)
    twins = [[Crystal(float(a), delay) for a, delay in zip(rng.uniform(0, np.pi, 4),
                                                           (150.0, 310.0, 150.0, 75.0))]
             for _ in range(2)]
    arms[500:500] = twins
    assert_compositions_keep_their_bits(arms)
    owner, delays, _ = compose_arms(arms)
    for i in (500, 501):
        assert delays[owner == i].tolist() == [0.0, 75.0, 150.0, 225.0, 300.0, 310.0, 375.0,
                                               385.0, 460.0, 535.0, 610.0, 685.0]


def test_an_oracle_on_the_full_grid_keeps_its_bits():
    # ten crystals at 150 * 2^k um per arm reach every bin of the 1,024-bin
    # grid, in permuted orders and with waveplates between them
    rng = np.random.default_rng(131)
    uppers, lowers = [], []
    for arms in (uppers, lowers):
        for _ in range(3):
            arm = []
            for delay in rng.permutation([150.0 * 2 ** k for k in range(10)]):
                arm.append(Crystal(float(rng.uniform(0, np.pi)), delay))
                if rng.random() < 0.3:
                    arm.append(Waveplate(float(rng.uniform(0, np.pi))))
            arms.append(arm)
    assert _frequencies(uppers[0], lowers[0]) == (150_000_000, 1024)
    assert_routines_keep_their_bits(uppers, lowers, random_density(rng))


def test_shifts_from_unreachable_bins_keep_their_bits():
    # on the 10 um grid of 150 and 310 um, bin 31 minus a shift of 15 is bin
    # 16, which no arm reaches; the pairs differ in which arm holds which
    # crystals, and one lower arm reaches bins its upper arm does not. Both
    # sets of differences, {15, 16, 31, 46} and {15, 16, 31}, need N = 6
    rng = np.random.default_rng(137)
    shapes = [((150.0, 310.0), (310.0,)), ((310.0,), (150.0, 310.0)), ((150.0,), (310.0,)),
              ((150.0, 310.0), (150.0, 310.0)), ((), (310.0, 150.0))]
    uppers, lowers = [], []
    for upper, lower in shapes * 4:
        uppers.append(mixed_arms(rng, 1, upper)[0])
        lowers.append(mixed_arms(rng, 1, lower)[0])
    assert _frequencies(uppers[0], lowers[0]) == _frequencies(uppers[2], lowers[2]) == (
        10_000_000, 6)
    rho = np.array([random_density(rng) for _ in uppers])
    assert_routines_keep_their_bits(uppers, lowers, rho)


@pytest.mark.parametrize("block_bytes", [1, 3000, 20_000])
def test_random_specs_in_small_blocks_keep_their_bits(monkeypatch, block_bytes):
    # blocks of one pair, and blocks that split the (unit, N) groups
    # unevenly; the references evolve each structure group whole
    monkeypatch.setattr(mzfringe.interferometer, "_ORACLE_BLOCK_BYTES", block_bytes)
    uppers, lowers, rho = random_specs(23, 2000)
    states = _input_states(rho)
    assert (_path_gram(uppers, lowers, states).tobytes()
            == structure_gram(uppers, lowers, states).tobytes())
    assert (oracle_contrasts(uppers, lowers, rho).tobytes()
            == structure_oracle(uppers, lowers, rho).tobytes())
