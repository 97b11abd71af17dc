"""Crystal-delay stacks and time-grid oracle groups against the routines they
replaced, kept here as references.

The references group arms by their full structure, element kinds and crystal
delays: composition of a stack of one structure, the contrast composed and
joined per structure, and the oracle evolved per (upper, lower) structure.
The package's routines key stacks by crystal delays alone and group the
oracle by time grid; every contrast, oracle Gram matrix and nonzero Kraus
operator must keep its bits.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mzfringe.cli
from conftest import random_unitary
from mzfringe import (Crystal, RawUnitary, Waveplate, compose_arms, default_beta_grid,
                      maximally_mixed, oracle_contrasts, shared_env_contrasts, standard_arms,
                      sweep)
from mzfringe.arms import (COMPOSE_BIN_LIMIT, DELAY_MERGE_TOL, ZERO_OP_TOL, ArmSpec,
                           ResourceLimitError, _element_kraus, arm_structure)
from mzfringe.experiments import random_specs
from mzfringe.interferometer import (_BEAMSPLITTER, _ORACLE_BLOCK_BYTES, _ORACLE_PHASES,
                                     _ORACLE_PHIS, _delay_grid, _input_states, _path_gram,
                                     _port_probabilities, _shift, _stacked_ops, kraus_contrasts)


def structure(arm: ArmSpec) -> tuple:
    """The old stack key: per element, a crystal's delay or another element's kind."""
    return tuple([e.delay if type(e) is Crystal else type(e) for e in arm])


def groups(keys) -> dict:
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def structure_compose(arms):
    """Composition of a stack of one structure, position by position."""
    assert len({structure(arm) for arm in arms}) <= 1
    positions = list(zip(*arms))
    delays, merges = np.zeros(1), []
    for elems in positions:
        if type(elems[0]) is not Crystal:
            merges.append(None)
            continue
        branches = np.concatenate((delays, delays + float(elems[0].delay)))
        order = branches.argsort(kind="stable")
        branches = branches[order]
        start = np.empty(len(branches), dtype=bool)
        start[0] = True
        start[1:] = branches[1:] - branches[:-1] > DELAY_MERGE_TOL
        for i in (~start).nonzero()[0].tolist():
            if start[i - 1]:
                leader = branches[i - 1]
            start[i] = branches[i] - leader > DELAY_MERGE_TOL
        starts = start.nonzero()[0]
        delays = branches[starts]
        if len(delays) > COMPOSE_BIN_LIMIT:
            raise ResourceLimitError("COMPOSE_BIN_LIMIT")
        merges.append((order, starts))
    kraus = np.eye(2, dtype=complex)[None, None].repeat(len(arms), axis=0)
    for elems, merge in zip(positions, merges):
        ops = _element_kraus(elems)
        if merge is None:
            kraus = ops @ kraus
            continue
        kraus = (ops[:, :, None] @ kraus[:, None]).reshape(len(arms), -1, 2, 2)
        kraus = np.add.reduceat(kraus.take(merge[0], axis=1), merge[1], axis=1)
    vanish = np.maximum.reduce(np.abs(kraus), axis=(2, 3)) < ZERO_OP_TOL
    kraus[vanish] = 0.0
    keep = ~np.logical_and.reduce(vanish)
    return delays.compress(keep), kraus.compress(keep, axis=1)


def structure_contrasts(uppers, lowers, rho) -> list[complex]:
    """The contrast with arms composed per structure and joined per
    (upper, lower) structure."""
    rho = _input_states(rho)
    arms = [*uppers, *lowers]
    keys = [structure(arm) for arm in arms]
    stacks, rows = {}, [0] * len(arms)
    for key, members in groups(keys).items():
        stacks[key] = structure_compose([arms[i] for i in members])
        for row, i in enumerate(members):
            rows[i] = row
    rho = np.broadcast_to(rho, (len(uppers), 2, 2))
    n, out = len(uppers), [0j] * len(uppers)
    for (upper, lower), pairs in groups(zip(keys[:n], keys[n:])).items():
        (upper_delays, upper_ops), (lower_delays, lower_ops) = stacks[upper], stacks[lower]
        contrasts = kraus_contrasts(
            (upper_delays, upper_ops[[rows[i] for i in pairs]]),
            (lower_delays, lower_ops[[rows[n + i] for i in pairs]]), rho[pairs])
        for i, c in zip(pairs, contrasts):
            out[i] = c
    return out


def structure_evolve(arms, cols, unit):
    """Oracle evolution of a stack of one structure, element by element."""
    for elems in zip(*arms):
        ops = _stacked_ops(elems)
        if type(elems[0]) is Crystal:
            k, n = _shift(elems[0].delay, unit), cols.shape[2]
            delayed = np.concatenate((cols[:, :, n - k:], cols[:, :, :n - k]), axis=2) - cols
            cols = cols + np.einsum("apq,aq...->ap...", ops, delayed)
        else:
            cols = np.einsum("apq,aq...->ap...", ops, cols)
    return cols


def structure_gram(uppers, lowers, rho):
    """Oracle path Gram matrices with the pairs evolved per (upper, lower)
    structure."""
    split = _BEAMSPLITTER[:, 0]
    evals, evecs = np.linalg.eigh(rho)
    states = np.broadcast_to(evecs * np.sqrt(np.maximum(evals, 0.0))[..., None, :],
                             (len(uppers), 2, 2))
    grams = np.empty((len(uppers), 2, 2), dtype=complex)
    keys = zip(map(structure, uppers), map(structure, lowers))
    for pairs in groups(keys).values():
        unit, n = _delay_grid([uppers[pairs[0]], lowers[pairs[0]]])
        block = max(1, _ORACLE_BLOCK_BYTES // (2 * 2 * n * 2 * 16))
        for start in range(0, len(pairs), block):
            at = pairs[start:start + block]
            cols = np.zeros((len(at), 2, n, 2), dtype=complex)
            cols[:, :, 0, :] = states[at]
            paths = np.concatenate((
                structure_evolve([uppers[i] for i in at], split[0] * cols, unit),
                structure_evolve([lowers[i] for i in at], split[1] * cols, unit),
            ), axis=1).reshape(len(at), 2, -1)
            grams[at] = paths.conj() @ paths.transpose(0, 2, 1)
    return grams


def structure_oracle(uppers, lowers, rho) -> np.ndarray:
    p0 = _port_probabilities(structure_gram(uppers, lowers, _input_states(rho)),
                             _ORACLE_PHIS)[:, 0]
    return 4.0 * ((p0 * np.exp(-1j * _ORACLE_PHIS)).sum(axis=-1) / _ORACLE_PHASES)


def assert_compositions_keep_their_bits(arms):
    """Each crystal-delay stack of ``arms`` against the reference stacks of
    its structures: the same nonzero operators at the same delays per arm,
    and exact zeros elsewhere."""
    for members in groups(map(arm_structure, arms)).values():
        delays, ops = compose_arms([arms[i] for i in members])
        for same in groups(structure(arms[i]) for i in members).values():
            want_delays, want_ops = structure_compose([arms[members[j]] for j in same])
            for j, want in zip(same, want_ops):
                kept = np.abs(ops[j]).max(axis=(1, 2)) >= ZERO_OP_TOL
                want_kept = np.abs(want).max(axis=(1, 2)) >= ZERO_OP_TOL
                assert delays[kept].tobytes() == want_delays[want_kept].tobytes()
                assert ops[j][kept].tobytes() == want[want_kept].tobytes()
                assert (ops[j][~kept] == 0).all()


def assert_routines_keep_their_bits(uppers, lowers, rho):
    got = shared_env_contrasts(uppers, lowers, rho)
    assert [repr(c) for c in got] == [repr(c) for c in structure_contrasts(uppers, lowers, rho)]
    states = _input_states(rho)
    assert (_path_gram(uppers, lowers, states).tobytes()
            == structure_gram(uppers, lowers, states).tobytes())
    assert (oracle_contrasts(uppers, lowers, rho).tobytes()
            == structure_oracle(uppers, lowers, rho).tobytes())


@pytest.mark.parametrize("seed", [1, 5, 19])
def test_random_spec_chunks_keep_their_bits(seed):
    rng = np.random.default_rng(seed)
    chunk = mzfringe.cli._ORACLE_CHECK_CHUNK
    for start in range(0, 1000, chunk):
        uppers, lowers, rho = random_specs(rng, min(chunk, 1000 - start))
        assert_compositions_keep_their_bits([*uppers, *lowers])
        assert_routines_keep_their_bits(uppers, lowers, rho)


def test_a_stack_of_mixed_elements_at_equal_crystal_delays_keeps_its_bits():
    # crystals at 150 and 75 um in every arm; waveplates and raw unitaries of
    # several ranks before, between and after them; aligned crystals at
    # beta = 0 make some operators vanish in one arm and not in others
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
    assert len({arm_structure(arm) for arm in arms}) == 1
    assert_compositions_keep_their_bits(arms)
    rho = np.array([maximally_mixed(2), np.diag([1.0, 0.0])] * 15)
    assert_routines_keep_their_bits(arms[:30], arms[30:], rho)


@pytest.mark.parametrize("variant", "abcd")
def test_the_sweeps_keep_their_bits(variant):
    betas = default_beta_grid(200)
    uppers, lowers = standard_arms(variant, betas)
    rho = maximally_mixed(2)
    assert_compositions_keep_their_bits([*uppers, *lowers])
    assert_routines_keep_their_bits(uppers, lowers, rho)
    columns = sweep(variant, betas)
    assert columns[2].tobytes() == np.array(
        [abs(c) for c in structure_contrasts(uppers, lowers, rho)]).tobytes()
    assert columns[3].tobytes() == np.abs(structure_oracle(uppers, lowers, rho)).tobytes()


def test_the_deep_arms_pairs_keep_their_bits():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pairs = [[[Crystal(angle, delay) for angle, delay in command["check"][side]]
              for side in ("upper", "lower")]
             for seed in (1, 2, 3) for command in workloads.generate("deep-arms", seed)]
    assert len(pairs) == 48
    uppers, lowers = zip(*pairs)
    assert_compositions_keep_their_bits([*uppers, *lowers])
    assert_routines_keep_their_bits(uppers, lowers, maximally_mixed(2))
    for upper, lower in pairs:
        assert_routines_keep_their_bits([upper], [lower], maximally_mixed(2))
