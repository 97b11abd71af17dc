import contextlib
import hashlib
import io
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from conftest import (contrast, haar_unitaries, oracle, reference_spec, standard_pair,
                      standard_stacks, table_arms)
from mzfringe import (
    Waveplate,
    arm_table,
    closed_form_contrast,
    default_beta_grid,
    experiments,
    fit_fringe,
    oracle_contrasts,
    output_probability,
    poisson_fringe,
    qkd_visibility,
    shared_env_contrasts,
    standard_arms,
    sweep,
)
from mzfringe.arms import CRYSTAL, UNITARY, WAVEPLATE, Crystal, RawUnitary, ResourceLimitError
from mzfringe.cli import main
from mzfringe.experiments import _gaussians, _uniforms, random_specs


def test_standard_config_crystal_layout():
    uppers, lowers = standard_stacks("a", [0.31, 0.7])
    assert uppers == [[Crystal(0.0, 310.0), Crystal(beta, 150.0)] for beta in (0.31, 0.7)]
    assert lowers == [[Crystal(beta, 150.0), Crystal(0.0, 310.0)] for beta in (0.31, 0.7)]


def test_standard_config_waveplate_variant():
    assert standard_stacks("d", [0.9]) == ([[Waveplate(np.pi / 8)]], [[Waveplate(0.9)]])


@pytest.mark.parametrize("betas", [[0.31, 0.7], [], default_beta_grid(7)])
def test_standard_tables_equal_the_tables_of_their_element_lists(betas):
    # written out: the upper arms, then the lower arms, crystals in traversal order
    l1, l2 = 150.0, 310.0
    upper = {"a": lambda b: [Crystal(0.0, l2), Crystal(b, l1)],
             "b": lambda b: [Crystal(b, l2), Crystal(0.0, l1)],
             "c": lambda b: [Crystal(0.0, l1), Crystal(b, l2)],
             "d": lambda b: [Waveplate(np.pi / 8)]}
    for variant, arm in upper.items():
        lower = ((lambda b: [Waveplate(b)]) if variant == "d"
                 else (lambda b: [Crystal(b, l1), Crystal(0.0, l2)]))
        want = arm_table([*map(arm, betas), *map(lower, betas)])
        assert_tables_equal(standard_arms(variant, betas), want)


def test_standard_config_rejects_unknown_variant():
    with pytest.raises(ValueError):
        standard_arms("e", [0.1])


def test_closed_forms_at_named_points():
    assert abs(closed_form_contrast("a", np.pi / 4)) == pytest.approx(0.5)
    assert abs(closed_form_contrast("b", np.pi / 3)) == pytest.approx(0.25)
    assert abs(closed_form_contrast("c", np.pi / 4)) == pytest.approx(0.0, abs=1e-15)
    assert abs(closed_form_contrast("b", 0.0)) == pytest.approx(1.0)


def test_closed_form_sign_flips_for_third_config():
    c = closed_form_contrast("c", np.pi / 3)
    assert c == pytest.approx(-0.125)
    assert abs(closed_form_contrast("c", np.pi / 3)) == pytest.approx(0.125)
    c = contrast(*standard_pair("c", np.pi / 3))
    assert abs(c) == pytest.approx(0.125, abs=1e-12)
    assert abs(np.angle(c)) == pytest.approx(np.pi, abs=1e-9)


@pytest.mark.parametrize("variant", ["a", "b", "c"])
def test_sweep_matches_closed_forms(variant):
    _, v_closed_form, v_simulated, v_oracle = sweep(variant, default_beta_grid(25))
    assert len(v_simulated) == 25
    for cf, sim, orc in zip(v_closed_form, v_simulated, v_oracle):
        assert abs(abs(cf) - sim) < 1e-9
        assert abs(sim - orc) < 1e-9


@pytest.mark.parametrize("variant", ["a", "b", "c", "d"])
def test_sweep_oracle_equals_per_spec_oracle(variant):
    # the sweep evolves its betas as stacks in blocks; each spec alone must agree
    betas = default_beta_grid(200)
    v_oracle = sweep(variant, betas)[3]
    assert len(v_oracle) == len(betas)
    for v, beta in zip(v_oracle, betas):
        expected = abs(oracle(*standard_pair(variant, beta)))
        assert abs(v - expected) <= 1e-15


@pytest.mark.parametrize("variant", ["a", "b", "c", "d"])
def test_sweep_simulation_equals_per_spec_contrast(variant):
    # the sweep composes and joins its betas as stacks; each spec alone must
    # give the same bits, also where an operator vanishes in some arms only
    betas = default_beta_grid(200)
    v_simulated = sweep(variant, betas)[2].tolist()
    assert len(v_simulated) == len(betas)
    for v, beta in zip(v_simulated, betas):
        assert repr(v) == repr(abs(contrast(*standard_pair(variant, beta))))


@pytest.mark.parametrize("variant", ["a", "b", "c", "d"])
def test_sweep_of_an_empty_grid_is_four_empty_columns(variant):
    columns = sweep(variant, [])
    assert len(columns) == 4
    assert all(column.shape == (0,) for column in columns)


def test_sweep_oracle_memory_is_bounded():
    # one stack of all 200 betas peaks near 3.1 MiB; blocks stay far below
    sweep("a", default_beta_grid(8))
    tracemalloc.start()
    try:
        sweep("a", default_beta_grid(200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20)


def traced_peak(run, units):
    """The tracemalloc peak of ``run(units)``, after a warm-up ``run(1)``."""
    run(1)
    tracemalloc.start()
    try:
        run(units)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_grows_by_a_fixed_budget_per_point():
    # The per-point budget that the sweep bound in cli._COUNT_LIMITS rests
    # on: variant c peaks near 2.9 KiB per point. 1,024 points is 1/64 of the
    # bound; the peak is linear in the points from 256 to 4,096.
    peak = traced_peak(lambda n: sweep("c", default_beta_grid(n)), 1024)
    assert peak < 1024 * 3.25 * 1024


def test_oracle_check_memory_grows_by_a_fixed_budget_per_spec():
    # The per-spec budget that the oracle-check bound in cli._COUNT_LIMITS
    # rests on: drawing, composing and checking the specs as one stack, as
    # the command does, peaks near 1.75 KiB per spec. 1,024 specs is 1/64 of
    # the bound.
    def check(n):
        table, states = random_specs(0, n)
        shared_env_contrasts(table, range(0, 2 * n, 2), range(1, 2 * n, 2), states)
        oracle_contrasts(table, range(0, 2 * n, 2), range(1, 2 * n, 2), states)

    assert traced_peak(check, 1024) < 1024 * 2.25 * 1024


@pytest.mark.parametrize("mean_total", [[], ["--mean-total", "10000"]],
                         ids=["noiseless", "sampled"])
def test_fringe_memory_grows_by_a_fixed_budget_per_phase(tmp_path, mean_total):
    # The per-phase budget that the fringe bound in cli._COUNT_LIMITS rests
    # on: the command, CSV included, peaks near 138 B per phase noiseless and
    # 135 B sampled at mean 10^4 (99 B at mean 20). 2^14 phases is 1/64 of the
    # bound; the peak is linear in the phases from 2^12 to 2^16.
    def fringe(n):
        args = ["fringe", "--variant", "a", "--beta", "0.3", "--phases", str(n)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args + mean_total + ["--output", str(tmp_path / "f.csv")]) == 0

    assert traced_peak(fringe, 2**14) < 2**14 * 160


def test_sweep_even_in_beta_for_second_config():
    for beta in np.linspace(0, np.pi / 2, 7):
        assert abs(closed_form_contrast("b", beta)) == pytest.approx(
            abs(closed_form_contrast("b", -beta)))


def test_waveplate_variant_curve():
    for beta in default_beta_grid(25):
        v = abs(contrast(*standard_pair("d", beta)))
        assert abs(v - abs(np.cos(2 * (beta - np.pi / 8)))) < 1e-9
    assert abs(contrast(*standard_pair("d", np.pi / 8))) \
        == pytest.approx(1.0, abs=1e-12)


def uniform_phases(n):
    return 2 * np.pi * np.arange(n) / n


def test_poisson_zero_expectation_gives_zero_counts():
    f = contrast(*standard_pair("b", 0.0))  # unit visibility
    counts = poisson_fringe(f, [np.pi], 10_000, 7)
    assert 10_000 * output_probability(f, np.pi) == pytest.approx(0.0, abs=1e-9)
    assert counts[0] == 0


def test_poisson_flat_fringe_statistics():
    f = contrast(*standard_pair("c", np.pi / 4))  # zero contrast
    counts = poisson_fringe(f, uniform_phases(64), 10_000, 42)
    assert np.all(10_000 * output_probability(f, uniform_phases(64)) == pytest.approx(5000.0))
    assert abs(counts.mean() - 5000.0) < 5 * np.sqrt(5000.0 / 64)


def test_poisson_determinism_and_seed_sensitivity():
    f = contrast(*standard_pair("a", np.pi / 8))
    a = poisson_fringe(f, uniform_phases(32), 1000, 42)
    b = poisson_fringe(f, uniform_phases(32), 1000, 42)
    c = poisson_fringe(f, uniform_phases(32), 1000, 43)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


def test_poisson_rejects_bad_arguments():
    f = contrast(*standard_pair("a", 0.1))
    with pytest.raises(ValueError):
        poisson_fringe(f, [0.0], 0, 1)
    with pytest.raises(ValueError):
        poisson_fringe(f, [0.0], 10, -1)
    with pytest.raises(ResourceLimitError):
        poisson_fringe(f, [0.0], 2**53 + 1, 1)
    assert 0 < poisson_fringe(f, [0.0], 2**53, 1)[0] < 2**54


def test_poisson_rejects_a_nan_phase():
    f = contrast(*standard_pair("a", 0.1))
    with pytest.raises(RuntimeError, match="phase nan"):
        poisson_fringe(f, [0.0, float("nan"), 1.0], 100, 1)


@pytest.mark.parametrize("mean_total, total, digest", [
    (2, 50, "f0c81455698aa411a478a5a0fa70dc93424bc56fafc9e25c04c78877597ed956"),
    (29, 873, "585458eec56ace2eca4c440e67bae6dc9854eefb83644f6260eafeb9d963284d"),
    (31, 937, "aa39d52aeeb80bfb5f4863bcf2e669ba873307bbc83b64f04b2263a18a0598ca"),
    (10_000, 319046, "93bfe60e41e73e42e60daa0e739fa67c591e2ef83fa5ae2687cba1d3ef131b2e"),
])
def test_poisson_golden_counts(mean_total, total, digest, monkeypatch):
    # The counts pinned when point i's uniform was default_rng([seed, i]).random().
    # Fed those uniforms again, the sampler must give the same bytes: each count
    # is the same function of its uniform whatever generator draws it.
    def numpy_uniforms(seed, index):
        return np.array([np.random.default_rng([seed, int(i)]).random() for i in index])

    monkeypatch.setattr(experiments, "_uniforms", numpy_uniforms)
    counts = poisson_fringe(contrast(*standard_pair("a", np.pi / 8)),
                            uniform_phases(64), mean_total, 42)
    assert counts.dtype == np.int64
    counts = counts.tolist()
    assert sum(counts) == total
    assert hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest() == digest


@pytest.mark.parametrize("mean_total, total, digest", [
    (2, 61, "957017c7d5bdfccf35ec02ee96aafbbbff0c25b240b23b0c558109f0f75fc88f"),
    (29, 911, "ab25023b21a8f2017623adc1e7048444f68b34b47dcb1aa264e27c4acbfd6a35"),
    (31, 967, "4cde526ac599ee0cdc6aac130a781298490c5de72eeb10f4b1b26e08eee5100b"),
    (10_000, 319615, "f001deaa762066853d105285bd019e93d7ee9a674ff445a17fd1245b383af0cc"),
])
def test_poisson_fringe_golden_counts(mean_total, total, digest):
    # Pinned from the per-point reference (reference_count); any change to the
    # sampled bytes must update these on purpose.
    counts = poisson_fringe(contrast(*standard_pair("a", np.pi / 8)),
                            uniform_phases(64), mean_total, 42)
    assert counts.dtype == np.int64
    counts = counts.tolist()
    assert all(type(c) is int for c in counts)
    assert sum(counts) == total
    assert hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest() == digest


def reference_count(lam, seed, i):
    """The per-point sampler, one uniform per (seed, i) read from its own
    counter, kept as the reference."""
    if lam <= 0.0:
        return 0
    u = float(_uniforms(seed, [i])[0])
    u = min(max(u, 1e-300), 1.0 - 1e-16)
    if lam < 30.0:
        p = np.exp(-lam)
        cdf = p
        k = 0
        limit = int(lam + 20.0 * np.sqrt(lam) + 20.0)
        while u > cdf and k < limit:
            k += 1
            p *= lam / k
            cdf += p
        return k
    z = NormalDist().inv_cdf(u)
    return max(0, int(np.floor(lam + np.sqrt(lam) * z + 0.5)))


@pytest.mark.parametrize("seed", [0, 5, 2**33 + 1])
@pytest.mark.parametrize("mean_total", [1, 7, 29, 30, 31, 59, 61, 1000, 10**6])
def test_poisson_fringe_equals_per_point_reference(mean_total, seed):
    f = contrast(*standard_pair("b", 0.7))
    phis = np.random.default_rng(mean_total).uniform(-7.0, 7.0, 129)
    counts = poisson_fringe(f, phis, mean_total, seed)
    assert counts.shape == phis.shape
    for i, (count, phi) in enumerate(zip(counts, phis)):
        lam = mean_total * output_probability(f, phi)
        assert count == reference_count(lam, seed, i)


@pytest.mark.parametrize("mean_total", [20, 10_000])
def test_poisson_fringes_are_prefixes_of_longer_fringes(mean_total):
    # point i depends only on (seed, i): at one lam (a flat fringe), the first
    # n counts of a 2n-point fringe are the n-point fringe, in either branch
    f = contrast(*standard_pair("c", np.pi / 4))
    short = poisson_fringe(f, np.zeros(512), mean_total, 9)
    assert poisson_fringe(f, np.zeros(1024), mean_total, 9)[:512].tolist() == short.tolist()


def test_poisson_fringe_reads_every_word_of_the_seed():
    # seeds that differ by 2^64 sample different counts, and a seed of any size works
    f = contrast(*standard_pair("c", np.pi / 4))
    for seed in (3, 2**64 + 3, 2**2000 + 3):
        assert (poisson_fringe(f, np.zeros(64), 1000, seed).tolist()
                != poisson_fringe(f, np.zeros(64), 1000, seed + 2**64).tolist())
    assert (poisson_fringe(f, np.zeros(64), 1000, 2**2000 + 3).tolist()
            != poisson_fringe(f, np.zeros(64), 1000, 3).tolist())


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 5])
def test_uniforms_fill_equal_bins(seed):
    # counters 0 to 2^20 - 1, the phases bound, in 16 equal bins within 3 sigma
    u = _uniforms(seed, np.arange(2**20))
    assert u.min() >= 0.0 and u.max() < 1.0
    bins = np.bincount((16 * u).astype(np.intp), minlength=16)
    assert all(within_3_sigma(c, len(u), 1 / 16) for c in bins), bins


def noiseless_records(amp, vis, psi, n=64):
    phis = uniform_phases(n)
    return phis, amp * (1 + vis * np.cos(phis + psi))


@pytest.mark.parametrize("vis", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_fit_recovers_noiseless_fringe(vis):
    fit = fit_fringe(*noiseless_records(5000.0, vis, 0.8))
    assert fit.converged
    assert abs(fit.visibility_hat - vis) < 1e-9
    assert fit.amplitude == pytest.approx(5000.0, abs=1e-6)


def test_fit_recovers_phase():
    fit = fit_fringe(*noiseless_records(200.0, 0.6, -1.1))
    assert fit.phase_hat == pytest.approx(-1.1, abs=1e-9)


def test_fit_requires_enough_points():
    with pytest.raises(ValueError):
        fit_fringe(*noiseless_records(100.0, 0.5, 0.0, n=3))


def test_fit_requires_span():
    with pytest.raises(ValueError, match="span"):
        fit_fringe(np.linspace(0, 1.0, 10), np.full(10, 100.0))


def test_fit_rejects_all_zero_counts():
    with pytest.raises(ValueError, match="sum to more than 0"):
        fit_fringe(uniform_phases(8), np.zeros(8, dtype=np.int64))


def test_fit_statistical_recovery():
    f = contrast(*standard_pair("a", np.pi / 8))  # true visibility 0.75
    phis = uniform_phases(64)
    fit = fit_fringe(phis, poisson_fringe(f, phis, 10_000, 42))
    assert fit.converged
    assert abs(fit.visibility_hat - 0.75) < 3 * fit.stderr_visibility
    assert abs(fit.visibility_hat - 0.75) < 0.02


@pytest.mark.parametrize("phis", [[0.0, 0.0, 4.0, 4.0], [0.0, 2 * np.pi, 4.0, 4.0],
                                  [0.0, 1e-9, 4.0, 4.0]])
def test_fit_requires_3_distinct_phases(phis):
    # two points of the fringe 4 rad apart span more than pi but cannot fix
    # three parameters; phases 1e-9 apart leave the normal equations singular
    with pytest.raises(ValueError, match="at least 3 distinct phases"):
        fit_fringe(phis, [10, 12, 30, 28])


def test_fit_of_a_flat_fringe_is_exactly_zero_visibility():
    fit = fit_fringe(uniform_phases(64), np.full(64, 100))
    assert fit.converged
    assert fit.visibility_hat == 0.0
    assert fit.stderr_visibility == pytest.approx(np.sqrt(2 / (64 * 100)), rel=1e-12)
    assert fit.phase_hat == 0.0 and not np.signbit(fit.phase_hat)  # the CSV prints 0, not -0


def gauss_newton_fit(phis, counts):
    """Gauss-Newton on (A, v, psi), the fit that the linear one replaced: the
    reference its estimates must reproduce."""
    def model_and_jacobian(amp, vis, psi):
        cos, sin = np.cos(phis + psi), np.sin(phis + psi)
        jac = np.column_stack([1.0 + vis * cos, amp * cos, -amp * vis * sin])
        return amp * jac[:, 0], jac

    phis = np.asarray(phis, dtype=float)
    counts = np.asarray(counts, dtype=float)
    amp = float(counts.mean())
    z = np.mean(counts * np.exp(-1j * phis))
    theta = np.array([amp, min(2.0 * abs(z) / amp, 1.0), np.angle(z)])
    converged = False
    for _ in range(100):
        model, jac = model_and_jacobian(*theta)
        sw = np.sqrt(1.0 / np.maximum(model, 1.0))
        step, *_ = np.linalg.lstsq(sw[:, None] * jac, sw * (counts - model), rcond=None)
        theta = theta + step
        if float(np.linalg.norm(step)) < 1e-10:
            converged = True
            break
    amp, vis, psi = theta
    if vis < 0.0:
        vis, psi = -vis, psi + np.pi
    psi = float(np.arctan2(np.sin(psi), np.cos(psi)))
    vis = min(vis, 1.0)
    model, jac = model_and_jacobian(amp, vis, psi)
    cov = np.linalg.pinv(jac.T @ (jac / np.maximum(model, 1.0)[:, None]))
    return amp, vis, psi, float(np.sqrt(max(cov[1, 1], 0.0))), converged


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("phases", [64, 256, 1024])
@pytest.mark.parametrize("mean_total", [2, 20, 10_000])
@pytest.mark.parametrize("variant, beta", [("c", np.pi / 4), ("b", 0.9), ("d", np.pi / 8)])
def test_linear_fit_reproduces_gauss_newton(variant, beta, mean_total, phases, seed):
    phis = uniform_phases(phases)
    counts = poisson_fringe(contrast(*standard_pair(variant, beta)), phis, mean_total, seed)
    amp, vis, psi, stderr, converged = gauss_newton_fit(phis, counts)
    fit = fit_fringe(phis, counts)
    assert converged and fit.converged
    assert fit.amplitude == pytest.approx(amp, rel=1e-9)
    assert fit.visibility_hat == pytest.approx(vis, rel=1e-9, abs=1e-12)
    assert abs(np.remainder(fit.phase_hat - psi + np.pi, 2 * np.pi) - np.pi) < 1e-9
    assert fit.stderr_visibility == pytest.approx(stderr, rel=1e-8)


def test_qkd_identity_segments():
    vis, qber = qkd_visibility([], [], [], [])
    assert vis == 1.0 and qber == 0.0


def test_qkd_matches_second_config():
    beta = np.pi / 3
    vis, qber = qkd_visibility(
        u1=[Crystal(beta, 310.0)], u2=[Crystal(0.0, 150.0)],
        u3=[Crystal(beta, 150.0)], u4=[Crystal(0.0, 310.0)],
    )
    assert vis == pytest.approx(0.25, abs=1e-9)
    assert qber == pytest.approx(0.375, abs=1e-9)


def test_qber_monotone_in_visibility():
    results = []
    for beta in np.linspace(0, np.pi / 2, 10):
        results.append(qkd_visibility([Crystal(beta, 310.0)], [Crystal(0.0, 150.0)],
                                      [Crystal(beta, 150.0)], [Crystal(0.0, 310.0)]))
    for (v1, q1), (v2, q2) in zip(results, results[1:]):
        assert (q2 - q1) == pytest.approx((v1 - v2) / 2, abs=1e-12)
        assert 0.0 <= q1 <= 0.5 and 0.0 <= q2 <= 0.5


def arm_bytes(arm):
    """An arm's element kinds, angles, delays and unitary bytes."""
    return [(type(e), getattr(e, "axis_angle", None), getattr(e, "delay", None),
             e.matrix.tobytes() if type(e) is RawUnitary else None) for e in arm]


def assert_tables_equal(got, want):
    """Two element tables are equal field by field: arm count, and each
    array's dtype, shape and bytes."""
    assert got.arms == want.arms
    for name, a, b in zip(got._fields[1:], got[1:], want[1:]):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def spec_list(draw) -> list:
    """The (upper, lower, rho) specs of a ``random_specs`` draw as element lists."""
    table, states = draw
    arms = table_arms(table)
    return list(zip(arms[0::2], arms[1::2], states))


def assert_specs_equal(got, want):
    """Two lists of (upper, lower, rho) specs are equal bit for bit."""
    assert len(got) == len(want)
    for (upper, lower, rho), (want_upper, want_lower, want_rho) in zip(got, want):
        assert arm_bytes(upper) == arm_bytes(want_upper)
        assert arm_bytes(lower) == arm_bytes(want_lower)
        assert rho.tobytes() == want_rho.tobytes()


# The first 4 specs of seed 24 draw crystals and waveplates but no unitary, so
# that draw runs the closed-form QR on an empty stack.
@pytest.mark.parametrize("seed, n", [
    pytest.param(19, 1001, id="1001-specs"),
    pytest.param(24, 4, id="no-unitary"),
])
def test_random_specs_equal_the_per_spec_reference_bit_for_bit(seed, n):
    table, states = random_specs(seed, n)
    assert table.arms == 2 * n and states.shape == (n, 2, 2)
    specs = [reference_spec(seed, i) for i in range(n)]
    want = arm_table([arm for upper, lower, _ in specs for arm in (upper, lower)])
    assert_tables_equal(table, want)
    assert states.tobytes() == np.array([rho for *_, rho in specs]).tobytes()
    kinds = set(table.kind.tolist())
    assert kinds == ({CRYSTAL, WAVEPLATE} if n == 4 else {CRYSTAL, WAVEPLATE, UNITARY})


def test_random_specs_are_prefixes_of_longer_draws():
    # spec i depends only on (seed, i)
    short, long = random_specs(7, 300), random_specs(7, 600)
    assert_specs_equal(spec_list(short), spec_list(long)[:300])


def test_random_specs_states_are_exactly_hermitian():
    # rho = G G^dag / tr is Hermitian; its stack is made so bit for bit, so
    # every diagonal entry is real
    states = random_specs(1, 1000)[1]
    assert np.array_equal(states, states.conj().swapaxes(1, 2))
    assert not np.diagonal(states, axis1=1, axis2=2).imag.any()


def test_random_specs_read_every_word_of_the_seed():
    # seeds that differ by 2^64 draw different specs, and a seed of any size works
    for seed in (3, 2**64 + 3, 2**2000 + 3):
        assert random_specs(seed, 20)[1].tobytes() != random_specs(seed + 2**64, 20)[1].tobytes()
    assert random_specs(2**2000 + 3, 20)[1].tobytes() != random_specs(3, 20)[1].tobytes()
    with pytest.raises(ValueError, match="non-negative"):
        random_specs(-1, 20)


def splitmix64(seed: int, j: int) -> int:
    """The top 53 bits of counter j's SplitMix64 word under ``seed``'s key, in
    Python integers: the rule that ``_uniforms`` writes on uint64 arrays."""
    mask, gamma = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        return z ^ z >> 31

    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = mix((key + (seed >> shift & mask)) * gamma & mask)
    return mix((key + (j + 1) * gamma) & mask) >> 11


# 2^53 u of counters 0, 1 and 2^40 for each seed. Seed 0's first word is
# SplitMix64's published first output from state 0, 0xE220A8397B1DCDAF >> 11.
PINNED_UNIFORMS = {
    0: [7956156453446585, 3886858653415212, 887180520247730],
    1: [5876733520225071, 6315957190297641, 1287888711197452],
    2**64 + 5: [4115220097733615, 670061720311145, 7142984104778029],
    2**2000 + 3: [4171949791887084, 6030200198492148, 4166288506095195],
}


@pytest.mark.parametrize("seed", PINNED_UNIFORMS, ids=["0", "1", "2**64+5", "2**2000+3"])
def test_uniforms_are_pinned_splitmix64_words(seed):
    counters = [0, 1, 2**40]
    u = _uniforms(seed, np.array(counters))
    assert u.dtype == np.float64
    assert (u * 2**53).astype(np.uint64).tolist() == PINNED_UNIFORMS[seed]
    assert PINNED_UNIFORMS[seed] == [splitmix64(seed, j) for j in counters]


def within_3_sigma(count, total, p):
    return abs(count - total * p) <= 3.0 * np.sqrt(total * p * (1.0 - p))


def test_random_specs_follow_their_distribution():
    # 3 sigma bounds over 20,000 specs
    arms = table_arms(random_specs(11, 20000)[0])
    lengths = np.bincount([len(arm) for arm in arms], minlength=4)
    assert all(within_3_sigma(c, len(arms), 0.25) for c in lengths), lengths
    elements = [e for arm in arms for e in arm]
    kinds = [sum(type(e) is kind for e in elements) for kind in (Crystal, Waveplate, RawUnitary)]
    assert all(within_3_sigma(c, len(elements), p) for c, p in zip(kinds, (0.5, 0.25, 0.25)))
    delays = [e.delay for e in elements if type(e) is Crystal]
    counts = [delays.count(d) for d in (0.0, 75.0, 150.0, 310.0)]
    assert all(within_3_sigma(c, len(delays), 0.25) for c in counts), counts
    # Haar: |U_00|^2 is uniform on [0, 1], mean 1/2, variance 1/12 (its
    # sample variance has standard error sqrt(1 / (180 n)))
    x = np.array([abs(e.matrix[0, 0]) ** 2 for e in elements if type(e) is RawUnitary])
    assert abs(x.mean() - 0.5) <= 3.0 * np.sqrt(1.0 / 12.0 / len(x))
    assert abs(x.var() - 1.0 / 12.0) <= 3.0 * np.sqrt(1.0 / 180.0 / len(x))


def test_gaussians_are_standard_normal():
    # real and imaginary parts of 20,000 Gaussians (80,000 entries each): mean
    # 0 within 3 / sqrt(n), variance 1 within 3 sqrt(2 / n)
    g = _gaussians(13, np.arange(20000) * 8).ravel()
    for part in (g.real, g.imag):
        assert abs(part.mean()) <= 3.0 / np.sqrt(len(part))
        assert abs(part.var() - 1.0) <= 3.0 * np.sqrt(2.0 / len(part))


def test_random_unitaries_are_the_phase_fixed_q_of_lapack():
    # random_specs forms its unitaries as haar_unitaries does, bit for bit
    # (above): LAPACK's Q with R's diagonal made positive, so the draw stays
    # Haar, to rounding, and unitary to rounding
    rng = np.random.default_rng(7)
    g = rng.normal(size=(20000, 2, 2)) + 1j * rng.normal(size=(20000, 2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    u = haar_unitaries(g)
    np.testing.assert_allclose(u, q * (d / np.abs(d))[:, None, :], rtol=0, atol=1e-12)
    assert np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(2)).max() < 4e-15
