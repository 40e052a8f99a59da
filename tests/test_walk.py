import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hqca import (BuildSpec, StepBudget, WalkLine, build_initial, evolve,
                  fit_tv_envelope, limiting_distribution,
                  position_distribution, position_distributions, run,
                  simulate_measurement, success_probability,
                  time_averaged_distribution)
from hqca.walk import (DENSE_MAX_LENGTH, WalkDistribution, distribution_dump,
                       exact_time_averaged_distribution)

from conftest import small_circuit


def test_import_leaves_scipy_unloaded():
    # scipy.fft is imported only where a DST runs; the package, its CLI and
    # the lines the benchmark walks load no scipy at all
    code = ("import sys, hqca, hqca.cli\n"
            "hqca.position_distributions(hqca.WalkLine(16), [1.0])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    import hqca
    env = dict(os.environ, PYTHONPATH=str(Path(hqca.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_eigenpairs():
    line = WalkLine(9)
    v, lam, h = line.eigenvectors, line.eigenvalues, line.hamiltonian()
    assert np.max(np.abs(v.T @ v - np.eye(9))) < 1e-10
    assert np.max(np.abs(h @ v - v * lam)) < 1e-10


def test_evolve_matches_expm_oracle():
    rng = np.random.default_rng(42)
    for l in (3, 16, 64):
        line = WalkLine(l)
        u_h = line.hamiltonian()
        for tau in rng.uniform(0.0, 100.0, size=4):
            got = evolve(line, tau)
            want = expm(-1j * u_h * tau)[:, 0]
            assert np.max(np.abs(got - want)) < 1e-8


def test_two_site_closed_form():
    line = WalkLine(2)
    for tau in (0.0, 0.4, 1.0, np.pi / 2, 3.7):
        amps = evolve(line, tau)
        assert abs(amps[0] - np.cos(tau)) < 1e-10
        assert abs(amps[1] - 1j * np.sin(tau)) < 1e-10
        assert abs(position_distribution(line, tau)[1] - np.sin(tau) ** 2) < 1e-10


def test_single_site_line():
    line = WalkLine(1)
    for tau in (0.0, 2.5):
        amps = evolve(line, tau)
        assert abs(abs(amps[0]) - 1.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(l=st.integers(2, 40), tau=st.floats(0.0, 1e6))
def test_norm_preserved(l, tau):
    assert abs(np.linalg.norm(evolve(WalkLine(l), tau)) - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(l=st.integers(1, 700),
       taus=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4))
@example(l=1, taus=[0.0, 2.5, 1e6])
@example(l=2, taus=[0.4, np.pi / 2, 1e6])
@example(l=2, taus=[np.pi, 3 * np.pi])  # lambda tau / 2 at the tangent's pole
@example(l=3, taus=[0.0, 37.0, 1e6])
@example(l=DENSE_MAX_LENGTH - 1, taus=[0.0, 37.0, 1e6])
@example(l=DENSE_MAX_LENGTH, taus=[0.0, 37.0, 1e6])
@example(l=DENSE_MAX_LENGTH + 1, taus=[0.0, 37.0, 1e6])
def test_position_distributions_match_evolve(l, taus):
    # both sides of the dense/DST crossover against the complex amplitudes
    line = WalkLine(l)
    got = position_distributions(line, taus)
    want = np.stack([np.abs(evolve(line, t)) ** 2 for t in taus], axis=1)
    assert got.shape == (l, len(taus))
    assert np.max(np.abs(got - want)) < 1e-10
    assert np.max(np.abs(got.sum(axis=0) - 1.0)) < 1e-10


@pytest.mark.parametrize("l", [3, DENSE_MAX_LENGTH + 1])
def test_position_distributions_match_expm(l):
    line = WalkLine(l)
    taus = [0.0, 0.7, 13.1, 50.0]
    want = np.stack([np.abs(expm(-1j * line.hamiltonian() * t)[:, 0]) ** 2
                     for t in taus], axis=1)
    assert np.max(np.abs(position_distributions(line, taus) - want)) < 1e-10


def test_position_distributions_peak_memory():
    # two h x T tangent buffers and the l x T result: 2 l T doubles
    line, taus = WalkLine(256), np.linspace(0.0, 1e3, 10_000)
    line.eigenvectors  # cached before the trace
    tracemalloc.start()
    try:
        position_distributions(line, taus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * line.l * taus.size * 8


def test_limiting_distribution_values():
    pi2 = limiting_distribution(WalkLine(2)).probabilities
    assert np.allclose(pi2, [0.5, 0.5])
    pi16 = limiting_distribution(WalkLine(16)).probabilities
    assert abs(pi16[0] - 3 / 34) < 1e-15
    assert abs(pi16[7] - 2 / 34) < 1e-15
    for l in (2, 5, 33):
        assert abs(limiting_distribution(WalkLine(l)).probabilities.sum()
                   - 1.0) < 1e-12


def test_time_average_converges():
    line = WalkLine(16)
    pi = limiting_distribution(line)
    rng = np.random.default_rng(7)
    tvs = [time_averaged_distribution(line, tau_star, 4000,
                                      rng).total_variation(pi)
           for tau_star in (10.0, 100.0, 10000.0)]
    assert tvs[2] < tvs[0]
    assert tvs[2] < 0.05


def test_time_average_two_sites():
    # sin^2 averages to 1/2 over long windows
    rng = np.random.default_rng(3)
    avg = time_averaged_distribution(WalkLine(2), 10000.0, 20000, rng)
    assert np.max(np.abs(avg.probabilities - 0.5)) < 0.02


def test_success_probability_edges():
    line = WalkLine(16)
    rng = np.random.default_rng(0)
    p0, d0 = success_probability(line, 0.0, 100.0, 100, rng)
    assert p0 == 0.0 and d0 == 0.0
    # F=1 counts every position but the origin, so p* approaches
    # 1 - pi(0) = 1 - O(1/l): inside the stated envelope
    p1, d1 = success_probability(line, 1.0, 1e5, 4000, rng)
    assert d1 < 2.5 / line.l


def _tv_tolerance(s):
    """Bound on |p_hat - p|_1 / 2 from an estimate's per-position stderr
    s: mean sqrt(2/pi) sum s plus 6 standard deviations,
    sqrt((1 - 2/pi) sum s^2) each."""
    return 0.5 * (np.sqrt(2.0 / np.pi) * s.sum()
                  + 6.0 * np.sqrt((1.0 - 2.0 / np.pi) * (s ** 2).sum()))


def test_exact_average_is_sampling_limit():
    rng = np.random.default_rng(8)
    # one line on each side of the dense/DST crossover
    for l, tau_star, samples in ((12, 500.0, 200_000),
                                 (600, 6e4, 20_000)):
        line = WalkLine(l)
        exact = exact_time_averaged_distribution(line, tau_star)
        mc = time_averaged_distribution(line, tau_star, samples, rng)
        assert exact.total_variation(mc) < _tv_tolerance(mc.stderr)
    line = WalkLine(12)
    # and it reproduces the limiting distribution as tau* grows
    far = exact_time_averaged_distribution(line, 1e7)
    assert far.total_variation(limiting_distribution(line)) < 1e-4


@pytest.mark.parametrize("tau_factor", [0.5, 1.0])
def test_tv_envelope_averages_over_tau_star(tau_factor):
    # before the time average has mixed, its TV from the limit moves with
    # the window (at l = 16 and tau* = l/2: 0.151 over [0, tau*], 0.716
    # over [0, tau*/4]), so the fit's per-line TVs pin the window it
    # averages over to the exact average's within the sampling error
    lines, samples = [WalkLine(16), WalkLine(64)], 2000
    _, tvs, _ = fit_tv_envelope(lines, tau_factor, samples,
                                np.random.default_rng(4))
    rng = np.random.default_rng(4)  # the fit's draws, for their stderr
    for line, tv in zip(lines, tvs):
        tau_star = tau_factor * line.l
        pi = limiting_distribution(line)
        exact = exact_time_averaged_distribution(line, tau_star)
        mc = time_averaged_distribution(line, tau_star, samples, rng)
        assert abs(tv - exact.total_variation(pi)) < _tv_tolerance(mc.stderr)


@pytest.mark.parametrize("l", [1, 2, 3, 12, 13])
@pytest.mark.parametrize("tau_star", [0.0, 0.5, 7.3])
def test_exact_average_matches_gauss_legendre(l, tau_star):
    line = WalkLine(l)
    if tau_star == 0.0:
        want = position_distribution(line, 0.0)
    else:
        x, w = np.polynomial.legendre.leggauss(200)
        taus = 0.5 * tau_star * (x + 1.0)
        want = sum(wi * position_distribution(line, t)
                   for wi, t in zip(w, taus)) / 2.0
    got = exact_time_averaged_distribution(line, tau_star).probabilities
    assert np.max(np.abs(got - want)) < 1e-10


def test_estimator_reports_stderr():
    rng = np.random.default_rng(5)
    avg = time_averaged_distribution(WalkLine(8), 1000.0, 500, rng)
    assert avg.stderr is not None and avg.stderr.shape == (8,)
    assert np.all(avg.stderr >= 0.0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        WalkDistribution(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        WalkDistribution(np.array([np.nan, np.nan]))
    text = distribution_dump(limiting_distribution(WalkLine(3)))
    assert text.splitlines()[0].startswith("0 ")


def test_measurement_reproducible(example_circuit):
    traj = run(build_initial(BuildSpec(small_circuit(2, 1), "I")),
               StepBudget(100, "dead_end"))
    m1, s1, _ = simulate_measurement(traj, 4.0, np.random.default_rng(123))
    m2, s2, _ = simulate_measurement(traj, 4.0, np.random.default_rng(123))
    assert m1 == m2 and s1.config_equal(s2)


def test_measurement_at_tau_zero(example_circuit):
    traj = run(build_initial(BuildSpec(small_circuit(2, 1), "I")),
               StepBudget(100, "dead_end"))
    m, state, _ = simulate_measurement(traj, 0.0, np.random.default_rng(0))
    assert m == 0 and state.config_equal(traj.start)


def test_measurement_l2_quarter_period():
    # at tau = pi/2 a 2-site walk sits entirely on position 1
    line = WalkLine(2)
    p = position_distribution(line, np.pi / 2)
    assert abs(p[1] - 1.0) < 1e-12


@pytest.mark.parametrize("l, far_fraction, expect", [
    (4, 0.5, 3 / 10),  # (1 - F) l = 2 exactly: the cut leaves m = 2 out
    (4, 0.75, 5 / 10),
    (4, 1.0, 7 / 10),  # m > 0: every site but the walk's start
    (4, 0.0, 0.0),
    (5, 0.5, 5 / 12),  # cut at 2.5: m = 3, 4
])
def test_far_mass_cuts_strictly(l, far_fraction, expect):
    far = limiting_distribution(WalkLine(l)).far_mass(far_fraction)
    assert far == pytest.approx(expect, rel=0, abs=1e-15)
