import math
import tracemalloc

import numpy as np
import pytest

from aodkit import addressing_analyzer as aa
from aodkit import aod_model as am
from aodkit import virtual_lab as vl
from aodkit.errors import (FitFailureError, OutOfRangeError, UnbracketedMinimumError,
                           ValidationError)
from test_validation import assert_rejected, rejection_cases

SPEC = am.AodSpec(150e6, 100e6, 5700.0, 355e-9, 1.5e-3)
STEERING_EFF = 1.557017543859649e-12  # m per Hz
EXTRA_GRID = np.linspace(0.0, 900e-9, 181)

# frozen closed-form value for (Omega, delta, t) = (2 pi 0.25 MHz, 2 pi 0.1 MHz, 3.3 us)
DETUNED_P1 = 0.10142978495487255
# frozen fits on the 181-point sweep above
PURE_DELAY_238NS_FIT = 2.383928891862086e-07
TRANSIT_RAMP_TSTAR = 3.4463031409045175e-07
LINEAR_RAMP_TSTAR = 3.4169807982872313e-07


def test_rabi_drive_pi_time_round_trip():
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    assert drive.pi_time == pytest.approx(2000e-9, rel=1e-12)
    assert drive.peak_rabi == pytest.approx(math.pi / 2000e-9, rel=1e-12)


def test_rabi_probability_resonant():
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    assert vl.rabi_probability(drive, 2000e-9) == pytest.approx(1.0, rel=1e-12)
    assert vl.rabi_probability(drive, 1000e-9) == pytest.approx(0.5, rel=1e-12)
    assert vl.rabi_probability(drive, 0.0) == 0.0


def test_rabi_probability_detuned_closed_form():
    drive = vl.RabiDrive(2 * math.pi * 0.25e6, 3.3e-6, detuning=2 * math.pi * 0.1e6)
    assert vl.rabi_probability(drive, 3.3e-6) == pytest.approx(DETUNED_P1, rel=1e-12)


def test_bloch_integrator_matches_closed_form(bloch_closed_form_worst):
    assert bloch_closed_form_worst < 1e-8


def test_profile_scan_noiseless_round_trip():
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    freqs = np.linspace(145e6, 155e6, 201)
    for w_in in (1.57e-6, 1.49e-6):
        trace = vl.simulate_profile_scan(w_in, STEERING_EFF, drive, freqs, 150e6)
        assert trace.kind == "frequency"
        assert trace.values.max() == pytest.approx(1.0, rel=1e-12)
        fit = vl.fit_gaussian_profile(trace, drive, STEERING_EFF)
        assert fit.waist == pytest.approx(w_in, rel=1e-6)
        assert fit.center_frequency == pytest.approx(150e6, abs=1.0)
        assert fit.peak_rabi == pytest.approx(drive.peak_rabi, rel=1e-6)
        assert fit.residual_rms < 1e-9


def test_profile_fit_takes_either_sweep_direction():
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    up, down = (vl.fit_gaussian_profile(
        vl.simulate_profile_scan(1.57e-6, STEERING_EFF, drive, freqs, 150e6),
        drive, STEERING_EFF)
        for freqs in (np.linspace(145e6, 155e6, 201), np.linspace(155e6, 145e6, 201)))
    assert up.waist == 1.569999999994717e-06
    for name in ("waist", "center_frequency", "peak_rabi"):
        assert getattr(down, name) == pytest.approx(getattr(up, name), rel=1e-12), name


@pytest.mark.parametrize("shots", [None, 200])
def test_profile_fit_rejects_zero_span(shots):
    # every point sits at one frequency: the trace holds no width to fit, and
    # the optimiser would stop on its waist floor rather than fail
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    freqs = np.full(201, 150e6)
    trace = vl.simulate_profile_scan(1.57e-6, STEERING_EFF, drive, freqs, 150e6,
                                     shots=shots, seed=3)
    with pytest.raises(FitFailureError, match="zero frequency span"):
        vl.fit_gaussian_profile(trace, drive, STEERING_EFF)


@pytest.mark.parametrize("detuning_mhz", [0.1, 0.3])
def test_profile_fit_rejects_detuned_drive(detuning_mhz):
    # the resonant model would fit this noiseless scan 10 % (0.1 MHz) to
    # 40 % (0.3 MHz) too wide without any error
    drive = vl.RabiDrive(math.pi / 2000e-9, 2000e-9, 2 * math.pi * detuning_mhz * 1e6)
    freqs = np.linspace(145e6, 155e6, 201)
    trace = vl.simulate_profile_scan(1.57e-6, STEERING_EFF, drive, freqs, 150e6)
    # the chain scan of one ion at the centre sees the same detuned drive
    one_ion = vl.simulate_chain_scan(aa.IonChain.uniform(1, 3.8e-6), 1.57e-6, STEERING_EFF,
                                     drive, freqs, 150e6)
    assert np.allclose(one_ion.per_ion[0], trace.values, rtol=1e-14, atol=0.0)
    with pytest.raises(ValidationError, match="detuning"):
        vl.fit_gaussian_profile(trace, drive, STEERING_EFF)


def test_profile_scan_shot_noise_statistics():
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    freqs = np.linspace(145e6, 155e6, 201)
    noisy = vl.simulate_profile_scan(1.57e-6, STEERING_EFF, drive, freqs, 150e6,
                                     shots=200, seed=11)
    again = vl.simulate_profile_scan(1.57e-6, STEERING_EFF, drive, freqs, 150e6,
                                     shots=200, seed=11)
    other = vl.simulate_profile_scan(1.57e-6, STEERING_EFF, drive, freqs, 150e6,
                                     shots=200, seed=12)
    assert np.array_equal(noisy.values, again.values)
    assert not np.array_equal(noisy.values, other.values)
    # binomial estimates live on the k/shots lattice
    assert np.allclose(noisy.values * 200, np.round(noisy.values * 200), atol=1e-9)
    fit = vl.fit_gaussian_profile(noisy, drive, STEERING_EFF)
    assert fit.waist == pytest.approx(1.57e-6, rel=0.05)


def test_profile_scan_amplitude_mode_round_trip():
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    freqs = np.linspace(145e6, 155e6, 201)
    trace = vl.simulate_profile_scan(1.57e-6, STEERING_EFF, drive, freqs, 150e6,
                                     mode="amplitude")
    fit = vl.fit_gaussian_profile(trace, drive, STEERING_EFF, mode="amplitude")
    assert fit.waist == pytest.approx(1.57e-6, rel=1e-6)


def test_least_squares_covariance_rule():
    t = np.linspace(0.0, 1.0, 7)
    y = 2.0 * t + 1.0 + 0.01 * np.cos(9.0 * t)
    design = np.column_stack([t, np.ones_like(t)])
    fit = vl._least_squares(lambda p: design @ p - y, lambda p: design, [0.0, 0.0],
                            lower=[-10.0, -10.0], upper=[10.0, 10.0], scale=[1.0, 1.0])
    coef, (sum_sq,), _, _ = np.linalg.lstsq(design, y, rcond=None)
    assert fit.success
    assert np.allclose(fit.x, coef, rtol=1e-9)
    # residual variance over m - p = 5 degrees of freedom
    expected = np.linalg.inv(design.T @ design) * sum_sq / 5
    assert np.allclose(fit.covariance, expected, rtol=1e-6)
    singular = vl._LsqFit(fit.x, fit.residuals, np.zeros((7, 2)), fit.cost, True)
    assert np.array_equal(singular.covariance, np.full((2, 2), math.inf))


def _captured_problems(monkeypatch, run):
    """The least-squares problems ``run`` poses, with the solver's answers."""
    problems = []

    def spy(residuals, jacobian, x0, lower, upper, scale):
        out = solve(residuals, jacobian, x0, lower, upper, scale)
        problems.append(((residuals, jacobian, x0, lower, upper, scale), out))
        return out

    solve = vl._least_squares
    monkeypatch.setattr(vl, "_least_squares", spy)
    run()
    monkeypatch.undo()
    return problems


def _check_against_trf(problems):
    """Cost no higher than scipy's finite-difference TRF, the same minimum
    as TRF given the analytic Jacobian, and that Jacobian right."""
    from scipy.optimize import least_squares

    for (residuals, jacobian, x0, lower, upper, scale), fit in problems:
        x, r, cost = fit.x, fit.residuals, fit.cost
        assert fit.success
        assert cost == pytest.approx(0.5 * float(r @ r), rel=1e-15)
        assert np.array_equal(fit.jacobian, jacobian(x))
        trf = least_squares(residuals, x0=x0, bounds=(lower, upper), x_scale=scale)
        assert trf.success and cost <= trf.cost * (1.0 + 1e-9)
        # finite-difference TRF stops up to 4e-4 from the minimum; given
        # the analytic Jacobian it meets this solver's answer
        exact = least_squares(residuals, jac=jacobian, x0=x0, bounds=(lower, upper),
                              x_scale=scale)
        assert exact.success
        assert np.all(np.abs(x - exact.x) <= 1e-4 * np.abs(exact.x))
        x0 = np.asarray(x0, dtype=float)
        h = 1e-6 * np.asarray(scale)
        for k in range(x.size):
            dx = np.zeros(x.size)
            dx[k] = h[k]
            central = 0.5 * (residuals(x0 + dx) - residuals(x0 - dx))
            assert np.allclose(jacobian(x0)[:, k] * h[k], central, rtol=1e-5, atol=1e-9)


@pytest.mark.parametrize("mode", ["intensity", "amplitude"])
@pytest.mark.parametrize("shots", [50, 200, 1000])
def test_profile_fit_solver_matches_trf(monkeypatch, mode, shots):
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    freqs = np.linspace(145e6, 155e6, 201)

    def run():
        for seed in range(4):
            trace = vl.simulate_profile_scan(1.45e-6 + 0.05e-6 * seed, STEERING_EFF, drive,
                                             freqs, 150e6 + 2e5 * seed, shots=shots,
                                             seed=seed, mode=mode)
            vl.fit_gaussian_profile(trace, drive, STEERING_EFF, mode=mode)
    problems = _captured_problems(monkeypatch, run)
    assert len(problems) == 4
    _check_against_trf(problems)


# (ions, spacing, waist, shots, seed) of a noisy crosstalk campaign whose
# ion-11 sinusoid ends with its amplitude on the 1.05 bound; clipping
# alone, without freezing that variable, stalls there.
BOUND_CASE = (20, 3.554023167073943e-06, 1.6227622185148693e-06, 200, 1486044420)
BOUND_CASE_OMEGA = 41.80341724
# per run below, (rabi_sigma, ratio_sigma) of every fitted ion; each bounded
# ion reports 0 for both (its peak readout is 0, so its rate bound is 0)
RUN_SIGMAS = [
    {9: (1.8745214280214548, 2.9713807556855565e-06),
     10: (803.4224560762364, 0.001800264085421816),
     11: (1.887718862130031, 2.992175498692433e-06)},
    {4: (0.16285354171305422, 4.882832128816766e-07),
     5: (776.7415191134169, 0.0017434424609006594),
     6: (0.15732297606309742, 4.838385960201766e-07)},
    {4: (0.07403943260399645, 1.5390434561908937e-07),
     5: (315.2637783273769, 0.0007070921523598201),
     6: (0.0731050723096031, 1.5267739421399058e-07)},
    {4: (0.4387695177322489, 7.125730810082271e-07),
     5: (780.628017105647, 0.0017540634474836132),
     6: (0.3829585243841033, 6.269391974798715e-07)},
]


def test_sinusoid_fit_solver_matches_trf(monkeypatch):
    times = np.linspace(0.0, 40e-3, 320)
    drive = vl.RabiDrive.from_pi_time(4980e-9)
    runs = [BOUND_CASE] + [(10, 3.0e-6 + 0.2e-6 * k, 1.5e-6 + 0.05e-6 * k,
                            (200, 1000)[k % 2], 40 + k) for k in range(3)]
    results = []

    def run():
        for ions, spacing, waist, shots, seed in runs:
            results.append(vl.simulate_crosstalk_experiment(
                aa.IonChain.uniform(ions, spacing), waist, ions // 2, times, drive,
                shots=shots, seed=seed))
    problems = _captured_problems(monkeypatch, run)
    assert len(problems) > 10
    _check_against_trf(problems)
    assert results[0].rabi_rates[11] == pytest.approx(BOUND_CASE_OMEGA, rel=1e-8)
    assert any(fit.x[1] == 1.05 and fit.x[0] == pytest.approx(BOUND_CASE_OMEGA, rel=1e-8)
               for _, fit in problems)
    for res, pinned in zip(results, RUN_SIGMAS, strict=True):
        assert np.flatnonzero(~res.bounded).tolist() == sorted(pinned)
        sigmas = {i: (float(res.rabi_sigmas[i]), float(res.ratio_sigmas[i]))
                  for i in np.flatnonzero((res.rabi_sigmas != 0) | (res.ratio_sigmas != 0))}
        assert sigmas == pinned


def test_chain_scan_resolves_every_ion():
    chain = aa.IonChain.uniform(30, 3.8e-6)
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    freqs = np.linspace(110e6, 190e6, 1601)
    res = vl.simulate_chain_scan(chain, 1.5e-6, STEERING_EFF, drive, freqs, 150e6)
    assert res.per_ion.shape == (30, 1601)
    assert vl.count_resolved_peaks(res.envelope) == 30
    assert res.per_ion.max(axis=1).min() == pytest.approx(0.9999961495063536, rel=1e-9)


def test_chain_scan_rejects_unreachable_ions():
    chain = aa.IonChain.uniform(30, 5e-6)
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    freqs = np.linspace(110e6, 190e6, 1601)
    with pytest.raises(OutOfRangeError) as exc:
        vl.simulate_chain_scan(chain, 1.5e-6, STEERING_EFF, drive, freqs, 150e6)
    assert exc.value.indices == (0, 1, 2, 27, 28, 29)


def test_count_resolved_peaks_merges_overlapping_ions():
    x = np.linspace(-20e-6, 20e-6, 2001)
    def envelope(spacing):
        w = 1.5e-6
        a = np.exp(-2 * (x + spacing / 2) ** 2 / w**2)
        b = 0.8 * np.exp(-2 * (x - spacing / 2) ** 2 / w**2)
        return vl.ScanTrace("frequency", x, np.maximum(a, b))
    assert vl.count_resolved_peaks(envelope(10e-6)) == 2
    # at half-waist spacing the weaker response rides on the stronger one's
    # shoulder and must not be counted as a separate ion
    assert vl.count_resolved_peaks(envelope(0.75e-6)) == 1


def _oracle_traces():
    """Seeded tie-free traces: white noise, noisy bumps, random walks."""
    rng = np.random.default_rng(17)
    for k in range(600):
        n = int(rng.integers(3, 400))
        if k % 3 == 0:
            y = rng.random(n)
        elif k % 3 == 1:
            u = np.linspace(0.0, rng.uniform(1.0, 40.0), n)
            y = np.abs(np.sin(u) + rng.uniform(0.0, 0.5) * rng.standard_normal(n))
        else:
            y = np.cumsum(rng.standard_normal(n))
            y = y - y.min()
        yield y / y.max() if y.max() > 0.0 else y


def test_count_resolved_peaks_matches_find_peaks_without_ties():
    from scipy.signal import find_peaks

    for y in _oracle_traces():
        assert np.unique(y).size == y.size
        trace = vl.ScanTrace("frequency", np.arange(y.size, dtype=float), y)
        want = find_peaks(y, height=0.5, prominence=0.25)[0].size
        assert vl.count_resolved_peaks(trace) == want


def test_count_resolved_peaks_flat_crest_counts_once():
    def count(values):
        v = np.array(values, dtype=float)
        return vl.count_resolved_peaks(vl.ScanTrace("frequency", np.arange(v.size), v))
    # a binomial-readout crest: samples at exactly 1.0 split by shallow dips
    assert count([0.0, 1.0, 0.98, 1.0, 0.99, 1.0, 0.0]) == 1
    assert count([0.0, 1.0, 1.0, 1.0, 0.0]) == 1
    # equal crests behind a deep valley are two ions
    assert count([0.0, 1.0, 0.1, 1.0, 0.0]) == 2
    # a crest touching the trace edge is not a peak
    assert count([1.0, 1.0, 0.0, 0.9, 0.0]) == 1


@pytest.mark.parametrize("shots", [50, 200, 1000])
def test_noisy_chain_scan_counts_every_ion(shots):
    chain = aa.IonChain.uniform(30, 3.8e-6)
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    freqs = np.linspace(110e6, 190e6, 1601)
    for seed in range(6):
        res = vl.simulate_chain_scan(chain, 1.5e-6, STEERING_EFF, drive, freqs, 150e6,
                                     shots=shots, seed=seed)
        assert vl.count_resolved_peaks(res.envelope) == 30, seed


def test_crosstalk_experiment_recovers_known_ratio():
    w = 1.5e-6
    ratio = 8.6e-4
    spacing = w * math.sqrt(-math.log(ratio) / 2.0)
    chain = aa.IonChain.uniform(3, spacing)
    drive = vl.RabiDrive.from_pi_time(4980e-9)
    times = np.linspace(0.0, 6.0e-3, 481)
    exp = vl.simulate_crosstalk_experiment(chain, w, 1, times, drive)
    assert exp.target_index == 1
    assert exp.ratios[1] == 1.0
    assert not exp.bounded.any()
    for j in (0, 2):
        assert exp.ratios[j] == pytest.approx(ratio, rel=1e-6)


def test_crosstalk_experiment_bounds_undetectable_neighbours():
    chain = aa.IonChain.uniform(3, 3.8e-6)
    drive = vl.RabiDrive.from_pi_time(4980e-9)
    times = np.linspace(0.0, 4.0e-2, 320)
    exp = vl.simulate_crosstalk_experiment(chain, 1.5e-6, 1, times, drive)
    assert exp.bounded[0] and exp.bounded[2]
    assert not exp.bounded[1]
    # the quarter-period bound coincides with the true rate on noiseless data
    assert exp.ratios[0] == pytest.approx(2.6643363505138902e-06, rel=1e-6)


def test_crosstalk_experiment_noise_determinism():
    chain = aa.IonChain.uniform(3, 2.5e-6)
    drive = vl.RabiDrive.from_pi_time(4980e-9)
    times = np.linspace(0.0, 2.0e-4, 161)
    a = vl.simulate_crosstalk_experiment(chain, 1.5e-6, 1, times, drive,
                                         shots=150, seed=5)
    b = vl.simulate_crosstalk_experiment(chain, 1.5e-6, 1, times, drive,
                                         shots=150, seed=5)
    assert np.array_equal(a.target_trace.values, b.target_trace.values)
    for ta, tb in zip(a.neighbor_traces, b.neighbor_traces):
        assert np.array_equal(ta.values, tb.values)
    assert np.array_equal(a.ratios, b.ratios)


def test_switching_pure_delay_round_trip():
    seq = vl.SwitchSequence(1750e-9, 1740e-9, vl.PureDelay(238e-9))
    res = vl.simulate_switching_experiment(seq, EXTRA_GRID)
    assert np.allclose(res.ion0.values, 0.5)
    fit = vl.fit_switch_time(res.delta)
    assert fit.switch_time == pytest.approx(PURE_DELAY_238NS_FIT, rel=1e-9)
    pitch = EXTRA_GRID[1] - EXTRA_GRID[0]
    assert abs(fit.switch_time - 238e-9) < pitch


def test_switching_pure_delay_any_injected_value():
    rng = np.random.default_rng(3)
    pitch = EXTRA_GRID[1] - EXTRA_GRID[0]
    for _ in range(12):
        ts = rng.uniform(60e-9, 520e-9)
        seq = vl.SwitchSequence(1750e-9, 1740e-9, vl.PureDelay(ts))
        fit = vl.fit_switch_time(vl.simulate_switching_experiment(seq, EXTRA_GRID).delta)
        assert abs(fit.switch_time - ts) < pitch


def test_switching_transit_ramp_frozen():
    seq = vl.SwitchSequence(1750e-9, 1740e-9, vl.TransitRamp(SPEC))
    fit = vl.fit_switch_time(vl.simulate_switching_experiment(seq, EXTRA_GRID).delta)
    assert fit.switch_time == pytest.approx(TRANSIT_RAMP_TSTAR, rel=1e-9)
    assert 200e-9 < fit.switch_time < 450e-9
    assert fit.sigma < 5e-9

    linear = vl.SwitchSequence(1750e-9, 1740e-9, vl.TransitRamp(SPEC, kind="linear"))
    lfit = vl.fit_switch_time(vl.simulate_switching_experiment(linear, EXTRA_GRID).delta)
    assert lfit.switch_time == pytest.approx(LINEAR_RAMP_TSTAR, rel=1e-9)


def test_switching_noise_determinism():
    seq = vl.SwitchSequence(1750e-9, 1740e-9, vl.PureDelay(238e-9))
    a = vl.simulate_switching_experiment(seq, EXTRA_GRID, shots=300, seed=21)
    b = vl.simulate_switching_experiment(seq, EXTRA_GRID, shots=300, seed=21)
    c = vl.simulate_switching_experiment(seq, EXTRA_GRID, shots=300, seed=22)
    assert np.array_equal(a.ion1.values, b.ion1.values)
    assert not np.array_equal(a.ion1.values, c.ion1.values)


def _draw(p, shots, seed, *key):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))
    return rng.binomial(shots, min(max(p, 0.0), 1.0)) / shots


@pytest.mark.parametrize("seed", [11, 2**32 + 7, 2**64 + 5],
                         ids=["one_word", "two_words", "three_words"])
def test_noise_key_layout_per_experiment(seed):
    # every noisy point is one binomial draw from SeedSequence((seed, *key)),
    # keyed per experiment as the virtual_lab docstring lists; a re-keying
    # changes every noisy trace and must update this test on purpose.  Seeds
    # of 2**32 and more reach the seed sequence as several 32-bit words.
    shots = 200
    freqs = np.linspace(149e6, 151e6, 9)
    clean = vl.simulate_profile_scan(1.5e-6, STEERING_EFF, _DRIVE, freqs, 150e6)
    noisy = vl.simulate_profile_scan(1.5e-6, STEERING_EFF, _DRIVE, freqs, 150e6,
                                     shots=shots, seed=seed)
    assert np.array_equal(noisy.values,
                          [_draw(p, shots, seed, i) for i, p in enumerate(clean.values)])

    chain = aa.IonChain.uniform(3, 1.2e-6)
    clean = vl.simulate_chain_scan(chain, 1.5e-6, STEERING_EFF, _DRIVE, freqs, 150e6)
    noisy = vl.simulate_chain_scan(chain, 1.5e-6, STEERING_EFF, _DRIVE, freqs, 150e6,
                                   shots=shots, seed=seed)
    assert np.array_equal(noisy.per_ion, [[_draw(p, shots, seed, j, i)
                                           for j, p in enumerate(row)]
                                          for i, row in enumerate(clean.per_ion)])

    chain = aa.IonChain.uniform(3, 2.5e-6)
    times = np.linspace(0.0, 2.0e-4, 41)
    drive = vl.RabiDrive.from_pi_time(4980e-9)
    clean = vl.simulate_crosstalk_experiment(chain, 1.5e-6, 1, times, drive)
    noisy = vl.simulate_crosstalk_experiment(chain, 1.5e-6, 1, times, drive,
                                             shots=shots, seed=seed)
    assert np.array_equal(noisy.target_trace.values,
                          [_draw(p, shots, seed, 0, 1, k)
                           for k, p in enumerate(clean.target_trace.values)])
    for ion, (tn, tc) in enumerate(zip(noisy.neighbor_traces, clean.neighbor_traces)):
        assert np.array_equal(tn.values, [_draw(p, shots, seed, 1, ion, k)
                                          for k, p in enumerate(tc.values)])

    seq = vl.SwitchSequence(1750e-9, 1740e-9, vl.PureDelay(238e-9))
    grid = EXTRA_GRID[::20]
    clean = vl.simulate_switching_experiment(seq, grid)
    noisy = vl.simulate_switching_experiment(seq, grid, shots=shots, seed=seed)
    for ion, (tn, tc) in enumerate(((noisy.ion0, clean.ion0), (noisy.ion1, clean.ion1))):
        assert np.array_equal(tn.values, [_draw(p, shots, seed, i, ion)
                                          for i, p in enumerate(tc.values)])
    assert np.array_equal(noisy.delta.values, np.abs(noisy.ion0.values - noisy.ion1.values))


def test_fit_switch_time_requires_interior_minimum():
    seq = vl.SwitchSequence(1750e-9, 1740e-9, vl.PureDelay(238e-9))
    beyond = np.linspace(600e-9, 900e-9, 61)
    res = vl.simulate_switching_experiment(seq, beyond)
    with pytest.raises(UnbracketedMinimumError):
        vl.fit_switch_time(res.delta)


def test_scan_trace_validation():
    with pytest.raises(ValidationError):
        vl.ScanTrace("time", np.array([0.0, 1.0]), np.array([0.2, 1.4]))
    with pytest.raises(ValidationError):
        vl.ScanTrace("voltage", np.array([0.0, 1.0]), np.array([0.2, 0.4]))
    with pytest.raises(ValidationError):
        vl.ScanTrace("time", np.array([0.0, 1.0]), np.array([0.2, math.nan]))
    with pytest.raises(ValidationError):
        vl.ScanTrace("time", np.array([0.0, math.inf]), np.array([0.2, 0.4]))


def test_negative_seed_rejected():
    drive = vl.RabiDrive.from_pi_time(2000e-9)
    freqs = np.linspace(145e6, 155e6, 11)
    with pytest.raises(ValidationError):
        vl.simulate_profile_scan(1.5e-6, STEERING_EFF, drive, freqs, 150e6,
                                 shots=10, seed=-1)


_DRIVE = vl.RabiDrive.from_pi_time(2000e-9)
_FREQS = np.linspace(145e6, 155e6, 11)


@pytest.mark.parametrize("shots, seed", [
    (200, 1.5), (200, "1"), (200, math.nan), (200, math.inf), (200, -1),
    (200.5, 1), (0, 1), (-3, 1), (math.nan, 1), ("200", 1),
], ids=["seed_fraction", "seed_string", "seed_nan", "seed_inf", "seed_negative",
        "shots_fraction", "shots_zero", "shots_negative", "shots_nan", "shots_string"])
def test_readout_rejects_bad_shots_and_seed(shots, seed):
    with pytest.raises(ValidationError):
        vl.simulate_profile_scan(1.5e-6, STEERING_EFF, _DRIVE, _FREQS, 150e6,
                                 shots=shots, seed=seed)


def test_readout_accepts_numpy_integers():
    args = (1.5e-6, STEERING_EFF, _DRIVE, _FREQS, 150e6)
    plain = vl.simulate_profile_scan(*args, shots=200, seed=7)
    numpy_ints = vl.simulate_profile_scan(*args, shots=np.int64(200), seed=np.uint32(7))
    assert np.array_equal(plain.values, numpy_ints.values)


def test_readout_working_set():
    # points go through in blocks of _READOUT_BLOCK: the peak is the output
    # plus one block's entropy rows, seed words and draws (1.7 x p.nbytes);
    # the whole trace as one block would reach about 23 x
    p = np.random.default_rng(5).random((401, 20))
    vl._readout(p[:2], 200, 3)  # warm-up outside the trace
    tracemalloc.start()
    try:
        vl._readout(p, 200, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * p.nbytes, peak / p.nbytes


_BLOCK = vl._READOUT_BLOCK
_READOUT_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1, 2**64 + 5,
                  np.int64(7), None]


@pytest.mark.parametrize("seed", _READOUT_SEEDS, ids=str)
def test_readout_matches_tuple_keyed_draws(seed):
    # the block-vectorised seeding draws exactly what one
    # Generator(PCG64(SeedSequence((seed, *key, *index)))) per point draws,
    # on 0-d to 3-D layouts across block edges, crosstalk keys and entropy
    # longer than the four-word pool (a three-word seed with a 3-D index)
    layouts = [((), ()), ((_BLOCK - 1,), ()), ((_BLOCK,), (0, 2)),
               ((_BLOCK + 1,), (1, 0)), ((_BLOCK + 1, 2), ()), ((2, 3, 33), ())]
    rng = np.random.default_rng(17)
    for shape, key in layouts:
        p = rng.uniform(-0.2, 1.2, shape)
        for shots in (1, 200, 1000):
            expected = np.empty(shape)
            for index in np.ndindex(shape):
                expected[index] = _draw(p[index], shots, 0 if seed is None else seed,
                                        *key, *index)
            got = vl._readout(p, shots, seed, *key)
            assert got.shape == shape
            assert got.tobytes() == expected.tobytes(), (shape, key, shots)


@pytest.mark.parametrize("words", [[0], [7, 3], [1, 2, 3, 4], [0xFFFFFFFF] * 5,
                                   [5, 1, 2**31, 0, 9, 0, 4, 6]], ids=len)
def test_vectorised_seeding_matches_numpy(words):
    # guards the copied SeedSequence constants and the hand-over to PCG64: a
    # change in numpy's seeding fails here by name rather than as a drifted draw
    seq = np.random.SeedSequence(words)
    seed_words = vl._seed_state(np.array([words], dtype=np.uint32))
    assert np.array_equal(seed_words[0], seq.generate_state(4, np.uint64))
    assert np.random.PCG64(vl._SeedWords(seed_words[0])).state == \
        np.random.PCG64(seq).state


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (3, np.uint64), (8, np.uint64),
                                            (624, np.uint32), (4, "uint64"), (4, np.int64)])
def test_seed_words_refuse_any_other_request(n_words, dtype):
    # PCG64 asks for exactly 4 np.uint64 words; anything else (SFC64 asks for
    # 3 uint64, MT19937 for 624 uint32) raises rather than seed from the wrong words
    words = vl._seed_state(np.array([[1, 2]], dtype=np.uint32))[0]
    with pytest.raises(ValueError, match="4 np.uint64 words"):
        vl._SeedWords(words).generate_state(n_words, dtype)


@pytest.mark.parametrize("build", rejection_cases("virtual_lab"))
def test_lab_non_finite_input_rejected(build):
    assert_rejected(build)
