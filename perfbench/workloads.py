"""The in-process workloads: generated inputs, one op each, output checks.

Every input is drawn from the workload seed.  Sizes follow a fixed
schedule so that runs with different seeds do the same amount of work in
the same order; everything else -- chain spacings and shapes, waists,
designs, noise streams -- comes from the seed.

An op runs all of its steps even when one fails, so its time does not
depend on where it failed.  A failed check is recorded as
``(step, message, known)``; ``known`` names one of the two defects of the
noisy path that the benchmark keeps visible on purpose, as measured
accuracy rather than as failed ops (see ``run.py``):

``peak_overcount``
    ``count_resolved_peaks`` over-counts noisy chain scans: binomial readout
    flattens each crest into plateaus that all pass the prominence test.
``switch_fit_noisy``
    ``fit_switch_time`` on a noisy sweep finds no upward curvature, or a
    dip outside the 200-450 ns window.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from aodkit import addressing_analyzer as aa
from aodkit import aod_model, beam_optics, bloch, prism_designer, virtual_lab
from aodkit.cli.config import parse_config
from common import SWITCH_WINDOW_NS

UM = 1e-6
MHZ = 1e6
NS = 1e-9

CLIPPING_RATIOS = (0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0)


def reference_system(config_path):
    """The reference system every in-process workload perturbs."""
    cfg = parse_config(config_path)
    f0 = cfg.aod.center_frequency
    eff = (aod_model.steering_map(cfg.aod, cfg.train, f0 + MHZ)
           - aod_model.steering_map(cfg.aod, cfg.train, f0)) / MHZ
    return cfg, eff


class Checks:
    """Failed output checks of one op."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, step, message, known=None):
        if not ok:
            self.failures.append((step, message, known))
        return ok

    def run(self, step, fn, known=None, known_text=None):
        """Call ``fn``; a raise fails the step, and the op, but not the campaign.

        The raise counts as the ``known`` defect when its message holds
        ``known_text``.
        """
        try:
            return fn()
        except Exception as exc:  # every raise of the program is a failed step
            match = known if known_text is not None and known_text in str(exc) else None
            self.failures.append((step, f"{type(exc).__name__}: {exc}", match))
            return None


# ---------------------------------------------------------------------------
# lab-noisy
# ---------------------------------------------------------------------------

# Fixed schedule of ion counts: runs with different seeds then do the same
# work, and only the systems' details vary.  Most ops share the middle size
# so that the median and the tail op (see common.tail) fall inside one size
# for any whole number of passes from three to six, instead of on the edge
# between two sizes.  Shots and ramp model cycle independently of the size.
LAB_IONS = (10, 20, 20, 20, 40)
LAB_SHOTS = (200, 1000)
LAB_RAMPS = ("field_overlap", "field_overlap", "linear", "linear")
LAB_POINTS = 1601
WAIST_TOLERANCE = 0.05  # relative, the repo's own 200-shot profile-fit tolerance
BLOCH_TOLERANCE = 1e-8


@dataclass(frozen=True)
class LabSystem:
    ions: int
    spacing: float
    waist: float
    shots: int
    ramp: str
    center_offset: float
    noise_seed: int


def lab_inputs(seed, count):
    rng = np.random.default_rng([seed, 1])
    systems = []
    for k in range(count):
        systems.append(LabSystem(
            ions=LAB_IONS[k % len(LAB_IONS)],
            spacing=float(rng.uniform(3.0, 3.7)) * UM,
            waist=float(rng.uniform(1.45, 1.65)) * UM,
            shots=LAB_SHOTS[k % len(LAB_SHOTS)],
            ramp=LAB_RAMPS[k % len(LAB_RAMPS)],
            center_offset=float(rng.uniform(-1.0, 1.0)) * MHZ,
            noise_seed=int(rng.integers(0, 2**31)),
        ))
    return systems


def lab_tiny_inputs(seed, count):
    return [replace(s, ions=min(s.ions, 6)) for s in lab_inputs(seed, count)]


def lab_campaign(system, ref, points=LAB_POINTS):
    """One calibration campaign on one system; returns (observations, checks)."""
    cfg, eff = ref
    checks = Checks()
    fc = cfg.aod.center_frequency + system.center_offset
    pi_time = 2000.0 * NS
    drive = virtual_lab.RabiDrive.from_pi_time(pi_time)
    shots, seed = system.shots, system.noise_seed

    # Beam-profile scan over one ion and a Gaussian fit of the waist.
    freqs = np.linspace(fc - 5.0 * MHZ, fc + 5.0 * MHZ, 201)
    trace = checks.run("simulate_profile_scan", lambda: virtual_lab.simulate_profile_scan(
        system.waist, eff, drive, freqs, fc, shots=shots, seed=seed))
    fit = trace and checks.run("fit_gaussian_profile", lambda: virtual_lab.fit_gaussian_profile(
        trace, drive, eff))
    if fit is not None:
        err = abs(fit.waist - system.waist) / system.waist
        checks.expect(err <= WAIST_TOLERANCE, "fit_gaussian_profile",
                      f"fitted waist off by {err:.3g} (> {WAIST_TOLERANCE})")

    # Chain scan across the whole chain and a peak count.
    chain = aa.IonChain.uniform(system.ions, system.spacing)
    half = (0.5 * (system.ions - 1) * system.spacing + 3.0 * system.waist) / abs(eff)
    chain_freqs = np.linspace(cfg.aod.center_frequency - half,
                              cfg.aod.center_frequency + half, points)
    scan = checks.run("simulate_chain_scan", lambda: virtual_lab.simulate_chain_scan(
        chain, system.waist, eff, drive, chain_freqs, cfg.aod.center_frequency,
        shots=shots, seed=seed))
    peaks = scan and checks.run("count_resolved_peaks",
                                lambda: virtual_lab.count_resolved_peaks(scan.envelope))
    wrong_peaks = peaks != system.ions
    if peaks is not None:
        checks.expect(not wrong_peaks, "count_resolved_peaks",
                      f"{peaks} peaks for {system.ions} ions",
                      known="peak_overcount" if peaks > system.ions else None)

    # Crosstalk experiment on the centre ion, reference timing.
    times = np.linspace(0.0, 40e-3, 320)
    checks.run("simulate_crosstalk_experiment",
               lambda: virtual_lab.simulate_crosstalk_experiment(
                   chain, system.waist, system.ions // 2, times,
                   virtual_lab.RabiDrive.from_pi_time(4980.0 * NS),
                   shots=shots, seed=seed))

    # Switching-time sweep through the acoustic transit ramp.
    seq = virtual_lab.SwitchSequence(
        pi2_time_ion0=1750.0 * NS, pi2_time_ion1=1740.0 * NS,
        model=virtual_lab.TransitRamp(cfg.aod, kind=system.ramp), settle_time=826.0 * NS)
    extra = np.linspace(0.0, 900.0 * NS, 181)
    sweep = checks.run("simulate_switching_experiment",
                       lambda: virtual_lab.simulate_switching_experiment(
                           seq, extra, shots=shots, seed=seed))
    switch = sweep and checks.run(
        "fit_switch_time", lambda: virtual_lab.fit_switch_time(sweep.delta),
        known="switch_fit_noisy", known_text="no upward curvature")
    switch_failed = switch is None
    if switch is not None:
        lo, hi = SWITCH_WINDOW_NS
        t_ns = switch.switch_time / NS
        switch_failed = not checks.expect(
            lo <= t_ns <= hi, "fit_switch_time", f"switch time {t_ns:.1f} ns outside {lo}-{hi} ns",
            known="switch_fit_noisy" if shots else None)

    # Reference integrator against the closed form at the campaign's drives.
    omega1 = 0.5 * math.pi / seq.pi2_time_ion1
    points_checked = (
        (drive.peak_rabi, 0.0, pi_time),
        (drive.peak_rabi * aa.relative_rate(system.waist, 0.5 * system.waist), 0.0, pi_time),
        (omega1, 0.0, seq.pi2_time_ion1 + aod_model.theoretical_switch_time(cfg.aod)),
    )
    bloch_err = 0.0
    for om, det, t in points_checked:
        got = checks.run("bloch.excited_population",
                         lambda: bloch.excited_population(om, det, t))
        if got is not None:
            ref = virtual_lab.rabi_probability(virtual_lab.RabiDrive(om, t, det), t)
            bloch_err = max(bloch_err, abs(got - ref))
    checks.expect(bloch_err <= BLOCH_TOLERANCE, "bloch.excited_population",
                  f"integrator off the closed form by {bloch_err:.3g}")

    n_ions = system.ions
    simulated = freqs.size + n_ions * points + (n_ions + 1) * times.size + 2 * extra.size
    obs = {
        "simulated_points": simulated,
        "noisy_points": simulated if shots else 0,
        "offsets": n_ions * n_ions,
        "distinct_offsets": 2 * n_ions - 1,
        "peaks_counted": 1,
        "peaks_wrong": int(peaks is None or wrong_peaks),
        "switch_fits": 1,
        "switch_fit_failed": int(switch_failed),
        "bloch_max_abs_err": bloch_err,
    }
    return obs, checks


# ---------------------------------------------------------------------------
# design-sweep
# ---------------------------------------------------------------------------

# Fixed schedule of ion counts, as for LAB_IONS (the median and tail op are
# 10-ion ones, near the middle of that size, for two or three passes);
# uniform and harmonic chains alternate.  The 30- and 40-ion sweeps build
# 118 MB and 210 MB phase matrices, whose page faults make them the noisiest
# ops on a shared host, so the median size is a small one.
DESIGN_IONS = (5, 10, 10, 10, 10, 10, 10, 30, 40)
MC_SAMPLES = 1_000_000
OPEN_APERTURE_FLOOR = 1e-6
STEER_POINTS = 101


@dataclass(frozen=True)
class DesignCase:
    alpha: float
    beta: float
    beta_prime: float
    index: float
    target: float
    positions: tuple
    uniform: bool
    ion_waist: float
    mc_seed: int


def harmonic_positions(count, min_spacing):
    """Approximate equilibrium of ``count`` ions in a harmonic trap.

    Positions are quantiles of the parabolic line density of a long
    Coulomb crystal, scaled so the closest pair sits ``min_spacing``
    apart: ions crowd in the centre and spread towards the ends.
    """
    q = (np.arange(count) + 0.5) / count
    # invert F(z) = (3 z - z^3) / 4 + 1/2 on [-1, 1] by bisection
    lo, hi = -np.ones(count), np.ones(count)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = (3.0 * mid - mid**3) / 4.0 + 0.5 < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    z = 0.5 * (lo + hi)
    if count > 1:
        z = z * (min_spacing / np.min(np.diff(z)))
    return tuple(float(v) for v in z)


def design_inputs(seed, count):
    rng = np.random.default_rng([seed, 2])
    alpha0, _ap, beta0, betap0, n0 = prism_designer.ANCHOR_DESIGN_ANGLES
    cases = []
    for k in range(count):
        ions, uniform = DESIGN_IONS[k % len(DESIGN_IONS)], k % 2 == 0
        spacing = float(rng.uniform(3.0, 4.5)) * UM
        if uniform:
            positions = aa.IonChain.uniform(ions, spacing).positions
        else:
            positions = harmonic_positions(ions, spacing)
        cases.append(DesignCase(
            alpha=alpha0 + float(rng.uniform(-1.0, 1.0)),
            beta=beta0 + float(rng.uniform(-0.5, 0.5)),
            beta_prime=betap0 + float(rng.uniform(-0.5, 0.5)),
            index=n0 + float(rng.uniform(-0.003, 0.003)),
            target=prism_designer.ANCHOR_EXPANSION * float(rng.uniform(0.95, 1.05)),
            positions=positions,
            uniform=uniform,
            ion_waist=float(rng.uniform(1.4, 1.6)) * UM,
            mc_seed=int(rng.integers(0, 2**31)),
        ))
    return cases


def design_tiny_inputs(seed, count):
    return [replace(c, positions=c.positions[:4]) for c in design_inputs(seed, count)]


def _check_matrix(checks, step, matrix):
    v = matrix.values
    ok = np.all(np.isfinite(v)) and np.all((v >= -1e-12) & (v <= 1.0 + 1e-9))
    checks.expect(bool(ok), step, "crosstalk values not finite or outside [0, 1]")
    checks.expect(bool(np.allclose(np.diag(v), 1.0, rtol=0.0, atol=1e-9)), step,
                  "crosstalk diagonal is not 1")


def design_evaluation(case, ref, mc_samples=MC_SAMPLES):
    """One design evaluation; returns (observations, checks)."""
    cfg, _eff = ref
    checks = Checks()

    solution = checks.run("solve_alpha_prime", lambda: prism_designer.solve_alpha_prime(
        case.target, case.alpha, case.beta, case.beta_prime, case.index))
    design = None
    if solution is not None:
        design = prism_designer.PrismPairDesign(
            case.alpha, solution.alpha_prime, case.beta, case.beta_prime, case.index)
        achieved = prism_designer.expansion_factor(design)
        checks.expect(abs(achieved - case.target) <= 1e-6 * case.target
                      and abs(solution.expansion - case.target) <= 1e-6 * case.target,
                      "solve_alpha_prime", f"solved M {achieved:.9g} misses {case.target:.9g}")
        checks.run("sensitivity", lambda: prism_designer.sensitivity(design))
        rep = checks.run("tolerance_monte_carlo", lambda: prism_designer.tolerance_monte_carlo(
            design, cfg.prism.tolerances, mc_samples, case.mc_seed))
        if rep is not None:
            checks.expect(rep.feasible_samples + rep.infeasible_samples == mc_samples,
                          "tolerance_monte_carlo", "feasible + infeasible != samples")

    chain = aa.IonChain(case.positions)
    ideal = checks.run("crosstalk_matrix", lambda: aa.crosstalk_matrix(chain, case.ion_waist))
    if ideal is not None:
        _check_matrix(checks, "crosstalk_matrix", ideal)
    clipped = None
    for ratio in CLIPPING_RATIOS:
        clipped = checks.run("clipped_crosstalk", lambda: aa.clipped_crosstalk(
            chain, case.ion_waist, ratio, collimated_waist=cfg.addressing.collimated_waist,
            wavelength=cfg.wavelength))
        if clipped is not None:
            _check_matrix(checks, "clipped_crosstalk", clipped)
    if ideal is not None and clipped is not None and len(chain) > 1:
        # The widest aperture must give the ideal Gaussian: within the 3 % the
        # repo's own open-aperture test allows, above the ~1e-8 diffraction
        # floor that a hard edge three waists out still leaves.
        gap = float(np.max(np.abs(clipped.values - ideal.values)))
        want = ideal.worst_offdiagonal()
        checks.expect(gap <= 0.03 * want + OPEN_APERTURE_FLOOR, "clipped_crosstalk",
                      f"open aperture is {gap:.3g} from the ideal Gaussian "
                      f"(worst neighbour {want:.3g})")

    # Steering band sweep and beam trace through the train with this design.
    mx = design and prism_designer.expansion_factor(design) or case.target
    train = beam_optics.OpticalTrain((beam_optics.AnamorphicScaler(mx=mx, mz=1.0),)
                                     + tuple(cfg.train)[1:])
    lo, hi = cfg.aod.band()
    spots = checks.run("steering_map", lambda: np.array([
        aod_model.steering_map(cfg.aod, train, f) for f in np.linspace(lo, hi, STEER_POINTS)]))
    if spots is not None:
        checks.expect(bool(np.all(np.isfinite(spots)) and np.all(np.diff(spots) > 0.0)),
                      "steering_map", "steering map is not finite and increasing")
    steps = checks.run("trace_train", lambda: beam_optics.trace_train(cfg.input_beam, train))
    if steps is not None:
        final = steps[-1].beam
        checks.expect(final.x.waist_radius > 0.0 and math.isfinite(final.x.waist_radius),
                      "trace_train", "final waist not finite and positive")

    offsets = {round((b - a) * 1e15) for a in case.positions for b in case.positions}
    obs = {
        "offsets": len(case.positions) ** 2,
        "distinct_offsets": len(offsets),
        "simulated_points": 0,
        "noisy_points": 0,
    }
    return obs, checks


WORKLOADS = {
    "lab-noisy": {"inputs": lab_inputs, "tiny": lab_tiny_inputs, "op": lab_campaign,
                  "period": len(LAB_IONS)},
    "design-sweep": {"inputs": design_inputs, "tiny": design_tiny_inputs,
                     "op": design_evaluation, "period": len(DESIGN_IONS)},
}


def summarise_inputs(name, inputs):
    """Short description of the generated inputs of a run."""
    if name == "lab-noisy":
        return {
            "systems": len(inputs),
            "ions": [s.ions for s in inputs[:8]],
            "ion_range": [min(s.ions for s in inputs), max(s.ions for s in inputs)],
            "shots": sorted({s.shots for s in inputs}),
            "ramps": sorted({s.ramp for s in inputs}),
            "chain_scan_points": LAB_POINTS,
            "spacing_um": [round(min(s.spacing for s in inputs) / UM, 3),
                           round(max(s.spacing for s in inputs) / UM, 3)],
            "waist_um": [round(min(s.waist for s in inputs) / UM, 3),
                         round(max(s.waist for s in inputs) / UM, 3)],
        }
    return {
        "designs": len(inputs),
        "ions": [len(c.positions) for c in inputs[:8]],
        "uniform_share": sum(c.uniform for c in inputs) / len(inputs),
        "target_expansion": [round(min(c.target for c in inputs), 4),
                             round(max(c.target for c in inputs), 4)],
        "clipping_ratios": list(CLIPPING_RATIOS),
        "mc_samples": MC_SAMPLES,
        "steer_points": STEER_POINTS,
    }
