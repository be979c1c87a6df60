"""CLI command handlers.

Every handler takes a :class:`RunContext` and returns ``(results,
artifacts)``: a dict of summary values and a list of
:class:`~aodkit.cli.report.Table` and :class:`~aodkit.cli.report.Plot`
declarations.  Handlers open no file; the shared runner writes the
artifacts, then wraps it all with config parsing, seed resolution,
report writing and exit-code mapping.
"""

import math
import os
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .. import addressing_analyzer as addressing
from .. import aod_model, beam_optics, prism_designer
from ..errors import ConfigError
from .config import MHZ, NS, UM
from .report import Plot, Table


@dataclass
class RunContext:
    cfg: object
    seed: int = None
    target: float = None
    generated_seed: bool = field(default=False, init=False)

    def require_seed(self):
        if self.seed is None:
            self.seed = int.from_bytes(os.urandom(4), "big")
            self.generated_seed = True
        return self.seed

    def seed_for(self, shots):
        """Seed of an experiment: a noisy one (``shots`` set) needs one."""
        return self.require_seed() if shots is not None else self.seed


def _require(cfg, *sections):
    """Raise one ConfigError naming every section in ``sections`` (dotted
    paths such as ``experiments.crosstalk``) that the configuration lacks."""
    missing = [s for s in sections if attrgetter(s)(cfg) is None]
    if missing:
        raise ConfigError(
            "configuration is missing sections required by this command",
            [f"config.{s}: required by this command" for s in missing])


def _steering_efficiency(cfg, override):
    """m per Hz at the ion plane; measured override wins over the model."""
    if override is not None:
        return override
    _require(cfg, "aod", "train")
    return aod_model.steering_efficiency(cfg.aod, cfg.train)


def _element_label(el):
    return type(el).__name__


# ---------------------------------------------------------------------------
# Prism commands
# ---------------------------------------------------------------------------


def cmd_design_prism(ctx):
    cfg = ctx.cfg
    _require(cfg, "prism")
    design = cfg.prism.design
    target = ctx.target
    if target is None:
        target = cfg.prism.target_expansion or prism_designer.ANCHOR_EXPANSION

    configured = prism_designer.expansion_factor(design)
    solution = prism_designer.solve_alpha_prime(
        target, design.alpha, design.beta, design.beta_prime, design.refractive_index)
    sens = prism_designer.sensitivity(design)
    tol = cfg.prism.tolerances
    weighted = {name: abs(sens[name]) * getattr(tol, name)
                for name in prism_designer.ANGLE_NAMES}

    grid = np.linspace(5.0, 60.0, 221)
    contour = prism_designer.expansion_contour(
        np.array([design.alpha]), grid, design.beta, design.beta_prime,
        design.refractive_index)
    curve = contour.values[0]

    results = {
        "convention": prism_designer.CONVENTION,
        "target_expansion": float(target),
        "solved_alpha_prime_deg": solution.alpha_prime,
        "achieved_expansion": solution.expansion,
        "degenerate": solution.degenerate,
        "configured_alpha_prime_deg": design.alpha_prime,
        "configured_expansion": configured,
        "sensitivity_percent_per_deg": sens,
        "tolerance_weighted_percent": weighted,
    }
    return results, [
        Table("design_prism.csv", ["alpha_prime_deg", "expansion"], zip(grid, curve)),
        Plot("design_prism.svg", grid,
             {"expansion": curve, "target": np.full(grid.shape, target)},
             xlabel="alpha_prime (deg)", ylabel="expansion factor M",
             title="Prism-pair expansion against second mounting angle"),
    ]


def cmd_tolerance(ctx):
    cfg = ctx.cfg
    _require(cfg, "prism")
    seed = ctx.require_seed()
    rep = prism_designer.tolerance_monte_carlo(
        cfg.prism.design, cfg.prism.tolerances, cfg.prism.monte_carlo_samples,
        seed, keep_values=True)

    counts, edges = np.histogram(rep.values, bins=60)
    centers = 0.5 * (edges[:-1] + edges[1:])
    results = {
        "convention": prism_designer.CONVENTION,
        "design_expansion": rep.design_expansion,
        "samples": rep.samples,
        "feasible_samples": rep.feasible_samples,
        "infeasible_samples": rep.infeasible_samples,
        "mean": rep.mean,
        "std": rep.std,
        "minimum": rep.minimum,
        "maximum": rep.maximum,
        "worst_case_relative_error_pct": 100.0 * rep.worst_case_relative_error,
        "worst_case_linear_error_pct": 100.0 * rep.worst_case_linear_error,
        "per_angle_relative_error_pct": {
            k: 100.0 * v for k, v in rep.per_angle_relative_errors.items()},
        "tolerances_deg": rep.tolerances,
    }
    return results, [
        Table("tolerance.csv", ["expansion_bin_center", "count"], zip(centers, counts)),
        Plot("tolerance.svg", centers, {"samples": counts},
             xlabel="expansion factor M", ylabel="samples per bin",
             title="Monte-Carlo expansion spread under mounting tolerances"),
    ]


# ---------------------------------------------------------------------------
# Optics commands
# ---------------------------------------------------------------------------


def cmd_trace(ctx):
    cfg = ctx.cfg
    _require(cfg, "input_beam", "train")
    steps = beam_optics.trace_train(cfg.input_beam, cfg.train)

    header = ["index", "element", "spot_x_um", "spot_z_um",
              "waist_radius_x_um", "waist_radius_z_um",
              "waist_position_x_um", "waist_position_z_um",
              "centroid_x_um", "tilt_x_mrad", "power_fraction"]

    def row(index, label, beam):
        return (
            index, label,
            beam_optics.spot_size_at(beam, "x") / UM,
            beam_optics.spot_size_at(beam, "z") / UM,
            beam.x.waist_radius / UM, beam.z.waist_radius / UM,
            beam.x.waist_position / UM, beam.z.waist_position / UM,
            beam.x.centroid / UM, beam.x.tilt * 1e3, beam.power_fraction,
        )

    rows = [row(-1, "input", cfg.input_beam)]
    rows += [row(s.index, _element_label(s.element), s.beam) for s in steps]
    final = steps[-1].beam
    results = {
        "elements": len(cfg.train),
        "final_waist_x_um": final.x.waist_radius / UM,
        "final_waist_z_um": final.z.waist_radius / UM,
        "final_waist_position_x_um": final.x.waist_position / UM,
        "final_waist_position_z_um": final.z.waist_position / UM,
        "final_spot_x_um": beam_optics.spot_size_at(final, "x") / UM,
        "final_spot_z_um": beam_optics.spot_size_at(final, "z") / UM,
        "power_fraction": final.power_fraction,
    }
    return results, [
        Table("trace.csv", header, rows),
        Plot("trace.svg", [r[0] for r in rows],
             {"spot x": [r[2] for r in rows], "spot z": [r[3] for r in rows]},
             xlabel="element index (-1 = input)", ylabel="spot radius (um)",
             title="Beam spot size through the train", ylog=True),
    ]


def _fourier_subtrain(train):
    """Elements up to the back focal plane of the first x lens after the AOD,
    of a train that :func:`aod_model.steering_map` accepts."""
    elements = list(train)
    aod_idx = next(i for i, el in enumerate(elements)
                   if isinstance(el, beam_optics.AodDeflector))
    end = 1 + next(j for j in range(aod_idx + 1, len(elements))
                   if isinstance(elements[j], beam_optics.ThinLens)
                   and elements[j].axis in ("x", "both"))
    if end < len(elements) and isinstance(elements[end], beam_optics.FreeSpace):
        end += 1
    return beam_optics.OpticalTrain(tuple(elements[:end]))


def cmd_steer(ctx):
    cfg = ctx.cfg
    _require(cfg, "aod", "train")
    spec = cfg.aod
    lo, hi = spec.band()
    freqs = np.linspace(lo, hi, 101)

    ion = aod_model.steering_map(spec, cfg.train, freqs)  # checks the train first
    fourier = aod_model.steering_map(spec, _fourier_subtrain(cfg.train), freqs)
    angles = aod_model.deflection_angle(spec, freqs)

    eff = _steering_efficiency(cfg, None)
    results = {
        "full_band_deflection_mrad": aod_model.full_band_swing(spec) * 1e3,
        "fourier_span_um": float(fourier[-1] - fourier[0]) / UM,
        "ion_span_um": float(ion[-1] - ion[0]) / UM,
        "steering_efficiency_um_per_mhz": eff / (UM / MHZ),
        "band_mhz": [lo / MHZ, hi / MHZ],
    }
    return results, [
        Table("steer.csv", ["f_mhz", "deflection_mrad", "fourier_um", "ion_um"],
              zip(freqs / MHZ, angles * 1e3, fourier / UM, ion / UM)),
        Plot("steer.svg", freqs / MHZ,
             {"ion plane": ion / UM, "Fourier plane": fourier / UM},
             xlabel="drive frequency (MHz)", ylabel="displacement (um)",
             title="Steering map across the rated band"),
    ]


def cmd_efficiency(ctx):
    cfg = ctx.cfg
    _require(cfg, "aod")
    spec = cfg.aod
    lo, hi = spec.band()
    freqs = np.linspace(lo, hi, 121)
    eta = aod_model.diffraction_efficiency(spec, freqs)

    results = {
        "peak_efficiency": spec.peak_efficiency,
        "efficiency_width_mhz": spec.efficiency_width / MHZ,
        "edge_efficiency_low": float(eta[0]),
        "edge_efficiency_high": float(eta[-1]),
        "min_over_band": float(eta.min()),
        "band_mhz": [lo / MHZ, hi / MHZ],
    }
    return results, [
        Table("efficiency.csv", ["f_mhz", "efficiency"], zip(freqs / MHZ, eta)),
        Plot("efficiency.svg", freqs / MHZ, {"efficiency": eta},
             xlabel="drive frequency (MHz)", ylabel="diffraction efficiency",
             title="Diffraction efficiency across the rated band"),
    ]


def cmd_monitor(ctx):
    cfg = ctx.cfg
    _require(cfg, "aod", "monitor")
    spec, chain, power = cfg.aod, cfg.monitor, cfg.beam_power
    lo, hi = spec.band()
    freqs = np.linspace(lo, hi, 121)
    eta = aod_model.diffraction_efficiency(spec, freqs)
    volts = aod_model.monitor_voltage(chain, power, eta)

    gain = aod_model.monitor_voltage(chain, power, 1.0)
    linearity = float(np.max(np.abs(volts / gain - eta)))

    results = {
        "beam_power_w": power,
        "peak_voltage_v": float(volts.max()),
        "voltage_at_center_v": float(aod_model.monitor_voltage(
            chain, power, aod_model.diffraction_efficiency(spec, spec.center_frequency))),
        "max_linearity_deviation": linearity,
    }
    return results, [
        Table("monitor.csv", ["f_mhz", "efficiency", "voltage_v"],
              zip(freqs / MHZ, eta, volts)),
        Plot("monitor.svg", freqs / MHZ, {"voltage (V)": volts},
             xlabel="drive frequency (MHz)", ylabel="monitor voltage (V)",
             title="Pick-off monitor voltage across the band"),
    ]


# ---------------------------------------------------------------------------
# Addressing commands
# ---------------------------------------------------------------------------


def cmd_crosstalk(ctx):
    cfg = ctx.cfg
    _require(cfg, "chain", "addressing")
    addr = cfg.addressing
    ideal = addressing.crosstalk_matrix(cfg.chain, addr.ion_waist, mode=addr.coupling)

    n = len(cfg.chain)
    nn = addressing.relative_rate(addr.ion_waist, np.diff(cfg.chain.array).min(),
                                  mode=addr.coupling) if n >= 2 else 0.0

    sweep = []
    for ratio in addr.clipping_ratios:
        clipped = addressing.clipped_crosstalk(
            cfg.chain, addr.ion_waist, ratio,
            collimated_waist=addr.collimated_waist,
            wavelength=cfg.wavelength, mode=addr.coupling)
        sweep.append((ratio, clipped.worst_offdiagonal()))

    results = {
        "coupling": addr.coupling,
        "ion_waist_um": addr.ion_waist / UM,
        "ideal_worst_offdiagonal": ideal.worst_offdiagonal(),
        "nearest_neighbor_rate": float(nn),
        "clipping_sweep": {f"{r:g}": w for r, w in sweep},
    }
    return results, [
        Table("crosstalk_matrix.csv", ["ion", "beam_center", "relative_rate"],
              [(i, j, ideal.values[i, j]) for i in range(n) for j in range(n)]),
        Table("crosstalk_clipping.csv",
              ["clipping_ratio", "worst_offdiagonal", "ideal_worst_offdiagonal"],
              [(r, w, ideal.worst_offdiagonal()) for r, w in sweep]),
        Plot("crosstalk.svg", [r for r, _ in sweep],
             {"clipped": [w for _, w in sweep],
              "ideal": [ideal.worst_offdiagonal()] * len(sweep)},
             xlabel="aperture half-width / collimated waist",
             ylabel="worst neighbour relative rate",
             title="Crosstalk against clipping ratio", ylog=True),
    ]


def cmd_misalign(ctx):
    cfg = ctx.cfg
    _require(cfg, "addressing")
    addr = cfg.addressing
    at_config = addressing.misalignment_imbalance(
        addr.misalignment_angle, addr.steering_half_range, addr.perpendicular_waist)

    max_deg = max(2.0 * math.degrees(addr.misalignment_angle), 2.0)
    angles_deg = np.linspace(0.0, max_deg, 81)
    sweep = [addressing.misalignment_imbalance(
        math.radians(a), addr.steering_half_range, addr.perpendicular_waist)
        for a in angles_deg]

    results = {
        "misalignment_deg": math.degrees(addr.misalignment_angle),
        "steering_half_range_um": addr.steering_half_range / UM,
        "perpendicular_waist_um": addr.perpendicular_waist / UM,
        "imbalance": at_config,
        "within_10_percent": bool(at_config <= 0.10),
    }
    return results, [
        Table("misalign.csv", ["angle_deg", "imbalance"], zip(angles_deg, sweep)),
        Plot("misalign.svg", angles_deg, {"imbalance": sweep},
             xlabel="steering-axis misalignment (deg)",
             ylabel="worst-case rate imbalance",
             title="Rate imbalance against axis misalignment"),
    ]


# ---------------------------------------------------------------------------
# Virtual-lab commands
#
# Each imports virtual_lab itself, so the other commands never load it.
# ---------------------------------------------------------------------------


def _scan_inputs(cfg, setup):
    """Steering efficiency, drive and frequency grid of a frequency scan."""
    from .. import virtual_lab

    eff = _steering_efficiency(cfg, setup.steering_efficiency)
    drive = virtual_lab.RabiDrive(math.pi / setup.pi_time, setup.drive_time)
    freqs = np.linspace(setup.frequency_start, setup.frequency_stop, setup.points)
    return eff, drive, freqs


def cmd_lab_profile_scan(ctx):
    from .. import virtual_lab

    cfg = ctx.cfg
    _require(cfg, "experiments.profile_scan")
    setup = cfg.experiments.profile_scan
    eff, drive, freqs = _scan_inputs(cfg, setup)
    mode = cfg.addressing.coupling if cfg.addressing else "intensity"
    trace = virtual_lab.simulate_profile_scan(
        setup.waist, eff, drive, freqs, setup.center_frequency,
        shots=setup.shots, seed=ctx.seed_for(setup.shots), mode=mode)
    fit = virtual_lab.fit_gaussian_profile(trace, drive, eff, mode=mode)
    fit_curve = virtual_lab.simulate_profile_scan(
        fit.waist, eff, virtual_lab.RabiDrive(fit.peak_rabi, setup.drive_time), freqs,
        fit.center_frequency, mode=mode).values

    results = {
        "mode": mode,
        "shots": setup.shots,
        "steering_efficiency_um_per_mhz": eff / (UM / MHZ),
        "injected_waist_um": setup.waist / UM,
        "fitted_waist_um": fit.waist / UM,
        "waist_relative_error": abs(fit.waist - setup.waist) / setup.waist,
        "injected_center_mhz": setup.center_frequency / MHZ,
        "fitted_center_mhz": fit.center_frequency / MHZ,
        "fitted_pi_time_ns": math.pi / fit.peak_rabi / NS,
        "residual_rms": fit.residual_rms,
    }
    return results, [
        Table("lab_profile_scan.csv", ["f_mhz", "p1", "p1_fit"],
              zip(freqs / MHZ, trace.values, fit_curve)),
        Plot("lab_profile_scan.svg", freqs / MHZ,
             {"measured": trace.values, "fit": fit_curve},
             xlabel="drive frequency (MHz)", ylabel="P1",
             title="Beam-profile scan over a single ion"),
    ]


def cmd_lab_chain_scan(ctx):
    from .. import virtual_lab

    cfg = ctx.cfg
    _require(cfg, "chain", "addressing", "experiments.chain_scan")
    setup = cfg.experiments.chain_scan
    eff, drive, freqs = _scan_inputs(cfg, setup)
    aod_center = cfg.aod.center_frequency if cfg.aod else 0.5 * (
        setup.frequency_start + setup.frequency_stop)
    scan = virtual_lab.simulate_chain_scan(
        cfg.chain, cfg.addressing.ion_waist, eff, drive, freqs, aod_center,
        shots=setup.shots, seed=ctx.seed_for(setup.shots), mode=cfg.addressing.coupling)
    peaks = virtual_lab.count_resolved_peaks(scan.envelope)

    per_ion_peaks = scan.per_ion.max(axis=1)
    results = {
        "ion_count": len(cfg.chain),
        "resolved_peaks": peaks,
        "all_ions_resolved": bool(peaks == len(cfg.chain)),
        "weakest_ion_peak_p1": float(per_ion_peaks.min()),
        "shots": setup.shots,
        "steering_efficiency_um_per_mhz": eff / (UM / MHZ),
    }
    return results, [
        Table("lab_chain_scan.csv", ["f_mhz", "p1_envelope"],
              zip(freqs / MHZ, scan.envelope.values)),
        Plot("lab_chain_scan.svg", freqs / MHZ, {"envelope": scan.envelope.values},
             xlabel="drive frequency (MHz)", ylabel="max P1 over ions",
             title="Chain scan envelope"),
    ]


def cmd_lab_crosstalk(ctx):
    from .. import virtual_lab

    cfg = ctx.cfg
    _require(cfg, "chain", "addressing", "experiments.crosstalk")
    setup = cfg.experiments.crosstalk

    drive = virtual_lab.RabiDrive(math.pi / setup.pi_time, setup.pi_time)
    times = np.linspace(0.0, setup.max_time, setup.points)
    mode = cfg.addressing.coupling
    exp = virtual_lab.simulate_crosstalk_experiment(
        cfg.chain, cfg.addressing.ion_waist, setup.target_ion, times, drive,
        shots=setup.shots, seed=ctx.seed_for(setup.shots), mode=mode)

    positions = cfg.chain.array
    ideal = addressing.relative_rate(
        cfg.addressing.ion_waist,
        np.abs(positions - positions[setup.target_ion]), mode=mode)

    rows = []
    for k, tr in enumerate(exp.neighbor_traces):
        for t, p in zip(tr.x, tr.values):
            rows.append((k, "long", t / NS, p))
    for t, p in zip(exp.target_trace.x, exp.target_trace.values):
        rows.append((setup.target_ion, "target", t / NS, p))

    deviations = [abs(exp.ratios[i] - ideal[i]) / ideal[i]
                  for i in range(len(cfg.chain))
                  if not exp.bounded[i] and i != setup.target_ion and ideal[i] > 0]
    show = [i for i in range(len(cfg.chain))
            if abs(i - setup.target_ion) <= 2][:5]

    results = {
        "target_ion": setup.target_ion,
        "mode": mode,
        "shots": setup.shots,
        "target_pi_time_ns": setup.pi_time / NS,
        "fitted_target_pi_time_ns": math.pi / exp.rabi_rates[setup.target_ion] / NS,
        "ratios": {str(i): float(exp.ratios[i]) for i in range(len(cfg.chain))},
        "upper_bound_flags": {str(i): bool(exp.bounded[i]) for i in range(len(cfg.chain))},
        "max_fitted_ratio_deviation": max(deviations) if deviations else None,
    }
    return results, [
        Table("lab_crosstalk_traces.csv", ["ion", "grid", "time_ns", "p1"], rows),
        Table("lab_crosstalk_ratios.csv",
              ["ion", "position_um", "ratio", "ratio_sigma", "upper_bound", "ideal_ratio"],
              # a noiseless fit's sigma is rounding, so its cell stays empty
              [(i, positions[i] / UM, exp.ratios[i],
                "" if setup.shots is None else exp.ratio_sigmas[i],
                exp.bounded[i], ideal[i]) for i in range(len(cfg.chain))]),
        Plot("lab_crosstalk.svg", times / NS,
             {f"ion {i}": exp.neighbor_traces[i].values for i in show},
             xlabel="drive time (ns)", ylabel="P1",
             title="Neighbour Rabi flopping while addressing the target"),
    ]


def cmd_lab_switching(ctx):
    from .. import virtual_lab

    cfg = ctx.cfg
    _require(cfg, "experiments.switching")
    setup = cfg.experiments.switching

    if setup.model == "pure_delay":
        model = virtual_lab.PureDelay(setup.switch_delay)
    else:
        _require(cfg, "aod")
        kind = "field_overlap" if setup.model == "transit_ramp" else "linear"
        model = virtual_lab.TransitRamp(cfg.aod, kind=kind)

    seq = virtual_lab.SwitchSequence(
        pi2_time_ion0=setup.pi2_time_ion0, pi2_time_ion1=setup.pi2_time_ion1,
        model=model, settle_time=setup.settle_time)
    extra = np.linspace(setup.extra_start, setup.extra_stop, setup.points)
    res = virtual_lab.simulate_switching_experiment(seq, extra, shots=setup.shots,
                                                    seed=ctx.seed_for(setup.shots))
    fit = virtual_lab.fit_switch_time(res.delta)

    results = {
        "model": setup.model,
        "shots": setup.shots,
        "fitted_switch_time_ns": fit.switch_time / NS,
        # a noiseless fit's sigma is rounding, so it is reported as null
        "fit_sigma_ns": None if setup.shots is None else fit.sigma / NS,
        "grid_pitch_ns": float(extra[1] - extra[0]) / NS,
    }
    if setup.model == "pure_delay":
        results["injected_delay_ns"] = setup.switch_delay / NS
    else:
        results["theoretical_switch_time_ns"] = (
            aod_model.theoretical_switch_time(cfg.aod) / NS)
    return results, [
        Table("lab_switching.csv", ["extra_ns", "p1_ion0", "p1_ion1", "abs_difference"],
              zip(extra / NS, res.ion0.values, res.ion1.values, res.delta.values)),
        Plot("lab_switching.svg", extra / NS,
             {"ion 0": res.ion0.values, "ion 1": res.ion1.values,
              "|difference|": res.delta.values},
             xlabel="extra drive time (ns)", ylabel="P1",
             title="Switching-time sweep"),
    ]


HANDLERS = {
    "design-prism": ("design_prism", cmd_design_prism),
    "tolerance": ("tolerance", cmd_tolerance),
    "trace": ("trace", cmd_trace),
    "steer": ("steer", cmd_steer),
    "efficiency": ("efficiency", cmd_efficiency),
    "monitor": ("monitor", cmd_monitor),
    "crosstalk": ("crosstalk", cmd_crosstalk),
    "misalign": ("misalign", cmd_misalign),
    "lab profile-scan": ("lab_profile_scan", cmd_lab_profile_scan),
    "lab chain-scan": ("lab_chain_scan", cmd_lab_chain_scan),
    "lab crosstalk": ("lab_crosstalk", cmd_lab_crosstalk),
    "lab switching": ("lab_switching", cmd_lab_switching),
}
