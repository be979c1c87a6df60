"""Input validation: one table of rejected inputs, and a guard that keeps
the range checks in ``aodkit.errors``.

Each row builds one call that must raise :class:`ValidationError` with
the shared message form ``"<name> <reason>, got <value>"``.  The rows are
grouped by the library module they exercise; each module's test file runs
its group as ``test_*non_finite_input_rejected``, and the ``gaps`` group
(integer and range gaps closed after those tests were written) runs here.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import aodkit
from aodkit import addressing_analyzer as aa
from aodkit import aod_model as am
from aodkit import beam_optics as bo
from aodkit import bloch
from aodkit import prism_designer as pz
from aodkit import virtual_lab as vl
from aodkit.errors import ValidationError

SPEC = am.AodSpec(150e6, 100e6, 5700.0, 355e-9, 1.5e-3)
MONITOR = am.MonitorChain(sample_fraction=0.01, responsivity=0.2, transimpedance_gain=1e4)
ANCHOR = pz.PrismPairDesign(39.0, 14.75, 30.0, 30.0, 1.476)
CHAIN = aa.IonChain.uniform(3, 3.8e-6)
DRIVE = vl.RabiDrive.from_pi_time(2000e-9)
STEERING_EFF = 1.557017543859649e-12  # m per Hz
FREQS = np.linspace(145e6, 155e6, 11)
TIMES = np.linspace(0.0, 1e-4, 11)


def _beam():
    return bo.AstigmaticBeam.circular(355e-9, 0.32e-3)


def _with(values, index, bad):
    out = np.array(values, dtype=float)
    out[index] = bad
    return out


REJECTED = {
    "addressing_analyzer": {
        "clipping_ratio": lambda: aa.clipped_crosstalk(CHAIN, 1.5e-6, math.nan),
        "ion_plane_waist": lambda: aa.clipped_crosstalk(CHAIN, math.inf, 1.0),
        "waist": lambda: aa.relative_rate(math.nan, 1e-6),
        "ion_position": lambda: aa.IonChain((math.nan,)),
        "peak_rabi": lambda: vl.RabiDrive(math.nan, 1.0),
        "misalignment_angle": lambda: aa.misalignment_imbalance(math.nan, 75e-6, 8.5e-6),
        "perpendicular_waist":
            lambda: aa.misalignment_imbalance(math.radians(1.0), 75e-6, math.inf),
        "half_range": lambda: aa.misalignment_imbalance(math.radians(1.0), math.nan, 8.5e-6),
        "beam_centers":
            lambda: aa.crosstalk_matrix(CHAIN, 1.5e-6, beam_centers=[0.0, math.nan, 1e-6]),
        "rate_offset_nan": lambda: aa.relative_rate(1.5e-6, math.nan),
        "rate_offset_array": lambda: aa.relative_rate(1.5e-6, np.array([0.0, math.nan, 1e-6])),
    },
    "aod_model": {
        "efficiency_width":
            lambda: am.AodSpec(150e6, 100e6, 5700.0, 355e-9, 1.5e-3, efficiency_width=math.nan),
        "acoustic_velocity": lambda: am.AodSpec(150e6, 100e6, math.inf, 355e-9, 1.5e-3),
        "peak_efficiency":
            lambda: am.AodSpec(150e6, 100e6, 5700.0, 355e-9, 1.5e-3, peak_efficiency=math.nan),
        "responsivity": lambda: am.MonitorChain(0.01, math.nan, 1e4),
        "transimpedance_gain": lambda: am.MonitorChain(0.01, 0.2, math.inf),
        "beam_power_nan": lambda: am.monitor_voltage(MONITOR, math.nan, 0.5),
        "beam_power_inf": lambda: am.monitor_voltage(MONITOR, math.inf, 0.5),
        "efficiency": lambda: am.monitor_voltage(MONITOR, 1.0, np.array([0.5, math.nan])),
        "deflection_nan": lambda: am.deflection_angle(SPEC, math.nan),
        "deflection_inf": lambda: am.deflection_angle(SPEC, math.inf),
        "deflection_array": lambda: am.deflection_angle(SPEC, np.array([150e6, math.nan])),
        "efficiency_drive_nan": lambda: am.diffraction_efficiency(SPEC, math.nan),
        "efficiency_drive_inf": lambda: am.diffraction_efficiency(SPEC, -math.inf),
        "efficiency_drive_array":
            lambda: am.diffraction_efficiency(SPEC, np.array([150e6, math.inf])),
        "ramp_nan": lambda: am.transit_ramp(SPEC, math.nan),
        "ramp_array_linear":
            lambda: am.transit_ramp(SPEC, np.array([0.0, math.nan]), model="linear"),
        "ramp_area_nan": lambda: am.ramp_area(SPEC, math.nan),
        "ramp_area_array_linear":
            lambda: am.ramp_area(SPEC, np.array([1e-7, math.nan]), model="linear"),
    },
    "beam_optics": {
        "aperture_nan": lambda: bo.Aperture(half_width=math.nan),
        "aperture_inf": lambda: bo.Aperture(half_width=math.inf),
        "aod_center": lambda: bo.AodDeflector(math.nan, 5700.0),
        "aod_velocity": lambda: bo.AodDeflector(150e6, math.inf),
        "aod_drive": lambda: bo.AodDeflector(150e6, 5700.0, drive_frequency=math.nan),
        "spot_distance": lambda: bo.spot_size_at(_beam(), "x", math.nan),
        "profile_waist_nan": lambda: bo.gaussian_profile(355e-9, math.nan, 64, 1e-3),
        "profile_waist_inf": lambda: bo.gaussian_profile(355e-9, math.inf, 64, 1e-3),
        "profile_waist_zero": lambda: bo.gaussian_profile(355e-9, 0.0, 64, 1e-3),
        "profile_wavelength_zero": lambda: bo.gaussian_profile(0.0, 1e-4, 64, 1e-3),
        "profile_wavelength_nan": lambda: bo.gaussian_profile(math.nan, 1e-4, 64, 1e-3),
        "profile_waist_position":
            lambda: bo.gaussian_profile(355e-9, 1e-4, 64, 1e-3, waist_position=math.inf),
    },
    "prism_designer": {
        "target_nan": lambda: pz.solve_alpha_prime(math.nan, 39.0, 30.0, 30.0, 1.476),
        "target_inf": lambda: pz.solve_alpha_prime(math.inf, 39.0, 30.0, 30.0, 1.476),
        "tolerance_alpha": lambda: pz.ToleranceSpec(math.nan, 1.0, 0.25, 0.25),
        "tolerance_beta": lambda: pz.ToleranceSpec(1.0, 1.0, math.inf, 0.25),
        "design_alpha_prime": lambda: pz.PrismPairDesign(39.0, math.nan, 30.0, 30.0, 1.476),
        "design_index": lambda: pz.PrismPairDesign(39.0, 14.75, 30.0, 30.0, math.nan),
        "contour_grid_nan": lambda: pz.expansion_contour([39.0], [math.nan], 30.0, 30.0, 1.476),
        "contour_grid_inf":
            lambda: pz.expansion_contour([10.0, math.inf], [14.75], 30.0, 30.0, 1.476),
        "mc_samples_inf":
            lambda: pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=math.inf, seed=1),
        "mc_samples_fraction":
            lambda: pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=1000.5, seed=1),
        "mc_seed_fraction":
            lambda: pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=1000, seed=1.5),
        "mc_seed_nan":
            lambda: pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=1000,
                                             seed=math.nan),
    },
    "virtual_lab": {
        "profile_waist":
            lambda: vl.simulate_profile_scan(math.nan, STEERING_EFF, DRIVE, FREQS, 150e6),
        "profile_efficiency":
            lambda: vl.simulate_profile_scan(1.5e-6, math.inf, DRIVE, FREQS, 150e6),
        "profile_center":
            lambda: vl.simulate_profile_scan(1.5e-6, STEERING_EFF, DRIVE, FREQS, math.nan),
        "profile_frequencies":
            lambda: vl.simulate_profile_scan(1.5e-6, STEERING_EFF, DRIVE,
                                             _with(FREQS, 3, math.nan), 150e6),
        "chain_waist":
            lambda: vl.simulate_chain_scan(CHAIN, math.inf, STEERING_EFF, DRIVE, FREQS, 150e6),
        "chain_efficiency":
            lambda: vl.simulate_chain_scan(CHAIN, 1.5e-6, math.nan, DRIVE, FREQS, 150e6),
        "chain_center":
            lambda: vl.simulate_chain_scan(CHAIN, 1.5e-6, STEERING_EFF, DRIVE, FREQS, math.inf),
        "chain_frequencies":
            lambda: vl.simulate_chain_scan(CHAIN, 1.5e-6, STEERING_EFF, DRIVE,
                                           _with(FREQS, -1, math.inf), 150e6),
        "crosstalk_waist":
            lambda: vl.simulate_crosstalk_experiment(CHAIN, math.nan, 1, TIMES, DRIVE),
        "crosstalk_times_inf":
            lambda: vl.simulate_crosstalk_experiment(CHAIN, 1.5e-6, 1,
                                                     _with(TIMES, -1, math.inf), DRIVE),
        "crosstalk_times_nan":
            lambda: vl.simulate_crosstalk_experiment(CHAIN, 1.5e-6, 1,
                                                     _with(TIMES, 4, math.nan), DRIVE),
        "switch_delay": lambda: vl.PureDelay(math.nan),
        "switch_pi2_time": lambda: vl.SwitchSequence(math.inf, 1740e-9, vl.PureDelay(238e-9)),
        "switch_settle_time":
            lambda: vl.SwitchSequence(1750e-9, 1740e-9, vl.PureDelay(238e-9),
                                      settle_time=math.nan),
        "bloch_duration": lambda: bloch.excited_population(1e6, 0.0, math.nan),
        "bloch_omega": lambda: bloch.excited_population(math.inf, 0.0, 1e-6),
        "bloch_detuning": lambda: bloch.excited_population(1e6, math.nan, 1e-6),
        "rabi_time_nan": lambda: vl.rabi_probability(DRIVE, math.nan),
        "rabi_times_array": lambda: vl.rabi_probability(DRIVE, _with(TIMES, 2, math.nan)),
    },
    "gaps": {
        "trace_shots_fraction":
            lambda: vl.ScanTrace("frequency", FREQS, np.full(11, 0.5), shots=200.5),
        "trace_shots_nan":
            lambda: vl.ScanTrace("frequency", FREQS, np.full(11, 0.5), shots=math.nan),
        "chain_count_fraction": lambda: aa.IonChain.uniform(2.5, 1e-6),
        "crosstalk_target_fraction":
            lambda: vl.simulate_crosstalk_experiment(CHAIN, 1.5e-6, 1.5, TIMES, DRIVE),
        "crosstalk_target_bool":
            lambda: vl.simulate_crosstalk_experiment(CHAIN, 1.5e-6, True, TIMES, DRIVE),
        "focused_waist_wavelength": lambda: bo.focused_waist(math.nan, 0.1, 1e-3),
        "focused_waist_focal_length": lambda: bo.focused_waist(355e-9, math.inf, 1e-3),
        "focused_waist_input_radius": lambda: bo.focused_waist(355e-9, 0.1, math.nan),
    },
}


def rejection_cases(group):
    """The rows of ``group`` as pytest parameters named by their ids."""
    return [pytest.param(build, id=name) for name, build in REJECTED[group].items()]


def assert_rejected(build):
    with pytest.raises(ValidationError) as exc:
        build()
    assert ", got " in str(exc.value)


@pytest.mark.parametrize("build", rejection_cases("gaps"))
def test_invalid_input_rejected(build):
    assert_rejected(build)


# Functions whose isfinite calls test a computed value, not an input.
ISFINITE_ALLOWED = {
    ("virtual_lab.py", "_least_squares"),  # the start's cost and Jacobian
    ("virtual_lab.py", "_fit_sinusoid"),  # the start-value filter
    ("svgplot.py", "_nice_step"),  # the axis span
}


def _isfinite_callers(node, function, found):
    for child in ast.iter_child_nodes(node):
        scope = function
        if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = child.name
        if isinstance(child, ast.Call):
            f = child.func
            if getattr(f, "attr", getattr(f, "id", None)) == "isfinite":
                found.add(scope)
        _isfinite_callers(child, scope, found)
    return found


def test_isfinite_only_in_the_shared_checks():
    package = Path(aodkit.__file__).parent
    calls = set()
    for path in sorted(package.rglob("*.py")):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            calls |= {(path.name, f) for f in _isfinite_callers(tree, None, set())}
    assert calls <= ISFINITE_ALLOWED, sorted(calls - ISFINITE_ALLOWED)


def _package_attributes():
    """(file name, node) of every attribute access in the package."""
    for path in sorted(Path(aodkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                yield path.name, node


def test_one_matrix_inverse_in_the_package():
    # the covariance rule has one home: the least-squares result record
    found = [name for name, node in _package_attributes()
             if node.attr == "inv" and getattr(node.value, "attr", None) == "linalg"]
    assert found == ["virtual_lab.py"]


def test_no_polyfit_in_the_package():
    # every lab fit goes through the one least-squares solver
    assert [name for name, node in _package_attributes() if node.attr == "polyfit"] == []
