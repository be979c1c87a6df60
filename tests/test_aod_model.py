import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, erfinv

from aodkit import aod_model as am
from aodkit import beam_optics as bo
from aodkit.errors import OutOfBandWarning, TrainStructureError, ValidationError
from test_validation import assert_rejected, rejection_cases

SPEC = am.AodSpec(center_frequency=150e6, bandwidth=100e6,
                  acoustic_velocity=5700.0, optical_wavelength=355e-9,
                  crystal_waist=1.5e-3)

# lambda * B / V and lambda * df / V, frozen from direct evaluation
FULL_BAND_SWING = 0.006228070175438596
DEFLECTION_37MHZ = 0.0023043859649122807
SWITCH_TIME = 3.421052631578948e-07
RISE_TIME = 4.769441065456965e-07
# integral of the two ramp models over 900 ns, frozen from scipy.integrate.quad
RAMP_AREA_FIELD_900NS = 5.555565396845123e-07
RAMP_AREA_LINEAR_900NS = 5.578941840577904e-07
ION_RANGE = 0.00015570175438596492


def test_half_power_argument_solves_sinc():
    x = am.HALF_POWER_SINC_ARG
    assert np.sinc(x) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_efficiency_band_edges_at_half_power():
    peak = am.diffraction_efficiency(SPEC, SPEC.center_frequency)
    assert peak == pytest.approx(SPEC.peak_efficiency, rel=1e-12)
    for edge in SPEC.band():
        assert am.diffraction_efficiency(SPEC, edge) == pytest.approx(peak / 2, rel=1e-12)


def test_efficiency_decreases_towards_band_edges():
    f = np.linspace(SPEC.center_frequency, SPEC.band()[1], 200)
    eta = np.array([am.diffraction_efficiency(SPEC, fi) for fi in f])
    assert (np.diff(eta) < 0).all()


def test_deflection_angle_frozen_and_odd():
    fc = SPEC.center_frequency
    assert am.deflection_angle(SPEC, fc) == 0.0
    assert am.deflection_angle(SPEC, fc + 37e6) == pytest.approx(DEFLECTION_37MHZ, rel=1e-12)
    assert am.deflection_angle(SPEC, fc - 37e6) == pytest.approx(-DEFLECTION_37MHZ, rel=1e-12)


def test_full_band_swing_frozen():
    assert am.full_band_swing(SPEC) == pytest.approx(FULL_BAND_SWING, rel=1e-12)


def test_in_band_boundaries():
    lo, hi = SPEC.band()
    assert am.in_band(SPEC, lo) and am.in_band(SPEC, hi)
    assert not am.in_band(SPEC, hi + 1.0)


def test_out_of_band_deflection_warns():
    with pytest.warns(OutOfBandWarning):
        am.deflection_angle(SPEC, SPEC.center_frequency + 0.51 * SPEC.bandwidth)
    with pytest.warns(OutOfBandWarning):
        am.steering_map(SPEC, _steering_train(), np.array([150e6, SPEC.band()[1] + 1e6]))


def test_theoretical_switch_time_frozen():
    assert am.theoretical_switch_time(SPEC) == pytest.approx(SWITCH_TIME, rel=1e-14)
    assert am.SWITCH_TIME_FACTOR == 1.3


def test_transit_ramp_shape():
    ts = am.theoretical_switch_time(SPEC)
    assert am.transit_ramp(SPEC, ts) == pytest.approx(0.5, rel=1e-12)
    assert am.transit_ramp(SPEC, 10 * ts) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= am.transit_ramp(SPEC, 0.0) < 0.1
    # linear model: reaches full transmission at 2 ts and clips
    assert am.transit_ramp(SPEC, ts, model="linear") == pytest.approx(0.5, rel=1e-12)
    assert am.transit_ramp(SPEC, 2 * ts, model="linear") == 1.0
    assert am.transit_ramp(SPEC, 5 * ts, model="linear") == 1.0
    with pytest.raises(ValidationError):
        am.transit_ramp(SPEC, ts, model="cubic")


def test_ramp_area_matches_quadrature():
    assert am.ramp_area(SPEC, 900e-9) == pytest.approx(RAMP_AREA_FIELD_900NS, rel=1e-9)
    assert am.ramp_area(SPEC, 900e-9, model="linear") == pytest.approx(
        RAMP_AREA_LINEAR_900NS, rel=1e-9)
    ts = am.theoretical_switch_time(SPEC)
    tau = SPEC.crystal_waist / SPEC.acoustic_velocity
    for dur in (120e-9, 347e-9, 2.1e-6):
        ref = quad(lambda t: 0.5 * (1.0 + erf((t - ts) / tau)), 0.0, dur, limit=200)[0]
        assert am.ramp_area(SPEC, dur) == pytest.approx(ref, rel=1e-9)


def test_ramp_area_monotone_in_duration():
    durations = np.linspace(0.0, 2e-6, 50)
    areas = [am.ramp_area(SPEC, d) for d in durations]
    assert areas[0] == 0.0
    assert (np.diff(areas) > 0).all()


def test_rise_time_frozen():
    # the ramp 0.5 (1 + erf(u)) crosses 10 % and 90 % at u = -/+ erfinv(0.8)
    half = float(erfinv(0.8)) * SPEC.crystal_waist / SPEC.acoustic_velocity
    assert 2.0 * half == pytest.approx(RISE_TIME, rel=1e-9)
    ts = am.theoretical_switch_time(SPEC)
    assert am.transit_ramp(SPEC, ts - half) == pytest.approx(0.1, rel=1e-9)
    assert am.transit_ramp(SPEC, ts + half) == pytest.approx(0.9, rel=1e-9)


def _steering_train(extra=()):
    return bo.OpticalTrain((SPEC.deflector(), bo.FreeSpace(0.1),
                            bo.ThinLens(0.1), bo.FreeSpace(0.1)) + tuple(extra))


def test_steering_map_angle_to_position():
    train = _steering_train()
    dfs = (-50e6, -12e6, 0.0, 31e6, 50e6)
    for df in dfs:
        got = am.steering_map(SPEC, train, SPEC.center_frequency + df)
        assert got == pytest.approx(0.1 * 355e-9 * df / 5700.0, rel=1e-12, abs=1e-18)
    freqs = SPEC.center_frequency + np.array(dfs)
    scalars = np.array([am.steering_map(SPEC, train, f) for f in freqs])
    assert np.array_equal(am.steering_map(SPEC, train, freqs), scalars)


@pytest.mark.parametrize("rotated", [False, True], ids=["reference", "image_rotator"])
def test_steering_map_matches_traced_centroid(rotated):
    # independent route: trace the whole train with the deflector retuned
    pre = (bo.AnamorphicScaler(mx=4.7), SPEC.deflector(), bo.FreeSpace(0.1))
    post = (bo.ThinLens(0.1), bo.FreeSpace(0.1), bo.ImagingSystem(0.25))
    if rotated:
        post = (bo.ImageRotator(0.3), bo.ThinLens(0.1, axis="x"), bo.ThinLens(0.2, axis="z"),
                bo.FreeSpace(0.1), bo.ImageRotator(-0.2), bo.ImagingSystem(0.25))
    train = bo.OpticalTrain(pre + post)
    beam = bo.AstigmaticBeam.circular(355e-9, 0.32e-3)
    freqs = np.linspace(*SPEC.band(), 11)
    traced = [bo.trace_train(beam, bo.OpticalTrain(
        replace(el, drive_frequency=f) if isinstance(el, bo.AodDeflector) else el
        for el in train))[-1].beam.x.centroid for f in freqs]
    np.testing.assert_allclose(am.steering_map(SPEC, train, freqs), traced, rtol=1e-14, atol=0)


def test_steering_map_through_demagnifier():
    train = _steering_train(extra=(bo.ImagingSystem(0.25),))
    lo, hi = SPEC.band()
    swing = am.steering_map(SPEC, train, hi) - am.steering_map(SPEC, train, lo)
    assert swing == pytest.approx(ION_RANGE, rel=1e-12)
    # exact slope: closed form, and a 1 MHz difference of the map
    eff = am.steering_efficiency(SPEC, train)
    assert eff == pytest.approx(0.1 * 0.25 * 355e-9 / 5700.0, rel=1e-12)
    f0 = SPEC.center_frequency
    difference = (am.steering_map(SPEC, train, f0 + 1e6) - am.steering_map(SPEC, train, f0)) / 1e6
    assert eff == pytest.approx(difference, rel=1e-9)


def test_steering_map_image_rotator_turns_displacement():
    half_turn = _steering_train(extra=(bo.ImageRotator(math.pi),))
    quarter = _steering_train(extra=(bo.ImageRotator(math.pi / 2),))
    f = SPEC.center_frequency + 40e6
    base = am.steering_map(SPEC, _steering_train(), f)
    assert am.steering_map(SPEC, half_turn, f) == pytest.approx(-base, rel=1e-12)
    assert abs(am.steering_map(SPEC, quarter, f)) < 1e-18


def test_steering_map_requires_one_deflector_and_a_lens():
    with pytest.raises(TrainStructureError):
        am.steering_map(SPEC, bo.OpticalTrain((bo.ThinLens(0.1), bo.FreeSpace(0.1))), 150e6)
    with pytest.raises(TrainStructureError):
        am.steering_map(SPEC, bo.OpticalTrain((SPEC.deflector(), bo.FreeSpace(0.1))), 150e6)
    two = bo.OpticalTrain((SPEC.deflector(), SPEC.deflector(), bo.ThinLens(0.1)))
    with pytest.raises(TrainStructureError):
        am.steering_map(SPEC, two, 150e6)
    with pytest.raises(TrainStructureError):
        am.steering_efficiency(SPEC, two)


def test_monitor_voltage_product_and_linearity():
    chain = am.MonitorChain(sample_fraction=0.01, responsivity=0.2,
                            transimpedance_gain=1e4)
    assert am.monitor_voltage(chain, 1.0, 1.0) == pytest.approx(20.0, rel=1e-12)
    v1 = am.monitor_voltage(chain, 0.35, 0.8)
    v2 = am.monitor_voltage(chain, 0.70, 0.8)
    assert v2 == pytest.approx(2 * v1, rel=1e-12)


@pytest.mark.parametrize("build", rejection_cases("aod_model"))
def test_non_finite_input_rejected(build):
    assert_rejected(build)


def test_erf_matches_scipy_special():
    u = np.linspace(-6.0, 6.0, 10_000)
    want = erf(u)
    assert np.all(np.abs(am._erf(u) - want) <= 2.0 * np.spacing(np.abs(want)))
    assert am._erf(0.5) == pytest.approx(erf(0.5), rel=1e-15)


def test_spec_validation():
    with pytest.raises(ValidationError):
        am.AodSpec(150e6, -1.0, 5700.0, 355e-9, 1.5e-3)
    with pytest.raises(ValidationError):
        am.AodSpec(150e6, 100e6, 5700.0, 355e-9, 1.5e-3, peak_efficiency=1.5)
