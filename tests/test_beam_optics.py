import math

import numpy as np
import pytest

from aodkit import beam_optics as bo
from aodkit.errors import InvalidElementError, ResolutionError, ValidationError
from test_validation import assert_rejected, rejection_cases

LAM = 355e-9

# Closed-form anchors, frozen from independent evaluation of
# z_R = pi w0^2 / lambda and w(z) = w0 sqrt(1 + (z/z_R)^2).
ZR_320UM = 0.9061946133171686
SPOT_320UM_AT_0P7M = 0.0004043533980727551
FOCUSED_1504UM_F100MM = 7.513298510322187e-06


def _beam(wx=0.32e-3, wz=0.32e-3, **kw):
    return bo.AstigmaticBeam(LAM, bo.BeamAxis(wx, **kw), bo.BeamAxis(wz, **kw))


def test_circular_beam_basics():
    beam = bo.AstigmaticBeam.circular(LAM, 0.32e-3)
    assert beam.axis("x") == beam.axis("z")
    assert beam.rayleigh_range("x") == pytest.approx(ZR_320UM, rel=1e-12)
    q = beam.q_parameter("x")
    assert q.real == 0.0
    assert q.imag == pytest.approx(ZR_320UM, rel=1e-12)


def test_rayleigh_range_formula():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w0 = rng.uniform(1e-6, 5e-3)
        beam = bo.AstigmaticBeam.circular(LAM, w0)
        assert beam.rayleigh_range("z") == pytest.approx(math.pi * w0**2 / LAM, rel=1e-12)


def test_spot_size_hyperbola():
    beam = bo.AstigmaticBeam.circular(LAM, 0.32e-3)
    assert bo.spot_size_at(beam, "x", 0.7) == pytest.approx(SPOT_320UM_AT_0P7M, rel=1e-12)
    # symmetric about the waist
    assert bo.spot_size_at(beam, "x", -0.7) == pytest.approx(
        bo.spot_size_at(beam, "x", 0.7), rel=1e-14)
    assert bo.spot_size_at(beam, "x") == pytest.approx(0.32e-3, rel=1e-14)


def test_focused_waist_formula():
    assert bo.focused_waist(LAM, 0.1, 1.504e-3) == pytest.approx(
        FOCUSED_1504UM_F100MM, rel=1e-12)


def test_ray_matrices_are_unimodular():
    elements = [
        bo.FreeSpace(0.37),
        bo.ThinLens(0.1),
        bo.ThinLens(0.1, axis="x"),
        bo.AnamorphicScaler(mx=4.7),
        bo.ImagingSystem(0.25),
        bo.AodDeflector(150e6, 5700.0, drive_frequency=163e6),
        bo.BeamSampler(0.01),
    ]
    for el in elements:
        for axis in bo.AXES:
            (a, b), (c, d) = el.ray_matrix(axis)
            assert a * d - b * c == pytest.approx(1.0, abs=1e-15), el


def test_free_space_composition():
    rng = np.random.default_rng(5)
    for _ in range(10):
        beam = _beam(rng.uniform(1e-4, 1e-3), rng.uniform(1e-4, 1e-3),
                     waist_position=rng.uniform(-0.2, 0.2),
                     centroid=rng.uniform(-1e-3, 1e-3),
                     tilt=rng.uniform(-1e-3, 1e-3))
        a, b = rng.uniform(0.01, 1.0, size=2)
        split = bo.propagate(bo.propagate(beam, bo.FreeSpace(a)), bo.FreeSpace(b))
        joined = bo.propagate(beam, bo.FreeSpace(a + b))
        for axis in bo.AXES:
            s, j = split.axis(axis), joined.axis(axis)
            assert s.waist_radius == pytest.approx(j.waist_radius, rel=1e-12)
            assert s.waist_position == pytest.approx(j.waist_position, rel=1e-9, abs=1e-15)
            assert s.centroid == pytest.approx(j.centroid, rel=1e-12, abs=1e-18)
            assert s.tilt == pytest.approx(j.tilt, rel=1e-12, abs=1e-18)


def test_thin_lens_axis_selective():
    beam = _beam()
    out = bo.propagate(beam, bo.ThinLens(0.1, axis="x"))
    assert out.axis("z") == beam.axis("z")
    assert out.axis("x") != beam.axis("x")


def test_anamorphic_scaler_expands_one_axis():
    beam = _beam()
    out = bo.propagate(beam, bo.AnamorphicScaler(mx=4.7))
    assert out.axis("x").waist_radius == pytest.approx(4.7 * 0.32e-3, rel=1e-12)
    assert out.axis("z").waist_radius == pytest.approx(0.32e-3, rel=1e-12)
    # angles compress by the same factor the size grows
    tilted = bo.propagate(_beam(tilt=1e-3), bo.AnamorphicScaler(mx=4.7))
    assert tilted.axis("x").tilt == pytest.approx(1e-3 / 4.7, rel=1e-12)
    assert tilted.axis("z").tilt == pytest.approx(1e-3, rel=1e-12)


def test_aod_deflector_tilts_steering_axis_only():
    beam = _beam()
    el = bo.AodDeflector(150e6, 5700.0, drive_frequency=187e6)
    out = bo.propagate(beam, el)
    assert out.axis("x").tilt == pytest.approx(LAM * 37e6 / 5700.0, rel=1e-12)
    assert out.axis("z").tilt == 0.0
    centered = bo.propagate(beam, bo.AodDeflector(150e6, 5700.0, drive_frequency=150e6))
    assert centered.axis("x").tilt == 0.0


def test_image_rotator_rotates_steering_not_waists():
    beam = _beam(wx=0.2e-3, wz=0.5e-3, centroid=1e-3, tilt=2e-4)
    out = bo.propagate(beam, bo.ImageRotator(math.pi / 2))
    assert out.axis("x").waist_radius == pytest.approx(0.2e-3)
    assert out.axis("z").waist_radius == pytest.approx(0.5e-3)
    assert out.axis("x").centroid == pytest.approx(-1e-3, rel=1e-12)
    assert out.axis("z").centroid == pytest.approx(1e-3, rel=1e-12)
    assert out.axis("z").tilt == pytest.approx(2e-4, rel=1e-12)


def test_beam_sampler_scales_power_only():
    beam = _beam()
    out = bo.propagate(beam, bo.BeamSampler(0.01))
    assert out.power_fraction == pytest.approx(0.99, rel=1e-12)
    assert out.axis("x") == beam.axis("x")


def test_aperture_not_propagatable():
    with pytest.raises(InvalidElementError):
        bo.propagate(_beam(), bo.Aperture(1e-3))


def test_lost_confinement_raises_invalid_element():
    # a determinant -1 matrix flips the sign of Im q; an assert would vanish under -O
    beam = _beam()
    with pytest.raises(InvalidElementError, match="confinement"):
        bo._apply_matrix(beam, beam.x, beam.rayleigh_range("x"), ((1.0, 0.0), (0.0, -1.0)))


@pytest.mark.parametrize("build", rejection_cases("beam_optics"))
def test_non_finite_input_rejected(build):
    assert_rejected(build)


def test_lens_focuses_collimated_beam():
    beam = bo.AstigmaticBeam.circular(LAM, 1.504e-3)
    out = bo.propagate(beam, bo.ThinLens(0.1))
    ax = out.axis("x")
    # collimated input: waist lands a focal length downstream at lambda f / (pi w),
    # up to the (f / z_R)^2 ~ 2.5e-5 finite-Rayleigh-range correction
    assert ax.waist_position == pytest.approx(0.1, rel=1e-4)
    assert ax.waist_radius == pytest.approx(FOCUSED_1504UM_F100MM, rel=1e-4)


def test_trace_train_matches_propagate_fold():
    train = bo.OpticalTrain((
        bo.AnamorphicScaler(mx=4.7),
        bo.FreeSpace(0.05),
        bo.AodDeflector(150e6, 5700.0, drive_frequency=160e6),
        bo.ThinLens(0.1),
        bo.FreeSpace(0.1),
    ))
    beam = bo.AstigmaticBeam.circular(LAM, 0.32e-3)
    steps = bo.trace_train(beam, train)
    assert [s.index for s in steps] == list(range(len(train.elements)))
    state = beam
    for el in train.elements:
        state = bo.propagate(state, el)
    assert steps[-1].beam == state


def test_rayleigh_range_stays_positive_through_random_trains():
    rng = np.random.default_rng(23)
    pool = [
        lambda: bo.FreeSpace(rng.uniform(0.01, 0.5)),
        lambda: bo.ThinLens(rng.uniform(0.05, 0.5)),
        lambda: bo.AnamorphicScaler(mx=rng.uniform(0.3, 5.0)),
        lambda: bo.ImagingSystem(rng.uniform(0.1, 3.0)),
    ]
    for _ in range(30):
        beam = _beam(rng.uniform(1e-4, 2e-3), rng.uniform(1e-4, 2e-3))
        for _ in range(6):
            beam = bo.propagate(beam, pool[rng.integers(len(pool))]())
        for axis in bo.AXES:
            assert beam.rayleigh_range(axis) > 0.0
            assert beam.axis(axis).waist_radius > 0.0


# --- wave-optics path ---


def test_gaussian_profile_width_and_power():
    p = bo.gaussian_profile(LAM, 1.5e-3, 4096, 9e-3)
    assert p.second_moment_width() == pytest.approx(1.5e-3, rel=1e-9)
    # unit-amplitude Gaussian: integral |E|^2 dx = w sqrt(pi/2)
    assert p.power == pytest.approx(1.5e-3 * math.sqrt(math.pi / 2), rel=1e-9)


def test_profile_count_must_be_power_of_two():
    with pytest.raises(ValidationError):
        bo.gaussian_profile(LAM, 1.5e-3, 1000, 9e-3)


def test_diffract_rejects_undersampled_grid():
    with pytest.raises(ResolutionError):
        bo.diffract(bo.gaussian_profile(LAM, 1.5e-3, 64, 9e-3), distance=0.1)


def test_diffract_rejects_small_extent():
    with pytest.raises(ResolutionError):
        bo.diffract(bo.gaussian_profile(LAM, 1.5e-3, 4096, 4e-3), distance=0.1)


def test_diffract_matches_analytic_spread():
    w0, d = 0.25e-3, 1.2
    zr = math.pi * w0**2 / LAM
    out = bo.diffract(bo.gaussian_profile(LAM, w0, 4096, 2.5e-3), distance=d)
    analytic = w0 * math.sqrt(1.0 + (d / zr) ** 2)
    assert out.second_moment_width() == pytest.approx(analytic, rel=1e-6)
    assert out.power == pytest.approx(w0 * math.sqrt(math.pi / 2), rel=1e-9)


def test_diffract_aperture_clips_erf_fraction():
    w0 = 0.5e-3
    p = bo.gaussian_profile(LAM, w0, 4096, 4e-3)
    clipped = bo.diffract(p, aperture=bo.Aperture(w0))
    # rel 1e-3 leaves room for the half-sample weight at the hard edge
    assert clipped.power / p.power == pytest.approx(math.erf(math.sqrt(2.0)), rel=1e-3)


def test_focused_profile_waist_and_power():
    p = bo.gaussian_profile(LAM, 1.504e-3, 8192, 9e-3)
    f = bo.focused_profile(p, 0.1)
    assert f.second_moment_width() == pytest.approx(FOCUSED_1504UM_F100MM, rel=1e-6)
    assert f.power == pytest.approx(p.power, rel=1e-9)


def test_focused_field_at_matches_grid_samples():
    p = bo.gaussian_profile(LAM, 1.0e-3, 4096, 6e-3)
    grid = bo.focused_profile(p, 0.1)
    # probe inside the focal spot (a few output pitches around the centre)
    sel = slice(2040, 2057)
    direct = bo.focused_field_at(p, 0.1, grid.coordinates[sel])
    scale = np.abs(grid.samples).max()
    assert np.allclose(direct, grid.samples[sel], rtol=1e-9, atol=1e-12 * scale)
