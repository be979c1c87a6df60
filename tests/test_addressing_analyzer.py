import math

import numpy as np
import pytest
from scipy.special import erf, wofz

from aodkit import addressing_analyzer as aa
from aodkit import beam_optics as bo
from aodkit.errors import ValidationError
from test_validation import assert_rejected, rejection_cases

# exp(-2 d^2 / w^2) and exp(-d^2 / w^2) at w = 1.5 um, d = 3.8 um
IDEAL_XTALK_INTENSITY = 2.6643363505138902e-06
IDEAL_XTALK_AMPLITUDE = 0.0016322794952194585
# hard-aperture sweep values, frozen from the closed form (the limit the
# sampled wave-optics route converges to)
CLIPPED = {
    0.6: 0.01075617975706281,
    1.0: 0.008538899564742145,
    1.5: 0.00025157169854614,
    2.0: 2.772353297471764e-06,
    3.0: 2.721447835294309e-06,
}
IMBALANCE_1DEG = 0.04631987469477239


def test_relative_rate_frozen():
    assert aa.relative_rate(1.5e-6, 3.8e-6) == pytest.approx(IDEAL_XTALK_INTENSITY, rel=1e-12)
    assert aa.relative_rate(1.5e-6, 3.8e-6, mode="amplitude") == pytest.approx(
        IDEAL_XTALK_AMPLITUDE, rel=1e-12)
    assert aa.relative_rate(1.5e-6, 0.0) == 1.0


def test_amplitude_is_sqrt_of_intensity():
    rng = np.random.default_rng(4)
    for _ in range(25):
        w = rng.uniform(0.5e-6, 4e-6)
        d = rng.uniform(0.0, 10e-6)
        amp = aa.relative_rate(w, d, mode="amplitude")
        assert amp**2 == pytest.approx(aa.relative_rate(w, d), rel=1e-12)


def _grid_crosstalk(chain, ion_plane_waist, ratio, count,
                    collimated_waist=1.5e-3, wavelength=355e-9, focal_length=0.1):
    """Sampled wave-optics route: clip the collimated beam on a ``count``-point
    grid and Fourier-sum it at the demagnified ion offsets."""
    profile = bo.gaussian_profile(wavelength, collimated_waist, count,
                                  max(6.0, 1.5 * ratio) * collimated_waist)
    clipped = bo.diffract(profile, bo.Aperture(half_width=ratio * collimated_waist))
    demag = bo.focused_waist(wavelength, focal_length, collimated_waist) / ion_plane_waist
    pos = chain.array
    probes = np.append((pos[:, None] - pos[None, :]).ravel() * demag, 0.0)
    amps = bo.focused_field_at(clipped, focal_length, probes)
    rel = np.abs(amps[:-1]) / abs(amps[-1])
    return (rel**2).reshape(len(pos), len(pos))


def test_relative_rate_validation():
    with pytest.raises(ValidationError):
        aa.relative_rate(0.0, 1e-6)
    with pytest.raises(ValidationError):
        aa.relative_rate(1.5e-6, 1e-6, mode="power")


def test_uniform_chain_geometry():
    chain = aa.IonChain.uniform(5, 3.8e-6)
    pos = chain.array
    assert pos.shape == (5,)
    assert np.allclose(np.diff(pos), 3.8e-6)
    assert pos.sum() == pytest.approx(0.0, abs=1e-20)
    shifted = aa.IonChain.uniform(4, 2e-6, center=7e-6)
    assert shifted.array.mean() == pytest.approx(7e-6, rel=1e-12)
    with pytest.raises(ValidationError):
        aa.IonChain.uniform(0, 3.8e-6)
    with pytest.raises(ValidationError):
        aa.IonChain((0.0, 0.0))


def test_crosstalk_matrix_ideal_chain():
    chain = aa.IonChain.uniform(5, 3.8e-6)
    mat = aa.crosstalk_matrix(chain, 1.5e-6)
    assert np.allclose(np.diag(mat.values), 1.0)
    assert mat.values == pytest.approx(mat.values.T)
    assert mat.worst_offdiagonal() == pytest.approx(IDEAL_XTALK_INTENSITY, rel=1e-12)
    amp = aa.crosstalk_matrix(chain, 1.5e-6, mode="amplitude")
    assert amp.worst_offdiagonal() == pytest.approx(IDEAL_XTALK_AMPLITUDE, rel=1e-12)


def test_crosstalk_matrix_with_offset_beams():
    chain = aa.IonChain.uniform(3, 3.8e-6)
    centers = chain.array + 0.5e-6
    mat = aa.crosstalk_matrix(chain, 1.5e-6, beam_centers=centers)
    # a common pointing offset costs diagonal rate but keeps the worst
    # neighbour coupling on the near side
    assert np.allclose(np.diag(mat.values),
                       aa.relative_rate(1.5e-6, 0.5e-6))
    assert mat.worst_offdiagonal() == pytest.approx(
        aa.relative_rate(1.5e-6, 3.3e-6), rel=1e-12)


def test_clipped_crosstalk_frozen_sweep():
    chain = aa.IonChain.uniform(5, 3.8e-6)
    for ratio, expected in CLIPPED.items():
        mat = aa.clipped_crosstalk(chain, 1.5e-6, ratio)
        assert mat.worst_offdiagonal() == pytest.approx(expected, rel=1e-9), ratio


def test_clipped_crosstalk_recovers_ideal_for_open_aperture():
    chain = aa.IonChain.uniform(5, 3.8e-6)
    open_ap = aa.clipped_crosstalk(chain, 1.5e-6, 3.0)
    assert open_ap.worst_offdiagonal() == pytest.approx(IDEAL_XTALK_INTENSITY, rel=0.03)


@pytest.mark.parametrize("ratio", [0.6, 1.2, 1.5, 3.0])
def test_clipped_crosstalk_grid_converges_to_closed_form(ratio):
    chain = aa.IonChain.uniform(5, 3.8e-6)
    exact = aa.clipped_crosstalk(chain, 1.5e-6, ratio).values
    off = ~np.eye(len(chain), dtype=bool)
    gaps = [np.abs(_grid_crosstalk(chain, 1.5e-6, ratio, 2**k) - exact)[off].max()
            for k in (13, 15, 17)]
    # the sampled sum approaches the closed form as 1/n: each 4x grid step
    # must shrink the gap by at least 3x
    assert gaps[0] >= 3.0 * gaps[1] and gaps[1] >= 3.0 * gaps[2], gaps


@pytest.mark.parametrize("ratio", [0.6, 3.0])
@pytest.mark.parametrize("mode", aa.COUPLING_MODES)
def test_clipped_crosstalk_stable_at_large_offsets(ratio, mode):
    # offsets up to ~1000 waists, where the complex erf form overflows
    chain = aa.IonChain.uniform(200, 5e-6)
    v = aa.clipped_crosstalk(chain, 1e-6, ratio, mode=mode).values
    assert np.isfinite(v).all()
    assert (v >= 0.0).all() and (v <= 1.0 + 1e-12).all()
    assert np.abs(np.diag(v) - 1.0).max() <= 1e-12


def test_faddeeva_matches_wofz():
    rho = np.linspace(0.05, 20.0, 200)
    s = np.concatenate([-np.logspace(-3, 4, 200), [0.0], np.logspace(-3, 4, 200)])
    z = -s[None, :] + 1j * rho[:, None]
    want = wofz(z)
    assert np.max(np.abs(aa._faddeeva(z) - want) / np.abs(want)) <= 1e-12


def _wofz_crosstalk(chain, ion_plane_waist, rho, mode):
    """The closed form of ``clipped_crosstalk`` on scipy's ``wofz`` and ``erf``."""
    s = (chain.array[:, None] - chain.array[None, :]) / ion_plane_waist
    amp = np.exp(-s**2) - np.exp(-rho**2 - 2j * rho * s) * wofz(-s + 1j * rho)
    rel = np.abs(amp.real) / erf(rho)
    return rel**2 if mode == "intensity" else rel


@pytest.mark.parametrize("mode", aa.COUPLING_MODES)
def test_clipped_crosstalk_matches_wofz_route(mode):
    short, long_ = aa.IonChain.uniform(5, 3.8e-6), aa.IonChain.uniform(200, 5e-6)
    for rho in np.geomspace(0.05, 20.0, 11):
        got = aa.clipped_crosstalk(short, 1.5e-6, rho, mode=mode).values
        want = _wofz_crosstalk(short, 1.5e-6, rho, mode)
        assert np.max(np.abs(got - want) / want) <= 1e-12, rho
        # the long chain's far tails underflow, so compare absolutely there
        got = aa.clipped_crosstalk(long_, 1e-6, rho, mode=mode).values
        assert np.max(np.abs(got - _wofz_crosstalk(long_, 1e-6, rho, mode))) <= 1e-12, rho


@pytest.mark.parametrize("build", rejection_cases("addressing_analyzer"))
def test_non_finite_input_rejected(build):
    assert_rejected(build)


def test_misalignment_imbalance_frozen():
    got = aa.misalignment_imbalance(math.radians(1.0), 75e-6, 8.5e-6)
    assert got == pytest.approx(IMBALANCE_1DEG, rel=1e-12)
    assert aa.misalignment_imbalance(0.0, 75e-6, 8.5e-6) == 0.0


def test_misalignment_imbalance_monotone_in_angle():
    angles = np.radians(np.linspace(0.0, 5.0, 40))
    vals = [aa.misalignment_imbalance(a, 75e-6, 8.5e-6) for a in angles]
    assert (np.diff(vals) > 0).all()
    assert all(0.0 <= v < 1.0 for v in vals)
