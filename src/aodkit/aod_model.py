"""Acousto-optic deflector physics: steering, efficiency, switching.

An AOD driven at frequency ``f`` deflects the first diffraction order by
``lambda * f / V``; only the offset from the centre frequency matters for
steering, so all angles here are relative to the centre-frequency output
direction.  Switching dynamics follow the acoustic wave crossing the
optical spot at the crystal: the new tone's column sweeps across the
Gaussian field, giving an error-function amplitude ramp.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import beam_optics
from .errors import (OutOfBandWarning, TrainStructureError, ValidationError, finite, in_range,
                     non_negative, positive)

# sinc^2(x) = 1/2 at this argument (np.sinc normalisation, sin(pi x)/(pi x));
# sets the efficiency-width default so the band edges sit at half efficiency.
HALF_POWER_SINC_ARG = 0.44294647068945237
# The acoustic front must travel ~1.3 beam radii past the spot centre for the
# diffracted amplitude to settle; the same factor defines the switch time.
SWITCH_TIME_FACTOR = 1.3


@dataclass(frozen=True)
class AodSpec:
    """Acousto-optic deflector operating parameters (SI units).

    ``crystal_waist`` is the 1/e^2 optical beam radius inside the
    crystal along the acoustic direction; ``efficiency_width`` is the
    sinc-squared frequency scale, defaulting to half efficiency exactly
    at the rated band edges.
    """

    center_frequency: float
    bandwidth: float
    acoustic_velocity: float
    optical_wavelength: float
    crystal_waist: float
    peak_efficiency: float = 1.0
    efficiency_width: float = None  # type: ignore[assignment]

    def __post_init__(self):
        for name in ("center_frequency", "bandwidth", "acoustic_velocity",
                     "optical_wavelength", "crystal_waist"):
            positive(name, getattr(self, name))
        in_range("peak_efficiency", self.peak_efficiency, 0.0, 1.0, "(]")
        if self.efficiency_width is None:
            object.__setattr__(
                self, "efficiency_width",
                self.bandwidth / (2.0 * HALF_POWER_SINC_ARG))
        positive("efficiency_width", self.efficiency_width)

    def band(self):
        half = 0.5 * self.bandwidth
        return (self.center_frequency - half, self.center_frequency + half)

    def deflector(self, drive_frequency=None):
        """Matching train element for this deflector."""
        return beam_optics.AodDeflector(
            center_frequency=self.center_frequency,
            acoustic_velocity=self.acoustic_velocity,
            drive_frequency=drive_frequency,
        )


def in_band(spec, drive_frequency):
    lo, hi = spec.band()
    return bool(np.all((drive_frequency >= lo) & (drive_frequency <= hi)))


def deflection_angle(spec, drive_frequency):
    """First-order deflection (rad) relative to the centre-frequency output.

    Out-of-band frequencies are allowed (the physics stays linear) but
    emit an :class:`OutOfBandWarning`.
    """
    f = finite("drive_frequency", drive_frequency)
    if not in_band(spec, f):
        warnings.warn(
            f"drive frequency outside the rated band {spec.band()}",
            OutOfBandWarning, stacklevel=2)
    theta = spec.optical_wavelength * (f - spec.center_frequency) / spec.acoustic_velocity
    return float(theta) if np.ndim(drive_frequency) == 0 else theta


def full_band_swing(spec):
    """Total deflection swing across the rated bandwidth, lambda * B / V."""
    return spec.optical_wavelength * spec.bandwidth / spec.acoustic_velocity


def _steering_gain(spec, train):
    """Final x centroid (m) of a centred beam leaving the deflector at unit x tilt."""
    elements = list(train)
    aod_indices = [i for i, el in enumerate(elements)
                   if isinstance(el, beam_optics.AodDeflector)]
    if len(aod_indices) != 1:
        raise TrainStructureError(
            f"steering requires exactly one AodDeflector in the train, found {len(aod_indices)}")
    downstream = elements[aod_indices[0] + 1:]
    if not any(isinstance(el, beam_optics.ThinLens) and el.axis in ("x", "both")
               for el in downstream):
        raise TrainStructureError(
            "steering requires a focusing lens on the x axis after the deflector")
    beam = beam_optics.AstigmaticBeam.circular(spec.optical_wavelength, spec.crystal_waist)
    beam = replace(beam, x=replace(beam.x, tilt=1.0))
    return beam_optics.trace_train(beam, downstream)[-1].beam.x.centroid


def steering_map(spec, train, drive_frequency):
    """Transverse displacement (m) at the train's terminal plane.

    ``drive_frequency`` is a scalar or an array.  The map is
    :func:`deflection_angle` times the train's angle-to-position gain,
    taken from the same ray path as :func:`~aodkit.beam_optics.propagate`.
    Raises :class:`TrainStructureError` unless the train holds exactly one
    deflector with a focusing x lens after it.
    """
    return _steering_gain(spec, train) * deflection_angle(spec, drive_frequency)


def steering_efficiency(spec, train):
    """Exact slope of :func:`steering_map`, metres per hertz of drive."""
    return _steering_gain(spec, train) * spec.optical_wavelength / spec.acoustic_velocity


def diffraction_efficiency(spec, drive_frequency):
    """Power diffraction efficiency, ``eta0 * sinc^2((f - fc) / width)``."""
    f = finite("drive_frequency", drive_frequency)
    eta = spec.peak_efficiency * np.sinc((f - spec.center_frequency) / spec.efficiency_width) ** 2
    return float(eta) if np.ndim(drive_frequency) == 0 else eta


def theoretical_switch_time(spec):
    """Time for the new tone's front to reach the beam centre, 1.3 w / V."""
    return SWITCH_TIME_FACTOR * spec.crystal_waist / spec.acoustic_velocity


RAMP_MODELS = ("field_overlap", "linear")

def _erf(u):
    """``math.erf`` element-wise."""
    return np.asarray(np.frompyfunc(math.erf, 1, 1)(u), dtype=float)


def transit_ramp(spec, t, model="field_overlap"):
    """Normalised diffracted-amplitude ramp after an instantaneous retune.

    At ``t = 0`` the new tone's acoustic front enters the crystal
    ``1.3 w`` upstream of the spot centre and travels at the acoustic
    velocity.  ``field_overlap`` (default) is the overlap of the swept
    column with the Gaussian field, ``0.5 (1 + erf((V t - 1.3 w) / w))``;
    ``linear`` is a straight ramp reaching 1 at twice the switch time.
    Both cross 1/2 exactly when the front passes the spot centre, i.e. at
    :func:`theoretical_switch_time`.
    """
    ts = theoretical_switch_time(spec)
    tau = spec.crystal_waist / spec.acoustic_velocity  # beam-radius transit time
    t = finite("t", t)
    if model == "field_overlap":
        a = 0.5 * (1.0 + _erf((t - ts) / tau))
    elif model == "linear":
        a = np.clip(t / (2.0 * ts), 0.0, 1.0)
    else:
        raise ValidationError(f"unknown ramp model {model!r}; expected one of {RAMP_MODELS}")
    return float(a) if np.ndim(t) == 0 else a


def ramp_area(spec, duration, model="field_overlap"):
    """Closed-form integral of :func:`transit_ramp` from 0 to ``duration``.

    The integral of the amplitude ramp is the accumulated Rabi phase per
    unit peak Rabi rate, used by the switching experiment.
    """
    ts = theoretical_switch_time(spec)
    tau = spec.crystal_waist / spec.acoustic_velocity
    d = non_negative("duration", duration)
    if model == "field_overlap":
        def antideriv(t):
            u = (t - ts) / tau
            return 0.5 * t + 0.5 * tau * (u * _erf(u) + np.exp(-u**2) / math.sqrt(math.pi))
        area = antideriv(d) - antideriv(0.0)
    elif model == "linear":
        area = np.where(d <= 2.0 * ts, d**2 / (4.0 * ts), d - ts)
    else:
        raise ValidationError(f"unknown ramp model {model!r}; expected one of {RAMP_MODELS}")
    return float(area) if np.ndim(duration) == 0 else area


@dataclass(frozen=True)
class MonitorChain:
    """Pick-off photodiode chain: sampler, responsivity, transimpedance."""

    sample_fraction: float
    responsivity: float
    transimpedance_gain: float

    def __post_init__(self):
        in_range("sample_fraction", self.sample_fraction, 0.0, 1.0, "()")
        positive("responsivity", self.responsivity)
        positive("transimpedance_gain", self.transimpedance_gain)


def monitor_voltage(chain, beam_power, efficiency):
    """Photodiode output voltage for a given diffracted-beam power.

    ``V = P * eta * fraction * R * G``; linear in the efficiency, so the
    monitor trace is an exact proxy for the diffraction response.
    """
    non_negative("beam_power", beam_power)
    eta = in_range("efficiency", efficiency, 0.0, 1.0)
    v = beam_power * eta * chain.sample_fraction * chain.responsivity * chain.transimpedance_gain
    return float(v) if np.ndim(efficiency) == 0 else v
