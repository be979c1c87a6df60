"""Astigmatic Gaussian-beam propagation and scalar 1-D diffraction.

The two transverse axes (labelled ``x`` for the steering axis and ``z``
for the perpendicular axis) are propagated independently: each carries
its own complex beam parameter, centroid and tilt.  Elements are thin
and ideal; the only physical-aperture effects supported are handled by
the wave-optics path (:func:`diffract`), never by the ray path
(:func:`propagate`).

Sign conventions
----------------
* ``waist_position`` is the location of the axis waist measured
  downstream (+) of the current reference plane.
* ``tilt`` is the ray angle in radians, positive toward +axis.
* All quantities are SI (metres, radians, seconds, watts).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (InvalidElementError, ResolutionError, ValidationError, as_count, finite,
                     in_range, non_negative, nonzero, positive)

AXES = ("x", "z")


def _check_axis(axis):
    if axis not in AXES:
        raise ValidationError(f"axis must be one of {AXES}, got {axis!r}")


# ---------------------------------------------------------------------------
# Beam state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamAxis:
    """State of one transverse axis of a Gaussian beam.

    Attributes
    ----------
    waist_radius:
        1/e^2 intensity radius at the waist (m), strictly positive.
    waist_position:
        Waist location downstream of the reference plane (m).
    centroid:
        Transverse centroid offset at the reference plane (m).
    tilt:
        Propagation tilt (rad).
    """

    waist_radius: float
    waist_position: float = 0.0
    centroid: float = 0.0
    tilt: float = 0.0

    def __post_init__(self):
        positive("waist_radius", self.waist_radius)
        finite("waist_position", self.waist_position)
        finite("centroid", self.centroid)
        finite("tilt", self.tilt)


@dataclass(frozen=True)
class AstigmaticBeam:
    """Gaussian beam with independent x and z axis states.

    ``power_fraction`` tracks the power remaining relative to the source
    (pick-offs reduce it); no element in the ray path may increase it.
    """

    wavelength: float
    x: BeamAxis
    z: BeamAxis
    power_fraction: float = 1.0

    def __post_init__(self):
        positive("wavelength", self.wavelength)
        in_range("power_fraction", self.power_fraction, 0.0, 1.0)

    @classmethod
    def circular(cls, wavelength, waist_radius):
        """Stigmatic beam with identical x and z waists at the reference plane."""
        ax = BeamAxis(waist_radius=waist_radius)
        return cls(wavelength=wavelength, x=ax, z=ax)

    def axis(self, axis):
        _check_axis(axis)
        return self.x if axis == "x" else self.z

    def rayleigh_range(self, axis):
        a = self.axis(axis)
        return math.pi * a.waist_radius**2 / self.wavelength

    def q_parameter(self, axis):
        """Complex beam parameter at the reference plane."""
        a = self.axis(axis)
        return complex(-a.waist_position, self.rayleigh_range(axis))


def spot_size_at(beam, axis, distance=0.0):
    """1/e^2 intensity radius ``w(z)`` of one axis.

    Parameters
    ----------
    beam:
        Beam state at a reference plane.
    axis:
        ``"x"`` or ``"z"``.
    distance:
        Evaluation plane, measured downstream of the reference plane
        (default: the reference plane itself).

    Evaluates ``w = w0 * sqrt(1 + (dz / zR)^2)`` with ``dz`` the
    distance from the waist.
    """
    finite("distance", distance)
    a = beam.axis(axis)
    z_r = beam.rayleigh_range(axis)
    dz = distance - a.waist_position
    return a.waist_radius * math.sqrt(1.0 + (dz / z_r) ** 2)


def focused_waist(wavelength, focal_length, input_radius):
    """Diffraction-limited waist ``lambda * f / (pi * w_in)`` of an ideal lens."""
    finite("wavelength", wavelength)
    finite("focal_length", focal_length)
    positive("input_radius", input_radius)
    return wavelength * focal_length / (math.pi * input_radius)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeSpace:
    """Homogeneous propagation over ``length`` metres (>= 0)."""

    length: float

    def __post_init__(self):
        non_negative("length", self.length)

    def ray_matrix(self, axis):
        _check_axis(axis)
        return np.array([[1.0, self.length], [0.0, 1.0]])


@dataclass(frozen=True)
class ThinLens:
    """Ideal thin lens; ``axis`` selects 'x', 'z' or 'both'."""

    focal_length: float
    axis: str = "both"

    def __post_init__(self):
        nonzero("focal_length", self.focal_length)
        if self.axis not in AXES + ("both",):
            raise ValidationError(f"axis must be 'x', 'z' or 'both', got {self.axis!r}")

    def ray_matrix(self, axis):
        _check_axis(axis)
        if self.axis in ("both", axis):
            return np.array([[1.0, 0.0], [-1.0 / self.focal_length, 1.0]])
        return np.eye(2)


@dataclass(frozen=True)
class AnamorphicScaler:
    """Ideal afocal expander: x radius scaled by ``mx``, z by ``mz``.

    Models a prism pair or cylindrical telescope as a pure, thin beam
    scaler (divergence scales by the inverse, so the per-axis ray matrix
    is diag(m, 1/m) with unit determinant).
    """

    mx: float = 1.0
    mz: float = 1.0

    def __post_init__(self):
        positive("mx", self.mx)
        positive("mz", self.mz)

    def ray_matrix(self, axis):
        _check_axis(axis)
        m = self.mx if axis == "x" else self.mz
        return np.array([[m, 0.0], [0.0, 1.0 / m]])


@dataclass(frozen=True)
class ImagingSystem:
    """Ideal relay imaging the current plane with lateral ``magnification``."""

    magnification: float

    def __post_init__(self):
        nonzero("magnification", self.magnification)

    def ray_matrix(self, axis):
        _check_axis(axis)
        m = self.magnification
        return np.array([[m, 0.0], [0.0, 1.0 / m]])


@dataclass(frozen=True)
class AodDeflector:
    """Acousto-optic deflector acting on the x axis.

    The envelope is passed unchanged (identity matrix); the first-order
    ray acquires a frequency-dependent tilt
    ``theta = wavelength * (f - f_center) / velocity``
    relative to the centre-frequency output direction.

    Parameters carry their own copy of the acoustic properties so a
    train is self-contained; ``drive_frequency`` defaults to the centre
    frequency (no differential kick).
    """

    center_frequency: float
    acoustic_velocity: float
    drive_frequency: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.drive_frequency is None:
            object.__setattr__(self, "drive_frequency", self.center_frequency)
        for name in ("center_frequency", "acoustic_velocity", "drive_frequency"):
            positive(name, getattr(self, name))

    def ray_matrix(self, axis):
        _check_axis(axis)
        return np.eye(2)

    def tilt_kick(self, wavelength):
        """Differential output tilt for the configured drive frequency."""
        return wavelength * (self.drive_frequency - self.center_frequency) / self.acoustic_velocity


@dataclass(frozen=True)
class ImageRotator:
    """Ideal image rotation by ``angle`` radians.

    Rotates the steering direction: centroids and tilts mix between the
    axes, the per-axis envelopes are left untouched (a valid idealisation
    for the nearly-stigmatic final focusing stage where the rotator sits).
    """

    angle: float

    def __post_init__(self):
        finite("angle", self.angle)


@dataclass(frozen=True)
class BeamSampler:
    """Pick-off sending ``sample_fraction`` of the power to a monitor port."""

    sample_fraction: float

    def __post_init__(self):
        in_range("sample_fraction", self.sample_fraction, 0.0, 1.0, "[)")

    def ray_matrix(self, axis):
        _check_axis(axis)
        return np.eye(2)


@dataclass(frozen=True)
class Aperture:
    """Hard aperture of ``half_width`` metres; wave-optics path only."""

    half_width: float

    def __post_init__(self):
        positive("half_width", self.half_width)


RAY_ELEMENTS = (FreeSpace, ThinLens, AnamorphicScaler, ImagingSystem, AodDeflector, BeamSampler)
ELEMENT_TYPES = RAY_ELEMENTS + (ImageRotator, Aperture)


@dataclass(frozen=True)
class OpticalTrain:
    """Ordered sequence of elements, beam side first."""

    elements: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for i, el in enumerate(self.elements):
            if not isinstance(el, ELEMENT_TYPES):
                raise ValidationError(f"element {i} has unsupported type {type(el).__name__}")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


# ---------------------------------------------------------------------------
# Ray-path propagation
# ---------------------------------------------------------------------------


def _apply_matrix(beam, axis_state, z_r, m):
    """Transform one axis state through a unit-determinant ABCD matrix."""
    (a, b), (c, d) = m
    q = complex(-axis_state.waist_position, z_r)
    q2 = (a * q + b) / (c * q + d)
    z_r2 = q2.imag
    if not z_r2 > 0.0:
        raise InvalidElementError("ABCD transform lost beam confinement")
    w0 = math.sqrt(z_r2 * beam.wavelength / math.pi)
    u2 = a * axis_state.centroid + b * axis_state.tilt
    t2 = c * axis_state.centroid + d * axis_state.tilt
    return BeamAxis(waist_radius=w0, waist_position=-q2.real, centroid=u2, tilt=t2)


def propagate(beam, element):
    """Propagate a beam state through a single element.

    Pure function: returns a new :class:`AstigmaticBeam`.  Apertures are
    rejected here because a Gaussian-envelope state cannot represent a
    clipped field; use :func:`diffract` for clipping.
    """
    if isinstance(element, Aperture):
        raise InvalidElementError(
            "Aperture cannot be applied on the ray path; "
            "build a FieldProfile1D and use diffract() instead"
        )
    if not isinstance(element, ELEMENT_TYPES):
        raise InvalidElementError(f"unsupported element type {type(element).__name__}")

    if isinstance(element, ImageRotator):
        ca, sa = math.cos(element.angle), math.sin(element.angle)
        ux, uz = beam.x.centroid, beam.z.centroid
        tx, tz = beam.x.tilt, beam.z.tilt
        new_x = replace(beam.x, centroid=ca * ux - sa * uz, tilt=ca * tx - sa * tz)
        new_z = replace(beam.z, centroid=sa * ux + ca * uz, tilt=sa * tx + ca * tz)
        return replace(beam, x=new_x, z=new_z)

    power = beam.power_fraction
    if isinstance(element, BeamSampler):
        power = power * (1.0 - element.sample_fraction)

    new_x = _apply_matrix(beam, beam.x, beam.rayleigh_range("x"), element.ray_matrix("x"))
    new_z = _apply_matrix(beam, beam.z, beam.rayleigh_range("z"), element.ray_matrix("z"))

    if isinstance(element, AodDeflector):
        new_x = replace(new_x, tilt=new_x.tilt + element.tilt_kick(beam.wavelength))

    return replace(beam, x=new_x, z=new_z, power_fraction=power)


@dataclass(frozen=True)
class TraceStep:
    """Beam state directly after ``element`` (position ``index`` in the train)."""

    index: int
    element: object
    beam: AstigmaticBeam


def trace_train(beam, train):
    """Propagate through every element in order.

    Returns one :class:`TraceStep` per element; the final step holds the
    output state.  Composition law: the result equals folding
    :func:`propagate` over the elements.
    """
    steps = []
    state = beam
    for i, el in enumerate(train):
        state = propagate(state, el)
        steps.append(TraceStep(index=i, element=el, beam=state))
    return steps


# ---------------------------------------------------------------------------
# Wave-optics path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldProfile1D:
    """Sampled complex field along one transverse axis.

    ``samples[k]`` is the field at ``center + (k - n/2) * pitch`` where
    ``n = len(samples)`` must be a power of two (FFT efficiency and
    unambiguous Nyquist handling).
    """

    wavelength: float
    axis: str
    pitch: float
    samples: np.ndarray
    center: float = 0.0

    def __post_init__(self):
        _check_axis(self.axis)
        positive("wavelength", self.wavelength)
        positive("pitch", self.pitch)
        arr = np.asarray(self.samples, dtype=complex)
        n = arr.shape[0]
        if arr.ndim != 1 or n < 2 or (n & (n - 1)) != 0:
            raise ValidationError(f"sample count must be a power of two >= 2, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def coordinates(self):
        n = self.samples.shape[0]
        return self.center + (np.arange(n) - n // 2) * self.pitch

    @property
    def power(self):
        """Integrated intensity (sum |E|^2 * pitch)."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.pitch)

    def second_moment_width(self):
        """Intensity-second-moment 1/e^2-equivalent radius, ``2 * sigma``."""
        inten = np.abs(self.samples) ** 2
        total = inten.sum()
        if total <= 0.0:
            raise ValidationError("profile carries no power")
        xs = self.coordinates
        mean = float((xs * inten).sum() / total)
        var = float(((xs - mean) ** 2 * inten).sum() / total)
        return 2.0 * math.sqrt(var)


def gaussian_profile(wavelength, waist_radius, count, half_extent, waist_position=0.0, axis="x"):
    """Sample a fundamental Gaussian on a symmetric grid.

    The field at the reference plane is built from the complex beam
    parameter, so a beam whose waist sits ``waist_position`` metres
    downstream carries the matching converging/diverging phase front.
    """
    count = as_count("count", count, 2)  # FieldProfile1D requires a power of two
    positive("half_extent", half_extent)
    positive("wavelength", wavelength)
    nonzero("waist_radius", waist_radius)  # only its square enters
    finite("waist_position", waist_position)
    z_r = math.pi * waist_radius**2 / wavelength
    # Phasor convention exp(+i k z): a diverging beam (waist upstream,
    # waist_position < 0) carries phase +k x^2 / (2 R) with R > 0, which is
    # exp(-i k x^2 / (2 q)) for q = waist_position + i zR.
    q = complex(waist_position, z_r)
    pitch = half_extent / (count // 2)
    xs = (np.arange(count) - count // 2) * pitch
    k = 2.0 * math.pi / wavelength
    samples = np.exp(-1j * k * xs**2 / (2.0 * q))
    return FieldProfile1D(wavelength=wavelength, axis=axis, pitch=pitch, samples=samples)


MIN_SAMPLES_PER_WIDTH = 16
MIN_EXTENT_WIDTHS = 4.0


def _check_resolution(profile, width):
    n = profile.samples.shape[0]
    per_width = width / profile.pitch
    if per_width < MIN_SAMPLES_PER_WIDTH:
        raise ResolutionError(
            f"grid pitch {profile.pitch:.3e} m gives {per_width:.1f} samples per beam "
            f"width {width:.3e} m; need >= {MIN_SAMPLES_PER_WIDTH}"
        )
    half_extent = n // 2 * profile.pitch
    if half_extent < MIN_EXTENT_WIDTHS * width:
        raise ResolutionError(
            f"grid half-extent {half_extent:.3e} m is under {MIN_EXTENT_WIDTHS} beam "
            f"widths ({width:.3e} m); enlarge the grid to avoid wrap-around"
        )


def diffract(profile, aperture=None, distance=0.0):
    """Clip a field by a hard aperture and propagate it in free space.

    Scalar 1-D angular-spectrum method: the spectrum is multiplied by
    ``exp(i 2 pi d sqrt(1/lambda^2 - nu^2))`` with the evanescent branch
    decaying.  Power is conserved exactly when no aperture clips.

    Raises
    ------
    ResolutionError
        If the incoming beam is undersampled (< 16 samples per
        second-moment width) or the grid spans < 4 beam widths.
    """
    width = profile.second_moment_width()
    _check_resolution(profile, width)

    samples = profile.samples
    if aperture is not None:
        if not isinstance(aperture, Aperture):
            raise InvalidElementError(
                f"diffract clips through Aperture elements only, got {type(aperture).__name__}"
            )
        mask = np.abs(profile.coordinates) <= aperture.half_width
        samples = samples * mask

    if distance != 0.0:
        n = samples.shape[0]
        nu = np.fft.fftfreq(n, d=profile.pitch)
        arg = 1.0 / profile.wavelength**2 - nu**2
        kz = 2.0 * math.pi * np.sqrt(np.maximum(arg, 0.0))
        kappa = 2.0 * math.pi * np.sqrt(np.maximum(-arg, 0.0))
        h = np.exp(1j * kz * distance) * np.exp(-kappa * abs(distance))
        samples = np.fft.ifft(np.fft.fft(samples) * h)

    return FieldProfile1D(
        wavelength=profile.wavelength,
        axis=profile.axis,
        pitch=profile.pitch,
        samples=samples,
        center=profile.center,
    )


def focused_profile(profile, focal_length):
    """Field in the back focal plane of an ideal lens (2f Fourier map).

    ``E_f(u) = (1/sqrt(lambda f)) * integral E(x) exp(-i 2 pi u x / (lambda f)) dx``
    evaluated by FFT; output grid pitch is ``lambda f / (n * pitch)``.
    Power is conserved.
    """
    lam_f = profile.wavelength * positive("focal_length", focal_length)
    n = profile.samples.shape[0]
    xs = profile.coordinates
    us = np.fft.fftshift(np.fft.fftfreq(n, d=profile.pitch)) * lam_f
    spectrum = np.fft.fftshift(np.fft.fft(np.asarray(profile.samples)))
    # The FFT indexes samples from zero; restore the absolute grid origin.
    phase0 = np.exp(-2j * math.pi * us * xs[0] / lam_f)
    out = spectrum * phase0 * profile.pitch / math.sqrt(lam_f)
    return FieldProfile1D(
        wavelength=profile.wavelength,
        axis=profile.axis,
        pitch=float(us[1] - us[0]),
        samples=out,
        center=0.0,
    )


def focused_field_at(profile, focal_length, positions):
    """Exact back-focal-plane field at arbitrary positions (direct sum).

    Same transform as :func:`focused_profile` without grid quantisation;
    O(n * len(positions)), intended for a handful of probe points.
    """
    lam_f = profile.wavelength * positive("focal_length", focal_length)
    xs = profile.coordinates
    us = np.atleast_1d(np.asarray(positions, dtype=float))
    phases = np.exp(-2j * math.pi * np.outer(us, xs) / lam_f)
    vals = phases @ np.asarray(profile.samples) * profile.pitch / math.sqrt(lam_f)
    return vals
