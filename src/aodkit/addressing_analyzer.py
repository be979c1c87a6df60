"""Individual-addressing quality: crosstalk, clipping, misalignment.

The addressed ion sits at the centre of a focused Gaussian spot; its
neighbours see the spot's tails.  For a Raman pair delivered through the
same deflector path the Rabi rate follows the local intensity, so the
default coupling mode is ``"intensity"`` (rate ratio
``exp(-2 d^2 / w^2)``); ``"amplitude"`` (single-field coupling,
``exp(-d^2 / w^2)``) is available everywhere the mode matters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ValidationError, as_count, finite, increasing_grid, non_negative,
                     positive)

COUPLING_MODES = ("intensity", "amplitude")

# Weideman's rational expansion of the Faddeeva function (J. A. C.
# Weideman, SIAM J. Numer. Anal. 31 (1994) 1497):
#   w(z) = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)),  Z = (L + i z) / (L - i z),
# where p(Z) = sum_{n=1}^{N} a_n Z^(n-1), valid for Im z >= 0.  The a_n are
# the real 4N-point DFT of f(t) = exp(-t^2) (L^2 + t^2) sampled at
# t_k = L tan(pi k / 4N), k = -2N+1 .. 2N-1 (the k = -2N sample is 0),
#   a_n = sum_k f(t_k) cos(pi n k / 2N) / 4N,
# evaluated once here as one matrix product.  N = 40 keeps the relative
# error near 1e-14 on the arguments clipped_crosstalk forms.
_W_TERMS = 40
_W_SCALE = math.sqrt(_W_TERMS / math.sqrt(2.0))  # Weideman's optimal L


def _weideman_coefficients():
    """a_N .. a_1 (highest power first, for ``np.polyval``)."""
    half = 2 * _W_TERMS
    k = np.arange(1 - half, half)
    t = _W_SCALE * np.tan(k * (math.pi / (2 * half)))
    f = np.exp(-t**2) * (_W_SCALE**2 + t**2)
    n = np.arange(_W_TERMS, 0, -1)
    return np.cos(np.outer(n, k) * (math.pi / half)) @ f / (2 * half)


_W_COEFFICIENTS = _weideman_coefficients()


def _faddeeva(z):
    """Faddeeva function ``w(z) = exp(-z^2) erfc(-i z)`` for ``Im z >= 0``."""
    d = _W_SCALE - 1j * z
    p = np.polyval(_W_COEFFICIENTS, (_W_SCALE + 1j * z) / d)
    return 2.0 * p / d**2 + (1.0 / math.sqrt(math.pi)) / d


@dataclass(frozen=True)
class IonChain:
    """Ion positions (m) along the steering axis, strictly increasing."""

    positions: tuple

    def __post_init__(self):
        pos = tuple(float(p) for p in self.positions)
        increasing_grid("ion positions", pos, 1)
        object.__setattr__(self, "positions", pos)

    @classmethod
    def uniform(cls, count, spacing, center=0.0):
        """Evenly spaced chain of ``count`` ions centred on ``center``."""
        count = as_count("count", count, 1)
        positive("spacing", spacing)
        offset = 0.5 * (count - 1) * spacing
        return cls(tuple(center - offset + i * spacing for i in range(count)))

    def __len__(self):
        return len(self.positions)

    @property
    def array(self):
        return np.asarray(self.positions)


def _check_mode(mode):
    if mode not in COUPLING_MODES:
        raise ValidationError(f"mode must be one of {COUPLING_MODES}, got {mode!r}")


def relative_rate(waist, offset, mode="intensity"):
    """Rabi rate at ``offset`` from the spot centre relative to the centre."""
    _check_mode(mode)
    positive("waist", waist)
    d2 = finite("offset", offset) ** 2
    power = 2.0 if mode == "intensity" else 1.0
    r = np.exp(-power * d2 / waist**2)
    return float(r) if np.ndim(offset) == 0 else r


@dataclass(frozen=True)
class CrosstalkMatrix:
    """``values[i, j]``: rate at ion ``i`` relative to the addressed target
    when the beam is centred on ``beam_centers[j]``."""

    values: np.ndarray
    ion_positions: np.ndarray
    beam_centers: np.ndarray
    waist: float
    mode: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def worst_offdiagonal(self):
        """Largest neighbour rate over all (ion, centre) pairs, ``i != j``."""
        v = self.values
        if v.shape[0] < 2 or v.shape[1] < 2:
            return 0.0
        mask = ~np.eye(v.shape[0], v.shape[1], dtype=bool)
        return float(v[mask].max())


def crosstalk_matrix(chain, waist, beam_centers=None, mode="intensity"):
    """Ideal-Gaussian crosstalk matrix for a chain.

    ``beam_centers`` defaults to the ion positions themselves (perfectly
    pointed addressing); the diagonal is then exactly 1.
    """
    _check_mode(mode)
    centers = chain.array if beam_centers is None else finite("beam_centers", beam_centers)
    offsets = chain.array[:, None] - centers[None, :]
    values = relative_rate(waist, offsets, mode=mode)
    return CrosstalkMatrix(
        values=np.atleast_2d(values),
        ion_positions=chain.array,
        beam_centers=centers,
        waist=waist,
        mode=mode,
    )


def clipped_crosstalk(chain, ion_plane_waist, clipping_ratio, *,
                      collimated_waist=1.5e-3, wavelength=355e-9, mode="intensity"):
    """Crosstalk matrix when the collimated beam is clipped by an aperture.

    The collimated Gaussian (radius ``collimated_waist``) passes a hard
    aperture of half-width ``clipping_ratio * collimated_waist`` and is
    focused by an ideal lens onto the ion plane, where the unclipped spot
    has waist ``ion_plane_waist``; diffraction ripple from the truncation
    raises the far tails above the ideal Gaussian.  The pattern depends
    only on the clipping ratio rho and the scaled offset
    s = (x_i - x_j) / ion_plane_waist; ``collimated_waist`` and
    ``wavelength`` are checked but do not change the values.

    The focal amplitude is the Fourier transform of the truncated
    Gaussian, int_{-rho}^{rho} exp(-t^2 - 2 i s t) dt, which in closed
    form relative to the centre is

        A(s) = Re[exp(-s^2) - exp(-rho^2 - 2 i rho s) w(-s + i rho)] / erf(rho)

    with the Faddeeva function w (``erf(z) = 1 - exp(-z^2) w(i z)``;
    Poppe & Wijers, ACM TOMS 16 (1990) 38).  Unlike the complex ``erf``,
    this form stays finite at any offset because |w| <= 1 in the upper
    half plane.  w is evaluated by Weideman's 40-term rational expansion
    (J. A. C. Weideman, SIAM J. Numer. Anal. 31 (1994) 1497), valid for
    Im z >= 0, which every argument -s + i rho meets.  Intensity mode
    gives A^2, amplitude mode |A|.
    """
    _check_mode(mode)
    positive("clipping_ratio", clipping_ratio)
    positive("ion_plane_waist", ion_plane_waist)
    positive("collimated_waist", collimated_waist)
    positive("wavelength", wavelength)

    positions = chain.array
    s = (positions[:, None] - positions[None, :]) / ion_plane_waist
    rho = float(clipping_ratio)
    amp = np.exp(-s**2) - np.exp(-rho**2 - 2j * rho * s) * _faddeeva(-s + 1j * rho)
    rel = np.abs(amp.real) / math.erf(rho)
    values = rel**2 if mode == "intensity" else rel

    return CrosstalkMatrix(
        values=values,
        ion_positions=positions,
        beam_centers=positions,
        waist=ion_plane_waist,
        mode=mode,
    )


def misalignment_imbalance(mis_angle, half_range, perpendicular_waist):
    """Worst-case rate imbalance from steering-axis misalignment.

    A steering axis rotated by ``mis_angle`` from the chain axis walks
    the spot off the ions perpendicular to the chain; at the chain ends
    (``half_range`` from the centre ion) the intensity drops by
    ``1 - exp(-2 (half_range sin(mis_angle) / w_perp)^2)``.
    """
    positive("perpendicular_waist", perpendicular_waist)
    non_negative("half_range", half_range)
    finite("mis_angle", mis_angle)
    excursion = half_range * math.sin(mis_angle)
    return 1.0 - math.exp(-2.0 * (excursion / perpendicular_waist) ** 2)

