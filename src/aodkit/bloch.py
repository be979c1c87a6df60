"""Adaptive RK4 integration of a driven two-level system.

Independent reference dynamics for validating the closed-form Rabi
formulas used by the virtual lab: the state is integrated directly from
the Schrodinger equation in the rotating frame,

    i d/dt (cg, ce) = H (cg, ce),   H = 0.5 * [[-delta, omega(t)],
                                               [omega(t), delta]].

Step-doubling error control with local extrapolation; the drive may be
any callable of time (amplitude ramps included).  The two amplitudes are
carried as Python complex scalars: 2-element arrays cost several times
more per step in numpy call overhead than the arithmetic itself.
"""

import numpy as np

from .errors import finite, non_negative

STEP_TOLERANCE = 1e-11  # per-step amplitude error; holds closed forms to well under 1e-8


def _deriv(t, cg, ce, omega, delta):
    om = omega(t) if callable(omega) else omega
    return -0.5j * (-delta * cg + om * ce), -0.5j * (om * cg + delta * ce)


def _rk4_step(t, cg, ce, h, omega, delta):
    k1g, k1e = _deriv(t, cg, ce, omega, delta)
    k2g, k2e = _deriv(t + 0.5 * h, cg + 0.5 * h * k1g, ce + 0.5 * h * k1e, omega, delta)
    k3g, k3e = _deriv(t + 0.5 * h, cg + 0.5 * h * k2g, ce + 0.5 * h * k2e, omega, delta)
    k4g, k4e = _deriv(t + h, cg + h * k3g, ce + h * k3e, omega, delta)
    return (cg + (h / 6.0) * (k1g + 2.0 * k2g + 2.0 * k3g + k4g),
            ce + (h / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e))


def excited_population(omega, detuning, duration):
    """Excited-state population after driving from the ground state.

    ``omega`` is the (possibly time-dependent) Rabi rate in rad/s.
    """
    non_negative("duration", duration)
    finite("detuning", detuning)
    if not callable(omega):
        finite("omega", omega)
    if duration == 0.0:
        return 0.0

    cg, ce = 1.0 + 0.0j, 0.0j
    t = 0.0
    h = duration / 64.0
    while t < duration:
        h = min(h, duration - t)
        full_g, full_e = _rk4_step(t, cg, ce, h, omega, detuning)
        half_g, half_e = _rk4_step(t, cg, ce, 0.5 * h, omega, detuning)
        dbl_g, dbl_e = _rk4_step(t + 0.5 * h, half_g, half_e, 0.5 * h, omega, detuning)
        err = max(abs(dbl_g - full_g), abs(dbl_e - full_e))
        if err > STEP_TOLERANCE and h > 1e-18 * duration:
            h *= 0.5
            continue
        # 5th-order local extrapolation
        cg = dbl_g + (dbl_g - full_g) * (1.0 / 15.0)
        ce = dbl_e + (dbl_e - full_e) * (1.0 / 15.0)
        t += h
        if err < STEP_TOLERANCE / 32.0:
            h *= 2.0
    # numpy's complex modulus: abs() (libm hypot) can differ in the last bit
    return float(np.abs(np.complex128(ce)) ** 2)
