"""Anamorphic prism-pair design: expansion ratio, solving and tolerancing.

A pair of wedge prisms used near grazing incidence expands a beam along
one axis only.  Refraction at each of the four surfaces scales the beam
width by ``cos(theta_refracted) / cos(theta_incident)``; the expansion
factor M is the product over the surfaces.

Angle convention
----------------
``alpha`` is the grazing angle between the beam and the entry face of
prism 1, so the incidence from the normal is ``90 deg - alpha``;
``alpha'`` is the face-to-face angle between the prisms, so the second
prism's incidence is ``(90 deg - alpha') + theta4`` with ``theta4`` the
exit angle of prism 1 (geometry chained through the exit ray).

This grazing-chained reading is fixed by the reference design
(alpha = 39 deg, alpha' = 14.75 deg, beta = beta' = 30 deg, n = 1.476,
M = 4.7): it gives M = 4.693, 0.15 % from 4.7, while reading both angles
as incidences from the face normals gives M = 1.008.  All angles in this
module are degrees; reports record the convention as ``CONVENTION``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, InfeasibleDesignError, TotalInternalReflectionError,
                     UnachievableTargetError, as_count, in_range, increasing_grid,
                     non_negative, positive)

CONVENTION = "grazing-chained"  # the angle reading above, as reports name it

ANCHOR_DESIGN_ANGLES = (39.0, 14.75, 30.0, 30.0, 1.476)
ANCHOR_EXPANSION = 4.7

ANGLE_NAMES = ("alpha", "alpha_prime", "beta", "beta_prime")


@dataclass(frozen=True)
class PrismPairDesign:
    """Mounting and wedge angles (degrees) plus refractive index.

    ``alpha`` and ``alpha_prime`` follow the module-level angle
    convention; ``beta`` and ``beta_prime`` are the wedge (apex) angles
    of the first and second prism.
    """

    alpha: float
    alpha_prime: float
    beta: float
    beta_prime: float
    refractive_index: float

    def __post_init__(self):
        in_range("alpha", self.alpha, 0.0, 90.0, "()")
        in_range("alpha_prime", self.alpha_prime, 0.0, 90.0, "()")
        in_range("beta", self.beta, 0.0, 90.0, "[)")
        in_range("beta_prime", self.beta_prime, 0.0, 90.0, "[)")
        in_range("refractive_index", self.refractive_index, 1.0, 5.0, "[)")

    def angles(self):
        return (self.alpha, self.alpha_prime, self.beta, self.beta_prime)


# ---------------------------------------------------------------------------
# Vectorised four-surface trace
# ---------------------------------------------------------------------------


def _trace_buffers(shape):
    """Work arrays for one four-surface trace of ``shape`` samples."""
    floats = np.empty((7,) + tuple(shape))
    fails = np.empty((2,) + tuple(shape), dtype=int)
    return (*floats, *fails, np.empty(shape, dtype=bool))


def _single_prism(theta1_deg, wedge_deg, n, t1, t2, t3, m, exit_deg, fail, flag):
    """Trace one prism (entry + exit surface), all angles in degrees.

    Writes the width factor to ``m``, the exit angle (degrees) to
    ``exit_deg`` and to ``fail`` 0 for a feasible trace, 1 if the ray
    cannot strike the entry face (|theta1| >= 90) and 2 for total
    internal reflection at the exit; ``t1``, ``t2``, ``t3`` and ``flag``
    are scratch.  Every output is preallocated, so a Monte-Carlo block
    reuses its pages instead of faulting fresh temporaries in.
    ``exit_deg`` may be ``theta1_deg``.
    """
    np.radians(theta1_deg, out=t1)
    np.greater_equal(np.abs(t1, out=m), math.pi / 2.0, out=flag)  # grazing
    np.copyto(fail, flag)
    np.copyto(t1, 0.0, where=flag)

    np.arcsin(np.divide(np.sin(t1, out=t2), n, out=t2), out=t2)  # |sin t1| / n < 1
    np.subtract(t2, np.radians(wedge_deg, out=t3), out=t3)
    s4 = np.multiply(n, np.sin(t3, out=exit_deg), out=exit_deg)
    np.greater(np.abs(s4, out=m), 1.0, out=flag)
    flag &= fail == 0
    np.copyto(fail, 2, where=flag)
    t4 = np.arcsin(np.clip(s4, -1.0, 1.0, out=s4), out=s4)

    np.divide(np.cos(t2, out=t2), np.cos(t1, out=t1), out=m)
    np.multiply(m, np.divide(np.cos(t4, out=t1), np.cos(t3, out=t3), out=t1), out=m)
    np.copyto(m, np.nan, where=fail != 0)
    np.degrees(t4, out=exit_deg)


def _expansion_many(alpha, alpha_prime, beta, beta_prime, n, buffers=None):
    """Expansion factor for broadcast arrays of angles (degrees).

    Returns (values, fail_surface); ``fail_surface`` is 0 where feasible,
    else the 1-based index of the first offending surface.  Both are
    views into ``buffers`` (from :func:`_trace_buffers`, of the broadcast
    shape) when it is given.
    """
    alpha, alpha_prime, beta, beta_prime = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (alpha, alpha_prime, beta, beta_prime))
    )
    shape = alpha.shape
    alpha, alpha_prime, beta, beta_prime = (
        np.atleast_1d(a) for a in (alpha, alpha_prime, beta, beta_prime)
    )
    t1, t2, t3, m1, theta4, m2, theta1b, fail1, surface, flag = (
        buffers or _trace_buffers(alpha.shape))
    scratch = (t1, t2, t3)
    theta1 = np.subtract(90.0, alpha, out=theta4)
    _single_prism(theta1, beta, n, *scratch, m1, theta4, fail1, flag)

    np.add(np.subtract(90.0, alpha_prime, out=theta1b), theta4, out=theta1b)
    _single_prism(theta1b, beta_prime, n, *scratch, m2, theta1b, surface, flag)

    # prism 2 fails at surface 3 or 4; a prism-1 failure (1 or 2) comes first
    np.add(surface, 2, out=surface, where=surface != 0)
    np.copyto(surface, fail1, where=fail1 != 0)
    values = np.multiply(m1, m2, out=m1)
    np.copyto(values, np.nan, where=surface != 0)
    return values.reshape(shape), surface.reshape(shape)


_SURFACE_LABEL = {
    1: "entry face of prism 1",
    2: "exit face of prism 1",
    3: "entry face of prism 2",
    4: "exit face of prism 2",
}


def expansion_factor(design):
    """Single-axis expansion ratio M of a prism pair.

    Raises :class:`TotalInternalReflectionError` (surfaces 2 and 4) or
    :class:`InfeasibleDesignError` (grazing overflow at surfaces 1 and 3)
    for geometries no ray can traverse.
    """
    values, surface = _expansion_many(
        design.alpha, design.alpha_prime, design.beta, design.beta_prime,
        design.refractive_index,
    )
    surf = int(surface)
    if surf:
        msg = f"infeasible prism geometry at the {_SURFACE_LABEL[surf]} (surface {surf})"
        if surf in (2, 4):
            raise TotalInternalReflectionError(msg, surface_index=surf)
        raise InfeasibleDesignError(msg, surface_index=surf)
    return float(values)


# ---------------------------------------------------------------------------
# Design-space exploration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionContour:
    """M over an (alpha, alpha_prime) grid; infeasible points flagged."""

    alpha: np.ndarray
    alpha_prime: np.ndarray
    values: np.ndarray  # shape (len(alpha), len(alpha_prime)), NaN where infeasible
    feasible: np.ndarray


def expansion_contour(alpha_grid, alpha_prime_grid, beta, beta_prime, refractive_index):
    """Expansion factor over a mounting-angle grid.

    Grid points whose geometry is infeasible are flagged in ``feasible``
    and carried as NaN in ``values`` rather than dropped.
    """
    alphas = increasing_grid("alpha_grid", alpha_grid, 1)
    alpha_primes = increasing_grid("alpha_prime_grid", alpha_prime_grid, 1)
    values, surface = _expansion_many(
        alphas[:, None], alpha_primes[None, :], beta, beta_prime, refractive_index,
    )
    return ExpansionContour(
        alpha=alphas,
        alpha_prime=alpha_primes,
        values=values,
        feasible=surface == 0,
    )


@dataclass(frozen=True)
class AlphaPrimeSolution:
    """Result of solving the second mounting angle for a target M."""

    alpha_prime: float
    expansion: float
    degenerate: bool


# Second mounting angles (degrees) searched by solve_alpha_prime; M is
# monotone over this range for grazing-style designs.
ALPHA_PRIME_BRACKET = (5.0, 60.0)


def solve_alpha_prime(target, alpha, beta, beta_prime, refractive_index):
    """Solve the second mounting angle producing expansion ``target``.

    Bisection on ``ALPHA_PRIME_BRACKET``.  If the bracket endpoints do
    not straddle the target, an :class:`UnachievableTargetError` reports
    the achievable range on the bracket; an interval over which M is flat
    at the target returns an endpoint flagged as degenerate.
    """
    positive("target", target)
    lo, hi = ALPHA_PRIME_BRACKET

    def m_of(ap):
        return expansion_factor(PrismPairDesign(alpha, ap, beta, beta_prime, refractive_index))

    def m_or_nan(ap):
        try:
            return m_of(ap)
        except InfeasibleDesignError:
            return math.nan

    m_lo, m_hi = m_or_nan(lo), m_or_nan(hi)
    if math.isnan(m_lo) or math.isnan(m_hi):
        scan = [m_or_nan(a) for a in np.linspace(lo, hi, 65)]
        feas = [m for m in scan if not math.isnan(m)]
        if feas:
            msg = (f"bracket endpoint(s) infeasible for alpha={alpha}, beta={beta}; "
                   f"feasible M range on bracket: {min(feas):.4g}..{max(feas):.4g}")
            achievable = (min(feas), max(feas))
        else:
            msg = f"no feasible geometry on bracket {ALPHA_PRIME_BRACKET}"
            achievable = (math.nan, math.nan)
        raise UnachievableTargetError(msg, achievable=achievable)

    g_lo, g_hi = m_lo - target, m_hi - target
    rel = 1e-6
    if abs(g_lo) <= rel * target and abs(g_hi) <= rel * target:
        # Flat at the target across the whole interval: degenerate solve.
        return AlphaPrimeSolution(alpha_prime=lo, expansion=m_lo, degenerate=True)
    if g_lo == 0.0:
        return AlphaPrimeSolution(lo, m_lo, False)
    if g_hi == 0.0:
        return AlphaPrimeSolution(hi, m_hi, False)
    if g_lo * g_hi > 0.0:
        raise UnachievableTargetError(
            f"target M = {target} not achievable on bracket {ALPHA_PRIME_BRACKET}; "
            f"achievable range {min(m_lo, m_hi):.4g}..{max(m_lo, m_hi):.4g}",
            achievable=(min(m_lo, m_hi), max(m_lo, m_hi)),
        )

    a, b = lo, hi
    g_a = g_lo
    for _ in range(200):
        mid = 0.5 * (a + b)
        g_mid = m_of(mid) - target
        if abs(g_mid) <= 1e-9 * target or (b - a) < 1e-12:
            break
        if (g_a > 0.0) == (g_mid > 0.0):
            a, g_a = mid, g_mid
        else:
            b = mid
    mid = 0.5 * (a + b)
    m_mid = m_of(mid)
    if not abs(m_mid - target) <= rel * target:
        raise ConvergenceError(
            f"bisection stopped at alpha' = {mid:.6g} deg with M = {m_mid:.6g}, "
            f"not within {rel:g} of the target {target}")
    return AlphaPrimeSolution(alpha_prime=mid, expansion=m_mid, degenerate=False)


# ---------------------------------------------------------------------------
# Sensitivity and tolerancing
# ---------------------------------------------------------------------------

_SENSITIVITY_STEP = 1e-4  # degrees, central differences


def sensitivity(design):
    """Relative derivative of M per mounting angle, percent per degree.

    Returns ``{angle_name: 100 * d ln M / d angle}`` (signed) evaluated
    by central differences at the design point.
    """
    base = list(design.angles())
    out = {}
    for i, name in enumerate(ANGLE_NAMES):
        plus, minus = list(base), list(base)
        plus[i] += _SENSITIVITY_STEP
        minus[i] -= _SENSITIVITY_STEP
        m_plus = expansion_factor(PrismPairDesign(*plus, design.refractive_index))
        m_minus = expansion_factor(PrismPairDesign(*minus, design.refractive_index))
        out[name] = 100.0 * (math.log(m_plus) - math.log(m_minus)) / (2.0 * _SENSITIVITY_STEP)
    return out


@dataclass(frozen=True)
class ToleranceSpec:
    """Half-width mounting tolerances per angle, degrees (>= 0)."""

    alpha: float = 1.0
    alpha_prime: float = 1.0
    beta: float = 0.25
    beta_prime: float = 0.25

    def __post_init__(self):
        for name in ANGLE_NAMES:
            non_negative(f"tolerance {name}", getattr(self, name))

    def as_tuple(self):
        return (self.alpha, self.alpha_prime, self.beta, self.beta_prime)


@dataclass(frozen=True)
class ToleranceReport:
    """Monte-Carlo mounting-tolerance study of the expansion factor.

    Relative errors are measured on the log scale, ``|ln(M / M0)|``
    (consistent with the percent-per-degree sensitivity definition); the
    linear-scale worst case ``max |M - M0| / M0`` is carried alongside.
    The worst case includes the deterministic corners of the tolerance
    box, so it always dominates every single-angle error regardless of
    sample count.
    """

    design_expansion: float
    samples: int
    feasible_samples: int
    infeasible_samples: int
    seed: int
    mean: float
    std: float
    minimum: float
    maximum: float
    worst_case_relative_error: float
    worst_case_linear_error: float
    per_angle_relative_errors: dict
    tolerances: dict
    values: np.ndarray = None  # feasible sampled M values in draw order, when requested


_MC_CHUNK = 65536  # rows per seeded generator: fixes the draws
_MC_BLOCK = 4096  # rows traced at once: fixes only the working set


def tolerance_monte_carlo(design, tolerances, samples, seed, keep_values=False):
    """Uniform Monte-Carlo sweep of mounting errors.

    Each sample draws the four angle errors independently and uniformly
    within ``+/- tolerances``; infeasible geometries are counted, not
    silently dropped.  Each chunk of ``_MC_CHUNK`` samples draws from
    its own ``SeedSequence((seed, chunk))``, so results are reproducible
    for a given seed and sample count; a chunk is traced in blocks of
    ``_MC_BLOCK`` rows, and the results do not depend on the block size.
    """
    samples = as_count("samples", samples, 1)
    seed = as_count("seed", seed, 0)
    m0 = expansion_factor(design)
    tol = np.asarray(tolerances.as_tuple(), dtype=float)
    base = np.asarray(design.angles(), dtype=float)
    n = design.refractive_index

    def eval_points(offsets):
        angles = base[None, :] + offsets
        values, surface = _expansion_many(
            angles[:, 0], angles[:, 1], angles[:, 2], angles[:, 3], n)
        return values, surface

    mean_acc = sq_acc = 0.0
    feasible = 0
    vmin, vmax = math.inf, -math.inf
    worst_log = 0.0
    worst_lin = 0.0

    # Trace buffers hold one block; the feasible values of a chunk (or of
    # every chunk, when kept) go to one store, so the reductions below
    # see the same arrays whatever the block size.
    chunk_size = min(_MC_CHUNK, samples)
    block = min(_MC_BLOCK, chunk_size)
    draws = np.empty((block, 4))
    angle_rows = np.empty((4, block))
    buffers = _trace_buffers((block,))
    store = np.empty(samples if keep_values else chunk_size)
    scratch_buf = np.empty(chunk_size)
    done = 0
    chunk_index = 0
    while done < samples:
        count = min(_MC_CHUNK, samples - done)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk_index))))
        start = feasible if keep_values else 0
        end = start
        for row in range(0, count, block):
            b = min(block, count - row)
            # fills the chunk's (count, 4) draws row by row, in order
            u = rng.random(out=draws[:b])
            angles = angle_rows[:, :b]
            for j, a in enumerate(angles):
                # rng.uniform(-1, 1) is -1 + 2 u, then scale and shift per angle
                np.add(-1.0, np.multiply(u[:, j], 2.0, out=a), out=a)
                np.add(base[j], np.multiply(a, tol[j], out=a), out=a)
            values, surface = _expansion_many(
                *angles, n, tuple(buf[..., :b] for buf in buffers))
            good = np.equal(surface, 0, out=buffers[-1][:b])
            k = int(np.count_nonzero(good))
            np.compress(good, values, out=store[end:end + k])
            end += k
        k = end - start
        feasible += k
        if k:
            vals = store[start:end]
            scratch = scratch_buf[:k]
            mean_acc += float(vals.sum())
            sq_acc += float(np.square(vals, out=scratch).sum())
            vmin = min(vmin, float(vals.min()))
            vmax = max(vmax, float(vals.max()))
            log_err = np.log(np.divide(vals, m0, out=scratch), out=scratch)
            worst_log = max(worst_log, float(np.abs(log_err, out=scratch).max()))
            lin_err = np.subtract(np.divide(vals, m0, out=scratch), 1.0, out=scratch)
            worst_lin = max(worst_lin, float(np.abs(lin_err, out=scratch).max()))
        done += count
        chunk_index += 1

    # Deterministic probes: single-angle faces and the 16 tolerance-box
    # corners.  They lie inside the tolerance region, so folding them into
    # the worst case keeps it an upper bound on every single-angle error.
    per_angle = {}
    for i, name in enumerate(ANGLE_NAMES):
        errs = []
        for sign in (+1.0, -1.0):
            off = np.zeros((1, 4))
            off[0, i] = sign * tol[i]
            values, surface = eval_points(off)
            if surface[0] == 0:
                errs.append(abs(math.log(float(values[0]) / m0)))
        per_angle[name] = max(errs) if errs else math.nan
        for e in errs:
            worst_log = max(worst_log, e)
    corners = np.array([[sa, sb, sc, sd] for sa in (-1, 1) for sb in (-1, 1)
                        for sc in (-1, 1) for sd in (-1, 1)], dtype=float) * tol[None, :]
    values, surface = eval_points(corners)
    good = surface == 0
    if good.any():
        vals = values[good]
        worst_log = max(worst_log, float(np.abs(np.log(vals / m0)).max()))
        worst_lin = max(worst_lin, float(np.abs(vals / m0 - 1.0).max()))
        vmin = min(vmin, float(vals.min()))
        vmax = max(vmax, float(vals.max()))

    if feasible == 0:
        raise InfeasibleDesignError(
            "every Monte-Carlo sample was infeasible; tolerances exceed the feasible region",
            surface_index=0,
        )
    mean = mean_acc / feasible
    var = max(sq_acc / feasible - mean**2, 0.0)
    return ToleranceReport(
        design_expansion=m0,
        samples=samples,
        feasible_samples=feasible,
        infeasible_samples=samples - feasible,
        seed=seed,
        mean=mean,
        std=math.sqrt(var),
        minimum=vmin,
        maximum=vmax,
        worst_case_relative_error=worst_log,
        worst_case_linear_error=worst_lin,
        per_angle_relative_errors=per_angle,
        tolerances={name: float(t) for name, t in zip(ANGLE_NAMES, tol)},
        values=store[:feasible] if keep_values else None,
    )
