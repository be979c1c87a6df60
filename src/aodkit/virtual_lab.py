"""Virtual Rabi-experiment lab.

Simulates the calibration experiments run on a real addressing system
(beam-profile scans, chain scans, crosstalk and switching measurements)
with closed-form two-level dynamics, optional binomial shot noise and a
deterministic seeding scheme, then provides the matching fit routines so
generated data round-trip back to the injected parameters.

All shot noise goes through :func:`_readout`: point ``index`` reads
``binomial(shots, P1) / shots`` from the numpy seed sequence of entropy
``(seed, *key, *index)``, reproducible per seed and independent of
evaluation order.  Keys: profile ``(i)``; chain ``(frequency j, ion i)``;
crosstalk ``(0, ion, k)`` on the target grid and ``(1, ion, k)`` on the
long grid; switching ``(i, ion)``.  The key reaches the seed sequence as
the uint32 words it would make of that tuple (each int as its
little-endian 32-bit words, so a seed of 2**32 or more takes several).
Rather than build a ``SeedSequence`` per point, ``_readout`` runs the
seed sequence's pool mixing over a block of points at once in uint32
array arithmetic and seeds numpy's own ``PCG64`` with each point's four
mixed words through :class:`_SeedWords`: the same stream, draw for
draw.  The seed sequence pads short entropy with zeros, so ``(seed, i)``
equals ``(seed, i, 0)``: profile point i, chain point (i, ion 0) and
switching ion-0 point i share their noise until the streams are keyed
per experiment.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import aod_model
from .addressing_analyzer import relative_rate
from .errors import (FitFailureError, OutOfRangeError, UnbracketedMinimumError, ValidationError,
                     as_count, finite, in_range, increasing_grid, non_negative, nonzero,
                     positive)

# ---------------------------------------------------------------------------
# Drives and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RabiDrive:
    """Resonant-frame drive: peak Rabi rate (rad/s), duration, detuning."""

    peak_rabi: float
    duration: float
    detuning: float = 0.0

    def __post_init__(self):
        non_negative("peak_rabi", self.peak_rabi)
        non_negative("duration", self.duration)
        finite("detuning", self.detuning)

    @classmethod
    def from_pi_time(cls, pi_time):
        """Resonant pi pulse of length ``pi_time`` (s)."""
        positive("pi_time", pi_time)
        return cls(peak_rabi=math.pi / pi_time, duration=pi_time)

    @property
    def pi_time(self):
        if self.peak_rabi == 0.0:
            return math.inf
        return math.pi / self.peak_rabi


def _excitation(rates, detuning, t):
    """Generalised Rabi formula, element-wise over broadcast arrays.

    ``P1 = (omega^2 / omega_g^2) sin^2(omega_g t / 2)`` with the
    generalised rate ``omega_g = sqrt(omega^2 + delta^2)``; zero drive
    (``omega_g = 0``, hence ``omega = 0``) gives zero.
    """
    og = np.hypot(rates, detuning)
    return (rates / np.where(og > 0.0, og, 1.0)) ** 2 * np.sin(0.5 * og * t) ** 2


def rabi_probability(drive, t):
    """Two-level excitation probability after driving for time ``t``."""
    t = finite("t", t)
    p = _excitation(drive.peak_rabi, drive.detuning, t)
    return float(p) if np.ndim(t) == 0 else p


def _resonant_rate(p1, t):
    """Rabi rate whose resonant pulse of length ``t`` excites to ``p1``."""
    return 2.0 * math.asin(math.sqrt(min(p1, 1.0))) / t


@dataclass(frozen=True)
class ScanTrace:
    """One measured curve: P1 (or |P1 difference|) against a swept variable.

    ``kind`` labels the sweep axis: ``"frequency"`` (Hz), ``"time"`` (s)
    or ``"extra_time"`` (s).  ``shots`` is None for noiseless traces.
    """

    kind: str
    x: np.ndarray
    values: np.ndarray
    shots: int = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in ("frequency", "time", "extra_time"):
            raise ValidationError(f"unknown trace kind {self.kind!r}")
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape:
            raise ValidationError("x and values must be matching 1-D arrays")
        finite("trace x", x)
        in_range("trace values", v, 0.0, 1.0)
        if self.shots is not None:
            object.__setattr__(self, "shots", as_count("shots", self.shots, 1))
        x = x.copy(); x.flags.writeable = False
        v = v.copy(); v.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)


# points seeded together by _readout; bounds the seed-word rows held at once
_READOUT_BLOCK = 192


def _readout(p, shots, seed, *key):
    """Binomial readout of ``p`` keyed as the module docstring says; a
    missing seed counts as 0, and ``shots`` None returns ``p`` itself."""
    if shots is None:
        return p
    shots = as_count("shots", shots, 1)
    seed = 0 if seed is None else as_count("seed", seed, 0)
    p = np.asarray(p, dtype=float)
    out = np.empty(p.shape)
    flat_out = out.reshape(-1)
    head = [word for v in (seed, *key) for word in _uint32_words(v)]
    for start in range(0, p.size, _READOUT_BLOCK):
        flat = np.arange(start, min(start + _READOUT_BLOCK, p.size))
        # the uint32 words the seed sequence would make of (seed, *key, *index)
        entropy = np.empty((flat.size, len(head) + p.ndim), dtype=np.uint32)
        entropy[:, :len(head)] = head
        if p.ndim:
            entropy[:, len(head):] = np.column_stack(np.unravel_index(flat, p.shape))
        draws = [np.random.Generator(np.random.PCG64(_SeedWords(words))).binomial(shots, q)
                 for words, q in zip(_seed_state(entropy),
                                     np.clip(p.flat[flat], 0.0, 1.0).tolist())]
        flat_out[flat] = np.array(draws) / shots
    return out


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 the four uint64 words its own
    ``generate_state(4, np.uint64)`` call asks for, so numpy runs PCG64's
    seeding on words :func:`_seed_state` already mixed.  ``words`` must be a
    C-contiguous uint64 array of four: PCG64 reads its buffer as it is."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(
                f"_SeedWords holds 4 np.uint64 words; asked for {n_words} of {dtype!r}")
        return self.words


def _uint32_words(n):
    """Little-endian 32-bit words of ``n >= 0``, one word for 0."""
    n = int(n)
    return [(n >> s) & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]


# numpy's SeedSequence (O'Neill's seed_seq_fe: a pool of four uint32 words),
# run over a block of entropy rows at once; the uint32 array arithmetic wraps
# as the C code's does
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(init, mult, count):
    """The (xor, multiply) constants of ``count`` successive seed-sequence
    hashes, as two uint32 arrays."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    chain = np.array(chain, dtype=np.uint32)
    return chain[:-1], chain[1:]


def _hash(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x, y):
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> 16)


def _seed_state(entropy):
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row of the
    uint32 array ``entropy``, as a (rows, 4) uint64 array."""
    rows, width = entropy.shape
    extra = max(width - _POOL_SIZE, 0)
    xor, mult = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = np.zeros((rows, _POOL_SIZE), dtype=np.uint32)
    pool[:, :width] = entropy[:, :_POOL_SIZE]
    pool = _hash(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    # each pool word is hashed into the three others, then each extra
    # entropy word into all four; one hash constant per (source, target)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hash(pool[:, src, None], xor[k:k + len(dst)], mult[k:k + len(dst)])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        k += len(dst)
    for word in entropy[:, _POOL_SIZE:].T:
        hashed = _hash(word[:, None], xor[k:k + _POOL_SIZE], mult[k:k + _POOL_SIZE])
        pool = _mix(pool, hashed)
        k += _POOL_SIZE
    # eight output words cycle through the pool; pairs are little-endian uint64
    xor, mult = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    words = _hash(np.tile(pool, 2), xor, mult).astype(np.uint64)
    return words[:, 0::2] | words[:, 1::2] << 32


def _check_scan(ion_waist, steering_efficiency, frequencies, center_frequency):
    """Validate the beam and sweep of a frequency scan; returns the grid."""
    positive("ion_waist", ion_waist)
    nonzero("steering_efficiency", steering_efficiency)
    finite("center_frequency", center_frequency)
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1 or freqs.size < 4:
        raise ValidationError(
            f"frequencies must be a 1-D grid of >= 4 points, got shape {freqs.shape}")
    return finite("frequencies", freqs)


# ---------------------------------------------------------------------------
# Bounded least squares
# ---------------------------------------------------------------------------


_LSQ_TOL = 1e-12
_LSQ_MAX_STEPS = 200


@dataclass(frozen=True)
class _LsqFit:
    """What :func:`_least_squares` returns; ``cost`` is ``0.5 |residuals|^2``."""

    x: np.ndarray
    residuals: np.ndarray
    jacobian: np.ndarray
    cost: float
    success: bool

    @property
    def covariance(self):
        """``inv(J^T J) 2 cost / max(m - p, 1)``; inf where ``J^T J`` is singular."""
        m, p = self.jacobian.shape
        try:
            cov = np.linalg.inv(self.jacobian.T @ self.jacobian)
        except np.linalg.LinAlgError:
            return np.full((p, p), math.inf)
        return cov * (2.0 * self.cost / max(m - p, 1))


def _least_squares(residuals, jacobian, x0, lower, upper, scale):
    """Minimise ``0.5 |residuals(x)|^2`` inside the box ``[lower, upper]``.

    Levenberg-Marquardt in the scaled variables ``x / scale`` (Moré, "The
    Levenberg-Marquardt algorithm: implementation and theory", LNM 630,
    1978) with Nielsen's gain-ratio update of the damping.  A variable on
    a bound whose gradient points out of the box is held there for the
    step; the free variables take the damped Gauss-Newton step, clipped
    into the box.  Stops when an accepted step lowers the cost by less
    than ``_LSQ_TOL`` of it, when a step is shorter than ``_LSQ_TOL`` of
    the scaled ``|x|``, or when the projected scaled gradient is below
    ``_LSQ_TOL``.  Returns a :class:`_LsqFit`, whose ``success`` is False
    when the start is not finite or ``_LSQ_MAX_STEPS`` steps run out.
    """
    lower, upper, scale = (np.asarray(v, dtype=float) for v in (lower, upper, scale))
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r = residuals(x)
    cost = 0.5 * float(r @ r)
    jac = jacobian(x)
    if not (math.isfinite(cost) and np.isfinite(jac).all()):
        return _LsqFit(x, r, jac, cost, False)
    lam, grow = None, 2.0
    for _ in range(_LSQ_MAX_STEPS):
        js = jac * scale
        g = js.T @ r
        free = ~((x <= lower) & (g > 0.0) | (x >= upper) & (g < 0.0))
        if np.abs(g[free]).max(initial=0.0) <= _LSQ_TOL:
            return _LsqFit(x, r, jac, cost, True)
        a = js[:, free].T @ js[:, free]
        if lam is None:
            lam = 1e-3 * float(a.diagonal().max())
        step = np.linalg.solve(a + lam * np.eye(a.shape[0]), -g[free])
        x_new = x.copy()
        x_new[free] = np.clip(x[free] + scale[free] * step, lower[free], upper[free])
        z_norm = np.linalg.norm(x / scale)
        if np.linalg.norm((x_new - x) / scale) <= _LSQ_TOL * (_LSQ_TOL + z_norm):
            return _LsqFit(x, r, jac, cost, True)
        r_new = residuals(x_new)
        cost_new = 0.5 * float(r_new @ r_new)
        if cost_new < cost:
            predicted = 0.5 * float(step @ (lam * step - g[free]))
            rho = (cost - cost_new) / predicted
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            grow = 2.0
            converged = cost - cost_new <= _LSQ_TOL * cost
            x, r, cost, jac = x_new, r_new, cost_new, jacobian(x_new)
            if converged:
                return _LsqFit(x, r, jac, cost, True)
        else:
            lam *= grow
            grow *= 2.0
    return _LsqFit(x, r, jac, cost, False)


# ---------------------------------------------------------------------------
# Beam-profile scan
# ---------------------------------------------------------------------------


def simulate_profile_scan(ion_waist, steering_efficiency, drive, frequencies,
                          center_frequency, shots=None, seed=None,
                          mode="intensity"):
    """Rabi response of a single ion as the beam is scanned over it.

    The tone at ``f`` parks the spot ``steering_efficiency * (f - fc)``
    from the ion; the local Rabi rate follows :func:`relative_rate`, and
    each point reports P1 after driving for ``drive.duration``.
    """
    freqs = _check_scan(ion_waist, steering_efficiency, frequencies, center_frequency)
    offsets = steering_efficiency * (freqs - center_frequency)
    rates = drive.peak_rabi * relative_rate(ion_waist, offsets, mode=mode)
    p1 = _excitation(rates, drive.detuning, drive.duration)
    return ScanTrace(kind="frequency", x=freqs, values=_readout(p1, shots, seed),
                     shots=shots)


@dataclass(frozen=True)
class ProfileFit:
    """Recovered beam parameters from a profile scan."""

    waist: float
    center_frequency: float
    peak_rabi: float
    residual_rms: float
    mode: str


def fit_gaussian_profile(trace, drive, steering_efficiency, mode="intensity"):
    """Recover waist and centre from a profile-scan trace.

    Fits ``P1(f) = sin^2(0.5 T omega0 r(eff (f - fc); w))`` for
    ``(omega0, fc, w)`` with ``T = drive.duration``; the model is resonant,
    so a detuned drive raises :class:`ValidationError`.  Raises
    :class:`FitFailureError` when the trace carries no signal, spans no
    frequency or the optimiser fails to converge.
    """
    if trace.kind != "frequency":
        raise ValidationError("profile fit expects a frequency-scan trace")
    freqs, p1 = trace.x, trace.values
    t = positive("drive duration", drive.duration)
    if drive.detuning != 0.0:
        raise ValidationError("profile fit models a resonant drive; detuning must be 0")
    peak = float(p1.max())
    if peak < 1e-3:
        raise FitFailureError("profile scan carries no signal above 1e-3")
    span = float(np.ptp(freqs))  # the sweep may run up or down
    if span == 0.0:
        raise FitFailureError("profile scan has zero frequency span; no waist to fit")

    power = 2.0 if mode == "intensity" else 1.0
    f0_init = float(freqs[np.argmax(p1)])
    om_init = _resonant_rate(peak, t)
    above = freqs[p1 >= 0.5 * peak]
    half_span = max(0.5 * abs(above[-1] - above[0]), abs(freqs[1] - freqs[0]))
    w_init = max(abs(steering_efficiency) * half_span, 1e-12)

    def parts(params):
        om0, fc, w = params
        off = steering_efficiency * (freqs - fc)
        envelope = np.exp(-power * off**2 / w**2)
        return off, envelope, 0.5 * t * om0 * envelope

    def residuals(params):
        return np.sin(parts(params)[2]) ** 2 - p1

    def jacobian(params):
        om0, fc, w = params
        off, envelope, phase = parts(params)
        d_rate = 0.5 * t * np.sin(2.0 * phase)  # d P1 / d (om0 * envelope)
        return np.column_stack([
            d_rate * envelope,
            d_rate * om0 * envelope * 2.0 * power * steering_efficiency * off / w**2,
            d_rate * om0 * envelope * 2.0 * power * off**2 / w**3,
        ])

    fit = _least_squares(
        residuals, jacobian, [om_init, f0_init, w_init],
        lower=[1e-6 * om_init, freqs.min() - span, 1e-3 * w_init],
        upper=[1e4 * om_init, freqs.max() + span, 1e4 * w_init],
        scale=[om_init, max(span, 1.0), w_init])
    if not fit.success:
        raise FitFailureError("profile fit did not converge")
    rms = float(np.sqrt(np.mean(fit.residuals**2)))
    noise_floor = 0.5 / math.sqrt(trace.shots) if trace.shots else 0.05
    if rms > max(0.25 * peak, 3.0 * noise_floor):
        raise FitFailureError(
            f"profile fit residual rms {rms:.3g} rejects the Gaussian model")
    om0, fc, w = (float(v) for v in fit.x)
    return ProfileFit(waist=abs(w), center_frequency=fc, peak_rabi=om0,
                      residual_rms=rms, mode=mode)


# ---------------------------------------------------------------------------
# Chain scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainScanResult:
    """Per-ion responses and their upper envelope for a frequency sweep."""

    envelope: ScanTrace
    per_ion: np.ndarray


def simulate_chain_scan(chain, ion_waist, steering_efficiency, drive,
                        frequencies, center_frequency, shots=None, seed=None,
                        mode="intensity"):
    """Scan the addressing beam across a whole chain.

    Every ion responds to the spot parked at the tone's position; the
    envelope is the per-frequency maximum over ions (what a camera-style
    "any ion bright" readout shows).  Ions outside the swept steering
    range cannot be reached and raise :class:`OutOfRangeError` listing
    the unreachable indices.
    """
    freqs = _check_scan(ion_waist, steering_efficiency, frequencies, center_frequency)
    spots = steering_efficiency * (freqs - center_frequency)
    lo, hi = float(np.min(spots)), float(np.max(spots))
    positions = chain.array
    unreachable = [i for i, p in enumerate(positions) if not (lo <= p <= hi)]
    if unreachable:
        raise OutOfRangeError(
            f"ions {unreachable} lie outside the swept steering range "
            f"[{lo:.3e}, {hi:.3e}] m", indices=unreachable)

    offsets = positions[:, None] - spots[None, :]
    rates = drive.peak_rabi * relative_rate(ion_waist, offsets, mode=mode)
    p1 = _excitation(rates, drive.detuning, drive.duration)
    p1 = _readout(p1.T, shots, seed).T  # keyed (frequency, ion)

    envelope = ScanTrace(kind="frequency", x=freqs, values=p1.max(axis=0), shots=shots)
    return ChainScanResult(envelope=envelope, per_ion=p1)


PEAK_HEIGHT = 0.5  # a peak reaches this P1
PEAK_DEPTH = 0.5  # valleys fall this fraction of PEAK_HEIGHT below it


def count_resolved_peaks(trace):
    """Number of well-separated peaks in a scan trace.

    A peak is a local maximum (a flat top counts once) that reaches
    ``PEAK_HEIGHT`` and is separated from its neighbours by valleys at
    least ``PEAK_DEPTH * PEAK_HEIGHT`` below it: on each side, the trace
    must fall that far before it climbs above the peak or ends.  This is the height and
    prominence rule of ``scipy.signal.find_peaks``, with one change for
    equal heights: the left-hand base search stops at a sample as high as
    the peak, while the right-hand search stops only at a strictly higher
    one.  A crest that binomial readout flattens into several samples at
    exactly 1.0 therefore counts once, not once per sample; on traces
    without ties the count equals ``find_peaks``'.

    One pass over the trace with a stack of non-increasing samples: each
    entry carries the minimum since the entry below it (its left base),
    and the sample that pops it carries the minimum since it (its right
    base).
    """
    x = trace.values
    prominence = PEAK_DEPTH * PEAK_HEIGHT
    # peak candidates: the first sample of every rise-then-fall plateau
    d = np.diff(x)
    steps = np.flatnonzero(d)
    rise = d[steps] > 0.0
    starts = steps[:-1][rise[:-1] & ~rise[1:]] + 1
    candidate = np.zeros(x.size + 1, dtype=bool)
    candidate[starts[x[starts] >= PEAK_HEIGHT]] = True

    stack = []  # (value, minimum since the entry below, is a candidate)
    count = 0
    # min()/max() calls would triple the cost of this loop
    for v, is_peak in zip(x.tolist() + [math.inf], candidate.tolist()):
        low = math.inf  # minimum of the samples after the current top
        while stack and stack[-1][0] < v:
            top, left_base, top_is_peak = stack.pop()
            # every sample between top and v is <= top, so low <= top
            if top_is_peak and top - (left_base if left_base > low else low) >= prominence:
                count += 1
            if left_base < low:
                low = left_base
        stack.append((v, v if v < low else low, is_peak))
    return count


# ---------------------------------------------------------------------------
# Crosstalk experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosstalkExperiment:
    """Fitted Rabi rates on every ion while one target is addressed.

    ``bounded[i]`` marks ions whose oscillation never developed inside
    the time grid; for those, ``ratios[i]`` is an upper bound inferred
    from the largest observed excitation, not a fitted value.
    """

    target_index: int
    rabi_rates: np.ndarray
    rabi_sigmas: np.ndarray
    ratios: np.ndarray
    ratio_sigmas: np.ndarray
    bounded: np.ndarray
    target_trace: ScanTrace
    neighbor_traces: tuple


def _fit_sinusoid(times, p1):
    """Fit ``P1 = A sin^2(omega t / 2)``; returns (omega, sigma_omega)."""
    n = times.size
    span = float(times[-1] - times[0])
    peak = float(p1.max())
    # Frequency seed from the dominant spectral line, falling back to the
    # quarter-oscillation growth rate when the grid resolves < 1 period.
    detrended = p1 - p1.mean()
    spectrum = np.abs(np.fft.rfft(detrended))
    if spectrum.size > 1:
        k = 1 + int(np.argmax(spectrum[1:]))
        om_fft = 2.0 * math.pi * k * (n - 1) / (span * n)
    else:
        om_fft = math.pi / span
    om_growth = _resonant_rate(peak, float(times[np.argmax(p1)] or span))

    def residuals(params):
        om, a = params
        return a * np.sin(0.5 * om * times) ** 2 - p1

    def jacobian(params):
        om, a = params
        return np.column_stack([0.5 * a * times * np.sin(om * times),
                                np.sin(0.5 * om * times) ** 2])

    best = None
    for om0 in {om_fft, om_growth}:
        if not (om0 > 0.0 and math.isfinite(om0)):
            continue
        fit = _least_squares(residuals, jacobian, [om0, max(peak, 0.1)],
                             lower=[0.0, 0.0], upper=[np.inf, 1.05], scale=[om0, 1.0])
        if fit.success and (best is None or fit.cost < best.cost):
            best = fit
    if best is None:
        raise FitFailureError("sinusoid fit did not converge")
    return float(best.x[0]), math.sqrt(max(best.covariance[0, 0], 0.0))


BOUND_THRESHOLD = 0.5  # below this max P1 the quarter oscillation never happened


def simulate_crosstalk_experiment(chain, ion_waist, target_index, times, drive,
                                  shots=None, seed=None, mode="intensity"):
    """Drive one target ion and watch every ion's slow Rabi flopping.

    The target is driven at ``drive.peak_rabi``; neighbours flop at the
    crosstalk-suppressed rate.  The target is measured on its own short
    grid (two pi times) so its fast oscillation stays resolved; the
    neighbours use the supplied long ``times`` grid.  Rates are fitted
    per ion and reported as ratios to the fitted target rate.
    """
    times = increasing_grid("times", times, 2)
    non_negative("times", times[0])
    target_index = as_count("target_index", target_index, 0)
    if target_index >= len(chain):
        raise ValidationError(
            f"target_index must be < {len(chain)}, the chain length, got {target_index}")
    positive("drive peak_rabi", drive.peak_rabi)

    positions = chain.array
    offsets = np.abs(positions - positions[target_index])
    rates = drive.peak_rabi * relative_rate(ion_waist, offsets, mode=mode)

    pi_time = math.pi / drive.peak_rabi
    target_times = np.linspace(0.0, 2.0 * pi_time, times.size)

    def trace_for(ion, grid, tag):
        p = _excitation(rates[ion], drive.detuning, grid)
        return ScanTrace(kind="time", x=grid, values=_readout(p, shots, seed, tag, ion),
                         shots=shots)

    target_trace = trace_for(target_index, target_times, 0)
    neighbor_traces = tuple(
        trace_for(i, times, 1) for i in range(len(chain))
    )

    om_target, sig_target = _fit_sinusoid(target_times, target_trace.values)

    n = len(chain)
    oms = np.zeros(n)
    sigs = np.zeros(n)
    bounded = np.zeros(n, dtype=bool)
    for i, tr in enumerate(neighbor_traces):
        if i == target_index:
            oms[i], sigs[i] = om_target, sig_target
            continue
        peak = float(tr.values.max())
        if peak < BOUND_THRESHOLD:
            # Never reached a quarter oscillation: report the rate that
            # would just produce the largest observed excitation by the
            # end of the grid (an upper bound; sin is concave there).
            oms[i] = _resonant_rate(peak, float(times[-1]))
            sigs[i] = 0.0
            bounded[i] = True
        else:
            oms[i], sigs[i] = _fit_sinusoid(times, tr.values)

    ratios = oms / om_target
    rel = np.zeros(n)
    nonzero = oms > 0.0
    rel[nonzero] = (sigs[nonzero] / oms[nonzero]) ** 2
    ratio_sigs = ratios * np.sqrt(rel + (sig_target / om_target) ** 2)

    return CrosstalkExperiment(
        target_index=target_index,
        rabi_rates=oms,
        rabi_sigmas=sigs,
        ratios=ratios,
        ratio_sigmas=ratio_sigs,
        bounded=bounded,
        target_trace=target_trace,
        neighbor_traces=neighbor_traces,
    )


# ---------------------------------------------------------------------------
# Switching experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureDelay:
    """Drive turns on instantly after a fixed dead time."""

    delay: float

    def __post_init__(self):
        non_negative("delay", self.delay)

    def area(self, duration):
        return np.maximum(np.asarray(duration, dtype=float) - self.delay, 0.0)


@dataclass(frozen=True)
class TransitRamp:
    """Amplitude follows the acoustic transit ramp of an AOD retune."""

    spec: aod_model.AodSpec
    kind: str = "field_overlap"

    def area(self, duration):
        return aod_model.ramp_area(self.spec, duration, model=self.kind)


@dataclass(frozen=True)
class SwitchSequence:
    """Hop-and-drive sequence probing the retune dead time.

    Ion 0 gets a settled pi/2 pulse (duration ``pi2_time_ion0``); the
    deflector then hops to ion 1 and drives for ``pi2_time_ion1`` plus a
    swept extra time.  ``settle_time`` is the wait before the first pulse
    (the first pulse is always fully settled).  ``model`` maps drive
    duration after the hop to accumulated Rabi phase per unit rate.
    """

    pi2_time_ion0: float
    pi2_time_ion1: float
    model: object
    settle_time: float = 0.0

    def __post_init__(self):
        positive("pi2_time_ion0", self.pi2_time_ion0)
        positive("pi2_time_ion1", self.pi2_time_ion1)
        non_negative("settle_time", self.settle_time)
        if not hasattr(self.model, "area"):
            raise ValidationError("model must expose an area(duration) method")


@dataclass(frozen=True)
class SwitchingResult:
    """Traces of both ions and their absolute population difference."""

    ion0: ScanTrace
    ion1: ScanTrace
    delta: ScanTrace


def simulate_switching_experiment(sequence, extra_times, shots=None, seed=None):
    """Sweep the extra drive time on the second ion after a hop.

    Ion 0 ends at P1 = 1/2 exactly (settled pi/2 pulse).  Ion 1's phase
    is ``omega1 * area(pi2_time_ion1 + extra)``, with ``omega1``
    calibrated so a settled pulse of ``pi2_time_ion1`` is exactly pi/2.
    The |difference| trace dips to zero when the extra time compensates
    the switching dead time.
    """
    extra = increasing_grid("extra_times", extra_times, 2)
    non_negative("extra_times", extra[0])
    omega1 = 0.5 * math.pi / sequence.pi2_time_ion1
    phase = omega1 * np.asarray(sequence.model.area(sequence.pi2_time_ion1 + extra))
    p1 = np.column_stack([np.full(extra.shape, 0.5), np.sin(0.5 * phase) ** 2])
    p1_ion0, p1_ion1 = _readout(p1, shots, seed).T  # keyed (extra time, ion)

    ion0 = ScanTrace(kind="extra_time", x=extra, values=p1_ion0, shots=shots)
    ion1 = ScanTrace(kind="extra_time", x=extra, values=p1_ion1, shots=shots)
    delta = ScanTrace(kind="extra_time", x=extra,
                      values=np.abs(p1_ion0 - p1_ion1), shots=shots)
    return SwitchingResult(ion0=ion0, ion1=ion1, delta=delta)


@dataclass(frozen=True)
class SwitchTimeFit:
    """Quadratic-vertex estimate of the switching dead time."""

    switch_time: float
    sigma: float


_FIT_HALF_WINDOW = 3


def fit_switch_time(trace):
    """Locate the dip of a |difference| trace by a local quadratic fit.

    The global minimum must be interior to the grid (bracketed); a
    quadratic is fitted over up to seven surrounding points and its
    vertex returned with a covariance-propagated 1-sigma uncertainty.
    """
    x, y = trace.x, trace.values
    n = x.size
    i_min = int(np.argmin(y))
    if i_min == 0 or i_min == n - 1:
        raise UnbracketedMinimumError(
            f"trace minimum sits at grid edge (index {i_min}); extend the sweep")
    lo = max(0, i_min - _FIT_HALF_WINDOW)
    hi = min(n, i_min + _FIT_HALF_WINDOW + 1)
    if hi - lo < 5:
        raise UnbracketedMinimumError("too few points around the minimum for a quadratic fit")

    # Normalised abscissa keeps the Vandermonde system well conditioned
    # for nanosecond-scale grids expressed in seconds.
    t0 = float(x[i_min])
    dx = float(np.mean(np.diff(x[lo:hi])))
    u = (x[lo:hi] - t0) / dx
    coeffs, cov = np.polyfit(u, y[lo:hi], 2, cov=True)
    a, b = float(coeffs[0]), float(coeffs[1])
    if a <= 0.0:
        raise UnbracketedMinimumError("no upward curvature around the minimum")
    vertex = -b / (2.0 * a)
    grad = np.array([b / (2.0 * a * a), -1.0 / (2.0 * a)])
    var = float(grad @ cov[:2, :2] @ grad)
    return SwitchTimeFit(t0 + vertex * dx, math.sqrt(max(var, 0.0)) * dx)
