import math
import tracemalloc

import numpy as np
import pytest

from aodkit import prism_designer as pz
from aodkit.errors import (
    ConvergenceError,
    InfeasibleDesignError,
    TotalInternalReflectionError,
    UnachievableTargetError,
    ValidationError,
)
from test_validation import assert_rejected, rejection_cases

ANCHOR = pz.PrismPairDesign(39.0, 14.75, 30.0, 30.0, 1.476)

# Frozen outputs of the calibrated model at the reference design.  The
# expansion factor is cross-checked below against an independent Snell-chain
# recurrence written directly in this file.
ANCHOR_M = 4.693021453430489
NORMAL_CHAIN_ANCHOR_M = 1.007976618903178
SOLVED_ALPHA_PRIME_FOR_4P7 = 14.730809731408954
SENSITIVITY = {
    "alpha": -7.311030668200047,
    "alpha_prime": -7.736119994938839,
    "beta": -11.361224644845791,
    "beta_prime": 0.45723595865077016,
}
MC_SEED = 20250814
MC_STATS = {
    "mean": 4.713555407407758,
    "std": 0.30207287353707796,
    "minimum": 3.9762862063741498,
    "maximum": 5.719120890683353,
    "worst_case_relative_error": 0.19773849497021637,
    "worst_case_linear_error": 0.2186436707002073,
}


def _snell_chain(alpha, alpha_prime, beta, beta_prime, n, grazing=True):
    """Independent four-surface recurrence.

    ``grazing`` reads alpha and alpha' as grazing angles (incidence from
    the normal is 90 deg minus them), the model's convention; False reads
    them as incidences from the face normals.
    """
    def refract(theta_inc, n_ratio):
        s = math.sin(math.radians(theta_inc)) * n_ratio
        if abs(s) > 1.0:
            raise ValueError("TIR")
        theta_out = math.degrees(math.asin(s))
        return theta_out, math.cos(math.radians(theta_out)) / math.cos(math.radians(theta_inc))

    th1 = 90.0 - alpha if grazing else alpha
    th2, m1 = refract(th1, 1.0 / n)
    th4, m2 = refract(th2 - beta, n)
    th1b = (90.0 - alpha_prime if grazing else alpha_prime) + th4
    if abs(th1b) >= 90.0:
        raise ValueError("ray misses the second prism entry face")
    th2b, m3 = refract(th1b, 1.0 / n)
    _, m4 = refract(th2b - beta_prime, n)
    return m1 * m2 * m3 * m4


def test_anchor_expansion_frozen():
    assert pz.expansion_factor(ANCHOR) == pytest.approx(ANCHOR_M, rel=1e-12)


def test_anchor_matches_independent_recurrence():
    assert pz.expansion_factor(ANCHOR) == pytest.approx(
        _snell_chain(39.0, 14.75, 30.0, 30.0, 1.476), rel=1e-12)


def test_random_designs_match_independent_recurrence():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 40:
        d = pz.PrismPairDesign(
            rng.uniform(15.0, 70.0), rng.uniform(5.0, 50.0),
            rng.uniform(0.0, 45.0), rng.uniform(0.0, 45.0),
            rng.uniform(1.3, 1.8))
        try:
            ref = _snell_chain(d.alpha, d.alpha_prime, d.beta, d.beta_prime,
                               d.refractive_index)
        except ValueError:
            with pytest.raises(InfeasibleDesignError):
                pz.expansion_factor(d)
            continue
        assert pz.expansion_factor(d) == pytest.approx(ref, rel=1e-12)
        checked += 1


def test_anchor_rejects_normal_referenced_angles():
    # why the model reads alpha and alpha' as grazing angles: only that
    # reading reproduces the 4.7 reference expansion; the normal-referenced
    # one misses it by 4.6x
    angles = pz.ANCHOR_DESIGN_ANGLES
    assert _snell_chain(*angles) == pytest.approx(ANCHOR_M, rel=1e-12)
    normal = _snell_chain(*angles, grazing=False)
    assert normal == pytest.approx(NORMAL_CHAIN_ANCHOR_M, rel=1e-12)
    assert abs(normal - pz.ANCHOR_EXPANSION) > 0.15 * pz.ANCHOR_EXPANSION


def test_unit_index_gives_unit_expansion():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(40):
        d = pz.PrismPairDesign(rng.uniform(10.0, 80.0), rng.uniform(10.0, 80.0),
                               rng.uniform(0.0, 45.0), rng.uniform(0.0, 45.0), 1.0)
        try:
            m = pz.expansion_factor(d)
        except InfeasibleDesignError:
            continue  # chained geometry can still overshoot grazing at n = 1
        assert m == pytest.approx(1.0, rel=1e-12)
        checked += 1
    assert checked >= 10


def test_tir_reports_surface():
    with pytest.raises(TotalInternalReflectionError) as exc:
        pz.expansion_factor(pz.PrismPairDesign(45.0, 15.0, 80.0, 30.0, 1.476))
    assert exc.value.surface_index == 2


def test_design_validation():
    with pytest.raises(ValidationError):
        pz.PrismPairDesign(0.0, 14.75, 30.0, 30.0, 1.476)
    with pytest.raises(ValidationError):
        pz.PrismPairDesign(39.0, 14.75, -1.0, 30.0, 1.476)
    with pytest.raises(ValidationError):
        pz.PrismPairDesign(39.0, 14.75, 30.0, 30.0, 0.9)


def test_solve_alpha_prime_round_trip():
    sol = pz.solve_alpha_prime(ANCHOR_M, 39.0, 30.0, 30.0, 1.476)
    assert sol.alpha_prime == pytest.approx(14.75, abs=1e-5)
    assert not sol.degenerate


def test_solve_alpha_prime_for_target():
    sol = pz.solve_alpha_prime(4.7, 39.0, 30.0, 30.0, 1.476)
    assert sol.alpha_prime == pytest.approx(SOLVED_ALPHA_PRIME_FOR_4P7, abs=1e-6)
    assert sol.expansion == pytest.approx(4.7, rel=1e-6)


def test_solve_alpha_prime_unachievable():
    with pytest.raises(UnachievableTargetError) as exc:
        pz.solve_alpha_prime(40.0, 39.0, 30.0, 30.0, 1.476)
    lo, hi = exc.value.achievable
    assert lo < 4.7 < hi < 40.0


def test_solve_alpha_prime_reports_failed_bisection(monkeypatch):
    # a step in M that bisection can bracket but never meet
    monkeypatch.setattr(pz, "expansion_factor",
                        lambda design: 1.0 if design.alpha_prime < 20.0 else 3.0)
    with pytest.raises(ConvergenceError):
        pz.solve_alpha_prime(2.0, 39.0, 30.0, 30.0, 1.476)


@pytest.mark.parametrize("build", rejection_cases("prism_designer"))
def test_non_finite_input_rejected(build):
    assert_rejected(build)


def test_sensitivity_frozen():
    sens = pz.sensitivity(ANCHOR)
    assert set(sens) == set(SENSITIVITY)
    for name, val in SENSITIVITY.items():
        assert sens[name] == pytest.approx(val, rel=1e-6), name


def test_sensitivity_matches_difference_quotient():
    sens = pz.sensitivity(ANCHOR)
    step = 1e-3
    for name in SENSITIVITY:
        hi = {f.name: getattr(ANCHOR, f.name) for f in ANCHOR.__dataclass_fields__.values()}
        lo = dict(hi)
        key = {"alpha": "alpha", "alpha_prime": "alpha_prime",
               "beta": "beta", "beta_prime": "beta_prime"}[name]
        hi[key] += step
        lo[key] -= step
        dq = 100.0 * (math.log(pz.expansion_factor(pz.PrismPairDesign(**hi)))
                      - math.log(pz.expansion_factor(pz.PrismPairDesign(**lo)))) / (2 * step)
        assert sens[name] == pytest.approx(dq, rel=1e-4), name


def test_zero_tolerance_monte_carlo_collapses():
    rep = pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(0.0, 0.0, 0.0, 0.0),
                                   samples=500, seed=1)
    assert rep.mean == pytest.approx(ANCHOR_M, rel=1e-12)
    assert rep.std == 0.0
    assert rep.worst_case_relative_error == 0.0
    assert rep.worst_case_linear_error == 0.0
    assert rep.minimum == rep.maximum == pytest.approx(ANCHOR_M, rel=1e-12)


def test_monte_carlo_frozen_stats():
    rep = pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=100_000,
                                   seed=MC_SEED)
    assert rep.feasible_samples == rep.samples == 100_000
    for name, val in MC_STATS.items():
        assert getattr(rep, name) == pytest.approx(val, rel=1e-10), name


def test_monte_carlo_deterministic_and_seed_sensitive():
    a = pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=4000, seed=42)
    b = pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=4000, seed=42)
    c = pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=4000, seed=43)
    assert a.mean == b.mean and a.std == b.std
    assert a.mean != c.mean


def test_monte_carlo_worst_covers_single_angle_budget():
    # deterministic per-angle and corner probes must dominate any sample count
    rep = pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=10, seed=0)
    for err in rep.per_angle_relative_errors.values():
        assert rep.worst_case_relative_error >= err


@pytest.mark.parametrize("seed", range(3))
def test_monte_carlo_spread_matches_linear_propagation(seed):
    # to first order ln(M / M0) = sum_i s_i dx_i, with dx_i uniform on
    # +/- tol_i (variance tol_i^2 / 3) and s_i from the sensitivity; the
    # second-order term adds about 0.4 %, the sampling error about 0.16 %
    tol = pz.ToleranceSpec()
    rep = pz.tolerance_monte_carlo(ANCHOR, tol, 200_000, seed, keep_values=True)
    spread = np.std(np.log(rep.values / rep.design_expansion))
    sens = pz.sensitivity(ANCHOR)
    linear = math.sqrt(sum((sens[name] / 100.0 * t) ** 2
                           for name, t in zip(pz.ANGLE_NAMES, tol.as_tuple())) / 3.0)
    assert spread / linear == pytest.approx(1.0, abs=0.01)


def test_monte_carlo_keep_values():
    rep = pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=2048, seed=3,
                                   keep_values=True)
    assert rep.values.shape == (2048,)
    assert rep.values.mean() == pytest.approx(rep.mean, rel=1e-12)
    # minimum/maximum also cover the deterministic corner probes, so they
    # bound (rather than equal) the retained random draws
    assert rep.values.min() >= rep.minimum
    assert rep.values.max() <= rep.maximum


_WIDE_TOL = pz.ToleranceSpec(20.0, 20.0, 10.0, 10.0)
_WIDE_SAMPLES = 2 * pz._MC_CHUNK + 100


def _wide_report():
    return pz.tolerance_monte_carlo(ANCHOR, _WIDE_TOL, samples=_WIDE_SAMPLES, seed=9,
                                    keep_values=True)


@pytest.mark.parametrize("block", [1000, pz._MC_BLOCK, pz._MC_CHUNK],
                         ids=["uneven", "default", "chunk"])
def test_monte_carlo_chunk_buffers_match_fresh_draws(monkeypatch, block):
    # reference: per-chunk rng.uniform draws and fresh temporaries; the
    # block size (1000 does not divide the chunk) must not change a draw
    monkeypatch.setattr(pz, "_MC_BLOCK", block)
    rep = _wide_report()
    kept, sums, done, chunk = [], [], 0, 0
    while done < _WIDE_SAMPLES:
        count = min(pz._MC_CHUNK, _WIDE_SAMPLES - done)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((9, chunk))))
        offsets = rng.uniform(-1.0, 1.0, size=(count, 4)) * np.asarray(_WIDE_TOL.as_tuple())
        angles = np.asarray(ANCHOR.angles()) + offsets
        values, surface = pz._expansion_many(*angles.T, ANCHOR.refractive_index)
        kept.append(values[surface == 0])
        sums.append(float(kept[-1].sum()))
        done += count
        chunk += 1
    assert rep.infeasible_samples > 0
    assert rep.feasible_samples == sum(v.size for v in kept)
    assert np.array_equal(rep.values, np.concatenate(kept))
    assert rep.mean == sum(sums) / rep.feasible_samples
    monkeypatch.undo()
    default = _wide_report()
    for name in ("std", "minimum", "maximum",
                 "worst_case_relative_error", "worst_case_linear_error"):
        assert getattr(rep, name) == getattr(default, name), name


@pytest.mark.parametrize("samples, keep_values", [(1_000_000, False), (100_000, True)],
                         ids=["1M", "100k_kept"])
def test_monte_carlo_working_set_is_bounded(samples, keep_values):
    # numpy reports its buffers to tracemalloc; the whole-chunk buffers
    # of the earlier implementation peaked at 10.6 and 11.1 MiB here
    pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=1000, seed=1)  # warm-up
    tracemalloc.start()
    try:
        pz.tolerance_monte_carlo(ANCHOR, pz.ToleranceSpec(), samples=samples, seed=1,
                                 keep_values=keep_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_expansion_contour_masks_infeasible_cells():
    grid_a = np.linspace(20.0, 60.0, 9)
    grid_ap = np.linspace(5.0, 40.0, 7)
    cont = pz.expansion_contour(grid_a, grid_ap, 30.0, 30.0, 1.476)
    assert cont.values.shape == (9, 7)
    assert cont.feasible.dtype == np.bool_
    assert np.isnan(cont.values[~cont.feasible]).all()
    assert np.isfinite(cont.values[cont.feasible]).all()
    # spot check one feasible cell against the scalar path
    i, j = np.argwhere(cont.feasible)[0]
    d = pz.PrismPairDesign(grid_a[i], grid_ap[j], 30.0, 30.0, 1.476)
    assert cont.values[i, j] == pytest.approx(pz.expansion_factor(d), rel=1e-12)
