import math

import numpy as np
import pytest

from warpfill import (WarpProfile, exp_supremizer_bounds, minimize_F, minimize_F_batch,
                      sup_G, sup_G_batch, validate_profile)
from warpfill.errors import ConvergenceError, DomainError, SchemaError, UnboundedError
from warpfill.profiles import _newton_root

COSH = WarpProfile.custom(lambda t: np.cosh(np.asarray(t, float)),
                          lambda t: np.sinh(np.asarray(t, float)), 1.0)
# psi = sinh t + (cosh t - 1)/2 with alpha 1: psi(0) = 0, like the sinh family
SINH_COSH = WarpProfile.custom(lambda t: np.sinh(t) + 0.5 * (np.cosh(t) - 1.0),
                               lambda t: np.cosh(t) + 0.5 * np.sinh(t), 1.0)


def brute_force_tau(profile, d, tmax, step=1e-4):
    """Independent oracle: grid scan at the given step, then a ternary
    refinement inside the winning bracket. Ties resolve to the larger rho."""
    grid = np.arange(0.0, tmax + step, step)
    grid[-1] = tmax
    vals = np.asarray(profile.psi(grid)) * d - 2.0 * grid
    idx = int(np.where(vals <= vals.min())[0][-1])
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, grid.size - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = float(profile.psi(m1)) * d - 2.0 * m1
        f2 = float(profile.psi(m2)) * d - 2.0 * m2
        if f1 <= f2:
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-13:
            break
    tau = 0.5 * (lo + hi)
    candidates = [(float(profile.psi(x)) * d - 2.0 * x, x) for x in (0.0, tau, tmax)]
    best = min(f for f, _ in candidates)
    tau = max(x for f, x in candidates if f <= best)
    return tau, float(profile.psi(tau)) * d - 2.0 * tau


def test_validate_exp_passes_with_equality():
    rep = validate_profile(WarpProfile.exp(1.0), np.linspace(0, 10, 200))
    assert rep.passed, rep.violations


def test_validate_sinh_passes():
    for alpha in (0.5, 1.0, 2.0):
        rep = validate_profile(WarpProfile.sinh_pow(alpha), np.linspace(0, 10, 200))
        assert rep.passed, (alpha, rep.violations)


def test_validate_linear_profile_fails():
    prof = WarpProfile.custom(lambda t: np.asarray(t) + 1.0,
                              lambda t: np.ones_like(np.asarray(t, float)), 1.0)
    rep = validate_profile(prof, np.linspace(0, 10, 200))
    assert not rep.passed
    assert any(v[0] == "growth_condition" for v in rep.violations)


def test_minimize_examples():
    p = WarpProfile.exp(1.0)
    r = minimize_F(p, 2.0, 10.0)
    assert r.tau == 0.0 and r.fmin == pytest.approx(2.0, abs=1e-12) and not r.interior
    r = minimize_F(p, 2.0 * math.exp(-5.0), 10.0)
    assert r.tau == pytest.approx(5.0, abs=1e-12)
    assert r.fmin == pytest.approx(-8.0, abs=1e-10)
    assert r.interior
    r = minimize_F(p, 2.0 * math.exp(-5.0), 3.0)
    assert r.tau == 3.0
    assert r.fmin == pytest.approx(2.0 * math.exp(-2.0) - 6.0, abs=1e-12)


def test_minimize_zero_distance():
    r = minimize_F(WarpProfile.sinh_pow(2.0), 0.0, 7.0)
    assert r.tau == 7.0 and r.fmin == -14.0
    with pytest.raises(UnboundedError):
        minimize_F(WarpProfile.exp(1.0), 0.0, math.inf)
    with pytest.raises(DomainError):
        minimize_F(WarpProfile.exp(1.0), -1.0, 2.0)


def test_minimizer_horizontal_bound():
    # whenever tau > 0, psi(tau) * d <= 2/alpha
    rng = np.random.default_rng(3)
    for profile in (WarpProfile.exp(1.3), WarpProfile.sinh_pow(0.7),
                    WarpProfile.sinh_pow(1.0), WarpProfile.sinh_pow(2.4)):
        for _ in range(200):
            d = float(10.0 ** rng.uniform(-6, 1))
            tmax = float(rng.uniform(0, 10))
            r = minimize_F(profile, d, tmax)
            if r.tau > 0.0:
                assert float(profile.psi(r.tau)) * d <= 2.0 / profile.alpha + 1e-9


def test_minimize_agrees_with_brute_force():
    rng = np.random.default_rng(11)
    profiles = [WarpProfile.exp(0.8), WarpProfile.exp(2.0), WarpProfile.sinh_pow(0.6),
                WarpProfile.sinh_pow(1.0), WarpProfile.sinh_pow(1.7),
                WarpProfile.custom(lambda t: np.cosh(np.asarray(t, float)),
                                   lambda t: np.sinh(np.asarray(t, float)), 1.0)]
    for _ in range(120):
        profile = profiles[rng.integers(len(profiles))]
        d = float(10.0 ** rng.uniform(-5, 1))
        tmax = float(rng.uniform(0.01, 8.0))
        got = minimize_F(profile, d, tmax)
        tau_o, f_o = brute_force_tau(profile, d, tmax)
        assert abs(got.tau - tau_o) <= 1e-3, (profile.label(), d, tmax)
        assert abs(got.fmin - f_o) <= 1e-8, (profile.label(), d, tmax)


def test_batch_matches_scalar():
    rng = np.random.default_rng(5)
    for profile in (WarpProfile.exp(1.0), WarpProfile.sinh_pow(1.0),
                    WarpProfile.sinh_pow(2.0), WarpProfile.sinh_pow(1.4),
                    WarpProfile.sinh_pow(0.5)):
        d = 10.0 ** rng.uniform(-6, 1, size=60)
        tmax = rng.uniform(0, 10, size=60)
        tau, fmin = minimize_F_batch(profile, d, tmax)
        for k in range(60):
            r = minimize_F(profile, float(d[k]), float(tmax[k]))
            assert tau[k] == pytest.approx(r.tau, abs=1e-10)
            assert fmin[k] == pytest.approx(r.fmin, abs=1e-10)


def test_batch_composition_invariance():
    # each element equals, bitwise, its batch-of-one result and its result
    # in a permuted batch, on every kernel branch
    rng = np.random.default_rng(17)
    n = 120
    d = 10.0 ** rng.uniform(-6, 1, n)
    d[1::23] = 0.0
    tmax = rng.uniform(0, 10, n)
    tmax[::11] = math.inf
    perm = rng.permutation(n)
    for profile in (WarpProfile.exp(1.0), WarpProfile.sinh_pow(1.0), WarpProfile.sinh_pow(2.0),
                    WarpProfile.sinh_pow(1.5), WarpProfile.sinh_pow(0.7), SINH_COSH):
        tau, fmin = minimize_F_batch(profile, d, tmax)
        tau_p, fmin_p = minimize_F_batch(profile, d[perm], tmax[perm])
        assert np.array_equal(tau_p, tau[perm]), profile.label()
        assert np.array_equal(fmin_p, fmin[perm]), profile.label()
        for k in range(0, n, 5):
            one_tau, one_fmin = minimize_F_batch(profile, d[k:k + 1], tmax[k:k + 1])
            assert one_tau[0] == tau[k] and one_fmin[0] == fmin[k], (profile.label(), k)


def test_batch_shallow_and_custom_against_oracle():
    rng = np.random.default_rng(23)
    d = np.concatenate([[1e-6, 10.0], 10.0 ** rng.uniform(-6, 1, 28)])
    tmax = rng.uniform(0.01, 8.0, d.size)
    for profile in (WarpProfile.sinh_pow(0.7), WarpProfile.sinh_pow(0.3), COSH, SINH_COSH):
        tau, fmin = minimize_F_batch(profile, d, tmax)
        for k in range(d.size):
            tau_o, f_o = brute_force_tau(profile, d[k], tmax[k])
            assert abs(tau[k] - tau_o) <= 1e-3, (profile.label(), d[k], tmax[k])
            assert abs(fmin[k] - f_o) <= 1e-8, (profile.label(), d[k], tmax[k])
    # tmax = inf through sup_G_batch: both custom minimizers lie below 16
    # for d >= 1e-6, and F only grows past them
    d = np.concatenate([[1e-6, 10.0], 10.0 ** rng.uniform(-6, 1, 6)])
    for profile in (COSH, SINH_COSH):
        sup = sup_G_batch(profile, d)
        for k in range(d.size):
            _, f_o = brute_force_tau(profile, d[k], 16.0)
            assert abs(sup[k] + f_o) <= 1e-8, (profile.label(), d[k])


def test_custom_flat_minimum_takes_larger_rho():
    # F = psi - 2*rho is 0 on [0.5, 1] and grows past 1: ties in the knot
    # scan resolve toward the larger rho, so tau lands at the right end
    prof = WarpProfile.custom(
        lambda t: np.maximum(np.maximum(1.0, 2.0 * np.asarray(t)), 4.0 * np.asarray(t) - 2.0),
        lambda t: np.full(np.shape(t), 4.0), 1.0)
    tau, fmin = minimize_F_batch(prof, [1.0], [3.0])
    assert tau[0] > 0.99 and abs(fmin[0]) <= 1e-12

def test_batch_rejects_nan():
    p = WarpProfile.sinh_pow(1.5)
    for d, tmax in (([math.nan], [1.0]), ([1.0], [math.nan]), ([math.inf], [1.0])):
        with pytest.raises(DomainError):
            minimize_F_batch(p, d, tmax)
    with pytest.raises(DomainError):
        sup_G_batch(p, [1.0, math.nan])


def test_newton_root_converges_or_raises():
    def g(r, k):  # log r - log 3, with log-derivative 1
        return np.log(r) - math.log(3.0), np.ones_like(r)

    lo, hi, gtol = np.array([1.0]), np.array([5.0]), np.array([1e-15])
    root = _newton_root(g, np.array([4.0]), lo, hi, gtol)
    assert root[0] == pytest.approx(3.0, rel=1e-13)
    # no sign change on [4, 5]: the iteration cap is reached and reported
    with pytest.raises(ConvergenceError):
        _newton_root(g, np.array([4.5]), np.array([4.0]), hi, gtol)

def test_sup_g_examples():
    p = WarpProfile.exp(1.0)
    assert sup_G(p, 2.0) == pytest.approx(-2.0, abs=1e-12)
    assert sup_G(p, 2.0 * math.exp(-5.0)) == pytest.approx(8.0, abs=1e-10)
    with pytest.raises(DomainError):
        sup_G(p, 0.0)


def test_sup_g_sinh_within_exponential_envelope():
    # sinh envelope: e^t/2 - 1/2 <= sinh(t) <= e^t/2
    val = sup_G(WarpProfile.sinh_pow(1.0), 1.0)
    b = exp_supremizer_bounds(0.5, 1.0, 1.0, 1.0)
    assert b.lower <= val <= b.upper + 0.5 * 1.0  # slack A*d from the affine lower envelope
    # direct closed form: sup 2 rho - sinh(rho) at cosh(rho) = 2
    rho = math.acosh(2.0)
    assert val == pytest.approx(2.0 * rho - math.sinh(rho), abs=1e-10)


def test_sup_g_custom_profile_doubling_bracket():
    # cosh grows like e^t/2, so the doubling bracket terminates; the
    # stationary point solves sinh(rho) = 2/d
    prof = WarpProfile.custom(lambda t: np.cosh(np.asarray(t, float)),
                              lambda t: np.sinh(np.asarray(t, float)), 1.0)
    rho = math.asinh(2.0)
    expect = 2.0 * rho - math.cosh(rho)
    assert sup_G(prof, 1.0) == pytest.approx(expect, abs=1e-8)


def test_sup_g_batch():
    p = WarpProfile.sinh_pow(2.0)
    d = np.array([0.01, 0.5, 3.0])
    vals = sup_G_batch(p, d)
    for k in range(3):
        assert vals[k] == pytest.approx(sup_G(p, float(d[k])), abs=1e-10)


def test_supremizer_bounds_examples():
    b = exp_supremizer_bounds(1.0, 1.0, 1.0, 0.1)
    assert b.exact == pytest.approx(2.0 * (math.log(20.0) - 1.0), abs=1e-12)
    assert b.lower <= b.exact <= b.upper
    b = exp_supremizer_bounds(1.0, 1.0, 2.0, 1.0)
    assert b.exact == -1.0
    assert b.lower <= b.exact <= b.upper
    with pytest.raises(DomainError):
        exp_supremizer_bounds(1.0, 1.0, 1.0, 2.0)


def test_supremizer_bounds_property():
    rng = np.random.default_rng(7)
    for _ in range(300):
        K = float(10.0 ** rng.uniform(-2, 1))
        D = float(10.0 ** rng.uniform(-1, 1))
        alpha = float(10.0 ** rng.uniform(-1, 0.7))
        d = float(D * rng.uniform(1e-6, 1.0))
        b = exp_supremizer_bounds(K, D, alpha, d)
        assert b.lower <= b.exact <= b.upper, (K, D, alpha, d)
        # independent check of the supremum by dense scan, widening the
        # window until the maximizer is interior
        R = 16.0
        while True:
            rho = np.linspace(0, R, 400001)
            vals = 2 * rho - K * d * np.exp(alpha * rho)
            k = int(np.argmax(vals))
            if k < rho.size - 1:
                break
            R *= 2.0
        brute = float(vals[k])
        assert b.exact == pytest.approx(brute, rel=1e-6, abs=1e-6)


def test_tail_integral_bound():
    # numerically integrated psi^{-s} tail against the closed bound
    from scipy.integrate import quad
    for profile in (WarpProfile.exp(1.0), WarpProfile.sinh_pow(2.0)):
        for s in (1.0, 2.0, 3.5):
            for r in (0.5, 1.0, 4.0):
                val, _ = quad(lambda t: float(profile.psi(t)) ** (-s), r, r + 50.0,
                              limit=200, epsabs=0.0, epsrel=1e-11)
                bound = (1.0 / (s * profile.alpha)) * float(profile.psi(r)) ** (-s)
                assert val <= bound * (1.0 + 1e-6)


def test_parse():
    assert WarpProfile.parse("exp:1.5").alpha == 1.5
    assert WarpProfile.parse("sinh:2").kind == "sinh"
    with pytest.raises(SchemaError):
        WarpProfile.parse("cosh:1")
    with pytest.raises(DomainError):
        WarpProfile.exp(-1.0)
