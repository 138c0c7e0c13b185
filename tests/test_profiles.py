import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpfill import WarpProfile, minimize_F, minimize_F_batch, sup_G_batch
from warpfill.errors import ConvergenceError, DomainError, SchemaError, UnboundedError
from warpfill.profiles import FMinResult, _newton_root

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


def test_minimize_examples():
    p = WarpProfile.exp(1.0)
    r = minimize_F(p, 2.0, 10.0)
    assert r.tau == 0.0 and r.fmin == pytest.approx(2.0, abs=1e-12)
    r = minimize_F(p, 2.0 * math.exp(-5.0), 10.0)
    assert r.tau == pytest.approx(5.0, abs=1e-12)
    assert r.fmin == pytest.approx(-8.0, abs=1e-10)
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
    cases = [(profile, d, tmax, 5) for profile in (
        WarpProfile.exp(1.0), WarpProfile.sinh_pow(1.0), WarpProfile.sinh_pow(2.0),
        WarpProfile.sinh_pow(1.5), WarpProfile.sinh_pow(0.7), SINH_COSH)]
    # steep sinh solves each distinct d once and clips per element: a small
    # pool of d, each under tmax 0, inf and values below, at and above its root
    pool = 10.0 ** rng.uniform(-6, 1, 7)
    for profile in (WarpProfile.sinh_pow(1.5), WarpProfile.sinh_pow(3.0),
                    WarpProfile.sinh_pow(1.01)):
        root, _ = minimize_F_batch(profile, pool, np.full(pool.size, math.inf))
        levels = np.column_stack([np.zeros(pool.size), np.full(pool.size, math.inf), 0.5 * root,
                                  root, 2.0 * root, rng.uniform(0.0, 10.0, pool.size)])
        cases.append((profile, np.append(np.repeat(pool, 6), [0.0, 0.0]),
                      np.append(levels.ravel(), [0.0, 3.0]), 1))
    for profile, d, tmax, step in cases:
        perm = rng.permutation(d.size)
        tau, fmin = minimize_F_batch(profile, d, tmax)
        tau_p, fmin_p = minimize_F_batch(profile, d[perm], tmax[perm])
        assert np.array_equal(tau_p, tau[perm]), profile.label()
        assert np.array_equal(fmin_p, fmin[perm]), profile.label()
        for k in range(0, d.size, step):
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


def test_steep_sinh_root_past_the_overflow_of_psi():
    # at d = 1e-320 the root lies past sinh's overflow: a finite tmax below it
    # is the minimizer, and an infinite tmax is refused rather than left to
    # Newton's iteration cap
    p = WarpProfile.sinh_pow(1.01)
    tau, fmin = minimize_F_batch(p, [1e-320, 1e-320, 0.0], [5.0, 700.0, 800.0])
    assert tau.tolist() == [5.0, 700.0, 800.0]
    assert fmin[0] == -10.0 and fmin[2] == -1600.0
    with pytest.raises(DomainError, match="overflows psi"):
        minimize_F_batch(p, [1e-320], [math.inf])

def test_closed_forms_refuse_a_subnormal_distance_only_past_overflow():
    # 2/d overflows at d = 1e-320: an infinite tmax leaves tau = inf, where
    # psi overflows, and a finite tmax is the minimizer, all without warnings
    for p in (WarpProfile.exp(1.0), WarpProfile.sinh_pow(1.0), WarpProfile.sinh_pow(2.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau, fmin = minimize_F_batch(p, [1e-320], [5.0])
            assert (tau[0], fmin[0]) == (5.0, -10.0)
            with pytest.raises(DomainError, match="overflows psi"):
                minimize_F_batch(p, [1e-320], [math.inf])
            with pytest.raises(DomainError, match="overflows psi"):
                sup_G_batch(p, [1e-320])[0]


def test_shallow_sinh_minimizer_past_the_overflow_of_sinh():
    # sinh overflows near t = 710.5, but sinh^0.7 = e^{0.7 (t - ln 2)} stays
    # finite up to about t = 1014.6; at d = 1e-250 the root of F' lies near
    # t = 824.5, where F' = 0 reads alpha*d*e^{alpha (t - ln 2)} = 2. A tmax
    # below it is the minimizer, and d = 1e-320 (root near 1053) is refused
    p = WarpProfile.sinh_pow(0.7)
    assert math.log(p.psi(800.0)) == pytest.approx(0.7 * (800.0 - math.log(2.0)), rel=1e-15)
    assert p.dpsi(800.0) == pytest.approx(0.7 * p.psi(800.0), rel=1e-15)
    tau_star = math.log(2.0) + math.log(2.0 / (0.7 * 1e-250)) / 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau, fmin = minimize_F_batch(p, [1e-250], [700.0])
        assert (tau[0], fmin[0]) == (700.0, -1400.0)
        for tmax in (992.0, 5000.0, math.inf):
            tau, fmin = minimize_F_batch(p, [1e-250], [tmax])
            assert tau[0] == pytest.approx(tau_star, rel=1e-15)
            assert fmin[0] == pytest.approx(2.0 / 0.7 - 2.0 * tau_star, rel=1e-15)
        with pytest.raises(DomainError, match="overflows psi"):
            minimize_F_batch(p, [1e-320], [math.inf])


def test_custom_minimizer_past_the_overflow_of_psi():
    # SINH_COSH ~ 0.75 e^t overflows near t = 710: at d = 1e-320 F descends
    # into the overflow and the minimizer is refused as for the builtin kinds
    # (with tmax inf or past the overflow), while below the overflow, near
    # 710.07, the minimizer log(2/(0.75 d)) is found with either tmax, also
    # within one scan knot of it. F ~ 1400 there is flat to its rounding
    # (3e-13) within 6e-7 of tau
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tmax in (math.inf, 2000.0):
            with pytest.raises(DomainError, match="the minimizer for custom:1 overflows psi"):
                minimize_F_batch(SINH_COSH, [1e-320], [tmax])
            for tau_star in (691.0, 709.6):
                d = 2.0 / 0.75 * math.exp(-tau_star)
                tau, fmin = minimize_F_batch(SINH_COSH, [d], [tmax])
                assert tau[0] == pytest.approx(tau_star, abs=2e-6)
                assert fmin[0] == pytest.approx(2.0 - 2.0 * tau_star, rel=1e-12)


BATCH_PROFILES = [WarpProfile.exp(0.3), WarpProfile.exp(1.0), WarpProfile.exp(12.0),
                  WarpProfile.sinh_pow(0.7), WarpProfile.sinh_pow(1.0),
                  WarpProfile.sinh_pow(1.5), WarpProfile.sinh_pow(2.0),
                  WarpProfile.sinh_pow(3.0), SINH_COSH]
_T = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 50.0),
               st.floats(0.0, 4000.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BATCH_PROFILES), st.lists(_T, min_size=1, max_size=8))
def test_scalar_psi_is_a_batch_of_one(profile, ts):
    # a scalar t is a 0-d batch: the same bits as the array, as a float,
    # and inf without a warning once psi overflows
    arr = np.array(ts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi, dpsi = profile.psi(arr), profile.dpsi(arr)
        for k, t in enumerate(ts):
            for f, batch in ((profile.psi, psi), (profile.dpsi, dpsi)):
                val = f(t)
                assert type(val) is float
                assert np.float64(val).tobytes() == batch[k].tobytes(), (t, f)
                if t >= max(711.0, 1000.0 / profile.alpha):
                    assert val == math.inf


_D = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(1e-300, 1e3))
_TMAX = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.just(math.inf))


def _outcome(call):
    try:
        return call()
    except (DomainError, UnboundedError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BATCH_PROFILES), st.lists(st.tuples(_D, _TMAX), min_size=1, max_size=6))
def test_scalar_minimizer_is_a_batch_of_one(profile, pairs):
    # minimize_F on one pair against minimize_F_batch on all of them: the
    # same bits, or (for a batch that is refused) the same refusal
    d, tmax = map(list, zip(*pairs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _outcome(lambda: minimize_F_batch(profile, d, tmax))
        single = [_outcome(lambda: minimize_F(profile, a, b)) for a, b in pairs]
    if isinstance(batch[0], type):
        assert batch in single
        return
    tau, fmin = batch
    for k, res in enumerate(single):
        assert isinstance(res, FMinResult), (pairs[k], res)
        assert (np.float64(res.tau).tobytes(), np.float64(res.fmin).tobytes()) \
            == (tau[k].tobytes(), fmin[k].tobytes())


def test_sup_g_examples():
    p = WarpProfile.exp(1.0)
    assert sup_G_batch(p, [2.0])[0] == pytest.approx(-2.0, abs=1e-12)
    assert sup_G_batch(p, [2.0 * math.exp(-5.0)])[0] == pytest.approx(8.0, abs=1e-10)
    with pytest.raises(DomainError):
        sup_G_batch(p, [0.0])[0]


def test_sup_g_sinh_within_exponential_envelope():
    # sinh envelope: e^t/2 - 1/2 <= sinh(t) <= e^t/2
    # sup of 2 rho - K d e^(alpha rho) over rho >= 0 lies in [-C, C] - (2/alpha) ln d;
    # at K = 1/2 and alpha = d = D = 1 the largest branch constant is
    # C = (2/alpha) |ln(2/(K alpha)) - 1| = 2 (ln 4 - 1)
    val = sup_G_batch(WarpProfile.sinh_pow(1.0), [1.0])[0]
    C = 2.0 * (math.log(4.0) - 1.0)
    assert -C <= val <= C + 0.5 * 1.0  # slack A*d from the affine lower envelope
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
    assert sup_G_batch(prof, [1.0])[0] == pytest.approx(expect, abs=1e-8)


def test_sup_g_batch():
    p = WarpProfile.sinh_pow(2.0)
    d = np.array([0.01, 0.5, 3.0])
    vals = sup_G_batch(p, d)
    for k in range(3):
        assert vals[k] == pytest.approx(sup_G_batch(p, [float(d[k])])[0], abs=1e-10)


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
