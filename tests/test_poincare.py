import collections
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from warpfill import (CarrierSpace, WarpProfile, build_filling_graph, builtin_filling_family,
                      builtin_halfline_family, circle, counterexample_suite,
                      discrete_upper_gradient, filling_verifier, from_graph, from_matrix,
                      halfline_constant_exp, halfline_constant_general,
                      halfline_graph, halfline_verifier, lp_norm, optimal_constant_and_ratio,
                      optimal_subtracted_constant)
from warpfill import poincare
from warpfill.errors import (ConvergenceError, DomainError, PreconditionError, ResourceCapError,
                             ValidationError)

EXP1 = WarpProfile.exp(1.0)
SINH1 = WarpProfile.sinh_pow(1.0)


def small_graph(profile=EXP1, weight="exp", beta=1.0, n=8, t_max=3.0, dt=0.5):
    return build_filling_graph(circle(n, 2 * math.pi), profile, weight, beta, t_max, dt)


def test_halfline_graph_is_a_path():
    G = halfline_graph("exp", 1.0, 2.0, 0.5)
    assert G.n_nodes == 4
    a, b, w = G.edges
    assert a.size == 3 and np.all(w == 0.5)
    # exponential cell masses in closed form
    expected = (np.exp(np.arange(4) * 0.5 + 0.5) - np.exp(np.arange(4) * 0.5))
    assert np.allclose(G.node_measure, expected)


def test_apex_merge_on_sinh_model():
    Y = circle(8, 2 * math.pi)
    G = build_filling_graph(Y, SINH1, "sinh", 1.0, 2.0, 0.5)
    assert G.has_apex
    assert G.n_nodes == 4 * 8 - 7
    assert G.node_y[0] == -1
    # apex measure is the summed bottom-level mass
    m0 = quad(lambda t: math.sinh(t), 0, 0.5)[0] * Y.measure.sum()
    assert G.node_measure[0] == pytest.approx(m0, rel=1e-10)
    # no apex for the exponential profile
    G2 = build_filling_graph(Y, EXP1, "exp", 1.0, 2.0, 0.5)
    assert not G2.has_apex
    assert G2.n_nodes == 4 * 8


def test_node_count_formula():
    G = small_graph()
    assert G.n_nodes == int(3.0 / 0.5) * 8


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("WARPFILL_MAX_NODES", "10")
    with pytest.raises(ResourceCapError):
        small_graph()


def test_sinh_cell_masses_match_quadrature():
    G = halfline_graph("sinh", 2.5, 1.0, 0.25)
    for i, t in enumerate(G.levels):
        ref = quad(lambda x: math.sinh(x) ** 2.5, t, t + 0.25, epsabs=0, epsrel=1e-12)[0]
        assert G.node_measure[i] == pytest.approx(ref, rel=1e-10)


def _sinh_quad(beta, a, b):
    return quad(lambda x: math.sinh(x) ** beta, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("beta, dt", [(1000.0, 0.5), (2000.0, 1.0), (391.0, 0.3), (706.0, 0.7),
                                      (600.0, 0.5), (2.0, 0.1), (0.01, 1e-305), (0.01, 40.0),
                                      (10.0, 8.0)])
def test_first_sinh_cell_matches_quadrature(beta, dt):
    # steep beta (1000, 2000, 600): sinh^beta changes by hundreds of e-folds
    # across [0, dt]; beta 391 and 706: (dt/2)^(beta+1) is subnormal; a tiny
    # dt: the cell is near the bottom of double range at any beta; wide dt (40
    # and 8): (sinh t / t)^beta is far from its series in t^2 on [0, dt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, masses = poincare._level_grid(np.ones(1), False, "sinh", beta, dt, dt)
    # below dt = 1e-8 sinh t is t in double precision, and quad is 4e-6 off
    # on the subnormal cell at dt = 1e-305
    ref = (math.exp((beta + 1.0) * math.log(dt) - math.log1p(beta)) if dt < 1e-8
           else _sinh_quad(beta, 0.0, dt))
    assert masses[0] == pytest.approx(ref, rel=1e-10, abs=0.0)


def _first_cell_quad(beta, dt):
    """quad of sinh^beta over [0, dt], taken as sinh(dt)^beta times the
    integral of (sinh t / sinh dt)^beta so that quad sees no overflow; None
    where the integral leaves the normal double range."""
    log_top = math.log(math.sinh(dt))
    q = quad(lambda x: math.exp(beta * (math.log(math.sinh(x)) - log_top)) if x > 0.0 else 0.0,
             0.0, dt, epsabs=0, epsrel=1e-13, limit=200)[0]
    log_ref = beta * log_top + math.log(q)
    if not math.log(np.finfo(float).tiny) < log_ref < math.log(np.finfo(float).max):
        return None
    return math.exp(log_ref)


def _first_cell(beta, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return poincare._level_grid(np.ones(1), False, "sinh", beta, dt, dt)[1][0]


@pytest.mark.parametrize("beta", [0.01, 0.5, 1.0, 2.0, 3.0, 10.0, 100.0, 1000.0])
def test_first_sinh_cell_grid_matches_quadrature(beta):
    # the halves of _sinh_top and the two-term series at the bottom, against
    # quad wherever the integral is a normal double
    checked = 0
    for dt in (1e-6, 1e-3, 0.02, 0.1, 0.5, 1.0, 8.0, 20.0):
        ref = _first_cell_quad(beta, dt)
        if ref is not None:
            assert _first_cell(beta, dt) == pytest.approx(ref, rel=1e-12, abs=0.0), dt
            checked += 1
    assert checked >= 2


@pytest.mark.parametrize("beta", [0.01, 0.5, 2.0, 10.0])
def test_first_sinh_cell_either_side_of_the_first_halving(monkeypatch, beta):
    # dt^2 max(1, beta) <= 1e-7 takes the series alone; just above, [dt/2, dt]
    # is one cell of _sinh_top and the series covers [0, dt/2]
    tops, sinh_top = [], poincare._sinh_top

    def spy(top, width, b):
        tops.append(top.size)
        return sinh_top(top, width, b)

    monkeypatch.setattr(poincare, "_sinh_top", spy)
    edge = math.sqrt(1e-7 / max(1.0, beta))
    for dt, halves in ((edge * (1.0 - 1e-6), 0), (edge * (1.0 + 1e-6), 1)):
        tops.clear()
        cell = poincare._first_sinh_cell(beta, dt)
        assert tops == [halves]
        assert cell == pytest.approx(_first_cell_quad(beta, dt), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("beta, dt, pin", [(2.0, 0.1, 3.3400063527349693e-04),
                                           (1.0, 0.02, 2.0000666675555623e-04)])
def test_first_sinh_cell_of_the_benchmark_grids(beta, dt, pin):
    # the first cells of the benchmark's sinh grids, as the Gauss-Jacobi rule
    # gave them
    assert _first_cell(beta, dt) == pytest.approx(pin, rel=2e-13, abs=0.0)


@pytest.mark.parametrize("beta, dt, levels", [(1000.0, 0.5, [1]), (100.0, 0.5, range(1, 4)),
                                              (20.0, 2.0, range(1, 4)), (300.0, 0.1, range(1, 12)),
                                              (1e4, 0.01, range(84, 93)), (0.5, 40.0, [1, 2])])
def test_steep_sinh_cells_match_quadrature(beta, dt, levels):
    # one Gauss-Legendre rule over these cells is up to 73% off (the cell
    # [0.5, 1) at beta 1000: 2.703e66 for 9.857e66)
    t = np.arange(max(levels) + 1) * dt
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")  # under the errstate of _level_grid
        masses = poincare._cell_masses("sinh", beta, t, dt)[levels]
    ref = [_sinh_quad(beta, t[i], t[i] + dt) for i in levels]
    assert masses == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("beta, t, dt, ref", [(0.001, 400.0, 400.0, 733.20783373182175),
                                             (0.001, 800.0, 400.0, 1093.8175548651858),
                                             (0.5, 710.0, 0.1, 1.0837489206085395e153),
                                             (0.9, 780.0, 0.5, 2.5359679387791708e304)])
def test_sinh_cells_past_the_overflow_of_sinh(beta, t, dt, ref):
    # sinh t overflows past t of about 710.5, but sinh^beta is finite there for
    # beta < 1; the references are mpmath integrals at 30 digits
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")  # under the errstate of _level_grid
        mass = poincare._cell_masses("sinh", beta, np.array([0.0, t]), dt)[1]
    assert mass == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_upper_gradient_examples():
    G = small_graph()
    assert np.all(discrete_upper_gradient(G, np.ones(G.n_nodes)) == 0.0)
    # a radial linear function has unit gradient at every node, in either layout
    g = discrete_upper_gradient(G, G.node_t)
    assert g.shape == (G.n_levels, G.carrier.n) and np.allclose(g, 1.0)
    assert np.array_equal(discrete_upper_gradient(G, G.levels[:, None]), g[:, :1])
    # a horizontal increment psi(t) * d_Y along an edge is a unit quotient,
    # the largest at the edge's other end
    lvl, j, k = 2, 0, 1
    u = np.zeros((G.n_levels, G.carrier.n))
    u[lvl, k] = float(EXP1.psi(G.levels[lvl])) * float(G.carrier.dist[j, k])
    assert discrete_upper_gradient(G, u)[lvl, j] == pytest.approx(1.0)


def test_grid_reads_the_apex_row_as_one_node():
    # a node vector's apex value fills row 0; an (L, n) array must hold one
    # value there
    G = small_graph(SINH1, "sinh")
    assert G.has_apex
    u = np.arange(G.n_nodes, dtype=float) + 1.0
    grid = G.grid(u)
    assert grid.shape == (G.n_levels, G.carrier.n) and np.all(grid[0] == 1.0)
    assert np.array_equal(grid[1:].ravel(), u[1:])
    grid[0, -1] = 2.0
    with pytest.raises(DomainError, match="apex and must hold one value"):
        optimal_constant_and_ratio(G, grid, 1.5)


def test_optimal_constant_median_and_mean():
    values = np.array([0.0, 1.0])
    assert optimal_subtracted_constant(values, np.array([1.0, 1.0]), 2.0) == 0.5
    assert optimal_subtracted_constant(values, np.array([1.0, 3.0]), 1.0) == 1.0
    assert optimal_subtracted_constant(values, np.array([1.0, 1.0]), 1.0) == 0.5


def test_optimal_constant_golden_matches_grid():
    rng = np.random.default_rng(4)
    values = rng.normal(size=60)
    weights = rng.uniform(0.2, 2.0, size=60)

    def scan(lo, hi, step):
        grid = np.arange(lo, hi + step, step)
        obj = np.sum(np.abs(values[None, :] - grid[:, None]) ** p * weights[None, :], axis=1)
        return grid[int(np.argmin(obj))]

    for p in (1.5, 2.7, 4.0):
        c = optimal_subtracted_constant(values, weights, p)
        # two-stage scan down to 1e-6 resolution (objective is convex)
        rough = scan(values.min(), values.max(), 1e-3)
        c_grid = scan(rough - 2e-3, rough + 2e-3, 1e-6)
        assert abs(c - c_grid) <= 1e-5


def _lp_objective(values, weights, c, p):
    return float(np.sum(np.abs(values - c) ** p * weights))


def _grid_oracle_min(values, weights, p):
    """Minimum of the convex objective over repeatedly zoomed dense grids:
    the minimizer always lies between the grid neighbours of the argmin."""
    lo, hi = values.min(), values.max()
    best = math.inf
    for _ in range(12):
        grid = np.linspace(lo, hi, 401)
        obj = np.sum(np.abs(values[None, :] - grid[:, None]) ** p * weights[None, :], axis=1)
        k = int(np.argmin(obj))
        best = min(best, float(obj[k]))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    return best


@pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 4.0])
def test_optimal_constant_steep_weights_against_oracle(p):
    # e^{2t} weights put the optimum many decades below the value span
    t = np.linspace(0.0, 20.0, 401)
    weights = np.exp(2.0 * t)
    for values in (np.exp(-t), np.cos(3.0 * t) * np.exp(-0.25 * t), np.clip(t - 1.0, 0.0, 1.0)):
        c = optimal_subtracted_constant(values, weights, p)
        oracle = _grid_oracle_min(values, weights, p)
        assert _lp_objective(values, weights, c, p) <= oracle * (1.0 + 1e-12)


def test_optimal_constant_on_a_data_value():
    # the exact minimizer is 1 + delta with delta far below one ulp of 1
    values = np.array([0.0, 1.0, 3.0])
    weights = np.array([1.0, 1e60, 1.0])
    for p in (1.5, 3.0):
        c = optimal_subtracted_constant(values, weights, p)
        assert c == 1.0
        for nb in (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)):
            assert _lp_objective(values, weights, c, p) <= _lp_objective(values, weights, nb, p)


@pytest.mark.parametrize("chunk", [1 << 16, 7])
def test_optimal_constant_mixed_signs_against_oracle(monkeypatch, chunk):
    # a chunk of 7 splits the 80 values into ragged chunks
    monkeypatch.setattr(poincare, "_CHUNK", chunk)
    rng = np.random.default_rng(7)
    values = np.concatenate([-np.exp(rng.uniform(-5, 3, 40)), np.exp(rng.uniform(-5, 3, 40))])
    weights = rng.uniform(0.1, 3.0, size=80)
    for p in (1.2, 1.5, 2.7, 4.0):
        c = optimal_subtracted_constant(values, weights, p)
        oracle = _grid_oracle_min(values, weights, p)
        assert _lp_objective(values, weights, c, p) <= oracle * (1.0 + 1e-12)


def test_optimal_constant_weight_scale_invariant():
    rng = np.random.default_rng(11)
    values = rng.normal(size=200)
    weights = rng.uniform(0.2, 2.0, size=200) * np.exp(np.linspace(0.0, 30.0, 200))
    for p in (1.05, 1.5, 3.0):
        c = optimal_subtracted_constant(values, weights, p)
        c_big = optimal_subtracted_constant(values, weights * 1e200, p)
        assert abs(c_big - c) <= 1e-12 * max(abs(c), 1e-300)
        assert _lp_objective(values, weights, c_big, p) <= \
            _lp_objective(values, weights, c, p) * (1.0 + 1e-12)


def test_optimal_constant_raises_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(poincare, "_ROOT_MAXITER", 1)
    values = np.random.default_rng(4).normal(size=60)
    with pytest.raises(ConvergenceError):
        optimal_subtracted_constant(values, np.ones(60), 1.5)


def test_optimal_constant_refuses_a_slope_that_underflows_at_an_end():
    # 0.1^399 underflows, so the slope is exactly 0 at the lower end, which
    # brentq would return; by symmetry the minimizer is 0.05
    values = np.linspace(0.0, 0.1, 1000)
    with pytest.raises(DomainError, match=r"^the L\^400.0 objective's slope underflows"):
        optimal_subtracted_constant(values, np.ones(1000), 400.0)
    assert optimal_subtracted_constant(values, np.ones(1000), 200.0) == pytest.approx(0.05)
    # with no weight off the lower end, 0 there is the true slope
    assert optimal_subtracted_constant(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 400.0) == 0.0


def test_optimal_constant_rescales_an_overflowing_objective_without_a_warning():
    # the slope at 0 is -(1e308)^2 through the values, whatever the weights,
    # and was refused; the solve on the values times 2^-1024 does not overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = optimal_subtracted_constant(np.array([0.0, 1e308]), np.ones(2), 3.0)
    assert c == pytest.approx(5e307, rel=1e-15)


def test_a_rescaled_solve_is_exact_in_powers_of_two():
    # past the overflow the values are solved again times 2^-e, so scaling
    # the input by 2^1000 or 2^1010 reaches the same second solve: the
    # answers are exactly 2^10 apart, and optimal for the unscaled values.
    # Weights of about 2^990 make the slope overflow at p = 1.05 too
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        values = rng.normal(size=n) * np.exp(rng.uniform(-5.0, 0.0))
        weights = rng.uniform(0.5, 2.0, size=n) * np.exp(rng.uniform(-3.0, 3.0, size=n))
        weights *= 2.0 ** 990
        for p in (1.05, 1.5, 2.0, 2.5, 3.0, 4.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                near = optimal_subtracted_constant(np.ldexp(values, 1000), weights, p)
                far = optimal_subtracted_constant(np.ldexp(values, 1010), weights, p)
            assert far == math.ldexp(near, 10), (n, p)
            c = optimal_subtracted_constant(values, weights, p)
            assert _lp_objective(values, weights, math.ldexp(near, -1000), p) <= \
                _lp_objective(values, weights, c, p) * (1.0 + 1e-12)


def test_optimal_constant_solves_unmerged_where_a_merged_weight_overflows():
    # the two values 0 would merge into a weight of inf, and the weights total
    # 2e308: the entry scales them by 2^-4 first, exactly
    weights = np.array([1e308, 1e308, 1.0])
    for values in (np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.0, 1.0])):
        for p in (1.0, 1.5, 3.0):
            c = optimal_subtracted_constant(values, weights, p)
            assert c == 0.0 == optimal_subtracted_constant(values, weights * 2.0 ** -4, p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_optimal_constant_refuses_values_that_are_not_finite(p, bad):
    with pytest.raises(DomainError, match="^values must be finite$"):
        optimal_subtracted_constant(np.array([bad, 1.0, 2.0]), np.ones(3), p)


def test_the_last_pick_rescales_where_every_objective_overflows():
    # the objective overflows at both data values around the root and at the
    # root itself under weights / 8, so all is solved again on the values
    # times 2^-4, where it does not; the entry scales the undivided weights
    # by 2^-4, which moves no answer
    values, weights = np.array([3.0, -1.0, 2.0, 5.0]), np.array([1e308, 1.7e308, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = optimal_subtracted_constant(values, weights, 1.5)
        assert optimal_subtracted_constant(values, weights / 8.0, 1.5) == c
    assert c not in values and 1.0 < c < 3.0


def test_the_mean_of_a_constant_input_is_its_value():
    # np.average of three 0.1s is 0.10000000000000002
    assert optimal_subtracted_constant(np.full(3, 0.1), np.ones(3), 2.0) == 0.1


def _counting_slope(monkeypatch):
    """Replace poincare._slope with a wrapper that records where it is called."""
    calls, slope = [], poincare._slope

    def counted(c, *args):
        calls.append(c)
        return slope(c, *args)

    monkeypatch.setattr(poincare, "_slope", counted)
    return calls


def _adversarial_inputs():
    """300 seeded (values, weights): values over 300 decades of both signs,
    weights e^(-300..600)."""
    rng = np.random.default_rng(2026)
    for _ in range(300):
        n = int(rng.integers(50, 500))
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 0.0, n)
        yield values, np.exp(rng.uniform(-300.0, 600.0, n))


def test_optimal_constant_bounds_the_slope_passes_on_adversarial_inputs(monkeypatch):
    # the root lies many decades below the bracket width, where brentq alone
    # bisected from the far end (over 300 passes for these inputs). The worst
    # counts when these bounds were set: 47 passes at p = 1.5, 76 at p = 1.05
    # and at 2.5, 48 at 4, and 60 with each input's p drawn from U(1.05, 4)
    calls = _counting_slope(monkeypatch)
    bound = {1.5: 64, 1.05: 80, 2.5: 80, 4.0: 80, "U(1.05, 4)": 80}
    worst = dict.fromkeys(bound, 0)
    for case in bound:
        rng = np.random.default_rng(7)
        for values, weights in _adversarial_inputs():
            p = rng.uniform(1.05, 4.0) if case == "U(1.05, 4)" else case
            calls.clear()
            c = optimal_subtracted_constant(values, weights, p)
            assert values.min() <= c <= values.max(), (case, p)
            worst[case] = max(worst[case], len(calls))
    assert all(worst[case] <= bound[case] for case in bound), worst


def _solve_or_refuse(values, weights, p):
    try:
        return np.float64(optimal_subtracted_constant(values, weights, p)).view(np.int64)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("cycle_p", [False, True])
def test_bound_decided_splits_keep_the_answers_of_the_full_pass_loop(monkeypatch, cycle_p):
    # the bounds split every input here; each sign they decide is checked
    # against a full pass, and the full-pass loop (bounds that never decide)
    # is the reference for the bits of c and the count of full passes
    monkeypatch.setattr(poincare, "_BOUNDED", 2 * poincare._BLOCK)
    full, slope_sign = poincare._slope, poincare._slope_sign
    decided = []

    def checked(c, bounds, known, args):
        s = slope_sign(c, bounds, known, args)
        if c not in known:
            exact = full(c, *args)
            assert exact != 0.0 and math.copysign(1.0, exact) == s, (c, exact, s)
            decided.append(c)
        return s

    monkeypatch.setattr(poincare, "_slope_sign", checked)
    calls = _counting_slope(monkeypatch)
    ps = [1.5, 1.05, 2.5, 4.0] if cycle_p else [1.5]
    for k, (values, weights) in enumerate(_adversarial_inputs()):
        p = ps[k % len(ps)]
        calls.clear()
        c = _solve_or_refuse(values, weights, p)
        passes = len(calls)
        with monkeypatch.context() as m:
            m.setattr(poincare._SlopeBounds, "sign", lambda self, c: 0.0)
            calls.clear()
            assert _solve_or_refuse(values, weights, p) == c
            assert passes <= len(calls)
    assert len(decided) > 300


def test_slope_bounds_agree_with_the_full_pass_near_the_root(monkeypatch):
    # blocks of 2 values one ulp apart bound the slope closely, so within
    # 40 ulps of the root the bounds decide signs where the full pass is
    # rounding-sensitive; each decided sign must be the full pass's, off 0
    monkeypatch.setattr(poincare, "_BLOCK", 2)
    rng = np.random.default_rng(5)
    decided = 0
    for _ in range(60):
        base = rng.normal(size=int(rng.integers(550, 1500))) * 10.0 ** rng.uniform(-3, 3)
        v = np.sort(np.concatenate([base, np.nextafter(base, np.inf)]))
        w = rng.uniform(0.5, 2.0, v.size)
        p = float(rng.choice([1.05, 1.5, 2.5, 4.0]))
        bounds = poincare._SlopeBounds(v, w, p)
        args = (v, w, p, np.empty((2, v.size)), (v[0], v[-1]))
        c = optimal_subtracted_constant(v, w, p)
        for x in c + np.arange(-40, 41) * np.spacing(c):
            s = bounds.sign(float(x))
            if s:
                decided += 1
                exact = poincare._slope(float(x), *args)
                assert exact != 0.0 and math.copysign(1.0, exact) == s, (x, exact, s)
    assert decided > 100


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _brent_as_brentq(brent, f, a, b, fa, fb, xtol, rtol, maxiter):
    """brent's (root, iterations), once brent (poincare._brent) and scipy's
    brentq have found the same root bits in the same iteration count, or
    both stopped at maxiter (then root and iterations are None)."""
    try:
        root, iterations = brent(f, a, b, fa, fb, xtol, rtol, maxiter)
    except ConvergenceError:
        root = iterations = None
    given = {a: fa, b: fb}
    want, info = brentq(lambda c: given[c] if c in given else f(c), a, b, xtol=xtol,
                        rtol=rtol, maxiter=maxiter, full_output=True, disp=False)
    assert (root is None) == (not info.converged), (a, b)
    if root is not None:
        assert _bits(root) == _bits(want), (a, b, root, want)
        if fa != 0.0 and fb != 0.0:  # brentq leaves its count unset at a root on an end
            assert iterations == info.iterations, (a, b, iterations, info.iterations)
    return root, iterations


def _seeded_brackets():
    """3000 seeded (f, a, b): sign changes of linear, cubic, tanh and kinked
    functions at scales from 1e-320 to 1e300, over brackets 1e-3 to 1e12
    wide, where secant and interpolation steps overflow or divide by 0."""
    rng = np.random.default_rng(7)
    for _ in range(3000):
        r, scale = float(rng.uniform(-1.0, 1.0)), float(10.0 ** rng.uniform(-320.0, 300.0))
        width = float(10.0 ** rng.uniform(-3.0, 12.0))
        a = r - width * float(rng.uniform(0.01, 1.0))
        b = r + width * float(rng.uniform(0.01, 1.0))
        f = [lambda x, r=r, c=scale: c * (x - r),
             lambda x, r=r, c=scale: c * ((x - r) * (x - r) * (x - r)),
             lambda x, r=r, c=scale: c * math.tanh(x - r) + c * 1e-3 * (x - r),
             lambda x, r=r, c=scale: c * (x - r) * (1.0 + 1e6 * (x > r))][int(rng.integers(4))]
        yield f, a, b


def test_brent_has_the_bits_of_brentq_where_its_steps_overflow(monkeypatch):
    # every number stays a Python float, so no step warns or raises, and a
    # zero denominator gives inf or NaN, as in brentq's C
    div, quotients = poincare._div, []

    def counted(n, d):
        quotients.append((d == 0.0, div(n, d)))
        return quotients[-1][1]

    monkeypatch.setattr(poincare, "_div", counted)
    xtol, rtol = 4.0 * math.ulp(0.0), 4.0 * 2.0 ** -52
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, a, b in _seeded_brackets():
            _brent_as_brentq(poincare._brent, f, a, b, f(a), f(b), xtol, rtol,
                             poincare._ROOT_MAXITER)
        # a root on an end, and a cap of one iteration
        assert _brent_as_brentq(poincare._brent, math.sin, 0.0, 1.0, 0.0, math.sin(1.0),
                                xtol, rtol, 9) == (0.0, 0)
        assert _brent_as_brentq(poincare._brent, math.tan, -1.0, 1.5, math.tan(-1.0),
                                math.tan(1.5), xtol, rtol, 1) == (None, None)
    kinds = collections.Counter((zero, "nan" if math.isnan(q) else "inf" if math.isinf(q)
                                 else "finite") for zero, q in quotients)
    # 0/0 and x/0, and quotients that overflow or are inf/inf
    assert kinds[True, "nan"] > 1000 and kinds[True, "inf"] > 10, kinds
    assert kinds[False, "inf"] > 100 and kinds[False, "nan"] > 1000, kinds


def test_brent_has_the_bits_of_brentq_in_the_solver(monkeypatch):
    brent, calls = poincare._brent, []

    def checked(*args, **kwargs):
        calls.append(_brent_as_brentq(brent, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(poincare, "_brent", checked)
    rng = np.random.default_rng(11)
    inputs = list(_adversarial_inputs()) + [
        (rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0, n))
        for n in rng.integers(20, 3000, 200)]
    for values, weights in inputs:
        for p in (1.05, 1.5, 2.5, 4.0):
            _solve_or_refuse(values, weights, p)
    assert len(calls) > 1800


def _tail_by_quad(lo, hi, p, s, splits=(2.0,)):
    """The tail integral of min(x - 1, 1)^p sinh(x)^s by a tight quad,
    split at the given points."""
    def f(x):
        return min(x - 1.0, 1.0) ** p * math.exp(s * (x + math.log1p(-math.exp(-2.0 * x))
                                                      - math.log(2.0)))
    cuts = [lo] + [x for x in splits if lo < x < hi] + [hi]
    return sum(quad(f, x, y, epsabs=0.0, epsrel=1e-13, limit=500)[0]
               for x, y in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("p", [1.0, 1.05, 1.5, 2.0, 4.0, 200.0])
def test_tail_quadrature_matches_a_tight_quad(p):
    # the counterexample's tail: summed over the intervals of a schedule,
    # and over [1, inf) with and without the ramp where it converges; at
    # s = 1 - p (alpha 1, beta 1) a steep ramp puts the peak near x = 2
    for s in (-7.0, -1.5, -0.5, 0.0, 0.5, 2.0, 1.0 - p):
        lo, total, want = 1.0, 0.0, 0.0
        for T in (1.001, 1.3, 2.5, 6.0, 12.0):
            total += poincare._tail_quadrature(lo, T, p, s)
            want += _tail_by_quad(lo, T, p, s)
            lo = T
            assert total == pytest.approx(want, rel=1e-12, abs=0.0), (s, T)
        if s < 0.0:
            for q in (p, 0.0):
                got = poincare._tail_quadrature(1.0, math.inf, q, s)
                assert got == pytest.approx(_tail_by_quad(1.0, math.inf, q, s), rel=1e-12,
                                            abs=0.0), (s, q)


@pytest.mark.parametrize("s", [-1e-4, 1e-4])
def test_tail_quadrature_over_a_million_wide_interval(s):
    # more than _TAIL_PANELS unit panels: they are widened, where s near 0
    # leaves sinh^s nearly flat
    splits = (2.0, 10.0, 100.0, 1e3, 1e4, 1e5)
    for p in (1.5, 0.0):
        got = poincare._tail_quadrature(1.0, 1e6, p, s)
        assert got == pytest.approx(_tail_by_quad(1.0, 1e6, p, s, splits), rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=30, unique=True),
       st.lists(st.floats(1e-100, 1e100), min_size=30, max_size=30),
       st.sampled_from([1.05, 1.5, 3.0]), st.integers(0, 2 ** 32 - 1))
def test_optimal_constant_ignores_how_equal_values_split_their_weight(values, weights,
                                                                      p, seed):
    # each weight split into two exact halves at the same value, in any order,
    # merges back into the unsplit input, so the answer has the same bits;
    # values on a grid of 1/64 keep the objective and its slope in range
    values, weights = np.array(values) / 64.0, np.array(weights[:len(values)])
    order = np.random.default_rng(seed).permutation(2 * values.size)
    halves_v = np.concatenate([values, values])[order]
    halves_w = np.concatenate([weights / 2.0, weights / 2.0])[order]
    c = optimal_subtracted_constant(values, weights, p)
    assert optimal_subtracted_constant(halves_v, halves_w, p) == c


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_optimal_constant_splits_a_straddling_bracket_at_zero(monkeypatch, sign):
    # a heavy value at +-1e-30 puts the root 30 decades below the bracket
    # width; the slope at 0, taken right after the ends, picks its side
    values = np.array([-1.0, sign * 1e-30, 3.0])
    weights = np.array([1.0, 1e40, 1.0])
    calls = _counting_slope(monkeypatch)
    c = optimal_subtracted_constant(values, weights, 1.5)
    assert calls[:3] == [-1.0, 3.0, 0.0]
    assert all(sign * x >= 0.0 for x in calls[2:])
    assert c == sign * 1e-30
    # a slope of exactly 0 there makes 0 the root
    calls.clear()
    assert optimal_subtracted_constant(np.array([-1.0, 1.0]), np.ones(2), 1.5) == 0.0
    assert calls == [-1.0, 1.0, 0.0]


def _stable_merge(values, weights):
    order = np.argsort(values, kind="stable")
    v = values[order]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return v[starts], np.add.reduceat(weights[order], starts)


def test_merge_equal_values_matches_a_stable_sort():
    # the merge is one stable argsort: the merged pairs have the bits of a
    # stable sort's, signed zeros included
    rng = np.random.default_rng(24)
    zeros = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0] * 300)
    cases = [rng.normal(size=5000), np.repeat(rng.normal(size=50), 100)[rng.permutation(5000)],
             np.exp(-np.linspace(0.0, 20.0, 5000)), np.clip(np.linspace(-1.0, 3.0, 5000), 0.0, 1.0),
             zeros[rng.permutation(zeros.size)], np.array([2.0]),
             np.concatenate([rng.normal(size=3000), [0.0, -0.0]])[rng.permutation(3002)]]
    for values in cases:
        weights = rng.uniform(0.1, 2.0, values.size) * 10.0 ** rng.uniform(-3, 3, values.size)
        got, ref = poincare._merge_equal_values(values, weights), _stable_merge(values, weights)
        for a, b in zip(got, ref):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 1e-3, -1e-3, 3.0, 7.5])


def _nodes(G, u):
    """One value per node of an (L, 1) or (L, n) function; the apex is the
    last value of row 0, the first n - 1 being the apex level's nodes that
    the graph leaves out."""
    L, n = G.n_levels, G.carrier.n
    return np.broadcast_to(u, (L, n)).ravel()[L * n - G.n_nodes:]


@st.composite
def _grid_cases(draw):
    """A graph, a function on it in one of the layouts `grid` reads, and p."""
    kind = draw(st.sampled_from(["halfline", "circle", "graph"]))
    model = draw(st.sampled_from(["exp", "sinh"]))
    dt = draw(st.sampled_from([0.05, 0.1, 0.25]))
    beta = draw(st.sampled_from([0.5, 1.0, 2.0]))
    t_max = draw(st.integers(1, 30)) * dt
    if kind == "halfline":
        G = halfline_graph(model, beta, t_max, dt)
    else:
        if kind == "circle":
            Y = circle(draw(st.integers(3, 9)), 2 * math.pi)
        else:
            n = draw(st.integers(2, 7))
            lengths = st.sampled_from([0.5, 1.0, 1.5, 2.0])
            extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                            lengths), max_size=6))
            Y = from_graph([(i, i + 1, draw(lengths)) for i in range(n - 1)]
                           + [e for e in extra if e[0] != e[1]], n=n,
                           measure=0.5 + np.arange(n) % 3)  # unequal measures
        profile = EXP1 if model == "exp" else SINH1
        G = build_filling_graph(Y, profile, model, beta, t_max, dt)
    L, n = G.n_levels, G.carrier.n
    # values from 1e-60 up in magnitude keep every term of both sums in the
    # normal range, where a relative bound holds
    pool = draw(st.lists(_VALUES | st.floats(1e-60, 10.0) | st.floats(-10.0, -1e-60),
                         min_size=1, max_size=6))
    width = draw(st.sampled_from([1, n]))  # radial, or one value per carrier node
    u = np.array(draw(st.lists(st.sampled_from(pool), min_size=L * width,
                               max_size=L * width))).reshape(L, width)
    if G.has_apex:
        u[0] = u[0, 0]
    nodes = _nodes(G, u)
    u = draw(st.sampled_from([u, nodes]))
    p = draw(st.sampled_from([1.0, 1.05, 1.5, 2.0, 2.5, 4.0]))
    return G, u, nodes, p


def _fsum_objective(values, weights, p):
    """sum_i w_i |v_i|^p, its terms summed exactly."""
    return math.fsum(np.abs(values) ** p * weights)


@settings(max_examples=150, deadline=None)
@given(_grid_cases())
def test_grid_report_is_within_rounding_of_the_node_report(case):
    # the gradient has the bits of the edge-by-edge maximum over G.edges, and
    # the report is within 1e-13 of sums over the nodes
    G, u, nodes, p = case
    a, b, w = G.edges
    q = np.abs(nodes[a] - nodes[b]) / w
    oracle = np.zeros(G.n_nodes)
    np.maximum.at(oracle, a, q)
    np.maximum.at(oracle, b, q)
    g = discrete_upper_gradient(G, u)
    assert np.array_equal(_nodes(G, g).view(np.int64), oracle.view(np.int64))
    rep = optimal_constant_and_ratio(G, u, p)
    m = G.node_measure
    lp_g = _fsum_objective(oracle, m, p) ** (1.0 / p)
    objective = _fsum_objective(nodes - rep.c_star, m, p)
    lp_u = objective ** (1.0 / p)
    assert rep.lp_g == pytest.approx(lp_g, rel=1e-13, abs=0.0)
    if lp_g == 0.0:
        assert rep.ratio == rep.lp_u_minus_c == 0.0 and np.all(nodes == rep.c_star)
        return
    assert rep.lp_u_minus_c == pytest.approx(lp_u, rel=1e-13, abs=0.0)
    assert rep.ratio == pytest.approx(lp_u / lp_g, rel=1e-13, abs=0.0)
    c = optimal_subtracted_constant(nodes, m, p)
    assert objective == pytest.approx(_fsum_objective(nodes - c, m, p), rel=1e-13, abs=0.0)


def test_lp_norm_refuses_a_sum_that_underflows():
    with pytest.raises(DomainError, match=r"^the L\^400.0 norm underflows"):
        lp_norm(np.full(3, 0.1), np.ones(3), 400.0)
    assert lp_norm(np.array([0.0, 0.1]), np.array([1.0, 0.0]), 400.0) == 0.0
    assert lp_norm(np.full(3, 0.1), np.ones(3), 200.0) > 0.0


def test_lp_norm_scales_a_sum_that_overflows():
    # |v|^p w overflowed though the norm is in range: lp_norm([1e200], [1], 2)
    # was inf, and so a report's norm turned divergent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp_norm(np.array([1e200]), np.ones(1), 2.0) == pytest.approx(1e200, rel=1e-15)
        assert lp_norm(np.array([-3e200, 4e200]), np.ones(2), 2.0) == pytest.approx(5e200,
                                                                                   rel=1e-15)
        got = lp_norm(np.array([1e200, 2e200]), np.array([1e10, 3e100]), 3.0)
        want = math.fsum([1e10, 8.0 * 3e100]) ** (1 / 3) * 1e200
        assert got == pytest.approx(want, rel=1e-14)
        # a weight of 0 times an overflowing power was NaN
        assert lp_norm(np.array([1e200, 1.0]), np.array([0.0, 4.0]), 2.0) == pytest.approx(2.0,
                                                                                      rel=1e-15)
        # terms of 300 decades: the light large value does not hide the rest
        assert lp_norm(np.array([1e200, 1.0]), np.array([1e-300, 4.0]), 2.0) == pytest.approx(
            1e50, rel=1e-15)
        assert lp_norm(np.array([1e200, 1e50]), np.array([1e-300, 1.0]), 2.0) == pytest.approx(
            math.sqrt(2.0) * 1e50, rel=1e-15)
        # the norm itself past double range
        assert lp_norm(np.array([1e300]), np.array([1e300]), 1.0) == math.inf
        assert lp_norm(np.array([1e300, math.inf]), np.ones(2), 2.0) == math.inf
        # the gradient norm of e^{-4t} at p = 700 on the e^t half-line is about
        # 4 * 2800^(-1/700), though 4^700 overflows; its report was divergent
        rep = halfline_verifier("exp", 1.0, 700.0, [("exp_decay_4", lambda t: np.exp(-4.0 * t))],
                                dt=0.01, t_max=10.0)[0]
    assert not rep.divergent and rep.lp_g == pytest.approx(4.0 * 2800.0 ** (-1 / 700), rel=0.02)
    assert rep.passed and rep.sharp_passed


def test_lp_norm_keeps_the_bits_of_a_sum_in_range():
    rng = np.random.default_rng(5)
    v, w = rng.normal(size=1000) * 1e50, rng.uniform(size=1000)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert lp_norm(v, w, p) == float(np.sum(np.abs(v) ** p * w)) ** (1.0 / p)


def test_the_mean_scales_values_whose_weighted_sum_overflows():
    # np.average overflowed in sum(v w): the mean was inf, with numpy's
    # "overflow encountered in reduce", or NaN for values of both signs
    values = np.array([1e306, 3e306, -2e306, 1e306])
    weights = np.array([200.0, 100.0, 50.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = optimal_subtracted_constant(values, weights, 2.0)
    want = math.fsum(values / 1e306 * weights) / weights.sum() * 1e306
    assert got == pytest.approx(want, rel=1e-15)
    small = values * 2.0 ** -60
    assert got == optimal_subtracted_constant(small, weights, 2.0) * 2.0 ** 60


def test_a_filling_graph_builds_its_node_listing_on_first_use():
    for G in (small_graph(), small_graph(SINH1, "sinh")):
        assert G.n_nodes == G.n_levels * G.carrier.n - (G.carrier.n - 1 if G.has_apex else 0)
        assert not {"node_t", "node_y", "node_measure"} & set(vars(G))
        assert G.node_t.size == G.node_y.size == G.node_measure.size == G.n_nodes
        assert G.node_t is G.node_t


def test_a_large_filling_graph_holds_no_node_listing():
    # the listing (node_t, node_y, node_measure) took 24 bytes per node and the
    # build peaked at 32; the graph holds levels, masses and carrier factors
    Y = _geometric_carrier(256, 1)
    Y.adjacency()
    build_filling_graph(Y, SINH1, "sinh", 1.0, 1.0, 0.5)
    tracemalloc.start()
    try:
        G = build_filling_graph(Y, SINH1, "sinh", 1.0, 10.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.n_nodes == 255_745
    assert peak < 4 * G.n_nodes, peak / G.n_nodes


def test_a_divergent_report_neither_passes_nor_fails():
    # level values of +-1e305 in turn: every quotient is 2e307, and their L^1
    # norm under e^t up to t = 10 is about 4e311, past double range
    def alternating(t):
        return np.where(np.rint(t / 0.01) % 2 == 0.0, 1e305, -1e305)

    rep = halfline_verifier("exp", 1.0, 1.0, [("alternating", alternating)],
                            dt=0.01, t_max=10.0)[0]
    assert rep.divergent and rep.lp_g == math.inf
    assert rep.ratio is None
    assert rep.passed is None and rep.sharp_passed is None


def test_spreport_constant_function():
    G = small_graph()
    rep = optimal_constant_and_ratio(G, np.full(G.n_nodes, 3.25), 2.0, paper_constant=1.0)
    assert rep.ratio == 0.0 and rep.c_star == 3.25 and rep.passed


def test_halfline_example_ratio_half():
    reports = halfline_verifier("exp", 1.0, 1.0,
                                [("exp_decay_2", lambda t: np.exp(-2.0 * t))],
                                dt=1e-3, t_max=40.0)
    rep = reports[0]
    assert rep.sharp_constant == pytest.approx(2.0)
    assert abs(rep.ratio - 0.5) <= 1e-3
    assert rep.passed and rep.sharp_passed


def test_halfline_family_all_pass():
    family = builtin_halfline_family()
    assert len(family) == 12
    for weight in ("exp", "sinh"):
        for beta in (1.0, 2.0):
            for p in (1.0, 2.0):
                reports = halfline_verifier(weight, beta, p, family, dt=0.02, t_max=35.0)
                for rep in reports:
                    assert rep.passed, (weight, beta, p, rep.name, rep.ratio,
                                        rep.paper_constant)


def test_constants_values():
    assert halfline_constant_general(1.0, 1.0) == pytest.approx(2.0)
    assert halfline_constant_general(1.0, 2.0) == pytest.approx(math.sqrt(6.0))
    assert halfline_constant_exp(1.0, 1.0) == pytest.approx(2.0)
    assert halfline_constant_exp(1.0, 2.0) == pytest.approx(math.sqrt(2.0))
    assert halfline_constant_exp(2.0, 1.0) == pytest.approx(1.0)


def _log_constants(c, p):
    """Both reference constants evaluated in log space."""
    general = p / c * math.exp(math.log1p(math.exp((p - 1.0) * math.log1p(-1.0 / p))) / p)
    sharp = math.exp((math.log(2.0 / c) + (p - 1.0) * math.log((p - 1.0) / c)) / p)
    return general, sharp


@pytest.mark.parametrize("c, p", [(1.0, 1.5), (2.0, 3.0), (0.5, 100.0), (1.0, 143.0),
                                  (1.0, 144.0), (0.5, 200.0), (2.0, 1e3), (1.0, 1e15),
                                  (1.0, 1e300), (1e6, 77.0), (1e-3, 60.0), (1.0, 1.0 + 1e-9),
                                  (0.5, 2.0), (3.0, 2.5)])
def test_constants_are_finite_for_every_finite_p(c, p):
    # the defining formulas overflow from about p = 144, and the sharp one
    # also where ((p-1)/beta)^{p-1} leaves the normal range ((1e6, 77) gives
    # a subnormal, (1e-3, 60) an overflow); the forms evaluated stay within
    # rounding of the log-space values, on both sides of the sharp
    # constant's switch at p = 2
    general, sharp = _log_constants(c, p)
    assert halfline_constant_general(c, p) == pytest.approx(general, rel=1e-13, abs=0.0)
    assert halfline_constant_exp(c, p) == pytest.approx(sharp, rel=1e-12, abs=0.0)


def test_grid_refinement_consistency():
    family = builtin_halfline_family()
    coarse = halfline_verifier("exp", 1.0, 2.0, family, dt=0.01, t_max=30.0)
    fine = halfline_verifier("exp", 1.0, 2.0, family, dt=0.005, t_max=30.0)
    for c, f in zip(coarse, fine):
        if f.ratio > 0:
            assert abs(c.ratio - f.ratio) / f.ratio <= 0.02, (c.name, c.ratio, f.ratio)


def test_fubini_separable():
    G = small_graph()
    u_r = np.exp(-G.levels)
    u_y = 1.0 + np.cos(np.pi * G.carrier.dist[:, 0] / G.carrier.diameter())
    u = G.sample(lambda t, y: np.exp(-t) * u_y[np.maximum(y, 0)])
    p = 2.0
    total = np.sum(np.abs(u.ravel()) ** p * G.node_measure)
    masses = G.node_measure.reshape(G.n_levels, G.carrier.n)[:, 0] / G.carrier.measure[0]
    radial = np.sum(np.abs(u_r) ** p * masses)
    fiber = np.sum(np.abs(u_y) ** p * G.carrier.measure)
    assert total == pytest.approx(radial * fiber, rel=1e-10)


@pytest.mark.parametrize("p, slack, name", [
    (math.inf, 0.05, "p"), (math.nan, 0.05, "p"), (0.9, 0.05, "p"),
    (1.5, math.nan, "slack"), (1.5, math.inf, "slack"), (1.5, -0.1, "slack"),
])
def test_verifiers_refuse_bad_p_and_slack(monkeypatch, p, slack, name):
    G = small_graph()
    calls = []
    monkeypatch.setattr(poincare, "build_filling_graph", lambda *a, **k: calls.append(a))
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        halfline_verifier("exp", 1.0, p, builtin_halfline_family(), 0.1, 5.0, slack)
    assert calls == []  # refused before the half-line graph is built
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        filling_verifier(G, p, builtin_filling_family(G), slack)
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        optimal_constant_and_ratio(G, np.ones(G.n_nodes), p, 1.0, slack)


def test_filling_verifier_radial_example():
    Y = circle(16, 2 * math.pi)
    G = build_filling_graph(Y, EXP1, "exp", 1.0, 30.0, 0.02)
    reports = filling_verifier(G, 1.0, [("radial_exp_decay", lambda t, y: np.exp(-2.0 * t))])
    rep = reports[0]
    assert rep.paper_constant == pytest.approx(2.0)
    assert rep.ratio <= 2.0 * 1.1 and rep.passed
    assert rep.ratio == pytest.approx(0.5, abs=0.02)  # fiber-independent: half-line value


def test_filling_verifier_oscillatory_passes():
    Y = circle(32, 2 * math.pi)
    G = build_filling_graph(Y, EXP1, "exp", 2.0, 20.0, 0.05)
    harmonic = np.cos(np.pi * Y.dist[:, 0] / Y.diameter())
    fam = [("oscillatory", lambda t, y: np.exp(-t) * harmonic[np.maximum(y, 0)])]
    rep = filling_verifier(G, 1.0, fam)[0]
    assert rep.passed, rep.to_dict()
    # cross-check at a finer grid: ratio stable within 2%
    G2 = build_filling_graph(Y, EXP1, "exp", 2.0, 20.0, 0.025)
    rep2 = filling_verifier(G2, 1.0, fam)[0]
    assert abs(rep.ratio - rep2.ratio) / rep2.ratio <= 0.02


@pytest.mark.parametrize("form", ["named_callable", "named_array", "bare_callable",
                                  "bare_array", "constant_callable", "grid_array",
                                  "level_array", "bad_shape"])
@pytest.mark.parametrize("where", ["halfline", "filling"])
def test_one_family_contract(where, form):
    # both verifiers read every member form the same way, and an array as one
    # value per node, as (L, 1) or as (L, n), refusing any other shape
    if where == "halfline":
        G = halfline_graph("exp", 1.0, 20.0, 0.05)
        fn, const = (lambda t: np.exp(-2.0 * t)), (lambda t: 2.5)
        vals = np.exp(-2.0 * G.node_t)
        verify = lambda family: halfline_verifier("exp", 1.0, 1.5, family, dt=0.05, t_max=20.0)
    else:
        G = build_filling_graph(circle(8, 2 * math.pi), EXP1, "exp", 2.0, 10.0, 0.1)
        fn, const = (lambda t, y: np.exp(-2.0 * t) * np.cos(y)), (lambda t, y: 2.5)
        vals = np.exp(-2.0 * G.node_t) * np.cos(G.node_y)
        verify = lambda family: filling_verifier(G, 1.5, family)
    L, n = G.n_levels, G.carrier.n
    member = {"named_callable": ("f", fn), "named_array": ("f", vals),
              "bare_callable": fn, "bare_array": vals, "constant_callable": ("f", const),
              "grid_array": ("f", vals.reshape(L, n)),
              "level_array": ("f", np.exp(-2.0 * G.levels)[:, None]),
              "bad_shape": ("f", vals[None, :])}[form]
    if form == "bad_shape":
        with pytest.raises(DomainError, match=rf"has shape \({G.n_nodes},\), \({L}, 1\) or "
                                              rf"\({L}, {n}\), got \(1, {G.n_nodes}\)$"):
            verify([member])
        return
    rep = verify([member])[0]
    assert rep.name == ("u" if form.startswith("bare") else "f")
    if form == "constant_callable":
        assert rep.ratio == 0.0 and rep.c_star == 2.5 and rep.passed
    elif form == "level_array":
        # weighted by the total carrier measure, within rounding of its nodes
        ref = optimal_constant_and_ratio(G, np.exp(-2.0 * G.node_t), 1.5)
        assert rep.ratio == pytest.approx(ref.ratio, rel=1e-13, abs=0.0)
        assert rep.c_star == pytest.approx(ref.c_star, rel=1e-13, abs=0.0)
    else:
        ref = optimal_constant_and_ratio(G, vals, 1.5)
        assert rep.ratio == ref.ratio > 0.0 and rep.c_star == ref.c_star


def test_builtin_filling_family_passes_below_threshold():
    Y = circle(16, 2 * math.pi)
    G = build_filling_graph(Y, EXP1, "exp", 2.0, 25.0, 0.05)
    for rep in filling_verifier(G, 2.0, builtin_filling_family(G)):
        assert rep.passed, rep.to_dict()
    Gs = build_filling_graph(Y, SINH1, "sinh", 2.0, 25.0, 0.05)
    for rep in filling_verifier(Gs, 2.0, builtin_filling_family(Gs)):
        assert rep.passed, rep.to_dict()


def test_the_harmonic_fiber_factor_is_the_same_on_a_scaled_ring():
    # the phase pi d0 / diam is scale-free, down to a ring of 1e-14 edges
    factors = []
    for scale in (1.0, 1e-14):
        Y = from_graph([(i, (i + 1) % 6, scale) for i in range(6)])
        G = build_filling_graph(Y, EXP1, "exp", 1.0, 2.0, 1.0)
        harmonic = dict(builtin_filling_family(G))["oscillatory_harmonic"]
        factors.append(harmonic(np.zeros((1, 1)), np.arange(6)[None, :]))  # e^{-3t} = 1
    assert factors[0][0].tolist() == pytest.approx([1.0, 0.5, -0.5, -1.0, -0.5, 0.5], abs=1e-15)
    assert factors[1] == pytest.approx(factors[0], rel=0.0, abs=1e-15)


def test_counterexample_thresholds():
    Y = circle(64, 2 * math.pi)
    # alpha=1, beta=2: no failure expected at p=2, failure at p=3
    rep = counterexample_suite(Y, 0, 1.0, 1.0, 2.0, 2.0, (6.0, 9.0, 12.0), dt=0.05)
    assert rep.verdict == "no failure expected"
    assert not rep.tail_converges  # exponent beta - p*alpha = 0 diverges
    rep = counterexample_suite(Y, 0, 1.0, 1.0, 2.0, 3.0, (6.0, 9.0, 12.0), dt=0.05)
    assert rep.verdict == "failure demonstrated"
    assert rep.tail_converges
    assert all(b > a for a, b in zip(rep.u_deviations, rep.u_deviations[1:]))


def test_counterexample_tail_quadrature_match():
    Y = circle(64, 2 * math.pi)
    rep = counterexample_suite(Y, 0, 1.0, 1.0, 1.0, 2.0, (8.0, 12.0), dt=0.005)
    assert rep.tail_rel_err <= 0.01
    assert rep.tail_integral_infinite == pytest.approx(-math.log(math.tanh(0.5)), rel=1e-6)


def test_counterexample_below_threshold_divergence():
    # p = beta/(2*alpha): the tail exponent beta - p*alpha = beta/2 > 0, so
    # the gradient norm diverges along the schedule and no failure is claimed
    Y = circle(64, 2 * math.pi)
    rep = counterexample_suite(Y, 0, 1.0, 1.0, 2.0, 1.0, (6.0, 9.0, 12.0), dt=0.05)
    assert rep.verdict == "no failure expected"
    assert not rep.tail_converges
    assert not rep.g_stabilized
    assert rep.g_norms[-1] > 2.0 * rep.g_norms[0]


def test_counterexample_preconditions():
    Y = circle(8, 2 * math.pi)
    with pytest.raises(PreconditionError):
        counterexample_suite(Y, 0, 10.0, 1.0, 1.0, 2.0, (4.0, 6.0))  # ball covers Y
    two = from_matrix([[0.0, 0.1], [0.1, 0.0]], [1.0, 1.0])
    with pytest.raises(PreconditionError):
        counterexample_suite(two, 0, 0.5, 1.0, 1.0, 2.0, (4.0, 6.0))  # no half-ball mass? r/2 too big


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
def test_counterexample_refuses_bad_p_before_any_graph(monkeypatch, p):
    calls = []
    monkeypatch.setattr(poincare, "_level_grid", lambda *a, **k: calls.append(a))
    with pytest.raises(DomainError, match="^p must be finite and >= 1"):
        counterexample_suite(circle(8, 2 * math.pi), 0, 1.0, 1.0, 1.0, p, (4.0, 6.0), dt=0.5)
    assert calls == []


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
def test_lp_norm_refuses_bad_p(p):
    # the solver too: at p = 0.5 it ran, and numpy warned of a zero to a negative power
    for f in (lp_norm, optimal_subtracted_constant):
        with pytest.raises(DomainError, match="^p must be finite and >= 1"):
            f(np.array([0.0, 1.0, 2.0]), np.ones(3), p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("values, weights, match", [
    (np.ones(3), -np.ones(3), "^weights must be finite and >= 0$"),
    (np.arange(3.0), np.array([1.0, -5.0, 1.0]), "^weights must be finite and >= 0$"),
    (np.arange(3.0), np.array([1.0, math.nan, 1.0]), "^weights must be finite and >= 0$"),
    (np.arange(3.0), np.array([1.0, math.inf, 1.0]), "^weights must be finite and >= 0$"),
    (np.arange(3.0), np.ones(2), r"^weights must have the values' shape \(3,\), got \(2,\)$"),
    (np.arange(3.0), np.ones((3, 1)), r"^weights must have the values' shape"),
    (np.array([]), np.array([]), "^values must be nonempty$"),
], ids=["negative", "one-negative", "nan", "inf", "short", "column", "empty"])
def test_lp_norm_and_the_solver_refuse_weights_they_cannot_use(p, values, weights, match):
    # lp_norm returned a complex number for negative weights and nan for a
    # nan one; the solver returned 0.0, nan, or raised IndexError or ValueError
    for f in (lp_norm, optimal_subtracted_constant):
        with pytest.raises(DomainError, match=match):
            f(values, weights, p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_the_solver_refuses_weights_that_are_all_zero(p):
    # every c minimizes: the solver gave 0.5 at p = 1, 0.0 at p = 1.5 and 3,
    # and raised ZeroDivisionError at p = 2; the norm of anything is 0
    values, weights = np.arange(3.0), np.zeros(3)
    with pytest.raises(DomainError, match="^weights must not all be 0$"):
        optimal_subtracted_constant(values, weights, p)
    with pytest.raises(DomainError, match="^weights must not all be 0$"):
        optimal_subtracted_constant(np.ones(3), weights, p)
    assert lp_norm(values, weights, p) == 0.0


def _geometric_carrier(n, seed):
    """Shortest-path carrier of a random geometric graph on the unit square,
    as in the benchmark: edges shorter than sqrt(8/(pi n)) and a minimum
    spanning tree, about 7 edges per node."""
    from scipy.sparse.csgraph import minimum_spanning_tree
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))
    d = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    tree = minimum_spanning_tree(d).toarray() > 0.0
    i, j = np.nonzero(np.triu((d < math.sqrt(8.0 / (math.pi * n))) | tree | tree.T, 1))
    return from_graph(zip(i.tolist(), j.tolist(), d[i, j].tolist()), n=n)


def test_a_report_on_a_large_filling_graph_keeps_its_edges_factored():
    # 256,000 nodes and about 3.6 horizontal edges per node: the flat edge
    # listing alone is 24 bytes per edge, and the report took 166 bytes per
    # node when it kept it (with the gradient's edge-sized temporaries). The
    # horizontal edges are the carrier's edges times the level scales, and the
    # gradient runs over them a chunk of levels at a time: 56 bytes per node,
    # the (L, n) arrays of the function, its gradient and weights, the
    # solver's sorted copy and the norms' temporaries
    Y = _geometric_carrier(256, 1)
    Y.adjacency()
    G = build_filling_graph(Y, EXP1, "exp", 2.0, 10.0, 0.01)
    assert G.n_nodes == 256_000
    u = G.sample(dict(builtin_filling_family(G))["oscillatory_harmonic"])
    S = small_graph()  # a first report imports the solver's scipy modules
    optimal_constant_and_ratio(S, S.sample(lambda t, y: t * y), 1.5)
    tracemalloc.start()
    try:
        rep = optimal_constant_and_ratio(G, u, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < rep.ratio < math.inf
    assert peak < 100 * G.n_nodes, peak / G.n_nodes


def test_filling_graph_refuses_a_level_where_psi_overflows():
    # e^{2t} overflows from t = 355, so level 36 (t = 360) has no finite length
    for profile in (WarpProfile.exp(2.0), WarpProfile.sinh_pow(2.0)):
        G = build_filling_graph(circle(16, 2 * math.pi), profile, "exp", 0.1, 400.0, 10.0)
        with pytest.raises(DomainError, match=r"psi overflows at level 36 \(t = 360\)"):
            G.edges


def test_filling_graph_refuses_a_level_where_a_length_overflows():
    # psi is finite at every level, but e^4 times the adjacent distance
    # 5.2e306 is not; a radial member, which has no horizontal quotient,
    # is refused too
    Y = circle(12, 2 * math.pi)
    G = build_filling_graph(CarrierSpace(Y.dist * 1e307, Y.measure), EXP1, "exp", 1.0, 10.0, 0.5)
    radial = G.sample(lambda t, y: np.exp(-t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: G.edges, lambda: optimal_constant_and_ratio(G, radial, 1.5)):
            with pytest.raises(DomainError, match=r"^horizontal edge lengths psi\(t\) \* d_Y "
                                                  r"overflow at level 8 \(t = 4\)$"):
                call()


def test_filling_graph_refuses_lengths_that_round_to_0():
    # adjacent points 5e-324 apart: psi(0.2) = sinh(0.2) times that rounds to
    # 0 on the first level past the apex; e^t >= 1 keeps it
    Y = circle(6, 6.0)
    tiny = CarrierSpace(Y.dist * 5e-324, Y.measure)
    assert tiny.adjacency()[2].tolist() == [5e-324] * 6
    G = build_filling_graph(tiny, SINH1, "sinh", 1.0, 1.0, 0.2)
    u = G.sample(lambda t, y: t * (y + 1.0))
    for call in (lambda: G.edges, lambda: discrete_upper_gradient(G, u)):
        with pytest.raises(ValidationError, match="^graph has a nonpositive edge length$"):
            call()
    assert build_filling_graph(tiny, EXP1, "exp", 1.0, 1.0, 0.2).edges[2].min() == 5e-324


def test_a_level_whose_total_weight_overflows_is_read_at_full_width():
    # at t = 708 the cell mass is 5.2e307 and each node measure 2.7e307, but
    # the level total, 2 pi times the mass, overflows: a member that ignores
    # y is read as (L, n), weighted by the finite node measures
    G = build_filling_graph(circle(12, 2 * math.pi), EXP1, "exp", 1.0, 709.0, 1.0)
    family = dict(builtin_filling_family(G))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = filling_verifier(G, 1.0, [("constant_one", family["constant_one"])])[0]
        ramp = G.sample(family["radial_ramp"])
        g = discrete_upper_gradient(G, ramp)
        lp_g = lp_norm(g, G.weights(ramp.shape[1]), 1.0)
    assert one.ratio == 0.0 and one.passed
    assert ramp.shape == g.shape == (G.n_levels, 12)
    assert lp_g == pytest.approx(_fsum_objective(g.ravel(), G.node_measure, 1.0),
                                 rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_the_median_and_mean_of_weights_whose_total_overflows_are_finite(p):
    # the same graph: every node weight is finite, their total is not; every
    # p takes the one rescale at the solver's entry
    G = build_filling_graph(circle(12, 2 * math.pi), EXP1, "exp", 1.0, 709.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = {r.name: r for r in filling_verifier(G, p, builtin_filling_family(G))}
    assert all(r.ratio is not None and r.passed and not r.divergent for r in reports.values())
    assert reports["radial_ramp"].c_star == 1.0
    values, weights = np.array([0.3, -0.1, 0.2, 0.5]), np.array([1e308, 1.7e308, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = optimal_subtracted_constant(values, weights, p)
    assert c == optimal_subtracted_constant(values, weights / 8.0, p)
    if p in (1.0, 2.0):
        assert c == (0.2 if p == 1.0 else np.average(values, weights=weights / 8.0))
        # a finite total keeps its bits
        finite = np.array([1e307, 3e306, 1e-300, 7.0])
        assert optimal_subtracted_constant(values, finite, p) == (
            0.3 if p == 1.0 else np.average(values, weights=finite))
    else:
        scaled = weights / 8.0
        for nb in (np.nextafter(c, -np.inf), np.nextafter(c, np.inf)):
            assert _lp_objective(values, scaled, c, p) <= _lp_objective(values, scaled, nb, p)


def _oracle_edges(G):
    """The per-level edge loop, kept as a reference: radial edges level by
    level, then horizontal edges level by level."""
    n, L = G.carrier.n, G.n_levels

    def first_id(level):  # id of carrier node 0 at the level
        return (0 if level == 0 else 1 + (level - 1) * n) if G.has_apex else level * n

    a_parts, b_parts, len_parts = [], [], []
    cols = np.arange(n)
    for i in range(L - 1):
        lo = (np.zeros(n, dtype=np.int64) if G.has_apex and i == 0
              else first_id(i) + cols)
        a_parts.append(np.asarray(lo, dtype=np.int64))
        b_parts.append(np.asarray(first_id(i + 1) + cols, dtype=np.int64))
        len_parts.append(np.full(n, G.dt))
    if n > 1:
        rows, colsj, dd = G.carrier.adjacency()
        for i in range(1 if G.has_apex else 0, L):
            base = first_id(i)
            a_parts.append(base + rows)
            b_parts.append(base + colsj)
            len_parts.append(float(G.profile.psi(G.levels[i])) * dd)
    return (np.concatenate(a_parts) if a_parts else np.empty(0, dtype=np.int64),
            np.concatenate(b_parts) if b_parts else np.empty(0, dtype=np.int64),
            np.concatenate(len_parts) if len_parts else np.empty(0))


def _oracle_nodes(G):
    """Node arrays built per case, kept as a reference for the sliced grid."""
    n, L = G.carrier.n, G.n_levels
    with np.errstate(over="ignore", invalid="ignore"):
        masses = poincare._cell_masses(G.weight_kind, G.beta, G.levels, G.dt)
    if not G.has_apex:
        return (np.repeat(G.levels, n), np.tile(np.arange(n), L),
                np.repeat(masses, n) * np.tile(G.carrier.measure, L))
    return (np.concatenate([[0.0], np.repeat(G.levels[1:], n)]),
            np.concatenate([[-1], np.tile(np.arange(n), L - 1)]),
            np.concatenate([[masses[0] * G.carrier.measure.sum()],
                            np.repeat(masses[1:], n) * np.tile(G.carrier.measure, L - 1)]))


def _edge_cases():
    ring = from_graph([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 1.5), (4, 5, 1.0),
                       (5, 0, 0.5), (0, 3, 2.5)], n=6)
    return {
        "circle_apex": lambda: build_filling_graph(circle(8, 2 * math.pi), SINH1, "sinh",
                                                   1.5, 3.0, 0.1),
        "circle_no_apex": lambda: small_graph(),
        "circle_one_level": lambda: small_graph(t_max=0.5),
        "apex_one_level": lambda: build_filling_graph(circle(5, 5.0), SINH1, "sinh",
                                                      1.0, 0.1, 0.1),
        "graph_apex": lambda: build_filling_graph(ring, WarpProfile.sinh_pow(1.5), "sinh",
                                                  2.0, 4.0, 0.2),
        "graph_no_apex": lambda: build_filling_graph(ring, EXP1, "exp", 2.0, 4.0, 0.2),
        "halfline": lambda: halfline_graph("exp", 1.0, 40.0, 0.002),
        "halfline_one_level": lambda: halfline_graph("sinh", 1.0, 0.5, 0.5),
    }


@pytest.mark.parametrize("name", list(_edge_cases()))
def test_filling_graph_matches_loop_oracle(name):
    G = _edge_cases()[name]()
    got = G.edges + (G.node_t, G.node_y, G.node_measure)
    want = _oracle_edges(G) + _oracle_nodes(G)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_vanishing_psi_names_the_level():
    # psi = 0 on [0, 0.6]: the apex absorbs level 0, level 1 (t = 0.2) has
    # zero-length horizontal edges
    flat = WarpProfile.custom(lambda t: np.maximum(np.asarray(t, float) - 0.6, 0.0),
                              lambda t: (np.asarray(t, float) > 0.6).astype(float), 1.0)
    G = build_filling_graph(circle(6, 6.0), flat, "exp", 1.0, 2.0, 0.2)
    assert G.has_apex
    with pytest.raises(ValidationError, match="horizontal edges at level 1 would have length 0"):
        G.edges


def test_counterexample_builds_no_graph(monkeypatch):
    # the suite lays one level grid at the longest truncation and builds no
    # filling graph
    graphs, grids = [], []
    grid = poincare._level_grid

    def counting(*args):
        grids.append(args)
        return grid(*args)

    monkeypatch.setattr(poincare, "build_filling_graph", lambda *a, **k: graphs.append(a))
    monkeypatch.setattr(poincare, "FillingGraph", lambda *a, **k: graphs.append(a))
    monkeypatch.setattr(poincare, "_level_grid", counting)
    Y = circle(16, 2 * math.pi)
    rep = counterexample_suite(Y, 0, 1.0, 1.0, 2.0, 1.5, (1.0, 3.0, 6.03), dt=0.02)
    assert graphs == [] and rep.schedule == [1.0, 3.0, 6.03]
    assert len(grids) == 1 and grids[0][1:] == (True, "sinh", 2.0, 6.03, 0.02)


_BIG_MEASURE = CarrierSpace(circle(8, 2 * math.pi).dist, np.full(8, 1e300))


@pytest.mark.parametrize("carrier, beta, schedule, dt, cap, error, match", [
    (None, 1.0, (4.0, math.inf), 0.5, None, DomainError, "t_max must be finite, got inf"),
    (None, 1.0, (4.0, 6.0), 0.0, None, DomainError, "need dt > 0 and t_max >= dt"),
    (None, 0.0, (4.0, 6.0), 0.5, None, DomainError, "need beta > 0"),
    (None, 1.0, (4.0, 20.0), 0.5, "100", ResourceCapError,
     "filling graph would have 313 nodes, above the cap 100"),
    (None, 1.0, (0.5, 1e300), 1e-300, None, ResourceCapError,
     "level count t_max/dt = 1e+300/1e-300 overflows"),
    (None, 200.0, (4.0, 10.0), 0.5, None, DomainError,
     "sinh weight with beta=200.0 overflows double precision before t_max=10.0"),
    (_BIG_MEASURE, 10.0, (4.0, 6.0), 0.5, None, DomainError,
     "sinh weight with beta=10.0 overflows double precision before t_max=6.0: "
     "node measures must be finite"),
    (None, 1.0, (1e299, 1e300), 1e299, None, DomainError,
     "sinh weight with beta=1.0 overflows double precision before t_max=1e+300"),
    (None, 1e300, (4.0, 6.0), 0.5, None, DomainError,
     "sinh weight with beta=1e+300 overflows double precision before t_max=6.0"),
])
def test_graph_and_counterexample_refuse_the_same_grids(monkeypatch, carrier, beta, schedule,
                                                         dt, cap, error, match):
    # both callers lay their levels with _level_grid, so a bad grid is refused
    # with one exception and message, and without a warning
    if cap is not None:
        monkeypatch.setenv("WARPFILL_MAX_NODES", cap)
    Y = circle(8, 2 * math.pi) if carrier is None else carrier
    messages = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: build_filling_graph(Y, SINH1, "sinh", beta, schedule[-1], dt),
                     lambda: counterexample_suite(Y, 0, 1.0, 1.0, beta, 2.0, schedule, dt)):
            with pytest.raises(error) as info:
                call()
            messages.append(str(info.value))
    assert messages[0] == messages[1] and match in messages[0]


def _oracle_counterexample_norms(Y, y0, r, alpha, beta, p, T, dt):
    """(||g||_p, inf_c ||u - c||_p, discrete tail) on a graph built at T alone,
    with the separable gradient of counterexample_suite, kept as a reference."""
    G = build_filling_graph(Y, WarpProfile.sinh_pow(alpha), "sinh", beta, T, dt)
    t, w, yy = G.node_t, G.node_measure, np.maximum(G.node_y, 0)
    d0 = Y.dist[:, y0]
    lip_y = ((d0 >= 0.5 * r) & (d0 <= r)).astype(float)
    u_r = np.clip(t - 1.0, 0.0, 1.0)
    uy = np.where(G.node_y >= 0, np.clip(r - d0, 0.0, 0.5 * r)[yy], 0.0)
    ly = np.where(G.node_y >= 0, lip_y[yy], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        second = np.where(t > 0.0, u_r / np.where(t > 0.0, np.sinh(t) ** alpha, 1.0) * ly, 0.0)
    g = uy * ((t >= 1.0) & (t <= 2.0)) + second
    u = u_r * uy
    c = optimal_subtracted_constant(u, w, p)
    tail = t >= 1.0
    return (lp_norm(g, w, p), lp_norm(u - c, w, p),
            float(np.sum(second[tail] ** p * w[tail])) / float(Y.measure[lip_y > 0.0].sum()))


def _tail_quad(alpha, beta, p, T):
    """One quad over [1, T] of clip(t-1, 0, 1)^p * sinh(t)^(beta - p*alpha)."""
    return quad(lambda x: min(max(x - 1.0, 0.0), 1.0) ** p * math.sinh(x) ** (beta - p * alpha),
                1.0, T, limit=200)[0]


@pytest.mark.parametrize("beta, dt", [(0.5, 0.05), (1.0, 0.02), (2.0, 0.01)])
def test_counterexample_prefix_matches_own_graph(beta, dt):
    # each truncation, read as a level prefix of the longest graph and summed
    # over levels and carrier, gives what the node sums on a graph built at
    # that truncation alone give, within rel 1e-12; the tail quadrature,
    # summed over the schedule's intervals, is one quad over [1, T] within
    # rel 1e-6
    schedule = (1.0, 3.0, 6.03)
    # a 40-cycle of unequal edges with one chord, probed around node 7
    graph = from_graph([(i, (i + 1) % 40, 0.2 + 0.1 * (i % 3)) for i in range(40)]
                       + [(0, 20, 2.0)])
    for Y, y0, r, alpha in ((circle(16, 2 * math.pi), 0, 1.0, 1.0), (graph, 7, 1.3, 0.7)):
        for p in (1.0, 1.5, 2.0, 3.0):
            rep = counterexample_suite(Y, y0, r, alpha, beta, p, schedule, dt=dt)
            got = list(zip(rep.g_norms, rep.u_deviations, rep.tail_discrete))
            for T, row in zip(schedule, got):
                want = _oracle_counterexample_norms(Y, y0, r, alpha, beta, p, T, dt)
                assert row == pytest.approx(want, rel=1e-12, abs=0.0), (Y.n, p, T)
            assert rep.tail_quadrature == pytest.approx(
                [_tail_quad(alpha, beta, p, T) for T in schedule], rel=1e-6, abs=0.0)
            assert rep.schedule == list(schedule)


def test_counterexample_empty_annulus():
    # no carrier point lies in the annulus r/2 <= d(y, y0) <= r, so Lip(u_Y)
    # vanishes; the discrete tail is still the level sum, as on the circle
    gap = from_graph([(0, 1, 0.1), (1, 2, 5.0)])
    rep = counterexample_suite(gap, 0, 1.0, 1.0, 1.0, 2.0, (4.0, 6.0), dt=0.5)
    ref = counterexample_suite(circle(8, 2 * math.pi), 0, 1.0, 1.0, 1.0, 2.0, (4.0, 6.0), dt=0.5)
    assert rep.annulus_measure == 0.0
    assert rep.tail_discrete == ref.tail_discrete and rep.tail_discrete[0] > 0.0


@pytest.mark.parametrize("schedule, dt, match", [
    ((0.01, 10.0), 0.02, "t_max >= dt"),
    ((1.0, 0.5), 0.02, "strictly increasing"),
    ((10.0, math.inf), 0.02, "finite"),
    ((1.0, math.nan, 3.0), 0.02, "t_max >= dt"),
])
def test_counterexample_bad_schedule(schedule, dt, match):
    with pytest.raises(DomainError, match=match):
        counterexample_suite(circle(8, 2 * math.pi), 0, 1.0, 1.0, 1.0, 2.0, schedule, dt=dt)
