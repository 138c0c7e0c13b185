import math

import numpy as np
import pytest
from scipy.integrate import quad

from warpfill import (WarpProfile, build_filling_graph, builtin_filling_family,
                      builtin_halfline_family, circle, counterexample_suite,
                      discrete_upper_gradient, filling_verifier, from_matrix,
                      halfline_constant_exp, halfline_constant_general,
                      halfline_graph, halfline_verifier, lp_norm, optimal_constant_and_ratio,
                      optimal_subtracted_constant, slice_gradient_check)
from warpfill import poincare
from warpfill.errors import ConvergenceError, PreconditionError, ResourceCapError

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


def test_upper_gradient_examples():
    G = small_graph()
    u = np.ones(G.n_nodes)
    g = discrete_upper_gradient(G, u)
    assert np.all(g.node == 0.0)
    # radial linear function has unit gradient on radial edges
    g = discrete_upper_gradient(G, G.node_t.astype(float))
    a, b, w = G.edges
    radial = G.node_y[a] == G.node_y[b]
    assert np.allclose(g.edge[radial], 1.0)
    assert np.allclose(g.edge[~radial], 0.0)
    # horizontal edge with increment psi(t) * d_Y has unit quotient
    lvl = 2
    t = G.levels[lvl]
    u = np.zeros(G.n_nodes)
    j, k = 0, 1
    d_y = float(G.carrier.dist[j, k])
    u[G.node_index(lvl, k)] = float(EXP1.psi(t)) * d_y
    g = discrete_upper_gradient(G, u)
    edge_mask = ((a == G.node_index(lvl, j)) & (b == G.node_index(lvl, k))) | \
                ((b == G.node_index(lvl, j)) & (a == G.node_index(lvl, k)))
    assert np.allclose(g.edge[edge_mask], 1.0)


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
    total = np.sum(np.abs(u) ** p * G.node_measure)
    masses = G.node_measure.reshape(G.n_levels, G.carrier.n)[:, 0] / G.carrier.measure[0]
    radial = np.sum(np.abs(u_r) ** p * masses)
    fiber = np.sum(np.abs(u_y) ** p * G.carrier.measure)
    assert total == pytest.approx(radial * fiber, rel=1e-10)


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
                                  "bare_array", "constant_callable"])
@pytest.mark.parametrize("where", ["halfline", "filling"])
def test_one_family_contract(where, form):
    # both verifiers read every member form the same way
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
    member = {"named_callable": ("f", fn), "named_array": ("f", vals),
              "bare_callable": fn, "bare_array": vals, "constant_callable": ("f", const)}[form]
    rep = verify([member])[0]
    assert rep.name == ("u" if form.startswith("bare") else "f")
    if form == "constant_callable":
        assert rep.ratio == 0.0 and rep.c_star == 2.5 and rep.passed
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


def test_slice_gradient_check_zero_and_negative():
    G = small_graph()
    rng = np.random.default_rng(8)
    u = rng.normal(size=G.n_nodes)
    rep = slice_gradient_check(G, u)
    assert rep.max_violation == 0.0
    g = discrete_upper_gradient(G, u).node
    g[3] *= 0.9  # inject a 10% deficit
    rep = slice_gradient_check(G, u, g_node=g)
    assert rep.max_violation > 0.0
    assert rep.worst_edge is not None
    with pytest.raises(PreconditionError):
        slice_gradient_check(build_filling_graph(circle(6, 1.0), SINH1, "sinh",
                                                 1.0, 1.0, 0.25), np.zeros(19))


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
