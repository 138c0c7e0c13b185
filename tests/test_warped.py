import math

import numpy as np
import pytest

from scipy.sparse.csgraph import dijkstra

from warpfill import (WarpProfile, WarpedPoint, build_filling_graph, circle, distance,
                      distance_batch, from_matrix, gromov_product, gromov_product_batch)
from warpfill.profiles import minimize_F_batch
from warpfill.errors import DomainError

EXP1 = WarpProfile.exp(1.0)
SINH1 = WarpProfile.sinh_pow(1.0)
Y8 = circle(8, 2 * math.pi)


def test_same_fiber_is_radial_gap():
    for prof in (EXP1, SINH1):
        assert distance(prof, Y8, WarpedPoint(2.0, 3), WarpedPoint(5.5, 3)) == pytest.approx(3.5)


def test_bottom_level_distance():
    d_y = Y8.dist[0, 3]
    assert distance(EXP1, Y8, WarpedPoint(0, 0), WarpedPoint(0, 3)) == pytest.approx(d_y)
    # apex collapse: psi(0) = 0 identifies the whole bottom level
    assert distance(SINH1, Y8, WarpedPoint(0, 0), WarpedPoint(0, 3)) == 0.0


def test_deep_pair_closed_form():
    d = distance(EXP1, Y8, WarpedPoint(5, 0), WarpedPoint(5, 0))
    assert d == 0.0
    Y = circle(8, 8 * 2 * math.exp(-5.0))  # adjacent fiber distance 2e^{-5}
    d = distance(EXP1, Y, WarpedPoint(5, 0), WarpedPoint(5, 1))
    assert d == pytest.approx(2.0, abs=1e-10)


def test_metric_axioms_random_batches():
    rng = np.random.default_rng(0)
    for prof in (EXP1, SINH1, WarpProfile.sinh_pow(2.0)):
        t = rng.uniform(0, 6, size=(3, 120))
        y = rng.integers(0, Y8.n, size=(3, 120))
        d01 = distance_batch(prof, Y8, t[0], y[0], t[1], y[1])
        d10 = distance_batch(prof, Y8, t[1], y[1], t[0], y[0])
        assert np.array_equal(d01, d10)  # symmetry is exact
        d02 = distance_batch(prof, Y8, t[0], y[0], t[2], y[2])
        d12 = distance_batch(prof, Y8, t[1], y[1], t[2], y[2])
        assert np.all(d01 <= d02 + d12 + 1e-10)
        assert np.all(d01 >= np.abs(t[0] - t[1]) - 1e-12)  # radial lower bound
        upper = t[0] + t[1] + prof.psi0 * Y8.dist[y[0], y[1]]
        assert np.all(d01 <= upper + 1e-12)


def test_zero_iff_equal_under_apex():
    # positive distance for distinct points when psi(0) > 0
    assert distance(EXP1, Y8, WarpedPoint(0.0, 0), WarpedPoint(0.0, 1)) > 0
    # with apex collapse, bottom-level points coincide
    assert distance(SINH1, Y8, WarpedPoint(0.0, 0), WarpedPoint(0.0, 7)) == 0.0
    assert distance(SINH1, Y8, WarpedPoint(0.0, 0), WarpedPoint(0.1, 0)) > 0


def test_gromov_product_examples():
    # coincident points: t + psi(0) * d_Y(y, y0)
    p = WarpedPoint(2.5, 3)
    val = gromov_product(EXP1, Y8, 0, p, p)
    assert val == pytest.approx(2.5 + Y8.dist[3, 0], abs=1e-12)
    # apex profile, same fiber: half of max 2*rho over [0, min t]
    assert gromov_product(SINH1, Y8, 0, WarpedPoint(3, 2), WarpedPoint(7, 2)) == pytest.approx(3.0)


def test_gromov_product_consistency_with_distances():
    rng = np.random.default_rng(1)
    y0 = 2
    base = WarpedPoint(0.0, y0)
    for prof in (EXP1, SINH1):
        for _ in range(150):
            p1 = WarpedPoint(float(rng.uniform(0, 8)), int(rng.integers(Y8.n)))
            p2 = WarpedPoint(float(rng.uniform(0, 8)), int(rng.integers(Y8.n)))
            direct = 0.5 * (distance(prof, Y8, p1, base) + distance(prof, Y8, p2, base)
                            - distance(prof, Y8, p1, p2))
            assert gromov_product(prof, Y8, y0, p1, p2) == pytest.approx(direct, abs=1e-10)


def test_sinh_gromov_products_past_double_range_of_the_basepoint_sums():
    # d0[y1] + d0[y2] overflows, and psi(0) = 0 drops it: no 0 * inf = NaN
    Y = from_matrix([[0.0, 1e308, 5e307], [1e308, 0.0, 6e307], [5e307, 6e307, 0.0]])
    t1, y1 = np.array([0.0, 2.0, 3.0]), np.array([1, 1, 0])
    t2, y2 = np.array([0.0, 0.5, 7.0]), np.array([1, 2, 1])
    vals = gromov_product_batch(SINH1, Y, 0, t1, y1, t2, y2)
    _, fmin = minimize_F_batch(SINH1, Y.dist[y1, y2], np.minimum(t1, t2))
    assert np.array_equal(vals, -0.5 * fmin)
    # a zero fmin gives +0.0, as 0 * (finite sum) - fmin did
    assert math.copysign(1.0, vals[0]) == 1.0 and vals[0] == 0.0
    # where the sum is finite the bits are those of the full expression
    t = np.linspace(0.0, 6.0, 16)
    y = np.arange(16) % 8
    d0 = Y8.dist[:, 3]
    _, fmin = minimize_F_batch(SINH1, Y8.dist[y, y[::-1]], np.minimum(t, t[::-1]))
    assert np.array_equal(gromov_product_batch(SINH1, Y8, 3, t, y, t[::-1], y[::-1]),
                          0.5 * (0.0 * (d0[y] + d0[y[::-1]]) - fmin))


def test_gromov_batch_matches_scalar():
    t1 = np.array([1.0, 4.0, 0.0])
    y1 = np.array([0, 2, 5])
    t2 = np.array([2.0, 4.0, 7.0])
    y2 = np.array([1, 6, 5])
    vals = gromov_product_batch(SINH1, Y8, 0, t1, y1, t2, y2)
    for k in range(3):
        expect = gromov_product(SINH1, Y8, 0, WarpedPoint(float(t1[k]), int(y1[k])),
                                WarpedPoint(float(t2[k]), int(y2[k])))
        assert vals[k] == pytest.approx(expect, abs=1e-12)



def test_batch_points_validated_like_scalar():
    t, y = np.array([1.0, 2.0]), np.array([0, 3])
    bad_inputs = [
        (np.array([1.0, np.nan]), y),    # NaN radial coordinate
        (np.array([1.0, np.inf]), y),
        (np.array([1.0, -0.5]), y),
        (t, np.array([0, -1])),          # would wrap to the last node
        (t, np.array([0, 8])),
        (t, np.array([0.0, 3.0])),       # not an index
    ]
    for bt, by in bad_inputs:
        with pytest.raises(DomainError):
            distance_batch(EXP1, Y8, bt, by, t, y)
        with pytest.raises(DomainError):
            gromov_product_batch(EXP1, Y8, 0, t, y, bt, by)
        if by.dtype.kind == "i":
            with pytest.raises(DomainError):
                distance(EXP1, Y8, WarpedPoint(float(bt[1]), int(by[1])), WarpedPoint(1.0, 0))
    with pytest.raises(DomainError):
        gromov_product_batch(EXP1, Y8, 8, t, y, t, y)


@pytest.mark.parametrize("prof", [
    EXP1, SINH1, WarpProfile.sinh_pow(1.5), WarpProfile.sinh_pow(0.7),
    WarpProfile.sinh_pow(3.0),
    WarpProfile.custom(lambda t: np.sinh(t) + 0.5 * (np.cosh(t) - 1.0),
                       lambda t: np.cosh(t) + 0.5 * np.sinh(t), 1.0),
], ids=["exp:1", "sinh:1", "sinh:1.5", "sinh:0.7", "sinh:3", "custom"])
def test_distance_formula_against_graph_shortest_paths(prof):
    # an independent oracle: shortest paths on the filling graph used metrically
    # are lengths of actual curves, so they never undercut the closed form, and
    # on this grid they exceed it by at most criterion 6's 3 %
    Y = circle(256, 2 * math.pi)
    G = build_filling_graph(Y, prof, "exp", 1.0, t_max=5.0, dt=0.05)
    rng = np.random.default_rng(16)
    sources = rng.choice(G.n_nodes, size=20, replace=False)
    targets = rng.choice(G.n_nodes, size=60, replace=False)
    graph = dijkstra(G.sparse(), directed=False, indices=sources)[:, targets].ravel()
    node_y = np.maximum(G.node_y, 0)  # the apex (y = -1, t = 0) is any y at t = 0
    formula = distance_batch(prof, Y, np.repeat(G.node_t[sources], targets.size),
                             np.repeat(node_y[sources], targets.size),
                             np.tile(G.node_t[targets], sources.size),
                             np.tile(node_y[targets], sources.size))
    assert np.all(graph - formula >= -1e-12 * (1.0 + formula))
    keep = formula > 0.0
    assert np.max((graph[keep] - formula[keep]) / formula[keep]) <= 0.03
