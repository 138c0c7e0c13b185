import math

import numpy as np
import pytest

from warpfill import (MixedSegment, Norm2, WarpProfile, WarpedPoint, build_ucurve,
                      chordal_length, circle, distance, distance_batch,
                      distance_bounds_other_norm, gromov_product, gromov_product_batch,
                      minimize_F, polyline_length)
from warpfill.errors import DomainError, PreconditionError

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


def test_norm_enclosures():
    assert distance_bounds_other_norm(Norm2.l1(), 10.0) == (10.0, 10.0)
    assert distance_bounds_other_norm(Norm2.l2(), 10.0) == (5.0, 10.0)
    assert distance_bounds_other_norm(Norm2.linf(), 0.0) == (0.0, 0.0)
    with pytest.raises(PreconditionError):
        bad = Norm2.from_table(
            0.25 * np.abs(np.cos(a := np.linspace(0, math.pi / 2, 65)) + np.sin(a))
            + 0.75 * np.abs(np.cos(a) - np.sin(a)), a)
        distance_bounds_other_norm(bad, 1.0)


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

def test_ucurve_matches_distance_at_tight_length():
    p1, p2 = WarpedPoint(3.0, 0), WarpedPoint(5.0, 4)
    d_y = float(Y8.dist[0, 4])
    for prof in (EXP1, SINH1):
        uc = build_ucurve(prof, Y8, p1, p2, d_y)
        assert uc.total == pytest.approx(distance(prof, Y8, p1, p2), abs=1e-12)
        assert uc.descending == pytest.approx(p1.t - uc.tau)
        assert uc.ascending == pytest.approx(p2.t - uc.tau)


def test_ucurve_longer_trace_dominates():
    p1, p2 = WarpedPoint(3.0, 0), WarpedPoint(5.0, 4)
    d_y = float(Y8.dist[0, 4])
    base = distance(EXP1, Y8, p1, p2)
    for extra in (0.1, 1.0, 3.0):
        uc = build_ucurve(EXP1, Y8, p1, p2, d_y + extra)
        assert uc.total >= base - 1e-12
    with pytest.raises(PreconditionError):
        build_ucurve(EXP1, Y8, p1, p2, d_y - 0.1)


def test_ucurve_horizontal_bound():
    p1, p2 = WarpedPoint(6.0, 0), WarpedPoint(6.0, 4)
    for prof in (EXP1, SINH1, WarpProfile.sinh_pow(2.0)):
        uc = build_ucurve(prof, Y8, p1, p2, float(Y8.dist[0, 4]))
        if uc.tau > 0:
            assert uc.horizontal <= 2.0 / prof.alpha + 1e-9


def test_ucurve_flat_endpoints():
    uc = build_ucurve(EXP1, Y8, WarpedPoint(0.0, 0), WarpedPoint(0.0, 4), float(Y8.dist[0, 4]))
    assert uc.tau == 0.0
    assert uc.total == pytest.approx(EXP1.psi0 * Y8.dist[0, 4])


def test_polyline_vertical_and_ucurve():
    assert polyline_length(EXP1, Y8, [WarpedPoint(2, 1), WarpedPoint(5, 1)]) == 3.0
    p1, p2 = WarpedPoint(4.0, 0), WarpedPoint(6.0, 4)
    uc = build_ucurve(SINH1, Y8, p1, p2, float(Y8.dist[0, 4]))
    pts = [p1, WarpedPoint(uc.tau, 0), WarpedPoint(uc.tau, 4), p2]
    assert polyline_length(SINH1, Y8, pts) == pytest.approx(uc.total, abs=1e-12)


def test_polyline_horizontal_level_scaling():
    val = polyline_length(EXP1, Y8, [WarpedPoint(2.0, 0), WarpedPoint(2.0, 2)])
    assert val == pytest.approx(math.exp(2.0) * Y8.dist[0, 2], abs=1e-12)


def test_polyline_mixed_segment():
    # diagonal segment from (0, y) to (1, y'): t(s) = s, fiber speed d_Y
    d_y = float(Y8.dist[0, 1])
    seg = MixedSegment(t_path=lambda s: s, t_speed=lambda s: 1.0,
                       y_speed=lambda s: d_y)
    pts = [WarpedPoint(0.0, 0), WarpedPoint(1.0, 1)]
    got = polyline_length(EXP1, Y8, pts, quadrature_n=64, speed_tables={0: seg})
    exact = 1.0 + d_y * (math.e - 1.0)  # integral of 1 + e^s d_y
    assert got == pytest.approx(exact, rel=1e-9)
    with pytest.raises(PreconditionError):
        polyline_length(EXP1, Y8, pts)


def test_chordal_vertical_exact():
    pts = [WarpedPoint(1.0, 2), WarpedPoint(4.0, 2)]
    for r in range(4):
        assert chordal_length(EXP1, Y8, pts, r) == pytest.approx(3.0, abs=1e-12)


def test_chordal_monotone_convergence():
    Y = circle(256, 2 * math.pi)
    p1, p2 = WarpedPoint(3.0, 0), WarpedPoint(3.0, 128)
    # suboptimal curve: horizontal level above the unconstrained optimum
    pts = [p1, WarpedPoint(1.0, 0), WarpedPoint(1.0, 128), p2]
    poly = polyline_length(EXP1, Y, pts)
    prev = -math.inf
    for r in range(7):
        val = chordal_length(EXP1, Y, pts, r)
        assert val >= prev - 1e-12
        assert val <= poly + 1e-12
        prev = val
    assert prev >= poly * 0.99  # refinement 6 within 1%


def test_chordal_geodesic_vertical_refinement_zero():
    pts = [WarpedPoint(0.5, 1), WarpedPoint(2.5, 1)]
    assert chordal_length(SINH1, Y8, pts, 0) == polyline_length(SINH1, Y8, pts)
