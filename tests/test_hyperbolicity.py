import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from warpfill import (WarpProfile, WarpedPoint, boundary_metric, circle, default_eps,
                      delta_bound, estimate_delta, from_graph, from_matrix, gromov_product,
                      snowflake_check, sup_G)
from warpfill import hyperbolicity
from warpfill.errors import DomainError
from warpfill.hyperbolicity import _min_plus_closure
from warpfill.warped import gromov_product_batch

SINH1 = WarpProfile.sinh_pow(1.0)
EXP1 = WarpProfile.exp(1.0)


def test_delta_bound_values():
    Y = circle(16, 2 * math.pi)
    assert delta_bound(SINH1, Y) == 2.0
    assert delta_bound(WarpProfile.sinh_pow(2.0), Y) == 1.0
    assert delta_bound(EXP1, Y) == pytest.approx(2.0 + 3.0 * math.pi)


def test_single_point_carrier_is_a_ray():
    Y = from_matrix([[0.0]], [1.0])
    rep = estimate_delta(SINH1, Y, t_max=10.0, count=3000, seed=1)
    assert rep.delta_basepoint == 0.0


def test_delta_below_bound_sampled():
    Y = circle(64, 2 * math.pi)
    for alpha in (1.0, 2.0):
        prof = WarpProfile.sinh_pow(alpha)
        rep = estimate_delta(prof, Y, t_max=8.0, count=20000, seed=7)
        assert rep.delta_basepoint <= 2.0 / alpha + 1e-9
        assert rep.samples == 20000
        assert len(rep.worst_witness) == 4
    rep = estimate_delta(EXP1, Y, t_max=8.0, count=20000, seed=7)
    assert rep.delta_basepoint <= 2.0 + 3.0 * math.pi + 1e-9


def test_delta_witness_reproduces_defect():
    Y = circle(32, 2 * math.pi)
    rep = estimate_delta(SINH1, Y, t_max=6.0, count=5000, seed=3)
    w, x, yy, z = rep.worst_witness
    gxy = gromov_product(SINH1, Y, w.y, x, yy)
    gxz = gromov_product(SINH1, Y, w.y, x, z)
    gyz = gromov_product(SINH1, Y, w.y, yy, z)
    assert min(gxz, gyz) - gxy == pytest.approx(rep.delta_basepoint, abs=1e-12)


def test_default_eps_rule():
    assert default_eps(0.0) == 0.9
    assert default_eps(2.0) == pytest.approx(0.9 * 0.1)
    assert default_eps(0.1) == pytest.approx(0.9)
    # 5 * delta overflows, and the rule would give eps 0
    with pytest.raises(DomainError, match=r"^the default eps 0.9/\(5\*delta\) is 0: 5\*delta "
                                          r"overflows at the hyperbolicity bound delta = 4e\+307"):
        default_eps(4e307)
    # below the overflow 1/(5*delta) is subnormal but positive
    assert 0.0 < default_eps(3.5e307) < 1e-308


def test_min_plus_closure_idempotent_and_triangle():
    rng = np.random.default_rng(2)
    M = rng.uniform(0.1, 1.0, size=(20, 20))
    M = 0.5 * (M + M.T)
    np.fill_diagonal(M, 0.0)
    C, _ = _min_plus_closure(M)
    assert np.array_equal(_min_plus_closure(C)[0], C)
    # triangle inequality holds exactly
    n = 20
    for k in range(n):
        assert np.all(C <= C[:, [k]] + C[[k], :] + 1e-15)


def test_boundary_metric_two_point_example():
    # fibers at distance 2 with the basepoint equidistant at 1:
    # doubled product = psi(0)*(1+1) + sup(2 rho - 2 e^rho) = 2 - 2 = 0
    D = [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]
    Y = from_matrix(D, [1.0, 1.0, 1.0])
    bm = boundary_metric(EXP1, Y, eps=0.05, basepoint_y=0)
    assert sup_G(EXP1, 2.0) == pytest.approx(-2.0)
    two_prod = -math.log(bm.premetric[1, 2]) / bm.eps * 2.0
    assert two_prod == pytest.approx(0.0, abs=1e-12)
    assert bm.premetric[1, 2] == pytest.approx(1.0)
    assert bm.premetric[0, 0] == 0.0  # infinite self-product convention


def test_boundary_comparison_band_and_warning():
    Y = circle(48, 2 * math.pi)
    bm = boundary_metric(EXP1, Y)  # auto eps
    assert not bm.eps_warning
    assert np.all(bm.chained <= bm.premetric + 0.0)
    assert np.all(bm.chained >= 0.5 * bm.premetric)
    assert np.allclose(bm.chained, bm.chained.T)
    big = boundary_metric(EXP1, Y, eps=5.0)
    assert big.eps_warning


def test_the_eps_warning_margin_is_relative():
    # the guaranteed range ends at 1.33e-16 on this carrier, so eps = 1e-15,
    # 7.5 times that, is warned: the margin is relative, a few ulp
    Y = circle(16, 1e15)
    bound = min(1.0, 1.0 / (5.0 * delta_bound(EXP1, Y)))
    assert bound == pytest.approx(1.3333e-16, rel=1e-4)
    assert boundary_metric(EXP1, Y, eps=1e-15).eps_warning
    assert boundary_metric(EXP1, Y, eps=bound * (1.0 + 2.0 ** -49)).eps_warning
    assert not boundary_metric(EXP1, Y, eps=bound).eps_warning
    assert not boundary_metric(EXP1, Y).eps_warning  # auto eps


def test_boundary_refuses_an_infinite_delta_bound():
    # 3 psi(0) diam(Y) overflows for exp, where the auto eps was 0 and the
    # premetric diagonal NaN; sinh has psi(0) = 0 and a finite bound
    Y = from_matrix([[0.0, 1e308, 5e307], [1e308, 0.0, 6e307], [5e307, 6e307, 0.0]])
    for eps in (None, 0.5):
        with pytest.raises(DomainError, match="bound inf is not finite"):
            boundary_metric(EXP1, Y, eps)
    far = from_matrix([[0.0, 1e308, 9e307], [1e308, 0.0, 1.5e308], [9e307, 1.5e308, 0.0]])
    for space in (Y, far):  # far: d0 sums off the diagonal overflow too
        bm = boundary_metric(SINH1, space)
        assert bm.delta_used == 2.0 and np.all(np.isfinite(bm.premetric))


def test_boundary_growth_guard():
    # profiles outgrowing e^{alpha t} have no visual boundary of this shape
    fast = WarpProfile.custom(lambda t: np.exp(2.0 * np.asarray(t, float)),
                              lambda t: 2.0 * np.exp(2.0 * np.asarray(t, float)), 1.0)
    with pytest.raises(Exception) as exc:
        boundary_metric(fast, circle(8, 1.0), eps=0.1)
    assert "dominated" in str(exc.value)
    # steep builtins are dominated (exp with C = 1, sinh^alpha with
    # C = 2^-alpha) although psi overflows before t = 60; at alpha 100 the
    # ratio sinh^alpha(t) e^{-alpha t} still climbs where psi is representable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for steep in (WarpProfile.exp(12.0), WarpProfile.exp(40.0), WarpProfile.sinh_pow(13.0),
                      WarpProfile.sinh_pow(100.0)):
            bm = boundary_metric(steep, circle(8, 1.0))
            assert np.all(np.isfinite(bm.chained)), steep.label()


def test_snowflake_exponent_small_circle():
    Y = circle(128, 2 * math.pi)
    bm = boundary_metric(EXP1, Y)
    rep = snowflake_check(bm, Y, EXP1.alpha)
    assert rep.passed, rep.to_dict()
    assert rep.fitted_exponent == pytest.approx(rep.target_exponent, rel=0.02)
    # doubling eps doubles the exponent
    bm2 = boundary_metric(EXP1, Y, eps=2 * bm.eps)
    rep2 = snowflake_check(bm2, Y, EXP1.alpha, slope_rtol=0.05)
    assert rep2.fitted_exponent == pytest.approx(2 * rep.fitted_exponent, rel=0.05)


def test_snowflake_sinh_alpha2_halves_exponent():
    # the log-linear relation is asymptotic in small fiber distances, so a
    # small-diameter carrier keeps the uniform fit inside the 2% band
    Y = circle(128, 0.25)
    p2 = WarpProfile.sinh_pow(2.0)
    bm = boundary_metric(p2, Y, eps=0.1)
    rep = snowflake_check(bm, Y, 2.0)
    assert rep.target_exponent == pytest.approx(0.05)
    assert rep.passed, rep.to_dict()


@pytest.mark.parametrize("length", [1.0, 2.0])
def test_snowflake_refuses_an_equidistant_carrier(length):
    # ln(d) is constant over the pairs of K6, so no exponent can be fitted
    k6 = from_graph([(i, j, length) for i in range(6) for j in range(i + 1, 6)], n=6)
    bm = boundary_metric(EXP1, k6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"every carrier distance is {length}"):
            snowflake_check(bm, k6, EXP1.alpha)


def test_boundary_gromov_product_is_deep_pair_limit():
    Y = circle(64, 2 * math.pi)
    bm = boundary_metric(EXP1, Y, eps=0.1, basepoint_y=0)
    T = 80.0
    for i, j in ((0, 5), (3, 40), (10, 11)):
        finite = gromov_product(EXP1, Y, 0, WarpedPoint(T, i), WarpedPoint(T, j))
        boundary_val = -math.log(bm.premetric[i, j]) / bm.eps
        assert abs(finite - boundary_val) <= 1e-6


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "3"])
def test_seed_must_be_a_nonnegative_integer(seed):
    Y = circle(8, 2 * math.pi)
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        estimate_delta(SINH1, Y, t_max=5.0, count=10, seed=seed)
    assert estimate_delta(SINH1, Y, 5.0, 10, np.int64(4)) == estimate_delta(SINH1, Y, 5.0, 10, 4)


@pytest.mark.parametrize("count", [0, -3, True, False, 100.0, 2.5, None, "10"])
def test_count_must_be_an_integer_of_at_least_1(count):
    # a bool or a float raised numpy's TypeError, or ran as a count
    with pytest.raises(DomainError, match=rf"^count must be an integer >= 1, got {count!r}$"):
        estimate_delta(SINH1, circle(8, 2 * math.pi), 5.0, count, 4)


def test_samples_is_a_python_int():
    rep = estimate_delta(SINH1, circle(8, 2 * math.pi), 5.0, np.int64(5), 4)
    assert type(rep.samples) is int and rep.samples == 5
    assert rep == estimate_delta(SINH1, circle(8, 2 * math.pi), 5.0, 5, 4)


def _random_graph_carrier(n, seed):
    """A ring of random lengths with n random chords."""
    rng = np.random.default_rng(seed)
    ring = [(i, (i + 1) % n, float(w)) for i, w in enumerate(rng.uniform(0.5, 2.0, n))]
    chords = [(int(a), int(b), float(w)) for a, b, w in
              zip(rng.integers(0, n, n), rng.integers(0, n, n), rng.uniform(0.5, 4.0, n)) if a != b]
    return from_graph(ring + chords, n=n)


DELTA_PROFILES = {
    "exp:1": EXP1,
    "sinh:1": SINH1,
    "sinh:2": WarpProfile.sinh_pow(2.0),
    "sinh:1.5": WarpProfile.sinh_pow(1.5),
    "sinh:0.7": WarpProfile.sinh_pow(0.7),
    "custom": WarpProfile.custom(lambda t: np.sinh(t) + 0.5 * (np.cosh(t) - 1.0),
                                 lambda t: np.cosh(t) + 0.5 * np.sinh(t), 1.0),
}
B = hyperbolicity._BLOCK


def _one_batch_delta(profile, space, t_max, count, seed, basepoint_y):
    """The defect and witness of one batch over every triple: the three
    full-size Gromov products and np.argmax."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, t_max, size=(3, count))
    y = rng.integers(0, space.n, size=(3, count))
    g01 = gromov_product_batch(profile, space, basepoint_y, t[0], y[0], t[1], y[1])
    g02 = gromov_product_batch(profile, space, basepoint_y, t[0], y[0], t[2], y[2])
    g12 = gromov_product_batch(profile, space, basepoint_y, t[1], y[1], t[2], y[2])
    defect = np.minimum(g02, g12) - g01
    k = int(np.argmax(defect))
    return max(0.0, float(defect[k])), t[:, k].tolist(), y[:, k].tolist()


@pytest.mark.parametrize("carrier", ["circle", "graph"])
@pytest.mark.parametrize("kind", list(DELTA_PROFILES))
def test_blocked_delta_has_the_bits_of_one_batch(monkeypatch, kind, carrier):
    # counts on both sides of one and two block edges, and many blocks. The
    # custom kernel takes about 40 us a triple, so it runs with blocks of 2^9
    # triples, over the same edges and 20 blocks
    Y = circle(64, 2 * math.pi) if carrier == "circle" else _random_graph_carrier(48, 3)
    profile = DELTA_PROFILES[kind]
    block, many = B, 100_000
    if kind == "custom":
        block, many = 2 ** 9, 20 * 2 ** 9
        monkeypatch.setattr(hyperbolicity, "_BLOCK", block)
    for count in (1, block - 1, block, block + 1, 2 * block + 1, many):
        rep = estimate_delta(profile, Y, 9.0, count, 11, basepoint_y=5)
        delta, t, y = _one_batch_delta(profile, Y, 9.0, count, 11, 5)
        assert rep.delta_basepoint.hex() == delta.hex(), count
        assert [p.t.hex() for p in rep.worst_witness[1:]] == [x.hex() for x in t], count
        assert [p.y for p in rep.worst_witness[1:]] == y, count
        assert rep.worst_witness[0] == WarpedPoint(0.0, 5)
        assert type(rep.samples) is int and rep.samples == count


@pytest.mark.parametrize("where", [
    {3: 2.0, B + 7: 2.0, 2 * B: 2.0},               # ties across blocks: the first
    {B - 1: 1.0, B: 1.5, 2 * B: 1.5},               # the largest, first of a tie
    {5: 3.0, B + 2: math.nan, 2 * B: math.nan},     # a NaN beats any value
    {0: math.nan, B + 2: math.nan},                 # the first NaN
    {2 * B: 4.0},                                   # the last triple
    {},                                             # all equal: the first triple
])
def test_blocked_delta_reduces_as_np_argmax(monkeypatch, where):
    # the products are replaced by ones whose defect at triple i is defect[i]
    count = 2 * B + 1
    defect = np.full(count, -1.0)
    for i, v in where.items():
        defect[i] = v
    t = np.random.default_rng(2).uniform(0.0, 1.0, size=(3, count))
    index = {x: i for i, x in enumerate(t[0].tolist())}

    def products(profile, space, basepoint_y, t1, y1, t2, y2):
        g = np.zeros(t1.shape)
        g[0] = -defect[[index[x] for x in t1[0].tolist()]]
        return g

    monkeypatch.setattr(hyperbolicity, "gromov_product_batch", products)
    rep = estimate_delta(SINH1, circle(8, 2 * math.pi), 1.0, count, 2)
    k = int(np.argmax(defect))
    assert rep.delta_basepoint == max(0.0, float(defect[k]))
    assert [p.t for p in rep.worst_witness[1:]] == t[:, k].tolist()


def test_delta_holds_the_draws_and_one_block():
    # the draws are 48 bytes a triple and one block's kernel temporaries about
    # 5 MB: 72.8 bytes a triple here; the three full-size products and their
    # temporaries took the peak to 122
    Y = circle(256, 2 * math.pi)
    estimate_delta(EXP1, Y, 10.0, 10, 1)
    count = 200_000
    tracemalloc.start()
    try:
        estimate_delta(EXP1, Y, 10.0, count, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * count, peak / count


def _oracle_closure(M):
    """Floyd-Warshall over numpy rows, kept as a reference."""
    D = M.copy()
    for k in range(D.shape[0]):
        np.minimum(D, D[:, [k]] + D[[k], :], out=D)
    return D


def test_min_plus_closure_matches_loop_oracle():
    # zero off-diagonal entries are zero weights, infinite ones missing edges
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 7, 30):
        for zeros, infs in ((0.0, 0.0), (0.2, 0.0), (0.2, 0.2), (0.0, 0.5)):
            M = rng.uniform(0.0, 1.0, size=(n, n))
            M[rng.uniform(size=(n, n)) < zeros] = 0.0
            M[rng.uniform(size=(n, n)) < infs] = np.inf
            for A in (M, np.minimum(M, M.T)):
                A = A.copy()
                np.fill_diagonal(A, 0.0)
                got, want = _min_plus_closure(A)[0], _oracle_closure(A)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def _closure_inputs(draw):
    """Nonnegative n x n matrices, n in 1..12, with a zero diagonal that
    straddle the closure certificate: entries from [a, 1] (a >= 1/2 always
    certifies), some set to the tie fl(r_i + s_j) or a neighbour of it, some
    zero or infinite, asymmetric unless symmetrized."""
    n = draw(st.integers(1, 12))
    a = draw(st.sampled_from([0.0, 0.1, 0.3, 0.45, 0.5, 0.8]))
    M = draw(arrays(np.float64, (n, n), elements=st.floats(a, 1.0)))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for (i, j), step in draw(st.lists(st.tuples(cell, st.sampled_from([-1, 0, 1])),
                                      max_size=4)):
        C = M.copy()
        np.fill_diagonal(C, np.inf)
        tie = C[i].min() + C[:, j].min()
        M[i, j] = tie if step == 0 else max(0.0, np.nextafter(tie, step * np.inf))
    for (i, j), value in draw(st.lists(st.tuples(cell, st.sampled_from([0.0, np.inf])),
                                       max_size=3)):
        M[i, j] = value
    if draw(st.booleans()):
        M = np.minimum(M, M.T)
    np.fill_diagonal(M, 0.0)
    return M


@settings(max_examples=300, deadline=None)
@given(_closure_inputs())
def test_min_plus_closure_certificate_matches_loop_oracle(M):
    got, check = _min_plus_closure(M)
    event(check)
    assert got.dtype == np.float64 and got.tobytes() == _oracle_closure(M).tobytes()


def test_min_plus_closure_certificate_decides_ties():
    # r_0 + s_1 = 0.2 while every chain from 0 to 1 has length 1.1: the
    # certificate holds up to the tie and leaves the rest to Floyd-Warshall
    M = np.array([[0.0, 0.2, 0.1, 1.0],
                  [1.0, 0.0, 1.0, 1.0],
                  [1.0, 1.0, 0.0, 1.0],
                  [1.0, 0.1, 0.2, 0.0]])
    got, check = _min_plus_closure(M)
    assert check == "certificate" and got.tobytes() == M.tobytes()
    M[0, 1] = np.nextafter(0.2, 1.0)
    got, check = _min_plus_closure(M)
    assert check == "floyd-warshall" and got.tobytes() == M.tobytes()
    M[0, 1] = 1.5  # now the chains through 2 and 3 are shorter
    got, check = _min_plus_closure(M)
    assert check == "floyd-warshall" and got[0, 1] == 0.1 + 1.0


@pytest.mark.parametrize("bad", [-1e-300, np.nan])
def test_min_plus_closure_certificate_needs_nonnegative_entries(bad):
    M = np.full((3, 3), 1.0)
    np.fill_diagonal(M, 0.0)
    M[0, 1] = bad
    assert _min_plus_closure(M)[1] == "floyd-warshall"
    M[0, 1] = 1.0
    M[2, 2] = 1e-300  # a nonzero diagonal is not certified either
    assert _min_plus_closure(M)[1] == "floyd-warshall"


def test_boundary_closure_skips_floyd_warshall_when_certified(monkeypatch):
    def no_floyd_warshall(*args, **kwargs):
        raise AssertionError("floyd_warshall ran")

    # the closure imports floyd_warshall when it runs, so patch it where it is read from
    monkeypatch.setattr(scipy.sparse.csgraph, "floyd_warshall", no_floyd_warshall)
    Y = circle(64, 2 * math.pi)
    for profile in (EXP1, SINH1, WarpProfile.sinh_pow(1.5)):
        bm = boundary_metric(profile, Y)  # auto eps
        assert bm.closure_check == "certificate", profile.label()
        assert bm.chained.tobytes() == bm.premetric.tobytes()
    # at eps 1 the closure lowers entries, so Floyd-Warshall has to run
    with pytest.raises(AssertionError, match="floyd_warshall ran"):
        boundary_metric(EXP1, Y, eps=1.0)
    monkeypatch.undo()
    bm = boundary_metric(EXP1, Y, eps=1.0)
    assert bm.closure_check == "floyd-warshall"
    assert np.count_nonzero(bm.chained < bm.premetric) > 0
