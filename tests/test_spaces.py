import json
import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import event, given, settings, strategies as st

from warpfill import (CarrierSpace, ValidationError, WarpProfile, approx_length_check,
                      build_filling_graph, circle, from_graph, from_matrix, load_space,
                      save_space, spaces, validate_matrix)
from warpfill.errors import DomainError, SchemaError


def test_from_matrix_valid():
    s = from_matrix([[0, 1], [1, 0]], [1, 1])
    assert s.n == 2 and s.dist[0, 1] == 1


def test_from_matrix_asymmetry():
    with pytest.raises(ValidationError) as exc:
        from_matrix([[0, 1], [2, 0]], [1, 1])
    assert any(v[0] == "asymmetry" for v in exc.value.violations)


def test_from_matrix_triangle_violation():
    with pytest.raises(ValidationError) as exc:
        from_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]], [1, 1, 1])
    tri = [v for v in exc.value.violations if v[0] == "triangle"]
    assert tri and tri[0][1][:2] == (0, 2)


def test_validate_matrix_reports_everything():
    bad = [[0, -1, 3], [1, 0, 1], [3, 1, 0.5]]
    kinds = {v[0] for v in validate_matrix(bad)}
    assert {"negative", "asymmetry", "diagonal"} <= kinds
    assert [v[0] for v in validate_matrix(np.zeros((0, 0)))] == ["shape"]
    with pytest.raises(ValidationError, match="non-empty"):
        from_matrix(np.zeros((0, 0)))


def test_measure_positivity():
    with pytest.raises(ValidationError) as exc:
        from_matrix([[0, 1], [1, 0]], [1, 0])
    assert any(v[0] == "measure_positive" for v in exc.value.violations)


def test_from_graph_path():
    s = from_graph([(0, 1, 1.0), (1, 2, 1.0)])
    assert s.dist[0, 2] == 2.0
    assert np.all(s.measure == 1.0)


def test_from_graph_relaxes_long_edge():
    s = from_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
    assert s.dist[0, 2] == 2.0


def test_from_graph_keeps_the_shortest_parallel_edge():
    # a pair listed twice keeps its shorter length; lengths are never summed
    assert from_graph([(0, 1, 5.0), (0, 1, 1.0), (1, 2, 1.0)]).dist[0, 1] == 1.0
    assert from_graph([(0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0)]).dist[0, 1] == 1.0
    assert from_graph([(1, 0, 5.0), (0, 1, 1.0), (1, 2, 1.0)]).dist[0, 1] == 1.0


def test_from_graph_single_node():
    s = from_graph([], n=1)
    assert s.n == 1 and s.dist[0, 0] == 0.0
    # a given measure is kept, and checked
    assert from_graph([], measure=[2.5]).measure.tolist() == [2.5]
    with pytest.raises(ValidationError, match="measure_positive"):
        from_graph([], measure=[0.0])


@pytest.mark.parametrize("measure, kind", [([1e308, 1e308], "measure_total"),
                                           ([1.0, 0.0], "measure_positive"),
                                           ([1.0, math.nan], "measure_finite")])
def test_from_graph_refuses_the_measures_from_matrix_refuses(measure, kind):
    # the same violations as from_matrix, and no overflow warning on the total
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: from_graph([(0, 1, 1.0)], measure=measure),
                      lambda: from_matrix([[0.0, 1.0], [1.0, 0.0]], measure)):
            with pytest.raises(ValidationError) as exc:
                build()
            assert [v[0] for v in exc.value.violations] == [kind]


def test_from_graph_disconnected():
    with pytest.raises(ValidationError) as exc:
        from_graph([(0, 1, 1.0), (2, 3, 1.0)])
    assert "disconnected" in str(exc.value)


def test_circle_distances():
    s = circle(4, 4.0)
    assert s.dist[0, 2] == 2.0
    assert s.dist[0, 1] == 1.0
    assert s.diameter() == 2.0
    assert s.measure[0] == 1.0
    with pytest.raises(DomainError):
        circle(2, 1.0)


def test_circle_spacing_and_metric():
    n = 2048
    s = circle(n, 2 * math.pi)
    adj = s.dist[np.arange(n), (np.arange(n) + 1) % n]
    assert np.allclose(adj, 2 * math.pi / n)
    assert not validate_matrix(s.dist[:24, :24])  # small principal block is a metric


def test_circle_adjacency_skeleton():
    s = circle(12, 12.0)
    rows, cols, lens = s.adjacency()
    assert rows.size == 12  # only consecutive pairs survive
    assert np.all(lens == 1.0)


def test_length_check_circle_passes():
    s = circle(256, 2 * math.pi)
    rep = approx_length_check(s, eps=0.05)  # spacing 0.0245 < eps
    assert rep.passed, rep.to_dict()


def test_length_check_two_points_fails():
    s = from_matrix([[0, 1], [1, 0]], [1, 1])
    rep = approx_length_check(s, eps=0.01)
    assert not rep.passed
    assert rep.worst_pair == (0, 1)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_length_check_refuses_bad_eps(eps):
    # eps = inf would check no pair and pass vacuously
    with pytest.raises(DomainError, match="finite eps"):
        approx_length_check(circle(16, 2 * math.pi), eps)


def test_length_check_subdivided_path():
    edges = [(i, i + 1, 0.01) for i in range(100)]
    s = from_graph(edges)
    rep = approx_length_check(s, eps=0.02)
    assert rep.passed


def test_from_graph_output_is_metric():
    rng = np.random.default_rng(10)
    edges = [(int(rng.integers(12)), int(rng.integers(12)), float(rng.uniform(0.1, 2)))
             for _ in range(40)]
    edges.extend((i, i + 1, 0.5) for i in range(11))  # force connectivity
    s = from_graph(edges, n=12)
    assert validate_matrix(s.dist, s.measure) == []


def test_circle_converges_to_continuum_arcs():
    n, L = 64, 5.0
    s = circle(n, L)
    rng = np.random.default_rng(11)
    theta = rng.uniform(0, L, size=100)
    nearest = np.rint(theta / (L / n)).astype(int) % n
    for a in range(0, 100, 7):
        for b in range(1, 100, 13):
            cont = min(abs(theta[a] - theta[b]), L - abs(theta[a] - theta[b]))
            disc = s.dist[nearest[a], nearest[b]]
            assert abs(cont - disc) <= L / n


def test_json_roundtrip(tmp_path):
    s = circle(6, 6.0)
    path = tmp_path / "c6.json"
    save_space(s, str(path))
    s2 = load_space(str(path))
    assert np.array_equal(s.dist, s2.dist)
    assert np.array_equal(s.measure, s2.measure)


def test_save_space_round_trips_every_double_bit_for_bit(tmp_path):
    vals = [5e-324, 2.2250738585072014e-308, 1e-5, 1e16, 1e22, 0.1 + 0.2,
            1.7976931348623157e308]
    n = len(vals) + 1
    labels = ["hub", "ä", "ß", "日本", "emoji \U0001f600", "é", "\u00a0", 'q"\\']
    path = tmp_path / "star.json"
    # a star: leaf i is vals[i - 1] from the hub, and two leaves are the sum
    # of their legs, capped at the largest double
    D = np.zeros((n, n))
    D[0, 1:] = D[1:, 0] = vals
    with np.errstate(over="ignore"):
        D[1:, 1:] = np.minimum(np.add.outer(vals, vals), np.finfo(float).max)
    np.fill_diagonal(D, 0.0)
    space = from_matrix(D, np.array(vals + [0.5]), labels, [(0, i) for i in range(1, n)])
    save_space(space, str(path))
    back = load_space(str(path))
    assert np.array_equal(back.dist.view(np.uint64), space.dist.view(np.uint64))
    assert np.array_equal(back.measure.view(np.uint64), space.measure.view(np.uint64))
    assert back.labels == labels and np.array_equal(back.edges, space.edges)
    # readers without orjson get the same values
    doc = json.loads(path.read_bytes())
    assert np.array_equal(np.array(doc["dist"]).view(np.uint64), space.dist.view(np.uint64))
    assert np.array_equal(np.array(doc["measure"]).view(np.uint64),
                          space.measure.view(np.uint64))
    assert doc["labels"] == labels and doc["edges"] == space.edges.tolist()
    save_space(circle(16, 16.0), str(path))
    assert load_space(str(path)).triangle_check == "edge certificate"
    # labels given as a numpy array are numpy scalars, saved as the numbers they hold
    save_space(from_matrix([[0, 1], [1, 0]], labels=np.array([0.5, 1.5])), str(path))
    assert load_space(str(path)).labels == [0.5, 1.5]


def test_carriers_near_the_top_of_double_range():
    # detour sums overflow to inf; the suite turns a RuntimeWarning into a failure
    top = np.finfo(float).max
    two = from_matrix([[0.0, top], [top, 0.0]])
    rows, cols, lens = two.adjacency()  # no detour at all: the one pair is an edge
    assert rows.tolist() == [0] and cols.tolist() == [1] and lens.tolist() == [top]
    D = np.full((3, 3), 1e308)
    np.fill_diagonal(D, 0.0)
    for edges in (None, [(0, 1), (1, 2), (0, 2)]):
        tri = from_matrix(D, edges=edges)
        assert tri.triangle_check == ("sweep" if edges is None else "edge certificate")
        assert [a.tolist() for a in tri.adjacency()[:2]] == [[0, 0, 1], [1, 2, 2]]
    D[0, 1] = D[1, 0] = top
    D[1, 2] = D[2, 1] = 1e307
    kinds = [v[0] for v in validate_matrix(D)]
    assert kinds == ["triangle"]


# the tolerance is 1e-12 times the largest |entry| at every magnitude, so a
# carrier scaled far below 1 keeps every check and its skeleton

@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-100])
def test_a_small_carrier_keeps_its_skeleton(scale):
    D = circle(8, 2 * math.pi).dist * scale
    assert spaces.CarrierSpace(D, np.ones(8)).adjacency()[0].size == 8
    assert from_matrix(D).adjacency()[0].size == 8
    assert from_matrix(D, edges=circle(8, 2 * math.pi).edges).adjacency()[0].size == 8


def test_a_small_matrix_reports_its_triangle_violation():
    D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]) * 1e-20
    assert validate_matrix(D) == [("triangle", (0, 2, 1), 5e-20, 2e-20)]
    # an all-zero matrix has tolerance 0: the sweep runs, not the certificate
    assert from_matrix(np.zeros((3, 3)), edges=[(0, 1), (1, 2)]).triangle_check == "sweep"


def test_a_small_graph_ring_fills_with_horizontal_edges():
    ring = from_graph([(i, (i + 1) % 6, 1e-14) for i in range(6)])
    G = build_filling_graph(ring, WarpProfile.exp(1.0), "exp", 1.0, 2.0, 1.0)
    a, b, _ = G.edges
    flat = G.node_t[a] == G.node_t[b]  # radial edges join consecutive levels
    assert np.unique(G.node_t[a[flat]], return_counts=True)[1].tolist() == [6] * G.n_levels


def _traced_peak(call):
    """call() and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_saving_and_loading_a_carrier_hold_one_copy_of_its_text(tmp_path):
    # circle(512): 262,144 distances, about 19 bytes each as text and 32 as
    # parsed floats in lists. Saving went through to_dict()'s lists (about 64
    # bytes per distance at its peak) and loading kept the text alive beside
    # the parsed document through validation (79): now orjson writes the
    # arrays (32, the text and its growing buffer) and the loader drops each
    # of the text and the document once it is read (51)
    space, path = circle(512, 2 * math.pi), str(tmp_path / "c512.json")
    save_space(circle(8, 8.0), path)
    load_space(path)
    _, saved = _traced_peak(lambda: save_space(space, path))
    loaded, peak = _traced_peak(lambda: load_space(path))
    assert np.array_equal(loaded.dist, space.dist) and loaded.triangle_check == "edge certificate"
    size = space.dist.size
    assert saved < 48 * size and peak < 64 * size, (saved / size, peak / size)


def test_save_space_writes_the_bytes_of_the_carriers_document(tmp_path):
    # orjson writes a numpy array with the bytes of its nested lists; a
    # transposed matrix or a strided measure is written contiguous
    D = circle(5, 5.0).dist
    carriers = [
        CarrierSpace(D.T, np.ones((5, 2))[:, 0], labels=[np.float64(0.5), np.int64(-3), "ä",
                                                           "日本", "emoji \U0001f600"]),
        CarrierSpace(np.asfortranarray(D) * 1e-310, np.full(5, 5e-324), edges=[(0, 1), (3, 4)]),
        from_matrix([[0.0, -0.0], [-0.0, 0.0]]),
        from_graph([], n=1),
    ]
    assert not carriers[0].dist.flags.c_contiguous and not carriers[0].measure.flags.c_contiguous
    path = tmp_path / "space.json"
    for space in carriers:
        save_space(space, str(path))
        want = orjson.dumps(space.to_dict(), option=orjson.OPT_SERIALIZE_NUMPY) + b"\n"
        assert path.read_bytes() == want


def test_csv_import(tmp_path):
    path = tmp_path / "space.csv"
    path.write_text("0,1,2,1.5\n1,0,1,1.5\n2,1,0,1.5\n")
    s = load_space(str(path))
    assert s.n == 3 and s.dist[0, 2] == 2.0 and s.measure[1] == 1.5
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1,0\n")
    with pytest.raises(SchemaError):
        load_space(str(bad))


def test_json_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dist": [[0, 1]]}')
    with pytest.raises(SchemaError):
        load_space(str(path))
    path.write_text('{"n": 3, "dist": [[0,1],[1,0]]}')
    with pytest.raises(SchemaError):
        load_space(str(path))


def _oracle_violations(D, atol=1e-12):
    """validate_matrix's list (no measure), brute force over Python floats."""
    D = np.asarray(D, dtype=float).tolist()
    n = len(D)
    tol = atol * max(1.0, max(abs(x) for row in D for x in row))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    out = [("diagonal", i, D[i][i]) for i in range(n) if abs(D[i][i]) > tol][:200]
    out += [("negative", (i, j), D[i][j]) for i, j in pairs if D[i][j] < -tol][:200]
    out += [("asymmetry", (i, j), D[i][j], D[j][i]) for i, j in pairs
            if i < j and abs(D[i][j] - D[j][i]) > tol][:200]
    if out:
        return out
    tri = [("triangle", (i, j, k), D[i][j], D[i][k] + D[k][j])
           for k in range(n) for i, j in pairs if i < j and D[i][j] - (D[i][k] + D[k][j]) > tol]
    if len(tri) > 200:
        return tri[:200] + [("triangle_overflow", len(tri), "additional violations elided")]
    return tri


def _dist(pts):
    return np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))


def _euclid(rng, n):
    return _dist(rng.normal(size=(n, 2)))


def _violation_cases():
    rng = np.random.default_rng(20)
    junk = rng.uniform(0, 10, size=(30, 30))
    junk = junk + junk.T
    np.fill_diagonal(junk, 0.0)
    yield "overflow", junk
    near_zero_diag = _euclid(rng, 9)
    near_zero_diag[np.diag_indices(9)] = rng.uniform(-9e-13, 9e-13, 9)
    yield "diagonal_within_tol", near_zero_diag
    stretched = near_zero_diag.copy()
    stretched[0, 5] = stretched[5, 0] = 3 * stretched[0, 5]
    yield "diagonal_within_tol_and_triangle", stretched
    at_tol = 1000.0 * _euclid(np.random.default_rng(0), 4)
    at_tol[0, 0] = -1e-12 * at_tol.max()  # rounding lifts the k = i excess over tol
    yield "diagonal_at_tol", at_tol
    asym = _euclid(rng, 8) + np.triu(rng.uniform(0, 9e-13, (8, 8)), 1)
    yield "asymmetric_within_tol", asym
    asym[1, 6] += 5.0
    asym[6, 1] += 5.0
    yield "asymmetric_within_tol_and_triangle", asym
    pts = rng.normal(size=(7, 2))
    pts[1] = pts[0]
    twins = _dist(pts)
    yield "zero_distance", twins
    twins[2, 3] = twins[3, 2] = 0.0
    yield "zero_distance_and_triangle", twins
    edge = _euclid(rng, 6)
    edge[0, 1] = edge[1, 0] = edge[0, 2] + edge[2, 1] + 1.5e-12 * max(1.0, edge.max())
    yield "triangle_at_tolerance", edge
    yield "n1", np.zeros((1, 1))
    yield "n2", np.array([[0.0, 2.0], [2.0, 0.0]])
    yield "n3_valid", np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    yield "n3_triangle", np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    yield "n3_negative", np.array([[0.0, -1.0, 3.0], [-1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])


@pytest.mark.parametrize("name, D", list(_violation_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_validate_matrix_matches_brute_force_oracle(name, D):
    got = validate_matrix(D)
    want = _oracle_violations(D)
    assert len(got) == len(want)
    assert got == want
    if name == "overflow":
        assert got[-1][0] == "triangle_overflow" and got[-1][1] > 200


def _oracle_skeleton(D):
    """Pairs i < j not realized through a third point, brute force."""
    L = D.tolist()
    n = len(L)
    atol = 1e-12 * max(1.0, float(D.max()))
    keep = [(i, j) for i in range(n) for j in range(i + 1, n)
            if min((L[i][k] + L[k][j] for k in range(n) if k not in (i, j)),
                   default=math.inf) > L[i][j] + atol]
    rows = np.array([i for i, _ in keep], dtype=np.int64)
    cols = np.array([j for _, j in keep], dtype=np.int64)
    return rows, cols, D[rows, cols]


def _same_bits(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _skeleton_carriers():
    rng = np.random.default_rng(30)
    edges = [(int(rng.integers(30)), int(rng.integers(30)), float(rng.uniform(0.1, 2)))
             for _ in range(60)]
    edges.extend((i, i + 1, 0.5) for i in range(29))
    lattice = np.abs(np.arange(6)[:, None] - np.arange(6)[None, :]).astype(float)
    return {"from_matrix": from_matrix(_euclid(rng, 25)),
            "from_matrix_ties": from_matrix(lattice),
            "from_matrix_n2": from_matrix([[0, 1], [1, 0]]),
            "from_matrix_twins": from_matrix(_dist(np.repeat(rng.normal(size=(5, 2)), 2, axis=0))),
            "from_graph": from_graph(edges, n=30),
            "circle12": circle(12, 12.0),
            "circle40": circle(40, 2 * math.pi)}


@pytest.mark.parametrize("name", list(_skeleton_carriers()))
def test_adjacency_matches_brute_force_oracle(name, monkeypatch):
    s = _skeleton_carriers()[name]
    seeded = s._adjacency
    assert (seeded is not None) == name.startswith("from_matrix")
    fresh = CarrierSpace(s.dist, s.measure).adjacency()
    assert _same_bits(fresh, _oracle_skeleton(s.dist))
    assert _same_bits(s.adjacency(), fresh)
    monkeypatch.setattr(spaces, "_TILE_CELLS", 3 * s.n)  # 3 pairs a chunk, a row a tile
    assert _same_bits(CarrierSpace(s.dist, s.measure).adjacency(), fresh)


def test_load_and_filling_graph_pay_one_sweep(tmp_path, monkeypatch):
    # a file without "edges", as written before carriers kept their edges
    doc = circle(16, 2 * math.pi).to_dict()
    del doc["edges"]
    path = tmp_path / "c16.json"
    path.write_text(json.dumps(doc))
    calls = []
    sweep = spaces._detours
    monkeypatch.setattr(spaces, "_detours", lambda D: calls.append(len(D)) or sweep(D))
    G = build_filling_graph(load_space(str(path)), WarpProfile.exp(1.0), "exp", 2.0, 4.0, 0.5)
    assert G.edges[0].size > 0
    assert calls == [16]


def _geometric_graph(rng, n):
    """Edges (i, j, length) of a random geometric graph on the unit square
    plus a path through all nodes, so it is connected."""
    pts = rng.uniform(size=(n, 2))
    L = _dist(pts)
    ii, jj = np.nonzero(np.triu(L < math.sqrt(8.0 / (math.pi * n)), 1))
    edges = list(zip(ii.tolist(), jj.tolist(), L[ii, jj].tolist()))
    return edges + [(i, i + 1, float(L[i, i + 1])) for i in range(n - 1)]


def test_certified_load_and_filling_graph_pay_no_sweep(tmp_path, monkeypatch):
    rng = np.random.default_rng(50)
    carriers = {"circle": circle(16, 2 * math.pi),
                "graph": from_graph(_geometric_graph(rng, 40), n=40)}
    for name, s in carriers.items():
        path = tmp_path / f"{name}.json"
        save_space(s, str(path))
        want = CarrierSpace(s.dist, s.measure).adjacency()  # the sweep's
        calls = []
        sweep = spaces._detours
        monkeypatch.setattr(spaces, "_detours", lambda D: calls.append(len(D)) or sweep(D))
        loaded = load_space(str(path))
        assert loaded.triangle_check == "edge certificate" and loaded._adjacency is None
        assert np.array_equal(loaded.edges, s.edges)
        G = build_filling_graph(loaded, WarpProfile.exp(1.0), "exp", 2.0, 4.0, 0.5)
        assert G.edges[0].size > 0
        assert calls == []
        assert _same_bits(loaded.adjacency(), want)
        monkeypatch.undo()


def test_a_json_carrier_normalizes_its_edges_once(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    save_space(circle(16, 2 * math.pi), str(path))
    calls = []
    edge_array = spaces._edge_array
    monkeypatch.setattr(spaces, "_edge_array", lambda *a: calls.append(1) or edge_array(*a))
    space = load_space(str(path))
    assert len(calls) == 1 and space.edges.shape == (16, 2)
    assert space.triangle_check == "edge certificate"


def test_graph_carriers_keep_sorted_unique_edges():
    assert circle(4, 4.0).edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
    s = from_graph([(2, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0), (1, 1, 0.5)])
    assert s.edges.tolist() == [[0, 1], [1, 2]]  # the self-loop is dropped
    assert from_graph([], n=1).edges.shape == (0, 2)
    assert from_matrix([[0, 1], [1, 0]]).edges is None


def test_certificate_failure_falls_back_to_the_sweep():
    s = circle(12, 12.0)
    missing = from_matrix(s.dist, s.measure, edges=s.edges[1:])
    assert missing.triangle_check == "sweep" and missing._adjacency is not None
    assert _same_bits(missing.adjacency(), s.adjacency())
    stretched = s.dist.copy()
    stretched[0, 6] = stretched[6, 0] = 1.5 * stretched[0, 6]
    with pytest.raises(ValidationError) as exc:
        from_matrix(stretched, s.measure, edges=s.edges)
    assert exc.value.violations == validate_matrix(stretched, s.measure)
    # three clusters of zero-distance twins joined only inside each cluster:
    # without (H)'s strict decrease the twins would cover one another and
    # hide the violated triangle d(A, C) = 5 > d(A, B) + d(B, C) = 2
    cluster = np.repeat(np.arange(3), 2)
    twins = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])[cluster][:, cluster]
    assert spaces._edge_certificate(twins, np.array([[0, 1], [2, 3], [4, 5]]))[1] is False
    with pytest.raises(ValidationError) as exc:
        from_matrix(twins, edges=[[0, 1], [2, 3], [4, 5]])
    assert exc.value.violations == validate_matrix(twins, np.ones(6))


def test_edge_certificate_accepts_the_benchmark_carriers():
    rng = np.random.default_rng(60)
    for s in (circle(256, 2 * math.pi), from_graph(_geometric_graph(rng, 256), n=256)):
        assert spaces._edge_certificate(s.dist, s.edges) == (True, True)


def _perturbed_graph_metric(data):
    """A from_graph metric and edge list, then perturbed: entries scaled by
    1 +- 1 ulp up to 1.5, one-sided asymmetry within tol, scales 1e-6 to
    1e6, tiny edges, and missing, extra or duplicate edges."""
    n = data.draw(st.integers(2, 30), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    scale = 10.0 ** data.draw(st.floats(-6.0, 6.0), label="log10 scale")
    tiny = data.draw(st.sampled_from([0.0, 1e-14, 1e-9]), label="tiny edge share")
    parent = [int(rng.integers(i)) for i in range(1, n)]
    pairs = list(zip(parent, range(1, n)))
    pairs += [tuple(int(v) for v in rng.integers(n, size=2)) for _ in range(int(rng.integers(2 * n)))]
    lengths = scale * rng.uniform(0.1, 2.0, len(pairs))
    if tiny:
        small = rng.random(len(pairs)) < 0.3
        lengths[small] = scale * tiny * rng.uniform(1.0, 2.0, int(small.sum()))
    s = from_graph([(i, j, w) for (i, j), w in zip(pairs, lengths)], n=n)
    D, edges = s.dist.copy(), s.edges
    tol = 1e-12 * float(D.max())
    for _ in range(data.draw(st.integers(0, 3), label="scaled entries")):
        i, j = (int(v) for v in rng.integers(n, size=2))
        kind = data.draw(st.sampled_from(["ulps", "relative"]), label="factor kind")
        if kind == "ulps":
            f = 1.0 + data.draw(st.integers(-4, 4), label="ulps") * 2.0 ** -52
        else:
            f = 1.0 + 10.0 ** data.draw(st.floats(-15.5, math.log10(0.5)), label="log10 (f - 1)")
        D[i, j] *= f
        if data.draw(st.booleans(), label="symmetric"):
            D[j, i] = D[i, j]
    if data.draw(st.booleans(), label="one-sided asymmetry"):
        i, j = (int(v) for v in rng.integers(n, size=2))
        if i != j:
            D[i, j] += data.draw(st.floats(0.0, 1.0), label="share of tol") * tol
    edit = data.draw(st.sampled_from(["none", "missing", "extra", "duplicate"]), label="edges")
    if edit == "missing" and len(edges):
        edges = np.delete(edges, int(rng.integers(len(edges))), axis=0)
    elif edit == "extra":
        edges = np.vstack([edges, [rng.choice(n, size=2, replace=False)]])
    elif edit == "duplicate" and len(edges):
        edges = np.vstack([edges, edges[:, ::-1]])
    return D, edges


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edge_certificate_is_sound(data):
    D, edges = _perturbed_graph_metric(data)
    measure = np.ones(len(D))
    relaxed, hops = spaces._edge_certificate(D, spaces._edge_array(edges, len(D)))
    event(f"relaxed={relaxed} hops={hops}")
    sweep = CarrierSpace(D, measure).adjacency()
    if relaxed and hops:  # the sweep sees no triangle excess over tol
        tol = 1e-12 * float(D.max())
        assert not np.any(np.triu(D - spaces._detours(D), 1) > tol)
    try:
        s = from_matrix(D, measure, edges=edges)
    except ValidationError as exc:
        assert exc.violations == validate_matrix(D, measure)
        return
    assert validate_matrix(D, measure) == []
    assert s.triangle_check == ("edge certificate" if relaxed and hops else "sweep")
    assert _same_bits(s.adjacency(), sweep)
    if hops:  # an unvalidated carrier with edges takes its skeleton from them
        assert _same_bits(CarrierSpace(D, measure, edges=edges).adjacency(), sweep)


def _per_k_min(A, op):
    """min over k of op(A[i, k], A[k, j]) for every cell, one k at a time in k
    order: the sweep as it ran over the full square."""
    out = np.full(A.shape, np.inf)
    with np.errstate(over="ignore"):
        for k in range(len(A)):
            np.minimum(out, op(A[:, [k]], A[[k], :]), out=out)
    return out


def test_length_check_matches_brute_force_oracle(monkeypatch):
    rng = np.random.default_rng(40)
    ring = [(i, (i + 1) % 23, float(rng.uniform(0.5, 2))) for i in range(23)]
    for s in (circle(9, 9.0), from_matrix(_euclid(rng, 15)), from_graph(
            [(i, (i + 1) % 12, float(rng.uniform(0.5, 2))) for i in range(12)]),
            from_graph(ring + [(0, 11, 4.0), (5, 17, 3.5)])):
        L = s.dist.tolist()
        wants = []
        for eps in (0.01, 0.6, 2.0):
            worst, pair, count = -math.inf, None, 0
            for i in range(s.n):
                for j in range(i + 1, s.n):
                    if L[i][j] > eps:
                        count += 1
                        excess = min(max(L[i][k], L[k][j]) for k in range(s.n)) - 0.5 * L[i][j]
                        if excess > worst:
                            worst, pair = excess, (i, j)
            wants.append({"passed": worst <= 0.5 * eps, "eps": eps, "worst_excess": worst,
                          "worst_pair": pair, "pairs_checked": count} if pair else
                         {"passed": True, "eps": eps, "worst_excess": 0.0, "worst_pair": None,
                          "pairs_checked": 0})
        upper = np.triu_indices(s.n, 1)
        A = np.where(np.eye(s.n, dtype=bool), np.inf, s.dist)
        detours = _per_k_min(A, np.add)[upper].tobytes()
        # the default tiles, then tiles of 3 rows at the top, taller further
        # down, whose k chunks hold about 2 values (23 is a multiple of
        # neither); each on a pool of 1 thread and of 2
        for cells, depth in ((spaces._TILE_CELLS, spaces._TILE_DEPTH), (6 * s.n, 2)):
            monkeypatch.setattr(spaces, "_TILE_CELLS", cells)
            monkeypatch.setattr(spaces, "_TILE_DEPTH", depth)
            for cores in (1, 2):
                monkeypatch.setattr(spaces, "_cores", lambda: cores)
                assert [approx_length_check(s, eps).to_dict() for eps in (0.01, 0.6, 2.0)] == wants
                assert spaces._detours(s.dist)[upper].tobytes() == detours
            monkeypatch.undo()


def test_the_sweep_keeps_the_bits_of_signed_zero_ties(monkeypatch):
    rng = np.random.default_rng(41)
    A = rng.choice([0.0, -0.0, 1.0, 2.0], size=(70, 70))
    upper = np.triu_indices(70, 1)
    for op in (np.add, np.maximum):
        want = _per_k_min(A, op)[upper].tobytes()
        for cells in (spaces._TILE_CELLS, 7 * 70, 64):
            monkeypatch.setattr(spaces, "_TILE_CELLS", cells)
            assert spaces._min_over_k(A, op)[upper].tobytes() == want


def test_the_sweep_warns_on_no_thread_near_the_top_of_double_range(monkeypatch):
    # no edges, so from_matrix runs the sweep; every sum of two entries
    # overflows. 64 points make two tiles, each run on a thread of the
    # call's pool, which is gone when the call returns
    rng = np.random.default_rng(42)
    D = np.triu(rng.uniform(1.0, 1.7, size=(64, 64)) * 1e308, 1)
    D = D + D.T
    names = []
    sweep_tile = spaces._sweep_tile
    monkeypatch.setattr(spaces, "_cores", lambda: 2)
    monkeypatch.setattr(spaces, "_sweep_tile", lambda *a: names.append(
        threading.current_thread().name) or sweep_tile(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = from_matrix(D)
        report = approx_length_check(s, 1.0)
    assert s.triangle_check == "sweep" and s.adjacency()[0].size == 64 * 63 // 2
    upper = np.triu_indices(64, 1)
    assert report.worst_excess == np.max(_per_k_min(D, np.maximum)[upper] - 0.5 * D[upper])
    assert len(names) == 4 and all(name.startswith("warpfill-sweep") for name in names)
    assert not [t.name for t in threading.enumerate() if t.name.startswith("warpfill-sweep")]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the fork start method is checked on Linux")
def test_a_forked_child_sweeps_as_its_parent(monkeypatch):
    # the parent sweeps on 2 threads first; the child starts with none
    monkeypatch.setattr(spaces, "_cores", lambda: 2)
    s = circle(128, 2 * math.pi)
    want = approx_length_check(s, 0.05).to_dict()
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_send_length_check, args=(theirs, s))
    child.start()
    try:
        assert ours.poll(60) and ours.recv() == want
    finally:
        child.join(60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def _send_length_check(conn, s):
    conn.send(approx_length_check(s, 0.05).to_dict())
