"""Finite metric measure carriers.

A carrier stands in for the fiber space of a warped product: a symmetric
distance matrix satisfying the triangle inequality plus strictly positive
node measures. Downstream formulas only ever consume distance values, so
carriers are extensional; the length-space hypothesis is replaced by the
sampled midpoint check `approx_length_check`.

A carrier born from a graph (`circle`, `from_graph`) also keeps its edge
set. Loading such a carrier proves the triangle inequality from the edges
in O(|E| n) (`_edge_certificate`) in place of the O(n^3) detour sweep, and
falls back to the sweep whenever the proof fails.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np
import orjson

from .errors import DomainError, SchemaError, ValidationError

_MAX_REPORTED = 200
# metric tolerance relative to the largest |entry| (`_tolerance`)
_ATOL = 1e-12
_TILE_CELLS = 1 << 16
# a tile of `_min_over_k` holds about _TILE_CELLS / _TILE_DEPTH pairs, and
# its scratch about _TILE_DEPTH values of k for each
_TILE_DEPTH = 32
_UNIT_ROUNDOFF = 2.0 ** -53


class CarrierSpace:
    """Finite metric measure space: distance matrix + node measures, and
    optionally the edge set of the graph the matrix came from.

    `edges` is None or an (m, 2) int64 array of node pairs i < j, sorted and
    unique. `triangle_check` says how `from_matrix` proved the triangle
    inequality ("edge certificate" or "sweep"); None for an unvalidated
    carrier."""

    def __init__(self, dist, measure, labels=None, edges=None):
        self.dist = np.asarray(dist, dtype=float)
        self.measure = np.asarray(measure, dtype=float)
        self.labels = list(labels) if labels is not None else None
        if self.dist.ndim != 2 or self.dist.shape[0] != self.dist.shape[1]:
            raise SchemaError("distance matrix must be square")
        if self.measure.shape != (self.dist.shape[0],):
            raise SchemaError("measure vector length must match the matrix")
        if self.labels is not None and len(self.labels) != self.dist.shape[0]:
            raise SchemaError("labels length must match the matrix")
        self.edges = None if edges is None else _edge_array(edges, self.dist.shape[0])
        self.triangle_check = None
        self._adjacency = None

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max())

    def total_measure(self) -> float:
        return float(self.measure.sum())

    def to_dict(self) -> dict:
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in self._fields().items()}

    def _fields(self) -> dict:
        """`to_dict` with C-contiguous arrays in place of the nested lists."""
        doc = {"n": self.n, "dist": np.ascontiguousarray(self.dist),
               "measure": np.ascontiguousarray(self.measure)}
        if self.labels is not None:
            doc["labels"] = self.labels
        if self.edges is not None:
            doc["edges"] = np.ascontiguousarray(self.edges)
        return doc

    def adjacency(self):
        """Essential edges (rows, cols, lens), row-major: pairs i < j whose
        `_detours` exceed d(i, j) + `_tolerance(d)`, so that shortest paths
        over them reproduce the matrix. Cached; `from_matrix` seeds it when it
        ran the sweep. When the edge certificate's check (H) holds, every
        essential pair is an edge, and only the edge pairs' detours are
        computed; the result is bitwise the sweep's."""
        if self._adjacency is None:
            D = self.dist
            if self.edges is not None and (self.triangle_check == "edge certificate"
                                           or _edge_certificate(D, self.edges)[1]):
                rows, cols = self.edges.T
                self._adjacency = _essential(D, rows, cols, _pair_detours(D, rows, cols))
            else:
                rows, cols = np.triu_indices(self.n, 1)
                self._adjacency = _essential(D, rows, cols, _detours(D)[rows, cols])
        return self._adjacency


def _min_over_k(A, op):
    """out[i, j] = min over k of op(A[i, k], A[k, j]) for i < j: an O(n^3)
    sweep over the strict upper triangle alone. Every other cell holds inf or
    the same min.

    The triangle is cut into row tiles, rows r0 <= i < r1 against columns
    j >= r0, of about _TILE_CELLS / _TILE_DEPTH cells each (one row at
    least). A tile sweeps k in chunks whose terms fill a scratch block of
    about _TILE_CELLS cells, and folds each chunk's min into its cells. The
    tiles run on a thread pool opened for this call, with at most one thread
    per tile and per core the process may use, and closed before it returns;
    the exception of the first tile that raised, in tile order, is raised. A
    min is exact, so every cell is the least of the same rounded terms however
    the tiles, chunks and threads fall."""
    from concurrent.futures import ThreadPoolExecutor  # on use: loading it costs start-up time

    n = A.shape[0]
    out = np.full((n, n), np.inf)
    tiles, r0 = [], 0
    while r0 < n - 1:
        r1 = min(n - 1, r0 + max(1, _TILE_CELLS // _TILE_DEPTH // (n - r0)))
        tiles.append((r0, r1))
        r0 = r1
    with ThreadPoolExecutor(_cores(), thread_name_prefix="warpfill-sweep") as pool:
        for _ in pool.map(lambda tile: _sweep_tile(A, op, out, tile), tiles):
            pass
    return out


def _sweep_tile(A, op, out, tile):
    """`_min_over_k` on rows r0 <= i < r1 and columns j >= r0 of out. The
    column j = r0 is swept too, so that every chunk's min runs over at least
    two columns: numpy takes the min along k in k order there, and one column
    alone is reduced in another order, which could pick the other zero of a
    tie between 0.0 and -0.0."""
    r0, r1 = tile
    n = A.shape[0]
    acc = out[r0:r1, r0:]
    depth = max(1, _TILE_CELLS // acc.size)
    terms = np.empty((r1 - r0, min(depth, n), n - r0))
    least = np.empty(acc.shape)
    # a sum past double range is inf; set here, as numpy keeps the error state per thread
    with np.errstate(over="ignore"):
        for k0 in range(0, n, depth):
            chunk = terms[:, :min(depth, n - k0)]
            op(A[r0:r1, k0:k0 + depth, None], A[None, k0:k0 + depth, r0:], out=chunk)
            np.minimum(acc, np.minimum.reduce(chunk, axis=1, out=least), out=acc)


def _cores() -> int:
    """The number of cores the process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _detours(D):
    """min over k not in {i, j} of D[i, k] + D[k, j] for i < j (inf when
    n <= 2), the sweep behind both the triangle check and the skeleton; the
    cells i >= j are not read. An infinite diagonal makes the terms k = i and
    k = j infinite; a sum past double range is infinite too, without a
    warning."""
    return _min_over_k(np.where(np.eye(len(D), dtype=bool), np.inf, D), np.add)


def _tolerance(D) -> float:
    """The metric tolerance: 1e-12 times the largest |entry| of D."""
    return _ATOL * float(np.abs(D).max())


def _pair_detours(D, rows, cols):
    """`_detours(D)[rows, cols]` for the given pairs alone, in O(len(rows) n):
    the same sums and an exact min, so the same bits."""
    A = np.where(np.eye(len(D), dtype=bool), np.inf, D)
    AT = np.ascontiguousarray(A.T)
    out = np.empty(len(rows))
    step = max(1, _TILE_CELLS // max(len(D), 1))
    with np.errstate(over="ignore"):  # inf, as in `_detours`
        for e0 in range(0, len(rows), step):
            s = slice(e0, e0 + step)
            out[s] = (A[rows[s]] + AT[cols[s]]).min(axis=1)
    return out


def _essential(D, rows, cols, detour):
    """(rows, cols, lens) of the pairs (rows, cols) whose detour exceeds
    D + `_tolerance(D)`, in the given order. A pair with no finite detour is
    kept even where D + tol rounds to inf."""
    tol = _tolerance(D)
    with np.errstate(over="ignore"):
        keep = (detour > D[rows, cols] + tol) | np.isinf(detour)
    rows, cols = rows[keep].astype(np.int64), cols[keep].astype(np.int64)
    return rows, cols, D[rows, cols]


def _edge_certificate(D, edges):
    """(relaxed, hops): the checks (R) and (H) that prove, in O(|E| n), what
    the O(n^3) sweep would find for a nonnegative D with a zero diagonal.

    With u = 2^-53, s = max D, the largest entry, and tol = 1e-12 s (the
    sweep's `_tolerance`), and eps as below, for every directed edge x -> y
    (both orientations of each edge):
      (R) D[i, y] - fl(D[i, x] + D[x, y]) <= eps for every i;
      (H) every pair i != j has an edge x -> j with D[i, x] < D[i, j] and
          fl(D[i, x] + D[x, j]) - D[i, j] <= eps.
    Both differences are rounded, so each check holds exactly up to
    eps (1 + u).

    Triangles. Take i, j and k not in {i, j}. Following (H) back from j in
    row k gives a chain k = v_0, ..., v_m = j of edges along which D[k, .]
    strictly decreases, so m <= n - 1. Write w_t = D[v_t, v_t+1] and note
    every entry is in [0, s]. A rounded sum of nonnegatives errs by at most
    u times its value, so (H) gives w_t <= D[k, v_t+1] - D[k, v_t]
    + eps (1 + 3u) + u s, which telescopes (D[k, k] = 0) to
    sum w_t <= D[k, j] + m (eps (1 + 3u) + u s), and (R) in row i gives
    D[i, v_t+1] <= D[i, v_t] + w_t + 2 u s + eps (1 + u). So
        D[i, j] <= D[i, k] + D[k, j] + m (2 eps (1 + 2u) + 3 u s),
    and the sweep's own rounding of D[i, k] + D[k, j] adds at most 2 u s.
    With eps = (0.99 tol - (3n + 1) u s) / (2 (n - 1)) the sweep's excess
    stays below 0.99 tol (1 + 2u) - 2 u s < tol, so it reports no triangle;
    the 1 % also covers the rounding of eps itself while eps is a normal
    double (a rounded sum is within u of its value at every magnitude), so
    no certificate is tried where eps is below 2^-1022 (s under about
    1e-293 at n = 256), as on an all-zero D. eps is about 16 u s at
    n = 256, 7 u s at 512 and 3 u s at 1024, and not positive from n = 3000.

    Skeleton. For a pair i < j that is not an edge, the x of (H) is neither
    i nor j, so the sweep's detour is at most D[i, j] + eps (1 + u), below
    fl(D[i, j] + tol): the pair is not essential. This uses (H) alone.
    """
    n = len(D)
    eps = (0.99 * _ATOL - (3 * n + 1) * _UNIT_ROUNDOFF) * float(D.max()) / (2 * max(n - 1, 1))
    if not (2.0 ** -1022 <= eps < np.inf and D.min() >= 0.0 and not np.diag(D).any()):
        return False, False
    src, dst = np.concatenate([edges, edges[:, ::-1]]).T
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    w = D[src, dst]
    DT = np.ascontiguousarray(D.T)  # DT[x] = D[:, x]
    relaxed = True
    covered = np.zeros((n, n), dtype=bool)  # covered[j, i]: (H) holds for (i, j)
    step = max(1, _TILE_CELLS // n)
    with np.errstate(over="ignore"):  # a sum past double range is an inf that fails (H)
        for e0 in range(0, len(src), step):
            s = slice(e0, e0 + step)
            near, far = DT[src[s]], DT[dst[s]]
            diff = (near + w[s, None]) - far
            relaxed = relaxed and bool(diff.min() >= -eps)
            hop = (near < far) & (diff <= eps)
            y = dst[s]
            first = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
            covered[y[first]] |= np.logical_or.reduceat(hop, first, axis=0)
    np.fill_diagonal(covered, True)
    return relaxed, bool(covered.all())


def _edge_array(edges, n: int) -> np.ndarray:
    """edges as a sorted, duplicate-free (m, 2) int64 array of pairs i < j;
    SchemaError unless it is a list of [i, j] integer pairs with
    0 <= i, j < n and i != j."""
    try:
        arr = np.asarray(edges)
    except ValueError as exc:
        raise SchemaError(f"'edges' must be a list of [i, j] pairs: {exc}") from exc
    if arr.size == 0 and arr.shape in ((0,), (0, 2)):
        return np.zeros((0, 2), dtype=np.int64)
    if arr.dtype.kind not in "iu":
        raise SchemaError(f"'edges' entries must be integers, got dtype {arr.dtype}")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SchemaError(f"'edges' must have shape (m, 2), got {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise SchemaError(f"'edges' holds a node index outside [0, {n})")
    if np.any(arr[:, 0] == arr[:, 1]):
        k = int(np.argmax(arr[:, 0] == arr[:, 1]))
        raise SchemaError(f"'edges' holds a self-loop at node {int(arr[k, 0])}")
    i, j = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))  # row-major order of the pairs
    return np.column_stack([keys // n, keys % n])


def validate_matrix(dist, measure=None) -> list:
    """Collect every metric violation of a candidate distance matrix.

    Returns a list of (kind, indices, details) tuples; empty means valid.
    The tolerance is 1e-12 times the largest |entry| (`_tolerance`).
    """
    return _check_matrix(dist, measure)[0]


def _check_matrix(dist, measure=None, edges=None):
    """validate_matrix's list and `_detours(D)`. The detours are None when
    other violations left the triangles unchecked, or when `edges` (an
    `_edge_array`) let `_edge_certificate` prove them without the sweep."""
    D = np.asarray(dist, dtype=float)
    violations = []
    if D.ndim != 2 or D.shape[0] != D.shape[1] or D.size == 0:
        return [("shape", D.shape, "matrix must be square and non-empty")], None
    n = D.shape[0]
    if not np.all(np.isfinite(D)):
        i, j = np.argwhere(~np.isfinite(D))[0]
        violations.append(("finite", (int(i), int(j)), float(D[i, j])))
        return violations, None
    tol = _tolerance(D)

    bad = np.argwhere(np.abs(np.diag(D)) > tol)
    for (i,) in bad[:_MAX_REPORTED]:
        violations.append(("diagonal", int(i), float(D[i, i])))
    bad = np.argwhere(D < -tol)
    for i, j in bad[:_MAX_REPORTED]:
        violations.append(("negative", (int(i), int(j)), float(D[i, j])))
    bits = D.view(np.int64)
    if not np.array_equal(bits, bits.T):
        with np.errstate(over="ignore"):  # a difference past double range is inf
            asym = np.abs(D - D.T)
        bad = np.argwhere(np.triu(asym, 1) > tol)
        for i, j in bad[:_MAX_REPORTED]:
            violations.append(("asymmetry", (int(i), int(j)), float(D[i, j]), float(D[j, i])))

    certified = not violations and edges is not None and all(_edge_certificate(D, edges))
    detour = None if violations or certified else _detours(D)
    # D - detour is exactly the largest excess over k not in {i, j} (rounding is
    # monotone), and a zero diagonal makes the excess for k in {i, j} exactly 0. So
    # when neither test fires, the per-k report loop would find nothing.
    if detour is not None and (np.any(np.diag(D) != 0.0) or np.any(np.triu(D - detour, 1) > tol)):
        count = 0
        with np.errstate(over="ignore"):  # a sum past double range is inf, as in the sweep
            for k in range(n):
                excess = D - (D[:, [k]] + D[[k], :])
                bad = np.argwhere(np.triu(excess, 1) > tol)
                for i, j in bad:
                    count += 1
                    if count <= _MAX_REPORTED:
                        violations.append(("triangle", (int(i), int(j), int(k)),
                                           float(D[i, j]), float(D[i, k] + D[k, j])))
        if count > _MAX_REPORTED:
            violations.append(("triangle_overflow", count, "additional violations elided"))

    if measure is not None:
        violations += _measure_violations(measure, n)
    return violations, detour


def _measure_violations(measure, n: int) -> list:
    """The violations of node measures for n points: a wrong shape, a
    non-finite or nonpositive entry, or a total past double range."""
    m = np.asarray(measure, dtype=float)
    if m.shape != (n,):
        return [("measure_shape", m.shape, n)]
    violations = []
    finite = np.all(np.isfinite(m))
    if not finite:
        violations.append(("measure_finite", int(np.argmax(~np.isfinite(m))), None))
    bad = np.argwhere(m <= 0.0)
    for (i,) in bad[:_MAX_REPORTED]:
        violations.append(("measure_positive", int(i), float(m[i])))
    with np.errstate(over="ignore"):
        if finite and not bad.size and m.sum() == np.inf:
            violations.append(("measure_total", None, "overflows double precision"))
    return violations


def from_matrix(matrix, measure=None, labels=None, edges=None) -> CarrierSpace:
    """Validated carrier from an explicit distance matrix.

    Raises ValidationError carrying every violation found (asymmetry,
    negative entries, triangle failures, nonpositive measures). Given the
    edges of a graph whose path metric the matrix is (pairs [i, j]), it
    proves the triangle inequality with `_edge_certificate` in O(|E| n),
    and `adjacency()` later computes detours for the edge pairs alone.
    Without edges, or when that proof fails, it runs the O(n^3) sweep,
    which also seeds the skeleton. Either way the outcome is the sweep's.
    """
    D = np.asarray(matrix, dtype=float)
    n = D.shape[0] if D.ndim == 2 else 0
    return _validated(D, measure, labels, None if edges is None else _edge_array(edges, n))


def _validated(D: np.ndarray, measure, labels, edges) -> CarrierSpace:
    """`from_matrix` on a float matrix and edges that are already an
    `_edge_array`, which is not made again."""
    if measure is None:
        measure = np.ones(D.shape[0] if D.ndim == 2 else 0)
    violations, detour = _check_matrix(D, measure, edges)
    _refuse(violations)
    space = CarrierSpace(D, measure, labels)
    space.edges = edges
    if detour is None:
        space.triangle_check = "edge certificate"
    else:
        space.triangle_check = "sweep"
        rows, cols = np.triu_indices(space.n, 1)
        space._adjacency = _essential(space.dist, rows, cols, detour[rows, cols])
    return space


def from_graph(edges, n: int | None = None, measure=None, labels=None) -> CarrierSpace:
    """Carrier induced by a weighted graph: all-pairs shortest-path metric.

    edges: iterable of (i, j, length) with positive lengths. Parallel edges
    are allowed, and a pair listed more than once keeps its shortest length.
    The graph must be connected; otherwise the error names a stranded
    component. Node measures default to 1 per node; like `from_matrix`, it
    raises ValidationError for measures that are not finite, not positive
    or whose total overflows.
    """
    from scipy.sparse import coo_matrix  # on use: loading it costs start-up time
    from scipy.sparse.csgraph import connected_components, shortest_path

    edges = list(edges)
    if not edges and n in (None, 1):
        return _measured(np.zeros((1, 1)), measure, labels, np.zeros((0, 2), np.int64))
    ii = np.asarray([e[0] for e in edges], dtype=np.int64)
    jj = np.asarray([e[1] for e in edges], dtype=np.int64)
    ww = np.asarray([e[2] for e in edges], dtype=float)
    if np.any(ww <= 0.0) or not np.all(np.isfinite(ww)):
        k = int(np.argmin(ww))
        raise ValidationError(f"edge ({ii[k]}, {jj[k]}) has nonpositive length {ww[k]}")
    n = int(n if n is not None else max(ii.max(), jj.max()) + 1)
    # tocsr() sums duplicate entries, so keep only the shortest of each (i, j)
    order = np.lexsort((ww, jj, ii))
    k = order[np.unique(np.column_stack([ii, jj])[order], axis=0, return_index=True)[1]]
    graph = coo_matrix((ww[k], (ii[k], jj[k])), shape=(n, n)).tocsr()
    ncomp, comp = connected_components(graph, directed=False)
    if ncomp > 1:
        counts = np.bincount(comp)
        stranded = int(np.argmin(counts))
        nodes = np.flatnonzero(comp == stranded).tolist()
        raise ValidationError(
            f"graph is disconnected: component {nodes} is unreachable", [("disconnected", nodes)])
    D = shortest_path(graph, directed=False)
    return _measured(D, measure, labels, np.column_stack([ii, jj])[ii != jj])


def _measured(D: np.ndarray, measure, labels, edges) -> CarrierSpace:
    """CarrierSpace(D, measure, labels, edges), its measure (1 per node by
    default) checked as `_check_matrix` checks it."""
    if measure is None:
        measure = np.ones(D.shape[0])
    _refuse(_measure_violations(measure, D.shape[0]))
    return CarrierSpace(D, measure, labels, edges)


def _refuse(violations: list) -> None:
    """Raise ValidationError carrying the violations, if there are any."""
    if violations:
        raise ValidationError(f"invalid carrier: {len(violations)} violation(s), "
                              f"first: {violations[0]}", violations)


def circle(n: int, circumference: float) -> CarrierSpace:
    """n equally spaced points on a circle with the arc-length metric;
    each node carries measure circumference / n. The edges join neighbours."""
    if n < 3:
        raise DomainError(f"circle requires n >= 3, got {n}")
    if not (circumference > 0.0):
        raise DomainError(f"circle requires positive circumference, got {circumference}")
    idx = np.arange(n)
    hops = np.abs(idx[:, None] - idx[None, :])
    hops = np.minimum(hops, n - hops)
    D = hops * (circumference / n)
    measure = np.full(n, circumference / n)
    return CarrierSpace(D, measure, edges=np.column_stack([idx, (idx + 1) % n]))


@dataclass
class LengthCheckReport:
    passed: bool
    eps: float
    worst_excess: float
    worst_pair: tuple | None
    pairs_checked: int

    def to_dict(self) -> dict:
        return asdict(self)


def approx_length_check(space: CarrierSpace, eps: float) -> LengthCheckReport:
    """Midpoint surrogate for the length-space hypothesis.

    For every pair with dist > eps there must be a point k within distance
    (dist + eps)/2 of both ends, i.e. an approximate midpoint of an
    eps-short curve. Reports the worst excess best_k - dist/2 (pass iff
    it stays within eps/2). O(n^3); a failed check is reported, not raised,
    and an eps that is not finite and positive raises DomainError.
    """
    if not (0.0 < eps < np.inf):
        raise DomainError(f"approx_length_check requires a finite eps > 0, got {eps!r}")
    D = space.dist
    i, j = np.nonzero(np.triu(D > eps, 1))
    if i.size == 0:
        return LengthCheckReport(True, eps, 0.0, None, 0)
    # min over k of max(d(i, k), d(k, j)), minus half the distance
    excess = _min_over_k(D, np.maximum)[i, j] - 0.5 * D[i, j]
    k = int(np.argmax(excess))  # the first worst pair in row-major order
    worst = float(excess[k])
    return LengthCheckReport(worst <= 0.5 * eps, eps, worst, (int(i[k]), int(j[k])), int(i.size))


def save_space(space: CarrierSpace, path: str) -> None:
    # shortest round-trip float text, so every double reads back bit for bit;
    # numpy scalars among the labels are written as the numbers they hold.
    # orjson writes the arrays themselves, with the bytes it writes for
    # `to_dict()`'s lists, and appends the newline in place: the only
    # transient is the file's text
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(space._fields(), option=orjson.OPT_SERIALIZE_NUMPY
                              | orjson.OPT_APPEND_NEWLINE))


def _numeric_field(path: str, doc: dict, key: str, kind=None):
    """doc[key] as a float array, or as kind(doc[key]); SchemaError naming the
    field when it does not convert (non-numeric entries, ragged rows)."""
    try:
        return kind(doc[key]) if kind else np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"space file {path!r}: field {key!r} is malformed: {exc}") from exc


def _load_json(path: str) -> CarrierSpace:
    """The carrier in a JSON space file. The file's bytes are dropped once
    parsed, and the parsed document once its fields are arrays, so neither
    is alive while the carrier is validated."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        # strict JSON: NaN, Infinity and out-of-range numbers such as 1e400
        # are refused here, as is text that is not UTF-8
        doc = orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        raise SchemaError(f"space file {path!r} is not valid JSON: {exc}") from exc
    del raw
    if not isinstance(doc, dict) or "dist" not in doc:
        raise SchemaError(f"space file {path!r} must be an object with a 'dist' matrix")
    dist = _numeric_field(path, doc, "dist")
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise SchemaError(f"space file {path!r}: 'dist' must be a square matrix")
    n = dist.shape[0]
    if "n" in doc and _numeric_field(path, doc, "n", int) != n:
        raise SchemaError(f"space file {path!r}: declared n={doc['n']} but matrix is {n}x{n}")
    measure = _numeric_field(path, doc, "measure") if "measure" in doc else np.ones(n)
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list) and len(labels) == n):
        raise SchemaError(f"space file {path!r}: field 'labels' must be a list of {n} labels")
    edges = doc.get("edges")
    if edges is not None:
        try:
            edges = _edge_array(edges, n)
        except SchemaError as exc:
            raise SchemaError(f"space file {path!r}: field {exc}") from exc
    del doc
    return _validated(dist, measure, labels, edges)


def _load_csv(path: str) -> CarrierSpace:
    try:
        with warnings.catch_warnings():
            # a file with no rows is refused below, without numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            raw = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"space file {path!r} is not numeric CSV: {exc}") from exc
    n, cols = raw.shape
    if n == 0 or cols != n + 1:
        raise SchemaError(
            f"space CSV {path!r} must have n >= 1 rows of n distances plus a measure column "
            f"(got {n}x{cols})")
    return from_matrix(raw[:, :n], raw[:, n])


def load_space(path: str) -> CarrierSpace:
    """Load a carrier from JSON ({"n", "dist", "measure", "labels", "edges"})
    or CSV (n distance columns plus a trailing measure column)."""
    if path.endswith(".csv"):
        return _load_csv(path)
    return _load_json(path)
