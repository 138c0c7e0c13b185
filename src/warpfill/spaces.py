"""Finite metric measure carriers.

A carrier stands in for the fiber space of a warped product: a symmetric
distance matrix satisfying the triangle inequality plus strictly positive
node measures. Downstream formulas only ever consume distance values, so
carriers are extensional; the length-space hypothesis is replaced by the
sampled midpoint check `approx_length_check`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, shortest_path

from .errors import DomainError, SchemaError, ValidationError

_MAX_REPORTED = 200
_TILE_CELLS = 1 << 16


class CarrierSpace:
    """Finite metric measure space: distance matrix + node measures."""

    def __init__(self, dist, measure, labels=None):
        self.dist = np.asarray(dist, dtype=float)
        self.measure = np.asarray(measure, dtype=float)
        self.labels = list(labels) if labels is not None else None
        if self.dist.ndim != 2 or self.dist.shape[0] != self.dist.shape[1]:
            raise SchemaError("distance matrix must be square")
        if self.measure.shape != (self.dist.shape[0],):
            raise SchemaError("measure vector length must match the matrix")
        if self.labels is not None and len(self.labels) != self.dist.shape[0]:
            raise SchemaError("labels length must match the matrix")
        self._adjacency = None
        self._pred_cache = {}

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max())

    def total_measure(self) -> float:
        return float(self.measure.sum())

    def to_dict(self) -> dict:
        doc = {"n": self.n, "dist": self.dist.tolist(), "measure": self.measure.tolist()}
        if self.labels is not None:
            doc["labels"] = self.labels
        return doc

    def adjacency(self):
        """Essential edges (rows, cols, lens), row-major: pairs i < j whose
        `_detours` exceed d(i, j) + 1e-12 * max(1, max d), so that shortest paths
        over them reproduce the matrix. Cached; `from_matrix` seeds it."""
        if self._adjacency is None:
            self._adjacency = _skeleton(self.dist, _detours(self.dist))
        return self._adjacency

    def _skeleton_csr(self):
        rows, cols, lens = self.adjacency()
        return coo_matrix((lens, (rows, cols)), shape=(self.n, self.n)).tocsr()

    def chain(self, i: int, j: int) -> list:
        """A node chain from i to j whose consecutive hops sum to dist(i, j),
        following essential edges."""
        if i == j:
            return [i]
        if i not in self._pred_cache:
            _, pred = dijkstra(self._skeleton_csr(), directed=False, indices=i,
                               return_predecessors=True)
            self._pred_cache[i] = pred
        pred = self._pred_cache[i]
        path = [j]
        while path[-1] != i:
            p = int(pred[path[-1]])
            if p < 0:
                raise ValidationError(f"no chain from {i} to {j} in the metric skeleton")
            path.append(p)
        return path[::-1]


def _min_over_k(A, op):
    """out[i, j] = min over k of op(A[i, k], A[k, j]): an O(n^3) sweep over k,
    accumulated in place, in row tiles of 2^16 cells that stay in cache."""
    n = A.shape[0]
    out = np.full((n, n), np.inf)
    step = max(1, _TILE_CELLS // max(n, 1))
    buf = np.empty((min(step, n), n))
    for r0 in range(0, n, step):
        acc, tile = out[r0:r0 + step], A[r0:r0 + step]
        for k in range(n):
            np.minimum(acc, op(tile[:, k, None], A[k], out=buf[:len(tile)]), out=acc)
    return out


def _detours(D):
    """min over k not in {i, j} of D[i, k] + D[k, j] for i != j (inf when n <= 2),
    the sweep behind both the triangle check and the skeleton. An infinite
    diagonal makes the terms k = i and k = j infinite."""
    return _min_over_k(np.where(np.eye(len(D), dtype=bool), np.inf, D), np.add)


def _skeleton(D, detour):
    """(rows, cols, lens) of the pairs i < j with detour > D + atol."""
    atol = 1e-12 * max(1.0, float(D.max()))
    rows, cols = np.nonzero(np.triu(detour > D + atol, 1))
    return rows.astype(np.int64), cols.astype(np.int64), D[rows, cols]


def validate_matrix(dist, measure=None, atol: float = 1e-12) -> list:
    """Collect every metric violation of a candidate distance matrix.

    Returns a list of (kind, indices, details) tuples; empty means valid.
    The triangle tolerance is atol scaled by the largest entry.
    """
    return _check_matrix(dist, measure, atol)[0]


def _check_matrix(dist, measure=None, atol: float = 1e-12):
    """validate_matrix's list and `_detours(D)` (None if triangles went unchecked)."""
    D = np.asarray(dist, dtype=float)
    violations = []
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        return [("shape", D.shape, "matrix must be square")], None
    n = D.shape[0]
    if not np.all(np.isfinite(D)):
        i, j = np.argwhere(~np.isfinite(D))[0]
        violations.append(("finite", (int(i), int(j)), float(D[i, j])))
        return violations, None
    scale = max(1.0, float(np.abs(D).max()))
    tol = atol * scale

    bad = np.argwhere(np.abs(np.diag(D)) > tol)
    for (i,) in bad[:_MAX_REPORTED]:
        violations.append(("diagonal", int(i), float(D[i, i])))
    bad = np.argwhere(D < -tol)
    for i, j in bad[:_MAX_REPORTED]:
        violations.append(("negative", (int(i), int(j)), float(D[i, j])))
    asym = np.abs(D - D.T)
    bad = np.argwhere(np.triu(asym, 1) > tol)
    for i, j in bad[:_MAX_REPORTED]:
        violations.append(("asymmetry", (int(i), int(j)), float(D[i, j]), float(D[j, i])))

    detour = None if violations else _detours(D)
    # D - detour is exactly the largest excess over k not in {i, j} (rounding is
    # monotone), and a zero diagonal makes the excess for k in {i, j} exactly 0. So
    # when neither test fires, the per-k report loop would find nothing.
    if detour is not None and (np.any(np.diag(D) != 0.0) or np.any(np.triu(D - detour, 1) > tol)):
        count = 0
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
        m = np.asarray(measure, dtype=float)
        if m.shape != (n,):
            violations.append(("measure_shape", m.shape, n))
        else:
            if not np.all(np.isfinite(m)):
                violations.append(("measure_finite", int(np.argwhere(~np.isfinite(m))[0]), None))
            bad = np.argwhere(m <= 0.0)
            for (i,) in bad[:_MAX_REPORTED]:
                violations.append(("measure_positive", int(i), float(m[i])))
    return violations, detour


def from_matrix(matrix, measure=None, labels=None) -> CarrierSpace:
    """Validated carrier from an explicit distance matrix.

    Raises ValidationError carrying every violation found (asymmetry,
    negative entries, triangle failures, nonpositive measures). The validation
    sweep also seeds the skeleton, so `adjacency()` costs nothing more.
    """
    D = np.asarray(matrix, dtype=float)
    if measure is None:
        measure = np.ones(D.shape[0] if D.ndim == 2 else 0)
    violations, detour = _check_matrix(D, measure)
    if violations:
        raise ValidationError(f"invalid carrier: {len(violations)} violation(s), "
                              f"first: {violations[0]}", violations)
    space = CarrierSpace(D, measure, labels)
    space._adjacency = _skeleton(space.dist, detour)
    return space


def from_graph(edges, n: int | None = None, measure=None, labels=None) -> CarrierSpace:
    """Carrier induced by a weighted graph: all-pairs shortest-path metric.

    edges: iterable of (i, j, length) with positive lengths. The graph must
    be connected; otherwise the error names a stranded component. Node
    measures default to 1 per node.
    """
    edges = list(edges)
    if not edges and n in (None, 1):
        return CarrierSpace(np.zeros((1, 1)), np.ones(1), labels)
    ii = np.asarray([e[0] for e in edges], dtype=np.int64)
    jj = np.asarray([e[1] for e in edges], dtype=np.int64)
    ww = np.asarray([e[2] for e in edges], dtype=float)
    if np.any(ww <= 0.0) or not np.all(np.isfinite(ww)):
        k = int(np.argmin(ww))
        raise ValidationError(f"edge ({ii[k]}, {jj[k]}) has nonpositive length {ww[k]}")
    n = int(n if n is not None else max(ii.max(), jj.max()) + 1)
    graph = coo_matrix((ww, (ii, jj)), shape=(n, n)).tocsr()
    ncomp, comp = connected_components(graph, directed=False)
    if ncomp > 1:
        counts = np.bincount(comp)
        stranded = int(np.argmin(counts))
        nodes = np.flatnonzero(comp == stranded).tolist()
        raise ValidationError(
            f"graph is disconnected: component {nodes} is unreachable", [("disconnected", nodes)])
    D = shortest_path(graph, directed=False)
    if measure is None:
        measure = np.ones(n)
    return CarrierSpace(D, measure, labels)


def circle(n: int, circumference: float) -> CarrierSpace:
    """n equally spaced points on a circle with the arc-length metric;
    each node carries measure circumference / n."""
    if n < 3:
        raise DomainError(f"circle requires n >= 3, got {n}")
    if not (circumference > 0.0):
        raise DomainError(f"circle requires positive circumference, got {circumference}")
    idx = np.arange(n)
    hops = np.abs(idx[:, None] - idx[None, :])
    hops = np.minimum(hops, n - hops)
    D = hops * (circumference / n)
    measure = np.full(n, circumference / n)
    return CarrierSpace(D, measure)


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
    it stays within eps/2). O(n^3); report only, never raises.
    """
    if not (eps > 0.0):
        raise DomainError("approx_length_check requires eps > 0")
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
    with open(path, "w") as fh:
        json.dump(space.to_dict(), fh)
        fh.write("\n")


def _numeric_field(path: str, doc: dict, key: str, kind=None):
    """doc[key] as a float array, or as kind(doc[key]); SchemaError naming the
    field when it does not convert (non-numeric entries, ragged rows)."""
    try:
        return kind(doc[key]) if kind else np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"space file {path!r}: field {key!r} is malformed: {exc}") from exc


def _load_json(path: str) -> CarrierSpace:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"space file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dist" not in doc:
        raise SchemaError(f"space file {path!r} must be an object with a 'dist' matrix")
    dist = _numeric_field(path, doc, "dist")
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise SchemaError(f"space file {path!r}: 'dist' must be a square matrix")
    n = dist.shape[0]
    if "n" in doc and _numeric_field(path, doc, "n", int) != n:
        raise SchemaError(f"space file {path!r}: declared n={doc['n']} but matrix is {n}x{n}")
    measure = _numeric_field(path, doc, "measure") if "measure" in doc else np.ones(n)
    return from_matrix(dist, measure, doc.get("labels"))


def _load_csv(path: str) -> CarrierSpace:
    try:
        raw = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"space file {path!r} is not numeric CSV: {exc}") from exc
    n, cols = raw.shape
    if cols != n + 1:
        raise SchemaError(
            f"space CSV {path!r} must have n rows of n distances plus a measure column "
            f"(got {n}x{cols})")
    return from_matrix(raw[:, :n], raw[:, n])


def load_space(path: str) -> CarrierSpace:
    """Load a carrier from JSON ({"n", "dist", "measure", "labels"}) or CSV
    (n distance columns plus a trailing measure column)."""
    if path.endswith(".csv"):
        return _load_csv(path)
    return _load_json(path)
