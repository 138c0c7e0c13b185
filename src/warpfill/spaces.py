"""Finite metric measure carriers.

A carrier stands in for the fiber space of a warped product: a symmetric
distance matrix satisfying the triangle inequality plus strictly positive
node measures. Downstream formulas only ever consume distance values, so
carriers are extensional; the length-space hypothesis is replaced by the
sampled midpoint check `approx_length_check`.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, shortest_path

from .errors import DomainError, SchemaError, ValidationError

_MAX_REPORTED = 200


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
        """Essential edges of the metric: pairs (i, j) whose distance is not
        realized through any third point. Shortest paths over these edges
        reproduce the full matrix. Cached; costs O(n^3)."""
        if self._adjacency is None:
            D = self.dist
            n = self.n
            atol = 1e-12 * max(1.0, float(D.max()))
            rows, cols, lens = [], [], []
            diag = np.arange(n)
            for i in range(n):
                through = D[i][:, None] + D
                through[i, :] = np.inf
                through[diag, diag] = np.inf  # excludes k == j per column
                relax = through.min(axis=0)
                keep = np.flatnonzero((relax > D[i] + atol) & (diag > i))
                rows.extend([i] * keep.size)
                cols.extend(keep.tolist())
                lens.extend(D[i, keep].tolist())
            self._adjacency = (np.asarray(rows, dtype=np.int64),
                               np.asarray(cols, dtype=np.int64),
                               np.asarray(lens, dtype=float))
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


def validate_matrix(dist, measure=None, atol: float = 1e-12) -> list:
    """Collect every metric violation of a candidate distance matrix.

    Returns a list of (kind, indices, details) tuples; empty means valid.
    The triangle tolerance is atol scaled by the largest entry.
    """
    D = np.asarray(dist, dtype=float)
    violations = []
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        return [("shape", D.shape, "matrix must be square")]
    n = D.shape[0]
    if not np.all(np.isfinite(D)):
        i, j = np.argwhere(~np.isfinite(D))[0]
        violations.append(("finite", (int(i), int(j)), float(D[i, j])))
        return violations
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

    if not violations:
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
    return violations


def from_matrix(matrix, measure=None, labels=None) -> CarrierSpace:
    """Validated carrier from an explicit distance matrix.

    Raises ValidationError carrying every violation found (asymmetry,
    negative entries, triangle failures, nonpositive measures).
    """
    D = np.asarray(matrix, dtype=float)
    if measure is None:
        measure = np.ones(D.shape[0] if D.ndim == 2 else 0)
    violations = validate_matrix(D, measure)
    if violations:
        raise ValidationError(f"invalid carrier: {len(violations)} violation(s), "
                              f"first: {violations[0]}", violations)
    return CarrierSpace(D, measure, labels)


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


class LengthCheckReport:
    def __init__(self, passed, eps, worst_excess, worst_pair, pairs_checked):
        self.passed = passed
        self.eps = eps
        self.worst_excess = worst_excess
        self.worst_pair = worst_pair
        self.pairs_checked = pairs_checked

    def to_dict(self):
        return {"passed": self.passed, "eps": self.eps, "worst_excess": self.worst_excess,
                "worst_pair": self.worst_pair, "pairs_checked": self.pairs_checked}


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
    n = space.n
    worst_excess = -math.inf
    worst_pair = None
    checked = 0
    for i in range(n):
        mids = np.minimum.reduce(np.maximum(D[i][:, None], D))  # min over k of max(d(i,k), d(k,j))
        sel = np.flatnonzero(D[i] > eps)
        sel = sel[sel > i]
        if sel.size == 0:
            continue
        checked += sel.size
        excess = mids[sel] - 0.5 * D[i, sel]
        k = int(np.argmax(excess))
        if excess[k] > worst_excess:
            worst_excess = float(excess[k])
            worst_pair = (i, int(sel[k]))
    if worst_pair is None:
        return LengthCheckReport(True, eps, 0.0, None, 0)
    return LengthCheckReport(worst_excess <= 0.5 * eps, eps, worst_excess, worst_pair, checked)


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
