"""Discrete Sobolev-Poincare verification on weighted filling graphs.

A filling graph discretizes the warped half-line product: radial levels
t_i = i*dt carry cells [t_i, t_i + dt) whose weight mass multiplies the
carrier node measures, radial edges have length dt, and horizontal edges
at level t_i have length psi(t_i) * d_Y along essential carrier edges.
When psi(0) = 0 the whole bottom level collapses to a single apex node.

The global inequality under test is inf_c ||u - c||_p <= C ||g||_p with
g the discrete upper gradient (edge difference quotients, node values by
incident maximum). The reference constants are

    general weight with growth parameter a:  (p(p-1)^{p-1} + p^p)^{1/p} / a
    exponential weight e^{beta t}:           ((2/beta)((p-1)/beta)^{p-1})^{1/p}

and the failure threshold for the sharp counterexample is p = beta/alpha.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConvergenceError, DomainError, PreconditionError, ResourceCapError,
                     ValidationError)
from .profiles import WarpProfile
from .spaces import CarrierSpace

DEFAULT_MAX_NODES = 2_000_000
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# sinh cells: Gauss-Legendre up to a change of e^_STEEP across a cell; a steeper
# cell keeps its top _TOP e-folds, in _PANELS panels
_STEEP, _TOP, _PANELS = 16.0, 40.0, 8
_FAR = 700.0
_CHUNK = 1 << 16
# brentq iterations before ConvergenceError; on a bracket narrowed to _SPAN
# doubles (one binade), 3600 seeded adversarial inputs (values over 300 decades,
# weights e^(-300..600)) took at most 154, on a root within an ulp of a value
# holding nearly all the weight
_ROOT_MAXITER = 3000
_SPAN = 1 << 52
# values per block of `_SlopeBounds`, and the least count of values they
# are used for: below about 1000 values a full pass costs no more than the
# bounds (on a 2-core x86-64 VM, 15 us against 16 us at 200 values, 136 us
# against 25 us at 20,000)
_BLOCK = 32
_BOUNDED = 1024


def _fiber(node_y: np.ndarray, values: np.ndarray, apex_value: float = 0.0) -> np.ndarray:
    """values[y] at each node, apex_value at the apex (node_y -1)."""
    return np.where(node_y >= 0, values[np.maximum(node_y, 0)], apex_value)


def _ramp(t):
    """0 up to t = 1, 1 from t = 2, linear between."""
    return np.clip(t - 1.0, 0.0, 1.0)


def _hat(t):
    """Tent of height 1 on [1, 3], peaking at t = 2."""
    return np.maximum(0.0, 1.0 - np.abs(t - 2.0))


def _cell_masses(weight_kind: str, beta: float, levels: np.ndarray, dt: float) -> np.ndarray:
    """Integral of the weight, "exp" or "sinh", over each cell [t_i, t_i + dt)."""
    if weight_kind == "exp":
        return (np.exp(beta * (levels + dt)) - np.exp(beta * levels)) / beta
    # sinh: 16-point Gauss-Legendre per cell where sinh^beta changes by at
    # most e^_STEEP across it (error about 1e-14 against quad; 8e-10 seen at
    # e^40, 2e-7 at e^66); steeper cells are summed near their top, and so are
    # cells reaching past t = _FAR, since `_sinh_top` works in log space and
    # holds sinh^beta where it is finite though sinh t overflows (t past
    # about 710.5)
    mid = levels + 0.5 * dt
    pts = mid[:, None] + 0.5 * dt * _GL_NODES[None, :]
    masses = 0.5 * dt * np.sinh(pts) ** beta @ _GL_WEIGHTS
    steep = (beta * dt > _STEEP * np.tanh(levels)) | (levels + dt > _FAR)
    steep[0] = False
    masses[steep] = _sinh_top(levels[steep] + dt, dt, beta)
    masses[0] = _first_sinh_cell(beta, dt)
    return masses


def _sinh_top(top: np.ndarray, width: float, beta: float) -> np.ndarray:
    """Integral of sinh^beta over [top - width, top], for top >= 2 width.

    The rate beta coth t of log sinh^beta is at least r = beta coth(top)
    below the top, so the part below top - 40/r is under 1e-17 of the
    cell and is left out. What is kept, of width w, lies in [top/2, top],
    where the rate is at most 2r: 8 Gauss-Legendre panels change the
    integrand by at most e^10 each. The integrand is
    sinh(top)^beta e^(beta g(s)) at t = top - s, with
    g(s) = log(sinh(top - s) / sinh(top)) = log1p(-(A + B)),
    A = (coth(top) - 1) sinh(s), B = 1 - e^(-s), both >= 0, near the top,
    and log(expm1(-2 (top - s)) / expm1(-2 top)) - s where A + B > 1/2;
    both are accurate to rounding for any beta, and the cell is assembled
    in log space.
    """
    w = np.minimum(width, _TOP * np.tanh(top) / beta)
    top2 = top[:, None]
    integral = np.zeros(top.size)
    for k in range(_PANELS):
        s = (w[:, None] / _PANELS) * (k + 0.5 * (1.0 + _GL_NODES))
        near = np.expm1(-s) - np.exp(s - 2.0 * top2) * np.expm1(-2.0 * s) / np.expm1(-2.0 * top2)
        deep = np.log(np.expm1(-2.0 * (top2 - s)) / np.expm1(-2.0 * top2)) - s
        g = np.where(near > -0.5, np.log1p(np.maximum(near, -0.5)), deep)
        integral += np.exp(beta * g) @ _GL_WEIGHTS
    integral *= 0.5 * w / _PANELS
    log_sinh = top + np.log(-np.expm1(-2.0 * top)) - math.log(2.0)
    return np.exp(beta * log_sinh + np.log(integral))


def _first_sinh_cell(beta: float, dt: float) -> float:
    """Integral of sinh^beta over [0, dt].

    sinh^beta is only Hoelder at 0, so the halves [x/2, x] for x = dt,
    dt/2, ... are cells of `_sinh_top`, in one call, until the first x with
    x^2 max(1, beta) <= 1e-7. On [0, x], (sinh t / t)^beta =
    1 + beta t^2/6 + beta (5 beta - 2) t^4/360 + ..., so the integral is
    x^(beta+1)/(beta+1) (1 + beta (beta+1) x^2 / (6 (beta+3))) with the
    t^4 term, under 2e-16 of it there, left out; it is taken in log space.
    The cell is inf or 0 only where its integral leaves double range, for
    the caller to refuse.
    """
    x, tops = dt, []
    while x * x * max(1.0, beta) > 1e-7:
        tops.append(x)
        x *= 0.5
    tops = np.array(tops)
    halves = float(np.sum(_sinh_top(tops, 0.5 * tops, beta)))
    bend = beta * x * x / 6.0 * ((beta + 1.0) / (beta + 3.0))
    return halves + math.exp((beta + 1.0) * math.log(x) - math.log1p(beta) + math.log1p(bend))


def _level_grid(measure: np.ndarray, has_apex: bool, weight_kind: str, beta: float,
                t_max: float, dt: float):
    """Levels t_i = i*dt, i < round(t_max/dt), and their cell masses for a
    filling over a carrier with these node measures (bottom level one apex
    node if has_apex); refuses bad arguments, more than WARPFILL_MAX_NODES
    nodes and node measures that are not finite and positive."""
    if not (dt > 0.0) or not (t_max >= dt):
        raise DomainError("need dt > 0 and t_max >= dt")
    if not math.isfinite(t_max):
        raise DomainError(f"t_max must be finite, got {t_max}")
    if not (beta > 0.0):
        raise DomainError("need beta > 0")
    if weight_kind not in ("exp", "sinh"):
        raise DomainError(f"unknown weight kind {weight_kind!r}")
    n = measure.size
    cap = os.environ.get("WARPFILL_MAX_NODES") or DEFAULT_MAX_NODES
    try:
        cap = int(cap)
    except ValueError:
        raise DomainError(f"WARPFILL_MAX_NODES must be an integer, got {cap!r}") from None
    ratio = float(t_max) / float(dt)
    if not math.isfinite(ratio):
        raise ResourceCapError(
            f"filling graph would have more than the cap {cap} nodes: its level count "
            f"t_max/dt = {t_max}/{dt} overflows double precision (WARPFILL_MAX_NODES)")
    n_levels = int(round(ratio))
    n_nodes = n_levels * n - (n - 1 if has_apex else 0)
    if n_nodes > cap:
        raise ResourceCapError(
            f"filling graph would have {n_nodes} nodes, above the cap {cap} "
            "(WARPFILL_MAX_NODES)")
    levels = np.arange(n_levels) * dt
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        masses = _cell_masses(weight_kind, beta, levels, dt)
        # node measures are products and rounding is monotone: extremes decide
        full = masses[1:] if has_apex else masses
        ends = (np.outer([full.min(), full.max()], [measure.min(), measure.max()]).ravel()
                if full.size and n else [])
        ends = np.append(ends, [masses[0] * measure.sum()] if has_apex else [])
    if not np.all(np.isfinite(ends)):
        raise DomainError(
            f"{weight_kind} weight with beta={beta} overflows double precision before "
            f"t_max={t_max}: node measures must be finite")
    if np.any(ends <= 0.0):
        raise ValidationError("graph has a nonpositive node measure")
    return levels, masses


class FillingGraph:
    """Weighted-graph discretization of the filling over a carrier.

    A function on the graph is an (L, k) array over the L levels of
    `_level_grid` (see `grid`): k = n holds one value per carrier node, and
    k = 1 one value per level, for a function that ignores y. When the
    bottom level is one apex node, row 0 holds the apex value in every
    column. Its weights (`weights`) are the cell masses times the carrier
    measure, or times the total measure when k = 1.

    The horizontal edges are the carrier's essential edges on every level
    past the apex level, of length psi(t_i) d_Y, and are kept as those
    factors (`_horizontal`): the carrier's `adjacency()` and one scale per
    level. Nothing of size levels times carrier edges is stored; the
    gradient builds flat indices and lengths a chunk of levels at a time
    (`_level_chunks`).

    The same graph is also listed node by node, for Dijkstra and oracles,
    each array built on first use: node_t (radial coordinate), node_y
    (carrier index, -1 for the apex), node_measure (cell mass times carrier
    measure) and `edges` (edge_a, edge_b, edge_len), radial edges first,
    then horizontal edges level by level. No report reads the listing, so a
    graph holds its levels, masses and carrier factors, and n_nodes is
    L n - off (see node_index).
    """

    def __init__(self, carrier: CarrierSpace, profile: WarpProfile, weight_kind: str,
                 beta: float, t_max: float, dt: float):
        n = carrier.n
        self.has_apex = profile.psi0 == 0.0 and n > 1
        self.levels, self.masses = _level_grid(carrier.measure, self.has_apex, weight_kind,
                                               beta, t_max, dt)
        self.carrier = carrier
        self.profile = profile
        self.weight_kind = weight_kind
        self.beta = float(beta)
        self.dt = float(dt)
        # the full product grid, less the first n - 1 nodes when the bottom
        # level is one apex node (see node_index)
        self._off = n - 1 if self.has_apex else 0
        self._start = 1 if self.has_apex else 0  # the first level with horizontal edges
        # every node measure is finite, but a level's total may not be
        self._narrow = math.isfinite(float(self.masses.max()) * float(carrier.measure.sum()))
        self._edges = None

    @property
    def n_nodes(self) -> int:
        return self.n_levels * self.carrier.n - self._off

    @functools.cached_property
    def node_t(self) -> np.ndarray:
        """Radial coordinate of each node; built on first use."""
        return np.repeat(self.levels, self.carrier.n)[self._off:]

    @functools.cached_property
    def node_y(self) -> np.ndarray:
        """Carrier index of each node, -1 for the apex; built on first use."""
        node_y = np.tile(np.arange(self.carrier.n), self.n_levels)[self._off:]
        if self.has_apex:
            node_y[0] = -1
        return node_y

    @functools.cached_property
    def node_measure(self) -> np.ndarray:
        """Cell mass times carrier measure of each node, the apex's times the
        total measure; built on first use."""
        mu = self.carrier.measure
        node_measure = (np.repeat(self.masses, mu.size) * np.tile(mu, self.n_levels))[self._off:]
        if self.has_apex:
            node_measure[0] = self.masses[0] * mu.sum()
        return node_measure

    @property
    def n_levels(self) -> int:
        return self.levels.size

    def node_index(self, level: int, j: int) -> int:
        """Node id of carrier node j at radial level `level`: level*n + j - off,
        where off = n - 1 when the bottom level is the apex (id 0, where the
        formula gives j - off <= 0) and 0 otherwise."""
        return max(level * self.carrier.n + j - self._off, 0)

    def grid(self, u) -> np.ndarray:
        """u as a function on the graph: an (L, 1) or (L, n) array as it is,
        and one value per node, in node order, as (L, n) with the apex value
        copied across row 0. An (L, 1) array is widened to (L, n) where a
        level's total weight overflows though its node weights do not.
        DomainError for any other shape, and for an (L, n) array whose apex
        row holds more than one value."""
        u = np.asarray(u, dtype=float)
        L, n = self.n_levels, self.carrier.n
        if u.shape == (self.n_nodes,):
            return np.concatenate((np.full(self._off, u[0]), u)).reshape(L, n)
        if u.shape not in ((L, 1), (L, n)):
            raise DomainError(f"a function on this filling graph has shape ({self.n_nodes},), "
                              f"({L}, 1) or ({L}, {n}), got {u.shape}")
        if self.has_apex and np.any(u[0] != u[0, 0]):
            raise DomainError("row 0 of a function on this filling graph is its apex "
                              "and must hold one value")
        if u.shape[1] < n and not self._narrow:
            return np.repeat(u, n, axis=1)
        return u

    def weights(self, k: int) -> np.ndarray:
        """The (L, k) weights of a function of width k (see `grid`, which
        reads no function at width 1 where these overflow)."""
        mu = self.carrier.measure
        return self.masses[:, None] * (mu.sum() if k == 1 else mu)

    def sample(self, fn: Callable) -> np.ndarray:
        """fn(t, y_index) on the level grid, fn(levels[:, None], arange(n)[None, :]),
        broadcast to (L, 1) or (L, n): a function that ignores y, or returns
        a constant, comes out as (L, 1) unless `grid` widens it. With an
        apex, row 0 is fn(0.0, -1)."""
        u = (np.asarray(fn(self.levels[:, None], np.arange(self.carrier.n)[None, :]), dtype=float)
             + np.zeros((self.n_levels, 1)))
        if self.has_apex:
            u[0] = fn(0.0, -1)
        return self.grid(u)

    @functools.cached_property
    def _horizontal(self):
        """(rows, cols, dd, scales) of the horizontal edges, kept as factors:
        the carrier's essential edges (rows, cols, dd) of `adjacency()`, on
        every level past the apex level, with lengths psi(t_i) dd scaled by
        scales[i] = psi(t_i) (see `_level_edges`); there are none on a
        one-point carrier. Refuses a level where psi or a length leaves double
        range or where a length is 0: scales are positive by then and rounding
        is monotone, so a level's lengths lie between psi(t_i) min(dd) and
        psi(t_i) max(dd), which decide."""
        if self.carrier.n == 1:
            none = np.empty(0, dtype=np.int64)
            return none, none, np.empty(0), np.empty(0)
        rows, cols, dd = self.carrier.adjacency()
        start = self._start
        scales = self.profile.psi(self.levels[start:])
        if not np.all(np.isfinite(scales)):
            i = start + int(np.argmin(np.isfinite(scales)))
            raise DomainError(f"psi overflows at level {i} (t = {self.levels[i]:g})")
        vanish = np.flatnonzero(scales <= 0.0)
        if vanish.size:
            raise ValidationError(
                f"horizontal edges at level {start + vanish[0]} would have length 0 "
                "(psi vanishes away from the apex)")
        if not dd.size:
            return rows, cols, dd, scales
        with np.errstate(over="ignore"):
            least, most = scales * dd.min(), scales * dd.max()
        finite = np.isfinite(least) & np.isfinite(most)
        if not finite.all():
            i = start + int(np.argmin(finite))
            raise DomainError(f"horizontal edge lengths psi(t) * d_Y overflow at level {i} "
                              f"(t = {self.levels[i]:g})")
        if np.any(least <= 0.0):
            raise ValidationError("graph has a nonpositive edge length")
        return rows, cols, dd, scales

    def _level_edges(self, lo: int, hi: int):
        """(a, b, lengths) of the horizontal edges on levels start + lo up to
        start + hi (exclusive), level by level: flat indices into the (L, n)
        grid and lengths psi(t_i) d_Y, each level's edges in `adjacency()`
        order."""
        rows, cols, dd, scales = self._horizontal
        levels = np.arange(self._start + lo, self._start + hi, dtype=np.int64)
        base = levels[:, None] * self.carrier.n
        return ((base + rows).ravel(), (base + cols).ravel(),
                (scales[lo:hi, None] * dd).ravel())

    def _level_chunks(self):
        """`_level_edges` over every level with horizontal edges, in chunks
        of about _CHUNK edges (one level at least)."""
        rows, _, _, scales = self._horizontal
        if rows.size:
            step = max(1, _CHUNK // rows.size)
            for lo in range(0, scales.size, step):
                yield self._level_edges(lo, min(lo + step, scales.size))

    @property
    def edges(self):
        """(edge_a, edge_b, edge_len) arrays of node ids and lengths; built on
        first use."""
        if self._edges is None:
            n = self.carrier.n
            ids = np.maximum(np.arange(self.n_levels, dtype=np.int64)[:, None] * n
                             + np.arange(n) - self._off, 0)  # ids[i, j] = node_index(i, j)
            a, b, lengths = self._level_edges(0, self.n_levels - self._start)
            # radial edges between consecutive levels, the apex fanning out to
            # the whole first full level; then the horizontal edges, whose grid
            # indices past the apex level are node ids plus off
            self._edges = (np.concatenate((ids[:-1].ravel(), a - self._off)),
                           np.concatenate((ids[1:].ravel(), b - self._off)),
                           np.concatenate((np.full(ids[1:].size, self.dt), lengths)))
        return self._edges

    def sparse(self):
        """Symmetric sparse adjacency with edge lengths as weights."""
        from scipy.sparse import coo_matrix  # on use: loading it costs start-up time

        a, b, w = self.edges
        m = coo_matrix((np.concatenate([w, w]),
                        (np.concatenate([a, b]), np.concatenate([b, a]))),
                       shape=(self.n_nodes, self.n_nodes))
        return m.tocsr()


def build_filling_graph(carrier: CarrierSpace, profile: WarpProfile, weight_kind: str,
                        beta: float, t_max: float, dt: float) -> FillingGraph:
    """Grid model of the filling; see FillingGraph and _cell_masses."""
    return FillingGraph(carrier, profile, weight_kind, beta, t_max, dt)


def discrete_upper_gradient(G: FillingGraph, u: np.ndarray) -> np.ndarray:
    """The upper gradient of u (any shape `G.grid` reads), in u's (L, k)
    layout: at each node the largest difference quotient |u(a) - u(b)| / len
    over its edges. Radial quotients are |u_{i+1} - u_i| / dt; horizontal
    ones run over the levels' edges a chunk of about _CHUNK edges at a time
    (`FillingGraph._level_chunks`), and are 0 when k = 1, though the graph's
    refusals of a bad level still apply. A max is exact, so the chunks give
    the bits of one pass over every edge. The apex takes the largest of its
    radial quotients."""
    u = G.grid(u)
    G._horizontal  # its refusals of a bad graph hold at every width
    g = np.zeros(u.shape)
    q = np.abs(np.diff(u, axis=0)) / G.dt
    g[:-1] = q
    np.maximum(g[1:], q, out=g[1:])
    if u.shape[1] > 1:
        flat, g_flat = u.ravel(), g.reshape(-1)  # g is contiguous: a view
        for a, b, lengths in G._level_chunks():
            q = np.abs(flat[a] - flat[b]) / lengths
            np.maximum.at(g_flat, a, q)
            np.maximum.at(g_flat, b, q)
    if G.has_apex:
        g[0] = g[0].max()
    return g


def _norm_underflows(p: float) -> DomainError:
    return DomainError(f"the L^{p} norm underflows double precision; "
                       "rescale the function or the weights")


def _checked(values, weights) -> tuple:
    """(values, weights) as float arrays; DomainError naming the argument
    unless values is nonempty and weights are finite, >= 0 and of the values'
    shape."""
    values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    if values.size == 0:
        raise DomainError("values must be nonempty")
    if weights.shape != values.shape:
        raise DomainError(f"weights must have the values' shape {values.shape}, "
                          f"got {weights.shape}")
    if not (0.0 <= float(weights.min()) and float(weights.max()) < math.inf):
        raise DomainError("weights must be finite and >= 0")
    return values, weights


def lp_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum_i w_i |v_i|^p)^(1/p). Where that sum overflows though every v_i
    is finite, it is taken again relative to its largest term
    (`_scaled_lp_norm`): the result is inf only where the norm itself leaves
    double range, and a sum that does not overflow keeps its bits.
    DomainError naming the argument for a bad p or bad weights (`check_p`,
    `_checked`), and naming p where the sum underflows to 0 though some v_i
    of positive weight is not 0."""
    check_p(p)
    values, weights = _checked(values, weights)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN
        total = float(np.sum(np.abs(values) ** p * weights))
    if not total < math.inf and np.all(np.isfinite(values)):
        return _scaled_lp_norm(values, weights, p)
    if total == 0.0 and np.any((values != 0.0) & (weights > 0.0)):
        raise _norm_underflows(p)
    return total ** (1.0 / p)


def _scaled_lp_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """`lp_norm` of finite values whose sum overflows, as
    |v_j| w_j^(1/p) (sum_i w_i |v_i|^p / (w_j |v_j|^p))^(1/p) with term j
    the largest. With |v| = m 2^e and w = n 2^f (np.frexp, mantissas in
    [1/2, 1)), each ratio is one exp2 of p log2(m_i/m_j) + p (e_i - e_j)
    + f_i - f_j, times n_i/n_j: at most about 1, so their sum is at most
    about the count of terms, and a ratio that underflows is below 2^-1074.
    The result is inf only where the norm leaves double range."""
    a = np.abs(values)
    keep = (a > 0.0) & (weights > 0.0)  # a term of 0, not inf * 0
    if not keep.any():
        return 0.0
    a, w = a[keep], weights[keep]
    m, e = np.frexp(a)
    n, f = np.frexp(w)
    j = int(np.argmax(p * (e + np.log2(m)) + (f + np.log2(n))))  # log2 of each term
    with np.errstate(over="ignore"):
        ratio = np.exp2(p * np.log2(m / m[j]) + (p * (e - e[j]) + (f - f[j]))) * (n / n[j])
        # term j's root, then the sum's root, which is at least 1
        return float(a[j] * w[j] ** (1.0 / p) * float(np.sum(ratio)) ** (1.0 / p))


def _chunked_dot(values: np.ndarray, weights: np.ndarray, c: float, exponent: float,
                 signed: bool, buf: np.ndarray) -> float:
    """sum_i w_i |c - v_i|^exponent, times sign(c - v_i) when signed, in chunks
    of _CHUNK elements through the (2, _CHUNK) scratch array buf, so that no
    N-sized temporary is allocated."""
    total = 0.0
    for s in range(0, values.size, _CHUNK):
        d, a = buf[:, :min(values.size - s, _CHUNK)]
        np.subtract(c, values[s:s + _CHUNK], out=d)
        np.abs(d, out=a)
        with np.errstate(over="ignore"):  # the solver rescales where a sum is inf
            np.power(a, exponent, out=a)
            if signed:
                np.copysign(a, d, out=a)
            total += float(np.dot(a, weights[s:s + _CHUNK]))
    return total


class _Overflow(Exception):
    """A sum formed by the subtracted-constant solver is not finite."""


def _slope(c: float, values: np.ndarray, weights: np.ndarray, p: float,
           buf: np.ndarray, ends: tuple, e: int = 0) -> float:
    """sum_i w_i sign(c - v_i) |c - v_i|^{p-1}, the derivative of the L^p
    objective over p, for values that are the caller's times 2^-e. At an
    end of the bracket `ends` every term has one sign, so it is 0 there only
    by underflow, unless no other value has positive weight."""
    s = _chunked_dot(values, weights, c, p - 1.0, signed=True, buf=buf)
    if not math.isfinite(s):
        raise _Overflow
    if s == 0.0 and c in ends and np.any((values != c) & (weights > 0.0)):
        raise DomainError(f"the L^{p} objective's slope underflows double precision at "
                          f"c = {math.ldexp(c, e)!r}; rescale the function or the weights")
    return s


def _ordered(x: float) -> int:
    """An integer key that orders doubles as their values (both zeros 0)."""
    k = struct.unpack("<q", struct.pack("<d", x))[0]
    return k if k >= 0 else -(k & 0x7FFF_FFFF_FFFF_FFFF)


def _from_ordered(k: int) -> float:
    """The double with key k (see _ordered)."""
    return math.copysign(struct.unpack("<d", struct.pack("<q", abs(k)))[0], k)


def _downscaled(weights: np.ndarray) -> np.ndarray:
    """Finite weights, times 2^-k with 2^k > 2 len(weights) where they total
    2^1023 or more: each is then below 2^1023 / len(weights). Under 2^1023 no
    pairwise, cumulative or merged sum of the weights overflows. A power of
    two is exact unless a result is subnormal, so no weighted mean, median or
    slope root moves."""
    with np.errstate(over="ignore"):
        if not weights.sum() >= 2.0 ** 1023:
            return weights
    return weights * 2.0 ** -(2 * weights.size).bit_length()


def _merge_equal_values(values: np.ndarray, weights: np.ndarray):
    """(v, w): the distinct values in increasing order, each with the total
    weight of its entries, in the order of a stable sort. numpy's stable
    sort (timsort) merges the monotone runs it finds, as sampled functions
    of t have. np.add.reduceat sums each run of equal values; under
    `_downscaled` weights no such total overflows."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return v[starts], np.add.reduceat(weights[order], starts)


class _SlopeBounds:
    """Bounds on `_slope` over sorted values v, from blocks of _BLOCK
    consecutive values, each summarised by its least value, its greatest
    value and its total weight W.

    phi(x) = sign(x) |x|^(p-1) increases, so each value v_i of a block
    [first, last] has phi(c - last) <= phi(c - v_i) <= phi(c - first): the
    slope at c lies between sum W phi(c - last) and sum W phi(c - first),
    and sum_i w_i |c - v_i|^(p-1) <= S = sum W (|c - first|^(p-1) +
    |c - last|^(p-1)). A block that straddles c is bounded on both sides.

    Rounding, with u = 2^-53: numpy's power is within an ulp or two (4u)
    of |x|^(p-1), and a rounded difference c - v_i moves it by (p-1)u more;
    a dot product of m terms errs by at most (m - 1)u times the sum of
    their magnitudes, and a block weight by (B - 1)u of itself. A power or
    product that falls below the normal range errs by at most 2^-1074 more.
    So the full pass over N values and each computed bound lie within
    (N + K + B + 2p + 8) u S + 2^-1074 (2 sum W + N + K) of their exact
    values together, K being the block count. `sign` takes
    2 (N + K + B + 2p + 16) u S + 2^-1070 (sum W + N + K), from the
    computed S and sum W, as its margin: a decided sign is the exact
    slope's, and the full pass's wherever that pass is finite, and the full
    pass is not 0 there.
    """

    def __init__(self, v: np.ndarray, w: np.ndarray, p: float):
        starts = np.arange(0, v.size, _BLOCK)
        self.first = v[starts]
        self.last = v[np.minimum(starts + _BLOCK, v.size) - 1]
        with np.errstate(over="ignore"):
            self.weight = np.add.reduceat(w, starts)
            self.floor = math.ldexp(float(self.weight.sum()) + v.size + starts.size, -1070)
        self.rel = 2.0 * (v.size + starts.size + _BLOCK + 2.0 * p + 16.0) * 2.0 ** -53
        self.exponent = p - 1.0

    def sign(self, c: float) -> float:
        """1.0 or -1.0 where the bounds fix the sign of `_slope` at c and
        keep it off 0, else 0.0."""
        with np.errstate(over="ignore", invalid="ignore"):
            far, near = c - self.first, c - self.last
            a_far, a_near = np.abs(far) ** self.exponent, np.abs(near) ** self.exponent
            upper = float(np.dot(np.copysign(a_far, far), self.weight))
            lower = float(np.dot(np.copysign(a_near, near), self.weight))
            size = float(np.dot(a_far + a_near, self.weight))
        margin = self.rel * size + self.floor
        if lower > margin:
            return 1.0
        return -1.0 if upper < -margin else 0.0


def _slope_sign(c: float, bounds: _SlopeBounds | None, known: dict, args: tuple) -> float:
    """`_slope(c, *args)` or, where `bounds` decide it, its sign (then the
    slope is not 0, so no underflow is refused). A computed slope is kept
    in `known`."""
    s = 0.0 if bounds is None else bounds.sign(c)
    if s == 0.0:
        s = known[c] = _slope(c, *args)
    return s


def _known_slope(c: float, known: dict, *args) -> float:
    """_slope(c, *args), taken from `known` where it was already computed."""
    s = known.get(c)
    return _slope(c, *args) if s is None else s


def optimal_subtracted_constant(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """Minimizer of c -> ||values - c||_p with the given weights.

    Every p passes one entry: p must pass `check_p` and the weights
    `_checked`, some weight must be positive, and the values must be finite
    (DomainError otherwise);
    weights that total 2^1023 or more are scaled once by an exact power of
    two (`_downscaled`), and a constant input returns its value. Then p = 1
    takes the weighted median and p = 2 the weighted mean.
    For any other p the objective is convex and its derivative, p times
    sum_i w_i sign(c - v_i) |c - v_i|^{p-1}, is continuous and nondecreasing.
    Equal values are merged first (`_merge_equal_values`), which leaves the
    objective unchanged. The bracket [min v, max v] is split at 0, then at
    the middle of the ordered bit patterns, until it lies within one binade:
    a root many decades below the bracket width, as under steep weights,
    would otherwise cost brentq a bisection per halving. brentq then finds
    the sign change to 4 ulp (2e-323 absolute near 0), or raises
    ConvergenceError after _ROOT_MAXITER iterations. The result is the best
    of that root and the nearest data value on each side: with steep weights
    the optimum often sits exactly on a data value. Where the mean, a slope
    or the least of the three objectives is not finite, all is solved again
    on the values times 2^-e < 1/(2 max |v_i|), where no term exceeds its
    weight, and scaled back. DomainError: the slope underflows to 0 at an end.
    """
    check_p(p)
    values, weights = _checked(values, weights)
    if not weights.any():
        raise DomainError("weights must not all be 0")
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("values must be finite")
    weights = _downscaled(weights)
    if lo == hi:
        return lo
    if p == 1.0:
        order = np.argsort(values, kind="stable")
        v = values[order]
        cum = np.cumsum(weights[order])
        half = 0.5 * cum[-1]
        k = int(np.searchsorted(cum, half))
        if k + 1 < v.size and abs(cum[k] - half) <= 1e-15 * cum[-1]:
            return 0.5 * (float(v[k]) + float(v[k + 1]))
        return float(v[min(k, v.size - 1)])
    try:
        return _solve(values, weights, p, (lo, hi), 0)
    except _Overflow:
        e = math.frexp(max(-lo, hi))[1] + 1
        ends = (math.ldexp(lo, -e), math.ldexp(hi, -e))
        c = _solve(np.ldexp(values, -e), weights, p, ends, e)
        return math.ldexp(min(max(c, ends[0]), ends[1]), e)  # a rounded mean may leave them


def _solve(values: np.ndarray, weights: np.ndarray, p: float, ends: tuple, e: int) -> float:
    """The solve past the entry, p != 1, on the caller's values times 2^-e."""
    if p == 2.0:
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
            mean = float(np.average(values, weights=weights))
        if not math.isfinite(mean):
            raise _Overflow
        return mean
    from scipy.optimize import brentq  # on use: loading it costs start-up time

    v, w = _merge_equal_values(values, weights)
    # the slope is a module-level function taking the arrays as brentq args:
    # brentq's wrapper sits in a reference cycle, and a closure over the
    # arrays would keep them alive until the next garbage collection
    buf = np.empty((2, min(v.size, _CHUNK)))
    args = (v, w, p, buf, ends, e)
    # both ends first, for their underflow checks; the splits stop at a
    # slope of exactly 0. Up to there only signs are needed, which the
    # bounds give where they can, and a full pass runs where they cannot.
    # brentq is handed the slopes at the ends of the final bracket, so it
    # runs as if every sign had come from a full pass
    bounds = _SlopeBounds(v, w, p) if v.size >= _BOUNDED else None
    known = {}
    a, b = ends
    sa, sb = _slope_sign(a, bounds, known, args), _slope_sign(b, bounds, known, args)
    while sa < 0.0 < sb and _ordered(b) - _ordered(a) > _SPAN:
        m = 0.0 if a < 0.0 < b else _from_ordered((_ordered(a) + _ordered(b)) // 2)
        s = _slope_sign(m, bounds, known, args)
        a, sa, b, sb = (a, sa, m, s) if s >= 0.0 else (m, s, b, sb)
    for end in (a, b):
        if end not in known:
            known[end] = _slope(end, *args)
    # xtol = 5e-324 would make brentq's stopping test unreachable for a root at 0
    root, info = brentq(_known_slope, a, b, args=(known,) + args,
                        xtol=4.0 * math.ulp(0.0), rtol=4.0 * np.finfo(float).eps,
                        maxiter=_ROOT_MAXITER, full_output=True, disp=False)
    if not info.converged:
        raise ConvergenceError(
            f"subtracted-constant root find did not converge in {_ROOT_MAXITER} "
            f"iterations (bracket around {root!r})")
    # v[k - 1] < root <= v[k], and k > 0 unless root is lo; ties go to the data value
    k = int(np.searchsorted(v, root))
    above = float(v[k])
    if above == root:  # then the three candidates tie, and the first is above
        return above
    candidates = (float(v[k - 1]), above, root)
    costs = [_chunked_dot(v, w, c, p, signed=False, buf=buf) for c in candidates]
    if not min(costs) < math.inf:
        raise _Overflow
    return candidates[costs.index(min(costs))]


@dataclass
class SPReport:
    name: str
    p: float
    c_star: float
    lp_u_minus_c: float
    lp_g: float
    ratio: float | None
    paper_constant: float
    passed: bool | None
    slack: float
    divergent: bool = False
    sharp_constant: float | None = None
    sharp_passed: bool | None = None

    def to_dict(self) -> dict:
        # every field is a scalar, so a shallow copy is asdict's result, at a
        # fraction of its cost
        return dict(vars(self))


def halfline_constant_general(alpha: float, p: float) -> float:
    """Reference constant for any weight with growth parameter alpha:
    (p(p-1)^{p-1} + p^p)^{1/p} / alpha, reading (p-1)^{p-1} = 1 at p = 1.
    It is evaluated as p (1 + (1 - 1/p)^{p-1})^{1/p} / alpha, whose terms
    stay below 2p, so it is finite for every finite p."""
    if alpha <= 0.0 or p < 1.0:
        raise DomainError("need alpha > 0 and p >= 1")
    return p * (1.0 + (1.0 - 1.0 / p) ** (p - 1.0)) ** (1.0 / p) / alpha


def halfline_constant_exp(beta: float, p: float) -> float:
    """Sharper reference constant for the exponential weight e^{beta t}:
    ((2/beta)((p-1)/beta)^{p-1})^{1/p}, reading ((p-1)/beta)^{p-1} = 1 at p = 1.
    It is evaluated as (2/beta)((p-1)/2)^{(p-1)/p}, or for p > 2 as
    ((p-1)/beta)(2/(p-1))^{1/p}: the smaller of the two exponents keeps the
    rounding of the power small, and neither form overflows or underflows
    where the constant is well inside double range."""
    if beta <= 0.0 or p < 1.0:
        raise DomainError("need beta > 0 and p >= 1")
    if p <= 2.0:
        return 2.0 / beta * ((p - 1.0) / 2.0) ** ((p - 1.0) / p)
    return (p - 1.0) / beta * (2.0 / (p - 1.0)) ** (1.0 / p)


def optimal_constant_and_ratio(G: FillingGraph, u: np.ndarray, p: float,
                               paper_constant: float = math.nan, slack: float = 0.0,
                               name: str = "", sharp_constant: float | None = None) -> SPReport:
    """Optimal subtracted constant, both norms and their ratio for one
    discrete function, judged against a caller-supplied reference constant
    (pass iff ratio <= constant * (1 + slack)). u is one value per node, or
    an (L, 1) or (L, n) array (`FillingGraph.grid`), and is weighted by
    `G.weights` of its width: a function that ignores y is reported from its
    L level values. A function with zero gradient norm is constant: it
    keeps c = u[0, 0] and ratio 0. A report whose gradient norm overflows is
    divergent: its ratio is None, and it neither passes nor fails. A u that
    is not finite is refused (DomainError naming the function)."""
    check_p_and_slack(p, slack)
    u = G.grid(u)
    if not np.isfinite(u).all():
        raise DomainError(f"function {name!r} is not finite on the level grid")
    w = G.weights(u.shape[1])
    lp_g = lp_norm(discrete_upper_gradient(G, u), w, p)
    if lp_g == 0.0:
        c, lp_u, ratio = float(u[0, 0]), 0.0, 0.0
    else:
        c = optimal_subtracted_constant(u.ravel(), w.ravel(), p)
        lp_u = lp_norm(u - c, w, p)
        ratio = lp_u / lp_g if math.isfinite(lp_g) else None
    divergent = ratio is None
    passed = None if divergent or math.isnan(paper_constant) else bool(
        ratio <= paper_constant * (1.0 + slack))
    sharp_passed = None if divergent or sharp_constant is None else bool(
        ratio <= sharp_constant * (1.0 + slack))
    return SPReport(name, p, c, lp_u, lp_g, ratio, paper_constant, passed, slack,
                    divergent, sharp_constant, sharp_passed)


def check_p(p: float) -> None:
    """DomainError naming p unless p is finite and >= 1."""
    if not (1.0 <= p < math.inf):
        raise DomainError(f"p must be finite and >= 1, got {p!r}")


def check_p_and_slack(p: float, slack: float) -> None:
    """DomainError naming the argument unless p is finite and >= 1 and slack
    is finite and >= 0."""
    check_p(p)
    if not (0.0 <= slack < math.inf):
        raise DomainError(f"slack must be finite and >= 0, got {slack!r}")


def halfline_graph(weight_kind: str, beta: float, t_max: float, dt: float) -> FillingGraph:
    """Weighted half-line as a degenerate filling graph (one-point carrier)."""
    point = CarrierSpace(np.zeros((1, 1)), np.ones(1))
    return build_filling_graph(point, WarpProfile.exp(1.0), weight_kind, beta, t_max, dt)


def _poincare_reports(G: FillingGraph, p: float, family: Sequence, slack: float,
                      constant: float, sharp_constant: float | None = None,
                      radial: bool = False) -> list:
    """One SPReport per family member. A member is (name, payload) or a bare
    payload named "u". A callable payload is sampled on G as fn(t, y), or as
    fn(t) when radial; any other payload is read by `G.grid`."""
    if not family:
        raise PreconditionError("family must be nonempty")
    out = []
    for member in family:
        name, vals = (member if isinstance(member, tuple) and len(member) == 2
                      else ("u", member))
        if callable(vals):
            vals = G.sample((lambda t, y, fn=vals: fn(t)) if radial else vals)
        out.append(optimal_constant_and_ratio(G, vals, p, constant, slack, name,
                                              sharp_constant))
    return out


def halfline_verifier(weight_kind: str, beta: float, p: float, family: Sequence,
                      dt: float, t_max: float, slack: float = 0.05) -> list:
    """Global Poincare check on the weighted half-line.

    family: items are (name, callable t -> u) or (name, node values) or a
    bare callable/array. Every report carries the general weight constant;
    for the exponential weight the sharper constant is checked as well.
    A non-finite gradient norm flags the report instead of raising.
    """
    check_p_and_slack(p, slack)
    G = halfline_graph(weight_kind, beta, t_max, dt)
    c_sharp = halfline_constant_exp(beta, p) if weight_kind == "exp" else None
    return _poincare_reports(G, p, family, slack, halfline_constant_general(beta, p),
                             c_sharp, radial=True)


def filling_verifier(G: FillingGraph, p: float, family: Sequence,
                     slack: float = 0.1) -> list:
    """Global Poincare check on a filling graph, against the exponential
    weight constant C(beta, p). Expected to pass when p <= beta/alpha.

    family: items are (name, callable (t, y) -> u) or (name, node values)
    or a bare callable/array.
    """
    check_p_and_slack(p, slack)
    return _poincare_reports(G, p, family, slack, halfline_constant_exp(G.beta, p))


def builtin_halfline_family() -> list:
    """Twelve test functions with limits at infinity and integrable decay."""
    from scipy.special import expit  # on use: loading it costs start-up time
    return [
        ("constant_one", lambda t: np.ones_like(t)),
        ("exp_decay_2", lambda t: np.exp(-2.0 * t)),
        ("exp_decay_4", lambda t: np.exp(-4.0 * t)),
        ("clipped_ramp", lambda t: np.minimum(t, 1.0)),
        ("shifted_ramp", _ramp),
        ("t_exp_decay", lambda t: t * np.exp(-2.0 * t)),
        ("t2_exp_decay", lambda t: t ** 2 * np.exp(-3.0 * t)),
        ("gaussian", lambda t: np.exp(-t ** 2)),
        ("damped_cosine", lambda t: np.cos(2.0 * t) * np.exp(-3.0 * t)),
        ("hat_at_2", _hat),
        ("damped_sine", lambda t: np.sin(5.0 * t) * np.exp(-2.0 * t)),
        ("smooth_step_down", lambda t: expit(-4.0 * (t - 3.0))),  # 1/(1 + e^{4(t-3)})
    ]


def builtin_filling_family(G: FillingGraph) -> list:
    """Separable, radial and oscillatory test functions on a filling graph,
    as (name, callable (t, y) -> u) pairs; fiber factors use d_Y(y, node 0).

    Functions vanish at t = 0 whenever the graph has an apex, so they are
    single-valued on the collapsed bottom level.
    """
    carrier = G.carrier
    d0 = carrier.dist[:, 0] if carrier.n > 1 else np.zeros(1)
    diam = carrier.diameter() or 1.0  # 0 only on the one-point carrier
    bump = np.maximum(0.0, 0.5 * diam - d0)
    with np.errstate(over="ignore"):
        phase = math.pi * d0 / diam
    # where pi * d0 overflows (distances near 1e308), divide first
    far = np.isinf(phase)
    phase[far] = math.pi * (d0[far] / diam)
    harmonic = np.cos(phase)
    # fiber-dependent factors must decay radially: below the threshold the
    # gradient of a persistent fiber oscillation is never p-integrable
    return [
        ("constant_one", lambda t, y: np.ones_like(t)),
        ("radial_exp_decay", lambda t, y: np.exp(-2.0 * t)),
        ("radial_ramp", lambda t, y: _ramp(t)),
        ("radial_gaussian", lambda t, y: np.exp(-t ** 2)),
        ("separable_bump", lambda t, y: _hat(t) * _fiber(y, bump)),
        ("oscillatory_harmonic", lambda t, y: (t * np.exp(-3.0 * t) if G.has_apex
                                               else np.exp(-3.0 * t)) * _fiber(y, harmonic, 1.0)),
    ]


@dataclass
class CounterexampleReport:
    alpha: float
    beta: float
    p: float
    r: float
    y0: int
    dt: float
    schedule: list
    g_norms: list
    u_deviations: list
    tail_discrete: list
    tail_quadrature: list
    tail_rel_err: float
    tail_integral_infinite: float | None
    tail_converges: bool
    g_stabilized: bool
    deviation_growing: bool
    annulus_measure: float
    verdict: str

    def to_dict(self) -> dict:
        return asdict(self)


def counterexample_suite(carrier: CarrierSpace, y0: int, r: float, alpha: float,
                         beta: float, p: float, t_max_schedule: Sequence[float],
                         dt: float = 0.01) -> CounterexampleReport:
    """Sharpness probe at the threshold p = beta/alpha on the sinh model.

    Builds u(t, y) = u_R(t) * u_Y(y) with u_R = clip(t-1, 0, 1) and
    u_Y = clip(r - d_Y(y, y0), 0, r/2), and its separable-product upper
    gradient

        g = |u_Y| * Lip(u_R) + (|u_R| / psi) * Lip(u_Y),

    then tracks ||g||_p (which must stabilize when p > beta/alpha, matching
    the quadrature of the sinh^{beta - p*alpha} tail) and inf_c ||u - c||_p
    (which must grow without bound) over the truncation schedule.

    No graph is built: the filling's level grid is laid at the longest
    truncation, and the grid at T is its first round(T/dt) levels. The node
    measure is the cell mass m(t) times the carrier measure mu(y), so every
    norm is a sum over levels of a sum over the carrier. Where Lip(u_R) = 0
    a level contributes m * (u_R/psi)^p times the measure of the annulus
    r/2 <= d_Y(y, y0) <= r where Lip(u_Y) = 1; the band 1 <= t <= 2 is
    summed level by level; ||g||_p and the discrete tail are cumulative sums
    over levels. For inf_c ||u - c||_p the levels of a prefix with equal u_R
    (all of t <= 1, all of t >= 2) are merged into one level carrying their
    total mass, which leaves the weighted values, and so the objective,
    unchanged. The tail quadrature is one quad per schedule interval, summed.
    """
    from scipy.integrate import quad  # on use: loading it costs start-up time
    check_p(p)  # before the level grid is laid
    if not (0 <= y0 < carrier.n):
        raise DomainError(f"y0 index {y0} out of range")
    if not (r > 0.0):
        raise DomainError("r must be positive")
    d0 = carrier.dist[:, y0]
    ball_half = carrier.measure[d0 < 0.5 * r].sum()
    outside = np.any(d0 >= r)
    if ball_half <= 0.0 or not outside:
        raise PreconditionError(
            "carrier needs positive measure in the half ball and a point outside the "
            f"ball of radius {r} around node {y0}")
    schedule = [float(T) for T in t_max_schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or not schedule:
        raise DomainError("t_max_schedule must be strictly increasing and nonempty")

    lip_y = ((d0 >= 0.5 * r) & (d0 <= r)).astype(float)
    u_y = np.clip(r - d0, 0.0, 0.5 * r)
    mu = carrier.measure
    mu_annulus = float(mu[lip_y > 0.0].sum())
    s_exp = beta - p * alpha
    tail_converges = s_exp < 0.0

    def sinh_pow(x: float, s: float) -> float:
        # sinh(x)^s in log space; safe for large x with negative s
        if x <= 0.0:
            return 0.0
        log_sinh = x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)
        arg = s * log_sinh
        return math.exp(arg) if arg < 700.0 else math.inf

    if not all(T >= dt for T in schedule):
        raise DomainError("need dt > 0 and t_max >= dt")
    # the grid at T is the first round(T/dt) levels; sinh^alpha has an apex
    profile = WarpProfile.sinh_pow(alpha)
    t, m = _level_grid(mu, carrier.n > 1, "sinh", beta, schedule[-1], dt)
    u_r = _ramp(t)
    # |u_R| / psi; u_R vanishes for t <= 1, where psi(1) stands in for psi(t)
    b = u_r / profile.psi(np.maximum(t, 1.0))
    band = (t >= 1.0) & (t <= 2.0)  # Lip(u_R) = 1
    with np.errstate(over="ignore"):
        tail_rows = m * b ** p
        g_rows = tail_rows * mu_annulus
        g_rows[band] = m[band] * ((u_y + b[band, None] * lip_y) ** p @ mu)
        g_cum = np.cumsum(g_rows)
    tail_cum = np.cumsum(np.where(t >= 1.0, tail_rows, 0.0))

    def f_tail(x: float) -> float:
        # _ramp on one float, without numpy's per-call cost inside quad
        return min(max(x - 1.0, 0.0), 1.0) ** p * sinh_pow(x, s_exp)

    g_norms, u_devs, tails_d, tails_q = [], [], [], []
    lo, q_total = 1.0, 0.0
    for T in schedule:
        L = int(round(T / dt))
        g_norms.append(float(g_cum[L - 1]) ** (1.0 / p))
        level_u, level_m = _merge_equal_values(u_r[:L], m[:L])
        vals = np.outer(level_u, u_y).ravel()
        weights = np.outer(level_m, mu).ravel()
        c = optimal_subtracted_constant(vals, weights, p)
        u_devs.append(lp_norm(vals - c, weights, p))
        tails_d.append(float(tail_cum[L - 1]))
        if T > lo:
            q, _ = quad(f_tail, lo, T, limit=200)
            q_total, lo = q_total + float(q), T
        tails_q.append(q_total)

    rel_changes = [abs(b - a) / max(abs(b), 1e-300) for a, b in zip(g_norms, g_norms[1:])]
    g_stable = all(ch < 0.01 for ch in rel_changes) if rel_changes else True
    growing = all(b > a for a, b in zip(u_devs, u_devs[1:]))
    tail_rel_err = abs(tails_d[-1] - tails_q[-1]) / max(abs(tails_q[-1]), 1e-300)
    tail_inf = None
    if tail_converges:
        val, _ = quad(lambda x: sinh_pow(x, s_exp), 1.0, math.inf, limit=200)
        tail_inf = float(val)

    if p <= beta / alpha:
        verdict = "no failure expected"
    elif g_stable and growing and math.isfinite(g_norms[-1]):
        verdict = "failure demonstrated"
    else:
        verdict = "failure expected but not demonstrated"
    return CounterexampleReport(alpha, beta, p, r, y0, dt, schedule, g_norms, u_devs,
                                tails_d, tails_q, tail_rel_err, tail_inf, tail_converges,
                                g_stable, growing, mu_annulus, verdict)
