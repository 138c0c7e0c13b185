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

import math
import os
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.sparse import coo_matrix
from scipy.special import expit, roots_jacobi

from .errors import (ConvergenceError, DomainError, PreconditionError, ResourceCapError,
                     ValidationError)
from .profiles import WarpProfile
from .spaces import CarrierSpace

DEFAULT_MAX_NODES = 2_000_000
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_CHUNK = 1 << 16
# brentq iterations before ConvergenceError; roots many decades below the bracket
# width (near 0 under steep weights) have taken up to about 1400
_ROOT_MAXITER = 3000


def _max_nodes_cap(override: int | None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get("WARPFILL_MAX_NODES")
    return int(env) if env else DEFAULT_MAX_NODES


def _cell_masses(weight_kind: str, beta: float, levels: np.ndarray, dt: float) -> np.ndarray:
    """Integral of the weight over each cell [t_i, t_i + dt)."""
    if weight_kind == "exp":
        return (np.exp(beta * (levels + dt)) - np.exp(beta * levels)) / beta
    if weight_kind == "sinh":
        # 16-point Gauss-Legendre per cell; error is far below 1e-10 for
        # analytic integrands at any sane dt
        mid = levels + 0.5 * dt
        pts = mid[:, None] + 0.5 * dt * _GL_NODES[None, :]
        vals = np.sinh(pts) ** beta
        masses = 0.5 * dt * vals @ _GL_WEIGHTS
        if levels[0] == 0.0:
            # sinh^beta = t^beta * (sinh t / t)^beta is only Hoelder at 0, so
            # absorb t^beta into a Gauss-Jacobi weight for the first cell
            xj, wj = roots_jacobi(16, 0.0, beta)
            tj = 0.5 * dt * (1.0 + xj)
            smooth = (np.sinh(tj) / tj) ** beta
            masses[0] = (0.5 * dt) ** (beta + 1.0) * float(wj @ smooth)
        return masses
    raise DomainError(f"unknown weight kind {weight_kind!r}")


class FillingGraph:
    """Weighted-graph discretization of the filling over a carrier.

    Node arrays: node_t (radial coordinate), node_y (carrier index, -1 for
    the apex) and node_measure (cell weight mass times carrier measure).
    Edges are built lazily: (edge_a, edge_b, edge_len) with radial edges
    first, then horizontal edges level by level.
    """

    def __init__(self, carrier: CarrierSpace, profile: WarpProfile, weight_kind: str,
                 beta: float, t_max: float, dt: float, max_nodes: int | None = None):
        if not (dt > 0.0) or not (t_max >= dt):
            raise DomainError("need dt > 0 and t_max >= dt")
        if not (beta > 0.0):
            raise DomainError("need beta > 0")
        if weight_kind not in ("exp", "sinh"):
            raise DomainError(f"unknown weight kind {weight_kind!r}")
        self.carrier = carrier
        self.profile = profile
        self.weight_kind = weight_kind
        self.beta = float(beta)
        self.t_max = float(t_max)
        self.dt = float(dt)
        n = carrier.n
        n_levels = int(round(t_max / dt))
        self.levels = np.arange(n_levels) * dt
        self.has_apex = profile.psi0 == 0.0 and n > 1
        n_nodes = n_levels * n - (n - 1 if self.has_apex else 0)
        cap = _max_nodes_cap(max_nodes)
        if n_nodes > cap:
            raise ResourceCapError(
                f"filling graph would have {n_nodes} nodes, above the cap {cap} "
                "(WARPFILL_MAX_NODES)")
        with np.errstate(over="ignore", invalid="ignore"):
            masses = _cell_masses(weight_kind, beta, self.levels, dt)
        if self.has_apex:
            t_upper = np.repeat(self.levels[1:], n)
            y_upper = np.tile(np.arange(n), n_levels - 1)
            self.node_t = np.concatenate([[0.0], t_upper])
            self.node_y = np.concatenate([[-1], y_upper])
            m_upper = np.repeat(masses[1:], n) * np.tile(carrier.measure, n_levels - 1)
            self.node_measure = np.concatenate([[masses[0] * carrier.measure.sum()], m_upper])
        else:
            self.node_t = np.repeat(self.levels, n)
            self.node_y = np.tile(np.arange(n), n_levels)
            self.node_measure = np.repeat(masses, n) * np.tile(carrier.measure, n_levels)
        if not np.all(np.isfinite(self.node_measure)):
            raise DomainError(
                f"{weight_kind} weight with beta={beta} overflows double precision before "
                f"t_max={t_max}: node measures must be finite")
        if np.any(self.node_measure <= 0.0):
            raise ValidationError("graph has a nonpositive node measure")
        self._edges = None

    @property
    def n_nodes(self) -> int:
        return self.node_t.size

    @property
    def n_levels(self) -> int:
        return self.levels.size

    def node_index(self, level: int, j: int) -> int:
        """Node id of carrier node j at radial level `level`."""
        n = self.carrier.n
        if self.has_apex:
            if level == 0:
                return 0
            return 1 + (level - 1) * n + j
        return level * n + j

    @property
    def edges(self):
        """(edge_a, edge_b, edge_len) arrays; built on first use."""
        if self._edges is None:
            self._edges = self._build_edges()
        return self._edges

    def _build_edges(self):
        n = self.carrier.n
        L = self.n_levels
        a_parts, b_parts, len_parts = [], [], []
        # radial edges between consecutive levels; the apex fans out to the
        # whole first full level
        cols = np.arange(n)
        for i in range(L - 1):
            if self.has_apex and i == 0:
                lo = np.zeros(n, dtype=np.int64)
            else:
                lo = self.node_index(i, 0) + cols
            hi = self.node_index(i + 1, 0) + cols
            a_parts.append(np.asarray(lo, dtype=np.int64))
            b_parts.append(np.asarray(hi, dtype=np.int64))
            len_parts.append(np.full(n, self.dt))
        # horizontal edges along essential carrier edges, level by level
        if n > 1:
            rows, colsj, dd = self.carrier.adjacency()
            start = 1 if self.has_apex else 0
            for i in range(start, L):
                scale = float(self.profile.psi(self.levels[i]))
                if scale <= 0.0:
                    raise ValidationError(
                        f"horizontal edges at level {i} would have length 0 "
                        "(psi vanishes away from the apex)")
                base = self.node_index(i, 0)
                a_parts.append(base + rows)
                b_parts.append(base + colsj)
                len_parts.append(scale * dd)
        edge_a = np.concatenate(a_parts) if a_parts else np.empty(0, dtype=np.int64)
        edge_b = np.concatenate(b_parts) if b_parts else np.empty(0, dtype=np.int64)
        edge_len = np.concatenate(len_parts) if len_parts else np.empty(0)
        if np.any(edge_len <= 0.0):
            raise ValidationError("graph has a nonpositive edge length")
        return edge_a, edge_b, edge_len

    def sparse(self):
        """Symmetric sparse adjacency with edge lengths as weights."""
        a, b, w = self.edges
        m = coo_matrix((np.concatenate([w, w]),
                        (np.concatenate([a, b]), np.concatenate([b, a]))),
                       shape=(self.n_nodes, self.n_nodes))
        return m.tocsr()

    def sample(self, fn: Callable) -> np.ndarray:
        """Node values of fn(t, y_index), broadcast to one per node (so a
        constant return is fine); the apex gets fn(0.0, -1)."""
        return np.asarray(fn(self.node_t, self.node_y), dtype=float) + np.zeros(self.n_nodes)


def build_filling_graph(carrier: CarrierSpace, profile: WarpProfile, weight_kind: str,
                        beta: float, t_max: float, dt: float,
                        max_nodes: int | None = None) -> FillingGraph:
    """Grid model of the filling; see FillingGraph. Cell masses use the
    closed form for the exponential weight and Gauss-Legendre quadrature
    (well under 1e-10 error) for the sinh weight."""
    return FillingGraph(carrier, profile, weight_kind, beta, t_max, dt, max_nodes)


@dataclass
class GradientField:
    edge: np.ndarray
    node: np.ndarray


def discrete_upper_gradient(G: FillingGraph, u: np.ndarray) -> GradientField:
    """Edge difference quotients |u(a) - u(b)| / len(e), aggregated to nodes
    by the maximum over incident edges."""
    u = np.asarray(u, dtype=float)
    if u.shape != (G.n_nodes,):
        raise DomainError(f"function must have one value per node ({G.n_nodes})")
    a, b, w = G.edges
    g_edge = np.abs(u[a] - u[b]) / w
    g_node = np.zeros(G.n_nodes)
    np.maximum.at(g_node, a, g_edge)
    np.maximum.at(g_node, b, g_edge)
    return GradientField(g_edge, g_node)


def lp_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    if p < 1.0:
        raise DomainError("p must be >= 1")
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(values) ** p * weights))
    return total ** (1.0 / p)


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
        np.power(a, exponent, out=a)
        if signed:
            np.copysign(a, d, out=a)
        total += float(np.dot(a, weights[s:s + _CHUNK]))
    return total


def _slope(c: float, values: np.ndarray, weights: np.ndarray, p: float,
           buf: np.ndarray) -> float:
    """sum_i w_i sign(c - v_i) |c - v_i|^{p-1}, the derivative of the L^p
    objective over p."""
    s = _chunked_dot(values, weights, c, p - 1.0, signed=True, buf=buf)
    if not math.isfinite(s):
        raise DomainError(f"the L^{p} objective overflows double precision at c = {c!r}; "
                          "rescale the function or the weights")
    return s


def optimal_subtracted_constant(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """Minimizer of c -> ||values - c||_p with the given weights.

    Weighted median for p = 1 and weighted mean for p = 2. Otherwise the
    objective is convex and its derivative, p times
    sum_i w_i sign(c - v_i) |c - v_i|^{p-1}, is continuous and nondecreasing,
    so brentq finds its sign change on [min v, max v] to 4 ulp (2e-323
    absolute near 0), or raises ConvergenceError after _ROOT_MAXITER
    iterations; an end where the derivative is exactly 0 is returned as
    is. The result is the best of that root and the nearest data value on
    each side: with steep weights the optimum often sits exactly on a data
    value. Values must be finite, and DomainError is raised when the
    objective overflows.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if p == 2.0:
        return float(np.average(values, weights=weights))
    if p == 1.0:
        order = np.argsort(values, kind="stable")
        v = values[order]
        cum = np.cumsum(weights[order])
        half = 0.5 * cum[-1]
        k = int(np.searchsorted(cum, half))
        if k + 1 < v.size and abs(cum[k] - half) <= 1e-15 * cum[-1]:
            return 0.5 * (float(v[k]) + float(v[k + 1]))
        return float(v[min(k, v.size - 1)])
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("values must be finite")
    if lo == hi:
        return lo

    # the slope is a module-level function taking the arrays as brentq args:
    # brentq's wrapper sits in a reference cycle, and a closure over the
    # arrays would keep them alive until the next garbage collection
    buf = np.empty((2, min(values.size, _CHUNK)))
    # xtol = 5e-324 would make brentq's stopping test unreachable for a root at 0
    root, info = brentq(_slope, lo, hi, args=(values, weights, p, buf),
                        xtol=4.0 * math.ulp(0.0), rtol=4.0 * np.finfo(float).eps,
                        maxiter=_ROOT_MAXITER, full_output=True, disp=False)
    if not info.converged:
        raise ConvergenceError(
            f"subtracted-constant root find did not converge in {_ROOT_MAXITER} "
            f"iterations (bracket around {root!r})")
    # lo <= root <= hi, so both neighbours exist; ties go to the data value
    below = float(np.max(values, where=values <= root, initial=-math.inf))
    above = float(np.min(values, where=values >= root, initial=math.inf))
    return min((below, above, root),
               key=lambda c: _chunked_dot(values, weights, c, p, signed=False, buf=buf))


@dataclass
class SPReport:
    name: str
    p: float
    c_star: float
    lp_u_minus_c: float
    lp_g: float
    ratio: float
    paper_constant: float
    passed: bool | None
    slack: float
    divergent: bool = False
    sharp_constant: float | None = None
    sharp_passed: bool | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def halfline_constant_general(alpha: float, p: float) -> float:
    """Reference constant for any weight with growth parameter alpha:
    (p(p-1)^{p-1} + p^p)^{1/p} / alpha, reading (p-1)^{p-1} = 1 at p = 1."""
    if alpha <= 0.0 or p < 1.0:
        raise DomainError("need alpha > 0 and p >= 1")
    pm1 = 1.0 if p == 1.0 else (p - 1.0) ** (p - 1.0)
    return (p * pm1 + p ** p) ** (1.0 / p) / alpha


def halfline_constant_exp(beta: float, p: float) -> float:
    """Sharper reference constant for the exponential weight e^{beta t}:
    ((2/beta)((p-1)/beta)^{p-1})^{1/p}, reading ((p-1)/beta)^{p-1} = 1 at p = 1."""
    if beta <= 0.0 or p < 1.0:
        raise DomainError("need beta > 0 and p >= 1")
    pm1 = 1.0 if p == 1.0 else ((p - 1.0) / beta) ** (p - 1.0)
    return ((2.0 / beta) * pm1) ** (1.0 / p)


def optimal_constant_and_ratio(G: FillingGraph, u: np.ndarray, p: float,
                               paper_constant: float = math.nan, slack: float = 0.0,
                               name: str = "", sharp_constant: float | None = None) -> SPReport:
    """Optimal subtracted constant, both norms and their ratio for one
    discrete function, judged against a caller-supplied reference constant
    (pass iff ratio <= constant * (1 + slack)). A function with zero
    gradient norm is constant: it keeps c = u[0] and ratio 0."""
    if p < 1.0:
        raise DomainError("p must be >= 1")
    u = np.asarray(u, dtype=float)
    g = discrete_upper_gradient(G, u)
    w = G.node_measure
    lp_g = lp_norm(g.node, w, p)
    if lp_g == 0.0:
        c, lp_u, ratio = float(u[0]), 0.0, 0.0
    else:
        c = optimal_subtracted_constant(u, w, p)
        lp_u = lp_norm(u - c, w, p)
        ratio = lp_u / lp_g
    passed = None if math.isnan(paper_constant) else bool(
        ratio <= paper_constant * (1.0 + slack))
    sharp_passed = None if sharp_constant is None else bool(
        ratio <= sharp_constant * (1.0 + slack))
    return SPReport(name, p, c, lp_u, lp_g, ratio, paper_constant, passed, slack,
                    not math.isfinite(lp_g), sharp_constant, sharp_passed)


def halfline_graph(weight_kind: str, beta: float, t_max: float, dt: float) -> FillingGraph:
    """Weighted half-line as a degenerate filling graph (one-point carrier)."""
    point = CarrierSpace(np.zeros((1, 1)), np.ones(1))
    return build_filling_graph(point, WarpProfile.exp(1.0), weight_kind, beta, t_max, dt)


def _poincare_reports(G: FillingGraph, p: float, family: Sequence, slack: float,
                      constant: float, sharp_constant: float | None = None,
                      radial: bool = False) -> list:
    """One SPReport per family member. A member is (name, payload) or a bare
    payload named "u". A callable payload is sampled on G as fn(t, y), or as
    fn(t) when radial; any other payload is read as node values."""
    if not family:
        raise PreconditionError("family must be nonempty")
    out = []
    for member in family:
        name, payload = (member if isinstance(member, tuple) and len(member) == 2
                         else ("u", member))
        if callable(payload):
            vals = G.sample((lambda t, y: payload(t)) if radial else payload)
        else:
            vals = np.asarray(payload, dtype=float)
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
    return _poincare_reports(G, p, family, slack, halfline_constant_exp(G.beta, p))


def builtin_halfline_family() -> list:
    """Twelve test functions with limits at infinity and integrable decay."""
    return [
        ("constant_one", lambda t: np.ones_like(t)),
        ("exp_decay_2", lambda t: np.exp(-2.0 * t)),
        ("exp_decay_4", lambda t: np.exp(-4.0 * t)),
        ("clipped_ramp", lambda t: np.minimum(t, 1.0)),
        ("shifted_ramp", lambda t: np.clip(t - 1.0, 0.0, 1.0)),
        ("t_exp_decay", lambda t: t * np.exp(-2.0 * t)),
        ("t2_exp_decay", lambda t: t ** 2 * np.exp(-3.0 * t)),
        ("gaussian", lambda t: np.exp(-t ** 2)),
        ("damped_cosine", lambda t: np.cos(2.0 * t) * np.exp(-3.0 * t)),
        ("hat_at_2", lambda t: np.maximum(0.0, 1.0 - np.abs(t - 2.0))),
        ("damped_sine", lambda t: np.sin(5.0 * t) * np.exp(-2.0 * t)),
        ("smooth_step_down", lambda t: expit(-4.0 * (t - 3.0))),  # 1/(1 + e^{4(t-3)})
    ]


def builtin_filling_family(G: FillingGraph, y0: int = 0) -> list:
    """Separable, radial and oscillatory test functions on a filling graph,
    as (name, callable (t, y) -> u) pairs.

    Functions vanish at t = 0 whenever the graph has an apex, so they are
    single-valued on the collapsed bottom level.
    """
    carrier = G.carrier
    d0 = carrier.dist[:, y0] if carrier.n > 1 else np.zeros(1)
    diam = max(carrier.diameter(), 1e-12)

    def fiber(node_y, values, apex_value=0.0):
        vals = np.where(node_y >= 0, values[np.maximum(node_y, 0)], apex_value)
        return vals

    ramp = lambda t: np.clip(t - 1.0, 0.0, 1.0)
    hat = lambda t: np.maximum(0.0, 1.0 - np.abs(t - 2.0))
    bump = np.maximum(0.0, 0.5 * diam - d0)
    harmonic = np.cos(math.pi * d0 / diam)
    # fiber-dependent factors must decay radially: below the threshold the
    # gradient of a persistent fiber oscillation is never p-integrable
    return [
        ("constant_one", lambda t, y: np.ones_like(t)),
        ("radial_exp_decay", lambda t, y: np.exp(-2.0 * t)),
        ("radial_ramp", lambda t, y: ramp(t)),
        ("radial_gaussian", lambda t, y: np.exp(-t ** 2)),
        ("separable_bump", lambda t, y: hat(t) * fiber(y, bump)),
        ("oscillatory_harmonic", lambda t, y: (t * np.exp(-3.0 * t) if G.has_apex
                                               else np.exp(-3.0 * t)) * fiber(y, harmonic, 1.0)),
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
                         dt: float = 0.01, max_nodes: int | None = None) -> CounterexampleReport:
    """Sharpness probe at the threshold p = beta/alpha on the sinh model.

    Builds u(t, y) = clip(t-1, 0, 1) * clip(r - d_Y(y, y0), 0, r/2) and its
    separable-product upper gradient

        g = |u_Y| * Lip(u_R) + (|u_R| / psi) * Lip(u_Y),

    then tracks ||g||_p (which must stabilize when p > beta/alpha, matching
    the quadrature of the sinh^{beta - p*alpha} tail) and inf_c ||u - c||_p
    (which must grow without bound) over the truncation schedule.
    """
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
    mu_annulus = float(carrier.measure[lip_y > 0.0].sum())
    s_exp = beta - p * alpha
    tail_converges = s_exp < 0.0

    def u_radial(t):
        return np.clip(t - 1.0, 0.0, 1.0)

    def sinh_pow(x: float, s: float) -> float:
        # sinh(x)^s in log space; safe for large x with negative s
        if x <= 0.0:
            return 0.0
        log_sinh = x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)
        arg = s * log_sinh
        return math.exp(arg) if arg < 700.0 else math.inf

    g_norms, u_devs, tails_d, tails_q = [], [], [], []
    for T in schedule:
        G = build_filling_graph(carrier, WarpProfile.sinh_pow(alpha), "sinh",
                                beta, T, dt, max_nodes)
        t = G.node_t
        yidx = G.node_y
        u_r = u_radial(t)
        lip_r = ((t >= 1.0) & (t <= 2.0)).astype(float)
        uy = np.where(yidx >= 0, u_y[np.maximum(yidx, 0)], 0.0)
        ly = np.where(yidx >= 0, lip_y[np.maximum(yidx, 0)], 0.0)
        u = u_r * uy
        psi = np.sinh(t) ** alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            second = np.where(t > 0.0, u_r / np.where(t > 0.0, psi, 1.0) * ly, 0.0)
        g = uy * lip_r + second
        w = G.node_measure
        g_norms.append(lp_norm(g, w, p))
        c = optimal_subtracted_constant(u, w, p)
        u_devs.append(lp_norm(u - c, w, p))
        tail_mask = t >= 1.0
        tails_d.append(float(np.sum((second[tail_mask]) ** p * w[tail_mask])) / mu_annulus)
        q, _ = quad(lambda x: float(u_radial(np.asarray(x))) ** p * sinh_pow(x, s_exp),
                    1.0, T, limit=200)
        tails_q.append(float(q))

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


@dataclass
class SliceCheckReport:
    max_violation: float
    radial_violation: float
    horizontal_violation: float
    worst_edge: tuple | None

    def to_dict(self) -> dict:
        return asdict(self)


def slice_gradient_check(G: FillingGraph, u: np.ndarray,
                         g_node: np.ndarray | None = None) -> SliceCheckReport:
    """Discrete tensorization guard on a product grid (no apex).

    Along each fiber, radial difference quotients of u must stay below the
    node gradient at both endpoints; along each level, fiber difference
    quotients must stay below psi(t) times it. Zero violation by
    construction for the builtin gradient; pass a perturbed g_node to see
    a positive report.
    """
    if G.has_apex:
        raise PreconditionError("slice check requires a product grid without apex merge")
    u = np.asarray(u, dtype=float)
    if g_node is None:
        g_node = discrete_upper_gradient(G, u).node
    a, b, w = G.edges
    radial = G.node_y[a] == G.node_y[b]
    quot = np.abs(u[a] - u[b]) / w
    bound = np.minimum(g_node[a], g_node[b])
    viol_r = quot[radial] - bound[radial]
    # horizontal: per-level fiber quotient |du|/d_Y vs psi(t) * g
    hor = ~radial
    psi_t = np.asarray(G.profile.psi(G.node_t[a[hor]]), dtype=float)
    d_y = w[hor] / psi_t
    viol_h = np.abs(u[a[hor]] - u[b[hor]]) / d_y - psi_t * bound[hor]
    rmax = float(viol_r.max()) if viol_r.size else 0.0
    hmax = float(viol_h.max()) if viol_h.size else 0.0
    worst = None
    if max(rmax, hmax) > 0.0:
        if rmax >= hmax:
            k = int(np.argmax(viol_r))
            idx = np.flatnonzero(radial)[k]
        else:
            k = int(np.argmax(viol_h))
            idx = np.flatnonzero(hor)[k]
        worst = (int(a[idx]), int(b[idx]))
    return SliceCheckReport(max(rmax, hmax, 0.0), max(rmax, 0.0), max(hmax, 0.0), worst)
