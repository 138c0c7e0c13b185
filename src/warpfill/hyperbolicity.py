"""Hyperbolicity estimation and visual boundary metrics.

The four-point defect is sampled with a fixed basepoint at radial
coordinate 0; for the builtin profiles the defect is bounded by
2/alpha (plus 3*psi(0)*diam(Y) when psi(0) != 0). Boundary points are
identified with carrier nodes; the visual premetric e^{-eps<.,.>} is
turned into a metric by an exact shortest-chain closure, which for a
finite boundary is plain min-plus matrix closure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .profiles import WarpProfile, sup_G_batch
from .spaces import CarrierSpace
from .warped import WarpedPoint, gromov_product_batch


@dataclass
class DeltaReport:
    delta_basepoint: float
    delta_bound_paper: float
    samples: int
    worst_witness: tuple
    basepoint_y: int
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "delta_basepoint": self.delta_basepoint,
            "delta_bound_paper": self.delta_bound_paper,
            "samples": self.samples,
            "basepoint_y": self.basepoint_y,
            "seed": self.seed,
            "worst_witness": [{"t": p.t, "y": p.y} for p in self.worst_witness],
        }


@dataclass
class BoundaryMetric:
    eps: float
    basepoint_y: int
    premetric: np.ndarray
    chained: np.ndarray
    delta_used: float
    eps_warning: bool

    @property
    def n(self) -> int:
        return self.premetric.shape[0]


@dataclass
class SnowflakeReport:
    fitted_exponent: float
    target_exponent: float
    C0_empirical: float
    passed: bool
    pairs: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class QuasisymmetryReport:
    eta_samples: list
    skipped: int
    eta_exponent: float
    eta_coefficient: float
    violations: int

    def to_dict(self) -> dict:
        return asdict(self)


def delta_bound(profile: WarpProfile, space: CarrierSpace) -> float:
    """Hyperbolicity bound 2/alpha, plus 3*psi(0)*diam(Y) when psi(0) != 0."""
    bound = 2.0 / profile.alpha
    psi0 = profile.psi0
    if psi0 != 0.0:
        bound += 3.0 * psi0 * space.diameter()
    return bound


def estimate_delta(profile: WarpProfile, space: CarrierSpace, t_max: float,
                   count: int, seed: int, basepoint_y: int = 0) -> DeltaReport:
    """Sampled four-point defect with fixed basepoint (0, basepoint_y).

    Draws `count` seeded triples (t, y) with t uniform on [0, t_max] and
    reports max(min(<x,z>, <y,z>) - <x,y>, 0) together with the witness
    quadruple. Sampling can only under-report the true supremum.
    """
    if count < 1:
        raise DomainError("estimate_delta requires count >= 1")
    if not (t_max >= 0.0):
        raise DomainError("estimate_delta requires t_max >= 0")
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, t_max, size=(3, count))
    y = rng.integers(0, space.n, size=(3, count))
    g01 = gromov_product_batch(profile, space, basepoint_y, t[0], y[0], t[1], y[1])
    g02 = gromov_product_batch(profile, space, basepoint_y, t[0], y[0], t[2], y[2])
    g12 = gromov_product_batch(profile, space, basepoint_y, t[1], y[1], t[2], y[2])
    defect = np.minimum(g02, g12) - g01
    k = int(np.argmax(defect))
    delta = max(0.0, float(defect[k]))
    witness = (WarpedPoint(0.0, basepoint_y),
               WarpedPoint(float(t[0, k]), int(y[0, k])),
               WarpedPoint(float(t[1, k]), int(y[1, k])),
               WarpedPoint(float(t[2, k]), int(y[2, k])))
    return DeltaReport(delta, delta_bound(profile, space), count, witness,
                       basepoint_y, seed)


def estimate_delta_exhaustive(profile: WarpProfile, space: CarrierSpace,
                              t_levels, basepoint_y: int = 0) -> DeltaReport:
    """Exhaustive four-point defect over a lattice (t_levels x carrier),
    still with the basepoint fixed. O(m^3) in m = len(t_levels) * n; meant
    for small instances."""
    t_levels = np.asarray(t_levels, dtype=float)
    tt = np.repeat(t_levels, space.n)
    yy = np.tile(np.arange(space.n), t_levels.size)
    m = tt.size
    if m ** 3 > 2_000_000_000:
        raise DomainError(f"lattice of {m} points is too large for an exhaustive scan")
    G = np.empty((m, m))
    for i in range(m):
        G[i] = gromov_product_batch(profile, space, basepoint_y,
                                    np.full(m, tt[i]), np.full(m, yy[i], dtype=int), tt, yy)
    delta = 0.0
    witness_idx = (0, 0, 0)
    for k in range(m):
        cand = np.minimum(G[:, [k]], G[[k], :]) - G
        ij = np.unravel_index(int(np.argmax(cand)), cand.shape)
        if cand[ij] > delta:
            delta = float(cand[ij])
            witness_idx = (ij[0], ij[1], k)
    i, j, k = witness_idx
    witness = (WarpedPoint(0.0, basepoint_y),
               WarpedPoint(float(tt[i]), int(yy[i])),
               WarpedPoint(float(tt[j]), int(yy[j])),
               WarpedPoint(float(tt[k]), int(yy[k])))
    return DeltaReport(delta, delta_bound(profile, space), m ** 3, witness, basepoint_y)


def default_eps(delta: float) -> float:
    """Default visual parameter 0.9 * min(1, 1/(5*delta)), safely inside the
    range where the chain closure stays within a factor 2 of the premetric."""
    if delta <= 0.0:
        return 0.9
    return 0.9 * min(1.0, 1.0 / (5.0 * delta))


def _min_plus_closure(M: np.ndarray) -> np.ndarray:
    """All-pairs shortest chains on the complete graph weighted by M.

    Plain Floyd-Warshall over numpy rows; zero entries are genuine zero
    weights. O(n^3)."""
    D = M.copy()
    n = D.shape[0]
    for k in range(n):
        np.minimum(D, D[:, [k]] + D[[k], :], out=D)
    return D


def boundary_metric(profile: WarpProfile, space: CarrierSpace, eps: float | None = None,
                    basepoint_y: int = 0, growth_grid=None) -> BoundaryMetric:
    """Visual boundary metric on the carrier.

    Boundary points are the carrier nodes; their extended Gromov product is
    (psi(0)(d_Y(y1,y0) + d_Y(y2,y0)) + sup_{rho >= 0}(2 rho - psi(rho) d_Y))/2
    with the convention <y, y> = +inf. The premetric is e^{-eps <.,.>} and
    `chained` is its exact shortest-chain closure. eps defaults to
    `default_eps` of the profile bound; a larger eps only sets a warning
    flag (the factor-2 comparison is then not guaranteed).

    The profile must stay below C * e^{alpha t}; this is checked on
    growth_grid (default linspace(0, 60, 241)).
    """
    if not (0 <= basepoint_y < space.n):
        raise DomainError(f"basepoint index {basepoint_y} out of range")
    grid = np.linspace(0.0, 60.0, 241) if growth_grid is None else np.asarray(growth_grid, float)
    ratios = np.asarray(profile.psi(grid), float) * np.exp(-profile.alpha * grid)
    # psi <= C e^{alpha t} means psi * e^{-alpha t} plateaus; a ratio still
    # climbing across the tail of the grid has no admissible C
    half = ratios[grid >= 0.5 * grid[-1]]
    if (not np.all(np.isfinite(ratios))) or (half.size >= 2 and half[-1] > 1.05 * half[0]):
        raise PreconditionError(
            "profile is not dominated by C * e^{alpha t}: the ratio psi(t) e^{-alpha t} "
            "keeps growing on the validation grid")
    delta = delta_bound(profile, space)
    if eps is None:
        eps = default_eps(delta)
    if not (eps > 0.0):
        raise DomainError("eps must be positive")
    eps_warning = eps > min(1.0, 1.0 / (5.0 * delta)) + 1e-15

    D = space.dist
    d0 = D[:, basepoint_y]
    off = ~np.eye(space.n, dtype=bool) & (D > 0.0)
    two_prod = np.full_like(D, math.inf)
    if np.any(off):
        sup = np.full_like(D, -math.inf)
        sup[off] = sup_G_batch(profile, D[off])
        two_prod[off] = profile.psi0 * (d0[:, None] + d0[None, :])[off] + sup[off]
    with np.errstate(over="ignore"):
        premetric = np.exp(-eps * 0.5 * two_prod)
    chained = _min_plus_closure(premetric)
    return BoundaryMetric(float(eps), basepoint_y, premetric, chained, delta, eps_warning)


def _snowflake_constant(bm: BoundaryMetric, space: CarrierSpace, s: float):
    """Carrier and boundary distances (d, chained) over the distinct pairs
    where both are positive, and the empirical snowflake constant
    C0 = max(chained / d^s, d^s / chained) over them (nan without pairs)."""
    iu = np.triu_indices(space.n, 1)
    d = space.dist[iu]
    c = bm.chained[iu]
    mask = (d > 0.0) & (c > 0.0)
    d, c = d[mask], c[mask]
    if d.size == 0:
        return d, c, math.nan
    snow = d ** s
    return d, c, float(np.max(np.maximum(c / snow, snow / c)))


def snowflake_check(bm: BoundaryMetric, space: CarrierSpace, alpha: float,
                    slope_rtol: float = 0.02) -> SnowflakeReport:
    """Least-squares exponent of ln(chained) against ln(d_Y) over distinct
    pairs, compared with eps/alpha, plus the empirical snowflake constant
    C0 = max(chained / d^s, d^s / chained)."""
    if space.n < 3:
        raise DomainError("snowflake_check needs at least 3 distinct points")
    target = bm.eps / alpha
    d, c, C0 = _snowflake_constant(bm, space, target)
    if d.size < 2:
        raise DomainError("not enough distinct pairs for a snowflake fit")
    slope, _ = np.polyfit(np.log(d), np.log(c), 1)
    passed = abs(float(slope) - target) <= slope_rtol * target and math.isfinite(C0)
    return SnowflakeReport(float(slope), target, C0, passed, int(d.size))


def quasisymmetry_modulus(bm: BoundaryMetric, space: CarrierSpace, alpha: float,
                          count: int = 2000, seed: int = 0,
                          triples=None, max_samples: int = 10000) -> QuasisymmetryReport:
    """Distance-ratio pairs (d_Y ratio, boundary ratio) over sampled triples
    of distinct points, with the dominance count against the control
    function eta(t) = C0^2 * t^(eps/alpha) implied by the snowflake bounds.

    Triples containing coincident points are skipped and counted.
    """
    D = space.dist
    n = space.n
    if triples is None:
        rng = np.random.default_rng(seed)
        triples = rng.integers(0, n, size=(count, 3))
    triples = np.asarray(triples)
    x, yy, z = triples[:, 0], triples[:, 1], triples[:, 2]
    din_num = D[x, yy]
    din_den = D[x, z]
    dout_num = bm.chained[x, yy]
    dout_den = bm.chained[x, z]
    ok = (din_num > 0.0) & (din_den > 0.0) & (dout_den > 0.0) & (x != yy) & (x != z) & (yy != z)
    skipped = int((~ok).sum())
    ratio_in = din_num[ok] / din_den[ok]
    ratio_out = dout_num[ok] / dout_den[ok]

    s = bm.eps / alpha
    _, _, C0 = _snowflake_constant(bm, space, s)
    viol = int(np.sum(ratio_out > C0 ** 2 * ratio_in ** s * (1.0 + 1e-12)))
    pairs = list(zip(ratio_in[:max_samples].tolist(), ratio_out[:max_samples].tolist()))
    return QuasisymmetryReport(pairs, skipped, s, C0 ** 2, viol)
