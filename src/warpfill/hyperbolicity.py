"""Hyperbolicity estimation and visual boundary metrics.

The four-point defect is sampled with a fixed basepoint at radial
coordinate 0; for the builtin profiles the defect is bounded by
2/alpha (plus 3*psi(0)*diam(Y) when psi(0) != 0). Boundary points are
identified with carrier nodes; the visual premetric e^{-eps<.,.>} is
turned into a metric by an exact shortest-chain closure, which for a
finite boundary is plain min-plus matrix closure. An O(n^2) certificate on
the row and column minima first decides whether any chain can be shorter
than its direct entry; only when it cannot decide does scipy's
Floyd-Warshall run, with zero premetric entries kept as zero weights, not
missing edges.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, PreconditionError, ResourceCapError
from .profiles import WarpProfile, sup_G_batch
from .spaces import CarrierSpace
from .warped import WarpedPoint, gromov_product_batch

# triples per kernel call of estimate_delta, 3 * 2^14 elements: steep sinh
# solves its Newton roots once per call, and 2^13 cost it 10-15 %
_BLOCK = 2 ** 14
# relative tolerance of the fitted snowflake exponent
_SLOPE_RTOL = 0.02


@dataclass
class DeltaReport:
    # fields in the order of the delta document
    delta_basepoint: float
    delta_bound_paper: float
    samples: int
    basepoint_y: int
    seed: int
    worst_witness: tuple

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BoundaryMetric:
    eps: float
    premetric: np.ndarray
    chained: np.ndarray
    delta_used: float
    eps_warning: bool
    closure_check: str


@dataclass
class SnowflakeReport:
    fitted_exponent: float
    target_exponent: float
    C0_empirical: float
    passed: bool
    pairs: int

    def to_dict(self) -> dict:
        return asdict(self)


def delta_bound(profile: WarpProfile, space: CarrierSpace) -> float:
    """Hyperbolicity bound 2/alpha, plus 3*psi(0)*diam(Y) when psi(0) != 0."""
    bound = 2.0 / profile.alpha
    psi0 = profile.psi0
    if psi0 != 0.0:
        bound += 3.0 * psi0 * space.diameter()
    return bound


def _rng(seed) -> np.random.Generator:
    """numpy's generator for seed, an integer >= 0 and below 2^64
    (not a bool): a document holds no larger integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or \
            not 0 <= seed < 2 ** 64:
        raise DomainError(f"seed must be an integer >= 0 and below 2^64, got {seed!r}")
    return np.random.default_rng(seed)


def estimate_delta(profile: WarpProfile, space: CarrierSpace, t_max: float,
                   count: int, seed: int, basepoint_y: int = 0) -> DeltaReport:
    """Sampled four-point defect with fixed basepoint (0, basepoint_y).

    Draws `count` triples (t, y), seeded by `seed` (an integer >= 0), with
    t uniform on [0, t_max] and reports max(min(<x,z>, <y,z>) - <x,y>, 0)
    together with the witness quadruple. Sampling can only under-report the
    true supremum. `count` must be an integer >= 1 (not a bool); a count
    whose draws cannot be allocated raises ResourceCapError.

    The draws, (3, count) radial coordinates and carrier indices, are the
    only arrays of size `count`. The triples are then walked in blocks of
    _BLOCK: one `gromov_product_batch` call per block takes its pairs
    (0,1), (0,2) and (1,2) together, and the block's defects keep the first
    largest overall, a NaN first of all, as one np.argmax over every triple
    would. The kernel's result for an element does not depend on the batch
    around it, so the report has the bits of one batch over all triples.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise DomainError(f"count must be an integer >= 1, got {count!r}")
    count = int(count)
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise DomainError(f"estimate_delta: t_max must be finite and >= 0, got {t_max}")
    t_max += 0.0  # -0.0 reads as 0.0, which numpy's uniform takes
    rng = _rng(seed)
    try:
        t = rng.uniform(0.0, t_max, size=(3, count))
        y = rng.integers(0, space.n, size=(3, count))
    except (MemoryError, ValueError) as exc:  # ValueError: past the address space
        raise ResourceCapError(f"{count} triples need {48 * count} bytes of draws, 48 per "
                               f"triple, which cannot be allocated: {exc}") from exc
    first, second = [0, 0, 1], [1, 2, 2]  # rows of the pairs (0,1), (0,2), (1,2)
    worst, k = math.nan, 0
    for s in range(0, count, _BLOCK):
        b = slice(s, s + _BLOCK)
        g01, g02, g12 = gromov_product_batch(profile, space, basepoint_y, t[first, b],
                                             y[first, b], t[second, b], y[second, b])
        defect = np.minimum(g02, g12) - g01
        j = int(np.argmax(defect))
        if s == 0 or defect[j] > worst or math.isnan(defect[j]):
            worst, k = float(defect[j]), s + j
        if math.isnan(worst):  # np.argmax's first NaN: no later block wins
            break
    witness = (WarpedPoint(0.0, basepoint_y),
               WarpedPoint(float(t[0, k]), int(y[0, k])),
               WarpedPoint(float(t[1, k]), int(y[1, k])),
               WarpedPoint(float(t[2, k]), int(y[2, k])))
    return DeltaReport(max(0.0, worst), delta_bound(profile, space), count, basepoint_y,
                       seed, witness)


def default_eps(delta: float) -> float:
    """Default visual parameter 0.9 * min(1, 1/(5*delta)), safely inside the
    range where the chain closure stays within a factor 2 of the premetric.
    DomainError where it is 0, as past delta = 3.6e307, where 5*delta
    overflows."""
    if delta <= 0.0:
        return 0.9
    eps = 0.9 * min(1.0, 1.0 / (5.0 * delta))
    if not eps > 0.0:
        raise DomainError(f"the default eps 0.9/(5*delta) is 0: 5*delta overflows at the "
                          f"hyperbolicity bound delta = {delta!r}; pass an explicit eps")
    return eps


def _min_plus_closure(M: np.ndarray):
    """All-pairs shortest chains on the complete graph weighted by M (zero
    diagonal), and how they were decided: "certificate" or "floyd-warshall".

    The certificate takes O(n^2). With the row and column minima off the
    diagonal, r_i = min_{k != i} M[i, k] and s_j = min_{k != j} M[k, j], it
    holds when M has a zero diagonal, no NaN and no negative entry, and
    M[i, j] <= fl(r_i + s_j) everywhere. Then every k not in {i, j} gives
    fl(M[i, k] + M[k, j]) >= fl(r_i + s_j) >= M[i, j], since rounding is
    monotone, and k in {i, j} adds the zero diagonal; so no pivot of
    Floyd-Warshall lowers an entry, and its answer is M itself, bit for bit
    (with the diagonal +0.0, as scipy sets it). Otherwise this is scipy's
    Floyd-Warshall, O(n^3): M goes in as a sparse graph whose missing entries
    are the infinite ones, so zero entries stay genuine zero weights (dense
    input would read them as missing edges).
    """
    if np.all(M >= 0.0) and np.all(M.diagonal() == 0.0):  # NaN fails both
        C = M.copy()
        np.fill_diagonal(C, np.inf)
        if np.all(M <= C.min(axis=1)[:, None] + C.min(axis=0)):
            np.fill_diagonal(C, 0.0)
            return C, "certificate"
    # on use: loading it costs start-up time
    from scipy.sparse.csgraph import csgraph_from_dense, floyd_warshall

    return (floyd_warshall(csgraph_from_dense(M, null_value=np.inf), directed=True),
            "floyd-warshall")


def boundary_metric(profile: WarpProfile, space: CarrierSpace, eps: float | None = None,
                    basepoint_y: int = 0) -> BoundaryMetric:
    """Visual boundary metric on the carrier.

    Boundary points are the carrier nodes; their extended Gromov product is
    (psi(0)(d_Y(y1,y0) + d_Y(y2,y0)) + sup_{rho >= 0}(2 rho - psi(rho) d_Y))/2
    with the convention <y, y> = +inf. The premetric is e^{-eps <.,.>} and
    `chained` is its exact shortest-chain closure, decided as
    `closure_check` says (see `_min_plus_closure`). eps defaults to
    `default_eps` of the profile bound; a larger eps only sets a warning
    flag (the factor-2 comparison is then not guaranteed).

    The profile must stay below C * e^{alpha t}. The builtins do by their
    formulas (exp with C = 1, sinh^alpha with C = 2^-alpha); a custom
    profile is checked on 241 evenly spaced points of [0, min(60, 600/alpha)],
    where e^{alpha t} stays below e^600 and so representable.
    """
    if not (0 <= basepoint_y < space.n):
        raise DomainError(f"basepoint index {basepoint_y} out of range")
    if eps is not None and not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be positive and finite, got {eps}")
    if profile.kind == "custom":
        grid = np.linspace(0.0, min(60.0, 600.0 / profile.alpha), 241)
        ratios = np.asarray(profile.psi(grid), float) * np.exp(-profile.alpha * grid)
        # psi <= C e^{alpha t} means psi * e^{-alpha t} plateaus; a ratio still
        # climbing across the tail of the grid has no admissible C
        half = ratios[grid >= 0.5 * grid[-1]]
        if (not np.all(np.isfinite(ratios))) or (half.size >= 2 and half[-1] > 1.05 * half[0]):
            raise PreconditionError(
                "profile is not dominated by C * e^{alpha t}: the ratio psi(t) e^{-alpha t} "
                "keeps growing on the validation grid")
    delta = delta_bound(profile, space)
    if not math.isfinite(delta):
        raise DomainError(f"the hyperbolicity bound {delta} is not finite, so no eps > 0 keeps "
                          "the chain closure within a factor 2 of the premetric")
    if eps is None:
        eps = default_eps(delta)
    # a margin of 4 ulp, relative: the bound scales with 1/delta
    eps_warning = eps > min(1.0, 1.0 / (5.0 * delta)) * (1.0 + 2.0 ** -50)

    D = space.dist
    d0 = D[:, basepoint_y]
    off = ~np.eye(space.n, dtype=bool) & (D > 0.0)
    two_prod = np.full_like(D, math.inf)
    if np.any(off):
        two_prod[off] = sup_G_batch(profile, D[off])
        if profile.psi0 != 0.0:  # else d0 sums past double range would give 0 * inf
            two_prod[off] += profile.psi0 * (d0[:, None] + d0[None, :])[off]
    with np.errstate(over="ignore"):
        premetric = np.exp(-eps * 0.5 * two_prod)
    chained, closure_check = _min_plus_closure(premetric)
    return BoundaryMetric(float(eps), premetric, chained, delta, eps_warning, closure_check)


def snowflake_pairs(bm: BoundaryMetric, space: CarrierSpace):
    """Carrier and boundary distances (d, chained) over the pairs i < j, in
    row-major order, where both are positive."""
    iu = np.triu_indices(space.n, 1)
    d, c = space.dist[iu], bm.chained[iu]
    mask = (d > 0.0) & (c > 0.0)
    return d[mask], c[mask]


def snowflake_check(bm: BoundaryMetric, space: CarrierSpace, alpha: float) -> SnowflakeReport:
    """Least-squares exponent of ln(chained) against ln(d_Y) over distinct
    pairs, compared with eps/alpha to a relative _SLOPE_RTOL, plus the
    empirical snowflake constant C0 = max(chained / d^s, d^s / chained)."""
    if space.n < 3:
        raise DomainError("snowflake_check needs at least 3 distinct points")
    target = bm.eps / alpha
    d, c = snowflake_pairs(bm, space)
    if d.size < 2:
        raise DomainError("not enough distinct pairs for a snowflake fit")
    if d.min() == d.max():
        raise DomainError(f"every carrier distance is {float(d[0])!r}: a snowflake fit needs two "
                          "distinct distances")
    snow = d ** target
    C0 = float(np.max(np.maximum(c / snow, snow / c)))
    slope, _ = np.polyfit(np.log(d), np.log(c), 1)
    passed = abs(float(slope) - target) <= _SLOPE_RTOL * target and math.isfinite(C0)
    return SnowflakeReport(float(slope), target, C0, passed, int(d.size))
