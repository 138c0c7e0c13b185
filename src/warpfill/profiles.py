"""Warping profiles and the radial tradeoff kernel.

A profile is a function psi >= 0 on [0, inf) with growth parameter
alpha > 0 satisfying psi <= psi' / alpha, so psi grows at least like
e^{alpha t} wherever it is positive. Every distance, Gromov product and
boundary formula in this package reduces to minimizing the tradeoff

    F(rho) = psi(rho) * d - 2 * rho

over an interval [0, tmax]: descending/ascending legs pay 2*rho while the
horizontal crossing at level rho costs psi(rho)*d. `minimize_F_batch`
returns the largest minimizer, which is the canonical horizontal level of
the corresponding down-across-up curve; `minimize_F` and `sup_G` are
batches of one. Branches: closed forms for exp and for sinh with alpha 1
or 2; for other sinh alphas, a safeguarded Newton iteration (`_newton_root`)
stopped on a tolerance, not an iteration count; for custom profiles, a
knot scan and a golden section. For sinh with alpha > 1 the Newton root
depends on d alone, so it is solved once per distinct d of a batch and
then clipped to each element's tmax, bitwise as a per-element solve.

`WarpProfile.psi` and `dpsi` have one numpy path per kind: a scalar t is a
0-d batch, returned as a float with the bits of the array result, and
where psi overflows the value is inf without a warning. The kernel calls
psi once, at the minimizer of whichever branch ran, and refuses a
positive d whose minimizer has psi = inf with DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, SchemaError, UnboundedError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)
_EPS = np.finfo(float).eps
_RTOL = 1e-14  # Newton stops once its step in log rho is this small
_MAXIT = 100   # iteration cap of `_newton_root`; reaching it is a bug
_CHUNK = 2 ** 13  # elements per pass of the iterative branches, ~1 MB of arrays
# custom-profile scan knots as fractions of [0, T], scanned in chunks of
# _SCAN_CELLS knots (0.5 MB per temporary)
_KNOTS = np.unique(np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 512),
                                   np.linspace(0.0, 1.0, 1024)]))
_SCAN_CELLS = 2 ** 16


class WarpProfile:
    """Warping function with derivative access.

    Builtin kinds: "exp" (psi = e^{alpha t}) and "sinh" (psi = sinh^alpha t).
    Custom profiles must supply both psi and its derivative; the kernel
    never differentiates numerically, since the growth condition is
    checked against the supplied derivative.
    """

    def __init__(self, kind: str, alpha: float,
                 psi: Callable | None = None, dpsi: Callable | None = None):
        alpha = float(alpha)
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise DomainError(f"profile requires alpha > 0, got {alpha}")
        if kind not in ("exp", "sinh", "custom"):
            raise DomainError(f"unknown profile kind {kind!r}")
        if kind == "custom" and (psi is None or dpsi is None):
            raise DomainError("custom profiles need both psi and dpsi callables")
        self.kind = kind
        self.alpha = alpha
        self._psi = psi
        self._dpsi = dpsi

    @staticmethod
    def exp(alpha: float) -> "WarpProfile":
        return WarpProfile("exp", alpha)

    @staticmethod
    def sinh_pow(alpha: float) -> "WarpProfile":
        return WarpProfile("sinh", alpha)

    @staticmethod
    def custom(psi: Callable, dpsi: Callable, alpha: float) -> "WarpProfile":
        return WarpProfile("custom", alpha, psi=psi, dpsi=dpsi)

    @staticmethod
    def parse(spec: str) -> "WarpProfile":
        """Parse a selection string: exp:<alpha> | sinh:<alpha>."""
        kind, sep, alpha = spec.strip().partition(":")
        if not sep or kind not in ("exp", "sinh"):
            raise SchemaError(f"unknown profile selection {spec!r}")
        try:
            value = float(alpha)
        except ValueError as exc:
            raise SchemaError(f"profile alpha must be a number, got {alpha!r}") from exc
        return WarpProfile(kind, value)

    def label(self) -> str:
        return f"{self.kind}:{self.alpha:g}"

    def psi(self, t):
        tt = np.asarray(t, float)
        with np.errstate(over="ignore"):
            if self.kind == "exp":
                out = np.exp(self.alpha * tt)
            elif self.kind == "sinh":
                s = np.sinh(tt)
                out = np.power(s, self.alpha)
                big = s == np.inf
                if big.any():
                    # sinh t = e^t/2 to within e^{-2t} where it overflows, and
                    # sinh^alpha stays finite there when alpha < 1
                    out = np.where(big, np.exp(self.alpha * (tt - _LN2)), out)
            else:
                out = self._psi(t)
        return out if np.ndim(t) else float(out)

    def dpsi(self, t):
        tt = np.asarray(t, float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.kind == "exp":
                out = self.alpha * np.exp(self.alpha * tt)
            elif self.kind == "sinh":
                # alpha * sinh^{alpha-1} * cosh, inf at 0 when alpha < 1, and
                # alpha * psi where sinh overflows (coth t = 1 there; not 0 * inf)
                s = np.sinh(tt)
                out = self.alpha * np.power(s, self.alpha - 1.0) * np.cosh(tt)
                big = s == np.inf
                if big.any():
                    out = np.where(big, self.alpha * np.exp(self.alpha * (tt - _LN2)), out)
            else:
                out = self._dpsi(t)
        return out if np.ndim(t) else float(out)

    @property
    def psi0(self) -> float:
        return float(self.psi(0.0))


@dataclass(frozen=True)
class FMinResult:
    """Largest minimizer of F(rho) = psi(rho)*d - 2*rho over [0, tmax]."""

    tau: float
    fmin: float
    interior: bool


def _golden_section(f: Callable, a: np.ndarray, b: np.ndarray, tol: float):
    """Golden-section search for a minimum of f on [a, b], elementwise.

    f maps an array of points to its values. Each element narrows its own
    bracket until it is at most tol (or a few ulps) wide and gets (x, f(x))
    at the bracket center. f should be unimodal on [a, b].
    """
    a, b = np.minimum(a, b), np.maximum(a, b)
    while (active := b - a > np.maximum(tol, 4.0 * _EPS * np.abs(b))).any():
        x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        left = f(x1) <= f(x2)  # a minimum lies in [a, x2]
        a, b = np.where(active & ~left, x1, a), np.where(active & left, x2, b)
    x = 0.5 * (a + b)
    return x, f(x)


def _newton_root(g: Callable, x, lo, hi, gtol):
    """Roots of increasing functions, one per element, by safeguarded Newton.

    g(r, k) gives g and r*g'(r) for the elements k at points r > 0. Each
    step is a Newton step in log r, or a bisection of the bracket [lo, hi]
    where that would leave it. An element stops once its step is at most
    _RTOL or |g| <= gtol, its rounding-noise floor, and leaves the active
    set. An element still active after _MAXIT iterations, which only a
    bracket without a sign change leaves, raises ConvergenceError.
    """
    out = np.empty_like(x)
    k = np.arange(x.size)
    for iteration in range(_MAXIT + 1):
        if not k.size:
            return out
        if iteration == _MAXIT:
            raise ConvergenceError(f"Newton left {k.size} elements unconverged after {_MAXIT} iterations")
        val, slope = g(x, k)
        step = val / slope
        done = (np.abs(step) <= _RTOL) | (np.abs(val) <= gtol)
        if done.any():
            out[k[done]] = x[done]
            k, x, lo, hi, gtol, val, step = (v[~done] for v in (k, x, lo, hi, gtol, val, step))
        lo, hi = np.where(val < 0.0, x, lo), np.where(val < 0.0, hi, x)
        x = x * np.exp(-step)
        x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))


def _sinh_root(alpha: float, logc, x, lo, hi):
    """Root in [lo, hi] of g(r) = log(d*psi'(r)/2) = logc + (alpha-1)*log sinh r
    + log cosh r for psi = sinh^alpha, logc = log(alpha*d/2); F' = 2*(e^g - 1).
    Near the root no term of g exceeds about (1 + |logc|)/min(alpha, 1)."""
    def g(r, k):
        s, c = np.sinh(r), np.cosh(r)
        return (logc[k] + (alpha - 1.0) * np.log(s) + np.log(c),
                r * ((alpha - 1.0) * c / s + s / c))
    return _newton_root(g, x, lo, hi, 32.0 * _EPS * (1.0 + np.abs(logc)) / min(alpha, 1.0))


def _sinh_steep_root(profile: WarpProfile, d):
    """alpha > 1: F' increases from F'(0) = -2; its root, unclipped, or inf
    where the bound hi below overflows (the root then lies past the overflow
    of psi). The start point, bracket and tolerance depend on d alone, so
    the root does too."""
    alpha = profile.alpha
    logc = np.log(0.5 * alpha * d)
    # the root of the small-r asymptote (sinh r ~ r, cosh r ~ 1) bounds the
    # root above and is exact once its square is below (alpha-1)*eps, which
    # covers roots that underflow; sinh^alpha <= sinh^{alpha-1} cosh gives
    # hi, and the large-r asymptote (both ~ e^r/2) helps start elsewhere
    log_small = -logc / (alpha - 1.0)
    tau = np.exp(np.minimum(log_small, 709.0))
    k = np.flatnonzero(2.0 * log_small > math.log((alpha - 1.0) * _EPS))
    with np.errstate(over="ignore"):
        hi = np.arcsinh(np.exp(-logc[k] / alpha))
    tau[k[np.isinf(hi)]] = np.inf
    k, hi = k[np.isfinite(hi)], hi[np.isfinite(hi)]
    logc = logc[k]
    x0 = np.minimum(np.maximum(tau[k], (alpha * math.log(2.0) - logc) / alpha), hi)
    tau[k] = _sinh_root(alpha, logc, x0, np.zeros_like(hi), hi)
    return tau


def _sinh_shallow_argmin(profile: WarpProfile, d, tmax):
    """alpha < 1: F' falls from +inf to its minimum at rho_c = acosh(alpha^{-1/2})
    and rises after it, so F has at most two local minima: 0, where F = 0,
    and the root rho2 of F' past rho_c. F(min(rho2, tmax)) is compared with
    F(0), ties toward the larger rho; F increases up to the descending root
    of F', so a tmax below it gives 0 through the same comparison."""
    alpha = profile.alpha
    rho_c = math.acosh(1.0 / math.sqrt(alpha))
    tau = np.zeros_like(d)
    k = np.flatnonzero(d * profile.dpsi(rho_c) < 2.0)  # else F is nondecreasing
    # sinh^alpha <= sinh^{alpha-1} cosh bounds rho2, so cand = min(rho2, tmax)
    # unless F' > 0 at cand; past rho_c F' is convex and Newton descends.
    # 0.5 * alpha * d underflows to 0 for the smallest subnormal d
    with np.errstate(divide="ignore", over="ignore"):
        logc = np.log(0.5 * alpha * d[k])
        e = np.exp(-logc / alpha)
        # arcsinh e = log(2e) to within e^{-2 arcsinh e}, in log space once e overflows
        cand = np.minimum(np.where(np.isinf(e), _LN2 - logc / alpha, np.arcsinh(e)), tmax[k])
        # where sinh overflows, rho2 equals its bound to within e^{-2 rho2}, so
        # Newton, which needs a finite sinh, has nothing to refine there
        newton = np.sinh(cand) < np.inf
    if np.isinf(profile.psi(cand)).any():
        raise DomainError(f"the minimizer for {profile.label()} overflows psi")
    j = np.flatnonzero(newton & (cand > rho_c) & (d[k] * profile.dpsi(cand) > 2.0))
    cand[j] = _sinh_root(alpha, logc[j], cand[j], np.full(j.size, rho_c), cand[j])
    tau[k] = np.where(profile.psi(cand) * d[k] - 2.0 * cand <= 0.0, cand, 0.0)
    return tau


def _custom_argmin(profile: WarpProfile, d, tmax):
    """Knot scan of [0, T] (T = tmax, or where tmax = inf the first 2^k at
    which F has turned upward or psi overflows), golden section to 1e-10
    between the neighbours of the best knot, then the best of 0, that point
    and a finite T, ties toward the larger rho. A golden-section point at
    the overflow of psi, where F still descends, is refused with
    DomainError, as the builtin kinds refuse a minimizer where psi
    overflows."""
    def F(r, dd):
        with np.errstate(over="ignore"):
            return profile.psi(r) * dd - 2.0 * r

    f0 = F(np.zeros_like(d), d)
    T = tmax.copy()
    k = np.flatnonzero(np.isinf(tmax))
    t = 1.0
    while k.size:
        f_t, f_half = F(t, d[k]), F(0.5 * t, d[k])
        # psi is nondecreasing, so where F(t) = inf (psi overflows) F stays
        # inf past t and [0, t] holds the minimizer
        done = ((f_t > f_half) & (f_half > F(0.25 * t, d[k])) & (f_t > f0[k])) | np.isinf(f_t)
        T[k[done]] = t
        k, t = k[~done], 2.0 * t
        if k.size and t > 2.0 ** 200:
            raise UnboundedError("tradeoff objective does not turn upward")
    lo, hi = np.empty_like(T), np.empty_like(T)
    rows = _SCAN_CELLS // _KNOTS.size
    for i in range(0, T.size, rows):
        s = slice(i, i + rows)
        vals = F(T[s, None] * _KNOTS, d[s, None])
        best = _KNOTS.size - 1 - np.argmin(vals[:, ::-1], axis=1)  # ties toward larger rho
        lo[s] = T[s] * _KNOTS[np.maximum(best - 1, 0)]
        hi[s] = T[s] * _KNOTS[np.minimum(best + 1, _KNOTS.size - 1)]
    x, fx = _golden_section(lambda r: F(r, d), lo, hi, 1e-10)
    # where F descends into the overflow of psi, the golden section keeps a
    # right end where F = inf and ends within its final bracket of it
    if np.isinf(F(x + np.maximum(1e-10, 8.0 * _EPS * x), d)).any():
        raise DomainError(f"the minimizer for {profile.label()} overflows psi")
    fT = np.where(np.isinf(tmax), np.inf, F(T, d))
    fbest = np.minimum(np.minimum(f0, fx), fT)
    tie = fbest + 1e-15 * np.maximum(1.0, np.abs(fbest))
    return np.where(fT <= tie, T, np.where(fx <= tie, x, 0.0))


def minimize_F_batch(profile: WarpProfile, d, tmax):
    """Largest minimizer of F(rho) = psi(rho)*d - 2*rho over [0, tmax],
    elementwise: returns (tau, fmin) arrays of d's shape.

    d must be finite and >= 0; tmax broadcasts against d and may be inf
    where d > 0. Every element gets what a batch of one would give it, so
    neither the order nor the size of the batch changes a result. The
    iterative branches (see the module docstring) run on chunks of _CHUNK
    elements; for steep sinh these are the distinct positive d, whose
    Newton start, bracket and tolerance depend on d alone.
    """
    d = np.asarray(d, dtype=float)
    shape = d.shape
    d = d.ravel()
    flat = np.empty_like(d)
    flat.reshape(shape)[...] = tmax
    tmax = flat  # frees a temporary argument early
    bad = ~((d >= 0.0) & (d < np.inf) & (tmax >= 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError("minimize_F requires finite d >= 0 and tmax >= 0, "
                          f"got d={d[k]}, tmax={tmax[k]}")
    if np.any((d == 0.0) & np.isinf(tmax)):
        raise UnboundedError("F(rho) = -2*rho has no minimum over [0, inf)")

    pos = d > 0.0
    if profile.kind == "exp":
        alpha = profile.alpha
        with np.errstate(divide="ignore", over="ignore"):
            star = np.where(pos, np.log(2.0 / (alpha * np.where(pos, d, 1.0))) / alpha, np.inf)
        tau = np.clip(star, 0.0, tmax)
    elif profile.kind == "sinh" and profile.alpha in (1.0, 2.0):
        with np.errstate(over="ignore"):
            star = (np.arccosh(np.maximum(2.0 / np.where(pos, d, 1.0), 1.0)) if profile.alpha == 1.0
                    else 0.5 * np.arcsinh(2.0 / np.where(pos, d, 1.0)))
        tau = np.clip(np.where(pos, star, np.inf), 0.0, tmax)
    elif profile.kind == "sinh" and profile.alpha > 1.0:
        # the root depends on d alone: solve each distinct d once, then clip
        # every element to its own tmax, as a per-element solve would
        uniq, inverse = np.unique(d[pos], return_inverse=True)
        root = np.empty_like(uniq)
        for i in range(0, uniq.size, _CHUNK):
            root[i:i + _CHUNK] = _sinh_steep_root(profile, uniq[i:i + _CHUNK])
        tau = tmax.copy()  # d == 0: F = -2*rho decreases
        tau[pos] = np.minimum(root[inverse], tmax[pos])
    else:
        argmin = _custom_argmin if profile.kind == "custom" else _sinh_shallow_argmin
        tau = tmax.copy()  # d == 0: F = -2*rho decreases
        for i in range(0, d.size, _CHUNK):
            s = slice(i, i + _CHUNK)
            p = pos[s]
            tau[s][p] = argmin(profile, d[s][p], tmax[s][p])
    psi_tau = np.asarray(profile.psi(tau), dtype=float)
    if np.isinf(psi_tau[pos]).any():
        raise DomainError(f"the minimizer for {profile.label()} overflows psi")
    # guard inf * 0 at d == 0 entries whose tau is a huge tmax
    fmin = np.where(pos, psi_tau, 0.0) * d - 2.0 * tau
    return tau.reshape(shape), fmin.reshape(shape)


def minimize_F(profile: WarpProfile, d: float, tmax: float) -> FMinResult:
    """`minimize_F_batch` for a batch of one. tmax may be math.inf when
    d > 0; for d = 0 the objective -2*rho is unbounded below on [0, inf)
    and the call is rejected."""
    tau, fmin = minimize_F_batch(profile, [d], [tmax])
    return FMinResult(float(tau[0]), float(fmin[0]), bool(tau[0] > 0.0))


def sup_G_batch(profile: WarpProfile, d) -> np.ndarray:
    """sup over rho in [0, inf) of (2*rho - psi(rho)*d), elementwise, for d > 0.

    Finite because psi eventually dominates any e^{alpha t} lower bound;
    custom profiles locate the turning point by doubling the bracket
    until the tradeoff objective increases.
    """
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0.0):
        raise DomainError(f"sup_G requires d > 0, got {d[~(d > 0.0)].flat[0]}")
    _, fmin = minimize_F_batch(profile, d, np.full(d.shape, math.inf))
    return -fmin


def sup_G(profile: WarpProfile, d: float) -> float:
    """`sup_G_batch` for a single d."""
    return float(sup_G_batch(profile, [d])[0])
