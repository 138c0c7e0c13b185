"""The warped half-line product over a finite carrier.

Points are (t, y) with a radial coordinate t >= 0 and a carrier node y.
Under the l1 combination of speeds, the distance has the closed form

    d((t1,y1), (t2,y2)) = t1 + t2 + min_{rho in [0, min(t1,t2)]}
                          (psi(rho) * d_Y(y1,y2) - 2*rho),

realized in the limit by down-across-up curves. All closed forms here
assume the l1 combination. When psi(0) = 0 every point with t = 0 is the
same point (the apex), and the formula already returns 0 for such pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .profiles import WarpProfile, minimize_F_batch
from .spaces import CarrierSpace


@dataclass(frozen=True)
class WarpedPoint:
    """Point (t, y) of the filling; y indexes a carrier node."""

    t: float
    y: int


def _check_points(space: CarrierSpace, t, y):
    """Validate radial coordinates and carrier indices (scalars or arrays):
    t finite and >= 0, y integer with 0 <= y < n. Returns them as arrays."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y)
    if t.size and not (t.min() >= 0.0 and t.max() < math.inf):
        bad = t[~((t >= 0.0) & (t < math.inf))].flat[0]
        raise DomainError(f"radial coordinate must be finite and >= 0, got {bad}")
    if y.dtype.kind not in "iu":
        raise DomainError(f"carrier indices must be integers, got dtype {y.dtype}")
    if y.size and not (y.min() >= 0 and y.max() < space.n):
        bad = y[(y < 0) | (y >= space.n)].flat[0]
        raise DomainError(f"carrier index {bad} out of range [0, {space.n})")
    return t, y


def distance(profile: WarpProfile, space: CarrierSpace,
             p1: WarpedPoint, p2: WarpedPoint) -> float:
    """Exact warped distance under the l1 combination."""
    return float(distance_batch(profile, space, [p1.t], [p1.y], [p2.t], [p2.y])[0])


def distance_batch(profile: WarpProfile, space: CarrierSpace, t1, y1, t2, y2) -> np.ndarray:
    """Vectorized `distance` over index arrays. DomainError naming the first
    pair whose distance is not finite in double precision."""
    t1, y1 = _check_points(space, t1, y1)
    t2, y2 = _check_points(space, t2, y2)
    d_y = space.dist[y1, y2]
    _, fmin = minimize_F_batch(profile, d_y, np.minimum(t1, t2))
    with np.errstate(over="ignore"):
        d = t1 + t2 + fmin
    bad = ~np.isfinite(d)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        ta, ya, tb, yb = (np.broadcast_to(x, d.shape).flat[k].item() for x in (t1, y1, t2, y2))
        raise DomainError(f"the warped distance from ({ta!r}, {ya}) to ({tb!r}, {yb}) "
                          "is not finite in double precision")
    return d


def gromov_product(profile: WarpProfile, space: CarrierSpace, basepoint_y: int,
                   p1: WarpedPoint, p2: WarpedPoint) -> float:
    """Gromov product of p1, p2 with basepoint (0, basepoint_y).

    Equals (psi(0)(d_Y(y1,y0) + d_Y(y2,y0)) + max_{rho <= min(t1,t2)}
    (2*rho - psi(rho) d_Y(y1,y2))) / 2, and agrees with the three-distance
    definition computed from `distance`.
    """
    return float(gromov_product_batch(profile, space, basepoint_y,
                                      [p1.t], [p1.y], [p2.t], [p2.y])[0])


def gromov_product_batch(profile: WarpProfile, space: CarrierSpace, basepoint_y: int,
                         t1, y1, t2, y2) -> np.ndarray:
    t1, y1 = _check_points(space, t1, y1)
    t2, y2 = _check_points(space, t2, y2)
    _check_points(space, 0.0, basepoint_y)
    d_y = space.dist[y1, y2]
    _, fmin = minimize_F_batch(profile, d_y, np.minimum(t1, t2))
    if profile.psi0 == 0.0:
        # 0 * (d0[y1] + d0[y2]) would be NaN where the sum overflows; 0.0 - fmin
        # has the bits of 0 * sum - fmin, for a zero fmin too
        return 0.5 * (0.0 - fmin)
    d0 = space.dist[:, basepoint_y]
    return 0.5 * (profile.psi0 * (d0[y1] + d0[y2]) - fmin)
