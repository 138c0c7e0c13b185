"""The warped half-line product over a finite carrier.

Points are (t, y) with a radial coordinate t >= 0 and a carrier node y.
Under the l1 combination of speeds, the distance has the closed form

    d((t1,y1), (t2,y2)) = t1 + t2 + min_{rho in [0, min(t1,t2)]}
                          (psi(rho) * d_Y(y1,y2) - 2*rho),

realized in the limit by down-across-up curves. All closed forms here
assume the l1 combination; other admissible norms are served by the
guaranteed factor-2 enclosure `distance_bounds_other_norm`. When
psi(0) = 0 every point with t = 0 is the same point (the apex), and the
formula already returns 0 for such pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .norms import Norm2, validate_norm
from .profiles import WarpProfile, minimize_F, minimize_F_batch
from .spaces import CarrierSpace


@dataclass(frozen=True)
class WarpedPoint:
    """Point (t, y) of the filling; y indexes a carrier node."""

    t: float
    y: int


@dataclass(frozen=True)
class UCurve:
    """Down-across-up curve: descending radial leg to level tau, horizontal
    leg along a fiber trace of the given length, ascending radial leg."""

    start: WarpedPoint
    end: WarpedPoint
    tau: float
    horizontal_y_length: float
    descending: float
    horizontal: float
    ascending: float

    @property
    def total(self) -> float:
        return self.descending + self.horizontal + self.ascending


@dataclass(frozen=True)
class MixedSegment:
    """Parametrized speed table for a polyline segment that moves both
    coordinates: t_path(s), |t'(s)| and the fiber speed on s in [0, 1]."""

    t_path: Callable
    t_speed: Callable
    y_speed: Callable


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


def _check_point(space: CarrierSpace, p: WarpedPoint) -> None:
    _check_points(space, p.t, p.y)


def distance(profile: WarpProfile, space: CarrierSpace,
             p1: WarpedPoint, p2: WarpedPoint) -> float:
    """Exact warped distance under the l1 combination."""
    return float(distance_batch(profile, space, [p1.t], [p1.y], [p2.t], [p2.y])[0])


def distance_batch(profile: WarpProfile, space: CarrierSpace, t1, y1, t2, y2) -> np.ndarray:
    """Vectorized `distance` over index arrays."""
    t1, y1 = _check_points(space, t1, y1)
    t2, y2 = _check_points(space, t2, y2)
    d_y = space.dist[y1, y2]
    _, fmin = minimize_F_batch(profile, d_y, np.minimum(t1, t2))
    return t1 + t2 + fmin


def distance_bounds_other_norm(norm: Norm2, d_l1: float):
    """Guaranteed enclosure [d_l1/2, d_l1] of the warped distance under
    another admissible norm, given the l1 value.

    The l1 combination maximizes warped length, so d_l1 is an upper bound;
    the factor-2 norm comparison gives the lower one. Degenerates to a
    point for the l1 norm itself.
    """
    if not (d_l1 >= 0.0):
        raise DomainError(f"distance must be >= 0, got {d_l1}")
    rep = validate_norm(norm)
    if not rep.admissible:
        raise PreconditionError(
            f"norm {norm.label()} is not unitary coordinate-increasing: {rep.violations}")
    if norm.kind == "l1" or d_l1 == 0.0:
        return (d_l1, d_l1)
    return (0.5 * d_l1, d_l1)


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
    d0 = space.dist[:, basepoint_y]
    return 0.5 * (profile.psi0 * (d0[y1] + d0[y2]) - fmin)


def build_ucurve(profile: WarpProfile, space: CarrierSpace, p1: WarpedPoint,
                 p2: WarpedPoint, y_path_length: float) -> UCurve:
    """Optimal down-across-up curve whose horizontal trace has the given
    fiber length (at least d_Y(y1, y2)).

    The horizontal level is the largest minimizer of the radial tradeoff;
    the total length dominates `distance` and matches it as y_path_length
    decreases to d_Y(y1, y2).
    """
    _check_point(space, p1)
    _check_point(space, p2)
    d_y = float(space.dist[p1.y, p2.y])
    if y_path_length < d_y - 1e-12 * max(1.0, d_y):
        raise PreconditionError(
            f"y_path_length {y_path_length} is below the fiber distance {d_y}")
    res = minimize_F(profile, y_path_length, min(p1.t, p2.t))
    tau = res.tau
    horizontal = float(profile.psi(tau)) * y_path_length
    return UCurve(p1, p2, tau, y_path_length, p1.t - tau, horizontal, p2.t - tau)


def _simpson(f: Callable, n_panels: int) -> float:
    if n_panels < 1:
        raise DomainError("quadrature needs at least one panel")
    s = np.linspace(0.0, 1.0, n_panels + 1)
    h = 1.0 / n_panels
    total = 0.0
    for k in range(n_panels):
        a, b = s[k], s[k + 1]
        total += (h / 6.0) * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b))
    return total


def _classify_segment(a: WarpedPoint, b: WarpedPoint) -> str:
    if a.y == b.y:
        return "vertical"
    if a.t == b.t:
        return "horizontal"
    return "mixed"


def polyline_length(profile: WarpProfile, space: CarrierSpace,
                    samples: Sequence[WarpedPoint], quadrature_n: int = 128,
                    speed_tables: dict | None = None) -> float:
    """Warped length of a piecewise path given by samples.

    Segments sharing y are vertical (|dt|); segments sharing t are
    horizontal at that level along a fiber-shortest chain
    (psi(t) * d_Y). A segment moving both coordinates needs a
    MixedSegment speed table (keyed by segment index), integrated with
    composite Simpson over quadrature_n panels.
    """
    speed_tables = speed_tables or {}
    total = 0.0
    for k in range(len(samples) - 1):
        a, b = samples[k], samples[k + 1]
        _check_point(space, a)
        _check_point(space, b)
        kind = _classify_segment(a, b)
        if kind == "vertical":
            total += abs(b.t - a.t)
        elif kind == "horizontal":
            total += float(profile.psi(a.t)) * float(space.dist[a.y, b.y])
        else:
            table = speed_tables.get(k)
            if table is None:
                raise PreconditionError(
                    f"segment {k} moves both coordinates and has no speed table")
            total += _simpson(
                lambda s: abs(table.t_speed(s))
                + float(profile.psi(table.t_path(s))) * abs(table.y_speed(s)),
                quadrature_n)
    return total


def _split_chain(chain: list, D: np.ndarray, depth: int) -> list:
    """Nested dyadic waypoints of a node chain: recursively split at the
    node nearest to half the cumulative hop length."""
    if depth <= 0 or len(chain) < 3:
        return []
    hops = np.array([D[chain[i], chain[i + 1]] for i in range(len(chain) - 1)])
    cum = np.concatenate([[0.0], np.cumsum(hops)])
    mid = int(np.argmin(np.abs(cum - 0.5 * cum[-1])))
    mid = min(max(mid, 1), len(chain) - 2)
    left = _split_chain(chain[: mid + 1], D, depth - 1)
    right = _split_chain(chain[mid:], D, depth - 1)
    return left + [chain[mid]] + right


def chordal_length(profile: WarpProfile, space: CarrierSpace,
                   samples: Sequence[WarpedPoint], refinement: int) -> float:
    """Sum of warped distances over a dyadically refined partition of the
    polyline.

    Vertical segments split their radial range exactly; horizontal
    segments split along a fiber-shortest node chain. Partitions are
    nested in the refinement level, so the value is non-decreasing and
    converges upward to `polyline_length`. Mixed segments are not
    supported (a speed table carries no point trajectory).
    """
    if refinement < 0:
        raise DomainError("refinement must be >= 0")
    pts = [samples[0]]
    for k in range(len(samples) - 1):
        a, b = samples[k], samples[k + 1]
        kind = _classify_segment(a, b)
        if kind == "vertical":
            ts = np.linspace(a.t, b.t, 2 ** refinement + 1)[1:]
            pts.extend(WarpedPoint(float(t), a.y) for t in ts)
        elif kind == "horizontal":
            chain = space.chain(a.y, b.y)
            for node in _split_chain(chain, space.dist, refinement):
                pts.append(WarpedPoint(a.t, int(node)))
            pts.append(b)
        else:
            raise PreconditionError(
                f"segment {k} moves both coordinates; chordal refinement needs "
                "vertical or horizontal segments")
    t = np.array([p.t for p in pts], dtype=float)
    y = np.array([p.y for p in pts])
    return float(np.sum(distance_batch(profile, space, t[:-1], y[:-1], t[1:], y[1:])))
