"""Plane norms that combine radial and fiber speeds.

Admissible norms are unitary (value 1 on both unit axis vectors) and
coordinate-increasing on the nonnegative quadrant; all builtin kinds have
both properties. Any two admissible norms agree within a factor of 2 on
nonnegative pairs, which is what `comparison_factor_check` verifies.

A table norm interpolates sampled values on the unit quarter circle and
may deliberately violate admissibility, which is useful for negative
testing of downstream preconditions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, SchemaError

QUARTER = math.pi / 2.0


@dataclass(frozen=True, eq=False)
class Norm2:
    """A norm on the plane, evaluated on the nonnegative quadrant only.

    kind is one of "l1", "l2", "linf", "lp" (with exponent p > 1) or
    "table" (values of the norm at angles `theta` on the quarter circle,
    extended by positive homogeneity and linear interpolation in angle).
    """

    kind: str
    p: float | None = None
    theta: np.ndarray | None = None
    values: np.ndarray | None = None

    @staticmethod
    def l1() -> "Norm2":
        return Norm2("l1")

    @staticmethod
    def l2() -> "Norm2":
        return Norm2("l2")

    @staticmethod
    def linf() -> "Norm2":
        return Norm2("linf")

    @staticmethod
    def lp(p: float) -> "Norm2":
        p = float(p)
        if not math.isfinite(p) or p <= 1.0:
            raise DomainError(f"lp norm requires a finite exponent p > 1, got {p}")
        return Norm2("lp", p=p)

    @staticmethod
    def from_table(values, theta=None) -> "Norm2":
        try:
            values = np.asarray(values, dtype=float)
            theta = None if theta is None else np.asarray(theta, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"table norm values and angles must be numbers: {exc}") from exc
        if values.ndim != 1 or values.size < 2:
            raise SchemaError("table norm needs a 1-d array of at least 2 values")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise SchemaError("table norm values must be finite and positive")
        if theta is None:
            theta = np.linspace(0.0, QUARTER, values.size)
        else:
            if theta.shape != values.shape:
                raise SchemaError("table norm theta/values length mismatch")
            if np.any(np.diff(theta) <= 0.0):
                raise SchemaError("table norm angles must be strictly increasing")
            if abs(theta[0]) > 1e-12 or abs(theta[-1] - QUARTER) > 1e-12:
                raise SchemaError("table norm angles must cover [0, pi/2]")
        return Norm2("table", theta=theta, values=values)

    @staticmethod
    def from_file(path: str) -> "Norm2":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"norm table {path!r} is not valid JSON: {exc}") from exc
        if isinstance(doc, list):
            return Norm2.from_table(doc)
        if isinstance(doc, dict) and "values" in doc:
            return Norm2.from_table(doc["values"], doc.get("theta"))
        raise SchemaError(f"norm table {path!r} must be a list or {{'theta':…,'values':…}}")

    @staticmethod
    def parse(spec: str) -> "Norm2":
        """Parse a selection string: l1 | l2 | linf | lp:<p> | table:<path>."""
        spec = spec.strip()
        if spec == "l1":
            return Norm2.l1()
        if spec == "l2":
            return Norm2.l2()
        if spec == "linf":
            return Norm2.linf()
        if spec.startswith("lp:"):
            try:
                p = float(spec[3:])
            except ValueError as exc:
                raise SchemaError(f"lp norm exponent must be a number, got {spec[3:]!r}") from exc
            return Norm2.lp(p)
        if spec.startswith("table:"):
            return Norm2.from_file(spec[6:])
        raise SchemaError(f"unknown norm selection {spec!r}")

    def label(self) -> str:
        if self.kind == "lp":
            return f"lp:{self.p:g}"
        if self.kind == "table":
            return f"table:{self.values.size} knots"
        return self.kind


def _as_nonneg(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("norm arguments must be finite")
    if np.any(arr < 0.0):
        raise DomainError("norm arguments must be nonnegative")
    return arr


def eval_norm(norm: Norm2, a, b):
    """Evaluate ``norm`` at the nonnegative pair ``(a, b)``.

    Accepts scalars or broadcastable arrays; returns the matching shape.
    """
    A = _as_nonneg(a)
    B = _as_nonneg(b)
    if norm.kind == "l1":
        out = A + B
    elif norm.kind == "l2":
        out = np.hypot(A, B)
    elif norm.kind == "linf":
        out = np.maximum(A, B)
    elif norm.kind == "lp":
        out = (A ** norm.p + B ** norm.p) ** (1.0 / norm.p)
    elif norm.kind == "table":
        r = np.hypot(A, B)
        ang = np.arctan2(B, A)
        out = r * np.interp(ang, norm.theta, norm.values)
    else:
        raise DomainError(f"unknown norm kind {norm.kind!r}")
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


@dataclass
class NormValidation:
    unitary: bool
    coordinate_increasing: bool
    homogeneous: bool
    subadditive: bool
    violations: list

    @property
    def ok(self) -> bool:
        return self.unitary and self.coordinate_increasing and self.homogeneous and self.subadditive

    @property
    def admissible(self) -> bool:
        """Whether the norm may combine the two warped-product factors."""
        return self.unitary and self.coordinate_increasing


def validate_norm(norm: Norm2, angular_samples: int = 256, axis_max: float = 4.0,
                  rtol: float = 1e-9) -> NormValidation:
    """Sampled validation of the unitary / coordinate-increasing /
    homogeneity / subadditivity properties.

    Table norms get an extra subadditivity allowance of (angular step)^2,
    the interpolation error floor; unitarity stays at 1e-12.
    """
    violations = []

    v10 = eval_norm(norm, 1.0, 0.0)
    v01 = eval_norm(norm, 0.0, 1.0)
    unitary = abs(v10 - 1.0) <= 1e-12 and abs(v01 - 1.0) <= 1e-12
    if not unitary:
        violations.append(("unitary", (1.0, 0.0), v10, (0.0, 1.0), v01))

    ts = np.linspace(0.0, axis_max, 65)
    grid = eval_norm(norm, ts[:, None], ts[None, :])
    tol = 1e-12 * (1.0 + float(grid.max()))
    da = np.diff(grid, axis=0)
    db = np.diff(grid, axis=1)
    coordinate_increasing = bool(da.min() >= -tol and db.min() >= -tol)
    if not coordinate_increasing:
        i, j = np.unravel_index(int(np.argmin(da)), da.shape)
        violations.append(("coordinate_increasing", (float(ts[i]), float(ts[j])),
                           float(da.min()), float(db.min())))

    ang = np.linspace(0.0, QUARTER, angular_samples)
    ua, ub = np.cos(ang), np.sin(ang)
    base = eval_norm(norm, ua, ub)
    homogeneous = True
    for lam in (0.5, 2.0, 7.25):
        scaled = eval_norm(norm, lam * ua, lam * ub)
        err = np.abs(scaled - lam * base)
        bad = err > rtol * np.maximum(1.0, lam * base)
        if np.any(bad):
            homogeneous = False
            k = int(np.argmax(err))
            violations.append(("homogeneous", lam, float(ang[k]), float(err[k])))
            break

    stride = max(1, angular_samples // 48)
    sa, sb = ua[::stride], ub[::stride]
    sums = eval_norm(norm, sa[:, None] + sa[None, :], sb[:, None] + sb[None, :])
    parts = eval_norm(norm, sa, sb)
    sub_tol = rtol
    if norm.kind == "table":
        sub_tol = max(rtol, float(np.max(np.diff(norm.theta))) ** 2)
    excess = sums - (parts[:, None] + parts[None, :])
    subadditive = bool(excess.max() <= sub_tol * (1.0 + float(sums.max())))
    if not subadditive:
        i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
        violations.append(("subadditive", (float(sa[i]), float(sb[i])),
                           (float(sa[j]), float(sb[j])), float(excess[i, j])))

    return NormValidation(unitary, coordinate_increasing, homogeneous, subadditive, violations)


@dataclass
class ComparisonReport:
    max_ratio: float
    min_ratio: float
    passed: bool
    samples: int


def comparison_factor_check(n1: Norm2, n2: Norm2, samples=None) -> ComparisonReport:
    """Verify the two-sided factor-2 comparison of two admissible norms.

    Checks 1/2 * n2 <= n1 <= 2 * n2 on a sampled nonnegative grid; passes
    iff no violation exceeds 1e-12. Both norms must validate as unitary
    and coordinate-increasing first.
    """
    for name, n in (("first", n1), ("second", n2)):
        rep = validate_norm(n)
        if not rep.admissible:
            raise PreconditionError(
                f"{name} norm ({n.label()}) failed validation: {rep.violations}")
    if samples is None:
        axis = np.linspace(0.0, 10.0, 100)
        samples = (axis, axis)
    A, B = np.meshgrid(np.asarray(samples[0], float), np.asarray(samples[1], float),
                       indexing="ij")
    va = eval_norm(n1, A, B)
    vb = eval_norm(n2, A, B)
    mask = (A + B) > 0.0
    ratio = va[mask] / vb[mask]
    max_ratio = float(ratio.max())
    min_ratio = float(ratio.min())
    passed = max_ratio <= 2.0 + 1e-12 and min_ratio >= 0.5 - 1e-12
    return ComparisonReport(max_ratio, min_ratio, passed, int(mask.sum()))
