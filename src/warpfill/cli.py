"""Command-line front end.

Subcommands: validate, dist, delta, boundary, poincare, counterexample.
Every run emits one JSON document embedding the tool version, the resolved
configuration (flags win over --config file values), the seed, and the
reference constants used. Matrices and plot data go to CSV/text side files.
Exit codes: 0 success, 2 validation/input failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (DomainError, PreconditionError, ResourceCapError, SchemaError,
                     UnboundedError, ValidationError)
from .hyperbolicity import boundary_metric, estimate_delta, snowflake_check
from .norms import Norm2
from .poincare import (build_filling_graph, builtin_filling_family,
                       builtin_halfline_family, counterexample_suite, filling_verifier,
                       halfline_constant_exp, halfline_constant_general, halfline_verifier)
from .profiles import WarpProfile, minimize_F
from .spaces import approx_length_check, load_space
from .warped import WarpedPoint, distance, distance_bounds_other_norm, gromov_product


def _parse_point(text: str) -> WarpedPoint:
    try:
        t_str, y_str = text.split(",")
        return WarpedPoint(float(t_str), int(y_str))
    except ValueError as exc:
        raise SchemaError(f"point must be 't,y' (e.g. '5,0'), got {text!r}") from exc


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, default=_json_default)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _envelope(subcommand: str, config: dict, seed, constants: dict, result) -> dict:
    return {
        "tool": "warpfill",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "constants": constants,
        "result": result,
    }


def _family_field(k: int, item: dict, key: str) -> np.ndarray:
    try:
        arr = np.asarray(item[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"family entry {k}: field {key!r} is not a list of numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"family entry {k}: field {key!r} must hold finite numbers")
    return arr


def _load_family(spec: str) -> list:
    """(name, u) pairs from a family file; u(t, y=None) interpolates the
    entry's table in t and ignores y, so it is radial on any graph."""
    with open(spec) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"family file {spec!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "family" not in doc:
        raise SchemaError(f"family file {spec!r} must be {{'family': [...]}}")
    if not isinstance(doc["family"], list):
        raise SchemaError(f"family file {spec!r}: 'family' must be a list")
    family = []
    for k, item in enumerate(doc["family"]):
        if not isinstance(item, dict) or not {"name", "t", "values"} <= set(item):
            raise SchemaError(f"family entry {k} must be an object with 'name', 't' and 'values'")
        ts = _family_field(k, item, "t")
        vs = _family_field(k, item, "values")
        if ts.shape != vs.shape or ts.ndim != 1 or ts.size == 0:
            raise SchemaError(f"family entry {item['name']!r} has mismatched or empty t/values")
        if np.any(np.diff(ts) <= 0.0):
            raise SchemaError(f"family entry {k}: field 't' must strictly increase")
        family.append((item["name"], lambda t, y=None, ts=ts, vs=vs: np.interp(t, ts, vs)))
    return family


def cmd_validate(ns) -> dict:
    space = load_space(ns.space)
    result = {"valid": True, "n": space.n, "diameter": space.diameter(),
              "total_measure": space.total_measure()}
    if ns.eps is not None:
        result["length_check"] = approx_length_check(space, ns.eps).to_dict()
    return _envelope("validate", {"space": ns.space, "eps": ns.eps}, None, {}, result)


def cmd_dist(ns) -> dict:
    space = load_space(ns.space)
    profile = WarpProfile.parse(ns.profile)
    p1 = _parse_point(ns.src)
    p2 = _parse_point(ns.dst)
    d_l1 = distance(profile, space, p1, p2)
    res = minimize_F(profile, float(space.dist[p1.y, p2.y]), min(p1.t, p2.t))
    gp = gromov_product(profile, space, ns.basepoint_y, p1, p2)
    result = {"tau": res.tau, "gromov_product_from_apex": gp}
    norm = Norm2.parse(ns.norm)
    if norm.kind == "l1":
        result["distance"] = d_l1
    else:
        lo, hi = distance_bounds_other_norm(norm, d_l1)
        result["interval"] = [lo, hi]
    config = {"space": ns.space, "profile": ns.profile, "from": ns.src, "to": ns.dst,
              "norm": ns.norm, "basepoint_y": ns.basepoint_y}
    constants = {"distance_formula": "t1 + t2 + min_rho (psi(rho)*dY - 2*rho)",
                 "other_norm_enclosure": "[d_l1/2, d_l1]"}
    return _envelope("dist", config, None, constants, result)


def cmd_delta(ns) -> dict:
    space = load_space(ns.space)
    profile = WarpProfile.parse(ns.profile)
    report = estimate_delta(profile, space, ns.tmax, ns.count, ns.seed, ns.basepoint_y)
    config = {"space": ns.space, "profile": ns.profile, "tmax": ns.tmax,
              "count": ns.count, "seed": ns.seed, "basepoint_y": ns.basepoint_y}
    constants = {"delta_bound": "2/alpha + 3*psi(0)*diam(Y) (second term only if psi(0) != 0)",
                 "norms": "bound holds for the l1 combination; other admissible norms "
                          "stay hyperbolic with a constant not computed here"}
    return _envelope("delta", config, ns.seed, constants, report.to_dict())


def cmd_boundary(ns) -> dict:
    space = load_space(ns.space)
    profile = WarpProfile.parse(ns.profile)
    eps = None if ns.eps == "auto" else float(ns.eps)
    bm = boundary_metric(profile, space, eps, ns.basepoint_y)
    snow = snowflake_check(bm, space, profile.alpha)
    prefix = ns.out_prefix
    pre_path, chain_path = f"{prefix}_premetric.csv", f"{prefix}_chained.csv"
    np.savetxt(pre_path, bm.premetric, delimiter=",")
    np.savetxt(chain_path, bm.chained, delimiter=",")
    lower_ok = bool(np.all(bm.chained >= 0.5 * bm.premetric))
    upper_ok = bool(np.all(bm.chained <= bm.premetric))
    result = {"eps": bm.eps, "eps_warning": bm.eps_warning, "delta_used": bm.delta_used,
              "premetric_csv": pre_path, "chained_csv": chain_path,
              "comparison": {"half_premetric_le_chained": lower_ok,
                             "chained_le_premetric": upper_ok},
              "snowflake": snow.to_dict()}
    if ns.plot_data:
        iu = np.triu_indices(space.n, 1)
        d = space.dist[iu]
        c = bm.chained[iu]
        mask = (d > 0) & (c > 0)
        path = f"{prefix}_snowflake.dat"
        np.savetxt(path, np.column_stack([np.log(d[mask]), np.log(c[mask])]))
        result["plot_data"] = path
    config = {"space": ns.space, "profile": ns.profile, "eps": ns.eps,
              "basepoint_y": ns.basepoint_y, "out_prefix": ns.out_prefix,
              "plot_data": ns.plot_data}
    constants = {"eps_auto": "0.9 * min(1, 1/(5*delta_bound))",
                 "premetric": "exp(-eps * gromov_product)",
                 "comparison": "premetric/2 <= chained <= premetric for eps <= min(1, 1/(5*delta))"}
    return _envelope("boundary", config, None, constants, result)


def cmd_poincare(ns) -> dict:
    profile_kind = ns.model
    constants = {
        "halfline_general": "((p*(p-1)^(p-1) + p^p)^(1/p)) / growth_parameter",
        "halfline_exp_sharp": "((2/beta)*((p-1)/beta)^(p-1))^(1/p)",
        "threshold": "p <= beta/alpha expected to pass",
    }
    if ns.space is None:
        family = (builtin_halfline_family() if ns.family == "builtin"
                  else _load_family(ns.family))
        reports = halfline_verifier(profile_kind, ns.beta, ns.p, family, ns.dt,
                                    ns.tmax, ns.slack)
        result = {"model": f"halfline:{profile_kind}",
                  "paper_constant_general": halfline_constant_general(ns.beta, ns.p),
                  "reports": [r.to_dict() for r in reports]}
        if profile_kind == "exp":
            result["paper_constant_sharp"] = halfline_constant_exp(ns.beta, ns.p)
    else:
        space = load_space(ns.space)
        G = build_filling_graph(space, WarpProfile(profile_kind, ns.alpha), profile_kind,
                                ns.beta, ns.tmax, ns.dt)
        family = (builtin_filling_family(G) if ns.family == "builtin"
                  else _load_family(ns.family))
        reports = filling_verifier(G, ns.p, family, ns.slack)
        result = {"model": f"filling:{profile_kind}", "nodes": G.n_nodes,
                  "has_apex": G.has_apex,
                  "paper_constant": halfline_constant_exp(ns.beta, ns.p),
                  "reports": [r.to_dict() for r in reports]}
    config = {"space": ns.space, "alpha": ns.alpha, "beta": ns.beta, "p": ns.p,
              "tmax": ns.tmax, "dt": ns.dt, "family": ns.family, "model": ns.model,
              "slack": ns.slack}
    return _envelope("poincare", config, None, constants, result)


def cmd_counterexample(ns) -> dict:
    space = load_space(ns.space)
    try:
        schedule = [float(s) for s in ns.schedule.split(",")]
    except ValueError as exc:
        raise SchemaError(f"--schedule must be comma-separated numbers, got {ns.schedule!r}") from exc
    report = counterexample_suite(space, ns.y0, ns.r, ns.alpha, ns.beta, ns.p,
                                  schedule, ns.dt)
    if ns.out_prefix:
        path = f"{ns.out_prefix}_counterexample.csv"
        rows = np.column_stack([report.schedule, report.g_norms, report.u_deviations])
        np.savetxt(path, rows, delimiter=",", header="t_max,g_norm,u_deviation")
    config = {"space": ns.space, "alpha": ns.alpha, "beta": ns.beta, "p": ns.p,
              "r": ns.r, "y0": ns.y0, "schedule": ns.schedule, "dt": ns.dt,
              "out_prefix": ns.out_prefix}
    constants = {"threshold": "p = beta/alpha",
                 "tail": "integral of sinh^(beta - p*alpha) from 1, finite iff p > beta/alpha"}
    return _envelope("counterexample", config, None, constants, report.to_dict())


_DEFAULTS = {
    "validate": {},
    "dist": {"norm": "l1", "basepoint_y": 0},
    "delta": {"tmax": 10.0, "count": 100000, "seed": 0, "basepoint_y": 0},
    "boundary": {"eps": "auto", "basepoint_y": 0, "out_prefix": "warpfill",
                 "plot_data": False},
    "poincare": {"alpha": 1.0, "beta": 1.0, "p": 1.0, "tmax": 10.0, "dt": 0.01,
                 "family": "builtin", "model": "exp"},
    "counterexample": {"alpha": 1.0, "beta": 1.0, "p": 2.0, "r": 1.0, "y0": 0,
                       "schedule": "10,20,40", "dt": 0.01, "out_prefix": None},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpfill",
        description="Warped half-line fillings: distances, hyperbolicity, visual "
                    "boundaries and discrete Sobolev-Poincare checks.")
    parser.add_argument("--version", action="version", version=f"warpfill {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON file of option defaults; flags win")
        p.add_argument("--out", default=None, help="write the JSON document here instead of stdout")
        return p

    p = add("validate", "validate a carrier space file")
    p.add_argument("--space", required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="also run the approximate-midpoint length check")

    p = add("dist", "warped distance between two points")
    p.add_argument("--space", default=None)
    p.add_argument("--profile", default=None, help="exp:<alpha> | sinh:<alpha>")
    p.add_argument("--from", dest="src", required=True, metavar="T,Y")
    p.add_argument("--to", dest="dst", required=True, metavar="T,Y")
    p.add_argument("--norm", default=None, help="l1 | l2 | linf | lp:<p> | table:<path>")
    p.add_argument("--basepoint-y", dest="basepoint_y", type=int, default=None)

    p = add("delta", "sampled four-point hyperbolicity defect")
    p.add_argument("--space", default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--basepoint-y", dest="basepoint_y", type=int, default=None)

    p = add("boundary", "visual boundary metric, chain closure and snowflake fit")
    p.add_argument("--space", default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--eps", default=None, help="positive float or 'auto'")
    p.add_argument("--basepoint-y", dest="basepoint_y", type=int, default=None)
    p.add_argument("--out-prefix", dest="out_prefix", default=None)
    p.add_argument("--plot-data", dest="plot_data", action="store_true", default=None)

    p = add("poincare", "global Poincare ratios on the half-line or a filling graph")
    p.add_argument("--space", default=None, help="omit for the weighted half-line")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--family", default=None, help="builtin | path to a family JSON")
    p.add_argument("--model", choices=("exp", "sinh"), default=None)
    p.add_argument("--slack", type=float, default=None)

    p = add("counterexample", "sharpness probe at the threshold p = beta/alpha")
    p.add_argument("--space", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--y0", type=int, default=None)
    p.add_argument("--schedule", default=None, help="comma-separated increasing t_max list")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out-prefix", dest="out_prefix", default=None)

    return parser


def _from_config(action: argparse.Action, value):
    """A config-file value read as the same option on the command line would be:
    its argparse type (str if none) applied to its text, then its choices; a
    flag takes a JSON bool."""
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise SchemaError(f"config key {action.dest!r} must be true or false, got {value!r}")
        return value
    convert = action.type or str
    try:
        value = convert(str(value))
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise SchemaError(f"config key {action.dest!r}: {value!r} is not a valid "
                          f"{convert.__name__}") from exc
    if action.choices is not None and value not in action.choices:
        raise SchemaError(f"config key {action.dest!r} must be one of {list(action.choices)}, "
                          f"got {value!r}")
    return value


def _resolve_config(ns, parser: argparse.ArgumentParser) -> None:
    """Fill None-valued options from --config, then from builtin defaults."""
    cfg = {}
    if getattr(ns, "config", None):
        with open(ns.config) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"config file {ns.config!r} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise SchemaError("config file must hold a JSON object")
    values = vars(ns)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for action in sub.choices[ns.subcommand]._actions:
        key = action.dest
        if key in values and values[key] is None and cfg.get(key) is not None:
            setattr(ns, key, _from_config(action, cfg[key]))
    defaults = _DEFAULTS.get(ns.subcommand, {})
    for key, value in vars(ns).items():
        if value is None and key in defaults:
            setattr(ns, key, defaults[key])
    if ns.subcommand == "poincare" and getattr(ns, "slack", None) is None:
        ns.slack = 0.05 if getattr(ns, "space", None) is None else 0.1


_COMMANDS = {
    "validate": cmd_validate,
    "dist": cmd_dist,
    "delta": cmd_delta,
    "boundary": cmd_boundary,
    "poincare": cmd_poincare,
    "counterexample": cmd_counterexample,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _resolve_config(ns, parser)
        if ns.subcommand in ("dist", "delta", "boundary", "counterexample") and not ns.space:
            raise SchemaError(f"{ns.subcommand} requires --space")
        if ns.subcommand in ("dist", "delta", "boundary") and not ns.profile:
            raise SchemaError(f"{ns.subcommand} requires --profile")
        doc = _COMMANDS[ns.subcommand](ns)
        _emit(doc, ns.out)
        return 0
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: schema mismatch: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: validation failure: {exc}", file=sys.stderr)
        for v in exc.violations[:50]:
            print(f"  violated: {v}", file=sys.stderr)
        return 2
    except (DomainError, UnboundedError, PreconditionError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
