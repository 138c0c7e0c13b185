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
import math
import shutil
import sys
from datetime import datetime, timezone

import numpy as np
import orjson

from . import __version__
from .errors import (DomainError, PreconditionError, ResourceCapError, SchemaError,
                     UnboundedError, ValidationError)
from .hyperbolicity import boundary_metric, estimate_delta, snowflake_check, snowflake_pairs
from .poincare import (build_filling_graph, builtin_filling_family,
                       builtin_halfline_family, check_p_and_slack, counterexample_suite,
                       filling_verifier, halfline_constant_exp, halfline_constant_general,
                       halfline_verifier)
from .profiles import WarpProfile, minimize_F
from .spaces import approx_length_check, load_space
from .warped import WarpedPoint, distance, gromov_product


def _parse_point(text: str) -> WarpedPoint:
    try:
        t_str, y_str = text.split(",")
        return WarpedPoint(float(t_str), int(y_str))
    except ValueError as exc:
        raise SchemaError(f"point must be 't,y' (e.g. '5,0'), got {text!r}") from exc


def _emit(doc: dict, out_path: str | None) -> None:
    text = orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY
                        | orjson.OPT_APPEND_NEWLINE)
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text.decode())


def _write_table(path: str, M, delimiter: str, header: str | None = None) -> None:
    """Write M as text, one line per row, cells split by the one-character
    `delimiter` and each float in orjson's shortest round-trip form, so
    `np.loadtxt` reads every value back bit for bit. Non-finite cells are
    written as `inf`, `-inf` and `nan`. `header` lines come first, each
    prefixed with `# `. A 1-D M is written as one column."""
    M = np.asarray(M, dtype=np.float64)
    M = M[:, None] if M.ndim == 1 else M
    rows, cols = M.shape
    # orjson writes the cells in row-major order split by commas, so every
    # cols-th comma ends a row and the others become the delimiter
    text = np.frombuffer(orjson.dumps(M.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1],
                         np.uint8).copy()
    commas = np.flatnonzero(text == ord(","))
    text[commas] = ord(delimiter)
    text[commas[cols - 1::max(cols, 1)]] = ord("\n")
    body = text.tobytes() if cols else b"\n" * (rows - 1)  # no columns: empty lines
    finite = np.isfinite(M)
    if not finite.all():
        # orjson writes every non-finite cell as null, in row-major order
        parts = body.split(b"null")
        body = parts[0] + b"".join(repr(v).encode() + rest
                                   for v, rest in zip(M[~finite].tolist(), parts[1:]))
    with open(path, "wb") as fh:
        if header:
            fh.write(("# " + header.replace("\n", "\n# ") + "\n").encode("latin1"))
        fh.write(body)
        fh.write(b"\n")


def _envelope(ns, seed, constants: dict, result) -> dict:
    """The run's JSON document; the config block echoes ns.options but --out."""
    return {
        "tool": "warpfill",
        "version": __version__,
        "subcommand": ns.subcommand,
        "config": {key: getattr(ns, a.dest) for key, a in ns.options if key != "out"},
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
    entry's table in t and ignores y, so `FillingGraph.sample` gives it one
    value per level, an (L, 1) array, on any graph."""
    with open(spec, "rb") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
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
              "total_measure": space.total_measure(),
              "triangle_check": space.triangle_check,
              "edge_count": 0 if space.edges is None else len(space.edges)}
    if ns.eps is not None:
        result["length_check"] = approx_length_check(space, ns.eps).to_dict()
    return _envelope(ns, None, {}, result)


def _norm_interval(spec: str, d_l1: float) -> list | None:
    """None for the l1 norm, else [d_l1/2, d_l1]: an enclosure of the warped
    distance under the norm `spec`, one of l2 | linf | lp:<p> (p finite and > 1).

    Each such norm N is unitary and coordinate-increasing on the nonnegative
    quadrant, so N(a,b) >= N(a,0) = a and N(a,b) >= b, and the triangle
    inequality gives N(a,b) <= a + b: linf <= N <= l1. Curve lengths, and so
    distances, keep these bounds, and l1 <= 2 linf turns them into the interval.
    """
    spec = spec.strip()
    if spec == "l1":
        return None
    if spec.startswith("lp:"):
        try:
            p = float(spec[3:])
        except ValueError as exc:
            raise SchemaError(f"lp norm exponent must be a number, got {spec[3:]!r}") from exc
        if not (math.isfinite(p) and p > 1.0):
            raise DomainError(f"lp norm requires a finite exponent p > 1, got {p}")
    elif spec not in ("l2", "linf"):
        raise SchemaError(f"unknown norm selection {spec!r}")
    return [0.5 * d_l1, d_l1]


def cmd_dist(ns) -> dict:
    space = load_space(ns.space)
    profile = WarpProfile.parse(ns.profile)
    p1 = _parse_point(ns.src)
    p2 = _parse_point(ns.dst)
    d_l1 = distance(profile, space, p1, p2)
    res = minimize_F(profile, float(space.dist[p1.y, p2.y]), min(p1.t, p2.t))
    gp = gromov_product(profile, space, ns.basepoint_y, p1, p2)
    result = {"tau": res.tau, "gromov_product_from_apex": gp}
    interval = _norm_interval(ns.norm, d_l1)
    if interval is None:
        result["distance"] = d_l1
    else:
        result["interval"] = interval
    constants = {"distance_formula": "t1 + t2 + min_rho (psi(rho)*dY - 2*rho)",
                 "other_norm_enclosure": "[d_l1/2, d_l1]"}
    return _envelope(ns, None, constants, result)


def cmd_delta(ns) -> dict:
    space = load_space(ns.space)
    profile = WarpProfile.parse(ns.profile)
    report = estimate_delta(profile, space, ns.tmax, ns.count, ns.seed, ns.basepoint_y)
    constants = {"delta_bound": "2/alpha + 3*psi(0)*diam(Y) (second term only if psi(0) != 0)",
                 "norms": "bound holds for the l1 combination; other admissible norms "
                          "stay hyperbolic with a constant not computed here"}
    return _envelope(ns, ns.seed, constants, report.to_dict())


def cmd_boundary(ns) -> dict:
    space = load_space(ns.space)
    profile = WarpProfile.parse(ns.profile)
    try:
        eps = None if ns.eps == "auto" else float(ns.eps)
    except ValueError as exc:
        raise SchemaError(f"--eps must be a positive number or 'auto', got {ns.eps!r}") from exc
    bm = boundary_metric(profile, space, eps, ns.basepoint_y)
    snow = snowflake_check(bm, space, profile.alpha)
    prefix = ns.out_prefix
    pre_path, chain_path = f"{prefix}_premetric.csv", f"{prefix}_chained.csv"
    _write_table(pre_path, bm.premetric, ",")
    # equal bits format to equal bytes, so an unchanged closure is a file copy
    if np.array_equal(bm.chained.view(np.int64), bm.premetric.view(np.int64)):
        shutil.copyfile(pre_path, chain_path)
    else:
        _write_table(chain_path, bm.chained, ",")
    lower_ok = bool(np.all(bm.chained >= 0.5 * bm.premetric))
    result = {"eps": bm.eps, "eps_warning": bm.eps_warning, "delta_used": bm.delta_used,
              "premetric_csv": pre_path, "chained_csv": chain_path,
              "comparison": {"half_premetric_le_chained": lower_ok},
              "closure_check": bm.closure_check,
              "closure_lowered": int(np.count_nonzero(bm.chained < bm.premetric)),
              "snowflake": snow.to_dict()}
    if ns.plot_data:
        d, c = snowflake_pairs(bm, space)
        path = f"{prefix}_snowflake.dat"
        _write_table(path, np.column_stack([np.log(d), np.log(c)]), " ")
        result["plot_data"] = path
    constants = {"eps_auto": "0.9 * min(1, 1/(5*delta_bound))",
                 "premetric": "exp(-eps * gromov_product)",
                 "comparison": "premetric/2 <= chained <= premetric for eps <= min(1, 1/(5*delta))"}
    return _envelope(ns, None, constants, result)


def cmd_poincare(ns) -> dict:
    if ns.slack is None:
        ns.slack = 0.05 if ns.space is None else 0.1
    check_p_and_slack(ns.p, ns.slack)  # before any graph is built
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
    return _envelope(ns, None, constants, result)


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
        _write_table(path, rows, ",", header="t_max,g_norm,u_deviation")
    constants = {"threshold": "p = beta/alpha",
                 "tail": "integral of sinh^(beta - p*alpha) from 1, finite iff p > beta/alpha"}
    return _envelope(ns, None, constants, report.to_dict())


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
    p.add_argument("--space", default=None)
    p.add_argument("--eps", type=float, default=None,
                   help="also run the approximate-midpoint length check")

    p = add("dist", "warped distance between two points")
    p.add_argument("--space", default=None)
    p.add_argument("--profile", default=None, help="exp:<alpha> | sinh:<alpha>")
    p.add_argument("--from", dest="src", default=None, metavar="T,Y")
    p.add_argument("--to", dest="dst", default=None, metavar="T,Y")
    p.add_argument("--norm", default="l1", help="l1 | l2 | linf | lp:<p>")
    p.add_argument("--basepoint-y", dest="basepoint_y", type=int, default=0)

    p = add("delta", "sampled four-point hyperbolicity defect")
    p.add_argument("--space", default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--basepoint-y", dest="basepoint_y", type=int, default=0)

    p = add("boundary", "visual boundary metric, chain closure and snowflake fit")
    p.add_argument("--space", default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--eps", default="auto", help="positive float or 'auto'")
    p.add_argument("--basepoint-y", dest="basepoint_y", type=int, default=0)
    p.add_argument("--out-prefix", dest="out_prefix", default="warpfill")
    p.add_argument("--plot-data", dest="plot_data", action="store_true")

    p = add("poincare", "global Poincare ratios on the half-line or a filling graph")
    p.add_argument("--space", default=None, help="omit for the weighted half-line")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--family", default="builtin", help="builtin | path to a family JSON")
    p.add_argument("--model", choices=("exp", "sinh"), default="exp")
    p.add_argument("--slack", type=float, default=None)

    p = add("counterexample", "sharpness probe at the threshold p = beta/alpha")
    p.add_argument("--space", default=None)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--y0", type=int, default=0)
    p.add_argument("--schedule", default="10,20,40", help="comma-separated increasing t_max list")
    p.add_argument("--dt", type=float, default=0.01)
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


def _config_defaults(path: str, options: list) -> dict:
    """Option defaults from a config file, by destination; null values and
    unknown keys are ignored."""
    with open(path, "rb") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise SchemaError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise SchemaError("config file must hold a JSON object")
    return {a.dest: _from_config(a, cfg[key]) for key, a in options
            if cfg.get(key) is not None}


_COMMANDS = {
    "validate": cmd_validate,
    "dist": cmd_dist,
    "delta": cmd_delta,
    "boundary": cmd_boundary,
    "poincare": cmd_poincare,
    "counterexample": cmd_counterexample,
}


def _options(parser: argparse.ArgumentParser, subcommand: str):
    """(sub, options): the subcommand's parser, and (key, action) per option
    of it but --help and --config; the key, in config files and the config
    block, is the long option name with '-' turned into '_'."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[subcommand]
    return sub, [(a.option_strings[0][2:].replace("-", "_"), a)
                 for a in sub._actions if a.dest not in ("help", "config")]


# build_parser() costs about 2 ms, so main builds it once per process; runs
# without --config leave it unchanged
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    ns = parser.parse_args(argv)
    try:
        if ns.config:
            # config values become defaults, so a second parse lets flags win;
            # set_defaults changes the parser, so it gets one of its own
            parser = build_parser()
            sub, options = _options(parser, ns.subcommand)
            sub.set_defaults(**_config_defaults(ns.config, options))
            ns = parser.parse_args(argv)
        else:
            options = _options(parser, ns.subcommand)[1]
        ns.options = options
        # required options are checked here, after a config file may have set them
        if not ns.space and ns.subcommand in ("validate", "dist", "delta", "boundary",
                                              "counterexample"):
            raise SchemaError(f"{ns.subcommand} requires --space")
        if ns.subcommand in ("dist", "delta", "boundary") and not ns.profile:
            raise SchemaError(f"{ns.subcommand} requires --profile")
        if ns.subcommand == "dist" and not (ns.src and ns.dst):
            raise SchemaError("dist requires --from and --to")
        doc = _COMMANDS[ns.subcommand](ns)
        _emit(doc, ns.out)
        return 0
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: cannot open file: {exc.filename or exc}: {exc.strerror}",
              file=sys.stderr)
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
