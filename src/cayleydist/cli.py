"""Command-line workbench over the library.

Subcommands: group info, cayley ball|diam, girth, expradical, profile, embed,
distort, c2, scan.  Flags can also arrive through a JSON config file
(--config); explicit flags win, unknown config keys are rejected.  Exit codes:
0 success, 1 usage or config error, 2 numerical failure, 3 cap exceeded.

Outputs are deterministic for a fixed config: repeated runs emit bit-identical
bytes.  Every number printed here is reproducible by calling the library
directly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .cayley import (
    VERTEX_CAP,
    bfs_ball,
    diameter,
    exp_radical_csv,
    exp_radical_scan,
    girth,
    sphere_csv,
)
from .distortion import distortion_equivariant, exact_c2, metric_from_table, report_json
from .embed import apriori_bound, build_bundle, bundle_json
from .errors import (
    BadParam,
    CapExceeded,
    CayleyDistError,
    DegenerateInput,
    NoConvergence,
    Overflow,
    ZeroGradient,
    ZeroNorm,
)
from .groups import generators, make_spec, spec_to_dict, to_string
from .profile import profile_csv, profile_curve

_NUMERIC_ERRORS = (NoConvergence, ZeroNorm, ZeroGradient, DegenerateInput)
_CAP_ERRORS = (CapExceeded, Overflow)

_PARENT = {
    "lamplighter-fin": "lamplighter-inf",
    "bs-fin": "bs-inf",
    "sol-fin": "sol-inf",
}

_CONFIG_KEYS = {
    "group info": {"family", "m", "n", "A", "format", "out"},
    "cayley ball": {"family", "m", "n", "A", "radius", "cap", "format", "out"},
    "cayley diam": {"family", "m", "n", "A", "format", "out"},
    "girth": {"family", "m", "n", "A", "cap", "format", "out"},
    "expradical": {"family", "m", "n", "A", "radius", "cap", "format", "out"},
    "profile": {"family", "m", "n", "A", "p", "radius", "format", "out"},
    "embed": {"family", "m", "n", "A", "p", "radius", "format", "out"},
    "distort": {"family", "m", "n", "A", "p", "radius", "zero_block", "format", "out"},
    "c2": {"family", "m", "n", "A", "metric", "tol", "format", "out"},
    "scan": {"family", "m", "n", "p", "format", "out", "plot_script"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BadParam(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family")
    common.add_argument("--m", type=int)
    common.add_argument("--n")
    common.add_argument("--p", type=float)
    common.add_argument("--radius")
    common.add_argument("--tol", type=float)
    common.add_argument("--cap", type=int)
    common.add_argument("--out")
    common.add_argument("--format", choices=["json", "csv"])
    common.add_argument("--config")

    top = _Parser(prog="cayleydist", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", parents=[], help="family member inspection")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    gsub.add_parser("info", parents=[common], help="parameters and derived constants")

    cayley = sub.add_parser("cayley", parents=[], help="ball and diameter scans")
    csub = cayley.add_subparsers(dest="subcommand", required=True)
    csub.add_parser("ball", parents=[common], help="sphere sizes out to a radius")
    csub.add_parser("diam", parents=[common], help="diameter (and kernel diameter)")

    sub.add_parser("girth", parents=[common],
                   help="finite member against its infinite parent")
    sub.add_parser("expradical", parents=[common], help="kernel norm growth (sol)")
    sub.add_parser("profile", parents=[common], help="certified profile lower bounds")
    sub.add_parser("embed", parents=[common], help="embedding manifest")
    distort = sub.add_parser("distort", parents=[common],
                             help="measured distortion against the certified bound")
    distort.add_argument("--zero-block", type=int, dest="zero_block")
    sub.add_parser("c2", parents=[common], help="exact Euclidean distortion, tiny metrics")
    scan = sub.add_parser("scan", parents=[common], help="n-sweep distortion table")
    scan.add_argument("--plot-script", dest="plot_script")
    return top


def _full_command(args) -> str:
    sub = getattr(args, "subcommand", None)
    return f"{args.command} {sub}" if sub else args.command


def _apply_config(args) -> None:
    args.A = args.metric = None
    if args.config is None:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadParam(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadParam(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BadParam("config must be a JSON object")
    allowed = _CONFIG_KEYS[_full_command(args)]
    unknown = set(data) - allowed
    if unknown:
        raise BadParam(f"unknown config keys {sorted(unknown)}")
    args.A = data.pop("A", None)
    args.metric = data.pop("metric", None)
    for key, value in data.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _int_arg(value, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise BadParam(f"--{name} must be an integer, got {value!r}") from None


def _int_list(value, name: str) -> list[int]:
    try:
        return [int(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError:
        raise BadParam(f"--{name} must be comma-separated integers, got {value!r}") from None


def _spec_from_args(args):
    if args.family is None:
        raise BadParam("--family is required")
    n = _int_arg(args.n, "n") if args.n is not None else None
    A = tuple(tuple(row) for row in args.A) if args.A is not None else None
    return make_spec(args.family, m=args.m, n=n, A=A)


def _embed_exponent(args) -> float:
    p = 2.0 if args.p is None else float(args.p)
    if not 2 <= p <= 8:
        raise BadParam(f"p = {p} outside the supported range [2, 8]")
    return p


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, (list, tuple)):
        return json.dumps(v, separators=(",", ":"))
    return str(v)


def _csv_cell(v) -> str:
    s = _fmt(v)
    return f'"{s}"' if "," in s else s


def _kv_csv(pairs) -> str:
    keys = ",".join(k for k, _ in pairs)
    vals = ",".join(_csv_cell(v) for _, v in pairs)
    return f"{keys}\n{vals}\n"


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# --------------------------------------------------------------------------
# handlers

def _run_group_info(args) -> str:
    spec = _spec_from_args(args)
    info = spec_to_dict(spec)
    info["q"] = spec.q
    info["oA"] = spec.oA
    info["order"] = spec.order
    info["finite"] = spec.finite
    info["generators"] = len(generators(spec))
    if args.format == "csv":
        return _kv_csv(list(info.items()))
    return _emit_json(info)


def _run_cayley_ball(args) -> str:
    spec = _spec_from_args(args)
    radius = _int_arg(args.radius, "radius") if args.radius is not None else None
    table = bfs_ball(spec, radius, cap=args.cap or VERTEX_CAP)
    if args.format == "json":
        sizes = list(table.sphere_sizes)
        return _emit_json({
            "radius": table.radius,
            "sphere_sizes": sizes,
            "ball_sizes": [sum(sizes[: r + 1]) for r in range(len(sizes))],
            "complete": table.complete,
        })
    return sphere_csv(table)


def _run_cayley_diam(args) -> str:
    spec = _spec_from_args(args)
    report = diameter(spec)
    pairs = [("diameter", report.diameter), ("diam_N", report.diam_N)]
    if args.format == "csv":
        return _kv_csv(pairs)
    return _emit_json(dict(pairs))


def _run_girth(args) -> str:
    spec = _spec_from_args(args)
    if spec.family not in _PARENT:
        raise BadParam(f"girth compares a finite member to its parent, got {spec.family}")
    parent = make_spec(_PARENT[spec.family], m=spec.m, A=spec.A)
    cap = args.cap if args.cap is not None else 6
    report = girth(parent, spec, cap=cap)
    if args.format == "csv":
        return _kv_csv([("g_lower", report.g_lower), ("iso_lower", report.iso_lower),
                        ("cap", report.cap)])
    kernel = report.kernel_witness
    iso = report.iso_witness
    return _emit_json({
        "g_lower": report.g_lower,
        "iso_lower": report.iso_lower,
        "cap": report.cap,
        "kernel_witness": None if kernel is None else to_string(parent, kernel),
        "iso_witness": None if iso is None else [to_string(parent, x) for x in iso],
    })


def _run_expradical(args) -> str:
    spec = _spec_from_args(args)
    if args.radius is None:
        raise BadParam("--radius (maximal word length) is required")
    report = exp_radical_scan(spec, _int_arg(args.radius, "radius"),
                              cap=args.cap or VERTEX_CAP)
    if args.format == "json":
        return _emit_json({
            "r_max": report.r_max,
            "rows": [list(row) for row in report.rows],
            "alpha_upper": report.alpha_upper,
            "alpha_lower": report.alpha_lower,
            "alpha_hat": report.alpha_hat,
        })
    return exp_radical_csv(report)


def _run_profile(args) -> str:
    spec = _spec_from_args(args)
    p = 2.0 if args.p is None else float(args.p)
    if not 1 <= p <= 8:
        raise BadParam(f"p = {p} outside the supported range [1, 8]")
    if args.radius is None:
        raise BadParam("--radius (comma-separated radii) is required")
    curve = profile_curve(spec, p, _int_list(args.radius, "radius"))
    if args.format == "json":
        return _emit_json({
            "p": curve.p,
            "diameter": curve.diameter,
            "C_hat": curve.C_hat,
            "points": [[r, j] for r, j in curve.points],
        })
    return profile_csv(curve)


def _bundle_from_args(args, p):
    spec = _spec_from_args(args)
    R = _int_arg(args.radius, "radius") if args.radius is not None else None
    table = bfs_ball(spec, None) if spec.finite else None
    return spec, table, build_bundle(spec, p, R=R, table=table)


def _run_embed(args) -> str:
    _, _, bundle = _bundle_from_args(args, _embed_exponent(args))
    if args.format == "csv":
        lines = ["radius,certified_J,coef,support_size"]
        for blk in bundle_json(bundle)["blocks"]:
            lines.append(",".join(_fmt(blk[k])
                                  for k in ("radius", "certified_J", "coef", "support_size")))
        return "\n".join(lines) + "\n"
    return _emit_json(bundle_json(bundle))


def _run_distort(args) -> str:
    spec, table, bundle = _bundle_from_args(args, _embed_exponent(args))
    zero = getattr(args, "zero_block", None)
    if zero is not None:
        zero = _int_arg(zero, "zero-block")
        if not 0 <= zero <= bundle.K:
            raise BadParam(f"--zero-block {zero} outside blocks 0..{bundle.K}")
        coefs = tuple(0.0 if k == zero else c for k, c in enumerate(bundle.coefs))
        bundle = replace(bundle, coefs=coefs)
    report = distortion_equivariant(bundle, table)
    bound = apriori_bound(bundle)
    if args.format == "csv":
        return _kv_csv([("R", report.R), ("expansion", report.expansion),
                        ("contraction", report.contraction), ("dist", report.dist),
                        ("dist_bound", bound.dist_bound)])
    blob = report_json(report, spec=spec)
    blob["lip_bound"] = bound.lip_bound
    blob["colip_bound"] = bound.colip_bound
    blob["dist_bound"] = bound.dist_bound
    blob["closed_form"] = bound.closed_form
    return _emit_json(blob)


def _run_c2(args) -> str:
    if args.metric is not None:
        metric = args.metric
    else:
        spec = _spec_from_args(args)
        if not spec.finite:
            raise BadParam("c2 on a group needs a finite family")
        metric = metric_from_table(bfs_ball(spec, None))
    tol = args.tol if args.tol is not None else 1e-6
    result = exact_c2(metric, tol=tol)
    pairs = [("value", result.value), ("bracket_lo", result.bracket[0]),
             ("bracket_hi", result.bracket[1])]
    if args.format == "csv":
        return _kv_csv(pairs)
    return _emit_json(dict(pairs))


_SCAN_COLUMNS = ("n", "order", "diam", "C_hat", "dist_emp", "dist_bound",
                 "log_diam_pow", "ratio")


def _scan_row(family: str, m, n: int, p: float) -> dict:
    spec = make_spec(family, m=m, n=n)
    table = bfs_ball(spec, None)
    diam = len(table.sphere_sizes) - 1
    bundle = build_bundle(spec, p, table=table)
    bound = apriori_bound(bundle)
    report = distortion_equivariant(bundle, table)
    log_diam_pow = math.log(diam) ** (1.0 / p)
    return {
        "n": n,
        "order": spec.order,
        "diam": diam,
        "C_hat": bundle.C_hat,
        "dist_emp": report.dist,
        "dist_bound": bound.dist_bound,
        "log_diam_pow": log_diam_pow,
        "ratio": report.dist / log_diam_pow,
    }


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Rendering script for a distortion sweep: measured distortion and the
# certified bound against (ln n)^(1/p).  Requires matplotlib.
import math

import matplotlib.pyplot as plt

p = {p}
ns = {ns}
dist_emp = {dist_emp}
dist_bound = {dist_bound}

x = [math.log(n) ** (1.0 / p) for n in ns]
plt.plot(x, dist_emp, "o-", label="measured distortion")
plt.plot(x, dist_bound, "s--", label="certified bound")
plt.xlabel("(ln n)^(1/p)")
plt.ylabel("distortion")
plt.legend()
plt.savefig("scan.png", dpi=150)
print("wrote scan.png")
"""


def _run_scan(args) -> str:
    if args.family is None:
        raise BadParam("--family is required")
    if args.family not in _PARENT:
        raise BadParam(f"scan sweeps finite families, got {args.family}")
    if args.n is None:
        raise BadParam("--n (comma-separated sweep values) is required")
    ns = _int_list(args.n, "n")
    if not ns:
        raise BadParam("--n lists no sweep values")
    p = _embed_exponent(args)

    rows = [_scan_row(args.family, args.m, n, p) for n in ns]

    if args.plot_script is not None:
        script = _PLOT_SCRIPT.format(
            p=_fmt(p),
            ns=[row["n"] for row in rows],
            dist_emp=[float(_fmt(row["dist_emp"])) for row in rows],
            dist_bound=[float(_fmt(row["dist_bound"])) for row in rows],
        )
        with open(args.plot_script, "w", encoding="utf-8") as fh:
            fh.write(script)

    if args.format == "json":
        return _emit_json(rows)
    lines = [",".join(_SCAN_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in _SCAN_COLUMNS))
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "group info": _run_group_info,
    "cayley ball": _run_cayley_ball,
    "cayley diam": _run_cayley_diam,
    "girth": _run_girth,
    "expradical": _run_expradical,
    "profile": _run_profile,
    "embed": _run_embed,
    "distort": _run_distort,
    "c2": _run_c2,
    "scan": _run_scan,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _apply_config(args)
        text = _HANDLERS[_full_command(args)](args)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except _CAP_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CayleyDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
