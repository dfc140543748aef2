"""Command-line workbench over the library.

Subcommands: group info, cayley ball|diam, girth, expradical, profile, embed,
distort, c2, scan, each taking only the flags it reads, or the same keys from a
JSON config file (--config); explicit flags win.  Exit codes: 0 success, else
the error type's ``exit_code``: 1 usage or config error, 2 numerical failure,
3 cap exceeded.

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
from itertools import accumulate

from .cayley import VERTEX_CAP, bfs_ball, diameter, exp_radical_scan, girth, sphere_sizes
from .distortion import C2_CAP, distortion_equivariant, exact_c2, metric_from_table
from .embed import apriori_bound, build_bundle, bundle_scale
from .errors import BadParam, CayleyDistError
from .groups import PARENT_FAMILY, generators, make_spec, spec_to_dict, to_string
from .profile import checked_radii, profile_curve


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BadParam(message)


# argparse reports a ValueError from a type as "invalid <name> value": name the value
def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def file_path(text: str) -> str:
    if "\0" in text:  # open() would raise ValueError: embedded null byte
        raise ValueError(text)
    return text


def comma_separated_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _build_parser() -> _Parser:
    top = _Parser(prog="cayleydist", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)
    nested = {head: sub.add_parser(head, help=text).add_subparsers(dest="command",
                                                                    required=True)
              for head, text in (("group", "family member inspection"),
                                 ("cayley", "ball and diameter scans"))}
    for command, (_, _, text, flags) in _COMMANDS.items():
        head, _, tail = command.partition(" ")
        parser = (nested[head].add_parser(tail, help=text) if tail
                  else sub.add_parser(head, help=text))
        for key, kind in flags.items():
            if kind is None:
                continue
            kw = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            parser.add_argument("--" + key.replace("_", "-"), dest=key, **kw)
        parser.add_argument("--config")
        parser.set_defaults(command=command)  # leaf defaults apply last: "group info"
    return top


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadParam(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an int past the digit limit
        raise BadParam(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BadParam("config must be a JSON object")
    return data


def _parse(argv) -> argparse.Namespace:
    """Parse argv, reading a config file's keys as flags given before argv's own.

    Config values thus pass the same types and choices as flags, and an
    explicit flag wins because argparse keeps the last value given.  A null
    value leaves its key unset.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = _COMMANDS[args.command][3]
    data = {} if args.config is None else _read_config(args.config)
    unknown = data.keys() - flags.keys()
    if unknown:
        raise BadParam(f"unknown config keys {sorted(unknown)}")
    tokens = [f"--{key.replace('_', '-')}={value}" for key, value in data.items()
              if value is not None and flags[key] is not None]
    if tokens:
        k = len(args.command.split())
        args = parser.parse_args(argv[:k] + tokens + argv[k:])
    for key, kind in flags.items():
        if kind is None:
            setattr(args, key, data.get(key))
    return args


def _spec_from_args(args):
    if args.family is None:
        raise BadParam("--family is required")
    return make_spec(args.family, m=args.m, n=args.n, A=args.A)


def _exponent(args, lo: int) -> float:
    """--p, default 2, in [lo, 8]: profiles take lo = 1, embeddings lo = 2."""
    p = 2.0 if args.p is None else args.p
    if not lo <= p <= 8:
        raise BadParam(f"p = {p} outside the supported range [{lo}, 8]")
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


def _csv(records) -> str:
    """The first record's keys as the header line, then one line per record."""
    lines = [",".join(records[0])]
    lines += [",".join(_csv_cell(v) for v in rec.values()) for rec in records]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# handlers: each returns (obj, records), the object JSON prints and a
# non-empty list of dicts, one per CSV line

def _run_group_info(args):
    spec = _spec_from_args(args)
    info = spec_to_dict(spec)
    info["q"] = spec.q
    info["oA"] = spec.oA
    info["order"] = spec.order
    info["finite"] = spec.finite
    info["generators"] = len(generators(spec))
    return info, [info]


def _run_cayley_ball(args):
    spec = _spec_from_args(args)
    sizes = list(sphere_sizes(spec, args.radius,
                              cap=VERTEX_CAP if args.cap is None else args.cap))
    balls = list(accumulate(sizes))
    return {
        "radius": len(sizes) - 1,
        "sphere_sizes": sizes,
        "ball_sizes": balls,
        "complete": spec.finite and balls[-1] == spec.order,
    }, [{"r": r, "sphere": s, "cumulative": b}
        for r, (s, b) in enumerate(zip(sizes, balls))]


def _run_cayley_diam(args):
    spec = _spec_from_args(args)
    report = diameter(spec)
    blob = {"diameter": report.diameter, "diam_N": report.diam_N}
    return blob, [blob]


def _run_girth(args):
    spec = _spec_from_args(args)
    if spec.family not in PARENT_FAMILY:
        raise BadParam(f"girth compares a finite member to its parent, got {spec.family}")
    parent = make_spec(PARENT_FAMILY[spec.family], m=spec.m, A=spec.A)
    cap = args.cap if args.cap is not None else 6
    report = girth(parent, spec, cap=cap)
    kernel = report.kernel_witness
    iso = report.iso_witness
    bounds = {"g_lower": report.g_lower, "iso_lower": report.iso_lower, "cap": report.cap}
    return {
        **bounds,
        "kernel_witness": None if kernel is None else to_string(parent, kernel),
        "iso_witness": None if iso is None else [to_string(parent, x) for x in iso],
    }, [bounds]


def _run_expradical(args):
    spec = _spec_from_args(args)
    if args.radius is None:
        raise BadParam("--radius (maximal word length) is required")
    report = exp_radical_scan(spec, args.radius,
                              cap=VERTEX_CAP if args.cap is None else args.cap)
    return {
        "r_max": report.r_max,
        "rows": [list(row) for row in report.rows],
        "alpha_upper": report.alpha_upper,
        "alpha_lower": report.alpha_lower,
        "alpha_hat": report.alpha_hat,
    }, [{"r": r, "min_log_norm": lo, "max_log_norm": hi} for r, lo, hi in report.rows]


def _run_profile(args):
    spec = _spec_from_args(args)
    p = _exponent(args, 1)
    if args.radius is None:
        raise BadParam("--radius (comma-separated radii) is required")
    if not spec.finite:
        raise BadParam(f"profile curves need a finite family, got {spec.family}")
    radii = checked_radii(args.radius)  # cheap, so refused before the BFS
    curve = profile_curve(bfs_ball(spec, None), p, radii)
    return {
        "p": curve.p,
        "diameter": curve.diameter,
        "C_hat": curve.C_hat,
        "points": [[r, j] for r, j in curve.points],
    }, [{"r": r, "certified_J": j, "ratio_r_over_J": r / j} for r, j in curve.points]


def _table_from_args(args):
    spec = _spec_from_args(args)
    if not spec.finite:
        raise BadParam(f"embeddings need a finite family, got {spec.family}")
    if args.radius is not None and args.radius < 2:  # bundle_scale's check, made before the BFS
        raise BadParam(f"scale R = {args.radius} must be >= 2")
    return bfs_ball(spec, None)


def _run_embed(args):
    p = _exponent(args, 2)
    bundle = build_bundle(_table_from_args(args), p, R=args.radius)
    certified = [None] + [tv.certified_J for tv in bundle.vectors]
    blocks = [{
        "radius": radius,
        "certified_J": j,
        "coef": coef,
        "support_size": len(values),
    } for (radius, coef, values), j in zip(bundle.blocks(), certified)]
    circle = bundle.circle
    return {
        "spec": spec_to_dict(bundle.spec),
        "p": bundle.p,
        "R": bundle.R,
        "K": bundle.K,
        "C_hat": bundle.C_hat,
        "blocks": blocks,
        "circle": None if circle is None else {"q": circle.q, "c_q": circle.c_q},
    }, blocks


def _run_distort(args):
    p = _exponent(args, 2)
    table = _table_from_args(args)
    R, K = bundle_scale(table, args.radius)
    zero = args.zero_block
    if zero is not None and not 0 <= zero <= K:  # before the profile certificates
        raise BadParam(f"--zero-block {zero} outside blocks 0..{K}")
    bundle = build_bundle(table, p, R)
    if zero is not None:
        coefs = tuple(0.0 if k == zero else c for k, c in enumerate(bundle.coefs))
        bundle = replace(bundle, coefs=coefs)
    # the bound certifies scale R, so a requested R is also where distortion is measured
    report = distortion_equivariant(bundle, None if args.radius is None else R)
    bound = apriori_bound(bundle)
    blob = {
        "R": report.R,
        "expansion": report.expansion,
        "contraction": report.contraction,
        "dist": report.dist,
        "witness_expand": [to_string(bundle.spec, x) for x in report.witness_expand],
        "witness_contract": [to_string(bundle.spec, x) for x in report.witness_contract],
        "lip_bound": bound.lip_bound,
        "colip_bound": bound.colip_bound,
        "dist_bound": bound.dist_bound,
        "closed_form": bound.closed_form,
    }
    keys = ("R", "expansion", "contraction", "dist", "dist_bound")
    return blob, [{k: blob[k] for k in keys}]


def _run_c2(args):
    if args.metric is not None:
        metric = args.metric
    else:
        spec = _spec_from_args(args)
        if not spec.finite:
            raise BadParam("c2 on a group needs a finite family")
        if spec.order > C2_CAP:  # the metric alone costs order^3
            raise BadParam(f"point count {spec.order} exceeds {C2_CAP}")
        metric = metric_from_table(bfs_ball(spec, None))
    result = exact_c2(metric, tol=1e-6 if args.tol is None else args.tol)
    blob = {"value": result.value, "bracket_lo": result.bracket[0],
            "bracket_hi": result.bracket[1]}
    return blob, [blob]


def _scan_row(family: str, m, n: int, p: float) -> dict:
    spec = make_spec(family, m=m, n=n)
    table = bfs_ball(spec, None)
    diam = table.radius
    bundle = build_bundle(table, p)
    bound = apriori_bound(bundle)
    report = distortion_equivariant(bundle)
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


def _run_scan(args):
    if args.family is None:
        raise BadParam("--family is required")
    if args.family not in PARENT_FAMILY:
        raise BadParam(f"scan sweeps finite families, got {args.family}")
    if not args.n:
        raise BadParam("--n (comma-separated sweep values) is required")
    p = _exponent(args, 2)

    rows = [_scan_row(args.family, args.m, n, p) for n in args.n]

    if args.plot_script is not None:
        script = _PLOT_SCRIPT.format(
            p=_fmt(p),
            ns=[row["n"] for row in rows],
            dist_emp=[float(_fmt(row["dist_emp"])) for row in rows],
            dist_bound=[float(_fmt(row["dist_bound"])) for row in rows],
        )
        with open(args.plot_script, "w", encoding="utf-8") as fh:
            fh.write(script)
    return rows, rows


# Each command's handler, default format, help text, and the flags it reads with
# their types; a config file's keys are the same names.  None marks a key only a
# config file sets, to a JSON value.
_GROUP = {"family": str, "m": int, "n": int, "A": None}
_OUTPUT = {"format": ("json", "csv"), "out": file_path}

_COMMANDS = {
    "group info": (_run_group_info, "json", "parameters and derived constants",
                   {**_GROUP, **_OUTPUT}),
    "cayley ball": (_run_cayley_ball, "csv", "sphere sizes out to a radius",
                    {**_GROUP, "radius": int, "cap": int, **_OUTPUT}),
    "cayley diam": (_run_cayley_diam, "json", "diameter (and kernel diameter)",
                    {**_GROUP, **_OUTPUT}),
    "girth": (_run_girth, "json", "finite member against its infinite parent",
              {**_GROUP, "cap": int, **_OUTPUT}),
    "expradical": (_run_expradical, "csv", "kernel norm growth (sol)",
                   {**_GROUP, "radius": int, "cap": int, **_OUTPUT}),
    "profile": (_run_profile, "csv", "certified profile lower bounds",
                {**_GROUP, "p": finite_float, "radius": comma_separated_ints, **_OUTPUT}),
    "embed": (_run_embed, "json", "embedding manifest",
              {**_GROUP, "p": finite_float, "radius": int, **_OUTPUT}),
    "distort": (_run_distort, "json", "measured distortion against the certified bound",
                {**_GROUP, "p": finite_float, "radius": int, "zero_block": int, **_OUTPUT}),
    "c2": (_run_c2, "json", "heuristic Euclidean distortion bracket, tiny metrics",
           {**_GROUP, "metric": None, "tol": finite_float, **_OUTPUT}),
    "scan": (_run_scan, "csv", "n-sweep distortion table",
             {"family": str, "m": int, "n": comma_separated_ints, "p": finite_float,
              "plot_script": file_path, **_OUTPUT}),
}


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        run, default, _, _ = _COMMANDS[args.command]
        obj, records = run(args)
        if (args.format or default) == "json":
            text = json.dumps(obj, indent=2) + "\n"
        else:
            text = _csv(records)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (CayleyDistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
