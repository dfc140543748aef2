"""Per-layer spans and counters recorded from outside the program.

The traced pass calls ``cayleydist.cli.main(argv)`` in this process with the
layer entry points replaced by timing wrappers.  The package modules import
each other's names (``from .cayley import bfs_ball``), so every module
attribute bound to a wrapped function is rebound, and restored afterwards.

A span's self time is its duration minus the part of it covered by child
spans.  Spans opened on a worker thread (the ``THREADS`` scan pool) hang off
the running command's root span, so on that command layer self times add up
to more than the wall time by the threads' overlap.

``trace.overhead_s`` is the time the wrappers themselves take: a wrapper's
whole duration minus the span it records, summed over calls.

Re-checks (embedding norms against the per-element path, the c2 Gram
certificate against its claimed value) run after each command returns, outside
every span and outside the overhead.
"""

from __future__ import annotations

import inspect
import random
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# traced entry points, as "<module>.<attribute path>"; each gives a ``<name>.s``
# metric: self time, except ``cli.main.s``, which is the commands' whole wall time
TARGETS = (
    "cli.main",
    "groups.make_spec",
    "groups.CodeSpace.act_left",
    "groups.CodeSpace.encode_many",
    "cayley.bfs_ball",
    "cayley.diameter",
    "cayley.girth",
    "cayley.exp_radical_scan",
    "profile.profile_curve",
    "profile.dirichlet_pc",
    "profile.optimize_profile",
    "embed.build_bundle",
    "embed.embed_norms_all",
    "distortion.distortion_equivariant",
    "distortion.metric_from_table",
    "distortion.exact_c2",
)

# count metrics and units, besides the ``.s`` self times
COUNTS = {
    "cayley.bfs_ball.calls": "count",
    "cayley.bfs_ball.vertices": "count",
    "cayley.bfs_ball.repeat_ratio": "ratio",
    "profile.optimize_profile.ball_size": "count",
    "profile.optimize_profile.converged_ratio": "ratio",
    "profile.optimize_profile.dirac_fallbacks": "count",
    "embed.embed_norms_all.pairs": "count",
    "embed.norms.max_rel_gap": "ratio",
    "groups.CodeSpace.act_left.rows": "count",
    "groups.CodeSpace.encode_many.items": "count",
    "distortion.exact_c2.points": "count",
    "distortion.exact_c2.gram_gap": "ratio",
}

NORM_SAMPLE = 6  # elements per embed_norms_all call re-checked against embed_norm


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.s": "s" for name in TARGETS}
    units["cli.self.s"] = "s"
    units["trace.overhead_s"] = "s"
    units.update(COUNTS)
    return units


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, seed: int = 0):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self.rechecks: list = []
        self.root: int | None = None
        self.rng = random.Random(seed)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen: set = set()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        if name == "cli.main":
            self.root = idx
            self._seen = set()
        stack.append(idx)
        try:
            yield idx
        finally:
            stack.pop()
            self.spans[idx][2] = time.perf_counter()
            if name == "cli.main":
                self.root = None

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def run_rechecks(self) -> None:
        checks, self.rechecks = self.rechecks, []
        for check in checks:
            check()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, plus ``cli.self`` and ``cli.main`` totals."""
        children = defaultdict(list)
        for idx, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(idx)
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered = _union_length(
                [(max(start, self.spans[c][1]), min(end, self.spans[c][2]))
                 for c in children[idx]])
            self_time = (end - start) - covered
            if name == "cli.main":
                out["cli.self"] += self_time
                out["cli.main"] += end - start
            else:
                out[name] += self_time
        return out

    def metrics(self) -> dict[str, float]:
        times = self.self_times()
        c = self.counts
        vals = {f"{name}.s": times.get(name, 0.0) for name in TARGETS}
        vals["cli.self.s"] = times.get("cli.self", 0.0)
        vals["trace.overhead_s"] = c.get("trace.overhead_s", 0.0)
        vals.update({key: c.get(key, 0.0) for key in COUNTS})
        vals["cayley.bfs_ball.repeat_ratio"] = _ratio(c.get("bfs.repeat_vertices", 0.0),
                                                      c.get("cayley.bfs_ball.vertices", 0.0))
        vals["profile.optimize_profile.converged_ratio"] = _ratio(
            c.get("profile.converged", 0.0), c.get("profile.optimize_calls", 0.0))
        return vals

    def first_sight(self, key) -> bool:
        """True unless ``key`` was already seen in the running command."""
        with self._lock:
            seen = key in self._seen
            self._seen.add(key)
        return not seen

    def record_max(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _union_length(intervals) -> float:
    total, reach = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
        reach = max(reach, hi)
    return total


# ---------------------------------------------------------------------------
# counters read from arguments and return values


def _count(tracer: Tracer, name: str, args: dict, result) -> None:
    add = tracer.add
    if name == "cayley.bfs_ball":
        n = len(result)
        add("cayley.bfs_ball.calls", 1)
        add("cayley.bfs_ball.vertices", n)
        if not tracer.first_sight((result.spec, args["radius"], result.gens)):
            add("bfs.repeat_vertices", n)
    elif name == "profile.optimize_profile":
        from cayleydist.groups import identity

        add("profile.optimize_calls", 1)
        add("profile.optimize_profile.ball_size", len(args["ball"]))
        add("profile.converged", 1 if result.converged else 0)
        if list(result.values) == [identity(result.spec)]:
            add("profile.optimize_profile.dirac_fallbacks", 1)
    elif name == "embed.embed_norms_all":
        bundle = args["bundle"]
        add("embed.embed_norms_all.pairs",
            sum(len(values) ** 2 for _, _, values in bundle.blocks()))
        tracer.rechecks.append(lambda: _recheck_norms(tracer, bundle, result))
    elif name == "groups.CodeSpace.act_left":
        add("groups.CodeSpace.act_left.rows", len(args["codes"]))
    elif name == "groups.CodeSpace.encode_many":
        add("groups.CodeSpace.encode_many.items", len(args["elements"]))
    elif name == "distortion.exact_c2":
        metric = args["metric"]
        add("distortion.exact_c2.points", len(metric))
        tol = args["tol"]
        tracer.rechecks.append(lambda: _recheck_c2(tracer, metric, tol, result))


def _recheck_norms(tracer: Tracer, bundle, norms) -> None:
    """Worst relative gap between embed_norms_all and per-element embed_norm."""
    from cayleydist.embed import _codespace, embed_norm

    cs = _codespace(bundle.spec)
    codes = tracer.rng.sample(range(bundle.spec.order), min(NORM_SAMPLE, bundle.spec.order))
    worst = 0.0
    for code in codes:
        want = embed_norm(bundle, cs.decode(code))
        got = float(norms[code])
        gap = abs(got - want) / want if want else abs(got)
        worst = max(worst, gap)
    tracer.record_max("embed.norms.max_rel_gap", worst)


def _recheck_c2(tracer: Tracer, metric, tol: float, result) -> None:
    """How far the distortion of points factored from ``gram`` exceeds value*(1+tol)."""
    from cayleydist.distortion import _as_metric, distortion_pairwise

    M = _as_metric(metric)
    if M.n < 2:
        return
    w, V = np.linalg.eigh((result.gram + result.gram.T) / 2)
    points = V * np.sqrt(np.maximum(w, 0.0))
    dist = distortion_pairwise(points, M, p=2.0).dist
    gap = max(0.0, dist / (result.value * (1.0 + tol)) - 1.0)
    tracer.record_max("distortion.exact_c2.gram_gap", gap)


# ---------------------------------------------------------------------------
# installing the wrappers


def _wrap(tracer: Tracer, func, name: str):
    sig = inspect.signature(func)

    def wrapper(*args, **kwargs):
        entered = time.perf_counter()
        with tracer.span(name) as idx:
            result = func(*args, **kwargs)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        _count(tracer, name, bound.arguments, result)
        _, start, end, _ = tracer.spans[idx]
        tracer.add("trace.overhead_s", time.perf_counter() - entered - (end - start))
        return result

    wrapper.__wrapped__ = func
    wrapper.__name__ = func.__name__
    wrapper.__doc__ = func.__doc__
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced entry point in all cayleydist modules; undo on exit."""
    import cayleydist.cli  # noqa: F401  (loads every submodule)

    modules = _package_modules()
    undo = []
    try:
        for name in TARGETS:
            mod_name, path = name.split(".", 1)
            owner = sys.modules[f"cayleydist.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, original, name)
            if cls_path:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def clear_caches() -> None:
    """Empty the package's lru caches, as a fresh process starts with them empty."""
    for mod in _package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if (k == "cayleydist" or k.startswith("cayleydist.")) and m is not None]
