"""Word metrics on Cayley graphs: balls, diameters, quotient girth, kernel growth.

All metric data is derived from breadth-first search over the generating set
returned by :func:`cayleydist.groups.generators`.  BFS expands each level in
discovery order and each element's neighbors in generator-list order, so
element order, distances, and every downstream report are deterministic.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, islice, repeat

import numpy as np

from .errors import BadParam, CapExceeded, FamilyMismatch, InfiniteNeedsRadius, Overflow
from .groups import (CodeSpace, Element, GroupSpec, generators, identity, inv, mul, project,
                     right_step)

VERTEX_CAP = 1 << 22
INF_RADIUS_CAP = 40
INF_SLICE = 4096  # elements of an infinite level grown between two cap checks


@dataclass(frozen=True)
class BallTable:
    """Closed ball of a given radius around the identity, with exact distances.

    ``elements`` lists the ball in BFS discovery order, so word lengths are
    nondecreasing along it: for a finite family it is the int64 array of
    ``CodeSpace`` codes, for an infinite one the BFS's map from each element to
    its word length.  ``dist`` is that map for both kinds; a finite table
    decodes it from the codes the first time it is read.  ``complete`` marks a
    table covering the whole group.  Equality compares spec, radius, sphere
    sizes, completeness and gens, not the elements they determine.

    ``in_map``, ``index_of`` and ``elements_at`` work on positions along
    ``elements`` without decoding the ball: a finite table looks codes up in
    its own codes sorted once (an array of the ball's size, not the
    group's), an infinite one in an {element: position} dict.
    """

    spec: GroupSpec
    radius: int
    elements: np.ndarray | dict = field(compare=False, repr=False)
    sphere_sizes: tuple[int, ...]
    complete: bool
    gens: tuple[Element, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def dist(self) -> dict:
        if not self.spec.finite:
            return self.elements
        return dict(zip(CodeSpace(self.spec).decode_many(self.elements), self.lengths().tolist()))

    def lengths(self) -> np.ndarray:
        """Word length of each entry of ``elements``, in order."""
        return np.repeat(np.arange(len(self.sphere_sizes)), self.sphere_sizes)

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray] | dict:
        if not self.spec.finite:
            return {x: i for i, x in enumerate(self.elements)}
        by_code = np.argsort(self.elements)
        return self.elements[by_code], by_code

    def _positions(self, codes: np.ndarray) -> np.ndarray:
        """Position of each code along the finite ``elements``, -1 if absent."""
        sorted_codes, by_code = self._index
        i = np.minimum(np.searchsorted(sorted_codes, codes), len(self) - 1)
        return np.where(sorted_codes[i] == codes, by_code[i], -1)

    def in_map(self, s: Element) -> np.ndarray:
        """The position in this ball of s^-1 x for each x along ``elements``,
        -1 where s^-1 x lies outside it."""
        spec = self.spec
        s_inv = inv(spec, s)
        if not spec.finite:
            return self.index_of(mul(spec, s_inv, x) for x in self.elements)
        return self._positions(CodeSpace(spec).act_left(s_inv, self.elements))

    def index_of(self, elements) -> np.ndarray:
        """The position of each given element along ``elements``, -1 if absent."""
        if not self.spec.finite:
            return np.fromiter((self._index.get(x, -1) for x in elements), dtype=np.int64)
        cs = CodeSpace(self.spec)
        return self._positions(np.array([_canonical_code(cs, x) for x in elements],
                                        dtype=np.int64))

    def elements_at(self, positions: np.ndarray) -> list[Element]:
        """The elements at the given positions along ``elements``."""
        if self.spec.finite:
            return CodeSpace(self.spec).decode_many(self.elements[positions])
        keys = list(self.elements)
        return [keys[i] for i in positions]

    def word_length(self, x: Element) -> int | None:
        return self.dist.get(x)

    def pair_distance(self, x: Element, y: Element) -> int | None:
        """d(x, y) = word length of x^-1 y, when that element lies in the table."""
        return self.word_length(mul(self.spec, inv(self.spec, x), y))

    def ball_size(self, r: int) -> int:
        return sum(self.sphere_sizes[: r + 1])

    def ball(self, r: int) -> BallTable:
        """The radius-r ball, equal to ``bfs_ball(spec, r)``.

        BFS lists elements by word length, so the ball is a prefix of this
        table; r may exceed the radius only when the table is complete.
        """
        if r < 0 or (r > self.radius and not self.complete):
            raise BadParam(f"no radius-{r} ball in a table of radius {self.radius}")
        n = self.ball_size(r)
        elements = (self.elements[:n] if self.spec.finite
                    else dict(islice(self.elements.items(), n)))
        return replace(self, radius=r, elements=elements,
                       sphere_sizes=self.sphere_sizes[: r + 1],
                       complete=self.spec.finite and n == self.spec.order)


def _canonical_code(cs: CodeSpace, x) -> int:
    """The code of x, or -1 when x is not a group element in canonical form,
    which would otherwise alias the code of the element it reduces to."""
    try:
        code = operator.index(cs.encode(x))
    except (TypeError, ValueError):
        return -1
    return code if 0 <= code < cs.order and cs.decode(code) == x else -1


def bfs_ball(spec: GroupSpec, radius: int | None = None,
             cap: int = VERTEX_CAP) -> BallTable:
    """Enumerate the closed ball of the given radius (whole group if None),
    level by level, in FIFO discovery order: x * g for x in level order and g
    in generator order, first occurrence kept.  Finite families do this on
    ``CodeSpace`` code arrays and keep the codes.  Infinite families step each
    generator with its ``right_step`` map and grow the table through
    ``dict.setdefault``, checking the vertex cap after each ``INF_SLICE``
    elements of a level, so a cap hit overshoots by at most 4 * INF_SLICE.
    """
    gens = generators(spec)
    if radius is None:
        if not spec.finite:
            raise InfiniteNeedsRadius(f"{spec.family} needs an explicit radius")
    else:
        if radius < 0:
            raise BadParam(f"radius {radius} must be >= 0")
        if not spec.finite and radius > INF_RADIUS_CAP:
            raise CapExceeded(f"radius {radius} > {INF_RADIUS_CAP} on an infinite family")

    e = identity(spec)
    dist: dict[Element, int] = {e: 0}
    sphere = [1]
    level = [e]
    if spec.finite:
        cs = CodeSpace(spec)
        level = np.array([cs.encode(e)])
        levels = [level]
        seen = np.zeros(spec.order, dtype=bool)
    steps = [right_step(spec, g) for g in gens]
    while len(sphere) - 1 != radius:
        d = len(sphere)
        if spec.finite:
            seen[level] = True
            payload = cs.payload(level)
            cand = np.stack([cs.act_right(g, payload) for g in gens], axis=1).ravel()
            del payload  # the level's digits, dead before the candidates are filtered
            cand = cand[~seen[cand]]
            nxt = cand[np.sort(np.unique(cand, return_index=True)[1])]
            if sum(sphere) + len(nxt) > cap:
                raise CapExceeded(f"ball exceeds vertex cap {cap}")
            levels.append(nxt)
        else:
            for i in range(0, len(level), INF_SLICE):
                cand = chain.from_iterable(zip(*(map(st, level[i:i + INF_SLICE]) for st in steps)))
                try:
                    deque(map(dist.setdefault, cand, repeat(d)), maxlen=0)
                except Overflow:
                    if len(dist) <= cap:  # a table past the cap hit it before the Overflow
                        raise
                if len(dist) > cap:
                    raise CapExceeded(f"ball exceeds vertex cap {cap}")
            nxt = list(islice(dist, sum(sphere), None))
        if not len(nxt):
            break
        sphere.append(len(nxt))
        level = nxt

    return BallTable(
        spec=spec,
        radius=radius if radius is not None else len(sphere) - 1,
        elements=np.concatenate(levels) if spec.finite else dist,
        sphere_sizes=tuple(sphere),
        complete=spec.finite and sum(sphere) == spec.order,
        gens=gens,
    )


def kernel_diameter(table: BallTable) -> int:
    """Largest word length over the sol plane subgroup {(v, 0)} in the finite table."""
    t, _ = CodeSpace(table.spec).split(table.elements)
    return int(table.lengths()[t == 0].max())


@dataclass(frozen=True)
class DiameterReport:
    """Eccentricity of the identity; equals the diameter by vertex-transitivity.

    For the sol family, ``diam_N`` is the largest word length over the plane
    subgroup {(v, 0)} with the metric induced from the whole group.
    """

    spec: GroupSpec
    diameter: int
    diam_N: int | None = None


def diameter(spec: GroupSpec) -> DiameterReport:
    if not spec.finite:
        raise BadParam(f"diameter needs a finite family, got {spec.family}")
    table = bfs_ball(spec, None)
    diam = len(table.sphere_sizes) - 1
    diam_N = None
    if spec.family == "sol-fin":
        diam_N = kernel_diameter(table)
    return DiameterReport(spec=spec, diameter=diam, diam_N=diam_N)


@dataclass(frozen=True)
class GirthReport:
    """How far the quotient map preserves the local metric.

    ``g_lower`` is min(cap, length of the shortest nontrivial element collapsed
    to the identity); ``kernel_witness`` is that element when found within cap.
    ``iso_lower`` is the largest radius r <= cap at which the projection is a
    bijective isometry from the parent r-ball onto the quotient r-ball, with
    ``iso_witness`` a colliding or distance-dropping pair at iso_lower + 1.
    """

    parent: GroupSpec
    quotient: GroupSpec
    cap: int
    g_lower: int
    iso_lower: int
    kernel_witness: Element | None
    iso_witness: tuple[Element, Element] | None


def _ball_isometric(parent, quotient, big: BallTable, qtable: BallTable, r: int):
    """Check the radius-r balls match through project; big has radius 2r."""
    elems_r = list(islice(big.dist, big.ball_size(r)))
    qcount = qtable.ball_size(min(r, len(qtable.sphere_sizes) - 1))

    all_images = [project(parent, quotient, x) for x in big.dist]
    if len(set(all_images)) == len(all_images) and len(elems_r) == qcount:
        # injectivity on the double ball forces distance preservation:
        # a dropped distance would lift to a second preimage inside it
        return True, None

    images = all_images[: len(elems_r)]
    seen: dict[Element, Element] = {}
    for x, y in zip(elems_r, images):
        if y in seen:
            return False, (seen[y], x)
        seen[y] = x
    if len(elems_r) != qcount:
        return False, None
    for i in range(len(elems_r)):
        for j in range(i + 1, len(elems_r)):
            dp = big.pair_distance(elems_r[i], elems_r[j])
            dq = qtable.pair_distance(images[i], images[j])
            if dp != dq:
                return False, (elems_r[i], elems_r[j])
    return True, None


def girth(parent: GroupSpec, quotient: GroupSpec, cap: int) -> GirthReport:
    """Girth of the quotient map, capped; see GirthReport for both readings."""
    if cap < 1:
        raise BadParam(f"cap {cap} must be >= 1")
    project(parent, quotient, identity(parent))  # validates the pair

    ptable = bfs_ball(parent, cap)
    e_q = identity(quotient)
    kernel_witness = None
    shortest = None
    for x, d in islice(ptable.dist.items(), 1, None):
        if project(parent, quotient, x) == e_q:
            kernel_witness, shortest = x, d
            break
    g_lower = cap if shortest is None else min(cap, shortest)

    qtable = bfs_ball(quotient, 2 * cap)  # pair distances in an r-ball are at most 2r
    iso_lower = 0
    iso_witness = None
    for r in range(1, cap + 1):
        if 2 * r > ptable.radius:
            ptable = bfs_ball(parent, 2 * r)
        ok, witness = _ball_isometric(parent, quotient, ptable.ball(2 * r), qtable, r)
        if not ok:
            iso_witness = witness
            break
        iso_lower = r

    return GirthReport(parent=parent, quotient=quotient, cap=cap,
                       g_lower=g_lower, iso_lower=iso_lower,
                       kernel_witness=kernel_witness, iso_witness=iso_witness)


@dataclass(frozen=True)
class ExpRadicalReport:
    """Growth of the plane subgroup {(v, 0)} against the ambient word metric.

    ``rows`` holds (r, min log-norm, max log-norm) over kernel elements of word
    length exactly r; radii whose sphere misses the subgroup are omitted.
    ``alpha_upper`` bounds max log-norm / r from above, ``alpha_lower`` bounds
    r / max log-norm (rows with zero max log-norm skipped), and ``alpha_hat``
    is the larger of the two: a single constant sandwiching the growth.
    """

    spec: GroupSpec
    r_max: int
    rows: tuple[tuple[int, float, float], ...]
    alpha_upper: float
    alpha_lower: float | None
    alpha_hat: float


def _sol_norm_inf(spec: GroupSpec, v: tuple[int, int]) -> int:
    if spec.family == "sol-inf":
        return max(abs(v[0]), abs(v[1]))
    n = spec.n
    return max(min(v[0], n - v[0]) if v[0] else 0,
               min(v[1], n - v[1]) if v[1] else 0)


def exp_radical_scan(spec: GroupSpec, r_max: int,
                     cap: int = VERTEX_CAP) -> ExpRadicalReport:
    """Per-radius extremes of log-norm over the plane subgroup, plus fit."""
    if spec.family not in ("sol-fin", "sol-inf"):
        raise FamilyMismatch(f"exponential-kernel scan needs a sol family, got {spec.family}")
    if r_max < 1:
        raise BadParam(f"r_max {r_max} must be >= 1")
    if spec.family == "sol-inf" and r_max > 20:
        raise CapExceeded(f"r_max {r_max} > 20 on the infinite family")

    table = bfs_ball(spec, r_max, cap=cap)
    r_max = min(r_max, len(table.sphere_sizes) - 1)

    extremes: dict[int, tuple[int, int]] = {}
    for x, d in table.dist.items():
        if d == 0 or x[1] != 0:
            continue
        norm = _sol_norm_inf(spec, x[0])
        lo, hi = extremes.get(d, (norm, norm))
        extremes[d] = (min(lo, norm), max(hi, norm))

    rows = tuple(
        (r, math.log(lo), math.log(hi))
        for r, (lo, hi) in sorted(extremes.items())
    )
    alpha_upper = max((hi / r for r, _lo, hi in rows), default=0.0)
    lower_terms = [r / hi for r, _lo, hi in rows if hi > 0.0]
    alpha_lower = max(lower_terms) if lower_terms else None
    alpha_hat = max(alpha_upper, alpha_lower) if alpha_lower is not None else alpha_upper
    return ExpRadicalReport(spec=spec, r_max=r_max, rows=rows,
                            alpha_upper=alpha_upper, alpha_lower=alpha_lower,
                            alpha_hat=alpha_hat)


def sphere_csv(table: BallTable) -> str:
    """Sphere sizes as CSV: r, sphere, cumulative."""
    lines = ["r,sphere,cumulative"]
    total = 0
    for r, s in enumerate(table.sphere_sizes):
        total += s
        lines.append(f"{r},{s},{total}")
    return "\n".join(lines) + "\n"


def exp_radical_csv(report: ExpRadicalReport) -> str:
    """Kernel growth rows as CSV: r, min_log_norm, max_log_norm."""
    lines = ["r,min_log_norm,max_log_norm"]
    for r, lo, hi in report.rows:
        lines.append(f"{r},{lo:.12g},{hi:.12g}")
    return "\n".join(lines) + "\n"
