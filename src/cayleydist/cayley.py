"""Word metrics on Cayley graphs: balls, diameters, quotient girth, kernel growth.

All metric data is derived from breadth-first search over the generating set
returned by :func:`cayleydist.groups.generators`.  BFS expands each level in
discovery order and each element's neighbors in generator-list order, so
element order, distances, and every downstream report are deterministic.
"""

from __future__ import annotations

import gc
import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, combinations, islice, repeat

import numpy as np

from .errors import BadParam, CapExceeded, FamilyMismatch, InfiniteNeedsRadius, Overflow
from .groups import (Element, GroupSpec, code_space, generators, identity, int_param, inv, mul,
                     project, right_step)

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

    ``in_map`` and ``elements_at`` work on positions along
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
        return dict(zip(code_space(self.spec).decode_many(self.elements), self.lengths().tolist()))

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
            index = self._index
            return np.fromiter((index.get(mul(spec, s_inv, x), -1) for x in self.elements),
                               dtype=np.int64)
        return self._positions(code_space(spec).act_left(s_inv, self.elements))

    def elements_at(self, positions: np.ndarray) -> list[Element]:
        """The elements at the given positions along ``elements``."""
        if self.spec.finite:
            return code_space(self.spec).decode_many(self.elements[positions])
        keys = list(self.elements)
        return [keys[i] for i in positions]

    def word_length(self, x: Element) -> int | None:
        return self.dist.get(x)

    def pair_distance(self, x: Element, y: Element) -> int | None:
        """d(x, y) = word length of x^-1 y, when that element lies in the table."""
        return self.word_length(mul(self.spec, inv(self.spec, x), y))

    def ball_size(self, r: int) -> int:
        """Number of elements of word length <= r; r may exceed the radius
        only when the table is complete."""
        r = int_param(r)
        if r < 0 or (r > self.radius and not self.complete):
            raise BadParam(f"no radius-{r} ball in a table of radius {self.radius}")
        return sum(self.sphere_sizes[: r + 1])

    def ball(self, r: int) -> BallTable:
        """The radius-r ball, equal to ``bfs_ball(spec, r)``.

        BFS lists elements by word length, so the ball is a prefix of this
        table of ``ball_size(r)`` entries.
        """
        r = int_param(r)
        n = self.ball_size(r)
        elements = (self.elements[:n] if self.spec.finite
                    else dict(islice(self.elements.items(), n)))
        return replace(self, radius=r, elements=elements,
                       sphere_sizes=self.sphere_sizes[: r + 1],
                       complete=self.spec.finite and n == self.spec.order)


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
        radius = int_param(radius)
        if radius < 0:
            raise BadParam(f"radius {radius} must be >= 0")
        if not spec.finite and radius > INF_RADIUS_CAP:
            raise CapExceeded(f"radius {radius} > {INF_RADIUS_CAP} on an infinite family")

    e = identity(spec)
    dist: dict[Element, int] = {e: 0}
    sphere = [1]
    level = [e]
    if spec.finite:
        cs = code_space(spec)
        level = np.array([cs.encode(e)])
        levels = [level]
        seen = np.zeros(spec.order, dtype=bool)
    steps = [right_step(spec, g) for g in gens]
    # The infinite table holds only tuples of ints, which the cyclic collector
    # keeps re-scanning but can never free: pause it for the level loop.
    paused = not spec.finite and gc.isenabled()
    if paused:
        gc.disable()
    try:
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
                    part = level[i:i + INF_SLICE]
                    cand = chain.from_iterable(zip(*(map(st, part) for st in steps)))
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
    finally:
        if paused:
            gc.enable()

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
    t, _ = code_space(table.spec).split(table.elements)
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
    to the identity); ``kernel_witness`` is the first such element of the
    parent cap-ball in BFS order.  ``iso_lower`` is the largest radius r <= cap
    at which the projection is a bijective isometry from the parent r-ball
    onto the quotient r-ball; ``iso_witness`` is the first pair of the parent
    (iso_lower + 1)-ball, in BFS order, that it merges, else that it shrinks.
    """

    parent: GroupSpec
    quotient: GroupSpec
    cap: int
    g_lower: int
    iso_lower: int
    kernel_witness: Element | None
    iso_witness: tuple[Element, Element] | None


def _iso_witness(parent, quotient, ptable: BallTable, qlen: dict, r: int):
    """The first pair of the parent r-ball that the projection merges, in BFS
    order, else the first pair i < j whose distance it shrinks, read in ``qlen``."""
    ball = list(islice(ptable.dist, ptable.ball_size(r)))
    images = [project(parent, quotient, x) for x in ball]
    first: dict[Element, Element] = {}
    for x, y in zip(ball, images):
        if first.setdefault(y, x) != x:
            return first[y], x
    return next((x, y) for (x, a), (y, b) in combinations(zip(ball, images), 2)
                if ptable.pair_distance(x, y) != qlen[mul(quotient, inv(quotient, a), b)])


def girth(parent: GroupSpec, quotient: GroupSpec, cap: int) -> GirthReport:
    """Girth of the quotient map, capped; see GirthReport for both readings.

    The projection maps each parent r-ball onto the quotient r-ball, so an
    image's quotient word length is the least parent length reaching it, the
    first met along the parent ball in BFS order; no quotient ball is built.
    The map is a bijective isometry on the r-ball exactly when it keeps the
    word length of every x^-1 y, x and y in the r-ball: the parent 2r-ball.
    So radius r walks the parent spheres 2r - 1 and 2r, an image met before at
    a shorter length ends the scan, and only then are pairs searched, once.
    """
    cap = int_param(cap, "cap")
    if cap < 1:
        raise BadParam(f"cap {cap} must be >= 1")
    project(parent, quotient, identity(parent))  # validates the pair

    ptable = bfs_ball(parent, cap)
    e_q = identity(quotient)
    kernel_witness = next((x for x in islice(ptable.dist, 1, None)
                           if project(parent, quotient, x) == e_q), None)
    g_lower = cap if kernel_witness is None else ptable.dist[kernel_witness]

    qlen = {e_q: 0}  # quotient word length per image; a list walks whole spheres into it
    iso_lower = 0
    for r in range(1, cap + 1):
        if 2 * r > ptable.radius:
            ptable = bfs_ball(parent, 2 * r)
        sphere = islice(ptable.dist.items(), ptable.ball_size(2 * r - 2), ptable.ball_size(2 * r))
        if any([qlen.setdefault(project(parent, quotient, x), d) < d for x, d in sphere]):
            break
        iso_lower = r
    iso_witness = None
    if iso_lower < cap:
        iso_witness = _iso_witness(parent, quotient, ptable, qlen, iso_lower + 1)

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
    return max(min(v[0], n - v[0]), min(v[1], n - v[1]))


def exp_radical_scan(spec: GroupSpec, r_max: int,
                     cap: int = VERTEX_CAP) -> ExpRadicalReport:
    """Per-radius extremes of log-norm over the plane subgroup, plus fit."""
    if spec.family not in ("sol-fin", "sol-inf"):
        raise FamilyMismatch(f"exponential-kernel scan needs a sol family, got {spec.family}")
    r_max = int_param(r_max, "r_max")
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
    alpha_lower = max((r / hi for r, _lo, hi in rows if hi > 0.0), default=None)
    alpha_hat = max(alpha_upper, alpha_lower or 0.0)
    return ExpRadicalReport(spec=spec, r_max=r_max, rows=rows,
                            alpha_upper=alpha_upper, alpha_lower=alpha_lower,
                            alpha_hat=alpha_hat)
