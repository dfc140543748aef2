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

from ._lazy import np
from .errors import BadParam, CapExceeded, FamilyMismatch, InfiniteNeedsRadius, Overflow
from .groups import (Element, GroupSpec, code_space, generators, identity, int_param, inv, mul,
                     project, right_step)

VERTEX_CAP = 1 << 22
INF_RADIUS_CAP = 40
INF_SLICE = 4096  # elements of an infinite level grown between two cap checks
CODE_SLICE = 1 << 16  # codes of a finite level stepped at once, bounding the temporaries
# the least radius at which counting spheres on int64 codes, numpy's import included,
# beats the tuple BFS, measured at m = 2.  From m = 3 on, the lamplighter-inf window ends
# below 19 (at 17 for m = 3), so tuples count its balls, after a window pre-count from r = 19
CODE_CROSSOVER = {"lamplighter-inf": 19, "bs-inf": 16}


@dataclass(frozen=True)
class BallTable:
    """Closed ball of a given radius around the identity, with exact distances.

    ``elements`` lists the ball in BFS discovery order, so word lengths are
    nondecreasing along it: for a finite family it is the int32 array of
    ``CodeSpace`` codes (``ORDER_CAP`` keeps every code below 2^31), for an
    infinite one the BFS's map from each element to its word length.
    ``dist`` is that map for both kinds; a finite table decodes it from the
    codes the first time it is read.  The fields are what ``bfs_ball`` found;
    ``radius``, ``complete`` (the table covers the whole group) and ``gens``
    are read off them.  Equality compares spec and sphere sizes, not the
    elements they determine, so a finite table grown past its diameter equals
    the whole-group table.

    ``in_map`` and ``elements_at`` work on positions along ``elements``
    without decoding the ball.  A finite table reads them in ``position``, the
    BFS's zero-filled int32 array of each code's place along ``elements`` plus
    one (0 if never reached), read elsewhere only by ``embed``'s pair gaps,
    which index a ball's positions with it; a prefix ``ball(r)`` shares it
    and reads a place past its own length as absent.  An infinite table looks
    elements up in a dict.
    """

    spec: GroupSpec
    elements: np.ndarray | dict = field(compare=False, repr=False)
    sphere_sizes: tuple[int, ...]
    position: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def radius(self) -> int:
        return len(self.sphere_sizes) - 1

    @property
    def complete(self) -> bool:
        return self.spec.finite and len(self) == self.spec.order

    @cached_property
    def gens(self) -> tuple[Element, ...]:
        return generators(self.spec)

    @cached_property
    def dist(self) -> dict:
        if not self.spec.finite:
            return self.elements
        return dict(zip(code_space(self.spec).decode_many(self.elements), self.lengths().tolist()))

    def lengths(self) -> np.ndarray:
        """Word length of each entry of ``elements``, in order, in the narrowest
        unsigned dtype that holds the radius; arithmetic with it promotes exactly."""
        d = len(self.sphere_sizes)
        return np.repeat(np.arange(d, dtype=np.min_scalar_type(d)), self.sphere_sizes)

    @cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    def in_map(self, s: Element) -> np.ndarray:
        """The position in this ball of s^-1 x for each x along ``elements``,
        -1 where s^-1 x lies outside it."""
        spec = self.spec
        s_inv = inv(spec, s)
        if not spec.finite:
            index = self._index
            return np.fromiter((index.get(mul(spec, s_inv, x), -1) for x in self.elements),
                               dtype=np.int64)
        p = self.position[code_space(spec).act_left(s_inv, self.elements)]
        p -= 1  # in place: the gather is a fresh array
        return np.where(p < len(self), p, -1)

    def elements_at(self, positions) -> list[Element]:
        """The elements at the given integer positions along ``elements``."""
        at = np.asarray(positions)
        if at.size and not (at.dtype.kind in "iu" and at.min() >= 0 and at.max() < len(self)):
            raise BadParam(f"positions must be integers in 0..{len(self) - 1}")
        at = at.astype(np.int64)  # an empty list reads as float64
        if self.spec.finite:
            return code_space(self.spec).decode_many(self.elements[at])
        keys = list(self.elements)
        return [keys[i] for i in at.tolist()]

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
        return replace(self, elements=elements, sphere_sizes=self.sphere_sizes[: r + 1])


def bfs_ball(spec: GroupSpec, radius: int | None = None,
             cap: int = VERTEX_CAP) -> BallTable:
    """Enumerate the closed ball of the given radius (whole group if None),
    level by level, in FIFO discovery order: x * g for x in level order and g
    in generator order, first occurrence kept, one slice of a level at a time
    with the vertex cap checked after each, and once the identity is in.
    Infinite families run ``_tuple_bfs``.  Finite families step slices of
    ``CODE_SLICE`` codes with ``act_right``, which decodes only the digits a
    generator moves, into one code buffer of the group's order; ``position``
    records each code's place in it plus one, in zero-filled pages that only
    the ball's codes touch, so a small ball costs its size.

    The table's radius is the one asked for, unless a finite group is whole
    before it: then the BFS stops at the diameter, and the table equals
    ``bfs_ball(spec, None)``.
    """
    radius, cap = _ball_args(spec, radius, cap)
    if not spec.finite:
        return BallTable(spec, *_tuple_bfs(spec, radius, cap))

    gens, cs, sphere = generators(spec), code_space(spec), [1]
    codes = np.empty(spec.order, dtype=np.int32)
    position = np.zeros(spec.order, dtype=np.int32)
    codes[0] = cs.encode(identity(spec))
    position[codes[0]] = 1
    while len(sphere) - 1 != radius:
        size = end = sum(sphere)
        for lo in range(end - sphere[-1], end, CODE_SLICE):
            part = codes[lo:min(lo + CODE_SLICE, end)]
            cand = np.stack([cs.act_right(g, part) for g in gens], axis=1).ravel()
            cand = cand[position[cand] == 0]
            # np.minimum.at is unbuffered: each code keeps its first, most negative mark
            i = np.arange(-len(cand), 0, dtype=np.int32)
            np.minimum.at(position, cand, i)
            nxt = cand[position[cand] == i]
            codes[size:size + len(nxt)] = nxt
            position[nxt] = np.arange(size + 1, size + len(nxt) + 1, dtype=np.int32)
            size += len(nxt)
            if size > cap:
                raise CapExceeded(f"ball exceeds vertex cap {cap}")
        if size == end:
            break
        sphere.append(size - end)
    return BallTable(spec, codes[:sum(sphere)], tuple(sphere), position)


def _ball_args(spec: GroupSpec, radius: int | None, cap: int) -> tuple[int | None, int]:
    """The radius and cap ``bfs_ball`` is given, checked: an integer radius >= 0,
    present and at most ``INF_RADIUS_CAP`` on an infinite family, and a cap >= 1."""
    cap = int_param(cap, "cap")
    if radius is None:
        if not spec.finite:
            raise InfiniteNeedsRadius(f"{spec.family} needs an explicit radius")
    else:
        radius = int_param(radius)
        if radius < 0:
            raise BadParam(f"radius {radius} must be >= 0")
        if not spec.finite and radius > INF_RADIUS_CAP:
            raise CapExceeded(f"radius {radius} > {INF_RADIUS_CAP} on an infinite family")
    if cap < 1:  # the identity alone passes it
        raise CapExceeded(f"ball exceeds vertex cap {cap}")
    return radius, cap


def sphere_sizes(spec: GroupSpec, radius: int | None = None,
                 cap: int = VERTEX_CAP) -> tuple[int, ...]:
    """``bfs_ball(spec, radius, cap).sphere_sizes``, with the same checks and errors.

    A lamplighter-inf or bs-inf ball from the family's ``CODE_CROSSOVER``
    radius on is counted by ``_code_spheres`` on the codes of its ``_window``
    quotient, without building its table.  Past the last radius that has a
    window, that radius is counted first, so a cap it passes is refused on
    codes; every other ball is built by ``bfs_ball``.
    """
    radius, cap = _ball_args(spec, radius, cap)
    if spec.family in CODE_CROSSOVER and radius >= CODE_CROSSOVER[spec.family]:
        r = next((r for r in range(radius, -1, -1) if _window(spec, r)), None)
        sphere = None if r is None else _code_spheres(_window(spec, r), r, cap)
        if r == radius:
            return sphere
    return bfs_ball(spec, radius, cap).sphere_sizes


def _window(spec: GroupSpec, radius: int) -> GroupSpec | None:
    """The quotient C_m wr C_n or C_{m^n - 1} x| C_n, n = 2 radius + 1, of a
    lamplighter-inf or bs-inf spec, built past ``ORDER_CAP`` for int64 codes,
    or None once its order reaches 2^63.  Its shortest kernel word is t^n (one
    in the plane has length >= 2n - 1), so the projection maps the parent's
    radius ball one to one onto the quotient's, keeping word length, and
    their sphere sizes agree.
    """
    m, n, bs = spec.m, 2 * radius + 1, spec.family == "bs-inf"
    k = m**n - bs
    if k * n >= 1 << 63:
        return None
    return GroupSpec(spec.family.replace("inf", "fin"), m, n, q=k if bs else None, order=k * n)


def _code_spheres(quotient: GroupSpec, radius: int, cap: int) -> tuple[int, ...]:
    """The sphere sizes of the radius ball of a ``_window`` quotient, counted
    on its int64 codes: each generator steps a whole level through
    ``act_right``, and level d + 1 is the distinct steps of level d less
    levels d and d - 1, the only other spheres they can reach (``_new_codes``).
    The levels are sorted, not in BFS order.  ``cap`` bounds the running total
    as in ``bfs_ball``.
    """
    cs, gens = code_space(quotient), generators(quotient)
    level = np.array([cs.encode(identity(quotient))], dtype=np.int64)
    prev, sphere = np.empty(0, dtype=np.int64), [1]
    for _ in range(radius):
        prev, level = level, _new_codes(np.concatenate([cs.act_right(g, level) for g in gens]),
                                        (level, prev))
        sphere.append(len(level))
        if sum(sphere) > cap:
            raise CapExceeded(f"ball exceeds vertex cap {cap}")
    return tuple(sphere)


def _new_codes(cand: np.ndarray, seen) -> np.ndarray:
    """The distinct entries of ``cand`` that no sorted array of ``seen`` holds,
    in increasing order; sorts ``cand`` in place."""
    cand.sort()
    keep = np.empty(len(cand), dtype=bool)
    keep[:1] = True
    np.not_equal(cand[1:], cand[:-1], out=keep[1:])
    for old in seen:
        if len(old):
            # a candidate past the end of old reads its last entry
            keep &= old.take(np.searchsorted(old, cand), mode="clip") != cand
    return cand[keep]


def _tuple_bfs(spec: GroupSpec, radius: int, cap: int,
               cone: bool = False) -> tuple[dict[Element, int], tuple[int, ...]]:
    """The BFS of an infinite family: the map from each element of the radius
    ball to its word length, in discovery order, and the sphere sizes.  Levels
    step in slices of ``INF_SLICE // len(gens)`` elements through each
    generator's ``right_step`` map into ``dict.setdefault``, so the cap is
    checked after at most ``INF_SLICE`` insertions; an ``Overflow`` met once
    the map is past the cap reads as the cap, which the map hit first.

    ``cone`` (sol-inf) keeps only the time cone |t(x)| <= radius - |x|: a
    generator moves t by at most 1, so every geodesic to a cone element stays
    in it and the BFS reaches each at its word length; the ball's plane
    (t = 0) lies in it.
    """
    steps = [right_step(spec, g) for g in generators(spec)]
    dist: dict[Element, int] = {identity(spec): 0}
    sphere, width = [1], INF_SLICE // len(steps)
    # The map holds only tuples of ints, which the cyclic collector keeps
    # re-scanning but can never free: pause it while the levels grow.
    paused = gc.isenabled()
    gc.disable()
    try:
        for d in range(1, radius + 1):
            end, k = len(dist), radius - d
            level = list(islice(dist, end - sphere[-1], end))
            for lo in range(0, len(level), width):
                cand = chain.from_iterable(zip(*(map(st, level[lo:lo + width]) for st in steps)))
                if cone:
                    cand = (y for y in cand if -k <= y[1] <= k)
                try:
                    deque(map(dist.setdefault, cand, repeat(d)), maxlen=0)
                except Overflow:
                    if len(dist) <= cap:
                        raise
                if len(dist) > cap:
                    raise CapExceeded(f"ball exceeds vertex cap {cap}")
            sphere.append(len(dist) - end)
    finally:
        if paused:
            gc.enable()
    return dist, tuple(sphere)


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
    diam_N = None
    if spec.family == "sol-fin":
        diam_N = kernel_diameter(table)
    return DiameterReport(spec=spec, diameter=table.radius, diam_N=diam_N)


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
    """Per-radius extremes of log-norm over the plane subgroup, plus fit.

    ``r_max`` of the report is the radius asked for, or the diameter of a
    finite group reached before it.  A finite scan builds the ball, reads the
    sup norms off the digits of its time-0 codes, the plane subgroup, and
    takes their extremes per word length in numpy.  An infinite one reads the
    map of ``_tuple_bfs`` confined to the time cone, so ``cap`` bounds the
    cone's elements there, not the ball's.
    """
    if spec.family not in ("sol-fin", "sol-inf"):
        raise FamilyMismatch(f"exponential-kernel scan needs a sol family, got {spec.family}")
    r_max = int_param(r_max, "r_max")
    if r_max < 1:
        raise BadParam(f"r_max {r_max} must be >= 1")
    if spec.family == "sol-inf" and r_max > 20:
        raise CapExceeded(f"r_max {r_max} > 20 on the infinite family")

    extremes: dict[int, tuple[int, int]] = {}
    if spec.finite:
        table = bfs_ball(spec, r_max, cap=cap)
        r_max = table.radius
        cs, n = code_space(spec), spec.n
        t, _ = cs.split(table.elements)
        plane = t == 0
        (v1, v2), _ = cs.payload(table.elements[plane])
        norm = np.maximum(np.minimum(v1, n - v1), np.minimum(v2, n - v2))
        d = table.lengths()[plane]
        lo, hi = np.full(len(table.sphere_sizes), n), np.full(len(table.sphere_sizes), -1)
        np.minimum.at(lo, d, norm)
        np.maximum.at(hi, d, norm)
        extremes = {r: (int(lo[r]), int(hi[r])) for r in range(1, len(hi)) if hi[r] >= 0}
    else:
        for x, d in _tuple_bfs(spec, r_max, int_param(cap, "cap"), cone=True)[0].items():
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
