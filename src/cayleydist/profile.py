"""Certified lower bounds for the lp isoperimetric profile in balls.

The profile value at radius r is the supremum over functions f supported in
the open ball B(1, r) of ``|f|_p / max_s |lambda(s)f - f|_p``, where lambda is
the left regular representation.  Any feasible f certifies a lower bound, so
the optimizer below never needs to be trusted: every returned TestVector is
re-validated by direct recomputation of its Rayleigh value.

Pipeline: a p = 2 Dirichlet principal vector bootstraps a projected ascent on
log of the max-form Rayleigh quotient (softmax-smoothed subgradient of the max
over generators, step halving).  Falls back to the dirac witness 2^(-1/p) when
ascent cannot beat it.  Everything is deterministic: the bootstrap starts from
the constant vector, and the random vectors ARPACK may ask for when it
restarts are numpy's ``default_rng(ARPACK_SEED).uniform(-1, 1)`` draws,
computed here in Python integers (``_restart_stream``) so that numpy.random
is never imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat

from ._lazy import arpack, np
from .cayley import BallTable, bfs_ball  # bfs_ball: the name perfbench's tracer rebinds here
from .errors import (
    BadParam,
    BadScale,
    DegenerateInput,
    NoConvergence,
    ZeroGradient,
    ZeroNorm,
)
from .groups import (GroupSpec, generators, identity, int_param, inv, left_step,
                     real_param)

DIRICHLET_TOL = 1e-10  # eigensolver tolerance, also the residual bound checked after it
DIRICHLET_MAXITER = 10**4
ASCENT_MAXITER = 500  # ascent steps after the Dirichlet start
SOFTMAX_KAPPA = 50.0  # inverse temperature of the ascent's weights over generators
ARPACK_NCV = 20  # Lanczos basis size, eigsh's max(2k + 1, 20) for k = 1
ARPACK_LA = 6  # ARPACK's code for which="LA", the largest algebraic eigenvalue
ARPACK_SEED = 0  # numpy's seed for the vectors ARPACK asks for when it restarts at random
# the 128-bit state and increment of numpy's PCG64 after default_rng(ARPACK_SEED)
PCG64_STATE = 35399562948360463058890781895381311971
PCG64_INC = 87136372517582989555478159403783844777
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
# the state dict of scipy's ARPACK wrappers: every key must be present, zero at start
_ARPACK_FLOATS = ("getv0_rnorm0", "aitr_betaj", "aitr_rnorm1", "aitr_wnorm", "aup2_rnorm")
_ARPACK_INTS = ("ido", "bmat", "iter", "nconv", "np", "getv0_first", "getv0_iter",
                "getv0_itry", "getv0_orth", "aitr_iter", "aitr_j", "aitr_orth1", "aitr_orth2",
                "aitr_restart", "aitr_step3", "aitr_step4", "aitr_ierr", "aup2_initv",
                "aup2_iter", "aup2_getv0", "aup2_cnorm", "aup2_kplusp", "aup2_nev",
                "aup2_nev0", "aup2_np0", "aup2_numcnv", "aup2_update", "aup2_ushift")


def lp_norm(values, p: float) -> float:
    """lp norm with max-factoring so large supports cannot overflow."""
    if not 1 <= real_param(p, "exponent p") < math.inf:
        raise BadParam(f"exponent p = {p} outside [1, inf)")
    vals = [abs(v) for v in values]
    m = max(vals, default=0.0)
    if m == 0.0:
        return 0.0
    if p == 1:
        return math.fsum(vals)
    return m * math.fsum((v / m) ** p for v in vals) ** (1.0 / p)


def translate_gaps(spec: GroupSpec, f: dict, gs):
    """The values of f - lambda(g)f for sparse f and each g in ``gs``, where
    (lambda(g)f)(x) = f(g^-1 x), as float lists in no set order.

    One index of the support serves every g: each x in it is stepped to g x
    by ``left_step`` and looked up.  A gap lists f(y) - f(g^-1 y) at each y
    of the support, then -f(x) for each x whose g x falls outside it.
    """
    index = {x: i for i, x in enumerate(f)}
    v = np.fromiter(f.values(), dtype=float, count=len(f))
    for g in gs:
        j = np.fromiter(map(index.get, map(left_step(spec, g), f), repeat(-1)),
                        dtype=np.intp, count=len(f))
        hit = j >= 0
        gap = v.copy()
        gap[j[hit]] -= v[hit]  # left multiplication is injective: each y once
        yield gap.tolist() + (-v[~hit]).tolist()


def _norm_and_gradients(spec: GroupSpec, f: dict, p: float):
    """|f|_p and |f - lambda(s)f|_p for each generator s, by tuple arithmetic."""
    norm = lp_norm(f.values(), p)
    if norm == 0.0:
        raise ZeroNorm("test function is identically zero")
    grads = [lp_norm(gap, p) for gap in translate_gaps(spec, f, generators(spec))]
    if max(grads) == 0.0:
        raise ZeroGradient("all generator differences vanish")
    return norm, grads


def rayleigh(spec: GroupSpec, f: dict, p: float):
    """(max_form, sum_form) Rayleigh values of a finitely supported function."""
    norm, grads = _norm_and_gradients(spec, f, p)
    return norm / max(grads), norm / lp_norm(grads, p)


def _restart_stream():
    """numpy's ``default_rng(ARPACK_SEED).uniform(-1.0, 1.0)`` draws, one
    float at a time, bit for bit, without importing numpy.random.

    PCG64 steps its 128-bit state as state * MULT + inc and outputs the
    XSL-RR word of the new state: the xor of its halves rotated right by its
    top 6 bits.  A double is the word's top 53 bits times 2^-53, and
    ``uniform`` maps it to -1.0 + 2.0 * double.
    """
    state, mask64 = PCG64_STATE, (1 << 64) - 1
    while True:
        state = (state * PCG64_MULT + PCG64_INC) & ((1 << 128) - 1)
        word, rot = ((state >> 64) ^ state) & mask64, state >> 122
        word = ((word >> rot) | (word << (-rot & 63))) & mask64
        yield -1.0 + 2.0 * ((word >> 11) * 2.0 ** -53)


def _adjacency_matvec(in_maps, n: int):
    """x -> W x for the ball's adjacency W (``W[i, j]`` = 1 when s^-1 x_i = x_j
    for a generator s), in exactly the arithmetic of scipy's CSR product.

    No row meets a neighbour twice: the generators are distinct, and
    s^-1 x = s'^-1 x gives s = s'.  So each row's neighbour positions are
    added in increasing order from +0.0: row k of ``cols`` holds every row's
    k-th neighbour, and ``np.add.reduce`` over axis 0 adds those rows in
    order.  A row with fewer neighbours reads a padding entry of +0.0, which
    leaves a sum begun at +0.0 unchanged, as such a sum is never -0.0.
    """
    cols = np.sort(np.stack([np.where(im >= 0, im, n) for im in in_maps]), axis=0)
    padded = np.zeros(n + 1)

    def matvec(x):
        padded[:n] = x
        return np.add.reduce(padded.take(cols), axis=0, initial=0.0)

    return matvec


def dirichlet_pc(ball: BallTable, in_maps) -> np.ndarray:
    """Principal vector of the Dirichlet quadratic form on the ball, by
    position along it; ``in_maps`` is ``[ball.in_map(s) for s in ball.gens]``,
    whose generators are distinct.

    Maximizes the p = 2 sum-form Rayleigh value over functions vanishing
    outside the ball: the top eigenvector of the ball-restricted adjacency,
    computed from the deterministic constant start.  ARPACK's implicitly
    restarted Lanczos (``dsaupd``/``dseupd``) is driven as scipy's
    ``eigsh(W, k=1, which="LA")`` drives it, with the same workspaces, so the
    bits match.  Its requests for a random vector take the next n draws of
    ``_restart_stream``, as eigsh's ``rng=ARPACK_SEED`` generator would give them.
    """
    if ball.complete:
        raise DegenerateInput("ball covers the whole group; constants have zero gradient")
    n = len(ball)
    if n == 1:
        return np.ones(1)
    lib = arpack()
    matvec = _adjacency_matvec(in_maps, n)
    ncv = min(ARPACK_NCV, n)
    state = {**dict.fromkeys(_ARPACK_FLOATS, 0.0), **dict.fromkeys(_ARPACK_INTS, 0),
             "tol": DIRICHLET_TOL, "which": ARPACK_LA, "info": 1,  # info 1: start from resid
             "maxiter": DIRICHLET_MAXITER, "mode": 1, "n": n, "ncv": ncv, "nev": 1, "shift": 1}
    resid = np.full(n, 1.0 / math.sqrt(n))
    lanczos = np.zeros((n, ARPACK_NCV))
    ipntr = np.zeros(11, dtype=np.int32)
    workd = np.zeros(3 * n)
    workl = np.zeros(ncv * (ncv + 8))
    restarts = _restart_stream()
    while True:
        lib.dsaupd_wrap(state, resid, lanczos, ipntr, workd, workl)
        ido = state["ido"]
        if ido in (1, 5):
            x, y = int(ipntr[0]), int(ipntr[1])
            workd[y:y + n] = matvec(workd[x:x + n])
        elif ido == 4:
            resid[:] = np.fromiter(restarts, dtype=float, count=n)
        else:  # 99: done, or stopped with a nonzero info
            break
    _arpack_check(state, "dsaupd")
    theta = np.zeros(1)
    vec = np.zeros((n, ncv), order="F")
    state["info"] = 0
    lib.dseupd_wrap(state, True, 0, np.zeros(ncv, dtype=np.int32), theta, vec, 0,
                    resid, lanczos, ipntr, workd, workl)  # rvec, all Ritz vectors, sigma 0
    _arpack_check(state, "dseupd")
    theta = float(theta[0])
    v = np.abs(vec[:, 0])
    # ARPACK stops once |W v - theta v| <= tol |theta|; re-measure it on |v|
    residual = math.sqrt(float(np.sum((matvec(v) - theta * v) ** 2)))
    if residual > DIRICHLET_TOL * max(1.0, abs(theta)):
        raise NoConvergence(f"Dirichlet residual {residual:.3e} above tol {DIRICHLET_TOL:.3e}")
    return v


def _arpack_check(state: dict, routine: str) -> None:
    """NoConvergence for a nonzero ``info`` from an ARPACK call."""
    info = state["info"]
    if info == 1 and routine == "dsaupd":
        raise NoConvergence(
            f"Dirichlet eigensolve stalled after {DIRICHLET_MAXITER} iterations")
    if info != 0:
        raise NoConvergence(f"Dirichlet eigensolve: ARPACK {routine} returned info {info}")


@dataclass(frozen=True)
class TestVector:
    """A feasible profile witness: support inside the open ball of ``radius``,
    normalized so the worst generator gradient is 1, making ``certified_J``
    simply the lp norm of the values.
    """

    spec: GroupSpec
    radius: int
    p: float
    values: dict
    certified_J: float
    gradient_max: float
    converged: bool


def _structure(ball: BallTable):
    """Per generator s, the in-map i -> position of s^-1 x_i (-1 outside the
    ball) and the escape mask {s x_i outside the ball}, which is the in-map of
    s^-1 < 0: the generating set is symmetric.
    """
    in_maps = [ball.in_map(s) for s in ball.gens]
    escapes = [in_maps[ball.gens.index(inv(ball.spec, s))] < 0 for s in ball.gens]
    return in_maps, escapes


def _measure(v, p, in_maps, escapes):
    """The max-form Rayleigh value of v, then d_s^p and lambda(s)v - v inside
    the ball for each generator s, on the array representation."""
    dpows, diffs = [], []
    for im, esc in zip(in_maps, escapes):
        u = np.where(im >= 0, v[im], 0.0) - v
        dpows.append(float(np.sum(np.abs(u) ** p) + np.sum(np.abs(v[esc]) ** p)))
        diffs.append(u)
    dmax = max(dpows) ** (1.0 / p)
    if dmax == 0.0:
        raise ZeroGradient("all generator differences vanish")
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p)) / dmax, dpows, diffs


def optimize_profile(ball: BallTable, p: float) -> TestVector:
    """Ascend the max-form Rayleigh value over functions on the ball, from
    its Dirichlet principal vector.

    The certificate radius is ball.radius + 1 (the smallest open ball
    containing the support).  Never returns less than the dirac witness.
    """
    if not 1 <= real_param(p, "exponent p") < math.inf:
        raise BadParam(f"exponent p = {p} outside [1, inf)")
    spec = ball.spec
    radius = ball.radius + 1

    in_maps, escapes = _structure(ball)
    v = dirichlet_pc(ball, in_maps)
    norm = float(np.sum(np.abs(v) ** p) ** (1.0 / p))
    if norm == 0.0:
        raise ZeroNorm("initial vector is identically zero")
    v /= norm

    val, dpows, diffs = _measure(v, p, in_maps, escapes)
    step = 0.5
    converged = False
    for _ in range(ASCENT_MAXITER):
        dmaxp = max(dpows)
        weights = np.exp(SOFTMAX_KAPPA * (np.array(dpows) / dmaxp - 1.0))
        weights /= weights.sum()

        vp = np.abs(v) ** (p - 1.0) * np.sign(v)
        grad = vp / float(np.sum(np.abs(v) ** p))
        for w, im, esc, dsp, u in zip(weights, in_maps, escapes, dpows, diffs):
            if dsp == 0.0 or w == 0.0:
                continue
            up = np.abs(u) ** (p - 1.0) * np.sign(u)
            part = -up
            np.add.at(part, im[im >= 0], up[im >= 0])
            part[esc] += np.abs(v[esc]) ** (p - 1.0) * np.sign(v[esc])
            grad = grad - (w / dsp) * part

        improved = False
        while step > 1e-9:
            cand = v + step * grad
            cnorm = float(np.sum(np.abs(cand) ** p) ** (1.0 / p))
            if cnorm > 0.0:
                cand /= cnorm
                measured = _measure(cand, p, in_maps, escapes)
                if measured[0] > val * (1.0 + 1e-13):
                    v = cand
                    val, dpows, diffs = measured
                    improved = True
                    step *= 1.5
                    break
            step *= 0.5
        if not improved:
            converged = True
            break

    dirac_val = 2.0 ** (-1.0 / p)
    if val < dirac_val - 1e-15:
        f = {identity(spec): dirac_val}
        return TestVector(spec=spec, radius=radius, p=p, values=f,
                          certified_J=dirac_val, gradient_max=1.0, converged=True)

    gmax = max(dpows) ** (1.0 / p)
    support = np.flatnonzero(v)
    values = dict(zip(ball.elements_at(support), (v[support] / gmax).tolist()))
    # re-checked by tuple arithmetic, independently of the ascent's index maps
    norm, grads = _norm_and_gradients(spec, values, p)
    return TestVector(spec=spec, radius=radius, p=p, values=values,
                      certified_J=norm / max(grads), gradient_max=max(grads),
                      converged=converged)


@dataclass(frozen=True)
class ProfileCurve:
    """Certified profile lower bounds at increasing radii, monotonized by
    carrying the best witness forward.  C_hat = max r / J(r) over the points
    with 2 <= r <= diameter / 2, the measured linear-profile constant.
    """

    spec: GroupSpec
    p: float
    points: tuple[tuple[int, float], ...]
    vectors: tuple[TestVector, ...]
    C_hat: float | None
    diameter: int


def checked_radii(radii) -> list[int]:
    """The distinct radii in increasing order; none, a non-integer or one below 1 refused."""
    try:
        items = iter(radii)
    except TypeError:
        raise BadParam(f"radii {radii!r} must be an iterable of integers") from None
    radii = sorted(set(map(int_param, items)))
    if not radii:
        raise BadParam("no radii given")
    if radii[0] < 1:
        raise BadParam(f"radius {radii[0]} must be >= 1")
    return radii


def profile_curve(table: BallTable, p: float, radii) -> ProfileCurve:
    """One certificate per radius on a complete table; radii above diameter/2 refused."""
    spec = table.spec
    if not table.complete:
        raise BadParam(f"profile curves need a complete table, got radius {table.radius}")
    radii = checked_radii(radii)
    diam = table.radius
    if radii[-1] > diam / 2:
        raise BadScale(f"radius {radii[-1]} exceeds diameter/2 = {diam / 2}")

    points, vectors = [], []
    best: TestVector | None = None
    for r in radii:
        tv = optimize_profile(table.ball(r - 1), p)
        if best is not None and tv.certified_J < best.certified_J:
            tv = replace(best, radius=r)
        best = tv
        points.append((r, tv.certified_J))
        vectors.append(tv)

    in_range = [(r, j) for r, j in points if 2 <= r <= diam / 2]
    c_hat = max((r / j for r, j in in_range), default=None)
    return ProfileCurve(spec=spec, p=p, points=tuple(points),
                        vectors=tuple(vectors), C_hat=c_hat, diameter=diam)


def _inside(spec: GroupSpec, support, radius: int) -> bool:
    """Whether every element of ``support`` has word length below ``radius``:
    a BFS by tuple left steps, stopped once it has met them all."""
    steps = [left_step(spec, s) for s in generators(spec)]
    ball = level = {identity(spec)}
    missing = set(support) - ball
    for _ in range(radius - 1):
        if not missing:
            break
        level = {step(x) for x in level for step in steps} - ball
        ball |= level
        missing -= level
    return radius > 0 and not missing


def revalidate(tv: TestVector) -> dict:
    """Recompute a certificate's claims from scratch, in tuple arithmetic alone.

    Returns support_ok (support inside the open ball, by a fresh BFS),
    gradient_max, and max_form; callers compare against the stored fields.
    """
    support_ok = _inside(tv.spec, tv.values, tv.radius)
    norm, grads = _norm_and_gradients(tv.spec, tv.values, tv.p)
    return {"support_ok": support_ok, "gradient_max": max(grads),
            "max_form": norm / max(grads)}
