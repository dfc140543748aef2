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
the constant vector and no randomness is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cayley import BallTable, bfs_ball
from .errors import (
    BadParam,
    BadScale,
    DegenerateInput,
    NoConvergence,
    ZeroGradient,
    ZeroNorm,
)
from .groups import Element, GroupSpec, generators, identity, int_param, inv, mul

DIRICHLET_TOL = 1e-10  # eigensolver tolerance, also the residual bound checked after it
DIRICHLET_MAXITER = 10**4
ASCENT_MAXITER = 500  # ascent steps after the Dirichlet start
SOFTMAX_KAPPA = 50.0  # inverse temperature of the ascent's weights over generators


def lp_norm(values, p: float) -> float:
    """lp norm with max-factoring so large supports cannot overflow."""
    vals = [abs(v) for v in values]
    m = max(vals, default=0.0)
    if m == 0.0:
        return 0.0
    if p == 1:
        return math.fsum(vals)
    return m * math.fsum((v / m) ** p for v in vals) ** (1.0 / p)


def translate_gap(spec: GroupSpec, f: dict, g: Element) -> dict:
    """f - lambda(g)f for sparse f, where (lambda(g)f)(x) = f(g^-1 x)."""
    diff = {mul(spec, g, x): -v for x, v in f.items()}
    for x, v in f.items():
        diff[x] = diff.get(x, 0.0) + v
    return diff


def _norm_and_gradients(spec: GroupSpec, f: dict, p: float):
    """|f|_p and |f - lambda(s)f|_p for each generator s, by tuple arithmetic."""
    norm = lp_norm(f.values(), p)
    if norm == 0.0:
        raise ZeroNorm("test function is identically zero")
    grads = [lp_norm(translate_gap(spec, f, s).values(), p) for s in generators(spec)]
    if max(grads) == 0.0:
        raise ZeroGradient("all generator differences vanish")
    return norm, grads


def rayleigh(spec: GroupSpec, f: dict, p: float):
    """(max_form, sum_form) Rayleigh values of a finitely supported function."""
    norm, grads = _norm_and_gradients(spec, f, p)
    return norm / max(grads), norm / lp_norm(grads, p)


def dirichlet_pc(ball: BallTable, in_maps) -> np.ndarray:
    """Principal vector of the Dirichlet quadratic form on the ball, by
    position along it; ``in_maps`` is ``[ball.in_map(s) for s in ball.gens]``.

    Maximizes the p = 2 sum-form Rayleigh value over functions vanishing
    outside the ball: the top eigenvector of the ball-restricted adjacency
    with multiplicities, computed from the deterministic constant start.
    """
    if ball.complete:
        raise DegenerateInput("ball covers the whole group; constants have zero gradient")
    n = len(ball)
    if n == 1:
        return np.ones(1)
    # imported here: scipy.sparse is most of the import time, and only this solve uses it
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    # W[i, j] counts the generators s with s^-1 x_i = x_j
    neighbors = np.stack(in_maps, axis=1)
    rows, cols = np.nonzero(neighbors >= 0)
    W = csr_matrix((np.ones(len(rows)), (rows, neighbors[rows, cols])), shape=(n, n))

    v0 = np.full(n, 1.0 / math.sqrt(n))
    try:
        theta, vec = eigsh(W, k=1, which="LA", v0=v0, tol=DIRICHLET_TOL,
                           maxiter=DIRICHLET_MAXITER)
    except ArpackNoConvergence as exc:
        raise NoConvergence(
            f"Dirichlet eigensolve stalled after {DIRICHLET_MAXITER} iterations") from exc
    v = np.abs(vec[:, 0])
    # ARPACK stops once |W v - theta v| <= tol |theta|; re-measure it on |v|
    residual = float(np.linalg.norm(W @ v - theta[0] * v))
    if residual > DIRICHLET_TOL * max(1.0, abs(float(theta[0]))):
        raise NoConvergence(f"Dirichlet residual {residual:.3e} above tol {DIRICHLET_TOL:.3e}")
    v /= np.linalg.norm(v)
    return v


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


def _grad_pows(v, p, in_maps, escapes):
    """d_s^p for each generator, on the array representation."""
    out = []
    for im, esc in zip(in_maps, escapes):
        g = np.where(im >= 0, v[im], 0.0)
        out.append(float(np.sum(np.abs(g - v) ** p) + np.sum(np.abs(v[esc]) ** p)))
    return out


def _max_form(v, p, in_maps, escapes):
    dmax = max(_grad_pows(v, p, in_maps, escapes)) ** (1.0 / p)
    if dmax == 0.0:
        raise ZeroGradient("all generator differences vanish")
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p)) / dmax


def optimize_profile(ball: BallTable, p: float) -> TestVector:
    """Ascend the max-form Rayleigh value over functions on the ball, from
    its Dirichlet principal vector.

    The certificate radius is ball.radius + 1 (the smallest open ball
    containing the support).  Never returns less than the dirac witness.
    """
    if not 1 <= p < math.inf:
        raise BadParam(f"exponent p = {p} outside [1, inf)")
    spec = ball.spec
    radius = ball.radius + 1

    in_maps, escapes = _structure(ball)
    v = dirichlet_pc(ball, in_maps)
    norm = float(np.sum(np.abs(v) ** p) ** (1.0 / p))
    if norm == 0.0:
        raise ZeroNorm("initial vector is identically zero")
    v /= norm

    best_v = v.copy()
    best_val = _max_form(v, p, in_maps, escapes)
    step = 0.5
    converged = False
    for _ in range(ASCENT_MAXITER):
        dpows = _grad_pows(v, p, in_maps, escapes)
        dmaxp = max(dpows)
        weights = np.exp(SOFTMAX_KAPPA * (np.array(dpows) / dmaxp - 1.0))
        weights /= weights.sum()

        vp = np.abs(v) ** (p - 1.0) * np.sign(v)
        grad = vp / float(np.sum(np.abs(v) ** p))
        for w, im, esc, dsp in zip(weights, in_maps, escapes, dpows):
            if dsp == 0.0 or w == 0.0:
                continue
            g = np.where(im >= 0, v[im], 0.0)
            u = g - v
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
                val = _max_form(cand, p, in_maps, escapes)
                if val > best_val * (1.0 + 1e-13):
                    v = cand
                    best_v, best_val = cand.copy(), val
                    improved = True
                    step *= 1.5
                    break
            step *= 0.5
        if not improved:
            converged = True
            break

    dirac_val = 2.0 ** (-1.0 / p)
    if best_val < dirac_val - 1e-15:
        f = {identity(spec): dirac_val}
        return TestVector(spec=spec, radius=radius, p=p, values=f,
                          certified_J=dirac_val, gradient_max=1.0, converged=True)

    gmax = max(_grad_pows(best_v, p, in_maps, escapes)) ** (1.0 / p)
    support = np.flatnonzero(best_v)
    values = dict(zip(ball.elements_at(support), (best_v[support] / gmax).tolist()))
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
    radii = sorted(set(map(int_param, radii)))
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
    diam = len(table.sphere_sizes) - 1
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
    c_hat = max((r / j for r, j in in_range), default=None) if in_range else None
    return ProfileCurve(spec=spec, p=p, points=tuple(points),
                        vectors=tuple(vectors), C_hat=c_hat, diameter=diam)


def revalidate(tv: TestVector) -> dict:
    """Recompute a certificate's claims from scratch, on a fresh BFS of its open ball.

    Returns support_ok (support inside the open ball), gradient_max, and
    max_form; callers compare against the stored fields.
    """
    ball = bfs_ball(tv.spec, tv.radius - 1)
    support_ok = all(x in ball.dist for x in tv.values)
    norm, grads = _norm_and_gradients(tv.spec, tv.values, tv.p)
    return {"support_ok": support_ok, "gradient_max": max(grads),
            "max_form": norm / max(grads)}
