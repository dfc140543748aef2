"""Distortion measurement, equivariant and pairwise, and a heuristic
Euclidean-distortion oracle for tiny metric spaces.

Equivariant embeddings reduce distortion at scale R to a one-variable sup over
group elements (norms against word lengths), so the group path never stores
pairwise data.  The generic path brute-forces pairs of materialized points.
The c2 oracle solves minimize T subject to Q PSD and
d(i,j)^2 <= Q_ii + Q_jj - 2 Q_ij <= T d(i,j)^2 by bisection on T with
alternating projections between the PSD cone and the per-pair slabs.  A T is
feasible when the projections reach a residual of C2_RESID_TOL, and counted
infeasible when they stagnate or hit the C2_SWEEPS cap.  That second verdict
proves nothing, so the bracket's lower end is no certified lower bound, and
the result depends on the warm starts: relabelling the points of an 8-point
metric moved the value by as much as 6.5e-3 relative.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from ._lazy import np
from .cayley import CODE_SLICE, BallTable
from .embed import EmbeddingBundle, embed_norms_all
from .errors import BadParam, BadScale, DegenerateInput, NoConvergence, ZeroNorm
from .groups import code_space, identity, real_param, to_string

C2_CAP = 16
C2_SWEEPS = 1500  # alternating projections per feasibility test
C2_RESID_TOL = 1e-9  # residual that counts as feasible


@dataclass(frozen=True)
class DistortionReport:
    """Measured distortion at scale R.

    expansion = sup ||F(x) - F(y)|| / d(x, y) and contraction = sup of the
    reciprocal ratio, both over pairs with 0 < d <= R; dist is their product.
    Witnesses are (x, y) pairs attaining the sups, the lexicographically
    smallest among pairs whose computed ratios are the same float; the
    equivariant path reports (identity, g).  Pairs that tie only in exact
    arithmetic, such as (identity, g) and (identity, g^-1), are told apart by
    rounding, so the order of floating-point operations picks between them.
    """

    R: float
    expansion: float
    contraction: float
    dist: float
    witness_expand: tuple
    witness_contract: tuple


class MetricTable:
    """Validated finite metric space.

    The matrix must be symmetric with zero diagonal, positive off the
    diagonal, and satisfy the triangle inequality within 1e-9.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        if not _numeric(matrix):
            raise BadParam("distance matrix must be numeric: every entry an int or a float")
        try:
            D = np.array(matrix, dtype=float)
        except (TypeError, ValueError) as exc:
            raise BadParam(f"distance matrix must be numeric: {exc}") from None
        if not np.isfinite(D).all():
            raise BadParam("distances must be finite")
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise BadParam(f"distance matrix must be square, got {D.shape}")
        n = D.shape[0]
        if not np.allclose(D, D.T, atol=1e-12):
            raise BadParam("distance matrix must be symmetric")
        if np.abs(np.diag(D)).max(initial=0.0) != 0.0:
            raise BadParam("distance matrix must have zero diagonal")
        off = D[~np.eye(n, dtype=bool)]
        if off.size and off.min() <= 0.0:
            raise BadParam("off-diagonal distances must be positive")
        with np.errstate(over="ignore"):  # a sum past the float max is inf, never exceeded
            for k in range(n):
                if (D > D[:, k, None] + D[None, k, :] + 1e-9).any():
                    raise BadParam(f"triangle inequality fails through point {k}")
        D.setflags(write=False)
        self.matrix = D

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __len__(self) -> int:
        return self.n


def _numeric(x) -> bool:
    """Whether x is an int or a float, an int or float array, or a list or tuple
    of such: ``np.array(x, dtype=float)`` reads "1" and True as 1.0."""
    if isinstance(x, (list, tuple)):
        return all(map(_numeric, x))
    return (x.dtype.kind in "iuf" if isinstance(x, np.ndarray)
            else isinstance(x, numbers.Real) and not isinstance(x, bool))


def _as_metric(metric) -> MetricTable:
    return metric if isinstance(metric, MetricTable) else MetricTable(metric)


def metric_from_table(table: BallTable) -> MetricTable:
    """Word metric of a fully enumerated group as a MetricTable, the points in
    BFS order: row i holds the lengths at ``table.in_map(x_i)``, of x_i^-1 x_j."""
    if not table.complete:
        raise BadParam("metric extraction needs a complete enumeration")
    lengths = table.lengths()
    return MetricTable([lengths[table.in_map(x)]
                        for x in code_space(table.spec).decode_many(table.elements)])


def distortion_equivariant(bundle: EmbeddingBundle, R: float | None = None) -> DistortionReport:
    """Distortion of the bundle's embedding over the whole group at scale R.

    R defaults to the diameter of the bundle's table, making the result the
    unrestricted distortion.  Norms, lengths and both ratios are read over
    the ball in slices of ``CODE_SLICE`` elements, carrying each running max
    with the codes that reach it, so no ball-sized float array is made.
    """
    table = bundle.table
    spec = bundle.spec
    if R is None:
        R = table.radius
    if not real_param(R, "scale R") >= 1:
        raise BadParam(f"scale R = {R} must be >= 1")
    if R > table.radius:
        raise BadScale(f"scale R = {R} exceeds diameter {table.radius}")

    cs = code_space(spec)
    ball = table.ball(math.floor(R))  # the elements with |g| <= R, in BFS order
    all_norms = embed_norms_all(bundle)
    lengths = ball.lengths()
    collapsed = []
    expand, contract = (-math.inf, []), (-math.inf, [])  # running max, codes reaching it
    for lo in range(1, len(ball), CODE_SLICE):  # position 0 is the identity
        codes = ball.elements[lo:lo + CODE_SLICE]
        norms = all_norms[codes]
        if (norms == 0.0).any():
            collapsed.append(codes[norms == 0.0].min())
        if collapsed:
            continue
        part = lengths[lo:lo + CODE_SLICE]
        expand = _running_top(*expand, norms / part, codes)
        contract = _running_top(*contract, part / norms, codes)
    if collapsed:
        bad = cs.decode(int(min(collapsed)))
        raise ZeroNorm(f"embedding collapses {to_string(spec, bad)}")
    (expansion, g_exp), (contraction, g_con) = (
        (top, min(cs.decode_many(np.concatenate(at)))) for top, at in (expand, contract))
    e = identity(spec)
    return DistortionReport(R=float(R), expansion=float(expansion),
                            contraction=float(contraction),
                            dist=float(expansion * contraction),
                            witness_expand=(e, g_exp), witness_contract=(e, g_con))


def _running_top(top, at: list, ratios: np.ndarray, codes: np.ndarray):
    """The max of ``top`` and ``ratios``, with the list of code arrays that
    reach it: ``at`` for ``top``, plus the codes at ``ratios``' own max."""
    m = ratios.max()
    if m > top:
        return m, [codes[ratios == m]]
    if m == top:
        at.append(codes[ratios == m])
    return top, at


def distortion_pairwise(points, metric, p: float = 2.0,
                        R: float | None = None) -> DistortionReport:
    """Brute-force distortion of materialized points against a metric."""
    M = _as_metric(metric)
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[0] != M.n:
        raise BadParam(f"{M.n} metric points but point array of shape {X.shape}")
    D = M.matrix
    if not 1 <= real_param(p, "exponent p") < math.inf:
        raise BadParam(f"exponent p = {p} outside [1, inf)")
    if R is None:
        R = float(D.max())
    if not real_param(R, "scale R") > 0:
        raise BadParam(f"scale R = {R} must be positive")

    expansion = contraction = -math.inf
    w_exp = w_con = None
    for i in range(M.n):
        for j in range(i + 1, M.n):
            d = D[i, j]
            if d > R:
                continue
            emb = float(np.sum(np.abs(X[i] - X[j]) ** p) ** (1.0 / p))
            if emb == 0.0:
                raise DegenerateInput(f"points {i} and {j} coincide at distance {d}")
            if emb / d > expansion:
                expansion, w_exp = emb / d, (i, j)
            if d / emb > contraction:
                contraction, w_con = d / emb, (i, j)
    if w_exp is None:
        raise DegenerateInput(f"no pairs at positive distance within R = {R}")
    return DistortionReport(R=float(R), expansion=expansion, contraction=contraction,
                            dist=expansion * contraction,
                            witness_expand=w_exp, witness_contract=w_con)


@dataclass(frozen=True)
class C2Result:
    """Euclidean distortion of a tiny metric, as the heuristic oracle finds it.

    value = sqrt of the smallest T the bisection found feasible; gram is the
    PSD part of the Gram matrix it reached there, in the metric's units.
    bracket is the final (lo, hi) interval of T = value**2.  lo is the last T
    counted infeasible, by stagnation or the sweep cap, not a proven lower
    bound: the true c2 can lie below sqrt(lo), and relabelling the points can
    move value by several 1e-3 relative while the bracket, at the default
    tol, is under 1e-12 wide.
    """

    value: float
    gram: np.ndarray
    bracket: tuple[float, float]


def _project_feasible(D2: np.ndarray, T: float, Q0: np.ndarray):
    """Alternating projections onto {PSD} and the per-pair slabs.

    Returns (feasible, Q).  Feasible means the residual fell to C2_RESID_TOL.
    Infeasible means only that it did not: 150 sweeps without a 0.5% gain, or
    the C2_SWEEPS cap, so a False is a heuristic verdict and no proof.
    Each sweep decomposes the symmetrized Q once: the smallest eigenvalue
    gives the residual and the decomposition gives the next PSD projection.
    The slab pass runs on the projection's flat list of Python floats, pair by
    pair in the array's order; each step is the same IEEE double operation as
    on the array's entries, so Q is bit-identical to the pass on numpy
    scalars, at a fraction of the cost.
    """
    n = D2.shape[0]
    slabs = [(i * n + i, j * n + j, i * n + j, j * n + i, float(D2[i, j]), float(T * D2[i, j]))
             for i in range(n) for j in range(i + 1, n)]
    w, V = np.linalg.eigh((Q0 + Q0.T) / 2)
    best_resid = math.inf
    since_improve = 0
    for _ in range(C2_SWEEPS):
        q = ((V * np.maximum(w, 0.0)) @ V.T).ravel().tolist()
        slab_gap = 0.0
        for ii, jj, ij, ji, lo, hi in slabs:
            v = q[ii] + q[jj] - 2.0 * q[ij]
            if v < lo:
                gap = lo - v
            elif v > hi:
                gap = hi - v
            else:
                continue
            if abs(gap) > slab_gap:
                slab_gap = abs(gap)
            delta = gap / 4.0
            q[ii] += delta
            q[jj] += delta
            q[ij] -= delta
            q[ji] -= delta
        Q = np.array(q).reshape(n, n)
        w, V = np.linalg.eigh((Q + Q.T) / 2)
        resid = max(slab_gap, -float(w[0]))
        if resid <= C2_RESID_TOL:
            return True, Q
        if resid < best_resid * 0.995:
            best_resid, since_improve = resid, 0
        else:
            since_improve += 1
            if since_improve >= 150:
                return False, Q
    return False, Q


def exact_c2(metric, tol: float = 1e-6) -> C2Result:
    """Minimal Euclidean distortion by bisection on the squared distortion T."""
    M = _as_metric(metric)
    if M.n > C2_CAP:
        raise BadParam(f"point count {M.n} exceeds {C2_CAP}")
    if not real_param(tol, "tol") >= 1e-6:
        raise BadParam(f"tol {tol} below the supported floor 1e-6")
    if M.n < 2:
        return C2Result(value=1.0, gram=np.zeros((M.n, M.n)), bracket=(1.0, 1.0))

    scale = float(M.matrix.max())
    if not math.isfinite(scale * scale):  # the gram is rescaled by scale^2
        raise BadParam(f"largest distance {scale:g} has no finite square")
    d_min = float(M.matrix[~np.eye(M.n, dtype=bool)].min())
    if min(d_min, d_min / scale) ** 2 < sys.float_info.min:  # D2 holds one, the gram the other
        raise BadParam(f"smallest distance {d_min:g}, or its ratio {d_min / scale:g} "
                       f"to the largest, squares below the smallest normal float")
    D2 = (M.matrix / scale) ** 2
    lo = hi = 1.0
    ok, Qh = _project_feasible(D2, hi, np.zeros((M.n, M.n)))
    while not ok:
        lo, hi = hi, hi * 2.0
        if hi > 2.0 ** 20:
            raise NoConvergence(f"no feasible T found below 2^20; bracket ({lo}, inf)")
        ok, Qh = _project_feasible(D2, hi, Qh)

    while hi - lo > tol * tol:
        mid = 0.5 * (lo + hi)
        ok, Qm = _project_feasible(D2, mid, Qh)
        if ok:
            hi, Qh = mid, Qm
        else:
            lo = mid
    w, V = np.linalg.eigh((Qh + Qh.T) / 2)
    gram = (V * np.maximum(w, 0.0)) @ V.T * scale ** 2
    return C2Result(value=math.sqrt(hi), gram=gram, bracket=(lo, hi))
