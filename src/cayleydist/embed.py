"""Equivariant lp embeddings assembled from profile certificates.

The map sends g to the direct sum over blocks k of coef_k * (f_k - lambda(g)f_k),
where f_0 is the dirac at the identity with coefficient 1 and f_k (k >= 1) is a
certified profile witness at radius 2^k with coefficient 2^k / certified_J_k.
For the sol family a planar circle coordinate driven by the time component is
appended, normalized so adjacent points sit at distance exactly 1.

Distances are equivariant (||F(g) - F(h)|| depends only on h^-1 g), so one
norm per group element describes the whole map.  embed_norms_all computes them
all at once; embed_norm, one element at a time, is its oracle, and embed_point
materializes coordinates for desk-scale verification only.

Each block's gap vector ||f - lambda(g)f||_p^p over all g takes one of two
paths.  The pair path sums over support pairs, O(|supp|^2).  At p = 2 a block
with |supp|^2 > |G| |T| takes the Fourier path instead: every family is
N x| T with N abelian, so the inner products <f, lambda(g)f> for all g are |T|
correlations over N, which cost O(|T| |G|) whatever the support size.  Other p
stay on pairs: expanding even powers binomially into correlations cancels
large terms and loses digits.  The transforms over N run numpy's fftn axis
loop in ``_fftn``, with length-2 axes (the m = 2 lamplighter's) as in-place
butterflies, and give the same bits as ``np.fft.fftn``/``ifftn``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from ._lazy import np
from .cayley import CODE_SLICE, BallTable, kernel_diameter
from .errors import BadParam, BadScale, CapExceeded
from .groups import Element, GroupSpec, code_space, identity, int_param, inv, mul, real_param
from .profile import TestVector, profile_curve, translate_gaps

POINT_CAP = 1 << 24

_codespace = code_space  # the name perfbench's norm re-check imports


@dataclass(frozen=True)
class CircleMap:
    """Z/q placed on a circle through the origin, scaled so that consecutive
    points are at distance exactly 1.  The cyclic word metric distorts by at
    most pi/2 under this map.
    """

    q: int

    def __post_init__(self):
        if int_param(self.q, "circle order q") < 2:
            raise BadParam(f"circle needs q >= 2, got {self.q}")

    @property
    def c_q(self) -> float:
        return 2.0 * self.q * math.sin(math.pi / self.q)

    def point(self, t: int) -> np.ndarray:
        theta = 2.0 * math.pi * (t % self.q) / self.q
        scale = self.q / self.c_q
        return np.array([scale * (1.0 - math.cos(theta)), scale * math.sin(theta)])

    def chord(self, k: int) -> float:
        """Distance between points t and t + k, any t."""
        return 2.0 * self.q * math.sin(math.pi * (abs(k) % self.q) / self.q) / self.c_q


@dataclass(frozen=True)
class EmbeddingBundle:
    """Frozen description of one embedding: its group's complete table,
    certificates, coefficients, and the optional circle coordinate.  C_hat = max
    coefficient over k >= 1 (1.0 when there are no profile blocks), the measured
    linear-profile constant at the bundle's own dyadic radii.
    """

    table: BallTable = field(repr=False)
    p: float
    R: int
    K: int
    vectors: tuple[TestVector, ...]
    coefs: tuple[float, ...]
    C_hat: float
    circle: CircleMap | None

    @property
    def spec(self) -> GroupSpec:
        return self.table.spec

    def blocks(self):
        """Yield (radius, coefficient, values) for k = 0..K."""
        yield 1, self.coefs[0], {identity(self.spec): 1.0}
        for k, tv in enumerate(self.vectors, start=1):
            yield tv.radius, self.coefs[k], tv.values


class AprioriBound(NamedTuple):
    lip_bound: float
    colip_bound: float
    dist_bound: float
    closed_form: float


def bundle_scale(table: BallTable, R: int | None = None) -> tuple[int, int]:
    """The checked scale R of ``build_bundle`` and its top block index K.

    R defaults to the diameter; for the sol family it defaults to the kernel
    diameter (the circle coordinate covers the time direction).  Profile
    blocks sit at radii 2^k for k = 1..K with K = floor(log2(R/2)), so every
    block radius is at most R/2.
    """
    if R is None:
        if table.spec.family == "sol-fin":
            R = max(2, kernel_diameter(table))
        else:
            R = table.radius
    R = int_param(R, "scale R")
    if R < 2:
        raise BadParam(f"scale R = {R} must be >= 2")
    if R > table.radius:
        raise BadScale(f"scale R = {R} exceeds diameter {table.radius}")
    return R, (R // 2).bit_length() - 1


def build_bundle(table: BallTable, p: float = 2.0, R: int | None = None) -> EmbeddingBundle:
    """Assemble the embedding of the group that ``table`` enumerates, at the
    scale R of ``bundle_scale``; for the sol family the planar block is always
    attached.  The table must be complete, which no table of an infinite
    family is.
    """
    spec = table.spec
    if not table.complete:
        raise BadParam(f"embeddings need a complete table, got radius {table.radius}")
    if not 2 <= real_param(p, "exponent p") < math.inf:
        raise BadParam(f"exponent p = {p} outside [2, inf)")
    R, K = bundle_scale(table, R)
    vectors = profile_curve(table, p, [2 ** k for k in range(1, K + 1)]).vectors if K else ()
    coefs = (1.0,) + tuple(
        (2.0 ** k) / tv.certified_J for k, tv in enumerate(vectors, start=1))
    circle = CircleMap(spec.oA) if spec.family == "sol-fin" else None
    return EmbeddingBundle(table=table, p=p, R=R, K=K, vectors=vectors,
                           coefs=coefs, C_hat=max(coefs[1:], default=1.0), circle=circle)


def _gap_pow(spec: GroupSpec, values: dict, g: Element, p: float) -> float:
    """||f - lambda(g)f||_p^p for sparse f."""
    gap, = translate_gaps(spec, values, [g])
    return math.fsum(abs(v) ** p for v in gap)


def embed_norm(bundle: EmbeddingBundle, g: Element) -> float:
    """||F(g)||: block contributions in fixed order, then the circle chord."""
    p = bundle.p
    total = 0.0
    for _, coef, values in bundle.blocks():
        total += coef ** p * _gap_pow(bundle.spec, values, g, p)
    if bundle.circle is not None:
        total += bundle.circle.chord(g[1]) ** p
    return total ** (1.0 / p)


def _gap_sq_fourier(spec: GroupSpec, values: dict) -> Iterator[tuple[int, np.ndarray]]:
    """||f - lambda(g)f||_2^2 for every g, before any clamp, one time index s
    at a time: yields (s, the gaps at codes s::T in code order).

    The gap is 2||f||^2 - 2<f, lambda(g)f>, and for g = (b, s) the inner
    product is sum_t sum_a f_t(a) f_{t-s}(phi_-s(a - b)): per t, a correlation
    over N.  One forward transform per row f_t, |T|^2 pointwise products and
    |T| inverse transforms give it for every g.  The rows are transformed one
    at a time into the table that holds them, so that table is the only array
    of size |G|.  When N is (Z/2)^n (the m = 2 lamplighter) every character is
    +-1, so the table is real: the same floats in half the memory.
    """
    cs = code_space(spec)
    T = cs.time_order
    shape = cs.normal_shape
    t_of, a_of = cs.split(cs.encode_many(list(values)))
    v = np.fromiter(values.values(), dtype=float, count=len(values))
    dtype = float if set(shape) == {2} else complex
    rows = np.zeros((T, spec.order // T), dtype=dtype)
    rows[t_of, a_of] = v
    for t in range(T):
        _fftn(rows[t].reshape(shape))
    twice_norm = 2.0 * float(np.sum(v * v))
    acc = np.empty(rows.shape[1], dtype=dtype)
    for s in range(T):
        twist = cs.dual_twist(s)
        acc.fill(0.0)
        for t in range(T):
            acc += rows[t] * rows[(t - s) % T][twist].conj()  # no copy when real
        _fftn(acc.reshape(shape), inverse=True)
        yield s, twice_norm - 2.0 * acc.real


def _fftn(a: np.ndarray, inverse: bool = False) -> None:
    """Overwrite the C-contiguous complex array ``a`` with ``np.fft.fftn(a)``
    (``ifftn`` if inverse), bit for bit.  A real ``a`` whose axes all have
    length 2 stays real: its butterflies take the real parts' steps alone.

    numpy's fftn runs one 1-D transform per axis, last axis first, and so does
    this loop.  On an axis of length 2 pocketfft computes the butterfly
    (x0 + x1, x0 - x1) and, for the inverse, then scales the real and
    imaginary parts by 1/2; that is done here in place, for every line at
    once, instead of one pocketfft call per line.  Other axes go to
    ``np.fft.fft``/``ifft``.
    """
    for axis in reversed(range(a.ndim)):
        if a.shape[axis] != 2:
            a[...] = (np.fft.ifft if inverse else np.fft.fft)(a, axis=axis)
            continue
        pairs = a.reshape(math.prod(a.shape[:axis]), 2, -1)
        x0, x1 = pairs[:, 0], pairs[:, 1]
        diff = x0 - x1
        x0 += x1
        x1[...] = diff
        if inverse:
            a.view(np.float64)[...] *= 0.5


def _gap_pow_pairs(table: BallTable, values: dict, p: float, radius: int):
    """||f - lambda(g)f||_p^p before any clamp, for f supported in the open
    ball of ``radius`` of the complete ``table``: (the gap at every g outside
    the ball of radius 2 radius - 2, the gap at each g of that ball by its
    position along ``table.elements``).

    Uses the correlation identity ||f - lambda(g)f||_p^p =
    2||f||_p^p + sum over support pairs (x, y) with x y^-1 = g of
    |f(x) - f(y)|^p - |f(x)|^p - |f(y)|^p, which costs one vectorized pass
    per support element instead of one per group element.  |x y^-1| <=
    |x| + |y| <= 2 radius - 2, so pairs meet that ball alone; outside it the
    gap is 2||f||_p^p.
    """
    spec = table.spec
    cs = code_space(spec)
    supp = list(values)
    v = np.array([values[x] for x in supp])
    inv_codes = cs.encode_many([inv(spec, x) for x in supp])
    payload = cs.payload(inv_codes)
    vpow = np.abs(v) ** p
    twice_norm = 2.0 * vpow.sum()
    corr = np.full(table.ball_size(min(2 * radius - 2, table.radius)), twice_norm)
    for i, x in enumerate(supp):
        at = table.position[cs.act_left(x, inv_codes, payload)]
        at -= 1  # in place: the gather is a fresh array
        np.add.at(corr, at, np.abs(v[i] - v) ** p - vpow[i] - vpow)
    return twice_norm, corr


def _add_gap(total: np.ndarray, gap: np.ndarray, scale: float) -> None:
    """total += scale * max(gap, 0), in place; overwrites gap."""
    np.maximum(gap, 0.0, out=gap)
    gap *= scale
    total += gap


def embed_norms_all(bundle: EmbeddingBundle) -> np.ndarray:
    """||F(g)|| for every group element, indexed by CodeSpace code.

    A block's gap vector comes from the Fourier path when p = 2 and
    |supp|^2 > |G| |T|, an operation-count line between the pair sums and the
    |T| correlations over N (timed on all three families, the paths cross
    between |G| |T| / 4 and |G| |T|, so some blocks below the line would
    already run faster on the Fourier path);
    every other block, and every p != 2, takes the pair path.  Both leave
    rounding residue around 0, which is clamped.

    Each gap is clamped, scaled and summed in place, the Fourier path's one
    time slice at a time as it is made, and the circle term is added per time
    index (code t + T a has time t), so the sum holds no |G|-sized temporary.
    No pair block builds a |G|-sized gap either: a block of radius r has a gap
    of its own only on the ball of radius 2r - 2 (``_gap_pow_pairs``).  That
    ball's sums plus their gaps are saved, slice by slice, the constant gap
    outside it is added to all of the sum as one scalar, and the saved entries
    are written back, so every entry still takes exactly one addition, of its
    own clamped and scaled gap.
    """
    table = bundle.table
    spec = bundle.spec
    p = bundle.p
    cs = code_space(spec)
    T = cs.time_order
    order = spec.order
    total = np.zeros(order)
    for radius, coef, values in bundle.blocks():
        if p == 2 and len(values) ** 2 > order * T:
            for s, gap in _gap_sq_fourier(spec, values):
                _add_gap(total[s::T], gap, coef ** p)
            continue
        twice_norm, gap = _gap_pow_pairs(table, values, p, radius)
        ball = table.elements[:len(gap)]
        parts = [slice(lo, lo + CODE_SLICE) for lo in range(0, len(gap), CODE_SLICE)]
        for part in parts:
            saved = total[ball[part]]
            _add_gap(saved, gap[part], coef ** p)
            gap[part] = saved
        total += max(twice_norm, 0.0) * coef ** p
        for part in parts:
            total[ball[part]] = gap[part]
    if bundle.circle is not None:
        chords = np.array([bundle.circle.chord(k) for k in range(spec.oA)])
        by_time = total.reshape(-1, T)  # a view: code t + T a has time t
        by_time += chords ** p
    total **= 1.0 / p
    total[cs.encode(identity(spec))] = 0.0  # exact, cancels fp residue
    return total


def embed_point(bundle: EmbeddingBundle, g: Element) -> np.ndarray:
    """Materialized coordinates of F(g), desk scale only: one block of |G|
    coordinates per dirac and profile block, plus 2 for the circle.

    The flat lp norm of the result equals embed_norm(g) exactly when there is
    no circle block, and at p = 2 always (the circle pair is Euclidean).
    """
    spec = bundle.spec
    size = (bundle.K + 1) * spec.order + (2 if bundle.circle else 0)
    if size > POINT_CAP:
        raise CapExceeded(f"coordinate count {size} exceeds {POINT_CAP}")
    cs = code_space(spec)
    out = np.zeros(size)
    for k, (_, coef, values) in enumerate(bundle.blocks()):
        off = k * spec.order
        for x, v in values.items():
            out[off + cs.encode(x)] += coef * v
            out[off + cs.encode(mul(spec, g, x))] -= coef * v
    if bundle.circle is not None:
        out[-2:] = bundle.circle.point(g[1])
    return out


def cocycle_defect(bundle: EmbeddingBundle, g: Element, h: Element) -> float:
    """lp norm of F(gh) - lambda(g)F(h) - F(g) over the lp blocks.

    Zero in exact arithmetic.  The circle coordinate is excluded: it moves by
    a rotation, not by the translation action.
    """
    spec = bundle.spec
    cs = code_space(spec)
    order = spec.order
    n_coords = (bundle.K + 1) * order
    f_gh = embed_point(bundle, mul(spec, g, h))[:n_coords]
    f_g = embed_point(bundle, g)[:n_coords]
    f_h = embed_point(bundle, h)[:n_coords]
    src = cs.act_left(inv(spec, g), np.arange(order))
    shifted = np.empty(n_coords)
    for k in range(bundle.K + 1):
        sl = slice(k * order, (k + 1) * order)
        shifted[sl] = f_h[sl][src]
    defect = f_gh - shifted - f_g
    return float(np.sum(np.abs(defect) ** bundle.p) ** (1.0 / bundle.p))


def apriori_bound(bundle: EmbeddingBundle) -> AprioriBound:
    """Certified distortion bound at scale R.

    lip_bound sums the per-generator block gradients, each scaled by its
    coefficient: the dirac block moves two unit entries (contribution 2),
    each profile block is normalized to gradient at most 1, and the circle
    moves by one chord.  colip_bound is the dyadic lower-bound factor
    8 * 2^(-1/p).  closed_form evaluates 2 * C_hat * (2 ln(R/2))^(1/p), the
    linear-profile form of the bound; it degenerates to 0 at R = 2 where the
    integral is empty.  colip_bound and closed_form describe the full
    construction, every block and the bundle's C_hat, so on a bundle with a
    zeroed block dist_bound is not a bound for the zeroed embedding.
    """
    p = bundle.p
    lip_pow = 2.0 * bundle.coefs[0] ** p + math.fsum(c ** p for c in bundle.coefs[1:])
    if bundle.circle is not None:
        lip_pow += 1.0
    lip = lip_pow ** (1.0 / p)
    colip = 8.0 * 2.0 ** (-1.0 / p)
    closed = 2.0 * bundle.C_hat * (2.0 * math.log(bundle.R / 2.0)) ** (1.0 / p)
    return AprioriBound(lip, colip, lip * colip, closed)
