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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cayley import BallTable, kernel_diameter
from .errors import BadParam, BadScale, CapExceeded
from .groups import Element, GroupSpec, code_space, identity, int_param, inv, mul
from .profile import TestVector, profile_curve, translate_gap

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
        if self.q < 3:
            raise BadParam(f"circle needs q >= 3, got {self.q}")

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
    diam = len(table.sphere_sizes) - 1
    if R is None:
        if table.spec.family == "sol-fin":
            R = max(2, kernel_diameter(table))
        else:
            R = diam
    R = int_param(R, "scale R")
    if R < 2:
        raise BadParam(f"scale R = {R} must be >= 2")
    if R > diam:
        raise BadScale(f"scale R = {R} exceeds diameter {diam}")
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
    if not 2 <= p < math.inf:
        raise BadParam(f"exponent p = {p} outside [2, inf)")
    R, K = bundle_scale(table, R)
    radii = [2 ** k for k in range(1, K + 1)]
    if radii:
        curve = profile_curve(table, p, radii)
        vectors = curve.vectors
        coefs = (1.0,) + tuple(
            (2.0 ** k) / tv.certified_J for k, tv in enumerate(vectors, start=1))
    else:
        vectors, coefs = (), (1.0,)
    c_hat = max(coefs[1:]) if K >= 1 else 1.0
    circle = CircleMap(spec.oA) if spec.family == "sol-fin" else None
    return EmbeddingBundle(table=table, p=p, R=R, K=K, vectors=vectors,
                           coefs=coefs, C_hat=c_hat, circle=circle)


def _gap_pow(spec: GroupSpec, values: dict, g: Element, p: float) -> float:
    """||f - lambda(g)f||_p^p for sparse f."""
    return math.fsum(abs(v) ** p for v in translate_gap(spec, values, g).values())


def embed_norm(bundle: EmbeddingBundle, g: Element) -> float:
    """||F(g)||: block contributions in fixed order, then the circle chord."""
    p = bundle.p
    total = 0.0
    for _, coef, values in bundle.blocks():
        total += coef ** p * _gap_pow(bundle.spec, values, g, p)
    if bundle.circle is not None:
        total += bundle.circle.chord(g[1]) ** p
    return total ** (1.0 / p)


def _gap_sq_fourier(spec: GroupSpec, values: dict) -> np.ndarray:
    """||f - lambda(g)f||_2^2 for every g, indexed by code, before any clamp.

    The gap is 2||f||^2 - 2<f, lambda(g)f>, and for g = (b, s) the inner
    product is sum_t sum_a f_t(a) f_{t-s}(phi_-s(a - b)): per t, a correlation
    over N.  One forward transform per row f_t, |T|^2 pointwise products and
    |T| inverse transforms give it for every g.  The rows are transformed one
    at a time into the complex table that holds them, so that table is the
    only array of size |G| besides the output.
    """
    cs = code_space(spec)
    T = cs.time_order
    shape = cs.normal_shape
    t_of, a_of = cs.split(cs.encode_many(list(values)))
    v = np.fromiter(values.values(), dtype=float, count=len(values))
    rows = np.zeros((T, spec.order // T), dtype=complex)
    rows[t_of, a_of] = v
    for t in range(T):
        _fftn(rows[t].reshape(shape))
    gap = np.empty(spec.order)
    twice_norm = 2.0 * float(v @ v)
    acc = np.empty(rows.shape[1], dtype=complex)
    for s in range(T):
        twist = cs.dual_twist(s)
        acc.fill(0.0)
        for t in range(T):
            acc += rows[t] * np.conj(rows[(t - s) % T][twist])
        _fftn(acc.reshape(shape), inverse=True)
        gap[s::T] = twice_norm - 2.0 * acc.real
    return gap


def _fftn(a: np.ndarray, inverse: bool = False) -> None:
    """Overwrite the C-contiguous complex array ``a`` with ``np.fft.fftn(a)``
    (``ifftn`` if inverse), bit for bit.

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


def _gap_pow_pairs(spec: GroupSpec, values: dict, p: float) -> np.ndarray:
    """||f - lambda(g)f||_p^p for every g, indexed by code, before any clamp.

    Uses the correlation identity ||f - lambda(g)f||_p^p =
    2||f||_p^p + sum over support pairs (x, y) with x y^-1 = g of
    |f(x) - f(y)|^p - |f(x)|^p - |f(y)|^p, which costs one vectorized pass
    per support element instead of one per group element.
    """
    cs = code_space(spec)
    supp = list(values)
    v = np.array([values[x] for x in supp])
    inv_codes = cs.encode_many([inv(spec, x) for x in supp])
    payload = cs.payload(inv_codes)
    vpow = np.abs(v) ** p
    corr = np.full(spec.order, 2.0 * vpow.sum())
    for i, x in enumerate(supp):
        prod = cs.act_left(x, inv_codes, payload)
        np.add.at(corr, prod, np.abs(v[i] - v) ** p - vpow[i] - vpow)
    return corr


def embed_norms_all(bundle: EmbeddingBundle) -> np.ndarray:
    """||F(g)|| for every group element, indexed by CodeSpace code.

    A block's gap vector comes from the Fourier path when p = 2 and
    |supp|^2 > |G| |T|, an operation-count line between the pair sums and the
    |T| correlations over N (timed on all three families, the paths cross
    between |G| |T| / 4 and |G| |T|, so some blocks below the line would
    already run faster on the Fourier path);
    every other block, and every p != 2, takes the pair path.  Both leave
    rounding residue around 0, which is clamped.
    """
    spec = bundle.spec
    p = bundle.p
    cs = code_space(spec)
    order = spec.order
    total = np.zeros(order)
    for _, coef, values in bundle.blocks():
        if p == 2 and len(values) ** 2 > order * cs.time_order:
            gap = _gap_sq_fourier(spec, values)
        else:
            gap = _gap_pow_pairs(spec, values, p)
        total += coef ** p * np.maximum(gap, 0.0)
    if bundle.circle is not None:
        chords = np.array([bundle.circle.chord(k) for k in range(spec.oA)])
        total += chords[cs.split(np.arange(order))[0]] ** p
    norms = total ** (1.0 / p)
    norms[cs.encode(identity(spec))] = 0.0  # exact, cancels fp residue
    return norms


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

    lip_bound sums the per-generator block gradients: the dirac block moves
    two unit entries (contribution 2), each profile block is normalized to
    gradient at most 1, and the circle moves by one chord.  colip_bound is
    the dyadic lower-bound factor 8 * 2^(-1/p).  closed_form evaluates
    2 * C_hat * (2 ln(R/2))^(1/p), the linear-profile form of the bound; it
    degenerates to 0 at R = 2 where the integral is empty.
    """
    p = bundle.p
    lip_pow = 2.0 + math.fsum(c ** p for c in bundle.coefs[1:])
    if bundle.circle is not None:
        lip_pow += 1.0
    lip = lip_pow ** (1.0 / p)
    colip = 8.0 * 2.0 ** (-1.0 / p)
    closed = 2.0 * bundle.C_hat * (2.0 * math.log(bundle.R / 2.0)) ** (1.0 / p)
    return AprioriBound(lip, colip, lip * colip, closed)
