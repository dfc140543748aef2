"""Exact arithmetic for three families of finite solvable groups and their parents.

Families
--------
``lamplighter-fin``   C_m wr C_n, order m^n * n.
``lamplighter-inf``   C_m wr Z.
``bs-fin``            C_q x| C_n with q = m^n - 1, the cyclic factor acting by
                      multiplication by m (a unit of exact order n mod q).
``bs-inf``            Z[1/m] x| Z, t acting by multiplication by m^t.
``sol-fin``           (C_n)^2 x| C_{o(A,n)}, twisted by a fixed integer matrix A
                      with det +-1 and eigenvalues off the unit circle.
``sol-inf``           Z^2 x| Z twisted by A.

Elements are plain (payload, time) tuples so they hash cheaply in BFS tables:

* lamplighter-fin: ((l_0, ..., l_{n-1}), pos), residues mod m, pos mod n.
* lamplighter-inf: (((i, v), ...), pos), support sorted by position, v in [1, m).
* bs-fin: (a, t) with a mod q, t mod n.
* bs-inf: ((u, e), t) encoding u / m^e, reduced so e = 0 or m does not divide u.
* sol-fin / sol-inf: ((v1, v2), t).

The group law everywhere is (x, s)(y, t) = (x + phi_s(y), s + t) where phi_s is
the relevant twist; residue payloads stay reduced into [0, modulus).  ``mul`` is
the one statement of the law and the one place an element is reduced: ``inv``
is the product (0, -s)(-x, 0), ``from_string`` and ``project`` reduce through
products with the identity, and the fast paths ``right_step``, ``left_step`` and
``CodeSpace`` are tested equal to it.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat

from ._lazy import np
from .errors import (
    BadMatrix,
    BadParam,
    CapExceeded,
    FamilyMismatch,
    IncompatibleSpecs,
    Overflow,
)

FINITE_FAMILIES = ("lamplighter-fin", "bs-fin", "sol-fin")
INFINITE_FAMILIES = ("lamplighter-inf", "bs-inf", "sol-inf")
FAMILIES = FINITE_FAMILIES + INFINITE_FAMILIES
PARENT_FAMILY = dict(zip(FINITE_FAMILIES, INFINITE_FAMILIES))

DEFAULT_MATRIX = ((2, 1), (1, 1))
ORDER_CAP = 1 << 22
MATRIX_ORDER_CAP = 10**7

# bs-inf numerators live in a checked 128-bit range; exponent jumps are capped
# so a single multiplication cannot allocate an absurd power of m.
BS_NUMERATOR_CAP = 1 << 127
BS_EXPONENT_CAP = 512

# sol-inf twist powers grow exponentially in |t|; walks never need more.
SOL_TIME_CAP = 2048

Matrix = tuple[tuple[int, int], tuple[int, int]]
Element = tuple


@dataclass(frozen=True)
class GroupSpec:
    """Validated group description with derived constants precomputed."""

    family: str
    m: int | None = None
    n: int | None = None
    A: Matrix | None = None
    q: int | None = None
    oA: int | None = None
    order: int | None = None

    @property
    def finite(self) -> bool:
        return self.family in FINITE_FAMILIES

    def __str__(self) -> str:
        parts = [self.family]
        if self.m is not None:
            parts.append(f"m={self.m}")
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.A is not None and self.A != DEFAULT_MATRIX:
            parts.append(f"A={self.A}")
        return "(" + ", ".join(parts) + ")"


def int_param(value, name: str = "radius") -> int:
    """value through ``operator.index``: BadParam for 1.5, "2", True, nan or None."""
    try:  # operator.index reads a bool as 0 or 1, so a bool goes in as None, refused
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise BadParam(f"{name} {value!r} must be an integer") from None


def real_param(value, name: str):
    """value itself if it is a real number: BadParam for "2", None or 1j."""
    if not isinstance(value, numbers.Real):
        raise BadParam(f"{name} {value!r} must be a real number")
    return value


def _as_matrix(A) -> Matrix:
    try:  # operator.index reads a bool as 0 or 1, so a bool goes in as None, refused
        rows = tuple(tuple(operator.index(None if isinstance(v, bool) else v) for v in row)
                     for row in A)
    except (TypeError, ValueError) as exc:
        raise BadMatrix(f"matrix must be a 2x2 integer array, got {A!r}") from exc
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise BadMatrix(f"matrix must be 2x2, got {A!r}")
    return rows


def _check_hyperbolic(A: Matrix) -> None:
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    tr = A[0][0] + A[1][1]
    if det not in (1, -1):
        raise BadMatrix(f"det(A) = {det}, must be +1 or -1")
    # eigenvalues on the unit circle would collapse the exponential geometry
    if det == 1 and abs(tr) <= 2:
        raise BadMatrix(f"det 1 with |trace| = {abs(tr)} <= 2: eigenvalues on unit circle")
    if det == -1 and tr == 0:
        raise BadMatrix("det -1 with trace 0: eigenvalues on unit circle")


def _mat_mul(X: Matrix, Y: Matrix, mod: int | None = None) -> Matrix:
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            v = X[i][0] * Y[0][j] + X[i][1] * Y[1][j]
            row.append(v % mod if mod is not None else v)
        out.append(tuple(row))
    return (out[0], out[1])


def _mat_inv_int(A: Matrix) -> Matrix:
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    # det = +-1, so 1/det = det and the adjugate gives an integer inverse
    return (
        (det * A[1][1], -det * A[0][1]),
        (-det * A[1][0], det * A[0][0]),
    )


def matrix_order(A, n: int, cap: int = MATRIX_ORDER_CAP) -> int:
    """Least k >= 1 with A^k congruent to the identity mod n."""
    A = _as_matrix(A)
    n = int_param(n, "modulus n")
    if n < 1:
        raise BadParam(f"modulus n = {n} must be >= 1")
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if det not in (1, -1):
        raise BadMatrix(f"det(A) = {det}, must be +1 or -1 to be invertible mod n")
    ident = ((1 % n, 0), (0, 1 % n))
    M = tuple(tuple(v % n for v in row) for row in A)
    k = 1
    while M != ident:
        M = _mat_mul(M, A, n)
        k += 1
        if k > cap:
            raise CapExceeded(f"matrix order mod {n} exceeds cap {cap}")
    return k


def make_spec(family: str, m: int | None = None, n: int | None = None,
              A=None) -> GroupSpec:
    """Validate parameters and derive q, o(A, n), and the group order <= ORDER_CAP."""
    if family not in FAMILIES:
        raise BadParam(f"unknown family {family!r}; expected one of {FAMILIES}")

    needs_m = family in ("lamplighter-fin", "lamplighter-inf", "bs-fin", "bs-inf")
    if needs_m:
        m = m if m is None else int_param(m, "m")
        if m is None or m < 2:
            raise BadParam(f"family {family} needs m >= 2, got {m}")
    elif m is not None:
        raise BadParam(f"family {family} takes no parameter m")

    if family in FINITE_FAMILIES:
        n = n if n is None else int_param(n, "n")
        if n is None or n < 2:
            raise BadParam(f"family {family} needs n >= 2, got {n}")
    elif n is not None:
        raise BadParam(f"family {family} takes no parameter n")

    if family in ("sol-fin", "sol-inf"):
        A = DEFAULT_MATRIX if A is None else _as_matrix(A)
        _check_hyperbolic(A)
        # (1,0) and t generate exactly when (1,0) and A(1,0) span the plane, that
        # is when A[1][0] is a unit mod n, or of Z for sol-inf (gcd(c, 0) = |c|)
        if math.gcd(A[1][0], n or 0) != 1:
            ring = f"Z/{n}" if n else "Z"
            raise BadMatrix(f"A[1][0] = {A[1][0]} is not a unit in {ring}: "
                            f"(1,0) and t do not generate {family}")
    elif A is not None:
        raise BadParam(f"family {family} takes no twist matrix")

    q = oA = order = None
    cap = ORDER_CAP
    too_big = f"group order of {family} exceeds cap {cap}"
    # (bit_length(m) - 1) * n <= log2(m^n): reject m^n > cap before building it
    if (family in ("lamplighter-fin", "bs-fin")
            and (m.bit_length() - 1) * n >= cap.bit_length()):
        raise CapExceeded(f"{too_big}: m^n alone does")
    if family == "lamplighter-fin":
        order = m**n * n
    elif family == "bs-fin":
        q = m**n - 1
        order = q * n
    elif family == "sol-fin":
        if n * n > cap:
            raise CapExceeded(f"{too_big}: n^2 alone does")
        try:
            oA = matrix_order(A, n, cap=cap // (n * n))
        except CapExceeded:
            raise CapExceeded(f"{too_big}: o(A, n) exceeds cap / n^2") from None
        order = n * n * oA
    if order is not None and order > cap:
        raise CapExceeded(f"group order {order} exceeds cap {cap}")

    return GroupSpec(family=family, m=m, n=n, A=A, q=q, oA=oA, order=order)


# ---------------------------------------------------------------------------
# cached twist tables

@lru_cache(maxsize=None)
def _bs_pows(spec: GroupSpec) -> tuple[int, ...]:
    return tuple(pow(spec.m, s, spec.q) for s in range(spec.n))


@lru_cache(maxsize=None)
def _sol_pows(spec: GroupSpec) -> tuple[Matrix, ...]:
    out = []
    M: Matrix = ((1, 0), (0, 1))
    for _ in range(spec.oA):
        out.append(tuple(tuple(v % spec.n for v in row) for row in M))
        M = _mat_mul(M, spec.A, spec.n)
    return tuple(out)


@lru_cache(maxsize=None)
def _sol_pow_z(A: Matrix, s: int) -> Matrix:
    if abs(s) > SOL_TIME_CAP:
        raise Overflow(f"twist power |t| = {abs(s)} exceeds cap {SOL_TIME_CAP}")
    M: Matrix = ((1, 0), (0, 1))
    step = A if s > 0 else _mat_inv_int(A)
    for _ in range(abs(s)):
        M = _mat_mul(M, step)
    return M


def _bs_reduce(m: int, num: int, exp: int) -> tuple[int, int]:
    """Canonical (u, e) for the value num / m^exp, exp >= 0."""
    if num == 0:
        return (0, 0)
    while exp > 0 and num % m == 0:
        num //= m
        exp -= 1
    if abs(num) > BS_NUMERATOR_CAP:
        raise Overflow(f"numerator needs more than 128 bits (|u| ~ 2^{abs(num).bit_length()})")
    return (num, exp)


# ---------------------------------------------------------------------------
# element arithmetic

def identity(spec: GroupSpec) -> Element:
    f = spec.family
    if f == "lamplighter-fin":
        return ((0,) * spec.n, 0)
    if f == "lamplighter-inf":
        return ((), 0)
    if f == "bs-fin":
        return (0, 0)
    return ((0, 0), 0)


def mul(spec: GroupSpec, x: Element, y: Element) -> Element:
    """Product xy under the twisted law (x, s)(y, t) = (x + phi_s(y), s + t);
    a finite family reads each time index mod its time order, n or o(A, n)."""
    f = spec.family
    if f == "lamplighter-fin":
        (fx, s), (fy, t) = x, y
        n, m = spec.n, spec.m
        lamps = tuple((fx[i] + fy[(i - s) % n]) % m for i in range(n))
        return (lamps, (s + t) % n)
    if f == "lamplighter-inf":
        (fx, s), (fy, t) = x, y
        m = spec.m
        acc = dict(fx)
        for i, v in fy:
            j = i + s
            w = (acc.get(j, 0) + v) % m
            if w:
                acc[j] = w
            else:
                acc.pop(j, None)
        return (tuple(sorted(acc.items())), s + t)
    if f == "bs-fin":
        (a, s), (b, t) = x, y
        q, n = spec.q, spec.n
        return ((a + _bs_pows(spec)[s % n] * b) % q, (s + t) % n)
    if f == "bs-inf":
        ((ux, ex), s), ((uy, ey), t) = x, y
        # x + m^s * y = ux / m^ex + uy / m^(ey - s)
        e2 = ey - s
        E = max(ex, e2, 0)
        if E - ex > BS_EXPONENT_CAP or E - e2 > BS_EXPONENT_CAP:
            raise Overflow(f"exponent spread exceeds cap {BS_EXPONENT_CAP}")
        m = spec.m
        num = ux * m ** (E - ex) + uy * m ** (E - e2)
        return (_bs_reduce(m, num, E), s + t)
    if f in ("sol-fin", "sol-inf"):
        ((v1, v2), s), ((w1, w2), t) = x, y
        M = _sol_pows(spec)[s % spec.oA] if f == "sol-fin" else _sol_pow_z(spec.A, s)
        v1, v2 = v1 + M[0][0] * w1 + M[0][1] * w2, v2 + M[1][0] * w1 + M[1][1] * w2
        if f == "sol-fin":
            return ((v1 % spec.n, v2 % spec.n), (s + t) % spec.oA)
        if abs(s + t) > SOL_TIME_CAP:
            raise Overflow(f"twist power |t| = {abs(s + t)} exceeds cap {SOL_TIME_CAP}")
        return ((v1, v2), s + t)
    raise FamilyMismatch(f"unknown family {f!r}")


def right_step(spec: GroupSpec, g: Element):
    """The map x -> x * g for one generator g, specialised for infinite families.

    Equal to ``mul(spec, x, g)`` for x of word length <= ``INF_RADIUS_CAP``, the
    most any BFS reaches; past that, ``mul`` raises Overflow on a time step
    (sol-inf |t| > SOL_TIME_CAP, bs-inf t > BS_EXPONENT_CAP) and this map does not.
    No infinite-family step goes through ``mul``: a bs-inf plane step adds
    +-m^s to u / m^e in closed form, raising ``mul``'s Overflow errors, and a
    sol-inf plane step adds A^s b, kept per time index s.
    """
    b, k = g
    if not spec.finite and b == identity(spec)[0]:  # a time step keeps the payload object
        return lambda x: (x[0], x[1] + k)
    if spec.family == "lamplighter-inf":
        ((i, v),), m = b, spec.m
        def lamp(x):
            fx, s = x
            j = i + s
            p = bisect_left(fx, (j,))
            if p < len(fx) and fx[p][0] == j:
                w = (fx[p][1] + v) % m
                return (fx[:p] + ((_lamp_pair(j, w),) if w else ()) + fx[p + 1:], s)
            return (fx[:p] + (_lamp_pair(j, v),) + fx[p:], s)
        return lamp
    if spec.family == "bs-inf":
        (c, _), m = b, spec.m
        def plane(x):
            (u, e), s = x
            d = e + s  # u / m^e + c m^s over the denominator m^max(e, -s); spread |d|
            if d > BS_EXPONENT_CAP or d < -BS_EXPONENT_CAP:
                raise Overflow(f"exponent spread exceeds cap {BS_EXPONENT_CAP}")
            if d >= 0:
                return (_bs_reduce(m, u + c * m ** d, e), s)
            return (_bs_reduce(m, u * m ** -d + c, -s), s)
        return plane
    if spec.family == "sol-inf":
        (w1, w2), A = b, spec.A
        cols: dict[int, tuple[int, int]] = {}  # A^s b by time index s
        def plane(x):
            (v1, v2), s = x
            d = cols.get(s)
            if d is None:
                M = _sol_pow_z(A, s)
                d = cols[s] = (M[0][0] * w1 + M[0][1] * w2, M[1][0] * w1 + M[1][1] * w2)
            return ((v1 + d[0], v2 + d[1]), s)
        return plane
    return lambda x: mul(spec, x, g)


@lru_cache(maxsize=1 << 14)
def _lamp_pair(j: int, w: int) -> tuple[int, int]:
    """The one (position, value) tuple that every lamplighter-inf step lighting
    lamp j to w shares.  A BFS of radius r meets at most (2r + 1) min(m - 1, 2r)
    pairs, 6,480 at ``INF_RADIUS_CAP``, each value r steps of +-1 from 0 at most."""
    return (j, w)


def left_step(spec: GroupSpec, g: Element):
    """The map x -> g * x, equal to ``mul(spec, g, x)`` on the group's elements.

    lamplighter-fin takes it in closed form: x's lamps rotated by g's time in
    one slice-concatenate, then g's lit lamps added one slice each.  Every
    other family goes through ``mul``.
    """
    if spec.family != "lamplighter-fin":
        return lambda x: mul(spec, g, x)
    (b, s), n, m = g, spec.n, spec.m
    cut, lit = n - s % n, [(i, v) for i, v in enumerate(b) if v % m]
    def step(x):
        fx, t = x
        lamps = fx[cut:] + fx[:cut]  # lamp i of g x reads lamp i - s of x
        for i, v in lit:
            lamps = lamps[:i] + ((lamps[i] + v) % m,) + lamps[i + 1:]
        return (lamps, (s + t) % n)
    return step


def inv(spec: GroupSpec, x: Element) -> Element:
    """Inverse (x, s)^{-1} = (0, -s)(-x, 0) through ``mul``, reduced and capped
    like every product (a bs-inf spread |e + s| > BS_EXPONENT_CAP raises
    Overflow); only negating the payload depends on the family."""
    a, s = x
    f = spec.family
    if f == "bs-fin":
        neg = -a
    elif f == "bs-inf":
        neg = (-a[0], a[1])
    elif f == "lamplighter-inf":
        neg = tuple((i, -v) for i, v in a)
    else:
        neg = tuple(-v for v in a)
    return mul(spec, (identity(spec)[0], -s), (neg, 0))


def generators(spec: GroupSpec) -> tuple[Element, ...]:
    """Symmetric generating set a, a^-1, t, t^-1, duplicates collapsed keeping
    the first occurrence.

    a is a unit of the normal part (lamp 0 lit, the residue 1, or the vector
    (1, 0)) and t is the time step, the identity's payload at time 1; their
    inverses come from ``inv``.
    """
    f = spec.family
    e = identity(spec)
    if f == "lamplighter-fin":
        a = ((1,) + e[0][1:], 0)
    elif f == "lamplighter-inf":
        a = (((0, 1),), 0)
    elif f == "bs-fin":
        a = (1, 0)
    else:
        a = ((1, 0), 0)
    t = (e[0], 1)
    out: list[Element] = []
    for g in (a, inv(spec, a), t, inv(spec, t)):
        if g != e and g not in out:
            out.append(g)
    return tuple(out)


def project(parent: GroupSpec, quotient: GroupSpec, x: Element) -> Element:
    """Canonical quotient map from an infinite parent onto its finite quotient.

    Also accepts identical specs (identity map).  The parent's payload is read
    in the quotient's coordinates, unreduced: lamp values summed over position
    classes mod n, and the bs m-adic u / m^e as u * m^((n-1)e), since m^n = 1
    mod q; the quotient's ``mul`` by its identity then reduces the result.
    """
    if parent == quotient:
        return x
    if (PARENT_FAMILY.get(quotient.family) != parent.family
            or (parent.m, parent.A) != (quotient.m, quotient.A)):
        raise IncompatibleSpecs(f"no canonical projection {parent} -> {quotient}")
    a, t = x
    if parent.family == "lamplighter-inf":
        lamps = [0] * quotient.n
        for i, v in a:
            lamps[i % quotient.n] += v
        a = tuple(lamps)
    elif parent.family == "bs-inf":
        u, e = a
        a = u * quotient.m ** ((quotient.n - 1) * e)
    return mul(quotient, identity(quotient), (a, t))


# ---------------------------------------------------------------------------
# canonical element strings

def to_string(spec: GroupSpec, x: Element) -> str:
    """Canonical string form, stable across runs; inverse of from_string."""
    f = spec.family
    if f == "lamplighter-fin":
        lamps, pos = x
        body = "".join(map(str, lamps)) if spec.m <= 10 else ",".join(map(str, lamps))
        return f"lamps:{body}|pos:{pos}"
    if f == "lamplighter-inf":
        lamps, pos = x
        body = ",".join(f"{i}={v}" for i, v in lamps)
        return f"lamps:{body}|pos:{pos}"
    if f == "bs-fin":
        a, t = x
        return f"a:{a}|t:{t}"
    if f == "bs-inf":
        (u, e), t = x
        body = str(u) if e == 0 else f"{u}/{spec.m}^{e}"
        return f"a:{body}|t:{t}"
    if f in ("sol-fin", "sol-inf"):
        (v1, v2), t = x
        return f"v:({v1},{v2})|t:{t}"
    raise FamilyMismatch(f"unknown family {f!r}")


def from_string(spec: GroupSpec, text: str) -> Element:
    """Parse the canonical string form; BadParam on any other string or type.

    The text's integers in order give an element x, and the text is accepted
    only as ``to_string`` of e x e, which ``mul`` by the identity e reduces x
    to.  So ``to_string`` alone states the syntax, every range and reduction
    rule is the group law's, and an element on which ``mul`` overflows is
    refused: a payload or time past the caps, or a bs-inf u / m^e at time t
    with exponent spread |e + t| > BS_EXPONENT_CAP.
    """
    if not isinstance(text, str):
        raise BadParam(f"element string {text!r} is not a str")
    e = identity(spec)
    try:
        x = mul(spec, mul(spec, e, _parse(spec, text)), e)
    except ValueError as exc:
        raise BadParam(f"malformed element string {text!r}") from exc
    except Overflow as exc:
        raise BadParam(f"element string {text!r} exceeds the arithmetic caps: {exc}") from exc
    # refuses wrong keys, separators and brackets, unreduced payloads, and any
    # sign, leading zero or character that to_string does not write
    canonical = to_string(spec, x)
    if canonical != text:
        raise BadParam(f"element string {text!r} is not in canonical form {canonical!r}")
    return x


def _parse(spec: GroupSpec, text: str) -> Element:
    """The unreduced element whose fields are the integers of ``text`` in order;
    ValueError unless their count fits the family's element shape."""
    f = spec.family
    ints = re.findall(r"-?[0-9]+", text)
    if f == "lamplighter-fin" and spec.m <= 10 and ints:
        ints[:1] = ints[0]  # the lamps, one digit each, written together
    *body, t = map(int, ints)
    if f == "lamplighter-fin" and len(body) == spec.n:
        return (tuple(body), t)
    if f == "lamplighter-inf" and len(body) % 2 == 0:  # (position, value) pairs
        return (tuple(zip(body[::2], body[1::2])), t)
    if f == "bs-fin" and len(body) == 1:
        return (body[0], t)
    if f == "bs-inf" and len(body) in (1, 3):  # u, or u / m^e
        return ((body[0], body[2] if len(body) == 3 else 0), t)
    if f in ("sol-fin", "sol-inf") and len(body) == 2:
        return (tuple(body), t)
    raise ValueError(f"{len(ints)} integers do not fill a {f} element")


# ---------------------------------------------------------------------------
# spec serialization

def spec_to_dict(spec: GroupSpec) -> dict:
    """JSON-ready dict holding only the defining parameters."""
    out: dict = {"family": spec.family}
    if spec.m is not None:
        out["m"] = spec.m
    if spec.n is not None:
        out["n"] = spec.n
    if spec.A is not None:
        out["A"] = [list(row) for row in spec.A]
    return out


# ---------------------------------------------------------------------------
# integer codes for finite families (vectorized scans)

class CodeSpace:
    """Perfect integer coding of a finite family's elements.

    Every finite family is N x| T, T cyclic of order ``time_order`` and N
    abelian, written as d digits mod a radix k with weights w_i (distinct
    powers of k); phi_s acts on digits as an integer matrix M_s mod k:

    * lamplighter-fin: T = n, k = m, lamp i of weight m^i, M_s the shift
      taking digit i - s to digit i;
    * bs-fin: T = n, k = q, one bare-int digit of weight 1, M_s = m^s mod q;
    * sol-fin: T = o(A, n), k = n, (v1, v2) of weights (n, 1), M_s = A^s mod n.

    A code is t + T * sum_i a_i w_i, so the digit sum indexes N as an array of
    shape ``normal_shape`` in C order; ``payload`` caches ``act_left``'s decode of one support.
    """

    def __init__(self, spec: GroupSpec):
        if not spec.finite:
            raise FamilyMismatch(f"codes need a finite family, got {spec.family}")
        self.spec = spec
        # per s, the rows and the columns of M_s as the (index, coefficient)
        # pairs of their nonzero entries, in exact Python integers
        def sparse(Ms):
            return [[[(j, c) for j, c in enumerate(row) if c] for row in M] for M in Ms]
        f, n = spec.family, spec.n
        if f == "lamplighter-fin":  # row i of M_s reads digit i - s, column j feeds j + s
            T, k, weights = n, spec.m, [spec.m**i for i in range(n)]
            lamps = [[(j, 1)] for j in range(n)]
            self._rows = [lamps[-s:] + lamps[:-s] for s in range(T)]
            self._cols = [lamps[s:] + lamps[:s] for s in range(T)]
        elif f == "bs-fin":
            T, k, weights = n, spec.q, [1]
            self._rows = self._cols = [[[(0, c)]] for c in _bs_pows(spec)]
        else:
            T, k, weights, Ms = spec.oA, n, [n, 1], _sol_pows(spec)
            self._rows, self._cols = sparse(Ms), sparse(zip(*M) for M in Ms)
        self.time_order, self.radix = T, k
        self.normal_shape = (k,) * len(weights)
        self._scalar = f == "bs-fin"
        self._weights = weights

    def encode(self, x: Element) -> int:
        a, t = x
        if not self._scalar:
            a = sum(map(operator.mul, a, self._weights))
        return t + self.time_order * a

    def decode(self, code: int) -> Element:
        a, t = divmod(code, self.time_order)
        digits = tuple(a // w % self.radix for w in self._weights)
        return (digits[0] if self._scalar else digits), t

    def encode_many(self, elements) -> np.ndarray:
        payloads, times = zip(*elements)
        digits = np.array(payloads, dtype=np.int64).reshape(len(times), -1)
        return np.array(times) + self.time_order * (digits @ np.array(self._weights))

    def decode_many(self, codes) -> list[Element]:
        """The elements of ``codes``, in order: the inverse of encode_many."""
        digits, t = self.payload(codes)
        payloads = digits[0].tolist() if self._scalar else zip(*(u.tolist() for u in digits))
        return list(zip(payloads, t.tolist()))

    def payload(self, codes: np.ndarray):
        """(digits, t): the list of digit arrays and the time array of ``codes``."""
        t, a = self.split(codes)
        return [_mod(a // w, self.radix) for w in self._weights], t

    def _twisted_index(self, rows, digits, offsets) -> np.ndarray:
        """The index into N of offsets + M digits mod k, M given by its sparse rows."""
        a = np.zeros(len(digits[0]), dtype=np.int64)
        for row, off, w in zip(rows, offsets, self._weights):
            # digits may be narrow (int32 codes, the character cache): widen before products
            d = [digits[j].astype(np.int64, copy=False) for j, _ in row]
            if not off and len(row) == 1 and row[0][1] == 1:
                u = d[0]  # a copied digit is already reduced
            else:
                u = _mod(sum((dj if c == 1 else c * dj for dj, (_, c) in zip(d, row)), off),
                         self.radix)
            a += u if w == 1 else u * w
        return a

    def act_left(self, g: Element, codes: np.ndarray, payload=None) -> np.ndarray:
        """Codes of g * x for every code x in ``codes``: (b + M_s a, s + t)."""
        if payload is None:
            payload = self.payload(codes)
        (digits, t), (b, s) = payload, g
        a = self._twisted_index(self._rows[s], digits, (b,) if self._scalar else b)
        return _mod(t + s, self.time_order) + self.time_order * a

    def act_right(self, g: Element, codes: np.ndarray) -> np.ndarray:
        """Codes of x * g = (a + M_t b, t + s) for every code x = (a, t) in ``codes``,
        in the dtype of ``codes``: every intermediate stays below the group order.
        Each code decodes only the digits that M_t b moves at its own time t."""
        (b, s), typed = g, codes.dtype.type  # typed scalars, so that no product widens
        T, k = typed(self.time_order), typed(self.radix)
        t = _mod(codes, T)
        out = codes + s  # a time step (b = 0) decodes no digit
        if s:
            out -= (t >= T - s) * T  # t + s wraps past T
        for unit, shift in self._moves(b, codes.dtype):
            if not isinstance(unit, int):
                unit = unit.take(t)
            u = _mod(codes // unit, k)
            v = u + shift.take(t)
            v -= (v >= k) * k  # the digit u + shift, mod k
            out += (v - u) * unit
        return out

    @lru_cache(maxsize=64)  # a BFS steps every level by the same few generators
    def _moves(self, b, dtype) -> tuple:
        """(unit, shift) for each rank j: over the time index t, the unit T w_i
        and (M_t b)_i of the j-th digit i that M_t b moves, padded with the
        no-op shift 0; a unit equal at every t is one int, a cheaper divisor.
        M_t b is the payload of (0, t)(b, 0), reduced by ``mul`` in Python ints."""
        e, T = identity(self.spec)[0], self.time_order
        moved = []
        for t in range(T):
            a = mul(self.spec, (e, t), (b, 0))[0]
            a = (a,) if self._scalar else a
            moved.append([(T * w, v) for w, v in zip(self._weights, a) if v])
        depth = max(map(len, moved))
        ranks = zip(*(m + [(T, 0)] * (depth - len(m)) for m in moved))
        return tuple((int(unit[0]) if (unit == unit[0]).all() else unit, shift)
                     for unit, shift in (np.array(rank, dtype=dtype).T for rank in ranks))

    def split(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t, a) of each code: the time index and the flat index into N."""
        return np.divmod(codes, self.time_order)[::-1]

    @cached_property
    def _characters(self) -> list[np.ndarray]:
        """The digits of every character k (k indexes N as codes at time 0 do), in
        the narrowest dtype that holds a digit; decoded one digit at a time, so
        no more than one int64 digit array is alive at once."""
        k = np.arange(self.spec.order // self.time_order)
        narrow = np.min_scalar_type(self.radix - 1)
        return [_mod(k // w, self.radix).astype(narrow) for w in self._weights]

    def dual_twist(self, s: int) -> np.ndarray:
        """phi_s^T on the characters of N, as an index array.

        Characters k are indexed like N itself, and the Fourier transform of
        f o phi_-s over N is the transform of f read at M_s^T k: the lamp
        shift by -s, multiplication by m^s for bs, and the transpose of A^s
        (not A^s) for sol.
        """
        return self._twisted_index(self._cols[s], self._characters, repeat(0))


@lru_cache(maxsize=8)
def code_space(spec: GroupSpec) -> CodeSpace:
    """The ``CodeSpace`` of a finite ``spec``, built once and shared by every layer."""
    return CodeSpace(spec)


def _mod(x: np.ndarray, k: int) -> np.ndarray:
    """x % k for an integer array: numpy's remainder costs several floor divisions."""
    return x - x // k * k

