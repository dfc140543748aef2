import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cayleydist
from cayleydist import (
    BadMatrix,
    BadParam,
    CapExceeded,
    CodeSpace,
    IncompatibleSpecs,
    Overflow,
    bfs_ball,
    from_string,
    generators,
    identity,
    inv,
    make_spec,
    matrix_order,
    mul,
    project,
    spec_to_dict,
    to_string,
)
from cayleydist.cayley import INF_RADIUS_CAP
from cayleydist.groups import left_step, right_step
from conftest import CODE_FAMILIES

A_DEFAULT = ((2, 1), (1, 1))


def _ints(x):
    """The integers of a nested tuple, depth first."""
    if isinstance(x, tuple):
        for y in x:
            yield from _ints(y)
    else:
        yield x


def random_element(spec, rng):
    """Uniform payload for finite specs, short random word for infinite ones."""
    f = spec.family
    if f == "lamplighter-fin":
        return (tuple(rng.randrange(spec.m) for _ in range(spec.n)),
                rng.randrange(spec.n))
    if f == "bs-fin":
        return (rng.randrange(spec.q), rng.randrange(spec.n))
    if f == "sol-fin":
        return ((rng.randrange(spec.n), rng.randrange(spec.n)),
                rng.randrange(spec.oA))
    gens = generators(spec)
    x = identity(spec)
    for _ in range(rng.randrange(1, 12)):
        x = mul(spec, x, rng.choice(gens))
    return x


ALL_SPECS = [
    make_spec("lamplighter-fin", m=2, n=4),
    make_spec("lamplighter-fin", m=3, n=3),
    make_spec("bs-fin", m=2, n=4),
    make_spec("bs-fin", m=3, n=3),
    make_spec("sol-fin", n=5),
    make_spec("lamplighter-inf", m=2),
    make_spec("lamplighter-inf", m=3),
    make_spec("bs-inf", m=2),
    make_spec("sol-inf"),
]


class TestMakeSpec:
    def test_lamplighter_order(self):
        spec = make_spec("lamplighter-fin", m=2, n=4)
        assert spec.order == 64

    def test_bs_modulus_and_order(self):
        spec = make_spec("bs-fin", m=2, n=4)
        assert spec.q == 15
        assert spec.order == 60

    def test_sol_twist_order(self):
        spec = make_spec("sol-fin", n=5)
        assert spec.A == A_DEFAULT
        assert spec.oA == 10
        assert spec.order == 250

    def test_param_range(self):
        with pytest.raises(BadParam):
            make_spec("lamplighter-fin", m=1, n=4)
        with pytest.raises(BadParam):
            make_spec("bs-fin", m=2, n=1)
        with pytest.raises(BadParam):
            make_spec("nonsense", m=2, n=2)

    @pytest.mark.parametrize("kw", [dict(m=2.7, n=3), dict(m=2, n=3.9), dict(m=2.0, n=3),
                                    dict(m="2", n=3), dict(m=[2], n=3),
                                    dict(m=2, n=float("nan")), dict(m=2, n=float("inf"))],
                             ids=repr)
    def test_non_integer_params_refused(self, kw):
        # 2.7 and 3.9 were truncated, "2" accepted, [2] leaked TypeError, nan ValueError
        name = next(k for k, v in kw.items() if type(v) is not int)
        with pytest.raises(BadParam, match=f"^{name} .* must be an integer"):
            make_spec("bs-fin", **kw)

    def test_integer_like_params_accepted(self):
        assert make_spec("bs-fin", m=np.int64(2), n=np.int64(3)) == make_spec("bs-fin", m=2, n=3)
        assert type(make_spec("lamplighter-fin", m=np.int64(2), n=4).m) is int

    def test_missing_and_small_param_messages(self):
        with pytest.raises(BadParam, match="^family bs-fin needs m >= 2, got None$"):
            make_spec("bs-fin", n=3)
        with pytest.raises(BadParam, match="^family sol-fin needs n >= 2, got 1$"):
            make_spec("sol-fin", n=1)
        with pytest.raises(BadParam, match="^family lamplighter-inf needs m >= 2, got 1$"):
            make_spec("lamplighter-inf", m=1)

    def test_param_shape(self):
        with pytest.raises(BadParam):
            make_spec("sol-fin", m=2, n=5)
        with pytest.raises(BadParam):
            make_spec("lamplighter-inf", m=2, n=3)
        with pytest.raises(BadParam):
            make_spec("bs-fin", m=2, n=3, A=[[2, 1], [1, 1]])

    def test_matrix_guard(self):
        with pytest.raises(BadMatrix):
            make_spec("sol-fin", n=5, A=[[1, 1], [0, 2]])  # det 2
        with pytest.raises(BadMatrix):
            make_spec("sol-fin", n=5, A=[[1, 1], [0, 1]])  # det 1, trace 2
        with pytest.raises(BadMatrix):
            make_spec("sol-fin", n=5, A=[[0, 1], [1, 0]])  # det -1, trace 0
        make_spec("sol-fin", n=5, A=[[1, 1], [1, 0]])  # det -1, trace 1: fine

    @pytest.mark.parametrize("A", [[[1, 2, 3], [4, 5, 6]], [[2, 1]]], ids=repr)
    def test_matrix_not_2x2_refused(self, A):
        with pytest.raises(BadMatrix, match="^matrix must be 2x2"):
            make_spec("sol-fin", n=5, A=A)

    @pytest.mark.parametrize("A", [[[2, 1], [1, True]], [[2, 1], [1, "1"]],
                                   [[2, 1], [1, np.True_]]], ids=repr)
    def test_matrix_entries_must_be_integers(self, A):
        """operator.index reads True as 1: a bool entry is refused like 1.5 or "1"."""
        with pytest.raises(BadMatrix, match="integer array"):
            make_spec("sol-inf", A=A)

    def test_generators_must_generate(self):
        # (1,0) and t generate exactly when A[1][0] is a unit mod n (of Z for sol-inf)
        A = ((3, 1), (2, 1))
        for n in (6, 10):
            with pytest.raises(BadMatrix, match=f"= 2 is not a unit in Z/{n}:"):
                make_spec("sol-fin", n=n, A=A)
        with pytest.raises(BadMatrix, match="not a unit in Z:"):
            make_spec("sol-inf", A=A)
        assert bfs_ball(make_spec("sol-fin", n=9, A=A), None).complete

    def test_order_cap(self):
        with pytest.raises(CapExceeded):
            make_spec("lamplighter-fin", m=2, n=22)


class TestMatrixOrder:
    @pytest.mark.parametrize("n,expected", [(2, 3), (3, 4), (5, 10), (7, 8), (11, 5), (13, 14)])
    def test_default_matrix(self, n, expected):
        assert matrix_order(A_DEFAULT, n) == expected

    def test_identity_matrix(self):
        assert matrix_order(((1, 0), (0, 1)), 7) == 1

    def test_order_is_exact(self):
        # A^o = I and A^d != I for every proper divisor d
        for n in (2, 3, 5, 7, 11, 13):
            o = matrix_order(A_DEFAULT, n)
            M = ((1, 0), (0, 1))
            powers = {}
            for k in range(1, o + 1):
                M = tuple(
                    tuple((M[i][0] * A_DEFAULT[0][j] + M[i][1] * A_DEFAULT[1][j]) % n
                          for j in range(2))
                    for i in range(2)
                )
                powers[k] = M
            ident = ((1 % n, 0), (0, 1 % n))
            assert powers[o] == ident
            for d in range(1, o):
                if o % d == 0:
                    assert powers[d] != ident

    def test_cap(self):
        with pytest.raises(CapExceeded):
            matrix_order(A_DEFAULT, 10**6 + 3, cap=10)

    def test_singular_matrix(self):
        with pytest.raises(BadMatrix):
            matrix_order(((2, 0), (0, 2)), 5)

    def test_modulus_below_one_refused(self):
        with pytest.raises(BadParam, match="^modulus n = 0 must be >= 1$"):
            matrix_order(A_DEFAULT, 0)


class TestArithmetic:
    def test_wreath_law_example(self):
        spec = make_spec("lamplighter-fin", m=2, n=4)
        x = ((1, 0, 0, 0), 1)
        assert mul(spec, x, x) == ((1, 1, 0, 0), 2)

    def test_move_inverse(self):
        spec = make_spec("lamplighter-fin", m=2, n=4)
        assert inv(spec, ((0, 0, 0, 0), 1)) == ((0, 0, 0, 0), 3)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_identity_neutral(self, spec):
        rng = random.Random(11)
        e = identity(spec)
        for _ in range(50):
            x = random_element(spec, rng)
            assert mul(spec, x, e) == x
            assert mul(spec, e, x) == x

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_group_axioms(self, spec):
        rng = random.Random(7)
        e = identity(spec)
        for _ in range(1000):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            z = random_element(spec, rng)
            assert mul(spec, mul(spec, x, y), z) == mul(spec, x, mul(spec, y, z))
            assert mul(spec, x, inv(spec, x)) == e
            assert mul(spec, inv(spec, x), x) == e

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.finite], ids=str)
    def test_time_index_read_mod_time_order(self, spec):
        """A finite family's mul reads x's time index mod its time order T, as inv does."""
        T = spec.oA if spec.family == "sol-fin" else spec.n
        rng = random.Random(5)
        for _ in range(200):
            (a, s), y = random_element(spec, rng), random_element(spec, rng)
            for k in (1, 3):
                assert mul(spec, (a, s + k * T), y) == mul(spec, (a, s), y)

    def test_bs_inf_stays_reduced(self):
        spec = make_spec("bs-inf", m=2)
        rng = random.Random(3)
        for _ in range(500):
            x = random_element(spec, rng)
            (u, e), _t = x
            assert e >= 0
            assert e == 0 or u % 2 != 0

    def test_bs_inf_overflow(self):
        spec = make_spec("bs-inf", m=2)
        with pytest.raises(Overflow):
            mul(spec, ((1, 0), -200), ((1, 0), 0))

    def test_sol_inf_twist_power_past_cap(self):
        with pytest.raises(Overflow, match=r"^twist power \|t\| = 3000 exceeds cap 2048$"):
            mul(make_spec("sol-inf"), ((0, 0), 3000), ((1, 0), 0))

    def test_sol_inf_product_time_past_cap(self):
        """Both factors are within the cap, their product's time is not."""
        with pytest.raises(Overflow, match=r"^twist power \|t\| = 2100 exceeds cap 2048$"):
            mul(make_spec("sol-inf"), ((0, 0), 2000), ((1, 0), 100))

    @pytest.mark.parametrize("x", [((1, 0), -600), ((5, 0), 516)], ids=str)
    def test_bs_inf_inverse_past_cap(self, x):
        """inv is a product through mul, so an inverse whose exponent spread
        |e + s| exceeds the cap raises mul's Overflow."""
        with pytest.raises(Overflow, match="^exponent spread exceeds cap 512$"):
            inv(make_spec("bs-inf", m=2), x)

    def test_sol_inf_twist_power_up_to_cap(self):
        """A^t on a cold cache, in a fresh interpreter: |t| = 2000 is computed,
        not cut off by the recursion limit, and |t| = 2049 > SOL_TIME_CAP is
        the documented Overflow."""
        code = ("from cayleydist import Overflow, make_spec, mul\n"
                "spec = make_spec('sol-inf')\n"
                "for t in (2000, -2000):\n"
                "    print(len(str(mul(spec, ((0, 0), t), ((1, 0), 0)))))\n"
                "for t in (2049, -2049):\n"
                "    try:\n"
                "        mul(spec, ((0, 0), t), ((1, 0), 0))\n"
                "    except Overflow as exc:\n"
                "        print(exc)\n")
        src = str(Path(cayleydist.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        lines = done.stdout.splitlines()
        assert len(lines) == 4 and all(int(n) > 1000 for n in lines[:2])
        assert lines[2:] == ["twist power |t| = 2049 exceeds cap 2048"] * 2


RIGHT_STEP_SPECS = [make_spec("lamplighter-inf", m=2), make_spec("lamplighter-inf", m=5),
                    make_spec("bs-inf", m=2), make_spec("bs-inf", m=10**6), make_spec("sol-inf"),
                    make_spec("sol-inf", A=((3, 2), (1, 1))),
                    make_spec("sol-inf", A=((1, 1), (1, 0))),
                    make_spec("lamplighter-fin", m=2, n=5)]  # finite ones go through mul


def _outcome(step, x):
    """(step(x), None), or (None, type and message) of the Overflow it raises."""
    try:
        return step(x), None
    except Overflow as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(RIGHT_STEP_SPECS),
       st.lists(st.integers(0, 3), max_size=INF_RADIUS_CAP))
@example(make_spec("bs-inf", m=10**6), [2] * 7 + [0])  # u = m^7 needs more than 128 bits
def test_right_step_equals_mul(spec, word):
    """right_step(spec, g)(x) == mul(spec, x, g), Overflow included, for every
    generator g and every prefix x of a word no longer than INF_RADIUS_CAP."""
    gens = generators(spec)
    steps = [right_step(spec, g) for g in gens]
    x = identity(spec)
    for k in word + [None]:
        want = [_outcome(lambda y, g=g: mul(spec, y, g), x) for g in gens]
        assert [_outcome(step, x) for step in steps] == want
        if k is None:
            break
        x, err = want[k % len(gens)]
        if err:
            break  # the word's next letter overflows


@pytest.mark.parametrize("m", [2, 3, 5])
def test_lamp_pairs_are_shared(m):
    """Every lit lamp of a tuple ball is one shared (position, value) object per
    distinct pair, whichever generator lit it, not one per insertion."""
    table = bfs_ball(make_spec("lamplighter-inf", m=m), 6)
    pairs = [pair for lamps, _ in table.elements for pair in lamps]
    assert len(pairs) > 10 * len(set(pairs))
    assert len({id(pair) for pair in pairs}) == len(set(pairs))


@pytest.mark.parametrize("spec", CODE_FAMILIES + [make_spec("lamplighter-inf", m=3),
                                   make_spec("bs-inf", m=2), make_spec("sol-inf")], ids=str)
def test_left_step_equals_mul(spec):
    """left_step(spec, g)(x) == mul(spec, g, x) for every g in the radius-3
    ball (generators, and lamps lit at two places), and every x of a finite
    group, or of the radius-3 ball of an infinite one, which steps by ``mul``."""
    xs = list(bfs_ball(spec, None if spec.finite else 3).dist)
    for g in bfs_ball(spec, 3).dist:
        step = left_step(spec, g)
        assert [step(x) for x in xs] == [mul(spec, g, x) for x in xs]


@pytest.mark.parametrize("x, message", [
    (((1, 0), -600), "exponent spread exceeds cap 512"),
    (((1, 500), 20), "exponent spread exceeds cap 512"),
    (((1, 0), 513), "exponent spread exceeds cap 512"),
    (((1, 0), 512), "numerator needs more than 128 bits"),
    (((3, 0), -512), "numerator needs more than 128 bits"),
])
def test_bs_plane_step_overflow_past_radius_cap(x, message):
    """Beyond any BFS radius the bs-inf plane steps a and a^-1 still raise the
    Overflow of ``mul``: the exponent spread first, then the numerator."""
    spec = make_spec("bs-inf", m=2)
    for g in generators(spec)[:2]:
        want = _outcome(lambda y: mul(spec, y, g), x)
        assert want[1][0] is Overflow and want[1][1].startswith(message)
        assert _outcome(right_step(spec, g), x) == want


@st.composite
def _inverse_case(draw):
    """A spec and an element: uniform for a finite spec, a random word for an
    infinite one, or a bs-inf u / m^e at time t near the caps, reduced by e x."""
    spec = draw(st.sampled_from(ALL_SPECS + [make_spec("bs-inf", m=3)]))
    if spec.family == "bs-inf" and draw(st.booleans()):
        u = draw(st.sampled_from([1, -1, 3, 2**127 - 1]))
        e, t = draw(st.sampled_from([0, 1, 511, 512])), draw(st.integers(-700, 700))
        return spec, mul(spec, identity(spec), ((u, e), t))
    return spec, random_element(spec, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_inverse_case())
@example((make_spec("bs-inf", m=2), ((5, 0), 516)))
def test_inverse_within_caps(case):
    """inv(x) raises Overflow or returns y with x y = e = y x, and from_string
    accepts y's string: no inverse leaves the caps of mul."""
    spec, x = case
    try:
        y = inv(spec, x)
    except Overflow:
        return
    e = identity(spec)
    assert mul(spec, x, y) == e == mul(spec, y, x)
    assert from_string(spec, to_string(spec, y)) == y


A_32 = ((3, 2), (1, 1))
A_FIB = ((1, 1), (1, 0))
GENERATORS = [
    ("lamplighter-fin", dict(m=2, n=2), (((1, 0), 0), ((0, 0), 1))),
    ("lamplighter-fin", dict(m=2, n=3),
     (((1, 0, 0), 0), ((0, 0, 0), 1), ((0, 0, 0), 2))),
    ("lamplighter-fin", dict(m=3, n=2), (((1, 0), 0), ((2, 0), 0), ((0, 0), 1))),
    ("lamplighter-fin", dict(m=3, n=3),
     (((1, 0, 0), 0), ((2, 0, 0), 0), ((0, 0, 0), 1), ((0, 0, 0), 2))),
    ("lamplighter-inf", dict(m=2), ((((0, 1),), 0), ((), 1), ((), -1))),
    ("lamplighter-inf", dict(m=3), ((((0, 1),), 0), (((0, 2),), 0), ((), 1), ((), -1))),
    ("bs-fin", dict(m=2, n=2), ((1, 0), (2, 0), (0, 1))),
    ("bs-fin", dict(m=2, n=3), ((1, 0), (6, 0), (0, 1), (0, 2))),
    ("bs-fin", dict(m=3, n=2), ((1, 0), (7, 0), (0, 1))),
    ("bs-fin", dict(m=3, n=3), ((1, 0), (25, 0), (0, 1), (0, 2))),
    ("bs-inf", dict(m=2), (((1, 0), 0), ((-1, 0), 0), ((0, 0), 1), ((0, 0), -1))),
    ("bs-inf", dict(m=3), (((1, 0), 0), ((-1, 0), 0), ((0, 0), 1), ((0, 0), -1))),
    ("sol-fin", dict(n=2), (((1, 0), 0), ((0, 0), 1), ((0, 0), 2))),
    ("sol-fin", dict(n=3), (((1, 0), 0), ((2, 0), 0), ((0, 0), 1), ((0, 0), 3))),
    ("sol-fin", dict(n=5), (((1, 0), 0), ((4, 0), 0), ((0, 0), 1), ((0, 0), 9))),
    ("sol-fin", dict(n=2, A=A_32), (((1, 0), 0), ((0, 0), 1))),
    ("sol-fin", dict(n=3, A=A_32), (((1, 0), 0), ((2, 0), 0), ((0, 0), 1), ((0, 0), 5))),
    ("sol-fin", dict(n=5, A=A_32), (((1, 0), 0), ((4, 0), 0), ((0, 0), 1), ((0, 0), 2))),
    ("sol-fin", dict(n=2, A=A_FIB), (((1, 0), 0), ((0, 0), 1), ((0, 0), 2))),
    ("sol-fin", dict(n=3, A=A_FIB), (((1, 0), 0), ((2, 0), 0), ((0, 0), 1), ((0, 0), 7))),
    ("sol-fin", dict(n=5, A=A_FIB), (((1, 0), 0), ((4, 0), 0), ((0, 0), 1), ((0, 0), 19))),
] + [("sol-inf", dict(A=A), (((1, 0), 0), ((-1, 0), 0), ((0, 0), 1), ((0, 0), -1)))
     for A in (A_DEFAULT, A_32, A_FIB)]


class TestGenerators:
    @pytest.mark.parametrize("family, params, want", GENERATORS,
                             ids=[f"{f}-{p}" for f, p, _ in GENERATORS])
    def test_literal_generators(self, family, params, want):
        """a, a^-1, t, t^-1 in that order, duplicates and the identity dropped."""
        assert generators(make_spec(family, **params)) == want

    def test_lamplighter_m2_collapses(self):
        spec = make_spec("lamplighter-fin", m=2, n=4)
        gens = generators(spec)
        assert len(gens) == 3

    def test_bs33_all_distinct(self):
        gens = generators(make_spec("bs-fin", m=3, n=3))
        assert len(gens) == 4

    def test_l22_two_involutions(self):
        spec = make_spec("lamplighter-fin", m=2, n=2)
        gens = generators(spec)
        assert len(gens) == 2
        for g in gens:
            assert mul(spec, g, g) == identity(spec)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_symmetric_no_identity(self, spec):
        gens = generators(spec)
        assert identity(spec) not in gens
        assert len(set(gens)) == len(gens) <= 4
        assert {inv(spec, g) for g in gens} == set(gens)


class TestProject:
    def test_identity_maps_to_identity(self):
        parent = make_spec("lamplighter-inf", m=2)
        quotient = make_spec("lamplighter-fin", m=2, n=3)
        assert project(parent, quotient, identity(parent)) == identity(quotient)

    def test_lamp_position_wraps(self):
        parent = make_spec("lamplighter-inf", m=2)
        quotient = make_spec("lamplighter-fin", m=2, n=3)
        assert project(parent, quotient, (((4, 1),), 0)) == ((0, 1, 0), 0)

    def test_bs_dyadic_inverse(self):
        parent = make_spec("bs-inf", m=2)
        quotient = make_spec("bs-fin", m=2, n=4)
        # 1/2 maps to the inverse of 2 mod 15, which is 8
        assert project(parent, quotient, ((1, 1), 0)) == (8, 0)

    def test_same_spec_is_identity_map(self):
        spec = make_spec("sol-fin", n=5)
        x = ((2, 3), 4)
        assert project(spec, spec, x) == x

    def test_incompatible(self):
        with pytest.raises(IncompatibleSpecs):
            project(make_spec("lamplighter-inf", m=2),
                    make_spec("lamplighter-fin", m=3, n=3), ((), 0))
        with pytest.raises(IncompatibleSpecs):
            project(make_spec("bs-inf", m=2),
                    make_spec("lamplighter-fin", m=2, n=3), ((0, 0), 0))
        # another twist, another m, and a finite group onto a smaller one
        with pytest.raises(IncompatibleSpecs, match="no canonical projection"):
            project(make_spec("sol-inf", A=((3, 2), (1, 1))), make_spec("sol-fin", n=5),
                    ((0, 0), 0))
        with pytest.raises(IncompatibleSpecs, match="no canonical projection"):
            project(make_spec("bs-inf", m=2), make_spec("bs-fin", m=3, n=3), ((0, 0), 0))
        with pytest.raises(IncompatibleSpecs, match="no canonical projection"):
            project(make_spec("lamplighter-fin", m=2, n=5),
                    make_spec("lamplighter-fin", m=2, n=4), ((0,) * 5, 0))

    @pytest.mark.parametrize("pair", [
        ("lamplighter-inf", dict(m=2), "lamplighter-fin", dict(m=2, n=4)),
        ("lamplighter-inf", dict(m=3), "lamplighter-fin", dict(m=3, n=3)),
        ("bs-inf", dict(m=2), "bs-fin", dict(m=2, n=5)),
        ("sol-inf", dict(), "sol-fin", dict(n=5)),
    ])
    def test_homomorphism(self, pair):
        pf, pkw, qf, qkw = pair
        parent, quotient = make_spec(pf, **pkw), make_spec(qf, **qkw)
        rng = random.Random(13)
        for _ in range(1000):
            x = random_element(parent, rng)
            y = random_element(parent, rng)
            lhs = project(parent, quotient, mul(parent, x, y))
            rhs = mul(quotient, project(parent, quotient, x),
                      project(parent, quotient, y))
            assert lhs == rhs

    @pytest.mark.parametrize("pair", [
        ("lamplighter-inf", dict(m=2), "lamplighter-fin", dict(m=2, n=4)),
        ("bs-inf", dict(m=2), "bs-fin", dict(m=2, n=5)),
        ("sol-inf", dict(), "sol-fin", dict(n=5)),
    ])
    def test_generators_map_to_generators(self, pair):
        pf, pkw, qf, qkw = pair
        parent, quotient = make_spec(pf, **pkw), make_spec(qf, **qkw)
        image = {project(parent, quotient, g) for g in generators(parent)}
        assert image == set(generators(quotient))


class TestSerialization:
    def test_canonical_forms(self):
        cases = [
            (make_spec("lamplighter-fin", m=2, n=4), ((0, 1, 1, 0), 2), "lamps:0110|pos:2"),
            (make_spec("bs-fin", m=2, n=4), (8, 1), "a:8|t:1"),
            (make_spec("bs-inf", m=2), ((5, 3), -2), "a:5/2^3|t:-2"),
            (make_spec("bs-inf", m=2), ((-3, 0), 1), "a:-3|t:1"),
            (make_spec("sol-fin", n=11), ((3, 4), 3), "v:(3,4)|t:3"),
            (make_spec("lamplighter-inf", m=5), (((-2, 3), (4, 1)), 5), "lamps:-2=3,4=1|pos:5"),
            (make_spec("lamplighter-inf", m=2), ((), -1), "lamps:|pos:-1"),
        ]
        for spec, x, text in cases:
            assert to_string(spec, x) == text
            assert from_string(spec, text) == x

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_round_trip(self, spec):
        rng = random.Random(5)
        for _ in range(200):
            x = random_element(spec, rng)
            assert from_string(spec, to_string(spec, x)) == x

    def test_malformed(self):
        spec = make_spec("bs-fin", m=2, n=4)
        for text in ["", "a:1", "x:1|t:0", "a:99|t:0", "a:1|t:9", "a:1|t:0|z:1",
                     None, 5, b"a:1|t:0"]:
            with pytest.raises(BadParam):
                from_string(spec, text)

    @pytest.mark.parametrize("spec, text", [
        (make_spec("lamplighter-fin", m=2, n=4), "lamps:0120|pos:0"),
        (make_spec("lamplighter-fin", m=2, n=4), "lamps:0100|pos:4"),
        (make_spec("lamplighter-fin", m=12, n=3), "lamps:12,0,0|pos:0"),
        (make_spec("lamplighter-inf", m=3), "lamps:1=1,0=2|pos:0"),
        (make_spec("lamplighter-inf", m=3), "lamps:0=1,0=2|pos:0"),
        (make_spec("lamplighter-inf", m=3), "lamps:0=3|pos:0"),
        (make_spec("bs-fin", m=2, n=4), "a:15|t:0"),
        (make_spec("bs-fin", m=2, n=4), "a:1|t:4"),
        (make_spec("bs-inf", m=2), "a:2/2^1|t:0"),
        (make_spec("bs-inf", m=2), "a:0/2^3|t:0"),
        (make_spec("bs-inf", m=2), "a:1/2^0|t:0"),
        (make_spec("bs-inf", m=2), "a:1/2^-1|t:0"),
        (make_spec("sol-fin", n=5), "v:(5,0)|t:0"),
        (make_spec("sol-fin", n=5), "v:(0,0)|t:10"),
    ], ids=str)
    def test_unreduced_refused(self, spec, text):
        """A string that mul by the identity reduces to another element's string."""
        with pytest.raises(BadParam, match="is not in canonical form"):
            from_string(spec, text)

    @pytest.mark.parametrize("text, accepted", [
        ("a:1/2^512|t:0", True),
        ("a:1/2^513|t:0", False),
        (f"a:{2**127 - 1}|t:0", True),
        (f"a:{2**127 + 1}|t:0", False),
        (f"a:-{2**127 + 1}/2^3|t:1", False),
    ], ids=["e512", "e513", "u2^127-1", "u2^127+1", "-u2^127-1/2^3"])
    def test_bs_inf_caps(self, text, accepted):
        """A canonical bs-inf string past the caps of mul is refused, since mul by
        the identity overflows on it; the caps themselves are accepted."""
        spec = make_spec("bs-inf", m=2)
        if accepted:
            assert to_string(spec, from_string(spec, text)) == text
        else:
            with pytest.raises(BadParam, match="exceeds the arithmetic caps"):
                from_string(spec, text)

    @pytest.mark.parametrize("t, accepted", [
        (2048, True), (-2048, True), (2049, False), (-2049, False), (3000, False),
    ])
    def test_sol_inf_time_cap(self, t, accepted):
        """A sol-inf time past SOL_TIME_CAP is refused, since mul by the identity
        overflows on it; at the cap, inv and mul by a generator still work."""
        spec = make_spec("sol-inf")
        text = f"v:(0,0)|t:{t}"
        if accepted:
            x = from_string(spec, text)
            assert to_string(spec, x) == text
            assert inv(spec, x)[1] == -t
            assert mul(spec, x, generators(spec)[0])[1] == t
        else:
            with pytest.raises(BadParam, match="exceeds the arithmetic caps"):
                from_string(spec, text)

    @pytest.mark.parametrize("text, inverse", [
        ("a:1|t:512", "a:-1/2^512|t:-512"),
        ("a:1/2^512|t:-512", "a:-1|t:512"),
        ("a:1|t:-512", Overflow),  # -2^512 at time 512: past the numerator cap
        ("a:1|t:513", BadParam),
        ("a:1|t:600", BadParam),
        ("a:1|t:-600", BadParam),
        ("a:1/2^300|t:300", BadParam),
    ])
    def test_bs_inf_time_cap(self, text, inverse):
        """A bs-inf u / m^e at time t with exponent spread |e + t| past
        BS_EXPONENT_CAP is refused, since mul by the identity on the right
        overflows on it; at the cap, mul by the identity keeps x, and inv
        fails only where its numerator passes the 128-bit cap."""
        spec = make_spec("bs-inf", m=2)
        if inverse is BadParam:
            with pytest.raises(BadParam, match="exceeds the arithmetic caps"):
                from_string(spec, text)
            return
        x = from_string(spec, text)
        assert to_string(spec, x) == text
        assert mul(spec, x, identity(spec)) == x
        if inverse is Overflow:
            with pytest.raises(Overflow, match="^numerator needs more than 128 bits"):
                inv(spec, x)
        else:
            assert to_string(spec, inv(spec, x)) == inverse
            assert from_string(spec, inverse) == inv(spec, x)

    def test_wide_alphabet_lamps(self):
        spec = make_spec("lamplighter-fin", m=12, n=3)
        x = ((11, 0, 7), 2)
        text = to_string(spec, x)
        assert from_string(spec, text) == x

    @pytest.mark.parametrize("spec, text", [
        (make_spec("bs-fin", m=2, n=4), "a:x|t:0"),
        (make_spec("bs-fin", m=2, n=4), "a:1|t:y"),
        (make_spec("lamplighter-fin", m=2, n=4), "lamps:0a01|pos:0"),
        (make_spec("lamplighter-inf", m=2), "lamps:1|pos:0"),
        (make_spec("lamplighter-inf", m=2), "lamps:1=x|pos:0"),
        (make_spec("sol-fin", n=5), "v:(1)|t:0"),
        (make_spec("sol-fin", n=5), "v:(1,2,3)|t:0"),
        (make_spec("bs-inf", m=2), "a:1/2^x|t:0"),
        (make_spec("bs-inf", m=2), "a:1/2|t:0"),
    ], ids=str)
    def test_unparsable_payload_is_bad_param(self, spec, text):
        with pytest.raises(BadParam, match="malformed element string"):
            from_string(spec, text)


STRING_SPECS = ALL_SPECS + [make_spec("lamplighter-fin", m=12, n=3)]  # with comma-separated lamps
# the grammar's characters, plus ones int() reads but no canonical string holds
STRING_ALPHABET = "lampsotv:|,=/^()-0123456789" + " +_\u0663"


@st.composite
def _element_text(draw):
    """A spec and either a string over STRING_ALPHABET or the canonical
    string of an element (a word of up to 12 generators) with a few
    characters inserted, deleted or replaced."""
    spec = draw(st.sampled_from(STRING_SPECS))
    if draw(st.booleans()):
        return spec, draw(st.text(STRING_ALPHABET, max_size=24))
    gens = generators(spec)
    x = identity(spec)
    for k in draw(st.lists(st.integers(0, 3), max_size=12)):
        x = mul(spec, x, gens[k % len(gens)])
    chars = list(to_string(spec, x))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(chars)))
        c = draw(st.sampled_from(STRING_ALPHABET))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            chars.insert(i, c)
        elif i < len(chars):
            chars[i:i + 1] = [c] if edit == "replace" else []
    return spec, "".join(chars)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_element_text())
def test_from_string_fuzz(case):
    """Every string parses to the element whose canonical string it is, or is
    refused with BadParam."""
    spec, text = case
    try:
        x = from_string(spec, text)
    except BadParam:
        return
    assert to_string(spec, x) == text


class TestSpecJson:
    def test_examples(self):
        d = spec_to_dict(make_spec("lamplighter-fin", m=2, n=8))
        assert d == {"family": "lamplighter-fin", "m": 2, "n": 8}
        d = spec_to_dict(make_spec("sol-fin", n=5))
        assert d == {"family": "sol-fin", "n": 5, "A": [[2, 1], [1, 1]]}

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_round_trip(self, spec):
        assert make_spec(**json.loads(json.dumps(spec_to_dict(spec)))) == spec


class TestCodeSpace:
    @pytest.mark.parametrize("spec", [
        make_spec("lamplighter-fin", m=2, n=4),
        make_spec("lamplighter-fin", m=3, n=3),
        make_spec("bs-fin", m=2, n=4),
        make_spec("sol-fin", n=3),
    ], ids=str)
    def test_bijection(self, spec):
        cs = CodeSpace(spec)
        seen = set()
        for code in range(spec.order):
            x = cs.decode(code)
            assert cs.encode(x) == code
            seen.add(x)
        assert len(seen) == spec.order

    @pytest.mark.parametrize("spec", [
        make_spec("lamplighter-fin", m=2, n=4),
        make_spec("lamplighter-fin", m=3, n=3),
        make_spec("bs-fin", m=3, n=3),
        make_spec("sol-fin", n=5),
    ], ids=str)
    def test_act_left_matches_mul(self, spec):
        import numpy as np

        cs = CodeSpace(spec)
        rng = random.Random(17)
        xs = [random_element(spec, rng) for _ in range(64)]
        codes = cs.encode_many(xs)
        payload = cs.payload(codes)
        for _ in range(25):
            g = random_element(spec, rng)
            out = cs.act_left(g, codes, payload)
            expected = np.array([cs.encode(mul(spec, g, x)) for x in xs])
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_act_right_matches_mul(self, spec):
        cs = CodeSpace(spec)
        rng = random.Random(19)
        xs = [random_element(spec, rng) for _ in range(64)]
        codes = cs.encode_many(xs)
        for g in list(generators(spec)) + [random_element(spec, rng) for _ in range(20)]:
            expected = np.array([cs.encode(mul(spec, x, g)) for x in xs])
            assert np.array_equal(cs.act_right(g, codes), expected)

    # bs-fin m=3 n=11 has radix q = 177,146: a twist times a digit passes 2^31
    @pytest.mark.parametrize("spec", CODE_FAMILIES + [make_spec("bs-fin", m=3, n=11)], ids=str)
    def test_int32_codes_act_as_int64(self, spec):
        """The BFS hands act_right int32 codes: it returns the same values in
        the input's dtype, and act_left and dual_twist widen narrow digits."""
        cs = CodeSpace(spec)
        rng = random.Random(23)
        xs = [random_element(spec, rng) for _ in range(64)]
        wide = cs.encode_many(xs)
        narrow = wide.astype(np.int32)
        for g in list(generators(spec)) + [random_element(spec, rng) for _ in range(20)]:
            right = [cs.encode(mul(spec, x, g)) for x in xs]
            for codes in (wide, narrow):
                assert cs.act_right(g, codes).dtype == codes.dtype
                assert np.array_equal(cs.act_right(g, codes), right)
                assert np.array_equal(cs.act_left(g, codes),
                                      [cs.encode(mul(spec, g, x)) for x in xs])
        assert all(u.dtype == np.min_scalar_type(cs.radix - 1) for u in cs._characters)
        if spec.family == "bs-fin":
            k = np.arange(spec.q, dtype=np.int64)
            for s in range(cs.time_order):
                assert np.array_equal(cs.dual_twist(s), pow(spec.m, s, spec.q) * k % spec.q)

    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_decode_many_inverts_encode_many(self, spec):
        cs = CodeSpace(spec)
        codes = np.random.default_rng(5).permutation(spec.order)
        elements = cs.decode_many(codes)
        assert elements == [cs.decode(int(c)) for c in codes]
        assert np.array_equal(cs.encode_many(elements), codes)
        # plain ints, as the tuple arithmetic builds them
        assert all(type(v) is int for x in elements for v in _ints(x))

    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_decode_is_decode_many_of_one_code(self, spec):
        cs = CodeSpace(spec)
        for code in range(spec.order):
            x = cs.decode(code)
            assert x == cs.decode_many([code])[0]
            assert all(type(v) is int for v in _ints(x))

    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_dual_twist_matches_family_formulas(self, spec):
        cs = CodeSpace(spec)
        k = np.arange(spec.order // cs.time_order)
        for s in range(cs.time_order):
            if spec.family == "lamplighter-fin":
                low = spec.m**s  # digit j of the result is digit j + s of k
                want = k // low + (k % low) * spec.m ** (spec.n - s)
            elif spec.family == "bs-fin":
                want = (pow(spec.m, s, spec.q) * k) % spec.q
            else:
                M = np.linalg.matrix_power(np.array(spec.A, dtype=object), s) % spec.n
                (a, b), (c, d) = M.tolist()
                k1, k2 = np.divmod(k, spec.n)
                want = (b * k1 + d * k2) % spec.n + spec.n * ((a * k1 + c * k2) % spec.n)
            assert np.array_equal(cs.dual_twist(s), want), s

    def test_rejects_infinite(self):
        from cayleydist import FamilyMismatch

        with pytest.raises(FamilyMismatch):
            CodeSpace(make_spec("bs-inf", m=2))

    def test_built_once_per_spec(self, monkeypatch):
        """BFS, the ball lookups, the embedding and the distortion share one CodeSpace."""
        from cayleydist import build_bundle, distortion_equivariant
        from cayleydist.cayley import kernel_diameter
        from cayleydist.groups import code_space

        built = []
        init = CodeSpace.__init__

        def counted(self, spec):
            built.append(spec)
            init(self, spec)

        monkeypatch.setattr(CodeSpace, "__init__", counted)
        code_space.cache_clear()
        spec = make_spec("sol-fin", n=5)
        table = bfs_ball(spec, None)
        distortion_equivariant(build_bundle(table, 2))
        table.in_map(generators(spec)[0])
        table.elements_at(np.arange(3))
        assert len(table.dist) == spec.order
        kernel_diameter(table)
        assert built == [spec]
        assert code_space(make_spec("sol-fin", n=5)) is code_space(spec)
