import contextlib
import gc
import json
import math
import random
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from cayleydist import (
    BadParam,
    CapExceeded,
    CodeSpace,
    FamilyMismatch,
    InfiniteNeedsRadius,
    Overflow,
    bfs_ball,
    build_bundle,
    diameter,
    distortion_equivariant,
    exp_radical_scan,
    generators,
    girth,
    identity,
    inv,
    make_spec,
    mul,
    project,
)
from cayleydist import cayley
from cayleydist.cayley import VERTEX_CAP, BallTable, kernel_diameter
from cayleydist.cli import main
from cayleydist.groups import right_step
from conftest import CODE_FAMILIES

SIX_FAMILIES = [make_spec("lamplighter-fin", m=3, n=3), make_spec("bs-fin", m=2, n=5),
                make_spec("sol-fin", n=5), make_spec("lamplighter-inf", m=2),
                make_spec("bs-inf", m=3), make_spec("sol-inf")]


def tuple_bfs(spec, radius):
    """Reference BFS by tuple products: FIFO levels, each element's
    neighbours x * g in generator order, first discovery kept."""
    gens = generators(spec)
    e = identity(spec)
    dist = {e: 0}
    level = [e]
    d = 0
    while d != radius:
        d += 1
        nxt = []
        for x in level:
            for g in gens:
                y = mul(spec, x, g)
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        if not nxt:
            break
        level = nxt
    return dist


class TestBfsBall:
    def test_radius_one_is_identity_plus_generators(self):
        for spec in [make_spec("lamplighter-fin", m=2, n=4),
                     make_spec("bs-fin", m=3, n=3),
                     make_spec("sol-fin", n=5),
                     make_spec("bs-inf", m=2)]:
            table = bfs_ball(spec, 1)
            assert len(table) == 1 + len(generators(spec))

    def test_small_wreath_ball(self):
        table = bfs_ball(make_spec("lamplighter-fin", m=2, n=4), 2)
        assert table.ball_size(1) == 4

    def test_infinite_lamplighter_positions_bounded(self):
        table = bfs_ball(make_spec("lamplighter-inf", m=2), 3)
        assert all(-3 <= x[1] <= 3 for x in table.dist)
        assert not table.complete

    def test_full_enumeration(self):
        spec = make_spec("bs-fin", m=2, n=4)
        table = bfs_ball(spec, None)
        assert table.complete
        assert len(table) == spec.order == sum(table.sphere_sizes)
        assert len(table.dist) == len(table)

    def test_deterministic(self):
        spec = make_spec("lamplighter-fin", m=2, n=5)
        a = bfs_ball(spec, None)
        b = bfs_ball(spec, None)
        assert a == b
        assert list(a.dist.items()) == list(b.dist.items())

    def test_edge_consistency(self):
        spec = make_spec("sol-fin", n=5)
        table = bfs_ball(spec, None)
        for x in table.dist:
            for g in table.gens:
                assert abs(table.word_length(x) - table.word_length(mul(spec, x, g))) <= 1

    def test_distances_nondecreasing_in_bfs_order(self):
        table = bfs_ball(make_spec("lamplighter-fin", m=3, n=3), None)
        assert list(table.dist.values()) == sorted(table.dist.values())

    def test_triangle_inequality(self):
        spec = make_spec("bs-fin", m=2, n=5)
        table = bfs_ball(spec, None)
        elements = list(table.dist)
        rng = random.Random(23)
        for _ in range(1000):
            x, y, z = (rng.choice(elements) for _ in range(3))
            assert table.pair_distance(x, z) <= (
                table.pair_distance(x, y) + table.pair_distance(y, z))

    def test_infinite_needs_radius(self):
        with pytest.raises(InfiniteNeedsRadius):
            bfs_ball(make_spec("lamplighter-inf", m=2), None)

    def test_infinite_radius_cap(self):
        with pytest.raises(CapExceeded):
            bfs_ball(make_spec("bs-inf", m=2), 41)

    def test_vertex_cap(self):
        with pytest.raises(CapExceeded):
            bfs_ball(make_spec("lamplighter-fin", m=2, n=8), None, cap=100)

    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=str)
    def test_vertex_cap_holds_at_radius_zero(self, spec):
        # cap 0 returned the one-element ball
        assert len(bfs_ball(spec, 0, cap=1)) == 1
        with pytest.raises(CapExceeded, match="^ball exceeds vertex cap 0$"):
            bfs_ball(spec, 0, cap=0)

    def test_negative_radius(self):
        with pytest.raises(BadParam):
            bfs_ball(make_spec("bs-fin", m=2, n=3), -1)

    @pytest.mark.parametrize("spec", [make_spec("bs-fin", m=2, n=4), make_spec("bs-inf", m=2)],
                             ids=str)
    def test_non_integer_radius_refused(self, spec):
        # no level count equals 1.5: the BFS would run on to the whole group or the cap
        with pytest.raises(BadParam, match="must be an integer"):
            bfs_ball(spec, 1.5, cap=10_000)


class TestCodeBfs:
    @pytest.mark.parametrize("radius", [0, 1, 3, None])
    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_same_order_as_tuple_bfs(self, spec, radius):
        table = bfs_ball(spec, radius)
        want = tuple_bfs(spec, radius)
        assert list(table.dist.items()) == list(want.items())
        assert sum(table.sphere_sizes) == len(want)

    @pytest.mark.parametrize("radius", [3, None])
    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_vertex_cap_is_the_ball_size(self, spec, radius):
        size = len(bfs_ball(spec, radius))
        assert len(bfs_ball(spec, radius, cap=size)) == size
        with pytest.raises(CapExceeded, match=f"ball exceeds vertex cap {size - 1}"):
            bfs_ball(spec, radius, cap=size - 1)

    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_position_indexes_the_codes(self, spec):
        for table in (bfs_ball(spec, None), bfs_ball(spec, 2)):
            assert np.array_equal(table.position[table.elements], np.arange(1, len(table) + 1))
            outside = np.setdiff1d(np.arange(spec.order), table.elements)
            assert (table.position[outside] == 0).all()
            assert table.ball(1).position is table.position

    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_int32_codes_and_narrow_lengths(self, spec):
        table = bfs_ball(spec, None)
        assert table.elements.dtype == np.int32
        want = tuple_bfs(spec, None)
        assert np.array_equal(table.elements, CodeSpace(spec).encode_many(list(want)))
        assert table.lengths().dtype == np.uint8
        assert table.lengths().tolist() == list(want.values())
        # 300 spheres need a wider dtype; elements are not read
        sizes = (1,) + tuple(range(1, 300))
        lengths = replace(table, sphere_sizes=sizes).lengths()
        assert lengths.dtype == np.uint16
        assert np.array_equal(lengths, np.repeat(np.arange(300), sizes))

    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_slices_keep_the_order(self, spec, monkeypatch):
        # slices of two codes split every level past the first into many
        want = bfs_ball(spec, None)
        monkeypatch.setattr(cayley, "CODE_SLICE", 2)
        got = bfs_ball(spec, None)
        assert np.array_equal(got.elements, want.elements)
        assert np.array_equal(got.position, want.position)
        assert got.sphere_sizes == want.sphere_sizes

    def test_numeric_paths_never_decode_the_whole_table(self):
        table = bfs_ball(make_spec("lamplighter-fin", m=2, n=8), None)
        distortion_equivariant(build_bundle(table, 2.0))
        assert "dist" not in vars(table)
        table = bfs_ball(make_spec("sol-fin", n=7), None)
        diam_N = kernel_diameter(table)
        assert "dist" not in vars(table)
        assert diam_N == max(d for x, d in table.dist.items() if x[1] == 0)


def _reference_bfs(spec, radius, cap):
    """The infinite BFS as it stood before right_step: one mul per element and
    generator, the cap checked before each insertion.  Returns (dist, sphere)."""
    gens = generators(spec)
    e = identity(spec)
    dist = {e: 0}
    sphere = [1]
    level = [e]
    while len(sphere) - 1 != radius:
        d = len(sphere)
        nxt = []
        for x in level:
            for g in gens:
                y = mul(spec, x, g)
                if y not in dist:
                    if len(dist) >= cap:
                        raise CapExceeded(f"ball exceeds vertex cap {cap}")
                    dist[y] = d
                    nxt.append(y)
        if not len(nxt):
            break
        sphere.append(len(nxt))
        level = nxt
    return dist, tuple(sphere)


class TestInfiniteBfs:
    CASES = [(make_spec("lamplighter-inf", m=2), 12), (make_spec("lamplighter-inf", m=3), 7),
             (make_spec("bs-inf", m=2), 12), (make_spec("bs-inf", m=3), 8),
             (make_spec("bs-inf", m=10), 8),
             (make_spec("sol-inf"), 10), (make_spec("sol-inf", A=((3, 2), (1, 1))), 10)]

    @pytest.mark.parametrize("spec, radius", CASES, ids=str)
    def test_same_table_as_reference(self, spec, radius):
        table = bfs_ball(spec, radius)
        dist, sphere = _reference_bfs(spec, radius, VERTEX_CAP)
        assert list(table.elements.items()) == list(dist.items())
        assert table.sphere_sizes == sphere

    @pytest.mark.parametrize("spec, radius", CASES, ids=str)
    def test_cap_boundary_as_reference(self, spec, radius):
        size = len(_reference_bfs(spec, radius, VERTEX_CAP)[0])
        assert len(bfs_ball(spec, radius, cap=size)) == size
        assert len(_reference_bfs(spec, radius, size)[0]) == size
        with pytest.raises(CapExceeded, match=f"ball exceeds vertex cap {size - 1}$"):
            bfs_ball(spec, radius, cap=size - 1)
        with pytest.raises(CapExceeded, match=f"ball exceeds vertex cap {size - 1}$"):
            _reference_bfs(spec, radius, size - 1)

    @pytest.mark.parametrize("spec, radius, cone", [(s, r, False) for s, r in CASES]
                             + [(make_spec("sol-inf"), 10, True)], ids=str)
    def test_slices_keep_the_order(self, spec, radius, cone, monkeypatch):
        # slices of 8 // len(gens) elements split every level past the first into many
        def grow(cap=VERTEX_CAP):
            if cone:
                return cayley._tuple_bfs(spec, radius, cap, cone=True)
            table = bfs_ball(spec, radius, cap=cap)
            return table.elements, table.sphere_sizes

        want, want_sphere = grow()
        monkeypatch.setattr(cayley, "INF_SLICE", 8)
        got, got_sphere = grow()
        assert list(got.items()) == list(want.items())
        assert got_sphere == want_sphere
        size = len(want)
        assert len(grow(size)[0]) == size
        with pytest.raises(CapExceeded, match=f"^ball exceeds vertex cap {size - 1}$"):
            grow(size - 1)


class _Taken(Exception):
    """Raised by a spy in place of the tuple BFS."""


class TestCodeSpheres:
    """Parent balls counted on the int64 codes of their window quotient against
    the tuple BFS."""

    WINDOWS = [(make_spec(family, m=m), window) for family in ("lamplighter-inf", "bs-inf")
               for m, window in ((2, 28), (3, 17), (5, 12))]

    @pytest.mark.parametrize("spec, window", WINDOWS, ids=str)
    def test_every_radius_of_the_window(self, spec, window):
        """Up to the last radius whose quotient's order is below 2^63, the code
        path gives bfs_ball's sphere sizes, or refuses the cap as it does; a
        ball larger than the cap is refused once it passes it, so every radius
        is cheap."""
        assert cayley._window(spec, window) is not None
        assert cayley._window(spec, window + 1) is None
        cap = 30000

        def outcome(count):
            try:
                return count()
            except CapExceeded as exc:
                return str(exc)

        for r in range(window + 1):
            got = outcome(lambda: cayley._code_spheres(cayley._window(spec, r), r, cap))
            assert got == outcome(lambda: bfs_ball(spec, r, cap=cap).sphere_sizes), r
        assert got == f"ball exceeds vertex cap {cap}"

    @pytest.mark.parametrize("family", ["lamplighter-inf", "bs-inf"])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_window_holds_the_ball(self, family, m, radius):
        """The lemma the window rests on: t^n, n = 2R + 1, is the shortest
        kernel word, so the projection maps the parent R-ball one to one onto
        the quotient's and keeps word length.  Keeping every distance in the
        R-ball needs kernel words longer than 4r, so girth reads R // 2 there."""
        parent, n = make_spec(family, m=m), 2 * radius + 1
        quotient = cayley._window(parent, radius)
        assert quotient == make_spec(family.replace("inf", "fin"), m=m, n=n)
        report = girth(parent, quotient, cap=n + 1)
        assert (report.g_lower, report.iso_lower) == (n, radius // 2)
        assert report.kernel_witness in ((identity(parent)[0], n), (identity(parent)[0], -n))
        ball = bfs_ball(parent, radius).dist
        images = {project(parent, quotient, x): d for x, d in ball.items()}
        assert len(images) == len(ball)
        assert images == bfs_ball(quotient, radius).dist

    def test_act_right_exact_past_int64_products(self):
        """bs-fin n = 37 has radix 2^37 - 1, so a twist times a digit passes
        2^63: act_right still equals the group law on every generator."""
        quotient = cayley._window(make_spec("bs-inf", m=2), 18)
        assert quotient.q == 2**37 - 1
        cs = CodeSpace(quotient)
        codes = np.random.default_rng(37).integers(0, quotient.order, 1000, dtype=np.int64)
        codes[:2] = 0, quotient.order - 1
        for g in generators(quotient):
            want = [cs.encode(mul(quotient, cs.decode(x), g)) for x in codes.tolist()]
            assert cs.act_right(g, codes).tolist() == want

    @pytest.mark.parametrize("spec, radius", [(make_spec("lamplighter-inf", m=3), 10),
                                              (make_spec("bs-inf", m=2), 12)], ids=str)
    def test_cap_boundary_as_bfs_ball(self, spec, radius):
        size = len(bfs_ball(spec, radius))
        quotient = cayley._window(spec, radius)
        assert sum(cayley._code_spheres(quotient, radius, size)) == size
        with pytest.raises(CapExceeded, match=f"^ball exceeds vertex cap {size - 1}$"):
            cayley._code_spheres(quotient, radius, size - 1)

    @pytest.mark.parametrize("spec, radius, path", [
        (make_spec("lamplighter-inf", m=2), 18, "tuples"),
        (make_spec("lamplighter-inf", m=2), 19, "codes 19"),
        (make_spec("lamplighter-inf", m=2), 28, "codes 28"),
        (make_spec("lamplighter-inf", m=2), 29, "codes 28, tuples"),
        (make_spec("lamplighter-inf", m=2), 40, "codes 28, tuples"),
        (make_spec("lamplighter-inf", m=3), 17, "tuples"),
        (make_spec("lamplighter-inf", m=3), 19, "codes 17, tuples"),
        (make_spec("bs-inf", m=2), 15, "tuples"),
        (make_spec("bs-inf", m=2), 16, "codes 16"),
        (make_spec("bs-inf", m=2), 28, "codes 28"),
        (make_spec("bs-inf", m=2), 29, "codes 28, tuples"),
        (make_spec("bs-inf", m=3), 16, "codes 16"),
        (make_spec("bs-inf", m=3), 17, "codes 17"),
        (make_spec("bs-inf", m=3), 18, "codes 17, tuples"),
        (make_spec("bs-inf", m=10**6), 40, "codes 1, tuples"),
        (make_spec("bs-inf", m=10**21), 20, "tuples"),
        (make_spec("sol-inf"), 30, "tuples"),
    ], ids=str)
    def test_path_taken(self, spec, radius, path, monkeypatch):
        """sphere_sizes counts on codes from the family's crossover radius to
        the end of the 63-bit window; past it, it counts the window's last
        radius first, then falls back to the tuple BFS."""
        taken = []

        def codes(quotient, r, cap):
            taken.append(f"codes {r}")
            return (1,) * (r + 1)

        def tuples(*args, **kw):
            taken.append("tuples")
            raise _Taken

        monkeypatch.setattr(cayley, "_code_spheres", codes)
        monkeypatch.setattr(cayley, "_tuple_bfs", tuples)
        with contextlib.suppress(_Taken):
            cayley.sphere_sizes(spec, radius)
        assert ", ".join(taken) == path

    @pytest.mark.parametrize("spec, radius", [(make_spec("bs-fin", m=2, n=6), None),
                                              (make_spec("bs-fin", m=2, n=6), 3),
                                              (make_spec("sol-inf"), 5),
                                              (make_spec("bs-inf", m=2), 16)], ids=str)
    def test_equals_bfs_ball(self, spec, radius):
        assert cayley.sphere_sizes(spec, radius) == bfs_ball(spec, radius).sphere_sizes

    @pytest.mark.parametrize("radius, cap, error", [
        (None, VERTEX_CAP, InfiniteNeedsRadius), (-1, VERTEX_CAP, BadParam),
        (19.0, VERTEX_CAP, BadParam), (41, VERTEX_CAP, CapExceeded), (20, 0, CapExceeded),
        (20, True, BadParam)])
    def test_checks_as_bfs_ball(self, radius, cap, error):
        spec = make_spec("lamplighter-inf", m=2)
        with pytest.raises(error) as want:
            bfs_ball(spec, radius, cap=cap)
        with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
            cayley.sphere_sizes(spec, radius, cap=cap)


class TestBfsCollectorState:
    """The infinite BFS pauses the cyclic collector only while its levels grow."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("grow, spec, radius, cap, error", [
        (bfs_ball, make_spec("bs-inf", m=2), 8, VERTEX_CAP, None),
        (bfs_ball, make_spec("bs-fin", m=2, n=5), None, VERTEX_CAP, None),
        (bfs_ball, make_spec("bs-inf", m=2), 18, 1000, CapExceeded),
        (bfs_ball, make_spec("bs-inf", m=10**21), 3, VERTEX_CAP, Overflow),
        (exp_radical_scan, make_spec("sol-inf"), 8, VERTEX_CAP, None),
        (exp_radical_scan, make_spec("sol-inf"), 8, 100, CapExceeded),
    ], ids=["returned", "finite", "cap-exceeded", "overflow", "cone", "cone-cap-exceeded"])
    def test_left_as_found(self, grow, spec, radius, cap, error, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(error) if error else contextlib.nullcontext():
                grow(spec, radius, cap=cap)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("grow, spec", [(bfs_ball, make_spec("lamplighter-inf", m=2)),
                                            (exp_radical_scan, make_spec("sol-inf"))],
                             ids=["ball", "cone"])
    def test_paused_while_levels_grow(self, grow, spec, monkeypatch):
        states = []

        def spy(spec, g):
            step = right_step(spec, g)
            return lambda x: states.append(gc.isenabled()) or step(x)

        monkeypatch.setattr(cayley, "right_step", spy)
        assert gc.isenabled()
        grow(spec, 6)
        assert states and not any(states)
        assert gc.isenabled()


class TestBallPrefix:
    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=str)
    def test_prefix_equals_fresh_bfs(self, spec):
        table = bfs_ball(spec, None if spec.finite else 6)
        top = table.radius + 2 if spec.finite else table.radius
        for r in range(top + 1):
            ball, fresh = table.ball(r), bfs_ball(spec, r)
            assert ball == fresh, r
            assert list(ball.dist.items()) == list(fresh.dist.items()), r

    def test_incomplete_table_cannot_grow(self):
        table = bfs_ball(make_spec("bs-inf", m=2), 3)
        with pytest.raises(BadParam):
            table.ball(4)
        with pytest.raises(BadParam):
            table.ball(-1)

    @pytest.mark.parametrize("r", [1.5, "2", None], ids=repr)
    def test_non_integer_radius_refused(self, r):
        # 1.5 leaked a TypeError about slice indices, "2" one from <
        table = bfs_ball(make_spec("lamplighter-fin", m=2, n=4), None)
        with pytest.raises(BadParam, match="must be an integer"):
            table.ball(r)

    def test_ball_size_refuses_bad_radii(self):
        # -3 sliced to 54 of the 64 elements, 1.5 leaked a TypeError about slice indices
        table = bfs_ball(make_spec("lamplighter-fin", m=2, n=4), None)
        assert table.ball_size(99) == 64
        for r in (-3, -1):
            with pytest.raises(BadParam, match=f"no radius-{r} ball"):
                table.ball_size(r)
        with pytest.raises(BadParam, match="must be an integer"):
            table.ball_size(1.5)
        with pytest.raises(BadParam, match="no radius-3 ball"):
            bfs_ball(make_spec("lamplighter-inf", m=2), 2).ball_size(3)

    @pytest.mark.parametrize("spec", [make_spec("lamplighter-fin", m=2, n=4),
                                      make_spec("lamplighter-inf", m=2)], ids=str)
    def test_elements_at_refuses_positions_outside_the_ball(self, spec):
        # -1, the in-map's mark for outside, read as the last element;
        # a position past the end leaked IndexError, 1.5 an IndexError or a TypeError
        table = bfs_ball(spec, 3)
        ball = table.ball(2)
        n = len(ball)
        assert ball.elements_at([0, n - 1]) == table.elements_at([0, n - 1])
        assert ball.elements_at([]) == []
        for positions in ([-1], [n], [0, n + 5], np.array([1, -2]), [1.5], ["1"], [True]):
            with pytest.raises(BadParam, match=f"positions must be integers in 0..{n - 1}"):
                ball.elements_at(positions)


class TestDerivedFields:
    """A table stores what its BFS found; radius, completeness and gens are read off it."""

    @staticmethod
    def check(table, spec, r):
        assert table.radius == r
        assert table.complete == (spec.finite and sum(table.sphere_sizes) == spec.order)
        assert table.gens == generators(spec)

    def test_fields_are_what_the_bfs_found(self):
        assert [f.name for f in fields(BallTable)] == [
            "spec", "elements", "sphere_sizes", "position"]

    @pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
    def test_finite_below_at_and_past_the_diameter(self, spec):
        whole = bfs_ball(spec, None)
        diam = len(whole.sphere_sizes) - 1
        self.check(whole, spec, diam)
        assert whole.complete
        for r in sorted({0, diam // 2, max(diam - 1, 0), diam, diam + 1, diam + 3}):
            table = bfs_ball(spec, r)
            self.check(table, spec, min(r, diam))
            self.check(whole.ball(r), spec, min(r, diam))
            assert table.complete == (r >= diam)
        assert bfs_ball(spec, diam + 3) == whole
        assert whole.ball(diam + 3) == whole

    @pytest.mark.parametrize("spec", [make_spec("lamplighter-inf", m=2), make_spec("bs-inf", m=3),
                                      make_spec("sol-inf")], ids=str)
    def test_infinite_small_radii(self, spec):
        table = bfs_ball(spec, 5)
        for r in range(6):
            self.check(bfs_ball(spec, r), spec, r)
            self.check(table.ball(r), spec, r)

    def test_cayley_ball_prints_the_diameter_past_it(self, capsys):
        # printed "radius": 100 beside the 9 spheres of a diameter-8 group
        assert main("cayley ball --family lamplighter-fin --m 2 --n 4 --radius 100"
                    " --format json".split()) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["radius"] == 8 == len(blob["sphere_sizes"]) - 1
        assert blob["complete"]


class TestDiameter:
    def test_two_lamp_cycle(self):
        # the order-8 group on two involutive generators is an 8-cycle
        assert diameter(make_spec("lamplighter-fin", m=2, n=2)).diameter == 4

    @pytest.mark.parametrize("n,expected", [(2, 4), (3, 6), (4, 8), (5, 10), (6, 13)])
    def test_lamplighter_values(self, n, expected):
        assert diameter(make_spec("lamplighter-fin", m=2, n=n)).diameter == expected

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 3), (4, 5), (5, 7), (6, 9)])
    def test_bs_values(self, n, expected):
        assert diameter(make_spec("bs-fin", m=2, n=n)).diameter == expected

    @pytest.mark.parametrize("n,diam,diam_n", [(3, 4, 4), (5, 7, 6), (7, 7, 7)])
    def test_sol_values(self, n, diam, diam_n):
        report = diameter(make_spec("sol-fin", n=n))
        assert report.diameter == diam
        assert report.diam_N == diam_n
        assert report.diam_N <= report.diameter

    def test_no_plane_part_outside_sol(self):
        assert diameter(make_spec("bs-fin", m=2, n=3)).diam_N is None

    def test_infinite_rejected(self):
        with pytest.raises(BadParam):
            diameter(make_spec("sol-inf"))


class TestGirth:
    def test_lamplighter_pair(self):
        report = girth(make_spec("lamplighter-inf", m=2),
                       make_spec("lamplighter-fin", m=2, n=4), cap=4)
        assert report.g_lower == 4
        w = report.kernel_witness
        assert w is not None and w[0] == () and abs(w[1]) == 4

    def test_bs_pair_cap_limited(self):
        report = girth(make_spec("bs-inf", m=2),
                       make_spec("bs-fin", m=2, n=5), cap=4)
        assert report.g_lower == 4
        assert report.kernel_witness is None  # shortest collapse has length 5

    def test_identity_projection(self):
        spec = make_spec("lamplighter-fin", m=2, n=3)
        report = girth(spec, spec, cap=2)
        assert report.g_lower == 2
        assert report.iso_lower == 2
        assert report.kernel_witness is None and report.iso_witness is None

    def test_kernel_witness_length_matches(self):
        parent = make_spec("bs-inf", m=2)
        quotient = make_spec("bs-fin", m=2, n=3)
        report = girth(parent, quotient, cap=5)
        assert report.g_lower == 3
        w = report.kernel_witness
        assert project(parent, quotient, w) == identity(quotient)
        assert bfs_ball(parent, 3).word_length(w) == 3

    def test_iso_radius_sees_the_first_merge(self):
        # translations by +-2 collide mod 4 while the collapse length is 4
        parent = make_spec("lamplighter-inf", m=2)
        quotient = make_spec("lamplighter-fin", m=2, n=4)
        report = girth(parent, quotient, cap=4)
        assert report.iso_lower == 1
        x, y = report.iso_witness
        assert x != y
        assert project(parent, quotient, x) == project(parent, quotient, y)

    def test_projection_is_one_lipschitz(self):
        parent = make_spec("sol-inf")
        quotient = make_spec("sol-fin", n=5)
        ptable = bfs_ball(parent, 5)
        qtable = bfs_ball(quotient, None)
        for x, d in ptable.dist.items():
            assert qtable.word_length(project(parent, quotient, x)) <= d

    def test_bad_cap(self):
        spec = make_spec("bs-fin", m=2, n=3)
        with pytest.raises(BadParam):
            girth(spec, spec, cap=0)

    @pytest.mark.parametrize("cap", ["2", None, 2.0], ids=repr)
    def test_non_integer_cap_refused(self, cap):
        # "2" and None leaked a TypeError from cap < 1
        spec = make_spec("bs-fin", m=2, n=3)
        with pytest.raises(BadParam, match="cap .* must be an integer"):
            girth(make_spec("bs-inf", m=2), spec, cap=cap)


def _girth_by_pairs(parent, quotient, cap):
    """(g_lower, iso_lower, kernel_witness, iso_witness) from the definitions,
    over all pairs of each parent r-ball with r <= cap and ``pair_distance`` on
    both tables, the quotient's covering the whole group."""
    ptable = bfs_ball(parent, 2 * cap)
    qtable = bfs_ball(quotient, None)
    merge = None  # shortest parent distance between two points with one image
    iso_lower = 0
    pairs = {}  # per radius: the ball in BFS order and each pair's two distances
    for r in range(1, cap + 1):
        ball = list(ptable.ball(r).dist)
        images = [project(parent, quotient, x) for x in ball]
        onto = set(images) == set(qtable.ball(r).dist)
        dists = {}  # (i, j): the parent and the quotient distance of ball[i], ball[j]
        pairs[r] = ball, dists
        for i in range(len(ball)):
            for j in range(i + 1, len(ball)):
                dp = ptable.pair_distance(ball[i], ball[j])
                dq = qtable.pair_distance(images[i], images[j])
                dists[i, j] = dp, dq
                if dq == 0 and (merge is None or dp < merge):
                    merge = dp
        isometric = all(dp == dq for dp, dq in dists.values())
        if isometric and onto and iso_lower == r - 1:
            iso_lower = r
    e_q = identity(quotient)
    kernel_witness = next((x for x in list(ptable.ball(cap).dist)[1:]
                           if project(parent, quotient, x) == e_q), None)
    iso_witness = None
    if iso_lower < cap:
        ball, dists = pairs[iso_lower + 1]
        # the first j with an earlier i of the same image, with the least such i
        merged = [(j, i) for (i, j), (_dp, dq) in dists.items() if dq == 0]
        dropped = [(i, j) for (i, j), (dp, dq) in dists.items() if dq < dp]
        i, j = min(merged)[::-1] if merged else min(dropped)
        iso_witness = ball[i], ball[j]
    # a kernel element of length k <= 2 * cap is x^-1 y for a merging pair of the cap-ball
    return ((cap if merge is None else min(cap, merge)), iso_lower,
            kernel_witness, iso_witness)


GIRTH_PAIRS = (
    [(make_spec("lamplighter-inf", m=2), make_spec("lamplighter-fin", m=2, n=n))
     for n in range(3, 9)]
    + [(make_spec("lamplighter-inf", m=3), make_spec("lamplighter-fin", m=3, n=n))
       for n in range(2, 5)]
    + [(make_spec("bs-inf", m=2), make_spec("bs-fin", m=2, n=n)) for n in range(2, 10)]
    + [(make_spec("sol-inf"), make_spec("sol-fin", n=n)) for n in range(2, 9)]
    + [(make_spec("lamplighter-fin", m=2, n=3), make_spec("lamplighter-fin", m=2, n=3))])


@pytest.mark.parametrize("parent, quotient", GIRTH_PAIRS,
                         ids=[f"{p.family}-{q.family}-{q.m}-{q.n}" for p, q in GIRTH_PAIRS])
def test_girth_matches_all_pairs_definition(parent, quotient):
    for cap in range(1, 5):
        report = girth(parent, quotient, cap=cap)
        assert ((report.g_lower, report.iso_lower, report.kernel_witness, report.iso_witness)
                == _girth_by_pairs(parent, quotient, cap))


@pytest.mark.parametrize("parent, quotient, cap", [
    (make_spec("lamplighter-inf", m=2), make_spec("lamplighter-fin", m=2, n=8), 8),
    (make_spec("bs-inf", m=2), make_spec("bs-fin", m=2, n=9), 8),
    (make_spec("sol-inf"), make_spec("sol-fin", n=8), 6),
    (make_spec("bs-inf", m=2), make_spec("bs-fin", m=2, n=12), 3),
], ids=["lamplighter", "bs", "sol", "bs-regrown"])
def test_girth_grows_only_the_parent(monkeypatch, parent, quotient, cap):
    """No quotient ball is built; the parent is grown to the cap and regrown
    with the scan's 2r, never to 2 * cap past the first shorter image."""
    calls = []

    def spy(spec, radius=None, *args, **kwargs):
        calls.append((spec, radius))
        return bfs_ball(spec, radius, *args, **kwargs)

    monkeypatch.setattr(cayley, "bfs_ball", spy)
    report = girth(parent, quotient, cap=cap)
    assert calls and {spec for spec, _ in calls} == {parent}
    assert max(r for _, r in calls) <= max(cap, 2 * (report.iso_lower + 1))


def _plane_extremes(spec, dist) -> tuple:
    """Rows of ``exp_radical_scan`` read off a map from elements to word lengths:
    the extremes of the plane's sup norms per length, as ints."""
    extremes = {}
    for x, d in dist.items():
        if d and x[1] == 0:
            norm = cayley._sol_norm_inf(spec, x[0])
            lo, hi = extremes.get(d, (norm, norm))
            extremes[d] = (min(lo, norm), max(hi, norm))
    return tuple((d, math.log(lo), math.log(hi)) for d, (lo, hi) in sorted(extremes.items()))


class TestExpRadical:
    def test_infinite_scan_matches_enumeration(self):
        report = exp_radical_scan(make_spec("sol-inf"), 6)
        maxima = {r: round(math.exp(hi)) for r, _lo, hi in report.rows}
        assert maxima == {1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 10}

    def test_max_log_norm_nondecreasing(self):
        report = exp_radical_scan(make_spec("sol-inf"), 8)
        highs = [hi for _r, _lo, hi in report.rows]
        assert highs == sorted(highs)

    def test_alpha_hat(self):
        report = exp_radical_scan(make_spec("sol-inf"), 6)
        assert report.alpha_hat == pytest.approx(2 / math.log(2), rel=1e-12)
        assert report.alpha_lower == pytest.approx(2 / math.log(2), rel=1e-12)
        assert report.alpha_upper == pytest.approx(math.log(10) / 6, rel=1e-12)

    def test_generator_row(self):
        report = exp_radical_scan(make_spec("sol-inf"), 3)
        r1 = report.rows[0]
        assert r1[0] == 1 and r1[1] == 0.0 and r1[2] == 0.0

    def test_finite_family_uses_symmetric_lift(self):
        report = exp_radical_scan(make_spec("sol-fin", n=5), 10)
        assert report.rows
        # norms in the mod-5 plane never exceed 2
        assert all(hi <= math.log(2) + 1e-12 for _r, _lo, hi in report.rows)

    def test_finite_family_enumerates_only_the_ball(self):
        # the radius-6 ball has 866 of the 248,832 elements
        report = exp_radical_scan(make_spec("sol-fin", n=144), 6, cap=1000)
        assert report.r_max == 6
        assert [r for r, _lo, _hi in report.rows] == list(range(1, 7))

    @pytest.mark.parametrize("spec", [s for s in CODE_FAMILIES if s.family == "sol-fin"],
                             ids=str)
    def test_finite_scan_reads_only_the_plane(self, spec):
        # the finite scan decodes the time-0 codes; the reference reads the whole dict
        diam = diameter(spec).diameter
        for r in (1, max(diam // 2, 1), diam, diam + 2):
            report = exp_radical_scan(spec, r)
            assert report.r_max == min(r, diam)
            assert report.rows == _plane_extremes(spec, bfs_ball(spec, r).dist)

    def test_infinite_scan_keeps_python_integers(self):
        # with this A the sup norms pass 2^63 from radius 9 on, where int64
        # arithmetic would wrap; the reference reads them off the dict as ints
        spec = make_spec("sol-inf", A=((10**6, 999999), (1, 1)))
        dist = bfs_ball(spec, 10).dist
        assert max(cayley._sol_norm_inf(spec, v) for v, t in dist if t == 0) > 2**63
        assert exp_radical_scan(spec, 10).rows == _plane_extremes(spec, dist)

    @pytest.mark.parametrize("A", [None, ((1, 1), (1, 2)), ((3, 2), (1, 1))], ids=str)
    def test_cone_scan_matches_the_ball(self, A):
        # the scan reads a BFS confined to the time cone |t| <= r - d; the
        # reference reads the whole ball, whose cone elements it must hold at
        # the same lengths, the plane's among them
        spec = make_spec("sol-inf", A=A)
        for r in range(1, 13):
            dist = bfs_ball(spec, r).dist
            cone = cayley._tuple_bfs(spec, r, VERTEX_CAP, cone=True)[0]
            assert cone == {x: d for x, d in dist.items() if abs(x[1]) <= r - d}
            assert exp_radical_scan(spec, r, cap=len(cone)).r_max == r
            with pytest.raises(CapExceeded, match=f"^ball exceeds vertex cap {len(cone) - 1}$"):
                exp_radical_scan(spec, r, cap=len(cone) - 1)
            assert all(cone[x] == d for x, d in dist.items() if x[1] == 0)
            report = exp_radical_scan(spec, r)
            assert report.r_max == r
            assert report.rows == _plane_extremes(spec, dist)

    def test_cap_bounds_the_cone(self):
        # the radius-6 ball has 867 elements and its time cone 241
        assert exp_radical_scan(make_spec("sol-inf"), 6, cap=300).r_max == 6
        with pytest.raises(CapExceeded, match="^ball exceeds vertex cap 200$"):
            exp_radical_scan(make_spec("sol-inf"), 6, cap=200)

    def test_rejects_other_families(self):
        with pytest.raises(FamilyMismatch):
            exp_radical_scan(make_spec("lamplighter-fin", m=2, n=4), 5)

    def test_radius_cap(self):
        with pytest.raises(CapExceeded):
            exp_radical_scan(make_spec("sol-inf"), 21)

    @pytest.mark.parametrize("r_max", ["3", None, 3.0], ids=repr)
    def test_non_integer_r_max_refused(self, r_max):
        # "3" and None leaked a TypeError from r_max < 1
        with pytest.raises(BadParam, match="r_max .* must be an integer"):
            exp_radical_scan(make_spec("sol-fin", n=5), r_max)

    def test_r_max_below_one_refused(self):
        with pytest.raises(BadParam, match="^r_max 0 must be >= 1$"):
            exp_radical_scan(make_spec("sol-fin", n=5), 0)


class TestCsv:
    """The CSV that ``cayleydist cayley ball`` and ``expradical`` print."""

    def test_sphere_csv(self, capsys):
        assert main(["cayley", "ball", "--family", "lamplighter-fin", "--m", "2",
                     "--n", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "r,sphere,cumulative"
        assert lines[1] == "0,1,1"
        assert lines[-1].endswith(",8")

    def test_exp_radical_csv(self, capsys):
        report = exp_radical_scan(make_spec("sol-inf"), 4)
        assert main(["expradical", "--family", "sol-inf", "--radius", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "r,min_log_norm,max_log_norm"
        assert len(lines) == 1 + len(report.rows)
        assert lines[1] == "1,0,0"
