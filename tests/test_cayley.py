import contextlib
import gc
import math
import random

import pytest

from cayleydist import (
    BadParam,
    CapExceeded,
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
from cayleydist.cayley import VERTEX_CAP, kernel_diameter
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


class TestBfsCollectorState:
    """The infinite BFS pauses the cyclic collector only while its levels grow."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("spec, radius, cap, error", [
        (make_spec("bs-inf", m=2), 8, VERTEX_CAP, None),
        (make_spec("bs-fin", m=2, n=5), None, VERTEX_CAP, None),
        (make_spec("bs-inf", m=2), 18, 1000, CapExceeded),
        (make_spec("bs-inf", m=10**21), 3, VERTEX_CAP, Overflow),
    ], ids=["returned", "finite", "cap-exceeded", "overflow"])
    def test_left_as_found(self, spec, radius, cap, error, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(error) if error else contextlib.nullcontext():
                bfs_ball(spec, radius, cap=cap)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_paused_while_levels_grow(self, monkeypatch):
        states = []

        def spy(spec, g):
            step = right_step(spec, g)
            return lambda x: states.append(gc.isenabled()) or step(x)

        monkeypatch.setattr(cayley, "right_step", spy)
        assert gc.isenabled()
        bfs_ball(make_spec("lamplighter-inf", m=2), 6)
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
