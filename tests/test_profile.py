import math
from dataclasses import replace

import numpy as np
import pytest

from cayleydist import (
    BadParam,
    BadScale,
    DegenerateInput,
    ZeroGradient,
    ZeroNorm,
    bfs_ball,
    dirichlet_pc,
    generators,
    identity,
    inv,
    lp_norm,
    make_spec,
    mul,
    optimize_profile,
    profile_curve,
    rayleigh,
    revalidate,
)
from cayleydist import profile
from cayleydist.cli import main
from cayleydist.profile import _structure, checked_radii
from conftest import CODE_FAMILIES

L28 = make_spec("lamplighter-fin", m=2, n=8)
L24 = make_spec("lamplighter-fin", m=2, n=4)
L26 = make_spec("lamplighter-fin", m=2, n=6)
L2INF = make_spec("lamplighter-inf", m=2)


def pc(ball):
    """dirichlet_pc on the ball's own in-maps."""
    return dirichlet_pc(ball, [ball.in_map(s) for s in ball.gens])


class TestLpNorm:
    def test_empty_is_zero(self):
        assert lp_norm([], 2) == 0.0

    def test_single_value(self):
        assert lp_norm([-3.0], 2.5) == 3.0

    def test_p1_is_sum(self):
        assert lp_norm([1.0, -2.0, 3.0], 1) == 6.0

    def test_p2_euclidean(self):
        assert lp_norm([3.0, 4.0], 2) == pytest.approx(5.0, rel=1e-15)

    def test_huge_values_do_not_overflow(self):
        assert lp_norm([1e200, 1e200], 2) == pytest.approx(1e200 * math.sqrt(2), rel=1e-12)


class TestTranslate:
    def test_rayleigh_right_invariant(self):
        # right translation commutes with every left translation operator
        f = {identity(L28): 1.0, generators(L28)[1]: -0.5}
        base = rayleigh(L28, f, 2)
        for t in generators(L28):
            shifted = rayleigh(L28, {mul(L28, x, t): v for x, v in f.items()}, 2)
            assert shifted[0] == pytest.approx(base[0], rel=1e-12)
            assert shifted[1] == pytest.approx(base[1], rel=1e-12)


class TestRayleigh:
    @pytest.mark.parametrize("p,expected", [(1, 0.5), (2, 2 ** -0.5), (4, 2 ** -0.25)])
    def test_dirac_max_form(self, p, expected):
        mx, _ = rayleigh(L24, {identity(L24): 1.0}, p)
        assert mx == pytest.approx(expected, rel=1e-12)

    def test_dirac_sum_form(self):
        # three generators, each difference has two unit entries
        _, sm = rayleigh(L24, {identity(L24): 1.0}, 2)
        assert sm == pytest.approx(1 / math.sqrt(6), rel=1e-12)

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroNorm):
            rayleigh(L24, {identity(L24): 0.0}, 2)

    def test_constant_on_whole_group_has_zero_gradient(self):
        spec = make_spec("lamplighter-fin", m=2, n=2)
        table = bfs_ball(spec, None)
        with pytest.raises(ZeroGradient):
            rayleigh(spec, {x: 1.0 for x in table.dist}, 2)


@pytest.mark.parametrize("spec, prefix", [
    *(pytest.param(spec, None, id=str(spec)) for spec in [
        make_spec("lamplighter-fin", m=3, n=3), make_spec("bs-fin", m=2, n=5),
        make_spec("sol-fin", n=5), L2INF, make_spec("bs-inf", m=3), make_spec("sol-inf")]),
    *(pytest.param(spec, r, id=f"{spec}-prefix-{r}") for spec in CODE_FAMILIES for r in (1, 3))])
def test_structure_escapes_are_translates_leaving_the_ball(spec, prefix):
    """On a radius-2 ball of each family, and on prefix balls cut from the
    complete table of each code family."""
    ball = bfs_ball(spec, 2) if prefix is None else bfs_ball(spec, None).ball(prefix)
    pos = {x: i for i, x in enumerate(ball.dist)}
    in_maps, escapes = _structure(ball)
    for s, im, esc in zip(ball.gens, in_maps, escapes):
        assert list(esc) == [mul(spec, s, x) not in ball.dist for x in ball.dist]
        assert list(im) == [pos.get(mul(spec, inv(spec, s), x), -1) for x in ball.dist]


class TestDirichlet:
    def test_singleton_ball_gives_dirac(self):
        ball = bfs_ball(L28, 0)
        assert dict(zip(ball.dist, pc(ball))) == {identity(L28): 1.0}

    def test_complete_ball_rejected(self):
        spec = make_spec("lamplighter-fin", m=2, n=2)
        with pytest.raises(DegenerateInput):
            pc(bfs_ball(spec, None))

    def test_nonnegative_unit_vector_on_support(self):
        ball = bfs_ball(L28, 3)
        v = pc(ball)
        assert len(v) == len(ball)
        assert all(v >= 0)
        assert lp_norm(v, 2) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic(self):
        ball = bfs_ball(L28, 2)
        assert np.array_equal(pc(ball), pc(ball))

    def test_beats_tent_function(self):
        # the principal vector maximizes the p=2 sum form on the ball
        ball = bfs_ball(L28, 3)
        tent = {x: float(4 - d) for x, d in ball.dist.items()}
        _, tent_sum = rayleigh(L28, tent, 2)
        _, pc_sum = rayleigh(L28, dict(zip(ball.dist, pc(ball))), 2)
        assert pc_sum >= tent_sum - 1e-12


class TestOptimizeProfile:
    @pytest.mark.parametrize("p", [1, 2, 3.5])
    def test_radius_one_is_dirac_value(self, p):
        tv = optimize_profile(bfs_ball(L28, 0), p)
        assert tv.radius == 1
        assert tv.certified_J == pytest.approx(2 ** (-1 / p), rel=1e-12)
        assert tv.gradient_max == pytest.approx(1.0, rel=1e-12)

    def test_support_outside_ball_fails_against_full_table(self):
        tv = optimize_profile(bfs_ball(L28, 1), 2)
        full = bfs_ball(L28, None)
        far = list(full.dist)[-1]
        assert full.word_length(far) == 18
        assert revalidate(tv)["support_ok"]
        stray = replace(tv, values={**tv.values, far: 0.1})
        assert not revalidate(stray)["support_ok"]

    def test_certificate_recomputes(self):
        ball = bfs_ball(L28, 3)
        tv = optimize_profile(ball, 2)
        check = revalidate(tv)
        assert check["support_ok"]
        assert check["gradient_max"] == pytest.approx(1.0, abs=1e-9)
        assert check["max_form"] == pytest.approx(tv.certified_J, abs=1e-9)
        assert lp_norm(tv.values.values(), 2) == pytest.approx(tv.certified_J, rel=1e-9)

    def test_beats_dirac_on_real_ball(self):
        tv = optimize_profile(bfs_ball(L28, 3), 2)
        assert tv.certified_J > 2 ** -0.5 + 0.05

    def test_at_least_dirichlet_start(self):
        ball = bfs_ball(L28, 2)
        start, _ = rayleigh(L28, dict(zip(ball.dist, pc(ball))), 2)
        tv = optimize_profile(ball, 2)
        assert tv.certified_J >= start - 1e-12

    def test_finite_ball_never_decoded(self):
        ball = bfs_ball(L28, None).ball(3)
        optimize_profile(ball, 2)
        assert "dist" not in vars(ball)

    def test_bad_exponent_rejected(self):
        with pytest.raises(BadParam):
            optimize_profile(bfs_ball(L28, 1), 0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_exponent_outside_range_refused(self, p):
        # nan would certify nan, and at inf every ascent term is 0, 1 or inf
        with pytest.raises(BadParam, match=r"outside \[1, inf\)"):
            optimize_profile(bfs_ball(L28, 1), p)
        with pytest.raises(BadParam, match=r"outside \[1, inf\)"):
            profile_curve(bfs_ball(L28, None), p, [1, 2])

    def test_dirac_fallback_when_ascent_disabled(self, monkeypatch):
        ball = bfs_ball(L28, 1)
        e = identity(L28)
        a = generators(L28)[0]
        assert ball.elements_at([0, 1]) == [e, a]

        def start(ball, in_maps):
            v = np.zeros(len(ball))
            v[:2] = [1.0, -1.0]
            return v

        monkeypatch.setattr(profile, "ASCENT_MAXITER", 0)
        monkeypatch.setattr(profile, "dirichlet_pc", start)
        tv = optimize_profile(ball, 2)
        assert tv.values == {e: 2 ** -0.5}
        assert tv.certified_J == pytest.approx(2 ** -0.5, rel=1e-12)


class TestProfileCurve:
    def test_monotone_with_valid_certificates(self):
        curve = profile_curve(bfs_ball(L28, None), 2, [1, 2, 3, 4])
        js = [j for _, j in curve.points]
        assert all(b >= a - 1e-12 for a, b in zip(js, js[1:]))
        assert curve.diameter == 18
        for tv, (r, j) in zip(curve.vectors, curve.points):
            assert tv.radius == r
            assert tv.certified_J == j
            check = revalidate(tv)
            assert check["support_ok"]
            assert check["max_form"] == pytest.approx(j, abs=1e-9)

    def test_c_hat_matches_points(self):
        curve = profile_curve(bfs_ball(L28, None), 2, [2, 4])
        expected = max(r / j for r, j in curve.points)
        assert curve.C_hat == pytest.approx(expected, rel=1e-12)

    def test_radius_past_half_diameter_refused(self):
        with pytest.raises(BadScale):
            profile_curve(bfs_ball(L28, None), 2, [10])

    def test_infinite_family_refused(self):
        with pytest.raises(BadParam):
            profile_curve(bfs_ball(L2INF, 4), 2, [2])

    def test_partial_ball_refused(self):
        # a radius-5 ball of a diameter-13 group once passed for the whole group
        with pytest.raises(BadParam, match="complete table"):
            profile_curve(bfs_ball(L26, 5), 2, [1])

    def test_bad_radii_refused(self):
        with pytest.raises(BadParam):
            profile_curve(bfs_ball(L28, None), 2, [])
        with pytest.raises(BadParam):
            profile_curve(bfs_ball(L28, None), 2, [0, 2])
        # int() once read 2.5 as 2, so [2.7] certified r = 2, and None leaked a TypeError
        for radii in ([2.5, "3"], [None], [2.7]):
            with pytest.raises(BadParam, match="must be an integer"):
                checked_radii(radii)
            with pytest.raises(BadParam, match="must be an integer"):
                profile_curve(bfs_ball(L24, None), 2, radii)

    def test_csv_shape(self, capsys):
        assert main(["profile", "--family", "lamplighter-fin", "--m", "2", "--n", "4",
                     "--radius", "1,2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "r,certified_J,ratio_r_over_J"
        assert len(lines) == 3
        r, j, ratio = lines[1].split(",")
        assert r == "1"
        assert float(ratio) == pytest.approx(1 / float(j), rel=1e-9)


class TestTransport:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_small_balls_match_infinite_parent(self, r):
        # balls of radius < girth/2 are isometric, so certificates transfer
        fin = optimize_profile(bfs_ball(L28, r - 1), 2)
        inf = optimize_profile(bfs_ball(L2INF, r - 1), 2)
        assert fin.certified_J == pytest.approx(inf.certified_J, abs=1e-9)

