import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cayleydist import (
    BadParam,
    BadScale,
    CodeSpace,
    DegenerateInput,
    NoConvergence,
    ZeroGradient,
    ZeroNorm,
    bfs_ball,
    build_bundle,
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
from cayleydist import _lazy, profile
from cayleydist.cli import main
from cayleydist.embed import _gap_pow
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
    # distinct generators: no row repeats a neighbour, so the matvec weights none
    rows = np.sort(np.stack(in_maps, axis=1), axis=1)
    assert not ((rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] >= 0)).any()


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


def _scipy_pc(n, in_maps, rng=None):
    """The Dirichlet solve as scipy's own ``csr_matrix`` and ``eigsh`` compute it:
    the reference ``dirichlet_pc`` must match bit for bit."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    neighbors = np.stack(in_maps, axis=1)
    rows, cols = np.nonzero(neighbors >= 0)
    W = csr_matrix((np.ones(len(rows)), (rows, neighbors[rows, cols])), shape=(n, n))
    _, vec = eigsh(W, k=1, which="LA", v0=np.full(n, 1.0 / math.sqrt(n)),
                   tol=profile.DIRICHLET_TOL, maxiter=profile.DIRICHLET_MAXITER, rng=rng)
    return np.abs(vec[:, 0])


def _assert_same_bits(ours, ref):
    assert np.array_equal(ours, ref)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


def _scipy_cases():
    for spec in CODE_FAMILIES:
        table = bfs_ball(spec, None)
        for r in range(1, table.radius // 2 + 1):
            yield pytest.param(table.ball(r), id=f"{spec}-r{r}")
    yield pytest.param(bfs_ball(make_spec("lamplighter-fin", m=2, n=10), 8), id="L2_10-r8")
    yield pytest.param(bfs_ball(make_spec("sol-fin", n=144), 4), id="sol144-r4")


@pytest.mark.parametrize("ball", _scipy_cases())
def test_dirichlet_matches_scipy_eigsh_bit_for_bit(ball):
    """Driving ARPACK directly keeps eigsh's arithmetic; this also catches drift
    in scipy's private ``_arpacklib`` interface."""
    in_maps = [ball.in_map(s) for s in ball.gens]
    _assert_same_bits(dirichlet_pc(ball, in_maps), _scipy_pc(len(ball), in_maps))


class _Cycle:
    """Just what ``dirichlet_pc`` reads of a ball, for the cycle on n vertices."""
    complete = False

    def __init__(self, n):
        self.n = n
        self.in_maps = [(np.arange(n) + step) % n for step in (-1, 1)]

    def __len__(self):
        return self.n


@pytest.mark.parametrize("n", [3, 30])
def test_dirichlet_random_restart_matches_eigsh_at_the_seed(n, monkeypatch):
    """On a cycle the constant start is already an eigenvector, so ARPACK asks
    for a random vector (``ido`` 4); it comes from ``ARPACK_SEED``."""
    lib = _lazy.arpack()
    actions = []

    def dsaupd_wrap(state, *args):
        lib.dsaupd_wrap(state, *args)
        actions.append(state["ido"])

    monkeypatch.setattr(profile, "arpack", lambda: SimpleNamespace(
        dsaupd_wrap=dsaupd_wrap, dseupd_wrap=lib.dseupd_wrap))
    cycle = _Cycle(n)
    ours = dirichlet_pc(cycle, cycle.in_maps)
    assert 4 in actions
    _assert_same_bits(ours, _scipy_pc(n, cycle.in_maps, rng=profile.ARPACK_SEED))


def test_adjacency_matvec_is_the_csr_product():
    """Each row's neighbours, distinct and listed out of position order, are
    its CSR entries; a -1 is no entry."""
    from scipy.sparse import csr_matrix

    i = np.arange(9)
    in_maps = [(i + 1) % 9, np.where(i % 2, 0, -1), (i + 5) % 9, (i + 3) % 9, (i - 2) % 9]
    neighbors = np.stack(in_maps, axis=1)
    rows, cols = np.nonzero(neighbors >= 0)
    W = csr_matrix((np.ones(len(rows)), (rows, neighbors[rows, cols])), shape=(9, 9))
    x = np.random.default_rng(5).standard_normal(9) * 10.0 ** np.arange(-4, 5)
    _assert_same_bits(profile._adjacency_matvec(in_maps, 9)(x), W @ x)


def test_dirichlet_iteration_cap_is_no_convergence(monkeypatch):
    monkeypatch.setattr(profile, "DIRICHLET_MAXITER", 1)
    with pytest.raises(NoConvergence, match="stalled after 1 iterations"):
        pc(bfs_ball(make_spec("lamplighter-fin", m=2, n=10), 8))


@pytest.mark.parametrize("routine, info", [("dsaupd", -9999), ("dseupd", -14)])
def test_dirichlet_arpack_errors_are_no_convergence(monkeypatch, routine, info):
    """Every nonzero ``info`` from either ARPACK call ends in NoConvergence."""
    lib = _lazy.arpack()

    def failing(name):
        def call(state, *args):
            getattr(lib, name + "_wrap")(state, *args)
            if name == routine:
                state.update(ido=99, info=info)
        return call

    monkeypatch.setattr(profile, "arpack", lambda: SimpleNamespace(
        dsaupd_wrap=failing("dsaupd"), dseupd_wrap=failing("dseupd")))
    with pytest.raises(NoConvergence, match=f"ARPACK {routine} returned info {info}"):
        pc(bfs_ball(L28, 3))


def test_arpack_loader_names_the_scipy_requirement(monkeypatch):
    monkeypatch.setattr(_lazy.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy>=1\.17"):
        _lazy.arpack.__wrapped__()


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

    def test_best_witness_carried_forward(self, monkeypatch):
        """A larger radius that certifies less keeps the best witness so far,
        its radius set to r: that witness's support lies in the larger ball too."""
        real = profile.optimize_profile

        def weaker_on_radius_two(ball, p):
            tv = real(ball, p)
            return replace(tv, certified_J=tv.certified_J / 10) if ball.radius == 2 else tv

        monkeypatch.setattr(profile, "optimize_profile", weaker_on_radius_two)
        curve = profile_curve(bfs_ball(L28, None), 2, [2, 3])
        first, second = curve.vectors
        assert second == replace(first, radius=3)
        assert curve.points == ((2, first.certified_J), (3, first.certified_J))

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



def _dict_translate_gap(spec, f, g):
    """f - lambda(g)f as a dict over the support and its translate by g, the
    re-check's reference: one ``mul`` per support element."""
    diff = {mul(spec, g, x): -v for x, v in f.items()}
    for x, v in f.items():
        diff[x] = diff.get(x, 0.0) + v
    return diff


def _dict_norm_and_gradients(spec, f, p):
    norm = lp_norm(f.values(), p)
    if norm == 0.0:
        raise ZeroNorm("test function is identically zero")
    grads = [lp_norm(_dict_translate_gap(spec, f, s).values(), p) for s in generators(spec)]
    if max(grads) == 0.0:
        raise ZeroGradient("all generator differences vanish")
    return norm, grads


def _dict_rayleigh(spec, f, p):
    norm, grads = _dict_norm_and_gradients(spec, f, p)
    return norm / max(grads), norm / lp_norm(grads, p)


def _dict_revalidate(tv):
    ball = bfs_ball(tv.spec, tv.radius - 1)
    norm, grads = _dict_norm_and_gradients(tv.spec, tv.values, tv.p)
    return {"support_ok": all(x in ball.dist for x in tv.values),
            "gradient_max": max(grads), "max_form": norm / max(grads)}


def _result(fn, *args):
    """fn(*args), or the type of the re-check error it raises."""
    try:
        return fn(*args)
    except (ZeroNorm, ZeroGradient) as exc:
        return type(exc)


def _recheck_cases():
    """Every certificate ``build_bundle`` makes on each code family at four
    exponents; per family a function on the whole radius-2 ball, whose
    translates leave the ball, claimed inside the open balls of radius 3 and
    (wrongly) 2, and a zero one; a constant on all of C_2 wr C_2."""
    def case(spec, f, p=2.5, radius=3):
        return profile.TestVector(spec=spec, radius=radius, p=p, values=f, certified_J=0.0,
                                  gradient_max=0.0, converged=True)
    for spec in CODE_FAMILIES:
        table = bfs_ball(spec, None)
        for p in (2, 2.5, 3, 4):
            for tv in build_bundle(table, p).vectors:
                yield pytest.param(tv, id=f"{spec}-p{p}-r{tv.radius}")
        boundary = {x: (-1.0) ** i / (i + 3) for i, x in enumerate(table.ball(2).dist)}
        yield pytest.param(case(spec, boundary), id=f"{spec}-boundary")
        yield pytest.param(case(spec, boundary, radius=2), id=f"{spec}-past-boundary")
        yield pytest.param(case(spec, {identity(spec): 0.0}), id=f"{spec}-zero")
    whole = make_spec("lamplighter-fin", m=2, n=2)
    constant = dict.fromkeys(bfs_ball(whole, None).dist, 1.0)
    yield pytest.param(case(whole, constant, 2), id="constant-on-whole-group")


class TestTupleRecheck:
    @pytest.mark.parametrize("tv", list(_recheck_cases()))
    def test_bit_equal_to_dict_gaps(self, tv):
        """The support-index gaps give the dict gaps' numbers bit for bit, and
        raise ZeroNorm and ZeroGradient where they do."""
        spec, f, p = tv.spec, tv.values, tv.p
        assert (_result(profile._norm_and_gradients, spec, f, p)
                == _result(_dict_norm_and_gradients, spec, f, p))
        assert _result(rayleigh, spec, f, p) == _result(_dict_rayleigh, spec, f, p)
        assert _result(revalidate, tv) == _result(_dict_revalidate, tv)
        for g in bfs_ball(spec, 2).dist:
            want = math.fsum(abs(v) ** p for v in _dict_translate_gap(spec, f, g).values())
            assert _gap_pow(spec, f, g, p) == want

    def test_revalidate_reads_no_codes(self, monkeypatch):
        """One certificate per family re-checks with every CodeSpace map refused."""
        specs = [CODE_FAMILIES[0], CODE_FAMILIES[2], CODE_FAMILIES[4], L2INF,
                 make_spec("bs-inf", m=3), make_spec("sol-inf")]
        tvs = [optimize_profile(bfs_ball(spec, 2), 2) for spec in specs]
        assert all(len(tv.values) > 1 for tv in tvs)  # no dirac fallback

        def refuse(*args, **kwargs):
            raise AssertionError("the certificate re-check read CodeSpace")

        for name in ("encode_many", "decode_many", "act_left", "act_right"):
            monkeypatch.setattr(CodeSpace, name, refuse)
        for tv in tvs:
            check = revalidate(tv)
            assert check["support_ok"]
            assert check["max_form"] == tv.certified_J
            assert check["gradient_max"] == tv.gradient_max
