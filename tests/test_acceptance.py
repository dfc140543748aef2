"""End-to-end acceptance gate.

Each test exercises one shipped guarantee at its stated tolerance and time
budget and records a single PASS/FAIL line, printed in the terminal summary.
Heavy artifacts (full ball tables, bundles, distortion reports) are cached at
module level so criteria share them instead of recomputing.
"""

import functools
import math
import random
import time
from contextlib import contextmanager

import numpy as np

import conftest
from cayleydist import (
    CodeSpace,
    apriori_bound,
    bfs_ball,
    build_bundle,
    cocycle_defect,
    distortion_equivariant,
    embed_norm,
    embed_norms_all,
    embed_point,
    exact_c2,
    exp_radical_scan,
    from_string,
    generators,
    girth,
    identity,
    inv,
    make_spec,
    mul,
    optimize_embedding,
    profile_curve,
    project,
    revalidate,
    to_string,
)


@contextmanager
def criterion(num, label, budget=None):
    """Record one PASS/FAIL summary line; enforce the budget when given."""
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"budget overrun: {elapsed:.1f}s >= {budget:.0f}s")
    except BaseException as err:
        conftest.acceptance_lines.append(
            f"FAIL criterion {num:2d} ({label}): {type(err).__name__}")
        raise
    line = f"PASS criterion {num:2d} ({label}): {elapsed:.1f}s"
    if budget is not None:
        line += f" (budget {budget:.0f}s)"
    conftest.acceptance_lines.append(line)
    print(line)


def lamplighter(n):
    return make_spec("lamplighter-fin", m=2, n=n)


def bs(n):
    return make_spec("bs-fin", m=2, n=n)


def sol(n):
    return make_spec("sol-fin", n=n)


@functools.cache
def table(spec):
    return bfs_ball(spec, None)


@functools.cache
def bundle(spec, p):
    return build_bundle(table(spec), p)


@functools.cache
def report(spec, p):
    return distortion_equivariant(bundle(spec, p))


def diam(spec):
    return len(table(spec).sphere_sizes) - 1


def random_element(spec, rng):
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


def test_criterion_01_axioms_projections_round_trips():
    specs = [
        lamplighter(4),
        bs(4),
        sol(5),
        make_spec("lamplighter-inf", m=2),
        make_spec("bs-inf", m=2),
        make_spec("sol-inf"),
    ]
    pairs = [
        (make_spec("lamplighter-inf", m=2), lamplighter(4)),
        (make_spec("bs-inf", m=2), bs(4)),
        (make_spec("sol-inf"), sol(5)),
    ]
    with criterion(1, "group axioms, projections, round trips", budget=5):
        for spec in specs:
            rng = random.Random(1000 + hash(spec.family) % 97)
            e = identity(spec)
            for _ in range(1000):
                x = random_element(spec, rng)
                y = random_element(spec, rng)
                z = random_element(spec, rng)
                assert mul(spec, mul(spec, x, y), z) == mul(spec, x, mul(spec, y, z))
                assert mul(spec, x, e) == x and mul(spec, e, x) == x
                assert mul(spec, x, inv(spec, x)) == e
                assert from_string(spec, to_string(spec, x)) == x
        for parent, fin in pairs:
            rng = random.Random(2000)
            for _ in range(1000):
                x = random_element(parent, rng)
                y = random_element(parent, rng)
                assert project(parent, fin, mul(parent, x, y)) == mul(
                    fin, project(parent, fin, x), project(parent, fin, y))


def test_criterion_02_diameter_bounds():
    with criterion(2, "diameter bounds", budget=120):
        for n in range(2, 13):
            assert diam(lamplighter(n)) <= 5 * n
        for n in range(2, 15):
            assert diam(bs(n)) <= 3 * n
        ratios = []
        for n in (3, 5, 7, 11, 13):
            t = table(sol(n))
            diam_n = max(d for x, d in t.dist.items() if x[1] == 0)
            ratios.append(diam_n / math.log(n))
        assert max(ratios) <= 3 * min(ratios)


def test_criterion_03_quotient_girth():
    with criterion(3, "quotient girth lower bounds", budget=120):
        l_inf = make_spec("lamplighter-inf", m=2)
        b_inf = make_spec("bs-inf", m=2)
        for n in (3, 4, 5, 6):
            assert girth(l_inf, lamplighter(n), cap=6).g_lower >= min(n, 6)
            assert girth(b_inf, bs(n), cap=6).g_lower >= min(n, 6)
        s_inf = make_spec("sol-inf")
        for n in (5, 7):
            assert girth(s_inf, sol(n), cap=2).g_lower >= 2


def test_criterion_04_profile_certificates():
    with criterion(4, "profile certificates", budget=180):
        c_hats = []
        for n in (6, 8, 10, 12):
            spec = lamplighter(n)
            t = table(spec)
            radii = [r for r in (1, 2, 4, 8) if 2 * r <= diam(spec)]
            curve = profile_curve(t, 2.0, radii)
            for tv in curve.vectors:
                check = revalidate(tv)
                assert check["support_ok"]
                assert abs(check["gradient_max"] - 1.0) <= 1e-9
                assert abs(check["max_form"] - tv.certified_J) <= 1e-9
            js = [tv.certified_J for tv in curve.vectors]
            assert all(a <= b + 1e-12 for a, b in zip(js, js[1:]))
            c_hats.append(curve.C_hat)
        assert max(c_hats) <= 2 * min(c_hats)


def test_criterion_05_construction_invariants():
    spec6, spec4 = lamplighter(6), lamplighter(4)
    with criterion(5, "embedding construction invariants", budget=120):
        b6, t6 = bundle(spec6, 2.0), table(spec6)
        ap = apriori_bound(b6)
        rng = random.Random(5)
        for _ in range(1000):
            g = random_element(spec6, rng)
            h = random_element(spec6, rng)
            assert cocycle_defect(b6, g, h) <= 1e-9

        assert embed_norm(b6, identity(spec6)) == 0.0
        cs = CodeSpace(spec6)
        norms = embed_norms_all(b6)
        lengths = np.empty(spec6.order)
        lengths[cs.encode_many(t6.dist)] = list(t6.dist.values())
        assert np.all(norms <= lengths * ap.lip_bound + 1e-9)
        floors = math.sqrt(2.0) * np.maximum(1.0, lengths / 8.0)
        off_e = lengths > 0
        assert np.all(norms[off_e] >= floors[off_e] - 1e-9)
        assert np.all(norms[off_e] > 0)

        b4, t4 = bundle(spec4, 2.0), table(spec4)
        cs4 = CodeSpace(spec4)
        points = np.stack([embed_point(b4, x) for x in t4.dist])
        norms4 = embed_norms_all(b4)
        codes4 = cs4.encode_many(t4.dist)
        for i, x in enumerate(t4.dist):
            direct = np.linalg.norm(points - points[i], axis=1)
            via_norm = norms4[cs4.act_left(inv(spec4, x), codes4)]
            assert np.all(np.abs(direct - via_norm)
                          <= 1e-9 * np.maximum(1.0, via_norm))


def test_criterion_06_distortion_within_apriori_bound():
    specs = ([lamplighter(n) for n in range(2, 13)]
             + [bs(n) for n in range(2, 13)]
             + [sol(n) for n in (5, 7, 11)])
    with criterion(6, "distortion within a priori bound", budget=300):
        for spec in specs:
            rep = report(spec, 2.0)
            bound = apriori_bound(bundle(spec, 2.0)).dist_bound
            assert rep.dist <= bound + 1e-9, str(spec)


def test_criterion_07_lamplighter_scaling_band():
    with criterion(7, "lamplighter scaling band", budget=600):
        ratios = []
        for p in (2.0, 3.0):
            for n in (4, 6, 8, 10, 12):
                spec = lamplighter(n)
                rep = report(spec, p)
                ratios.append(rep.dist / math.log(diam(spec)) ** (1 / p))
                closed = apriori_bound(bundle(spec, p)).closed_form
                assert rep.dist <= closed, f"{spec} p={p}"
        assert max(ratios) <= 3 * min(ratios)


def test_criterion_08_sol_composite_embedding():
    with criterion(8, "sol composite embedding", budget=600):
        ratios = []
        for n in (5, 7, 11, 13):
            spec = sol(n)
            norms = embed_norms_all(bundle(spec, 2.0))
            assert int((norms > 0).sum()) == spec.order - 1
            rep = report(spec, 2.0)
            bound = apriori_bound(bundle(spec, 2.0)).dist_bound
            assert rep.dist <= bound + 1e-9
            ratios.append(rep.dist / math.sqrt(math.log(math.log(spec.order)) + 1))
        assert max(ratios) <= 4 * min(ratios)


def test_criterion_09_euclidean_distortion_oracle():
    path5 = [[abs(i - j) for j in range(5)] for i in range(5)]
    cycle4 = [[min(abs(i - j), 4 - abs(i - j)) for j in range(4)]
              for i in range(4)]
    star = [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
    cases = [
        (path5, 1.0, 1e-6),
        (cycle4, math.sqrt(2), 1e-4),
        (star, math.sqrt(4 / 3), 1e-3),
    ]
    with criterion(9, "euclidean distortion oracle"):
        for metric, expected, tol in cases:
            t0 = time.perf_counter()
            res = exact_c2(metric)
            assert time.perf_counter() - t0 < 10
            assert abs(res.value - expected) <= tol
            _, rep = optimize_embedding(metric, 2, dim=len(metric) - 1)
            assert res.value <= rep.dist + 1e-6


def test_criterion_10_plane_subgroup_growth():
    with criterion(10, "plane subgroup growth sandwich", budget=120):
        rep = exp_radical_scan(make_spec("sol-inf"), 12)
        alpha = rep.alpha_hat
        assert alpha <= 3
        tail = [(r, hi) for r, _, hi in rep.rows if r >= 3]
        assert tail
        for r, hi in tail:
            assert r / alpha <= hi + 1e-12
            assert hi <= alpha * r + 1e-12
