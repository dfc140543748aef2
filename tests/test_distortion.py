import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from cayleydist import (
    BadParam,
    BadScale,
    CircleMap,
    CodeSpace,
    DegenerateInput,
    MetricTable,
    ZeroNorm,
    apriori_bound,
    bfs_ball,
    build_bundle,
    distortion_equivariant,
    distortion_pairwise,
    embed_norm,
    embed_norms_all,
    embed_point,
    exact_c2,
    exp_radical_scan,
    generators,
    identity,
    lp_norm,
    make_spec,
    matrix_order,
    metric_from_table,
    optimize_profile,
    profile_curve,
    rayleigh,
    to_string,
)
from cayleydist import distortion
from cayleydist.cayley import CODE_SLICE
from cayleydist.cli import main
from cayleydist.distortion import C2_RESID_TOL, C2_SWEEPS
from cayleydist.profile import checked_radii

L24 = make_spec("lamplighter-fin", m=2, n=4)
BS23 = make_spec("bs-fin", m=2, n=3)


def path_metric(n):
    return [[abs(i - j) for j in range(n)] for i in range(n)]


def cycle_metric(q):
    return [[min(abs(i - j), q - abs(i - j)) for j in range(q)] for i in range(q)]


STAR = [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]


def random_graph_metric(seed, n):
    """Shortest paths of a seeded random connected graph with weights 1..5."""
    rng = np.random.default_rng(seed)
    W = np.full((n, n), np.inf)
    np.fill_diagonal(W, 0.0)
    for k in range(1, n):  # a random spanning tree, then n more edges
        W[k, rng.integers(k)] = rng.integers(1, 6)
    for _ in range(n):
        a, b = rng.choice(n, 2, replace=False)
        W[a, b] = min(W[a, b], W[b, a], rng.integers(1, 6))
    W = np.minimum(W, W.T)
    for k in range(n):
        W = np.minimum(W, W[:, k, None] + W[None, k, :])
    return W


@pytest.fixture(scope="module")
def b24():
    return build_bundle(bfs_ball(L24, None), 2)


class TestMetricTable:
    def test_valid_path(self):
        M = MetricTable(path_metric(4))
        assert M.n == 4 and len(M) == 4

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(BadParam):
            MetricTable([[0, 1]])
        with pytest.raises(BadParam):
            MetricTable([[0, 1], [2, 0]])
        with pytest.raises(BadParam):
            MetricTable([[1, 1], [1, 0]])
        with pytest.raises(BadParam):
            MetricTable([[0, 0], [0, 0]])

    @pytest.mark.parametrize("matrix", [[[0, "1"], ["1", 0]], [[0, True], [True, 0]],
                                        [[0.0, 1], [True, 0]], np.array([[0, 1], [1, 0]], bool),
                                        [[0, np.True_], [np.True_, 0]], [[0, None], [None, 0]]],
                             ids=["str", "bool", "float-and-bool", "bool-array", "np-bool", "None"])
    def test_rejects_entries_that_are_not_numbers(self, matrix):
        """np.array(..., dtype=float) reads "1" and True as 1.0: each is refused."""
        with pytest.raises(BadParam, match="must be numeric"):
            MetricTable(matrix)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float32, np.float64])
    def test_numeric_arrays_accepted(self, dtype):
        rows = np.array(path_metric(3), dtype=dtype)
        assert MetricTable(rows).matrix.tolist() == path_metric(3)
        assert MetricTable(list(rows)).matrix.tolist() == path_metric(3)

    def test_rejects_triangle_violation(self):
        with pytest.raises(BadParam):
            MetricTable([[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    def test_matrix_is_frozen(self):
        M = MetricTable(path_metric(3))
        with pytest.raises(ValueError):
            M.matrix[0, 1] = 5.0

    def test_from_group_table(self):
        spec = make_spec("lamplighter-fin", m=2, n=2)
        table = bfs_ball(spec, None)
        M = metric_from_table(table)
        assert M.n == 8
        assert M.matrix.max() == 4  # known diameter

    @pytest.mark.parametrize("spec", [make_spec("lamplighter-fin", m=2, n=2), BS23,
                                      make_spec("sol-fin", n=2)], ids=str)
    def test_from_group_table_entries(self, spec):
        table = bfs_ball(spec, None)
        points = list(table.dist)
        want = [[table.pair_distance(x, y) for y in points] for x in points]
        assert metric_from_table(table).matrix.tolist() == want

    def test_from_incomplete_table_rejected(self):
        with pytest.raises(BadParam):
            metric_from_table(bfs_ball(L24, 1))


class TestPairwise:
    def test_isometric_path_in_line(self):
        pts = [[float(i)] for i in range(4)]
        report = distortion_pairwise(pts, path_metric(4), 2)
        assert report.dist == pytest.approx(1.0, rel=1e-12)

    def test_unit_square_against_cycle(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        report = distortion_pairwise(pts, cycle_metric(4), 2)
        assert report.expansion == pytest.approx(1.0, rel=1e-12)
        assert report.contraction == pytest.approx(math.sqrt(2), rel=1e-12)
        assert report.dist == pytest.approx(math.sqrt(2), rel=1e-12)
        assert report.witness_contract == (0, 2)

    def test_scaling_invariance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        a = distortion_pairwise(pts, cycle_metric(4), 2)
        b = distortion_pairwise(pts * 7.5, cycle_metric(4), 2)
        assert b.dist == pytest.approx(a.dist, rel=1e-12)

    def test_scale_filter(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        report = distortion_pairwise(pts, cycle_metric(4), 2, R=1)
        assert report.dist == pytest.approx(1.0, rel=1e-12)

    def test_circle_map_near_half_pi(self):
        q = 101
        pts = [CircleMap(q).point(t) for t in range(q)]
        report = distortion_pairwise(pts, cycle_metric(q), 2)
        assert 1.5 <= report.dist <= 1.58

    def test_witnesses_reproduce_ratios(self):
        pts = [CircleMap(9).point(t) for t in range(9)]
        report = distortion_pairwise(pts, cycle_metric(9), 2)
        D = MetricTable(cycle_metric(9)).matrix
        i, j = report.witness_expand
        assert np.linalg.norm(np.subtract(pts[i], pts[j])) / D[i, j] == pytest.approx(
            report.expansion, rel=1e-12)
        i, j = report.witness_contract
        assert D[i, j] / np.linalg.norm(np.subtract(pts[i], pts[j])) == pytest.approx(
            report.contraction, rel=1e-12)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInput):
            distortion_pairwise([[0.0], [0.0], [2.0]], path_metric(3), 2)

    def test_size_mismatch_rejected(self):
        with pytest.raises(BadParam):
            distortion_pairwise([[0.0], [1.0]], path_metric(3), 2)

    def test_nonpositive_scale_refused(self):
        with pytest.raises(BadParam, match="scale R = 0 must be positive"):
            distortion_pairwise([[0.0], [1.0]], path_metric(2), R=0)

    def test_no_pairs_within_scale(self):
        with pytest.raises(DegenerateInput):
            distortion_pairwise([[0.0], [1.0]], path_metric(2), 2, R=0.5)


class TestEquivariant:
    def test_within_apriori_bound(self, b24):
        report = distortion_equivariant(b24)
        bound = apriori_bound(b24)
        assert 1.0 <= report.dist <= bound.dist_bound + 1e-9

    def test_witnesses_reproduce_ratios(self, b24):
        table = b24.table
        report = distortion_equivariant(b24)
        e, g = report.witness_expand
        assert e == identity(L24)
        d = table.word_length(g)
        assert embed_norm(b24, g) / d == pytest.approx(report.expansion, rel=1e-9)
        _, g = report.witness_contract
        d = table.word_length(g)
        assert d / embed_norm(b24, g) == pytest.approx(report.contraction, rel=1e-9)

    def test_generator_scale(self, b24):
        report = distortion_equivariant(b24, R=1)
        norms = [embed_norm(b24, s) for s in generators(L24)]
        assert report.expansion == pytest.approx(max(norms), rel=1e-9)
        assert report.contraction == pytest.approx(1 / min(norms), rel=1e-9)
        assert report.dist >= 1.0

    def test_scale_validation(self, b24):
        with pytest.raises(BadScale):
            distortion_equivariant(b24, R=100)
        with pytest.raises(BadParam):
            distortion_equivariant(b24, R=0)

    def test_nan_scale_refused(self, b24):
        with pytest.raises(BadParam, match="must be >= 1"):
            distortion_equivariant(b24, R=math.nan)

    def test_incomplete_table_rejected(self):
        # the bundle carries the table distortion_equivariant measures against;
        # a radius-5 ball of this diameter-13 group once gave R = 5, not 13
        with pytest.raises(BadParam, match="complete table"):
            build_bundle(bfs_ball(make_spec("lamplighter-fin", m=2, n=6), 5), 2)

    def test_bundle_keeps_its_table(self, b24):
        zeroed = replace(b24, coefs=(0.0,) + b24.coefs[1:])
        assert zeroed.table is b24.table
        assert distortion_equivariant(zeroed).R == len(b24.table.sphere_sizes) - 1

    def test_broken_bundle_raises_zero_norm(self, b24):
        # every element collapses; the error names the smallest code, t (code 1),
        # not the first element in BFS order, the lamp (code 4)
        broken = replace(b24, coefs=tuple(0.0 for _ in b24.coefs))
        with pytest.raises(ZeroNorm, match=r"collapses lamps:0000\|pos:1$"):
            distortion_equivariant(broken)

    @pytest.mark.parametrize("spec", [L24, BS23], ids=["L24", "BS23"])
    def test_oracle_agreement_all_pairs(self, spec):
        self.check_oracle_agreement(spec, None)

    @pytest.mark.parametrize("R", [2.5, 3])
    @pytest.mark.parametrize("spec", [L24, BS23], ids=["L24", "BS23"])
    def test_oracle_agreement_at_scale(self, spec, R):
        # below the diameter the equivariant path reads a BFS prefix of the table
        self.check_oracle_agreement(spec, R)

    @staticmethod
    def check_oracle_agreement(spec, R):
        table = bfs_ball(spec, None)
        bundle = build_bundle(table, 2)
        eq = distortion_equivariant(bundle, R)
        pts = np.array([embed_point(bundle, x) for x in table.dist])
        pw = distortion_pairwise(pts, metric_from_table(table), 2, R=R)
        assert pw.expansion == pytest.approx(eq.expansion, rel=1e-9)
        assert pw.contraction == pytest.approx(eq.contraction, rel=1e-9)
        assert pw.dist == pytest.approx(eq.dist, rel=1e-9)

    def test_report_json_round_trip(self, b24, capsys):
        report = distortion_equivariant(b24)
        assert main(["distort", "--family", "lamplighter-fin", "--m", "2", "--n", "4"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert set(blob) == {"R", "expansion", "contraction", "dist",
                             "witness_expand", "witness_contract",
                             "lip_bound", "colip_bound", "dist_bound", "closed_form"}
        assert blob["dist"] == report.dist
        assert all(isinstance(s, str) for s in blob["witness_expand"])


L2_13 = make_spec("lamplighter-fin", m=2, n=13)  # 106,496 elements: two CODE_SLICE slices


@pytest.fixture(scope="module")
def b2_13():
    return build_bundle(bfs_ball(L2_13, None), 2)


def _reference_equivariant(bundle, R, all_norms):
    """distortion_equivariant's sup as it stood before it read the ball in
    slices, on whole-ball arrays: (expansion, its witness, contraction, its
    witness), or the text of the element the smallest collapsed code decodes to."""
    cs = CodeSpace(bundle.spec)
    ball = bundle.table.ball(math.floor(R))
    codes = ball.elements[1:]
    norms = all_norms[codes]
    lengths = ball.lengths()[1:]
    if (norms == 0.0).any():
        return to_string(bundle.spec, cs.decode(int(codes[norms == 0.0].min())))
    tops = []
    for ratios in (norms / lengths, lengths / norms):
        top = ratios.max()
        tops += [top, min(cs.decode_many(codes[ratios == top]))]
    return tuple(tops)


def _check_against_reference(bundle, R, all_norms):
    want = _reference_equivariant(bundle, bundle.table.radius if R is None else R, all_norms)
    if isinstance(want, str):
        with pytest.raises(ZeroNorm, match=re.escape(want) + "$"):
            distortion_equivariant(bundle, R)
        return
    report = distortion_equivariant(bundle, R)
    e = identity(bundle.spec)
    assert (report.expansion, report.witness_expand, report.contraction,
            report.witness_contract) == (want[0], (e, want[1]), want[2], (e, want[3]))
    assert report.dist == want[0] * want[2]


@pytest.mark.parametrize("R", [None, 20, 12])
def test_sliced_ratios_are_the_whole_ball_sup(b2_13, R):
    """Reading the ball in CODE_SLICE slices gives the whole-ball arrays'
    floats and witnesses; R = 20 (80,328 elements) still spans two slices,
    R = 12 (3,807) one."""
    _check_against_reference(b2_13, R, embed_norms_all(b2_13))


def test_sliced_ratios_keep_ties_and_zeros_across_slices(b2_13, monkeypatch):
    """Maxima tied across slices give the lex-smallest witness of them all,
    whether it lies in the later slice (expansion) or the earlier one
    (contraction), and ZeroNorm names the smallest collapsed code, which lies
    in the later slice, not the first one met."""
    cs = CodeSpace(L2_13)
    table = b2_13.table
    at = np.flatnonzero(table.lengths() == 19)  # word length 19 spans both slices
    first = sorted(table.elements[at[at <= CODE_SLICE]].tolist(), key=cs.decode)
    second = sorted(table.elements[at[at > CODE_SLICE]].tolist(), key=cs.decode)
    expand, contract = [first[-1], second[0]], [first[0], second[-1]]
    assert cs.decode(second[0]) < cs.decode(first[-1])
    assert cs.decode(first[0]) < cs.decode(second[-1])
    tied = embed_norms_all(b2_13)
    tied[expand], tied[contract] = 100.0, 1e-3
    monkeypatch.setattr(distortion, "embed_norms_all", lambda bundle: tied)
    _check_against_reference(b2_13, None, tied)
    report = distortion_equivariant(b2_13)
    assert (report.witness_expand[1], report.witness_contract[1]) == tuple(
        cs.decode(c) for c in (second[0], first[0]))

    collapsed = embed_norms_all(b2_13)
    zeros = [max(first), min(second)]
    assert zeros[1] < zeros[0]
    collapsed[zeros] = 0.0
    monkeypatch.setattr(distortion, "embed_norms_all", lambda bundle: collapsed)
    _check_against_reference(b2_13, None, collapsed)
    with pytest.raises(ZeroNorm, match=re.escape(to_string(L2_13, cs.decode(zeros[1]))) + "$"):
        distortion_equivariant(b2_13)


class TestExactC2:
    def test_path_is_euclidean(self):
        res = exact_c2(path_metric(5))
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_four_cycle(self):
        res = exact_c2(cycle_metric(4))
        assert res.value == pytest.approx(math.sqrt(2), abs=1e-4)

    def test_three_leaf_star(self):
        res = exact_c2(STAR)
        assert res.value == pytest.approx(math.sqrt(4 / 3), abs=1e-3)

    def test_certificate_gram(self):
        res = exact_c2(cycle_metric(4))
        w = np.linalg.eigvalsh(res.gram)
        assert w.min() >= -1e-8
        D = MetricTable(cycle_metric(4)).matrix
        T = res.bracket[1]
        for i in range(4):
            for j in range(i + 1, 4):
                v = res.gram[i, i] + res.gram[j, j] - 2 * res.gram[i, j]
                assert v >= D[i, j] ** 2 - 1e-6
                assert v <= T * D[i, j] ** 2 + 1e-6

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_gram_psd_on_value_one(self, n):
        """A path embeds isometrically, so T = 1 is feasible at once; gram is
        still the PSD part, not the last slab pass (-1.3e-10 to -1.9e-8 before)."""
        res = exact_c2(path_metric(n))
        assert res.value == 1.0 and res.bracket == (1.0, 1.0)
        assert np.linalg.eigvalsh(res.gram).min() >= -1e-14

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_unsquarable_scale_refused(self, scale):
        """The gram is rescaled by the largest distance squared, which must be finite."""
        with pytest.raises(BadParam, match="has no finite square"):
            exact_c2([[0, scale], [scale, 0]])

    @pytest.mark.parametrize("metric", [
        [[0, 1e-155], [1e-155, 0]],
        [[0, 1e-170], [1e-170, 0]],
        [[0, 1e-200], [1e-200, 0]],
        [[0, 1e-100, 1e100], [1e-100, 0, 1e100], [1e100, 1e100, 0]],
    ], ids=["1e-155", "1e-170", "1e-200", "ratio"])
    def test_subnormal_square_refused(self, metric):
        """The smallest distance squared, and its ratio to the largest squared,
        must be normal floats: below that the gram (all zeros from 1e-170 on)
        or the scaled problem loses the pair, and value read 1.0 for points that
        coincide (the ratio metric's factored gram had distortion 7.8e191)."""
        with pytest.raises(BadParam, match="squares below the smallest normal float"):
            exact_c2(metric)

    def test_small_normal_scale_accepted(self):
        metric = [[0, 1e-150], [1e-150, 0]]
        res = exact_c2(metric)
        w, V = np.linalg.eigh(res.gram)
        points = V * np.sqrt(np.maximum(w, 0.0))
        assert distortion_pairwise(points, metric, 2).dist <= res.value * (1 + 1e-6)

    def test_one_point(self):
        res = exact_c2([[0]])
        assert (res.value, res.bracket) == (1.0, (1.0, 1.0))
        assert res.gram.shape == (1, 1) and not res.gram.any()

    def test_bracket_consistent(self):
        res = exact_c2(STAR)
        lo, hi = res.bracket
        assert lo <= hi
        assert res.value == pytest.approx(math.sqrt(hi), rel=1e-12)

    @pytest.mark.parametrize("metric, points", [
        (path_metric(5), [[0], [1], [2], [3], [4]]),  # on a line
        (cycle_metric(4), [[0, 0], [1, 0], [1, 1], [0, 1]]),  # unit square
        (STAR, [[0, 0]] + [[math.cos(a), math.sin(a)]  # three spokes 120 degrees apart
                           for a in (0, 2 * math.pi / 3, 4 * math.pi / 3)]),
    ], ids=["P5", "C4", "K13"])
    def test_dominated_by_explicit_embedding(self, metric, points):
        explicit = distortion_pairwise(points, metric, 2).dist
        assert exact_c2(metric).value <= explicit + 1e-6

    @pytest.mark.parametrize("metric", [
        cycle_metric(5), STAR,
        random_graph_metric(1, 5), random_graph_metric(2, 6), random_graph_metric(3, 7),
    ], ids=["C5", "K13", "G5", "G6", "G7"])
    def test_gram_points_attain_value(self, metric):
        res = exact_c2(metric)
        w, V = np.linalg.eigh(res.gram)
        points = V * np.sqrt(np.maximum(w, 0.0))
        assert distortion_pairwise(points, metric, 2).dist <= res.value * (1 + 1e-6)

    @pytest.mark.parametrize("metric", [cycle_metric(5), STAR], ids=["C5", "K13"])
    def test_subspace_monotone(self, metric):
        full = exact_c2(metric).value
        n = len(metric)
        for drop in range(n):
            keep = [i for i in range(n) if i != drop]
            sub = [[metric[i][j] for j in keep] for i in keep]
            assert exact_c2(sub).value <= full + 1e-6

    def test_caps(self):
        with pytest.raises(BadParam):
            exact_c2(path_metric(17))
        with pytest.raises(BadParam):
            exact_c2(path_metric(4), tol=1e-7)


def _reference_project_feasible(D2, T, Q0):
    """The slab pass on numpy scalars, as it stood before it moved to Python floats."""
    n = D2.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    Q = Q0.copy()
    best_resid = math.inf
    since_improve = 0
    for _ in range(C2_SWEEPS):
        w, V = np.linalg.eigh((Q + Q.T) / 2)
        Q = (V * np.maximum(w, 0.0)) @ V.T
        slab_gap = 0.0
        for i, j in pairs:
            v = Q[i, i] + Q[j, j] - 2.0 * Q[i, j]
            tgt = min(max(v, D2[i, j]), T * D2[i, j])
            if tgt != v:
                slab_gap = max(slab_gap, abs(tgt - v))
                delta = (tgt - v) / 4.0
                Q[i, i] += delta
                Q[j, j] += delta
                Q[i, j] -= delta
                Q[j, i] -= delta
        neg = max(0.0, -float(np.linalg.eigvalsh((Q + Q.T) / 2).min()))
        resid = max(slab_gap, neg)
        if resid <= C2_RESID_TOL:
            return True, Q
        if resid < best_resid * 0.995:
            best_resid, since_improve = resid, 0
        else:
            since_improve += 1
            if since_improve >= 150:
                return False, Q
    return False, Q


# each metric with its squared c2 (6 - 2 sqrt 5 for C5), just above which
# the projections take hundreds of sweeps to reach the feasible side
C2_SQUARED = [(cycle_metric(5), 6 - 2 * math.sqrt(5)), (STAR, 4 / 3),
              (random_graph_metric(0, 9), 1.875)]


@pytest.mark.parametrize("metric, c2_squared", C2_SQUARED, ids=["C5", "K13", "G9"])
def test_project_feasible_bit_identical_to_reference(metric, c2_squared):
    M = MetricTable(metric).matrix
    D2 = (M / M.max()) ** 2
    Q0 = np.zeros_like(D2)
    for T in (1.0, c2_squared * (1 + 1e-6), 4.0):
        ok, Q = distortion._project_feasible(D2, T, Q0)
        want_ok, want_Q = _reference_project_feasible(D2, T, Q0)
        assert ok is want_ok
        assert np.array_equal(Q, want_Q)


@pytest.mark.parametrize("metric", [
    cycle_metric(5),
    metric_from_table(bfs_ball(make_spec("lamplighter-fin", m=2, n=2), None)),
], ids=["C5", "lamplighter-m2-n2"])
def test_exact_c2_bit_identical_to_reference(metric, monkeypatch):
    got = exact_c2(metric)
    monkeypatch.setattr(distortion, "_project_feasible", _reference_project_feasible)
    want = exact_c2(metric)
    assert got.value == want.value
    assert got.bracket == want.bracket
    assert np.array_equal(got.gram, want.gram)


def test_project_feasible_one_eigh_per_sweep(monkeypatch):
    """Each sweep decomposes Q once: k sweeps make k + 1 eigh calls (one before
    the first sweep) and no eigvalsh call, where the reference makes k of each."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(a):
            calls[name] += 1
            return real(a)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh"))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh"))
    M = MetricTable(cycle_metric(5)).matrix
    D2 = (M / M.max()) ** 2
    Q0 = np.zeros_like(D2)
    _reference_project_feasible(D2, 4.0, Q0)
    sweeps = calls["eigvalsh"]
    assert sweeps >= 1 and calls["eigh"] == sweeps
    calls.update(eigh=0, eigvalsh=0)
    distortion._project_feasible(D2, 4.0, Q0)
    assert calls == {"eigh": sweeps + 1, "eigvalsh": 0}


_L23 = make_spec("lamplighter-fin", m=2, n=3)
_T23 = bfs_ball(_L23, None)
_PTS = np.array([[0.0, 0.0], [1.0, 0.0]])
_UNIT = [[0, 1], [1, 0]]
_SOL = make_spec("sol-inf")
NON_NUMBER_CALLS = {
    "optimize_profile p='2'": lambda: optimize_profile(_T23.ball(1), "2"),
    "optimize_profile p=None": lambda: optimize_profile(_T23.ball(1), None),
    "build_bundle p='2'": lambda: build_bundle(_T23, "2"),
    "distortion_equivariant R='3'": lambda: distortion_equivariant(build_bundle(_T23, 2), "3"),
    "distortion_pairwise p='2'": lambda: distortion_pairwise(_PTS, _UNIT, p="2"),
    "distortion_pairwise R='1'": lambda: distortion_pairwise(_PTS, _UNIT, R="1"),
    "exact_c2 tol='1'": lambda: exact_c2(_UNIT, tol="1"),
    "bfs_ball cap='9'": lambda: bfs_ball(_L23, 3, cap="9"),
    "exp_radical_scan cap='9'": lambda: exp_radical_scan(make_spec("sol-fin", n=5), 3, cap="9"),
    "bfs_ball radius=True": lambda: bfs_ball(_L23, True),
    "checked_radii [True, 2]": lambda: checked_radii([True, 2]),
    "exp_radical_scan sol-inf r_max=True": lambda: exp_radical_scan(_SOL, True),
    "exp_radical_scan sol-inf cap='9'": lambda: exp_radical_scan(_SOL, 3, cap="9"),
    "exp_radical_scan sol-inf cap=True": lambda: exp_radical_scan(_SOL, 3, cap=True),
    "exp_radical_scan sol-inf cap=1.5": lambda: exp_radical_scan(_SOL, 3, cap=1.5),
    "matrix_order n='5'": lambda: matrix_order(((2, 1), (1, 1)), "5"),
    "CircleMap q='3'": lambda: CircleMap("3"),
    "profile_curve radii=None": lambda: profile_curve(_T23, 2, None),
}


@pytest.mark.parametrize("call", NON_NUMBER_CALLS.values(), ids=NON_NUMBER_CALLS.keys())
def test_non_number_scalars_refused(call):
    # each leaked a TypeError from a comparison, a ufunc or an iteration, or
    # (the bools) ran as 0 or 1
    with pytest.raises(BadParam, match="must be (a real number|an integer|an iterable of integers)"):
        call()


BAD_EXPONENT_CALLS = {
    "distortion_pairwise p=0": lambda: distortion_pairwise(_PTS, _UNIT, p=0),
    "distortion_pairwise p=0.5": lambda: distortion_pairwise(_PTS, _UNIT, p=0.5),
    "distortion_pairwise p=nan": lambda: distortion_pairwise(_PTS, _UNIT, p=math.nan),
    "distortion_pairwise p=inf": lambda: distortion_pairwise(_PTS, _UNIT, p=math.inf),
    "distortion_pairwise R=nan": lambda: distortion_pairwise(_PTS, _UNIT, R=math.nan),
    "lp_norm p=0": lambda: lp_norm([1.0, 2.0], 0),
    "lp_norm p=nan": lambda: lp_norm([1.0, 2.0], math.nan),
    "rayleigh p=nan": lambda: rayleigh(_L23, {identity(_L23): 1.0}, math.nan),
}


@pytest.mark.parametrize("call", BAD_EXPONENT_CALLS.values(), ids=BAD_EXPONENT_CALLS.keys())
def test_exponent_and_scale_outside_range_refused(call):
    # p = 0 raised ZeroDivisionError; the others returned a report or a nan
    with pytest.raises(BadParam, match=r"outside \[1, inf\)|must be positive"):
        call()
