import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from cayleydist import (
    BadParam,
    BadScale,
    CapExceeded,
    CircleMap,
    CodeSpace,
    apriori_bound,
    bfs_ball,
    build_bundle,
    cocycle_defect,
    distortion_equivariant,
    embed_norm,
    embed_norms_all,
    embed_point,
    generators,
    identity,
    inv,
    make_spec,
    mul,
)
from cayleydist import embed
from cayleydist.cli import main
from cayleydist.embed import _fftn, _gap_pow, _gap_pow_pairs, _gap_sq_fourier
from conftest import CODE_FAMILIES

L24 = make_spec("lamplighter-fin", m=2, n=4)
L28 = make_spec("lamplighter-fin", m=2, n=8)
SOL3 = make_spec("sol-fin", n=3)
SOL5 = make_spec("sol-fin", n=5)


@pytest.fixture(scope="module")
def b24():
    return build_bundle(bfs_ball(L24, None), 2)


@pytest.fixture(scope="module")
def b28():
    return build_bundle(bfs_ball(L28, None), 2)


@pytest.fixture(scope="module")
def bsol3():
    return build_bundle(bfs_ball(SOL3, None), 2)


class TestCircleMap:
    def test_small_q_rejected(self):
        for q in (1, 0):
            with pytest.raises(BadParam, match="q >= 2"):
                CircleMap(q)

    def test_origin(self):
        assert np.array_equal(CircleMap(5).point(0), np.zeros(2))

    def test_adjacent_chord_is_one(self):
        for q in (2, 3, 4, 7, 97):
            assert CircleMap(q).chord(1) == 1.0

    def test_adjacent_points_at_distance_one(self):
        c = CircleMap(7)
        for t in range(7):
            gap = np.linalg.norm(c.point(t + 1) - c.point(t))
            assert gap == pytest.approx(1.0, rel=1e-12)

    def test_q4_diagonal(self):
        assert CircleMap(4).chord(2) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_injective(self):
        c = CircleMap(12)
        pts = {tuple(np.round(c.point(t), 9)) for t in range(12)}
        assert len(pts) == 12

    def test_chord_symmetry(self):
        c = CircleMap(9)
        for k in range(1, 9):
            assert c.chord(k) == pytest.approx(c.chord(9 - k), rel=1e-12)

    def test_distortion_approaches_half_pi(self):
        q = 97
        c = CircleMap(q)
        word = [min(k, q - k) for k in range(1, q)]
        chords = [c.chord(k) for k in range(1, q)]
        assert max(ch / w for ch, w in zip(chords, word)) <= 1.0 + 1e-12
        contraction = max(w / ch for ch, w in zip(chords, word))
        assert 1.5 <= contraction <= math.pi / 2 + 1e-6


class TestBuildBundle:
    def test_default_scale_and_blocks(self, b28):
        assert b28.R == 18
        assert b28.K == 3
        assert [tv.radius for tv in b28.vectors] == [2, 4, 8]
        assert b28.coefs[0] == 1.0
        for k, tv in enumerate(b28.vectors, start=1):
            assert b28.coefs[k] == pytest.approx(2 ** k / tv.certified_J, rel=1e-12)
        assert b28.C_hat == max(b28.coefs[1:])
        assert b28.circle is None

    def test_sol_gets_circle_and_kernel_scale(self):
        b = build_bundle(bfs_ball(SOL5, None), 2)
        assert b.circle is not None
        assert b.circle.q == 10
        assert b.R == 6  # kernel diameter
        assert b.K == 1

    def test_minimal_scale(self):
        b = build_bundle(bfs_ball(L28, None), 2, R=2)
        assert b.K == 0
        assert b.vectors == ()
        assert b.coefs == (1.0,)
        assert b.C_hat == 1.0
        # every other field matches; the table tells the groups apart
        assert b != build_bundle(bfs_ball(L24, None), 2, R=2)

    def test_scale_validation(self):
        with pytest.raises(BadParam):
            build_bundle(bfs_ball(L28, None), 2, R=1)
        with pytest.raises(BadScale):
            build_bundle(bfs_ball(L28, None), 2, R=19)

    @pytest.mark.parametrize("R", [4.5, 2.9, "4", math.nan, [4]], ids=repr)
    def test_scale_must_be_integer(self, R):
        """R is read as an integer, not truncated: 4.5 is refused, not run at 4."""
        with pytest.raises(BadParam, match="scale R .* must be an integer"):
            build_bundle(bfs_ball(L24, None), 2, R=R)

    def test_exponent_validation(self):
        with pytest.raises(BadParam):
            build_bundle(bfs_ball(L28, None), 1.5)

    def test_infinite_rejected(self):
        with pytest.raises(BadParam):
            build_bundle(bfs_ball(make_spec("lamplighter-inf", m=2), 4), 2)


class TestEmbedNorm:
    def test_identity_is_exactly_zero(self, b24, bsol3):
        assert embed_norm(b24, identity(L24)) == 0.0
        assert embed_norm(bsol3, identity(SOL3)) == 0.0

    def test_generator_bracketed(self, b24):
        lip = apriori_bound(b24).lip_bound
        for s in generators(L24):
            v = embed_norm(b24, s)
            assert 2 ** 0.5 - 1e-12 <= v <= lip + 1e-12

    def test_far_element_block_lower_bound(self, b28):
        table = bfs_ball(L28, None)
        g = next(x for x, d in table.dist.items() if d >= 8)
        assert embed_norm(b28, g) >= 2 ** 0.5 * 4 - 1e-9

    def test_whole_group_invariants(self, b24):
        table = bfs_ball(L24, None)
        lip = apriori_bound(b24).lip_bound
        for x, d in table.dist.items():
            v = embed_norm(b24, x)
            if d == 0:
                assert v == 0.0
            else:
                assert v <= d * lip + 1e-9
                assert v >= 2 ** 0.5 * max(1.0, d / 8.0) - 1e-9

    @pytest.mark.parametrize("spec_name", ["L24", "SOL3"])
    def test_batch_matches_single(self, spec_name, b24, bsol3):
        bundle = {"L24": b24, "SOL3": bsol3}[spec_name]
        spec = bundle.spec
        cs = CodeSpace(spec)
        norms = embed_norms_all(bundle)
        table = bfs_ball(spec, None)
        for x in table.dist:
            assert norms[cs.encode(x)] == pytest.approx(embed_norm(bundle, x), abs=1e-10)


SOL_T2 = make_spec("sol-fin", n=2, A=((3, 2), (1, 1)))  # time order o(A, 2) = 2


@pytest.mark.parametrize("p", [2, 3])
def test_time_order_two_embeds(p):
    assert SOL_T2.oA == 2
    bundle = build_bundle(bfs_ball(SOL_T2, None), p)
    cs = CodeSpace(SOL_T2)
    norms = embed_norms_all(bundle)
    for code in range(SOL_T2.order):
        assert norms[code] == pytest.approx(embed_norm(bundle, cs.decode(code)), abs=1e-10)
    assert distortion_equivariant(bundle).dist <= apriori_bound(bundle).dist_bound


def _fourier_gap(spec, values):
    """The Fourier path's raw gap for every code, assembled from its time slices."""
    T = CodeSpace(spec).time_order
    gap = np.full(spec.order, np.nan)
    for s, part in _gap_sq_fourier(spec, values):
        gap[s::T] = part
    return gap


def _whole_group_gap(table, values, p, radius):
    """The pair path's ball-local gap spread over the group, indexed by code."""
    twice_norm, ball_gap = _gap_pow_pairs(table, values, p, radius)
    gap = np.full(table.spec.order, twice_norm)
    gap[table.elements[:len(ball_gap)]] = ball_gap
    return gap


def _reference_gap_pow_pairs(spec, values, p):
    """The pair path as it stood before its gaps became ball-local: the same
    pair sums, accumulated by code into an array over the whole group."""
    cs = CodeSpace(spec)
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


@pytest.mark.parametrize("p", [2, 3, 2.5])
@pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
def test_ball_local_pair_gaps_are_the_whole_group_sum(spec, p):
    """A block of radius r meets pairs only in the ball of radius 2r - 2, so
    its ball-local gap, spread over the group, is the whole-group pair sum bit
    for bit, for every block and for values on that open ball drawn at random;
    the ball reaches the whole group on these desk-size groups."""
    table = bfs_ball(spec, None)
    cs = CodeSpace(spec)
    rng = np.random.default_rng(int(p * 10) + spec.order)
    blocks = [(radius, values) for radius, _, values in build_bundle(table, p).blocks()]
    for radius in range(1, table.radius // 2 + 3):  # up to 2r - 2 past the diameter
        inner = table.ball(radius - 1).elements
        picked = rng.choice(inner, size=min(len(inner), 12), replace=False)
        blocks.append((radius, {cs.decode(int(c)): float(x)
                                for c, x in zip(picked, rng.standard_normal(len(picked)))}))
    for radius, values in blocks:
        got = _whole_group_gap(table, values, p, radius)
        want = _reference_gap_pow_pairs(spec, values, p)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("spec", CODE_FAMILIES, ids=str)
def test_in_place_norms_are_the_out_of_place_sum(spec, p):
    """embed_norms_all sums in place and adds the circle per time index; the
    same floats as clamping, scaling and summing into fresh arrays, with the
    circle gathered per code (bs-fin m=3 n=4 takes the Fourier path)."""
    table = bfs_ball(spec, None)
    bundle = build_bundle(table, p)
    cs = CodeSpace(spec)
    total = np.zeros(spec.order)
    for radius, coef, values in bundle.blocks():
        if p == 2 and len(values) ** 2 > spec.order * cs.time_order:
            gap = _fourier_gap(spec, values)
        else:
            gap = _whole_group_gap(table, values, p, radius)
        total = total + coef ** p * np.maximum(gap, 0.0)
    if bundle.circle is not None:
        chords = np.array([bundle.circle.chord(k) for k in range(spec.oA)])
        total = total + chords[cs.split(np.arange(spec.order))[0]] ** p
    want = total ** (1.0 / p)
    want[cs.encode(identity(spec))] = 0.0
    assert np.array_equal(embed_norms_all(bundle), want)


FOURIER_SPECS = [
    make_spec("lamplighter-fin", m=2, n=6),
    make_spec("lamplighter-fin", m=3, n=5),
    make_spec("bs-fin", m=2, n=7),
    make_spec("sol-fin", n=12),
    make_spec("sol-fin", n=9, A=((3, 1), (2, 1))),  # A not symmetric: A^s != (A^s)^T
]


def _reference_gap_sq_fourier(spec, values):
    """The Fourier path as it stood before the m = 2 lamplighter's rows went
    real: a complex table for every family, conjugated by ``np.conj``."""
    cs = CodeSpace(spec)
    T = cs.time_order
    shape = cs.normal_shape
    t_of, a_of = cs.split(cs.encode_many(list(values)))
    v = np.fromiter(values.values(), dtype=float, count=len(values))
    rows = np.zeros((T, spec.order // T), dtype=complex)
    rows[t_of, a_of] = v
    for t in range(T):
        _fftn(rows[t].reshape(shape))
    twice_norm = 2.0 * float(np.sum(v * v))
    acc = np.empty(rows.shape[1], dtype=complex)
    for s in range(T):
        twist = cs.dual_twist(s)
        acc.fill(0.0)
        for t in range(T):
            acc += rows[t] * np.conj(rows[(t - s) % T][twist])
        _fftn(acc.reshape(shape), inverse=True)
        yield s, twice_norm - 2.0 * acc.real


@pytest.mark.parametrize("n", [6, 8])
def test_real_fourier_rows_bit_identical_to_complex(n):
    """Every character of (Z/2)^n is +-1, so the m = 2 lamplighter's real rows
    take the same floating-point steps as the complex ones: the same bits, for
    the profile witnesses and for random values."""
    spec = make_spec("lamplighter-fin", m=2, n=n)
    cs = CodeSpace(spec)
    rng = np.random.default_rng(n)
    codes = rng.choice(spec.order, size=40, replace=False)
    witnesses = [values for _, _, values in build_bundle(bfs_ball(spec, None), 2).blocks()]
    for values in witnesses + [{cs.decode(int(c)): float(x)
                                for c, x in zip(codes, rng.standard_normal(40))}]:
        got = list(_gap_sq_fourier(spec, values))
        want = list(_reference_gap_sq_fourier(spec, values))
        assert [s for s, _ in got] == [s for s, _ in want] == list(range(n))
        for (_, part), (_, want_part) in zip(got, want):
            assert np.array_equal(part, want_part)
            assert np.array_equal(np.signbit(part), np.signbit(want_part))


class TestFourierGap:
    """The p = 2 correlation path against the per-element oracle, called
    directly: desk-size blocks never reach the cost rule in embed_norms_all.
    """

    @pytest.mark.parametrize("spec", FOURIER_SPECS, ids=str)
    def test_matches_gap_pow_for_every_element(self, spec):
        cs = CodeSpace(spec)
        elements = [cs.decode(code) for code in range(spec.order)]
        bundle = build_bundle(bfs_ball(spec, None), 2)
        assert bundle.K >= 1
        for _, _, values in bundle.blocks():
            norm2 = sum(v * v for v in values.values())
            gap = _fourier_gap(spec, values)
            want = np.array([_gap_pow(spec, values, g, 2) for g in elements])
            assert np.abs(gap - want).max() <= 1e-12 * norm2
            # the clamp in embed_norms_all removes rounding residue only
            assert gap.min() >= -1e-12 * norm2

    @pytest.mark.parametrize("spec", FOURIER_SPECS, ids=str)
    def test_matches_gap_pow_for_asymmetric_f(self, spec):
        # profile witnesses are symmetric under a -> -a on N, which hides a
        # correlation computed as a convolution; random values do not
        cs = CodeSpace(spec)
        rng = np.random.default_rng(3)
        codes = rng.choice(spec.order, size=40, replace=False)
        values = {cs.decode(int(c)): float(v)
                  for c, v in zip(codes, rng.standard_normal(40))}
        norm2 = sum(v * v for v in values.values())
        gap = _fourier_gap(spec, values)
        want = [_gap_pow(spec, values, cs.decode(code), 2) for code in range(spec.order)]
        assert np.abs(gap - want).max() <= 1e-12 * norm2

    @pytest.mark.parametrize("shape", [(2,) * 12, (3,) * 5, (7, 7), (31,)], ids=str)
    @pytest.mark.parametrize("inverse", [False, True])
    def test_axis_loop_is_numpy_fftn_bit_for_bit(self, shape, inverse):
        # butterflies on the length-2 axes, numpy on the others: same bits,
        # signs of zero included
        rng = np.random.default_rng(11)
        size = math.prod(shape)
        rows = rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size))
        rows[0, rng.random(size) < 0.3] = 0.0
        rows[1].real, rows[1].imag = -0.0, -np.abs(rows[1].imag)
        rows[2, rng.random(size) < 0.9] = -0.0
        for row in rows:
            got = row.reshape(shape).copy()
            _fftn(got, inverse=inverse)
            want = (np.fft.ifftn if inverse else np.fft.fftn)(row.reshape(shape))
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


class TestEmbedPoint:
    def test_identity_maps_to_origin(self, b24, bsol3):
        assert not embed_point(b24, identity(L24)).any()
        assert not embed_point(bsol3, identity(SOL3)).any()

    def test_flat_norm_matches_embed_norm(self, b24):
        table = bfs_ball(L24, None)
        for x in table.dist:
            flat = np.linalg.norm(embed_point(b24, x))
            assert flat == pytest.approx(embed_norm(b24, x), abs=1e-12)

    def test_flat_norm_matches_for_p3(self):
        table = bfs_ball(L24, None)
        b = build_bundle(table, 3)
        rng = random.Random(7)
        for x in rng.sample(list(table.dist), 10):
            flat = float(np.sum(np.abs(embed_point(b, x)) ** 3) ** (1 / 3))
            assert flat == pytest.approx(embed_norm(b, x), abs=1e-12)

    def test_flat_norm_matches_with_circle_at_p2(self, bsol3):
        table = bfs_ball(SOL3, None)
        for x in table.dist:
            flat = np.linalg.norm(embed_point(bsol3, x))
            assert flat == pytest.approx(embed_norm(bsol3, x), abs=1e-12)

    @pytest.mark.parametrize("spec_name", ["L24", "SOL3"])
    def test_distance_equivariance(self, spec_name, b24, bsol3):
        bundle = {"L24": b24, "SOL3": bsol3}[spec_name]
        spec = bundle.spec
        table = bfs_ball(spec, None)
        rng = random.Random(11)
        elements = list(table.dist)
        for _ in range(50):
            g, h = rng.choice(elements), rng.choice(elements)
            gap = np.linalg.norm(embed_point(bundle, g) - embed_point(bundle, h))
            want = embed_norm(bundle, mul(spec, inv(spec, g), h))
            assert gap == pytest.approx(want, abs=1e-9)

    def test_dimension(self, b24, bsol3):
        assert embed_point(b24, identity(L24)).shape == ((b24.K + 1) * 64,)
        assert embed_point(bsol3, identity(SOL3)).shape == ((bsol3.K + 1) * 36 + 2,)

    @pytest.mark.parametrize("spec_name", ["L24", "SOL3"])
    def test_cap_counts_every_coordinate(self, spec_name, b24, bsol3, monkeypatch):
        bundle = {"L24": b24, "SOL3": bsol3}[spec_name]
        e = identity(bundle.spec)
        size = embed_point(bundle, e).size
        monkeypatch.setattr(embed, "POINT_CAP", size - 1)
        with pytest.raises(CapExceeded, match=f"coordinate count {size} exceeds {size - 1}$"):
            embed_point(bundle, e)
        monkeypatch.setattr(embed, "POINT_CAP", size)
        assert embed_point(bundle, e).size == size

    def test_cap(self, b24):
        huge = replace(b24, K=10 ** 6)
        with pytest.raises(CapExceeded):
            embed_point(huge, identity(L24))


class TestCocycle:
    def test_defect_vanishes(self, b24):
        table = bfs_ball(L24, None)
        rng = random.Random(3)
        elements = list(table.dist)
        for _ in range(100):
            g, h = rng.choice(elements), rng.choice(elements)
            assert cocycle_defect(b24, g, h) <= 1e-9


class TestApriori:
    def test_product_structure(self, b28):
        bound = apriori_bound(b28)
        assert bound.dist_bound == pytest.approx(
            bound.lip_bound * bound.colip_bound, rel=1e-12)
        assert bound.colip_bound == pytest.approx(8 * 2 ** -0.5, rel=1e-12)

    def test_single_block_bundle(self):
        b = build_bundle(bfs_ball(L28, None), 2, R=2)
        bound = apriori_bound(b)
        assert bound.lip_bound == pytest.approx(2 ** 0.5, rel=1e-12)
        assert bound.dist_bound == pytest.approx(8.0, rel=1e-12)
        assert bound.closed_form == 0.0

    def test_closed_form_linear_profile(self, b28):
        unit = replace(b28, C_hat=1.0, R=8)
        closed = apriori_bound(unit).closed_form
        assert closed == pytest.approx(2 * math.sqrt(2 * math.log(4)), rel=1e-12)
        assert closed == pytest.approx(3.3302, abs=1e-3)

    def test_lip_grows_with_block_count(self):
        table = bfs_ball(L28, None)
        lips = [apriori_bound(build_bundle(table, 2, R=r)).lip_bound for r in (2, 8, 18)]
        assert lips[0] < lips[1] < lips[2]

    def test_zeroed_dirac_block_leaves_lip(self, b28):
        # lip_bound counted 2 for the dirac block even with its coefficient at 0
        zeroed = replace(b28, coefs=(0.0,) + b28.coefs[1:])
        full, bound = apriori_bound(b28), apriori_bound(zeroed)
        rest = math.fsum(c ** 2 for c in b28.coefs[1:])
        assert full.lip_bound == (2.0 + rest) ** 0.5
        assert bound.lip_bound == pytest.approx(rest ** 0.5, rel=1e-12)
        assert bound.lip_bound < full.lip_bound
        assert (bound.colip_bound, bound.closed_form) == (full.colip_bound, full.closed_form)

    def test_circle_adds_to_lip(self, bsol3):
        bound = apriori_bound(bsol3)
        bare = replace(bsol3, circle=None)
        assert bound.lip_bound > apriori_bound(bare).lip_bound


def embed_json(capsys, *argv):
    """The manifest ``cayleydist embed`` prints as JSON."""
    assert main(["embed", *argv]) == 0
    return json.loads(capsys.readouterr().out)


class TestManifest:
    def test_keys_and_blocks(self, capsys):
        blob = embed_json(capsys, "--family", "lamplighter-fin", "--m", "2", "--n", "8")
        assert blob["p"] == 2 and blob["R"] == 18 and blob["K"] == 3
        assert blob["circle"] is None
        assert len(blob["blocks"]) == 4
        assert blob["blocks"][0] == {
            "radius": 1, "certified_J": None, "coef": 1.0, "support_size": 1}
        for k, entry in enumerate(blob["blocks"][1:], start=1):
            assert entry["radius"] == 2 ** k
            assert entry["support_size"] >= 1

    def test_circle_parameters_present(self, capsys):
        blob = embed_json(capsys, "--family", "sol-fin", "--n", "3")
        assert blob["circle"]["q"] == 4
        assert blob["circle"]["c_q"] == pytest.approx(8 * math.sin(math.pi / 4), rel=1e-12)
