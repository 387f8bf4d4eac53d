import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import metricforge as mf
from metricforge import distortion
from oracles import distortion_profile, traced


def planar_space(coords):
    coords = np.asarray(coords, dtype=float)
    return mf.FiniteMetricSpace(tuple(f"p{i}" for i in range(len(coords))),
                                cdist(coords, coords), coords=coords)


class TestProfilesIdentity:
    def test_qs_identity_envelope_matches_input(self):
        m = mf.random_metric(14, seed=3)
        prof = mf.qs_profile(m, m, range(m.n))
        assert prof.exhaustive
        for b in prof.nonempty_bins():
            assert prof.envelope[b] == prof.envelope_input[b]

    def test_qm_identity_envelope_matches_input(self):
        m = mf.random_metric(10, seed=5)
        prof = mf.qm_profile(m, m, range(m.n))
        for b in prof.nonempty_bins():
            assert prof.envelope[b] == prof.envelope_input[b]

    def test_global_scaling_is_invisible(self):
        m = mf.random_metric(12, seed=7)
        scaled = mf.FiniteMetricSpace(m.points, 3.0 * m.dist)
        prof = mf.qs_profile(m, scaled, range(m.n))
        for b in prof.nonempty_bins():
            assert prof.envelope[b] == pytest.approx(prof.envelope_input[b], rel=1e-12)


class TestProfileContracts:
    def test_non_injective_mapping_rejected(self):
        m = mf.random_metric(5, seed=1)
        with pytest.raises(ValueError):
            mf.qs_profile(m, m, [0, 0, 1, 2, 3])

    @pytest.mark.parametrize("mapping, match", [
        ([0, 1.7, 2, 3, 4], "not an integer index"),
        ([True, 0, 2, 3, 4], "not an integer index"),
        (np.arange(5.0), "not an integer index"),
        ([0, 1, 2, 3, 5], "outside"),
        ([0, 1, 2, 3, -1], "outside"),
    ])
    def test_mapping_entries_must_be_indices(self, mapping, match):
        # Neither 1.7 nor True may stand for index 1, nor -1 for the last one.
        m = mf.random_metric(5, seed=1)
        with pytest.raises(ValueError, match=match):
            mf.qs_profile(m, m, mapping)
        assert mf.qs_profile(m, m, np.array([4, 3, 2, 1, 0], dtype=np.int32)).exhaustive

    def test_mapping_length_checked(self):
        m = mf.random_metric(5, seed=1)
        with pytest.raises(ValueError):
            mf.qm_profile(m, m, [0, 1, 2])

    def test_sampled_mode_counts_degenerates(self):
        m = mf.random_metric(80, seed=2)
        prof = mf.qm_profile(m, m, range(m.n), n_samples=20000, seed=1)
        assert not prof.exhaustive
        assert prof.skipped_degenerate > 0
        assert sum(prof.counts) + prof.skipped_degenerate == 20000

    @pytest.mark.parametrize("fn, tuples, skipped", [(mf.qs_profile, 1000, 280),
                                                     (mf.qm_profile, 10_000, 4960)])
    def test_exhaustive_mode_counts_degenerates(self, fn, tuples, skipped):
        # All n^arity tuples are enumerated; those with a repeated point are skipped.
        m = mf.random_metric(10, seed=2)
        prof = fn(m, m, range(m.n))
        assert prof.exhaustive
        assert prof.skipped_degenerate == skipped
        assert sum(prof.counts) + skipped == tuples

    @pytest.mark.parametrize("n", [4, 6, 9])
    @pytest.mark.parametrize("fn, arity", [(mf.qs_profile, 3), (mf.qm_profile, 4)])
    def test_exhaustive_skipped_is_enumerated_minus_evaluated(self, fn, arity, n):
        m = mf.random_metric(n, seed=n)
        prof = fn(m, m, range(m.n))
        assert prof.exhaustive
        assert sum(prof.counts) == math.perm(n, arity)
        assert prof.skipped_degenerate == n ** arity - math.perm(n, arity)

    def test_determinism(self):
        m = mf.random_metric(70, seed=3)
        a = mf.qm_profile(m, m, range(m.n), n_samples=5000, seed=9)
        b = mf.qm_profile(m, m, range(m.n), n_samples=5000, seed=9)
        assert a == b


def near_edges(ulps=4):
    """Every bin edge and the floats within ``ulps`` of it on either side."""
    out = []
    for e in distortion._EDGES:
        below = above = e
        for _ in range(ulps):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            out += [below, above]
        out.append(e)
    return np.array(out)


# 0/0 on x86 gives the NaN with the sign bit set.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, -1.0, -1e300, 1e300, -1e-300, 1e-300,
           math.inf, -math.inf, math.nan, float(np.copysign(np.nan, -1.0))]


class TestSlots:
    def assert_searchsorted(self, t):
        t = np.asarray(t, dtype=np.float64)
        want = np.searchsorted(distortion._EDGES, t, side="right")
        np.testing.assert_array_equal(distortion._slots(t), want)

    def test_edges_and_their_neighbours(self):
        self.assert_searchsorted(near_edges())

    def test_zeros_negatives_infinities_and_nans(self):
        self.assert_searchsorted(SPECIAL)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.floats(1e-5, 1e5) | st.sampled_from(near_edges()),
                    min_size=1, max_size=40))
    def test_matches_searchsorted(self, t):
        self.assert_searchsorted(t)


def coincident(m, cluster):
    """Copy of ``m`` whose ``cluster`` points all sit at the first one."""
    d = m.dist.copy()
    for j in cluster[1:]:
        d[j, :] = d[cluster[0], :]
        d[:, j] = d[:, cluster[0]]
    d[np.ix_(cluster, cluster)] = 0.0
    return mf.FiniteMetricSpace(m.points, d)


class TestProfilesMatchNaiveSampler:
    # Small chunks make a few thousand samples span several gather chunks.
    @pytest.mark.parametrize("kind, n, samples, dst_kind, gauge", [
        ("QM", 40, 2500, "warp", 16.0),
        ("QS", 70, 2300, "warp", 2.0),
        ("QM", 9, None, "warp", 1.5),
        ("QS", 12, None, "warp", None),
        ("QM", 35, 3000, "coincident", 4.0),
        ("QS", 10, None, "coincident", 2.0),
        # Every output ratio ties at 1.0, across chunks.
        ("QM", 40, 2500, "discrete", 2.0),
        ("QS", 70, 2300, "discrete", None),
        ("QM", 9, None, "discrete", None),
        ("QS", 12, None, "discrete", 0.5),
        # Every output ratio is 0/0: the claim has no witness.
        ("QM", 9, None, "zero", 1.0),
        ("QS", 70, 2300, "zero", 2.0),
    ])
    def test_every_field_bit_for_bit(self, monkeypatch, kind, n, samples, dst_kind, gauge):
        monkeypatch.setattr(distortion, "_CHUNK", 97)
        m = mf.random_metric(n, seed=n)
        if dst_kind == "warp":
            dst = mf.warp(m, 1).warped  # one point more: ∞ has no preimage
            mapping = np.random.default_rng(n).permutation(n)
        elif dst_kind == "coincident":  # 0/0 and x/0 ratios: NaN and inf
            dst = coincident(m, [0, 3, 5, 6])
            mapping = range(n)
        else:  # the 0/1 discrete metric, or all distances 0
            dst = mf.FiniteMetricSpace(m.points, (dst_kind == "discrete") * (1.0 - np.eye(n)))
            mapping = np.random.default_rng(n).permutation(n)
        fn = mf.qs_profile if kind == "QS" else mf.qm_profile
        prof = fn(m, dst, mapping, n_samples=samples or 0, seed=7, gauge=gauge)
        assert prof.exhaustive == (samples is None)
        edges = np.logspace(math.log10(distortion.BIN_LO), math.log10(distortion.BIN_HI),
                            distortion.BIN_COUNT + 1).tolist()
        expect = distortion_profile(kind, m.dist, dst.dist, mapping, samples, 7,
                                    samples is None, edges, gauge)
        got = dataclasses.asdict(prof)
        for field, value in expect.items():
            assert repr(got[field]) == repr(value), field  # repr: NaN matches NaN


def test_envelope_input_is_the_largest_tied_input_over_all_draws():
    # Into the 0/1 discrete metric every output ratio is 1, so every tuple
    # of a bin ties for its max, whichever part of the draws it came from.
    m = mf.euclidean_grid(12, 0.5)
    prof = mf.qs_profile(m, mf.FiniteMetricSpace(m.points, 1.0 - np.eye(m.n)), range(m.n),
                         n_samples=250_000, seed=3)
    t = np.random.default_rng(3).integers(0, m.n, (250_000, 3))
    t = t[(t[:, 0] != t[:, 1]) & (t[:, 0] != t[:, 2]) & (t[:, 1] != t[:, 2])]
    t_in = m.dist[t[:, 0], t[:, 1]] / m.dist[t[:, 0], t[:, 2]]
    expect = np.full(distortion.BIN_COUNT + 2, np.nan)
    np.fmax.at(expect, np.searchsorted(distortion._EDGES, t_in, side="right"), t_in)
    assert repr(prof.envelope_input) == repr(tuple(expect.tolist()))  # repr: NaN matches NaN


def test_undefined_ratios_do_not_hide_a_failed_claim():
    # Three coincident destination points give 0/0 output ratios; the claim
    # check must still see the x/0 ones of the same profile.
    m = mf.random_metric(10, seed=0)
    prof = mf.qs_profile(m, coincident(m, [0, 3, 5, 6]), range(10),
                         gauge=2)
    assert prof.exhaustive
    assert not prof.claim.passed
    assert prof.claim.worst_ratio == math.inf
    (a, b, c), _, t_out = prof.claim.worst_witness
    assert {a, c} <= {0, 3, 5, 6} and t_out == math.inf


@pytest.mark.parametrize("fn, tuples", [(mf.qs_profile, 336), (mf.qm_profile, 1680)])
def test_a_claim_no_tuple_could_check_does_not_pass(fn, tuples):
    # Into a space whose distances are all 0 every output ratio is 0/0, so no
    # tuple checks the claim; it once read passed, with no witness.
    m = mf.random_metric(8, seed=1)
    prof = fn(m, mf.FiniteMetricSpace(m.points, np.zeros((8, 8))), range(8), gauge=1.0)
    assert sum(prof.counts) == tuples
    assert prof.claim == distortion.ClaimCheck("1.0t", False, -math.inf, None)


def test_infinite_envelope_reads_inf_not_nan():
    # x/0 outputs make a bin's max inf, with a finite input attaining it;
    # a bin whose max is 0/0 and an empty bin read nan, input included.
    m = mf.random_metric(120, seed=4)
    prof = mf.qm_profile(m, coincident(m, [0, 3, 5, 6, 9]), range(m.n))
    assert not prof.exhaustive
    for b, t_in in ((20, 0.196), (28, 4.38), (29, 6.70)):
        assert prof.envelope[b] == math.inf
        assert prof.envelope_input[b] == pytest.approx(t_in, abs=0.005)
    assert math.isnan(prof.envelope[24]) and math.isnan(prof.envelope_input[24])
    assert prof.counts[0] == 0
    assert math.isnan(prof.envelope[0]) and math.isnan(prof.envelope_input[0])


@pytest.mark.parametrize("samples", [None, 20_000])
@pytest.mark.parametrize("fn", [mf.qs_profile, mf.qm_profile])
def test_only_empty_and_undefined_bins_read_nan(fn, samples):
    # Into a copy with coincident points, x/0 outputs give inf envelopes,
    # each with the finite input that attains it; no envelope is -inf.
    n = 8 if samples is None else 90
    m = mf.random_metric(n, seed=5)
    prof = fn(m, coincident(m, [0, 3, 5]), range(n), n_samples=samples or 0, seed=2)
    assert prof.exhaustive == (samples is None)
    env, env_in = np.array(prof.envelope), np.array(prof.envelope_input)
    assert np.isinf(env).any() and not (env == -math.inf).any()
    assert np.isfinite(env_in[np.isinf(env)]).all()
    empty = np.array(prof.counts) == 0
    assert np.isnan(env[empty]).all() and np.isnan(env_in[empty]).all()
    assert np.isnan(env_in[np.isnan(env)]).all()


def tally(pairs):
    """The (count, max ratio) of each bin, from (ratio, count) pairs."""
    bins = {}
    for t, k in pairs:
        b = int(np.searchsorted(distortion._EDGES, t, side="right"))
        count, top = bins.get(b, (0, -math.inf))
        bins[b] = (count + k, max(top, t))
    return bins


@pytest.mark.parametrize("fn", [mf.qs_profile, mf.qm_profile])
def test_equidistant_points_give_ratio_one(fn):
    m = mf.FiniteMetricSpace(("a", "b", "c", "d"), 1.0 - np.eye(4))
    prof = fn(m, m, [3, 2, 1, 0])
    expect = tally([(1.0, 24)])
    assert {b: (prof.counts[b], prof.envelope[b]) for b in prof.nonempty_bins()} == expect
    assert all(prof.envelope_input[b] == 1.0 for b in expect)


@pytest.mark.parametrize("fn, ratios", [
    # QS: a side or the diagonal over a side or the diagonal.
    (mf.qs_profile, (2 ** -0.5, 1.0, 2 ** 0.5)),
    # QM: of the three pairings, the diagonals' product is 2, the sides' 1.
    (mf.qm_profile, (0.5, 1.0, 2.0)),
])
def test_unit_square_ratios(fn, ratios):
    # The 24 ordered tuples of distinct corners: 8 at each of three ratios.
    square = planar_space([(0, 0), (1, 0), (1, 1), (0, 1)])
    prof = fn(square, square, range(4))
    expect = tally([(t, 8) for t in ratios])
    assert prof.nonempty_bins() == sorted(expect)
    for b, (count, top) in expect.items():
        assert prof.counts[b] == count
        assert prof.envelope[b] == pytest.approx(top, rel=1e-12)
        assert prof.envelope_input[b] == prof.envelope[b]


class TestProfileMemory:
    # Tuples are drawn, gathered and binned a chunk at a time.  Each test
    # first runs a small profile, so that numpy's first-call allocations
    # are not in the peak.
    def test_sampled_peak_does_not_grow_with_the_sample(self):
        m = mf.disk_sample(600, seed=0)
        mf.qm_profile(m, m, range(m.n), n_samples=100)
        _, small = traced(mf.qm_profile, m, m, range(m.n), n_samples=20_000)
        _, large = traced(mf.qm_profile, m, m, range(m.n), n_samples=1_000_000)
        # One chunk's arrays at a time: a second chunk's draw, gathers and
        # bins once pushed the peak about 0.4 MB above the one-chunk peak.
        assert large - small <= 0.05e6

    def test_exhaustive_peak_at_the_cutoff(self):
        n = distortion.EXHAUSTIVE_QUAD_CUTOFF
        few = mf.random_metric(5, seed=1)
        mf.qm_profile(few, few, range(5))
        m = mf.random_metric(n, seed=1)
        prof, peak = traced(mf.qm_profile, m, m, range(n))
        assert prof.exhaustive and sum(prof.counts) == n * (n - 1) * (n - 2) * (n - 3)
        assert peak < 5e6

    def test_mapped_peak_holds_no_pulled_back_matrix(self):
        # dst is read through the mapping: the peak is the chunk arrays of a
        # small profile's, plus far less than the 8 n^2 bytes a pulled-back
        # distance matrix took.
        def peak(n):
            src, dst = mf.disk_sample(n, seed=0), mf.random_metric(n + 100, seed=1)
            f = np.random.default_rng(2).permutation(dst.n)[:n]
            mf.qm_profile(src, dst, f, n_samples=100)
            return traced(mf.qm_profile, src, dst, f, n_samples=100_000)[1]

        n = 300
        assert peak(n) - peak(40) < 8 * n * n / 2


@pytest.mark.parametrize("fn", [mf.qm_profile, mf.qs_profile])
@pytest.mark.parametrize("n", [12, 80])
def test_mapped_profile_equals_the_pulled_back_one(fn, n):
    # Gathering dst through a permuted, non-surjective mapping reads the same
    # floats as gathering the explicitly pulled-back space with the identity.
    src, dst = mf.disk_sample(n, seed=3), mf.random_metric(n + 25, seed=4)
    f = np.random.default_rng(5).permutation(dst.n)[:n]
    pulled = mf.FiniteMetricSpace(src.points, dst.dist[np.ix_(f, f)])
    got = fn(src, dst, f, n_samples=50_000, seed=6, gauge=2.0)
    want = fn(src, pulled, range(n), n_samples=50_000, seed=6, gauge=2.0)
    assert got.exhaustive == (n == 12)
    assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))


@pytest.mark.parametrize("kind,n", [("QM", 40), ("QS", 70)])
@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_profile_needs_a_sample(kind, n, samples):
    # Above the exhaustive cutoff no tuple would be evaluated, and a claim
    # that checked nothing would pass.
    m = mf.random_metric(n, seed=1)
    fn = mf.qm_profile if kind == "QM" else mf.qs_profile
    with pytest.raises(ValueError, match="n_samples"):
        fn(m, m, range(n), n_samples=samples, gauge=0.001)
    assert fn(mf.random_metric(8, seed=1), m, range(8), n_samples=samples).exhaustive


@pytest.mark.parametrize("kind,n", [("QS", 1), ("QS", 2), ("QM", 1), ("QM", 2), ("QM", 3)])
def test_exhaustive_profile_needs_a_tuple(kind, n):
    # Fewer points than a tuple holds: nothing would be evaluated, and a
    # claim that checked nothing would pass.
    m = mf.random_metric(n, seed=1)
    fn = mf.qm_profile if kind == "QM" else mf.qs_profile
    with pytest.raises(ValueError, match="needs at least"):
        fn(m, m, range(n), gauge=0.001)
    arity = 4 if kind == "QM" else 3
    least = mf.random_metric(arity, seed=1)
    assert sum(fn(least, least, range(arity)).counts) > 0


@pytest.mark.parametrize("fn", [mf.qm_profile, mf.qs_profile])
@pytest.mark.parametrize("gauge", [math.nan, math.inf, -math.inf, 0, -1, True, "16"])
def test_gauge_must_be_finite_and_positive(fn, gauge):
    # A NaN gauge once passed with a worst ratio of -inf and no witness, and
    # a negative or infinite one passed too.
    m = mf.random_metric(8, seed=1)
    with pytest.raises(ValueError, match="gauge"):
        fn(m, m, range(8), gauge=gauge)


class TestWarpDistortion:
    def test_warp_is_quasi_mobius_with_slope_16(self):
        m = mf.random_metric(22, seed=13)
        w = mf.warp(m, 4)
        prof = mf.qm_profile(m, w.warped, range(m.n), gauge=16.0)
        assert prof.claim.passed and prof.claim.description == "16.0t"

    def test_rescaled_cross_ratios_equal_base_cross_ratios(self):
        m = mf.random_metric(18, seed=17)
        rho = mf.rho_matrix(m, 0)
        rng = np.random.default_rng(1)
        for _ in range(500):
            x, y, z, w = rng.choice(18, size=4, replace=False)
            cr_d = m.dist[x, z] * m.dist[y, w] / (m.dist[x, w] * m.dist[y, z])
            cr_rho = rho[x, z] * rho[y, w] / (rho[x, w] * rho[y, z])
            assert cr_rho == pytest.approx(cr_d, rel=1e-12)

    def test_spread_sample_breaks_qs_but_not_qm(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(-60.0, 60.0, size=(40, 2))
        coords[0] = (0.0, 0.0)
        m = planar_space(coords)
        w = mf.warp(m, 0)
        qs = mf.qs_profile(m, w.warped, range(m.n), gauge=16.0)
        qm = mf.qm_profile(m, w.warped, range(m.n), gauge=16.0)
        assert not qs.claim.passed
        assert qm.claim.passed

    def test_inversion_preserves_cross_ratios(self):
        rng = np.random.default_rng(23)
        z = rng.uniform(0.5, 2.0, size=30) * np.exp(1j * rng.uniform(0, 2 * np.pi, 30))
        src = planar_space(np.stack([z.real, z.imag], axis=1))
        iz = 1.0 / z
        dst = planar_space(np.stack([iz.real, iz.imag], axis=1))
        prof = mf.qm_profile(src, dst, range(src.n))
        for b in prof.nonempty_bins():
            assert prof.envelope[b] == pytest.approx(prof.envelope_input[b], rel=1e-9)


class TestStereographic:
    def test_lands_on_unit_sphere(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-50, 50, size=(1000, 2))
        s = mf.stereographic(pts)
        assert np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0)) < 1e-12

    @staticmethod
    def chordal(a, b):
        return float(np.linalg.norm(mf.stereographic(a) - mf.stereographic(b)))

    def test_worked_pair(self):
        assert self.chordal((0.0, 0.0), (1.0, 0.0)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_coincident_points(self):
        assert self.chordal((0.3, -0.7), (0.3, -0.7)) == 0.0

    def test_far_points_approach_the_puncture(self):
        assert self.chordal((0.0, 0.0), (1e6, 0.0)) > 2.0 - 1e-5

    def test_identity_against_closed_form(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1e3, 1e3, size=(100_000, 2))
        b = rng.uniform(-1e3, 1e3, size=(100_000, 2))
        chord = np.linalg.norm(mf.stereographic(a) - mf.stereographic(b), axis=1)
        na2 = (a ** 2).sum(axis=1)
        nb2 = (b ** 2).sum(axis=1)
        formula = 2.0 * np.linalg.norm(a - b, axis=1) / np.sqrt((1 + na2) * (1 + nb2))
        assert np.max(np.abs(chord - formula)) < 1e-12


class TestPlaneToSphereComparison:
    def test_worked_pair_ratio(self):
        ratio = mf.plane_sphere_ratios((0.0, 0.0), (1.0, 0.0))[0]
        assert ratio == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_collinear_scan_approaches_but_never_exceeds_four(self):
        t = np.unique(np.concatenate([np.linspace(0, 3, 400), np.geomspace(3, 1e3, 200)]))
        pts = np.stack([t, np.zeros_like(t)], axis=1)
        ii, jj = np.triu_indices(len(pts), 1)
        worst = mf.plane_sphere_ratios(pts[ii], pts[jj]).max()
        assert 3.9 < worst <= 4.0 + 1e-12

    def test_equal_norm_pairs_match_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            norm = rng.uniform(0.1, 10.0)
            th = rng.uniform(0, 2 * np.pi, size=2)
            a = norm * np.array([np.cos(th[0]), np.sin(th[0])])
            b = norm * np.array([np.cos(th[1]), np.sin(th[1])])
            if np.allclose(a, b):
                continue
            ratio = mf.plane_sphere_ratios(a[None, :], b[None, :])[0]
            expect = 2.0 * (1.0 + norm) ** 2 / (1.0 + norm * norm)
            assert ratio == pytest.approx(expect, rel=1e-12)

    def test_random_pairs_bounded_by_four(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1e3, 1e3, size=(200_000, 2))
        b = rng.uniform(-1e3, 1e3, size=(200_000, 2))
        assert mf.plane_sphere_ratios(a, b).max() <= 4.0 + 1e-12
