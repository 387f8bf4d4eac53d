import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricforge as mf
from metricforge.space import _closure, _mirror_min, _relax_stale, _through
from oracles import brute_chain_min, chain_closure, mirrored, traced


def warped_corpus(count, max_n, start_seed=0):
    for k in range(count):
        n = 2 + (start_seed + k) % (max_n - 1)
        m = mf.random_metric(n, seed=start_seed + k)
        yield m, mf.warp(m, (start_seed + k) % n)


class TestRho:
    def test_formula_substitution(self):
        dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        m = mf.FiniteMetricSpace(("p", "x", "y"), dist)
        assert mf.rho(m, 0, 1, 2) == pytest.approx(0.5, abs=1e-15)

    def test_basepoint_row(self, three_point):
        # rho(p, y) = d(p,y) / (1 + d(p,y)) = 1 - h(y)
        w = mf.warp(three_point, 0)
        for y in (1, 2):
            assert mf.rho(three_point, 0, 0, y) == pytest.approx(1.0 - w.h[y], abs=1e-15)

    def test_same_point(self, three_point):
        assert mf.rho(three_point, 0, 1, 1) == 0.0

    @pytest.mark.parametrize("call", [
        lambda m, i: mf.point_scales(m, i), lambda m, i: mf.rho_matrix(m, i),
        lambda m, i: mf.rho(m, i, 0, 1), lambda m, i: mf.rho(m, 0, i, 1),
        lambda m, i: mf.rho(m, 0, 1, i)])
    @pytest.mark.parametrize("index, match", [(-1, "outside"), (9, "outside"),
                                              (True, "not an integer index"),
                                              (1.5, "not an integer index")])
    def test_point_indices_are_checked(self, call, index, match):
        # rho(m, -1, 0, 1) once took the last point as basepoint, and
        # rho_matrix(m, True) failed inside numpy.
        m = mf.euclidean_grid(3, 1.0)
        with pytest.raises(ValueError, match=match):
            call(m, index)
        call(m, 8)


class TestWarpSmall:
    def test_three_point_values(self, three_point):
        w = mf.warp(three_point, 0)
        d = w.warped.dist
        p, a, b, inf = 0, 1, 2, w.infty
        assert d[a, b] == pytest.approx(1 / 6, abs=1e-12)
        assert d[p, a] == pytest.approx(1 / 2, abs=1e-12)
        assert d[p, b] == pytest.approx(2 / 3, abs=1e-12)
        assert d[a, inf] == pytest.approx(1 / 2, abs=1e-12)
        assert d[b, inf] == pytest.approx(1 / 3, abs=1e-12)
        assert d[p, inf] == 1.0

    def test_two_point_space(self):
        m = mf.FiniteMetricSpace(("p", "x"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        w = mf.warp(m, 0)
        assert w.warped.dist[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert w.warped.dist[1, w.infty] == pytest.approx(0.5, abs=1e-15)
        assert w.warped.dist[0, w.infty] == 1.0

    def test_single_point_space(self):
        m = mf.FiniteMetricSpace(("x",), np.zeros((1, 1)))
        w = mf.warp(m, 0)
        assert w.warped.n == 2
        assert w.warped.dist[0, 1] == 1.0

    def test_reserved_label_rejected(self):
        m = mf.FiniteMetricSpace(("p", "∞"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            mf.warp(m, 0)

    def test_basepoint_range_checked(self, three_point):
        with pytest.raises(ValueError):
            mf.warp(three_point, 7)


class TestWarpProperties:
    def test_quarter_comparison(self):
        for m, w in warped_corpus(60, 25, start_seed=100):
            rho = np.minimum(mf.rho_matrix(m, w.basepoint),
                             mf.rho_matrix(m, w.basepoint).T)
            dhat = w.warped.dist[: m.n, : m.n]
            assert np.all(dhat <= rho + 1e-12)
            assert np.all(dhat >= rho / 4.0 - 1e-12)

    def test_basepoint_symmetry(self):
        for m, w in warped_corpus(60, 25, start_seed=200):
            dp = w.warped.dist[w.basepoint, : m.n]
            assert np.max(np.abs(dp + w.h - 1.0)) < 1e-12

    def test_shrink_factor_is_lipschitz_bound(self):
        for m, w in warped_corpus(40, 20, start_seed=300):
            dhat = w.warped.dist[: m.n, : m.n]
            gap = np.abs(w.h[:, None] - w.h[None, :])
            assert np.all(gap <= dhat + 1e-12)
            assert np.all(dhat <= w.h[:, None] + w.h[None, :] + 1e-12)

    def test_warped_validates_including_infinity(self):
        for m, w in warped_corpus(30, 20, start_seed=400):
            assert mf.validate_metric(w.warped).ok

    def test_diameter_at_most_two(self):
        for m, w in warped_corpus(30, 30, start_seed=500):
            assert w.warped.diam() <= 2.0

    def test_chain_infimum_matches_brute_force_exactly(self):
        for m, w in warped_corpus(60, 7, start_seed=600):
            rho = mf.rho_matrix(m, w.basepoint)
            rho = np.minimum(rho, rho.T)
            for a in range(m.n):
                for b in range(a + 1, m.n):
                    assert w.warped.dist[a, b] == brute_chain_min(rho, a, b)


    def test_coincident_points_are_at_distance_zero(self):
        # (0,0), (1,0), (1,0), (0,2): the two copies of (1,0) are distinct
        # points at distance 0, a zero-weight edge of the chain graph.
        from scipy.spatial.distance import cdist
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        m = mf.FiniteMetricSpace(("a", "b", "c", "d"), cdist(pts, pts))
        w = mf.warp(m, 0)
        rho = np.minimum(mf.rho_matrix(m, 0), mf.rho_matrix(m, 0).T)
        for a in range(m.n):
            for b in range(a + 1, m.n):
                assert w.warped.dist[a, b] == brute_chain_min(rho, a, b)
        assert w.warped.dist[1, 2] == 0.0

    def test_negative_zero_distances_warp_to_positive_zero(self):
        # A file may spell a zero distance -0.0; chains of zeros sum to 0.0.
        dist = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [1.0, -0.0, 0.0]])
        w = mf.warp(mf.FiniteMetricSpace(("p", "a", "b"), dist), 0)
        assert (w.warped.dist[:3, :3] == 0.0).all()
        assert not np.signbit(w.warped.dist).any()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_non_finite_or_negative_distance_rejected(self, bad):
        # The space refuses a non-finite or negative distance itself, so
        # warp never sees one.
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        dist[1, 2] = dist[2, 1] = bad
        match = "non-finite" if not np.isfinite(bad) else "negative number -1.0 in dist"
        with pytest.raises(ValueError, match=match):
            mf.FiniteMetricSpace(("p", "a", "b"), dist)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), p=st.integers(0, 5), data=st.data())
def test_kernel_matches_brute_chain_min_with_ties_and_zeros(n, p, data):
    # Integer distances in 0..3 give many equal chain sums and zero-weight
    # edges between distinct points; the input need not be a metric.
    cells = data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    dist = mirrored(np.array(cells, dtype=float).reshape(n, n))
    m = mf.FiniteMetricSpace(tuple(str(i) for i in range(n)), dist)
    w = mf.warp(m, p % n)
    rho = mf.rho_matrix(m, p % n)
    rho = np.minimum(rho, rho.T)
    for a in range(n):
        for b in range(a + 1, n):
            assert w.warped.dist[a, b] == brute_chain_min(rho, a, b)
            assert w.warped.dist[b, a] == w.warped.dist[a, b]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(65, 200), seed=st.integers(0, 2**32 - 1), p=st.integers(0, 199),
       kind=st.sampled_from(["ties", "random_metric"]))
def test_kernel_matches_chain_closure_across_row_bands(n, seed, p, kind):
    # Above 64 points the kernel's first round spans several row bands,
    # each mirrored below the diagonal, and the entries it lowers seed the
    # later sweeps.  Integer distances in 0..3 give ties and zero edges;
    # random_metric gives chains that shorten about half the pairs.
    if kind == "ties":
        dist = mirrored(np.random.default_rng(seed).integers(0, 4, size=(n, n)))
        m = mf.FiniteMetricSpace(tuple(str(i) for i in range(n)), dist)
    else:
        m = mf.random_metric(n, seed=seed)
    w = mf.warp(m, p % n)
    rho = mf.rho_matrix(m, p % n)
    expect = chain_closure(np.minimum(rho, rho.T))
    assert w.warped.dist[:n, :n].tobytes() == expect.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 9, 15, 17, 31, 33, 47, 49, 63, 65]), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["rho", "scaled", "scaled with inf"]))
def test_closure_is_chain_closure_where_rows_prune_unlike_their_tile(n, seed, kind):
    # The stale sweeps keep a (middle, column tile) pair only if it may
    # lower an entry of some row of the row tile, by a bound per row; rows
    # at unlike scales within a tile make that bound prune pairs that the
    # bound of the whole tile keeps.  Such inputs: rho of a random metric
    # in its own order (warp sorts it by scale), and weights whose rows and
    # columns are scaled by unlike powers of 10, with or without missing
    # (inf) edges.  Columns at unlike scales within a tile make the column
    # test, a middle's least stale entry plus its weight to each column
    # against that column's largest entry, prune pairs the row test keeps
    # (12-26% of them on these inputs).  n < 16 is a single tile;
    # n % 16 in {1, 15} leaves a ragged last tile.
    rng = np.random.default_rng(seed)
    if kind == "rho":
        w = mf.rho_matrix(mf.random_metric(n, seed=seed), int(rng.integers(n)))
    else:
        scale = 10.0 ** rng.integers(-6, 7, size=n)
        w = rng.uniform(0.5, 2.0, size=(n, n)) * scale[:, None] * scale
        if kind == "scaled with inf":
            w[rng.uniform(size=(n, n)) < 0.6] = np.inf
        np.fill_diagonal(w, 0.0)
    expect = chain_closure(np.minimum(w, w.T))
    assert _closure(w).tobytes() == expect.tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(17, 120), seed=st.integers(0, 2**32 - 1), p=st.integers(0, 119),
       kind=st.sampled_from(["ties", "random_metric"]))
def test_warp_commutes_with_relabelling(n, seed, p, kind):
    # warp sweeps in d(x, p) order, in tiles of 16 with a partial last tile
    # above 16 points, and undoes the order after; relabelling the input
    # must only relabel the output, bit for bit.  Integer distances in 0..3
    # tie many points at the same d(x, p), so the sorted order differs
    # between the two labellings.
    rng = np.random.default_rng(seed)
    if kind == "ties":
        dist = mirrored(rng.integers(0, 4, size=(n, n)))
    else:
        dist = mf.random_metric(n, seed=seed).dist
    perm = rng.permutation(n)
    labels = tuple(str(i) for i in range(n))
    m = mf.FiniteMetricSpace(labels, dist)
    relabelled = mf.FiniteMetricSpace(tuple(labels[i] for i in perm), dist[np.ix_(perm, perm)])
    expect = mf.warp(m, p % n).warped.dist
    got = mf.warp(relabelled, int(np.flatnonzero(perm == p % n)[0])).warped.dist
    back = np.append(np.argsort(perm), n)  # the adjoined ∞ stays last
    assert got[np.ix_(back, back)].tobytes() == expect.tobytes()


class TestWarpMemory:
    # Peaks in units of one n x n float matrix, each after a small warm-up
    # call, so that numpy's first-call allocations are not in the peak.
    # A random graph metric has chains that shorten pairs, so the stale
    # sweeps run.
    n = 300

    @pytest.fixture(scope="class")
    def space(self):
        small = mf.random_metric(20, seed=1)
        mf.validate_metric(mf.warp(small, 0).warped)
        return mf.random_metric(self.n, seed=0)

    def test_warp_holds_rho_and_the_closure(self, space):
        # rho and the closure are one matrix each; the rest, the stale mask
        # included, are band- and tile-sized, with numpy's 128 KiB buffer
        # for broadcasting sums.  A where() over the whole of rho for its
        # tile minima, or a numpy-buffered transpose, adds a matrix.
        w, peak = traced(mf.warp, space, 0)
        assert (w.warped.dist[:-1, :-1] < mf.rho_matrix(space, 0)).any()  # sweeps ran
        assert peak < 2.7 * 8 * self.n ** 2

    def test_the_screen_is_freed_before_the_closure_is_made(self):
        # A warped disk takes round 1 through the float32 screen: half a
        # matrix, freed before the closure is made, so the warp holds 2.22
        # matrices at n = 450, and the check of its output 0.88.  Made
        # after the closure, the copy sits beside rho and the closure: 2.88.
        mf.validate_metric(mf.warp(mf.disk_sample(40, seed=1), 0).warped)  # warm-up
        m = mf.disk_sample(450, seed=0)
        w, peak = traced(mf.warp, m, 0)
        assert peak < 2.35 * 8 * 450 ** 2
        report, peak = traced(mf.validate_metric, w.warped)
        assert report.ok and peak < 8 * 450 ** 2

    def test_validate_holds_no_matrix(self, space):
        # The triangle pass and the positivity scan go a band of rows at a
        # time; the full min(d, d ⊗ d) was one more matrix.
        warped = mf.warp(space, 0).warped
        report, peak = traced(mf.validate_metric, warped)
        assert report.ok and peak < 1.5 * 8 * self.n ** 2


def test_stale_sweeps_hold_tile_sized_arrays():
    # The sweeps alone, on the bench's warp-graph input: rho of
    # random_metric(450) at basepoint 0, sorted as warp sorts it, after
    # round 1.  d and w are held before tracing.  The sweeps hold arrays of
    # one row tile, the tile minima of w (a sixteenth of a matrix) and the
    # (middle, column tile) pairs of one sweep; the per-row test of those
    # pairs gathers them a chunk at a time.  Gathered all at once, it
    # holds 16 floats per pair that the tile test keeps: several matrices.
    def sweep_input(m):
        order = np.argsort(m.dist[0], kind="stable")
        w = mf.rho_matrix(m, 0)[np.ix_(order, order)]
        _mirror_min(w)
        w += 0.0
        return _through(w), w

    _relax_stale(*sweep_input(mf.random_metric(20, seed=1)))  # warm-up
    n = 450
    d, w = sweep_input(mf.random_metric(n, seed=0))
    expect = d.copy()
    _, peak = traced(_relax_stale, d, w)
    assert (d < expect).any()  # the sweeps lowered entries
    assert peak < 0.35 * 8 * n ** 2


class TestInftyBall:
    def test_three_point_rows(self, three_point):
        w = mf.warp(three_point, 0)
        assert mf.infty_ball(w, 1.0) == {1, 2, w.infty}   # everything but p
        assert mf.infty_ball(w, 2.0) == {0, 1, 2, w.infty}
        # r = 0.4: (1-r)/r = 1.5, only d(b,p)=2 exceeds it
        assert mf.infty_ball(w, 0.4) == {2, w.infty}

    def test_closed_form_membership(self):
        for m, w in warped_corpus(40, 25, start_seed=700):
            rng = np.random.default_rng(m.n)
            for r in rng.uniform(0.05, 0.999, size=8):
                if np.min(np.abs(w.h - r)) < 1e-9:
                    continue  # stay clear of membership boundaries
                got = mf.infty_ball(w, float(r))
                expect = {i for i in range(m.n)
                          if m.dist[i, w.basepoint] > (1.0 - r) / r}
                expect.add(w.infty)
                assert got == expect

    def test_radius_must_be_positive(self, three_point):
        w = mf.warp(three_point, 0)
        with pytest.raises(ValueError):
            mf.infty_ball(w, 0.0)


class TestInclusions:
    def test_basepoint_example(self, three_point):
        w = mf.warp(three_point, 0)
        rep = mf.check_inclusions(w, 0, 0.25, 2.0)
        assert rep.precondition_ok and rep.ok
        assert rep.inner_radius == pytest.approx(0.25 * 2 / 3, abs=1e-15)
        assert rep.outer_radius == pytest.approx(2.0, abs=1e-15)

    def test_precondition_rejected_not_evaluated(self, three_point):
        w = mf.warp(three_point, 0)
        rep = mf.check_inclusions(w, 2, 0.9, 2.0)  # h(b) = 1/3, 0.9 > 1/6
        assert not rep.precondition_ok
        assert rep.violations == ()
        assert "precondition" in rep.message

    def test_holds_on_random_spaces(self):
        for m, w in warped_corpus(120, 25, start_seed=800):
            C = 2.0
            for a in range(m.n):
                r = float(w.h[a]) / (2.0 * C)
                rep = mf.check_inclusions(w, a, r, C)
                assert rep.precondition_ok
                assert rep.ok, (m.n, a, rep.violations)

    def test_reports_each_violation_in_order(self):
        # a = 0 with h = 1, r = 0.25 and C = 3: inner radius 0.1875, outer 1.5.
        # Point 1 is in the inner ball but not the warped one, point 2 in the
        # warped ball but beyond the outer one; points 3 and 4 sit on the
        # inner and outer radii, so only one variant counts each; 5 is fine.
        base_row = [0.0, 0.1, 2.0, 0.1875, 1.5, 1.0]
        hat_row = [0.0, 0.5, 0.1, 0.3, 0.2, 0.2]
        n = len(base_row)
        base, hat = np.ones((n, n)), np.ones((n + 1, n + 1))
        base[0], hat[0, :n] = base_row, hat_row
        base[:, 0], hat[:n, 0] = base_row, hat_row
        np.fill_diagonal(base, 0.0)
        np.fill_diagonal(hat, 0.0)
        points = tuple(f"p{i}" for i in range(n))
        w = mf.WarpedSpace(base=mf.FiniteMetricSpace(points, base), basepoint=0,
                           h=np.ones(n),
                           warped=mf.FiniteMetricSpace(points + (mf.INFINITY_LABEL,), hat))
        rep = mf.check_inclusions(w, 0, 0.25, 3.0)
        assert (rep.inner_radius, rep.outer_radius) == (0.1875, 1.5)
        assert rep.precondition_ok and rep.ok is False
        assert rep.violations == (("inner", False, 1), ("outer", False, 2),
                                  ("outer", False, 4), ("inner", True, 1),
                                  ("inner", True, 3), ("outer", True, 2))

    def test_c_must_exceed_one(self, three_point):
        w = mf.warp(three_point, 0)
        with pytest.raises(ValueError):
            mf.check_inclusions(w, 0, 0.1, 1.0)


BALL_CALLS = {
    "check_inclusions r": lambda w, v: mf.check_inclusions(w, 3, v, 2.0),
    "check_inclusions C": lambda w, v: mf.check_inclusions(w, 3, 0.01, v),
    "infty_ball": lambda w, v: mf.infty_ball(w, v),
    "ball": lambda w, v: mf.ball(w.base, 0, v),
}


@pytest.mark.parametrize("call, value", [
    *((call, v) for call in sorted(BALL_CALLS) for v in (math.nan, -0.5)),
    ("check_inclusions C", math.inf),
])
def test_ball_checks_refuse_nan_and_negative_values(call, value):
    # A NaN radius once gave empty balls, and check_inclusions reported ok=True.
    w = mf.warp(mf.disk_sample(80, seed=1), 0)
    with pytest.raises(ValueError):
        BALL_CALLS[call](w, value)


class TestWarpSerialization:
    def test_round_trip_with_reserved_label(self, three_point):
        w = mf.warp(three_point, 0)
        back = mf.from_json(mf.to_json(w.warped))
        assert back.points[-1] == mf.INFINITY_LABEL
        assert np.array_equal(back.dist, w.warped.dist)

    def test_infinity_row_equals_shrink_factors(self, three_point):
        w = mf.warp(three_point, 0)
        assert np.array_equal(w.warped.dist[w.infty, : three_point.n], w.h)
