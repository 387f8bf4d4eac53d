import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricforge as mf
from oracles import brute_chain_min, chain_closure


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
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        dist[1, 2] = dist[2, 1] = bad
        m = mf.FiniteMetricSpace(("p", "a", "b"), dist)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mf.warp(m, 0)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), p=st.integers(0, 5), data=st.data())
def test_kernel_matches_brute_chain_min_with_ties_and_zeros(n, p, data):
    # Integer distances in 0..3 give many equal chain sums and zero-weight
    # edges between distinct points; the input need not be a metric.
    cells = data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    dist = np.array(cells, dtype=float).reshape(n, n)
    np.fill_diagonal(dist, 0.0)
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
        dist = np.random.default_rng(seed).integers(0, 4, size=(n, n)).astype(float)
        np.fill_diagonal(dist, 0.0)
        m = mf.FiniteMetricSpace(tuple(str(i) for i in range(n)), dist)
    else:
        m = mf.random_metric(n, seed=seed)
    w = mf.warp(m, p % n)
    rho = mf.rho_matrix(m, p % n)
    expect = chain_closure(np.minimum(rho, rho.T))
    assert w.warped.dist[:n, :n].tobytes() == expect.tobytes()


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

    def test_c_must_exceed_one(self, three_point):
        w = mf.warp(three_point, 0)
        with pytest.raises(ValueError):
            mf.check_inclusions(w, 0, 0.1, 1.0)


class TestWarpSerialization:
    def test_round_trip_with_reserved_label(self, three_point):
        w = mf.warp(three_point, 0)
        back = mf.from_json(mf.to_json(w.warped))
        assert back.points[-1] == mf.INFINITY_LABEL
        assert np.array_equal(back.dist, w.warped.dist)

    def test_infinity_row_equals_shrink_factors(self, three_point):
        w = mf.warp(three_point, 0)
        assert np.array_equal(w.warped.dist[w.infty, : three_point.n], w.h)
