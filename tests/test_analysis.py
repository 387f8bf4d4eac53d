import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import metricforge as mf
from oracles import component_of, greedy_cover_count, llc_by_components, traced


def interior_grid_centers(grid, margin):
    lo, hi = margin, 1.0 - margin
    return [i for i, (x, y) in enumerate(grid.coords)
            if lo <= x <= hi and lo <= y <= hi]


class TestDoubling:
    def test_single_point(self):
        m = mf.FiniteMetricSpace(("a",), np.zeros((1, 1)))
        assert mf.doubling_constant(m) == 1

    def test_two_points_need_two_half_balls(self):
        m = mf.FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert mf.doubling_constant(m, radii=(1.5,), centers=[0]) == 2

    def test_fine_grid_stays_small(self):
        grid = mf.euclidean_grid(33, 1 / 32)
        m_hat = mf.doubling_constant(grid, radii=(1 / 8, 1 / 4, 1 / 2),
                                     n_centers=24, seed=0)
        assert m_hat <= 9

    def test_scale_free_across_resolutions(self):
        values = []
        for side, spacing in ((17, 1 / 16), (33, 1 / 32), (65, 1 / 64)):
            g = mf.euclidean_grid(side, spacing)
            values.append(mf.doubling_constant(g, radii=(1 / 8, 1 / 4),
                                               n_centers=16, seed=1))
        assert max(values) - min(values) <= 2


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 9), symmetric=st.booleans(), data=st.data())
def test_every_ball_cover_matches_the_greedy_oracle(n, symmetric, data):
    # Integer distances make ties at the covering radius r / 2 common; a
    # positive diagonal leaves points no ball covers.
    cells = data.draw(st.lists(st.integers(0, 5), min_size=n * n, max_size=n * n))
    d = np.array(cells, dtype=float).reshape(n, n)
    if symmetric:
        d = np.minimum(d, d.T)
    if data.draw(st.booleans()):
        np.fill_diagonal(d, 0.0)
    m = mf.FiniteMetricSpace(tuple(map(str, range(n))), d)
    radii = (1.0, 2.0, 3.0, 4.0, 5.0)
    worst = 1
    for a in range(n):
        for r in radii:
            pts = np.flatnonzero(d[a] < r)
            expect = max(1, greedy_cover_count(d, pts, r / 2.0))
            assert mf.doubling_constant(m, radii=(r,), centers=[a]) == expect
            worst = max(worst, expect)
    assert mf.doubling_constant(m, radii=radii, centers=range(n)) == worst


class TestPremeasure:
    def test_single_point(self):
        m = mf.FiniteMetricSpace(("a",), np.zeros((1, 1)))
        assert mf.hausdorff_premeasure(m, {0}, 2.0, 0.1) == pytest.approx(0.01)

    def test_two_far_points_need_two_balls(self):
        m = mf.FiniteMetricSpace(("a", "b"), np.array([[0.0, 0.3], [0.3, 0.0]]))
        assert mf.hausdorff_premeasure(m, {0, 1}, 2.0, 0.1) == pytest.approx(0.02)

    def test_grid_area_estimate(self):
        grid = mf.euclidean_grid(33, 1 / 32)
        value = mf.hausdorff_premeasure(grid, range(grid.n), 2.0, 1 / 8)
        assert 0.25 <= value <= 4.0

    def test_monotone_and_subadditive_on_corpus(self):
        rng = np.random.default_rng(314)
        for trial in range(200):
            n = int(rng.integers(6, 40))
            m = mf.random_metric(n, seed=trial)
            eps = float(rng.uniform(0.3, 1.5))
            all_idx = np.arange(n)
            s = set(rng.choice(n, size=int(rng.integers(2, n)), replace=False).tolist())
            t = set(rng.choice(n, size=int(rng.integers(2, n)), replace=False).tolist())
            hs = mf.hausdorff_premeasure(m, s, 2.0, eps)
            ht = mf.hausdorff_premeasure(m, t, 2.0, eps)
            hst = mf.hausdorff_premeasure(m, s | t, 2.0, eps)
            hall = mf.hausdorff_premeasure(m, all_idx, 2.0, eps)
            assert hst <= hs + ht + 1e-12, f"trial {trial} subadditivity"
            assert hs <= hall + 1e-12, f"trial {trial} monotonicity"

    def test_bad_inputs(self):
        m = mf.random_metric(4, seed=0)
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps must be finite and positive"):
                mf.hausdorff_premeasure(m, {0}, 2.0, eps)
        with pytest.raises(ValueError):
            mf.hausdorff_premeasure(m, set(), 2.0, 0.5)

    @pytest.mark.parametrize("Q", [math.nan, -1.0, 0.0, math.inf])
    def test_exponent_must_be_finite_and_positive(self, Q):
        grid = mf.euclidean_grid(4, 1.0)
        with pytest.raises(ValueError, match="Q must be finite and positive"):
            mf.hausdorff_premeasure(grid, range(grid.n), Q, 0.5)

    @pytest.mark.parametrize("S, match", [
        ([-1], "outside"), ([16], "outside"),
        ([1.9], "not an integer index"), ([0, True], "not an integer index"),
        (np.array([0.0, 1.0]), "not an integer index"),
    ])
    def test_target_entries_must_be_indices(self, S, match):
        # -1 is not the last point, and 1.9 is not point 1.
        grid = mf.euclidean_grid(4, 1.0)
        with pytest.raises(ValueError, match=match):
            mf.hausdorff_premeasure(grid, S, 2.0, 0.5)
        assert mf.hausdorff_premeasure(grid, np.array([0, 15]), 2.0, 0.5) > 0


class TestRegularity:
    def test_grid_q2_mass_proxy(self):
        grid = mf.euclidean_grid(33, 1 / 32)
        rep = mf.regularity_constant(grid, 2.0, radii=(1 / 8, 1 / 4),
                                     centers=interior_grid_centers(grid, 0.25),
                                     with_doubling=False)
        assert rep.K_hat <= 2.0 * math.pi
        assert rep.measure == "mass"

    def test_grid_wrong_exponent_detected(self):
        grid = mf.euclidean_grid(33, 1 / 32)
        rep = mf.regularity_constant(grid, 1.0, radii=(1 / 8, 1 / 4),
                                     centers=interior_grid_centers(grid, 0.25),
                                     eps=1 / 64, with_doubling=False)
        assert rep.K_hat > 10.0
        assert rep.measure == "premeasure"

    def test_report_bounds_hold_pointwise(self):
        grid = mf.euclidean_grid(17, 1 / 16)
        centers = interior_grid_centers(grid, 0.25)[:20]
        rep = mf.regularity_constant(grid, 2.0, radii=(1 / 8, 1 / 4),
                                     centers=centers, with_doubling=False)
        for a in centers:
            for r in rep.radii:
                mu = grid.mass[grid.dist[a] <= r].sum()
                assert r ** 2 / rep.K_hat <= mu * (1 + 1e-12)
                assert mu <= rep.K_hat * r ** 2 * (1 + 1e-12)

    def test_single_point_vacuous(self):
        m = mf.FiniteMetricSpace(("a",), np.zeros((1, 1)), mass=np.array([1.0]))
        rep = mf.regularity_constant(m, 2.0, with_doubling=False)
        assert rep.K_hat == 1.0
        assert rep.evaluated == 0
        assert rep.worst_witness is None

    def test_zero_measure_ball_flags_infinity(self):
        # The witness is the first ball that attains K_hat = inf: on the
        # grid, the later ball (20, 0.1) of finite ratio 6.25 is not it.
        g = mf.euclidean_grid(6, 0.25)
        mass = g.mass.copy()
        mass[0] = 0.0
        graph = mf.random_metric(6, seed=2)
        for m, radii, centers, witness in (
                (mf.FiniteMetricSpace(graph.points, graph.dist, mass=np.zeros(6)),
                 (0.6,), [0], (0, 0.6, math.inf)),
                (mf.FiniteMetricSpace(g.points, g.dist, mass=mass),
                 (0.1, 0.6), [0, 20], (0, 0.1, math.inf))):
            rep = mf.regularity_constant(m, 2.0, radii=radii, centers=centers,
                                         with_doubling=False)
            assert rep.infinite and math.isinf(rep.K_hat)
            assert rep.worst_witness == witness
            assert rep.evaluated == len(radii) * len(centers)

    def test_needs_mass_or_eps(self):
        m = mf.random_metric(5, seed=1)
        with pytest.raises(ValueError):
            mf.regularity_constant(m, 2.0)

    @pytest.mark.parametrize("Q", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_exponent_must_be_finite_and_positive(self, Q):
        with pytest.raises(ValueError, match="Q must be finite and positive"):
            mf.regularity_constant(mf.euclidean_grid(5, 0.25), Q)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.5])
    def test_cover_scale_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            mf.regularity_constant(mf.euclidean_grid(5, 0.25), 2.0, eps=eps)

    def test_refinement_stays_in_envelope(self):
        coarse = mf.euclidean_grid(33, 1 / 32)
        fine = mf.euclidean_grid(65, 1 / 64)
        k_c = mf.regularity_constant(coarse, 2.0, radii=(1 / 8, 1 / 4),
                                     n_centers=24, seed=3, with_doubling=False).K_hat
        k_f = mf.regularity_constant(fine, 2.0, radii=(1 / 8, 1 / 4),
                                     n_centers=24, seed=3, with_doubling=False).K_hat
        assert k_f <= 20.0 ** 2 * k_c ** 2

    def test_warped_space_regularity_stays_bounded(self):
        # the warped strip has no mass field; the cover pre-measure drives it
        m = mf.halfplane_sample(900, seed=5, width=8.0, height=4.0)
        w = mf.warp(m, 0)
        hat = mf.subspace(w.warped, range(m.n))
        delta = mf.default_delta(hat)
        radii = tuple(np.geomspace(3.0 * delta, hat.diam(), 6))
        rep = mf.regularity_constant(hat, 2.0, radii=radii, eps=delta / 2.0,
                                     n_centers=32, seed=5, with_doubling=False)
        assert rep.evaluated > 0
        assert math.isfinite(rep.K_hat)
        assert rep.K_hat < 20.0  # observed ~2; cap leaves an order of magnitude


class TestLLC:
    def test_dense_disk_has_small_lambda1(self):
        disk = mf.disk_sample(500, seed=3)
        rep = mf.llc_constants(disk, n_centers=48, seed=2)
        assert rep.usable
        assert rep.lambda1 <= 1.5

    def test_slit_domain_needs_larger_lambda1(self):
        s = 1 / 12
        disk = mf.disk_grid(s, radius=1.0, mark_boundary=False)
        keep = [i for i, (x, y) in enumerate(disk.coords)
                if not (abs(y) < 2 * s - 1e-9 and x > 1e-9)]
        slit = mf.subspace(disk, keep)
        probes = [i for i, (x, y) in enumerate(slit.coords)
                  if x > 0.55 and abs(y) < 3.1 * s]
        rep = mf.llc_constants(slit, centers=probes, radii=(0.55, 0.7, 0.9), seed=2)
        assert rep.usable
        assert rep.lambda1 > 1.0
        # witnesses sit on opposite sides of the slit
        assert rep.failures1
        a, r, x, y = rep.failures1[0]
        assert slit.coords[x][1] * slit.coords[y][1] < 0

    def test_vacuous_radii_skipped(self):
        m = mf.random_metric(8, seed=4)
        rep = mf.llc_constants(m, radii=(10.0 * m.diam(),), n_centers=4, seed=0)
        assert rep.lambda2 == rep.grid[0]  # nothing to test outside the space
        assert rep.evaluated2 == 0
        assert not rep.usable  # so that lambda2 is no vacuous pass

    def test_disconnected_graph_flagged_unusable(self):
        m = mf.disk_sample(80, seed=6)
        rep = mf.llc_constants(m, delta=1e-4)
        assert not rep.usable
        assert math.isinf(rep.lambda1)

    def test_monotone_in_delta(self):
        # same configurations, denser proximity graph: constants cannot grow
        disk = mf.disk_sample(300, seed=9)
        base = mf.default_delta(disk)
        radii = mf.default_radii(disk, base)
        r1 = mf.llc_constants(disk, delta=base, radii=radii, n_centers=24, seed=1)
        r2 = mf.llc_constants(disk, delta=1.6 * base, radii=radii, n_centers=24, seed=1)
        assert r2.lambda1 <= r1.lambda1
        assert r2.lambda2 <= r1.lambda2

    def test_grid_monotonicity_of_pass(self):
        # every grid value at or above the reported constant passes too
        disk = mf.disk_sample(220, seed=12)
        rep = mf.llc_constants(disk, n_centers=16, seed=4)
        delta = rep.delta
        adj = disk.dist <= delta
        rng = np.random.default_rng(0)
        for lam in [v for v in rep.grid if v >= rep.lambda1][:3]:
            for a in rng.choice(rep.centers, size=4, replace=False):
                for r in rep.radii[:3]:
                    inner = np.nonzero(disk.dist[a] < r)[0]
                    if len(inner) < 2:
                        continue
                    allowed = np.nonzero(disk.dist[a] < lam * r)[0]
                    comp = component_of(adj, allowed.tolist(), int(inner[0]))
                    assert set(inner.tolist()) <= comp

    def test_lambda_grid_must_start_at_one(self):
        m = mf.random_metric(6, seed=0)
        with pytest.raises(ValueError):
            mf.llc_constants(m, lambda_grid=(0.5, 1.0))

    def test_deterministic(self):
        disk = mf.disk_sample(150, seed=2)
        assert mf.llc_constants(disk, seed=7) == mf.llc_constants(disk, seed=7)


def arc_with_gaps(circle, gaps):
    return mf.subspace(circle, [i for i in range(circle.n)
                                if not any(lo <= i < hi for lo, hi in gaps)])


@pytest.mark.parametrize("case", ["open-arc", "gapped-circle", "capped-grid",
                                  "one-way-arc", "uneven-arc"])
def test_llc_matches_component_oracle(case, circle_256):
    # Failing inputs, so that witnesses are exercised, and asymmetric ones,
    # where only one direction of a pair is within delta.
    grid = None
    if case == "open-arc":
        m = arc_with_gaps(circle_256, [(192, 256)])
    elif case == "gapped-circle":
        m = arc_with_gaps(circle_256, [(20, 24)])
    elif case == "capped-grid":  # lambda1 fails even at the grid max
        m = arc_with_gaps(circle_256, [(20, 24)])
        grid = (1.0, 1.25)
    else:
        arc = arc_with_gaps(circle_256, [(200, 256)])
        d = arc.dist.copy()
        if case == "one-way-arc":  # only d[i, j] with i > j joins
            d[np.triu_indices(arc.n, 1)] *= 10.0
        else:
            d *= np.random.default_rng(5).uniform(0.8, 1.25, size=d.shape)
        m = mf.FiniteMetricSpace(arc.points, d)
    rep = mf.llc_constants(m, lambda_grid=grid, n_centers=40, seed=1)
    assert rep.usable
    expect = llc_by_components(m.dist, rep.delta, rep.grid, rep.centers, rep.radii)
    got = (rep.lambda1, rep.lambda2, rep.failures1, rep.failures2,
           rep.evaluated1, rep.evaluated2, rep.skipped)
    assert got == expect
    assert rep.failures1 or rep.failures2


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_scans_match_the_oracles(data):
    # Arcs of a circle with random gaps, some rescaled asymmetrically, under
    # short random grids: configurations first pass at different grid
    # values, a leg can fail at the grid's maximum, and there are more
    # configurations and centers than one batch takes.
    size = data.draw(st.integers(40, 100))
    th = 2.0 * np.pi * np.arange(size) / size
    co = np.stack([np.cos(th), np.sin(th)], axis=1)
    d = np.sqrt(((co[:, None] - co[None]) ** 2).sum(axis=2))
    # Narrow gaps, which delta may or may not bridge, and perhaps a wide one.
    gaps = data.draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 3)),
                              max_size=3))
    gaps.append((0, data.draw(st.sampled_from([0, size // 8, size // 2]))))
    keep = [i for i in range(size) if not any(lo <= i < lo + w for lo, w in gaps)]
    d = d[np.ix_(keep, keep)]
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        d *= rng.uniform(0.8, 1.25, size=d.shape)
    m = mf.FiniteMetricSpace(tuple(map(str, range(len(keep)))), d)
    values = st.sampled_from([1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 9.0])
    grid = tuple(sorted(data.draw(st.sets(values, min_size=1, max_size=5))))
    delta = data.draw(st.floats(1.5, 6.0)) * 2.0 * np.sin(np.pi / size)
    n_centers = data.draw(st.integers(m.n // 2 + 1, m.n))
    rep = mf.llc_constants(m, delta=delta, lambda_grid=grid, n_centers=n_centers,
                           n_radii=data.draw(st.integers(3, 6)), seed=data.draw(st.integers(0, 9)))
    if not rep.usable:  # no radius fits between 3 delta and the diameter, the
        event("no estimate")  # delta-graph is disconnected, or a leg has no configuration
        adj = (d <= delta) | (d <= delta).T
        assert (not rep.radii or len(component_of(adj, range(m.n), 0)) < m.n
                or 0 in (rep.evaluated1, rep.evaluated2))
        return
    assert len(rep.centers) * len(rep.radii) > m.n
    expect = llc_by_components(d, rep.delta, rep.grid, rep.centers, rep.radii)
    assert (rep.lambda1, rep.lambda2, rep.failures1, rep.failures2, rep.evaluated1,
            rep.evaluated2, rep.skipped) == expect
    for lam in (rep.lambda1, rep.lambda2):
        event("a leg fails at the grid's maximum" if math.isinf(lam) else
              "a leg passes above the grid's first value" if lam > grid[0] else
              "a leg passes at the grid's first value")
    worst = {a: max(greedy_cover_count(d, np.flatnonzero(d[a] < r), r / 2.0)
                    for r in rep.radii) for a in rep.centers}
    # Each center twice, the worst last: the last batch of centers decides.
    centers = sorted(rep.centers * 2, key=worst.get)
    assert len(centers) > m.n // -(-m.n // 64)  # centers per batch of the cover
    assert mf.doubling_constant(m, radii=rep.radii, centers=centers) == max(1, *worst.values())


class TestEstimatorMemory:
    # Configurations and centers run in batches against rows packed into
    # words, and the default scale takes the nearest neighbours a band of
    # rows at a time, so no temporary outgrows three quarters of the
    # distance matrix.  Holding every configuration's members at once
    # peaked at 129.6 MB here, and copying the whole matrix for the
    # default scale held one matrix more.
    @pytest.fixture(scope="class")
    def disk(self):
        return mf.disk_sample(800, seed=1)

    @pytest.mark.parametrize("estimate", [
        lambda m: mf.llc_constants(m, n_centers=800, n_radii=32),
        lambda m: mf.doubling_constant(m, n_centers=800),
        lambda m: mf.regularity_constant(m, 2.0, n_centers=800),
    ], ids=["llc_constants", "doubling_constant", "regularity_constant"])
    def test_peak_is_below_three_quarters_of_the_distance_matrix(self, disk, estimate):
        _, peak = traced(estimate, disk)
        assert peak < 0.75 * 8 * disk.n ** 2

    def test_llc_search_runs_without_the_distance_rows(self):
        # The search gathers at most 4n adjacency rows at a time, after its
        # batch's distance rows are dropped.  Gathers of 16n rows beside the
        # distance rows took 0.59 of the matrix on the 414-point doubled cap.
        m = mf.double(mf.sphere_cap_complement(n=220, eps=0.5, seed=0)).doubled
        mf.llc_constants(m)
        _, peak = traced(mf.llc_constants, m)
        assert peak < 0.35 * 8 * m.n ** 2


class TestComponentContainment:
    def test_certified_lambda_bounds_components(self):
        # join-inside constant => small balls sit inside the graph component
        disk = mf.disk_sample(400, seed=21)
        rep = mf.llc_constants(disk, n_centers=24, seed=3)
        assert rep.usable and math.isfinite(rep.lambda1)
        adj = disk.dist <= rep.delta
        for a in rep.centers[:8]:
            for r in rep.radii[2:5]:
                inner = mf.ball(disk, a, r / rep.lambda1)
                ball_pts = sorted(mf.ball(disk, a, r))
                comp = component_of(adj, ball_pts, a)
                assert inner <= comp


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, -math.inf, math.inf])
@pytest.mark.parametrize("check", [mf.llc_constants, mf.quasicircle_check])
def test_proximity_scale_must_be_positive(check, delta):
    # Also on two points, where the quasicircle screen is degenerate.
    for m in (mf.disk_sample(30, seed=1), mf.random_metric(2, seed=0)):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            check(m, delta=delta)


@pytest.mark.parametrize("check", [mf.llc_constants, mf.quasicircle_check])
def test_proximity_scale_must_be_below_the_diameter(check):
    # At or above the diameter the delta-graph is complete, and llc once
    # passed vacuously with lambda1 = lambda2 = 1.
    for m in (mf.disk_sample(30, seed=1), mf.random_metric(2, seed=0)):
        for delta in (m.diam(), 2 * m.diam(), 1e308):
            with pytest.raises(ValueError, match="delta must be below the diameter"):
                check(m, delta=delta)
        check(m, delta=np.nextafter(m.diam(), 0))
    check(mf.disk_sample(1, seed=0), delta=1e308)  # one point has no pair to join


ESTIMATORS = {
    "doubling": mf.doubling_constant,
    "regularity": lambda m, **kw: mf.regularity_constant(m, 2.0, **kw),
    "llc": mf.llc_constants,
    "quasicircle": mf.quasicircle_check,
}


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -0.5])
@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_radii_must_be_finite_and_positive(estimator, r):
    # Beside a good radius, and also on two points, where the quasicircle
    # screen is degenerate: a bad radius is refused, never skipped.
    for m in (mf.disk_sample(80, seed=1), mf.disk_sample(2, seed=0)):
        with pytest.raises(ValueError, match="radii must be finite and positive"):
            ESTIMATORS[estimator](m, radii=(0.5, r))


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.5])
@pytest.mark.parametrize("check", [mf.llc_constants, mf.quasicircle_check])
def test_lambda_grid_values_must_be_finite_and_at_least_one(check, value):
    m = mf.disk_sample(80, seed=1)
    with pytest.raises(ValueError, match="lambda grid values must be finite and at least 1"):
        check(m, lambda_grid=(1.0, value, 2.0))


@pytest.mark.parametrize("grid", [(8.0, 4.0, 2.0, 1.5, 1.0), (1.0, 1.5, 1.5, 2.0)])
@pytest.mark.parametrize("check", [mf.llc_constants, mf.quasicircle_check])
def test_lambda_grid_must_ascend(check, grid):
    # The scan takes the first passing value: a descending grid once reported
    # lambda1 = lambda2 = 8 where the ascending one gives 1 and 1.5.
    m = mf.disk_sample(150, seed=2)
    with pytest.raises(ValueError, match="in ascending order"):
        check(m, lambda_grid=grid, seed=1)


@pytest.mark.parametrize("n", [2, 150])
@pytest.mark.parametrize("grid", [(8.0, 4.0, math.nan), (0.5, 1.0), (1.0, math.inf)])
def test_quasicircle_checks_the_grid_on_any_size(n, grid):
    # Fewer than 3 points once returned a degenerate report before the grid
    # was looked at, where a bad radius is refused on any size.
    with pytest.raises(ValueError, match="lambda grid"):
        mf.quasicircle_check(mf.disk_sample(n, seed=2), lambda_grid=grid)


@pytest.mark.parametrize("n", [2, 150])
@pytest.mark.parametrize("option", ["max_lambda", "max_doubling"])
@pytest.mark.parametrize("bound", [math.nan, 0.5, 0, -1])
def test_quasicircle_thresholds_must_be_at_least_one(n, option, bound):
    # No estimate meets a NaN bound or one below 1: that is a usage error,
    # not a failed screen.
    with pytest.raises(ValueError, match=f"{option} must be at least 1"):
        mf.quasicircle_check(mf.disk_sample(n, seed=2), **{option: bound})


class TestQuasicircle:
    def test_circle_passes(self, circle_256):
        rep = mf.quasicircle_check(circle_256, max_lambda=2.0, max_doubling=8, seed=3)
        assert not rep.degenerate and rep.usable
        assert rep.lambda1 <= 2.0 and rep.lambda2 <= 2.0
        assert rep.m_hat <= 8
        assert rep.passed

    def test_gapped_arc_fails_at_the_gap(self, circle_256):
        keep = list(range(192))  # drop a quarter of the circle
        arc = mf.subspace(circle_256, keep)
        rep = mf.quasicircle_check(arc, max_lambda=2.0, max_doubling=8, seed=3)
        assert not rep.passed
        assert rep.failures
        # some witness pair touches a gap endpoint (index 0 or 191)
        near_gap = {i for i in range(192) if i <= 4 or i >= 187}
        assert any(x in near_gap or y in near_gap for (_, _, x, y) in rep.failures)

    def test_two_point_space_degenerate(self):
        m = mf.FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        rep = mf.quasicircle_check(m)
        assert rep.degenerate and not rep.passed


class TestDefaults:
    def test_default_radii_window(self):
        disk = mf.disk_sample(200, seed=8)
        delta = mf.default_delta(disk)
        radii = mf.default_radii(disk, delta)
        assert radii[0] >= 3.0 * delta - 1e-12
        assert radii[-1] <= disk.diam() + 1e-12

    def test_sparse_space_has_empty_window(self):
        m = mf.random_metric(3, seed=0)
        assert mf.default_radii(m, 10.0 * m.diam()) == ()


@pytest.mark.parametrize("n_centers", [0, -1, math.nan, 2.5, True])
def test_center_count_must_be_positive(n_centers):
    m = mf.euclidean_grid(3, 1.0)
    for call in (mf.doubling_constant, mf.llc_constants,
                 lambda m, **kw: mf.regularity_constant(m, 2.0, **kw)):
        with pytest.raises(ValueError, match="n_centers"):
            call(m, radii=(1.5,), n_centers=n_centers)


@pytest.mark.parametrize("n_radii", [0, -1, 2.5])
def test_radii_count_must_be_positive(n_radii):
    # 0 once gave an unusable report, and -1 failed inside numpy.
    m = mf.euclidean_grid(3, 1.0)
    for call in (mf.llc_constants, mf.quasicircle_check):
        with pytest.raises(ValueError, match="n_radii must be an integer of at least 1"):
            call(m, n_radii=n_radii)


@pytest.mark.parametrize("centers", [[1.5], [True], [0, 2.0]])
def test_centers_must_be_integers(centers):
    # [1.5, True] was once read as centre 1 twice.
    m = mf.euclidean_grid(3, 1.0)
    for call in (mf.doubling_constant, mf.llc_constants,
                 lambda m, **kw: mf.regularity_constant(m, 2.0, **kw)):
        with pytest.raises(ValueError, match="centers holds an entry that is not an integer"):
            call(m, radii=(1.5,), centers=centers)


@pytest.mark.parametrize("options, name", [
    ({"Q": 1e308, "radii": (0.5,)}, "radii"), ({"Q": 2.0, "radii": (1e-320,)}, "radii"),
    ({"Q": 2.0, "radii": (1e308,)}, "radii"), ({"Q": 2.0, "eps": 1e308}, "eps"),
    ({"Q": 1e308, "eps": 0.5}, "eps"),
])
def test_regularity_powers_must_be_finite_and_positive(options, name):
    # r ** Q and eps ** Q once ended in ZeroDivisionError or OverflowError.
    with pytest.raises(ValueError, match=rf"{name} \*\* Q, with .* must be finite and positive"):
        mf.regularity_constant(mf.euclidean_grid(5, 0.25), **options)
    with pytest.raises(ValueError, match=r"eps \*\* Q, with eps 1e\+308"):
        mf.hausdorff_premeasure(mf.euclidean_grid(5, 0.25), [0], 2.0, 1e308)


@settings(max_examples=40, deadline=None)
@given(centers=st.lists(st.integers(-3, 12), min_size=1, max_size=4))
def test_centers_must_be_point_indices(centers):
    m = mf.euclidean_grid(3, 1.0)  # 9 points
    calls = (lambda: mf.doubling_constant(m, radii=(1.5,), centers=centers),
             lambda: mf.regularity_constant(m, 2.0, radii=(1.5,), centers=centers),
             lambda: mf.llc_constants(m, radii=(1.5,), centers=centers))
    for call in calls:
        if all(0 <= c < m.n for c in centers):
            call()
        else:
            with pytest.raises(ValueError, match="centers"):
                call()
