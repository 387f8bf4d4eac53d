import numpy as np
import pytest

import metricforge as mf


def boundary_marked_corpus(count, max_n, start_seed=0):
    rng = np.random.default_rng(start_seed)
    for k in range(count):
        n = int(rng.integers(3, max_n + 1))
        m = mf.random_metric(n, seed=start_seed + k)
        b = int(rng.integers(1, n))  # proper nonempty
        marks = rng.choice(n, size=b, replace=False)
        yield m.with_boundary(int(i) for i in marks)


class TestDoubleLine:
    def test_hand_checked_distances(self, marked_line):
        ds = mf.double(marked_line)
        d = ds.doubled
        assert d.n == 5  # 2*3 - 1
        i = {lbl: d.points.index(lbl) for lbl in d.points}
        assert d.points == ("0", "1#1", "2#1", "1#2", "2#2")
        assert d.dist[i["1#1"], i["1#2"]] == 2.0   # through the mark: 1 + 1
        assert d.dist[i["2#1"], i["1#2"]] == 3.0   # 2 + 1
        assert d.dist[i["1#1"], i["2#1"]] == 1.0   # same side
        assert mf.validate_metric(d).ok

    def test_boundary_rows_equal_base_rows(self, marked_line):
        ds = mf.double(marked_line)
        d = ds.doubled
        for q in range(d.n):
            base_q = int(ds.base_index[q])
            assert d.dist[0, q] == marked_line.dist[0, base_q]


class TestDoubleContract:
    def test_missing_boundary_rejected(self):
        m = mf.random_metric(5, seed=3)
        with pytest.raises(ValueError):
            mf.double(m)

    def test_full_boundary_rejected(self):
        m = mf.random_metric(4, seed=3).with_boundary(range(4))
        with pytest.raises(ValueError):
            mf.double(m)

    def test_doubled_label_colliding_with_a_base_label_rejected(self):
        # interior "a" becomes "a#1", which the boundary point already is
        m = mf.FiniteMetricSpace(("a", "a#1", "c"), 1.0 - np.eye(3), boundary={1})
        with pytest.raises(ValueError, match="duplicate point label 'a#1'"):
            mf.double(m)

    def test_point_count(self):
        for m in boundary_marked_corpus(20, 12, start_seed=50):
            ds = mf.double(m)
            assert ds.doubled.n == 2 * m.n - len(m.boundary)

    def test_same_side_blocks_are_isometric(self):
        for m in boundary_marked_corpus(20, 12, start_seed=80):
            ds = mf.double(m)
            n = m.n
            assert np.array_equal(ds.doubled.dist[:n, :n], m.dist)
            side2 = np.nonzero(ds.side == 2)[0]
            back = ds.base_index[side2]
            assert np.array_equal(ds.doubled.dist[np.ix_(side2, side2)],
                                  m.dist[np.ix_(back, back)])

    def test_metric_axioms_on_random_corpus(self):
        for m in boundary_marked_corpus(60, 20, start_seed=120):
            assert mf.validate_metric(mf.double(m).doubled).ok

    def test_diameter_bound(self):
        for m in boundary_marked_corpus(30, 15, start_seed=200):
            ds = mf.double(m)
            assert ds.doubled.diam() <= 2.0 * m.diam() + 1e-12

    def test_cross_distance_against_bruteforce(self):
        disk = mf.disk_grid(0.25, radius=1.0)
        ds = mf.double(disk)
        rim = sorted(disk.boundary)
        side1 = np.nonzero(ds.side == 1)[0]
        side2 = np.nonzero(ds.side == 2)[0]
        rng = np.random.default_rng(9)
        for _ in range(300):
            q1 = int(rng.choice(side1))
            q2 = int(rng.choice(side2))
            x, y = int(ds.base_index[q1]), int(ds.base_index[q2])
            expect = min(disk.dist[x, z] + disk.dist[z, y] for z in rim)
            assert ds.doubled.dist[q1, q2] == expect

    def test_mass_counts_rim_once(self):
        disk = mf.disk_grid(0.3)
        ds = mf.double(disk)
        interior_mass = disk.mass.sum() - disk.mass[sorted(disk.boundary)].sum()
        assert ds.doubled.mass.sum() == pytest.approx(
            disk.mass.sum() + interior_mass, rel=1e-12)


class TestProject:
    def test_forgets_side(self, marked_line):
        ds = mf.double(marked_line)
        assert ds.base_index[ds.doubled.points.index("2#2")] == 2
        assert ds.base_index[ds.doubled.points.index("2#1")] == 2
        assert ds.base_index[0] == 0

    def test_mirror_pair_projects_to_zero_gap(self, marked_line):
        ds = mf.double(marked_line)
        q1 = ds.doubled.points.index("1#1")
        q2 = ds.doubled.points.index("1#2")
        assert marked_line.dist[ds.base_index[q1], ds.base_index[q2]] == 0.0
        assert ds.doubled.dist[q1, q2] > 0

    def test_one_lipschitz_on_random_pairs(self):
        disk = mf.disk_grid(0.2, radius=1.0)
        ds = mf.double(disk)
        rng = np.random.default_rng(31)
        q = rng.integers(0, ds.doubled.n, size=(1000, 2))
        dd = ds.doubled.dist[q[:, 0], q[:, 1]]
        bb = disk.dist[ds.base_index[q[:, 0]], ds.base_index[q[:, 1]]]
        assert np.all(bb <= dd + 1e-12)


class TestDoubledLabels:
    def test_label_scheme(self, marked_line):
        ds = mf.double(marked_line)
        assert ds.doubled.points[0] == "0"  # shared rim point keeps its label
        assert set(ds.doubled.points) == {"0", "1#1", "2#1", "1#2", "2#2"}

    def test_serialization_round_trip(self, marked_line):
        ds = mf.double(marked_line)
        back = mf.from_json(mf.to_json(ds.doubled))
        assert back.points == ds.doubled.points
        assert np.array_equal(back.dist, ds.doubled.dist)
