import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import metricforge as mf
from metricforge import space
from oracles import (cover_is_valid, covering_radius_naive, metric_violations,
                     metric_violations_by_middle_point, sample_scale_whole, space_json,
                     space_record, traced, triangle_ok)


def space_from(dist, **kw):
    dist = np.asarray(dist, dtype=float)
    return mf.FiniteMetricSpace(tuple(str(i) for i in range(len(dist))), dist, **kw)


class TestValidate:
    def test_degenerate_triangle_equality_is_allowed(self):
        m = space_from([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert mf.validate_metric(m).ok

    def test_triangle_violation_with_witness(self):
        m = space_from([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        report = mf.validate_metric(m)
        assert not report.ok
        witnesses = {v.witness for v in report.by_axiom("triangle")}
        assert (0, 1, 2) in witnesses

    def test_duplicate_points_flagged(self):
        m = space_from([[0, 0], [0, 0]])
        report = mf.validate_metric(m)
        assert any(v.axiom == "positivity" for v in report.violations)

    def test_asymmetry_flagged(self):
        m = space_from([[0, 1], [1.1, 0]])
        assert mf.validate_metric(m).by_axiom("symmetry")

    def test_nonzero_diagonal_flagged(self):
        m = space_from([[0.5, 1], [1, 0]])
        assert mf.validate_metric(m).by_axiom("diagonal")

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(ValueError):
            mf.FiniteMetricSpace(("a", "b", "c"), np.zeros((2, 2)))

    def test_boundary_must_be_proper_and_nonempty(self):
        good = space_from([[0, 1], [1, 0]], boundary={0})
        assert mf.validate_metric(good).ok
        full = space_from([[0, 1], [1, 0]], boundary={0, 1})
        assert mf.validate_metric(full).by_axiom("boundary")
        empty = space_from([[0, 1], [1, 0]], boundary=set())
        assert mf.validate_metric(empty).by_axiom("boundary")

    def test_tolerance_respected(self):
        # a 1e-10 triangle excess is inside the declared tolerance
        m = space_from([[0, 1, 2 + 1e-10], [1, 0, 1], [2 + 1e-10, 1, 0]])
        assert mf.validate_metric(m).ok

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # NaN would pass every triangle and a negative tol flag sound ones.
        m = space_from([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert mf.validate_metric(m, tol=0.0).by_axiom("triangle")
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            mf.validate_metric(m, tol=tol)

    # A space holds finite numbers only: these are refused where they enter.
    def test_all_nan_matrix_is_not_a_metric(self):
        with pytest.raises(ValueError, match="non-finite number nan"):
            space_from(np.full((3, 3), math.nan))

    def test_infinite_distance_is_not_a_metric(self):
        with pytest.raises(ValueError, match="non-finite number inf"):
            space_from([[0, 1, math.inf], [1, 0, 1], [math.inf, 1, 0]])

    def test_nan_mass_is_not_a_measure(self):
        with pytest.raises(ValueError, match="non-finite number nan"):
            space_from([[0, 1], [1, 0]], mass=[math.nan, 1.0])


class TestBall:
    @pytest.fixture()
    def m(self):
        return space_from([[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_open_ball(self, m):
        assert mf.ball(m, 0, 1.5) == {0, 1}

    def test_zero_radius_closed(self, m):
        assert mf.ball(m, 1, 0.0, closed=True) == {1}

    def test_whole_space(self, m):
        assert mf.ball(m, 0, 2.5, closed=True) == {0, 1, 2}

    def test_negative_radius_rejected(self, m):
        with pytest.raises(ValueError):
            mf.ball(m, 0, -1.0)


class TestCoveringRadius:
    def test_whole_subset_gives_zero(self):
        m = space_from([[0, 1], [1, 0]])
        assert mf.covering_radius(m, {0, 1}) == 0.0

    def test_collinear(self):
        m = space_from([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert mf.covering_radius(m, {0}) == 2.0

    def test_grid_corners(self):
        grid = mf.euclidean_grid(5, 1.0)
        corners = [grid.index(f"g{i}_{j}") for i in (0, 4) for j in (0, 4)]
        value = mf.covering_radius(grid, corners)
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert value == pytest.approx(covering_radius_naive(grid.dist, corners), abs=0)

    def test_empty_subset_rejected(self):
        m = space_from([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            mf.covering_radius(m, set())


class TestGreedyCover:
    def test_far_balls_both_survive(self):
        m = space_from([[0, 3], [3, 0]])
        res = mf.greedy_cover_5r(m, {0, 1}, {0: 1.0, 1: 1.0})
        assert set(res.centers) == {0, 1}

    def test_overlap_forces_rejection(self):
        m = space_from([[0, 0.5], [0.5, 0]])
        res = mf.greedy_cover_5r(m, {0, 1}, {0: 1.0, 1: 1.0})
        assert len(res.centers) == 1
        ok_disjoint, ok_cover = cover_is_valid(
            m.dist, [0, 1], {0: 1.0, 1: 1.0}, res.centers, res.radius_per_center)
        assert ok_disjoint and ok_cover

    def test_collinear_line(self):
        n = 10
        dist = np.abs(np.subtract.outer(np.arange(n, dtype=float), np.arange(n, dtype=float)))
        m = space_from(dist)
        radii = {i: 1.0 for i in range(n)}
        res = mf.greedy_cover_5r(m, range(n), radii)
        for a in res.centers:
            for b in res.centers:
                if a != b:
                    assert m.dist[a, b] > 2.0 - 1e-12
        ok_disjoint, ok_cover = cover_is_valid(m.dist, range(n), radii,
                                               res.centers, res.radius_per_center)
        assert ok_disjoint and ok_cover

    def test_radii_array_is_indexed_by_point(self):
        # Radii in an array belong to the points, not to the sorted target.
        m = space_from(np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0))))
        assert mf.greedy_cover_5r(m, [5, 2], {5: 1.0, 2: 3.0}).centers == (2,)
        assert mf.greedy_cover_5r(m, [5, 2], np.array([0, 0, 3.0, 0, 0, 1.0])).centers == (2,)
        with pytest.raises(ValueError, match="one per point"):
            mf.greedy_cover_5r(m, [5, 2], np.array([1.0, 3.0]))

    def test_empty_target(self):
        m = space_from([[0, 1], [1, 0]])
        res = mf.greedy_cover_5r(m, set(), {})
        assert res.centers == ()

    def test_nonpositive_radii_rejected(self):
        m = space_from([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            mf.greedy_cover_5r(m, {0}, {0: 0.0})

    @pytest.mark.parametrize("target, radii, match", [
        ([], np.array([1.0, 2.0]), "one per point"), ([], math.nan, "finite and positive"),
        ([], -1.0, "finite and positive"), ([], 0.0, "finite and positive"),
        ([], math.inf, "finite and positive"),
        # Once a KeyError, a TypeError, or a cover with strings or bools read as radii.
        ([0, 1], {0: 1.0}, "radii has no radius for target point 1"),
        ([0, 1], {0: None, 1: 1.0}, "radii must be a real number"),
        ([0, 1], {0: "1.5", 1: "0.2"}, "radii must be a real number"),
        ([0, 1], "1.5", "radii must be a real number"),
        ([0, 1], np.array(["1", "2", "3"]), "radii must be a real number"),
        ([0, 1], {0: True, 1: 1.0}, "radii must be a real number"),
        ([0, 1], True, "radii must be a real number"),
    ])
    def test_empty_target_checks_radii(self, target, radii, match):
        # An empty target once returned an empty cover for any radii.
        m = space_from([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(ValueError, match=match):
            mf.greedy_cover_5r(m, target, radii)
        assert mf.greedy_cover_5r(m, [], 1.0) == mf.CoverResult((), ())

    def test_deterministic_order(self):
        m = space_from([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        radii = {0: 1.0, 1: 1.0, 2: 1.0}
        a = mf.greedy_cover_5r(m, {0, 1, 2}, radii)
        b = mf.greedy_cover_5r(m, {0, 1, 2}, radii)
        assert a == b
        assert a.centers[0] == 0  # equal radii tie broken by index

    def test_contract_on_random_instances(self):
        # mixed Euclidean clouds and graph metrics, radii spread over scales
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            n = int(rng.integers(3, 201))
            if trial % 5 == 0:
                m = mf.random_metric(n, seed=trial)
            else:
                from scipy.spatial.distance import cdist
                pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
                m = mf.FiniteMetricSpace(tuple(map(str, range(n))), cdist(pts, pts))
            k = int(rng.integers(1, n + 1))
            target = rng.choice(n, size=k, replace=False)
            radii = {int(t): float(rng.uniform(0.05, 1.5)) for t in target}
            res = mf.greedy_cover_5r(m, target, radii)
            ok_disjoint, ok_cover = cover_is_valid(
                m.dist, [int(t) for t in target], radii,
                res.centers, res.radius_per_center)
            assert ok_disjoint, f"trial {trial}: kept cores overlap"
            assert ok_cover, f"trial {trial}: 5r balls fail to cover"


class TestSerialization:
    def test_json_round_trip_exact(self):
        m = mf.random_metric(9, seed=4).with_boundary({1, 5})
        back = mf.from_json(mf.to_json(m))
        assert back.points == m.points
        assert np.array_equal(back.dist, m.dist)
        assert back.boundary == m.boundary

    def test_json_keeps_coords_and_mass(self):
        m = mf.euclidean_grid(3, 1 / 3)
        back = mf.from_json(mf.to_json(m))
        assert np.array_equal(back.coords, m.coords)
        assert np.array_equal(back.mass, m.mass)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("field", ["dist", "coords", "mass"])
    def test_json_rejects_non_finite_numbers(self, token, field):
        doc = {"points": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]],
               "coords": [[0.0, 0.0], [1.0, 0.0]], "mass": [1.0, 1.0]}
        row = doc[field] if field == "mass" else doc[field][0]
        row[1] = "X"
        text = json.dumps(doc).replace('"X"', token)
        with pytest.raises(ValueError, match="non-finite"):
            mf.from_json(text)

    @pytest.mark.parametrize("case", ["bare", "full", "one-point", "empty", "odd-labels"])
    def test_json_layout_is_the_stdlib_layout(self, case):
        if case == "bare":
            m = mf.random_metric(6, seed=2)
        elif case == "full":
            m = mf.sphere_cap_complement(n=30, eps=0.5, seed=1)
        elif case == "one-point":
            m = mf.FiniteMetricSpace(("a",), np.zeros((1, 1)), coords=np.zeros((1, 2)),
                                     mass=[1.0], boundary={0})
        elif case == "empty":
            m = mf.FiniteMetricSpace((), np.zeros((0, 0)), coords=np.zeros((0, 2)),
                                     mass=np.zeros(0), boundary=())
        else:  # quotes, escapes, non-ASCII; -0.0 keeps its sign
            m = mf.FiniteMetricSpace(('q"uote', "back\\slash", "é∞", "new\nline"),
                                     np.array([[0.0, -0.0, 1e-300, 0.1],
                                               [-0.0, 0.0, 1 / 3, 5e300],
                                               [1e-300, 1 / 3, 0.0, 2.0],
                                               [0.1, 5e300, 2.0, 0.0]]),
                                     mass=[-0.0, 0.5, 1e-7, 3.0])
        assert mf.to_json(m) == space_json(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["dist", "coords", "mass"])
    def test_writers_refuse_non_finite_numbers(self, value, field):
        # No writer ever sees one: the space that would hold it is not built.
        arrays = {"dist": 1.0 - np.eye(2), "coords": np.zeros((2, 2)), "mass": np.ones(2)}
        arrays[field].flat[1] = value
        with pytest.raises(ValueError, match="non-finite"):
            mf.FiniteMetricSpace(("a", "b"), **arrays)

    @pytest.mark.parametrize("entry", ["0.7", "1.9", "1.0", "true", "false", '"1"'])
    def test_json_boundary_entries_must_be_integers(self, entry):
        # A fractional, boolean or string entry is refused, not read as a
        # different index.
        text = '{"points": ["a", "b", "c"], "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], '
        with pytest.raises(ValueError, match="not an integer index"):
            mf.from_json(text + f'"boundary": [0, {entry}]}}')

    def test_numpy_integer_boundary_entries_are_indices(self):
        m = space_from([[0, 1], [1, 0]], boundary=np.array([1], dtype=np.int32))
        assert m.boundary == {1}
        with pytest.raises(ValueError, match="not an integer index"):
            space_from([[0, 1], [1, 0]], boundary=np.array([True]))

    def test_save_load_by_suffix(self, tmp_path):
        m = mf.random_metric(5, seed=0)
        path = tmp_path / "s.json"
        mf.save_space(m, path)
        assert np.array_equal(mf.load_space(path).dist, m.dist)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_saved_file_is_the_stdlib_layout_and_loads_bit_for_bit(self, data):
        # Labels with quotes, escapes, newlines and non-ASCII; any finite
        # float, -0.0 included; each optional field present or not.
        labels = data.draw(st.lists(st.text('a"\\\né∞\x00😀', max_size=3), unique=True,
                                    max_size=5))
        n = len(labels)
        floats = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
        def array(shape):
            return data.draw(hnp.arrays(np.float64, shape, elements=floats))
        k = data.draw(st.none() | st.integers(0, 3))
        m = mf.FiniteMetricSpace(
            labels, array((n, n)), coords=None if k is None else array((n, k)),
            mass=array((n,)) if data.draw(st.booleans()) else None,
            boundary=data.draw(st.none() | st.sets(st.integers(0, max(n - 1, 0)),
                                                   max_size=n)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            mf.save_space(m, path)
            assert path.read_bytes() == mf.to_json(m).encode() == space_json(m).encode()
            back = mf.load_space(path)
            if n == 0:  # a (0, k) coords is written as [], which keeps no k
                again = Path(tmp) / "again.json"
                mf.save_space(back, again)
                assert again.read_bytes() == path.read_bytes()
                return
        assert back.points == m.points and back.boundary == m.boundary
        for name in ("dist", "coords", "mass"):
            a, b = getattr(m, name), getattr(back, name)
            assert a is b is None or (a.shape == b.shape
                                      and np.array_equal(a.view(np.uint64), b.view(np.uint64)))

    @pytest.mark.parametrize("label", [b"bytes", frozenset("a")])
    def test_failed_save_leaves_the_target_untouched(self, tmp_path, label):
        # points sorts last in the file, yet its error comes before the
        # file is opened: an existing file keeps its bytes, and no new one
        # is made.
        path = tmp_path / "s.json"
        mf.save_space(mf.random_metric(5, seed=0), path)
        before = path.read_bytes()
        bad = mf.FiniteMetricSpace(("a", label), 1.0 - np.eye(2))
        for target in (path, tmp_path / "new.json"):
            with pytest.raises(TypeError, match="not JSON serializable"):
                mf.save_space(bad, target)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_writer_streams_rows(self, tmp_path):
        # save_space holds a sorted copy of the bits while it finds the
        # distinct floats, then their fixed-width text and a band of 16 rows
        # of ranks and text: no more than 1.5 times the matrix (a band of 64
        # rows took 1.8 times, and an int32 rank per entry and a str per
        # distinct float 3.1 times).  to_json holds the whole text too, so
        # its peak is the higher.
        m = mf.double(mf.sphere_cap_complement(n=220, eps=0.5, seed=0)).doubled
        path = tmp_path / "d.json"
        mf.save_space(m, path)  # numpy's first-call allocations stay out of the peaks
        _, saved = traced(mf.save_space, m, path)
        _, joined = traced(mf.to_json, m)
        assert saved <= 1.5 * m.dist.nbytes
        assert saved < joined

    @pytest.mark.parametrize("values", [
        [-2.2250738585072014e-308, -1.7976931348623157e+308],  # reprs of 24 characters
        [5e-324, -5e-324],
        [0.0, -0.0],
    ], ids=["longest-reprs", "least-subnormal", "signed-zeros"])
    def test_saved_bytes_of_extreme_floats(self, tmp_path, values):
        # Both values in one row of dist and coords, and in mass.
        m = space_from([[values[0], values[1], 1.0], [1.0, values[1], values[0]],
                        [values[1], values[0], 0.0]],
                       coords=[values, values[::-1], [1.0, values[0]]], mass=values + [2.0])
        path = tmp_path / "x.json"
        mf.save_space(m, path)
        assert path.read_bytes() == mf.to_json(m).encode() == space_json(m).encode()
        assert all(repr(v).encode() in path.read_bytes() for v in values)

    @pytest.mark.parametrize("n", [15, 16, 17, 33, 63, 64, 65, 129])
    def test_saved_bytes_across_row_bands(self, tmp_path, n):
        # Rows are ranked into the text table a band of 16 at a time: n =
        # 15, 16 and 17 end inside, at and just past the first band.  The
        # -0.0 entries make the matrix asymmetric, and -0.0 and 0.0 are two
        # floats.
        rng = np.random.default_rng(n)
        d = mf.random_metric(n, seed=n).dist.copy()
        d[rng.random((n, n)) < 0.05] = -0.0
        coords = rng.normal(size=(n, 3))
        coords[::7, 1] = -0.0
        m = space_from(d, coords=coords, mass=rng.random(n), boundary=range(0, n, 5))
        path = tmp_path / "b.json"
        mf.save_space(m, path)
        assert path.read_bytes() == space_json(m).encode()
        assert mf.to_json(m) == space_json(m)

    def test_reader_holds_the_matrix_and_a_buffer(self, tmp_path):
        # The reader decodes dist a row at a time into its array, through a
        # fixed buffer, so no more than a row of distances is ever held as
        # Python floats: its peak is the matrix plus about 1 MB.
        m = mf.double(mf.sphere_cap_complement(n=220, eps=0.5, seed=0)).doubled
        path = tmp_path / "d.json"
        mf.save_space(m, path)
        mf.load_space(path)  # numpy's first-call allocations stay out of the peak
        back, peak = traced(mf.load_space, path)
        assert np.array_equal(back.dist, m.dist)
        assert peak <= m.dist.nbytes + 1_000_000

    @pytest.mark.parametrize("buffer", ["default", "tiny"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_stdlib_layout_loads_as_json_loads_reads_it(self, tmp_path_factory, buffer,
                                                            data):
        # Any layout json.dumps writes (indent, separators, key order, escapes)
        # plus whitespace around it, read through the default buffer or one
        # of 1-7 characters, so that every token crosses a buffer edge.  A
        # key the reader does not know may hold a bare number, which a buffer
        # edge could cut short.
        n = data.draw(st.integers(0, 5))
        number = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.integers(-2**60, 2**60) | st.just(-0.0))
        def rows(k):
            return data.draw(st.lists(st.lists(number, min_size=k, max_size=k),
                                      min_size=n, max_size=n))
        record = {"points": data.draw(st.lists(st.text('a"\\\né∞\x00😀', max_size=3),
                                               unique=True, min_size=n, max_size=n)),
                  "dist": rows(n)}
        k = data.draw(st.none() | st.integers(0, 3))
        if k is not None:
            record["coords"] = rows(k)
        if data.draw(st.booleans()):
            record["mass"] = data.draw(st.lists(number, min_size=n, max_size=n))
        if n and data.draw(st.booleans()):
            record["boundary"] = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        if data.draw(st.booleans()):  # a key the reader skips, as json.loads read it
            record["note"] = data.draw(number | st.booleans() | st.none() | st.text(max_size=3))
        keys = data.draw(st.permutations(sorted(record)))
        blank = st.text(" \t\r\n", max_size=3)
        text = data.draw(blank) + json.dumps(
            {key: record[key] for key in keys},
            indent=data.draw(st.none() | st.integers(0, 3) | blank),
            separators=data.draw(st.none() | st.tuples(
                st.builds("{},{}".format, blank, blank), st.builds("{}:{}".format, blank, blank))),
            ensure_ascii=data.draw(st.booleans())) + data.draw(blank)
        want = mf.FiniteMetricSpace(**space_record(text))
        path = tmp_path_factory.mktemp("layout") / "s.json"
        path.write_text(text, encoding="utf-8", newline="")
        size = space._BUFFER if buffer == "default" else data.draw(st.integers(1, 7))
        with mock.patch.object(space, "_BUFFER", size):
            spaces = mf.from_json(text), mf.load_space(path)
        for got in spaces:
            assert got.points == want.points and got.boundary == want.boundary
            for name in ("dist", "coords", "mass"):
                a, b = getattr(want, name), getattr(got, name)
                assert a is b is None or (a.shape == b.shape and np.array_equal(
                    a.view(np.uint64), b.view(np.uint64)))

    @pytest.mark.parametrize("size", range(1, 8))
    @pytest.mark.parametrize("pad", range(8))
    def test_a_number_cut_by_the_buffer_edge_is_read_whole(self, size, pad):
        # A key the reader skips holds a bare number, which the buffer's edge
        # cuts at each of its characters in turn: a prefix such as "-1.",
        # "-1.5e" or "-1.5e-" decodes as a shorter number.
        text = '{"note": ' + " " * pad + '-1.5e-30, "points": ["a"], "dist": [[0]]}'
        with mock.patch.object(space, "_BUFFER", size):
            assert mf.from_json(text).points == ("a",)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 1 << 16])
    @pytest.mark.parametrize("text, message, at", [
        ('{"points": ["a"], "dist": [[0]]} []', "Extra data", "[]"),
        ('{"points": ["a"], "dist": [[0]], "points": ["a"]}', "repeated key 'points'",
         '"points": ["a"]}'),
        ('{"points": ["a", "b"], "dist": [[0, 1], ["1", 0]]}', "dist row is not a list",
         '["1", 0]'),
        ('{"points": ["a", "b"], "dist": [[0, 1], [1, 0]], "mass": [1, true]}',
         "mass is not a list", "[1, true]"),
        ('{"points": ["a", "b"], "dist": [[0, 1], [1]]}', "has 1 entries where", "[1]"),
        ('{"points": ["a", "b"], "dist": [[0, 1], [1, 0], [0, 0]]}', "more rows", "[0, 0]"),
        ('{"points": ["a", "b"],\n "dist": [[0, 1], [1, 0.5', "Expecting", ""),
        ('{"points": ["a", "b"], "dist": [[0, 1], [1, NaN]]}', "non-finite number NaN",
         "[1, NaN]"),
        ('{"points": ["a", "b"], "dist": [[0, 1], [1, 0]], "mass": [1, -Infinity]}',
         "non-finite number -Infinity", "[1, -Infinity]"),
    ])
    def test_reader_errors_name_the_file_offset(self, size, text, message, at):
        # The offset, that of the last occurrence of ``at``, is the file's,
        # whatever the buffer's size.
        with mock.patch.object(space, "_BUFFER", size):
            with pytest.raises(ValueError, match=rf"{message}.* \(char {text.rindex(at)}\)$"):
                mf.from_json(text)


class TestSampleScale:
    @staticmethod
    def bits(x):
        return np.float64(x).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 129])
    @pytest.mark.parametrize("kind", ["euclidean", "duplicates", "asymmetric"])
    def test_bands_match_the_whole_matrix(self, n, kind):
        # The nearest neighbours are found a band of 64 rows at a time; the
        # max of their distances is the same float as through one copy of
        # the whole matrix, signed zeros included.
        rng = np.random.default_rng(n)
        if kind == "asymmetric":
            d = rng.random((n, n))
            d[rng.random((n, n)) < 0.2] = -0.0
            np.fill_diagonal(d, 0.0)
        else:  # duplicates: points on a 3 x 3 grid, so many pairs are 0 apart
            xy = rng.integers(0, 3, size=(n, 2)) if kind == "duplicates" else rng.random((n, 2))
            d = np.hypot(*(xy[:, None] - xy[None]).transpose(2, 0, 1))
        m = space_from(d)
        assert self.bits(mf.sample_scale(m)) == self.bits(sample_scale_whole(d))
        if kind == "duplicates" and n > 9:
            assert mf.sample_scale(m) == 0.0

    def test_holds_bands_not_the_matrix(self):
        # A copy of the whole matrix with an infinite diagonal took the
        # matrix again; a band of 64 rows is 8% of it at n = 800.
        m = space_from(np.random.default_rng(0).random((800, 800)))
        mf.sample_scale(m)
        scale, peak = traced(mf.sample_scale, m)
        assert self.bits(scale) == self.bits(sample_scale_whole(m.dist))
        assert peak < m.dist.nbytes / 4

    def test_holds_one_band_at_a_time(self):
        # Each band is copied into one buffer: a fresh copy per band held
        # the previous band too while it was made, twice the buffer.
        m = mf.double(mf.sphere_cap_complement(n=220, eps=0.5, seed=0)).doubled
        mf.sample_scale(m)
        scale, peak = traced(mf.sample_scale, m)
        assert self.bits(scale) == self.bits(sample_scale_whole(m.dist))
        assert peak <= 1.1 * 64 * m.n * 8


class TestSubspace:
    def test_restriction_inherits_metric(self):
        m = mf.euclidean_grid(3, 1.0)
        sub = mf.subspace(m, [0, 4, 8])
        assert sub.n == 3
        assert sub.dist[0, 2] == m.dist[0, 8]

    def test_boundary_reindexed(self):
        m = mf.random_metric(6, seed=1).with_boundary({3, 5})
        sub = mf.subspace(m, [5, 0, 3])
        assert sub.boundary == {0, 2}

    def test_duplicate_indices_rejected(self):
        m = mf.random_metric(4, seed=1)
        with pytest.raises(ValueError):
            mf.subspace(m, [0, 0, 1])


POINT_CALLS = {
    "subspace": lambda m, i: mf.subspace(m, [i, 0]),
    "covering_radius": lambda m, i: mf.covering_radius(m, {i}),
    "greedy_cover_5r": lambda m, i: mf.greedy_cover_5r(m, {i}, 1.0),
    "ball": lambda m, i: mf.ball(m, i, 1.5),
    "cross_ratio": lambda m, i: mf.cross_ratio(m, i, 5, 6, 7),
    "warp": lambda m, i: mf.warp(m, i),
    "check_inclusions": lambda m, i: mf.check_inclusions(mf.warp(m, 0), i, 0.01, 2.0),
    "project": lambda m, i: mf.project(mf.double(m.with_boundary({0})), i),
}


@pytest.mark.parametrize("call", sorted(POINT_CALLS))
@pytest.mark.parametrize("index, match", [(-1, "outside"), (17, "outside"),
                                          (True, "not an integer index"),
                                          (1.5, "not an integer index")])
def test_point_indices_are_checked(call, index, match):
    # -1 once meant the last point and True or 1.5 point 1; warp(m, True)
    # failed inside numpy.
    m = mf.euclidean_grid(3, 1.0)  # 17 points once doubled
    with pytest.raises(ValueError, match=match):
        POINT_CALLS[call](m, index)
    POINT_CALLS[call](m, 4)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 4), data=st.data())
def test_constructor_accepts_exactly_the_well_shaped_inputs(n, data):
    # Each array is drawn well shaped, one row off, or with a wrong number
    # of axes; the space must build exactly when every field fits n points.
    size = st.sampled_from(sorted({max(n - 1, 0), n, n + 1}))
    dist = np.zeros(data.draw(st.tuples(size) | st.tuples(size, size)
                              | st.tuples(size, size, size)))
    coords = data.draw(st.none() | (st.tuples(size) | st.tuples(size, st.just(2))).map(np.zeros))
    mass = data.draw(st.none() | (st.tuples(size) | st.tuples(size, st.just(1))).map(np.ones))
    boundary = data.draw(st.none() | st.sets(st.integers(-1, n), max_size=3))
    well_shaped = (dist.shape == (n, n)
                   and (coords is None or (coords.ndim == 2 and len(coords) == n))
                   and (mass is None or mass.shape == (n,))
                   and (boundary is None or all(0 <= i < n for i in boundary)))
    labels = tuple(map(str, range(n)))
    if well_shaped:
        m = mf.FiniteMetricSpace(labels, dist, coords=coords, mass=mass, boundary=boundary)
        assert m.boundary == (None if boundary is None else frozenset(boundary))
    else:
        with pytest.raises(ValueError, match="shape|outside"):
            mf.FiniteMetricSpace(labels, dist, coords=coords, mass=mass, boundary=boundary)


@settings(max_examples=50, deadline=None)
@given(labels=st.lists(st.sampled_from("abcd"), min_size=1, max_size=5))
def test_labels_must_be_unique(labels):
    dist = 1.0 - np.eye(len(labels))
    if len(set(labels)) < len(labels):
        with pytest.raises(ValueError, match="duplicate point label"):
            mf.FiniteMetricSpace(tuple(labels), dist)
    else:
        m = mf.FiniteMetricSpace(tuple(labels), dist)
        assert [m.index(p) for p in labels] == list(range(len(labels)))


class TestImmutability:
    def test_arrays_are_read_only(self):
        m = mf.random_metric(4, seed=2)
        with pytest.raises(ValueError):
            m.dist[0, 1] = 3.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 14))
def test_random_metric_always_validates(seed, n):
    m = mf.random_metric(n, seed=seed)
    assert mf.validate_metric(m).ok
    assert triangle_ok(m.dist)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 30))
def test_point_cloud_spaces_validate(seed, n):
    from scipy.spatial.distance import cdist
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    m = mf.FiniteMetricSpace(tuple(map(str, range(n))), cdist(pts, pts))
    assert mf.validate_metric(m).ok


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_violation_counts_and_witnesses_match_naive_lister(n, data):
    # Small integer entries (many ties, zeros, negatives) and an occasional
    # asymmetric or fractional entry make every axiom fail somewhere.  A
    # space holds finite numbers only, so none other is drawn.
    cells = st.one_of(st.integers(-1, 4).map(float), st.floats(-1.0, 4.0))
    dist = np.array(data.draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
    mass = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    report = mf.validate_metric(space_from(dist, mass=mass))
    expect = metric_violations(dist, mass=mass)
    assert report.total == len(expect)
    kept = []
    for axiom in ("diagonal", "symmetry", "positivity", "triangle", "mass"):
        kept += [v for v in expect if v[0] == axiom][:25]
    got = [(v.axiom, v.witness, v.excess) for v in report.violations]
    assert repr(got) == repr(kept)  # repr: exact floats


def plane_metric(n, seed):
    from scipy.spatial.distance import cdist
    pts = np.random.default_rng(seed).uniform(size=(n, 2))
    return cdist(pts, pts)  # bitwise symmetric, diameter below 1.5


@settings(max_examples=12, deadline=None)
@given(n=st.integers(65, 200), seed=st.integers(0, 10**6), data=st.data())
@pytest.mark.parametrize("plant", ["lower-last-band", "pair-middle-band", "nan"])
def test_triangle_pass_across_row_bands(plant, n, seed, data):
    # The triangle pass tests rows in bands of 64, and only the columns
    # k >= i of a symmetric matrix; each plant sits where a wrong band or
    # a wrong restriction would miss it.  A NaN anywhere is refused when the
    # space is built, so no band sees one.
    d = plane_metric(n, seed)
    if plant == "lower-last-band":  # asymmetric: only d[i, k] grows, k < i
        i = data.draw(st.integers(64 * ((n - 1) // 64), n - 1))
        k = data.draw(st.integers(0, i - 1))
        d[i, k] += 3.0
    elif plant == "pair-middle-band":
        assume(n > 128)
        i = data.draw(st.integers(64, 127))
        k = data.draw(st.integers(0, n - 1).filter(lambda k: k != i))
        d[i, k] = d[k, i] = d[i, k] + 3.0
    else:
        i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        d[i, k] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            space_from(d)
        return
    report = mf.validate_metric(space_from(d))
    total, kept = metric_violations_by_middle_point(d)
    assert report.total == total
    got = [(v.axiom, v.witness, v.excess) for v in report.violations]
    assert repr(got) == repr(kept)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 12), data=st.data())
def test_triangle_scan_of_flagged_pairs_matches_naive_lister(n, data):
    # A metric with ties (off-diagonal 1 or 2), then a few raised entries,
    # some within a few tolerances of the bound: the triangle pass flags
    # only some pairs, and counting over those alone must give the naive
    # lister's total, witness order and excesses.
    cells = data.draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n * n, max_size=n * n))
    d = np.triu(np.array(cells).reshape(n, n), 1)
    d = d + d.T
    for _ in range(data.draw(st.integers(1, 4))):
        i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        assume(i != k)
        d[i, k] = data.draw(st.sampled_from([2 + 1e-9, 2 + 2e-9, 2 + 5e-9, 2.5, 3.0, 5.0]))
        if data.draw(st.booleans()):
            d[k, i] = d[i, k]
    report = mf.validate_metric(space_from(d))
    expect = [v for v in metric_violations(d) if v[0] == "triangle"]
    got = [(v.axiom, v.witness, v.excess) for v in report.by_axiom("triangle")]
    assert report.total == len(metric_violations(d))
    assert repr(got) == repr(expect[:25])
