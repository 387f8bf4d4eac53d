import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

import metricforge as mf
from metricforge.generators import _euclidean
from metricforge.space import _closure
from oracles import rim_gap, traced, triangle_ok


class TestGrid:
    def test_point_count_and_distance(self):
        g = mf.euclidean_grid(3, 1.0)
        assert g.n == 9
        d = g.dist[g.index("g0_0"), g.index("g2_2")]
        assert d == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_mass_is_cell_area(self):
        g = mf.euclidean_grid(4, 0.25)
        assert np.all(g.mass == 0.25 ** 2)

    def test_validates(self):
        assert mf.validate_metric(mf.euclidean_grid(5, 0.2)).ok

    @pytest.mark.parametrize("side,spacing", [(0, 1.0), (3, 0.0), (-1, 1.0), (3, -2.0),
                                              (2.5, 1.0)])
    def test_bad_params(self, side, spacing):
        with pytest.raises(ValueError):
            mf.euclidean_grid(side, spacing)


class TestDiskSample:
    def test_inside_disk_and_mass(self):
        m = mf.disk_sample(200, radius=2.0, seed=3)
        assert np.all(np.hypot(m.coords[:, 0], m.coords[:, 1]) <= 2.0 + 1e-12)
        assert m.mass[0] == pytest.approx(math.pi * 4.0 / 200)

    def test_boundary_band(self):
        m = mf.disk_sample(400, seed=5, mark_boundary=True)
        band = 2.5 / math.sqrt(400)
        rr = np.hypot(m.coords[:, 0], m.coords[:, 1])
        marked = {i for i in range(m.n) if rr[i] > 1.0 - band}
        assert m.boundary == marked

    def test_seed_reproducibility(self):
        a = mf.disk_sample(50, seed=9)
        b = mf.disk_sample(50, seed=9)
        assert np.array_equal(a.dist, b.dist)
        assert not np.array_equal(a.dist, mf.disk_sample(50, seed=10).dist)


class TestDiskGrid:
    def test_geometry(self):
        m = mf.disk_grid(1 / 8)
        rr = np.hypot(m.coords[:, 0], m.coords[:, 1])
        assert np.all(rr <= 1.0 + 1e-12)
        rim = {i for i in range(m.n) if rr[i] > 1.0 - 1 / 8}
        assert m.boundary == rim
        assert mf.validate_metric(m).ok

    def test_count_tracks_area(self):
        m = mf.disk_grid(1 / 16)
        assert abs(m.n - math.pi * 16 ** 2) < 40

    @pytest.mark.parametrize("spacing, radius", [(1.0, 1e4), (0.5, 1e150), (1e-300, 1e150),
                                                 (1.0, 256.0)])
    def test_candidate_grid_is_bounded_before_it_is_built(self, spacing, radius):
        # A ratio of 1e4 would lay out 4e8 candidates (several GB), and 1e150
        # once ended in numpy's "Maximum allowed size exceeded".
        def call():
            with pytest.raises(ValueError, match=r"radius / spacing is .* more than 262144"):
                mf.disk_grid(spacing, radius=radius)
        _, peak = traced(call)
        assert peak < 100_000


class TestSphereCap:
    def test_boundary_is_the_rim(self):
        m = mf.sphere_cap_complement(0.4, 500, seed=7)
        assert m.n == 500
        gaps = rim_gap(m.coords, 0.4)
        marked = {i for i in range(m.n) if gaps[i] <= 0.02}
        assert m.boundary == marked
        # rim points are on the rim to float precision
        assert max(gaps[sorted(m.boundary)]) < 1e-9

    def test_cap_is_empty(self):
        m = mf.sphere_cap_complement(0.3, 300, seed=1)
        pole = np.array([0.0, 0.0, 1.0])
        chordal = np.linalg.norm(m.coords - pole, axis=1)
        interior = np.asarray(sorted(set(range(m.n)) - m.boundary))
        assert np.all(chordal[interior] > 0.3)

    def test_on_unit_sphere_and_valid(self):
        m = mf.sphere_cap_complement(0.2, 200, seed=2)
        assert np.allclose(np.linalg.norm(m.coords, axis=1), 1.0, atol=1e-12)
        assert mf.validate_metric(m).ok

    def test_eps_bounds(self):
        with pytest.raises(ValueError):
            mf.sphere_cap_complement(0.0, 100)
        with pytest.raises(ValueError):
            mf.sphere_cap_complement(2.5, 100)


class TestHalfplane:
    def test_strictly_above_axis(self):
        m = mf.halfplane_sample(150, seed=4)
        assert np.all(m.coords[:, 1] > 0)
        assert mf.validate_metric(m).ok


    @pytest.mark.parametrize("side", ["width", "height"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_strip_must_be_finite_and_positive(self, side, value):
        # A zero height once gave every point mass 0.
        with pytest.raises(ValueError, match=f"{side} must be finite and positive"):
            mf.halfplane_sample(20, **{side: value})


class TestRandomMetric:
    def test_example_space_validates(self):
        m = mf.random_metric(5, seed=1)
        assert mf.validate_metric(m).ok
        assert triangle_ok(m.dist)

    def test_single_point(self):
        m = mf.random_metric(1, seed=0)
        assert m.n == 1 and m.dist[0, 0] == 0.0

    def test_bit_identical_under_seed(self):
        assert np.array_equal(mf.random_metric(20, seed=77).dist,
                              mf.random_metric(20, seed=77).dist)

    def test_exactly_symmetric(self):
        m = mf.random_metric(30, seed=5)
        assert np.array_equal(m.dist, m.dist.T)


    @pytest.mark.parametrize("density", [math.nan, -1.0, 1.5, math.inf])
    def test_edge_density_must_be_a_probability(self, density):
        # NaN and -1 once gave a bare random path graph.
        with pytest.raises(ValueError, match="edge_density must be in"):
            mf.random_metric(20, edge_density=density)

    @pytest.mark.parametrize("density", [0.0, 1.0])
    def test_edge_density_bounds_are_allowed(self, density):
        assert mf.validate_metric(mf.random_metric(12, seed=3, edge_density=density)).ok


@pytest.mark.parametrize("call, name", [
    (lambda v: mf.euclidean_grid(3, v), "spacing"),
    (lambda v: mf.disk_sample(10, radius=v), "radius"),
    (lambda v: mf.disk_grid(0.5, radius=v), "radius"),
    (lambda v: mf.sphere_cap_complement(v, 30), "eps"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_lengths_must_be_finite(call, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        call(value)


COUNT_CALLS = {  # name of the count: the call
    "grid side": lambda v: mf.euclidean_grid(v, 1.0),
    "disk n": lambda v: mf.disk_sample(v),
    "sphere-cap n": lambda v: mf.sphere_cap_complement(0.5, v),
    "halfplane n": lambda v: mf.halfplane_sample(v),
    "random-metric n": lambda v: mf.random_metric(v),
}


@pytest.mark.parametrize("call", sorted(COUNT_CALLS))
@pytest.mark.parametrize("value", [2.5, 20.0, True, math.nan])
def test_point_counts_must_be_integers(call, value):
    # euclidean_grid(2.5, 1.0) once built a 9-point grid, and disk_sample(2.5)
    # failed inside numpy.
    with pytest.raises(ValueError, match=f"{call.split()[-1]} must be an integer"):
        COUNT_CALLS[call](value)


SEEDED_CALLS = {
    "disk": lambda seed: mf.disk_sample(10, seed=seed),
    "sphere-cap": lambda seed: mf.sphere_cap_complement(0.5, 20, seed=seed),
    "halfplane": lambda seed: mf.halfplane_sample(10, seed=seed),
    "random-metric": lambda seed: mf.random_metric(10, seed=seed),
    "llc": lambda seed: mf.llc_constants(mf.euclidean_grid(3, 1.0), seed=seed),
    "regularity": lambda seed: mf.regularity_constant(mf.euclidean_grid(3, 1.0), 2.0,
                                                      seed=seed),
    "exhaustive qm": lambda seed: mf.qm_profile(*[mf.random_metric(5, seed=1)] * 2, range(5),
                                                seed=seed),
}


@pytest.mark.parametrize("call", sorted(SEEDED_CALLS))
@pytest.mark.parametrize("seed", [-1, 1.5, True, None])
def test_seeds_must_be_nonnegative_integers(call, seed):
    # numpy refused -1 without naming the seed, read True as 1 and drew
    # fresh entropy for None; an exhaustive profile took any seed unseen.
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        SEEDED_CALLS[call](seed)


LENGTH_CALLS = {
    "grid spacing": lambda v: mf.euclidean_grid(3, v),
    "disk radius": lambda v: mf.disk_sample(10, radius=v),
    "disk-grid spacing": lambda v: mf.disk_grid(v),
    "disk-grid radius": lambda v: mf.disk_grid(0.5, radius=v),
    "halfplane width": lambda v: mf.halfplane_sample(10, width=v),
    "halfplane height": lambda v: mf.halfplane_sample(10, height=v),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, value", [
    *((call, v) for call in sorted(LENGTH_CALLS) for v in (1e308, 1e160)),
    ("grid spacing", 1e-170), ("disk radius", 1e-170),
])
def test_lengths_whose_squares_overflow_or_vanish_are_refused(call, value):
    # 1e308 once ended in "non-finite number inf" after numpy overflow
    # warnings, disk_grid(0.5, radius=1e308) in an OverflowError, and
    # 1e-170 gave distinct points at distance 0.
    with pytest.raises(ValueError, match="squared extent"):
        LENGTH_CALLS[call](value)


class TestDispatcher:
    def test_kinds_route(self):
        g = mf.generate("grid", side=3, spacing=1.0)
        assert g.n == 9
        r = mf.generate("random-metric", n=6, seed=2)
        assert r.n == 6

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mf.generate("mystery", n=3)

    def test_parameters_bind_to_the_generator(self):
        # The generator's own defaults stand for what is left out.
        assert np.array_equal(mf.generate("disk", n=30).dist, mf.disk_sample(30).dist)
        with pytest.raises(ValueError, match="generator 'grid': missing"):
            mf.generate("grid", side=3)
        with pytest.raises(ValueError, match="generator 'disk-grid': .*'seed'"):
            mf.generate("disk-grid", spacing=0.5, seed=1)


def test_all_generators_validate():
    spaces = [
        mf.euclidean_grid(6, 0.5),
        mf.disk_sample(120, seed=0, mark_boundary=True),
        mf.disk_grid(0.2),
        mf.sphere_cap_complement(0.25, 150, seed=3),
        mf.halfplane_sample(100, seed=1),
        mf.random_metric(40, seed=8),
    ]
    for m in spaces:
        assert mf.validate_metric(m).ok


# Every generator with coordinates, in 2-D and (sphere-cap) 3-D.
COORDINATE_SPACES = {
    "grid": lambda s: mf.euclidean_grid(4 + s, 0.1 + 0.07 * s),
    "disk": lambda s: mf.disk_sample(40 + 9 * s, radius=0.5 + s, seed=s),
    "disk-grid": lambda s: mf.disk_grid(0.1 + 0.03 * s, radius=1.0 + 0.5 * s),
    "sphere-cap": lambda s: mf.sphere_cap_complement(0.2 + 0.1 * s, 40 + 9 * s, seed=s),
    "halfplane": lambda s: mf.halfplane_sample(40 + 9 * s, seed=s, width=1.0 + s),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", sorted(COORDINATE_SPACES))
def test_generated_distances_are_cdist_bit_for_bit(kind, seed):
    m = COORDINATE_SPACES[kind](seed)
    assert m.coords.shape[1] == (3 if kind == "sphere-cap" else 2)
    assert m.dist.tobytes() == cdist(m.coords, m.coords).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-8, 1.0, 1e6]))
def test_euclidean_is_cdist_bit_for_bit(n, k, seed, scale):
    coords = scale * np.random.default_rng(seed).normal(size=(n, k))
    assert _euclidean(coords).tobytes() == cdist(coords, coords).tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 90), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.0, 0.4), ties=st.booleans())
def test_closure_is_dijkstra_bit_for_bit(n, seed, density, ties):
    # Unlike random_metric's graphs, these have no Hamiltonian path, so a
    # sparse one falls apart and the pairs between its components stay inf.
    # Integer weights in 1..3 tie many chain sums.
    rng = np.random.default_rng(seed)
    weights = (rng.integers(1, 4, size=(n, n)).astype(float) if ties
               else rng.uniform(0.5, 2.0, size=(n, n)))
    w = np.where(np.triu(rng.uniform(size=(n, n)) < density, 1), weights, np.inf)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    expect = dijkstra(np.where(np.isinf(w), 0.0, w), directed=False)  # 0: no edge
    expect = np.minimum(expect, expect.T)
    assert _closure(w).tobytes() == expect.tobytes()


def test_closure_keeps_components_apart():
    inf = np.inf
    w = np.array([[0.0, 1.0, inf, inf],
                  [1.0, 0.0, inf, inf],
                  [inf, inf, 0.0, 2.0],
                  [inf, inf, 2.0, 0.0]])
    assert np.array_equal(_closure(w), w)
