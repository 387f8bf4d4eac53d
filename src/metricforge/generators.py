"""Seeded generators for test-bed metric spaces.

Every generator is deterministic: identical parameters and seed give a
bit-identical space.  Generated spaces always pass ``validate_metric``.
Boundary marks are generator outputs, never inferred afterwards.
"""

from __future__ import annotations

import math

import numpy as np

from .space import FiniteMetricSpace, _call, _closure, _count, _finite_positive, _rng

# Most candidate points disk_grid lays out, (2k + 1)² for k = floor(radius /
# spacing).  It keeps about π/4 of them, and their distance matrix would pass
# 300 GB at this bound, so no grid that could be built is refused.
_GRID_CANDIDATES = 1 << 18


def _euclidean(coords: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances of the rows of ``coords``.

    The squares are summed one coordinate at a time from 0, then rooted: the
    same float steps as scipy's ``cdist``, so the same bits, and exactly
    symmetric, since ``(a - b)**2`` and ``(b - a)**2`` are the same float.
    """
    acc = np.zeros((len(coords), len(coords)))
    for x in coords.T:
        step = np.subtract.outer(x, x)
        acc += np.square(step, out=step)
    return np.sqrt(acc, out=acc)


def _box(lengths: str, *sides: float) -> None:
    """Raises, naming ``lengths``, unless the squares of the sides of a box
    that holds the sample sum to a finite, positive float: then no distance or
    mass of the sample overflows, and the box's own scale does not vanish."""
    _finite_positive(f"the sample's squared extent, from {lengths},", sum(s * s for s in sides))


def euclidean_grid(side: int, spacing: float) -> FiniteMetricSpace:
    """side x side square grid with the given spacing; mass = spacing^2."""
    side, spacing = _count("side", side), _finite_positive("spacing", spacing)
    _box("side * spacing", side * spacing, side * spacing)
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    coords = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(np.float64) * spacing
    labels = tuple(f"g{i}_{j}" for i, j in zip(ii.ravel(), jj.ravel()))
    dist = _euclidean(coords)
    mass = np.full(len(labels), spacing * spacing)
    return FiniteMetricSpace(labels, dist, coords=coords, mass=mass)


def disk_sample(n: int, radius: float = 1.0, seed: int = 0,
                mark_boundary: bool = False) -> FiniteMetricSpace:
    """Uniform sample of a closed disk; mass = area / n.

    With ``mark_boundary``, points in the outer annulus of width
    2.5 * radius / sqrt(n) (about 2.5 typical spacings) are marked.
    """
    n, radius = _count("n", n), _finite_positive("radius", radius)
    _box("radius", 2.0 * radius, 2.0 * radius)
    rng = _rng(seed)
    rr = radius * np.sqrt(rng.uniform(size=n))
    th = rng.uniform(0.0, 2.0 * math.pi, size=n)
    coords = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
    dist = _euclidean(coords)
    labels = tuple(f"p{i}" for i in range(n))
    mass = np.full(n, math.pi * radius * radius / n)
    marked = np.flatnonzero(rr > radius - 2.5 * radius / math.sqrt(n))
    boundary = marked if mark_boundary and marked.size else None
    return FiniteMetricSpace(labels, dist, coords=coords, mass=mass, boundary=boundary)


def disk_grid(spacing: float, radius: float = 1.0,
              mark_boundary: bool = True) -> FiniteMetricSpace:
    """Square-grid sample of a disk; rim ring marked as boundary.

    Grid points with |p| <= radius are kept; the rim is the outermost cell
    ring, |p| > radius - spacing.  mass = spacing^2.
    """
    spacing, radius = _finite_positive("spacing", spacing), _finite_positive("radius", radius)
    _box("radius and spacing", 2.0 * radius + spacing, 2.0 * radius + spacing)
    k = math.floor(min(radius / spacing, _GRID_CANDIDATES))  # the ratio may be inf
    if (2 * k + 1) ** 2 > _GRID_CANDIDATES:
        raise ValueError(f"radius / spacing is {radius / spacing:g}: the grid would lay out "
                         f"more than {_GRID_CANDIDATES} candidate points")
    axis = np.arange(-k, k + 1, dtype=np.float64) * spacing
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    keep = norms <= radius
    coords = pts[keep]
    norms = norms[keep]
    labels = tuple(f"d{i}" for i in range(len(coords)))
    dist = _euclidean(coords)
    mass = np.full(len(coords), spacing * spacing)
    boundary = np.flatnonzero(norms > radius - spacing) if mark_boundary else None
    return FiniteMetricSpace(labels, dist, coords=coords, mass=mass, boundary=boundary)


def sphere_cap_complement(eps: float, n: int, seed: int = 0) -> FiniteMetricSpace:
    """Chordal-metric sample of the unit sphere minus a closed cap.

    The cap is centered at the north pole with chordal radius ``eps``.  The
    cap rim (the boundary circle of the remaining space) is sampled by
    explicitly placed, equally spaced points, marked as the boundary;
    interior points are uniform on the complement, kept clear of the rim so
    the marked set is exactly the points on the rim.
    """
    eps, n = _finite_positive("eps", eps), _count("n", n, 16)  # 16: rim and interior
    if eps >= 2.0:
        raise ValueError("eps must be below the sphere diameter 2")
    rng = _rng(seed)
    pole = np.array([0.0, 0.0, 1.0])
    z0 = 1.0 - eps * eps / 2.0                 # rim plane height
    rho0 = eps * math.sqrt(1.0 - eps * eps / 4.0)  # rim circle radius
    h = math.sqrt(4.0 * math.pi / n)           # area-per-point length scale
    m_rim = max(8, int(math.ceil(2.0 * math.pi * rho0 / (h / 2.0))))
    m_rim = min(m_rim, max(8, n // 3))
    th = 2.0 * math.pi * np.arange(m_rim) / m_rim
    rim = np.stack([rho0 * np.cos(th), rho0 * np.sin(th), np.full(m_rim, z0)], axis=1)

    clearance = max(h / 4.0, 0.021)
    interior = []
    need = n - m_rim
    while len(interior) < need:
        batch = rng.normal(size=(4 * max(need, 32), 3))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        chordal_pole = np.linalg.norm(batch - pole, axis=1)
        planar = np.hypot(batch[:, 0], batch[:, 1])
        rim_gap = np.hypot(planar - rho0, batch[:, 2] - z0)
        ok = (chordal_pole > eps) & (rim_gap > clearance)
        interior.extend(batch[ok][:need - len(interior)])
    coords = np.vstack([rim, np.asarray(interior).reshape(need, 3)])
    labels = tuple([f"r{i}" for i in range(m_rim)]
                   + [f"p{i}" for i in range(need)])
    dist = _euclidean(coords)
    area = 4.0 * math.pi - math.pi * eps * eps  # cap area is pi * eps^2
    mass = np.full(n, area / n)
    return FiniteMetricSpace(labels, dist, coords=coords, mass=mass,
                             boundary=range(m_rim))


def halfplane_sample(n: int, seed: int = 0, width: float = 2.0,
                     height: float = 1.0) -> FiniteMetricSpace:
    """Uniform sample of an open half-plane strip [-w/2, w/2] x (0, h]."""
    n = _count("n", n)
    _box("width and height", _finite_positive("width", width), _finite_positive("height", height))
    rng = _rng(seed)
    x = rng.uniform(-width / 2.0, width / 2.0, size=n)
    y = rng.uniform(0.0, height, size=n)
    y = np.maximum(y, 1e-12)  # keep strictly inside the open half-plane
    coords = np.stack([x, y], axis=1)
    dist = _euclidean(coords)
    labels = tuple(f"p{i}" for i in range(n))
    mass = np.full(n, width * height / n)
    return FiniteMetricSpace(labels, dist, coords=coords, mass=mass)


def random_metric(n: int, seed: int = 0, edge_density: float = 0.35) -> FiniteMetricSpace:
    """Shortest-path metric of a random weighted graph on n vertices.

    A random Hamiltonian path keeps the graph connected; extra edges appear
    with the given density.  Weights are uniform in [0.5, 2], so distances
    are strictly positive and the shortest-path closure is a metric.  The
    closure is ``warp``'s min-plus one, with ``inf`` for a missing edge.
    """
    n = _count("n", n)
    if not 0.0 <= edge_density <= 1.0:  # NaN fails too
        raise ValueError(f"edge_density must be in [0, 1], got {edge_density}")
    rng = _rng(seed)
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    if n > 1:
        perm = rng.permutation(n)
        pw = rng.uniform(0.5, 2.0, size=n - 1)
        w[perm[:-1], perm[1:]] = pw
        w[perm[1:], perm[:-1]] = pw
        extra = np.triu(rng.uniform(size=(n, n)) < edge_density, 1)  # the closure mirrors them
        ew = rng.uniform(0.5, 2.0, size=(n, n))
        keep = extra & (w == np.inf)
        w[keep] = ew[keep]
    labels = tuple(f"p{i}" for i in range(n))
    return FiniteMetricSpace(labels, _closure(w))


_KINDS = {
    "grid": euclidean_grid,
    "disk": disk_sample,
    "disk-grid": disk_grid,
    "sphere-cap": sphere_cap_complement,
    "halfplane": halfplane_sample,
    "random-metric": random_metric,
}


def generate(kind: str, **params) -> FiniteMetricSpace:
    """Dispatch a generator by kind name (the CLI entry point).

    The parameters bind to the generator's own signature, so its defaults
    are the only ones, and a parameter the kind does not take is refused.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; known: {sorted(_KINDS)}")
    return _call(f"generator {kind!r}", _KINDS[kind], **params)
