"""Boundary doubling: two copies of a marked space glued along the marks.

Points of the doubled space are pairs [x, side]; boundary points are shared
between the sides and appear once.  Same-side distances are inherited, and
cross-side distances route through the cheapest boundary point:

    d'([x,i], [y,j]) = d(x, y)                        if i == j
                       min_z in ∂X  d(x,z) + d(z,y)   otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import FiniteMetricSpace, _min_plus_into


@dataclass(frozen=True, eq=False)
class DoubledSpace:
    """Two glued copies of a boundary-marked base space.

    ``base_index`` maps doubled indices back to base indices; ``side`` is 0
    for shared boundary points, else 1 or 2.
    """

    base: FiniteMetricSpace
    doubled: FiniteMetricSpace
    base_index: np.ndarray
    side: np.ndarray
    rim: tuple  # doubled indices of the shared boundary points

    def __post_init__(self):
        for name in ("base_index", "side"):
            arr = np.asarray(getattr(self, name), dtype=int)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def double(m: FiniteMetricSpace) -> DoubledSpace:
    """Glue two copies of ``m`` along its marked boundary.

    Shared boundary points are constructed once (index order preserved), so
    the result has 2n - |∂X| points and no zero-distance duplicates.  A
    space whose boundary is everything is rejected: doubling it would be the
    identity, which almost certainly means mislabeled input.
    """
    if m.boundary is None or len(m.boundary) == 0:
        raise ValueError("double requires a nonempty marked boundary")
    if len(m.boundary) == m.n:
        raise ValueError("boundary covers every point; doubling would be degenerate")
    n = m.n
    bd = np.asarray(sorted(m.boundary), dtype=int)
    nonbd = np.asarray([i for i in range(n) if i not in m.boundary], dtype=int)
    D = m.dist

    # Cross block for one side-1 row x against all side-2 points (nonbd):
    # a boundary row equals its base row exactly (z = x attains the min and
    # no detour can beat it); other rows minimize over the marked points.
    cross = np.full((n, len(nonbd)), np.inf)
    _min_plus_into(cross, D[:, bd], D[np.ix_(bd, nonbd)])
    cross[bd] = D[np.ix_(bd, nonbd)]

    size = 2 * n - len(bd)
    full = np.empty((size, size))
    full[:n, :n] = D
    full[:n, n:] = cross
    full[n:, :n] = cross.T
    full[n:, n:] = D[np.ix_(nonbd, nonbd)]

    bd_set = set(int(i) for i in bd)
    labels = tuple(
        [m.points[i] if i in bd_set else f"{m.points[i]}#1" for i in range(n)]
        + [f"{m.points[i]}#2" for i in nonbd]
    )
    base_index = np.concatenate([np.arange(n), nonbd])
    side = np.concatenate([
        np.where(np.isin(np.arange(n), bd), 0, 1),
        np.full(len(nonbd), 2),
    ])
    mass = None
    if m.mass is not None:
        # The shared rim carries its weight once; both interiors keep theirs.
        mass = np.concatenate([m.mass, m.mass[nonbd]])
    doubled = FiniteMetricSpace(labels, full, coords=None, mass=mass, boundary=None)
    rim = tuple(int(i) for i in bd)
    return DoubledSpace(base=m, doubled=doubled, base_index=base_index,
                        side=side, rim=rim)


def project(ds: DoubledSpace, q: int) -> int:
    """Forget the side of a doubled point; never increases distance."""
    if not (0 <= q < ds.doubled.n):
        raise ValueError(f"index {q} out of range")
    return int(ds.base_index[q])


def diam_ratio(ds: DoubledSpace) -> float:
    """diam(X) / diam(∂X) of the base space; needs at least 2 marked points."""
    bd = np.asarray(sorted(ds.base.boundary), dtype=int)
    if len(bd) < 2:
        raise ValueError("diameter ratio undefined for a singleton boundary")
    bdiam = float(ds.base.dist[np.ix_(bd, bd)].max())
    if bdiam == 0.0:
        raise ValueError("marked boundary has zero diameter")
    return float(ds.base.dist.max()) / bdiam
