"""Independent oracles used by the tests.

Everything here is deliberately naive (plain loops, exhaustive
enumeration) and shares no code path with the package internals it
checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def triangle_ok(dist, tol=1e-9):
    """Exhaustive triple-loop check of the triangle inequality."""
    n = len(dist)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k] + tol:
                    return False
    return True


def metric_violations(dist, tol=1e-9, mass=None):
    """Every failed metric axiom, as (axiom, witness, excess) in report order.

    Plain loops over Python floats: diagonal entries, then the upper
    triangle for symmetry and positivity, then triangle triples with the
    middle point outermost and (i, k) row-major, then negative masses.
    """
    d = [[float(x) for x in row] for row in dist]
    n = len(d)
    out = []
    for i in range(n):
        if abs(d[i][i]) > tol:
            out.append(("diagonal", (i,), abs(d[i][i])))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i][j] - d[j][i]) > tol:
                out.append(("symmetry", (i, j), abs(d[i][j] - d[j][i])))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] <= tol:
                out.append(("positivity", (i, j), tol - d[i][j]))
    for j in range(n):
        for i in range(n):
            for k in range(n):
                through = d[i][j] + d[j][k]
                if d[i][k] > through + tol:
                    out.append(("triangle", (i, j, k), d[i][k] - through))
    for i, w in enumerate([] if mass is None else mass):
        if w < 0:
            out.append(("mass", (i,), -float(w)))
    return out


def brute_chain_min(weights, a, b):
    """Min over simple chains between a and b of left-associated edge sums.

    Both orientations are enumerated, matching a symmetrized shortest-path
    matrix bit for bit.
    """
    n = weights.shape[0]
    others = [v for v in range(n) if v not in (a, b)]
    best = math.inf
    for src, dst in ((a, b), (b, a)):
        for k in range(len(others) + 1):
            for mid in itertools.permutations(others, k):
                path = (src,) + mid + (dst,)
                acc = 0.0
                for u, v in zip(path, path[1:]):
                    acc = acc + weights[u, v]
                if acc < best:
                    best = acc
    return best


def cover_is_valid(dist, target, radii_by_index, centers, kept_radii):
    """Set-level check of the disjoint-core / 5r-coverage contract.

    Returns (cores_disjoint, covers_inputs): the kept open cores share no
    point, and every point of any input ball lies in some kept closed
    5r-ball.
    """
    n = len(dist)
    cores = []
    for c, r in zip(centers, kept_radii):
        cores.append({x for x in range(n) if dist[c][x] < r})
    disjoint = True
    for s1, s2 in itertools.combinations(cores, 2):
        if s1 & s2:
            disjoint = False
    input_union = set()
    for t in target:
        r = radii_by_index[t]
        input_union |= {x for x in range(n) if dist[t][x] < r}
    covered = set()
    for c, r in zip(centers, kept_radii):
        covered |= {x for x in range(n) if dist[c][x] <= 5.0 * r}
    return disjoint, input_union <= covered


def rim_gap(coords, eps):
    """Euclidean distance from unit-sphere points to the cap rim circle.

    The cap sits at the north pole with chordal radius eps; the rim is the
    horizontal circle at height 1 - eps^2/2 with radius eps*sqrt(1-eps^2/4).
    """
    z0 = 1.0 - eps * eps / 2.0
    rho0 = eps * math.sqrt(1.0 - eps * eps / 4.0)
    planar = np.hypot(coords[:, 0], coords[:, 1])
    return np.hypot(planar - rho0, coords[:, 2] - z0)


def covering_radius_naive(dist, subset):
    subset = list(subset)
    worst = 0.0
    for x in range(len(dist)):
        worst = max(worst, min(dist[x][s] for s in subset))
    return worst


def component_of(adjacency, allowed, seed):
    """BFS component of ``seed`` in the graph restricted to ``allowed``."""
    allowed = set(allowed)
    seen = {seed}
    queue = [seed]
    while queue:
        u = queue.pop()
        for v in np.nonzero(adjacency[u])[0]:
            v = int(v)
            if v in allowed and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen
