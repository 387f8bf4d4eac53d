"""Independent oracles used by the tests, and ``traced``, which measures.

Everything here is deliberately naive (plain loops, exhaustive
enumeration) and shares no code path with the package internals it
checks.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import tracemalloc

import numpy as np

from metricforge.space import METRIC_TOL


def triangle_ok(dist, tol=METRIC_TOL):
    """Exhaustive triple-loop check of the triangle inequality."""
    n = len(dist)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k] + tol:
                    return False
    return True


def metric_violations(dist, tol=METRIC_TOL):
    """Every failed metric axiom, as (axiom, witness, excess) in report order.

    Plain loops over Python floats: diagonal entries, then the upper
    triangle for symmetry and positivity, then triangle triples with the
    middle point outermost and (i, k) row-major.
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
    return out


def metric_violations_by_middle_point(dist, tol=METRIC_TOL, cap=25):
    """(total, kept) for the matrix axioms, the triangle counted per middle point.

    Numpy twin of :func:`metric_violations`, for matrices
    too large for its triple loop: ``kept`` holds the first ``cap``
    witnesses of each axiom in the same order.
    """
    d = np.asarray(dist, dtype=float)
    n = len(d)
    found = {"diagonal": [], "symmetry": [], "positivity": [], "triangle": []}
    for i in range(n):
        if abs(d[i, i]) > tol:
            found["diagonal"].append(((i,), abs(d[i, i])))
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    for i, j in zip(*np.nonzero(upper & (np.abs(d - d.T) > tol))):
        found["symmetry"].append(((int(i), int(j)), abs(d[i, j] - d[j, i])))
    for i, j in zip(*np.nonzero(upper & (d <= tol))):
        found["positivity"].append(((int(i), int(j)), tol - d[i, j]))
    total = sum(len(items) for items in found.values())
    for j in range(n):
        via = np.add.outer(d[:, j], d[j, :])
        fails = d > via + tol
        total += int(fails.sum())
        for i, k in zip(*np.nonzero(fails)):
            if len(found["triangle"]) < cap:
                found["triangle"].append(((int(i), j, int(k)), d[i, k] - via[i, k]))
    kept = [(axiom, w, float(e)) for axiom, items in found.items() for w, e in items[:cap]]
    return total, kept


def _max_nan(a, b):
    """max(a, b), but NaN when either is NaN."""
    return a if a != a or a >= b else b


def distortion_profile(kind, src, dst, mapping, n_samples, seed, exhaustive,
                       edges, gauge=None):
    """Per-tuple reference for ``qs_profile``/``qm_profile``, every field.

    Sampled mode draws all ``n_samples`` rows in one default int64
    ``rng.integers`` call and skips rows with a repeated index; exhaustive
    mode enumerates every ordered tuple and skips the same rows; the skipped
    count is the rows drawn or enumerated minus those evaluated.  Ratios are
    float64 scalars, bins come from ``bisect`` on ``edges``, and the
    attaining input of a bin is the largest input whose output equals the
    bin's max (ties included), none when that max is NaN.  An empty bin and
    a NaN read nan; an infinite max or input stays inf.  The claim of the
    gauge t -> gauge * t takes the first largest ratio, NaN ratios left out.
    """
    S = [[np.float64(x) for x in row] for row in src]
    D = [[np.float64(x) for x in row] for row in dst]
    f = [int(v) for v in mapping]
    n = len(S)
    arity = 3 if kind == "QS" else 4

    def ratio(M, t):
        if arity == 3:
            a, b, c = t
            return M[a][b] / M[a][c]
        x, y, z, w = t
        return M[x][z] * M[y][w] / (M[x][w] * M[y][z])

    if exhaustive:
        drawn = itertools.product(range(n), repeat=arity)
    else:
        drawn = np.random.default_rng(seed).integers(0, n, size=(n_samples, arity)).tolist()
    drawn = [tuple(r) for r in drawn]
    rows = [r for r in drawn if len(set(r)) == arity]
    skipped = len(drawn) - len(rows)

    nbins = len(edges) + 1
    env, env_in, counts = [-math.inf] * nbins, [-math.inf] * nbins, [0] * nbins
    worst, witness = -math.inf, None
    with np.errstate(all="ignore"):
        evals = []
        for t in rows:
            t_in, t_out = ratio(S, t), ratio(D, [f[i] for i in t])
            b = bisect.bisect_right(edges, t_in)
            counts[b] += 1
            env[b] = _max_nan(env[b], t_out)
            evals.append((t, t_in, t_out, b))
        for t, t_in, t_out, b in evals:
            if t_out == env[b]:
                env_in[b] = _max_nan(env_in[b], t_in)
        if gauge is not None and evals:
            r = [float(t_out / (gauge * t_in)) for _, t_in, t_out, _ in evals]
            defined = [i for i, v in enumerate(r) if v == v]
            k = max(defined, key=r.__getitem__, default=None)
            if k is not None and r[k] > worst:
                t, t_in, t_out, _ = evals[k]
                worst, witness = r[k], (t, float(t_in), float(t_out))

    def reported(v):
        return float(v) if v > -math.inf else math.nan

    claim = None
    if gauge is not None:
        claim = {"description": f"{float(gauge)}t",
                 "passed": witness is not None and worst <= 1.0,
                 "worst_ratio": float(worst), "worst_witness": witness}
    return {"kind": kind, "bin_edges": tuple(float(e) for e in edges),
            "envelope": tuple(reported(v) for v in env),
            "envelope_input": tuple(reported(v) for v in env_in),
            "counts": tuple(counts), "skipped_degenerate": skipped,
            "exhaustive": exhaustive, "seed": seed, "claim": claim}


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


def chain_closure(weights):
    """Min over chains of left-associated edge sums, for every pair at once.

    Unblocked Jacobi rounds ``D = min(D, min over m of D[:, m] + W[m, :])``
    from ``D = W`` to a fixpoint, then the min over both orientations: the
    matrix twin of :func:`brute_chain_min`, for inputs too large for it.
    """
    W = np.asarray(weights, dtype=float)
    D = W.copy()
    while True:
        nxt = D.copy()
        for m in range(len(W)):
            nxt = np.minimum(nxt, D[:, m, None] + W[m, :])
        if np.array_equal(nxt, D):
            return np.minimum(D, D.T)
        D = nxt


def rim_gap(coords, eps):
    """Euclidean distance from unit-sphere points to the cap rim circle.

    The cap sits at the north pole with chordal radius eps; the rim is the
    horizontal circle at height 1 - eps^2/2 with radius eps*sqrt(1-eps^2/4).
    """
    z0 = 1.0 - eps * eps / 2.0
    rho0 = eps * math.sqrt(1.0 - eps * eps / 4.0)
    planar = np.hypot(coords[:, 0], coords[:, 1])
    return np.hypot(planar - rho0, coords[:, 2] - z0)


def sample_scale_whole(dist):
    """Max nearest-neighbour distance, through a copy of the whole matrix with
    its diagonal set to ``inf``: the one-shot form of ``sample_scale``."""
    if len(dist) < 2:
        return 0.0
    d = np.array(dist, dtype=np.float64)
    np.fill_diagonal(d, np.inf)
    return float(d.min(axis=1).max())


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


def greedy_cover_count(dist, pts, radius):
    """Closed balls of ``radius`` centered at ``pts`` that a greedy cover of
    ``pts`` takes: the ball with the most uncovered points first, the lowest
    index on ties, and one ball per point no ball covers."""
    covers = np.asarray(dist)[np.ix_(pts, pts)] <= radius
    uncovered = np.ones(len(pts), dtype=bool)
    count = 0
    while uncovered.any():
        gain = (covers & uncovered[None, :]).sum(axis=1)
        best = int(np.argmax(gain))
        if gain[best] == 0:
            return count + int(uncovered.sum())
        uncovered &= ~covers[best]
        count += 1
    return count


def llc_by_components(dist, delta, grid, centers, radii):
    """(lambda1, lambda2, failures1, failures2, evaluated1, evaluated2, skipped)
    of ``llc_constants`` on a connected delta-graph, from scipy's
    ``connected_components`` of each induced subgraph.

    Points are joined when either direction is within ``delta``.  Each leg
    moves up the grid while a configuration fails; witnesses are the first
    member and the first member outside its component, at the last failing
    grid value below the result.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    D = np.asarray(dist)
    adj = csr_matrix(D <= delta)
    diam = D.max()

    def labels(allowed, members):
        idx = np.nonzero(allowed)[0]
        _, lab = connected_components(adj[idx][:, idx], directed=False)
        return lab[np.searchsorted(idx, members)]

    def leg(which):
        configs, skipped = [], 0
        for a in centers:
            for r in radii:
                if which == 2 and r > diam:
                    skipped += 1
                    continue
                members = np.nonzero(D[a] < r if which == 1 else D[a] >= r)[0]
                if members.size < 2:
                    skipped += 1
                    continue
                configs.append((int(a), float(r), members))

        def lab(a, r, members, lam):
            return labels(D[a] < lam * r if which == 1 else D[a] >= r / lam, members)

        key, failed_at_max = 0, False
        for a, r, members in configs:
            while key < len(grid) and len(set(lab(a, r, members, grid[key]))) > 1:
                key += 1
            if key == len(grid):
                failed_at_max, key = True, len(grid) - 1
        level = grid[-1] if failed_at_max else (grid[key - 1] if key > 0 else None)
        failures = []
        for a, r, members in configs if level is not None else ():
            found = lab(a, r, members, level)
            if len(failures) < 20 and len(set(found)) > 1:
                failures.append((a, r, int(members[0]), int(members[found != found[0]][0])))
        return (math.inf if failed_at_max else grid[key]), tuple(failures), len(configs), skipped

    lam1, f1, e1, s1 = leg(1)
    lam2, f2, e2, s2 = leg(2)
    return lam1, lam2, f1, f2, e1, e2, s1 + s2


def mirrored(dist):
    """``dist``'s upper triangle mirrored below a zero diagonal, signed zeros
    kept: a matrix that a space takes."""
    d = np.asarray(dist, dtype=np.float64)
    d = np.where(np.tri(len(d), dtype=bool), d.T, d)
    np.fill_diagonal(d, 0.0)
    return d


def space_json(m):
    """``json.dumps`` of a space's record, sorted keys, indent 1."""
    doc = {"points": list(m.points),
           "dist": [[float(x) for x in row] for row in m.dist]}
    if m.coords is not None:
        doc["coords"] = [[float(x) for x in row] for row in m.coords]
    if m.mass is not None:
        doc["mass"] = [float(x) for x in m.mass]
    if m.boundary is not None:
        doc["boundary"] = sorted(int(i) for i in m.boundary)
    return json.dumps(doc, sort_keys=True, indent=1)


def _refuse(token):
    raise ValueError(f"non-finite number {token}")


def space_record(text):
    """The constructor arguments of a space's JSON text, read whole by
    ``json.loads`` and converted by ``np.asarray``: the loader the streaming
    reader replaced.  It takes strings and bools for numbers, so it is an
    oracle for well-formed files only."""
    doc = json.loads(text, parse_constant=_refuse)
    points = tuple(doc["points"])

    def array(key):  # a 0-point record writes its empty matrices as []
        a = np.asarray(doc[key], dtype=np.float64)
        return a.reshape(0, 0) if key != "mass" and not points and a.shape == (0,) else a

    return {"points": points, "dist": array("dist"), "boundary": doc.get("boundary"),
            **{k: array(k) for k in ("coords", "mass") if k in doc}}


def traced(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
