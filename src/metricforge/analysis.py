"""Quantitative geometry estimators on finite samples.

All constants reported here are greedy, grid-resolved, one-sided bounds:
greedy covers upper-bound both the scaled Hausdorff pre-measure and the
doubling count, and connectivity constants are the smallest grid value at
which every sampled configuration passes.  Everything is deterministic
given (space, seed, grids).

Continua have no finite counterpart; connected subsets of the
delta-proximity graph (points adjacent iff within delta) stand in for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import (FiniteMetricSpace, _at_least_one, _count, _finite_positive, _indices,
                    _rng, sample_scale)

DELTA_FACTOR = 2.5      # default proximity scale, in units of sample resolution
RADII_FLOOR = 3.0       # radii below RADII_FLOOR * delta are discretization noise
DEFAULT_LAMBDA_GRID = tuple(2.0 ** (k / 4.0) for k in range(17))  # 1 .. 16


def default_delta(m: FiniteMetricSpace) -> float:
    """Proximity scale: DELTA_FACTOR times the max nearest-neighbor gap."""
    return DELTA_FACTOR * sample_scale(m)


def default_radii(m: FiniteMetricSpace, delta: float, count: int = 8) -> tuple:
    """Log-spaced radii inside [RADII_FLOOR * delta, diam]; empty if that
    window is void (space too sparse for the requested scale)."""
    lo = RADII_FLOOR * delta
    hi = m.diam()
    if hi <= 0 or lo <= 0 or lo >= hi:
        return ()
    return tuple(float(r) for r in np.geomspace(lo, hi, count))


def _scales(m: FiniteMetricSpace, delta: float | None, radii, count: int = 8):
    """``(delta, radii)``: the proximity scale and the radii an estimator uses.

    ``delta`` as given, which must be finite and positive, or
    :func:`default_delta`; ``radii`` as given, each finite and positive, or
    ``count`` (``n_radii``, at least 1) radii from :func:`default_radii`.
    Every estimator resolves its scales here, so none evaluates a ball of
    NaN, infinite or nonpositive radius, nor joins points at such a scale.
    """
    count = _count("n_radii", count)
    delta = default_delta(m) if delta is None else _finite_positive("delta", delta)
    if radii is None:
        return delta, default_radii(m, delta, count)
    return delta, tuple(_finite_positive("radii", r) for r in radii)


def _grid(lambda_grid) -> tuple:
    """The λ grid as floats, or the default grid for None.  The scan stops at
    the first passing value, so the grid must ascend from at least 1."""
    grid = tuple(float(v) for v in (DEFAULT_LAMBDA_GRID if lambda_grid is None
                                    else lambda_grid))
    if not (grid and 1.0 <= grid[0] and grid[-1] < math.inf  # NaN fails too
            and all(a < b for a, b in zip(grid, grid[1:]))):
        raise ValueError("lambda grid values must be finite and at least 1.0, "
                         "in ascending order")
    return grid


def _pick_centers(m, centers, n_centers, seed):
    rng, n_centers = _rng(seed), _count("n_centers", n_centers)
    if centers is not None:
        return np.asarray(_indices("centers", centers, m.n), dtype=int)
    return np.sort(rng.choice(m.n, size=min(m.n, n_centers), replace=False))


def _power(name: str, base: float, Q: float) -> float:
    """``base ** Q``; raises, naming ``name`` and ``Q``, unless it is finite and positive."""
    try:
        power = base ** Q
    except OverflowError:
        power = math.inf
    return _finite_positive(f"{name} ** Q, with {name} {base} and Q {Q},", power)


# ---------------------------------------------------------------------------
# Doubling constant
# ---------------------------------------------------------------------------

def doubling_constant(m: FiniteMetricSpace, radii=None, centers=None,
                      n_centers: int = 32, seed: int = 0) -> int:
    """Greedy upper bound on the doubling constant over sampled balls.

    For each sampled (a, r), counts the closed (r/2)-balls a greedy cover
    needs for B(a, r).  Covering balls are closed and centered inside the
    ball: on gridded samples, open balls drop entire rings of points lying
    at exactly-representable distances, inflating the count by a
    discretization artifact rather than by geometry.  Each step takes the
    ball covering the most uncovered points (the lowest index on ties), and
    points no ball covers count once each.  Gains are exact popcounts.
    With no radius to evaluate, the diameter is the one radius.
    """
    _, radii = _scales(m, None, radii)
    if m.n == 1:
        return 1
    if not radii and m.diam() > 0:
        radii = (m.diam(),)
    cs = _pick_centers(m, centers, n_centers, seed)
    D = m.dist
    best = 1
    for r in radii:
        rows = np.packbits(D <= r / 2.0, axis=1)  # row i: the closed ball at i
        for a in cs:
            inside = D[a] < r
            balls = rows[inside]
            left = np.packbits(inside)
            count = 0
            while left.any():
                gain = np.bitwise_count(balls & left).sum(axis=1, dtype=np.intp)
                top = int(np.argmax(gain))  # argmax takes the lowest index on ties
                if gain[top] == 0:
                    count += int(np.bitwise_count(left).sum())
                    break
                left &= ~balls[top]
                count += 1
            best = max(best, count)
    return int(best)


# ---------------------------------------------------------------------------
# Hausdorff pre-measure (scaled greedy cover)
# ---------------------------------------------------------------------------

def _first_fit_cells(m: FiniteMetricSpace, eps: float) -> np.ndarray:
    """Assign each point to a cell of a first-fit eps-net of the space.

    Net centers are kept in index order unless already covered by a kept
    center; every point then belongs to the first kept center whose closed
    eps-ball contains it.  The assignment depends only on (space, eps).
    """
    n = m.n
    covered = np.zeros(n, dtype=bool)
    kept = []
    for c in range(n):
        if not covered[c]:
            kept.append(c)
            covered |= m.dist[c] <= eps
    within = m.dist[np.asarray(kept, dtype=int)] <= eps
    return np.asarray(kept, dtype=int)[np.argmax(within, axis=0)]


def hausdorff_premeasure(m: FiniteMetricSpace, S, Q: float, eps: float,
                         cells: np.ndarray | None = None) -> float:
    """Net-cover bound on the radius-power cover sum of S.

    The value is (distinct first-fit net cells touching S) * eps^Q.  Each
    touched cell center lies within eps of S, so the corresponding closed
    balls are centered in the eps-neighborhood of S and cover it.  Because
    the net is built from the ambient space alone, the estimate is monotone
    in S and subadditive over unions, like the quantity it bounds.
    ``cells`` lets callers evaluating many subsets reuse the assignment
    from :func:`_first_fit_cells`.
    """
    scale = _power("eps", _finite_positive("eps", eps), _finite_positive("Q", Q))
    idx = np.asarray(_indices("target set", S, m.n), dtype=int)
    if idx.size == 0:
        raise ValueError("target set must be nonempty")
    if cells is None:
        cells = _first_fit_cells(m, eps)
    return len(np.unique(cells[idx])) * scale


# ---------------------------------------------------------------------------
# Regularity constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    """Scaling comparison of ball measure against radius^Q."""

    Q: float
    K_hat: float
    M_hat: int
    radii: tuple
    centers: tuple
    worst_witness: tuple | None   # (center, radius, ratio)
    evaluated: int
    infinite: bool                # some evaluated ball had zero measure
    seed: int
    measure: str                  # "mass" or "premeasure"
    eps: float | None = None


def regularity_constant(m: FiniteMetricSpace, Q: float, radii=None, centers=None,
                        n_centers: int = 32, seed: int = 0, eps: float | None = None,
                        with_doubling: bool = True) -> RegularityReport:
    """Estimate the two-sided ball-measure scaling constant.

    The measure proxy is the explicit mass field when present (generated
    spaces know their own density); passing ``eps`` switches to the greedy
    eps-cover pre-measure, which is also the fallback for spaces without
    mass.  K_hat is the max over evaluated (a, r) of
    max(mu(B̄(a,r)) / r^Q, r^Q / mu(B̄(a,r))).  Radii above the diameter
    are left out.
    """
    _finite_positive("Q", Q)
    use_premeasure = eps is not None
    if use_premeasure:
        _power("eps", _finite_positive("eps", eps), Q)
    elif m.mass is None:
        raise ValueError("regularity needs point masses or an eps cover scale")
    _, radii = _scales(m, None, radii)
    powers = {r: _power("radii", r, Q) for r in radii}
    diam = m.diam()
    fits = [r for r in radii if r <= diam]
    cs = _pick_centers(m, centers, n_centers, seed)
    cells = _first_fit_cells(m, eps) if use_premeasure else None
    k_hat = 1.0
    worst = None
    evaluated = 0
    infinite = False
    for a in cs:
        row = m.dist[a]
        for r in fits:
            members = row <= r
            if use_premeasure:
                mu = hausdorff_premeasure(m, np.nonzero(members)[0], Q, eps, cells=cells)
            else:
                mu = float(m.mass[members].sum())
            evaluated += 1
            if mu <= 0.0:
                infinite = True
                worst = (int(a), float(r), math.inf)
                continue
            ratio = max(mu / powers[r], powers[r] / mu)
            if ratio > k_hat:
                k_hat = ratio
                worst = (int(a), float(r), float(ratio))
    m_hat = doubling_constant(m, radii=radii or None, centers=cs, seed=seed) \
        if with_doubling else 0
    return RegularityReport(
        Q=float(Q),
        K_hat=math.inf if infinite else float(k_hat),
        M_hat=int(m_hat),
        radii=radii,
        centers=tuple(int(c) for c in cs),
        worst_witness=worst,
        evaluated=evaluated,
        infinite=infinite,
        seed=seed,
        measure="premeasure" if use_premeasure else "mass",
        eps=eps,
    )


# ---------------------------------------------------------------------------
# Linear local connectivity on the delta-proximity graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LLCReport:
    """Grid-resolved join-inside-inflated-ball constants.

    ``lambda1``/``lambda2`` are the smallest grid values at which every
    sampled configuration passes (inf when even the grid max fails);
    ``failures1``/``failures2`` hold witnesses (a, r, x, y) at the last
    failing grid value below the reported constant.
    """

    lambda1: float
    lambda2: float
    delta: float
    grid: tuple
    failures1: tuple
    failures2: tuple
    usable: bool
    evaluated1: int
    evaluated2: int
    skipped: int
    centers: tuple
    radii: tuple
    seed: int


def _reach(adj: np.ndarray, allowed: np.ndarray, start: int) -> np.ndarray:
    """Mask of the points joined to ``start`` by a path through ``allowed``."""
    reach = np.zeros(len(adj), dtype=bool)
    reach[start] = True
    front = reach
    while front.any():
        front = adj[front].any(axis=0) & allowed & ~reach
        reach |= front
    return reach


def llc_constants(m: FiniteMetricSpace, delta: float | None = None,
                  lambda_grid=None, centers=None, radii=None,
                  n_centers: int = 32, n_radii: int = 8,
                  seed: int = 0) -> LLCReport:
    """Estimate join-inside (lambda1) and join-outside (lambda2) constants.

    For each sampled center a and radius r, lambda1 asks that all points of
    B(a, r) lie in one component of the delta-graph restricted to B(a, λr);
    lambda2 asks the same of the complement of B(a, r) inside the complement
    of B(a, r/λ).  Configurations with r above the diameter are vacuous for
    lambda2 and skipped; both estimates are monotone along the grid.
    """
    delta, radii = _scales(m, delta, radii, n_radii)
    grid = _grid(lambda_grid)
    D = m.dist
    adj = (D <= delta) | (D <= delta).T  # undirected: either direction joins
    cs = _pick_centers(m, centers, n_centers, seed)
    if not radii or (m.n and not _reach(adj, np.ones(m.n, dtype=bool), 0).all()):
        return LLCReport(math.inf, math.inf, float(delta), grid, (), (),
                         usable=False, evaluated1=0, evaluated2=0, skipped=0,
                         centers=tuple(int(c) for c in cs), radii=radii, seed=seed)

    def run_leg(leg):
        key = 0  # current grid candidate index
        failed_at_max = False
        skipped = 0
        configs = []
        for a in cs:
            for r in radii:
                # Above the diameter, the complement of B(a, r) is empty.
                members = np.flatnonzero(D[a] < r if leg == 1 else D[a] >= r)
                if members.size < 2:
                    skipped += 1
                else:
                    configs.append((int(a), float(r), members))

        def reached(a, r, members, lam):
            """Which members the first one joins inside the inflated ball."""
            allowed = D[a] < lam * r if leg == 1 else D[a] >= r / lam
            return _reach(adj, allowed, members[0])[members]

        for a, r, members in configs:
            while key < len(grid) and not reached(a, r, members, grid[key]).all():
                key += 1
            if key == len(grid):
                failed_at_max = True
                key = len(grid) - 1  # keep scanning for the worst witnesses

        value = math.inf if failed_at_max else grid[key]
        # Witnesses at the last failing grid value below the result: the
        # first member and the first member it does not reach.
        witness_level = grid[-1] if failed_at_max else (grid[key - 1] if key > 0 else None)
        failures = []
        if witness_level is not None:
            for a, r, members in configs:
                if len(failures) >= 20:
                    break
                hit = reached(a, r, members, witness_level)
                if not hit.all():
                    failures.append((a, r, int(members[0]), int(members[~hit][0])))
        return value, tuple(failures), len(configs), skipped

    lambda1, failures1, ev1, sk1 = run_leg(1)
    lambda2, failures2, ev2, sk2 = run_leg(2)
    return LLCReport(
        lambda1=lambda1, lambda2=lambda2, delta=float(delta), grid=grid,
        failures1=failures1, failures2=failures2, usable=True,
        evaluated1=ev1, evaluated2=ev2, skipped=sk1 + sk2,
        centers=tuple(int(c) for c in cs), radii=radii, seed=seed,
    )


# ---------------------------------------------------------------------------
# Quasicircle criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasicircleReport:
    """Doubling + connectivity screen for a claimed closed-curve sample.

    The caller asserts the sample traces a closed curve; that claim is not
    verified topologically.  An open arc passes the join-inside leg with a
    small constant, so the join-outside leg is reported too: a gap in the
    curve makes lambda2 blow up, with witnesses at the gap.
    """

    m_hat: int
    lambda1: float
    lambda2: float
    delta: float
    passed: bool
    degenerate: bool
    usable: bool
    failures: tuple


def quasicircle_check(m: FiniteMetricSpace, max_lambda: float = 2.0,
                      max_doubling: int = 8, delta: float | None = None,
                      lambda_grid=None, centers=None, radii=None,
                      n_centers: int = 48, n_radii: int = 8,
                      seed: int = 0) -> QuasicircleReport:
    """Screen a closed-curve sample for quasicircle behavior."""
    delta, radii = _scales(m, delta, radii, n_radii)
    grid = _grid(lambda_grid)
    _at_least_one("max_lambda", max_lambda)
    _at_least_one("max_doubling", max_doubling)
    if m.n < 3:
        return QuasicircleReport(0, math.inf, math.inf, 0.0, passed=False,
                                 degenerate=True, usable=False, failures=())
    llc = llc_constants(m, delta=delta, lambda_grid=grid,
                        centers=centers, radii=radii, n_centers=n_centers, seed=seed)
    m_hat = doubling_constant(m, centers=llc.centers, radii=llc.radii or None,
                              seed=seed)
    passed = (llc.usable and llc.lambda1 <= max_lambda
              and llc.lambda2 <= max_lambda and m_hat <= max_doubling)
    return QuasicircleReport(
        m_hat=m_hat, lambda1=llc.lambda1, lambda2=llc.lambda2,
        delta=float(delta), passed=bool(passed), degenerate=False,
        usable=llc.usable, failures=llc.failures1 + llc.failures2,
    )
