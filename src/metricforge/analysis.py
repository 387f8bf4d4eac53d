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

from .space import (_ROW_BLOCK, FiniteMetricSpace, _at_least_one, _count, _finite_positive,
                    _indices, _rng, sample_scale)

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

    ``delta`` as given, which must be finite, positive and, on two points or
    more, below the diameter (at which every pair is joined), or
    :func:`default_delta`; ``radii`` as given, each finite and positive, or
    ``count`` (``n_radii``, at least 1) radii from :func:`default_radii`.
    Every estimator resolves its scales here, so none evaluates a ball of
    NaN, infinite or nonpositive radius, nor joins points at such a scale.
    """
    count = _count("n_radii", count)
    if delta is None:
        delta = default_delta(m)
    elif (delta := _finite_positive("delta", delta)) >= m.diam() and m.n > 1:
        raise ValueError(f"delta must be below the diameter {m.diam()}, got {delta}")
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


def _pack(mask: np.ndarray) -> np.ndarray:
    """The rows of a boolean array as 64-bit words, zero-padded; see :func:`_unpack`."""
    words = np.zeros((len(mask), -(-mask.shape[1] // 64)), dtype=np.uint64)
    bits = np.packbits(mask, axis=1, bitorder="little")
    words.view(np.uint8)[:, :bits.shape[1]] = bits
    return words


def _unpack(words: np.ndarray) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")


def _batch(rows: np.ndarray) -> int:
    """Rows per batch against n packed ``rows``, so that (batch, n, words) holds n x n words."""
    return max(1, len(rows) // max(1, rows.shape[1]))


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
    With no radius to evaluate, the diameter is the one radius.  The
    options are checked on every space, one point included.
    """
    _, radii = _scales(m, None, radii)
    if not radii and m.diam() > 0:
        radii = (m.diam(),)
    cs = _pick_centers(m, centers, n_centers, seed)
    D = m.dist
    best = 1
    for r in radii:
        balls = _pack(D <= r / 2.0)  # row i: the closed ball at i
        words = np.ascontiguousarray(balls.T)  # word w of every ball, in one row
        step = _batch(balls)
        for lo in range(0, len(cs), step):  # the centers of a batch run together
            inside = D[cs[lo:lo + step]] < r
            left, count = _pack(inside), np.zeros(len(inside), dtype=np.intp)
            while (live := np.flatnonzero(left.any(axis=1))).size:
                now, gain = left[live], np.zeros((live.size, len(D)), dtype=np.intp)
                for w, word in enumerate(words):  # (centers x n) temporaries, one word at a time
                    gain += np.bitwise_count(word & now[:, w, None])
                gain[~inside[live]] = -1  # argmax takes the lowest index on ties
                top, gained = np.argmax(gain, axis=1), gain.max(axis=1) > 0
                # With no gain left, each uncovered point counts once.
                count[live] += np.where(gained, 1, np.bitwise_count(now).sum(1, dtype=np.intp))
                left[live] = np.where(gained[:, None], now & ~balls[top], 0)
            best = max(best, int(count.max()))
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


def _touched_cells(cells: np.ndarray, members) -> int:
    """How many distinct cells of ``cells`` (see :func:`_first_fit_cells`) the
    points ``members``, indices or a mask, fall in."""
    return len(np.unique(cells[members]))


def hausdorff_premeasure(m: FiniteMetricSpace, S, Q: float, eps: float) -> float:
    """Net-cover bound on the radius-power cover sum of S.

    The value is (distinct first-fit net cells touching S) * eps^Q.  Each
    touched cell center lies within eps of S, so the corresponding closed
    balls are centered in the eps-neighborhood of S and cover it.  Because
    the net is built from the ambient space alone, the estimate is monotone
    in S and subadditive over unions, like the quantity it bounds.
    """
    scale = _power("eps", _finite_positive("eps", eps), _finite_positive("Q", Q))
    idx = np.asarray(_indices("target set", S, m.n), dtype=int)
    if idx.size == 0:
        raise ValueError("target set must be nonempty")
    return _touched_cells(_first_fit_cells(m, eps), idx) * scale


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
    infinite: bool                # K_hat is inf: some ball had zero measure
    seed: int
    measure: str                  # "mass" or "premeasure"
    eps: float | None = None


def regularity_constant(m: FiniteMetricSpace, Q: float, radii=None, centers=None,
                        n_centers: int = 32, seed: int = 0, eps: float | None = None,
                        with_doubling: bool = True) -> RegularityReport:
    """Estimate the two-sided ball-measure scaling constant.

    The measure proxy is the explicit mass field when present (generated
    spaces know their own density); passing ``eps`` switches to the greedy
    eps-cover pre-measure.  A space without mass needs ``eps``: without it,
    this raises ``ValueError``.  K_hat is the max over evaluated (a, r) of
    max(mu(B̄(a,r)) / r^Q, r^Q / mu(B̄(a,r))).  Radii above the diameter
    are left out.
    """
    _finite_positive("Q", Q)
    use_premeasure = eps is not None
    if use_premeasure:  # hausdorff_premeasure of each ball, its checks and net made once
        scale = _power("eps", _finite_positive("eps", eps), Q)
    elif m.mass is None:
        raise ValueError("regularity needs point masses or an eps cover scale")
    _, radii = _scales(m, None, radii)
    powers = {r: _power("radii", r, Q) for r in radii}
    diam = m.diam()
    fits = [r for r in radii if r <= diam]
    cs = _pick_centers(m, centers, n_centers, seed)
    cells = _first_fit_cells(m, eps) if use_premeasure else None
    k_hat = 1.0
    worst = None  # the first ball that attains k_hat
    for a in cs:
        row = m.dist[a]
        for r in fits:
            members = row <= r
            if use_premeasure:
                mu = _touched_cells(cells, members) * scale
            else:
                mu = float(m.mass[members].sum())
            ratio = max(mu / powers[r], powers[r] / mu) if mu > 0.0 else math.inf
            if ratio > k_hat:
                k_hat = ratio
                worst = (int(a), float(r), float(ratio))
    m_hat = doubling_constant(m, radii=radii or None, centers=cs, seed=seed) \
        if with_doubling else 0
    return RegularityReport(
        Q=float(Q),
        K_hat=float(k_hat),
        M_hat=int(m_hat),
        radii=radii,
        centers=tuple(int(c) for c in cs),
        worst_witness=worst,
        evaluated=len(cs) * len(fits),
        infinite=math.isinf(k_hat),
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
    failing grid value below the reported constant.  ``usable`` says that
    the delta-graph is connected and that each leg evaluated a configuration
    (``evaluated1`` and ``evaluated2`` above 0).  Otherwise the constants
    bound nothing: a disconnected graph or no radius reports inf, and a
    leg that evaluated no configuration reports ``grid[0]``.
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


def _reach(adj: np.ndarray, allowed: np.ndarray, starts) -> np.ndarray:
    """Packed rows of the points each start joins through its row of ``allowed``:
    one breadth-first search, each step ORing the adjacency rows of a frontier,
    gathered at most 4n at a time (a row cut between two is ORed twice)."""
    reach = _pack(np.arange(len(adj)) == np.asarray(starts)[:, None])
    front, chunk = reach.copy(), 4 * len(adj)
    while (live := np.flatnonzero(front.any(axis=1))).size:
        row, col = np.nonzero(_unpack(front[live]))
        grown = np.zeros((len(live), adj.shape[1]), dtype=np.uint64)
        for s in range(0, len(col), chunk):
            r = row[s:s + chunk]
            heads = np.flatnonzero(np.diff(r, prepend=-1))  # each row's first bit
            grown[r[heads]] |= np.bitwise_or.reduceat(adj[col[s:s + chunk]], heads)
        front[:] = 0
        front[live] = grown & allowed[live] & ~reach[live]
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
    adj = np.empty((m.n, -(-m.n // 64)), dtype=np.uint64)  # _pack's words, a band at a time
    for band in (slice(r0, r0 + _ROW_BLOCK) for r0 in range(0, m.n, _ROW_BLOCK)):
        adj[band] = _pack((D[band] <= delta) | (D[:, band].T <= delta))  # either direction joins
    cs = _pick_centers(m, centers, n_centers, seed)
    whole = _pack(np.ones((1, m.n), dtype=bool))
    joined = radii and (m.n == 0 or np.array_equal(_reach(adj, whole, [0]), whole))
    step = _batch(adj)  # configurations per search

    def chunks(k):  # the indices range(k), step at a time
        return (np.arange(lo, min(lo + step, k)) for lo in range(0, k, step))

    def run_leg(leg):
        def side(rows, bound):
            return rows < bound[:, None] if leg == 1 else rows >= bound[:, None]

        # (center, radius) order; above the diameter, B(a, r) has no complement.
        a, r = np.repeat(cs, len(radii)), np.tile(np.asarray(radii, dtype=float), len(cs))
        size = np.concatenate([side(D[a[i]], r[i]).sum(axis=1) for i in chunks(len(a))]
                              or [np.zeros(0, dtype=np.intp)])
        a, r = a[size >= 2], r[size >= 2]

        def missed(idx, lam):
            """First members, and the packed members they do not reach at lam."""
            rows = D[a[idx]]
            members = side(rows, r[idx])
            start, members = np.argmax(members, axis=1), _pack(members)
            allowed = _pack(side(rows, lam * r[idx] if leg == 1 else r[idx] / lam))
            del rows  # the search runs without the distance rows
            return start, members & ~_reach(adj, allowed, start)

        # Passing is monotone in λ, so the key only rises: each batch, in
        # (center, radius) order, is tested at the current key, and those
        # that fail are tested again a grid value up.  A failure at the
        # grid's maximum makes λ infinite, and the scan stops there.
        batches, key, last = list(chunks(len(a))), 0, None
        for b, idx in enumerate(batches):
            while key < len(grid) and (idx := idx[missed(idx, grid[key])[1].any(axis=1)]).size:
                key, last = key + 1, (b, idx)  # the batch's failures at grid[key - 1]
        # Witnesses at grid[key - 1], the last failing value: the first member and the first
        # it does not reach.  Batches before the one that last raised the key pass there.
        failures = []
        for idx in [last[1]] + batches[last[0] + 1:] if key else ():
            start, miss = missed(idx, grid[key - 1])
            bad = miss.any(axis=1)
            failures += zip(idx[bad], start[bad], np.argmax(_unpack(miss[bad]), axis=1))
            if len(failures) >= 20:
                break
        failures = tuple((int(a[i]), float(r[i]), int(s), int(f)) for i, s, f in failures[:20])
        value = grid[key] if key < len(grid) else math.inf
        return value, failures, len(a), int((size < 2).sum())

    (lambda1, failures1, ev1, sk1), (lambda2, failures2, ev2, sk2) = (
        (run_leg(1), run_leg(2)) if joined else ((math.inf, (), 0, 0),) * 2)
    return LLCReport(
        lambda1=lambda1, lambda2=lambda2, delta=float(delta), grid=grid,
        failures1=failures1, failures2=failures2, usable=ev1 > 0 and ev2 > 0,
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
