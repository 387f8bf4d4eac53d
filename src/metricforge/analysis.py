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


def _grid(lambda_max: float) -> tuple:
    """The λ grid: ``2 ** (k / 4)`` for k = 0, 1, ... up to the first value
    at or above ``lambda_max``, which must be finite, at least 1 and at most
    ``2 ** (4095 / 4)``, about 1.51e308: the next grid value overflows."""
    lambda_max = _finite_positive("lambda_max", lambda_max)
    _at_least_one("lambda_max", lambda_max)
    if lambda_max > 2.0 ** (4095 / 4.0):
        raise ValueError(f"lambda_max must be at most 2 ** (4095 / 4), got {lambda_max}")
    grid = [1.0]
    while grid[-1] < lambda_max:
        grid.append(2.0 ** (len(grid) / 4.0))
    return tuple(grid)


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


def _balls(D: np.ndarray, radius: float) -> np.ndarray:
    """``_pack(D <= radius)``, row i the closed ball at i, a band of rows at a time."""
    words = np.empty((len(D), -(-len(D) // 64)), dtype=np.uint64)
    for band in (slice(r0, r0 + _ROW_BLOCK) for r0 in range(0, len(D), _ROW_BLOCK)):
        words[band] = _pack(D[band] <= radius)
    return words


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
    ball covering the most uncovered points (the lowest index on ties): an
    uncovered point of B(a, r) covers itself (``D[x, x]`` is 0), so every
    step covers at least one.  Gains are exact popcounts, counted in int32
    (a gain is at most n).  Each radius's balls are packed into words a band
    of rows at a time, with no n x n boolean.
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
        balls = _balls(D, r / 2.0)
        words = np.ascontiguousarray(balls.T)  # word w of every ball, in one row
        step = _batch(balls)
        for lo in range(0, len(cs), step):  # the centers of a batch run together
            inside = D[cs[lo:lo + step]] < r
            left, count = _pack(inside), np.zeros(len(inside), dtype=np.intp)
            while (live := np.flatnonzero(left.any(axis=1))).size:
                now, gain = left[live], np.zeros((live.size, len(D)), dtype=np.int32)
                for w, word in enumerate(words):  # (centers x n) temporaries, one word at a time
                    gain += np.bitwise_count(word & now[:, w, None])
                gain[~inside[live]] = -1  # argmax takes the lowest index on ties
                count[live] += 1
                left[live] = now & ~balls[np.argmax(gain, axis=1)]
            best = max(best, int(count.max()))
    return int(best)


# ---------------------------------------------------------------------------
# The eps measure of regularity_constant: net cells touched, times eps^Q
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
    spaces know their own density); passing ``eps`` switches to the cells
    of a first-fit eps-net a ball touches, times eps^Q.  A space without
    mass needs ``eps``: without it, this raises ``ValueError``.  K_hat is
    the max over evaluated (a, r) of
    max(mu(B̄(a,r)) / r^Q, r^Q / mu(B̄(a,r))).  Radii above the diameter
    are left out.
    """
    _finite_positive("Q", Q)
    use_premeasure = eps is not None
    if use_premeasure:  # a ball's measure: the net cells it touches, times eps^Q
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
                mu = len(np.unique(cells[members])) * scale
            else:
                mu = float(m.mass[members].sum())
            ratio = max(mu / powers[r], powers[r] / mu) if mu > 0.0 else math.inf
            if ratio > k_hat:
                k_hat = ratio
                worst = (int(a), float(r), float(ratio))
    m_hat = doubling_constant(m, radii=radii, centers=cs, seed=seed) if with_doubling else 0
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
                  lambda_max: float = 16.0, centers=None, radii=None,
                  n_centers: int = 32, n_radii: int = 8,
                  seed: int = 0) -> LLCReport:
    """Estimate join-inside (lambda1) and join-outside (lambda2) constants.

    For each sampled center a and radius r, lambda1 asks that all points of
    B(a, r) lie in one component of the delta-graph restricted to B(a, λr);
    lambda2 asks the same of the complement of B(a, r) inside the complement
    of B(a, r/λ).  Configurations with r above the diameter are vacuous for
    lambda2 and skipped; both estimates are monotone along the grid of λ:
    ``2 ** (k / 4)`` from 1 to the first value at or above ``lambda_max``.
    """
    delta, radii = _scales(m, delta, radii, n_radii)
    grid = _grid(lambda_max)
    D = m.dist
    adj = _balls(D, delta)
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
    curve makes lambda2 blow up, with witnesses at the gap.  ``degenerate``
    says the sample has fewer than 3 points; ``usable`` is that of
    :func:`llc_constants`, which no sample of fewer than 3 points attains.
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
                      lambda_max: float = 16.0, centers=None, radii=None,
                      n_centers: int = 48, n_radii: int = 8,
                      seed: int = 0) -> QuasicircleReport:
    """Screen a closed-curve sample for quasicircle behavior: the constants
    of :func:`llc_constants` with these options, and the doubling count of
    :func:`doubling_constant` on the same centers and radii."""
    _at_least_one("max_lambda", max_lambda)
    _at_least_one("max_doubling", max_doubling)
    llc = llc_constants(m, delta=delta, lambda_max=lambda_max, centers=centers,
                        radii=radii, n_centers=n_centers, n_radii=n_radii, seed=seed)
    m_hat = doubling_constant(m, centers=llc.centers, radii=llc.radii, seed=seed)
    passed = (llc.usable and llc.lambda1 <= max_lambda
              and llc.lambda2 <= max_lambda and m_hat <= max_doubling)
    return QuasicircleReport(
        m_hat=m_hat, lambda1=llc.lambda1, lambda2=llc.lambda2,
        delta=llc.delta, passed=bool(passed), degenerate=m.n < 3,
        usable=llc.usable, failures=llc.failures1 + llc.failures2,
    )
