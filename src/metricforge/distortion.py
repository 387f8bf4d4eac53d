"""Cross-ratios, triple/quadruple distortion envelopes, and the
plane-to-sphere chordal comparison.

Distortion profiling is exhaustive on small spaces (every ordered tuple of
distinct indices) and seeded-uniform above the cutoff.  Envelopes are
binned by the input ratio on a fixed log grid with explicit under/overflow
bins, so out-of-range tuples are recorded rather than dropped.

Tuples are enumerated or drawn, gathered and binned ``_CHUNK`` at a time,
so memory is the pulled-back distance matrix plus chunk-sized arrays.
``_BATCH`` is only the unit of ``envelope_input`` ties (see ``_profile``).

A bin is read off the grid from log10 of the input ratio and mended by one
comparison each way, so it is the bin ``np.searchsorted(edges, t, side="right")``
gives, zeros, inf and NaN included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .space import FiniteMetricSpace, _count, _indices, _rng

BIN_LO, BIN_HI, BIN_COUNT = 1e-4, 1e4, 48
EXHAUSTIVE_TRIPLE_CUTOFF = 60
EXHAUSTIVE_QUAD_CUTOFF = 30
DEFAULT_SAMPLES = 1_000_000

_EDGES = np.logspace(math.log10(BIN_LO), math.log10(BIN_HI), BIN_COUNT + 1)
# Bin b holds _BELOW[b] <= t < _ABOVE[b]; the NaN pad keeps inf in the overflow bin.
_BELOW = np.concatenate(([-np.inf], _EDGES))
_ABOVE = np.concatenate((_EDGES, [np.nan]))
_LOG_LO, _PER_DECADE = math.log10(BIN_LO), BIN_COUNT / math.log10(BIN_HI / BIN_LO)


def cross_ratio(m: FiniteMetricSpace, x: int, y: int, z: int, w: int) -> float:
    """d(x,z) d(y,w) / (d(x,w) d(y,z)) for four distinct points."""
    x, y, z, w = _indices("cross ratio points", (x, y, z, w), m.n)
    if len({x, y, z, w}) != 4:
        raise ValueError("cross ratio needs four distinct points")
    denom = m.dist[x, w] * m.dist[y, z]
    if denom == 0.0:
        raise ValueError("cross ratio undefined: coincident points give a zero denominator")
    return float(m.dist[x, z] * m.dist[y, w] / denom)


@dataclass(frozen=True)
class ClaimCheck:
    """Pointwise comparison of outputs against a claimed gauge bound."""

    description: str
    passed: bool
    worst_ratio: float               # max over tuples of out / claimed(t_in)
    worst_witness: tuple | None      # (indices, t_in, t_out)


@dataclass(frozen=True)
class DistortionProfile:
    """Per-bin max output ratio keyed by input ratio.

    ``envelope[b]`` is the exact max output over evaluated tuples whose
    input ratio fell in bin b (nan when empty); ``envelope_input[b]`` is the
    input ratio of a tuple attaining that max.  Bins 0 and -1 catch under-
    and overflow.
    """

    kind: str
    bin_edges: tuple
    envelope: tuple
    envelope_input: tuple
    counts: tuple
    skipped_degenerate: int
    exhaustive: bool
    seed: int
    claim: ClaimCheck | None = None

    def nonempty_bins(self):
        return [b for b, c in enumerate(self.counts) if c > 0]


def _check_mapping(src, dst, mapping):
    f = np.asarray(_indices("mapping", mapping, dst.n), dtype=int)
    if f.shape != (src.n,):
        raise ValueError("mapping must assign a destination index to every source point")
    if len(np.unique(f)) != src.n:
        raise ValueError("mapping must be injective")
    return f


def _distinct(cols):
    """Mask of the tuple columns whose entries are pairwise distinct."""
    pairs = itertools.combinations(cols, 2)
    a, b = next(pairs)
    ok = a != b
    for a, b in pairs:
        ok &= a != b
    return ok


_BATCH = 200_000  # sampled draws to a batch: the unit of envelope_input ties
_CHUNK = 16_384  # tuples drawn, gathered and binned together

# Index pairs whose distances multiply into the numerator and denominator:
# d(a,b) / d(a,c) for QS triples, d(x,z) d(y,w) / (d(x,w) d(y,z)) for QM.
_PAIRS = {
    "QS": (((0, 1),), ((0, 2),)),
    "QM": (((0, 2), (1, 3)), ((0, 3), (1, 2))),
}


def _chunks(n, arity, n_samples, rng, exhaustive):
    """Tuple columns, at most _CHUNK at a time, each with whether a batch ends
    there: every ordered tuple in lexicographic order as one batch when
    exhaustive, else seeded uniform draws, _BATCH to a batch."""
    if exhaustive:
        total = n ** arity
        for s in range(0, total, _CHUNK):
            ordinals = np.arange(s, min(s + _CHUNK, total))
            yield np.stack(np.unravel_index(ordinals, (n,) * arity)), s + _CHUNK >= total
        return
    for b in range(0, n_samples, _BATCH):
        end = min(b + _BATCH, n_samples)
        for s in range(b, end, _CHUNK):
            # The same values as one default int64 draw of the whole batch.
            size = (min(_CHUNK, end - s), arity)
            yield rng.integers(0, n, size=size, dtype=np.int32).T, s + _CHUNK >= end


def _ratios(cols, pairs, flats, n):
    """Yields the input, then the output ratios of tuple columns, by flat gathers."""
    n = np.intp(n)  # int32 columns times an intp give intp flat indices
    num, den = ([cols[i] * n + cols[j] for i, j in side] for side in pairs)
    for d in flats:
        top, bottom = d.take(num[0]), d.take(den[0])
        for idx in num[1:]:
            top *= d.take(idx)
        for idx in den[1:]:
            bottom *= d.take(idx)
        top /= bottom
        yield top


def _slots(t):
    """``np.searchsorted(_EDGES, t, side="right")``: a guess from log10, off by
    at most one near an edge, mended by one comparison each way."""
    g = np.floor((np.log10(np.maximum(t, BIN_LO / 2)) - _LOG_LO) * _PER_DECADE) + 1
    b = np.fmax(np.fmin(g, BIN_COUNT + 1), 0).astype(np.intp)  # NaN: overflow bin
    b += t >= _ABOVE[b]
    b -= t < _BELOW[b]
    return b


def _profile(kind, src, dst, mapping, n_samples, seed,
             exhaustive_cutoff, claimed, claimed_desc):
    f = _check_mapping(src, dst, mapping)
    pairs = _PAIRS[kind]
    arity = 3 if kind == "QS" else 4
    n = src.n
    # dst pulled back through the mapping: flat index i*n + j on both sides.
    flats = (src.dist.ravel(), dst.dist[np.ix_(f, f)].ravel())
    nbins = BIN_COUNT + 2
    # top and tied: this batch's max output per bin, the largest input attaining it.
    env, env_in, top, tied = np.full((4, nbins), -np.inf)
    counts = np.zeros(nbins, dtype=np.int64)
    worst_ratio = -np.inf
    worst_witness = None
    exhaustive = n <= exhaustive_cutoff
    if exhaustive and n < arity:
        raise ValueError(f"{kind} profile needs at least {arity} points, got {n}")
    if not exhaustive:  # an exhaustive profile draws nothing
        _count("n_samples", n_samples)

    # Coincident points give x/0 and 0/0 ratios: expected, and recorded.
    with np.errstate(divide="ignore", invalid="ignore"):
        for cols, batch_ends in _chunks(n, arity, n_samples, _rng(seed), exhaustive):
            cols = cols.compress(_distinct(cols), axis=1)
            t_in, t_out = _ratios(cols, pairs, flats, n)
            slots = _slots(t_in)
            counts += np.bincount(slots, minlength=nbins)
            before = top.copy()
            np.maximum.at(top, slots, t_out)
            tied[top > before] = -np.inf  # a larger max drops the earlier ties
            hit = t_out == top[slots]
            np.maximum.at(tied, slots[hit], t_in[hit])
            if claimed is not None and cols.shape[1]:
                ratio = t_out / claimed(t_in)
                # A 0/0 ratio claims nothing; argmax would stop at the first one.
                ratio[np.isnan(ratio)] = -np.inf
                k = int(np.argmax(ratio))
                if ratio[k] > worst_ratio:
                    worst_ratio = float(ratio[k])
                    worst_witness = (tuple(int(v) for v in cols[:, k]),
                                     float(t_in[k]), float(t_out[k]))
            if batch_ends:
                # A bin whose max this batch attains (NaN never does) takes the
                # largest input that attains it; the others keep an earlier one.
                np.maximum(env, top, out=env)
                touched = (top == env) & (tied > -np.inf)
                env_in[touched] = tied[touched]
                top[:], tied[:] = -np.inf, -np.inf
            # Freed before the next chunk is drawn: one chunk's arrays at a time.
            cols = t_in = t_out = slots = hit = ratio = None

    claim = None
    if claimed is not None:
        claim = ClaimCheck(
            description=claimed_desc or "claimed gauge",
            passed=bool(worst_ratio <= 1.0),
            worst_ratio=float(worst_ratio),
            worst_witness=worst_witness,
        )
    env_out = tuple(float(v) if np.isfinite(v) else math.nan for v in env)
    env_in_out = tuple(float(v) if np.isfinite(v) else math.nan for v in env_in)
    return DistortionProfile(
        kind=kind,
        bin_edges=tuple(float(e) for e in _EDGES),
        envelope=env_out,
        envelope_input=env_in_out,
        counts=tuple(int(c) for c in counts),
        skipped_degenerate=0 if exhaustive else n_samples - int(counts.sum()),
        exhaustive=exhaustive,
        seed=seed,
        claim=claim,
    )


def qs_profile(src: FiniteMetricSpace, dst: FiniteMetricSpace, mapping,
               n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
               claimed=None, claimed_desc: str = "") -> DistortionProfile:
    """Triple-distortion envelope: out-ratio of (a,b,c) binned by in-ratio.

    The input ratio is d(a,b)/d(a,c); the output ratio is the same quotient
    after applying the injective index ``mapping`` into ``dst``.  A claimed
    gauge (callable on arrays) is checked pointwise over every evaluated
    tuple, worst witness recorded.
    """
    return _profile("QS", src, dst, mapping, n_samples, seed,
                    EXHAUSTIVE_TRIPLE_CUTOFF, claimed, claimed_desc)


def qm_profile(src: FiniteMetricSpace, dst: FiniteMetricSpace, mapping,
               n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
               claimed=None, claimed_desc: str = "") -> DistortionProfile:
    """Quadruple-distortion envelope keyed by the source cross-ratio."""
    return _profile("QM", src, dst, mapping, n_samples, seed,
                    EXHAUSTIVE_QUAD_CUTOFF, claimed, claimed_desc)


def linear_gauge(coefficient: float):
    """The gauge t -> coefficient * t as an array-ready callable."""
    c = float(coefficient)
    return lambda t: c * np.asarray(t)


# ---------------------------------------------------------------------------
# Stereographic projection and the chordal comparison
# ---------------------------------------------------------------------------

def stereographic(xy) -> np.ndarray:
    """Map plane points onto the unit sphere punctured at the north pole.

    (0,0) goes to the south pole and |x| -> inf approaches (0,0,1); the
    output rows are unit vectors.  Accepts a single pair or an (N, 2) array.
    """
    pts = np.asarray(xy, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    r2 = (pts ** 2).sum(axis=1)
    denom = 1.0 + r2
    out = np.stack([2.0 * pts[:, 0] / denom,
                    2.0 * pts[:, 1] / denom,
                    (r2 - 1.0) / denom], axis=1)
    return out[0] if single else out


def chordal(xy_a, xy_b) -> np.ndarray | float:
    """Euclidean gap between the spherical images of two plane point sets."""
    sa, sb = stereographic(xy_a), stereographic(xy_b)
    d = np.linalg.norm(np.atleast_2d(sa) - np.atleast_2d(sb), axis=1)
    return float(d[0]) if np.asarray(xy_a).ndim == 1 else d


def plane_sphere_ratios(xy_a, xy_b) -> np.ndarray:
    """Two-sided ratio between the chordal gap and the flat rescaled gap.

    The flat form |x - y| / ((1 + |x|)(1 + |y|)) and the chordal distance
    differ by a factor that never leaves [1/4, 4]; this returns the
    pointwise max of the two quotients for each pair.
    """
    a = np.atleast_2d(np.asarray(xy_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(xy_b, dtype=np.float64))
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    flat = np.linalg.norm(a - b, axis=1) / ((1.0 + na) * (1.0 + nb))
    chord = np.linalg.norm(stereographic(a) - stereographic(b), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.maximum(chord / flat, flat / chord)
    return out


def check_plane_to_sphere_L(points) -> float:
    """Worst two-sided ratio over all distinct pairs of a planar sample."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("need at least two planar points")
    ii, jj = np.triu_indices(len(pts), 1)
    gaps = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    keep = gaps > 0
    if not keep.any():
        raise ValueError("all points coincide")
    return float(plane_sphere_ratios(pts[ii[keep]], pts[jj[keep]]).max())
