"""Triple/quadruple distortion envelopes and the plane-to-sphere chordal
comparison.

Distortion profiling is exhaustive on small spaces (every ordered tuple of
distinct indices) and seeded-uniform above the cutoff.  Envelopes are
binned by the input ratio on a fixed log grid with explicit under/overflow
bins, so out-of-range tuples are recorded rather than dropped.

Tuples are enumerated or drawn, gathered and binned ``_CHUNK`` at a time,
and ``dst`` is read through the mapping where a tuple needs it, so memory
is chunk-sized arrays: no pulled-back distance matrix.

A bin is read off the grid from log10 of the input ratio and mended by one
comparison each way, so it is the bin ``np.searchsorted(edges, t, side="right")``
gives, zeros, inf and NaN included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .space import FiniteMetricSpace, _count, _finite_positive, _indices, _rng

BIN_LO, BIN_HI, BIN_COUNT = 1e-4, 1e4, 48
EXHAUSTIVE_TRIPLE_CUTOFF = 60
EXHAUSTIVE_QUAD_CUTOFF = 30
DEFAULT_SAMPLES = 1_000_000

_EDGES = np.logspace(math.log10(BIN_LO), math.log10(BIN_HI), BIN_COUNT + 1)
# Bin b holds _BELOW[b] <= t < _ABOVE[b]; the NaN pad keeps inf in the overflow bin.
_BELOW = np.concatenate(([-np.inf], _EDGES))
_ABOVE = np.concatenate((_EDGES, [np.nan]))
_LOG_LO, _PER_DECADE = math.log10(BIN_LO), BIN_COUNT / math.log10(BIN_HI / BIN_LO)


@dataclass(frozen=True)
class ClaimCheck:
    """Pointwise comparison of outputs against the claimed gauge t -> C t,
    described as ``f"{C}t"``: it passes when some evaluated tuple has a
    defined ratio (a witness) and no tuple's output exceeds C times its input."""

    description: str
    passed: bool
    worst_ratio: float               # max over tuples of t_out / (C * t_in)
    worst_witness: tuple | None      # (indices, t_in, t_out)


@dataclass(frozen=True)
class DistortionProfile:
    """Per-bin max output ratio keyed by input ratio.

    ``envelope[b]`` is the exact max output over evaluated tuples whose
    input ratio fell in bin b: inf when an output is x/0, nan when the bin
    is empty or an output is 0/0.  ``envelope_input[b]`` is the largest
    input ratio among the evaluated tuples whose output equals
    ``envelope[b]``, nan when the bin is empty or its max is NaN.  Bins 0
    and -1 catch under- and overflow.
    """

    kind: str
    bin_edges: tuple
    envelope: tuple
    envelope_input: tuple
    counts: tuple
    skipped_degenerate: int          # tuples drawn or enumerated minus tuples evaluated
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


_CHUNK = 16_384  # tuples drawn, gathered and binned together

# Index pairs whose distances multiply into the numerator and denominator:
# d(a,b) / d(a,c) for QS triples, d(x,z) d(y,w) / (d(x,w) d(y,z)) for QM.
_PAIRS = {
    "QS": (((0, 1),), ((0, 2),)),
    "QM": (((0, 2), (1, 3)), ((0, 3), (1, 2))),
}


def _chunks(n, arity, n_samples, rng, exhaustive):
    """Tuple columns, at most _CHUNK at a time: every ordered tuple in
    lexicographic order when exhaustive, else ``n_samples`` seeded uniform draws."""
    if exhaustive:
        total = n ** arity
        for s in range(0, total, _CHUNK):
            ordinals = np.arange(s, min(s + _CHUNK, total))
            yield np.stack(np.unravel_index(ordinals, (n,) * arity))
        return
    for s in range(0, n_samples, _CHUNK):
        # The same values as one default int64 draw of all n_samples rows,
        # a column to a row, so that _distinct and compress read rows.
        size = (min(_CHUNK, n_samples - s), arity)
        yield np.ascontiguousarray(rng.integers(0, n, size, np.int32).T)


def _ratios(pairs, d, rows, cols):
    """The ratios of tuple columns in ``d``, by flat gathers: the distance of
    the column pair (i, j) is ``d.ravel()[rows[i] + cols[j]]``.  Every such
    index is in range, so the gathers clip rather than check each one."""
    d = d.ravel()
    num, den = ((d.take(rows[i] + cols[j], mode="clip") for i, j in side) for side in pairs)
    top, bottom = next(num), next(den)
    for x in num:
        top *= x
    for x in den:
        bottom *= x
    top /= bottom
    return top


def _slots(t):
    """``np.searchsorted(_EDGES, t, side="right")``: a guess from log10, off by
    at most one near an edge, mended by one comparison each way."""
    g = np.floor((np.log10(np.maximum(t, BIN_LO / 2)) - _LOG_LO) * _PER_DECADE) + 1
    b = np.fmax(np.fmin(g, BIN_COUNT + 1), 0).astype(np.intp)  # NaN: overflow bin
    b += t >= _ABOVE[b]
    b -= t < _BELOW[b]
    return b


def _profile(kind, src, dst, mapping, n_samples, seed, exhaustive_cutoff, gauge):
    f = _check_mapping(src, dst, mapping)
    if gauge is not None:
        gauge = _finite_positive("gauge", gauge)
    pairs = _PAIRS[kind]
    arity = 3 if kind == "QS" else 4
    n = src.n
    # The pair (i, j) is at flat index i * n + j in src, f[i] * dst.n + f[j] in
    # dst: no pulled-back matrix.  int32 columns times an intp give intp.
    size, offsets = np.intp(n), f * np.intp(dst.n)
    heads, tails = ({pair[k] for side in pairs for pair in side} for k in (0, 1))
    nbins = BIN_COUNT + 2
    env, env_in = np.full((2, nbins), -np.inf)
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
        for cols in _chunks(n, arity, n_samples, _rng(seed), exhaustive):
            cols = cols.compress(_distinct(cols), axis=1)
            t_in = _ratios(pairs, src.dist, {i: cols[i] * size for i in heads}, cols)
            t_out = _ratios(pairs, dst.dist, {i: offsets.take(cols[i]) for i in heads},
                            {j: f.take(cols[j]) for j in tails})
            slots = _slots(t_in)
            counts += np.bincount(slots, minlength=nbins)
            before = env.copy()
            np.maximum.at(env, slots, t_out)
            env_in[env > before] = -np.inf  # a larger max drops the earlier ties
            hit = t_out == env[slots]
            np.maximum.at(env_in, slots[hit], t_in[hit])
            if gauge is not None and cols.shape[1]:
                with np.errstate(over="ignore"):  # a huge gauge: C t reads inf, the ratio 0
                    ratio = t_out / (gauge * t_in)
                # A 0/0 ratio claims nothing; argmax would stop at the first one.
                ratio[np.isnan(ratio)] = -np.inf
                k = int(np.argmax(ratio))
                if ratio[k] > worst_ratio:
                    worst_ratio = float(ratio[k])
                    worst_witness = (tuple(int(v) for v in cols[:, k]),
                                     float(t_in[k]), float(t_out[k]))
            # Freed before the next chunk is drawn: one chunk's arrays at a time.
            cols = t_in = t_out = slots = hit = ratio = None
    env_in[np.isnan(env)] = -np.inf  # NaN is attained by no output: no input

    claim = None
    if gauge is not None:
        claim = ClaimCheck(
            description=f"{gauge}t",
            passed=worst_witness is not None and worst_ratio <= 1.0,
            worst_ratio=float(worst_ratio),
            worst_witness=worst_witness,
        )
    # An empty bin's -inf and a NaN max read nan; an x/0 output stays inf.
    env_out, env_in_out = (tuple(float(v) if v > -np.inf else math.nan for v in a)
                           for a in (env, env_in))
    return DistortionProfile(
        kind=kind,
        bin_edges=tuple(float(e) for e in _EDGES),
        envelope=env_out,
        envelope_input=env_in_out,
        counts=tuple(int(c) for c in counts),
        skipped_degenerate=(n ** arity if exhaustive else n_samples) - int(counts.sum()),
        exhaustive=exhaustive,
        seed=seed,
        claim=claim,
    )


def qs_profile(src: FiniteMetricSpace, dst: FiniteMetricSpace, mapping,
               n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
               gauge: float | None = None) -> DistortionProfile:
    """Triple-distortion envelope: out-ratio of (a,b,c) binned by in-ratio.

    The input ratio is d(a,b)/d(a,c); the output ratio is the same quotient
    after applying the injective index ``mapping`` into ``dst``.  A ``gauge``
    C, finite and positive, claims the gauge t -> C t: it is checked
    pointwise over every evaluated tuple, worst witness recorded.
    """
    return _profile("QS", src, dst, mapping, n_samples, seed, EXHAUSTIVE_TRIPLE_CUTOFF, gauge)


def qm_profile(src: FiniteMetricSpace, dst: FiniteMetricSpace, mapping,
               n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
               gauge: float | None = None) -> DistortionProfile:
    """Quadruple-distortion envelope keyed by the source cross-ratio; a
    ``gauge`` C claims the gauge t -> C t, as in :func:`qs_profile`."""
    return _profile("QM", src, dst, mapping, n_samples, seed, EXHAUSTIVE_QUAD_CUTOFF, gauge)


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
