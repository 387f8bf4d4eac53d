"""Finite metric spaces: representation, validation, balls, serialization.

A :class:`FiniteMetricSpace` is an immutable bundle of point labels and a
symmetric distance matrix, optionally carrying Euclidean coordinates, a
per-point measure weight, and a marked boundary subset.  All operations in
this module are pure functions on that read-only data.
"""

from __future__ import annotations

import inspect
import io
import itertools
import json
import math
import numbers
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

# Absolute tolerance for all metric-axiom checks.  It is not scaled by the
# distances, so the verdict depends on the unit of length: a valid grid at
# spacing 1e8 fails the triangle inequality by rounding, and distinct
# points closer than 1e-9 read as coincident.
METRIC_TOL = 1e-9

_SIGNS = ("distances and masses must be finite and nonnegative, distances symmetric with a "
          "zero diagonal, coordinates finite")


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token}: {_SIGNS}")


def _finite_positive(name: str, value: float) -> float:
    """``value`` as a float; raises unless it is a real number, not a bool,
    finite and positive."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return float(value)


def _indices(name: str, values, n: int) -> list:
    """``values`` as ints; raises unless each is an integer, not a bool, in [0, n)."""
    out = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, out))):
        raise ValueError(f"{name} holds an entry that is not an integer index")
    out = list(map(int, out))
    if out and not (min(out) >= 0 and max(out) < n):
        raise ValueError(f"{name} holds an index outside [0, {n})")
    return out


def _at_least_one(name: str, bound) -> None:
    """Raises unless ``bound``, on a constant never below 1, is at least 1."""
    if not bound >= 1:  # NaN fails too; inf bounds nothing
        raise ValueError(f"{name} must be at least 1, got {bound}")


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an int; raises unless it is an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _rng(seed) -> np.random.Generator:
    """The random generator of ``seed``, which must be an integer of at least 0."""
    return np.random.default_rng(_count("seed", seed, 0))


def _call(what: str, fn, *args, **opts):
    """``fn(*args, **opts)``, with the options bound to ``fn``'s signature
    first: one it does not take, or a required one left out, raises
    ``ValueError`` naming ``what``, and ``fn``'s own defaults stand for the
    options not given."""
    try:
        inspect.signature(fn).bind(*args, **opts)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None
    return fn(*args, **opts)


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite metric space given by labels and a dense distance matrix.

    Parameters
    ----------
    points : sequence of labels
        Distinct, order-significant point labels (strings for anything that
        will be serialized).
    dist : (n, n) array of float
        Pairwise distances, symmetric with zero diagonal.
    coords : (n, k) array, optional
        Ambient coordinates for generated Euclidean/spherical samples.
    mass : (n,) array, optional
        Nonnegative measure weight per point.
    boundary : set of int, optional
        Indices of points marked as the metric boundary.  Marking is always
        an explicit input; it is never inferred from a bare point cloud.

    Construction is where structure is checked: duplicate labels, array
    shapes that do not match the point count, a NaN or infinite number, a
    negative one in ``dist`` or ``mass``, a ``dist`` that is not symmetric
    or has a diagonal entry other than 0 (by value, so -0.0 is 0.0 and not
    negative), and boundary indices outside ``[0, n)`` raise ``ValueError``,
    so no malformed space exists; positivity and the triangle inequality
    are :func:`validate_metric`'s.  A float64 array is made read-only, not
    copied, so that a built space stays checked: a caller who wants to keep
    writing to the array passes a copy.
    """

    points: tuple
    dist: np.ndarray
    coords: np.ndarray | None = None
    mass: np.ndarray | None = None
    boundary: frozenset | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        n = len(self.points)
        if len(set(self.points)) != n:
            dup = next(p for p, k in Counter(self.points).items() if k > 1)
            raise ValueError(f"duplicate point label {dup!r}")
        for name in ("dist", "coords", "mass"):
            if getattr(self, name) is not None:
                a = np.asarray(getattr(self, name), dtype=np.float64)
                lo, hi = a.min(initial=0.0), a.max(initial=0.0)  # NaN propagates; no n x n copy
                if not np.isfinite([lo, hi]).all():
                    _non_finite(repr(float(a[~np.isfinite(a)][0])))
                if lo < 0 and name != "coords":  # -0.0 is not below 0
                    raise ValueError(f"negative number {float(lo)!r} in {name}: {_SIGNS}")
                a.setflags(write=False)
                object.__setattr__(self, name, a)
        d = self.dist
        if d.shape != (n, n):
            raise ValueError(f"distance matrix shape {d.shape} does not match {n} points")
        # The diagonal, then the pairs, a band of rows against its mirror at a time: no n x n copy.
        for i in np.flatnonzero(np.diagonal(d))[:1]:
            raise ValueError(f"nonzero diagonal dist[{i}, {i}] = {float(d[i, i])!r}: {_SIGNS}")
        for r0 in range(0, n, _ROW_BLOCK):  # a pair (j, i) below the band fails in row j first
            band, mirror = d[r0:r0 + _ROW_BLOCK, r0:], d[r0:, r0:r0 + _ROW_BLOCK].T
            for i, j in np.argwhere(band != mirror)[:1] + r0:
                raise ValueError(f"symmetry fails: dist[{i}, {j}] = {float(d[i, j])!r} but "
                                 f"dist[{j}, {i}] = {float(d[j, i])!r}: {_SIGNS}")
        if self.coords is not None and (self.coords.ndim != 2 or len(self.coords) != n):
            raise ValueError(f"coords shape {self.coords.shape} is not {n} rows of coordinates")
        if self.mass is not None and self.mass.shape != (n,):
            raise ValueError(f"mass shape {self.mass.shape} does not match {n} points")
        if self.boundary is not None:
            object.__setattr__(self, "boundary", frozenset(_indices("boundary", self.boundary, n)))

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label) -> int:
        """Index of a label; raises KeyError for unknown labels."""
        try:
            return self.points.index(label)
        except ValueError:
            raise KeyError(f"unknown point label {label!r}") from None

    def diam(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def with_boundary(self, indices: Iterable[int]) -> "FiniteMetricSpace":
        """Copy of this space with the given indices marked as boundary."""
        return replace(self, boundary=tuple(indices))


@dataclass(frozen=True)
class Violation:
    """One failed metric axiom with a witness index tuple."""

    axiom: str
    witness: tuple
    excess: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    total: int

    @property
    def ok(self) -> bool:
        return self.total == 0

    def by_axiom(self, axiom: str) -> list:
        return [v for v in self.violations if v.axiom == axiom]


_WITNESS_CAP = 25  # per axiom; full counts are still reported

_ROW_BLOCK = 64  # rows per band of a banded pass, so that a band's arrays stay in cache

_TILE = 16  # rows and columns per tile of warp's stale sweeps

_MIDS = 64  # middle points per candidate array of a tile: 128 KiB of sums

_PAIRS = 4 * _MIDS  # (middle, column tile) pairs per chunk of the sweeps' row test: 32 KiB of sums


def _min_plus_into(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``out = min(out, a ⊗ b)`` in place, one middle point m at a time.

    Entry (i, k) is lowered to ``a[i, m] + b[m, k]`` wherever that is less,
    with one (rows, columns) temporary per m.
    """
    for m in range(len(b)):
        np.fmin(out, a[:, m, None] + b[m], out=out)


def _through_bands(d: np.ndarray):
    """Yields ``(r0, band)``: rows ``r0:r0 + _ROW_BLOCK``, columns ``r0:`` of
    ``min(d, d ⊗ d)``, each band computed over the last in one buffer.

    Entry (i, k) is the min of ``d[i, k]`` and of ``d[i, m] + d[m, k]`` over
    all m.  As ``d`` equals its transpose, ``d[i, m] + d[m, k]`` and
    ``d[k, m] + d[m, i]`` are the same float (addition commutes), so only the
    columns ``k >= r0`` are computed: the entries below the band mirror
    those right of it.
    """
    n = len(d)
    buffer = np.empty(min(n, _ROW_BLOCK) * n)
    for r0 in range(0, n, _ROW_BLOCK):
        part = d[r0:r0 + _ROW_BLOCK, r0:]
        band = buffer[:part.size].reshape(part.shape)
        np.copyto(band, part)
        _min_plus_into(band, d[r0:r0 + _ROW_BLOCK], d[:, r0:])
        yield r0, band


def _through(d: np.ndarray) -> np.ndarray:
    """``min(d, d ⊗ d)`` of a symmetric ``d`` as a new array, each band
    mirrored below the diagonal."""
    out = np.empty_like(d)
    for r0, band in _through_bands(d):
        out[r0:r0 + _ROW_BLOCK, r0:] = band
        out[r0:, r0:r0 + _ROW_BLOCK] = band.T
    return out


def _mirror_min(d: np.ndarray) -> None:
    """``d = min(d, dᵀ)`` in place, a band of rows and its mirror column at a
    time, so that numpy buffers no n x n transpose."""
    for r0 in range(0, len(d), _ROW_BLOCK):
        band, mirror = d[r0:r0 + _ROW_BLOCK, r0:], d[r0:, r0:r0 + _ROW_BLOCK]
        np.minimum(band, mirror.T, out=band)  # they share a block: numpy copies the mirror
        mirror[:] = band.T


def _relax_stale(d: np.ndarray, w: np.ndarray) -> None:
    """Relax ``d`` in place to the min-plus closure ``d = min(d, d ⊗ w)``.

    Middle m relaxes entry (i, k) as ``d[i, k] = min(d[i, k], d[i, m] + w[m, k])``.
    A relaxation reads and writes one row of ``d``, so the rows are closed
    one tile I of ``_TILE`` rows at a time.  The stale entries of I, those
    it has not yet been relaxed through, start off the diagonal where
    ``d[I]`` is below ``w[I]``, as where ``_through(w)`` lowered them (see
    :func:`_closure`): no tile writes another's rows.  Each sweep of I
    relaxes through a snapshot ``ds`` of its stale entries, and an entry
    that drops is stale for the next sweep, until none is left.  ``w`` is
    consumed: its diagonal becomes ``inf``, as a step from m to itself
    lowers nothing.

    The columns are cut into tiles K of ``_TILE`` too, and a sweep sums
    only the (middle m, tile K) pairs that may lower an entry.  With
    ``b[K, m]`` the min of ``w[m, k]`` over k in K, and ``e[i, K]`` the max
    of ``d[i, k]`` over K at the start of the sweep, middle m lowers no
    entry of row i in K when ``ds[i, m] + b[K, m] >= e[i, K]``, as
    ``w[m, k] >= b[K, m]``, rounding is monotone and ``d[i, k] <=
    e[i, K]``.  Only tile (I, K) writes ``d[I, K]``, so ``e`` is still
    current when that tile runs, and a middle left out of it sums to at
    least ``d[i, k]``: what drops, and to what, is unchanged.  A pair is
    kept when ``ds[i, m] + b[K, m] < e[i, K]`` for some row i of I, in two
    steps: for all m and K at once, the min of ``ds[I, m]`` plus
    ``b[K, m]`` against the max of ``e[I, K]``, and then row by row on the
    pairs that pass, ``_PAIRS`` of them at a time.  The kept pairs are
    walked by column tile; a tile with none is skipped.  ``b`` is a
    sixteenth of ``d``, and a tile sums its candidates ``_MIDS`` middles at
    a time.
    """
    n, starts = len(d), np.arange(0, len(d), _TILE)
    np.fill_diagonal(w, np.inf)
    b = np.minimum.reduceat(w.T, starts, axis=0)  # b[K, m], K-major like the pairs
    for r0 in starts:
        rows = slice(r0, r0 + _TILE)
        stale = d[rows] < w[rows]
        np.fill_diagonal(stale[:, r0:], False)
        while stale.any():
            ds = np.where(stale, d[rows], np.inf)
            stale[:] = False
            e = np.maximum.reduceat(d[rows], starts, axis=1)
            pairs = np.flatnonzero(ds.min(axis=0) + b < e.max(axis=0)[:, None])  # K * n + m
            keep = np.empty(len(pairs), dtype=bool)  # row by row, a chunk at a time
            for s in range(0, len(pairs), _PAIRS):
                c, m = np.divmod(pairs[s:s + _PAIRS], n)
                (ds[:, m] + b[c, m] < e[:, c]).any(axis=0, out=keep[s:s + _PAIRS])
            pairs = pairs[keep]
            edges = np.searchsorted(pairs, np.arange(len(starts) + 1) * n)
            for c in np.flatnonzero(np.diff(edges)):  # the column tiles with a pair left
                cols, ms = slice(starts[c], starts[c] + _TILE), pairs[edges[c]:edges[c + 1]] - c * n
                cand = (ds[:, ms[:_MIDS], None] + w[ms[:_MIDS], cols]).min(axis=1)
                for s in range(_MIDS, len(ms), _MIDS):
                    part = ms[s:s + _MIDS]
                    np.minimum(cand, (ds[:, part, None] + w[part, cols]).min(axis=1), out=cand)
                tile = d[rows, cols]
                drop = cand < tile
                np.copyto(tile, cand, where=drop)
                stale[:, cols] |= drop


def _closure(w: np.ndarray) -> np.ndarray:
    """Min-plus closure of the nonnegative edge weights ``w``, as a new array.

    ``w`` is consumed: it is made symmetric in place, ``min(w, wᵀ)``, and
    -0.0 becomes 0.0, so that ``np.fmin`` has no sign of zero to keep or
    drop.  A space is symmetric, but its weights need not be: ``warp``'s rho
    of a pair is ``(d·h_i)·h_j`` one way and ``(d·h_j)·h_i`` the other, which
    round apart, and ``random_metric`` draws extra edges in the upper
    triangle only.  Then ``_through(w)`` runs, ``_relax_stale`` on the
    entries it lowered, and always the mirror ``min(d, dᵀ)`` (only after the
    sweeps: round 1's output is symmetric already).  Entry (i, k) is the least
    left-associated chain sum from i to k, bit for bit: a round-1
    sum ``w[i, m] + w[m, k]`` is the same float from either end (addition
    commutes), an entry round 1 left alone is already relaxed through, and
    rounding is monotone (``x <= y`` gives ``fl(x + c) <= fl(y + c)``), so
    induction on chain length holds.  Zero weights are ordinary edges, and
    ``inf`` is "no edge" (``inf + x`` is ``inf``, never NaN).  The result
    does not depend on the order of the points, but the sweeps' tiles hold
    consecutive points, so a caller that can order them by scale does (see
    :mod:`metricforge.warp`).
    """
    _mirror_min(w)
    w += 0.0
    d = _through(w)
    _relax_stale(d, w)
    _mirror_min(d)
    return d


def validate_metric(m: FiniteMetricSpace) -> ValidationReport:
    """Check positivity, the triangle inequality and boundary marking of a space.

    The space is well formed by construction (see :class:`FiniteMetricSpace`),
    symmetric with a zero diagonal and nonnegative, so only the other axioms
    are checked here, with witness tuples capped per axiom.

    The triangle inequality ``d(i,k) <= d(i,m) + d(m,k) + METRIC_TOL`` is
    first tested for all triples at once, against the first min-plus round
    ``min(d, d ⊗ d)`` that ``warp`` also starts from (``_through_bands``),
    on the upper triangle only, a band of ``_ROW_BLOCK`` rows at a time.
    Rounding is monotone, so some middle point m fails (i, k) exactly when
    ``d(i,k)`` exceeds the min over m of ``d(i,m) + d(m,k)``, plus
    ``METRIC_TOL``.  Only the pairs i < k that this test flags are scanned,
    ``_ROW_BLOCK`` of them at a time, against every middle point at once:
    as ``d`` is symmetric, the sums of (i, k) through all m are the row sum
    ``d[i] + d[k]``, and (k, m, i) fails exactly when (i, m, k) does, by the
    same excess, so each failing triple is counted with its mirror.  Only
    the counts and the first witnesses are kept: the triangle's in the
    order of middle point m, then row i, then column k.
    """
    d, n = m.dist, m.n
    total, small = 0, np.empty((0, 2), np.intp)
    keys = np.empty(0, np.intp)  # (mid * n + i) * n + k of the first triangle failures
    for r0, band in _through_bands(d):
        part = d[r0:r0 + _ROW_BLOCK, r0:]
        ij = np.argwhere(np.triu(part <= METRIC_TOL, 1)) + r0
        total += len(ij)
        small = np.concatenate([small, ij[:_WITNESS_CAP - len(small)]])
        band += METRIC_TOL
        flags = np.argwhere(np.triu(part > band, 1)) + r0
        for s in range(0, len(flags), _ROW_BLOCK):
            i, k = flags[s:s + _ROW_BLOCK].T
            pair, mid = np.nonzero(d[i, k][:, None] > d[i] + d[k] + METRIC_TOL)
            total += 2 * pair.size
            i, k = i[pair], k[pair]
            keys = np.concatenate([keys, (mid * n + i) * n + k, (mid * n + k) * n + i])
            if len(keys) > _WITNESS_CAP:
                keys = np.partition(keys, _WITNESS_CAP - 1)[:_WITNESS_CAP]

    i, j = small.T
    found = [Violation("positivity", (int(a), int(b)), float(e))
             for a, b, e in zip(i, j, METRIC_TOL - d[i, j])]
    mid, i, k = np.unravel_index(np.sort(keys), (n, n, n))
    found += [Violation("triangle", (int(a), int(b), int(c)), float(e))
              for a, b, c, e in zip(i, mid, k, d[i, k] - (d[i, mid] + d[mid, k]))]
    if m.boundary is not None and len(m.boundary) in (0, n):
        found.append(Violation("boundary", tuple(sorted(m.boundary)), 0.0))
        total += 1
    return ValidationReport(tuple(found), total)


def ball(m: FiniteMetricSpace, center: int, r: float) -> set:
    """Indices at distance below ``r`` from ``center``: the open ball."""
    if not r >= 0:  # NaN fails too
        raise ValueError(f"ball radius must be nonnegative, got {r}")
    row = m.dist[_indices("center", [center], m.n)[0]]
    return set((row < r).nonzero()[0].tolist())


def sample_scale(m: FiniteMetricSpace) -> float:
    """Max nearest-neighbor distance: the resolution proxy of a sample.

    Used to pick proximity scales; for a grid of spacing s this equals s.
    Each point's nearest neighbour is taken a band of ``_ROW_BLOCK`` rows at
    a time, copied into one reused buffer with its diagonal set to ``inf``.
    """
    if m.n < 2:
        return 0.0
    nearest, buffer = np.empty(m.n), np.empty((min(m.n, _ROW_BLOCK), m.n))
    for r0 in range(0, m.n, _ROW_BLOCK):
        band = buffer[:min(_ROW_BLOCK, m.n - r0)]
        band[:] = m.dist[r0:r0 + _ROW_BLOCK]
        np.fill_diagonal(band[:, r0:], np.inf)
        band.min(axis=1, out=nearest[r0:r0 + _ROW_BLOCK])
    return float(nearest.max())


def subspace(m: FiniteMetricSpace, indices: Sequence[int]) -> FiniteMetricSpace:
    """Restriction of a space to a subset of its points (metric inherited),
    keeping the surviving marks of the parent boundary in the new order."""
    idx = np.asarray(_indices("subspace indices", indices, m.n), dtype=int)
    if len(set(idx.tolist())) != len(idx):
        raise ValueError("subspace indices must be distinct")
    marks = [k for k, i in enumerate(idx) if m.boundary and i in m.boundary]
    return FiniteMetricSpace(
        points=tuple(m.points[i] for i in idx),
        dist=m.dist[np.ix_(idx, idx)],
        coords=None if m.coords is None else m.coords[idx],
        mass=None if m.mass is None else m.mass[idx],
        boundary=marks or None,
    )


# ---------------------------------------------------------------------------
# Serialization: JSON is the one file format and carries the full record.
# Floats survive exactly (shortest round-trip repr).  The loader names a
# NaN or Infinity token as it reads it, and takes only JSON numbers in
# ``dist``, ``coords`` and ``mass``; the constructor rejects any other
# non-finite number and a record whose shapes or boundary indices do not fit
# its points, so every space the writer sees is finite.
# ---------------------------------------------------------------------------

_BUFFER = 1 << 16  # characters of a space file the reader reads at a time
_RANK_BAND = 16  # rows the writer ranks at a time, in intp arrays of 32 bytes per entry

_DECODER = json.JSONDecoder(parse_constant=_non_finite)

_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's


def _json_pieces(items: Iterable, depth: int):
    """A JSON list in the layout of ``json.dumps(indent=1)``, in pieces, of items
    that are iterables of pieces."""
    pad, first = b"\n" + b" " * (depth + 1), True
    for item in items:
        yield (b"[" if first else b",") + pad
        yield from item
        first = False
    yield b"[]" if first else b"\n" + b" " * depth + b"]"


def _json_floats(a: np.ndarray):
    """The pieces of a float matrix's JSON list, a row at a time.  Each distinct
    float (by bits, so -0.0 keeps its sign) is encoded once, up front, from one
    sort of the bits, into ``text``: the separator before an entry and the
    repr (at most 24 characters: ``-2.2250738585072014e-308``), NUL-padded.
    Each band of ``_RANK_BAND`` rows is ranked into it by ``searchsorted`` of
    its sorted entries; a row is its entries' text without the NULs.  Held:
    37 bytes per distinct float, 9 per entry during the sort, and a band."""
    bits = np.sort(a.view(np.uint64), axis=None)
    first = np.empty(bits.shape, dtype=bool)  # of each run of equal floats
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    bits = bits[first]
    del first
    f, pad = bits.view(np.float64), b",\n   "
    text = np.empty(len(f), dtype=[("pad", f"S{len(pad)}"), ("repr", "S24")])
    text["pad"] = pad
    for i in range(0, len(f), 1024):  # as Python floats, whose reprs are faster than numpy's
        text["repr"][i:i + 1024] = list(map(float.__repr__, f[i:i + 1024].tolist()))
    text = text.view(f"S{len(pad) + 24}")  # one field: gathers of it are faster

    def listed(band):  # the pieces of each row of the band, as a JSON list
        flat = band.view(np.uint64).ravel()
        order = np.argsort(flat)
        rank = np.empty(flat.shape, dtype=np.intp)
        rank[order] = np.searchsorted(bits, flat[order])
        for r in rank.reshape(band.shape):
            row = memoryview(text[r].tobytes().translate(None, b"\0"))  # sliced, not copied
            yield (b"[", row[1:], pad[1:-1] + b"]") if row else (b"[]",)

    return _json_pieces((p for r0 in range(0, len(a), _RANK_BAND)
                         for p in listed(a[r0:r0 + _RANK_BAND])), 1)


def _json_chunks(m: FiniteMetricSpace):
    """``json.dumps(doc, sort_keys=True, indent=1)`` of the space's record, in
    ASCII bytes (``json`` escapes the rest), in pieces: ``dist`` a row at a
    time, the rest from one ``json.dumps`` with 0 for ``dist``, cut where that
    key starts a line (a string escapes its newlines).  All but the rows' text
    is done before this returns, so a space that cannot be encoded (a label
    ``json`` does not take) raises here.  ``dist``'s table is built first, so
    that no other text is held through its sort."""
    rows, doc = _json_floats(m.dist), {"dist": 0, "points": m.points}
    if m.coords is not None:
        doc["coords"] = m.coords.tolist()
    if m.mass is not None:
        doc["mass"] = m.mass.tolist()
    if m.boundary is not None:
        doc["boundary"] = sorted(m.boundary)
    head, tail = json.dumps(doc, sort_keys=True, indent=1).encode().split(b'\n "dist": 0')
    return itertools.chain((head, b'\n "dist": '), rows, (tail,))


def to_json(m: FiniteMetricSpace) -> str:
    """The space as ``json.dumps(doc, sort_keys=True, indent=1)`` would write it."""
    return b"".join(_json_chunks(m)).decode()


class _Reader:
    """JSON text read from an open file through a buffer of about ``_BUFFER``
    characters.  ``text[pos:]`` is read but not yet parsed; ``base`` is the
    file offset of ``text[0]``, and ``start`` that of the last value read, so
    that errors name offsets in the file."""

    def __init__(self, f):
        self.f, self.text, self.pos, self.base, self.start = f, "", 0, 0, 0

    def more(self, size: int = 0) -> bool:
        """Drops the parsed text and reads at least ``_BUFFER`` more
        characters; False at the end of the file."""
        chunk = self.f.read(max(size, _BUFFER))
        if chunk:
            self.base += self.pos
            self.text, self.pos = self.text[self.pos:] + chunk, 0
        return bool(chunk)

    def fail(self, what: str, at: int | None = None):
        raise ValueError(f"{what} (char {self.base + self.pos if at is None else at})")

    def peek(self) -> str:
        """The next character that is not whitespace, left unparsed; "" at the end."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.more():
                return self.text[self.pos:self.pos + 1]

    def take(self, chars: str) -> str:
        """Parses the next character that is not whitespace, one of ``chars``."""
        c = self.peek()
        if not c or c not in chars:
            self.fail("Expecting " + " or ".join(map(repr, chars)))
        self.pos += 1
        return c

    def value(self):
        """The next JSON value, decoded whole.  One cut off by the end of the
        buffer fails to decode, or is a number cut short, which the buffer's
        end or a character that would go on with it follows: then as much
        again is read, and it is decoded anew."""
        self.peek()
        self.start = self.base + self.pos
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
            except json.JSONDecodeError as exc:
                if self.more(len(self.text) - self.pos):
                    continue
                self.fail(exc.msg, self.base + exc.pos)
            except ValueError as exc:  # a NaN or Infinity token
                self.fail(str(exc), self.start)
            if (end < len(self.text) and self.text[end] not in "0123456789.eE+-"
                    or not self.more(len(self.text) - self.pos)):
                self.pos = end
                return value


def _numbers(r: _Reader, what: str) -> list:
    """The next value, which must be a list of JSON numbers: numpy would read
    a string, a bool or a null as a number too.  The list's text holds
    another value exactly when it holds a quote, the first letter of
    ``true``, ``false`` or ``null``, or a bracket after its own (a NaN or
    Infinity token is refused as it is decoded)."""
    value = r.value()
    if type(value) is not list or any(r.text.find(c, r.start - r.base + 1, r.pos) >= 0
                                      for c in '"tfn{['):
        r.fail(f"{what} is not a list of JSON numbers", r.start)
    return value


def _rows(r: _Reader, key: str) -> np.ndarray:
    """The list of number rows at ``r`` as a float64 array, each row as long as
    the first: ``dist`` decoded a row at a time into a square array, ``coords``
    (a few numbers a row) stacked at the end.  ``[]``, as a 0-point record
    writes them, is a 0×0 array."""
    r.take("[")
    if r.peek() == "]":
        r.pos += 1
        return np.zeros((0, 0))
    rows, count = [], 0
    while True:
        while r.text.find("]", r.pos) < 0 and r.more():
            pass  # the whole row in the buffer, so that it is decoded once
        row = _numbers(r, f"a {key} row")
        if not count:
            width = len(row)
            out = np.empty((width, width)) if key == "dist" else None
        if len(row) != width:
            r.fail(f"a {key} row has {len(row)} entries where the first has {width}", r.start)
        if out is None:
            rows.append(row)
        elif count < width:
            out[count] = row
        else:
            r.fail(f"dist has more rows than its first row has entries ({width})", r.start)
        count += 1
        if r.take(",]") == "]":
            break
    if out is None:
        return np.array(rows, dtype=np.float64)
    if count < width:
        r.fail(f"dist has {count} rows where its first row has {width} entries")
    return out


def _read(f) -> FiniteMetricSpace:
    """The space in the JSON text of the open file ``f``.  The top-level object
    is parsed a key at a time, ``dist`` and ``coords`` a row at a time, so
    that the reader holds the arrays, one buffer and one row's floats."""
    r, doc = _Reader(f), {}
    r.take("{")
    while True:
        key = r.value()
        if type(key) is not str:
            r.fail("Expecting property name enclosed in double quotes", r.start)
        if key in doc:
            r.fail(f"repeated key {key!r}", r.start)
        r.take(":")
        doc[key] = (_rows(r, key) if key in ("dist", "coords") else
                    _numbers(r, key) if key == "mass" else r.value())
        if r.take(",}") == "}":
            break
    if r.peek():
        r.fail("Extra data")
    for key in ("points", "dist"):
        if key not in doc:
            raise ValueError(f"space file has no {key!r} key")
    return FiniteMetricSpace(doc["points"], doc["dist"],
                             **{k: doc[k] for k in ("coords", "mass", "boundary") if k in doc})


def from_json(text: str) -> FiniteMetricSpace:
    return _read(io.StringIO(text))


def save_space(m: FiniteMetricSpace, path) -> None:
    chunks = _json_chunks(m)  # raises, if it does, before the file is opened
    with open(path, "wb") as f:
        f.writelines(chunks)


def load_space(path) -> FiniteMetricSpace:
    with open(path, encoding="utf-8", newline="") as f:
        return _read(f)
