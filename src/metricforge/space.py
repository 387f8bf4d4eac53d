"""Finite metric spaces: representation, validation, balls, covers, serialization.

A :class:`FiniteMetricSpace` is an immutable bundle of point labels and a
symmetric distance matrix, optionally carrying Euclidean coordinates, a
per-point measure weight, and a marked boundary subset.  All operations in
this module are pure functions on that read-only data.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# Absolute tolerance for all metric-axiom checks.  Distances are stored as
# 64-bit floats; generated spaces accumulate at most a few ulps of error per
# entry, so 1e-9 is generous without masking real defects.
METRIC_TOL = 1e-9


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token}: distances must be finite and "
                     "nonnegative, coordinates and masses finite")


def _finite_positive(name: str, value: float) -> float:
    """``value`` as a float; raises unless it is finite and positive."""
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
        Pairwise distances, symmetric with zero diagonal.  Construction does
        not enforce the metric axioms; run :func:`validate_metric`.
    coords : (n, k) array, optional
        Ambient coordinates for generated Euclidean/spherical samples.
    mass : (n,) array, optional
        Nonnegative measure weight per point.
    boundary : set of int, optional
        Indices of points marked as the metric boundary.  Marking is always
        an explicit input; it is never inferred from a bare point cloud.

    Construction is where structure is checked: duplicate labels, array
    shapes that do not match the point count, a NaN or infinite number in
    ``dist``, ``coords`` or ``mass``, and boundary indices outside ``[0, n)``
    raise ``ValueError``, so no malformed space exists.
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
                # min and max propagate NaN and reach ±inf: no n x n temporary
                if a.size and not np.isfinite([a.min(), a.max()]).all():
                    _non_finite(repr(float(a[~np.isfinite(a)][0])))
                a.setflags(write=False)
                object.__setattr__(self, name, a)
        if self.dist.shape != (n, n):
            raise ValueError(f"distance matrix shape {self.dist.shape} does not match {n} points")
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

_ROW_BLOCK = 64  # rows per band of _through, so a band's candidates stay in cache

_TILE = 16  # rows and columns per tile of warp's stale sweeps


def _min_plus_into(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``out = min(out, a ⊗ b)`` in place, one middle point m at a time.

    Entry (i, k) is lowered to ``a[i, m] + b[m, k]`` wherever that is less,
    with one (rows, columns) temporary per m.
    """
    for m in range(len(b)):
        np.fmin(out, a[:, m, None] + b[m], out=out)


def _through(d: np.ndarray) -> np.ndarray:
    """``min(d, d ⊗ d)``: every entry against every two-step path, as a new array.

    Entry (i, k) is the min of ``d[i, k]`` and of ``d[i, m] + d[m, k]`` over
    all m, computed band by band of rows on a contiguous copy.  When ``d``
    equals its transpose, ``d[i, m] + d[m, k]`` and ``d[k, m] + d[m, i]`` are
    the same float (addition commutes), so only the columns ``k >= i`` are
    computed and each band is mirrored below the diagonal: half the work.
    """
    n = len(d)
    symmetric = np.array_equal(d, d.T)
    out = np.empty_like(d)
    for r0 in range(0, n, _ROW_BLOCK):
        r1, c0 = r0 + _ROW_BLOCK, r0 if symmetric else 0
        band = d[r0:r1, c0:].copy()
        _min_plus_into(band, d[r0:r1], d[:, c0:])
        out[r0:r1, c0:] = band
        if symmetric:
            out[r0:, r0:r1] = band.T
    return out


def _relax_stale(d: np.ndarray, w: np.ndarray, stale: np.ndarray) -> None:
    """Relax ``d`` in place to the min-plus closure ``d = min(d, d ⊗ w)``.

    Middle m relaxes entry (i, k) as ``d[i, k] = min(d[i, k], d[i, m] + w[m, k])``.
    ``stale`` (consumed) marks the entries ``d[i, m]`` that row i has not yet
    been relaxed through, such as those ``_through(w)`` lowered (see
    :mod:`metricforge.warp`).  A relaxation reads and writes one row of
    ``d``, so the rows are closed one tile I of ``_TILE`` rows at a time.
    Each sweep of I relaxes through a snapshot ``ds`` of its stale entries,
    and an entry that drops is stale for the next sweep, until none is left.
    The columns are cut into tiles K of ``_TILE`` too.  With ``a[m]`` the
    min of ``ds[I, m]`` and ``b[m, K]`` the min of ``w[m, k]`` over k in K,
    k != m (a step from m to itself lowers nothing), rounding is monotone,
    so a middle with ``a[m] + b[m, K] >= max d[I, K]`` lowers no entry of
    the tile and is left out; a tile with no middle left is skipped.  Only
    the tile itself writes ``d[I, K]``, so its maximum from the start of
    the sweep is current.
    """
    starts = np.arange(0, len(d), _TILE)
    b = np.minimum.reduceat(np.where(np.eye(len(d), dtype=bool), np.inf, w), starts, axis=1)
    for rows in (slice(r0, r0 + _TILE) for r0 in starts):
        while stale[rows].any():
            ds = np.where(stale[rows], d[rows], np.inf)
            stale[rows] = False
            a = ds.min(axis=0)
            keep = a[:, None] + b < np.maximum.reduceat(d[rows].max(axis=0), starts)
            for c in np.flatnonzero(keep.any(axis=0)):
                cols, mids = slice(starts[c], starts[c] + _TILE), np.flatnonzero(keep[:, c])
                cand = (ds[:, mids, None] + w[mids, cols]).min(axis=1)
                drop = cand < d[rows, cols]
                np.copyto(d[rows, cols], cand, where=drop)
                stale[rows, cols] |= drop


def _closure(w: np.ndarray) -> np.ndarray:
    """Min-plus closure of a symmetric, nonnegative ``w``, as a new array.

    Entry (i, k) is the least chain sum from i to k, summed from either
    end: ``_through(w)``, then ``_relax_stale`` on the entries it lowered,
    then the mirror ``min(d, dᵀ)`` (``_through``'s output is symmetric
    already, so the mirror runs only after the sweeps).  ``inf`` means "no
    edge": ``inf + x`` is ``inf``, never NaN, so a pair with no chain stays
    ``inf``.  The sweeps' tiles hold consecutive points, so a caller that
    can order the points by scale passes them in that order (see
    :mod:`metricforge.warp`).
    """
    d = _through(w)
    stale = d < w
    if stale.any():
        _relax_stale(d, w, stale)
        np.minimum(d, d.T, out=d)  # numpy buffers the overlapping transpose
    return d


def validate_metric(m: FiniteMetricSpace, tol: float = METRIC_TOL) -> ValidationReport:
    """Check the metric axioms and boundary marking of a space.

    The space is well formed by construction (see
    :class:`FiniteMetricSpace`), finite numbers included, so only the axioms
    are checked here.  Axiom failures are collected into the report with
    witness tuples, capped per axiom.

    The triangle inequality ``d(i,k) <= d(i,m) + d(m,k) + tol`` is first
    tested for all triples at once, against the first min-plus round
    ``min(d, d ⊗ d)`` that ``warp`` also starts from (``_through``).
    Rounding is monotone, so some middle point m fails (i, k) exactly when
    ``d(i,k)`` exceeds the min over m of ``d(i,m) + d(m,k)``, plus tol.  On
    a symmetric ``d`` that round costs half a full one.  Only when this
    test flags a pair does a scan per middle point count the failing
    triples and list witnesses, and it looks only at the flagged pairs
    (i, k): by the same monotone rounding they hold every failing triple.
    """
    if not 0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    d = m.dist
    n = m.n

    found: dict[str, list] = {}  # witnesses kept per axiom, in check order
    total = 0

    def push(axiom, count, witnesses):  # witnesses: lazy (witness, excess) pairs
        nonlocal total
        total += count
        kept = found.setdefault(axiom, [])
        kept += (Violation(axiom, w, float(e))
                 for w, e in itertools.islice(witnesses, _WITNESS_CAP - len(kept)))

    diag = np.abs(np.diagonal(d))
    bad = np.flatnonzero(diag > tol)
    push("diagonal", bad.size, (((int(i),), diag[i]) for i in bad))

    # One n x n float temporary at a time: each is built in place and
    # dropped once used, so the pass's heap peak stays near one matrix.
    asym = d - d.T
    np.abs(asym, out=asym)
    bad = np.argwhere(np.triu(asym > tol, 1))
    push("symmetry", len(bad), (((int(i), int(j)), asym[i, j]) for i, j in bad))
    del asym

    bad = np.argwhere(np.triu(d <= tol, 1))
    push("positivity", len(bad), (((int(i), int(j)), tol - d[i, j]) for i, j in bad))

    bound = _through(d)
    bound += tol
    rows, cols = np.nonzero(d > bound)
    del bound
    if rows.size:
        flagged = d[rows, cols]
        for j in range(n):
            through = d[rows, j] + d[j, cols]
            bad = np.flatnonzero(flagged > through + tol)
            push("triangle", bad.size,
                 (((int(rows[s]), j, int(cols[s])), flagged[s] - through[s]) for s in bad))

    if m.mass is not None:
        bad = np.flatnonzero(m.mass < 0)
        push("mass", bad.size, (((int(i),), -m.mass[i]) for i in bad))

    if m.boundary is not None:
        if len(m.boundary) == 0:
            push("boundary", 1, [((), 0.0)])
        elif len(m.boundary) == n:
            push("boundary", 1, [(tuple(sorted(m.boundary)), 0.0)])

    return ValidationReport(tuple(itertools.chain.from_iterable(found.values())), total)


def ball(m: FiniteMetricSpace, center: int, r: float, closed: bool = False) -> set:
    """Indices within distance ``r`` of ``center`` (strict unless closed)."""
    return set(int(i) for i in np.flatnonzero(ball_mask(m, center, r, closed)))


def ball_mask(m: FiniteMetricSpace, center: int, r: float, closed: bool = False) -> np.ndarray:
    """Boolean-mask twin of :func:`ball` for vectorized callers."""
    if not r >= 0:  # NaN fails too
        raise ValueError(f"ball radius must be nonnegative, got {r}")
    row = m.dist[_indices("center", [center], m.n)[0]]
    return row <= r if closed else row < r


def covering_radius(m: FiniteMetricSpace, subset: Iterable[int]) -> float:
    """Max over all points of the min distance to ``subset``."""
    idx = _indices("subset", subset, m.n)
    if not idx:
        raise ValueError("subset must be nonempty")
    return float(m.dist[:, idx].min(axis=1).max())


def sample_scale(m: FiniteMetricSpace) -> float:
    """Max nearest-neighbor distance: the resolution proxy of a sample.

    Used to pick proximity scales; for a grid of spacing s this equals s.
    """
    if m.n < 2:
        return 0.0
    d = m.dist.copy()
    np.fill_diagonal(d, np.inf)
    return float(d.min(axis=1).max())


@dataclass(frozen=True)
class CoverResult:
    """Selected ball centers whose 5r-inflations cover the input balls."""

    centers: tuple
    radius_per_center: tuple
    disjoint_core: bool


def _normalize_radii(m, target, radii):
    if isinstance(radii, Mapping):
        out = [float(radii[t]) for t in target]
    else:
        arr = np.asarray(radii, dtype=float)
        if arr.ndim == 0:
            out = [float(arr)] * len(target)
        elif arr.shape == (m.n,):
            out = [float(arr[t]) for t in target]
        elif arr.shape == (len(target),):
            out = [float(v) for v in arr]
        else:
            raise ValueError("radii must map target indices to positive reals")
    return [_finite_positive("radii", r) for r in out]


def greedy_cover_5r(m: FiniteMetricSpace, target: Iterable[int], radii) -> CoverResult:
    """Greedy disjoint subfamily whose 5r-balls cover the input balls.

    Candidate balls B(t, r_t) for t in ``target`` are scanned by radius
    descending (ties by index ascending); a ball is kept iff its core is
    metrically disjoint from every kept core, i.e. d(c_i, c_j) >= r_i + r_j.
    Every rejected ball then sits inside the closed 3r-inflation of some
    kept ball, so the closed 5r-inflations cover the input union.
    """
    target = sorted(set(_indices("target", target, m.n)))
    if not target:
        return CoverResult((), (), True)
    rs = _normalize_radii(m, target, radii)
    order = sorted(range(len(target)), key=lambda k: (-rs[k], target[k]))
    centers: list[int] = []
    kept_r: list[float] = []
    for k in order:
        c, r = target[k], rs[k]
        if all(m.dist[c, c2] >= r + r2 for c2, r2 in zip(centers, kept_r)):
            centers.append(c)
            kept_r.append(r)
    return CoverResult(tuple(centers), tuple(kept_r), True)


def subspace(m: FiniteMetricSpace, indices: Sequence[int],
             boundary: Iterable[int] | None = None) -> FiniteMetricSpace:
    """Restriction of a space to a subset of its points (metric inherited).

    ``boundary``, if given, is expressed in the new index order; otherwise
    surviving marks of the parent boundary are carried over.
    """
    idx = np.asarray(_indices("subspace indices", indices, m.n), dtype=int)
    if len(set(idx.tolist())) != len(idx):
        raise ValueError("subspace indices must be distinct")
    if boundary is None and m.boundary is not None:
        boundary = [k for k, i in enumerate(idx) if i in m.boundary] or None
    return FiniteMetricSpace(
        points=tuple(m.points[i] for i in idx),
        dist=m.dist[np.ix_(idx, idx)],
        coords=None if m.coords is None else m.coords[idx],
        mass=None if m.mass is None else m.mass[idx],
        boundary=boundary,
    )


# ---------------------------------------------------------------------------
# Serialization: JSON is the one file format and carries the full record.
# Floats survive exactly (shortest round-trip repr).  The loader names a
# NaN or Infinity token as it reads it; the constructor rejects any other
# non-finite number and a record whose shapes or boundary indices do not fit
# its points, so every space the writer sees is finite.
# ---------------------------------------------------------------------------

def _json_list(items: list, depth: int, brackets: str = "[]") -> str:
    """Nested lists of encoded items in the layout of ``json.dumps(indent=1)``.

    The brackets are written into the end items of ``items`` in place, so
    the long result is built only once.
    """
    if not items:
        return brackets
    if isinstance(items[0], list):
        items = [_json_list(sub, depth + 1) for sub in items]
    pad = "\n" + " " * (depth + 1)
    items[0] = brackets[0] + pad + items[0]
    items[-1] += "\n" + " " * depth + brackets[1]
    return ("," + pad).join(items)


def _json_floats(a: np.ndarray, depth: int) -> str:
    """A float array as nested JSON lists; each distinct float is encoded once.

    Distinct means distinct bits, so -0.0 keeps its sign.
    """
    bits, inv = np.unique(a.view(np.uint64), return_inverse=True)
    text = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    return _json_list(text[inv].reshape(a.shape).tolist(), depth)


def to_json(m: FiniteMetricSpace) -> str:
    """The space as ``json.dumps(doc, sort_keys=True, indent=1)`` would write it.

    Floats are written by ``float.__repr__``, as the encoder does, but the
    encoder's pure-Python indent path is bypassed for the float arrays.
    """
    doc = {
        "points": json.dumps(list(m.points), indent=1).replace("\n", "\n "),
        "dist": _json_floats(m.dist, 1),
    }
    if m.coords is not None:
        doc["coords"] = _json_floats(m.coords, 1)
    if m.mass is not None:
        doc["mass"] = _json_floats(m.mass, 1)
    if m.boundary is not None:
        doc["boundary"] = _json_list([str(i) for i in sorted(m.boundary)], 1)
    return _json_list([f'"{k}": {doc.pop(k)}' for k in sorted(doc)], 0, "{}")


def from_json(text: str) -> FiniteMetricSpace:
    doc = json.loads(text, parse_constant=_non_finite)
    return FiniteMetricSpace(
        points=tuple(doc["points"]),
        dist=np.asarray(doc["dist"], dtype=np.float64),
        coords=None if "coords" not in doc else np.asarray(doc["coords"], dtype=np.float64),
        mass=None if "mass" not in doc else np.asarray(doc["mass"], dtype=np.float64),
        boundary=doc.get("boundary"),
    )


def save_space(m: FiniteMetricSpace, path) -> None:
    Path(path).write_text(to_json(m), encoding="utf-8")


def load_space(path) -> FiniteMetricSpace:
    return from_json(Path(path).read_text(encoding="utf-8"))
