"""Finite metric spaces: representation, validation, balls, covers, serialization.

A :class:`FiniteMetricSpace` is an immutable bundle of point labels and a
symmetric distance matrix, optionally carrying Euclidean coordinates, a
per-point measure weight, and a marked boundary subset.  All operations in
this module are pure functions on that read-only data.
"""

from __future__ import annotations

import csv
import io
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
    """

    points: tuple
    dist: np.ndarray
    coords: np.ndarray | None = None
    mass: np.ndarray | None = None
    boundary: frozenset | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(set(self.points)) != len(self.points):
            dup = next(p for p, k in Counter(self.points).items() if k > 1)
            raise ValueError(f"duplicate point label {dup!r}")
        d = np.asarray(self.dist, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=np.float64)
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)
        if self.mass is not None:
            w = np.asarray(self.mass, dtype=np.float64)
            w.setflags(write=False)
            object.__setattr__(self, "mass", w)
        if self.boundary is not None:
            object.__setattr__(self, "boundary", frozenset(int(i) for i in self.boundary))

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
        return replace(self, boundary=frozenset(int(i) for i in indices))


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

_ROW_BLOCK = 64  # rows relaxed or tested together, so their candidates stay in cache


def _through(d: np.ndarray) -> np.ndarray:
    """``min(d, d ⊗ d)``: every entry against every two-step path, as a new array.

    Entry (i, k) is the min of ``d[i, k]`` and of ``d[i, m] + d[m, k]`` over
    all m, computed band by band of rows on a contiguous copy.  When ``d``
    equals its transpose, ``d[i, m] + d[m, k]`` and ``d[k, m] + d[m, i]`` are
    the same float (addition commutes), so only the columns ``k >= i`` are
    computed and each band is mirrored below the diagonal: half the work.
    ``np.fmin`` skips NaN candidates.
    """
    n = len(d)
    symmetric = np.array_equal(d, d.T)
    out = np.empty_like(d)
    for r0 in range(0, n, _ROW_BLOCK):
        r1, c0 = r0 + _ROW_BLOCK, r0 if symmetric else 0
        band = d[r0:r1, c0:].copy()
        for m in range(n):
            np.fmin(band, d[r0:r1, m, None] + d[m, c0:], out=band)
        out[r0:r1, c0:] = band
        if symmetric:
            out[r0:, r0:r1] = band.T
    return out


def _min_plus(d: np.ndarray, w: np.ndarray, stale: np.ndarray) -> None:
    """Relax ``d`` in place to the min-plus closure ``d = min(d, d ⊗ w)``.

    Column m relaxes row i as ``d[i, :] = min(d[i, :], d[i, m] + w[m, :])``.
    ``stale`` (consumed) marks the entries ``d[i, m]`` that row i has not yet
    been relaxed through, such as those ``_through(w)`` lowered (see
    :mod:`metricforge.warp`); an entry that drops becomes stale again, and
    sweeps visit only stale entries until none is left.  Rows are
    independent, so blocks of rows are relaxed one at a time.
    """
    for r0 in range(0, d.shape[0], _ROW_BLOCK):
        blk, todo = d[r0:r0 + _ROW_BLOCK], stale[r0:r0 + _ROW_BLOCK]
        while todo.any():
            for m in range(w.shape[0]):
                rows = np.flatnonzero(todo[:, m])
                if rows.size == 0:
                    continue
                todo[rows, m] = False
                cand = blk[rows, m, None] + w[m]
                cur = blk[rows]
                drop = cand < cur
                if drop.any():
                    np.copyto(cur, cand, where=drop)
                    blk[rows] = cur
                    todo[rows] |= drop


@np.errstate(invalid="ignore")  # non-finite entries are reported, not warned about
def validate_metric(m: FiniteMetricSpace, tol: float = METRIC_TOL) -> ValidationReport:
    """Check the metric axioms and boundary marking of a space.

    Structural defects (non-square matrix, length mismatches) raise
    ``ValueError`` before any axiom is checked.  Axiom failures are
    collected into the report with witness tuples, capped per axiom; a
    non-finite distance fails the ``finite`` axiom, so it never passes.

    The triangle inequality ``d(i,k) <= d(i,m) + d(m,k) + tol`` is first
    tested for all triples at once, against the first min-plus round
    ``min(d, d ⊗ d)`` that ``warp`` also starts from (``_through``).
    Rounding is monotone, so some middle point m fails (i, k) exactly when
    ``d(i,k)`` exceeds the min over m of ``d(i,m) + d(m,k)``, plus tol.  On
    a symmetric ``d`` that round costs half a full one.  Only when this
    test finds a failure does a scan per middle point count the failing
    triples and list witnesses.
    """
    d = m.dist
    n = m.n
    if d.ndim != 2 or d.shape != (n, n):
        raise ValueError(f"distance matrix shape {d.shape} does not match {n} points")
    if m.coords is not None and len(m.coords) != n:
        raise ValueError("coords length does not match point count")
    if m.mass is not None and m.mass.shape != (n,):
        raise ValueError("mass length does not match point count")
    if m.boundary is not None and any(not (0 <= i < n) for i in m.boundary):
        raise ValueError("boundary contains out-of-range indices")

    found: dict[str, list] = {}  # witnesses kept per axiom, in check order
    total = 0

    def push(axiom, count, witnesses):  # witnesses: lazy (witness, excess) pairs
        nonlocal total
        total += count
        kept = found.setdefault(axiom, [])
        kept += (Violation(axiom, w, float(e))
                 for w, e in itertools.islice(witnesses, _WITNESS_CAP - len(kept)))

    bad = np.argwhere(~np.isfinite(d))
    push("finite", len(bad), (((int(i), int(j)), abs(d[i, j])) for i, j in bad))

    diag = np.abs(np.diagonal(d))
    bad = np.flatnonzero(diag > tol)
    push("diagonal", bad.size, (((int(i),), diag[i]) for i in bad))

    asym = np.abs(d - d.T)
    bad = np.argwhere(np.triu(asym, 1) > tol)
    push("symmetry", len(bad), (((int(i), int(j)), asym[i, j]) for i, j in bad))

    bad = np.argwhere(np.triu(d <= tol, 1))
    push("positivity", len(bad), (((int(i), int(j)), tol - d[i, j]) for i, j in bad))

    if (d > _through(d) + tol).any():
        for j in range(n):
            through = d[:, j, None] + d[j]
            bad = d > through + tol
            push("triangle", int(np.count_nonzero(bad)),
                 (((int(i), j, int(k)), d[i, k] - through[i, k])
                  for i, k in np.argwhere(bad)))

    if m.mass is not None:
        bad = np.flatnonzero(~(m.mass >= 0))  # NaN fails too
        push("mass", bad.size, (((int(i),), -m.mass[i]) for i in bad))

    if m.boundary is not None:
        if len(m.boundary) == 0:
            push("boundary", 1, [((), 0.0)])
        elif len(m.boundary) == n:
            push("boundary", 1, [(tuple(sorted(m.boundary)), 0.0)])

    return ValidationReport(tuple(itertools.chain.from_iterable(found.values())), total)


def ball(m: FiniteMetricSpace, center: int, r: float, closed: bool = False) -> set:
    """Indices within distance ``r`` of ``center`` (strict unless closed)."""
    if r < 0:
        raise ValueError("ball radius must be nonnegative")
    row = m.dist[center]
    mask = row <= r if closed else row < r
    return set(int(i) for i in np.nonzero(mask)[0])


def ball_mask(m: FiniteMetricSpace, center: int, r: float, closed: bool = False) -> np.ndarray:
    """Boolean-mask twin of :func:`ball` for vectorized callers."""
    if r < 0:
        raise ValueError("ball radius must be nonnegative")
    row = m.dist[center]
    return row <= r if closed else row < r


def covering_radius(m: FiniteMetricSpace, subset: Iterable[int]) -> float:
    """Max over all points of the min distance to ``subset``."""
    idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=int)
    if idx.size == 0:
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
    if any(not math.isfinite(r) or r <= 0 for r in out):
        raise ValueError("radii must be positive and finite")
    return out


def greedy_cover_5r(m: FiniteMetricSpace, target: Iterable[int], radii) -> CoverResult:
    """Greedy disjoint subfamily whose 5r-balls cover the input balls.

    Candidate balls B(t, r_t) for t in ``target`` are scanned by radius
    descending (ties by index ascending); a ball is kept iff its core is
    metrically disjoint from every kept core, i.e. d(c_i, c_j) >= r_i + r_j.
    Every rejected ball then sits inside the closed 3r-inflation of some
    kept ball, so the closed 5r-inflations cover the input union.
    """
    target = sorted(set(int(t) for t in target))
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
    idx = np.asarray([int(i) for i in indices], dtype=int)
    if len(set(idx.tolist())) != len(idx):
        raise ValueError("subspace indices must be distinct")
    if boundary is None and m.boundary is not None:
        old = {int(i) for i in m.boundary}
        boundary = [k for k, i in enumerate(idx) if int(i) in old] or None
    return FiniteMetricSpace(
        points=tuple(m.points[i] for i in idx),
        dist=m.dist[np.ix_(idx, idx)],
        coords=None if m.coords is None else m.coords[idx],
        mass=None if m.mass is None else m.mass[idx],
        boundary=None if boundary is None else frozenset(boundary),
    )


# ---------------------------------------------------------------------------
# Serialization: JSON carries the full record; CSV carries labels + distances.
# Floats survive both formats exactly (shortest round-trip repr).  Both
# writers refuse non-finite numbers and both loaders reject them.
# ---------------------------------------------------------------------------

def _non_finite(token: str):
    raise ValueError(f"non-finite number {token}: distances must be finite and "
                     "nonnegative, coordinates and masses finite")


def _require_finite(*arrays) -> None:
    for a in arrays:
        if a is not None and not np.isfinite(a).all():
            _non_finite(repr(float(a[~np.isfinite(a)][0])))


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
    _require_finite(m.dist, m.coords, m.mass)
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
        boundary=None if "boundary" not in doc else frozenset(doc["boundary"]),
    )


def to_csv(m: FiniteMetricSpace) -> str:
    """Distance-matrix CSV: header row of labels, symmetric float body.

    Coordinates, masses, and boundary marks are JSON-only.
    """
    _require_finite(m.dist)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([str(p) for p in m.points])
    for row in m.dist:
        w.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


def from_csv(text: str) -> FiniteMetricSpace:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV input")
    labels = tuple(rows[0])
    body = np.asarray([[float(x) for x in row] for row in rows[1:]], dtype=np.float64)
    _require_finite(body)
    return FiniteMetricSpace(points=labels, dist=body)


def save_space(m: FiniteMetricSpace, path) -> None:
    path = Path(path)
    text = to_csv(m) if path.suffix.lower() == ".csv" else to_json(m)
    path.write_text(text, encoding="utf-8")


def load_space(path) -> FiniteMetricSpace:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    return from_csv(text) if path.suffix.lower() == ".csv" else from_json(text)
