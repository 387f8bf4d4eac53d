"""Basepoint sphericalization of a finite metric space.

Given a basepoint p, every pair gets the rescaled separation

    rho_p(x, y) = d(x, y) / ((1 + d(x, p)) (1 + d(y, p))),

which in general fails the triangle inequality.  The warped metric d-hat is
the chain infimum of rho over finite point sequences: on a finite set, the
min-plus closure of the complete rho-weighted graph, ``space._closure``,
whose docstring states what it takes and why it is exact.  An ideal point
labeled "∞" is adjoined with d-hat(x, ∞) := h(x), where h(x) = 1/(1 + d(x, p))
is the per-point shrink factor.

The closure does not depend on the order of the points, so ``warp`` passes
it rho with the points sorted by d(x, p) and undoes the order after.
Sorted, a tile of 16 points holds points at like scales, and its entries of
rho are alike, so the closure's stale sweeps (``space._relax_stale``) can
bound a tile's sums and skip it.  They skip a middle point for a tile of
columns unless it may lower an entry of some row: its stale entry in that
row plus its least weight into the tile must be below the row's largest
entry in the tile, and its least stale entry in the row tile plus its
weight to some column below that column's largest entry.  Rounding is
monotone, and only that tile writes those entries, so a skipped middle
would have lowered nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import FiniteMetricSpace, _closure, _finite_positive, _indices, ball

INFINITY_LABEL = "∞"


def point_scales(m: FiniteMetricSpace, p: int) -> np.ndarray:
    """h(x) = 1/(1 + d(x, p)) for every point; h(p) = 1."""
    return 1.0 / (1.0 + m.dist[_indices("basepoint", [p], m.n)[0]])


def rho_matrix(m: FiniteMetricSpace, p: int) -> np.ndarray:
    h = point_scales(m, p)
    return m.dist * h[:, None] * h[None, :]


def rho(m: FiniteMetricSpace, p: int, x: int, y: int) -> float:
    """Rescaled separation d(x,y) * h(x) * h(y) of a single pair."""
    h, (x, y) = point_scales(m, p), _indices("points", [x, y], m.n)
    return float(m.dist[x, y] * h[x] * h[y])


@dataclass(frozen=True, eq=False)
class WarpedSpace:
    """A finite space under the chain-infimum metric with ∞ adjoined.

    ``warped`` holds the base points (original order) plus one final point
    labeled "∞"; ``h`` are the shrink factors of the base points.
    """

    base: FiniteMetricSpace
    basepoint: int
    h: np.ndarray
    warped: FiniteMetricSpace

    @property
    def infty(self) -> int:
        """Index of the adjoined point in ``warped``."""
        return self.base.n


def warp(m: FiniteMetricSpace, p: int) -> WarpedSpace:
    """Warp a space around basepoint index ``p`` and adjoin ∞.

    The basepoint is a required argument: no default is meaningful, and
    different choices give genuinely different warped geometries.
    """
    p = _indices("basepoint", [p], m.n)[0]
    if INFINITY_LABEL in m.points:
        raise ValueError(f"label {INFINITY_LABEL!r} is reserved for the adjoined point")
    h = point_scales(m, p)
    order = np.argsort(m.dist[p], kind="stable")  # tiles then hold points at like scales
    grid = np.ix_(order, order)
    w = m.dist[grid]  # rho_matrix(m, p)[grid], bit for bit, in one matrix
    w *= h[order, None]
    w *= h[order]
    dhat = _closure(w)
    del w  # consumed: freed before full is made
    full = np.zeros((m.n + 1, m.n + 1))
    full[grid] = dhat  # back to the input order
    full[:-1, -1] = full[-1, :-1] = h
    warped = FiniteMetricSpace(m.points + (INFINITY_LABEL,), full)
    return WarpedSpace(base=m, basepoint=p, h=h, warped=warped)


def infty_ball(w: WarpedSpace, r: float) -> set:
    """Open ball around the adjoined point, as warped-space indices."""
    _finite_positive("r", r)
    return ball(w.warped, w.infty, r)


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of the two-sided ball comparison at one center and radius."""

    center: int
    r: float
    C: float
    precondition_ok: bool
    inner_radius: float
    outer_radius: float
    violations: tuple
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.precondition_ok and not self.violations


def check_inclusions(w: WarpedSpace, a: int, r: float, C: float) -> InclusionReport:
    """Verify that base and warped balls around ``a`` nest both ways.

    With s = d-hat(a, ∞) and r <= s / C, membership is compared point by
    point for

        B_d(a, (r/s^2) C/(C+1))  ⊆  B_dhat(a, r)  ⊆  B_d(a, (r/s^2) 4C/(C-1))

    in both the open and the closed variant.  Set membership on finite data
    is exact, so comparisons are strict/non-strict with no tolerance.
    """
    _finite_positive("r", r)
    _finite_positive("C - 1", C - 1.0)  # C above 1 and finite
    a = _indices("center", [a], w.base.n)[0]  # a base point, not ∞
    s = float(w.h[a])  # d-hat(a, ∞)
    inner = (r / (s * s)) * (C / (C + 1.0))
    outer = (r / (s * s)) * (4.0 * C / (C - 1.0))
    if r > s / C:
        return InclusionReport(a, r, C, False, inner, outer, (),
                               message="precondition failed: r exceeds d-hat(a, ∞)/C")
    base_row = w.base.dist[a]
    hat_row = w.warped.dist[a, : w.base.n]
    violations = []
    for closed, within in ((False, np.less), (True, np.less_equal)):
        in_hat = within(hat_row, r)
        for name, outside in (("inner", within(base_row, inner) & ~in_hat),
                              ("outer", in_hat & ~within(base_row, outer))):
            violations += ((name, closed, i) for i in outside.nonzero()[0].tolist())
    return InclusionReport(a, r, C, True, inner, outer, tuple(violations))
