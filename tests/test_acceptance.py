"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

import metricforge as mf
from oracles import brute_chain_min

QUARTER_TOL = 1e-12
EXACT_TOL = 1e-12
FLOAT_SLACK = 1e-12


def criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {desc} {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


# ---------------------------------------------------------------------------
# Shared corpora
# ---------------------------------------------------------------------------

_corpus_build_seconds = 0.0


@pytest.fixture(scope="module")
def corpus1000():
    """1000 seeded random spaces with 2 <= n <= 40 and a chosen basepoint."""
    global _corpus_build_seconds
    t0 = time.perf_counter()
    spaces = []
    for seed in range(1000):
        n = 2 + seed % 39
        spaces.append((mf.random_metric(n, seed=seed), seed % n))
    _corpus_build_seconds = time.perf_counter() - t0
    return spaces


_warp_cache: dict = {}


def warp_of(k, corpus):
    if k not in _warp_cache:
        m, p = corpus[k]
        _warp_cache[k] = mf.warp(m, p)
    return _warp_cache[k]


def sym_rho(m, p):
    r = mf.rho_matrix(m, p)
    return np.minimum(r, r.T)


# ---------------------------------------------------------------------------
# Criteria 1-5: the warped metric
# ---------------------------------------------------------------------------

def test_c01_quarter_comparison(corpus1000):
    t0 = time.perf_counter()
    worst_low = worst_high = 0.0
    for k, (m, p) in enumerate(corpus1000):
        w = warp_of(k, corpus1000)
        rho = sym_rho(m, p)
        dhat = w.warped.dist[: m.n, : m.n]
        worst_low = max(worst_low, float((rho / 4.0 - dhat).max()))
        worst_high = max(worst_high, float((dhat - rho).max()))
    elapsed = time.perf_counter() - t0 + _corpus_build_seconds
    ok = worst_low <= QUARTER_TOL and worst_high <= QUARTER_TOL and elapsed < 60.0
    criterion(1, "quarter comparison rho/4 <= d-hat <= rho on 1000 spaces", ok,
              f"(worst excess low={worst_low:.2e} high={worst_high:.2e}, {elapsed:.1f}s)")


def test_c02_basepoint_symmetry_and_infinity(corpus1000):
    worst_p = worst_inf = 0.0
    all_valid = True
    for k, (m, p) in enumerate(corpus1000):
        w = warp_of(k, corpus1000)
        d = w.warped.dist
        worst_p = max(worst_p, float(np.abs(d[p, : m.n] + w.h - 1.0).max()))
        worst_inf = max(worst_inf, float(np.abs(d[w.infty, : m.n] - w.h).max()))
        if not mf.validate_metric(w.warped).ok:
            all_valid = False
    ok = worst_p <= EXACT_TOL and worst_inf <= EXACT_TOL and all_valid
    criterion(2, "basepoint row = 1-h and infinity row = h; warped validates", ok,
              f"(worst p-row={worst_p:.2e} inf-row={worst_inf:.2e} valid={all_valid})")


def test_c03_chain_infimum_oracle():
    mismatches = 0
    for seed in range(500):
        n = 2 + seed % 6
        m = mf.random_metric(n, seed=seed)
        p = seed % n
        w = mf.warp(m, p)
        rho = sym_rho(m, p)
        for a in range(n):
            for b in range(a + 1, n):
                if w.warped.dist[a, b] != brute_chain_min(rho, a, b):
                    mismatches += 1
    criterion(3, "shortest-path warp equals brute-force chain minimum exactly",
              mismatches == 0, f"(500 seeds, n<=7, mismatches={mismatches})")


def test_c04_infinity_ball_identity(corpus1000):
    bad = 0
    diam_ok = True
    for k, (m, p) in enumerate(corpus1000):
        w = warp_of(k, corpus1000)
        if w.warped.diam() > 2.0:
            diam_ok = False
        rng = np.random.default_rng(10_000 + k)
        radii = []
        while len(radii) < 20:
            r = float(rng.uniform(0.02, 0.999))
            if np.min(np.abs(w.h - r)) > 1e-9:
                radii.append(r)
        for r in radii:
            got = mf.infty_ball(w, r)
            expect = {i for i in range(m.n) if m.dist[i, p] > (1.0 - r) / r}
            expect.add(w.infty)
            if got != expect:
                bad += 1
        # the closed-form rows at and above radius one
        if mf.infty_ball(w, 1.0) != (set(range(m.n)) - {p}) | {w.infty}:
            bad += 1
        if mf.infty_ball(w, 1.5) != set(range(m.n)) | {w.infty}:
            bad += 1
    ok = bad == 0 and diam_ok
    criterion(4, "infinity-ball membership identity and diam <= 2", ok,
              f"(20 radii x 1000 spaces, violations={bad}, diam ok={diam_ok})")


def test_c05_ball_inclusions(corpus1000):
    C = 2.0
    fractions = (0.2, 0.4, 0.6, 0.8, 1.0)
    violations = 0
    checks = 0
    for k, (m, p) in enumerate(corpus1000):
        w = warp_of(k, corpus1000)
        for a in range(m.n):
            cap = float(w.h[a]) / C
            for f in fractions:
                rep = mf.check_inclusions(w, a, f * cap, C)
                checks += 1
                if not (rep.precondition_ok and rep.ok):
                    violations += 1
    criterion(5, "two-sided ball inclusions at C=2 (open and closed)",
              violations == 0, f"({checks} center/radius checks, violations={violations})")


# ---------------------------------------------------------------------------
# Criterion 6: the 16t quadruple-distortion bound
# ---------------------------------------------------------------------------

def quad_tuples_exhaustive(n):
    cols = np.stack(np.meshgrid(*[np.arange(n)] * 4, indexing="ij"), -1).reshape(-1, 4)
    distinct = ((cols[:, 0] != cols[:, 1]) & (cols[:, 0] != cols[:, 2])
                & (cols[:, 0] != cols[:, 3]) & (cols[:, 1] != cols[:, 2])
                & (cols[:, 1] != cols[:, 3]) & (cols[:, 2] != cols[:, 3]))
    return cols[distinct]


def cross_ratios(D, q):
    return D[q[:, 0], q[:, 2]] * D[q[:, 1], q[:, 3]] / (
        D[q[:, 0], q[:, 3]] * D[q[:, 1], q[:, 2]])


def test_c06_quasi_mobius_sixteen_t():
    sizes = (4, 7, 10, 13, 16, 19, 22, 25, 28, 30)
    ok_upper = ok_lower = True
    worst_rho_gap = 0.0
    for i, n in enumerate(sizes):
        m = mf.random_metric(n, seed=2000 + i)
        p = i % n
        w = mf.warp(m, p)
        quads = quad_tuples_exhaustive(n)
        t_in = cross_ratios(m.dist, quads)
        t_out = cross_ratios(w.warped.dist[:n, :n], quads)
        ok_upper &= bool(np.all(t_out <= 16.0 * t_in))
        ok_lower &= bool(np.all(t_out >= t_in / 16.0))
        t_rho = cross_ratios(sym_rho(m, p), quads)
        worst_rho_gap = max(worst_rho_gap, float(np.abs(t_rho / t_in - 1.0).max()))

    big = mf.random_metric(500, seed=123)
    wb = mf.warp(big, 0)
    rng = np.random.default_rng(606)
    collected = 0
    while collected < 10 ** 6:
        draw = rng.integers(0, 500, size=(250_000, 4))
        distinct = ((draw[:, 0] != draw[:, 1]) & (draw[:, 0] != draw[:, 2])
                    & (draw[:, 0] != draw[:, 3]) & (draw[:, 1] != draw[:, 2])
                    & (draw[:, 1] != draw[:, 3]) & (draw[:, 2] != draw[:, 3]))
        quads = draw[distinct]
        t_in = cross_ratios(big.dist, quads)
        t_out = cross_ratios(wb.warped.dist[:500, :500], quads)
        ok_upper &= bool(np.all(t_out <= 16.0 * t_in))
        ok_lower &= bool(np.all(t_out >= t_in / 16.0))
        t_rho = cross_ratios(sym_rho(big, 0), quads)
        worst_rho_gap = max(worst_rho_gap, float(np.abs(t_rho / t_in - 1.0).max()))
        collected += len(quads)

    ok = ok_upper and ok_lower and worst_rho_gap <= 1e-12
    criterion(6, "warp cross-ratios inside [t/16, 16t]; rescale leaves cross-ratios fixed",
              ok, f"(upper={ok_upper} lower={ok_lower} rho-CR gap={worst_rho_gap:.2e})")


# ---------------------------------------------------------------------------
# Criterion 7: plane-to-sphere comparison
# ---------------------------------------------------------------------------

def test_c07_plane_to_sphere():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    a = rng.uniform(-1e3, 1e3, size=(10 ** 6, 2))
    b = rng.uniform(-1e3, 1e3, size=(10 ** 6, 2))
    chord = np.linalg.norm(mf.stereographic(a) - mf.stereographic(b), axis=1)
    formula = 2.0 * np.linalg.norm(a - b, axis=1) / np.sqrt(
        (1.0 + (a ** 2).sum(1)) * (1.0 + (b ** 2).sum(1)))
    identity_gap = float(np.abs(chord - formula).max())
    worst_ratio = float(mf.plane_sphere_ratios(a, b).max())
    elapsed = time.perf_counter() - t0
    ok = identity_gap <= 1e-12 and worst_ratio <= 4.0 and elapsed < 30.0
    criterion(7, "chordal identity to 1e-12 and two-sided ratio <= 4 on 1e6 pairs",
              ok, f"(identity gap={identity_gap:.2e}, worst ratio={worst_ratio:.4f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criteria 8-10: the doubled space
# ---------------------------------------------------------------------------

def test_c08_doubled_space_axioms():
    rng = np.random.default_rng(4242)
    bad_valid = bad_iso = bad_lip = bad_diam = 0
    for trial in range(500):
        n = int(rng.integers(3, 61))
        m = mf.random_metric(n, seed=5000 + trial)
        b = int(rng.integers(1, n))
        marks = rng.choice(n, size=b, replace=False)
        m = m.with_boundary(int(i) for i in marks)
        ds = mf.double(m)
        d = ds.doubled
        if not mf.validate_metric(d).ok:
            bad_valid += 1
        side2 = np.nonzero(ds.side == 2)[0]
        back = ds.base_index[side2]
        if not (np.array_equal(d.dist[:n, :n], m.dist)
                and np.array_equal(d.dist[np.ix_(side2, side2)],
                                   m.dist[np.ix_(back, back)])):
            bad_iso += 1
        proj = m.dist[np.ix_(ds.base_index, ds.base_index)]
        if np.any(proj > d.dist + FLOAT_SLACK):
            bad_lip += 1
        if d.diam() > 2.0 * m.diam() + FLOAT_SLACK:
            bad_diam += 1
    ok = bad_valid == bad_iso == bad_lip == bad_diam == 0
    criterion(8, "doubled metric validates; copies isometric; projection 1-Lipschitz; diam bound",
              ok, f"(500 spaces: invalid={bad_valid} iso={bad_iso} lip={bad_lip} diam={bad_diam})")


def test_c09_doubling_envelopes_on_disk():
    disk = mf.disk_grid(1 / 16, radius=1.0)
    ds = mf.double(disk)
    k_base = mf.regularity_constant(disk, 2.0, n_centers=48, seed=5,
                                    with_doubling=False).K_hat
    k_dbl = mf.regularity_constant(ds.doubled, 2.0, n_centers=48, seed=5,
                                   with_doubling=False).K_hat
    k_bound = 4.0 * max(2.0 ** 2 * k_base, 2.0 * k_base)

    rng = np.random.default_rng(11)
    rim = sorted(disk.boundary)
    centers_base = sorted(set(rng.choice(disk.n, 24, replace=False).tolist())
                          | set(rim[:12]))
    l_base = mf.llc_constants(disk, centers=centers_base, seed=5).lambda1
    centers_dbl = sorted(set(rng.choice(ds.doubled.n, 24, replace=False).tolist())
                         | set(ds.rim[:12]))
    l_dbl = mf.llc_constants(ds.doubled, centers=centers_dbl, seed=5).lambda1
    l_bound = 3.0 * l_base + 3.0

    ok = k_dbl <= k_bound and l_dbl <= l_bound
    criterion(9, "doubled disk stays inside the regularity and join-inside envelopes",
              ok, f"(K: {k_dbl:.3f} <= {k_bound:.3f}; lambda1: {l_dbl:.3f} <= {l_bound:.3f}, n={disk.n})")


def test_c10_shrinking_rim_trend():
    t0 = time.perf_counter()
    eps_values = (0.4, 0.2, 0.1, 0.05)
    n = 1200
    doubles = {e: mf.double(mf.sphere_cap_complement(e, n, seed=42))
               for e in eps_values}
    delta = max(mf.default_delta(d.doubled) for d in doubles.values())
    rng = np.random.default_rng(7)
    lam2 = []
    for e in eps_values:
        ds = doubles[e]
        centers = sorted(set(ds.rim)
                         | set(rng.choice(ds.doubled.n, 24, replace=False).tolist()))
        rep = mf.llc_constants(ds.doubled, delta=delta, lambda_max=64.0,
                               centers=centers, seed=7)
        assert rep.usable
        lam2.append(rep.lambda2)
    elapsed = time.perf_counter() - t0
    nondecreasing = all(lam2[i] <= lam2[i + 1] for i in range(len(lam2) - 1))
    strict = lam2[0] < lam2[-1]
    ok = nondecreasing and strict and elapsed < 300.0
    criterion(10, "join-outside constant of doubled cap complements grows as the rim shrinks",
              ok, f"(lambda2={['%.3g' % v for v in lam2]}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criteria 11-12: regularity sanity and the quasicircle screen
# ---------------------------------------------------------------------------

def test_c11_regularity_sanity():
    grid = mf.euclidean_grid(33, 1 / 32)
    interior = [i for i, (x, y) in enumerate(grid.coords)
                if 0.25 <= x <= 0.75 and 0.25 <= y <= 0.75]
    k2 = mf.regularity_constant(grid, 2.0, radii=(1 / 8, 1 / 4), centers=interior,
                                with_doubling=False).K_hat
    k1 = mf.regularity_constant(grid, 1.0, radii=(1 / 8, 1 / 4), centers=interior,
                                eps=1 / 64, with_doubling=False).K_hat
    ok = k2 <= 2.0 * math.pi and k1 > 10.0
    criterion(11, "grid is 2-regular (K <= 2pi) and the wrong exponent is flagged",
              ok, f"(Q=2: K={k2:.4f}; Q=1: K={k1:.4f})")


def test_c12_quasicircle_screen():
    from scipy.spatial.distance import cdist
    th = 2.0 * np.pi * np.arange(256) / 256
    coords = np.stack([np.cos(th), np.sin(th)], axis=1)
    circle = mf.FiniteMetricSpace(tuple(f"c{i}" for i in range(256)),
                                  cdist(coords, coords), coords=coords)
    rep_c = mf.quasicircle_check(circle, max_lambda=2.0, max_doubling=8, seed=3)
    circle_ok = (rep_c.passed and rep_c.lambda1 <= 2.0 and rep_c.m_hat <= 8)

    arc = mf.subspace(circle, range(192))  # cut a quarter: one long gap
    rep_a = mf.quasicircle_check(arc, max_lambda=2.0, max_doubling=8, seed=3)
    near_gap = {i for i in range(192) if i <= 4 or i >= 187}
    witness_at_gap = any(x in near_gap or y in near_gap
                         for (_, _, x, y) in rep_a.failures)
    arc_ok = (not rep_a.passed) and witness_at_gap

    ok = circle_ok and arc_ok
    criterion(12, "round circle passes the screen; gapped arc fails at the gap",
              ok, f"(circle: l1={rep_c.lambda1:.3g} M={rep_c.m_hat}; "
                  f"arc: l2={rep_a.lambda2} witness at gap={witness_at_gap})")
