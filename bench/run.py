#!/usr/bin/env python3
"""Closed-loop benchmark of the metricforge pipeline.

One single-threaded client runs passes back to back; the next pass starts
only when the previous one has finished.  A pass calls the public functions
of ``metricforge`` in the order the CLI commands call them, and each group
of calls is named after its CLI command (``warp``, ``check.metric``, ...).
Outputs are checked after every pass, outside the timed region.  Right
after every pass a fixed piece of reference work is timed too, and the
gated timings are pass time over reference time (see :class:`Reference`).

Usage, from the root of a checkout:

    python3 bench/run.py --workload warp-disk --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

``--workload all`` runs each workload in a child process of its own, so
that each peak-memory figure belongs to one workload.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around each call.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"

DEFAULT_SEED = 0
MIN_PASSES = 2      # a median, and a digest compared across passes
SETUP_REPS = 5      # setup_s is the median of this many set-ups
TAIL_BEYOND = 10    # the tail metrics leave at least this many passes above them
BASEPOINT = 0
Q = 2.0
ESTIMATOR_SEED = 0  # the CLI default for check --seed

# Input sizes give passes of about 1 s, so a 30 s run holds 20-40 of them.
# At the n = 1200 / 800 first planned, one pass takes 10-15 s on a 2-core
# box, too few per run for a steady median.  The reference digests hold for
# these sizes at DEFAULT_SEED.
WORKLOADS = {
    "warp-disk": {"kind": "warp", "generator": "disk_sample",
                  "params": {"n": 450}, "samples": 1_000_000},
    "warp-graph": {"kind": "warp", "generator": "random_metric",
                   "params": {"n": 450}, "samples": 1_000_000},
    "double-files": {"kind": "double", "generator": "sphere_cap_complement",
                     "params": {"n": 220, "eps": 0.5}},
}

# name -> unit, in report order.  Timings come from call spans named after
# the metric without its "_s" suffix.
END_TO_END = {
    "pass_rel": "1", "pass_rel_tail": "1", "cpu_rel": "1", "peak_rss_mb": "MB",
    "pass_heap_mb": "MB", "setup_s": "s",
}
REPORT_ONLY = {"pass_s": "s", "pass_s_tail": "s", "cpu_s": "s", "ref_s": "s",
               "setup_rss_mb": "MB", "written_mb": "MB", "fail_frac": "1"}
PER_LAYER = {
    "space.validate_s": "s", "space.validate.triples": "count",
    "space.validate.violations": "count",
    "space.save_s": "s", "space.load_s": "s",
    "space.written_bytes": "B", "space.read_bytes": "B",
    "warp.warp_s": "s", "warp.pairs": "count", "warp.chained_frac": "1",
    "glue.double_s": "s", "glue.rim_points": "count", "glue.out_points": "count",
    "analysis.llc_s": "s", "analysis.regularity_s": "s",
    "analysis.doubling_s": "s", "analysis.quasicircle_s": "s",
    "analysis.llc.configs": "count", "analysis.llc.skipped": "count",
    "analysis.regularity.balls": "count", "analysis.doubling.balls": "count",
    "distortion.qm_s": "s", "distortion.tuples": "count",
    "distortion.skipped": "count",
    "generators.generate_s": "s",
    "trace.overhead_frac": "1",
}

# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Spans:
    """Spans kept in memory: name, start, end, parent span and pass id.

    Levels nest as pass -> stage (CLI command name) -> call (one public
    metricforge function).  Set-up spans carry the pass id "setup<k>".
    """

    def __init__(self):
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def __call__(self, name: str, pass_id, level: str):
        rec = {"id": len(self.records), "parent": self._open[-1] if self._open else None,
               "pass": pass_id, "level": level, "name": name}
        self.records.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call_seconds(self, pass_id) -> dict:
        """Summed duration of each call span of one pass, keyed by name."""
        out: dict = {}
        for r in self.records:
            if r["pass"] == pass_id and r["level"] == "call":
                out[r["name"]] = out.get(r["name"], 0.0) + r["end"] - r["start"]
        return out


class NoSpans:
    """The untraced stand-in for :class:`Spans`."""

    def __call__(self, name, pass_id, level):
        return contextlib.nullcontext()


class PassSpans:
    """Binds a recorder to one pass id, so pass code names only stage/call."""

    def __init__(self, spans, pass_id):
        self.spans, self.pass_id = spans, pass_id

    def stage(self, name):
        return self.spans(name, self.pass_id, "stage")

    def call(self, name):
        return self.spans(name, self.pass_id, "call")


# ---------------------------------------------------------------------------
# Program loading and environment
# ---------------------------------------------------------------------------

class Program:
    """The metricforge modules of this checkout, imported from ``src``."""

    def __init__(self):
        if not (SRC / "metricforge" / "__init__.py").is_file():
            raise FileNotFoundError(f"no metricforge sources under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        pkg = importlib.import_module("metricforge")
        if Path(pkg.__file__).resolve().parent != (SRC / "metricforge").resolve():
            raise ImportError(f"metricforge imported from {pkg.__file__}, not {SRC}")
        for name in ("space", "generators", "warp", "glue", "analysis", "distortion"):
            setattr(self, name, importlib.import_module(f"metricforge.{name}"))
        self.np = importlib.import_module("numpy")
        self.scipy = importlib.import_module("scipy")
        self.csgraph = importlib.import_module("scipy.sparse.csgraph")


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import metricforge, "
            "metricforge.warp; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(prog: Program, seed: int, threads_before, sizes: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": prog.np.__version__,
        "scipy": prog.scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "METRICFORGE_THREADS": "unset" if threads_before is None
        else f"unset for the run (was {threads_before!r})",
        "workload": sizes,
    }


# ---------------------------------------------------------------------------
# Reference work
# ---------------------------------------------------------------------------

class Reference:
    """Fixed work timed right after every pass, to divide the pass time by.

    The speed of a small shared box drifts by 20-35% over seconds to
    minutes, on all its CPUs at once, so seconds per pass spread across runs
    by more than any useful bound.  The reference work spends its time in
    the library operations the passes spend theirs in, on fixed inputs, and
    runs none of the program's code.  A change to the program moves pass
    time over reference time; a change in the box's speed moves both and
    cancels.  Its matrix has the size of the passes' matrices, so that it
    meets the same cache pressure; it does an eighth of their work on it.
    One reference serves every workload, so their ratios share a unit.
    """

    N = 450
    STRIDE = 8
    SEED = 20240601

    def __init__(self, prog: Program):
        np = prog.np
        self.np, self.csgraph = np, prog.csgraph
        pts = np.random.default_rng(self.SEED).random((self.N, 2))
        self.dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        self.rows = self.dist[:, :50].tolist()
        self.edges = np.linspace(0.0, 1.5, 40)

    def run(self) -> None:
        np, d, n = self.np, self.dist, self.N
        some = range(0, n, self.STRIDE)
        # warp: shortest paths over the dense matrix
        self.csgraph.dijkstra(d, directed=False, indices=list(some))
        # validate_metric: the triangle scan, one middle point at a time
        for j in some:
            (d > d[:, j][:, None] + d[j, :][None, :]).any()
        # qm_profile: sampled four-point lookups, binned
        idx = np.random.default_rng(self.SEED).integers(0, n, size=(100_000, 4))
        ratio = d[idx[:, 0], idx[:, 1]] * d[idx[:, 2], idx[:, 3]]
        np.add.at(np.zeros(len(self.edges) + 1, dtype=np.int64),
                  np.searchsorted(self.edges, ratio), 1)
        # save_space / load_space: a JSON round trip of nested float lists
        json.loads(json.dumps({"dist": self.rows}))
        # the estimators: greedy covers of balls
        for a in range(0, n, 4 * self.STRIDE):
            for r in (0.1, 0.2, 0.4):
                ball = np.nonzero(d[a] < r)[0]
                sub = d[np.ix_(ball, ball)] <= r / 2
                uncovered = np.ones(len(sub), dtype=bool)
                while uncovered.any():
                    best = int(np.argmax((sub & uncovered[None, :]).sum(1)))
                    uncovered &= ~sub[best]


# ---------------------------------------------------------------------------
# Workloads: set-up, one pass, checks and counters
# ---------------------------------------------------------------------------

def sha256_digest(matrix, fields) -> str:
    """sha256 of a matrix's shape and bytes plus the report fields."""
    h = hashlib.sha256(repr(matrix.shape).encode())
    h.update(matrix.tobytes())
    h.update(json.dumps(fields, sort_keys=True, default=repr).encode())
    return h.hexdigest()


class Workload:
    """One workload: its input, set-up, and what every pass shares."""

    stages: tuple = ()  # CLI command names, in pass order

    def __init__(self, name: str, prog: Program, seed: int, work_dir: Path):
        spec = WORKLOADS[name]
        self.name, self.prog, self.seed = name, prog, seed
        self.generator = spec["generator"]
        self.params = dict(spec["params"])
        self.samples = spec.get("samples")
        self.work_dir = work_dir
        self.space = None

    def generate(self, ps: PassSpans) -> None:
        with ps.stage("generate"):
            with ps.call("generators.generate"):
                self.space = getattr(self.prog.generators, self.generator)(
                    seed=self.seed, **self.params)
            self.write_inputs(ps)

    def write_inputs(self, ps: PassSpans) -> None:
        """Input files a pass reads; none for in-memory workloads."""

    def sizes(self) -> dict:
        n, out_n = self.space.n, self.out_points()
        return {"workload": self.name, "n": n, "out_points": out_n,
                "matrix_bytes": n * n * 8, "out_matrix_bytes": out_n * out_n * 8}

    def cleanup(self) -> None:
        """Remove the files a run wrote; none for in-memory workloads."""


class WarpWorkload(Workload):
    """warp, then check metric, then check distortion, all in memory."""

    stages = ("warp", "check.metric", "check.distortion")

    def out_points(self) -> int:
        return self.space.n + 1

    def run_pass(self, ps: PassSpans) -> dict:
        p = self.prog
        m = self.space
        with ps.stage("warp"):
            with ps.call("warp.warp"):
                w = p.warp.warp(m, BASEPOINT)
        with ps.stage("check.metric"):
            with ps.call("space.validate"):
                report = p.space.validate_metric(w.warped)
        with ps.stage("check.distortion"):
            with ps.call("distortion.qm"):
                prof = p.distortion.qm_profile(m, w.warped, range(m.n),
                                               n_samples=self.samples, seed=ESTIMATOR_SEED)
        return {"warped": w, "validation": report, "profile": prof}

    def _rho_bound(self):
        """min(rho, rho^T) and h, recomputed here rather than by the program."""
        np = self.prog.np
        d = self.space.dist
        h = 1.0 / (1.0 + d[BASEPOINT])
        r = d * h[:, None] * h[None, :]
        np.fill_diagonal(r, 0.0)
        return np.minimum(r, r.T), h

    def check(self, out: dict) -> list:
        n = self.space.n
        full = out["warped"].warped.dist
        bound, h = self._rho_bound()
        dhat = full[:n, :n]
        fails = []
        if out["validation"].total != 0:
            fails.append(f"warped space has {out['validation'].total} metric violations")
        if full.shape != (n + 1, n + 1):
            fails.append(f"warped matrix has shape {full.shape}")
        elif not ((dhat >= 0).all() and (dhat <= bound).all()):
            fails.append("some warped distance is negative or above min(rho, rho^T)")
        if full[n, :n].tobytes() != h.tobytes() or full[:n, n].tobytes() != h.tobytes():
            fails.append("the ∞ row is not bit-equal to h")
        prof = out["profile"]
        if sum(prof.counts) + prof.skipped_degenerate != self.samples:
            fails.append("distortion tuples plus skipped differ from the sample count")
        return fails

    def digest(self, out: dict) -> str:
        fields = {"violations": out["validation"].total,
                  "profile": dataclasses.asdict(out["profile"])}
        return sha256_digest(out["warped"].warped.dist, fields)

    def counters(self, out: dict) -> dict:
        n = self.space.n
        bound, _ = self._rho_bound()
        dhat = out["warped"].warped.dist[:n, :n]
        iu = self.prog.np.triu_indices(n, 1)
        prof = out["profile"]
        return {
            "space.validate.triples": (n + 1) ** 3,
            "space.validate.violations": out["validation"].total,
            "warp.pairs": len(iu[0]),
            "warp.chained_frac": float((dhat[iu] < bound[iu]).mean()),
            "distortion.tuples": int(sum(prof.counts)),
            "distortion.skipped": prof.skipped_degenerate,
        }


class DoubleWorkload(Workload):
    """double, then check llc, regularity and quasicircle, through files."""

    stages = ("double", "check.llc", "check.regularity", "check.quasicircle")

    def __init__(self, *args):
        super().__init__(*args)
        self.input_path = self.work_dir / f"{self.name}-input.json"
        self.doubled_path = self.work_dir / f"{self.name}-doubled.json"

    def write_inputs(self, ps: PassSpans) -> None:
        with ps.call("space.save"):
            self.prog.space.save_space(self.space, self.input_path)

    def out_points(self) -> int:
        return 2 * self.space.n - len(self.space.boundary)

    def run_pass(self, ps: PassSpans) -> dict:
        p = self.prog
        with ps.stage("double"):
            with ps.call("space.load"):
                base = p.space.load_space(self.input_path)
            with ps.call("glue.double"):
                ds = p.glue.double(base)
            with ps.call("space.save"):
                p.space.save_space(ds.doubled, self.doubled_path)
        with ps.stage("check.llc"):
            with ps.call("space.load"):
                loaded = p.space.load_space(self.doubled_path)
            with ps.call("analysis.llc"):
                llc = p.analysis.llc_constants(loaded, seed=ESTIMATOR_SEED)
        with ps.stage("check.regularity"):
            with ps.call("analysis.regularity"):
                reg = p.analysis.regularity_constant(loaded, Q, seed=ESTIMATOR_SEED,
                                                     with_doubling=False)
            with ps.call("analysis.doubling"):
                m_hat = p.analysis.doubling_constant(loaded, radii=reg.radii or None,
                                                     centers=reg.centers, seed=reg.seed)
        with ps.stage("check.quasicircle"):
            rim = p.space.subspace(base, ds.rim)
            with ps.call("analysis.quasicircle"):
                qc = p.analysis.quasicircle_check(rim, seed=ESTIMATOR_SEED)
        return {"base": base, "doubled": ds, "loaded": loaded, "llc": llc,
                "regularity": reg, "m_hat": m_hat, "quasicircle": qc}

    def check(self, out: dict) -> list:
        np = self.prog.np
        base, ds, loaded = out["base"], out["doubled"], out["loaded"]
        fails = []
        for name, a, b in (("input", self.space, base), ("doubled", ds.doubled, loaded)):
            if not same_space(a, b):
                fails.append(f"{name} space did not survive save/load bit for bit")
        bi, side = ds.base_index, ds.side
        d2 = ds.doubled.dist
        inherited = base.dist[np.ix_(bi, bi)]
        same = (side[:, None] == side[None, :]) | (side[:, None] == 0) | (side[None, :] == 0)
        if not (d2[same] == inherited[same]).all():
            fails.append("a same-side doubled distance differs from the base distance")
        if not (d2[~same] >= inherited[~same]).all():
            fails.append("a cross-side distance is below the base distance of its projections")
        if not out["llc"].usable:
            fails.append("llc configuration is unusable")
        if out["regularity"].infinite:
            fails.append("regularity found a zero-measure ball")
        if not out["quasicircle"].passed:
            fails.append("the rim fails the quasicircle check")
        return fails

    def digest(self, out: dict) -> str:
        fields = {k: dataclasses.asdict(out[k]) for k in ("llc", "regularity", "quasicircle")}
        fields["m_hat"] = int(out["m_hat"])
        return sha256_digest(out["loaded"].dist, fields)

    def counters(self, out: dict) -> dict:
        ds, llc, reg = out["doubled"], out["llc"], out["regularity"]
        written = self.doubled_path.stat().st_size
        return {
            "space.written_bytes": written,
            "space.read_bytes": self.input_path.stat().st_size + written,
            "glue.rim_points": len(ds.rim),
            "glue.out_points": ds.doubled.n,
            "analysis.llc.configs": llc.evaluated1 + llc.evaluated2,
            "analysis.llc.skipped": llc.skipped,
            "analysis.regularity.balls": reg.evaluated,
            "analysis.doubling.balls": len(reg.centers) * len(reg.radii),
        }

    def cleanup(self) -> None:
        for path in (self.input_path, self.doubled_path):
            path.unlink(missing_ok=True)


KINDS = {"warp": WarpWorkload, "double": DoubleWorkload}


def same_space(a, b) -> bool:
    def same(x, y):
        if x is None or y is None:
            return x is None and y is None
        return x.shape == y.shape and x.tobytes() == y.tobytes()
    return (a.points == b.points and same(a.dist, b.dist) and same(a.mass, b.mass)
            and a.boundary == b.boundary)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND passes
    above it; with too few passes for that, the slowest pass (p100)."""
    ordered = sorted(times)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


def rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(wl, pid, recorder, ref: Reference, heap: bool = False) -> dict:
    """Run, time the reference work after, check and digest one pass.  With
    ``heap``, the pass runs under tracemalloc, which counts only blocks
    allocated after it starts, and records the peak of the pass's live
    allocations."""
    rec = {"id": pid, "traced": recorder is not None, "heap": heap, "failures": []}
    recorder = recorder or NoSpans()
    gc.collect()  # start every pass from the same collector state
    if heap:
        tracemalloc.start()
    c0, t0 = time.process_time(), time.perf_counter()
    out = None
    try:
        with recorder(f"pass{pid}", pid, "pass"):
            out = wl.run_pass(PassSpans(recorder, pid))
    except Exception:
        rec["failures"].append(traceback.format_exc(limit=3))
    finally:
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - c0
        if heap:
            rec["heap_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
    c0, t0 = time.process_time(), time.perf_counter()
    ref.run()
    rec["ref_wall_s"] = time.perf_counter() - t0
    rec["ref_cpu_s"] = time.process_time() - c0
    if out is not None:
        rec["failures"] += wl.check(out)
        rec["digest"] = wl.digest(out)
        rec["counters"] = wl.counters(out)
    return rec


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 prog: Program, reference: dict) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    wl = KINDS[WORKLOADS[name]["kind"]](name, prog, seed, OUT_DIR)
    spans = Spans() if trace else NoSpans()
    ref = Reference(prog)
    try:
        setups = []
        for k in range(SETUP_REPS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            wl.generate(PassSpans(spans, f"setup{k}"))
            setups.append({"import_s": t_import, "inputs_s": time.perf_counter() - t0})
        setup_rss = rss_mb()

        passes = []
        start = time.perf_counter()
        while True:
            done = [p["wall_s"] for p in passes]
            if len(passes) >= MIN_PASSES and (
                    time.perf_counter() - start + statistics.median(done) > seconds):
                break
            pid = len(passes)
            traced = trace and pid % 2 == 0
            passes.append(run_pass(wl, pid, spans if traced else None, ref))
        rss = {"setup": setup_rss, "peak": rss_mb()}  # before tracemalloc's own tables
        # One more pass, untimed, for the heap peak: tracemalloc slows it.
        passes.append(run_pass(wl, len(passes), None, ref, heap=True))

        digests = {p["digest"] for p in passes if "digest" in p}
        expected = reference.get(name) if seed == DEFAULT_SEED else None
        for p in passes:
            if "digest" not in p:
                continue
            if len(digests) > 1:
                p["failures"].append("pass digests differ within the run")
            if expected is not None and p["digest"] != expected:
                p["failures"].append(f"digest {p['digest']} != reference {expected}")
        return summarize(wl, passes, setups, rss, spans, trace)
    finally:
        wl.cleanup()


def summarize(wl, passes, setups, rss, spans, trace) -> dict:
    med = statistics.median
    failed = sum(1 for p in passes if p["failures"])
    timed = [p for p in passes if not p["heap"]]
    walls = [p["wall_s"] for p in timed]
    rel_tail, tail_pct = tail([p["wall_s"] / p["ref_wall_s"] for p in timed])
    report = {
        "pass_rel": med(p["wall_s"] / p["ref_wall_s"] for p in timed),
        "pass_rel_tail": rel_tail,
        "cpu_rel": med(p["cpu_s"] / p["ref_cpu_s"] for p in timed),
        "peak_rss_mb": rss["peak"],
        "pass_heap_mb": med(p["heap_mb"] for p in passes if p["heap"]),
        "setup_s": med(s["import_s"] + s["inputs_s"] for s in setups),
        "pass_s": med(walls),
        "pass_s_tail": tail(walls)[0],
        "cpu_s": med(p["cpu_s"] for p in timed),
        "ref_s": med(p["ref_wall_s"] for p in timed),
        "setup_rss_mb": rss["setup"],
        "written_mb": med(p.get("counters", {}).get("space.written_bytes", 0)
                          for p in timed) / 1e6,
        "fail_frac": failed / len(passes),
    }
    layers = {}
    if trace:
        traced = [p for p in timed if p["traced"]]
        untraced = [p for p in timed if not p["traced"]]
        per_pass = [spans.call_seconds(p["id"]) for p in traced]
        setup_calls = [spans.call_seconds(f"setup{k}") for k in range(len(setups))]
        for metric, unit in PER_LAYER.items():
            # A layer is absent when no traced pass called it.
            if metric == "trace.overhead_frac":
                values = [med(p["wall_s"] for p in traced)
                          / med(p["wall_s"] for p in untraced) - 1.0]
            elif unit == "s":
                calls = setup_calls if metric.startswith("generators.") else per_pass
                values = [c[metric[:-2]] for c in calls if metric[:-2] in c]
            else:
                values = [p["counters"][metric] for p in traced
                          if metric in p.get("counters", {})]
            if values:
                layers[metric] = med(values)
    return {
        "workload": wl.name, "passes": passes, "failed": failed, "report": report,
        "tail_percentile": tail_pct, "timed_passes": len(timed), "layers": layers, "setups": setups,
        "spans": spans.records if trace else [], "sizes": wl.sizes(),
    }


def result_line(res: dict, trace: bool) -> dict:
    """The JSON object the last output line carries."""
    metrics = {}
    if trace:
        for metric, unit in PER_LAYER.items():
            # Every per-layer metric appears; a layer the workload never
            # calls reads 0 and is listed as absent in the report.
            metrics[metric] = {"value": res["layers"].get(metric, 0), "unit": unit}
    else:
        for metric, unit in END_TO_END.items():
            metrics[metric] = {"value": res["report"][metric], "unit": unit}
    return {"correct": res["failed"] == 0, "attempted": len(res["passes"]),
            "failed": res["failed"], "metrics": metrics}


def print_report(res: dict, trace: bool) -> None:
    w = res["workload"]
    passes = res["passes"]
    print(f"workload {w}: {len(passes)} passes, {res['failed']} failed")
    for p in passes:
        state = "ok" if not p["failures"] else "FAILED: " + "; ".join(
            f.strip().splitlines()[-1] for f in p["failures"])
        kind = " traced" if p["traced"] else " heap, untimed" if p["heap"] else ""
        print(f"  pass {p['id']}{kind}: "
              f"{p['wall_s']:.4f} s wall, {p['cpu_s']:.4f} s cpu, "
              f"digest {p.get('digest', '-')[:16]} {state}")
    if trace:
        for metric, unit in PER_LAYER.items():
            value = res["layers"].get(metric)
            shown = "absent" if value is None else f"{value:.6g} {unit}"
            print(f"  {w} {metric} = {shown}")
        return
    units = {**END_TO_END, **REPORT_ONLY}
    for metric, unit in units.items():
        note = ""
        if metric in ("pass_rel_tail", "pass_s_tail"):
            note = f"  (p{res['tail_percentile']:.1f} of {res['timed_passes']} passes)"
        print(f"  {w} {metric} = {res['report'][metric]:.6g} {unit}{note}")


def run_all(args) -> int:
    """Run every workload in a child process and merge the result lines,
    with the workload name as a prefix of each metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    threads_before = os.environ.pop("METRICFORGE_THREADS", None)
    try:
        prog = Program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE_FILE.read_text())
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       prog, reference)
    env = environment(prog, args.seed, threads_before, res["sizes"])
    print_report(res, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    line = result_line(res, bool(args.trace))
    record = {"env": env, "args": vars(args), "result": line, "run": res}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1, default=repr))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
