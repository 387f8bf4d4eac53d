"""Tests of the benchmark itself, with the warp workloads shrunk to tiny n.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

import contextlib
import dataclasses
import importlib.util
import io
import json
import statistics
import subprocess
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def prog():
    return run.Program()


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Shrink the warp workloads, whose digests then match no reference."""
    for name in ("warp-disk", "warp-graph"):
        monkeypatch.setitem(run.WORKLOADS, name,
                            dict(run.WORKLOADS[name], params={"n": 40}, samples=20_000))
    empty = tmp_path / "reference.json"
    empty.write_text("{}")
    monkeypatch.setattr(run, "REFERENCE_FILE", empty)


def in_process_children(monkeypatch):
    """Run the children of ``--workload all`` in this process, so that they
    see the shrunk workloads."""
    real = subprocess.run

    def fake_run(cmd, **kwargs):
        if cmd[1:2] != [str(BENCH / "run.py")]:
            return real(cmd, **kwargs)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(cmd[2:])
        return subprocess.CompletedProcess(cmd, code, out.getvalue(), "")
    monkeypatch.setattr(run.subprocess, "run", fake_run)


def main_output(capsys, *args):
    code = run.main(["--seconds", "0", *args])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def small_run(prog, workload, seconds=0.0, trace=False, reference=None):
    return run.run_workload(workload, run.DEFAULT_SEED, seconds, trace, prog,
                            reference or {})


def test_declared_metrics_match_the_benchmark_file():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(capsys, monkeypatch, trace):
    in_process_children(monkeypatch)
    code, lines, result = main_output(capsys, "--workload", "all", "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    declared = run.PER_LAYER if trace else run.END_TO_END
    printed = run.PER_LAYER if trace else {**run.END_TO_END, **run.REPORT_ONLY}
    for workload in run.WORKLOADS:
        for name, unit in declared.items():
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
        for name, unit in printed.items():
            hits = [ln for ln in lines if ln.strip().startswith(f"{workload} {name} = ")]
            assert len(hits) == 1, (workload, name)
            assert hits[0].split(" = ")[1] == "absent" or f" {unit}" in hits[0]
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert env["METRICFORGE_THREADS"] == "unset"
    assert {"nproc", "python", "numpy", "scipy", "git_commit", "seed"} <= set(env)
    assert {"n", "matrix_bytes"} <= set(env["workload"])


def test_single_workload_line_has_exactly_the_declared_metrics(capsys):
    code, _, result = main_output(capsys, "--workload", "warp-graph", "--trace", "0")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _perturbed_warp(real, on_call, direction):
    calls = []

    def fake(m, p):
        w = real(m, p)
        calls.append(1)
        if len(calls) == on_call:
            d = w.warped.dist.copy()
            d[1, 2] = np.nextafter(d[1, 2], direction)
            w = dataclasses.replace(w, warped=dataclasses.replace(w.warped, dist=d))
        return w
    return fake


@pytest.mark.parametrize("on_call,direction", [(2, 0.0), (1, 10.0)])
def test_one_ulp_in_the_warped_matrix_counts_as_failed(prog, monkeypatch, capsys,
                                                        on_call, direction):
    # One ulp down on the second pass passes every per-pass check, so only
    # the digest comparison can catch it; one ulp up on a disk sample, where
    # no pair is shortened by chaining, also exceeds min(rho, rho^T).
    monkeypatch.setattr(prog.warp, "warp", _perturbed_warp(prog.warp.warp, on_call, direction))
    code, lines, result = main_output(capsys, "--workload", "warp-disk")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    frac = next(ln for ln in lines if "warp-disk fail_frac = " in ln)
    assert float(frac.split(" = ")[1].split()[0]) > 0


def test_truncated_saved_file_counts_as_failed(prog, monkeypatch):
    real = prog.space.save_space

    def truncating(m, path):
        real(m, path)
        if "doubled" in Path(path).name:
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[: len(data) // 2])

    monkeypatch.setattr(prog.space, "save_space", truncating)
    res = small_run(prog, "double-files")
    assert res["failed"] == len(res["passes"]) >= 2
    assert res["report"]["fail_frac"] == 1.0


def test_reference_digest_mismatch_counts_as_failed(prog):
    res = small_run(prog, "warp-graph", reference={"warp-graph": "0" * 64})
    assert res["failed"] == len(res["passes"]) >= 3
    assert all("reference" in p["failures"][-1] for p in res["passes"])


def test_gated_timings_divide_each_pass_by_its_reference_work(prog):
    res = small_run(prog, "warp-disk")
    timed = [p for p in res["passes"] if not p["heap"]]
    assert all(p["ref_wall_s"] > 0 and p["ref_cpu_s"] > 0 for p in res["passes"])
    report = res["report"]
    med = statistics.median
    assert report["pass_rel"] == med(p["wall_s"] / p["ref_wall_s"] for p in timed)
    assert report["cpu_rel"] == med(p["cpu_s"] / p["ref_cpu_s"] for p in timed)
    assert report["pass_s"] == med(p["wall_s"] for p in timed)


def test_heap_pass_is_untimed_and_checked(prog):
    res = small_run(prog, "warp-disk")
    *timed, heap = res["passes"]
    assert heap["heap"] and not any(p["heap"] for p in timed)
    assert heap["heap_mb"] > 0 and heap["digest"] == timed[0]["digest"]
    assert res["timed_passes"] == len(timed)
    assert res["report"]["pass_heap_mb"] == heap["heap_mb"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_has_one_span_per_stage_per_pass(prog, workload):
    res = small_run(prog, workload, seconds=0.05, trace=True)
    kind = run.WORKLOADS[workload]["kind"]
    stages = run.KINDS[kind].stages
    spans = res["spans"]
    by_id = {s["id"]: s for s in spans}
    traced = [p["id"] for p in res["passes"] if p["traced"]]
    untraced = [p["id"] for p in res["passes"] if not p["traced"]]
    assert traced and untraced
    for pid in traced:
        (root,) = [s for s in spans if s["pass"] == pid and s["level"] == "pass"]
        recorded = [s for s in spans if s["pass"] == pid and s["level"] == "stage"]
        assert tuple(s["name"] for s in recorded) == stages
        assert all(s["parent"] == root["id"] for s in recorded)
        calls = [s for s in spans if s["pass"] == pid and s["level"] == "call"]
        assert calls and all(by_id[c["parent"]]["level"] == "stage" for c in calls)
        assert all(s["start"] <= s["end"] for s in recorded + calls)
    assert not [s for s in spans if s["pass"] in untraced]
    setup_stages = [s["name"] for s in spans if str(s["pass"]).startswith("setup")
                    and s["level"] == "stage"]
    assert setup_stages == ["generate"] * run.SETUP_REPS
    layers = res["layers"]
    if kind == "warp":
        assert not {"space.save_s", "space.load_s"} & set(layers)
        assert layers["space.validate.violations"] == 0
        assert (layers["warp.chained_frac"] == 0) == (workload == "warp-disk")
    else:
        assert not {"warp.warp_s", "space.validate_s"} & set(layers)
