import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricforge as mf
from metricforge import cli, generators, space
from metricforge.cli import _jsonable, main


@pytest.fixture()
def three_point_file(tmp_path, three_point):
    path = tmp_path / "space.json"
    mf.save_space(three_point, path)
    return path


@pytest.fixture()
def marked_line_file(tmp_path, marked_line):
    path = tmp_path / "line.json"
    mf.save_space(marked_line, path)
    return path


class TestGenerate:
    def test_grid_file_and_manifest(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(["generate", "--kind", "grid", "--side", "33",
                     "--spacing", "0.03125", "-o", str(out)])
        assert code == 0
        space = mf.load_space(out)
        assert space.n == 1089
        manifest = json.loads((tmp_path / "grid.json.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["params"]["side"] == 33
        assert "duration_s" in manifest

    def test_sphere_cap_marks_boundary(self, tmp_path):
        out = tmp_path / "cap.json"
        code = main(["generate", "--kind", "sphere-cap", "--eps", "0.2",
                     "--n", "300", "--seed", "7", "-o", str(out)])
        assert code == 0
        assert mf.load_space(out).boundary

    def test_unknown_flag_combo(self, tmp_path):
        code = main(["generate", "--kind", "grid", "-o", str(tmp_path / "x.json")])
        assert code == 2  # missing side/spacing

    def test_option_the_kind_does_not_take_is_usage_error(self, tmp_path, capsys):
        # A grid has no seed; the option was once ignored and still recorded.
        out = tmp_path / "x.json"
        code = main(["generate", "--kind", "grid", "--side", "3", "--spacing", "1",
                     "--seed", "4", "-o", str(out)])
        assert code == 2
        assert "generator 'grid'" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.filterwarnings("error")  # --spacing inf once warned before exit 2
    @pytest.mark.parametrize("options, name", [
        (["--kind", "random-metric", "--n", "20", "--edge-density", "nan"], "edge_density"),
        (["--kind", "random-metric", "--n", "20", "--edge-density", "-1"], "edge_density"),
        (["--kind", "halfplane", "--n", "20", "--height", "0"], "height"),
        (["--kind", "halfplane", "--n", "20", "--width", "-2"], "width"),
        (["--kind", "grid", "--side", "3", "--spacing", "inf"], "spacing"),
    ])
    def test_out_of_range_parameter_is_usage_error(self, tmp_path, capsys, options, name):
        out = tmp_path / "x.json"
        assert main(["generate", *options, "-o", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()


def test_outputs_go_into_new_directories(tmp_path):
    space_file, report = tmp_path / "a" / "b" / "x.json", tmp_path / "c" / "r.json"
    assert main(["generate", "--kind", "disk", "--n", "20", "-o", str(space_file)]) == 0
    assert main(["check", str(space_file), "--suite", "metric", "-o", str(report)]) == 0
    for out in (space_file, report):
        manifest = out.with_name(out.name + ".manifest.json")
        assert out.is_file() and manifest.is_file()
        assert json.loads(manifest.read_text())["outputs"] == [str(out)]


class TestWarpCommand:
    def test_warp_writes_expected_distance(self, tmp_path, three_point_file):
        out = tmp_path / "warped.json"
        code = main(["warp", str(three_point_file), "--basepoint", "p",
                     "-o", str(out)])
        assert code == 0
        warped = mf.load_space(out)
        assert warped.points[-1] == mf.INFINITY_LABEL
        a, b = warped.points.index("a"), warped.points.index("b")
        assert warped.dist[a, b] == pytest.approx(1 / 6, abs=1e-12)

    def test_unknown_basepoint(self, tmp_path, three_point_file, capsys):
        code = main(["warp", str(three_point_file), "--basepoint", "zz",
                     "-o", str(tmp_path / "w.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown point label 'zz'\n"

    def test_missing_input(self, tmp_path):
        code = main(["warp", str(tmp_path / "nope.json"), "--basepoint", "p",
                     "-o", str(tmp_path / "w.json")])
        assert code == 2

    def test_warping_a_warped_file_is_usage_error(self, tmp_path, three_point_file, capsys):
        once = tmp_path / "warped.json"
        assert main(["warp", str(three_point_file), "--basepoint", "p",
                     "-o", str(once)]) == 0
        twice = tmp_path / "twice.json"
        code = main(["warp", str(once), "--basepoint", "p", "-o", str(twice)])
        assert code == 2
        assert "reserved" in capsys.readouterr().err
        assert not twice.exists()

    def test_non_finite_distance_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text('{"dist": [[0.0, 1.0, Infinity], [1.0, 0.0, 1.0], '
                        '[Infinity, 1.0, 0.0]], "points": ["p", "a", "b"]}')
        code = main(["warp", str(path), "--basepoint", "p",
                     "-o", str(tmp_path / "w.json")])
        assert code == 2
        assert "finite and nonnegative" in capsys.readouterr().err


class TestDoubleCommand:
    def test_marked_line_doubles_to_five_points(self, tmp_path, marked_line_file):
        out = tmp_path / "doubled.json"
        assert main(["double", str(marked_line_file), "-o", str(out)]) == 0
        assert mf.load_space(out).n == 5

    def test_colliding_doubled_labels_are_usage_error(self, tmp_path, capsys):
        path = tmp_path / "clash.json"
        m = mf.FiniteMetricSpace(("a", "a#1", "c"), 1.0 - np.eye(3), boundary={1})
        mf.save_space(m, path)
        assert main(["double", str(path), "-o", str(tmp_path / "d.json")]) == 2
        assert "duplicate point label" in capsys.readouterr().err

    def test_unmarked_space_fails(self, tmp_path, three_point_file):
        code = main(["double", str(three_point_file), "-o", str(tmp_path / "d.json")])
        assert code == 2


class TestCheckCommand:
    def test_metric_suite_pass(self, tmp_path, three_point_file):
        out = tmp_path / "report.json"
        code = main(["check", str(three_point_file), "--suite", "metric",
                     "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["ok"] is True

    def test_non_finite_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"dist": [[NaN, NaN], [NaN, NaN]], "points": ["a", "b"]}')
        assert main(["check", str(path), "--suite", "metric"]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err

    def test_duplicate_labels_are_usage_error(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"points": ["a", "a"],
                                    "dist": [[0.0, 1.0], [1.0, 0.0]]}))
        assert main(["check", str(path), "--suite", "metric"]) == 2
        assert "duplicate point label 'a'" in capsys.readouterr().err

    def test_metric_suite_fail(self, tmp_path):
        bad = mf.FiniteMetricSpace(("a", "b", "c"), np.array([
            [0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]))
        path = tmp_path / "bad.json"
        mf.save_space(bad, path)
        assert main(["check", str(path), "--suite", "metric"]) == 1

    def test_regularity_suite_grid(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        main(["generate", "--kind", "grid", "--side", "33", "--spacing",
              "0.03125", "-o", str(grid_path)])
        out = tmp_path / "reg.json"
        code = main(["check", str(grid_path), "--suite", "regularity",
                     "--q", "2", "--radii", "0.125,0.25",
                     "--claim-k", "6.2832", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["K_hat"] <= 6.2832

    def test_regularity_claim_failure_exit(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        main(["generate", "--kind", "grid", "--side", "9", "--spacing",
              "0.125", "-o", str(grid_path)])
        code = main(["check", str(grid_path), "--suite", "regularity",
                     "--q", "2", "--claim-k", "1.0"])
        assert code == 1

    def test_regularity_without_an_evaluated_ball_is_diagnostic(self, tmp_path):
        # Unit spacing on a 3x3 grid leaves no radius in the default window.
        grid_path = tmp_path / "grid.json"
        assert main(["generate", "--kind", "grid", "--side", "3", "--spacing", "1",
                     "-o", str(grid_path)]) == 0
        out = tmp_path / "reg.json"
        code = main(["check", str(grid_path), "--suite", "regularity",
                     "--q", "2", "--claim-k", "1.0", "-o", str(out)])
        assert code == 3
        report = json.loads(out.read_text())
        assert report["evaluated"] == 0 and "ok" not in report

    def test_distortion_suite_against_warp(self, tmp_path):
        src = tmp_path / "m.json"
        mf.save_space(mf.random_metric(24, seed=3), src)
        dst = tmp_path / "w.json"
        main(["warp", str(src), "--basepoint", "p0", "-o", str(dst)])
        out = tmp_path / "qm.json"
        csv_out = tmp_path / "envelope.csv"
        code = main(["check", str(src), "--suite", "distortion", "--kind", "qm",
                     "--dst", str(dst), "--claim-gauge", "16",
                     "-o", str(out), "--csv", str(csv_out)])
        assert code == 0
        claim = json.loads(out.read_text())["claim"]
        assert claim["passed"] is True and claim["description"] == "16.0t"
        assert csv_out.read_text().startswith("bin_upper,envelope,count")
        # The manifest names every file read and written; -o is one of them.
        manifest = json.loads((tmp_path / "qm.json.manifest.json").read_text())
        assert manifest["inputs"] == [str(src), str(dst)]
        assert manifest["outputs"] == [str(out), str(csv_out)]
        assert "out" not in manifest["params"] and manifest["params"]["gauge"] == 16.0

    def test_default_distortion_reports_are_named_by_kind(self, tmp_path):
        # Both were once <input>.distortion.json: the qs check replaced the qm one.
        src, dst = tmp_path / "m.json", tmp_path / "w.json"
        mf.save_space(mf.random_metric(24, seed=3), src)
        assert main(["warp", str(src), "--basepoint", "p0", "-o", str(dst)]) == 0
        for kind in ([], ["--kind", "qs"]):  # qm when no kind is given
            assert main(["check", str(src), "--suite", "distortion", "--dst", str(dst),
                         *kind]) == 0
        reports = [tmp_path / f"m.distortion-{kind}.json" for kind in ("qm", "qs")]
        manifests = [r.with_name(r.name + ".manifest.json") for r in reports]
        assert sorted(tmp_path.iterdir()) == sorted([src, dst, *reports, *manifests,
                                                     dst.with_name("w.json.manifest.json")])
        assert [json.loads(r.read_text())["kind"] for r in reports] == ["QM", "QS"]

    def test_one_rule_decides_every_exit_code(self, tmp_path, circle_256):
        # A report that evaluated nothing exits 3 and has no "ok"; any other
        # has "ok", and exits 0 when it holds and 1 when not.  A distortion
        # check with no tuple once passed with "ok": true, and a usable
        # quasicircle report had no "ok".
        files = {"disk": mf.disk_sample(120, seed=1), "small": mf.disk_sample(31, seed=1),
                 "circle": circle_256, "pair": mf.subspace(circle_256, [0, 1])}
        for name, m in files.items():
            mf.save_space(m, tmp_path / f"{name}.json")
        assert main(["warp", str(tmp_path / "small.json"), "--basepoint", "p0",
                     "-o", str(tmp_path / "warped.json")]) == 0
        dst = ["--dst", str(tmp_path / "warped.json")]
        cases = [  # (file, suite, options, whether anything is evaluated)
            ("disk", "metric", [], True),
            ("disk", "llc", ["--claim-lambda1", "1"], True),
            ("disk", "llc", ["--delta", "0.001"], False),  # a disconnected delta-graph
            ("disk", "regularity", ["--q", "2", "--claim-k", "1"], True),
            ("disk", "regularity", ["--q", "2", "--radii", "10"], False),  # above the diameter
            ("small", "distortion", dst + ["--claim-gauge", "16"], True),
            ("small", "distortion", dst + ["--samples", "1", "--seed", "6",
                                           "--claim-gauge", "1e-9"], False),  # no tuple
            ("circle", "quasicircle", [], True),
            ("pair", "quasicircle", [], False),  # too few points for a curve
        ]
        for name, suite, options, evaluated in cases:
            out = tmp_path / f"{suite}-{evaluated}.json"
            code = main(["check", str(tmp_path / f"{name}.json"), "--suite", suite, *options,
                         "-o", str(out)])
            report = json.loads(out.read_text())
            if evaluated:
                assert code == (0 if report["ok"] else 1), (suite, options)
            else:
                assert code == 3 and "ok" not in report, (suite, options)

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_sampled_distortion_without_samples_is_usage_error(self, tmp_path, capsys,
                                                               samples):
        src = tmp_path / "m.json"
        mf.save_space(mf.random_metric(40, seed=3), src)
        dst = tmp_path / "w.json"
        main(["warp", str(src), "--basepoint", "p0", "-o", str(dst)])
        out = tmp_path / "qm.json"
        code = main(["check", str(src), "--suite", "distortion", "--kind", "qm",
                     "--dst", str(dst), "--claim-gauge", "0.001",
                     "--samples", samples, "-o", str(out)])
        assert code == 2
        assert "n_samples" in capsys.readouterr().err
        assert not out.exists()

    def test_infinities_keep_their_sign(self, tmp_path, three_point_file, capsys):
        assert _jsonable([math.inf, -math.inf, np.float64(-np.inf), math.nan]) == [
            "inf", "-inf", "-inf", "nan"]
        # Three points hold no four distinct ones: a claim would see no tuple.
        out = tmp_path / "qm.json"
        code = main(["check", str(three_point_file), "--suite", "distortion", "--kind", "qm",
                     "--dst", str(three_point_file), "--claim-gauge", "1", "-o", str(out)])
        assert code == 2
        assert "needs at least 4 points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dst_n, claim, message", [
        # A zero gauge makes every ratio inf: such a check failed with a meaningless witness.
        (40, "0", "gauge must be finite and positive, got 0.0"),
        # A NaN gauge once passed with no witness.
        (40, "nan", "gauge must be finite and positive, got nan"),
        (5, "16", "destination is missing a source label: unknown point label 'p5'\n"),
    ])
    def test_refused_distortion_input_is_usage_error(self, tmp_path, capsys, dst_n, claim,
                                                     message):
        src, dst = tmp_path / "src.json", tmp_path / "dst.json"
        mf.save_space(mf.disk_sample(40, seed=1), src)
        mf.save_space(mf.disk_sample(dst_n, seed=2), dst)
        out = tmp_path / "qm.json"
        assert main(["check", str(src), "--suite", "distortion", "--dst", str(dst),
                     "--claim-gauge", claim, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [dst, src]

    def test_claim_with_no_defined_ratio_is_diagnostic(self, tmp_path):
        # Into a space whose distances are all 0 every output ratio is 0/0:
        # the claim checked nothing, yet it once passed with "ok": true.
        m = mf.random_metric(8, seed=1)
        src, dst, out = tmp_path / "src.json", tmp_path / "zero.json", tmp_path / "qm.json"
        mf.save_space(m, src)
        mf.save_space(mf.FiniteMetricSpace(m.points, np.zeros((8, 8))), dst)
        argv = ["check", str(src), "--suite", "distortion", "--dst", str(dst), "-o", str(out)]
        assert main(argv) == 0  # without a claim, the envelope is the answer
        assert main(argv + ["--claim-gauge", "1"]) == 3
        report = json.loads(out.read_text())
        assert "ok" not in report and sum(report["counts"]) == 1680
        assert not report["claim"]["passed"] and report["claim"]["worst_witness"] is None

    def test_lambda_max_sets_the_grid(self, tmp_path, circle_256):
        # The CLI once counted ceil(4 log2 lambda_max) grid steps, which rounds
        # up at sqrt(2): its grid ran one value past, to 2 ** 0.75.
        path, out = tmp_path / "circle.json", tmp_path / "llc.json"
        mf.save_space(circle_256, path)
        assert main(["check", str(path), "--suite", "llc", "--lambda-max", repr(math.sqrt(2)),
                     "-o", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["grid"] == [1.0, 2 ** 0.25, 2 ** 0.5]

    def test_llc_unusable_delta_is_diagnostic(self, tmp_path):
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(60, seed=1), path)
        code = main(["check", str(path), "--suite", "llc", "--delta", "0.001"])
        assert code == 3

    def test_lambda_max_below_one_is_usage_error(self, tmp_path, capsys, circle_256):
        path = tmp_path / "circle.json"
        mf.save_space(circle_256, path)
        for suite in ("llc", "quasicircle"):
            assert main(["check", str(path), "--suite", suite, "--lambda-max", "0.5"]) == 2
            assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "inf", "nan", "-2", "1.7e308"])
    def test_lambda_max_must_be_finite_and_at_least_one(self, tmp_path, capsys, circle_256,
                                                        value):
        # 0 once fell back to the default grid, and inf and 1.7e308 overflowed
        # the grid size: 1.7e308 with an OverflowError traceback and exit 1.
        path = tmp_path / "circle.json"
        mf.save_space(circle_256, path)
        for suite in ("llc", "quasicircle"):
            out = tmp_path / f"{suite}.json"
            code = main(["check", str(path), "--suite", suite, "--lambda-max", value,
                         "-o", str(out)])
            assert code == 2
            assert re.search(r"lambda_max must be (at least 1|finite and positive|at most "
                             r"2 \*\* \(4095 / 4\)), got",
                             capsys.readouterr().err)
            assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("option", [["--q", "nan"], ["--q", "inf"], ["--q", "0"],
                                        ["--q", "-1"], ["--q", "2", "--eps", "nan"],
                                        ["--q", "2", "--eps", "0"]])
    def test_regularity_parameters_are_checked(self, tmp_path, capsys, option):
        path = tmp_path / "grid.json"
        mf.save_space(mf.euclidean_grid(9, 0.125), path)
        out = tmp_path / "reg.json"
        code = main(["check", str(path), "--suite", "regularity", *option, "-o", str(out)])
        assert code == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-0.5"])
    def test_bad_radius_is_usage_error(self, tmp_path, capsys, radius):
        # A NaN radius once evaluated an empty ball and passed with "ok": true.
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(80, seed=1), path)
        out = tmp_path / "reg.json"
        code = main(["check", str(path), "--suite", "regularity", "--q", "2",
                     "--radii", f"0.5,{radius}", "-o", str(out)])
        assert code == 2
        assert "radii must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["llc", "quasicircle"])
    @pytest.mark.parametrize("delta", ["0", "-0.5", "nan"])
    def test_nonpositive_delta_is_usage_error(self, tmp_path, capsys, suite, delta):
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(60, seed=1), path)
        out = tmp_path / "r.json"
        code = main(["check", str(path), "--suite", suite, "--delta", delta, "-o", str(out)])
        assert code == 2
        assert "delta must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_quasicircle_suite(self, tmp_path, circle_256):
        path = tmp_path / "circle.json"
        mf.save_space(circle_256, path)
        code = main(["check", str(path), "--suite", "quasicircle",
                     "--max-lambda", "2", "--max-doubling", "8"])
        assert code == 0

    def test_quasicircle_on_a_sparse_disk_evaluates_nothing(self, tmp_path):
        # Three points: the default delta, 2.5 times the largest gap, reaches
        # the diameter.  llc exits 3 there, and quasicircle once exited 2,
        # refusing a delta that was never given.
        path = tmp_path / "three.json"
        assert main(["generate", "--kind", "disk", "--n", "3", "--seed", "2",
                     "-o", str(path)]) == 0
        for suite in ("llc", "quasicircle"):
            out = tmp_path / f"three.{suite}.json"
            assert main(["check", str(path), "--suite", suite, "-o", str(out)]) == 3
            assert "ok" not in json.loads(out.read_text())

    @pytest.mark.parametrize("suite, option", [
        ("quasicircle", "--max-lambda"), ("quasicircle", "--max-doubling"),
        ("regularity", "--claim-k"),
        ("llc", "--claim-lambda1"), ("llc", "--claim-lambda2"),
    ])
    @pytest.mark.parametrize("value", ["nan", "0.5", "0", "-1"])
    def test_threshold_below_one_is_usage_error(self, tmp_path, capsys, suite, option,
                                                value):
        # No constant here is below 1: such a threshold was once reported as
        # a failed check, exit 1, where it is a usage error.
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(40, seed=1), path)
        extra = ["--q", "2"] if suite == "regularity" else []
        code = main(["check", str(path), "--suite", suite, *extra, option, value,
                     "-o", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert option in err or option.lstrip("-").replace("-", "_") in err
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("option", ["--n-centers", "--n-radii"])
    def test_quasicircle_forwards_sample_counts(self, tmp_path, option):
        # A disk is no quasicircle: its failures depend on the sampled configurations.
        disk = mf.disk_sample(200, seed=1)
        path = tmp_path / "disk.json"
        mf.save_space(disk, path)
        reports = []
        for extra in ([], [option, "3"]):
            out = tmp_path / f"qc{len(extra)}.json"
            main(["check", str(path), "--suite", "quasicircle", "-o", str(out)] + extra)
            reports.append(json.loads(out.read_text()))
        assert reports[0] != reports[1]
        # Left out, the library default stands: 48 centers, not the 32 of llc.
        lib = dataclasses.asdict(mf.quasicircle_check(disk))
        assert lib["usable"]  # so the report carries "ok"
        assert reports[0] == json.loads(json.dumps(lib | {"suite": "quasicircle",
                                                          "ok": lib["passed"]}))

    @pytest.mark.parametrize("suite, options, call", [
        ("llc", [], mf.llc_constants),
        ("regularity", ["--q", "2"], lambda m: mf.regularity_constant(m, 2.0)),
    ])
    def test_report_without_options_is_the_library_default(self, tmp_path, suite,
                                                           options, call):
        disk = mf.disk_sample(200, seed=1)
        path = tmp_path / "disk.json"
        mf.save_space(disk, path)
        out = tmp_path / "r.json"
        assert main(["check", str(path), "--suite", suite, *options, "-o", str(out)]) in (0, 1)
        lib = dataclasses.asdict(call(disk)) | {"suite": suite}
        report = json.loads(out.read_text())
        report.pop("ok")
        assert report == json.loads(json.dumps(_jsonable(lib)))

    @pytest.mark.parametrize("suite, options, name", [
        ("metric", ["--seed", "3"], "'seed'"),
        ("llc", ["--q", "2"], "'Q'"),
        ("llc", ["--claim-k", "1"], "'claim_k'"),
        ("regularity", ["--q", "2", "--delta", "0.3"], "'delta'"),
        ("regularity", ["--q", "2", "--n-radii", "3"], "'n_radii'"),
        ("quasicircle", ["--samples", "5"], "'n_samples'"),
        ("distortion", ["--dst", "{path}", "--lambda-max", "2"], "'lambda_max'"),
    ])
    def test_option_the_suite_does_not_take_is_usage_error(self, tmp_path, capsys, suite,
                                                           options, name):
        # Such an option was once dropped: the report answered another question.
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(40, seed=1), path)
        argv = [a.format(path=path) for a in options]
        code = main(["check", str(path), "--suite", suite, *argv,
                     "-o", str(tmp_path / "r.json")])
        assert code == 2
        assert name in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("suite, name", [("distortion", "'dst'"), ("regularity", "'Q'")])
    def test_missing_required_option_is_usage_error(self, tmp_path, capsys, suite, name):
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(40, seed=1), path)
        assert main(["check", str(path), "--suite", suite]) == 2
        assert f"missing a required argument: {name}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [path]

    def test_llc_takes_the_radii_given(self, tmp_path):
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(80, seed=1), path)
        out = tmp_path / "llc.json"
        assert main(["check", str(path), "--suite", "llc", "--radii", "0.5,1",
                     "-o", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["radii"] == [0.5, 1.0]

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(150, seed=5), path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["check", str(path), "--suite", "llc",
                         "--seed", "11", "-o", str(out)])
            assert code in (0, 1)
        assert out1.read_bytes() == out2.read_bytes()

    def test_sampled_distortion_reports_are_byte_identical_across_runs(self, tmp_path):
        # Above the exhaustive cutoff, and over several chunks of draws.
        src, dst = tmp_path / "disk.json", tmp_path / "warped.json"
        mf.save_space(mf.disk_sample(60, seed=5), src)
        assert main(["warp", str(src), "--basepoint", "p0", "-o", str(dst)]) == 0
        runs = []
        for k in (1, 2):
            out, csv_out = tmp_path / f"r{k}.json", tmp_path / f"r{k}.csv"
            code = main(["check", str(src), "--suite", "distortion", "--kind", "qm",
                         "--dst", str(dst), "--claim-gauge", "16", "--samples", "300000",
                         "-o", str(out), "--csv", str(csv_out)])
            assert code in (0, 1)
            assert json.loads(out.read_text())["exhaustive"] is False
            runs.append((out.read_bytes(), csv_out.read_bytes()))
        assert runs[0] == runs[1]


def row_3(change):
    """A defect that replaces row 3 of the distance matrix by ``change(row)``."""
    return lambda doc: doc["dist"].__setitem__(3, change(doc["dist"][3]))


def truncated_mid_row(doc):
    """The file text cut off four characters before the end of the first
    distance row."""
    text = json.dumps(doc)
    return text[:text.index("], [", text.index('"dist"')) - 4]


def nan_across_the_buffer_edge(doc):
    """The file text with a NaN distance whose token starts one character
    before the end of the reader's first buffer, after added whitespace."""
    doc["dist"][1][2] = "X"
    text = json.dumps(doc)
    at = text.index('"X"')
    return text[:at] + " " * (space._BUFFER - 1 - at) + "NaN" + text[at + 3:]


# One structural defect each, planted in a well-formed file: a defect either
# changes the record in place or returns the file's text.
DEFECTS = {
    "non-square dist": lambda doc: doc.update(dist=[row[:-1] for row in doc["dist"]]),
    "1-D dist": lambda doc: doc.update(dist=doc["dist"][0]),
    "short mass": lambda doc: doc.update(mass=doc["mass"][:-1]),
    "coords rows": lambda doc: doc.update(coords=doc["coords"][:-1]),
    "boundary index": lambda doc: doc["boundary"].append(len(doc["points"])),
    "boundary float": lambda doc: doc["boundary"].append(0.7),
    "boundary bool": lambda doc: doc["boundary"].append(True),
    # Caught by the reader, which reads a row at a time: numpy would cast the
    # quoted and boolean entries and broadcast the one-element row.
    "truncated mid-row": truncated_mid_row,
    "NaN across the buffer edge": nan_across_the_buffer_edge,
    "ragged row": row_3(lambda row: row[:-1]),
    "one-element row": row_3(lambda row: row[:1]),
    "one row too many": lambda doc: doc.update(dist=doc["dist"] + doc["dist"][:1]),
    "one row too few": lambda doc: doc.update(dist=doc["dist"][:-1]),
    "nested row": row_3(lambda row: [row[0], [row[1]], *row[2:]]),
    "quoted distance": row_3(lambda row: [str(x) for x in row]),
    "boolean distances": row_3(lambda row: [x > 0 for x in row]),
    "quoted mass": lambda doc: doc.update(mass=[str(x) for x in doc["mass"]]),
    "trailing data": lambda doc: json.dumps(doc) + " {}",
    "duplicate key": lambda doc: json.dumps(doc)[:-1] + ', "points": ' + json.dumps(
        doc["points"]) + "}",
}

# Every command that reads a space; "{bad}" is the malformed file.
READERS = {
    "warp": ["warp", "{bad}", "--basepoint", "r0"],
    "double": ["double", "{bad}"],
    "check metric": ["check", "{bad}", "--suite", "metric"],
    "check llc": ["check", "{bad}", "--suite", "llc"],
    "check regularity": ["check", "{bad}", "--suite", "regularity", "--q", "2"],
    "check distortion": ["check", "{bad}", "--suite", "distortion", "--dst", "{good}"],
    "check quasicircle": ["check", "{bad}", "--suite", "quasicircle"],
    "check --dst": ["check", "{good}", "--suite", "distortion", "--dst", "{bad}"],
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("command", sorted(READERS))
def test_malformed_space_is_usage_error(tmp_path, capsys, defect, command):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    m = mf.sphere_cap_complement(n=30, eps=0.5, seed=1)
    mf.save_space(m, good)
    doc = json.loads(good.read_text())
    bad.write_text(DEFECTS[defect](doc) or json.dumps(doc))
    out = tmp_path / "out.json"
    argv = [a.format(good=good, bad=bad) for a in READERS[command]] + ["-o", str(out)]
    assert main(argv) == 2
    assert f"cannot parse space file {bad}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [bad, good]  # no output, report or manifest


# A negative entry planted in a well-formed file: d(3, 7) = d(7, 3), or one mass.
NEGATIVE = {
    "dist": lambda doc: [doc["dist"][i].__setitem__(j, -0.5) for i, j in ((3, 7), (7, 3))],
    "mass": lambda doc: doc["mass"].__setitem__(5, -0.5),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE))
@pytest.mark.parametrize("command", sorted(READERS))
def test_negative_distance_or_mass_is_usage_error(tmp_path, capsys, entry, command):
    # Such a file was read by every command but warp: double wrote a space,
    # and a distortion or regularity check could pass.
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    mf.save_space(mf.sphere_cap_complement(n=30, eps=0.5, seed=1), good)
    doc = json.loads(good.read_text())
    NEGATIVE[entry](doc)
    bad.write_text(json.dumps(doc))
    argv = [a.format(good=good, bad=bad) for a in READERS[command]]
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == (f"error: cannot parse space file {bad}: "
                                       f"negative number -0.5 in {entry}: {space._SIGNS}\n")
    assert sorted(tmp_path.iterdir()) == [bad, good]


def asymmetric_pair(d):
    """Scales d(3, 7) by 1.5 one way only; returns the witness the error names."""
    d[3][7] *= 1.5
    return f"symmetry fails: dist[3, 7] = {d[3][7]!r} but dist[7, 3] = {d[7][3]!r}"


def nonzero_diagonal(d):
    d[5][5] = 0.25
    return "nonzero diagonal dist[5, 5] = 0.25"


BROKEN = {"symmetry": asymmetric_pair, "diagonal": nonzero_diagonal}


@pytest.mark.parametrize("axiom", sorted(BROKEN))
@pytest.mark.parametrize("command", sorted(READERS))
def test_asymmetric_or_nonzero_diagonal_is_usage_error(tmp_path, capsys, axiom, command):
    # Such a file was read by every command: double and warp wrote a space
    # (warp took the smaller side of the pair), and a distortion check passed.
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    mf.save_space(mf.sphere_cap_complement(n=30, eps=0.5, seed=1), good)
    doc = json.loads(good.read_text())
    witness = BROKEN[axiom](doc["dist"])
    bad.write_text(json.dumps(doc))
    argv = [a.format(good=good, bad=bad) for a in READERS[command]]
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == (f"error: cannot parse space file {bad}: "
                                       f"{witness}: {space._SIGNS}\n")
    assert sorted(tmp_path.iterdir()) == [bad, good]


def test_coincident_pair_loads(tmp_path):
    # Two distinct points at distance 0 make a symmetric matrix with a zero
    # diagonal: warp reads it, and the metric check reports positivity.
    path = tmp_path / "coincident.json"
    doc = json.loads(mf.to_json(mf.sphere_cap_complement(n=30, eps=0.5, seed=1)))
    d = doc["dist"]
    for k in range(len(d)):  # point 7 sits at point 3
        d[7][k] = d[k][7] = d[3][k]
    d[7][7] = d[3][7] = d[7][3] = 0.0
    path.write_text(json.dumps(doc))
    assert main(["warp", str(path), "--basepoint", doc["points"][0],
                 "-o", str(tmp_path / "warped.json")]) == 0
    assert main(["check", str(path), "--suite", "metric", "-o", str(tmp_path / "m.json")]) == 1
    report = json.loads((tmp_path / "m.json").read_text())
    assert report["violations"][0]["axiom"] == "positivity"
    assert report["violations"][0]["witness"] == [3, 7]


def test_csv_space_file_is_usage_error(tmp_path, capsys):
    # JSON is the only space format; a distance-matrix CSV no longer parses.
    path = tmp_path / "space.csv"
    path.write_text("a,b\n0.0,1.0\n1.0,0.0\n")
    assert main(["check", str(path), "--suite", "metric"]) == 2
    assert f"cannot parse space file {path}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("key", ["points", "dist"])
def test_record_without_a_key_is_usage_error(tmp_path, capsys, key):
    # Once reported as the repr of a KeyError: "...: 'points'".
    path = tmp_path / "space.json"
    path.write_text(json.dumps({k: v for k, v in (("points", ["a"]), ("dist", [[0.0]]))
                                if k != key}))
    assert main(["check", str(path), "--suite", "metric"]) == 2
    assert capsys.readouterr().err.endswith(f"space file has no '{key}' key\n")
    assert sorted(tmp_path.iterdir()) == [path]


def test_key_that_is_not_a_string_is_usage_error(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text('{1: [[0]]}')
    assert main(["check", str(path), "--suite", "metric"]) == 2
    assert capsys.readouterr().err.endswith(
        "Expecting property name enclosed in double quotes (char 1)\n")
    assert sorted(tmp_path.iterdir()) == [path]


# A MemoryError is raised by a stand-in: a real one needs a huge allocation.
def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_generate_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(generators, "generate", _out_of_memory)
    out = tmp_path / "disk.json"
    assert main(["generate", "--kind", "disk", "--n", "20", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: generate ran out of memory\n"
    assert list(tmp_path.iterdir()) == []


def test_load_out_of_memory_is_not_a_parse_error(tmp_path, capsys, monkeypatch,
                                                 three_point_file):
    monkeypatch.setattr(space, "load_space", _out_of_memory)
    assert main(["check", str(three_point_file), "--suite", "metric"]) == 2
    assert capsys.readouterr().err == "error: check ran out of memory\n"


# ---------------------------------------------------------------------------
# Every numeric option of every generate kind and check suite
# ---------------------------------------------------------------------------

# The library function each check suite binds its remaining options to.
SUITE_FUNCTIONS = {"metric": mf.validate_metric, "llc": mf.llc_constants,
                   "regularity": mf.regularity_constant, "distortion": mf.qm_profile,
                   "quasicircle": mf.quasicircle_check}

# Size options are never given a huge value: that would start a giant allocation.
SIZES = {"side", "n", "n_samples", "n_centers", "n_radii"}
SIZE_VALUES = ["0", "-1", "nan", "inf", "1.5"]
REAL_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e308"]
HUGE_INT = "1" + "0" * 30
INT_VALUES = REAL_VALUES + [HUGE_INT]

# What each kind or suite needs besides the option under test; "{space}" is a
# 24-point circle with masses, small enough and dense enough that every suite
# evaluates something with its defaults.
BASE = {
    "grid": {"side": "3", "spacing": "0.5"}, "disk": {"n": "20"},
    "disk-grid": {"spacing": "0.5"}, "sphere-cap": {"eps": "0.5", "n": "20"},
    "halfplane": {"n": "20"}, "random-metric": {"n": "20"},
    "metric": {}, "llc": {}, "quasicircle": {}, "regularity": {"Q": "2"},
    "distortion": {"dst": "{space}"},
}

THRESHOLD = ("at least 1; inf bounds nothing", ("inf", "1e308"),
             st.floats(1, 1e6) | st.just(math.inf))
LENGTH = ("finite and positive, with a finite, positive squared extent of the sample",
          (), st.floats(1e-3, 1e3))
# Per option, and per kind or suite where its domain differs there: the valid
# values, the values of REAL_VALUES, INT_VALUES or SIZE_VALUES among them, and
# a strategy that draws valid values.  README's option table states the same
# domains.  Any other value must exit 2, naming the option.
DOMAINS = {
    "side": ("an integer, at least 1", (), st.integers(1, 5)),
    "n": ("an integer, at least 1", (), st.integers(1, 30)),
    ("sphere-cap", "n"): ("an integer, at least 16", (), st.integers(16, 30)),
    "spacing": LENGTH,
    ("disk-grid", "spacing"): LENGTH[:2] + (st.floats(0.34, 5),),  # at most 21 points
    "radius": LENGTH,
    ("disk-grid", "radius"): LENGTH[:2] + (st.floats(0.1, 1.4),),  # at most 29 points
    "width": LENGTH,
    "height": LENGTH,
    ("sphere-cap", "eps"): ("above 0 and below 2", (), st.floats(0.05, 1.95)),
    "edge_density": ("in [0, 1]", ("0",), st.floats(0, 1)),
    "seed": ("an integer, at least 0", ("0", HUGE_INT), st.integers(0, 2**64)),
    "Q": ("finite and positive, with r ** Q and eps ** Q finite and positive", (),
          st.floats(0.5, 4)),
    ("regularity", "eps"): ("finite and positive, with eps ** Q finite and positive", (),
                            st.floats(0.05, 3)),
    # At or above the diameter (2 on the circle) every pair is joined, and
    # connectivity would pass vacuously.
    "delta": ("finite, positive and below the diameter", (), st.floats(0.05, 1.95)),
    "radii": ("each finite and positive", ("1e308",), st.floats(0.05, 3)),
    ("regularity", "radii"): ("each finite and positive, with r ** Q finite and positive",
                              (), st.floats(0.05, 3)),
    "n_centers": ("an integer, at least 1", (), st.integers(1, 40)),
    "n_radii": ("an integer, at least 1", (), st.integers(1, 10)),
    "lambda_max": ("finite, at least 1 and at most 2 ** (4095 / 4)", ("1e308",),
                   st.floats(1, 64)),
    "claim_k": THRESHOLD, "claim_lambda1": THRESHOLD, "claim_lambda2": THRESHOLD,
    "max_lambda": THRESHOLD,
    "gauge": ("finite and positive", ("1e308",), st.floats(1e-3, 1e3)),
    "max_doubling": ("an integer, at least 1", (HUGE_INT,), st.integers(1, 100)),
    # At most 30 points a QM profile is exhaustive and draws no sample.
    "n_samples": ("an integer, at least 1, when sampled", ("0", "-1"),
                  st.integers(1, 10**6)),
}


def numeric_options(command):
    """{dest: (flag, type)} of the int, float and radii options of a subcommand."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return {a.dest: (a.option_strings[-1], a.type) for a in sub._actions
            if a.type in (int, float, cli._parse_radii)}


def option_rows():
    """(command, kind or suite, dest, flag, values) for each numeric option
    taken, read from the signatures that space._call binds the options to."""
    rows = []
    for command, fns in (("generate", generators._KINDS), ("check", cli._SUITES)):
        options = numeric_options(command)
        for name, fn in fns.items():
            params = {**inspect.signature(fn).parameters}
            if command == "check":
                params |= inspect.signature(SUITE_FUNCTIONS[name]).parameters
            for p in params:
                if p in options:
                    flag, kind = options[p]
                    values = (SIZE_VALUES if p in SIZES else
                              INT_VALUES if kind is int else REAL_VALUES)
                    rows.append((command, name, p, flag, values))
    return rows


ROWS = option_rows()


def domain(name, dest):
    return DOMAINS.get((name, dest)) or DOMAINS[dest]


@pytest.fixture(scope="module")
def circle_file(tmp_path_factory):
    n = 24
    t = 2 * np.pi * np.arange(n) / n
    coords = np.stack([np.cos(t), np.sin(t)], axis=1)
    dist = np.linalg.norm(coords[:, None] - coords[None], axis=-1)
    path = tmp_path_factory.mktemp("circle") / "circle.json"
    mf.save_space(mf.FiniteMetricSpace([f"c{i}" for i in range(n)], dist, coords=coords,
                                       mass=np.full(n, 2 * np.pi / n)), path)
    return path


def run_option(circle, out, command, name, dest, value):
    """Exit code and stderr of ``command`` for ``name`` with option ``dest`` at ``value``."""
    flags = {d: flag for d, (flag, _) in numeric_options(command).items()}
    argv = [command, "--kind", name] if command == "generate" else [
        "check", str(circle), "--suite", name]
    for d, v in {**BASE[name], dest: value}.items():
        argv += [flags.get(d, "--dst"), v.format(space=circle)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["-o", str(out)])
    return code, err.getvalue()


@pytest.mark.parametrize("command, name, dest, flag, value", [
    (*row[:4], v) for row in ROWS for v in row[4]])
def test_numeric_option_outside_its_domain_exits_2(tmp_path, circle_file, command, name,
                                                   dest, flag, value):
    # A NaN, infinite, zero, negative or huge value either lies in the
    # option's domain or is refused with exit 2 by a message naming the
    # option, before any output is written.
    out = tmp_path / "out.json"
    code, err = run_option(circle_file, out, command, name, dest, value)
    if value in domain(name, dest)[1]:
        assert code != 2, err
    else:
        assert code == 2
        assert flag in err or re.search(rf"(?<![\w-]){dest}(?![\w-])", err), err
        assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_valid_numeric_options_run(circle_file, data):
    command, name, dest, _, _ = data.draw(st.sampled_from(ROWS))
    value = data.draw(domain(name, dest)[2])
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_option(circle_file, Path(tmp) / "out.json", command, name, dest,
                               repr(value) if isinstance(value, float) else str(value))
    assert code != 2, err


def run_module(*args):
    """Run ``python -m metricforge.cli`` on the package these tests import."""
    src = str(Path(mf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "metricforge.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "g.json"
        proc = run_module("generate", "--kind", "grid", "--side", "3",
                          "--spacing", "1.0", "-o", str(out))
        assert proc.returncode == 0
        assert out.exists()

    def test_runtime_needs_no_scipy(self, tmp_path):
        # numpy is the one runtime dependency: the import loads no scipy, and
        # with scipy blocked every generator, warp and a check still run.
        script = (
            "import sys\n"
            "import metricforge, metricforge.cli\n"
            "assert not any(k.split('.')[0] == 'scipy' for k in sys.modules), sys.modules\n"
            "sys.modules['scipy'] = None\n"
            "from metricforge.cli import main\n"
            "out = sys.argv[1]\n"
            "kinds = [['grid', '--side', '4', '--spacing', '1'], ['disk', '--n', '20'],\n"
            "         ['disk-grid', '--spacing', '0.5'], ['sphere-cap', '--eps', '0.5', '--n', '20'],\n"
            "         ['halfplane', '--n', '20'], ['random-metric', '--n', '20']]\n"
            "for kind in kinds:\n"
            "    assert main(['generate', '--kind', *kind, '-o', out]) == 0\n"
            "assert main(['warp', out, '--basepoint', 'p0', '-o', out + '.w']) == 0\n"
            "assert main(['check', out + '.w', '--suite', 'metric']) == 0\n"
        )
        src = str(Path(mf.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "g.json")],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_usage_error_exit_code(self):
        proc = run_module("generate", "--kind", "grid", "--side", "0",
                          "--spacing", "1", "-o", "/tmp/x.json")
        assert proc.returncode == 2
