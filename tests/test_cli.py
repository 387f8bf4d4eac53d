import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metricforge as mf
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

    def test_zero_side_is_usage_error(self, tmp_path):
        code = main(["generate", "--kind", "grid", "--side", "0",
                     "--spacing", "1.0", "-o", str(tmp_path / "x.json")])
        assert code == 2

    def test_unknown_flag_combo(self, tmp_path):
        code = main(["generate", "--kind", "grid", "-o", str(tmp_path / "x.json")])
        assert code == 2  # missing side/spacing


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

    def test_unknown_basepoint(self, tmp_path, three_point_file):
        code = main(["warp", str(three_point_file), "--basepoint", "zz",
                     "-o", str(tmp_path / "w.json")])
        assert code == 2

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

    def test_distortion_suite_against_warp(self, tmp_path):
        src = tmp_path / "m.json"
        mf.save_space(mf.random_metric(24, seed=3), src)
        dst = tmp_path / "w.json"
        main(["warp", str(src), "--basepoint", "p0", "-o", str(dst)])
        out = tmp_path / "qm.json"
        csv_out = tmp_path / "envelope.csv"
        code = main(["check", str(src), "--suite", "distortion", "--kind", "qm",
                     "--dst", str(dst), "--claim-theta", "16t",
                     "-o", str(out), "--csv", str(csv_out)])
        assert code == 0
        assert json.loads(out.read_text())["claim"]["passed"] is True
        assert csv_out.read_text().startswith("bin_upper,envelope,count")

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_sampled_distortion_without_samples_is_usage_error(self, tmp_path, capsys,
                                                               samples):
        src = tmp_path / "m.json"
        mf.save_space(mf.random_metric(40, seed=3), src)
        dst = tmp_path / "w.json"
        main(["warp", str(src), "--basepoint", "p0", "-o", str(dst)])
        out = tmp_path / "qm.json"
        code = main(["check", str(src), "--suite", "distortion", "--kind", "qm",
                     "--dst", str(dst), "--claim-theta", "0.001t",
                     "--samples", samples, "-o", str(out)])
        assert code == 2
        assert "n_samples" in capsys.readouterr().err
        assert not out.exists()

    def test_infinities_keep_their_sign(self, tmp_path, three_point_file):
        assert _jsonable([math.inf, -math.inf, np.float64(-np.inf), math.nan]) == [
            "inf", "-inf", "-inf", "nan"]
        # Three points hold no four distinct ones: the claim saw no tuple.
        out = tmp_path / "qm.json"
        main(["check", str(three_point_file), "--suite", "distortion", "--kind", "qm",
              "--dst", str(three_point_file), "--claim-theta", "1t", "-o", str(out)])
        assert json.loads(out.read_text())["claim"]["worst_ratio"] == "-inf"

    def test_llc_unusable_delta_is_diagnostic(self, tmp_path):
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(60, seed=1), path)
        code = main(["check", str(path), "--suite", "llc", "--delta", "0.001"])
        assert code == 3

    @pytest.mark.parametrize("suite", ["llc", "regularity"])
    def test_nonpositive_center_count_is_usage_error(self, tmp_path, capsys, suite):
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(40, seed=1), path)
        code = main(["check", str(path), "--suite", suite, "--q", "2",
                     "--n-centers", "-1"])
        assert code == 2
        assert "n_centers" in capsys.readouterr().err

    def test_lambda_max_below_one_is_usage_error(self, tmp_path, capsys, circle_256):
        path = tmp_path / "circle.json"
        mf.save_space(circle_256, path)
        for suite in ("llc", "quasicircle"):
            assert main(["check", str(path), "--suite", suite, "--lambda-max", "0.5"]) == 2
            assert "lambda" in capsys.readouterr().err

    def test_quasicircle_suite(self, tmp_path, circle_256):
        path = tmp_path / "circle.json"
        mf.save_space(circle_256, path)
        code = main(["check", str(path), "--suite", "quasicircle",
                     "--max-lambda", "2", "--max-doubling", "8"])
        assert code == 0

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
        assert reports[0] == json.loads(json.dumps(lib | {"suite": "quasicircle"}))

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        path = tmp_path / "disk.json"
        mf.save_space(mf.disk_sample(150, seed=5), path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["check", str(path), "--suite", "llc",
                         "--seed", "11", "-o", str(out)])
            assert code in (0, 1)
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_usage_error_exit_code(self):
        proc = run_module("generate", "--kind", "grid", "--side", "0",
                          "--spacing", "1", "-o", "/tmp/x.json")
        assert proc.returncode == 2
