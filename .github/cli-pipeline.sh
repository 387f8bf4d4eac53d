#!/usr/bin/env bash
# CLI pipeline: runs the CLI as a process, with scipy blocked, and writes
# every space, report, CSV and manifest into <out-dir>.  One distortion check
# maps a space into a copy with three coincident points: its report and CSV
# must show an inf envelope (x/0 outputs) beside the nan of an empty bin.
# A claim into a copy with all distances 0 has no defined ratio to check and
# must exit 3, as must a quasicircle check whose radii exceed the diameter
# (written beside the passing screen of the same circle, not over it) and
# one of a 3-point disk, whose default delta reaches its diameter.  Some legs
# reach code no other leg runs: a metric check of a space with one pair
# stretched must exit 1 with its triangle failures listed, as must one of a
# dense 150-point non-metric, whose bands flag more pairs than the triangle
# scan takes at once and whose witnesses hold a pair and its mirror; an llc
# check of the circle with 20 points cut out fails its join-outside leg at
# the top of the λ grid, and its quasicircle screen must exit 1; a
# regularity check with --eps measures balls by the premeasure; and the
# grid, disk-grid and halfplane generators run.
#
#   .github/cli-pipeline.sh <out-dir>
#
# numpy is the one runtime dependency, so a scipy import fails the run.  The
# script stops at the first command that does not exit as it must (0 unless
# said); the malformed file, a quoted distance, a NaN radius, an option the
# suite does not take, a NaN edge density, a NaN threshold, an infinite
# delta, a delta above the diameter, a Q whose powers of the radii overflow,
# a zero gauge, a --lambda-max whose grid would overflow, a negative seed (to
# generate, and to a quasicircle check of two points), and a file with a
# negative distance, an asymmetric pair or a nonzero diagonal entry (to
# double, warp, the llc and metric checks, and as a distortion check's
# --dst) or a negative mass (to a regularity check) must exit 2; a file with
# two distinct points at distance 0 still warps.  Run on two trees into two
# directories, `diff -r` compares their outputs.
set -eo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <out-dir>" >&2; exit 2; }
mkdir -p "$1"
d=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

cli() {
  PYTHONPATH=src python -c 'import runpy, sys; sys.modules["scipy"] = None; runpy.run_module("metricforge.cli", run_name="__main__")' "$@"
}
exits() {  # exits <code> <label> <cli args...>: the command must exit <code>
  local want=$1 label=$2 code=0
  shift 2
  cli "$@" || code=$?
  echo "$label: exit $code"
  test "$code" -eq "$want"
}
usage_error() { exits 2 "$@"; }  # usage_error <label> <cli args...>
cli generate --kind disk --n 60 --seed 1 -o "$d/disk.json"
cli warp "$d/disk.json" --basepoint p0 -o "$d/warped.json"
cli check "$d/disk.json" --suite distortion --kind qm --dst "$d/warped.json" --claim-gauge 16
cli check "$d/warped.json" --suite metric
# A disk has no pair that chaining shortens; a random graph metric
# does, so its warp's stale sweeps relax entries.
cli generate --kind random-metric --n 300 --seed 2 -o "$d/graph.json"
cli warp "$d/graph.json" --basepoint p0 -o "$d/graph-warped.json"
cli check "$d/graph-warped.json" --suite metric
cli check "$d/graph.json" --suite distortion --kind qm --dst "$d/graph-warped.json" --claim-gauge 16
# QS triples: the arity-3 path of the distortion kernel.
cli check "$d/graph.json" --suite distortion --kind qs --dst "$d/graph-warped.json" --csv "$d/graph-qs.csv"
# Its manifest names the warped file it read and the CSV it wrote,
# and the qm report of the same input is kept beside its own.
python - "$d" <<'EOF'
import json, os, sys
d = sys.argv[1]
assert os.path.isfile(f"{d}/graph.distortion-qm.json")
assert os.path.isfile(f"{d}/graph.distortion-qs.json")
manifest = json.load(open(f"{d}/graph.distortion-qs.json.manifest.json"))
assert f"{d}/graph-warped.json" in manifest["inputs"], manifest
assert f"{d}/graph-qs.csv" in manifest["outputs"], manifest
EOF
# Coincident destination points: an x/0 output reads inf, an empty bin nan.
cli generate --kind random-metric --n 20 --seed 4 -o "$d/small.json"
PYTHONPATH=src python - "$d/small.json" "$d/small-coincident.json" <<'EOF'
import sys
import numpy as np, metricforge as mf
m = mf.load_space(sys.argv[1])
d = m.dist.copy()
for j in (3, 5):  # points 3 and 5 sit at point 0
    d[j, :] = d[0, :]
    d[:, j] = d[:, 0]
d[np.ix_([0, 3, 5], [0, 3, 5])] = 0.0
mf.save_space(mf.FiniteMetricSpace(m.points, d), sys.argv[2])
EOF
cli check "$d/small.json" --suite distortion --kind qm --dst "$d/small-coincident.json" --csv "$d/small-coincident.csv"
python - "$d" <<'EOF'
import json, sys
d = sys.argv[1]
report = json.load(open(f"{d}/small.distortion-qm.json"))
envelope, counts = report["envelope"], report["counts"]
assert "inf" in envelope, envelope
assert any(e == "nan" and c == 0 for e, c in zip(envelope, counts)), envelope
rows = [line.split(",") for line in open(f"{d}/small-coincident.csv").read().splitlines()[1:]]
assert [e for _, e, _ in rows] == [str(float(e)) for e in envelope], rows
EOF
# All distances 0: every output ratio is 0/0, and a claim checks nothing.
PYTHONPATH=src python - "$d/small.json" "$d/small-zero.json" <<'EOF'
import sys
import numpy as np, metricforge as mf
m = mf.load_space(sys.argv[1])
mf.save_space(mf.FiniteMetricSpace(m.points, np.zeros((m.n, m.n))), sys.argv[2])
EOF
exits 3 "claim with no defined ratio" check "$d/small.json" --suite distortion --dst "$d/small-zero.json" --claim-gauge 1 -o "$d/small-zero.distortion-qm.json"
# One pair stretched to 10: the triangle pass counts and lists its failures.
PYTHONPATH=src python - "$d/small.json" "$d/small-stretched.json" <<'EOF'
import sys
import metricforge as mf
m = mf.load_space(sys.argv[1])
d = m.dist.copy()
d[0, 1] = d[1, 0] = 10.0
mf.save_space(mf.FiniteMetricSpace(m.points, d), sys.argv[2])
EOF
exits 1 "stretched pair" check "$d/small-stretched.json" --suite metric
python - "$d/small-stretched.metric.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["total_violations"] == 36, report
assert report["violations"][0]["witness"] == [0, 2, 1], report
EOF
# A dense non-metric, distances drawn from U(0.01, 2): most triples fail,
# and witness 15 is the mirror (2, 0, 1) of witness 0, with its excess.
PYTHONPATH=src python - "$d/dense.json" <<'EOF'
import sys
import numpy as np, metricforge as mf
d = np.triu(np.random.default_rng(16).uniform(0.01, 2, (150, 150)), 1)
mf.save_space(mf.FiniteMetricSpace([f"q{i}" for i in range(150)], d + d.T), sys.argv[1])
EOF
exits 1 "dense non-metric" check "$d/dense.json" --suite metric
python - "$d/dense.metric.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["total_violations"] == 537708, report["total_violations"]
kept = [(v["witness"], v["excess"]) for v in report["violations"]]
assert kept[:3] == [([1, 0, 2], 0.14809143203691888), ([1, 0, 8], 0.6252903273625353),
                    ([1, 0, 17], 0.27210886875983076)], kept[:3]
assert kept[15] == ([2, 0, 1], 0.14809143203691888), kept[15]
EOF
cli generate --kind sphere-cap --eps 0.5 --n 220 -o "$d/cap.json"
cli double "$d/cap.json" -o "$d/doubled.json"
cli check "$d/doubled.json" --suite llc
cli check "$d/doubled.json" --suite regularity --q 2
# Balls of an eps-net's cells: the premeasure.
cli check "$d/doubled.json" --suite regularity --q 2 --eps 0.1 -o "$d/doubled-eps.regularity.json"
cli check "$d/doubled.json" --suite metric
# 400 centers x 32 radii: more configurations than one batch of
# the packed search takes.
cli check "$d/doubled.json" --suite llc --n-centers 400 --n-radii 32
# Outputs into directories that do not exist yet.
cli double "$d/cap.json" -o "$d/new/a/doubled.json"
test -f "$d/new/a/doubled.json.manifest.json"
cli check "$d/cap.json" --suite metric -o "$d/new/b/c/metric.json"
test -f "$d/new/b/c/metric.json.manifest.json"
# The README's 256-point circle passes the quasicircle screen.
PYTHONPATH=src python - "$d/circle.json" <<'EOF'
import sys
import numpy as np, metricforge as mf
t = 2 * np.pi * np.arange(256) / 256
c = np.stack([np.cos(t), np.sin(t)], axis=1)
d = np.linalg.norm(c[:, None] - c[None], axis=-1)
mf.save_space(mf.FiniteMetricSpace([f"c{i}" for i in range(256)], d, coords=c), sys.argv[1])
EOF
cli check "$d/circle.json" --suite quasicircle --max-lambda 2 --max-doubling 8
cli check "$d/circle.json" --suite llc --lambda-max 4
# Radii above its diameter leave the join-outside leg nothing to
# evaluate: exit 3, not a pass.
exits 3 "radii above the diameter" check "$d/circle.json" --suite quasicircle --radii 5 -o "$d/circle-radii5.quasicircle.json"
# The circle without points 40-59 is an arc: the join-outside leg rises
# through the λ grid and fails at its top, and the screen fails.
PYTHONPATH=src python - "$d/circle.json" "$d/arc.json" <<'EOF'
import sys
import metricforge as mf
m = mf.load_space(sys.argv[1])
mf.save_space(mf.subspace(m, [i for i in range(m.n) if not 40 <= i < 60]), sys.argv[2])
EOF
cli check "$d/arc.json" --suite llc
python - "$d/arc.llc.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert round(report["lambda1"], 2) == 2.83 and report["lambda2"] == "inf", report
assert len(report["failures2"]) == 20, report
EOF
exits 1 "arc quasicircle" check "$d/arc.json" --suite quasicircle --max-lambda 2 --max-doubling 8
# Three points: llc reports a sample that answers nothing, and so does
# the screen built on it.
cli generate --kind disk --n 3 --seed 2 -o "$d/three.json"
exits 3 "three-point quasicircle" check "$d/three.json" --suite quasicircle
# The generators no other leg runs.
cli generate --kind grid --side 12 --spacing 0.25 -o "$d/grid.json"
cli generate --kind disk-grid --spacing 0.2 -o "$d/disk-grid.json"
cli generate --kind halfplane --n 50 --seed 3 -o "$d/halfplane.json"
echo '{"points": ["a", "b"], "dist": [[0.0, 1.0]]}' > "$d/bad.json"
usage_error "non-square file" check "$d/bad.json" --suite metric
echo '{"points": ["a", "b"], "dist": [[0.0, "1.5"], ["1.5", 0.0]]}' > "$d/quoted.json"
usage_error "quoted distance" check "$d/quoted.json" --suite metric
usage_error "NaN radius" check "$d/doubled.json" --suite regularity --q 2 --radii nan
usage_error "option llc does not take" check "$d/doubled.json" --suite llc --q 2
usage_error "NaN edge density" generate --kind random-metric --n 20 --edge-density nan -o "$d/nan.json"
usage_error "NaN threshold" check "$d/disk.json" --suite quasicircle --max-lambda nan
usage_error "infinite delta" check "$d/doubled.json" --suite llc --delta inf --radii 0.5
usage_error "delta above the diameter" check "$d/doubled.json" --suite llc --delta 1e308 --radii 0.5
usage_error "Q of 1e308" check "$d/doubled.json" --suite regularity --q 1e308
usage_error "negative seed" generate --kind disk --n 20 --seed -1 -o "$d/neg.json"
usage_error "zero gauge" check "$d/disk.json" --suite distortion --dst "$d/warped.json" --claim-gauge 0
usage_error "lambda-max of 1.7e308" check "$d/circle.json" --suite llc --lambda-max 1.7e308
cli generate --kind disk --n 2 --seed 1 -o "$d/two.json"
usage_error "two-point quasicircle, negative seed" check "$d/two.json" --suite quasicircle --seed -1
# A negative distance or mass, an asymmetric pair (d(3, 7) scaled by 1.5
# one way) and a nonzero diagonal entry are refused as the file is read;
# two distinct points at distance 0 (point 7 moved onto point 3) are not.
cli generate --kind disk --n 60 --seed 0 --mark-boundary -o "$d/disk0.json"
python - "$d" <<'EOF'
import json, sys
d = sys.argv[1]
doc = json.load(open(f"{d}/disk0.json"))
doc["dist"][3][7] = doc["dist"][7][3] = -0.5
json.dump(doc, open(f"{d}/negpair.json", "w"))
doc = json.load(open(f"{d}/grid.json"))
doc["mass"][5] = -0.5
json.dump(doc, open(f"{d}/negmass.json", "w"))
doc = json.load(open(f"{d}/disk0.json"))
doc["dist"][3][7] *= 1.5
json.dump(doc, open(f"{d}/asympair.json", "w"))
doc = json.load(open(f"{d}/disk0.json"))
doc["dist"][5][5] = 0.25
json.dump(doc, open(f"{d}/diagonal.json", "w"))
doc = json.load(open(f"{d}/disk0.json"))
dist = doc["dist"]
for k in range(len(dist)):
    dist[7][k] = dist[k][7] = dist[3][k]
dist[7][7] = dist[3][7] = dist[7][3] = 0.0
json.dump(doc, open(f"{d}/coincident.json", "w"))
EOF
for f in negpair asympair diagonal; do
  usage_error "$f, double" double "$d/$f.json" -o "$d/$f-doubled.json"
  usage_error "$f, warp" warp "$d/$f.json" --basepoint p0 -o "$d/$f-warped.json"
  usage_error "$f, llc" check "$d/$f.json" --suite llc
  usage_error "$f, metric" check "$d/$f.json" --suite metric
  usage_error "$f, --dst" check "$d/disk.json" --suite distortion --dst "$d/$f.json" -o "$d/$f.distortion-qm.json"
done
usage_error "negative mass, regularity" check "$d/negmass.json" --suite regularity --q 2
cli warp "$d/coincident.json" --basepoint p0 -o "$d/coincident-warped.json"
