"""Command-line front end: generate spaces, run constructions, emit reports.

Every command writes its outputs deterministically (re-running a command
with the same arguments reproduces the report byte for byte) plus a
manifest recording the options given, seeds, the files read and written,
version, and wall-clock duration.  Exit codes: 0 pass, 1 threshold
failure, 2 usage or structural error, 3 a check that evaluated nothing
(its report has no "ok").
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, distortion, generators, glue, space
from .warp import INFINITY_LABEL, warp as warp_space

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIAGNOSTIC = 3


def _jsonable(obj):
    """A report or manifest of dicts, sequences and numbers, with ±inf and NaN as strings."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "nan" if math.isnan(v) else v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


@contextlib.contextmanager
def _writing(path: Path):
    """An OSError while writing ``path`` (a directory there, or a file where a
    directory must be) as a ValueError, which main exits 2 on."""
    try:
        yield
    except OSError as exc:
        where = f" ({exc.filename})" if exc.filename and str(exc.filename) != str(path) else ""
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}{where}") from None


def _write(out: Path, body, command: str, params: dict, t0: float) -> None:
    """Write ``body`` to ``out``, a space as a space file and a report as
    JSON, then the manifest beside it; the directory is made first.  The
    manifest names every file the command read (the ``input`` and ``dst``
    options) or wrote (``out`` and the ``csv`` option)."""
    out.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(body, space.FiniteMetricSpace):
        space.save_space(body, out)
    else:
        out.write_text(json.dumps(_jsonable(body), sort_keys=True, indent=1) + "\n",
                       encoding="utf-8")
    manifest = {
        "command": command,
        "params": _jsonable(params),
        "seeds": {k: v for k, v in params.items() if "seed" in k},
        "inputs": [params[k] for k in ("input", "dst") if params.get(k)],
        "outputs": [str(out)] + [params[k] for k in ("csv",) if params.get(k)],
        "version": __version__,
        "duration_s": time.monotonic() - t0,
    }
    out.with_suffix(out.suffix + ".manifest.json").write_text(
        json.dumps(_jsonable(manifest), sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _load(path_str: str) -> space.FiniteMetricSpace:
    path = Path(path_str)
    if not path.exists():
        raise ValueError(f"input file not found: {path}")
    try:
        return space.load_space(path)
    except MemoryError:
        raise  # the file may be fine: main names the command that ran out
    except Exception as exc:
        raise ValueError(f"cannot parse space file {path}: {exc}") from exc


def _parse_radii(text):
    return tuple(float(v) for v in text.split(","))


# ---------------------------------------------------------------------------
# Commands: each computes only, and returns (output path, space or report,
# exit code, stdout line); main times it and writes the output and manifest.
# ---------------------------------------------------------------------------

def cmd_generate(args, params):
    m = generators.generate(**params)
    out = Path(args.out)
    return out, m, EXIT_PASS, f"wrote {m.n}-point space to {out}"


def cmd_warp(args, params):
    m = _load(args.input)
    try:
        w = warp_space(m, m.index(args.basepoint))
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc
    out = Path(args.out)
    return (out, w.warped, EXIT_PASS,
            f"wrote warped space ({w.warped.n} points incl. {INFINITY_LABEL}) to {out}")


def cmd_double(args, params):
    ds = glue.double(_load(args.input))
    out = Path(args.out)
    return out, ds.doubled, EXIT_PASS, f"wrote doubled space ({ds.doubled.n} points) to {out}"


# Each suite returns (report, whether it evaluated anything, whether its
# claims hold); cmd_check alone turns the last two into "ok" and the exit code.

def _suite_metric(m, **opts):
    report = space._call("validate_metric", space.validate_metric, m, **opts)
    doc = {
        "total_violations": report.total,
        "violations": [dataclasses.asdict(v) for v in report.violations],
    }
    return doc, True, report.ok


def _suite_llc(m, claim_lambda1=math.inf, claim_lambda2=math.inf, **opts):
    space._at_least_one("--claim-lambda1", claim_lambda1)
    space._at_least_one("--claim-lambda2", claim_lambda2)
    rep = space._call("llc_constants", analysis.llc_constants, m, **opts)
    return (dataclasses.asdict(rep), rep.usable,
            rep.lambda1 <= claim_lambda1 and rep.lambda2 <= claim_lambda2)


def _suite_regularity(m, claim_k=math.inf, **opts):
    space._at_least_one("--claim-k", claim_k)
    rep = space._call("regularity_constant", analysis.regularity_constant, m, **opts)
    return dataclasses.asdict(rep), rep.evaluated > 0, rep.K_hat <= claim_k


def _suite_distortion(m, dst, kind="qm", csv=None, **opts):
    dst = _load(dst)
    # Pair points by shared label; extra destination points (the adjoined
    # "∞" of a warped file) simply have no preimage.
    try:
        mapping = [dst.index(lbl) for lbl in m.points]
    except KeyError as exc:
        raise ValueError(f"destination is missing a source label: {exc.args[0]}") from exc
    profile_fn = distortion.qs_profile if kind == "qs" else distortion.qm_profile
    prof = space._call(profile_fn.__name__, profile_fn, m, dst, mapping, **opts)
    if csv:
        _export_envelope_csv(prof, Path(csv))
    claim = prof.claim  # with no witness, no tuple had a defined ratio to check
    evaluated = sum(prof.counts) > 0 and (claim is None or claim.worst_witness is not None)
    return dataclasses.asdict(prof), evaluated, claim is None or claim.passed


def _suite_quasicircle(m, **opts):
    rep = space._call("quasicircle_check", analysis.quasicircle_check, m, **opts)
    return dataclasses.asdict(rep), rep.usable, rep.passed


def _export_envelope_csv(prof, path: Path):
    rows = zip(list(prof.bin_edges) + ["overflow"], prof.envelope, prof.counts)
    lines = ["bin_upper,envelope,count", *(f"{u},{e},{c}" for u, e, c in rows)]
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_SUITES = {
    "metric": _suite_metric,
    "llc": _suite_llc,
    "regularity": _suite_regularity,
    "distortion": _suite_distortion,
    "quasicircle": _suite_quasicircle,
}


def cmd_check(args, params):
    opts = {k: v for k, v in params.items() if k not in ("input", "suite")}
    m = _load(args.input)
    doc, evaluated, ok = space._call(f"--suite {args.suite}", _SUITES[args.suite], m, **opts)
    if evaluated:  # a report that evaluated nothing makes no claim
        doc["ok"] = bool(ok)
    code = (EXIT_PASS if ok else EXIT_FAIL) if evaluated else EXIT_DIAGNOSTIC
    name = f"distortion-{opts.get('kind', 'qm')}" if args.suite == "distortion" else args.suite
    out = Path(vars(args).get("out") or Path(args.input).with_suffix(f".{name}.json"))
    return out, {"suite": args.suite, **doc}, code, f"suite={args.suite} exit={code} report={out}"


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main maps it to exit 2, as it does refused input
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metricforge",
                     description="finite metric space toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Only the options given reach the namespace: the library's defaults
    # stand for the others, and each option binds to the function taking it.
    g = sub.add_parser("generate", help="generate a test-bed space",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--kind", required=True, choices=list(generators._KINDS))
    g.add_argument("--side", type=int)
    g.add_argument("--spacing", type=float)
    g.add_argument("--n", type=int)
    g.add_argument("--radius", type=float)
    g.add_argument("--eps", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--width", type=float)
    g.add_argument("--height", type=float)
    g.add_argument("--edge-density", dest="edge_density", type=float)
    g.add_argument("--mark-boundary", dest="mark_boundary", action="store_true")
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_generate)

    w = sub.add_parser("warp", help="warp a space around a basepoint")
    w.add_argument("input")
    w.add_argument("--basepoint", required=True, help="basepoint label")
    w.add_argument("-o", "--out", required=True)
    w.set_defaults(func=cmd_warp)

    d = sub.add_parser("double", help="glue two copies along the marked boundary")
    d.add_argument("input")
    d.add_argument("-o", "--out", required=True)
    d.set_defaults(func=cmd_double)

    c = sub.add_parser("check", help="run a verification suite",
                       argument_default=argparse.SUPPRESS)
    c.add_argument("input")
    c.add_argument("--suite", required=True, choices=sorted(_SUITES))
    c.add_argument("-o", "--out")
    c.add_argument("--seed", type=int)
    c.add_argument("--q", dest="Q", type=float)
    c.add_argument("--radii", type=_parse_radii, help="comma-separated radii")
    c.add_argument("--eps", type=float)
    c.add_argument("--delta", type=float)
    c.add_argument("--n-centers", dest="n_centers", type=int, help="sampled centers")
    c.add_argument("--n-radii", dest="n_radii", type=int, help="radii per center")
    c.add_argument("--lambda-max", dest="lambda_max", type=float)
    c.add_argument("--claim-k", dest="claim_k", type=float)
    c.add_argument("--claim-lambda1", dest="claim_lambda1", type=float)
    c.add_argument("--claim-lambda2", dest="claim_lambda2", type=float)
    c.add_argument("--claim-gauge", dest="gauge", type=float, help="C of the gauge t -> C t")
    c.add_argument("--dst", help="destination space file for distortion")
    c.add_argument("--kind", choices=["qs", "qm"])
    c.add_argument("--samples", dest="n_samples", type=int)
    c.add_argument("--max-lambda", dest="max_lambda", type=float)
    c.add_argument("--max-doubling", dest="max_doubling", type=int)
    c.add_argument("--csv", help="export the distortion envelope as CSV")
    c.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        params = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}
        t0 = time.monotonic()
        try:
            out, body, code, line = args.func(args, params)
            with _writing(out):
                _write(out, body, args.command, params, t0)
        except MemoryError:  # a space too large for this machine
            raise ValueError(f"{args.command} ran out of memory") from None
    except ValueError as exc:  # usage errors and input the library refused
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
