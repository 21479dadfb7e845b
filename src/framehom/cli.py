"""Command-line front end.

Subcommands::

    framehom analyze  <file.fw> [--mode exact|float] [--json] [--dims-only] [--out PATH]
    framehom scan     <file.fw> -m 0,0.01 -s 1..10 [--mode ...] [--out PATH]
    framehom svg      <file.fw> --generator N:3 --out fig.svg [--no-svg-values]

Exit codes: 0 all applicable checks pass, 1 invalid input, 2 a check
failed (the report is still emitted).  Reports are byte-identical across
runs in exact mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import cache

from . import __version__
from .framework import FrameworkError, _format_scalar, _parse_scalar, parse_framework
from .les import LesReport, _LesContext, _report_from_context, les_obstacle, perturbation_scan
from .linalg import MODE_EXACT, MODE_FLOAT, from_integer_form
from .structural import moment_dim
from .svgdraw import render_svg

SCHEMA_VERSION = 1


def _load(args):
    """(framework, sha256) of ``args.input`` read in ``args.mode``, or (None,
    None) after an error line.  The file is read once: the digest names the
    bytes that were parsed."""
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
        return parse_framework(data.decode("utf-8"), args.mode), hashlib.sha256(data).hexdigest()
    except (OSError, UnicodeDecodeError, FrameworkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None


_LES_NEEDS = {"disconnected": "a connected framework", "no edges": "a framework with an edge"}


def _write(path, text: str) -> int:
    """Write ``text`` to ``path``: 0, or 1 after an ``error:`` line on stderr
    when the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _dims_block(dims_f, dims_m, dims_n) -> list[str]:
    head = f"  {'':12s} {'F':>6s} {'M':>6s} {'N':>6s}"
    row1 = f"  {'s; dim H1':12s} {dims_f[0]:>6d} {dims_m[0]:>6d} {dims_n[0]:>6d}"
    row0 = f"  {'m; dim H0':12s} {dims_f[1]:>6d} {dims_m[1]:>6d} {dims_n[1]:>6d}"
    return ["homology dimensions", head, row1, row0]


def _report_text(path, digest, ctx: _LesContext, report: LesReport | None,
                 dims_only=False) -> str:
    f = ctx.f
    lines = [
        f"framehom {__version__} analyze (schema {SCHEMA_VERSION})",
        f"input: {path}",
        f"sha256: {digest}",
        f"mode: {f.mode}",
        f"framework: dim={f.dim} |V|={f.num_vertices} |E|={f.num_edges} "
        f"connected={'yes' if f.connected() else 'no'}",
        "",
    ]
    lines += _dims_block(*ctx.dims)
    if dims_only:
        return "\n".join(lines) + "\n"
    lines.append("")
    if report is None:
        why, need = {"disconnected": ("is disconnected", "assume connectivity"),
                     "no edges": ("has no edges", "need an edge")}[les_obstacle(f)]
        lines.append(f"framework {why}: counting rules and the long exact")
        lines.append(f"sequence {need} and are reported not applicable.")
        return "\n".join(lines) + "\n"
    lines.append(f"rigid-body DOF: {report.rigid_dim}")
    lines.append(f"mechanisms:     {report.mech_dim}")
    lines.append("")
    lines.append(f"induced ranks: phi*(H1)={report.rank_phi1} pi*(H1)={report.rank_pi1} "
                 f"theta={report.rank_theta} phi*(H0)={report.rank_phi0}")
    lines.append("")
    lines.append("counting rules")
    for c in report.counting:
        if not c.applicable:
            lines.append(f"  [ n/a ] {c.name:24s} {c.note}")
        else:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"  [{mark:^5s}] {c.name:24s} expected {c.expected}, "
                         f"computed {c.computed} ({c.note})")
    lines.append("")
    lines.append("long exact sequence")
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        lines.append(f"  [{mark:^5s}] ({c.code}) {c.description} [{c.residual}]")
    lines.append("")
    lines.append("result: " + ("all checks passed" if report.all_passed
                               else "CHECK FAILURES (see above)"))
    return "\n".join(lines) + "\n"


def _vec_strs(vec) -> list[str]:
    return [_format_scalar(x) for x in vec]


def _report_json(path, digest, ctx: _LesContext, report: LesReport | None,
                 dims_only=False) -> str:
    f = ctx.f
    doc = {
        "schema": SCHEMA_VERSION,
        "tool": f"framehom {__version__}",
        "input": {"path": str(path), "sha256": digest},
        "mode": f.mode,
        "framework": {
            "dim": f.dim,
            "num_vertices": f.num_vertices,
            "num_edges": f.num_edges,
            "connected": f.connected(),
        },
    }
    dims_f, dims_m, dims_n = ctx.dims
    doc["dims"] = {
        "force": {"h1": dims_f[0], "h0": dims_f[1]},
        "moment": {"h1": dims_m[0], "h0": dims_m[1]},
        "anchored": {"h1": dims_n[0], "h0": dims_n[1]},
    }
    if report is not None and not dims_only:
        doc["rigid_dim"] = report.rigid_dim
        doc["mech_dim"] = report.mech_dim
        doc["ranks"] = {
            "phi_star_h1": report.rank_phi1,
            "pi_star_h1": report.rank_pi1,
            "theta": report.rank_theta,
            "phi_star_h0": report.rank_phi0,
        }
        doc["counting"] = [
            {"name": c.name, "applicable": c.applicable, "expected": c.expected,
             "computed": c.computed, "passed": c.passed, "note": c.note}
            for c in report.counting]
        doc["les_checks"] = [
            {"code": c.code, "description": c.description, "passed": c.passed,
             "residual": c.residual}
            for c in report.checks]
        doc["all_passed"] = report.all_passed
        doc["generators"] = {
            "force_h1": [_vec_strs(v) for v in ctx.force.h1.vectors],
            "anchored_h1": [_vec_strs(v) for v in ctx.anch.h1.vectors],
            "mechanisms": [_vec_strs(v) for v in report.mechanism_basis],
        }
    return json.dumps(doc, indent=2) + "\n"


def _cmd_analyze(args) -> int:
    f, digest = _load(args)
    if f is None:
        return 1
    ctx = _LesContext(f)
    report = None
    if not args.dims_only and les_obstacle(f) is None:
        report = _report_from_context(ctx)
    if args.json:
        text = _report_json(args.input, digest, ctx, report, args.dims_only)
    else:
        text = _report_text(args.input, digest, ctx, report, args.dims_only)
    if args.out and _write(args.out, text):
        return 1
    print(text, end="")
    if report is not None and not report.all_passed:
        return 2
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _parse_magnitudes(spec: str, mode: str) -> list:
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        mag = _parse_scalar(tok, mode, "--magnitudes")
        if isinstance(mag, float) and not math.isfinite(mag):
            raise ValueError(f"--magnitudes: magnitude must be finite, got {tok!r}")
        if mag < 0:
            raise ValueError(f"--magnitudes: magnitude must be nonnegative, got {tok!r}")
        out.append(mag)
    if not out:
        raise ValueError("no magnitudes given")
    return out


def _parse_seeds(spec: str) -> list[int]:
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        lo, sep, hi = tok.partition("..")
        try:
            lo, hi = int(lo), int(hi if sep else lo)
        except ValueError:
            raise ValueError(f"--seeds: bad seed {tok!r}") from None
        if hi < lo:
            raise ValueError(f"--seeds: empty range {tok!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError("no seeds given")
    return out


SCAN_COLUMNS = ("magnitude", "seed", "h1_force", "h0_force", "h1_moment", "h0_moment",
                "h1_anchored", "h0_anchored", "rank_phi1", "rank_pi1", "rank_theta")


def _cmd_scan(args) -> int:
    f, _ = _load(args)
    if f is None:
        return 1
    try:
        magnitudes = _parse_magnitudes(args.magnitudes, args.mode)
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if why := les_obstacle(f):
        print(f"error: perturbation scans need {_LES_NEEDS[why]}", file=sys.stderr)
        return 1
    rows = perturbation_scan(f, magnitudes, seeds)
    lines = [",".join(SCAN_COLUMNS)]
    for r in rows:
        if not r.valid:
            print(f"warning: skipped magnitude={r.magnitude} seed={r.seed}: {r.error}",
                  file=sys.stderr)
            lines.append(f"{r.magnitude},{r.seed},,,,,,,,,")
            continue
        cells = (r.magnitude, r.seed, *r.dims_force, *r.dims_moment, *r.dims_anchored,
                 r.rank_phi1, r.rank_pi1, r.rank_theta)
        lines.append(",".join(map(str, cells)))
    text = "\n".join(lines) + "\n"
    if args.out:
        return _write(args.out, text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# svg
# ---------------------------------------------------------------------------

def _shear_value(ctx: _LesContext, e: int, couple) -> str:
    """Annotation for one anchored edge value: moment and transverse shear."""
    n = ctx.f.dim
    w = moment_dim(n)
    moment = couple[:w]
    force = [float(x) for x in couple[w:]]
    if n == 2:
        d = ctx.f.edge_geometry(e).direction
        dl = (float(d[0]) ** 2 + float(d[1]) ** 2) ** 0.5
        shear = (force[0] * -float(d[1]) + force[1] * float(d[0])) / dl
        return f"M={float(moment[0]):.4g} V={shear:.4g}"
    mag = math.hypot(*force)
    mm = math.hypot(*(float(c) for c in moment))
    return f"|M|={mm:.4g} |V|={mag:.4g}"


def _cmd_svg(args) -> int:
    f, _ = _load(args)
    if f is None:
        return 1
    if f.dim > 3:
        print("error: svg export needs a 2- or 3-dimensional framework", file=sys.stderr)
        return 1
    try:
        space, idx_s = args.generator.split(":", 1)
        idx = int(idx_s)
        space = space.upper()
        if space not in ("F", "N"):
            raise ValueError
    except ValueError:
        print("error: --generator must look like F:0 or N:3", file=sys.stderr)
        return 1
    if why := les_obstacle(f):
        print(f"error: svg export needs {_LES_NEEDS[why]}", file=sys.stderr)
        return 1
    ctx = _LesContext(f)
    show = not args.no_svg_values
    gens = ctx.force.h1.vectors if space == "F" else ctx.anchored_generators
    if not len(gens):
        which = "force" if space == "F" else "anchored"
        print(f"error: no generators -- dim H1({which}) = 0", file=sys.stderr)
        return 1
    if not 0 <= idx < len(gens):
        print(f"error: generator index {idx} out of range 0..{len(gens) - 1}",
              file=sys.stderr)
        return 1
    gen = gens[idx].reshape(-1, 1)
    if space == "F":
        edge_texts = {e: f"t={float(gen[e, 0]):.4g}" for e in range(f.num_edges)}
        svg = render_svg(f, title=f"axial self-stress F:{idx}",
                         edge_texts=edge_texts, show_values=show)
    else:
        couples = ctx.section.apply_c1(gen).reshape(f.num_edges, -1)
        edge_texts = {e: _shear_value(ctx, e, couples[e]) for e in range(f.num_edges)}
        res = from_integer_form(*ctx.resultants(gen)).reshape(f.num_vertices, -1)
        arrows = {v: tuple(res[v, :]) for v in range(f.num_vertices)
                  if any(float(x) != 0.0 for x in res[v, :])}
        svg = render_svg(f, title=f"anchored self-stress N:{idx}",
                         edge_texts=edge_texts, vertex_arrows=arrows, show_values=show)
    return _write(args.out, svg)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every ``main`` call."""
    p = argparse.ArgumentParser(prog="framehom",
                                description="cosheaf homology of trusses and frames")
    p.add_argument("--version", action="version", version=f"framehom {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input")
    common.add_argument("--mode", choices=(MODE_EXACT, MODE_FLOAT), default=MODE_EXACT)

    pa = sub.add_parser("analyze", parents=[common], help="full homology / LES / counting report")
    pa.add_argument("--json", action="store_true", help="machine-readable report")
    pa.add_argument("--dims-only", action="store_true",
                    help="homology dimension table only")
    pa.add_argument("--out", help="also write the report to this file")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("scan", parents=[common], help="perturbation scan (CSV)")
    ps.add_argument("-m", "--magnitudes", required=True,
                    help="comma-separated magnitudes, e.g. 0,1/100")
    ps.add_argument("-s", "--seeds", default="1",
                    help="comma-separated seeds, ranges allowed: 1..10")
    ps.add_argument("--out", help="write CSV here instead of stdout")
    ps.set_defaults(func=_cmd_scan)

    pv = sub.add_parser("svg", parents=[common], help="draw a self-stress generator")
    pv.add_argument("--generator", required=True,
                    help="SPACE:INDEX with SPACE one of F, N; anchored generators "
                         "list the frame-stress images first, then the anchored-only "
                         "stresses orthogonal to im pi*")
    pv.add_argument("--out", required=True, help="output SVG path")
    pv.add_argument("--no-svg-values", action="store_true",
                    help="suppress numeric annotations")
    pv.set_defaults(func=_cmd_svg)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run():  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
