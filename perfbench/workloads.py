"""The benchmark workloads: their items, inputs and output checks.

An item is one call into a public entry point of framehom:
``framehom.cli.main`` for the ``analyze-*`` and ``dims-exact`` items,
``framehom.les.perturbation_scan`` for the scan items.  Both are looked
up on their module at call time, so the traced pass goes through the
span wrappers.  Every output is
checked after the timed passes against a reference that is derived, not
recorded:

* grids and lattices are connected, rigid and full-span, so the counting
  rules give every dimension in closed form and exactness gives the ranks;
* Desargues and ``box3d`` use the dimensions stated in the README and the
  tests, with ranks derived from exactness;
* the random frameworks of the float ladder are compared with a live
  exact-mode ``verify_les``;
* every scan row must keep H1(N) = 12, H0(N) = 0, H1(M) = 12 and
  rank pi* + rank theta = 12.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from framehom import cli, les, load_framework, save_framework, verify_les

from inputs import build, reoriented, sha256_of

SCAN_MAGNITUDES = (Fraction(1, 100), Fraction(1, 1000))
SCAN_SEEDS_PER_MAGNITUDE = 100

# dims stated in the README (Desargues) and tests/test_structural.py (box3d)
GOLDEN_DIMS = {
    "desargues": ((1, 4), (12, 3), (12, 0)),
    "box3d": ((0, 12), (30, 6), (36, 0)),
}

WORKLOADS = {
    "analyze-exact-ladder": {
        "kind": "analyze", "mode": "exact",
        "specs": ("desargues", "box3d", "grid4", "grid5", "lattice2"),
    },
    "scan-desargues": {
        "kind": "scan", "mode": "exact", "specs": ("desargues",),
    },
    "dims-exact": {
        "kind": "dims", "mode": "exact", "specs": ("grid6", "grid8", "lattice3"),
    },
    "analyze-float-ladder": {
        "kind": "analyze", "mode": "float",
        "specs": ("desargues", "box3d")
        + tuple(f"random2d-{s}" for s in range(5)) + tuple(f"random3d-{s}" for s in range(5))
        + ("grid5", "grid8", "lattice3"),
    },
}


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None] = field(repr=False)


@dataclass
class Workload:
    name: str
    items: list
    inputs: dict   # spec -> {"path", "sha256", "vertices", "edges"}
    deferred: list = field(default_factory=list)  # specs checked against live exact runs


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _ranks_from_exactness(dims, rigid: int) -> dict:
    """Induced ranks forced by the LES of a connected, full-span framework."""
    (h1f, h0f), (_h1m, h0m), (h1n, _h0n) = dims
    theta = h0f - rigid
    return {"phi_star_h1": h1f, "pi_star_h1": h1n - theta, "theta": theta,
            "phi_star_h0": h0m}


def closed_form(dim: int, nv: int, ne: int) -> dict:
    """Dims and ranks of a connected, rigid, full-span framework.

    H1(F) = |E| - n|V| + k, H0(F) = k, H1(M) = k(|E| - |V| + 1), H0(M) = k,
    H1(N) = 2|E| - |V| (plane) or 5|E| - 3|V| (space), H0(N) = 0, with
    k = 3 in the plane and 6 in space; rank theta = 0.
    """
    k = 3 if dim == 2 else 6
    h1n = 2 * ne - nv if dim == 2 else 5 * ne - 3 * nv
    dims = ((ne - dim * nv + k, k), (k * (ne - nv + 1), k), (h1n, 0))
    return {"dims": dims, "ranks": _ranks_from_exactness(dims, k)}


def reference(spec: str, dim: int, nv: int, ne: int) -> dict | None:
    """Expected dims and ranks, or None when only a live exact run can tell."""
    if spec.startswith(("grid", "lattice")):
        return closed_form(dim, nv, ne)
    if spec in GOLDEN_DIMS:
        dims = GOLDEN_DIMS[spec]
        return {"dims": dims, "ranks": _ranks_from_exactness(dims, 3 if dim == 2 else 6)}
    return None


def _exact_reference(path) -> dict:
    r = verify_les(load_framework(path))
    return {"dims": (r.dims_force, r.dims_moment, r.dims_anchored),
            "ranks": {"phi_star_h1": r.rank_phi1, "pi_star_h1": r.rank_pi1,
                      "theta": r.rank_theta, "phi_star_h0": r.rank_phi0}}


def _check_report(output, expected: dict, dims_only: bool) -> str | None:
    code, text = output
    if code not in (0, 2):  # 2 still prints the report; anything else prints none
        return f"exit code {code}"
    doc = json.loads(text)
    problems = [] if code == 0 else [f"exit code {code}"]
    d = doc["dims"]
    dims = tuple((d[c]["h1"], d[c]["h0"]) for c in ("force", "moment", "anchored"))
    if dims != tuple(expected["dims"]):
        problems.append(f"dims {dims}, expected {tuple(expected['dims'])}")
    if not dims_only:
        if doc["ranks"] != expected["ranks"]:
            problems.append(f"ranks {doc['ranks']}, expected {expected['ranks']}")
        if doc["all_passed"] is not True:
            problems.append("all_passed is false")
    return "; ".join(problems) or None


def _check_scan(rows) -> str | None:
    (r,) = rows
    if not r.valid:
        return f"invalid row: {r.error}"
    if r.dims_anchored != (12, 0) or r.dims_moment[0] != 12 \
            or r.rank_pi1 + r.rank_theta != 12:
        return (f"H1/H0(N) {r.dims_anchored}, H1(M) {r.dims_moment[0]}, "
                f"rank pi* + rank theta = {r.rank_pi1} + {r.rank_theta}")
    return None


# ---------------------------------------------------------------------------
# building a workload
# ---------------------------------------------------------------------------

def _cli_item(spec: str, argv: list, expected, dims_only: bool) -> Item:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    item = Item(spec, run, lambda out: "no reference resolved")
    if expected is not None:
        item.check = lambda out: _check_report(out, expected, dims_only)
    return item


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Generate and write the inputs, load them, and build the item list.

    The float ladder's live exact references are left for
    ``resolve_deferred`` so that their cost stays out of every metric.
    """
    spec_of = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    inputs, frames = {}, {}
    for spec in spec_of["specs"]:
        f = reoriented(build(spec), seed, spec)
        path = workdir / f"{spec}.fw"
        save_framework(f, path)
        frames[spec] = load_framework(path, spec_of["mode"])
        inputs[spec] = {"path": str(path), "sha256": sha256_of(path),
                        "vertices": f.num_vertices, "edges": f.num_edges}
    wl = Workload(name, [], inputs)
    kind = spec_of["kind"]
    if kind == "scan":
        f = frames["desargues"]
        base = SCAN_SEEDS_PER_MAGNITUDE * seed
        for m in SCAN_MAGNITUDES:
            for s in range(base + 1, base + SCAN_SEEDS_PER_MAGNITUDE + 1):
                wl.items.append(Item(f"m={m},seed={s}",
                                     lambda m=m, s=s: les.perturbation_scan(f, [m], [s]),
                                     _check_scan))
        return wl
    for spec in spec_of["specs"]:
        f = frames[spec]
        argv = ["analyze", inputs[spec]["path"], "--mode", spec_of["mode"], "--json"]
        if kind == "dims":
            argv.append("--dims-only")
        expected = reference(spec, f.dim, f.num_vertices, f.num_edges)
        if expected is None:
            wl.deferred.append(spec)
        wl.items.append(_cli_item(spec, argv, expected, kind == "dims"))
    return wl


def resolve_deferred(wl: Workload):
    """Attach live exact-mode references to the items that need one."""
    for item in wl.items:
        if item.name in wl.deferred:
            expected = _exact_reference(wl.inputs[item.name]["path"])
            item.check = lambda out, e=expected: _check_report(out, e, False)
