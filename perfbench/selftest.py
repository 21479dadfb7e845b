#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

Checks, in about a minute:

1. the closed forms and golden values that the output checks rely on
   match a live exact ``verify_les`` on grid3, lattice2, Desargues and box3d;
2. the tracer rebinds and restores every wrapper, and the calibration
   timer samples, keeps its handler time apart and restores ``SIGALRM``;
3. a short untraced and a short traced run print every metric named in
   BENCHMARK.json, with its unit, and pass their output checks;
4. the benchmark exits nonzero, printing no result, in a copy that holds
   only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from framehom import verify_les  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
from inputs import build  # noqa: E402
from workloads import reference  # noqa: E402


def check_references():
    for spec in ("grid3", "lattice2", "desargues", "box3d"):
        f = build(spec)
        r = verify_les(f)
        got = {"dims": (r.dims_force, r.dims_moment, r.dims_anchored),
               "ranks": {"phi_star_h1": r.rank_phi1, "pi_star_h1": r.rank_pi1,
                         "theta": r.rank_theta, "phi_star_h0": r.rank_phi0}}
        want = reference(spec, f.dim, f.num_vertices, f.num_edges)
        if got != want or not r.all_passed:
            raise SystemExit(f"{spec}: live {got} (all_passed={r.all_passed}), "
                             f"reference {want}")
        print(f"ok  reference {spec}: {want['dims']}")


def check_tracer_restores():
    import framehom.cli
    import framehom.les
    import framehom.linalg
    originals = (framehom.linalg.kernel_basis, framehom.les.kernel_basis,
                 framehom.cli.main, framehom.les._LesContext.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        if not spans.installed() or framehom.les.kernel_basis is originals[1]:
            raise SystemExit("tracer did not rebind les.kernel_basis")
    finally:
        tracer.uninstall()
    now = (framehom.linalg.kernel_basis, framehom.les.kernel_basis,
           framehom.cli.main, framehom.les._LesContext.__init__)
    if spans.installed() or any(a is not b for a, b in zip(originals, now)):
        raise SystemExit("tracer left wrappers behind")
    print("ok  tracer installs and restores")


def check_speedometer():
    if speed.unit() != 8:
        raise SystemExit("calibration unit: wrong rank of its fixed matrix")
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as spd:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            sum(i * i for i in range(1000))
        t1 = time.perf_counter()
    if len(spd.samples) < 3 or not 0 < spd.paused < t1 - t0:
        raise SystemExit(f"calibration timer: {len(spd.samples)} samples, "
                         f"{spd.paused:.4f} s paused in {t1 - t0:.4f} s")
    if signal.getsignal(signal.SIGALRM) is not before:
        raise SystemExit("calibration timer left its SIGALRM handler behind")
    print(f"ok  calibration timer: {len(spd.samples)} samples, "
          f"factor {spd.factor(t0, t1):.3f}")


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metrics(bench: dict):
    workload = "dims-exact"
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                    "--trace", str(trace))
        if proc.returncode != 0:
            raise SystemExit(f"trace {trace}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise SystemExit(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"trace {trace}: failed items\n{proc.stdout}")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            raise SystemExit(f"trace {trace}: metrics {got}, BENCHMARK.json {want}")
        print(f"ok  {len(got)} {key} metrics with units at --trace {trace}")


def check_refuses_without_sources(bench: dict):
    bare = HERE / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        for f in (ROOT / path).glob("*"):
            if f.is_file():
                shutil.copy(f, bare / path)
    proc = _run(bare, "--workload", "dims-exact", "--seed", "0", "--seconds", "1")
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        raise SystemExit("benchmark did not refuse a copy without the framehom sources")
    print(f"ok  refuses a copy without sources (exit {proc.returncode})")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_references()
    check_tracer_restores()
    check_speedometer()
    check_metrics(bench)
    check_refuses_without_sources(bench)
    print("selftest passed")


if __name__ == "__main__":
    main()
