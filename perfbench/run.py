#!/usr/bin/env python3
"""framehom benchmark: the exact pipeline end to end, and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analyze-exact-ladder --seed 1 --seconds 36 --trace 0

Load model: a closed loop with one caller in one process.  Items run one
after another, with no threads, and numpy's BLAS is pinned to one thread.
A pass runs every item of the workload once.  Passes repeat until the
next one would end after ``--seconds``; at least one pass runs.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
five set-ups (an ``import framehom.cli`` timed in a fresh interpreter,
plus generating, writing and loading the inputs and one warm-up item);
``wall_s``, the median pass time; ``items_per_s``; ``item_p50_s`` and
``item_p90_s``, the per-pass median and 90th percentile of item times,
medianed over passes; and ``peak_rss_mb``.  Times are in reference
seconds: measured seconds scaled by the machine's speed at the moment,
as a fixed calibration unit timed alongside gives it (``speed.py``).
The raw seconds are printed and kept in the record.  ``--trace 1`` spends half of
``--seconds`` on untraced passes, then runs one pass with the span
wrappers of ``spans.py`` installed, prints the per-layer table, writes the
span dump, and reports the per-layer metrics.

Every output is checked against its reference after the timed passes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with the environment and every input's sha256, goes to
``perfbench/work/results/``.
"""

import os

# Pin BLAS before numpy is imported, here and in the import probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed  # beside this script; imports nothing of framehom

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 5
BRACKET_UNITS = 40
SETUP_BRACKET_UNITS = 20

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import framehom.cli; "
                 "print(time.perf_counter() - t)")


def _import_framehom():
    """Import framehom from this checkout's sources, and nowhere else."""
    if not (SRC / "framehom" / "__init__.py").is_file():
        raise SystemExit(f"error: no framehom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import framehom
    if Path(framehom.__file__).resolve().parent != SRC / "framehom":
        raise SystemExit(f"error: imported framehom from {framehom.__file__}, not {SRC}")


class _Raised:
    """Stands in for the output of an item that raised."""

    def __init__(self, text: str):
        self.text = text


def _import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def setup(workloads, name: str, seed: int):
    """SETUP_REPEATS full set-ups; returns the last workload and every time.

    Each time is in reference seconds (``speed.py``), scaled by calibration
    units run just before and after it, and in raw seconds.  No timer runs
    during a set-up: its handler would compete with the import probe.
    """
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        spd = speed.Speedometer()
        spd.sample(SETUP_BRACKET_UNITS)
        start = time.perf_counter()
        imported = _import_seconds()
        t0 = time.perf_counter()
        wl = workloads.prepare(name, seed, WORK / "inputs" / f"{name}-seed{seed}")
        wl.items[0].run()
        t1 = time.perf_counter()
        spd.sample(SETUP_BRACKET_UNITS)
        raw.append(imported + t1 - t0)
        ref.append(raw[-1] * spd.factor(start, t1, len(spd.samples)))
    return wl, ref, raw


def run_pass(wl, spd, tracer=None) -> dict:
    """One pass over the items; item times leave out ``spd``'s handler time."""
    timed, outputs = [], []
    start = time.perf_counter()
    for idx, item in enumerate(wl.items):
        if tracer is not None:
            tracer.item = idx
        paused = spd.paused
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception:  # an item that raises is a failed item, not a failed run
            out = _Raised(traceback.format_exc(limit=3))
        t1 = time.perf_counter()
        timed.append((t0, t1, t1 - t0 - (spd.paused - paused)))
        outputs.append(out)
    end = time.perf_counter()
    return {"start": start, "end": end, "items": timed, "outputs": outputs,
            "raw_times": [raw for _, _, raw in timed]}


def measure(wl, budget: float):
    """Untraced passes until the next one would end after ``budget`` seconds.

    Returns the passes, each with its item times in reference seconds, and
    the Speedometer that sampled the machine's speed meanwhile.
    """
    passes = []
    with speed.Speedometer() as spd:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(wl, spd))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(sum(p["raw_times"]) for p in passes) > budget:
                break
    for p in passes:
        p["times"] = [raw * spd.factor(t0, t1) for t0, t1, raw in p["items"]]
        p["wall"] = sum(p["times"])
    return passes, spd


def traced_pass(wl, tracer) -> dict:
    """One pass under the span wrappers, with no timer to disturb the spans.

    Its reference seconds use calibration units run just before and after.
    """
    spd = speed.Speedometer()
    spd.sample(BRACKET_UNITS)
    tracer.install()
    try:
        p = run_pass(wl, spd, tracer)
    finally:
        tracer.uninstall()
    spd.sample(BRACKET_UNITS)
    f = spd.factor(p["start"], p["end"], len(spd.samples))
    p["times"] = [raw * f for raw in p["raw_times"]]
    p["wall"] = sum(p["times"])
    return p


def check_outputs(wl, passes) -> list:
    failures = []
    for k, p in enumerate(passes):
        for item, out in zip(wl.items, p["outputs"]):
            reason = out.text if isinstance(out, _Raised) else item.check(out)
            if reason is not None:
                failures.append({"pass": k, "item": item.name, "reason": reason})
    return failures


def _p90(times) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def end_to_end(wl, passes, setup_times) -> dict:
    """Every time is in reference seconds; see ``speed.py``."""
    wall = statistics.median(p["wall"] for p in passes)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (len(wl.items) / wall, "1/s"),
        "item_p50_s": (statistics.median(statistics.median(p["times"]) for p in passes), "s"),
        "item_p90_s": (statistics.median(_p90(p["times"]) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "framehom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    return {
        "git_revision": _git_revision(),
        "framehom_source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    _import_framehom()
    import spans  # the benchmark's own modules sit beside this script
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 + ", ".join(workloads.WORKLOADS))

    env = environment(args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    wl, setup_times, setup_raw = setup(workloads, args.workload, args.seed)
    if spans.installed():
        raise RuntimeError("span wrappers present before the untraced passes")
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, spd = measure(wl, budget)
    metrics = end_to_end(wl, passes, setup_times)
    units = [dt for _, dt in spd.samples]
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "inputs": wl.inputs, "setup_s": setup_times,
              "setup_raw_s": setup_raw, "items": [it.name for it in wl.items],
              "calibration": {"reference_unit_s": speed.REFERENCE_UNIT_S,
                              "samples": len(units), "median_unit_s": statistics.median(units),
                              "min_unit_s": min(units), "max_unit_s": max(units)}}
    if args.trace:
        tracer = spans.Tracer()
        traced = traced_pass(wl, tracer)
        overhead = traced["wall"] - metrics["wall_s"]["value"]
        stats = spans.span_stats(tracer.spans)
        layer = spans.layer_metrics(stats, tracer, overhead)
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        dump = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(dump)
        print(spans.format_table(stats, layer))
        record.update(spans_file=str(dump), traced_wall_s=traced["wall"],
                      traced_raw_wall_s=sum(traced["raw_times"]))
        passes.append(traced)

    workloads.resolve_deferred(wl)
    failures = check_outputs(wl, passes)
    attempted = len(wl.items) * len(passes)
    record.update(
        passes=[{"wall": p["wall"], "times": p["times"], "raw_wall": sum(p["raw_times"]),
                 "raw_times": p["raw_times"]} for p in passes],
        p90_samples_per_pass=len(wl.items),
        failures=failures, attempted=attempted, failed=len(failures),
        fail_ratio=len(failures) / attempted,
        end_to_end=metrics, per_layer=layer if args.trace else None)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for f in failures:
        print(f"FAILED pass {f['pass']} item {f['item']}: {f['reason']}")
    print(f"items {len(wl.items)} passes {len(passes)} attempted {attempted} "
          f"failed {len(failures)} fail_ratio {len(failures) / attempted:.4f}")
    raw_walls = [sum(p["raw_times"]) for p in passes[:len(passes) - args.trace]]
    print(f"raw seconds: setup median {statistics.median(setup_raw):.4f}, pass median "
          f"{statistics.median(raw_walls):.4f}; calibration unit median "
          f"{statistics.median(units) * 1000:.3f} ms over {len(units)} samples "
          f"(reference {speed.REFERENCE_UNIT_S * 1000:g} ms)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": layer if args.trace else metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
