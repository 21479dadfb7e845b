"""Outside-in tracing of framehom: span wrappers installed from the benchmark.

``Tracer.install`` wraps every public function of the traced modules,
the ``CosheafMap.apply_c0``/``apply_c1`` methods (one span name,
``cosheaf.apply``) and the two private entry points of ``les`` that hold
the connecting map and the LES checks (``les._LesContext`` and
``les._report_from_context``), so their own work counts as ``les`` self
time instead of landing in the caller.  Each wrapper is rebound in every
``framehom`` namespace that holds the original, whatever the local name,
because modules import with ``from .linalg import ...``.

Spans are ``[name, start, end, parent, item]`` lists kept in memory and
dumped when the run ends.  Timestamps come from a clock that stops while
the tracer counts matrix entries and bit lengths, so that bookkeeping
lands in no span; it still shows in ``trace.overhead_s``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

import numpy as np

TRACED_MODULES = ("framework", "structural", "cosheaf", "linalg", "les", "cli")
# linalg entry points whose matrix arguments feed linalg.entries_in / linalg.max_bits
MATRIX_FUNCS = ("linalg.rank", "linalg.kernel_basis", "linalg.image_basis",
                "linalg.solve_in_image")

_LINALG_FUNCS = ("rank", "kernel_basis", "image_basis", "image_complement_basis",
                 "solve_in_image", "solve_gram", "span_rows", "complement_within",
                 "subspace_contains", "subspaces_equal")

# (metric name, unit); the per_layer list of BENCHMARK.json, in order
LAYER_METRICS = (
    [("framework.load_framework.calls", "count"), ("framework.load_framework.s", "s"),
     ("cli.self_s", "s")]
    + [(f"structural.{fn}.calls", "count")
       for fn in ("build_force_cosheaf", "build_moment_cosheaf", "build_phi")]
    + [("structural.rigid_body_space.s", "s")]
    + [(f"{fn}.{kind}", unit)
       for fn in ("cosheaf.quotient_cosheaf", "cosheaf.check_cosheaf_map",
                  "cosheaf.assemble_boundary", "cosheaf.homology", "cosheaf.apply",
                  "les.homology_dims", "les.induced_map")
       for kind, unit in (("calls", "count"), ("s", "s"))]
    + [(f"linalg.{fn}.{kind}", unit)
       for fn in _LINALG_FUNCS for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("linalg.self_s", "s"), ("linalg.entries_in", "count"), ("linalg.max_bits", "bits"),
       ("les.perturbation_scan.s", "s"), ("les.self_s", "s"), ("trace.overhead_s", "s")]
)


def _max_bits(a: np.ndarray) -> int:
    if a.dtype != object or not a.size:
        return 0
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in a.flat)


class Tracer:
    """Span recorder for one traced pass; install() before, uninstall() after."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self.entries_in = 0
        self.max_bits = 0
        self._stack: list[int] = []
        self._paused = 0.0
        self._patches: list[tuple] = []

    def _now(self) -> float:
        return time.perf_counter() - self._paused

    def _count_matrices(self, args):
        t0 = time.perf_counter()
        for a in args[:2]:
            if isinstance(a, np.ndarray):
                self.entries_in += a.size
                self.max_bits = max(self.max_bits, _max_bits(a))
        self._paused += time.perf_counter() - t0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = name in MATRIX_FUNCS

        def wrapper(*args, **kwargs):
            if count:
                self._count_matrices(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = self._now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = self._now()
                stack.pop()

        wrapper.perfbench_span = name
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"framehom.{m}") for m in TRACED_MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        les = mods["les"]
        wrappers[les._report_from_context] = self._wrap(
            "les._report_from_context", les._report_from_context)
        for modname, mod in list(sys.modules.items()):
            if modname == "framehom" or modname.startswith("framehom."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, name, wrappers[obj])
        self._patch(les._LesContext, "__init__",
                    self._wrap("les._LesContext", les._LesContext.__init__))
        cmap = mods["cosheaf"].CosheafMap
        for meth in ("apply_c0", "apply_c1"):
            self._patch(cmap, meth, self._wrap("cosheaf.apply", getattr(cmap, meth)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def installed() -> bool:
    """True when any framehom function or traced method is a tracer wrapper."""
    les, cosheaf = sys.modules["framehom.les"], sys.modules["framehom.cosheaf"]
    objs = [les._LesContext.__init__, cosheaf.CosheafMap.apply_c0,
            cosheaf.CosheafMap.apply_c1]
    for modname, mod in list(sys.modules.items()):
        if modname == "framehom" or modname.startswith("framehom."):
            objs.extend(vars(mod).values())
    return any(hasattr(obj, "perfbench_span") for obj in objs)


def span_stats(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive seconds skip spans nested in a span of the same name, so
    recursion is not counted twice.  Raises when, under some top-level
    span, the self times of the span and its descendants do not add up to
    its duration.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]
    subtree = self_t[:]
    for i in range(n - 1, -1, -1):
        p = spans[i][3]
        if p >= 0:
            subtree[p] += subtree[i]
        elif abs(subtree[i] - dur[i]) > 1e-9 * max(1.0, dur[i]):
            raise AssertionError(f"self times under span {i} ({spans[i][0]}) sum to "
                                 f"{subtree[i]!r}, its duration is {dur[i]!r}")
    stats: dict[str, list] = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[0], [0, 0.0, 0.0])
        st[0] += 1
        st[2] += self_t[i]
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            st[1] += dur[i]
    return {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in stats.items()}


def layer_metrics(stats: dict, tracer: Tracer, overhead_s: float) -> dict:
    """Every LAYER_METRICS entry as {"value", "unit"} from one traced pass."""
    values = {}
    for name, st in stats.items():
        for kind in ("calls", "s", "self_s"):
            values[f"{name}.{kind}"] = st[kind]
    for module in ("cli", "les", "linalg"):
        values[f"{module}.self_s"] = sum((st["self_s"] for k, st in stats.items()
                                          if k.startswith(module + ".")), 0.0)
    values["linalg.entries_in"] = tracer.entries_in
    values["linalg.max_bits"] = tracer.max_bits
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values.get(name, 0.0 if unit == "s" else 0), "unit": unit}
            for name, unit in LAYER_METRICS}


def format_table(stats: dict, metrics: dict) -> str:
    """Per-span-name calls / inclusive / self table, then the layer metrics."""
    lines = [f"{'span':40s} {'calls':>8s} {'incl s':>10s} {'self s':>10s}"]
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:40s} {st['calls']:>8d} {st['s']:>10.4f} {st['self_s']:>10.4f}")
    lines.append("")
    lines.append(f"{'layer metric':40s} {'value':>14s} unit")
    for name, m in metrics.items():
        v = m["value"]
        text = f"{v:>14d}" if isinstance(v, int) else f"{v:>14.6f}"
        lines.append(f"{name:40s} {text} {m['unit']}")
    return "\n".join(lines)
