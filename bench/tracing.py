"""Span tracer for the benchmark's traced iterations.

The tracer wraps public fbmecon functions at every module binding that
holds them.  ``from .paths import kernel_sums`` copies the function object
into ``fbmecon.estimator``, so wrapping ``fbmecon.paths.kernel_sums`` alone
would miss the calls made from the estimator; :meth:`Tracer.install` finds
every binding by identity instead.  Spans live in memory (name, start, end,
parent, iteration, self time) and are summarised per iteration when the
run ends.  Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

# Functions traced, as "module.function"; the module is the layer.  A name
# missing from the package (renamed or removed by a later change) is skipped
# and its metrics read 0.
TRACED = (
    "cli.main",
    "params.load_config",
    "params.params_from_config",
    "params.validate",
    "params.derive_constants",
    "params.default_adjustment",
    "params.adjustment_eval",
    "paths.simulate_brownian",
    "paths.kernel_sums",
    "paths.memory_exact",
    "paths.simulate_output",
    "paths.simulate_bundle",
    "estimator.estimate_memory",
    "estimator.euler_reference",
    "estimator.convergence_study",
    "estimator.classify_memory",
    "equilibrium.equilibrium",
    "equilibrium.boundary_equilibrium",
    "equilibrium.sweep",
    "csvio.write_path_csv",
    "csvio.write_memory_csv",
    "csvio.write_sweep_csv",
    "csvio.write_convergence_csv",
    "csvio.read_t_z_csv",
)
LAYERS = ("cli", "params", "paths", "estimator", "equilibrium", "csvio")
REGIONS = ("1", "2", "3", "4", "boundary", "nonexistent")
_F8 = 8  # bytes per float64 operand


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (key, t0, t1, parent, iteration, self_s)
        self.counts: dict[int, dict] = {}  # computed counters per iteration
        self._stack: list[list] = []  # [span index, child time, key] per open span
        self._iteration = -1
        self._saved: list[tuple] = []
        self._sigs: dict[str, inspect.Signature] = {}

    # -- installation -------------------------------------------------------

    def install(self, iteration: int) -> None:
        """Wrap every binding of every traced function for one iteration."""
        self._iteration = iteration
        self.counts[iteration] = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fbmecon" or name.startswith("fbmecon."))]
        for key in TRACED:
            layer, fname = key.split(".")
            owner = sys.modules.get(f"fbmecon.{layer}")
            fn = getattr(owner, fname, None)
            if fn is None:
                continue
            self._sigs.setdefault(key, inspect.signature(fn))
            wrapped = self._wrap(key, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        self._iteration = -1

    def _wrap(self, key: str, fn):
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(key, fn, args, kwargs)

        return traced

    def _call(self, key, fn, args, kwargs):
        parent, parent_key = (self._stack[-1][0], self._stack[-1][2]) if self._stack else (-1, None)
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0, key]
        self._stack.append(frame)
        ok = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            self.spans[idx] = (key, t0, t1, parent, self._iteration, dur - frame[1])
            self._count(key, parent_key, args, kwargs, result if ok else None, ok)

    # -- computed counters --------------------------------------------------

    def _bump(self, name: str, by=1) -> None:
        c = self.counts[self._iteration]
        c[name] = c.get(name, 0) + by

    def _count(self, key, parent_key, args, kwargs, result, ok) -> None:
        if key == "paths.kernel_sums":
            a = self._sigs[key].bind(*args, **kwargs).arguments
            stride = int(a.get("stride", 1))
            n_out = len(a["dw"]) // stride
            if float(a["prefactor"]) != 0.0:
                # dot of length n*stride for n = 1..n_out: one multiply-add per term
                terms = stride * n_out * (n_out + 1) // 2
                self._bump("paths.kernel_sums.terms", terms)
                self._bump("paths.kernel_sums.bytes_computed", 2 * _F8 * terms)
        elif key == "estimator.estimate_memory":
            a = self._sigs[key].bind(*args, **kwargs).arguments
            self._bump("estimator.estimate_memory.steps", int(a["grid"].N))
        elif key == "equilibrium.equilibrium":
            # the boundary solver's probe at y = 1e-4 is not a state of its own
            if parent_key != "equilibrium.boundary_equilibrium":
                self._bump("equilibrium.states")
                self._bump(f"equilibrium.region.{result.region}" if ok else "equilibrium.failed")
        elif key.startswith("csvio.") and ok:
            a = self._sigs[key].bind(*args, **kwargs).arguments
            kind = "read" if key == "csvio.read_t_z_csv" else "write"
            self._bump(f"csvio.{kind}.bytes", os.path.getsize(a["path"]))

    # -- summary ------------------------------------------------------------

    def iteration_summary(self, iteration: int) -> dict[str, float]:
        """Per-layer figures of one traced iteration."""
        spans = self.spans
        mine = [i for i, s in enumerate(spans) if s[4] == iteration]

        def outermost(i, same) -> bool:
            # no ancestor satisfying same(key): its time is not counted twice
            p = spans[i][3]
            while p >= 0:
                if same(spans[p][0]):
                    return False
                p = spans[p][3]
            return True

        out: dict[str, float] = {}

        def add(name, v):
            out[name] = out.get(name, 0) + v

        for i in mine:
            key, t0, t1, _, _, self_s = spans[i]
            layer = key.split(".")[0]
            add(f"{key}.calls", 1)
            add(f"{key}.self_s", self_s)
            add(f"{layer}.self_s", self_s)
            if outermost(i, lambda k: k == key):
                add(f"{key}.busy_s", t1 - t0)
            if outermost(i, lambda k: k.split(".")[0] == layer):
                add(f"{layer}.busy_s", t1 - t0)
        out.update(self.counts[iteration])
        out["trace.spans"] = len(mine)
        return out


def per_layer_metrics(summaries: list[dict], traced_wall: list[float],
                      untraced_wall: list[float]) -> tuple[dict, bool]:
    """Per-iteration per-layer metrics and whether the counters repeated.

    Times are medians over the traced iterations; counts must be the same
    in every traced iteration, since every iteration runs the same inputs.
    """
    def med(name):
        return statistics.median(s.get(name, 0.0) for s in summaries)

    def counters(s):
        return {k: v for k, v in s.items() if not k.endswith("_s")}

    first = summaries[0]
    repeat = all(counters(s) == counters(first) for s in summaries[1:])

    m: dict[str, tuple[float, str]] = {}
    m["paths.kernel_sums.calls"] = (first.get("paths.kernel_sums.calls", 0), "count")
    m["paths.kernel_sums.busy_s"] = (med("paths.kernel_sums.busy_s"), "s")
    m["paths.kernel_sums.terms"] = (first.get("paths.kernel_sums.terms", 0), "count")
    m["paths.kernel_sums.bytes_computed"] = (first.get("paths.kernel_sums.bytes_computed", 0), "B")
    for fn in ("simulate_brownian", "simulate_output"):
        m[f"paths.{fn}.busy_s"] = (med(f"paths.{fn}.busy_s"), "s")
    for fn in ("memory_exact", "simulate_bundle"):
        m[f"paths.{fn}.self_s"] = (med(f"paths.{fn}.self_s"), "s")

    steps = first.get("estimator.estimate_memory.steps", 0)
    est_busy = med("estimator.estimate_memory.busy_s")
    m["estimator.estimate_memory.calls"] = (first.get("estimator.estimate_memory.calls", 0), "count")
    m["estimator.estimate_memory.busy_s"] = (est_busy, "s")
    m["estimator.estimate_memory.steps"] = (steps, "count")
    m["estimator.estimate_memory.us_per_step"] = (1e6 * est_busy / steps if steps else 0.0, "us")
    for fn in ("euler_reference", "convergence_study"):
        m[f"estimator.{fn}.self_s"] = (med(f"estimator.{fn}.self_s"), "s")

    states = first.get("equilibrium.states", 0)
    eq_busy = med("equilibrium.equilibrium.busy_s")
    m["equilibrium.equilibrium.calls"] = (first.get("equilibrium.equilibrium.calls", 0), "count")
    m["equilibrium.equilibrium.busy_s"] = (eq_busy, "s")
    m["equilibrium.equilibrium.us_per_state"] = (1e6 * eq_busy / states if states else 0.0, "us")
    m["equilibrium.boundary_equilibrium.calls"] = (
        first.get("equilibrium.boundary_equilibrium.calls", 0), "count")
    m["equilibrium.sweep.self_s"] = (med("equilibrium.sweep.self_s"), "s")
    m["equilibrium.states"] = (states, "count")
    for r in REGIONS:
        m[f"equilibrium.region.{r}"] = (first.get(f"equilibrium.region.{r}", 0), "count")
    m["equilibrium.failed"] = (first.get("equilibrium.failed", 0), "count")

    for kind in ("write", "read"):
        fns = [k for k in TRACED if k.startswith(f"csvio.{kind}_")]
        busy = statistics.median(sum(s.get(f"{k}.busy_s", 0.0) for k in fns) for s in summaries)
        m[f"csvio.{kind}.busy_s"] = (busy, "s")
        m[f"csvio.{kind}.bytes"] = (first.get(f"csvio.{kind}.bytes", 0), "B")

    m["cli.main.busy_s"] = (med("cli.main.busy_s"), "s")
    m["cli.self_s"] = (med("cli.self_s"), "s")
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.busy_s"] = (med(f"{layer}.busy_s"), "s")

    m["trace.overhead_frac"] = (min(traced_wall) / min(untraced_wall) - 1.0, "fraction")
    m["trace.spans"] = (first["trace.spans"], "count")
    return m, repeat


def dump_spans(tracer: Tracer) -> dict:
    """Spans in a compact column form for the trace file."""
    keys = sorted({s[0] for s in tracer.spans})
    ids = {k: i for i, k in enumerate(keys)}
    return {
        "names": keys,
        "columns": ["name", "start_s", "end_s", "parent", "iteration", "self_s"],
        "spans": [[ids[k], round(t0, 7), round(t1, 7), p, it, round(s, 7)]
                  for k, t0, t1, p, it, s in tracer.spans],
        "counters": tracer.counts,
    }
