"""Span tracing of the engine's public functions, installed from outside.

Nothing in the engine knows about tracing. `install` wraps each function
named in `workloads.LAYERS` and rebinds the wrapper in every loaded
`hypersfda` module whose namespace holds the original, because `trainer`
and `cli` bind names such as `cosine_knn`, `forward` and `build_artifacts`
at import time; a wrapper installed only in the defining module would
silently miss those calls. `rep.py` cross-checks the call counts after
each traced run, so a binding missed anyway fails the run.

Spans are kept in memory (name, start, end, parent) and written out once,
at the end, together with the run id.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import LAYERS, PEAK_MB_FUNCTIONS


class Tracer:
    """In-memory span recorder plus the per-call probes the layers need."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.converged = [0, 0]  # converged instances, solved instances
        self.peak_bytes: dict[str, int] = {}
        self.iteration_stamps: list[list[float]] = []  # one list per adapt call

    def wrap(self, name: str, fn):
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(self, name, fn, args, kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": start, "end": end,
                    "parent": None if parent < 0 else parent,
                }) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of this process: calls, total and self time, probes."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            for fn in functions:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = 0
                out[f"{key}.total_s"] = 0.0
                out[f"{key}.self_s"] = 0.0
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += (end - start) - covered
        converged, solved = self.converged
        out["hypergraph.solve_affinity_batch.converged_frac"] = (
            converged / solved if solved else 0.0
        )
        for fn in PEAK_MB_FUNCTIONS:
            out[f"{fn}.peak_mb"] = self.peak_bytes.get(fn, 0) / 2**20
        intervals = [
            (b - a) * 1e3
            for stamps in self.iteration_stamps
            for a, b in zip(stamps, stamps[1:])
        ]
        out["trainer.iterations"] = len(intervals)
        if len(intervals) >= 2:
            deciles = statistics.quantiles(intervals, n=10)
            out["trainer.iter_ms_p50"] = statistics.median(intervals)
            out["trainer.iter_ms_p90"] = deciles[8]
        else:
            out["trainer.iter_ms_p50"] = out["trainer.iter_ms_p90"] = (
                intervals[0] if intervals else 0.0
            )
        return out


def _converged_probe(tracer, name, fn, args, kwargs):
    coeffs, flags = fn(*args, **kwargs)
    tracer.converged[0] += int(flags.sum())
    tracer.converged[1] += int(flags.size)
    return coeffs, flags


def _peak_probe(tracer, name, fn, args, kwargs):
    # the functions probed this way never call one another, so tracing is
    # never already on here; nesting would corrupt the outer peak
    if tracemalloc.is_tracing():
        raise RuntimeError(f"nested tracemalloc probe in {name}")
    tracemalloc.start()
    try:
        return fn(*args, **kwargs)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracer.peak_bytes[name] = max(tracer.peak_bytes.get(name, 0), peak)


def _iteration_probe(tracer, name, fn, args, kwargs):
    """Time between iteration callbacks; the first interval starts at entry."""
    if len(args) > 6:
        raise RuntimeError("adapt called with iteration_callback as a positional arg")
    stamps = [time.perf_counter()]
    tracer.iteration_stamps.append(stamps)
    user_callback = kwargs.get("iteration_callback")

    def callback(state, record):
        stamps.append(time.perf_counter())
        if user_callback is not None:
            user_callback(state, record)

    kwargs["iteration_callback"] = callback
    return fn(*args, **kwargs)


_PROBES = {
    "hypergraph.solve_affinity_batch": _converged_probe,
    "trainer.adapt": _iteration_probe,
    **{fn: _peak_probe for fn in PEAK_MB_FUNCTIONS},
}


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a loaded engine module binds it."""
    for layer in LAYERS:
        importlib.import_module(f"hypersfda.{layer}")
    modules = [mod for modname, mod in sys.modules.items()
               if modname.split(".")[0] == "hypersfda"]
    originals = {}
    for layer, functions in LAYERS.items():
        home = sys.modules[f"hypersfda.{layer}"]
        for fn in functions:
            original = getattr(home, fn)
            originals[id(original)] = (original, tracer.wrap(f"{layer}.{fn}", original))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
