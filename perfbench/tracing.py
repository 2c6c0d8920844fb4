"""In-memory span tracer installed around the library's public functions.

The library modules bind imported names at import time, so a function is
wrapped under the name its *caller* uses (``pvmppt.harness.string_current``,
not ``pvmppt.pvmodel.string_current``).  Each span records its name, start,
end, parent span and run; spans are kept in columnar arrays and written
out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np

BENCH_RUN = "bench.run"

# spans that start a new run when no enclosing span already belongs to one
RUN_BOUNDARIES = frozenset({BENCH_RUN, "harness.run_closed_loop", "converter.run"})


def library_wrap_points(harness, converter, workloads) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every traced layer entry point."""
    return [
        (harness, "string_current", "pvmodel.string_current"),
        (harness, "module_voltage", "pvmodel.module_voltage"),
        (harness, "sweep_curve", "pvmodel.sweep_curve"),
        (harness, "oracle_gmpp", "pvmodel.oracle_gmpp"),
        (harness, "calibrate_module", "pvmodel.calibrate_module"),
        (harness, "build_reference_model", "harness.build_reference_model"),
        (harness, "run_closed_loop", "harness.run_closed_loop"),
        (harness, "emit_trace", "harness.emit_trace"),
        (harness, "emit_report", "harness.emit_report"),
        (harness, "load_scenario", "harness.load_scenario"),
        (harness, "run_corpus", "harness.run_corpus"),
        (harness, "controller_tick", "control.controller_tick"),
        (converter, "run", "converter.run"),
        (converter, "step_ode", "converter.step_ode"),
        (workloads, "calibrate_module", "pvmodel.calibrate_module"),
        (workloads, "sweep_curve", "pvmodel.sweep_curve"),
    ]


class Tracer:
    """Span recorder; span id == row index in the columns."""

    def __init__(self, points: list[tuple[object, str, str]]):
        self.points = points
        self.names: list[str] = []
        self.codes: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.run_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: list[int] = []
        self._runs: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start_col)

    def _code_of(self, name: str) -> int:
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
        return self.codes[name]

    def _open(self, name: str) -> int:
        sid = len(self.start_col)
        stack, runs = self._stack, self._runs
        cur = runs[-1] if runs else -1
        run = sid if (cur < 0 and name in RUN_BOUNDARIES) else cur
        self.name_col.append(self._code_of(name))
        self.parent_col.append(stack[-1] if stack else -1)
        self.run_col.append(run)
        self.end_col.append(0.0)
        self.start_col.append(0.0)
        stack.append(sid)
        runs.append(run)
        self.start_col[sid] = perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.end_col[sid] = perf_counter()
        self._stack.pop()
        self._runs.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrap point for its traced version; restore on exit."""
        for module, attr, name in self.points:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)

    def columns(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = len(self) if hi is None else hi
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32)[lo:hi].copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64)[lo:hi].copy(),
            "run": np.frombuffer(self.run_col, dtype=np.int64)[lo:hi].copy(),
            "start": np.frombuffer(self.start_col, dtype=np.float64)[lo:hi].copy(),
            "end": np.frombuffer(self.end_col, dtype=np.float64)[lo:hi].copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def self_times(cols: dict[str, np.ndarray], lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Duration and self time (duration minus time covered by direct children)
    of every span in ``cols``, whose first row is span id ``lo``."""
    dur = cols["end"] - cols["start"]
    child = np.zeros_like(dur)
    has_parent = cols["parent"] >= lo
    np.add.at(child, cols["parent"][has_parent] - lo, dur[has_parent])
    return dur, dur - child


def aggregate(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer totals over spans ``[lo, hi)`` plus a per-run breakdown.

    Returns ``{"layers": {name: {"calls", "s", "self_s"}}, "runs": [...]}``;
    each run carries its root span's name and duration and the summed
    self time of the library spans inside it."""
    cols = tracer.columns(lo, hi)
    dur, own = self_times(cols, lo)
    layers: dict[str, dict] = {}
    for code, name in enumerate(tracer.names):
        mask = cols["name"] == code
        if mask.any():
            layers[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
    runs = []
    bench_code = tracer.codes.get(BENCH_RUN, -1)
    for root in np.unique(cols["run"][cols["run"] >= lo]):
        mask = cols["run"] == root
        r = int(root) - lo
        lib = mask & (cols["name"] != bench_code)
        per_layer: dict[str, list] = {}
        for code in np.unique(cols["name"][lib]):
            m = lib & (cols["name"] == code)
            per_layer[tracer.names[code]] = [int(m.sum()), float(dur[m].sum()), float(own[m].sum())]
        runs.append(
            {
                "root": tracer.names[cols["name"][r]],
                "traced_s": float(dur[r]),
                "accounted_s": float(own[lib].sum()),
                "layers": per_layer,
            }
        )
    return {"layers": layers, "runs": runs}
