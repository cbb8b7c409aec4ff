"""Outside-in tracer: wraps public fieldtomo functions with spans.

A span records name, stage, start, end, parent span id, op id, self
time and whether the call raised.  Spans stay in memory until
`Tracer.write_spans` writes them as gzipped JSON lines.  Wrapping rebinds the
name in every loaded ``fieldtomo`` module that holds the original
function (``from ... import`` copies included), so calls made through
``fieldtomo.cli``, ``fieldtomo.measurement``, ``fieldtomo.reconstruct``
and the package namespace are all seen.  Nothing inside the package is
edited.

Stage names follow the ROADMAP's pipeline stages; ``cli`` is the root
span of each op and its self time is whatever the wrapped functions do
not cover (argument and INI parsing, JSON artifacts, sweep loops).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

# "module.function" -> ROADMAP stage
TARGETS: dict[str, str] = {
    "states.coherent_state": "state_prep",
    "states.superposition": "state_prep",
    "fock.fock_state": "state_prep",
    "fock.density_from_pure": "state_prep",
    "probe.ideal_bloch_trajectory": "ideal_trajectory",
    "measurement.sample_trajectory": "shot_sampling",
    "measurement.write_trajectory_csv": "artifact_write",
    "spectral.dft": "dft",
    "spectral.integrate_peak": "window_reads",
    "spectral.noise_floor": "noise_floor",
    "spectral.write_spectrum_csv": "artifact_write",
    "reconstruct.populations_from_z": "leakage_removal",
    "reconstruct.coherences_from_xy": "leakage_removal",
    "reconstruct.residual_floor": "noise_floor",
    "reconstruct.peak_report": "window_reads",
    "reconstruct.reconstruct_from_spectra": "leakage_removal",
    "reconstruct.estimate_coupling": "coupling_search",
    "dce.evolve_rabi": "dce_propagation",
    "dce.condition_on_qubit": "dce_propagation",
}
ROOT = "cli.main"
STAGES = (
    "state_prep", "ideal_trajectory", "shot_sampling", "dft", "window_reads",
    "leakage_removal", "noise_floor", "coupling_search", "dce_propagation",
    "artifact_write", "cli",
)


def _arg(fn: Callable, name: str) -> Callable:
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _counters(fn_name: str, fn: Callable):
    """Work counts recorded at the boundary of selected functions."""
    if fn_name == "probe.ideal_bloch_trajectory":
        return "points", lambda a, k, r: sum(
            getattr(r, c).size for c in ("x", "y", "z") if getattr(r, c) is not None)
    if fn_name == "measurement.sample_trajectory":
        plan = _arg(fn, "plan")

        def shots(a, k, r):
            p = plan(a, k)
            return 0 if p.n_m is None else int(p.n_m) * int(p.n_t) * len(p.axes)
        return "shots", shots
    if fn_name == "spectral.dft":
        signal = _arg(fn, "signal")
        return "points", lambda a, k, r: len(signal(a, k))
    if fn_name in ("measurement.write_trajectory_csv", "spectral.write_spectrum_csv"):
        path = _arg(fn, "path")
        return "bytes", lambda a, k, r: os.path.getsize(path(a, k))
    if fn_name == "reconstruct.reconstruct_from_spectra":
        return "warnings", lambda a, k, r: len(r.warnings)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id: Optional[int] = None
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    # ----------------------------------------------------------- wrapping

    def _span(self, name: str, fn: Callable, counter) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [next(ids), clock(), 0.0]   # id, start, time in children
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                spans.append((frame[0], parent[0] if parent else None, self.op_id,
                              name, frame[1], end, duration - frame[2], failed))
            if counter is not None:
                what, count = counter
                self.counts[f"{name}.{what}"] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fieldtomo" or n.startswith("fieldtomo."))]
        for name in TARGETS:
            module_name, fn_name = name.split(".")
            home = importlib.import_module(f"fieldtomo.{module_name}")
            original = getattr(home, fn_name)
            wrapped = self._span(name, original, _counters(name, original))
            for module in modules:
                if vars(module).get(fn_name) is original:
                    setattr(module, fn_name, wrapped)
                    self._restore.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._restore):
            setattr(module, fn_name, original)
        self._restore.clear()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; yields nothing, records ``cli.main``."""
        self.op_id = op_id
        frame = [next(self._ids), time.perf_counter(), 0.0]
        self._stack.append(frame)
        failed = True
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((frame[0], None, op_id, ROOT, frame[1], end,
                               end - frame[1] - frame[2], failed))
            self.op_id = None

    # ------------------------------------------------------------ results

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-function totals, per-op counts and per-stage self-time shares."""
        calls, busy, self_s, errors = Counter(), defaultdict(float), defaultdict(float), Counter()
        stage_self = defaultdict(float)
        op_wall = 0.0
        for _, _, _, name, start, end, own, failed in self.spans:
            if name == ROOT:
                op_wall += end - start
                stage_self["cli"] += own
                continue
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += own
            errors[name] += failed
            stage_self[TARGETS[name]] += own
        out: dict[str, tuple[float, str]] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.errors"] = (errors[name], "count")
        per_op = max(n_ops, 1)
        for key, unit in (
            ("probe.ideal_bloch_trajectory.points", "count/op"),
            ("measurement.sample_trajectory.shots", "count/op"),
            ("spectral.dft.points", "count/op"),
            ("measurement.write_trajectory_csv.bytes", "B/op"),
            ("spectral.write_spectrum_csv.bytes", "B/op"),
        ):
            out[key] = (self.counts[key] / per_op, unit)
        out["reconstruct.warnings_per_op"] = (
            self.counts["reconstruct.reconstruct_from_spectra.warnings"] / per_op, "count/op")
        out["spectral.dft.calls_per_op"] = (calls["spectral.dft"] / per_op, "calls/op")
        out["spectral.integrate_peak.calls_per_op"] = (
            calls["spectral.integrate_peak"] / per_op, "calls/op")
        for stage in STAGES:
            share = stage_self[stage] / op_wall if op_wall > 0 else 0.0
            out[f"stage.{stage}.share"] = (share, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array per span.

        Times are integer nanoseconds since the first span started.
        """
        epoch = min((span[4] for span in self.spans), default=0.0)
        ns = lambda t: round((t - epoch) * 1e9)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "stage",
                                            "start_ns", "end_ns", "self_ns", "error"]}) + "\n")
            for span_id, parent, op_id, name, start, end, own, failed in self.spans:
                fh.write(json.dumps([span_id, parent, op_id, name, TARGETS.get(name, "cli"),
                                     ns(start), ns(end), round(own * 1e9), failed]) + "\n")
