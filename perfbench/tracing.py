"""Span tracer installed from the benchmark's side of the package boundary.

The tracer replaces public functions of ``latticegames`` modules with
wrappers for the duration of one traced iteration.  A *span* wrapper records
(name, start, end, parent span id, run id) plus a few attributes taken from
the call's arguments and result; a *count* wrapper only bumps a counter, for
functions called hundreds of thousands of times per iteration.  Spans stay in
memory until the iteration ends and are written out as JSON lines.

Patches go on the name the caller looks up: ``cli`` imported ``solve_backward``
into its own namespace, so the sweep is patched as ``cli.solve_backward``, not
``solver.solve_backward``.  Nothing under ``src/`` is modified.

This module imports only the standard library, so the parent process can
use its tables without importing the package it measures.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts for one run id; single-threaded by design."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def span(self, owner, attr: str, name: str,
             attrs: Callable[[tuple, dict, object], dict] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``attrs(args, kwargs, result)`` runs after the end time is taken and
        only when the call returned.
        """
        original = getattr(owner, attr)
        spans, stack, ids, run_id = self.spans, self._stack, self._ids, self.run_id

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans.append(Span(span_id, name, start, time.perf_counter(), parent,
                                  run_id, {"error": True}))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans.append(Span(span_id, name, start, end, parent, run_id,
                              attrs(args, kwargs, result) if attrs else {}))
            return result

        self._patch(owner, attr, original, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            fh.write(json.dumps({"run_id": self.run_id, "counts": dict(self.counts)}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its child spans.  The tracer is
    stack-based and single-threaded, so children are nested and disjoint."""
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    return {s.span_id: s.duration - child_s[s.span_id] for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# Per-layer metrics and their units; BENCHMARK.json's per_layer list mirrors
# this table (checked by the benchmark's tests).  Counts marked exact in
# EXACT_COUNTS must repeat bit-for-bit between runs of one seed.
PER_LAYER_UNITS = {
    "cli.solve_s": "s",
    "cli.simulate_s": "s",
    "cli.self_s": "s",
    "games.drift_batch_calls": "count",
    "chain.kolmogorov_rates_calls": "count",
    "chain.chain_characteristics_calls": "count",
    "solver.solve_backward_s": "s",
    "solver.sweep_steps": "count",
    "solver.point_steps_per_s": "1/s",
    "solver.sweep_self_s": "s",
    "solver.hamiltonian_field_ms_p50": "ms",
    "solver.hamiltonian_field_ms_p95": "ms",
    "solver.retained_slice_mb": "MB",
    "solver.write_slice_csv_s": "s",
    "solver.write_slice_mb_per_s": "MB/s",
    "solver.read_slice_csv_s": "s",
    "solver.read_slice_mb_per_s": "MB/s",
    "viscous.solve_viscous_s": "s",
    "viscous.sweep_steps": "count",
    "viscous.point_steps_per_s": "1/s",
    "shift.batch_s": "s",
    "shift.replica_intervals_per_s": "1/s",
    "shift.jumps": "count",
    "shift.thinning_candidates": "count",
    "shift.thinning_acceptance": "ratio",
    "simulate.simulate_chain_s": "s",
    "simulate.paths_per_s": "1/s",
    "simulate.martingale_residual_s": "s",
    "simulate.segments_per_s": "1/s",
    "simulate.moment_growth_check_s": "s",
    "bounds.assemble_s": "s",
    "bounds.assemble_calls": "count",
    "trace.overhead_frac": "ratio",
}

EXACT_COUNTS = (
    "games.drift_batch_calls",
    "chain.kolmogorov_rates_calls",
    "chain.chain_characteristics_calls",
    "solver.sweep_steps",
    "viscous.sweep_steps",
    "shift.jumps",
    "shift.thinning_candidates",
    "bounds.assemble_calls",
)

MB = 1e6


def layer_metrics(spans: list[Span], counts: Counter, thinning_candidates: int) -> dict:
    """Per-layer metrics of one traced iteration, except trace.overhead_frac,
    which needs an untraced iteration to compare against.  Layers the
    workload does not reach report 0."""
    import numpy as np  # only the traced child computes these

    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    self_t = self_times(spans)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    cli_spans = by_name["cli.main"]
    sweep_s = busy("solver.solve_backward")
    visc_s = busy("viscous.solve_viscous")
    write_s = busy("solver.write_slice_csv")
    read_s = busy("solver.read_slice_csv")
    batch_s = busy("shift.run_extremal_shift_batch")
    chain_s = busy("simulate.simulate_chain")
    resid_s = busy("simulate.martingale_residual")
    kernel_ms = [1e3 * s.duration for s in by_name["solver.hamiltonian_field"]]

    def kernel_pct(q):
        return float(np.percentile(kernel_ms, q)) if kernel_ms else 0.0

    jumps = attr_sum("shift.run_extremal_shift_batch", "jumps")
    return {
        "cli.solve_s": sum(s.duration for s in cli_spans if s.attrs.get("command") == "solve"),
        "cli.simulate_s": sum(s.duration for s in cli_spans
                              if s.attrs.get("command") == "simulate"),
        "cli.self_s": sum(self_t[s.span_id] for s in cli_spans),
        "games.drift_batch_calls": counts["games.drift_batch"],
        "chain.kolmogorov_rates_calls": counts["chain.kolmogorov_rates"],
        "chain.chain_characteristics_calls": counts["chain.chain_characteristics"],
        "solver.solve_backward_s": sweep_s,
        "solver.sweep_steps": attr_sum("solver.solve_backward", "steps"),
        "solver.point_steps_per_s": _ratio(attr_sum("solver.solve_backward", "point_steps"),
                                           sweep_s),
        "solver.sweep_self_s": sum(self_t[s.span_id] for s in by_name["solver.solve_backward"]),
        "solver.hamiltonian_field_ms_p50": kernel_pct(50),
        "solver.hamiltonian_field_ms_p95": kernel_pct(95),
        "solver.retained_slice_mb": max((s.attrs.get("retained_bytes", 0)
                                         for s in by_name["solver.solve_backward"]),
                                        default=0) / MB,
        "solver.write_slice_csv_s": write_s,
        "solver.write_slice_mb_per_s": _ratio(attr_sum("solver.write_slice_csv", "bytes") / MB,
                                              write_s),
        "solver.read_slice_csv_s": read_s,
        "solver.read_slice_mb_per_s": _ratio(attr_sum("solver.read_slice_csv", "bytes") / MB,
                                             read_s),
        "viscous.solve_viscous_s": visc_s,
        "viscous.sweep_steps": attr_sum("viscous.solve_viscous", "steps"),
        "viscous.point_steps_per_s": _ratio(attr_sum("viscous.solve_viscous", "point_steps"),
                                            visc_s),
        "shift.batch_s": batch_s,
        "shift.replica_intervals_per_s": _ratio(
            attr_sum("shift.run_extremal_shift_batch", "replica_intervals"), batch_s),
        "shift.jumps": jumps,
        "shift.thinning_candidates": thinning_candidates,
        "shift.thinning_acceptance": _ratio(jumps, thinning_candidates),
        "simulate.simulate_chain_s": chain_s,
        "simulate.paths_per_s": _ratio(len(by_name["simulate.simulate_chain"]), chain_s),
        "simulate.martingale_residual_s": resid_s,
        "simulate.segments_per_s": _ratio(attr_sum("simulate.martingale_residual", "segments"),
                                          resid_s),
        "simulate.moment_growth_check_s": busy("simulate.moment_growth_check"),
        "bounds.assemble_s": busy("bounds.assemble"),
        "bounds.assemble_calls": len(by_name["bounds.assemble"]),
    }
