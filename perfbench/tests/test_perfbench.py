"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest perfbench/tests -q
"""

import argparse
import itertools
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(i, name, start, end, parent=None, **attrs):
    return Span(i, name, start, end, parent, "synthetic", attrs)


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "solver.solve_backward", 1.0, 4.0, 0),
        _span(2, "solver.hamiltonian_field", 2.0, 3.0, 1),
        _span(3, "bounds.assemble", 4.5, 6.0, 0),
        _span(4, "solver.write_slice_csv", 7.0, 9.5, 0),
        _span(5, "cli.main", 20.0, 21.0),
    ]
    self_t = tracing.self_times(spans)
    assert self_t[0] == pytest.approx(10.0 - 3.0 - 1.5 - 2.5)
    assert self_t[1] == pytest.approx(2.0)
    assert self_t[2] == pytest.approx(1.0)
    assert self_t[3] == pytest.approx(1.5)
    assert self_t[5] == pytest.approx(1.0)


def test_layer_metrics_from_synthetic_spans():
    spans = [
        _span(0, "cli.main", 0.0, 10.0, command="solve"),
        _span(1, "solver.solve_backward", 1.0, 5.0, 0, steps=4, point_steps=400,
              retained_bytes=2_000_000),
        *[_span(2 + k, "solver.hamiltonian_field", 1.0 + k, 1.5 + k, 1) for k in range(4)],
        _span(6, "solver.write_slice_csv", 6.0, 8.0, 0, bytes=4_000_000),
        _span(7, "cli.main", 10.0, 13.0, command="simulate"),
        _span(8, "shift.run_extremal_shift_batch", 10.5, 12.5, 7, replica_intervals=1000,
              jumps=30),
    ]
    m = tracing.layer_metrics(spans, Counter({"games.drift_batch": 36}), thinning_candidates=120)
    assert set(m) == set(tracing.PER_LAYER_UNITS) - {"trace.overhead_frac"}
    assert m["cli.solve_s"] == pytest.approx(10.0)
    assert m["cli.simulate_s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx((10.0 - 6.0) + (3.0 - 2.0))
    assert m["solver.sweep_steps"] == 4
    assert m["solver.point_steps_per_s"] == pytest.approx(100.0)
    assert m["solver.sweep_self_s"] == pytest.approx(2.0)
    assert m["solver.hamiltonian_field_ms_p50"] == pytest.approx(500.0)
    assert m["solver.retained_slice_mb"] == pytest.approx(2.0)
    assert m["solver.write_slice_mb_per_s"] == pytest.approx(2.0)
    assert m["shift.replica_intervals_per_s"] == pytest.approx(500.0)
    assert m["shift.thinning_acceptance"] == pytest.approx(0.25)
    assert m["games.drift_batch_calls"] == 36
    assert m["viscous.point_steps_per_s"] == 0.0  # layer not reached


def test_metric_names_and_units_match_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER_UNITS
    assert set(tracing.EXACT_COUNTS) <= set(tracing.PER_LAYER_UNITS)


def test_interaction_map_names_known_metrics_and_workloads():
    entries = json.loads((HERE / "interactions.json").read_text())
    for e in entries:
        assert set(e["layer"]) <= set(tracing.PER_LAYER_UNITS), e["layer"]
        assert set(e["end_to_end"]) <= set(run.END_TO_END_UNITS), e["end_to_end"]
        assert set(e["moves_on"]) | set(e["flat_on"]) <= set(run.WORKLOADS)
        assert not set(e["moves_on"]) & set(e["flat_on"])


def test_digest_comparison():
    ref = {"a.csv": "01", "b.csv": "02", "stats/moment": "03"}
    assert run.digest_mismatches(ref, dict(ref)) == []
    seen = {"a.csv": "01", "b.csv": "ff", "extra.csv": "04"}
    assert run.digest_mismatches(ref, seen) == ["b.csv", "extra.csv", "stats/moment"]


def _fake_children(monkeypatch, digests, per_layer=()):
    """Replace child processes by results that carry the given digests and,
    for traced iterations, the given per-layer metrics in turn.  Each
    iteration takes one second of a fake clock."""
    per_layer = iter(per_layer)
    clock = [0.0]
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])

    def spawn(child_args, result_path):
        result = {"setup_s": 0.1}
        if "--workload" in child_args:
            clock[0] += 1.0
            result.update(wall_s=1.0, ops=[{"op": "x", "ok": True, "error": ""}],
                          digests=next(digests), numpy="n/a")
            if "--trace" in child_args:
                result["per_layer"] = next(per_layer)
        return result, {"cpu_s": 1.0, "peak_rss_mb": 1.0, "elapsed_s": 1.0}

    monkeypatch.setattr(run, "spawn_child", spawn)


def _run(tmp_path, seed, trace=0, seconds=0.0):
    args = argparse.Namespace(workload="panel_g2_stats", seed=seed, seconds=seconds, trace=trace)
    return run.run(args, "t", tmp_path)


def test_digest_mismatch_at_reference_seed_makes_run_incorrect(monkeypatch, tmp_path):
    (tmp_path / "digests.json").write_text(json.dumps({"panel_g2_stats": {"a.csv": "01"}}))
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    _fake_children(monkeypatch, itertools.repeat({"a.csv": "01"}))
    report = _run(tmp_path, run.REFERENCE_SEED)
    assert report["correct"] and report["output_digest_mismatches"] == 0
    _fake_children(monkeypatch, itertools.repeat({"a.csv": "ff"}))
    report = _run(tmp_path, run.REFERENCE_SEED)
    assert not report["correct"] and report["output_digest_mismatches"] == 1


def test_digests_repeat_between_iterations_at_other_seeds(monkeypatch, tmp_path):
    _fake_children(monkeypatch, itertools.repeat({"a.csv": "01"}))
    report = _run(tmp_path, seed=7)
    assert len(report["iterations"]) == 2  # even when --seconds allows one
    assert report["correct"] and report["output_digest_mismatches"] == 0
    _fake_children(monkeypatch, iter([{"a.csv": "01"}, {"a.csv": "ff"}]))
    report = _run(tmp_path, seed=7)
    assert not report["correct"] and report["output_digest_mismatches"] == 1


def test_unstable_exact_count_makes_traced_run_incorrect(monkeypatch, tmp_path):
    layers = [dict.fromkeys(tracing.EXACT_COUNTS, 1) for _ in range(2)]
    _fake_children(monkeypatch, itertools.repeat({}), layers)
    report = _run(tmp_path, seed=7, trace=1)
    assert report["correct"] and report["unstable_exact_counts"] is None
    layers[1]["shift.jumps"] = 2
    _fake_children(monkeypatch, itertools.repeat({}), layers)
    report = _run(tmp_path, seed=7, trace=1, seconds=4.0)
    assert [it["traced"] for it in report["iterations"]] == [False, True, False, True]
    assert not report["correct"] and report["unstable_exact_counts"] == ["shift.jumps"]


def test_stored_digests_cover_every_workload():
    refs = json.loads(run.DIGESTS.read_text())
    assert set(refs) == set(run.WORKLOADS)
    assert all(refs[w] for w in run.WORKLOADS)


def test_exact_counts_repeat_across_two_traced_runs_of_panel_g2_stats(tmp_path):
    per_layer = []
    for k in range(2):
        result, usage = run.spawn_child(
            ["--workload", "panel_g2_stats", "--seed", "0", "--out", str(tmp_path / f"out{k}"),
             "--trace", str(tmp_path / f"spans{k}.jsonl")], tmp_path / f"result{k}.json")
        assert all(op["ok"] for op in result["ops"]), result["ops"]
        assert usage["peak_rss_mb"] > 0
        per_layer.append(result["per_layer"])
    counts = [{n: m[n] for n in tracing.EXACT_COUNTS} for m in per_layer]
    assert counts[0] == counts[1]
    for name in ("games.drift_batch_calls", "solver.sweep_steps", "shift.jumps",
                 "shift.thinning_candidates", "bounds.assemble_calls",
                 "chain.kolmogorov_rates_calls", "chain.chain_characteristics_calls"):
        assert counts[0][name] > 0, name
    spans = (tmp_path / "spans0.jsonl").read_text().splitlines()
    assert json.loads(spans[-1])["counts"]["games.drift_batch"] == counts[0][
        "games.drift_batch_calls"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "solve_g2",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
