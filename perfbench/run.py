"""Benchmark for latticegames: two batch workloads, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen and
``interactions.json`` for which layer metric should move which end-to-end
metric on which workload):

- ``solve_g2``: chain solve of g2 at h=0.05 with checkpoints 0 and 0.5,
  then the viscous cross-check at sigma=0.1;
- ``panel_g2_stats``: g2 solve, then the 1000-replica simulate panel, then
  1000 g1 ``simulate_chain`` paths, martingale residuals and the moment
  check, through the public API.

A run first spawns set-up probes, then spawns one single-threaded child
process per iteration of the workload, as many as end the run nearest to
``--seconds``, but at least two, so that a 25 s iteration still gives two
samples (with ``--trace 1`` untraced and traced iterations alternate).  Each
child's CPU time and peak RSS come from ``os.wait4`` on that child only.

``wall_s`` and ``cpu_s`` are means over the untraced iterations: the inverse
of the throughput of the fixed-size sequence.  ``setup_s`` is the median over
the set-up probes and the iterations' own set-ups, ``peak_rss_mb`` the median
over the untraced iterations, and per-layer metrics are medians over the
traced iterations.  The human-readable report gives each sample count.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A record of the run
with host provenance goes to ``perfbench/out/``.

Both workloads at the reference seed, with the digest check:

    for w in solve_g2 panel_g2_stats; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 55 --trace 0
    done

A run is correct when no operation failed, no output digest differs from
the reference, and no exact count differs between traced iterations.  The
digest reference is ``perfbench/digests.json`` at seed 0 and the run's first
iteration at any other seed; the exact-count repeat check of a run with a
single traced iteration is reported as not made.  To refresh the reference
after a change that is meant to alter the outputs, copy ``iterations[0].digests``
of a seed-0 run record into ``digests.json`` under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

import tracing  # stdlib only; sits next to this script

WORKLOADS = ("solve_g2", "panel_g2_stats")

# digests.json holds the outputs of this seed; other seeds are checked for
# repeatability between the iterations of one run instead
REFERENCE_SEED = 0
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class ChildError(RuntimeError):
    """A child process exited nonzero, timed out or wrote no result."""


def spawn_child(child_args: list[str], result_path: Path) -> tuple[dict, dict]:
    """Run child.py to completion; return (its JSON result, its rusage)."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    result_path.unlink(missing_ok=True)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *child_args,
         "--result", str(result_path), "--spawn-ns", str(spawn_ns)],
        env=env, cwd=ROOT, stdout=2)  # stdout stays free for the result line
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        while True:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise ChildError(f"child {child_args} ran over {CHILD_TIMEOUT_S} s")
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        raise ChildError(f"child {child_args} exited with {proc.returncode}")
    usage = {"cpu_s": ru.ru_utime + ru.ru_stime,
             "peak_rss_mb": ru.ru_maxrss * 1024 / 1e6,  # Linux reports KiB
             "elapsed_s": (time.monotonic_ns() - spawn_ns) / 1e9}
    return json.loads(result_path.read_text()), usage


def digest_mismatches(reference: dict, observed: dict) -> list[str]:
    """Names whose digest differs, including names present on one side only."""
    return sorted(n for n in set(reference) | set(observed)
                  if reference.get(n) != observed.get(n))


def provenance(numpy_version: str) -> dict:
    """Host and build description; reads only, starts only ``git``."""
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            sha = f"unknown ({type(exc).__name__})"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for level in ("LEVEL2", "LEVEL3"):
        name = f"SC_{level}_CACHE_SIZE"
        if name in os.sysconf_names:
            caches[f"{level.lower()}_cache_bytes"] = os.sysconf(name)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **caches,
        "thread_env": THREAD_ENV,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "latticegames" / "__init__.py").is_file():
        print(f"error: no latticegames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = run(args, tag, work)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(args, report)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run(args, tag: str, work: Path) -> dict:
    start = time.monotonic()
    probe = ["--probe", args.workload]
    # the first probe compiles bytecode and warms the page cache; not counted
    spawn_child(probe, work / "probe.json")
    setups = [spawn_child(probe, work / "probe.json")[0]["setup_s"]
              for _ in range(SETUP_PROBES)]

    iterations = []
    while True:
        k = len(iterations)
        traced = bool(args.trace) and k % 2 == 1
        child_args = ["--workload", args.workload, "--seed", str(args.seed),
                      "--out", str(work / f"iter{k}")]
        if traced:
            child_args += ["--trace", str(OUT / "spans" / f"{tag}-iter{k}.jsonl")]
        result, usage = spawn_child(child_args, work / f"iter{k}.json")
        shutil.rmtree(work / f"iter{k}", ignore_errors=True)
        iterations.append({"traced": traced, **usage, **result})
        setups.append(result["setup_s"])
        elapsed = time.monotonic() - start
        typical = statistics.median([it["elapsed_s"] for it in iterations])
        # stop where the run ends nearest to --seconds
        if len(iterations) >= 2 and elapsed + typical / 2 > args.seconds:
            break

    plain = [it for it in iterations if not it["traced"]]
    traced_its = [it for it in iterations if it["traced"]]
    ops = [op for it in iterations for op in it["ops"]]
    failed_ops = [op for op in ops if not op["ok"]]

    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if args.seed == REFERENCE_SEED and args.workload in stored:
        reference, compared = stored[args.workload], iterations
        digest_basis = f"stored reference for seed {REFERENCE_SEED}"
    else:
        reference, compared = iterations[0]["digests"], iterations[1:]
        digest_basis = "first iteration of this run; no stored reference for this seed"
    mismatched = sorted({n for it in compared
                         for n in digest_mismatches(reference, it["digests"])})

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(iterations[0]["numpy"]),
        "setup_samples_s": setups,
        "iterations": [{k: v for k, v in it.items() if k != "ops"} for it in iterations],
        "attempted": len(ops),
        "failed": len(failed_ops),
        "failed_ops": failed_ops[:20],
        "correct": not failed_ops and not mismatched,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.mean(it["wall_s"] for it in plain),
            "cpu_s": statistics.mean(it["cpu_s"] for it in plain),
            "peak_rss_mb": statistics.median([it["peak_rss_mb"] for it in plain]),
        },
        "failed_op_ratio": len(failed_ops) / len(ops),
        "output_digest_mismatches": len(mismatched),
        "mismatched_outputs": mismatched,
        "digest_basis": digest_basis,
    }
    if args.trace:
        per_layer = {name: statistics.median([it["per_layer"][name] for it in traced_its])
                     for name in traced_its[0]["per_layer"]}
        # each traced iteration against the untraced one just before it
        per_layer["trace.overhead_frac"] = statistics.median(
            iterations[k]["wall_s"] / iterations[k - 1]["wall_s"] - 1.0
            for k in range(1, len(iterations), 2))
        report["per_layer"] = per_layer
        # None: a single traced iteration, so the repeat check was not made
        unstable = None
        if len(traced_its) > 1:
            unstable = [name for name in tracing.EXACT_COUNTS
                        if len({it["per_layer"][name] for it in traced_its}) > 1]
            report["correct"] = report["correct"] and not unstable
        report["unstable_exact_counts"] = unstable
    return report


def print_report(args, report: dict) -> None:
    plain = [it for it in report["iterations"] if not it["traced"]]
    e2e = report["end_to_end"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(report['iterations'])} iterations ({len(plain)} untraced), "
          f"{len(report['setup_samples_s'])} set-ups")
    prov = report["provenance"]
    print(f"host: {prov['cpu_model']}, {prov['nproc']} cpus; python {prov['python']}, "
          f"numpy {prov['numpy']}; git {prov['git_sha']}")
    print(f"end to end ({len(report['setup_samples_s'])} set-ups, "
          f"{len(plain)} untraced iterations):")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<26} {e2e[name]:>14.6g} {unit}")
    print(f"  {'failed_op_ratio':<26} {report['failed_op_ratio']:>14.6g} ratio"
          f"  ({report['failed']} failed of {report['attempted']} operations)")
    print(f"  {'output_digest_mismatches':<26} {report['output_digest_mismatches']:>14d}"
          f" count  (against the {report['digest_basis']})")
    for name in report["mismatched_outputs"]:
        print(f"  MISMATCH output {name} differs from the reference")
    for op in report["failed_ops"]:
        print(f"  FAILED {op['op']}: {op['error']}")
    if args.trace:
        print("per layer (medians of traced iterations):")
        for name, value in report["per_layer"].items():
            print(f"  {name:<36} {value:>14.6g} {tracing.PER_LAYER_UNITS[name]}")
        if report["unstable_exact_counts"] is None:
            print("  exact counts: repeat check not made (one traced iteration)")
        else:
            print(f"  exact counts: {len(tracing.EXACT_COUNTS)} checked across "
                  f"{sum(it['traced'] for it in report['iterations'])} traced iterations")
            for name in report["unstable_exact_counts"]:
                print(f"  UNSTABLE exact count {name} differs between traced iterations")


if __name__ == "__main__":
    sys.exit(main())
