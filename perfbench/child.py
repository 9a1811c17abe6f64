"""One benchmark child process: a set-up probe or one iteration of a workload.

    child.py --probe W --result FILE --spawn-ns NS
    child.py --workload W --seed N --out DIR --result FILE --spawn-ns NS [--trace SPANS]

``NS`` is the parent's ``time.monotonic_ns()`` just before the spawn, so
``setup_s`` covers interpreter start, ``import latticegames`` and loading the
game.  A workload iteration then times its operations (``wall_s``), runs the
output checks and digests outside the timed region, and writes one JSON
result.  With ``--trace`` the public functions are wrapped for the timed
region and the spans are written to SPANS as JSON lines.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import latticegames
import numpy as np
from latticegames.games import load_game

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--probe")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--result", required=True)
    p.add_argument("--spawn-ns", dest="spawn_ns", type=int, required=True)
    p.add_argument("--trace")
    args = p.parse_args(argv)

    load_game(workloads.GAME[args.probe or args.workload])
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    if not Path(latticegames.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported latticegames from {latticegames.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.workload:
        result.update(run_iteration(args.workload, args.seed, Path(args.out), args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


def run_iteration(workload: str, seed: int, out: Path, spans_path: str | None) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    session = workloads.Session(out, seed)
    tracer = None
    if spans_path:
        tracer = tracing.Tracer(run_id=Path(spans_path).stem)
        workloads.install_probes(tracer)
    t0 = time.perf_counter()
    try:
        workloads.RUN[workload](session)
    finally:
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    session.run_checks()
    result = {"wall_s": wall_s, "ops": session.ops, "digests": session.digests(),
              "numpy": np.__version__}
    if tracer is not None:
        tracer.write_jsonl(spans_path)
        result["per_layer"] = tracing.layer_metrics(
            tracer.spans, tracer.counts, workloads.replay_thinning_candidates(tracer.spans))
    return result


if __name__ == "__main__":
    sys.exit(main())
