"""The two benchmark workloads, their output checks, digests and trace probes.

Every workload is a fixed batch job for one closed-loop caller in one
process.  An *operation* is one CLI command or one public API call; it fails
on a nonzero exit, an exception, or a failed output check.  The checks hold
for any seed:

- chain and viscous value slices lie in [min g, max g] over the box, the
  range a monotone scheme below its step ceiling cannot leave;
- every ``simulate.csv`` row has ``pass=true`` and ``n`` equal to the
  replica count, one row per adversary of the default panel;
- each martingale residual mean lies within 5 standard errors of zero at
  every checkpoint, and the moment check reports ``within_bound``.

Checks and digests run after the timed region, so they cost nothing in
``wall_s``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from latticegames import bounds, cli, games, simulate, solver, viscous

GAME = {"solve_g2": "g2", "panel_g2_stats": "g2"}

PANEL_SIZE = 4  # adversaries in the default simulate panel
PANEL_REPLICAS = 1000

# statistics half of panel_g2_stats: constant-rate g1 chain,
# controls (1, 0.5) => drift 1.5 at h = 0.1
STATS_PATHS = 1000
STATS_H = 0.1
STATS_CHECKPOINTS = (0.2, 0.4, 0.6, 0.8, 1.0)
RESIDUAL_SE_LIMIT = 5.0


class Session:
    """Runs operations for one iteration and queues their output checks."""

    def __init__(self, out: Path, seed: int):
        self.out = out
        self.seed = seed
        self.ops: list[dict] = []
        self.arrays: dict[str, bytes] = {}
        self._checks: list[tuple[dict, object, tuple]] = []

    def call(self, label: str, fn):
        """Run ``fn()`` as one operation; returns (op record, result or None)."""
        op = {"op": label, "ok": True, "error": ""}
        self.ops.append(op)
        try:
            return op, fn()
        except Exception as exc:  # an operation failure is counted, not fatal
            op["ok"] = False
            op["error"] = f"{type(exc).__name__}: {exc}"
            return op, None

    def cli(self, argv: list[str], out: Path) -> dict:
        """One CLI command; the seed and output directory are appended."""
        label = " ".join(argv)
        full = argv + ["--seed", str(self.seed), "--out", str(out)]
        op, code = self.call(label, lambda: cli.main(full))
        if op["ok"] and code != 0:
            op["ok"] = False
            op["error"] = f"exit code {code}"
        return op

    def check(self, op: dict, fn, *args) -> None:
        self._checks.append((op, fn, args))

    def run_checks(self) -> None:
        for op, fn, args in self._checks:
            if not op["ok"]:
                continue
            try:
                problem = fn(*args)
            except Exception as exc:  # a check that cannot run fails its op
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                op["ok"] = False
                op["error"] = problem

    def digests(self) -> dict[str, str]:
        """sha256 of every output file (by relative path) and stats array."""
        out = {}
        for path in sorted(p for p in self.out.rglob("*") if p.is_file()):
            out[path.relative_to(self.out).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
        for name, blob in sorted(self.arrays.items()):
            out[name] = hashlib.sha256(blob).hexdigest()
        return out


# ---------------------------------------------------------------------------
# checks: each returns None when the output is good, else a message


def _slice_rows(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def check_payoff_range(game: str, paths: list[Path]) -> str | None:
    spec = games.load_game(game)
    for path in paths:
        rows = _slice_rows(path)
        g = games.payoff_batch(spec, rows[:, 1:-1])
        lo, hi = float(g.min()), float(g.max())
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        vals = rows[:, -1]
        if vals.min() < lo - tol or vals.max() > hi + tol:
            return (f"{path.name}: values [{vals.min():.17g}, {vals.max():.17g}] leave "
                    f"the payoff range [{lo:.17g}, {hi:.17g}]")
    return None


def check_simulate_csv(path: Path, replicas: int) -> str | None:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    if len(rows) != PANEL_SIZE:
        return f"simulate.csv has {len(rows)} adversary rows, expected {PANEL_SIZE}"
    for row in rows:
        if row["pass"] != "true" or int(row["n"]) != replicas:
            return (f"simulate.csv row {row['adversary']}: pass={row['pass']} "
                    f"n={row['n']} (expected pass=true n={replicas})")
    return None


def check_residual(report) -> str | None:
    z = np.abs(report.mean_residual) / report.std_error
    if not np.all(z <= RESIDUAL_SE_LIMIT):
        return f"{report.phi} residual {z.max():.3g} standard errors from zero"
    return None


def check_moment(report) -> str | None:
    if not report.within_bound:
        return f"moment {report.empirical:.6g} above bound {report.bound:.6g}"
    return None


# ---------------------------------------------------------------------------
# workloads


def solve_g2(s: Session) -> None:
    chain_dir, visc_dir = s.out / "chain", s.out / "viscous"
    op = s.cli(["solve", "--game", "g2", "--h", "0.05", "--checkpoints", "0", "0.5"], chain_dir)
    s.check(op, check_payoff_range, "g2",
            [chain_dir / "eta_upper_t0.csv", chain_dir / "eta_upper_t0.5.csv"])
    op = s.cli(["solve", "--game", "g2", "--h", "0.05", "--sigma", "0.1"], visc_dir)
    s.check(op, check_payoff_range, "g2", [visc_dir / "psi_upper_t0_s0.1.csv"])


def _stats(s: Session) -> None:
    spec = games.load_game("g1")

    def u_policy(t, y):
        return 1.0

    def v_policy(t, y):
        return 0.5

    paths = []
    for i in range(STATS_PATHS):
        _, path = s.call("simulate_chain", lambda: simulate.simulate_chain(
            spec, u_policy, v_policy, 0.0, STATS_H, rng=simulate.replica_rng(s.seed, i)))
        if path is not None:
            paths.append(path)
    for phi, a in (("linear", [2.0]), ("quadratic", [0.3])):
        op, rep = s.call(f"martingale_residual {phi}", lambda: simulate.martingale_residual(
            paths, spec, STATS_H, phi, a, STATS_CHECKPOINTS))
        s.check(op, check_residual, rep)
        if rep is not None:
            s.arrays[f"stats/residual_{phi}"] = (rep.mean_residual.tobytes()
                                                 + rep.std_error.tobytes())
    op, mom = s.call("moment_growth_check", lambda: simulate.moment_growth_check(
        paths, 0.3, 0.5, spec, h=STATS_H))
    s.check(op, check_moment, mom)
    if mom is not None:
        s.arrays["stats/moment"] = np.array([mom.empirical, mom.std_error]).tobytes()
    s.arrays["stats/paths"] = b"".join(
        p.times.tobytes() + p.states.tobytes() + p.u_indices.tobytes() + p.v_indices.tobytes()
        for p in paths)


def panel_g2_stats(s: Session) -> None:
    """The g2 solve and simulate panel, then the g1 chain statistics."""
    op = s.cli(["solve", "--game", "g2", "--h", "0.05"], s.out)
    s.check(op, check_payoff_range, "g2", [s.out / "eta_upper_t0.csv"])
    op = s.cli(["simulate", "--game", "g2", "--h", "0.05", "--replicas", str(PANEL_REPLICAS)],
               s.out)
    s.check(op, check_simulate_csv, s.out / "simulate.csv", PANEL_REPLICAS)
    _stats(s)


RUN = {"solve_g2": solve_g2, "panel_g2_stats": panel_g2_stats}


# ---------------------------------------------------------------------------
# trace probes


def _sweep_attrs(args, kwargs, result) -> dict:
    spec, domain = args[0], args[1]
    steps = round((spec.T - min(s.t for s in result.slices)) / result.dt)
    return {"steps": steps, "point_steps": steps * domain.n_points,
            "retained_bytes": sum(s.values.nbytes for s in result.slices)}


def _batch_attrs(args, kwargs, result) -> dict:
    spec, eta, partition = args[0], args[1], args[2]
    lam_span = simulate.rate_majorant(spec, eta.h) * (spec.T - partition.t0)
    return {"replica_intervals": result.n_replicas * partition.n_intervals,
            "jumps": int(result.n_jumps.sum()),
            "replay": [int(kwargs.get("seed", 0)), result.n_replicas, lam_span]}


def install_probes(tracer) -> None:
    """Wrap the public functions each layer metric is taken from."""
    tracer.span(cli, "main", "cli.main",
                lambda a, k, r: {"command": (a[0] if a else k["argv"])[0], "exit": r})
    tracer.span(cli, "solve_backward", "solver.solve_backward", _sweep_attrs)
    tracer.span(cli, "solve_viscous", "viscous.solve_viscous", _sweep_attrs)
    tracer.span(solver, "hamiltonian_field", "solver.hamiltonian_field")
    tracer.span(cli, "write_slice_csv", "solver.write_slice_csv",
                lambda a, k, r: {"bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"])})
    tracer.span(cli, "read_slice_csv", "solver.read_slice_csv",
                lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    tracer.span(cli, "run_extremal_shift_batch", "shift.run_extremal_shift_batch", _batch_attrs)
    tracer.span(bounds, "assemble", "bounds.assemble")
    tracer.span(simulate, "simulate_chain", "simulate.simulate_chain")
    tracer.span(simulate, "martingale_residual", "simulate.martingale_residual",
                lambda a, k, r: {"segments": sum(len(p.states) for p in a[0])})
    tracer.span(simulate, "moment_growth_check", "simulate.moment_growth_check")
    tracer.count(solver, "drift_batch", "games.drift_batch")
    tracer.count(viscous, "drift_batch", "games.drift_batch")
    tracer.count(simulate, "kolmogorov_rates", "chain.kolmogorov_rates")
    tracer.count(simulate, "chain_characteristics", "chain.chain_characteristics")


def replay_thinning_candidates(spans) -> int:
    """Thinning candidates of every traced batch, replayed outside the timed
    region from the documented first draw of each replica stream:
    replica i's candidate count is replica_rng(seed, i).poisson(lam * span)."""
    cache: dict[tuple, int] = {}
    total = 0
    for s in spans:
        if s.name != "shift.run_extremal_shift_batch" or "replay" not in s.attrs:
            continue
        key = tuple(s.attrs["replay"])
        if key not in cache:
            seed, n, lam_span = key
            cache[key] = sum(int(simulate.replica_rng(seed, i).poisson(lam_span))
                             for i in range(n))
        total += cache[key]
    return total
