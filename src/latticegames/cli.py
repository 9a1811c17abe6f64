"""Batch command-line front end.

Four subcommands: ``solve`` writes value-slice CSVs plus a bounds report,
``converge`` sweeps mesh or noise levels against a reference value,
``simulate`` runs the feedback-coupling replica panel and writes a guarantee
verdict, ``bounds`` emits the constants report alone.

Each subcommand accepts only the flags it reads, as declared once in
``_FLAGS``; a ``--config`` JSON file may set the same keys, and explicit flags
override it.  A flag another subcommand reads is a usage error, not a no-op.

Every output file embeds the resolved-config hash and the seed; reruns with
the same config are bit-identical.  Exit codes: 0 success, 2 usage/config
error, 3 numerical failure; any other exception is a bug and propagates
with its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from .errors import GameSpecError, LatticeGamesError
from .games import GameSpec, load_game
from .shift import (Partition, run_extremal_shift, run_extremal_shift_batch,
                    standard_adversaries)
from .simulate import OutcomeEstimate, replica_rng
from .solver import (_checkpoint_steps, _off_grid, auto_dt, feedback_table, read_slice_csv,
                     read_slice_meta, read_slice_value, solve_backward, truncate_domain,
                     write_slice_csv)
from .viscous import solve_viscous

_ALL = ("solve", "converge", "simulate", "bounds")
_MODEL = ("solve", "converge", "simulate")
_NUMBER = (int, float)
_NUMBER_LIST = {"nargs": "+", "type": float}


class _Flag(NamedTuple):
    default: object
    file_types: type | tuple  # JSON types a --config file may give it; list entries are numbers
    commands: tuple[str, ...]  # the commands that read it
    argparse: dict


# One row per flag, spelled from its key (dt_policy -> --dt-policy).  A
# command accepts a flag, on the command line or as a --config key, only when
# it reads it.  The config hash covers the command and every key but 'out'; a
# key the command does not read sits at its default.
_FLAGS = {
    "game": _Flag(None, str, _ALL, {"help": "catalog name or JSON game file"}),
    "h": _Flag([0.05], list, _ALL,
               {**_NUMBER_LIST, "help": "lattice mesh values (spatial step for viscous runs)"}),
    "sigma": _Flag(None, (list, type(None)), ("solve", "converge", "bounds"),
                   {**_NUMBER_LIST, "help": "viscosity levels; presence selects the PDE model"}),
    "dt_policy": _Flag("auto", (str, *_NUMBER), _MODEL,
                       {"help": "'auto' or an explicit time step"}),
    "partition_diam": _Flag(0.01, _NUMBER, ("simulate",), {"type": float}),
    "replicas": _Flag(10000, int, ("simulate",), {"type": int}),
    "seed": _Flag(0, int, _ALL, {"type": int}),
    "out": _Flag(".", str, _ALL, {"help": "output directory"}),
    "x0": _Flag(None, (list, type(None)), _MODEL, {**_NUMBER_LIST, "help": "initial state"}),
    "kind": _Flag("upper", str, _MODEL, {"choices": ("upper", "lower")}),
    "checkpoints": _Flag([0.0], list, ("solve",),
                         {**_NUMBER_LIST, "help": "times whose slices are written"}),
    "pad": _Flag(0.5, _NUMBER, _MODEL,
                 {"type": float, "help": "domain padding beyond reachability"}),
    "reference": _Flag("closed_form", str, ("converge",),
                       {"help": "'closed_form' or a fine-mesh slice CSV"}),
    "adversaries": _Flag("constant,bang_bang,random,worst_case", str, ("simulate",),
                         {"help": "comma list from constant,bang_bang,random,worst_case"}),
    "dump_trajectories": _Flag(0, int, ("simulate",), {
        "type": int, "help": "log this many replicas per adversary to CSV"}),
}


class UsageError(Exception):
    """Config or flag problem; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _label(x: float) -> str:
    return f"{float(x):g}"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="latticegames",
                                description="Lattice-chain value solvers and "
                                            "feedback-coupling experiments for "
                                            "zero-sum differential games.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (("solve", "solve value slices and write CSVs"),
                      ("converge", "sweep h or sigma against a reference"),
                      ("simulate", "replica panel with guarantee verdict"),
                      ("bounds", "write the constants report")):
        s = sub.add_parser(name, help=doc)
        for key, flag in _FLAGS.items():
            if name in flag.commands:
                s.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                               **flag.argparse)
        s.add_argument("--config", help="JSON file supplying any of these flags; flags override")
    return p


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = {key: flag.default for key, flag in _FLAGS.items()}
    cfg["command"] = args.command
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise UsageError(f"config file is not valid JSON: {e}")
        unread = sorted(key for key in file_cfg
                        if key not in _FLAGS or args.command not in _FLAGS[key].commands)
        if unread:
            raise UsageError(f"'{args.command}' reads no config keys {unread}")
        for key, val in file_cfg.items():
            # JSON true and false are ints to Python; no flag takes one
            entries = val if isinstance(val, list) else []
            if isinstance(val, bool) or not isinstance(val, _FLAGS[key].file_types) or not all(
                    isinstance(c, _NUMBER) and not isinstance(c, bool) for c in entries):
                raise UsageError(f"config key {key!r} has a value of the wrong type: {val!r}")
            if val == []:
                raise UsageError(f"config key {key!r} needs at least one number")
        cfg.update(file_cfg)
    for key in _FLAGS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["game"] is None:
        raise UsageError("--game is required (catalog name or JSON file)")
    numbers = {key: cfg[key]
               for key in ("h", "sigma", "x0", "checkpoints", "partition_diam", "pad")}
    if cfg["dt_policy"] != "auto":
        try:
            numbers["dt_policy"] = float(cfg["dt_policy"])
        except (TypeError, ValueError):
            raise UsageError(f"--dt-policy must be 'auto' or a number, got {cfg['dt_policy']!r}")
    for key, val in numbers.items():
        if not np.isfinite(np.asarray([] if val is None else val, dtype=float)).all():
            raise UsageError(f"{key} must be finite, got {val!r}")
    for h in cfg["h"]:
        if not (0.0 < h < 1.0):
            raise UsageError(f"h values must lie in (0,1); got {h}")
    if cfg["sigma"] is not None and any(s < 0 for s in cfg["sigma"]):
        raise UsageError("sigma values must be nonnegative")
    if cfg["dump_trajectories"] < 0:
        raise UsageError(f"dump_trajectories must be nonnegative, got {cfg['dump_trajectories']}")
    if cfg["seed"] < 0:
        raise UsageError(f"seed must be nonnegative, got {cfg['seed']}")
    return cfg


def config_sha256(cfg: dict) -> str:
    hashed = {k: cfg.get(k) for k in ("command", *_FLAGS) if k != "out"}
    canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _x0(cfg: dict, spec: GameSpec) -> np.ndarray:
    x0 = cfg["x0"] if cfg["x0"] is not None else [0.0] * spec.d
    x0 = np.asarray([float(c) for c in x0])
    if x0.shape != (spec.d,):
        raise UsageError(f"x0 needs {spec.d} coordinates, got {len(x0)}")
    return x0


def _dt(cfg: dict) -> float | None:
    return None if cfg["dt_policy"] == "auto" else float(cfg["dt_policy"])


def _meta(cfg: dict, spec: GameSpec, **extra) -> dict:
    meta = {"config_sha256": config_sha256(cfg), "seed": cfg["seed"], "game": spec.name}
    meta.update(extra)
    return meta


def _write_bounds(cfg: dict, spec: GameSpec, out: Path) -> dict[str, bounds_mod.BoundsReport]:
    """Write bounds.json per (h, sigma), tagged when several; returns the reports by stem."""
    hs, sigmas = cfg["h"], cfg["sigma"] or [None]
    reports = {}
    for h in hs:
        for sigma in sigmas:
            report = bounds_mod.assemble(spec, h, sigma, seed=cfg["seed"])
            stem = ("bounds" + (f"_h{_label(h)}" if len(hs) > 1 else "")
                    + (f"_s{_label(sigma)}" if len(sigmas) > 1 else ""))
            payload = report.to_dict()
            payload["config_sha256"] = config_sha256(cfg)
            (out / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")
            reports[stem] = report
    return reports


def _slice_name(cfg: dict, t: float, h: float, sigma: float | None) -> str:
    """eta_ (chain) or psi_ (viscous) slice file name, tagged _h when the run has several h."""
    tag = f"_h{_label(h)}" if len(cfg["h"]) > 1 else ""
    if sigma is None:
        return f"eta_{cfg['kind']}_t{_label(t)}{tag}.csv"
    return f"psi_{cfg['kind']}_t{_label(t)}{tag}_s{_label(sigma)}.csv"


def _solve(cfg: dict, spec: GameSpec, domain, sigma: float | None, checkpoints):
    """The chain model's sweep when sigma is None, else the viscous model's."""
    if sigma is None:
        return solve_backward(spec, domain, kind=cfg["kind"], dt=_dt(cfg),
                              checkpoints=checkpoints)
    return solve_viscous(spec, domain, sigma, kind=cfg["kind"], dt=_dt(cfg),
                         checkpoints=checkpoints)


def cmd_solve(cfg: dict) -> int:
    spec = load_game(cfg["game"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    x0 = _x0(cfg, spec)
    checkpoints = [float(t) for t in cfg["checkpoints"]]
    dt = _dt(cfg)
    if dt is not None and dt > 0:
        # every checkpoint's slice is written, so an explicit dt's grid must hold it
        _checkpoint_steps(spec, checkpoints, dt)
        missed = [m for m in (_off_grid(spec, t, dt) for t in checkpoints) if m]
        if missed:
            raise UsageError(f"{missed[0]}; choose a --dt-policy whose grid T - k*dt "
                             f"holds every checkpoint")
    for h in cfg["h"]:
        domain = truncate_domain(spec, x0, h, pad=cfg["pad"])
        for sigma in cfg["sigma"] or [None]:
            res = _solve(cfg, spec, domain, sigma, checkpoints)
            mesh = {"h": h} if sigma is None else {"sigma": sigma, "dx": h}
            for t in checkpoints:
                write_slice_csv(res.slice_at(t), out / _slice_name(cfg, t, h, sigma),
                                _meta(cfg, spec, kind=cfg["kind"], **mesh, dt=res.dt))
    _write_bounds(cfg, spec, out)
    return 0


def cmd_bounds(cfg: dict) -> int:
    if cfg["sigma"] and len(cfg["sigma"]) > 1:
        raise UsageError(f"bounds takes one --sigma value, got {len(cfg['sigma'])}")
    spec = load_game(cfg["game"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    for stem, report in _write_bounds(cfg, spec, out).items():
        (out / f"{stem}.txt").write_text(f"config_sha256={config_sha256(cfg)}\n" + report.to_text())
    return 0


def _reference_values(cfg: dict, spec: GameSpec, h: float, points: np.ndarray) -> np.ndarray:
    """Reference Val(0, x) on the given mesh-h points: catalog closed form, or
    a fine-mesh slice CSV whose lattice must contain the points."""
    ref = cfg["reference"]
    if ref == "closed_form":
        if spec.closed_form is None:
            raise UsageError(
                f"game '{spec.name}' has no closed form; pass --reference FILE")
        return np.array([spec.closed_form(0.0, x) for x in points])
    path = Path(ref)
    if not path.exists():
        raise UsageError(f"reference file not found: {ref}")
    meta = read_slice_meta(path)
    _check_reused_slice(path.name, meta, game=spec.name, kind=cfg["kind"])
    if "h" not in meta and "dx" not in meta:
        raise UsageError("reference file lacks an 'h' or 'dx' metadata line")
    mesh = meta.get("h", meta.get("dx"))
    try:
        h_ref = float(mesh)
    except ValueError:
        raise UsageError(f"reference file has a non-numeric mesh: {mesh!r}")
    grid, _ = read_slice_csv(path, h_ref)
    idx = grid.domain.indices_of_states(points)
    if np.any(idx < 0):
        raise UsageError(f"the mesh-{mesh} reference slice {path.name} does not hold the "
                         f"mesh-{h} point {points[np.argmax(idx < 0)].tolist()}")
    return grid.values[idx]


def _eval_mask(domain) -> np.ndarray:
    """Error metric points: all lattice nodes with max-norm <= 1."""
    return np.max(np.abs(domain.states()), axis=1) <= 1.0 + 1e-12


def cmd_converge(cfg: dict) -> int:
    if cfg["sigma"] and len(cfg["h"]) > 1:
        raise UsageError(f"a sigma sweep takes one --h value (the spatial step), "
                         f"got {len(cfg['h'])}")
    spec = load_game(cfg["game"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    x0 = _x0(cfg, spec)
    rows = []
    for h in cfg["h"]:
        domain = truncate_domain(spec, x0, h, pad=cfg["pad"])
        keep = _eval_mask(domain)
        ref = _reference_values(cfg, spec, h, domain.states()[keep])
        for sigma in cfg["sigma"] or [None]:
            res = _solve(cfg, spec, domain, sigma, [0.0])
            err = float(np.max(np.abs(res.slice_at(0.0).values[keep] - ref)))
            report = bounds_mod.assemble(spec, h, sigma, seed=cfg["seed"])
            rows.append((h, err, report.bound_thm2) if sigma is None
                        else (sigma, err, report.bound_visc))
    param_kind = "sigma" if cfg["sigma"] else "h"
    lines = [f"# config_sha256={config_sha256(cfg)}", f"# seed={cfg['seed']}",
             f"# game={spec.name}", f"# param_kind={param_kind}",
             "param,error,paper_bound,bound_satisfied,empirical_order"]
    for i, (param, err, bound) in enumerate(rows):
        ok = "true" if err <= bound else "false"
        if i == 0:
            order = ""
        else:
            p0, e0, _ = rows[i - 1]
            order = (_fmt(np.log(e0 / err) / np.log(p0 / param))
                     if err > 0 and e0 > 0 else "")
        lines.append(f"{_fmt(param)},{_fmt(err)},{_fmt(bound)},{ok},{order}")
    (out / "converge.csv").write_text("\n".join(lines) + "\n")
    return 0


def _check_reused_slice(name: str, meta: dict, **expected) -> None:
    """A slice file from an earlier 'solve' must match this run's settings."""
    for key, want in expected.items():
        # 'solve' writes floats with str(), which round-trips exactly
        want = want if isinstance(want, str) else str(float(want))
        if meta.get(key) != want:
            raise UsageError(f"{name} was solved with {key}={meta.get(key)}, this run has "
                             f"{key}={want}; rerun 'solve' with the same settings")


def cmd_simulate(cfg: dict) -> int:
    if len(cfg["h"]) != 1:
        raise UsageError(f"simulate takes one --h value, got {len(cfg['h'])}")
    spec = load_game(cfg["game"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    if cfg["replicas"] < 2:
        raise UsageError("simulate needs at least 2 replicas for a standard error")
    if cfg["kind"] != "upper":
        raise UsageError("simulate plays the upper-value feedback; --kind must be 'upper'")
    x0 = _x0(cfg, spec)
    h = cfg["h"][0]
    wanted = [s.strip() for s in cfg["adversaries"].split(",") if s.strip()]
    if not wanted:
        raise UsageError("simulate needs at least one adversary")
    panel = {a.name: a for a in standard_adversaries(spec)}
    unknown = [w for w in wanted if w not in panel]
    if unknown:
        raise UsageError(f"unknown adversaries {unknown}; choose from {sorted(panel)}")
    repeated = sorted({w for w in wanted if wanted.count(w) > 1})
    if repeated:
        raise UsageError(f"adversaries {repeated} are named more than once")

    eta_path = out / _slice_name(cfg, 0.0, h, None)
    if not eta_path.exists():
        raise UsageError(f"missing {eta_path.name} in --out; run 'solve' first")
    domain = truncate_domain(spec, x0, h, pad=cfg["pad"])
    dt = _dt(cfg)
    dt = auto_dt(spec, h) if dt is None else dt
    _check_reused_slice(eta_path.name, read_slice_meta(eta_path), game=spec.name, h=h,
                        kind=cfg["kind"], dt=dt)
    x_ref = domain.nearest_lattice(x0) * h
    eta_ref = read_slice_value(eta_path, x_ref)
    if eta_ref is None:
        raise UsageError(f"{eta_path.name} holds no row at {x_ref.tolist()}, the lattice "
                         f"point nearest x0; rerun 'solve' with the same settings")

    eta = feedback_table(spec, domain, dt=dt)
    fresh = eta.value0.value_at(x_ref)
    if abs(fresh - eta_ref) > 1e-12 * max(1.0, abs(fresh)):
        raise UsageError(f"{eta_path.name} holds {eta_ref!r} at x0 but this run's solve "
                         f"gives {fresh!r}; rerun 'solve' with the same settings")
    partition = Partition.uniform(0.0, spec.T, cfg["partition_diam"])
    report = bounds_mod.assemble(spec, h, seed=cfg["seed"])
    bound = report.guarantee_thm1

    lines = [f"# config_sha256={config_sha256(cfg)}", f"# seed={cfg['seed']}",
             f"# game={spec.name}", f"# h={_fmt(h)}",
             f"# partition_diam={_fmt(cfg['partition_diam'])}",
             f"# eta_file={eta_path.name}",
             "adversary,n,mean,std_error,ci_low,ci_high,eta_reference,bound,threshold,pass"]
    advs = [panel[name] for name in wanted]
    batches = run_extremal_shift_batch(spec, eta, partition, x0, advs,
                                       n_replicas=cfg["replicas"], seed=cfg["seed"]).split()
    for name, adv, batch in zip(wanted, advs, batches):
        frozen = int(batch.n_frozen.sum())
        if frozen:
            print(f"warning: {name}: {frozen} model jumps in "
                  f"{int(np.count_nonzero(batch.n_frozen))} replicas would have left the "
                  f"box and were frozen; increase --pad", file=sys.stderr)
        est = OutcomeEstimate.from_outcomes(batch.outcomes)
        threshold = eta_ref + bound + 3.0 * est.std_error
        ok = "true" if est.mean <= threshold else "false"
        lines.append(",".join([name, str(est.n), _fmt(est.mean), _fmt(est.std_error),
                               _fmt(est.ci_low), _fmt(est.ci_high), _fmt(eta_ref),
                               _fmt(bound), _fmt(threshold), ok]))
        for i in range(cfg["dump_trajectories"]):
            path = run_extremal_shift(spec, eta, partition, x0, adv,
                                      rng=replica_rng(cfg["seed"], i))
            path.write_csv(out / f"trajectory_{name}_{i}.csv",
                           _meta(cfg, spec, adversary=name, replica=i))
    (out / "simulate.csv").write_text("\n".join(lines) + "\n")
    return 0


_COMMANDS = {"solve": cmd_solve, "converge": cmd_converge,
             "simulate": cmd_simulate, "bounds": cmd_bounds}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[cfg["command"]](cfg)
    except (UsageError, GameSpecError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LatticeGamesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
