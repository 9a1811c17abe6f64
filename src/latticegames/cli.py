"""Batch command-line front end.

Four subcommands: ``solve`` writes value-slice CSVs plus a bounds report,
``converge`` sweeps mesh or noise levels against a reference value,
``simulate`` runs the feedback-coupling replica panel and writes a guarantee
verdict, ``bounds`` emits the constants report alone.

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

import numpy as np

from . import bounds as bounds_mod
from .errors import GameSpecError, LatticeGamesError, TruncationError
from .games import GameSpec, load_game
from .shift import (Partition, run_extremal_shift, run_extremal_shift_batch,
                    standard_adversaries)
from .simulate import OutcomeEstimate, replica_rng
from .solver import (auto_dt, feedback_table, read_slice_csv, solve_backward,
                     truncate_domain, write_slice_csv)
from .viscous import solve_viscous

_CONFIG_KEYS = ("command", "game", "h", "sigma", "dt_policy", "partition_diam",
                "replicas", "seed", "x0", "kind", "checkpoints", "pad",
                "reference", "adversaries", "dump_trajectories")
_HASH_EXCLUDED = ("out", "config")

_DEFAULTS = {
    "h": [0.05],
    "sigma": None,
    "dt_policy": "auto",
    "partition_diam": 0.01,
    "replicas": 10000,
    "seed": 0,
    "out": ".",
    "x0": None,
    "kind": "upper",
    "checkpoints": [0.0],
    "pad": 0.5,
    "reference": "closed_form",
    "adversaries": "constant,bang_bang,random,worst_case",
    "dump_trajectories": 0,
}


# JSON types a --config file may give each key; list entries are numbers
_NUMBER = (int, float)
_FILE_TYPES = {"command": str, "config": str, "game": str, "h": list,
               "sigma": (list, type(None)), "dt_policy": (str, *_NUMBER),
               "partition_diam": _NUMBER, "replicas": int, "seed": int, "out": str,
               "x0": (list, type(None)), "kind": str, "checkpoints": list,
               "pad": _NUMBER, "reference": str, "adversaries": str, "dump_trajectories": int}


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
        s.add_argument("--game", help="catalog name or JSON game file")
        s.add_argument("--h", nargs="+", type=float, default=None,
                       help="lattice mesh values (spatial step for viscous runs)")
        s.add_argument("--sigma", nargs="+", type=float, default=None,
                       help="viscosity levels; presence selects the PDE model")
        s.add_argument("--dt-policy", dest="dt_policy", default=None,
                       help="'auto' or an explicit time step")
        s.add_argument("--partition-diam", dest="partition_diam", type=float, default=None)
        s.add_argument("--replicas", type=int, default=None)
        s.add_argument("--seed", type=int, default=None)
        s.add_argument("--out", default=None, help="output directory")
        s.add_argument("--config", default=None, help="JSON file supplying any flag; flags override")
        s.add_argument("--x0", nargs="+", type=float, default=None, help="initial state")
        s.add_argument("--kind", choices=("upper", "lower"), default=None)
        s.add_argument("--checkpoints", nargs="+", type=float, default=None,
                       help="times whose slices are written")
        s.add_argument("--pad", type=float, default=None, help="domain padding beyond reachability")
        s.add_argument("--reference", default=None,
                       help="'closed_form' or a fine-mesh slice CSV for converge")
        s.add_argument("--adversaries", default=None,
                       help="comma list from constant,bang_bang,random,worst_case")
        s.add_argument("--dump-trajectories", dest="dump_trajectories", type=int, default=None,
                       help="log this many replicas per adversary to CSV")
    return p


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    cfg["command"] = args.command
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise UsageError(f"config file is not valid JSON: {e}")
        unknown = set(file_cfg) - set(_CONFIG_KEYS) - set(_HASH_EXCLUDED)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            if not isinstance(val, _FILE_TYPES[key]) or (
                    isinstance(val, list) and not all(isinstance(c, _NUMBER) for c in val)):
                raise UsageError(f"config key {key!r} has a value of the wrong type: {val!r}")
        cfg.update(file_cfg)
    for key in list(_CONFIG_KEYS) + ["out"]:
        if key == "command":
            continue
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg.get("game") is None:
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
    if cfg["replicas"] < 1:
        raise UsageError("replicas must be >= 1")
    return cfg


def config_sha256(cfg: dict) -> str:
    hashed = {k: cfg.get(k) for k in _CONFIG_KEYS}
    canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _load(cfg: dict) -> GameSpec:
    return load_game(cfg["game"])


def _x0(cfg: dict, spec: GameSpec) -> np.ndarray:
    x0 = cfg["x0"] if cfg["x0"] is not None else [0.0] * spec.d
    x0 = np.asarray([float(c) for c in x0])
    if x0.shape != (spec.d,):
        raise UsageError(f"x0 needs {spec.d} coordinates, got {len(x0)}")
    return x0


def _dt(cfg: dict, spec: GameSpec, h: float) -> float | None:
    if cfg["dt_policy"] == "auto":
        return None
    return float(cfg["dt_policy"])


def _meta(cfg: dict, spec: GameSpec, **extra) -> dict:
    meta = {"config_sha256": config_sha256(cfg), "seed": cfg["seed"], "game": spec.name}
    meta.update(extra)
    return meta


def _write_bounds(cfg: dict, spec: GameSpec, out: Path) -> dict[str, bounds_mod.BoundsReport]:
    """Write bounds.json per h (tagged when several); returns the reports by file stem."""
    hs = cfg["h"]
    sigma = cfg["sigma"][0] if cfg["sigma"] else None
    reports = {}
    for h in hs:
        report = bounds_mod.assemble(spec, h, sigma, seed=cfg["seed"])
        stem = f"bounds_h{_label(h)}" if len(hs) > 1 else "bounds"
        payload = report.to_dict()
        payload["config_sha256"] = config_sha256(cfg)
        (out / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")
        reports[stem] = report
    return reports


def cmd_solve(cfg: dict) -> int:
    spec = _load(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    x0 = _x0(cfg, spec)
    checkpoints = [float(t) for t in cfg["checkpoints"]]
    many = len(cfg["h"]) > 1
    for h in cfg["h"]:
        domain = truncate_domain(spec, x0, h, pad=cfg["pad"])
        if cfg["sigma"]:
            for sigma in cfg["sigma"]:
                res = solve_viscous(spec, domain, sigma, kind=cfg["kind"],
                                    dt=_dt(cfg, spec, h), checkpoints=checkpoints)
                for t in checkpoints:
                    grid = res.slice_at(t)
                    tag = f"_h{_label(h)}" if many else ""
                    name = f"psi_{cfg['kind']}_t{_label(t)}{tag}_s{_label(sigma)}.csv"
                    write_slice_csv(grid, out / name,
                                    _meta(cfg, spec, kind=cfg["kind"], sigma=sigma,
                                          dx=h, dt=res.dt))
        else:
            res = solve_backward(spec, domain, kind=cfg["kind"],
                                 dt=_dt(cfg, spec, h), checkpoints=checkpoints)
            for t in checkpoints:
                grid = res.slice_at(t)
                tag = f"_h{_label(h)}" if many else ""
                name = f"eta_{cfg['kind']}_t{_label(t)}{tag}.csv"
                write_slice_csv(grid, out / name,
                                _meta(cfg, spec, kind=cfg["kind"], h=h, dt=res.dt))
    _write_bounds(cfg, spec, out)
    return 0


def cmd_bounds(cfg: dict) -> int:
    spec = _load(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    for stem, report in _write_bounds(cfg, spec, out).items():
        (out / f"{stem}.txt").write_text(f"config_sha256={config_sha256(cfg)}\n" + report.to_text())
    return 0


def _reference_values(cfg: dict, spec: GameSpec, points: np.ndarray) -> np.ndarray:
    """Reference Val(0, x) on the given points: catalog closed form, or a
    fine-mesh slice CSV whose lattice must contain the points."""
    ref = cfg["reference"]
    if ref == "closed_form":
        if spec.closed_form is None:
            raise UsageError(
                f"game '{spec.name}' has no closed form; pass --reference FILE")
        return np.array([spec.closed_form(0.0, x) for x in points])
    path = Path(ref)
    if not path.exists():
        raise UsageError(f"reference file not found: {ref}")
    meta = {}
    for line in path.read_text().splitlines():
        if line.startswith("# ") and "=" in line:
            k, v = line[2:].split("=", 1)
            meta[k] = v
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
        raise TruncationError(f"reference slice does not hold the point "
                              f"{points[np.argmax(idx < 0)].tolist()}")
    return grid.values[idx]


def _eval_mask(domain) -> np.ndarray:
    """Error metric points: all lattice nodes with max-norm <= 1."""
    return np.max(np.abs(domain.states()), axis=1) <= 1.0 + 1e-12


def cmd_converge(cfg: dict) -> int:
    spec = _load(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    x0 = _x0(cfg, spec)
    rows = []
    if cfg["sigma"]:
        dx = cfg["h"][0]
        domain = truncate_domain(spec, x0, dx, pad=cfg["pad"])
        keep = _eval_mask(domain)
        ref = _reference_values(cfg, spec, domain.states()[keep])
        param_kind = "sigma"
        for sigma in cfg["sigma"]:
            res = solve_viscous(spec, domain, sigma, kind=cfg["kind"],
                                dt=_dt(cfg, spec, dx), checkpoints=[0.0])
            err = float(np.max(np.abs(res.slice_at(0.0).values[keep] - ref)))
            report = bounds_mod.assemble(spec, dx, sigma, seed=cfg["seed"])
            rows.append((sigma, err, report.bound_visc))
    else:
        param_kind = "h"
        for h in cfg["h"]:
            domain = truncate_domain(spec, x0, h, pad=cfg["pad"])
            keep = _eval_mask(domain)
            ref = _reference_values(cfg, spec, domain.states()[keep])
            res = solve_backward(spec, domain, kind=cfg["kind"],
                                 dt=_dt(cfg, spec, h), checkpoints=[0.0])
            err = float(np.max(np.abs(res.slice_at(0.0).values[keep] - ref)))
            report = bounds_mod.assemble(spec, h, seed=cfg["seed"])
            rows.append((h, err, report.bound_thm2))

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
    spec = _load(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    if cfg["replicas"] < 2:
        raise UsageError("simulate needs at least 2 replicas for a standard error")
    if cfg["kind"] != "upper":
        raise UsageError("simulate plays the upper-value feedback; --kind must be 'upper'")
    x0 = _x0(cfg, spec)
    h = cfg["h"][0]
    wanted = [s.strip() for s in cfg["adversaries"].split(",") if s.strip()]
    panel = {a.name: a for a in standard_adversaries(spec)}
    unknown = [w for w in wanted if w not in panel]
    if unknown:
        raise UsageError(f"unknown adversaries {unknown}; choose from {sorted(panel)}")

    eta_path = out / f"eta_{cfg['kind']}_t0.csv"
    if not eta_path.exists():
        raise UsageError(f"missing {eta_path.name} in --out; run 'solve' first")
    ref_grid, ref_meta = read_slice_csv(eta_path, h)
    domain = truncate_domain(spec, x0, h, pad=cfg["pad"])
    dt = auto_dt(spec, h) if cfg["dt_policy"] == "auto" else float(cfg["dt_policy"])
    _check_reused_slice(eta_path.name, ref_meta, game=spec.name, h=h, kind=cfg["kind"], dt=dt)
    x_ref = ref_grid.domain.nearest_lattice(x0) * h
    eta_ref = float(ref_grid.value_at(x_ref))

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
    for name in wanted:
        adv = panel[name]
        batch = run_extremal_shift_batch(spec, eta, partition, x0, adv,
                                         n_replicas=cfg["replicas"], seed=cfg["seed"])
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
