"""Command-line front end: files, metadata, exit codes, reproducibility."""

import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from latticegames import g1
from latticegames import cli
from latticegames.cli import config_sha256, main
from latticegames.games import payoff_batch
from latticegames.solver import read_slice_csv, read_slice_meta
from oracles import forced_blocks


def run(*argv):
    return main(list(argv))


def exit_code(*argv):
    """main's return value, or the code argparse exits with on a bad flag."""
    try:
        return run(*argv)
    except SystemExit as e:
        return e.code


def test_solve_writes_slices_and_bounds(tmp_path):
    code = run("solve", "--game", "g1", "--out", str(tmp_path),
               "--checkpoints", "0.0", "0.5")
    assert code == 0
    for name in ("eta_upper_t0.csv", "eta_upper_t0.5.csv", "bounds.json"):
        assert (tmp_path / name).exists(), name
    head = (tmp_path / "eta_upper_t0.csv").read_text().splitlines()[:8]
    assert any(l.startswith("# config_sha256=") for l in head)
    assert "# seed=0" in head
    assert "# game=g1" in head
    payload = json.loads((tmp_path / "bounds.json").read_text())
    assert payload["game"] == "g1"
    assert payload["kappa"] == 0.0
    assert "config_sha256" in payload
    assert payload["guarantee_thm1"] > 0


def test_solve_multi_h_tags_files(tmp_path):
    code = run("solve", "--game", "g1", "--out", str(tmp_path),
               "--h", "0.1", "0.05", "--checkpoints", "0.0")
    assert code == 0
    assert (tmp_path / "eta_upper_t0_h0.1.csv").exists()
    assert (tmp_path / "eta_upper_t0_h0.05.csv").exists()
    assert (tmp_path / "bounds_h0.1.json").exists()
    assert (tmp_path / "bounds_h0.05.json").exists()


def test_solve_viscous_files(tmp_path):
    code = run("solve", "--game", "g1", "--out", str(tmp_path),
               "--h", "0.05", "--sigma", "0.2", "--checkpoints", "0.0")
    assert code == 0
    assert (tmp_path / "psi_upper_t0_s0.2.csv").exists()
    payload = json.loads((tmp_path / "bounds.json").read_text())
    assert payload["sigma"] == 0.2
    assert payload["bound_visc"] == pytest.approx(payload["c1"] * 0.2)


def test_solve_writes_one_bounds_report_per_sigma(tmp_path):
    for hs, stems in ((["0.1"], ["bounds_s0.2", "bounds_s0.3"]),
                      (["0.1", "0.05"], ["bounds_h0.05_s0.2", "bounds_h0.05_s0.3",
                                         "bounds_h0.1_s0.2", "bounds_h0.1_s0.3"])):
        out = tmp_path / str(len(hs))
        assert run("solve", "--game", "g1", "--out", str(out), "--h", *hs,
                   "--sigma", "0.2", "0.3", "--checkpoints", "0.0") == 0
        assert sorted(p.stem for p in out.glob("bounds*")) == stems
        for stem in stems:
            payload = json.loads((out / f"{stem}.json").read_text())
            assert payload["sigma"] == float(stem.split("_s")[1])
            assert payload["bound_visc"] == pytest.approx(payload["c1"] * payload["sigma"])


def test_bounds_text_report(tmp_path):
    code = run("bounds", "--game", "g1", "--out", str(tmp_path), "--h", "0.04")
    assert code == 0
    lines = (tmp_path / "bounds.txt").read_text().splitlines()
    assert lines[0].startswith("config_sha256=")
    assert "bound_thm2=0.6658403456804334" in lines


def test_converge_report(tmp_path):
    code = run("converge", "--game", "g1", "--out", str(tmp_path),
               "--h", "0.1", "0.05")
    assert code == 0
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert lines[4] == "param,error,paper_bound,bound_satisfied,empirical_order"
    first = lines[5].split(",")
    second = lines[6].split(",")
    assert first[0] == "0.10000000000000001" and first[4] == ""
    assert first[3] == "true" and second[3] == "true"
    assert float(second[4]) > 0.4  # observed mesh order is at least ~sqrt


def test_converge_against_a_finer_solve_slice(tmp_path):
    ref = tmp_path / "ref"
    assert run("solve", "--game", "g1", "--h", "0.025", "--out", str(ref)) == 0
    assert run("converge", "--game", "g1", "--h", "0.1", "0.05", "--out", str(tmp_path),
               "--reference", str(ref / "eta_upper_t0.csv")) == 0
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert lines[3] == "# param_kind=h"
    rows = [line.split(",") for line in lines[5:]]
    assert [float(r[0]) for r in rows] == [0.1, 0.05]
    assert all(math.isfinite(float(r[1])) for r in rows)


def test_converge_rejects_a_reference_of_another_game(tmp_path, capsys):
    game = tmp_path / "other.json"
    game.write_text(json.dumps({
        "d": 1, "T": 1.0, "u_grid": [-1, 0, 1], "v_grid": [-0.5, 0, 0.5],
        "drift": {"kind": "control_sum"}, "payoff": {"kind": "norm"},
        "R": 1, "M1": 1.5, "K1": 0}))
    ref = tmp_path / "ref"
    assert run("solve", "--game", str(game), "--h", "0.05", "--out", str(ref)) == 0
    assert run("converge", "--game", "g1", "--h", "0.1", "0.05", "--out", str(tmp_path),
               "--reference", str(ref / "eta_upper_t0.csv")) == 2
    assert "game=other" in capsys.readouterr().err
    assert not (tmp_path / "converge.csv").exists()


def test_converge_checks_the_reference_metadata_before_its_rows(tmp_path, capsys):
    # rows no parser accepts: the game check must not need them
    ref = tmp_path / "eta_upper_t0.csv"
    ref.write_text("# game = other\n# kind=upper\n# h=0.05\nt,x_1,value\n0,not,a row\n")
    assert run("converge", "--game", "g1", "--h", "0.1", "--out", str(tmp_path),
               "--reference", str(ref)) == 2
    assert "game=other" in capsys.readouterr().err
    assert not (tmp_path / "converge.csv").exists()


def test_converge_rejects_a_reference_of_the_other_kind(tmp_path, capsys):
    ref = tmp_path / "ref"
    assert run("solve", "--game", "g1", "--h", "0.05", "--kind", "lower", "--out", str(ref)) == 0
    assert run("converge", "--game", "g1", "--h", "0.1", "--out", str(tmp_path),
               "--reference", str(ref / "eta_lower_t0.csv")) == 2
    assert "kind=lower" in capsys.readouterr().err
    assert not (tmp_path / "converge.csv").exists()


def test_converge_rejects_a_reference_mesh_without_the_points(tmp_path, capsys):
    ref = tmp_path / "ref"
    assert run("solve", "--game", "g1", "--h", "0.03", "--out", str(ref)) == 0
    assert run("converge", "--game", "g1", "--h", "0.1", "--out", str(tmp_path),
               "--reference", str(ref / "eta_upper_t0.csv")) == 2
    err = capsys.readouterr().err
    assert "mesh-0.03 reference slice" in err and "mesh-0.1 point" in err
    assert not (tmp_path / "converge.csv").exists()


def test_converge_checks_every_mesh_against_the_reference_before_a_sweep(tmp_path, monkeypatch,
                                                                        capsys):
    ref = tmp_path / "ref"
    assert run("solve", "--game", "g1", "--h", "0.05", "--out", str(ref)) == 0
    sweeps = []
    monkeypatch.setattr(cli, "_solve", lambda *args: sweeps.append(args))
    # the mesh-0.05 slice holds the mesh-0.1 points, not the mesh-0.03 ones
    assert run("converge", "--game", "g1", "--h", "0.1", "0.03", "--out", str(tmp_path),
               "--reference", str(ref / "eta_upper_t0.csv")) == 2
    assert "mesh-0.03 point" in capsys.readouterr().err
    assert sweeps == []


def test_converge_needs_the_reference_file(tmp_path, capsys):
    assert run("converge", "--game", "g1", "--h", "0.1", "--out", str(tmp_path),
               "--reference", str(tmp_path / "missing.csv")) == 2
    assert "reference file not found" in capsys.readouterr().err


def test_converge_single_h_has_no_order(tmp_path):
    code = run("converge", "--game", "g1", "--out", str(tmp_path), "--h", "0.1")
    assert code == 0
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert len(lines) == 6
    assert lines[5].endswith(",true,")


@pytest.mark.parametrize("params", [["--h", "0.1", "--sigma", "0.2", "0"], ["--h", "0.1", "0.1"]],
                         ids=["sigma-to-zero", "repeated-h"])
def test_converge_has_no_order_between_a_repeated_or_zero_param(tmp_path, params):
    assert run("converge", "--game", "g1", "--out", str(tmp_path), *params) == 0
    rows = (tmp_path / "converge.csv").read_text().splitlines()[5:]
    assert len(rows) == 2
    assert all(row.split(",")[4] == "" for row in rows), rows


def test_converge_sigma_rows_bound_the_viscous_and_the_lattice_error(tmp_path):
    # sigma = 0 is the upwind scheme at dx = h: its error is the lattice
    # error alone, which bound_thm2(h) covers, and bound_visc(0) is 0
    assert run("converge", "--game", "g1", "--h", "0.1", "--sigma", "0.2", "0",
               "--out", str(tmp_path)) == 0
    rows = [row.split(",") for row in (tmp_path / "converge.csv").read_text().splitlines()[5:]]
    thm2 = 1.0527860251920127  # bound_thm2 of g1 at h = 0.1
    assert [float(row[2]) for row in rows] == [0.5436563656918091 + thm2, thm2]
    assert [row[3] for row in rows] == ["true", "true"]


@pytest.mark.parametrize("x0", [["5"], ["-3.1"]], ids=["far", "just-out"])
def test_converge_refuses_an_x0_whose_box_misses_the_scored_points(tmp_path, capsys, x0):
    # g1's box reaches M1*T + pad = 2 from x0; the error is scored where |x| <= 1
    assert run("converge", "--game", "g1", "--h", "0.05", "0.1", "--x0", *x0,
               "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"box [{float(x0[0]) - 2:g}, {float(x0[0]) + 2:g}] around x0=[{float(x0[0])}]" in err
    assert "no lattice point with |x|_inf <= 1" in err
    assert not list(tmp_path.glob("*"))


def test_simulate_requires_solve_first(tmp_path, capsys):
    code = run("simulate", "--game", "g1", "--out", str(tmp_path),
               "--replicas", "10")
    assert code == 2
    assert "run 'solve' first" in capsys.readouterr().err


def test_simulate_verdict_and_trajectories(tmp_path):
    assert run("solve", "--game", "g1", "--out", str(tmp_path)) == 0
    code = run("simulate", "--game", "g1", "--out", str(tmp_path),
               "--replicas", "60", "--partition-diam", "0.05",
               "--adversaries", "constant,worst_case", "--dump-trajectories", "1")
    assert code == 0
    lines = (tmp_path / "simulate.csv").read_text().splitlines()
    header = "adversary,n,mean,std_error,ci_low,ci_high,eta_reference,bound,threshold,pass"
    assert header in lines
    data = lines[lines.index(header) + 1:]
    assert len(data) == 2
    for row in data:
        cells = row.split(",")
        assert cells[0] in ("constant", "worst_case")
        assert cells[1] == "60"
        assert cells[9] == "true"
        assert float(cells[2]) <= float(cells[8])
    assert (tmp_path / "trajectory_constant_0.csv").exists()
    assert (tmp_path / "trajectory_worst_case_0.csv").exists()


def test_simulate_checks_the_reused_slice(tmp_path, capsys):
    g1_dir, dt_dir = tmp_path / "g1", tmp_path / "dt"
    assert run("solve", "--game", "g1", "--out", str(g1_dir)) == 0
    # a g2 run must not reuse the g1 slice
    assert run("simulate", "--game", "g2", "--out", str(g1_dir), "--replicas", "10") == 2
    assert "game=g1" in capsys.readouterr().err
    # nor may an auto-dt run reuse a slice solved at another dt
    assert run("solve", "--game", "g1", "--out", str(dt_dir), "--dt-policy", "0.001") == 0
    assert run("simulate", "--game", "g1", "--out", str(dt_dir), "--replicas", "10") == 2
    assert "dt=0.001" in capsys.readouterr().err
    # a dt solve refuses is refused by simulate with solve's exit code and message
    for dt, code, message in (("0.5", 3, "exceeds the stability ceiling"),
                              ("0.015", 2, "checkpoint 0 lies between the grid times "
                                           "-0.005 and 0.01 of dt=0.015; choose a dt")):
        assert run("solve", "--game", "g1", "--out", str(dt_dir), "--dt-policy", dt) == code
        refusal = capsys.readouterr().err
        assert message in refusal
        assert run("simulate", "--game", "g1", "--out", str(dt_dir), "--replicas", "10",
                   "--dt-policy", dt) == code
        assert capsys.readouterr().err == refusal
    # matching metadata but a different value at x0 fails the cross-check
    path = g1_dir / "eta_upper_t0.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("0,0,"))
    lines[row] = "0,0,0.5"
    path.write_text("\n".join(lines) + "\n")
    assert run("simulate", "--game", "g1", "--out", str(g1_dir), "--replicas", "10") == 2
    assert "holds 0.5 at x0" in capsys.readouterr().err
    assert not (g1_dir / "simulate.csv").exists()


def test_simulate_needs_the_row_of_x0_in_the_slice(tmp_path, capsys):
    # the slice's metadata match, but its box, solved around x0 = 5, misses 0
    assert run("solve", "--game", "g1", "--h", "0.1", "--x0", "5", "--out", str(tmp_path)) == 0
    assert run("simulate", "--game", "g1", "--h", "0.1", "--out", str(tmp_path),
               "--replicas", "10", "--partition-diam", "0.1") == 2
    assert "eta_upper_t0.csv holds no row at [0.0]" in capsys.readouterr().err
    assert not (tmp_path / "simulate.csv").exists()


def test_solve_rejects_an_m1_too_small_for_the_box(tmp_path, capsys):
    # rotation_mix outruns M1 = 1 at the corners of its h=0.1 box
    game = tmp_path / "fast.json"
    game.write_text(json.dumps({
        "d": 2, "T": 1, "drift": {"kind": "rotation_mix"}, "u_grid": [-1, 0, 1],
        "v_grid": [-1, 0, 1], "payoff": {"kind": "norm"}, "R": 1, "M1": 1, "K1": 0}))
    for sigma in ((), ("--sigma", "0.2")):
        assert run("solve", "--game", str(game), "--h", "0.1", "--out", str(tmp_path),
                   *sigma) == 2
        err = capsys.readouterr().err
        assert "at x=[1.5, -1.5] for the control pair u=-1.0, v=-1.0" in err
        assert "the Euler step is not monotone" in err
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_rejects_lower_kind(tmp_path, capsys):
    assert run("simulate", "--game", "g1", "--out", str(tmp_path), "--kind", "lower",
               "--replicas", "10") == 2
    assert "--kind must be 'upper'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [(("--h", "0.1", "0.05"), "--h"),
                                           (("--h", "0.1", "--sigma", "0.3"), "--sigma")],
                         ids=["two-h", "sigma"])
def test_simulate_rejects_flags_it_cannot_honour(tmp_path, capsys, flags, named):
    # simulate uses one mesh and a deterministic real system
    assert run("solve", "--game", "g1", "--out", str(tmp_path), "--h", "0.1") == 0
    assert exit_code("simulate", "--game", "g1", "--out", str(tmp_path), "--replicas", "10",
                     "--partition-diam", "0.1", *flags) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "simulate.csv").exists()


def test_simulate_warns_on_frozen_boundary_moves(tmp_path, capsys):
    # drift +1 always: with pad 0 the model chain keeps running into the face
    game = tmp_path / "push.json"
    game.write_text(json.dumps({
        "d": 1, "T": 1, "drift": {"kind": "control_sum"}, "u_grid": [0], "v_grid": [1],
        "payoff": {"kind": "norm"}, "R": 1, "M1": 1, "K1": 0}))
    assert run("solve", "--game", str(game), "--out", str(tmp_path), "--pad", "0") == 0
    assert run("simulate", "--game", str(game), "--out", str(tmp_path), "--pad", "0",
               "--replicas", "40", "--adversaries", "constant,random") == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert [w.split(":")[1].strip() for w in warnings] == ["constant", "random"]
    assert all("increase --pad" in w for w in warnings)


def test_simulate_needs_an_adversary(tmp_path, capsys):
    assert run("solve", "--game", "g1", "--h", "0.1", "--out", str(tmp_path)) == 0
    assert run("simulate", "--game", "g1", "--h", "0.1", "--out", str(tmp_path),
               "--replicas", "10", "--partition-diam", "0.1", "--adversaries", ",") == 2
    assert "at least one adversary" in capsys.readouterr().err
    assert not (tmp_path / "simulate.csv").exists()


def test_simulate_rejects_a_repeated_adversary(tmp_path, capsys):
    assert run("solve", "--game", "g1", "--h", "0.1", "--out", str(tmp_path)) == 0
    assert run("simulate", "--game", "g1", "--h", "0.1", "--out", str(tmp_path),
               "--replicas", "10", "--partition-diam", "0.1",
               "--adversaries", "random,constant,random", "--dump-trajectories", "1") == 2
    assert "['random'] are named more than once" in capsys.readouterr().err
    assert not (tmp_path / "simulate.csv").exists()
    assert not list(tmp_path.glob("trajectory_*.csv"))


def test_simulate_runs_the_panel_as_one_engine_call(tmp_path, monkeypatch):
    # the benchmark's trace probe wraps this name and reads these arguments
    import latticegames.cli as cli

    calls = []
    engine = cli.run_extremal_shift_batch

    def counting(*args, **kwargs):
        result = engine(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(cli, "run_extremal_shift_batch", counting)
    assert run("solve", "--game", "g1", "--h", "0.1", "--out", str(tmp_path)) == 0
    assert run("simulate", "--game", "g1", "--h", "0.1", "--out", str(tmp_path),
               "--replicas", "12", "--partition-diam", "0.1") == 0
    assert len(calls) == 1
    args, kwargs, result = calls[0]
    assert [type(a).__name__ for a in args[:3]] == ["GameSpec", "FeedbackTable", "Partition"]
    assert kwargs["seed"] == 0
    assert result.n_replicas == 12
    assert result.adversaries == ("constant", "bang_bang", "random", "worst_case")
    assert len(result.outcomes) == 4 * 12


def test_simulate_csv_is_the_same_in_engine_blocks(tmp_path):
    assert run("solve", "--game", "g1", "--h", "0.1", "--out", str(tmp_path)) == 0
    argv = ("simulate", "--game", "g1", "--h", "0.1", "--out", str(tmp_path),
            "--replicas", "10", "--partition-diam", "0.1")
    assert run(*argv) == 0
    one = (tmp_path / "simulate.csv").read_bytes()
    with forced_blocks(3):  # blocks of 3, 3 and 4 replicas
        assert run(*argv) == 0
    assert (tmp_path / "simulate.csv").read_bytes() == one
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["solve", "simulate", "bounds"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(command, "--game", "g1", "--out", str(out), "--seed", "-1") == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text(json.dumps({"game": "g1", "seed": -3}))
    assert run(command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_exit_codes(tmp_path, capsys):
    assert run("solve", "--game", "nope", "--out", str(tmp_path)) == 2
    assert run("solve", "--game", "g1", "--out", str(tmp_path), "--h", "1.5") == 2
    assert run("simulate", "--game", "g1", "--out", str(tmp_path), "--replicas", "1") == 2
    assert run("solve", "--game", "g1", "--out", str(tmp_path),
               "--dt-policy", "oops") == 2
    # numerically unstable explicit step: runtime failure, not usage
    assert run("solve", "--game", "g1", "--out", str(tmp_path),
               "--dt-policy", "0.5") == 3
    assert "stability ceiling" in capsys.readouterr().err
    assert run("simulate", "--game", "g1", "--out", str(tmp_path),
               "--adversaries", "zigzag", "--replicas", "10") == 2


def test_malformed_game_field_is_a_usage_error(tmp_path, capsys):
    game = tmp_path / "bad.json"
    good = {"d": 1, "T": 1, "drift": {"kind": "control_sum"}, "u_grid": [0], "v_grid": [1],
            "payoff": {"kind": "norm"}, "R": 1, "M1": 1, "K1": 0}
    # a u entry of two numbers for a one-column bu once solved with v ignored
    affine = {"kind": "affine", "a": [[0]], "bu": [[1]], "bv": [[1]], "c": [0]}
    for bad in ({"T": "abc"}, {"d": 1.7}, {"drift": affine, "u_grid": [[1, 0.5], [1, -0.5]]},
                {"R": "2.5"}):
        game.write_text(json.dumps({**good, **bad}))
        assert run("solve", "--game", str(game), "--out", str(tmp_path)) == 2
        assert "malformed game definition" in capsys.readouterr().err


def test_config_value_of_wrong_type_is_a_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    for command, bad in (("simulate", {"replicas": "ten"}), ("bounds", {"h": ["a"]}),
                         ("bounds", {"h": 0.1}), ("solve", {"pad": [1]})):
        cfg_file.write_text(json.dumps({"game": "g1", **bad}))
        assert run(command, "--config", str(cfg_file), "--out", str(tmp_path)) == 2
        assert "wrong type" in capsys.readouterr().err


@pytest.mark.parametrize("command, bad, named", [
    ("bounds", {"seed": True}, "wrong type"),
    ("simulate", {"replicas": True}, "wrong type"),
    ("simulate", {"dump_trajectories": True}, "wrong type"),
    ("solve", {"pad": False}, "wrong type"),
    ("simulate", {"partition_diam": True}, "wrong type"),
    ("solve", {"dt_policy": True}, "wrong type"),
    ("bounds", {"h": [0.1, True]}, "wrong type"),
    ("simulate", {"dump_trajectories": -2}, "must be nonnegative"),
], ids=["seed", "replicas", "dump_trajectories", "pad", "partition_diam", "dt_policy", "h-entry",
        "negative-dump"])
def test_config_booleans_and_negative_counts_are_usage_errors(tmp_path, capsys, command, bad,
                                                              named):
    # JSON true is an int to Python, but no flag takes a boolean
    (tmp_path / "cfg.json").write_text(json.dumps({"game": "g1", **bad}))
    out = tmp_path / "out"
    assert run(command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["h", "sigma", "x0", "checkpoints"])
def test_config_lists_must_not_be_empty(tmp_path, capsys, key):
    # as nargs="+" requires of the flags
    (tmp_path / "cfg.json").write_text(json.dumps({"game": "g1", key: []}))
    out = tmp_path / "out"
    assert run("solve", "--config", str(tmp_path / "cfg.json"), "--out", str(out)) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bounds", "nope"])
def test_config_file_cannot_pick_the_command(tmp_path, capsys, command):
    (tmp_path / "cfg.json").write_text(json.dumps({"game": "g1", "command": command}))
    out = tmp_path / "out"
    assert run("solve", "--config", str(tmp_path / "cfg.json"), "--out", str(out)) == 2
    assert "'command'" in capsys.readouterr().err
    assert not out.exists()


# the flags each command reads besides --game, --seed, --out and --config
READS = {
    "solve": {"h", "sigma", "dt_policy", "x0", "kind", "checkpoints", "pad"},
    "converge": {"h", "sigma", "dt_policy", "x0", "kind", "pad", "reference"},
    "simulate": {"h", "dt_policy", "partition_diam", "replicas", "x0", "kind", "pad",
                 "adversaries", "dump_trajectories"},
    "bounds": {"h", "sigma"},
}
# a valid value for each, as a flag and as a config-file entry
SAMPLES = {"h": (["0.1"], [0.1]), "sigma": (["0.1"], [0.1]), "dt_policy": (["0.001"], 0.001),
           "x0": (["0"], [0.0]), "kind": (["upper"], "upper"), "checkpoints": (["0.5"], [0.5]),
           "pad": (["0.5"], 0.5), "reference": (["closed_form"], "closed_form"),
           "partition_diam": (["0.05"], 0.05), "replicas": (["10"], 10),
           "adversaries": (["constant"], "constant"), "dump_trajectories": (["1"], 1)}
UNREAD = [(command, key) for command, keys in READS.items()
          for key in sorted(set(SAMPLES) - keys)]


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_the_flags_each_command_reads(capsys, command):
    assert exit_code(command, "--help") == 0
    listed = set(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
    want = {key.replace("_", "-") for key in READS[command]}
    assert listed == want | {"help", "game", "seed", "out", "config"}


@pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, command, key):
    flag = "--" + key.replace("_", "-")
    argv_value, file_value = SAMPLES[key]
    out = tmp_path / "out"
    assert exit_code(command, "--game", "g1", "--out", str(out), flag, *argv_value) == 2
    assert flag in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text(json.dumps({"game": "g1", key: file_value}))
    assert run(command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["converge", "--sigma", "0.3", "--h", "0.1", "0.05"], "--h"),
    (["bounds", "--sigma", "0.3", "0.2"], "--sigma"),
    (["simulate", "--dump-trajectories", "-2"], "dump_trajectories"),
    (["simulate", "--h", "0.1", "--replicas", "2", "--dump-trajectories", "3"],
     "dump_trajectories"),
], ids=["converge-sigma-two-h", "bounds-two-sigma", "simulate-negative-dump",
        "simulate-dump-above-replicas"])
def test_commands_reject_values_they_would_drop(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert run(*argv, "--game", "g1", "--out", str(out)) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, config", [
    ("solve", ["--pad", "nan"], None),
    ("solve", ["--x0", "nan"], None),
    ("solve", ["--dt-policy", "nan"], None),
    ("solve", ["--dt-policy", "inf"], None),
    ("solve", ["--checkpoints", "nan"], None),
    ("solve", ["--sigma", "inf"], None),
    ("simulate", ["--partition-diam", "nan"], None),
    ("simulate", [], '{"game": "g1", "partition_diam": NaN}'),
    ("solve", [], '{"game": "g1", "x0": [-Infinity]}'),
], ids=["pad", "x0", "dt-nan", "dt-inf", "checkpoints", "sigma", "partition", "config-partition",
        "config-x0"])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, command, flags, config):
    argv = [command, "--out", str(tmp_path), *flags]
    if config is None:
        argv += ["--game", "g1"]
    else:
        (tmp_path / "cfg.json").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run(*argv) == 2
    assert "must be finite" in capsys.readouterr().err


def test_bugs_propagate_with_a_traceback(tmp_path, monkeypatch):
    import latticegames.cli as cli

    def broken(*args, **kwargs):
        raise ZeroDivisionError("a bug, not a numerical failure")

    monkeypatch.setattr(cli.bounds_mod, "assemble", broken)
    with pytest.raises(ZeroDivisionError):
        run("bounds", "--game", "g1", "--out", str(tmp_path))


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"game": "g1", "h": [0.1], "seed": 5}))
    out = tmp_path / "a"
    code = run("bounds", "--config", str(cfg_file), "--out", str(out), "--h", "0.04")
    assert code == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert payload["h"] == 0.04  # flag beats file
    assert payload["seed"] == 5  # file beats default

    cfg_file.write_text(json.dumps({"game": "g1", "mesh": 0.1}))
    assert run("bounds", "--config", str(cfg_file), "--out", str(out)) == 2
    assert run("bounds", "--config", str(tmp_path / "missing.json"),
               "--game", "g1", "--out", str(out)) == 2


def test_config_hash_ignores_out(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("bounds", "--game", "g1", "--out", str(a)) == 0
    assert run("bounds", "--game", "g1", "--out", str(b)) == 0
    ja = json.loads((a / "bounds.json").read_text())
    jb = json.loads((b / "bounds.json").read_text())
    assert ja["config_sha256"] == jb["config_sha256"]
    assert ja == jb
    with pytest.raises(SystemExit):  # no --threads flag
        run("bounds", "--game", "g1", "--out", str(a), "--threads", "1")


def test_config_hash_tracks_settings():
    base = {"command": "bounds", "game": "g1", "h": [0.05], "seed": 0}
    assert config_sha256(base) == config_sha256(dict(base))
    assert config_sha256(base) != config_sha256({**base, "seed": 1})
    assert config_sha256(base) != config_sha256({**base, "h": [0.04]})


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("solve", "--game", "g1", "--out", str(out)) == 0
        assert run("simulate", "--game", "g1", "--out", str(out),
                   "--replicas", "40", "--partition-diam", "0.05",
                   "--adversaries", "random") == 0
    for name in ("eta_upper_t0.csv", "bounds.json", "simulate.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_false_runaway_alarm_regression(tmp_path):
    # the maximiser dominates, so the value |x| + 0.5(T - t) grows at the
    # origin; the old weighted-norm growth check rejected it at any dt
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "d": 1, "T": 1, "drift": {"kind": "control_sum"},
        "u_grid": [-0.5, 0, 0.5], "v_grid": [-1, 0, 1],
        "payoff": {"kind": "norm"}, "R": 1, "M1": 1.5, "K1": 0}))
    for policy in ("auto", "0.0001"):
        out = tmp_path / policy
        assert run("solve", "--game", str(game), "--out", str(out), "--dt-policy", policy) == 0
        grid, _ = read_slice_csv(out / "eta_upper_t0.csv", 0.05)
        assert abs(grid.value_at([0.0]) - 0.5) <= 0.05  # true value 0.5 at (0, 0)


# sha256 of the g1 outputs as produced before the generator kernel and the
# backward sweep were unified; any change to these files must be deliberate
GOLDEN_G1 = {
    "chain/bounds.json": "fca23fd31629fa08f24d4e3efe5d271a8529da848ba5698e1c4b1bf939e310d8",
    "chain/eta_upper_t0.csv": "70b7a5239a6ac22379219cea410970cf3fb4be5781043bd9bf704f1228922959",
    "chain/simulate.csv": "3e164c99070691f066511516602f32a36d22d19538aaeb4d879309c73d436eb2",
    "visc/bounds.json": "7260ab6e4c110038e2fca8eb83f53bd26e3640a5e058541056d2550d129760f4",
    "visc/psi_upper_t0_s0.2.csv": "8b4b68b27b23aef3202d09dcb8e5379d406b4a55c5e506760e21197222f58911",
}


# sha256 of the g1 bounds and converge reports as produced before each command
# accepted only the flags it reads; the keys a command does not read stay at
# their defaults in the config hash
GOLDEN_G1_REPORTS = {
    "bounds/bounds.json": "be16df6de208bb2177f4e2d4824220dc79dfc12d96dadf76c52d6427ad947065",
    "bounds/bounds.txt": "4f69074055582dcece452047d0051b20fe2824d4ff36015aab2e69ddb3023dfd",
    "mesh/converge.csv": "fa6580df22cfa9b10d59693563ad66c908b5bd9d2224ad979149e156747de532",
    "sigma/converge.csv": "238d50502feee8205e88a805403c9e15976dc18ee88e3c75ef97c51795bc5bf3",
}


def _digests(root):
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_g1_reports_match_golden_digests(tmp_path):
    assert run("bounds", "--game", "g1", "--out", str(tmp_path / "bounds")) == 0
    assert run("converge", "--game", "g1", "--h", "0.1", "0.05",
               "--out", str(tmp_path / "mesh")) == 0
    assert run("converge", "--game", "g1", "--h", "0.1", "--sigma", "0.3", "0.2",
               "--out", str(tmp_path / "sigma")) == 0
    assert _digests(tmp_path) == GOLDEN_G1_REPORTS


def test_g1_outputs_match_golden_digests(tmp_path):
    chain, visc = tmp_path / "chain", tmp_path / "visc"
    assert run("solve", "--game", "g1", "--out", str(chain)) == 0
    assert run("solve", "--game", "g1", "--sigma", "0.2", "--out", str(visc)) == 0
    assert run("simulate", "--game", "g1", "--replicas", "200",
               "--partition-diam", "0.05", "--out", str(chain)) == 0
    assert _digests(tmp_path) == GOLDEN_G1



# sha256 of every file a g1 simulate with trajectory dumps writes: three
# replicas of each of the four adversaries and the verdict table, as produced
# when each dump was its own engine run
GOLDEN_G1_DUMPS = {
    "simulate.csv": "be14a103c97cc9443c7db6216737ffef089970bd41f579fd3bd7e69bb8261120",
    "trajectory_bang_bang_0.csv": "e0e16f3d8f4ef37bd9f63967def54674d930733332b58332d6c8ef2ebe269230",
    "trajectory_bang_bang_1.csv": "df1535ab27336fcac2931c26948815f5b90d62af46329bbe40b5d4d780be5a30",
    "trajectory_bang_bang_2.csv": "a0429d1753ae1109e582507bf63c54459433aa26d0895c32e9ec1884179e8b46",
    "trajectory_constant_0.csv": "ae6156ddb0dbae1a51e82e04ebd6c22fef9c03131e66e2c6ad35de03dd66b3d9",
    "trajectory_constant_1.csv": "2fe4a313dc9555ebaf3b87d3911e6b50c0b08c334955161ef4b48904a52ff631",
    "trajectory_constant_2.csv": "c6446e6a2a06dd136ec903b72a1b00fc98889699b038548899a89d9ebedb0f3f",
    "trajectory_random_0.csv": "5960fc3700cae59c8f3e1816673750fca99580e73ff069755254dc052a2ced0e",
    "trajectory_random_1.csv": "f951f751e54c6012c4070deca92f75376b031bcc5476a4cdda8cecc645b26bc8",
    "trajectory_random_2.csv": "03b75cfd314063565dfa1811cab3bb2856e59a1b64005d03c2c56bf74edda55e",
    "trajectory_worst_case_0.csv": "5ca9a8e2653215cfd3706c839b5e3a23d28693d0374a51a987eac07cbcb5e165",
    "trajectory_worst_case_1.csv": "764102b1d45bc504152e6f10906c0ce6c41528441d067deaff9ec01fa922d0ca",
    "trajectory_worst_case_2.csv": "430c6ad8cd6539aa5fc7e55c8f0ec8fb0468f0a94360e0b9124085cada41f7d8",
}


def test_g1_dumps_match_golden_digests(tmp_path):
    assert run("solve", "--game", "g1", "--h", "0.05", "--out", str(tmp_path)) == 0
    solved = set(_digests(tmp_path))
    assert run("simulate", "--game", "g1", "--h", "0.05", "--replicas", "50",
               "--partition-diam", "0.02", "--dump-trajectories", "3",
               "--out", str(tmp_path)) == 0
    written = {k: v for k, v in _digests(tmp_path).items() if k not in solved}
    assert written == GOLDEN_G1_DUMPS

# sha256 of the g1 files whose names carry both an _h and an _s tag, of the
# lower-value files, and of a lower-value converge report, as produced before
# solve and converge chose the model in one place
GOLDEN_G1_MODEL_FILES = {
    "converge/converge.csv": "d560fa044d0dc3a720316d698bf4373c8c95ae17e968a96ebc6f531185a550ae",
    "lower/bounds_h0.05.json": "ea25fe32ee4310b67ba42184e55942f9ac5d2486820a591e473c05fb340f78d5",
    "lower/bounds_h0.1.json": "64d92a1f80225264de2ab519f982d4a55460fe758760299e93559992f802bff0",
    "lower/eta_lower_t0_h0.05.csv": "a3caeeacbb7b34b7cc3c59c8a7e838c8878f429cd4be2eb11fb420550d63caa1",
    "lower/eta_lower_t0_h0.1.csv": "4c1a1aaad0112ca4aa01b73b8533f4122626943ba4a36dcdfa07461cec3efe51",
    "visc/bounds_h0.05_s0.2.json": "432ddeb2b15c711aef42ef0d2d25dbddd8be3d9180c102a5531ad1bf3e895284",
    "visc/bounds_h0.05_s0.3.json": "1425e26fabad82145be1ea3c520e2115edb2e61c627920c6680ccb2555cb6682",
    "visc/bounds_h0.1_s0.2.json": "32874d299a1a33d11f6e5edbec45929bdeaaad75c225b5f04924beab64c2ffad",
    "visc/bounds_h0.1_s0.3.json": "175dac57a6b482bebdf5d01ee8add071f7bcf10ab9e3469cadc1183b1600cce6",
    "visc/psi_upper_t0.5_h0.05_s0.2.csv": "0eef4ee2adb4c41c3a40e1faf2a1e6d258219c824da178df1f2aaadb80c63b2f",
    "visc/psi_upper_t0.5_h0.05_s0.3.csv": "a0871983c06ba65c31813e35ed8cf04a3206f8bc1ca19a3a20d11771a9e57aa0",
    "visc/psi_upper_t0.5_h0.1_s0.2.csv": "cc359138e4526da86d76debe07165dfc38c55beb0887bb9462add64bf68e224e",
    "visc/psi_upper_t0.5_h0.1_s0.3.csv": "caaae7c7523993eb90a41bb20c40ad15d691662ce3679f5eae25ba5289858373",
    "visc/psi_upper_t0_h0.05_s0.2.csv": "20e22d852111f93688298e4792dcf693b928a7494876a9463f826a4596ab001d",
    "visc/psi_upper_t0_h0.05_s0.3.csv": "6ab3feb47de6406b74a5cd17e7af893808c3982a8cb89e3c3c5cd37ce22b3bf4",
    "visc/psi_upper_t0_h0.1_s0.2.csv": "0834356f1adf5f32c23a17fb6852c1bfab8de91053399b2d05ebac520fe9fae2",
    "visc/psi_upper_t0_h0.1_s0.3.csv": "98d69ee00fa3aa6db310b9f14f947711e08f4f39efa0f460b4d9e5611460da1e",
}


def test_g1_model_files_match_golden_digests(tmp_path):
    assert run("solve", "--game", "g1", "--h", "0.1", "0.05", "--sigma", "0.2", "0.3",
               "--checkpoints", "0", "0.5", "--out", str(tmp_path / "visc")) == 0
    assert run("solve", "--game", "g1", "--kind", "lower", "--h", "0.1", "0.05",
               "--out", str(tmp_path / "lower")) == 0
    assert run("converge", "--game", "g1", "--kind", "lower", "--h", "0.1", "0.05",
               "--out", str(tmp_path / "converge")) == 0
    assert _digests(tmp_path) == GOLDEN_G1_MODEL_FILES


def test_solve_rejects_a_dt_whose_grid_misses_a_checkpoint(tmp_path, capsys):
    # the grid 1 - k*0.015 holds 0.01 and -0.005, not 0: exit 2 before any sweep
    out = tmp_path / "out"
    assert run("solve", "--game", "g1", "--h", "0.05", "--dt-policy", "0.015",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "checkpoint 0 lies between the grid times -0.005 and 0.01 of dt=0.015" in err
    assert not list(out.glob("*"))
    # so does a grid that tiles [0, T] but misses another checkpoint
    assert run("solve", "--game", "g1", "--h", "0.05", "--dt-policy", "0.01",
               "--checkpoints", "0", "0.555", "--out", str(out)) == 2
    assert ("checkpoint 0.555 lies between the grid times 0.55 and 0.56 of dt=0.01"
            in capsys.readouterr().err)
    assert not list(out.glob("*"))
    assert run("solve", "--game", "g1", "--h", "0.05", "--dt-policy", "0.01",
               "--checkpoints", "0", "0.55", "--out", str(out)) == 0
    assert (out / "eta_upper_t0.55.csv").exists()


@pytest.mark.parametrize("model, grid", [
    # auto dt = 1/60 tiles [0, 1] under h/(2*d*M1) = 1/60
    ([], "the grid times 0.55 and 0.566667 of dt=0.0166667"),
    # auto dt = 1/32 tiles [0, 1] under the CFL ceiling 1/(2*(M1/h + sigma^2/h^2))
    (["--h", "0.1", "--sigma", "0.1"], "the grid times 0.53125 and 0.5625 of dt=0.03125"),
], ids=["chain", "viscous"])
def test_solve_rejects_a_checkpoint_off_the_auto_grid(tmp_path, capsys, model, grid):
    out = tmp_path / "out"
    assert run("solve", "--game", "g1", "--h", "0.05", *model, "--checkpoints", "0", "0.555",
               "--out", str(out)) == 2
    assert f"checkpoint 0.555 lies between {grid}" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_converge_sweep_rejects_a_checkpoint_below_zero(tmp_path, capsys):
    # converge records t=0 from the sweep itself, which refuses a grid that misses it
    assert run("converge", "--game", "g1", "--h", "0.1", "--dt-policy", "0.015",
               "--out", str(tmp_path)) == 2
    assert ("checkpoint 0 lies between the grid times -0.005 and 0.01 of dt=0.015; choose a "
            "dt whose grid T - k*dt holds every checkpoint") in capsys.readouterr().err
    assert not (tmp_path / "converge.csv").exists()


@pytest.mark.parametrize("model, name", [
    ([], "eta_upper_t1.csv"), (["--sigma", "0.1"], "psi_upper_t1_s0.1.csv"),
], ids=["chain", "viscous"])
def test_solve_writes_a_lone_checkpoint_at_the_horizon(tmp_path, model, name):
    # a first checkpoint at T tiles no span: the auto dt tiles [0, T] instead
    argv = ("solve", "--game", "g1", "--h", "0.1", *model)
    assert run(*argv, "--checkpoints", "1", "--out", str(tmp_path / "T")) == 0
    assert run(*argv, "--out", str(tmp_path / "0")) == 0
    grid, meta = read_slice_csv(tmp_path / "T" / name, 0.1)
    assert grid.t == 1.0
    assert np.array_equal(grid.values, payoff_batch(g1(), grid.domain.states()))
    assert meta["dt"] == read_slice_meta(tmp_path / "0" / name.replace("t1", "t0"))["dt"]


def test_solve_refuses_a_checkpoint_beyond_the_horizon(tmp_path, capsys):
    assert run("solve", "--game", "g1", "--checkpoints", "2", "--out", str(tmp_path)) == 2
    assert "checkpoints must lie in [0, 1.0]" in capsys.readouterr().err


# each fails in the rows of the last of three blocks of axis-0 slabs ("drift"
# in the others too, at the infinite rate |f|/h where |x + 1| > 0.18);
# per game: the JSON, --pad, the exit code and the start of the message
FAILING_GAMES = {
    # 2 x1 + 1.5 outruns M1 where x1 > 1.25: the Euler step is not monotone
    "monotone": ({"d": 2, "T": 1.0, "u_grid": [0], "v_grid": [0], "payoff": {"kind": "norm"},
                  "drift": {"kind": "affine", "a": [[2, 0], [0, 0]], "bu": [[0], [0]],
                            "bv": [[0], [0]], "c": [1.5, 0]},
                  "R": 1.0, "M1": 1.0, "K1": 2.0}, "0.5", 2, "total jump rate 45 times dt=0.025"),
    # 1e308 x + 1e308 overflows where x > 0.797
    "drift": ({"d": 1, "T": 1.0, "u_grid": [0], "v_grid": [0], "payoff": {"kind": "norm"},
               "drift": {"kind": "affine", "a": [[1e308]], "bu": [[0]], "bv": [[0]],
                         "c": [1e308]},
               "R": 1.0, "M1": 1.0, "K1": 1e308}, "0.5", 2, "drift not finite at t=1.0, x=[0.8"),
    # the generator (x + 1) * 1e308 overflows where x > 0.797; the step is monotone
    "range": ({"d": 1, "T": 1.0, "u_grid": [0], "v_grid": [0],
               "payoff": {"kind": "linear", "a": [1e308]},
               "drift": {"kind": "affine", "a": [[1]], "bu": [[0]], "bv": [[0]], "c": [1]},
               "R": 1e308, "M1": 1.5, "K1": 1.0}, "0", 3, "values at t=0.966667 leave the"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", list(FAILING_GAMES))
def test_block_sweep_failures_keep_their_exit_codes(tmp_path, capsys, name):
    data, pad, code, message = FAILING_GAMES[name]
    game = tmp_path / f"{name}.json"
    game.write_text(json.dumps(data))
    argv = ("solve", "--game", str(game), "--h", "0.1", "--pad", pad, "--out", str(tmp_path))
    assert run(*argv) == code
    one = capsys.readouterr().err
    assert message in one
    with forced_blocks(3):
        assert run(*argv) == code
    assert capsys.readouterr().err == one
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
