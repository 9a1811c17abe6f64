"""Command-line front end: files, metadata, exit codes, reproducibility."""

import hashlib
import json

import pytest

from latticegames.cli import config_sha256, main
from latticegames.solver import read_slice_csv


def run(*argv):
    return main(list(argv))


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


def test_converge_single_h_has_no_order(tmp_path):
    code = run("converge", "--game", "g1", "--out", str(tmp_path), "--h", "0.1")
    assert code == 0
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert len(lines) == 6
    assert lines[5].endswith(",true,")


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
    # matching metadata but a different value at x0 fails the cross-check
    path = g1_dir / "eta_upper_t0.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("0,0,"))
    lines[row] = "0,0,0.5"
    path.write_text("\n".join(lines) + "\n")
    assert run("simulate", "--game", "g1", "--out", str(g1_dir), "--replicas", "10") == 2
    assert "holds 0.5 at x0" in capsys.readouterr().err
    assert not (g1_dir / "simulate.csv").exists()


def test_simulate_rejects_lower_kind(tmp_path, capsys):
    assert run("simulate", "--game", "g1", "--out", str(tmp_path), "--kind", "lower",
               "--replicas", "10") == 2
    assert "--kind must be 'upper'" in capsys.readouterr().err


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
    game.write_text(json.dumps({
        "d": 1, "T": "abc", "drift": {"kind": "control_sum"}, "u_grid": [0], "v_grid": [1],
        "payoff": {"kind": "norm"}, "R": 1, "M1": 1, "K1": 0}))
    assert run("solve", "--game", str(game), "--out", str(tmp_path)) == 2
    assert "malformed game definition" in capsys.readouterr().err


def test_config_value_of_wrong_type_is_a_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    for bad in ({"replicas": "ten"}, {"h": ["a"]}, {"h": 0.1}, {"pad": [1]}):
        cfg_file.write_text(json.dumps({"game": "g1", **bad}))
        assert run("bounds", "--config", str(cfg_file), "--out", str(tmp_path)) == 2
        assert "wrong type" in capsys.readouterr().err


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


def test_g1_outputs_match_golden_digests(tmp_path):
    chain, visc = tmp_path / "chain", tmp_path / "visc"
    assert run("solve", "--game", "g1", "--out", str(chain)) == 0
    assert run("solve", "--game", "g1", "--sigma", "0.2", "--out", str(visc)) == 0
    assert run("simulate", "--game", "g1", "--replicas", "200",
               "--partition-diam", "0.05", "--out", str(chain)) == 0
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert got == GOLDEN_G1
