"""Package surface: the names ``latticegames`` exports, and the README's examples."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latticegames as lg
from latticegames import chain, cli, games, simulate, solver, viscous

# reference oracles the package never runs live in tests/oracles.py;
# the rest had no caller but the tests, or folded into solver._schedule
TEST_ONLY = {
    lg: ("IsaacsReport", "apply_generator", "auto_cfl_dt", "auto_dt", "check_isaacs", "chi",
         "eval_drift", "eval_payoff", "jump_measure", "neighbor_tables", "viscosity_gap",
         "weighted_norm"),
    chain: ("apply_generator", "chi", "jump_measure", "neighbor_tables"),
    games: ("IsaacsReport", "_ISAACS_BOX", "_check_control", "_check_state", "_check_time",
            "check_isaacs", "eval_drift", "eval_payoff"),
    solver: ("_CEILING_NAME", "_block_stepper", "_checkpoint_steps", "_euler_end", "_minimax",
             "_off_grid", "_range_check", "_resolve_dt", "_snapped_steps", "auto_dt",
             "weighted_norm"),
    viscous: ("_CEILING_NAME", "_laplacian", "auto_cfl_dt", "viscosity_gap"),
    cli: ("_sweep_dt",),
    chain.LatticeDomain: ("contains_state", "lattice_of", "state_of"),
    simulate.ChainPath: ("final_state",),
    solver.SolveResult: ("boundary",),
}


def test_every_exported_name_resolves():
    # a stale entry in __all__ fails only on `from latticegames import *`
    missing = [name for name in lg.__all__ if not hasattr(lg, name)]
    assert missing == []
    assert len(set(lg.__all__)) == len(lg.__all__)


@pytest.mark.parametrize("owner", list(TEST_ONLY), ids=lambda o: o.__name__)
def test_test_only_names_are_gone(owner):
    names = TEST_ONLY[owner]
    # a dataclass field without a default is no class attribute
    fields = getattr(owner, "__dataclass_fields__", {})
    assert [name for name in names if hasattr(owner, name) or name in fields] == []
    assert set(names).isdisjoint(getattr(owner, "__all__", ()))


def test_the_sweep_takes_no_step_hook():
    # the viscous step is the sweep's own, chosen by sigma
    params = inspect.signature(solver._sweep).parameters
    assert "sigma" in params and not {"finish", "extra_rate"} & set(params)


def test_every_readme_python_block_runs_on_its_own(tmp_path):
    readme = Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    env = dict(os.environ, PYTHONPATH=str(Path(lg.__file__).parents[1]))
    for block in blocks:
        run = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, (block, run.stderr)
