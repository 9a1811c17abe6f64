"""Backward minimax sweeps: stability, monotonicity, anchors, CSV round trip."""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latticegames as lg
from latticegames import cli, solver
from latticegames.chain import LatticeDomain
from latticegames.errors import MonotoneStepError
from latticegames.games import game_from_dict, payoff_norm
from latticegames.solver import (ValueGrid, dt_ceiling,
                                 feedback_table, hamiltonian_field, read_slice_csv,
                                 solve_backward, truncate_domain, write_slice_csv)
from oracles import apply_generator, forced_blocks, neighbor_tables, solve_rk4, weighted_norm


def g1_domain(h=0.1, lo=-20, hi=20):
    return LatticeDomain(h=h, lo=(lo,), hi=(hi,))


def terminal_grid(spec, domain):
    vals = np.array([spec.payoff(x) for x in domain.states()])
    return ValueGrid(t=spec.T, domain=domain, values=vals)


def upper_argmin(values, spec, t, dom):
    """Lowest u index attaining min_u max_v of the generator, at every point."""
    index = np.empty(dom.n_points, dtype=np.intp)
    rates = solver._pair_rates(spec, t, dom.states(), dom.h)
    hamiltonian_field(values, spec, t, dom, "upper", rates=rates, index=index)
    return index


def test_dt_ceiling_formula():
    assert dt_ceiling(lg.g1(), 0.1) == pytest.approx(0.1 / 3.0)
    assert dt_ceiling(lg.g2(), 0.1) == pytest.approx(0.1 / 18.0)


def tiling_dt(spec, h):
    """The dt a chain sweep down to t=0 takes when none is given."""
    return solver._schedule(spec, h, None, None, None)[0]


def test_auto_dt_tiles_horizon():
    spec = lg.g1()
    dt, steps = solver._schedule(spec, 0.05, None, None, None)
    n = spec.T / dt
    assert abs(n - round(n)) < 1e-9
    assert dt <= dt_ceiling(spec, 0.05) * (1 + 1e-9)
    # no checkpoints: every step down to the checkpoint 0
    assert steps == range(round(n) + 1)


def test_a_dense_sweep_ends_at_t0():
    spec = lg.g1()
    dom = g1_domain()
    # auto, and given dt whose grids tile [0, T] up to rounding
    for dt in (None, 0.02, 0.025, 1 / 48):
        for res in (solve_backward(spec, dom, dt=dt), solve_rk4(spec, dom, dt=dt),
                    lg.solve_viscous(spec, dom, 0.1, dt=dt)):
            assert abs(res.slices[-1].t) <= solver._TIME_FUZZ
            assert res.times.min() >= -solver._TIME_FUZZ
            assert len(res.slices) == round(spec.T / res.dt) + 1
    table = feedback_table(spec, dom, dt=0.025)
    assert abs(table.times[0]) <= solver._TIME_FUZZ and table.value0.t == table.times[0]


def test_a_dt_that_does_not_tile_the_horizon_is_refused_by_every_sweep():
    # T - k*0.013 steps over 0: 0.012 at k=76, then -0.001
    spec = lg.g1()
    dom = truncate_domain(spec, [-1.0, 1.0], 0.05)
    sweeps = [lambda: solve_backward(spec, dom, dt=0.013),
              lambda: solve_backward(spec, dom, dt=0.013, checkpoints=[0.0]),
              lambda: feedback_table(spec, dom, dt=0.013),
              lambda: solve_rk4(spec, dom, dt=0.013)]
    messages = set()
    for sweep in sweeps:
        with pytest.raises(lg.GameSpecError) as info:
            sweep()
        messages.add(str(info.value))
    assert messages == {"checkpoint 0 lies between the grid times -0.001 and 0.012 of "
                        "dt=0.013; choose a dt whose grid T - k*dt holds every checkpoint"}
    # the viscous sweep follows the same rule: 0.007 steps from 0.006 to -0.001
    box = truncate_domain(spec, [-1.0, 1.0], 0.1)
    with pytest.raises(lg.GameSpecError, match="checkpoint 0 lies between the grid times "
                                               "-0.001 and 0.006 of dt=0.007; choose a dt"):
        lg.solve_viscous(spec, box, 0.1, dt=0.007)


def test_truncate_domain_reaches_everything():
    spec = lg.g1()
    dom = truncate_domain(spec, [-1.0, 1.0], 0.1)
    # radius M1*T + pad = 2 around [-1, 1]
    assert dom.lo == (-30,) and dom.hi == (30,)


def test_truncate_domain_budget():
    spec = lg.g2()
    with pytest.raises(lg.ResourceError):
        # 10 001^2 points at h=0.001, over the 4 000 000-point budget
        truncate_domain(spec, [[0.0, 0.0], [0.0, 0.0]], 0.001)


def test_weighted_norm_spike():
    dom = LatticeDomain(h=0.5, lo=(-4,), hi=(4,))
    vals = np.zeros(dom.n_points)
    vals[-1] = 5.0  # at x = 2.0
    grid = ValueGrid(t=0.0, domain=dom, values=vals)
    assert weighted_norm(grid) == pytest.approx(2.0)


def test_hamiltonian_anchor_on_distance_slice():
    # on values |x| away from the kink the upper Hamiltonian is -0.5:
    # the minimiser pushes toward the origin at net speed 0.5
    spec = lg.g1()
    dom = g1_domain()
    field = hamiltonian_field(terminal_grid(spec, dom).values, spec, 1.0, dom, "upper")
    assert field[dom.index_of_state([0.5])] == pytest.approx(-0.5)
    assert field[dom.index_of_state([-0.7])] == pytest.approx(-0.5)
    # at the kink both neighbours rise, so even the best control pays 0.5
    assert field[dom.index_of_state([0.0])] == pytest.approx(0.5)


def test_lower_kind_differs_by_commitment_order():
    # coupled drift u*v: committing first is a disadvantage
    spec = lg.GameSpec(
        name="coupled", d=1, T=1.0,
        drift=lambda t, x, u, v: np.array([u * v]),
        u_grid=(-1.0, 1.0), v_grid=(-1.0, 1.0),
        payoff=lambda x: abs(float(np.atleast_1d(x)[0])),
        R=1.0, M1=1.0, K1=0.0)
    dom = LatticeDomain(h=0.1, lo=(-30,), hi=(30,))
    vals = np.abs(dom.states()[:, 0])
    up = hamiltonian_field(vals, spec, 1.0, dom, "upper")
    lo = hamiltonian_field(vals, spec, 1.0, dom, "lower")
    assert np.all(lo <= up + 1e-14)
    assert np.any(lo < up - 1e-9)


def test_minimax_control_indices_anchor():
    # to the right of the origin the first player chooses u = -1 (index 0)
    spec = lg.g1()
    dom = g1_domain()
    grid = terminal_grid(spec, dom)
    right = dom.index_of_state(np.array([0.8]))
    left = dom.index_of_state(np.array([-0.8]))
    assert upper_argmin(grid.values, spec, 1.0, dom)[[right, left]].tolist() == [0, 2]


AFFINE_GAME = {
    "d": 2, "T": 1.0,
    "drift": {"kind": "affine", "a": [[0.3, 1.0], [-1.0, 0.2]], "bu": [[1.0], [0.5]],
              "bv": [[0.2], [1.0]], "c": [0.1, -0.3]},
    "u_grid": [-1, 0, 1], "v_grid": [-1, 1], "payoff": {"kind": "norm"},
    "R": 1.0, "M1": 6.0, "K1": 1.5,
}


def generator_tables(values, spec, t, dom):
    """Per interior point, the (u, v) table of ``apply_generator``."""
    def lookup(y):
        return values[dom.index_of_state(y)]

    _, _, interior = neighbor_tables(dom)
    points = np.flatnonzero(interior)
    states = dom.states()
    tables = np.array([[[apply_generator(lookup, spec, t, states[i], u, v, dom.h)
                         for v in spec.v_grid] for u in spec.u_grid] for i in points])
    return points, tables


@pytest.mark.parametrize("spec, dom, rtol", [
    (lg.g1(), g1_domain(), 0.0),
    (lg.g2(), LatticeDomain(h=0.1, lo=(-8, -8), hi=(8, 8)), 0.0),
    # the affine drift sums A x in a fixed order, so a batch row equals a single point
    (game_from_dict(AFFINE_GAME, name="affine"), LatticeDomain(h=0.1, lo=(-6, -6), hi=(6, 6)), 0.0),
], ids=["g1", "g2", "affine"])
def test_hamiltonian_field_matches_generator_reference(spec, dom, rtol):
    values = np.random.default_rng(3).normal(size=dom.n_points)
    t = 0.37
    points, tables = generator_tables(values, spec, t, dom)
    refs = {"upper": tables.max(axis=2).min(axis=1), "lower": tables.min(axis=1).max(axis=1)}
    for kind, ref in refs.items():
        field = hamiltonian_field(values, spec, t, dom, kind)[points]
        assert np.all(np.abs(field - ref) <= rtol * np.maximum(1.0, np.abs(ref))), kind
    idxs = upper_argmin(values, spec, t, dom)[points]
    assert np.array_equal(idxs, np.argmin(tables.max(axis=2), axis=1))



@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shape=st.lists(st.sampled_from([1, 2, 3, 7]), min_size=1, max_size=3),
       seed=st.integers(0, 2**16))
def test_stride_differences_equal_the_table_gather(shape, seed):
    # the kernel's stride rule against neighbor_tables, bit for bit, faces included
    dom = LatticeDomain(h=0.5, lo=(0,) * len(shape), hi=tuple(k - 1 for k in shape))
    values = np.random.default_rng(seed).normal(size=dom.n_points)
    d_up, d_down = np.full((2, dom.d, dom.n_points), np.nan)
    solver._neighbor_diffs(values, dom.shape, d_up, d_down)
    up, down, _ = neighbor_tables(dom)
    assert d_up.tobytes() == (np.take(values, up) - values).tobytes()
    assert d_down.tobytes() == (np.take(values, down) - values).tobytes()


@pytest.mark.parametrize("spec, dom", [
    (lg.g1(), g1_domain()),
    (lg.g2(), LatticeDomain(h=0.1, lo=(-8, -8), hi=(8, 8))),
    # u + v = 0 for the pair (0, 0): zero rates times negative differences
    (game_from_dict({"d": 1, "T": 1.0, "drift": {"kind": "control_sum"},
                     "u_grid": [0, 1], "v_grid": [0], "payoff": {"kind": "norm"},
                     "R": 1.0, "M1": 1.0, "K1": 0.0}, name="still"), g1_domain()),
], ids=["g1", "g2", "zero-drift-pair"])
def test_hamiltonian_field_holds_no_negative_zero(spec, dom):
    # a generator summed from +0.0 is never -0.0; the field keeps those bytes
    values = np.random.default_rng(11).normal(size=dom.n_points)
    for kind in ("upper", "lower"):
        field = hamiltonian_field(values, spec, 0.5, dom, kind)
        assert not np.any((field == 0) & np.signbit(field)), kind


def test_kernel_results_survive_later_calls_on_the_same_rates():
    # the rates carry the kernel's work arrays: a result must not alias them,
    # because RK4 keeps four results alive across calls
    spec = lg.g2()
    dom = LatticeDomain(h=0.1, lo=(-8, -8), hi=(8, 8))
    rates = solver._pair_rates(spec, spec.T, dom.states(), dom.h)
    first_values, second_values = np.random.default_rng(5).normal(size=(2, dom.n_points))
    for kind in ("upper", "lower"):
        first = hamiltonian_field(first_values, spec, 1.0, dom, kind, rates=rates)
        kept = first.copy()
        second = hamiltonian_field(second_values, spec, 1.0, dom, kind, rates=rates)
        assert np.array_equal(first, kept), kind
        assert not np.array_equal(first, second), kind
        assert np.array_equal(second, hamiltonian_field(second_values, spec, 1.0, dom, kind))
    # the committing player's index on shared rates equals the one on fresh rates
    first, second = np.empty((2, dom.n_points), dtype=np.intp)
    hamiltonian_field(first_values, spec, 1.0, dom, "upper", rates=rates, index=first)
    hamiltonian_field(second_values, spec, 1.0, dom, "upper", rates=rates, index=second)
    assert np.array_equal(first, upper_argmin(first_values, spec, 1.0, dom))
    assert np.array_equal(second, upper_argmin(second_values, spec, 1.0, dom))


def test_solve_preserves_constants():
    spec = lg.GameSpec(name="const", d=1, T=1.0, drift=lg.g1().drift,
                       u_grid=(-1.0, 0.0, 1.0), v_grid=(-0.5, 0.0, 0.5),
                       payoff=lambda x: 3.25, R=1.0, M1=1.5, K1=0.0,
                       vectorized=True)
    dom = g1_domain()
    res = solve_backward(spec, dom, checkpoints=[0.0])
    assert np.all(res.slice_at(0.0).values == 3.25)


def test_solve_monotone_in_terminal_data():
    # comparison principle: a larger payoff gives a larger value slice
    base = lg.g1()
    norm = payoff_norm()
    bigger = lg.GameSpec(name="g1+", d=1, T=1.0, drift=base.drift,
                         u_grid=base.u_grid, v_grid=base.v_grid,
                         payoff=lambda x: norm(x) + 0.3,
                         R=1.3, M1=1.5, K1=0.0, vectorized=True)
    dom = g1_domain()
    a = solve_backward(base, dom, checkpoints=[0.0]).slice_at(0.0)
    b = solve_backward(bigger, dom, checkpoints=[0.0]).slice_at(0.0)
    assert np.all(b.values >= a.values - 1e-12)


def test_solve_range_preserved():
    spec = lg.g1()
    dom = g1_domain()
    res = solve_backward(spec, dom, checkpoints=None)
    g = res.slice_at(spec.T).values
    for grid in res.slices:
        assert grid.values.min() >= g.min() - 1e-12
        assert grid.values.max() <= g.max() + 1e-12


def test_solve_dt_above_ceiling_rejected():
    spec = lg.g1()
    dom = g1_domain()
    with pytest.raises(lg.StepSizeError, match="stability ceiling"):
        solve_backward(spec, dom, dt=0.5)


@pytest.mark.parametrize("x0_box, h, pad, message", [
    ([np.nan, 0.0], 0.05, 0.5, "x0_box must be finite"),
    ([np.inf, 0.0], 0.05, 0.5, "x0_box must be finite"),
    ([0.0, 0.0], 0.05, np.nan, "pad must be finite and >= 0, got nan"),
    ([0.0, 0.0], 0.05, np.inf, "pad must be finite and >= 0, got inf"),
    ([0.0, 0.0], np.nan, 0.5, "mesh h must be positive, got nan"),
], ids=["x0-nan", "x0-inf", "pad-nan", "pad-inf", "h-nan"])
def test_truncate_domain_refuses_non_finite_input(x0_box, h, pad, message):
    with pytest.raises(lg.GameSpecError, match=message):
        truncate_domain(lg.g2(), x0_box, h, pad=pad)


def test_a_nan_dt_or_checkpoint_is_refused():
    spec = lg.g1()
    dom = g1_domain()
    with pytest.raises(lg.GameSpecError, match="dt must be positive, got nan"):
        solve_backward(spec, dom, dt=float("nan"))
    with pytest.raises(lg.GameSpecError, match=r"checkpoints must lie in \[0, 1.0\]"):
        solve_backward(spec, dom, checkpoints=[0.0, float("nan"), 1.0])


def test_an_off_grid_checkpoint_is_refused():
    spec = lg.g1()
    dom = g1_domain()
    # 0.55 is not on the grid T - k*0.02: no slice is recorded at 0.54 in its place
    with pytest.raises(lg.GameSpecError, match="checkpoint 0.55 lies between the grid times "
                                               "0.54 and 0.56 of dt=0.02"):
        solve_backward(spec, dom, dt=0.02, checkpoints=[0.0, 0.55, 1.0])
    res = solve_backward(spec, dom, dt=0.02, checkpoints=[0.0, 0.54, 1.0])
    assert set(np.round(res.times, 10)) == {0.0, 0.54, 1.0}
    assert res.slice_at(0.54).t == pytest.approx(0.54)
    # a checkpoint within _TIME_FUZZ of a grid time, on either side, is that time
    for c in (0.55 - 5e-10, 0.55 + 5e-10):
        res = solve_backward(spec, dom, dt=0.01, checkpoints=[0.0, c])
        assert res.slice_at(c).t == spec.T - 45 * 0.01


def test_every_sweep_refuses_an_off_grid_checkpoint_with_one_message(tmp_path, capsys):
    spec = lg.g1()
    dom = truncate_domain(spec, [-1.0, 1.0], 0.1)
    message = ("checkpoint 0.55 lies between the grid times 0.54 and 0.56 of dt=0.02; "
               "choose a dt whose grid T - k*dt holds every checkpoint")
    for sweep in (solve_backward, solve_rk4, lambda *a, **k: lg.solve_viscous(*a, 0.1, **k)):
        with pytest.raises(lg.GameSpecError) as info:
            sweep(spec, dom, dt=0.02, checkpoints=[0.0, 0.55])
        assert str(info.value) == message
    assert cli.main(["solve", "--game", "g1", "--h", "0.1", "--dt-policy", "0.02",
                     "--checkpoints", "0", "0.55", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_a_lone_checkpoint_at_the_horizon_takes_the_auto_dt():
    spec = lg.g1()
    dom = g1_domain()
    res = solve_backward(spec, dom, checkpoints=[spec.T])
    # the ceiling 0.1/3 tiles [0, T] in 30 steps
    assert res.dt == spec.T / 30 == tiling_dt(spec, dom.h)
    assert res.times.tolist() == [spec.T]
    assert np.array_equal(res.slice_at(spec.T).values, terminal_grid(spec, dom).values)


def test_slice_at_missing_time_raises():
    spec = lg.g1()
    dom = g1_domain()
    res = solve_backward(spec, dom, checkpoints=[0.0])
    with pytest.raises(lg.TruncationError):
        res.slice_at(0.37)


def test_rk4_close_to_euler():
    spec = lg.g1()
    dom = g1_domain()
    a = solve_backward(spec, dom, dt=0.002, checkpoints=[0.0]).slice_at(0.0)
    b = solve_rk4(spec, dom, dt=0.002, checkpoints=[0.0]).slice_at(0.0)
    assert np.max(np.abs(a.values - b.values)) < 5e-3


def test_upper_equals_lower_under_isaacs():
    spec = lg.g1()
    dom = g1_domain()
    up = solve_backward(spec, dom, kind="upper", checkpoints=[0.0]).slice_at(0.0)
    lo = solve_backward(spec, dom, kind="lower", checkpoints=[0.0]).slice_at(0.0)
    assert np.max(np.abs(up.values - lo.values)) <= 1e-12


def _late_push_game() -> lg.GameSpec:
    def drift(t, x, u, v):
        # motionless until t = 0.5, then a push up that carries the upper face out
        return np.full_like(np.asarray(x, dtype=float), 1.0 if t < 0.5 else 0.0)

    return lg.GameSpec(name="late_push", d=1, T=1.0, drift=drift, u_grid=(0.0,),
                       v_grid=(0.0,), payoff=payoff_norm(), R=1.0, M1=1.0, K1=0.0,
                       vectorized=True)


def test_time_dependent_drift_rebuilds_rates_per_step():
    spec = _late_push_game()
    dom = g1_domain()
    moved = solve_backward(spec, dom, checkpoints=[0.0]).slice_at(0.0).values
    g = terminal_grid(spec, dom).values
    assert not np.array_equal(moved, g)
    # half a unit of upward transport: the value at -0.5 approaches |0|
    assert moved[dom.index_of_state([-0.5])] < g[dom.index_of_state([-0.5])]



def test_autonomy_declaration_is_spot_checked():
    base = lg.g2()
    scaled = dataclasses.replace(
        base, drift=lambda t, x, u, v: (1.0 + t) * base.drift(t, x, u, v))
    assert scaled.autonomous
    dom = truncate_domain(base, [0.0, 0.0], 0.25)
    for run in (solve_backward, feedback_table, lambda spec, d: lg.solve_viscous(spec, d, 0.1)):
        with pytest.raises(lg.GameSpecError, match="declared autonomous"):
            run(scaled, dom)
    # the checked declarations hold: catalog and JSON games solve as before
    for spec in (lg.g1(), base, game_from_dict(AFFINE_GAME, name="affine")):
        solve_backward(spec, truncate_domain(spec, np.zeros(spec.d), 0.25), checkpoints=[0.0])


def test_non_finite_drift_is_reported_as_such():
    # NaN for x > 0.72: an autonomous solve must not call the drift
    # time-dependent, nor a per-step one ask for a smaller dt
    base = lg.g1()
    broken = dataclasses.replace(
        base, drift=lambda t, x, u, v: np.where(x > 0.72, np.nan, base.drift(t, x, u, v)))
    dom = truncate_domain(base, [0.0], 0.1)
    for spec in (broken, dataclasses.replace(broken, autonomous=False)):
        for run in (solve_backward, feedback_table):
            with pytest.raises(lg.GameSpecError, match=r"drift not finite at t=1.0, x=\[0.8\]"):
                run(spec, dom)


def test_boundary_influence_vanishes_when_pad_doubles():
    # reachability padding keeps the frozen ring outside the reported
    # region's numerical domain of dependence, so doubling the pad must not
    # move any value with max-norm <= 1
    spec = lg.g1()
    a = solve_backward(spec, truncate_domain(spec, [-1.0, 1.0], 0.05, pad=0.5),
                       checkpoints=[0.0]).slice_at(0.0)
    b = solve_backward(spec, truncate_domain(spec, [-1.0, 1.0], 0.05, pad=1.0),
                       checkpoints=[0.0]).slice_at(0.0)
    pts = a.domain.states()
    keep = np.abs(pts[:, 0]) <= 1.0 + 1e-12
    worst = max(abs(a.value_at(x) - b.value_at(x)) for x in pts[keep])
    assert worst <= 1e-12


def test_instability_detector():
    # an anti-dissipative "generator" is emulated by a huge explicit dt on a
    # drift whose declared bound is a lie; the monotone check must fire
    spec = lg.GameSpec(name="lie", d=1, T=1.0,
                       drift=lambda t, x, u, v: np.array([40.0 * np.sign(float(np.atleast_1d(x)[0]) or 1.0)]),
                       u_grid=(0.0,), v_grid=(0.0,),
                       payoff=payoff_norm(),
                       R=1.0, M1=0.1, K1=0.0)
    dom = LatticeDomain(h=0.1, lo=(-40,), hi=(40,))
    with pytest.raises(MonotoneStepError, match="total jump rate 400 times dt=0.5 is 200 > 1"):
        solve_backward(spec, dom)


# rotation_mix with M1 = 1: sum_i |f_i| <= 2 = d*M1 only near the origin; at
# the corner (1.5, -1.5) of the reachable box u = v = -1 gives f = (2.5, -2.5)
FAST_GAME = {"d": 2, "T": 1.0, "drift": {"kind": "rotation_mix"}, "u_grid": [-1, 0, 1],
             "v_grid": [-1, 0, 1], "payoff": {"kind": "norm"}, "R": 1.0, "M1": 1.0, "K1": 0.0}


def test_euler_sweeps_reject_a_step_that_is_not_monotone():
    spec = game_from_dict(FAST_GAME, name="fast")
    dom = truncate_domain(spec, [0.0, 0.0], 0.1)
    where = r" > 1 at x=\[1\.5, -1\.5\] for the control pair u=-1\.0, v=-1\.0: .* M1=1 "
    for run in (solve_backward, feedback_table, lambda s, d: lg.solve_viscous(s, d, 0.0)):
        with pytest.raises(MonotoneStepError,
                           match=r"total jump rate 50 times dt=0\.025 is 1\.25" + where):
            run(spec, dom)
    with pytest.raises(lg.GameSpecError, match=r"total jump rate 58 \(with the Laplacian's 8\) "
                                               r"times dt=0\.0178571 is 1\.03571" + where):
        lg.solve_viscous(spec, dom, 0.2)
    # the check bounds rate * dt, not dt: a smaller step is monotone
    solve_backward(spec, dom, dt=0.02, checkpoints=[0.0])
    feedback_table(spec, dom, dt=0.02)


def test_monotone_check_reads_every_rate_build():
    # a time-dependent drift that outruns its M1 only below t = 0.5
    def drift(t, x, u, v):
        return np.full_like(np.asarray(x, dtype=float), 20.0 if t < 0.5 else 1.0)

    spec = lg.GameSpec(name="late_rush", d=1, T=1.0, drift=drift, u_grid=(0.0,),
                       v_grid=(0.0,), payoff=payoff_norm(), R=1.0, M1=1.0, K1=0.0,
                       vectorized=True)
    dom = g1_domain()
    solve_backward(spec, dom, checkpoints=[0.5])
    with pytest.raises(MonotoneStepError, match="total jump rate 200 times dt=0.05 is 10 > 1"):
        solve_backward(spec, dom, checkpoints=[0.0])


def test_catalog_games_step_monotone_on_their_boxes():
    # g2's M1 holds on [-2, 2]^2 only: on its h=0.05 box the peak, at a corner
    # for u = v = -1, gives rate * dt = 2/3, under 1 but above the ceiling's 1/2
    for spec, h, want in ((lg.g1(), 0.05, 0.5), (lg.g2(), 0.05, 2 / 3)):
        dom = truncate_domain(spec, np.zeros(spec.d), h)
        rates = solver._pair_rates(spec, spec.T, dom.states(), h)
        assert rates.peak_rate * tiling_dt(spec, h) == pytest.approx(want)
        solver._check_monotone(spec, dom.states(), rates, tiling_dt(spec, h))
    p, iu, iv = rates.peak_at
    assert np.abs(dom.states()[p]).tolist() == [5.0, 5.0] and (iu, iv) == (0, 0)


@pytest.mark.parametrize("spec, dom", [
    (lg.g1(), truncate_domain(lg.g1(), [-1.0, 1.0], 0.05)),
    (lg.g2(), truncate_domain(lg.g2(), [0.0, 0.0], 0.1)),
    (game_from_dict(AFFINE_GAME, name="affine"), LatticeDomain(h=0.1, lo=(-6, -6), hi=(6, 6))),
], ids=["g1", "g2", "affine"])
def test_feedback_table_matches_converted_dense_solve(spec, dom):
    table = feedback_table(spec, dom)
    dense = solve_backward(spec, dom)  # every step recorded
    # oracle: the feedback of each recorded slice, in ascending time
    ascending = dense.slices[::-1]
    ref_times = np.array([grid.t for grid in ascending])
    ref_u_index = np.stack([upper_argmin(grid.values, spec, grid.t, dom) for grid in ascending])
    steps = len(dense.slices) - 1
    u_index = table.u_at(np.arange(len(table.times))[:, None], np.arange(dom.n_points))
    assert u_index.dtype == np.uint8
    assert u_index.shape == (steps + 1, dom.n_points)
    assert table.times.tobytes() == ref_times.tobytes()
    assert np.all(np.diff(table.times) > 0)
    assert np.array_equal(u_index, ref_u_index)
    assert table.dt == dense.dt and table.h == dom.h and table.domain == dom
    last = solve_backward(spec, dom, checkpoints=[0.0]).slice_at(0.0)
    assert table.value0.t == last.t == dense.slices[-1].t
    assert np.array_equal(table.value0.values, last.values)


def test_feedback_table_dtype_follows_grid():
    spec = lg.g1()
    many = lg.GameSpec(name="many", d=1, T=1.0, drift=spec.drift,
                       u_grid=tuple(np.linspace(-1.0, 1.0, 300)), v_grid=(0.0,),
                       payoff=spec.payoff, R=1.0, M1=1.0, K1=0.0, vectorized=True)
    table = feedback_table(many, g1_domain(h=0.1, lo=-15, hi=15))
    assert table.u_words.dtype == np.uint16
    assert table.u_words.max() < 300


def nearest_u_game(k):
    """k u controls on [-1, 1] and drift (u - x)^2, so that the minimising u
    follows x and the feedback holds many different indices."""
    return lg.GameSpec(name=f"nearest{k}", d=1, T=0.2, drift=lambda t, x, u, v: (u - x) ** 2,
                       u_grid=tuple(np.linspace(-1.0, 1.0, k)), v_grid=(0.0,),
                       payoff=payoff_norm(), R=1.0, M1=6.25, K1=5.0, vectorized=True)


@pytest.mark.parametrize("k, bits", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 4), (16, 4),
                                     (17, 8), (300, 16)])
def test_packed_feedback_round_trips(k, bits):
    spec = nearest_u_game(k)
    dom = g1_domain(h=0.1, lo=-15, hi=15)  # 31 points: the last word of a row is partial
    table = feedback_table(spec, dom)
    ref = np.stack([upper_argmin(grid.values, spec, grid.t, dom)
                    for grid in solve_backward(spec, dom).slices[::-1]])
    per = max(1, 8 // bits)
    assert table.bits == bits
    assert table.u_words.dtype == (np.uint16 if bits == 16 else np.uint8)
    assert table.u_words.shape == (len(ref), -(-dom.n_points // per))
    assert np.array_equal(table.u_at(np.arange(len(ref))[:, None], np.arange(dom.n_points)), ref)
    rows, points = np.array([0, 1, len(ref) - 1, 2]), np.array([30, 0, 7, 7])
    assert np.array_equal(table.u_at(rows, points), ref[rows, points])
    assert table.u_at(3, 30) == ref[3, 30]
    assert len(np.unique(ref)) >= min(k, 4)


@pytest.fixture(scope="module")
def g2_table():
    spec = lg.g2()
    return feedback_table(spec, truncate_domain(spec, [0.0, 0.0], 0.05))


def test_g2_feedback_table_packs_four_entries_per_byte(g2_table):
    assert g2_table.domain.n_points == 40_401
    assert g2_table.bits == 2
    assert g2_table.u_words.shape == (361, 10_101)
    assert g2_table.u_words.nbytes == 361 * 10_101


def test_slice_read_equals_the_float_parse(g2_table, tmp_path):
    path = tmp_path / "slice.csv"
    write_slice_csv(g2_table.value0, path, {"game": "g2"})
    rows = np.array([[float(tok) for tok in line.split(",")]
                     for line in path.read_text().splitlines()[2:]])
    grid, meta = read_slice_csv(path, 0.05)
    assert meta == {"game": "g2"}
    assert grid.t == rows[0, 0]
    # rows are written in lattice order, which the reader restores
    assert grid.values.tobytes() == rows[:, -1].tobytes()
    assert grid.values.tobytes() == g2_table.value0.values.tobytes()


def test_csv_rejects_repeated_row(tmp_path):
    dom = g1_domain(h=0.25, lo=-2, hi=2)
    path = tmp_path / "slice.csv"
    write_slice_csv(terminal_grid(lg.g1(), dom), path)
    lines = path.read_text().splitlines()
    lines[3] = lines[2]  # the point of row 3 is missing, row 2 appears twice
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(lg.GameSpecError):
        read_slice_csv(path, 0.25)


def test_csv_rejects_malformed_row(tmp_path):
    dom = g1_domain(h=0.25, lo=-2, hi=2)
    path = tmp_path / "slice.csv"
    write_slice_csv(terminal_grid(lg.g1(), dom), path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].replace(",", ",x", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(lg.GameSpecError, match="malformed data row"):
        read_slice_csv(path, 0.25)


@pytest.mark.parametrize("edit", [
    lambda line: line.rsplit(",", 1)[0],         # a ragged row
    lambda line: line + ",0",                    # a ragged row, one field too many
    lambda line: line.rsplit(",", 1)[0] + ",1_0",  # float() reads 10, the CSV reader does not
], ids=["short", "long", "underscore"])
def test_csv_rejects_ragged_and_odd_rows(tmp_path, edit):
    dom = g1_domain(h=0.25, lo=-2, hi=2)
    path = tmp_path / "slice.csv"
    write_slice_csv(terminal_grid(lg.g1(), dom), path)
    lines = path.read_text().splitlines()
    lines[3] = edit(lines[3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(lg.GameSpecError, match="malformed data row"):
        read_slice_csv(path, 0.25)


def test_csv_without_rows_is_rejected(tmp_path):
    path = tmp_path / "slice.csv"
    path.write_text("# game=g1\nt,x_1,value\n\n")
    with pytest.raises(lg.GameSpecError, match="holds no data rows"):
        read_slice_csv(path, 0.25)


def _joined_csv(grid: ValueGrid, meta: dict) -> bytes:
    """The slice CSV built as one string, the way it was written before
    the writer streamed its rows."""
    lines = [f"# {key}={val}" for key, val in meta.items()]
    lines.append("t," + ",".join(f"x_{i + 1}" for i in range(grid.domain.d)) + ",value")
    for row, val in zip(grid.domain.states(), grid.values):
        lines.append(",".join(f"{float(c):.17g}" for c in [grid.t, *row, val]))
    return ("\n".join(lines) + "\n").encode()


def test_streamed_csv_matches_joined_text(tmp_path):
    spec = lg.g2()
    dom = truncate_domain(spec, [0.0, 0.0], 0.1)
    assert dom.n_points > 2 * solver._CSV_BLOCK  # whole blocks and a partial one
    grid = solve_backward(spec, dom, checkpoints=[0.5]).slice_at(0.5)
    meta = {"config_sha256": "abc", "seed": 0, "game": "g2", "h": 0.1, "dt": 0.25 / 45}
    path = tmp_path / "slice.csv"
    write_slice_csv(grid, path, meta)
    assert path.read_bytes() == _joined_csv(grid, meta)
    # d = 1 and d = 3, with meshes whose multiples print long, and a side of length 1
    rng = np.random.default_rng(2)
    for dom in (LatticeDomain(h=0.003, lo=(-5000,), hi=(4321,)),
                LatticeDomain(h=0.07, lo=(-10, -12, 3), hi=(10, 11, 20)),
                LatticeDomain(h=0.1, lo=(-3, 2, -4), hi=(3, 2, 4))):
        grid = ValueGrid(t=0.37, domain=dom, values=rng.normal(size=dom.n_points))
        write_slice_csv(grid, path, meta)
        assert path.read_bytes() == _joined_csv(grid, meta), dom


def test_slice_value_parses_one_row_as_the_slice_reader_does(tmp_path):
    spec = lg.g2()
    dom = truncate_domain(spec, [0.0, 0.0], 0.1)
    grid = solve_backward(spec, dom, checkpoints=[0.0]).slice_at(0.0)
    path = tmp_path / "slice.csv"
    write_slice_csv(grid, path, {"h": 0.1})
    back, _ = read_slice_csv(path, 0.1)
    states = dom.states()
    for p in (0, 1, 5000, dom.index_of_state([0.0, 0.0]), dom.n_points - 1):
        value = solver.read_slice_value(path, states[p])
        assert np.float64(value).tobytes() == back.values[p].tobytes(), p
    assert solver.read_slice_value(path, dom.nearest_lattice([-0.3, 0.7]) * 0.1) == \
        back.value_at([-0.3, 0.7])
    # off the mesh-0.1 lattice, and outside the box
    for x in ([0.05, 0.0], [0.0, 100 * 0.1]):
        assert solver.read_slice_value(path, x) is None


def test_csv_roundtrip(tmp_path):
    spec = lg.g1()
    dom = g1_domain(h=0.25, lo=-8, hi=8)
    res = solve_backward(spec, dom, checkpoints=[0.0])
    grid = res.slice_at(0.0)
    path = tmp_path / "slice.csv"
    write_slice_csv(grid, path, meta={"config_sha256": "abc", "seed": 7})
    back, meta = read_slice_csv(path, 0.25)
    assert meta["config_sha256"] == "abc"
    assert meta["seed"] == "7"
    assert back.domain == grid.domain
    assert np.array_equal(back.values, grid.values)  # 17 digits round-trip exactly
    assert back.t == grid.t


def test_csv_determinism(tmp_path):
    spec = lg.g1()
    dom = g1_domain(h=0.25, lo=-8, hi=8)
    res = solve_backward(spec, dom, checkpoints=[0.0])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_slice_csv(res.slice_at(0.0), p1, meta={"seed": 0})
    write_slice_csv(res.slice_at(0.0), p2, meta={"seed": 0})
    assert p1.read_bytes() == p2.read_bytes()


def test_value_grid_rejects_nonfinite():
    dom = g1_domain(h=0.5, lo=-2, hi=2)
    with pytest.raises(lg.GameSpecError):
        ValueGrid(t=0.0, domain=dom, values=np.array([0.0, 1.0, np.nan, 0.0, 0.0]))


def _slices_sha256(res) -> str:
    digest = hashlib.sha256()
    for grid in res.slices:
        digest.update(np.float64(grid.t).tobytes())
        digest.update(grid.values.tobytes())
    return digest.hexdigest()


# recorded before the kernel's work arrays moved onto the rates; the shared
# scratch must not change a bit of any scheme or kind
GOLDEN_G2 = {
    "rk4_upper": "fab5701dbca8e6587962e4b29734465bcc242f3000251329868327b32495261e",
    "euler_lower": "d8f7a0847f08ca88bb0857da14bb460557c1b2b17455b22fad4f6fc02acd33c0",
    "viscous_lower": "ea0723f80b57702cb9f85f11e42300d3e351e03bb697b82431fe96f97a55f054",
}


def test_g2_outputs_match_golden_digests():
    spec = lg.g2()
    dom = truncate_domain(spec, [0.0, 0.0], 0.1)
    at = [0.0, 0.5]
    got = {
        "rk4_upper": solve_rk4(spec, dom, checkpoints=at),
        "euler_lower": solve_backward(spec, dom, kind="lower", checkpoints=at),
        "viscous_lower": lg.solve_viscous(spec, dom, 0.1, kind="lower", checkpoints=at),
    }
    assert {name: _slices_sha256(res) for name, res in got.items()} == GOLDEN_G2
    # the same bits from sweeps split into three blocks of slabs
    with forced_blocks(3):
        split = {"euler_lower": solve_backward(spec, dom, kind="lower", checkpoints=at),
                 "viscous_lower": lg.solve_viscous(spec, dom, 0.1, kind="lower",
                                                   checkpoints=at)}
    assert {name: _slices_sha256(res) for name, res in split.items()} == {
        name: GOLDEN_G2[name] for name in split}


AFFINE_3D = {
    "d": 3, "T": 0.5, "R": 1.0, "M1": 18.0, "K1": 1.0,
    "drift": {"kind": "affine", "a": [[0.3, -1.0, 0.0], [1.0, 0.2, 0.5], [0.0, -0.5, -0.4]],
              "bu": [[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]],
              "bv": [[0.5, 0.0], [0.0, -0.5], [0.25, 0.25]], "c": [0.1, 0.0, -0.2]},
    "u_grid": [[1.0, 0.0], [0.0, -1.0], [-1.0, 1.0]], "v_grid": [[0.5, 0.5], [-1.0, 0.0]],
    "payoff": {"kind": "norm", "center": [0.0, 0.0, 0.0]},
}

# three axes of unequal lengths: the only box whose axis handling d <= 2 leaves
# unexercised; recorded while neighbours were gathered through index tables
GOLDEN_AFFINE_3D = {
    "euler_upper": "9c32619ba5d64c1e3312850c4885d6de50d5d32a390ebff6cf4e9af75505b45e",
    "euler_lower": "94287f5c8110d2197faa2af349d984c6bef7fb53ae9a226b983b48e5a884132c",
    "viscous_upper": "e01eebb0a70fe2b9899f73bc41478f43bbff95f2ccb4ba0c9465ac86e05b284f",
    "feedback_u_words": "0d88276a31eff764c5814e543dc9f49a3e398acdd78638e6d88a75904efbf5e8",
    "feedback_value0": "2872c3ccaad6d4fc1d09d9ea4e95788cb7c50a3de276fbbf41da86e00f15bc10",
}


def test_affine_3d_outputs_match_golden_digests():
    spec = game_from_dict(AFFINE_3D, name="affine3")
    dom = LatticeDomain(h=0.25, lo=(-4, -3, -2), hi=(4, 3, 5))
    at = [0.0, 0.25]
    # the viscous auto dt, 1/442, has no grid time at 0.25: take the one below it
    visc_dt = solver._schedule(spec, dom.h, 0.3, None, [0.0])[0]
    visc_at = [0.0, spec.T - 111 * visc_dt]

    def digests():
        got = {name: _slices_sha256(res) for name, res in {
            "euler_upper": solve_backward(spec, dom, checkpoints=at),
            "euler_lower": solve_backward(spec, dom, kind="lower", checkpoints=at),
            "viscous_upper": lg.solve_viscous(spec, dom, 0.3, checkpoints=visc_at),
        }.items()}
        table = feedback_table(spec, dom)
        got["feedback_u_words"] = hashlib.sha256(table.u_words.tobytes()).hexdigest()
        got["feedback_value0"] = hashlib.sha256(table.value0.values.tobytes()).hexdigest()
        return got

    assert digests() == GOLDEN_AFFINE_3D
    # the same bits from sweeps split into three blocks of slabs
    with forced_blocks(3):
        assert digests() == GOLDEN_AFFINE_3D


_SWEEP_FAULTS = """
import resource, sys
import latticegames as lg
sweep, h, steps = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
spec = lg.g2()
dom = lg.truncate_domain(spec, [0.0, 0.0], h)
dt = lg.cfl_ceiling(spec, h, 0.1) if sweep == "viscous" else lg.dt_ceiling(spec, h)
at = [spec.T - steps * dt]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if sweep == "viscous":
    lg.solve_viscous(spec, dom, 0.1, dt=dt, checkpoints=at)
elif sweep == "rk4":
    from oracles import forced_blocks, solve_rk4
    solve_rk4(spec, dom, dt=dt, checkpoints=at)
else:
    lg.solve_backward(spec, dom, dt=dt, checkpoints=at)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _sweep_faults(sweep: str, h: float, steps: int) -> int:
    """Minor page faults of a ``steps``-step g2 sweep, in a fresh process as a
    CLI run is: in a warm one, earlier frees have raised malloc's thresholds
    and per-step work arrays stop faulting."""
    paths = [str(Path(lg.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    run = subprocess.run([sys.executable, "-c", _SWEEP_FAULTS, sweep, str(h), str(steps)],
                         env=env, check=True, capture_output=True, text=True, timeout=300)
    return int(run.stdout)


@pytest.mark.parametrize("sweep, h, steps", [
    ("euler", 0.1, 45),
    ("viscous", 0.1, 45),
    # RK4 at h=0.05, where its per-stage temporaries were measured faulting
    ("rk4", 0.05, 20),
], ids=["euler", "viscous", "rk4"])
def test_sweep_steps_do_not_page_fault(sweep, h, steps):
    # the marginal count: the rates and the first step's allocations fault
    # in once per sweep, whatever its length
    pytest.importorskip("resource")
    per_step = (_sweep_faults(sweep, h, 2 * steps) - _sweep_faults(sweep, h, steps)) / steps
    assert per_step < 5, f"{per_step:.1f} minor page faults per {sweep} sweep step"


# ---------------------------------------------------------------------------
# sweeps split into blocks of axis-0 slabs


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _error_of(run):
    """(type, message) of the error ``run()`` raises."""
    with pytest.raises(lg.LatticeGamesError) as info:
        run()
    return type(info.value), str(info.value)


# f1 = 2 x1 + 1.5 outruns M1 = 1 only where x1 > 1.25: on the h=0.1 box
# [-1.5, 1.5]^2 (31 slabs), inside the last of three blocks, slabs 20-30
LAST_BLOCK_RUSH = {"d": 2, "T": 1.0, "u_grid": [0], "v_grid": [0], "payoff": {"kind": "norm"},
                   "drift": {"kind": "affine", "a": [[2, 0], [0, 0]], "bu": [[0], [0]],
                             "bv": [[0], [0]], "c": [1.5, 0]},
                   "R": 1.0, "M1": 1.0, "K1": 2.0}

# f1 = 2 x1 + 1 outruns M1 = 1 where x1 > 0 or x1 < -1: on the h=0.1 box
# [-3, 3] x [-0.2, 0.2] (61 slabs), at rate 50 (x1 = -3) in the first of three
# blocks and at rate 70 (x1 = 3) in the last
TWO_BLOCK_RUSH = {**LAST_BLOCK_RUSH, "drift": {**LAST_BLOCK_RUSH["drift"], "c": [1, 0]}}


def _split_drift(t, x, u, v):
    # not finite for u = 0 above x1 = 1 (the last block), for u = 1 below
    # x1 = -1 (the caller's first block)
    bad = x[..., :1] > 1.0 if u == 0.0 else x[..., :1] < -1.0
    return np.where(bad, np.nan, 0.5) * np.ones_like(x)


def _overflowing_sweep():
    # f = x + 1 times the payoff's slope 8.5e307 overflows only where
    # x + 1 > 2.11, in the last of three blocks; the step stays monotone
    spec = lg.GameSpec(name="overflow", d=1, T=1.0, drift=lambda t, x, u, v: x + 1.0,
                       u_grid=(0.0,), v_grid=(0.0,), payoff=lg.payoff_linear([8.5e307]),
                       R=8.5e307, M1=3.0, K1=1.0, vectorized=True)
    with np.errstate(over="ignore"):
        solve_backward(spec, LatticeDomain(h=0.05, lo=(-40,), hi=(40,)), checkpoints=[0.0])


@pytest.mark.parametrize("run, error, message", [
    (lambda: solve_backward(game_from_dict(LAST_BLOCK_RUSH), truncate_domain(
        game_from_dict(LAST_BLOCK_RUSH), [0.0, 0.0], 0.1)), MonotoneStepError,
     r"total jump rate 45 times dt=0\.025 is 1\.125 > 1 at x=\[1\.5, -1\.5\]"),
    (lambda: feedback_table(lg.GameSpec(
        name="split", d=2, T=1.0, drift=_split_drift, u_grid=(0.0, 1.0), v_grid=(0.0,),
        payoff=payoff_norm(), R=1.0, M1=1.0, K1=0.0, vectorized=True),
        LatticeDomain(h=0.1, lo=(-15, -15), hi=(15, 15))), lg.GameSpecError,
     # the whole domain's first failure: pair u=0, which fails in the last block only
     r"drift not finite at t=1\.0, x=\[1\.1[0-9]*, -1\.5\]"),
    (_overflowing_sweep, lg.StepSizeError, r"values at t=0\.9\d* leave the terminal payoff range"),
    (lambda: solve_backward(game_from_dict(TWO_BLOCK_RUSH),
                            LatticeDomain(h=0.1, lo=(-30, -2), hi=(30, 2))), MonotoneStepError,
     # the whole domain's peak: rate 70 in the last block, not 50 in the first
     r"total jump rate 70 times dt=0\.025 is 1\.75 > 1 at x=\[3\.0, -0\.2\]"),
], ids=["monotone-last-block", "nonfinite-drift-in-two-blocks", "range", "monotone-two-blocks"])
def test_block_sweeps_raise_the_one_block_errors(run, error, message):
    one = _error_of(run)
    _no_children_left()
    assert one[0] is error and re.match(message, one[1]), one
    with forced_blocks(3):
        assert _error_of(run) == one
    _no_children_left()


def test_a_one_block_sweep_that_raises_is_stepped_once():
    # one block is the whole domain: its error is raised without a replay
    spec = game_from_dict(LAST_BLOCK_RUSH)
    dom = truncate_domain(spec, [0.0, 0.0], 0.1)
    with forced_blocks(1), mock.patch.object(solver, "_check_monotone",
                                             wraps=solver._check_monotone) as check:
        with pytest.raises(MonotoneStepError, match=r"total jump rate 45 times dt=0\.025"):
            solve_backward(spec, dom)
    assert check.call_count == 1
    _no_children_left()


_KILLED_SWEEP = """
import os, sys
import latticegames as lg
from oracles import forced_blocks
fork = os.fork

def announced_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announced_fork
spec = lg.g2()
dom = lg.truncate_domain(spec, [0.0, 0.0], 0.05)
with forced_blocks(2):
    while True:
        lg.solve_backward(spec, dom, checkpoints=[0.0])
"""


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited: no such process, or a zombie left to a
    reaper that does not reap."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def test_a_worker_exits_when_its_sweep_is_killed():
    if not Path("/proc/self/stat").exists():
        pytest.skip("reads process states from /proc")
    paths = [str(Path(lg.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    with subprocess.Popen([sys.executable, "-c", _KILLED_SWEEP], env=env,
                          stdout=subprocess.PIPE, text=True) as caller:
        try:
            worker = int(caller.stdout.readline())
            assert not _gone(worker)
        finally:
            caller.kill()
    deadline = time.monotonic() + 60
    while not _gone(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(worker)


def test_a_block_whose_fork_fails_is_stepped_by_the_caller(monkeypatch):
    spec = lg.g2()
    dom = truncate_domain(spec, [0.0, 0.0], 0.2)
    one = solve_backward(spec, dom, checkpoints=[0.0, 0.5])
    fork, forks = os.fork, []

    def first_fork_only():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", first_fork_only)
    with forced_blocks(3):
        split = solve_backward(spec, dom, checkpoints=[0.0, 0.5])
    assert len(forks) == 1
    assert _slices_sha256(split) == _slices_sha256(one)
    _no_children_left()
