"""Backward minimax sweeps: stability, monotonicity, anchors, CSV round trip."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latticegames as lg
from latticegames import solver
from latticegames.chain import LatticeDomain, apply_generator, neighbor_tables
from latticegames.games import game_from_dict, payoff_norm
from latticegames.solver import (ValueGrid, auto_dt, dt_ceiling,
                                 feedback_table, hamiltonian_field, read_slice_csv,
                                 solve_backward, truncate_domain, weighted_norm,
                                 write_slice_csv)


def g1_domain(h=0.1, lo=-20, hi=20):
    return LatticeDomain(h=h, lo=(lo,), hi=(hi,))


def terminal_grid(spec, domain):
    vals = np.array([spec.payoff(x) for x in domain.states()])
    return ValueGrid(t=spec.T, domain=domain, values=vals)


def upper_argmin(values, spec, t, dom):
    """Lowest u index attaining min_u max_v of the generator, at every point."""
    index = np.empty(dom.n_points, dtype=np.intp)
    rates = solver._pair_rates(spec, t, dom.states(), dom.h)
    solver._minimax(values, rates, dom, "upper", index=index)
    return index


def test_dt_ceiling_formula():
    assert dt_ceiling(lg.g1(), 0.1) == pytest.approx(0.1 / 3.0)
    assert dt_ceiling(lg.g2(), 0.1) == pytest.approx(0.1 / 18.0)


def test_auto_dt_tiles_horizon():
    spec = lg.g1()
    dt = auto_dt(spec, 0.05)
    n = spec.T / dt
    assert abs(n - round(n)) < 1e-9
    assert dt <= dt_ceiling(spec, 0.05) * (1 + 1e-9)


def test_truncate_domain_reaches_everything():
    spec = lg.g1()
    dom = truncate_domain(spec, [-1.0, 1.0], 0.1)
    # radius M1*T + pad = 2 around [-1, 1]
    assert dom.lo == (-30,) and dom.hi == (30,)


def test_truncate_domain_budget():
    spec = lg.g2()
    with pytest.raises(lg.ResourceError):
        truncate_domain(spec, [[0.0, 0.0], [0.0, 0.0]], 0.001, max_points=10_000)


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
    """Per interior point, the (u, v) table of chain.apply_generator."""
    def lookup(y):
        return values[dom.index_of_state(y)]

    _, _, interior = neighbor_tables(dom)
    points = np.flatnonzero(interior)
    tables = np.array([[[apply_generator(lookup, spec, t, dom.state_of(i), u, v, dom.h)
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



def test_kernel_results_survive_later_calls_on_the_same_rates():
    # the rates carry the kernel's work arrays: a result must not alias them,
    # because RK4 keeps four results alive across calls
    spec = lg.g2()
    dom = LatticeDomain(h=0.1, lo=(-8, -8), hi=(8, 8))
    rates = solver._rates_by_time(spec, dom, dom.states())(spec.T)
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
    solver._minimax(first_values, rates, dom, "upper", index=first)
    solver._minimax(second_values, rates, dom, "upper", index=second)
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


def test_checkpoints_snap_down():
    spec = lg.g1()
    dom = g1_domain()
    res = solve_backward(spec, dom, dt=0.02, checkpoints=[0.0, 0.55, 1.0])
    # 0.55 is not on the grid T - k*0.02; snapped to 0.54
    assert set(np.round(res.times, 10)) == {0.0, 0.54, 1.0}


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
    b = solve_backward(spec, dom, dt=0.002, scheme="rk4", checkpoints=[0.0]).slice_at(0.0)
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
    # drift whose declared bound is a lie; the runaway check must fire
    spec = lg.GameSpec(name="lie", d=1, T=1.0,
                       drift=lambda t, x, u, v: np.array([40.0 * np.sign(float(np.atleast_1d(x)[0]) or 1.0)]),
                       u_grid=(0.0,), v_grid=(0.0,),
                       payoff=payoff_norm(),
                       R=1.0, M1=0.1, K1=0.0)
    dom = LatticeDomain(h=0.1, lo=(-40,), hi=(40,))
    with pytest.raises(lg.StepSizeError):
        solve_backward(spec, dom)


@pytest.mark.parametrize("spec, dom, dt", [
    (lg.g1(), truncate_domain(lg.g1(), [-1.0, 1.0], 0.05), None),
    # a dt that does not tile [0, T]: the last grid time is below 0
    (lg.g1(), truncate_domain(lg.g1(), [-1.0, 1.0], 0.05), 0.013),
    (lg.g2(), truncate_domain(lg.g2(), [0.0, 0.0], 0.1), None),
    (game_from_dict(AFFINE_GAME, name="affine"), LatticeDomain(h=0.1, lo=(-6, -6), hi=(6, 6)), None),
], ids=["g1", "g1-untiled-dt", "g2", "affine"])
def test_feedback_table_matches_converted_dense_solve(spec, dom, dt):
    table = feedback_table(spec, dom, dt=dt)
    dense = solve_backward(spec, dom, dt=dt)  # every step recorded
    # oracle: the feedback of each recorded slice, in ascending time
    ascending = dense.slices[::-1]
    ref_times = np.array([grid.t for grid in ascending])
    ref_u_index = np.stack([upper_argmin(grid.values, spec, grid.t, dom) for grid in ascending])
    steps = len(dense.slices) - 1
    assert table.u_index.dtype == np.uint8
    assert table.u_index.shape == (steps + 1, dom.n_points)
    assert table.times.tobytes() == ref_times.tobytes()
    assert np.all(np.diff(table.times) > 0)
    assert np.array_equal(table.u_index, ref_u_index)
    assert table.dt == dense.dt and table.h == dom.h and table.domain == dom
    at0 = solve_backward(spec, dom, dt=dt, checkpoints=[0.0])
    last = at0.slice_at(0.0) if dt is None else at0.slices[-1]
    assert table.value0.t == last.t
    assert np.array_equal(table.value0.values, last.values)


def test_feedback_table_dtype_follows_grid():
    spec = lg.g1()
    many = lg.GameSpec(name="many", d=1, T=1.0, drift=spec.drift,
                       u_grid=tuple(np.linspace(-1.0, 1.0, 300)), v_grid=(0.0,),
                       payoff=spec.payoff, R=1.0, M1=1.0, K1=0.0, vectorized=True)
    table = feedback_table(many, g1_domain(h=0.1, lo=-15, hi=15))
    assert table.u_index.dtype == np.uint16
    assert table.u_index.max() < 300


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
        "rk4_upper": solve_backward(spec, dom, scheme="rk4", checkpoints=at),
        "euler_lower": solve_backward(spec, dom, kind="lower", checkpoints=at),
        "viscous_lower": lg.solve_viscous(spec, dom, 0.1, kind="lower", checkpoints=at),
    }
    assert {name: _slices_sha256(res) for name, res in got.items()} == GOLDEN_G2


_FAULTS_PER_STEP = """
import resource
import latticegames as lg
spec = lg.g2()
dom = lg.truncate_domain(spec, [0.0, 0.0], 0.1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
res = lg.solve_backward(spec, dom, checkpoints=[0.0])
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / round(spec.T / res.dt))
"""


def test_sweep_steps_do_not_page_fault():
    # a fresh process, as a CLI run is: in a warm one, earlier frees have
    # raised malloc's thresholds and per-step work arrays stop faulting
    pytest.importorskip("resource")
    paths = [str(Path(lg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    run = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    per_step = float(run.stdout)
    assert per_step < 20, f"{per_step:.1f} minor page faults per sweep step"
