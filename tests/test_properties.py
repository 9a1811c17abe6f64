"""Property tests over randomly generated JSON games.

Every catalog and JSON drift ignores t, so the sweeps build the jump rates
once per solve; ``dataclasses.replace(spec, autonomous=False)`` rebuilds them
at every kernel time instead.  Both must give the same floats, bit for bit,
in every solver that reads the rates.  M1 is chosen so that each generated
game satisfies its declared bound on the truncated box, which keeps the
monotone schemes inside the payoff range; a failure would still have to be
the same failure on both paths.  The batched jump rates and chain
characteristics must equal the point-by-point jump-measure sums, bit for bit,
on the same games; a batch of coupled replicas must equal the replicas run
one at a time, each adversary's block of a panel batch the batch of that
adversary alone, and each row of a logged panel call its single logged run,
array by array; and a drift batch with one control pair per row must equal
the looped one-pair batches.  The monotone Euler sweep must keep every recorded slice
inside the payoff range, keep the upper value above the lower one, and not
lower any value when the payoff rises by a constant.  At the interior
points, the feedback table's first row and the upper Hamiltonian of its t=0
slice must equal, bit for bit, the argmin and the min of max_v of the
``apply_generator`` tables on that slice.  The kernel, which skips zero
terms and takes a term of few one-signed runs without a per-point select,
must equal the copyto/where kernel it replaced (``oracle_minimax``), bit for
bit, index included.  The references live in ``oracles``.  A sweep split
into blocks of axis-0 slabs stepped by forked workers must equal the
one-block sweep, bit for bit or error for error, and leave no worker behind;
so must an engine batch split into blocks of replicas.  A ``simulate_chain``
path must equal the thinning loop that took every candidate's rates, total
and axis from batch rows (``reference_chain``), bit for bit or error for error.
"""

import dataclasses
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import latticegames as lg
from latticegames import solver
from latticegames.chain import RATE_DROP_TOL
from latticegames.games import game_from_dict
from latticegames.shift import _ROW_FIELDS, _run_replicas
from oracles import (apply_generator, forced_blocks, jump_measure, neighbor_tables,
                     oracle_minimax, reference_chain, solve_rk4)

T = 0.5
PAD = 0.5

coefficient = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False))


def _matrix(rows: int, cols: int):
    return st.lists(st.lists(coefficient, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def payoffs(draw, d: int) -> dict:
    kind = draw(st.sampled_from(["norm", "linear", "constant"]))
    if kind == "norm":
        return {"kind": "norm", "center": draw(st.lists(coefficient, min_size=d, max_size=d))}
    if kind == "linear":
        return {"kind": "linear", "a": draw(st.lists(coefficient, min_size=d, max_size=d))}
    return {"kind": "constant", "value": draw(coefficient)}


@st.composite
def json_games(draw, max_d: int = 2) -> dict:
    kind = draw(st.sampled_from(["control_sum", "rotation_mix", "affine"]))
    if kind == "control_sum":
        # |u + v| <= 2 <= 2 d M1
        d, m, drift, M1 = 1, 1, {"kind": "control_sum"}, 2.0
    elif kind == "rotation_mix":
        # |v x2 - u| + |u x1 + v| <= 2 (M1 T + 1) + 2 <= 2 d M1
        d, m, drift, M1 = 2, 1, {"kind": "rotation_mix"}, 2.0
    else:
        d, m = draw(st.integers(1, max_d)), draw(st.integers(1, 2))
        drift = {"kind": "affine", "a": draw(_matrix(d, d)), "bu": draw(_matrix(d, m)),
                 "bv": draw(_matrix(d, m)), "c": draw(st.lists(coefficient, min_size=d,
                                                               max_size=d))}
        # the box reaches M1 T + PAD + h < M1 T + 1 per coordinate, so
        # sum_i |f_i| <= d^2 (M1 T + 1) + 3 d m <= 2 d M1
        M1 = (d + 3 * m) / (2 - d * T)
    control = coefficient if m == 1 else st.lists(coefficient, min_size=m, max_size=m)
    u_grid = draw(st.lists(control, min_size=1, max_size=3, unique_by=repr))
    v_grid = draw(st.lists(control, min_size=1, max_size=3, unique_by=repr))
    return {"d": d, "T": T, "drift": drift, "u_grid": u_grid, "v_grid": v_grid,
            "payoff": draw(payoffs(d)), "R": 1.0, "M1": M1, "K1": 1.0}


def _outcome(fn):
    """A run's floats as bytes, or the failure it raised."""
    try:
        return fn()
    except lg.LatticeGamesError as exc:
        return type(exc).__name__, str(exc)


def _slices(res) -> list:
    return [(s.t, s.values.tobytes()) for s in res.slices] + [res.dt]


def _table(table) -> tuple:
    return (table.times.tobytes(), table.u_words.tobytes(), table.value0.values.tobytes(),
            table.dt)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=json_games(), h=st.sampled_from([0.25, 0.5]), sigma=st.sampled_from([0.0, 0.2]))
def test_rate_cache_matches_per_step_rates(data, h, sigma):
    cached = game_from_dict(data, name="random")
    assert cached.autonomous
    per_step = dataclasses.replace(cached, autonomous=False)
    dom = lg.truncate_domain(cached, np.zeros(cached.d), h, pad=PAD)

    def runs(spec):
        out = {}
        for kind in ("upper", "lower"):
            for scheme, solve in (("euler", lg.solve_backward), ("rk4", solve_rk4)):
                out[kind, scheme] = _outcome(lambda: _slices(solve(spec, dom, kind=kind)))
        out["viscous"] = _outcome(lambda: _slices(lg.solve_viscous(spec, dom, sigma)))
        out["table"] = _outcome(lambda: _table(lg.feedback_table(spec, dom)))
        return out

    a, b = runs(cached), runs(per_step)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == b[key], key
    # valid games by construction: the monotone Euler sweeps never fail
    assert isinstance(a["upper", "euler"], list) and isinstance(a["table"], tuple)


def _value_tol(values) -> np.ndarray:
    """The range check's relative tolerance, per value."""
    return 1e-12 * np.maximum(1.0, np.abs(values))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=json_games(), h=st.sampled_from([0.25, 0.5]))
def test_euler_slices_keep_the_payoff_range_and_upper_above_lower(data, h):
    spec = game_from_dict(data, name="random")
    dom = lg.truncate_domain(spec, np.zeros(spec.d), h, pad=PAD)
    upper, lower = (lg.solve_backward(spec, dom, kind=kind) for kind in ("upper", "lower"))
    g = upper.slices[0].values
    lo, hi = g.min(), g.max()
    tol = _value_tol(max(abs(lo), abs(hi)))
    assert len(upper.slices) > 1
    for up, low in zip(upper.slices, lower.slices, strict=True):
        assert up.t == low.t
        for grid in (up, low):
            assert grid.values.min() >= lo - tol and grid.values.max() <= hi + tol, grid.t
        assert np.all(up.values >= low.values - _value_tol(low.values)), up.t


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=json_games(), h=st.sampled_from([0.25, 0.5]), c=st.floats(1e-3, 2.0),
       kind=st.sampled_from(["upper", "lower"]))
def test_raising_the_payoff_does_not_lower_the_value(data, h, c, kind):
    spec = game_from_dict(data, name="random")
    raised = dataclasses.replace(spec, payoff=lambda x: spec.payoff(x) + c)
    dom = lg.truncate_domain(spec, np.zeros(spec.d), h, pad=PAD)
    base = lg.solve_backward(spec, dom, kind=kind)
    above = lg.solve_backward(raised, dom, kind=kind)
    assert np.all(above.slices[0].values > base.slices[0].values)
    for a, b in zip(base.slices, above.slices, strict=True):
        assert a.t == b.t
        assert np.all(b.values >= a.values - _value_tol(a.values)), a.t


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=json_games(), h=st.sampled_from([0.25, 0.5]))
def test_feedback_argmin_matches_the_generator_reference(data, h):
    # the kernel against apply_generator, one point and control pair at a time
    spec = game_from_dict(data, name="random")
    dom = lg.truncate_domain(spec, np.zeros(spec.d), h, pad=PAD)
    table = lg.feedback_table(spec, dom)
    value0 = table.value0

    def lookup(y):
        return value0.values[dom.index_of_state(y)]

    points = np.flatnonzero(neighbor_tables(dom)[2])
    states = dom.states()
    tables = np.array([[[apply_generator(lookup, spec, value0.t, states[p], u, v, h)
                         for v in spec.v_grid] for u in spec.u_grid] for p in points])
    inner = tables.max(axis=2)
    assert np.array_equal(table.u_at(0, points), np.argmin(inner, axis=1))
    field = lg.hamiltonian_field(value0.values, spec, value0.t, dom, "upper")
    assert field[points].tobytes() == inner.min(axis=1).tobytes()


def _shape_class(runs) -> str:
    if runs is None:
        return "mixed"
    return {0: "zero", 1: "one-signed"}.get(len(runs), "runs")


def _kernel_matches_oracle(spec, dom, seed) -> set:
    """``hamiltonian_field`` on given rates against the oracle, bit for bit,
    for both kinds with and without the committing player's index (``index=``);
    returns the term shapes seen."""
    rates = solver._pair_rates(spec, spec.T, dom.states(), dom.h)
    values = np.random.default_rng(seed).normal(size=dom.n_points)
    for kind in ("upper", "lower"):
        got_index, want_index = np.full((2, dom.n_points), -1, dtype=np.intp)
        got = lg.hamiltonian_field(values, spec, spec.T, dom, kind, rates=rates, index=got_index)
        assert got.tobytes() == oracle_minimax(values, spec, dom, kind, want_index).tobytes()
        assert got_index.tobytes() == want_index.tobytes(), kind
        assert lg.hamiltonian_field(values, spec, spec.T, dom, kind,
                                    rates=rates).tobytes() == got.tobytes(), kind
    return {_shape_class(runs) for pair_row in rates.terms for pair in pair_row for runs in pair}


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=json_games(max_d=3), sides=st.lists(st.sampled_from([1, 2, 3, 7]), min_size=3,
                                                 max_size=3),
       h=st.sampled_from([0.25, 0.5]), seed=st.integers(0, 2**16))
def test_kernel_equals_the_copyto_oracle(data, sides, h, seed):
    # a small box around the origin, sides of length 1 included
    spec = game_from_dict(data, name="random")
    sides = sides[:spec.d]
    dom = lg.LatticeDomain(h=h, lo=tuple(-(k // 2) for k in sides),
                           hi=tuple(k - 1 - k // 2 for k in sides))
    _kernel_matches_oracle(spec, dom, seed)


def test_kernel_equals_the_copyto_oracle_for_every_term_shape():
    still = {"d": 1, "T": 1.0, "drift": {"kind": "control_sum"}, "u_grid": [0, 1],
             "v_grid": [0], "payoff": {"kind": "norm"}, "R": 1.0, "M1": 1.0, "K1": 0.0}
    # u + v is one-signed for every pair, up or down; only (0, 0) of the
    # still game is zero
    one_signed = {**still, "u_grid": [-1, 0, 1], "v_grid": [-0.5, 0.5]}
    # (v x2 - u, u x1 + v): u x1 + v changes sign once along the slow axis,
    # v x2 - u once per row of the fast one
    rotation = {**still, "d": 2, "drift": {"kind": "rotation_mix"}, "u_grid": [-1, 0, 1],
                "v_grid": [-1, 0, 1], "M1": 4.5}
    seen = {}
    for name, data, dom in (
            ("still", still, lg.LatticeDomain(h=0.1, lo=(-20,), hi=(20,))),
            ("one_signed", one_signed, lg.LatticeDomain(h=0.1, lo=(-20,), hi=(20,))),
            ("rotation", rotation, lg.LatticeDomain(h=0.25, lo=(-8, -6), hi=(8, 9)))):
        seen[name] = _kernel_matches_oracle(game_from_dict(data, name=name), dom, seed=7)
    assert "zero" in seen["still"]
    assert seen["one_signed"] == {"one-signed"}
    assert {"runs", "mixed"} <= seen["rotation"]
    assert set().union(*seen.values()) == {"zero", "one-signed", "runs", "mixed"}
    # both directions of a one-signed term
    rates = solver._pair_rates(game_from_dict(one_signed), 1.0, np.zeros((3, 1)), 0.1)
    assert {runs[0][2] for row in rates.terms for (runs,) in row} == {False, True}


def test_catalog_and_json_games_declare_autonomy():
    assert lg.g1().autonomous and lg.g2().autonomous
    data = {"d": 1, "T": 1, "drift": {"kind": "zero"}, "u_grid": [0], "v_grid": [0],
            "payoff": {"kind": "norm"}, "R": 1, "M1": 1, "K1": 0}
    assert game_from_dict(data).autonomous
    spec = lg.g1()
    python_game = lg.GameSpec(name="py", d=1, T=1.0, drift=spec.drift, u_grid=spec.u_grid,
                              v_grid=spec.v_grid, payoff=spec.payoff, R=1.0, M1=1.5, K1=0.0)
    assert not python_game.autonomous


def _rates_from_measure(spec, t, x, u, v, h):
    """Per-axis rates and jump directions of the jump measure at one point:
    the reference rows the batched ``kolmogorov_rates`` must reproduce."""
    rates, signs = np.zeros(spec.d), np.zeros(spec.d)
    for offset, mass in jump_measure(spec, t, x, u, v, h):
        i = int(np.flatnonzero(offset)[0])
        rates[i], signs[i] = mass, np.sign(offset[i])
    return rates, signs


def _characteristics_from_measure(spec, t, x, u, v, h):
    """b2 and sigma2 summed over the jump measure, one point at a time: the
    reference the batched ``chain_characteristics`` must reproduce."""
    b2 = np.zeros(spec.d)
    sigma2 = 0.0
    for offset, mass in jump_measure(spec, t, x, u, v, h):
        b2 += mass * offset
        sigma2 += mass * float(offset @ offset)
    return b2, sigma2


def _time_scaled(spec, vectorized):
    """The game with drift (1 + t) f(t, x, u, v), evaluated in batches or
    row by row: per-row times must reach each row."""
    def drift(t, x, u, v):
        return spec.drift(t, x, u, v) * (1.0 + np.asarray(t, dtype=float)[..., None])

    return dataclasses.replace(spec, drift=drift, vectorized=vectorized, autonomous=False)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=json_games(max_d=3), h=st.sampled_from([0.05, 0.25, 0.5]),
       seed=st.integers(0, 2**16))
def test_batched_characteristics_match_point_calls(data, h, seed):
    game = game_from_dict(data, name="random")
    rng = np.random.default_rng(seed)
    n = 9
    xs = rng.uniform(-2.0, 2.0, size=(n, game.d))
    xs[::3] = 0.0  # drift components of zero or near zero at the origin
    ts = rng.uniform(0.0, T, size=n)
    for spec in (game, _time_scaled(game, True), _time_scaled(game, False)):
        for u in spec.u_grid:
            for v in spec.v_grid:
                for t in (0.3, ts):
                    b2, sigma2 = lg.chain_characteristics(spec, t, xs, u, v, h)
                    assert b2.shape == (n, spec.d) and sigma2.shape == (n,)
                    f, rates = lg.kolmogorov_rates(spec, t, xs, u, v, h)
                    assert f.shape == rates.shape == (n, spec.d)
                    for r in range(n):
                        t_r = t if np.isscalar(t) else float(t[r])
                        point_f, point_rates = lg.kolmogorov_rates(spec, t_r, xs[r], u, v, h)
                        want_rates, want_signs = _rates_from_measure(spec, t_r, xs[r], u, v, h)
                        assert f[r].tobytes() == point_f.tobytes()
                        assert rates[r].tobytes() == point_rates.tobytes() == want_rates.tobytes()
                        assert np.array_equal(np.where(rates[r] > 0, np.sign(f[r]), 0.0),
                                              want_signs)
                        want_b2, want_s2 = _characteristics_from_measure(spec, t_r, xs[r],
                                                                         u, v, h)
                        point_b2, point_s2 = lg.chain_characteristics(spec, t_r, xs[r],
                                                                      u, v, h)
                        assert b2[r].tobytes() == point_b2.tobytes() == want_b2.tobytes()
                        assert isinstance(point_s2, float)
                        assert (np.float64(sigma2[r]).tobytes() == np.float64(point_s2).tobytes()
                                == np.float64(want_s2).tobytes())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=json_games(max_d=3), seed=st.integers(0, 2**16))
def test_per_row_controls_match_looped_pairs(data, seed):
    game = game_from_dict(data, name="random")
    rng = np.random.default_rng(seed)
    n = 12
    xs = rng.uniform(-2.0, 2.0, size=(n, game.d))
    ts = rng.uniform(0.0, T, size=n)
    iu = rng.integers(0, len(game.u_grid), size=n)
    iv = rng.integers(0, len(game.v_grid), size=n)
    rows = np.arange(n)
    U, V = np.asarray(game.u_grid), np.asarray(game.v_grid)
    for spec in (game, _time_scaled(game, True), _time_scaled(game, False)):
        for t in (0.3, ts):
            pairs = np.stack([np.stack([lg.drift_batch(spec, t, xs, u, v) for v in spec.v_grid])
                              for u in spec.u_grid])               # (nu, nv, n, d)
            got = lg.drift_batch(spec, t, xs, U[iu], V[iv])
            assert got.tobytes() == pairs[iu, iv, rows].tobytes()
            # one grid element against per-row controls of the other player
            got = lg.drift_batch(spec, t, xs, spec.u_grid[0], V[iv])
            assert got.tobytes() == pairs[0, iv, rows].tobytes()


# three axes and vector controls, which the drawn examples may miss
AFFINE_3D = {
    "d": 3, "T": T, "R": 1.0, "M1": 18.0, "K1": 1.0,
    "drift": {"kind": "affine", "a": [[0.3, -1.0, 0.0], [1.0, 0.2, 0.5], [0.0, -0.5, -0.4]],
              "bu": [[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]],
              "bv": [[0.5, 0.0], [0.0, -0.5], [0.25, 0.25]], "c": [0.1, 0.0, -0.2]},
    "u_grid": [[1.0, 0.0], [0.0, -1.0], [-1.0, 1.0]], "v_grid": [[0.5, 0.5], [-1.0, 0.0]],
    "payoff": {"kind": "norm", "center": [0.0, 0.0, 0.0]},
}


@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=json_games(max_d=3), adversary=st.integers(0, 3), seed=st.integers(0, 2**16))
@example(data=AFFINE_3D, adversary=3, seed=5)
def test_batch_replicas_match_looped_singles(data, adversary, seed):
    # a small box: frozen moves at its faces are part of the engine too
    spec = game_from_dict(data, name="random")
    table = lg.feedback_table(spec, lg.LatticeDomain(h=0.5, lo=(-4,) * spec.d,
                                                     hi=(4,) * spec.d))
    part = lg.Partition.uniform(0.0, T, 0.05)
    adv = lg.standard_adversaries(spec)[adversary]
    x0 = np.zeros(spec.d)
    n = 3
    batch = lg.run_extremal_shift_batch(spec, table, part, x0, [adv], n_replicas=n, seed=seed)
    for i in range(n):
        single = lg.run_extremal_shift(spec, table, part, x0, adv, rng=lg.replica_rng(seed, i))
        assert np.float64(single.outcome).tobytes() == batch.outcomes[i].tobytes()
        assert np.float64(single.model_outcome).tobytes() == batch.model_outcomes[i].tobytes()
        assert single.sq_gap.tobytes() == batch.sq_gap[i].tobytes()
        assert len(single.jump_times) == batch.n_jumps[i]


@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=json_games(max_d=3), order=st.lists(st.integers(0, 3), min_size=1, max_size=5),
       seed=st.integers(0, 2**16), row=st.integers(0, 14))
# random twice and not first: its second pre_draw needs the restored state
@example(data=AFFINE_3D, order=[1, 2, 3, 2], seed=5, row=10)
def test_panel_blocks_match_one_adversary_batches(data, order, seed, row):
    spec = game_from_dict(data, name="random")
    table = lg.feedback_table(spec, lg.LatticeDomain(h=0.5, lo=(-4,) * spec.d,
                                                     hi=(4,) * spec.d))
    part = lg.Partition.uniform(0.0, T, 0.05)
    advs = [lg.standard_adversaries(spec)[a] for a in order]
    x0 = np.zeros(spec.d)
    n = 3
    panel = lg.run_extremal_shift_batch(spec, table, part, x0, advs, n_replicas=n, seed=seed)
    assert panel.adversaries == tuple(adv.name for adv in advs)
    assert len(panel.outcomes) == len(advs) * n
    for adv, block in zip(advs, panel.split()):
        alone = lg.run_extremal_shift_batch(spec, table, part, x0, [adv], n_replicas=n,
                                            seed=seed)
        for field in ("outcomes", "model_outcomes", "sq_gap", "n_jumps", "n_frozen"):
            assert getattr(block, field).tobytes() == getattr(alone, field).tobytes(), field
    # one logged replica equals its row of the panel
    row %= len(advs) * n
    single = lg.run_extremal_shift(spec, table, part, x0, advs[row // n],
                                   rng=lg.replica_rng(seed, row % n))
    assert np.float64(single.outcome).tobytes() == panel.outcomes[row].tobytes()
    assert np.float64(single.model_outcome).tobytes() == panel.model_outcomes[row].tobytes()
    assert single.sq_gap.tobytes() == panel.sq_gap[row].tobytes()
    assert len(single.jump_times) == panel.n_jumps[row]
    # one replica stream logged against the whole panel: each row is its single
    i = row % n
    _, paths = _run_replicas(spec, table, part, x0, advs, [lg.replica_rng(seed, i)],
                             record_paths=True)
    assert len(paths) == len(advs)
    for a, (adv, logged) in enumerate(zip(advs, paths)):
        single = lg.run_extremal_shift(spec, table, part, x0, adv, rng=lg.replica_rng(seed, i))
        for field in ("node_x", "node_y", "u_indices", "v_adv_indices", "v_hat_indices",
                      "jump_times", "jump_states", "dense_times", "dense_x", "sq_gap"):
            got, want = getattr(logged, field), getattr(single, field)
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype,
                                                             want.tobytes()), field
        for field in ("outcome", "model_outcome"):
            assert (np.float64(getattr(logged, field)).tobytes()
                    == np.float64(getattr(single, field)).tobytes()), field
        assert np.float64(logged.outcome).tobytes() == panel.outcomes[a * n + i].tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=json_games(max_d=3), h=st.sampled_from([0.25, 0.5]),
       shape=st.lists(st.integers(1, 4), min_size=3, max_size=3), slabs=st.integers(3, 9),
       n_blocks=st.integers(2, 3), time_scaled=st.booleans())
def test_block_sweeps_match_the_one_block_sweep(data, h, shape, slabs, n_blocks, time_scaled):
    spec = game_from_dict(data, name="random")
    if time_scaled:
        # a Python-built drift of t: each block rebuilds its rates at every step
        drift = spec.drift
        spec = dataclasses.replace(spec, autonomous=False,
                                   drift=lambda t, x, u, v: (1.0 - t) * drift(t, x, u, v))
    sizes = [slabs, *shape[:spec.d - 1]]
    dom = lg.LatticeDomain(h=h, lo=tuple(-(s // 2) for s in sizes),
                           hi=tuple(s - 1 - s // 2 for s in sizes))
    # a midway time on the viscous sweep's own auto grid: T / 2 lies on it
    # only for an even step count, and an off-grid checkpoint is refused
    dt, (n,) = solver._schedule(spec, h, 0.2, None, [0.0])
    mid = spec.T - (n // 2) * dt

    def runs():
        out = {}
        for kind in ("upper", "lower"):
            out[kind] = _outcome(lambda: _slices(lg.solve_backward(spec, dom, kind=kind)))
            out["viscous", kind] = _outcome(lambda: _slices(lg.solve_viscous(
                spec, dom, 0.2, kind=kind, checkpoints=[0.0, mid])))
        out["table"] = _outcome(lambda: _table(lg.feedback_table(spec, dom)))
        return out

    one = runs()
    # the viscous sweeps record their slices, so the comparison below is of bytes
    assert all(isinstance(one["viscous", kind], list) for kind in ("upper", "lower"))
    with forced_blocks(n_blocks), mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            mock.patch.object(solver, "_forked_blocks", wraps=solver._forked_blocks) as sweeps:
        split = runs()
    # each sweep forks a worker for every block but the caller's
    assert sweeps.call_count > 0
    assert fork.call_count == sweeps.call_count * (min(n_blocks, slabs) - 1)
    assert one.keys() == split.keys()
    for key in one:
        assert one[key] == split[key], key
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=json_games(max_d=3), order=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       seed=st.integers(0, 2**16), n=st.sampled_from([5, 7]))
@example(data=AFFINE_3D, order=[2, 3, 1], seed=5, n=7)
def test_engine_blocks_match_one_block(data, order, seed, n):
    # n is a multiple of neither block count: the blocks differ in size
    spec = game_from_dict(data, name="random")
    table = lg.feedback_table(spec, lg.LatticeDomain(h=0.5, lo=(-4,) * spec.d,
                                                     hi=(4,) * spec.d))
    part = lg.Partition.uniform(0.0, T, 0.05)
    advs = [lg.standard_adversaries(spec)[a] for a in order]
    x0 = np.zeros(spec.d)

    def batch():
        out = lg.run_extremal_shift_batch(spec, table, part, x0, advs, n_replicas=n, seed=seed)
        return [getattr(out, field).tobytes() for field in _ROW_FIELDS]

    one = batch()
    for n_blocks in (2, 3):
        with forced_blocks(n_blocks), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert batch() == one, n_blocks
        assert fork.call_count == n_blocks - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _near_drop(spec, tiny):
    """The game with each drift component under 0.5 in size replaced by
    +-tiny: at tiny = RATE_DROP_TOL a state may have no jump at all, so its
    candidates draw no acceptance, and just above it they do."""
    def drift(t, x, u, v):
        f = np.asarray(spec.drift(t, x, u, v), dtype=float)
        return np.where(np.abs(f) < 0.5, np.copysign(tiny, f), f)

    return dataclasses.replace(spec, drift=drift)


def _feedback(grid, w, s):
    """A state-feedback policy: the grid index steps with <w, y> + s t."""
    def policy(t, y):
        return grid[math.floor(float(np.dot(w[:len(y)], y)) + s * t) % len(grid)]

    return policy


def _path(path) -> tuple:
    return (path.times.tobytes(), path.states.tobytes(), path.u_indices.tobytes(),
            path.v_indices.tobytes(), path.n_jumps)


# eight and nine axes, numpy's pairwise block and one past it: the drift is the
# constant c, whose rates at h = 1/8 sum to 20.96 (20.08) in numpy's order and
# one (two) ulps more left to right, and M1 puts the majorant's tolerance
# lam * (1 + 1e-12) between the two
AFFINE_8D = {
    "d": 8, "T": 1.0, "R": 1.0, "M1": 0.3274999999996725, "K1": 1.0,
    "drift": {"kind": "affine", "a": [[0.0] * 8] * 8, "bu": [[0.0]] * 8, "bv": [[0.0]] * 8,
              "c": [-0.56, -0.06, -0.13, -0.17, 0.13, -0.56, -0.6, -0.41]},
    "u_grid": [-1.0, 0.0, 1.0], "v_grid": [0.5, -0.5],
    "payoff": {"kind": "constant", "value": 0.0},
}
AFFINE_9D = {
    "d": 9, "T": 1.0, "R": 1.0, "M1": 0.2788888888886099, "K1": 1.0,
    "drift": {"kind": "affine", "a": [[0.0] * 9] * 9, "bu": [[0.0]] * 9, "bv": [[0.0]] * 9,
              "c": [-0.16, 0.33, -0.09, 0.17, 0.68, 0.45, -0.27, -0.1, -0.26]},
    "u_grid": [-1.0, 0.0, 1.0], "v_grid": [0.5, -0.5],
    "payoff": {"kind": "constant", "value": 0.0},
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=json_games(max_d=3), variant=st.sampled_from(["json", "python", "near_drop"]),
       tiny=st.sampled_from([RATE_DROP_TOL, np.nextafter(RATE_DROP_TOL, 1.0), 0.0]),
       h=st.sampled_from([0.125, 0.25, 0.5]), t0=st.floats(0.0, 0.4, exclude_min=True),
       k0=st.lists(st.integers(-3, 3), min_size=9, max_size=9),
       w=st.lists(st.floats(-3.0, 3.0), min_size=2 * 9, max_size=2 * 9),
       s=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2), seed=st.integers(0, 2**16))
@example(data=AFFINE_8D, variant="json", tiny=0.0, h=0.125, t0=0.2,
         k0=[0, 2, -1, 0, 1, 0, -3, 0, 0], w=[1.0, -0.5, 0.0, 2.0, -1.5, 0.5, 0.25, -1.0, 0.0] * 2,
         s=[-1.0, 2.5], seed=11)
@example(data=AFFINE_9D, variant="json", tiny=0.0, h=0.125, t0=0.1,
         k0=[1, 0, -2, 0, 3, 0, 0, -1, 2], w=[0.5, -1.0, 2.0, 0.0, 1.5, -0.5, 1.0, 0.25, -2.0] * 2,
         s=[3.0, -2.0], seed=7)
def test_simulate_chain_matches_the_reference_loop(data, variant, tiny, h, t0, k0, w, s, seed):
    spec = game_from_dict(data, name="random")
    if variant == "python":
        spec = _time_scaled(spec, False)  # non-vectorized, and a drift of t
    elif variant == "near_drop":
        spec = _near_drop(spec, tiny)
    up = _feedback(spec.u_grid, w[:9], s[0])
    vp = _feedback(spec.v_grid, w[9:], s[1])
    x0 = h * np.array(k0[:spec.d], dtype=float)
    x0[x0 == 0.0] = -0.0  # a jump on another axis makes these +0.0
    for i in range(4):
        got = _outcome(lambda: _path(lg.simulate_chain(spec, up, vp, x0, h, t0=t0,
                                                       rng=lg.replica_rng(seed, i))))
        want = _outcome(lambda: _path(reference_chain(spec, up, vp, x0, h, t0=t0,
                                                      rng=lg.replica_rng(seed, i))))
        assert got == want
