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
one at a time; and a drift batch with one control pair per row must equal
the looped one-pair batches.  The monotone Euler sweep must keep every recorded slice
inside the payoff range, keep the upper value above the lower one, and not
lower any value when the payoff rises by a constant.  At the interior
points, the feedback table's first row and the upper Hamiltonian of its t=0
slice must equal, bit for bit, the argmin and the min of max_v of the
``chain.apply_generator`` tables on that slice.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

import latticegames as lg
from latticegames.games import game_from_dict

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
    return (table.times.tobytes(), table.u_index.tobytes(), table.value0.values.tobytes(),
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
            for scheme in ("euler", "rk4"):
                out[kind, scheme] = _outcome(lambda: _slices(lg.solve_backward(
                    spec, dom, kind=kind, scheme=scheme)))
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
    # the kernel against chain.apply_generator, one point and control pair at a time
    spec = game_from_dict(data, name="random")
    dom = lg.truncate_domain(spec, np.zeros(spec.d), h, pad=PAD)
    table = lg.feedback_table(spec, dom)
    value0 = table.value0

    def lookup(y):
        return value0.values[dom.index_of_state(y)]

    points = np.flatnonzero(lg.neighbor_tables(dom)[2])
    tables = np.array([[[lg.apply_generator(lookup, spec, value0.t, dom.state_of(p), u, v, h)
                         for v in spec.v_grid] for u in spec.u_grid] for p in points])
    inner = tables.max(axis=2)
    assert np.array_equal(table.u_index[0, points], np.argmin(inner, axis=1))
    field = lg.hamiltonian_field(value0.values, spec, value0.t, dom, "upper")
    assert field[points].tobytes() == inner.min(axis=1).tobytes()


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
    for offset, mass in lg.jump_measure(spec, t, x, u, v, h):
        i = int(np.flatnonzero(offset)[0])
        rates[i], signs[i] = mass, np.sign(offset[i])
    return rates, signs


def _characteristics_from_measure(spec, t, x, u, v, h):
    """b2 and sigma2 summed over the jump measure, one point at a time: the
    reference the batched ``chain_characteristics`` must reproduce."""
    b2 = np.zeros(spec.d)
    sigma2 = 0.0
    for offset, mass in lg.jump_measure(spec, t, x, u, v, h):
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
    batch = lg.run_extremal_shift_batch(spec, table, part, x0, adv, n_replicas=n, seed=seed)
    for i in range(n):
        single = lg.run_extremal_shift(spec, table, part, x0, adv, rng=lg.replica_rng(seed, i))
        assert np.float64(single.outcome).tobytes() == batch.outcomes[i].tobytes()
        assert np.float64(single.model_outcome).tobytes() == batch.model_outcomes[i].tobytes()
        assert single.sq_gap.tobytes() == batch.sq_gap[i].tobytes()
        assert len(single.jump_times) == batch.n_jumps[i]
