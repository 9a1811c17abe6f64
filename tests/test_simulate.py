"""Sampling layer: RNG streams, ODE/chain paths, estimates, diagnostics."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import latticegames as lg


def const_policies(u=1.0, v=0.5):
    return (lambda t, y: u), (lambda t, y: v)


@pytest.fixture(scope="module")
def chain_paths():
    # constant controls u=1, v=0.5 on g1: drift 1.5, so a single upward jump
    # stream at constant rate 15 when h=0.1
    spec = lg.g1()
    up, vp = const_policies()
    return spec, 0.1, [
        lg.simulate_chain(spec, up, vp, 0.0, 0.1, rng=lg.replica_rng(5, i))
        for i in range(800)
    ]


def test_replica_rng_streams():
    a = lg.replica_rng(7, 3).uniform(size=4)
    b = lg.replica_rng(7, 3).uniform(size=4)
    c = lg.replica_rng(7, 4).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_outcome_estimate_anchor():
    est = lg.OutcomeEstimate.from_outcomes(np.array([0.0, 1.0]))
    assert est.n == 2
    assert est.mean == pytest.approx(0.5)
    assert est.std_error == pytest.approx(0.5)  # std ddof=1 is sqrt(1/2), / sqrt(2)
    assert est.ci_low == pytest.approx(0.5 - 1.96 * 0.5)
    assert est.ci_high == pytest.approx(0.5 + 1.96 * 0.5)


def test_outcome_estimate_needs_two():
    with pytest.raises(lg.GameSpecError):
        lg.OutcomeEstimate.from_outcomes(np.array([1.0]))


def test_integrate_ode_constant_drift_exact():
    spec = lg.g1()
    up, vp = const_policies()
    path = lg.integrate_ode(spec, up, vp, 0.0, n_steps=100)
    # constant drift: RK4 is exact, x(t) = 1.5 t
    assert path.final_state[0] == pytest.approx(1.5, abs=1e-12)
    assert path.state_at(0.5)[0] == pytest.approx(0.75, abs=1e-12)
    assert np.all(path.u_indices == 2)  # grid (-1, 0, 1)
    assert np.all(path.v_indices == 2)  # grid (-0.5, 0, 0.5)


def test_integrate_ode_validation():
    spec = lg.g1()
    up, vp = const_policies()
    with pytest.raises(lg.GameSpecError):
        lg.integrate_ode(spec, up, vp, 0.0, t0=1.0)
    with pytest.raises(lg.GameSpecError):
        lg.integrate_ode(spec, up, vp, np.zeros(2))
    with pytest.raises(lg.GameSpecError):
        lg.integrate_ode(spec, lambda t, x: 0.3, vp, 0.0)  # off-grid control
    with pytest.raises(lg.GameSpecError, match="off-grid control u=0.3"):
        lg.integrate_ode(spec, lambda t, x: 1.0 if t < 0.5 else 0.3, vp, 0.0)  # off-grid later


def test_rate_majorant_anchor():
    assert lg.rate_majorant(lg.g1(), 0.1) == pytest.approx(15.0)
    assert lg.rate_majorant(lg.g2(), 0.05) == pytest.approx(2 * 4.5 / 0.05)


def test_simulate_chain_lattice_and_time_structure(chain_paths):
    spec, h, paths = chain_paths
    path = paths[0]
    assert path.times[0] == 0.0
    assert path.times[-1] == spec.T
    assert np.all(np.diff(path.times) > 0)
    # states stay on the lattice
    k = path.states / h
    assert np.max(np.abs(k - np.round(k))) < 1e-9
    # each jump moves one coordinate by exactly h; here drift > 0 so upward
    ds = np.diff(path.states, axis=0)
    moved = np.any(ds != 0.0, axis=1)
    assert int(moved.sum()) == path.n_jumps
    assert np.allclose(np.abs(ds[moved]).sum(axis=1), h)
    assert np.all(ds[moved] >= 0.0)


def test_simulate_chain_rejects_off_lattice_start():
    spec = lg.g1()
    up, vp = const_policies()
    with pytest.raises(lg.GameSpecError):
        lg.simulate_chain(spec, up, vp, 0.03, 0.1)


def test_simulate_chain_rejects_off_grid_control(monkeypatch):
    spec = lg.g1()
    calls = []
    rates = lg.simulate.kolmogorov_rates
    monkeypatch.setattr(lg.simulate, "kolmogorov_rates",
                        lambda *args: calls.append(args) or rates(*args))
    with pytest.raises(lg.GameSpecError, match=r"policy returned off-grid control u=0\.3 v=0\.5"):
        lg.simulate_chain(spec, lambda t, y: 0.3, lambda t, y: 0.5, 0.0, 0.1)
    assert not calls  # rejected before the rates are evaluated
    # a majorant clock with no candidate before T: only the tail segment's
    # control is looked up
    quiet = dataclasses.replace(spec, M1=1e-9)
    with pytest.raises(lg.GameSpecError, match=r"policy returned off-grid control u=0\.0 v=0\.7"):
        lg.simulate_chain(quiet, lambda t, y: 0.0, lambda t, y: 0.7, 0.0, 0.1, rng=0)
    assert not calls


def test_simulate_chain_deterministic_per_seed():
    spec = lg.g1()
    up, vp = const_policies()
    a = lg.simulate_chain(spec, up, vp, 0.0, 0.1, rng=lg.replica_rng(3, 0))
    b = lg.simulate_chain(spec, up, vp, 0.0, 0.1, rng=lg.replica_rng(3, 0))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.n_jumps == b.n_jumps


def test_simulate_chain_zero_drift_never_jumps():
    spec = lg.g1()
    up, vp = const_policies(0.0, 0.0)
    path = lg.simulate_chain(spec, up, vp, 0.5, 0.1, rng=11)
    assert path.n_jumps == 0
    assert path.final_state[0] == 0.5


def test_simulate_chain_detects_rate_above_majorant():
    # declared M1 smaller than the actual drift: thinning must refuse
    spec = lg.GameSpec(
        name="lying", d=1, T=1.0,
        drift=lambda t, x, u, v: (u + v) * np.ones_like(x),
        u_grid=(-1.0, 0.0, 1.0), v_grid=(-0.5, 0.0, 0.5),
        payoff=lg.payoff_norm(), R=1.0, M1=0.5, K1=0.0, vectorized=True)
    up, vp = const_policies()
    with pytest.raises(lg.GameSpecError):
        lg.simulate_chain(spec, up, vp, 0.0, 0.1, rng=0)


def test_majorant_check_rejects_nan():
    lg.simulate.check_majorant(15.0, 15.0)
    for total in (15.1, float("nan"), float("inf")):
        with pytest.raises(lg.GameSpecError, match="exceeds the majorant"):
            lg.simulate.check_majorant(total, 15.0)


def test_simulate_chain_mean_drift(chain_paths):
    spec, h, paths = chain_paths
    finals = np.array([p.final_state[0] for p in paths])
    est = lg.OutcomeEstimate.from_outcomes(finals)
    # E Y(T) = integral of b2 = 1.5 T
    assert abs(est.mean - 1.5) <= 3 * est.std_error


def test_monte_carlo_outcome_deterministic():
    fn = lambda i, rng: rng.uniform()
    a = lg.monte_carlo_outcome(fn, 50, seed=4)
    b = lg.monte_carlo_outcome(fn, 50, seed=4)
    assert a == b
    assert 0.0 < a.mean < 1.0
    with pytest.raises(lg.GameSpecError):
        lg.monte_carlo_outcome(fn, 1, seed=4)


def test_moment_growth_exact_second_moment(chain_paths):
    spec, h, paths = chain_paths
    # constant drift c=1.5: E(Y(t)-Y(s))^2 = c^2 D^2 + c h D with D = t - s
    c, s, t = 1.5, 0.3, 0.5
    exact = c**2 * (t - s) ** 2 + c * h * (t - s)
    rep = lg.moment_growth_check(paths, s, t, spec, h=h, exact=exact)
    assert rep.matches_exact
    assert rep.within_bound
    assert rep.empirical == pytest.approx(exact, abs=4 * rep.std_error + 1e-12)


def test_moment_growth_validation(chain_paths):
    spec, h, paths = chain_paths
    with pytest.raises(lg.GameSpecError):
        lg.moment_growth_check(paths, 0.5, 0.5, spec, h=h)
    with pytest.raises(lg.GameSpecError):
        lg.moment_growth_check(paths[:1], 0.3, 0.5, spec, h=h)


def test_martingale_residual_linear_and_quadratic(chain_paths):
    spec, h, paths = chain_paths
    cps = [0.2, 0.4, 0.6, 0.8, 1.0]
    lin = lg.martingale_residual(paths, spec, h, "linear", [2.0], cps)
    quad = lg.martingale_residual(paths, spec, h, "quadratic", [0.3], cps)
    assert bool(np.all(lin.ci_contains_zero))
    assert bool(np.all(quad.ci_contains_zero))
    assert lin.max_abs_mean < 0.1
    assert quad.max_abs_mean < 0.2


def test_martingale_residual_validation(chain_paths):
    spec, h, paths = chain_paths
    with pytest.raises(lg.GameSpecError):
        lg.martingale_residual(paths, spec, h, "cubic", [2.0], [0.5])
    with pytest.raises(lg.GameSpecError):
        lg.martingale_residual(paths, spec, h, "linear", [2.0], [])
    with pytest.raises(lg.GameSpecError):
        lg.martingale_residual(paths, spec, h, "linear", [2.0, 1.0], [0.5])
    # a standard error needs two paths, as in moment_growth_check
    for few in (paths[:1], []):
        with pytest.raises(lg.GameSpecError, match="at least 2 paths"):
            lg.martingale_residual(few, spec, h, "linear", [2.0], [0.5])


def _state_at_loop(path, t):
    ts = path.times
    if t <= ts[0]:
        return path.states[0]
    if t >= ts[-1]:
        return path.states[-1]
    j = int(np.searchsorted(ts, t, side="right") - 1)
    return path.states[min(j, len(path.states) - 1)]


def _residual_loop(paths, spec, h, phi, a, checkpoints):
    """The compensator path by path, checkpoint by checkpoint, segment by
    segment, with one point ``chain_characteristics`` call per segment: the
    reference for ``martingale_residual``.  Returns (mean, standard error)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if phi == "linear":
        def phi_fn(y):
            return float(a @ y)

        def gen_fn(t, y, u, v):
            return float(a @ lg.chain_characteristics(spec, t, y, u, v, h)[0])
    else:
        def phi_fn(y):
            return float((y - a) @ (y - a))

        def gen_fn(t, y, u, v):
            b2, sigma2 = lg.chain_characteristics(spec, t, y, u, v, h)
            return sigma2 + 2.0 * float((y - a) @ b2)
    checkpoints = sorted(float(c) for c in checkpoints)
    res = np.empty((len(paths), len(checkpoints)))
    for p_i, path in enumerate(paths):
        base = phi_fn(path.states[0])
        for c_i, tc in enumerate(checkpoints):
            integral = 0.0
            for j in range(len(path.states)):
                lo, hi = float(path.times[j]), float(path.times[j + 1])
                if lo >= tc:
                    break
                seg_hi = min(hi, tc)
                if seg_hi <= lo:
                    continue
                u = spec.u_grid[int(path.u_indices[j])]
                v = spec.v_grid[int(path.v_indices[j])]
                integral += gen_fn(lo, path.states[j], u, v) * (seg_hi - lo)
            res[p_i, c_i] = phi_fn(_state_at_loop(path, tc)) - base - integral
    return np.mean(res, axis=0), np.std(res, axis=0, ddof=1) / math.sqrt(len(paths))


# For d >= 2 the residual sums its dot products axis by axis where the loop
# calls numpy's dot, which may fuse a multiply-add: each dot can differ in
# the last place.  Terms stay below 50 on these paths, so per-path residuals
# differ by well under 64 ulps of 50 (4.5e-13); the mean and standard error
# inherit that bound.
D2_RESIDUAL_ATOL = 64 * np.finfo(float).eps * 50


def _one_segment(spec, t0, x0, iu, iv):
    return lg.ChainPath(times=np.array([t0, spec.T]), states=np.array([x0], dtype=float),
                        u_indices=np.array([iu]), v_indices=np.array([iv]), n_jumps=0)


def _feedback_g1_paths(n):
    # state feedback from t0 = 0.3, time-switching second player
    spec = lg.g1()
    up = lambda t, y: -1.0 if y[0] > 0.0 else 1.0
    vp = lambda t, y: 0.5 if t < 0.6 else -0.5
    return [lg.simulate_chain(spec, up, vp, 0.2, 0.1, t0=0.3, rng=lg.replica_rng(8, i))
            for i in range(n)]


@pytest.mark.parametrize("phi, a", [("linear", [2.0]), ("quadratic", [0.3])],
                         ids=["linear", "quadratic"])
def test_martingale_residual_matches_segment_loop_bitwise(chain_paths, phi, a):
    spec, h, paths = chain_paths
    feedback = _feedback_g1_paths(60)
    cases = [
        # constant controls; checkpoints before t0, on segment ends, at T, after T
        (paths[:120], [-0.1, 0.0, float(paths[0].times[3]), float(paths[1].times[5]),
                       0.5, 1.0, 1.3]),
        # feedback paths starting at t0 > 0, mixed with one-segment paths
        (feedback + [_one_segment(spec, 0.3, [0.2], 2, 0), _one_segment(spec, 0.0, [0.0], 1, 1)],
         [0.1, 0.3, float(feedback[0].times[2]), 0.75, 1.0]),
        # one-segment paths only
        ([_one_segment(spec, 0.0, [0.1 * i], i % 3, 2) for i in range(5)], [0.0, 0.4, 1.0]),
    ]
    for case_paths, cps in cases:
        rep = lg.martingale_residual(case_paths, spec, h, phi, a, cps)
        mean, se = _residual_loop(case_paths, spec, h, phi, a, cps)
        assert rep.mean_residual.tobytes() == mean.tobytes()
        assert rep.std_error.tobytes() == se.tobytes()
        assert rep.checkpoints.tolist() == sorted(cps)


@pytest.mark.parametrize("phi, a", [("linear", [2.0, -0.7]), ("quadratic", [0.3, 0.1])],
                         ids=["linear", "quadratic"])
def test_martingale_residual_matches_segment_loop_on_g2(phi, a):
    spec = lg.g2()
    up = lambda t, y: spec.u_grid[int(y[0] > 0.0)]
    vp = lambda t, y: spec.v_grid[2 * int(y[1] < 0.1)]
    paths = [lg.simulate_chain(spec, up, vp, [0.1, -0.2], 0.1, rng=lg.replica_rng(2, i))
             for i in range(40)]
    cps = [0.0, 0.25, float(paths[0].times[3]), 1.0, 2.0]
    rep = lg.martingale_residual(paths, spec, 0.1, phi, a, cps)
    mean, se = _residual_loop(paths, spec, 0.1, phi, a, cps)
    np.testing.assert_allclose(rep.mean_residual, mean, rtol=0, atol=D2_RESIDUAL_ATOL)
    np.testing.assert_allclose(rep.std_error, se, rtol=0, atol=D2_RESIDUAL_ATOL)


def test_martingale_residual_calls_characteristics_once(chain_paths, monkeypatch):
    from latticegames import simulate

    spec, h, paths = chain_paths
    calls = []

    def counted(*args):
        calls.append(len(np.atleast_2d(args[2])))
        return lg.chain_characteristics(*args)

    monkeypatch.setattr(simulate, "chain_characteristics", counted)
    feedback = _feedback_g1_paths(30)
    assert len({(u, v) for p in feedback for u, v in zip(p.u_indices, p.v_indices)}) > 1
    lg.martingale_residual(feedback, spec, h, "quadratic", [0.3], [0.5, 1.0])
    assert calls == [sum(len(p.states) for p in feedback)]


def _chain_paths_sha256(paths) -> str:
    digest = hashlib.sha256()
    for p in paths:
        for arr in (p.times, p.states, p.u_indices, p.v_indices):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


# sha256 of g2 paths under state feedback, recorded before the chain's jump
# rule was shared with the engine: the axis pick and the acceptances vary
# from candidate to candidate, which the 1-d paths never exercise
GOLDEN_G2_CHAIN = "086e4f9adf73d162544d21b0e397e00361206f055c863b60af0f548ee641607d"


def test_g2_simulate_chain_matches_golden_digest():
    spec = lg.g2()

    def up(t, y):
        return 1.0 if y[0] > 0.3 else (-1.0 if y[0] < -0.3 else 0.0)

    def vp(t, y):
        return 0.0 if abs(y[1]) < 0.2 else (-1.0 if y[1] > 0.0 else 1.0)

    paths = [lg.simulate_chain(spec, up, vp, [0.5, -0.3], 0.1, t0=0.1 * (i % 3),
                               rng=lg.replica_rng(17, i))
             for i in range(60)]
    assert len({(u, v) for p in paths for u, v in zip(p.u_indices, p.v_indices)}) > 3
    moves = np.concatenate([np.diff(p.states, axis=0) for p in paths])
    assert np.any(moves[:, 0] != 0) and np.any(moves[:, 1] != 0)
    assert _chain_paths_sha256(paths) == GOLDEN_G2_CHAIN
