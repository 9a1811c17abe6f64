"""Gap-aiming feedback coupling: aiming rule, adversaries, paired replicas."""

import dataclasses

import numpy as np
import pytest

import latticegames as lg

AFFINE_GAME = {
    "d": 2, "T": 1.0,
    "drift": {"kind": "affine", "a": [[0.3, 1.0], [-1.0, 0.2]], "bu": [[1.0], [0.5]],
              "bv": [[0.2], [1.0]], "c": [0.1, -0.3]},
    "u_grid": [-1, 0, 1], "v_grid": [-1, 1], "payoff": {"kind": "norm"},
    "R": 1.0, "M1": 6.0, "K1": 1.5,
}


@pytest.fixture(scope="module")
def g1_solution():
    spec = lg.g1()
    dom = lg.truncate_domain(spec, [-1.0, 1.0], 0.05)
    eta = lg.solve_backward(spec, dom, kind="upper")  # dense slices
    return spec, eta


def test_partition_validation():
    with pytest.raises(lg.GameSpecError):
        lg.Partition(times=(0.0,))
    with pytest.raises(lg.GameSpecError):
        lg.Partition(times=(0.0, 0.5, 0.5))
    with pytest.raises(lg.GameSpecError):
        lg.Partition.uniform(0.0, 1.0, 0.0)


def test_partition_uniform():
    p = lg.Partition.uniform(0.0, 1.0, 0.01)
    assert p.n_intervals == 100
    assert p.t0 == 0.0 and p.t_end == 1.0
    assert p.diameter == pytest.approx(0.01)
    # diameter larger than the span still yields one interval
    assert lg.Partition.uniform(0.2, 0.3, 5.0).n_intervals == 1


def test_varpi_is_projected_drift():
    spec = lg.g1()
    # z - xi = +1, so varpi = u + v
    assert lg.varpi(spec, 0.0, [1.0], [0.0], 1.0, 0.5) == pytest.approx(1.5)
    assert lg.varpi(spec, 0.0, [1.0], [0.0], -1.0, 0.5) == pytest.approx(-0.5)
    with pytest.raises(lg.GameSpecError):
        lg.varpi(spec, 0.0, [1.0], [0.0], 1.0, 0.5, branch=3)


def test_varpi_branch_evaluation_point():
    # state-dependent drift distinguishes the two branches
    spec = lg.GameSpec(
        name="aff", d=1, T=1.0,
        drift=lambda t, x, u, v: (u + v) * (1.0 + x),
        u_grid=(-1.0, 1.0), v_grid=(-0.5, 0.5),
        payoff=lg.payoff_norm(), R=1.0, M1=6.0, K1=1.5, vectorized=True)
    b1 = lg.varpi(spec, 0.0, [1.0], [0.0], 1.0, 0.5, branch=1)  # f at z=1
    b2 = lg.varpi(spec, 0.0, [1.0], [0.0], 1.0, 0.5, branch=2)  # f at xi=0
    assert b1 == pytest.approx(3.0)
    assert b2 == pytest.approx(1.5)


def test_select_u_and_v_anchors():
    spec = lg.g1()
    iu, u = lg.select_u(spec, 0.0, [1.0], [0.0])
    assert (iu, u) == (0, -1.0)  # min_u max_v (u + v)
    iv, v = lg.select_v(spec, 0.0, [1.0], [0.0])
    assert (iv, v) == (2, 0.5)   # max_v min_u (u + v)
    # reversed displacement flips both selections
    assert lg.select_u(spec, 0.0, [0.0], [1.0])[0] == 2
    assert lg.select_v(spec, 0.0, [0.0], [1.0])[0] == 0


def test_model_feedback_follows_value_slope(g1_solution):
    spec, eta = g1_solution
    # on the |x| - 0.5(T-t) slope the minimizing player pushes toward zero
    assert lg.model_feedback(eta, spec, 0.0, np.array([1.0]))[0] == 0
    assert lg.model_feedback(eta, spec, 0.0, np.array([-1.0]))[0] == 2


def test_adversary_panel():
    spec = lg.g1()
    panel = lg.standard_adversaries(spec)
    assert tuple(a.name for a in panel) == ("constant", "bang_bang", "random", "worst_case")
    x = np.array([[0.4], [-0.2]])
    y = np.zeros((2, 1))
    vh = np.array([2, 1], dtype=np.int64)
    const, bang, rand, mirror = panel
    assert np.array_equal(const.select(0, 0.0, x, y, None, vh), [2, 2])
    assert np.array_equal(bang.select(0, 0.0, x, y, None, vh), [-1, 0])
    assert np.array_equal(mirror.select(0, 0.0, x, y, None, vh), vh)
    drawn = rand.pre_draw(lg.replica_rng(0, 0), 5)[None, :].repeat(2, axis=0)
    assert drawn.shape == (2, 5)
    assert np.array_equal(rand.select(3, 0.0, x, y, drawn, vh), drawn[:, 3])
    assert np.all((drawn >= 0) & (drawn < 3))


def test_single_replica_log_structure(g1_solution):
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    traj = lg.run_extremal_shift(spec, eta, part, [0.0], lg.MirrorAdversary(),
                                 rng=lg.replica_rng(0, 0))
    r = part.n_intervals
    assert traj.times.shape == (r + 1,)
    assert traj.node_x.shape == (r + 1, 1)
    assert traj.node_y.shape == (r + 1, 1)
    assert traj.u_indices.shape == (r,)
    assert traj.v_adv_indices.shape == (r,)
    assert traj.v_hat_indices.shape == (r,)
    assert traj.sq_gap.shape == (r + 1,)
    assert traj.sq_gap[0] == 0.0
    # model path stays on the lattice and jumps stay inside the partition span
    if len(traj.jump_times):
        assert traj.jump_times.min() >= 0.0 and traj.jump_times.max() < 1.0
        k = traj.jump_states / 0.05
        assert np.max(np.abs(k - np.round(k))) < 1e-9
    # outcomes are the terminal payoffs of the two paths
    assert traj.outcome == pytest.approx(abs(traj.dense_x[-1, 0]))
    assert traj.model_outcome == pytest.approx(abs(traj.node_y[-1, 0]))
    # mirror plays the aiming response
    assert np.array_equal(traj.v_adv_indices, traj.v_hat_indices)


def test_trajectory_interpolators(g1_solution):
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    traj = lg.run_extremal_shift(spec, eta, part, [0.0], lg.BangBangAdversary(),
                                 rng=lg.replica_rng(1, 0))
    assert np.array_equal(traj.x_at(-1.0), traj.dense_x[0])
    assert np.array_equal(traj.x_at(2.0), traj.dense_x[-1])
    assert np.array_equal(traj.y_at(0.0), traj.node_y[0])
    assert np.array_equal(traj.y_at(2.0), traj.node_y[-1])
    assert traj.interval_of(0.0) == 0
    assert traj.interval_of(1.0) == part.n_intervals - 1


def test_trajectory_csv_roundtrip(tmp_path, g1_solution):
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.1)
    traj = lg.run_extremal_shift(spec, eta, part, [0.0], lg.ConstantAdversary(),
                                 rng=lg.replica_rng(2, 0))
    out = tmp_path / "traj.csv"
    traj.write_csv(out, meta={"seed": 2})
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=2"
    assert lines[1] == "tau,x_1,y_1,u_index,v_index"
    assert len(lines) == 2 + len(np.unique(np.concatenate([traj.times, traj.jump_times])))
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0 and float(first[2]) == 0.0


@pytest.fixture(scope="module")
def affine_table():
    spec = lg.game_from_dict(AFFINE_GAME, name="affine")
    return spec, lg.feedback_table(spec, lg.truncate_domain(spec, [0.0, 0.0], 0.1))


# replica 5 differed between batch and single while the affine drift was a
# BLAS product, whose rounding of a row depends on the batch size
@pytest.mark.parametrize("case, x0, n", [
    ("g1_solution", [0.0], 4),
    ("affine_table", [0.0, 0.0], 8),
], ids=["g1", "affine"])
def test_batch_matches_looped_singles_bitwise(request, case, x0, n):
    spec, eta = request.getfixturevalue(case)
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    adv = lg.RandomAdversary(len(spec.v_grid))
    batch = lg.run_extremal_shift_batch(spec, eta, part, x0, adv,
                                        n_replicas=n, seed=9)
    for i in range(n):
        single = lg.run_extremal_shift(spec, eta, part, x0, adv,
                                       rng=lg.replica_rng(9, i))
        assert single.outcome == batch.outcomes[i]
        assert single.model_outcome == batch.model_outcomes[i]
        assert np.array_equal(single.sq_gap, batch.sq_gap[i])
    assert batch.adversary == "random"
    assert batch.n_replicas == n
    assert batch.n_jumps.shape == (n,)


def test_table_and_dense_solve_drive_identical_replicas(g1_solution):
    spec, eta = g1_solution
    table = lg.feedback_table(spec, eta.domain)
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    for adv in lg.standard_adversaries(spec):
        a = lg.run_extremal_shift_batch(spec, eta, part, [0.0], adv, n_replicas=50, seed=3)
        b = lg.run_extremal_shift_batch(spec, table, part, [0.0], adv, n_replicas=50, seed=3)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.sq_gap, b.sq_gap)
        assert np.array_equal(a.n_jumps, b.n_jumps)


def test_single_runs_convert_a_solve_result_once(g1_solution, monkeypatch):
    from latticegames import solver

    spec, dense = g1_solution
    eta = lg.solve_backward(spec, dense.domain, kind="upper")  # not converted yet
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    adv = lg.RandomAdversary(len(spec.v_grid))
    table = lg.feedback_table(spec, eta.domain)
    want = [lg.run_extremal_shift(spec, table, part, [0.0], adv, rng=lg.replica_rng(4, i))
            for i in range(5)]
    calls = []
    minimax = solver.minimax_control_indices

    def counted(*args, **kwargs):
        calls.append(1)
        return minimax(*args, **kwargs)

    monkeypatch.setattr(solver, "minimax_control_indices", counted)
    got = [lg.run_extremal_shift(spec, eta, part, [0.0], adv, rng=lg.replica_rng(4, i))
           for i in range(5)]
    assert len(calls) == len(eta.slices)  # one conversion for five runs
    assert lg.FeedbackTable.from_result(spec, eta) is lg.FeedbackTable.from_result(spec, eta)
    assert len(calls) == len(eta.slices)
    lg.FeedbackTable.from_result(lg.g1(), eta)  # another spec converts again
    assert len(calls) == 2 * len(eta.slices)
    for a, b in zip(want, got):
        assert a.outcome == b.outcome and np.array_equal(a.sq_gap, b.sq_gap)
        assert np.array_equal(a.jump_times, b.jump_times)


def test_frozen_boundary_moves_are_counted():
    # one control each and drift +1: the real state ends at the box face
    # x = M1*T when pad = 0, and about half the model chains try to pass it
    spec = lg.game_from_dict({
        "d": 1, "T": 1.0, "drift": {"kind": "control_sum"}, "u_grid": [0.0],
        "v_grid": [1.0], "payoff": {"kind": "norm"}, "R": 1.0, "M1": 1.0, "K1": 0.0})
    part = lg.Partition.uniform(0.0, 1.0, 0.05)
    tight = lg.truncate_domain(spec, [0.0], 0.05, pad=0.0)
    batch = lg.run_extremal_shift_batch(spec, lg.feedback_table(spec, tight), part, [0.0],
                                        lg.ConstantAdversary(), n_replicas=40, seed=0)
    assert batch.n_frozen.dtype == np.int64 and batch.n_frozen.shape == (40,)
    assert np.count_nonzero(batch.n_frozen) > 0
    # a frozen move is a self-loop: no model state leaves the box
    assert np.all(batch.model_outcomes <= tight.h * tight.hi[0] + 1e-12)
    roomy = lg.truncate_domain(spec, [0.0], 0.05, pad=2.0)
    batch = lg.run_extremal_shift_batch(spec, lg.feedback_table(spec, roomy), part, [0.0],
                                        lg.ConstantAdversary(), n_replicas=40, seed=0)
    assert not batch.n_frozen.any()


def test_batch_outcomes_near_value(g1_solution):
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.01)
    batch = lg.run_extremal_shift_batch(spec, eta, part, [0.0],
                                        lg.MirrorAdversary(), n_replicas=300, seed=0)
    est = lg.OutcomeEstimate.from_outcomes(batch.outcomes)
    # eta(0, 0) = 0.025 at h=0.05 and the certified radius is ~0.744
    assert est.mean <= 0.025 + 0.7444 + 3 * est.std_error


def test_engine_preconditions(g1_solution):
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    adv = lg.ConstantAdversary()
    with pytest.raises(lg.GameSpecError):
        lg.run_extremal_shift_batch(spec, eta, part, [0.0], adv, n_replicas=1)
    with pytest.raises(lg.GameSpecError):
        bad = lg.Partition.uniform(0.0, 0.5, 0.02)  # does not end at T
        lg.run_extremal_shift(spec, eta, bad, [0.0], adv)
    with pytest.raises(lg.GameSpecError):
        lg.run_extremal_shift(spec, eta, part, [5.0], adv)  # outside the box
    lower = lg.solve_backward(spec, eta.domain, kind="lower", checkpoints=[0.0])
    with pytest.raises(lg.GameSpecError):
        lg.run_extremal_shift(spec, lower, part, [0.0], adv)


def _late_drift(t, x, u, v):
    # per-row evaluation with a time dependence, for the non-vectorized path
    x = np.asarray(x, dtype=float)
    return np.array([u * x[1] + v * t, v - u * x[0]])


@pytest.mark.parametrize("vectorized", [True, False], ids=["g2", "per-row"])
def test_grouped_drift_matches_all_pairs(vectorized):
    # the engine's per-row control drift equals the looped one-pair batches
    spec = lg.g2() if vectorized else lg.GameSpec(
        name="rows", d=2, T=1.0, drift=_late_drift, u_grid=(-1.0, 0.5, 1.0),
        v_grid=(-1.0, 1.0), payoff=lg.g2().payoff, R=1.0, M1=5.0, K1=1.0)
    rng = np.random.default_rng(4)
    n = 40
    states = rng.uniform(-2.0, 2.0, size=(n, 2))
    iu = rng.integers(0, len(spec.u_grid), size=n).astype(np.uint8)
    iv = rng.integers(0, len(spec.v_grid), size=n)
    U, V = np.asarray(spec.u_grid), np.asarray(spec.v_grid)
    for t in (0.25, rng.uniform(0.0, 1.0, size=n)):
        pairs = np.stack([np.stack([lg.drift_batch(spec, t, states, u, v) for v in spec.v_grid])
                          for u in spec.u_grid])
        want = pairs[iu, iv, np.arange(n)]
        got = lg.drift_batch(spec, t, states, U[iu], V[iv])
        assert got.tobytes() == want.tobytes()


def test_engine_and_sampler_share_the_majorant_check(g1_solution):
    # a declared M1 below the drift: both thinning clocks refuse alike
    spec, eta = g1_solution
    lying = dataclasses.replace(spec, M1=0.5)
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    with pytest.raises(lg.GameSpecError, match="exceeds the majorant .*M1 is not a drift bound"):
        lg.run_extremal_shift_batch(lying, eta, part, [0.5], lg.ConstantAdversary(), n_replicas=4)
    with pytest.raises(lg.GameSpecError, match="exceeds the majorant .*M1 is not a drift bound"):
        lg.simulate_chain(lying, lambda t, y: 1.0, lambda t, y: 0.5, 0.0, eta.h, rng=0)


def test_engine_rejects_a_drift_that_is_not_finite(g1_solution):
    # NaN for t in (0.5, 0.6), past the feedback table built from g1 itself
    spec, eta = g1_solution
    table = lg.feedback_table(spec, eta.domain)

    def drift(t, x, u, v):
        t = np.asarray(t, dtype=float)[..., None]
        return np.where((t > 0.5) & (t < 0.6), np.nan, spec.drift(t, x, u, v))

    broken = dataclasses.replace(spec, drift=drift, autonomous=False)
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    with pytest.raises(lg.GameSpecError, match=r"drift not finite at t=0\.5"):
        lg.run_extremal_shift_batch(broken, table, part, [0.0], lg.ConstantAdversary(),
                                    n_replicas=20)
