"""Gap-aiming feedback coupling: aiming rule, adversaries, paired replicas."""

import dataclasses
import os
import signal
from unittest import mock

import numpy as np
import pytest

import latticegames as lg
from latticegames import shift
from latticegames.shift import _ROW_FIELDS, _aim
from oracles import forced_blocks

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
    return spec, lg.feedback_table(spec, dom)


def test_partition_validation():
    with pytest.raises(lg.GameSpecError):
        lg.Partition(times=(0.0,))
    with pytest.raises(lg.GameSpecError):
        lg.Partition(times=(0.0, 0.5, 0.5))
    with pytest.raises(lg.GameSpecError):
        lg.Partition.uniform(0.0, 1.0, 0.0)


@pytest.mark.parametrize("make, message", [
    (lambda: lg.Partition(times=(0.0, np.nan, 1.0)), "partition times must be finite"),
    (lambda: lg.Partition(times=(0.0, np.inf)), "partition times must be finite"),
    (lambda: lg.Partition.uniform(0.0, 1.0, np.nan), "diameter must be > 0, got nan"),
    (lambda: lg.Partition.uniform(0.0, np.nan, 0.1), "need finite t0 < t_end"),
    (lambda: lg.Partition.uniform(0.0, np.inf, 0.1), "need finite t0 < t_end"),
], ids=["times-nan", "times-inf", "diameter-nan", "t_end-nan", "t_end-inf"])
def test_partition_refuses_non_finite_times(make, message):
    with pytest.raises(lg.GameSpecError, match=message):
        make()


def test_partition_uniform():
    p = lg.Partition.uniform(0.0, 1.0, 0.01)
    assert p.n_intervals == 100
    assert p.t0 == 0.0 and p.t_end == 1.0
    assert p.diameter == pytest.approx(0.01)
    # diameter larger than the span still yields one interval
    assert lg.Partition.uniform(0.2, 0.3, 5.0).n_intervals == 1


def test_aim_anchors_and_ties():
    spec = lg.g1()
    # rows: gap x - y = +1, -1 and 0; the forms are +-(u + v), or all 0
    x = np.array([[1.0], [0.0], [0.3]])
    y = np.array([[0.0], [1.0], [0.3]])
    u_sel, v_hat = _aim(spec, 0.0, x, y)
    # min_u max_v and max_v min_u of +-(u + v) on u in (-1, 0, 1), v in (-0.5, 0, 0.5);
    # a zero gap ties every pair, and the lowest index wins
    assert u_sel.tolist() == [0, 2, 0]
    assert v_hat.tolist() == [2, 0, 0]


def test_aim_takes_the_drift_at_the_real_state():
    # f = (u + v)(1 - 2x) changes sign between x = 0 and x = 1, so taking the
    # drift at the model state y would flip both selections on both rows
    spec = lg.GameSpec(
        name="flip", d=1, T=1.0,
        drift=lambda t, x, u, v: (u + v) * (1.0 - 2.0 * x),
        u_grid=(-1.0, 1.0), v_grid=(-0.5, 0.5),
        payoff=lg.payoff_norm(), R=1.0, M1=6.0, K1=1.5, vectorized=True)
    u_sel, v_hat = _aim(spec, 0.0, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    assert u_sel.tolist() == [1, 1]
    assert v_hat.tolist() == [0, 0]


def test_model_feedback_follows_value_slope(g1_solution):
    _, table = g1_solution
    # on the |x| - 0.5(T-t) slope the minimizing player pushes toward zero
    assert table.times[0] == 0.0
    assert table.u_at(0, table.domain.index_of_state([1.0])) == 0
    assert table.u_at(0, table.domain.index_of_state([-1.0])) == 2


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


@pytest.mark.parametrize("adversary", lg.standard_adversaries(lg.g1()),
                         ids=lambda a: a.name)
def test_engine_holds_the_logged_controls(g1_solution, adversary):
    # g1's drift u + v ignores x: over each interval the real state moves by
    # the logged held controls times the interval length
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    traj = lg.run_extremal_shift(spec, eta, part, [0.0], adversary, rng=lg.replica_rng(3, 0))
    U, V = np.asarray(spec.u_grid), np.asarray(spec.v_grid)
    held = (U[traj.u_indices] + V[traj.v_adv_indices]) * np.diff(traj.times)
    assert np.abs(np.diff(traj.node_x[:, 0]) - held).max() <= 1e-12
    assert len(np.unique(traj.u_indices)) > 1  # the aiming control does switch


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
    batch = lg.run_extremal_shift_batch(spec, eta, part, x0, [adv],
                                        n_replicas=n, seed=9)
    for i in range(n):
        single = lg.run_extremal_shift(spec, eta, part, x0, adv,
                                       rng=lg.replica_rng(9, i))
        assert single.outcome == batch.outcomes[i]
        assert single.model_outcome == batch.model_outcomes[i]
        assert np.array_equal(single.sq_gap, batch.sq_gap[i])
    assert batch.adversaries == ("random",)
    assert batch.n_replicas == n
    assert batch.n_jumps.shape == (n,)


def test_empty_panel_is_rejected(g1_solution):
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    with pytest.raises(lg.GameSpecError, match="adversary panel is empty"):
        lg.run_extremal_shift_batch(spec, eta, part, [0.0], [], n_replicas=4)


class _PicksOnInterval2:
    """Plays grid element 0, and ``picks`` as is on interval 2."""

    name = "picks"

    def __init__(self, picks):
        self.picks = picks

    def pre_draw(self, rng, n_intervals):
        return None

    def select(self, interval, t, x, y, drawn, v_hat):
        return self.picks if interval == 2 else np.zeros(len(x), dtype=np.int64)


def test_adversary_selections_are_checked(g1_solution):
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    nv = len(spec.v_grid)
    for picks in (np.full(4, nv), np.full(4, -nv - 1), np.zeros(1, dtype=np.int64), np.zeros(4)):
        with pytest.raises(lg.GameSpecError) as err:
            lg.run_extremal_shift_batch(spec, eta, part, [0.0],
                                        [lg.ConstantAdversary(), _PicksOnInterval2(picks)],
                                        n_replicas=4)
        assert str(err.value) == (f"adversary 'picks' must select 4 integer indices in "
                                  f"[{-nv}, {nv}) on interval 2 (t=0.04), got {picks!r}")
    # -nv..-1 count from the end of the grid, as ConstantAdversary's default does
    lg.run_extremal_shift_batch(spec, eta, part, [0.0], [_PicksOnInterval2(np.full(4, -nv))],
                                n_replicas=4)


def test_frozen_boundary_moves_are_counted():
    # one control each and drift +1: the real state ends at the box face
    # x = M1*T when pad = 0, and about half the model chains try to pass it
    spec = lg.game_from_dict({
        "d": 1, "T": 1.0, "drift": {"kind": "control_sum"}, "u_grid": [0.0],
        "v_grid": [1.0], "payoff": {"kind": "norm"}, "R": 1.0, "M1": 1.0, "K1": 0.0})
    part = lg.Partition.uniform(0.0, 1.0, 0.05)
    tight = lg.truncate_domain(spec, [0.0], 0.05, pad=0.0)
    batch = lg.run_extremal_shift_batch(spec, lg.feedback_table(spec, tight), part, [0.0],
                                        [lg.ConstantAdversary()], n_replicas=40, seed=0)
    assert batch.n_frozen.dtype == np.int64 and batch.n_frozen.shape == (40,)
    assert np.count_nonzero(batch.n_frozen) > 0
    # a frozen move is a self-loop: no model state leaves the box
    assert np.all(batch.model_outcomes <= tight.h * tight.hi[0] + 1e-12)
    roomy = lg.truncate_domain(spec, [0.0], 0.05, pad=2.0)
    batch = lg.run_extremal_shift_batch(spec, lg.feedback_table(spec, roomy), part, [0.0],
                                        [lg.ConstantAdversary()], n_replicas=40, seed=0)
    assert not batch.n_frozen.any()


def test_batch_outcomes_near_value(g1_solution):
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.01)
    batch = lg.run_extremal_shift_batch(spec, eta, part, [0.0],
                                        [lg.MirrorAdversary()], n_replicas=300, seed=0)
    est = lg.OutcomeEstimate.from_outcomes(batch.outcomes)
    # eta(0, 0) = 0.025 at h=0.05 and the certified radius is ~0.744
    assert est.mean <= 0.025 + 0.7444 + 3 * est.std_error


def test_engine_preconditions(g1_solution):
    spec, eta = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.02)
    adv = lg.ConstantAdversary()
    with pytest.raises(lg.GameSpecError):
        lg.run_extremal_shift_batch(spec, eta, part, [0.0], [adv], n_replicas=1)
    with pytest.raises(lg.GameSpecError):
        bad = lg.Partition.uniform(0.0, 0.5, 0.02)  # does not end at T
        lg.run_extremal_shift(spec, eta, bad, [0.0], adv)
    with pytest.raises(lg.GameSpecError):
        lg.run_extremal_shift(spec, eta, part, [5.0], adv)  # outside the box
    with pytest.raises(lg.GameSpecError, match=r"x0 shape \(2,\) does not match d=1"):
        lg.run_extremal_shift(spec, eta, part, [0.0, 0.0], adv)
    # a SolveResult of either kind is no engine input
    for kind in ("upper", "lower"):
        result = lg.solve_backward(spec, eta.domain, kind=kind, checkpoints=[0.0])
        with pytest.raises(lg.GameSpecError, match=r"feedback_table\(spec, domain\)"):
            lg.run_extremal_shift(spec, result, part, [0.0], adv)
        with pytest.raises(lg.GameSpecError, match=r"feedback_table\(spec, domain\)"):
            lg.run_extremal_shift_batch(spec, result, part, [0.0], [adv], n_replicas=2)
    # a table of another game, dimension or horizon
    other = lg.game_from_dict({"d": 1, "T": 1.0, "drift": {"kind": "control_sum"},
                               "u_grid": [-1, 1], "v_grid": [-0.5, 0.5],
                               "payoff": {"kind": "norm"}, "R": 1.0, "M1": 1.5, "K1": 0.0},
                              name="other")
    for wrong in (other, dataclasses.replace(lg.g2(), name=spec.name), lg.g2(),
                  dataclasses.replace(spec, T=2.0)):
        wrong_part = lg.Partition.uniform(0.0, wrong.T, 0.02)
        with pytest.raises(lg.GameSpecError, match="feedback table was built for game 'g1'"):
            lg.run_extremal_shift_batch(wrong, eta, wrong_part, np.zeros(wrong.d), [adv],
                                        n_replicas=2)


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
        lg.run_extremal_shift_batch(lying, eta, part, [0.5], [lg.ConstantAdversary()], n_replicas=4)
    with pytest.raises(lg.GameSpecError, match="exceeds the majorant .*M1 is not a drift bound"):
        lg.simulate_chain(lying, lambda t, y: 1.0, lambda t, y: 0.5, 0.0, eta.h, rng=0)


def test_engine_rejects_a_drift_that_is_not_finite(g1_solution):
    # NaN past the feedback table built from g1 itself
    spec, table = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.02)

    def late(t, x, u, v):  # NaN for t in (0.5, 0.6)
        t = np.asarray(t, dtype=float)[..., None]
        return np.where((t > 0.5) & (t < 0.6), np.nan, spec.drift(t, x, u, v))

    def off_lattice(t, x, u, v):  # NaN off the mesh-0.05 lattice: the model never sees it
        k = np.asarray(x, dtype=float) / 0.05
        return np.where(np.abs(k - np.round(k)) < 1e-9, spec.drift(t, x, u, v), np.nan)

    def one_pair(t, x, u, v):  # NaN for one control pair, off the engine's held controls
        return np.where((np.asarray(u) == 0.0) & (np.asarray(v) == -0.5), np.nan,
                        spec.drift(t, x, u, v))

    for drift, where in [(late, r"t=0\.5"),
                         (off_lattice, r"t=0\.0, x=\[0\.0\] or on the real path"),
                         (one_pair, r"t=0\.0, x=\[0\.0\]$")]:
        broken = dataclasses.replace(spec, drift=drift, autonomous=False)
        with pytest.raises(lg.GameSpecError, match=r"drift not finite at " + where):
            lg.run_extremal_shift_batch(broken, table, part, [0.0], [lg.ConstantAdversary()],
                                        n_replicas=20)


def test_excess_falls_as_the_partition_refines(g1_solution):
    # guarantee_thm1 carries no partition-diameter term: the verdict is the
    # diameter -> 0 limit, and the excess over eta(0, 0) shrinks toward it
    spec, table = g1_solution
    eta0 = table.value0.value_at([0.0])
    bound = lg.assemble(spec, 0.05).guarantee_thm1
    rows = []
    for delta in (0.04, 0.02, 0.01):
        batch = lg.run_extremal_shift_batch(spec, table, lg.Partition.uniform(0.0, spec.T, delta),
                                            [0.0], [lg.ConstantAdversary()], n_replicas=400,
                                            seed=0)
        est = lg.OutcomeEstimate.from_outcomes(batch.outcomes)
        rows.append((est.mean - eta0, est.std_error))
    for (coarse, se_c), (fine, se_f) in zip(rows, rows[1:]):
        assert coarse - fine > 3.0 * np.hypot(se_c, se_f)
    assert all(excess < bound for excess, _ in rows)


# ---------------------------------------------------------------------------
# batches split into blocks of replicas


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rows(batch) -> list[bytes]:
    return [getattr(batch, field).tobytes() for field in _ROW_FIELDS]


class _Recorder(lg.ConstantAdversary):
    """Keeps each replica's first adversary draw, in replica order."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def pre_draw(self, rng, n_intervals):
        self.keys.append(rng.random())


class _Tripwire(lg.ConstantAdversary):
    """Raises at the interval ``trips`` maps a replica's first adversary draw
    to, naming the interval and the row of the batch it runs in."""

    def __init__(self, trips: dict):
        super().__init__()
        self.trips = trips

    def pre_draw(self, rng, n_intervals):
        return np.array([self.trips.get(rng.random(), n_intervals)])

    def select(self, interval, t, x, y, drawn, v_hat):
        hit = np.flatnonzero(drawn[:, 0] == interval)
        if len(hit):
            raise lg.GameSpecError(f"tripped at interval {interval}, row {hit[0]}")
        return super().select(interval, t, x, y, drawn, v_hat)


@pytest.mark.parametrize("trips, message", [
    # only the last replica, in the last block, trips
    ({9: 3}, "tripped at interval 3, row 9"),
    # the caller's block trips later than the last block
    ({0: 6, 9: 3}, "tripped at interval 3, row 9"),
], ids=["worker-only", "worker-first"])
def test_engine_blocks_raise_the_one_block_errors(g1_solution, trips, message):
    spec, table = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.1)
    recorder = _Recorder()
    lg.run_extremal_shift_batch(spec, table, part, [0.0], [recorder], n_replicas=10, seed=3)
    adversary = _Tripwire({recorder.keys[i]: interval for i, interval in trips.items()})

    def run():
        with pytest.raises(lg.GameSpecError) as info:
            lg.run_extremal_shift_batch(spec, table, part, [0.0], [adversary], n_replicas=10,
                                        seed=3)
        return str(info.value)

    assert run() == message
    with forced_blocks(3):  # replicas 0-2, 3-5 and 6-9
        assert run() == message
    _no_children_left()


def test_a_one_block_batch_is_its_replicas_run_as_one(g1_solution):
    spec, table = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.1)
    panel = lg.standard_adversaries(spec)
    rngs = [lg.replica_rng(4, i) for i in range(7)]
    want = _rows(shift._run_replicas(spec, table, part, [0.0], panel, rngs,
                                     record_paths=False)[0])
    with forced_blocks(1), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        batch = lg.run_extremal_shift_batch(spec, table, part, [0.0], panel, n_replicas=7,
                                            seed=4)
    assert fork.call_count == 0
    assert _rows(batch) == want


def test_a_one_block_batch_that_raises_is_run_once(g1_solution):
    spec, table = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.1)
    recorder = _Recorder()
    lg.run_extremal_shift_batch(spec, table, part, [0.0], [recorder], n_replicas=10, seed=3)
    adversary = _Tripwire({recorder.keys[9]: 3})
    with forced_blocks(1), mock.patch.object(shift, "_run_replicas",
                                             wraps=shift._run_replicas) as run:
        with pytest.raises(lg.GameSpecError, match="tripped at interval 3, row 9"):
            lg.run_extremal_shift_batch(spec, table, part, [0.0], [adversary], n_replicas=10,
                                        seed=3)
    assert run.call_count == 1
    _no_children_left()


class _WorkerKiller(lg.ConstantAdversary):
    """Kills any process but the one that made it."""

    def __init__(self):
        super().__init__()
        self.caller = os.getpid()

    def pre_draw(self, rng, n_intervals):
        if os.getpid() != self.caller:
            os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_engine_worker_is_a_resource_error(g1_solution):
    spec, table = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.1)
    with forced_blocks(2), pytest.raises(lg.ResourceError, match="worker ended"):
        lg.run_extremal_shift_batch(spec, table, part, [0.0], [_WorkerKiller()], n_replicas=4)
    _no_children_left()


def test_an_engine_block_whose_fork_fails_is_stepped_by_the_caller(g1_solution, monkeypatch):
    spec, table = g1_solution
    part = lg.Partition.uniform(0.0, 1.0, 0.1)
    panel = lg.standard_adversaries(spec)
    one = _rows(lg.run_extremal_shift_batch(spec, table, part, [0.0], panel, n_replicas=7))
    fork, forks = os.fork, []

    def first_fork_only():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", first_fork_only)
    with forced_blocks(3):
        split = _rows(lg.run_extremal_shift_batch(spec, table, part, [0.0], panel, n_replicas=7))
    assert len(forks) == 1
    assert split == one
    _no_children_left()
