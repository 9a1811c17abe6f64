"""Viscous regularization: CFL bookkeeping, boundary freezing, gap metric."""

import numpy as np
import pytest

import latticegames as lg
from latticegames import solver
from latticegames.chain import LatticeDomain
from latticegames.solver import _laplacian
from latticegames.viscous import cfl_ceiling, solve_viscous
from oracles import neighbor_tables


def domain(dx=0.05, lo=-60, hi=60):
    return LatticeDomain(h=dx, lo=(lo,), hi=(hi,))


def test_cfl_ceiling_formula():
    spec = lg.g1()
    dx, sigma = 0.01, 0.4
    want = 1.0 / (2.0 * (spec.d * spec.M1 / dx + spec.d * sigma**2 / dx**2))
    assert cfl_ceiling(spec, dx, sigma) == pytest.approx(want)
    # sigma = 0 reduces to the advection ceiling
    assert cfl_ceiling(spec, dx, 0.0) == pytest.approx(dx / (2.0 * spec.M1))


def test_dt_above_cfl_rejected():
    spec = lg.g1()
    with pytest.raises(lg.StepSizeError):
        solve_viscous(spec, domain(), 0.3, dt=0.1)


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_a_non_finite_sigma_is_refused(sigma):
    with pytest.raises(lg.GameSpecError, match=f"sigma must be finite and >= 0, got {sigma}"):
        solve_viscous(lg.g1(), domain(), sigma)


def test_both_sweeps_refuse_an_unknown_kind():
    spec, dom = lg.g1(), domain()
    message = r"kind must be one of \('upper', 'lower'\), got 'middle'"
    with pytest.raises(lg.GameSpecError, match=message):
        lg.solve_backward(spec, dom, kind="middle")
    with pytest.raises(lg.GameSpecError, match=message):
        solve_viscous(spec, dom, 0.1, kind="middle")


def test_zero_viscosity_matches_backward_euler():
    # sigma = 0 degenerates to the first-order upwind transport solver, which
    # is the same scheme the chain solver integrates with explicit Euler
    spec = lg.g1()
    dom = domain()
    dt = 1e-3
    a = solve_viscous(spec, dom, 0.0, dt=dt, checkpoints=[0.0]).slice_at(0.0)
    b = lg.solve_backward(spec, dom, dt=dt, checkpoints=[0.0]).slice_at(0.0)
    inner = np.abs(dom.states()[:, 0]) <= 1.0  # away from the frozen ring
    assert np.max(np.abs(a.values[inner] - b.values[inner])) < 5e-3


def test_result_records_sigma():
    spec = lg.g1()
    res = solve_viscous(spec, domain(dx=0.1, lo=-25, hi=25), 0.3, checkpoints=[0.0, 0.5])
    assert isinstance(res, lg.SolveResult)
    assert res.sigma == 0.3 and res.h == 0.1
    assert res.times.tolist() == [0.5, 0.0]
    assert lg.solve_backward(spec, domain(dx=0.1, lo=-25, hi=25), checkpoints=[0.0]).sigma is None


def test_viscous_step_equals_the_table_reference_step():
    # one step on a d=3 box of unequal axes, against neighbours gathered
    # through neighbor_tables and the ring re-frozen through its mask
    spec = lg.game_from_dict({
        "d": 3, "T": 1.0, "R": 1.0, "M1": 12.0, "K1": 1.0,
        "drift": {"kind": "affine", "a": [[0.3, -1.0, 0.0], [1.0, 0.2, 0.5], [0.0, -0.5, -0.4]],
                  "bu": [[1.0], [0.0], [0.5]], "bv": [[0.5], [-0.5], [0.25]], "c": [0.1, 0.0, -0.2]},
        "u_grid": [-1, 0, 1], "v_grid": [-1, 1], "payoff": {"kind": "norm"}}, name="affine3")
    dom = LatticeDomain(h=0.25, lo=(-2, -3, -1), hi=(2, 2, 5))
    sigma, dt = 0.4, 0.5 * cfl_ceiling(spec, dom.h, 0.4)
    res = solve_viscous(spec, dom, sigma, dt=dt, checkpoints=[spec.T, spec.T - dt])
    values = res.slices[0].values
    up, down, interior = neighbor_tables(dom)
    lap = np.zeros(dom.n_points)
    for i in range(dom.d):
        lap += ((values[up[i]] - 2.0 * values) + values[down[i]]) / dom.h**2
    field = lg.hamiltonian_field(values, spec, spec.T, dom, "upper")
    want = np.where(interior, (field + 0.5 * sigma**2 * lap) * dt + values, values)
    assert res.slices[1].values.tobytes() == want.tobytes()


def _box_copy_laplacian(values, shape, dx2):
    """The Laplacian as the viscous step formed it before: per axis, copy
    rows of the up and down neighbours (a face copying itself), then
    ((up - 2V) + down) / dx2, summed from +0.0."""
    box = values.reshape(shape)
    lap = np.zeros(len(values))
    up_row, down_row = np.empty((2, len(values)))
    up_box, down_box = up_row.reshape(shape), down_row.reshape(shape)
    for i in range(len(shape)):
        below, above, first, last = solver._axis_slices(len(shape), i)
        up_box[below] = box[above]
        up_box[last] = box[last]
        down_box[above] = box[below]
        down_box[first] = box[first]
        lap += ((up_row - values * 2.0) + down_row) / dx2
    return lap


@pytest.mark.parametrize("shape", [(1,), (2,), (9,), (1, 1), (1, 5), (6, 1), (4, 7),
                                   (1, 1, 1), (3, 1, 4), (1, 4, 2), (5, 6, 7)])
def test_laplacian_equals_the_box_copy_form(shape):
    values = np.random.default_rng(len(shape) * 100 + sum(shape)).normal(size=int(np.prod(shape)))
    axes = [solver._axis_slices(len(shape), i) for i in range(len(shape))]
    lap, second, two = np.full((3, len(values)), np.nan)
    _laplacian(values, shape, axes, 0.3**2, lap, second, two)
    assert lap.tobytes() == _box_copy_laplacian(values, shape, 0.3**2).tobytes()


def test_range_check_fires():
    # f = x + 1 times the payoff's slope 8.5e307 overflows where x + 1 > 2.11:
    # the step stays monotone, but the values leave [min g, max g]
    spec = lg.GameSpec(name="overflow", d=1, T=1.0, drift=lambda t, x, u, v: x + 1.0,
                       u_grid=(0.0,), v_grid=(0.0,), payoff=lg.payoff_linear([8.5e307]),
                       R=8.5e307, M1=3.0, K1=1.0, vectorized=True)
    with np.errstate(over="ignore"), pytest.raises(lg.StepSizeError) as caught:
        solve_viscous(spec, domain(dx=0.05, lo=-40, hi=40), 0.0)
    assert caught.type is lg.StepSizeError
    assert str(caught.value).startswith("values at t=0.991667 leave the terminal payoff range")


def test_boundary_ring_frozen():
    spec = lg.g1()
    dom = domain(dx=0.1, lo=-25, hi=25)
    res = solve_viscous(spec, dom, 0.3, checkpoints=[0.0])
    grid = res.slice_at(0.0)
    _, _, interior = neighbor_tables(dom)
    g = np.abs(dom.states()[:, 0])
    assert np.array_equal(grid.values[~interior], g[~interior])


def test_viscous_value_decreases_with_sigma_toward_truth():
    spec = lg.g1()
    dom = domain(dx=0.02, lo=-150, hi=150)
    errs = []
    for sigma in (0.4, 0.2, 0.1):
        grid = solve_viscous(spec, dom, sigma, checkpoints=[0.0]).slice_at(0.0)
        pts = np.abs(dom.states()[:, 0]) <= 1.0
        truth = np.array([spec.closed_form(0.0, x) for x in dom.states()[pts]])
        errs.append(float(np.max(np.abs(grid.values[pts] - truth))))
    assert errs[0] > errs[1] > errs[2]


def test_viscosity_gap_shared_points():
    spec = lg.g1()
    a = solve_viscous(spec, domain(dx=0.1, lo=-25, hi=25), 0.2,
                      checkpoints=[0.0]).slice_at(0.0)
    b = solve_viscous(spec, domain(dx=0.05, lo=-50, hi=50), 0.2,
                      checkpoints=[0.0]).slice_at(0.0)
    # every point of the coarse mesh lies on the fine one
    idx = b.domain.indices_of_states(a.domain.states())
    assert np.all(idx >= 0)
    gap = float(np.max(np.abs(a.values - b.values[idx])))
    assert gap >= 0.0
    assert gap < 0.05  # same sigma on nested meshes agrees closely


def test_upper_lower_orders_for_viscous():
    # coupled control term: lower commits v first and can only do worse for v
    spec = lg.GameSpec(
        name="coupled", d=1, T=0.5,
        drift=lambda t, x, u, v: u * v * np.ones_like(x),
        u_grid=(-1.0, 1.0), v_grid=(-1.0, 1.0),
        payoff=lg.payoff_norm(), R=1.0, M1=1.0, K1=0.0, vectorized=True)
    dom = LatticeDomain(h=0.1, lo=(-30,), hi=(30,))
    up = solve_viscous(spec, dom, 0.2, kind="upper", checkpoints=[0.0]).slice_at(0.0)
    lo = solve_viscous(spec, dom, 0.2, kind="lower", checkpoints=[0.0]).slice_at(0.0)
    assert np.all(lo.values <= up.values + 1e-12)
