"""Lattice domain, jump measures, and generator identities."""

import numpy as np
import pytest

import latticegames as lg
from latticegames.chain import LatticeDomain, chain_characteristics, kolmogorov_rates, pick_axis
from oracles import apply_generator, chi, jump_measure, neighbor_tables


def make_domain(h=0.1, lo=(-20,), hi=(20,)):
    return LatticeDomain(h=h, lo=lo, hi=hi)


def test_chi_sign():
    assert chi(2.0) == 1
    assert chi(-0.3) == -1
    assert chi(0.0) == 0
    assert chi(1e-16) == 0  # below the rate drop tolerance


def test_domain_box_points():
    dom = LatticeDomain(h=0.1, lo=(-20, -20), hi=(20, 20))
    assert dom.d == 2
    assert dom.shape == (41, 41)
    assert dom.n_points == 41 * 41


def test_domain_index_roundtrip():
    dom = make_domain()
    for k in (-20, -3, 0, 7, 20):
        idx = dom.index_of(np.array([k]))
        assert (np.unravel_index(idx, dom.shape) + np.asarray(dom.lo)).tolist() == [k]
    with pytest.raises(lg.TruncationError):
        dom.index_of(np.array([21]))


def test_indices_of_states_marks_misses():
    dom = make_domain(h=0.5, lo=(-4,), hi=(4,))
    xs = np.array([[-2.0], [0.5], [0.25], [2.5], [1.5]])
    assert dom.indices_of_states(xs).tolist() == [0, 5, -1, -1, 7]
    assert dom.indices_of_states([1.5])[0] >= 0 and not dom.indices_of_states([0.25])[0] >= 0


def test_a_nan_state_is_off_the_lattice(tmp_path):
    # every on-lattice check refuses NaN, and casts no NaN to an integer
    dom = make_domain(h=0.5, lo=(-4,), hi=(4,))
    assert dom.indices_of_states([[np.nan], [1.5]]).tolist() == [-1, 7]
    with pytest.raises(lg.TruncationError, match="not on the mesh-0.5 lattice"):
        dom.index_of_state([np.nan])
    with pytest.raises(lg.GameSpecError, match="not on the mesh-0.5 lattice"):
        lg.simulate_chain(lg.g1(), lambda t, y: 0.0, lambda t, y: 0.0, [np.nan], 0.5)
    path = tmp_path / "nan.csv"
    path.write_text("t,x_1,value\n0,0,1\n0,nan,1\n")
    with pytest.raises(lg.GameSpecError, match="do not sit on a mesh-0.5 lattice"):
        lg.read_slice_csv(path, 0.5)


def test_nearest_lattice_ties_round_down():
    dom = make_domain(h=0.5, lo=(-4,), hi=(4,))
    assert dom.nearest_lattice(np.array([0.74])).tolist() == [1]
    assert dom.nearest_lattice(np.array([0.76])).tolist() == [2]
    # exact midpoint 0.75 between 0.5 and 1.0 goes to the lower point
    assert dom.nearest_lattice(np.array([0.75])).tolist() == [1]
    assert dom.nearest_lattice(np.array([-0.75])).tolist() == [-2]


def test_mesh_validation():
    with pytest.raises(lg.GameSpecError):
        LatticeDomain(h=0.0, lo=(0,), hi=(1,))
    with pytest.raises(lg.GameSpecError):
        LatticeDomain(h=-0.1, lo=(0,), hi=(1,))
    with pytest.warns(UserWarning):
        LatticeDomain(h=1.5, lo=(0,), hi=(1,))


def test_a_non_integral_bound_is_refused():
    # int() would truncate lo=0.5 to 0 without a word
    for lo, hi in [((0.5,), (3,)), ((0,), (np.nan,)), ((0,), (np.inf,))]:
        with pytest.raises(lg.GameSpecError, match="lo and hi must be integers"):
            LatticeDomain(h=0.1, lo=lo, hi=hi)
    dom = LatticeDomain(h=0.1, lo=(np.int64(-2), 1.0), hi=(3.0, np.int32(4)))
    assert (dom.lo, dom.hi) == ((-2, 1), (3, 4))
    assert all(type(k) is int for k in dom.lo + dom.hi)


def test_jump_measure_single_coordinate():
    # f = 2 at mesh 0.5: one jump of +0.5 at rate 4
    spec = lg.GameSpec(name="c", d=1, T=1.0,
                       drift=lambda t, x, u, v: np.array([2.0]),
                       u_grid=(0.0,), v_grid=(0.0,),
                       payoff=lambda x: 0.0, R=1.0, M1=2.0, K1=0.0)
    jumps = jump_measure(spec, 0.0, np.array([0.0]), 0.0, 0.0, 0.5)
    assert len(jumps) == 1
    off, mass = jumps[0]
    assert off.tolist() == [0.5]
    assert mass == 4.0


def test_jump_measure_g1():
    spec = lg.g1()
    jumps = jump_measure(spec, 0.0, np.array([0.3]), 1.0, 0.5, 0.1)
    assert len(jumps) == 1
    off, mass = jumps[0]
    assert off.tolist() == [pytest.approx(0.1)]
    assert mass == pytest.approx(15.0)


def test_jump_measure_drops_zero_rates():
    spec = lg.g1()
    assert jump_measure(spec, 0.0, np.array([0.3]), 0.0, 0.0, 0.1) == []


def test_kolmogorov_rates_row_sum_zero():
    # the diagonal is the negated outflow, so constants are in the kernel
    spec = lg.g2()
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        t = rng.uniform(0, 1)
        f, rates = kolmogorov_rates(spec, t, x, 1.0, -1.0, 0.1)
        assert f.tobytes() == spec.drift(t, x, 1.0, -1.0).tobytes()
        masses = {int(np.flatnonzero(off)[0]): mass
                  for off, mass in jump_measure(spec, t, x, 1.0, -1.0, 0.1)}
        assert rates.tolist() == [masses.get(i, 0.0) for i in range(spec.d)]
        assert rates.sum() == sum(masses.values())
        assert apply_generator(lambda y: 7.25, spec, t, x, 1.0, -1.0, 0.1) == 0.0


def test_kolmogorov_rates_drop_tiny_components_and_reject_non_finite():
    spec = lg.GameSpec(name="rows", d=2, T=1.0, vectorized=True,
                       drift=lambda t, x, u, v: np.stack([x[:, 0] * 1e-15, -x[:, 1]], axis=1),
                       u_grid=(0.0,), v_grid=(0.0,), payoff=lambda x: 0.0, R=1.0, M1=2.0,
                       K1=0.0)
    xs = np.array([[1.0, 2.0], [5.0, 0.0], [-3.0, -1e-15]])
    f, rates = kolmogorov_rates(spec, 0.0, xs, 0.0, 0.0, 0.5)
    assert f.shape == rates.shape == (3, 2)
    assert rates.tolist() == [[0.0, 4.0], [0.0, 0.0], [0.0, 0.0]]
    xs[1, 1] = np.nan
    with pytest.raises(lg.GameSpecError, match=r"drift not finite at t=0.25, x=\[5.0, nan\]"):
        kolmogorov_rates(spec, np.array([0.0, 0.25, 0.5]), xs, 0.0, 0.0, 0.5)


def _pick_by_target_loop(rates, uniform):
    """The thinning sampler's former axis choice, kept as the oracle: a
    running sum over the active axes in order picks the first with
    uniform * total < sum, else the last active axis.  The total is the last
    running sum: numpy's ``sum`` adds 8 or more values pairwise."""
    active = [i for i, r in enumerate(rates) if r > 0]
    pick = uniform * float(np.cumsum(rates[active])[-1])
    acc = 0.0
    for i in active:
        acc += rates[i]
        if pick < acc:
            return i
    return active[-1]


def test_pick_axis_matches_the_target_loop():
    below_one = np.nextafter(1.0, 0.0)
    width = 10  # past numpy's block of 8 values
    rows = np.pad(np.array([
        [0.0, 2.0, 0.0, 0.0, 6.0, 0.0, 0.0],   # zero rates between and after
        [1.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.5],
        [0.25, 0.25, 0.5, 0.0, 1.0, 0.0, 2.0],
    ]), ((0, 0), (0, width - 7)))
    # ten active axes: the last running sum is 5.2, numpy's pairwise sum 1 ulp less
    rows = np.vstack([rows, [0.5, 0.5, 0.7, 0.9, 0.1, 0.2, 0.8, 0.9, 0.3, 0.3]])
    # 0, 1 - 2^-53, and uniforms landing exactly on a cumulative boundary
    cases = [(r, float(u)) for r in range(len(rows)) for cum in [np.cumsum(rows[r])]
             for u in [0.0, below_one, *cum / cum[-1]] if u < 1.0]
    on_boundary = [(r, u) for r, u in cases if u * np.cumsum(rows[r])[-1] in np.cumsum(rows[r])]
    assert len(on_boundary) >= 8 and sum(r == 4 for r, _ in on_boundary) >= 4
    rng = np.random.default_rng(6)
    for _ in range(2000):
        d = int(rng.integers(1, width + 1))
        row = np.where(rng.uniform(size=d) < 0.4, 0.0, rng.exponential(size=d))
        if row.any():
            rows = np.vstack([rows, np.pad(row, (0, width - d))])
            cases.append((len(rows) - 1, float(rng.uniform())))
    idx = np.array([r for r, _ in cases])
    us = np.array([u for _, u in cases])
    batch = pick_axis(rows[idx], us)
    for k, (r, u) in enumerate(cases):
        want = _pick_by_target_loop(rows[r], u)
        assert pick_axis(rows[r], u) == batch[k] == want, (rows[r].tolist(), u)
        assert rows[r, want] > 0


def test_generator_linear_identity():
    # generator applied to <a, .> equals <a, f> for any mesh
    spec = lg.g2()
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        a = rng.normal(size=2)
        t = rng.uniform(0, 1)
        u = spec.u_grid[rng.integers(3)]
        v = spec.v_grid[rng.integers(3)]
        h = rng.uniform(0.02, 0.5)
        val = apply_generator(lambda y: float(a @ y), spec, t, x, u, v, h)
        f = spec.drift(t, x, u, v)
        assert val == pytest.approx(float(a @ f), abs=1e-12)


def test_generator_quadratic_identity():
    # generator applied to ||.-a||^2 equals sigma2 + 2<x-a, b2> exactly
    spec = lg.g2()
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        a = rng.normal(size=2)
        t = rng.uniform(0, 1)
        u = spec.u_grid[rng.integers(3)]
        v = spec.v_grid[rng.integers(3)]
        h = rng.uniform(0.02, 0.5)
        val = apply_generator(lambda y: float(np.sum((y - a) ** 2)), spec, t, x, u, v, h)
        b2, sigma2 = chain_characteristics(spec, t, x, u, v, h)
        assert val == pytest.approx(sigma2 + 2.0 * float((x - a) @ b2), abs=1e-12)


def test_chain_characteristics_match_drift():
    spec = lg.g1()
    b2, sigma2 = chain_characteristics(spec, 0.0, np.array([0.2]), 1.0, 0.5, 0.05)
    f = spec.drift(0.0, np.array([0.2]), 1.0, 0.5)
    assert np.max(np.abs(b2 - f)) <= 1e-15
    assert sigma2 == pytest.approx(0.05 * 1.5, rel=1e-14)


def test_sigma2_bounded_by_mesh():
    # quadratic characteristic <= d^{3/2} * M1 * h up to roundoff
    spec = lg.g2()
    rng = np.random.default_rng(3)
    cap = spec.d ** 1.5 * spec.M1
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        u = spec.u_grid[rng.integers(3)]
        v = spec.v_grid[rng.integers(3)]
        h = rng.uniform(0.01, 0.9)
        _, sigma2 = chain_characteristics(spec, 0.5, x, u, v, h)
        assert sigma2 <= cap * h * (1.0 + 1e-12)


def test_neighbor_tables_freeze_at_faces():
    dom = LatticeDomain(h=0.5, lo=(-2,), hi=(2,))
    up, down, interior = neighbor_tables(dom)
    # interior points move to adjacent flat indices
    assert up[0, 2] == 3 and down[0, 2] == 1
    # face points clamp the outward move to themselves
    assert up[0, 4] == 4
    assert down[0, 0] == 0
    assert interior.tolist() == [False, True, True, True, False]


def test_apply_generator_strict_raises_outside():
    spec = lg.g1()
    dom = LatticeDomain(h=0.5, lo=(-2,), hi=(2,))

    def values(y):
        return float(dom.states()[dom.index_of_state(y)] @ np.ones(1))

    with pytest.raises(lg.TruncationError):
        # x at the right face, drift positive: target 1.5 leaves the box
        apply_generator(values, spec, 0.0, np.array([1.0]), 1.0, 0.5, 0.5)
