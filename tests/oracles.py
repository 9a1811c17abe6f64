"""References the tests compare the package against.

The package itself runs none of them.

- ``forced_blocks(n)`` splits every sweep into n blocks where the slabs
  allow, and every coupling engine batch into n blocks where the replicas
  allow, so a test can hold either against its one-block run.
- ``neighbor_tables`` gives each point's neighbours as index tables, out-of-box
  moves clamped to the point itself: the freezing boundary rule that the
  kernel and the viscous step apply by stride.
- ``jump_measure`` (with its sign rule ``chi``) and ``apply_generator``
  state the chain's jump rule one point and control pair at a time.
- ``oracle_minimax`` is the kernel as it was before term shapes, built on
  ``neighbor_tables`` and ``kolmogorov_rates``.
- ``weighted_norm`` is the mesh-weighted sup norm sup_x |V(x)| / (h + ||x||).
- ``check_isaacs`` samples the gap between min-max and max-min of
  <xi, f(t, x, u, v)>, the Isaacs condition.
- ``solve_rk4`` is the classical fourth-order Runge-Kutta backward sweep on
  the package's kernel (``hamiltonian_field``).  It is not monotone, so it is
  checked against exp(3*d*M1*(T-t)) growth of the mesh-weighted norm instead
  of the payoff range, under the Euler step ceiling; each checkpoint must be
  a time of the grid T - k*dt, as in ``solve_backward``.
- ``reference_chain`` is ``simulate_chain``'s thinning loop as it was before
  the jump rule had a point branch: each candidate's rates are the batch row
  of a (1, d) ``kolmogorov_rates`` call, its total is numpy's sum of that
  row, and an accepted candidate's axis is the batch row of ``pick_axis``.
"""

import contextlib
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

from latticegames import shift, solver
from latticegames.chain import (RATE_DROP_TOL, LatticeDomain, _check_mesh, kolmogorov_rates,
                                pick_axis)
from latticegames.errors import GameSpecError, StepSizeError, TruncationError
from latticegames.games import Control, GameSpec, payoff_batch
from latticegames.simulate import (ChainPath, _grid_indices, as_rng, check_majorant,
                                   rate_majorant)
from latticegames.solver import SolveResult, ValueGrid, hamiltonian_field

# check_isaacs samples states from [-_ISAACS_BOX, _ISAACS_BOX]^d
_ISAACS_BOX = 2.0


@contextlib.contextmanager
def forced_blocks(n: int):
    """Sweeps in n blocks, or one per axis-0 slab when there are fewer, and
    engine batches in n blocks, or one per replica when there are fewer."""
    with mock.patch.object(solver, "_MIN_BLOCK_POINTS", 1), \
            mock.patch.object(shift, "_MIN_BLOCK_ROWS", 1), \
            mock.patch.object(solver, "_cpu_count", lambda: n):
        yield


def neighbor_tables(domain: LatticeDomain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-coordinate neighbour indices with out-of-box moves clamped to self.

    Returns (up, down, interior) where up[i]/down[i] have shape (n_points,)
    and interior marks points whose 2d axis neighbours all lie in the box.
    Clamping to self encodes the freezing boundary policy: a frozen move
    contributes value difference zero.
    """
    shape = domain.shape
    n = domain.n_points
    d = domain.d
    up = np.empty((d, n), dtype=np.int64)
    down = np.empty((d, n), dtype=np.int64)
    interior = np.ones(n, dtype=bool)
    idx = np.arange(n).reshape(shape)
    for i in range(d):
        upper = np.roll(idx, -1, axis=i)
        lower = np.roll(idx, 1, axis=i)
        # clamp the wrapped faces back onto themselves
        sl_hi = [slice(None)] * d
        sl_hi[i] = -1
        sl_lo = [slice(None)] * d
        sl_lo[i] = 0
        upper[tuple(sl_hi)] = idx[tuple(sl_hi)]
        lower[tuple(sl_lo)] = idx[tuple(sl_lo)]
        up[i] = upper.reshape(-1)
        down[i] = lower.reshape(-1)
        face = np.zeros(shape, dtype=bool)
        face[tuple(sl_hi)] = True
        face[tuple(sl_lo)] = True
        interior &= ~face.reshape(-1)
    return up, down, interior


def chi(component: float) -> int:
    """Jump direction along one axis: the sign of the drift component."""
    if component > RATE_DROP_TOL:
        return 1
    if component < -RATE_DROP_TOL:
        return -1
    return 0


def jump_measure(spec: GameSpec, t: float, x, u: Control, v: Control, h: float
                 ) -> list[tuple[np.ndarray, float]]:
    """Finite jump measure at (t, x, u, v): [(offset, mass)] per active axis.

    Offsets are h*sign(f_i)*e_i with mass |f_i|/h; components with
    |f_i| <= RATE_DROP_TOL are dropped.
    """
    h = _check_mesh(h)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f = np.atleast_1d(np.asarray(spec.drift(t, x, u, v), dtype=float))
    if f.shape != (spec.d,):
        raise GameSpecError(f"drift returned shape {f.shape}, expected ({spec.d},)")
    if not np.all(np.isfinite(f)):
        raise GameSpecError(f"drift not finite at t={t}, x={x.tolist()}")
    out: list[tuple[np.ndarray, float]] = []
    for i in range(spec.d):
        sign = chi(f[i])
        if sign == 0:
            continue
        offset = np.zeros(spec.d)
        offset[i] = h * sign
        out.append((offset, abs(f[i]) / h))
    return out


def apply_generator(values, spec: GameSpec, t: float, x, u: Control, v: Control, h: float) -> float:
    """Generator action sum_i mass_i * (values(x + offset_i) - values(x)) over
    the jump measure.

    ``values`` is a callable on states.  Lookup failures (KeyError/IndexError
    from the callable) become TruncationError: the value table does not cover
    a reachable neighbour.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    measure = jump_measure(spec, t, x, u, v, h)
    try:
        base = float(values(x))
        acc = 0.0
        for offset, mass in measure:
            acc += mass * (float(values(x + offset)) - base)
    except (KeyError, IndexError) as exc:
        raise TruncationError(f"value table missing a neighbour of {x.tolist()}") from exc
    return acc


def oracle_minimax(values, spec, dom, kind, index=None):
    """The kernel as it was before term shapes: rates and jump directions
    straight from ``kolmogorov_rates``, neighbour differences gathered
    through ``neighbor_tables``, and every (pair, axis) term selecting its
    direction per point with copyto/where, zero terms included.  The first
    axis's term goes into the pair's row, later ones are added, and the
    field is normalised with += 0.0."""
    up_idx, down_idx, _ = neighbor_tables(dom)
    d_up, d_down = np.take(values, up_idx) - values, np.take(values, down_idx) - values
    pairs = [[kolmogorov_rates(spec, spec.T, dom.states(), u, v, dom.h) for v in spec.v_grid]
             for u in spec.u_grid]
    ups = np.array([[((f > 0) & (r > 0)).T for f, r in row] for row in pairs])
    rate = np.array([[r.T for _, r in row] for row in pairs])
    inner_best, outer_best, improves = np.maximum, np.minimum, np.less
    if kind == "lower":
        ups, rate = ups.swapaxes(0, 1), rate.swapaxes(0, 1)
        inner_best, outer_best, improves = np.minimum, np.maximum, np.greater
    g, inner, w = np.empty((3, dom.n_points))

    def generator(pair_up, pair_rate, out):
        for i in range(dom.d):
            term = out if i == 0 else w
            np.copyto(term, d_down[i])
            np.copyto(term, d_up[i], where=pair_up[i])
            term *= pair_rate[i]
            if i > 0:
                out += w

    field = np.empty(dom.n_points)
    if index is not None:
        index.fill(0)
    for a in range(rate.shape[0]):
        acc = field if a == 0 else inner
        generator(ups[a, 0], rate[a, 0], acc)
        for b in range(1, rate.shape[1]):
            generator(ups[a, b], rate[a, b], g)
            inner_best(acc, g, out=acc)
        if a > 0:
            if index is not None:
                np.copyto(index, a, where=improves(inner, field))
            outer_best(field, inner, out=field)
    field += 0.0
    return field


def weighted_norm(grid: ValueGrid, other: ValueGrid | None = None) -> float:
    """Mesh-weighted sup norm sup_x |a(x) - b(x)| / (h + ||x||) over the box."""
    diff = grid.values if other is None else grid.values - other.values
    if other is not None and grid.domain != other.domain:
        raise GameSpecError("weighted_norm requires slices on the same domain")
    norms = np.linalg.norm(grid.domain.states(), axis=1)
    return float(np.max(np.abs(diff) / (grid.domain.h + norms)))


@dataclass(frozen=True)
class IsaacsReport:
    """Worst sampled gap between minimax and maximin of <xi, f(t, x, u, v)>."""

    max_gap: float
    n_samples: int
    seed: int


def check_isaacs(spec: GameSpec, n_samples: int = 200, seed: int = 0) -> IsaacsReport:
    """Sample the gap between min-max and max-min of <xi, f(t, x, u, v)>.

    Sampling scheme (fixed so results are reproducible): for each sample draw
    t ~ U(0, T), then x ~ U(-_ISAACS_BOX, _ISAACS_BOX)^d, then xi ~ U(-1, 1)^d, from
    ``numpy.random.default_rng(seed)`` in that order.  The gap at each sample
    is produced by exhaustive enumeration over both control grids.
    """
    if n_samples < 1:
        raise GameSpecError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        t = rng.uniform(0.0, spec.T)
        x = rng.uniform(-_ISAACS_BOX, _ISAACS_BOX, size=spec.d)
        xi = rng.uniform(-1.0, 1.0, size=spec.d)
        pay = np.empty((len(spec.u_grid), len(spec.v_grid)))
        for i, u in enumerate(spec.u_grid):
            for j, v in enumerate(spec.v_grid):
                pay[i, j] = float(np.dot(xi, spec.drift(t, x, u, v)))
        minmax = pay.max(axis=1).min()
        maxmin = pay.min(axis=0).max()
        worst = max(worst, abs(minmax - maxmin))
    return IsaacsReport(max_gap=worst, n_samples=n_samples, seed=seed)


def solve_rk4(spec, domain, *, kind="upper", dt=None, checkpoints=None) -> SolveResult:
    if kind not in solver.VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {solver.VALUE_KINDS}, got {kind!r}")
    dt, steps = solver._schedule(spec, domain.h, None, dt, checkpoints)
    states = domain.states()
    if spec.autonomous:
        solver._check_autonomous(spec, states)
    values = payoff_batch(spec, states).astype(float)
    built = {}  # the rates of the latest build time

    def H(vals, t):
        # an autonomous spec's rates are built once, at T, and others' at each
        # new stage time; consecutive stages at one time share the build
        at = spec.T if spec.autonomous else t
        if at not in built:
            built.clear()
            built[at] = solver._pair_rates(spec, at, states, domain.h)
        return hamiltonian_field(vals, spec, t, domain, kind, rates=built[at])

    # the stage input and the check's scaled values, reused by every step;
    # the kernel's fresh results k1..k4 take the stage sums in place
    stage, scaled = np.empty((2, len(values)))

    def stage_at(vals, k, c, t):
        np.multiply(c, k, out=stage)
        np.add(vals, stage, out=stage)
        return H(stage, t)

    def step(vals, t, t_next):
        k1 = H(vals, t)
        k2 = stage_at(vals, k1, 0.5 * dt, t - 0.5 * dt)
        k3 = stage_at(vals, k2, 0.5 * dt, t - 0.5 * dt)
        k4 = stage_at(vals, k3, dt, t_next)
        # vals + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4)
        k2 *= 2
        k3 *= 2
        k1 += k2
        k1 += k3
        k1 += k4
        k1 *= dt / 6.0
        k1 += vals
        return k1

    weights = domain.h + np.linalg.norm(states, axis=1)
    g_norm = float(np.max(np.abs(values) / weights))
    growth_rate = 3.0 * spec.d * spec.M1

    def check(vals, t):
        ceiling_norm = g_norm * math.exp(growth_rate * (spec.T - t)) * (1 + 1e-6)
        np.divide(np.abs(vals, out=scaled), weights, out=scaled)
        # NaN fails the comparison, and inf exceeds the ceiling
        if not np.max(scaled) <= ceiling_norm:
            raise StepSizeError(
                f"runaway growth at t={t:.6g}: weighted norm exceeds "
                f"exp({growth_rate:.3g}*(T-t)) * terminal norm; reduce dt"
            )

    t = spec.T
    slices = [ValueGrid(t=t, domain=domain, values=values.copy())] if 0 in steps else []
    for k in range(1, steps[-1] + 1):
        t_next = spec.T - k * dt
        values = step(values, t, t_next)
        t = t_next
        check(values, t)
        if k in steps:
            slices.append(ValueGrid(t=t, domain=domain, values=values.copy()))
    return SolveResult(game=spec.name, kind=kind, h=domain.h, dt=dt, slices=tuple(slices))


def reference_chain(spec, u_policy, v_policy, x0, h, *, t0=0.0, rng=0) -> ChainPath:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    k0 = np.round(x0 / h)
    if np.max(np.abs(x0 - h * k0)) > 1e-9 * max(1.0, h):
        raise GameSpecError(f"x0={x0.tolist()} is not on the mesh-{h} lattice")
    if not (0.0 <= t0 < spec.T):
        raise GameSpecError(f"t0={t0} outside [0, T)")
    gen = as_rng(rng)
    lam = rate_majorant(spec, h)
    y = h * k0
    t = t0
    times = [t0]
    states = [y]
    u_idx: list[int] = []
    v_idx: list[int] = []
    n_jumps = 0
    while True:
        t_cand = t + gen.exponential(1.0 / lam) if lam > 0 else spec.T
        if t_cand >= spec.T:
            break
        u = u_policy(t_cand, y)
        v = v_policy(t_cand, y)
        iu, iv = _grid_indices(spec, u, v)
        f, rates = kolmogorov_rates(spec, t_cand, y[None, :], u, v, h)
        f, rates = f[0], rates[0]
        total = float(rates.sum())
        check_majorant(total, lam)
        accept = gen.random() < total / lam if total > 0 else False
        u_idx.append(iu)
        v_idx.append(iv)
        if accept:
            i = pick_axis(rates[None, :], np.array([gen.random()]))[0]
            offset = np.zeros(spec.d)
            offset[i] = math.copysign(h, f[i])
            y = y + offset
            n_jumps += 1
        t = t_cand
        times.append(t)
        states.append(y)
    times.append(spec.T)
    m = len(times) - 1
    seg_states = np.stack(states[:m])
    tail_t = float(times[m - 1])
    u_tail, v_tail = _grid_indices(spec, u_policy(tail_t, seg_states[-1]),
                                   v_policy(tail_t, seg_states[-1]))
    u_arr = np.array(u_idx + [u_tail], dtype=np.int64)
    v_arr = np.array(v_idx + [v_tail], dtype=np.int64)
    return ChainPath(times=np.asarray(times), states=seg_states,
                     u_indices=u_arr, v_indices=v_arr, n_jumps=n_jumps)
