"""Feedback coupling of the original dynamics to the lattice chain model.

The first player steers the real system while tracking a simulated chain
whose feedback was precomputed: a ``FeedbackTable`` holds, per grid time and
lattice point, the first player's control index minimising the generator of
the upper value (``feedback_table`` builds it).  A thinning
candidate reads the entry of the latest grid time at or below it, so the
drift inside that minimisation is taken at the grid time, as in the backward
sweep itself; for drifts that ignore t this is exact.  On each partition
interval the player measures the gap z - xi between the real state and the
model state and plays the control that minimises the worst-case inner
product of that gap with the drift (aiming rule); the model chain meanwhile
jumps under the value-greedy feedback control and the aiming rule's worst
second-player response.  The gap then grows at most linearly in the
partition diameter plus the model's quadratic characteristic, which is what
the guarantee bounds quantify.  A drift that is not finite in an aiming form
or along the real path raises ``GameSpecError``, as in the chain's jump rule.

All replica randomness follows a fixed per-replica draw protocol (candidate
count, candidate times, acceptance uniforms, direction uniforms, adversary
draws, in that order), so a single logged replica and a vectorized batch
consume identical streams and produce identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .chain import kolmogorov_rates, pick_axis
from .errors import GameSpecError
from .games import Control, GameSpec, drift_batch, payoff_batch
from .simulate import RngLike, as_rng, check_majorant, replica_rng, rate_majorant
from .solver import FeedbackTable, _TIME_FUZZ

BRANCHES = (1, 2)

# ODE substep rule inside one partition interval
_SUBSTEP_FRACTION = 0.25
_SUBSTEP_HORIZON_FRACTION = 1e-3


@dataclass(frozen=True)
class Partition:
    """Strictly increasing control-correction times from t0 to T."""

    times: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        if len(ts) < 2:
            raise GameSpecError("partition needs at least two times")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise GameSpecError("partition times must be strictly increasing")
        object.__setattr__(self, "times", ts)

    @property
    def t0(self) -> float:
        return self.times[0]

    @property
    def t_end(self) -> float:
        return self.times[-1]

    @property
    def diameter(self) -> float:
        return max(b - a for a, b in zip(self.times, self.times[1:]))

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1

    @classmethod
    def uniform(cls, t0: float, t_end: float, diameter: float) -> "Partition":
        if diameter <= 0 or t_end <= t0:
            raise GameSpecError("need diameter > 0 and t_end > t0")
        n = max(1, math.ceil((t_end - t0) / diameter * (1.0 - 1e-12)))
        return cls(times=tuple(t0 + (t_end - t0) * k / n for k in range(n + 1)))


# ---------------------------------------------------------------------------
# aiming rule


def varpi(spec: GameSpec, t: float, z, xi, u: Control, v: Control, branch: int = 1) -> float:
    """Aiming form <z - xi, f(t, ., u, v)> with the drift taken at z (branch 1)
    or at xi (branch 2).  For the lattice chain model the drift field seen by
    the model equals the original field evaluated at the model state, so the
    two branches differ only in the evaluation point."""
    if branch not in BRANCHES:
        raise GameSpecError(f"branch must be 1 or 2, got {branch}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    at = z if branch == 1 else xi
    f = np.atleast_1d(np.asarray(spec.drift(t, at, u, v), dtype=float))
    return float((z - xi) @ f)


def select_u(spec: GameSpec, t: float, z, xi, branch: int = 1) -> tuple[int, Control]:
    """First-player aiming control: argmin_u max_v varpi; ties -> lowest index."""
    idx = int(np.argmin(_aim(spec, t, z, xi, branch)[:, :, 0].max(axis=1)))
    return idx, spec.u_grid[idx]


def select_v(spec: GameSpec, t: float, z, xi, branch: int = 1) -> tuple[int, Control]:
    """Second-player aiming response: argmax_v min_u varpi; ties -> lowest index."""
    idx = int(np.argmax(_aim(spec, t, z, xi, branch)[:, :, 0].min(axis=0)))
    return idx, spec.v_grid[idx]


# ---------------------------------------------------------------------------
# adversary panel


class ConstantAdversary:
    """Plays one fixed grid element throughout."""

    def __init__(self, index: int = -1):
        self.index = index
        self.name = "constant"

    def pre_draw(self, rng: np.random.Generator, n_intervals: int):
        return None

    def select(self, interval: int, t: float, x: np.ndarray, y: np.ndarray,
               drawn, v_hat: np.ndarray) -> np.ndarray:
        return np.full(len(x), self.index, dtype=np.int64)


class BangBangAdversary:
    """Pushes along the sign of the first state coordinate: largest grid
    element when x_1 >= 0, smallest otherwise."""

    name = "bang_bang"

    def pre_draw(self, rng: np.random.Generator, n_intervals: int):
        return None

    def select(self, interval, t, x, y, drawn, v_hat):
        return np.where(x[:, 0] >= 0.0, -1, 0).astype(np.int64)


class RandomAdversary:
    """Uniformly random grid element, redrawn at every partition time."""

    name = "random"

    def __init__(self, n_controls: int):
        self.n_controls = n_controls

    def pre_draw(self, rng: np.random.Generator, n_intervals: int):
        return rng.integers(0, self.n_controls, size=n_intervals)

    def select(self, interval, t, x, y, drawn, v_hat):
        return drawn[:, interval].astype(np.int64)


class MirrorAdversary:
    """Plays the aiming rule's own worst-case response select_v."""

    name = "worst_case"

    def pre_draw(self, rng: np.random.Generator, n_intervals: int):
        return None

    def select(self, interval, t, x, y, drawn, v_hat):
        return v_hat.astype(np.int64)


def standard_adversaries(spec: GameSpec) -> tuple:
    """The four-policy benchmark panel."""
    return (
        ConstantAdversary(index=len(spec.v_grid) - 1),
        BangBangAdversary(),
        RandomAdversary(len(spec.v_grid)),
        MirrorAdversary(),
    )


# ---------------------------------------------------------------------------
# paired trajectories


@dataclass(frozen=True)
class PairedTrajectory:
    """Full log of one coupled replica.

    ``node_*`` arrays live on the partition nodes (length r+1); ``u_indices``,
    ``v_adv_indices`` and ``v_hat_indices`` are per interval (length r).
    ``dense_times``/``dense_x`` sample the real trajectory at integrator
    nodes; the model path is (jump_times, jump_states) with initial state
    ``node_y[0]``.
    """

    times: np.ndarray
    node_x: np.ndarray
    node_y: np.ndarray
    u_indices: np.ndarray
    v_adv_indices: np.ndarray
    v_hat_indices: np.ndarray
    jump_times: np.ndarray
    jump_states: np.ndarray
    dense_times: np.ndarray
    dense_x: np.ndarray
    sq_gap: np.ndarray
    outcome: float
    model_outcome: float

    def x_at(self, t: float) -> np.ndarray:
        ts = self.dense_times
        if t <= ts[0]:
            return self.dense_x[0]
        if t >= ts[-1]:
            return self.dense_x[-1]
        j = int(np.searchsorted(ts, t, side="right") - 1)
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1 - w) * self.dense_x[j] + w * self.dense_x[j + 1]

    def y_at(self, t: float) -> np.ndarray:
        if len(self.jump_times) == 0 or t < self.jump_times[0]:
            return self.node_y[0]
        j = int(np.searchsorted(self.jump_times, t, side="right") - 1)
        return self.jump_states[j]

    def interval_of(self, t: float) -> int:
        j = int(np.searchsorted(self.times, t, side="right") - 1)
        return min(max(j, 0), len(self.times) - 2)

    def write_csv(self, path: str | Path, meta: dict | None = None) -> None:
        """Rows (tau, x_1.., y_1.., u_index, v_index) at partition and jump times."""
        path = Path(path)
        d = self.node_x.shape[1]
        taus = np.unique(np.concatenate([self.times, self.jump_times]))
        lines = [f"# {k}={v}" for k, v in (meta or {}).items()]
        header = ["tau"] + [f"x_{i+1}" for i in range(d)] + [f"y_{i+1}" for i in range(d)]
        lines.append(",".join(header + ["u_index", "v_index"]))
        for tau in taus:
            j = self.interval_of(tau)
            x = self.x_at(tau)
            y = self.y_at(tau)
            row = [f"{tau:.17g}"] + [f"{c:.17g}" for c in x] + [f"{c:.17g}" for c in y]
            row += [str(int(self.u_indices[j])), str(int(self.v_adv_indices[j]))]
            lines.append(",".join(row))
        path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class BatchOutcomes:
    """Vectorized replica summaries from one adversary run."""

    adversary: str
    n_replicas: int
    outcomes: np.ndarray        # g(X(T)) per replica
    model_outcomes: np.ndarray  # g(Y(T)) per replica
    sq_gap: np.ndarray          # ||X - Y||^2 at partition nodes, (n, r+1)
    n_jumps: np.ndarray
    n_frozen: np.ndarray        # accepted moves that would leave the box, per replica


# ---------------------------------------------------------------------------
# engine


def _drift_not_finite(t: float, states: np.ndarray, finite_rows: np.ndarray,
                      note: str = "") -> GameSpecError:
    """The error for the first row of ``states`` whose drift-derived row is not finite."""
    r = int(np.argmin(finite_rows))
    return GameSpecError(f"drift not finite at t={t}, x={states[r].tolist()}{note}")


def _aim(spec: GameSpec, t: float, x, y, branch: int) -> np.ndarray:
    """Aiming forms <x - y, f(t, ., u, v)> of every control pair for each of
    the n rows (or the one point) of x and y, shape (nu, nv, n), from one
    drift call over the rows tiled once per pair; the drift is taken at x
    (branch 1) or at y (branch 2)."""
    if branch not in BRANCHES:
        raise GameSpecError(f"branch must be 1 or 2, got {branch}")
    x, y = np.atleast_2d(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    at = x if branch == 1 else y
    nu, nv = len(spec.u_grid), len(spec.v_grid)
    n = len(x)
    pair = np.arange(nu * nv * n) // n
    f = drift_batch(spec, t, np.tile(at, (nu * nv, 1)),
                    np.asarray(spec.u_grid)[pair // nv], np.asarray(spec.v_grid)[pair % nv])
    w = np.einsum("uvnd,nd->uvn", f.reshape(nu, nv, n, spec.d), x - y)
    if not np.isfinite(w).all():
        raise _drift_not_finite(t, at, np.isfinite(w).all(axis=(0, 1)))
    return w


def _run_replicas(spec: GameSpec, eta: FeedbackTable, partition: Partition, x0,
                  adversary, rngs: Sequence[np.random.Generator], branch: int,
                  record_paths: bool) -> tuple[BatchOutcomes, list[PairedTrajectory]]:
    if not isinstance(eta, FeedbackTable):
        raise GameSpecError(f"eta must be a FeedbackTable, got {type(eta).__name__}; "
                            "build one with feedback_table(spec, domain)")
    if (eta.game != spec.name or eta.domain.d != spec.d
            or abs(eta.times[-1] - spec.T) > _TIME_FUZZ):
        raise GameSpecError(f"the feedback table was built for game {eta.game!r} (d="
                            f"{eta.domain.d}, T={eta.times[-1]:g}), not for {spec.name!r} "
                            f"(d={spec.d}, T={spec.T:g})")
    domain = eta.domain
    h = eta.h
    d = spec.d
    t0 = partition.t0
    if abs(partition.t_end - spec.T) > _TIME_FUZZ:
        raise GameSpecError("partition must end at the horizon T")
    if eta.times[0] > t0 + _TIME_FUZZ:
        raise GameSpecError("the feedback table does not cover the partition's start time")

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise GameSpecError(f"x0 shape {x0.shape} does not match d={d}")
    k0 = domain.nearest_lattice(x0)
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    if np.any(k0 <= lo) or np.any(k0 >= hi):
        raise GameSpecError(f"x0={x0.tolist()} does not round into the domain interior")

    strides = np.array([int(np.prod(domain.shape[i + 1:])) for i in range(d)], dtype=np.int64)

    n = len(rngs)
    lam = rate_majorant(spec, h)
    span = spec.T - t0

    # fixed per-replica draw protocol (see module docstring)
    counts = np.empty(n, dtype=np.int64)
    cand_blocks: list[np.ndarray] = []
    accept_blocks: list[np.ndarray] = []
    dir_blocks: list[np.ndarray] = []
    drawn_rows = []
    for i, rng in enumerate(rngs):
        c = int(rng.poisson(lam * span))
        counts[i] = c
        cand_blocks.append(np.sort(rng.uniform(t0, spec.T, size=c)))
        accept_blocks.append(rng.uniform(size=c))
        dir_blocks.append(rng.uniform(size=c))
        drawn_rows.append(adversary.pre_draw(rng, partition.n_intervals))
    drawn = np.stack(drawn_rows) if drawn_rows[0] is not None else None
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    flat_times = np.concatenate(cand_blocks)
    flat_accept = np.concatenate(accept_blocks)
    flat_dir = np.concatenate(dir_blocks)

    X = np.tile(x0, (n, 1))
    K = np.tile(k0, (n, 1)).astype(np.int64)
    flat = np.full(n, domain.index_of(k0), dtype=np.int64)
    ptr = np.zeros(n, dtype=np.int64)

    r = partition.n_intervals
    sq_gap = np.empty((n, r + 1))
    n_jumps = np.zeros(n, dtype=np.int64)
    n_frozen = np.zeros(n, dtype=np.int64)

    log = record_paths
    if log:
        dense_times: list[float] = [t0]
        dense_x: list[np.ndarray] = [X[0].copy()]
        jump_times: list[float] = []
        jump_states: list[np.ndarray] = []
        u_log = np.empty(r, dtype=np.int64)
        v_adv_log = np.empty(r, dtype=np.int64)
        v_hat_log = np.empty(r, dtype=np.int64)
        node_x = np.empty((r + 1, d))
        node_y = np.empty((r + 1, d))

    nv = len(spec.v_grid)
    U, V = np.asarray(spec.u_grid), np.asarray(spec.v_grid)

    for l in range(r):
        t_l = partition.times[l]
        t_hi = partition.times[l + 1]
        delta = t_hi - t_l
        Y = h * K.astype(float)
        sq_gap[:, l] = np.sum((X - Y) ** 2, axis=1)
        if log:
            node_x[l] = X[0]
            node_y[l] = Y[0]

        # aiming selections from the gap at the interval start
        w = _aim(spec, t_l, X, Y, branch)                          # (nu, nv, n)
        u_sel = np.argmin(w.max(axis=1), axis=0)                  # (n,), first on ties
        v_hat = np.argmax(w.min(axis=0), axis=0)                   # (n,)
        v_adv = adversary.select(l, t_l, X, Y, drawn, v_hat)
        v_adv = np.where(v_adv < 0, v_adv + nv, v_adv).astype(np.int64)
        if log:
            u_log[l] = u_sel[0]
            v_adv_log[l] = v_adv[0]
            v_hat_log[l] = v_hat[0]

        # real system: 4th-order steps with controls held over the interval
        n_sub = max(1, math.ceil(delta / min(delta * _SUBSTEP_FRACTION,
                                             _SUBSTEP_HORIZON_FRACTION * spec.T)))
        dt_sub = delta / n_sub
        u_held, v_held = U[u_sel], V[v_adv]

        def f_sel(tt, states):
            return drift_batch(spec, tt, states, u_held, v_held)

        X_start = X
        for s in range(n_sub):
            ts = t_l + s * dt_sub
            k1 = f_sel(ts, X)
            k2 = f_sel(ts + 0.5 * dt_sub, X + 0.5 * dt_sub * k1)
            k3 = f_sel(ts + 0.5 * dt_sub, X + 0.5 * dt_sub * k2)
            k4 = f_sel(ts + dt_sub, X + dt_sub * k3)
            X = X + (dt_sub / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if log:
                dense_times.append(ts + dt_sub)
                dense_x.append(X[0].copy())
        if not np.isfinite(X).all():
            raise _drift_not_finite(t_l, X_start, np.isfinite(X).all(axis=1),
                                    f" or on the real path from there to t={t_hi}")

        # model chain: consume thinning candidates inside [t_l, t_hi)
        while True:
            idx_rep = np.flatnonzero(ptr < counts)
            if len(idx_rep) == 0:
                break
            slots = offsets[idx_rep] + ptr[idx_rep]
            tc = flat_times[slots]
            active = tc < t_hi
            idx_rep = idx_rep[active]
            if len(idx_rep) == 0:
                break
            slots = slots[active]
            tc = tc[active]
            ys = h * K[idx_rep].astype(float)
            js = np.clip(np.searchsorted(eta.times, tc + _TIME_FUZZ, side="right") - 1,
                         0, len(eta.times) - 1)

            # value-greedy model control, then rates under the aiming response
            u_star = eta.u_index[js, flat[idx_rep]]                # (m,)
            f_chosen, rates = kolmogorov_rates(spec, tc, ys, U[u_star], V[v_hat[idx_rep]], h)
            total = rates.sum(axis=1)
            check_majorant(total.max(), lam)
            au = flat_accept[slots]
            du = flat_dir[slots]
            accept = (total > 0) & (au < total / lam)

            if np.any(accept):
                acc_rows = np.flatnonzero(accept)
                coord = pick_axis(rates[acc_rows], du[acc_rows])
                sign = np.sign(f_chosen[acc_rows, coord]).astype(np.int64)
                reps = idx_rep[acc_rows]
                newk = K[reps, coord] + sign
                # frozen truncation: a move that would exit the box is a
                # self-loop, matching the generator the value slices solve
                inside = (newk >= lo[coord]) & (newk <= hi[coord])
                n_frozen[reps[~inside]] += 1
                reps, coord = reps[inside], coord[inside]
                sign, newk = sign[inside], newk[inside]
                acc_rows = acc_rows[inside]
                K[reps, coord] = newk
                flat[reps] += sign * strides[coord]
                n_jumps[reps] += 1
                if log and 0 in reps:
                    pos = int(np.flatnonzero(reps == 0)[0])
                    jump_times.append(float(tc[acc_rows[pos]]))
                    jump_states.append(h * K[0].astype(float))
            ptr[idx_rep] += 1

    Y = h * K.astype(float)
    sq_gap[:, r] = np.sum((X - Y) ** 2, axis=1)
    outcomes = payoff_batch(spec, X)
    model_outcomes = payoff_batch(spec, Y)
    if log:
        node_x[r] = X[0]
        node_y[r] = Y[0]

    batch = BatchOutcomes(adversary=getattr(adversary, "name", "custom"), n_replicas=n,
                          outcomes=outcomes, model_outcomes=model_outcomes,
                          sq_gap=sq_gap, n_jumps=n_jumps, n_frozen=n_frozen)
    paths: list[PairedTrajectory] = []
    if log:
        paths.append(PairedTrajectory(
            times=np.asarray(partition.times),
            node_x=node_x, node_y=node_y,
            u_indices=u_log, v_adv_indices=v_adv_log, v_hat_indices=v_hat_log,
            jump_times=np.asarray(jump_times), jump_states=(np.stack(jump_states)
                                                            if jump_states else np.zeros((0, d))),
            dense_times=np.asarray(dense_times), dense_x=np.stack(dense_x),
            sq_gap=sq_gap[0].copy(),
            outcome=float(outcomes[0]), model_outcome=float(model_outcomes[0]),
        ))
    return batch, paths


def run_extremal_shift(spec: GameSpec, eta: FeedbackTable, partition: Partition,
                       x0, adversary, rng: RngLike = 0, branch: int = 1) -> PairedTrajectory:
    """One fully logged coupled replica driven by ``adversary``."""
    _, paths = _run_replicas(spec, eta, partition, x0, adversary, [as_rng(rng)],
                             branch, record_paths=True)
    return paths[0]


def run_extremal_shift_batch(spec: GameSpec, eta: FeedbackTable, partition: Partition,
                             x0, adversary, n_replicas: int, seed: int = 0,
                             branch: int = 1) -> BatchOutcomes:
    """Vectorized replicas; replica i draws from the documented stream
    SeedSequence(entropy=seed, spawn_key=(i,)), identical to a looped
    sequence of single runs."""
    if n_replicas < 2:
        raise GameSpecError("n_replicas must be >= 2")
    rngs = [replica_rng(seed, i) for i in range(n_replicas)]
    batch, _ = _run_replicas(spec, eta, partition, x0, adversary, rngs, branch,
                             record_paths=False)
    return batch
