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
second-player response.  The gap's mean square then grows by the model's
quadratic characteristic, which ``guarantee_thm1`` bounds, plus a partition
term that it omits, so its verdict is the limit as the diameter goes to 0.
A drift that is not finite in an aiming form or along the real path raises
``GameSpecError``, as in the chain's jump rule.

All replica randomness follows a fixed per-replica draw protocol (candidate
count, candidate times, acceptance uniforms, direction uniforms, adversary
draws, in that order; ``_draw_candidates``), so a logged replica and a
vectorized batch consume identical streams and produce identical
trajectories.  A batch runs a whole adversary panel at once: each replica's
candidates are drawn once and shared by every adversary, and each
adversary's ``pre_draw`` starts from the generator state saved after the
direction uniforms, so a replica plays every adversary on the same stream it
would see in a panel of one.  A logged batch logs every row, so one call
logs a replica against a whole panel.  ``_real_step`` is the one integrator
of the real system, and an adversary must select one index per row.

Every row of a batch is computed apart from the others, so a batch splits
into contiguous blocks of replicas that the caller and forked workers step
at once, each holding only its own block's draws and work arrays, with
outputs bitwise the one-block batch's (``run_extremal_shift_batch``).  An
error is the one-block batch's too: when a block raises, the batch is
replayed as one block, by the rule the backward sweep's blocks share
(``solver._forked_blocks``).  A custom drift or adversary must keep that:
each row's result may not depend on the rest of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .chain import kolmogorov_rates, pick_axis
from .errors import GameSpecError
from .games import GameSpec, drift_batch, payoff_batch
from .simulate import RngLike, as_rng, check_majorant, replica_rng, rate_majorant
from .solver import FeedbackTable, _TIME_FUZZ, _block_count, _forked_blocks, _shared

# ODE substep rule inside one partition interval
_SUBSTEP_FRACTION = 0.25
_SUBSTEP_HORIZON_FRACTION = 1e-3

# fewest rows (replica, adversary) a block of its own pays for: each block
# repeats the engine's per-call overhead, about 0.2 s for g2, so one and two
# blocks on 2 CPUs took the same time at about 1400 rows of the four-policy
# g2 panel (350 replicas) and 1000 rows of one policy; two blocks took 0.85x
# at 2000 rows and 0.67x at 8000
_MIN_BLOCK_ROWS = 700

# the per-row fields of a BatchOutcomes, in field order
_ROW_FIELDS = ("outcomes", "model_outcomes", "sq_gap", "n_jumps", "n_frozen")


@dataclass(frozen=True)
class Partition:
    """Strictly increasing control-correction times from t0 to T."""

    times: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        if len(ts) < 2:
            raise GameSpecError("partition needs at least two times")
        if not all(math.isfinite(t) for t in ts):
            raise GameSpecError(f"partition times must be finite, got {ts}")
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
        if not diameter > 0:  # NaN too
            raise GameSpecError(f"diameter must be > 0, got {diameter}")
        if not (math.isfinite(t0) and math.isfinite(t_end) and t_end > t0):
            raise GameSpecError(f"need finite t0 < t_end, got t0={t0}, t_end={t_end}")
        n = max(1, math.ceil((t_end - t0) / diameter * (1.0 - 1e-12)))
        return cls(times=tuple(t0 + (t_end - t0) * k / n for k in range(n + 1)))


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
    """Plays the aiming rule's own worst-case response ``v_hat``."""

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
    """Vectorized replica summaries from one adversary panel.

    The arrays hold one row per (adversary, replica), adversary-major: row
    ``a * n_replicas + i`` is replica i against ``adversaries[a]``."""

    adversaries: tuple[str, ...]
    n_replicas: int             # replicas per adversary
    outcomes: np.ndarray        # g(X(T)) per row
    model_outcomes: np.ndarray  # g(Y(T)) per row
    sq_gap: np.ndarray          # ||X - Y||^2 at partition nodes, (rows, r+1)
    n_jumps: np.ndarray
    n_frozen: np.ndarray        # accepted moves that would leave the box, per row

    def split(self) -> list["BatchOutcomes"]:
        """One panel-of-one view per adversary, in panel order."""
        n = self.n_replicas
        views = []
        for a, name in enumerate(self.adversaries):
            b = slice(a * n, (a + 1) * n)
            views.append(BatchOutcomes((name,), n, *(getattr(self, f)[b] for f in _ROW_FIELDS)))
        return views


# ---------------------------------------------------------------------------
# engine


def _names(panel: Sequence) -> tuple[str, ...]:
    return tuple(getattr(a, "name", "custom") for a in panel)


def _drift_not_finite(t: float, states: np.ndarray, finite_rows: np.ndarray,
                      note: str = "") -> GameSpecError:
    """The error for the first row of ``states`` whose drift-derived row is not finite."""
    r = int(np.argmin(finite_rows))
    return GameSpecError(f"drift not finite at t={t}, x={states[r].tolist()}{note}")


def _aim(spec: GameSpec, t: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aiming selections for the n rows of real states x and model states y,
    both (n, d): the first player's argmin_u max_v and the second player's
    worst-case response argmax_v min_u of <x - y, f(t, x, u, v)>, each the
    lowest index on ties.  Each control pair's forms come from one drift call
    over all rows, with the drift taken at x; tiling the rows once per pair
    instead made temporaries nu*nv times larger, which the allocator mapped
    and faulted in afresh at every partition interval."""
    gap = x - y
    w = np.empty((len(spec.u_grid), len(spec.v_grid), len(x)))
    for iu, u in enumerate(spec.u_grid):
        for iv, v in enumerate(spec.v_grid):
            w[iu, iv] = np.einsum("nd,nd->n", drift_batch(spec, t, x, u, v), gap)
    if not np.isfinite(w).all():
        raise _drift_not_finite(t, x, np.isfinite(w).all(axis=(0, 1)))
    return np.argmin(w.max(axis=1), axis=0), np.argmax(w.min(axis=0), axis=0)


def _draw_candidates(rngs: Sequence[np.random.Generator], panel: tuple, lam: float,
                     t0: float, T: float, r: int):
    """The module docstring's draw protocol: per row, the candidate count and
    offset into the (3, total + 1) array of candidate times, acceptance and
    direction uniforms, whose last column is +inf; that array; and per
    adversary its pre-draws, each from the state after the candidates."""
    # every replica has its own generator, so drawing all counts first changes no stream
    counts = np.array([rng.poisson(lam * (T - t0)) for rng in rngs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    cand = np.full((3, int(counts.sum()) + 1), np.inf)  # times, accept and direction uniforms
    for rng, start, c in zip(rngs, offsets, counts):
        sl = slice(start, start + c)
        cand[0, sl] = np.sort(rng.uniform(t0, T, size=c))
        cand[1, sl] = rng.random(size=c)  # uniform(size=c) is 0 + 1 * random(size=c)
        cand[2, sl] = rng.random(size=c)
    saved = [rng.bit_generator.state for rng in rngs]
    drawn = []
    for a, adversary in enumerate(panel):
        if a:
            for rng, state in zip(rngs, saved):
                rng.bit_generator.state = state
        rows = [adversary.pre_draw(rng, r) for rng in rngs]
        drawn.append(np.stack(rows) if rows[0] is not None else None)
    return np.tile(counts, len(panel)), np.tile(offsets, len(panel)), cand, drawn


def _real_step(spec: GameSpec, t: float, X: np.ndarray, u_held: np.ndarray,
               v_held: np.ndarray, delta: float):
    """RK4 substeps of the real states X over [t, t + delta] under held per-row
    controls, yielding (time, states) after each, so a caller that keeps only
    the last holds one substep's states; past the last it checks finiteness."""
    n_sub = max(1, math.ceil(delta / min(delta * _SUBSTEP_FRACTION,
                                         _SUBSTEP_HORIZON_FRACTION * spec.T)))
    dt = delta / n_sub
    X_start = X
    for s in range(n_sub):
        ts = t + s * dt
        k1 = drift_batch(spec, ts, X, u_held, v_held)
        k2 = drift_batch(spec, ts + 0.5 * dt, X + 0.5 * dt * k1, u_held, v_held)
        k3 = drift_batch(spec, ts + 0.5 * dt, X + 0.5 * dt * k2, u_held, v_held)
        k4 = drift_batch(spec, ts + dt, X + dt * k3, u_held, v_held)
        X = X + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield ts + dt, X
    if not np.isfinite(X).all():
        raise _drift_not_finite(t, X_start, np.isfinite(X).all(axis=1),
                                f" or on the real path from there to t={t + delta}")


def _run_replicas(spec: GameSpec, eta: FeedbackTable, partition: Partition, x0,
                  panel: Sequence, rngs: Sequence[np.random.Generator],
                  record_paths: bool) -> tuple[BatchOutcomes, list[PairedTrajectory]]:
    """Replica i of ``rngs`` against every adversary of ``panel``, as one batch
    of len(panel) * len(rngs) rows, adversary-major; with ``record_paths``,
    also one ``PairedTrajectory`` per row, in row order."""
    panel = tuple(panel)
    if not panel:
        raise GameSpecError("the adversary panel is empty")
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
    n_rows = len(panel) * n
    lam = rate_majorant(spec, h)
    r = partition.n_intervals
    names = _names(panel)

    counts, offsets, (flat_times, flat_accept, flat_dir), drawn = _draw_candidates(
        rngs, panel, lam, t0, spec.T, r)
    blocks = [slice(a * n, (a + 1) * n) for a in range(len(panel))]

    X = np.tile(x0, (n_rows, 1))
    K = np.tile(k0, (n_rows, 1)).astype(np.int64)
    flat = np.full(n_rows, domain.index_of(k0), dtype=np.int64)
    ptr = np.zeros(n_rows, dtype=np.int64)

    sq_gap = np.empty((n_rows, r + 1))
    n_jumps = np.zeros(n_rows, dtype=np.int64)
    n_frozen = np.zeros(n_rows, dtype=np.int64)

    # the log keeps whole-batch arrays, none changed in place: per interval
    # start, per substep and per jump round
    log = record_paths
    starts, dense_times, dense_x = [], [t0], [X]
    jumps = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros((0, d)))]

    nv = len(spec.v_grid)
    U, V = np.asarray(spec.u_grid), np.asarray(spec.v_grid)

    for l in range(r):
        t_l = partition.times[l]
        t_hi = partition.times[l + 1]
        Y = h * K.astype(float)
        sq_gap[:, l] = np.sum((X - Y) ** 2, axis=1)

        # aiming selections from the gap at the interval start
        u_sel, v_hat = _aim(spec, t_l, X, Y)                       # (rows,) each
        v_adv = []
        for adversary, name, drawn_a, b in zip(panel, names, drawn, blocks):
            v = np.asarray(adversary.select(l, t_l, X[b], Y[b], drawn_a, v_hat[b]))
            if v.shape != (n,) or v.dtype.kind not in "iu" or np.any((v < -nv) | (v >= nv)):
                raise GameSpecError(f"adversary {name!r} must select {n} integer indices in "
                                    f"[{-nv}, {nv}) on interval {l} (t={t_l:g}), got {v!r}")
            v_adv.append(v)
        v_adv = (np.concatenate(v_adv) % nv).astype(np.int64)
        if log:
            starts.append((X, Y, u_sel, v_adv, v_hat))

        # real system with controls held over the interval
        for ts, X in _real_step(spec, t_l, X, U[u_sel], V[v_adv], t_hi - t_l):
            if log:
                dense_times.append(ts)
                dense_x.append(X)

        # model chain: consume thinning candidates inside [t_l, t_hi); a row
        # with none left reads the last slot, at time +inf
        while True:
            slots = np.where(ptr < counts, offsets + ptr, len(flat_times) - 1)
            idx_rep = np.flatnonzero(flat_times[slots] < t_hi)
            if len(idx_rep) == 0:
                break
            slots = slots[idx_rep]
            tc = flat_times[slots]
            ys = h * K[idx_rep].astype(float)
            js = np.clip(np.searchsorted(eta.times, tc + _TIME_FUZZ, side="right") - 1,
                         0, len(eta.times) - 1)

            # value-greedy model control, then rates under the aiming response
            u_star = eta.u_at(js, flat[idx_rep])                   # (m,)
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
                if log:
                    jumps.append((reps, tc[acc_rows], h * K[reps].astype(float)))
            ptr[idx_rep] += 1

    Y = h * K.astype(float)
    sq_gap[:, r] = np.sum((X - Y) ** 2, axis=1)
    outcomes = payoff_batch(spec, X)
    model_outcomes = payoff_batch(spec, Y)

    batch = BatchOutcomes(adversaries=names, n_replicas=n,
                          outcomes=outcomes, model_outcomes=model_outcomes,
                          sq_gap=sq_gap, n_jumps=n_jumps, n_frozen=n_frozen)
    if not log:
        return batch, []
    xs, ys, *controls = zip(*starts)
    node_x, node_y = np.stack([*xs, X], axis=1), np.stack([*ys, Y], axis=1)
    u_log, v_adv_log, v_hat_log = (np.stack(c, axis=1) for c in controls)
    jump_rows, jump_times, jump_states = (np.concatenate(j) for j in zip(*jumps))
    dense_times, dense_x = np.asarray(dense_times), np.stack(dense_x, axis=1)
    paths = []
    for i in range(n_rows):
        hit = jump_rows == i
        paths.append(PairedTrajectory(
            times=np.asarray(partition.times), node_x=node_x[i], node_y=node_y[i],
            u_indices=u_log[i], v_adv_indices=v_adv_log[i], v_hat_indices=v_hat_log[i],
            jump_times=jump_times[hit], jump_states=jump_states[hit],
            dense_times=dense_times, dense_x=dense_x[i], sq_gap=sq_gap[i].copy(),
            outcome=float(outcomes[i]), model_outcome=float(model_outcomes[i])))
    return batch, paths


def run_extremal_shift(spec: GameSpec, eta: FeedbackTable, partition: Partition,
                       x0, adversary, rng: RngLike = 0) -> PairedTrajectory:
    """One fully logged coupled replica driven by ``adversary``.  An int
    ``rng`` seeds SeedSequence(rng), no replica's stream, so ``rng=0`` is not
    row 0 of a batch of seed 0; ``rng=replica_rng(seed, i)`` is row i."""
    _, paths = _run_replicas(spec, eta, partition, x0, [adversary], [as_rng(rng)],
                             record_paths=True)
    return paths[0]


def run_extremal_shift_batch(spec: GameSpec, eta: FeedbackTable, partition: Partition,
                             x0, adversaries: Sequence, n_replicas: int,
                             seed: int = 0) -> BatchOutcomes:
    """Vectorized replicas against a panel of adversaries, one batch for the
    whole panel: ``n_replicas`` per adversary, stacked adversary-major
    (``BatchOutcomes.split`` gives one block per adversary).  Replica i draws
    from the documented stream SeedSequence(entropy=seed, spawn_key=(i,))
    against every adversary, identical to a looped sequence of single runs.

    The replicas are split into contiguous blocks, as many as the CPUs, the
    replicas and ``_MIN_BLOCK_ROWS`` rows per block allow (``_block_count``,
    the sweep's rule): the caller steps the first and a forked worker each
    other (``_forked_blocks``).  Every block, one too, builds the streams of
    its own replicas, runs them against the whole panel and writes its rows
    into output arrays shared with the caller, which the result views.  Each
    row is computed apart from the rest of its batch, so each output is
    bitwise the one-block batch's.  So is each error, by ``_forked_blocks``'
    rule: when one of several blocks raises, the whole batch is replayed as
    one block in the caller, and its error names the interval and row the
    unsplit batch names; a worker that ended is a ``ResourceError``.
    """
    if n_replicas < 2:
        raise GameSpecError("n_replicas must be >= 2")
    panel = tuple(adversaries)

    def replicas(lo: int, hi: int) -> BatchOutcomes:
        rngs = [replica_rng(seed, i) for i in range(lo, hi)]
        return _run_replicas(spec, eta, partition, x0, panel, rngs, record_paths=False)[0]

    rows = len(panel) * n_replicas
    n_blocks = min(n_replicas, _block_count(rows, _MIN_BLOCK_ROWS))
    cuts = [n_replicas * b // n_blocks for b in range(n_blocks + 1)]
    width = partition.n_intervals + 1
    out = BatchOutcomes(_names(panel), n_replicas, outcomes=_shared((rows,)),
                        model_outcomes=_shared((rows,)), sq_gap=_shared((rows, width)),
                        n_jumps=_shared((rows,), np.int64), n_frozen=_shared((rows,), np.int64))

    def stepper(b: int):
        lo, hi = cuts[b], cuts[b + 1]

        def step(k: int) -> None:
            block = replicas(lo, hi)
            for field in _ROW_FIELDS:  # rows a * n_replicas + i, i in [lo, hi)
                whole = getattr(out, field).reshape(len(panel), n_replicas, -1)
                whole[:, lo:hi] = getattr(block, field).reshape(len(panel), hi - lo, -1)
        return step

    with _forked_blocks(n_blocks, stepper, "coupling engine",
                        lambda k: replicas(0, n_replicas)) as evaluate:
        evaluate(1)
    return out
