"""Chain simulation and statistical diagnostics.

The real system is integrated only by the coupling engine behind
``shift.run_extremal_shift`` and ``run_extremal_shift_batch``.  Chain paths
are sampled exactly by thinning: a homogeneous candidate stream at the
majorant rate d*M1/h dominates every reachable total jump rate, and each
candidate is accepted with probability total_rate/majorant evaluated at the
candidate time, which handles feedback controls and time-varying drifts
without discretisation error.

Randomness: every stream is a numpy ``default_rng`` (PCG64) built from a
``SeedSequence``; replica i of a run seeded with s uses
``SeedSequence(entropy=s, spawn_key=(i,))``, so replicas are independent and
reproducible regardless of execution order.  Estimator reductions use numpy
pairwise summation over the replica-ordered array, so results do not depend
on how replicas were batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import certified_m0_2
from .chain import _check_mesh, _on_lattice, chain_characteristics, kolmogorov_rates, pick_axis
from .errors import GameSpecError
from .games import GameSpec

RngLike = np.random.Generator | int


def as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(np.random.SeedSequence(int(rng)))


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """The documented replica stream: SeedSequence(entropy=seed, spawn_key=(index,))."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),)))


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class ChainPath:
    """Piecewise-constant chain trajectory with per-segment controls.

    Segment j occupies [times[j], times[j+1]) at state states[j] under control
    indices (u_indices[j], v_indices[j]).  Segment boundaries are candidate
    times of the thinning clock plus the endpoints, so controls are constant
    per segment whenever the feedback policies only change at jumps and
    candidate checks.
    """

    times: np.ndarray          # (m+1,) with times[0]=t0, times[-1]=T
    states: np.ndarray         # (m, d)
    u_indices: np.ndarray      # (m,)
    v_indices: np.ndarray      # (m,)
    n_jumps: int

    def state_at(self, t) -> np.ndarray:
        """State of the segment holding time t; times before the path give the
        first state, times after it the last.  An array of times gives one
        row per time."""
        return self.states[np.searchsorted(self.times[1:-1], t, side="right")]


# ---------------------------------------------------------------------------
# estimates and reports


@dataclass(frozen=True)
class OutcomeEstimate:
    """Monte-Carlo estimate with a normal-approximation 95% interval."""

    n: int
    mean: float
    std_error: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_outcomes(cls, outcomes: np.ndarray) -> "OutcomeEstimate":
        outcomes = np.asarray(outcomes, dtype=float)
        n = len(outcomes)
        if n < 2:
            raise GameSpecError("need at least 2 replicas for a standard error")
        mean = float(np.mean(outcomes))
        se = float(np.std(outcomes, ddof=1) / math.sqrt(n))
        return cls(n=n, mean=mean, std_error=se,
                   ci_low=mean - 1.96 * se, ci_high=mean + 1.96 * se)


@dataclass(frozen=True)
class ResidualReport:
    """Martingale residual diagnostics for one test function."""

    phi: str
    checkpoints: np.ndarray
    mean_residual: np.ndarray
    std_error: np.ndarray
    ci_contains_zero: np.ndarray  # |mean| <= 3 * SE per checkpoint
    max_abs_mean: float


@dataclass(frozen=True)
class MomentReport:
    """Empirical E||X(t) - X(s)||^2 against a model ceiling or exact value."""

    s: float
    t: float
    empirical: float
    std_error: float
    bound: float
    within_bound: bool
    exact: float | None = None
    matches_exact: bool | None = None


# ---------------------------------------------------------------------------
# simulation


def _grid_indices(spec: GameSpec, u, v) -> tuple[int, int]:
    """Grid indices of a policy's controls; an off-grid control is a GameSpecError."""
    try:
        return spec.u_grid.index(u), spec.v_grid.index(v)
    except ValueError:
        raise GameSpecError(f"policy returned off-grid control u={u!r} v={v!r}") from None


def rate_majorant(spec: GameSpec, h: float) -> float:
    """Uniform ceiling on the total jump rate: d * M1 / h."""
    return spec.d * spec.M1 / h


def check_majorant(total: float, lam: float) -> None:
    """Reject a total jump rate (the largest of a batch) above the majorant
    ``lam``: the declared M1 then bounds no drift, and thinning is invalid."""
    if not (total <= lam * (1.0 + 1e-12)):  # a NaN total fails too
        raise GameSpecError(
            f"total rate {total:.6g} exceeds the majorant {lam:.6g}; M1 is not a drift bound")


def simulate_chain(spec: GameSpec, u_policy, v_policy, x0, h: float, *,
                   t0: float = 0.0, rng: RngLike = 0) -> ChainPath:
    """Exact chain sample via thinning against the d*M1/h majorant.

    ``x0`` must sit on the mesh-h lattice (callers decide how to round).
    Policies are feedback callables (t, y) -> control, re-evaluated at every
    candidate time of the majorant clock, hence at every jump.
    """
    h = _check_mesh(h, warn=False)  # kolmogorov_rates warns at a candidate
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    k0, on = _on_lattice(x0, h)
    if not np.all(on):
        raise GameSpecError(f"x0={x0.tolist()} is not on the mesh-{h} lattice")
    if not (0.0 <= t0 < spec.T):
        raise GameSpecError(f"t0={t0} outside [0, T)")
    gen = as_rng(rng)
    exponential, random = gen.exponential, gen.random
    lam = rate_majorant(spec, h)
    scale = 1.0 / lam
    y = h * k0
    t = t0
    times = [t0]
    states = [y]  # y is rebound at a jump, never written into
    u_idx: list[int] = []
    v_idx: list[int] = []
    n_jumps = 0
    while True:
        t_cand = t + exponential(scale)
        if t_cand >= spec.T:
            break
        u = u_policy(t_cand, y)
        v = v_policy(t_cand, y)
        iu, iv = _grid_indices(spec, u, v)
        f, rates = kolmogorov_rates(spec, t_cand, y, u, v, h)
        total = float(rates.sum())
        check_majorant(total, lam)
        # uniform() is 0 + 1 * random(): the same double from the same stream
        accept = random() < total / lam if total > 0 else False
        u_idx.append(iu)
        v_idx.append(iv)
        if accept:
            i = pick_axis(rates, random())
            offset = np.zeros(spec.d)
            offset[i] = math.copysign(h, f[i])
            y = y + offset  # in place would keep a -0.0 coordinate that this makes +0.0
            n_jumps += 1
        t = t_cand
        times.append(t)
        states.append(y)
    times.append(spec.T)
    # segment j spans [times[j], times[j+1]) at state states[j]; candidate k+1
    # was evaluated at (times[k+1], states[k]), which logs segment k's control;
    # the trailing segment (after the last candidate) is evaluated at its start
    m = len(times) - 1
    seg_states = np.stack(states[:m])
    tail_t = float(times[m - 1])
    u_tail, v_tail = _grid_indices(spec, u_policy(tail_t, seg_states[-1]),
                                   v_policy(tail_t, seg_states[-1]))
    u_arr = np.array(u_idx + [u_tail], dtype=np.int64)
    v_arr = np.array(v_idx + [v_tail], dtype=np.int64)
    return ChainPath(times=np.asarray(times), states=seg_states,
                     u_indices=u_arr, v_indices=v_arr, n_jumps=n_jumps)


# ---------------------------------------------------------------------------
# diagnostics


def moment_growth_check(paths: Sequence[ChainPath], s: float, t: float, spec: GameSpec, *,
                        h: float, exact: float | None = None) -> MomentReport:
    """Empirical E||Y(t) - Y(s)||^2 of mesh-h chain paths against the model
    growth ceiling m02*(t-s) + alpha*(t-s)^{3/2}, with m02 =
    ``bounds.certified_m0_2`` (d^{3/2}*M1*h) and
    alpha = (2/3)*M1*(m02 + M1^2)*e^T.  ``exact`` additionally checks a known
    closed-form second moment within three standard errors.
    """
    if not (s < t):
        raise GameSpecError("need s < t")
    delta = t - s
    sq = np.array([float(np.sum((p.state_at(t) - p.state_at(s)) ** 2)) for p in paths])
    if len(sq) < 2:
        raise GameSpecError("need at least 2 paths")
    emp = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(len(sq)))
    m02 = certified_m0_2(spec, h)
    alpha = (2.0 / 3.0) * spec.M1 * (m02 + spec.M1**2) * math.exp(spec.T)
    bound = m02 * delta + alpha * delta ** 1.5
    report = MomentReport(
        s=s, t=t, empirical=emp, std_error=se, bound=bound,
        within_bound=bool(emp <= bound + 3 * se),
        exact=exact,
        matches_exact=None if exact is None else bool(abs(emp - exact) <= 3 * se),
    )
    return report


def _rowdot(a, b) -> np.ndarray:
    """<a, b> over the last axis, summed axis by axis in order.  For d=1 it
    is the product itself, bitwise numpy's dot; for d >= 2 it can differ from
    numpy's (fused multiply-add) dot in the last place."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, np.shape(a)[-1]):
        out = out + a[..., i] * b[..., i]
    return out


def _phi_and_generator(phi: str, a, spec: GameSpec, h: float):
    """Test function and its exact chain-generator action, on batches of states.

    linear:    phi(y) = <a, y>,        L phi = <a, b2>
    quadratic: phi(y) = ||y - a||^2,   L phi = sigma2 + 2 <y - a, b2>

    ``gen_fn(t, ys, u, v)`` takes (n, d) states with one time and one control
    pair per row.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.shape != (spec.d,):
        raise GameSpecError(f"test-function parameter shape {a.shape} != ({spec.d},)")
    if phi == "linear":
        def phi_fn(y):
            return _rowdot(a, y)

        def gen_fn(t, y, u, v):
            b2, _ = chain_characteristics(spec, t, y, u, v, h)
            return _rowdot(a, b2)
    elif phi == "quadratic":
        def phi_fn(y):
            return _rowdot(y - a, y - a)

        def gen_fn(t, y, u, v):
            b2, sigma2 = chain_characteristics(spec, t, y, u, v, h)
            return sigma2 + 2.0 * _rowdot(y - a, b2)
    else:
        raise GameSpecError(f"phi must be 'linear' or 'quadratic', got {phi!r}")
    return phi_fn, gen_fn


def martingale_residual(paths: Sequence[ChainPath], spec: GameSpec, h: float, phi: str,
                        a, checkpoints: Sequence[float]) -> ResidualReport:
    """Mean of phi(Y(t)) - phi(Y(t0)) - integral of the generator along paths.

    The compensator integral is evaluated segment by segment from the logged
    states and controls (exact whenever rates are constant per segment, which
    holds for autonomous drifts with the logged piecewise-constant controls).
    A centered residual within three standard errors of zero at every
    checkpoint is the expected martingale signature.

    All paths are laid out as padded (paths, segments) arrays; the generator
    is evaluated in one ``chain_characteristics`` call, each segment at its
    start time under its own controls.  A running sum along each path,
    from 0.0, of the whole-segment terms gives every checkpoint the sum of
    its whole segments in the order a segment-by-segment loop adds them;
    the checkpoint then adds its one partial term gen * (tc - lo).
    """
    checkpoints = np.asarray(sorted(float(c) for c in checkpoints))
    if len(checkpoints) == 0:
        raise GameSpecError("need at least one checkpoint")
    if not np.all(np.isfinite(checkpoints)):
        raise GameSpecError(f"checkpoints must be finite, got {checkpoints.tolist()}")
    if len(paths) < 2:
        raise GameSpecError("need at least 2 paths")
    phi_fn, gen_fn = _phi_and_generator(phi, a, spec, h)
    n_paths = len(paths)
    width = max((len(p.states) for p in paths), default=0)
    # segment j of path r spans [lo, hi) at state ys under controls (iu, iv);
    # +inf times pad the shorter paths
    lo = np.full((n_paths, width), np.inf)
    hi = np.full((n_paths, width), np.inf)
    ys = np.zeros((n_paths, width, spec.d))
    iu = np.zeros((n_paths, width), dtype=np.int64)
    iv = np.zeros((n_paths, width), dtype=np.int64)
    valid = np.zeros((n_paths, width), dtype=bool)
    y0 = np.empty((n_paths, spec.d))
    y_cp = np.empty((n_paths, len(checkpoints), spec.d))
    for r, path in enumerate(paths):
        m = len(path.states)
        lo[r, :m] = path.times[:m]
        hi[r, :m] = path.times[1:m + 1]
        ys[r, :m] = path.states
        iu[r, :m] = path.u_indices
        iv[r, :m] = path.v_indices
        valid[r, :m] = True
        y0[r] = path.states[0]
        y_cp[r] = path.state_at(checkpoints)

    seg_lo = lo[valid]
    seg_gen = gen_fn(seg_lo, ys[valid], np.asarray(spec.u_grid)[iu[valid]],
                     np.asarray(spec.v_grid)[iv[valid]])
    gen = np.zeros((n_paths, width))
    gen[valid] = seg_gen
    # whole[:, k] = sum of the first k whole-segment terms, added in path order
    whole = np.zeros((n_paths, width + 1))
    whole[:, 1:][valid] = seg_gen * (hi[valid] - seg_lo)
    whole = np.cumsum(whole, axis=1)

    base = phi_fn(y0)
    every = np.arange(n_paths)
    res = np.empty((n_paths, len(checkpoints)))
    for c_i, tc in enumerate(checkpoints):
        k = np.count_nonzero(hi <= tc, axis=1)  # whole segments before tc
        integral = whole[every, k]
        part = np.flatnonzero(k < width)
        part = part[lo[part, k[part]] < tc]      # tc falls inside segment k
        integral[part] += gen[part, k[part]] * (tc - lo[part, k[part]])
        res[:, c_i] = phi_fn(y_cp[:, c_i]) - base - integral
    mean = np.mean(res, axis=0)
    se = np.std(res, axis=0, ddof=1) / math.sqrt(len(paths))
    contains = np.abs(mean) <= 3.0 * se + 1e-15
    return ResidualReport(phi=phi, checkpoints=checkpoints, mean_residual=mean,
                          std_error=se, ci_contains_zero=contains,
                          max_abs_mean=float(np.max(np.abs(mean))))
