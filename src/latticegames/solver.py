"""Backward minimax solver for value functions of lattice chain games.

The value of the chain game solves a countable system of ODEs: going backward
from the terminal payoff, each lattice value moves with the minimax (upper) or
maximin (lower) of the chain generator applied to the current value slice.
On a truncated box with the freezing boundary policy the system is finite and
an explicit Euler step below the stability ceiling is a convex combination of
current values, which preserves comparison and keeps values inside the range
of the terminal data.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .chain import LatticeDomain, kolmogorov_rates, neighbor_tables
from .errors import GameSpecError, ResourceError, StepSizeError, TruncationError
from .games import GameSpec, drift_batch, payoff_batch

VALUE_KINDS = ("upper", "lower")

# tolerance for snapping times to the integration grid
_TIME_FUZZ = 1e-9


@dataclass(frozen=True)
class ValueGrid:
    """One time slice of lattice values."""

    t: float
    domain: LatticeDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.domain.n_points,):
            raise GameSpecError(
                f"values shape {vals.shape} does not match domain size {self.domain.n_points}"
            )
        if not np.all(np.isfinite(vals)):
            raise GameSpecError(f"non-finite values in slice at t={self.t}")
        object.__setattr__(self, "values", vals)

    def value_at(self, x) -> float:
        return float(self.values[self.domain.index_of_state(x)])


@dataclass(frozen=True)
class SolveResult:
    """Backward solve output: recorded slices ordered by decreasing time.

    ``sigma`` is the viscosity of a ``solve_viscous`` run (whose ``h`` is the
    spatial step dx) and None for the chain solver.  ``boundary`` is
    "dirichlet" for ``solve_viscous`` and "freeze" for the chain solver.
    """

    game: str
    kind: str
    h: float
    dt: float
    scheme: str
    boundary: str
    slices: tuple[ValueGrid, ...]
    sigma: float | None = None

    @property
    def domain(self) -> LatticeDomain:
        return self.slices[0].domain

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.slices])

    def slice_at(self, t: float) -> ValueGrid:
        for s in self.slices:
            if abs(s.t - t) <= _TIME_FUZZ:
                return s
        raise TruncationError(f"no recorded slice at t={t}; have {self.times.tolist()}")

    def value_at(self, t: float, x) -> float:
        return self.slice_at(t).value_at(x)


@dataclass(frozen=True)
class FeedbackTable:
    """First-player feedback of the upper chain game, without the values.

    ``u_index[j, p]`` is the lowest u-grid index attaining min_u max_v of the
    generator applied to the upper value slice at ``times[j]`` (ascending),
    at lattice point p, with the drift evaluated at ``times[j]``.  This is all
    the extremal-shift strategy reads from the value function; one byte per
    entry instead of the float64 slice history.  ``value0`` is the t=0 slice.
    Built by ``feedback_table``; it is the coupling engine's only input.
    """

    game: str
    h: float
    dt: float
    domain: LatticeDomain
    times: np.ndarray
    u_index: np.ndarray
    value0: ValueGrid


def weighted_norm(grid: ValueGrid, other: ValueGrid | None = None) -> float:
    """Mesh-weighted sup norm sup_x |a(x) - b(x)| / (h + ||x||) over the box."""
    diff = grid.values if other is None else grid.values - other.values
    if other is not None and grid.domain != other.domain:
        raise GameSpecError("weighted_norm requires slices on the same domain")
    norms = np.linalg.norm(grid.domain.states(), axis=1)
    return float(np.max(np.abs(diff) / (grid.domain.h + norms)))


def _lattice_floor(value: float, h: float) -> int:
    r = value / h
    rr = round(r)
    return int(rr) if abs(r - rr) < 1e-9 else math.floor(r)


def _lattice_ceil(value: float, h: float) -> int:
    r = value / h
    rr = round(r)
    return int(rr) if abs(r - rr) < 1e-9 else math.ceil(r)


def truncate_domain(spec: GameSpec, x0_box, h: float, t0: float = 0.0, pad: float = 0.5,
                    max_points: int = 4_000_000) -> LatticeDomain:
    """Lattice box that contains everything reachable from the start box.

    The start box is inflated by M1 * (T - t0) + pad per coordinate (the drift
    cannot move the state faster than M1) and rounded outward to lattice
    coordinates.  ``x0_box`` is a point, a (lo, hi) pair for d=1, or a (d, 2)
    array of per-coordinate intervals.
    """
    if not (0.0 <= t0 <= spec.T):
        raise GameSpecError(f"t0={t0} outside [0, {spec.T}]")
    if pad < 0:
        raise GameSpecError("pad must be >= 0")
    box = np.asarray(x0_box, dtype=float)
    if box.ndim == 0:
        box = np.full((spec.d, 2), float(box))
    elif box.ndim == 1:
        if box.shape == (spec.d,):
            box = np.stack([box, box], axis=1)
        elif spec.d == 1 and box.shape == (2,):
            box = box.reshape(1, 2)
        else:
            raise GameSpecError(f"cannot interpret x0_box of shape {box.shape} for d={spec.d}")
    if box.shape != (spec.d, 2) or np.any(box[:, 0] > box[:, 1]):
        raise GameSpecError(f"x0_box must be (d, 2) intervals, got {box!r}")
    radius = spec.M1 * (spec.T - t0) + pad
    lo = tuple(_lattice_floor(box[i, 0] - radius, h) for i in range(spec.d))
    hi = tuple(_lattice_ceil(box[i, 1] + radius, h) for i in range(spec.d))
    n = int(np.prod([b - a + 1 for a, b in zip(lo, hi)]))
    if n > max_points:
        # suggest the coarsest refinement that fits the budget
        suggested = h * (n / max_points) ** (1.0 / spec.d)
        raise ResourceError(
            f"domain would hold {n} points (> budget {max_points}); try h >= {suggested:.3g}"
        )
    return LatticeDomain(h=h, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# the generator kernel


class Rates(NamedTuple):
    """Upwind jump rates of every control pair, with the kernel's work arrays.

    ``up`` and ``rate`` have shape (nu, nv, d, n): entry [iu, iv, i] belongs to
    the control pair (u_grid[iu], v_grid[iv]) on axis i at the domain's n
    points.  ``diffs`` (2, d, n) and ``work`` (3, n) are scratch for kernel
    calls: each call overwrites them, so one set of rates serves one call at
    a time.
    """

    up: np.ndarray
    rate: np.ndarray
    diffs: np.ndarray
    work: np.ndarray


def _pair_rates(spec: GameSpec, t: float, states: np.ndarray, h: float) -> Rates:
    """Upwind jump rates of every control pair at the points ``states``.

    These are ``chain.kolmogorov_rates``: along axis i the chain jumps at
    ``rate`` to the up neighbour where ``up`` is set (f_i > 0 and a positive
    rate) and to the down neighbour elsewhere.
    The rates and the kernel's work arrays live in one anonymous memory
    mapping of their own, which is unmapped when the last view goes: in the
    malloc heap the freed block stayed resident under the later phases of a
    process, and work arrays allocated per kernel call would be mapped and
    faulted in afresh at every sweep step of a fresh process.
    """
    n = len(states)
    shape = (len(spec.u_grid), len(spec.v_grid), spec.d, n)
    size = math.prod(shape)
    n_floats = size + (2 * spec.d + 3) * n
    block = mmap.mmap(-1, max(1, 8 * n_floats + size))  # a mapping cannot be empty
    floats = np.frombuffer(block, dtype=float, count=n_floats)
    rate = floats[:size].reshape(shape)
    diffs = floats[size:size + 2 * spec.d * n].reshape(2, spec.d, n)
    work = floats[size + 2 * spec.d * n:].reshape(3, n)
    up = np.frombuffer(block, dtype=bool, count=size, offset=8 * n_floats).reshape(shape)
    for iu, u in enumerate(spec.u_grid):
        for iv, v in enumerate(spec.v_grid):
            f, r = kolmogorov_rates(spec, t, states, u, v, h)
            rate[iu, iv] = r.T
            np.logical_and(f.T > 0, r.T > 0, out=up[iu, iv])
    return Rates(up, rate, diffs, work)


_AUTONOMY_SAMPLE = 64  # states on which a declared-autonomous drift is spot-checked


def _check_autonomous(spec: GameSpec, states: np.ndarray) -> None:
    """Spot-check ``spec.autonomous``: every control pair's drift must be the
    same at T and at 0 on a fixed sample of at most 64 of ``states``.  NaN
    equals NaN here: the rate build then reports the drift as not finite."""
    sample = states[::-(-len(states) // _AUTONOMY_SAMPLE)]
    m, nu, nv = len(sample), len(spec.u_grid), len(spec.v_grid)
    # one control pair per row, pairs in grid order, the sample within each
    u = np.repeat(np.asarray(spec.u_grid, dtype=float), nv * m, axis=0)
    v = np.concatenate([np.repeat(np.asarray(spec.v_grid, dtype=float), m, axis=0)] * nu)
    xs = np.tile(sample, (nu * nv, 1))
    if not np.array_equal(drift_batch(spec, spec.T, xs, u, v), drift_batch(spec, 0.0, xs, u, v),
                          equal_nan=True):
        raise GameSpecError(f"game {spec.name!r} is declared autonomous, but its drift "
                            f"differs at t=0 and t=T={spec.T:g}")


def _rates_by_time(spec: GameSpec, domain: LatticeDomain,
                   states: np.ndarray) -> Callable[[float], Rates]:
    """The kernel's rates at time t, for a sweep over ``states``, the
    domain's points.

    An autonomous spec's rates are built once, at T, after a spot check of
    the declaration.  Other specs' are rebuilt at each new kernel time;
    consecutive calls at one time (RK4's middle stages, a step and the next
    one's start) share the build.
    """
    built: dict[float, Rates] = {}
    if spec.autonomous:
        _check_autonomous(spec, states)

    def at(t: float) -> Rates:
        t = spec.T if spec.autonomous else t
        if t not in built:
            built.clear()
            built[t] = _pair_rates(spec, t, states, domain.h)
        return built[t]
    return at


def _upwind_generator(ups: np.ndarray, rates: np.ndarray, d_up: np.ndarray,
                      d_down: np.ndarray, out: np.ndarray, w: np.ndarray) -> None:
    """Write into ``out`` the chain generator sum_i rate_i * (V[up_i] - V or
    V[down_i] - V) of one control pair, the upwind direction per ``up_i``.

    ``ups``/``rates`` are the pair's (d, n) slices of ``_pair_rates``;
    ``d_up[i]``/``d_down[i]`` hold the value differences V[up_i] - V and
    V[down_i] - V at its points; ``w`` is a work row.  This is also the
    first-order upwind difference of <grad V, f>.
    """
    out.fill(0.0)
    for up, rate, du, dd in zip(ups, rates, d_up, d_down):
        np.copyto(w, dd)
        np.copyto(w, du, where=up)
        w *= rate
        out += w


def _minimax(values: np.ndarray, rates: Rates, domain: LatticeDomain, kind: str,
             index: np.ndarray | None = None) -> np.ndarray:
    """Minimax (upper: min_u max_v) or maximin (lower: max_v min_u) of the
    generator at every point of ``domain``, with ``rates`` built on
    ``domain.states()``.

    Returns a fresh array; only the rates' work arrays are overwritten.  When
    given, ``index`` receives the lowest grid index of the committing player's
    control (u for upper, v for lower) attaining the outer min (max), with
    ``np.argmin``'s (``np.argmax``'s) ties.
    """
    if kind not in VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {VALUE_KINDS}, got {kind!r}")
    up, down, _ = neighbor_tables(domain)
    d_up, d_down = rates.diffs
    # indices are in range: "clip" skips the copy that "raise" buffers out through
    np.take(values, up, out=d_up, mode="clip")
    np.take(values, down, out=d_down, mode="clip")
    d_up -= values
    d_down -= values
    # u always minimises and v always maximises; upper commits u first
    # (min_u max_v), lower commits v first (max_v min_u)
    if kind == "upper":
        ups, rate = rates.up, rates.rate
        inner_best, outer_best, improves = np.maximum, np.minimum, np.less
    else:
        ups, rate = rates.up.swapaxes(0, 1), rates.rate.swapaxes(0, 1)
        inner_best, outer_best, improves = np.minimum, np.maximum, np.greater
    g, inner, w = rates.work
    field = np.empty(len(values))
    if index is not None:
        index.fill(0)
    for a in range(rate.shape[0]):
        acc = field if a == 0 else inner
        _upwind_generator(ups[a, 0], rate[a, 0], d_up, d_down, acc, w)
        for b in range(1, rate.shape[1]):
            _upwind_generator(ups[a, b], rate[a, b], d_up, d_down, g, w)
            inner_best(acc, g, out=acc)
        if a > 0:
            if index is not None:
                np.copyto(index, a, where=improves(inner, field))
            outer_best(field, inner, out=field)
    return field


def hamiltonian_field(values: np.ndarray, spec: GameSpec, t: float, domain: LatticeDomain,
                      kind: str, *, rates: Rates | None = None) -> np.ndarray:
    """Minimax (upper) or maximin (lower) of the generator over both grids.

    ``rates`` are the ``_pair_rates`` of ``domain.states()``, which a sweep
    builds once per solve for an autonomous spec; without them they are
    built here at t.  The result is a fresh array that later calls with the
    same rates leave alone.
    """
    if rates is None:
        rates = _pair_rates(spec, t, domain.states(), domain.h)
    return _minimax(values, rates, domain, kind)


# ---------------------------------------------------------------------------
# backward integration


_CEILING_NAME = "stability ceiling h/(2*d*M1)"


def dt_ceiling(spec: GameSpec, h: float) -> float:
    """Largest stable explicit step: per-step outflow rate * dt <= 1/2."""
    return h / (2.0 * spec.d * spec.M1)


def _tiling_dt(span: float, ceiling: float) -> float:
    """Largest dt <= ceiling that tiles ``span`` with an integer number of steps."""
    n = max(1, math.ceil(span / ceiling * (1.0 - 1e-12)))
    return span / n


def auto_dt(spec: GameSpec, h: float, t_min: float = 0.0) -> float:
    """Largest dt <= ceiling that tiles [t_min, T] with an integer number of steps."""
    return _tiling_dt(spec.T - t_min, dt_ceiling(spec, h))


def _range_check(g: np.ndarray) -> Callable[[np.ndarray, float], None]:
    """Maximum principle of a monotone step: values stay in [min g, max g]."""
    lo, hi = float(g.min()), float(g.max())
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))

    def check(values: np.ndarray, t: float) -> None:
        # written so that a NaN anywhere fails the comparison too
        if not (values.min() >= lo - tol and values.max() <= hi + tol):
            raise StepSizeError(
                f"values at t={t:.6g} leave the terminal payoff range "
                f"[{lo:.6g}, {hi:.6g}]; reduce dt"
            )
    return check


def _resolve_dt(spec: GameSpec, dt: float | None, t_min: float, ceiling: float,
                ceiling_name: str) -> float:
    """The given dt, validated, or the largest one under ``ceiling`` that
    tiles [t_min, T]."""
    if dt is None:
        dt = _tiling_dt(spec.T - t_min, ceiling)
    dt = float(dt)
    if dt <= 0:
        raise GameSpecError(f"dt must be positive, got {dt}")
    if dt > ceiling * (1 + 1e-9):
        raise StepSizeError(f"dt={dt:.6g} exceeds the {ceiling_name}={ceiling:.6g}")
    return dt


def _snapped_steps(spec: GameSpec, c: float, dt: float) -> int:
    """Step count k = ceil((T - c)/dt) of the grid time a checkpoint c snaps to."""
    return max(0, math.ceil((spec.T - c) / dt - _TIME_FUZZ))


def _sweep(spec: GameSpec, domain: LatticeDomain, values: np.ndarray,
           step: Callable[[np.ndarray, float, float, float], np.ndarray], *,
           dt: float | None, checkpoints: Sequence[float] | None,
           ceiling: float, ceiling_name: str,
           check: Callable[[np.ndarray, float], None] | None = None
           ) -> tuple[float, tuple[ValueGrid, ...]]:
    """Backward explicit sweep from the terminal slice ``values`` at T.

    Each step maps (values, t, t_next, dt) to the slice at t_next = T - k*dt;
    ``check`` (default: the payoff-range check) then vets it.  Slices are
    recorded at checkpoint times snapped *down* to that grid (a checkpoint
    maps to the largest grid time <= it); ``checkpoints=None`` records every
    step down to t=0.  Returns dt and the slices ordered by decreasing time.
    """
    if checkpoints is None:
        want = None
        t_min = 0.0
    else:
        targets = sorted(float(c) for c in checkpoints)
        if not targets:
            raise GameSpecError("checkpoints must be non-empty when given")
        if targets[0] < -_TIME_FUZZ or targets[-1] > spec.T + _TIME_FUZZ:
            raise GameSpecError(f"checkpoints must lie in [0, {spec.T}]")
        t_min = targets[0]
    dt = _resolve_dt(spec, dt, t_min, ceiling, ceiling_name)
    if checkpoints is not None:
        want = {_snapped_steps(spec, c, dt) for c in targets}
        k_last = max(want)
    if check is None:
        check = _range_check(values)

    t = spec.T
    k = 0
    slices = [ValueGrid(t=t, domain=domain, values=values.copy())] if want is None or 0 in want else []
    while t > _TIME_FUZZ if want is None else k < k_last:
        k += 1
        t_next = spec.T - k * dt
        values = step(values, t, t_next, dt)
        t = t_next
        check(values, t)
        if want is None or k in want:
            slices.append(ValueGrid(t=t, domain=domain, values=values.copy()))
    return dt, tuple(slices)


def solve_backward(spec: GameSpec, domain: LatticeDomain, *, kind: str = "upper",
                   dt: float | None = None, checkpoints: Sequence[float] | None = None,
                   scheme: str = "euler") -> SolveResult:
    """Integrate the value system backward from the terminal payoff.

    Checkpoints snap down to the integration grid t_k = T - k*dt;
    ``checkpoints=None`` records every step down to t=0, which the feedback
    strategy machinery relies on.  Explicit Euler is the reference monotone
    scheme and is checked against the maximum principle; ``scheme="rk4"`` is a
    higher-accuracy non-monotone alternative under the same step ceiling,
    checked against exp(3*d*M1*(T-t)) growth of the mesh-weighted norm.
    """
    if kind not in VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {VALUE_KINDS}, got {kind!r}")
    if scheme not in ("euler", "rk4"):
        raise GameSpecError(f"scheme must be 'euler' or 'rk4', got {scheme!r}")
    states = domain.states()
    rates_at = _rates_by_time(spec, domain, states)
    values = payoff_batch(spec, states).astype(float)

    def H(vals: np.ndarray, t: float) -> np.ndarray:
        return hamiltonian_field(vals, spec, t, domain, kind, rates=rates_at(t))

    check = None
    if scheme == "euler":
        def step(vals, t, t_next, dt):
            return vals + dt * H(vals, t)
    else:
        def step(vals, t, t_next, dt):
            k1 = H(vals, t)
            k2 = H(vals + 0.5 * dt * k1, t - 0.5 * dt)
            k3 = H(vals + 0.5 * dt * k2, t - 0.5 * dt)
            k4 = H(vals + dt * k3, t_next)
            return vals + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        weights = domain.h + np.linalg.norm(states, axis=1)
        g_norm = float(np.max(np.abs(values) / weights))
        growth_rate = 3.0 * spec.d * spec.M1

        def check(vals, t):
            ceiling_norm = g_norm * math.exp(growth_rate * (spec.T - t)) * (1 + 1e-6)
            if not np.all(np.isfinite(vals)) or np.max(np.abs(vals) / weights) > ceiling_norm:
                raise StepSizeError(
                    f"runaway growth at t={t:.6g}: weighted norm exceeds "
                    f"exp({growth_rate:.3g}*(T-t)) * terminal norm; reduce dt"
                )

    dt, slices = _sweep(spec, domain, values, step, dt=dt, checkpoints=checkpoints,
                        ceiling=dt_ceiling(spec, domain.h), ceiling_name=_CEILING_NAME,
                        check=check)
    return SolveResult(game=spec.name, kind=kind, h=domain.h, dt=dt, scheme=scheme,
                       boundary="freeze", slices=slices)


def feedback_table(spec: GameSpec, domain: LatticeDomain, *,
                   dt: float | None = None) -> FeedbackTable:
    """Upper-value Euler sweep down to t=0 that keeps only the feedback table.

    Each step already evaluates min_u max_v of the generator on the current
    slice; the table records the u index attaining it, and the t=0 slice gets
    one more evaluation.  The values of every step are the ones
    ``solve_backward(spec, domain, dt=dt, checkpoints=[0.0])`` computes, but
    only the last slice is kept.  Like the sweep, the table evaluates the
    drift at each slice's grid time t_k (once, at T, for an autonomous spec).
    """
    ceiling = dt_ceiling(spec, domain.h)
    dt = _resolve_dt(spec, dt, 0.0, ceiling, _CEILING_NAME)
    n_steps = _snapped_steps(spec, 0.0, dt)
    u_index = np.empty((n_steps + 1, domain.n_points),
                       dtype=np.min_scalar_type(len(spec.u_grid) - 1))
    times = np.empty(n_steps + 1)
    rows = iter(range(n_steps, 0, -1))
    states = domain.states()
    rates_at = _rates_by_time(spec, domain, states)

    def step(vals, t, t_next, dt):
        row = next(rows)
        times[row] = t
        return vals + dt * _minimax(vals, rates_at(t), domain, "upper", index=u_index[row])

    dt, (value0,) = _sweep(spec, domain, payoff_batch(spec, states).astype(float), step,
                           dt=dt, checkpoints=[0.0], ceiling=ceiling, ceiling_name=_CEILING_NAME)
    times[0] = value0.t
    _minimax(value0.values, rates_at(value0.t), domain, "upper", index=u_index[0])
    return FeedbackTable(game=spec.name, h=domain.h, dt=dt, domain=domain, times=times,
                         u_index=u_index, value0=value0)


# ---------------------------------------------------------------------------
# CSV serialization: one file per slice, 17 significant digits


_CSV_BLOCK = 4096  # rows formatted per write


def write_slice_csv(grid: ValueGrid, path: str | Path, meta: dict | None = None) -> None:
    """Write one slice as CSV: comment metadata lines, header, one row per point.

    Rows are formatted and written in blocks, never the whole text at once.
    """
    d = grid.domain.d
    states = grid.domain.states()
    # one "%" operation per block: the row template repeated once per row
    row = f"{float(grid.t):.17g}" + ",%.17g" * (d + 1) + "\n"
    with Path(path).open("w") as fh:
        for key, val in (meta or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("t," + ",".join(f"x_{i + 1}" for i in range(d)) + ",value\n")
        for lo in range(0, len(states), _CSV_BLOCK):
            block = np.column_stack((states[lo:lo + _CSV_BLOCK], grid.values[lo:lo + _CSV_BLOCK]))
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_slice_csv(path: str | Path, h: float) -> tuple[ValueGrid, dict]:
    """Read a slice CSV back onto its lattice; returns (grid, metadata)."""
    path = Path(path)
    meta: dict[str, str] = {}
    rows: list[str] = []
    header_seen = False
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, val = body.split("=", 1)
                meta[key.strip()] = val.strip()
            continue
        if not header_seen:
            header_seen = True
            continue
        rows.append(line)
    if not rows:
        raise GameSpecError(f"slice file {path} holds no data rows")
    try:
        data = np.array([[float(tok) for tok in line.split(",")] for line in rows])
    except ValueError as exc:
        raise GameSpecError(f"slice file {path} has a malformed data row: {exc}") from exc
    t = float(data[0, 0])
    states = data[:, 1:-1]
    vals = data[:, -1]
    ks = np.round(states / h).astype(int)
    if np.max(np.abs(states - h * ks)) > 1e-9 * max(1.0, h):
        raise GameSpecError(f"states in {path} do not sit on a mesh-{h} lattice")
    lo = tuple(int(a) for a in ks.min(axis=0))
    hi = tuple(int(b) for b in ks.max(axis=0))
    domain = LatticeDomain(h=h, lo=lo, hi=hi)
    if domain.n_points != len(vals):
        raise GameSpecError(f"slice file {path} does not cover a full box")
    # a repeated row leaves a hole, which ValueGrid rejects as non-finite
    ordered = np.full(domain.n_points, np.nan)
    ordered[np.ravel_multi_index(tuple((ks - np.asarray(lo)).T), domain.shape)] = vals
    return ValueGrid(t=t, domain=domain, values=ordered), meta
