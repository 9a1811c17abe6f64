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

import functools
import io
import math
import mmap
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .chain import LatticeDomain, kolmogorov_rates
from .errors import (GameSpecError, MonotoneStepError, ResourceError, StepSizeError,
                     TruncationError)
from .games import GameSpec, drift_batch, payoff_batch

VALUE_KINDS = ("upper", "lower")

# tolerance for snapping times to the integration grid
_TIME_FUZZ = 1e-9

# lattice points a truncated domain may hold
_MAX_POINTS = 4_000_000


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

    ``u_at(j, p)`` is the lowest u-grid index attaining min_u max_v of the
    generator applied to the upper value slice at ``times[j]`` (ascending),
    at lattice point p, with the drift evaluated at ``times[j]``.  This is all
    the extremal-shift strategy reads from the value function.  The indices
    are bit-packed: ``bits`` is the smallest of 1, 2, 4, 8, 16, 32 with
    len(u_grid) <= 2**bits, and ``per`` = max(1, 8 // bits) entries share one
    word of ``u_words`` (uint8 up to 8 bits, else uint16 or uint32), entry p
    of row j at word p // per, bit offset (p % per) * bits.  ``value0`` is the
    t=0 slice.  Built by ``feedback_table``; it is the coupling engine's only
    input.
    """

    game: str
    h: float
    dt: float
    domain: LatticeDomain
    times: np.ndarray
    bits: int
    u_words: np.ndarray
    value0: ValueGrid

    def u_at(self, rows, points) -> np.ndarray:
        """u-grid indices at the broadcast index arrays ``rows`` (into
        ``times``) and ``points`` (lattice points), in ``u_words``' dtype."""
        per = max(1, 8 // self.bits)
        points = np.asarray(points)
        shift = ((points & (per - 1)) * self.bits).astype(self.u_words.dtype)
        return (self.u_words[rows, points >> (per.bit_length() - 1)] >> shift) & (2**self.bits - 1)


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


def truncate_domain(spec: GameSpec, x0_box, h: float, pad: float = 0.5) -> LatticeDomain:
    """Lattice box that contains everything reachable from the start box.

    The start box is inflated by M1 * T + pad per coordinate (the drift
    cannot move the state faster than M1) and rounded outward to lattice
    coordinates.  ``x0_box`` is a point, a (lo, hi) pair for d=1, or a (d, 2)
    array of per-coordinate intervals.
    """
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
    radius = spec.M1 * spec.T + pad
    lo = tuple(_lattice_floor(box[i, 0] - radius, h) for i in range(spec.d))
    hi = tuple(_lattice_ceil(box[i, 1] + radius, h) for i in range(spec.d))
    n = int(np.prod([b - a + 1 for a, b in zip(lo, hi)]))
    if n > _MAX_POINTS:
        # suggest the coarsest refinement that fits the budget
        suggested = h * (n / _MAX_POINTS) ** (1.0 / spec.d)
        raise ResourceError(
            f"domain would hold {n} points (> budget {_MAX_POINTS}); try h >= {suggested:.3g}"
        )
    return LatticeDomain(h=h, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# the generator kernel


# a term with more runs of one jump direction along the C order than this
# selects its direction per point
_MAX_RUNS = 8


class Rates(NamedTuple):
    """Upwind jump rates of every control pair, with the kernel's work arrays.

    ``up`` and ``rate`` have shape (nu, nv, d, n): entry [iu, iv, i] belongs to
    the control pair (u_grid[iu], v_grid[iv]) on axis i at the domain's n
    points.  ``terms[iu][iv][i]`` is the shape of that term (``_term_runs``):
    () for a zero term, whose rate is 0 at every point; else its runs
    (start, stop, goes_up) of one jump direction along the C order of the
    points, one run for a drift component of one sign and two for one that
    changes sign across the slowest axis; or None, a mixed term, beyond
    ``_MAX_RUNS`` runs.  ``up`` is written for mixed terms only and ``rate``
    for nonzero terms only; the other rows read as zero.  ``diffs`` (2, d,
    n) holds a kernel call's neighbour differences V[up_i] - V and
    V[down_i] - V (``_neighbor_diffs``), and ``work`` (3, n) its accumulator
    rows; each call overwrites both, so one set of rates serves one call at
    a time.
    ``peaks[iu, iv]`` is the largest total rate sum_i rate_i of a pair over
    the points, reached first at point ``peak_points[iu, iv]``; ``peak_rate``
    is the largest over the pairs, reached first (pairs in grid order, then
    points) at point ``peak_at[0]`` for the pair (u_grid[peak_at[1]],
    v_grid[peak_at[2]]).
    """

    up: np.ndarray
    rate: np.ndarray
    diffs: np.ndarray
    work: np.ndarray
    terms: tuple
    peaks: np.ndarray
    peak_points: np.ndarray

    @property
    def peak_rate(self) -> float:
        return float(self.peaks.max())

    @property
    def peak_at(self) -> tuple[int, int, int]:
        iu, iv = np.unravel_index(int(np.argmax(self.peaks)), self.peaks.shape)
        return int(self.peak_points[iu, iv]), int(iu), int(iv)


def _term_runs(goes_up: np.ndarray, rate: np.ndarray) -> tuple | None:
    """One term's shape: () when its rate is 0 everywhere, else its runs
    (start, stop, goes_up) of one direction along the C order, or None (a
    mixed term) when it has more than ``_MAX_RUNS`` of them."""
    if not rate.any():
        return ()
    cuts = np.flatnonzero(goes_up[1:] != goes_up[:-1]) + 1
    if len(cuts) >= _MAX_RUNS:
        return None
    bounds = [0, *cuts.tolist(), len(goes_up)]
    return tuple((a, b, bool(goes_up[a])) for a, b in zip(bounds[:-1], bounds[1:]))


def _pair_rates(spec: GameSpec, t: float, states: np.ndarray, h: float) -> Rates:
    """Upwind jump rates of every control pair at the points ``states``.

    These are ``chain.kolmogorov_rates``: along axis i the chain jumps at
    ``rate`` to the up neighbour where f_i > 0 and the rate is positive, and
    to the down neighbour elsewhere.
    The rates and the kernel's work arrays live in one anonymous memory
    mapping of their own, which is unmapped when the last view goes: in the
    malloc heap the freed block stayed resident under the later phases of a
    process, and work arrays allocated per kernel call would be mapped and
    faulted in afresh at every sweep step of a fresh process.  The mapping
    starts zeroed, so the rate rows of zero terms and the up rows of all but
    mixed terms are left unwritten: their pages never become resident, and
    the kernel never reads them.  Each pair's total rate is summed into a
    work row, so finding the peaks allocates nothing of size (nu, nv, n).
    """
    n = len(states)
    shape = (len(spec.u_grid), len(spec.v_grid), spec.d, n)
    peaks, peak_points = np.zeros(shape[:2]), np.zeros(shape[:2], dtype=np.intp)
    size = math.prod(shape)
    n_floats = size + (2 * spec.d + 3) * n
    block = mmap.mmap(-1, max(1, 8 * n_floats + size))  # a mapping cannot be empty
    floats = np.frombuffer(block, dtype=float, count=n_floats)
    rate = floats[:size].reshape(shape)
    diffs = floats[size:size + 2 * spec.d * n].reshape(2, spec.d, n)
    work = floats[size + 2 * spec.d * n:].reshape(3, n)
    up = np.frombuffer(block, dtype=bool, count=size, offset=8 * n_floats).reshape(shape)
    terms = []
    for iu, u in enumerate(spec.u_grid):
        terms.append([])
        for iv, v in enumerate(spec.v_grid):
            f, r = kolmogorov_rates(spec, t, states, u, v, h)
            shapes = []
            for i in range(spec.d):
                goes_up = (f[:, i] > 0) & (r[:, i] > 0)
                shapes.append(_term_runs(goes_up, r[:, i]))
                if shapes[-1] != ():
                    rate[iu, iv, i] = r[:, i]
                if shapes[-1] is None:
                    up[iu, iv, i] = goes_up
            terms[iu].append(tuple(shapes))
            total = r.sum(axis=1, out=work[0])
            peak_points[iu, iv] = np.argmax(total)
            peaks[iu, iv] = total[peak_points[iu, iv]]
    return Rates(up, rate, diffs, work, tuple(map(tuple, terms)), peaks, peak_points)


def _check_monotone(spec: GameSpec, states: np.ndarray, rates: Rates, dt: float,
                    extra_rate: float = 0.0) -> None:
    """An explicit Euler step is a convex combination of the current values,
    so it keeps them inside the payoff range, only while every point's total
    outflow rate times dt is at most 1.  ``extra_rate`` is added to the
    chain's peak rate (the viscous Laplacian's d*sigma^2/h^2); ``peak_at``
    indexes ``states``."""
    total = rates.peak_rate + extra_rate
    if not total * dt <= 1.0 + 1e-12:  # a NaN rate fails too
        p, iu, iv = rates.peak_at
        laplacian = f" (with the Laplacian's {extra_rate:.6g})" if extra_rate else ""
        raise MonotoneStepError(
            f"total jump rate {total:.6g}{laplacian} times dt={dt:.6g} is {total * dt:.6g} > 1 "
            f"at x={states[p].tolist()} for the control pair u={spec.u_grid[iu]!r}, "
            f"v={spec.v_grid[iv]!r}: the Euler step is not monotone and can leave the "
            f"terminal payoff range; M1={spec.M1:g} bounds no drift there")


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
    """The kernel's rates at time t over ``states``, the domain's points.

    An autonomous spec's rates are built once, at T (a sweep spot-checks the
    declaration first, ``_check_autonomous``).  Other specs' are rebuilt at
    each new kernel time; consecutive calls at one time share the build.
    """
    built: dict[float, Rates] = {}

    def at(t: float) -> Rates:
        t = spec.T if spec.autonomous else t
        if t not in built:
            built.clear()
            built[t] = _pair_rates(spec, t, states, domain.h)
        return built[t]
    return at


def _axis_slices(d: int, i: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Index tuples into a d-axis box along axis i: (all but the last layer,
    all but the first layer, the first layer, the last layer).  Each selects
    an array view, a box of one point included."""
    pre = (slice(None),) * i
    return (pre + (slice(None, -1),), pre + (slice(1, None),), pre + (slice(None, 1),),
            pre + (slice(-1, None),))


def _neighbor_diffs(values: np.ndarray, shape: tuple[int, ...], d_up: np.ndarray,
                    d_down: np.ndarray) -> None:
    """Write d_up[i] = V[up_i] - V and d_down[i] = V[down_i] - V for every
    axis i of the C-order box ``shape``, by flat offsets.

    A neighbour one step up (down) axis i is one stride s away, so the
    differences are the flat subtractions V[k + s] - V[k] (V[k - s] - V[k]);
    the last (first) face of the axis, where that neighbour wraps into another
    row or leaves the box, is then set to +0.0, because an out-of-box move is
    frozen (the x - x of finite values).  ``chain.neighbor_tables`` states the
    same rule as index tables.
    """
    stride = len(values)
    for i, (du, dd) in enumerate(zip(d_up, d_down)):
        stride //= shape[i]
        np.subtract(values[stride:], values[:-stride], out=du[:-stride])
        np.subtract(values[:-stride], values[stride:], out=dd[stride:])
        _, _, first, last = _axis_slices(len(shape), i)
        du.reshape(shape)[last] = 0.0
        dd.reshape(shape)[first] = 0.0


def _upwind_generator(terms: tuple, ups: np.ndarray, rates: np.ndarray, d_up: np.ndarray,
                      d_down: np.ndarray, out: np.ndarray, w: np.ndarray) -> bool:
    """Write into ``out`` the chain generator sum_i rate_i * (V[up_i] - V or
    V[down_i] - V) of one control pair, the upwind direction per ``up_i``.

    ``terms``/``ups``/``rates`` are the pair's term shapes and (d, n) slices
    of ``Rates``; ``d_up[i]``/``d_down[i]`` hold the value differences
    V[up_i] - V and V[down_i] - V at its points; ``w`` is a work row.  This is
    also the first-order upwind difference of <grad V, f>.  A zero term adds
    nothing and its rows are not read; a term of few runs is one product of
    the up or down difference and the rate per run, so one pass in all; only
    a mixed term selects its direction per point, in three passes.  Either
    way a point gets the product a select would give it.  The first nonzero
    term is written into ``out`` directly and later ones are added through
    ``w``.  Returns False, with ``out`` left alone, when every term is zero.
    The sum equals the sum over all terms but for the sign of a zero.
    """
    wrote = False
    for runs, up, rate, du, dd in zip(terms, ups, rates, d_up, d_down):
        if runs == ():
            continue
        term = w if wrote else out
        if runs is None:
            np.copyto(term, dd)
            np.copyto(term, du, where=up)
            term *= rate
        else:
            for a, b, goes_up in runs:
                np.multiply((du if goes_up else dd)[a:b], rate[a:b], out=term[a:b])
        if wrote:
            out += w
        wrote = True
    return wrote


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
    d_up, d_down = rates.diffs
    _neighbor_diffs(values, domain.shape, d_up, d_down)
    # u always minimises and v always maximises; upper commits u first
    # (min_u max_v), lower commits v first (max_v min_u)
    if kind == "upper":
        ups, rate, terms = rates.up, rates.rate, rates.terms
        inner_best, outer_best, improves = np.maximum, np.minimum, np.less
    else:
        ups, rate = rates.up.swapaxes(0, 1), rates.rate.swapaxes(0, 1)
        terms = tuple(zip(*rates.terms))
        inner_best, outer_best, improves = np.minimum, np.maximum, np.greater
    g, inner, w = rates.work
    field = np.empty(len(values))
    if index is not None:
        index.fill(0)
    for a in range(rate.shape[0]):
        acc = field if a == 0 else inner
        if not _upwind_generator(terms[a][0], ups[a, 0], rate[a, 0], d_up, d_down, acc, w):
            acc.fill(0.0)
        for b in range(1, rate.shape[1]):
            # a pair whose terms are all zero enters as the scalar 0.0
            nonzero = _upwind_generator(terms[a][b], ups[a, b], rate[a, b], d_up, d_down, g, w)
            inner_best(acc, g if nonzero else 0.0, out=acc)
        if a > 0:
            if index is not None:
                np.copyto(index, a, where=improves(inner, field))
            outer_best(field, inner, out=field)
    # -0.0 + 0.0 is +0.0: the field of a generator summed over every term from
    # +0.0, whose bits skipping zero terms changes only in the sign of a zero
    field += 0.0
    return field


def hamiltonian_field(values: np.ndarray, spec: GameSpec, t: float, domain: LatticeDomain,
                      kind: str, *, rates: Rates | None = None,
                      index: np.ndarray | None = None) -> np.ndarray:
    """Minimax (upper) or maximin (lower) of the generator over both grids.

    ``rates`` are the ``_pair_rates`` of ``domain.states()``, which a sweep
    builds once per solve for an autonomous spec; without them they are
    built here at t.  The result is a fresh array that later calls with the
    same rates leave alone.  ``index``, when given, receives the committing
    player's control index (``_minimax``).
    """
    if rates is None:
        rates = _pair_rates(spec, t, domain.states(), domain.h)
    return _minimax(values, rates, domain, kind, index)


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


def auto_dt(spec: GameSpec, h: float) -> float:
    """Largest dt <= ceiling that tiles [0, T] with an integer number of steps."""
    return _tiling_dt(spec.T, dt_ceiling(spec, h))


def _range_check(g: np.ndarray) -> Callable[[float, float, float], None]:
    """Maximum principle of a monotone step: values stay in [min g, max g].
    The check reads the smallest and the largest value of the slice at t."""
    lo, hi = float(g.min()), float(g.max())
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))

    def check(low: float, high: float, t: float) -> None:
        # written so that a NaN anywhere fails the comparison too
        if not (low >= lo - tol and high <= hi + tol):
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


def _off_grid(spec: GameSpec, c: float, dt: float) -> str | None:
    """None when checkpoint c is a grid time T - k*dt, else a message that
    names the two grid times around it."""
    k = _snapped_steps(spec, c, dt)
    if abs(spec.T - k * dt - c) <= _TIME_FUZZ:
        return None
    return (f"checkpoint {c:g} lies between the grid times {spec.T - k * dt:.6g} and "
            f"{spec.T - (k - 1) * dt:.6g} of dt={dt:g}")


def _checkpoint_steps(spec: GameSpec, checkpoints: Sequence[float], dt: float) -> set[int]:
    """Step counts k of the grid times T - k*dt the checkpoints snap down to,
    each the largest grid time <= it.

    A checkpoint outside [0, T] raises GameSpecError, and so does one whose
    grid time would fall below 0, which a dt that does not tile [c, T] gives.
    """
    targets = sorted(float(c) for c in checkpoints)
    if not targets:
        raise GameSpecError("checkpoints must be non-empty when given")
    if targets[0] < -_TIME_FUZZ or targets[-1] > spec.T + _TIME_FUZZ:
        raise GameSpecError(f"checkpoints must lie in [0, {spec.T}]")
    steps = {_snapped_steps(spec, c, dt) for c in targets}
    if spec.T - max(steps) * dt < -_TIME_FUZZ:
        raise GameSpecError(f"{_off_grid(spec, targets[0], dt)} and would snap down below "
                            f"t=0; choose a dt that tiles [{targets[0]:g}, {spec.T:g}]")
    return steps


def _schedule(spec: GameSpec, dt: float | None, checkpoints: Sequence[float] | None,
              ceiling: float, ceiling_name: str) -> tuple[float, set[int] | None]:
    """A sweep's dt, as given and validated or the largest under ``ceiling``
    that tiles [first checkpoint, T], and the steps whose slices it records:
    those of ``_checkpoint_steps``, or None (every step down to t=0) when
    ``checkpoints`` is None."""
    if checkpoints is None:
        return _resolve_dt(spec, dt, 0.0, ceiling, ceiling_name), None
    targets = [float(c) for c in checkpoints]
    dt = _resolve_dt(spec, dt, min(targets, default=0.0), ceiling, ceiling_name)
    return dt, _checkpoint_steps(spec, targets, dt)


# ---------------------------------------------------------------------------
# the sweep, in blocks of axis-0 slabs stepped by forked workers


# fewest lattice points a block of its own pays for: a step's two pipe
# wake-ups and the fork per sweep cost about what splitting 16 129 points of
# g2 or 16 001 of g1 saves (same times in one and two blocks on 2 CPUs; two
# blocks took 0.75x at 21 025 points of g2 and 0.6x at 32 001 of g1)
_MIN_BLOCK_POINTS = 16384


def _cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _block_slabs(domain: LatticeDomain) -> list[tuple[int, int]]:
    """A sweep's blocks: runs [a, b) of whole axis-0 slabs, as many as the
    CPUs, the slabs and ``_MIN_BLOCK_POINTS`` allow.  One block when the
    process cannot fork, or when another thread is alive: a forked child
    holds only the forking thread, and a lock another thread held stays
    locked in it."""
    n = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        n = max(1, min(_cpu_count(), domain.shape[0], domain.n_points // _MIN_BLOCK_POINTS))
    cuts = [domain.shape[0] * i // n for i in range(n + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _shared(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, which the workers a
    sweep forks afterwards read and write in place."""
    count = math.prod(shape)
    block = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))  # MAP_SHARED
    return np.frombuffer(block, dtype=dtype, count=count).reshape(shape)


def _euler_end(field: np.ndarray, values: np.ndarray, dt: float) -> None:
    """values + dt * H, in the kernel's fresh result."""
    field *= dt
    field += values


def _block_stepper(spec: GameSpec, domain: LatticeDomain, kind: str, states: np.ndarray,
                   slabs: tuple[int, int], dt: float, n_steps: int, slices: np.ndarray,
                   stats: np.ndarray, row: int, index: np.ndarray | None,
                   finish: Callable | None) -> Callable[[int], Rates | None]:
    """Evaluation k of one block of a sweep (``_sweep``).

    The block steps its slabs [a, b) on the box that adds one halo slab on
    each side, inside the domain, since a jump moves one slab at most: it
    reads that box of slice k-1 from ``slices[(k-1) % 2]``, evaluates the
    kernel there with rates built on the box's own points, and writes its
    own rows of slice k into ``slices[k % 2]``, of the committing player's
    index into ``index``, and their smallest and largest value, and the
    per-pair peak rates of a fresh rate build, into ``stats[row]``.  Every
    operation is pointwise, so each row gets the bits the whole-domain step
    gives it.  Returns the rates when this evaluation built them.
    """
    a, b = slabs
    size = domain.n_points // domain.shape[0]
    lo, hi = max(a - 1, 0), min(b + 1, domain.shape[0])
    box = LatticeDomain(h=domain.h, lo=(domain.lo[0] + lo, *domain.lo[1:]),
                        hi=(domain.lo[0] + hi - 1, *domain.hi[1:]))
    ext, rows = slice(lo * size, hi * size), slice(a * size, b * size)
    own = slice(rows.start - ext.start, rows.stop - ext.start)
    rates_at = _rates_by_time(spec, box, states[ext])
    end = finish(box) if finish else _euler_end
    box_index = None if index is None else np.empty(box.n_points, dtype=index.dtype)
    pairs = len(spec.u_grid) * len(spec.v_grid)
    last = None

    def evaluate(k: int) -> Rates | None:
        nonlocal last
        t = spec.T - (k - 1) * dt
        values = slices[(k - 1) % 2, ext]
        rates = rates_at(t)
        fresh = rates is not last
        if fresh:
            last = rates
            stats[row, 2:2 + pairs] = rates.peaks.ravel()
            stats[row, 2 + pairs:] = rates.peak_points.ravel() + ext.start
        field = hamiltonian_field(values, spec, t, box, kind, rates=rates, index=box_index)
        if index is not None:
            index[rows] = box_index[own]
        if k <= n_steps:
            end(field, values, dt)
            new = slices[k % 2, rows]
            new[:] = field[own]
            stats[row, :2] = new.min(), new.max()
        return rates if fresh else None
    return evaluate


def _fork_worker(make: Callable[[], Callable[[int], object]],
                 others: list) -> tuple[int, int, io.BufferedReader]:
    """Fork a worker that builds its evaluation with ``make`` and runs it
    once per byte on its command pipe, k = 1, 2, ..., answering each with a
    pickled None or the exception it raised, until the pipe ends: when the
    sweep closes it, or the sweep's process dies.  ``others`` are the
    (block, pid, command fd, reply pipe) of the workers forked before; the
    child closes their ends and its own, so only the sweep holds a command
    pipe.  Returns (pid, command fd, reply pipe)."""
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    cmd_r, cmd_w, reply_r, reply_w = fds
    if pid == 0:  # the worker: never returns into the caller's frames
        try:
            for fd in (cmd_w, reply_r, *(fd for *_, c, r in others for fd in (c, r.fileno()))):
                os.close(fd)
            evaluate = make()
            with os.fdopen(reply_w, "wb") as reply:
                k = 0
                while os.read(cmd_r, 1):
                    k += 1
                    try:
                        evaluate(k)
                        blob = pickle.dumps(None)
                    except Exception as exc:
                        try:
                            blob = pickle.dumps(exc)
                        except Exception:
                            blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                    reply.write(blob)
                    reply.flush()
        finally:
            os._exit(0)
    os.close(cmd_r)
    os.close(reply_w)
    return pid, cmd_w, os.fdopen(reply_r, "rb")


def _sweep(spec: GameSpec, domain: LatticeDomain, kind: str, *, dt: float,
           want: set[int] | None, extra_rate: float = 0.0, finish: Callable | None = None,
           feedback: tuple[np.ndarray, Callable[[int, float], None]] | None = None
           ) -> tuple[ValueGrid, ...]:
    """Backward explicit sweep from the terminal payoff at T.

    Step k maps slice k-1, at t = T - (k-1)*dt, to slice k: the kernel
    (``hamiltonian_field``) at t, then ``finish(box)(field, values, dt)`` in
    place on a block's box (default: values + dt * field).  The sweep runs
    to the largest step of ``want`` and records those steps' slices, or,
    when ``want`` is None, to the first grid time <= 0, recording every
    slice.  Each rate build must keep the step monotone
    (``_check_monotone``, with ``extra_rate``) and each slice stay inside
    the payoff range (``StepSizeError`` otherwise).  With ``feedback`` =
    (index, pack) the kernel writes the committing player's control index
    into the shared row ``index`` and ``pack(j, t)`` reads it for slice j,
    the last slice's after one more evaluation.

    The steps are split into the blocks of ``_block_slabs``
    (``_block_stepper``): the caller evaluates the first, and a worker
    forked for the sweep each other (the caller steps a block whose fork
    fails), over the shared double buffer of slices, one command byte and
    one reply per evaluation.  The caller then checks the combined peak
    rates and range and records the slices, so every slice, table row and
    error is the one-block sweep's: a worker's exception is re-raised here,
    and when several blocks fail, the error of the whole domain's rate
    build comes first.  Workers are reaped before this returns or raises.
    Returns the recorded slices by decreasing time.
    """
    states = domain.states()
    if spec.autonomous:
        _check_autonomous(spec, states)
    n_steps = 0 if want is None else max(want)
    while want is None and spec.T - n_steps * dt > _TIME_FUZZ:
        n_steps += 1
    slices = _shared((2, domain.n_points))
    slices[0] = payoff_batch(spec, states)
    in_range = _range_check(slices[0])
    recorded = [ValueGrid(t=spec.T, domain=domain, values=slices[0].copy())
                ] if want is None or 0 in want else []
    blocks = _block_slabs(domain)
    pairs = len(spec.u_grid) * len(spec.v_grid)
    # per block: smallest and largest value, then per-pair peak rates and points
    stats = _shared((len(blocks), 2 + 2 * pairs))
    index, pack = feedback or (None, None)

    def stepper(b: int) -> Callable[[int], Rates | None]:
        return _block_stepper(spec, domain, kind, states, blocks[b], dt, n_steps, slices,
                              stats, b, index, finish)

    # (block, pid, command fd, reply pipe) per worker
    workers: list[tuple[int, int, int, io.BufferedReader]] = []
    mine = [0]  # the blocks the caller steps
    try:
        for b in range(1, len(blocks)):
            try:
                workers.append((b, *_fork_worker(functools.partial(stepper, b), workers)))
            except OSError:  # no process to spare (EAGAIN): the caller steps it
                mine.append(b)
        evaluators = [(b, stepper(b)) for b in mine]
        for k in range(1, n_steps + 1 + (feedback is not None)):
            for _, _, cmd, _ in workers:
                try:
                    os.write(cmd, b"\0")
                except BrokenPipeError:  # the worker is gone: its reply says so
                    pass
            errors: list[tuple[int, BaseException]] = []
            for b, evaluate in evaluators:
                try:
                    rates = evaluate(k)  # every block builds its rates at the same steps
                except Exception as exc:
                    errors.append((b, exc))
            for b, _, _, reply in workers:
                try:
                    error = pickle.load(reply)
                except EOFError:
                    error = ResourceError(f"a sweep worker ended during step {k}")
                if error is not None:
                    errors.append((b, error))
            t = spec.T - (k - 1) * dt
            if errors:
                if len(errors) > 1:  # the first failure of the whole domain's build
                    _pair_rates(spec, spec.T if spec.autonomous else t, states, domain.h)
                raise min(errors, key=lambda error: error[0])[1]
            if k <= n_steps and rates is not None:
                peaks = stats[:, 2:2 + pairs]
                first = (np.argmax(peaks, axis=0), np.arange(pairs))  # block order is point order
                _check_monotone(spec, states, rates._replace(
                    peaks=peaks[first].reshape(rates.peaks.shape),
                    peak_points=stats[:, 2 + pairs:][first].astype(np.intp).reshape(
                        rates.peaks.shape)), dt, extra_rate)
            if pack is not None:
                pack(k - 1, t)
            if k <= n_steps:
                in_range(stats[:, 0].min(), stats[:, 1].max(), spec.T - k * dt)
                if want is None or k in want:
                    recorded.append(ValueGrid(t=spec.T - k * dt, domain=domain,
                                              values=slices[k % 2].copy()))
    finally:
        for _, _, cmd, reply in workers:
            os.close(cmd)
            reply.close()
        for _, pid, _, _ in workers:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already: SIGCHLD is ignored
                pass
    return tuple(recorded)


def solve_backward(spec: GameSpec, domain: LatticeDomain, *, kind: str = "upper",
                   dt: float | None = None,
                   checkpoints: Sequence[float] | None = None) -> SolveResult:
    """Integrate the value system backward from the terminal payoff with
    explicit Euler, the monotone scheme.

    Checkpoints snap down to the integration grid t_k = T - k*dt;
    ``checkpoints=None`` records every step down to t=0 (the coupling engine
    reads a ``FeedbackTable`` from ``feedback_table`` instead).  Each rate
    build must show the step monotone (``MonotoneStepError`` otherwise), and
    each step is checked against the maximum principle.
    """
    if kind not in VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {VALUE_KINDS}, got {kind!r}")
    dt, want = _schedule(spec, dt, checkpoints, dt_ceiling(spec, domain.h), _CEILING_NAME)
    return SolveResult(game=spec.name, kind=kind, h=domain.h, dt=dt, boundary="freeze",
                       slices=_sweep(spec, domain, kind, dt=dt, want=want))


def feedback_table(spec: GameSpec, domain: LatticeDomain, *,
                   dt: float | None = None) -> FeedbackTable:
    """Upper-value Euler sweep down to t=0 that keeps only the feedback table.

    Each step already evaluates min_u max_v of the generator on the current
    slice; the table records the u index attaining it, and the last slice
    gets one more evaluation.  The values of every step are the ones
    ``solve_backward(spec, domain, dt=dt)`` computes, down to its last grid
    time, but only the last slice is kept.  Like the sweep, the table
    evaluates the drift at each slice's grid time t_k (once, at T, for an
    autonomous spec), and checks each step's rates for monotonicity.
    """
    dt = _resolve_dt(spec, dt, 0.0, dt_ceiling(spec, domain.h), _CEILING_NAME)
    n_steps = _snapped_steps(spec, 0.0, dt)
    bits = next(b for b in (1, 2, 4, 8, 16, 32) if len(spec.u_grid) <= 2**b)
    per = max(1, 8 // bits)
    dtype = np.dtype(f"uint{max(8, bits)}")
    n_words = -(-domain.n_points // per)
    u_words = np.empty((n_steps + 1, n_words), dtype=dtype)
    # the sweep's row of unpacked indices, padded with zeros to whole words
    index = _shared((n_words * per,), dtype)
    entries = index.reshape(n_words, per)
    times = np.empty(n_steps + 1)

    def pack(j: int, t: float) -> None:
        times[n_steps - j] = t
        words = u_words[n_steps - j]
        np.copyto(words, entries[:, 0])
        for k in range(1, per):  # a column loop: reducing over the short axis is ~6x slower
            words |= entries[:, k] << k * bits

    (value0,) = _sweep(spec, domain, "upper", dt=dt, want={n_steps},
                       feedback=(index[:domain.n_points], pack))
    return FeedbackTable(game=spec.name, h=domain.h, dt=dt, domain=domain, times=times,
                         bits=bits, u_words=u_words, value0=value0)


# ---------------------------------------------------------------------------
# CSV serialization: one file per slice, 17 significant digits


_CSV_BLOCK = 4096  # rows formatted per write


def write_slice_csv(grid: ValueGrid, path: str | Path, meta: dict | None = None) -> None:
    """Write one slice as CSV: comment metadata lines, header, one row per point.

    Rows are formatted and written in blocks, never the whole text at once.
    A state is h*k, so axis i has only hi_i - lo_i + 1 distinct coordinates:
    their strings are formatted once per write, and only the values per row.
    """
    dom = grid.domain
    d, n = dom.d, dom.n_points
    # the coordinates of domain.states(), formatted as %.17g, per axis
    coords = [np.array([f"{c:.17g}" for c in (dom.h * np.arange(a, b + 1, dtype=float)).tolist()],
                       dtype=object) for a, b in zip(dom.lo, dom.hi)]
    # one "%" operation per block: the row template repeated once per row
    row = f"{float(grid.t):.17g}" + ",%s" * d + ",%.17g\n"
    cells = np.empty((_CSV_BLOCK, d + 1), dtype=object)
    with Path(path).open("w") as fh:
        for key, val in (meta or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("t," + ",".join(f"x_{i + 1}" for i in range(d)) + ",value\n")
        for lo in range(0, n, _CSV_BLOCK):
            block = cells[:min(_CSV_BLOCK, n - lo)]
            for i, k in enumerate(np.unravel_index(np.arange(lo, lo + len(block)), dom.shape)):
                block[:, i] = coords[i][k]
            block[:, d] = grid.values[lo:lo + len(block)].tolist()
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _read_slice_meta(fh, path: Path) -> dict[str, str]:
    """The ``# key=value`` lines of an open slice CSV, keys and values
    stripped, read by hand through its header; leaves ``fh`` at the first data
    row and reads no further."""
    meta: dict[str, str] = {}
    header_seen = False
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            raise GameSpecError(f"slice file {path} holds no data rows")
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, val = body.split("=", 1)
                meta[key.strip()] = val.strip()
            continue
        if header_seen:
            fh.seek(start)
            return meta
        header_seen = True


def read_slice_meta(path: str | Path) -> dict[str, str]:
    """The metadata of a slice CSV, without parsing its data rows."""
    with Path(path).open() as fh:
        return _read_slice_meta(fh, path)


def read_slice_value(path: str | Path, x) -> float | None:
    """The value on the row of lattice state ``x`` of a slice CSV, or None
    when no row holds ``x``.

    The row is found by its coordinates' text as ``write_slice_csv`` formats
    them, so ``x`` must be the state h*k itself; only that row is parsed, the
    way ``read_slice_csv`` parses every row.
    """
    path = Path(path)
    key = "".join(f",{c:.17g}" for c in np.atleast_1d(x).astype(float).tolist()) + ","
    with path.open() as fh:
        _read_slice_meta(fh, path)
        for line in fh:
            if line.startswith(key, line.find(",")):
                try:
                    return float(np.loadtxt([line], delimiter=",", ndmin=2)[0, -1])
                except ValueError as exc:
                    raise GameSpecError(
                        f"slice file {path} has a malformed data row: {exc}") from exc
    return None


def read_slice_csv(path: str | Path, h: float) -> tuple[ValueGrid, dict]:
    """Read a slice CSV back onto its lattice; returns (grid, metadata)."""
    path = Path(path)
    with path.open() as fh:
        meta = _read_slice_meta(fh, path)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
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
