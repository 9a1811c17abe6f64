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

import contextlib
import functools
import io
import math
import mmap
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .chain import LatticeDomain, _check_mesh, _on_lattice, kolmogorov_rates
from .errors import (GameSpecError, MonotoneStepError, ResourceError, StepSizeError,
                     TruncationError)
from .games import GameSpec, drift_batch, payoff_batch

VALUE_KINDS = ("upper", "lower")

# tolerance for matching times to the integration grid
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

    ``sigma`` is the viscosity of a ``solve_viscous`` run, whose ``h`` is the
    spatial step dx and whose boundary ring stays at the terminal payoff; it
    is None for the chain solver, whose out-of-box jumps are frozen.
    """

    game: str
    kind: str
    h: float
    dt: float
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
    _check_mesh(h, warn=False)  # the domain warns for h >= 1
    if not 0 <= pad < math.inf:  # NaN too
        raise GameSpecError(f"pad must be finite and >= 0, got {pad}")
    box = np.asarray(x0_box, dtype=float)
    if not np.all(np.isfinite(box)):
        raise GameSpecError(f"x0_box must be finite, got {box.tolist()}")
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
    The rates and the kernel's work arrays are carved out of two anonymous
    memory mappings of their own (``_shared``), one of floats and one of the
    up flags, each unmapped when its last view goes: in the malloc heap the
    freed block stayed resident under the later phases of a process, and
    work arrays allocated per kernel call would be mapped and faulted in
    afresh at every sweep step of a fresh process.  The mappings start
    zeroed, so the rate rows of zero terms and the up rows of all but mixed
    terms are left unwritten: their pages never become resident, and the
    kernel never reads them.  Each pair's total rate is summed into a
    work row, so finding the peaks allocates nothing of size (nu, nv, n).
    """
    n = len(states)
    shape = (len(spec.u_grid), len(spec.v_grid), spec.d, n)
    peaks, peak_points = np.zeros(shape[:2]), np.zeros(shape[:2], dtype=np.intp)
    size = math.prod(shape)
    floats = _shared((size + (2 * spec.d + 3) * n,))
    rate = floats[:size].reshape(shape)
    diffs = floats[size:size + 2 * spec.d * n].reshape(2, spec.d, n)
    work = floats[size + 2 * spec.d * n:].reshape(3, n)
    up = _shared(shape, bool)
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
    frozen (the x - x of finite values).
    """
    stride = len(values)
    for i, (du, dd) in enumerate(zip(d_up, d_down)):
        stride //= shape[i]
        np.subtract(values[stride:], values[:-stride], out=du[:-stride])
        np.subtract(values[:-stride], values[stride:], out=dd[stride:])
        _, _, first, last = _axis_slices(len(shape), i)
        du.reshape(shape)[last] = 0.0
        dd.reshape(shape)[first] = 0.0


def _laplacian(values: np.ndarray, shape: tuple[int, ...], axes: list[tuple], dx2: float,
               lap: np.ndarray, second: np.ndarray, two: np.ndarray) -> None:
    """Write into ``lap`` the centered Laplacian sum_i ((V[up_i] - 2V) +
    V[down_i]) / dx2 of the C-order box ``shape``, an out-of-box neighbour
    read as the point itself; ``axes`` holds ``_axis_slices`` per axis.

    The neighbours are read straight from the box into the work row
    ``second``; ``two`` receives 2V once.  The first axis's quotient is
    written into ``lap`` directly, so a sum of -0.0 terms stays -0.0 where a
    sum from +0.0 would not; the step adds ``lap`` to a field that holds no
    -0.0, which makes the two sums give the same bits.
    """
    box = values.reshape(shape)
    np.multiply(values, 2.0, out=two)
    two_box, sec = two.reshape(shape), second.reshape(shape)
    for i, (below, above, first, last) in enumerate(axes):
        np.subtract(box[above], two_box[below], out=sec[below])
        np.subtract(box[last], two_box[last], out=sec[last])
        np.add(sec[above], box[below], out=sec[above])
        np.add(sec[first], box[first], out=sec[first])
        if i == 0:
            np.divide(second, dx2, out=lap)
        else:
            np.divide(second, dx2, out=second)
            lap += second


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


def hamiltonian_field(values: np.ndarray, spec: GameSpec, t: float, domain: LatticeDomain,
                      kind: str, *, rates: Rates | None = None,
                      index: np.ndarray | None = None) -> np.ndarray:
    """Minimax (upper: min_u max_v) or maximin (lower: max_v min_u) of the
    generator over both grids, at every point of ``domain``.

    ``rates`` are the ``_pair_rates`` of ``domain.states()``, built here at
    t when not given.  The result is a fresh array that later calls with the
    same rates leave alone; only the rates' work arrays are overwritten.
    When given, ``index`` receives the lowest grid index of the committing
    player's control (u for upper, v for lower) attaining the outer min
    (max), with ``np.argmin``'s (``np.argmax``'s) ties.
    """
    if kind not in VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {VALUE_KINDS}, got {kind!r}")
    if rates is None:
        rates = _pair_rates(spec, t, domain.states(), domain.h)
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


# ---------------------------------------------------------------------------
# backward integration


def dt_ceiling(spec: GameSpec, h: float) -> float:
    """Largest stable explicit step: per-step outflow rate * dt <= 1/2."""
    return h / (2.0 * spec.d * spec.M1)


def cfl_ceiling(spec: GameSpec, dx: float, sigma: float) -> float:
    """Stability ceiling 1 / (2 * (d*M1/dx + d*sigma^2/dx^2)) of the viscous sweep."""
    return 1.0 / (2.0 * (spec.d * spec.M1 / dx + spec.d * sigma**2 / dx**2))


def _schedule(spec: GameSpec, h: float, sigma: float | None, dt: float | None,
              checkpoints: Sequence[float] | None) -> tuple[float, Sequence[int]]:
    """Every sweep's time grid t_k = T - k*dt on mesh h, under the chain
    sweep's ``dt_ceiling`` when ``sigma`` is None and the viscous sweep's
    ``cfl_ceiling`` otherwise: its dt, as given or the largest under the
    ceiling that tiles [first checkpoint, T] ([0, T] when that is T), and
    the ascending steps k whose slices it records, one per checkpoint, or
    ``range(n + 1)`` down to t=0 when ``checkpoints`` is None, the
    checkpoint 0.  A checkpoint outside [0, T] or off the grid raises
    GameSpecError, so no sweep runs past t = 0 or records a time that was
    not asked for."""
    if sigma is None:
        ceiling, name = dt_ceiling(spec, h), "stability ceiling h/(2*d*M1)"
    else:
        ceiling, name = cfl_ceiling(spec, h, sigma), "CFL stability ceiling"
    targets = sorted(float(c) for c in ([0.0] if checkpoints is None else checkpoints))
    if dt is None:
        first = targets[0] if targets and targets[0] < spec.T - _TIME_FUZZ else 0.0
        span = spec.T - first
        dt = span / max(1, math.ceil(span / ceiling * (1.0 - 1e-12)))
    dt = float(dt)
    if not dt > 0:  # NaN too
        raise GameSpecError(f"dt must be positive, got {dt}")
    if dt > ceiling * (1 + 1e-9):
        raise StepSizeError(f"dt={dt:.6g} exceeds the {name}={ceiling:.6g}")
    if not targets:
        raise GameSpecError("checkpoints must be non-empty when given")
    if not all(-_TIME_FUZZ <= c <= spec.T + _TIME_FUZZ for c in targets):  # NaN too
        raise GameSpecError(f"checkpoints must lie in [0, {spec.T}]")
    steps = set()
    for c in targets:
        k = max(0, math.ceil((spec.T - c - _TIME_FUZZ) / dt))
        if abs(spec.T - k * dt - c) > _TIME_FUZZ:
            raise GameSpecError(f"checkpoint {c:g} lies between the grid times "
                                f"{spec.T - k * dt:.6g} and {spec.T - (k - 1) * dt:.6g} of "
                                f"dt={dt:g}; choose a dt whose grid T - k*dt holds every "
                                f"checkpoint")
        steps.add(k)
    return dt, range(max(steps) + 1) if checkpoints is None else sorted(steps)


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


def _block_count(work: int, min_work: int) -> int:
    """How many blocks to split ``work`` units into: as many as the CPUs
    and ``min_work`` units per block allow.  One when the process cannot
    fork, or when another thread is alive: a forked child holds only the
    forking thread, and a lock another thread held stays locked in it.  The
    sweep and the coupling engine both split by this rule."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cpu_count(), work // min_work))


def _block_slabs(domain: LatticeDomain) -> list[tuple[int, int]]:
    """A sweep's blocks: runs [a, b) of whole axis-0 slabs, as many as
    ``_block_count`` gives for the lattice points and the slabs allow."""
    n = min(domain.shape[0], _block_count(domain.n_points, _MIN_BLOCK_POINTS))
    cuts = [domain.shape[0] * i // n for i in range(n + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _shared(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping of its own, unmapped
    when its last view goes and resident only where touched; workers forked
    afterwards read and write it in place."""
    count = math.prod(shape)
    block = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))  # MAP_SHARED, never empty
    return np.frombuffer(block, dtype=dtype, count=count).reshape(shape)


def _fork_worker(make: Callable[[], Callable[[int], object]],
                 others: list) -> tuple[int, int, io.BufferedReader]:
    """Fork a worker that builds its evaluation with ``make`` and runs it
    once per byte on its command pipe, k = 1, 2, ..., answering each with a
    pickled None or the exception it raised, until the pipe ends: when the
    caller closes it, or the caller's process dies.  ``others`` are the
    (block, pid, command fd, reply pipe) of the workers forked before; the
    child closes their ends and its own, so only the caller holds a command
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


@contextlib.contextmanager
def _forked_blocks(n_blocks: int, stepper: Callable[[int], Callable[[int], object]],
                   what: str, whole: Callable[[int], object]) -> Iterator[Callable[[int], None]]:
    """Blocks 0, ..., n_blocks - 1 of one computation, block b evaluated by
    ``stepper(b)``: the caller evaluates block 0, and a worker forked here
    (``_fork_worker``) each other; the caller evaluates a block whose fork
    fails (no process to spare) itself.  Yields ``evaluate(k)``, which runs
    evaluation k of every block, one command byte and one reply per worker.

    This is the one place a block's failure becomes an error.  When one of
    several blocks of evaluation k raises something other than a dead
    worker's ``ResourceError`` (naming ``what``), ``evaluate`` runs
    ``whole(k)``, evaluation k of the computation as one block, in the
    caller and raises what it raises; so an error is the one-block
    computation's, whichever blocks fail.  It replays only when there are
    several blocks: one block is the whole computation.  Should the replay
    raise nothing, or only dead workers fail, it raises the error of the
    first block that failed.  The workers are reaped on exit, return or raise."""
    # (block, pid, command fd, reply pipe) per worker
    workers: list[tuple[int, int, int, io.BufferedReader]] = []
    mine = [0]  # the blocks the caller evaluates
    try:
        for b in range(1, n_blocks):
            try:
                workers.append((b, *_fork_worker(functools.partial(stepper, b), workers)))
            except OSError:  # no process to spare (EAGAIN): the caller evaluates it
                mine.append(b)
        evaluators = [(b, stepper(b)) for b in mine]

        def evaluate(k: int) -> None:
            for _, _, cmd, _ in workers:
                try:
                    os.write(cmd, b"\0")
                except BrokenPipeError:  # the worker is gone: its reply says so
                    pass
            errors, dead = [], 0
            for b, step in evaluators:
                try:
                    step(k)
                except Exception as exc:
                    errors.append((b, exc))
            for b, _, _, reply in workers:
                try:
                    error = pickle.load(reply)
                except EOFError:
                    error = ResourceError(f"a {what} worker ended during step {k}")
                    dead += 1
                if error is not None:
                    errors.append((b, error))
            if errors:
                if n_blocks > 1 and len(errors) > dead:  # a dead worker leaves none to replay
                    whole(k)
                raise min(errors, key=lambda error: error[0])[1]

        yield evaluate
    finally:
        for _, _, cmd, reply in workers:
            os.close(cmd)
            reply.close()
        for _, pid, _, _ in workers:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already: SIGCHLD is ignored
                pass


def _sweep(spec: GameSpec, domain: LatticeDomain, kind: str, *, dt: float,
           steps: Sequence[int], sigma: float | None = None,
           feedback: tuple[np.ndarray, Callable[[int], None]] | None = None
           ) -> tuple[ValueGrid, ...]:
    """Backward explicit sweep from the terminal payoff g at T.

    Step k maps slice k-1, at t = T - (k-1)*dt, to slice k: the kernel
    (``hamiltonian_field``) at t, plus sigma^2/2 times the centered
    Laplacian (``_laplacian``) when sigma > 0, then values + dt * field; a
    viscous sweep (``sigma`` set) then copies the boundary ring, the 2d faces
    of a block's box, back from the values it stepped.  ``steps`` are
    the ascending steps of ``_schedule``, whose grid never runs past t = 0:
    the sweep runs to the last of them and records their slices.  With
    ``feedback`` = (index, pack) the kernel writes the committing player's
    control index into the shared row ``index`` and ``pack(j)`` reads it
    for slice j, the last slice's after one more evaluation.

    The caller and forked workers (``_forked_blocks``) step the blocks of
    ``_block_slabs`` over a shared double buffer of slices.  ``stepper``
    steps axis-0 slabs [a, b) on their box plus one halo slab on each side
    (a jump moves one slab at most), with rates built on the box's points:
    once, at T, for an autonomous spec (spot-checked by
    ``_check_autonomous``), else at each kernel time.  Every operation is
    pointwise, so each row gets the whole-domain step's bits.  Each block
    checks its own step: every rate build of a step k <= n_steps must keep
    it monotone (``_check_monotone``, plus the Laplacian's rate), and its
    rows of slice k must stay in [min g, max g], the maximum principle
    (``StepSizeError`` otherwise).  When one of several blocks fails,
    ``_forked_blocks`` replays the step on the slabs (0, domain.shape[0]),
    the whole domain, and raises its error, so every error is the one-block
    sweep's.  Workers are reaped before this returns or raises.  Returns the
    recorded slices by decreasing time.
    """
    states = domain.states()
    if spec.autonomous:
        _check_autonomous(spec, states)
    n_steps = steps[-1]
    slices = _shared((2, domain.n_points))
    slices[0] = payoff_batch(spec, states)
    g_lo, g_hi = float(slices[0].min()), float(slices[0].max())
    tol = 1e-12 * max(1.0, abs(g_lo), abs(g_hi))
    recorded = [ValueGrid(t=spec.T, domain=domain, values=slices[0].copy())
                ] if 0 in steps else []
    blocks = _block_slabs(domain)
    index, pack = feedback or (None, None)
    size = domain.n_points // domain.shape[0]
    # the Laplacian's jumps, sigma^2 / (2 h^2) to each of the 2d neighbours
    extra_rate = 0.0 if sigma is None else spec.d * sigma**2 / domain.h**2
    axes = [_axis_slices(spec.d, i) for i in range(spec.d)]

    def stepper(slabs: tuple[int, int]) -> Callable[[int], None]:
        a, b = slabs
        lo, hi = max(a - 1, 0), min(b + 1, domain.shape[0])
        box = LatticeDomain(h=domain.h, lo=(domain.lo[0] + lo, *domain.lo[1:]),
                            hi=(domain.lo[0] + hi - 1, *domain.hi[1:]))
        ext, rows = slice(lo * size, hi * size), slice(a * size, b * size)
        own = slice(rows.start - ext.start, rows.stop - ext.start)
        if sigma:  # the Laplacian's work rows, reused by every step of this block
            lap, second, two = np.empty((3, box.n_points))
        box_index = None if index is None else np.empty(box.n_points, dtype=index.dtype)
        rates = None

        def evaluate(k: int) -> None:
            nonlocal rates
            t = spec.T - (k - 1) * dt
            values = slices[(k - 1) % 2, ext]
            if rates is None or not spec.autonomous:
                rates = None  # the last step's rates are unmapped before the next build
                rates = _pair_rates(spec, spec.T if spec.autonomous else t, states[ext], box.h)
                if k <= n_steps:
                    _check_monotone(spec, states[ext], rates, dt, extra_rate)
            field = hamiltonian_field(values, spec, t, box, kind, rates=rates, index=box_index)
            if index is not None:
                index[rows] = box_index[own]
            if k <= n_steps:
                if sigma:
                    _laplacian(values, box.shape, axes, domain.h * domain.h, lap, second, two)
                    np.multiply(lap, 0.5 * sigma**2, out=lap)
                    field += lap
                field *= dt
                field += values
                if sigma is not None:  # hold the ring; a halo slab's face is not kept
                    held, frozen = values.reshape(box.shape), field.reshape(box.shape)
                    for _, _, first, last in axes:
                        frozen[first] = held[first]
                        frozen[last] = held[last]
                new = slices[k % 2, rows]
                new[:] = field[own]
                # written so that a NaN anywhere fails the comparison too
                if not (new.min() >= g_lo - tol and new.max() <= g_hi + tol):
                    raise StepSizeError(
                        f"values at t={spec.T - k * dt:.6g} leave the terminal payoff range "
                        f"[{g_lo:.6g}, {g_hi:.6g}]; reduce dt")
        return evaluate

    with _forked_blocks(len(blocks), lambda b: stepper(blocks[b]), "sweep",
                        lambda k: stepper((0, domain.shape[0]))(k)) as evaluate:
        for k in range(1, n_steps + 1 + (feedback is not None)):
            evaluate(k)
            if pack is not None:
                pack(k - 1)
            if k in steps:
                recorded.append(ValueGrid(t=spec.T - k * dt, domain=domain,
                                          values=slices[k % 2].copy()))
    return tuple(recorded)


def solve_backward(spec: GameSpec, domain: LatticeDomain, *, kind: str = "upper",
                   dt: float | None = None,
                   checkpoints: Sequence[float] | None = None) -> SolveResult:
    """Integrate the value system backward from the terminal payoff with
    explicit Euler, the monotone scheme.

    Each checkpoint must be a time of the grid t_k = T - k*dt of
    ``_schedule``; ``checkpoints=None`` records every step down to t=0
    (the coupling engine reads a ``FeedbackTable`` from
    ``feedback_table`` instead).  Each rate build must show the step
    monotone (``MonotoneStepError`` otherwise), and each step is checked
    against the maximum principle.
    """
    if kind not in VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {VALUE_KINDS}, got {kind!r}")
    dt, steps = _schedule(spec, domain.h, None, dt, checkpoints)
    return SolveResult(game=spec.name, kind=kind, h=domain.h, dt=dt,
                       slices=_sweep(spec, domain, kind, dt=dt, steps=steps))


def feedback_table(spec: GameSpec, domain: LatticeDomain, *,
                   dt: float | None = None) -> FeedbackTable:
    """Upper-value Euler sweep down to t=0 that keeps only the feedback table.

    Each step already evaluates min_u max_v of the generator on the current
    slice; the table records the u index attaining it, and the last slice
    gets one more evaluation.  The grid and the values of every step are
    ``solve_backward(spec, domain, dt=dt)``'s (``_schedule``), so ``times``
    runs from 0 to T, but only the t=0 slice is kept.  Like the sweep, the
    table evaluates the drift at each slice's grid time t_k (once, at T, for
    an autonomous spec), and checks each step's rates for monotonicity.
    """
    dt, (n_steps,) = _schedule(spec, domain.h, None, dt, [0.0])
    bits = next(b for b in (1, 2, 4, 8, 16, 32) if len(spec.u_grid) <= 2**b)
    per = max(1, 8 // bits)
    dtype = np.dtype(f"uint{max(8, bits)}")
    n_words = -(-domain.n_points // per)
    u_words = np.empty((n_steps + 1, n_words), dtype=dtype)
    # the sweep's row of unpacked indices, padded with zeros to whole words
    index = _shared((n_words * per,), dtype)
    entries = index.reshape(n_words, per)

    def pack(j: int) -> None:
        words = u_words[n_steps - j]
        np.copyto(words, entries[:, 0])
        for k in range(1, per):  # a column loop: reducing over the short axis is ~6x slower
            words |= entries[:, k] << k * bits

    (value0,) = _sweep(spec, domain, "upper", dt=dt, steps=[n_steps],
                       feedback=(index[:domain.n_points], pack))
    return FeedbackTable(game=spec.name, h=domain.h, dt=dt, domain=domain,
                         times=spec.T - dt * np.arange(n_steps, -1, -1), bits=bits,
                         u_words=u_words, value0=value0)


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
    ks, on = _on_lattice(states, h)
    if not on.all():
        raise GameSpecError(f"states in {path} do not sit on a mesh-{h} lattice")
    ks = ks.astype(int)
    lo = tuple(int(a) for a in ks.min(axis=0))
    hi = tuple(int(b) for b in ks.max(axis=0))
    domain = LatticeDomain(h=h, lo=lo, hi=hi)
    if domain.n_points != len(vals):
        raise GameSpecError(f"slice file {path} does not cover a full box")
    # a repeated row leaves a hole, which ValueGrid rejects as non-finite
    ordered = np.full(domain.n_points, np.nan)
    ordered[np.ravel_multi_index(tuple((ks - np.asarray(lo)).T), domain.shape)] = vals
    return ValueGrid(t=t, domain=domain, values=ordered), meta
