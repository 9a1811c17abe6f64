"""Vanishing-viscosity reference solutions of the minimax transport equation.

Solves, backward from the terminal payoff,

    dpsi/dt + min_u max_v <grad psi, f(t, x, u, v)> + (sigma^2 / 2) * lap psi = 0

on a truncated box with first-order upwind differences for the advection term
(direction per sign of each drift component, so every control pair contributes
a monotone stencil) and centered second differences for the Laplacian.  The
boundary ring is held at the terminal payoff (Dirichlet freeze).  Under the
CFL ceiling the update is again a convex combination of current values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .chain import LatticeDomain
from .errors import GameSpecError
# drift_batch is not called here; perfbench's install_probes patches it
from .games import GameSpec, drift_batch  # noqa: F401
from .solver import SolveResult, VALUE_KINDS, _axis_slices, _schedule, _sweep, cfl_ceiling

__all__ = ["cfl_ceiling", "solve_viscous"]


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


def solve_viscous(spec: GameSpec, domain: LatticeDomain, sigma: float, *,
                  kind: str = "upper", dt: float | None = None,
                  checkpoints: Sequence[float] | None = None) -> SolveResult:
    """Backward explicit sweep of the viscous minimax equation.

    The step is the chain solver's generator kernel (the upwind advection
    term, its jump rates built as in the chain sweep) plus the centered
    Laplacian, with the boundary ring re-frozen, on the chain solver's block
    sweep: each block's box gets its own work rows (``finish``).  Each rate build must show
    the step monotone, the chain's peak rate plus the Laplacian's
    d*sigma^2/dx^2 times dt at most 1 (``MonotoneStepError`` otherwise).
    ``domain.h`` doubles as the spatial spacing dx.  The time grid is the
    chain solver's (``_schedule``, under ``cfl_ceiling``): each checkpoint
    must be one of its times, and ``None`` records every step down to t=0.
    sigma=0 degenerates to the first-order upwind scheme for the inviscid
    equation.
    """
    if kind not in VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {VALUE_KINDS}, got {kind!r}")
    sigma = float(sigma)
    if sigma < 0:
        raise GameSpecError(f"sigma must be >= 0, got {sigma}")
    dx = domain.h
    dt, steps = _schedule(spec, dx, sigma, dt, checkpoints)
    half_sig2 = 0.5 * sigma**2

    def finish(box: LatticeDomain):
        shape = box.shape
        # per axis: all but the last layer, all but the first, the first, the last
        axes = [_axis_slices(spec.d, i) for i in range(spec.d)]
        # the Laplacian's work rows, reused by every step of this block
        lap, second, two = np.empty((3, box.n_points))

        def step_end(out, values, dt):
            if sigma > 0:
                _laplacian(values, shape, axes, dx * dx, lap, second, two)
                np.multiply(lap, half_sig2, out=lap)
                out += lap
            out *= dt
            out += values
            # the boundary ring, the 2d faces of the box, stays at terminal
            # data; a face of a block's box that is a halo slab is not kept
            held, frozen = values.reshape(shape), out.reshape(shape)
            for _, _, first, last in axes:
                frozen[first] = held[first]
                frozen[last] = held[last]
        return step_end

    # the Laplacian's jumps, sigma^2 / (2 dx^2) to each of the 2d neighbours
    slices = _sweep(spec, domain, kind, dt=dt, steps=steps,
                    extra_rate=spec.d * sigma**2 / dx**2, finish=finish)
    return SolveResult(game=spec.name, kind=kind, h=dx, dt=dt, slices=slices, sigma=sigma)
