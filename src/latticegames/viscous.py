"""Vanishing-viscosity reference solutions of the minimax transport equation.

Solves, backward from the terminal payoff,

    dpsi/dt + min_u max_v <grad psi, f(t, x, u, v)> + (sigma^2 / 2) * lap psi = 0

on a truncated box with first-order upwind differences for the advection term
(direction per sign of each drift component, so every control pair contributes
a monotone stencil) and centered second differences for the Laplacian.  The
boundary ring is held at the terminal payoff (Dirichlet freeze).  Under the
CFL ceiling the update is again a convex combination of current values.  The
step is the chain solver's sweep (``solver._sweep``), which owns the Laplacian
and the ring when given sigma.
"""

from __future__ import annotations

import math
from typing import Sequence

from .chain import LatticeDomain
from .errors import GameSpecError
# drift_batch is not called here; perfbench's install_probes patches it
from .games import GameSpec, drift_batch  # noqa: F401
from .solver import SolveResult, VALUE_KINDS, _schedule, _sweep, cfl_ceiling

__all__ = ["cfl_ceiling", "solve_viscous"]


def solve_viscous(spec: GameSpec, domain: LatticeDomain, sigma: float, *,
                  kind: str = "upper", dt: float | None = None,
                  checkpoints: Sequence[float] | None = None) -> SolveResult:
    """Backward explicit sweep of the viscous minimax equation.

    This is the chain solver's block sweep (``_sweep``) with ``sigma`` set:
    the sweep's step adds the centered Laplacian to the chain's generator
    kernel (the upwind advection term) and holds the boundary ring.  Each
    rate build must show the step monotone, the chain's peak rate plus the
    Laplacian's d*sigma^2/dx^2 times dt at most 1 (``MonotoneStepError``
    otherwise).  ``domain.h`` doubles as the spatial spacing dx.  The time
    grid is the chain solver's (``_schedule``, under ``cfl_ceiling``): each
    checkpoint must be one of its times, and ``None`` records every step
    down to t=0.  sigma=0 degenerates to the first-order upwind scheme for
    the inviscid equation.
    """
    if kind not in VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {VALUE_KINDS}, got {kind!r}")
    sigma = float(sigma)
    if not 0 <= sigma < math.inf:  # NaN too
        raise GameSpecError(f"sigma must be finite and >= 0, got {sigma}")
    dt, steps = _schedule(spec, domain.h, sigma, dt, checkpoints)
    slices = _sweep(spec, domain, kind, dt=dt, steps=steps, sigma=sigma)
    return SolveResult(game=spec.name, kind=kind, h=domain.h, dt=dt, slices=slices, sigma=sigma)
