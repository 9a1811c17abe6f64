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

from .chain import LatticeDomain, neighbor_tables
from .errors import GameSpecError
# drift_batch is no longer called here; perfbench's install_probes patches it
from .games import GameSpec, drift_batch, payoff_batch  # noqa: F401
from .solver import (SolveResult, ValueGrid, VALUE_KINDS, _rates_by_time, _sweep,
                     _tiling_dt, hamiltonian_field)

__all__ = ["cfl_ceiling", "auto_cfl_dt", "solve_viscous", "viscosity_gap"]


def cfl_ceiling(spec: GameSpec, dx: float, sigma: float) -> float:
    """Stability ceiling 1 / (2 * (d*M1/dx + d*sigma^2/dx^2))."""
    return 1.0 / (2.0 * (spec.d * spec.M1 / dx + spec.d * sigma**2 / dx**2))


def auto_cfl_dt(spec: GameSpec, dx: float, sigma: float, t_min: float = 0.0) -> float:
    return _tiling_dt(spec.T - t_min, cfl_ceiling(spec, dx, sigma))


def solve_viscous(spec: GameSpec, domain: LatticeDomain, sigma: float, *,
                  kind: str = "upper", dt: float | None = None,
                  checkpoints: Sequence[float] | None = None) -> SolveResult:
    """Backward explicit sweep of the viscous minimax equation.

    The step is the chain solver's generator kernel (the upwind advection
    term, its jump rates built as in the chain sweep) plus the centered
    Laplacian, with the boundary ring re-frozen.
    ``domain.h`` doubles as the spatial spacing dx.  Checkpoints follow the
    chain solver's snap-down convention; ``None`` records every step down to
    t=0.  sigma=0 degenerates to the first-order upwind scheme for the
    inviscid equation.
    """
    if kind not in VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {VALUE_KINDS}, got {kind!r}")
    sigma = float(sigma)
    if sigma < 0:
        raise GameSpecError(f"sigma must be >= 0, got {sigma}")
    dx = domain.h
    states = domain.states()
    up, down, interior = neighbor_tables(domain)
    boundary = ~interior
    rates_at = _rates_by_time(spec, domain, states)
    half_sig2 = 0.5 * sigma**2
    dx2 = dx * dx
    # the Laplacian's work rows, reused by every step of this sweep
    lap, second, term = np.empty((3, domain.n_points))

    def step(values, t, t_next, dt):
        out = hamiltonian_field(values, spec, t, domain, kind, rates=rates_at(t))
        if sigma > 0:
            # centered second differences (values[up] - 2 values + values[down]) / dx2;
            # boundary values are re-frozen below
            lap.fill(0.0)
            for i in range(spec.d):
                np.take(values, up[i], out=second, mode="clip")
                np.multiply(values, 2.0, out=term)
                np.subtract(second, term, out=second)
                np.take(values, down[i], out=term, mode="clip")
                np.add(second, term, out=second)
                np.divide(second, dx2, out=second)
                np.add(lap, second, out=lap)
            np.multiply(lap, half_sig2, out=lap)
            out += lap
        out *= dt
        out += values
        np.copyto(out, values, where=boundary)  # boundary ring stays at terminal data
        return out

    dt, slices = _sweep(spec, domain, payoff_batch(spec, states).astype(float), step,
                        dt=dt, checkpoints=checkpoints, ceiling=cfl_ceiling(spec, dx, sigma),
                        ceiling_name="CFL stability ceiling")
    return SolveResult(game=spec.name, kind=kind, h=dx, dt=dt, scheme="euler",
                       boundary="dirichlet", slices=slices, sigma=sigma)


def viscosity_gap(slice_a: ValueGrid, slice_b: ValueGrid, tol: float = 1e-9) -> float:
    """Sup-norm gap between two slices on their shared lattice points.

    Slices may live on different meshes; points are matched by state up to
    ``tol``.  Raises when the meshes share no points.
    """
    idx_b = slice_b.domain.indices_of_states(slice_a.domain.states(), tol)
    shared = idx_b >= 0
    if not np.any(shared):
        raise GameSpecError("slices share no lattice points")
    return float(np.max(np.abs(slice_a.values[shared] - slice_b.values[idx_b[shared]])))
