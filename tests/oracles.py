"""References the tests compare the package against.

``forced_blocks(n)`` splits every sweep into n blocks where the slabs allow,
so a test can hold it against the one-block sweep.  ``solve_rk4`` is the
classical fourth-order Runge-Kutta backward sweep on the package's kernel
(``hamiltonian_field``).  It is not monotone, so it is checked against
exp(3*d*M1*(T-t)) growth of the mesh-weighted norm instead of the payoff
range, under the Euler step ceiling; checkpoints snap down to the grid
T - k*dt as in ``solve_backward``.
"""

import contextlib
import math
from unittest import mock

import numpy as np

from latticegames import solver
from latticegames.errors import GameSpecError, StepSizeError
from latticegames.games import payoff_batch
from latticegames.solver import SolveResult, ValueGrid, dt_ceiling, hamiltonian_field


@contextlib.contextmanager
def forced_blocks(n: int):
    """Sweeps in n blocks, or one per axis-0 slab when there are fewer."""
    with mock.patch.object(solver, "_MIN_BLOCK_POINTS", 1), \
            mock.patch.object(solver, "_cpu_count", lambda: n):
        yield


def solve_rk4(spec, domain, *, kind="upper", dt=None, checkpoints=None) -> SolveResult:
    if kind not in solver.VALUE_KINDS:
        raise GameSpecError(f"kind must be one of {solver.VALUE_KINDS}, got {kind!r}")
    dt, want = solver._schedule(spec, dt, checkpoints, dt_ceiling(spec, domain.h),
                                solver._CEILING_NAME)
    states = domain.states()
    if spec.autonomous:
        solver._check_autonomous(spec, states)
    rates_at = solver._rates_by_time(spec, domain, states)
    values = payoff_batch(spec, states).astype(float)

    def H(vals, t):
        return hamiltonian_field(vals, spec, t, domain, kind, rates=rates_at(t))

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

    t, k = spec.T, 0
    slices = [ValueGrid(t=t, domain=domain, values=values.copy())
              ] if want is None or 0 in want else []
    while t > solver._TIME_FUZZ if want is None else k < max(want):
        k += 1
        t_next = spec.T - k * dt
        values = step(values, t, t_next)
        t = t_next
        check(values, t)
        if want is None or k in want:
            slices.append(ValueGrid(t=t, domain=domain, values=values.copy()))
    return SolveResult(game=spec.name, kind=kind, h=domain.h, dt=dt, boundary="freeze",
                       slices=tuple(slices))
