"""Certified constants and guarantee numbers for the lattice approximation.

Everything here is closed-form arithmetic on the game's declared bounds plus
one sampled diagnostic.  The certified quantities (drift mismatch, noise
levels, horizon constants) feed three headline numbers:

  guarantee_thm1  -- payoff excess the feedback coupling certifies,
  bound_thm2      -- value-function error of the mesh-h chain model,
  bound_visc      -- value-function error of the sigma-viscous model.

Certified bounds and observed suprema are kept in separate fields so a
sampled number is never passed off as a proved one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .chain import chain_characteristics
from .errors import GameSpecError
from .games import GameSpec

SAMPLE_BOX = 2.0
N_SAMPLES = 200


@dataclass(frozen=True)
class BoundsReport:
    """All named constants for one (game, h, sigma) configuration.  Its
    ``guarantee_thm1`` has no partition-diameter term, so ``simulate``'s
    ``pass`` is the verdict in the limit as the partition diameter goes to 0."""

    game: str
    h: float
    sigma: float | None
    seed: int
    kappa: float
    m0_1: float
    m0_2: float
    theta: float
    beta: float
    c: float
    c1: float
    c2: float
    guarantee_thm1: float
    bound_thm2: float
    bound_visc: float | None
    empirical_m0_2: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [f"{k}={'' if v is None else v}" for k, v in self.to_dict().items()]
        return "\n".join(lines) + "\n"


def beta(spec: GameSpec) -> float:
    """Gap growth rate 2 + 2K, with K = spec.K1 the Lipschitz constant of the
    field that the real system and the chain model share."""
    return 2.0 + 2.0 * spec.K1


def certified_m0_2(spec: GameSpec, h: float) -> float:
    """The mesh-h chain's certified quadratic characteristic d^{3/2}*M1*h."""
    return spec.d ** 1.5 * spec.M1 * h


def empirical_m0_2(spec: GameSpec, h: float, seed: int = 0) -> float:
    """Observed sup of the chain's quadratic characteristic over sampled
    (t, x, u, v); always dominated by ``certified_m0_2``."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, spec.T, size=N_SAMPLES)
    xs = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(N_SAMPLES, spec.d))
    nu, nv = len(spec.u_grid), len(spec.v_grid)
    # every sample under every control pair, in one batch
    pair = np.arange(nu * nv * N_SAMPLES) // N_SAMPLES
    _, sigma2 = chain_characteristics(spec, np.tile(ts, nu * nv), np.tile(xs, (nu * nv, 1)),
                                      np.asarray(spec.u_grid)[pair // nv],
                                      np.asarray(spec.v_grid)[pair % nv], h)
    return float(np.max(sigma2, initial=0.0))


def assemble(spec: GameSpec, h: float, sigma: float | None = None, *, seed: int = 0) -> BoundsReport:
    """Populate the full report for mesh h (and optionally noise sigma).
    ``guarantee_thm1`` has no partition-diameter term, so ``simulate``'s
    ``pass`` is the verdict in the limit as the partition diameter goes to 0."""
    if not 0.0 < h < 1.0:
        raise GameSpecError(f"mesh h must lie in (0, 1) for the certified constants, got {h}")
    k = 0.0  # the chain's mean velocity is the drift itself (criterion 07, property tests)
    m0_1 = 0.0  # the steered system is deterministic
    m0_2 = certified_m0_2(spec, h)
    theta = k + m0_1 + m0_2
    b = beta(spec)
    c = math.sqrt(spec.T * math.exp(b * spec.T))
    c1 = c * math.sqrt(spec.d)
    c2 = spec.d ** 0.75 * math.sqrt(spec.M1) * c
    return BoundsReport(
        game=spec.name, h=h, sigma=sigma, seed=seed,
        kappa=k, m0_1=m0_1, m0_2=m0_2, theta=theta,
        beta=b, c=c, c1=c1, c2=c2,
        guarantee_thm1=spec.R * c * math.sqrt(theta),
        bound_thm2=spec.R * c2 * math.sqrt(h),
        bound_visc=None if sigma is None else spec.R * c1 * sigma,
        empirical_m0_2=empirical_m0_2(spec, h, seed),
    )
