"""Certified constants and guarantee numbers for the lattice approximation.

Everything here is closed-form arithmetic on the game's declared bounds plus
two sampled diagnostics.  The certified quantities (drift mismatch, noise
levels, horizon constants) feed three headline numbers:

  guarantee_thm1  -- payoff excess the feedback coupling certifies,
  bound_thm2      -- value-function error of the mesh-h chain model,
  bound_visc      -- value-function error of the sigma-viscous model.

Certified bounds and observed suprema are kept in separate fields so a
sampled number is never passed off as a proved one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from .chain import chain_characteristics
from .errors import GameSpecError
from .games import GameSpec

SAMPLE_BOX = 2.0


@dataclass(frozen=True)
class BoundsReport:
    """All named constants for one (game, h, sigma) configuration."""

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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        lines = [f"{k}={'' if v is None else v}" for k, v in self.to_dict().items()]
        return "\n".join(lines) + "\n"


def _sample_points(spec: GameSpec, n_samples: int, seed: int, box: float):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, spec.T, size=n_samples)
    xs = rng.uniform(-box, box, size=(n_samples, spec.d))
    return ts, xs


def kappa(spec: GameSpec, h: float, n_samples: int = 200, rng_seed: int = 0, *,
          b2_override: Callable | None = None, box: float = SAMPLE_BOX) -> float:
    """Squared sup mismatch between the real drift and the model's mean
    velocity.  The lattice chain's mean velocity is the drift itself (its
    generator acts on linear functions as the plain directional derivative),
    so without an override this is exactly zero; an override models a
    perturbed second system and is measured by sampling."""
    if b2_override is None:
        return 0.0
    ts, xs = _sample_points(spec, n_samples, rng_seed, box)
    worst = 0.0
    for t, x in zip(ts, xs):
        for u in spec.u_grid:
            for v in spec.v_grid:
                f = np.atleast_1d(np.asarray(spec.drift(float(t), x, u, v), dtype=float))
                b2 = np.atleast_1d(np.asarray(b2_override(float(t), x, u, v), dtype=float))
                worst = max(worst, float(np.sum((f - b2) ** 2)))
    return worst


def beta(spec: GameSpec) -> float:
    """Gap growth rate 2 + 2K, with K = spec.K1 the Lipschitz constant of the
    field that the real system and the chain model share."""
    return 2.0 + 2.0 * spec.K1


def empirical_m0_2(spec: GameSpec, h: float, n_samples: int = 200, rng_seed: int = 0,
                   *, box: float = SAMPLE_BOX) -> float:
    """Observed sup of the chain's quadratic characteristic over sampled
    (t, x, u, v); always dominated by the certified d^{3/2}*M1*h."""
    ts, xs = _sample_points(spec, n_samples, rng_seed, box)
    nu, nv = len(spec.u_grid), len(spec.v_grid)
    # every sample under every control pair, in one batch
    pair = np.arange(nu * nv * n_samples) // n_samples
    _, sigma2 = chain_characteristics(spec, np.tile(ts, nu * nv), np.tile(xs, (nu * nv, 1)),
                                      np.asarray(spec.u_grid)[pair // nv],
                                      np.asarray(spec.v_grid)[pair % nv], h)
    return float(np.max(sigma2, initial=0.0))


def alpha2_reference(spec: GameSpec, delta: float, m_prime: float) -> float:
    """Optional diagnostic (2/3)*M1*M'*sqrt(delta) for the partition-diameter
    term; the caller supplies the moment scale M'.  Coupling experiments fit
    observed slack instead of using this."""
    return (2.0 / 3.0) * spec.M1 * m_prime * math.sqrt(delta)


def assemble(spec: GameSpec, h: float, sigma: float | None = None, *,
             n_samples: int = 200, seed: int = 0, box: float = SAMPLE_BOX,
             allow_coarse: bool = False) -> BoundsReport:
    """Populate the full report for mesh h (and optionally noise sigma)."""
    if h <= 0:
        raise GameSpecError(f"mesh h must be positive, got {h}")
    if h >= 1.0 and not allow_coarse:
        raise GameSpecError(
            f"mesh h={h} >= 1 voids the certified constants; pass allow_coarse=True to proceed")
    k = kappa(spec, h, n_samples, seed, box=box)
    m0_1 = 0.0  # the steered system is deterministic
    m0_2 = spec.d ** 1.5 * spec.M1 * h
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
        empirical_m0_2=empirical_m0_2(spec, h, n_samples, seed, box=box),
    )
