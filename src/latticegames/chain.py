"""Controlled jump chains on a cubic lattice that mimic a drift field.

Given a drift value f = f(t, x, u, v), the chain at mesh h jumps from x to
x + h*sign(f_i)*e_i at rate |f_i|/h, independently per coordinate.  Its
instantaneous mean velocity therefore equals f exactly, and its quadratic
characteristic is h * sum_i |f_i| -- vanishing linearly in h.  This one rule
is ``kolmogorov_rates``, on one state or an (n, d) batch, and an accepted
thinning candidate picks its axis with ``pick_axis``: the backward sweep's
rates, ``chain_characteristics`` and both thinning samplers are built on the
two.  ``jump_measure`` and ``apply_generator`` restate the rule one point at
a time, as reference oracles.  Time stepping lives elsewhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GameSpecError, TruncationError
from .games import Control, GameSpec, drift_batch

# components with |f_i| below this are treated as exact zeros (no jump)
RATE_DROP_TOL = 1e-14

# a state lies on the mesh-h lattice when within this times max(1, h) of it
_STATE_TOL = 1e-9


def chi(component: float) -> int:
    """Jump direction along one axis: the sign of the drift component."""
    if component > RATE_DROP_TOL:
        return 1
    if component < -RATE_DROP_TOL:
        return -1
    return 0


def _check_mesh(h: float) -> float:
    h = float(h)
    if not (h > 0 and math.isfinite(h)):
        raise GameSpecError(f"mesh h must be positive, got {h}")
    if h >= 1.0:
        warnings.warn(
            f"mesh h={h} >= 1: jump sizes reach outside the unit ball, so the"
            " identification of the chain's mean velocity with the drift relies"
            " on the finite total rate, not on small-jump compensation",
            stacklevel=3,
        )
    return h


@dataclass(frozen=True)
class LatticeDomain:
    """A box of lattice points {h*k : lo <= k <= hi componentwise}.

    ``lo``/``hi`` are inclusive integer lattice coordinates.  Points are
    enumerated in C order of (k - lo), so index 0 is the lower corner.
    """

    h: float
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        _check_mesh(self.h)
        if len(self.lo) != len(self.hi):
            raise GameSpecError("lo and hi must have the same length")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise GameSpecError(f"empty lattice box lo={self.lo} hi={self.hi}")
        object.__setattr__(self, "lo", tuple(int(a) for a in self.lo))
        object.__setattr__(self, "hi", tuple(int(b) for b in self.hi))

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    def index_of(self, k) -> int:
        """Flat index of integer lattice coordinates k (C order)."""
        k = np.asarray(k, dtype=int)
        rel = k - np.asarray(self.lo)
        if np.any(rel < 0) or np.any(k > np.asarray(self.hi)):
            raise TruncationError(f"lattice point {k.tolist()} outside box {self.lo}..{self.hi}")
        return int(np.ravel_multi_index(tuple(rel), self.shape))

    def lattice_of(self, idx: int) -> np.ndarray:
        """Integer lattice coordinates for a flat index."""
        rel = np.unravel_index(int(idx), self.shape)
        return np.asarray(rel, dtype=int) + np.asarray(self.lo)

    def state_of(self, idx: int) -> np.ndarray:
        return self.h * self.lattice_of(idx)

    def states(self) -> np.ndarray:
        """All lattice states as an (n_points, d) array (C order)."""
        axes = [np.arange(a, b + 1) for a, b in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return self.h * np.stack([m.reshape(-1) for m in mesh], axis=1).astype(float)

    def nearest_lattice(self, x) -> np.ndarray:
        """Integer coordinates of the nearest lattice point; ties round down."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([math.ceil(c / self.h - 0.5) for c in x], dtype=int)

    def contains_state(self, x) -> bool:
        return bool(self.indices_of_states(x)[0] >= 0)

    def indices_of_states(self, xs) -> np.ndarray:
        """Flat indices of a batch of states, one per row of ``xs``; -1 marks
        a state off the mesh-h lattice (beyond ``_STATE_TOL``) or outside the box."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.d)
        k = np.round(xs / self.h).astype(int)
        rel = k - np.asarray(self.lo)
        ok = np.max(np.abs(xs - self.h * k), axis=1) <= _STATE_TOL * max(1.0, self.h)
        ok &= np.all((rel >= 0) & (k <= np.asarray(self.hi)), axis=1)
        out = np.full(len(xs), -1, dtype=np.int64)
        out[ok] = np.ravel_multi_index(tuple(rel[ok].T), self.shape)
        return out

    def index_of_state(self, x) -> int:
        """Flat index of an (exactly representable) lattice state."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = np.round(x / self.h).astype(int)
        if np.max(np.abs(x - self.h * k)) > _STATE_TOL * max(1.0, self.h):
            raise TruncationError(f"state {x.tolist()} is not on the mesh-{self.h} lattice")
        return self.index_of(k)


def neighbor_tables(domain: LatticeDomain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-coordinate neighbour indices with out-of-box moves clamped to self.

    Returns (up, down, interior) where up[i]/down[i] have shape (n_points,)
    and interior marks points whose 2d axis neighbours all lie in the box.
    Clamping to self encodes the freezing boundary policy: a frozen move
    contributes value difference zero.  The sweeps never build these tables:
    they take each neighbour one stride away in the C-order box, and the
    tables are the reference that rule is tested against.
    """
    shape = domain.shape
    n = domain.n_points
    d = domain.d
    up = np.empty((d, n), dtype=np.int64)
    down = np.empty((d, n), dtype=np.int64)
    interior = np.ones(n, dtype=bool)
    idx = np.arange(n).reshape(shape)
    for i in range(d):
        upper = np.roll(idx, -1, axis=i)
        lower = np.roll(idx, 1, axis=i)
        # clamp the wrapped faces back onto themselves
        sl_hi = [slice(None)] * d
        sl_hi[i] = -1
        sl_lo = [slice(None)] * d
        sl_lo[i] = 0
        upper[tuple(sl_hi)] = idx[tuple(sl_hi)]
        lower[tuple(sl_lo)] = idx[tuple(sl_lo)]
        up[i] = upper.reshape(-1)
        down[i] = lower.reshape(-1)
        face = np.zeros(shape, dtype=bool)
        face[tuple(sl_hi)] = True
        face[tuple(sl_lo)] = True
        interior &= ~face.reshape(-1)
    return up, down, interior


def jump_measure(spec: GameSpec, t: float, x, u: Control, v: Control, h: float
                 ) -> list[tuple[np.ndarray, float]]:
    """Finite jump measure at (t, x, u, v): [(offset, mass)] per active axis.

    Offsets are h*sign(f_i)*e_i with mass |f_i|/h; components with
    |f_i| <= RATE_DROP_TOL are dropped.
    """
    h = _check_mesh(h)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f = np.atleast_1d(np.asarray(spec.drift(t, x, u, v), dtype=float))
    if f.shape != (spec.d,):
        raise GameSpecError(f"drift returned shape {f.shape}, expected ({spec.d},)")
    if not np.all(np.isfinite(f)):
        raise GameSpecError(f"drift not finite at t={t}, x={x.tolist()}")
    out: list[tuple[np.ndarray, float]] = []
    for i in range(spec.d):
        sign = chi(f[i])
        if sign == 0:
            continue
        offset = np.zeros(spec.d)
        offset[i] = h * sign
        out.append((offset, abs(f[i]) / h))
    return out

def apply_generator(values, spec: GameSpec, t: float, x, u: Control, v: Control, h: float) -> float:
    """Generator action sum_i mass_i * (values(x + offset_i) - values(x)) over
    the jump measure.

    ``values`` is a callable on states.  Lookup failures (KeyError/IndexError
    from the callable) become TruncationError: the value table does not cover
    a reachable neighbour.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    measure = jump_measure(spec, t, x, u, v, h)
    try:
        base = float(values(x))
        acc = 0.0
        for offset, mass in measure:
            acc += mass * (float(values(x + offset)) - base)
    except (KeyError, IndexError) as exc:
        raise TruncationError(f"value table missing a neighbour of {x.tolist()}") from exc
    return acc


def kolmogorov_rates(spec: GameSpec, t, x, u, v, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The chain's jump rule: the drift f and the jump rate of each axis.

    ``x`` is one state, shape (d,), or a batch, shape (n, d); ``t`` is a
    scalar or one time per row, and ``u``, ``v`` one grid element or one
    control per row, as in ``drift_batch``.  Along axis i the chain jumps by
    h*sign(f_i) at rate |f_i|/h, and not at all (rate 0) where
    |f_i| <= RATE_DROP_TOL.  Returns (f, rates), both of x's shape; each row
    of a batch is bitwise the point result.
    """
    h = _check_mesh(h)
    x = np.asarray(x, dtype=float)
    point = x.ndim <= 1
    xs = np.atleast_1d(x)[None, :] if point else x
    f = drift_batch(spec, t, xs, u, v)
    if f.shape[1:] != (spec.d,):
        raise GameSpecError(f"drift returned rows of shape {f.shape[1:]}, expected ({spec.d},)")
    if not np.isfinite(f).all():
        r = int(np.argmin(np.isfinite(f).all(axis=1)))
        t_r = np.broadcast_to(np.asarray(t, dtype=float), (len(f),))[r]
        raise GameSpecError(f"drift not finite at t={t_r}, x={xs[r].tolist()}")
    rates = np.abs(f)
    drop = rates <= RATE_DROP_TOL
    rates /= h
    rates[drop] = 0.0
    if point:
        return f[0], rates[0]
    return f, rates


def pick_axis(rates: np.ndarray, uniform):
    """Jump axis of an accepted thinning candidate: the first i with
    uniform * total < cumsum(rates)_i, the total being the last cumulative rate.

    ``rates`` is one row of ``kolmogorov_rates``, shape (d,), with a uniform
    draw in [0, 1), or m rows, shape (m, d), with m draws.  Each row needs a
    positive total.  Since uniform * total < total, the pick never runs past
    the last axis, and it never lands on an axis of rate 0.
    """
    cum = np.cumsum(rates, axis=-1)
    pick = np.asarray(uniform) * cum[..., -1]
    return np.count_nonzero(pick[..., None] >= cum, axis=-1)


def chain_characteristics(spec: GameSpec, t, x, u, v, h: float
                          ) -> tuple[np.ndarray, np.ndarray | float]:
    """Mean velocity and quadratic characteristic of the chain.

    ``x``, ``t``, ``u`` and ``v`` are as in ``kolmogorov_rates``.  From its
    rates, axis by axis: b2_i = rate_i * (h * sign(f_i)), which reproduces the
    drift componentwise, and sigma2 = sum_i rate_i * (h * h) = h * sum_i |f_i|,
    summed over the axes in order.  A batch gives b2 of shape (n, d) and
    sigma2 of shape (n,); one state gives (b2, float).  Each row is bitwise
    the point result.
    """
    f, rates = kolmogorov_rates(spec, t, x, u, v, h)
    h = float(h)
    # +0.0, not rate 0 * -h, on the axes that do not jump
    b2 = np.where(rates > 0, rates * (h * np.sign(f)), 0.0)
    terms = rates * (h * h)
    sigma2 = terms[..., 0]
    for i in range(1, spec.d):
        sigma2 = sigma2 + terms[..., i]
    if f.ndim == 1:
        return b2, float(sigma2)
    return b2, sigma2
