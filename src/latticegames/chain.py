"""Controlled jump chains on a cubic lattice that mimic a drift field.

Given a drift value f = f(t, x, u, v), the chain at mesh h jumps from x to
x + h*sign(f_i)*e_i at rate |f_i|/h, independently per coordinate.  Its
instantaneous mean velocity therefore equals f exactly, and its quadratic
characteristic is h * sum_i |f_i| -- vanishing linearly in h.  This one rule
is ``kolmogorov_rates``, on one state or an (n, d) batch, and an accepted
thinning candidate picks its axis with ``pick_axis``: the backward sweep's
rates, ``chain_characteristics`` and both thinning samplers are built on the
two.  Time stepping lives elsewhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import GameSpecError, TruncationError
from .games import GameSpec, drift_batch

# components with |f_i| below this are treated as exact zeros (no jump)
RATE_DROP_TOL = 1e-14

# a state lies on the mesh-h lattice when within this times max(1, h) of it
_STATE_TOL = 1e-9


def _on_lattice(xs: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """k = round(x/h) (floats) of states ``xs`` on the last axis, and whether
    each is on the mesh-h lattice: every |x - h*k| <= _STATE_TOL * max(1, h)."""
    k = np.round(xs / h)
    return k, np.max(np.abs(xs - h * k), axis=-1) <= _STATE_TOL * max(1.0, h)


def _check_mesh(h: float, warn: bool = True) -> float:
    h = float(h)
    if not (h > 0 and math.isfinite(h)):
        raise GameSpecError(f"mesh h must be positive, got {h}")
    if warn and h >= 1.0:
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
        if not all(float(k).is_integer() for k in (*self.lo, *self.hi)):
            raise GameSpecError(f"lo and hi must be integers, got lo={self.lo} hi={self.hi}")
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

    def states(self) -> np.ndarray:
        """All lattice states as an (n_points, d) array (C order)."""
        axes = [np.arange(a, b + 1) for a, b in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return self.h * np.stack([m.reshape(-1) for m in mesh], axis=1).astype(float)

    def nearest_lattice(self, x) -> np.ndarray:
        """Integer coordinates of the nearest lattice point; ties round down."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([math.ceil(c / self.h - 0.5) for c in x], dtype=int)

    def indices_of_states(self, xs) -> np.ndarray:
        """Flat indices of a batch of states, one per row of ``xs``; -1 marks
        a state off the mesh-h lattice (beyond ``_STATE_TOL``) or outside the box."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.d)
        k, ok = _on_lattice(xs, self.h)
        rel = k - np.asarray(self.lo)
        ok &= np.all((rel >= 0) & (k <= np.asarray(self.hi)), axis=1)
        out = np.full(len(xs), -1, dtype=np.int64)
        out[ok] = np.ravel_multi_index(tuple(rel[ok].astype(int).T), self.shape)
        return out

    def index_of_state(self, x) -> int:
        """Flat index of an (exactly representable) lattice state."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k, ok = _on_lattice(x, self.h)
        if not np.all(ok):
            raise TruncationError(f"state {x.tolist()} is not on the mesh-{self.h} lattice")
        return self.index_of(k.astype(int))


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
    if point:
        # one state in Python floats, which cost less than numpy's per-call
        # overhead on one row; a non-finite row falls through to the batch's message
        row = f[0].tolist()
        if all(map(math.isfinite, row)):
            return f[0], np.array([abs(c) / h if abs(c) > RATE_DROP_TOL else 0.0 for c in row])
    if not np.isfinite(f).all():
        r = int(np.argmin(np.isfinite(f).all(axis=1)))
        t_r = np.broadcast_to(np.asarray(t, dtype=float), (len(f),))[r]
        raise GameSpecError(f"drift not finite at t={t_r}, x={xs[r].tolist()}")
    rates = np.abs(f)
    drop = rates <= RATE_DROP_TOL
    rates /= h
    rates[drop] = 0.0
    return f, rates


def pick_axis(rates: np.ndarray, uniform):
    """Jump axis of an accepted thinning candidate: the first i with
    uniform * total < cumsum(rates)_i, the total being the last cumulative rate.

    ``rates`` is one row of ``kolmogorov_rates``, shape (d,), with a uniform
    draw in [0, 1), or m rows, shape (m, d), with m draws.  Each row needs a
    positive total.  Since uniform * total < total, the pick never runs past
    the last axis, and it never lands on an axis of rate 0.  One row is
    counted in Python floats: ``accumulate`` adds left to right, as
    ``np.cumsum`` does, so the pick is bitwise the batch row's.
    """
    rates = np.asarray(rates)
    if rates.ndim == 1:
        cum = list(accumulate(rates.tolist()))
        pick = uniform * cum[-1]
        return sum(c <= pick for c in cum)
    cum = np.cumsum(rates, axis=-1)
    pick = np.asarray(uniform) * cum[..., -1]
    return (pick[..., None] >= cum).sum(axis=-1)


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
