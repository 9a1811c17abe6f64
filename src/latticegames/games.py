"""Zero-sum differential game definitions over finite control grids.

A game couples a controlled drift field ``f(t, x, u, v)`` with a terminal
payoff ``g(x)`` that player one (control ``u``) minimises and player two
(control ``v``) maximises over a fixed horizon ``[0, T]``.  Both players pick
controls from finite grids, so every minimax quantity in this package is an
exhaustive enumeration, never a continuous optimisation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import GameSpecError

# A control is a float (scalar channel) or a tuple of floats (vector channel).
Control = float | tuple[float, ...]

DriftFn = Callable[[float, np.ndarray, Control, Control], np.ndarray]
PayoffFn = Callable[[np.ndarray], np.ndarray]


def _as_control(value) -> Control:
    if np.isscalar(value):
        return float(value)
    seq = tuple(float(c) for c in value)
    if len(seq) == 1:
        return seq[0]
    return seq


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of one game instance.

    Attributes
    ----------
    name:      short identifier used in file names and reports.
    d:         state dimension.
    T:         horizon; play happens on [0, T].
    drift:     ``f(t, x, u, v) -> dx/dt``; must accept one state ``x`` of
               shape (d,) with grid elements ``u`` and ``v``, and batches as
               described under ``vectorized``.
    u_grid:    finite control grid of the minimising player.
    v_grid:    finite control grid of the maximising player.
    payoff:    terminal payoff ``g(x)``; accepts (d,) and (n, d) batches.
    R:         Lipschitz constant of ``g``.
    M1:        declared drift bound.  No code checks ||f|| <= M1; the code
               checks sum_i |f_i| <= d * M1 at every thinning candidate
               (``simulate.check_majorant``), and in each Euler sweep that
               the box's peak of sum_i |f_i| / h times dt is at most 1
               (``MonotoneStepError``; the viscous sweep adds d*sigma^2/h^2).
    K1:        Lipschitz constant of ``f`` in the state variable.
    vectorized: whether ``drift`` accepts batches and returns (n, d): ``x``
               of shape (n, d), ``t`` a scalar or one time per row (n,), and
               ``u``, ``v`` each a grid element or one control per row, as an
               (n, 1) column for a scalar channel or (n, k) rows for a vector
               one.  Plain arithmetic on the controls then acts row by row.
               Otherwise ``drift_batch`` calls the drift once per row.
    closed_form: optional exact value function ``(t, x) -> value`` used as a
               convergence reference; only catalog games carry one.
    autonomous: whether ``drift`` ignores t; the solvers then build the jump
               rates once per solve, at T, instead of at every kernel time.
               Spot-checked when a sweep builds its rates: every control
               pair's drift must agree at T and at 0 on a fixed sample of at
               most 64 of the sweep's states, or the sweep raises
               GameSpecError.
    """

    name: str
    d: int
    T: float
    drift: DriftFn
    u_grid: tuple[Control, ...]
    v_grid: tuple[Control, ...]
    payoff: PayoffFn
    R: float
    M1: float
    K1: float
    vectorized: bool = False
    closed_form: Callable[[float, np.ndarray], float] | None = None
    autonomous: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise GameSpecError(f"state dimension must be >= 1, got {self.d}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise GameSpecError(f"horizon T must be positive, got {self.T}")
        if not self.u_grid or not self.v_grid:
            raise GameSpecError("control grids must be non-empty")
        for label, bound in (("R", self.R), ("M1", self.M1)):
            if not (bound > 0 and math.isfinite(bound)):
                raise GameSpecError(f"{label} must be positive, got {bound}")
        if not (self.K1 >= 0 and math.isfinite(self.K1)):
            raise GameSpecError(f"K1 must be >= 0, got {self.K1}")
        object.__setattr__(self, "u_grid", tuple(_as_control(u) for u in self.u_grid))
        object.__setattr__(self, "v_grid", tuple(_as_control(v) for v in self.v_grid))


def drift_batch(spec: GameSpec, t, states: np.ndarray, u, v) -> np.ndarray:
    """Drift on an (n, d) batch of states, shape (n, d).

    ``t`` is a scalar or one time per row, an (n,) array.  ``u`` and ``v`` are
    each one grid element or one control per row: an (n,) array for a scalar
    channel, an (n, k) array for a vector one.  A vectorized drift receives
    per-row times as given and per-row controls as (n, 1) or (n, k) arrays;
    any other drift is called row by row with that row's time and grid
    elements.  Controls are not checked against the grids: this is the hot
    path of the solvers, the coupling engine and the chain characteristics.
    """
    states = np.asarray(states, dtype=float)
    # per-row controls arrive as arrays: scalar channels become (n, 1) columns
    u, v = (c.reshape(len(c), -1) if isinstance(c, np.ndarray) and c.ndim else c for c in (u, v))
    if spec.vectorized:
        out = np.asarray(spec.drift(t if np.isscalar(t) else np.asarray(t, dtype=float),
                                    states, u, v), dtype=float)
    else:
        n = len(states)
        t_rows = np.broadcast_to(np.asarray(t, dtype=float), (n,))
        rows = [np.atleast_1d(np.asarray(spec.drift(float(tr), row, ur, vr), dtype=float))
                for tr, row, ur, vr in zip(t_rows, states, _grid_rows(u, n), _grid_rows(v, n),
                                           strict=True)]
        out = np.stack(rows) if rows else np.empty(states.shape)
    if out.shape != states.shape:
        raise GameSpecError(f"drift returned shape {out.shape}, expected {states.shape}")
    return out


def _grid_rows(c, n: int) -> list:
    """Each row's control as a grid element: a float or a tuple of floats."""
    if np.ndim(c) < 2:  # one grid element for every row
        return [c] * n
    return [row[0] if len(row) == 1 else tuple(row) for row in c.tolist()]


def payoff_batch(spec: GameSpec, states: np.ndarray) -> np.ndarray:
    """Payoff on an (n, d) batch; catalog payoffs broadcast natively."""
    states = np.asarray(states, dtype=float)
    out = np.asarray(spec.payoff(states), dtype=float)
    if out.shape == states.shape[:1]:
        return out
    # non-broadcasting payoff: evaluate row by row
    return np.array([float(spec.payoff(row)) for row in states])


# ---------------------------------------------------------------------------
# drift and payoff factories (all vectorized over (n, d) state batches)


def drift_control_sum() -> DriftFn:
    """One-dimensional drift dx/dt = u + v."""

    def f(t, x, u, v):
        return np.full_like(np.asarray(x, dtype=float), u + v)

    return f


def drift_rotation_mix() -> DriftFn:
    """Two-dimensional drift (v*x2 - u, u*x1 + v)."""

    def f(t, x, u, v):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0:1], x[..., 1:2]
        return np.concatenate([v * x2 - u, u * x1 + v], axis=-1)

    return f


def drift_affine(a: Sequence[Sequence[float]], bu: Sequence[Sequence[float]],
                 bv: Sequence[Sequence[float]], c: Sequence[float]) -> DriftFn:
    """Affine drift A x + Bu u + Bv v + c with matrix coefficients."""
    A = np.asarray(a, dtype=float)
    Bu = np.atleast_2d(np.asarray(bu, dtype=float))
    Bv = np.atleast_2d(np.asarray(bv, dtype=float))
    cc = np.asarray(c, dtype=float)
    d = cc.shape[0]
    if A.shape != (d, d) or Bu.shape[0] != d or Bv.shape[0] != d:
        raise GameSpecError("affine drift coefficient shapes are inconsistent")
    M = np.hstack([A, Bu, Bv])

    def f(t, x, u, v):
        # [A Bu Bv] [x; u; v] summed column by column in a fixed order: a BLAS
        # product rounds a row differently depending on how many rows share
        # the call.  Grid elements give (k,) controls, per-row ones (n, k).
        xuv = [np.atleast_1d(np.asarray(y, dtype=float)) for y in (x, u, v)]
        cols = [y[..., j:j + 1] for y in xuv for j in range(y.shape[-1])]
        out = cols[0] * M[:, 0]
        for j in range(1, M.shape[1]):
            out = out + cols[j] * M[:, j]
        return out + cc

    return f


def drift_zero() -> DriftFn:
    """Motionless dynamics; useful to pin down degenerate behaviour."""

    def f(t, x, u, v):
        return np.zeros_like(np.asarray(x, dtype=float))

    return f


def payoff_norm(center: Sequence[float] | None = None) -> PayoffFn:
    """Euclidean distance to ``center`` (origin by default)."""

    def g(x):
        x = np.asarray(x, dtype=float)
        if center is not None:
            x = x - np.asarray(center, dtype=float)
        return np.linalg.norm(x, axis=-1)

    return g


def payoff_linear(a: Sequence[float]) -> PayoffFn:
    aa = np.asarray(a, dtype=float)

    def g(x):
        return np.asarray(x, dtype=float) @ aa

    return g


def payoff_constant(value: float) -> PayoffFn:
    val = float(value)

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], val)

    return g


# ---------------------------------------------------------------------------
# catalog


def _g1_closed_form(t: float, x) -> float:
    # pursuit on the line with |u| <= 1 against |v| <= 0.5: the minimiser
    # shrinks |x| at net rate 0.5 until the target 0 is reached
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return max(abs(float(x[0])) - 0.5 * (1.0 - t), 0.0)


def _make_g1() -> GameSpec:
    return GameSpec(
        name="g1",
        d=1,
        T=1.0,
        drift=drift_control_sum(),
        u_grid=(-1.0, 0.0, 1.0),
        v_grid=(-0.5, 0.0, 0.5),
        payoff=payoff_norm(),
        R=1.0,
        M1=1.5,
        K1=0.0,
        vectorized=True,
        closed_form=_g1_closed_form,
        autonomous=True,
    )


def _make_g2() -> GameSpec:
    """Planar game with state-coupled mixing drift (v*x2 - u, u*x1 + v),
    u, v in {-1, 0, 1}, and payoff |x|.

    Its constants hold on the sampling box [-2, 2]^2 only: there
    sum_i |f_i| = |v*x2 - u| + |u*x1 + v| <= 6 <= d * M1 = 9, the bound the
    code checks (a total jump rate of at most d * M1 / h), and the
    state-Lipschitz constant is max(|u|, |v|) <= K1 = 1.  The box
    ``truncate_domain`` builds from M1 * T + pad reaches further
    ([-5, 5]^2 around the origin): at its corners sum_i |f_i| reaches 12,
    so some control pairs' total jump rate exceeds d * M1 / h (240 against
    180 at h = 0.05).
    """
    return GameSpec(
        name="g2",
        d=2,
        T=1.0,
        drift=drift_rotation_mix(),
        u_grid=(-1.0, 0.0, 1.0),
        v_grid=(-1.0, 0.0, 1.0),
        payoff=payoff_norm(),
        R=1.0,
        M1=4.5,
        K1=1.0,
        vectorized=True,
        autonomous=True,
    )


CATALOG: dict[str, Callable[[], GameSpec]] = {
    "g1": _make_g1,
    "g2": _make_g2,
}

g1 = _make_g1
g2 = _make_g2

_DRIFT_KINDS = {
    "control_sum": (lambda params: drift_control_sum(), 1),
    "g1": (lambda params: drift_control_sum(), 1),
    "rotation_mix": (lambda params: drift_rotation_mix(), 2),
    "g2": (lambda params: drift_rotation_mix(), 2),
    "zero": (lambda params: drift_zero(), None),
    "affine": (
        lambda params: drift_affine(*(_numbers(params[k], k) for k in ("a", "bu", "bv", "c"))),
        None,
    ),
}

_PAYOFF_KINDS = {
    "norm": lambda params: payoff_norm(_numbers(params.get("center"), "center")),
    "linear": lambda params: payoff_linear(_numbers(params["a"], "a")),
    "constant": lambda params: payoff_constant(_numbers(params["value"], "value")),
}


def _numbers(value, key: str):
    """``value`` itself, once no entry of it is a bool or a str: float() and
    numpy would read true as 1.0 and "2.5" as 2.5 where a game file gives a
    number or a (nested) list of numbers."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{key} must hold numbers, got {value!r}")
    if isinstance(value, (list, tuple)):
        for entry in value:
            _numbers(entry, key)
    return value


def _control_widths(kind: str, drift_def: dict) -> tuple[int, ...] | None:
    """Numbers per u and per v grid entry that a drift kind reads; None: any."""
    if kind == "affine":
        return tuple(np.atleast_2d(np.asarray(drift_def[key], dtype=float)).shape[1]
                     for key in ("bu", "bv"))
    return None if kind == "zero" else (1, 1)


def game_from_dict(data: dict, name: str = "custom") -> GameSpec:
    """Build a GameSpec from a parsed definition dictionary.

    Required keys: d, T, drift{kind,...}, u_grid, v_grid, payoff{kind,...},
    R, M1, K1.  Drift kinds: control_sum (alias g1), rotation_mix (alias g2),
    affine (a, bu, bv, c), zero.  Payoff kinds: norm (optional center),
    linear (a), constant (value).  d is a JSON integer, and every other
    number is a JSON number, not a boolean or a string.  Each grid entry is
    a number or a list of as many numbers as its player's drift channel
    takes: one for control_sum and rotation_mix, bu's (u) or bv's (v)
    column count for affine, any for zero.  A field of the wrong type or
    value raises ``GameSpecError``, like a missing one.
    """
    try:
        return _game_from_dict(data, name)
    except (ValueError, TypeError) as exc:
        raise GameSpecError(f"malformed game definition: {type(exc).__name__}: {exc}") from exc


def _game_from_dict(data: dict, name: str) -> GameSpec:
    missing = [k for k in ("d", "T", "drift", "u_grid", "v_grid", "payoff", "R", "M1", "K1")
               if k not in data]
    if missing:
        raise GameSpecError(f"game definition missing keys: {missing}")
    drift_def = data["drift"]
    kind = drift_def.get("kind") if isinstance(drift_def, dict) else None
    if kind not in _DRIFT_KINDS:
        raise GameSpecError(f"unknown drift kind {kind!r}; known: {sorted(_DRIFT_KINDS)}")
    factory, fixed_d = _DRIFT_KINDS[kind]
    try:
        drift = factory(drift_def)
    except KeyError as exc:
        raise GameSpecError(f"drift kind {kind!r} missing parameter {exc}") from exc
    d = data["d"]
    if isinstance(d, bool) or not isinstance(d, int):
        raise TypeError(f"d must be an integer, got {d!r}")
    if fixed_d is not None and d != fixed_d:
        raise GameSpecError(f"drift kind {kind!r} requires d={fixed_d}, got {d}")
    payoff_def = data["payoff"]
    pkind = payoff_def.get("kind") if isinstance(payoff_def, dict) else None
    if pkind not in _PAYOFF_KINDS:
        raise GameSpecError(f"unknown payoff kind {pkind!r}; known: {sorted(_PAYOFF_KINDS)}")
    try:
        payoff = _PAYOFF_KINDS[pkind](payoff_def)
    except KeyError as exc:
        raise GameSpecError(f"payoff kind {pkind!r} missing parameter {exc}") from exc
    for key in ("T", "R", "M1", "K1", "u_grid", "v_grid"):
        _numbers(data[key], key)
    grids = [tuple(_as_control(c) for c in data[key]) for key in ("u_grid", "v_grid")]
    for key, grid, width in zip(("u_grid", "v_grid"), grids,
                                _control_widths(kind, drift_def) or ()):
        for c in grid:
            if np.size(c) != width:
                raise ValueError(f"drift kind {kind!r} takes {key} entries of {width} "
                                 f"number(s), got {c!r}")
    return GameSpec(
        name=str(data.get("name", name)),
        d=d,
        T=float(data["T"]),
        drift=drift,
        u_grid=grids[0],
        v_grid=grids[1],
        payoff=payoff,
        R=float(data["R"]),
        M1=float(data["M1"]),
        K1=float(data["K1"]),
        vectorized=True,
        autonomous=True,
    )


def load_game(source: str | Path) -> GameSpec:
    """Load a game by catalog name or from a JSON definition file."""
    key = str(source)
    if key in CATALOG:
        return CATALOG[key]()
    path = Path(source)
    if not path.is_file():
        raise GameSpecError(
            f"game {source!r} is neither a catalog name ({sorted(CATALOG)}) nor a file"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GameSpecError(f"game file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GameSpecError(f"game file {path} must contain a JSON object")
    return game_from_dict(data, name=path.stem)
