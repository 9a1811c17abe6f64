"""Exception types shared across the package.

Every failure mode maps onto one of four categories so that callers (and the
CLI exit-code logic) can tell configuration mistakes apart from numerical
failures discovered at run time.
"""

from __future__ import annotations


class LatticeGamesError(Exception):
    """Base class for all package errors."""


class GameSpecError(LatticeGamesError):
    """A game definition or call argument is invalid (bad control, bad shape,
    non-finite drift/payoff, malformed definition file)."""


class TruncationError(LatticeGamesError):
    """A lattice lookup fell outside the truncated computational box or off
    its lattice, or a required value slice is missing a point."""


class StepSizeError(LatticeGamesError):
    """A time step violates the stability ceiling, or a backward step left
    the bounds its scheme guarantees (the payoff range for monotone steps)."""


class ResourceError(LatticeGamesError):
    """A requested computation exceeds the configured memory budget."""
