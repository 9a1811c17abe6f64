"""Lattice Markov-chain models for zero-sum differential games.

The package approximates a deterministic two-player game by a controlled
continuous-time Markov chain on a scaled integer lattice, solves the chain's
upper and lower values by backward minimax sweeps, couples the real dynamics
to the chain with a gap-aiming feedback rule, and certifies everything with
closed-form error bounds, a viscous PDE cross-check, and seeded Monte Carlo
statistics.
"""

from .bounds import BoundsReport, assemble, beta, empirical_m0_2
from .chain import LatticeDomain, chain_characteristics, kolmogorov_rates, pick_axis
from .errors import (GameSpecError, LatticeGamesError, ResourceError,
                     StepSizeError, TruncationError)
from .games import (GameSpec, drift_batch, g1, g2, game_from_dict, load_game, payoff_batch,
                    payoff_constant, payoff_linear, payoff_norm)
from .shift import (BatchOutcomes, BangBangAdversary, ConstantAdversary,
                    MirrorAdversary, PairedTrajectory, Partition, RandomAdversary,
                    run_extremal_shift, run_extremal_shift_batch, standard_adversaries)
from .simulate import (ChainPath, MomentReport, OutcomeEstimate, ResidualReport,
                       martingale_residual, moment_growth_check, rate_majorant,
                       replica_rng, simulate_chain)
from .solver import (FeedbackTable, SolveResult, ValueGrid, cfl_ceiling, dt_ceiling,
                     feedback_table, hamiltonian_field, read_slice_csv, solve_backward,
                     truncate_domain, write_slice_csv)
from .viscous import solve_viscous

__version__ = "0.1.0"

__all__ = [
    "BangBangAdversary", "BatchOutcomes", "BoundsReport", "ChainPath",
    "ConstantAdversary", "FeedbackTable", "GameSpec", "GameSpecError",
    "LatticeDomain", "LatticeGamesError", "MirrorAdversary", "MomentReport",
    "OutcomeEstimate", "PairedTrajectory", "Partition", "RandomAdversary",
    "ResidualReport", "ResourceError", "SolveResult", "StepSizeError",
    "TruncationError", "ValueGrid", "assemble", "beta",
    "chain_characteristics", "cfl_ceiling", "drift_batch", "dt_ceiling", "empirical_m0_2",
    "feedback_table", "g1", "g2", "game_from_dict", "hamiltonian_field", "kolmogorov_rates",
    "load_game", "martingale_residual", "moment_growth_check", "payoff_batch",
    "payoff_constant", "payoff_linear", "payoff_norm", "pick_axis", "rate_majorant",
    "read_slice_csv", "replica_rng", "run_extremal_shift", "run_extremal_shift_batch",
    "simulate_chain", "solve_backward", "solve_viscous", "standard_adversaries",
    "truncate_domain", "write_slice_csv",
]
