"""Lattice Markov-chain models for zero-sum differential games.

The package approximates a deterministic two-player game by a controlled
continuous-time Markov chain on a scaled integer lattice, solves the chain's
upper and lower values by backward minimax sweeps, couples the real dynamics
to the chain with a gap-aiming feedback rule, and certifies everything with
closed-form error bounds, a viscous PDE cross-check, and seeded Monte Carlo
statistics.
"""

from .bounds import BoundsReport, alpha2_reference, assemble, beta, empirical_m0_2, kappa
from .chain import (LatticeDomain, apply_generator, chain_characteristics, chi,
                    jump_measure, kolmogorov_rates, neighbor_tables, pick_axis)
from .errors import (GameSpecError, LatticeGamesError, ResourceError,
                     StepSizeError, TruncationError)
from .games import (GameSpec, IsaacsReport, check_isaacs, drift_batch, eval_drift,
                    eval_payoff, g1, g2, game_from_dict, load_game, payoff_batch,
                    payoff_constant, payoff_linear, payoff_norm)
from .shift import (BatchOutcomes, BangBangAdversary, ConstantAdversary,
                    MirrorAdversary, PairedTrajectory, Partition, RandomAdversary,
                    run_extremal_shift, run_extremal_shift_batch, select_u, select_v,
                    standard_adversaries, varpi)
from .simulate import (ChainPath, MomentReport, OdePath, OutcomeEstimate,
                       ResidualReport, integrate_ode, martingale_residual,
                       moment_growth_check, monte_carlo_outcome, rate_majorant,
                       replica_rng, simulate_chain)
from .solver import (FeedbackTable, SolveResult, ValueGrid, auto_dt, dt_ceiling,
                     feedback_table, hamiltonian_field, read_slice_csv, solve_backward,
                     truncate_domain, weighted_norm, write_slice_csv)
from .viscous import auto_cfl_dt, cfl_ceiling, solve_viscous, viscosity_gap

__version__ = "0.1.0"

__all__ = [
    "BangBangAdversary", "BatchOutcomes", "BoundsReport", "ChainPath",
    "ConstantAdversary", "FeedbackTable", "GameSpec", "GameSpecError", "IsaacsReport",
    "LatticeDomain", "LatticeGamesError", "MirrorAdversary", "MomentReport",
    "OdePath", "OutcomeEstimate", "PairedTrajectory", "Partition",
    "RandomAdversary", "ResidualReport", "ResourceError",
    "SolveResult", "StepSizeError", "TruncationError", "ValueGrid",
    "alpha2_reference", "apply_generator", "assemble",
    "auto_cfl_dt", "auto_dt", "beta", "chain_characteristics", "check_isaacs",
    "chi", "cfl_ceiling", "drift_batch", "dt_ceiling", "empirical_m0_2",
    "eval_drift", "eval_payoff", "feedback_table", "g1", "g2", "game_from_dict",
    "hamiltonian_field", "integrate_ode", "jump_measure", "kappa",
    "kolmogorov_rates", "load_game", "martingale_residual",
    "moment_growth_check", "monte_carlo_outcome", "neighbor_tables",
    "payoff_batch", "payoff_constant", "payoff_linear", "payoff_norm", "pick_axis",
    "rate_majorant", "read_slice_csv", "replica_rng",
    "run_extremal_shift", "run_extremal_shift_batch", "select_u", "select_v",
    "simulate_chain", "solve_backward", "solve_viscous", "standard_adversaries",
    "truncate_domain", "varpi", "viscosity_gap", "weighted_norm", "write_slice_csv",
]
