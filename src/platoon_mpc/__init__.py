"""Distributed MPC platooning: model, solver, closed-loop simulation."""

from .platoon import (GRAVITY, NoMarginError, PlatoonConfig, PlatoonState,
                      VehicleParams, effective_accel, feasible_control,
                      h_one_step, interior_control, is_feasible_state,
                      linear_step, load_config, nonlinear_step, q_reaction,
                      random_feasible_state, safety_gap_p, save_config)
from .assembly import (DecomposedModel, QuadraticModel, StructuralMatrices,
                       WeightSchedule, assemble_quadratic_model,
                       build_structural, decompose_model)
from .presets import PLATOON_NAMES, platoon_preset, weight_preset
from .convex import (ConvexQcqp, QcqpInfeasibleError, QcqpResult, box_prox,
                     kkt_residual, qcqp_prox, qcqp_solve)
from .solver import (LocalExchange, LocalityError, MpcDiagnostics, MpcResult,
                     SolverConfig, WarmStartError, dr_round, formulate_local,
                     plan_violation, scp_step, solve_centralized_linear,
                     solve_centralized_p1, solve_mpc, warm_start_inner,
                     warm_start_linear)
from .loop import (ClosedLoopMatrices, Scenario, SimRecord, SimulationError,
                   TrackingState, brake_scenario, build_closed_loop,
                   cruise_scenario, equilibrium_we, h_tilde, initial_state,
                   loss_mismatch, oscillation_scenario, read_leader_trace,
                   schur_check, simulate, simulate_linear_reference,
                   speed_coupling, steady_state_error, synthetic_leader,
                   trace_scenario, wave_scenario, write_leader_trace,
                   write_trajectory_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
