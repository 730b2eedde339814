"""Barrier-embedded approximate-optimal safe control with a relaxed
CLF-CBF quadratic-program baseline and a simulation harness."""

from .config import DEFAULTS, Scenario, build_scenario, parse_config
from .cost import (BarrierSpec, CostSpec, barrier_B, barrier_Bbar, grad_Bbar,
                   input_penalty_Ru, instantaneous_cost)
from .critic import (BellmanSample, LearnerGains, actor_rhs, bellman_at,
                     critic_rhs, excitation_metrics, gamma_rhs,
                     sample_extrapolation_points, weak_excitation)
from .errors import (BoundaryViolation, ConfigError, InputOutOfBox,
                     QpInfeasible, QpSolverFailed, RunEnded, SafeAdpError,
                     SingularGradient)
from .model import (CircularSafeSet, SystemModel, cbf_condition, clf_condition,
                    linear_system, single_integrator)
from .qpsolve import (ControllerQp, QpParams, QpProblem, QpSolution, build_qp,
                      kkt_residuals, qp_controller, solve_qp)
from .sim import (SimConfig, SummaryReport, TrajectoryRecord, run_adp_episode,
                  run_episode, run_qp_episode, summarize)
from .staf import (StaFConfig, centers, grad_sigma, kernel_sigma, policy_hat,
                   policy_star, value_hat)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
