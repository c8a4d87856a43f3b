"""Certified PINNs for ODE initial-value problems.

Train small physics-informed networks and compute rigorous a posteriori
upper bounds on their prediction error, without access to the true
solution, plus a learned fast error indicator.
"""

from .autodiff import Dual, Tape, Var
from .certify import (Certificate, Certifier, CertifyConfig, ResidualFn, SmoothDelta,
                      actual_error, bound, bound_linear, bound_nonlinear,
                      estimate_K, estimate_lipschitz, mean_residual_norm,
                      subinterval_count, trapezoid_bound_integral)
from .network import (Network, forward, init_network, input_jacobian,
                      load_network, parameter_gradient, save_network)
from .ode import (OdeProblem, PointSet, Trajectory, decay_1d, inverted_pendulum,
                  sample_collocation, solve_reference)
from .surrogate import asymmetric_loss, generate_surrogate_data, train_error_net
from .train import TrainingRun, loss_data, loss_physics, train

__version__ = "0.1.0"
