"""Physics-informed training: losses and optimizers.

Training is full batch (sets are at most ~1e4 points) and strictly
deterministic per seed: no minibatching, fixed summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .certify import residual_batch_columns, residual_columns
from .network import (MlpJet, Network, assemble_inputs, flatten_params, forward,
                      infer_layout, parameter_gradient, set_params, time_tangent)
# sample_collocation is not used here: it is re-exported for callers of this module
from .ode import (ConfigurationError, NumericError, OdeProblem, PointSet, require_int,
                  sample_collocation)
from .table import write_table


LBFGS_MEMORY = 10


class DivergenceError(NumericError):
    def __init__(self, epoch, what="loss"):
        super().__init__(f"non-finite {what} at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainingRun:
    gamma_data: float = 1.0
    gamma_phys: float = 1.0
    eta: object = None           # None = constant 1; [(t, w), ...] breakpoints; or callable
    optimizer: str = "adam"      # adam | lbfgs
    epochs: int = 1000
    seed: int = 0
    lr: float = 1e-2

    def validate(self):
        for key in ("gamma_data", "gamma_phys"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigurationError(f"loss weight {key} must be finite and >= 0, "
                                         f"got {getattr(self, key)}")
        if self.gamma_data == 0 and self.gamma_phys == 0:
            raise ConfigurationError("at least one loss weight must be positive")
        if self.optimizer not in ("adam", "lbfgs"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        require_int("epochs", self.epochs, 0)
        require_int("seed", self.seed, 0)
        if not 0 < self.lr < math.inf:
            raise ConfigurationError(f"lr must be finite and > 0, got {self.lr}")


def eta_weights(eta, t):
    """Evaluate the physics-loss weighting at the given times."""
    t = np.asarray(t, dtype=float)
    if eta is None:
        return np.ones_like(t)
    if callable(eta):
        return np.asarray(eta(t), dtype=float) * np.ones_like(t)
    pts = np.asarray(eta, dtype=float)   # (m, 2) breakpoints, linear interpolation
    return np.interp(t, pts[:, 0], pts[:, 1])


def anchor_dataset(x0s) -> PointSet:
    """t=0 records mapping each initial value to itself (pins E_init)."""
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    return PointSet(np.zeros(len(x0s)), x0s, target=x0s.copy())


# -- losses ---------------------------------------------------------------
#
# The reductions work on arrays (evaluation) and on a tape's variables
# (training, where the tape's leaves are the network's output columns).

def _squared_error(y, target):
    """Mean squared Euclidean deviation of the rows of ``y`` from ``target``."""
    diff = y - target
    return (diff * diff).sum(axis=1).mean()


def _weighted_mean_square(r_cols, eta_w):
    """Mean eta-weighted squared norm of the rows of the columns ``r_cols``."""
    sq = r_cols[0] * r_cols[0]
    for r in r_cols[1:]:
        sq = sq + r * r
    return (eta_w * sq).mean()


def loss_data(net: Network, dataset: PointSet, problem: OdeProblem = None):
    """Mean squared Euclidean deviation from the supervised targets."""
    if len(dataset) == 0 or dataset.target is None:
        raise ConfigurationError("the dataset has no rows or no targets")
    X = assemble_inputs(infer_layout(net, problem), dataset.t, dataset.x0, dataset.u)
    return float(_squared_error(forward(net, X), dataset.target))


def loss_physics(net: Network, problem: OdeProblem, colloc: PointSet, eta=None):
    """Mean eta-weighted squared residual norm over the collocation set."""
    if len(colloc) == 0:
        raise ConfigurationError("empty collocation set")
    r_cols = residual_batch_columns(net, problem, t=colloc.t, x0=colloc.x0, u=colloc.u)
    return float(_weighted_mean_square(r_cols, eta_weights(eta, colloc.t)))


def _training_jets(net, layout, dataset, colloc, run):
    """The kernels of the two loss terms, (data, physics); None for a term
    with zero weight or no points."""
    data = phys = None
    if run.gamma_data > 0 and dataset is not None and len(dataset):
        if dataset.target is None:
            raise ConfigurationError("the supervised points carry no targets")
        data = MlpJet(net, assemble_inputs(layout, dataset.t, dataset.x0, dataset.u))
    if run.gamma_phys > 0 and colloc is not None and len(colloc):
        X = assemble_inputs(layout, colloc.t, colloc.x0, colloc.u)
        phys = MlpJet(net, X, time_tangent(X))
    return data, phys


def _loss_and_grad(net, problem, dataset, colloc, run, layout, eta_w, jets=None):
    """One full-batch evaluation of the total loss and its flat gradient.

    The network runs in the :class:`MlpJet` kernels ``jets`` (built here when
    not given); the rhs, residual and reductions are recorded on a small tape
    whose leaves are the kernels' output columns, with the kernels recorded
    behind them for :func:`parameter_gradient`.
    """
    data_jet, phys_jet = _training_jets(net, layout, dataset, colloc, run) \
        if jets is None else jets
    if data_jet is None and phys_jet is None:
        raise ConfigurationError("nothing to train on: both loss terms are empty")
    tape = Tape()
    parts = {"data": 0.0, "phys": 0.0}
    total = None
    if data_jet is not None:
        y_data = tape.var(data_jet.forward()[0])
        data_jet.record(tape, y_data)
        l_data = _squared_error(y_data, dataset.target)
        parts["data"] = float(l_data.value)
        total = run.gamma_data * l_data
    if phys_jet is not None:
        y, ydot = phys_jet.forward()
        x_cols = [tape.var(y[:, i]) for i in range(problem.dim)]
        xdot_cols = [tape.var(ydot[:, i]) for i in range(problem.dim)]
        phys_jet.record(tape, x_cols, xdot_cols)
        l_phys = _weighted_mean_square(
            residual_columns(problem, colloc.t, colloc.u, x_cols, xdot_cols), eta_w)
        parts["phys"] = float(l_phys.value)
        term = run.gamma_phys * l_phys
        total = term if total is None else total + term
    return float(total.value), parts["data"], parts["phys"], parameter_gradient(net, total)


def train(net: Network, problem: OdeProblem, dataset: PointSet, colloc: PointSet,
          run: TrainingRun):
    """Minimize gamma_data * L_data + gamma_phys * L_phys in place.

    Returns (net, loss_history) with one (total, data, phys) triple per
    completed epoch.
    """
    run.validate()
    layout = infer_layout(net, problem)
    eta_w = eta_weights(run.eta, colloc.t) if colloc is not None and len(colloc) else None
    jets = _training_jets(net, layout, dataset, colloc, run)

    def evaluate():
        return _loss_and_grad(net, problem, dataset, colloc, run, layout, eta_w, jets)

    return net, optimize(net, run, evaluate)


def optimize(net: Network, run: TrainingRun, evaluate):
    """Minimize with ``run.optimizer`` in place; ``evaluate()`` returns
    (total, data, phys, flat gradient) at the current parameters.

    Returns one (total, data, phys) triple per completed epoch.
    """
    history = []
    if run.optimizer == "adam":
        _run_adam(net, run, evaluate, history)
    else:
        _run_lbfgs(net, run, evaluate, history)
    return history


def _run_adam(net, run, evaluate, history):
    theta = flatten_params(net)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for epoch in range(run.epochs):
        total, ld, lp, grad = evaluate()
        if not np.isfinite(total):
            raise DivergenceError(epoch)
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(epoch, "gradient")
        history.append((total, ld, lp))
        theta, m, v = adam_step(theta, grad, m, v, epoch + 1, run.lr)
        set_params(net, theta)


def adam_step(theta, grad, m, v, step, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update; returns (theta, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def _run_lbfgs(net, run, evaluate, history):
    """Limited-memory BFGS with Armijo backtracking, full batch."""
    theta = flatten_params(net)
    total, ld, lp, grad = evaluate()
    if not np.isfinite(total):
        raise DivergenceError(0)
    if not np.all(np.isfinite(grad)):
        raise DivergenceError(0, "gradient")
    pairs = []          # (s, y, rho = 1 / (y . s)), oldest first
    gamma = None        # the initial Hessian scale (s . y) / (y . y) of the newest pair
    for epoch in range(run.epochs):
        history.append((total, ld, lp))
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if pairs:
            q *= gamma
        for a, (s, y, rho) in zip(reversed(alphas), pairs):
            b = rho * (y @ q)
            q += (a - b) * s
        direction = -q
        slope = grad @ direction
        if slope >= 0:   # not a descent direction; restart from steepest descent
            direction = -grad
            slope = -(grad @ grad)
            pairs = []
        step = 1.0
        accepted = False
        for _ in range(30):
            set_params(net, theta + step * direction)
            new_total, new_ld, new_lp, new_grad = evaluate()
            if np.isfinite(new_total) and new_total <= total + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            set_params(net, theta)   # converged (or stuck): keep current iterate
            history.extend([(total, ld, lp)] * (run.epochs - len(history)))
            break
        s_vec = step * direction
        y_vec = new_grad - grad
        sy = s_vec @ y_vec
        if sy > 1e-12:
            pairs.append((s_vec, y_vec, 1.0 / (y_vec @ s_vec)))
            gamma = sy / (y_vec @ y_vec)
            if len(pairs) > LBFGS_MEMORY:
                pairs.pop(0)
        theta = theta + s_vec
        total, ld, lp, grad = new_total, new_ld, new_lp, new_grad
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(epoch, "gradient")


def export_loss_history(history, path):
    """CSV `epoch,loss_total,loss_data,loss_phys`."""
    write_table(path, ("epoch", "loss_total", "loss_data", "loss_phys"),
                ((epoch, *losses) for epoch, losses in enumerate(history)))
