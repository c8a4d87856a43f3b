"""Learned error indicator: a cheap network wrapping the certified bound.

The indicator (E_NN) is not a certificate.  It is trained on certified
totals with an asymmetric loss so that underestimation costs more than
overestimation, which pushes the fit to a smooth upper wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
from .certify import Certifier, CertifyConfig, bound
from .network import (Network, assemble_inputs, forward, infer_layout, init_network,
                      parameter_gradient)
from .ode import ConfigurationError, NumericError, OdeProblem, sample_collocation
from .table import point_columns, read_table, write_table
from .train import TrainingRun, optimize


@dataclass
class SurrogateDataset:
    """Generated (t, x0[, u]) points with certified bound totals as targets."""

    t: np.ndarray
    x0: np.ndarray
    u: np.ndarray
    targets: np.ndarray
    seed: int

    def __len__(self):
        return len(self.t)


def generate_surrogate_data(net: Network, problem: OdeProblem, count, seed,
                            config: CertifyConfig = None, *,
                            certifier: Certifier = None) -> SurrogateDataset:
    """Certify ``count`` seeded random domain points and record the totals,
    with ``certifier`` if given, else with a new Certifier built from ``config``."""
    if certifier is None:
        certifier = Certifier(net, problem, config)
    colloc = sample_collocation(problem, count, seed)
    targets = np.empty(count)
    for i in range(count):
        try:
            targets[i] = bound(certifier.trajectory(colloc.x0[i], colloc.u[i]),
                               colloc.t[i]).total
        except (ValueError, NumericError) as exc:
            # keep the exit-code class: numeric failures stay numeric, the rest is input
            kind = NumericError if isinstance(exc, NumericError) else ConfigurationError
            raise kind(
                f"certificate failed at generated point {i} "
                f"(t={colloc.t[i]}, x0={colloc.x0[i]}, u={colloc.u[i]}): {exc}") from exc
    return SurrogateDataset(t=colloc.t, x0=colloc.x0, u=colloc.u,
                            targets=targets, seed=seed)


def asymmetric_loss(pred, target, under_weight):
    """Mean squared error, each term scaled by ``under_weight`` where pred < target.

    Works on arrays and tape ``Var``s; no gradient flows through the weights.
    """
    if under_weight < 1:
        raise ConfigurationError("under_weight must be >= 1")
    diff = pred - target
    w = np.where((pred.value if isinstance(pred, Var) else pred) < target, under_weight, 1.0)
    return (w * diff * diff).mean()


def train_error_net(dataset: SurrogateDataset, arch, run: TrainingRun,
                    under_weight=1000.0, problem: OdeProblem = None) -> Network:
    """Fit a scalar network to the certified totals with asymmetric loss.

    ``arch`` is the hidden-layer spec, e.g. [4, 4]; the input layout matches
    the PINN (t[, x0][, u]) inferred from the dataset columns.
    """
    if len(dataset) == 0:
        raise ConfigurationError("empty surrogate dataset")
    if under_weight < 1:
        raise ConfigurationError("under_weight must be >= 1")
    run.validate()

    layout = ["t"]
    if dataset.x0.shape[1] and np.ptp(dataset.x0, axis=0).max() > 0:
        layout.append("x0")
    if dataset.u.shape[1]:
        layout.append("u")
    X = assemble_inputs(layout, dataset.t, dataset.x0, dataset.u)
    y = dataset.targets
    net = init_network([X.shape[1], *arch, 1], activation="tanh", seed=run.seed,
                       meta={"inputs": layout, "kind": "error_indicator"})

    def evaluate():
        pred = forward(net, X, Tape())[:, 0]
        loss = asymmetric_loss(pred, y, under_weight)
        grad = parameter_gradient(net, loss)
        return float(loss.value), float(loss.value), 0.0, grad

    optimize(net, run, evaluate)
    return net


def evaluate_error_net(net: Network, t, x0, u):
    """E_NN at a batch of query points (one (x0, u), or one row per time)."""
    return forward(net, assemble_inputs(infer_layout(net), t, x0, u))[:, 0]


def export_surrogate_dataset(dataset: SurrogateDataset, path):
    """CSV `t,x0_1..x0_n[,u],e_target`."""
    write_table(path, [*point_columns(dataset.x0.shape[1], dataset.u.shape[1]), "e_target"],
                np.column_stack([dataset.t, dataset.x0, dataset.u, dataset.targets]))


def load_surrogate_dataset(path, dim, control_dim=0, seed=None) -> SurrogateDataset:
    point = point_columns(dim, control_dim)
    idx, rows = read_table(path, [*point, "e_target"])
    return SurrogateDataset(t=rows[:, idx["t"]], x0=rows[:, [idx[c] for c in point[1:1 + dim]]],
                            u=rows[:, [idx[c] for c in point[1 + dim:]]],
                            targets=rows[:, idx["e_target"]], seed=seed)
