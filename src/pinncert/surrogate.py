"""Learned error indicator: a cheap network wrapping the certified bound.

The indicator (E_NN) is not a certificate.  It is trained on certified
totals with an asymmetric loss so that underestimation costs more than
overestimation, which pushes the fit to a smooth upper wrapper.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tape, Var
# `bound` stays importable here: perfbench's tracer test wraps it at this import site
from .certify import Certifier, CertifyConfig, bound  # noqa: F401
from .network import (MlpJet, Network, assemble_inputs, forward, infer_layout,
                      init_network, parameter_gradient)
from .ode import ConfigurationError, OdeProblem, PointSet, sample_collocation
from .table import point_columns, read_table, write_table
from .train import TrainingRun, optimize


def generate_surrogate_data(net: Network, problem: OdeProblem, count, seed,
                            config: CertifyConfig = None, *,
                            certifier: Certifier = None) -> PointSet:
    """Certify ``count`` seeded random domain points, with their totals as targets,
    with ``certifier`` if given, else with a new Certifier built from ``config``."""
    if certifier is None:
        certifier = Certifier(net, problem, config)
    points = sample_collocation(problem, count, seed)
    points.target = np.array([c.total for c in certifier.certify(points.t, points.x0, points.u)])
    return points


def asymmetric_loss(pred, target, under_weight):
    """Mean squared error, each term scaled by ``under_weight`` where pred < target.

    Works on arrays and tape ``Var``s; no gradient flows through the weights.
    """
    _check_under_weight(under_weight)
    diff = pred - target
    w = np.where((pred.value if isinstance(pred, Var) else pred) < target, under_weight, 1.0)
    return (w * diff * diff).mean()


def _check_under_weight(under_weight):
    if not 1 <= under_weight < math.inf:
        raise ConfigurationError(f"under_weight must be finite and >= 1, got {under_weight}")


def train_error_net(dataset: PointSet, arch, run: TrainingRun, under_weight=1000.0) -> Network:
    """Fit a scalar network to the certified totals with asymmetric loss.

    ``arch`` is the hidden-layer spec, e.g. [4, 4]; the input layout matches
    the PINN (t[, x0][, u]) inferred from the dataset columns.
    """
    if len(dataset) == 0 or dataset.target is None:
        raise ConfigurationError("the surrogate dataset has no rows or no targets")
    _check_under_weight(under_weight)
    run.validate()

    layout = ["t"]
    if dataset.x0.shape[1] and np.ptp(dataset.x0, axis=0).max() > 0:
        layout.append("x0")
    if dataset.u.shape[1]:
        layout.append("u")
    X = assemble_inputs(layout, dataset.t, dataset.x0, dataset.u)
    y = dataset.target
    net = init_network([X.shape[1], *arch, 1], seed=run.seed,
                       meta={"inputs": layout, "kind": "error_indicator"})

    jet = MlpJet(net, X)

    def evaluate():
        tape = Tape()
        pred = tape.var(jet.forward()[0][:, 0])
        jet.record(tape, [pred])
        loss = asymmetric_loss(pred, y, under_weight)
        grad = parameter_gradient(net, loss)
        return float(loss.value), float(loss.value), 0.0, grad

    optimize(net, run, evaluate)
    return net


def evaluate_error_net(net: Network, t, x0, u):
    """E_NN at a batch of query points (one (x0, u), or one row per time)."""
    return forward(net, assemble_inputs(infer_layout(net), t, x0, u))[:, 0]


def export_surrogate_dataset(dataset: PointSet, path):
    """CSV `t,x0_1..x0_n[,u],e_target`."""
    write_table(path, [*point_columns(dataset.x0.shape[1], dataset.u.shape[1]), "e_target"],
                np.column_stack([dataset.t, dataset.x0, dataset.u, dataset.target]))


def load_surrogate_dataset(path, dim, control_dim=0) -> PointSet:
    point = point_columns(dim, control_dim)
    idx, rows = read_table(path, [*point, "e_target"])
    return PointSet(rows[:, idx["t"]], rows[:, [idx[c] for c in point[1:1 + dim]]],
                    rows[:, [idx[c] for c in point[1 + dim:]]], rows[:, idx["e_target"]])
