"""Assembly of the two benchmark experiments from a config.

This is where control-interval chaining for the pendulum lives: within
the library a network or certificate always sees a single constant u.
"""

from __future__ import annotations

import math

import numpy as np

# certify_config is not used here: it is re-exported for callers of this module
from .config import ExperimentConfig, build_training_run, certify_config
from .network import Network, init_network
from .ode import (REFERENCE_STEP, ConfigurationError, OdeProblem, PointSet, decay_1d,
                  inverted_pendulum, sample_collocation, solve_reference)
from .table import read_table, write_table
from .train import anchor_dataset, train

SCHEDULE_INTERVALS = 50
SCHEDULE_T_TOTAL = 4.0
SCHEDULE_X0 = (0.15, 0.0, 0.0, 0.0)


def build_problem(cfg: ExperimentConfig) -> OdeProblem:
    return decay_1d() if cfg.preset == "decay1d" else inverted_pendulum()


def build_network(cfg: ExperimentConfig, problem: OdeProblem) -> Network:
    if cfg.preset == "decay1d":
        layout = ["t"]          # fixed initial value: the net maps time only
        n_in = 1
    else:
        layout = ["t", "x0", "u"]
        n_in = 1 + problem.dim + problem.control_dim
    return init_network([n_in, *cfg.hidden, problem.dim], seed=cfg.seed,
                        meta={"inputs": layout, "preset": cfg.preset})


def build_dataset(cfg: ExperimentConfig, problem: OdeProblem, seed=None) -> PointSet:
    """Supervised records: (for the pendulum) reference samples, then t=0 anchors.

    Each sample's target comes from ``ceil(t_max / REFERENCE_STEP)`` equal
    sixth-order steps to its own time t <= t_max, the end of the time box.
    """
    seed = cfg.seed if seed is None else seed
    if cfg.preset == "decay1d":
        return anchor_dataset([[2.0]])
    points = sample_collocation(problem, cfg.data_count, seed + 1)
    # one batched pass on a per-row grid: row i takes the same steps to t_i as
    # a serial solve, so the targets equal a serial solve's bit for bit
    steps = math.ceil(problem.box.t[1] / REFERENCE_STEP)
    grid = np.linspace(0.0, points.t, steps + 1)
    targets = solve_reference(problem, points.x0, points.u, grid).states[-1]
    # the reference rows, then a t = 0 anchor mapping each x0 to itself
    return PointSet(np.concatenate([points.t, np.zeros(len(points))]),
                    np.vstack([points.x0, points.x0]), np.vstack([points.u, points.u]),
                    np.vstack([targets, points.x0]))


def train_preset(cfg: ExperimentConfig):
    """End-to-end training for a preset; returns (net, problem, history)."""
    problem = build_problem(cfg)
    net = build_network(cfg, problem)
    dataset = build_dataset(cfg, problem)
    colloc = sample_collocation(problem, cfg.colloc_count, cfg.seed)
    run = build_training_run(cfg)
    net, history = train(net, problem, dataset, colloc, run)
    return net, problem, history


# -- pendulum control schedule --------------------------------------------
#
# We ship a stabilizing state-feedback schedule computed here so the
# benchmark is reproducible end to end without external inputs.

# LQR gains for the linearized cart-pole (Q = diag(5,1,0.5,0.5), R = 0.5);
# the cart gains are negative because the system is non-minimum phase
_FEEDBACK_GAINS = (30.4348589, 7.93820539, -1.0, -2.28141715)


def make_pendulum_schedule():
    """Piecewise-constant controls and interval initial values from ``SCHEDULE_X0``.

    u is sampled from clamped LQR state feedback at each interval start;
    the next interval's x0 comes from a fixed-step sixth-order
    :func:`solve_reference` pass through the interval in equal steps no
    longer than ``REFERENCE_STEP``.
    Returns a list of (t_start, x0 (4,), u) tuples.
    """
    problem = inverted_pendulum()
    kp, kd, ks, ksd = _FEEDBACK_GAINS
    dt = SCHEDULE_T_TOTAL / SCHEDULE_INTERVALS
    x = np.asarray(SCHEDULE_X0, dtype=float)
    rows = []
    for i in range(SCHEDULE_INTERVALS):
        u = -(kp * x[0] + kd * x[1] + ks * x[2] + ksd * x[3])
        u = float(np.clip(u, -15.0, 15.0))
        rows.append((i * dt, x.copy(), u))
        grid = np.linspace(0.0, dt, math.ceil(dt / REFERENCE_STEP) + 1)
        traj = solve_reference(problem, x, [u], grid)
        x = traj.states[-1]
    return rows


SCHEDULE_COLUMNS = ("interval", "t_start", "phi", "phidot", "s", "sdot", "u")


def export_schedule(rows, path):
    """CSV `interval,t_start,phi,phidot,s,sdot,u`."""
    write_table(path, SCHEDULE_COLUMNS,
                ((i, t_start, *x0, u) for i, (t_start, x0, u) in enumerate(rows)))


def load_schedule(path):
    idx, data = read_table(path, SCHEDULE_COLUMNS)
    if len(data) != SCHEDULE_INTERVALS:
        raise ConfigurationError(f"{path}: {len(data)} rows, a schedule has {SCHEDULE_INTERVALS}")
    x0 = [idx[c] for c in SCHEDULE_COLUMNS[2:6]]
    return [(float(r[idx["t_start"]]), r[x0], float(r[idx["u"]])) for r in data]
