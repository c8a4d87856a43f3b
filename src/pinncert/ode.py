"""ODE problems, the two benchmark systems, and fixed-step reference solvers.

Reference trajectories are for validation only; certificates never touch
them.  Right-hand sides are written with the dispatching math functions
from :mod:`.autodiff`, so the same definition serves plain evaluation,
forward-mode Jacobians, and tape-recorded training batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import cos, sin


class NumericError(RuntimeError):
    """A computation produced a non-finite value (CLI exit code 3)."""


class BlowUpError(NumericError):
    """Integration produced a non-finite state."""

    def __init__(self, t):
        super().__init__(f"non-finite state encountered at t={t}")
        self.t = t


class ConfigurationError(ValueError):
    pass


@dataclass
class Box:
    """Sampling domain: time range, per-coordinate x0 ranges, u ranges."""

    t: tuple
    x0: list
    u: list = field(default_factory=list)


@dataclass
class OdeProblem:
    name: str
    dim: int
    rhs: callable            # (t, x, u) -> sequence of dim components
    t_final: float
    box: Box
    jacobian_x: callable = None   # analytic (t, x, u) -> (dim, dim), optional
    linear_part: np.ndarray = None
    control_dim: int = 0
    exact_solution: callable = None   # (t, x0) -> state, when known

    def rhs_array(self, t, x, u=()):
        return np.array(self.rhs(t, x, u), dtype=float)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0) and len(self.times) > 1:
            raise ValueError("times must be strictly increasing")
        if self.states.shape[0] != len(self.times):
            raise ValueError("states row count must match times")


def decay_1d() -> OdeProblem:
    """Scalar linear decay x' = -2x on [0, 2] with fixed x0 = 2."""

    def rhs(t, x, u):
        return [-2.0 * x[0]]

    return OdeProblem(
        name="decay_1d",
        dim=1,
        rhs=rhs,
        t_final=2.0,
        box=Box(t=(0.0, 2.0), x0=[(2.0, 2.0)]),
        jacobian_x=lambda t, x, u: np.array([[-2.0]]),
        linear_part=np.array([[-2.0]]),
        exact_solution=lambda t, x0: np.array([x0[0] * np.exp(-2.0 * t)]),
    )


# pendulum-on-cart constants
PENDULUM_M = 0.3553
PENDULUM_A = 0.42
PENDULUM_J = 0.0361
PENDULUM_D = 0.005
GRAVITY = 9.81


def inverted_pendulum(friction=PENDULUM_D) -> OdeProblem:
    """Pendulum on a cart, state (phi, phidot, s, sdot), control u = cart accel.

    ``friction`` is exposed so energy-conservation tests can switch it off.
    """
    m, a, j, g = PENDULUM_M, PENDULUM_A, PENDULUM_J, GRAVITY
    d = friction
    denom = j + m * a * a

    def rhs(t, x, u):
        phi, phidot, s, sdot = x[0], x[1], x[2], x[3]
        uu = u[0] if len(u) else 0.0
        return [
            phidot,
            (m * g * a * sin(phi) - d * phidot + m * a * cos(phi) * uu) / denom,
            sdot,
            uu + 0.0 * s,   # keep batch shape when s is a batch column
        ]

    def jac(t, x, u):
        phi = x[0]
        uu = u[0] if len(u) else 0.0
        out = np.zeros((4, 4))
        out[0, 1] = 1.0
        out[1, 0] = (m * g * a * np.cos(phi) - m * a * np.sin(phi) * uu) / denom
        out[1, 1] = -d / denom
        out[2, 3] = 1.0
        return out

    return OdeProblem(
        name="inverted_pendulum",
        dim=4,
        rhs=rhs,
        t_final=0.1,
        box=Box(t=(0.0, 0.1),
                x0=[(-np.pi, np.pi), (-6.0, 6.0), (-1.0, 1.0), (-3.0, 3.0)],
                u=[(-15.0, 15.0)]),
        jacobian_x=jac,
        control_dim=1,
    )


def _check_state(x, t):
    if not np.all(np.isfinite(x)):
        raise BlowUpError(t)


def solve_reference(problem: OdeProblem, x0, u=(), t_grid=None,
                    method="rk4") -> Trajectory:
    """Fixed-step integration on the given grid (forward Euler or RK4)."""
    if method not in ("forward_euler", "rk4"):
        raise ConfigurationError(f"unknown method {method!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0 or (len(t_grid) > 1 and np.any(np.diff(t_grid) <= 0)):
        raise ConfigurationError("t_grid must start at 0 and increase strictly")
    u = np.atleast_1d(np.asarray(u, dtype=float)) if np.ndim(u) or np.size(u) else np.zeros(0)
    x = np.asarray(x0, dtype=float).copy()
    states = [x.copy()]
    f = problem.rhs_array
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        h = t1 - t0
        if method == "forward_euler":
            x = x + h * f(t0, x, u)
        else:
            k1 = f(t0, x, u)
            k2 = f(t0 + h / 2, x + h / 2 * k1, u)
            k3 = f(t0 + h / 2, x + h / 2 * k2, u)
            k4 = f(t1, x + h * k3, u)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        _check_state(x, t1)
        states.append(x.copy())
    return Trajectory(times=t_grid, states=np.array(states))


def export_trajectory(traj: Trajectory, path, u=None):
    """CSV with header t,x1,...,xn[,u], 17-significant-digit floats."""
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n))
    if u is not None:
        header += ",u"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, t in enumerate(traj.times):
            row = [t] + list(traj.states[i])
            if u is not None:
                row.append(u[i] if np.ndim(u) else u)
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
