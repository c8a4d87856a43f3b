"""ODE problems, the two benchmark systems, domain sampling, and the reference solver.

Reference trajectories are for validation only; certificates never touch
them.  They come from Butcher's fixed-step seven-stage sixth-order
Runge-Kutta method, by default at steps of ``REFERENCE_STEP``.  Right-hand
sides are written with the dispatching math functions from
:mod:`.autodiff`, so the same definition serves plain evaluation,
forward-mode Jacobians, and tape-recorded training batches.

Batch columns: ``rhs(t, x, u)`` and ``jacobian_x(t, x, u)`` take x and u
either as one point, x (dim,) and u (control_dim,), or as B points in
columns, x (dim, B) and u (control_dim, B); one reference trajectory passes
the rhs its point as lists of Python floats.  The rhs returns dim components
of the batch shape; the Jacobian returns (dim, dim) for one point and
(dim, dim, B) for columns, and a constant (dim, dim) matrix stands for
every column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import cos, sin


# Default reference step.  On pendulum box points solved to t = 0.1 the
# sixth-order step at h = 2e-3 is within 1e-14 of a 20-digit solution, and
# halving it moves the states by roundoff only.
REFERENCE_STEP = 2e-3


class NumericError(RuntimeError):
    """A computation produced a non-finite value (CLI exit code 3)."""


class BlowUpError(NumericError):
    """Integration produced a non-finite state."""

    def __init__(self, t):
        super().__init__(f"non-finite state encountered at t={t}")
        self.t = t


class ConfigurationError(ValueError):
    pass


def require_int(key, value, minimum):
    """Raise ConfigurationError naming ``key`` unless ``value`` is an int >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConfigurationError(f"{key} must be an int >= {minimum}, got {value!r}")


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
    # (t, x, u) -> dim components; one reference trajectory passes x and u as lists
    # of Python floats, a batch as columns x (dim, B) and u (control_dim, B)
    rhs: callable
    t_final: float
    box: Box
    jacobian_x: callable = None   # analytic (t, x, u) -> (dim, dim[, B]) or constant (dim, dim)
    linear_part: np.ndarray = None    # constant df/dx; the rate is its log-norm
    control_dim: int = 0
    # (t, x0) -> the dim components of the state, when known; x0 as in rhs.  One
    # call serves every time: t (T,) with x0 (dim,) gives components of shape
    # (T,), and t (T, 1) with batch columns x0 (dim, B) gives (T, B)
    exact_solution: callable = None

    def rhs_array(self, t, x, u=()):
        return np.array(self.rhs(t, x, u), dtype=float)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times, axis=0) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.states.shape[0] != len(self.times):
            raise ValueError("states row count must match times")


@dataclass
class PointSet:
    """(t, x0, u) rows, with an optional ``target`` per row: states (N, n) for
    a PINN's data term, certified totals (N,) for the error surrogate."""

    t: np.ndarray               # (N,)
    x0: np.ndarray              # (N, n)
    u: np.ndarray = None        # (N, k); None gives no controls, k = 0
    target: np.ndarray = None

    def __post_init__(self):
        if self.u is None:
            self.u = np.zeros((len(self.t), 0))

    def __len__(self):
        return len(self.t)


def sample_collocation(problem: OdeProblem, count, seed) -> PointSet:
    """Uniform i.i.d. samples of (t, x0[, u]) over the problem's domain box."""
    require_int("count", count, 1)
    box = problem.box
    if box is None or not box.x0:
        raise ConfigurationError("problem has no sampling domain box")
    rng = np.random.default_rng(seed)
    t = rng.uniform(box.t[0], box.t[1], size=count)
    x0 = np.column_stack([rng.uniform(lo, hi, size=count) for lo, hi in box.x0])
    u = np.column_stack([rng.uniform(lo, hi, size=count) for lo, hi in box.u]) if box.u else None
    return PointSet(t, x0, u)


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
        out = np.zeros((4, 4, *np.shape(phi)))
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


def _first_nonfinite_time(x, t):
    """Earliest of the times ``t`` at which a state column of ``x`` is non-finite."""
    bad = ~np.isfinite(x).all(axis=0)
    return float(np.min(np.broadcast_to(t, bad.shape)[bad]))


def _step(rhs, t0, t1, xs, u):
    """One step of Butcher's sixth-order method from the blocks ``xs`` at t0 to t1."""
    h = t1 - t0
    k1 = rhs(t0, xs, u)
    k2 = rhs(t0 + h / 3, [x + h * (a / 3) for x, a in zip(xs, k1)], u)
    k3 = rhs(t0 + 2 * h / 3, [x + h * (2 / 3 * b) for x, b in zip(xs, k2)], u)
    k4 = rhs(t0 + h / 3, [x + h * (a / 12 + b / 3 - c / 12)
                          for x, a, b, c in zip(xs, k1, k2, k3)], u)
    k5 = rhs(t0 + h / 2, [x + h * (-a / 16 + 9 / 8 * b - 3 / 16 * c - 3 / 8 * d)
                          for x, a, b, c, d in zip(xs, k1, k2, k3, k4)], u)
    k6 = rhs(t0 + h / 2, [x + h * (9 / 8 * b - 3 / 8 * c - 3 / 4 * d + e / 2)
                          for x, b, c, d, e in zip(xs, k2, k3, k4, k5)], u)
    k7 = rhs(t1, [x + h * (9 / 44 * a - 9 / 11 * b + 63 / 44 * c + 18 / 11 * d - 16 / 11 * f)
                  for x, a, b, c, d, f in zip(xs, k1, k2, k3, k4, k6)], u)
    return [x + h * (11 / 120 * (a + g) + 27 / 40 * (c + d) - 4 / 15 * (e + f))
            for x, a, c, d, e, f, g in zip(xs, k1, k3, k4, k5, k6, k7)]


def solve_reference(problem: OdeProblem, x0, u=(), t_grid=None) -> Trajectory:
    """Fixed-step integration on the given grid with Butcher's seven-stage
    sixth-order Runge-Kutta method (Hairer, Norsett & Wanner, Solving ODEs I,
    section II.5).

    One trajectory: x0 (d,), u (m,), t_grid (T,); states are (T, d).  A batch
    of B trajectories: x0 (B, d), u (B, m), and t_grid either shared (T,) or
    per row (T, B); states are (T, B, d).  A single trajectory passes the rhs
    its d components, its m controls and its times as Python floats; a step
    that raises ArithmeticError (or TypeError, for a complex power) is
    repeated in numpy scalars, so a pole gives inf and a state the same
    numbers as in a batch.  A batch passes one (d, B) block, one column per row.
    A non-finite state raises :class:`BlowUpError` with the earliest grid time
    at which a row blew up.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != problem.dim:
        raise ConfigurationError(f"x0 must be ({problem.dim},) or (B, {problem.dim}); "
                                 f"got shape {x0.shape}")
    u = np.asarray(u, dtype=float)
    u = np.zeros((*x0.shape[:-1], 0)) if u.size == 0 else np.atleast_1d(u)
    if u.shape[:-1] != x0.shape[:-1]:
        raise ConfigurationError(f"u rows {u.shape[:-1]} do not match x0 rows {x0.shape[:-1]}")
    if t_grid.ndim == 0 or t_grid.size == 0 or t_grid.shape[1:] not in ((), x0.shape[:-1]):
        raise ConfigurationError(f"t_grid must be (T,) or (T, B) with B the x0 rows; "
                                 f"got shape {t_grid.shape} for x0 {x0.shape}")
    if not np.isfinite(t_grid).all():
        raise ConfigurationError(f"t_grid must be finite, got {t_grid[~np.isfinite(t_grid)][0]}")
    if np.any(t_grid[0] != 0.0) or np.any(np.diff(t_grid, axis=0) <= 0):
        raise ConfigurationError("t_grid must start at 0 and increase strictly")
    states = np.empty((len(t_grid), *x0.shape))
    states[0] = x0
    # a blow-up is reported as BlowUpError, not as numpy warnings on the way there
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if x0.ndim == 1:
            # Python float arithmetic is about three times cheaper than numpy scalars'
            xs, u, times, f64 = x0.tolist(), u.tolist(), t_grid.tolist(), np.float64
            for i, (t0, t1) in enumerate(zip(times[:-1], times[1:]), 1):
                try:
                    x1 = _step(problem.rhs, t0, t1, xs, u)
                    finite = all(map(math.isfinite, x1))
                except (ArithmeticError, TypeError):
                    # on floats x / 0.0 and an overflowing ** raise, and a negative base
                    # to a fractional power is complex: numpy scalars give inf or nan
                    x1 = _step(problem.rhs, f64(t0), f64(t1), [*map(f64, xs)], [*map(f64, u)])
                    finite = all(map(math.isfinite, x1))
                if not finite:
                    raise BlowUpError(t1)
                states[i] = xs = x1
        else:
            xs, u = [x0.T], u.T
            rhs = (lambda t, blocks, u: [problem.rhs_array(t, blocks[0], u)])
            for i, (t0, t1) in enumerate(zip(t_grid[:-1], t_grid[1:]), 1):
                xs = _step(rhs, t0, t1, xs, u)
                states[i] = xs[0].T
                if not np.isfinite(states[i]).all():
                    raise BlowUpError(_first_nonfinite_time(states[i].T, t1))
    return Trajectory(times=t_grid, states=states)
