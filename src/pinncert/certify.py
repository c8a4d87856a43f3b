"""A posteriori error certificates for trained ODE networks.

Everything here is computable from the trained network and the ODE alone:
the residual, a smooth majorant delta, estimated growth constants (L via
Jacobian singular values, or the spectral abscissa for linear systems), a
curvature bound K for the quadrature remainder, and the resulting certified
upper bound split into E_init + I_hat + E_Int.

Reference solutions appear only in :func:`actual_error`, which exists for
validation plots and is never consulted by the bound itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Dual
from .network import Network, assemble_inputs, forward, infer_layout, time_tangent
from .ode import (REFERENCE_STEP, CollocationSet, ConfigurationError, NumericError,
                  OdeProblem, sample_collocation, solve_reference)
from .table import write_table


class DomainError(ValueError):
    pass


class DegenerateSmoothingError(NumericError):
    """K estimation hit a non-finite second derivative; use mu > 0."""


class ResidualOverflowError(NumericError):
    """The residual majorant delta is not finite on the time horizon."""


# -- residual -------------------------------------------------------------

def residual_batch_columns(net: Network, problem: OdeProblem, *, t, x0, u):
    """Residual components at a batch of (t, x0, u) rows, one column of
    length B per state dimension; ``x0`` and ``u`` may be one row that every
    time repeats."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    X = assemble_inputs(infer_layout(net, problem), t, x0, u)
    out = forward(net, Dual(X, time_tangent(X)))
    y, ydot = out.value, out.derivative
    return residual_columns(problem, t, u, [y[:, i] for i in range(problem.dim)],
                            [ydot[:, i] for i in range(problem.dim)])


def residual_columns(problem: OdeProblem, t, u, x_cols, xdot_cols):
    """R = d/dt x - f(t, x, u), componentwise, from the state's columns and
    their time derivatives: arrays, or a tape's variables (training)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    u_cols = [np.broadcast_to(u[..., j], t.shape) for j in range(u.shape[-1])]
    f_cols = problem.rhs(t, x_cols, u_cols)
    return [xdot_cols[i] - f_cols[i] for i in range(problem.dim)]


@dataclass
class ResidualFn:
    """t -> R(t) = d/dt phihat - f(t, phihat) for fixed (net, problem, x0, u); vectorized."""

    net: Network
    problem: OdeProblem
    x0: np.ndarray
    u: np.ndarray

    def __call__(self, t):
        return np.column_stack(residual_batch_columns(self.net, self.problem, t=t,
                                                      x0=self.x0, u=self.u))

    def norms(self, t):
        # an overflowing norm is reported by estimate_K, which names the trajectory
        with np.errstate(over="ignore"):
            return np.linalg.norm(self(t), axis=1)


def mean_residual_norm(net: Network, problem: OdeProblem, colloc: CollocationSet):
    """Average residual norm over the collocation set (each point's own x0, u)."""
    if len(colloc) == 0:
        raise ConfigurationError("empty collocation set")
    cols = residual_batch_columns(net, problem, t=colloc.t, x0=colloc.x0, u=colloc.u)
    return float(np.mean(np.linalg.norm(np.column_stack(cols), axis=1)))


@dataclass
class SmoothDelta:
    """delta(t) = sqrt(||R(t)||^2 + mu^2): smooth majorant of the residual norm."""

    residual_fn: ResidualFn
    mu: float

    def __post_init__(self):
        if self.mu < 0:
            raise ConfigurationError("mu must be non-negative")

    def __call__(self, t):
        r = self.residual_fn.norms(np.atleast_1d(t))
        out = np.sqrt(r * r + self.mu * self.mu)
        return float(out[0]) if np.ndim(t) == 0 else out


# -- growth constants -----------------------------------------------------

def largest_singular_value(j):
    """sigma_max via the largest eigenvalue of J^T J (numpy's symmetric solver)."""
    j = np.asarray(j, dtype=float)
    eigs = np.linalg.eigvalsh(j.T @ j)
    return math.sqrt(max(float(np.max(eigs)), 0.0))


def rhs_jacobian(problem: OdeProblem, t, x, u):
    """d f / d x: (d, d) at one point x (d,), (d, d, B) on batch columns x (d, B).

    Analytic if provided (a constant (d, d) result stands for every column),
    else forward mode with one ``Dual`` per state column over the whole batch.
    """
    x = np.asarray(x, dtype=float)
    n = problem.dim
    shape = (n, n, *x.shape[1:])
    if problem.jacobian_x is not None:
        jac = np.asarray(problem.jacobian_x(t, x, u), dtype=float)
        if jac.ndim < len(shape):       # a constant matrix for every column
            jac = jac[..., np.newaxis]
        return np.broadcast_to(jac, shape)
    zero, one = np.zeros(x.shape[1:]), np.ones(x.shape[1:])
    jac = np.empty(shape)
    for j in range(n):
        x_dual = [Dual(x[i], one if i == j else zero) for i in range(n)]
        f = problem.rhs(t, x_dual, u)
        for i in range(n):
            jac[i, j] = f[i].derivative if isinstance(f[i], Dual) else 0.0
    return jac


def estimate_lipschitz(problem: OdeProblem, colloc: CollocationSet):
    """L = max over collocation points of sigma_max(df/dx)."""
    if len(colloc) == 0:
        raise ConfigurationError("empty collocation set")
    # one Jacobian call on batch columns, batch axis moved first: (N, d, d)
    jac = np.moveaxis(rhs_jacobian(problem, colloc.t, colloc.x0.T, colloc.u.T), -1, 0)
    bad = ~np.isfinite(jac).all(axis=(1, 2))
    if bad.any():
        raise DomainError(f"non-finite Jacobian at collocation point {int(np.argmax(bad))}")
    # one stacked symmetric eigensolve: sigma_max^2 = lambda_max(J^T J) per point
    eigs = np.linalg.eigvalsh(np.swapaxes(jac, 1, 2) @ jac)
    return math.sqrt(max(float(np.max(eigs)), 0.0))


def spectral_abscissa(a):
    """Largest real part among the eigenvalues of A."""
    return float(np.max(np.real(np.linalg.eigvals(np.asarray(a, dtype=float)))))


DEFAULT_SAFETY_FACTOR = 1.5
COND_LIMIT = 1e12       # eigenvector conditioning limit for beta on the linear route


def estimate_K(delta, L, t_end, grid_points=200, safety_factor=DEFAULT_SAFETY_FACTOR):
    """Bound on |d^2/ds^2 (e^{-Ls} delta(s))| over [0, t_end].

    Central second differences on a uniform grid, scaled by a safety
    factor.  The stencil reaches slightly outside [0, t_end] at the ends;
    the network extends smoothly so this is well defined.  A non-finite
    delta on the grid raises :class:`ResidualOverflowError`; a finite delta
    with a non-finite second difference raises
    :class:`DegenerateSmoothingError`.
    """
    if grid_points < 10:
        raise ConfigurationError("grid_points must be >= 10")
    if t_end == 0.0:
        return 0.0
    s = np.linspace(0.0, t_end, grid_points + 1)
    h = t_end / (10.0 * grid_points)

    def g(x):
        return np.exp(-L * x) * np.atleast_1d(delta(x))

    mid = np.atleast_1d(delta(s))
    bad = ~np.isfinite(mid)
    if bad.any():
        i = int(np.argmax(bad))
        raise ResidualOverflowError(f"residual majorant delta(s) = {mid[i]} at s = {s[i]}: "
                                    "the residual or its squared norm overflows")
    second = (g(s - h) - 2.0 * (np.exp(-L * s) * mid) + g(s + h)) / (h * h)
    if not np.all(np.isfinite(second)):
        raise DegenerateSmoothingError(
            "second derivative of the damped residual majorant is not finite; "
            "use a smoothing parameter mu > 0")
    return safety_factor * float(np.max(np.abs(second)))


# -- certified quadrature -------------------------------------------------

def trapezoid_bound_integral(delta, L, t, n, K):
    """Composite trapezoid value of I(t, delta) and its certified remainder.

    I(t, delta) = int_0^t e^{L(t-s)} delta(s) ds, where the growth rate L is
    a Lipschitz constant or, for linear systems, a spectral abscissa that
    may be negative.  Returns (i_hat, e_int) with |i_hat - I(t, delta)| <=
    e_int whenever K truly bounds the damped integrand's second derivative.
    The remainder prefactor max(1, e^{Lt}) equals e^{Lt} for L >= 0.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if t == 0.0:
        return 0.0, 0.0
    s = np.linspace(0.0, t, n + 1)
    vals = np.exp(-L * s) * np.atleast_1d(delta(s))
    i_hat = (t / (2.0 * n)) * math.exp(L * t) * float(vals[1:].sum() + vals[:-1].sum())
    e_int = max(1.0, math.exp(L * t)) * K * t ** 3 / (12.0 * n * n)
    return i_hat, e_int


def expected_ml_error(t, init_error, L, mean_residual):
    """A priori estimate e^{Lt}||e(0)|| + (e^{Lt} - 1) rbar / L."""
    return math.exp(L * t) * init_error + (math.exp(L * t) - 1.0) * mean_residual / L


def subinterval_count(t, init_error, L, K, mean_residual, eps):
    """Trapezoid subintervals needed so E_Int <= eps * expected ML error."""
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    if L <= 0:
        raise ConfigurationError("L must be positive")
    if K == 0.0 or t == 0.0:
        return 1
    e_exp = expected_ml_error(t, init_error, L, mean_residual)
    if e_exp == 0.0:
        raise ConfigurationError(
            "expected ML error is zero with K > 0: required subintervals are "
            "unbounded; use mu > 0 or another eps policy")
    return max(1, math.ceil(math.sqrt(math.exp(L * t) * K * t ** 3 / (12.0 * e_exp * eps))))


# -- certificates ---------------------------------------------------------

@dataclass
class Certificate:
    """One evaluated error bound: total = e_init + i_hat + e_int."""

    t: float
    e_init: float
    i_hat: float
    e_int: float
    total: float
    constants_used: dict = field(default_factory=dict)


@dataclass
class CertifyConfig:
    mode: str = "auto"              # auto | nonlinear | linear
    eps: float = 0.33               # E_Int budget as a fraction of E_ML^exp
    mu_policy: str = "tenth_of_mean"   # tenth_of_mean | explicit
    mu: float = None                # used when mu_policy == "explicit"
    K_grid: int = 200
    safety_factor: float = DEFAULT_SAFETY_FACTOR
    L: float = None                 # explicit override; skips estimation
    n: int = None                   # explicit trapezoid subintervals
    colloc_count: int = 400         # sampling density for L / mean residual
    colloc_seed: int = 1

    def validate(self):
        if self.mode not in ("auto", "linear", "nonlinear"):
            raise ConfigurationError(f"unknown certification mode {self.mode!r}")
        if self.mu_policy not in ("tenth_of_mean", "explicit"):
            raise ConfigurationError(f"unknown mu_policy {self.mu_policy!r}")
        if self.mu_policy == "explicit" and (self.mu is None or not self.mu >= 0):
            raise ConfigurationError("mu_policy = explicit needs mu >= 0")
        if self.L is not None and not 0 <= self.L < math.inf:
            raise ConfigurationError(f"L override must be finite and >= 0, got {self.L}")
        if not (self.eps > 0 and self.K_grid >= 10 and self.safety_factor >= 1):
            raise ConfigurationError("need eps > 0, K_grid >= 10 and safety_factor >= 1")
        if self.n is not None and not (isinstance(self.n, int) and self.n >= 1):
            raise ConfigurationError(f"n must be None or an int >= 1, got {self.n!r}")


class Certifier:
    """The per-network constants of the certificate, computed once: the
    growth pair (rate, beta), the mean residual over the certification
    collocation and mu.  :meth:`trajectory` adds the per-(x0, u) constants,
    once per distinct (x0, u), and :func:`bound` the per-time quadrature.
    """

    def __init__(self, net: Network, problem: OdeProblem, config: CertifyConfig = None):
        config = config or CertifyConfig()
        config.validate()
        self.net, self.problem, self.config = net, problem, config
        # L / mu sampling is denser than typical training collocation to reduce
        # the risk of underestimating L
        colloc = sample_collocation(problem, config.colloc_count, config.colloc_seed)
        self.rate, self.beta, self.growth = self._growth_pair(colloc)
        self.mean_residual = mean_residual_norm(net, problem, colloc)
        self.mu = (float(config.mu) if config.mu_policy == "explicit"
                   else 0.1 * self.mean_residual)
        self._trajectories = {}

    def _growth_pair(self, colloc):
        """(rate, beta) and their ``constants_used`` entries."""
        problem, config = self.problem, self.config
        fallback = {}
        if config.mode == "linear" or (config.mode == "auto" and problem.linear_part is not None):
            if problem.linear_part is None:
                raise ConfigurationError("linear mode needs problem.linear_part")
            a = np.asarray(problem.linear_part, dtype=float)
            cond = np.linalg.cond(np.linalg.eig(a)[1])
            if np.isfinite(cond) and cond <= COND_LIMIT:
                alpha = spectral_abscissa(a)
                # normal A admits beta = 1; otherwise the eigenvector conditioning pays
                beta = 1.0 if np.allclose(a @ a.T, a.T @ a, atol=1e-12) else float(cond)
                return alpha, beta, {"mode": "linear", "alpha": alpha, "beta": beta}
            fallback = {"linear_fallback": "eigenvector matrix ill-conditioned"}
        L = config.L if config.L is not None else estimate_lipschitz(problem, colloc)
        return L, 1.0, {"mode": "nonlinear", "L": L, **fallback}

    def trajectory(self, x0, u) -> TrajectoryConstants:
        """The per-(x0, u) constants: the smooth majorant delta, ||e(0)|| and K."""
        x0, u = np.asarray(x0, dtype=float), np.asarray(u, dtype=float)
        key = (x0.tobytes(), u.tobytes())
        if key not in self._trajectories:
            delta = SmoothDelta(ResidualFn(self.net, self.problem, x0, u), self.mu)
            init_error = float(np.linalg.norm(
                x0 - predict_states(self.net, self.problem, x0, u, 0.0)[0]))
            try:
                K = estimate_K(delta, self.rate, self.problem.t_final, self.config.K_grid,
                               self.config.safety_factor)
            except ResidualOverflowError as exc:
                raise ResidualOverflowError(
                    f"{exc}, on the trajectory x0={x0.tolist()}, u={u.tolist()}") from exc
            self._trajectories[key] = TrajectoryConstants(self, delta, init_error, K)
        return self._trajectories[key]


@dataclass
class TrajectoryConstants:
    """What :meth:`Certifier.trajectory` computed for one (x0, u)."""

    certifier: Certifier
    delta: SmoothDelta
    init_error: float
    K: float


def bound(traj: TrajectoryConstants, t) -> Certificate:
    """E_init + I_hat + E_Int at time t; only n and the trapezoid depend on t."""
    c, config = traj.certifier, traj.certifier.config
    if not (0.0 <= t <= c.problem.t_final):
        raise DomainError(f"t={t} outside the time horizon [0, {c.problem.t_final}]")
    n = config.n if config.n is not None else subinterval_count(
        t, traj.init_error, max(c.rate, 1e-6), traj.K, c.mean_residual, config.eps)
    e_init = c.beta * math.exp(c.rate * t) * traj.init_error
    i_hat, e_int = trapezoid_bound_integral(traj.delta, c.rate, t, n, traj.K)
    i_hat, e_int = c.beta * i_hat, c.beta * e_int
    constants = {"eps": config.eps, "mu_policy": config.mu_policy,
                 "K_grid": config.K_grid, "safety_factor": config.safety_factor,
                 **c.growth, "K": traj.K, "n_subintervals": n, "mu": c.mu,
                 "mean_residual": c.mean_residual}
    return Certificate(t=float(t), e_init=e_init, i_hat=i_hat, e_int=e_int,
                       total=e_init + i_hat + e_int, constants_used=constants)


def bound_nonlinear(net: Network, problem: OdeProblem, x0, u, t,
                    config: CertifyConfig = None) -> Certificate:
    """Certified bound e^{Lt}||e(0)|| + I_hat + E_Int (Lipschitz route)."""
    config = replace(config or CertifyConfig(), mode="nonlinear")
    return bound(Certifier(net, problem, config).trajectory(x0, u), t)


def bound_linear(net: Network, problem: OdeProblem, x0, u, t,
                 config: CertifyConfig = None) -> Certificate:
    """Sharper bound for linear systems using the spectral abscissa."""
    config = replace(config or CertifyConfig(), mode="linear")
    return bound(Certifier(net, problem, config).trajectory(x0, u), t)


def predict_states(net: Network, problem: OdeProblem, x0, u, t_grid):
    """phihat(t) on a grid of times for one (x0, u)."""
    return forward(net, assemble_inputs(infer_layout(net, problem), t_grid, x0, u))


# -- validation-only reference comparison ---------------------------------

def actual_error(net: Network, problem: OdeProblem, x0, u, t_grid,
                 h=REFERENCE_STEP):
    """||x(t) - phihat(t)|| at the query times: (T,) for one (x0, u).

    Rows x0 (B, d) and u (B, m) that share the query times give (B, T).  The
    reference is the closed form if the problem has one, else one pass of
    the sixth-order :func:`solve_reference` over a grid through 0 and every
    distinct query time, each gap split into equal steps no longer than h.
    At the default h = 2e-3 the pendulum reference is within 1e-14 of a
    20-digit solution over the training horizon.  The times may be unsorted
    or repeated.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ConfigurationError(f"reference step h must be finite and > 0, got {h}")
    t_grid = np.asarray(t_grid, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if problem.exact_solution is not None:
        columns = x0.T          # a batch passes one column per component, as to the rhs
        ref = np.array([problem.exact_solution(t, columns) for t in t_grid]).swapaxes(1, -1)
    else:
        knots, at = np.unique(np.append(t_grid, 0.0), return_inverse=True)
        steps = np.ceil(np.diff(knots) / h).astype(int)
        grid = np.concatenate([knots[:1], *(np.linspace(a, b, n + 1)[1:] for a, b, n
                                            in zip(knots[:-1], knots[1:], steps))])
        knot_rows = np.concatenate([[0], np.cumsum(steps)])
        ref = solve_reference(problem, x0, u, grid).states[knot_rows[at[:-1]]]
    if x0.ndim == 1:
        pred = predict_states(net, problem, x0, u, t_grid)
    else:
        pred = np.stack([predict_states(net, problem, x, v, t_grid)
                         for x, v in zip(x0, np.reshape(u, (len(x0), -1)))], axis=1)
    return np.linalg.norm(ref - pred, axis=-1).T


# -- export ---------------------------------------------------------------

def export_certificates(certs, path, actual=None):
    """CSV `t,e_init,i_hat,e_int,total[,actual_error]` + metadata sidecar."""
    columns = ("t", "e_init", "i_hat", "e_int", "total", "actual_error")
    rows = [(c.t, c.e_init, c.i_hat, c.e_int, c.total) for c in certs]
    if actual is not None:
        rows = [(*row, a) for row, a in zip(rows, actual)]
    write_table(path, columns[:5 if actual is None else 6], rows)
    with open(str(path) + ".meta", "w") as fh:
        fh.write("[constants_used]\n")
        if certs:
            for key in sorted(certs[0].constants_used):
                values = {f"{c.constants_used.get(key)}" for c in certs}
                if len(values) == 1:
                    fh.write(f"{key} = {values.pop()}\n")
                else:
                    fh.write(f"{key} = per-row: "
                             + ";".join(f"{c.constants_used.get(key)}" for c in certs) + "\n")
