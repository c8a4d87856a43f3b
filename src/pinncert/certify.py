"""A posteriori error certificates for trained ODE networks.

Everything here is computable from the trained network and the ODE alone:
the residual, a smooth majorant delta, one growth rate (an override, the
logarithmic norm of a linear system's matrix, or a Lipschitz constant L
sampled from Jacobian singular values), a curvature bound K for the
quadrature remainder, and the resulting certified upper bound split into
E_init + I_hat + E_Int.

Reference solutions appear only in :func:`actual_error`, which exists for
validation plots and is never consulted by the bound itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Dual
from .network import Network, assemble_inputs, forward, infer_layout, time_tangent
from .ode import (REFERENCE_STEP, ConfigurationError, NumericError, OdeProblem, PointSet,
                  require_int, sample_collocation, solve_reference)
from .table import write_table


class DomainError(ValueError):
    pass


class ResidualOverflowError(NumericError):
    """The mean residual, or the residual majorant delta on the time horizon,
    is not finite."""


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


def mean_residual_norm(net: Network, problem: OdeProblem, colloc: PointSet):
    """Average residual norm over the collocation set (each point's own x0, u);
    inf or NaN, without a numpy warning, where the residual overflows."""
    if len(colloc) == 0:
        raise ConfigurationError("empty collocation set")
    # an overflow is reported by Certifier, which names the mean
    with np.errstate(over="ignore", invalid="ignore"):
        cols = residual_batch_columns(net, problem, t=colloc.t, x0=colloc.x0, u=colloc.u)
        return float(np.mean(np.linalg.norm(np.column_stack(cols), axis=1)))


@dataclass
class SmoothDelta:
    """delta(t) = sqrt(||R(t)||^2 + mu^2): smooth majorant of the residual norm."""

    residual_fn: ResidualFn
    mu: float

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:
            raise ConfigurationError(f"mu must be finite and >= 0, got {self.mu}")

    def __call__(self, t):
        r = self.residual_fn.norms(np.atleast_1d(t))
        out = np.sqrt(r * r + self.mu * self.mu)
        return float(out[0]) if np.ndim(t) == 0 else out


# -- growth constants -----------------------------------------------------

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


def estimate_lipschitz(problem: OdeProblem, colloc: PointSet):
    """L = max over collocation points of sigma_max(df/dx); a point whose
    sigma_max^2 leaves the float range is a :class:`NumericError` naming it."""
    if len(colloc) == 0:
        raise ConfigurationError("empty collocation set")
    # one Jacobian call on batch columns, batch axis moved first: (N, d, d)
    jac = np.moveaxis(rhs_jacobian(problem, colloc.t, colloc.x0.T, colloc.u.T), -1, 0)
    bad = ~np.isfinite(jac).all(axis=(1, 2))
    if bad.any():
        raise DomainError(f"non-finite Jacobian at collocation point {int(np.argmax(bad))}")
    # sigma_max^2 = lambda_max(J^T J) lies between J's largest squared column
    # norm and its squared Frobenius norm: only the points whose Frobenius
    # norm reaches the largest column norm (less a margin far above the
    # rounding of either side) can hold the max, and one stacked symmetric
    # eigensolve of theirs finds it; each point's J^T J and eigenvalues do not
    # depend on which other points share the batch.  Every point whose
    # sigma_max^2 can overflow has an infinite Frobenius norm, so is held
    with np.errstate(over="ignore", invalid="ignore"):     # reported below
        columns = np.einsum("nij,nij->nj", jac, jac)
        held = np.flatnonzero(columns.sum(axis=1) >= (1.0 - 1e-9) * float(np.max(columns))
                              - np.finfo(float).tiny)
        eigs = np.linalg.eigvalsh(np.swapaxes(jac[held], 1, 2) @ jac[held])
    bad = ~np.isfinite(eigs).all(axis=1)
    if bad.any():
        raise NumericError(f"sigma_max(df/dx)^2 overflows at collocation point "
                           f"{int(held[np.argmax(bad)])}")
    return math.sqrt(max(float(np.max(eigs)), 0.0))


def spectral_abscissa(a):
    """Largest real part among the eigenvalues of A."""
    return float(np.max(np.real(np.linalg.eigvals(np.asarray(a, dtype=float)))))


# the certification policy: E_Int's budget as a fraction of the a-priori error
# estimate, mu as a fraction of the mean residual, and K's grid and margin
EPS = 0.33
MU_FRACTION = 0.1
K_GRID = 200
SAFETY_FACTOR = 1.5


def estimate_K(delta, L, t_end, grid_points=K_GRID, safety_factor=SAFETY_FACTOR):
    """Bound on |d^2/ds^2 (e^{-Ls} delta(s))| over [0, t_end].

    Central second differences on a uniform grid, scaled by a safety
    factor.  The stencil reaches slightly outside [0, t_end] at the ends;
    the network extends smoothly so this is well defined.  A non-finite
    delta on the grid raises :class:`ResidualOverflowError`; a NaN delta at
    a stencil point, or a damped integrand that overflows, as e^{-Ls} does
    for a strongly negative rate, raises :class:`NumericError` naming the
    point or the rate.
    """
    require_int("grid_points", grid_points, 10)
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
    with np.errstate(over="ignore", invalid="ignore"):     # reported below
        lo, hi = g(s - h), g(s + h)
        second = (lo - 2.0 * (np.exp(-L * s) * mid) + hi) / (h * h)
    if not np.all(np.isfinite(second)):
        stencil = np.concatenate([s - h, s + h])
        nan = stencil[np.isnan(np.atleast_1d(delta(stencil)))]
        if nan.size:
            p = float(np.min(nan))
            where = "" if 0.0 <= p <= t_end else f" outside [0, {t_end}]"
            raise NumericError(f"residual majorant delta(s) is NaN at the stencil point "
                               f"s = {p}{where} of K's second difference: the residual "
                               "is NaN there")
        raise NumericError(f"damped residual majorant e^(-rate*s) delta(s) or its second "
                           f"difference overflows at rate {L} on [0, {t_end}]")
    return safety_factor * float(np.max(np.abs(second)))


# -- certified quadrature -------------------------------------------------

def trapezoid_bound_integral(delta, L, t, n, K):
    """Composite trapezoid value of I(t, delta) and its certified remainder.

    I(t, delta) = int_0^t e^{L(t-s)} delta(s) ds, where the growth rate L is
    a Lipschitz constant or, for linear systems, a logarithmic norm that
    may be negative.  Returns (i_hat, e_int) with |i_hat - I(t, delta)| <=
    e_int whenever K truly bounds the damped integrand's second derivative.
    The remainder prefactor max(1, e^{Lt}) equals e^{Lt} for L >= 0.

    Equal-length sequences ``t`` and ``n`` give two lists, (i_hats, e_ints),
    from one ``delta`` call over the nodes of every time; each time's nodes
    and sums are those of its own call.  A time must be finite and >= 0; a
    grid too large for a numpy array or for memory is a :class:`NumericError`.
    """
    scalar = np.ndim(t) == 0
    times, counts = ([t], [n]) if scalar else (list(t), list(n))
    if len(times) != len(counts):
        raise ConfigurationError(f"{len(times)} times but {len(counts)} subinterval counts")
    nodes, most = 0, np.iinfo(np.intp).max // 8      # the float64 nodes numpy can address
    for ti, ni in zip(times, counts):
        require_int("n", ni, 1)
        if not 0.0 <= ti < math.inf:
            raise DomainError(f"trapezoid time t = {ti} must be finite and >= 0")
        nodes += ni + 1
        if nodes > most:
            raise NumericError(f"trapezoid grid too large for an array at rate {L}, "
                               f"t = {ti}, n = {ni:.3g}")
    i_hats, e_ints = [0.0] * len(times), [0.0] * len(times)
    live = [j for j, ti in enumerate(times) if ti != 0.0]
    if live:
        # one ragged grid: each time's nodes are np.linspace(0, t, n + 1) bit for bit
        t_live = np.array([times[j] for j in live], dtype=float)
        size = np.array([counts[j] for j in live]) + 1
        ends = np.cumsum(size)
        step = t_live / (size - 1)
        try:
            s = (np.arange(ends[-1]) - np.repeat(ends - size, size)) * np.repeat(step, size) + 0.0
            s[ends - 1] = t_live
            for k in np.flatnonzero(step == 0.0):   # t / n underflows: linspace's other route
                s[ends[k] - size[k]:ends[k]] = np.linspace(0.0, t_live[k], size[k])
            vals = np.exp(-L * s) * np.atleast_1d(delta(s))
        except MemoryError:
            k = int(np.argmax(size))
            raise NumericError(f"trapezoid grid of {ends[-1]:.3g} nodes does not fit in memory "
                               f"at rate {L}, t = {t_live[k]}, n = {size[k] - 1:.3g}") from None
        for j, b in zip(live, ends.tolist()):
            ti, ni = times[j], counts[j]
            a = b - ni - 1
            growth = _growth(L, ti)
            i_hats[j] = (ti / (2.0 * ni)) * growth * float(vals[a + 1:b].sum()
                                                          + vals[a:b - 1].sum())
            e_ints[j] = max(1.0, growth) * K * ti ** 3 / (12.0 * ni * ni)
    return (i_hats[0], e_ints[0]) if scalar else (i_hats, e_ints)


def _growth(rate, t):
    """e^{rate t}; an overflow is a numeric failure naming the rate and t."""
    try:
        return math.exp(rate * t)
    except OverflowError:
        raise NumericError(f"growth factor e^(rate*t) overflows at rate {rate}, "
                           f"t = {t}") from None


def expected_ml_error(t, init_error, L, mean_residual):
    """A priori estimate e^{Lt}||e(0)|| + (e^{Lt} - 1) rbar / L."""
    growth = _growth(L, t)
    return growth * init_error + (growth - 1.0) * mean_residual / L


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
            f"expected ML error is zero with K = {K} > 0, from ||e(0)|| = {init_error} "
            f"and mean residual {mean_residual}: no subinterval count meets eps times it")
    need = math.sqrt(_growth(L, t) * K * t ** 3 / (12.0 * e_exp * eps))
    if not math.isfinite(need):
        raise NumericError(f"trapezoid subinterval count is not finite at rate {L}, t = {t}")
    return max(1, math.ceil(need))


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
    L: float = None                 # growth rate override; None: log-norm or sampled L
    colloc_count: int = 400         # sampling density for L / mean residual
    colloc_seed: int = 1

    def validate(self):
        if self.L is not None and not 0 <= self.L < math.inf:
            raise ConfigurationError(f"L override must be finite and >= 0, got {self.L}")
        for key, minimum in (("colloc_count", 1), ("colloc_seed", 0)):
            require_int(key, getattr(self, key), minimum)


class Certifier:
    """The per-network constants of the certificate, computed once: the
    growth rate, the mean residual over the certification collocation and
    mu = MU_FRACTION times it.  :meth:`trajectory` adds the per-(x0, u)
    constants, once per distinct (x0, u); :meth:`certify` certifies a batch
    of query points.

    The rate is ``config.L`` if set (source ``override``), else the
    logarithmic norm mu_2(A) = lambda_max((A + A^T) / 2) of the problem's
    ``linear_part`` A (source ``linear_part``), which bounds ||e^{At}||_2 by
    e^{mu_2 t} for every A, else the sampled :func:`estimate_lipschitz`
    (source ``sampled``).
    """

    def __init__(self, net: Network, problem: OdeProblem, config: CertifyConfig = None):
        config = config or CertifyConfig()
        config.validate()
        self.net, self.problem, self.config = net, problem, config
        # L / mu sampling is denser than typical training collocation to reduce
        # the risk of underestimating L
        colloc = sample_collocation(problem, config.colloc_count, config.colloc_seed)
        if config.L is not None:
            self.rate, self.rate_source = float(config.L), "override"
        elif problem.linear_part is not None:
            a = np.asarray(problem.linear_part, dtype=float)
            self.rate, self.rate_source = spectral_abscissa(0.5 * (a + a.T)), "linear_part"
        else:
            self.rate, self.rate_source = estimate_lipschitz(problem, colloc), "sampled"
        self.mean_residual = mean_residual_norm(net, problem, colloc)
        if not math.isfinite(self.mean_residual):
            raise ResidualOverflowError(
                f"mean residual norm over the {len(colloc)} certification collocation points "
                f"is {self.mean_residual}: the residual or its squared norm overflows")
        self.mu = MU_FRACTION * self.mean_residual
        self._trajectories = {}

    def trajectory(self, x0, u, times=()) -> TrajectoryConstants:
        """The constants of x0 (dim,) and u (control_dim,): the smooth majorant
        delta, ||e(0)|| and K, with the quadrature of the query ``times``
        (:meth:`TrajectoryConstants.integrate`)."""
        x0, u = np.asarray(x0, dtype=float), np.asarray(u, dtype=float)
        p = self.problem
        if x0.shape != (p.dim,) or u.shape != (p.control_dim,):
            raise ConfigurationError(f"x0 must be ({p.dim},) and u ({p.control_dim},); "
                                     f"got shapes {x0.shape} and {u.shape}")
        key = (x0.tobytes(), u.tobytes())
        if key not in self._trajectories:
            delta = SmoothDelta(ResidualFn(self.net, self.problem, x0, u), self.mu)
            with np.errstate(over="ignore", invalid="ignore"):     # reported below
                init_error = float(np.linalg.norm(
                    x0 - predict_states(self.net, self.problem, x0, u, 0.0)[0]))
            if not math.isfinite(init_error):
                raise NumericError(f"initial error ||e(0)|| = {init_error} is not finite: "
                                   "the network's state at t = 0 or its distance from x0 "
                                   "overflows")
            K = estimate_K(delta, self.rate, self.problem.t_final)
            self._trajectories[key] = TrajectoryConstants(self, delta, init_error, K)
        return self._trajectories[key].integrate(times)

    def certify(self, t, x0, u) -> list[Certificate]:
        """The certificates of the points (t[i], x0[i], u[i]), in their order,
        from one trajectory pass per distinct (x0, u) over all of its times.  A
        failure names the point's index, t, x0 and u, and keeps its exit-code
        class: numeric failures stay numeric, the rest is a configuration error."""
        t, x0, u = (np.asarray(a, dtype=float) for a in (t, x0, u))
        if not len(t) == len(x0) == len(u):
            raise ConfigurationError(f"{len(t)} times but {len(x0)} x0 and {len(u)} u rows")
        groups = {}
        for i, row in enumerate(np.column_stack([x0, u])):
            groups.setdefault(row.tobytes(), []).append(i)
        certs = [None] * len(t)
        for rows in groups.values():
            i = rows[0]         # a failed trajectory pass is named by its first point
            try:
                traj = self.trajectory(x0[i], u[i], t[rows])
                for i in rows:
                    certs[i] = bound(traj, t[i])
            except (ValueError, NumericError) as exc:
                kind = NumericError if isinstance(exc, NumericError) else ConfigurationError
                raise kind(f"certificate failed at point {i} (t={t[i]}, x0={x0[i].tolist()}, "
                           f"u={u[i].tolist()}): {exc}") from exc
        return certs


@dataclass
class TrajectoryConstants:
    """What :meth:`Certifier.trajectory` computed for one (x0, u), with
    ``quadrature`` holding (n, i_hat, e_int) for each time it integrated."""

    certifier: Certifier
    delta: SmoothDelta
    init_error: float
    K: float
    quadrature: dict = field(default_factory=dict, repr=False)

    def subintervals(self, t):
        """Trapezoid subintervals at time t, by the eps rule."""
        c = self.certifier
        return subinterval_count(t, self.init_error, max(c.rate, 1e-6), self.K,
                                 c.mean_residual, EPS)

    def integrate(self, times) -> TrajectoryConstants:
        """Add the subinterval count and trapezoid of each new time inside
        [0, t_final] to ``quadrature``, all from one
        :func:`trapezoid_bound_integral` call (one residual pass); returns self."""
        c = self.certifier
        new = list(dict.fromkeys(t for t in times if 0.0 <= t <= c.problem.t_final
                                 and t not in self.quadrature))
        if new:
            n = [self.subintervals(t) for t in new]
            i_hats, e_ints = trapezoid_bound_integral(self.delta, c.rate, new, n, self.K)
            self.quadrature.update(zip(new, zip(n, i_hats, e_ints)))
        return self


def bound(traj: TrajectoryConstants, t) -> Certificate:
    """E_init + I_hat + E_Int at time t; n and the trapezoid, the only parts
    that depend on t, are read from the trajectory's quadrature."""
    c = traj.certifier
    if not (0.0 <= t <= c.problem.t_final):
        raise DomainError(f"t={t} outside the time horizon [0, {c.problem.t_final}]")
    if float(t) not in traj.quadrature:
        traj.integrate([float(t)])
    n, i_hat, e_int = traj.quadrature[float(t)]
    e_init = _growth(c.rate, t) * traj.init_error
    total = e_init + i_hat + e_int
    if not math.isfinite(total):
        raise NumericError(f"certificate at t = {t} is not finite (rate {c.rate}): "
                           f"E_init {e_init}, I_hat {i_hat}, E_Int {e_int}")
    constants = {"eps": EPS, "K_grid": K_GRID, "safety_factor": SAFETY_FACTOR, "rate": c.rate,
                 "rate_source": c.rate_source, "K": traj.K, "n_subintervals": n,
                 "mu": c.mu, "mean_residual": c.mean_residual}
    return Certificate(t=float(t), e_init=e_init, i_hat=i_hat, e_int=e_int,
                       total=total, constants_used=constants)


def bound_nonlinear(net: Network, problem: OdeProblem, x0, u, t,
                    config: CertifyConfig = None) -> Certificate:
    """Certified bound e^{rate t}||e(0)|| + I_hat + E_Int at one (x0, u, t)."""
    return bound(Certifier(net, problem, config).trajectory(x0, u), t)


bound_linear = bound_nonlinear


def predict_states(net: Network, problem: OdeProblem, x0, u, t_grid):
    """phihat(t) on a grid of times for one (x0, u)."""
    return forward(net, assemble_inputs(infer_layout(net, problem), t_grid, x0, u))


# -- validation-only reference comparison ---------------------------------

def actual_error(net: Network, problem: OdeProblem, x0, u, t_grid,
                 h=REFERENCE_STEP):
    """||x(t) - phihat(t)|| at the query times: (T,) for one (x0, u).

    Rows x0 (B, d) and u (B, m) that share the query times give (B, T); a
    problem without controls also takes one empty u for all rows.  Other
    shapes raise :class:`ConfigurationError`.  The
    reference is the closed form if the problem has one, else one pass of
    the sixth-order :func:`solve_reference` over a grid through 0 and every
    distinct query time, each gap split into equal steps no longer than h.
    At the default h = 2e-3 the pendulum reference is within 1e-14 of a
    20-digit solution over the training horizon.  The times may be unsorted
    or repeated, and lie past ``problem.t_final``, but must be finite and >= 0.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ConfigurationError(f"reference step h must be finite and > 0, got {h}")
    t_grid = np.asarray(t_grid, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(t_grid) & (t_grid >= 0.0)))
    if bad.size:
        raise ConfigurationError(f"query time {t_grid.flat[bad[0]]} (index {bad[0]}) "
                                 "must be finite and >= 0")
    x0, u = np.asarray(x0, dtype=float), np.asarray(u, dtype=float)
    n, m = problem.dim, problem.control_dim
    if not (x0.shape == (n,) and u.shape == (m,) or x0.ndim == 2 and x0.shape[1] == n
            and (u.shape == (len(x0), m) or u.size == m == 0)):
        raise ConfigurationError(f"x0 must be ({n},) and u ({m},), or rows (B, {n}) and "
                                 f"(B, {m}); got shapes {x0.shape} and {u.shape}")
    if problem.exact_solution is not None:
        # one call over all times; a batch passes one column per component, as
        # to the rhs, and the times as (T, 1) so they broadcast against them
        times = t_grid if x0.ndim == 1 else t_grid[:, None]
        ref = np.moveaxis(np.asarray(problem.exact_solution(times, x0.T)), 0, -1)
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
