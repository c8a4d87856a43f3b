import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pinncert.certify import (Certificate, Certifier, CertifyConfig,
                              DegenerateSmoothingError, DomainError, ResidualFn,
                              SmoothDelta, actual_error, bound, bound_linear,
                              bound_nonlinear, estimate_K, estimate_lipschitz,
                              export_certificates, largest_singular_value,
                              mean_residual_norm, predict_states, rhs_jacobian,
                              spectral_abscissa, subinterval_count,
                              trapezoid_bound_integral)
from pinncert import certify, presets
from pinncert.autodiff import Dual
from pinncert.cli import main
from pinncert.config import certify_config, preset_config
from pinncert.network import Network, init_network, load_network, save_network
from pinncert.ode import (Box, ConfigurationError, OdeProblem, PointSet, decay_1d,
                          inverted_pendulum, solve_reference)
from pinncert.train import TrainingRun, anchor_dataset, sample_collocation, train


def linear_time_net(slope, intercept, dim=1):
    w = np.zeros((dim, 1))
    w[:, 0] = slope
    b = np.full(dim, float(intercept))
    return Network([1, dim], [w], [b], meta={"inputs": ["t"]})


def constant_problem(dim=1, linear=False):
    """x' = 0 on [0, 1] with a unit sampling box."""
    return OdeProblem(
        name="still", dim=dim,
        rhs=lambda t, x, u: [0.0 * x[i] for i in range(dim)],
        t_final=1.0, box=Box(t=(0.0, 1.0), x0=[(-1.0, 1.0)] * dim),
        linear_part=np.zeros((dim, dim)) if linear else None)


@pytest.fixture(scope="module")
def quick_decay_net():
    """A briefly trained 1D net: cheap, but a genuine PINN for property tests."""
    problem = decay_1d()
    net = init_network([1, 4, 4, 1], seed=0, meta={"inputs": ["t"]})
    train(net, problem, anchor_dataset([[2.0]]),
          sample_collocation(problem, 100, 0), TrainingRun(epochs=600, seed=0))
    return net


# -- residual -------------------------------------------------------------

def test_residual_symbolic_hand_case():
    # candidate 2 - 4t for x' = -2x: R(t) = -4 + 2(2 - 4t) = -8t
    net = linear_time_net(-4.0, 2.0)
    r = ResidualFn(net, decay_1d(), [2.0], ())(0.5)[0]
    assert r[0] == pytest.approx(-4.0, rel=1e-12)


def test_certifier_bound_outside_horizon_rejected():
    net = linear_time_net(-4.0, 2.0)
    cfg = CertifyConfig(mu=0.1, colloc_count=20)
    traj = Certifier(net, decay_1d(), cfg).trajectory([2.0], ())
    with pytest.raises(DomainError):
        bound(traj, 2.5)
    with pytest.raises(DomainError):
        bound(traj, -0.1)


def test_residual_matches_finite_difference_derivative(quick_decay_net):
    problem = decay_1d()
    rfn = ResidualFn(quick_decay_net, problem, [2.0], ())
    h = 1e-6
    for t in (0.3, 1.1, 1.9):
        r = rfn(t)[0, 0]
        x_plus = predict_states(quick_decay_net, problem, [2.0], (), [t + h])[0, 0]
        x_minus = predict_states(quick_decay_net, problem, [2.0], (), [t - h])[0, 0]
        x_here = predict_states(quick_decay_net, problem, [2.0], (), [t])[0, 0]
        fd = (x_plus - x_minus) / (2 * h) - (-2.0 * x_here)
        assert r == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_mean_residual_norm_is_mean():
    # |R(t)| = 8t: equals 1 at t = 1/8 and 3 at t = 3/8
    problem = decay_1d()
    net = linear_time_net(-4.0, 2.0)
    colloc = PointSet(t=np.array([1.0 / 8.0, 3.0 / 8.0]), x0=np.full((2, 1), 2.0))
    assert mean_residual_norm(net, problem, colloc) == pytest.approx(2.0, rel=1e-12)


# -- smooth majorant ------------------------------------------------------

def test_smooth_delta_pythagorean():
    # |R| = 3 at t = 3/8 for the -8t residual; mu = 4 gives delta = 5
    rfn = ResidualFn(linear_time_net(-4.0, 2.0), decay_1d(),
                     np.array([2.0]), np.zeros(0))
    delta = SmoothDelta(rfn, mu=4.0)
    assert delta(3.0 / 8.0) == pytest.approx(5.0, rel=1e-12)


def test_certifier_mu_policies():
    # |R(t)| = 8t for the candidate 2 - 4t, so the mean residual over the
    # certification collocation is the mean of 8t over its sampled times
    problem = decay_1d()
    net = linear_time_net(-4.0, 2.0)
    colloc = sample_collocation(problem, 30, seed=4)
    tenth = Certifier(net, problem, CertifyConfig(colloc_count=30, colloc_seed=4))
    assert tenth.mean_residual == pytest.approx(np.mean(8.0 * colloc.t), rel=1e-12)
    assert tenth.mu == 0.1 * tenth.mean_residual
    for mu in (0.5, 0.0):
        # a set mu is used as given, whatever the mean residual
        fixed = Certifier(net, problem, CertifyConfig(mu=mu, colloc_count=30, colloc_seed=4))
        assert fixed.mu == mu and fixed.mean_residual == tenth.mean_residual
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="mu must be"):
            Certifier(net, problem, CertifyConfig(mu=bad))


@pytest.mark.parametrize("overrides", [
    {"safety_factor": 0.5},         # K below the sampled second difference
    {"eps": -1.0, "n": 8},          # eps is checked even when n makes it unused
    {"n": 0},
    {"n": 4.0},
    {"K_grid": 200.0},              # counts and seeds that are not ints used to fail in numpy
    {"K_grid": True},
    {"colloc_count": 10.0},
    {"colloc_seed": 1.5},
    {"colloc_seed": -1},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_certifier_rejects_invalid_config(overrides):
    with pytest.raises(ConfigurationError):
        Certifier(linear_time_net(-4.0, 2.0), decay_1d(), CertifyConfig(**overrides))


@pytest.mark.parametrize("L", [-5.0, -1e-300, math.nan, math.inf])
def test_certifier_rejects_negative_or_non_finite_L(L):
    # a negative L shrinks e^{Lt} below the true growth and the bound below the error
    with pytest.raises(ConfigurationError, match="L override"):
        Certifier(linear_time_net(-4.0, 2.0), decay_1d(), CertifyConfig(L=L))


def test_delta_dominates_residual_norm(quick_decay_net):
    problem = decay_1d()
    rfn = ResidualFn(quick_decay_net, problem, np.array([2.0]), np.zeros(0))
    t = np.random.default_rng(0).uniform(0.0, 2.0, size=1000)
    delta = SmoothDelta(rfn, mu=0.01)
    assert np.all(delta(t) >= rfn.norms(t))


# -- growth constants -----------------------------------------------------

def test_largest_singular_value_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        j = rng.normal(size=(4, 4))
        assert largest_singular_value(j) == pytest.approx(
            np.linalg.svd(j, compute_uv=False)[0], rel=1e-10)


def test_lipschitz_decay_exact():
    colloc = sample_collocation(decay_1d(), 20, seed=0)
    assert abs(estimate_lipschitz(decay_1d(), colloc) - 2.0) <= 1e-12


def test_lipschitz_orthogonal_rotation_is_one():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = OdeProblem(name="rot", dim=2,
                   rhs=lambda t, x, u: [x[1], -x[0]],
                   t_final=1.0, box=Box(t=(0, 1), x0=[(-1, 1), (-1, 1)]),
                   jacobian_x=lambda t, x, u: a, linear_part=a)
    colloc = sample_collocation(p, 10, seed=0)
    assert estimate_lipschitz(p, colloc) == pytest.approx(1.0, abs=1e-12)


def _per_point_jacobian(problem, t, x, u):
    """The per-point oracle: analytic at one point, else one Dual per state, scalar tangents."""
    if problem.jacobian_x is not None:
        return np.asarray(problem.jacobian_x(t, x, u), dtype=float)
    n = problem.dim
    jac = np.empty((n, n))
    for j in range(n):
        f = problem.rhs(t, [Dual(x[i], 1.0 if i == j else 0.0) for i in range(n)], list(u))
        for i in range(n):
            jac[i, j] = f[i].derivative if isinstance(f[i], Dual) else 0.0
    return jac


def _pointwise_lipschitz(problem, colloc):
    """The per-point loop: one Jacobian and one eigensolve per point."""
    best = 0.0
    for i in range(len(colloc)):
        jac = _per_point_jacobian(problem, colloc.t[i], colloc.x0[i], colloc.u[i])
        best = max(best, largest_singular_value(jac))
    return best


def _linear_problem(a, analytic):
    n = len(a)
    return OdeProblem(name="linear", dim=n,
                      rhs=lambda t, x, u: [sum(a[i, j] * x[j] for j in range(n))
                                           for i in range(n)],
                      t_final=1.0, box=Box(t=(0, 1), x0=[(-1, 1)] * n),
                      jacobian_x=(lambda t, x, u: a) if analytic else None)


def _forward_mode(problem):
    problem.jacobian_x = None
    return problem


@pytest.mark.parametrize("problem", [
    inverted_pendulum(), _forward_mode(inverted_pendulum()), decay_1d(),
    _linear_problem(np.array([[0.5, -1.0, 2.0], [0.0, 3.0, 1.0], [-2.0, 1.0, 0.25]]), True),
    _linear_problem(np.array([[0.5, -1.0], [2.0, 3.0]]), False),
], ids=["pendulum", "pendulum-forward-mode", "decay1d", "linear", "linear-forward-mode"])
def test_batched_rhs_jacobian_equals_the_per_point_oracle(problem):
    d = problem.dim
    for seed in range(3):
        colloc = sample_collocation(problem, 200, seed)
        batch = rhs_jacobian(problem, colloc.t, colloc.x0.T, colloc.u.T)
        assert batch.shape == (d, d, 200)
        oracle = np.stack([_per_point_jacobian(problem, colloc.t[i], colloc.x0[i], colloc.u[i])
                           for i in range(200)], axis=-1)
        np.testing.assert_array_equal(batch, oracle)
        one = rhs_jacobian(problem, colloc.t[0], colloc.x0[0], colloc.u[0])
        assert one.shape == (d, d)
        np.testing.assert_array_equal(one, oracle[..., 0])


def test_batched_lipschitz_equals_the_pointwise_loop():
    pendulum = inverted_pendulum()
    for seed in range(20):
        colloc = sample_collocation(pendulum, 400, seed)
        assert estimate_lipschitz(pendulum, colloc) == _pointwise_lipschitz(pendulum, colloc)
    forward_mode = _forward_mode(inverted_pendulum())
    for seed in range(3):
        colloc = sample_collocation(forward_mode, 400, seed)
        assert (estimate_lipschitz(forward_mode, colloc)
                == _pointwise_lipschitz(forward_mode, colloc)
                == estimate_lipschitz(pendulum, colloc))
    rng = np.random.default_rng(11)
    for k in range(20):
        n = int(rng.integers(1, 5))
        # odd k: analytic Jacobian; even k: forward mode through the rhs
        p = _linear_problem(rng.normal(size=(n, n)), analytic=k % 2)
        colloc = sample_collocation(p, 15, k)
        assert estimate_lipschitz(p, colloc) == _pointwise_lipschitz(p, colloc)


def test_lipschitz_names_the_first_non_finite_point():
    p = OdeProblem(name="nan_jacobian", dim=1, rhs=lambda t, x, u: [x[0]], t_final=1.0,
                   box=Box(t=(0, 1), x0=[(-1, 1)]),
                   jacobian_x=lambda t, x, u: np.where(x[0] > 0.5, np.nan, 1.0)[None, None])
    colloc = sample_collocation(p, 50, 0)
    colloc.x0[:] = 0.0
    colloc.x0[[7, 30]] = 1.0
    with pytest.raises(DomainError, match="collocation point 7$"):
        estimate_lipschitz(p, colloc)


def _power_iteration_sigma_max(j, iters=500):
    v = np.ones(j.shape[1]) / math.sqrt(j.shape[1])
    m = j.T @ j
    for _ in range(iters):
        v = m @ v
        v /= np.linalg.norm(v)
    return math.sqrt(v @ m @ v)


def test_lipschitz_pendulum_probe_matches_fd_oracle():
    problem = inverted_pendulum()
    x = np.array([0.7, -1.2, 0.3, 0.5])
    u = np.array([4.0])
    h = 1e-6
    jac_fd = np.empty((4, 4))
    for jcol in range(4):
        up, down = x.copy(), x.copy()
        up[jcol] += h
        down[jcol] -= h
        jac_fd[:, jcol] = (problem.rhs_array(0.0, up, u)
                           - problem.rhs_array(0.0, down, u)) / (2 * h)
    oracle = _power_iteration_sigma_max(jac_fd)
    ours = largest_singular_value(problem.jacobian_x(0.0, x, u))
    assert ours == pytest.approx(oracle, rel=1e-6)


def test_spectral_abscissa_values():
    assert spectral_abscissa([[-2.0]]) == -2.0
    assert spectral_abscissa([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)
    assert spectral_abscissa([[1.0, 0.0], [0.0, -3.0]]) == 1.0


# -- K estimation ---------------------------------------------------------

def test_estimate_K_constant_delta_closed_form():
    # d^2/ds^2 (c e^{-2s}) = 4 c e^{-2s}, maximal at s = 0
    c = 0.7
    K = estimate_K(lambda s: c * np.ones_like(np.atleast_1d(s)), L=2.0, t_end=1.0,
                   grid_points=400, safety_factor=1.5)
    assert K == pytest.approx(1.5 * 4.0 * c, rel=1e-3)


def test_estimate_K_flat_integrand_is_zero():
    K = estimate_K(lambda s: np.exp(2.0 * np.atleast_1d(s)), L=2.0, t_end=1.0,
                   grid_points=200)
    assert K <= 1e-4


def test_estimate_K_validates_grid():
    with pytest.raises(ConfigurationError):
        estimate_K(lambda s: np.ones_like(np.atleast_1d(s)), 1.0, 1.0, grid_points=5)


def test_estimate_K_degenerate_smoothing_reported():
    # sqrt(s) is NaN just left of 0, which the stencil reaches
    with np.errstate(invalid="ignore"):
        with pytest.raises(DegenerateSmoothingError):
            estimate_K(lambda s: np.sqrt(np.atleast_1d(s)), L=1.0, t_end=1.0)


# -- certified quadrature -------------------------------------------------

def test_trapezoid_constant_integrand_exact():
    i_hat, e_int = trapezoid_bound_integral(
        lambda s: 0.4 * np.ones_like(np.atleast_1d(s)), L=0.0, t=2.0, n=8, K=0.0)
    assert i_hat == pytest.approx(0.8, rel=1e-14)
    assert e_int == 0.0


def test_trapezoid_closed_form_case():
    # delta = 1, L = 2, t = 1: I = e^2 int_0^1 e^{-2s} ds = (e^2 - 1)/2
    one = lambda s: np.ones_like(np.atleast_1d(s))
    true_i = (math.e ** 2 - 1.0) / 2.0
    i_hat, e_int = trapezoid_bound_integral(one, L=2.0, t=1.0, n=4, K=4.0)
    s = np.linspace(0, 1, 5)
    by_hand = (1.0 / 8.0) * math.e ** 2 * (np.exp(-2 * s)[1:] + np.exp(-2 * s)[:-1]).sum()
    assert i_hat == pytest.approx(by_hand, rel=1e-14)
    assert i_hat == pytest.approx(3.261, abs=2e-3)
    assert e_int == pytest.approx(math.e ** 2 * 4.0 / (12.0 * 16.0), rel=1e-14)
    assert e_int == pytest.approx(0.154, abs=1e-3)
    assert abs(i_hat - true_i) == pytest.approx(0.066, abs=1e-3)
    assert abs(i_hat - true_i) <= e_int


def test_trapezoid_second_order_convergence():
    one = lambda s: np.ones_like(np.atleast_1d(s))
    true_i = (math.e ** 2 - 1.0) / 2.0
    errs = []
    for n in (4, 8, 16, 32):
        i_hat, e_int = trapezoid_bound_integral(one, L=2.0, t=1.0, n=n, K=4.0)
        assert abs(i_hat - true_i) <= e_int
        errs.append(abs(i_hat - true_i))
    slope, _ = np.polyfit(np.log([4, 8, 16, 32]), np.log(errs), 1)
    assert 1.9 <= -slope <= 2.1


def test_trapezoid_validates_n_and_t():
    one = lambda s: np.ones_like(np.atleast_1d(s))
    with pytest.raises(ConfigurationError):
        trapezoid_bound_integral(one, 1.0, 1.0, 0, 1.0)
    assert trapezoid_bound_integral(one, 1.0, 0.0, 4, 1.0) == (0.0, 0.0)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_trapezoid_rejects_negative_and_non_finite_times(t):
    one = lambda s: np.ones_like(np.atleast_1d(s))
    with pytest.raises(DomainError, match=f"t = {t}"):
        trapezoid_bound_integral(one, 1.0, t, 4, 2.0)
    with pytest.raises(DomainError, match=f"t = {t}"):
        trapezoid_bound_integral(one, 1.0, [0.5, t], [4, 4], 2.0)


def test_trapezoid_sequences_of_different_lengths_raise():
    one = lambda s: np.ones_like(np.atleast_1d(s))
    with pytest.raises(ConfigurationError, match="2 times but 3"):
        trapezoid_bound_integral(one, 1.0, [0.5, 1.0], [4, 4, 4], 2.0)


@given(cases=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                                st.integers(1, 40)), min_size=1, max_size=8),
       repeat=st.booleans(), L=st.floats(-3.0, 3.0))
@example(cases=[(5e-324, 3), (1e-320, 7), (2.0, 2)], repeat=False, L=1.0)   # t / n underflows
def test_trapezoid_sequence_equals_the_scalar_call_at_each_time(cases, repeat, L):
    if repeat:                      # repeated and unsorted times
        cases = cases + cases[::-1]
    times, counts = [t for t, _ in cases], [n for _, n in cases]
    seen = []

    def delta(s):
        seen.append(np.array(s))
        return 0.3 + np.sin(3.0 * np.atleast_1d(s)) ** 2

    i_hats, e_ints = trapezoid_bound_integral(delta, L, times, counts, 5.0)
    assert len(seen) <= 1
    nodes = seen[0] if seen else np.empty(0)
    live = [(t, n) for t, n in cases if t != 0.0]
    ends = np.cumsum([n + 1 for _, n in live], dtype=int)
    for (t, n), piece in zip(live, np.split(nodes, ends[:-1])):
        assert piece.tobytes() == np.linspace(0.0, t, n + 1).tobytes()
    assert len(nodes) == (ends[-1] if live else 0)
    for t, n, i_hat, e_int in zip(times, counts, i_hats, e_ints):
        assert (i_hat, e_int) == trapezoid_bound_integral(delta, L, t, n, 5.0)


# -- subinterval count ----------------------------------------------------

def test_subintervals_floor_rule():
    assert subinterval_count(1.0, 0.1, 2.0, 0.0, 0.5, 0.33) == 1
    assert subinterval_count(0.0, 0.1, 2.0, 5.0, 0.5, 0.33) == 1


def test_subintervals_eps_scaling():
    n1 = subinterval_count(2.0, 0.05, 2.0, 10.0, 0.4, 0.33)
    n2 = subinterval_count(2.0, 0.05, 2.0, 10.0, 0.4, 0.66)
    assert n2 == math.ceil(n1 / math.sqrt(2.0)) or abs(n2 - n1 / math.sqrt(2)) <= 1


def test_subintervals_validation():
    with pytest.raises(ConfigurationError):
        subinterval_count(1.0, 0.1, 2.0, 1.0, 0.5, 0.0)
    with pytest.raises(ConfigurationError):
        subinterval_count(1.0, 0.1, 0.0, 1.0, 0.5, 0.33)
    with pytest.raises(ConfigurationError):
        subinterval_count(1.0, 0.0, 2.0, 1.0, 0.0, 0.33)   # zero expected error


# -- bounds ---------------------------------------------------------------

def test_nonlinear_bound_zero_when_exact():
    problem = constant_problem()
    net = linear_time_net(0.0, 0.5)   # exact: x' = 0, x(0) = 0.5
    cfg = CertifyConfig(mu=0.0, L=2.0, colloc_count=20)
    cert = bound_nonlinear(net, problem, [0.5], (), 1.0, cfg)
    assert cert.total == pytest.approx(0.0, abs=1e-12)


def test_nonlinear_bound_initial_error_closed_form():
    # only the initial error contributes: total = 0.1 e^2
    problem = constant_problem()
    net = linear_time_net(0.0, 0.5)
    cfg = CertifyConfig(mu=0.0, L=2.0, colloc_count=20)
    cert = bound_nonlinear(net, problem, [0.6], (), 1.0, cfg)
    assert cert.e_init == pytest.approx(0.1 * math.e ** 2, rel=1e-9)
    assert cert.total == pytest.approx(0.1 * math.e ** 2, rel=1e-9)
    assert cert.i_hat == pytest.approx(0.0, abs=1e-12)


def test_bound_rejects_time_outside_horizon():
    problem = constant_problem()
    net = linear_time_net(0.0, 0.5)
    with pytest.raises(DomainError):
        bound_nonlinear(net, problem, [0.5], (), 1.5,
                        CertifyConfig(mu=0.0, L=1.0))


def test_linear_bound_identity_semigroup():
    # A = 0, delta = 0: total = ||e(0)|| at every t
    problem = constant_problem(linear=True)
    net = linear_time_net(0.0, 0.5)
    cfg = CertifyConfig(mu=0.0, colloc_count=20)
    for t in (0.0, 0.5, 1.0):
        cert = bound_linear(net, problem, [0.8], (), t, cfg)
        assert cert.total == pytest.approx(0.3, rel=1e-12)
        assert cert.constants_used["rate"] == 0.0
        assert cert.constants_used["rate_source"] == "linear_part"


def test_linear_bound_decay_closed_form():
    # zero net on x' = -2x with explicit mu = c: the exact bound value is
    # e^{-2t}||e0|| + c (1 - e^{-2t}) / 2, and the trapezoid overestimates it
    problem = decay_1d()
    net = linear_time_net(0.0, 0.0)
    c = 0.3
    cfg = CertifyConfig(mu=c, colloc_count=20, n=64)
    for t in (0.5, 1.0, 2.0):
        cert = bound_linear(net, problem, [2.0], (), t, cfg)
        closed = math.exp(-2.0 * t) * 2.0 + c * (1.0 - math.exp(-2.0 * t)) / 2.0
        assert cert.e_init + cert.i_hat >= closed - 1e-12
        assert cert.e_init + cert.i_hat == pytest.approx(closed, rel=1e-3)
        # the actual error of the zero net is exactly 2 e^{-2t}
        assert cert.total >= 2.0 * math.exp(-2.0 * t) - 1e-12


def test_linear_bound_uses_spectral_abscissa_on_decay(quick_decay_net):
    cert = bound_linear(quick_decay_net, decay_1d(), [2.0], (), 1.0, CertifyConfig())
    # the log-norm of a 1x1 matrix is its entry, the spectral abscissa
    assert cert.constants_used["rate"] == -2.0
    assert cert.constants_used["rate_source"] == "linear_part"


def test_linear_not_above_nonlinear_on_decay(quick_decay_net):
    # the log-norm rate -2 against the Lipschitz rate 2 given as an override
    problem = decay_1d()
    for t in np.linspace(0.1, 2.0, 9):
        lin = bound_linear(quick_decay_net, problem, [2.0], (), t, CertifyConfig())
        non = bound_nonlinear(quick_decay_net, problem, [2.0], (), t, CertifyConfig(L=2.0))
        assert lin.constants_used["rate"] == -2.0 and non.constants_used["rate"] == 2.0
        assert lin.total <= non.total + 1e-12


def linear_problem(a, t_final=1.0):
    """x' = A x on [0, t_final] for a constant (n, n) matrix A."""
    n = len(a)
    return OdeProblem(name="linear", dim=n,
                      rhs=lambda t, x, u: [sum(a[i, j] * x[j] for j in range(n))
                                           for i in range(n)],
                      t_final=t_final, box=Box(t=(0, t_final), x0=[(-1, 1)] * n),
                      jacobian_x=lambda t, x, u: a, linear_part=a)


def test_jordan_block_certifies_with_its_log_norm():
    # defective: no eigenvector basis, yet mu_2(A) = 1 + 1/2 bounds ||e^{At}||
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    net = Network([1, 2], [np.zeros((2, 1))], [np.zeros(2)], meta={"inputs": ["t"]})
    cert = bound_linear(net, linear_problem(a), [0.1, 0.1], (), 0.5,
                        CertifyConfig(mu=0.1, colloc_count=20))
    assert cert.constants_used["rate"] == pytest.approx(1.5, rel=1e-12)
    assert cert.constants_used["rate_source"] == "linear_part"
    assert math.isfinite(cert.total) and cert.total >= 0.0


@pytest.mark.parametrize("a", [[[1.0, 1.0], [0.0, 1.0]], [[-1.0, 10.0], [0.0, -2.0]]],
                         ids=["jordan", "non_normal"])
def test_log_norm_bound_holds_on_non_normal_matrices(a):
    # e^{mu_2 t} >= ||e^{At}||_2 for any A, so the bound holds without beta
    a = np.array(a)
    problem = linear_problem(a)
    net = init_network([1, 4, 2], seed=5, meta={"inputs": ["t"]})
    certifier = Certifier(net, problem, CertifyConfig(colloc_count=50))
    x0, times = np.array([0.6, -0.4]), np.linspace(0.0, 1.0, 10)
    traj = certifier.trajectory(x0, (), times)
    totals = np.array([bound(traj, t).total for t in times])
    actual = actual_error(net, problem, x0, (), times)
    assert certifier.rate_source == "linear_part"
    assert np.count_nonzero(totals < actual - 1e-12) == 0


@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.01, 2.0), t=st.floats(0.0, 2.0))
def test_log_norm_rate_bounds_the_matrix_exponential(n, seed, scale, t):
    # ||e^{At}||_2 <= e^{mu_2(A) t} for every A, normal or not (Dahlquist 1958)
    from scipy.linalg import expm
    a = scale * np.random.default_rng(seed).normal(size=(n, n))
    net = Network([1, n], [np.zeros((n, 1))], [np.zeros(n)], meta={"inputs": ["t"]})
    rate = Certifier(net, linear_problem(a, t_final=2.0),
                     CertifyConfig(mu=0.0, colloc_count=10)).rate
    assert np.linalg.norm(expm(a * t), 2) <= math.exp(rate * t) * (1.0 + 1e-12)


def test_linear_and_lipschitz_routes_agree_on_scaled_identity():
    # A = alpha I with alpha > 0: the log-norm is alpha, so the linear part
    # and an override of alpha run the same bound with growth rate alpha
    alpha = 0.5
    a = alpha * np.eye(2)
    p = OdeProblem(name="growth", dim=2,
                   rhs=lambda t, x, u: [alpha * x[0], alpha * x[1]],
                   t_final=1.0, box=Box(t=(0, 1), x0=[(-1, 1), (-1, 1)]),
                   jacobian_x=lambda t, x, u: a, linear_part=a)
    net = init_network([1, 4, 2], seed=3, meta={"inputs": ["t"]})
    for t in (0.0, 0.4, 1.0):
        lin = bound_linear(net, p, [0.2, -0.1], (), t, CertifyConfig(colloc_count=50))
        non = bound_nonlinear(net, p, [0.2, -0.1], (), t,
                              CertifyConfig(colloc_count=50, L=alpha))
        assert lin.constants_used["rate"] == alpha
        assert lin.constants_used["rate_source"] == "linear_part"
        assert (lin.e_init, lin.i_hat, lin.e_int, lin.total) == \
            (non.e_init, non.i_hat, non.e_int, non.total)


@pytest.mark.parametrize("L", [None, 2.0], ids=lambda L: f"L={L}")
def test_zero_expected_error_with_curvature_raises(L):
    # the zero net solves x' = -2x from x0 = 0 exactly, so the mean residual
    # and the initial error vanish, while mu > 0 gives the damped majorant
    # curvature: no finite n meets the E_Int budget, at either rate source
    cfg = CertifyConfig(mu=0.3, L=L, colloc_count=20)
    traj = Certifier(linear_time_net(0.0, 0.0), decay_1d(), cfg).trajectory([0.0], ())
    with pytest.raises(ConfigurationError, match="expected ML error is zero"):
        bound(traj, 1.0)


def test_bound_dispatch(quick_decay_net):
    # the rate's precedence: an override, else the linear part, else sampled
    cases = [(decay_1d(), CertifyConfig(L=5.0), 5.0, "override"),
             (decay_1d(), CertifyConfig(), -2.0, "linear_part"),
             (replace(decay_1d(), linear_part=None), CertifyConfig(), 2.0, "sampled")]
    for problem, cfg, rate, source in cases:
        certifier = Certifier(quick_decay_net, problem, cfg)
        assert certifier.rate == pytest.approx(rate, abs=1e-12)
        assert certifier.rate_source == source
        used = bound(certifier.trajectory([2.0], ()), 1.0).constants_used
        assert (used["rate"], used["rate_source"]) == (certifier.rate, source)


def test_set_override_is_honoured_on_a_linear_problem(quick_decay_net):
    certifier = Certifier(quick_decay_net, decay_1d(), CertifyConfig(L=5.0))
    assert (certifier.rate, certifier.rate_source) == (5.0, "override")
    traj = certifier.trajectory([2.0], ())
    for t in (0.0, 0.5, 1.0):
        assert bound(traj, t).e_init == math.exp(5.0 * t) * traj.init_error


def test_certifier_reproduces_bound_linear_on_decay(quick_decay_net):
    # one Certifier and one trajectory serve every time, field for field
    problem = decay_1d()
    cfg = CertifyConfig(colloc_count=50)
    traj = Certifier(quick_decay_net, problem, cfg).trajectory([2.0], ())
    for t in (0.0, 0.3, 1.0, 2.0):
        assert bound(traj, t) == bound_linear(quick_decay_net, problem, [2.0], (), t, cfg)


def test_certifier_reproduces_bound_nonlinear_on_pendulum():
    problem = inverted_pendulum()
    net = init_network([6, 8, 4], seed=2, meta={"inputs": ["t", "x0", "u"]})
    cfg = CertifyConfig(colloc_count=50, K_grid=40)
    x0, u = np.array([0.1, -0.2, 0.05, 0.3]), np.array([2.0])
    traj = Certifier(net, problem, cfg).trajectory(x0, u)
    for t in np.linspace(0.0, problem.t_final, 4):
        assert bound(traj, t) == bound_nonlinear(net, problem, x0, u, t, cfg)


@pytest.mark.parametrize("case", ["x0 too long", "x0 as a column", "u on decay1d",
                                  "pendulum without u", "pendulum u as a scalar"])
def test_wrong_length_x0_or_u_is_a_configuration_error(case, quick_decay_net):
    # a network that does not take x0 or u as inputs would broadcast them into ||e(0)||
    pendulum = init_network([6, 4, 4], seed=0, meta={"inputs": ["t", "x0", "u"]})
    net, problem, x0, u = {
        "x0 too long": (quick_decay_net, decay_1d(), [2.0, 5.0], ()),
        "x0 as a column": (quick_decay_net, decay_1d(), [[2.0], [3.0]], ()),
        "u on decay1d": (quick_decay_net, decay_1d(), [2.0], [1.0]),
        "pendulum without u": (pendulum, inverted_pendulum(), [0.1, 0.0, 0.0, 0.0], ()),
        "pendulum u as a scalar": (pendulum, inverted_pendulum(), [0.1, 0.0, 0.0, 0.0], 1.0),
    }[case]
    with pytest.raises(ConfigurationError, match="got shapes"):
        bound_nonlinear(net, problem, x0, u, 0.05, CertifyConfig(colloc_count=20))


def test_certificate_components_sum_and_sign(quick_decay_net):
    cert = bound_nonlinear(quick_decay_net, decay_1d(), [2.0], (), 1.3, CertifyConfig())
    assert cert.total == cert.e_init + cert.i_hat + cert.e_int
    assert cert.e_init >= 0 and cert.i_hat >= 0 and cert.e_int >= 0


# -- the per-trajectory residual pass -------------------------------------

PINNED_NET = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "pendulum_desk_net.json"


def _decay_case(net):
    problem = decay_1d()
    certifier = Certifier(net, problem, CertifyConfig(colloc_count=50))
    return certifier, [([2.0], (), np.linspace(0.0, problem.t_final, 21))]


def _pinned_pendulum_case():
    problem = inverted_pendulum()
    certifier = Certifier(load_network(PINNED_NET), problem,
                          certify_config(preset_config("pendulum")))
    local = np.linspace(0.0, presets.SCHEDULE_T_TOTAL / presets.SCHEDULE_INTERVALS, 20)
    return certifier, [(x0, [u], local) for _, x0, u in presets.make_pendulum_schedule()[:2]]


def _count_residual_calls(monkeypatch):
    calls = []
    real = certify.residual_batch_columns
    monkeypatch.setattr(certify, "residual_batch_columns",
                        lambda *args, **kwargs: calls.append(kwargs["t"]) or real(*args, **kwargs))
    return calls


@pytest.mark.parametrize("case", ["decay1d", "pendulum"])
def test_trajectory_times_give_the_certificates_of_per_time_calls(case, quick_decay_net):
    certifier, trajectories = (_decay_case(quick_decay_net) if case == "decay1d"
                               else _pinned_pendulum_case())
    for x0, u, times in trajectories:
        traj = certifier.trajectory(x0, u)
        direct = [bound(traj, t) for t in times]
        assert certifier.trajectory(x0, u, times) is traj
        for a, b in zip(direct, (bound(traj, t) for t in times)):
            assert a.constants_used == b.constants_used
            for name in ("t", "e_init", "i_hat", "e_int", "total"):
                if case == "decay1d":
                    assert getattr(b, name) == getattr(a, name)
                else:   # BLAS rounds a 32-wide hidden matmul row differently in a larger batch
                    np.testing.assert_allclose(getattr(b, name), getattr(a, name),
                                               rtol=1e-13, atol=0)


def test_trajectory_times_make_one_residual_pass(quick_decay_net, monkeypatch):
    certifier, [(x0, u, times)] = _decay_case(quick_decay_net)
    traj = certifier.trajectory(x0, u)
    calls = _count_residual_calls(monkeypatch)
    certifier.trajectory(x0, u, times)
    nodes = sum(traj.subintervals(t) + 1 for t in times if t > 0)
    assert [len(t) for t in calls] == [nodes]
    calls.clear()
    trapezoids = []
    real = certify.trapezoid_bound_integral
    monkeypatch.setattr(certify, "trapezoid_bound_integral",
                        lambda *args: trapezoids.append(args) or real(*args))
    for t in times:
        bound(traj, t)
    certifier.trajectory(x0, u, times)          # passed times are not evaluated again
    assert calls == [] and trapezoids == []


def test_trajectory_times_leave_other_calls_unchanged(quick_decay_net, monkeypatch):
    certifier, [(x0, u, times)] = _decay_case(quick_decay_net)
    plain = Certifier(quick_decay_net, decay_1d(), certifier.config).trajectory(x0, u)
    outside = (-0.1, 2.5, math.nan)
    traj = certifier.trajectory(x0, u, [*times[:5], *outside])
    calls = _count_residual_calls(monkeypatch)
    for t in (0.0, 0.77, times[10]):            # t = 0 and two times that were not passed
        assert bound(traj, t) == bound(plain, t)
    assert len(calls) == 4      # one per bound at the two times not passed, on each trajectory
    for t in outside:
        with pytest.raises(DomainError):
            bound(traj, t)


# -- reference comparison -------------------------------------------------

def test_actual_error_closed_form(quick_decay_net):
    problem = decay_1d()
    t = np.linspace(0.0, 2.0, 11)
    err = actual_error(quick_decay_net, problem, [2.0], (), t)
    pred = predict_states(quick_decay_net, problem, [2.0], (), t)[:, 0]
    np.testing.assert_allclose(err, np.abs(2.0 * np.exp(-2.0 * t) - pred), atol=1e-12)


def test_actual_error_rk4_path_agrees_with_closed_form(quick_decay_net):
    problem = decay_1d()
    stripped = decay_1d()
    stripped.exact_solution = None
    t = np.linspace(0.0, 2.0, 6)
    a = actual_error(quick_decay_net, problem, [2.0], (), t)
    b = actual_error(quick_decay_net, stripped, [2.0], (), t)
    np.testing.assert_allclose(a, b, atol=1e-8)


@pytest.mark.parametrize("x0", [[2.0], [[2.0], [1.0], [-0.5]]], ids=["single", "batch"])
def test_actual_error_closed_form_is_one_call(quick_decay_net, x0):
    problem, t, x0 = decay_1d(), np.linspace(0.0, 2.0, 101), np.asarray(x0)
    exact, calls = problem.exact_solution, []
    problem.exact_solution = lambda t, x0: calls.append(t) or exact(t, x0)
    err = actual_error(quick_decay_net, problem, x0, (), t)
    assert len(calls) == 1
    # oracle: the closed form called once per query time
    ref = np.array([exact(ti, x0.T) for ti in t]).swapaxes(1, -1)
    if x0.ndim == 1:
        pred = predict_states(quick_decay_net, problem, x0, (), t)
    else:
        pred = np.stack([predict_states(quick_decay_net, problem, x, (), t) for x in x0], axis=1)
    np.testing.assert_array_equal(err, np.linalg.norm(ref - pred, axis=-1).T)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_actual_error_rejects_bad_query_time(quick_decay_net, bad):
    t = [0.0, 0.05, bad, 0.08]
    cases = [(quick_decay_net, decay_1d(), [2.0], ()),
             (_pendulum_net(), inverted_pendulum(), np.zeros(4), [0.0])]
    for net, problem, x0, u in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=r"query time .* \(index 2\)"):
                actual_error(net, problem, x0, u, t)
    # a time past the horizon is still answered
    assert np.isfinite(actual_error(quick_decay_net, decay_1d(), [2.0], (), [2.5])).all()


def _pendulum_net():
    return init_network([6, 8, 8, 4], seed=3, meta={"inputs": ["t", "x0", "u"]})


def test_actual_error_single_pass_matches_per_time_oracle():
    net, problem, h = _pendulum_net(), inverted_pendulum(), 1e-3
    x0, u = np.array([0.3, -0.5, 0.1, 0.2]), np.array([2.0])
    t = np.array([0.07, 0.0, 0.031, 0.1, 0.031, 0.0049, 0.0])   # unsorted, repeated, zero
    pred = predict_states(net, problem, x0, u, t)
    oracle = np.empty(len(t))
    for i, ti in enumerate(t):
        ref = (x0 if ti == 0.0 else solve_reference(
            problem, x0, u, np.linspace(0.0, ti, math.ceil(ti / h) + 1)).states[-1])
        oracle[i] = np.linalg.norm(ref - pred[i])
    err = actual_error(net, problem, x0, u, t, h=h)
    np.testing.assert_allclose(err, oracle, rtol=1e-12, atol=0)
    assert err[1] == err[6] == np.linalg.norm(x0 - pred[1])


@pytest.mark.parametrize("h", [-1.0, 0.0, np.nan, np.inf])
def test_actual_error_rejects_bad_step(h):
    with pytest.raises(ConfigurationError):
        actual_error(_pendulum_net(), inverted_pendulum(), np.zeros(4), [0.0], [0.05], h=h)


@pytest.mark.parametrize("case", ["x0 too long", "u on decay1d", "u rows on decay1d",
                                  "pendulum without u", "pendulum u as a scalar",
                                  "one u for pendulum rows", "u rows miscounted", "x0 as a block"])
def test_actual_error_checks_x0_and_u_shapes(case, quick_decay_net):
    pendulum, rows = _pendulum_net(), np.zeros((3, 4))
    net, problem, x0, u = {
        "x0 too long": (quick_decay_net, decay_1d(), [2.0, 5.0], ()),
        "u on decay1d": (quick_decay_net, decay_1d(), [2.0], [3.0]),
        "u rows on decay1d": (quick_decay_net, decay_1d(), [[2.0], [1.0]], [[3.0], [3.0]]),
        "pendulum without u": (pendulum, inverted_pendulum(), rows[0], ()),
        "pendulum u as a scalar": (pendulum, inverted_pendulum(), rows[0], 1.0),
        "one u for pendulum rows": (pendulum, inverted_pendulum(), rows, [1.0]),
        "u rows miscounted": (pendulum, inverted_pendulum(), rows, np.ones((2, 1))),
        "x0 as a block": (pendulum, inverted_pendulum(), rows[None], np.ones((1, 3, 1))),
    }[case]
    shapes = rf"got shapes {re.escape(str(np.shape(x0)))} and {re.escape(str(np.shape(u)))}"
    with pytest.raises(ConfigurationError, match=shapes):
        actual_error(net, problem, x0, u, [0.0, 0.05])


def test_actual_error_takes_an_empty_u_on_a_problem_without_controls(quick_decay_net):
    problem, t = decay_1d(), [0.0, 0.5]
    single = actual_error(quick_decay_net, problem, [2.0], (), t)
    np.testing.assert_array_equal(actual_error(quick_decay_net, problem, [2.0], np.zeros(0), t),
                                  single)
    for u in ((), np.zeros((2, 0))):
        np.testing.assert_array_equal(
            actual_error(quick_decay_net, problem, [[2.0], [2.0]], u, t), [single, single])


def test_certify_with_reference_makes_one_batched_pass(tmp_path, monkeypatch):
    net = _pendulum_net()
    save_network(net, tmp_path / "net.json")
    rng = np.random.default_rng(5)
    rows = [(0.08 * i, rng.uniform(-0.5, 0.5, 4), float(rng.uniform(-5, 5)))
            for i in range(presets.SCHEDULE_INTERVALS)]
    presets.export_schedule(rows, tmp_path / "schedule.csv")
    calls = []
    real = certify.solve_reference
    monkeypatch.setattr(certify, "solve_reference",
                        lambda *args: calls.append(args) or real(*args))
    assert main(["certify", "--preset", "pendulum", "--network", str(tmp_path / "net.json"),
                 "--schedule", str(tmp_path / "schedule.csv"), "--intervals", "3",
                 "--with-reference", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    column = np.loadtxt(tmp_path / "out" / "certificates.csv", delimiter=",", skiprows=1)[:, 5]
    local = np.linspace(0.0, presets.SCHEDULE_T_TOTAL / presets.SCHEDULE_INTERVALS, 20)
    monkeypatch.setattr(certify, "solve_reference", real)
    per_interval = np.concatenate([actual_error(net, inverted_pendulum(), x0, [u], local)
                                   for _, x0, u in presets.load_schedule(
                                       tmp_path / "schedule.csv")[:3]])
    np.testing.assert_allclose(column, per_interval, rtol=1e-12, atol=0)


def test_export_certificates_with_sidecar(tmp_path):
    certs = [Certificate(t=0.0, e_init=0.1, i_hat=0.2, e_int=0.05, total=0.35,
                         constants_used={"mode": "nonlinear", "L": 2.0}),
             Certificate(t=1.0, e_init=0.2, i_hat=0.3, e_int=0.05, total=0.55,
                         constants_used={"mode": "nonlinear", "L": 2.0})]
    path = tmp_path / "certs.csv"
    export_certificates(certs, path, actual=[0.01, 0.02])
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (2, 6)
    np.testing.assert_allclose(data[:, 4], [0.35, 0.55])
    meta = (tmp_path / "certs.csv.meta").read_text()
    assert "L = 2.0" in meta
