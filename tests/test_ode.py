import math
import warnings

import mpmath
import numpy as np
import pytest

from pinncert.certify import rhs_jacobian
from pinncert.config import preset_config
from pinncert.presets import build_dataset
from pinncert.ode import (GRAVITY, PENDULUM_A, PENDULUM_D, PENDULUM_J, PENDULUM_M,
                          REFERENCE_STEP, BlowUpError, Box, ConfigurationError,
                          OdeProblem, Trajectory, decay_1d, inverted_pendulum,
                          sample_collocation, solve_reference)


def test_decay_rhs_value():
    p = decay_1d()
    assert p.rhs_array(0.0, [2.0])[0] == -4.0


def test_decay_exact_solution_value():
    p = decay_1d()
    assert p.exact_solution(1.0, [2.0])[0] == pytest.approx(2.0 * np.exp(-2.0), rel=1e-15)
    assert p.exact_solution(1.0, [2.0])[0] == pytest.approx(0.27067, abs=1e-5)


def test_decay_jacobian_constant():
    p = decay_1d()
    for x in (0.0, 1.0, -3.7):
        assert p.jacobian_x(0.5, [x], ())[0, 0] == -2.0


def test_decay_linear_part_consistent_with_rhs():
    p = decay_1d()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=1)
        np.testing.assert_allclose(p.rhs_array(0.0, x), p.linear_part @ x, atol=1e-12)


def test_pendulum_equilibrium_is_stationary():
    p = inverted_pendulum()
    np.testing.assert_array_equal(p.rhs_array(0.0, [0, 0, 0, 0], [0.0]), np.zeros(4))


def test_pendulum_horizontal_acceleration():
    # phi = pi/2, everything else zero: phidotdot = m g a / (J + m a^2)
    p = inverted_pendulum()
    denom = PENDULUM_J + PENDULUM_M * PENDULUM_A ** 2
    expected = PENDULUM_M * GRAVITY * PENDULUM_A / denom
    f = p.rhs_array(0.0, [np.pi / 2, 0, 0, 0], [0.0])
    assert f[1] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(14.82, abs=5e-3)


def test_pendulum_upright_with_control():
    p = inverted_pendulum()
    denom = PENDULUM_J + PENDULUM_M * PENDULUM_A ** 2
    f = p.rhs_array(0.0, [0.0, 0.0, 0.0, 1.0], [3.0])
    np.testing.assert_allclose(
        f, [0.0, PENDULUM_M * PENDULUM_A * 3.0 / denom, 1.0, 3.0], rtol=1e-12)


def test_pendulum_analytic_jacobian_matches_forward_mode():
    p = inverted_pendulum()
    p_auto = inverted_pendulum()
    p_auto.jacobian_x = None
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=4)
        u = rng.uniform(-5, 5, size=1)
        np.testing.assert_allclose(rhs_jacobian(p, 0.0, x, u),
                                   rhs_jacobian(p_auto, 0.0, x, u), atol=1e-10)


def test_pendulum_jacobian_takes_batch_columns():
    p = inverted_pendulum()
    rng = np.random.default_rng(4)
    x = rng.uniform(-3, 3, size=(4, 25))
    u = rng.uniform(-15, 15, size=(1, 25))
    batch = p.jacobian_x(0.0, x, u)
    assert batch.shape == (4, 4, 25)
    assert p.jacobian_x(0.0, x[:, 0], u[:, 0]).shape == (4, 4)
    per_point = np.stack([p.jacobian_x(0.0, x[:, k], u[:, k]) for k in range(25)], axis=-1)
    np.testing.assert_array_equal(batch, per_point)


def test_zero_rhs_constant_trajectory():
    p = OdeProblem(name="still", dim=2, rhs=lambda t, x, u: [0.0 * x[0], 0.0 * x[1]],
                   t_final=1.0, box=Box(t=(0, 1), x0=[(0, 1), (0, 1)]))
    traj = solve_reference(p, [0.3, -0.7], (), np.linspace(0, 1, 11))
    assert np.all(traj.states == [0.3, -0.7])


def test_rk4_matches_closed_form_decay():
    p = decay_1d()
    t = np.linspace(0.0, 2.0, 2001)   # h = 1e-3
    traj = solve_reference(p, [2.0], (), t)
    exact = 2.0 * np.exp(-2.0 * t)
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-9


def test_reference_observed_order_at_least_5_8():
    # a sixth-order step: halving h divides the error by about 2**6
    p = decay_1d()
    errs = []
    for steps in (20, 40, 80):
        t = np.linspace(0.0, 2.0, steps + 1)
        traj = solve_reference(p, [2.0], (), t)
        errs.append(abs(traj.states[-1, 0] - 2.0 * np.exp(-4.0)))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 5.8)


def _mpmath_pendulum_state(x0, u, t):
    """The pendulum state at t from mpmath's Taylor-series solver at 20 digits."""
    m, a, j, d, g = PENDULUM_M, PENDULUM_A, PENDULUM_J, PENDULUM_D, GRAVITY
    with mpmath.workdps(20):
        def rhs(_, y):
            return [y[1], (m * g * a * mpmath.sin(y[0]) - d * y[1]
                           + m * a * mpmath.cos(y[0]) * u) / (j + m * a * a), y[3], u]

        solution = mpmath.odefun(rhs, 0, [mpmath.mpf(v) for v in x0])
        return np.array([float(v) for v in solution(t)])


def test_reference_step_accuracy_against_mpmath():
    p = inverted_pendulum()
    points = sample_collocation(p, 3, seed=11)
    t_end = p.box.t[1]
    grid = np.linspace(0.0, t_end, math.ceil(t_end / REFERENCE_STEP) + 1)
    for x0, u in zip(points.x0, points.u[:, 0]):
        ours = solve_reference(p, x0, [u], grid).states[-1]
        exact = _mpmath_pendulum_state(x0, float(u), t_end)
        assert np.max(np.abs(ours - exact)) <= 2e-14


def test_pendulum_energy_conserved_without_friction():
    # angle is measured from upright, so the potential is +m g a cos(phi)
    p = inverted_pendulum(friction=0.0)
    t = np.linspace(0.0, 1.0, 501)   # h = REFERENCE_STEP
    traj = solve_reference(p, [0.4, 0.0, 0.0, 0.0], [0.0], t)
    denom = PENDULUM_J + PENDULUM_M * PENDULUM_A ** 2
    phi, phidot = traj.states[:, 0], traj.states[:, 1]
    energy = denom * phidot ** 2 / 2 + PENDULUM_M * GRAVITY * PENDULUM_A * np.cos(phi)
    scale = np.max(np.abs(energy))
    assert np.max(np.abs(energy - energy[0])) / scale <= 1e-6


def test_blow_up_reports_time():
    p = _quad_problem()
    with pytest.raises(BlowUpError) as exc, np.errstate(over="ignore"):
        solve_reference(p, [100.0], (), np.linspace(0, 10, 101))
    assert exc.value.t > 0


@pytest.mark.parametrize("x0", [[100.0], [[20.0], [100.0]]], ids=["single", "batch"])
def test_blow_up_raises_no_numpy_warning(x0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError):
            solve_reference(_quad_problem(), x0, (), np.linspace(0, 10, 101))


def _quad_problem():
    return OdeProblem(name="quad", dim=1, rhs=lambda t, x, u: [x[0] * x[0]],
                      t_final=10.0, box=Box(t=(0, 10), x0=[(0, 100)]))


def test_batch_blow_up_reports_first_row_time():
    p, grid = _quad_problem(), np.linspace(0, 0.1, 101)
    x0 = np.array([[20.0], [100.0], [50.0]])
    serial = []
    for row in x0:
        with pytest.raises(BlowUpError) as exc, np.errstate(over="ignore", invalid="ignore"):
            solve_reference(p, row, (), grid)
        serial.append(exc.value.t)
    with pytest.raises(BlowUpError) as exc, np.errstate(over="ignore", invalid="ignore"):
        solve_reference(p, x0, (), grid)
    assert exc.value.t == min(serial) < max(serial)


def _pendulum_batch(count, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform([-1, -2, -1, -1], [1, 2, 1, 1], size=(count, 4))
    return x0, rng.uniform(-5, 5, size=(count, 1))


def test_batched_reference_equals_serial_calls():
    p = inverted_pendulum()
    x0, u = _pendulum_batch(5, 7)
    shared = np.linspace(0.0, 0.1, 201)
    batch = solve_reference(p, x0, u, shared).states
    assert batch.shape == (201, 5, 4)
    for i in range(5):
        np.testing.assert_array_equal(batch[:, i], solve_reference(p, x0[i], u[i], shared).states)
    ends = np.array([0.01, 0.1, 0.037, 0.08, 0.05])
    per_row = np.linspace(0.0, ends, 101)
    batch = solve_reference(p, x0, u, per_row).states
    for i in range(5):
        serial = solve_reference(p, x0[i], u[i], np.linspace(0.0, ends[i], 101)).states
        np.testing.assert_array_equal(batch[:, i], serial)


def test_dataset_targets_equal_serial_oracle():
    cfg = preset_config("pendulum")
    p = inverted_pendulum()
    data = build_dataset(cfg, p)
    n = cfg.data_count
    steps = math.ceil(p.box.t[1] / REFERENCE_STEP)
    for i in range(n):
        grid = np.linspace(0.0, data.t[i], steps + 1)
        expected = solve_reference(p, data.x0[i], data.u[i], grid).states[-1]
        np.testing.assert_array_equal(data.x_target[i], expected)


def test_reference_shape_mismatches_rejected():
    p = inverted_pendulum()
    x0, u = _pendulum_batch(3, 0)
    grid = np.linspace(0.0, 0.1, 11)
    with pytest.raises(ConfigurationError):
        solve_reference(p, x0[:, :3], u, grid)
    with pytest.raises(ConfigurationError):
        solve_reference(p, x0, u[:2], grid)
    with pytest.raises(ConfigurationError):
        solve_reference(p, x0[0], u, grid)
    with pytest.raises(ConfigurationError):
        solve_reference(p, x0, u, np.linspace(0.0, [0.1, 0.1], 11))


def test_bad_grid_rejected():
    p = decay_1d()
    with pytest.raises(ConfigurationError):
        solve_reference(p, [2.0], (), np.array([0.5, 1.0]))
    with pytest.raises(ConfigurationError):
        solve_reference(p, [2.0], (), np.array([0.0, 1.0, 1.0]))


def test_degenerate_grid_returns_initial_state():
    traj = solve_reference(decay_1d(), [2.0], (), np.array([0.0]))
    assert traj.states.shape == (1, 1)
    assert traj.states[0, 0] == 2.0


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0, 0.5]), states=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 1)))
