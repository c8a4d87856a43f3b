import importlib

import numpy as np
import pytest

from pinncert import presets
from pinncert.autodiff import Dual, Tape
from pinncert.config import preset_config
from pinncert.network import (MlpJet, Network, flatten_params, forward, init_network,
                              parameter_gradient, set_params)
from pinncert.ode import ConfigurationError, decay_1d
from pinncert.train import (CollocationSet, DataSet, DivergenceError,
                            TrainingRun, _loss_and_grad, adam_step, anchor_dataset,
                            assemble_inputs, eta_weights, export_loss_history,
                            infer_layout, loss_data, loss_physics,
                            sample_collocation, train)


def linear_time_net(slope, intercept):
    """One-layer net t -> slope * t + intercept, with layout metadata."""
    return Network([1, 1], [np.array([[float(slope)]])],
                   [np.array([float(intercept)])], meta={"inputs": ["t"]})


# -- sampling -------------------------------------------------------------

def test_degenerate_box_is_point_mass():
    colloc = sample_collocation(decay_1d(), 1, seed=0)
    assert colloc.x0[0, 0] == 2.0


def test_decay_preset_sampling_stays_in_box():
    colloc = sample_collocation(decay_1d(), 200, seed=4)
    assert len(colloc) == 200
    assert np.all((colloc.t >= 0.0) & (colloc.t <= 2.0))
    assert np.all(colloc.x0 == 2.0)
    assert colloc.u.shape == (200, 0)


def test_sampling_deterministic_per_seed():
    a = sample_collocation(decay_1d(), 50, seed=7)
    b = sample_collocation(decay_1d(), 50, seed=7)
    c = sample_collocation(decay_1d(), 50, seed=8)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.x0, b.x0)
    assert not np.array_equal(a.t, c.t)


def test_sampling_count_validated():
    with pytest.raises(ConfigurationError):
        sample_collocation(decay_1d(), 0, seed=0)


# -- losses ---------------------------------------------------------------

def test_loss_data_zero_when_exact():
    net = linear_time_net(0.0, 2.0)
    ds = anchor_dataset(decay_1d(), [[2.0]])
    assert loss_data(net, ds, decay_1d()) == 0.0


def test_loss_data_hand_value_two_components():
    # constant prediction (0.3, 0.4) against target (0, 0): 0.09 + 0.16
    net = Network([1, 2], [np.zeros((2, 1))], [np.array([0.3, 0.4])],
                  meta={"inputs": ["t"]})
    ds = DataSet(t=np.array([0.5]), x0=np.zeros((1, 2)), x_target=np.zeros((1, 2)))
    assert loss_data(net, ds) == pytest.approx(0.25, rel=1e-15)


def test_loss_data_is_mean_over_records():
    # squared errors 1 and 3 average to 2
    net = Network([1, 1], [np.zeros((1, 1))], [np.zeros(1)], meta={"inputs": ["t"]})
    ds = DataSet(t=np.array([0.1, 0.2]), x0=np.zeros((2, 1)),
                 x_target=np.array([[1.0], [np.sqrt(3.0)]]))
    assert loss_data(net, ds) == pytest.approx(2.0, rel=1e-14)


def test_loss_data_rejects_empty():
    with pytest.raises(ConfigurationError):
        loss_data(linear_time_net(0, 2), DataSet(t=np.zeros(0), x0=np.zeros((0, 1)),
                                                 x_target=np.zeros((0, 1))))


def _point_colloc(problem, t_values):
    t = np.asarray(t_values, dtype=float)
    return CollocationSet(t=t, x0=np.full((len(t), 1), 2.0),
                          u=np.zeros((len(t), 0)), seed=0, box=problem.box)


def test_loss_physics_hand_value():
    # candidate 2 - 4t for decay: R(t) = -8t, so |R| = 0.5 at t = 1/16
    problem = decay_1d()
    net = linear_time_net(-4.0, 2.0)
    colloc = _point_colloc(problem, [1.0 / 16.0])
    assert loss_physics(net, problem, colloc) == pytest.approx(0.25, rel=1e-12)
    assert loss_physics(net, problem, colloc,
                        eta=lambda t: 4.0) == pytest.approx(1.0, rel=1e-12)


def test_loss_physics_permutation_invariant():
    problem = decay_1d()
    net = linear_time_net(-4.0, 2.0)
    t = np.random.default_rng(1).uniform(0, 2, size=9)
    a = loss_physics(net, problem, _point_colloc(problem, t))
    b = loss_physics(net, problem, _point_colloc(problem, t[::-1]))
    assert a == b


def test_loss_physics_rejects_empty():
    problem = decay_1d()
    with pytest.raises(ConfigurationError):
        loss_physics(linear_time_net(0, 2), problem, _point_colloc(problem, []))


def test_eta_breakpoint_table_interpolates():
    eta = [(0.0, 1.0), (2.0, 3.0)]
    np.testing.assert_allclose(eta_weights(eta, [0.0, 1.0, 2.0]), [1.0, 2.0, 3.0])
    np.testing.assert_allclose(eta_weights(None, [0.3, 0.7]), [1.0, 1.0])


# -- optimizers -----------------------------------------------------------

def test_adam_step_matches_hand_computation():
    theta = np.array([1.0])
    grad = np.array([0.5])
    m0 = np.array([0.2])
    v0 = np.array([0.3])
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    new_theta, m, v = adam_step(theta, grad, m0, v0, step=3, lr=lr,
                                beta1=b1, beta2=b2, eps=eps)
    m_ref = b1 * 0.2 + (1 - b1) * 0.5
    v_ref = b2 * 0.3 + (1 - b2) * 0.25
    m_hat = m_ref / (1 - b1 ** 3)
    v_hat = v_ref / (1 - b2 ** 3)
    theta_ref = 1.0 - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert abs(m[0] - m_ref) <= 1e-12
    assert abs(v[0] - v_ref) <= 1e-12
    assert abs(new_theta[0] - theta_ref) <= 1e-12


def test_zero_epochs_leaves_network_unchanged():
    problem = decay_1d()
    net = init_network([1, 4, 1], seed=3, meta={"inputs": ["t"]})
    before = flatten_params(net).copy()
    run = TrainingRun(epochs=0)
    _, history = train(net, problem, anchor_dataset(problem, [[2.0]]),
                       sample_collocation(problem, 20, 0), run)
    assert history == []
    np.testing.assert_array_equal(flatten_params(net), before)


def test_training_reduces_loss_and_records_finite_history():
    problem = decay_1d()
    net = init_network([1, 4, 1], seed=3, meta={"inputs": ["t"]})
    run = TrainingRun(epochs=200, seed=3)
    _, history = train(net, problem, anchor_dataset(problem, [[2.0]]),
                       sample_collocation(problem, 50, 3), run)
    assert len(history) == 200
    totals = np.array([h[0] for h in history])
    assert np.all(np.isfinite(totals))
    assert totals[-1] <= totals[0]


def test_training_deterministic_per_seed():
    problem = decay_1d()
    nets = []
    for _ in range(2):
        net = init_network([1, 4, 1], seed=5, meta={"inputs": ["t"]})
        train(net, problem, anchor_dataset(problem, [[2.0]]),
              sample_collocation(problem, 30, 5), TrainingRun(epochs=50, seed=5))
        nets.append(flatten_params(net).copy())
    np.testing.assert_array_equal(nets[0], nets[1])


def test_lbfgs_reduces_loss():
    problem = decay_1d()
    net = init_network([1, 4, 1], seed=1, meta={"inputs": ["t"]})
    run = TrainingRun(epochs=60, optimizer="lbfgs")
    _, history = train(net, problem, anchor_dataset(problem, [[2.0]]),
                       sample_collocation(problem, 30, 1), run)
    assert history[-1][0] < history[0][0]
    assert len(history) == 60


def test_supervised_regression_fits_decay_curve():
    # pure data loss on exact samples of 2 e^{-2t}
    problem = decay_1d()
    t = np.linspace(0.0, 2.0, 40)
    ds = DataSet(t=t, x0=np.full((40, 1), 2.0),
                 x_target=2.0 * np.exp(-2.0 * t)[:, None])
    net = init_network([1, 4, 4, 1], seed=0, meta={"inputs": ["t"]})
    run = TrainingRun(gamma_phys=0.0, epochs=5000, lr=1e-2, seed=0)
    _, history = train(net, problem, ds, None, run)
    assert history[-1][0] <= 1e-4


def test_total_loss_gradient_matches_finite_differences():
    problem = decay_1d()
    net = init_network([1, 4, 1], seed=6, meta={"inputs": ["t"]})
    ds = anchor_dataset(problem, [[2.0]])
    colloc = sample_collocation(problem, 5, 6)
    run = TrainingRun()
    layout = infer_layout(net, problem)
    eta_w = eta_weights(None, colloc.t)
    total, _, _, grad = _loss_and_grad(net, problem, ds, colloc, run, layout, eta_w)

    def objective(theta):
        set_params(net, theta)
        return (run.gamma_data * loss_data(net, ds, problem)
                + run.gamma_phys * loss_physics(net, problem, colloc))

    theta0 = flatten_params(net).copy()
    h = 1e-6
    fd = np.empty_like(theta0)
    for i in range(len(theta0)):
        up = theta0.copy(); up[i] += h
        down = theta0.copy(); down[i] -= h
        fd[i] = (objective(up) - objective(down)) / (2 * h)
    set_params(net, theta0)
    scale = np.maximum(np.abs(fd), 1e-8)
    assert np.max(np.abs(grad - fd) / scale) <= 1e-5


def test_divergence_reported_with_epoch():
    problem = decay_1d()
    net = linear_time_net(0.0, 2.0)
    ds = DataSet(t=np.array([0.0]), x0=np.array([[2.0]]),
                 x_target=np.array([[np.inf]]))
    with pytest.raises(DivergenceError) as exc, np.errstate(invalid="ignore"):
        train(net, problem, ds, _point_colloc(problem, [0.5]), TrainingRun(epochs=5))
    assert exc.value.epoch == 0


def test_run_validation():
    with pytest.raises(ConfigurationError):
        TrainingRun(gamma_data=-1.0).validate()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            TrainingRun(gamma_data=bad).validate()
        with pytest.raises(ConfigurationError):
            TrainingRun(gamma_phys=bad).validate()
    with pytest.raises(ConfigurationError):
        TrainingRun(gamma_data=0.0, gamma_phys=0.0).validate()
    with pytest.raises(ConfigurationError):
        TrainingRun(optimizer="sgd").validate()
    # a negative lr climbs the loss, and a negative epoch count would run none
    for bad in ({"lr": -0.01}, {"lr": float("nan")}, {"lr": float("inf")}, {"epochs": -3}):
        with pytest.raises(ConfigurationError):
            TrainingRun(**bad).validate()


def test_assemble_inputs_layout_order():
    X = assemble_inputs(["t", "x0", "u"], [0.5], np.array([[1.0, 2.0]]),
                        np.array([[3.0]]))
    np.testing.assert_array_equal(X, [[0.5, 1.0, 2.0, 3.0]])
    # one (x0, u) row repeats at every time
    t = np.array([0.0, 0.25, 1.5])
    X = assemble_inputs(["t", "x0", "u"], t, [1.0, 2.0], [3.0])
    np.testing.assert_array_equal(
        X, assemble_inputs(["t", "x0", "u"], t, np.tile([1.0, 2.0], (3, 1)),
                           np.tile([3.0], (3, 1))))


def test_infer_layout_from_width():
    problem = decay_1d()
    assert infer_layout(Network([1, 1], [np.zeros((1, 1))], [np.zeros(1)]),
                        problem) == ["t"]
    assert infer_layout(Network([2, 1], [np.zeros((1, 2))], [np.zeros(1)]),
                        problem) == ["t", "x0"]
    with pytest.raises(ConfigurationError):
        infer_layout(Network([5, 1], [np.zeros((1, 5))], [np.zeros(1)]), problem)


def test_layout_without_metadata_or_problem_is_a_configuration_error():
    net = Network([1, 1], [np.ones((1, 1))], [np.zeros(1)])
    ds = DataSet(t=np.zeros(1), x0=np.ones((1, 1)), x_target=np.ones((1, 1)))
    with pytest.raises(ConfigurationError, match="inputs"):
        loss_data(net, ds)
    assert loss_data(net, ds, decay_1d()) == 1.0      # the width fixes the layout


def test_export_loss_history(tmp_path):
    path = tmp_path / "loss.csv"
    export_loss_history([(1.0, 0.5, 0.5), (0.25, 0.1, 0.15)], path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data, [[0, 1.0, 0.5, 0.5], [1, 0.25, 0.1, 0.15]])


# -- the training kernel against the tape -----------------------------------

def _taped_loss_and_grad(net, problem, dataset, colloc, run, eta_w):
    """The whole loss recorded on one general tape: the network through
    ``forward(net, X, tape)`` and ``forward(net, Dual(X, e_t), tape)``, the
    weights bound as the tape's leaves."""
    layout = infer_layout(net, problem)
    tape = Tape()
    total, l_data, l_phys = None, 0.0, 0.0
    if run.gamma_data > 0 and dataset is not None and len(dataset):
        X = assemble_inputs(layout, dataset.t, dataset.x0, dataset.u)
        diff = forward(net, X, tape) - dataset.x_target
        loss = (diff * diff).sum(axis=1).mean()
        l_data, total = float(loss.value), run.gamma_data * loss
    if run.gamma_phys > 0 and colloc is not None and len(colloc):
        X = assemble_inputs(layout, colloc.t, colloc.x0, colloc.u)
        e_t = np.zeros_like(X)
        e_t[:, 0] = 1.0
        out = forward(net, Dual(X, e_t), tape)
        y, ydot = out.value, out.derivative
        f = problem.rhs(colloc.t, [y[:, i] for i in range(problem.dim)],
                        [colloc.u[:, j] for j in range(colloc.u.shape[1])])
        r = [ydot[:, i] - f[i] for i in range(problem.dim)]
        sq = r[0] * r[0]
        for r_i in r[1:]:
            sq = sq + r_i * r_i
        loss = (eta_w * sq).mean()
        l_phys, term = float(loss.value), run.gamma_phys * loss
        total = term if total is None else total + term
    return float(total.value), l_data, l_phys, parameter_gradient(net, total)


def _preset_problem(name, activation="tanh", colloc_count=300, **run_overrides):
    cfg = preset_config(name)
    cfg.activation = activation
    problem = presets.build_problem(cfg)
    net = presets.build_network(cfg, problem)
    dataset = presets.build_dataset(cfg, problem)
    colloc = sample_collocation(problem, colloc_count, cfg.seed)
    run = presets.build_training_run(cfg)
    for key, value in run_overrides.items():
        setattr(run, key, value)
    return net, problem, dataset, colloc, run


def _kernel_and_tape(net, problem, dataset, colloc, run, steps):
    """(kernel, tape) evaluations after ``steps`` Adam steps taken on the
    tape's gradients."""
    layout = infer_layout(net, problem)
    eta_w = eta_weights(run.eta, colloc.t) if colloc is not None else None
    theta = flatten_params(net)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for step in range(steps):
        grad = _taped_loss_and_grad(net, problem, dataset, colloc, run, eta_w)[3]
        theta, m, v = adam_step(theta, grad, m, v, step + 1, run.lr)
        set_params(net, theta)
    return (_loss_and_grad(net, problem, dataset, colloc, run, layout, eta_w),
            _taped_loss_and_grad(net, problem, dataset, colloc, run, eta_w))


@pytest.mark.parametrize("steps", [0, 20])
@pytest.mark.parametrize("name", ["decay1d", "pendulum"])
def test_tanh_kernel_equals_the_tape_bit_for_bit(name, steps):
    kernel, taped = _kernel_and_tape(*_preset_problem(name), steps)
    for a, b in zip(kernel, taped):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("activation", ["gelu", "silu", "sigmoid"])
@pytest.mark.parametrize("name", ["decay1d", "pendulum"])
def test_other_activations_match_the_tape(name, activation):
    for steps in (0, 20):
        kernel, taped = _kernel_and_tape(*_preset_problem(name, activation), steps)
        for a, b in zip(kernel, taped):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))


@pytest.mark.parametrize("case", ["data_only", "physics_only", "eta_breakpoints"])
def test_kernel_loss_variants_equal_the_tape(case):
    net, problem, dataset, colloc, run = _preset_problem("pendulum", colloc_count=200)
    if case == "data_only":
        run.gamma_phys = 0.0
    elif case == "physics_only":
        dataset = None
    else:
        run.eta = [(0.0, 2.0), (0.05, 0.5), (0.1, 1.0)]
    kernel, taped = _kernel_and_tape(net, problem, dataset, colloc, run, steps=3)
    assert (kernel[1] == 0.0) == (case == "physics_only")
    assert (kernel[2] == 0.0) == (case == "data_only")
    for a, b in zip(kernel, taped):
        assert np.array_equal(a, b)


def test_kernel_with_both_terms_empty_is_a_configuration_error():
    net, problem, _, colloc, run = _preset_problem("decay1d", colloc_count=10)
    layout = infer_layout(net, problem)
    with pytest.raises(ConfigurationError, match="nothing to train on"):
        _loss_and_grad(net, problem, None, None, run, layout, None)
    run.gamma_phys = 0.0      # collocation points, but no weight on them
    with pytest.raises(ConfigurationError, match="nothing to train on"):
        _loss_and_grad(net, problem, None, colloc, run, layout, None)


@pytest.mark.parametrize("optimizer", ["adam", "lbfgs"])
def test_kernel_buffers_are_built_once_per_set_per_train_call(monkeypatch, optimizer):
    built = []

    class CountingJet(MlpJet):
        def __init__(self, *args, **kwargs):
            built.append(len(args[1]))
            super().__init__(*args, **kwargs)

    # the package's ``train`` attribute is the function; patch the module
    monkeypatch.setattr(importlib.import_module("pinncert.train"), "MlpJet", CountingJet)
    net, problem, dataset, colloc, run = _preset_problem(
        "decay1d", colloc_count=30, epochs=15, optimizer=optimizer)
    train(net, problem, dataset, colloc, run)
    assert sorted(built) == [1, 30]      # the one anchor row and the collocation set
    built.clear()
    run.gamma_phys = 0.0
    train(net, problem, dataset, colloc, run)
    assert built == [1]


def test_kernel_rejects_input_rows_of_the_wrong_width():
    net = init_network([2, 3, 1], seed=0)
    with pytest.raises(ValueError, match="input rows"):
        MlpJet(net, np.zeros((4, 3)))
