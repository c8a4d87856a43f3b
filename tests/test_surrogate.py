import numpy as np
import pytest
from hypothesis import given, strategies as st

from pinncert import network, surrogate
from pinncert.autodiff import Tape
from pinncert.certify import Certifier, CertifyConfig, bound
from pinncert.network import assemble_inputs, init_network
from pinncert.ode import ConfigurationError, PointSet, decay_1d
from pinncert.surrogate import (asymmetric_loss,
                                evaluate_error_net, export_surrogate_dataset,
                                generate_surrogate_data, load_surrogate_dataset,
                                train_error_net)
from pinncert.train import TrainingRun, anchor_dataset, optimize, sample_collocation, train
from tape_reference import BoundWeights

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


@pytest.fixture(scope="module")
def quick_decay_net():
    problem = decay_1d()
    net = init_network([1, 4, 4, 1], seed=0, meta={"inputs": ["t"]})
    train(net, problem, anchor_dataset([[2.0]]),
          sample_collocation(problem, 100, 0), TrainingRun(epochs=600, seed=0))
    return net


# -- asymmetric loss ------------------------------------------------------

def test_asymmetric_loss_hand_values():
    assert asymmetric_loss(1.0, 1.0, 1000.0) == 0.0
    assert asymmetric_loss(0.9, 1.0, 1000.0) == pytest.approx(10.0, rel=1e-12)
    assert asymmetric_loss(1.1, 1.0, 1000.0) == pytest.approx(0.01, rel=1e-12)


def test_asymmetric_loss_rejects_weight_below_one():
    with pytest.raises(ConfigurationError):
        asymmetric_loss(1.0, 1.0, 0.5)


@pytest.mark.parametrize("w", [0.5, float("nan"), float("inf")])
def test_under_weight_below_one_or_not_finite_is_rejected(w):
    with pytest.raises(ConfigurationError, match="under_weight"):
        asymmetric_loss(np.ones(3), np.zeros(3), w)
    with pytest.raises(ConfigurationError, match="under_weight"):
        train_error_net(_toy_dataset(), [4], TrainingRun(epochs=10), under_weight=w)


def test_array_loss_is_mean_of_weighted_terms():
    pred, target = np.array([0.9, 1.1, 1.0]), np.ones(3)
    assert asymmetric_loss(pred, target, 1000.0) == pytest.approx((10.0 + 0.01) / 3, rel=1e-12)


@given(a=finite, b=finite)
def test_weight_one_is_symmetric(a, b):
    assert asymmetric_loss(a, b, 1.0) == asymmetric_loss(b, a, 1.0)


@given(a=finite, b=finite, w=st.floats(min_value=1, max_value=1e4))
def test_loss_nonnegative_and_zero_iff_equal(a, b, w):
    val = asymmetric_loss(a, b, w)
    assert val >= 0.0
    if a == b:
        assert val == 0.0
    elif abs(a - b) > 1e-100:   # below that, the square underflows to zero
        assert val > 0.0


@given(a=finite, b=finite)
def test_underestimation_costs_more(a, b):
    if a < b:
        assert asymmetric_loss(a, b, 1000.0) >= asymmetric_loss(a, b, 1.0)
        if b - a > 1e-100:
            assert asymmetric_loss(a, b, 1000.0) > asymmetric_loss(a, b, 1.0)


# -- data generation ------------------------------------------------------

def test_generate_is_seeded_and_positive(quick_decay_net):
    problem = decay_1d()
    cfg = CertifyConfig(colloc_count=50)
    a = generate_surrogate_data(quick_decay_net, problem, 12, seed=5, config=cfg)
    b = generate_surrogate_data(quick_decay_net, problem, 12, seed=5, config=cfg)
    assert len(a) == 12
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.target, b.target)
    assert np.all(a.target > 0)


def test_generate_matches_direct_bounds(quick_decay_net):
    problem = decay_1d()
    cfg = CertifyConfig(colloc_count=50)
    ds = generate_surrogate_data(quick_decay_net, problem, 4, seed=9, config=cfg)
    certifier = Certifier(quick_decay_net, problem, cfg)
    for i in range(4):
        direct = bound(certifier.trajectory(ds.x0[i], ds.u[i]), ds.t[i])
        assert ds.target[i] == direct.total


# -- error-net training ---------------------------------------------------

def _toy_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 2, size=n))
    targets = 0.1 + 0.3 * t
    return PointSet(t=t, x0=np.full((n, 1), 2.0), u=np.zeros((n, 0)), target=targets)


def test_error_net_deterministic_and_scalar_output():
    ds = _toy_dataset()
    run = TrainingRun(epochs=200, optimizer="lbfgs", seed=1)
    a = train_error_net(ds, [4, 4], run, under_weight=10.0)
    b = train_error_net(ds, [4, 4], TrainingRun(epochs=200, optimizer="lbfgs", seed=1),
                        under_weight=10.0)
    assert a.layer_dims[-1] == 1
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    pred = evaluate_error_net(a, ds.t, ds.x0, ds.u)
    assert pred.shape == (len(ds),)


def test_degenerate_initial_column_excluded_from_layout():
    # all x0 identical: the indicator should read time only
    net = train_error_net(_toy_dataset(), [4], TrainingRun(epochs=10), 1.0)
    assert net.meta["inputs"] == ["t"]
    assert net.n_in == 1


def test_under_weight_raises_overestimation_fraction():
    ds = _toy_dataset(n=60, seed=3)
    holdout_t = np.linspace(0.0, 2.0, 100)
    holdout_y = 0.1 + 0.3 * holdout_t
    fracs = []
    for w in (1.0, 1000.0):
        run = TrainingRun(epochs=400, optimizer="lbfgs", seed=2)
        net = train_error_net(ds, [4, 4], run, under_weight=w)
        pred = evaluate_error_net(net, holdout_t, np.full((100, 1), 2.0),
                                  np.zeros((100, 0)))
        fracs.append(float(np.mean(pred >= holdout_y)))
    assert fracs[1] > fracs[0]


def _pendulum_shaped_dataset(n=50, seed=4):
    rng = np.random.default_rng(seed)
    return PointSet(t=rng.uniform(0.0, 0.08, n), x0=rng.uniform(-0.5, 0.5, (n, 4)),
                    u=rng.uniform(-5.0, 5.0, (n, 1)), target=rng.lognormal(size=n))


def _taped_fit(dataset, fitted, run, under_weight):
    """The fit with the network on the general tape: its weights bound as
    tape leaves by hand on each evaluation."""
    net = init_network(fitted.layer_dims, activation="tanh", seed=run.seed,
                       meta=dict(fitted.meta))
    X = assemble_inputs(net.meta["inputs"], dataset.t, dataset.x0, dataset.u)

    def evaluate():
        bound = BoundWeights(net, Tape())
        pred = bound.forward(X)[:, 0]
        loss = asymmetric_loss(pred, dataset.target, under_weight)
        return float(loss.value), float(loss.value), 0.0, bound.gradient(loss)

    optimize(net, run, evaluate)
    return net


@pytest.mark.parametrize("arch", [[4, 4], [32, 32]])
@pytest.mark.parametrize("make", [_toy_dataset, _pendulum_shaped_dataset],
                         ids=["decay1d", "pendulum"])
def test_error_net_fit_equals_the_taped_fit_bit_for_bit(make, arch):
    ds = make()
    run = lambda: TrainingRun(epochs=50, optimizer="lbfgs", seed=1)
    fitted = train_error_net(ds, arch, run(), under_weight=1000.0)
    oracle = _taped_fit(ds, fitted, run(), 1000.0)
    for a, b in zip(fitted.weights + fitted.biases, oracle.weights + oracle.biases):
        np.testing.assert_array_equal(a, b)


def test_error_net_fit_calls_parameter_gradient_once_per_evaluation(monkeypatch):
    # each loss evaluation of the fit goes through the module attribute
    # ``parameter_gradient``, the function ``network`` defines
    assert surrogate.parameter_gradient is network.parameter_gradient
    grads, evals = [], []
    real_grad, real_optimize = surrogate.parameter_gradient, surrogate.optimize

    def counting_optimize(net, run, evaluate):
        return real_optimize(net, run, lambda: evals.append(1) or evaluate())

    monkeypatch.setattr(surrogate, "parameter_gradient",
                        lambda net, loss: grads.append(1) or real_grad(net, loss))
    monkeypatch.setattr(surrogate, "optimize", counting_optimize)
    train_error_net(_toy_dataset(), [4, 4], TrainingRun(epochs=20, optimizer="lbfgs"))
    assert len(grads) == len(evals) > 20


def test_error_net_without_input_metadata_is_a_configuration_error():
    net = init_network([1, 4, 1], seed=0)
    with pytest.raises(ConfigurationError, match="inputs"):
        evaluate_error_net(net, [0.5], [2.0], [])


def test_train_error_net_validation():
    empty = PointSet(t=np.zeros(0), x0=np.zeros((0, 1)), u=np.zeros((0, 0)), target=np.zeros(0))
    with pytest.raises(ConfigurationError):
        train_error_net(empty, [4], TrainingRun(epochs=1), 1.0)
    with pytest.raises(ConfigurationError, match="no targets"):
        train_error_net(PointSet(t=np.zeros(3), x0=np.ones((3, 1))), [4], TrainingRun(epochs=1))
    with pytest.raises(ConfigurationError):
        train_error_net(_toy_dataset(), [4], TrainingRun(epochs=1), 0.5)
    # no epochs means no loss evaluation, so asymmetric_loss's own check never runs
    with pytest.raises(ConfigurationError):
        train_error_net(_toy_dataset(), [4], TrainingRun(epochs=0), 0.5)


def test_dataset_export_round_trip(tmp_path):
    # one state without controls, and four states with one control
    rng = np.random.default_rng(2)
    four_states = PointSet(t=rng.uniform(0.0, 0.1, 7), x0=rng.normal(size=(7, 4)),
                           u=rng.normal(size=(7, 1)), target=rng.lognormal(size=7))
    for ds in (_toy_dataset(n=7, seed=2), four_states):
        path = tmp_path / "surr.csv"
        export_surrogate_dataset(ds, path)
        loaded = load_surrogate_dataset(path, dim=ds.x0.shape[1], control_dim=ds.u.shape[1])
        for name in ("t", "x0", "u", "target"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(ds, name), strict=True)
