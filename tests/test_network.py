import re

import numpy as np
import pytest

from pinncert.autodiff import ACTIVATIONS, Dual, Tape, UsageError
from pinncert.network import (MlpJet, Network, ShapeError, flatten_params,
                              forward, forward_on_tape, init_network,
                              input_jacobian, load_network, parameter_gradient,
                              save_network, set_params, time_tangent)
from tape_reference import BoundWeights, _forward_any


def reference_forward(net, x):
    """Independent straightforward per-neuron re-implementation."""
    act = {
        "tanh": np.tanh,
        "sigmoid": lambda v: 1 / (1 + np.exp(-v)),
    }[net.activation]
    h = list(x)
    n_layers = len(net.weights)
    for k in range(n_layers):
        out = []
        for i in range(net.layer_dims[k + 1]):
            s = net.biases[k][i]
            for j in range(net.layer_dims[k]):
                s += net.weights[k][i][j] * h[j]
            out.append(s)
        h = [act(v) for v in out] if k < n_layers - 1 else out
    return np.array(h)


def test_zero_network_maps_to_zero():
    net = init_network([2, 3, 2], seed=0)
    for w in net.weights:
        w[:] = 0.0
    assert np.all(forward(net, [1.7, -2.2]) == 0.0)


def test_single_layer_identity():
    net = Network([1, 1], [np.array([[1.0]])], [np.zeros(1)])
    assert forward(net, [3.0])[0] == 3.0


def test_forward_matches_independent_reimplementation():
    net = init_network([1, 4, 4, 1], seed=11)
    for x in (0.5, -1.2, 2.0):
        np.testing.assert_allclose(forward(net, [x]), reference_forward(net, [x]),
                                   rtol=1e-14)


def test_forward_rejects_wrong_width():
    net = init_network([2, 3, 1], seed=0)
    with pytest.raises(ShapeError):
        forward(net, [1.0, 2.0, 3.0])


def test_forward_deterministic():
    net = init_network([1, 4, 1], seed=5)
    a = forward(net, [0.3])
    b = forward(net, [0.3])
    assert np.array_equal(a, b)


def test_seeded_init_reproducible():
    a = init_network([2, 8, 2], seed=42)
    b = init_network([2, 8, 2], seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
    c = init_network([2, 8, 2], seed=43)
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_affine_jacobian_equals_weight_matrix():
    w = np.array([[1.5, -2.0], [0.5, 3.0]])
    net = Network([2, 2], [w.copy()], [np.array([0.3, -0.1])])
    np.testing.assert_array_equal(input_jacobian(net, np.zeros(2)), w)


def test_scalar_tanh_derivative_at_zero():
    net = Network([1, 1, 1], [np.array([[1.0]]), np.array([[1.0]])],
                  [np.zeros(1), np.zeros(1)])
    assert input_jacobian(net, np.zeros(1))[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_input_jacobian_matches_central_differences():
    net = init_network([1, 4, 4, 1], seed=7)
    x = np.array([0.37])
    h = 1e-5
    fd = (forward(net, x + h) - forward(net, x - h)) / (2 * h)
    jac = input_jacobian(net, x)
    assert jac[0, 0] == pytest.approx(fd[0], rel=1e-6)


def test_parameter_gradient_hand_case():
    # loss = (forward(x) - y)^2, linear net w=2, b=0, x=1, y=0: d/dw = 4
    net = Network([1, 1], [np.array([[2.0]])], [np.zeros(1)])
    tape = Tape()
    out = forward_on_tape(tape, net, np.array([[1.0]]))
    loss = ((out - 0.0) ** 2).sum()
    grad = parameter_gradient(net, loss)
    assert grad[0] == pytest.approx(4.0)
    assert grad[1] == pytest.approx(4.0)  # d/db = 2*(2-0)*1


def test_zero_loss_zero_gradient():
    net = Network([1, 1], [np.array([[2.0]])], [np.zeros(1)])
    tape = Tape()
    out = forward_on_tape(tape, net, np.array([[1.0]]))
    loss = ((out - 2.0) ** 2).sum()
    grad = parameter_gradient(net, loss)
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def _fd_parameter_gradient(net, x, y, h=1e-6):
    theta0 = flatten_params(net)
    fd = np.empty_like(theta0)
    for i in range(len(theta0)):
        for sign, store in ((+1, 0), (-1, 1)):
            theta = theta0.copy()
            theta[i] += sign * h
            set_params(net, theta)
            val = float(np.sum((forward(net, x) - y) ** 2))
            if sign > 0:
                up = val
            else:
                down = val
        fd[i] = (up - down) / (2 * h)
    set_params(net, theta0)
    return fd


def test_parameter_gradient_matches_finite_differences():
    net = init_network([1, 4, 1], seed=2)
    x, y = np.array([0.8]), np.array([0.5])
    tape = Tape()
    out = forward_on_tape(tape, net, x[None, :])
    loss = ((out - y) ** 2).sum()
    grad = parameter_gradient(net, loss)
    fd = _fd_parameter_gradient(net, x, y)
    scale = np.maximum(np.abs(fd), 1e-8)
    assert np.max(np.abs(grad - fd) / scale) <= 1e-6


def test_forward_reverse_consistency_per_parameter():
    # reverse-mode dL/dtheta equals forward-mode dL/dtheta, parameter by parameter
    net = init_network([1, 3, 1], seed=9)   # 10 parameters
    x = np.array([0.4])
    tape = Tape()
    out = forward_on_tape(tape, net, x[None, :])
    loss = (out ** 2).sum()
    grad = parameter_gradient(net, loss)
    idx = 0
    for k in range(len(net.weights)):
        for arr_name in ("weights", "biases"):
            arr = getattr(net, arr_name)[k]
            for flat_i in range(arr.size):
                seed_w = [np.zeros_like(w) for w in net.weights]
                seed_b = [np.zeros_like(b) for b in net.biases]
                seed_arr = (seed_w if arr_name == "weights" else seed_b)[k]
                seed_arr.flat[flat_i] = 1.0
                dual_w = [Dual(w, sw) for w, sw in zip(net.weights, seed_w)]
                dual_b = [Dual(b, sb) for b, sb in zip(net.biases, seed_b)]
                out_d = _forward_any(dual_w, dual_b, net.activation, x[None, :])
                fwd = float(np.sum(2 * out_d.value * out_d.derivative))
                assert abs(grad[idx] - fwd) <= 1e-10
                idx += 1


def test_taped_dual_forward_matches_explicit_leaves():
    # forward(net, Dual(X, e_t), tape), the kernel, against the weights bound
    # as tape leaves by hand
    net = init_network([6, 32, 32, 4], seed=3)
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(7, 6))
    results = []
    for via_forward in (True, False):
        tape = Tape()
        bound = None if via_forward else BoundWeights(net, tape)
        out = (forward(net, Dual(X, time_tangent(X)), tape) if via_forward
               else bound.forward(Dual(X, time_tangent(X))))
        loss = ((out.value * out.derivative) ** 2).sum()
        results.append((out.value.value, out.derivative.value,
                        parameter_gradient(net, loss) if via_forward else bound.gradient(loss)))
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def test_forward_checks_width_on_dual_value_and_sums_taped_calls():
    net = init_network([2, 3, 1], seed=0)
    with pytest.raises(ShapeError):
        forward(net, Dual(np.zeros((4, 3)), np.zeros((4, 3))))
    a, b = np.random.default_rng(1).uniform(-1.0, 1.0, size=(2, 4, 2))

    def grad(*inputs):
        tape = Tape()
        return parameter_gradient(net, sum(((forward(net, x, tape) - 0.5) ** 2).sum()
                                           for x in inputs))

    np.testing.assert_array_equal(grad(a, b), grad(a) + grad(b))
    tape = Tape()
    bound = BoundWeights(net, tape)
    want = bound.gradient(sum(((bound.forward(x) - 0.5) ** 2).sum() for x in (a, b)))
    np.testing.assert_array_equal(grad(a, b), want)


@pytest.mark.parametrize("tangent", [False, True])
def test_taped_forward_of_a_vector_gives_a_vector(tangent):
    # against the reference on the one-row batch, whose output row is taken
    net = init_network([3, 5, 2], seed=4)
    x, e_t = np.array([0.3, -0.7, 1.1]), np.array([1.0, 0.0, 0.0])
    results = []
    for via_forward in (True, False):
        tape = Tape()
        bound = None if via_forward else BoundWeights(net, tape)
        v, d = (x, e_t) if via_forward else (x[None, :], e_t[None, :])
        inputs = Dual(v, d) if tangent else v
        out = forward(net, inputs, tape) if via_forward else bound.forward(inputs)[0]
        y = out.value if tangent else out
        loss = ((y - 0.2) ** 2).sum() + ((out.derivative * y).sum() if tangent else 0.0)
        assert y.shape == (2,)
        results.append(parameter_gradient(net, loss) if via_forward else bound.gradient(loss))
    np.testing.assert_array_equal(*results)


def test_set_params_after_a_taped_forward_keeps_the_recorded_gradient():
    # parameter_gradient differentiates the recorded evaluation, with the
    # weights it used, whatever the network holds by then
    net = init_network([2, 5, 3], seed=6)
    X = np.random.default_rng(6).uniform(-1.0, 1.0, size=(6, 2))
    theta = flatten_params(net)

    def loss_of(out):
        return ((out.value * out.derivative) ** 2).sum()

    tape = Tape()
    bound = BoundWeights(net, tape)
    want = bound.gradient(loss_of(bound.forward(Dual(X, time_tangent(X)))))
    loss = loss_of(forward(net, Dual(X, time_tangent(X)), Tape()))
    set_params(net, theta + 0.25)
    np.testing.assert_array_equal(parameter_gradient(net, loss), want)


def test_taped_forward_rejects_taped_inputs():
    net = init_network([2, 3, 1], seed=0)
    tape = Tape()
    x = np.zeros((4, 2))
    for taped in (tape.var(x), Dual(tape.var(x), x), Dual(x, tape.var(x))):
        with pytest.raises(UsageError, match="taped"):
            forward(net, taped, tape)
    assert not tape._kernels


def test_forward_rejects_a_0d_input_naming_the_width():
    net = init_network([1, 3, 1], seed=0)
    for x in (0.5, np.float64(0.5), Dual(0.5, 1.0)):
        for tape in (None, Tape()):
            with pytest.raises(ShapeError, match=r"shape \(\) does not have the width 1"):
                forward(net, x, tape)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", [[6, 32, 32, 4], [3, 2]], ids=["hidden", "no-hidden"])
@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_untaped_forward_equals_the_kernel_bit_for_bit(activation, dims):
    # the in-place pass against MlpJet on one-row to 600-row batches; for
    # tanh also against the generic evaluator on the plain weights
    net = init_network(dims, activation, seed=4)
    rng = np.random.default_rng(5)
    for rows in (1, 2, 3, 5, 16, 17, 64, 101, 201, 600):
        x = rng.uniform(-2.0, 2.0, size=(rows, net.n_in))
        tangent = rng.uniform(-1.0, 1.0, size=x.shape)
        y = forward(net, x)
        out = forward(net, Dual(x, tangent))
        assert _same_bits(y, MlpJet(net, x).forward()[0])
        want, want_dot = MlpJet(net, x, tangent).forward()
        assert _same_bits(out.value, want) and _same_bits(out.derivative, want_dot)
        assert _same_bits(forward(net, Dual(x, time_tangent(x))).derivative,
                          MlpJet(net, x, time_tangent(x)).forward()[1])
        if activation == "tanh":
            assert _same_bits(y, _forward_any(net.weights, net.biases, "tanh", x))
            reference = _forward_any(net.weights, net.biases, "tanh", Dual(x, tangent))
            assert _same_bits(out.value, reference.value)
            assert _same_bits(out.derivative, reference.derivative)
    # a 1-D input gives the one-row batch's output as a vector
    row = forward(net, Dual(x[:1], tangent[:1]))
    one = forward(net, Dual(x[0], tangent[0]))
    assert _same_bits(forward(net, x[0]), row.value[0]) and _same_bits(one.value, row.value[0])
    assert _same_bits(one.derivative, row.derivative[0])


def test_untaped_forward_leaves_its_inputs_unchanged_and_rejects_taped_values():
    net = init_network([2, 5, 3], seed=0)
    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 2))
    tangent = time_tangent(x)
    kept = x.copy(), tangent.copy()
    forward(net, Dual(x, tangent))
    forward(net, x)
    assert _same_bits(x, kept[0]) and _same_bits(tangent, kept[1])
    tape = Tape()
    for taped in (tape.var(x), Dual(tape.var(x), x), Dual(x, tape.var(x))):
        with pytest.raises(UsageError, match="not taped values"):
            forward(net, taped)


def test_gradient_on_unrecorded_scalar_raises():
    net = init_network([1, 2, 1], seed=0)
    with pytest.raises(UsageError):
        parameter_gradient(net, 1.0)
    tape = Tape()
    loss = tape.var(1.0)
    with pytest.raises(UsageError):
        parameter_gradient(net, loss)   # net never recorded on this tape


# -- kernels recorded on a tape --------------------------------------------

def _column_loss(ys, yds=None):
    """A loss on the output columns ``ys`` (and their d/dt ``yds``)."""
    total = 0.0
    for i, y in enumerate(ys):
        r = y * y - 0.5 * y if yds is None else yds[i] + 0.3 * y * y
        total = total + (r * r).mean()
    return total


def _kernel_case(activation, form, seed=3):
    net = init_network([6, 8, 8, 4], activation, seed=seed)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(9, 6))
    e_t = np.zeros_like(x)
    e_t[:, 0] = 1.0
    tangent = e_t if form == "tangent" else None
    return net, x, tangent


def _bound_gradient(net, x, tangent):
    """The oracle: the weights bound as tape leaves by hand."""
    bound = BoundWeights(net, Tape())
    if tangent is None:
        out = bound.forward(x)
        loss = _column_loss([out[:, i] for i in range(net.n_out)])
    else:
        out = bound.forward(Dual(x, tangent))
        loss = _column_loss([out.value[:, i] for i in range(net.n_out)],
                            [out.derivative[:, i] for i in range(net.n_out)])
    return bound.gradient(loss)


def _recorded_gradient(net, x, tangent, form):
    tape = Tape()
    jet = MlpJet(net, x, tangent)
    y, yd = jet.forward()
    if form == "one_leaf":
        leaf = tape.var(y)
        jet.record(tape, leaf)
        loss = _column_loss([leaf[:, i] for i in range(net.n_out)])
    else:
        cols = [tape.var(y[:, i]) for i in range(net.n_out)]
        dots = None if yd is None else [tape.var(yd[:, i]) for i in range(net.n_out)]
        jet.record(tape, cols, dots)
        loss = _column_loss(cols, dots)
    return parameter_gradient(net, loss)


@pytest.mark.parametrize("form", ["one_leaf", "columns", "tangent"])
@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_recorded_kernel_gradient_equals_the_bound_weights(activation, form):
    net, x, tangent = _kernel_case(activation, form)
    got, want = _recorded_gradient(net, x, tangent, form), _bound_gradient(net, x, tangent)
    if activation == "tanh":
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_two_kernels_on_one_tape_sum_their_gradients():
    net, x, e_t = _kernel_case("tanh", "tangent")
    plain, taped = MlpJet(net, x[:4]), MlpJet(net, x, e_t)

    def grad(jets):
        tape, loss = Tape(), 0.0
        for jet in jets:
            y, yd = jet.forward()
            cols = [tape.var(y[:, i]) for i in range(net.n_out)]
            dots = None if yd is None else [tape.var(yd[:, i]) for i in range(net.n_out)]
            jet.record(tape, cols, dots)
            loss = loss + _column_loss(cols, dots)
        return parameter_gradient(net, loss)

    np.testing.assert_array_equal(grad([plain, taped]), grad([plain]) + grad([taped]))
    # a kernel recorded by hand and the kernel of a taped forward on one tape sum too
    tape = Tape()
    y = tape.var(plain.forward()[0])
    plain.record(tape, y)
    out = forward(net, x[4:], tape)
    loss = _column_loss([y[:, i] for i in range(4)]) + _column_loss([out[:, i] for i in range(4)])
    np.testing.assert_allclose(parameter_gradient(net, loss),
                               grad([plain]) + _bound_gradient(net, x[4:], None),
                               rtol=1e-13, atol=1e-15)


def test_recording_misuse_raises_usage_error():
    net, x, e_t = _kernel_case("tanh", "tangent")
    plain, taped = MlpJet(net, x), MlpJet(net, x, e_t)
    tape, other = Tape(), Tape()
    y = plain.forward()[0]
    with pytest.raises(UsageError, match="no d/dt"):
        plain.record(tape, tape.var(y), tape.var(y))
    with pytest.raises(UsageError, match="leaves"):
        plain.record(tape, other.var(y))                # a leaf of another tape
    with pytest.raises(UsageError, match="leaves"):
        plain.record(tape, tape.var(y) * 2.0)           # not a leaf
    with pytest.raises(UsageError, match="leaves"):
        taped.record(tape, [tape.var(y[:, i]) for i in range(4)], [y[:, 0]])   # not a Var
    # a block of another shape fails in the kernel's reverse
    for pick in (lambda t: t.var(y[:, :3]), lambda t: t.var(y[:5]),
                 lambda t: [t.var(y[:, i]) for i in range(3)]):
        sweep = Tape()
        leaves = pick(sweep)
        plain.record(sweep, leaves)
        cols = leaves if isinstance(leaves, list) else [leaves]
        with pytest.raises(ValueError, match="mismatch"):
            parameter_gradient(net, sum((col * 1.0).sum() for col in cols))
    # a kernel of another network does not record this one
    stranger = init_network([6, 8, 8, 4], seed=4)
    leaf = tape.var(y)
    MlpJet(stranger, x).record(tape, leaf)
    loss = (leaf * 1.0).sum()
    with pytest.raises(UsageError, match="never recorded"):
        parameter_gradient(net, loss)


def test_set_params_rejects_a_wrong_length_vector():
    net = init_network([2, 3, 1], seed=0)
    theta = flatten_params(net)
    for bad in (np.append(theta, 1.0), theta[:-1], theta.reshape(1, -1)):
        with pytest.raises(ShapeError, match=re.escape(f"shape {bad.shape} for a network "
                                                       f"of {len(theta)} parameters")):
            set_params(net, bad)
    np.testing.assert_array_equal(flatten_params(net), theta)     # nothing was written


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_serialization_round_trip_bit_exact(tmp_path, activation):
    net = init_network([2, 5, 3], activation=activation, seed=13,
                       meta={"inputs": ["t", "x0"]})
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.layer_dims == net.layer_dims
    assert loaded.activation == net.activation
    assert loaded.meta == net.meta
    for a, b in zip(loaded.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, net.biases):
        assert np.array_equal(a, b)
