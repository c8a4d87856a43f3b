import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pinncert.autodiff import Dual, Tape, UsageError, backward, cos, exp, sin, tanh

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-3)


@given(a=finite, ad=finite, b=finite, bd=finite)
def test_dual_product_rule(a, ad, b, bd):
    out = Dual(a, ad) * Dual(b, bd)
    assert out.value == a * b
    assert out.derivative == ad * b + a * bd


@given(a=finite, ad=finite, b=nonzero, bd=finite)
def test_dual_quotient_rule(a, ad, b, bd):
    out = Dual(a, ad) / Dual(b, bd)
    assert out.value == pytest.approx(a / b, rel=1e-12)
    assert out.derivative == pytest.approx((ad * b - a * bd) / (b * b), rel=1e-9, abs=1e-12)


@given(x=finite)
def test_dual_chain_rule_through_composition(x):
    # d/dx sin(x^2) = 2x cos(x^2)
    out = sin(Dual(x, 1.0) ** 2)
    assert out.derivative == pytest.approx(2 * x * math.cos(x * x), rel=1e-10, abs=1e-10)


def test_dual_constant_operand_keeps_tangent():
    d = Dual(3.0, 2.0)
    assert (d + 5.0).derivative == 2.0
    assert (5.0 * d).derivative == 10.0
    assert (5.0 - d).derivative == -2.0


@pytest.mark.parametrize("act", [tanh], ids=["tanh"])
def test_activation_derivative_identities(act):
    for x in np.linspace(-3, 3, 31):
        d = act(Dual(float(x), 1.0))
        assert d.derivative == pytest.approx(1.0 - math.tanh(x) ** 2, abs=1e-12)


def test_tape_scalar_gradient_matches_hand_chain_rule():
    # f(w) = (2w + 1)^2 at w = 3: df/dw = 2*(2w+1)*2 = 28
    tape = Tape()
    w = tape.var(3.0)
    y = (2.0 * w + 1.0) ** 2
    grads = backward(y)
    assert grads[id(w)] == pytest.approx(28.0)


def test_tape_matmul_and_reductions_match_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))

    def f(wmat):
        return np.sum(np.tanh(a @ wmat.T)) ** 2

    tape = Tape()
    wv = tape.var(w)
    loss = (tanh(a @ wv.T).sum()) ** 2
    grads = backward(loss)
    g = grads[id(wv)]
    h = 1e-6
    for i in range(2):
        for j in range(4):
            dw = np.zeros_like(w)
            dw[i, j] = h
            fd = (f(w + dw) - f(w - dw)) / (2 * h)
            assert g[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_tape_broadcast_bias_gradient():
    tape = Tape()
    b = tape.var(np.array([1.0, 2.0]))
    x = np.ones((5, 2))
    loss = (x + b).sum()
    grads = backward(loss)
    np.testing.assert_allclose(grads[id(b)], [5.0, 5.0])


# -- the record-time shape rule: every adjoint has its leaf's shape --------

def _assert_gradients(f, values):
    """The tape's adjoint of every leaf of ``f`` has the leaf's shape and
    equals a central difference of ``f`` on plain arrays."""
    tape = Tape()
    leaves = [tape.var(v) for v in values]
    adjoints = backward(f(*leaves))
    h = 1e-6
    for k, (leaf, v) in enumerate(zip(leaves, values)):
        g = adjoints[id(leaf)]
        assert np.shape(g) == np.shape(v)
        fd = np.empty(np.shape(v))
        for idx in np.ndindex(fd.shape):
            steps = []
            for sign in (1.0, -1.0):
                moved = [np.array(w, dtype=float) for w in values]
                moved[k][idx] += sign * h
                steps.append(f(*moved))
            fd[idx] = (steps[0] - steps[1]) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_SHAPES = [((), (3, 4)), ((4,), (3, 4)), ((3, 1), (3, 4)), ((1, 4), (3, 4))]
_PAIRS = _SHAPES + [pair[::-1] for pair in _SHAPES] + [((3, 4), (3, 4))]
_WEIGHT = np.random.default_rng(1).normal(size=(3, 4))


def _operands(shapes):
    rng = np.random.default_rng(0)
    return [rng.uniform(0.5, 1.5, shape) for shape in shapes]  # away from 0 for /


@pytest.mark.parametrize("shapes", _PAIRS, ids=str)
@pytest.mark.parametrize("op", _OPS)
def test_binary_op_adjoints_reverse_broadcasting(op, shapes):
    _assert_gradients(lambda a, b: (_OPS[op](a, b) * _WEIGHT).sum(), _operands(shapes))


@pytest.mark.parametrize("shapes", _PAIRS, ids=str)
@pytest.mark.parametrize("op", _OPS)
def test_reflected_op_adjoints_reverse_broadcasting(op, shapes):
    # an array on the left: ndarray - Var, ndarray / Var, ...
    const, value = _operands(shapes)
    _assert_gradients(lambda b: (_OPS[op](const, b) * _WEIGHT).sum(), [value])
    _assert_gradients(lambda b: (_OPS[op](2.0, b) * _WEIGHT).sum(), [value])


@pytest.mark.parametrize("f", [lambda x: x * x, lambda x: x / x],
                         ids=["x * x", "x / x"])
def test_var_used_twice_in_one_op(f):
    _assert_gradients(lambda x: (f(x) * _WEIGHT).sum(), _operands([(3, 4)]))


def test_fancy_getitem_adds_repeated_indices():
    rows = [0, 2, 0, 0]
    weight = np.random.default_rng(2).normal(size=(4, 4))
    _assert_gradients(lambda x: (x[rows] * weight).sum(), _operands([(3, 4)]))
    _assert_gradients(lambda x: (x[:, 1] * x[:, 3]).sum(), _operands([(3, 4)]))


@pytest.mark.parametrize("axis", [0, 1, None])
@pytest.mark.parametrize("reduction", ["sum", "mean"])
def test_reductions_and_power(reduction, axis):
    _assert_gradients(lambda x: (getattr(x * _WEIGHT, reduction)(axis=axis) ** 3).sum(),
                      _operands([(3, 4)]))


def test_matmul_in_both_directions():
    m = np.random.default_rng(3).normal(size=(2, 3))
    a, b = _operands([(3, 4), (4, 5)])
    _assert_gradients(lambda x, y: ((x @ y) ** 2).sum(), [a, b])
    _assert_gradients(lambda x: ((m @ x) ** 2).sum(), [a])        # ndarray @ Var
    _assert_gradients(lambda y: ((a @ y).T @ m.T).sum(), [b])


@pytest.mark.parametrize("shapes", [((3,), (3, 2)), ((2, 3), (3,)), ((3,), (3,))], ids=str)
def test_matmul_with_one_dimensional_operands(shapes):
    # numpy promotes a 1-D operand to a row (left) or a column (right) and drops that axis
    a, b = _operands(shapes)
    _assert_gradients(lambda x, y: ((x @ y) ** 2).sum(), [a, b])   # Var @ Var
    _assert_gradients(lambda x: ((x @ b) ** 2).sum(), [a])         # Var @ ndarray
    _assert_gradients(lambda y: ((a @ y) ** 2).sum(), [b])         # ndarray @ Var


def test_backward_on_unrecorded_scalar_raises():
    with pytest.raises(UsageError):
        backward(3.14)


def test_dispatch_functions_agree_with_numpy_on_arrays():
    x = np.linspace(-2, 2, 7)
    np.testing.assert_allclose(exp(x), np.exp(x))
    np.testing.assert_allclose(tanh(x), np.tanh(x))


@pytest.mark.parametrize("f,reference", [
    (exp, np.exp), (sin, np.sin), (cos, np.cos), (tanh, np.tanh),
], ids=["exp", "sin", "cos", "tanh"])
def test_elementary_rule_in_both_modes(f, reference):
    x = np.linspace(-1.9, 2.1, 9)
    np.testing.assert_array_equal(f(x), reference(x))
    h = 1e-5
    central = (reference(x + h) - reference(x - h)) / (2 * h)
    tape = Tape()
    xv = tape.var(x)
    pull = backward(f(xv).sum())[id(xv)]
    tangent = f(Dual(x, np.ones_like(x))).derivative
    np.testing.assert_allclose(pull, central, rtol=1e-7)
    np.testing.assert_allclose(tangent, central, rtol=1e-7)
    np.testing.assert_allclose(pull, tangent, rtol=1e-14, atol=0)
    # a Dual of Vars, the tests' taped oracle, computes the same pair
    nested = f(Dual(tape.var(x), tape.var(np.ones_like(x))))
    np.testing.assert_array_equal(nested.value.value, reference(x))
    np.testing.assert_array_equal(nested.derivative.value, tangent)


@pytest.mark.parametrize("f,reference", [
    (exp, np.exp), (sin, np.sin), (cos, np.cos), (tanh, np.tanh),
], ids=["exp", "sin", "cos", "tanh"])
def test_elementary_float_argument_gives_the_array_result_as_a_float(f, reference):
    # a reference trajectory steps Python floats and a batch steps arrays: both
    # must read the same numbers, so a float takes the numpy function, not math's
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-5, 5, 500), rng.uniform(-1e3, 1e3, 200),
                        rng.uniform(-1e8, 1e8, 100), [0.0, -0.0, 709.0, 710.0, -745.5],
                        [np.inf, -np.inf, np.nan]])
    with np.errstate(all="ignore"):
        values = [f(v) for v in x.tolist()]
        expected = reference(x)
    assert all(type(v) is float for v in values)
    np.testing.assert_array_equal(np.array(values).view(np.uint64), expected.view(np.uint64))


def test_importing_the_cli_does_not_load_scipy():
    # nothing on the CLI's paths needs scipy; importing it would double the start-up time
    code = "import sys, pinncert.cli; print('scipy' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_forward_mode_through_var_components():
    # Dual whose components are tape variables: tangent stays differentiable
    tape = Tape()
    w = tape.var(2.0)
    x = Dual(0.5, 1.0)
    y = tanh(w * x)              # dy/dx = w * (1 - tanh(wx)^2)
    expected = 2.0 * (1.0 - math.tanh(1.0) ** 2)
    assert float(y.derivative.value) == pytest.approx(expected, rel=1e-12)
    # and d(dy/dx)/dw exists via the tape
    grads = backward(y.derivative)
    hh = 1e-6

    def dydx(wv):
        return wv * (1.0 - math.tanh(wv * 0.5) ** 2)

    fd = (dydx(2.0 + hh) - dydx(2.0 - hh)) / (2 * hh)
    assert float(grads[id(w)]) == pytest.approx(fd, rel=1e-6)
