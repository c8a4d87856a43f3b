"""Two-mode automatic differentiation for tiny dense networks.

Reverse mode: a ``Tape`` records array-valued elementary operations
(``Var`` nodes), and a single reverse sweep yields gradients with respect
to every recorded leaf.  A node keeps its local partials as rows, one per
parent: a module-level rule and the operands it reads, plus the parent's
shape when the operation broadcast it.  ``backward`` reads the rows; it
sums an adjoint down to its operand's shape only where that was recorded.
Operations are vectorized over a batch axis so a full-batch training step
costs a few hundred numpy calls, not millions of scalar node allocations.
A network enters a tape only as a kernel recorded behind its output leaves.

Forward mode: ``Dual`` carries (value, tangent) pairs through the same
arithmetic.  The components of a ``Dual`` may themselves be ``Var``s: the
tests' reference for the kernel's gradients, on weights bound by hand.

Both modes read one table of elementary derivatives: each of ``exp``,
``sin``, ``cos``, ``tanh`` and ``erf`` is declared once, as its array
function and its derivative rule.  A Python float argument gives a Python
float, computed by the same numpy function, so a reference trajectory that
steps floats gets the numbers of a batch that steps arrays.
"""

from __future__ import annotations

import math
import operator

import numpy as np


class UsageError(RuntimeError):
    """Raised when a gradient is requested for something never recorded."""


def _unbroadcast(grad, shape):
    """Sum an adjoint down to ``shape`` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad


# -- local partials ---------------------------------------------------------
#
# A node keeps one row (parent, rule, a, b, shape) per parent: the parent's
# contribution to the sweep is ``rule(g, a, b)`` for the node's adjoint g, or
# g itself when ``rule`` is None, summed down to ``shape`` when the operand
# was broadcast (``shape`` is None when it was not).

_times_b = lambda g, a, b: g * b
_times_a = lambda g, a, b: g * a
_over_b = lambda g, a, b: g / b
_quotient = lambda g, a, b: -g * a / (b * b)
_negate = lambda g, a, b: -g
_power = lambda g, a, b: g * b * a ** (b - 1)
_matmul_left = lambda g, a, b: np.reshape(_matrix(g, a, b) @ _column(b).T, a.shape)
_matmul_right = lambda g, a, b: np.reshape(np.atleast_2d(a).T @ _matrix(g, a, b), b.shape)
_transpose = lambda g, a, b: g.T


def _column(b):
    return b if b.ndim > 1 else b[:, np.newaxis]


def _matrix(g, a, b):
    # numpy's matmul promotion: a 1-D left operand is a row, a 1-D right one a column
    return np.reshape(g, (len(np.atleast_2d(a)), _column(b).shape[1]))


def _scatter(g, a, b):
    out = np.zeros_like(a)
    np.add.at(out, b, g)
    return out


def _spread(g, a, b):
    # b is the summed shape with the summed axis kept (None for a full sum)
    out = np.empty(a.shape)
    out[...] = g if b is None else g.reshape(b)
    return out


class Tape:
    """Recording of elementary operations for one reverse sweep, with the
    network kernels recorded behind some of its leaves (``MlpJet.record``,
    which a taped ``network.forward`` calls)."""

    def __init__(self):
        self.nodes = []
        self._kernels = []

    def var(self, value):
        """Create a leaf variable on this tape."""
        return Var(np.asarray(value, dtype=float), self, ())


class Var:
    """A tape-recorded array value with its rows of local partials."""

    __slots__ = ("value", "tape", "parents")
    __array_ufunc__ = None  # force numpy to defer to our reflected ops

    def __init__(self, value, tape, parents):
        self.value = value
        self.tape = tape
        self.parents = parents
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    # -- binary arithmetic ------------------------------------------------

    def _binary(self, other, op, rule_self, rule_other):
        if isinstance(other, Dual):
            return NotImplemented
        ov = other.value if isinstance(other, Var) else np.asarray(other, dtype=float)
        sv = self.value
        out = op(sv, ov)
        rows = [(self, rule_self, sv, ov, None if sv.shape == out.shape else sv.shape)]
        if isinstance(other, Var):
            rows.append((other, rule_other, sv, ov, None if ov.shape == out.shape else ov.shape))
        return Var(out, self.tape, tuple(rows))

    def __add__(self, other):
        return self._binary(other, operator.add, None, None)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub, None, _negate)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        return self._binary(other, operator.mul, _times_b, _times_a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, operator.truediv, _over_b, _quotient)

    def __rtruediv__(self, other):
        ov = np.asarray(other, dtype=float)
        sv = self.value
        out = ov / sv
        return Var(out, self.tape,
                   ((self, _quotient, ov, sv, None if sv.shape == out.shape else sv.shape),))

    def __neg__(self):
        return Var(-self.value, self.tape, ((self, _negate, None, None, None),))

    def __pow__(self, p):
        sv = self.value
        return Var(sv ** p, self.tape, ((self, _power, sv, p, None),))

    def __matmul__(self, other):
        if isinstance(other, Dual):
            return NotImplemented
        ov = other.value if isinstance(other, Var) else np.asarray(other, dtype=float)
        sv = self.value
        rows = [(self, _matmul_left, sv, ov, None)]
        if isinstance(other, Var):
            rows.append((other, _matmul_right, sv, ov, None))
        return Var(sv @ ov, self.tape, tuple(rows))

    def __rmatmul__(self, other):
        ov = np.asarray(other, dtype=float)
        sv = self.value
        return Var(ov @ sv, self.tape, ((self, _matmul_right, ov, sv, None),))

    # -- structure --------------------------------------------------------

    @property
    def T(self):
        return Var(self.value.T, self.tape, ((self, _transpose, None, None, None),))

    def __getitem__(self, idx):
        sv = self.value
        return Var(sv[idx], self.tape, ((self, _scatter, sv, idx, None),))

    def sum(self, axis=None):
        """The sum over one axis, or over all of them."""
        sv = self.value
        kept = None
        if axis is not None:
            axis %= sv.ndim
            kept = sv.shape[:axis] + (1,) + sv.shape[axis + 1:]
        return Var(np.add.reduce(sv, axis=axis), self.tape, ((self, _spread, sv, kept, None),))

    def mean(self, axis=None):
        n = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis) / float(n)


def backward(scalar):
    """Reverse sweep from a recorded scalar; returns {id(Var): adjoint}."""
    if not isinstance(scalar, Var):
        raise UsageError("gradient requested on a value that was never recorded on a tape")
    adjoints = {id(scalar): np.ones(np.shape(scalar.value))}
    for node in reversed(scalar.tape.nodes):
        g = adjoints.get(id(node))
        if g is None:
            continue
        for parent, rule, a, b, shape in node.parents:
            contribution = g if rule is None else rule(g, a, b)
            if shape is not None:
                contribution = _unbroadcast(contribution, shape)
            prev = adjoints.get(id(parent))
            adjoints[id(parent)] = contribution if prev is None else prev + contribution
    return adjoints


class Dual:
    """Forward-mode pair (value, derivative) w.r.t. one chosen scalar input.

    Components may be floats, arrays, or ``Var``s; non-``Dual`` operands are
    treated as constants (zero tangent) so no spurious zero terms are built.
    """

    __slots__ = ("value", "derivative")
    __array_ufunc__ = None

    def __init__(self, value, derivative):
        self.value = value
        self.derivative = derivative

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.derivative + other.derivative)
        return Dual(self.value + other, self.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.derivative - other.derivative)
        return Dual(self.value - other, self.derivative)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.derivative)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.derivative * other.value + self.value * other.derivative)
        return Dual(self.value * other, self.derivative * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value / other.value,
                        (self.derivative * other.value - self.value * other.derivative)
                        / (other.value * other.value))
        return Dual(self.value / other, self.derivative / other)

    def __rtruediv__(self, other):
        return Dual(other / self.value,
                    -other * self.derivative / (self.value * self.value))

    def __neg__(self):
        return Dual(-self.value, -self.derivative)

    def __pow__(self, p):
        return Dual(self.value ** p,
                    p * self.value ** (p - 1) * self.derivative)

    def __matmul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value @ other.value,
                        self.derivative @ other.value + self.value @ other.derivative)
        return Dual(self.value @ other, self.derivative @ other)

    def __rmatmul__(self, other):
        return Dual(other @ self.value, other @ self.derivative)

    def __getitem__(self, idx):
        return Dual(self.value[idx], self.derivative[idx])

    @property
    def T(self):
        return Dual(self.value.T, self.derivative.T)

    def __repr__(self):
        return f"Dual({self.value!r}, {self.derivative!r})"


# -- elementary functions: one derivative rule each -----------------------
#
# Each function works uniformly on floats, numpy arrays, Vars, and Duals,
# which lets activation functions and ODE right-hand sides be written once
# and reused by evaluation, forward mode, and reverse mode.  Its one rule,
# ``slope(v, y)`` with argument v and value y, serves both modes: a Var
# records the pull ``g * slope``, a Dual carries the tangent
# ``slope * derivative``.

def _elementary(f, slope):
    """The dispatching form of array function ``f`` with derivative ``slope``.

    A Python float gives ``float(f(x))``: ``math`` functions are cheaper but
    differ from numpy's in the last bit on some arguments.
    """
    def pull(g, v, y):
        return g * slope(v, y)

    def apply(x):
        if type(x) is float:
            return float(f(x))
        if isinstance(x, Var):
            v = x.value
            y = f(v)
            return Var(y, x.tape, ((x, pull, v, y, None),))
        if isinstance(x, Dual):
            y = apply(x.value)
            return Dual(y, slope(x.value, y) * x.derivative)
        return f(x)
    return apply


def _scipy_erf(x):
    # imported on first use: only gelu networks need erf, and importing
    # scipy.special would otherwise double the CLI's start-up time
    from scipy.special import erf as scipy_erf
    return scipy_erf(x)


exp = _elementary(np.exp, lambda v, y: y)
sin = _elementary(np.sin, lambda v, y: cos(v))
cos = _elementary(np.cos, lambda v, y: -sin(v))
tanh = _elementary(np.tanh, lambda v, y: 1.0 - y * y)
erf = _elementary(_scipy_erf, lambda v, y: (2.0 / math.sqrt(math.pi)) * exp(-v * v))


def sigmoid(x):
    return 1.0 / (1.0 + exp(-x))


_SQRT2 = math.sqrt(2.0)


def _gelu(x):
    # exact erf formulation, not the tanh approximation
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def _silu(x):
    return x * sigmoid(x)


ACTIVATIONS = {
    "tanh": tanh,
    "gelu": _gelu,
    "silu": _silu,
    "sigmoid": sigmoid,
}
