"""Two-mode automatic differentiation for tiny dense networks.

Reverse mode: a ``Tape`` records array-valued elementary operations
(``Var`` nodes), and a single reverse sweep yields gradients with respect
to every recorded leaf.  Operations are vectorized over a batch axis so a
full-batch training step costs a few hundred numpy calls, not millions of
scalar node allocations.

Forward mode: ``Dual`` carries (value, tangent) pairs through the same
arithmetic.  The components of a ``Dual`` may themselves be ``Var``s; the
tests build that form as a taped oracle for the training kernel's gradients.

Both modes read one table of elementary derivatives: each of ``exp``,
``sin``, ``cos``, ``tanh`` and ``erf`` is declared once, as its array
function and its derivative rule.  A Python float argument gives a Python
float, computed by the same numpy function, so a reference trajectory that
steps floats gets the numbers of a batch that steps arrays.
"""

from __future__ import annotations

import math

import numpy as np


class UsageError(RuntimeError):
    """Raised when a gradient is requested for something never recorded."""


def _unbroadcast(grad, shape):
    """Sum an adjoint down to ``shape`` (reverses numpy broadcasting)."""
    grad = np.asarray(grad, dtype=float)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tape:
    """Recording of elementary operations for one reverse sweep."""

    def __init__(self):
        self.nodes = []
        self._bindings = {}

    def var(self, value):
        """Create a leaf variable on this tape."""
        return Var(np.asarray(value, dtype=float), self, ())


class Var:
    """A tape-recorded array value with known local partials."""

    __slots__ = ("value", "tape", "parents")
    __array_ufunc__ = None  # force numpy to defer to our reflected ops

    def __init__(self, value, tape, parents):
        self.value = value
        self.tape = tape
        self.parents = parents
        tape.nodes.append(self)

    @property
    def shape(self):
        return np.shape(self.value)

    # -- binary arithmetic ------------------------------------------------

    def _binary(self, other, fwd, d_self, d_other):
        if isinstance(other, Dual):
            return NotImplemented
        ov = other.value if isinstance(other, Var) else np.asarray(other, dtype=float)
        sv = self.value
        out_val = fwd(sv, ov)
        parents = [(self, lambda g: _unbroadcast(d_self(g, sv, ov), np.shape(sv)))]
        if isinstance(other, Var):
            parents.append((other, lambda g: _unbroadcast(d_other(g, sv, ov), np.shape(ov))))
        return Var(out_val, self.tape, tuple(parents))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b,
                            lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b,
                            lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b,
                            lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b,
                            lambda g, a, b: g / b,
                            lambda g, a, b: -g * a / (b * b))

    def __rtruediv__(self, other):
        ov = np.asarray(other, dtype=float)
        sv = self.value
        return Var(ov / sv, self.tape,
                   ((self, lambda g: _unbroadcast(-g * ov / (sv * sv), np.shape(sv))),))

    def __neg__(self):
        return Var(-self.value, self.tape, ((self, lambda g: -g),))

    def __pow__(self, p):
        sv = self.value
        return Var(sv ** p, self.tape,
                   ((self, lambda g: g * p * sv ** (p - 1)),))

    def __matmul__(self, other):
        if isinstance(other, Dual):
            return NotImplemented
        ov = other.value if isinstance(other, Var) else np.asarray(other, dtype=float)
        sv = self.value
        parents = [(self, lambda g: g @ ov.T)]
        if isinstance(other, Var):
            parents.append((other, lambda g: sv.T @ g))
        return Var(sv @ ov, self.tape, tuple(parents))

    def __rmatmul__(self, other):
        ov = np.asarray(other, dtype=float)
        sv = self.value
        return Var(ov @ sv, self.tape, ((self, lambda g: ov.T @ g),))

    # -- structure --------------------------------------------------------

    @property
    def T(self):
        return Var(self.value.T, self.tape, ((self, lambda g: g.T),))

    def __getitem__(self, idx):
        sv = self.value

        def pull(g):
            out = np.zeros_like(sv)
            np.add.at(out, idx, g)
            return out

        return Var(sv[idx], self.tape, ((self, pull),))

    def sum(self, axis=None):
        sv = self.value

        def pull(g):
            if axis is None:
                return np.broadcast_to(g, np.shape(sv)).copy()
            return np.broadcast_to(np.expand_dims(g, axis), np.shape(sv)).copy()

        return Var(sv.sum(axis=axis), self.tape, ((self, pull),))

    def mean(self, axis=None):
        n = np.size(self.value) if axis is None else np.shape(self.value)[axis]
        return self.sum(axis=axis) / float(n)


def backward(scalar):
    """Reverse sweep from a recorded scalar; returns {id(Var): adjoint}."""
    if not isinstance(scalar, Var):
        raise UsageError("gradient requested on a value that was never recorded on a tape")
    adjoints = {id(scalar): np.ones_like(np.asarray(scalar.value, dtype=float))}
    for node in reversed(scalar.tape.nodes):
        g = adjoints.get(id(node))
        if g is None:
            continue
        for parent, pull in node.parents:
            contribution = pull(g)
            key = id(parent)
            if key in adjoints:
                adjoints[key] = adjoints[key] + contribution
            else:
                adjoints[key] = contribution
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
    def apply(x):
        if type(x) is float:
            return float(f(x))
        if isinstance(x, Var):
            v = x.value
            y = f(v)
            return Var(y, x.tape, ((x, lambda g: g * slope(v, y)),))
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
