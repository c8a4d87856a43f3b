"""Feed-forward networks: evaluation, input Jacobians, weight gradients, I/O.

Hidden layers get the configured activation; the output layer is linear so
unbounded states (e.g. pendulum velocities) remain representable.  All
numerics are float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ACTIVATIONS, Dual, Tape, UsageError, Var, backward, erf, sigmoid
from .ode import ConfigurationError, OdeProblem

SCHEMA_VERSION = 1


class ShapeError(ValueError):
    """Input does not match the network's layer dimensions."""


@dataclass
class Network:
    """A small dense MLP.  weights[k] has shape (dims[k+1], dims[k])."""

    layer_dims: list
    weights: list
    biases: list
    activation: str = "tanh"
    seed: int = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        dims = self.layer_dims
        if not len(self.weights) == len(self.biases) == len(dims) - 1:
            raise ShapeError(
                f"{len(self.weights)} weight and {len(self.biases)} bias arrays "
                f"for the {len(dims) - 1} layers of dims {dims}")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[k + 1], dims[k]) or b.shape != (dims[k + 1],):
                raise ShapeError(
                    f"layer {k}: weight {w.shape} / bias {b.shape} do not chain "
                    f"with dims {dims[k]}->{dims[k + 1]}")

    @property
    def n_in(self):
        return self.layer_dims[0]

    @property
    def n_out(self):
        return self.layer_dims[-1]


def init_network(layer_dims, activation="tanh", seed=0, meta=None):
    """Glorot-uniform initialization with a caller-supplied seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(list(layer_dims), weights, biases, activation,
                   seed=seed, meta=dict(meta or {}))


def infer_layout(net: Network, problem: OdeProblem = None):
    """Which of (t, x0, u) feed the network: its metadata, else the input
    width against ``problem``'s state and control dimensions.  Either way
    the columns are t first, then x0 and u in that order."""
    if "inputs" in net.meta:
        layout = list(net.meta["inputs"])
        if layout not in (["t"], ["t", "x0"], ["t", "u"], ["t", "x0", "u"]):
            raise ConfigurationError(f"network inputs {layout} are not t followed by "
                                     "x0 and/or u in that order")
        return layout
    if problem is None:
        raise ConfigurationError("network metadata names no inputs and no problem "
                                 "is given to infer them from the input width")
    n, k = problem.dim, problem.control_dim
    if net.n_in == 1:
        return ["t"]
    if net.n_in == 1 + n:
        return ["t", "x0"]
    if net.n_in == 1 + n + k:
        return ["t", "x0", "u"]
    raise ConfigurationError(
        f"cannot infer input layout for width {net.n_in} (dim={n}, controls={k})")


def assemble_inputs(layout, t, x0, u):
    """The network input matrix: one row per time, columns (t, x0, u) in
    ``layout``.  ``x0`` and ``u`` hold one row per time, or one row that
    every time repeats."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    cols = [t[:, None]] if "t" in layout else []
    for name, rows in (("x0", x0), ("u", u)):
        if name in layout:
            rows = np.atleast_1d(np.asarray(rows, dtype=float))
            cols.append(np.broadcast_to(rows, (len(t), rows.shape[-1])))
    return np.concatenate(cols, axis=1)


def _forward_any(weights, biases, activation, x):
    """Forward pass for any operand type (ndarray, Var, Dual)."""
    act = ACTIVATIONS[activation]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = act(h @ w.T + b)
    return h @ weights[-1].T + biases[-1]


def forward(net: Network, x, tape: Tape = None):
    """Evaluate the network on an input vector or a batch of rows.

    ``x`` is an array or a ``Dual`` of arrays.  With a ``tape`` a fresh
    :class:`MlpJet` evaluates the rows, with the ``Dual``'s derivative as its
    tangent, and the output is tape leaves with that kernel recorded behind
    them, so it is differentiable via :func:`parameter_gradient`.
    """
    dual = isinstance(x, Dual)
    if tape is not None and (isinstance(x, Var) or dual and (isinstance(x.value, Var)
                                                             or isinstance(x.derivative, Var))):
        raise UsageError("a taped forward takes array inputs, not taped values")
    if not dual:
        x = np.asarray(x, dtype=float)
    shape = np.shape(x.value) if dual else x.shape
    if shape[-1:] != (net.n_in,):
        raise ShapeError(f"input of shape {shape} does not have the width {net.n_in}")
    if tape is None:
        return _forward_any(net.weights, net.biases, net.activation, x)
    rows = np.atleast_2d(x.value if dual else x)
    jet = MlpJet(net, rows, np.broadcast_to(x.derivative, rows.shape) if dual else None)
    leaves = [y if y is None else tape.var(y.reshape(*shape[:-1], -1)) for y in jet.forward()]
    jet.record(tape, *leaves)
    return Dual(*leaves) if dual else leaves[0]


def forward_on_tape(tape: Tape, net: Network, x):
    """:func:`forward` recorded on ``tape``."""
    return forward(net, x, tape)


def time_tangent(x):
    """The input rows' derivative along time: 1 in the time column (the
    first, when the layout has one) and 0 elsewhere."""
    e = np.zeros_like(x)
    e[:, 0] = 1.0
    return e


# -- the training kernel ------------------------------------------------------
#
# (sigma, sigma', sigma'') on plain arrays.  tanh is not in the table: its jet
# writes sigma' = 1 - y*y into a buffer and its reverse mirrors the tape's
# expressions, so that tanh gradients equal the tape's bit for bit.

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _sigmoid_jet(z):
    s = sigmoid(z)
    d1 = s * (1.0 - s)
    return s, d1, d1 * (1.0 - 2.0 * s)


def _silu_jet(z):
    s, d1, d2 = _sigmoid_jet(z)
    return z * s, s + z * d1, 2.0 * d1 + z * d2


def _gelu_jet(z):
    cdf = 0.5 * (1.0 + erf(z * _INV_SQRT2))
    pdf = _INV_SQRT2PI * np.exp(-0.5 * z * z)
    return z * cdf, cdf + z * pdf, pdf * (2.0 - z * z)


_JETS = {"gelu": _gelu_jet, "silu": _silu_jet, "sigmoid": _sigmoid_jet}


class MlpJet:
    """The network on fixed input rows as (value, d/dt), with the reverse
    into the flat parameter gradient, on plain arrays.

    Built once per input set: every buffer is allocated here and refilled by
    each :meth:`forward`, which reads the network's current weights, and
    :meth:`backward`, which differentiates that evaluation with the weights
    it used.  Without a ``tangent`` only the value is carried.  A loss built
    on tape leaves holding the outputs reaches the weights through
    :meth:`record` and :func:`parameter_gradient`.
    """

    def __init__(self, net: Network, x, tangent=None):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != net.n_in:
            raise ShapeError(f"input rows must be (B, {net.n_in}), got {x.shape}")
        self.net, self.x, self.tangent = net, x, tangent
        self.tanh = net.activation == "tanh"
        rows = len(x)
        hidden = net.layer_dims[1:-1]

        def buffers(widths):
            return [np.empty((rows, w)) for w in widths]

        def shared(count):
            # the reverse reads only the adjoint of the layer above: ``count``
            # blocks serve every hidden layer, each a (rows, width) view
            flat = [np.empty(rows * max(hidden)) for _ in hidden[:count]]
            return [flat[k % count][:rows * w].reshape(rows, w) for k, w in enumerate(hidden)]

        self.value = buffers(net.layer_dims[1:])    # activations; the output last
        self.slope = buffers(hidden)                # sigma' at each hidden layer
        self.curv = [] if self.tanh else buffers(hidden)    # sigma''
        self.g_value = shared(2)
        self.gwt = [np.empty((a, b)) for a, b in zip(net.layer_dims[:-1], net.layer_dims[1:])]
        self.gb = [np.empty(w) for w in net.layer_dims[1:]]
        if tangent is not None:
            self.pre_dot = buffers(net.layer_dims[1:])   # d/dt of the pre-activations
            self.dot = buffers(hidden)                  # d/dt of the activations
            self.g_dot = shared(2)
            self.scratch = shared(1)
            self.gwt_dot = [np.empty_like(g) for g in self.gwt]

    def forward(self):
        """(value, d/dt) of the output rows; d/dt is None without a tangent.
        Both are views of buffers that the next call overwrites."""
        net, last = self.net, len(self.net.weights) - 1
        self.weights = list(net.weights)    # set_params may replace them before backward
        h, hd = self.x, self.tangent
        for k, (w, b) in enumerate(zip(self.weights, net.biases)):
            z = self.value[k]
            np.matmul(h, w.T, out=z)
            if hd is not None:
                np.matmul(hd, w.T, out=self.pre_dot[k])
            np.add(z, b, out=z)
            if k == last:
                break
            s = self.slope[k]
            if self.tanh:
                np.tanh(z, out=z)
                np.multiply(z, z, out=s)
                np.subtract(1.0, s, out=s)
            else:
                z[...], s[...], self.curv[k][...] = _JETS[net.activation](z)
            h = z
            if hd is not None:
                hd = np.multiply(s, self.pre_dot[k], out=self.dot[k])
        return self.value[last], None if hd is None else self.pre_dot[last]

    def record(self, tape: Tape, value, dot=None):
        """Record this kernel on ``tape`` as the network behind the leaves
        that hold its last :meth:`forward`: ``value`` and, with a tangent,
        ``dot``, each one (B, n_out) leaf or a list of n_out (B,) column
        leaves.  :func:`parameter_gradient` pulls their adjoints through
        :meth:`backward`, which rejects a block of another shape."""
        if dot is not None and self.tangent is None:
            raise UsageError("a kernel without a tangent has no d/dt to record")
        for leaves in (value,) if dot is None else (value, dot):
            for leaf in (leaves,) if isinstance(leaves, Var) else leaves:
                if not isinstance(leaf, Var) or leaf.tape is not tape or leaf.parents:
                    raise UsageError("a kernel's outputs are recorded as leaves of its tape")
        tape._kernels.append((self, value, dot))

    def backward(self, g_value, g_dot=None, *, out, add=False):
        """Pull the output adjoints of the last :meth:`forward` back to the
        parameters, into the flat (W, b per layer) vector ``out``; with
        ``add`` onto what ``out`` holds."""
        gz, gzd = g_value, g_dot
        for k in reversed(range(len(self.weights))):
            w = self.weights[k]
            h = self.value[k - 1] if k else self.x
            np.matmul(h.T, gz, out=self.gwt[k])
            if gzd is not None:
                hd = self.dot[k - 1] if k else self.tangent
                np.matmul(hd.T, gzd, out=self.gwt_dot[k])
                np.add(self.gwt_dot[k], self.gwt[k], out=self.gwt[k])
            np.add.reduce(gz, axis=0, out=self.gb[k])
            if k == 0:
                break
            gh, s = self.g_value[k - 1], self.slope[k - 1]
            np.matmul(gz, w, out=gh)
            if gzd is None:
                np.multiply(gh, s, out=gh)
            else:
                ghd, tmp = self.g_dot[k - 1], self.scratch[k - 1]
                np.matmul(gzd, w, out=ghd)
                np.multiply(ghd, self.pre_dot[k - 1], out=tmp)
                if self.tanh:
                    # the tape's d/dt tanh is (1 - y*y) * zd: it adds the two
                    # partials of y*y onto y's adjoint one after the other
                    np.negative(tmp, out=tmp)
                    np.multiply(tmp, self.value[k - 1], out=tmp)
                    np.add(gh, tmp, out=gh)
                    np.add(gh, tmp, out=gh)
                    np.multiply(gh, s, out=gh)
                else:
                    np.multiply(gh, s, out=gh)
                    np.multiply(tmp, self.curv[k - 1], out=tmp)
                    np.add(gh, tmp, out=gh)
                gzd = np.multiply(ghd, s, out=ghd)
            gz = gh
        offset = 0
        for gwt, gb in zip(self.gwt, self.gb):
            gw = out[offset:offset + gwt.size].reshape(gwt.shape[::-1])
            offset += gwt.size
            ob = out[offset:offset + gb.size]
            offset += gb.size
            if add:
                np.add(gw, gwt.T, out=gw)
                np.add(ob, gb, out=ob)
            else:
                gw[...] = gwt.T
                ob[...] = gb


def input_jacobian(net: Network, x):
    """n_out x n_in Jacobian in one forward-mode pass: one row of ``x`` per
    input column, each with that column's unit tangent."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_in,):
        raise ShapeError(f"expected input vector of length {net.n_in}, got {x.shape}")
    return forward(net, Dual(np.tile(x, (net.n_in, 1)), np.eye(net.n_in))).derivative.T


def parameter_gradient(net: Network, loss_scalar):
    """Flat d(loss)/d(all weights and biases), in layer order (W then b).

    One reverse sweep from the loss reaches the output leaves of each kernel
    of ``net`` recorded on its tape (by a taped :func:`forward` or by
    :meth:`MlpJet.record`); every kernel pulls its leaves' adjoints back to
    the weights, added onto the contributions before it.
    """
    if not isinstance(loss_scalar, Var):
        raise UsageError("loss was not recorded on a tape")
    kernels = [entry for entry in loss_scalar.tape._kernels if entry[0].net is net]
    if not kernels:
        raise UsageError("the network was never recorded on the loss's tape")
    adjoints = backward(loss_scalar)
    grad = np.empty(sum(w.size + b.size for w, b in zip(net.weights, net.biases)))
    for k, (jet, value, dot) in enumerate(kernels):
        jet.backward(_adjoint(adjoints, value), _adjoint(adjoints, dot), out=grad, add=k > 0)
    return grad


def _adjoint(adjoints, leaves):
    """The adjoint of a leaf as rows, a 1-D leaf's as one (zeros where the sweep
    never reached it); of a list of column leaves, side by side; None for None."""
    if leaves is None:
        return None
    if isinstance(leaves, Var):
        g = adjoints.get(id(leaves))
        return np.atleast_2d(np.zeros_like(leaves.value) if g is None else g)
    block = np.empty((len(leaves[0].value), len(leaves)))
    for i, leaf in enumerate(leaves):
        block[:, i] = adjoints.get(id(leaf), 0.0)
    return block


def flatten_params(net: Network):
    return np.concatenate([np.ravel(a) for w, b in zip(net.weights, net.biases)
                           for a in (w, b)])


def set_params(net: Network, flat):
    """Write a flat parameter vector back into the network, in place."""
    size = sum([w.size + b.size for w, b in zip(net.weights, net.biases)])
    if len(flat) != size or flat.ndim != 1:
        raise ShapeError(f"parameter vector of shape {np.shape(flat)} for a network "
                         f"of {size} parameters")
    offset = 0
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        net.weights[k] = flat[offset:offset + w.size].reshape(w.shape).copy()
        offset += w.size
        net.biases[k] = flat[offset:offset + b.size].copy()
        offset += b.size


def save_network(net: Network, path):
    """Serialize to JSON.  Round-trips bit-exactly (repr floats)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "layer_dims": list(net.layer_dims),
        "activation": net.activation,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "seed": net.seed,
        "meta": net.meta,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_network(path) -> Network:
    """Read a saved network; a malformed file raises ConfigurationError naming it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported network schema {doc.get('schema_version')!r}")
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        if not all(np.isfinite(a).all() for a in weights + biases):
            raise ValueError("a weight or bias is missing or non-finite")
        return Network(
            layer_dims=list(doc["layer_dims"]),
            weights=weights,
            biases=biases,
            activation=doc["activation"],
            seed=doc.get("seed"),
            meta=doc.get("meta", {}),
        )
    except KeyError as exc:
        raise ConfigurationError(f"{path}: no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
