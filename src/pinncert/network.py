"""Feed-forward networks: evaluation, input Jacobians, weight gradients, I/O.

Hidden layers get the configured activation; the output layer is linear so
unbounded states (e.g. pendulum velocities) remain representable.  All
numerics are float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ACTIVATIONS, Dual, Tape, UsageError, Var, backward
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
    width against ``problem``'s state and control dimensions."""
    if "inputs" in net.meta:
        return list(net.meta["inputs"])
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

    ``x`` is an array or a ``Dual`` of arrays.  With a ``tape`` the weights
    are that tape's leaves, bound once per tape, so the output is
    differentiable via :func:`parameter_gradient`.
    """
    if not isinstance(x, Dual):
        x = np.asarray(x, dtype=float)
    width = np.shape(x.value if isinstance(x, Dual) else x)[-1]
    if width != net.n_in:
        raise ShapeError(f"input width {width} != expected {net.n_in}")
    weights, biases = net.weights, net.biases
    if tape is not None:
        if id(net) not in tape._bindings:
            tape._bindings[id(net)] = ([tape.var(w) for w in weights],
                                       [tape.var(b) for b in biases])
        weights, biases = tape._bindings[id(net)]
    return _forward_any(weights, biases, net.activation, x)


def forward_on_tape(tape: Tape, net: Network, x):
    """:func:`forward` with the weights bound on ``tape``."""
    return forward(net, x, tape)


def input_jacobian(net: Network, x):
    """n_out x n_in Jacobian via forward mode, one unit tangent per column."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_in,):
        raise ShapeError(f"expected input vector of length {net.n_in}, got {x.shape}")
    jac = np.empty((net.n_out, net.n_in))
    for j in range(net.n_in):
        seed = np.zeros(net.n_in)
        seed[j] = 1.0
        jac[:, j] = forward(net, Dual(x, seed)).derivative
    return jac


def parameter_gradient(net: Network, loss_scalar):
    """Flat d(loss)/d(all weights and biases), in layer order (W then b)."""
    if not isinstance(loss_scalar, Var):
        raise UsageError("loss was not recorded on a tape")
    binding = loss_scalar.tape._bindings.get(id(net))
    if binding is None:
        raise UsageError("network parameters were never bound on this tape")
    wvars, bvars = binding
    adjoints = backward(loss_scalar)
    pieces = []
    for wv, bv in zip(wvars, bvars):
        gw = adjoints.get(id(wv))
        gb = adjoints.get(id(bv))
        pieces.append(np.ravel(gw if gw is not None else np.zeros_like(wv.value)))
        pieces.append(np.ravel(gb if gb is not None else np.zeros_like(bv.value)))
    return np.concatenate(pieces)


def flatten_params(net: Network):
    return np.concatenate([np.ravel(a) for w, b in zip(net.weights, net.biases)
                           for a in (w, b)])


def set_params(net: Network, flat):
    """Write a flat parameter vector back into the network, in place."""
    offset = 0
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        net.weights[k] = flat[offset:offset + w.size].reshape(w.shape).copy()
        offset += w.size
        net.biases[k] = flat[offset:offset + b.size].copy()
        offset += b.size
    assert offset == len(flat)


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
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported network schema {doc.get('schema_version')!r}")
    return Network(
        layer_dims=list(doc["layer_dims"]),
        weights=[np.array(w, dtype=float) for w in doc["weights"]],
        biases=[np.array(b, dtype=float) for b in doc["biases"]],
        activation=doc["activation"],
        seed=doc.get("seed"),
        meta=doc.get("meta", {}),
    )
