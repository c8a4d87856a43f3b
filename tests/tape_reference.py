"""The tape reference for a network's weight gradient.

The weights and biases are bound by hand as leaves of one tape, the network
is evaluated on them by ``_forward_any`` (array or ``Dual`` inputs), and the
gradient is read off the adjoints that ``backward`` gives those leaves.  The
training kernel's reverse pass, which every fit and every taped ``forward``
uses, is checked against it.
"""

import numpy as np

from pinncert.autodiff import backward
from pinncert.network import _forward_any


class BoundWeights:
    """A network's weights and biases as leaves of ``tape``."""

    def __init__(self, net, tape):
        self.net = net
        self.weights = [tape.var(w) for w in net.weights]
        self.biases = [tape.var(b) for b in net.biases]

    def forward(self, x):
        return _forward_any(self.weights, self.biases, self.net.activation, x)

    def gradient(self, loss):
        """Flat d(loss)/d(weights and biases), in the order of ``flatten_params``."""
        adjoints = backward(loss)
        return np.concatenate([np.ravel(adjoints.get(id(leaf), np.zeros_like(leaf.value)))
                               for pair in zip(self.weights, self.biases) for leaf in pair])
