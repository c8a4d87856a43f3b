"""Host-speed probe: a fixed taped tanh-MLP step in plain numpy.

The benchmark's host (a shared 2-core VM, see BASELINE.md) runs at speeds
that move by up to 1.8x, in spells from seconds to minutes, so a whole
50-second run can sit in a slow spell.  Each timed call is bracketed by two
probe runs, and its time is taken relative to the mean of the two:
``seconds / probe seconds * REFERENCE_S``, which reads as seconds at the
host speed where the probe takes ``REFERENCE_S``.  The probe is a forward
pass and a reverse sweep through closures, like a tape, on 200x4 arrays:
Python dispatch on small arrays, the regime that tracked the stages of both
workloads best (BASELINE.md).  It shares no code with pinncert, so a change
to the program moves the call's time and not the probe's.
"""

from __future__ import annotations

import time

import numpy as np

ROWS, WIDTH, LAYERS, STEPS = 200, 4, 3, 180
REFERENCE_S = 0.016         # about the probe's time on the BASELINE.md host

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((ROWS, WIDTH))
_WEIGHTS = [_RNG.standard_normal((WIDTH, WIDTH)) * 0.5 for _ in range(LAYERS)]


class _Node:
    __slots__ = ("value", "grad", "backward")

    def __init__(self, value, backward=None):
        self.value = value
        self.grad = 0.0
        self.backward = backward


def _matmul(a, w):
    out = _Node(a.value @ w.value)

    def backward():
        a.grad = a.grad + out.grad @ w.value.T
        w.grad = w.grad + a.value.T @ out.grad

    out.backward = backward
    return out


def _tanh(a):
    t = np.tanh(a.value)
    out = _Node(t)

    def backward():
        a.grad = a.grad + out.grad * (1.0 - t * t)

    out.backward = backward
    return out


def _step(x, ws):
    weights = [_Node(w) for w in ws]
    h, tape = _Node(x), []
    for w in weights:
        m = _matmul(h, w)
        h = _tanh(m)
        tape += [m, h]
    h.grad = 2.0 * h.value
    for node in reversed(tape):
        node.backward()
    return weights


def probe_seconds(steps=STEPS):
    """Wall time of one probe run."""
    start = time.perf_counter()
    for _ in range(steps):
        _step(_X, _WEIGHTS)
    return time.perf_counter() - start


def scaled(seconds, probe_pairs, reference_s=REFERENCE_S):
    """Each time relative to the mean of its bracketing probe pair, in
    seconds at the reference host speed."""
    return [s / (0.5 * (before + after)) * reference_s
            for s, (before, after) in zip(seconds, probe_pairs)]
