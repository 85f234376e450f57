"""Continuous ReLU activation and discrete leaky integrate-and-fire dynamics.

A LIF step runs accumulation, spike firing, and hard reset in that order:

    u_pre  = tau * u_prev + input_current
    spike  = H(u_pre - u_th)            (H(0) = 1: fire exactly at threshold)
    u_next = u_pre * (1 - spike)

A layer runs all T steps from a zero membrane as one tape node (the
multi-step mode of SpikingJelly, Fang et al. 2023): `lif_layer` takes one
shared drive or one current per step and returns the stacked (T*B, N) spike
train. Its backward is explicit backpropagation through time over the
membrane. The Heaviside uses a piecewise-linear hat of configurable
half-width centred on the threshold. The reset factor (1 - spike) is held
constant, so credit flows through the membrane potential only;
differentiating the reset as well would count the surrogate twice.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor, register_op


@dataclass(frozen=True)
class LIFParams:
    """Leaky integrate-and-fire constants shared by every spiking layer."""

    u_th: float = 0.5
    tau_m: float = 2.0
    t_steps: int = 4
    surrogate_width: float = 1.0

    def __post_init__(self):
        if not self.tau_m > 1.0:
            raise ConfigError("tau_m must exceed 1 so the leak factor stays in (0,1)")
        if self.t_steps < 1:
            raise ConfigError("t_steps must be at least 1")
        if not self.u_th > 0.0:
            raise ConfigError("firing threshold must be positive")
        if not self.surrogate_width > 0.0:
            raise ConfigError("surrogate width must be positive")

    @property
    def tau(self) -> float:
        """Leak factor 1 - 1/tau_m, in (0, 1)."""
        return 1.0 - 1.0 / self.tau_m


def _hat(x: np.ndarray, width: float) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(x) / width)


def lif_scan(currents: Sequence[np.ndarray], p: LIFParams) -> list[tuple[np.ndarray, ...]]:
    """The LIF dynamics from a zero membrane, one (u_pre, u_pre - u_th, spike,
    1 - spike) tuple per step. One current is a drive shared by every step;
    otherwise there is one current per step."""
    tau, shift = p.tau, -p.u_th
    u = np.zeros_like(currents[0])
    steps = []
    for t in range(p.t_steps):
        u_pre = u * tau + currents[0 if len(currents) == 1 else t]
        shifted = u_pre + shift
        spike = np.where(shifted >= 0.0, 1.0, 0.0)
        keep = spike * -1.0 + 1.0
        u = u_pre * keep
        steps.append((u_pre, shifted, spike, keep))
    return steps


def _lif_forward(ins, p: LIFParams) -> np.ndarray:
    steps = lif_scan(ins, p)
    # with finite currents, a non-finite membrane at any step stays non-finite
    if not np.isfinite(steps[-1][0]).all():
        raise NumericError("non-finite values produced by lif_layer")
    return np.concatenate([spike for _, _, spike, _ in steps], axis=0)


def _lif_backward(g, out, ins, p: LIFParams):
    """BPTT over the membrane with the reset held constant.

    The membrane adjoint of step t is a_u * (1 - spike_t) + g_t * hat, and
    a_u = tau times that for step t - 1. A shared drive sums the per-step
    gradients from the last step down, as a tape of single steps would.
    """
    rows = ins[0].shape[0]
    tau, width = p.tau, p.surrogate_width
    steps = lif_scan(ins, p)
    grads: list[np.ndarray] = [None] * len(steps)
    a_u = None
    for t in range(len(steps) - 1, -1, -1):
        _, shifted, _, keep = steps[t]
        g_pre = g[t * rows:(t + 1) * rows] * _hat(shifted, width)
        d = g_pre if a_u is None else (a_u * keep) + g_pre
        grads[t] = d
        if t > 0:
            a_u = d * tau
    if len(ins) > 1:
        return grads
    drive = grads[-1]
    for d in grads[-2::-1]:
        drive = drive + d
    return [drive]


register_op(
    "relu",
    lambda ins, aux: np.maximum(0.0, ins[0]),
    lambda g, out, ins, aux: [g * (ins[0] > 0.0)],
)
register_op("lif_layer", _lif_forward, _lif_backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient passes where x > 0."""
    return T._apply("relu", (T.as_tensor(x),))


def lif_layer(currents: Sequence[Tensor], p: LIFParams) -> Tensor:
    """All `p.t_steps` steps of one LIF layer from a zero membrane, as one node.

    `currents` holds either one (B, N) drive injected at every step or one
    (B, N) current per step. Returns the stacked (T*B, N) spike train; step t
    is rows t*B to (t+1)*B (see `tensor.split_rows`).
    """
    currents = [T.as_tensor(c) for c in currents]
    if len(currents) not in (1, p.t_steps):
        raise ShapeError(f"need 1 or {p.t_steps} input currents, got {len(currents)}")
    shape = currents[0].shape
    if len(shape) != 2 or any(c.shape != shape for c in currents):
        raise ShapeError(f"input currents must share one 2-D shape, got {[c.shape for c in currents]}")
    return T._apply("lif_layer", currents, p)
