"""Continuous ReLU activation and discrete leaky integrate-and-fire dynamics.

A LIF step runs accumulation, spike firing, and hard reset in that order:

    u_pre  = tau * u_prev + input_current
    spike  = H(u_pre - u_th)            (H(0) = 1: fire exactly at threshold)
    u_next = u_pre * (1 - spike)

A layer runs all T steps from a zero membrane as one tape node (the
multi-step mode of SpikingJelly, Fang et al. 2023): `lif_layer` takes one
shared (B, N) drive or the stacked (T*B, N) per-step currents and returns the
stacked (T*B, N) spike train, step t in rows t*B to (t+1)*B. The node keeps
the forward's u_pre - u_th trace, so its backward, explicit backpropagation
through time over the membrane, does not run the dynamics again. The
Heaviside uses a piecewise-linear hat of configurable half-width centred on
the threshold. The reset factor (1 - spike) is held
constant, so credit flows through the membrane potential only;
differentiating the reset as well would count the surrogate twice.
"""

from __future__ import annotations

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


def lif_scan(current: np.ndarray, p: LIFParams, steps: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The LIF dynamics from a zero membrane: the stacked (T*B, N) spikes and
    u_pre - u_th. `current` is one (B, N) drive shared by every step (`steps`
    1) or the stacked per-step currents (`steps` T)."""
    tau, shift = p.tau, -p.u_th
    rows = current.shape[0] // steps
    spikes = np.empty((rows * p.t_steps, current.shape[1]))
    shifted = np.empty_like(spikes)
    u = np.zeros_like(current[:rows])
    for t in range(p.t_steps):
        blk = slice(t * rows, (t + 1) * rows)
        u = u * tau + (current if steps == 1 else current[blk])
        fired = np.add(u, shift, out=shifted[blk]) >= 0.0
        spikes[blk] = fired
        u *= ~fired  # the hard reset u_pre * (1 - spike): a fired u_pre >= u_th > 0 becomes +0.0
    return spikes, shifted


def _lif_forward(ins, aux):
    """The stacked spike train, and the stacked u_pre - u_th the backward reads."""
    p, steps = aux
    spikes, shifted = lif_scan(ins[0], p, steps)
    # with finite currents, the first non-finite membrane shows in its u_pre - u_th
    if not np.isfinite(shifted).all():
        raise NumericError("non-finite values produced by lif_layer")
    return spikes, shifted


def _lif_backward(g, out, ins, aux, needs, shifted):
    """BPTT over the membrane with the reset held constant.

    The membrane adjoint of step t is a_u * (1 - spike_t) + g_t * hat, and
    a_u = tau times that for step t - 1. A shared drive sums the per-step
    gradients from the last step down, as a tape of single steps would.
    """
    p, steps = aux
    rows = out.shape[0] // p.t_steps
    tau = p.tau
    g_hat = g * _hat(shifted, p.surrogate_width)
    keep = out * -1.0 + 1.0
    grads = np.empty_like(g)
    a_u = None
    for t in range(p.t_steps - 1, -1, -1):
        blk = slice(t * rows, (t + 1) * rows)
        if a_u is None:
            grads[blk] = g_hat[blk]
        else:
            np.add(a_u * keep[blk], g_hat[blk], out=grads[blk])
        if t > 0:
            a_u = grads[blk] * tau
    if steps > 1:
        return [grads]
    drive = grads[-rows:]
    for t in range(p.t_steps - 2, -1, -1):
        drive = drive + grads[t * rows:(t + 1) * rows]
    return [drive]


register_op(
    "relu",
    lambda ins, aux: np.maximum(0.0, ins[0]),
    lambda g, out, ins, aux, needs: [g * (ins[0] > 0.0)],
    lambda out, ins, aux: ins[0].size,
)
# per neuron and step: leak, accumulate, threshold shift, fire, reset
register_op("lif_layer", _lif_forward, _lif_backward, lambda out, ins, aux: 5 * out.size,
            saves=True)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient passes where x > 0."""
    return T._apply("relu", (T.as_tensor(x),))


def lif_layer(current: Tensor, p: LIFParams, steps: int = 1) -> Tensor:
    """All `p.t_steps` steps of one LIF layer from a zero membrane, as one node.

    `current` is either one (B, N) drive injected at every step (`steps` 1)
    or the stacked (T*B, N) per-step currents (`steps` equal to
    `p.t_steps`), step t in rows t*B to (t+1)*B. Returns the stacked
    (T*B, N) spike train in the same layout.
    """
    current = T.as_tensor(current)
    if steps not in (1, p.t_steps):
        raise ShapeError(f"need 1 or {p.t_steps} stacked input steps, got {steps}")
    return T._apply("lif_layer", (current,), (p, T._check_steps(current, steps, "lif_layer")))
