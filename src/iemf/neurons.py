"""Continuous ReLU activation and discrete leaky integrate-and-fire dynamics.

A LIF step runs accumulation, spike firing, and hard reset in that order:

    u_pre  = tau * u_prev + input_current
    spike  = H(u_pre - u_th)            (H(0) = 1: fire exactly at threshold)
    u_next = u_pre * (1 - spike)

The Heaviside backward uses a piecewise-linear hat of configurable half-width
centred on the threshold. The reset factor (1 - spike) is held constant during
backward so credit flows through the membrane potential only; differentiating
the reset as well would count the surrogate twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
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


register_op(
    "relu",
    lambda ins, aux: np.maximum(0.0, ins[0]),
    lambda g, out, ins, aux: [g * (ins[0] > 0.0)],
)
register_op(
    "spike",
    lambda ins, aux: np.where(ins[0] >= 0.0, 1.0, 0.0),
    lambda g, out, ins, aux: [g * _hat(ins[0], aux)],
)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient passes where x > 0."""
    return T._apply("relu", (T.as_tensor(x),))


def lif_step(u_prev: Tensor, input_current: Tensor, p: LIFParams) -> tuple[Tensor, Tensor]:
    """One accumulate/fire/reset step; returns (u_next, spike)."""
    u_prev, input_current = T.as_tensor(u_prev), T.as_tensor(input_current)
    if u_prev.shape != input_current.shape:
        raise ShapeError(
            f"membrane and current shapes differ: {u_prev.shape} vs {input_current.shape}"
        )
    u_pre = T.add(T.smul(u_prev, p.tau), input_current)
    spike = T._apply("spike", (T.sadd(u_pre, -p.u_th),), p.surrogate_width)
    keep = T.detach(T.sadd(T.smul(spike, -1.0), 1.0))
    u_next = T.mul(u_pre, keep)
    return u_next, spike
