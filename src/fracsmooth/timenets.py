"""Rebalancing time-nets concentrated toward maturity.

The net with concentration parameter theta places its nodes at
``t_k = T * (1 - ((n - k)/n)**(1/theta))``; theta = 1 is equidistant and
smaller theta pushes nodes toward T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["TimeNet", "make_theta_net"]


@dataclass(frozen=True)
class TimeNet:
    """Rebalancing nodes 0 = t_0 < ... < t_n = T; n and T are read off them."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2 or nodes[0] != 0.0:
            raise ConfigError("a net needs two or more nodes, the first at 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise ConfigError("net nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])


def make_theta_net(n: int, theta: float, T: float) -> TimeNet:
    """Build the concentration net; theta in (0, 1], theta=1 equidistant."""
    if n < 1:
        raise ConfigError("interval count n must be >= 1")
    if not (0.0 < theta <= 1.0):
        raise ConfigError("theta must lie in (0, 1]")
    if T <= 0.0:
        raise ConfigError("maturity T must be > 0")
    k = np.arange(n + 1)
    # (n - k)/n instead of 1 - k/n: exact cancellation at k = n
    frac = (n - k) / n
    nodes = T * (1.0 - frac ** (1.0 / theta))
    nodes[0] = 0.0
    nodes[-1] = T
    return TimeNet(nodes=nodes)
