"""Closed form of the drift benchmark (configs/drift_benchmark.cfg).

The shipped problems themselves are defined only by the configs under
configs/; tests and demos load them through io_cli.parse_config.
"""

from __future__ import annotations

import numpy as np


def drift_exact(x, t: float, *, s2: float = 0.04, alpha: float = 1.0,
                speed: float = 0.5) -> np.ndarray:
    """Closed-form drift-diffusion evolution of a unit Gaussian of variance s2."""
    var = s2 + 2.0 * alpha * t
    return np.sqrt(s2 / var) * np.exp(-((np.asarray(x) - speed * t) ** 2) / (2.0 * var))
