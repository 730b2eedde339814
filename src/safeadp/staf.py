"""State-following kernel machinery: moving centers, kernel vector and
gradient, the approximate value function and the saturated policies."""

from __future__ import annotations

import numpy as np

from .cost import BarrierSpec, CostSpec, barrier_Bbar, grad_Bbar

class StaFConfig:
    """Moving-center kernel configuration.

    Centers travel with the state: c_i(x) = x + theta(x) d_i with
    theta(x) = scale_num * x.x / (scale_den_offset + x.x) and unit
    offset directions d_i. Offsets are normalized exactly at
    construction (inputs must already be unit within 1e-3).
    """

    scale_den_offset = 1.0

    def __init__(self, offsets, scale_num):
        offsets = np.asarray(offsets, dtype=float)
        if offsets.ndim != 2 or offsets.shape[0] < 1:
            raise ValueError("offsets must be an L x n array")
        norms = np.linalg.norm(offsets, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-3):
            raise ValueError("offset directions must be unit vectors")
        offsets = offsets / norms[:, None]
        for i in range(offsets.shape[0]):
            for j in range(i + 1, offsets.shape[0]):
                if np.allclose(offsets[i], offsets[j], atol=1e-9):
                    raise ValueError("offset directions must be pairwise distinct")
        if scale_num <= 0:
            raise ValueError("scale_num must be positive")
        self.offsets = offsets
        self.L = offsets.shape[0]
        self.n = offsets.shape[1]
        self.scale_num = float(scale_num)

    def theta(self, x):
        """Offset scale per row of x (..., n)."""
        q = np.vecdot(x, x)
        return self.scale_num * q / (self.scale_den_offset + q)


def centers(cfg: StaFConfig, x):
    """Kernel centers about each anchor row of x: (..., n) -> (..., L, n)."""
    x = np.asarray(x, float)
    return x[..., None, :] + cfg.theta(x)[..., None, None] * cfg.offsets


def kernel_sigma(cfg: StaFConfig, y, x):
    """Kernel vector sigma_i(y) = y . c_i(x), centers anchored at x; the
    rows of y and x broadcast, (..., L) out."""
    return np.matvec(centers(cfg, x), y)


def grad_sigma(cfg: StaFConfig, y, x):
    """Derivative of kernel_sigma in its first argument, (..., L, n) for
    the anchor rows of x; centers are held fixed at the anchor, so row i is
    c_i(x) whatever y is."""
    return centers(cfg, x)


def value_hat(cfg: StaFConfig, bar: BarrierSpec, Wc, y, x):
    """Approximate value Wc . sigma(y, c(x)) + Bbar(y) per row; Wc (..., L)
    broadcasts against the rows."""
    return np.vecdot(Wc, kernel_sigma(cfg, y, x)) + barrier_Bbar(bar, y)


def policy_star(cost: CostSpec, sys, gradV, y):
    """Saturated optimal-policy form for a supplied value gradient, per row
    of gradV and y (..., n); (..., m) out."""
    ub = cost.u_max
    arg = np.vecmat(gradV, sys.input_map(y)) / (2.0 * ub * cost.r_diag)
    return -ub * np.tanh(arg)


def policy_hat(cfg: StaFConfig, bar: BarrierSpec, cost: CostSpec, sys, Wa, y, x):
    """Approximate policy per row: saturated form driven by the actor
    weights Wa (..., L) and the bounded-barrier gradient; strictly inside
    the input box."""
    D = np.vecmat(Wa, grad_sigma(cfg, y, x)) + grad_Bbar(bar, y)
    return policy_star(cost, sys, D, y)
