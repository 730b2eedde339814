"""State-following kernel machinery: moving centers, the kernel vector
(whose gradient in the state is the centers), the approximate value
function and the saturated policies."""

from __future__ import annotations

import numpy as np

from .cost import BarrierSpec, CostSpec, barrier_Bbar, grad_Bbar

SCALE_NUM = 0.5  # benchmark value: center scaling 0.5 x.x / (1 + x.x)
SCALE_DEN_OFFSET = 1.0  # the offset in theta's denominator


class StaFConfig:
    """Moving-center kernel configuration.

    Centers travel with the state: c_i(x) = x + theta(x) d_i with
    theta(x) = SCALE_NUM * x.x / (SCALE_DEN_OFFSET + x.x) and unit
    offset directions d_i. Offsets are normalized exactly at
    construction (inputs must already be unit within 1e-3).
    """

    def __init__(self, offsets):
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
        self.offsets = offsets
        self.L = offsets.shape[0]

    def theta(self, x):
        """Offset scale per row of x (..., n)."""
        q = np.vecdot(x, x)
        return SCALE_NUM * q / (SCALE_DEN_OFFSET + q)


def centers(cfg: StaFConfig, x):
    """Kernel centers about each anchor row of x: (..., n) -> (..., L, n)."""
    x = np.asarray(x, float)
    return x[..., None, :] + cfg.theta(x)[..., None, None] * cfg.offsets


def kernel_sigma(cfg: StaFConfig, y, x):
    """Kernel vector sigma_i(y) = y . c_i(x), centers anchored at x; the
    rows of y and x broadcast, (..., L) out."""
    return np.matvec(centers(cfg, x), y)


def value_hat(cfg: StaFConfig, bar: BarrierSpec, Wc, x):
    """Approximate value Wc . sigma(x, c(x)) + Bbar(x) per row, each row at
    its own anchor; Wc (..., L) broadcasts against the rows."""
    return np.vecdot(Wc, kernel_sigma(cfg, x, x)) + barrier_Bbar(bar, x)


def policy_star(cost: CostSpec, sys, gradV):
    """Saturated optimal-policy form for a supplied value gradient, per row
    of gradV (..., n); (..., m) out."""
    arg = np.vecmat(gradV, sys.B) / cost.two_umax_r
    return -cost.u_max * np.tanh(arg)


def policy_hat(cfg: StaFConfig, bar: BarrierSpec, cost: CostSpec, sys, Wa, x):
    """Approximate policy per row, each row at its own anchor: saturated
    form driven by the actor weights Wa (..., L) and the bounded-barrier
    gradient; strictly inside the input box. The kernel gradient is the
    centers, since sigma is linear in its first argument."""
    D = np.vecmat(Wa, centers(cfg, x)) + grad_Bbar(bar, x)
    return policy_star(cost, sys, D)
