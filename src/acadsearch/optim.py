"""Decoupled-weight-decay adaptive gradient updates (AdamW), numpy only."""
from __future__ import annotations

import numpy as np

# elements per block: in float32, a block of the parameter, the gradient,
# both moments and the three scratch arrays takes 1.75 MiB, within a core's L2
_BLOCK = 1 << 16


class AdamW:
    """Standard AdamW over a single dense parameter array.

    The parameter may be a view (e.g. the trainable slice of a larger
    matrix); updates are applied in place. A step walks the array in row
    blocks of about ``_BLOCK`` elements and runs, per block, the same
    element-wise operations with the same scalars in the same order as one
    pass over the whole array would, so the result does not depend on the
    block size.

    The gradient is either dense (the parameter's shape) or row-sparse: with
    ``rows``, a sorted unique index array as ``np.unique`` returns it,
    ``grad[i]`` is the gradient of row ``rows[i]`` and every other row's
    gradient is +0.0. Each block's gradient is then built in a block-sized
    scratch array, never a parameter-sized one. Rows without a gradient are
    still updated: weight decay and the moment decay apply to every row on
    every step, so both forms give the same bits.
    """

    def __init__(self, shape, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01,
                 dtype=np.float64):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.t = 0
        row_size = max(1, int(np.prod(self.m.shape[1:])))
        self._rows = max(1, min(self.m.shape[0], _BLOCK // row_size))
        block_shape = (self._rows,) + self.m.shape[1:]
        self._s1 = np.empty(block_shape, dtype=dtype)
        self._s2 = np.empty(block_shape, dtype=dtype)
        self._g = np.empty(block_shape, dtype=dtype)

    def step(self, param: np.ndarray, grad: np.ndarray,
             rows: np.ndarray | None = None) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c2 = 1.0 - b2 ** self.t
        c1 = 1.0 - b1 ** self.t
        wd, lr, eps = self.weight_decay, self.lr, self.eps
        for lo in range(0, self.m.shape[0], self._rows):
            hi = lo + self._rows
            m, v, p = self.m[lo:hi], self.v[lo:hi], param[lo:hi]
            s1, s2 = self._s1[:len(m)], self._s2[:len(m)]
            if rows is None:
                g = grad[lo:hi]
            else:
                g = self._g[:len(m)]
                g.fill(0.0)
                a, z = np.searchsorted(rows, (lo, hi))
                g[rows[a:z] - lo] = grad[a:z]
            m *= b1
            np.multiply(g, 1.0 - b1, out=s1)
            m += s1
            np.multiply(g, g, out=s1)
            v *= b2
            s1 *= 1.0 - b2
            v += s1
            # s1 = sqrt(v_hat) + eps, then the full update in place
            np.divide(v, c2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += eps
            s1 *= c1
            np.divide(m, s1, out=s1)
            if wd:
                np.multiply(p, wd, out=s2)
                s1 += s2
            s1 *= lr
            p -= s1
