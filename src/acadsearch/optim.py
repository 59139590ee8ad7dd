"""Decoupled-weight-decay adaptive gradient updates (AdamW), numpy only."""
from __future__ import annotations

import numpy as np

# elements per block: in float32, a block of the parameter, the gradient,
# both moments and the three scratch arrays takes 1.75 MiB, within a core's L2
_BLOCK = 1 << 16


class AdamW:
    """Standard AdamW over a single parameter array, updated in place.

    The parameter may be a view (e.g. the trainable slice of a larger
    matrix). A step walks row blocks of about ``_BLOCK`` elements and runs,
    per block, the same element-wise operations with the same scalars in
    the same order as one pass over the whole array would, so the result
    does not depend on the block size.

    The gradient is either dense (the parameter's shape) or row-sparse: with
    ``rows``, a sorted unique index array as ``np.unique`` returns it,
    ``grad[i]`` is the gradient of row ``rows[i]`` and every other row's
    gradient is +0.0. A row-sparse step updates only the warm rows, those
    that have had a gradient, gathered in blocks. That is exact: a cold
    row's moments and gradient are +0.0, so a step would only have done
    ``p -= (+0.0 + p * wd) * lr`` to it (the ``+0.0 +`` turns a -0.0
    product into +0.0), and nothing when ``wd == 0``. :meth:`settle` replays
    the ``t`` steps a cold row owes and marks it warm; a step settles its
    ``rows`` first. A caller that reads rows between steps settles them
    before it reads, and settles the whole array before it keeps it.
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
        self.warm = np.zeros(self.m.shape[0], dtype=bool)
        row_size = max(1, int(np.prod(self.m.shape[1:])))
        self._rows = max(1, min(self.m.shape[0], _BLOCK // row_size))
        block_shape = (self._rows,) + self.m.shape[1:]
        self._s1 = np.empty(block_shape, dtype=dtype)
        self._s2 = np.empty(block_shape, dtype=dtype)
        self._g = np.empty(block_shape, dtype=dtype)

    def settle(self, param: np.ndarray, rows: np.ndarray | None = None) -> None:
        """Replay the ``t`` decay-only steps each cold row among ``rows``
        (every cold row if None) owes, in blocks, and mark those rows warm."""
        cold = np.flatnonzero(~self.warm) if rows is None else rows[~self.warm[rows]]
        self.warm[cold] = True
        wd, lr = self.weight_decay, self.lr
        if not wd or not self.t:
            return
        for lo in range(0, len(cold), self._rows):
            at = cold[lo:lo + self._rows]
            p, s = param[at], self._s1[:len(at)]
            for _ in range(self.t):
                np.multiply(p, wd, out=s)
                s += 0.0        # m / (...) is +0.0 here; -0.0 + 0.0 is +0.0
                s *= lr
                p -= s
            param[at] = p

    def step(self, param: np.ndarray, grad: np.ndarray,
             rows: np.ndarray | None = None) -> None:
        self.settle(param, rows)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c2 = 1.0 - b2 ** self.t
        c1 = 1.0 - b1 ** self.t
        wd, lr, eps = self.weight_decay, self.lr, self.eps
        if rows is not None:
            warm = np.flatnonzero(self.warm)
            slot = np.searchsorted(warm, rows)    # rows[i] is warm[slot[i]]
        for lo in range(0, self.m.shape[0] if rows is None else len(warm),
                        self._rows):
            if rows is None:
                at = slice(lo, lo + self._rows)
                g = grad[at]
            else:
                at = warm[lo:lo + self._rows]
                g = self._g[:len(at)]
                g.fill(0.0)
                a, z = np.searchsorted(slot, (lo, lo + len(at)))
                g[slot[a:z] - lo] = grad[a:z]
            # views of a slice; gathered copies of warm rows, put back below
            m, v, p = self.m[at], self.v[at], param[at]
            s1, s2 = self._s1[:len(m)], self._s2[:len(m)]
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
            if rows is not None:
                self.m[at], self.v[at], param[at] = m, v, p
