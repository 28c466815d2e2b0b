"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np


class AdamW:
    """Decoupled weight decay is applied before the bias-corrected
    Adam step, so decay acts even when gradients are zero. The moments
    `m` and `v` are updated in place, in the order of operations of
    `m = b1 * m + (1 - b1) * g`, so their bytes are those of that
    expression."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for i, p in enumerate(self.params):
            w = p.data
            if self.weight_decay:
                w -= self.lr * self.weight_decay * w
            g = p.grad
            if g is None:
                continue
            m, v = self.m[i], self.v[i]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            w -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
