"""AdamW with decoupled weight decay and a halfway step-decay schedule."""

import numpy as np


class AdamW:
    beta1, beta2 = 0.9, 0.999
    eps = 1e-8

    def __init__(self, params, lr=1e-3, weight_decay=1e-4):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            # decay is decoupled: applied to the weights, not the gradient
            p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def lr_at_step(base_lr, step, total_steps):
    """Piecewise-constant schedule: base rate, then 10x down at the halfway point."""
    if total_steps > 0 and step >= total_steps // 2:
        return base_lr * 0.1
    return base_lr
