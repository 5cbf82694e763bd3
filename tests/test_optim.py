"""Optimizer: the decoupled-decay AdamW update, gradient release, LR schedule."""

import numpy as np
import pytest

from handmesh.autograd import Tensor
from handmesh.optim import AdamW, lr_at_step

B1, B2, EPS = 0.9, 0.999, 1e-8


def reference_adamw(p, grads, lrs, weight_decay):
    """Decoupled-decay AdamW with bias correction, written out step by step."""
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        m = B1 * m + (1 - B1) * g
        v = B2 * v + (1 - B2) * g ** 2
        m_hat = m / (1 - B1 ** t)
        v_hat = v / (1 - B2 ** t)
        p = p - lr * weight_decay * p - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return p


def test_two_steps_match_the_decoupled_decay_formula():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(2)]
    lrs = [1e-2, 1e-3]
    param = Tensor(p0.copy(), requires_grad=True)
    opt = AdamW([param], weight_decay=0.1)
    for g, lr in zip(grads, lrs):
        param.grad = g.copy()
        opt.step(lr)
    assert opt.t == 2
    np.testing.assert_allclose(param.data, reference_adamw(p0, grads, lrs, 0.1), rtol=1e-12, atol=0)


def test_parameter_without_gradient_is_untouched():
    rng = np.random.default_rng(1)
    used = Tensor(rng.normal(size=5), requires_grad=True)
    idle = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    idle_before = idle.data.copy()
    opt = AdamW([used, idle], weight_decay=1e-4)
    for _ in range(2):
        used.grad = rng.normal(size=5)
        opt.step(1e-3)
    np.testing.assert_array_equal(idle.data, idle_before)
    assert not opt.m[1].any() and not opt.v[1].any()
    assert opt.m[0].any() and opt.v[0].any()


def test_step_releases_every_applied_gradient():
    rng = np.random.default_rng(2)
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in ((4,), (2, 3))]
    for p in params:
        p.grad = np.ones_like(p.data)
    AdamW(params, weight_decay=1e-4).step(1e-3)
    assert all(p.grad is None for p in params)


@pytest.mark.parametrize("total_steps,drop_at", [(8, 4), (5, 2)])
def test_lr_drops_tenfold_at_half_of_total_steps(total_steps, drop_at):
    rates = [lr_at_step(1e-3, step, total_steps) for step in range(total_steps)]
    assert rates == [1e-3] * drop_at + [1e-3 * 0.1] * (total_steps - drop_at)
