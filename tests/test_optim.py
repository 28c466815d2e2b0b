import numpy as np
import pytest

from ecgrecon import tensor as T
from ecgrecon.nn import Parameter
from ecgrecon.optim import AdamW


def _scalar_param(value):
    return Parameter("w", np.array([value], dtype=np.float32))


def test_single_step_on_square_loss():
    # f(w) = w^2 at w=1: g=2, bias-corrected m_hat=2, v_hat=4, step = lr*2/2
    p = _scalar_param(1.0)
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    loss = T.tensor_sum(T.mul(p, p))
    loss.backward()
    opt.step()
    assert p.data[0] == pytest.approx(0.9, abs=1e-6)


def test_zero_grad_no_decay_leaves_params():
    p = _scalar_param(1.0)
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    p.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    assert p.data[0] == pytest.approx(1.0)


def test_decay_applies_independently_of_gradient():
    p = _scalar_param(1.0)
    opt = AdamW([p], lr=0.1, weight_decay=0.1)
    p.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    assert p.data[0] == pytest.approx(0.99, abs=1e-7)


def test_deterministic_trajectory():
    def run():
        p = _scalar_param(1.0)
        opt = AdamW([p], lr=0.05, weight_decay=0.01)
        vals = []
        for _ in range(10):
            opt.zero_grad()
            loss = T.tensor_sum(T.mul(p, p))
            loss.backward()
            opt.step()
            vals.append(p.data.copy())
        return np.concatenate(vals)

    np.testing.assert_array_equal(run(), run())
