import math

import numpy as np
import pytest

from fanav.errors import ProtocolError
from fanav.data import Batch
from fanav.nets import GaussianPolicyHead, Mlp
from fanav.losses import (
    advantages,
    awr_loss_and_grads,
    awr_weights,
    bc_loss_and_grads,
    critic_inputs,
    critic_loss_and_grads,
    expectile_grad,
    expectile_loss,
    min_target_q,
    td_targets,
    value_loss_and_grad,
)

from oracles import log_prob, scalar_expectile

SCALE = np.array([0.5, math.pi / 2])
DIM = 8


def make_batch(n=16, seed=0, with_collisions=False) -> Batch:
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-1, 1, (n, DIM)).astype(np.float32)
    acts = (rng.uniform(-0.9, 0.9, (n, 2)) * SCALE).astype(np.float32)
    rews = rng.normal(size=n).astype(np.float32)
    nxt = rng.uniform(-1, 1, (n, DIM)).astype(np.float32)
    dones = (rng.uniform(size=n) < 0.2).astype(np.float32)
    mask = np.zeros(n, bool)
    if with_collisions:
        mask[rng.choice(n, max(1, n // 8), replace=False)] = True
    return Batch(feats, acts, rews, nxt, dones, mask)


def as_float64(net: Mlp) -> Mlp:
    """``net`` rebuilt on a float64 copy of its parameters."""
    return Mlp(net.widths, net.activation, net.theta.astype(np.float64))


def make_nets(seed=1):
    rng = np.random.default_rng(seed)
    value = as_float64(Mlp.initialized((DIM, 16, 1), "relu", rng))
    critics = [as_float64(Mlp.initialized((DIM + 2, 16, 1), "relu", rng))
               for _ in range(2)]
    targets = [c.copy() for c in critics]
    mean = as_float64(Mlp.initialized((DIM, 16, 2), "relu", rng,
                                      final_scale=1e-2))
    policy = GaussianPolicyHead(mean, SCALE, np.full(2, -0.5))
    return value, critics, targets, policy


# ---------------------------------------------------------------------------
# expectile loss
# ---------------------------------------------------------------------------

def test_expectile_values():
    assert expectile_loss(np.array([1.0]), 0.7) == pytest.approx(0.7)
    assert expectile_loss(np.array([-1.0]), 0.7) == pytest.approx(0.3)
    u = np.array([0.3, -1.2, 2.0])
    assert expectile_loss(u, 0.5) == pytest.approx(0.5 * np.mean(u * u))


def test_expectile_grad_zero_at_zero():
    assert expectile_grad(np.zeros(4), 0.7) == pytest.approx(np.zeros(4))


def test_expectile_grad_finite_difference():
    rng = np.random.default_rng(2)
    u = rng.normal(size=30)
    g = expectile_grad(u, 0.7)
    h = 1e-7
    for i in range(0, 30, 7):
        up = u.copy(); up[i] += h
        um = u.copy(); um[i] -= h
        fd = (expectile_loss(up, 0.7) - expectile_loss(um, 0.7)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_scalar_expectile_bisection():
    rng = np.random.default_rng(3)
    q = rng.normal(2.0, 1.5, 1000)
    e_half = scalar_expectile(q, 0.5)
    assert e_half == pytest.approx(float(q.mean()), abs=1e-9)
    e_hi = scalar_expectile(q, 0.9)
    e_lo = scalar_expectile(q, 0.1)
    assert e_lo < e_half < e_hi
    # first-order condition holds at the returned point
    u = q - scalar_expectile(q, 0.7)
    stat = np.sum(np.where(u < 0, 0.3, 0.7) * u)
    assert abs(stat) < 1e-6


def test_gradient_descent_reaches_expectile():
    """A scalar value trained on the expectile loss converges to the
    bisection solution."""
    rng = np.random.default_rng(4)
    q = rng.normal(0.0, 2.0, 1000)
    oracle = scalar_expectile(q, 0.7)
    v = 0.0
    lr = 0.5
    for _ in range(4000):
        u = q - v
        v += lr * float(np.sum(2.0 * np.where(u < 0, 0.3, 0.7) * u)) / q.size
    assert v == pytest.approx(oracle, abs=1e-3)


# ---------------------------------------------------------------------------
# value loss
# ---------------------------------------------------------------------------

def test_value_loss_gradient_fd():
    value, critics, targets, _ = make_nets()
    batch = make_batch()
    x_sa = critic_inputs(batch.features, batch.actions, SCALE)
    q = min_target_q(targets, x_sa)
    loss, grad = value_loss_and_grad(value, batch.features, q, 0.7)

    def f():
        v = value.forward(batch.features)[:, 0]
        return expectile_loss(q - v, 0.7)

    assert loss == pytest.approx(f(), rel=1e-12)
    rng = np.random.default_rng(5)
    idx = rng.choice(value.n_params, 20, replace=False)
    h = 1e-4
    for i in idx:
        orig = value.theta[i]
        value.theta[i] = orig + h; lp = f()
        value.theta[i] = orig - h; lm = f()
        value.theta[i] = orig
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(grad[i]), 1e-8)
        assert abs(fd - grad[i]) / denom < 1e-4


# ---------------------------------------------------------------------------
# TD loss
# ---------------------------------------------------------------------------

def test_td_targets_mask_terminals():
    value, *_ = make_nets()
    rews = np.array([1.0, -20.0], np.float32)
    nxt = np.zeros((2, DIM), np.float32)
    dones = np.array([0.0, 1.0], np.float32)
    y = td_targets(value, rews, nxt, dones, 0.99)
    v0 = float(value.forward(nxt)[0, 0])
    assert y[0] == pytest.approx(1.0 + 0.99 * v0)
    assert y[1] == pytest.approx(-20.0)  # no bootstrap through terminal


def test_td_loss_zero_when_targets_met():
    # single linear critic forced to predict exactly the target
    critic = Mlp((3, 1), "relu", np.zeros(4))
    critic.theta[3] = -20.0  # bias-only prediction
    x = np.zeros((4, 3))
    loss, grads = critic_loss_and_grads([critic], x, np.full(4, -20.0))
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grads[0], 0.0)


def test_td_loss_exact_bootstrap_case():
    # r=0, V(s') = 10, gamma=0.99 and Q = 9.9 gives zero loss
    value = Mlp((DIM, 1), "relu", np.zeros(DIM + 1))
    value.theta[DIM] = 10.0
    critic = Mlp((DIM + 2, 1), "relu", np.zeros(DIM + 3))
    critic.theta[DIM + 2] = 9.9
    batch = make_batch(4)
    y = td_targets(value, np.zeros(4), batch.next_features, np.zeros(4), 0.99)
    x_sa = critic_inputs(batch.features, batch.actions, SCALE)
    loss, _ = critic_loss_and_grads([critic], x_sa, y)
    assert loss == pytest.approx(0.0, abs=1e-18)


def test_td_loss_matches_scalar_loop_oracle():
    value, critics, _, _ = make_nets(seed=6)
    batch = make_batch(12, seed=7)
    # composed as train() composes the critic update
    y = td_targets(value, batch.rewards, batch.next_features, batch.dones, 0.99)
    x_sa = critic_inputs(batch.features, batch.actions, SCALE)
    got, _ = critic_loss_and_grads(critics, x_sa, y)
    # independent recomputation, one-row batches at a time
    total = 0.0
    count = 0
    for i in range(len(batch)):
        v_next = float(value.forward(batch.next_features[i:i + 1])[0, 0])
        y = float(batch.rewards[i]) + (1 - float(batch.dones[i])) * 0.99 * v_next
        xi = np.concatenate([batch.features[i],
                             (batch.actions[i] / SCALE).astype(np.float32)])
        for c in critics:
            q = float(c.forward(xi[None, :])[0, 0])
            total += (q - y) ** 2
            count += 1
    assert got == pytest.approx(total / count, rel=1e-6)


def test_critic_grads_fd():
    _, critics, _, _ = make_nets(seed=8)
    batch = make_batch(10, seed=9)
    x_sa = critic_inputs(batch.features, batch.actions, SCALE)
    y = np.random.default_rng(10).normal(size=10)
    loss, grads = critic_loss_and_grads(critics, x_sa, y)

    def f():
        l, _ = critic_loss_and_grads(critics, x_sa, y)
        return l

    rng = np.random.default_rng(11)
    for c, g in zip(critics, grads):
        idx = rng.choice(c.n_params, 20, replace=False)
        h = 1e-4
        for i in idx:
            orig = c.theta[i]
            c.theta[i] = orig + h; lp = f()
            c.theta[i] = orig - h; lm = f()
            c.theta[i] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            assert abs(fd - g[i]) / denom < 1e-4


def test_min_target_q_is_elementwise_min():
    _, _, targets, _ = make_nets(seed=12)
    x = np.random.default_rng(13).uniform(-1, 1, (6, DIM + 2)).astype(np.float32)
    m = min_target_q(targets, x)
    q0 = targets[0].forward(x)[:, 0]
    q1 = targets[1].forward(x)[:, 0]
    assert np.allclose(m, np.minimum(q0, q1))


# ---------------------------------------------------------------------------
# policy losses
# ---------------------------------------------------------------------------

def test_awr_weights_values_and_cap():
    assert awr_weights(np.array([0.0]), 1.0, 100.0)[0] == pytest.approx(1.0)
    assert awr_weights(np.array([0.5]), 1.0, 100.0)[0] == pytest.approx(
        math.exp(0.5))
    assert awr_weights(np.array([10.0]), 1.0, 100.0)[0] == pytest.approx(100.0)
    # overflow-proof
    assert awr_weights(np.array([1e6]), 1.0, 100.0)[0] == pytest.approx(100.0)


def test_awr_zero_advantage_equals_bc():
    _, _, _, policy = make_nets(seed=14)
    batch = make_batch(8, seed=15)
    a = awr_loss_and_grads(policy, batch, np.zeros(8), beta=1.0,
                           w_max=100.0)[0]
    b = bc_loss_and_grads(policy, batch)[0]
    assert a == pytest.approx(b, rel=1e-12)
    # and beta = 0 degenerates the weights to one as well
    c = awr_loss_and_grads(policy, batch,
                           np.random.default_rng(0).normal(size=8),
                           beta=0.0, w_max=100.0)[0]
    assert c == pytest.approx(b, rel=1e-12)


def test_policy_guard_rejects_collision_batches():
    _, _, _, policy = make_nets(seed=16)
    bad = make_batch(8, seed=17, with_collisions=True)
    with pytest.raises(ProtocolError, match="collision"):
        awr_loss_and_grads(policy, bad, np.zeros(8), 1.0, 100.0)
    with pytest.raises(ProtocolError, match="collision"):
        bc_loss_and_grads(policy, bad)


def test_awr_full_gradient_fd():
    value, critics, targets, policy = make_nets(seed=18)
    batch = make_batch(12, seed=19)
    adv = advantages(targets, value, batch.features, batch.actions, SCALE)
    loss, g_mean, g_ls, w = awr_loss_and_grads(policy, batch, adv, 1.0, 100.0)
    assert np.all(w <= 100.0)

    def f():
        return float(-np.mean(w * log_prob(policy, batch.features,
                                           batch.actions)))

    assert loss == pytest.approx(f(), rel=1e-12)
    rng = np.random.default_rng(20)
    idx = rng.choice(policy.mean_net.n_params, 20, replace=False)
    h = 1e-4
    for i in idx:
        orig = policy.mean_net.theta[i]
        policy.mean_net.theta[i] = orig + h; lp = f()
        policy.mean_net.theta[i] = orig - h; lm = f()
        policy.mean_net.theta[i] = orig
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(g_mean[i]), 1e-8)
        assert abs(fd - g_mean[i]) / denom < 1e-4


def test_bc_overfits_tiny_dataset():
    """Loss decreases monotonically-ish when cloning 10 transitions."""
    from fanav.nets import AdamState, adam_step
    _, _, _, policy = make_nets(seed=21)
    batch = make_batch(10, seed=22)
    n = policy.mean_net.n_params
    opt_m = AdamState(np.zeros(n), np.zeros(n), 0, lr=1e-3)
    opt_s = AdamState(np.zeros(2), np.zeros(2), 0, lr=1e-3)
    losses = []
    for _ in range(100):
        loss, g_mean, g_ls = bc_loss_and_grads(policy, batch)
        losses.append(loss)
        adam_step(policy.mean_net.theta, g_mean, opt_m)
        adam_step(policy.log_std, g_ls, opt_s)
    assert losses[-1] < losses[0]
    # overall downward trend over halves
    assert np.mean(losses[50:]) < np.mean(losses[:50])


def test_identical_batches_identical_loss():
    _, _, _, policy = make_nets(seed=23)
    batch = make_batch(6, seed=24)
    assert bc_loss_and_grads(policy, batch)[0] \
        == bc_loss_and_grads(policy, batch)[0]
