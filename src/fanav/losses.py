"""Training objectives: expectile value loss, TD critic loss, weighted
behavior cloning, and their exact parameter gradients.

Three separate minimizations, matching how the trainers use them: the value
target (min over target critics) is a constant to the value loss, the TD
target is a constant to the critic loss, and the advantage weights are
constants to the policy loss. No gradient crosses between them.

The policy losses enforce the asymmetry contract: batches that contain
collision-labeled transitions are rejected. A method whose policy batches
are pooled (a row of ``trainers.METHODS``) weights them with
``awr_weights`` and calls the unguarded core, ``weighted_nll_and_grads``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ProtocolError
from .data import Batch
from .nets import GaussianPolicyHead, Mlp


# ---------------------------------------------------------------------------
# expectile regression
# ---------------------------------------------------------------------------

def expectile_weights(u: np.ndarray, tau: float) -> np.ndarray:
    """|tau - 1{u < 0}| per element."""
    return np.where(u < 0, 1.0 - tau, tau)


def expectile_loss(u: np.ndarray, tau: float) -> float:
    """Mean asymmetric squared loss of residuals ``u``."""
    u = np.asarray(u, np.float64)
    return float(np.mean(expectile_weights(u, tau) * u * u))


def expectile_grad(u: np.ndarray, tau: float) -> np.ndarray:
    """d(mean expectile loss)/du, elementwise."""
    u = np.asarray(u, np.float64)
    return 2.0 * expectile_weights(u, tau) * u / u.size


def scalar_expectile(samples: np.ndarray, tau: float, tol: float = 1e-12) -> float:
    """The tau-expectile of a sample set, found by bisection.

    Solves sum(|tau - 1{q < e}| * (q - e)) = 0, which is the first-order
    condition of the expectile loss in a single scalar parameter.
    """
    q = np.asarray(samples, np.float64)
    lo, hi = float(q.min()), float(q.max())

    def f(e):
        u = q - e
        return float(np.sum(expectile_weights(u, tau) * u))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def value_loss_and_grad(value_net: Mlp, feats: np.ndarray,
                        q_targets: np.ndarray, tau: float
                        ) -> tuple[float, np.ndarray]:
    """Expectile loss of q_targets - V(s) and its gradient in V's parameters."""
    v, cache = value_net.forward_cached(feats)
    u = np.asarray(q_targets, np.float64) - np.asarray(v[:, 0], np.float64)
    loss = expectile_loss(u, tau)
    dv = (-expectile_grad(u, tau))[:, None]
    grad = value_net.backward(cache, dv.astype(value_net.dtype))
    return loss, grad


# ---------------------------------------------------------------------------
# TD critic regression
# ---------------------------------------------------------------------------

def critic_inputs(feats: np.ndarray, actions: np.ndarray,
                  action_scale: np.ndarray) -> np.ndarray:
    """Concatenate state features with actions normalized to [-1, 1]."""
    a = np.asarray(actions, np.float64) / np.asarray(action_scale, np.float64)
    return np.concatenate([feats, a.astype(feats.dtype)], axis=1)


def td_targets(value_net: Mlp, rewards: np.ndarray, next_feats: np.ndarray,
               dones: np.ndarray, gamma: float) -> np.ndarray:
    """r + (1 - done) * gamma * V(s'); terminal transitions do not bootstrap."""
    v_next = np.asarray(value_net.forward(next_feats)[:, 0], np.float64)
    return (np.asarray(rewards, np.float64)
            + (1.0 - np.asarray(dones, np.float64)) * gamma * v_next)


def critic_loss_and_grads(critics: list[Mlp], x_sa: np.ndarray,
                          targets: np.ndarray
                          ) -> tuple[float, list[np.ndarray]]:
    """Mean squared error over the batch and the critic ensemble."""
    y = np.asarray(targets, np.float64)
    n = y.size * len(critics)
    loss = 0.0
    grads = []
    for net in critics:
        q, cache = net.forward_cached(x_sa)
        resid = np.asarray(q[:, 0], np.float64) - y
        loss += float(np.sum(resid * resid))
        dq = (2.0 * resid / n)[:, None]
        g = net.backward(cache, dq.astype(net.dtype))
        grads.append(g)
    return loss / n, grads


def min_target_q(target_critics: list[Mlp], x_sa: np.ndarray) -> np.ndarray:
    """Elementwise minimum over the target critic ensemble."""
    qs = [np.asarray(net.forward(x_sa)[:, 0], np.float64)
          for net in target_critics]
    return np.minimum.reduce(qs)


def advantages(target_critics: list[Mlp], value_net: Mlp, feats: np.ndarray,
               actions: np.ndarray, action_scale: np.ndarray) -> np.ndarray:
    """A(s, a) = min_k Qhat_k(s, a) - V(s), as used for policy weighting."""
    x_sa = critic_inputs(feats, actions, action_scale)
    v = np.asarray(value_net.forward(feats)[:, 0], np.float64)
    return min_target_q(target_critics, x_sa) - v


# ---------------------------------------------------------------------------
# policy extraction
# ---------------------------------------------------------------------------

def awr_weights(adv: np.ndarray, beta: float, w_max: float) -> np.ndarray:
    """min(exp(beta * A), w_max), evaluated without overflow."""
    capped_exponent = np.minimum(beta * np.asarray(adv, np.float64),
                                 math.log(w_max))
    return np.exp(capped_exponent)


def _guard_exp_only(batch: Batch, name: str) -> None:
    n_col = batch.n_collision
    if n_col:
        raise ProtocolError(
            f"{name} received {n_col} collision-labeled transitions; "
            "policy losses accept success-partition batches only")


def weighted_nll_and_grads(policy: GaussianPolicyHead, feats: np.ndarray,
                           actions: np.ndarray, weights: np.ndarray):
    """Unguarded core: -mean(w * log pi(a|s)) plus parameter gradients."""
    return policy.nll_and_grads(feats, actions, weights)


def awr_loss_and_grads(policy: GaussianPolicyHead, batch: Batch,
                       adv: np.ndarray, beta: float, w_max: float):
    """Advantage-weighted regression loss on a success-only batch.

    Returns (loss, grad wrt policy mean net, grad wrt log_std, weights).
    The weights are constants: no gradient flows into the critics.
    """
    _guard_exp_only(batch, "awr_loss")
    w = awr_weights(adv, beta, w_max)
    loss, g_mean, g_ls = weighted_nll_and_grads(policy, batch.features,
                                                batch.actions, w)
    return loss, g_mean, g_ls, w


def bc_loss_and_grads(policy: GaussianPolicyHead, batch: Batch):
    """Plain behavior cloning: all advantage weights forced to one."""
    _guard_exp_only(batch, "bc_loss")
    w = np.ones(len(batch))
    return weighted_nll_and_grads(policy, batch.features, batch.actions, w)
