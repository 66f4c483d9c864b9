"""Feed-forward networks with hand-written reverse-mode gradients.

All parameters of a network live in one flat vector; weight matrices and
bias vectors are reshaped views into it, so optimizer updates, soft target
blending and serialization are plain vector operations. Gradients are exact
derivatives of the affine/activation composition, verified against finite
differences in the test suite. Only the fixed loss graphs needed for
training are supported; this is deliberately not a general autodiff.

Layer l maps a -> act(a @ W_l + b_l) with a linear final layer. Activations:
relu (He-initialized) or tanh (Xavier-initialized).

Besides the matrix products, each elementwise stage is one pass, and each
writes into an array which already exists: a layer's bias and ReLU into the
product's result, the ReLU mask into the backward pass's own delta, the
bias and weight gradients into their slices of the gradient vector, and an
Adam step into the moments, the parameters and two scratch arrays. The bits are those of the textbook formulas
``act(a @ W + b)``, ``delta * act'(z)``, ``a.T @ delta``, ``delta @ W.T``
and Adam's. Two exact shortcuts keep them so:

- ReLU's mask is ``post > 0``, which equals ``pre > 0``, so the cache keeps
  only the layer outputs (``cache["inputs"]``).
- ``delta @ W.T`` for a one-column W (the value and critic heads) is an
  outer product, which ``np.multiply`` computes without a BLAS call. Its
  -0.0 where BLAS gives +0.0 reaches only sums that start from +0.0, so
  every gradient keeps its bits.

A forward or backward call runs under one ``np.errstate`` that silences
invalid and overflow warnings, so a non-finite weight ends in the
``NumericError`` of the layer where it shows, never in a RuntimeWarning;
so do the loss functions that cast float64 gradients to a network's
float32, whose overflow the gradient check then refuses.
The finiteness check, numpy's ``isfinite``, runs on every layer's
pre-activation, so a -inf that ReLU would map to 0 is caught where it
first appears.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import binio
from .errors import ConfigError, DataFormatError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh")


def layer_widths(widths) -> tuple[int, ...]:
    """``widths`` as a tuple; a width that is not an int >= 1, such as a
    bool, 2.0 or "2", is a ``ConfigError``."""
    if not all(type(w) is int and w >= 1 for w in widths):
        raise ConfigError(f"bad layer widths {list(widths)}, not all "
                          "integers >= 1")
    return tuple(widths)


def param_count(widths: tuple[int, ...]) -> int:
    return sum(a * b + b for a, b in zip(widths, widths[1:]))


# entered once per forward, backward or adam_step call, not once per layer
_QUIET = np.errstate(invalid="ignore", over="ignore")


def _all_finite(arr: np.ndarray) -> bool:
    """True when no element of ``arr`` is +-inf or NaN."""
    return bool(np.isfinite(arr).all())


class Mlp:
    """Fixed-topology multilayer perceptron over a flat parameter vector,
    computing in its dtype (float32 zeros when ``theta`` is not given)."""

    def __init__(self, widths: tuple[int, ...], activation: str,
                 theta: np.ndarray | None = None):
        self.widths = layer_widths(widths)
        if len(self.widths) < 2:
            raise ConfigError(f"bad layer widths {self.widths}")
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}, expected "
                              f"one of {list(ACTIVATIONS)}")
        self.activation = activation
        n = param_count(self.widths)
        theta = np.zeros(n, np.float32) if theta is None else np.asarray(theta)
        self.dtype = theta.dtype.type
        if theta.shape != (n,):
            raise ShapeError(f"theta has shape {theta.shape}, expected ({n},)")
        self.theta = theta
        self._rebuild_views()

    def _rebuild_views(self) -> None:
        self._views: list[tuple[np.ndarray, np.ndarray]] = []
        off = 0
        for a, b in zip(self.widths, self.widths[1:]):
            W = self.theta[off:off + a * b].reshape(a, b)
            off += a * b
            bias = self.theta[off:off + b]
            off += b
            self._views.append((W, bias))

    @property
    def n_params(self) -> int:
        return self.theta.size

    @property
    def n_layers(self) -> int:
        return len(self._views)

    @classmethod
    def initialized(cls, widths: tuple[int, ...], activation: str,
                    rng: np.random.Generator,
                    final_scale: float = 1.0) -> "Mlp":
        """He (relu) or Xavier (tanh) float32 weights with zero biases.

        ``final_scale`` shrinks the last layer's weights; near-zero initial
        outputs keep early policy actions small.
        """
        net = cls(widths, activation)
        gain = 2.0 if activation == "relu" else 1.0
        n_layers = net.n_layers
        for l, (W, b) in enumerate(net._views):
            std = math.sqrt(gain / W.shape[0])
            w = rng.standard_normal(W.shape) * std
            if l == n_layers - 1:
                w *= final_scale
            W[:] = w.astype(net.dtype)
            b[:] = 0
        return net

    def _check(self, arr: np.ndarray, layer: int, stage: str) -> None:
        if not _all_finite(arr):
            raise NumericError(f"non-finite values at layer {layer} ({stage})")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; rows are independent samples."""
        y, _ = self._forward(x, keep_cache=False)
        return y

    def forward_cached(self, x: np.ndarray):
        """Forward pass retaining activations for a later backward pass."""
        return self._forward(x, keep_cache=True)

    @_QUIET
    def _forward(self, x: np.ndarray, keep_cache: bool):
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim != 2 or a.shape[1] != self.widths[0]:
            raise ShapeError(f"input shape {a.shape} is not a batch of "
                             f"(rows, {self.widths[0]})")
        self._check(a, 0, "input")
        cache = {"inputs": [a]} if keep_cache else None
        last = self.n_layers - 1
        for l, (W, b) in enumerate(self._views):
            z = a @ W
            z += b
            self._check(z, l, "forward")
            if l != last:
                if self.activation == "relu":
                    np.maximum(z, 0, out=z)
                else:
                    np.tanh(z, out=z)
            a = z
            if keep_cache:
                cache["inputs"].append(a)
        return a, cache

    @_QUIET
    def backward(self, cache: dict, dy: np.ndarray) -> np.ndarray:
        """Gradient of sum(dy * output) with respect to the flat parameters.

        ``dy`` is the upstream derivative, one row per batch row; it is
        read, never written.
        """
        inputs = cache["inputs"]
        delta = np.asarray(dy, dtype=self.dtype)
        if delta.shape != inputs[-1].shape:
            raise ShapeError(f"dy shape {delta.shape} != output shape "
                             f"{inputs[-1].shape}")
        grad = np.empty_like(self.theta)
        goff = grad.size
        last = self.n_layers - 1
        for l in range(last, -1, -1):
            W, b = self._views[l]
            if l != last:
                # delta is this pass's own array here, never the caller's dy
                post = inputs[l + 1]
                if self.activation == "relu":
                    np.multiply(delta, post > 0, out=delta)
                else:
                    delta *= 1.0 - post * post
            goff -= b.size
            delta.sum(axis=0, out=grad[goff:goff + b.size])
            goff -= W.size
            np.matmul(inputs[l].T, delta,
                      out=grad[goff:goff + W.size].reshape(W.shape))
            if l > 0:
                if W.shape[1] == 1:
                    delta = np.multiply(delta, W.T)
                else:
                    delta = delta @ W.T
                self._check(delta, l, "backward")
        return grad

    def copy(self) -> "Mlp":
        return Mlp(self.widths, self.activation, self.theta.copy())


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Bias-corrected Adam moments for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, n: int, lr: float) -> "AdamState":
        return cls(np.zeros(n, np.float32), np.zeros(n, np.float32), 0, lr)


@_QUIET
def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState
              ) -> tuple[np.ndarray, AdamState]:
    """One in-place Adam update; returns the same arrays for convenience.

    A non-finite gradient raises before anything is written. Every
    intermediate has the dtype of the formula
    ``m += (1 - b1) * (g - m); v += (1 - b2) * (g * g - v);
    p -= (lr * m_hat / (sqrt(v_hat) + eps)).astype(p.dtype)``; two scratch
    arrays hold them in turn.
    """
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ShapeError("params, grad and optimizer state sizes disagree")
    if not _all_finite(grad):
        raise NumericError("non-finite gradient passed to adam_step")
    state.t += 1
    m, v = state.m, state.v
    s1 = np.subtract(grad, m)
    s1 *= 1.0 - state.beta1
    m += s1
    s2 = np.multiply(grad, grad)
    np.subtract(s2, v, out=s1)
    s1 *= 1.0 - state.beta2
    v += s1
    # the bias-corrected step is computed in the moments' dtype
    step = s1 if s1.dtype == m.dtype else np.empty_like(m)
    den = s2 if s2.dtype == m.dtype else np.empty_like(m)
    np.divide(m, 1.0 - state.beta1 ** state.t, out=step)
    step *= state.lr
    np.divide(v, 1.0 - state.beta2 ** state.t, out=den)
    np.sqrt(den, out=den)
    den += state.eps
    step /= den
    np.subtract(params, step, out=params, dtype=params.dtype)
    return params, state


def soft_update(target: np.ndarray, online: np.ndarray, alpha: float) -> np.ndarray:
    """Polyak blend target <- (1 - alpha) * target + alpha * online, in place."""
    if target.shape != online.shape:
        raise ShapeError("target and online parameter sizes disagree")
    target *= (1.0 - alpha)
    target += alpha * online
    return target


# ---------------------------------------------------------------------------
# tanh-squashed Gaussian policy head
# ---------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)
_BOUND_MARGIN = 1e-6


class GaussianPolicyHead:
    """Diagonal Gaussian squashed to the action box by tanh.

    The mean comes from an MLP; the log standard deviations are two
    state-independent learned parameters clamped to ``LOG_STD_BOUNDS``.
    Raw actions live in [-scale_i, scale_i] per channel. A new head starts
    at ``LOG_STD_INIT``, with the mean net's last-layer weights scaled by
    ``FINAL_SCALE``, so early actions stay small.
    """

    LOG_STD_BOUNDS = (-5.0, 2.0)
    LOG_STD_INIT = -0.5
    FINAL_SCALE = 1e-2

    def __init__(self, mean_net: Mlp, action_scale: np.ndarray,
                 log_std: np.ndarray):
        if mean_net.widths[-1] != 2:
            raise ShapeError("policy mean network must have 2 outputs")
        self.mean_net = mean_net
        self.action_scale = np.asarray(action_scale, dtype=np.float64)
        self.log_std = np.asarray(log_std, dtype=mean_net.dtype)
        if self.log_std.shape != (2,):
            raise ShapeError("log_std must have shape (2,)")

    @property
    def obs_dim(self) -> int:
        return self.mean_net.widths[0]

    def clipped_log_std(self) -> np.ndarray:
        lo, hi = self.LOG_STD_BOUNDS
        return np.clip(self.log_std.astype(np.float64), lo, hi)

    def mean_action(self, feats: np.ndarray) -> np.ndarray:
        """Deterministic action: squashed mean of the Gaussian."""
        mu = self.mean_net.forward(feats)
        return np.tanh(np.asarray(mu, np.float64)) * self.action_scale

    def _inverse_squash(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = np.atleast_2d(np.asarray(actions, np.float64))
        limit = self.action_scale - _BOUND_MARGIN
        a = np.clip(a, -limit, limit)
        t = a / self.action_scale          # in (-1, 1)
        z = np.arctanh(t)
        return z, t

    def _log_prob_parts(self, feats: np.ndarray, actions: np.ndarray):
        mu, cache = self.mean_net.forward_cached(feats)
        mu = np.asarray(mu, np.float64)
        z, t = self._inverse_squash(actions)
        if z.shape != mu.shape:
            raise ShapeError(f"actions shape {z.shape} != mean shape {mu.shape}")
        log_std = self.clipped_log_std()
        inv_var = np.exp(-2.0 * log_std)
        resid = z - mu
        gauss = -0.5 * (resid * resid) * inv_var - log_std - 0.5 * _LOG_2PI
        correction = np.log(self.action_scale) + np.log1p(-(t * t))
        logp = np.sum(gauss - correction, axis=1)
        parts = {"cache": cache, "resid": resid, "inv_var": inv_var,
                 "log_std": log_std}
        return logp, parts

    @_QUIET
    def nll_and_grads(self, feats: np.ndarray, actions: np.ndarray,
                      weights: np.ndarray):
        """Weighted negative log-likelihood and its parameter gradients.

        Loss = -mean_i(w_i * log pi(a_i | s_i)); returns (loss, grad wrt
        mean-net parameters, grad wrt log_std).
        """
        logp, parts = self._log_prob_parts(feats, actions)
        w = np.asarray(weights, np.float64).reshape(-1)
        if w.shape[0] != logp.shape[0]:
            raise ShapeError("weights length does not match the batch")
        n = logp.shape[0]
        loss = float(-(w @ logp) / n)
        # d loss / d mu = -(w/n) * (z - mu) / sigma^2
        dmu = (-(w[:, None] / n) * parts["resid"] * parts["inv_var"])
        grad_mean = self.mean_net.backward(
            parts["cache"], dmu.astype(self.mean_net.dtype))
        # d logp / d log_std = resid^2/sigma^2 - 1 (zero where the clamp binds)
        dls = -(w[:, None] / n) * (parts["resid"] ** 2 * parts["inv_var"] - 1.0)
        grad_log_std = dls.sum(axis=0)
        lo, hi = self.LOG_STD_BOUNDS
        raw = self.log_std.astype(np.float64)
        grad_log_std = np.where((raw <= lo) & (grad_log_std > 0), 0.0,
                                grad_log_std)
        grad_log_std = np.where((raw >= hi) & (grad_log_std < 0), 0.0,
                                grad_log_std)
        return loss, grad_mean, grad_log_std.astype(self.mean_net.dtype)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, nets: dict[str, Mlp | np.ndarray],
                    meta: dict | None = None) -> None:
    """A :mod:`fanav.binio` container of kind ``checkpoint``: the header
    lists each network's widths and activation in order, a vector as
    ``[len]`` and ``"none"``, and ``<name>/params`` holds the parameters.
    No optimizer state: nothing that loads a checkpoint resumes training."""
    specs, arrays = [], {}
    for name, net in nets.items():
        if isinstance(net, Mlp):
            widths, act, params = net.widths, net.activation, net.theta
        else:
            widths, act, params = (len(net),), "none", net
        specs.append({"name": name, "widths": list(widths),
                      "activation": act})
        arrays[f"{name}/params"] = params
    binio.write(path, "checkpoint", {"sections": specs, "meta": meta or {}},
                arrays)


def load_checkpoint(path: str) -> tuple[dict[str, Mlp | np.ndarray], dict]:
    """The networks and vectors of a checkpoint, in order, and its
    metadata; a spec that does not build is a ``DataFormatError``. Members
    no spec names, such as the Adam moments older files hold, are checked
    by :func:`fanav.binio.read` and otherwise ignored."""
    header, arrays = binio.read(path, "checkpoint")
    for key, arr in arrays.items():
        if arr.dtype not in (np.float32, np.float64) or arr.ndim != 1:
            raise DataFormatError(f"{path}: {key} is {arr.dtype} {arr.shape}, "
                                  "expected a float32 or float64 vector")
    nets: dict[str, Mlp | np.ndarray] = {}
    try:
        for spec in header["sections"]:
            name, act, widths = spec["name"], spec["activation"], spec["widths"]
            params = arrays[f"{name}/params"]
            if act == "none" and layer_widths(widths) != params.shape:
                raise ShapeError(f"a vector of {params.size} listed as "
                                 f"{list(widths)}")
            nets[name] = params if act == "none" else Mlp(widths, act, params)
        return nets, dict(header["meta"])
    except (ConfigError, ShapeError) as exc:
        raise DataFormatError(f"{path}: {name}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad checkpoint ({exc!r})") from exc


def params_digest(*vectors: np.ndarray) -> str:
    h = hashlib.sha256()
    for v in vectors:
        h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()
