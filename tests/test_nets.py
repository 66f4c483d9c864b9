import math
import re
from pathlib import Path

import numpy as np
import pytest

from fanav import binio
from fanav.errors import ConfigError, DataFormatError, NumericError, ShapeError
from fanav.nets import (
    _all_finite,
    AdamState,
    GaussianPolicyHead,
    Mlp,
    Section,
    adam_step,
    load_checkpoint,
    param_count,
    params_digest,
    save_checkpoint,
    soft_update,
)

from oracles import log_prob


def cast(net: Mlp, dtype) -> Mlp:
    """``net`` rebuilt on a copy of its parameters in ``dtype``."""
    return Mlp(net.widths, net.activation, net.theta.astype(dtype))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_param_count_invariant():
    widths = (112, 256, 256, 1)
    assert param_count(widths) == 112 * 256 + 256 + 256 * 256 + 256 + 256 + 1
    net = Mlp.initialized(widths, "relu", np.random.default_rng(0))
    assert net.n_params == param_count(widths)


def test_identity_linear_layer():
    net = Mlp((3, 3), "relu")
    net.theta[:9] = np.eye(3).reshape(-1)
    x = np.array([[1.0, -2.0, 3.0]], dtype=np.float32)
    assert np.allclose(net.forward(x), x)


def test_zero_weights_bias_only():
    net = Mlp((4, 2), "tanh")
    net.theta[8:] = [0.5, -1.5]  # bias
    out = net.forward(np.random.default_rng(1).normal(size=(6, 4)))
    assert np.allclose(out, [0.5, -1.5], atol=1e-6)


def test_forward_matches_matrix_oracle():
    rng = np.random.default_rng(2)
    net = cast(Mlp.initialized((112, 256, 256, 1), "relu", rng), np.float64)
    x = rng.normal(size=(5, 112))
    # straight-line recomputation from the parameter views
    (w1, b1), (w2, b2), (w3, b3) = net._views
    ref = np.maximum(x @ w1 + b1, 0)
    ref = np.maximum(ref @ w2 + b2, 0)
    ref = ref @ w3 + b3
    assert np.allclose(net.forward(x), ref, atol=1e-6)


def test_forward_shape_checks():
    net = Mlp((4, 2), "relu")
    with pytest.raises(ShapeError):
        net.forward(np.zeros((3, 5)))
    with pytest.raises(NumericError):
        net.forward(np.array([[1.0, np.nan, 0.0, 0.0]]))


def test_non_batch_input_is_refused():
    # a batch is (rows, width); a lone row or a stack of batches is not,
    # even when its second axis has the input width
    rng = np.random.default_rng(3)
    net = Mlp.initialized((4, 8, 2), "tanh", rng)
    x = rng.normal(size=(3, 4)).astype(np.float32)
    for bad in (x[0], x[None], x.reshape(3, 4, 1)):
        for forward in (net.forward, net.forward_cached):
            with pytest.raises(ShapeError, match=re.escape(str(bad.shape))):
                forward(bad)
    _, cache = net.forward_cached(x)
    with pytest.raises(ShapeError, match="dy shape"):
        net.backward(cache, np.ones(2, np.float32))


def test_bad_configs():
    with pytest.raises(ConfigError):
        Mlp((4,), "relu")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def numerical_grad(fn, theta: np.ndarray, idx: np.ndarray, h=1e-4) -> np.ndarray:
    out = np.empty(len(idx))
    for k, i in enumerate(idx):
        orig = theta[i]
        theta[i] = orig + h
        lp = fn()
        theta[i] = orig - h
        lm = fn()
        theta[i] = orig
        out[k] = (lp - lm) / (2 * h)
    return out


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def test_backward_squared_loss_finite_difference():
    rng = np.random.default_rng(4)
    net = cast(Mlp.initialized((6, 16, 16, 1), "relu", rng), np.float64)
    x = rng.normal(size=(32, 6))
    y = rng.normal(size=(32, 1))

    def loss():
        return float(np.mean((net.forward(x) - y) ** 2))

    out, cache = net.forward_cached(x)
    dy = 2.0 * (out - y) / x.shape[0]
    grad = net.backward(cache, dy)
    idx = rng.choice(net.n_params, 20, replace=False)
    fd = numerical_grad(loss, net.theta, idx)
    assert rel_err(fd, grad[idx]) < 1e-4


def test_backward_linear_closed_form():
    rng = np.random.default_rng(5)
    n, d = 40, 5
    X = rng.normal(size=(n, d))
    y = rng.normal(size=(n, 1))
    net = Mlp((d, 1), "relu", np.zeros(d + 1))
    net.theta[:d] = rng.normal(size=d)
    w = net.theta[:d].reshape(d, 1)
    out, cache = net.forward_cached(X)
    grad = net.backward(cache, 2.0 * (out - y) / n)
    closed = (2.0 * X.T @ (X @ w - y) / n).reshape(-1)
    assert np.allclose(grad[:d], closed, atol=1e-10)
    assert grad[d] == pytest.approx(float(2.0 * np.mean(X @ w - y)), abs=1e-10)


# ---------------------------------------------------------------------------
# Adam and soft updates
# ---------------------------------------------------------------------------

def test_adam_first_step_hand_check():
    p = np.zeros(1, dtype=np.float64)
    st = AdamState(np.zeros(1), np.zeros(1), 0, lr=3e-4)
    adam_step(p, np.ones(1), st)
    # bias-corrected m_hat = v_hat = 1 at t=1, so the step is -lr/(1+eps)
    assert p[0] == pytest.approx(-3e-4, rel=1e-6)
    assert st.t == 1


def test_adam_zero_grad_no_move():
    p = np.full(5, 1.5)
    st = AdamState.for_params(5, lr=1e-2)
    adam_step(p, np.zeros(5), st)
    assert np.all(p == 1.5)


def test_adam_determinism():
    rng = np.random.default_rng(7)
    grads = rng.normal(size=(50, 8))

    def run():
        p = np.zeros(8)
        st = AdamState.for_params(8, lr=1e-3)
        for g in grads:
            adam_step(p, g, st)
        return p.copy()

    assert np.array_equal(run(), run())


def test_adam_scale_invariance_of_signs():
    rng = np.random.default_rng(8)
    g = rng.normal(size=20)
    steps = {}
    for c in (0.1, 1.0, 10.0):
        p = np.zeros(20)
        st = AdamState.for_params(20, lr=1e-3)
        adam_step(p, c * g, st)
        steps[c] = p.copy()
    assert np.array_equal(np.sign(steps[0.1]), np.sign(steps[10.0]))
    # magnitudes stay within a modest factor (Adam is scale-adaptive)
    ratio = np.abs(steps[10.0]) / np.abs(steps[0.1])
    assert np.all(ratio < 1.5) and np.all(ratio > 0.65)


def test_adam_rejects_nonfinite():
    p = np.zeros(3)
    st = AdamState.for_params(3, lr=1e-3)
    with pytest.raises(NumericError):
        adam_step(p, np.array([1.0, np.inf, 0.0]), st)


def test_soft_update_cases():
    t = np.zeros(4)
    o = np.ones(4)
    soft_update(t, o, 0.005)
    assert np.allclose(t, 0.005)
    t2 = np.full(4, 0.3)
    soft_update(t2, o, 1.0)
    assert np.allclose(t2, 1.0)
    t3 = o.copy()
    soft_update(t3, o, 0.25)
    assert np.allclose(t3, o)


# ---------------------------------------------------------------------------
# byte equality with the textbook formulas
# ---------------------------------------------------------------------------

def ref_forward(net: Mlp, x: np.ndarray):
    """act(a @ W + b) per layer; returns (output, layer inputs, pre-acts)."""
    a = np.asarray(x, dtype=net.dtype)
    inputs, pre = [a], []
    last = net.n_layers - 1
    for l, (W, b) in enumerate(net._views):
        z = a @ W + b
        if l == last:
            a = z
        elif net.activation == "relu":
            a = np.maximum(z, 0)
        else:
            a = np.tanh(z)
        pre.append(z)
        inputs.append(a)
    return a, inputs, pre


def ref_backward(net: Mlp, inputs, pre, dy: np.ndarray):
    delta = np.asarray(dy, dtype=net.dtype)
    grad = np.zeros_like(net.theta)
    goff = grad.size
    last = net.n_layers - 1
    for l in range(last, -1, -1):
        W, b = net._views[l]
        if l != last:
            if net.activation == "relu":
                dact = (pre[l] > 0).astype(pre[l].dtype)
            else:
                dact = 1.0 - inputs[l + 1] * inputs[l + 1]
            delta = delta * dact
        gb = delta.sum(axis=0)
        gW = inputs[l].T @ delta
        goff -= b.size
        grad[goff:goff + b.size] = gb
        goff -= W.size
        grad[goff:goff + W.size] = gW.reshape(-1)
        if l > 0:
            delta = delta @ W.T
    return grad


def ref_adam(params, grad, st: AdamState) -> None:
    st.t += 1
    st.m += (1.0 - st.beta1) * (grad - st.m)
    st.v += (1.0 - st.beta2) * (grad * grad - st.v)
    m_hat = st.m / (1.0 - st.beta1 ** st.t)
    v_hat = st.v / (1.0 - st.beta2 ** st.t)
    params -= (st.lr * m_hat / (np.sqrt(v_hat) + st.eps)).astype(params.dtype)


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def planted_net(activation: str, dtype, out_width: int, seed: int) -> Mlp:
    """A net with dead ReLU units, +-0.0 weights and a head whose products
    with tiny upstream values underflow to signed zeros."""
    rng = np.random.default_rng(seed)
    net = cast(Mlp.initialized((7, 16, 12, out_width), activation, rng),
               dtype)
    (W0, b0), (W1, b1), (W2, _) = net._views
    W0[:, :3] = -np.abs(W0[:, :3])   # inputs are >= 0: units 0-2 never fire
    b0[:3] = -1.0
    b1[5] = -50.0
    for W in (W0, W1, W2):
        flat = W.reshape(-1)
        idx = rng.choice(flat.size, 6, replace=False)
        flat[idx[:3]] = 0.0
        flat[idx[3:]] = -0.0
    W2[::3] = W2[::3] * np.asarray(1e-20, dtype)
    return net


def planted_dy(rng, rows: int, out_width: int, dtype) -> np.ndarray:
    dy = rng.standard_normal((rows, out_width)).astype(dtype)
    dy[::5] = 0.0
    dy[1::5] = -0.0
    dy[2::5] *= np.asarray(1e-30, dtype)
    return dy


CASES = [(act, dtype, width) for act in ("relu", "tanh")
         for dtype in (np.float32, np.float64) for width in (1, 2)]


@pytest.mark.parametrize("activation,dtype,out_width", CASES)
def test_forward_and_backward_bytes_equal_the_formulas(activation, dtype,
                                                       out_width):
    rng = np.random.default_rng(30)
    net = planted_net(activation, dtype, out_width, seed=31)
    x = rng.random((40, 7)).astype(dtype)
    x[3] = 0.0
    ref_out, ref_inputs, ref_pre = ref_forward(net, x)
    assert np.any(np.all(ref_pre[0] <= 0, axis=0))  # a dead unit
    assert same_bytes(net.forward(x), ref_out)
    out, cache = net.forward_cached(x)
    assert same_bytes(out, ref_out)
    assert len(cache["inputs"]) == len(ref_inputs)
    for got, want in zip(cache["inputs"], ref_inputs):
        assert same_bytes(got, want)
    dy = planted_dy(rng, 40, out_width, dtype)
    dy_before = dy.copy()
    grad = net.backward(cache, dy)
    assert same_bytes(grad, ref_backward(net, ref_inputs, ref_pre, dy))
    assert same_bytes(dy, dy_before)  # the caller's dy is never written


def test_one_column_outer_product_keeps_blas_signed_zeros():
    # delta @ W.T for a one-column W makes +0.0 where a product is -0.0 or
    # underflows from below, while the product without BLAS keeps -0.0. The
    # gradients it feeds are sums that start from +0.0, so their bytes must
    # still equal the formula's.
    rng = np.random.default_rng(32)
    for dtype in (np.float32, np.float64):
        tiny = np.asarray(np.finfo(dtype).tiny, dtype)
        for k in range(60):
            seed = int(rng.integers(1 << 30))
            net = planted_net("relu", dtype, 1, seed) if k % 3 else \
                cast(Mlp.initialized((7, 1), "relu",
                                     np.random.default_rng(seed)), dtype)
            W = net._views[-1][0]
            W[rng.random(W.shape) < 0.3] *= tiny
            W[rng.random(W.shape) < 0.2] = -0.0
            x = rng.random((16, 7)).astype(dtype)
            _, inputs, pre = ref_forward(net, x)
            _, cache = net.forward_cached(x)
            dy = planted_dy(rng, 16, 1, dtype)
            dy[rng.random(dy.shape) < 0.3] *= -tiny
            if k % 2:
                dy = np.abs(dy)
            assert same_bytes(net.backward(cache, dy),
                              ref_backward(net, inputs, pre, dy))


ADAM_DTYPES = [(np.float32, np.float32, np.float32),
               (np.float64, np.float64, np.float64),
               (np.float64, np.float64, np.float32),   # params, grad, moments
               (np.float32, np.float64, np.float32),
               (np.float32, np.float32, np.float64)]


@pytest.mark.parametrize("p_dtype,g_dtype,m_dtype", ADAM_DTYPES)
def test_adam_and_soft_update_bytes_equal_the_formulas(p_dtype, g_dtype,
                                                       m_dtype):
    rng = np.random.default_rng(33)
    n = 300
    params = rng.standard_normal(n).astype(p_dtype)
    ref_params = params.copy()
    st = AdamState(np.zeros(n, m_dtype), np.zeros(n, m_dtype), 0, lr=3e-4)
    ref_st = AdamState(np.zeros(n, m_dtype), np.zeros(n, m_dtype), 0, lr=3e-4)
    for _ in range(5):
        g = rng.standard_normal(n).astype(g_dtype)
        g[::7] = 0.0
        g[1::7] = -0.0
        g[2::7] *= np.asarray(1e-30, g_dtype)
        out, _ = adam_step(params, g, st)
        ref_adam(ref_params, g, ref_st)
        assert out is params
        assert same_bytes(params, ref_params)
        assert same_bytes(st.m, ref_st.m) and same_bytes(st.v, ref_st.v)
        assert st.t == ref_st.t
    target = rng.standard_normal(n).astype(p_dtype)
    ref_target = target.copy()
    soft_update(target, params, 0.005)
    ref_target *= 1.0 - 0.005
    ref_target += 0.005 * params
    assert same_bytes(target, ref_target)


# ---------------------------------------------------------------------------
# where a non-finite value is reported
# ---------------------------------------------------------------------------

BAD = [np.inf, -np.inf, np.nan]


def test_finite_check_is_exact():
    for dtype in (np.float32, np.float64):
        info = np.finfo(dtype)
        ok = np.array([info.max, -info.max, info.smallest_subnormal, -0.0,
                       0.0, 1.0] * 50, dtype)
        assert _all_finite(ok) and _all_finite(ok.reshape(30, 10))
        assert _all_finite(np.empty(0, dtype))
        for bad in BAD:
            for pos in (0, 137, ok.size - 1):
                arr = ok.copy()
                arr[pos] = bad
                assert not _all_finite(arr)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("layer", [0, 1, 2])
def test_non_finite_bias_raises_at_its_layer(bad, layer):
    # -inf in a hidden bias is mapped to 0 by ReLU, so only a check at the
    # layer where it appears can see it
    rng = np.random.default_rng(34)
    net = Mlp.initialized((5, 8, 8, 1), "relu", rng)
    net._views[layer][1][-1] = bad
    x = rng.random((6, 5)).astype(np.float32)
    for forward in (net.forward, net.forward_cached):
        with pytest.raises(NumericError,
                           match=rf"layer {layer} \(forward\)"):
            forward(x)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("layer", [0, 1, 2])
def test_non_finite_weight_raises_at_its_layer_in_forward(bad, layer):
    # a NumericError, not the RuntimeWarning the product would raise
    rng = np.random.default_rng(38)
    net = Mlp.initialized((5, 8, 8, 1), "relu", rng)
    net._views[layer][0][0, 0] = bad
    x = rng.random((6, 5)).astype(np.float32)
    for forward in (net.forward, net.forward_cached):
        with pytest.raises(NumericError,
                           match=rf"layer {layer} \(forward\)"):
            forward(x)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("layer", [1, 2])
def test_non_finite_weight_raises_at_its_layer_in_backward(bad, layer):
    # backward reads layer 0's weights nowhere: no delta goes below it
    rng = np.random.default_rng(35)
    for out_width in (1, 2):
        net = Mlp.initialized((5, 8, 8, out_width), "relu", rng)
        x = rng.random((6, 5)).astype(np.float32)
        out, cache = net.forward_cached(x)
        net._views[layer][0][0, 0] = bad
        with pytest.raises(NumericError,
                           match=rf"layer {layer} \(backward\)"):
            net.backward(cache, np.ones_like(out))


@pytest.mark.parametrize("bad", BAD)
def test_non_finite_input_raises_at_layer_zero(bad):
    net = Mlp.initialized((4, 8, 1), "relu", np.random.default_rng(36))
    x = np.ones((3, 4), np.float32)
    x[1, 2] = bad
    with pytest.raises(NumericError, match=r"layer 0 \(input\)"):
        net.forward(x)


@pytest.mark.parametrize("bad", BAD)
def test_adam_refuses_a_non_finite_gradient_without_writing(bad):
    rng = np.random.default_rng(37)
    params = rng.standard_normal(9).astype(np.float32)
    st = AdamState.for_params(9, lr=1e-3)
    for _ in range(2):
        adam_step(params, rng.standard_normal(9).astype(np.float32), st)
    before = (params.copy(), st.m.copy(), st.v.copy(), st.t)
    g = rng.standard_normal(9).astype(np.float32)
    g[4] = bad
    with pytest.raises(NumericError):
        adam_step(params, g, st)
    assert same_bytes(params, before[0])
    assert same_bytes(st.m, before[1]) and same_bytes(st.v, before[2])
    assert st.t == before[3]


# ---------------------------------------------------------------------------
# Gaussian policy head
# ---------------------------------------------------------------------------

SCALE = np.array([0.5, math.pi / 2])


def make_head(seed=9, log_std=-0.5) -> GaussianPolicyHead:
    rng = np.random.default_rng(seed)
    net = cast(Mlp.initialized((6, 16, 2), "tanh", rng, final_scale=0.5),
               np.float64)
    return GaussianPolicyHead(net, SCALE, np.full(2, log_std))


def test_mode_density_matches_closed_form():
    head = make_head()
    feats = np.random.default_rng(10).normal(size=(1, 6))
    mu = np.atleast_2d(head.mean_net.forward(feats))
    a = np.tanh(mu) * SCALE
    logp = log_prob(head, feats, a)[0]
    sigma = np.exp(head.clipped_log_std())
    t = np.tanh(mu)[0]
    expected = sum(
        -math.log(sigma[i] * math.sqrt(2 * math.pi))
        - math.log(SCALE[i]) - math.log1p(-(t[i] ** 2))
        for i in range(2))
    assert logp == pytest.approx(expected, rel=1e-9)


def test_log_prob_unimodal_in_each_channel():
    head = make_head()
    feats = np.zeros((1, 6))
    mu = np.atleast_2d(head.mean_net.forward(feats))
    mode = np.tanh(mu) * SCALE
    prev = log_prob(head, feats, mode)[0]
    for step in np.linspace(0.02, 0.4, 12):
        a = mode.copy()
        a[0, 0] += step * SCALE[0]
        cur = log_prob(head, feats, a)[0]
        assert cur < prev
        prev = cur


def test_density_integrates_to_one():
    head = make_head(log_std=-0.6)
    feats = np.random.default_rng(11).normal(size=(1, 6))
    n = 801
    margin = 1e-4
    va = np.linspace(-SCALE[0] + margin, SCALE[0] - margin, n)
    wa = np.linspace(-SCALE[1] + margin, SCALE[1] - margin, n)
    VV, WW = np.meshgrid(va, wa, indexing="ij")
    actions = np.stack([VV.reshape(-1), WW.reshape(-1)], axis=1)
    F = np.repeat(feats, actions.shape[0], axis=0)
    logp = log_prob(head, F, actions).reshape(n, n)
    integral = np.trapezoid(np.trapezoid(np.exp(logp), wa, axis=1), va)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_action_on_bound_is_clamped_not_nan():
    head = make_head()
    feats = np.zeros((1, 6))
    a = np.array([[0.5, -math.pi / 2]])  # exactly on the bounds
    logp = log_prob(head, feats, a)
    assert np.isfinite(logp).all()


def test_nll_gradients_finite_difference():
    head = make_head()
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(24, 6))
    actions = np.clip(rng.normal(size=(24, 2)) * 0.3, -0.95, 0.95) * SCALE
    weights = rng.uniform(0.5, 2.0, 24)

    def loss():
        return float(-np.mean(weights * log_prob(head, feats, actions)))

    l0, g_mean, g_ls = head.nll_and_grads(feats, actions, weights)
    assert l0 == pytest.approx(loss(), rel=1e-10)
    idx = rng.choice(head.mean_net.n_params, 20, replace=False)
    fd = numerical_grad(loss, head.mean_net.theta, idx)
    assert rel_err(fd, g_mean[idx]) < 1e-4
    fd_ls = numerical_grad(loss, head.log_std, np.array([0, 1]))
    assert rel_err(fd_ls, g_ls) < 1e-4


def test_deterministic_action_is_squashed_mean():
    head = make_head()
    feats = np.random.default_rng(14).normal(size=(3, 6))
    mu = np.atleast_2d(head.mean_net.forward(feats))
    assert np.allclose(head.mean_action(feats), np.tanh(mu) * SCALE)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(15)
    net = Mlp.initialized((6, 8, 1), "relu", rng)
    log_std = np.array([-0.5, 0.1], dtype=np.float32)
    path = str(tmp_path / "ck.famlp")
    save_checkpoint(path, {
        "value": Section(net.widths, net.activation, net.theta),
        "policy_log_std": Section((2,), "none", log_std),
    }, meta={"note": "test", "dim": 6})
    sections, meta = load_checkpoint(path)
    assert meta == {"note": "test", "dim": 6}
    assert np.array_equal(sections["value"].params, net.theta)
    assert np.array_equal(sections["policy_log_std"].params, log_std)
    restored = sections["value"].to_mlp()
    x = rng.normal(size=(4, 6)).astype(np.float32)
    assert np.array_equal(restored.forward(x), net.forward(x))


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.famlp"
    p.write_bytes(b"XXXXXX" + b"\x00" * 20)
    with pytest.raises(DataFormatError,
                       match="not a whole fanav checkpoint file"):
        load_checkpoint(str(p))
    p.write_bytes(b"FAMLP1" + b"\x01\x00\x00\x00" + b"\x00" * 20)
    with pytest.raises(DataFormatError,
                       match="format 1 predates checksums; re-create it"):
        load_checkpoint(str(p))


def test_checkpoint_truncation(tmp_path):
    rng = np.random.default_rng(16)
    net = Mlp.initialized((4, 4, 1), "relu", rng)
    path = str(tmp_path / "ck.famlp")
    save_checkpoint(path, {"v": Section(net.widths, "relu", net.theta)})
    blob = Path(path).read_bytes()
    cut = tmp_path / "cut.famlp"
    cut.write_bytes(blob[:-10])
    with pytest.raises(DataFormatError,
                       match="not a whole fanav checkpoint file"):
        load_checkpoint(str(cut))
    cut.write_bytes(blob + b"junk")
    with pytest.raises(DataFormatError, match="trailing bytes"):
        load_checkpoint(str(cut))


def test_checkpoint_flipped_byte_fails_the_load(tmp_path):
    rng = np.random.default_rng(17)
    net = Mlp.initialized((6, 16, 1), "relu", rng)
    path = str(tmp_path / "ck.famlp")
    save_checkpoint(path, {"v": Section(net.widths, "relu", net.theta)})
    blob = bytearray(Path(path).read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "flip.famlp"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="Bad CRC-32"):
        load_checkpoint(str(bad))


def test_checkpoint_with_adam_moments_loads_to_the_same_sections(tmp_path):
    # the layout checkpoints had while they stored Adam state: an "adam"
    # entry per header section and <section>/adam_m, /adam_v members
    rng = np.random.default_rng(18)
    net = Mlp.initialized((6, 8, 1), "relu", rng)
    log_std = np.array([-0.5, 0.1], dtype=np.float32)
    st = AdamState.for_params(net.n_params, lr=3e-4)
    adam_step(net.theta, rng.normal(size=net.n_params).astype(np.float32), st)
    old = str(tmp_path / "old.famlp")
    binio.write(old, "checkpoint", {
        "sections": [
            {"name": "value", "widths": [6, 8, 1], "activation": "relu",
             "adam": {"t": st.t, "lr": st.lr, "beta1": st.beta1,
                      "beta2": st.beta2, "eps": st.eps}},
            {"name": "policy_log_std", "widths": [2], "activation": "none",
             "adam": None}],
        "meta": {"step": 1}},
        {"value/params": net.theta, "value/adam_m": st.m,
         "value/adam_v": st.v, "policy_log_std/params": log_std})
    new = str(tmp_path / "new.famlp")
    save_checkpoint(new, {
        "value": Section(net.widths, net.activation, net.theta),
        "policy_log_std": Section((2,), "none", log_std)}, meta={"step": 1})
    old_sections, old_meta = load_checkpoint(old)
    new_sections, new_meta = load_checkpoint(new)
    assert old_meta == new_meta == {"step": 1}
    assert list(old_sections) == list(new_sections)
    for name, sec in new_sections.items():
        assert old_sections[name].widths == sec.widths
        assert old_sections[name].activation == sec.activation
        assert np.array_equal(old_sections[name].params, sec.params)


def test_checkpoint_keeps_section_order_and_checks_types(tmp_path):
    vec = np.zeros(2, np.float32)
    names = ["zeta", "alpha", "mid"]
    path = str(tmp_path / "ck.famlp")
    save_checkpoint(path, {n: Section((2,), "none", vec) for n in names})
    sections, meta = load_checkpoint(path)
    assert list(sections) == names and meta == {}
    save_checkpoint(path, {"v": Section((2,), "none", vec.astype(np.int32))})
    with pytest.raises(DataFormatError, match="expected a float32 or float64 "
                                              "vector"):
        load_checkpoint(path)
    save_checkpoint(path, {"v": Section((2,), "sigmoid", vec)})
    with pytest.raises(DataFormatError, match="unknown activation 'sigmoid'"):
        load_checkpoint(path)


def test_params_digest_changes_with_params():
    a = np.zeros(4, dtype=np.float32)
    b = np.zeros(4, dtype=np.float32)
    assert params_digest(a) == params_digest(b)
    b[0] = 1e-8
    assert params_digest(a) != params_digest(b)
