import math

import numpy as np
import pytest

from fanav.errors import ConfigError, DataFormatError, NumericError, ShapeError
from fanav.nets import (
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
    net = Mlp.initialized((112, 256, 256, 1), "relu", rng, dtype=np.float64)
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


def test_single_row_convenience():
    rng = np.random.default_rng(3)
    net = Mlp.initialized((4, 8, 2), "tanh", rng)
    x = rng.normal(size=4).astype(np.float32)
    single = net.forward(x)
    batched = net.forward(x[None, :])
    assert single.shape == (2,)
    assert np.allclose(single, batched[0])


def test_bad_configs():
    with pytest.raises(ConfigError):
        Mlp((4,), "relu")
    with pytest.raises(ConfigError):
        Mlp((4, 2), "sigmoid")


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
    net = Mlp.initialized((6, 16, 16, 1), "relu", rng, dtype=np.float64)
    x = rng.normal(size=(32, 6))
    y = rng.normal(size=(32, 1))

    def loss():
        return float(np.mean((net.forward(x) - y) ** 2))

    out, cache = net.forward_cached(x)
    dy = 2.0 * (out - y) / x.shape[0]
    grad, _ = net.backward(cache, dy)
    idx = rng.choice(net.n_params, 20, replace=False)
    fd = numerical_grad(loss, net.theta, idx)
    assert rel_err(fd, grad[idx]) < 1e-4


def test_backward_linear_closed_form():
    rng = np.random.default_rng(5)
    n, d = 40, 5
    X = rng.normal(size=(n, d))
    y = rng.normal(size=(n, 1))
    net = Mlp((d, 1), "relu", dtype=np.float64)
    net.theta[:d] = rng.normal(size=d)
    w = net.theta[:d].reshape(d, 1)
    out, cache = net.forward_cached(X)
    grad, _ = net.backward(cache, 2.0 * (out - y) / n)
    closed = (2.0 * X.T @ (X @ w - y) / n).reshape(-1)
    assert np.allclose(grad[:d], closed, atol=1e-10)
    assert grad[d] == pytest.approx(float(2.0 * np.mean(X @ w - y)), abs=1e-10)


def test_backward_input_gradient():
    rng = np.random.default_rng(6)
    net = Mlp.initialized((4, 8, 1), "tanh", rng, dtype=np.float64)
    x = rng.normal(size=(3, 4))
    out, cache = net.forward_cached(x)
    _, dx = net.backward(cache, np.ones_like(out), need_dx=True)
    h = 1e-6
    for i in range(4):
        xp = x.copy(); xp[1, i] += h
        xm = x.copy(); xm[1, i] -= h
        fd = (net.forward(xp).sum() - net.forward(xm).sum()) / (2 * h)
        assert dx[1, i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# Adam and soft updates
# ---------------------------------------------------------------------------

def test_adam_first_step_hand_check():
    p = np.zeros(1, dtype=np.float64)
    st = AdamState.for_params(1, lr=3e-4, dtype=np.float64)
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
    with pytest.raises(ConfigError):
        soft_update(t, o, 0.0)


# ---------------------------------------------------------------------------
# Gaussian policy head
# ---------------------------------------------------------------------------

SCALE = np.array([0.5, math.pi / 2])


def make_head(seed=9, dtype=np.float64, log_std=-0.5) -> GaussianPolicyHead:
    rng = np.random.default_rng(seed)
    net = Mlp.initialized((6, 16, 2), "tanh", rng, dtype=dtype,
                          final_scale=0.5)
    return GaussianPolicyHead(net, SCALE, np.full(2, log_std, dtype),
                              (-5.0, 2.0))


def test_mode_density_matches_closed_form():
    head = make_head()
    feats = np.random.default_rng(10).normal(size=(1, 6))
    mu = np.atleast_2d(head.mean_net.forward(feats))
    a = np.tanh(mu) * SCALE
    logp = head.log_prob(feats, a)[0]
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
    prev = head.log_prob(feats, mode)[0]
    for step in np.linspace(0.02, 0.4, 12):
        a = mode.copy()
        a[0, 0] += step * SCALE[0]
        cur = head.log_prob(feats, a)[0]
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
    logp = head.log_prob(F, actions).reshape(n, n)
    integral = np.trapezoid(np.trapezoid(np.exp(logp), wa, axis=1), va)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_action_on_bound_is_clamped_not_nan():
    head = make_head()
    feats = np.zeros((1, 6))
    a = np.array([[0.5, -math.pi / 2]])  # exactly on the bounds
    logp = head.log_prob(feats, a)
    assert np.isfinite(logp).all()


def test_nll_gradients_finite_difference():
    head = make_head()
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(24, 6))
    actions = np.clip(rng.normal(size=(24, 2)) * 0.3, -0.95, 0.95) * SCALE
    weights = rng.uniform(0.5, 2.0, 24)

    def loss():
        return float(-np.mean(weights * head.log_prob(feats, actions)))

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
    st = AdamState.for_params(net.n_params, lr=3e-4)
    adam_step(net.theta, rng.normal(size=net.n_params).astype(np.float32), st)
    log_std = np.array([-0.5, 0.1], dtype=np.float32)
    path = str(tmp_path / "ck.famlp")
    save_checkpoint(path, {
        "value": Section(net.widths, net.activation, net.theta, st),
        "policy_log_std": Section((2,), "none", log_std),
    }, meta={"note": "test", "dim": 6})
    sections, meta = load_checkpoint(path)
    assert meta == {"note": "test", "dim": 6}
    assert np.array_equal(sections["value"].params, net.theta)
    assert np.array_equal(sections["value"].adam.m, st.m)
    assert np.array_equal(sections["value"].adam.v, st.v)
    assert sections["value"].adam.t == st.t
    assert sections["value"].adam.lr == st.lr
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
    blob = open(path, "rb").read()
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
    st = AdamState.for_params(net.n_params, lr=3e-4)
    path = str(tmp_path / "ck.famlp")
    save_checkpoint(path, {"v": Section(net.widths, "relu", net.theta, st)})
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "flip.famlp"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="Bad CRC-32"):
        load_checkpoint(str(bad))


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
