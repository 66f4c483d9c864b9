"""Acceptance suite.

Each criterion prints one PASS line when its assertions hold. Criteria 1-6
are fast property checks; 9 checks the sanity baselines. Criterion 10
checks the paper's mechanism on collected data: failure rows in the
critic's batches lower V on the states just before a collision, relative
to mid-trajectory success states, while the policy sees no failure row.
Criteria 7-8, a desk-scale ordering experiment over seeds and worlds, are
not implemented: nothing here compares the four methods' success rates,
so nothing here shows that the lower V makes iql_ca safer or more
successful. Run the whole file with plain pytest.
"""
import json
import math
import os

import numpy as np
import pytest

from fanav.data import (
    EncoderProfile,
    OfflineDataset,
    StratifiedSampler,
    TransitionBlock,
    build_dataset,
    load_dataset,
    save_dataset,
)
from fanav.evaluation import evaluate_suite, make_suite
from fanav.expert import CLEAN, ExpertConfig, collect_to_ratio, run_episode
from fanav.geometry import Circle, Rect
from fanav.losses import (
    advantages,
    awr_loss_and_grads,
    bc_loss_and_grads,
    critic_inputs,
    critic_loss_and_grads,
    expectile_grad,
    expectile_loss,
    min_target_q,
    td_targets,
    value_loss_and_grad,
)
from fanav.nets import GaussianPolicyHead, Mlp
from fanav.sim import (
    Action,
    EpisodeConfig,
    EpisodeEngine,
    Pose,
    RobotSpec,
    World,
    load_world,
    raycast,
    step_kinematics,
)
from fanav.trainers import TrainerConfig, train

from baselines import ExpertPilot, ZeroPolicy
from oracles import log_prob, scalar_expectile

SCALE = np.array([0.5, math.pi / 2])


def ok(criterion: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE PASS [{criterion}]{': ' + detail if detail else ''}")


def rel_err(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def fd_check(loss_fn, theta: np.ndarray, grad: np.ndarray,
             rng: np.random.Generator, n: int = 20, h: float = 1e-4) -> float:
    idx = rng.choice(theta.size, n, replace=False)
    fd = np.empty(n)
    for k, i in enumerate(idx):
        orig = theta[i]
        theta[i] = orig + h
        lp = loss_fn()
        theta[i] = orig - h
        lm = loss_fn()
        theta[i] = orig
        fd[k] = (lp - lm) / (2 * h)
    return rel_err(fd, grad[idx])


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of all four losses (64-bit, rtol 1e-4)
# ---------------------------------------------------------------------------

def test_c1_gradient_correctness():
    # tanh networks keep the finite-difference oracle away from relu kinks;
    # the loss graphs under test are identical for either activation
    rng = np.random.default_rng(11)
    dim = 20
    n = 24
    feats = rng.uniform(-1, 1, (n, dim))
    actions = rng.uniform(-0.9, 0.9, (n, 2)) * SCALE
    rewards = rng.normal(size=n)
    nxt = rng.uniform(-1, 1, (n, dim))
    dones = (rng.uniform(size=n) < 0.2).astype(np.float64)
    from fanav.data import Batch
    batch = Batch(feats, actions, rewards, nxt, dones, np.zeros(n, bool))

    def as_float64(net: Mlp) -> Mlp:
        return Mlp(net.widths, net.activation, net.theta.astype(np.float64))

    value = as_float64(Mlp.initialized((dim, 16, 1), "tanh", rng))
    critics = [as_float64(Mlp.initialized((dim + 2, 16, 1), "tanh", rng))
               for _ in range(2)]
    targets = [c.copy() for c in critics]
    mean = as_float64(Mlp.initialized((dim, 16, 2), "tanh", rng,
                                      final_scale=0.1))
    policy = GaussianPolicyHead(mean, SCALE, np.full(2, -0.5))

    worst = {}
    # expectile (value) loss; residuals must sit clear of the u=0 kink for
    # the central-difference oracle at h=1e-4 to be valid
    x_sa = critic_inputs(feats, actions, SCALE)
    q_hat = min_target_q(targets, x_sa) + 0.35
    u0 = q_hat - value.forward(feats)[:, 0]
    assert np.abs(u0).min() > 1e-2 and (u0 > 0).any() and (u0 < 0).any()
    _, g_v = value_loss_and_grad(value, feats, q_hat, 0.7)
    worst["expectile_loss"] = fd_check(
        lambda: expectile_loss(q_hat - value.forward(feats)[:, 0], 0.7),
        value.theta, g_v, rng)

    # td loss
    y = td_targets(value, rewards, nxt, dones, 0.99)
    _, g_qs = critic_loss_and_grads(critics, x_sa, y)
    for c, g in zip(critics, g_qs):
        worst["td_loss"] = max(worst.get("td_loss", 0.0), fd_check(
            lambda: critic_loss_and_grads(critics, x_sa, y)[0],
            c.theta, g, rng))

    # awr loss
    adv = advantages(targets, value, feats, actions, SCALE)
    _, g_mean, g_ls, w = awr_loss_and_grads(policy, batch, adv, 1.0, 100.0)
    worst["awr_loss"] = fd_check(
        lambda: float(-np.mean(w * log_prob(policy, feats, actions))),
        policy.mean_net.theta, g_mean, rng)

    # bc loss
    _, g_mean_bc, _ = bc_loss_and_grads(policy, batch)
    worst["bc_loss"] = fd_check(
        lambda: float(-np.mean(log_prob(policy, feats, actions))),
        policy.mean_net.theta, g_mean_bc, rng)

    for name, err in worst.items():
        assert err < 1e-4, f"{name}: rel err {err:.2e}"
    ok("C1 gradient correctness",
       "; ".join(f"{k} rel err {v:.1e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# criterion 2: expectile training matches the bisection oracle within 1e-3
# ---------------------------------------------------------------------------

def test_c2_expectile_oracle():
    rng = np.random.default_rng(23)
    samples = np.concatenate([rng.normal(-1.0, 0.7, 600),
                              rng.normal(2.5, 1.2, 400)])
    oracle = scalar_expectile(samples, 0.7)
    v = 0.0
    lr = 0.5
    for _ in range(6000):
        u = samples - v
        v -= lr * float(np.sum(expectile_grad(u, 0.7)) * -1.0)
    assert abs(v - oracle) < 1e-3
    ok("C2 expectile oracle",
       f"gradient descent {v:.6f} vs bisection {oracle:.6f}")


# ---------------------------------------------------------------------------
# toy dataset used by criteria 3-5
# ---------------------------------------------------------------------------

PROFILE = EncoderProfile(RobotSpec(lidar_beams=12), 11.3)


def toy_dataset(n_traj=16, traj_len=16, seed=0,
                col_fraction=0.3) -> OfflineDataset:
    rng = np.random.default_rng(seed)
    rows = {True: [], False: []}
    for tid in range(n_traj):
        is_col = tid < n_traj * col_fraction
        d0 = rng.uniform(6.0, 10.0)
        feats = []
        for t in range(traj_len + 1):
            frac = t / traj_len
            scan = rng.uniform(0.5, 1.0, PROFILE.beam_count)
            if is_col:
                # closest obstacle closes in; the final two states sit well
                # inside the near-collision band (min scan < radius + 5 cm)
                near = max(0.1 / PROFILE.robot.lidar_range,
                           0.8 * (1 - frac) ** 2)
                scan[int(rng.integers(PROFILE.beam_count))] = near
            f = np.empty(PROFILE.dim, np.float32)
            f[:PROFILE.beam_count] = scan
            f[PROFILE.beam_count] = d0 * (1 - 0.5 * frac) / PROFILE.d_norm
            f[PROFILE.beam_count + 1] = rng.uniform(-0.3, 0.3)
            f[PROFILE.beam_count + 2] = rng.uniform(0, 1)
            f[PROFILE.beam_count + 3] = rng.uniform(-0.5, 0.5)
            feats.append(f)
        for t in range(traj_len):
            done = t == traj_len - 1
            if done:
                r = -20.0 if is_col else 20.0
            else:
                d_now = float(feats[t][PROFILE.beam_count]) * PROFILE.d_norm
                d_nxt = float(feats[t + 1][PROFILE.beam_count]) * PROFILE.d_norm
                r = 2.0 * (d_now - d_nxt)
            a = rng.uniform(-0.9, 0.9, 2) * SCALE
            rows[is_col].append((feats[t], a, r, feats[t + 1], done, tid, t))

    def pack(rs):
        return TransitionBlock(
            np.stack([r[0] for r in rs]).astype(np.float32),
            np.array([r[1] for r in rs], np.float32),
            np.array([r[2] for r in rs], np.float32),
            np.stack([r[3] for r in rs]).astype(np.float32),
            np.array([r[4] for r in rs], np.uint8),
            np.array([r[5] for r in rs], np.int64),
            np.array([r[6] for r in rs], np.int32))

    return OfflineDataset(pack(rows[False]), pack(rows[True]), PROFILE)


# ---------------------------------------------------------------------------
# criterion 3: asymmetry guard and exact per-batch stratification
# ---------------------------------------------------------------------------

def test_c3_asymmetry_guard_and_stratification():
    ds = toy_dataset(seed=5)
    cfg = TrainerConfig(method="iql_ca", rho=0.015, batch_size=256,
                        hidden=(32, 32), total_steps=2000, epoch_steps=500,
                        seed=3)
    res = train(ds, cfg)
    r = res.report
    assert r.policy_collision_count == 0
    assert r.critic_col_min == 4 == r.critic_col_max  # round(0.015*256)=4
    assert sum(row.collision_in_critic for row in r.rows) == 4 * 2000
    ok("C3 asymmetry guard",
       f"policy consumed 0 collision rows; every critic batch had exactly 4 "
       f"of 256 (rho=0.015) over {r.rows[-1].step} steps")


# ---------------------------------------------------------------------------
# criterion 4: iql_ca at rho=0 reproduces iql_so bitwise over 500 steps
# ---------------------------------------------------------------------------

def test_c4_degeneracy_collapse():
    ds = toy_dataset(seed=7)
    kw = dict(batch_size=64, hidden=(32, 32), total_steps=500,
              epoch_steps=250, seed=11)
    ca = train(ds, TrainerConfig(method="iql_ca", rho=0.0, **kw),
               trace_params=True)
    so = train(ds, TrainerConfig(method="iql_so", rho=0.5, **kw),
               trace_params=True)
    assert ca.param_trace == so.param_trace
    assert np.array_equal(ca.policy.mean_net.theta, so.policy.mean_net.theta)
    ok("C4 degeneracy collapse",
       "500-step parameter trajectories bitwise identical")


# ---------------------------------------------------------------------------
# criterion 5: value shaping lowers V at near-collision states
# ---------------------------------------------------------------------------

def test_c5_value_shaping():
    ds = toy_dataset(n_traj=16, traj_len=16, seed=5, col_fraction=0.3)
    assert ds.n_total >= 200
    # near-collision scan minima sit below radius + 0.05 m (normalized)
    col_last = ds.col.features[ds.col.dones.astype(bool)]
    assert np.all(col_last[:, :PROFILE.beam_count].min(axis=1)
                  < (0.2 + 0.05) / PROFILE.robot.lidar_range)
    res = train(ds, TrainerConfig(method="iql_ca", rho=0.1, batch_size=64,
                                  hidden=(32, 32), total_steps=1500,
                                  epoch_steps=500, seed=7))
    v_col = float(res.value_net.forward(col_last)[:, 0].mean())
    mid = (ds.exp.step_ids > 4) & (ds.exp.step_ids < 12)
    v_exp = float(res.value_net.forward(ds.exp.features[mid])[:, 0].mean())
    assert v_col < v_exp
    ok("C5 value shaping",
       f"mean V near collision {v_col:.3f} < mean V mid-success {v_exp:.3f}")


# ---------------------------------------------------------------------------
# criterion 6: module-level property battery
# ---------------------------------------------------------------------------

def test_c6_module_properties(tmp_path):
    # reward telescoping over one built trajectory's stored rewards, within
    # float32 rounding; the terminal reward is exact
    world, spec, cfg = World(10, 10), RobotSpec(lidar_beams=24), \
        EpisodeConfig()
    rng = np.random.default_rng(3)
    traj = run_episode(world, spec, cfg, ExpertConfig(), rng, CLEAN, 0,
                       start=Pose(1.0, 1.0, 0.3), goal=(9.0, 9.0))
    assert traj.outcome == "success"
    rewards = build_dataset([traj], EncoderProfile.from_world_spec(
        world, spec), cfg).exp.rewards.astype(np.float64)
    d0, dT = traj.obs[0, -4], traj.obs[-2, -4]  # goal distances
    assert abs(rewards[:-1].sum() - cfg.c1 * (d0 - dT)) < 1e-5
    assert rewards[-1] == cfg.r_success

    # terminal exclusivity
    world2 = World(6, 6, (Circle(3, 3, 0.6),))
    for ep in range(10):
        eng2 = EpisodeEngine(world2, spec, EpisodeConfig(t_max=40))
        eng2.reset(Pose(1.0, 1.0, 0.0), (5.0, 5.0))
        terminals = []
        while not eng2.done:
            eng2.step(Action(rng.uniform(-0.5, 0.5), rng.uniform(-1.6, 1.6)))
            if eng2.terminal != "none":
                terminals.append(eng2.terminal)
        assert len(terminals) == 1

    # raycast analytic cases
    scan = raycast(World(4, 4), Pose(2, 2, 0.0),
                   RobotSpec(lidar_beams=9))
    assert abs(scan[4] - 2.0) < 1e-12
    scan = raycast(World(20, 20, (Circle(13, 10, 0.5),)),
                   Pose(10, 10, 0.0),
                   RobotSpec(lidar_beams=9,
                             lidar_fov_deg=90.0))
    assert abs(scan[4] - 2.5) < 1e-12

    # kinematics arc vs Euler oracle (< 1e-3 m)
    p = step_kinematics(Pose(0, 0, 0), Action(0.5, 0.5), 1.0)
    x, y, h = 0.0, 0.0, 0.0
    for _ in range(10_000):
        x += 0.5 * math.cos(h) * 1e-4
        y += 0.5 * math.sin(h) * 1e-4
        h += 0.5 * 1e-4
    assert math.hypot(p.x - x, p.y - y) < 1e-3

    # dataset round trip, bitwise
    ds = toy_dataset(seed=9)
    path = str(tmp_path / "c6.fanav")
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.exp.equals(ds.exp) and loaded.col.equals(ds.col)

    # sampler chi-square uniformity at rho = 0.5 over 1e5 draws per side
    small = OfflineDataset(
        TransitionBlock(*[a[:40] for a in (
            ds.exp.features, ds.exp.actions, ds.exp.rewards,
            ds.exp.next_features, ds.exp.dones, ds.exp.traj_ids,
            ds.exp.step_ids)]),
        TransitionBlock(*[a[:40] for a in (
            ds.col.features, ds.col.actions, ds.col.rewards,
            ds.col.next_features, ds.col.dones, ds.col.traj_ids,
            ds.col.step_ids)]),
        PROFILE)
    sampler = StratifiedSampler(small, 0.5, 100, seed=13)
    counts = np.zeros(80)
    keys = {}
    for part, block in ((0, small.exp), (1, small.col)):
        for i in range(40):
            keys[block.features[i].tobytes()] = part * 40 + i
    for _ in range(2000):
        b = sampler.sample()
        for row in b.features:
            counts[keys[row.tobytes()]] += 1
    for side in (counts[:40], counts[40:]):
        expected = side.sum() / 40
        chi2 = float(np.sum((side - expected) ** 2 / expected))
        dof = 39
        assert abs(chi2 - dof) < 5 * math.sqrt(2 * dof)

    ok("C6 module properties",
       "telescoping, exclusivity, raycast, kinematics, round-trip, chi-square")


# ---------------------------------------------------------------------------
# criterion 9: sanity bounds
# ---------------------------------------------------------------------------

def bundled(name: str) -> World:
    here = os.path.join(os.path.dirname(__file__), "..", "src", "fanav",
                        "worlds", f"{name}.world")
    return load_world(os.path.abspath(here))


def test_c9_sanity_bounds():
    spec = RobotSpec()
    episode = EpisodeConfig()
    sparse = bundled("sparse")
    suite = make_suite(sparse, spec, episode, 50, seed=9)
    expert = evaluate_suite(ExpertPilot(), sparse, spec, suite, n_trials=3,
                            seed=1)
    assert expert.sr == 100.0, f"expert SR {expert.sr}"
    zero = evaluate_suite(ZeroPolicy(), sparse, spec, suite, n_trials=3,
                          seed=1)
    assert zero.tr == 100.0
    for res in (expert, zero):
        assert res.sr + res.cr + res.tr == 100.0
        for sr, cr, tr in zip(res.sr_trials, res.cr_trials, res.tr_trials):
            assert sr + cr + tr == 100.0
    ok("C9 sanity bounds",
       f"expert SR=100 on sparse; zero-policy TR=100; SR+CR+TR=100 identity")


# ---------------------------------------------------------------------------
# criterion 10: failure data in the critic lowers V just before impact
# ---------------------------------------------------------------------------

MECHANISM_SEED = 0
MECHANISM_MARGIN = 1.5  # fixed before the held-out seeds were run


def steps_to_end(block: TransitionBlock) -> np.ndarray:
    """Per row, the steps its trajectory has left: 1 on the done row, whose
    next state is the collision or the goal."""
    last = {t: block.step_ids[block.traj_ids == t].max()
            for t in np.unique(block.traj_ids)}
    return np.array([last[t] for t in block.traj_ids]) - block.step_ids + 1


def test_c10_failure_data_lowers_v_before_impact():
    """iql_ca at rho 0.10 against rho 0, on one toy dataset (cluttered,
    2,000 transitions, collision share 0.1) from one seed: the gap "mean V
    on mid-success rows minus mean V on collision rows at most 2 steps
    before impact" must widen by more than ``MECHANISM_MARGIN``, and neither
    policy may consume a collision row. Mid-success rows are at least 5
    steps from their trajectory's start and more than 5 from its end.

    This checks what the critic learns from failure data, on dataset
    states. It does not check success rates, nor V on the states a trained
    policy meets when evaluated. The test is deterministic and so checks
    one draw; CHANGES.md reports the gaps on held-out seeds."""
    spec, episode = RobotSpec(lidar_range=6.0), EpisodeConfig()  # desk's
    world = bundled("cluttered")
    ds = build_dataset(collect_to_ratio(
        world, spec, episode, ExpertConfig(), min_transitions=2000,
        target_col_ratio=0.1, ratio_tol=0.03, seed=MECHANISM_SEED),
        EncoderProfile.from_world_spec(world, spec), episode)
    near_impact = ds.col.features[steps_to_end(ds.col) <= 2]
    mid = (ds.exp.step_ids >= 5) & (steps_to_end(ds.exp) > 5)
    assert len(near_impact) > 0 and mid.any()
    gap = {}
    for rho in (0.0, 0.10):
        res = train(ds, TrainerConfig(method="iql_ca", rho=rho,
                                      hidden=(64, 64), total_steps=2000,
                                      seed=MECHANISM_SEED))
        assert res.report.policy_collision_count == 0
        v = res.value_net.forward
        gap[rho] = float(v(ds.exp.features[mid])[:, 0].mean()
                         - v(near_impact)[:, 0].mean())
    assert gap[0.10] - gap[0.0] > MECHANISM_MARGIN, gap
    ok("C10 failure data lowers V before impact",
       f"gap {gap[0.0]:+.2f} at rho 0, {gap[0.10]:+.2f} at rho 0.10 over "
       f"{len(near_impact)} near-impact and {int(mid.sum())} mid-success rows")
