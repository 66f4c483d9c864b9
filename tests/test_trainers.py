import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from fanav.errors import ConfigError, NumericError
from fanav.data import (
    EncoderProfile,
    OfflineDataset,
    TransitionBlock,
)
from fanav import binio
from fanav.nets import load_checkpoint
from fanav.sim import RobotSpec
from fanav.trainers import (
    METHODS,
    EpochRow,
    TrainerConfig,
    train,
)

PROFILE = EncoderProfile(RobotSpec(lidar_beams=12), 11.3)
DIM = PROFILE.dim
SCALE = np.array([0.5, math.pi / 2])


def synthetic_dataset(n_traj=12, traj_len=18, seed=0,
                      col_fraction=0.25) -> OfflineDataset:
    """Hand-built dataset with the geometry the value-shaping claim needs.

    Success trajectories cruise in open space (large scan readings) and end
    with the success reward; collision trajectories close in on an obstacle
    (scan minima shrinking below the robot radius) and end with the
    collision penalty.
    """
    rng = np.random.default_rng(seed)
    rows = {True: [], False: []}  # keyed by is_collision
    for tid in range(n_traj):
        is_col = tid < n_traj * col_fraction
        d0 = rng.uniform(6.0, 10.0)
        feats = []
        for t in range(traj_len + 1):
            frac = t / traj_len
            scan = rng.uniform(0.5, 1.0, PROFILE.beam_count)
            if is_col:
                # closest obstacle approaches: min scan goes to ~0.1 m
                near = ((1 - frac) * 0.8
                        + frac * (0.1 / PROFILE.robot.lidar_range))
                scan[int(rng.integers(PROFILE.beam_count))] = near
            d = d0 * (1 - 0.5 * frac)
            f = np.empty(DIM, np.float32)
            f[:PROFILE.beam_count] = scan
            f[PROFILE.beam_count] = d / PROFILE.d_norm
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
        if not rs:
            return TransitionBlock.empty(DIM)
        return TransitionBlock(
            np.stack([r[0] for r in rs]).astype(np.float32),
            np.array([r[1] for r in rs], np.float32),
            np.array([r[2] for r in rs], np.float32),
            np.stack([r[3] for r in rs]).astype(np.float32),
            np.array([r[4] for r in rs], np.uint8),
            np.array([r[5] for r in rs], np.int64),
            np.array([r[6] for r in rs], np.int32))

    return OfflineDataset(pack(rows[False]), pack(rows[True]), PROFILE,
                          {"synthetic": True})


DS = synthetic_dataset()


def quick_config(**kw) -> TrainerConfig:
    base = dict(method="iql_ca", batch_size=64, hidden=(32, 32),
                total_steps=300, epoch_steps=100, seed=1,
                rho=0.1)
    base.update(kw)
    return TrainerConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainerConfig(method="dqn")
    with pytest.raises(ConfigError):
        TrainerConfig(expectile=1.0)
    with pytest.raises(ConfigError):
        TrainerConfig(max_weight=0.5)
    with pytest.raises(ConfigError):
        TrainerConfig(rho=1.0)


def test_config_roundtrip():
    cfg = quick_config(hidden=(48, 24))
    again = TrainerConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_ca_requires_collision_partition():
    empty_col = OfflineDataset(DS.exp, TransitionBlock.empty(DIM), PROFILE)
    with pytest.raises(ConfigError, match="collision"):
        train(empty_col, quick_config(total_steps=5))


# ---------------------------------------------------------------------------
# training mechanics
# ---------------------------------------------------------------------------

def test_all_methods_run_and_report():
    for method in METHODS:
        res = train(DS, quick_config(method=method, total_steps=120))
        assert len(res.report.rows) == 2  # 100-step epochs + final partial
        assert res.report.final_digest
        assert (res.value_net is None) == (method == "bc")
        last = res.report.rows[-1]
        assert math.isfinite(last.loss_policy)
        if method != "bc":
            assert math.isfinite(last.loss_value)
            assert math.isfinite(last.loss_critic)


def test_seed_determinism_across_runs():
    a = train(DS, quick_config(total_steps=150))
    b = train(DS, quick_config(total_steps=150))
    assert a.report.final_digest == b.report.final_digest
    assert np.array_equal(a.policy.mean_net.theta, b.policy.mean_net.theta)
    assert np.array_equal(a.value_net.theta, b.value_net.theta)
    c = train(DS, quick_config(total_steps=150, seed=2))
    assert c.report.final_digest != a.report.final_digest


def test_degenerate_rho_collapses_to_so():
    """iql_ca with rho = 0 is bitwise identical to iql_so, step by step."""
    ca = train(DS, quick_config(method="iql_ca", rho=0.0, total_steps=500),
               trace_params=True)
    so = train(DS, quick_config(method="iql_so", rho=0.37, total_steps=500),
               trace_params=True)  # rho is ignored by iql_so
    assert ca.param_trace == so.param_trace
    assert np.array_equal(ca.policy.mean_net.theta, so.policy.mean_net.theta)
    assert np.array_equal(ca.critics[0].theta, so.critics[0].theta)


def test_asymmetry_guard_counters():
    res = train(DS, quick_config(method="iql_ca", total_steps=200))
    assert res.report.policy_collision_count == 0
    # stratified critic batches carry the exact per-batch collision count
    n_expected = round(0.1 * 64)
    assert res.report.critic_col_min == n_expected
    assert res.report.critic_col_max == n_expected
    assert sum(r.collision_in_critic for r in res.report.rows) \
        == 200 * n_expected


def test_dm_policy_actually_consumes_collisions():
    res = train(DS, quick_config(method="iql_dm", total_steps=200))
    assert res.report.policy_collision_count > 0


def test_so_and_bc_never_touch_collisions():
    for method in ("iql_so", "bc"):
        res = train(DS, quick_config(method=method, total_steps=150))
        assert res.report.policy_collision_count == 0


def test_weight_cap_respected():
    res = train(DS, quick_config(total_steps=200, max_weight=7.0))
    assert max(r.weight_max for r in res.report.rows) <= 7.0


def test_nan_abort_names_loss_and_step():
    bad = synthetic_dataset(seed=3)
    bad.exp.rewards[5] = np.nan
    with pytest.raises(NumericError, match=r"critic loss non-finite at step \d+"):
        train(bad, quick_config(method="iql_so", total_steps=2000))


def test_checkpoints_written(tmp_path):
    out = tmp_path / "run"
    res = train(DS, quick_config(total_steps=200), out_dir=str(out))
    # the policy that eval deploys, every network, and the loss curves
    assert {p.name for p in out.iterdir()} == {
        "ckpt_00000200.famlp", "final.famlp", "report.csv"}
    sections, meta = load_checkpoint(str(out / "ckpt_00000200.famlp"))
    assert set(sections) == {"policy_mean", "policy_log_std"}
    assert set(meta) == {"step", "profile", "config"}
    assert meta["step"] == 200 and meta["config"]["method"] == "iql_ca"
    assert meta["profile"] == {"robot": asdict(PROFILE.robot),
                               "d_norm": PROFILE.d_norm}
    assert np.array_equal(sections["policy_mean"].params,
                          res.policy.mean_net.theta)
    full, full_meta = load_checkpoint(str(out / "final.famlp"))
    assert set(full) == {"policy_mean", "policy_log_std", "value",
                         "critic_0", "critic_1", "target_critic_0",
                         "target_critic_1"}
    assert full_meta == meta
    for name, sec in sections.items():
        assert full[name].widths == sec.widths
        assert full[name].activation == sec.activation
        assert np.array_equal(full[name].params, sec.params)
    # no optimizer state: nothing that loads a checkpoint resumes training
    header, arrays = binio.read(str(out / "final.famlp"), "checkpoint")
    assert sorted(arrays) == sorted(f"{name}/params" for name in full)
    assert all(set(spec) == {"name", "widths", "activation"}
               for spec in header["sections"])
    # report.csv is EpochRow: its header, then one line per row that parses
    # back to the row's values (floats to 8 digits, seconds to 1 ms)
    header, *lines = (out / "report.csv").read_text().splitlines()
    cols = fields(EpochRow)
    assert header.split(",") == [f.name for f in cols]
    assert len(lines) == len(res.report.rows) == 2
    for line, row in zip(lines, res.report.rows):
        cells = line.split(",")
        assert len(cells) == len(cols)
        for cell, f in zip(cells, cols):
            value = getattr(row, f.name)
            if f.name == "seconds":
                assert float(cell) == pytest.approx(value, abs=5e-4)
            elif f.type == "float":
                assert float(cell) == pytest.approx(value, rel=1e-7)
            else:
                assert int(cell) == value


def test_value_shaping_on_synthetic_data():
    """Near-collision states end up with lower values than cruise states."""
    ds = synthetic_dataset(n_traj=16, traj_len=16, seed=5, col_fraction=0.3)
    assert ds.n_total >= 200
    res = train(ds, quick_config(total_steps=1500, rho=0.1, seed=7))
    col = ds.col
    # penultimate state of each collision trajectory = row with done set
    col_pen = col.features[col.dones.astype(bool)]
    exp = ds.exp
    mid = (exp.step_ids > 4) & (exp.step_ids < 12)
    exp_mid = exp.features[mid]
    v_col = res.value_net.forward(col_pen)[:, 0].mean()
    v_exp = res.value_net.forward(exp_mid)[:, 0].mean()
    assert v_col < v_exp

