import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from fanav.errors import ConfigError, NumericError
from fanav.data import (
    EncoderProfile,
    OfflineDataset,
    TransitionBlock,
    round_half_up,
    save_dataset,
)
from fanav import binio, data, evaluation, expert, trainers
from fanav.cli import resolve_world
from fanav.nets import load_checkpoint
from fanav.expert import ExpertConfig
from fanav.sim import EpisodeConfig, RobotSpec
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


ROOT = Path(__file__).resolve().parents[1]
DS = synthetic_dataset()
# a partition with DS's columns and no row
NO_ROWS = TransitionBlock(*(arr[:0] for arr in vars(DS.exp).values()))


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


@pytest.mark.parametrize("method", [m for m, r in METHODS.items()
                                    if r.critic == "stratified_rho"])
def test_ca_requires_collision_partition(method):
    empty_col = OfflineDataset(DS.exp, NO_ROWS, PROFILE)
    with pytest.raises(ConfigError, match="collision"):
        train(empty_col, quick_config(method=method, total_steps=5))


@pytest.mark.parametrize("method", METHODS)
def test_train_refuses_an_empty_success_partition(method, tmp_path):
    # the one guard in front of the samplers, which draw from this partition
    empty_exp = OfflineDataset(NO_ROWS, DS.col, PROFILE)
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="empty success partition"):
        train(empty_exp, quick_config(method=method, total_steps=5), str(out))
    assert not out.exists()


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


@pytest.mark.parametrize("method", METHODS)
def test_each_row_feeds_its_nets_the_batches_it_names(method):
    recipe = METHODS[method]
    cfg = quick_config(method=method, total_steps=200)
    report = train(DS, cfg).report
    critic_rows = sum(r.collision_in_critic for r in report.rows)
    if recipe.critic is None:
        assert report.critic_col_min is None and critic_rows == 0
    elif recipe.critic == "pooled":
        assert critic_rows > 0
    else:
        # a stratified batch holds exactly round(rho * B) collision rows
        rho = cfg.rho if recipe.critic == "stratified_rho" else 0.0
        n_expected = round_half_up(rho * cfg.batch_size)
        assert report.critic_col_min == report.critic_col_max == n_expected
        assert critic_rows == cfg.total_steps * n_expected
    assert (report.policy_collision_count > 0) == (recipe.policy == "pooled")


def benchmark_tracer():
    """The benchmark's tracer module, perfbench/tracer.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_reaches_every_name_the_benchmark_traces():
    # the benchmark's traced train workload fails on a name no call reaches
    module = benchmark_tracer()
    tracer = module.Tracer()
    try:
        tracer.install()
        for method in METHODS:  # through the patched module attribute
            trainers.train(DS, quick_config(method=method, total_steps=3))
    finally:
        tracer.uninstall()
    missing = [n for n in module.REACHED["train"] if tracer.calls[n] == 0]
    assert not missing, missing


def test_collection_and_evaluation_reach_every_name_the_benchmark_traces(
        tmp_path, set_lanes):
    # the traced collect and eval workloads fail on a name no call reaches;
    # on one lane every episode runs in this process, under the tracer
    set_lanes(1)
    module = benchmark_tracer()
    tracer = module.Tracer()
    world = resolve_world("cluttered")  # fresh, so it builds its grids
    spec, episode = RobotSpec(lidar_beams=12), EpisodeConfig(t_max=60)
    path = str(tmp_path / "d.fanav")
    try:
        tracer.install()  # through the patched module attributes
        trajs = expert.collect_to_ratio(world, spec, episode, ExpertConfig(),
                                        300, 0.1, seed=0, ratio_tol=0.05)
        ds = data.build_dataset(
            trajs, EncoderProfile.from_world_spec(world, spec), episode)
        data.save_dataset(ds, path)
        data.load_dataset(path)
        run = trainers.train(ds, quick_config(method="bc", total_steps=3))
        suite = evaluation.make_suite(world, spec, episode, 2, seed=0)
        evaluation.evaluate_suite(
            evaluation.NetworkPolicy(run.policy, run.profile, name="bc"),
            world, spec, suite, n_trials=1)
    finally:
        tracer.uninstall()
    missing = [n for n in sorted({*module.REACHED["collect"],
                                  *module.REACHED["eval"]})
               if tracer.calls[n] == 0]
    assert not missing, missing


def test_param_digests_tool_hashes_each_methods_trace(tmp_path):
    path = tmp_path / "toy.fanav"
    save_dataset(DS, str(path))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "param_digests.py"), str(path),
         "--steps", "3", "--seed", "2"],
        env=env, capture_output=True, text=True, check=True).stdout
    expected = []
    for method in METHODS:
        trace = train(DS, TrainerConfig(method=method, total_steps=3, seed=2),
                      trace_params=True).param_trace
        assert len(trace) == 3
        text = "".join(t + "\n" for t in trace)
        expected.append(f"{hashlib.sha256(text.encode()).hexdigest()}  "
                        f"{method}")
    assert out.splitlines() == expected


def test_weight_cap_respected():
    res = train(DS, quick_config(total_steps=200, max_weight=7.0))
    assert max(r.weight_max for r in res.report.rows) <= 7.0


def test_nan_abort_names_loss_and_step():
    bad = synthetic_dataset(seed=3)
    bad.exp.rewards[5] = np.nan
    with pytest.raises(NumericError, match=r"critic loss non-finite at step \d+"):
        train(bad, quick_config(method="iql_so", total_steps=2000))


def test_a_non_finite_loss_aborts_when_no_layer_raises():
    # linear critics have no hidden layer whose backward checks its delta,
    # so the non-finite loss itself is what stops the run
    bad = synthetic_dataset(seed=3)
    bad.exp.rewards[:] = np.nan
    with pytest.raises(NumericError) as exc:
        train(bad, quick_config(method="iql_so", hidden=(), total_steps=2))
    assert str(exc.value) == "critic loss non-finite at step 1"


def test_a_diverging_run_names_its_phase_and_step_and_makes_no_out_dir(
        tmp_path):
    # td_targets runs outside every loss, so only its own guard can say
    # where in the run the value net first diverged
    out = tmp_path / "run"
    with pytest.raises(NumericError) as exc:
        train(DS, quick_config(method="iql_so", lr_value=1e30,
                               lr_critic=1e30, total_steps=5),
              out_dir=str(out))
    assert str(exc.value) == ("TD target non-finite at step 1: non-finite "
                              "values at layer 1 (forward)")
    assert not out.exists()


def test_checkpoints_written(tmp_path):
    out = tmp_path / "run"
    res = train(DS, quick_config(total_steps=200), out_dir=str(out))
    # the policy that eval deploys, every network, and the loss curves
    assert {p.name for p in out.iterdir()} == {
        "ckpt_00000200.famlp", "final.famlp", "report.csv"}
    nets, meta = load_checkpoint(str(out / "ckpt_00000200.famlp"))
    assert set(nets) == {"policy_mean", "policy_log_std"}
    assert set(meta) == {"step", "profile", "config"}
    assert meta["step"] == 200 and meta["config"]["method"] == "iql_ca"
    assert meta["profile"] == {"robot": asdict(PROFILE.robot),
                               "d_norm": PROFILE.d_norm}
    mean_net = nets["policy_mean"]
    assert (mean_net.widths, mean_net.activation) == (
        res.policy.mean_net.widths, res.policy.mean_net.activation)
    assert np.array_equal(mean_net.theta, res.policy.mean_net.theta)
    assert np.array_equal(nets["policy_log_std"], res.policy.log_std)
    full, full_meta = load_checkpoint(str(out / "final.famlp"))
    assert set(full) == {"policy_mean", "policy_log_std", "value",
                         "critic_0", "critic_1", "target_critic_0",
                         "target_critic_1"}
    assert full_meta == meta
    assert full["policy_mean"].widths == mean_net.widths
    assert full["policy_mean"].activation == mean_net.activation
    assert np.array_equal(full["policy_mean"].theta, mean_net.theta)
    assert np.array_equal(full["policy_log_std"], nets["policy_log_std"])
    for name, net in (("value", res.value_net), ("critic_0", res.critics[0]),
                      ("target_critic_1", res.target_critics[1])):
        assert (full[name].widths, full[name].activation) == (
            net.widths, net.activation)
        assert np.array_equal(full[name].theta, net.theta)
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

