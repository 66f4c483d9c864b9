import io
import json
import math
import tracemalloc
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fanav import binio
from fanav.errors import (ConfigError, DataFormatError, ProtocolError,
                          ShapeError)
from fanav.expert import ExpertConfig, Trajectory, collect_to_ratio
from fanav.geometry import Circle, Rect
from fanav.sim import (COLLISION, SUCCESS, TIMEOUT, EpisodeConfig, RobotSpec,
                       World)
from fanav.data import (
    Batch,
    EncoderProfile,
    ExpSampler,
    OfflineDataset,
    PooledSampler,
    StratifiedSampler,
    TransitionBlock,
    _transition_rewards,
    audit_rewards,
    build_dataset,
    describe_dataset,
    encode_state,
    load_dataset,
    round_half_up,
    save_dataset,
)
from fanav.nets import load_checkpoint, save_checkpoint

SPEC = RobotSpec(lidar_beams=24)
WORLD = World(8, 8, (Circle(4, 4, 0.8), Rect(2, 5.5, 1.2, 1.2),
                     Circle(6, 2.5, 0.6)))
EPISODE = EpisodeConfig()
PROFILE = EncoderProfile.from_world_spec(WORLD, SPEC)


TRAJS = collect_to_ratio(WORLD, SPEC, EPISODE, ExpertConfig(),
                         min_transitions=1200, target_col_ratio=0.1, seed=4,
                         ratio_tol=0.02)
DS = build_dataset(TRAJS, PROFILE, EPISODE, meta={"seed": 4})
# each column's dtype, in the order TransitionBlock lists them
DTYPES = {"features": np.float32, "actions": np.float32,
          "rewards": np.float32, "next_features": np.float32,
          "dones": np.uint8, "traj_ids": np.int64, "step_ids": np.int32}


def no_rows(block: TransitionBlock) -> TransitionBlock:
    """A partition with ``block``'s columns and no row."""
    return TransitionBlock(**{c: arr[:0] for c, arr in vars(block).items()})


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def observation(scan, d, phi, v, w) -> np.ndarray:
    """An observation row as :func:`fanav.sim.observe` lays it out."""
    return np.concatenate((scan, (d, phi, v, w)))


def reference_features(obs: np.ndarray, profile: EncoderProfile) -> np.ndarray:
    """One observation row encoded field by field, as the per-state encoder
    before the vectorized one did it; the reference the encoder must
    equal bitwise."""
    n = profile.beam_count
    out = np.empty(n + 4, dtype=np.float32)
    out[:n] = obs[:n] / profile.robot.lidar_range
    out[n] = min(1.0, max(0.0, float(obs[n]) / profile.d_norm))
    out[n + 1] = float(obs[n + 1]) / math.pi
    out[n + 2] = float(obs[n + 2]) / profile.robot.v_max
    out[n + 3] = float(obs[n + 3]) / profile.robot.omega_max
    return out


def test_encode_boundaries():
    f = encode_state(observation(np.full(24, SPEC.lidar_range), 0.0, 0.0,
                                 0.0, 0.0), PROFILE)
    assert f.shape == (28,) and f.dtype == np.float32
    assert np.all(f[:24] == 1.0)
    assert np.all(f[24:] == 0.0)


def test_encode_velocity_channel():
    f = encode_state(observation(np.zeros(24), 1.0, 0.5, SPEC.v_max,
                                 -SPEC.omega_max), PROFILE)
    assert f[26] == pytest.approx(1.0)
    assert f[27] == pytest.approx(-1.0)


def test_encode_dimension_matches_beam_count():
    profile = EncoderProfile(RobotSpec(), 14.14)
    assert profile.dim == 112
    obs = observation(np.zeros(108), 1.0, 0.0, 0.0, 0.0)
    assert encode_state(obs, profile).shape == (112,)


def test_encode_rejects_wrong_beam_count():
    row = observation(np.zeros(10), 1.0, 0.0, 0.0, 0.0)
    for obs in (row, np.stack([row] * 3)):
        with pytest.raises(ShapeError, match="has 10 beams, encoder "
                                             "expects 24"):
            encode_state(obs, PROFILE)


def test_encode_distance_channel_clipped():
    f = encode_state(observation(np.zeros(24), 99.0, 0.0, 0.0, 0.0), PROFILE)
    assert f[24] == 1.0


def test_encode_matrix_equals_each_row_and_the_field_reference():
    # a real trajectory's rows, then random rows with goals up to twice
    # d_norm (capped at 1) and bearings and velocities of either sign
    rng = np.random.default_rng(0)
    n = 40
    rows = np.column_stack((
        rng.uniform(0.0, SPEC.lidar_range, (n, 24)),
        rng.uniform(0.0, 2.0 * PROFILE.d_norm, n),
        rng.uniform(-math.pi, math.pi, n),
        rng.uniform(-SPEC.v_max, SPEC.v_max, n),
        rng.uniform(-SPEC.omega_max, SPEC.omega_max, n)))
    obs = np.concatenate((TRAJS[0].obs, rows))
    assert np.any(obs[:, 24] > PROFILE.d_norm)
    assert np.any(obs[:, 25:] < 0, axis=0).all()
    feats = encode_state(obs, PROFILE)
    assert feats.dtype == np.float32 and feats.shape == obs.shape
    by_row = np.stack([encode_state(row, PROFILE) for row in obs])
    reference = np.stack([reference_features(row, PROFILE) for row in obs])
    assert feats.tobytes() == by_row.tobytes() == reference.tobytes()
    assert np.all(feats[:, 24] <= 1.0) and np.any(feats[:, 24] == 1.0)


def test_encode_ranges_on_real_data():
    for block in (DS.exp, DS.col):
        assert np.all(block.features[:, :24] >= 0.0)
        assert np.all(block.features[:, :24] <= 1.0)
        assert np.all(block.features[:, 24] >= 0.0)
        assert np.all(block.features[:, 24] <= 1.0)
        assert np.all(np.abs(block.features[:, 25:]) <= 1.0 + 1e-6)


# ---------------------------------------------------------------------------
# dataset construction invariants
# ---------------------------------------------------------------------------

def test_partitions_are_pure_and_nonempty():
    assert DS.n_exp > 0 and DS.n_col > 0
    # done marks exactly the last transition of each trajectory
    for block in (DS.exp, DS.col):
        for tid in np.unique(block.traj_ids):
            sel = block.traj_ids == tid
            ts = block.step_ids[sel]
            dones = block.dones[sel]
            order = np.argsort(ts)
            assert dones[order][-1] == 1
            assert np.all(dones[order][:-1] == 0)


def test_build_dataset_refuses_a_timeout_trajectory():
    timeout = Trajectory(7, TIMEOUT, TRAJS[0].obs)
    with pytest.raises(ConfigError, match="^trajectory 7 has outcome "
                       "'timeout', only success/collision trajectories "):
        build_dataset([TRAJS[0], timeout], PROFILE, EPISODE)


def test_reward_audit_under_1e6():
    assert audit_rewards(DS, EPISODE) < 1e-6


def test_transition_rewards_by_hand():
    # goal distances 5, 2.5 and 1.25 m falling to 2.5, 1.25 and 0.625 m
    # under d_norm = 10, all exact in float32; the last row is done
    profile = EncoderProfile(SPEC, 10.0)
    feats = np.zeros((3, profile.dim), np.float32)
    nxt = np.zeros_like(feats)
    feats[:, 24] = [0.5, 0.25, 0.125]
    nxt[:, 24] = [0.25, 0.125, 0.0625]
    dones = np.array([0, 0, 1], np.uint8)
    cfg = EpisodeConfig(r_success=7.5, r_collision=-4.0, c1=3.0)
    for outcome, terminal in ((SUCCESS, 7.5), (COLLISION, -4.0)):
        r = _transition_rewards(feats, nxt, dones, outcome, profile, cfg)
        assert r.dtype == np.float64
        assert r.tolist() == [3.0 * 2.5, 3.0 * 1.25, terminal]
    # a built dataset's terminal rows carry the configured values exactly
    assert np.all(DS.exp.rewards[DS.exp.dones == 1] == EPISODE.r_success)
    assert np.all(DS.col.rewards[DS.col.dones == 1] == EPISODE.r_collision)


def test_build_dataset_matches_a_per_transition_reference():
    # the row-at-a-time build that the column build replaced, kept as the
    # reference: every column must come out bitwise equal
    trajs = collect_to_ratio(WORLD, SPEC, EPISODE, ExpertConfig(),
                             min_transitions=300, target_col_ratio=0.1,
                             seed=6, ratio_tol=0.05)
    ds = build_dataset(trajs, PROFILE, EPISODE)
    rows = {SUCCESS: [], COLLISION: []}
    for traj in trajs:
        feats = [reference_features(s, PROFILE) for s in traj.obs]
        T = len(traj)
        for t, (v, w) in enumerate(traj.obs[1:, -2:].tolist()):
            done = t == T - 1
            if done:
                r = EPISODE.r_success if traj.outcome == SUCCESS \
                    else EPISODE.r_collision
            else:
                d, d_next = (float(f[24]) * PROFILE.d_norm
                             for f in feats[t:t + 2])
                r = EPISODE.c1 * (d - d_next)
            rows[traj.outcome].append((feats[t], (v, w), r,
                                       feats[t + 1], done, traj.traj_id, t))
    for outcome, block in ((SUCCESS, ds.exp), (COLLISION, ds.col)):
        assert rows[outcome]
        for column, values in zip(vars(block).values(),
                                  zip(*rows[outcome])):
            assert np.array_equal(column, np.array(values, column.dtype))


def staged_build(trajectories, profile, episode) -> list[TransitionBlock]:
    """The success and collision blocks as the build before the one-pass
    one made them: every trajectory's columns staged, then concatenated.
    Kept as the reference the one-pass build must equal."""
    dim = profile.dim
    # each partition's pieces start from an empty one, so that a partition
    # with no trajectory still has its columns' shapes
    parts = {o: [{"features": np.empty((0, dim)), "actions": np.empty((0, 2)),
                  "rewards": [], "next_features": np.empty((0, dim)),
                  "dones": [], "traj_ids": [], "step_ids": []}]
             for o in (SUCCESS, COLLISION)}
    for traj in trajectories:
        feats = np.stack([reference_features(s, profile) for s in traj.obs])
        T = len(traj)
        dones = np.arange(T) == T - 1
        parts[traj.outcome].append({
            "features": feats[:-1],
            "actions": traj.obs[1:, -2:].tolist(),
            "rewards": _transition_rewards(feats[:-1], feats[1:], dones,
                                           traj.outcome, profile, episode),
            "next_features": feats[1:], "dones": dones,
            "traj_ids": np.full(T, traj.traj_id), "step_ids": np.arange(T)})
    return [TransitionBlock(**{
        c: np.concatenate([np.asarray(t[c], dtype) for t in pieces])
        for c, dtype in DTYPES.items()})
        for pieces in (parts[SUCCESS], parts[COLLISION])]


@pytest.mark.parametrize("outcomes", [(SUCCESS, COLLISION), (SUCCESS,),
                                      (COLLISION,)])
def test_one_pass_build_equals_the_staged_build(outcomes):
    trajs = [t for t in TRAJS if t.outcome in outcomes]
    ds = build_dataset(trajs, PROFILE, EPISODE)
    assert (ds.n_exp > 0, ds.n_col > 0) == (SUCCESS in outcomes,
                                           COLLISION in outcomes)
    for block, ref in zip((ds.exp, ds.col),
                          staged_build(trajs, PROFILE, EPISODE)):
        for c in DTYPES:
            got, want = getattr(block, c), getattr(ref, c)
            assert got.dtype == want.dtype and got.shape == want.shape, c
            assert np.array_equal(got, want), c


def test_build_dataset_holds_each_column_once():
    # the staged build held every column twice, staged and concatenated;
    # one pass holds the columns plus one trajectory's temporaries
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = build_dataset(TRAJS, PROFILE, EPISODE)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    nbytes = sum(arr.nbytes for block in (ds.exp, ds.col)
                 for arr in vars(block).values())
    longest = max(len(t) for t in TRAJS) * nbytes / ds.n_total
    assert peak < nbytes + longest + 64 * 1024, (peak, nbytes, longest)


def test_collision_ratio_near_target():
    assert DS.collision_ratio == pytest.approx(0.1, abs=0.02)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_round_half_up():
    assert round_half_up(3.84) == 4
    assert round_half_up(0.5) == 1
    assert round_half_up(0.49) == 0
    assert round_half_up(2.5) == 3


def test_stratified_exact_counts():
    s = StratifiedSampler(DS, 0.015, 256, seed=0)
    assert s.n_col_per_batch == 4  # round(3.84)
    for _ in range(50):
        batch = s.sample()
        assert len(batch) == 256
        assert batch.n_collision == 4


def test_stratified_even_split():
    s = StratifiedSampler(DS, 0.5, 100, seed=1)
    batch = s.sample()
    assert batch.n_collision == 50


def test_rho_zero_draws_exp_only():
    s = StratifiedSampler(DS, 0.0, 64, seed=2)
    for _ in range(10):
        assert s.sample().n_collision == 0


def test_rho_zero_works_with_empty_col():
    empty = OfflineDataset(DS.exp, no_rows(DS.col), PROFILE)
    s = StratifiedSampler(empty, 0.0, 32, seed=3)
    assert s.sample().n_collision == 0


def test_exp_sampler_purity_and_determinism():
    a = ExpSampler(DS, 256, seed=7)
    b = ExpSampler(DS, 256, seed=7)
    for _ in range(5):
        ba, bb = a.sample(), b.sample()
        assert ba.n_collision == 0
        assert np.array_equal(ba.features, bb.features)
        assert np.array_equal(ba.actions, bb.actions)


def test_mixed_sampler_determinism():
    a, b = (StratifiedSampler(DS, 0.1, 64, seed=11) for _ in range(2))
    for _ in range(5):
        assert np.array_equal(a.sample().features, b.sample().features)


def test_pooled_sampler_mixes_both():
    s = PooledSampler(DS, 512, seed=5)
    counts = [s.sample().n_collision for _ in range(20)]
    assert min(counts) > 0          # collision rows do show up
    assert len(set(counts)) > 1     # but not a fixed count per batch


def test_sampler_uniformity_chi_square():
    """Selection frequencies of each transition stay within 5 sigma."""
    # small partitions so each transition gets many expected hits
    exp_n, col_n = 40, 40
    small = OfflineDataset(
        TransitionBlock(
            DS.exp.features[:exp_n], DS.exp.actions[:exp_n],
            DS.exp.rewards[:exp_n], DS.exp.next_features[:exp_n],
            DS.exp.dones[:exp_n], np.arange(exp_n, dtype=np.int64),
            DS.exp.step_ids[:exp_n]),
        TransitionBlock(
            DS.col.features[:col_n], DS.col.actions[:col_n],
            DS.col.rewards[:col_n], DS.col.next_features[:col_n],
            DS.col.dones[:col_n], np.arange(col_n, dtype=np.int64),
            DS.col.step_ids[:col_n]),
        PROFILE)
    s = StratifiedSampler(small, 0.5, 100, seed=13)
    draws_per_side = 0
    counts_exp = np.zeros(exp_n)
    counts_col = np.zeros(col_n)
    for _ in range(2000):  # 2000 * 50 = 1e5 draws per partition
        batch = s.sample()
        draws_per_side += 50
        # recover which source rows were drawn via traj_ids trick
        # (ids were replaced by the row index above)
        exp_rows = batch.collision_mask == False  # noqa: E712
        # features row-match: use rewards as a cheap key is unsafe; instead
        # re-draw using the same generator is overkill - count via mask sums
        counts_exp += np.bincount(
            _match_rows(batch.features[exp_rows], small.exp.features),
            minlength=exp_n)
        counts_col += np.bincount(
            _match_rows(batch.features[~exp_rows], small.col.features),
            minlength=col_n)
    for counts, n in ((counts_exp, exp_n), (counts_col, col_n)):
        expected = draws_per_side / n
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        dof = n - 1
        sigma = math.sqrt(2 * dof)
        assert abs(chi2 - dof) < 5 * sigma, f"chi2={chi2:.1f} dof={dof}"


def _match_rows(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Index of each row in a table of unique rows."""
    idx = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        matches = np.where((table == row).all(axis=1))[0]
        idx[i] = matches[0]
    return idx


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_roundtrip_bitwise(tmp_path):
    path = str(tmp_path / "ds.fanav")
    save_dataset(DS, path)
    loaded = load_dataset(path)
    assert loaded.n_exp == DS.n_exp and loaded.n_col == DS.n_col
    assert loaded.exp.equals(DS.exp)
    assert loaded.col.equals(DS.col)
    assert loaded.profile == DS.profile
    assert loaded.meta == DS.meta


def test_members_hold_write_arrays_bytes(tmp_path):
    # binio writes each array from its own buffer, not through a copy
    arrays = {"empty": np.zeros((0, 7), np.float32),
              "flat": np.arange(5, dtype=np.float32),
              "grid": np.arange(12, dtype=np.float32).reshape(3, 4),
              "bytes": np.arange(9, dtype=np.uint8),
              "ids": np.arange(-3, 3, dtype=np.int64),
              "flags": np.array([True, False, True])}
    path = tmp_path / "arrays.bin"
    binio.write(str(path), "test", {}, arrays)
    with zipfile.ZipFile(path) as zf:
        for name, arr in arrays.items():
            expected = io.BytesIO()
            np.lib.format.write_array(expected, arr, allow_pickle=False)
            assert zf.read(f"{name}.npy") == expected.getvalue(), name
    _, loaded = binio.read(str(path), "test")
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert np.array_equal(loaded[name], arr), name


def test_save_dataset_copies_no_column(tmp_path):
    # 80 trajectories of 100 rows, each done on its last row
    rng = np.random.default_rng(0)
    n, dim = 8000, PROFILE.dim
    step_ids = np.arange(n, dtype=np.int32) % 100
    block = TransitionBlock(
        rng.random((n, dim), np.float32), rng.random((n, 2), np.float32),
        rng.random(n, np.float32), rng.random((n, dim), np.float32),
        (step_ids == 99).astype(np.uint8), np.arange(n) // 100, step_ids)
    ds = OfflineDataset(block, no_rows(block), PROFILE, {})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_dataset(ds, str(tmp_path / "big.fanav"))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # a copy of the largest column would be n * dim * 4 bytes
    assert peak < n * dim * 4 // 8, peak


def test_roundtrip_keeps_the_episode_beside_the_meta(tmp_path):
    path = str(tmp_path / "ds.fanav")
    episode = EpisodeConfig(r_success=5.0, c1=9.0)
    ds = build_dataset(TRAJS, PROFILE, episode, meta={"seed": 4})
    save_dataset(ds, path)
    header, _ = binio.read(path, "dataset")
    assert header["episode"] == episode.to_dict()
    assert header["meta"] == {"seed": 4}
    loaded = load_dataset(path)
    assert loaded.episode == episode and loaded.meta == {"seed": 4}
    assert loaded.exp.equals(ds.exp) and loaded.col.equals(ds.col)
    assert np.all(loaded.exp.rewards[loaded.exp.dones == 1] == 5.0)


def test_a_file_holds_each_trajectory_once(tmp_path):
    path = str(tmp_path / "ds.fanav")
    save_dataset(DS, path)
    _, arrays = binio.read(path, "dataset")
    for part, outcome, block in (("exp", SUCCESS, DS.exp),
                                 ("col", COLLISION, DS.col)):
        trajs = [t for t in TRAJS if t.outcome == outcome]
        assert arrays[f"{part}/traj_ids"].tolist() == [t.traj_id
                                                        for t in trajs]
        assert arrays[f"{part}/lengths"].tolist() == [len(t) for t in trajs]
        assert np.array_equal(arrays[f"{part}/features"], block.features)
        assert np.array_equal(arrays[f"{part}/last"], np.stack(
            [encode_state(t.obs[-1], PROFILE) for t in trajs]))
    assert sorted(arrays) == [f"{part}/{m}" for part in ("col", "exp")
                              for m in ("actions", "features", "last",
                                        "lengths", "traj_ids")]


def test_save_refuses_a_partition_whose_last_row_ends_no_trajectory(
        tmp_path):
    dones = DS.col.dones.copy()
    dones[-1] = 0
    path = tmp_path / "ds.fanav"
    with pytest.raises(ProtocolError,
                       match="ds.fanav: col's last row ends no trajectory"):
        save_dataset(OfflineDataset(DS.exp, replace(DS.col, dones=dones),
                                    PROFILE), str(path))
    assert not path.exists()


def rewrite_header(src, dst, **changes):
    """Copy the container ``src`` to ``dst`` with header.json's top-level
    fields updated by ``changes``."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            data = zin.read(info)
            if info.filename == "header.json":
                data = json.dumps({**json.loads(data), **changes}).encode()
            zout.writestr(info, data)


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.fanav"
    path.write_bytes(b"NOTFAN" + b"\x00" * 64)
    with pytest.raises(DataFormatError,
                       match="not a whole fanav dataset file"):
        load_dataset(str(path))
    # a format-1 file: no reader, one clear error
    path.write_bytes(b"FANAV1" + b"\x01\x00\x00\x00" + b"\x00" * 64)
    with pytest.raises(DataFormatError,
                       match="format 1 predates checksums; re-create it"):
        load_dataset(str(path))


def test_truncated_file_reports_offset(tmp_path):
    path = str(tmp_path / "ds.fanav")
    save_dataset(DS, path)
    blob = Path(path).read_bytes()
    trunc = tmp_path / "trunc.fanav"
    trunc.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataFormatError,
                       match="not a whole fanav dataset file"):
        load_dataset(str(trunc))


def test_wrong_schema_version(tmp_path):
    path = str(tmp_path / "ds.fanav")
    save_dataset(DS, path)
    bad = str(tmp_path / "schema.fanav")
    rewrite_header(path, bad, version=99)
    with pytest.raises(DataFormatError,
                       match="format version 99 is not supported"):
        load_dataset(bad)


def test_dataset_and_checkpoint_are_not_interchangeable(tmp_path):
    ds_path = str(tmp_path / "ds.fanav")
    save_dataset(DS, ds_path)
    with pytest.raises(DataFormatError, match="holds a dataset, not a "
                                              "checkpoint"):
        load_checkpoint(ds_path)
    ck_path = str(tmp_path / "ck.famlp")
    save_checkpoint(ck_path, {"v": np.zeros(2, np.float32)})
    with pytest.raises(DataFormatError, match="holds a checkpoint, not a "
                                              "dataset"):
        load_dataset(ck_path)


def test_arrays_must_fit_the_profile(tmp_path):
    path = str(tmp_path / "ds.fanav")
    narrow = replace(DS.col, features=DS.col.features[:, :-1])
    save_dataset(OfflineDataset(DS.exp, narrow, PROFILE), path)
    with pytest.raises(DataFormatError,
                       match=r"col/features is float32 \(\d+, 27\), "
                             r"expected float32 \(\d+, 28\)"):
        load_dataset(path)


@pytest.mark.parametrize("part", ["exp", "col"])
@pytest.mark.parametrize("column", ["features", "next_features", "actions"])
def test_a_non_finite_value_is_refused(column, part, tmp_path):
    # a NaN state or action would otherwise train to the end; on a
    # trajectory's final row each column is stored, its next state as the
    # trajectory's last
    block = getattr(DS, part)
    arr = getattr(block, column).copy()
    ends = np.flatnonzero(block.dones)
    arr[ends[len(ends) // 2], 0] = np.nan
    blocks = {"exp": DS.exp, "col": DS.col,
              part: replace(block, **{column: arr})}
    path = str(tmp_path / "ds.fanav")
    save_dataset(OfflineDataset(blocks["exp"], blocks["col"], PROFILE), path)
    member = "last" if column == "next_features" else column
    with pytest.raises(DataFormatError,
                       match=f"{part}/{member} holds a non-finite value"):
        load_dataset(path)


def test_corrupt_body_digest_or_trailing(tmp_path):
    path = str(tmp_path / "ds.fanav")
    save_dataset(DS, path)
    blob = bytearray(Path(path).read_bytes())
    blob.extend(b"junk")
    bad = tmp_path / "trail.fanav"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="trailing"):
        load_dataset(str(bad))
    # a byte flipped in the middle of the body
    blob = bytearray(Path(path).read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="Bad CRC-32"):
        load_dataset(str(bad))


def test_describe_dataset_mentions_ratio():
    text = describe_dataset(DS)
    assert "success" in text and "collision" in text
    assert str(DS.n_total) in text
