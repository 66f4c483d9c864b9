"""Offline dataset: feature encoding, success/collision partitions, sampling.

Transitions are stored as flat column arrays per partition. The stratified
sampler fixes the number of collision transitions per batch exactly, not in
expectation, which is what makes the collision influence on critic updates
controllable.

A saved dataset (``.fanav``) is a :mod:`fanav.binio` file of kind
``dataset``: its header meta holds the encoder profile (every
``RobotSpec`` field and ``d_norm``) and the dataset's meta, and the arrays
``exp/<column>`` and ``col/<column>`` hold each partition's columns, typed
as in ``_COLUMNS``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import binio
from .errors import ConfigError, DataFormatError, ShapeError
from .expert import Trajectory
from .sim import COLLISION, SUCCESS, EpisodeConfig, NavState, RobotSpec, World

# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncoderProfile:
    """The robot and the goal-distance normalizer a NavState is encoded with.

    The profile is fixed at collection time and travels with datasets and
    checkpoints, whole robot included, so that training and deployment
    always encode identically and run the same robot, even when evaluating
    in a different room.
    """

    robot: RobotSpec
    d_norm: float

    @classmethod
    def from_world_spec(cls, world: World, spec: RobotSpec) -> "EncoderProfile":
        return cls(spec, world.diagonal)

    @property
    def beam_count(self) -> int:
        return self.robot.lidar_beams

    @property
    def v_max(self) -> float:
        return self.robot.v_max

    @property
    def omega_max(self) -> float:
        return self.robot.omega_max

    @property
    def dim(self) -> int:
        return self.beam_count + 4

    @property
    def action_scale(self) -> np.ndarray:
        """Bounds of the (v, omega) actions a policy on this robot emits."""
        return np.array([self.v_max, self.omega_max])

    def to_dict(self) -> dict:
        return {"robot": asdict(self.robot), "d_norm": self.d_norm}

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderProfile":
        return cls(RobotSpec(**d["robot"]), float(d["d_norm"]))


def encode_state(state: NavState, profile: EncoderProfile) -> np.ndarray:
    """Flatten a NavState into the network feature vector.

    Layout: [scan / lidar_range, d / d_norm, bearing / pi, v / v_max,
    w / omega_max]. The distance channel is clipped to [0, 1] so goals
    farther than the profile's normalizer (possible in a larger room than
    the training one) stay in range; every other entry lands in [-1, 1] by
    construction.
    """
    robot = profile.robot
    n = robot.lidar_beams
    scan = np.asarray(state.scan, dtype=np.float64)
    if scan.shape != (n,):
        raise ShapeError(
            f"scan has {scan.shape[0] if scan.ndim == 1 else scan.shape} beams, "
            f"encoder expects {n}")
    out = np.empty(n + 4, dtype=np.float32)
    out[:n] = scan / robot.lidar_range
    out[n] = min(1.0, max(0.0, state.goal_dist / profile.d_norm))
    out[n + 1] = state.goal_bearing / math.pi
    out[n + 2] = state.lin_vel / robot.v_max
    out[n + 3] = state.ang_vel / robot.omega_max
    return out


def decode_goal_dist(features: np.ndarray, profile: EncoderProfile) -> np.ndarray:
    """Goal distance in meters recovered from encoded features."""
    feats = np.atleast_2d(features)
    return feats[:, profile.beam_count].astype(np.float64) * profile.d_norm


# ---------------------------------------------------------------------------
# transition storage
# ---------------------------------------------------------------------------

# every column of a partition: its dtype and the width of a row, None for
# a scalar and "D" for the feature dim
_COLUMNS = {"features": (np.float32, "D"), "actions": (np.float32, 2),
            "rewards": (np.float32, None), "next_features": (np.float32, "D"),
            "dones": (np.uint8, None), "traj_ids": (np.int64, None),
            "step_ids": (np.int32, None)}


def _column_shape(name: str, n: int, dim: int) -> tuple[int, ...]:
    width = _COLUMNS[name][1]
    return (n,) if width is None else (n, dim if width == "D" else width)


@dataclass
class TransitionBlock:
    """Column-array storage for one partition, typed as in ``_COLUMNS``."""

    features: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_features: np.ndarray
    dones: np.ndarray
    traj_ids: np.ndarray
    step_ids: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]

    @classmethod
    def empty(cls, dim: int) -> "TransitionBlock":
        return cls(**{c: np.empty(_column_shape(c, 0, dim), dtype)
                      for c, (dtype, _) in _COLUMNS.items()})

    def equals(self, other: "TransitionBlock") -> bool:
        return all(np.array_equal(getattr(self, c), getattr(other, c))
                   for c in _COLUMNS)


@dataclass
class OfflineDataset:
    """Success/collision partitioned transition store."""

    exp: TransitionBlock
    col: TransitionBlock
    profile: EncoderProfile
    meta: dict = field(default_factory=dict)

    @property
    def n_exp(self) -> int:
        return len(self.exp)

    @property
    def n_col(self) -> int:
        return len(self.col)

    @property
    def n_total(self) -> int:
        return self.n_exp + self.n_col

    @property
    def collision_ratio(self) -> float:
        return self.n_col / self.n_total if self.n_total else 0.0


def _transition_rewards(features: np.ndarray, next_features: np.ndarray,
                        dones: np.ndarray, terminal: str,
                        profile: EncoderProfile,
                        episode: EpisodeConfig) -> np.ndarray:
    """Rewards of one partition's transitions, in float64.

    A done row carries the reward of the episode's ``terminal`` outcome
    (``r_success`` or ``r_collision``); every other row carries
    ``c1 * (d - d')`` over the goal distances decoded from its features.
    """
    reward = {SUCCESS: episode.r_success, COLLISION: episode.r_collision}
    dense = episode.c1 * (decode_goal_dist(features, profile)
                          - decode_goal_dist(next_features, profile))
    return np.where(dones.astype(bool), reward[terminal], dense)


def build_dataset(trajectories: list[Trajectory], profile: EncoderProfile,
                  episode_cfg: EpisodeConfig,
                  meta: dict | None = None) -> OfflineDataset:
    """Encode labeled trajectories into a partitioned dataset.

    Dense rewards are computed from the float32-quantized encoded distances
    so that a reward audit against the stored features is exact to well
    under 1e-6; terminal rewards keep their exact configured values.
    """
    parts: dict[str, list[dict]] = {SUCCESS: [], COLLISION: []}
    for traj in trajectories:
        if traj.outcome not in parts:
            raise ConfigError(
                f"trajectory {traj.traj_id} has outcome '{traj.outcome}', "
                "only success/collision trajectories belong in a dataset")
        feats = np.stack([encode_state(s, profile) for s in traj.states])
        T = len(traj.actions)
        dones = np.arange(T) == T - 1
        parts[traj.outcome].append({
            "features": feats[:-1],
            "actions": [(a.v_cmd, a.omega_cmd) for a in traj.actions],
            "rewards": _transition_rewards(feats[:-1], feats[1:], dones,
                                           traj.outcome, profile, episode_cfg),
            "next_features": feats[1:], "dones": dones,
            "traj_ids": np.full(T, traj.traj_id), "step_ids": np.arange(T)})
    exp, col = (TransitionBlock(**{
        c: np.concatenate([np.asarray(t[c], dtype) for t in trajs])
        for c, (dtype, _) in _COLUMNS.items()})
        if trajs else TransitionBlock.empty(profile.dim)
        for trajs in (parts[SUCCESS], parts[COLLISION]))
    return OfflineDataset(exp, col, profile, dict(meta or {}))


def audit_rewards(ds: OfflineDataset, episode_cfg: EpisodeConfig) -> float:
    """Max absolute error between stored rewards and their recomputation."""
    worst = 0.0
    for outcome, block in ((SUCCESS, ds.exp), (COLLISION, ds.col)):
        if len(block):
            expected = _transition_rewards(
                block.features, block.next_features, block.dones, outcome,
                ds.profile, episode_cfg)
            worst = max(worst, float(np.max(np.abs(
                block.rewards.astype(np.float64) - expected))))
    return worst


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplerConfig:
    rho: float = 0.015
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError("rho must lie in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class Batch:
    """A sampled minibatch with its partition bookkeeping."""

    features: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_features: np.ndarray
    dones: np.ndarray           # f32 mask, 1.0 on terminal transitions
    collision_mask: np.ndarray  # bool, True where drawn from the col partition

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_collision(self) -> int:
        return int(self.collision_mask.sum())


def _gather(ds: OfflineDataset, exp_idx: np.ndarray, col_idx: np.ndarray,
            perm: np.ndarray | None) -> Batch:
    n_exp, n_col = len(exp_idx), len(col_idx)
    n = n_exp + n_col
    if n_col == 0:
        return Batch(ds.exp.features[exp_idx], ds.exp.actions[exp_idx],
                     ds.exp.rewards[exp_idx],
                     ds.exp.next_features[exp_idx],
                     ds.exp.dones[exp_idx].astype(np.float32),
                     np.zeros(n, bool))
    # scatter each partition's rows into its shuffled slots in one pass
    pos_exp = perm[:n_exp] if perm is not None else np.arange(n_exp)
    pos_col = perm[n_exp:] if perm is not None else np.arange(n_exp, n)
    dim = ds.profile.dim
    feats = np.empty((n, dim), np.float32)
    acts = np.empty((n, 2), np.float32)
    rews = np.empty(n, np.float32)
    nxt = np.empty((n, dim), np.float32)
    dones = np.empty(n, np.float32)
    mask = np.zeros(n, bool)
    for pos, block, idx in ((pos_exp, ds.exp, exp_idx),
                            (pos_col, ds.col, col_idx)):
        feats[pos] = block.features[idx]
        acts[pos] = block.actions[idx]
        rews[pos] = block.rewards[idx]
        nxt[pos] = block.next_features[idx]
        dones[pos] = block.dones[idx]
    mask[pos_col] = True
    return Batch(feats, acts, rews, nxt, dones, mask)


_NO_IDX = np.empty(0, dtype=np.int64)


class StratifiedSampler:
    """Mixed batches with exactly round(rho * B) collision transitions each.

    Draws are uniform with replacement within each partition; the merged
    batch is shuffled. The underlying random stream is owned by the sampler,
    so a given (seed, call index) pair always produces the same batch.
    """

    def __init__(self, ds: OfflineDataset, cfg: SamplerConfig):
        self.ds = ds
        self.cfg = cfg
        self.n_col_per_batch = round_half_up(cfg.rho * cfg.batch_size)
        if self.n_col_per_batch > 0 and ds.n_col == 0:
            raise ConfigError("rho > 0 requires a non-empty collision partition")
        if cfg.batch_size - self.n_col_per_batch > 0 and ds.n_exp == 0:
            raise ConfigError("empty success partition")
        self.rng = np.random.default_rng(cfg.seed)

    def sample(self) -> Batch:
        n_col = self.n_col_per_batch
        n_exp = self.cfg.batch_size - n_col
        exp_idx = self.rng.integers(0, self.ds.n_exp, n_exp) if n_exp else _NO_IDX
        col_idx = self.rng.integers(0, self.ds.n_col, n_col) if n_col else _NO_IDX
        perm = self.rng.permutation(self.cfg.batch_size)
        return _gather(self.ds, exp_idx, col_idx, perm)


class ExpSampler:
    """Uniform batches from the success partition only."""

    def __init__(self, ds: OfflineDataset, batch_size: int, seed: int):
        if ds.n_exp == 0:
            raise ConfigError("empty success partition")
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self.ds = ds
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)

    def sample(self) -> Batch:
        idx = self.rng.integers(0, self.ds.n_exp, self.batch_size)
        return _gather(self.ds, idx, _NO_IDX, None)


class PooledSampler:
    """Uniform batches over the union of both partitions (direct mixing)."""

    def __init__(self, ds: OfflineDataset, batch_size: int, seed: int):
        if ds.n_total == 0:
            raise ConfigError("empty dataset")
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self.ds = ds
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)

    def sample(self) -> Batch:
        flat = self.rng.integers(0, self.ds.n_total, self.batch_size)
        exp_idx = flat[flat < self.ds.n_exp]
        col_idx = flat[flat >= self.ds.n_exp] - self.ds.n_exp
        perm = self.rng.permutation(self.batch_size)
        return _gather(self.ds, exp_idx, col_idx, perm)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_dataset(ds: OfflineDataset, path: str) -> None:
    arrays = {f"{part}/{c}": np.asarray(getattr(block, c), dtype)
              for part, block in (("exp", ds.exp), ("col", ds.col))
              for c, (dtype, _) in _COLUMNS.items()}
    binio.write(path, "dataset", {"profile": ds.profile.to_dict(),
                                  "meta": ds.meta}, arrays)


def load_dataset(path: str) -> OfflineDataset:
    header, arrays = binio.read(path, "dataset")
    try:
        profile = EncoderProfile.from_dict(header["profile"])
        blocks = []
        for part in ("exp", "col"):
            n = len(arrays[f"{part}/rewards"])
            cols = {c: arrays[f"{part}/{c}"] for c in _COLUMNS}
            for c, arr in cols.items():
                dtype, shape = _COLUMNS[c][0], _column_shape(c, n, profile.dim)
                if arr.dtype != dtype or arr.shape != shape:
                    raise DataFormatError(
                        f"{path}: {part}/{c} is {arr.dtype} {arr.shape}, "
                        f"expected {np.dtype(dtype)} {shape}")
            blocks.append(TransitionBlock(**cols))
        return OfflineDataset(*blocks, profile, dict(header["meta"]))
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad dataset ({exc!r})") from exc


def describe_dataset(ds: OfflineDataset) -> str:
    lines = [
        f"transitions: {ds.n_total} "
        f"(success {ds.n_exp}, collision {ds.n_col})",
        f"success:collision ratio: "
        f"{ds.n_exp}:{ds.n_col} (collision fraction {ds.collision_ratio:.4f})",
        f"feature dim: {ds.profile.dim} ({ds.profile.beam_count} beams + 4)",
        f"trajectories: "
        f"{len(np.unique(ds.exp.traj_ids)) + len(np.unique(ds.col.traj_ids))}",
    ]
    return "\n".join(lines)
