"""Offline dataset: feature encoding, success/collision partitions, sampling.

Transitions are stored as flat column arrays per partition. The stratified
sampler fixes the number of collision transitions per batch exactly, not in
expectation, which is what makes the collision influence on critic updates
controllable.

A saved dataset (``.fanav``) is a :mod:`fanav.binio` file of kind
``dataset``: its header meta holds the encoder profile (every
``RobotSpec`` field and ``d_norm``), the ``EpisodeConfig`` the rewards
follow from and the dataset's meta. Each partition (``exp/``, ``col/``)
is stored as its trajectories, laid end to end: per row ``features`` and
``actions``, per trajectory ``traj_ids``, ``lengths`` and ``last``, the
state it ended in. :func:`_partition` derives the in-memory columns from
these for a build and a load alike, so the two cannot disagree. A load
refuses a header setting its section refuses, a member of the wrong dtype
or shape, a float member that holds a non-finite value, a length below 1
and a trajectory id that repeats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import binio
from .errors import ConfigError, DataFormatError, ProtocolError, ShapeError
from .expert import Trajectory
from .sim import COLLISION, SUCCESS, EpisodeConfig, RobotSpec, World

# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncoderProfile:
    """The robot and the goal-distance normalizer an observation is encoded
    with.

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

    @cached_property
    def obs_scale(self) -> np.ndarray:
        """What each column of an observation is divided by: lidar_range
        for every beam, then d_norm, pi, v_max and omega_max; read-only,
        as the profile is."""
        scale = np.concatenate((np.full(self.beam_count,
                                        self.robot.lidar_range),
                                (self.d_norm, math.pi, self.v_max,
                                 self.omega_max)))
        scale.flags.writeable = False
        return scale

    @property
    def action_scale(self) -> np.ndarray:
        """Bounds of the (v, omega) actions a policy on this robot emits."""
        return np.array([self.v_max, self.omega_max])

    def to_dict(self) -> dict:
        return {"robot": self.robot.to_dict(), "d_norm": self.d_norm}

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderProfile":
        robot, d_norm = RobotSpec.from_dict(d["robot"]), float(d["d_norm"])
        if not 0 < d_norm < math.inf:
            raise ConfigError(f"d_norm must be finite and > 0, got {d_norm}")
        return cls(robot, d_norm)


def encode_state(obs: np.ndarray, profile: EncoderProfile) -> np.ndarray:
    """Network features of one observation row (:func:`fanav.sim.observe`)
    or of a matrix of them.

    Layout: [scan / lidar_range, d / d_norm, bearing / pi, v / v_max,
    w / omega_max]. The distance channel is capped at 1 so goals farther
    than the profile's normalizer (possible in a larger room than the
    training one) stay in range; every other entry lands in [-1, 1] by
    construction.
    """
    n = profile.beam_count
    if obs.shape[-1] != n + 4:
        raise ShapeError(f"observation has {obs.shape[-1] - 4} beams, "
                         f"encoder expects {n}")
    feats = obs / profile.obs_scale
    feats[..., n] = np.minimum(feats[..., n], 1.0)
    return feats.astype(np.float32)


def decode_goal_dist(features: np.ndarray, profile: EncoderProfile) -> np.ndarray:
    """Goal distance in meters recovered from encoded features."""
    feats = np.atleast_2d(features)
    return feats[:, profile.beam_count].astype(np.float64) * profile.d_norm


# ---------------------------------------------------------------------------
# transition storage
# ---------------------------------------------------------------------------

@dataclass
class TransitionBlock:
    """Column-array storage for one partition, as :func:`_partition` makes
    it: float32 ``features`` and ``next_features`` (rows x dim), ``actions``
    (rows x 2) and ``rewards``, uint8 ``dones``, int64 ``traj_ids`` and
    int32 ``step_ids``."""

    features: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_features: np.ndarray
    dones: np.ndarray
    traj_ids: np.ndarray
    step_ids: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]

    def equals(self, other: "TransitionBlock") -> bool:
        return all(np.array_equal(a, b) for a, b in zip(vars(self).values(),
                                                        vars(other).values()))


@dataclass
class OfflineDataset:
    """Success/collision partitioned transition store, with the episode
    config its rewards follow from."""

    exp: TransitionBlock
    col: TransitionBlock
    profile: EncoderProfile
    meta: dict = field(default_factory=dict)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)

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


# the members of a partition in a dataset file, in _partition's order: per
# row, then per trajectory
_MEMBERS = ("features", "actions", "traj_ids", "lengths", "last")


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


def _partition(features: np.ndarray, actions: np.ndarray,
               traj_ids: np.ndarray, lengths: np.ndarray, last: np.ndarray,
               outcome: str, profile: EncoderProfile,
               episode: EpisodeConfig) -> TransitionBlock:
    """One partition's columns from its trajectories, laid end to end:
    each trajectory's ``lengths`` rows of ``features`` and ``actions`` in
    step order, its id and its ``last`` state, the one its final step
    reached.

    A row's next features are the next row's, or on a trajectory's final
    row, its one done row, the trajectory's last state. Rewards are
    :func:`_transition_rewards` cast to float32; a reward too large for
    float32 becomes an infinity without a warning, which a value or critic
    update then refuses as non-finite.
    """
    ends = np.cumsum(lengths)
    dones = np.zeros(len(features), np.uint8)
    dones[ends - 1] = 1
    # each row's successor; a trajectory's final row then takes its last
    next_features = np.concatenate((features[1:], features[:1]))
    next_features[ends - 1] = last
    step_ids = np.arange(len(features)) - np.repeat(ends - lengths, lengths)
    with np.errstate(over="ignore", invalid="ignore"):
        rewards = _transition_rewards(features, next_features, dones, outcome,
                                      profile, episode).astype(np.float32)
    return TransitionBlock(features, actions, rewards, next_features, dones,
                           np.repeat(traj_ids, lengths),
                           step_ids.astype(np.int32))


def build_dataset(trajectories: list[Trajectory], profile: EncoderProfile,
                  episode_cfg: EpisodeConfig,
                  meta: dict | None = None) -> OfflineDataset:
    """Encode labeled trajectories into a partitioned dataset, writing each
    trajectory's rows straight into its partition's preallocated features
    and actions, from which :func:`_partition` derives the other columns.

    Dense rewards are computed from the float32-quantized encoded distances
    so that a reward audit against the stored features is exact to well
    under 1e-6; terminal rewards keep their exact configured values.
    """
    for traj in trajectories:
        if traj.outcome not in (SUCCESS, COLLISION):
            raise ConfigError(
                f"trajectory {traj.traj_id} has outcome '{traj.outcome}', "
                "only success/collision trajectories belong in a dataset")
    if len({t.traj_id for t in trajectories}) < len(trajectories):
        raise ConfigError("a trajectory id repeats; each trajectory of a "
                          "dataset has an id of its own")
    blocks = []
    for outcome in (SUCCESS, COLLISION):
        trajs = [t for t in trajectories if t.outcome == outcome]
        lengths = np.array([len(t) for t in trajs], np.int64)
        features = np.empty((lengths.sum(), profile.dim), np.float32)
        actions = np.empty((len(features), 2), np.float32)
        last = np.empty((len(trajs), profile.dim), np.float32)
        for i, (traj, end) in enumerate(zip(trajs, np.cumsum(lengths))):
            feats = encode_state(traj.obs, profile)
            at = slice(end - len(traj), end)
            features[at], last[i] = feats[:-1], feats[-1]
            actions[at] = traj.obs[1:, -2:]  # the clamped commands
        blocks.append(_partition(
            features, actions, np.array([t.traj_id for t in trajs], np.int64),
            lengths, last, outcome, profile, episode_cfg))
    return OfflineDataset(*blocks, profile, dict(meta or {}), episode_cfg)


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
# sampling: each sampler draws from partitions that train() has checked are
# non-empty, with a batch size and rho that TrainerConfig has bounded
# ---------------------------------------------------------------------------

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
    """Rows of both partitions, scattered to their slots of ``perm``, which
    a batch without collision rows never reads."""
    n_exp, n_col = len(exp_idx), len(col_idx)
    n = n_exp + n_col
    if n_col == 0:
        return Batch(ds.exp.features[exp_idx], ds.exp.actions[exp_idx],
                     ds.exp.rewards[exp_idx],
                     ds.exp.next_features[exp_idx],
                     ds.exp.dones[exp_idx].astype(np.float32),
                     np.zeros(n, bool))
    # scatter each partition's rows into its shuffled slots in one pass
    pos_exp, pos_col = perm[:n_exp], perm[n_exp:]
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

    def __init__(self, ds: OfflineDataset, rho: float, batch_size: int,
                 seed: int):
        self.ds = ds
        self.batch_size = batch_size
        self.n_col_per_batch = round_half_up(rho * batch_size)
        self.rng = np.random.default_rng(seed)

    def sample(self) -> Batch:
        n_col = self.n_col_per_batch
        n_exp = self.batch_size - n_col
        exp_idx = self.rng.integers(0, self.ds.n_exp, n_exp) if n_exp else _NO_IDX
        col_idx = self.rng.integers(0, self.ds.n_col, n_col) if n_col else _NO_IDX
        perm = self.rng.permutation(self.batch_size)
        return _gather(self.ds, exp_idx, col_idx, perm)


class ExpSampler:
    """Uniform batches from the success partition only."""

    def __init__(self, ds: OfflineDataset, batch_size: int, seed: int):
        self.ds = ds
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)

    def sample(self) -> Batch:
        idx = self.rng.integers(0, self.ds.n_exp, self.batch_size)
        return _gather(self.ds, idx, _NO_IDX, None)


class PooledSampler:
    """Uniform batches over the union of both partitions (direct mixing)."""

    def __init__(self, ds: OfflineDataset, batch_size: int, seed: int):
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
    """Write ``ds`` as its trajectories (see the module docstring), each of
    which ends at a row that ``dones`` marks; a partition whose last row
    ends no trajectory is a :class:`ProtocolError`, raised before anything
    is written."""
    arrays = {}
    for part, block in (("exp", ds.exp), ("col", ds.col)):
        if len(block) and not block.dones[-1]:
            raise ProtocolError(f"{path}: {part}'s last row ends no trajectory")
        ends = np.flatnonzero(block.dones)
        arrays |= zip((f"{part}/{m}" for m in _MEMBERS), (
            block.features, block.actions, block.traj_ids[ends],
            np.diff(ends, prepend=-1), block.next_features[ends]))
    binio.write(path, "dataset", {"profile": ds.profile.to_dict(),
                                  "episode": ds.episode.to_dict(),
                                  "meta": ds.meta}, arrays)


def load_dataset(path: str) -> OfflineDataset:
    header, arrays = binio.read(path, "dataset")
    if "exp/lengths" not in arrays:
        raise DataFormatError(f"{path}: holds a column per transition field, "
                              "the layout before trajectories; re-create it")
    try:
        profile = EncoderProfile.from_dict(header["profile"])
        episode = EpisodeConfig.from_dict(header["episode"])
        blocks, dim = [], profile.dim
        for part, outcome in (("exp", SUCCESS), ("col", COLLISION)):
            got = {m: arrays[f"{part}/{m}"] for m in _MEMBERS}
            # a Python sum, which no crafted length can wrap round
            k, n = len(got["lengths"]), sum(got["lengths"].tolist())
            for m, dtype, shape in (
                    ("lengths", np.int64, (k,)), ("traj_ids", np.int64, (k,)),
                    ("last", np.float32, (k, dim)),
                    ("features", np.float32, (n, dim)),
                    ("actions", np.float32, (n, 2))):
                if got[m].dtype != dtype or got[m].shape != shape:
                    raise DataFormatError(
                        f"{path}: {part}/{m} is {got[m].dtype} "
                        f"{got[m].shape}, expected {np.dtype(dtype)} {shape}")
                if dtype == np.float32 and not np.isfinite(got[m]).all():
                    raise DataFormatError(
                        f"{path}: {part}/{m} holds a non-finite value")
            if np.any(got["lengths"] < 1):
                raise DataFormatError(f"{path}: {part}/lengths holds a length "
                                      "below 1")
            blocks.append(_partition(**got, outcome=outcome, profile=profile,
                                     episode=episode))
        ids = np.concatenate([arrays["exp/traj_ids"], arrays["col/traj_ids"]])
        if len(np.unique(ids)) < len(ids):
            raise DataFormatError(f"{path}: a trajectory id repeats in "
                                  "exp/traj_ids or col/traj_ids")
        return OfflineDataset(*blocks, profile, dict(header["meta"]), episode)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad dataset ({exc!r})") from exc


def describe_dataset(ds: OfflineDataset) -> str:
    lines = [
        f"transitions: {ds.n_total} "
        f"(success {ds.n_exp}, collision {ds.n_col})",
        f"success:collision ratio: "
        f"{ds.n_exp}:{ds.n_col} (collision fraction {ds.collision_ratio:.4f})",
        f"feature dim: {ds.profile.dim} ({ds.profile.beam_count} beams + 4)",
        f"trajectories: {int(ds.exp.dones.sum()) + int(ds.col.dones.sum())}",
    ]
    return "\n".join(lines)
