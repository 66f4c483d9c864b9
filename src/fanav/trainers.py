"""Offline trainers: behavior cloning and three IQL variants in one loop.

Each method is a row of :data:`METHODS`, the paper's two choices: what its
value and critic batches hold, and what its policy batches hold. The
policy weights follow: unit without critics, advantage weights with them,
as in IQL. The central row, ``iql_ca``, mixes collision rows into the
critic batches only; the others are controlled degenerations of it. Per
step the update order is fixed: value, critics, target blend, policy.

Runs are bit-reproducible for a given config: network init and each
sampler use independent child streams of the config seed, and the loop
itself is free of other randomness.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .configfile import Settings, setting
from .errors import ConfigError, NumericError
from .data import (
    EncoderProfile,
    ExpSampler,
    OfflineDataset,
    PooledSampler,
    StratifiedSampler,
)
from .losses import (
    advantages,
    awr_loss_and_grads,
    awr_weights,
    bc_loss_and_grads,
    critic_inputs,
    critic_loss_and_grads,
    min_target_q,
    td_targets,
    value_loss_and_grad,
    weighted_nll_and_grads,
)
from .nets import (
    ACTIVATIONS,
    AdamState,
    GaussianPolicyHead,
    Mlp,
    adam_step,
    params_digest,
    save_checkpoint,
    soft_update,
)


@dataclass(frozen=True)
class Recipe:
    """A row of :data:`METHODS`: the batches of the value and critic nets
    (``None``: no such nets, so unit policy weights) and of the policy."""

    critic: str | None  # "stratified_rho", "stratified_0" or "pooled"
    policy: str  # "success" or "pooled"


METHODS = {
    "bc": Recipe(None, "success"),
    "iql_so": Recipe("stratified_0", "success"),
    "iql_dm": Recipe("pooled", "pooled"),
    "iql_ca": Recipe("stratified_rho", "success"),
}


class TrainerConfig(Settings, section="trainer"):
    """Every knob of a training run, serialized alongside its artifacts.

    A run writes two checkpoints, both at ``total_steps``: the policy
    (:attr:`checkpoint_name`) and every network (``final.famlp``).
    """

    method: str = setting("iql_ca", among=METHODS)
    expectile: float = setting(0.7, "> 0", "< 1")  # tau of the expectile
    gamma: float = setting(0.99, ">= 0", "< 1")
    weight_temp: float = setting(1.0, "> 0")  # beta of the advantage weights
    max_weight: float = setting(100.0, ">= 1")
    # the collision share of a "stratified_rho" critic batch
    rho: float = setting(0.015, ">= 0", "< 1")
    batch_size: int = setting(256, ">= 1")
    lr_value: float = setting(3e-4, "> 0")
    lr_critic: float = setting(3e-4, "> 0")
    lr_policy: float = setting(3e-4, "> 0")
    target_alpha: float = setting(0.005, "> 0", "<= 1")
    n_critics: int = setting(2, ">= 1")
    total_steps: int = setting(30_000, ">= 1")
    epoch_steps: int = setting(1_000, ">= 1")  # logging granularity
    seed: int = setting(0, ">= 0")
    hidden: tuple[int, ...] = setting((128, 128), ">= 1")
    activation: str = setting("relu", among=ACTIVATIONS)

    @property
    def checkpoint_name(self) -> str:
        """The policy checkpoint's file name, ``ckpt_<total_steps>.famlp``."""
        return f"ckpt_{self.total_steps:08d}.famlp"


@dataclass
class EpochRow:
    """One line of ``report.csv``, whose header is these field names."""

    epoch: int
    step: int
    loss_value: float
    loss_critic: float
    loss_policy: float
    grad_value: float
    grad_critic: float
    grad_policy: float
    collision_in_critic: int
    adv_mean: float
    weight_mean: float
    weight_max: float
    seconds: float

    @classmethod
    def of_steps(cls, epoch: int, step: int, records: list[tuple],
                 seconds: float) -> EpochRow:
        """The row of an epoch whose steps each recorded a tuple of the
        fields ``loss_value`` to ``weight_max``, in order: each field's mean
        over the steps, but the summed ``collision_in_critic`` and the
        largest ``weight_max``."""
        cols = dict(zip((f.name for f in fields(cls)[2:-1]), zip(*records)))
        row = {name: sum(col) / len(col) for name, col in cols.items()}
        row["collision_in_critic"] = sum(cols["collision_in_critic"])
        row["weight_max"] = max(cols["weight_max"])
        return cls(epoch, step, **row, seconds=seconds)


@dataclass
class TrainReport:
    """Loss curves and the audit counters of one training run."""

    method: str
    rows: list[EpochRow] = field(default_factory=list)
    policy_collision_count: int = 0     # collision rows consumed by policy loss
    critic_col_min: int | None = None   # per-batch collision count extremes
    critic_col_max: int | None = None
    wall_clock: float = 0.0
    final_digest: str = ""

    def note_critic_batch(self, n_col: int) -> None:
        lo, hi = self.critic_col_min, self.critic_col_max
        self.critic_col_min = n_col if lo is None else min(lo, n_col)
        self.critic_col_max = n_col if hi is None else max(hi, n_col)

    def to_csv(self) -> str:
        """A header of the ``EpochRow`` field names, then one line per row:
        ints as they are, floats to 8 significant digits and ``seconds``
        to the millisecond."""
        def cell(row: EpochRow, f) -> str:
            value = getattr(row, f.name)
            if f.name == "seconds":
                return f"{value:.3f}"
            return f"{value:.8g}" if f.type == "float" else str(value)

        cols = fields(EpochRow)
        lines = [[f.name for f in cols]]
        lines += [[cell(r, f) for f in cols] for r in self.rows]
        return "".join(",".join(cells) + "\n" for cells in lines)


@dataclass
class TrainResult:
    profile: EncoderProfile
    policy: GaussianPolicyHead
    value_net: Mlp | None
    critics: list[Mlp]
    target_critics: list[Mlp]
    report: TrainReport
    param_trace: list[str] = field(default_factory=list)


def _norm(*grads: np.ndarray) -> float:
    """The L2 norm of ``grads`` joined, from their float64 square sums."""
    return math.sqrt(sum(float(v @ v) for v in
                         (g.astype(np.float64) for g in grads)))


def _sampler(kind: str, ds: OfflineDataset, cfg: TrainerConfig, seed):
    if kind == "pooled":
        return PooledSampler(ds, cfg.batch_size, seed)
    if kind == "success":
        return ExpSampler(ds, cfg.batch_size, seed)
    rho = cfg.rho if kind == "stratified_rho" else 0.0
    return StratifiedSampler(ds, rho, cfg.batch_size, seed)


def train(ds: OfflineDataset, cfg: TrainerConfig,
          out_dir: str | None = None,
          trace_params: bool = False) -> TrainResult:
    """Run one training job and return the trained networks plus report.

    ``trace_params`` records a digest of every network after each step,
    which the equivalence tests use to compare runs bit-for-bit.
    """
    recipe = METHODS[cfg.method]
    if recipe.critic == "stratified_rho" and ds.n_col == 0:
        raise ConfigError(f"{cfg.method}: empty collision partition")
    if ds.n_exp == 0:
        raise ConfigError("empty success partition")

    profile = ds.profile
    action_scale = profile.action_scale
    obs_dim = profile.dim

    # child streams 3 and 4 draw the critic and policy batches; child[5] is
    # reserved so adding a stream later cannot shift existing ones
    child = np.random.SeedSequence(cfg.seed).spawn(6)
    rng_value = np.random.default_rng(child[0])
    rng_q = np.random.default_rng(child[1])
    rng_policy = np.random.default_rng(child[2])

    # networks and Adam moments are float32, the nets' default
    uses_critics = recipe.critic is not None
    value_net = Mlp.initialized((obs_dim, *cfg.hidden, 1), cfg.activation,
                                rng_value) if uses_critics else None
    critics = [Mlp.initialized((obs_dim + 2, *cfg.hidden, 1), cfg.activation,
                               rng_q)
               for _ in range(cfg.n_critics if uses_critics else 0)]
    target_critics = [c.copy() for c in critics]
    mean_net = Mlp.initialized((obs_dim, *cfg.hidden, 2), cfg.activation,
                               rng_policy,
                               final_scale=GaussianPolicyHead.FINAL_SCALE)
    policy = GaussianPolicyHead(
        mean_net, action_scale,
        log_std=np.full(2, GaussianPolicyHead.LOG_STD_INIT))

    opt_value = AdamState.for_params(value_net.n_params, cfg.lr_value) \
        if uses_critics else None
    opt_critics = [AdamState.for_params(c.n_params, cfg.lr_critic)
                   for c in critics]
    opt_mean = AdamState.for_params(mean_net.n_params, cfg.lr_policy)
    opt_log_std = AdamState.for_params(2, cfg.lr_policy)

    critic_sampler = _sampler(recipe.critic, ds, cfg, child[3]) \
        if uses_critics else None
    policy_sampler = _sampler(recipe.policy, ds, cfg, child[4])

    report = TrainReport(method=cfg.method)
    result = TrainResult(profile, policy, value_net, critics, target_critics,
                         report)

    def guarded(phase: str, fn, *args):
        """``fn(*args)``, a numeric failure in it tagged with ``phase`` and
        the loop's current step."""
        try:
            return fn(*args)
        except NumericError as exc:
            raise NumericError(
                f"{phase} non-finite at step {step}: {exc}") from exc

    def loss(name: str, fn, *args):
        """A guarded loss computation whose loss, its first output, must
        be finite too."""
        out = guarded(f"{name} loss", fn, *args)
        if not math.isfinite(out[0]):
            raise NumericError(f"{name} loss non-finite at step {step}")
        return out

    # every update is in place, so these are the live parameter vectors
    traced = [mean_net.theta, policy.log_std, *(n.theta for n in (
        value_net, *critics, *target_critics) if n is not None)]
    records: list[tuple] = []  # one per step of the current epoch
    t_start = t_epoch = time.perf_counter()

    for step in range(1, cfg.total_steps + 1):
        loss_v = loss_q = grad_v = grad_q = n_col = 0
        if uses_critics:
            batch = critic_sampler.sample()
            n_col = batch.n_collision
            report.note_critic_batch(n_col)
            x_sa = critic_inputs(batch.features, batch.actions, action_scale)
            q_hat = guarded("target Q", min_target_q, target_critics, x_sa)

            loss_v, g_v = loss("value", value_loss_and_grad, value_net,
                               batch.features, q_hat, cfg.expectile)
            guarded("value update", adam_step, value_net.theta, g_v, opt_value)
            grad_v = _norm(g_v)

            y = guarded("TD target", td_targets, value_net, batch.rewards,
                        batch.next_features, batch.dones, cfg.gamma)
            loss_q, g_qs = loss("critic", critic_loss_and_grads, critics,
                                x_sa, y)
            grad_q = _norm(*g_qs)
            for c, g, opt in zip(critics, g_qs, opt_critics):
                guarded("critic update", adam_step, c.theta, g, opt)
            for c, t in zip(critics, target_critics):
                soft_update(t.theta, c.theta, cfg.target_alpha)

        pbatch = policy_sampler.sample()
        report.policy_collision_count += pbatch.n_collision
        if not uses_critics:
            adv = np.zeros(len(pbatch))
            w = np.ones(len(pbatch))
            loss_pi, g_mean, g_ls = loss("policy", bc_loss_and_grads, policy,
                                         pbatch)
        else:
            adv = guarded("advantage", advantages, target_critics, value_net,
                          pbatch.features, pbatch.actions, action_scale)
            if recipe.policy == "pooled":
                w = awr_weights(adv, cfg.weight_temp, cfg.max_weight)
                loss_pi, g_mean, g_ls = loss(
                    "policy", weighted_nll_and_grads, policy,
                    pbatch.features, pbatch.actions, w)
            else:
                loss_pi, g_mean, g_ls, w = loss(
                    "policy", awr_loss_and_grads, policy, pbatch, adv,
                    cfg.weight_temp, cfg.max_weight)
        guarded("policy update", adam_step, mean_net.theta, g_mean, opt_mean)
        guarded("policy update", adam_step, policy.log_std, g_ls, opt_log_std)

        records.append((loss_v, loss_q, loss_pi, grad_v, grad_q,
                        _norm(g_mean, g_ls), n_col, float(adv.mean()),
                        float(w.mean()), float(w.max())))
        if trace_params:
            result.param_trace.append(params_digest(*traced))

        if step % cfg.epoch_steps == 0 or step == cfg.total_steps:
            now = time.perf_counter()
            report.rows.append(EpochRow.of_steps(
                len(report.rows) + 1, step, records, now - t_epoch))
            t_epoch, records = now, []

    report.wall_clock = time.perf_counter() - t_start
    report.final_digest = params_digest(mean_net.theta, policy.log_std)
    if out_dir:  # made only now, so a failed run leaves no directory
        os.makedirs(out_dir, exist_ok=True)
        meta = {"step": cfg.total_steps, "profile": profile.to_dict(),
                "config": cfg.to_dict()}
        nets = {"policy_mean": mean_net, "policy_log_std": policy.log_std}
        save_checkpoint(os.path.join(out_dir, cfg.checkpoint_name), nets, meta)
        if uses_critics:
            nets["value"] = value_net
            for i, (c, t) in enumerate(zip(critics, target_critics)):
                nets |= {f"critic_{i}": c, f"target_critic_{i}": t}
        save_checkpoint(os.path.join(out_dir, "final.famlp"), nets, meta)
        with open(os.path.join(out_dir, "report.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return result
