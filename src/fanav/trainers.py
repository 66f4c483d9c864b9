"""Offline trainers: behavior cloning and three IQL variants.

The central method ("iql_ca") trains the value and critic networks on
stratified batches that mix success and collision transitions, while the
policy is extracted from success transitions only. Per step the update
order is fixed: value, critics, target blend, policy. The other methods are
controlled degenerations of the same loop:

* ``iql_so``  - identical loop with the collision ratio forced to zero and
  success-only batches everywhere.
* ``iql_dm``  - identical loop with every batch drawn uniformly from the
  pooled dataset, collision transitions reaching the policy loss included.
* ``bc``      - policy-only updates with unit weights.

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

from .errors import ConfigError, NumericError
from .data import (
    EncoderProfile,
    ExpSampler,
    OfflineDataset,
    PooledSampler,
    SamplerConfig,
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
    Section,
    adam_step,
    params_digest,
    save_checkpoint,
    soft_update,
)

METHODS = ("bc", "iql_so", "iql_dm", "iql_ca")


@dataclass(frozen=True)
class TrainerConfig:
    """Every knob of a training run, serialized alongside its artifacts.

    A run writes two checkpoints, both at ``total_steps``: the policy
    (``ckpt_<total_steps>.famlp``) and every network (``final.famlp``).
    """

    method: str = "iql_ca"
    expectile: float = 0.7          # tau of the value expectile regression
    gamma: float = 0.99
    weight_temp: float = 1.0        # beta of the advantage weights
    max_weight: float = 100.0
    rho: float = 0.015              # collision fraction of critic batches
    batch_size: int = 256
    lr_value: float = 3e-4
    lr_critic: float = 3e-4
    lr_policy: float = 3e-4
    target_alpha: float = 0.005
    n_critics: int = 2
    total_steps: int = 30_000
    epoch_steps: int = 1_000        # logging granularity
    seed: int = 0
    hidden: tuple[int, ...] = (128, 128)
    activation: str = "relu"
    log_std_min: float = -5.0
    log_std_max: float = 2.0
    log_std_init: float = -0.5
    policy_final_scale: float = 1e-2

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method '{self.method}'")
        if not (0.0 < self.expectile < 1.0):
            raise ConfigError("expectile must lie in (0, 1)")
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError("gamma must lie in [0, 1)")
        if self.weight_temp <= 0:
            raise ConfigError("weight_temp must be positive")
        if self.max_weight < 1.0:
            raise ConfigError("max_weight must be >= 1")
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError("rho must lie in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for key in ("lr_value", "lr_critic", "lr_policy"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive")
        if not (0.0 < self.target_alpha <= 1.0):
            raise ConfigError("target_alpha must lie in (0, 1]")
        if self.n_critics < 1:
            raise ConfigError("n_critics must be >= 1")
        if self.total_steps < 1 or self.epoch_steps < 1:
            raise ConfigError("step counts must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {list(ACTIVATIONS)}")
        if not self.log_std_min < self.log_std_max:
            raise ConfigError("log_std_min must be below log_std_max")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainerConfig":
        kwargs = dict(d)
        if "hidden" in kwargs:
            kwargs["hidden"] = tuple(int(h) for h in kwargs["hidden"])
        return cls(**kwargs)


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
        self.critic_col_min = n_col if self.critic_col_min is None \
            else min(self.critic_col_min, n_col)
        self.critic_col_max = n_col if self.critic_col_max is None \
            else max(self.critic_col_max, n_col)

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

    def checkpoint_sections(self, include_all: bool = False
                            ) -> dict[str, Section]:
        secs = {
            "policy_mean": Section(self.policy.mean_net.widths,
                                   self.policy.mean_net.activation,
                                   self.policy.mean_net.theta),
            "policy_log_std": Section((2,), "none", self.policy.log_std),
        }
        if include_all and self.value_net is not None:
            secs["value"] = Section(self.value_net.widths,
                                    self.value_net.activation,
                                    self.value_net.theta)
            for i, (c, t) in enumerate(zip(self.critics, self.target_critics)):
                secs[f"critic_{i}"] = Section(c.widths, c.activation, c.theta)
                secs[f"target_critic_{i}"] = Section(t.widths, t.activation,
                                                     t.theta)
        return secs


def checkpoint_meta(cfg: TrainerConfig, profile: EncoderProfile,
                    step: int) -> dict:
    return {"step": step, "profile": profile.to_dict(),
            "config": cfg.to_dict()}


def _sum_sq(vec: np.ndarray) -> float:
    v = vec.astype(np.float64)
    return float(v @ v)


def train(ds: OfflineDataset, cfg: TrainerConfig,
          out_dir: str | None = None,
          trace_params: bool = False) -> TrainResult:
    """Run one training job and return the trained networks plus report.

    ``trace_params`` records a digest of every network after each step,
    which the equivalence tests use to compare runs bit-for-bit.
    """
    if cfg.method == "iql_ca" and ds.n_col == 0:
        raise ConfigError("iql_ca needs a non-empty collision partition")
    if ds.n_exp == 0:
        raise ConfigError("empty success partition")

    profile = ds.profile
    action_scale = profile.action_scale
    obs_dim = profile.dim

    ss = np.random.SeedSequence(cfg.seed)
    child = ss.spawn(6)
    rng_value = np.random.default_rng(child[0])
    rng_q = np.random.default_rng(child[1])
    rng_policy = np.random.default_rng(child[2])
    seed_critic_sampler = child[3]
    seed_policy_sampler = child[4]
    # child[5] reserved so adding a stream later cannot shift existing ones

    # networks and Adam moments are float32, the nets' default
    value_net = Mlp.initialized((obs_dim, *cfg.hidden, 1), cfg.activation,
                                rng_value)
    critics = [Mlp.initialized((obs_dim + 2, *cfg.hidden, 1), cfg.activation,
                               rng_q)
               for _ in range(cfg.n_critics)]
    target_critics = [c.copy() for c in critics]
    mean_net = Mlp.initialized((obs_dim, *cfg.hidden, 2), cfg.activation,
                               rng_policy, final_scale=cfg.policy_final_scale)
    policy = GaussianPolicyHead(mean_net, action_scale,
                                log_std=np.full(2, cfg.log_std_init),
                                log_std_bounds=(cfg.log_std_min,
                                                cfg.log_std_max))

    opt_value = AdamState.for_params(value_net.n_params, cfg.lr_value)
    opt_critics = [AdamState.for_params(c.n_params, cfg.lr_critic)
                   for c in critics]
    opt_mean = AdamState.for_params(mean_net.n_params, cfg.lr_policy)
    opt_log_std = AdamState.for_params(2, cfg.lr_policy)

    uses_critics = cfg.method != "bc"
    rho = cfg.rho if cfg.method == "iql_ca" else 0.0
    if cfg.method == "iql_dm":
        critic_sampler = PooledSampler(ds, cfg.batch_size, seed_critic_sampler)
        policy_sampler = PooledSampler(ds, cfg.batch_size, seed_policy_sampler)
    else:
        critic_sampler = StratifiedSampler(
            ds, SamplerConfig(rho, cfg.batch_size, seed_critic_sampler)) \
            if uses_critics else None
        policy_sampler = ExpSampler(ds, cfg.batch_size, seed_policy_sampler)

    report = TrainReport(method=cfg.method)
    result = TrainResult(profile, policy,
                         value_net if uses_critics else None,
                         critics if uses_critics else [],
                         target_critics if uses_critics else [], report)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def guarded(name: str, step: int, fn):
        """Run a loss computation, tagging any numeric failure with its
        loss name and step index."""
        try:
            out = fn()
        except NumericError as exc:
            raise NumericError(
                f"{name} loss non-finite at step {step}: {exc}") from exc
        if not math.isfinite(out[0]):
            raise NumericError(f"{name} loss non-finite at step {step}")
        return out

    acc = _EpochAccumulator()
    t_start = time.perf_counter()
    t_epoch = t_start

    for step in range(1, cfg.total_steps + 1):
        if uses_critics:
            batch = critic_sampler.sample()
            report.note_critic_batch(batch.n_collision)
            x_sa = critic_inputs(batch.features, batch.actions, action_scale)
            q_hat = min_target_q(target_critics, x_sa)

            loss_v, g_v = guarded("value", step, lambda: value_loss_and_grad(
                value_net, batch.features, q_hat, cfg.expectile))
            adam_step(value_net.theta, g_v, opt_value)

            y = td_targets(value_net, batch.rewards, batch.next_features,
                           batch.dones, cfg.gamma)
            loss_q, g_qs = guarded("critic", step, lambda: critic_loss_and_grads(
                critics, x_sa, y))
            grad_q_sq = 0.0
            for c, g, opt in zip(critics, g_qs, opt_critics):
                grad_q_sq += _sum_sq(g)
                adam_step(c.theta, g, opt)
            for c, t in zip(critics, target_critics):
                soft_update(t.theta, c.theta, cfg.target_alpha)
        else:
            loss_v = loss_q = 0.0
            g_v = None
            grad_q_sq = 0.0

        pbatch = policy_sampler.sample()
        report.policy_collision_count += pbatch.n_collision
        if cfg.method == "bc":
            adv = np.zeros(len(pbatch))
            w = np.ones(len(pbatch))
            loss_pi, g_mean, g_ls = guarded(
                "policy", step, lambda: bc_loss_and_grads(policy, pbatch))
        elif cfg.method == "iql_dm":
            adv = advantages(target_critics, value_net, pbatch.features,
                             pbatch.actions, action_scale)
            w = awr_weights(adv, cfg.weight_temp, cfg.max_weight)
            loss_pi, g_mean, g_ls = guarded(
                "policy", step, lambda: weighted_nll_and_grads(
                    policy, pbatch.features, pbatch.actions, w))
        else:
            adv = advantages(target_critics, value_net, pbatch.features,
                             pbatch.actions, action_scale)
            loss_pi, g_mean, g_ls, w = guarded(
                "policy", step, lambda: awr_loss_and_grads(
                    policy, pbatch, adv, cfg.weight_temp, cfg.max_weight))
        adam_step(mean_net.theta, g_mean, opt_mean)
        adam_step(policy.log_std, g_ls, opt_log_std)

        acc.add(loss_v, loss_q, loss_pi,
                _sum_sq(g_v) if g_v is not None else 0.0, grad_q_sq,
                _sum_sq(g_mean) + _sum_sq(g_ls),
                batch.n_collision if uses_critics else 0,
                float(adv.mean()), float(w.mean()), float(w.max()))

        if trace_params:
            nets = [mean_net.theta, policy.log_std]
            if uses_critics:
                nets += [value_net.theta] + [c.theta for c in critics] \
                    + [t.theta for t in target_critics]
            result.param_trace.append(params_digest(*nets))

        if step % cfg.epoch_steps == 0 or step == cfg.total_steps:
            now = time.perf_counter()
            report.rows.append(acc.to_row(
                epoch=(step + cfg.epoch_steps - 1) // cfg.epoch_steps,
                step=step, seconds=now - t_epoch))
            t_epoch = now
            acc = _EpochAccumulator()

    report.wall_clock = time.perf_counter() - t_start
    report.final_digest = params_digest(mean_net.theta, policy.log_std)
    if out_dir:
        meta = checkpoint_meta(cfg, profile, cfg.total_steps)
        save_checkpoint(
            os.path.join(out_dir, f"ckpt_{cfg.total_steps:08d}.famlp"),
            result.checkpoint_sections(), meta)
        save_checkpoint(os.path.join(out_dir, "final.famlp"),
                        result.checkpoint_sections(include_all=True), meta)
        with open(os.path.join(out_dir, "report.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return result


class _EpochAccumulator:
    def __init__(self):
        self.n = 0
        self.sums = np.zeros(8, dtype=np.float64)
        self.col = 0
        self.w_max = 0.0

    def add(self, lv, lq, lp, gv_sq, gq_sq, gp_sq, n_col, adv_mean, w_mean,
            w_max):
        self.n += 1
        self.sums += (lv, lq, lp, math.sqrt(gv_sq), math.sqrt(gq_sq),
                      math.sqrt(gp_sq), adv_mean, w_mean)
        self.col += n_col
        self.w_max = max(self.w_max, w_max)

    def to_row(self, epoch: int, step: int, seconds: float) -> EpochRow:
        n = max(1, self.n)
        s = self.sums / n
        return EpochRow(epoch, step, s[0], s[1], s[2], s[3], s[4], s[5],
                        self.col, s[6], s[7], self.w_max, seconds)
