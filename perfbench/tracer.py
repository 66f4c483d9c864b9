"""Span tracer that wraps fanav's public functions from the benchmark's side.

A name is patched where its caller looks it up, not where it is defined:
``trainers`` binds the ``losses``/``nets`` functions at import, ``cli`` binds
the stage functions, and ``sim``/``expert`` each bind
``segment_shape_distance``. Patching ``fanav.losses.advantages`` alone would
miss every call the training loop makes, so ``fanav.trainers.advantages`` is
wrapped as well.

Spans nest on one stack. When a span closes, its duration is charged to its
parent as child time, so a span's *self* time is its duration minus the time
its child spans cover. Spans are folded into per-name aggregates as they
close (calls, self seconds, inclusive seconds, and the per-call self times of
the names that report a percentile); a traced repeat makes one span per
shape test, too many to keep each record.

The layer -> end-to-end prediction table each per-layer metric serves is in
workloads.py, beside the workload definitions.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from fanav import cli, data, evaluation, expert, losses, nets, sim, trainers

METHODS = trainers.METHODS
PHASES = ("sample", "value", "critic", "target", "policy", "adam", "loop")
WORLDS = ("sparse", "cluttered", "dense")
STAGES = ("collect", "suites", "train", "eval", "compare")
# cmd_pipeline announces stage k of 5 with a line starting "[k/5]"
BANNERS = {f"[{k}/5]": stage for k, stage in enumerate(STAGES, start=1)}

LOSSES = ("value_loss_and_grad", "critic_loss_and_grads", "td_targets",
          "min_target_q", "advantages", "awr_loss_and_grads",
          "weighted_nll_and_grads", "bc_loss_and_grads", "critic_inputs",
          "awr_weights")
# helpers that advantages / awr_loss_and_grads / bc_loss_and_grads call
# through the losses module itself
LOSS_HELPERS = ("min_target_q", "critic_inputs", "awr_weights",
                "weighted_nll_and_grads")

# phase of a span that is a direct child of train(); the rest is "loop"
PHASE_OF = {
    "data.sample": "sample",
    "losses.value_loss_and_grad": "value",
    "losses.critic_inputs": "critic",
    "losses.td_targets": "critic",
    "losses.critic_loss_and_grads": "critic",
    "losses.min_target_q": "target",
    "nets.soft_update": "target",
    "losses.advantages": "policy",
    "losses.awr_weights": "policy",
    "losses.awr_loss_and_grads": "policy",
    "losses.weighted_nll_and_grads": "policy",
    "losses.bc_loss_and_grads": "policy",
    "nets.adam_step": "adam",
    "nets.save_checkpoint": "io",  # left out of the phase shares
}

# names that keep per-call self times for a percentile
SAMPLED = {"sim.raycast", "sim.step_env", "expert.run_episode",
           "expert.plan_path", "expert.expert_action", "data.encode_state",
           "data.sample", "nets.forward", "nets.adam_step", "nets.mean_action",
           "evaluation.rollout", "evaluation.act"}

# span names each workload must reach; a call site that moves makes the
# traced run fail here instead of reporting 0
REACHED = {
    "collect": ("sim.raycast", "sim.step_env", "geometry.shape_test.sim",
                "geometry.shape_test.expert", "geometry.ray_kernels",
                "expert.collect_to_ratio", "expert.run_episode",
                "expert.plan_path", "expert.occupancy_grid",
                "expert.expert_action", "data.encode_state",
                "data.build_dataset", "data.save_dataset",
                "data.load_dataset"),
    "train": ("trainers.train", "data.sample", "nets.forward",
              "nets.backward", "nets.adam_step", "nets.soft_update",
              *(f"losses.{name}" for name in LOSSES)),
    "eval": ("evaluation.evaluate_suite", "evaluation.rollout",
             "evaluation.act", "nets.mean_action", "nets.forward",
             "data.encode_state", "sim.raycast", "sim.step_env",
             "geometry.shape_test.sim", "geometry.ray_kernels"),
}
REACHED["pipeline"] = tuple(sorted(
    set(REACHED["collect"]) - {"data.load_dataset"}
    | set(REACHED["train"]) | set(REACHED["eval"])
    | {"cli.main", "evaluation.make_suite", "evaluation.export_trajectories",
       "nets.save_checkpoint", "nets.load_checkpoint",
       *(f"cli.stage.{s}" for s in STAGES)}))


class Tracer:
    """Records nested spans around the callables it patches, from install()
    until uninstall()."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child_s, method, t0]
        self._patches: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.phase_s: dict[tuple[str, str], float] = defaultdict(float)
        self.step_ms: dict[str, list[float]] = defaultdict(list)
        self.draws: list[float] = []  # start of each sample span in train()
        self.world_s: dict[str, float] = defaultdict(float)
        self.world_steps: dict[str, int] = defaultdict(int)

    # -- spans --------------------------------------------------------------

    def open(self, name: str, method: str | None = None) -> list:
        frame = [name, 0.0, method, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        dur = time.perf_counter() - frame[3]
        if self.stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name = frame[0]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        if name in SAMPLED:
            self.samples[name].append(dur - frame[1])
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dur
            if parent[2] is not None:  # direct child of a train() span
                self.phase_s[(parent[2], PHASE_OF.get(name, "loop"))] += dur
                if name == "data.sample":
                    self.draws.append(frame[3])
        return dur

    def span(self, name: str, fn, post=None):
        """Wrap ``fn`` in a span; ``post(args, kwargs, result)`` counts."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, post=None) -> None:
        self.replace(owner, attr, self.span(name, getattr(owner, attr), post))

    def replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- instrumentation ----------------------------------------------------

    def install(self) -> None:
        """Patch every traced name in the module where it is looked up."""
        c = self.counts
        p = self.patch

        # sim and geometry
        p(sim, "raycast", "sim.raycast")
        p(sim, "step_env", "sim.step_env", self._count_env_step)
        p(sim, "segment_shape_distance", "geometry.shape_test.sim")
        p(expert, "segment_shape_distance", "geometry.shape_test.expert")
        for kernel in ("ray_box_exit", "ray_circles", "ray_rects"):
            p(sim, kernel, "geometry.ray_kernels")

        # expert
        def episode(args, kwargs, traj):
            if traj is None:
                c["expert.dead_ends"] += 1
            else:
                c["expert.simulated"] += len(traj)

        def kept(args, kwargs, trajs):
            c["expert.kept"] += sum(len(t) for t in trajs)

        p(expert, "run_episode", "expert.run_episode", episode)
        for owner in (expert, evaluation):
            p(owner, "plan_path", "expert.plan_path")
        p(expert, "occupancy_grid", "expert.occupancy_grid")
        p(expert, "expert_action", "expert.expert_action")
        for owner in (expert, cli):
            p(owner, "collect_to_ratio", "expert.collect_to_ratio", kept)

        # data
        def saved(args, kwargs, result):
            c["data.save_dataset.bytes"] += os.path.getsize(args[1])

        def loaded(args, kwargs, result):
            c["data.load_dataset.bytes"] += os.path.getsize(args[0])

        def gathered(args, kwargs, batch):
            c["data.sample.bytes"] += sum(
                a.nbytes for a in (batch.features, batch.actions,
                                   batch.rewards, batch.next_features,
                                   batch.dones, batch.collision_mask))

        for owner in (data, evaluation):
            p(owner, "encode_state", "data.encode_state")
        for owner in (data, cli):
            p(owner, "build_dataset", "data.build_dataset")
            p(owner, "save_dataset", "data.save_dataset", saved)
            p(owner, "load_dataset", "data.load_dataset", loaded)
        for cls in (data.StratifiedSampler, data.ExpSampler,
                    data.PooledSampler):
            p(cls, "sample", "data.sample", gathered)

        # nets: flops are the matmuls' multiply-adds times two
        def forward(args, kwargs, result):
            net, x = args[0], np.asarray(args[1])
            rows = 1 if x.ndim == 1 else x.shape[0]
            c["nets.forward.rows"] += rows
            c["nets.flop"] += 2 * rows * _macs(net.widths)

        def backward(args, kwargs, result):
            net, cache = args[0], args[1]
            need_dx = kwargs.get("need_dx", len(args) > 3 and args[3])
            rows = cache["inputs"][0].shape[0]
            # a_in.T @ delta in every layer; delta @ W.T in all but the first
            # layer unless dx is requested
            first = 0 if need_dx else net.widths[0] * net.widths[1]
            c["nets.flop"] += 2 * rows * (2 * _macs(net.widths) - first)

        p(nets.Mlp, "forward", "nets.forward", forward)
        p(nets.Mlp, "forward_cached", "nets.forward", forward)
        p(nets.Mlp, "backward", "nets.backward", backward)
        p(nets.GaussianPolicyHead, "mean_action", "nets.mean_action")
        p(trainers, "adam_step", "nets.adam_step")
        p(trainers, "soft_update", "nets.soft_update")
        p(trainers, "save_checkpoint", "nets.save_checkpoint")
        p(evaluation, "load_checkpoint", "nets.load_checkpoint")

        # losses
        for name in LOSSES:
            p(trainers, name, f"losses.{name}")
        for name in LOSS_HELPERS:
            p(losses, name, f"losses.{name}")

        # trainers, evaluation and cli spans that carry extra bookkeeping
        for owner in (trainers, cli):
            self._patch_train(owner)
        for owner in (evaluation, cli):
            self._patch_evaluate_suite(owner)
        p(evaluation, "rollout", "evaluation.rollout")
        p(evaluation.NetworkPolicy, "act", "evaluation.act")
        for owner in (evaluation, cli):
            p(owner, "make_suite", "evaluation.make_suite")
        p(cli, "export_trajectories", "evaluation.export_trajectories")
        self._patch_cli()

    def _count_env_step(self, args, kwargs, result) -> None:
        if any(f[0] == "evaluation.evaluate_suite" for f in self.stack):
            self.counts["evaluation.env_steps"] += 1

    def _patch_train(self, owner) -> None:
        """One span per train() call, tagged with its method so that its
        direct children are charged to that method's phases. A step draws
        the same number of batches every time, so every k-th draw starts a
        step and the gaps between them are step times."""
        tracer, original = self, owner.train

        def train(ds, cfg, *args, **kwargs):
            tracer.draws.clear()
            frame = tracer.open("trainers.train", method=cfg.method)
            try:
                result = original(ds, cfg, *args, **kwargs)
            finally:
                tracer.phase_s[(cfg.method, "total")] += tracer.close(frame)
            per_step = len(tracer.draws) // cfg.total_steps
            tracer.step_ms[cfg.method] += list(
                1e3 * np.diff(tracer.draws[::per_step]))
            return result

        self.replace(owner, "train", train)

    def _patch_evaluate_suite(self, owner) -> None:
        tracer, original = self, owner.evaluate_suite

        def evaluate_suite(policy, world, *args, **kwargs):
            before = tracer.counts["evaluation.env_steps"]
            frame = tracer.open("evaluation.evaluate_suite")
            try:
                result = original(policy, world, *args, **kwargs)
            finally:
                tracer.world_s[world.name] += tracer.close(frame)
            tracer.world_steps[world.name] += int(
                tracer.counts["evaluation.env_steps"] - before)
            return result

        self.replace(owner, "evaluate_suite", evaluate_suite)

    def _patch_cli(self) -> None:
        """One span per main() call and one per pipeline stage; a stage runs
        from its banner line to the next banner or the end of main()."""
        tracer, original_main = self, cli.main
        stage: list[list] = []

        def close_stage() -> None:
            if stage:
                tracer.close(stage.pop())

        def banner_print(*args, **kwargs):
            if args and str(args[0])[:5] in BANNERS:
                close_stage()
                stage.append(tracer.open(
                    f"cli.stage.{BANNERS[str(args[0])[:5]]}"))
            print(*args, **kwargs)

        def main(argv=None):
            frame = tracer.open("cli.main")
            cpu0 = _tree_cpu_s()
            try:
                return original_main(argv)
            finally:
                close_stage()
                tracer.counts["cli.wall_s"] += tracer.close(frame)
                tracer.counts["cli.cpu_s"] += _tree_cpu_s() - cpu0

        self.replace(cli, "main", main)
        # cli looks print up in its module globals before the builtins
        self.replace(cli, "print", banner_print)


def _macs(widths: tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(widths, widths[1:]))


def _tree_cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _p50(values: list[float], scale: float) -> float:
    return float(np.median(values)) * scale if values else 0.0


def layer_metrics(t: Tracer, artifact_mb: float = 0.0) -> dict:
    """Per-layer metrics of one traced repeat, as name -> (value, unit).

    Every name is reported on every workload; a layer the workload does not
    reach reads 0.
    """
    calls, self_s, total_s, s, c = (t.calls, t.self_s, t.total_s, t.samples,
                                    t.counts)
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    for name in ("sim.raycast", "sim.step_env"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_s[name], "s")
        put(f"{name}.self_us.p50", _p50(s[name], 1e6), "us")

    tests_sim = calls["geometry.shape_test.sim"]
    put("geometry.shape_tests.sim", tests_sim, "count")
    put("geometry.shape_tests.expert", calls["geometry.shape_test.expert"],
        "count")
    put("geometry.shape_tests_per_step",
        tests_sim / calls["sim.step_env"] if calls["sim.step_env"] else 0.0,
        "tests/step")
    put("geometry.segment_shape_distance.self_s",
        self_s["geometry.shape_test.sim"]
        + self_s["geometry.shape_test.expert"], "s")
    put("geometry.ray_kernels.self_s", self_s["geometry.ray_kernels"], "s")

    put("expert.run_episode.calls", calls["expert.run_episode"], "count")
    put("expert.run_episode.self_ms.p50",
        _p50(s["expert.run_episode"], 1e3), "ms")
    put("expert.plan_path.calls", calls["expert.plan_path"], "count")
    put("expert.plan_path.self_s", self_s["expert.plan_path"], "s")
    put("expert.plan_path.self_ms.p50", _p50(s["expert.plan_path"], 1e3), "ms")
    put("expert.occupancy_grid.calls", calls["expert.occupancy_grid"], "count")
    put("expert.occupancy_grid.self_s", self_s["expert.occupancy_grid"], "s")
    put("expert.expert_action.calls", calls["expert.expert_action"], "count")
    put("expert.expert_action.self_us.p50",
        _p50(s["expert.expert_action"], 1e6), "us")
    simulated = c["expert.simulated"]
    put("expert.kept_ratio",
        c["expert.kept"] / simulated if simulated else 0.0, "ratio")
    episodes = calls["expert.run_episode"]
    put("expert.dead_end_ratio",
        c["expert.dead_ends"] / episodes if episodes else 0.0, "ratio")

    put("data.encode_state.calls", calls["data.encode_state"], "count")
    put("data.encode_state.self_us.p50", _p50(s["data.encode_state"], 1e6),
        "us")
    put("data.build_dataset.s", total_s["data.build_dataset"], "s")
    for io in ("save_dataset", "load_dataset"):
        secs = total_s[f"data.{io}"]
        put(f"data.{io}.s", secs, "s")
        put(f"data.{io}.mb_per_s",
            c[f"data.{io}.bytes"] / 1e6 / secs if secs else 0.0, "MB/s")
    put("data.sample.calls", calls["data.sample"], "count")
    put("data.sample.self_s", self_s["data.sample"], "s")
    put("data.sample.self_us.p50", _p50(s["data.sample"], 1e6), "us")
    put("data.sample.mb", c["data.sample.bytes"] / 1e6, "MB")

    put("nets.forward.calls", calls["nets.forward"], "count")
    put("nets.forward.rows", c["nets.forward.rows"], "count")
    put("nets.forward.self_s", self_s["nets.forward"], "s")
    put("nets.forward.self_us.p50", _p50(s["nets.forward"], 1e6), "us")
    put("nets.backward.calls", calls["nets.backward"], "count")
    put("nets.backward.self_s", self_s["nets.backward"], "s")
    put("nets.gflop", c["nets.flop"] / 1e9, "GFLOP")
    matmul_s = self_s["nets.forward"] + self_s["nets.backward"]
    put("nets.gflops_per_s", c["nets.flop"] / 1e9 / matmul_s if matmul_s
        else 0.0, "GFLOP/s")
    put("nets.adam_step.calls", calls["nets.adam_step"], "count")
    put("nets.adam_step.self_s", self_s["nets.adam_step"], "s")
    put("nets.adam_step.self_us.p50", _p50(s["nets.adam_step"], 1e6), "us")
    put("nets.soft_update.calls", calls["nets.soft_update"], "count")
    put("nets.soft_update.self_s", self_s["nets.soft_update"], "s")
    put("nets.mean_action.self_us.p50", _p50(s["nets.mean_action"], 1e6), "us")
    put("nets.save_checkpoint.s", total_s["nets.save_checkpoint"], "s")
    put("nets.load_checkpoint.s", total_s["nets.load_checkpoint"], "s")

    for name in LOSSES:
        put(f"losses.{name}.self_s", self_s[f"losses.{name}"], "s")

    for method in METHODS:
        put(f"trainers.{method}.step_ms.p50", _p50(t.step_ms[method], 1.0),
            "ms")
        # shares of the train() span, checkpoint writes left out
        busy = t.phase_s[(method, "total")] - t.phase_s[(method, "io")]
        named = sum(t.phase_s[(method, ph)] for ph in PHASES[:-1])
        for ph in PHASES:
            secs = busy - named if ph == "loop" else t.phase_s[(method, ph)]
            put(f"trainers.{method}.phase.{ph}_share",
                secs / busy if busy > 0 else 0.0, "ratio")

    put("evaluation.rollout.calls", calls["evaluation.rollout"], "count")
    put("evaluation.rollout.self_ms.p50", _p50(s["evaluation.rollout"], 1e3),
        "ms")
    put("evaluation.act.calls", calls["evaluation.act"], "count")
    put("evaluation.act.self_us.p50", _p50(s["evaluation.act"], 1e6), "us")
    put("evaluation.env_steps", c["evaluation.env_steps"], "count")
    for world in WORLDS:
        secs = t.world_s[world]
        put(f"evaluation.env_steps_per_s.{world}",
            t.world_steps[world] / secs if secs else 0.0, "1/s")
    put("evaluation.make_suite.s", total_s["evaluation.make_suite"], "s")
    put("evaluation.export_trajectories.s",
        total_s["evaluation.export_trajectories"], "s")

    for stage in STAGES:
        put(f"cli.stage.{stage}_s", total_s[f"cli.stage.{stage}"], "s")
    put("cli.self_s", self_s["cli.main"], "s")
    wall = c["cli.wall_s"]
    put("cli.cpu_per_wall", c["cli.cpu_s"] / wall if wall else 0.0, "ratio")
    put("cli.artifact_mb", artifact_mb, "MB")
    return m


# metrics that count work and must repeat exactly between traced repeats
def exact_names(metrics: dict) -> list[str]:
    return [n for n in metrics
            if n.endswith(".calls") or n.startswith("geometry.shape_tests.")
            or n in ("nets.forward.rows", "nets.gflop",
                     "evaluation.env_steps")]
