"""The benchmark's four workloads, built from desk.toml through fanav's CLI
config resolution.

fanav is a batch system, so each workload does a fixed amount of work per
repeat and reports throughput at a stated input size. Every input is derived
from the workload seed; the program receives only the generated inputs. Each
workload reduces the desk profile with ``--set`` pairs, resolved by
``fanav.cli.resolve_config`` exactly as ``fanav --config desk.toml --set ...``
would resolve them; everything else (robot, episode, expert, trainer hidden
128x128, batch 256, float32, 2 critics, eval suites and jitter) is
desk.toml's.

A repeat records its checks as operations: an operation fails on an
exception or on a violated invariant. Every repeat of a run does the same
work on the same inputs, so repeats are comparable and their output digests
must agree.

Layer -> end-to-end prediction. Each layer's per-layer metrics (tracer.py)
should move the named end-to-end figures on the named workloads, and should
not move the workloads in the last column:

========== ==================================================== ==============
layer      should move                                          should not
========== ==================================================== ==============
sim        transitions_per_s (collect); env_steps_per_s,        train
           episode_ms.* (eval)
geometry   same as sim; a prefilter lowers shape_tests_per_step train
           most on dense
expert     transitions_per_s, episode_ms.* (collect);           eval, train
           pipeline_s
data       samplers -> grad_steps_per_s (train); encode ->      --
           env_steps_per_s (eval); build/IO ->
           transitions_per_s (collect), pipeline_s
nets       B=256 forward/backward, Adam, soft update ->         collect
           grad_steps_per_s, step_ms.* (train); B=1 forward ->
           env_steps_per_s (eval); checkpoint I/O -> pipeline_s
losses     grad_steps_per_s, step_ms.iql_ca.* (train)           collect, eval
trainers   grad_steps_per_s, step_ms.* (train)                  collect, eval
evaluation env_steps_per_s, episode_ms.* (eval); pipeline_s     train, collect
cli        pipeline_s only; job parallelism raises cpu_per_wall collect, train,
           and lowers stage.train_s / stage.eval_s; with 2 cores eval
           and 4 unequal train jobs the slowest job bounds the gain
========== ==================================================== ==============

Each workload's ``items_per_s`` is the benchmark-level form of the figure
named first in its row: transitions_per_s (collect), grad_steps_per_s
(train), env_steps_per_s (eval) and pipeline runs per second (pipeline).
It is timed piece by piece (Workload.rate), because on a shared 2-core
Xeon VM spells of interference stretch whole repeats by 10-40%.

BENCHMARK.json lists train and pipeline; collect and eval run on request
and in ``--workload all``. On a 2-core Xeon VM, collect's throughput moved
most with the host's load: over two batches of ten seeds its median fell
22% and its run-to-run IQR/median reached 0.31, while its 4 ms set-up moved
27%, so it could not hold a 25% bound on unchanged code. eval's set-up (a
trained policy and three suites) and three ~10 s repeats cost about a
minute a run, more than the time budget for all runs of all workloads
(about an hour) leaves. pipeline reaches every sim, geometry, expert and
evaluation layer (collection is ~20% of its time).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from fanav import cli, data, evaluation, expert, trainers
from fanav.data import OfflineDataset, TransitionBlock

PIECE_S = 0.25  # rough length of a piece of a repeat's wall (Workload.rate)

# Smallest collection size at which collect_to_ratio meets desk's ratio_tol
# (0.01) on every seed tried (0-59); at 3000 transitions seed 20 misses it,
# because whole trajectories cannot be trimmed finely enough.
MIN_TRANSITIONS = 4000


@dataclass
class Repeat:
    """One repeat's output: the work done, its digest and its latencies.

    Each latency series times consecutive, non-overlapping parts of the
    repeat (episodes, train steps, the spans between the pipeline's lines
    of output).
    """

    wall_s: float
    items: int
    digest: str
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)

    def parts_s(self) -> list[float]:
        """The wall time split into the timed parts plus the rest."""
        parts = [ms / 1e3 for key in sorted(self.latencies_ms)
                 for ms in self.latencies_ms[key]]
        return parts + [self.wall_s - sum(parts)]


class Ledger:
    """Counts attempted operations and records the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")


class Workload:
    """Set-up builds the inputs; a repeat does one fixed unit of work."""

    name = ""
    why = ""
    item = ""      # unit of items_per_s
    sets: tuple[str, ...] = ()

    def __init__(self, root: str, work_dir: str, seed: int):
        self.root = root
        self.work = work_dir
        self.seed = seed
        self.in_process = False  # pipeline: run cli.main in this process

    def install_clocks(self) -> None:
        """Install the per-episode or per-step clock of untraced runs."""

    def resolve(self) -> None:
        tree = cli.resolve_config(os.path.join(self.root, "desk.toml"),
                                  list(self.sets))
        self.tree = tree
        self.config_digest = hashlib.sha256(json.dumps(
            {k: v for k, v in tree.items() if not k.startswith("_")},
            sort_keys=True).encode()).hexdigest()
        self.spec = cli.robot_spec_from(tree)
        self.episode = cli.episode_from(tree)
        self.expert = cli.expert_from(tree)
        self.collect_world = cli.resolve_world(
            str(tree["pipeline"]["collect_world"]))
        self.profile = data.EncoderProfile.from_world_spec(self.collect_world,
                                                           self.spec)

    def collect(self, seed: int) -> list:
        c = self.tree["collect"]
        return expert.collect_to_ratio(
            self.collect_world, self.spec, self.episode, self.expert,
            min_transitions=int(c["min_transitions"]),
            target_col_ratio=float(c["target_col_ratio"]), seed=seed,
            ratio_tol=float(c["ratio_tol"]))

    def setup(self) -> str:
        """Build the inputs; returns their digest."""
        raise NotImplementedError

    def repeat(self, ledger: Ledger) -> Repeat:
        """One unit of work on the set-up's inputs."""
        raise NotImplementedError

    def rate(self, repeats: list[Repeat]) -> float:
        """Items per second of one repeat, timed piece by piece.

        Every repeat does the same work, so their walls split into the same
        timed parts (Repeat.parts_s), which join into pieces of about
        PIECE_S; each piece counts with its least time over the repeats.
        Interference from other tenants only adds time, and on a shared
        2-core Xeon VM it came in spells of up to a minute: three repeats
        of one pipeline in one run took 16.1, 15.8 and 11.2 s. A median
        over repeats follows such a spell; the least time of each piece
        does not, while a change that speeds up the work moves every piece.
        """
        parts = [r.parts_s() for r in repeats]
        if len({len(p) for p in parts}) != 1:
            raise RuntimeError("repeats split into different numbers of "
                               "parts")
        # consecutive parts join into pieces of about PIECE_S in the first
        # repeat, so that a piece's least time is not one lucky step
        piece = (np.cumsum(parts[0]) // PIECE_S).astype(int)
        starts = np.flatnonzero(np.diff(piece, prepend=-1))
        pieces = np.add.reduceat(np.array(parts), starts, axis=1)
        return repeats[0].items / float(pieces.min(axis=0).sum())

    def summary(self, repeats: list[Repeat]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures, printed as metric lines."""
        return {}


def dataset_digest(ds: OfflineDataset) -> str:
    """Digest of every array of both partitions (fanav's own header digest
    covers only the metadata and the counts)."""
    h = hashlib.sha256()
    for block in (ds.exp, ds.col):
        for arr in (block.features, block.actions, block.rewards,
                    block.next_features, block.dones, block.traj_ids,
                    block.step_ids):
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def joined(repeats: list[Repeat], key: str) -> list[float]:
    """One latency series over every repeat of a run."""
    return [x for r in repeats for x in r.latencies_ms[key]]


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class EpisodeClock:
    """Times each call of a function, for per-episode latency.

    Installed only in untraced runs, in place of the tracer; it costs two
    clock reads per episode.
    """

    def __init__(self, owner, attr: str):
        original = getattr(owner, attr)
        self.ms: list[float] = []

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.ms.append(1e3 * (time.perf_counter() - t0))

        setattr(owner, attr, timed)

    def take(self) -> list[float]:
        ms, self.ms = self.ms, []
        return ms


class StepClock:
    """Notes the time of every minibatch draw, for per-step latency.

    train() draws the same number of batches in every step (the critic
    batch, if any, then the policy batch), so every k-th draw starts a step
    and the gaps between them are step times; train()'s own per-epoch timer
    is left at desk's epoch length. Installed only in untraced runs; it
    costs one clock read per draw.
    """

    def __init__(self):
        self.stamps: list[float] = []
        for cls in (data.StratifiedSampler, data.ExpSampler,
                    data.PooledSampler):
            self._wrap(cls)

    def _wrap(self, cls) -> None:
        original, stamps = cls.sample, self.stamps

        def sample(sampler, *args, **kwargs):
            stamps.append(time.perf_counter())
            return original(sampler, *args, **kwargs)

        cls.sample = sample

    def take(self, total_steps: int) -> list[float]:
        """Step times in ms of the train() call since the last take."""
        stamps = self.stamps[:]
        self.stamps.clear()
        per_step = len(stamps) // total_steps
        if per_step * total_steps != len(stamps):
            raise RuntimeError(f"{len(stamps)} draws in {total_steps} steps")
        return list(1e3 * np.diff(stamps[::per_step]))


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------

class Collect(Workload):
    # sim, geometry and expert (raycast, swept-disk collision, A*,
    # shortcutting, pure pursuit) do almost all the work and nets/losses do
    # none, so a trainer change must read "no change" here.
    name = "collect"
    why = ("collect_to_ratio on cluttered plus dataset build/save/load: "
           "sim, geometry and expert do the work, nets and losses none")
    item = "kept transitions"
    sets = (f"collect.min_transitions={MIN_TRANSITIONS}",)
    clock = None

    def install_clocks(self) -> None:
        self.clock = EpisodeClock(expert, "run_episode")

    def setup(self) -> str:
        self.resolve()
        # warm-up at a cost that does not depend on the seed: the planner's
        # occupancy grid, as every plan builds it
        expert.occupancy_grid(self.collect_world, self.spec.radius
                              + self.expert.plan_inflation)
        return self.config_digest

    def repeat(self, ledger: Ledger) -> Repeat:
        path = os.path.join(self.work, "collect.fanav")
        c = self.tree["collect"]
        t0 = time.perf_counter()
        trajs = self.collect(self.seed)
        ds = data.build_dataset(trajs, self.profile, self.episode,
                                meta={"world": self.collect_world.name,
                                      "seed": self.seed})
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        wall = time.perf_counter() - t0
        os.remove(path)

        problems = []
        target, tol = float(c["target_col_ratio"]), float(c["ratio_tol"])
        if abs(ds.collision_ratio - target) > tol:
            problems.append(f"collision ratio {ds.collision_ratio:.4f} not "
                            f"within {tol} of {target}")
        if ds.n_total < int(c["min_transitions"]):
            problems.append(f"{ds.n_total} < {c['min_transitions']} "
                            "transitions")
        audit = data.audit_rewards(ds, self.episode)
        if not audit < 1e-6:
            problems.append(f"reward audit error {audit:.3g}")
        if not (loaded.exp.equals(ds.exp) and loaded.col.equals(ds.col)
                and loaded.profile == ds.profile and loaded.meta == ds.meta):
            problems.append("loaded dataset differs from the built one")
        ledger.op("collect", problems)
        episodes = self.clock.take() if self.clock else []
        return Repeat(wall, ds.n_total, dataset_digest(ds),
                      {"episode": episodes})

    def summary(self, repeats):
        ms = joined(repeats, "episode")
        return {"transitions_per_s": (self.rate(repeats), "transitions/s"),
                "episode_ms.p50": (percentile(ms, 50), "ms"),
                "episode_ms.p90": (percentile(ms, 90), "ms"),
                "episodes": (len(ms), "count")}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_ROWS = 20_000
TRAIN_STEPS = 100
TRAJ_LEN = 100  # rows per synthetic trajectory


def synthetic_dataset(profile: data.EncoderProfile, episode, rows: int,
                      col_ratio: float, seed: int) -> OfflineDataset:
    """A dataset of ``rows`` rows drawn from ``seed``, laid out as
    build_dataset lays out collected data.

    Features lie in the encoder's ranges (scan and goal distance in [0, 1],
    bearing and velocities in [-1, 1]), actions inside the action box, and
    each block is cut into trajectories of TRAJ_LEN rows whose last row is
    terminal with the episode's terminal reward. A train step costs the same
    on any data of this shape, and drawing the rows costs the same on every
    seed.
    """
    rng = np.random.default_rng(seed)
    scale = np.array([profile.v_max, profile.omega_max], np.float32)

    def block(n: int, terminal: float, first_traj: int) -> TransitionBlock:
        states = rng.random((n + 1, profile.dim), dtype=np.float32)
        signed = states[:, profile.beam_count + 1:]
        signed *= 2
        signed -= 1
        step_ids = np.arange(n, dtype=np.int32) % TRAJ_LEN
        dones = (step_ids == TRAJ_LEN - 1) | (np.arange(n) == n - 1)
        rewards = rng.uniform(-0.1, 0.1, n).astype(np.float32)
        rewards[dones] = terminal
        actions = (rng.uniform(-0.95, 0.95, (n, 2)) * scale).astype(np.float32)
        return TransitionBlock(states[:-1].copy(), actions, rewards,
                               states[1:].copy(), dones.astype(np.uint8),
                               first_traj + np.arange(n) // TRAJ_LEN,
                               step_ids)

    n_col = data.round_half_up(col_ratio * rows)
    n_exp = rows - n_col
    return OfflineDataset(
        block(n_exp, episode.r_success, 0),
        block(n_col, episode.r_collision, -(-n_exp // TRAJ_LEN)),
        profile, {"synthetic_seed": seed})


class Train(Workload):
    # nets, losses, trainers and the data samplers do all the work and sim
    # none. The methods are reported apart, so a critic-path change (iql_*)
    # shows apart from the policy-only path (bc). The dataset is kept well
    # above the 4 MiB L2 (20k rows, ~18 MB of features) so sampler gathers
    # see desk-scale memory traffic. Its rows are drawn at random rather
    # than collected: collecting 20k transitions takes ~27 s on a 2-core
    # Xeon VM and its cost varies with the seed, and a step's cost does not
    # depend on the values in the rows.
    name = "train"
    why = ("train() for bc, iql_so, iql_dm, iql_ca at desk trainer settings "
           "on a 20k-row dataset: nets, losses, trainers and samplers only")
    item = "grad steps"
    sets = (f"trainer.total_steps={TRAIN_STEPS}",)
    clock = None

    def install_clocks(self) -> None:
        self.clock = StepClock()

    def setup(self) -> str:
        self.resolve()
        self.ds = synthetic_dataset(
            self.profile, self.episode, TRAIN_ROWS,
            float(self.tree["collect"]["target_col_ratio"]), self.seed)
        self.configs = [cli.trainer_from(self.tree, self.seed, method=m)
                        for m in trainers.METHODS]
        return dataset_digest(self.ds)

    def repeat(self, ledger: Ledger) -> Repeat:
        n_col = data.round_half_up(self.configs[0].rho
                                   * self.configs[0].batch_size)
        digests, step_ms, steps = [], {}, 0
        t0 = time.perf_counter()
        for cfg in self.configs:
            report = trainers.train(self.ds, cfg).report
            digests.append(report.final_digest)
            if self.clock:
                step_ms[cfg.method] = self.clock.take(cfg.total_steps)
            steps += cfg.total_steps
            problems = []
            epochs = -(-cfg.total_steps // cfg.epoch_steps)
            if len(report.rows) != epochs:
                problems.append(f"{len(report.rows)} report rows, expected "
                                f"{epochs}")
            if cfg.method == "iql_dm":
                if report.policy_collision_count <= 0:
                    problems.append("iql_dm policy saw no collision rows")
            elif report.policy_collision_count != 0:
                problems.append(f"policy saw {report.policy_collision_count} "
                                "collision rows")
            expected = {"iql_ca": n_col, "iql_so": 0}.get(cfg.method)
            if expected is not None and not (report.critic_col_min
                                             == report.critic_col_max
                                             == expected):
                problems.append(
                    f"critic collision rows {report.critic_col_min}.."
                    f"{report.critic_col_max}, expected {expected}")
            ledger.op(f"train {cfg.method}", problems)
        wall = time.perf_counter() - t0
        return Repeat(wall, steps, hashlib.sha256(
            " ".join(digests).encode()).hexdigest(), step_ms)

    def summary(self, repeats):
        ca, bc = joined(repeats, "iql_ca"), joined(repeats, "bc")
        return {"grad_steps_per_s": (self.rate(repeats), "steps/s"),
                "step_ms.iql_ca.p50": (percentile(ca, 50), "ms"),
                "step_ms.iql_ca.p90": (percentile(ca, 90), "ms"),
                "step_ms.bc.p50": (percentile(bc, 50), "ms"),
                "steps_timed.iql_ca": (len(ca), "count")}


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

POLICY_STEPS = 1000
# bc learns from successes only, so the policy's data comes from a fixed
# number of careful-demonstrator episodes (~2k transitions) rather than a
# ratio-targeted collection
POLICY_EPISODES = 24


class CountingPolicy:
    """Forwards the policy protocol and counts env steps per episode.

    evaluate_suite calls ``reset`` once per episode and ``act`` once per
    env step; the time between consecutive resets is one episode.
    """

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.steps: list[int] = []
        self.ms: list[float] = []
        self._t = None

    def reset(self, world, spec, task) -> None:
        self.lap()
        self._t = time.perf_counter()
        self.steps.append(0)
        self.policy.reset(world, spec, task)

    def act(self, state, pose):
        self.steps[-1] += 1
        return self.policy.act(state, pose)

    def lap(self) -> None:
        if self._t is not None:
            self.ms.append(1e3 * (time.perf_counter() - self._t))
            self._t = None


class Eval(Workload):
    # Uses sim differently from collect (policy-driven, no planner, three
    # obstacle counts) and nets differently from train (batch-1 forward, no
    # backward). Lockstep rollouts would show here and not in collect; an
    # obstacle prefilter would show most on dense and least on sparse.
    name = "eval"
    why = ("evaluate_suite of one trained policy on desk suites for sparse, "
           "cluttered and dense: policy-driven sim plus batch-1 forwards")
    item = "env steps"
    sets = (f"trainer.total_steps={POLICY_STEPS}",)

    def setup(self) -> str:
        self.resolve()
        trajs = expert.collect(self.collect_world, self.spec, self.episode,
                               self.expert, POLICY_EPISODES, expert.PERTURBED,
                               self.seed)
        ds = data.build_dataset(trajs, self.profile, self.episode)
        result = trainers.train(ds, cli.trainer_from(self.tree, self.seed,
                                                     method="bc"))
        self.policy = evaluation.NetworkPolicy(result.policy, result.profile,
                                               name="bc")
        e = self.tree["eval"]
        self.worlds = [cli.resolve_world(str(w))
                       for w in self.tree["pipeline"]["eval_worlds"]]
        # suite seeds as cmd_pipeline derives them
        self.suites = [evaluation.make_suite(
            w, self.spec, self.episode, int(e["n_tasks"]), seed=self.seed + i,
            min_separation=float(e["min_separation"]))
            for i, w in enumerate(self.worlds)]
        return hashlib.sha256((result.report.final_digest + "".join(
            s.digest for s in self.suites)).encode()).hexdigest()

    def repeat(self, ledger: Ledger) -> Repeat:
        e = self.tree["eval"]
        n_trials = int(e["n_trials"])
        t_max = self.episode.t_max
        counter = CountingPolicy(self.policy)
        outcomes, sr = {}, []
        t0 = time.perf_counter()
        for world, suite in zip(self.worlds, self.suites):
            first = len(counter.steps)
            res = evaluation.evaluate_suite(
                counter, world, self.spec, suite, n_trials=n_trials,
                seed=self.seed, jitter=(float(e["jitter_pos"]),
                                        float(e["jitter_heading"])),
                method=self.policy.name)
            counter.lap()
            steps = counter.steps[first:]
            outcomes[world.name] = res.outcomes
            sr.append(res.sr)
            ledger.op(f"eval {world.name}", self.check(
                res, steps, len(suite), n_trials, t_max))
        wall = time.perf_counter() - t0
        digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True)
                                .encode()).hexdigest()
        return Repeat(wall, sum(counter.steps), digest,
                      {"episode": counter.ms},
                      {"success_pct": float(np.mean(sr))})

    @staticmethod
    def check(res, steps: list[int], n: int, n_trials: int,
              t_max: int) -> list[str]:
        problems = []
        flat = [o for row in res.outcomes for o in row]
        if len(res.outcomes) != n_trials or len(flat) != n * n_trials:
            problems.append("outcome matrix has the wrong shape")
        bad = set(flat) - set(evaluation.OUTCOMES)
        if bad:
            problems.append(f"unknown outcomes {sorted(bad)}")
        for i, row in enumerate(res.outcomes):
            counts = [row.count(o) for o in evaluation.OUTCOMES]
            rates = (res.sr_trials[i], res.cr_trials[i], res.tr_trials[i])
            if sum(counts) != n or abs(sum(rates) - 100.0) > 1e-9 or any(
                    abs(r - 100.0 * k / n) > 1e-9
                    for r, k in zip(rates, counts)):
                problems.append(f"trial {i}: SR+CR+TR != 100 or rates "
                                "disagree with outcomes")
        if len(steps) != len(flat) or any(
                not 1 <= s <= t_max or (o == evaluation.TIMEOUT and s != t_max)
                for s, o in zip(steps, flat)):
            problems.append("episode lengths disagree with outcomes")
        if [len(t) - 1 for t in res.trajectories] != steps[:n]:
            problems.append("trial-0 trajectories disagree with step counts")
        return problems

    def summary(self, repeats):
        ms = joined(repeats, "episode")
        return {"env_steps_per_s": (self.rate(repeats), "steps/s"),
                "episode_ms.p50": (percentile(ms, 50), "ms"),
                "episode_ms.p90": (percentile(ms, 90), "ms"),
                "success_pct": (repeats[0].values["success_pct"], "%"),
                "episodes": (len(ms), "count")}


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

class Pipeline(Workload):
    # The only workload that covers cli: stage orchestration, artifact I/O
    # (dataset, checkpoints, suites, result JSON, trajectory CSV/SVG,
    # comparison) and job-level parallelism. Running the train or eval jobs
    # in worker processes can only show here.
    #
    # The reductions keep training the largest stage, as on desk (train 92%
    # of a 925 s run, collection and evaluation ~3-5% each), within the
    # benchmark's time budget. Collection shrinks the most: 2000 transitions
    # with ratio_tol loosened to 0.03, which whole-trajectory trimming meets
    # on every seed tried (0-99); at desk's 0.01 it needs 4000 transitions.
    # Traced on a 2-core Xeon VM, a run splits ~20% collect, 1% suites, 70%
    # train and 9% eval, so a faster train or eval stage shows here diluted
    # by the collection share; 92% train would take ~5x the training.
    name = "pipeline"
    why = ("fanav pipeline --config desk.toml as a subprocess, reduced with "
           "--set: stage orchestration, artifact I/O and job parallelism")
    item = "pipeline runs"
    sets = ("collect.min_transitions=2000", "collect.ratio_tol=0.03",
            "trainer.total_steps=300", "eval.n_tasks=4", "eval.n_trials=1")

    def setup(self) -> str:
        self.resolve()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                        PYTHONUNBUFFERED="1")
        self.runs = 0
        # interpreter start and package import, which every run pays
        subprocess.run([sys.executable, "-c", "import fanav.cli"],
                       env=self.env, check=True)
        return self.config_digest

    def argv(self, out: str, seed: int) -> list[str]:
        argv = ["pipeline", "--config", os.path.join(self.root, "desk.toml"),
                "--seed", str(seed), "--out-dir", out]
        for pair in self.sets:
            argv += ["--set", pair]
        return argv

    def repeat(self, ledger: Ledger) -> Repeat:
        out = os.path.join(self.work, f"pipeline-{self.runs}")
        self.runs += 1
        argv = self.argv(out, self.seed)
        t0 = time.perf_counter()
        arrivals = []  # when each line of output arrived
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            log = ""
        else:
            code, log = self.run_cli(argv, arrivals)
        wall = time.perf_counter() - t0
        line_ms = list(1e3 * np.diff(arrivals + [t0 + wall]))

        problems = [] if code == 0 else [f"exit code {code}: {log[-500:]}"]
        missing = [p for p in self.artifacts() if not os.path.isfile(
            os.path.join(out, p)) or not os.path.getsize(os.path.join(out, p))]
        if missing:
            problems.append(f"missing artifacts {missing[:5]}")
        digest, sr, size = "", 0.0, 0
        if not problems:
            csv_path = os.path.join(out, "compare", "comparison.csv")
            with open(csv_path, "rb") as fh:
                text = fh.read()
            digest = hashlib.sha256(text).hexdigest()
            overall = [line.split(",") for line in text.decode().splitlines()
                       if ",overall," in line]
            sr = float(np.mean([float(f[2]) for f in overall]))
            size = sum(os.path.getsize(os.path.join(d, f))
                       for d, _, files in os.walk(out) for f in files)
        ledger.op("pipeline", problems)
        shutil.rmtree(out, ignore_errors=True)
        return Repeat(wall, 1, digest, {"line": line_ms},
                      {"success_pct": sr, "artifact_mb": size / 1e6})

    def run_cli(self, argv: list[str], arrivals: list[float]):
        """Run ``fanav`` in a subprocess, noting when each line of its
        output arrives (the child writes unbuffered: a line per stage,
        method and evaluation); returns its exit code and output."""
        lines = []
        with subprocess.Popen([sys.executable, "-m", "fanav.cli", *argv],
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True) as proc:
            try:
                for line in proc.stdout:
                    arrivals.append(time.perf_counter())
                    lines.append(line)
                code = proc.wait()
            except BaseException:  # unwinding: stop the child, then re-raise
                proc.kill()
                raise
        return code, "".join(lines)

    def artifacts(self) -> list[str]:
        t, e = self.tree["trainer"], self.tree["eval"]
        worlds = [str(w) for w in self.tree["pipeline"]["eval_worlds"]]
        paths = ["manifest.json", "dataset.fanav", "compare/comparison.csv",
                 "compare/comparison.txt"]
        paths += [f"suites/{w}.suite" for w in worlds]
        for m in self.tree["pipeline"]["methods"]:
            paths += [f"train/{m}/{f}" for f in (
                "config.echo", "report.csv", "final.famlp",
                f"ckpt_{int(t['total_steps']):08d}.famlp")]
            for w in worlds:
                d = f"eval/{m}/{w}"
                paths += [f"{d}/result.json", f"{d}/trajectories/overlay.svg"]
                paths += [f"{d}/trajectories/task_{i:03d}.csv"
                          for i in range(int(e["n_tasks"]))]
        return paths

    def summary(self, repeats):
        return {"pipeline_s": (1 / self.rate(repeats), "s"),
                "success_pct": (repeats[0].values["success_pct"], "%")}


WORKLOADS = {w.name: w for w in (Collect, Train, Eval, Pipeline)}
