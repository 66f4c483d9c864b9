"""Command-line entry point wiring the whole pipeline.

Subcommands: gen-world, collect, dataset, train, eval, compare, pipeline.
Configuration is layered: built-in desk-scale defaults, then a config file
(``--config``), then ``--set section.key=value`` overrides, of which
``--seed``, ``train --method`` and ``collect --target-col-ratio`` are
shorthands (:data:`SHORTHANDS`). ``train`` and ``eval`` take ``[robot]``
from the dataset or checkpoint they read, and refuse a config that says
otherwise. Every value ends up echoed into the run artifacts, so no
hyperparameter is hidden: ``fanav train --config
<run>/train/<method>/config.echo --dataset <run>/dataset.fanav`` replays
one method of a pipeline run.

Exit codes: 0 success, 2 usage, 3 configuration/protocol, 4 data format,
5 numeric failure, 6 I/O.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from functools import partial
from importlib import resources

import numpy as np

from . import __version__
from .configfile import (ConfigTree, Settings, format_config,
                         format_scalar, load_config, merge_tree, parse_config,
                         setting)
from .data import (
    EncoderProfile,
    OfflineDataset,
    build_dataset,
    describe_dataset,
    load_dataset,
    save_dataset,
)
from .errors import ConfigError, FanavError
from .evaluation import (
    EvalConfig,
    EvalResult,
    NetworkPolicy,
    TaskSuite,
    compare,
    evaluate_suite,
    export_trajectories,
    load_eval_result,
    load_suite,
    make_suite,
    save_eval_result,
    save_suite,
)
from .expert import (CLEAN, PERTURBED, CollectConfig, ExpertConfig,
                     Trajectory, collect, collect_to_ratio)
from .sim import EpisodeConfig, RobotSpec, World, load_world, save_world
from .trainers import METHODS, TrainerConfig, TrainResult, train
from .worldgen import generate_world

BUNDLED_WORLDS = ("cluttered", "sparse", "dense")


class RunConfig(Settings, section="run"):
    """``[run]``: the seed every stage derives its random streams from."""

    seed: int = setting(0, ">= 0")


class PipelineConfig(Settings, section="pipeline"):
    """``[pipeline]``: its collection world, evaluation worlds and methods;
    two jobs with one method or one world would write one directory."""

    collect_world: str = "cluttered"
    eval_worlds: tuple[str, ...] = BUNDLED_WORLDS
    methods: tuple[str, ...] = setting(tuple(METHODS), among=METHODS)

    def __post_init__(self):
        super().__post_init__()
        for key in ("eval_worlds", "methods"):
            names = list(getattr(self, key))
            if not names or len(set(names)) < len(names):
                raise ConfigError(f"pipeline.{key} must name one or more "
                                  f"entries, each once, got {names!r}")


# the config sections, in the order the config tree lists them
SECTIONS = (RunConfig, RobotSpec, EpisodeConfig, ExpertConfig, CollectConfig,
            TrainerConfig, EvalConfig, PipelineConfig)

DEFAULT_CONFIG: ConfigTree = {cls.section: cls().to_dict() for cls in SECTIONS}
del DEFAULT_CONFIG["trainer"]["seed"]  # TrainerConfig's seed is run.seed


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _parse_set_overrides(pairs: list[str]) -> ConfigTree:
    """Each ``section.key=value`` pair read as one line of TOML; a later
    pair for the same key wins."""
    tree: ConfigTree = {}
    for pair in pairs:
        key_path, eq, _ = pair.partition("=")
        if not eq or "." not in key_path:
            raise ConfigError(
                f"--set expects section.key=value, got '{pair}'")
        try:
            sub = parse_config(pair, source=f"--set '{pair}'")
        except ConfigError as exc:
            raise ConfigError(f"{exc}; strings need double quotes") from None
        for section, kv in sub.items():
            tree.setdefault(section, {}).update(kv)
    return tree


def resolve_config(config_path: str | None, set_pairs: list[str] | None,
                   robot_of: tuple[str, RobotSpec] | None = None
                   ) -> ConfigTree:
    """Defaults, then the config file, then ``--set``; every section is
    built, so a value outside its declared bound is a ``ConfigError``.

    ``robot_of`` is the path of a dataset or checkpoint and the robot it
    holds: ``[robot]`` starts from that robot, and a config file or
    ``--set`` value that differs from it is a ``ConfigError``."""
    tree = {s: dict(kv) for s, kv in DEFAULT_CONFIG.items()}
    if robot_of:
        tree["robot"] = asdict(robot_of[1])
    if config_path:
        tree = merge_tree(tree, load_config(config_path))
    tree = merge_tree(tree, _parse_set_overrides(set_pairs or []))
    if robot_of:
        path, robot = robot_of
        for key, value in asdict(robot).items():
            if tree["robot"][key] != value:
                raise ConfigError(
                    f"the config gives robot.{key}={tree['robot'][key]!r} "
                    f"but {path} holds robot.{key}={value!r}; the robot is "
                    "read from that file")
    for cls in SECTIONS:  # building a section checks it
        cls.from_dict(tree[cls.section])
    return tree


def robot_spec_from(tree: ConfigTree) -> RobotSpec:
    return RobotSpec(**tree["robot"])


def episode_from(tree: ConfigTree) -> EpisodeConfig:
    return EpisodeConfig(**tree["episode"])


def expert_from(tree: ConfigTree) -> ExpertConfig:
    return ExpertConfig(**tree["expert"])


def trainer_from(tree: ConfigTree, seed: int,
                 method: str | None = None) -> TrainerConfig:
    t = {**tree["trainer"], "seed": seed}
    if method:
        t["method"] = method
    return TrainerConfig.from_dict(t)


# ---------------------------------------------------------------------------
# manifests and world resolution
# ---------------------------------------------------------------------------

def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def numeric_platform() -> dict:
    """What a run's bits depend on beyond fanav: Python, numpy, the BLAS
    numpy was built with and the CPU model. It reads files only, so it
    starts no subprocess, as ``platform.processor()`` would."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:  # not Linux
        cpu = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "cpu": cpu}


def write_manifest(path: str, args: argparse.Namespace, argv: list[str],
                   tree: ConfigTree | None,
                   outputs: list[str] | None = None) -> None:
    """Write the run manifest of ``args``' command atomically to ``path``,
    creating its directory: ``<out_dir>/manifest.json`` for a command that
    writes a directory, ``<out>.manifest.json`` beside a command's output
    file. It holds the :func:`numeric_platform` and the SHA-256 of every
    file the command read: its ``--config``, its dataset, checkpoint and
    suite, each world it loaded from a file rather than by bundled name
    (``--world``, or the pipeline's collect and eval worlds) and each
    ``result.json`` it compared. ``compare`` reads no config, so its
    ``tree`` is None, and so are its seed and config digest."""
    worlds = ([tree["pipeline"]["collect_world"],
               *tree["pipeline"]["eval_worlds"]] if args.cmd == "pipeline"
              else [getattr(args, "world", None)])
    read = [getattr(args, "config", None),
            *(w for w in worlds if w and os.path.exists(w)),
            *(getattr(args, k, None) for k in ("dataset", "checkpoint",
                                                "suite")),
            *(os.path.join(d, "result.json")
              for d in getattr(args, "results", []))]
    payload = {
        "tool": "fanav",
        "version": __version__,
        "command": args.cmd,
        "argv": argv,
        "seed": tree and tree["run"]["seed"],
        "config": tree,
        "config_digest": tree and hashlib.sha256(
            json.dumps(tree, sort_keys=True).encode()).hexdigest(),
        "inputs": {p: _sha256_file(p) for p in read if p},
        "outputs": outputs or [],
        "platform": numeric_platform(),
        "started_unix": time.time(),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def bundled_world_path(name: str):
    return resources.files("fanav").joinpath("worlds", f"{name}.world")


def resolve_world(spec: str) -> World:
    """Load a world by file path, or by bundled name (cluttered/sparse/dense)."""
    if os.path.exists(spec):
        return load_world(spec)
    if spec in BUNDLED_WORLDS:
        ref = bundled_world_path(spec)
        from .sim import parse_world
        return parse_world(ref.read_text(encoding="utf-8"), source=str(ref))
    raise ConfigError(f"world '{spec}' is neither a file nor a bundled name "
                      f"{BUNDLED_WORLDS}")


# ---------------------------------------------------------------------------
# stages: each subcommand wraps one, and the pipeline chains them
# ---------------------------------------------------------------------------

def dataset_stage(trajs: list[Trajectory], world: World, spec: RobotSpec,
                  episode: EpisodeConfig, meta: dict,
                  path: str) -> OfflineDataset:
    """Encode ``trajs`` for ``world`` and ``spec``; save them to ``path``."""
    profile = EncoderProfile.from_world_spec(world, spec)
    ds = build_dataset(trajs, profile, episode, meta=meta)
    save_dataset(ds, path)
    return ds


def train_stage(ds: OfflineDataset, cfg: TrainerConfig, tree: ConfigTree,
                out_dir: str) -> TrainResult:
    """Echo every config value into ``out_dir``, then train there."""
    os.makedirs(out_dir, exist_ok=True)
    echo = {**tree, "trainer": {**tree["trainer"], "method": cfg.method}}
    with open(os.path.join(out_dir, "config.echo"), "w",
              encoding="utf-8") as fh:
        fh.write(format_config(echo))
    return train(ds, cfg, out_dir=out_dir)


def eval_stage(policy: NetworkPolicy, world: World, suite: TaskSuite,
               ecfg: dict, seed: int, out_dir: str) -> EvalResult:
    """Evaluate ``policy`` on ``suite`` with the robot it was trained on
    and ``ecfg``'s ``[eval]`` trials; write result.json and trajectories."""
    res = evaluate_suite(policy, world, policy.profile.robot, suite,
                         n_trials=ecfg["n_trials"], seed=seed,
                         jitter=(ecfg["jitter_pos"], ecfg["jitter_heading"]),
                         method=policy.name)
    os.makedirs(out_dir, exist_ok=True)
    save_eval_result(res, os.path.join(out_dir, "result.json"))
    export_trajectories(res, suite, world,
                        os.path.join(out_dir, "trajectories"))
    return res


def compare_stage(results: dict[str, list[EvalResult]], out_dir: str) -> str:
    """Write comparison.csv/.txt with the methods in ``results``' order and
    each method's worlds by name; returns the text table."""
    by_world = {m: sorted(rs, key=lambda r: r.world_name)
                for m, rs in results.items()}
    _, csv_text, table = compare(by_world)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in (("comparison.csv", csv_text),
                       ("comparison.txt", table)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return table


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_world(args, argv) -> int:
    tree = resolve_config(args.config, args.set)
    world = generate_world(args.width, args.height, args.density,
                           tree["run"]["seed"], name=args.name,
                           robot_radius=float(tree["robot"]["radius"]))
    save_world(world, args.out)
    write_manifest(args.out + ".manifest.json", args, argv, tree,
                   outputs=[args.out])
    print(f"wrote {args.out}: {len(world.obstacles)} obstacles in "
          f"{world.width:g}x{world.height:g} m")
    return 0


def cmd_collect(args, argv) -> int:
    if args.mode and args.episodes is None:
        args.usage_error("--mode applies only with --episodes")
    if (args.episodes is not None
            and "collect" in _parse_set_overrides(args.set or [])):
        args.usage_error("--target-col-ratio and --set collect.* apply only "
                         "without --episodes")
    tree = resolve_config(args.config, args.set)
    seed = tree["run"]["seed"]
    world = resolve_world(args.world)
    spec = robot_spec_from(tree)
    episode = episode_from(tree)
    expert_cfg = expert_from(tree)
    mode = "ratio" if args.episodes is None else args.mode or CLEAN
    if mode == "ratio":
        trajs = collect_to_ratio(world, spec, episode, expert_cfg,
                                 seed=seed, **tree["collect"])
    else:
        trajs = collect(world, spec, episode, expert_cfg, args.episodes,
                        mode, seed)
    ds = dataset_stage(trajs, world, spec, episode, {
        "command": "collect", "seed": seed, "world": world.name,
        "mode": mode, "version": __version__}, args.out)
    write_manifest(args.out + ".manifest.json", args, argv, tree,
                   outputs=[args.out])
    print(describe_dataset(ds))
    print(f"wrote {args.out}")
    return 0


def cmd_dataset(args, argv) -> int:
    print(describe_dataset(load_dataset(args.path)))  # the one action: inspect
    return 0


def cmd_train(args, argv) -> int:
    ds = load_dataset(args.dataset)
    tree = resolve_config(args.config, args.set,
                          robot_of=(args.dataset, ds.profile.robot))
    cfg = trainer_from(tree, tree["run"]["seed"])
    write_manifest(os.path.join(args.out_dir, "manifest.json"), args, argv,
                   tree)
    result = train_stage(ds, cfg, tree, args.out_dir)
    last = result.report.rows[-1]
    print(f"{cfg.method}: {cfg.total_steps} steps in "
          f"{result.report.wall_clock:.1f}s, final losses "
          f"V={last.loss_value:.4f} Q={last.loss_critic:.4f} "
          f"pi={last.loss_policy:.4f}")
    print(f"policy digest {result.report.final_digest[:16]}")
    return 0


def cmd_eval(args, argv) -> int:
    policy = NetworkPolicy.from_checkpoint(args.checkpoint)
    tree = resolve_config(args.config, args.set,
                          robot_of=(args.checkpoint, policy.profile.robot))
    world = resolve_world(args.world)
    suite = load_suite(args.suite, episode_from(tree))
    res = eval_stage(policy, world, suite, tree["eval"], tree["run"]["seed"],
                     args.out_dir)
    write_manifest(os.path.join(args.out_dir, "manifest.json"), args, argv,
                   tree)
    print(f"{policy.name} on {world.name}: SR {res.sr:.2f} ± {res.sr_std:.2f}"
          f"  CR {res.cr:.2f} ± {res.cr_std:.2f}"
          f"  TR {res.tr:.2f} ± {res.tr_std:.2f}")
    return 0


def _method_sort_key(method: str):
    return (list(METHODS).index(method) if method in METHODS
            else len(METHODS), method)


def cmd_compare(args, argv) -> int:
    grouped: dict[str, list] = {}
    for d in args.results:
        path = os.path.join(d, "result.json")
        if not os.path.exists(path):
            raise ConfigError(f"no result.json under '{d}'")
        res = load_eval_result(path)
        grouped.setdefault(res.method, []).append(res)
    ordered = {m: grouped[m] for m in sorted(grouped, key=_method_sort_key)}
    out_dir = args.out_dir or "."
    print(compare_stage(ordered, out_dir), end="")
    write_manifest(os.path.join(out_dir, "manifest.json"), args, argv, None)
    return 0


def cmd_pipeline(args, argv) -> int:
    """collect -> suites -> train each method -> evaluate each (method,
    world) -> compare, through the same stage functions as the subcommands.
    Only the suites have no subcommand of their own.

    Collection, training jobs and evaluation jobs run on the lanes
    (:func:`fanav.lanes.run_lanes`), collection in batches of episodes
    whose results do not depend on the lane count: on more than one core,
    one lane more than the cores, with this process as lane 0 taking the
    larger first chunk, so bc and iql_so train here and iql_dm and iql_ca
    in a child each on two cores. Each stage ends before the next starts
    and prints its lines in job order, so the output does not depend on
    the lane count. A method's ``done in`` seconds are its job's wall time,
    time spent sharing a core with another lane included.

    Evaluation reads each suite back from the file it saved, so ``fanav
    eval`` on that file replays the pipeline's episodes exactly. A bundled
    name and the path of its file are one world, so naming both is a
    ``ConfigError``, raised before anything is written."""
    from .lanes import run_lanes
    tree = resolve_config(args.config, args.set)
    seed = tree["run"]["seed"]

    spec = robot_spec_from(tree)
    episode = episode_from(tree)
    expert_cfg = expert_from(tree)
    pcfg, ecfg = tree["pipeline"], tree["eval"]
    methods = pcfg["methods"]
    eval_worlds = {w.name: w for w in map(resolve_world, pcfg["eval_worlds"])}
    if len(eval_worlds) < len(pcfg["eval_worlds"]):
        raise ConfigError("pipeline.eval_worlds must name each world once, "
                          f"got {pcfg['eval_worlds']!r}")
    collect_world = resolve_world(pcfg["collect_world"])
    # no two points of a room are farther apart than its diagonal
    for section, world in [*(("eval", w) for w in eval_worlds.values()),
                           ("expert", collect_world)]:
        value = tree[section]["min_separation"]
        if value >= world.diagonal:
            raise ConfigError(f"{section}.min_separation must be below the "
                              f"{world.diagonal:.2f} m diagonal of world "
                              f"'{world.name}', got {value!r}")
    cfgs = {m: trainer_from(tree, seed, method=m) for m in methods}
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    write_manifest(os.path.join(out, "manifest.json"), args, argv, tree)

    print(f"[1/5] collecting demonstrations in '{collect_world.name}'")
    # no name holds the episodes, so they are freed once they are encoded
    ds = dataset_stage(collect_to_ratio(
        collect_world, spec, episode, expert_cfg, seed=seed,
        **tree["collect"]), collect_world, spec, episode, {
        "command": "pipeline", "seed": seed, "world": collect_world.name,
        "version": __version__}, os.path.join(out, "dataset.fanav"))
    print(describe_dataset(ds))

    print("[2/5] building task suites")
    suites = {}
    suite_dir = os.path.join(out, "suites")
    os.makedirs(suite_dir, exist_ok=True)
    for wi, world in enumerate(eval_worlds.values()):
        path = os.path.join(suite_dir, f"{world.name}.suite")
        save_suite(make_suite(world, spec, episode, ecfg["n_tasks"],
                              seed=seed + wi,
                              min_separation=ecfg["min_separation"]), path)
        suites[world.name] = load_suite(path, episode)

    print("[3/5] training " + ", ".join(methods))

    def train_job(method: str) -> float:
        return train_stage(ds, cfgs[method], tree,
                           os.path.join(out, "train", method)
                           ).report.wall_clock

    walls = run_lanes([partial(train_job, m) for m in methods])
    for method, wall in zip(methods, walls):
        print(f"  {method}: done in {wall:.1f}s")

    print("[4/5] evaluating on " + ", ".join(eval_worlds))
    policies = {m: NetworkPolicy.from_checkpoint(os.path.join(
        out, "train", m, f"ckpt_{cfgs[m].total_steps:08d}.famlp"))
        for m in methods}

    def eval_job(method: str, world: World) -> EvalResult:
        return eval_stage(policies[method], world, suites[world.name], ecfg,
                          seed, os.path.join(out, "eval", method, world.name))

    pairs = [(m, w) for m in methods for w in eval_worlds.values()]
    results: dict[str, list] = {m: [] for m in methods}
    for (method, world), res in zip(pairs, run_lanes(
            [partial(eval_job, m, w) for m, w in pairs])):
        results[method].append(res)
        print(f"  {method}/{world.name}: SR {res.sr:.2f} CR {res.cr:.2f} "
              f"TR {res.tr:.2f}")

    print("[5/5] comparison")
    print(compare_stage(results, os.path.join(out, "compare")), end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (key-value format)")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override any config key; repeatable")
    p.add_argument("--seed", type=int, default=None,
                   help="same as --set run.seed=SEED")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fanav",
        description="Failure-aware offline RL for mapless 2-D navigation")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-world", help="generate a procedural world file")
    g.add_argument("--width", type=float, default=10.0)
    g.add_argument("--height", type=float, default=10.0)
    g.add_argument("--density", type=float, required=True,
                   help="obstacle area fraction in [0, 1]")
    g.add_argument("--name", default="generated")
    g.add_argument("--out", required=True, help="output world file")
    _add_common(g)
    g.set_defaults(fn=cmd_gen_world)

    c = sub.add_parser("collect", help="collect demonstrator episodes")
    c.add_argument("--world", required=True,
                   help="world file or bundled name")
    c.add_argument("--episodes", type=int, default=None,
                   help="episode count (omit to target a collision ratio)")
    c.add_argument("--target-col-ratio", type=float, default=None,
                   help="same as --set collect.target_col_ratio=RATIO")
    c.add_argument("--mode", choices=(CLEAN, PERTURBED), default=None,
                   help=f"with --episodes only (default {CLEAN})")
    c.add_argument("--out", required=True, help="output dataset path")
    _add_common(c)
    c.set_defaults(fn=cmd_collect, usage_error=c.error)

    d = sub.add_parser("dataset", help="dataset utilities")
    dsub = d.add_subparsers(dest="dataset_cmd", required=True)
    di = dsub.add_parser("inspect", help="print counts and ratio")
    di.add_argument("path")
    d.set_defaults(fn=cmd_dataset)

    t = sub.add_parser("train", help="train one method on a dataset")
    t.add_argument("--method", choices=METHODS, default=None,
                   help='same as --set trainer.method="METHOD"')
    t.add_argument("--dataset", required=True)
    t.add_argument("--out-dir", required=True)
    _add_common(t)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a task suite")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--world", required=True)
    e.add_argument("--suite", required=True, help="task suite file")
    e.add_argument("--out-dir", required=True)
    _add_common(e)
    e.set_defaults(fn=cmd_eval)

    cp = sub.add_parser("compare", help="aggregate eval results into a table")
    cp.add_argument("--results", nargs="+", required=True,
                    help="eval output directories")
    cp.add_argument("--out-dir", default=".")
    cp.set_defaults(fn=cmd_compare)

    pl = sub.add_parser("pipeline",
                        help="collect, train all methods, evaluate, compare")
    pl.add_argument("--out-dir", required=True)
    _add_common(pl)
    pl.set_defaults(fn=cmd_pipeline)
    return p


# the config key of each shorthand flag, by its argparse name
SHORTHANDS = {"seed": "run.seed", "method": "trainer.method",
              "target_col_ratio": "collect.target_col_ratio"}


def dispatch(argv: list[str]) -> int:
    """Run ``argv``'s subcommand; a shorthand flag becomes a ``--set`` pair
    after the user's own, so it wins."""
    args = build_parser().parse_args(argv)
    for dest, key in SHORTHANDS.items():
        value = getattr(args, dest, None)
        if value is not None:
            args.set = [*(args.set or []), f"{key}={format_scalar(value)}"]
    return args.fn(args, ["fanav"] + list(argv))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return dispatch(argv)
    except FanavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
