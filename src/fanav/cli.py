"""Command-line entry point wiring the whole pipeline.

Subcommands: gen-world, collect, dataset, train, eval, compare, pipeline.
Configuration is layered: built-in desk-scale defaults, then a config file
(``--config``), then ``--set section.key=value`` overrides, of which
``--seed``, ``train --method`` and ``collect --target-col-ratio`` are
shorthands (:data:`SHORTHANDS`). ``train`` takes ``[robot]`` and
``[episode]`` from its dataset, ``eval`` ``[robot]`` from its checkpoint
and ``[episode]`` from its suite, and each refuses a config that differs.
Every value ends up echoed into the run artifacts, so no
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
from functools import partial
from importlib import resources

import numpy as np

from . import __version__
from .configfile import (ConfigTree, Settings, format_config,
                         format_value, load_config, merge_tree, parse_config,
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
                     collect, collect_to_ratio)
from .sim import (EpisodeConfig, RobotSpec, World, load_world, parse_world,
                  save_world)
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
        sub = parse_config(pair, f"--set '{pair}'",
                           "; strings need double quotes")
        for section, kv in sub.items():
            tree.setdefault(section, {}).update(kv)
    return tree


def resolve_config(config_path: str | None, set_pairs: list[str] | None,
                   held: list[tuple[str, Settings]] = ()) -> ConfigTree:
    """Defaults, then the config file, then ``--set``, each section as its
    :class:`Settings` types it; a value it refuses is a ``ConfigError``.

    ``held`` pairs a file with a section it holds (a dataset's or
    checkpoint's robot, a dataset's or suite's episode): that section
    starts from the file's, and a config file or ``--set`` value that
    differs from it is a ``ConfigError``."""
    tree = {s: dict(kv) for s, kv in DEFAULT_CONFIG.items()}
    tree.update({h.section: h.to_dict() for _, h in held})
    if config_path:
        tree = merge_tree(tree, load_config(config_path))
    tree = merge_tree(tree, _parse_set_overrides(set_pairs or []))
    for cls in SECTIONS:  # building a section checks it; [trainer] has no seed
        built = cls.from_dict(tree[cls.section]).to_dict()
        tree[cls.section] = {key: built[key] for key in tree[cls.section]}
    for path, h in held:
        for key, value in h.to_dict().items():
            if tree[h.section][key] != value:
                where = f"{h.section}.{key}"
                raise ConfigError(
                    f"the config gives {where}={tree[h.section][key]!r} but "
                    f"{path} holds {where}={value!r}; the {h.section} is "
                    "read from that file")
    return tree


def robot_spec_from(tree: ConfigTree) -> RobotSpec:
    return RobotSpec(**tree["robot"])


def episode_from(tree: ConfigTree) -> EpisodeConfig:
    return EpisodeConfig(**tree["episode"])


def expert_from(tree: ConfigTree) -> ExpertConfig:
    return ExpertConfig(**tree["expert"])


def trainer_from(tree: ConfigTree, seed: int,
                 method: str | None = None) -> TrainerConfig:
    t = tree["trainer"]
    return TrainerConfig(**{**t, "method": method or t["method"]}, seed=seed)


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


def claim_manifest(path: str, cmd: str) -> None:
    """Refuse with a :class:`ConfigError` to let ``cmd`` replace the file
    at ``path`` unless it is a manifest that ``cmd`` wrote; :func:`dispatch`
    calls it before the command runs, so a refused command writes nothing."""
    if not os.path.exists(path):
        return
    try:
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        owner = old["command"] if old["tool"] == "fanav" else None
    except (ValueError, TypeError, KeyError):
        owner = None
    if owner != cmd:
        what = (f"the manifest of fanav {owner}" if owner
                else "not a fanav manifest")
        raise ConfigError(f"{path} is {what}; fanav {cmd} will not replace "
                          "it: choose another output path")


def manifest_path(args: argparse.Namespace) -> str | None:
    """Where a command writes its manifest: ``<out>.manifest.json`` beside
    its output file, ``manifest.json`` in its ``--out-dir`` (``.`` when
    empty), and None for ``dataset inspect``."""
    if hasattr(args, "out"):
        return args.out + ".manifest.json"
    if hasattr(args, "out_dir"):
        return os.path.join(args.out_dir or ".", "manifest.json")
    return None


def write_manifest(path: str, args: argparse.Namespace, argv: list[str],
                   tree: ConfigTree | None, started_unix: float) -> None:
    """Write the run manifest of ``args``' command atomically to ``path``,
    creating its directory. It holds the :func:`numeric_platform`, the
    command's ``--out`` file as its one output, ``started_unix`` and the
    SHA-256 of every file the command read: its ``--config``, its dataset,
    checkpoint and suite, each world it loaded from a file rather than by
    bundled name (``--world``, or the pipeline's collect and eval worlds)
    and each ``result.json`` it compared. ``compare`` reads no config, so
    its ``tree`` is None, and so are its seed and config digest."""
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
        "outputs": [args.out] if hasattr(args, "out") else [],
        "platform": numeric_platform(),
        "started_unix": started_unix,
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
        return parse_world(ref.read_text(encoding="utf-8"), source=str(ref))
    raise ConfigError(f"world '{spec}' is neither a file nor a bundled name "
                      f"{BUNDLED_WORLDS}")


# ---------------------------------------------------------------------------
# stages: each subcommand wraps one, and the pipeline chains them
# ---------------------------------------------------------------------------

def collect_stage(tree: ConfigTree, world: World, command: str, path: str,
                  episodes: int | None = None,
                  mode: str | None = None) -> OfflineDataset:
    """Collect demonstrations in ``world`` to the ``[collect]`` ratio, or
    ``episodes`` episodes in ``mode`` (default clean); save their dataset
    to ``path`` and print its summary. Every dataset's meta is its
    ``command``, seed, world, ``mode`` (``ratio`` for a ratio collection)
    and fanav version. A collection with no success or collision episode
    is a ``ConfigError``, raised before anything is written."""
    seed = tree["run"]["seed"]
    spec, episode = robot_spec_from(tree), episode_from(tree)
    expert_cfg = expert_from(tree)
    if episodes is None:
        mode = "ratio"
        trajs = collect_to_ratio(world, spec, episode, expert_cfg, seed=seed,
                                 **tree["collect"])
    else:
        mode = mode or CLEAN
        trajs = collect(world, spec, episode, expert_cfg, episodes, mode, seed)
    if not trajs:
        raise ConfigError("no episode ended in success or collision")
    ds = build_dataset(trajs, EncoderProfile.from_world_spec(world, spec),
                       episode, meta={"command": command, "seed": seed,
                                      "world": world.name, "mode": mode,
                                      "version": __version__})
    save_dataset(ds, path)
    print(describe_dataset(ds))
    return ds


def train_stage(ds: OfflineDataset, cfg: TrainerConfig, tree: ConfigTree,
                out_dir: str) -> TrainResult:
    """Train in ``out_dir``, then echo every config value there."""
    result = train(ds, cfg, out_dir=out_dir)
    echo = {**tree, "trainer": {**tree["trainer"], "method": cfg.method}}
    with open(os.path.join(out_dir, "config.echo"), "w",
              encoding="utf-8") as fh:
        fh.write(format_config(echo))
    return result


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


def _method_sort_key(method: str):
    return (list(METHODS).index(method) if method in METHODS
            else len(METHODS), method)


def compare_stage(results: dict[str, list[EvalResult]], out_dir: str) -> str:
    """Write comparison.csv/.txt, the methods in :data:`METHODS` order and
    then by name, each method's worlds by name; returns the text table."""
    by_world = {m: sorted(results[m], key=lambda r: r.world_name)
                for m in sorted(results, key=_method_sort_key)}
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

def cmd_gen_world(args) -> ConfigTree:
    tree = resolve_config(args.config, args.set)
    world = generate_world(args.width, args.height, args.density,
                           tree["run"]["seed"], name=args.name,
                           robot_radius=tree["robot"]["radius"])
    save_world(world, args.out)
    print(f"wrote {args.out}: {len(world.obstacles)} obstacles in "
          f"{world.width:g}x{world.height:g} m")
    return tree


def cmd_collect(args) -> ConfigTree:
    if args.mode and args.episodes is None:
        args.usage_error("--mode applies only with --episodes")
    if (args.episodes is not None
            and "collect" in _parse_set_overrides(args.set or [])):
        args.usage_error("--target-col-ratio and --set collect.* apply only "
                         "without --episodes")
    tree = resolve_config(args.config, args.set)
    collect_stage(tree, resolve_world(args.world), "collect", args.out,
                  args.episodes, args.mode)
    print(f"wrote {args.out}")
    return tree


def cmd_dataset(args) -> None:
    print(describe_dataset(load_dataset(args.path)))  # the one action: inspect


def cmd_train(args) -> ConfigTree:
    ds = load_dataset(args.dataset)
    tree = resolve_config(args.config, args.set, held=[
        (args.dataset, ds.profile.robot), (args.dataset, ds.episode)])
    cfg = trainer_from(tree, tree["run"]["seed"])
    result = train_stage(ds, cfg, tree, args.out_dir)
    last = result.report.rows[-1]
    print(f"{cfg.method}: {cfg.total_steps} steps in "
          f"{result.report.wall_clock:.1f}s, final losses "
          f"V={last.loss_value:.4f} Q={last.loss_critic:.4f} "
          f"pi={last.loss_policy:.4f}")
    print(f"policy digest {result.report.final_digest[:16]}")
    return tree


def cmd_eval(args) -> ConfigTree:
    policy = NetworkPolicy.from_checkpoint(args.checkpoint)
    suite = load_suite(args.suite)
    tree = resolve_config(args.config, args.set, held=[
        (args.checkpoint, policy.profile.robot),
        (args.suite, suite.episode)])
    world = resolve_world(args.world)
    res = eval_stage(policy, world, suite, tree["eval"], tree["run"]["seed"],
                     args.out_dir)
    print(f"{policy.name} on {world.name}: SR {res.sr:.2f} ± {res.sr_std:.2f}"
          f"  CR {res.cr:.2f} ± {res.cr_std:.2f}"
          f"  TR {res.tr:.2f} ± {res.tr_std:.2f}")
    return tree


def cmd_compare(args) -> None:
    grouped: dict[str, list] = {}
    for d in args.results:
        path = os.path.join(d, "result.json")
        if not os.path.exists(path):
            raise ConfigError(f"no result.json under '{d}'")
        res = load_eval_result(path)
        grouped.setdefault(res.method, []).append(res)
    print(compare_stage(grouped, args.out_dir or "."), end="")


def cmd_pipeline(args) -> ConfigTree:
    """collect -> suites -> train each method -> evaluate each (method,
    world) -> compare, through the same stage functions as the subcommands:
    its dataset is the one ``fanav collect`` writes at the same seed and
    config, but for ``command`` in its meta. Only the suites have no
    subcommand of their own.

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
    ``ConfigError``, raised before anything is written. Its manifest, like
    every command's, is written when it ends."""
    from .lanes import run_lanes
    tree = resolve_config(args.config, args.set)
    seed = tree["run"]["seed"]

    spec = robot_spec_from(tree)
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

    print(f"[1/5] collecting demonstrations in '{collect_world.name}'")
    ds = collect_stage(tree, collect_world, "pipeline",
                       os.path.join(out, "dataset.fanav"))

    print("[2/5] building task suites")
    suites = {}
    suite_dir = os.path.join(out, "suites")
    os.makedirs(suite_dir, exist_ok=True)
    for wi, world in enumerate(eval_worlds.values()):
        path = os.path.join(suite_dir, f"{world.name}.suite")
        save_suite(make_suite(world, spec, episode_from(tree), ecfg["n_tasks"],
                              seed=seed + wi,
                              min_separation=ecfg["min_separation"]), path)
        suites[world.name] = load_suite(path)

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
        out, "train", m, cfgs[m].checkpoint_name)) for m in methods}

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
    return tree


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
    after the user's own, so it wins. Its manifest (:func:`manifest_path`)
    is claimed before it runs and written, with the moment it started,
    from the config tree it returns; a failed command writes none."""
    args = build_parser().parse_args(argv)
    for dest, key in SHORTHANDS.items():
        value = getattr(args, dest, None)
        if value is not None:
            args.set = [*(args.set or []), f"{key}={format_value(value)}"]
    manifest = manifest_path(args)
    if manifest:
        claim_manifest(manifest, args.cmd)
    started = time.time()
    tree = args.fn(args)
    if manifest:
        write_manifest(manifest, args, ["fanav", *argv], tree, started)
    return 0


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
