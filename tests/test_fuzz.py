"""A seeded mutation fuzz of every input format the CLI reads.

Each case changes one value of a valid input: a token of a world or suite
file, or in half of their cases one value of the file's TOML tree (an
obstacle's kind or number, a task's number, the radius or an ``[episode]``
value), written back as TOML so that the reader itself must judge it; one
setting of a config file, one value of a ``result.json``, and one header
value or array element of a dataset or checkpoint, rewritten through
:func:`fanav.binio.write` so that the checksums hold. The command that reads the input then runs in
this process on one lane: ``collect --episodes 1`` (worlds, configs),
``train --set trainer.total_steps=3`` (datasets, configs), ``eval``
(checkpoints, suites) and ``compare`` (results). Every case must end
within :data:`CASE_SECONDS` in one of the CLI's exit codes, 0, 3, 4, 5 or 6,
or argparse's 2; an exception or a warning that escapes ``cli.main`` fails
the test, which lists every such case.

No mutation is a large finite number that a reader may accept and act on
at length, such as a batch size of 10⁹; the values are wrong types, signs,
zeros and non-finite numbers.
"""
from __future__ import annotations

import copy
import json
import math
import os
import signal
from collections import Counter

import numpy as np
import pytest

from fanav import binio, lanes
from fanav.cli import DEFAULT_CONFIG, main
from fanav.configfile import format_config, format_value, parse_config
from fanav.evaluation import make_suite, save_suite
from fanav.sim import EpisodeConfig, RobotSpec, format_world
from fanav.worldgen import generate_world

SEED = 39
CASES = 64  # per format
CASE_SECONDS = 3.0
EXIT_CODES = {0, 2, 3, 4, 5, 6}

# what a mutated value becomes in a JSON header, a result, a config file or
# the TOML tree of a world or suite file
VALUES = (-1, 0, 0.5, 2, 2.0, -1e-9, math.inf, -math.inf, math.nan, "x",
          "", [], {}, [1, 2], True, None)
# what a mutated token of a world or suite file becomes
TOKENS = ("-1", "0", "0.5", "1e-9", "1e6", "inf", "nan", "x", "")
# what a mutated array element becomes, by the array's kind
ARRAY_VALUES = {"f": (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e30),
                "i": (-1, 0, 3, 2**31 - 1), "u": (0, 3, 255), "b": (0, 1)}

BEAMS = ["--set", "robot.lidar_beams=8"]
SHORT = ["--set", "episode.t_max=60"]
COLLECT_SETS = [*BEAMS, *SHORT, "--set", "expert.min_separation=1.5"]
TRAIN_SETS = ["--set", "trainer.total_steps=3", "--set", "trainer.hidden=[8]",
              "--set", "trainer.batch_size=8"]


class Overran(BaseException):
    """A case ran past :data:`CASE_SECONDS`; not an ``OSError``, which
    ``cli.main`` would turn into exit code 6."""


def run_case(argv: list[str]) -> int:
    def overran(signum, frame):
        raise Overran

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def nodes(tree, path=()):
    """The path of every value under ``tree``, containers included."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from nodes(value, path + (key,))


def replaced(tree, path, value):
    tree = copy.deepcopy(tree)
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return tree


def pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def mutate_json(rng, tree):
    return replaced(tree, pick(rng, list(nodes(tree))), pick(rng, VALUES))


def mutate_text(rng, text: str) -> str:
    """One token replaced, or one line dropped or repeated."""
    lines = text.splitlines()
    at = int(rng.integers(len(lines)))
    kind = rng.integers(4)
    if kind == 0:
        del lines[at]
    elif kind == 1:
        lines.insert(at, lines[at])
    else:
        words = lines[at].split() or [""]
        words[int(rng.integers(len(words)))] = pick(rng, TOKENS)
        lines[at] = " ".join(words)
    return "\n".join(lines) + "\n"


def mutate_binary(rng, src: str, dst: str, kind: str) -> None:
    """Rewrite ``src`` to ``dst`` with one header value or one element of
    one array changed."""
    header, arrays = binio.read(src, kind)
    if rng.integers(2):
        header = mutate_json(rng, header)
    else:
        name = pick(rng, sorted(arrays))
        arr = arrays[name].copy()
        if arr.size:
            arr.reshape(-1)[int(rng.integers(arr.size))] = \
                pick(rng, ARRAY_VALUES[arr.dtype.kind])
        arrays[name] = arr
    binio.write(dst, kind, header, arrays)


def toml_value(value) -> str:
    return "" if value is None else format_value(value)  # None: no value


def mutate_file(rng, text: str, leaf) -> str:
    """``text`` with one token changed (:func:`mutate_text`), or, by a coin,
    one value of its TOML tree at a path ``leaf`` accepts replaced by one of
    :data:`VALUES` and the tree written back as TOML."""
    if rng.integers(2):
        return mutate_text(rng, text)
    tree = parse_config(text)
    path = pick(rng, [path for path in nodes(tree) if leaf(path)])
    return format_config(replaced(tree, path, pick(rng, VALUES)))


def obstacle_value(path) -> bool:
    return path[:2] == ("world", "obstacles") and len(path) == 4


def suite_value(path) -> bool:
    return (path[:2] == ("suite", "tasks") and len(path) == 4
            or path == ("suite", "radius")
            or path[0] == "episode" and len(path) == 2)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """One valid input of each format, made through the CLI."""
    root = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lanes, "lane_count", lambda: 1)
        world = generate_world(6.0, 6.0, 0.08, seed=1, name="fuzz")
        paths = {"world": str(root / "fuzz.world"),
                 "dataset": str(root / "d.fanav"),
                 "suite": str(root / "fuzz.suite"),
                 "train": str(root / "t"), "eval": str(root / "e")}
        with open(paths["world"], "w", encoding="utf-8") as fh:
            fh.write(format_world(world))
        assert main(["collect", "--world", paths["world"], "--episodes", "6",
                     "--mode", "perturbed", "--seed", "2", "--out",
                     paths["dataset"], *COLLECT_SETS]) == 0
        assert main(["train", "--method", "iql_ca", "--dataset",
                     paths["dataset"], "--out-dir", paths["train"],
                     *TRAIN_SETS]) == 0
        # the suite holds the episode eval runs: SHORT's horizon
        save_suite(make_suite(world, RobotSpec(lidar_beams=8),
                              EpisodeConfig(t_max=60), 2, seed=0,
                              min_separation=2.0), paths["suite"])
        paths["checkpoint"] = os.path.join(paths["train"],
                                           "ckpt_00000003.famlp")
        assert main(eval_argv(paths, paths["checkpoint"], paths["suite"],
                              paths["eval"])) == 0
        yield paths


def eval_argv(paths, checkpoint, suite, out_dir):
    return ["eval", "--checkpoint", checkpoint, "--world", paths["world"],
            "--suite", suite, "--out-dir", out_dir, "--set", "eval.n_trials=1",
            *SHORT]


def cases(base, root):
    """Each case as ``(name, argv)``, its mutated input written under
    ``root``."""
    rng = np.random.default_rng(SEED)
    with open(base["world"], encoding="utf-8") as fh:
        world_text = fh.read()
    with open(base["suite"], encoding="utf-8") as fh:
        suite_text = fh.read()
    with open(os.path.join(base["eval"], "result.json"),
              encoding="utf-8") as fh:
        result = json.load(fh)
    sections = sorted(DEFAULT_CONFIG)
    for i in range(CASES):
        out = str(root / f"out{i}")

        path = str(root / f"w{i}.world")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutate_file(rng, world_text, obstacle_value))
        yield f"world {i}", ["collect", "--world", path, "--episodes", "1",
                             "--out", out + ".fanav", *COLLECT_SETS]

        path = str(root / f"s{i}.suite")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutate_file(rng, suite_text, suite_value))
        yield f"suite {i}", eval_argv(base, base["checkpoint"], path,
                                      out + "-suite")

        section = pick(rng, sections)
        key = pick(rng, sorted(DEFAULT_CONFIG[section]))
        path = str(root / f"c{i}.toml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"[{section}]\n{key} = "
                     f"{toml_value(pick(rng, VALUES))}\n")
        if i % 2:
            yield f"config {i}", ["collect", "--world", base["world"],
                                  "--episodes", "1", "--config", path,
                                  "--out", out + "-config.fanav",
                                  *COLLECT_SETS]
        else:
            yield f"config {i}", ["train", "--dataset", base["dataset"],
                                  "--config", path, "--out-dir",
                                  out + "-config", *TRAIN_SETS]

        path = str(root / f"r{i}")
        os.makedirs(path)
        with open(os.path.join(path, "result.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(mutate_json(rng, result), fh)
        yield f"result {i}", ["compare", "--results", path,
                              "--out-dir", out + "-compare"]

        path = str(root / f"d{i}.fanav")
        mutate_binary(rng, base["dataset"], path, "dataset")
        yield f"dataset {i}", ["train", "--dataset", path, "--out-dir",
                               out + "-train", *TRAIN_SETS]

        path = str(root / f"k{i}.famlp")
        mutate_binary(rng, base["checkpoint"], path, "checkpoint")
        yield f"checkpoint {i}", eval_argv(base, path, base["suite"],
                                           out + "-eval")


def test_every_mutated_input_ends_in_a_documented_exit_code(
        base, tmp_path, set_lanes, capsys):
    set_lanes(1)
    escapes, codes = [], Counter()
    for name, argv in cases(base, tmp_path):
        try:
            code = run_case(argv)
        except (Exception, Overran) as exc:  # listed, then failed below
            escapes.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        codes[code] += 1
        if code not in EXIT_CODES:
            escapes.append(f"{name}: exit code {code!r}")
    capsys.readouterr()
    assert escapes == [], "\n".join(escapes)
    assert codes.total() == 6 * CASES
    # the mutations reach past the first check: some inputs still run
    assert codes[0] > 0 and len(codes) > 2, codes
