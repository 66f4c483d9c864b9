import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import time
import tomllib
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from fanav import binio, errors
from fanav.cli import (
    DEFAULT_CONFIG,
    SECTIONS,
    build_parser,
    dispatch,
    episode_from,
    expert_from,
    main,
    resolve_config,
    robot_spec_from,
)
from fanav.data import load_dataset
from fanav.errors import NumericError
from fanav.nets import (GaussianPolicyHead, Mlp, load_checkpoint,
                        save_checkpoint)
from fanav.sim import RobotSpec, load_world
from fanav.trainers import METHODS

ROOT = Path(__file__).resolve().parents[1]
DESK = str(ROOT / "desk.toml")


def run(argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# parsing, help, exit codes
# ---------------------------------------------------------------------------

def test_help_exits_zero_everywhere(capsys):
    for args in (["--help"], ["gen-world", "--help"], ["collect", "--help"],
                 ["dataset", "--help"], ["train", "--help"],
                 ["eval", "--help"], ["compare", "--help"],
                 ["pipeline", "--help"]):
        with pytest.raises(SystemExit) as exc:
            dispatch(args)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["gen-world", "--bogus", "1", "--out", "x", "--density", "0"])
    assert exc.value.code == 2


def test_missing_file_gives_io_or_config_code(tmp_path, capsys):
    code = run(["dataset", "inspect", str(tmp_path / "missing.fanav")])
    assert code == 6  # OSError
    code = run(["train", "--dataset", str(tmp_path / "m.fanav"),
                "--out-dir", str(tmp_path / "o")])
    assert code == 6
    # a world or a result that is not there is named, with the config code
    world = str(tmp_path / "missing.world")
    capsys.readouterr()
    assert run(["collect", "--world", world, "--episodes", "1",
                "--out", str(tmp_path / "d.fanav")]) == 3
    assert f"world '{world}' is neither a file nor a bundled name" in \
        capsys.readouterr().err
    assert run(["compare", "--results", str(tmp_path),
                "--out-dir", str(tmp_path / "c")]) == 3
    assert f"no result.json under '{tmp_path}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# every error class with the exit code the CLI documents for it
DOCUMENTED_EXIT_CODES = {
    "FanavError": 3, "ConfigError": 3, "ProtocolError": 3,
    "WorldFormatError": 3, "InvalidPoseError": 3, "NoPathError": 3,
    "GenerationError": 3, "DataFormatError": 4, "ShapeError": 4,
    "NumericError": 5}


def test_each_error_class_exits_with_its_code(monkeypatch, capsys):
    from fanav import cli

    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.FanavError)}
    assert sorted(classes) == sorted(DOCUMENTED_EXIT_CODES)
    for name, cls in [*classes.items(), ("OSError", OSError)]:
        def cmd_dataset(args, cls=cls):
            raise cls(f"raised {cls.__name__}")

        monkeypatch.setattr(cli, "cmd_dataset", cmd_dataset)
        code = run(["dataset", "inspect", "x.fanav"])
        assert code == DOCUMENTED_EXIT_CODES.get(name, 6), name
        assert capsys.readouterr().err == f"error: raised {name}\n"


def test_a_train_that_fails_writes_nothing(tmp_path, capsys):
    ds, bad = tmp_path / "d.fanav", tmp_path / "nan.fanav"
    assert run(["collect", "--world", "sparse", "--episodes", "2",
                "--out", str(ds), "--seed", "1",
                "--set", "robot.lidar_beams=8"]) == 0
    # a NaN feature: refused on reading, before anything is written
    meta, arrays = binio.read(str(ds), "dataset")
    arrays["exp/features"] = arrays["exp/features"].copy()
    arrays["exp/features"][3, 0] = np.nan
    binio.write(str(bad), "dataset", meta, arrays)
    out = tmp_path / "t"
    capsys.readouterr()
    assert run(["train", "--dataset", str(bad), "--out-dir", str(out),
                "--method", "bc"]) == 4
    assert capsys.readouterr().err == (
        f"error: {bad}: exp/features holds a non-finite value\n")
    assert not out.exists()
    # a run that diverges: refused at its first non-finite step
    assert run(["train", "--dataset", str(ds), "--out-dir", str(out),
                "--method", "iql_so", "--set", "trainer.lr_value=1e30",
                "--set", "trainer.lr_critic=1e30",
                "--set", "trainer.hidden=[16]",
                "--set", "trainer.batch_size=32"]) == 5
    assert "at step 1: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("huge", [1e30, 3e38])
def test_a_huge_finite_feature_ends_train_in_a_numeric_error(huge, tmp_path,
                                                             capsys):
    # a finite value loads; the policy's float32 gradients overflow, and at
    # 3e38 so do the rewards the load derives, and the run ends in the
    # error that names its phase and step, not in a cast's RuntimeWarning
    # (an exception under this suite)
    ds, big = tmp_path / "d.fanav", tmp_path / "big.fanav"
    assert run(["collect", "--world", "sparse", "--episodes", "2",
                "--out", str(ds), "--seed", "1",
                "--set", "robot.lidar_beams=8"]) == 0
    meta, arrays = binio.read(str(ds), "dataset")
    arrays["exp/features"] = arrays["exp/features"].copy()
    arrays["exp/features"][::2] = huge
    binio.write(str(big), "dataset", meta, arrays)
    assert np.isinf(load_dataset(str(big)).exp.rewards).any() == (huge > 1e38)
    out = tmp_path / "t"
    capsys.readouterr()
    assert run(["train", "--dataset", str(big), "--out-dir", str(out),
                "--method", "bc", "--set", "trainer.total_steps=3",
                "--set", "trainer.hidden=[8]",
                "--set", "trainer.batch_size=8"]) == 5
    assert re.match(r"error: policy \w+ non-finite at step 1: ",
                    capsys.readouterr().err)
    assert not out.exists()


def test_bad_config_value_exits_three(tmp_path, capsys):
    # every command checks every section, the ones it does not read too
    cfg = tmp_path / "bad.toml"
    cfg.write_text("[trainer]\nrho = 2.0\n")
    ds, bad = tmp_path / "d.fanav", tmp_path / "bad.fanav"
    collect = ["collect", "--world", "sparse", "--episodes", "1", "--seed",
               "1", "--set", "robot.lidar_beams=8"]
    assert run([*collect, "--out", str(ds)]) == 0
    assert run([*collect, "--out", str(bad), "--config", str(cfg)]) == 3
    assert not bad.exists()
    code = run(["train", "--dataset", str(ds), "--out-dir",
                str(tmp_path / "t"), "--config", str(cfg)])
    assert code == 3 and not (tmp_path / "t").exists()
    assert "trainer.rho must be < 1, got 2.0" in capsys.readouterr().err


def test_corrupt_dataset_exits_four(tmp_path):
    bad = tmp_path / "bad.fanav"
    bad.write_bytes(b"NOTFAN" + b"\x00" * 32)
    assert run(["dataset", "inspect", str(bad)]) == 4
    # a byte flipped in the middle of a real dataset
    ds = str(tmp_path / "d.fanav")
    assert run(["collect", "--world", "sparse", "--episodes", "2",
                "--out", ds, "--seed", "1",
                "--set", "robot.lidar_beams=8"]) == 0
    assert run(["dataset", "inspect", ds]) == 0
    blob = bytearray(Path(ds).read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad.write_bytes(bytes(blob))
    assert run(["dataset", "inspect", str(bad)]) == 4


# ---------------------------------------------------------------------------
# config precedence: shorthand flag > --set > file > default
# ---------------------------------------------------------------------------

def test_precedence_file_over_default_every_key(tmp_path):
    lines = []
    expected = {}
    for section, kv in DEFAULT_CONFIG.items():
        lines.append(f"[{section}]")
        for key, value in kv.items():
            # another value that each bound admits
            if isinstance(value, bool):
                nv = not value
            elif isinstance(value, int):
                nv = value + 1
            elif isinstance(value, float):
                nv = value / 2 + 0.01
            elif isinstance(value, str):
                nv = {"iql_ca": "bc", "relu": "tanh"}.get(value, value + "x")
            elif isinstance(value, list):
                nv = value[1:]
            if isinstance(nv, list):
                body = ", ".join(
                    f'"{v}"' if isinstance(v, str) else str(v) for v in nv)
                lines.append(f"{key} = [{body}]")
            elif isinstance(nv, str):
                lines.append(f'{key} = "{nv}"')
            elif isinstance(nv, bool):
                lines.append(f"{key} = {'true' if nv else 'false'}")
            else:
                lines.append(f"{key} = {nv}")
            expected[(section, key)] = nv
    path = tmp_path / "all.toml"
    path.write_text("\n".join(lines) + "\n")
    tree = resolve_config(str(path), [])
    for (section, key), nv in expected.items():
        assert tree[section][key] == nv, f"{section}.{key}"


def test_precedence_set_over_file(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text("[trainer]\nbatch_size = 64\n")
    tree = resolve_config(str(path), ["trainer.batch_size=32"])
    assert tree["trainer"]["batch_size"] == 32
    # of two --set for one key, the later wins
    tree = resolve_config(str(path), ["trainer.batch_size=32",
                                      "trainer.batch_size=16"])
    assert tree["trainer"]["batch_size"] == 16


def test_precedence_flag_over_set(tmp_path):
    # each shorthand flag is a --set pair after the user's own, so it wins
    # and the manifest, the echo and the checkpoint record its value
    ds = str(tmp_path / "d.fanav")
    assert run(["collect", "--world", "sparse", "--out", ds,
                "--target-col-ratio", "0.12", "--seed", "1",
                "--set", "collect.target_col_ratio=0.3", "--set", "run.seed=9",
                "--set", "collect.min_transitions=700",
                "--set", "collect.ratio_tol=0.03",
                "--set", "robot.lidar_beams=8"]) == 0
    config = json.loads(Path(ds + ".manifest.json").read_text())["config"]
    assert config["collect"]["target_col_ratio"] == 0.12
    assert config["run"]["seed"] == 1
    out = tmp_path / "t"
    assert run(["train", "--dataset", ds, "--out-dir", str(out),
                "--method", "bc", "--seed", "4",
                "--set", 'trainer.method="iql_dm"', "--set", "run.seed=9",
                "--set", "trainer.total_steps=2", "--set", "trainer.hidden=[8]"
                ]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["trainer"]["method"], config["run"]["seed"]) == ("bc", 4)
    echo = resolve_config(str(out / "config.echo"), [])
    assert (echo["trainer"]["method"], echo["run"]["seed"]) == ("bc", 4)
    _, meta = load_checkpoint(str(out / "final.famlp"))
    assert (meta["config"]["method"], meta["config"]["seed"]) == ("bc", 4)


def test_unknown_set_key_rejected():
    from fanav.errors import ConfigError
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_config(None, ["trainer.bogus=1"])
    with pytest.raises(ConfigError, match="--set expects"):
        resolve_config(None, ["no_dot=1"])
    with pytest.raises(ConfigError, match="strings need double quotes"):
        resolve_config(None, ["trainer.method=bc"])


@pytest.mark.parametrize("source", ["set", "file"])
def test_checkpoint_interval_key_is_unknown(source, tmp_path, capsys):
    # a run writes its checkpoints once, at total_steps; the interval key
    # that numbered the intermediate ones is gone
    if source == "set":
        extra = ["--set", "trainer.eval_every=60"]
    else:
        cfg = tmp_path / "old.toml"
        cfg.write_text("[trainer]\neval_every = 10000\n")
        extra = ["--config", str(cfg)]
    out = tmp_path / "p"
    assert run(["pipeline", "--out-dir", str(out), *extra]) == 3
    assert "unknown config key trainer.eval_every" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, line", [
    ("[trainer]\nrho = 0.1\nrho = 0.5\n", 3),
    ("[trainer]\nrho = 0.1\n\n[trainer]\ngamma = 0.9\n", 4),
], ids=["key", "section"])
def test_repeated_config_key_or_section_exits_three(text, line, tmp_path,
                                                    capsys):
    from fanav.errors import ConfigError
    cfg = tmp_path / "twice.toml"
    cfg.write_text(text)
    where = re.escape(str(cfg)) + rf": .*\(at line {line},"
    with pytest.raises(ConfigError, match=where):
        resolve_config(str(cfg), [])
    out = tmp_path / "p"
    assert run(["pipeline", "--out-dir", str(out), "--config", str(cfg)]) == 3
    assert re.search(where, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("pair, key", [
    ("trainer.hidden=128", "trainer.hidden"),
    ('robot.lidar_beams="x"', "robot.lidar_beams"),
    ('pipeline.methods="bc"', "pipeline.methods"),
])
def test_wrong_typed_config_value_exits_three(pair, key, tmp_path, capsys):
    out = tmp_path / "p"
    assert run(["pipeline", "--out-dir", str(out), "--set", pair]) == 3
    assert f"config {key} = " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("names, key", [
    (["bc", "iql_so", "bc"], "pipeline.methods"),
    # a bundled name and the path of its file resolve to one world
    (["sparse", "dense", "{sparse_file}"], "pipeline.eval_worlds"),
], ids=["method", "world"])
def test_duplicate_pipeline_entry_exits_three(names, key, tmp_path, capsys,
                                              monkeypatch):
    from fanav import cli

    def collect_to_ratio(*args, **kwargs):
        raise AssertionError("collected")

    monkeypatch.setattr(cli, "collect_to_ratio", collect_to_ratio)
    sparse_file = str(cli.bundled_world_path("sparse"))
    value = json.dumps([n.format(sparse_file=sparse_file) for n in names])
    out = tmp_path / "p"
    assert run(["pipeline", "--out-dir", str(out),
                "--set", f"{key}={value}"]) == 3
    assert f"{key} must name" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_manifest_hashes_its_config_and_world_files(tmp_path):
    from fanav import cli

    worlds = [str(cli.bundled_world_path(n)) for n in ("sparse", "dense")]
    out = tmp_path / "p"
    assert run(["pipeline", "--out-dir", str(out), "--config", DESK,
                *PIPELINE_SETS, "--set", 'pipeline.methods=["bc"]',
                "--set", "eval.n_tasks=1", "--set", "eval.n_trials=1",
                "--set", f"pipeline.eval_worlds={json.dumps(worlds)}"]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                      for p in (DESK, *worlds)}


@pytest.mark.parametrize("pair, message", [
    ("eval.n_trials=0", "eval.n_trials must be >= 1"),
    ("eval.n_tasks=0", "eval.n_tasks must be >= 1"),
    ("trainer.batch_size=0", "batch_size must be >= 1"),
    ("eval.jitter_pos=-1.0", "eval.jitter_pos must be >= 0"),
    ("eval.jitter_pos=nan", "eval.jitter_pos must be >= 0"),
    ("eval.jitter_heading=-0.5", "eval.jitter_heading must be >= 0"),
    ("eval.min_separation=-1.0", "eval.min_separation must be >= 0"),
    ("expert.min_separation=-1.0", "min_separation must be >= 0"),
])
def test_bad_trainer_or_eval_value_exits_before_collection(
        pair, message, tmp_path, capsys, monkeypatch):
    from fanav import cli

    def collect_to_ratio(*args, **kwargs):
        raise AssertionError("collected")

    monkeypatch.setattr(cli, "collect_to_ratio", collect_to_ratio)
    out = tmp_path / "p"
    assert run(["pipeline", "--out-dir", str(out), "--set", pair]) == 3
    assert message in capsys.readouterr().err
    assert not (out / "dataset.fanav").exists()
    assert not out.exists()


def just_past(value, bound: str):
    """The value nearest to ``bound``, of ``value``'s type, that fails it;
    for a tuple, a list of one such item."""
    if isinstance(value, tuple):
        return [just_past(value[0], bound)]
    op, limit = bound.split()
    limit = type(value)(float(limit))
    if op in (">", "<"):
        return limit
    if isinstance(value, int):
        return limit - 1 if op == ">=" else limit + 1
    return math.nextafter(limit, -math.inf if op == ">=" else math.inf)


# every declared bound of a config key, crossed, then every float key at
# nan and inf, then the memberships, a later list item, the pipeline's lists
# and a separation longer than a room's diagonal; the first cases, and
# run.seed=-1, passed before bounds were declared beside their defaults
BAD_SETTINGS = [
    ("expert.lookahead", -1.0),
    ("expert.plan_inflation", -5.0), ("collect.ratio_tol", -1.0),
    ("pipeline.eval_worlds", []),
    *((f"{cls.section}.{f.name}", just_past(f.default, bound))
      for cls in SECTIONS for f in fields(cls)
      if f.name in DEFAULT_CONFIG[cls.section]
      for bound in f.metadata.get("bounds", ())),
    *((f"{section}.{key}", bad) for section, kv in DEFAULT_CONFIG.items()
      for key, value in kv.items() if isinstance(value, float)
      for bad in (math.nan, math.inf)),
    ("trainer.method", "dqn"), ("trainer.activation", "gelu"),
    ("trainer.hidden", [64, 0]),
    ("pipeline.methods", []), ("pipeline.methods", ["bc", "dqn"]),
    ("pipeline.methods", ["bc", "iql_so", "bc"]),
    ("pipeline.eval_worlds", ["sparse", "dense", "sparse"]),
    ("eval.min_separation", 100.0), ("expert.min_separation", 100.0),
]


@pytest.mark.parametrize("key, value", BAD_SETTINGS,
                         ids=[f"{k}={v!r}" for k, v in BAD_SETTINGS])
def test_pipeline_refuses_each_bad_setting_before_writing(key, value,
                                                           tmp_path, capsys):
    out = tmp_path / "p"
    text = json.dumps(value) if isinstance(value, list) else repr(value)
    assert run(["pipeline", "--out-dir", str(out), "--set",
                f"{key}={text}"]) == 3
    assert f"error: {key} " in capsys.readouterr().err
    assert not out.exists()


def test_each_numeric_setting_has_a_bound():
    # a bound that went missing would drop its cases from BAD_SETTINGS
    unbounded = {f"{cls.section}.{f.name}" for cls in SECTIONS
                 for f in fields(cls)
                 if f.name in DEFAULT_CONFIG[cls.section]
                 and isinstance(f.default, (int, float))
                 and not f.metadata.get("bounds")}
    assert unbounded == set()


def test_a_harvest_key_is_unknown(tmp_path, capsys):
    # the collision harvest's values are expert.HARVEST, not settings
    out = tmp_path / "p"
    assert run(["pipeline", "--out-dir", str(out), "--set",
                "expert.harvest_noise_prob=0.2"]) == 3
    assert "unknown config key expert.harvest_noise_prob" in \
        capsys.readouterr().err
    assert not out.exists()


def test_seed_resolution_order(tmp_path, monkeypatch):
    cfg = tmp_path / "c.toml"
    cfg.write_text("[run]\nseed = 42\n")

    def seed_of(*extra):
        out = str(tmp_path / "w.world")
        assert run(["gen-world", "--density", "0.0", "--out", out,
                    *extra]) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["run"]["seed"]
        return manifest["seed"]

    assert seed_of() == 0
    assert seed_of("--config", str(cfg)) == 42
    assert seed_of("--config", str(cfg), "--seed", "7") == 7
    # --set beats the file and the flag beats --set; the environment
    # plays no part
    monkeypatch.setenv("FANAV_SEED", "99")
    assert seed_of("--config", str(cfg), "--set", "run.seed=5") == 5
    assert seed_of("--seed", "3", "--config", str(cfg),
                   "--set", "run.seed=5") == 3


@pytest.mark.parametrize("section, build", [
    ("robot", robot_spec_from), ("episode", episode_from),
    ("expert", expert_from)])
def test_set_reaches_the_same_named_field(section, build):
    # a different valid value for every key, all set at once
    new = {key: value + 1 if isinstance(value, int) else value / 2 + 0.01
           for key, value in DEFAULT_CONFIG[section].items()}
    built = build(resolve_config(
        None, [f"{section}.{key}={value!r}" for key, value in new.items()]))
    assert asdict(built) == new


def test_desk_toml_is_the_defaults_but_lidar_range():
    # as its header says: desk.toml sets its 6 m sensor and nothing else,
    # so every other value is its code default
    with open(DESK, "rb") as fh:
        assert tomllib.load(fh) == {"robot": {"lidar_range": 6.0}}
    desk, default = resolve_config(DESK, []), resolve_config(None, [])
    assert robot_spec_from(desk) == RobotSpec(lidar_range=6.0)
    assert desk["robot"].pop("lidar_range") == 6.0
    del default["robot"]["lidar_range"]
    assert desk == default


# ---------------------------------------------------------------------------
# gen-world and collect
# ---------------------------------------------------------------------------

def test_gen_world_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a.world"), str(tmp_path / "b.world")
    assert run(["gen-world", "--density", "0.1", "--seed", "5",
                "--out", a]) == 0
    assert run(["gen-world", "--density", "0.1", "--seed", "5",
                "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    w = load_world(a)
    assert len(w.obstacles) > 0
    assert os.path.exists(a + ".manifest.json")


def test_gen_world_density_zero(tmp_path):
    out = str(tmp_path / "empty.world")
    assert run(["gen-world", "--density", "0", "--seed", "1",
                "--out", out]) == 0
    assert load_world(out).obstacles == ()


def test_gen_world_refuses_a_room_too_small_for_obstacles(tmp_path, capsys):
    # a circle of the largest radius, 0.55 m, needs 2 x (0.3 + 0.55) m
    # between the walls; nothing is written for a narrower room
    def gen(width, height, density, out):
        return run(["gen-world", "--width", width, "--height", height,
                    "--density", density, "--seed", "0", "--out", str(out)])

    for width, height in (("1.6", "5"), ("5", "1.6")):
        capsys.readouterr()
        assert gen(width, height, "0.3", tmp_path / "narrow.world") == 3
        assert "each side must be at least 1.7 m" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
    # an infinite side is refused by the room's own bounds check, before
    # any obstacle is sampled
    for width, height in (("inf", "5"), ("5", "inf")):
        capsys.readouterr()
        assert gen(width, height, "0.3", tmp_path / "endless.world") == 3
        assert "world bounds must be finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
    assert gen("1.7", "1.7", "0.3", tmp_path / "small.world") == 0
    assert load_world(str(tmp_path / "small.world")).obstacles
    # an empty room of any positive size is still accepted
    assert gen("0.5", "0.4", "0", tmp_path / "tiny.world") == 0
    tiny = load_world(str(tmp_path / "tiny.world"))
    assert (tiny.width, tiny.height, tiny.obstacles) == (0.5, 0.4, ())


def test_gen_world_refuses_a_room_too_large_to_plan(tmp_path, capsys):
    # 1e6 m sides would ask for 3e11 m2 of obstacles and a planning grid of
    # 1e14 cells; the refusal comes before any obstacle is sampled
    out = tmp_path / "huge.world"
    start = time.perf_counter()
    assert run(["gen-world", "--width", "1e6", "--height", "1e6",
                "--density", "0.3", "--seed", "0", "--out", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "more than 1,000,000" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_collect_gives_up_on_a_separation_its_world_cannot_hold(tmp_path,
                                                                capsys):
    out = tmp_path / "d.fanav"
    start = time.perf_counter()
    assert run(["collect", "--world", "sparse", "--episodes", "1",
                "--out", str(out), "--set", "expert.min_separation=100"]) == 3
    assert time.perf_counter() - start < 5.0
    assert "no start/goal pair 100.0 m apart after 10000 samples" in \
        capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_gen_world_refuses_an_empty_room_too_large_to_plan(tmp_path, capsys):
    # no later command could plan in it, so it is not written either
    assert run(["gen-world", "--width", "1e6", "--height", "1e6",
                "--density", "0", "--out", str(tmp_path / "huge.world")]) == 3
    assert "world 'generated' is too large to plan in" in \
        capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_collect_episodes_and_inspect(tmp_path, capsys):
    out = str(tmp_path / "d.fanav")
    code = run(["collect", "--world", "sparse", "--episodes", "3",
                "--mode", "clean", "--seed", "2", "--out", out,
                "--set", "robot.lidar_beams=12"])
    assert code == 0
    ds = load_dataset(out)
    assert ds.n_exp > 0 and ds.n_col == 0
    assert ds.profile.beam_count == 12
    capsys.readouterr()
    assert run(["dataset", "inspect", out]) == 0
    text = capsys.readouterr().out
    assert "success" in text and "ratio" in text


@pytest.mark.parametrize("mode", [None, "clean", "perturbed"])
def test_collect_records_the_mode_that_ran(mode, tmp_path):
    out = tmp_path / "d.fanav"
    flags = ["--mode", mode] if mode else []
    assert run(["collect", "--world", "sparse", "--episodes", "2", *flags,
                "--out", str(out), "--set", "robot.lidar_beams=8"]) == 0
    assert load_dataset(str(out)).meta["mode"] == (mode or "clean")


@pytest.mark.parametrize("flags", [
    # only an episode count runs a mode
    ["--mode", "perturbed", "--set", "collect.min_transitions=300"],
    # an episode count reads no [collect] setting, by flag or by --set,
    # whose key may start with a space
    ["--episodes", "2", "--target-col-ratio", "0.5"],
    ["--episodes", "2", "--set", " collect.target_col_ratio=0.5"]])
def test_collect_refuses_a_flag_it_would_ignore(flags, tmp_path, capsys):
    out = tmp_path / "d.fanav"
    with pytest.raises(SystemExit) as exc:
        run(["collect", "--world", "sparse", *flags, "--out", str(out),
             "--set", "robot.lidar_beams=8"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, lineno", [
    ("bounds inf 10\n", 1),
    ("bounds 10 10\nrect 1 1 inf 1\n", 2),
    ("bounds 10 10\ncircle 5 5 inf\n", 2)])
def test_non_finite_world_value_exits_three(text, lineno, tmp_path, capsys):
    world = tmp_path / "bad.world"
    world.write_text(text)
    out = tmp_path / "d.fanav"
    code = run(["collect", "--world", str(world), "--episodes", "1",
                "--seed", "1", "--out", str(out)])
    assert code == 3
    assert f"{world}:{lineno}: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_collect_refuses_when_no_episode_ends_and_writes_nothing(tmp_path,
                                                                capsys):
    # one step per episode: each times out, and timeouts are not kept
    assert run(["collect", "--world", "cluttered", "--episodes", "2",
                "--set", "episode.t_max=1",
                "--out", str(tmp_path / "d.fanav")]) == 3
    assert "no episode ended in success or collision" in \
        capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("text", ["bounds 1000000 1000000\nrect 10 10 1 1\n",
                                  "bounds 1000000 1000000\n"])
def test_collect_refuses_a_world_too_large_to_plan_in(text, tmp_path, capsys):
    # collect builds the planning grid before any episode; this one would
    # hold 10^7 x 10^7 cells, and the room is refused before allocating
    world = tmp_path / "huge.world"
    world.write_text("name huge\n" + text)
    assert run(["collect", "--world", str(world), "--episodes", "1",
                "--out", str(tmp_path / "d.fanav")]) == 3
    assert ("world 'huge' is too large to plan in: its planning grid would "
            "hold 100,000,000,000,000 cells, more than 1,000,000"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["huge.world"]


def test_collect_takes_a_config_files_collect_section_with_episodes(
        tmp_path):
    # one config file serves every command, so its [collect] section is
    # allowed with --episodes, where --set collect.* is a usage error
    cfg = tmp_path / "c.toml"
    cfg.write_text("[collect]\nmin_transitions = 5\n")
    out = tmp_path / "d.fanav"
    assert run(["collect", "--world", "sparse", "--episodes", "1",
                "--config", str(cfg), "--out", str(out),
                "--set", "robot.lidar_beams=8"]) == 0
    assert load_dataset(str(out)).meta["mode"] == "clean"


def test_collect_ratio_mode(tmp_path):
    out = str(tmp_path / "r.fanav")
    code = run(["collect", "--world", "cluttered", "--seed", "3",
                "--out", out, "--target-col-ratio", "0.1",
                "--set", "collect.min_transitions=1200",
                "--set", "robot.lidar_beams=12",
                "--set", "collect.ratio_tol=0.02"])
    assert code == 0
    ds = load_dataset(out)
    assert ds.meta["mode"] == "ratio"
    assert ds.n_col > 0
    assert abs(ds.collision_ratio - 0.1) <= 0.02
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["command"] == "collect"
    assert manifest["config"]["collect"]["min_transitions"] == 1200


# ---------------------------------------------------------------------------
# small end-to-end pipeline
# ---------------------------------------------------------------------------

ROBOT_SETS = ["--set", "robot.lidar_beams=16"]
# the rest: train and eval take the robot from their dataset or checkpoint
RUN_SETS = [
    "--set", "collect.min_transitions=900",
    "--set", "collect.ratio_tol=0.02",
    "--set", "trainer.total_steps=120",
    "--set", "trainer.epoch_steps=60",
    "--set", "trainer.batch_size=32",
    "--set", "trainer.hidden=[24, 24]",
    "--set", "eval.n_tasks=4",
    "--set", "eval.n_trials=2",
    "--set", "episode.t_max=120",
    "--set", 'pipeline.eval_worlds=["sparse"]',
    "--set", 'pipeline.collect_world="sparse"',
]
PIPELINE_SETS = ROBOT_SETS + RUN_SETS


def run_tree(out):
    """Every file under ``out`` by relative path, normalized as
    ``tools/run_digests.py`` hashes it: without the manifest's
    ``started_unix`` and ``argv`` or report.csv's seconds column."""
    spec = importlib.util.spec_from_file_location(
        "run_digests", ROOT / "tools" / "run_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_tree(out)


def test_pipeline_end_to_end_and_deterministic(tmp_path, capsys, set_lanes):
    # on one lane, then on three as on two cores: the same bytes and the
    # same output
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    stdout = []
    for out, lanes in ((out1, 1), (out2, 3)):
        set_lanes(lanes)
        capsys.readouterr()
        assert run(["pipeline", "--out-dir", out, "--seed", "7",
                    *PIPELINE_SETS]) == 0
        text = capsys.readouterr().out
        stdout.append(re.sub(r"done in \S+s", "done in", text))
    assert stdout[0] == stdout[1]
    assert stdout[0].count("done in") == 4
    tree1, tree2 = run_tree(out1), run_tree(out2)
    assert sorted(tree1) == sorted(tree2)
    for rel in tree1:
        assert tree1[rel] == tree2[rel], rel
    assert len(tree1) > 40
    c1 = Path(out1, "compare", "comparison.csv").read_text()
    assert "iql_ca" in c1 and "bc" in c1
    # expected artifact tree
    assert os.path.exists(os.path.join(out1, "manifest.json"))
    assert os.path.exists(os.path.join(out1, "dataset.fanav"))
    assert os.path.exists(os.path.join(out1, "suites", "sparse.suite"))
    for m in ("bc", "iql_so", "iql_dm", "iql_ca"):
        assert os.path.exists(os.path.join(out1, "train", m, "report.csv"))
        assert os.path.exists(os.path.join(out1, "train", m, "config.echo"))
        assert os.path.exists(os.path.join(out1, "train", m,
                                           "ckpt_00000120.famlp"))
        assert os.path.exists(os.path.join(out1, "eval", m, "sparse",
                                           "result.json"))
        assert os.path.exists(os.path.join(out1, "eval", m, "sparse",
                                           "trajectories", "overlay.svg"))
    # manifest can rebuild the config: echoed values match the overrides
    manifest = json.loads(Path(out1, "manifest.json").read_text())
    assert manifest["config"]["trainer"]["total_steps"] == 120
    assert manifest["config"]["eval"]["n_tasks"] == 4


def test_pipeline_banners_are_the_tracers_stage_marks(tmp_path, capsys):
    # perfbench/tracer.py times cli.stage.<stage>_s from the printed line
    # that starts with each stage's "[k/5]"; a banner reworded, dropped or
    # moved would mislabel those spans in a traced run without failing it
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    capsys.readouterr()
    assert run(["pipeline", "--out-dir", str(tmp_path / "p"), "--seed", "3",
                *PIPELINE_SETS, "--set", 'pipeline.methods=["bc"]',
                "--set", "eval.n_tasks=1", "--set", "eval.n_trials=1"]) == 0
    marks = [line[:5] for line in capsys.readouterr().out.splitlines()
             if line[:5] in tracer.BANNERS]
    assert marks == list(tracer.BANNERS)


def test_pipeline_collects_as_fanav_collect_does(tmp_path):
    # one stage writes both datasets, so only the command in their meta
    # tells them apart
    sets = ["--seed", "3", *PIPELINE_SETS]
    collected = tmp_path / "collect.fanav"
    assert run(["collect", "--world", "sparse", "--out", str(collected),
                *sets]) == 0
    assert run(["pipeline", "--out-dir", str(tmp_path / "p"), *sets,
                "--set", 'pipeline.methods=["bc"]',
                "--set", "eval.n_tasks=1", "--set", "eval.n_trials=1"]) == 0
    a = load_dataset(str(collected))
    b = load_dataset(str(tmp_path / "p" / "dataset.fanav"))
    assert a.profile == b.profile
    assert a.exp.equals(b.exp) and a.col.equals(b.col)
    assert (a.meta["command"], b.meta["command"]) == ("collect", "pipeline")
    assert {**b.meta, "command": "collect"} == a.meta
    assert a.meta["mode"] == "ratio"


def test_lane_error_exits_as_in_serial(tmp_path, monkeypatch, capsys,
                                       set_lanes):
    from fanav import cli

    original = cli.train

    def train(ds, cfg, *args, **kwargs):
        if cfg.method == "iql_dm":
            raise NumericError("iql_dm diverged")
        return original(ds, cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "train", train)
    errors = []
    for lanes in (1, 2):  # on two lanes iql_dm trains in the child
        set_lanes(lanes)
        capsys.readouterr()
        assert run(["pipeline", "--out-dir", str(tmp_path / str(lanes)),
                    "--seed", "7", *PIPELINE_SETS,
                    "--set", 'pipeline.methods=["bc", "iql_dm"]']) == 5
        errors.append(capsys.readouterr().err)
        with pytest.raises(ChildProcessError):  # every lane was reaped
            os.waitpid(-1, os.WNOHANG)
    assert errors[0] == errors[1] == "error: iql_dm diverged\n"


def test_config_echo_replays_each_method_of_a_pipeline(tmp_path):
    # the echo holds the seed the run used and the job's method, so
    # training on the pipeline's dataset with it alone rewrites its
    # checkpoints and its echo byte for byte
    out = tmp_path / "run"
    assert run(["pipeline", "--out-dir", str(out), "--seed", "3",
                *PIPELINE_SETS, "--set", "eval.n_tasks=1",
                "--set", "eval.n_trials=1"]) == 0
    for m in METHODS:
        piped, again = out / "train" / m, tmp_path / m
        assert run(["train", "--config", str(piped / "config.echo"),
                    "--dataset", str(out / "dataset.fanav"),
                    "--out-dir", str(again)]) == 0
        names = sorted(p.name for p in piped.glob("*.famlp"))
        assert names == ["ckpt_00000120.famlp", "final.famlp"]
        for name in names + ["config.echo"]:
            assert (again / name).read_bytes() == \
                (piped / name).read_bytes(), (m, name)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pipeline") / "run")
    assert run(["pipeline", "--out-dir", out, "--seed", "5",
                *PIPELINE_SETS]) == 0
    return out


def test_pipeline_writes_every_artifact_the_benchmark_reads(pipeline_run,
                                                           monkeypatch):
    # perfbench/workloads.py fails a pipeline operation on a missing or
    # empty artifact; a file dropped here fails this test, not a benchmark
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    workload = module.Pipeline(str(ROOT), pipeline_run, seed=5)
    workload.tree = resolve_config(None, PIPELINE_SETS[1::2])
    paths = workload.artifacts()
    assert "train/iql_ca/ckpt_00000120.famlp" in paths
    for rel in paths:
        path = os.path.join(pipeline_run, rel)
        assert os.path.isfile(path) and os.path.getsize(path) > 0, rel


def test_every_manifest_records_the_numeric_platform(pipeline_run, tmp_path,
                                                     monkeypatch):
    # the record reads files only: platform.processor() would start
    # `uname -p`, a child whose peak memory is its parent's
    def no_child(*args, **kwargs):
        raise AssertionError(f"a manifest started a process: {args}")

    monkeypatch.setattr(subprocess, "Popen", no_child)
    monkeypatch.setattr(os, "fork", no_child)
    out = str(tmp_path / "g.world")
    assert run(["gen-world", "--density", "0.1", "--out", out]) == 0
    record = json.loads(Path(out + ".manifest.json").read_text())["platform"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert record == {"python": platform.python_version(),
                      "numpy": np.__version__,
                      "blas": f"{blas['name']} {blas['version']}",
                      "cpu": record["cpu"]}
    assert record["cpu"] in Path("/proc/cpuinfo").read_text()
    piped = json.loads(Path(pipeline_run, "manifest.json").read_text())
    assert piped["platform"] == record


def test_peak_rss_tool_runs_one_command_and_keeps_its_exit_code(tmp_path):
    tool = [sys.executable, str(ROOT / "tools" / "peak_rss.py")]
    out = tmp_path / "g.world"
    done = subprocess.run([*tool, "gen-world", "--density", "0.1", "--out",
                           str(out)], capture_output=True, text=True)
    assert done.returncode == 0 and out.exists()
    lines = done.stdout.splitlines()
    assert lines[0].startswith("wrote ")
    assert re.fullmatch(r"peak_rss_mb \d+\.\d\d \(\d+\.\d MiB\)", lines[-1])
    # numpy alone takes more than 10 MB
    assert float(lines[-1].split()[1]) > 10
    argv = ["dataset", "inspect", str(tmp_path / "none.fanav")]
    failed = subprocess.run([*tool, *argv], capture_output=True, text=True)
    assert failed.returncode == run(argv) != 0
    assert failed.stdout.startswith("peak_rss_mb ")


def test_untested_lines_tool_names_the_statements_a_run_missed():
    # test_worldgen.py never asks for a room too small for obstacles
    source = (ROOT / "src" / "fanav" / "worldgen.py").read_text().splitlines()
    refusal = 1 + next(i for i, line in enumerate(source)
                       if "m room is too small for obstacles" in line)
    sampled = 1 + next(i for i, line in enumerate(source)
                       if "shapes = _sample_layout(" in line)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "untested_lines.py"), "-q",
         "-p", "no:cacheprovider", str(ROOT / "tests" / "test_worldgen.py")],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    missed = [line for line in lines
              if re.fullmatch(r"src/fanav/\w+\.py:\d+", line)]
    assert lines[-1] == f"{len(missed)} statements never ran"
    assert f"src/fanav/worldgen.py:{refusal}" in missed
    assert f"src/fanav/worldgen.py:{sampled}" not in missed


def eval_argv(pipeline_run, method, out_dir, *extra, world="sparse",
              suite=None):
    """``fanav eval`` of the pipeline's ``method`` checkpoint on its sparse
    suite with the pipeline's seed and episode horizon."""
    ckpt = os.path.join(pipeline_run, "train", method, "ckpt_00000120.famlp")
    suite = suite or os.path.join(pipeline_run, "suites", "sparse.suite")
    return ["eval", "--checkpoint", ckpt, "--world", world, "--suite", suite,
            "--out-dir", str(out_dir), "--seed", "5",
            "--set", "episode.t_max=120", *extra]


def test_eval_takes_the_robot_from_the_checkpoint(pipeline_run, tmp_path):
    # no robot setting, and no config: the checkpoint's 16 beams are used
    edir = tmp_path / "e"
    assert run(eval_argv(pipeline_run, "iql_ca", edir,
                         "--set", "eval.n_trials=2")) == 0
    orig = os.path.join(pipeline_run, "eval", "iql_ca", "sparse",
                        "result.json")
    assert (edir / "result.json").read_bytes() == Path(orig).read_bytes()
    config = json.loads((edir / "manifest.json").read_text())["config"]
    assert config["robot"] == asdict(RobotSpec(lidar_beams=16))
    assert config["eval"]["n_trials"] == 2
    # desk.toml's 6 m sensor is not the checkpoint's 30 m one
    assert run(eval_argv(pipeline_run, "iql_ca", tmp_path / "desk",
                         "--config", DESK)) == 3
    assert not (tmp_path / "desk").exists()


def test_eval_replays_the_pipelines_episodes(pipeline_run, tmp_path):
    # the pipeline evaluates the suite as saved, so every trajectory file
    # of `fanav eval` on it is the pipeline's, byte for byte
    for m in ("bc", "iql_so", "iql_dm", "iql_ca"):
        edir = tmp_path / m
        assert run(eval_argv(pipeline_run, m, edir,
                             "--set", "eval.n_trials=2")) == 0
        piped = os.path.join(pipeline_run, "eval", m, "sparse")
        names = sorted(os.listdir(edir / "trajectories"))
        assert names == sorted(os.listdir(os.path.join(piped,
                                                       "trajectories")))
        assert len(names) == 5  # four tasks and the overlay
        for name in ["result.json"] + [f"trajectories/{n}" for n in names]:
            assert (edir / name).read_bytes() == \
                Path(piped, name).read_bytes(), (m, name)


def test_eval_and_compare_from_pipeline_artifacts(pipeline_run, tmp_path,
                                                  capsys):
    out = pipeline_run
    suite = os.path.join(out, "suites", "sparse.suite")
    capsys.readouterr()
    cdir = str(tmp_path / "cmp")
    code = run(["compare", "--results",
                os.path.join(out, "eval", "bc", "sparse"),
                os.path.join(out, "eval", "iql_ca", "sparse"),
                "--out-dir", cdir])
    assert code == 0
    table = capsys.readouterr().out
    assert "bc" in table and "iql_ca" in table
    assert os.path.exists(os.path.join(cdir, "comparison.csv"))

    # the pipeline is the subcommands chained: collect, train each method,
    # eval each on the pipeline's suite, compare
    chain = tmp_path / "chain"
    ds_path = str(chain / "d.fanav")
    os.makedirs(chain)
    common = ["--seed", "5", *RUN_SETS]
    assert run(["collect", "--world", "sparse", "--out", ds_path,
                *ROBOT_SETS, *common]) == 0
    eval_dirs = []
    for m in ("bc", "iql_so", "iql_dm", "iql_ca"):
        tdir = str(chain / "train" / m)
        assert run(["train", "--method", m, "--dataset", ds_path,
                    "--out-dir", tdir, *common]) == 0
        eval_dirs.append(str(chain / "eval" / m))
        assert run(["eval", "--checkpoint",
                    os.path.join(tdir, "ckpt_00000120.famlp"),
                    "--world", "sparse", "--suite", suite,
                    "--out-dir", eval_dirs[-1], *common]) == 0
    assert run(["compare", "--results", *eval_dirs,
                "--out-dir", str(chain / "compare")]) == 0
    chained = (chain / "compare" / "comparison.csv").read_bytes()
    piped = Path(out, "compare", "comparison.csv").read_bytes()
    assert chained == piped
    a = load_dataset(ds_path)
    b = load_dataset(os.path.join(out, "dataset.fanav"))
    assert a.exp.equals(b.exp) and a.col.equals(b.col)
    assert a.profile == b.profile


def test_pipeline_and_compare_order_a_table_alike(tmp_path):
    # the pipeline hands its results over in pipeline.methods order and
    # compare in --results order; both tables list methods as METHODS does
    out = tmp_path / "p"
    assert run(["pipeline", "--out-dir", str(out), "--seed", "3",
                *PIPELINE_SETS, "--set", 'pipeline.methods=["iql_ca", "bc"]',
                "--set", "eval.n_tasks=1", "--set", "eval.n_trials=1"]) == 0
    cdir = tmp_path / "cmp"
    assert run(["compare", "--results",
                *(str(out / "eval" / m / "sparse") for m in ("iql_ca", "bc")),
                "--out-dir", str(cdir)]) == 0
    piped = (out / "compare" / "comparison.csv").read_bytes()
    assert (cdir / "comparison.csv").read_bytes() == piped
    assert piped.index(b"bc") < piped.index(b"iql_ca")


def test_compare_manifest_hashes_each_result_it_read(pipeline_run, tmp_path):
    dirs = [os.path.join(pipeline_run, "eval", m, "sparse")
            for m in ("bc", "iql_ca")]
    cdir = tmp_path / "cmp"
    assert run(["compare", "--results", *dirs, "--out-dir", str(cdir)]) == 0
    manifest = json.loads((cdir / "manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["config"] is manifest["seed"] is None  # it reads none
    assert manifest["inputs"] == {
        os.path.join(d, "result.json"): hashlib.sha256(
            Path(d, "result.json").read_bytes()).hexdigest() for d in dirs}


def test_a_command_does_not_replace_another_commands_manifest(
        pipeline_run, tmp_path, capsys):
    def files(root):
        return {os.path.relpath(os.path.join(d, n), root):
                Path(d, n).read_bytes()
                for d, _, names in os.walk(root) for n in names}

    out = tmp_path / "run"  # a copy: the shared run stays as it was made
    shutil.copytree(pipeline_run, out)
    before = files(out)
    results = os.path.join(pipeline_run, "eval", "bc", "sparse")
    manifest = str(out / "manifest.json")
    for argv, cmd in ((["compare", "--results", results,
                        "--out-dir", str(out)], "compare"),
                      (eval_argv(pipeline_run, "bc", out), "eval")):
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert f"{manifest} is the manifest of fanav pipeline; fanav {cmd} " \
               "will not replace it" in err
    assert files(out) == before
    # nor a file that is not a fanav manifest
    other = tmp_path / "other"
    other.mkdir()
    for text in ("not json", '{"tool": "else", "command": "compare"}', "[]"):
        (other / "manifest.json").write_text(text)
        assert run(["compare", "--results", results,
                    "--out-dir", str(other)]) == 3
        assert os.listdir(other) == ["manifest.json"]
        assert "is not a fanav manifest" in capsys.readouterr().err
    # a rerun replaces its own manifest
    cdir = str(tmp_path / "cmp")
    for _ in range(2):
        assert run(["compare", "--results", results, "--out-dir", cdir]) == 0
    # collect refuses a path whose manifest gen-world wrote before it
    # replaces the world
    room = str(tmp_path / "room")
    assert run(["gen-world", "--density", "0", "--out", room]) == 0
    world = Path(room).read_bytes()
    assert run(["collect", "--world", "sparse", "--episodes", "1",
                "--out", room]) == 3
    assert Path(room).read_bytes() == world


def test_result_json_round_trips_and_malformed_ones_exit_four(
        pipeline_run, tmp_path, capsys):
    from fanav.evaluation import load_eval_result, save_eval_result

    good = os.path.join(pipeline_run, "eval", "bc", "sparse", "result.json")
    again = str(tmp_path / "again.json")
    save_eval_result(load_eval_result(good), again)
    assert Path(again).read_bytes() == Path(good).read_bytes()

    d = json.loads(Path(good).read_text())
    n = d["n_tasks"]
    bad_dicts = [
        {k: v for k, v in d.items() if k != "suite_digest"},
        {**d, "outcomes": []},
        {**d, "outcomes": [[]] * d["n_trials"]},
        {**d, "outcomes": [["success"] * n, ["success"] * (n - 1)]},
        {**d, "outcomes": [["crashed"] * n] * d["n_trials"]},
        {**d, "outcomes": [[1] * n] * d["n_trials"]},
        {**d, "sr": d["sr"] + 1.0},
        {**d, "n_tasks": n + 1},
        {**d, "tr_trials": [0.5] * d["n_trials"]},
        [d],
    ]
    texts = [json.dumps(b) for b in bad_dicts] + ["{not json", ""]
    rdir = tmp_path / "r"
    os.makedirs(rdir)
    for text in texts:
        (rdir / "result.json").write_text(text)
        capsys.readouterr()
        assert run(["compare", "--results", str(rdir),
                    "--out-dir", str(tmp_path / "cmp")]) == 4, text
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rdir / 'result.json'}: malformed "
                              "evaluation result"), err
    assert not os.path.exists(tmp_path / "cmp")


@pytest.mark.parametrize("key", ["world", "suite_digest", "method"])
def test_a_result_naming_by_a_number_exits_four(key, pipeline_run, tmp_path,
                                                capsys):
    # compare would table the result under it, or fail to sort it
    good = os.path.join(pipeline_run, "eval", "bc", "sparse", "result.json")
    rdir = tmp_path / "r"
    os.makedirs(rdir)
    (rdir / "result.json").write_text(json.dumps(
        {**json.loads(Path(good).read_text()), key: 0.5}))
    capsys.readouterr()
    assert run(["compare", "--results", str(rdir),
                "--out-dir", str(tmp_path / "cmp")]) == 4
    assert capsys.readouterr().err.startswith(
        f"error: {rdir / 'result.json'}: malformed evaluation result")
    assert not os.path.exists(tmp_path / "cmp")


@pytest.mark.parametrize("line", ["task 1 1 0 nan 5", "task nan 1 0 5 5",
                                  "task 1 1 0 5 inf"])
def test_non_finite_suite_value_exits_three(line, pipeline_run, tmp_path,
                                            capsys):
    suite = tmp_path / "bad.suite"
    suite.write_text("world sparse\nradius 0.2\n" + line + "\n")
    capsys.readouterr()
    assert run(eval_argv(pipeline_run, "bc", tmp_path / "e",
                         suite=str(suite))) == 3
    assert f"{suite}:3: non-finite value" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "e")


def test_suite_of_another_world_or_radius_exits_three(pipeline_run,
                                                      tmp_path, capsys):
    edir = tmp_path / "e"
    capsys.readouterr()
    assert run(eval_argv(pipeline_run, "bc", edir, world="cluttered")) == 3
    assert ("suite was built for world 'sparse', got 'cluttered'"
            in capsys.readouterr().err)
    text = Path(pipeline_run, "suites", "sparse.suite").read_text()
    head, radius, tasks = text.split("\n", 2)
    assert (head, radius) == ("world sparse", "radius 0.2")
    suite = tmp_path / "wide.suite"
    suite.write_text(f"{head}\nradius 0.35\n{tasks}")
    assert run(eval_argv(pipeline_run, "bc", edir, suite=str(suite))) == 3
    assert ("suite was built for robot radius 0.35, got 0.2"
            in capsys.readouterr().err)
    # a suite from before the world and radius lines
    suite.write_text(tasks)
    assert run(eval_argv(pipeline_run, "bc", edir, suite=str(suite))) == 3
    err = capsys.readouterr().err
    assert f"{suite}:1: expected 'world ...'" in err and "re-create it" in err
    assert not edir.exists()


# a valid value other than the pipeline robot's, for each RobotSpec field
OTHER_ROBOT = {"radius": 0.35, "v_max": 0.25, "omega_max": 1.0,
               "lidar_fov_deg": 180.0, "lidar_beams": 12, "lidar_range": 6.0,
               "control_dt": 0.5}


@pytest.mark.parametrize("field", sorted(asdict(RobotSpec())))
def test_eval_refuses_robot_or_checkpoint_mismatch(field, pipeline_run,
                                                   tmp_path, capsys):
    ckpt = os.path.join(pipeline_run, "train", "iql_ca", "ckpt_00000120.famlp")
    value = OTHER_ROBOT[field]
    assert getattr(RobotSpec(lidar_beams=16), field) != value
    capsys.readouterr()
    assert run(eval_argv(pipeline_run, "iql_ca", tmp_path / "e",
                         "--set", f"robot.{field}={value!r}")) == 3
    err = capsys.readouterr().err
    assert f"robot.{field}={value!r}" in err and ckpt in err, err
    assert not os.path.exists(tmp_path / "e")


@pytest.mark.parametrize("field", ["radius", "lidar_beams"])
def test_train_refuses_a_robot_other_than_the_datasets(field, pipeline_run,
                                                       tmp_path, capsys):
    ds = os.path.join(pipeline_run, "dataset.fanav")
    capsys.readouterr()
    # a short run, should the robot pass
    assert run(["train", "--dataset", ds, "--out-dir", str(tmp_path / "t"),
                "--set", "trainer.total_steps=2", "--set", "trainer.hidden=[8]",
                "--set", f"robot.{field}={OTHER_ROBOT[field]!r}"]) == 3
    err = capsys.readouterr().err
    assert f"robot.{field}=" in err and ds in err, err
    assert not os.path.exists(tmp_path / "t")


def test_train_refuses_an_episode_other_than_the_datasets(pipeline_run,
                                                         tmp_path, capsys):
    # the dataset's rewards were made with r_success 20 and c1 2
    ds = os.path.join(pipeline_run, "dataset.fanav")
    cfg = tmp_path / "episode.toml"
    cfg.write_text("[episode]\nc1 = 9.0\n")
    for argv, given in ((["--set", "episode.r_success=5",
                          "--set", "episode.c1=9"], "episode.r_success=5.0"),
                        (["--config", str(cfg)], "episode.c1=9.0")):
        capsys.readouterr()
        assert run(["train", "--method", "bc", "--dataset", ds, "--out-dir",
                    str(tmp_path / "t"), "--set", "trainer.total_steps=2",
                    "--set", "trainer.hidden=[8]", *argv]) == 3
        err = capsys.readouterr().err
        assert f"the config gives {given} but {ds} holds" in err, err
        assert not os.path.exists(tmp_path / "t")
    # the dataset's own values pass, and the echo records them
    assert run(["train", "--method", "bc", "--dataset", ds, "--out-dir",
                str(tmp_path / "t"), "--set", "trainer.total_steps=2",
                "--set", "trainer.hidden=[8]",
                "--set", "episode.r_success=20.0"]) == 0
    echo = tomllib.loads((tmp_path / "t" / "config.echo").read_text())
    assert echo["episode"] == load_dataset(ds).episode.to_dict()


@pytest.mark.parametrize("method, pair, key", [
    ("iql_ca", "lr_value=-3e-4", "lr_value"),  # Adam would ascend the loss
    ("iql_ca", "lr_policy=0", "lr_policy"),
    ("iql_ca", "target_alpha=0.0", "target_alpha"),
    ("bc", "target_alpha=2.0", "target_alpha"),  # bc blends no targets
    ("bc", "batch_size=0", "batch_size"),
    ("bc", 'activation="gelu"', "activation"),
    ("bc", "hidden=[0]", "hidden"),
])
def test_train_refuses_a_bad_trainer_value_before_writing(
        method, pair, key, pipeline_run, tmp_path, capsys):
    ds = os.path.join(pipeline_run, "dataset.fanav")
    capsys.readouterr()
    assert run(["train", "--method", method, "--dataset", ds,
                "--out-dir", str(tmp_path / "t"),
                "--set", "trainer.total_steps=2", "--set", "trainer.hidden=[8]",
                "--set", f"trainer.{pair}"]) == 3
    assert key in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "t")


def flat_profile(profile: dict) -> dict:
    """An encoder profile in the layout that listed four robot fields."""
    robot = profile["robot"]
    return {"beam_count": robot["lidar_beams"],
            "range_max": robot["lidar_range"], "v_max": robot["v_max"],
            "omega_max": robot["omega_max"], "d_norm": profile["d_norm"]}


def test_dataset_with_a_flat_profile_exits_four(pipeline_run, tmp_path,
                                                capsys):
    from fanav import binio

    meta, arrays = binio.read(os.path.join(pipeline_run, "dataset.fanav"),
                              "dataset")
    bad = str(tmp_path / "flat.fanav")
    binio.write(bad, "dataset",
                {**meta, "profile": flat_profile(meta["profile"])}, arrays)
    for argv in (["dataset", "inspect", bad],
                 ["train", "--dataset", bad, "--out-dir",
                  str(tmp_path / "t")]):
        capsys.readouterr()
        assert run(argv) == 4
        assert f"{bad}: bad dataset (KeyError('robot')" in \
            capsys.readouterr().err


def robot_set(profile: dict, **values) -> dict:
    """An encoder profile whose robot holds ``values`` instead."""
    return {**profile, "robot": {**profile["robot"], **values}}


def mutated_dataset(meta: dict, arrays: dict, mutation: str
                    ) -> tuple[dict, dict]:
    """A dataset's header meta and arrays with one ``mutation`` applied to
    its success partition."""
    arrays = dict(arrays)
    lengths = arrays["exp/lengths"].copy()
    if mutation == "length 0":
        lengths[1:3] = lengths[1] + lengths[2], 0
    elif mutation == "lengths one row short":
        lengths[-1] -= 1
    elif mutation == "one last too many":
        arrays["exp/last"] = np.concatenate((arrays["exp/last"],
                                             arrays["exp/last"][:1]))
    elif mutation == "one traj_id too few":
        arrays["exp/traj_ids"] = arrays["exp/traj_ids"][:-1]
    elif mutation == "per-row layout":
        arrays = {k: v for k, v in arrays.items()
                  if not k.endswith(("/lengths", "/last"))}
    elif mutation == "every traj_id 7":
        arrays["exp/traj_ids"] = np.full_like(arrays["exp/traj_ids"], 7)
    elif mutation == "a traj_id in both partitions":
        arrays["col/traj_ids"] = arrays["col/traj_ids"].copy()
        arrays["col/traj_ids"][-1] = arrays["exp/traj_ids"][0]
    elif mutation == "t_max true, lidar_range an int":
        meta = {**meta, "episode": {**meta["episode"], "t_max": True},
                "profile": robot_set(meta["profile"], lidar_range=6)}
    elif mutation == "lidar_beams a float":
        beams = meta["profile"]["robot"]["lidar_beams"]
        meta = {**meta, "profile": robot_set(meta["profile"],
                                             lidar_beams=float(beams))}
    else:
        meta = {**meta, "profile": {**meta["profile"], "d_norm": 0.0}}
    if "exp/lengths" in arrays:
        arrays["exp/lengths"] = lengths
    return meta, arrays


@pytest.mark.parametrize("mutation, message", [
    ("length 0", "exp/lengths holds a length below 1"),
    ("lengths one row short", r"exp/features is float32 \((\d+), 20\), "
                              r"expected float32 \((?!\1)\d+, 20\)"),
    ("one last too many", r"exp/last is float32 \((\d+), 20\), expected "
                          r"float32 \((?!\1)\d+, 20\)"),
    ("one traj_id too few", r"exp/traj_ids is int64 \((\d+),\), expected "
                            r"int64 \((?!\1)\d+,\)"),
    ("per-row layout", "holds a column per transition field, the layout "
                       "before trajectories; re-create it"),
    ("d_norm 0", "d_norm must be finite and > 0, got 0.0"),
    ("every traj_id 7", "a trajectory id repeats in exp/traj_ids or "
                        "col/traj_ids"),
    ("a traj_id in both partitions", "a trajectory id repeats in "
                                     "exp/traj_ids or col/traj_ids"),
    # a header meets a config file's type rule: a bool is no int, and
    # neither is 16.0, which used to end in an IndexError
    ("t_max true, lidar_range an int", "config episode.t_max = True does "
                                       "not have the type of its default 200"),
    ("lidar_beams a float", "config robot.lidar_beams = 16.0 does not have "
                            "the type of its default 108")])
def test_train_refuses_rows_that_no_episode_gives(mutation, message,
                                                  pipeline_run, tmp_path,
                                                  capsys):
    meta, arrays = mutated_dataset(*binio.read(
        os.path.join(pipeline_run, "dataset.fanav"), "dataset"), mutation)
    bad = str(tmp_path / "bad.fanav")
    binio.write(bad, "dataset", meta, arrays)
    # a file that loaded would train briefly, with or without desk.toml
    for config in ([], ["--config", DESK]):
        capsys.readouterr()
        assert run(["train", "--method", "bc", "--dataset", bad, "--out-dir",
                    str(tmp_path / "t"), "--set", "trainer.total_steps=2",
                    "--set", "trainer.hidden=[8]", *config]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and re.search(message, err), \
            err
        assert not os.path.exists(tmp_path / "t")


def test_a_header_int_passes_for_a_float_setting(pipeline_run, tmp_path):
    # lidar_range 6 in the header and 6.0 in desk.toml are one value
    meta, arrays = binio.read(os.path.join(pipeline_run, "dataset.fanav"),
                              "dataset")
    ds = str(tmp_path / "int.fanav")
    binio.write(ds, "dataset",
                {**meta, "profile": robot_set(meta["profile"], lidar_range=6)},
                arrays)
    out = tmp_path / "t"
    assert run(["train", "--method", "bc", "--dataset", ds, "--out-dir",
                str(out), "--config", DESK, "--set", "trainer.total_steps=2",
                "--set", "trainer.hidden=[8]"]) == 0
    assert "lidar_range = 6.0\n" in (out / "config.echo").read_text()
    _, meta = load_checkpoint(str(out / "final.famlp"))
    assert repr(meta["profile"]["robot"]["lidar_range"]) == "6.0"


def test_eval_refuses_a_malformed_checkpoint(pipeline_run, tmp_path, capsys):
    ckpt = os.path.join(pipeline_run, "train", "iql_ca", "ckpt_00000120.famlp")
    suite = os.path.join(pipeline_run, "suites", "sparse.suite")

    def eval_code(path):
        return run(["eval", "--checkpoint", path, "--world", "sparse",
                    "--suite", suite, "--out-dir", str(tmp_path / "e"),
                    "--seed", "5"])

    sections, meta = load_checkpoint(ckpt)
    bare = str(tmp_path / "bare.famlp")
    # a checkpoint without the policy sections
    final_sections, final_meta = load_checkpoint(
        os.path.join(pipeline_run, "train", "iql_ca", "final.famlp"))
    save_checkpoint(bare, {"value": final_sections["value"]}, final_meta)
    assert eval_code(bare) == 4
    assert "is not a policy checkpoint" in capsys.readouterr().err
    # a policy_mean whose 10 params do not fit its widths' 74
    binio.write(bare, "checkpoint", {"sections": [
        {"name": "policy_mean", "widths": [6, 8, 2], "activation": "relu"},
        {"name": "policy_log_std", "widths": [2], "activation": "none"}],
        "meta": meta}, {"policy_mean/params": np.zeros(10, np.float32),
                        "policy_log_std/params": np.zeros(2, np.float32)})
    assert eval_code(bare) == 4
    assert f"{bare}: policy_mean: theta has shape (10,), expected (74,)" \
        in capsys.readouterr().err
    save_checkpoint(bare, sections, {})
    assert eval_code(bare) == 4
    for key in ("profile", "config"):
        save_checkpoint(bare, sections,
                        {k: v for k, v in meta.items() if k != key})
        assert eval_code(bare) == 4
        assert f"'{key}'" in capsys.readouterr().err
    # present but malformed
    profile = {k: v for k, v in meta["profile"].items() if k != "d_norm"}
    config = meta["config"]
    for bad in ({"profile": profile}, {"profile": "robot"},
                {"profile": flat_profile(meta["profile"])},
                {"profile": {**meta["profile"], "robot": {
                    **meta["profile"]["robot"], "radius": -1.0}}},
                {"config": []},
                {"config": {k: v for k, v in config.items()
                            if k != "method"}},
                # compare would table the result under such a method
                {"config": {**config, "method": 7}},
                {"config": {**config, "method": ["bc"]}},
                {"profile": {**meta["profile"], "d_norm": "far"}}):
        save_checkpoint(bare, sections, {**meta, **bad})
        assert eval_code(bare) == 4
        assert "malformed checkpoint metadata" in capsys.readouterr().err

    # a byte flipped in the middle of the checkpoint
    blob = bytearray(Path(ckpt).read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    with open(bare, "wb") as fh:
        fh.write(bytes(blob))
    assert eval_code(bare) == 4
    assert "Bad CRC-32" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "e")


@pytest.mark.parametrize("section, at, width", [
    ("policy_mean", 0, -math.inf), ("policy_mean", -1, 2.5),
    ("policy_mean", -1, 2.0), ("policy_mean", -1, "2"),
    ("policy_log_std", 0, 2.0)])
def test_eval_refuses_a_width_that_is_not_a_positive_integer(
        section, at, width, pipeline_run, tmp_path, capsys):
    # a width must be a JSON integer >= 1: int() would overflow on -inf
    # and read 2.5, 2.0 and "2" as 2
    argv = eval_argv(pipeline_run, "iql_ca", tmp_path / "e")
    i = argv.index("--checkpoint") + 1
    header, arrays = binio.read(argv[i], "checkpoint")
    spec = next(s for s in header["sections"] if s["name"] == section)
    spec["widths"][at] = width
    argv[i] = str(tmp_path / "bad.famlp")
    binio.write(argv[i], "checkpoint", header, arrays)
    capsys.readouterr()
    assert run(argv) == 4
    assert (f"{argv[i]}: {section}: bad layer widths {spec['widths']}, "
            "not all integers >= 1") in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "e")


@pytest.mark.parametrize("header", [
    {"sections": 5, "meta": {}}, {"sections": []},
    {"sections": ["x"], "meta": {}}])
def test_eval_refuses_a_checkpoint_header_it_cannot_read(
        header, pipeline_run, tmp_path, capsys):
    argv = eval_argv(pipeline_run, "iql_ca", tmp_path / "e")
    i = argv.index("--checkpoint") + 1
    argv[i] = str(tmp_path / "bad.famlp")
    binio.write(argv[i], "checkpoint", header, {})
    capsys.readouterr()
    assert run(argv) == 4
    assert f"error: {argv[i]}: bad checkpoint (" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "e")


@pytest.mark.parametrize("part", ["outputs", "log_std", "features"])
def test_eval_names_the_checkpoint_whose_policy_head_does_not_fit(
        part, pipeline_run, tmp_path, capsys):
    argv = eval_argv(pipeline_run, "iql_ca", tmp_path / "e")
    i = argv.index("--checkpoint") + 1
    nets, meta = load_checkpoint(argv[i])
    widths = list(nets["policy_mean"].widths)
    if part == "outputs":
        widths[-1] = 3
        message = "policy mean network must have 2 outputs"
    elif part == "log_std":
        nets["policy_log_std"] = np.zeros(3, np.float32)
        message = "log_std must have shape (2,)"
    else:
        widths[0] += 1
        message = (f"checkpoint expects {widths[0]}-dim features but the "
                   f"encoder produces {widths[0] - 1}")
    nets["policy_mean"] = Mlp.initialized(
        tuple(widths), nets["policy_mean"].activation,
        np.random.default_rng(0))
    argv[i] = str(tmp_path / "bad.famlp")
    save_checkpoint(argv[i], nets, meta)
    capsys.readouterr()
    assert run(argv) == 4
    assert f"error: {argv[i]}: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "e")


# the four [trainer] settings that were the policy head's constants, at the
# values every checkpoint written with them lists
HEAD_SETTINGS = {"log_std_min": -5.0, "log_std_max": 2.0,
                 "log_std_init": -0.5, "policy_final_scale": 0.01}


def test_a_checkpoint_listing_the_head_settings_evaluates_as_before(
        pipeline_run, tmp_path):
    assert GaussianPolicyHead.LOG_STD_BOUNDS == (
        HEAD_SETTINGS["log_std_min"], HEAD_SETTINGS["log_std_max"])
    assert GaussianPolicyHead.LOG_STD_INIT == HEAD_SETTINGS["log_std_init"]
    assert GaussianPolicyHead.FINAL_SCALE == \
        HEAD_SETTINGS["policy_final_scale"]
    argv = eval_argv(pipeline_run, "iql_ca", tmp_path / "e",
                     "--set", "eval.n_trials=2")
    at = argv.index("--checkpoint") + 1
    sections, meta = load_checkpoint(argv[at])
    argv[at] = str(tmp_path / "older.famlp")
    save_checkpoint(argv[at], sections,
                    {**meta, "config": {**meta["config"], **HEAD_SETTINGS}})
    assert run(argv) == 0
    piped = Path(pipeline_run, "eval", "iql_ca", "sparse", "result.json")
    assert (tmp_path / "e" / "result.json").read_bytes() == \
        piped.read_bytes()


def test_an_echo_naming_a_head_setting_exits_three(pipeline_run, tmp_path,
                                                  capsys):
    # a config.echo written while the head's values were settings lists
    # them under [trainer]
    piped = Path(pipeline_run, "train", "iql_ca", "config.echo")
    echo = tmp_path / "config.echo"
    echo.write_text(piped.read_text().replace(
        "[trainer]\n", "[trainer]\nlog_std_min = -5.0\n"))
    capsys.readouterr()
    assert run(["train", "--config", str(echo), "--dataset",
                os.path.join(pipeline_run, "dataset.fanav"),
                "--out-dir", str(tmp_path / "t")]) == 3
    assert "unknown config key trainer.log_std_min" in \
        capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_compare_refuses_a_world_twice(pipeline_run, tmp_path, capsys):
    sparse = os.path.join(pipeline_run, "eval", "bc", "sparse")
    capsys.readouterr()
    assert run(["compare", "--results", sparse, sparse,
                "--out-dir", str(tmp_path / "c")]) == 3
    assert "a world appears twice in ['sparse', 'sparse']" in \
        capsys.readouterr().err
    assert not os.path.exists(tmp_path / "c")


def test_train_emits_expected_artifacts(tmp_path):
    ds_path = str(tmp_path / "d.fanav")
    assert run(["collect", "--world", "sparse", "--seed", "2",
                "--out", ds_path, "--target-col-ratio", "0.12",
                "--set", "collect.min_transitions=700",
                "--set", "collect.ratio_tol=0.03",
                "--set", "robot.lidar_beams=12"]) == 0
    tdir = str(tmp_path / "t")
    assert run(["train", "--method", "bc", "--dataset", ds_path,
                "--out-dir", tdir, "--seed", "1",
                "--set", "trainer.total_steps=50",
                "--set", "trainer.epoch_steps=25",
                "--set", "trainer.batch_size=16",
                "--set", "trainer.hidden=[16]"]) == 0
    echo = Path(tdir, "config.echo").read_text()
    assert 'method = "bc"' in echo
    assert "[run]\nseed = 1\n" in echo
    assert "total_steps = 50" in echo
    # every section is echoed so no hyperparameter stays hidden
    for section in ("robot", "episode", "expert", "collect", "trainer", "eval"):
        assert f"[{section}]" in echo
    report = Path(tdir, "report.csv").read_text().splitlines()
    assert len(report) == 3  # header + 2 epochs
    manifest = json.loads(Path(tdir, "manifest.json").read_text())
    assert ds_path in manifest["inputs"]


def test_a_refused_train_writes_nothing(tmp_path, capsys):
    # a zero collision target keeps successes only
    ds = str(tmp_path / "d.fanav")
    assert run(["collect", "--world", "sparse", "--target-col-ratio", "0",
                "--out", ds, "--set", "collect.min_transitions=50",
                "--set", "robot.lidar_beams=8"]) == 0
    capsys.readouterr()
    out = tmp_path / "t"
    assert run(["train", "--method", "iql_ca", "--dataset", ds,
                "--out-dir", str(out), "--set", "trainer.total_steps=2"]) == 3
    assert "iql_ca: empty collision partition" in capsys.readouterr().err
    assert not out.exists()


def test_train_manifest_goes_inside_an_out_dir_with_a_dot(tmp_path):
    ds = str(tmp_path / "d.fanav")
    assert run(["collect", "--world", "sparse", "--episodes", "2",
                "--out", ds, "--seed", "1",
                "--set", "robot.lidar_beams=8"]) == 0
    out = tmp_path / "run.v2"
    assert run(["train", "--method", "bc", "--dataset", ds,
                "--out-dir", str(out), "--seed", "1",
                "--set", "trainer.total_steps=2",
                "--set", "trainer.batch_size=8",
                "--set", "trainer.hidden=[8]"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert not (tmp_path / "run.v2.manifest.json").exists()


def test_a_manifest_records_when_its_command_started(tmp_path, monkeypatch):
    from fanav import cli

    ds = str(tmp_path / "d.fanav")
    assert run(["collect", "--world", "sparse", "--episodes", "2",
                "--out", ds, "--seed", "1",
                "--set", "robot.lidar_beams=8"]) == 0
    stage_began = []

    def train_stage(*args, real=cli.train_stage):
        stage_began.append(time.time())
        return real(*args)

    monkeypatch.setattr(cli, "train_stage", train_stage)
    out = tmp_path / "t"
    assert run(["train", "--method", "bc", "--dataset", ds,
                "--out-dir", str(out), "--set", "trainer.total_steps=2",
                "--set", "trainer.hidden=[8]"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["started_unix"] <= stage_began[0]
