"""Bytes unchanged: two runs match the records in ``tests/golden/``.

- ``pipeline_seed0.txt``: the ``tools/run_digests.py`` lines of the
  reduced pipeline (``fanav pipeline --config desk.toml --seed 0`` with
  :data:`PIPELINE_SETS`), ``manifest.json`` lines left out;
- ``desk_collect_seed0.txt``: the SHA-256 of the dataset ``fanav collect
  --config desk.toml --seed 0 --world cluttered`` writes;
- ``variants_seed0.txt``: the SHA-256 of the datasets the same command
  writes from each demonstrator variant (:data:`VARIANTS`): the noise-off
  demonstrator, the noisy one, and the ratio collector at a zero target;
- ``train_seed0.txt``: per method of ``fanav.trainers.METHODS``, trained
  on that dataset at seed 0 for :data:`TRAIN_STEPS` steps in epochs of
  :data:`EPOCH_STEPS` (two full epochs and a partial one), the SHA-256 of
  its every-step ``param_trace`` and the ``tools/run_digests.py`` lines of
  its out-dir: ``report.csv`` less seconds and both checkpoints' members;
- ``platform.json``: the ``fanav.cli.numeric_platform()`` they were made
  on. On another platform the bits cannot be judged, so the test skips.

The runs go on one lane, in process. A change that moves bytes on purpose
regenerates the records, on the platform the test runs on, with

    PYTHONPATH=src python tests/test_golden.py

and says which artifacts changed and why.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

from fanav import lanes
from fanav.cli import main, numeric_platform
from fanav.data import load_dataset
from fanav.trainers import METHODS, TrainerConfig, train

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DESK = str(ROOT / "desk.toml")
# the pipeline workload's reductions (perfbench/workloads.py, Pipeline.sets)
PIPELINE_SETS = ("collect.min_transitions=2000", "collect.ratio_tol=0.03",
                 "trainer.total_steps=300", "eval.n_tasks=4",
                 "eval.n_trials=1")
TRAIN_STEPS, EPOCH_STEPS = 250, 100
# the demonstrator variants' collect arguments, by dataset name
VARIANTS = {"clean.fanav": ("--episodes", "8", "--mode", "clean"),
            "perturbed.fanav": ("--episodes", "8", "--mode", "perturbed"),
            "ratio0.fanav": ("--target-col-ratio", "0", "--set",
                             "collect.min_transitions=1000")}


def _run_digests():
    spec = importlib.util.spec_from_file_location(
        "run_digests", ROOT / "tools" / "run_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def train_lines(dataset: Path, tmp: Path) -> list[str]:
    """Train every method on ``dataset`` under ``tmp``; the digest lines of
    each method's ``param_trace`` and out-dir."""
    ds = load_dataset(str(dataset))
    lines = []
    for method in METHODS:
        cfg = TrainerConfig(method=method, total_steps=TRAIN_STEPS,
                            epoch_steps=EPOCH_STEPS, seed=0)
        trace = train(ds, cfg, out_dir=str(tmp / method),
                      trace_params=True).param_trace
        digest = hashlib.sha256("".join(t + "\n" for t in trace).encode())
        lines.append(f"{digest.hexdigest()}  {method}/param_trace")
    return lines + _run_digests().digest_lines(str(tmp))


def collect_line(dataset: Path, *args: str) -> str:
    """Collect the cluttered world at seed 0 into ``dataset``; its digest
    line."""
    assert main(["collect", "--config", DESK, "--seed", "0", "--world",
                 "cluttered", "--out", str(dataset), *args]) == 0
    return f"{hashlib.sha256(dataset.read_bytes()).hexdigest()}  {dataset.name}"


def records(tmp: Path) -> dict[str, list[str]]:
    """Run the commands under ``tmp``; each record's lines, by file name."""
    run_dir, dataset = tmp / "pipeline", tmp / "desk.fanav"
    argv = ["pipeline", "--config", DESK, "--seed", "0",
            "--out-dir", str(run_dir)]
    for pair in PIPELINE_SETS:
        argv += ["--set", pair]
    assert main(argv) == 0
    return {"pipeline_seed0.txt": [
                line for line in _run_digests().digest_lines(str(run_dir))
                if not line.endswith("manifest.json")],
            "desk_collect_seed0.txt": [collect_line(dataset)],
            "variants_seed0.txt": [collect_line(tmp / name, *args)
                                   for name, args in VARIANTS.items()],
            "train_seed0.txt": train_lines(dataset, tmp / "train")}


def _by_artifact(lines: list[str]) -> dict[str, str]:
    return dict(reversed(line.split("  ", 1)) for line in lines)


def test_runs_keep_the_golden_bytes(tmp_path, set_lanes):
    recorded = json.loads((GOLDEN / "platform.json").read_text())
    if recorded != numeric_platform():
        pytest.skip(f"records made on {recorded}; this is "
                    f"{numeric_platform()}")
    set_lanes(1)
    for name, lines in records(tmp_path).items():
        want = _by_artifact((GOLDEN / name).read_text().splitlines())
        got = _by_artifact(lines)
        differs = sorted(p for p in want.keys() | got.keys()
                         if want.get(p) != got.get(p))
        assert not differs, (f"{name}: first artifact that differs is "
                             f"{differs[0]} ({len(differs)} in all)")


if __name__ == "__main__":
    lanes.lane_count = lambda: 1
    with tempfile.TemporaryDirectory() as tmp:
        made = records(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for name, lines in made.items():
        (GOLDEN / name).write_text("\n".join(lines) + "\n")
    (GOLDEN / "platform.json").write_text(
        json.dumps(numeric_platform(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(made)} records and platform.json to {GOLDEN}")
