"""Print one SHA-256 digest line per training method on a dataset.

    python tools/param_digests.py DATASET [--steps N] [--seed S]

Each method in ``fanav.trainers.METHODS`` trains on DATASET for N steps
(default 1000) at seed S (default 0), with every other trainer setting at
its default, which is desk.toml's. A line is ``<digest>  <method>``, where
the digest is the SHA-256 over the method's every-step ``param_trace``:
one network digest per step, each followed by a newline. ``diff`` of two
builds' output then names the methods whose parameters differ at any step.
"""
from __future__ import annotations

import argparse
import hashlib
import sys

from fanav.data import load_dataset
from fanav.trainers import METHODS, TrainerConfig, train


def digest_lines(dataset: str, steps: int, seed: int) -> list[str]:
    ds = load_dataset(dataset)
    lines = []
    for method in METHODS:
        cfg = TrainerConfig(method=method, total_steps=steps, seed=seed)
        trace = train(ds, cfg, trace_params=True).param_trace
        digest = hashlib.sha256("".join(t + "\n" for t in trace).encode())
        lines.append(f"{digest.hexdigest()}  {method}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="param_digests.py",
        description="SHA-256 of each method's every-step parameter digests")
    parser.add_argument("dataset")
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print("\n".join(digest_lines(args.dataset, args.steps, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
