"""Run alternating parent/change pairs of the benchmark and summarize them.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workloads train,pipeline --seeds 50-59 \\
        --claim pipeline/items_per_s --out BENCH_28.json

PARENT_TREE and CHANGE_TREE are two checkouts (exported trees will do).
Pair ``k`` runs seed ``k`` of ``--seeds`` on both sides, for each workload
in turn: ``OMP_NUM_THREADS=1 python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`` in that tree, the parent first in even pairs and
the change first in odd ones. Fix the seeds before running, and use none
that served while the change was written.

The output file holds every run's end-to-end metrics and, per workload and
metric (those ``BENCHMARK.json`` of the change tree declares), each side's
median and quartiles (``numpy.percentile``, linear), ``change_wins`` (pairs
in which the change is better; ties count for neither), ``median_change``,
``parent_iqr``, ``worse_by_fraction`` (how much worse the change's median
is, as a fraction of the parent's; negative when better) and
``within_bound`` (against the declared bound). With ``--claim
WORKLOAD/METRIC`` it adds the claim's verdict: met when the change wins at
least nine tenths of the pairs and its median is better by more than the
parent's interquartile range. A run that exits non-zero, prints no result
or reports failed operations counts in ``failed_runs``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list[int]:
    """``50-59`` or ``50,52,57``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per declared metric, the two sides' statistics over ``runs`` (each
    with ``pair``, ``side`` and the metric values); pairs missing a side's
    value are left out."""
    out = {}
    for m in declared:
        name, higher = m["name"], m["better"] == "higher"
        by_pair: dict[int, dict] = {}
        for r in runs:
            if r.get(name) is not None:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r[name]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        sides = {s: quartiles([p[s] for p in pairs]) for s in SIDES}
        wins = sum((p["change"] > p["parent"]) if higher
                   else (p["change"] < p["parent"]) for p in pairs)
        parent, change = sides["parent"]["median"], sides["change"]["median"]
        worse = (parent - change if higher else change - parent) / parent
        out[name] = {
            **sides, "unit": m["unit"], "better": m["better"],
            "change_wins": f"{wins} of {len(pairs)}",
            "median_change": change - parent,
            "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
            "worse_by_fraction": round(worse, 4), "bound": m["bound"],
            "within_bound": worse <= m["bound"]}
    return out


def claim_verdict(summary: dict, metric: str) -> dict:
    """Met when the change wins at least nine tenths of the pairs and its
    median is better by more than the parent's interquartile range."""
    s = summary[metric]
    wins, pairs = map(int, s["change_wins"].split(" of "))
    gain = s["median_change"] if s["better"] == "higher" \
        else -s["median_change"]
    return {"change_wins": s["change_wins"], "median_gain": gain,
            "parent_iqr": s["parent_iqr"],
            "rule": "the change wins >= 9 of 10 pairs, and its median is "
                    "better by more than the parent's IQR",
            "met": wins >= math.ceil(0.9 * pairs) and gain > s["parent_iqr"]}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its header's machine record and its result, or
    ``None`` for the result when it printed none."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    machine, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            obj = json.loads(line)
            machine = obj.get("machine", machine)
            if "metrics" in obj:
                result = obj
    return {"machine": machine,
            "result": result if proc.returncode == 0 else None}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_tree")
    p.add_argument("change_tree")
    p.add_argument("--workloads", default="train,pipeline")
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--claim", help="WORKLOAD/METRIC the change claims")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    with open(os.path.join(args.change_tree, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    workloads = args.workloads.split(",")
    runs: dict[str, list] = {w: [] for w in workloads}
    machines, failed = {}, {w: 0 for w in workloads}
    for k, seed in enumerate(args.seeds):
        for w in workloads:
            for i, side in enumerate(SIDES if k % 2 == 0 else SIDES[::-1]):
                got = run_once(trees[side], w, seed, args.seconds)
                machines.setdefault(side, got["machine"])
                res = got["result"]
                run = {"pair": k, "seed": seed, "side": side,
                       "ran_first": i == 0}
                if res is None or res["failed"]:
                    failed[w] += 1
                if res is not None:
                    run.update(failed=res["failed"],
                               attempted=res["attempted"],
                               **{n: m["value"] for n, m in
                                  res["metrics"].items()})
                runs[w].append(run)
                print(json.dumps(run), flush=True)
    report = {
        "command": "OMP_NUM_THREADS=1 python3 perfbench/run.py --workload "
                   f"{{{','.join(workloads)}}} --seed N --seconds "
                   f"{args.seconds:g} --trace 0",
        "seeds": args.seeds,
        "order": "alternating: pairs with even k run the parent first, "
                 "odd k the change first",
        "quartiles": "numpy.percentile, linear interpolation, over the "
                     "runs of one side",
        "source_digest": {s: (machines.get(s) or {}).get("source_digest")
                          for s in SIDES},
        "machine": machines.get("parent"),
        "workloads": {w: {"runs": runs[w],
                          "summary": summarize(runs[w], declared),
                          "failed_runs": failed[w]} for w in workloads}}
    if args.claim:
        workload, metric = args.claim.split("/")
        report["claim"] = {"metric": args.claim, **claim_verdict(
            report["workloads"][workload]["summary"], metric)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
