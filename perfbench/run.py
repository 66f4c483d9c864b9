"""fanav benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload collect --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

``--workload`` is one of collect, train, eval, pipeline, or ``all``, which
runs each workload in its own process, one after the other. ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` instead
wraps the public functions of each fanav module (see tracer.py) and reports
the per-layer metrics plus ``trace.overhead_s``.

The program is imported from ``src/`` of the checkout, with one BLAS/OpenMP
thread (``OMP_NUM_THREADS=1``). Outputs are written under
``.perfbench_work/`` of the checkout and removed at exit. The last line of
standard output is one JSON object: ``correct``, ``attempted`` (operations
checked), ``failed`` and ``metrics``. The lines before it record the machine,
the resolved config digest, each repeat's output digest and the workload's
own figures (transitions_per_s, step_ms.*, episode_ms.*, pipeline_s, ...).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("collect", "train", "eval", "pipeline")
SETUPS = 5          # set-ups per run at least, and more until they take
SETUP_S = 1.0       # this long; setup_s is their median
MIN_REPEATS = 3     # repeats a run times at least (see Workload.rate)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time of one run (at least two repeats)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine and source record
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fanav")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine() -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in
                _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = \
                _read(f"{base}/{index}/size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "caches": caches, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            **{v.lower(): os.environ.get(v) for v in THREAD_VARS},
            "git_commit": git_commit(), "source_digest": source_digest()}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def metric(name: str, value: float, unit: str) -> None:
    print(f"metric {name} {value:.6g} {unit}", flush=True)


def run_workload(args) -> int:
    from workloads import WORKLOADS, Ledger

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    ledger = Ledger()
    w = WORKLOADS[args.workload](ROOT, work, args.seed)
    try:
        body = run_traced if args.trace else run_untraced
        metrics = body(w, args, ledger)
    except Exception:  # report the failure; no result without measurements
        traceback.print_exc()
        metrics = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    if metrics is not None:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            declared = json.load(fh)["per_layer" if args.trace
                                     else "end_to_end"]
        ledger.op("metric names", [] if {m["name"] for m in declared} == set(
            metrics) else ["reported metrics differ from BENCHMARK.json"])
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr, flush=True)
    if metrics is None:
        return 1
    failed = len(ledger.failures)
    metric("failed_ratio", failed / max(1, ledger.attempted), "failed/op")
    emit({"correct": failed == 0, "attempted": ledger.attempted,
          "failed": failed,
          "metrics": {n: {"value": v, "unit": u}
                      for n, (v, u) in metrics.items()}})
    return 0


def header(w, args, setup_digest: str) -> None:
    emit({"workload": w.name, "why": w.why, "item": w.item,
          "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
          "config_digest": w.config_digest, "config_sets": list(w.sets),
          "input_digest": setup_digest, "machine": machine()})


def check_digests(ledger, repeats) -> None:
    """Every repeat does the same work, so all must produce one digest."""
    for k, r in enumerate(repeats[1:], start=1):
        ledger.op(f"repeat {k} determinism",
                  [] if r.digest == repeats[0].digest else
                  [f"digest {r.digest[:16]} != {repeats[0].digest[:16]}"])


def run_untraced(w, args, ledger) -> dict:
    setup_s, digests = [], []
    while len(setup_s) < SETUPS or sum(setup_s) < SETUP_S:
        t0 = time.perf_counter()
        digests.append(w.setup())
        setup_s.append(time.perf_counter() - t0)
    ledger.op("set-up determinism", [] if len(set(digests)) == 1
              else ["set-ups built different inputs"])
    header(w, args, digests[0])
    w.install_clocks()

    repeats = []
    start = time.perf_counter()
    while (len(repeats) < MIN_REPEATS
           or time.perf_counter() - start < args.seconds):
        try:
            r = w.repeat(ledger)
        except Exception:  # counted as a failed operation
            ledger.op(f"repeat {len(repeats)}", [traceback.format_exc()])
            if not repeats:
                raise
            break
        print(f"repeat {len(repeats)} wall_s={r.wall_s:.4f} items={r.items} "
              f"digest={r.digest[:16]}", flush=True)
        repeats.append(r)
    check_digests(ledger, repeats)

    summary = {**w.summary(repeats),
               "repeat_s": (statistics.median(r.wall_s for r in repeats), "s")}
    for name, (value, unit) in summary.items():
        metric(name, value, unit)
    metrics = {
        "items_per_s": (w.rate(repeats), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for name, (value, unit) in metrics.items():
        metric(name, value, unit)
    return metrics


def run_traced(w, args, ledger) -> dict:
    """Untraced and traced repeats alternate twice; the per-layer metrics
    come from the second traced repeat, and its exact counts must equal the
    first's. The wrappers are in place only during the traced repeats, so
    the untraced ones run the program as it is."""
    from tracer import REACHED, Tracer, exact_names, layer_metrics

    w.in_process = True
    header(w, args, w.setup())
    plain, traced = [], []
    for _ in range(2):
        plain.append(w.repeat(ledger))
        tracer = Tracer()
        tracer.install()
        try:
            r = w.repeat(ledger)
        finally:
            tracer.uninstall()
        traced.append((r, layer_metrics(
            tracer, r.values.get("artifact_mb", 0.0))))
        print(f"repeat untraced wall_s={plain[-1].wall_s:.4f} "
              f"traced wall_s={r.wall_s:.4f}", flush=True)
        ledger.op("trace reach", [
            f"{name} never called" for name in REACHED[w.name]
            if not tracer.calls[name]])
    check_digests(ledger, plain + [r for r, _ in traced])
    (r0, m0), (r1, m1) = traced
    ledger.op("trace exact counts", [
        f"{n}: {m0[n][0]} != {m1[n][0]}" for n in exact_names(m0)
        if m0[n][0] != m1[n][0]])
    metrics = dict(m1)
    metrics["trace.overhead_s"] = (
        statistics.median([r0.wall_s, r1.wall_s])
        - statistics.median(r.wall_s for r in plain), "s")
    for name, (value, unit) in metrics.items():
        metric(name, value, unit)
    return metrics


# ---------------------------------------------------------------------------
# all workloads, each in its own process
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}", flush=True)
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    emit(combined)
    return 0


def main(argv=None) -> int:
    # on SIGTERM, unwind: the work directory is removed and a running
    # pipeline subprocess is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    missing = [p for p in ("desk.toml", os.path.join("src", "fanav",
                                                     "__init__.py"))
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run the "
              "benchmark from a fanav checkout", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.dirname(os.path.abspath(__file__))]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
