"""The documented library API: the README quick start runs as written,
every public name in the package has a user outside the tests, and
every name the benchmark's tracer patches is where it looks for it."""
import ast
import csv
import hashlib
import importlib
import importlib.util
import inspect
import pkgutil
import types
from collections import Counter
from pathlib import Path

import fanav

ROOT = Path(__file__).resolve().parents[1]


def quick_start_code() -> str:
    """The README's library quick start, as written."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Quick start (library)", 1)[1]
    return code.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_results_equal_the_committed_csv():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Results\n", 1)[1].split("\n## ", 1)[0]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("| ") and "---" not in line]
    header, quoted = rows[0], rows[1:]
    worlds = [h.removesuffix(" SR") for h in header[1:]]
    with open(ROOT / "results" / "desk_seed0" / "comparison.csv",
              encoding="utf-8") as fh:
        committed = {(r["method"], r["world"]): f"{r['sr_mean']} ± "
                     f"{r['sr_std']}" for r in csv.DictReader(fh)}
    assert {(row[0], w): cell for row in quoted
            for w, cell in zip(worlds, row[1:])} == committed


def test_desk_digests_name_the_committed_comparison():
    # digests.txt records the run the committed tables came from
    desk = ROOT / "results" / "desk_seed0"
    lines = (desk / "digests.txt").read_text(encoding="utf-8").splitlines()
    recorded = {name: digest for digest, name in
                (line.split("  ", 1) for line in lines)}
    for name in ("comparison.csv", "comparison.txt"):
        assert recorded[f"compare/{name}"] == hashlib.sha256(
            (desk / name).read_bytes()).hexdigest(), name


def test_readme_quick_start_runs_at_toy_size(monkeypatch, capsys):
    code = quick_start_code()
    # 400 transitions are too few whole trajectories to trim to the default
    # ratio_tol of 0.01 on this world and seed; 500 are enough
    for full, toy in (("min_transitions=20_000", "min_transitions=500"),
                      ("total_steps=30_000", "total_steps=20"),
                      ("n_tasks=50", "n_tasks=2")):
        assert code.count(full) == 1, full
        code = code.replace(full, toy)
    monkeypatch.chdir(ROOT)
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert ns["actions"].shape == (8, 2)
    assert ns["v_col"].shape == (8,)
    result = ns["result"]
    assert len(ns["suite"]) == 2 and len(result.outcomes) == 3
    assert result.sr + result.cr + result.tr == 100.0
    assert capsys.readouterr().out.strip()


def code_references(tree: ast.AST) -> Counter:
    """Identifiers the code in ``tree`` refers to: names, attributes and
    imported names; strings and comments do not count."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
    return refs


def public_names():
    """``(module, name)`` of every public function, class and method
    (property, classmethod and staticmethod included) a fanav module
    defines; a method's name is ``Class.method``."""
    for info in pkgutil.iter_modules(fanav.__path__):
        module = importlib.import_module(f"fanav.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not (
                    inspect.isfunction(obj) or inspect.isclass(obj)) \
                    or obj.__module__ != module.__name__:
                continue
            yield module.__name__, name
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and isinstance(
                        member, (types.FunctionType, property, classmethod,
                                 staticmethod)):
                    yield module.__name__, f"{name}.{attr}"


def test_every_public_name_has_a_caller():
    # a caller is package code (not the re-exports in __init__.py), the
    # benchmark, or the README quick start, which the test above runs
    sources = [p for d in (ROOT / "src" / "fanav", ROOT / "perfbench")
               for p in sorted(d.glob("*.py")) if p.name != "__init__.py"]
    refs = sum((code_references(ast.parse(p.read_text(encoding="utf-8")))
                for p in sources),
               code_references(ast.parse(quick_start_code())))
    unused = [f"{module}.{name}" for module, name in public_names()
              if not refs[name.rsplit(".", 1)[-1]]]
    assert not unused, f"public names only tests use: {unused}"


def test_benchmark_tracer_installs_and_uninstalls():
    # perfbench/tracer.py patches names where their callers look them up
    # (cli.load_dataset, cli.make_suite, evaluation.load_checkpoint, ...);
    # a name that moves fails here, not only in a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    names = {f"{owner.__name__}.{attr}" for owner, attr, _ in patched}
    assert {"fanav.cli.load_dataset", "fanav.cli.make_suite",
            "fanav.evaluation.load_checkpoint"} <= names
    assert all(owner.__dict__.get(attr) is original
               for owner, attr, original in patched)
