"""The documented library API: the README quick start runs as written,
every public function in the package has a caller outside the tests, and
every name the benchmark's tracer patches is where it looks for it."""
import ast
import importlib
import importlib.util
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import fanav

ROOT = Path(__file__).resolve().parents[1]

# reference implementations that tests compare the vectorized code against
TEST_ORACLES = {"ray_circle", "ray_rect", "scalar_expectile"}


def test_readme_quick_start_runs_at_toy_size(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Quick start (library)", 1)[1]
    code = code.split("```python\n", 1)[1].split("```", 1)[0]
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
    result = ns["result"]
    assert len(ns["suite"]) == 2 and result.n_trials == 3
    assert result.sr + result.cr + result.tr == 100.0
    assert capsys.readouterr().out.strip()


def code_references(path: Path) -> Counter:
    """Identifiers the code in ``path`` refers to: names, attributes and
    imported names; strings and comments do not count."""
    refs = Counter()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
    return refs


def test_every_public_function_has_a_caller():
    refs = sum((code_references(p)
                for d in (ROOT / "src" / "fanav", ROOT / "perfbench")
                for p in sorted(d.glob("*.py"))), Counter())
    unused = []
    for info in pkgutil.iter_modules(fanav.__path__):
        module = importlib.import_module(f"fanav.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if (name.startswith("_") or fn.__module__ != module.__name__
                    or name in fanav.__all__ or name in TEST_ORACLES):
                continue
            if not refs[name]:
                unused.append(f"{module.__name__}.{name}")
    assert not unused, f"public functions only tests call: {unused}"


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
