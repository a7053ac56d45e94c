"""Every entry point imports only the modules it runs.

scipy loads only where an LP or MILP is solved: the exact MILP, its LP
relaxation and the coflow LP bound import scipy inside the functions
that solve (``ccf_exact``, ``_solve_lp``, ``interval_indexed_lp``).
Everything else -- ``import repro``, planning, heuristic scheduling --
must start without it.

Package ``__init__`` modules re-export lazily, and imports point down the
layer stack: ``import repro`` loads no other ``repro`` module, and the
simulator, the service loop and the benchmark hot path load neither the
operator layers (``repro.analytics``, ``repro.join``) nor the sweep
engine and the process pools it brings.  The ``ccf`` parser reads
experiment names from the lazy registry and scheduler names from a
numpy-free table, so only a command that runs an experiment imports its
module, and ``import repro.cli`` loads no numpy.

Each check runs in a fresh interpreter, since the test process may
already have loaded any of these modules.

Every module earns its place: one that no ``ccf`` command and no
registered experiment can import is named, with its reason, in
DESIGN.md's "Library-only modules" list.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_modules(code: str, cwd: Path) -> set[str]:
    """Run ``code`` in a fresh interpreter; the modules it left loaded."""
    probe = textwrap.dedent(code) + (
        "\nimport sys\n"
        "print('MODULES', ' '.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    verdict = proc.stdout.strip().splitlines()[-1]
    assert verdict.startswith("MODULES "), proc.stdout
    return set(verdict.split()[1:])


def _loads_scipy(code: str, cwd: Path) -> bool:
    """Run ``code`` in a fresh interpreter; report whether scipy loaded."""
    return any(
        m.partition(".")[0] == "scipy" for m in _loaded_modules(code, cwd)
    )


def _cli(*argv: str) -> str:
    return f"""
        from repro.cli import main
        assert main({list(argv)!r}) == 0
    """


@pytest.mark.parametrize("module", [
    "repro",
    "repro.core",
    "repro.network",
    "repro.service",
    "repro.workloads",
    "repro.experiments.hotpath",
])
def test_import_leaves_scipy_out(module, tmp_path):
    assert not _loads_scipy(f"import {module}", tmp_path)


def test_plan_and_simulate_leave_scipy_out(tmp_path):
    assert not _loads_scipy(
        _cli("plan", "--nodes", "25", "--out", "p.json"), tmp_path
    )
    assert not _loads_scipy(_cli("simulate", "p.json"), tmp_path)
    assert not _loads_scipy(
        _cli("simulate", "p.json", "--scheduler", "wcct5"), tmp_path
    )


def test_lp_paths_still_load_scipy(tmp_path):
    # lpcct orders only when more than one coflow is active, so the
    # replay needs a mix; the LP bound solves on any instance.
    mix = """
        from repro.network.flow import Coflow, Flow
        from repro.network.io import save_coflows
        save_coflows([
            Coflow(flows=[Flow(src=0, dst=1, volume=4e8 * (k + 1)),
                          Flow(src=2, dst=3, volume=4e8 * (3 - k))],
                   arrival_time=0.5 * k, coflow_id=k)
            for k in range(3)
        ], "mix.json")
    """
    assert not _loads_scipy(mix, tmp_path)
    assert _loads_scipy(
        _cli("simulate", "mix.json", "--scheduler", "lpcct"), tmp_path
    )
    assert _loads_scipy(
        """
        from repro.network.bounds import weighted_cct_lower_bound
        from repro.network.fabric import Fabric
        from repro.network.io import load_coflows
        bound = weighted_cct_lower_bound(load_coflows("mix.json"), Fabric(4))
        assert bound.lower_bound > 0
        """,
        tmp_path,
    )


def test_import_repro_loads_only_the_package(tmp_path):
    loaded = _loaded_modules("import repro", tmp_path)
    assert sorted(m for m in loaded if m.partition(".")[0] == "repro") == [
        "repro"
    ]


#: What the simulator, the service loop and the benchmark hot path never
#: run: the operator layers and the sweep engine with its process pools.
NOT_ON_THE_HOT_PATH = (
    "repro.analytics",
    "repro.join",
    "repro.experiments.engine",
    "repro.experiments.registry",
    "multiprocessing",
    "concurrent.futures",
)


@pytest.mark.parametrize("module", [
    "repro.network.simulator",
    "repro.service.loop",
    "repro.experiments.hotpath",
])
def test_hot_path_imports_stay_down_the_stack(module, tmp_path):
    loaded = _loaded_modules(f"import {module}", tmp_path)
    assert module in loaded
    leaked = sorted(
        m for m in loaded
        if any(m == bad or m.startswith(bad + ".")
               for bad in NOT_ON_THE_HOT_PATH)
    )
    assert not leaked, f"import {module} loaded {leaked}"


@pytest.mark.parametrize("case", ["import", "stats"])
def test_cli_loads_no_experiment_module(case, tmp_path):
    code = "import repro.cli"
    if case == "stats":
        from repro.cli import main

        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            assert main(["plan", "--nodes", "6", "--out", "p.json"]) == 0
            assert main(["simulate", "p.json", "--trace", "t.jsonl"]) == 0
        finally:
            os.chdir(cwd)
        code = _cli("stats", "t.jsonl")
    loaded = _loaded_modules(code, tmp_path)
    assert "repro.cli" in loaded
    leaked = sorted(
        m for m in loaded
        if m.startswith("repro.experiments.")
        and m != "repro.experiments.registry"
    )
    assert not leaked, f"ccf {case} loaded {leaked}"


def test_cli_loads_no_numpy(tmp_path):
    # ``--scheduler``'s choices come from ``repro.network.scheduler_names``.
    loaded = _loaded_modules("import repro.cli", tmp_path)
    assert "repro.cli" in loaded
    assert not [m for m in loaded if m.partition(".")[0] == "numpy"]


def test_scheduler_package_imports_every_discipline(tmp_path):
    # perfbench/perf_trace.py wraps ``allocate`` on the classes it finds
    # by walking ``CoflowScheduler.__subclasses__()`` once, right after
    # this import: a discipline module loaded later would go untraced.
    _loaded_modules("""
        import repro.network.schedulers as schedulers
        from repro.network.schedulers.base import CoflowScheduler

        seen, todo = set(), [CoflowScheduler]
        while todo:
            cls = todo.pop()
            seen.add(cls)
            todo.extend(cls.__subclasses__())
        missing = [
            name for name in schedulers.SCHEDULER_NAMES
            if type(schedulers.make_scheduler(name)) not in seen
        ]
        assert not missing, missing
    """, tmp_path)


def _module_files() -> dict[str, Path]:
    """Dotted name -> source file of every module under ``src/repro``."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _static_reach(roots: list[str], files: dict[str, Path]) -> set[str]:
    """Modules reachable from ``roots`` through ``import`` statements.

    Function-level imports count (handlers import what they run), and a
    name taken from a lazily re-exporting package resolves through that
    package's submodule -> names map to the submodule defining it.
    """
    trees = {m: ast.parse(path.read_text()) for m, path in files.items()}
    lazy: dict[str, dict[str, str]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_lazy_exports"
            ):
                table = ast.literal_eval(node.args[1])
                lazy[module] = {
                    name: f"{module}.{sub}"
                    for sub, names in table.items() for name in names
                }

    def provider(package: str, name: str) -> str:
        """What ``from package import name`` loads, through the maps."""
        while name in lazy.get(package, {}):
            package = lazy[package][name]
        return f"{package}.{name}"

    def imported(module: str):
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module
                for alias in node.names:
                    yield provider(node.module, alias.name)

    seen: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        while name and name not in files:  # a name inside a module
            name = name.rpartition(".")[0]
        if name and name not in seen:
            seen.add(name)
            todo.append(name.rpartition(".")[0])  # its package
            todo.extend(imported(name))
    return seen


def _library_only_modules() -> set[str]:
    """The modules DESIGN.md's "Library-only modules" list names."""
    design = (SRC.parent / "DESIGN.md").read_text()
    section = design.split("## 7. Library-only modules", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^- `(repro[\w.]+)` — \S", section, re.M))


def test_unreached_modules_are_listed():
    from repro.experiments.registry import _CATALOG

    files = _module_files()
    roots = ["repro.cli"] + [
        f"repro.experiments.{module}" for module, _ in _CATALOG.values()
    ]
    unreached = set(files) - _static_reach(roots, files)
    assert unreached == _library_only_modules()
