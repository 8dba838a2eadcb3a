"""Quality gates on the public API surface.

Every subpackage must import cleanly, export exactly what its ``__all__``
advertises, and document every public callable — the kind of invariants
that quietly rot in a growing codebase.
"""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.arch",
    "repro.core",
    "repro.devices",
    "repro.dfg",
    "repro.frontend",
    "repro.mapping",
    "repro.reliability",
    "repro.sim",
    "repro.workloads",
]

MODULES = PACKAGES + [
    "repro.cli",
    "repro.errors",
    "repro.arch.isa",
    "repro.arch.layout",
    "repro.arch.parse",
    "repro.arch.target",
    "repro.core.compiler",
    "repro.core.config",
    "repro.core.report",
    "repro.core.serialize",
    "repro.devices.arraymodel",
    "repro.devices.failure",
    "repro.devices.faultmap",
    "repro.devices.technology",
    "repro.dfg.blevel",
    "repro.dfg.builder",
    "repro.dfg.compose",
    "repro.dfg.dot",
    "repro.dfg.evaluate",
    "repro.dfg.graph",
    "repro.dfg.ops",
    "repro.dfg.transforms",
    "repro.frontend.ast_nodes",
    "repro.frontend.lexer",
    "repro.frontend.lower",
    "repro.frontend.parser",
    "repro.mapping.base",
    "repro.mapping.clustering",
    "repro.mapping.codegen",
    "repro.mapping.multiarray",
    "repro.mapping.naive",
    "repro.mapping.optimized",
    "repro.reliability.campaign",
    "repro.reliability.lifetime",
    "repro.reliability.recovery",
    "repro.reliability.sweep",
    "repro.sim.cpu",
    "repro.sim.endurance",
    "repro.sim.executor",
    "repro.sim.metrics",
    "repro.sim.vectorized",
    "repro.sim.wearlevel",
    "repro.workloads.aes",
    "repro.workloads.bfs",
    "repro.workloads.bitslice",
    "repro.workloads.bitweaving",
    "repro.workloads.dna",
    "repro.workloads.sobel",
    "repro.workloads.synthetic",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documents_itself(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_have_docstrings(name):
    module = importlib.import_module(name)
    missing = []
    for attr_name, attr in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if getattr(attr, "__module__", None) != name:
            continue  # re-exported from elsewhere
        if inspect.isfunction(attr) or inspect.isclass(attr):
            if not inspect.getdoc(attr):
                missing.append(attr_name)
            if inspect.isclass(attr):
                for meth_name, meth in vars(attr).items():
                    if meth_name.startswith("_") or not inspect.isfunction(meth):
                        continue
                    if meth.__name__ == "<lambda>":
                        continue  # dataclass field defaults
                    if not inspect.getdoc(meth):
                        missing.append(f"{attr_name}.{meth_name}")
    assert not missing, f"{name}: undocumented public callables: {missing}"


def test_runtime_imports_only_numpy():
    """The runtime's one third-party dependency is numpy: importing the
    library, the CLI, the serving runtime and the campaigns in a fresh
    interpreter loads neither scipy nor networkx."""
    script = ("import sys, repro, repro.cli, repro.serve, repro.reliability; "
              "print(sorted({m.split('.')[0] for m in sys.modules} "
              "& {'scipy', 'networkx'}))")
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]", result.stdout
