"""No `cit` module imports a name it never uses.

`perfbench/tracer.py` wraps some functions under the names other modules
import them by, so a binding its `REQUIRED_SITES` lists (`protocols.entropy`)
may stay unused. `cit/__init__.py` is exempt: its imports are the package's
public names.
"""

import ast
from pathlib import Path

import pytest
from tracer import REQUIRED_SITES

SRC = Path(__file__).resolve().parents[1] / "src" / "cit"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, the names inside quoted annotations too."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    nodes = list(ast.walk(tree))
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                nodes.extend(ast.walk(ast.parse(node.value, mode="eval")))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    unused = {name for name in imported_names(tree) - used_names(tree)
              if f"cit.{module}.{name}" not in REQUIRED_SITES}
    assert not unused, f"cit.{module} imports names it never uses: {sorted(unused)}"


def test_the_tracer_bindings_are_the_only_exemption():
    exempt = set()
    for module in MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        exempt |= {f"{module}.{name}" for name in imported_names(tree) - used_names(tree)}
    assert exempt == {"protocols.entropy"}
