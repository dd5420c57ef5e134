"""Only `chains.chain_routes` runs the chain routes.

The det search and the randomized-chain descent are reached from the rest
of `cit` through `chain_routes` alone, so the hand-over of the det winner
to the descent, and what a failed route means, live in one place.
`cit/__init__.py` is exempt: it re-exports both functions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cit"
ROUTES = {"det_chain_search", "continuous_chain_minimize"}
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "chains"))


def named_routes(tree: ast.Module) -> set[str]:
    """The route functions a module names: read, looked up as an attribute, or imported."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names & ROUTES


@pytest.mark.parametrize("module", MODULES)
def test_no_module_but_chains_names_a_route(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not named_routes(tree), \
        f"cit.{module} names {sorted(named_routes(tree))}; call chains.chain_routes"


def test_the_check_sees_a_route_call():
    tree = ast.parse("from .chains import det_chain_search\n"
                     "chains.continuous_chain_minimize(pmf, sizes)\n")
    assert named_routes(tree) == ROUTES
