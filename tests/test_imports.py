"""The package's modules import each other without a cycle, counting the
imports inside function bodies too, and the package exports one name for
each public object."""

import ast
import graphlib
import importlib
from pathlib import Path

import singbraid

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singbraid"


def import_graph() -> dict[str, set[str]]:
    """Each module of the package and the package modules it imports, from
    ``from .x import ...`` and ``from . import x``."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for module in modules:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        graph[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                graph[module].update(name for name in names if name in modules)
    return graph


def test_import_graph_is_acyclic():
    graph = import_graph()
    assert "normal_form" in graph["verify"] and "sp3" in graph["normal_form"]
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as error:
        raise AssertionError(f"import cycle: {' -> '.join(error.args[1])}") from None
    assert set(order) == set(graph)


# Names that were second names for the coset table or its rows, or lookups
# only the tests called; the package defines none of them.
REMOVED = ("schreier_transversal", "enumerate_generators", "coset_rep", "express_schreier_gen")


def test_public_names():
    assert all(hasattr(singbraid, name) for name in singbraid.__all__)
    assert len(set(singbraid.__all__)) == len(singbraid.__all__)
    assert "coset_table" in singbraid.__all__
    modules = [singbraid] + [importlib.import_module(f"singbraid.{module}") for module in sorted(import_graph())]
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # The canonical display slides runs as stored: no second run expander,
    # no product of frozen words, no c-power builder.
    assert not hasattr(singbraid.FreeProductWord, "syllables")
    assert not hasattr(singbraid.FreeProductWord, "__mul__")
    assert not hasattr(singbraid.normal_form, "_c_power")
