"""The package's modules import each other without a cycle, counting the
imports inside function bodies too, and the package exports one name for
each public object.  Importing the package loads neither ``dataclasses``
nor ``inspect``, and the oracles import none of the engine's deciding
stages."""

import ast
import graphlib
import importlib
import subprocess
import sys
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


# Names that were second names for the coset table or its rows, lookups
# and builders only the tests called, steps with one caller that now holds
# their body, or tables that restated another: the subcommands dispatch
# through their parsers, and the printers write c from its syllables.  The
# package defines none of them.  The tests keep their own: ``expand`` and
# ``walk`` in reference_reduction, the center generator and the conjugated
# relators in helpers.
REMOVED = (
    "schreier_transversal",
    "enumerate_generators",
    "coset_rep",
    "express_schreier_gen",
    "expand",
    "s_generator_word",
    "relator_rewrites",
    "RelatorRewrite",
    "center_generator",
    "EXPRESSION_TABLE",
    "_expression_table",
    "_express",
    "walk",
    "_COMMANDS",
    "_C_LETTERS",
)


def test_public_names():
    assert all(hasattr(singbraid, name) for name in singbraid.__all__)
    assert len(set(singbraid.__all__)) == len(singbraid.__all__)
    assert "coset_table" in singbraid.__all__
    modules = [singbraid] + [importlib.import_module(f"singbraid.{module}") for module in sorted(import_graph())]
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # The canonical display slides runs as stored: no c-power builder.
    assert not hasattr(singbraid.normal_form, "_c_power")


def test_no_member_that_only_the_tests_read():
    # Nothing looks a coset up by its representative, and a permutation is
    # neither applied to a point nor asked its size outside its printer.
    assert not hasattr(singbraid.coset_table(3), "index")
    assert not {"__call__", "size"} & set(singbraid.Permutation.__dict__)


def test_reduced_forms_hold_the_stack_entries():
    # A base of a reduced form is the tuple of its stack's entries: no class
    # wraps it, no stack method freezes it, no base word is built outside
    # the reducer, and no table maps a letter to its factor.
    for name in ("FreeProductWord", "free_product_nf", "_FACTOR_OF"):
        assert not hasattr(singbraid, name) and not hasattr(singbraid.normal_form, name), name
    assert not hasattr(singbraid.normal_form, "_BaseStack")
    form = singbraid.britton_reduce(singbraid.parse_sp_word("a13 b12 a12^2 b23 b12^-1 b13"))
    assert form.bases.__class__ is tuple and len(form.bases) == 3
    assert all(base.__class__ is tuple for base in form.bases)


# What the rewriter takes from the words: the letters, the word and letter
# types and the value base.
REWRITING_IMPORTS = {"SIGMA", "TAU", "BraidWord", "Letter", "Value"}


def test_rewriting_imports_only_the_words_it_walks():
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "rewriting.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            assert node.module == "words", node.module
            imported.update(alias.name for alias in node.names)
    assert imported == REWRITING_IMPORTS


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hook may load either module first and hide a regression.
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); heavy = {{'dataclasses', 'inspect'}}\n"
        "import singbraid; print(sorted(heavy & set(sys.modules)))\n"
        "import singbraid.cli; print(sorted(heavy & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n[]\n", "")


def test_no_module_imports_dataclasses():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "dataclasses" for name in names), path.name


# What the oracles may take from the package: the letters, the word type
# and the relators, none of which decides anything.
ORACLE_IMPORTS = {"SIGMA", "TAU", "BraidWord", "Letter", "sg3_relators"}


def test_oracles_import_no_deciding_stage():
    assert import_graph()["oracles"] == {"words"}
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "oracles.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update(alias.name for alias in node.names)
    assert imported <= ORACLE_IMPORTS, imported - ORACLE_IMPORTS
    assert not {"pi", "exponent_sums"} & imported
