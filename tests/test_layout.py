"""The layout of the test suite: exact references live in oracles.py, named
schemes in corpus.py, and no test module imports another."""

import ast
from functools import cache
from pathlib import Path

TESTS = Path(__file__).parent


@cache
def parsed():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(TESTS.glob("*.py"))}


def imported(tree):
    """The top-level names of the modules a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.split(".")[0]
            else:                                   # from . import name
                yield from (alias.name for alias in node.names)


def test_no_module_of_the_suite_imports_a_test_module():
    modules = parsed()
    assert {"oracles.py", "corpus.py", "test_layout.py"} <= set(modules)
    assert [(name, module) for name, tree in modules.items()
            for module in imported(tree) if module.startswith("test_")] == []


def defined(prefixes):
    """(module, function) for each top-level function whose name starts
    with one of the prefixes."""
    return [(name, node.name) for name, tree in parsed().items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith(prefixes)]


def test_the_references_are_defined_in_oracles_only():
    found = defined(("reference_", "dense_", "pairwise_", "kernel_tensor", "exhaustive_parabolics",
                     "union_find", "relation_pairs", "squaring_closure", "_reference_chain_verdict",
                     "_lattice_route", "_least_cover_chain"))
    assert found and {name for name, _ in found} == {"oracles.py"}


def test_each_merged_builder_is_defined_once_in_corpus():
    # builders several modules once wrote for themselves: one copy each is
    # kept in corpus.py, and the schemes' own frobenius_scheme replaces the
    # wrappers of it
    kept = ("complete_colors", "cycle_coloring", "permuted", "perturbed", "swap_symmetric_pairs")
    merged = kept + ("frobenius_scheme", "complete_scheme", "cycle_colors")
    found = [(name, fn) for name, fn in defined(merged) if fn in merged]
    assert sorted(found) == [("corpus.py", fn) for fn in sorted(kept)]
