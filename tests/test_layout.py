"""The layout of the test suite: exact references live in oracles.py, named
schemes in corpus.py, and no test module imports another.  In the package,
only `arith` and `scheme` name the difference table, `cli` alone reads
scheme and spec files, and `cli` alone writes reports."""

import ast
from functools import cache
from pathlib import Path

import pfscheme

TESTS = Path(__file__).parent
PACKAGE = Path(pfscheme.__file__).parent


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


def refers(node, name):
    """Whether a node names `name`: as a variable, an attribute, an
    imported or defined name or a string equal to it."""
    return any(getattr(node, field, None) == name
               for field in ("id", "attr", "name", "asname", "value"))


def named(tree, name):
    """Whether a module refers to `name` anywhere."""
    return any(refers(node, name) for node in ast.walk(tree))


def referrers(tree, name):
    """The functions of a module that refer to `name`, each reference booked
    to the innermost function around it ("<module>" outside any); the
    definition of `name` and references inside it are left out."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif refers(node, name):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found - {name}


@cache
def package():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_only_arith_and_scheme_name_the_difference_table():
    # a translation certificate is its radices; scheme.py alone turns them
    # into a table, while it gathers colours or runs the row test
    modules = package()
    assert {"arith", "scheme", "circulants", "wldim"} <= set(modules)
    assert [name for name, tree in modules.items()
            if named(tree, "difference_table")] == ["arith", "scheme"]



def test_cli_alone_reads_scheme_files():
    # one loader and one check of the n, rank and star a file states:
    # `Scheme` keeps no JSON form, and two functions load a scheme document
    modules = package()
    schemes = [node for tree in modules.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "Scheme"]
    assert len(schemes) == 1
    assert [node.name for node in ast.walk(schemes[0])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.endswith("_json_dict")] == []
    assert sorted((module, fn) for module, tree in modules.items()
                  for fn in referrers(tree, "_load_document")) \
        == [("cli", "_load_scheme"), ("cli", "cmd_check_axioms")]


def namedtuples():
    """The field names of each NamedTuple class of the package, by class name."""
    return {node.name: [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            for tree in package().values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(refers(base, "NamedTuple") for base in node.bases)}


def report_exceptions():
    """`cli._REPORT` as written: the fields each record's entry names, by
    record name."""
    [table] = [node.value for node in package()["cli"].body if isinstance(node, ast.Assign)
               and any(refers(target, "_REPORT") for target in node.targets)]
    return {ast.literal_eval(record): [ast.literal_eval(field) for field in entry.keys]
            for record, entry in zip(table.keys, table.values)}


def test_cli_alone_reads_spec_files():
    # one parser of the spec format, read by the three --spec commands, and
    # no other module of the package that reads or writes JSON
    modules = package()
    assert sorted((module, fn) for module, tree in modules.items()
                  for fn in referrers(tree, "_load_spec")) \
        == [("cli", "_spec_from_args"), ("cli", "cmd_check_separability")]
    assert [name for name, tree in modules.items() if "json" in imported(tree)] == ["cli"]


def test_cli_alone_writes_reports():
    # one encoder, `cli._plain`: no class keeps a JSON form, and each
    # exception of `cli._REPORT` names a field of a record, so that a
    # renamed field cannot leave the table unseen
    assert [(node.name, item.name) for tree in package().values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name.endswith("_json_dict")] == []
    records, table = namedtuples(), report_exceptions()
    assert {"TConditionWitness", "WlVerdict", "FrobeniusScreen"} <= set(records)
    assert table and sorted(set(table) - set(records)) == []
    assert [(record, field) for record, fields in table.items()
            for field in fields if field not in records[record]] == []
