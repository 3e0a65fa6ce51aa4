import ast
from pathlib import Path

import pytest

MODULES = sorted(
    p for p in (Path(__file__).resolve().parent.parent / "src" / "assocarray").glob("*.py")
    if p.name != "__init__.py"
)

# module -> imported names it keeps without referencing them, with the reason
KEPT_UNUSED = {
    # perfbench/tracing.py wraps these bindings of cli; incidence_arrays is
    # wrapped for the traced --smoke run, and getattr fails without it
    "cli": {"check_word_consistency", "incidence_arrays"},
    # graph's products call array._product_t; perfbench/tracing.py wraps these
    # bindings of graph, and would fail without them
    "graph": {"matmul", "transpose"},
}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    referenced = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported - referenced == KEPT_UNUSED.get(path.stem, set())


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_reads_a_value_wrapper_attribute(path):
    # a carrier element is its payload, so no value has these to read
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = sorted(
        (n.lineno, n.attr) for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("payload", "kind")
    )
    assert reads == []


# module -> (private name, public asname) bindings it keeps, with the reason
KEPT_ALIASES = {
    # perfbench/tracing.py wraps cli.from_triples; doc-adjacency folds the
    # parsed triples, whose keys and tokens the parse has checked
    "cli": {("_fold_triples", "from_triples")},
}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_private_name_under_a_public_one(path):
    # a public name promises the checked function; a private one hides behind it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        (a.name, a.asname)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name.startswith("_") and a.asname and not a.asname.startswith("_")
    }
    assert aliases == KEPT_ALIASES.get(path.stem, set())
