import ast
from pathlib import Path

import pytest

MODULES = sorted(
    p for p in (Path(__file__).resolve().parent.parent / "src" / "assocarray").glob("*.py")
    if p.name != "__init__.py"
)

# module -> imported names it keeps without referencing them, with the reason
KEPT_UNUSED = {
    "cli": {"check_word_consistency"},  # perfbench/tracing.py wraps this binding of cli
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
