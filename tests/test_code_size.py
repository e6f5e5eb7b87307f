"""No definition in ``src/`` that only the tests call.

Every non-dunder ``def`` or ``class`` in ``src/boxchain`` must be
referenced by name (a ``Name``, an ``Attribute`` or an imported name)
somewhere in ``src/boxchain`` or ``perfbench``; the package
``__init__.py``'s re-exports are not callers.  What a test needs beyond
that belongs in ``tests/support_*.py``.  The scan goes by bare name, so
a definition that shares its name with a used one passes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "src" / "boxchain").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
INIT = ROOT / "src" / "boxchain" / "__init__.py"

# kept for the tests alone, each with the test that compares against it
ALLOWED = {
    "MapModel.preimage": "test_maps.py::test_batch_backward_contains_scalar_preimage",
    "BoxRegion.contains_point": "test_maps.py::test_enclosure_soundness_sweep",
    "box_predicates": "test_boxtree.py::_check_against_linear_scan",
}


def _definitions(tree, prefix=""):
    """(qualified name, name) of the defs and classes in ``tree``,
    nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _references(tree, aliases=True):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif aliases and isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def _scan():
    """(every name the scanned files reference, (module, qualified
    name, name) of every definition in ``src/boxchain``)."""
    used, defined = set(), []
    for path in SCANNED:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used.update(_references(tree, aliases=path != INIT))
        if path.parent.name == "boxchain":
            defined += [(path.stem, qual, name) for qual, name in _definitions(tree)]
    return used, defined


def test_every_definition_in_src_has_a_caller_in_src_or_perfbench():
    used, defined = _scan()
    unused = [
        f"{module}.{qual}"
        for module, qual, name in defined
        if name not in used and not (name.startswith("__") and name.endswith("__")) and qual not in ALLOWED
    ]
    assert unused == [], "move each to tests/support_*.py, or delete it"


def test_each_allowed_name_is_defined_and_called_by_its_test():
    defined = {qual for _, qual, _ in _scan()[1]}
    for qual, test in ALLOWED.items():
        file, function = test.split("::")
        tree = ast.parse((ROOT / "tests" / file).read_text(encoding="utf-8"))
        body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
        assert qual in defined and qual.rpartition(".")[2] in set(_references(body)), qual
