"""Every public module-level function and class of kaclab has a consumer.

A name is used when it is referenced outside its own definition in
``src/kaclab``, in the acceptance gate ``tests/test_acceptance.py`` or in
``bench/``.  References are identifiers, attribute names, imported names
and string constants equal to the name (the bench tracer patches
functions by name).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kaclab"
CONSUMERS = ([ROOT / "tests" / "test_acceptance.py"]
             + sorted((ROOT / "bench").rglob("*.py")))
# ROADMAP item 3: the paper's limit-level inequality is to be wired into
# the CLI and the acceptance gate, not deleted
ALLOWED = {"boltzmann_inequality_check"}


def _references(node, skip=None) -> set:
    """Names referenced in the tree under node, leaving out skip's subtree."""
    if node is skip:
        return set()
    out = set()
    if isinstance(node, ast.Name):
        out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add(node.attr)
    elif isinstance(node, ast.alias):
        out.add(node.name.rsplit(".", 1)[-1])
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        out.add(node.value)
    for child in ast.iter_child_nodes(node):
        out |= _references(child, skip)
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_consumer():
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = set()
    for path in CONSUMERS:
        outside |= _references(_parse(path))
    unused = []
    for path, tree in modules.items():
        elsewhere = set(outside)
        for other, other_tree in modules.items():
            if other != path:
                elsewhere |= _references(other_tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in ALLOWED:
                continue
            if (node.name not in elsewhere
                    and node.name not in _references(tree, skip=node)):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public names without a consumer: {unused}"
