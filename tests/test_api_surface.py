"""Every public module-level function and class of kaclab has a consumer,
every option of kaclab is set by one and every dataclass field is read.

A name is used when it is referenced outside its own definition in
``src/kaclab``, in the acceptance gate ``tests/test_acceptance.py`` or in
``bench/``.  References are identifiers, attribute names, imported names
and string constants equal to the name (the bench tracer patches
functions by name).  A defaulted parameter or dataclass field is set when
a call in the same places passes it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kaclab"
CONSUMERS = ([ROOT / "tests" / "test_acceptance.py"]
             + sorted((ROOT / "bench").rglob("*.py")))


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
            if node.name.startswith("_"):
                continue
            if (node.name not in elsewhere
                    and node.name not in _references(tree, skip=node)):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public names without a consumer: {unused}"


def _unread_fields(modules: dict, consumers: list) -> list:
    """Dataclass fields of modules (stem -> tree) that no tree reads.

    A read x.field counts for dataclass C only in a file that names C or
    a function annotated to return C, so a field whose name another
    object also carries (args.config) does not pass unread.
    """
    trees = list(modules.values()) + consumers
    returning = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                for name in _references(node.returns):
                    returning.setdefault(name, set()).add(node.name)
    files = [(_references(tree), {node.attr for node in ast.walk(tree)
                                  if isinstance(node, ast.Attribute)
                                  and isinstance(node.ctx, ast.Load)})
             for tree in trees]
    unread = []
    for stem, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            owners = {node.name} | returning.get(node.name, set())
            read = set().union(*(attrs for names, attrs in files
                                 if names & owners))
            unread += [f"{stem}.{node.name}.{s.target.id}" for s in node.body
                       if isinstance(s, ast.AnnAssign)
                       and isinstance(s.target, ast.Name)
                       and s.target.id not in read]
    return unread


def test_every_field_is_read():
    """Each dataclass field in src/kaclab is read as an attribute in src/,
    the acceptance gate or bench/; otherwise nothing consumes it."""
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    unread = _unread_fields(modules, [_parse(path) for path in CONSUMERS])
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_field_reads_count_only_where_their_owner_is_named():
    process = ast.parse(
        "@dataclass\n"
        "class TrajectoryStats:\n"
        "    velocities: np.ndarray\n"
        "    config: SimulationConfig\n"
        "def simulate(config) -> TrajectoryStats:\n"
        "    return TrajectoryStats(config.v0, config)\n")
    cli = ast.parse("cfg = load(args.config)\nsimulate_ensemble(cfg)\n")
    worker = ast.parse("stats = simulate(cfg)\nprint(stats.velocities)\n")
    assert _unread_fields({"process": process}, [cli, worker]) == [
        "process.TrajectoryStats.config"]
    reader = ast.parse("def last(s: TrajectoryStats):\n    return s.config\n")
    assert _unread_fields({"process": process}, [cli, worker, reader]) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _plain_default(value) -> bool:
    """A field default other than field(default_factory=...)."""
    if value is None:
        return False
    return not (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"
                and any(kw.arg == "default_factory" for kw in value.keywords))


def _scan(tree, knobs: list, calls: list) -> None:
    """Append to knobs each (definition, called name, parameter, positional
    index or None) of a defaulted parameter or plain-default dataclass
    field, and to calls each (call, called name, enclosing function,
    enclosing class's __init__)."""
    def visit(node, func, cls, init):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [s for s in child.body
                              if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    knobs.extend((child, child.name, s.target.id, i)
                                 for i, s in enumerate(fields)
                                 if _plain_default(s.value))
                inits = [s for s in child.body if isinstance(s, ast.FunctionDef)
                         and s.name == "__init__"]
                visit(child, None, child, inits[0] if inits else None)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and func is None and not static:
                    positional = positional[1:]  # self or cls
                name = child.name
                if name == "__init__" and cls is not None and func is None:
                    name = cls.name
                first = len(positional) - len(args.defaults)
                knobs.extend((child, name, a.arg, first + i)
                             for i, a in enumerate(positional[first:]))
                knobs.extend((child, name, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None)
                visit(child, child, cls, init)
            else:
                if isinstance(child, ast.Call):
                    f = child.func
                    called = getattr(f, "id", getattr(f, "attr", None))
                    if called is not None:
                        calls.append((child, called, func, init))
                visit(child, func, cls, init)

    visit(tree, None, None, None)


def _argument(call: ast.Call, param: str, index):
    """The expression call passes as param, True when a starred argument
    may cover it, None when it does not pass it."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if index is None:
        return None
    for pos, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return True if pos <= index else None
    return call.args[index] if len(call.args) > index else None


def _forwards(arg, func, init, unset: set) -> bool:
    """Whether arg only passes on a knob that is itself never set: a
    parameter of the enclosing function, or self.<name> of an __init__
    parameter of the enclosing class."""
    if isinstance(arg, ast.Name) and func is not None:
        return (id(func), arg.id) in unset
    if (isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
            and arg.value.id == "self" and init is not None):
        return (id(init), arg.attr) in unset
    return False


def test_every_default_is_set_somewhere():
    """Each defaulted parameter, and each dataclass field with a plain
    default, is set by a call outside its own definition in src/, the
    acceptance gate or bench/; otherwise it is a constant.

    A call that only passes on another knob that nothing sets does not
    count, so a knob plumbed through several layers is still found.
    """
    knobs, calls, owner = [], [], {}
    for path in sorted(SRC.glob("*.py")):
        start = len(knobs)
        _scan(_parse(path), knobs, calls)
        owner.update((id(k[0]), path.stem) for k in knobs[start:])
    for path in CONSUMERS:
        _scan(_parse(path), [], calls)
    inside = {id(node): {id(n) for n in ast.walk(node)}
              for node, *_ in knobs}
    unset = {(id(node), param) for node, _, param, _ in knobs}
    while True:
        still = set()
        for node, name, param, index in knobs:
            for call, called, func, init in calls:
                if called != name or id(call) in inside[id(node)]:
                    continue
                arg = _argument(call, param, index)
                if arg is True or (arg is not None and not _forwards(
                        arg, func, init, unset)):
                    break
            else:
                still.add((id(node), param))
        if still == unset:
            break
        unset = still
    names = sorted(f"{owner[id(node)]}.{name}({param})"
                   for node, name, param, _ in knobs
                   if (id(node), param) in unset)
    assert not names, f"defaults that nothing sets: {names}"


def _private_reads(modules: dict) -> list:
    """Reads in modules (stem -> tree) of an underscore name that another
    module defines: obj._x on an object other than self, for an _x the
    module itself neither defines nor assigns, and from m import _x from
    another kaclab module.  Dunder names are not private."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for stem, tree in modules.items():
        own = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        own |= {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and private(node.attr)
                    and node.attr not in own
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                found.append(f"{stem}:{node.lineno} {node.attr}")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.level > 0
                       or (node.module or "").split(".")[0] == "kaclab")):
                found += [f"{stem}:{node.lineno} {alias.name}"
                          for alias in node.names if private(alias.name)]
    return found


def test_no_module_reads_another_modules_private_names():
    """The modules of src/kaclab talk through public names only, so a
    private name can change with its own module alone."""
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    found = _private_reads(modules)
    assert not found, f"private names read across modules: {found}"


def test_private_reads_are_found_on_objects_and_imports():
    inequalities = ast.parse(
        "from .conditioned import ConditionedFamily, _MC_BATCH\n"
        "def check(r):\n"
        "    return r.family._marginal_quadrature(), r.__class__\n")
    conditioned = ast.parse(
        "class ConditionedFamily:\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "    def same(self, other):\n"
        "        return self._cache, other._cache, self._levels\n")
    assert _private_reads({"inequalities": inequalities,
                           "conditioned": conditioned}) == [
        "inequalities:1 _MC_BATCH", "inequalities:3 _marginal_quadrature"]
